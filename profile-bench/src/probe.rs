//! What one repetition records about itself: the phase spans and client
//! waits (always — the end-to-end metrics are read off them), and, in a
//! traced repetition, every wait as a span plus counts and `/proc` deltas
//! taken at the phase boundaries.
//!
//! Spans are recorded here, in the benchmark's own code, around the calls
//! into the runtime's layers; nothing inside the runtime is instrumented.

use crate::json::Value;
use crate::procfs::{self, Snapshot};
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one (`None` for the root).
    pub parent: Option<usize>,
}

/// The span every other span of a repetition hangs under.
const ROOT: usize = 0;

pub struct Probe {
    origin: Instant,
    trace: bool,
    spans: Vec<Span>,
    /// The open phase, if any (phases are sequential children of the root).
    phase: Option<usize>,
    waits_us: Vec<f64>,
    peak_threads: u64,
    counts: Vec<(&'static str, f64)>,
    window: Option<(Snapshot, Snapshot, u64)>,
    window_start: Option<Snapshot>,
    /// Time the client thread spent on tracing-only work while the clock of
    /// the repetition ran (span pushes, `/proc` snapshots).
    trace_cost: Duration,
}

impl Probe {
    /// `launch` is how long ago the runner launched this process: the first
    /// span of the repetition, ending now.
    pub fn new(trace: bool, launch: Duration) -> Probe {
        let launched_us = -launch.as_secs_f64() * 1e6;
        Probe {
            origin: Instant::now(),
            trace,
            spans: vec![
                Span {
                    name: "rep",
                    start_us: launched_us,
                    end_us: 0.0,
                    parent: None,
                },
                Span {
                    name: "launch",
                    start_us: launched_us,
                    end_us: 0.0,
                    parent: Some(ROOT),
                },
            ],
            phase: None,
            waits_us: Vec::new(),
            peak_threads: 0,
            counts: Vec::new(),
            window: None,
            window_start: None,
            trace_cost: Duration::ZERO,
        }
    }

    pub fn tracing(&self) -> bool {
        self.trace
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Ends the open phase and starts the next one.
    pub fn phase(&mut self, name: &'static str) {
        self.end_phase();
        let now = self.now_us();
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent: Some(ROOT),
        });
        self.phase = Some(self.spans.len() - 1);
    }

    /// Ends the open phase without starting another.
    pub fn end_phase(&mut self) {
        if let Some(open) = self.phase.take() {
            self.spans[open].end_us = self.now_us();
        }
    }

    /// Records one client-endpoint wait that began at `start` and ends now.
    pub fn wait_since(&mut self, start: Instant) {
        let end = Instant::now();
        self.waits_us
            .push(end.duration_since(start).as_secs_f64() * 1e6);
        if self.trace {
            self.spans.push(Span {
                name: "wait",
                start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
                end_us: end.duration_since(self.origin).as_secs_f64() * 1e6,
                parent: self.phase,
            });
            // The span push and this clock read are what tracing adds here.
            self.trace_cost += end.elapsed();
        }
    }

    /// Reads the OS thread count at one of the fixed points of a repetition.
    pub fn sample_threads(&mut self) {
        self.peak_threads = self.peak_threads.max(procfs::threads());
    }

    /// Opens the steady-state window the `/proc` deltas are taken across.
    /// Only a traced repetition pays for the reads.
    pub fn window_open(&mut self) {
        if self.trace {
            let t = Instant::now();
            self.window_start = Some(Snapshot::take());
            self.trace_cost += t.elapsed();
        }
    }

    /// Closes the window; `items` were completed inside it.
    pub fn window_close(&mut self, items: u64) {
        if let Some(start) = self.window_start.take() {
            let t = Instant::now();
            self.window = Some((start, Snapshot::take(), items));
            self.trace_cost += t.elapsed();
        }
    }

    /// Records a count read from one of the runtime's public report surfaces.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.trace {
            self.counts.push((name, value));
        }
    }

    pub fn finish(mut self) -> Finished {
        self.end_phase();
        self.spans[ROOT].end_us = self.now_us();
        self.waits_us.sort_by(f64::total_cmp);
        if let Some((a, b, items)) = self.window {
            let wall = b.at.duration_since(a.at).as_secs_f64();
            let cpu = b.cpu_s() - a.cpu_s();
            let per_item = |x: f64| if items == 0 { 0.0 } else { x / items as f64 };
            let cores = procfs::cores() as f64;
            self.counts.extend([
                ("proc.cpu_us_per_item", per_item(cpu * 1e6)),
                (
                    "proc.sys_share",
                    if cpu > 0.0 {
                        (b.sys_s - a.sys_s) / cpu
                    } else {
                        0.0
                    },
                ),
                (
                    "proc.cpu_util",
                    if wall > 0.0 {
                        cpu / (wall * cores)
                    } else {
                        0.0
                    },
                ),
                (
                    "proc.vol_ctx_switches_per_item",
                    per_item(b.vol_ctx.saturating_sub(a.vol_ctx) as f64),
                ),
                (
                    "net.tcp_segs_per_item",
                    per_item(b.tcp_out_segs.saturating_sub(a.tcp_out_segs) as f64),
                ),
            ]);
        }
        let mut done = Finished {
            spans: self.spans,
            waits_us: self.waits_us,
            peak_threads: self.peak_threads,
            counts: self.counts,
        };
        if self.trace {
            let share = self.trace_cost.as_secs_f64() / done.wall_s() * 100.0;
            done.counts.push(("trace.overhead_pct", share));
        }
        done
    }
}

pub struct Finished {
    pub spans: Vec<Span>,
    /// Ascending.
    pub waits_us: Vec<f64>,
    pub peak_threads: u64,
    pub counts: Vec<(&'static str, f64)>,
}

impl Finished {
    /// Nothing → first process runnable: from the launch of the repetition's
    /// process (exec, loading, runtime start-up) through cluster, graph
    /// build and start. The benchmark's own input generation, which happens
    /// in between, is no phase and is not counted.
    pub fn setup_s(&self) -> f64 {
        ["launch", "setup.cluster", "setup.build", "setup.start"]
            .iter()
            .fold(0.0, |acc, phase| acc + self.phase_s(phase))
    }

    /// Graph started or deployed → last item verified and `join()` returned.
    pub fn wall_s(&self) -> f64 {
        ["first_item", "steady", "drain_close", "join"]
            .iter()
            .fold(0.0, |acc, phase| acc + self.phase_s(phase))
    }

    /// Total duration in seconds of the phases called `name`.
    pub fn phase_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent == Some(ROOT))
            .fold(0.0, |acc, s| acc + (s.end_us - s.start_us) / 1e6)
    }

    /// The trace file: every span with its parent; one repetition is one
    /// request, so the root span's index doubles as the shared identifier.
    pub fn trace_json(&self, workload: &str) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::obj()
                    .with("id", id)
                    .with("parent", s.parent.map_or(Value::Null, Value::from))
                    .with("rep", ROOT)
                    .with("name", s.name)
                    .with("start_us", s.start_us)
                    .with("end_us", s.end_us)
            })
            .collect();
        let mut counts = Value::obj();
        for (name, value) in &self.counts {
            counts.set(name, *value);
        }
        Value::obj()
            .with("workload", workload)
            .with("counts", counts)
            .with("spans", spans)
    }
}
