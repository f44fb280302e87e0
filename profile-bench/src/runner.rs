//! The parent side: spawns one child process per repetition, gathers the
//! per-repetition results into medians with quartiles, and reports them —
//! as the `profile` table and `BENCH_profile.json`, or as the one JSON line
//! of the `BENCHMARK.json` driver contract.

use crate::json::{self, Value};
use crate::metrics::{self, END_TO_END, LADDER, TRACED};
use crate::procfs;
use crate::stats::{highest_supported_percentile, median, percentile_sorted, Summary};
use crate::workloads::{self, Rep, Spec, SPECS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

pub const DEFAULT_SEED: u64 = 2003;
pub const DEFAULT_OUT: &str = "bench_results/profile/BENCH_profile.json";

/// Variables that would move a child off the default path.
const SCRUBBED_ENV: [&str; 6] = [
    "KPN_EXEC",
    "KPN_WORKERS",
    "KPN_NET_BACKEND",
    "KPN_LINT",
    "KPN_SYNTH",
    "KPN_MONITOR_DEBUG",
];

/// Child side: one repetition as the JSON line the parent reads.
pub fn rep_json(rep: &Rep) -> Value {
    let rec = &rep.record;
    let waits = &rec.waits_us;
    let mut layer = Value::obj()
        .with("wait_p99_us", percentile_sorted(waits, 99.0))
        .with("wait_p999_us", percentile_sorted(waits, 99.9));
    for phase in [
        "launch",
        "setup.cluster",
        "setup.build",
        "setup.start",
        "first_item",
        "steady",
        "drain_close",
        "join",
        "teardown",
    ] {
        let name = format!("span.{}_ms", phase.replace('.', "_"));
        layer.set(&name, rec.phase_s(phase) * 1e3);
    }
    for (name, value) in &rec.counts {
        layer.set(name, *value);
    }
    Value::obj()
        .with("items", rep.items)
        .with("failed", rep.failed)
        .with("error", rep.error.clone().map_or(Value::Null, Value::from))
        .with("exec_mode", rep.exec_mode.as_str())
        .with("net_backend", rep.net_backend.as_str())
        .with("wait_samples", waits.len())
        .with(
            "end_to_end",
            Value::obj()
                .with("items_per_s", rep.items as f64 / rec.wall_s())
                .with("wait_p50_us", percentile_sorted(waits, 50.0))
                .with("setup_s", rec.setup_s())
                .with("peak_threads", rec.peak_threads)
                .with("peak_rss_mib", procfs::peak_rss_mib()),
        )
        .with("per_layer", layer)
}

/// Runs this executable again with `args` and the `KPN_*` variables
/// cleared; the child's last stdout line is its JSON result.
fn child(args: &[String]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(args).stdin(Stdio::null()).stderr(Stdio::inherit());
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} ended with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    json::parse(last).map_err(|e| format!("child {args:?} printed no result: {e}"))
}

/// Wall-clock time since the Unix epoch: the one clock a parent and its
/// child can compare.
pub fn unix_time() -> Duration {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default()
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// One repetition in a fresh process. A child that dies counts as a
/// repetition in which every item failed.
fn run_rep(spec: &Spec, size: u64, seed: u64, trace_out: Option<&Path>) -> Value {
    let mut args = strings(&[
        "run-one",
        spec.name,
        "--seed",
        &seed.to_string(),
        "--size",
        &size.to_string(),
        // Set-up is timed from here: launching the process is part of it.
        "--launched-us",
        &unix_time().as_micros().to_string(),
    ]);
    if let Some(path) = trace_out {
        args.extend(strings(&[
            "--trace",
            "1",
            "--trace-out",
            &path.to_string_lossy(),
        ]));
    }
    child(&args).unwrap_or_else(|e| {
        let items = size * spec.items_per_size;
        Value::obj()
            .with("items", items)
            .with("failed", items)
            .with("error", e)
    })
}

fn run_ladder(seed: u64, sample_ms: u64, samples: u64) -> Result<Value, String> {
    child(&strings(&[
        "ladder",
        "--seed",
        &seed.to_string(),
        "--sample-ms",
        &sample_ms.to_string(),
        "--samples",
        &samples.to_string(),
    ]))
}

/// The repetitions of one workload in one pass.
#[derive(Default)]
struct Gathered {
    reps: Vec<Value>,
}

impl Gathered {
    fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.num("items", 0.0) as u64).sum()
    }

    fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.num("failed", 0.0) as u64).sum()
    }

    /// A repetition with any failed item has its timings voided.
    fn valid(&self) -> impl Iterator<Item = &Value> {
        self.reps.iter().filter(|r| r.num("failed", 1.0) == 0.0)
    }

    fn first_str(&self, key: &str) -> String {
        self.valid()
            .find_map(|r| r.get(key)?.as_str())
            .unwrap_or("unknown")
            .to_string()
    }

    fn summary(&self, metric: &str) -> Summary {
        if metric == "failed_share" {
            let shares: Vec<f64> = self
                .reps
                .iter()
                .map(|r| r.num("failed", 0.0) / r.num("items", 1.0).max(1.0))
                .collect();
            return Summary::of(&shares);
        }
        let samples: Vec<f64> = self
            .valid()
            .filter_map(|r| r.get("end_to_end")?.get(metric)?.as_f64())
            .collect();
        Summary::of(&samples)
    }

    /// Median over the (traced) repetitions of one per-layer value; a count
    /// the workload's reports do not carry is `NaN`.
    fn layer_median(&self, name: &str) -> f64 {
        let values: Vec<f64> = self
            .valid()
            .filter_map(|r| r.get("per_layer")?.get(name)?.as_f64())
            .collect();
        median(&values)
    }

    fn errors(&self) -> Vec<String> {
        self.reps
            .iter()
            .filter_map(|r| r.get("error")?.as_str().map(str::to_string))
            .collect()
    }
}

/// Puts the machine into its sustained state before anything is timed: every
/// core spins for two seconds. On the 2-vCPU box this benchmark was sized on,
/// wake-up latency has two regimes (a `relay_local` round trip is 14 us after
/// a few idle seconds and 64 us after about one second of load on both
/// cores), each of which persists under light load, so without this a run's
/// numbers depend on what the machine did before it. Heavy workloads reach
/// the sustained regime on their own; this makes the light ones start there.
fn condition() {
    let until = Instant::now() + Duration::from_secs(2);
    std::thread::scope(|s| {
        for _ in 0..procfs::cores() {
            s.spawn(|| {
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            });
        }
    });
}

/// A child that fails at once must not spin until the budget is gone.
const MAX_REPS: usize = 400;

/// Which repetitions of a pass are traced; traced ones leave
/// `trace_<workload>.json` in the directory.
#[derive(Clone, Copy)]
enum Tracing<'a> {
    Off,
    /// Every repetition.
    Only(&'a Path),
    /// In every third round a traced repetition follows the untraced one, so
    /// the two kinds see the same machine over the same stretch of time.
    Mixed(&'a Path),
}

/// The untraced and the traced repetitions of one workload.
#[derive(Default)]
struct Pass {
    untraced: Gathered,
    traced: Gathered,
}

/// One pass over `specs`: rounds of repetitions, every one in a fresh
/// process, until each workload has used `budget_s` seconds of child time
/// and has had at least `min_rounds`. Workloads take turns, in an order
/// drawn from the seed each round, so drift favours none.
fn gather(
    specs: &[&Spec],
    divisor: u64,
    seed: u64,
    budget_s: f64,
    min_rounds: usize,
    tracing: Tracing,
) -> Vec<Pass> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut passes: Vec<Pass> = specs.iter().map(|_| Pass::default()).collect();
    let mut spent = vec![0.0; specs.len()];
    let mut rounds = vec![0usize; specs.len()];
    loop {
        let mut order: Vec<usize> = (0..specs.len())
            .filter(|&w| rounds[w] < min_rounds || (spent[w] < budget_s && rounds[w] < MAX_REPS))
            .collect();
        if order.is_empty() {
            return passes;
        }
        shuffle(&mut order, &mut rng);
        for w in order {
            let size = sized(specs[w], divisor);
            let t = Instant::now();
            if !matches!(tracing, Tracing::Only(_)) {
                passes[w]
                    .untraced
                    .reps
                    .push(run_rep(specs[w], size, seed, None));
            }
            let trace_dir = match tracing {
                Tracing::Only(dir) => Some(dir),
                Tracing::Mixed(dir) if rounds[w] % 3 == 2 => Some(dir),
                _ => None,
            };
            if let Some(dir) = trace_dir {
                let out = dir.join(format!("trace_{}.json", specs[w].name));
                passes[w]
                    .traced
                    .reps
                    .push(run_rep(specs[w], size, seed, Some(&out)));
            }
            spent[w] += t.elapsed().as_secs_f64();
            rounds[w] += 1;
        }
    }
}

fn sized(spec: &Spec, divisor: u64) -> u64 {
    (spec.size / divisor).max(1)
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_below(i as u64 + 1) as usize);
    }
}

fn out_dir(out: &Path) -> Result<PathBuf, String> {
    let dir = out
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir.to_path_buf())
}

/// The per-layer value of the ladder rung or oracle called `name`.
fn rung_median(rungs: &Value, name: &str) -> f64 {
    rungs
        .get(name)
        .map_or(f64::NAN, |r| r.num("median", f64::NAN))
}

// ---------------------------------------------------------------------------
// BENCHMARK.json driver contract
// ---------------------------------------------------------------------------

fn metric_json(value: f64, unit: &str) -> Value {
    // The contract wants a number; a count this workload does not have is 0.
    let value = if value.is_finite() { value } else { 0.0 };
    Value::obj().with("value", value).with("unit", unit)
}

/// `--workload W --seed N --seconds S --trace T`: one JSON object on the
/// last line of stdout. Untraced: full-size repetitions for `seconds` (each
/// sets up from nothing in a fresh process), then the end-to-end medians.
/// Traced: traced repetitions for a quarter of `seconds`, the ladder on the
/// rest, and every per-layer metric.
pub fn driver(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<ExitCode, String> {
    let spec = workloads::spec(workload).ok_or(format!("unknown workload {workload}"))?;
    let budget = seconds.max(1) as f64;
    condition();
    let (gathered, metrics) = if trace {
        let dir = out_dir(Path::new(DEFAULT_OUT))?;
        let gathered = gather(&[spec], 1, seed, budget / 4.0, 1, Tracing::Only(&dir))
            .remove(0)
            .traced;
        // Three samples per rung; the rungs share what is left of the run.
        let slots = 3 * (LADDER.len() + SPECS.len() + 4);
        let rungs = run_ladder(seed, (budget * 750.0 / slots as f64) as u64, 3)?;
        let mut metrics = Value::obj();
        for m in &LADDER {
            metrics.set(m.name, metric_json(rung_median(&rungs, m.name), m.unit));
        }
        for m in &TRACED {
            let value = match m.name {
                "oracle.items_per_s" => {
                    rung_median(&rungs, &format!("oracle.{workload}.items_per_s"))
                }
                "wait_p50_us" => gathered.summary(m.name).median,
                name => gathered.layer_median(name),
            };
            metrics.set(m.name, metric_json(value, m.unit));
        }
        (gathered, metrics)
    } else {
        let gathered = gather(&[spec], 1, seed, budget, 3, Tracing::Off)
            .remove(0)
            .untraced;
        let mut metrics = Value::obj();
        for m in END_TO_END.iter().filter(|m| m.in_contract()) {
            metrics.set(m.name, metric_json(gathered.summary(m.name).median, m.unit));
        }
        (gathered, metrics)
    };
    for e in gathered.errors() {
        eprintln!("kpn-bench: {workload}: {e}");
    }
    if gathered.valid().next().is_none() {
        return Err(format!("{workload}: no repetition passed its oracle"));
    }
    let line = Value::obj()
        .with("correct", gathered.failed() == 0)
        .with("attempted", gathered.attempted().max(1))
        .with("failed", gathered.failed())
        .with("metrics", metrics);
    println!("{}", line.compact());
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// profile
// ---------------------------------------------------------------------------

struct Plan {
    /// Seconds of repetitions per workload, and the fewest rounds.
    budget_s: f64,
    min_rounds: usize,
    /// Sizes are divided by this.
    divisor: u64,
    ladder_sample_ms: u64,
    ladder_samples: u64,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Today's date (UTC) as `YYYY-MM-DD`, by the civil-from-days algorithm.
fn today() -> String {
    let secs = unix_time().as_secs();
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

fn machine_json() -> Value {
    let cores = procfs::cores();
    let mut machine = Value::obj()
        .with("nproc", cores)
        .with("arch", std::env::consts::ARCH)
        .with("os", std::env::consts::OS)
        .with("rustc", command_line("rustc", &["--version"]))
        .with("commit", command_line("git", &["rev-parse", "HEAD"]))
        .with("date", today());
    if cores < 4 {
        machine.set("note", "cores < 4 — worker sweeps not meaningful");
    }
    machine
}

fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        "n/a".into()
    } else if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.3e}")
    } else if v.abs() >= 1e6 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Ladder rungs x operations per item, in CPU microseconds, for the four
/// workloads whose hops the ladder spells out.
fn ladder_cpu_us_per_item(workload: &str, exec_mode: &str, rungs: &Value) -> Option<f64> {
    let cpu = |name: &str, to_us: f64| {
        rungs
            .get(name)
            .map_or(f64::NAN, |r| r.num("cpu_per_op", f64::NAN) * to_us)
    };
    let ns = 1e-3;
    Some(match workload {
        // Four local hops, each flushed at its step boundary.
        "scale_pipeline_local" => 4.0 * cpu("stream.i64_flush_each_ns", ns),
        // Two of the four hops are remote channels, one frame per token.
        "scale_pipeline_2node" => {
            2.0 * cpu("stream.i64_flush_each_ns", ns) + 2.0 * cpu("net.frame.token_ns", ns)
        }
        // Three blocking hops between processes of one network.
        "relay_local" if exec_mode.starts_with("Pooled") => 3.0 * cpu("exec.pooled.handoff_ns", ns),
        "relay_local" => 3.0 * cpu("exec.thread.handoff_ns", ns),
        // Three remote hops, each half a remote round trip.
        "relay_2node" => 1.5 * cpu("net.remote.rtt_us", 1.0),
        _ => return None,
    })
}

pub fn profile(quick: bool, seed: u64, out: &str) -> Result<ExitCode, String> {
    let plan = if quick {
        Plan {
            budget_s: 0.5,
            min_rounds: 3,
            divisor: 10,
            ladder_sample_ms: 20,
            ladder_samples: 3,
        }
    } else {
        Plan {
            budget_s: 7.0,
            min_rounds: 6,
            divisor: 1,
            ladder_sample_ms: 200,
            ladder_samples: 5,
        }
    };
    let out = Path::new(out);
    let dir = out_dir(out)?;
    let started = Instant::now();
    let progress = |what: &str| eprintln!("[{:6.1}s] {what}", started.elapsed().as_secs_f64());
    let specs: Vec<&Spec> = SPECS.iter().collect();

    progress("conditioning the machine");
    condition();
    progress("end-to-end repetitions (tracing off), a traced one every third round");
    let passes = gather(
        &specs,
        plan.divisor,
        seed,
        plan.budget_s,
        plan.min_rounds,
        Tracing::Mixed(&dir),
    );
    progress("ladder");
    if !quick {
        condition();
    }
    let rungs = run_ladder(seed, plan.ladder_sample_ms, plan.ladder_samples)?;

    let mut workloads_json = Value::obj();
    let mut failed_total = 0;
    for (
        spec,
        Pass {
            untraced: g,
            traced: t,
        },
    ) in specs.iter().zip(&passes)
    {
        let exec_mode = g.first_str("exec_mode");
        let items = sized(spec, plan.divisor) * spec.items_per_size;
        println!(
            "\n== {} — item: {}, {} per repetition, exec {}, net backend {} ==",
            spec.name,
            spec.item,
            items,
            exec_mode,
            g.first_str("net_backend")
        );
        failed_total += g.failed() + t.failed();
        for e in g.errors().iter().chain(&t.errors()) {
            println!("  ERROR {e}");
        }
        println!(
            "  ops_attempted {}  ops_failed {}",
            g.attempted(),
            g.failed()
        );
        let mut e2e = Value::obj();
        for m in END_TO_END.iter().filter(|m| m.applies_to(spec.name)) {
            let s = g.summary(m.name);
            println!(
                "  {:<34} {:>14} {:<8} q1 {:>12} q3 {:>12} n={}",
                m.name,
                fmt_num(s.median),
                m.unit,
                fmt_num(s.q1),
                fmt_num(s.q3),
                s.samples.len()
            );
            let mut v = s.to_json();
            v.set("unit", m.unit);
            v.set("better", m.better.as_str());
            v.set("bound", m.bound);
            v.set("what", m.what);
            e2e.set(m.name, v);
        }

        let mut layer = Value::obj();
        let mut put = |name: &str, value: f64, note: &str| {
            let m = metrics::per_layer(name).expect("per-layer metric is in the tables");
            println!(
                "  {:<34} {:>14} {:<8} {}",
                name,
                fmt_num(value),
                m.unit,
                note
            );
            layer.set(
                name,
                Value::obj()
                    .with("value", value)
                    .with("unit", m.unit)
                    .with("better", m.better.as_str())
                    .with("moves", m.moves)
                    .with("not", m.not),
            );
        };
        let waits = t
            .reps
            .first()
            .map_or(0, |r| r.num("wait_samples", 0.0) as usize);
        let tail_note = match highest_supported_percentile(waits) {
            Some(p) => format!("({waits} waits; highest percentile with >= 10 beyond: p{p})"),
            None => format!("({waits} waits; too few for any percentile)"),
        };
        for m in &TRACED {
            match m.name {
                "oracle.items_per_s" => {
                    let rung = format!("oracle.{}.items_per_s", spec.name);
                    put(m.name, rung_median(&rungs, &rung), "");
                }
                // Gated above where it is steady; a diagnostic elsewhere.
                "wait_p50_us" if !spec.name.starts_with("relay_") => {
                    put(m.name, g.summary(m.name).median, &tail_note)
                }
                "wait_p50_us" | "trace.overhead_pct" => {}
                name if name.starts_with("wait_p") => put(name, t.layer_median(name), &tail_note),
                name => put(name, t.layer_median(name), ""),
            }
        }
        let (untraced, traced_rate) = (g.summary("items_per_s"), t.summary("items_per_s"));
        put(
            "trace.overhead_pct",
            t.layer_median("trace.overhead_pct"),
            &format!(
                "(tracing-only work timed in place; items_per_s of {} traced repetitions is {:+.1} % against {} untraced, whose own spread is {:.1} %)",
                traced_rate.samples.len(),
                (traced_rate.median - untraced.median) / untraced.median * 100.0,
                untraced.samples.len(),
                untraced.spread() * 100.0
            ),
        );
        if let Some(ladder_us) = ladder_cpu_us_per_item(spec.name, &exec_mode, &rungs) {
            let measured = t.layer_median("proc.cpu_us_per_item");
            put(
                "ladder.coverage",
                ladder_us / measured,
                &format!(
                    "({} of {} CPU us per item)",
                    fmt_num(ladder_us),
                    fmt_num(measured)
                ),
            );
        }

        workloads_json.set(
            spec.name,
            Value::obj()
                .with("why", spec.why)
                .with("item", spec.item)
                .with("size", sized(spec, plan.divisor))
                .with("items_per_rep", items)
                .with("exec_mode", exec_mode)
                .with("net_backend", g.first_str("net_backend"))
                .with("ops_attempted", g.attempted())
                .with("ops_failed", g.failed())
                .with("end_to_end", e2e)
                .with("traced_reps", t.reps.len())
                .with("per_layer", layer),
        );
    }

    println!(
        "\n== ladder (median of {} samples of >= {} ms; cpu = process CPU per op) ==",
        plan.ladder_samples, plan.ladder_sample_ms
    );
    let mut ladder_json = Value::obj();
    for (name, rung) in rungs.fields() {
        let unit = rung.get("unit").and_then(Value::as_str).unwrap_or("");
        println!(
            "  {:<40} {:>14} {:<8} q1 {:>12} q3 {:>12} cpu {:>12}",
            name,
            fmt_num(rung.num("median", f64::NAN)),
            unit,
            fmt_num(rung.num("q1", f64::NAN)),
            fmt_num(rung.num("q3", f64::NAN)),
            fmt_num(rung.num("cpu_per_op", f64::NAN)),
        );
        let mut v = rung.clone();
        if let Some(m) = metrics::per_layer(name) {
            v.set("moves", m.moves);
            v.set("not", m.not);
        }
        ladder_json.set(name, v);
    }

    let doc = Value::obj()
        .with("schema", "kpn-bench/profile/1")
        .with("machine", machine_json())
        .with("seed", seed)
        .with("quick", quick)
        .with("budget_s_per_workload", plan.budget_s)
        .with("elapsed_s", started.elapsed().as_secs_f64())
        .with("workloads", workloads_json)
        .with("ladder", ladder_json);
    std::fs::write(out, doc.pretty())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "\nwrote {} ({:.1} s)",
        out.display(),
        started.elapsed().as_secs_f64()
    );
    if failed_total > 0 {
        eprintln!("kpn-bench: {failed_total} operations failed their oracle");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
