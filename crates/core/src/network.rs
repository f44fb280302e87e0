//! The network runner: builds a program graph, spawns each process as a
//! task of the configured executor ([`ExecMode`]), tracks dynamically
//! spawned processes, and reports the outcome.
//!
//! This plays the role of the paper's top-level graph-construction code
//! (Figure 6): channels are created, processes are added and wired by
//! moving channel endpoints into them, and the whole graph is started.
//! Unlike the Java version there is no ambient runtime — the [`Network`]
//! owns the deadlock [`Monitor`], the executor, and the join bookkeeping.

use crate::channel::{channel_with_parts, ChannelReader, ChannelWriter, DEFAULT_CAPACITY};
use crate::error::{Error, Result};
use crate::exec::{default_exec, Exec, ExecMode};
use crate::monitor::{DeadlockPolicy, Monitor, MonitorStats};
use crate::process::{FnProcess, Iterative, IterativeProcess, Process, ProcessCtx};
use crate::sim::{ChannelKey, HistoryRecorder};
use crate::topology::{Diagnostic, LintLevel, LintScope, Topology, TopologySnapshot};
use parking_lot::Mutex;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Weak};

/// Configuration for a [`Network`].
///
/// [`Default`] is [`NetworkConfig::from_env`]: four fields take their
/// default from the environment (`KPN_EXEC`, `KPN_LINT`, `KPN_SYNTH`,
/// `KPN_MONITOR_DEBUG`), so an existing program can be switched per run
/// without a code change. A field set in code always wins — the variables
/// only shape the default.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Capacity (bytes) for channels created without an explicit size.
    pub default_capacity: usize,
    /// What to do when every process is blocked (§3.5).
    pub deadlock_policy: DeadlockPolicy,
    /// Which executor runs the processes: a fixed worker pool multiplexing
    /// many processes (the default), one OS thread per process (the
    /// paper's model, kept as the reference), or the deterministic
    /// simulation scheduler. Defaults from `KPN_EXEC` (`thread` | `pooled`
    /// | `pooled:N`; unset means `ExecMode::Pooled { workers: 0 }`, one
    /// worker per hardware thread).
    pub mode: ExecMode,
    /// Record every local channel's byte history for the determinacy
    /// oracle ([`Network::histories`]).
    pub record_history: bool,
    /// Enforcement level of the static lint pass run before
    /// [`Network::start`] and after every dynamic spawn. Defaults from
    /// `KPN_LINT` (`off` | `warn` | `deny`; unset means
    /// [`LintLevel::Warn`]).
    pub lint: LintLevel,
    /// Apply statically synthesized channel capacities at start: the lint
    /// pass's [`crate::Fix::SetCapacity`] suggestions (L003 cycle sums,
    /// and L006 SDF schedule bounds when `kpn-lint`'s pass is installed)
    /// grow the named channels *before* enforcement and before any process
    /// runs, so statically-sized regions never enter the runtime
    /// detect-deadlock-and-grow loop. Capacities only ever grow — channel
    /// histories are unaffected (Kahn determinacy is capacity-blind).
    /// Defaults from `KPN_SYNTH` (any value but `0` enables it); off when
    /// unset.
    pub synthesize_capacities: bool,
    /// Trace the deadlock monitor on stderr: every block registration and
    /// exit, every verdict that could lead to an action (with the blocked
    /// set and the channel looks it was reached from), every growth and
    /// true-deadlock abort. Diagnostic only. Defaults from
    /// `KPN_MONITOR_DEBUG` (set = on).
    pub monitor_debug: bool,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

impl NetworkConfig {
    /// The default configuration, with `mode`, `lint`,
    /// `synthesize_capacities` and `monitor_debug` taken from `KPN_EXEC`,
    /// `KPN_LINT`, `KPN_SYNTH` and `KPN_MONITOR_DEBUG` — the one place the
    /// runtime's configuration reads the environment.
    pub fn from_env() -> Self {
        let var = |name| std::env::var(name).ok();
        NetworkConfig {
            default_capacity: DEFAULT_CAPACITY,
            deadlock_policy: DeadlockPolicy::default(),
            mode: var("KPN_EXEC").map_or(ExecMode::Pooled { workers: 0 }, |v| ExecMode::parse(&v)),
            record_history: false,
            lint: var("KPN_LINT").map_or(LintLevel::Warn, |v| LintLevel::parse(&v)),
            synthesize_capacities: var("KPN_SYNTH").is_some_and(|v| v != "0"),
            monitor_debug: std::env::var_os("KPN_MONITOR_DEBUG").is_some(),
        }
    }

    /// Run the network on the pooled executor with `n` worker threads
    /// (0 means `available_parallelism()`), whatever `KPN_EXEC` says.
    pub fn workers(mut self, n: usize) -> Self {
        self.mode = ExecMode::Pooled { workers: n };
        self
    }

    /// Enable [`NetworkConfig::synthesize_capacities`]: apply the lint
    /// pass's synthesized channel capacities before start.
    pub fn synthesizing_capacities(mut self) -> Self {
        self.synthesize_capacities = true;
        self
    }
}

struct NetworkInner {
    config: NetworkConfig,
    monitor: Arc<Monitor>,
    exec: Arc<dyn Exec>,
    /// The executor was built for this network ([`Network::with_config`]),
    /// not handed to it ([`Network::with_exec`]): dropping the network
    /// shuts it down.
    owns_exec: bool,
    recorder: Option<Arc<HistoryRecorder>>,
    active: Mutex<Active>,
    pending: Mutex<Vec<Box<dyn Process>>>,
    errors: Mutex<Vec<(String, Error)>>,
    processes_run: Mutex<usize>,
    topology: Arc<Topology>,
}

/// Tasks spawned but not yet finished, and who waits for the last.
#[derive(Default)]
struct Active {
    /// Incremented on the *spawning* task before the new task exists, so a
    /// parent that spawns children keeps the count positive until every
    /// descendant is done — the executor detaches tasks, so join waits on
    /// this counter instead of OS join handles.
    tasks: usize,
    /// The executor and park key of each task in [`Network::join`], woken
    /// through that executor when `tasks` reaches zero: a fiber parks, an OS
    /// thread blocks.
    joiners: Vec<(Arc<dyn Exec>, usize)>,
}

impl NetworkInner {
    /// The declared processes plus one look at every live channel.
    fn snapshot(&self) -> TopologySnapshot {
        self.topology.snapshot(&self.monitor.live_channels())
    }

    fn lint(&self, scope: LintScope) -> Vec<Diagnostic> {
        crate::topology::run_lint(&self.snapshot(), scope)
    }

    /// Applies the configured lint level to a scope. `Ok(())` means
    /// proceed; `Err(Error::Lint)` means the caller must not spawn.
    fn enforce_lint(&self, scope: LintScope) -> Result<()> {
        let level = self.config.lint;
        if level == LintLevel::Off {
            return Ok(());
        }
        let diags = self.lint(scope);
        if diags.is_empty() {
            return Ok(());
        }
        match level {
            LintLevel::Warn => {
                for d in &diags {
                    eprintln!("kpn-lint warning: {d}");
                }
                Ok(())
            }
            LintLevel::Deny => {
                // Advisory codes (L006: the monitor compensates at run
                // time) warn even under Deny; only the rest block.
                let (advisory, blocking): (Vec<_>, Vec<_>) =
                    diags.into_iter().partition(|d| d.code.is_advisory());
                for d in &advisory {
                    eprintln!("kpn-lint warning: {d}");
                }
                if blocking.is_empty() {
                    Ok(())
                } else {
                    Err(Error::Lint(blocking))
                }
            }
            LintLevel::Off => unreachable!(),
        }
    }

    /// Applies every [`crate::Fix::SetCapacity`] the lint pass can
    /// synthesize for the current topology, growing the named channels in
    /// place. Returns the number of channels that grew.
    fn synthesize_capacities(&self, scope: LintScope) -> usize {
        let fixes: Vec<crate::Fix> = self
            .lint(scope)
            .into_iter()
            .flat_map(|d| d.fixes)
            .collect();
        crate::topology::apply_fixes(&fixes, &self.monitor.live_channels())
    }
}

impl Drop for NetworkInner {
    fn drop(&mut self) {
        // Lets a pooled executor built for this network retire its idle
        // workers; a no-op for the shared thread executor and for sim. An
        // executor the network was handed is its owner's to shut down.
        if self.owns_exec {
            self.exec.shutdown();
        }
    }
}

/// Cheaply cloneable handle used by running processes (via
/// [`ProcessCtx`]) to create channels and spawn into the network.
#[derive(Clone)]
pub struct NetworkHandle {
    inner: Arc<NetworkInner>,
}

impl NetworkHandle {
    /// Creates a monitored channel with the network default capacity.
    pub fn channel(&self) -> (ChannelWriter, ChannelReader) {
        self.channel_with_capacity(self.inner.config.default_capacity)
    }

    /// Creates a monitored channel with an explicit capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity channel can never
    /// transfer a byte and never grows, so every write on it stalls
    /// forever. Use [`NetworkHandle::try_channel_with_capacity`] for a
    /// fallible variant.
    pub fn channel_with_capacity(&self, capacity: usize) -> (ChannelWriter, ChannelReader) {
        match self.try_channel_with_capacity(capacity) {
            Ok(pair) => pair,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a monitored channel with an explicit capacity, rejecting a
    /// zero capacity with [`Error::Graph`].
    pub fn try_channel_with_capacity(
        &self,
        capacity: usize,
    ) -> Result<(ChannelWriter, ChannelReader)> {
        if capacity == 0 {
            return Err(Error::Graph(
                "channel capacity must be at least 1 byte: a zero-capacity channel \
                 can never transfer data and is never grown by the monitor"
                    .into(),
            ));
        }
        Ok(channel_with_parts(
            capacity,
            Some(self.inner.monitor.clone()),
            self.inner.exec.clone(),
            self.inner.recorder.clone(),
        ))
    }

    /// Spawns a process thread immediately, after re-running the lint pass
    /// over the reconfigured topology (the incremental half of the static
    /// verifier: every Sift insertion and Cons splice is re-checked). Under
    /// [`LintLevel::Deny`] a finding records an [`Error::Lint`] against the
    /// process and skips the spawn instead of running a defective graph.
    pub fn spawn(&self, p: Box<dyn Process>) {
        self.inner.topology.register_process(p.lint_tag());
        let scope = LintScope::Reconfigure(p.lint_tag().map(|t| t.id()));
        if let Err(e) = self.inner.enforce_lint(scope) {
            // No monitor abort here: join() must surface the lint error
            // itself, not a masking `Deadlocked`.
            self.inner.errors.lock().push((p.name(), e));
            return;
        }
        // Count the process as live *before* its thread exists, so a
        // partially-started graph can never be mistaken for all-blocked.
        self.inner.monitor.process_started();
        self.spawn_reserved(p);
    }

    /// Spawns a process whose live-count was already reserved by the
    /// caller. [`Network::start`] reserves the whole batch up front so that
    /// early processes finishing (or blocking) while later ones are still
    /// being spawned can never look like an all-blocked network.
    pub(crate) fn spawn_reserved(&self, p: Box<dyn Process>) {
        let inner = self.inner.clone();
        *inner.processes_run.lock() += 1;
        // Count the task on the *spawning* side, before it exists: join can
        // then never observe a window where a parent finished but its
        // freshly spawned child is not yet counted.
        inner.active.lock().tasks += 1;
        let name = p.name();
        let task_inner = inner.clone();
        let task_name = name.clone();
        inner.exec.spawn(
            &name,
            Box::new(move || {
                // The task's monitor, which its remote endpoints register
                // their waits with (`exec::current_monitor`).
                crate::exec::with_current(|l| l.monitor.set(task_inner.monitor.clone()).is_ok());
                let ctx = ProcessCtx::new(NetworkHandle {
                    inner: task_inner.clone(),
                });
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| p.run(&ctx)));
                match outcome {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) if e.is_graceful() => {}
                    Ok(Err(e)) => task_inner.errors.lock().push((task_name, e)),
                    Err(_) => task_inner
                        .errors
                        .lock()
                        .push((task_name, Error::Graph("process panicked".into()))),
                }
                // Finish bookkeeping before the task body returns: under sim
                // the scheduler's run token is still held here, so the
                // monitor's end-of-process deadlock check runs under the same
                // serialization as everything else.
                task_inner.monitor.process_finished();
                let joiners = {
                    let mut active = task_inner.active.lock();
                    active.tasks -= 1;
                    match active.tasks {
                        0 => std::mem::take(&mut active.joiners),
                        _ => Vec::new(),
                    }
                };
                for (exec, key) in joiners {
                    exec.unpark_all(key);
                }
            }),
        );
    }

    /// The network's deadlock monitor.
    pub fn monitor(&self) -> &Arc<Monitor> {
        &self.inner.monitor
    }
}

/// Outcome summary returned by [`Network::join`].
#[derive(Debug)]
pub struct NetworkReport {
    /// Total process threads run, including dynamically spawned ones.
    pub processes_run: usize,
    /// Deadlock-monitor counters (artificial deadlocks resolved, etc.).
    pub monitor: MonitorStats,
    /// Non-graceful process failures `(process name, error)`.
    pub errors: Vec<(String, Error)>,
}

/// A Kahn process network: a set of processes connected by channels,
/// executed with one thread per process.
///
/// ```
/// use kpn_core::{Network, stdlib::{Sequence, Collect}};
/// use std::sync::{Arc, Mutex};
///
/// let net = Network::new();
/// let (w, r) = net.channel();
/// let out = Arc::new(Mutex::new(Vec::new()));
/// net.add(Sequence::new(1, 5, w));
/// net.add(Collect::new(r, out.clone()));
/// net.run().unwrap();
/// assert_eq!(*out.lock().unwrap(), vec![1, 2, 3, 4, 5]);
/// ```
#[derive(Clone)]
pub struct Network {
    handle: NetworkHandle,
}

impl Network {
    /// A network with the default configuration (8 KiB channels, grow-on-
    /// artificial-deadlock policy).
    pub fn new() -> Self {
        Self::with_config(NetworkConfig::default())
    }

    /// A network with an explicit configuration, on an executor built from
    /// its [`NetworkConfig::mode`] and shut down when the network drops.
    pub fn with_config(config: NetworkConfig) -> Self {
        let exec = config.mode.build();
        Self::build(config, exec, true)
    }

    /// A network that runs on `exec`, which it shares with whoever handed
    /// it over (a `kpn-net` node runs every graph it is sent on its one
    /// executor): `config.mode` is not consulted, and dropping the network
    /// leaves `exec` running.
    pub fn with_exec(config: NetworkConfig, exec: Arc<dyn Exec>) -> Self {
        Self::build(config, exec, false)
    }

    fn build(config: NetworkConfig, exec: Arc<dyn Exec>, owns_exec: bool) -> Self {
        let monitor = Monitor::build(config.deadlock_policy, config.monitor_debug);
        // Surface executor scheduling counters through MonitorStats. Weak:
        // a network's executor may outlive it.
        let weak_exec = Arc::downgrade(&exec);
        monitor.set_scheduler_source(Box::new(move || {
            weak_exec.upgrade().and_then(|e| e.scheduler_stats())
        }));
        let recorder = config.record_history.then(HistoryRecorder::new);
        let inner = Arc::new_cyclic(|me: &Weak<NetworkInner>| {
            // A pool's heartbeat ticks the monitor for its fibers' remote
            // waits; other executors ignore this (an OS thread's remote
            // wait ticks for itself). Weak, so the hook leaves the executor
            // with the network.
            let me = me.clone();
            exec.add_idle_hook(Box::new(move || {
                let monitor = &me.upgrade()?.monitor;
                monitor.tick();
                Some(monitor.is_live())
            }));
            NetworkInner {
                config,
                monitor,
                exec,
                owns_exec,
                recorder,
                active: Mutex::default(),
                pending: Mutex::new(Vec::new()),
                errors: Mutex::new(Vec::new()),
                processes_run: Mutex::new(0),
                topology: Topology::new(),
            }
        });
        Network {
            handle: NetworkHandle { inner },
        }
    }

    /// Creates a monitored channel with the default capacity.
    pub fn channel(&self) -> (ChannelWriter, ChannelReader) {
        self.handle.channel()
    }

    /// Creates a monitored channel with an explicit capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (see
    /// [`NetworkHandle::channel_with_capacity`]).
    pub fn channel_with_capacity(&self, capacity: usize) -> (ChannelWriter, ChannelReader) {
        self.handle.channel_with_capacity(capacity)
    }

    /// Creates a monitored channel with an explicit capacity, rejecting a
    /// zero capacity with [`Error::Graph`].
    pub fn try_channel_with_capacity(
        &self,
        capacity: usize,
    ) -> Result<(ChannelWriter, ChannelReader)> {
        self.handle.try_channel_with_capacity(capacity)
    }

    /// Adds an [`Iterative`] process to run when the network starts.
    pub fn add<T: Iterative>(&self, it: T) {
        self.add_process(Box::new(IterativeProcess::new(it)));
    }

    /// Adds a boxed [`Process`].
    pub fn add_process(&self, p: Box<dyn Process>) {
        self.handle.inner.topology.register_process(p.lint_tag());
        self.handle.inner.pending.lock().push(p);
    }

    /// Adds a closure process.
    pub fn add_fn<F>(&self, name: impl Into<String>, body: F)
    where
        F: FnOnce(&ProcessCtx) -> Result<()> + Send + 'static,
    {
        self.add_process(Box::new(FnProcess::new(name, body)));
    }

    /// Spawns all pending processes. Can be called repeatedly; processes
    /// added after `start` must be started again or spawned via
    /// [`NetworkHandle::spawn`].
    ///
    /// Runs the static lint pass first. Under [`LintLevel::Deny`] a finding
    /// keeps every pending process unspawned and records the
    /// [`Error::Lint`] for [`Network::join`] to return; use
    /// [`Network::try_start`] to observe it directly.
    pub fn start(&self) {
        if let Err(e) = self.try_start() {
            self.handle.inner.errors.lock().push(("kpn-lint".into(), e));
        }
    }

    /// Like [`Network::start`], but surfaces a [`LintLevel::Deny`] verdict
    /// as `Err(Error::Lint)` instead of deferring it to `join`. On error no
    /// process has been spawned.
    pub fn try_start(&self) -> Result<()> {
        if self.handle.inner.config.synthesize_capacities {
            // Grow channels to their synthesized capacities before
            // enforcement: a finding the fix resolves (an undercapacitated
            // cycle, a static region below its schedule bound) is gone by
            // the time the lint gate runs. Only the startup topology is
            // synthesized — capacities for processes spawned by dynamic
            // reconfiguration stay with the runtime grow loop (static
            // analysis cannot see a graph that rewires itself).
            self.handle.inner.synthesize_capacities(LintScope::Startup);
        }
        self.handle.inner.enforce_lint(LintScope::Startup)?;
        let pending: Vec<_> = self.handle.inner.pending.lock().drain(..).collect();
        // Reserve the live-count for the whole batch before any thread
        // runs; see `spawn_reserved`.
        for _ in &pending {
            self.handle.inner.monitor.process_started();
        }
        for p in pending {
            self.handle.spawn_reserved(p);
        }
        // Open the schedule only once the whole initial batch is
        // registered, so (under sim) the first decision sees every task.
        self.handle.inner.exec.release();
        Ok(())
    }

    /// Runs the full static lint (built-in checks plus registered extra
    /// passes such as `kpn-lint`'s L005) over the current topology and
    /// returns every finding, regardless of [`NetworkConfig::lint`].
    pub fn lint_diagnostics(&self) -> Vec<Diagnostic> {
        self.handle.inner.lint(LintScope::Startup)
    }

    /// A consistent snapshot of the network's topology metadata, as seen by
    /// the lint pass.
    pub fn topology_snapshot(&self) -> TopologySnapshot {
        self.handle.inner.snapshot()
    }

    /// Waits for every process — including dynamically spawned ones — to
    /// terminate, then reports. Fails with [`Error::Deadlocked`] if the
    /// monitor declared a true deadlock, or [`Error::Graph`] if any process
    /// failed non-gracefully.
    pub fn join(&self) -> Result<NetworkReport> {
        let mut report = self.join_report();
        // A lint denial takes precedence over everything else: a skipped
        // spawn routinely strands its peers (that is exactly what the lint
        // predicted), and reporting the resulting stall as `Deadlocked`
        // would bury the actionable finding.
        let mut lint: Vec<Diagnostic> = Vec::new();
        report.errors.retain(|(_, e)| match e {
            Error::Lint(ds) => {
                lint.extend(ds.iter().cloned());
                false
            }
            _ => true,
        });
        if !lint.is_empty() {
            return Err(Error::Lint(lint));
        }
        if self.handle.inner.monitor.is_aborted() {
            return Err(Error::Deadlocked);
        }
        if !report.errors.is_empty() {
            let summary = report
                .errors
                .iter()
                .map(|(n, e)| format!("{n}: {e}"))
                .collect::<Vec<_>>()
                .join("; ");
            return Err(Error::Graph(format!("process failures: {summary}")));
        }
        Ok(report)
    }

    /// Joins every process and builds the report without classifying the
    /// outcome (shared by [`Network::join`] and [`Network::run_report`]).
    /// The wait goes through the caller's executor, as a pending connection's
    /// does: a fiber parks, so a join made from a pooled task holds no worker.
    fn join_report(&self) -> NetworkReport {
        let inner = &self.handle.inner;
        let exec = crate::exec::current_exec().unwrap_or_else(|| default_exec().clone());
        let key = std::ptr::addr_of!(inner.active) as usize;
        loop {
            let token = {
                let mut active = inner.active.lock();
                if active.tasks == 0 {
                    break;
                }
                let known = |(e, k): &(Arc<dyn Exec>, usize)| *k == key && Arc::ptr_eq(e, &exec);
                if !active.joiners.iter().any(known) {
                    active.joiners.push((exec.clone(), key));
                }
                // Under the lock the finishing task takes to wake us.
                exec.park_token(key)
            };
            let _ = exec.park(key, token, None);
        }
        let errors: Vec<(String, Error)> = inner.errors.lock().drain(..).collect();
        NetworkReport {
            processes_run: *inner.processes_run.lock(),
            monitor: inner.monitor.stats(),
            errors,
        }
    }

    /// Starts and joins the network.
    pub fn run(&self) -> Result<NetworkReport> {
        self.start();
        self.join()
    }

    /// Like [`Network::run`] but returns the report even when the network
    /// deadlocked or a process failed (for tests asserting on failure
    /// details).
    pub fn run_report(&self) -> NetworkReport {
        self.start();
        self.join_report()
    }

    /// Aborts the network: every blocked channel operation fails with
    /// [`Error::Deadlocked`], unwinding all processes.
    pub fn abort(&self) {
        self.handle.inner.monitor.abort();
    }

    /// The network's deadlock monitor (stats, abort state).
    pub fn monitor(&self) -> &Arc<Monitor> {
        self.handle.monitor()
    }

    /// Per-channel I/O counters for every live channel of this network
    /// (bytes, blocking episodes, peak occupancy, current capacity).
    pub fn channel_report(&self) -> Vec<(u64, crate::monitor::ChannelIoStats)> {
        self.handle.monitor().channel_report()
    }

    /// Recorded channel histories, sorted by [`ChannelKey`]. `None` unless
    /// [`NetworkConfig::record_history`] was set. Complete once the network
    /// has joined.
    pub fn histories(&self) -> Option<Vec<(ChannelKey, Vec<u8>)>> {
        self.handle.inner.recorder.as_ref().map(|r| r.histories())
    }

    /// A cloneable handle for spawning from outside a process (used by the
    /// distributed compute server).
    pub fn handle(&self) -> NetworkHandle {
        self.handle.clone()
    }
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{DataReader, DataWriter};
    use std::time::Duration;

    #[test]
    fn empty_network_joins_immediately() {
        let net = Network::new();
        let report = net.run().unwrap();
        assert_eq!(report.processes_run, 0);
    }

    #[test]
    fn closure_pipeline_runs() {
        let net = Network::new();
        let (w, r) = net.channel();
        let (sum_w, sum_r) = net.channel();
        net.add_fn("producer", move |_| {
            let mut dw = DataWriter::new(w);
            for i in 0..100 {
                dw.write_i64(i)?;
            }
            Ok(())
        });
        net.add_fn("summer", move |_| {
            let mut dr = DataReader::new(r);
            let mut dw = DataWriter::new(sum_w);
            let mut total = 0;
            loop {
                match dr.read_i64() {
                    Ok(v) => total += v,
                    Err(Error::Eof) => break,
                    Err(e) => return Err(e),
                }
            }
            dw.write_i64(total)?;
            Ok(())
        });
        net.start();
        let mut dr = DataReader::new(sum_r);
        assert_eq!(dr.read_i64().unwrap(), 4950);
        drop(dr);
        net.join().unwrap();
    }

    #[test]
    fn dynamic_spawn_is_joined() {
        let net = Network::new();
        let (w, mut r) = net.channel();
        net.add_fn("parent", move |ctx| {
            let mut w = w;
            ctx.spawn(Box::new(FnProcess::new("child", move |_| {
                w.write_all(b"hi")?;
                Ok(())
            })));
            Ok(())
        });
        net.start();
        let mut buf = [0u8; 2];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
        drop(r);
        let report = net.join().unwrap();
        assert_eq!(report.processes_run, 2);
    }

    #[test]
    fn composite_spawns_children_in_own_threads() {
        use crate::process::CompositeProcess;
        let net = Network::new();
        let (w1, mut r1) = net.channel();
        let (w2, mut r2) = net.channel();
        let mut comp = CompositeProcess::new("pair");
        comp.add(Box::new(FnProcess::new("a", move |_| {
            let mut w = w1;
            w.write_all(b"A")?;
            Ok(())
        })));
        comp.add(Box::new(FnProcess::new("b", move |_| {
            let mut w = w2;
            w.write_all(b"B")?;
            Ok(())
        })));
        assert_eq!(comp.len(), 2);
        net.add_process(Box::new(comp));
        net.start();
        let mut a = [0u8; 1];
        let mut b = [0u8; 1];
        r1.read_exact(&mut a).unwrap();
        r2.read_exact(&mut b).unwrap();
        assert_eq!((&a, &b), (b"A", b"B"));
        drop((r1, r2));
        let report = net.join().unwrap();
        assert_eq!(report.processes_run, 3); // composite + 2 children
    }

    #[test]
    fn process_panic_is_reported_and_cascades() {
        let net = Network::new();
        let (w, r) = net.channel();
        net.add_fn("panicker", move |_| {
            let _w = w; // endpoint dropped during unwind -> EOF downstream
            panic!("boom");
        });
        net.add_fn("reader", move |_| {
            let mut r = r;
            let mut buf = [0u8; 1];
            // Sees EOF because the panicking process dropped its writer.
            assert_eq!(r.read(&mut buf)?, 0);
            Ok(())
        });
        net.start();
        let err = net.join().unwrap_err();
        assert!(err.to_string().contains("panicker"));
    }

    #[test]
    fn abort_unblocks_everyone() {
        let net = Network::new();
        let (_w, r) = net.channel();
        net.add_fn("stuck-reader", move |_| {
            let mut r = r;
            let mut buf = [0u8; 1];
            match r.read(&mut buf) {
                Err(Error::Deadlocked) => Ok(()), // expected
                other => panic!("expected Deadlocked, got {other:?}"),
            }
        });
        net.start();
        std::thread::sleep(Duration::from_millis(30));
        net.abort();
        assert!(net.join().is_err());
    }

    #[test]
    fn iterative_limit_runs_exact_count() {
        struct Counter {
            w: DataWriter,
            n: i64,
        }
        impl Iterative for Counter {
            fn name(&self) -> String {
                "counter".into()
            }
            fn limit(&self) -> Option<u64> {
                Some(5)
            }
            fn step(&mut self, _ctx: &ProcessCtx) -> Result<()> {
                self.w.write_i64(self.n)?;
                self.n += 1;
                Ok(())
            }
        }
        let net = Network::new();
        let (w, r) = net.channel();
        net.add(Counter {
            w: DataWriter::new(w),
            n: 10,
        });
        net.start();
        let mut dr = DataReader::new(r);
        for expect in 10..15 {
            assert_eq!(dr.read_i64().unwrap(), expect);
        }
        assert!(matches!(dr.read_i64(), Err(Error::Eof)));
        drop(dr);
        net.join().unwrap();
    }

    #[test]
    fn on_start_and_on_stop_run_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        #[derive(Default)]
        struct Hooks {
            starts: Arc<AtomicU32>,
            stops: Arc<AtomicU32>,
            steps: Arc<AtomicU32>,
        }
        struct P(Hooks);
        impl Iterative for P {
            fn limit(&self) -> Option<u64> {
                Some(3)
            }
            fn on_start(&mut self, _: &ProcessCtx) -> Result<()> {
                self.0.starts.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
            fn step(&mut self, _: &ProcessCtx) -> Result<()> {
                self.0.steps.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
            fn on_stop(&mut self) {
                self.0.stops.fetch_add(1, Ordering::SeqCst);
            }
        }
        let hooks = Hooks::default();
        let (s1, s2, s3) = (
            hooks.starts.clone(),
            hooks.stops.clone(),
            hooks.steps.clone(),
        );
        let net = Network::new();
        net.add(P(hooks));
        net.run().unwrap();
        assert_eq!(s1.load(Ordering::SeqCst), 1);
        assert_eq!(s2.load(Ordering::SeqCst), 1);
        assert_eq!(s3.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn on_stop_runs_after_step_error() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        struct Failing(Arc<AtomicBool>);
        impl Iterative for Failing {
            fn step(&mut self, _: &ProcessCtx) -> Result<()> {
                Err(Error::Eof) // graceful stop on first step
            }
            fn on_stop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let flag = Arc::new(AtomicBool::new(false));
        let net = Network::new();
        net.add(Failing(flag.clone()));
        net.run().unwrap();
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn run_report_surfaces_failures_without_err() {
        let net = Network::new();
        net.add_fn("failer", |_| Err(Error::Graph("intentional".into())));
        let report = net.run_report();
        assert_eq!(report.errors.len(), 1);
        assert!(report.errors[0].1.to_string().contains("intentional"));
    }

    #[test]
    fn one_table_holds_the_live_channels_in_creation_order() {
        let net = Network::new();
        let mut ends: Vec<_> = (0..8).map(|_| Some(net.channel())).collect();
        let ids: Vec<u64> = net.channel_report().iter().map(|(id, _)| *id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "creation order: {ids:?}");
        let table = |net: &Network| -> Vec<u64> {
            let live = net.monitor().live_channels();
            live.iter().map(|(id, _)| *id).collect()
        };
        let lint = |net: &Network| -> Vec<u64> {
            let snap = net.topology_snapshot();
            snap.channels.iter().map(|ch| ch.id).collect()
        };
        assert_eq!(table(&net), ids);
        assert_eq!(lint(&net), ids);
        // Interleaved drops, one endpoint at a time: a channel leaves the
        // table when its second endpoint goes, not when something next
        // looks for it, and the survivors keep their order.
        let (w5, r5) = ends[5].take().unwrap();
        let (w1, r1) = ends[1].take().unwrap();
        drop((w5, r1));
        assert_eq!(table(&net), ids, "half-dropped channels are live");
        assert_eq!(lint(&net), ids);
        drop((r5, w1));
        let (w6, r6) = ends[6].take().unwrap();
        drop((r6, w6));
        let survivors = [ids[0], ids[2], ids[3], ids[4], ids[7]];
        assert_eq!(table(&net), survivors);
        assert_eq!(lint(&net), survivors);
        let report: Vec<u64> = net.channel_report().iter().map(|(id, _)| *id).collect();
        assert_eq!(report, ids, "the report covers live and retired channels");
    }

    #[test]
    fn channel_report_counts_live_and_retired() {
        let net = Network::new();
        let (mut w, mut r) = net.channel();
        w.write_all(b"xy").unwrap();
        let mut buf = [0u8; 2];
        r.read_exact(&mut buf).unwrap();
        // Live channel appears.
        assert_eq!(net.channel_report().len(), 1);
        drop(w);
        drop(r);
        // Retired channel still appears, with its final counters.
        let report = net.channel_report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].1.bytes_written, 2);
    }
}
