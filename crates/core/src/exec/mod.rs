//! The execution layer: one scheduling seam beneath every channel.
//!
//! The paper's runtime is one Java thread per KPN process (§3). PR 3 added a
//! deterministic simulation scheduler, which left the blocking paths in
//! `channel.rs` hand-interleaved between two worlds (`Option<SimScheduler>`
//! branches at every park site). This module extracts the blocking
//! discipline — the thing Kahn semantics actually live in — into a single
//! [`Exec`] trait with three implementations:
//!
//! * [`ThreadExec`] — the paper's shape: one OS thread per process, keyed
//!   condvar parking;
//! * `SimExec` (internal, built from a [`crate::sim::SimScheduler`]) — the
//!   PR-3 deterministic scheduler, now just another executor;
//! * [`PooledExec`] — M:N execution: many processes multiplexed onto a
//!   fixed worker pool with per-worker work-stealing run queues, blocked
//!   channel operations converted into parked stackful continuations, so a
//!   10 000-process graph runs on `available_parallelism()` workers.
//!
//! The module splits by executor: [`mod@self`] holds the trait, task
//! identity, and [`ExecMode`]; `thread.rs`, `sim.rs`, and `pooled.rs` hold
//! the three implementations; `deque.rs` is the Chase–Lev deque under the
//! pooled scheduler and `fiber.rs` its stackful continuations.
//!
//! ## The park/unpark protocol
//!
//! Channels never touch condvars or schedulers directly. A blocking site
//! does, conceptually:
//!
//! ```text
//! lock state;
//! loop {
//!     if !must_wait { break }
//!     let token = exec.park_token(key);   // still under the state lock
//!     unlock state;
//!     exec.park(key, token, timeout)?;    // may return spuriously
//!     lock state;
//! }
//! ```
//!
//! and every wake site calls `exec.unpark_all(key)` *after* publishing the
//! state change. Lost wakeups are impossible because of a generation
//! protocol ("absent is stale"): `park_token` reads the key's current
//! generation while the caller still holds the lock that guards the wait
//! predicate; any `unpark_all` that runs after that point bumps the
//! generation, and `park` with a stale token returns immediately. A parked
//! task can therefore only sleep through a wakeup it had already observed
//! the effects of. Spurious returns are always allowed — callers re-check
//! their predicate in a loop.
//!
//! ## Task identity
//!
//! Monitors and the flush registry used to key their bookkeeping by OS
//! thread. Under a pooled executor one worker thread runs many tasks (and
//! one task may migrate between workers), so identity moves to a
//! `TaskLocals` record carried by the task itself and installed into a
//! thread-local by whichever worker is currently running it.

// Fibers exist on Linux x86_64 only; elsewhere the pool runs each task on a
// thread of its own and the scheduler behind these three modules is
// compiled but unreachable.
#[cfg_attr(not(all(target_os = "linux", target_arch = "x86_64", not(miri))), allow(dead_code))]
mod deque;
#[cfg_attr(not(all(target_os = "linux", target_arch = "x86_64", not(miri))), allow(dead_code))]
pub(crate) mod fiber;
#[cfg_attr(not(all(target_os = "linux", target_arch = "x86_64", not(miri))), allow(dead_code))]
mod pooled;
pub mod reactor;
mod sim;
mod thread;

pub use pooled::PooledExec;
pub(crate) use sim::SimExec;
pub(crate) use thread::default_exec;
pub use thread::ThreadExec;

use crate::error::Result;
use crate::flush::Flushable;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Monotonic source of task tokens and park generations. Starting at 1
/// keeps 0 free as an always-stale sentinel.
static GLOBAL_COUNTER: AtomicU64 = AtomicU64::new(1);

pub(crate) fn next_id() -> u64 {
    GLOBAL_COUNTER.fetch_add(1, Ordering::Relaxed)
}

/// Downgrade to an unsized `Weak<dyn Exec>` (coercion happens at the
/// return position).
pub(crate) fn weak_dyn<T: Exec>(arc: &Arc<T>) -> Weak<dyn Exec> {
    let w: Weak<T> = Arc::downgrade(arc);
    w
}

/// Buckets for the keyed wait tables (thread and pooled executors).
pub(crate) const BUCKETS: usize = 16;

pub(crate) fn bucket_of(key: usize) -> usize {
    // Keys are addresses; the low bits below 16 are alignment noise.
    (key >> 4) & (BUCKETS - 1)
}

/// The scheduling seam every channel blocks through.
///
/// Implementations decide what a "task" is (OS thread, sim task, pooled
/// fiber) and how a blocked task sleeps; channels only ever express *what*
/// they are waiting for (a `key`) and *when* the wait became unnecessary
/// (`unpark_all`).
pub trait Exec: Send + Sync + 'static {
    /// Start a new task running `body`. The task inherits nothing from the
    /// spawning thread; its identity is fresh.
    fn spawn(&self, name: &str, body: Box<dyn FnOnce() + Send>);

    /// Read the current generation for `key`, creating the key's wait entry
    /// if needed. Must be called while holding the lock that guards the
    /// caller's wait predicate; the returned token is what makes the
    /// subsequent [`Exec::park`] immune to lost wakeups.
    fn park_token(&self, key: usize) -> u64;

    /// Block the current task until `unpark_all(key)` is called with a
    /// generation newer than `token`, the timeout elapses, or spuriously.
    ///
    /// Returns `Ok(true)` if the wait timed out, `Ok(false)` otherwise.
    /// Executors that serialize or pool tasks may ignore `timeout` (they
    /// drive periodic work through [`Exec::add_idle_hook`] instead).
    /// Returns an error if this executor cannot block the calling context
    /// (e.g. a foreign OS thread blocking on a simulation's channel).
    fn park(&self, key: usize, token: u64, timeout: Option<Duration>) -> Result<bool>;

    /// Wake every task parked on `key` and invalidate outstanding tokens
    /// for it. Callable from any thread.
    fn unpark_all(&self, key: usize);

    /// A voluntary scheduling point. No-op for preemptive executors; the
    /// simulation uses it to interleave at every channel operation.
    fn yield_point(&self);

    /// Register a hook run when the executor quiesces (every task parked).
    /// The monitor's deadlock tick rides on this for executors that do not
    /// honor park timeouts.
    fn add_idle_hook(&self, hook: Box<dyn Fn() + Send + Sync>);

    /// Release tasks held at a start barrier, if the executor has one.
    fn release(&self) {}

    /// Ask the executor to wind down once all tasks finish. Idempotent;
    /// no-op for executors without retained resources.
    fn shutdown(&self) {}

    /// Point-in-time scheduler counters, for executors that keep them
    /// (currently only [`PooledExec`]). `None` elsewhere.
    fn scheduler_stats(&self) -> Option<SchedulerStats> {
        None
    }

    /// The readiness reactor owned by this executor, if it can park tasks
    /// on socket readiness (currently only [`PooledExec`] on
    /// Linux/x86_64, the one configuration that runs tasks as fibers).
    /// Callers that get `None` are on an OS thread of their own and wait
    /// by blocking it.
    fn reactor(&self) -> Option<Arc<reactor::Reactor>> {
        None
    }

    /// The time on this executor's clock, from a fixed arbitrary origin:
    /// the monotonic clock for executors that run in real time, logical
    /// time for the simulation. The token path reads time nowhere else —
    /// the step boundary measures what a publish costs with it (see
    /// [`crate::flush`], clause 5) — so what an executor answers here
    /// decides how that rule behaves under it.
    fn now(&self) -> Duration {
        monotonic()
    }
}

fn monotonic() -> Duration {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed()
}

// ---------------------------------------------------------------------------
// Scheduler observability
// ---------------------------------------------------------------------------

/// Per-worker scheduling counters of a [`PooledExec`], snapshotted by
/// [`Exec::scheduler_stats`]. All counters are cumulative since pool
/// creation and are maintained with relaxed atomics — they never
/// synchronize the scheduler, only observe it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Fibers this worker switched into (dispatches).
    pub fiber_switches: u64,
    /// Dispatches served by the worker's own deque (LIFO pop).
    pub local_pops: u64,
    /// Dispatches served by the worker's LIFO hot slot.
    pub hot_hits: u64,
    /// Steal sweeps attempted (one per victim probed).
    pub steal_attempts: u64,
    /// Steal sweeps that yielded at least one fiber.
    pub steal_successes: u64,
    /// Total fibers obtained by stealing (steal-half takes several).
    pub stolen_fibers: u64,
    /// Fibers taken from the global injector.
    pub injector_pops: u64,
    /// Times this worker went to sleep on the pool's condvar.
    pub parks: u64,
    /// Times this worker was woken from that sleep.
    pub unparks: u64,
    /// Run-queue depth (deque + hot slot) at snapshot time.
    pub queue_depth: u64,
    /// Highest run-queue depth observed after a local push.
    pub max_queue_depth: u64,
}

impl WorkerStats {
    fn add(&mut self, o: &WorkerStats) {
        self.fiber_switches += o.fiber_switches;
        self.local_pops += o.local_pops;
        self.hot_hits += o.hot_hits;
        self.steal_attempts += o.steal_attempts;
        self.steal_successes += o.steal_successes;
        self.stolen_fibers += o.stolen_fibers;
        self.injector_pops += o.injector_pops;
        self.parks += o.parks;
        self.unparks += o.unparks;
        self.queue_depth += o.queue_depth;
        self.max_queue_depth = self.max_queue_depth.max(o.max_queue_depth);
    }
}

/// Pool-wide scheduling counters of a [`PooledExec`] (see
/// [`Exec::scheduler_stats`]); surfaced through
/// [`crate::monitor::MonitorStats`] for networks running on a pool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Configured steady-state worker count (the number of slots).
    pub target_workers: usize,
    /// Worker threads currently alive. Workers start lazily (one per
    /// spawn until the pool is full) and own their slot until the pool
    /// shuts down, so this climbs to `target_workers` and stays there.
    pub current_workers: usize,
    /// Fibers ever pushed to the global injector (spawns, cross-worker and
    /// foreign-thread unparks, deque overflow spills).
    pub injector_pushes: u64,
    /// Fibers sitting in the injector at snapshot time.
    pub injector_depth: usize,
    /// Unparked fibers routed through the injector because the waker was
    /// not a worker of this pool.
    pub foreign_unparks: u64,
    /// Readiness-reactor counters, once a fiber of this pool has waited
    /// on a socket (see [`reactor::Reactor`]); `None` until then.
    pub reactor: Option<reactor::ReactorStats>,
    /// Per-slot worker counters, indexed by slot.
    pub workers: Vec<WorkerStats>,
}

impl SchedulerStats {
    /// Sum of the per-worker counters (`max_queue_depth` is the max).
    pub fn totals(&self) -> WorkerStats {
        let mut t = WorkerStats::default();
        for w in &self.workers {
            t.add(w);
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Task identity
// ---------------------------------------------------------------------------

/// Per-task identity and task-local state, carried by the task itself so it
/// survives migration between pooled workers.
pub(crate) struct TaskLocals {
    /// Unique token identifying this task to the monitor.
    pub(crate) token: u64,
    /// The task's (process) name; empty for foreign threads.
    pub(crate) name: String,
    /// True for KPN process tasks, false for foreign threads.
    pub(crate) is_process: bool,
    /// The executor running this task (for [`current_exec`] and pooled
    /// self-identification). Weak to avoid an `Arc` cycle.
    pub(crate) exec: Weak<dyn Exec>,
    /// Buffered sinks owned by this task: published before the task waits
    /// for anything (see [`crate::flush`]). An immutable list replaced on
    /// registration, so a sweep shares it without copying.
    pub(crate) sinks: Mutex<Arc<Vec<Weak<dyn Flushable>>>>,
}

impl TaskLocals {
    pub(crate) fn new(name: &str, is_process: bool, exec: Weak<dyn Exec>) -> Arc<Self> {
        Arc::new(TaskLocals {
            token: next_id(),
            name: name.to_string(),
            is_process,
            exec,
            sinks: Mutex::new(Arc::new(Vec::new())),
        })
    }
}

thread_local! {
    /// The task currently running on this thread. `None` until first use on
    /// foreign threads; set by executors on task entry (and on every fiber
    /// switch-in for pooled workers).
    static CURRENT: RefCell<Option<Arc<TaskLocals>>> = const { RefCell::new(None) };
}

/// Run `f` with the current task's locals, lazily installing foreign-thread
/// locals on threads no executor owns.
pub(crate) fn with_current<R>(f: impl FnOnce(&Arc<TaskLocals>) -> R) -> R {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        if cur.is_none() {
            let exec = weak_dyn(default_exec());
            *cur = Some(TaskLocals::new("", false, exec));
        }
        f(cur.as_ref().unwrap())
    })
}

/// Install `locals` as the current task on this thread, returning the
/// previous value (restore it when the task yields the thread).
pub(crate) fn set_current(locals: Option<Arc<TaskLocals>>) -> Option<Arc<TaskLocals>> {
    CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), locals))
}

/// A stable token identifying the current task (not the current OS thread):
/// the monitor keys its blocked-set by this.
pub(crate) fn task_token() -> u64 {
    with_current(|l| l.token)
}

/// True when the caller is a KPN process task (as opposed to a foreign
/// thread touching a channel from outside the network).
pub(crate) fn is_process_task() -> bool {
    with_current(|l| l.is_process)
}

/// The current task's process name, or `None` on foreign threads.
pub(crate) fn current_task_name() -> Option<String> {
    with_current(|l| {
        if l.is_process {
            Some(l.name.clone())
        } else {
            None
        }
    })
}

/// Install process-task locals on the current thread (test helper for code
/// that blocks on channels from hand-spawned threads).
#[cfg(test)]
pub(crate) fn install_process_locals(name: &str) {
    let exec = weak_dyn(default_exec());
    set_current(Some(TaskLocals::new(name, true, exec)));
}

/// The executor running the current task — the process's executor on KPN
/// tasks, the thread-mode default executor on foreign threads, `None`
/// once the owning executor has shut down.
pub fn current_exec() -> Option<Arc<dyn Exec>> {
    with_current(|l| l.exec.clone()).upgrade()
}

// ---------------------------------------------------------------------------
// NetBackend: how remote-channel waits block
// ---------------------------------------------------------------------------

/// How a remote-channel wait on a socket that isn't ready blocks.
///
/// This is a *report*, not a choice: the net layer picks the mechanism per
/// wait from the calling context (a pooled fiber parks on its pool's
/// [`reactor::Reactor`]; an OS thread — thread executor, sim, foreign
/// threads — blocks in one plain syscall). Per-channel FIFO histories —
/// the thing Kahn determinacy lives in — are identical either way
/// (DESIGN.md §5j).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetBackend {
    /// The waiting OS thread blocks in the kernel (the paper's shape).
    Threads,
    /// The waiting fiber parks on socket readiness; its worker moves on.
    Reactor,
}

/// What a remote wait made by a process of a default-config network
/// ([`crate::NetworkConfig::default`]) does: `Reactor` when that network
/// runs on the pooled executor on a target with fibers, else `Threads`.
pub fn net_backend() -> NetBackend {
    match crate::NetworkConfig::from_env().mode {
        ExecMode::Pooled { .. } if fiber::AVAILABLE => NetBackend::Reactor,
        _ => NetBackend::Threads,
    }
}

// ---------------------------------------------------------------------------
// ExecMode: network-level executor selection
// ---------------------------------------------------------------------------

/// Which executor a [`crate::Network`] runs its processes on.
#[derive(Clone)]
pub enum ExecMode {
    /// One OS thread per process (the paper's model).
    Thread,
    /// A fixed worker pool running processes as parked continuations;
    /// `workers == 0` means `available_parallelism()`.
    Pooled {
        /// Worker thread count (0 = `available_parallelism()`).
        workers: usize,
    },
    /// The deterministic simulation scheduler from PR 3.
    Sim(Arc<crate::sim::SimScheduler>),
}

impl std::fmt::Debug for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::Thread => write!(f, "Thread"),
            ExecMode::Pooled { workers } => write!(f, "Pooled {{ workers: {workers} }}"),
            ExecMode::Sim(_) => write!(f, "Sim(..)"),
        }
    }
}

impl Default for ExecMode {
    /// The mode of [`crate::NetworkConfig::default`]: `KPN_EXEC` when set,
    /// else [`ExecMode::Thread`].
    fn default() -> Self {
        crate::NetworkConfig::from_env().mode
    }
}

impl ExecMode {
    /// Parse a `KPN_EXEC` value: `thread`, `pooled` (one worker per
    /// hardware thread) or `pooled:N`. Anything else is `thread`.
    pub(crate) fn parse(v: &str) -> ExecMode {
        let v = v.trim();
        if v.eq_ignore_ascii_case("pooled") {
            ExecMode::Pooled { workers: 0 }
        } else if let Some(workers) = v.strip_prefix("pooled:").and_then(|n| n.parse().ok()) {
            ExecMode::Pooled { workers }
        } else {
            ExecMode::Thread
        }
    }

    /// True for [`ExecMode::Sim`].
    pub fn is_sim(&self) -> bool {
        matches!(self, ExecMode::Sim(_))
    }

    /// Instantiate the executor for this mode.
    pub(crate) fn build(&self) -> Arc<dyn Exec> {
        match self {
            ExecMode::Thread => default_exec().clone() as Arc<dyn Exec>,
            ExecMode::Pooled { workers } => PooledExec::new(*workers) as Arc<dyn Exec>,
            ExecMode::Sim(sched) => SimExec::new(sched.clone()) as Arc<dyn Exec>,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_mode_parses_kpn_exec_values() {
        assert!(matches!(ExecMode::parse("thread"), ExecMode::Thread));
        assert!(matches!(ExecMode::parse("bogus"), ExecMode::Thread));
        assert!(matches!(
            ExecMode::parse(" Pooled "),
            ExecMode::Pooled { workers: 0 }
        ));
        assert!(matches!(
            ExecMode::parse("pooled:3"),
            ExecMode::Pooled { workers: 3 }
        ));
        assert!(matches!(ExecMode::parse("pooled:x"), ExecMode::Thread));
    }

    #[test]
    fn scheduler_stats_totals_sum_workers() {
        let a = WorkerStats {
            local_pops: 3,
            stolen_fibers: 2,
            max_queue_depth: 7,
            ..Default::default()
        };
        let b = WorkerStats {
            local_pops: 4,
            hot_hits: 5,
            max_queue_depth: 4,
            ..Default::default()
        };
        let s = SchedulerStats {
            target_workers: 2,
            workers: vec![a, b],
            ..Default::default()
        };
        let t = s.totals();
        assert_eq!(t.local_pops, 7);
        assert_eq!(t.hot_hits, 5);
        assert_eq!(t.stolen_fibers, 2);
        assert_eq!(t.max_queue_depth, 7, "depth aggregates by max, not sum");
    }
}
