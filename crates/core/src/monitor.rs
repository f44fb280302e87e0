//! Bounded-scheduling deadlock monitor (§3.5 and Parks' thesis \[13\]).
//!
//! Channels have limited capacity and writes block when full. This enforces
//! fair progress without relying on scheduler time-slicing, but it can
//! introduce *artificial* deadlock: a set of processes blocked forever even
//! though the (unbounded-channel) Kahn semantics would keep producing data —
//! the Hamming network of Figure 12 and the acyclic graph of Figure 13 are
//! the paper's examples.
//!
//! The monitor implements Parks' procedure:
//!
//! 1. detect that *every* live process in the network is blocked;
//! 2. if one of them is blocked **writing** to a full channel, the deadlock
//!    is artificial — grow the capacity of the *smallest* full channel with
//!    a blocked writer and wake it;
//! 3. if all of them are blocked **reading**, the deadlock is true — no
//!    finite buffer assignment can help; the network is aborted (every
//!    blocked operation fails with [`Error::Deadlocked`]).
//!
//! It is one of each (DESIGN.md §4c states the rule): one **table** of the
//! network's live channels (`MonState::channels` — the channel report, the
//! topology snapshot, abort and verification all read it); one **look** per
//! channel (`MonitoredChannel::look`, every field under one acquisition of
//! the channel's lock); one **verdict** (`verdict`, a pure function of the
//! blocked set and the looks), evaluated before the settling delay and
//! again after it, and acted on only if both evaluations agree and nothing
//! registered or left in between.
//!
//! Detection is event-driven: the last task to block evaluates, and a
//! process that exits does. Parked tasks re-evaluate on a periodic tick as
//! the fallback — and as the only path when the last to "block" registered
//! an external operation ([`Monitor::external_block`]): it may not wait at
//! all, so it never settles on its own behalf.
//!
//! Lock order: the monitor's state lock before a channel's, never the
//! reverse. A strong channel handle upgraded from the table is never
//! dropped under the state lock — it may have become the last one, and
//! the channel's drop re-enters the monitor to leave the table.

use crate::error::{Error, Result};
use crate::topology::EndpointShape;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Default for [`MonitorTiming::tick`].
pub(crate) const MONITOR_TICK: Duration = Duration::from_millis(20);

/// Default for [`MonitorTiming::settle`].
const SETTLE: Duration = Duration::from_millis(2);

/// The monitor's two timing knobs, injectable per network via
/// [`crate::NetworkConfig::monitor_timing`]. The defaults favour low
/// steady-state overhead; tests that provoke many deadlocks can shrink
/// them ([`MonitorTiming::fast`]), and the deterministic simulator runs
/// with both at zero ([`MonitorTiming::zero`]) because under a serial
/// scheduler there are no settling races to reject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorTiming {
    /// How long a blocked channel operation waits before re-running
    /// detection (the belt-and-braces fallback behind the event-driven
    /// path).
    pub tick: Duration,
    /// Settling delay used to confirm that an apparent all-blocked state
    /// is stable before acting on it.
    pub settle: Duration,
}

impl Default for MonitorTiming {
    fn default() -> Self {
        MonitorTiming {
            tick: MONITOR_TICK,
            settle: SETTLE,
        }
    }
}

impl MonitorTiming {
    /// Aggressive timing for tests that provoke deadlocks on purpose:
    /// detection latency drops from tens of milliseconds to hundreds of
    /// microseconds at the cost of more frequent wakeups while blocked.
    pub fn fast() -> Self {
        MonitorTiming {
            tick: Duration::from_millis(1),
            settle: Duration::from_micros(200),
        }
    }

    /// No waiting at all. Only sound when channel operations are
    /// serialized (the sim scheduler), where an all-blocked observation
    /// cannot be a transient race.
    pub fn zero() -> Self {
        MonitorTiming {
            tick: Duration::ZERO,
            settle: Duration::ZERO,
        }
    }
}

/// What to do when every process in the network is blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlockPolicy {
    /// Parks' bounded scheduling: double the smallest full channel (up to
    /// `max_capacity`, if set) on artificial deadlock; abort on true
    /// deadlock. This is the default.
    Grow {
        /// Upper bound on any single channel's capacity; `None` = unbounded.
        max_capacity: Option<usize>,
    },
    /// Abort the network on any full deadlock, artificial or true.
    Abort,
    /// Do nothing (useful for tests that assert raw blocking behaviour).
    Ignore,
}

impl Default for DeadlockPolicy {
    fn default() -> Self {
        DeadlockPolicy::Grow { max_capacity: None }
    }
}

/// Why a thread is blocked, as reported to the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Blocked reading an empty channel.
    Read,
    /// Blocked writing a full channel.
    Write,
}

/// Per-channel I/O counters (see [`crate::Network::channel_report`]):
/// the observability layer behind the buffer-management analysis —
/// `peak_occupancy` is the buffer demand bounded scheduling discovered,
/// and the block counters show where backpressure (or starvation) lives.
///
/// Counters account for bytes at the *channel* boundary. Buffered typed
/// streams batch tokens privately before they cross it, but the
/// publish-before-wait rule (see [`crate::flush`]) empties a task's private
/// buffers before it blocks on anything, so at every point where the
/// monitor inspects a stalled network these counters describe all data in
/// flight — which is what keeps bounded-capacity scheduling decisions
/// correct under buffering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelIoStats {
    /// Total bytes pushed through the channel.
    pub bytes_written: u64,
    /// Blocking episodes on the write side (buffer full).
    pub write_blocks: u64,
    /// Blocking episodes on the read side (buffer empty).
    pub read_blocks: u64,
    /// Highest buffer occupancy observed, in bytes.
    pub peak_occupancy: usize,
    /// Current capacity (after any growth).
    pub capacity: usize,
}

/// One consistent look at a channel: everything the monitor, the channel
/// report and the topology snapshot read from it, taken under a single
/// acquisition of the channel's lock.
#[derive(Debug, Clone)]
pub(crate) struct Look {
    /// The I/O counters and the current capacity. `bytes_written` is the
    /// channel's progress counter.
    pub(crate) stats: ChannelIoStats,
    /// Bytes currently buffered.
    pub(crate) buffered: usize,
    /// The buffer is at capacity (writers must block).
    pub(crate) full: bool,
    /// The write end has been closed: the reader is about to see EOF.
    pub(crate) write_closed: bool,
    /// The read end has been closed: the writer is about to fail.
    pub(crate) read_closed: bool,
    /// Lint metadata of the write side.
    pub(crate) writer: EndpointShape,
    /// Lint metadata of the read side.
    pub(crate) reader: EndpointShape,
}

impl Look {
    /// Whether a task registered as blocked on this channel can really be
    /// waiting: a reader needs it empty with its writer open, a writer
    /// needs it full with its reader open. A registration the look does not
    /// confirm belongs to a task that is about to run — it registered and
    /// has not re-checked its channel yet, or its wake (data, space, the
    /// EOF or `WriteClosed` of a termination cascade) is in flight.
    fn confirms(&self, kind: BlockKind) -> bool {
        match kind {
            BlockKind::Read => self.buffered == 0 && !self.write_closed,
            BlockKind::Write => self.full && !self.read_closed,
        }
    }
}

/// What the monitor asks of a channel: one look and three actions.
/// Implemented by the local channel's shared state.
pub(crate) trait MonitoredChannel: Send + Sync {
    /// The channel's state, read under one acquisition of its lock.
    fn look(&self) -> Look;
    /// If the channel is full, grow it (respecting `max`) and wake writers.
    /// Returns `(old, new)` capacities when growth happened.
    fn grow_if_full(&self, max: Option<usize>) -> Option<(usize, usize)>;
    /// Grow the channel to at least `min` bytes (never shrinks) and wake
    /// writers. Returns true when the capacity actually changed. Used to
    /// apply statically synthesized capacities before a network starts.
    fn ensure_capacity(&self, min: usize) -> bool;
    /// Mark the channel poisoned and wake everyone; all subsequent and
    /// pending operations fail with [`Error::Deadlocked`].
    fn poison(&self);
}

/// Strong handles upgraded from the table, with their channel ids. Built
/// under the monitor's state lock and always carried out of it: whoever
/// holds one looks at, acts on and drops the handles with the lock released.
pub(crate) type Held = Vec<(u64, Arc<dyn MonitoredChannel>)>;

/// Counters exposed for tests, benches and EXPERIMENTS.md.
#[derive(Debug, Default, Clone)]
pub struct MonitorStats {
    /// Number of artificial deadlocks resolved by growing a channel.
    pub growths: u64,
    /// Capacity-growth events the runtime monitor performed after start —
    /// the observable cost of Parks' detect-and-grow loop. Statically
    /// synthesized capacities applied before start
    /// (`NetworkConfig::synthesize_capacities`) do not count, so a static
    /// region whose synthesized sizes hold reports `capacity_grows == 0`.
    pub capacity_grows: u64,
    /// Number of true deadlocks detected.
    pub true_deadlocks: u64,
    /// Every growth performed: `(channel id, old capacity, new capacity)`.
    /// The raw material for buffer-management analysis (§6.2): the final
    /// entry per channel is the capacity bounded scheduling settled on.
    pub growth_log: Vec<(u64, usize, usize)>,
    /// Per-worker scheduler counters, when the network runs on an executor
    /// that keeps them (the pooled executor); `None` under thread and sim
    /// execution.
    pub scheduler: Option<crate::exec::SchedulerStats>,
}

/// A point-in-time view of a monitor, used by the distributed deadlock
/// probe (§6.2): a node whose every network is fully blocked — including
/// threads blocked on *remote* channel reads — is a candidate participant
/// in a cross-machine deadlock that no local monitor can prove alone.
#[derive(Debug, Clone, Default)]
pub struct MonitorSnapshot {
    /// Monotonic activity counter: bumps on every block, unblock, spawn
    /// and exit. Two identical snapshots with equal generations mean *no
    /// thread made progress in between* — the distributed probe's
    /// freshness check.
    pub generation: u64,
    /// Live process threads.
    pub live: usize,
    /// Process threads blocked reading.
    pub blocked_reads: usize,
    /// Process threads blocked writing.
    pub blocked_writes: usize,
    /// Whether the network was aborted.
    pub aborted: bool,
    /// Resolution counters.
    pub stats: MonitorStats,
}

impl MonitorSnapshot {
    /// True when the network still has live processes and every one of
    /// them is blocked.
    pub fn fully_blocked(&self) -> bool {
        self.live > 0 && self.blocked_reads + self.blocked_writes >= self.live
    }

    /// True when the network has finished (no live processes).
    pub fn finished(&self) -> bool {
        self.live == 0
    }
}

/// Sentinel channel id for blocks on channels the monitor cannot inspect
/// (remote transports). Such a block counts toward the all-blocked
/// condition, and there is no look to confirm or refute it. It may
/// therefore *permit growth* — a full local channel behind a socket is
/// grown whether or not the remote wait is real, which costs memory at
/// worst — and never *permits abort*: with an external block in the picture
/// no verdict is a true deadlock, capped growth included, since data may be
/// in flight on the network (§6.2 leaves resolution to a distributed
/// protocol).
pub const EXTERNAL_CHANNEL: u64 = 0;

#[derive(Debug, Clone, Copy)]
struct BlockInfo {
    kind: BlockKind,
    chan: u64,
    is_process: bool,
}

#[derive(Default)]
struct MonState {
    /// Live process threads in the network (running or blocked).
    live: usize,
    /// All threads currently blocked on a monitored channel, keyed by a
    /// per-thread token. Includes non-process threads (e.g. a test's main
    /// thread draining the output), which participate in deadlock but not
    /// in the live count.
    blocked: HashMap<u64, BlockInfo>,
    /// Number of blocked entries with `is_process == true`.
    blocked_processes: usize,
    /// Bumped on every block/unblock/process event; a verdict is acted on
    /// only at the generation it was detected at.
    generation: u64,
    /// The table: every live channel of the network, keyed by id — ids are
    /// handed out at creation, so this is creation order. A channel enters
    /// when it is created and leaves from its own drop
    /// ([`Monitor::channel_retired`]); nothing else holds a handle.
    channels: BTreeMap<u64, Weak<dyn MonitoredChannel>>,
    /// Final counters of channels that have been dropped, so reports cover
    /// the network's whole life.
    retired: Vec<(u64, ChannelIoStats)>,
    aborted: bool,
    stats: MonitorStats,
}

impl MonState {
    /// True when every live process is blocked (candidate deadlock).
    fn all_blocked(&self) -> bool {
        !self.aborted && self.live > 0 && self.blocked_processes >= self.live
    }

    /// Strong handles of the live channels, in creation order.
    fn live_channels(&self) -> Held {
        let live = self.channels.iter();
        live.filter_map(|(id, w)| Some((*id, w.upgrade()?))).collect()
    }
}

/// What the procedure decides for one picture of the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Not stuck, not provably stuck, or not the monitor's to resolve.
    Nothing,
    /// Artificial deadlock: grow this channel.
    Grow(u64),
    /// True deadlock: abort the network.
    TrueDeadlock,
}

/// Parks' decision, as a function of the blocked set and a look at the
/// channel of each registration (`look`; `None` for a channel that has left
/// the table). It stops looking at the first registration that settles the
/// matter — the usual case, a task that has been woken and has not run yet.
/// A channel with both its reader and its writer registered is looked at
/// twice and looks the same both times: a registered task moves no data.
///
/// Nothing is decided unless every live process is blocked and every
/// registration on a local channel is confirmed by that channel's look
/// ([`Look::confirms`]; a channel that has left the table confirms
/// nothing). Then the smallest-capacity full channel with a blocked writer
/// is grown — capacity ties break on channel id, so the choice is a
/// function of network state alone, which the sim scheduler's replay
/// guarantee needs — unless it is already at the policy's maximum. With
/// nothing to grow the deadlock is true, except that a block on
/// [`EXTERNAL_CHANNEL`] may permit a growth and never an abort.
fn verdict(
    st: &MonState,
    policy: DeadlockPolicy,
    mut look: impl FnMut(u64) -> Option<Look>,
) -> Verdict {
    if policy == DeadlockPolicy::Ignore || !st.all_blocked() {
        return Verdict::Nothing;
    }
    let mut external = false;
    let mut smallest: Option<(usize, u64)> = None;
    for b in st.blocked.values() {
        if b.chan == EXTERNAL_CHANNEL {
            external = true;
            continue;
        }
        match look(b.chan) {
            Some(look) if look.confirms(b.kind) => {
                if b.kind == BlockKind::Write {
                    let this = (look.stats.capacity, b.chan);
                    smallest = Some(smallest.map_or(this, |s| s.min(this)));
                }
            }
            _ => return Verdict::Nothing,
        }
    }
    match (policy, smallest) {
        (DeadlockPolicy::Grow { max_capacity }, Some((capacity, id)))
            if max_capacity.is_none_or(|max| capacity < max) =>
        {
            Verdict::Grow(id)
        }
        _ if external => Verdict::Nothing,
        _ => Verdict::TrueDeadlock,
    }
}

/// The per-network deadlock monitor. One instance is shared by every channel
/// and process thread created through a [`crate::Network`].
pub struct Monitor {
    state: Mutex<MonState>,
    policy: DeadlockPolicy,
    timing: MonitorTiming,
    /// Whether [`Monitor::trace`] prints
    /// ([`crate::NetworkConfig::monitor_debug`]).
    debug: bool,
    /// Callbacks run when the network aborts, *after* local channels are
    /// poisoned. Used by the distributed layer to interrupt threads
    /// blocked on transports the monitor cannot poison (TCP reads,
    /// pending connections).
    abort_hooks: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
    /// Pulls scheduler counters from the network's executor for
    /// [`Monitor::stats`]/[`Monitor::snapshot`]. A closure (over a weak
    /// executor handle) rather than an `Arc<dyn Exec>` because the
    /// executor holds the monitor strongly via its idle hook — a direct
    /// reference back would leak both.
    scheduler_source: Mutex<Option<SchedulerSource>>,
}

/// Closure pulling a [`SchedulerStats`](crate::exec::SchedulerStats)
/// snapshot from the owning network's executor.
type SchedulerSource = Box<dyn Fn() -> Option<crate::exec::SchedulerStats> + Send + Sync>;

/// The monitor keys its blocked-set by *task*, not OS thread: under the
/// pooled executor one worker thread runs many tasks (and a task may
/// migrate between workers between its enter/exit pair), so identity comes
/// from the executor's task-locals.
fn thread_token() -> u64 {
    crate::exec::task_token()
}

/// True when the caller is a network process task (any executor); foreign
/// threads touching channels from outside register as external blocks.
fn is_process_thread() -> bool {
    crate::exec::is_process_task()
}

impl Monitor {
    /// Creates a monitor with the given policy and default timing.
    pub fn new(policy: DeadlockPolicy) -> Arc<Self> {
        Self::with_timing(policy, MonitorTiming::default())
    }

    /// Creates a monitor with explicit timing knobs.
    pub fn with_timing(policy: DeadlockPolicy, timing: MonitorTiming) -> Arc<Self> {
        Self::build(policy, timing, false)
    }

    /// [`Monitor::with_timing`] plus the stderr trace switch the network
    /// carries in from its configuration.
    pub(crate) fn build(policy: DeadlockPolicy, timing: MonitorTiming, debug: bool) -> Arc<Self> {
        Arc::new(Monitor {
            state: Mutex::new(MonState::default()),
            policy,
            timing,
            debug,
            abort_hooks: Mutex::new(Vec::new()),
            scheduler_source: Mutex::new(None),
        })
    }

    /// Wire up the provider of executor scheduling counters (set by
    /// [`crate::Network`] when the executor keeps them). The closure is
    /// called outside the monitor's state lock, so it may itself lock
    /// executor state.
    pub(crate) fn set_scheduler_source(&self, source: SchedulerSource) {
        *self.scheduler_source.lock() = Some(source);
    }

    /// Current executor scheduling counters, if any.
    fn scheduler_stats(&self) -> Option<crate::exec::SchedulerStats> {
        self.scheduler_source.lock().as_ref().and_then(|f| f())
    }

    /// The timing knobs this monitor runs with.
    pub fn timing(&self) -> MonitorTiming {
        self.timing
    }

    /// Registers a callback to run when the network aborts (after local
    /// channels are poisoned). If the network is already aborted the hook
    /// runs immediately.
    pub fn on_abort(&self, hook: Box<dyn Fn() + Send + Sync>) {
        let already = self.state.lock().aborted;
        if already {
            hook();
        } else {
            self.abort_hooks.lock().push(hook);
        }
    }

    fn run_abort_hooks(&self) {
        // Take the hooks out so they run exactly once, without the lock.
        let hooks: Vec<_> = self.abort_hooks.lock().drain(..).collect();
        for hook in hooks {
            hook();
        }
    }

    /// The policy this monitor was created with.
    pub fn policy(&self) -> DeadlockPolicy {
        self.policy
    }

    /// Snapshot of resolution counters, including the executor's
    /// per-worker scheduling counters when it keeps them.
    pub fn stats(&self) -> MonitorStats {
        let mut stats = self.state.lock().stats.clone();
        // Filled after releasing the state lock: the source closure takes
        // the executor's own locks, and the executor's idle hook calls
        // back into this monitor.
        stats.scheduler = self.scheduler_stats();
        stats
    }

    /// Per-channel I/O counters, keyed by channel id — live channels plus
    /// the final counters of already-dropped ones, so the report covers
    /// the network's entire execution.
    pub fn channel_report(&self) -> Vec<(u64, ChannelIoStats)> {
        // One lock for both halves, so a channel is in exactly one of them.
        let (live, mut out) = {
            let st = self.state.lock();
            (st.live_channels(), st.retired.clone())
        };
        out.extend(live.iter().map(|(id, ch)| (*id, ch.look().stats)));
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Strong handles of the network's live channels, in creation order —
    /// the table, for its other readers (topology snapshot, capacity fixes).
    pub(crate) fn live_channels(&self) -> Held {
        self.state.lock().live_channels()
    }

    /// The one stderr trace: registrations, verdicts and what was done
    /// about them.
    fn trace(&self, event: impl FnOnce() -> String) {
        if self.debug {
            eprintln!("[monitor] {}", event());
        }
    }

    /// A point-in-time view for the distributed deadlock probe.
    pub fn snapshot(&self) -> MonitorSnapshot {
        let st = self.state.lock();
        let mut reads = 0;
        let mut writes = 0;
        for b in st.blocked.values() {
            if !b.is_process {
                continue;
            }
            match b.kind {
                BlockKind::Read => reads += 1,
                BlockKind::Write => writes += 1,
            }
        }
        let mut snap = MonitorSnapshot {
            generation: st.generation,
            live: st.live,
            blocked_reads: reads,
            blocked_writes: writes,
            aborted: st.aborted,
            stats: st.stats.clone(),
        };
        drop(st); // scheduler source takes executor locks; see stats()
        snap.stats.scheduler = self.scheduler_stats();
        snap
    }

    /// Registers the current thread as blocked on a channel the monitor
    /// cannot inspect (a remote transport). The block participates in
    /// all-blocked detection and snapshots, but never satisfies the
    /// true-deadlock verification — remote data may be in flight, so only
    /// a distributed protocol may abort (§6.2). Callers register around
    /// every remote operation, whether or not it turns out to wait, so the
    /// registration itself never starts a settle: an all-blocked picture it
    /// completes is picked up by the detection tick of a task parked on a
    /// local channel, if it lasts that long (see `enter_block`).
    ///
    /// The task's buffered output is published first
    /// ([`crate::flush::flush_before_block`]): whoever registers is about to
    /// wait, and the publish can itself block on a full local channel, which
    /// must not happen while this registration is held (a task registers as
    /// blocked once).
    pub fn external_block(&self, kind: BlockKind) -> Result<ExternalBlockGuard<'_>> {
        crate::flush::flush_before_block();
        self.enter_block(kind, EXTERNAL_CHANNEL)?;
        Ok(ExternalBlockGuard { monitor: self })
    }

    /// True once a true deadlock was declared or the network was aborted.
    pub fn is_aborted(&self) -> bool {
        self.state.lock().aborted
    }

    /// Enters a newly created channel into the table.
    pub(crate) fn register_channel(&self, id: u64, chan: Weak<dyn MonitoredChannel>) {
        self.state.lock().channels.insert(id, chan);
    }

    /// Takes a dropped channel out of the table and keeps its final
    /// counters. Called from the channel's own drop, which is why no strong
    /// handle may be dropped under the state lock.
    pub(crate) fn channel_retired(&self, id: u64, stats: ChannelIoStats) {
        let mut st = self.state.lock();
        st.channels.remove(&id);
        st.retired.push((id, stats));
    }

    /// A process thread entered the network.
    pub(crate) fn process_started(&self) {
        let mut st = self.state.lock();
        st.live += 1;
        st.generation += 1;
    }

    /// A process thread left the network (finished or failed).
    pub(crate) fn process_finished(&self) {
        let mut st = self.state.lock();
        st.live -= 1;
        st.generation += 1;
        // The departing process may have been the only runnable one; the
        // remainder might now be fully blocked.
        self.resolve_if_all_blocked(st);
    }

    /// Registers the current thread as blocked and runs deadlock detection.
    /// Returns `Err(Deadlocked)` if the network is already aborted, and
    /// `Err(Graph)` — leaving the existing registration alone — if the task
    /// is registered already: a nested registration would count the task
    /// as two blocked processes and, after the inner exit, as one forever,
    /// which the monitor would eventually read as a deadlock with a
    /// process still running.
    pub(crate) fn enter_block(&self, kind: BlockKind, chan: u64) -> Result<()> {
        let token = thread_token();
        let is_process = is_process_thread();
        let mut st = self.state.lock();
        if st.aborted {
            return Err(Error::Deadlocked);
        }
        if let Some(outer) = st.blocked.get(&token) {
            return Err(Error::Graph(format!(
                "task {token} registered as blocked ({kind:?} on channel {chan}) while \
                 already registered ({:?} on channel {}): something waited inside a \
                 monitor registration",
                outer.kind, outer.chan
            )));
        }
        st.blocked.insert(
            token,
            BlockInfo {
                kind,
                chan,
                is_process,
            },
        );
        if is_process {
            st.blocked_processes += 1;
        }
        st.generation += 1;
        self.trace(|| {
            let gen = st.generation;
            format!("enter token={token} chan={chan} kind={kind:?} gen={gen}")
        });
        // An external registrant does not act on the picture it completes.
        // It has not started the operation it registered for, the monitor
        // cannot check whether that operation will wait at all, and a
        // settle slept on this thread would keep it from finding out: with
        // everyone else parked nothing moves the generation, the settle
        // confirms itself, and a local channel is doubled for a task that
        // was never stuck — again at its next operation, until the channel
        // holds its producer's whole output. If the operation does wait,
        // the detection tick of the task parked on the full local channel —
        // the only thing an external block can make growable — finds the
        // same picture with this task's registration unchanged.
        if chan != EXTERNAL_CHANNEL {
            self.resolve_if_all_blocked(st);
        }
        Ok(())
    }

    /// Re-runs detection from a thread that has been blocked for a while
    /// (periodic fallback; the thread stays registered, so this does not
    /// bump the generation and cannot destabilize a concurrent settle).
    pub(crate) fn tick(&self) {
        self.resolve_if_all_blocked(self.state.lock());
    }

    /// Unregisters the current thread.
    pub(crate) fn exit_block(&self) {
        let token = thread_token();
        let mut st = self.state.lock();
        if let Some(info) = st.blocked.remove(&token) {
            if info.is_process {
                st.blocked_processes -= 1;
            }
            st.generation += 1;
            self.trace(|| format!("exit token={token} chan={} gen={}", info.chan, st.generation));
        }
    }

    /// Aborts the network: poisons every registered channel so all pending
    /// and future operations fail with [`Error::Deadlocked`].
    pub fn abort(&self) {
        self.abort_at(None);
    }

    /// The one abort routine. A true-deadlock verdict passes the generation
    /// it was reached at: it is counted, and carried out only if nothing
    /// has registered or left since.
    fn abort_at(&self, verdict_at: Option<u64>) {
        let live = {
            let mut st = self.state.lock();
            if let Some(gen) = verdict_at {
                if st.generation != gen {
                    return;
                }
                st.stats.true_deadlocks += 1;
                self.trace(|| format!("abort: true deadlock at gen={gen}"));
            }
            st.aborted = true;
            st.generation += 1;
            st.live_channels()
        };
        for (_, ch) in &live {
            ch.poison();
        }
        drop(live);
        self.run_abort_hooks();
    }

    /// Runs the procedure from this thread if `st` shows every live process
    /// blocked.
    fn resolve_if_all_blocked(&self, st: parking_lot::MutexGuard<'_, MonState>) {
        let (all_blocked, gen) = (st.all_blocked(), st.generation);
        drop(st);
        if all_blocked {
            self.settle_and_resolve(gen);
        }
    }

    /// One evaluation: under the state lock, decide from a look at the
    /// channels the blocked set names. Returns the verdict, the generation
    /// it holds at, and the handles the looks were taken through — out of
    /// the lock, like every [`Held`].
    fn evaluate(&self) -> (Verdict, u64, Held) {
        let st = self.state.lock();
        let mut held = Held::new();
        let verdict = verdict(&st, self.policy, |chan| {
            let ch = st.channels.get(&chan)?.upgrade()?;
            let look = ch.look();
            held.push((chan, ch));
            Some(look)
        });
        if verdict != Verdict::Nothing {
            self.trace(|| {
                // A second look, for the trace only.
                let looks: Vec<_> = held
                    .iter()
                    .map(|(id, ch)| {
                        let l = ch.look();
                        (id, l.buffered, l.stats.capacity, l.read_closed, l.write_closed)
                    })
                    .collect();
                format!(
                    "verdict {verdict:?} live={} gen={} blocked={:?} looks(id,buf,cap,rc,wc)={looks:?}",
                    st.live, st.generation, st.blocked
                )
            });
        }
        (verdict, st.generation, held)
    }

    /// Evaluates, lets the picture settle, evaluates again, and acts if
    /// the two verdicts agree at the generation of the detection. Called
    /// without any locks held.
    fn settle_and_resolve(&self, gen_at_detect: u64) {
        // A picture that allows no action is not worth the settle: the
        // sleep would otherwise be added to every local block, detection
        // tick and process exit in a small partition whose other tasks are
        // at their sockets.
        let (before, ..) = self.evaluate();
        if before == Verdict::Nothing {
            return;
        }
        if !self.timing.settle.is_zero() {
            std::thread::sleep(self.timing.settle);
        }
        let (after, gen, held) = self.evaluate();
        if after != before || gen != gen_at_detect {
            return;
        }
        match (after, self.policy) {
            (Verdict::TrueDeadlock, _) => self.abort_at(Some(gen)),
            (Verdict::Grow(id), DeadlockPolicy::Grow { max_capacity }) => {
                let grown = held
                    .iter()
                    .find(|(held_id, _)| *held_id == id)
                    .and_then(|(_, ch)| ch.grow_if_full(max_capacity));
                // `None`: the channel drained between the look and the
                // action. If everyone is still blocked a later tick retries.
                if let Some((old, new)) = grown {
                    let mut st = self.state.lock();
                    st.stats.growths += 1;
                    st.stats.capacity_grows += 1;
                    st.stats.growth_log.push((id, old, new));
                    st.generation += 1;
                    self.trace(|| format!("GROW ch={id} {old}->{new} gen={}", st.generation));
                }
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("Monitor")
            .field("policy", &self.policy)
            .field("live", &st.live)
            .field("blocked", &st.blocked.len())
            .field("aborted", &st.aborted)
            .finish()
    }
}

/// RAII guard for an external (remote-transport) block; see
/// [`Monitor::external_block`].
pub struct ExternalBlockGuard<'m> {
    monitor: &'m Monitor,
}

impl Drop for ExternalBlockGuard<'_> {
    fn drop(&mut self) {
        self.monitor.exit_block();
    }
}

/// RAII guard pairing [`Monitor::enter_block`]/[`Monitor::exit_block`].
pub(crate) struct BlockGuard<'m> {
    monitor: &'m Monitor,
}

impl<'m> BlockGuard<'m> {
    pub(crate) fn enter(monitor: &'m Monitor, kind: BlockKind, chan: u64) -> Result<Self> {
        monitor.enter_block(kind, chan)?;
        Ok(BlockGuard { monitor })
    }
}

impl Drop for BlockGuard<'_> {
    fn drop(&mut self) {
        self.monitor.exit_block();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeChan {
        cap: Mutex<usize>,
        full: Mutex<bool>,
        poisoned: Mutex<bool>,
    }

    impl FakeChan {
        fn new(cap: usize, full: bool) -> Arc<Self> {
            Arc::new(FakeChan {
                cap: Mutex::new(cap),
                full: Mutex::new(full),
                poisoned: Mutex::new(false),
            })
        }
    }

    /// A look at an open channel with nothing declared about its sides.
    fn look(capacity: usize, buffered: usize, full: bool) -> Look {
        Look {
            stats: ChannelIoStats {
                capacity,
                ..Default::default()
            },
            buffered,
            full,
            write_closed: false,
            read_closed: false,
            writer: EndpointShape::open(),
            reader: EndpointShape::open(),
        }
    }

    impl MonitoredChannel for FakeChan {
        fn look(&self) -> Look {
            look(*self.cap.lock(), 0, *self.full.lock())
        }
        fn grow_if_full(&self, max: Option<usize>) -> Option<(usize, usize)> {
            let mut cap = self.cap.lock();
            if !*self.full.lock() {
                return None;
            }
            let old = *cap;
            let new = (old * 2).min(max.unwrap_or(usize::MAX));
            if new <= old {
                return None;
            }
            *cap = new;
            // A freshly grown channel is no longer full.
            *self.full.lock() = false;
            Some((old, new))
        }
        fn ensure_capacity(&self, min: usize) -> bool {
            let mut cap = self.cap.lock();
            if *cap >= min {
                return false;
            }
            *cap = min;
            *self.full.lock() = false;
            true
        }
        fn poison(&self) {
            *self.poisoned.lock() = true;
        }
    }

    #[test]
    fn policy_default_is_grow_unbounded() {
        assert_eq!(
            DeadlockPolicy::default(),
            DeadlockPolicy::Grow { max_capacity: None }
        );
    }

    #[test]
    fn enter_after_abort_fails() {
        let m = Monitor::new(DeadlockPolicy::default());
        m.abort();
        assert!(matches!(
            m.enter_block(BlockKind::Read, 1),
            Err(Error::Deadlocked)
        ));
    }

    /// Reserves `blocks.len()` live processes, then blocks one thread per
    /// entry in order (each thread leaves its blocked entry in place, as a
    /// permanently-stuck process would). Detection fires when the last one
    /// blocks.
    fn block_all(m: &Arc<Monitor>, blocks: &[(u64, BlockKind)]) {
        for _ in blocks {
            m.process_started();
        }
        for &(chan, kind) in blocks {
            let m2 = m.clone();
            std::thread::spawn(move || {
                crate::exec::install_process_locals("blocked");
                let _ = m2.enter_block(kind, chan);
            })
            .join()
            .unwrap();
        }
        // Let the settling delay of the final detection elapse.
        std::thread::sleep(Duration::from_millis(20));
    }

    #[test]
    fn all_read_blocked_is_true_deadlock() {
        let m = Monitor::new(DeadlockPolicy::default());
        let c1: Arc<FakeChan> = FakeChan::new(16, false);
        m.register_channel(1, Arc::downgrade(&c1) as Weak<dyn MonitoredChannel>);
        block_all(&m, &[(1, BlockKind::Read), (1, BlockKind::Read)]);
        assert!(m.is_aborted());
        assert!(*c1.poisoned.lock());
        assert_eq!(m.stats().true_deadlocks, 1);
    }

    #[test]
    fn write_blocked_grows_smallest_channel() {
        let m = Monitor::new(DeadlockPolicy::default());
        let small = FakeChan::new(8, true);
        let big = FakeChan::new(64, true);
        m.register_channel(1, Arc::downgrade(&small) as Weak<dyn MonitoredChannel>);
        m.register_channel(2, Arc::downgrade(&big) as Weak<dyn MonitoredChannel>);
        block_all(&m, &[(1, BlockKind::Write), (2, BlockKind::Write)]);
        assert!(!m.is_aborted());
        assert_eq!(*small.cap.lock(), 16, "smallest channel doubled");
        assert_eq!(*big.cap.lock(), 64, "larger channel untouched");
        assert_eq!(m.stats().growths, 1);
    }

    #[test]
    fn mixed_block_prefers_growth_over_abort() {
        let m = Monitor::new(DeadlockPolicy::default());
        let c = FakeChan::new(8, true);
        let empty = FakeChan::new(8, false);
        m.register_channel(7, Arc::downgrade(&c) as Weak<dyn MonitoredChannel>);
        m.register_channel(9, Arc::downgrade(&empty) as Weak<dyn MonitoredChannel>);
        block_all(&m, &[(7, BlockKind::Write), (9, BlockKind::Read)]);
        assert!(!m.is_aborted());
        assert_eq!(m.stats().growths, 1);
    }

    #[test]
    fn block_on_vanished_local_channel_vetoes_growth() {
        // A writer parked on a channel the monitor no longer sees (its
        // reader died mid-cascade and the registration followed the Shared
        // out) means a `WriteClosed` wake is in flight: the all-blocked
        // picture is transient and growing another channel would be pure
        // inflation. Only the EXTERNAL_CHANNEL sentinel may pass
        // unverified.
        let m = Monitor::new(DeadlockPolicy::default());
        let c = FakeChan::new(8, true);
        m.register_channel(7, Arc::downgrade(&c) as Weak<dyn MonitoredChannel>);
        block_all(&m, &[(7, BlockKind::Write), (9, BlockKind::Read)]);
        assert!(!m.is_aborted());
        assert_eq!(m.stats().growths, 0, "in-flight cascade must veto growth");
    }

    #[test]
    fn external_block_still_permits_growth() {
        // Distributed artificial deadlocks block on the sentinel id; the
        // monitor cannot introspect the remote side and must still be able
        // to grow a full local channel.
        let m = Monitor::new(DeadlockPolicy::default());
        let c = FakeChan::new(8, true);
        m.register_channel(7, Arc::downgrade(&c) as Weak<dyn MonitoredChannel>);
        block_all(&m, &[(EXTERNAL_CHANNEL, BlockKind::Read), (7, BlockKind::Write)]);
        assert!(!m.is_aborted());
        assert_eq!(m.stats().growths, 1);
    }

    #[test]
    fn external_registrant_leaves_detection_to_the_parked_writers_tick() {
        // The external registrant completes the all-blocked picture but has
        // not started its operation: a settle slept on its thread would
        // confirm itself and grow the channel behind a task that was never
        // stuck. The writer parked on the full channel re-runs detection
        // from its park timeout, and finds the picture if it is still there.
        let m = Monitor::new(DeadlockPolicy::default());
        let c = FakeChan::new(8, true);
        m.register_channel(7, Arc::downgrade(&c) as Weak<dyn MonitoredChannel>);
        block_all(&m, &[(7, BlockKind::Write), (EXTERNAL_CHANNEL, BlockKind::Write)]);
        assert_eq!(m.stats().growths, 0, "the registrant must not settle for itself");
        m.tick();
        assert!(!m.is_aborted());
        assert_eq!(m.stats().growths, 1, "a picture that lasts is still resolved");
    }

    #[test]
    fn grow_capped_at_max_becomes_true_deadlock() {
        let m = Monitor::new(DeadlockPolicy::Grow {
            max_capacity: Some(8),
        });
        let c = FakeChan::new(8, true); // already at max
        m.register_channel(1, Arc::downgrade(&c) as Weak<dyn MonitoredChannel>);
        block_all(&m, &[(1, BlockKind::Write)]);
        // Growth impossible: the monitor must not spin; it declares a true
        // deadlock and poisons the channel.
        assert!(m.is_aborted());
        assert!(*c.poisoned.lock());
    }

    #[test]
    fn capped_growth_beside_an_external_block_is_not_a_true_deadlock() {
        // The channel cannot grow, and the task at its socket may be about
        // to make room: the capped verdict passes the same verification as
        // any other true deadlock, which an external block never does.
        let m = Monitor::new(DeadlockPolicy::Grow {
            max_capacity: Some(8),
        });
        let c = FakeChan::new(8, true);
        m.register_channel(1, Arc::downgrade(&c) as Weak<dyn MonitoredChannel>);
        block_all(&m, &[(EXTERNAL_CHANNEL, BlockKind::Read), (1, BlockKind::Write)]);
        m.tick();
        assert!(!m.is_aborted());
        assert!(!*c.poisoned.lock());
        assert_eq!(*c.cap.lock(), 8);
        assert_eq!(m.stats().true_deadlocks, 0);
    }

    #[test]
    fn both_true_deadlock_verdicts_count_once_and_bump_the_generation() {
        let capped = DeadlockPolicy::Grow {
            max_capacity: Some(8),
        };
        for (policy, full, kind) in [
            (DeadlockPolicy::default(), false, BlockKind::Read),
            (capped, true, BlockKind::Write),
        ] {
            let m = Monitor::new(policy);
            let c = FakeChan::new(8, full);
            m.register_channel(1, Arc::downgrade(&c) as Weak<dyn MonitoredChannel>);
            block_all(&m, &[(1, kind)]);
            let snap = m.snapshot();
            assert!(snap.aborted && *c.poisoned.lock(), "{policy:?}");
            assert_eq!(snap.stats.true_deadlocks, 1, "{policy:?}");
            assert_eq!(snap.generation, 3, "started, blocked, aborted: {policy:?}");
            m.tick();
            assert_eq!(m.stats().true_deadlocks, 1, "an aborted network is not judged again");
        }
    }

    #[test]
    fn verdict_table() {
        use BlockKind::{Read, Write};
        use Verdict::{Grow, Nothing, TrueDeadlock};
        const EXT: u64 = EXTERNAL_CHANNEL;
        let grow = DeadlockPolicy::default();
        let capped = |max| DeadlockPolicy::Grow {
            max_capacity: Some(max),
        };
        let abort = DeadlockPolicy::Abort;
        let empty = |cap| look(cap, 0, false);
        let full = |cap| look(cap, cap, true);
        let some = |cap| look(cap, 1, false);
        let eof = |cap| Look {
            write_closed: true,
            ..empty(cap)
        };
        let cut = |cap| Look {
            read_closed: true,
            ..full(cap)
        };
        // (policy, live processes, blocked (channel, kind, is a process),
        //  looks by channel id, expected)
        type Case = (
            DeadlockPolicy,
            usize,
            Vec<(u64, BlockKind, bool)>,
            Vec<(u64, Look)>,
            Verdict,
        );
        let cases: Vec<Case> = vec![
            // The scenarios of the tests above, as pictures.
            (grow, 2, vec![(1, Read, true), (1, Read, true)], vec![(1, empty(16))], TrueDeadlock),
            (grow, 2, vec![(1, Write, true), (2, Write, true)], vec![(1, full(8)), (2, full(64))], Grow(1)),
            (grow, 2, vec![(7, Write, true), (9, Read, true)], vec![(7, full(8)), (9, empty(8))], Grow(7)),
            (grow, 2, vec![(7, Write, true), (9, Read, true)], vec![(7, full(8))], Nothing),
            (grow, 2, vec![(EXT, Read, true), (7, Write, true)], vec![(7, full(8))], Grow(7)),
            (grow, 2, vec![(7, Write, true), (EXT, Write, true)], vec![(7, full(8))], Grow(7)),
            (capped(8), 1, vec![(1, Write, true)], vec![(1, full(8))], TrueDeadlock),
            (capped(8), 2, vec![(EXT, Read, true), (1, Write, true)], vec![(1, full(8))], Nothing),
            (grow, 1, vec![(1, Read, false)], vec![(1, empty(8))], Nothing),
            (DeadlockPolicy::Ignore, 1, vec![(1, Write, true)], vec![(1, full(8))], Nothing),
            // Policy boundaries.
            (abort, 2, vec![(1, Write, true), (2, Read, true)], vec![(1, full(8)), (2, empty(8))], TrueDeadlock),
            (abort, 2, vec![(EXT, Read, true), (1, Write, true)], vec![(1, full(8))], Nothing),
            (DeadlockPolicy::Ignore, 1, vec![(1, Read, true)], vec![(1, empty(8))], Nothing),
            (capped(16), 1, vec![(1, Write, true)], vec![(1, full(8))], Grow(1)),
            (capped(8), 2, vec![(1, Write, true), (2, Write, true)], vec![(1, full(8)), (2, full(64))], TrueDeadlock),
            (capped(64), 2, vec![(1, Write, true), (2, Write, true)], vec![(1, full(64)), (2, full(8))], Grow(2)),
            // Capacity ties break on the channel id.
            (grow, 2, vec![(9, Write, true), (7, Write, true)], vec![(9, full(8)), (7, full(8))], Grow(7)),
            // A registration its channel's look does not confirm: the task
            // is about to run, so nothing is decided.
            (grow, 1, vec![(1, Read, true)], vec![(1, eof(8))], Nothing),
            (grow, 1, vec![(1, Read, true)], vec![(1, some(8))], Nothing),
            (grow, 1, vec![(1, Write, true)], vec![(1, cut(8))], Nothing),
            (grow, 1, vec![(1, Write, true)], vec![(1, some(8))], Nothing),
            (abort, 1, vec![(1, Write, true)], vec![(1, cut(8))], Nothing),
            (grow, 2, vec![(1, Write, true), (2, Read, true)], vec![(1, full(8)), (2, eof(8))], Nothing),
            (grow, 2, vec![(1, Write, true), (2, Write, true)], vec![(1, full(8)), (2, cut(8))], Nothing),
            // A channel that has left the table confirms nothing.
            (grow, 1, vec![(1, Read, true)], vec![], Nothing),
            (abort, 1, vec![(1, Write, true)], vec![], Nothing),
            // External blocks alone: not the local monitor's to resolve.
            (grow, 2, vec![(EXT, Read, true), (EXT, Write, true)], vec![], Nothing),
            (abort, 1, vec![(EXT, Read, true)], vec![], Nothing),
            (grow, 2, vec![(EXT, Write, true), (1, Read, true)], vec![(1, empty(8))], Nothing),
            // Foreign threads are in the picture but not in the count.
            (grow, 1, vec![(1, Read, true), (2, Read, false)], vec![(1, empty(8)), (2, empty(8))], TrueDeadlock),
            (grow, 1, vec![(1, Read, true), (2, Read, false)], vec![(1, empty(8)), (2, some(8))], Nothing),
            (grow, 2, vec![(1, Read, true), (2, Read, false)], vec![(1, empty(8)), (2, empty(8))], Nothing),
            (grow, 0, vec![(1, Read, false)], vec![(1, empty(8))], Nothing),
            // Somebody is still running.
            (grow, 2, vec![(1, Write, true)], vec![(1, full(8))], Nothing),
        ];
        for (n, (policy, live, blocked, looks, expected)) in cases.into_iter().enumerate() {
            let mut st = MonState {
                live,
                ..Default::default()
            };
            for (token, (chan, kind, is_process)) in blocked.into_iter().enumerate() {
                st.blocked_processes += is_process as usize;
                st.blocked.insert(
                    token as u64,
                    BlockInfo {
                        kind,
                        chan,
                        is_process,
                    },
                );
            }
            let looks: HashMap<u64, Look> = looks.into_iter().collect();
            let look = |chan| looks.get(&chan).cloned();
            assert_eq!(verdict(&st, policy, look), expected, "case {n}");
            st.aborted = true;
            assert_eq!(verdict(&st, policy, look), Nothing, "case {n}, aborted");
        }
    }

    #[test]
    fn foreign_thread_does_not_trigger_alone() {
        let m = Monitor::new(DeadlockPolicy::default());
        // One live process that is NOT blocked...
        let m1 = m.clone();
        std::thread::spawn(move || {
            crate::exec::install_process_locals("live");
            m1.process_started();
        })
        .join()
        .unwrap();
        // ...and a foreign (non-process) thread that blocks.
        m.enter_block(BlockKind::Read, 1).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        assert!(!m.is_aborted());
        m.exit_block();
    }

    #[test]
    fn exit_block_clears_state() {
        let m = Monitor::new(DeadlockPolicy::Ignore);
        m.enter_block(BlockKind::Read, 1).unwrap();
        m.exit_block();
        let st = m.state.lock();
        assert!(st.blocked.is_empty());
        assert_eq!(st.blocked_processes, 0);
    }

    #[test]
    fn nested_registration_is_refused_and_leaves_the_count_intact() {
        // Checked in release builds too: a second `enter_block` by a task
        // that is already registered used to replace the entry and count
        // the task twice, and the two exits then took it out once.
        let m = Monitor::new(DeadlockPolicy::Ignore);
        std::thread::spawn(move || {
            crate::exec::install_process_locals("nested");
            m.process_started();
            m.enter_block(BlockKind::Read, EXTERNAL_CHANNEL).unwrap();
            assert!(matches!(
                m.enter_block(BlockKind::Write, 7),
                Err(Error::Graph(_))
            ));
            {
                let st = m.state.lock();
                assert_eq!(st.blocked_processes, 1);
                assert_eq!(st.blocked.values().next().unwrap().chan, EXTERNAL_CHANNEL);
            }
            m.exit_block();
            let st = m.state.lock();
            assert!(st.blocked.is_empty());
            assert_eq!(st.blocked_processes, 0);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn ignore_policy_never_acts() {
        let m = Monitor::new(DeadlockPolicy::Ignore);
        let c = FakeChan::new(8, true);
        m.register_channel(1, Arc::downgrade(&c) as Weak<dyn MonitoredChannel>);
        let m2 = m.clone();
        std::thread::spawn(move || {
            crate::exec::install_process_locals("writer");
            m2.process_started();
            m2.enter_block(BlockKind::Write, 1).unwrap();
        })
        .join()
        .unwrap();
        std::thread::sleep(Duration::from_millis(10));
        assert!(!m.is_aborted());
        assert_eq!(*c.cap.lock(), 8);
    }
}
