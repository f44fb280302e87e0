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
//! blocked set and the looks). Every input is logical state, never time: a
//! registration counts only while its task is parked and not yet woken (the
//! channel's own waiting flag for that side, in the look), and a verdict is
//! acted on only if a second evaluation, straight after the first, reaches
//! it at the same generation with every channel's progress unchanged.
//!
//! Detection is event-driven: the last task to block evaluates, a woken
//! task whose wait goes on evaluates again (`Monitor::recount`), and a
//! process that exits does. A local wait keeps no clock: those events
//! evaluate every picture it can complete. The monitor needs time only
//! where it cannot look, which is a socket: a remote wait
//! ([`Monitor::external_block`]) completes a picture but does not decide
//! it, and re-runs detection once per [`MONITOR_TICK`] it lasts
//! ([`Monitor::tick`], called by the wait itself, fiber or thread). A
//! picture with nothing to grow and a remote wait in it is the monitor's
//! to report, not to act on: [`Monitor::snapshot`] says the network is
//! stuck on remote waits, and the cluster probe (`kpn-net`) decides.
//!
//! Lock order: the monitor's state lock before a channel's, never the
//! reverse. A strong channel handle upgraded from the table is never
//! dropped under the state lock — it may have become the last one, and
//! the channel's drop re-enters the monitor to leave the table.

use crate::error::{Error, Result};
use crate::exec::WordMap;
use crate::topology::{EndpointShape, SideState};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// The monitor's one period: how often a remote wait — the one kind of
/// wait it cannot look into — re-runs detection ([`Monitor::tick`]) for as
/// long as it lasts. It sets how soon a picture completed by a remote
/// registration is acted on, never what is decided.
pub const MONITOR_TICK: Duration = Duration::from_millis(20);

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
    /// Bytes currently buffered; at `stats.capacity` writers must block.
    pub(crate) buffered: usize,
    /// The write end has been closed: the reader is about to see EOF.
    pub(crate) write_closed: bool,
    /// The read end has been closed: the writer is about to fail.
    pub(crate) read_closed: bool,
    /// The reader has committed to wait on the empty buffer and nothing
    /// has woken it since: set under the channel's lock before it parks,
    /// cleared by the write that wakes it.
    pub(crate) reader_waiting: bool,
    /// The same for the writer, on a full buffer: cleared by the read or
    /// the growth that wakes it.
    pub(crate) writer_waiting: bool,
    /// Lint metadata of the write side.
    pub(crate) writer: EndpointShape,
    /// Lint metadata of the read side.
    pub(crate) reader: EndpointShape,
    /// The task that declared, or last used, a side declared
    /// [`SideState::External`] (0 while neither is).
    pub(crate) external_user: u64,
}

impl Look {
    /// Whether a task registered as blocked on this channel is waiting on
    /// it: a reader needs it empty with its writer open, a writer needs it
    /// full with its reader open, and either must be parked and not woken
    /// since — a task that was woken and has not run yet is not blocked,
    /// whatever the buffer says. When the other side is driven from outside
    /// the network (`External`), its owner is not a process the monitor
    /// counts, so the wait is only confirmed while that owner is itself
    /// `registered` as blocked; between its calls it is about to make the
    /// move this task waits for.
    fn confirms(&self, kind: BlockKind, registered: impl Fn(u64) -> bool) -> bool {
        let (waits, peer) = match kind {
            BlockKind::Read => (
                self.reader_waiting && self.buffered == 0 && !self.write_closed,
                &self.writer,
            ),
            BlockKind::Write => (
                self.writer_waiting && self.buffered == self.stats.capacity && !self.read_closed,
                &self.reader,
            ),
        };
        waits && (peer.state != SideState::External || registered(self.external_user))
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
    /// Artificial deadlocks the runtime monitor resolved after start by
    /// growing a channel — the observable cost of Parks' detect-and-grow
    /// loop. Statically
    /// synthesized capacities applied before start
    /// (`NetworkConfig::synthesize_capacities`) do not count, so a static
    /// region whose synthesized sizes hold reports `capacity_grows == 0`.
    pub capacity_grows: u64,
    /// Number of true deadlocks detected.
    pub true_deadlocks: u64,
    /// Pictures detection took: first looks at the blocked set's channels,
    /// each after the all-blocked check passed.
    pub evaluations: u64,
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
/// probe (§6.2): a network [`stuck_on_remote`](Self::stuck_on_remote) is a
/// candidate participant in a cross-machine deadlock that no local monitor
/// can prove alone.
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
    /// The monitor's own verdict, from two back-to-back evaluations that
    /// agree: every live process is blocked, every wait on a local channel
    /// is confirmed, nothing can grow, and some wait is on a remote
    /// transport. Only data from another node can move this network.
    pub stuck_on_remote: bool,
    /// Resolution counters.
    pub stats: MonitorStats,
}

/// Sentinel channel id for blocks on channels the monitor cannot inspect
/// (remote transports). Such a block is registered only where the transport
/// actually waits, counts toward the all-blocked condition, and has no look
/// to confirm or refute it. It may *permit growth* — a full local channel
/// behind a socket is grown — once a second detection tick finds it still
/// there, and never *permits abort*: with an external block in the picture
/// no verdict is a true deadlock, capped growth included, since data may be
/// in flight on the network. The verdict is then that the network is stuck
/// on remote waits, which the cluster probe (§6.2) judges from stream
/// offsets.
pub const EXTERNAL_CHANNEL: u64 = 0;

#[derive(Debug, Clone, Copy)]
struct BlockInfo {
    kind: BlockKind,
    chan: u64,
    is_process: bool,
    /// The detection tick count when it registered: a tick has seen it once
    /// the count has moved past. An external registration counts only from
    /// then on (see [`Monitor::tick`]).
    tick: u64,
}

#[derive(Default)]
struct MonState {
    /// Live process threads in the network (running or blocked).
    live: usize,
    /// All tasks currently blocked on a monitored channel, keyed by task
    /// token — not OS thread: a pooled worker runs many tasks, and a task
    /// may migrate between workers between its enter/exit pair. Includes
    /// foreign threads (e.g. a test's main thread draining the output),
    /// which participate in deadlock but not in the live count. Tokens
    /// come from `exec::next_id`, so the map hashes them with the word
    /// hasher: every local wait inserts here and every wake removes.
    blocked: WordMap<u64, BlockInfo>,
    /// Number of blocked entries with `is_process == true`.
    blocked_processes: usize,
    /// Detection ticks run so far.
    ticks: u64,
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
    /// True when every live process is blocked and not woken since, given
    /// [`Monitor::woken`] (candidate deadlock): the one all-blocked trigger,
    /// for detection's pre-check and [`verdict`] alike.
    fn all_blocked(&self, woken: usize) -> bool {
        !self.aborted && self.live > 0 && self.blocked_processes.saturating_sub(woken) >= self.live
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
    /// Stuck on remote waits: nothing to grow, and an external block
    /// forbids the abort. The monitor does nothing; its snapshot reports
    /// it, and the cluster probe decides from stream offsets.
    Remote,
}

impl Verdict {
    /// Whether the monitor acts on this verdict itself.
    fn acts(self) -> bool {
        matches!(self, Verdict::Grow(_) | Verdict::TrueDeadlock)
    }
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
/// nothing to grow the deadlock is true, or [`Verdict::Remote`] beside a
/// block on [`EXTERNAL_CHANNEL`]. An external block no tick has seen yet
/// holds back a growth (its socket may have been unready for an instant),
/// never that outcome.
fn verdict(
    st: &MonState,
    woken: usize,
    policy: DeadlockPolicy,
    mut look: impl FnMut(u64) -> Option<Look>,
) -> Verdict {
    if policy == DeadlockPolicy::Ignore || !st.all_blocked(woken) {
        return Verdict::Nothing;
    }
    let registered = |token| st.blocked.contains_key(&token);
    let (mut external, mut fresh) = (false, false);
    let mut smallest: Option<(usize, u64)> = None;
    for b in st.blocked.values() {
        if b.chan == EXTERNAL_CHANNEL {
            external = true;
            fresh |= b.tick == st.ticks;
            continue;
        }
        match look(b.chan) {
            Some(look) if look.confirms(b.kind, registered) => {
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
            if fresh {
                Verdict::Nothing
            } else {
                Verdict::Grow(id)
            }
        }
        _ if external => Verdict::Remote,
        _ => Verdict::TrueDeadlock,
    }
}

/// One evaluation: the verdict, the generation it was reached at, and the
/// progress (counters, occupancy) of every channel it looked at, in the
/// order it looked. Two are equal when nothing registered, left or moved a
/// byte between them.
#[derive(Debug, PartialEq)]
struct Picture {
    verdict: Verdict,
    generation: u64,
    progress: Vec<(u64, ChannelIoStats, usize)>,
}

impl Picture {
    /// [`verdict`] over `st`, recording what each look saw.
    fn of(
        st: &MonState,
        woken: usize,
        policy: DeadlockPolicy,
        mut look: impl FnMut(u64) -> Option<Look>,
    ) -> Self {
        let mut progress = Vec::new();
        let verdict = verdict(st, woken, policy, |chan| {
            let l = look(chan)?;
            progress.push((chan, l.stats.clone(), l.buffered));
            Some(l)
        });
        Picture {
            verdict,
            generation: st.generation,
            progress,
        }
    }
}

/// The per-network deadlock monitor. One instance is shared by every channel
/// and process thread created through a [`crate::Network`].
pub struct Monitor {
    state: Mutex<MonState>,
    /// Processes whose wake has been issued and who have not come back: the
    /// all-blocked trigger leaves them out. Raised under a channel's lock (a
    /// growth holds the state lock too, hence atomic), lowered under ours.
    woken: AtomicUsize,
    policy: DeadlockPolicy,
    /// Whether [`Monitor::trace`] prints
    /// ([`crate::NetworkConfig::monitor_debug`]).
    debug: bool,
    /// Callbacks run when the network aborts, *after* local channels are
    /// poisoned. Used by the distributed layer to interrupt threads
    /// blocked on transports the monitor cannot poison (TCP reads,
    /// pending connections).
    abort_hooks: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
    /// Pulls scheduler counters from the network's executor for
    /// [`Monitor::stats`]/[`Monitor::snapshot`]. A closure over a weak
    /// executor handle rather than an `Arc<dyn Exec>`: a monitor must not
    /// keep its network's executor alive.
    scheduler_source: Mutex<Option<SchedulerSource>>,
}

/// Closure pulling a [`SchedulerStats`](crate::exec::SchedulerStats)
/// snapshot from the owning network's executor.
type SchedulerSource = Box<dyn Fn() -> Option<crate::exec::SchedulerStats> + Send + Sync>;

impl Monitor {
    /// Creates a monitor with the given policy.
    pub fn new(policy: DeadlockPolicy) -> Arc<Self> {
        Self::build(policy, false)
    }

    /// A monitor with the policy and stderr trace switch a network carries
    /// in from its configuration.
    pub(crate) fn build(policy: DeadlockPolicy, debug: bool) -> Arc<Self> {
        Arc::new(Monitor {
            state: Mutex::new(MonState::default()),
            woken: AtomicUsize::new(0),
            policy,
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
        // the executor's own locks.
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

    /// A point-in-time view for the distributed deadlock probe. Whether the
    /// network is stuck on remote waits is decided the way the monitor
    /// decides to act: two evaluations, back to back, that agree.
    pub fn snapshot(&self) -> MonitorSnapshot {
        let st = self.state.lock();
        let processes = |kind| {
            let blocked = st.blocked.values();
            blocked.filter(|b| b.is_process && b.kind == kind).count()
        };
        let mut snap = MonitorSnapshot {
            generation: st.generation,
            live: st.live,
            blocked_reads: processes(BlockKind::Read),
            blocked_writes: processes(BlockKind::Write),
            aborted: st.aborted,
            stuck_on_remote: false,
            stats: st.stats.clone(),
        };
        // Either way the state lock is released here: the scheduler source
        // takes executor locks; see stats().
        let woken = self.woken.load(Ordering::Relaxed);
        let first = st.all_blocked(woken).then(|| self.evaluate(st).0);
        snap.stuck_on_remote = first.is_some_and(|first| {
            first.verdict == Verdict::Remote && self.evaluate(self.state.lock()).0 == first
        });
        snap.stats.scheduler = self.scheduler_stats();
        snap
    }

    /// Registers the current task as blocked on a channel the monitor
    /// cannot inspect (a remote transport). The block participates in
    /// all-blocked detection and snapshots, but never satisfies the
    /// true-deadlock verification — remote data may be in flight, so only
    /// a distributed protocol may abort (§6.2). Register only around the
    /// wait itself: `kpn-net`'s transports do so where a socket has said it
    /// is not ready, with the monitor the network hands each of its tasks
    /// ([`crate::exec::current_monitor`]). The registration does not
    /// evaluate the picture it completes: the wait ticks the monitor once
    /// per [`MONITOR_TICK`] it lasts, whether it waits as a fiber or a thread,
    /// and the registration counts only from the second tick that finds it
    /// (see `enter_block` and `tick`).
    ///
    /// The task's buffered output is published first
    /// ([`crate::flush::flush_before_block`]): whoever registers is about to
    /// wait, and the publish can itself block on a full local channel, which
    /// must not happen while this registration is held (a task registers as
    /// blocked once).
    pub fn external_block(self: &Arc<Self>, kind: BlockKind) -> Result<BlockGuard> {
        crate::flush::flush_before_block();
        BlockGuard::enter(self, kind, EXTERNAL_CHANNEL)
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
        self.resolve(st);
    }

    /// Registers the calling task — `token`, a process if `is_process`
    /// ([`crate::exec::task_identity`], read once by the wait) — as blocked
    /// and runs deadlock detection.
    /// Returns `Err(Deadlocked)` if the network is already aborted, and
    /// `Err(Graph)` — leaving the existing registration alone — if the task
    /// is registered already: a nested registration would count the task
    /// as two blocked processes and, after the inner exit, as one forever,
    /// which the monitor would eventually read as a deadlock with a
    /// process still running.
    pub(crate) fn enter_block(
        &self,
        kind: BlockKind,
        chan: u64,
        token: u64,
        is_process: bool,
    ) -> Result<()> {
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
        let tick = st.ticks;
        st.blocked.insert(
            token,
            BlockInfo {
                kind,
                chan,
                is_process,
                tick,
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
        // An external registrant does not act on the picture it completes:
        // a socket that is not ready this instant may be ready the next,
        // and no look can tell. If the wait lasts, its own ticks find the
        // same picture with this task's registration unchanged.
        if chan != EXTERNAL_CHANNEL {
            self.resolve(st);
        }
        Ok(())
    }

    /// The write or the room that satisfies a process's wait has issued its
    /// wake, under the channel's lock: the registration, made or about to
    /// be, stops counting. Close, poison and remote wakes do not call this.
    pub(crate) fn uncount(&self) {
        self.woken.fetch_add(1, Ordering::Relaxed);
    }

    /// Hands back the count a wake took from a process that must wait on
    /// (or whose registration was then refused), and runs detection, which
    /// the last other process to block may have skipped meanwhile.
    pub(crate) fn recount(&self) {
        let mut st = self.state.lock();
        self.woken.fetch_sub(1, Ordering::Relaxed);
        st.generation += 1;
        self.trace(|| format!("recount gen={}", st.generation));
        self.resolve(st);
    }

    /// Re-runs detection for a remote wait that has lasted a period
    /// ([`MONITOR_TICK`]): `kpn-net` calls it from a process's socket wait,
    /// which bounds each park or `poll` at the next period whether it waits
    /// as a pooled fiber or as an OS thread. No executor ticks it. Nothing
    /// registers or leaves, so this does not bump the generation and cannot
    /// unsettle a concurrent evaluation. Then counts the tick, which marks
    /// every registration so far as seen by one: an external one counts
    /// from the next tick on, so a socket that was not ready at one instant
    /// is only taken for a wait once it has stayed so for a period — a
    /// count of ticks, not a sleep.
    pub fn tick(&self) {
        self.resolve(self.state.lock());
        self.state.lock().ticks += 1;
    }

    /// When a local wait re-runs detection: never, since an event
    /// evaluates every picture it can complete — except off Linux x86_64
    /// and under Miri, where a remote operation registers for its whole
    /// length and cannot tick for itself. There a local wait parks until
    /// one period from now, and ticks if that passes.
    pub(crate) fn local_deadline(&self) -> Option<Instant> {
        let untimed = cfg!(all(target_os = "linux", target_arch = "x86_64", not(miri)));
        (!untimed).then(|| Instant::now() + MONITOR_TICK)
    }

    /// Unregisters the task `token`, taking back the count a wake took
    /// from its registration if `woken`.
    pub(crate) fn exit_block(&self, token: u64, woken: bool) {
        let mut st = self.state.lock();
        if woken {
            self.woken.fetch_sub(1, Ordering::Relaxed);
        }
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

    /// One evaluation: under the state lock `st`, decide from a look at the
    /// channels the blocked set names. Returns the picture and the handles
    /// the looks were taken through — out of the lock, like every [`Held`].
    fn evaluate(&self, st: parking_lot::MutexGuard<'_, MonState>) -> (Picture, Held) {
        let mut held = Held::new();
        let picture = Picture::of(&st, self.woken.load(Ordering::Relaxed), self.policy, |chan| {
            let ch = st.channels.get(&chan)?.upgrade()?;
            let look = ch.look();
            held.push((chan, ch));
            Some(look)
        });
        if picture.verdict.acts() {
            self.trace(|| {
                format!(
                    "verdict {:?} live={} gen={} blocked={:?} progress={:?}",
                    picture.verdict, st.live, st.generation, st.blocked, picture.progress
                )
            });
        }
        (picture, held)
    }

    /// Evaluates twice, back to back — first under `st`, the state lock the
    /// caller holds and no other lock — and acts only if the two pictures
    /// are equal. The looks of one evaluation are taken one channel at a
    /// time; a second set identical to the first shows that nothing moved
    /// while either was taken, so together they are one consistent picture.
    fn resolve(&self, mut st: parking_lot::MutexGuard<'_, MonState>) {
        // Checked before any evaluation, which would otherwise put its
        // frames on every blocking task's stack: a pooled fiber keeps each
        // stack page it has touched.
        if !st.all_blocked(self.woken.load(Ordering::Relaxed)) {
            return;
        }
        st.stats.evaluations += 1;
        // A picture that allows no action is not worth the second look.
        let (first, _) = self.evaluate(st);
        if !first.verdict.acts() {
            return;
        }
        let (then, held) = self.evaluate(self.state.lock());
        if then != first {
            return;
        }
        match (then.verdict, self.policy) {
            (Verdict::TrueDeadlock, _) => self.abort_at(Some(then.generation)),
            (Verdict::Grow(id), DeadlockPolicy::Grow { max_capacity }) => {
                // Like an abort, carried out only if nothing has registered
                // or left since, and under the state lock (it comes before a
                // channel's), so that two evaluators cannot both grow on one
                // picture and the log keeps the order growths happened in.
                let mut st = self.state.lock();
                if st.generation != then.generation {
                    return;
                }
                let grown = held
                    .iter()
                    .find(|(held_id, _)| *held_id == id)
                    .and_then(|(_, ch)| ch.grow_if_full(max_capacity));
                // `None`: the channel drained between the look and the
                // action. If everyone is still blocked a later tick retries.
                if let Some((old, new)) = grown {
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

/// A task's registration as blocked — on a local channel, or on a remote
/// transport ([`Monitor::external_block`]). Dropping it unregisters the
/// task.
pub struct BlockGuard {
    monitor: Arc<Monitor>,
    token: u64,
}

impl BlockGuard {
    pub(crate) fn enter(monitor: &Arc<Monitor>, kind: BlockKind, chan: u64) -> Result<Self> {
        let (token, is_process) = crate::exec::task_identity();
        monitor.enter_block(kind, chan, token, is_process)?;
        Ok(BlockGuard {
            monitor: monitor.clone(),
            token,
        })
    }
}

impl Drop for BlockGuard {
    fn drop(&mut self) {
        // No wake counts a remote wait down (`Monitor::uncount`).
        self.monitor.exit_block(self.token, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    impl Monitor {
        /// Registers the calling thread, as a channel wait registers it.
        fn enter(&self, kind: BlockKind, chan: u64) -> Result<()> {
            let (token, is_process) = crate::exec::task_identity();
            self.enter_block(kind, chan, token, is_process)
        }

        /// Unregisters the calling thread, not woken.
        fn exit(&self) {
            self.exit_block(crate::exec::task_token(), false);
        }
    }

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

    /// A look at an open channel with nothing declared about its sides,
    /// whose registered tasks (if any) are parked and not woken.
    fn look(capacity: usize, buffered: usize) -> Look {
        Look {
            stats: ChannelIoStats {
                capacity,
                ..Default::default()
            },
            buffered,
            write_closed: false,
            read_closed: false,
            reader_waiting: true,
            writer_waiting: true,
            writer: EndpointShape::open(),
            reader: EndpointShape::open(),
            external_user: 0,
        }
    }

    impl MonitoredChannel for FakeChan {
        fn look(&self) -> Look {
            let cap = *self.cap.lock();
            look(cap, if *self.full.lock() { cap } else { 0 })
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
            m.enter(BlockKind::Read, 1),
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
            block_one(m, chan, kind);
        }
    }

    /// Blocks one process thread of an already started process, for good.
    fn block_one(m: &Arc<Monitor>, chan: u64, kind: BlockKind) {
        let m = m.clone();
        std::thread::spawn(move || {
            crate::exec::install_process_locals("blocked");
            let _ = m.enter(kind, chan);
        })
        .join()
        .unwrap();
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
        assert_eq!(m.stats().capacity_grows, 1);
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
        assert_eq!(m.stats().capacity_grows, 1);
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
        assert_eq!(m.stats().capacity_grows, 0, "in-flight cascade must veto growth");
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
        m.tick();
        m.tick();
        assert!(!m.is_aborted());
        assert_eq!(m.stats().capacity_grows, 1);
    }

    #[test]
    fn external_registrant_leaves_detection_to_its_own_ticks() {
        // The external registrant completes the all-blocked picture, but its
        // socket may be ready an instant later and no look can tell. The
        // remote wait re-runs detection once per period it lasts, and acts
        // once a second tick finds the same registration.
        let m = Monitor::new(DeadlockPolicy::default());
        let c = FakeChan::new(8, true);
        m.register_channel(7, Arc::downgrade(&c) as Weak<dyn MonitoredChannel>);
        block_all(&m, &[(7, BlockKind::Write), (EXTERNAL_CHANNEL, BlockKind::Write)]);
        assert_eq!(m.stats().capacity_grows, 0, "the registrant must not decide for itself");
        m.tick();
        assert_eq!(m.stats().capacity_grows, 0, "one tick has seen the wait for an instant");
        m.tick();
        assert!(!m.is_aborted());
        assert_eq!(m.stats().capacity_grows, 1, "a picture that lasts is still resolved");
    }

    #[test]
    fn a_woken_wait_that_goes_on_counts_again_and_completes_the_picture() {
        // The writer's wake is issued, so the reader's registration, the
        // last of the two, takes no picture. The writer is back with its
        // channel still full: it counts itself again, and the artificial
        // deadlock it completes is grown — or, under `Abort`, declared.
        for (policy, grows, true_deadlocks) in
            [(DeadlockPolicy::default(), 1, 0), (DeadlockPolicy::Abort, 0, 1)]
        {
            let m = Monitor::new(policy);
            let full = FakeChan::new(8, true);
            let empty = FakeChan::new(8, false);
            m.register_channel(1, Arc::downgrade(&full) as Weak<dyn MonitoredChannel>);
            m.register_channel(2, Arc::downgrade(&empty) as Weak<dyn MonitoredChannel>);
            m.process_started();
            m.process_started();
            block_one(&m, 1, BlockKind::Write);
            m.uncount();
            block_one(&m, 2, BlockKind::Read);
            let before = m.stats();
            assert_eq!((before.evaluations, before.capacity_grows), (0, 0), "{policy:?}");
            m.recount();
            let stats = m.stats();
            assert_eq!(stats.capacity_grows, grows, "{policy:?}");
            assert_eq!(stats.true_deadlocks, true_deadlocks, "{policy:?}");
            assert_eq!(m.is_aborted(), true_deadlocks == 1, "{policy:?}");
            assert_eq!(stats.evaluations, 1, "{policy:?}");
        }
    }

    #[test]
    fn every_wake_the_monitor_is_told_of_is_taken_back() {
        // One byte at a time through a one-byte channel, between two
        // processes: nearly every wait ends on a wake issued by the other
        // side, which un-counts it. None of them may leave the count off.
        let m = Monitor::new(DeadlockPolicy::default());
        let (mut w, mut r) = crate::channel::channel_with(1, Some(m.clone()));
        m.process_started();
        m.process_started();
        const N: usize = 20_000;
        let writer = std::thread::spawn(move || {
            crate::exec::install_process_locals("writer");
            for i in 0..N {
                w.write_all(&[i as u8]).unwrap();
            }
        });
        crate::exec::install_process_locals("reader");
        let mut byte = [0];
        for i in 0..N {
            r.read_exact(&mut byte).unwrap();
            assert_eq!(byte[0], i as u8);
        }
        writer.join().unwrap();
        assert_eq!(m.woken.load(Ordering::Relaxed), 0);
        let st = m.state.lock();
        assert_eq!((st.blocked.len(), st.stats.capacity_grows), (0, 0));
        // A wait the other side has just satisfied takes no picture; only
        // a registration racing a woken task's way out of its wait does.
        assert!(st.stats.evaluations < (N / 100) as u64, "{}", st.stats.evaluations);
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
    fn snapshot_reports_a_network_stuck_on_remote_waits() {
        use BlockKind::{Read, Write};
        // Every process waits on a socket and no tick has run: the monitor
        // does nothing, and its snapshot says so.
        let m = Monitor::new(DeadlockPolicy::default());
        block_all(&m, &[(EXTERNAL_CHANNEL, Read), (EXTERNAL_CHANNEL, Write)]);
        let snap = m.snapshot();
        assert!(snap.stuck_on_remote && !snap.aborted);
        // A full local channel that may still grow is not stuck, before the
        // ticks that grow it or after.
        let m = Monitor::new(DeadlockPolicy::default());
        let c = FakeChan::new(8, true);
        m.register_channel(7, Arc::downgrade(&c) as Weak<dyn MonitoredChannel>);
        block_all(&m, &[(7, Write), (EXTERNAL_CHANNEL, Read)]);
        assert!(!m.snapshot().stuck_on_remote);
        m.tick();
        m.tick();
        assert_eq!(m.stats().capacity_grows, 1);
        assert!(!m.snapshot().stuck_on_remote);
        // Nor is a network with a process still running.
        let m = Monitor::new(DeadlockPolicy::default());
        m.process_started();
        block_all(&m, &[(EXTERNAL_CHANNEL, Read)]);
        assert!(!m.snapshot().stuck_on_remote);
    }

    #[test]
    fn verdict_table() {
        use BlockKind::{Read, Write};
        use Verdict::{Grow, Nothing, Remote, TrueDeadlock};
        const EXT: u64 = EXTERNAL_CHANNEL;
        // An external registration no tick has seen yet; one at `EXT` has
        // been seen by one.
        const EXT_FRESH: u64 = u64::MAX;
        let grow = DeadlockPolicy::default();
        let capped = |max| DeadlockPolicy::Grow {
            max_capacity: Some(max),
        };
        let abort = DeadlockPolicy::Abort;
        let empty = |cap| look(cap, 0);
        let full = |cap| look(cap, cap);
        let some = |cap| look(cap, 1);
        let eof = |cap| Look {
            write_closed: true,
            ..empty(cap)
        };
        let cut = |cap| Look {
            read_closed: true,
            ..full(cap)
        };
        // Woken, and not run yet: the buffer still says "wait".
        let woken_reader = |cap| Look {
            reader_waiting: false,
            ..empty(cap)
        };
        let woken_writer = |cap| Look {
            writer_waiting: false,
            ..full(cap)
        };
        // Written or drained from outside the network, by the task with
        // this token (blocked entries are tokens 0, 1, … in order).
        let external = || EndpointShape {
            state: SideState::External,
            ..EndpointShape::open()
        };
        let fed = |cap, user| Look {
            writer: external(),
            external_user: user,
            ..empty(cap)
        };
        let drained = |cap, user| Look {
            reader: external(),
            external_user: user,
            ..full(cap)
        };
        // The same look after a byte went through.
        let moved = |l: Look| Look {
            stats: ChannelIoStats {
                bytes_written: l.stats.bytes_written + 1,
                ..l.stats.clone()
            },
            ..l
        };
        // (policy, live processes, blocked (channel, kind, is a process),
        //  looks by channel id, expected). A channel listed twice looks the
        //  second way to the second of the two back-to-back evaluations.
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
            (capped(8), 2, vec![(EXT, Read, true), (1, Write, true)], vec![(1, full(8))], Remote),
            (grow, 1, vec![(1, Read, false)], vec![(1, empty(8))], Nothing),
            (DeadlockPolicy::Ignore, 1, vec![(1, Write, true)], vec![(1, full(8))], Nothing),
            // Policy boundaries.
            (abort, 2, vec![(1, Write, true), (2, Read, true)], vec![(1, full(8)), (2, empty(8))], TrueDeadlock),
            (abort, 2, vec![(EXT, Read, true), (1, Write, true)], vec![(1, full(8))], Remote),
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
            // An external block permits a growth from the second tick that
            // finds it; before that it still makes the network stuck on
            // remote waits when nothing could grow anyway.
            (grow, 2, vec![(EXT_FRESH, Read, true), (7, Write, true)], vec![(7, full(8))], Nothing),
            (grow, 2, vec![(7, Write, true), (EXT_FRESH, Write, true)], vec![(7, full(8))], Nothing),
            (grow, 1, vec![(EXT_FRESH, Read, true)], vec![], Remote),
            (grow, 2, vec![(EXT_FRESH, Read, true), (1, Read, true)], vec![(1, empty(8))], Remote),
            (capped(8), 2, vec![(EXT_FRESH, Read, true), (1, Write, true)], vec![(1, full(8))], Remote),
            (grow, 2, vec![(EXT_FRESH, Read, true), (1, Read, true)], vec![(1, some(8))], Nothing),
            // External blocks alone: not the local monitor's to resolve.
            (grow, 2, vec![(EXT, Read, true), (EXT, Write, true)], vec![], Remote),
            (abort, 1, vec![(EXT, Read, true)], vec![], Remote),
            (grow, 2, vec![(EXT, Write, true), (1, Read, true)], vec![(1, empty(8))], Remote),
            (grow, 2, vec![(EXT, Read, true)], vec![], Nothing),
            (DeadlockPolicy::Ignore, 1, vec![(EXT, Read, true)], vec![], Nothing),
            // Foreign threads are in the picture but not in the count.
            (grow, 1, vec![(1, Read, true), (2, Read, false)], vec![(1, empty(8)), (2, empty(8))], TrueDeadlock),
            (grow, 1, vec![(1, Read, true), (2, Read, false)], vec![(1, empty(8)), (2, some(8))], Nothing),
            (grow, 2, vec![(1, Read, true), (2, Read, false)], vec![(1, empty(8)), (2, empty(8))], Nothing),
            (grow, 0, vec![(1, Read, false)], vec![(1, empty(8))], Nothing),
            // Somebody is still running.
            (grow, 2, vec![(1, Write, true)], vec![(1, full(8))], Nothing),
            // Registered, then woken: about to run, whatever the buffer says.
            (grow, 1, vec![(1, Read, true)], vec![(1, woken_reader(8))], Nothing),
            (grow, 1, vec![(1, Write, true)], vec![(1, woken_writer(8))], Nothing),
            (grow, 2, vec![(1, Write, true), (2, Write, true)], vec![(1, woken_writer(8)), (2, full(64))], Nothing),
            // The far side is driven from outside: its owner must be blocked
            // too, or it is about to make the move this wait is for.
            (grow, 1, vec![(1, Read, true)], vec![(1, fed(8, 5))], Nothing),
            (grow, 1, vec![(1, Read, true), (2, Read, false)], vec![(1, fed(8, 1)), (2, empty(8))], TrueDeadlock),
            (grow, 1, vec![(1, Write, true)], vec![(1, drained(8, 5))], Nothing),
            (grow, 1, vec![(1, Write, true), (2, Read, false)], vec![(1, drained(8, 1)), (2, empty(8))], Grow(1)),
            // Progress between the two evaluations: no action.
            (grow, 2, vec![(1, Write, true), (2, Write, true)], vec![(1, full(8)), (2, full(64)), (2, moved(full(64)))], Nothing),
            (grow, 1, vec![(1, Read, true)], vec![(1, empty(8)), (1, moved(empty(8)))], Nothing),
        ];
        for (n, (policy, live, blocked, looks, expected)) in cases.into_iter().enumerate() {
            let mut st = MonState {
                live,
                ticks: 1,
                ..Default::default()
            };
            for (token, (chan, kind, is_process)) in blocked.into_iter().enumerate() {
                st.blocked_processes += is_process as usize;
                let (chan, tick) = match chan {
                    EXT_FRESH => (EXT, 1),
                    chan => (chan, 0),
                };
                st.blocked.insert(
                    token as u64,
                    BlockInfo {
                        kind,
                        chan,
                        is_process,
                        tick,
                    },
                );
            }
            let (mut first, mut then) = (HashMap::new(), HashMap::new());
            for (chan, look) in looks {
                first.entry(chan).or_insert_with(|| look.clone());
                then.insert(chan, look);
            }
            // What `resolve` acts on, with `woken` wakes issued to
            // registered processes; `registrations` happen between the two
            // looks.
            let decide = |st: &MonState, woken, registrations| {
                let first = Picture::of(st, woken, policy, |chan| first.get(&chan).cloned());
                let mut then = Picture::of(st, woken, policy, |chan| then.get(&chan).cloned());
                then.generation += registrations;
                if then == first {
                    then.verdict
                } else {
                    Nothing
                }
            };
            assert_eq!(decide(&st, 0, 0), expected, "case {n}");
            assert_eq!(decide(&st, 0, 1), Nothing, "case {n}, registered between");
            assert_eq!(decide(&st, 1, 0), Nothing, "case {n}, a wake issued");
            st.aborted = true;
            assert_eq!(decide(&st, 0, 0), Nothing, "case {n}, aborted");
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
        m.enter(BlockKind::Read, 1).unwrap();
        assert!(!m.is_aborted());
        m.exit();
    }

    #[test]
    fn exit_block_clears_state() {
        let m = Monitor::new(DeadlockPolicy::Ignore);
        m.enter(BlockKind::Read, 1).unwrap();
        m.exit();
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
            m.enter(BlockKind::Read, EXTERNAL_CHANNEL).unwrap();
            assert!(matches!(m.enter(BlockKind::Write, 7), Err(Error::Graph(_))));
            {
                let st = m.state.lock();
                assert_eq!(st.blocked_processes, 1);
                assert_eq!(st.blocked.values().next().unwrap().chan, EXTERNAL_CHANNEL);
            }
            m.exit();
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
            m2.enter(BlockKind::Write, 1).unwrap();
        })
        .join()
        .unwrap();
        assert!(!m.is_aborted());
        assert_eq!(*c.cap.lock(), 8);
    }
}
