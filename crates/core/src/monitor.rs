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
//! count, the remote waits and the looks). A wait on a local channel is
//! recorded on its side, under that channel's lock, and counted in one
//! atomic word (`Word`): its look says who waits on what, and the count
//! says whether every live process does. Every input is logical state,
//! never time: a wait counts only while its task is parked and not yet
//! woken (the channel's own waiting flag for that side, in the look), and a
//! verdict is acted on only if a second evaluation, straight after the
//! first, reaches it with the count word and every channel's progress
//! unchanged.
//!
//! Detection is event-driven: the count is changed by read-modify-writes of
//! one word, and the one that completes the all-blocked condition sees it
//! complete and evaluates — the last task to block, a process that exits. A
//! woken wait never goes on: its wake made its predicate false, and only it
//! could make it true again. No other local wait takes the monitor's
//! lock, and a local wait keeps no clock: those events evaluate every
//! picture it can complete. The monitor needs time only where it cannot
//! look, which is a socket: a remote wait ([`Monitor::external_block`],
//! kept in `MonState::blocked`) completes a picture but does not decide it,
//! and re-runs detection once per [`MONITOR_TICK`] it lasts
//! ([`Monitor::tick`], called by the wait itself, fiber or thread). A
//! picture with nothing to grow and a remote wait in it is the monitor's
//! to report, not to act on: [`Monitor::snapshot`] says the network is
//! stuck on remote waits, and the cluster probe (`kpn-net`) decides.
//!
//! Lock order: the monitor's state lock before a channel's, never the
//! reverse; a local wait that completes the picture releases its channel's
//! lock before it evaluates. A strong channel handle upgraded from the
//! table is never dropped under the state lock — it may have become the
//! last one, and the channel's drop re-enters the monitor to leave the
//! table.

use crate::error::{Error, Result};
use crate::exec::{TaskLocals, WordMap};
use crate::topology::{EndpointShape, SideState};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// A task registered as waiting on one side of a local channel, recorded
/// on the side under the channel's lock from its registration until it
/// leaves the wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Registration {
    /// The task's token.
    pub(crate) token: u64,
    /// A process, counted in the monitor's word; a foreign thread is in
    /// the picture but not in the count.
    pub(crate) process: bool,
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
    /// Who is registered as waiting on each side, indexed by
    /// [`BlockKind`] (reader, writer).
    pub(crate) registered: [Option<Registration>; 2],
    /// Lint metadata of the write side.
    pub(crate) writer: EndpointShape,
    /// Lint metadata of the read side.
    pub(crate) reader: EndpointShape,
    /// The task that declared, or last used, a side declared
    /// [`SideState::External`] (0 while neither is).
    pub(crate) external_user: u64,
}

impl Look {
    /// The registered waits on this channel, with the side each waits on.
    fn waits(&self) -> impl Iterator<Item = (BlockKind, Registration)> + '_ {
        let sides = [BlockKind::Read, BlockKind::Write].into_iter();
        sides.filter_map(|kind| Some((kind, self.registered[kind as usize]?)))
    }

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
    /// Pictures detection took: first looks at the network's channels,
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
    /// Activity counter: moves on every block, unblock, spawn and exit,
    /// wrapping at 2²¹. Two identical snapshots with equal generations mean
    /// *no thread made progress in between* — the distributed probe's
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

/// Bits per count field of a [`Word`]: a network runs at most 2²¹ − 1
/// processes.
const FIELD_BITS: u32 = 21;
const FIELD: u64 = (1 << FIELD_BITS) - 1;
/// One counted wait.
const WAITING: u64 = 1;
/// One live process.
const LIVE: u64 = 1 << FIELD_BITS;
/// The network was aborted.
const ABORTED: u64 = 1 << (2 * FIELD_BITS);
/// One step of the generation, the top bits: it wraps without a carry
/// into any other field.
const GENERATION: u64 = ABORTED << 1;

/// The monitor's count, one atomic word, so that the read-modify-write that
/// completes the all-blocked condition is the one that sees it complete:
/// how many waits count as blocked (bits 0–20: processes registered as
/// waiting and not woken since), how many processes are live (bits 21–41),
/// whether the network was aborted (bit 42), and a generation (bits 43–63)
/// that moves on every registration, leave, process event and action. A
/// wait is counted when it registers and un-counted by the wake that
/// satisfies it, or when it leaves unsatisfied; a remote wait is counted
/// for as long as it is registered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Word(u64);

impl Word {
    fn waiting(self) -> u64 {
        self.0 & FIELD
    }

    fn live(self) -> u64 {
        (self.0 >> FIELD_BITS) & FIELD
    }

    fn aborted(self) -> bool {
        self.0 & ABORTED != 0
    }

    fn generation(self) -> u64 {
        self.0 / GENERATION
    }

    /// True when every live process is blocked and not woken since
    /// (candidate deadlock): the one all-blocked trigger, for the word a
    /// count change made, for detection's pre-check and for [`verdict`].
    fn all_blocked(self) -> bool {
        !self.aborted() && self.live() > 0 && self.waiting() >= self.live()
    }
}

/// `WAITING` for a process, nothing for a foreign thread.
fn counted(process: bool) -> u64 {
    WAITING * u64::from(process)
}

#[derive(Debug, Clone, Copy)]
struct BlockInfo {
    kind: BlockKind,
    is_process: bool,
    /// The detection tick count when it registered: a tick has seen it once
    /// the count has moved past. An external registration counts only from
    /// then on (see [`Monitor::tick`]).
    tick: u64,
}

#[derive(Default)]
struct MonState {
    /// The tasks blocked on a transport the monitor cannot look into
    /// (remote waits, [`Monitor::external_block`]), keyed by task token —
    /// not OS thread: a pooled worker runs many tasks, and a task may
    /// migrate between workers between its enter/exit pair. Tokens come
    /// from `exec::next_id`, so the map hashes them with the word hasher.
    /// A local wait is not here: its channel records it, and its look
    /// shows it.
    blocked: WordMap<u64, BlockInfo>,
    /// Detection ticks run so far.
    ticks: u64,
    /// The table: every live channel of the network, keyed by id — ids are
    /// handed out at creation, so this is creation order. A channel enters
    /// when it is created and leaves from its own drop
    /// ([`Monitor::channel_retired`]); nothing else holds a handle.
    channels: BTreeMap<u64, Weak<dyn MonitoredChannel>>,
    /// Final counters of channels that have been dropped, so reports cover
    /// the network's whole life.
    retired: Vec<(u64, ChannelIoStats)>,
    stats: MonitorStats,
}

impl MonState {
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

/// Parks' decision, as a function of the count `word`, the remote waits in
/// `st` and a look at each of the network's channels (`looks`, in the
/// table's order). It stops at the first wait that settles the matter —
/// the usual case, a task that has been woken and has not run yet.
///
/// Nothing is decided unless every live process is blocked, every wait the
/// looks show is confirmed by its channel's look ([`Look::confirms`]), and
/// the looks and the remote waits account for every counted wait (a task
/// that left between the count and the look of its channel is not in the
/// picture). Then the smallest-capacity full channel with a blocked writer
/// is grown — capacity ties break on channel id, so the choice is a
/// function of network state alone, which the sim scheduler's replay
/// guarantee needs — unless it is already at the policy's maximum. With
/// nothing to grow the deadlock is true, or [`Verdict::Remote`] beside a
/// block on [`EXTERNAL_CHANNEL`]. An external block no tick has seen yet
/// holds back a growth (its socket may have been unready for an instant),
/// never that outcome.
fn verdict(st: &MonState, word: Word, policy: DeadlockPolicy, looks: &[(u64, Look)]) -> Verdict {
    if policy == DeadlockPolicy::Ignore || !word.all_blocked() {
        return Verdict::Nothing;
    }
    let local = || {
        let each = looks.iter();
        each.flat_map(|(id, look)| look.waits().map(move |(kind, r)| (*id, look, kind, r)))
    };
    let registered =
        |token| st.blocked.contains_key(&token) || local().any(|(.., r)| r.token == token);
    let (mut external, mut fresh) = (false, false);
    let mut seen = 0;
    for b in st.blocked.values() {
        external = true;
        fresh |= b.tick == st.ticks;
        seen += counted(b.is_process);
    }
    let mut smallest: Option<(usize, u64)> = None;
    for (id, look, kind, r) in local() {
        if !look.confirms(kind, registered) {
            return Verdict::Nothing;
        }
        seen += counted(r.process);
        if kind == BlockKind::Write {
            let this = (look.stats.capacity, id);
            smallest = Some(smallest.map_or(this, |s| s.min(this)));
        }
    }
    if seen != word.waiting() {
        return Verdict::Nothing;
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

/// One evaluation: the verdict, the count word it was reached at, and the
/// progress (counters, occupancy) of every channel with a registered wait,
/// in table order. Two are equal when nothing registered, left, was woken
/// or moved a byte between them.
#[derive(Debug, PartialEq)]
struct Picture {
    verdict: Verdict,
    word: Word,
    progress: Vec<(u64, ChannelIoStats, usize)>,
}

impl Picture {
    /// [`verdict`] over `st`, `word` and `looks`, recording what the looks
    /// of waited-on channels saw.
    fn of(st: &MonState, word: Word, policy: DeadlockPolicy, looks: &[(u64, Look)]) -> Self {
        let waited = looks.iter().filter(|(_, l)| l.waits().next().is_some());
        Picture {
            verdict: verdict(st, word, policy, looks),
            word,
            progress: waited.map(|(id, l)| (*id, l.stats.clone(), l.buffered)).collect(),
        }
    }
}

/// The per-network deadlock monitor. One instance is shared by every channel
/// and process thread created through a [`crate::Network`].
pub struct Monitor {
    state: Mutex<MonState>,
    /// The count ([`Word`]). Changed by read-modify-writes only, by local
    /// waits under their channel's lock and by everything else under
    /// `state`'s.
    count: AtomicU64,
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
            count: AtomicU64::new(0),
            policy,
            debug,
            abort_hooks: Mutex::new(Vec::new()),
            scheduler_source: Mutex::new(None),
        })
    }

    /// The count word now.
    fn word(&self) -> Word {
        Word(self.count.load(Ordering::SeqCst))
    }

    /// Adds `delta` to the count word — a field's unit is subtracted as its
    /// wrapping negation — and returns the word it made.
    fn add(&self, delta: u64) -> Word {
        Word(self.count.fetch_add(delta, Ordering::SeqCst).wrapping_add(delta))
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
        if self.is_aborted() {
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

    /// The one stderr trace: remote registrations, verdicts and what was
    /// done about them.
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
        let word = self.word();
        let held = st.live_channels();
        // Processes blocked [reading, writing], remote waits and local.
        let mut blocked = [0, 0];
        let local = held.iter().flat_map(|(_, ch)| ch.look().waits().collect::<Vec<_>>());
        let local = local.map(|(kind, r)| (kind, r.process));
        for (kind, process) in st.blocked.values().map(|b| (b.kind, b.is_process)).chain(local) {
            blocked[kind as usize] += usize::from(process);
        }
        let mut snap = MonitorSnapshot {
            generation: word.generation(),
            live: word.live() as usize,
            blocked_reads: blocked[BlockKind::Read as usize],
            blocked_writes: blocked[BlockKind::Write as usize],
            aborted: word.aborted(),
            stuck_on_remote: false,
            stats: st.stats.clone(),
        };
        // Either way the state lock is released here, before the handles
        // go: the scheduler source takes executor locks; see stats().
        let first = word.all_blocked().then(|| self.evaluate(st).0);
        drop(held);
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
        BlockGuard::enter(self, kind)
    }

    /// True once a true deadlock was declared or the network was aborted.
    pub fn is_aborted(&self) -> bool {
        self.word().aborted()
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
        let word = self.add(LIVE + GENERATION);
        assert!(word.live() < FIELD, "a network runs at most {} processes", FIELD - 1);
    }

    /// A process thread left the network (finished or failed). The
    /// departing process may have been the only runnable one; the
    /// remainder might now be fully blocked.
    pub(crate) fn process_finished(&self) {
        if self.add(GENERATION.wrapping_sub(LIVE)).all_blocked() {
            self.resolve();
        }
    }

    /// Registers the calling task — `token`, a process if `is_process` — as
    /// blocked on a remote transport. It does not evaluate the picture it
    /// completes (see [`Monitor::external_block`]). Returns
    /// `Err(Deadlocked)` if the network is already aborted.
    fn enter_block(&self, kind: BlockKind, token: u64, is_process: bool) -> Result<()> {
        let mut st = self.state.lock();
        if self.is_aborted() {
            return Err(Error::Deadlocked);
        }
        let tick = st.ticks;
        st.blocked.insert(
            token,
            BlockInfo {
                kind,
                is_process,
                tick,
            },
        );
        let word = self.add(GENERATION + counted(is_process));
        self.trace(|| format!("enter token={token} kind={kind:?} remote {word:?}"));
        Ok(())
    }

    /// Unregisters the remote wait of task `token`.
    fn exit_block(&self, token: u64) {
        let mut st = self.state.lock();
        if let Some(info) = st.blocked.remove(&token) {
            let word = self.add(GENERATION.wrapping_sub(counted(info.is_process)));
            self.trace(|| format!("exit token={token} remote {word:?}"));
        }
    }

    /// A wait on a local channel has registered, its [`Registration`] on
    /// the side under the channel's lock, which the caller holds: it counts
    /// if the task is a process. Returns whether the count completed the
    /// all-blocked condition — then the caller runs [`Monitor::resolve`]
    /// with that lock released — or `Err(Deadlocked)` if the network was
    /// aborted (the registration stands until the wait leaves).
    pub(crate) fn enter_wait(&self, process: bool) -> Result<bool> {
        let word = self.add(GENERATION + counted(process));
        if word.aborted() {
            return Err(Error::Deadlocked);
        }
        Ok(word.all_blocked())
    }

    /// The write or the room that satisfies a process's wait has issued its
    /// wake, under the channel's lock: the wait, registered or about to be,
    /// stops counting. Close, poison and remote wakes do not call this.
    pub(crate) fn uncount(&self) {
        self.add(WAITING.wrapping_neg());
    }

    /// A local wait is over and its registration leaves, under its
    /// channel's lock: `counted` if it still counted (no wake took its
    /// count).
    pub(crate) fn leave_wait(&self, counted: bool) {
        self.add(GENERATION.wrapping_sub(WAITING * u64::from(counted)));
    }

    /// Re-runs detection for a remote wait that has lasted a period
    /// ([`MONITOR_TICK`]): `kpn-net` calls it from a process's socket wait,
    /// which bounds each park or `poll` at the next period whether it waits
    /// as a pooled fiber or as an OS thread. No executor ticks it. Nothing
    /// registers or leaves, so this does not move the count word and cannot
    /// unsettle a concurrent evaluation. Then counts the tick, which marks
    /// every registration so far as seen by one: an external one counts
    /// from the next tick on, so a socket that was not ready at one instant
    /// is only taken for a wait once it has stayed so for a period — a
    /// count of ticks, not a sleep.
    pub fn tick(&self) {
        self.resolve();
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

    /// Aborts the network: poisons every registered channel so all pending
    /// and future operations fail with [`Error::Deadlocked`].
    pub fn abort(&self) {
        self.abort_at(None);
    }

    /// The one abort routine. A true-deadlock verdict passes the count word
    /// it was reached at: it is counted, and carried out only if the word
    /// has not moved since.
    fn abort_at(&self, verdict_at: Option<Word>) {
        let live = {
            let mut st = self.state.lock();
            if let Some(at) = verdict_at {
                if self.word() != at {
                    return;
                }
                st.stats.true_deadlocks += 1;
                self.trace(|| format!("abort: true deadlock at {at:?}"));
            }
            if !self.is_aborted() {
                self.add(ABORTED + GENERATION);
            }
            st.live_channels()
        };
        for (_, ch) in &live {
            ch.poison();
        }
        drop(live);
        self.run_abort_hooks();
    }

    /// One evaluation: under the state lock `st`, decide from the count
    /// word and a look at each of the network's channels. Returns the
    /// picture and the handles the looks were taken through — out of the
    /// lock, like every [`Held`].
    fn evaluate(&self, st: parking_lot::MutexGuard<'_, MonState>) -> (Picture, Held) {
        let held = st.live_channels();
        // Read before the looks: a wait that registers or leaves between
        // the two shows in a look but not in the count, or the reverse,
        // and the verdict finds the looks and the count disagree.
        let word = self.word();
        let looks: Vec<(u64, Look)> = held.iter().map(|(id, ch)| (*id, ch.look())).collect();
        let picture = Picture::of(&st, word, self.policy, &looks);
        if picture.verdict.acts() {
            self.trace(|| {
                let waited = looks.iter().filter(|(_, l)| l.waits().next().is_some());
                let waits: Vec<_> = waited.map(|(id, l)| (id, l.registered)).collect();
                format!(
                    "verdict {:?} {word:?} remote={:?} local={waits:?} progress={:?}",
                    picture.verdict, st.blocked, picture.progress
                )
            });
        }
        (picture, held)
    }

    /// Runs detection: evaluates twice, back to back, and acts only if the
    /// two pictures are equal. The caller holds no lock: a channel's wait
    /// whose count completed the all-blocked condition releases its
    /// channel's first. The looks of one evaluation are taken one channel at a
    /// time; a second set identical to the first, at the same count word,
    /// shows that nothing moved while either was taken, so together they
    /// are one consistent picture.
    pub(crate) fn resolve(&self) {
        let mut st = self.state.lock();
        // Checked before any evaluation, which would otherwise put its
        // frames on the stack of a task that did not complete the picture:
        // a pooled fiber keeps each stack page it has touched.
        if !self.word().all_blocked() {
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
            (Verdict::TrueDeadlock, _) => self.abort_at(Some(then.word)),
            (Verdict::Grow(id), DeadlockPolicy::Grow { max_capacity }) => {
                // Like an abort, carried out only if the count word has not
                // moved since, and under the state lock (it comes before a
                // channel's), so that two evaluators cannot both grow on one
                // picture and the log keeps the order growths happened in.
                let mut st = self.state.lock();
                if self.word() != then.word {
                    return;
                }
                let grown = held
                    .iter()
                    .find(|(held_id, _)| *held_id == id)
                    .and_then(|(_, ch)| ch.grow_if_full(max_capacity));
                // `None`: the channel drained between the look and the
                // action. If everyone is still blocked a later event retries.
                if let Some((old, new)) = grown {
                    st.stats.capacity_grows += 1;
                    st.stats.growth_log.push((id, old, new));
                    let word = self.add(GENERATION);
                    self.trace(|| format!("GROW ch={id} {old}->{new} {word:?}"));
                }
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        let word = self.word();
        f.debug_struct("Monitor")
            .field("policy", &self.policy)
            .field("live", &word.live())
            .field("waiting", &word.waiting())
            .field("remote", &st.blocked.len())
            .field("aborted", &word.aborted())
            .finish()
    }
}

/// A task's registration as blocked on a remote transport
/// ([`Monitor::external_block`]). Dropping it unregisters the task.
pub struct BlockGuard {
    monitor: Arc<Monitor>,
    /// The registered task, whose flag refuses a registration inside this
    /// one; held, not looked up again, since the guard drops after a park
    /// that may have moved the task to another thread.
    task: Arc<TaskLocals>,
}

impl BlockGuard {
    fn enter(monitor: &Arc<Monitor>, kind: BlockKind) -> Result<Self> {
        let task = crate::exec::with_current(Arc::clone);
        if task.remote_wait.load(Ordering::Relaxed) {
            return Err(nested(task.token));
        }
        monitor.enter_block(kind, task.token, task.is_process)?;
        task.remote_wait.store(true, Ordering::Relaxed);
        Ok(BlockGuard {
            monitor: monitor.clone(),
            task,
        })
    }
}

impl Drop for BlockGuard {
    fn drop(&mut self) {
        // No wake counts a remote wait down (`Monitor::uncount`).
        self.monitor.exit_block(self.task.token);
        self.task.remote_wait.store(false, Ordering::Relaxed);
    }
}

/// The refusal of a registration inside another: it would count the task
/// as two blocked processes and, after the inner one left, as one for as
/// long as the outer lasts.
pub(crate) fn nested(token: u64) -> Error {
    Error::Graph(format!(
        "task {token} waited while registered as blocked on a remote wait: \
         something waited inside a monitor registration"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

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
            registered: [None; 2],
            writer: EndpointShape::open(),
            reader: EndpointShape::open(),
            external_user: 0,
        }
    }

    /// A channel for the monitor to look at, empty or full, and whether it
    /// was poisoned.
    struct FakeChan {
        look: Mutex<Look>,
        poisoned: Mutex<bool>,
    }

    impl FakeChan {
        /// A channel of `m`'s table under id `id`.
        fn on(m: &Monitor, id: u64, cap: usize, full: bool) -> Arc<Self> {
            let look = Mutex::new(look(cap, if full { cap } else { 0 }));
            let c = Arc::new(FakeChan {
                look,
                poisoned: Mutex::new(false),
            });
            m.register_channel(id, Arc::downgrade(&c) as Weak<dyn MonitoredChannel>);
            c
        }

        fn cap(&self) -> usize {
            self.look.lock().stats.capacity
        }
    }

    impl MonitoredChannel for FakeChan {
        fn look(&self) -> Look {
            self.look.lock().clone()
        }
        fn grow_if_full(&self, max: Option<usize>) -> Option<(usize, usize)> {
            let mut look = self.look.lock();
            let old = look.stats.capacity;
            let new = (old * 2).min(max.unwrap_or(usize::MAX));
            if look.buffered < old || new <= old {
                return None;
            }
            // A freshly grown channel is no longer full.
            look.stats.capacity = new;
            Some((old, new))
        }
        fn ensure_capacity(&self, min: usize) -> bool {
            self.grow_if_full(Some(min)).is_some()
        }
        fn poison(&self) {
            *self.poisoned.lock() = true;
        }
    }

    /// Where a blocked task waits: a side of a fake channel, or a remote
    /// transport.
    enum On<'a> {
        Local(&'a Arc<FakeChan>, BlockKind),
        Remote(BlockKind),
    }

    /// Blocks one task of an already started process (a foreign thread if
    /// not `process`) for good: a local wait as a channel's records it and
    /// counts, running detection if that completes the picture; a remote
    /// wait as `kpn-net` registers it.
    fn block_task(m: &Arc<Monitor>, on: On<'_>, process: bool) -> Result<()> {
        std::thread::scope(|s| {
            s.spawn(|| {
                if process {
                    crate::exec::install_process_locals("blocked");
                }
                match on {
                    On::Local(chan, kind) => {
                        let token = crate::exec::task_token();
                        let r = Registration { token, process };
                        chan.look.lock().registered[kind as usize] = Some(r);
                        if m.enter_wait(process)? {
                            m.resolve();
                        }
                    }
                    On::Remote(kind) => std::mem::forget(m.external_block(kind)?),
                }
                Ok(())
            })
            .join()
            .unwrap()
        })
    }

    fn block_one(m: &Arc<Monitor>, on: On<'_>) {
        block_task(m, on, true).unwrap();
    }

    /// Starts one process per entry, then blocks each in order; detection
    /// runs when the last one completes the picture.
    fn block_all(m: &Arc<Monitor>, blocks: Vec<On<'_>>) {
        for _ in &blocks {
            m.process_started();
        }
        for on in blocks {
            block_one(m, on);
        }
    }

    use BlockKind::{Read, Write};

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
        assert!(matches!(m.enter_wait(true), Err(Error::Deadlocked)));
        assert!(matches!(
            block_task(&m, On::Remote(Read), true),
            Err(Error::Deadlocked)
        ));
    }

    #[test]
    fn all_read_blocked_is_true_deadlock() {
        let m = Monitor::new(DeadlockPolicy::default());
        let (c1, c2) = (FakeChan::on(&m, 1, 16, false), FakeChan::on(&m, 2, 16, false));
        block_all(&m, vec![On::Local(&c1, Read), On::Local(&c2, Read)]);
        assert!(m.is_aborted());
        assert!(*c1.poisoned.lock() && *c2.poisoned.lock());
        assert_eq!(m.stats().true_deadlocks, 1);
    }

    #[test]
    fn write_blocked_grows_smallest_channel() {
        let m = Monitor::new(DeadlockPolicy::default());
        let small = FakeChan::on(&m, 1, 8, true);
        let big = FakeChan::on(&m, 2, 64, true);
        block_all(&m, vec![On::Local(&small, Write), On::Local(&big, Write)]);
        assert!(!m.is_aborted());
        assert_eq!(small.cap(), 16, "smallest channel doubled");
        assert_eq!(big.cap(), 64, "larger channel untouched");
        assert_eq!(m.stats().capacity_grows, 1);
    }

    #[test]
    fn mixed_block_prefers_growth_over_abort() {
        let m = Monitor::new(DeadlockPolicy::default());
        let c = FakeChan::on(&m, 7, 8, true);
        let empty = FakeChan::on(&m, 9, 8, false);
        block_all(&m, vec![On::Local(&c, Write), On::Local(&empty, Read)]);
        assert!(!m.is_aborted());
        assert_eq!(m.stats().capacity_grows, 1);
    }

    #[test]
    fn a_counted_wait_no_look_shows_vetoes_growth() {
        // A wait that has left its channel (its task is about to run) after
        // the count was read is counted but in no look: the all-blocked
        // picture is transient, and growing another channel would be pure
        // inflation. The looks must account for every counted wait.
        let m = Monitor::new(DeadlockPolicy::default());
        let c = FakeChan::on(&m, 7, 8, true);
        m.process_started();
        m.process_started();
        block_one(&m, On::Local(&c, Write));
        assert!(m.enter_wait(true).unwrap(), "the count completes the picture");
        m.resolve();
        assert!(!m.is_aborted());
        assert_eq!(m.stats().capacity_grows, 0, "in-flight cascade must veto growth");
    }

    #[test]
    fn external_block_still_permits_growth() {
        // Distributed artificial deadlocks block on the sentinel id; the
        // monitor cannot introspect the remote side and must still be able
        // to grow a full local channel.
        let m = Monitor::new(DeadlockPolicy::default());
        let c = FakeChan::on(&m, 7, 8, true);
        block_all(&m, vec![On::Remote(Read), On::Local(&c, Write)]);
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
        let c = FakeChan::on(&m, 7, 8, true);
        block_all(&m, vec![On::Local(&c, Write), On::Remote(Write)]);
        assert_eq!(m.stats().capacity_grows, 0, "the registrant must not decide for itself");
        m.tick();
        assert_eq!(m.stats().capacity_grows, 0, "one tick has seen the wait for an instant");
        m.tick();
        assert!(!m.is_aborted());
        assert_eq!(m.stats().capacity_grows, 1, "a picture that lasts is still resolved");
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
        assert_eq!(m.word().waiting(), 0);
        let snap = m.snapshot();
        assert_eq!((snap.blocked_reads, snap.blocked_writes), (0, 0));
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
        let c = FakeChan::on(&m, 1, 8, true); // already at max
        block_all(&m, vec![On::Local(&c, Write)]);
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
        let c = FakeChan::on(&m, 1, 8, true);
        block_all(&m, vec![On::Remote(Read), On::Local(&c, Write)]);
        m.tick();
        m.tick();
        assert!(!m.is_aborted());
        assert!(!*c.poisoned.lock());
        assert_eq!(c.cap(), 8);
        assert_eq!(m.stats().true_deadlocks, 0);
    }

    #[test]
    fn both_true_deadlock_verdicts_count_once_and_bump_the_generation() {
        let capped = DeadlockPolicy::Grow {
            max_capacity: Some(8),
        };
        for (policy, full, kind) in [
            (DeadlockPolicy::default(), false, Read),
            (capped, true, Write),
        ] {
            let m = Monitor::new(policy);
            let c = FakeChan::on(&m, 1, 8, full);
            block_all(&m, vec![On::Local(&c, kind)]);
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
        // Every process waits on a socket and no tick has run: the monitor
        // does nothing, and its snapshot says so.
        let m = Monitor::new(DeadlockPolicy::default());
        block_all(&m, vec![On::Remote(Read), On::Remote(Write)]);
        let snap = m.snapshot();
        assert!(snap.stuck_on_remote && !snap.aborted);
        assert_eq!((snap.blocked_reads, snap.blocked_writes), (1, 1));
        // A full local channel that may still grow is not stuck, before the
        // ticks that grow it or after.
        let m = Monitor::new(DeadlockPolicy::default());
        let c = FakeChan::on(&m, 7, 8, true);
        block_all(&m, vec![On::Local(&c, Write), On::Remote(Read)]);
        let snap = m.snapshot();
        assert!(!snap.stuck_on_remote);
        assert_eq!((snap.blocked_reads, snap.blocked_writes), (1, 1));
        m.tick();
        m.tick();
        assert_eq!(m.stats().capacity_grows, 1);
        assert!(!m.snapshot().stuck_on_remote);
        // Nor is a network with a process still running.
        let m = Monitor::new(DeadlockPolicy::default());
        m.process_started();
        block_all(&m, vec![On::Remote(Read)]);
        assert!(!m.snapshot().stuck_on_remote);
    }

    #[test]
    fn verdict_table() {
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
        // this token (waiting tasks are tokens 0, 1, … in order).
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
        // (policy, live processes, waits (channel, kind, is a process),
        //  looks by channel id, expected). A wait on a channel with no look
        //  is counted but in no look. A channel listed twice looks the
        //  second way to the second of the two back-to-back evaluations.
        type Case = (
            DeadlockPolicy,
            u64,
            Vec<(u64, BlockKind, bool)>,
            Vec<(u64, Look)>,
            Verdict,
        );
        let cases: Vec<Case> = vec![
            // The scenarios of the tests above, as pictures.
            (grow, 2, vec![(1, Read, true), (2, Read, true)], vec![(1, empty(16)), (2, empty(16))], TrueDeadlock),
            (grow, 2, vec![(1, Write, true), (2, Write, true)], vec![(1, full(8)), (2, full(64))], Grow(1)),
            (grow, 2, vec![(7, Write, true), (9, Read, true)], vec![(7, full(8)), (9, empty(8))], Grow(7)),
            (grow, 2, vec![(7, Write, true), (9, Read, true)], vec![(7, full(8))], Nothing),
            (grow, 2, vec![(EXT, Read, true), (7, Write, true)], vec![(7, full(8))], Grow(7)),
            (grow, 2, vec![(7, Write, true), (EXT, Write, true)], vec![(7, full(8))], Grow(7)),
            (capped(8), 1, vec![(1, Write, true)], vec![(1, full(8))], TrueDeadlock),
            (capped(8), 2, vec![(EXT, Read, true), (1, Write, true)], vec![(1, full(8))], Remote),
            (grow, 1, vec![(1, Read, false)], vec![(1, empty(8))], Nothing),
            (DeadlockPolicy::Ignore, 1, vec![(1, Write, true)], vec![(1, full(8))], Nothing),
            // Both sides of one channel waiting: a writer on a full buffer
            // and a reader on an empty one cannot both be confirmed.
            (grow, 2, vec![(1, Write, true), (1, Read, true)], vec![(1, full(8))], Nothing),
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
            // A counted wait no look shows (its task left after the count
            // was read) settles nothing.
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
            (grow, 1, vec![(1, Read, true), (EXT, Read, false)], vec![(1, fed(8, 1))], Remote),
            // Progress between the two evaluations: no action.
            (grow, 2, vec![(1, Write, true), (2, Write, true)], vec![(1, full(8)), (2, full(64)), (2, moved(full(64)))], Nothing),
            (grow, 1, vec![(1, Read, true)], vec![(1, empty(8)), (1, moved(empty(8)))], Nothing),
        ];
        for (n, (policy, live, waits, looks, expected)) in cases.into_iter().enumerate() {
            let mut st = MonState {
                ticks: 1,
                ..Default::default()
            };
            let mut word = live * LIVE;
            // Per channel, its look to the first evaluation and the second.
            let mut pairs: Vec<(u64, Look, Look)> = Vec::new();
            for (id, look) in looks {
                match pairs.iter_mut().find(|p| p.0 == id) {
                    Some(p) => p.2 = look,
                    None => pairs.push((id, look.clone(), look)),
                }
            }
            for (token, (chan, kind, process)) in (0u64..).zip(waits) {
                word += counted(process);
                if chan == EXT || chan == EXT_FRESH {
                    let (is_process, tick) = (process, u64::from(chan == EXT_FRESH));
                    st.blocked.insert(token, BlockInfo { kind, is_process, tick });
                }
                for (_, a, b) in pairs.iter_mut().filter(|p| p.0 == chan) {
                    let r = Some(Registration { token, process });
                    (a.registered[kind as usize], b.registered[kind as usize]) = (r, r);
                }
            }
            let first: Vec<_> = pairs.iter().map(|(id, a, _)| (*id, a.clone())).collect();
            let then: Vec<_> = pairs.iter().map(|(id, _, b)| (*id, b.clone())).collect();
            // What `resolve` acts on at the count word `word`; `moved` is
            // added to the word between the two looks.
            let decide = |st: &MonState, word: u64, moved: u64| {
                let first = Picture::of(st, Word(word), policy, &first);
                let then = Picture::of(st, Word(word + moved), policy, &then);
                if then == first {
                    then.verdict
                } else {
                    Nothing
                }
            };
            assert_eq!(decide(&st, word, 0), expected, "case {n}");
            assert_eq!(decide(&st, word, GENERATION), Nothing, "case {n}, registered between");
            if word & FIELD > 0 {
                assert_eq!(decide(&st, word - WAITING, 0), Nothing, "case {n}, a wake issued");
            }
            assert_eq!(decide(&st, word | ABORTED, 0), Nothing, "case {n}, aborted");
        }
    }

    #[test]
    fn the_count_word_keeps_its_fields_apart() {
        let m = Monitor::new(DeadlockPolicy::Ignore);
        (0..3).for_each(|_| m.process_started());
        assert!(!m.enter_wait(true).unwrap());
        m.uncount();
        assert!(!m.enter_wait(true).unwrap() && !m.enter_wait(true).unwrap(), "one was woken");
        assert!(m.enter_wait(true).unwrap(), "three of three");
        m.leave_wait(true);
        m.leave_wait(false);
        // The generation wraps without touching the counts.
        m.count.fetch_add(GENERATION.wrapping_neg(), Ordering::SeqCst);
        let w = m.word();
        assert_eq!((w.waiting(), w.live(), w.generation()), (2, 3, 3 + 4 + 2 - 1));
        m.abort();
        assert!(m.word().aborted() && m.word().live() == 3);
    }

    #[test]
    fn foreign_thread_does_not_trigger_alone() {
        let m = Monitor::new(DeadlockPolicy::default());
        let c = FakeChan::on(&m, 1, 8, false);
        // One live process that is NOT blocked...
        m.process_started();
        // ...and a foreign (non-process) thread that blocks.
        block_task(&m, On::Local(&c, Read), false).unwrap();
        assert!(!m.is_aborted());
        assert_eq!(m.word().waiting(), 0, "a foreign thread is not counted");
        assert_eq!(m.stats().evaluations, 0);
    }

    #[test]
    fn nested_registration_is_refused_and_leaves_the_count_intact() {
        // A second registration by a task that holds a remote one would
        // count it twice and, once the inner one left, once forever. It is
        // refused, remote or on a channel, in release builds too.
        let m = Monitor::new(DeadlockPolicy::Ignore);
        std::thread::spawn(move || {
            crate::exec::install_process_locals("nested");
            m.process_started();
            let guard = m.external_block(Read).unwrap();
            assert!(matches!(m.external_block(Write), Err(Error::Graph(_))));
            let (_w, mut r) = crate::channel::channel_with(8, Some(m.clone()));
            assert!(matches!(r.read(&mut [0u8; 1]), Err(Error::Graph(_))));
            assert_eq!(m.word().waiting(), 1);
            assert_eq!(m.snapshot().blocked_reads, 1);
            drop(guard);
            assert!(m.state.lock().blocked.is_empty());
            assert_eq!(m.word().waiting(), 0);
            // Once it is over, the task waits as any other.
            assert!(m.external_block(Write).is_ok());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn ignore_policy_never_acts() {
        let m = Monitor::new(DeadlockPolicy::Ignore);
        let c = FakeChan::on(&m, 1, 8, true);
        block_all(&m, vec![On::Local(&c, Write)]);
        assert!(!m.is_aborted());
        assert_eq!(c.cap(), 8);
    }
}
