//! [`PooledExec`]: M:N execution — many fibers, a fixed worker pool — with
//! per-worker work-stealing run queues.
//!
//! ## Scheduling architecture
//!
//! Earlier revisions kept one central `VecDeque` behind the pool mutex:
//! every dispatch, park completion, and unpark serialized on that lock, and
//! an unparked fiber went to the *back* of a global FIFO — a pipeline of
//! 10 000 stages round-robined the whole ring once per token hop. Work now
//! lives in three places, checked in cache-warmth order:
//!
//! 1. **Hot slot** — a single-fiber LIFO slot per worker. When a fiber
//!    running on a worker unparks another fiber (a writer filling the
//!    channel its reader is parked on), the woken fiber lands here and runs
//!    *next* on the same worker: the channel state it is about to touch is
//!    still in cache, and no lock is taken.
//! 2. **Run queue** — a `VecDeque` under a lock of its own ([`RunQueue`]),
//!    LIFO for the owner, stolen oldest half first by idle workers. It has
//!    no capacity: it holds at most the pool's live fibers.
//! 3. **Injector** — a global `VecDeque` under the central mutex, fed by
//!    `spawn` and by unparks from threads that are not workers of this
//!    pool.
//!
//! ## One fair tick per worker
//!
//! A pool cannot preempt, so it builds fairness from one count per worker:
//! its ticks, each dispatch and each [`Exec::yield_point`] a fiber passes
//! on it (every channel operation, and every socket operation of
//! `kpn-net`'s `rio` that did not wait). Every [`FAIR_TICK`]-th tick polls
//! the reactor and looks at the injector:
//! - *at a dispatch*, the worker then takes the injector and its run
//!   queue before its hot slot, so neither a ready socket's fiber nor
//!   injected work starves behind two fibers ping-ponging through the hot
//!   slot;
//! - *at a yield point*, the running fiber yields only if that found work
//!   for this worker: the poll readied a fiber, or the injector or the run
//!   queue holds one (injected work moves to the run queue). It goes
//!   behind the newest entry of its run queue, the work the worker takes
//!   next, and so resumes soon: sent behind every entry, a fiber of a
//!   4 096-process gossip that yielded mid-round held its neighbours up
//!   for the whole queue (`dist_gossip` read −23 %). A fiber that
//!   streams through a socket that never fills therefore lets its node's
//!   accept loop and control sessions run, and one that finds no work
//!   waiting keeps its worker: no park, no timer.
//!
//! The tick after a fair one is never fair, so the dispatch that follows
//! a yield runs the work the yield was for.
//!
//! An idle worker steals: it sweeps the other workers' run queues (taking
//! the older half of the victim's queue on success), then their hot slots.
//! Hot-slot theft matters for liveness, not just throughput — a fiber
//! sitting in the hot slot of a worker that is busy in a long-running
//! fiber must be runnable by someone else.
//!
//! ## Sleep/wake protocol
//!
//! One wake rule: a worker wakes a sleeper only for *surplus* — work beyond
//! the one fiber it runs next. A fiber a worker unparks into its empty hot
//! slot wakes nobody (the waker runs it when it switches out); a displaced
//! hot fiber, a second woken fiber, a requeued fiber behind a hot one and a
//! multi-fiber steal each wake one. Work from outside the pool (`spawn`, a
//! foreign unpark) and leftover injector work always wake one. No wake is
//! sent while a worker is already searching (`searching` gate) — the
//! classic work-stealing wake throttle. The lost-wakeup race this opens is
//! closed Dekker-style: a worker about to sleep first publishes itself
//! (`parked_hint`, SeqCst) and then *rescans every queue* — injector, all
//! run queues, all hot slots — while holding the central lock; a producer
//! pushes work first and then checks `parked_hint` behind a SeqCst fence.
//! Whichever ordering the race resolves to, either the producer sees the
//! sleeper (and notifies) or the sleeper sees the work (and does not
//! sleep).
//!
//! Once the pool has a reactor, one sleeping worker at a time — the
//! *poller* — sleeps in the reactor's `epoll_wait` rather than on the
//! condvar, so socket readiness and timers wake it directly; the others
//! sleep on the condvar. The poller is parked like any sleeper and the
//! same handshake covers it: a producer that finds sleepers under the
//! central lock notifies the condvar if anyone sleeps there, and else
//! writes the reactor's eventfd. A poller that wakes with fibers
//! dispatches them by the same rule: one fiber it keeps and runs, more
//! wake a condvar sleeper, who takes over polling when it sleeps again.
//!
//! The pool keeps no clock of its own work: a deadlock monitor is ticked
//! by the remote waits that need it, each on its own reactor timer. A
//! sleep is bounded ([`BOUNDED_SLEEP`]) only while another worker runs a
//! fiber, and a fully idle pool sleeps until woken. The bound is what
//! frees a hot fiber nobody was woken for: if its waker stays in a long
//! fiber, the bounded sleeper wakes and steals it from the hot slot, and
//! polls a socket or timer the busy poller left behind. Where no sleeper
//! is bounded (every sleeper went to sleep while no fiber ran), a fiber
//! that wakes a fiber makes it surplus instead: it goes to the waker's
//! run queue and wakes a sleeper, as a displaced hot fiber does.
//!
//! Every worker keeps relaxed-atomic counters (dispatch sources, steal
//! traffic, parks); [`Exec::scheduler_stats`] snapshots them without
//! perturbing the scheduler.

use super::{
    fiber, reactor, weak_dyn, with_current, Exec, ParkRequest, SchedulerStats, TaskLocals,
    WaitTable, WorkerStats,
};
use crate::error::Result;
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Every FAIR_TICK-th tick of a worker (a dispatch or a fiber's yield
/// point) polls the reactor and looks at the injector before local work,
/// so a ready socket's fiber and globally submitted fibers make progress
/// even on a saturated worker. Prime, so the fair tick does not
/// phase-lock with request patterns.
const FAIR_TICK: u64 = 61;

/// How many extra fibers a worker moves from the injector into its own
/// run queue per injector visit (beyond the one it runs), amortizing the
/// central lock.
const INJECTOR_BATCH: usize = 16;

/// How long a worker sleeps while another worker runs a fiber, before it
/// looks again for a hot fiber left behind that busy worker's fiber and for
/// a socket or timer the busy poller left unpolled.
const BOUNDED_SLEEP: Duration = Duration::from_millis(1);

thread_local! {
    /// `(pool address, slot index)` for pool-worker threads. Lets
    /// `unpark_all` detect "the waker is a worker of this very pool"
    /// without any lock.
    static WORKER_ID: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Adds one to a counter that only its own worker writes: a load and a
/// store, not a lock-prefixed read-modify-write. Readers already take every
/// counter as approximate.
fn bump(counter: &AtomicU64) {
    counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// Cumulative per-slot counters; relaxed atomics, observation only.
/// `fiber_switches`, `local_pops`, `hot_hits` and `max_queue_depth` have a
/// single writer, the slot's worker ([`bump`]); the others are added to
/// with read-modify-writes.
#[derive(Default)]
struct WorkerCounters {
    fiber_switches: AtomicU64,
    local_pops: AtomicU64,
    hot_hits: AtomicU64,
    steal_attempts: AtomicU64,
    steal_successes: AtomicU64,
    stolen_fibers: AtomicU64,
    injector_pops: AtomicU64,
    parks: AtomicU64,
    unparks: AtomicU64,
    max_queue_depth: AtomicU64,
}

impl WorkerCounters {
    fn snapshot(&self, queue_depth: u64) -> WorkerStats {
        WorkerStats {
            fiber_switches: self.fiber_switches.load(Ordering::Relaxed),
            local_pops: self.local_pops.load(Ordering::Relaxed),
            hot_hits: self.hot_hits.load(Ordering::Relaxed),
            steal_attempts: self.steal_attempts.load(Ordering::Relaxed),
            steal_successes: self.steal_successes.load(Ordering::Relaxed),
            stolen_fibers: self.stolen_fibers.load(Ordering::Relaxed),
            injector_pops: self.injector_pops.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            unparks: self.unparks.load(Ordering::Relaxed),
            queue_depth,
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
        }
    }
}

/// A worker's run queue: only its owner pushes, and pops the newest item
/// (the cache-warm fiber); a thief takes the older half from the front.
///
/// `len` is a copy of the queue's length, stored under the lock, for the
/// readers that take no lock: the Dekker rescan (`any_work_visible`), the
/// depth counters, and the owner's pop and a thief's steal, which skip the
/// lock when it reads 0. It is what the rescan's half of the handshake
/// sees: a producer stores the copy before its `SeqCst` fence in
/// `notify_work`, and a sleeper reads it after its own fence in
/// `park_worker`, so either the producer sees the sleeper or the sleeper
/// sees the work.
///
/// The lock nests inside the central lock (an injector batch moves under
/// both) and around the wait table's bucket locks (a reactor batch wakes its
/// keys while pushing); it is never held while another queue's is taken.
struct RunQueue<T> {
    queue: Mutex<VecDeque<T>>,
    len: AtomicUsize,
}

impl<T> RunQueue<T> {
    fn new() -> Self {
        RunQueue {
            queue: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Owner only: appends `items`, the last of them popped first.
    fn push(&self, items: impl IntoIterator<Item = T>) {
        let mut q = self.queue.lock();
        q.extend(items);
        self.len.store(q.len(), Ordering::Relaxed);
    }

    /// Owner only: queues `item` behind the newest item, to be popped
    /// right after it.
    fn push_behind_newest(&self, item: T) {
        let mut q = self.queue.lock();
        let at = q.len().saturating_sub(1);
        q.insert(at, item);
        self.len.store(q.len(), Ordering::Relaxed);
    }

    /// Owner only: the newest item.
    fn pop(&self) -> Option<T> {
        if self.len() == 0 {
            return None;
        }
        let mut q = self.queue.lock();
        let item = q.pop_back();
        self.len.store(q.len(), Ordering::Relaxed);
        item
    }

    /// Thief: the older half (⌈len/2⌉ items), oldest first, under one lock.
    fn steal_half(&self) -> Vec<T> {
        if self.len() == 0 {
            return Vec::new();
        }
        let mut q = self.queue.lock();
        let half = q.len().div_ceil(2);
        let stolen = q.drain(..half).collect();
        self.len.store(q.len(), Ordering::Relaxed);
        stolen
    }
}

/// One worker's scheduling state. Slots are fixed at pool creation
/// (`target` of them) and worker `i` owns slot `i` from the spawn that
/// started it until the pool shuts down.
struct WorkerSlot {
    queue: RunQueue<Box<fiber::Fiber>>,
    /// LIFO hot slot: a raw `Box<Fiber>` pointer, null when empty. Filled
    /// only by the owning worker; drained by the owner *or* by thieves
    /// (atomic swap either way, so ownership transfer is race-free).
    hot: AtomicPtr<fiber::Fiber>,
    /// The worker's ticks: its dispatches and the yield points its fibers
    /// pass. Written only by the worker, or by a fiber running on it.
    ticks: AtomicU64,
    stats: WorkerCounters,
}

impl WorkerSlot {
    fn new() -> Self {
        WorkerSlot {
            queue: RunQueue::new(),
            hot: AtomicPtr::new(std::ptr::null_mut()),
            ticks: AtomicU64::new(0),
            stats: WorkerCounters::default(),
        }
    }

    fn take_hot(&self) -> Option<Box<fiber::Fiber>> {
        let p = self.hot.swap(std::ptr::null_mut(), Ordering::AcqRel);
        if p.is_null() {
            None
        } else {
            // SAFETY: a non-null `hot` is a `Box::into_raw` pointer stored
            // by `put_hot`; the swap took it out atomically, so this thread
            // alone owns it now.
            Some(unsafe { Box::from_raw(p) })
        }
    }

    /// Install `f` as the hot fiber, returning the one it displaced.
    fn put_hot(&self, f: Box<fiber::Fiber>) -> Option<Box<fiber::Fiber>> {
        let old = self.hot.swap(Box::into_raw(f), Ordering::AcqRel);
        if old.is_null() {
            None
        } else {
            // SAFETY: as in `take_hot`: the displaced word is a pointer
            // `put_hot` stored, and the swap handed it to this thread alone.
            Some(unsafe { Box::from_raw(old) })
        }
    }

    /// Counts one tick of this slot's worker, and answers whether it is a
    /// fair one.
    fn tick(&self) -> bool {
        bump(&self.ticks);
        self.ticks.load(Ordering::Relaxed).is_multiple_of(FAIR_TICK)
    }

    fn hot_occupied(&self) -> bool {
        !self.hot.load(Ordering::SeqCst).is_null()
    }

    /// Records the run-queue depth after a push by the owning worker, the
    /// one writer of `max_queue_depth`.
    fn note_depth(&self) {
        let d = self.queue.len() as u64 + u64::from(self.hot_occupied());
        let max = &self.stats.max_queue_depth;
        if d > max.load(Ordering::Relaxed) {
            max.store(d, Ordering::Relaxed);
        }
    }
}

impl Drop for WorkerSlot {
    fn drop(&mut self) {
        // The run queue drops its own fibers; the hot slot is ours to free.
        drop(self.take_hot());
    }
}

/// State behind the central mutex: the injector plus pool-lifecycle
/// bookkeeping. Dispatch itself no longer touches this lock — only
/// spawn/injector traffic, sleeping, and worker lifecycle do.
struct PoolState {
    injector: VecDeque<Box<fiber::Fiber>>,
    /// Tasks spawned and not yet finished (runnable, running, or parked).
    alive: usize,
    /// Worker threads in existence; worker `i` owns slot `i`.
    workers: usize,
    /// Workers asleep, the poller included (authoritative; `parked_hint` is
    /// the lock-free shadow producers read).
    parked: usize,
    /// One of the `parked` workers sleeps in the reactor's `epoll_wait`
    /// (the poller); the rest sleep on `work_cv`.
    polling: bool,
    shutdown: bool,
    injector_pushes: u64,
    foreign_unparks: u64,
}

/// Whom a submission wakes (decided under the central lock, done after it).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Wake {
    Nobody,
    /// A worker asleep on `work_cv`.
    Sleeper,
    /// The worker in the reactor's `epoll_wait`.
    Poller,
}

impl PoolState {
    /// One sleeper to take new work: a condvar sleeper if there is one, so
    /// the poller keeps watching the reactor, else the poller.
    fn wake_one(&self) -> Wake {
        if self.parked > usize::from(self.polling) {
            Wake::Sleeper
        } else if self.polling {
            Wake::Poller
        } else {
            Wake::Nobody
        }
    }
}

/// M:N executor: tasks are stackful fibers multiplexed onto a fixed pool
/// of worker threads, each with its own work-stealing run queue (see the
/// module docs for the scheduling architecture). A blocked channel
/// operation parks the fiber — the worker moves on to the next runnable
/// task — so graph size is bounded by memory, not by OS thread limits. A
/// fiber that waits on a socket or sleeps parks the same way, on the
/// pool's [`reactor::Reactor`], so no fiber ever holds its worker in a
/// syscall wait and the pool never needs more than `target` threads. On
/// targets without fibers (anything but Linux x86_64) it degrades to
/// thread-per-task.
pub struct PooledExec {
    /// Steady-state worker count (== number of slots).
    target: usize,
    central: Mutex<PoolState>,
    work_cv: Condvar,
    slots: Box<[WorkerSlot]>,
    /// Workers currently running a fiber. Atomic so dispatch does not take
    /// the central lock; a worker about to sleep reads it, after its
    /// Dekker rescan, to decide whether its sleep is bounded.
    busy: AtomicUsize,
    /// Workers currently sweeping for steals; submissions skip their
    /// wakeup while one is live (it will find the work or rescan).
    searching: AtomicUsize,
    /// Lock-free shadow of `PoolState::parked` for the producer-side
    /// Dekker check.
    parked_hint: AtomicUsize,
    /// Sleepers whose sleep is bounded ([`BOUNDED_SLEEP`]): raised only
    /// after the sleeper has published `parked_hint` and read `busy > 0`,
    /// so from its publish until then it counts as unbounded.
    bounded: AtomicUsize,
    /// Both halves: this pool's fibers are filed under their key, every
    /// other caller waits on the condvar.
    pub(super) waits: WaitTable,
    /// Readiness reactor, created lazily on the first [`Exec::reactor`]
    /// call (i.e. the first time one of this pool's fibers waits on a
    /// socket or a deadline). `Some(None)` caches "the kernel refused an
    /// epoll fd".
    reactor: OnceLock<Option<Arc<reactor::Reactor>>>,
    self_ref: OnceLock<Weak<dyn Exec>>,
    self_pool: OnceLock<Weak<PooledExec>>,
}

impl PooledExec {
    /// Create a pooled executor with `workers` worker threads (0 means
    /// `available_parallelism()`).
    pub fn new(workers: usize) -> Arc<Self> {
        // Read once per process: on Linux the answer comes from cgroup
        // files, tens of microseconds a call, and a node starts a pool for
        // every graph it runs.
        static HARDWARE_THREADS: OnceLock<usize> = OnceLock::new();
        let target = if workers == 0 {
            *HARDWARE_THREADS.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
        } else {
            workers
        };
        let exec = Arc::new(PooledExec {
            target,
            central: Mutex::new(PoolState {
                injector: VecDeque::new(),
                alive: 0,
                workers: 0,
                parked: 0,
                polling: false,
                shutdown: false,
                injector_pushes: 0,
                foreign_unparks: 0,
            }),
            work_cv: Condvar::new(),
            slots: (0..target).map(|_| WorkerSlot::new()).collect(),
            busy: AtomicUsize::new(0),
            searching: AtomicUsize::new(0),
            parked_hint: AtomicUsize::new(0),
            bounded: AtomicUsize::new(0),
            waits: WaitTable::default(),
            reactor: OnceLock::new(),
            self_ref: OnceLock::new(),
            self_pool: OnceLock::new(),
        });
        let weak = weak_dyn(&exec);
        exec.self_ref.set(weak).ok();
        exec.self_pool.set(Arc::downgrade(&exec)).ok();
        exec
    }

    /// True when the calling code runs on one of *this* pool's fibers.
    /// (A fiber of pool A that calls B's `park` must use B's thread-waiter
    /// path: filing it as a fiber in B would strand it. A channel wait
    /// parks on A instead, see `Shared::block`.)
    fn is_own_fiber(&self) -> bool {
        fiber::on_fiber()
            && with_current(|l| {
                self.self_ref
                    .get()
                    .map(|me| Weak::ptr_eq(&l.exec, me))
                    .unwrap_or(false)
            })
    }

    fn spawn_worker(&self, slot: usize) {
        let pool = self
            .self_pool
            .get()
            .and_then(Weak::upgrade)
            .expect("pool alive while spawning workers");
        std::thread::Builder::new()
            .name("kpn-pool-worker".into())
            .spawn(move || pool.worker_loop(slot))
            .expect("spawn pool worker");
    }

    fn worker_loop(self: Arc<Self>, slot: usize) {
        let mut worker_ctx: usize = 0;
        fiber::set_worker_ctx(&mut worker_ctx as *mut usize);
        WORKER_ID.with(|c| c.set(Some((Arc::as_ptr(&self) as usize, slot))));
        loop {
            if let Some(f) = self.find_work(slot) {
                self.run_fiber(f, slot, &mut worker_ctx);
            } else if self.park_worker(slot) {
                WORKER_ID.with(|c| c.set(None));
                return;
            }
        }
    }

    /// Next fiber to run, in cache-warmth order: hot slot, run queue,
    /// injector, steal. A fair tick polls the reactor and takes the
    /// injector and the run queue before the hot slot, so no source starves.
    fn find_work(&self, slot: usize) -> Option<Box<fiber::Fiber>> {
        let me = &self.slots[slot];
        if me.tick() {
            self.poll_reactor();
            if let Some(f) = self.pop_injector(slot) {
                return Some(f);
            }
        } else if let Some(f) = me.take_hot() {
            bump(&me.stats.hot_hits);
            return Some(f);
        }
        if let Some(f) = me.queue.pop() {
            bump(&me.stats.local_pops);
            return Some(f);
        }
        if let Some(f) = self.pop_injector(slot) {
            return Some(f);
        }
        if let Some(f) = me.take_hot() {
            bump(&me.stats.hot_hits);
            return Some(f);
        }
        self.steal_work(slot)
    }

    /// Pop one fiber from the injector, moving a batch more into the
    /// caller's own run queue to amortize the central lock.
    fn pop_injector(&self, slot: usize) -> Option<Box<fiber::Fiber>> {
        let me = &self.slots[slot];
        let mut st = self.central.lock();
        let first = st.injector.pop_front()?;
        let batch = (st.injector.len() / self.slots.len()).min(INJECTOR_BATCH);
        if batch > 0 {
            me.queue.push(st.injector.drain(..batch));
            me.note_depth();
        }
        let taken = 1 + batch as u64;
        let wake = if st.injector.is_empty() {
            Wake::Nobody
        } else {
            st.wake_one()
        };
        drop(st);
        me.stats.injector_pops.fetch_add(taken, Ordering::Relaxed);
        // Leftover global work and sleeping workers: hand one of them the
        // remainder.
        self.wake_unless_searching(wake);
        Some(first)
    }

    /// Steal sweep over the other workers: run queues first (the older half
    /// of the victim's queue), hot slots as a last resort.
    fn steal_work(&self, slot: usize) -> Option<Box<fiber::Fiber>> {
        if self.slots.len() <= 1 {
            return None; // sole worker: nobody to steal from
        }
        self.searching.fetch_add(1, Ordering::SeqCst);
        let got = self.steal_sweep(slot);
        self.searching.fetch_sub(1, Ordering::SeqCst);
        if got.is_some() && self.slots[slot].queue.len() > 0 {
            // Surplus: the thief moved more than the fiber it runs next,
            // so let a sleeper rebalance further.
            self.notify_work();
        }
        got
    }

    fn steal_sweep(&self, slot: usize) -> Option<Box<fiber::Fiber>> {
        let n = self.slots.len();
        let me = &self.slots[slot];
        let victims = || (1..n).map(|k| &self.slots[(slot + k) % n]);
        for victim in victims() {
            me.stats.steal_attempts.fetch_add(1, Ordering::Relaxed);
            // Half the victim's queue in one steal; a fiber at a time would
            // just bounce the imbalance back and forth. The victim's lock is
            // released before the extras go onto our queue: two thieves
            // robbing each other while holding both locks would deadlock.
            let mut stolen = victim.queue.steal_half().into_iter();
            let Some(first) = stolen.next() else {
                continue;
            };
            let moved = 1 + stolen.len() as u64;
            if moved > 1 {
                me.queue.push(stolen);
                me.note_depth();
            }
            me.stats.steal_successes.fetch_add(1, Ordering::Relaxed);
            me.stats.stolen_fibers.fetch_add(moved, Ordering::Relaxed);
            return Some(first);
        }
        // Second pass: hot slots. Last resort because taking one robs its
        // owner of a cache-warm dispatch — but a hot fiber whose owner is
        // busy in a long-running fiber must stay runnable.
        for victim in victims() {
            if let Some(f) = victim.take_hot() {
                me.stats.steal_successes.fetch_add(1, Ordering::Relaxed);
                me.stats.stolen_fibers.fetch_add(1, Ordering::Relaxed);
                return Some(f);
            }
        }
        None
    }

    fn run_fiber(&self, mut f: Box<fiber::Fiber>, slot: usize, worker_ctx: &mut usize) {
        self.busy.fetch_add(1, Ordering::SeqCst);
        bump(&self.slots[slot].stats.fiber_switches);
        f.run(worker_ctx);
        if f.done {
            let mut st = self.central.lock();
            st.alive -= 1;
            let finished = st.alive == 0;
            let polling = st.polling;
            drop(st);
            self.busy.fetch_sub(1, Ordering::SeqCst);
            if finished {
                self.wake_all(polling);
            }
            return;
        }
        if let Some(request) = fiber::PARK_REQUEST.with(|c| c.take()) {
            // Complete the park the fiber requested. Its stack is quiescent
            // now, so it is safe to hand the Box to the wait table or to its
            // channel's slot — unless the wakeup already happened while the
            // fiber was switching out (a stale token, an emptied slot), in
            // which case the fiber goes straight back to a run queue.
            let stale = match request {
                ParkRequest::Keyed(key, token) => self.waits.file(key, token, f),
                ParkRequest::Slot(site, side) => {
                    let mut f = Some(f);
                    site.with_slot(side, &mut |slot| slot.file(&mut f));
                    f
                }
            };
            self.busy.fetch_sub(1, Ordering::SeqCst);
            if let Some(f) = stale {
                // This worker runs it next unless a hot fiber goes first.
                let me = &self.slots[slot];
                me.queue.push([f]);
                me.note_depth();
                if me.hot_occupied() {
                    self.notify_work();
                }
            }
            return;
        }
        // A yield (`yield_point`): behind the work its tick found, which
        // this worker runs first.
        let me = &self.slots[slot];
        me.queue.push_behind_newest(f);
        me.note_depth();
        self.busy.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wake `whom` (see [`PoolState::wake_one`]) unless a worker is
    /// searching: it will find the work, or rescan before it sleeps.
    fn wake_unless_searching(&self, whom: Wake) {
        if whom != Wake::Nobody && self.searching.load(Ordering::SeqCst) == 0 {
            self.wake(whom);
        }
    }

    fn wake(&self, whom: Wake) {
        match whom {
            Wake::Nobody => {}
            Wake::Sleeper => {
                self.work_cv.notify_one();
            }
            Wake::Poller => self.wake_poller(),
        }
    }

    fn wake_poller(&self) {
        if let Some(r) = self.reactor_ref() {
            r.wake();
        }
    }

    /// Wake every sleeper: the pool is finished or shutting down.
    fn wake_all(&self, polling: bool) {
        self.work_cv.notify_all();
        if polling {
            self.wake_poller();
        }
    }

    /// Producer half of the Dekker handshake: after publishing work to a
    /// run queue or hot slot, wake one sleeper unless a searcher is live.
    fn notify_work(&self) {
        fence(Ordering::SeqCst);
        if self.searching.load(Ordering::Relaxed) > 0 {
            return; // the searcher will find it, or rescan before sleeping
        }
        if self.parked_hint.load(Ordering::Relaxed) == 0 {
            return; // nobody is asleep (or they are mid-rescan and will see it)
        }
        let wake = self.central.lock().wake_one();
        self.wake(wake);
    }

    /// Injector, every run queue, every hot slot — the consumer half of the
    /// Dekker handshake, run under the central lock after publishing
    /// `parked_hint`. The hot slots are scanned too, so a woken fiber in
    /// one is never slept through.
    fn any_work_visible(&self, st: &PoolState) -> bool {
        !st.injector.is_empty()
            || self
                .slots
                .iter()
                .any(|s| s.queue.len() > 0 || s.hot_occupied())
    }

    /// No work anywhere: sleep until notified — in the reactor's
    /// `epoll_wait` if the pool has a reactor and no other worker sleeps
    /// there, else on the condvar — or, while another worker runs a fiber,
    /// for at most [`BOUNDED_SLEEP`]. Returns `true` when the worker should
    /// exit (pool shut down and drained).
    fn park_worker(&self, slot: usize) -> bool {
        // Socket readiness first: anything ready becomes queued work that
        // the Dekker rescan below will see.
        self.poll_reactor();
        let mut st = self.central.lock();
        if st.shutdown && st.alive == 0 {
            st.workers -= 1;
            return true;
        }
        // Dekker sleep: publish ourselves, then rescan everything under
        // the central lock. Either a producer sees `parked_hint` and
        // notifies, or we see its push here and skip the sleep.
        st.parked += 1;
        self.parked_hint.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if self.any_work_visible(&st) || (st.shutdown && st.alive == 0) {
            st.parked -= 1;
            self.parked_hint.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        let stats = &self.slots[slot].stats;
        stats.parks.fetch_add(1, Ordering::Relaxed);
        // While another worker runs a fiber, wake after a bounded time:
        // that fiber may have left a hot fiber behind it, or the poller's
        // job. A fully idle pool sleeps until woken.
        let bound = (self.busy.load(Ordering::SeqCst) > 0).then_some(BOUNDED_SLEEP);
        if bound.is_some() {
            self.bounded.fetch_add(1, Ordering::SeqCst);
        }
        let mut ready = None;
        match self.reactor_ref() {
            Some(r) if !st.polling => {
                st.polling = true;
                drop(st);
                ready = Some(r.wait(bound));
                st = self.central.lock();
                st.polling = false;
            }
            _ => match bound {
                Some(d) => {
                    self.work_cv.wait_for(&mut st, d);
                }
                None => self.work_cv.wait(&mut st),
            },
        }
        if bound.is_some() {
            self.bounded.fetch_sub(1, Ordering::SeqCst);
        }
        st.parked -= 1;
        self.parked_hint.fetch_sub(1, Ordering::SeqCst);
        drop(st);
        stats.unparks.fetch_add(1, Ordering::Relaxed);
        if let Some(keys) = ready {
            self.take_ready(keys);
        }
        false
    }

    /// Queue the fibers of park keys the reactor returned to this worker,
    /// as any unpark from a worker is: the first runs next here, the rest
    /// are surplus. Answers whether there was a fiber.
    fn take_ready(&self, keys: impl IntoIterator<Item = usize>) -> bool {
        let fibers = keys.into_iter().flat_map(|k| self.waits.wake(k).fibers());
        self.dispatch_unparked(fibers, false)
    }

    /// The reactor, if one has been instantiated (the net layer does that
    /// through [`Exec::reactor`] when a fiber first waits on a socket).
    fn reactor_ref(&self) -> Option<&Arc<reactor::Reactor>> {
        self.reactor.get().and_then(|o| o.as_ref())
    }

    /// Drain socket readiness and expired timers into the run queues without
    /// blocking, and answer whether that readied a fiber. Runs at worker
    /// poll points (pre-sleep and the fair tick); the pre-sleep call sits
    /// *before* the quiescence computation and the Dekker rescan, so
    /// readiness observed here becomes visible queued work and a ready
    /// socket can never fake an idle pool.
    fn poll_reactor(&self) -> bool {
        self.reactor_ref()
            .is_some_and(|r| self.take_ready(r.poll()))
    }

    /// The slot of the calling worker, if it is a worker of this pool.
    fn my_slot(&self) -> Option<usize> {
        WORKER_ID
            .with(|c| c.get())
            .and_then(|(pool, i)| (pool == self as *const PooledExec as usize).then_some(i))
    }

    /// A fair tick at a yield point of a fiber on worker `slot`: polls the
    /// reactor and moves injected work to the run queue, and if that found
    /// work for this worker, the fiber yields to it (`run_fiber` queues it
    /// behind). Out of line, so that the other ticks save no registers.
    #[cold]
    #[inline(never)]
    fn fair_yield_point(&self, slot: usize) {
        let me = &self.slots[slot];
        let readied = self.poll_reactor();
        if let Some(f) = self.pop_injector(slot) {
            me.queue.push([f]);
        }
        if readied || me.queue.len() > 0 {
            fiber::switch_to_worker();
        }
    }

    /// Route freshly unparked fibers to a run queue. When the waker is a
    /// worker of this pool, the first fiber takes its hot slot (it is the
    /// consumer of data the waker just produced — the warmest possible
    /// dispatch) and the rest go to its run queue; a sleeper is woken only
    /// for that surplus, a displaced hot fiber or a second woken one. A fiber
    /// that wakes a fiber and `goes_on` running while workers sleep and none
    /// of them sleeps bounded makes the first surplus too: it may compute
    /// for as long as it likes, and nobody would come for its hot slot
    /// meanwhile. (A reactor poll does not go on: its worker dispatches
    /// next, or its fiber yields to what it readied.) Anything
    /// else — foreign threads, other pools' fibers — goes through the
    /// injector and wakes one sleeper. No fiber, no work: nothing is locked
    /// and nobody is woken. Answers whether there was a fiber.
    pub(super) fn dispatch_unparked(
        &self,
        fibers: impl IntoIterator<Item = Box<fiber::Fiber>>,
        goes_on: bool,
    ) -> bool {
        let mut fibers = fibers.into_iter();
        let Some(first) = fibers.next() else {
            return false;
        };
        match self.my_slot() {
            Some(i) => {
                let me = &self.slots[i];
                // A fiber waker may compute for as long as it likes: with
                // workers asleep and none of them bounded, nobody would
                // come for its hot slot.
                let unattended = goes_on
                    && self.parked_hint.load(Ordering::SeqCst) > 0
                    && self.bounded.load(Ordering::SeqCst) == 0;
                let spare = if unattended {
                    Some(first)
                } else {
                    me.put_hot(first)
                };
                let mut surplus = spare.into_iter().chain(fibers).peekable();
                let any = surplus.peek().is_some();
                if any {
                    me.queue.push(surplus);
                }
                me.note_depth();
                if any {
                    self.notify_work();
                }
            }
            None => {
                let mut st = self.central.lock();
                let mut n = 0;
                for f in std::iter::once(first).chain(fibers) {
                    st.injector.push_back(f);
                    n += 1;
                }
                st.injector_pushes += n;
                st.foreign_unparks += n;
                let wake = st.wake_one();
                drop(st);
                self.wake_unless_searching(wake);
            }
        }
        true
    }
}

impl Exec for PooledExec {
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    fn spawn(&self, name: &str, body: Box<dyn FnOnce() + Send>) {
        let locals = TaskLocals::new(
            name,
            true,
            self.self_ref.get().expect("self_ref set in new()").clone(),
        );
        let f = fiber::Fiber::new(locals, body);
        let mut st = self.central.lock();
        st.alive += 1;
        st.injector.push_back(f);
        st.injector_pushes += 1;
        // Workers start lazily, one per spawn, until every slot is owned.
        let grow = (st.workers < self.target && !st.shutdown).then_some(st.workers);
        if grow.is_some() {
            st.workers += 1;
        }
        let wake = st.wake_one();
        drop(st);
        if let Some(slot) = grow {
            self.spawn_worker(slot);
        }
        self.wake_unless_searching(wake);
    }

    #[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
    fn spawn(&self, name: &str, body: Box<dyn FnOnce() + Send>) {
        // Thread-per-task fallback: parking uses the thread-waiter path.
        let locals = TaskLocals::new(
            name,
            true,
            self.self_ref.get().expect("self_ref set in new()").clone(),
        );
        std::thread::Builder::new()
            .name(format!("kpn:{name}"))
            .spawn(move || {
                super::set_current(Some(locals));
                body();
            })
            .expect("spawn process thread");
    }

    fn park_token(&self, key: usize) -> u64 {
        self.waits.token(key)
    }

    fn park(&self, key: usize, token: u64, deadline: Option<Instant>) -> Result<bool> {
        if self.is_own_fiber() {
            // The deadline becomes a reactor timer; then ask the worker to
            // file us once our stack is off the CPU.
            if let Some(deadline) = deadline {
                if let Some(reactor) = self.reactor() {
                    reactor.add_timer(deadline, key);
                }
            }
            super::park_fiber(ParkRequest::Keyed(key, token));
            return Ok(deadline.is_some_and(|d| Instant::now() >= d));
        }
        // Foreign thread (or another pool's fiber): the thread half.
        Ok(self.waits.wait(key, token, deadline))
    }

    fn unpark_all(&self, key: usize) {
        self.dispatch_unparked(self.waits.wake(key).fibers(), fiber::on_fiber());
    }

    /// One tick of the worker a fiber of this pool runs on (module docs,
    /// "One fair tick per worker"); anywhere else, nothing. Never inlined
    /// (see `exec::park_fiber`): it reads which worker the fiber runs
    /// on, which changes across a park.
    #[inline(never)]
    fn yield_point(&self) {
        if let Some(slot) = self.my_slot() {
            if self.slots[slot].tick() && fiber::on_fiber() {
                self.fair_yield_point(slot);
            }
        }
    }

    fn shutdown(&self) {
        let mut st = self.central.lock();
        st.shutdown = true;
        let polling = st.polling;
        drop(st);
        self.wake_all(polling);
    }

    fn scheduler_stats(&self) -> Option<SchedulerStats> {
        let (injector_pushes, injector_depth, foreign_unparks, current_workers) = {
            let st = self.central.lock();
            (
                st.injector_pushes,
                st.injector.len(),
                st.foreign_unparks,
                st.workers,
            )
        };
        let workers = self
            .slots
            .iter()
            .map(|s| {
                let depth = s.queue.len() as u64 + u64::from(s.hot_occupied());
                s.stats.snapshot(depth)
            })
            .collect();
        Some(SchedulerStats {
            target_workers: self.target,
            current_workers,
            injector_pushes,
            injector_depth,
            foreign_unparks,
            reactor: self.reactor_ref().map(|r| r.stats()),
            workers,
        })
    }

    fn reactor(&self) -> Option<Arc<reactor::Reactor>> {
        self.reactor.get_or_init(reactor::Reactor::new).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    fn wait_until(deadline_s: u64, what: &str, mut pred: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(deadline_s);
        while !pred() {
            assert!(Instant::now() < deadline, "timed out waiting: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The queue's length, checked against its lock-free copy.
    fn checked_len<T>(q: &RunQueue<T>) -> usize {
        let len = q.queue.lock().len();
        assert_eq!(q.len(), len, "the length copy follows the queue");
        len
    }

    #[test]
    fn run_queue_pops_newest_and_steals_the_older_half() {
        let q = RunQueue::new();
        q.push(0..5);
        assert_eq!(checked_len(&q), 5);
        assert_eq!(q.pop(), Some(4), "the owner pops the newest");
        assert_eq!(checked_len(&q), 4);
        assert_eq!(q.steal_half(), [0, 1], "a steal takes the older half");
        assert_eq!(checked_len(&q), 2);
        q.push([5, 6, 7]);
        assert_eq!(checked_len(&q), 5);
        assert_eq!(q.steal_half(), [2, 3, 5], "an odd half rounds up");
        assert_eq!(checked_len(&q), 2);
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.steal_half(), [6]);
        assert_eq!(checked_len(&q), 0);
        assert_eq!(q.pop(), None);
        assert!(q.steal_half().is_empty());
        assert_eq!(checked_len(&q), 0);
        q.push_behind_newest(8);
        q.push([9, 10]);
        q.push_behind_newest(11);
        assert_eq!(checked_len(&q), 4);
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(11), "pushed behind the newest, popped next");
        assert_eq!(q.steal_half(), [8]);
        assert_eq!(q.pop(), Some(9));
    }

    /// The owner pushes and pops while two thieves steal: every item is
    /// delivered exactly once. Fewer items under Miri.
    #[test]
    fn concurrent_steal_delivers_each_item_once() {
        use std::sync::atomic::AtomicBool;
        #[cfg(miri)]
        const ITEMS: usize = 200;
        #[cfg(not(miri))]
        const ITEMS: usize = 20_000;
        let q = RunQueue::new();
        let seen: Vec<AtomicUsize> = (0..ITEMS).map(|_| AtomicUsize::new(0)).collect();
        let take = |i: usize| seen[i].fetch_add(1, Ordering::Relaxed);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| loop {
                    let stolen = q.steal_half();
                    if stolen.is_empty() {
                        if done.load(Ordering::SeqCst) {
                            return;
                        }
                        std::thread::yield_now();
                    }
                    for i in stolen {
                        take(i);
                    }
                });
            }
            for i in (0..ITEMS).step_by(3) {
                q.push(i..(i + 3).min(ITEMS));
                if let Some(i) = q.pop() {
                    take(i);
                }
            }
            while let Some(i) = q.pop() {
                take(i);
            }
            done.store(true, Ordering::SeqCst);
        });
        for (i, n) in seen.iter().enumerate() {
            assert_eq!(n.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn pooled_runs_many_tasks_on_one_worker() {
        let ex = PooledExec::new(1);
        let n = 500;
        let count = Arc::new(AtomicUsize::new(0));
        for i in 0..n {
            let c = count.clone();
            ex.spawn(
                &format!("t{i}"),
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        wait_until(30, "pool drains 500 tasks", || {
            count.load(Ordering::SeqCst) >= n
        });
        ex.shutdown();
    }

    #[test]
    fn pooled_park_unpark_across_tasks() {
        // One fiber parks; another unparks it. With a single worker this
        // only completes if parking actually releases the worker.
        let ex = PooledExec::new(1);
        let flag = Arc::new(AtomicUsize::new(0));
        let key = 0x4000;
        let (f1, f2) = (flag.clone(), flag.clone());
        let (e1, e2) = (ex.clone(), ex.clone());
        ex.spawn(
            "parker",
            Box::new(move || {
                while f1.load(Ordering::SeqCst) == 0 {
                    let token = e1.park_token(key);
                    if f1.load(Ordering::SeqCst) != 0 {
                        break;
                    }
                    e1.park(key, token, None).unwrap();
                }
                f1.store(2, Ordering::SeqCst);
            }),
        );
        ex.spawn(
            "waker",
            Box::new(move || {
                f2.store(1, Ordering::SeqCst);
                e2.unpark_all(key);
            }),
        );
        wait_until(30, "park/unpark handshake", || {
            flag.load(Ordering::SeqCst) == 2
        });
        ex.shutdown();
    }

    #[test]
    fn pooled_park_unpark_many_pairs_four_workers() {
        // Eight parker/waker pairs on distinct keys across four workers:
        // exercises hot-slot dispatch, cross-worker unparks, and the
        // sleep/wake protocol under real contention.
        let ex = PooledExec::new(4);
        let done = Arc::new(AtomicUsize::new(0));
        const PAIRS: usize = 8;
        for p in 0..PAIRS {
            let key = 0x6000 + p * 0x100;
            let flag = Arc::new(AtomicUsize::new(0));
            let (f1, f2) = (flag.clone(), flag.clone());
            let (e1, e2) = (ex.clone(), ex.clone());
            let d = done.clone();
            ex.spawn(
                &format!("parker{p}"),
                Box::new(move || {
                    while f1.load(Ordering::SeqCst) == 0 {
                        let token = e1.park_token(key);
                        if f1.load(Ordering::SeqCst) != 0 {
                            break;
                        }
                        e1.park(key, token, None).unwrap();
                    }
                    d.fetch_add(1, Ordering::SeqCst);
                }),
            );
            ex.spawn(
                &format!("waker{p}"),
                Box::new(move || {
                    f2.store(1, Ordering::SeqCst);
                    e2.unpark_all(key);
                }),
            );
        }
        wait_until(30, "all pairs complete", || {
            done.load(Ordering::SeqCst) == PAIRS
        });
        ex.shutdown();
    }

    // The remaining tests need real fibers (scheduler counters do not
    // exist on the thread-per-task fallback).
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    #[test]
    fn scheduler_stats_expose_per_worker_counters() {
        let ex = PooledExec::new(2);
        let n = 300usize;
        let count = Arc::new(AtomicUsize::new(0));
        for i in 0..n {
            let c = count.clone();
            ex.spawn(
                &format!("t{i}"),
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        wait_until(30, "tasks drain", || count.load(Ordering::SeqCst) >= n);
        let s = ex.scheduler_stats().unwrap();
        assert_eq!(s.target_workers, 2);
        assert_eq!(s.workers.len(), 2, "one stats row per slot");
        assert!(s.injector_pushes >= n as u64, "spawns route via injector");
        let t = s.totals();
        assert_eq!(
            t.fiber_switches, n as u64,
            "every task dispatched exactly once"
        );
        // Acquisition counters cover every dispatch, but batch moves count
        // twice (once leaving the injector or victim, once popped from the
        // local deque), so this is a lower bound, not an identity.
        assert!(
            t.injector_pops + t.local_pops + t.hot_hits + t.stolen_fibers >= n as u64,
            "dispatch sources must cover all dispatches: {t:?}"
        );
        ex.shutdown();
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    #[test]
    fn scheduler_counters_conserve_dispatches() {
        // Conservation of fibers over a fully drained seeded run on four
        // workers. Every fiber acquisition is counted exactly once per
        // move (hot slot / local deque / injector take / steal), every
        // dispatch exactly once, so with all queues empty at the end:
        //
        //   sources := hot_hits + local_pops + injector_pops + stolen_fibers
        //   sources = dispatches + transits
        //
        // where a transit is a fiber changing queues without running (an
        // injector batch move or a steal-sweep extra). Each transit lands
        // the fiber in a deque, and each landing is later drained by a
        // local pop or another steal — which bounds the slack from both
        // sides instead of only asserting "sources ≥ dispatches".
        let ex = PooledExec::new(4);
        let n = 600usize;
        let count = Arc::new(AtomicUsize::new(0));
        let mut seed = 0x5EEDu64;
        for i in 0..n {
            // Seeded unequal task lengths so the injector batches and the
            // deques run imbalanced — the regime steals exist for.
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let spin = (seed >> 60) as usize * 40;
            let c = count.clone();
            ex.spawn(
                &format!("t{i}"),
                Box::new(move || {
                    for _ in 0..spin {
                        std::hint::spin_loop();
                    }
                    c.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        wait_until(30, "seeded workload drains", || {
            count.load(Ordering::SeqCst) >= n
        });
        let s = ex.scheduler_stats().unwrap();
        let t = s.totals();
        let n = n as u64;
        assert_eq!(t.fiber_switches, n, "each task dispatches exactly once");
        let sources = t.hot_hits + t.local_pops + t.injector_pops + t.stolen_fibers;
        assert!(
            sources >= n,
            "acquisitions must cover every dispatch: {sources} < {n} ({t:?})"
        );
        assert!(
            sources <= n + t.local_pops + t.stolen_fibers,
            "over-count exceeds possible queue transits: {t:?}"
        );
        // Internal consistency of the steal and injector columns.
        assert!(t.steal_successes <= t.steal_attempts, "{t:?}");
        assert!(t.stolen_fibers >= t.steal_successes, "{t:?}");
        assert!(s.injector_pushes >= n, "every spawn routes via the injector");
        assert!(
            t.injector_pops <= s.injector_pushes,
            "cannot take more fibers than were ever pushed: {t:?}"
        );
        assert_eq!(s.injector_depth, 0, "drained run leaves an empty injector");
        ex.shutdown();
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    #[test]
    fn a_timer_armed_beside_a_long_fiber_ends_on_time() {
        // Two workers: one spins in a long fiber while the other sleeps in
        // the reactor until a socket wakes one fiber for it. That fiber
        // then sleeps 10 ms on a reactor timer, which must end near its
        // deadline, not when the spinning fiber gives its worker back.
        use std::io::{ErrorKind, Read, Write};
        use std::os::fd::AsRawFd;
        use std::os::unix::net::UnixStream;
        use std::sync::atomic::AtomicBool;
        let ex = PooledExec::new(2);
        let reactor = ex.reactor().expect("a reactor where fibers exist");
        let stop = Arc::new(AtomicBool::new(false));
        let spinning = Arc::new(AtomicBool::new(false));
        let (s, sp) = (stop.clone(), spinning.clone());
        ex.spawn(
            "long",
            Box::new(move || {
                sp.store(true, Ordering::SeqCst);
                let cap = Instant::now() + Duration::from_secs(5);
                while !s.load(Ordering::SeqCst) && Instant::now() < cap {
                    std::hint::spin_loop();
                }
            }),
        );
        wait_until(30, "the long fiber runs", || spinning.load(Ordering::SeqCst));
        let (mut tx, mut rx) = UnixStream::pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        let armed = Arc::new(AtomicBool::new(false));
        let (a, e) = (armed.clone(), ex.clone());
        let (slept_tx, slept) = std::sync::mpsc::channel();
        ex.spawn(
            "sleeper",
            Box::new(move || {
                let key = 0x7000;
                loop {
                    let token = e.park_token(key);
                    match rx.read(&mut [0u8]) {
                        Ok(1) => break,
                        Err(err) if err.kind() == ErrorKind::WouldBlock => {}
                        other => panic!("unexpected read: {other:?}"),
                    }
                    reactor.arm(rx.as_raw_fd(), key, reactor::Interest::Read).unwrap();
                    a.store(true, Ordering::SeqCst);
                    e.park(key, token, None).unwrap();
                }
                reactor.detach(rx.as_raw_fd());
                let t = Instant::now();
                e.sleep(Duration::from_millis(10));
                let _ = slept_tx.send(t.elapsed());
            }),
        );
        wait_until(30, "the sleeper waits on its socket", || {
            armed.load(Ordering::SeqCst)
        });
        // Let its worker reach the reactor's blocked wait.
        std::thread::sleep(Duration::from_millis(20));
        tx.write_all(b"x").unwrap();
        let slept = slept.recv_timeout(Duration::from_secs(10));
        stop.store(true, Ordering::SeqCst);
        let slept = slept.expect("the sleeper reports");
        assert!(
            slept < Duration::from_millis(500),
            "a 10 ms sleep took {slept:?} while another worker was busy"
        );
        ex.shutdown();
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    #[test]
    fn a_looping_fiber_yields_only_to_work_waiting_for_its_worker() {
        // One worker: a fiber that loops on yield points and never waits,
        // beside one parked on a socket through the reactor. While nothing
        // else wants the worker the looper keeps it, dispatched once; once
        // the socket is readable, the parked fiber runs while the looper is
        // still looping.
        use std::io::{ErrorKind, Read, Write};
        use std::os::fd::AsRawFd;
        use std::os::unix::net::UnixStream;
        use std::sync::atomic::AtomicBool;
        let ex = PooledExec::new(1);
        let reactor = ex.reactor().expect("a reactor where fibers exist");
        let (mut tx, mut rx) = UnixStream::pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        let armed = Arc::new(AtomicBool::new(false));
        let looping = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let (read_tx, read) = std::sync::mpsc::channel();
        let (a, l, e) = (armed.clone(), looping.clone(), ex.clone());
        ex.spawn(
            "reader",
            Box::new(move || {
                let key = 0x9000;
                loop {
                    let token = e.park_token(key);
                    match rx.read(&mut [0u8]) {
                        Ok(1) => break,
                        Err(err) if err.kind() == ErrorKind::WouldBlock => {}
                        other => panic!("unexpected read: {other:?}"),
                    }
                    reactor
                        .arm(rx.as_raw_fd(), key, reactor::Interest::Read)
                        .unwrap();
                    a.store(true, Ordering::SeqCst);
                    e.park(key, token, None).unwrap();
                }
                reactor.detach(rx.as_raw_fd());
                let _ = read_tx.send(l.load(Ordering::SeqCst));
            }),
        );
        wait_until(30, "the reader waits on its socket", || {
            armed.load(Ordering::SeqCst)
        });
        let passed = Arc::new(AtomicU64::new(0));
        let (l, s, p, e) = (looping.clone(), stop.clone(), passed.clone(), ex.clone());
        ex.spawn(
            "looper",
            Box::new(move || {
                l.store(true, Ordering::SeqCst);
                let cap = Instant::now() + Duration::from_secs(5);
                while !s.load(Ordering::SeqCst) && Instant::now() < cap {
                    e.yield_point();
                    p.fetch_add(1, Ordering::Relaxed);
                }
                l.store(false, Ordering::SeqCst);
            }),
        );
        wait_until(30, "the looper passes 100 fair ticks", || {
            passed.load(Ordering::Relaxed) > 100 * FAIR_TICK
        });
        let switches = || ex.scheduler_stats().unwrap().totals().fiber_switches;
        assert_eq!(switches(), 2, "with no work waiting, each fiber ran once");
        tx.write_all(b"x").unwrap();
        let looped_on = read.recv_timeout(Duration::from_secs(10));
        stop.store(true, Ordering::SeqCst);
        assert_eq!(
            looped_on,
            Ok(true),
            "the reader ran while the looper was still looping"
        );
        ex.shutdown();
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    #[test]
    fn a_relay_on_two_workers_stays_on_one() {
        // The `relay_local` shape: three fibers in a cycle of three local
        // channels with one token in flight. Each hop wakes one fiber into
        // its waker's empty hot slot — no surplus — so the second worker
        // sleeps through the run instead of stealing a fiber per round trip.
        use crate::channel::channel_with_parts;
        const ROUND_TRIPS: u64 = 20_000;
        let start = Instant::now();
        let ex = PooledExec::new(2);
        let exec: Arc<dyn Exec> = ex.clone();
        let [(w0, r0), (w1, r1), (w2, r2)] =
            [(); 3].map(|_| channel_with_parts(64, None, exec.clone(), None).unwrap());
        // client → relay1 → relay2 → client
        for (name, mut r, mut w) in [("relay1", r0, w1), ("relay2", r1, w2)] {
            ex.spawn(
                name,
                Box::new(move || {
                    let mut token = [0u8; 8];
                    while r.read_exact(&mut token).is_ok() {
                        w.write_all(&token).unwrap();
                    }
                }),
            );
        }
        let (mut w, mut r) = (w0, r2);
        let (done_tx, done) = std::sync::mpsc::channel();
        ex.spawn(
            "client",
            Box::new(move || {
                let mut token = [0u8; 8];
                for i in 0..ROUND_TRIPS {
                    w.write_all(&i.to_le_bytes()).unwrap();
                    r.read_exact(&mut token).unwrap();
                    assert_eq!(u64::from_le_bytes(token), i);
                }
                let _ = done_tx.send(());
            }),
        );
        done.recv_timeout(Duration::from_secs(60))
            .expect("the relay completes");
        let t = ex.scheduler_stats().unwrap().totals();
        let ms = start.elapsed().as_millis() as u64;
        // While the relay runs the idle worker sleeps bounded (1 ms), so
        // the wake rule allows it one expiry per millisecond of the run,
        // and each expiry one steal of the hot fiber; a woken worker would
        // park and steal about once per round trip.
        assert!(
            t.steal_successes < 200 + ms,
            "{ROUND_TRIPS} round trips in {ms} ms: {t:?}"
        );
        assert!(
            t.parks < 200 + ms,
            "{ROUND_TRIPS} round trips in {ms} ms: {t:?}"
        );
        ex.shutdown();
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    #[test]
    fn a_wake_of_many_fibers_never_spills_to_the_injector() {
        // A fiber unparks 1 000 fibers parked on one key. They go to its
        // worker's hot slot and run queue, which has no capacity, so only
        // the spawns pass through the injector.
        const PARKERS: usize = 1000;
        let ex = PooledExec::new(2);
        let key = 0x8000;
        let woken = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..PARKERS {
            let (e, w, d) = (ex.clone(), woken.clone(), done.clone());
            ex.spawn(
                &format!("parker{i}"),
                Box::new(move || {
                    while w.load(Ordering::SeqCst) == 0 {
                        let token = e.park_token(key);
                        if w.load(Ordering::SeqCst) != 0 {
                            break;
                        }
                        e.park(key, token, None).unwrap();
                    }
                    d.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        // Each parker has been dispatched (nothing wakes them, so once
        // each) and no worker is still filing one: all wait on the key.
        wait_until(30, "every parker parks", || {
            let switches = ex.scheduler_stats().unwrap().totals().fiber_switches;
            switches >= PARKERS as u64 && ex.busy.load(Ordering::SeqCst) == 0
        });
        let (e, w) = (ex.clone(), woken.clone());
        ex.spawn(
            "waker",
            Box::new(move || {
                w.store(1, Ordering::SeqCst);
                e.unpark_all(key);
            }),
        );
        wait_until(30, "every parker ends", || {
            done.load(Ordering::SeqCst) == PARKERS
        });
        let s = ex.scheduler_stats().unwrap();
        assert_eq!(
            s.injector_pushes,
            PARKERS as u64 + 1,
            "only the spawns pass through the injector: {:?}",
            s.totals()
        );
        ex.shutdown();
    }
}
