//! [`PooledExec`]: M:N execution — many fibers, a fixed worker pool — with
//! per-worker work-stealing run queues.
// Fibers circulate as `Box<Fiber>` everywhere: the deque and hot slot store
// them as raw box pointers in atomic slots, so `Vec<Box<Fiber>>` batches
// hand the same allocation through — unboxing to `Vec<Fiber>` would re-box
// at every queue boundary.
#![allow(clippy::vec_box)]
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
//!    still in cache, and no lock is taken. A budget of [`HOT_BUDGET`]
//!    consecutive hot dispatches bounds starvation of the other queues.
//! 2. **Local deque** — a bounded Chase–Lev deque ([`super::deque`]),
//!    LIFO for the owner, stolen FIFO from the top by idle workers.
//!    Overflow spills to the injector.
//! 3. **Injector** — a global `VecDeque` under the central mutex, fed by
//!    `spawn`, by unparks from threads that are not workers of this pool,
//!    and by deque overflow. Workers poll it on a fair tick
//!    (every [`FAIR_TICK`]-th dispatch, and before stealing) so injected
//!    work cannot starve behind a busy local queue.
//!
//! An idle worker steals: it sweeps the other workers' deques (taking half
//! the victim's queue on success, oldest first), then their hot slots.
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
//! deques, all hot slots — while holding the central lock; a producer
//! pushes work first and then checks `parked_hint` behind a SeqCst fence.
//! Whichever ordering the race resolves to, either the producer sees the
//! sleeper (and notifies) or the sleeper sees the work (and does not
//! sleep). The rescan is also what makes the hot slot safe with respect to
//! Parks' deadlock detection: the monitor's quiescence tick only runs when
//! every queue — hot slots included — was observed empty, so a woken-but-
//! unscheduled fiber can never masquerade as global quiescence (see
//! DESIGN.md §5g).
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
//! Sleeps are indefinite except while some hooked network has live
//! processes, when a 1 ms heartbeat keeps the monitors' idle hooks ticking
//! (see [`PooledExec::run_hooks`]). That heartbeat is also what bounds a
//! hot fiber nobody was woken for: if its waker stays in a long fiber, a
//! sleeper woken by the heartbeat steals it from the hot slot, and a
//! socket or timer the busy poller left behind is polled by that sleeper.
//! A pool with no live network relies on the waker switching out — a
//! node's accept loop, sessions and watchdog each park on their next
//! socket or timer wait.
//!
//! Every worker keeps relaxed-atomic counters (dispatch sources, steal
//! traffic, parks); [`Exec::scheduler_stats`] snapshots them without
//! perturbing the scheduler.

use super::deque::{Steal, WorkDeque};
use super::{
    fiber, monotonic, reactor, set_current, weak_dyn, with_current, Exec, IdleHook, SchedulerStats,
    TaskLocals, WaitTable, WorkerStats,
};
use crate::error::Result;
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Consecutive hot-slot dispatches allowed before the worker gives its
/// deque and the injector a turn. Bounds latency for cold work while
/// keeping producer→consumer chains on the fast path.
const HOT_BUDGET: u32 = 32;

/// Every FAIR_TICK-th dispatch drains the reactor and the injector before
/// local work, so a ready socket's fiber and globally submitted fibers make
/// progress even on a saturated worker. Prime, so the fair tick does not
/// phase-lock with request patterns.
const FAIR_TICK: u64 = 61;

/// Per-worker deque capacity; overflow spills to the injector.
const DEQUE_CAPACITY: usize = 256;

/// How many extra fibers a worker moves from the injector into its own
/// deque per injector visit (beyond the one it runs), amortizing the
/// central lock.
const INJECTOR_BATCH: usize = 16;

/// How often the idle hooks — the deadlock monitors' ticks — run while some
/// hooked network has live processes: a sleeping worker wakes for them, a
/// busy one runs them at its fair tick.
const QUIESCENT_HEARTBEAT: Duration = Duration::from_millis(1);

thread_local! {
    /// `(pool address, slot index)` for pool-worker threads. Lets
    /// `unpark_all` detect "the waker is a worker of this very pool"
    /// without any lock.
    static WORKER_ID: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Cumulative per-slot counters; relaxed atomics, observation only.
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

/// One worker's scheduling state. Slots are fixed at pool creation
/// (`target` of them) and worker `i` owns slot `i` from the spawn that
/// started it until the pool shuts down.
struct WorkerSlot {
    deque: WorkDeque<fiber::Fiber>,
    /// LIFO hot slot: a raw `Box<Fiber>` pointer, null when empty. Filled
    /// only by the owning worker; drained by the owner *or* by thieves
    /// (atomic swap either way, so ownership transfer is race-free).
    hot: AtomicPtr<fiber::Fiber>,
    stats: WorkerCounters,
}

impl WorkerSlot {
    fn new() -> Self {
        WorkerSlot {
            deque: WorkDeque::new(DEQUE_CAPACITY),
            hot: AtomicPtr::new(std::ptr::null_mut()),
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

    fn hot_occupied(&self) -> bool {
        !self.hot.load(Ordering::SeqCst).is_null()
    }

    fn note_depth(&self) {
        let d = self.deque.len() as u64 + u64::from(self.hot_occupied());
        self.stats.max_queue_depth.fetch_max(d, Ordering::Relaxed);
    }
}

impl Drop for WorkerSlot {
    fn drop(&mut self) {
        // The deque drains itself; the hot slot is ours to free.
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
    /// the central lock; the quiescence check tolerates the resulting
    /// in-transit raciness (spurious monitor ticks are re-verified by the
    /// monitor, and the quiescent poll has a timeout).
    busy: AtomicUsize,
    /// Workers currently sweeping for steals; submissions skip their
    /// wakeup while one is live (it will find the work or rescan).
    searching: AtomicUsize,
    /// Lock-free shadow of `PoolState::parked` for the producer-side
    /// Dekker check.
    parked_hint: AtomicUsize,
    /// Both halves: this pool's fibers are filed under their key, every
    /// other caller waits on the condvar.
    pub(super) waits: WaitTable,
    idle_hooks: Mutex<Vec<IdleHook>>,
    /// Some hook answered at its last run that its network has live
    /// processes, or was added since: the heartbeat runs while this is set.
    hooks_live: AtomicBool,
    /// When the hooks last ran, in `monotonic()` nanoseconds.
    last_tick: AtomicU64,
    /// A worker is running the hooks.
    ticking: AtomicBool,
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
            waits: WaitTable::default(),
            idle_hooks: Mutex::new(Vec::new()),
            hooks_live: AtomicBool::new(false),
            last_tick: AtomicU64::new(0),
            ticking: AtomicBool::new(false),
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
        let mut hot_streak: u32 = 0;
        let mut tick: u64 = 0;
        loop {
            if let Some(f) = self.find_work(slot, &mut hot_streak, &mut tick) {
                self.run_fiber(f, slot, &mut worker_ctx);
            } else if self.park_worker(slot) {
                WORKER_ID.with(|c| c.set(None));
                return;
            }
        }
    }

    /// Next fiber to run, in cache-warmth order: hot slot, local deque,
    /// injector, steal. The fair tick and the hot budget invert the order
    /// so no source starves.
    fn find_work(
        &self,
        slot: usize,
        hot_streak: &mut u32,
        tick: &mut u64,
    ) -> Option<Box<fiber::Fiber>> {
        *tick += 1;
        let me = &self.slots[slot];
        let fair = tick.is_multiple_of(FAIR_TICK);
        if !fair && *hot_streak < HOT_BUDGET {
            if let Some(f) = me.take_hot() {
                *hot_streak += 1;
                me.stats.hot_hits.fetch_add(1, Ordering::Relaxed);
                return Some(f);
            }
        } else if fair {
            // Fair tick: reactor readiness and global work first, so a
            // ready socket's fiber gets scheduled even on a worker that
            // never goes idle; and the monitors' ticks, so a network whose
            // tasks all wait is not held up by another that streams.
            self.poll_reactor();
            if self.heartbeat_due() {
                self.run_hooks();
            }
            if let Some(f) = self.pop_injector(slot) {
                *hot_streak = 0;
                return Some(f);
            }
        }
        // Budget exhausted or hot slot empty: local deque, then injector,
        // then the hot fiber after all (one bypass per HOT_BUDGET streak is
        // enough to keep every queue draining).
        if let Some(f) = me.deque.pop() {
            *hot_streak = 0;
            me.stats.local_pops.fetch_add(1, Ordering::Relaxed);
            return Some(f);
        }
        if let Some(f) = self.pop_injector(slot) {
            *hot_streak = 0;
            return Some(f);
        }
        if let Some(f) = me.take_hot() {
            *hot_streak = 1;
            me.stats.hot_hits.fetch_add(1, Ordering::Relaxed);
            return Some(f);
        }
        *hot_streak = 0;
        self.steal_work(slot)
    }

    /// Pop one fiber from the injector, moving a batch more into the
    /// caller's own deque to amortize the central lock.
    fn pop_injector(&self, slot: usize) -> Option<Box<fiber::Fiber>> {
        let me = &self.slots[slot];
        let mut st = self.central.lock();
        let first = st.injector.pop_front()?;
        let mut taken = 1u64;
        let batch = (st.injector.len() / self.slots.len()).min(INJECTOR_BATCH);
        for _ in 0..batch {
            let Some(f) = st.injector.pop_front() else { break };
            match me.deque.push(f) {
                Ok(()) => taken += 1,
                Err(f) => {
                    st.injector.push_front(f);
                    break;
                }
            }
        }
        me.note_depth();
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

    /// Steal sweep over the other workers: deques first (half the victim's
    /// queue), hot slots as a last resort. `Retry` outcomes re-run the
    /// sweep; `Empty` everywhere ends it.
    fn steal_work(&self, slot: usize) -> Option<Box<fiber::Fiber>> {
        if self.slots.len() <= 1 {
            return None; // sole worker: nobody to steal from
        }
        self.searching.fetch_add(1, Ordering::SeqCst);
        let got = self.steal_sweep(slot);
        self.searching.fetch_sub(1, Ordering::SeqCst);
        if got.is_some() && !self.slots[slot].deque.is_empty() {
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
        loop {
            let mut retry = false;
            for victim in victims() {
                me.stats.steal_attempts.fetch_add(1, Ordering::Relaxed);
                match victim.deque.steal() {
                    Steal::Success(first) => {
                        // Steal half the victim's remaining queue in one
                        // sweep; a fiber at a time would just bounce the
                        // imbalance back and forth.
                        let mut extra = 0u64;
                        let want = victim.deque.len().div_ceil(2);
                        for _ in 0..want {
                            match victim.deque.steal() {
                                Steal::Success(f) => {
                                    extra += 1;
                                    if let Err(f) = me.deque.push(f) {
                                        self.inject(vec![f]);
                                        break;
                                    }
                                }
                                _ => break,
                            }
                        }
                        me.note_depth();
                        me.stats.steal_successes.fetch_add(1, Ordering::Relaxed);
                        me.stats
                            .stolen_fibers
                            .fetch_add(1 + extra, Ordering::Relaxed);
                        return Some(first);
                    }
                    Steal::Retry => retry = true,
                    Steal::Empty => {}
                }
            }
            // Second pass: hot slots. Last resort because taking one
            // robs its owner of a cache-warm dispatch — but a hot fiber
            // whose owner is busy in a long-running fiber must stay
            // runnable.
            for victim in victims() {
                if let Some(f) = victim.take_hot() {
                    me.stats.steal_successes.fetch_add(1, Ordering::Relaxed);
                    me.stats.stolen_fibers.fetch_add(1, Ordering::Relaxed);
                    return Some(f);
                }
            }
            if !retry {
                return None;
            }
            std::hint::spin_loop();
        }
    }

    fn run_fiber(&self, mut f: Box<fiber::Fiber>, slot: usize, worker_ctx: &mut usize) {
        self.busy.fetch_add(1, Ordering::SeqCst);
        self.slots[slot]
            .stats
            .fiber_switches
            .fetch_add(1, Ordering::Relaxed);
        let prev = set_current(Some(f.locals.clone()));
        f.run(worker_ctx);
        set_current(prev);
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
        if let Some((key, token)) = fiber::PARK_REQUEST.with(|c| c.take()) {
            // Complete the park the fiber requested. Its stack is quiescent
            // now, so it is safe to hand the Box to the wait table — unless
            // the token went stale while the fiber was switching out, in
            // which case the wakeup already happened and the fiber goes
            // straight back to a run queue.
            let stale = self.waits.file(key, token, f);
            self.busy.fetch_sub(1, Ordering::SeqCst);
            if let Some(f) = stale {
                // This worker runs it next unless a hot fiber goes first.
                self.enqueue_local(slot, f);
                if self.slots[slot].hot_occupied() {
                    self.notify_work();
                }
            }
            return;
        }
        // Voluntary yield: requeue locally; this worker keeps running.
        self.enqueue_local(slot, f);
        self.busy.fetch_sub(1, Ordering::SeqCst);
    }

    /// Queue `f` on the caller's own deque, spilling to the injector when
    /// full.
    fn enqueue_local(&self, slot: usize, f: Box<fiber::Fiber>) {
        let me = &self.slots[slot];
        if let Err(f) = me.deque.push(f) {
            self.inject(vec![f]);
        } else {
            me.note_depth();
        }
    }

    /// Push fibers onto the global injector and wake a sleeper if needed.
    fn inject(&self, fibers: Vec<Box<fiber::Fiber>>) {
        let n = fibers.len() as u64;
        if n == 0 {
            return;
        }
        let mut st = self.central.lock();
        for f in fibers {
            st.injector.push_back(f);
        }
        st.injector_pushes += n;
        let wake = st.wake_one();
        drop(st);
        self.wake_unless_searching(wake);
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
    /// deque or hot slot, wake one sleeper unless a searcher is live.
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

    /// Injector, every deque, every hot slot — the consumer half of the
    /// Dekker handshake, run under the central lock after publishing
    /// `parked_hint`. The hot slots are scanned too: this is the invariant
    /// that keeps the LIFO slot from masking quiescence to the deadlock
    /// monitor (DESIGN.md §5g).
    fn any_work_visible(&self, st: &PoolState) -> bool {
        !st.injector.is_empty()
            || self
                .slots
                .iter()
                .any(|s| !s.deque.is_empty() || s.hot_occupied())
    }

    /// No work anywhere: tick the monitor if quiescent, then sleep until
    /// notified — in the reactor's `epoll_wait` if the pool has a reactor
    /// and no other worker sleeps there, else on the condvar. Returns
    /// `true` when the worker should exit (pool shut down and drained).
    fn park_worker(&self, slot: usize) -> bool {
        // Socket readiness first: anything ready becomes queued work that
        // the quiescence check and the Dekker rescan below will see.
        self.poll_reactor();
        let mut st = self.central.lock();
        if st.shutdown && st.alive == 0 {
            st.workers -= 1;
            return true;
        }
        // Quiescent (every task parked), or a heartbeat since the last
        // tick: run the idle hooks — this is where the deadlock monitor's
        // tick comes from, since parked fibers cannot honor timeouts.
        let quiesce = self.busy.load(Ordering::SeqCst) == 0 && st.alive > 0 && !st.shutdown;
        if quiesce || self.heartbeat_due() {
            drop(st);
            self.run_hooks();
            st = self.central.lock();
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
        // While a hooked network has live processes, wake on a heartbeat
        // so its monitor ticks even if no event arrives. An idle pool (a
        // node serving no graph) sleeps until woken.
        let heartbeat = self
            .hooks_live
            .load(Ordering::Relaxed)
            .then_some(QUIESCENT_HEARTBEAT);
        let mut ready = None;
        match self.reactor_ref() {
            Some(r) if !st.polling => {
                st.polling = true;
                drop(st);
                ready = Some(r.wait(heartbeat));
                st = self.central.lock();
                st.polling = false;
            }
            _ => match heartbeat {
                Some(d) => {
                    self.work_cv.wait_for(&mut st, d);
                }
                None => self.work_cv.wait(&mut st),
            },
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

    /// A hooked network has live processes and a heartbeat has passed since
    /// the hooks last ran.
    fn heartbeat_due(&self) -> bool {
        self.hooks_live.load(Ordering::Relaxed)
            && (monotonic().as_nanos() as u64)
                .saturating_sub(self.last_tick.load(Ordering::Relaxed))
                >= QUIESCENT_HEARTBEAT.as_nanos() as u64
    }

    /// Runs every idle hook — each network's monitor tick — on one worker
    /// at a time, drops the hooks of networks that are gone, and records
    /// whether any network left has live processes. The hooks run when the
    /// pool quiesces and otherwise on the heartbeat, never only when every
    /// task of every network has parked: a network's ticks do not wait for
    /// the pool's other tasks.
    fn run_hooks(&self) {
        if self.ticking.swap(true, Ordering::Acquire) {
            return;
        }
        let mut hooks = self.idle_hooks.lock();
        let mut live = false;
        hooks.retain(|hook| hook().inspect(|l| live |= l).is_some());
        self.hooks_live.store(live, Ordering::Relaxed);
        self.last_tick
            .store(monotonic().as_nanos() as u64, Ordering::Relaxed);
        drop(hooks);
        self.ticking.store(false, Ordering::Release);
    }

    /// Queue the fibers of park keys the reactor returned to this worker,
    /// as any unpark from a worker is: the first runs next here, the rest
    /// are surplus.
    fn take_ready(&self, keys: Vec<usize>) {
        let fibers: Vec<_> = keys.into_iter().flat_map(|k| self.waits.wake(k)).collect();
        if !fibers.is_empty() {
            self.dispatch_unparked(fibers);
        }
    }

    /// The reactor, if one has been instantiated (the net layer does that
    /// through [`Exec::reactor`] when a fiber first waits on a socket).
    fn reactor_ref(&self) -> Option<&Arc<reactor::Reactor>> {
        self.reactor.get().and_then(|o| o.as_ref())
    }

    /// Drain socket readiness and expired timers into the run queues without
    /// blocking. Runs at worker poll points (pre-sleep and the fair tick);
    /// the pre-sleep call sits *before* the quiescence computation and the
    /// Dekker rescan, so readiness observed here becomes visible queued
    /// work and a ready socket can never fake an idle pool.
    fn poll_reactor(&self) {
        if let Some(r) = self.reactor_ref() {
            self.take_ready(r.poll());
        }
    }

    /// Route freshly unparked fibers to a run queue. When the waker is a
    /// worker of this pool, the first fiber takes its hot slot (it is the
    /// consumer of data the waker just produced — the warmest possible
    /// dispatch) and the rest go to its deque; a sleeper is woken only for
    /// that surplus, a displaced hot fiber or a second woken one. Anything
    /// else — foreign threads, other pools' fibers — goes through the
    /// injector and wakes one sleeper.
    fn dispatch_unparked(&self, fibers: Vec<Box<fiber::Fiber>>) {
        let my_slot = WORKER_ID
            .with(|c| c.get())
            .and_then(|(pool, i)| (pool == self as *const PooledExec as usize).then_some(i));
        match my_slot {
            Some(i) => {
                let me = &self.slots[i];
                let mut spill = Vec::new();
                let mut iter = fibers.into_iter();
                let displaced = iter.next().and_then(|first| me.put_hot(first));
                let mut surplus = false;
                for f in displaced.into_iter().chain(iter) {
                    surplus = true;
                    if let Err(f) = me.deque.push(f) {
                        spill.push(f);
                    }
                }
                me.note_depth();
                self.inject(spill);
                if surplus {
                    self.notify_work();
                }
            }
            None => {
                let n = fibers.len() as u64;
                let mut st = self.central.lock();
                for f in fibers {
                    st.injector.push_back(f);
                }
                st.injector_pushes += n;
                st.foreign_unparks += n;
                let wake = st.wake_one();
                drop(st);
                self.wake_unless_searching(wake);
            }
        }
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
                set_current(Some(locals));
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
            fiber::PARK_REQUEST.with(|c| c.set(Some((key, token))));
            fiber::switch_to_worker();
            return Ok(deadline.is_some_and(|d| Instant::now() >= d));
        }
        // Foreign thread (or another pool's fiber): the thread half.
        Ok(self.waits.wait(key, token, deadline))
    }

    fn unpark_all(&self, key: usize) {
        let woken = self.waits.wake(key);
        if !woken.is_empty() {
            self.dispatch_unparked(woken);
        }
    }

    fn yield_point(&self) {
        // Kahn processes reschedule by blocking; forcing a fiber switch at
        // every channel op would round-robin 10k fibers per op.
    }

    fn add_idle_hook(&self, hook: IdleHook) {
        let mut hooks = self.idle_hooks.lock();
        hooks.push(hook);
        // Under the hooks' lock, which a run stores its answer under.
        self.hooks_live.store(true, Ordering::Relaxed);
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
                let depth = s.deque.len() as u64 + u64::from(s.hot_occupied());
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
    fn a_relay_on_two_workers_stays_on_one() {
        // The `relay_local` shape: three fibers in a cycle of three local
        // channels with one token in flight. Each hop wakes one fiber into
        // its waker's empty hot slot — no surplus — so the second worker
        // sleeps through the run instead of stealing a fiber per round trip.
        use crate::channel::channel_with_parts;
        const ROUND_TRIPS: u64 = 20_000;
        let ex = PooledExec::new(2);
        let exec: Arc<dyn Exec> = ex.clone();
        let [(w0, r0), (w1, r1), (w2, r2)] =
            [(); 3].map(|_| channel_with_parts(64, None, exec.clone(), None));
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
        assert!(t.steal_successes < 200, "{ROUND_TRIPS} round trips: {t:?}");
        assert!(t.parks < 200, "{ROUND_TRIPS} round trips: {t:?}");
        ex.shutdown();
    }
}
