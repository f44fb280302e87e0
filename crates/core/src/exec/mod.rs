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
//!   PR-3 deterministic scheduler, now just another executor: its tasks
//!   are fibers, switched in one at a time by one thread per run;
//! * [`PooledExec`] — M:N execution: many processes multiplexed onto a
//!   fixed worker pool with per-worker work-stealing run queues, blocked
//!   channel operations converted into parked stackful continuations, so a
//!   10 000-process graph runs on `available_parallelism()` workers.
//!
//! The module splits by executor: [`mod@self`] holds the trait, task
//! identity, and [`ExecMode`]; `thread.rs`, `sim.rs`, and `pooled.rs` hold
//! the three implementations, the pooled scheduler's run queues among them;
//! `fiber.rs` holds the stackful continuations that the pool and the
//! simulator switch between.
//!
//! ## How a task waits
//!
//! Channels never touch condvars or schedulers directly, and every wait
//! keeps one rule: the waiter is recorded under the lock that guards its
//! predicate, with the predicate true, and a wake makes the predicate false
//! and takes the waiter under that same lock. The lock orders the two, so
//! no wake is lost. Spurious returns are always allowed — callers re-check
//! their predicate in a loop. There are two places a waiter is recorded.
//!
//! **A local channel side.** A channel has one writer and one reader, so at
//! most one task waits on each side, and its waiter lives in the channel: a
//! `WaitSlot` kept under the channel's own lock. A thread stores its
//! handle and parks itself; a fiber of the channel's pool asks its worker
//! to file it there once its stack is off the CPU, and a wake that came
//! first hands it straight back to a run queue; a simulation's task and a
//! fiber of another executor wait in their executor's keyed park, which
//! the slot names. A local hop touches no table shared by other channels.
//!
//! **Everything else** — sockets, timers, a pending connection, a join, a
//! sleep — waits on a key (an address) in the keyed `WaitTable` below:
//!
//! ```text
//! lock state;
//! loop {
//!     if !must_wait { break }
//!     let token = exec.park_token(key);   // still under the state lock
//!     unlock state;
//!     exec.park(key, token, deadline)?;   // may return spuriously
//!     lock state;
//! }
//! ```
//!
//! and every wake site calls `exec.unpark_all(key)` *after* publishing the
//! state change. Here the lock is the caller's, not the table's, so a
//! generation protocol ("absent is stale") closes the gap: `park_token`
//! reads the key's current generation while the caller still holds its
//! lock; any `unpark_all` that runs after that point bumps the generation,
//! and `park` with a stale token returns immediately. [`ThreadExec`] uses
//! the table's thread half (a condvar wait), [`PooledExec`] both halves
//! (its fibers are filed under the key, threads that are not its fibers
//! wait on the condvar). There is one keyed park, [`Exec::park`], and a
//! deadline passed to it ends the wait on every executor that runs in real
//! time; [`Exec::sleep`] is built on it (DESIGN.md, "How a task waits").
//!
//! A park costs no allocation and no SipHash. The table's bucket maps are
//! keyed by addresses, so they hash with `WordHasher`, one folded multiply
//! (the monitor's set of remote waits, keyed by task tokens, uses it too);
//! a key's filed fibers are a `FiberSet`, whose first fiber is held inline,
//! so only a second fiber on one key allocates; and generations come from a
//! counter per bucket, kept under the bucket's lock.
//!
//! ## Task identity
//!
//! Monitors and the flush registry used to key their bookkeeping by OS
//! thread. Under a pooled executor one worker thread runs many tasks (and
//! one task may migrate between workers), so identity moves to a
//! `TaskLocals` record carried by the task itself and installed into a
//! thread-local by whichever worker is currently running it.

// Fibers exist on Linux x86_64 only; elsewhere the pool runs each task on a
// thread of its own and its scheduler is compiled but unreachable (the
// simulator's fibers are backed by threads there, see `fiber.rs`).
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
use crate::flush::Registration;
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Monotonic source of task tokens. Starting at 1 keeps 0 free for "no
/// task". (Park generations come from the wait table's buckets, so a wait
/// writes no counter shared by every worker of every pool.)
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

/// A hasher for keys that are one machine word the runtime made itself:
/// addresses (the wait table's keys) and task tokens (the monitor's blocked
/// set). SipHash guards a map against keys an adversary picks; nothing a
/// peer sends ever becomes one of these, so one folded multiply does: the
/// full 128-bit product of the key and an odd constant, its two halves
/// XORed. The high half carries every key bit down into the low bits, so
/// addresses whose low bits are alignment zeros still differ in the low
/// bits hashbrown picks a bucket with (a bare `k * K` keeps those zeros)
/// and in the top bits it tags entries with.
#[derive(Default, Clone, Copy)]
pub(crate) struct WordHasher(u64);

impl WordHasher {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    fn fold(k: u64) -> u64 {
        let m = u128::from(k) * u128::from(Self::K);
        (m as u64) ^ ((m >> 64) as u64)
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = Self::fold(self.0 ^ n);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by runtime-made words, hashed with [`WordHasher`].
pub(crate) type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// Buckets for the keyed wait tables (thread and pooled executors).
pub(crate) const BUCKETS: usize = 16;

pub(crate) fn bucket_of(key: usize) -> usize {
    // Keys are addresses; the low bits below 16 are alignment noise.
    (key >> 4) & (BUCKETS - 1)
}

/// The fibers filed under one key, the first held inline: a key one fiber
/// waits on — a socket, a timer — files it and hands it back without
/// allocating. A second fiber on the key overflows to `rest`.
/// Only the whole set is ever taken, so `rest` is empty while `first` is.
// Fibers circulate as `Box<Fiber>` (see `pooled.rs`).
#[allow(clippy::vec_box)]
#[derive(Default)]
struct FiberSet {
    first: Option<Box<fiber::Fiber>>,
    rest: Vec<Box<fiber::Fiber>>,
}

impl FiberSet {
    fn push(&mut self, f: Box<fiber::Fiber>) {
        match self.first {
            None => self.first = Some(f),
            Some(_) => self.rest.push(f),
        }
    }

    fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    fn fibers(self) -> impl Iterator<Item = Box<fiber::Fiber>> {
        self.first.into_iter().chain(self.rest)
    }
}

/// One key's entry: its generation and who waits on it. An entry exists
/// from the first `park_token` until nobody waits any more.
struct Waiters {
    gen: u64,
    /// Fibers filed under the key (only ever [`PooledExec`]'s own).
    fibers: FiberSet,
    /// OS threads in a condvar wait on the key.
    threads: usize,
}

/// What a bucket's lock guards: its keys' entries and the counter their
/// generations come from.
#[derive(Default)]
struct Keys {
    map: WordMap<usize, Waiters>,
    /// The last generation handed out in this bucket. A key always maps to
    /// the same bucket, so the generations of its entries only grow, across
    /// retirements too: a key never sees a token repeat, and a token taken
    /// before an entry was retired never matches the entry that replaces
    /// it. Starting at 0 keeps 0 an always-stale token.
    gen: u64,
}

#[derive(Default)]
struct Bucket {
    keys: Mutex<Keys>,
    /// Shared by the bucket's keys: a thread may wake for another key,
    /// which the protocol permits.
    cv: Condvar,
}

/// The keyed wait table: the generation protocol of the module docs,
/// once, for both executors that block in real time.
#[derive(Default)]
struct WaitTable {
    buckets: [Bucket; BUCKETS],
}

impl WaitTable {
    fn token(&self, key: usize) -> u64 {
        let mut keys = self.buckets[bucket_of(key)].keys.lock();
        let Keys { map, gen } = &mut *keys;
        map.entry(key)
            .or_insert_with(|| {
                *gen += 1;
                Waiters {
                    gen: *gen,
                    fibers: FiberSet::default(),
                    threads: 0,
                }
            })
            .gen
    }

    /// The thread half: a condvar wait while `token` is current. Returns
    /// whether it ended at `deadline`; a stale token returns `false` at once.
    fn wait(&self, key: usize, token: u64, deadline: Option<Instant>) -> bool {
        let b = &self.buckets[bucket_of(key)];
        let mut keys = b.keys.lock();
        match keys.map.get_mut(&key) {
            // Absent means the entry was retired after a newer generation
            // was handed out and consumed: any token we hold is stale.
            Some(e) if e.gen == token => e.threads += 1,
            _ => return false,
        }
        let timed_out = match deadline {
            Some(d) => b.cv.wait_until(&mut keys, d).timed_out(),
            None => {
                b.cv.wait(&mut keys);
                false
            }
        };
        if let Some(e) = keys.map.get_mut(&key) {
            e.threads -= 1;
            if e.threads == 0 && e.fibers.is_empty() {
                keys.map.remove(&key);
            }
        }
        timed_out
    }

    /// The fiber half: files `f` under `key` while `token` is current,
    /// else hands it back (the wake it waits for has already happened).
    fn file(&self, key: usize, token: u64, f: Box<fiber::Fiber>) -> Option<Box<fiber::Fiber>> {
        match self.buckets[bucket_of(key)].keys.lock().map.get_mut(&key) {
            Some(e) if e.gen == token => {
                e.fibers.push(f);
                None
            }
            _ => Some(f),
        }
    }

    /// Invalidates outstanding tokens for `key`, wakes its threads and
    /// returns its fibers for the caller to schedule.
    fn wake(&self, key: usize) -> FiberSet {
        let b = &self.buckets[bucket_of(key)];
        let mut keys = b.keys.lock();
        let keys = &mut *keys;
        let Some(e) = keys.map.get_mut(&key) else {
            // Nobody holds a token that could still match (tokens only
            // exist between `token` and the end of a wait, and both keep
            // the entry alive), so there is no one to wake.
            return FiberSet::default();
        };
        keys.gen += 1;
        e.gen = keys.gen;
        let fibers = std::mem::take(&mut e.fibers);
        if e.threads > 0 {
            b.cv.notify_all();
        } else {
            keys.map.remove(&key);
        }
        fibers
    }
}

/// A local channel side's one waiter, kept under the channel's lock. A
/// channel has one writer and one reader (`ChannelWriter` and
/// `ChannelReader` are not `Clone`), so at most one task waits on a side,
/// and the lock that guards its predicate orders the waiter's store
/// ([`Waiting::wait_in`]) and the wake's take ([`WaitSlot::take`]): a
/// wake that finds the slot empty has nobody to wake, and no generation is
/// needed.
#[derive(Default)]
pub(crate) struct WaitSlot(Option<Waiter>);

/// Who waits on a channel side, taken by the wake that ends the wait.
pub(crate) struct Waiter(Who);

enum Who {
    /// An OS thread, parked in `std::thread::park`.
    Thread(std::thread::Thread),
    /// A fiber of the channel's pool that asked to park and may still be
    /// switching out. Its worker files it once its stack is off the CPU; a
    /// wake that takes this first leaves the worker an empty slot, and the
    /// worker hands the fiber straight back to a run queue.
    Switching,
    /// That fiber, filed.
    Fiber(Box<fiber::Fiber>),
    /// A task in this executor's keyed park: a simulation's task (a fiber
    /// whose every park is a scheduling decision), or a fiber of another
    /// executor, which parks only on its own.
    Keyed(Arc<dyn Exec>),
}

/// The calling task, as a wait on a channel of one executor sees it
/// ([`waiting_on`]): who it is to the monitor, and how it parks.
pub(crate) struct Waiting {
    /// The task's token, recorded on the side while it is registered.
    pub(crate) token: u64,
    /// A KPN process, which the monitor counts, not a foreign thread.
    pub(crate) is_process: bool,
    /// The task holds a remote wait's registration
    /// ([`crate::Monitor::external_block`]): a wait inside it is refused.
    pub(crate) nested: bool,
    park: Park,
}

enum Park {
    Thread,
    Fiber,
    Keyed(Arc<dyn Exec>),
}

/// The calling task about to wait on a side of a channel of `exec`, read
/// once per wait. A fiber of `exec`'s pool parks in the slot; any other
/// fiber can park only on its own executor, by key: a fiber of another
/// executor, and a task of a simulation, whose parks the scheduler decides
/// (a foreign thread's wait on a simulation's channel is refused there);
/// any other thread parks itself. Never inlined (see [`park_fiber`]).
#[inline(never)]
pub(crate) fn waiting_on(exec: &Arc<dyn Exec>) -> Waiting {
    let on_fiber = fiber::on_fiber();
    let sim = || (&**exec as &dyn Any).is::<SimExec>();
    with_current(|l| {
        let own = std::ptr::addr_eq(l.exec.as_ptr(), Arc::as_ptr(exec));
        let park = match (on_fiber, own) {
            (true, true) if !sim() => Park::Fiber,
            (true, _) => Park::Keyed(l.exec.upgrade().unwrap_or_else(|| exec.clone())),
            _ if sim() => Park::Keyed(exec.clone()),
            _ => Park::Thread,
        };
        Waiting {
            token: l.token,
            is_process: l.is_process,
            nested: l.remote_wait.load(Ordering::Relaxed),
            park,
        }
    })
}

impl WaitSlot {
    /// The wake's half, under the channel's lock: the waiter, if any, to
    /// wake once the lock is released ([`Waiter::wake`]).
    pub(crate) fn take(&mut self) -> Option<Waiter> {
        self.0.take()
    }

    /// A fiber's worker files it, its stack off the CPU, unless a wake
    /// took the slot first: then `f` is left for the worker to run again.
    fn file(&mut self, f: &mut Option<Box<fiber::Fiber>>) {
        if matches!(self.0, Some(Waiter(Who::Switching))) {
            self.0 = f.take().map(|f| Waiter(Who::Fiber(f)));
        }
    }
}

/// A channel whose sides hold [`WaitSlot`]s, as a fiber's worker reaches
/// it to file the fiber (see [`ParkRequest::Slot`]).
pub(crate) trait ParkSite: Send + Sync {
    /// Runs `f` on `side`'s slot under the lock that guards it.
    fn with_slot(&self, side: usize, f: &mut dyn FnMut(&mut WaitSlot));
}

/// What a parking fiber asks its worker to do with it once its stack is off
/// the CPU.
pub(crate) enum ParkRequest {
    /// File it in the wait table under a key, while a token is current.
    Keyed(usize, u64),
    /// File it in a side's slot of a channel (the `Arc` keeps the channel
    /// while the worker reaches it).
    Slot(Arc<dyn ParkSite>, usize),
}

impl Waiting {
    /// Makes the calling task `slot`'s waiter. Call it under the channel's
    /// lock with the wait's predicate true; `key` is the side's key, and
    /// the token it returns a keyed park's ([`Waiting::park`]). A thread
    /// that returned from a park spuriously may find its own handle still
    /// there, and keeps it.
    pub(crate) fn wait_in(&self, slot: &mut WaitSlot, key: usize) -> u64 {
        let (who, token) = match &self.park {
            Park::Thread if slot.0.is_some() => return 0,
            Park::Thread => (Who::Thread(std::thread::current()), 0),
            Park::Fiber => (Who::Switching, 0),
            Park::Keyed(exec) => (Who::Keyed(exec.clone()), exec.park_token(key)),
        };
        slot.0 = Some(Waiter(who));
        token
    }

    /// Parks the calling task, the channel's lock released, until its
    /// waiter is taken and woken, or spuriously (a thread or a keyed park
    /// may return early). `site` is the channel, where a fiber's worker
    /// files it in `side`'s slot; `key`, `token` and `deadline` are a keyed
    /// park's. Returns `Ok(true)` if the wait ended at `deadline`.
    pub(crate) fn park<S: ParkSite + 'static>(
        &self,
        site: &Arc<S>,
        side: usize,
        key: usize,
        token: u64,
        deadline: Option<Instant>,
    ) -> Result<bool> {
        match &self.park {
            Park::Thread => {
                match deadline {
                    Some(d) => std::thread::park_timeout(d.saturating_duration_since(Instant::now())),
                    None => std::thread::park(),
                }
                Ok(deadline.is_some_and(|d| Instant::now() >= d))
            }
            Park::Fiber => {
                // Fibers exist where waits keep no clock (`local_deadline`).
                debug_assert!(deadline.is_none(), "a fiber's channel wait has no deadline");
                park_fiber(ParkRequest::Slot(site.clone(), side));
                Ok(false)
            }
            Park::Keyed(exec) => exec.park(key, token, deadline),
        }
    }
}

/// Switches the calling fiber out, asking its worker to complete the park
/// with `request` once its stack is off the CPU.
///
/// Never inlined, and neither is any other function here that fiber code
/// calls after a park and that reads a thread-local ([`waiting_on`],
/// [`Waiter::wake`], [`with_current`]): an inlined access can reuse the
/// thread-local's address computed before an earlier park, on the worker
/// the fiber has since left. Out of line, it is addressed afresh on the
/// worker the fiber runs on now.
#[inline(never)]
fn park_fiber(request: ParkRequest) {
    fiber::PARK_REQUEST.with(|c| c.set(Some(request)));
    fiber::switch_to_worker();
}

impl Waiter {
    /// Wakes this waiter of a side of a channel of `exec` whose key is
    /// `key`. Call it with the channel's lock released. Never inlined (see
    /// [`park_fiber`]): a fiber's wake reads which worker it runs on.
    #[inline(never)]
    pub(crate) fn wake(self, exec: &dyn Exec, key: usize) {
        match self.0 {
            Who::Thread(t) => t.unpark(),
            // Its worker finds the slot empty and runs it again.
            Who::Switching => {}
            Who::Fiber(f) => {
                (exec as &dyn Any)
                    .downcast_ref::<PooledExec>()
                    .expect("a fiber waits in a slot of its own pool's channel")
                    .dispatch_unparked(std::iter::once(f), fiber::on_fiber());
            }
            Who::Keyed(e) => e.unpark_all(key),
        }
    }
}

/// The scheduling seam every channel blocks through.
///
/// Implementations decide what a "task" is (OS thread, sim task, pooled
/// fiber) and how a blocked task sleeps; channels only ever express *what*
/// they are waiting for (a `key`) and *when* the wait became unnecessary
/// (`unpark_all`).
pub trait Exec: Any + Send + Sync {
    /// Start a new task running `body`. The task inherits nothing from the
    /// spawning thread; its identity is fresh.
    fn spawn(&self, name: &str, body: Box<dyn FnOnce() + Send>);

    /// Read the current generation for `key`, creating the key's wait entry
    /// if needed. Must be called while holding the lock that guards the
    /// caller's wait predicate; the returned token is what makes the
    /// subsequent [`Exec::park`] immune to lost wakeups.
    fn park_token(&self, key: usize) -> u64;

    /// The one park: block the current task until `unpark_all(key)` is
    /// called with a generation newer than `token`, `deadline` passes, or
    /// spuriously. Returns `Ok(true)` if the wait ended at its deadline.
    ///
    /// [`ThreadExec`] and [`PooledExec`] honour the deadline for every
    /// caller: a pooled fiber's is armed as a timer on its pool's reactor,
    /// whose wake is an ordinary `unpark_all(key)` (timers are never
    /// cancelled, so a stale one is a spurious wake). Take `token` first,
    /// and before anything else that can deliver the wake (arming a
    /// socket). The simulation's time is logical: no deadline passes in it.
    ///
    /// Call it on the caller's own executor ([`current_exec`]) when it has
    /// a deadline. Returns an error if this executor cannot block the
    /// calling context (e.g. a foreign OS thread blocking on a
    /// simulation's channel).
    fn park(&self, key: usize, token: u64, deadline: Option<Instant>) -> Result<bool>;

    /// Let `d` pass while holding nothing but the calling task: on
    /// [`ThreadExec`] the thread sleeps; a [`PooledExec`] fiber parks on a
    /// timer of its pool's reactor, so its worker runs other tasks; the
    /// simulation lets no time pass, its time being logical as
    /// [`Exec::now`]'s is. [`crate::exec::sleep`] calls this on the caller's
    /// executor.
    fn sleep(&self, d: Duration) {
        let deadline = Instant::now() + d;
        // A key nobody else waits on: an address in this frame.
        let here = 0u8;
        let key = std::ptr::addr_of!(here) as usize;
        while Instant::now() < deadline {
            let token = self.park_token(key);
            let _ = self.park(key, token, Some(deadline));
        }
    }

    /// Wake every task parked on `key` and invalidate outstanding tokens
    /// for it. Callable from any thread.
    fn unpark_all(&self, key: usize);

    /// A voluntary scheduling point, passed by every channel operation and
    /// by every socket operation of `kpn-net`'s `rio` that did not wait.
    /// [`ThreadExec`] ignores it (the kernel preempts its threads); the
    /// simulation may switch tasks at each one; a [`PooledExec`] fiber
    /// counts it as a tick of its worker and, at a fair tick, yields if
    /// work waits for that worker (see [`PooledExec`]'s scheduling).
    fn yield_point(&self);

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

/// [`Exec::sleep`] on the executor running the calling task — how library
/// code lets time pass (back-off, emulated work) without pinning a worker.
pub fn sleep(d: Duration) {
    match current_exec() {
        Some(exec) => exec.sleep(d),
        None => default_exec().sleep(d),
    }
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
    /// Dispatches served by the worker's own run queue (LIFO pop).
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
    /// Run-queue depth (queued fibers + hot slot) at snapshot time.
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
    /// Fibers ever pushed to the global injector (spawns, and unparks by
    /// threads that are not workers of this pool).
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
    pub(crate) sinks: Mutex<Arc<Vec<Registration>>>,
    /// How many sinks this task has registered: a step boundary's snapshot
    /// of `sinks` is current while this has not moved. Written only by the
    /// task itself.
    pub(crate) registered: AtomicU64,
    /// Some sink this task owns may hold bytes no publish-before-wait has
    /// swept since: raised when one of its chunks stops being empty and
    /// when it takes a sink over, cleared by that sweep (see
    /// [`crate::flush`], "Mechanism"). While it is clear a wait publishes
    /// nothing and touches no registry. Only the task itself reads or
    /// writes it.
    pub(crate) unpublished: AtomicBool,
    /// The deadlock monitor of the network this task is a process of, set
    /// by the network as the task starts: what a remote endpoint registers
    /// its waits with ([`current_monitor`]). Unset on foreign threads.
    pub(crate) monitor: OnceLock<Arc<crate::Monitor>>,
    /// The task holds a remote wait's registration with its monitor
    /// ([`crate::Monitor::external_block`]), so it is counted as blocked: a
    /// second registration inside it, remote or on a channel, is refused.
    /// Only the task itself reads or writes it.
    pub(crate) remote_wait: AtomicBool,
}

impl TaskLocals {
    pub(crate) fn new(name: &str, is_process: bool, exec: Weak<dyn Exec>) -> Arc<Self> {
        Arc::new(TaskLocals {
            token: next_id(),
            name: name.to_string(),
            is_process,
            exec,
            sinks: Mutex::new(Arc::new(Vec::new())),
            registered: AtomicU64::new(0),
            unpublished: AtomicBool::new(false),
            monitor: OnceLock::new(),
            remote_wait: AtomicBool::new(false),
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
/// locals on threads no executor owns. Never inlined (see [`park_fiber`]):
/// fiber code calls it before and after its parks.
#[inline(never)]
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

/// Swap `locals` with the current task on this thread: a pooled worker
/// moves a fiber's identity in before running it and back out after, and
/// no reference count changes hands.
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
pub(crate) fn swap_current(locals: &mut Option<Arc<TaskLocals>>) {
    CURRENT.with(|c| std::mem::swap(&mut *c.borrow_mut(), locals));
}

/// A stable token identifying the current task (not the current OS thread).
pub(crate) fn task_token() -> u64 {
    with_current(|l| l.token)
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

/// The deadlock monitor of the network the calling task is a process of;
/// `None` on a thread that is no network's process. A transport the monitor
/// cannot look into registers its waits with it
/// ([`crate::Monitor::external_block`]).
pub fn current_monitor() -> Option<Arc<crate::Monitor>> {
    with_current(|l| l.monitor.get().cloned())
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
/// (DESIGN.md §4e).
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
    /// One OS thread per process (the paper's model, and the reference).
    Thread,
    /// A fixed worker pool running processes as parked continuations (the
    /// default); `workers == 0` means `available_parallelism()`.
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
    /// else `ExecMode::Pooled { workers: 0 }` — on every target; where
    /// there are no fibers the pool runs a thread per task.
    /// [`ExecMode::Thread`] (`KPN_EXEC=thread`) is the paper's model, the
    /// reference the pool is checked against.
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

    /// Instantiate the executor for this mode: a fresh pool for
    /// `Pooled`, the process-wide thread executor for `Thread`.
    pub fn build(&self) -> Arc<dyn Exec> {
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
    use std::sync::atomic::AtomicUsize;

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

    // The wait table and the park's deadline: one table of cases, run
    // against both executors that own a table.

    impl FiberSet {
        fn len(&self) -> usize {
            usize::from(self.first.is_some()) + self.rest.len()
        }
    }

    impl WaitTable {
        /// Fibers and threads waiting on `key`.
        fn waiting(&self, key: usize) -> usize {
            let keys = self.buckets[bucket_of(key)].keys.lock();
            keys.map.get(&key).map_or(0, |e| e.fibers.len() + e.threads)
        }

        fn is_empty(&self) -> bool {
            self.buckets.iter().all(|b| b.keys.lock().map.is_empty())
        }
    }

    type Case = (&'static str, fn(&Arc<dyn Exec>, &WaitTable));

    const CASES: &[Case] = &[
        ("a stale token returns at once", stale_token_returns_at_once),
        (
            "a re-created entry never matches an older token",
            a_recreated_entry_never_matches_an_older_token,
        ),
        ("a timeout is reported", timeout_is_reported),
        (
            "a timed park ends by its deadline",
            timed_park_ends_by_its_deadline,
        ),
        (
            "an unpark wakes a parked thread",
            unpark_wakes_a_parked_thread,
        ),
        (
            "one unpark wakes a task and a thread",
            one_unpark_wakes_a_task_and_a_thread,
        ),
        (
            "one unpark wakes two tasks on one key",
            one_unpark_wakes_two_tasks_on_one_key,
        ),
        (
            "10k handoffs on 64 keys leave no entry",
            handoffs_leave_no_entry,
        ),
    ];

    fn run_cases(exec: Arc<dyn Exec>, waits: &WaitTable) {
        for (what, case) in CASES {
            eprintln!("case: {what}");
            case(&exec, waits);
            assert!(waits.is_empty(), "{what}: an entry outlived its waiters");
        }
    }

    #[test]
    fn wait_table_cases_on_thread_exec() {
        let exec = ThreadExec::new();
        run_cases(exec.clone(), &exec.waits);
    }

    #[test]
    fn wait_table_cases_on_pooled_exec() {
        let exec = PooledExec::new(1);
        run_cases(exec.clone(), &exec.waits);
        exec.shutdown();
    }

    fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !pred() {
            assert!(Instant::now() < deadline, "timed out waiting: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Runs `body` as a task of `exec` (a fiber on a pool, a thread on the
    /// thread executor) and returns what it sends.
    fn on_task<T: Send + 'static>(
        exec: &Arc<dyn Exec>,
        body: impl FnOnce(&dyn Exec) -> T + Send + 'static,
    ) -> std::sync::mpsc::Receiver<T> {
        let (tx, rx) = std::sync::mpsc::channel();
        let e = exec.clone();
        exec.spawn("case", Box::new(move || tx.send(body(&*e)).unwrap()));
        rx
    }

    /// The channel discipline in miniature: park on `key` while `set` is
    /// false, the token taken under the lock that guards it.
    fn park_until_set(exec: &dyn Exec, key: usize, set: &Mutex<bool>) {
        let mut s = set.lock();
        while !*s {
            let token = exec.park_token(key);
            drop(s);
            exec.park(key, token, None).unwrap();
            s = set.lock();
        }
    }

    /// Parks with `token`, which must be stale: back at once, no timeout.
    fn park_stale(exec: &dyn Exec, key: usize, token: u64) {
        let start = Instant::now();
        let deadline = start + Duration::from_secs(5);
        let timed_out = exec.park(key, token, Some(deadline)).unwrap();
        assert!(!timed_out, "a stale token must return, not time out");
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "a stale token must not wait"
        );
    }

    fn stale_token_returns_at_once(exec: &Arc<dyn Exec>, _: &WaitTable) {
        // The race the generation protocol closes: the wake lands between
        // `park_token` and `park`.
        let key = 0x1000;
        // The wake retired the entry: absent is stale.
        let token = exec.park_token(key);
        exec.unpark_all(key);
        park_stale(&**exec, key, token);
        // The entry lives on under a newer generation: a helper thread took
        // a new token on the key after the wake. Checked from this thread
        // (the thread half) and from a task of the executor (on a pool, the
        // fiber half).
        let set = Arc::new(Mutex::new(false));
        let tokens = Arc::new(AtomicUsize::new(0));
        let (e, s, t) = (exec.clone(), set.clone(), tokens.clone());
        let helper = std::thread::spawn(move || {
            let mut guard = s.lock();
            while !*guard {
                let token = e.park_token(key);
                drop(guard);
                t.fetch_add(1, Ordering::SeqCst);
                e.park(key, token, None).unwrap();
                guard = s.lock();
            }
        });
        wait_until("the helper takes a token", || {
            tokens.load(Ordering::SeqCst) > 0
        });
        let t = tokens.clone();
        let renewed = move |e: &dyn Exec| {
            let token = e.park_token(key);
            let before = t.load(Ordering::SeqCst);
            e.unpark_all(key);
            wait_until("the helper takes a new token", || {
                t.load(Ordering::SeqCst) != before
            });
            park_stale(e, key, token);
        };
        renewed(&**exec);
        on_task(exec, renewed)
            .recv_timeout(Duration::from_secs(10))
            .unwrap();
        *set.lock() = true;
        exec.unpark_all(key);
        helper.join().unwrap();
    }

    fn a_recreated_entry_never_matches_an_older_token(exec: &Arc<dyn Exec>, waits: &WaitTable) {
        // Generations come from the key's bucket, not the key's entry: an
        // entry retired by a wake and created again by the next token goes
        // on from where the bucket's counter stands, even when other keys
        // of the bucket moved it meanwhile. Checked from this thread and
        // from a task of the executor.
        let key = 0x1_0000;
        let neighbour = key + 16 * BUCKETS;
        assert_eq!(bucket_of(key), bucket_of(neighbour));
        let cycle = move |e: &dyn Exec| {
            let mut seen = Vec::new();
            for round in 0..4 {
                let token = e.park_token(key);
                assert!(
                    seen.iter().all(|&old| old < token),
                    "round {round}: token {token} after {seen:?}"
                );
                if round % 2 == 1 {
                    // A neighbour's entry lives and dies between ours.
                    e.park_token(neighbour);
                    e.unpark_all(neighbour);
                }
                // Nobody waits: the wake retires the entry.
                e.unpark_all(key);
                for &old in seen.iter().chain([&token]) {
                    park_stale(e, key, old);
                }
                seen.push(token);
            }
        };
        cycle(&**exec);
        on_task(exec, cycle)
            .recv_timeout(Duration::from_secs(10))
            .unwrap();
        // A stale park leaves the entry its token re-created: retire it.
        exec.unpark_all(key);
        assert_eq!(waits.waiting(key), 0);
    }

    fn timeout_is_reported(exec: &Arc<dyn Exec>, _: &WaitTable) {
        let key = 0x2000;
        let token = exec.park_token(key);
        let deadline = Instant::now() + Duration::from_millis(10);
        let timed_out = exec.park(key, token, Some(deadline)).unwrap();
        assert!(timed_out, "an un-woken park with a timeout must report it");
    }

    fn timed_park_ends_by_its_deadline(exec: &Arc<dyn Exec>, _: &WaitTable) {
        // On a task of the executor: on a pool, a fiber, whose deadline
        // only the reactor timer the park arms can end.
        let key = 0x3000;
        let ended = on_task(exec, move |e| {
            let start = Instant::now();
            let token = e.park_token(key);
            let timed_out = e.park(key, token, Some(start + Duration::from_millis(20)));
            (timed_out.unwrap(), start.elapsed())
        });
        let (timed_out, took) = ended.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(timed_out, "the deadline passed, after {took:?}");
        assert!(
            took >= Duration::from_millis(20),
            "woke early, after {took:?}"
        );
    }

    fn unpark_wakes_a_parked_thread(exec: &Arc<dyn Exec>, waits: &WaitTable) {
        let key = 0x4000;
        let e = exec.clone();
        let h = std::thread::spawn(move || {
            let token = e.park_token(key);
            e.park(key, token, Some(Instant::now() + Duration::from_secs(10)))
                .unwrap()
        });
        wait_until("the thread parks", || waits.waiting(key) == 1);
        exec.unpark_all(key);
        assert!(
            !h.join().unwrap(),
            "an explicit wake must not report a timeout"
        );
    }

    fn one_unpark_wakes_a_task_and_a_thread(exec: &Arc<dyn Exec>, waits: &WaitTable) {
        // Both halves on one key: on a pool the task is a filed fiber and
        // the thread a condvar waiter.
        let key = 0x5000;
        let set = Arc::new(Mutex::new(false));
        let s = set.clone();
        let task = on_task(exec, move |e| park_until_set(e, key, &s));
        let (e, s) = (exec.clone(), set.clone());
        let thread = std::thread::spawn(move || park_until_set(&*e, key, &s));
        wait_until("a task and a thread wait on the key", || {
            waits.waiting(key) == 2
        });
        *set.lock() = true;
        exec.unpark_all(key);
        task.recv_timeout(Duration::from_secs(10)).unwrap();
        thread.join().unwrap();
    }

    fn one_unpark_wakes_two_tasks_on_one_key(exec: &Arc<dyn Exec>, waits: &WaitTable) {
        // On a pool both tasks are fibers filed under the key: the second
        // overflows the inline slot of the key's fiber set.
        let key = 0x6000;
        let set = Arc::new(Mutex::new(false));
        let tasks: Vec<_> = (0..2)
            .map(|_| {
                let s = set.clone();
                on_task(exec, move |e| park_until_set(e, key, &s))
            })
            .collect();
        wait_until("two tasks wait on the key", || waits.waiting(key) == 2);
        *set.lock() = true;
        exec.unpark_all(key);
        for task in tasks {
            task.recv_timeout(Duration::from_secs(10)).unwrap();
        }
    }

    fn handoffs_leave_no_entry(exec: &Arc<dyn Exec>, _: &WaitTable) {
        // A task and a thread pass a counter back and forth; the party
        // waiting for value `n` parks on key `n % 64`.
        const HOPS: u64 = 10_000;
        fn key(n: u64) -> usize {
            0x10_0000 + (n % 64) as usize * 16
        }
        fn hand_off(exec: &dyn Exec, count: &Mutex<u64>, parity: u64) {
            loop {
                let mut c = count.lock();
                while *c % 2 != parity && *c < HOPS {
                    let k = key(*c + 1);
                    let token = exec.park_token(k);
                    drop(c);
                    exec.park(k, token, None).unwrap();
                    c = count.lock();
                }
                if *c >= HOPS {
                    return;
                }
                *c += 1;
                let k = key(*c);
                drop(c);
                exec.unpark_all(k);
            }
        }
        let count = Arc::new(Mutex::new(0u64));
        let c = count.clone();
        let task = on_task(exec, move |e| hand_off(e, &c, 0));
        let (e, c) = (exec.clone(), count.clone());
        let thread = std::thread::spawn(move || hand_off(&*e, &c, 1));
        task.recv_timeout(Duration::from_secs(60)).unwrap();
        thread.join().unwrap();
        assert_eq!(*count.lock(), HOPS);
    }

    #[test]
    fn the_word_hasher_spreads_aligned_addresses() {
        // 4096 keys 16 bytes apart, as channel sides and boxed fibers are:
        // hashbrown indexes buckets with the hash's low bits and tags
        // entries with its top seven. A bare multiply would leave the four
        // low bits zero, so only one bucket in sixteen would ever be used.
        use std::collections::HashSet;
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<WordHasher>::default();
        let hashes: Vec<u64> = (0..4096usize)
            .map(|i| build.hash_one(0x7f00_1234_5000usize + 16 * i))
            .collect();
        let low: HashSet<u64> = hashes.iter().map(|h| h & 4095).collect();
        let top: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(low.len() > 2048, "{} of 4096 low buckets", low.len());
        assert_eq!(top.len(), 128, "{} of 128 tags", top.len());
        // Task tokens are consecutive integers: the same holds for them.
        let tokens: HashSet<u64> = (1..=4096u64).map(|t| build.hash_one(t) & 4095).collect();
        assert!(tokens.len() > 2048, "{} of 4096 buckets", tokens.len());
    }

    // The case needs real fibers: elsewhere a pool's tasks are threads.
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    #[test]
    fn sleeping_fibers_hold_no_worker() {
        // Fifty 20 ms sleeps on one worker overlap; had each held the
        // worker they would take a second, one after another.
        let exec: Arc<dyn Exec> = PooledExec::new(1);
        let start = Instant::now();
        let done: Vec<_> = (0..50)
            .map(|_| on_task(&exec, |_| sleep(Duration::from_millis(20))))
            .collect();
        for rx in done {
            rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        let took = start.elapsed();
        assert!(took < Duration::from_millis(200), "50 sleeps took {took:?}");
        exec.shutdown();
    }

    // The case needs real fibers: elsewhere a pool's tasks are threads.
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    #[test]
    fn fibers_wait_on_another_executors_channel_without_their_worker() {
        // A channel made outside any network is bound to the process-wide
        // `ThreadExec`. Two fibers of a one-worker pool talk through one of
        // capacity 1, so each waits on it in turn; had a wait held the
        // worker in the channel executor's condvar, the other fiber would
        // never run. The same for fibers of one pool on another's channel.
        let (a, b): (Arc<dyn Exec>, Arc<dyn Exec>) = (PooledExec::new(1), PooledExec::new(1));
        for (fibers, channel) in [
            (&a, crate::channel::channel_with_capacity(1)),
            (
                &b,
                crate::channel::channel_with_parts(1, None, a.clone(), None).unwrap(),
            ),
        ] {
            let (mut w, mut r) = channel;
            let read = on_task(fibers, move |_| {
                let mut got = [0u8; 64];
                r.read_exact(&mut got).map(|()| got)
            });
            let wrote = on_task(fibers, move |_| w.write_all(&[7u8; 64]));
            wrote
                .recv_timeout(Duration::from_secs(10))
                .unwrap()
                .unwrap();
            let got = read.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(got.unwrap(), [7u8; 64]);
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn a_simulated_sleep_takes_no_time_and_no_decision() {
        use crate::sim::{run_sim, SchedulePolicy};
        let run = |nap: Option<Duration>| {
            run_sim(SchedulePolicy::RandomWalk { seed: 7 }, move |net| {
                let (mut w, mut r) = net.channel_with_capacity(4);
                net.add_fn("writer", move |_| {
                    for i in 0..20u8 {
                        if let Some(d) = nap {
                            sleep(d);
                        }
                        w.write_all(&[i])?;
                    }
                    Ok(())
                });
                net.add_fn("reader", move |_| r.read_exact(&mut [0u8; 20]));
            })
            .unwrap()
            .trace
        };
        let start = Instant::now();
        let slept = run(Some(Duration::from_secs(1)));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "sim slept on the wall clock"
        );
        let plain = run(None);
        assert_eq!(slept.decisions, plain.decisions);
        assert_eq!(slept.arities, plain.arities);
    }
}
