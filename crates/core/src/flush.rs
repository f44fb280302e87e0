//! When privately buffered output becomes visible.
//!
//! Buffered typed streams ([`crate::DataWriter`], and the buffered sink it
//! installs via [`crate::ChannelWriter::ensure_buffered`]) hold written bytes
//! in a private chunk so that a burst of small typed tokens costs one
//! channel transfer instead of one mutex round-trip each. *When* those bytes
//! cross into the channel is not part of any channel history — buffering
//! delays writes, it never reorders them within a channel — so the runtime
//! is free to choose the moment, subject to two obligations: nobody may wait
//! forever for a byte that sits in a private chunk, and the deadlock monitor
//! (§3.5) must never inspect a stalled network whose channels hide data.
//!
//! ## The rule
//!
//! A task's private chunk is published (written to its channel) when
//!
//! 1. the chunk **fills** — it is at most `min(DEFAULT_STREAM_BUFFER,
//!    channel capacity)` bytes, so a channel never holds more than twice the
//!    bound it was created with;
//! 2. the owning task is **about to wait for anything** — a local read on
//!    an empty channel, a local write on a full one, a remote socket, the
//!    `Turnstile`'s merge queue: [`flush_before_block`] publishes every
//!    sink the task owns *before* it registers with the monitor and parks;
//! 3. the sink **closes** (or is dropped, or retires);
//! 4. the process **asks**: [`crate::DataWriter::flush`] for one stream,
//!    [`crate::ProcessCtx::flush_sinks`] for all of the task's; and
//! 5. at an **`Iterative` step boundary**, by what the sink knows of its
//!    reader ([`crate::Sink::reader_waiting`]):
//!    * the reader is **waiting** — published: a reader parked on the
//!      channel is fed by its producer's next step boundary, so a token
//!      becomes visible at most one producer step later than under an
//!      unconditional per-step flush;
//!    * the reader is **busy** — not published: it is not interrupted, the
//!      chunk keeps batching, and the batch sizes itself to (wake latency ×
//!      token rate);
//!    * the reader **cannot be seen** (a socket, a wrapper around one, any
//!      foreign [`crate::Sink`]) — published *unless the sink's previous
//!      publish returned less than that publish's own duration ago*. The
//!      writer times each publish of such a sink end to end (monitor
//!      registration, framing, the syscall, any back-pressure stall) on
//!      the clock of the executor its task runs on
//!      ([`crate::exec::Exec::now`]), and at later boundaries compares
//!      "time since it returned" with "time it took". The first publish
//!      after a task takes the sink over is unconditional.
//!
//! The third case is self-clocked: there is no window to configure, only
//! the one the transport just measured. Output for an unseen reader stays
//! private at a boundary for at most as long as the last publish cost, so
//! the rule **at most doubles a delay the transport itself just imposed**
//! (a 5 µs frame is followed by at most 5 µs of batching, a 50 ms
//! back-pressure stall by at most 50 ms), and at step boundaries a writer
//! spends at most half its time publishing. A process whose steps are
//! longer than its publishes — a §5.2 `Worker`, a relay `Identity` — finds
//! the window closed at every boundary and publishes at each, exactly as
//! under "a socket is flushed at every boundary"; a streaming `Scale`,
//! whose steps are a fraction of a frame's cost, ends up sending tens of
//! tokens per frame, as the paper's `BufferedOutputStream` in front of its
//! `RemoteOutputStream` did (§4.2). Clauses 1–4 do not look at the clock:
//! a full chunk, a wait, a close and an explicit flush publish whatever the
//! window says. Under the simulation executor logical time stands still
//! while a task runs, a publish takes none, and the window is always
//! closed: an unseen reader is published at every boundary and every
//! schedule replays bit-for-bit.
//!
//! Clause 2 is what keeps buffering invisible to Kahn determinacy and to
//! Parks' bounded scheduling. Every publish is a write the unbuffered
//! execution would already have performed, so it can only block where that
//! execution could block; and whenever a task is parked — for whatever
//! reason — every byte it has produced is in a channel where its consumer
//! and the monitor can see it. A token stranded in a private chunk while
//! its producer waits could be exactly the one the rest of the network
//! needs, and the monitor would misclassify the live network as truly
//! deadlocked (or, for a write-blocked producer with a second output, grow
//! the wrong channel). Publishing *before* monitor registration matters
//! too: a flush can itself block on a full channel, and a task must never
//! register as blocked twice.
//!
//! ## Mechanism
//!
//! Every buffered sink registers itself with a *task-local* registry
//! carried by the current task's identity record (under the pooled executor
//! one OS thread runs many tasks, so a thread-local registry would conflate
//! sinks across processes; under thread-per-process a task *is* a thread).
//! Ownership follows the *last writer task*: processes are typically
//! constructed on the main thread and moved to their spawned task, so a sink
//! re-registers lazily whenever it is written from a new task. The registry
//! is an immutable list replaced on registration, so a sweep shares it
//! instead of copying it; dead entries are pruned at the next registration.
//!
//! A registration carries the sink's `Marks` beside a weak handle to it:
//! the sink's claim word, whether its private chunk holds bytes, and — over
//! a local channel — that channel's reader flag. A sweep reads them with
//! plain loads and touches a sink — upgrade, enter — only to publish it,
//! or, for a reader it cannot see, to ask the sink's pace. Clause 5 is
//! decided once, in `publishes`, whichever side supplies its inputs.
//!
//! A sink's private state (its chunk, its inner sink, its pace) takes no
//! lock: it is a `Claimed` cell, guarded by the claim word in its marks —
//! the owning task's token shifted left by one, plus an *inside* bit.
//! The owning task reaches it with plain stores around the reach — it sets
//! the inside bit, appends or calls into its inner sink, clears the bit —
//! since no other task can enter while the word names the owner. A sweep
//! enters with one compare-and-swap from `me << 1` to `me << 1 | 1` and
//! leaves with a release store, so a sweep over a stale registration (the
//! sink has moved to another task) fails its swap and skips the sink, and
//! so does a publish-before-wait that re-enters a sink from its own blocked
//! inner write: that sink is already on its way out. A task that takes a
//! sink over waits out any sweep inside, then swaps its token in with one
//! compare-and-swap. The chunk flag changes only on an empty↔non-empty
//! transition, stored by whoever is inside.
//!
//! A step boundary is a `StepBoundary`, resolved once per run of an
//! `Iterative` process: it keeps its task's identity record and registry
//! snapshot across steps, and takes a new snapshot only when the task's
//! registration count has moved. A boundary over a busy local reader, or
//! over nothing to publish, costs a few loads and no atomic
//! read-modify-write.
//!
//! A wait sweeps only when there can be something to publish. The task's
//! `unpublished` flag (in its identity record) is raised by the one setter
//! of a chunk's dirty mark (`Marks::set_dirty`, on the empty→non-empty
//! transition) and by a registration (a sink taken over may already hold
//! bytes). [`flush_task_sinks`] returns at once while it is clear, and
//! clears it before it sweeps. A publish inside that sweep can itself wait,
//! and its wait must still find the task's other sinks, so the sweep raises
//! the flag again before a publish that has further dirty sinks behind it,
//! and after one that left its sink dirty (a stashed error). A step
//! boundary never clears it: a sink the boundary leaves batching is still
//! published before the task waits. So a relay that buffers nothing, or has
//! published all it wrote, waits without a thread-local registry lock, an
//! `Arc` clone or a walk of its sinks.

use crate::channel::ReaderState;
use crate::error::Result;
use crate::exec::TaskLocals;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// How a sweep asks a sink to publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Publish {
    /// Unconditionally: the task is about to wait, asked for "now", or a
    /// step boundary has already decided from the sink's [`Marks`].
    All,
    /// A step boundary over a sink whose reader the marks cannot see: the
    /// sink asks [`publishes`] with its transport's answer and its pace.
    StepBoundary,
}

/// Clause 5 of the rule, decided here and nowhere else: whether a step
/// boundary publishes a dirty chunk whose reader is in state `reader`.
/// `keeps_batching` is the sink's pace, asked only for a reader that cannot
/// be seen.
pub(crate) fn publishes(reader: ReaderState, keeps_batching: impl FnOnce() -> bool) -> bool {
    match reader {
        ReaderState::Waiting => true,
        ReaderState::Busy => false,
        ReaderState::Unseen => !keeps_batching(),
    }
}

/// A sink with a private buffer that the flush registry can publish.
///
/// A sweep reaches it only when its [`Marks`] say it belongs to the
/// sweeping task and holds bytes. Implementations must *never* wait for
/// the sink's state: they enter it with [`Claimed::visit`] and skip it when
/// that fails (a sink this task is inside is already being published).
pub(crate) trait Flushable: Send + Sync {
    /// Publishes the private chunk for the sweeping task `me`; under
    /// [`Publish::StepBoundary`] only if [`publishes`] says so. Returns the
    /// publish's error, which the sink has also stashed for its owner's
    /// next write.
    fn publish(&self, me: u64, which: Publish) -> Result<()>;
}

/// The claim word's inside bit: a task is reaching the claimed state.
const INSIDE: u64 = 1;

/// How long a task taking a sink over waits between looks while a former
/// owner's sweep is inside it, once a short spin has not seen it leave.
const TAKEOVER_NAP: Duration = Duration::from_micros(20);

/// What a sweep reads of a registered sink without touching it. `dirty`
/// and `reader` are `Relaxed`: they publish no data, they say whether a
/// sweep should enter. The claim word orders the entries themselves.
pub(crate) struct Marks {
    /// The claim word: the token of the task that owns the sink (the task
    /// that last wrote it, closed it or dropped it; 0 = nobody yet) shifted
    /// left by one, and [`INSIDE`] while a task reaches its [`Claimed`]
    /// state. A stale registration — the sink has since moved to another
    /// task — is skipped on this alone, and its swap would fail.
    claim: AtomicU64,
    /// The private chunk holds bytes. Stored by whoever is inside, on the
    /// empty↔non-empty transitions only; exact for the owner, which reads
    /// its own stores.
    pub(crate) dirty: AtomicBool,
    /// The `reader_waiting` flag of the local channel the sink writes into,
    /// when it writes into one: the sink's [`crate::Sink::reader_waiting`]
    /// answer without asking the sink. `None` for any other transport.
    pub(crate) reader: Option<Arc<AtomicBool>>,
}

impl Marks {
    /// The marks of a sink nobody has written yet.
    pub(crate) fn new(reader: Option<Arc<AtomicBool>>) -> Arc<Self> {
        Arc::new(Marks {
            claim: AtomicU64::new(0),
            dirty: AtomicBool::new(false),
            reader,
        })
    }

    /// The private chunk has just stopped being empty, written by its
    /// owner — the calling task, whose next wait must therefore sweep: the
    /// one place `dirty` is raised, and it raises the task's `unpublished`
    /// with it.
    pub(crate) fn set_dirty(&self) {
        self.dirty.store(true, Ordering::Relaxed);
        raise_unpublished();
    }

    /// Whether a sweep by task `me` has this sink to publish: it owns the
    /// sink, nobody is inside it, and the chunk holds bytes.
    fn due(&self, me: u64) -> bool {
        self.claim.load(Ordering::Relaxed) == me << 1 && self.dirty.load(Ordering::Relaxed)
    }

    /// Makes task `me` the owner: waits out any sweep inside, then swaps
    /// `me` in. A sweep inside can be blocked on a full channel whose
    /// reader needs this very worker, so after a short spin the wait gives
    /// the worker up between looks.
    #[cold]
    fn take_over(&self, me: u64) {
        let mut looks = 0u32;
        loop {
            let word = self.claim.load(Ordering::Relaxed);
            if word & INSIDE == 0 {
                // Acquire: what the last task inside left in the state.
                if self
                    .claim
                    .compare_exchange_weak(word, me << 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return;
                }
                continue;
            }
            assert_ne!(
                word,
                me << 1 | INSIDE,
                "a buffered sink was re-entered from inside its own publish"
            );
            looks += 1;
            if looks < 64 {
                std::hint::spin_loop();
            } else if let Some(exec) = crate::exec::current_exec() {
                exec.yield_point();
                exec.sleep(TAKEOVER_NAP);
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// The private state of a buffered sink, reached with no lock: only by a
/// task that has set the inside bit of the claim word in its [`Marks`] — a
/// sweep by the owning task through [`Claimed::visit`], or the holder of
/// its one [`Owner`] handle through [`Owner::reach`].
pub(crate) struct Claimed<T> {
    marks: Arc<Marks>,
    value: UnsafeCell<T>,
}

// SAFETY: `value` is reached only by `Claimed::reach`, whose callers hold
// the claim word's inside bit for the whole reach (see its argument), so
// one task at a time reaches it; `T: Send` lets that task be on any thread,
// and the claim word's acquire/release pairs (or the handover of the
// `Owner`, for the owner's own plain stores) order one reach after another.
unsafe impl<T: Send> Sync for Claimed<T> {}

impl<T> Claimed<T> {
    /// The marks whose claim word guards this state.
    pub(crate) fn marks(&self) -> &Arc<Marks> {
        &self.marks
    }

    /// A sweep by task `me`: enters with one compare-and-swap from `me << 1`
    /// to `me << 1 | INSIDE`, runs `f`, and leaves with a release store.
    /// `None`, without running `f`, if the sink is another task's or some
    /// task — this one, further up its stack — is inside it.
    pub(crate) fn visit<R>(&self, me: u64, f: impl FnOnce(&mut T, &Marks) -> R) -> Option<R> {
        let claim = &self.marks.claim;
        // Acquire: what the owner stored before it last left.
        claim
            .compare_exchange(
                me << 1,
                me << 1 | INSIDE,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .ok()?;
        let _leave = Leave(claim, me << 1);
        Some(self.reach(f))
    }

    /// Runs `f` on the state. Every caller has set the inside bit of a
    /// claim word that names its own task: `visit` by its swap, `Owner::reach`
    /// by its store.
    fn reach<R>(&self, f: impl FnOnce(&mut T, &Marks) -> R) -> R {
        // SAFETY: the calling task holds the inside bit of a claim word
        // naming it, and no other reach can start until it clears it: a
        // sweep's swap needs the bit clear and the word naming the sweeper;
        // a takeover waits for the bit to clear; the owner reaches only
        // through its `Owner`, which it holds alone (`&mut`), and only
        // while the word reads exactly its token with the bit clear. So
        // this is the only reference to `value` until `f` returns.
        f(unsafe { &mut *self.value.get() }, &self.marks)
    }
}

/// Clears the inside bit when a reach ends, even by a panic.
struct Leave<'a>(&'a AtomicU64, u64);

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        // Release: the next task to enter sees what this one stored.
        self.0.store(self.1, Ordering::Release);
    }
}

/// The one owner's handle to a [`Claimed`] state: not `Clone`, so whoever
/// holds it (a buffered sink, moved between tasks) is the only task that
/// can take the state over or reach it without a swap.
pub(crate) struct Owner<T>(Arc<Claimed<T>>);

impl<T> Owner<T> {
    /// A state no task owns yet, guarded by the claim word of `marks`.
    pub(crate) fn new(value: T, marks: Arc<Marks>) -> Self {
        Owner(Arc::new(Claimed {
            marks,
            value: UnsafeCell::new(value),
        }))
    }

    /// The shared state, for a registration's weak handle.
    pub(crate) fn shared(&self) -> &Arc<Claimed<T>> {
        &self.0
    }

    /// Runs `f` on the state as task `me`, which becomes its owner if it
    /// was not: a takeover waits out any sweep inside. The inside bit is
    /// set and cleared with plain stores, so the owner's own reach takes no
    /// read-modify-write, and a publish-before-wait inside `f` (a blocked
    /// inner write) skips this sink.
    pub(crate) fn reach<R>(&mut self, me: u64, f: impl FnOnce(&mut T, &Marks) -> R) -> R {
        let claim = &self.0.marks.claim;
        if claim.load(Ordering::Relaxed) != me << 1 {
            self.0.marks.take_over(me);
        }
        // Relaxed: the bit publishes nothing; it is for this task's own
        // sweeps, which read it in program order.
        claim.store(me << 1 | INSIDE, Ordering::Relaxed);
        let _leave = Leave(claim, me << 1);
        self.0.reach(f)
    }
}

/// Marks the calling task as owning a sink whose bytes its next
/// publish-before-wait must sweep.
fn raise_unpublished() {
    crate::exec::with_current(|l| l.unpublished.store(true, Ordering::Relaxed));
}

/// One entry of a task's flush registry: a sink and its marks.
#[derive(Clone)]
pub(crate) struct Registration {
    sink: Weak<dyn Flushable>,
    marks: Arc<Marks>,
}

impl Registration {
    /// Offers the sink to a sweep by task `me` that has found it due.
    fn publish(&self, me: u64, which: Publish) -> Result<()> {
        let which = match (which, &self.marks.reader) {
            (Publish::StepBoundary, Some(flag)) => {
                // A local reader is never unseen: no pace to ask.
                if !publishes(ReaderState::of_local(flag), || false) {
                    return Ok(());
                }
                Publish::All
            }
            _ => which,
        };
        self.sink
            .upgrade()
            .map_or(Ok(()), |sink| sink.publish(me, which))
    }
}

/// Offers every registration task `me` has due — owns, with bytes in its
/// chunk — to `publish`, with its index, returning the first error
/// encountered (all due sinks are still attempted). A sink owned by another
/// task now, or holding nothing, is skipped on its marks. No lock is held
/// while publishing: a publish can block (a full channel).
fn sweep(
    sinks: &[Registration],
    me: u64,
    mut publish: impl FnMut(usize, &Registration) -> Result<()>,
) -> Result<()> {
    let mut first_err = None;
    for (i, r) in sinks.iter().enumerate() {
        if !r.marks.due(me) {
            continue;
        }
        if let Err(e) = publish(i, r) {
            first_err.get_or_insert(e);
        }
    }
    first_err.map_or(Ok(()), Err)
}

/// A small, unique, never-reused identifier for the calling task (a process
/// under any executor, or a foreign thread touching channels from outside).
pub fn task_token() -> u64 {
    crate::exec::task_token()
}

/// Registers a buffered sink with the *calling* task's flush registry.
/// Dead entries are pruned on each registration. The registry is replaced,
/// not edited: a sweep in progress keeps walking the list it started with.
/// The task's next wait sweeps: a sink it takes over may already hold
/// bytes, which no empty→non-empty transition of its own will announce.
pub(crate) fn register(sink: Weak<dyn Flushable>, marks: Arc<Marks>) {
    crate::exec::with_current(|locals| {
        let mut sinks = locals.sinks.lock();
        let mut v: Vec<_> = sinks
            .iter()
            .filter(|r| r.sink.strong_count() > 0)
            .cloned()
            .collect();
        v.push(Registration { sink, marks });
        *sinks = Arc::new(v);
        // Only this task writes the count: a load and a store do.
        let n = locals.registered.load(Ordering::Relaxed);
        locals.registered.store(n + 1, Ordering::Relaxed);
        locals.unpublished.store(true, Ordering::Relaxed);
    });
}

/// Publishes every dirty sink the calling task owns, unconditionally. This
/// is [`crate::ProcessCtx::flush_sinks`]. Returns at once, touching no
/// registry, while the task's `unpublished` flag is clear.
pub fn flush_task_sinks() -> Result<()> {
    let swept = crate::exec::with_current(|l| {
        if !l.unpublished.load(Ordering::Relaxed) {
            return None;
        }
        l.unpublished.store(false, Ordering::Relaxed);
        Some((l.token, l.sinks.lock().clone()))
    });
    let Some((me, sinks)) = swept else {
        return Ok(());
    };
    // The sweep runs with the flag cleared, so it raises it again wherever
    // a wait inside one of its publishes, or the task's next wait, still
    // has a sink to find: before a publish with a due sink behind it, and
    // after one that left its sink due.
    let last_due = sinks.iter().rposition(|r| r.marks.due(me));
    sweep(&sinks, me, |i, r| {
        if Some(i) != last_due {
            raise_unpublished();
        }
        let published = r.publish(me, Publish::All);
        if r.marks.due(me) {
            raise_unpublished();
        }
        published
    })
}

/// Whether the calling task may own a sink whose bytes no
/// publish-before-wait has swept since they were written: its
/// `unpublished` flag. A local channel's wait asks this with its state lock
/// held and releases the lock to publish only when it is raised.
pub(crate) fn unpublished() -> bool {
    crate::exec::with_current(|l| l.unpublished.load(Ordering::Relaxed))
}

/// Publish-before-wait: every path on which a task may park calls this
/// first, and before it registers with the deadlock monitor, with no lock
/// held — a publish can itself block on a full channel. A local channel's
/// wait calls it only while the task's `unpublished` flag says there may be
/// something to publish, so that its state lock is not released for an
/// empty sweep.
/// Errors are swallowed here: the failing sink stashes its error and
/// surfaces it on the owner's next write (§3.4's "exception on the next
/// write" semantics); the operation that triggered the flush must still be
/// allowed to proceed.
pub fn flush_before_block() {
    let _ = flush_task_sinks();
}

/// The `Iterative` step boundary of one task, resolved once:
/// [`crate::IterativeProcess`]'s `run` holds one across its steps.
pub(crate) struct StepBoundary {
    locals: Arc<TaskLocals>,
    /// The task's registration count when `sinks` was taken.
    seen: u64,
    sinks: Arc<Vec<Registration>>,
}

impl StepBoundary {
    /// The calling task's boundary.
    pub(crate) fn of_current_task() -> Self {
        let locals = crate::exec::with_current(Arc::clone);
        let seen = locals.registered.load(Ordering::Relaxed);
        let sinks = locals.sinks.lock().clone();
        StepBoundary {
            locals,
            seen,
            sinks,
        }
    }

    /// Publishes the task's dirty sinks that clause 5 selects, and leaves
    /// the rest batching. The registry snapshot is renewed only if the task
    /// has registered a sink since it was taken. The task's `unpublished`
    /// flag is left as it is: a sink left batching is its next wait's.
    pub(crate) fn cross(&mut self) -> Result<()> {
        let registered = self.locals.registered.load(Ordering::Relaxed);
        if registered != self.seen {
            self.sinks = self.locals.sinks.lock().clone();
            self.seen = registered;
        }
        let me = self.locals.token;
        sweep(&self.sinks, me, |_, r| r.publish(me, Publish::StepBoundary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataReader, DataWriter, Error, Iterative, Network, ProcessCtx};
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    /// A sink that counts how often a sweep reaches it: a sweep upgrades a
    /// registration's handle only to call `publish` on it, and a real sink
    /// enters its claimed state only there. Like a real sink, a publish that succeeds
    /// leaves its chunk clean.
    struct Probe {
        reached: AtomicUsize,
        fail: bool,
        marks: Arc<Marks>,
    }

    impl Probe {
        /// A probe registered with the calling task, with marks saying it
        /// is owned by `owner`, holds bytes if `dirty`, and writes into a
        /// local channel whose reader flag is `reader`.
        fn register(owner: u64, dirty: bool, reader: Option<Arc<AtomicBool>>) -> Arc<Probe> {
            Probe::register_failing(owner, dirty, reader, false)
        }

        fn register_failing(
            owner: u64,
            dirty: bool,
            reader: Option<Arc<AtomicBool>>,
            fail: bool,
        ) -> Arc<Probe> {
            let marks = Marks::new(reader);
            marks.claim.store(owner << 1, Ordering::Relaxed);
            if dirty {
                marks.set_dirty();
            }
            let probe = Arc::new(Probe {
                reached: AtomicUsize::new(0),
                fail,
                marks: marks.clone(),
            });
            register(Arc::downgrade(&probe) as Weak<dyn Flushable>, marks);
            probe
        }

        fn reached(&self) -> usize {
            self.reached.load(Ordering::SeqCst)
        }
    }

    impl Flushable for Probe {
        fn publish(&self, _me: u64, _which: Publish) -> Result<()> {
            self.reached.fetch_add(1, Ordering::SeqCst);
            if self.fail {
                return Err(crate::Error::WriteClosed);
            }
            self.marks.dirty.store(false, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn tokens_are_unique_per_task() {
        let mine = task_token();
        let theirs = std::thread::spawn(task_token).join().unwrap();
        assert_ne!(mine, theirs);
        assert_eq!(mine, task_token(), "stable within a task");
    }

    #[test]
    fn flush_skips_foreign_owners_and_drops_dead_entries() {
        let me = task_token();
        let mine = Probe::register(me, true, None);
        let foreign = Probe::register(me + 1_000_000, true, None);
        let dead = Probe::register(me, true, None);
        drop(dead);
        flush_task_sinks().unwrap();
        assert_eq!(mine.reached(), 1);
        assert_eq!(foreign.reached(), 0);
    }

    #[test]
    fn first_error_wins_but_all_sinks_run() {
        let a = Probe::register_failing(task_token(), true, None, true);
        let b = Probe::register(task_token(), true, None);
        assert!(flush_task_sinks().is_err());
        assert_eq!(a.reached(), 1);
        assert_eq!(b.reached(), 1, "error does not halt the sweep");
    }

    /// Ten thousand step boundaries over a dirty sink whose local reader is
    /// busy, and over a clean one whose reader waits, never reach either:
    /// no upgrade, no entry. The same boundary reaches the first the moment
    /// its reader parks.
    #[test]
    fn step_boundary_never_reaches_a_busy_or_clean_sink() {
        let me = task_token();
        let busy_reader = Arc::new(AtomicBool::new(false));
        let busy = Probe::register(me, true, Some(busy_reader.clone()));
        let clean = Probe::register(me, false, Some(Arc::new(AtomicBool::new(true))));
        let mut boundary = StepBoundary::of_current_task();
        for _ in 0..10_000 {
            boundary.cross().unwrap();
        }
        assert_eq!(busy.reached(), 0, "a busy reader's sink was touched");
        assert_eq!(clean.reached(), 0, "a clean sink was touched");
        busy_reader.store(true, Ordering::Relaxed);
        boundary.cross().unwrap();
        assert_eq!(
            busy.reached(),
            1,
            "a waiting reader's sink was not published"
        );
    }

    /// A wait sweeps only while the task has something unpublished, and a
    /// failed publish — its bytes still in the chunk, its error stashed —
    /// is offered again to every later wait, as before there was a flag.
    #[test]
    fn a_wait_sweeps_only_while_something_is_unpublished() {
        let me = task_token();
        let failing = Probe::register_failing(me, true, None, true);
        assert!(unpublished(), "registering and dirtying raise the flag");
        assert!(flush_task_sinks().is_err());
        assert!(flush_task_sinks().is_err(), "the failed sink is still due");
        assert_eq!(failing.reached(), 2);
        failing.marks.dirty.store(false, Ordering::Relaxed);
        flush_task_sinks().unwrap();
        assert!(!unpublished(), "a sweep that left nothing due clears it");
        let ok = Probe::register(me, false, None);
        flush_task_sinks().unwrap();
        assert!(!unpublished());
        for _ in 0..1_000 {
            flush_before_block();
        }
        assert_eq!((ok.reached(), failing.reached()), (0, 2));
        // The next chunk that fills raises it again.
        ok.marks.set_dirty();
        flush_before_block();
        assert_eq!(ok.reached(), 1);
        assert!(!unpublished());
    }

    /// A step boundary that leaves a sink batching (its local reader is
    /// busy) leaves the task's flag raised, so the task's next wait still
    /// publishes that sink.
    #[test]
    fn a_sink_a_step_boundary_leaves_batching_is_published_by_the_next_wait() {
        let me = task_token();
        let busy = Probe::register(me, false, Some(Arc::new(AtomicBool::new(false))));
        flush_task_sinks().unwrap();
        assert!(!unpublished());
        busy.marks.set_dirty();
        let mut boundary = StepBoundary::of_current_task();
        boundary.cross().unwrap();
        assert_eq!(busy.reached(), 0, "a busy reader's sink was published");
        assert!(unpublished(), "the boundary cleared the flag");
        flush_before_block();
        assert_eq!(busy.reached(), 1, "the wait did not publish the batch");
    }

    /// A sweep whose publish waits: that wait's own sweep must still find
    /// the task's other dirty sinks, though the outer sweep cleared the
    /// flag before it began.
    #[test]
    fn a_wait_inside_a_publish_still_publishes_the_other_sinks() {
        struct Nested {
            /// The inside bit of a real sink's claim word: the wait inside
            /// its own publish skips it.
            flushing: AtomicBool,
            marks: Arc<Marks>,
            /// The task's other sink, and how often the wait inside this
            /// publish had published it by the time it returned.
            other: std::sync::OnceLock<Arc<Probe>>,
            other_seen: AtomicUsize,
        }
        impl Flushable for Nested {
            fn publish(&self, _me: u64, _which: Publish) -> Result<()> {
                if self.flushing.swap(true, Ordering::SeqCst) {
                    return Ok(());
                }
                // The publish blocks on a full channel: it waits, and a
                // wait publishes first.
                flush_before_block();
                let seen = self.other.get().map_or(0, |p| p.reached());
                self.other_seen.store(seen, Ordering::SeqCst);
                self.marks.dirty.store(false, Ordering::Relaxed);
                self.flushing.store(false, Ordering::SeqCst);
                Ok(())
            }
        }
        let me = task_token();
        let marks = Marks::new(None);
        marks.claim.store(me << 1, Ordering::Relaxed);
        marks.set_dirty();
        let first = Arc::new(Nested {
            flushing: AtomicBool::new(false),
            marks: marks.clone(),
            other: std::sync::OnceLock::new(),
            other_seen: AtomicUsize::new(0),
        });
        register(Arc::downgrade(&first) as Weak<dyn Flushable>, marks);
        let second = Probe::register(me, true, None);
        first.other.set(second.clone()).ok();
        flush_before_block();
        assert_eq!(
            first.other_seen.load(Ordering::SeqCst),
            1,
            "the wait inside the first publish left the second sink unpublished"
        );
        assert_eq!(second.reached(), 1);
    }

    /// A sink written by one task and taken over by another holds bytes
    /// the new owner never dirtied (its chunk was not empty): taking it
    /// over raises the new owner's flag, and its wait publishes them.
    #[test]
    fn a_sink_taken_over_is_published_by_its_new_owners_wait() {
        let (w, r) = crate::channel::channel_with_capacity(64);
        let mut out = DataWriter::new(w);
        out.write_i64(1).unwrap();
        let out = std::thread::spawn(move || {
            out.write_i64(2).unwrap();
            flush_before_block();
            out
        })
        .join()
        .unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut r = DataReader::new(r);
            let got = (r.read_i64().unwrap(), r.read_i64().unwrap());
            let _ = tx.send(got);
        });
        let got = rx.recv_timeout(Duration::from_secs(10));
        drop(out);
        reader.join().unwrap();
        assert_eq!(
            got.expect("the new owner's wait left the sink unpublished"),
            (1, 2)
        );
    }

    /// A step that wraps a new `DataWriter` mid-run registers a sink the
    /// boundary's snapshot predates. The task's registration count moves,
    /// the next boundary takes a new snapshot, and the token is published
    /// once its reader parks — while the process still runs, not when it
    /// ends and drops the writer.
    #[test]
    fn step_boundary_sees_a_sink_registered_mid_run() {
        const CREATE_AT: u64 = 3;
        const LIMIT: u64 = 20_000;
        struct Late {
            out: Option<crate::ChannelWriter>,
            writer: Option<DataWriter>,
            steps: u64,
            delivered: Arc<AtomicBool>,
            stopped_by_reader: Arc<AtomicBool>,
        }
        impl Iterative for Late {
            fn limit(&self) -> Option<u64> {
                Some(LIMIT)
            }
            fn step(&mut self, _ctx: &ProcessCtx) -> Result<()> {
                self.steps += 1;
                if self.steps == CREATE_AT {
                    let mut w = DataWriter::new(self.out.take().unwrap());
                    w.write_i64(42)?;
                    self.writer = Some(w);
                }
                if self.delivered.load(Ordering::SeqCst) {
                    self.stopped_by_reader.store(true, Ordering::SeqCst);
                    return Err(Error::Eof);
                }
                crate::exec::sleep(Duration::from_micros(200));
                Ok(())
            }
        }
        let delivered = Arc::new(AtomicBool::new(false));
        let stopped_by_reader = Arc::new(AtomicBool::new(false));
        let net = Network::new();
        let (w, r) = net.channel();
        net.add(Late {
            out: Some(w),
            writer: None,
            steps: 0,
            delivered: delivered.clone(),
            stopped_by_reader: stopped_by_reader.clone(),
        });
        net.start();
        let mut r = DataReader::new(r);
        assert_eq!(r.read_i64().unwrap(), 42);
        delivered.store(true, Ordering::SeqCst);
        net.join().unwrap();
        assert!(
            stopped_by_reader.load(Ordering::SeqCst),
            "the token arrived only when the process ended: the boundary never saw the new sink"
        );
    }
}
