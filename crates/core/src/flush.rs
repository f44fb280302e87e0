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
//! re-registers lazily whenever it is written from a new task. Stale
//! registrations on the old task are skipped by an owner-token check and
//! pruned as their weak references die. The registry is an immutable list
//! replaced on registration, so a sweep shares it instead of copying it —
//! the step boundary runs one sweep per `Iterative::step` and must not allocate.

use crate::error::Result;
use std::sync::{Arc, Weak};

/// Which of a task's dirty sinks a sweep publishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Publish {
    /// Every dirty sink: the task is about to wait, or asked for "now".
    All,
    /// The `Iterative` step boundary: a sink whose reader waits, and one
    /// whose reader cannot be seen once as long has passed since its last
    /// publish as that publish took (clause 5 of the module docs).
    StepBoundary,
}

/// A sink with a private buffer that can be flushed by the flush registry.
///
/// Implementations must be cheap to probe when clean or not owned, and must
/// *never* block on a lock a flush could be holding (use `try_lock` and
/// skip: a sink mid-flush on this task is already being published).
pub trait Flushable: Send + Sync {
    /// Flushes the private buffer toward the consumer *if* the sink is
    /// currently owned by the task with token `owner` and `which` selects
    /// it. Non-owners, clean sinks and — under [`Publish::StepBoundary`] —
    /// sinks that clause 5 leaves batching return `Ok(())` without side
    /// effects.
    fn flush_owned(&self, owner: u64, which: Publish) -> Result<()>;
}

/// A small, unique, never-reused identifier for the calling task (a process
/// under any executor, or a foreign thread touching channels from outside).
pub fn task_token() -> u64 {
    crate::exec::task_token()
}

/// Registers a buffered sink with the *calling* task's flush registry.
/// Dead entries are pruned on each registration. The registry is replaced,
/// not edited: a sweep in progress keeps walking the list it started with.
pub fn register(sink: Weak<dyn Flushable>) {
    crate::exec::with_current(|locals| {
        let mut sinks = locals.sinks.lock();
        let mut v: Vec<_> = sinks
            .iter()
            .filter(|w| w.strong_count() > 0)
            .cloned()
            .collect();
        v.push(sink);
        *sinks = Arc::new(v);
    });
}

/// Offers every live sink in the calling task's registry the chance to
/// flush, returning the first error encountered (all sinks are still
/// attempted).
fn sweep(which: Publish) -> Result<()> {
    // The list is shared, not copied, and no lock is held while flushing:
    // a flush can block (a full channel), and the step boundary runs this
    // once per `Iterative::step`, so it must not allocate.
    let (me, sinks) = crate::exec::with_current(|l| (l.token, l.sinks.lock().clone()));
    let mut first_err = None;
    for sink in sinks.iter().filter_map(Weak::upgrade) {
        if let Err(e) = sink.flush_owned(me, which) {
            first_err.get_or_insert(e);
        }
    }
    first_err.map_or(Ok(()), Err)
}

/// Publishes every dirty sink the calling task owns, unconditionally. This
/// is [`crate::ProcessCtx::flush_sinks`].
pub fn flush_task_sinks() -> Result<()> {
    sweep(Publish::All)
}

/// The `Iterative` step boundary: publishes the calling task's dirty sinks
/// that clause 5 selects, and leaves the rest batching.
pub(crate) fn flush_at_step_boundary() -> Result<()> {
    sweep(Publish::StepBoundary)
}

/// Publish-before-wait: every path on which a task may park calls this
/// first, and before it registers with the deadlock monitor. Errors are
/// swallowed here: the failing sink stashes its error and surfaces it on
/// the owner's next write (§3.4's "exception on the next write" semantics);
/// the operation that triggered the flush must still be allowed to proceed.
pub fn flush_before_block() {
    let _ = flush_task_sinks();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct Probe {
        owner: u64,
        flushes: AtomicUsize,
        fail: bool,
    }

    impl Flushable for Probe {
        fn flush_owned(&self, owner: u64, _which: Publish) -> Result<()> {
            if owner != self.owner {
                return Ok(());
            }
            self.flushes.fetch_add(1, Ordering::SeqCst);
            if self.fail {
                return Err(crate::Error::WriteClosed);
            }
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
        let mine = Arc::new(Probe {
            owner: task_token(),
            flushes: AtomicUsize::new(0),
            fail: false,
        });
        let foreign = Arc::new(Probe {
            owner: task_token() + 1_000_000,
            flushes: AtomicUsize::new(0),
            fail: false,
        });
        let dead = Arc::new(Probe {
            owner: task_token(),
            flushes: AtomicUsize::new(0),
            fail: false,
        });
        register(Arc::downgrade(&mine) as Weak<dyn Flushable>);
        register(Arc::downgrade(&foreign) as Weak<dyn Flushable>);
        register(Arc::downgrade(&dead) as Weak<dyn Flushable>);
        drop(dead);
        flush_task_sinks().unwrap();
        assert_eq!(mine.flushes.load(Ordering::SeqCst), 1);
        assert_eq!(foreign.flushes.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn first_error_wins_but_all_sinks_run() {
        let a = Arc::new(Probe {
            owner: task_token(),
            flushes: AtomicUsize::new(0),
            fail: true,
        });
        let b = Arc::new(Probe {
            owner: task_token(),
            flushes: AtomicUsize::new(0),
            fail: false,
        });
        register(Arc::downgrade(&a) as Weak<dyn Flushable>);
        register(Arc::downgrade(&b) as Weak<dyn Flushable>);
        assert!(flush_task_sinks().is_err());
        assert_eq!(a.flushes.load(Ordering::SeqCst), 1);
        assert_eq!(b.flushes.load(Ordering::SeqCst), 1, "error does not halt the sweep");
    }
}
