//! FIFO byte channels with blocking reads and bounded blocking writes.
//!
//! This is the operational embodiment of Kahn's streams (§3.1): a
//! [`ChannelWriter`]/[`ChannelReader`] pair connected by a shared in-memory
//! ring buffer. Reads **block** when no data is available — the condition
//! Kahn requires for determinacy — and writes block when the bounded buffer
//! is full (§3.5), which both enforces scheduling fairness and enables
//! Parks' bounded-scheduling buffer management.
//!
//! Three features beyond a plain pipe reproduce the paper's machinery:
//!
//! * **Sequence readers** (`java.io.SequenceInputStream` analogue): a
//!   [`ChannelReader`] holds a *queue* of byte sources and advances to the
//!   next when one ends, so channels can be spliced together during dynamic
//!   reconfiguration without losing or duplicating bytes (Figures 9/10).
//! * **Writer retirement** ([`ChannelWriter::retire`]): a process that
//!   removes itself from the graph hands its *input* reader over to its
//!   output channel as a continuation; the downstream reader drains the
//!   buffer, then transparently continues reading from the spliced source.
//! * **Pluggable transports**: both endpoints are trait objects
//!   ([`Sink`]/[`Source`]), so the lowest layer can be swapped between the
//!   local shared buffer and a network socket (Figure 3's bottom layer),
//!   including mid-stream via [`SourceRead::Splice`] (used by the redirect
//!   protocol of §4.3).

use crate::buffer::RingBuffer;
use crate::error::{Error, Result};
use crate::exec::Exec;
use crate::flush::{self, Flushable, Marks, Publish};
use crate::monitor::{BlockGuard, BlockKind, ChannelIoStats, Look, Monitor, MonitoredChannel};
use crate::sim::HistoryRecorder;
use crate::topology::{EndpointShape, ProcessTag, SideState, StreamFraming};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

/// Default channel capacity in bytes, analogous to the default buffer size
/// of Java piped streams ("the default buffer capacities for Java streams
/// are sufficient for many programs", §3.5).
pub const DEFAULT_CAPACITY: usize = 8 * 1024;

static NEXT_CHANNEL_ID: AtomicU64 = AtomicU64::new(1);

/// Outcome of a single [`Source::read`] call.
pub enum SourceRead {
    /// `n > 0` bytes were copied into the buffer.
    Data(usize),
    /// This source ended; the reader should advance to its next source (or
    /// report EOF if there is none).
    End,
    /// This source ended *and* delivered a continuation: the reader splices
    /// the given reader's sources in place of this source and keeps going.
    /// Produced by writer retirement (Figures 9/10) and by transport
    /// redirects (§4.3).
    Splice(ChannelReader),
}

/// A blocking byte source: one stage of a [`ChannelReader`]'s sequence.
pub trait Source: Send {
    /// Blocks until at least one byte is available, the source ends, or an
    /// error occurs. `buf` is non-empty.
    fn read(&mut self, buf: &mut [u8]) -> Result<SourceRead>;
    /// The reader abandons this source (process terminated): release
    /// resources and make the corresponding writer fail on its next write.
    fn close(&mut self);
}

/// What a [`Sink`] knows about the reader at the far end of its stream (the
/// answer to [`Sink::reader_waiting`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReaderState {
    /// The reader is parked on this stream: publish, it is waiting for it.
    Waiting,
    /// The reader is running (or already being woken): keep batching, it
    /// will ask when it runs dry.
    Busy,
    /// The transport cannot see its reader (a socket, a wrapper around
    /// one, any foreign sink).
    Unseen,
}

impl ReaderState {
    /// A local channel's answer, read from its reader flag (see
    /// `Shared::reader_waiting`).
    pub(crate) fn of_local(flag: &AtomicBool) -> Self {
        if flag.load(Ordering::Relaxed) {
            ReaderState::Waiting
        } else {
            ReaderState::Busy
        }
    }
}

/// A blocking byte sink: the write end of a channel.
pub trait Sink: Send {
    /// Blocks until every byte has been accepted. Fails with
    /// [`Error::WriteClosed`] once the reader has closed.
    fn write_all(&mut self, buf: &[u8]) -> Result<()>;
    /// Pushes buffered bytes toward the reader (no-op for local channels).
    fn flush(&mut self) -> Result<()> {
        Ok(())
    }
    /// Gracefully ends the stream: the reader drains remaining data, then
    /// sees EOF.
    fn close(&mut self);
    /// Whether the reader of this stream is waiting for bytes the writer has
    /// not made visible yet — the question the `Iterative` step boundary
    /// asks before publishing a private chunk (see [`crate::flush`], clause
    /// 5). The default, [`ReaderState::Unseen`], is the answer of a transport
    /// that cannot see its reader (a socket): such a sink is published at a
    /// step boundary unless its previous publish returned less than that
    /// publish's own duration ago.
    fn reader_waiting(&self) -> ReaderState {
        ReaderState::Unseen
    }
    /// The most bytes this transport accepts before a write blocks, when it
    /// has such a bound. A private write buffer stacked on the transport is
    /// never larger (see [`ChannelWriter::ensure_buffered`]).
    fn capacity(&self) -> Option<usize> {
        None
    }
    /// Ends the stream with a continuation: the reader drains remaining
    /// data, then continues reading from `upstream` (writer retirement,
    /// Figures 9/10). Only local sinks support this.
    fn retire(self: Box<Self>, upstream: ChannelReader) -> Result<()> {
        drop(upstream); // closing it propagates upstream cancellation
        Err(Error::Graph("retire unsupported on this transport".into()))
    }
}

// ---------------------------------------------------------------------------
// Local shared-buffer transport
// ---------------------------------------------------------------------------

struct BufState {
    buf: RingBuffer,
    write_closed: bool,
    read_closed: bool,
    poisoned: bool,
    continuation: Option<ChannelReader>,
    // Waiter counts per side: unparks are skipped entirely when nobody is
    // parked, which removes a syscall-bound wakeup from the uncontended
    // fast path. Sound because waiters re-check their predicate under this
    // same mutex before (and after) every park.
    read_waiters: u32,
    write_waiters: u32,
    /// The writer's side of `Shared::reader_waiting`, for the monitor's
    /// look only: set when the writer commits to wait on a full buffer,
    /// cleared by the read or growth that wakes it.
    writer_waiting: bool,
    /// Per side (readers', writers'): the side's waiter is a process the
    /// monitor counts as blocked. Set by the waiter with its waiting flag,
    /// cleared by it or by the wake that un-counts it ([`Shared::uncount`]).
    counted: [bool; 2],
    // I/O counters (ChannelIoStats).
    bytes_written: u64,
    write_blocks: u64,
    read_blocks: u64,
    peak_occupancy: usize,
    // Lint metadata of the two sides, declared through the endpoints
    // (`EndpointTopo`) and read by `look`. Never affects data flow.
    writer: EndpointShape,
    reader: EndpointShape,
    /// The task that declared, or last used, a side declared `External`:
    /// the owner the monitor must see blocked before it counts a wait on
    /// the other side (`Look::external_user`). One slot serves both sides:
    /// a channel with both sides outside the network has no process to
    /// judge on it.
    external_user: u64,
}

impl BufState {
    fn waiters(&mut self, side: BlockKind) -> &mut u32 {
        match side {
            BlockKind::Read => &mut self.read_waiters,
            BlockKind::Write => &mut self.write_waiters,
        }
    }

    fn io_stats(&self) -> ChannelIoStats {
        ChannelIoStats {
            bytes_written: self.bytes_written,
            write_blocks: self.write_blocks,
            read_blocks: self.read_blocks,
            peak_occupancy: self.peak_occupancy,
            capacity: self.buf.capacity(),
        }
    }
}

/// Shared state of a local channel. Registered with the network's deadlock
/// monitor when created through [`crate::Network::channel`].
pub(crate) struct Shared {
    id: u64,
    state: Mutex<BufState>,
    /// The answer to [`Sink::reader_waiting`], and the monitor's proof that
    /// a registered reader is blocked. The reader sets it under the state
    /// lock once it has committed to wait on an empty buffer; the writer
    /// clears it when it *issues* the wake, not when the reader resumes —
    /// for the whole wake latency the reader is already taken care of,
    /// every step boundary inside that window may keep batching, and the
    /// monitor does not count a reader that is about to run. Also set, for
    /// good, when the reader closes or the channel is poisoned, so the
    /// writer's next step boundary flushes into the error instead of
    /// producing a chunk's worth of tokens for nobody.
    ///
    /// `Relaxed` throughout: the flag publishes no data (the bytes travel
    /// under the state lock, and so do both stores); it is a hint about
    /// *when* to flush. A stale `false` costs the reader one more producer
    /// step, a stale `true` costs one early flush, and publish-before-wait
    /// never consults it. Shared with the [`Marks`] of a buffered sink
    /// stacked on this channel's writer, so that a step boundary reads it
    /// without touching the sink (and without keeping the channel alive).
    reader_waiting: Arc<AtomicBool>,
    monitor: Option<Arc<Monitor>>,
    /// The executor every blocking operation on this channel parks through
    /// — the single scheduling seam (thread, pooled, or sim; see
    /// [`crate::exec`]).
    exec: Arc<dyn Exec>,
    /// Per side (readers', writers'): the executor of the first fiber of
    /// another executor that waited on it, set under the state lock. That
    /// fiber parked on its own executor, so every wake of the side is
    /// passed on to it (see [`Shared::block`]).
    foreign: [OnceLock<Weak<dyn Exec>>; 2],
    /// When set, every byte pushed through the ring buffer is appended to
    /// the recorder slot (the determinacy oracle's channel history).
    recorder: Option<(Arc<HistoryRecorder>, usize)>,
}

impl Shared {
    fn new(
        capacity: usize,
        monitor: Option<Arc<Monitor>>,
        exec: Arc<dyn Exec>,
        recorder: Option<(Arc<HistoryRecorder>, usize)>,
    ) -> Arc<Self> {
        Arc::new(Shared {
            id: NEXT_CHANNEL_ID.fetch_add(1, Ordering::Relaxed),
            state: Mutex::new(BufState {
                buf: RingBuffer::with_capacity(capacity),
                write_closed: false,
                read_closed: false,
                poisoned: false,
                continuation: None,
                read_waiters: 0,
                write_waiters: 0,
                writer_waiting: false,
                counted: [false; 2],
                bytes_written: 0,
                write_blocks: 0,
                read_blocks: 0,
                peak_occupancy: 0,
                writer: EndpointShape::open(),
                reader: EndpointShape::open(),
                external_user: 0,
            }),
            reader_waiting: Arc::new(AtomicBool::new(false)),
            monitor,
            exec,
            foreign: Default::default(),
            recorder,
        })
    }

    /// The park key of `side`, derived from this allocation's address
    /// (unique for the channel's lifetime, which is as long as anyone can
    /// be parked on it): the address for readers, 8 past it for writers.
    fn key(&self, side: BlockKind) -> usize {
        self as *const Shared as usize + 8 * (side == BlockKind::Write) as usize
    }

    /// Wakes every task parked waiting for this channel to become readable.
    fn wake_readers(&self) {
        self.wake(BlockKind::Read);
    }

    /// Wakes every task parked waiting for this channel to become writable.
    fn wake_writers(&self) {
        self.wake(BlockKind::Write);
    }

    /// Wakes `side` through the channel's executor and the foreign one it
    /// recorded. The record is read without the state lock: a waiter makes
    /// it under that lock before it counts as waiting, so a waker that saw
    /// it counted sees the record.
    fn wake(&self, side: BlockKind) {
        let key = self.key(side);
        self.exec.unpark_all(key);
        if let Some(exec) = self.foreign[side as usize].get().and_then(Weak::upgrade) {
            exec.unpark_all(key);
        }
    }

    /// The executor a task of `own` parks on to wait on `side`: `own`
    /// itself if `side` passes its wakes on to it — recorded here, under
    /// the state lock, by its first such wait — else the channel's. (A
    /// fiber of a second foreign executor on the same side waits in the
    /// channel executor's thread half, holding its worker.)
    fn park_on<'a>(&'a self, side: BlockKind, own: &'a Arc<dyn Exec>) -> &'a Arc<dyn Exec> {
        let forwarded = self.foreign[side as usize].get_or_init(|| Arc::downgrade(own));
        if std::ptr::addr_eq(forwarded.as_ptr(), Arc::as_ptr(own)) {
            own
        } else {
            &self.exec
        }
    }

    /// Issues the wake of `side` to the monitor: a counted waiter stops
    /// counting now, not when it resumes, so the trigger agrees with the looks.
    fn uncount(&self, st: &mut BufState, side: BlockKind) {
        if std::mem::take(&mut st.counted[side as usize]) {
            if let Some(m) = &self.monitor {
                m.uncount();
            }
        }
    }

    /// After the buffer gained room (a read, a growth): clears the writer's
    /// waiting marks and wakes it, if one is waiting.
    fn made_room(&self, mut st: parking_lot::MutexGuard<'_, BufState>) {
        st.writer_waiting = false;
        self.uncount(&mut st, BlockKind::Write);
        let wake = st.write_waiters > 0;
        drop(st);
        if wake {
            self.wake_writers();
        }
    }

    /// The one place a task waits on this channel, parking it while `pred`
    /// holds (evaluated under the state lock), in the order that keeps
    /// private buffers invisible to Kahn semantics and to the monitor:
    /// publish, mark the side waiting, register, park. The park keeps no
    /// clock (but off Linux x86_64, [`Monitor::local_deadline`]):
    /// registering evaluates the picture it completes, and so does a woken
    /// wait that goes on ([`Monitor::recount`]). Returns an error when the
    /// network is aborted at registration or the executor refuses to block
    /// this context (cross-executor use).
    fn block(&self, side: BlockKind, pred: impl Fn(&BufState) -> bool) -> Result<()> {
        // Publish-before-wait (see `crate::flush`): a token stranded in a
        // private chunk here could be exactly the one the rest of the
        // network is waiting for, and the monitor cannot see it either. A
        // reader must publish all its output; so must a writer — its
        // *other* outputs are as invisible as a reader's (the sink being
        // flushed into this channel is mid-flush and skips itself). The
        // flush can block, so it comes before the registration: a task
        // registers as blocked once.
        flush::flush_before_block();
        let key = self.key(side);
        // A fiber of another executor (a pooled process on a channel made
        // outside any network) parks on its own, which this side's wakes
        // are passed on to; everyone else parks on the channel's.
        let own = crate::exec::other_fiber_exec(&self.exec);
        // A process counts as blocked; a wake un-counts it (`counted`).
        let process = self.monitor.is_some() && crate::exec::is_process_task();
        let mut registration = None;
        // A wake cleared the `counted` mark: the count it took is owed back.
        let mut woken = false;
        let mut st = self.state.lock();
        *st.waiters(side) += 1;
        let res = loop {
            if !pred(&st) {
                break Ok(());
            }
            // Counted as waiting from here until a wake clears the marks —
            // the registration too, even one this task is still making.
            match side {
                BlockKind::Read => self.reader_waiting.store(true, Ordering::Relaxed),
                BlockKind::Write => st.writer_waiting = true,
            }
            st.counted[side as usize] = process;
            if let Some(m) = self.monitor.as_ref().filter(|_| woken || registration.is_none()) {
                // Registered (or counted again) with the marks set, and
                // before the re-check: if that completes an all-blocked
                // picture and detection grows this channel, the re-check
                // sees the new capacity.
                drop(st);
                let entered = if std::mem::take(&mut woken) {
                    m.recount();
                    Ok(())
                } else {
                    BlockGuard::enter(m, side, self.id).map(|guard| registration = Some(guard))
                };
                st = self.state.lock();
                woken = process && !std::mem::take(&mut st.counted[side as usize]);
                if let Err(e) = entered {
                    break Err(e);
                }
                continue;
            }
            // The token is read under the state lock with the predicate
            // still true: any wake that happens after we release the lock
            // bumps the generation, and `park` returns immediately on a
            // stale token — no lost wakeups, no wait-loop in the executor.
            let exec = match &own {
                Some(own) => self.park_on(side, own),
                None => &self.exec,
            };
            let token = exec.park_token(key);
            drop(st);
            let deadline = self.monitor.as_ref().and_then(|m| m.local_deadline());
            let parked = exec.park(key, token, deadline);
            // Off Linux x86_64 a remote wait cannot tick for itself: a local
            // wait does, once per period (`Monitor::local_deadline`).
            #[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
            if let (Ok(true), Some(m)) = (&parked, &self.monitor) {
                m.tick();
            }
            st = self.state.lock();
            woken = process && !std::mem::take(&mut st.counted[side as usize]);
            if let Err(e) = parked {
                break Err(e);
            }
        };
        *st.waiters(side) -= 1;
        drop(st);
        // Unregistered with the state lock released: the monitor's lock
        // comes before a channel's. A count a wake took comes back with the
        // exit, so no picture sees this task counted while it runs.
        match (&mut registration, &self.monitor) {
            (Some(guard), _) => guard.woken = woken,
            (None, Some(m)) if woken => m.recount(),
            _ => {}
        }
        drop(registration);
        res
    }
}

impl Drop for Shared {
    fn drop(&mut self) {
        // Leave the monitor's table; the final counters stay in its report.
        if let Some(m) = &self.monitor {
            m.channel_retired(self.id, self.state.get_mut().io_stats());
        }
    }
}

impl MonitoredChannel for Shared {
    fn look(&self) -> Look {
        let st = self.state.lock();
        Look {
            stats: st.io_stats(),
            buffered: st.buf.len(),
            write_closed: st.write_closed,
            read_closed: st.read_closed,
            reader_waiting: self.reader_waiting.load(Ordering::Relaxed),
            writer_waiting: st.writer_waiting,
            writer: st.writer.clone(),
            reader: st.reader.clone(),
            external_user: st.external_user,
        }
    }

    fn grow_if_full(&self, max: Option<usize>) -> Option<(usize, usize)> {
        let mut st = self.state.lock();
        if !st.buf.is_full() {
            return None;
        }
        let old = st.buf.capacity();
        let new = old.saturating_mul(2).min(max.unwrap_or(usize::MAX));
        if new <= old {
            return None;
        }
        st.buf.grow(new);
        self.made_room(st);
        Some((old, new))
    }

    fn ensure_capacity(&self, min: usize) -> bool {
        let mut st = self.state.lock();
        let old = st.buf.capacity();
        if old >= min {
            return false;
        }
        st.buf.grow(min);
        self.made_room(st);
        true
    }

    fn poison(&self) {
        let mut st = self.state.lock();
        st.poisoned = true;
        self.reader_waiting.store(true, Ordering::Relaxed);
        // Wake only the sides that actually have parked tasks: poisoning
        // an idle channel (the common case when a whole network aborts)
        // costs two flag reads instead of two broadcast wakeups.
        let (wake_readers, wake_writers) = (st.read_waiters > 0, st.write_waiters > 0);
        drop(st);
        if wake_readers {
            self.wake_readers();
        }
        if wake_writers {
            self.wake_writers();
        }
    }
}

/// An endpoint's link back to the local channel it was created as one side
/// of: where its lint declarations are kept. Weak, so that an endpoint
/// whose transport was closed or replaced does not keep the buffer alive.
struct EndpointTopo {
    chan: Weak<Shared>,
    side: BlockKind,
}

impl EndpointTopo {
    /// Edits this side's lint metadata, if the channel is still there.
    fn declare(&self, edit: impl FnOnce(&mut EndpointShape)) {
        if let Some(shared) = self.chan.upgrade() {
            let mut st = shared.state.lock();
            edit(match self.side {
                BlockKind::Write => &mut st.writer,
                BlockKind::Read => &mut st.reader,
            });
        }
    }

    fn mark(&self, state: SideState) {
        self.declare(|e| e.mark(state));
    }

    /// Marks the side driven from outside the network, by the calling task
    /// until another one uses it (the owner `Look::confirms` asks after).
    fn external(&self) {
        self.mark(SideState::External);
        if let Some(shared) = self.chan.upgrade() {
            shared.state.lock().external_user = crate::exec::task_token();
        }
    }

    fn attach(&self, tag: &ProcessTag) {
        self.declare(|e| {
            e.state = SideState::Attached;
            e.process = Some(tag.id());
        });
    }

    fn declare_item(&self, name: &'static str, size: usize) {
        self.declare(|e| {
            e.item_type = Some(name);
            e.item_size = Some(size);
        });
    }
}

/// The write end of a local channel.
struct LocalSink {
    shared: Arc<Shared>,
    closed: bool,
}

impl LocalSink {
    /// Blocks until the buffer has free space, the reader closes, or the
    /// network is poisoned. Returns with the state lock *not* held.
    fn block_until_writable(&self) -> Result<()> {
        let sh = &self.shared;
        loop {
            let mut st = sh.state.lock();
            if st.poisoned {
                return Err(Error::Deadlocked);
            }
            if st.read_closed {
                return Err(Error::WriteClosed);
            }
            if !st.buf.is_full() {
                return Ok(());
            }
            st.write_blocks += 1;
            drop(st);
            sh.block(BlockKind::Write, |st| {
                st.buf.is_full() && !st.read_closed && !st.poisoned
            })?;
        }
    }
}

impl Sink for LocalSink {
    fn write_all(&mut self, mut buf: &[u8]) -> Result<()> {
        let sh = &self.shared;
        // Preemption point: under sim every channel operation is a place
        // the schedule may switch tasks (a no-op on other executors).
        sh.exec.yield_point();
        // An empty write still surfaces a closed/poisoned channel promptly.
        if buf.is_empty() {
            let st = sh.state.lock();
            if st.poisoned {
                return Err(Error::Deadlocked);
            }
            if st.read_closed {
                return Err(Error::WriteClosed);
            }
            return Ok(());
        }
        while !buf.is_empty() {
            self.block_until_writable()?;
            let mut st = sh.state.lock();
            if st.poisoned {
                return Err(Error::Deadlocked);
            }
            if st.read_closed {
                return Err(Error::WriteClosed);
            }
            let n = st.buf.push(buf);
            if st.writer.state == SideState::External {
                st.external_user = crate::exec::task_token();
            }
            if let Some((rec, slot)) = &sh.recorder {
                rec.record(*slot, &buf[..n]);
            }
            buf = &buf[n..];
            st.bytes_written += n as u64;
            st.peak_occupancy = st.peak_occupancy.max(st.buf.len());
            let wake = n > 0 && st.read_waiters > 0;
            if wake {
                sh.reader_waiting.store(false, Ordering::Relaxed);
                sh.uncount(&mut st, BlockKind::Read);
            }
            drop(st);
            if wake {
                sh.wake_readers();
            }
        }
        Ok(())
    }

    fn reader_waiting(&self) -> ReaderState {
        ReaderState::of_local(&self.shared.reader_waiting)
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.shared.state.lock().buf.capacity())
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        let mut st = self.shared.state.lock();
        st.write_closed = true;
        // Close only wakes the side that can act on it: blocked *readers*
        // must observe EOF. Writers on this channel are us — nothing to wake.
        let wake = st.read_waiters > 0;
        drop(st);
        if wake {
            self.shared.wake_readers();
        }
    }

    fn retire(mut self: Box<Self>, upstream: ChannelReader) -> Result<()> {
        self.closed = true;
        let mut st = self.shared.state.lock();
        if st.read_closed {
            // Downstream is gone; just propagate cancellation upstream.
            drop(st);
            drop(upstream);
            return Err(Error::WriteClosed);
        }
        st.continuation = Some(upstream);
        st.write_closed = true;
        let wake = st.read_waiters > 0;
        drop(st);
        if wake {
            self.shared.wake_readers();
        }
        Ok(())
    }
}

impl Drop for LocalSink {
    fn drop(&mut self) {
        self.close();
    }
}

/// The read end of a local channel.
struct LocalSource {
    shared: Arc<Shared>,
    closed: bool,
}

impl Source for LocalSource {
    fn read(&mut self, out: &mut [u8]) -> Result<SourceRead> {
        debug_assert!(!out.is_empty());
        let sh = &self.shared;
        // Preemption point (see the matching hook in `write_all`).
        sh.exec.yield_point();
        loop {
            let mut st = sh.state.lock();
            if st.poisoned {
                return Err(Error::Deadlocked);
            }
            if !st.buf.is_empty() {
                let n = st.buf.pop(out);
                if st.reader.state == SideState::External {
                    st.external_user = crate::exec::task_token();
                }
                sh.made_room(st);
                return Ok(SourceRead::Data(n));
            }
            if st.write_closed {
                return match st.continuation.take() {
                    Some(cont) => Ok(SourceRead::Splice(cont)),
                    None => Ok(SourceRead::End),
                };
            }
            st.read_blocks += 1;
            drop(st);
            sh.block(BlockKind::Read, |st| {
                st.buf.is_empty() && !st.write_closed && !st.poisoned
            })?;
        }
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        let (cont, wake) = {
            let mut st = self.shared.state.lock();
            st.read_closed = true;
            self.shared.reader_waiting.store(true, Ordering::Relaxed);
            (st.continuation.take(), st.write_waiters > 0)
        };
        if wake {
            self.shared.wake_writers();
        }
        // Dropping a pending continuation closes it, cancelling upstream.
        drop(cont);
        // The channel stays registered with the monitor until the Shared
        // itself drops: a writer can still be parked here with its
        // `WriteClosed` wake in flight, and the monitor must be able to see
        // `read_closed` to veto growing some *other* channel during the
        // termination cascade.
    }
}

impl Drop for LocalSource {
    fn drop(&mut self) {
        self.close();
    }
}

// ---------------------------------------------------------------------------
// Buffered sink (batching fast path)
// ---------------------------------------------------------------------------

/// Default size of the private write buffer installed by
/// [`ChannelWriter::ensure_buffered`] and the typed streams — the
/// `BufferedOutputStream` default Java gave the paper's implementation for
/// free.
pub const DEFAULT_STREAM_BUFFER: usize = 4 * 1024;

/// Replays a stashed error for re-delivery on a later call. `io::Error` is
/// not `Clone`, so transport errors are reconstructed from kind + message.
fn replay(e: &Error) -> Error {
    match e {
        Error::Eof => Error::Eof,
        Error::WriteClosed => Error::WriteClosed,
        Error::Deadlocked => Error::Deadlocked,
        Error::Disconnected(s) => Error::Disconnected(s.clone()),
        Error::Io(io) => Error::Io(std::io::Error::new(io.kind(), io.to_string())),
        Error::Codec(s) => Error::Codec(s.clone()),
        Error::Graph(s) => Error::Graph(s.clone()),
        Error::Lint(ds) => Error::Lint(ds.clone()),
    }
}

struct BufCore {
    buf: Vec<u8>,
    cap: usize,
    inner: Option<Box<dyn Sink>>,
    /// First error seen by a flush whose caller could not consume it (a
    /// read-path auto-flush). Sticky: surfaced on every later operation,
    /// reproducing §3.4's "exception on the next write".
    stashed: Option<Error>,
    /// Set, when a task adopts the sink, if the inner sink cannot see its
    /// reader ([`ReaderState::Unseen`]): its publishes are timed. A local
    /// channel has none and never reads a clock.
    pace: Option<Pace>,
}

/// The self-clocking of a sink that cannot see its reader (clause 5 of
/// [`crate::flush`]): at a step boundary it keeps batching while less time
/// has passed since its last publish returned than that publish took.
struct Pace {
    /// The owning task's executor, for its clock ([`Exec::now`]).
    exec: Arc<dyn Exec>,
    /// When the last publish returned and how long it took, end to end.
    /// Both zero until the owning task's first, which is therefore
    /// unconditional.
    returned: Duration,
    took: Duration,
}

impl Pace {
    fn new(exec: Arc<dyn Exec>) -> Self {
        Pace {
            exec,
            returned: Duration::ZERO,
            took: Duration::ZERO,
        }
    }

    /// Records a publish that began at `started` and has just returned.
    fn published(&mut self, started: Duration) {
        self.returned = self.exec.now();
        self.took = self.returned.saturating_sub(started);
    }

    /// The step boundary's question: is the last publish still younger
    /// than it was long?
    fn keeps_batching(&self) -> bool {
        self.exec.now().saturating_sub(self.returned) < self.took
    }
}

/// Shared state of a [`BufferedSink`], also reachable (weakly) from the
/// per-task flush registries.
struct BufferedShared {
    state: Mutex<BufCore>,
    /// What a flush-registry sweep reads without taking `state`: the owner
    /// (the task that last wrote), whether `state.buf` holds bytes, and the
    /// local reader's flag. Outside the lock so that a sweep over a stale
    /// registration (the sink has since moved to another task), a clean
    /// chunk or a busy local reader never takes it: the owner's own
    /// publish-before-wait `try_lock`s, and must only ever find the lock
    /// held by itself.
    marks: Arc<Marks>,
}

impl BufferedShared {
    /// Appends to the private buffer, marking it dirty when it stops being
    /// empty. Caller holds the lock.
    fn append(&self, st: &mut BufCore, bytes: &[u8]) {
        if st.buf.is_empty() && !bytes.is_empty() {
            self.marks.dirty.store(true, Ordering::Relaxed);
        }
        st.buf.extend_from_slice(bytes);
    }

    /// Drains the private buffer into the inner sink and flushes the inner
    /// sink (so remote transports push to the socket too). Caller holds the
    /// lock. Clears the buffer even on error — the bytes are lost exactly as
    /// they would be on an unbuffered failed write to a closed channel.
    fn flush_locked(&self, st: &mut BufCore) -> Result<()> {
        if let Some(e) = &st.stashed {
            return Err(replay(e));
        }
        let Some(inner) = st.inner.as_mut() else {
            return if st.buf.is_empty() {
                Ok(())
            } else {
                Err(Error::WriteClosed)
            };
        };
        if st.buf.is_empty() {
            return Ok(());
        }
        // A paced sink has the whole of each publish timed: monitor
        // registration, framing, the syscall, any back-pressure stall.
        let started = st.pace.as_ref().map(|p| p.exec.now());
        let res = inner.write_all(&st.buf).and_then(|()| inner.flush());
        st.buf.clear();
        self.marks.dirty.store(false, Ordering::Relaxed);
        if let (Some(pace), Some(started)) = (st.pace.as_mut(), started) {
            pace.published(started);
        }
        if let Err(e) = res {
            st.stashed = Some(replay(&e));
            return Err(e);
        }
        Ok(())
    }
}

impl Flushable for BufferedShared {
    fn publish(&self, which: Publish) -> Result<()> {
        // try_lock, not lock: only the owner writes or flushes, so a held
        // lock means this very task is mid-flush on this sink — the flush
        // blocked, and publish-before-wait led back here. It is already on
        // its way out.
        let Some(mut st) = self.state.try_lock() else {
            return Ok(());
        };
        if which == Publish::StepBoundary {
            // A closed sink answers as a closed channel does: publish, into
            // the error.
            let reader = st
                .inner
                .as_ref()
                .map_or(ReaderState::Waiting, |s| s.reader_waiting());
            if !flush::publishes(reader, || {
                st.pace.as_ref().is_some_and(Pace::keeps_batching)
            }) {
                return Ok(());
            }
        }
        // The marks said the chunk held bytes; under the lock it can be
        // empty only if this task is a former owner whose sweep raced the
        // new owner's publish. Nothing to publish then, and a stashed error
        // is the new owner's to see, not this task's.
        if st.buf.is_empty() {
            return Ok(());
        }
        // On error the stash has recorded it for the owner's next write;
        // publish-before-wait swallows the return value while the step
        // boundary and `ProcessCtx::flush_sinks` propagate it.
        self.flush_locked(&mut st)
    }
}

/// A [`Sink`] adapter that batches small writes into one inner transfer per
/// chunk (at most [`DEFAULT_STREAM_BUFFER`] bytes, and never more than the
/// inner transport's own capacity). Installed by
/// [`ChannelWriter::ensure_buffered`]; typed tokens then cost a `Vec` append
/// instead of a channel mutex round-trip each.
///
/// Deadlock safety: the sink registers with the owning task's flush
/// registry (re-registering lazily when written from a new task, since
/// processes are built on the main thread and run on their own), and every
/// path on which a task waits calls [`flush::flush_before_block`] first, so
/// buffered bytes are never invisible to a blocked consumer or to the
/// deadlock monitor.
struct BufferedSink {
    shared: Arc<BufferedShared>,
    /// Task token this sink last registered under (0 = never).
    registered_for: u64,
}

impl BufferedSink {
    /// `reader` is the reader flag of the local channel `inner` writes
    /// into, when it is one ([`Marks::reader`]).
    fn new(inner: Box<dyn Sink>, capacity: usize, reader: Option<Arc<AtomicBool>>) -> Self {
        BufferedSink {
            shared: Arc::new(BufferedShared {
                state: Mutex::new(BufCore {
                    buf: Vec::with_capacity(capacity),
                    cap: capacity.max(1),
                    inner: Some(inner),
                    stashed: None,
                    pace: None,
                }),
                marks: Marks::new(reader),
            }),
            registered_for: 0,
        }
    }

    /// Registers with the calling task's flush registry and takes
    /// ownership, once per task the sink is written from.
    fn adopt(&mut self) {
        let tok = flush::task_token();
        if self.registered_for != tok {
            self.change_owner(tok);
        }
    }

    /// Out of line: `adopt` runs on every write, this once per owner.
    #[cold]
    fn change_owner(&mut self, tok: u64) {
        self.registered_for = tok;
        self.shared.marks.owner.store(tok, Ordering::Relaxed);
        let mut st = self.shared.state.lock();
        let unseen = st
            .inner
            .as_ref()
            .is_some_and(|s| s.reader_waiting() == ReaderState::Unseen);
        // Paced on this task's clock from here on, starting over.
        st.pace = if unseen {
            crate::exec::current_exec().map(Pace::new)
        } else {
            None
        };
        drop(st);
        flush::register(
            Arc::downgrade(&self.shared) as Weak<dyn Flushable>,
            self.shared.marks.clone(),
        );
    }
}

impl Sink for BufferedSink {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        self.adopt();
        let sh = &*self.shared;
        let mut st = sh.state.lock();
        if let Some(e) = &st.stashed {
            return Err(replay(e));
        }
        if st.buf.len() + buf.len() <= st.cap {
            sh.append(&mut st, buf);
            return Ok(());
        }
        sh.flush_locked(&mut st)?;
        if buf.len() >= st.cap {
            // Oversized writes bypass the buffer: one inner transfer, no copy.
            let inner = st.inner.as_mut().expect("flush_locked verified inner");
            let res = inner.write_all(buf);
            if let Err(e) = res {
                st.stashed = Some(replay(&e));
                return Err(e);
            }
            Ok(())
        } else {
            sh.append(&mut st, buf);
            Ok(())
        }
    }

    fn flush(&mut self) -> Result<()> {
        self.adopt();
        self.shared.flush_locked(&mut self.shared.state.lock())
    }

    fn close(&mut self) {
        let mut st = self.shared.state.lock();
        let _ = self.shared.flush_locked(&mut st);
        if let Some(mut inner) = st.inner.take() {
            inner.close();
        }
    }

    fn retire(self: Box<Self>, upstream: ChannelReader) -> Result<()> {
        let mut st = self.shared.state.lock();
        self.shared.flush_locked(&mut st)?;
        match st.inner.take() {
            Some(inner) => inner.retire(upstream),
            None => {
                drop(upstream);
                Err(Error::WriteClosed)
            }
        }
    }
}

impl Drop for BufferedSink {
    fn drop(&mut self) {
        // A dropped-but-unclosed sink must still publish its buffer before
        // the inner sink's own drop closes the stream.
        self.close();
    }
}

/// An in-memory source holding bytes pushed back by a buffered reader
/// ([`ChannelReader::unread`]). Serves its bytes, then ends.
struct MemSource {
    data: Vec<u8>,
    pos: usize,
}

impl Source for MemSource {
    fn read(&mut self, buf: &mut [u8]) -> Result<SourceRead> {
        if self.pos == self.data.len() {
            return Ok(SourceRead::End);
        }
        let n = buf.len().min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(SourceRead::Data(n))
    }

    fn close(&mut self) {
        self.pos = self.data.len();
    }
}

// ---------------------------------------------------------------------------
// Public endpoints
// ---------------------------------------------------------------------------

/// The write end of a channel. Dropping it closes the stream gracefully
/// (the reader drains buffered data, then sees EOF) — exactly the `onStop`
/// behaviour of the paper's `IterativeProcess` (§3.2, §3.4).
pub struct ChannelWriter {
    sink: Option<Box<dyn Sink>>,
    /// True when `sink` is a [`BufferedSink`]; prevents double-wrapping.
    buffered: bool,
    /// True while `sink` is the `LocalSink` of the channel `topo` links to
    /// (or a buffer stacked on it): the buffer `ensure_buffered` stacks
    /// then gets that channel's reader flag for its [`Marks`].
    local: bool,
    /// Back-link to the local channel this endpoint was created as one side
    /// of, if it was. Pure metadata for the lint pass; never affects data
    /// flow.
    topo: Option<EndpointTopo>,
}

impl ChannelWriter {
    /// Wraps an arbitrary transport sink.
    pub fn from_sink(sink: Box<dyn Sink>) -> Self {
        ChannelWriter {
            sink: Some(sink),
            buffered: false,
            local: false,
            topo: None,
        }
    }

    /// Declares that this endpoint is owned by the process identified by
    /// `tag`. Called by the stdlib process constructors; custom processes
    /// may do the same (see [`crate::Process::lint_tag`]). Metadata only.
    pub fn attach(&self, tag: &ProcessTag) {
        tag.note_attachment();
        if let Some(t) = &self.topo {
            t.attach(tag);
        }
    }

    /// Declares that this endpoint is intentionally driven from outside the
    /// network (e.g. a main thread feeding the graph), exempting it from the
    /// L001 dangling-endpoint lint. The deadlock monitor then counts the
    /// process reading this channel as blocked only while the thread that
    /// declared or last wrote this endpoint is blocked too.
    pub fn declare_external(&self) {
        if let Some(t) = &self.topo {
            t.external();
        }
    }

    /// Declares the element type this endpoint produces, for the L002
    /// typed-stream contract lint. `size` is the encoded size in bytes.
    pub fn declare_item<T>(&self, size: usize) {
        if let Some(t) = &self.topo {
            t.declare_item(std::any::type_name::<T>(), size);
        }
    }

    /// Declares the stream framing installed over this endpoint (typed data
    /// stream vs. length-prefixed object stream), for the L002 lint.
    pub fn declare_framing(&self, framing: StreamFraming) {
        if let Some(t) = &self.topo {
            t.declare(|e| e.framing = Some(framing));
        }
    }

    /// Declares a fixed SDF rate (tokens written per firing) for the L005
    /// balance-equation lint.
    pub fn declare_rate(&self, rate: u64) {
        if let Some(t) = &self.topo {
            t.declare(|e| e.rate = Some(rate));
        }
    }

    /// Installs a private write buffer of `capacity` bytes in front of the
    /// transport, so small writes batch into one transfer per chunk. No-op
    /// if the writer is already buffered (wrapping a `DataWriter`'s inner
    /// writer again must not stack buffers) or if `capacity` is zero.
    ///
    /// The buffer is never larger than the transport's own bound
    /// ([`Sink::capacity`]): a channel created with `n` bytes of capacity
    /// holds at most `2n` with its writer's private chunk counted, so the
    /// bounded-buffer behaviour of §3.5 (blocking writes, artificial
    /// deadlock, growth) is that of the capacity that was asked for.
    ///
    /// Buffered bytes become visible on `flush`/`close`/drop, when the
    /// buffer fills, at an `Iterative` step boundary unless the reader is
    /// busy or the transport has just been written to, and — crucially for
    /// deadlock safety — before the owning task waits for anything (see
    /// [`crate::flush`]).
    pub fn ensure_buffered(&mut self, capacity: usize) {
        if self.buffered || capacity == 0 {
            return;
        }
        if let Some(inner) = self.sink.take() {
            let capacity = capacity.min(inner.capacity().unwrap_or(usize::MAX));
            let reader = match &self.topo {
                Some(t) if self.local => t.chan.upgrade().map(|sh| sh.reader_waiting.clone()),
                _ => None,
            };
            self.sink = Some(Box::new(BufferedSink::new(inner, capacity, reader)));
            self.buffered = true;
        }
    }

    /// True when a private write buffer is installed.
    pub fn is_buffered(&self) -> bool {
        self.buffered
    }

    fn sink(&mut self) -> &mut dyn Sink {
        self.sink
            .as_deref_mut()
            .expect("write on closed ChannelWriter")
    }

    /// Writes all bytes, blocking while the channel is full.
    pub fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        self.sink().write_all(buf)
    }

    /// Flushes buffered bytes toward the reader.
    pub fn flush(&mut self) -> Result<()> {
        self.sink().flush()
    }

    /// Gracefully closes the stream. Idempotent; also performed on drop.
    pub fn close(&mut self) {
        if let Some(mut s) = self.sink.take() {
            s.close();
            if let Some(t) = &self.topo {
                t.mark(SideState::Closed);
            }
        }
    }

    /// Removes the owning process from the graph (Figures 9/10): ends this
    /// stream but splices `upstream` after the buffered data, so the
    /// downstream reader continues without losing or repeating a byte.
    pub fn retire(mut self, upstream: ChannelReader) -> Result<()> {
        match self.sink.take() {
            Some(s) => {
                // The downstream reader now continues from `upstream`'s
                // bytes: both this write side and the consumed upstream read
                // side survive as a splice, not a dangle.
                if let Some(t) = &self.topo {
                    t.mark(SideState::Spliced);
                }
                if let Some(t) = &upstream.topo {
                    t.mark(SideState::Spliced);
                }
                s.retire(upstream)
            }
            None => Err(Error::WriteClosed),
        }
    }

    /// Replaces the underlying transport, returning the previous one.
    /// Used when a channel endpoint migrates between servers (§4.2). The
    /// replacement is assumed unbuffered; call [`ensure_buffered`] again if
    /// batching is wanted on the new transport. (Dropping the returned sink
    /// flushes and closes it.)
    ///
    /// [`ensure_buffered`]: ChannelWriter::ensure_buffered
    pub fn replace_sink(&mut self, sink: Box<dyn Sink>) -> Option<Box<dyn Sink>> {
        self.buffered = false;
        self.local = false;
        self.sink.replace(sink)
    }
}

impl Drop for ChannelWriter {
    fn drop(&mut self) {
        self.close();
    }
}

impl std::io::Write for ChannelWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_all(buf).map_err(std::io::Error::from)?;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        ChannelWriter::flush(self).map_err(std::io::Error::from)
    }
}

impl std::fmt::Debug for ChannelWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ChannelWriter({})",
            if self.sink.is_some() {
                "open"
            } else {
                "closed"
            }
        )
    }
}

/// The read end of a channel: a *sequence* of byte sources, advanced on EOF
/// and extended by splicing (the `SequenceInputStream` of §3.1/§3.3).
/// Dropping it closes the stream: writers fail on their next write.
pub struct ChannelReader {
    sources: VecDeque<Box<dyn Source>>,
    /// Back-link to the local channel this endpoint was created as one side
    /// of, if it was. Pure metadata for the lint pass; never affects data
    /// flow.
    topo: Option<EndpointTopo>,
}

impl ChannelReader {
    /// Wraps a single transport source.
    pub fn from_source(source: Box<dyn Source>) -> Self {
        let mut sources = VecDeque::with_capacity(1);
        sources.push_back(source);
        ChannelReader {
            sources,
            topo: None,
        }
    }

    /// An already-exhausted reader (EOF immediately).
    pub fn empty() -> Self {
        ChannelReader {
            sources: VecDeque::new(),
            topo: None,
        }
    }

    /// Declares that this endpoint is owned by the process identified by
    /// `tag`. Called by the stdlib process constructors; custom processes
    /// may do the same (see [`crate::Process::lint_tag`]). Metadata only.
    pub fn attach(&self, tag: &ProcessTag) {
        tag.note_attachment();
        if let Some(t) = &self.topo {
            t.attach(tag);
        }
    }

    /// Declares that this endpoint is intentionally driven from outside the
    /// network (e.g. a main thread draining results), exempting it from the
    /// L001 dangling-endpoint lint. The deadlock monitor then counts the
    /// process writing this channel as blocked only while the thread that
    /// declared or last read this endpoint is blocked too.
    pub fn declare_external(&self) {
        if let Some(t) = &self.topo {
            t.external();
        }
    }

    /// Declares the element type this endpoint expects, for the L002
    /// typed-stream contract lint. `size` is the encoded size in bytes.
    pub fn declare_item<T>(&self, size: usize) {
        if let Some(t) = &self.topo {
            t.declare_item(std::any::type_name::<T>(), size);
        }
    }

    /// Declares the stream framing installed over this endpoint (typed data
    /// stream vs. length-prefixed object stream), for the L002 lint.
    pub fn declare_framing(&self, framing: StreamFraming) {
        if let Some(t) = &self.topo {
            t.declare(|e| e.framing = Some(framing));
        }
    }

    /// Declares a fixed SDF rate (tokens read per firing) for the L005
    /// balance-equation lint.
    pub fn declare_rate(&self, rate: u64) {
        if let Some(t) = &self.topo {
            t.declare(|e| e.rate = Some(rate));
        }
    }

    /// Reads up to `buf.len()` bytes, blocking until at least one byte is
    /// available. Returns `Ok(0)` only at the true end of the stream.
    pub fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        loop {
            let Some(src) = self.sources.front_mut() else {
                return Ok(0);
            };
            match src.read(buf)? {
                SourceRead::Data(n) => {
                    debug_assert!(n > 0);
                    return Ok(n);
                }
                SourceRead::End => {
                    self.sources.pop_front();
                }
                SourceRead::Splice(cont) => {
                    self.sources.pop_front();
                    for s in cont.into_sources().into_iter().rev() {
                        self.sources.push_front(s);
                    }
                }
            }
        }
    }

    /// Reads exactly `buf.len()` bytes or fails with [`Error::Eof`].
    pub fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        let mut filled = 0;
        while filled < buf.len() {
            let n = self.read(&mut buf[filled..])?;
            if n == 0 {
                return Err(Error::Eof);
            }
            filled += n;
        }
        Ok(())
    }

    /// Appends another reader's sources after this one's: after this reader
    /// reaches the end of its current data, it continues with `tail`.
    pub fn append(&mut self, tail: ChannelReader) {
        if let Some(t) = &tail.topo {
            t.mark(SideState::Spliced);
        }
        self.sources.extend(tail.into_sources());
    }

    /// Pushes bytes back to the *front* of the stream: the next read returns
    /// them before anything else. Used by buffered readers
    /// ([`crate::DataReader`]) to hand unconsumed read-ahead back when they
    /// release the underlying reader, so wrap/unwrap round-trips (the
    /// sieve's per-step re-wrapping, §3.3) never lose a byte.
    pub fn unread(&mut self, bytes: Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        self.sources
            .push_front(Box::new(MemSource { data: bytes, pos: 0 }));
    }

    /// Closes the stream; pending and future writes upstream fail.
    /// Idempotent; also performed on drop.
    pub fn close(&mut self) {
        for mut s in self.sources.drain(..) {
            s.close();
        }
        if let Some(t) = &self.topo {
            t.mark(SideState::Closed);
        }
    }

    fn into_sources(mut self) -> VecDeque<Box<dyn Source>> {
        std::mem::take(&mut self.sources)
    }
}

impl Drop for ChannelReader {
    fn drop(&mut self) {
        self.close();
    }
}

impl std::io::Read for ChannelReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        ChannelReader::read(self, buf).map_err(std::io::Error::from)
    }
}

impl std::fmt::Debug for ChannelReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChannelReader({} sources)", self.sources.len())
    }
}

// ---------------------------------------------------------------------------
// Constructors
// ---------------------------------------------------------------------------

/// Creates an unmonitored local channel with [`DEFAULT_CAPACITY`].
pub fn channel() -> (ChannelWriter, ChannelReader) {
    channel_with(DEFAULT_CAPACITY, None)
}

/// Creates an unmonitored local channel with the given capacity.
pub fn channel_with_capacity(capacity: usize) -> (ChannelWriter, ChannelReader) {
    channel_with(capacity, None)
}

/// Creates a local channel, optionally registered with a deadlock monitor.
/// [`crate::Network::channel`] is the usual entry point.
pub fn channel_with(
    capacity: usize,
    monitor: Option<Arc<Monitor>>,
) -> (ChannelWriter, ChannelReader) {
    let exec = crate::exec::default_exec().clone() as Arc<dyn Exec>;
    channel_with_parts(capacity, monitor, exec, None)
}

/// Full-control constructor used by [`crate::Network`]: monitor plus the
/// network's executor and the history recorder of deterministic mode.
pub(crate) fn channel_with_parts(
    capacity: usize,
    monitor: Option<Arc<Monitor>>,
    exec: Arc<dyn Exec>,
    recorder: Option<Arc<HistoryRecorder>>,
) -> (ChannelWriter, ChannelReader) {
    let recorder = recorder.map(|r| {
        let slot = r.register();
        (r, slot)
    });
    let shared = Shared::new(capacity, monitor, exec, recorder);
    // The one registration: the monitor's table is where the channel
    // report, the topology snapshot, verification and abort find it.
    if let Some(m) = &shared.monitor {
        m.register_channel(shared.id, Arc::downgrade(&shared) as Weak<dyn MonitoredChannel>);
    }
    let endpoint = |side| {
        Some(EndpointTopo {
            chan: Arc::downgrade(&shared),
            side,
        })
    };
    let mut writer = ChannelWriter::from_sink(Box::new(LocalSink {
        shared: shared.clone(),
        closed: false,
    }));
    writer.topo = endpoint(BlockKind::Write);
    writer.local = true;
    let mut reader = ChannelReader::from_source(Box::new(LocalSource {
        shared: shared.clone(),
        closed: false,
    }));
    reader.topo = endpoint(BlockKind::Read);
    (writer, reader)
}

/// A `Channel` object in the style of the paper's API (Figure 6): holds both
/// endpoints until the graph construction code claims them.
///
/// ```
/// use kpn_core::Channel;
/// let mut ch = Channel::new();
/// let mut w = ch.writer();
/// let mut r = ch.reader();
/// w.write_all(b"hi").unwrap();
/// drop(w);
/// let mut buf = [0u8; 2];
/// r.read_exact(&mut buf).unwrap();
/// assert_eq!(&buf, b"hi");
/// ```
#[derive(Debug)]
pub struct Channel {
    writer: Option<ChannelWriter>,
    reader: Option<ChannelReader>,
}

impl Channel {
    /// A channel with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A channel with an explicit capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        let (w, r) = channel_with_capacity(capacity);
        Channel {
            writer: Some(w),
            reader: Some(r),
        }
    }

    /// Claims the single write end (`getOutputStream`). Panics if already
    /// claimed — channels are single-producer (§1).
    pub fn writer(&mut self) -> ChannelWriter {
        self.writer.take().expect("channel writer already claimed")
    }

    /// Claims the single read end (`getInputStream`). Panics if already
    /// claimed — channels are single-consumer (§1).
    pub fn reader(&mut self) -> ChannelReader {
        self.reader.take().expect("channel reader already claimed")
    }
}

impl Default for Channel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn write_then_read() {
        let (mut w, mut r) = channel();
        w.write_all(b"abc").unwrap();
        let mut buf = [0u8; 3];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"abc");
    }

    #[test]
    fn read_blocks_until_data() {
        let (mut w, mut r) = channel();
        let h = thread::spawn(move || {
            let mut buf = [0u8; 4];
            r.read_exact(&mut buf).unwrap();
            buf
        });
        thread::sleep(Duration::from_millis(20));
        w.write_all(b"wait").unwrap();
        assert_eq!(&h.join().unwrap(), b"wait");
    }

    #[test]
    fn write_blocks_until_space() {
        let (mut w, mut r) = channel_with_capacity(4);
        w.write_all(b"1234").unwrap();
        let h = thread::spawn(move || {
            w.write_all(b"5678").unwrap(); // blocks until reader drains
            w
        });
        thread::sleep(Duration::from_millis(20));
        let mut buf = [0u8; 8];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"12345678");
        drop(h.join().unwrap());
    }

    #[test]
    fn close_writer_gives_eof_after_drain() {
        // §3.4: closing an OutputStream does not interrupt the reader; EOF
        // arrives only after all buffered data is consumed.
        let (mut w, mut r) = channel();
        w.write_all(b"tail").unwrap();
        drop(w);
        let mut buf = [0u8; 4];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"tail");
        assert_eq!(r.read(&mut buf).unwrap(), 0);
        assert!(matches!(r.read_exact(&mut buf), Err(Error::Eof)));
    }

    #[test]
    fn close_reader_fails_next_write() {
        // §3.4: closing an InputStream causes an exception on the next write.
        let (mut w, r) = channel();
        w.write_all(b"x").unwrap();
        drop(r);
        assert!(matches!(w.write_all(b"y"), Err(Error::WriteClosed)));
    }

    #[test]
    fn close_reader_wakes_blocked_writer() {
        let (mut w, r) = channel_with_capacity(2);
        w.write_all(b"ab").unwrap();
        let h = thread::spawn(move || w.write_all(b"cd"));
        thread::sleep(Duration::from_millis(20));
        drop(r);
        assert!(matches!(h.join().unwrap(), Err(Error::WriteClosed)));
    }

    #[test]
    fn close_writer_wakes_blocked_reader() {
        let (w, mut r) = channel();
        let h = thread::spawn(move || {
            let mut buf = [0u8; 1];
            r.read(&mut buf)
        });
        thread::sleep(Duration::from_millis(20));
        drop(w);
        assert_eq!(h.join().unwrap().unwrap(), 0);
    }

    #[test]
    fn large_transfer_through_small_buffer() {
        let (mut w, mut r) = channel_with_capacity(16);
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let expect = data.clone();
        let h = thread::spawn(move || {
            w.write_all(&data).unwrap();
        });
        let mut got = vec![0u8; expect.len()];
        r.read_exact(&mut got).unwrap();
        h.join().unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn retire_splices_upstream_after_buffered_data() {
        // Figure 10: process b (up -> down) removes itself. Downstream must
        // see b's buffered output first, then bytes coming from upstream.
        let (mut up_w, up_r) = channel();
        let (mut down_w, mut down_r) = channel();
        up_w.write_all(b"XY").unwrap();
        down_w.write_all(b"ab").unwrap();
        down_w.retire(up_r).unwrap();
        drop(up_w);
        let mut buf = [0u8; 4];
        down_r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"abXY");
        assert_eq!(down_r.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn retire_then_live_upstream_writes_flow_through() {
        let (mut up_w, up_r) = channel();
        let (down_w, mut down_r) = channel();
        down_w.retire(up_r).unwrap();
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            up_w.write_all(b"later").unwrap();
        });
        let mut buf = [0u8; 5];
        down_r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"later");
        h.join().unwrap();
    }

    #[test]
    fn retire_to_closed_reader_cancels_upstream() {
        let (mut up_w, up_r) = channel();
        let (down_w, down_r) = channel();
        drop(down_r);
        assert!(down_w.retire(up_r).is_err());
        // Upstream got closed by the failed retire.
        assert!(matches!(up_w.write_all(b"x"), Err(Error::WriteClosed)));
    }

    #[test]
    fn closing_spliced_reader_cancels_chain() {
        // Reader close must propagate through a pending continuation.
        let (mut up_w, up_r) = channel();
        let (down_w, down_r) = channel();
        down_w.retire(up_r).unwrap();
        drop(down_r); // closes local source AND the pending continuation
        assert!(matches!(up_w.write_all(b"x"), Err(Error::WriteClosed)));
    }

    #[test]
    fn append_concatenates_streams() {
        let (mut w1, mut r1) = channel();
        let (mut w2, r2) = channel();
        w1.write_all(b"one").unwrap();
        w2.write_all(b"two").unwrap();
        drop(w1);
        drop(w2);
        r1.append(r2);
        let mut buf = [0u8; 6];
        r1.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"onetwo");
        assert_eq!(r1.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn chained_retires_preserve_all_bytes() {
        // a -> [b] -> [c] -> reader, where b and c both retire.
        let (mut aw, ar) = channel();
        let (mut bw, br) = channel();
        let (mut cw, mut cr) = channel();
        aw.write_all(b"A").unwrap();
        bw.write_all(b"B").unwrap();
        cw.write_all(b"C").unwrap();
        cw.retire(br).unwrap(); // c removes itself: cr continues from b
        bw.retire(ar).unwrap(); // b removes itself: continues from a
        drop(aw);
        let mut buf = [0u8; 3];
        cr.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"CBA");
        assert_eq!(cr.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn io_trait_interop() {
        use std::io::{Read, Write};
        let (mut w, mut r) = channel();
        assert_eq!(w.write(b"io").unwrap(), 2);
        Write::flush(&mut w).unwrap();
        drop(w);
        let mut s = String::new();
        r.read_to_string(&mut s).unwrap();
        assert_eq!(s, "io");
    }

    #[test]
    fn channel_struct_claims_panic_on_double_take() {
        let mut ch = Channel::new();
        let _w = ch.writer();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ch.writer()));
        assert!(result.is_err());
    }

    #[test]
    fn writer_close_idempotent() {
        let (mut w, _r) = channel();
        w.close();
        w.close();
    }

    #[test]
    fn reader_empty_is_immediate_eof() {
        let mut r = ChannelReader::empty();
        let mut buf = [0u8; 1];
        assert_eq!(r.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn many_small_writes_one_big_read() {
        let (mut w, mut r) = channel_with_capacity(8);
        let h = thread::spawn(move || {
            for i in 0..1000u32 {
                w.write_all(&[(i % 256) as u8]).unwrap();
            }
        });
        let mut got = vec![0u8; 1000];
        r.read_exact(&mut got).unwrap();
        h.join().unwrap();
        for (i, b) in got.iter().enumerate() {
            assert_eq!(*b, (i % 256) as u8);
        }
    }

    #[test]
    fn replace_sink_switches_transport_midstream() {
        // §4.2's transport swap at the writer: bytes written before and
        // after the swap land on the respective channels.
        let (w1, mut r1) = channel();
        let (w2, mut r2) = channel();
        let mut writer = w1;
        writer.write_all(b"first").unwrap();
        // Swap the underlying sink for channel 2's.
        let (sink2, _guard) = {
            // Extract channel 2's sink by deconstructing its writer.
            let mut w2 = w2;
            let sink = w2.replace_sink(Box::new(NullSink)).unwrap();
            (sink, w2)
        };
        let old = writer.replace_sink(sink2).unwrap();
        drop(old); // closes channel 1
        writer.write_all(b"second").unwrap();
        drop(writer);
        let mut buf1 = [0u8; 5];
        r1.read_exact(&mut buf1).unwrap();
        assert_eq!(&buf1, b"first");
        assert_eq!(r1.read(&mut buf1).unwrap(), 0, "channel 1 closed");
        let mut buf2 = [0u8; 6];
        r2.read_exact(&mut buf2).unwrap();
        assert_eq!(&buf2, b"second");
    }

    struct NullSink;
    impl Sink for NullSink {
        fn write_all(&mut self, _buf: &[u8]) -> Result<()> {
            Err(Error::WriteClosed)
        }
        fn close(&mut self) {}
    }

    #[test]
    fn ensure_buffered_is_idempotent() {
        let (mut w, _r) = channel();
        assert!(!w.is_buffered());
        w.ensure_buffered(64);
        assert!(w.is_buffered());
        w.ensure_buffered(1024); // must not stack a second buffer
        assert!(w.is_buffered());
        w.ensure_buffered(0);
        assert!(w.is_buffered());
    }

    #[test]
    fn buffered_writes_batch_until_flush() {
        let (mut w, mut r) = channel();
        w.ensure_buffered(64);
        w.write_all(b"abc").unwrap();
        w.write_all(b"def").unwrap();
        w.flush().unwrap();
        let mut buf = [0u8; 6];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"abcdef");
    }

    #[test]
    fn buffered_writes_flush_on_capacity_boundary() {
        let (mut w, mut r) = channel();
        w.ensure_buffered(4);
        w.write_all(b"ab").unwrap();
        w.write_all(b"cd").unwrap(); // exactly fills the buffer: still private
        w.write_all(b"e").unwrap(); // overflow forces the batch out
        let mut buf = [0u8; 4];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"abcd");
        w.flush().unwrap();
        let mut one = [0u8; 1];
        r.read_exact(&mut one).unwrap();
        assert_eq!(&one, b"e");
    }

    #[test]
    fn buffered_oversized_write_bypasses_buffer() {
        let (mut w, mut r) = channel();
        w.ensure_buffered(4);
        w.write_all(b"x").unwrap();
        w.write_all(b"0123456789").unwrap(); // >= cap: flush then direct
        let mut buf = [0u8; 11];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"x0123456789");
    }

    #[test]
    fn buffered_drop_flushes_then_closes() {
        let (mut w, mut r) = channel();
        w.ensure_buffered(1024);
        w.write_all(b"tail").unwrap();
        drop(w);
        let mut buf = [0u8; 4];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"tail");
        assert_eq!(r.read(&mut buf).unwrap(), 0, "EOF after drain");
    }

    #[test]
    fn buffered_flush_before_blocking_read_prevents_deadlock() {
        // A requires B's reply to its own (buffered, unflushed) request.
        // Without the flush-before-block hook both threads would park
        // forever on an unmonitored channel pair.
        let (mut aw, mut ar) = channel();
        let (mut bw, mut br) = channel();
        aw.ensure_buffered(1024);
        bw.ensure_buffered(1024);
        let a = thread::spawn(move || {
            aw.write_all(b"ping").unwrap();
            let mut buf = [0u8; 4];
            br.read_exact(&mut buf).unwrap(); // must auto-flush `aw`
            buf
        });
        let mut buf = [0u8; 4];
        ar.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        bw.write_all(b"pong").unwrap();
        bw.flush().unwrap();
        assert_eq!(&a.join().unwrap(), b"pong");
    }

    #[test]
    fn buffered_stashed_error_surfaces_on_next_write() {
        let (mut w, r) = channel();
        w.ensure_buffered(1024);
        w.write_all(b"doomed").unwrap();
        drop(r);
        assert!(matches!(w.flush(), Err(Error::WriteClosed)));
        // The failure is sticky, like §3.4's exception-on-next-write.
        assert!(matches!(w.write_all(b"more"), Err(Error::WriteClosed)));
    }

    #[test]
    fn buffered_retire_flushes_before_splicing() {
        let (mut up_w, up_r) = channel();
        let (mut down_w, mut down_r) = channel();
        down_w.ensure_buffered(1024);
        up_w.write_all(b"XY").unwrap();
        down_w.write_all(b"ab").unwrap(); // still private
        down_w.retire(up_r).unwrap(); // must flush, then splice
        drop(up_w);
        let mut buf = [0u8; 4];
        down_r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"abXY");
        assert_eq!(down_r.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn unread_bytes_come_back_first() {
        let (mut w, mut r) = channel();
        w.write_all(b"later").unwrap();
        r.unread(b"first".to_vec());
        let mut buf = [0u8; 10];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"firstlater");
    }

    #[test]
    fn unread_empty_is_noop() {
        let mut r = ChannelReader::empty();
        r.unread(Vec::new());
        let mut buf = [0u8; 1];
        assert_eq!(r.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn unread_interacts_with_append_in_stream_order() {
        // unread bytes sit in front of the current source; appended tails
        // come after everything — and a later unread still jumps the queue.
        let (mut w1, mut r1) = channel();
        let (mut w2, r2) = channel();
        w1.write_all(b"mid").unwrap();
        w2.write_all(b"tail").unwrap();
        drop(w1);
        drop(w2);
        r1.append(r2);
        r1.unread(b"front".to_vec());
        let mut buf = [0u8; 12];
        r1.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"frontmidtail");
        r1.unread(b"again".to_vec());
        let mut buf2 = [0u8; 5];
        r1.read_exact(&mut buf2).unwrap();
        assert_eq!(&buf2, b"again");
        assert_eq!(r1.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn unread_survives_splice_boundary() {
        // Push-back issued right at a retirement splice: the unread bytes
        // must come before the spliced upstream's data.
        let (mut up_w, up_r) = channel();
        let (down_w, mut down_r) = channel();
        up_w.write_all(b"up").unwrap();
        down_w.retire(up_r).unwrap();
        drop(up_w);
        down_r.unread(b"pushback".to_vec());
        let mut buf = [0u8; 10];
        down_r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pushbackup");
    }

    #[test]
    fn retire_mid_buffered_write_to_closed_reader_cancels_upstream() {
        // A buffered writer with private (unflushed) bytes retires after
        // its reader vanished: the retire must fail, not hang, and must
        // cancel the upstream it was handed.
        let (mut up_w, up_r) = channel();
        let (mut down_w, down_r) = channel();
        down_w.ensure_buffered(1024);
        down_w.write_all(b"private").unwrap(); // still in the private buffer
        drop(down_r);
        assert!(down_w.retire(up_r).is_err());
        assert!(matches!(up_w.write_all(b"x"), Err(Error::WriteClosed)));
    }

    #[test]
    fn retire_after_close_reports_write_closed() {
        let (mut w, _r) = channel();
        let (_uw, ur) = channel();
        w.close();
        assert!(matches!(w.retire(ur), Err(Error::WriteClosed)));
    }

    #[test]
    fn reader_close_is_idempotent_and_final() {
        let (mut w, mut r) = channel();
        w.write_all(b"x").unwrap();
        r.close();
        r.close(); // second close must be a no-op, not a panic
        let mut buf = [0u8; 1];
        assert_eq!(r.read(&mut buf).unwrap(), 0, "closed reader reads EOF");
        assert!(matches!(w.write_all(b"y"), Err(Error::WriteClosed)));
    }

    #[test]
    fn double_close_both_ends_any_order() {
        let (mut w, mut r) = channel();
        w.close();
        r.close();
        w.close();
        r.close();
        let (mut w2, mut r2) = channel();
        r2.close();
        w2.close();
        r2.close();
        w2.close();
    }

    #[test]
    fn reader_waiting_is_set_on_park_and_cleared_by_the_wake() {
        // The flag must go down when the writer *issues* the wake, not when
        // the reader gets around to resuming: every step boundary inside
        // the wake latency would otherwise flush (and wake) again.
        let (mut w, r) = channel();
        assert_eq!(
            w.sink().reader_waiting(),
            ReaderState::Busy,
            "nobody is parked yet"
        );
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let h = thread::spawn(move || {
            let mut r = r;
            let mut buf = [0u8; 1];
            r.read_exact(&mut buf).unwrap(); // parks
            go_rx.recv().unwrap(); // stays away from the channel
            r.read_exact(&mut buf).unwrap(); // parks again
        });
        let wait_until_parked = |w: &mut ChannelWriter| {
            while w.sink().reader_waiting() != ReaderState::Waiting {
                thread::sleep(Duration::from_millis(1));
            }
        };
        wait_until_parked(&mut w);
        w.write_all(b"x").unwrap();
        assert!(
            w.sink().reader_waiting() == ReaderState::Busy,
            "cleared by the write that woke the reader, whether or not it has resumed"
        );
        go_tx.send(()).unwrap();
        wait_until_parked(&mut w);
        w.write_all(b"y").unwrap();
        h.join().unwrap();
    }

    #[test]
    fn reader_waiting_after_close_so_the_writer_flushes_into_the_error() {
        let (mut w, r) = channel();
        drop(r);
        assert_eq!(w.sink().reader_waiting(), ReaderState::Waiting);
    }

    /// An unseen transport for the step-boundary table: counts its
    /// transfers and how often it is asked about its reader, and takes
    /// `took` over each transfer.
    struct Unseen {
        transfers: Arc<AtomicU64>,
        asked: Arc<AtomicU64>,
        took: Duration,
    }

    impl Sink for Unseen {
        fn write_all(&mut self, _buf: &[u8]) -> Result<()> {
            thread::sleep(self.took);
            self.transfers.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
        fn close(&mut self) {}
        fn reader_waiting(&self) -> ReaderState {
            self.asked.fetch_add(1, Ordering::SeqCst);
            ReaderState::Unseen
        }
    }

    /// A buffered writer over a fresh local channel, with the channel and
    /// its (open) reader.
    fn local_rig() -> (ChannelWriter, Arc<Shared>, ChannelReader) {
        let (mut w, r) = channel_with_capacity(1024);
        let shared = w.topo.as_ref().unwrap().chan.upgrade().unwrap();
        w.ensure_buffered(64);
        (w, shared, r)
    }

    /// Whether one step boundary of the calling task published into `sh`
    /// (a publish into a closed reader fails the boundary instead).
    fn boundary_publishes_into(sh: &Shared) -> bool {
        let before = sh.state.lock().bytes_written;
        let res = flush::StepBoundary::of_current_task().cross();
        res.is_err() || sh.state.lock().bytes_written > before
    }

    /// A buffered writer over an [`Unseen`] transport whose transfers take
    /// `took`, primed with one timed publish so its pace has a window.
    fn unseen_rig(took: Duration) -> (ChannelWriter, Arc<AtomicU64>, Arc<AtomicU64>) {
        let (transfers, asked) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let mut w = ChannelWriter::from_sink(Box::new(Unseen {
            transfers: transfers.clone(),
            asked: asked.clone(),
            took,
        }));
        w.ensure_buffered(64);
        w.write_all(b"x").unwrap();
        w.flush().unwrap();
        (w, transfers, asked)
    }

    /// Whether one step boundary published into the unseen transport, and
    /// whether it asked the sink at all.
    fn boundary_over_unseen(transfers: &AtomicU64, asked: &AtomicU64) -> (bool, bool) {
        let (t, a) = (
            transfers.load(Ordering::SeqCst),
            asked.load(Ordering::SeqCst),
        );
        flush::StepBoundary::of_current_task().cross().unwrap();
        (
            transfers.load(Ordering::SeqCst) > t,
            asked.load(Ordering::SeqCst) > a,
        )
    }

    /// The step boundary over one buffered sink per row, each on a task of
    /// its own. `publishes` is clause 5's answer for the row, which a
    /// boundary that locks and asks every sink gives as well; `touches`,
    /// where a transport can tell, is whether the sink was reached at all —
    /// only to publish, or to ask an unseen reader's pace.
    #[test]
    fn step_boundary_decision_table() {
        type Outcome = (bool, Option<bool>);
        type Row = (&'static str, Outcome, fn() -> Outcome);
        let rows: Vec<Row> = vec![
            ("clean sink, reader waiting", (false, None), || {
                let (mut w, sh, _r) = local_rig();
                w.write_all(b"x").unwrap();
                w.flush().unwrap();
                sh.reader_waiting.store(true, Ordering::Relaxed);
                (boundary_publishes_into(&sh), None)
            }),
            ("clean sink, reader unseen", (false, Some(false)), || {
                let (_w, transfers, asked) = unseen_rig(Duration::ZERO);
                thread::sleep(Duration::from_millis(5));
                let (published, touched) = boundary_over_unseen(&transfers, &asked);
                (published, Some(touched))
            }),
            ("dirty sink, reader waiting", (true, None), || {
                let (mut w, sh, _r) = local_rig();
                w.write_all(b"x").unwrap();
                sh.reader_waiting.store(true, Ordering::Relaxed);
                (boundary_publishes_into(&sh), None)
            }),
            ("reader busy", (false, None), || {
                let (mut w, sh, _r) = local_rig();
                w.write_all(b"x").unwrap();
                (boundary_publishes_into(&sh), None)
            }),
            (
                "reader unseen, pace window open",
                (false, Some(true)),
                || {
                    let (mut w, transfers, asked) = unseen_rig(Duration::from_millis(50));
                    w.write_all(b"x").unwrap();
                    let (published, touched) = boundary_over_unseen(&transfers, &asked);
                    (published, Some(touched))
                },
            ),
            (
                "reader unseen, pace window shut",
                (true, Some(true)),
                || {
                    let (mut w, transfers, asked) = unseen_rig(Duration::ZERO);
                    thread::sleep(Duration::from_millis(5));
                    w.write_all(b"x").unwrap();
                    let (published, touched) = boundary_over_unseen(&transfers, &asked);
                    (published, Some(touched))
                },
            ),
            ("sink now owned by another task", (false, None), || {
                let (mut w, sh, _r) = local_rig();
                w.write_all(b"x").unwrap();
                let w = thread::spawn(move || {
                    w.write_all(b"y").unwrap();
                    w
                })
                .join()
                .unwrap();
                sh.reader_waiting.store(true, Ordering::Relaxed);
                let published = boundary_publishes_into(&sh);
                drop(w);
                (published, None)
            }),
            ("sink closed", (false, None), || {
                let (mut w, sh, _r) = local_rig();
                w.write_all(b"x").unwrap();
                sh.reader_waiting.store(true, Ordering::Relaxed);
                w.close();
                (boundary_publishes_into(&sh), None)
            }),
            (
                "transport replaced: the old channel's reader does not decide",
                (false, Some(true)),
                || {
                    let (mut w, sh, _r) = local_rig();
                    let (transfers, asked) =
                        (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
                    drop(w.replace_sink(Box::new(Unseen {
                        transfers: transfers.clone(),
                        asked: asked.clone(),
                        took: Duration::from_millis(50),
                    })));
                    w.ensure_buffered(64);
                    w.write_all(b"x").unwrap();
                    w.flush().unwrap();
                    w.write_all(b"x").unwrap();
                    sh.reader_waiting.store(true, Ordering::Relaxed);
                    let (published, touched) = boundary_over_unseen(&transfers, &asked);
                    (published, Some(touched))
                },
            ),
            (
                "reader closed: publish into the error",
                (true, None),
                || {
                    let (mut w, sh, r) = local_rig();
                    w.write_all(b"x").unwrap();
                    drop(r);
                    (boundary_publishes_into(&sh), None)
                },
            ),
        ];
        for (case, expect, row) in rows {
            let got = thread::spawn(row).join().unwrap();
            assert_eq!(got, expect, "{case}: (publishes, touches)");
        }
    }

    #[test]
    fn buffered_sink_moved_across_threads_reflushes() {
        // A writer used on the main thread, then moved into a spawned
        // thread (the Network::spawn pattern): the flush hook must follow
        // the new owner.
        let (mut w, mut r) = channel();
        let (mut sig_w, mut sig_r) = channel();
        w.ensure_buffered(1024);
        w.write_all(b"main").unwrap();
        w.flush().unwrap();
        let h = thread::spawn(move || {
            w.write_all(b"spwn").unwrap();
            let mut one = [0u8; 1];
            sig_r.read_exact(&mut one).unwrap(); // auto-flush on new thread
            drop(w);
        });
        let mut buf = [0u8; 8];
        r.read_exact(&mut buf[..4]).unwrap();
        assert_eq!(&buf[..4], b"main");
        sig_w.write_all(b"!").unwrap();
        // The spawned thread's bytes become visible via its auto-flush (or
        // its drop, if the signal raced ahead of the blocking read).
        r.read_exact(&mut buf[4..]).unwrap();
        assert_eq!(&buf[4..], b"spwn");
        h.join().unwrap();
    }
}
