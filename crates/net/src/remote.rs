//! Remote channel endpoints over TCP — the `RemoteOutputStream` /
//! `RemoteInputStream` / `RedirectedInputStream` of §4.2–4.3.
//!
//! A [`RemoteSink`] plugs into a [`kpn_core::ChannelWriter`]; a
//! [`RemoteSource`], which listens for its connection from its first read
//! on, plugs into a [`kpn_core::ChannelReader`]. Both sides preserve the
//! full channel semantics across the network:
//!
//! * graceful writer close → `Close` frame → reader drains, then EOF;
//! * reader close → socket shutdown → writer's next write fails with
//!   [`Error::WriteClosed`] ("these exceptions even propagate across
//!   network connections", §3.4);
//! * a migrating writer sends `Redirect{token}`; the reader listens for
//!   that token at its own acceptor and reads on from the replacement
//!   connection, after which traffic flows directly between the new homes
//!   (Figure 15 — no bytes transit the original server).
//!
//! A cut channel does not keep the capacity its spec gives it: the cut
//! drops it. What bounds the bytes in flight is the writer's 16 KiB
//! `SINK_BUFFER`, the kernel's socket buffers on both ends and, on a
//! resilient sink, the replay's [`ReconnectPolicy::replay_capacity`](crate::ReconnectPolicy::replay_capacity). A
//! writer blocks when those are full, not when its reader is a channel's
//! capacity behind.
//!
//! The protocol itself — stream offsets, the replay, acknowledgements,
//! markers, recovery episodes and their budgets — is `link.rs`'s two
//! state machines, which do no IO. This file is their driver: it owns the
//! connection and its buffers, `rio`'s waits, the back-off sleeps and the
//! watchdog, and carries out what the state machines answer.
//!
//! ## Fault tolerance (sequence-numbered reconnection)
//!
//! With a [`ReconnectPolicy`](crate::ReconnectPolicy) enabled, endpoints survive transient link
//! failure without perturbing the Kahn semantics. Every frame carries the
//! writer's byte offset into the logical stream; the writer retains the
//! unacknowledged suffix of the stream, and the reader tracks the next
//! offset it will deliver, acknowledging cumulatively. When a transport
//! operation fails with a *transient* error (reset, timeout, refused
//! connect, EOF mid-stream):
//!
//! * the **writer** reconnects under exponential backoff + jitter + an
//!   overall budget, waits for the reader's resume acknowledgement, trims
//!   its replay to the acknowledged offset, and retransmits the rest — the
//!   reader discards any duplicate prefix, so every stream byte is
//!   delivered exactly once;
//! * the **reader** shuts the broken transport (so a writer whose half was
//!   still healthy fails fast and recovers too), re-registers its token at
//!   the local acceptor, and acknowledges its resume offset on the
//!   replacement connection.
//!
//! One hazard needs an active component: reconnection is writer-driven
//! (only the writer holds the reader's address), but a writer only
//! *discovers* a dead link when it next touches the socket. A process
//! parked reading some other channel may not write for an arbitrarily
//! long time — and if the lost connection swallowed an in-flight frame,
//! the whole network can stall waiting for a replay that nothing
//! triggers. A watchdog therefore pumps every resilient sink that is not
//! currently busy (see [`SinkCore::pump`]) — one task per [`NetProfile`],
//! shared by the profile's clones (a node's sinks, or a cluster's), on the
//! executor of whoever connected the first of them:
//! it drains acknowledgements and, on finding the link dead, runs the
//! ordinary recovery episode on the idle sink's behalf, one step (one
//! reconnect, one resume-ack wait) per pass, so a reader that is slow to
//! answer holds up the other sinks for a step, never for a whole budget.
//! It also finishes every closing sink: a resilient close sends its
//! `Close` marker and hands the sink to the watchdog, which pumps it the
//! same way and shuts the socket once the marker is acknowledged (or the
//! reader answered `Stop`, the endpoint was interrupted, or recovery gave
//! up), so a close never waits for the reader and owns no thread. The
//! watchdog runs while some resilient sink of its profile exists, and
//! exits once none does.
//!
//! Transient failure is distinguished from *deliberate* stream events,
//! which must still cascade per §3.4: a reader that processes `Close` (or
//! is closed locally) marks its token dead, and the acceptor answers any
//! later connection for that token with a `Stop` notice — a recovering
//! writer that sees `Stop` stops retrying (and treats it as success when
//! it was only waiting for a `Close`/`Redirect` marker to be
//! acknowledged, since `Stop` proves the reader got that far). True
//! deadlock detection needs nothing from recovery: the offsets that make
//! replay exact also say whether a cut channel is empty (an endpoint a node
//! builds reports them through its [`Interruptor`], see `probe.rs`), and a
//! reconnecting link whose writer has sent no more than its reader
//! delivered has nothing left to deliver.
//!
//! ## What the deadlock monitor sees
//!
//! No endpoint is wrapped to meet a monitor. A process's socket wait is
//! registered with the monitor of the network the process belongs to (the
//! network hands it to each task it spawns) at the one place the wait
//! happens: `rio`'s readiness wait, a blocking fd that a zero-timeout poll
//! found not ready, or the pending connection of a listening
//! [`RemoteSource`]. A read or write that finds its socket ready never
//! registers, so a remote endpoint is never counted as blocked while it is
//! moving bytes (DESIGN.md §4c).
//! Off Linux x86_64, with no fibers and no readiness check, a read or
//! write registers for its whole length instead.

use crate::acceptor::{fresh_token, Acceptor};
use crate::frame::{parse_frame_header, write_data_frame, write_frame, Frame, FrameHeader};
use crate::link::{
    map_write_err, Chunk, ReadStep, ReaderProto, Step, WriterProto, MAX_FRAME, RECOVERY_POLL,
};
use crate::probe::{CutEnd, CutSide};
use crate::transport::{shutdown, NetProfile, RecoveryGuard, Transport, TransportFactory};
use kpn_core::exec::reactor::Interest;
use kpn_core::{
    ChannelReader, ChannelWriter, Error, Exec, Result, Sink, Source, SourceRead, ThreadExec,
};
use parking_lot::{Mutex, MutexGuard};
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Size of the socket-side write coalescing buffer: big enough to merge a
/// frame header with a typical stream-buffer-sized payload into one
/// syscall, small enough per connection to stay cheap.
const SINK_BUFFER: usize = 16 * 1024;

/// A sink's connection, behind its coalescing buffer.
type Conn = BufWriter<Box<dyn Transport>>;

/// Shuts `conn` (if any) the `how` way and drops it.
fn shut(conn: &mut Option<Conn>, how: Shutdown) {
    if let Some(conn) = conn.take() {
        shutdown(&**conn.get_ref(), how);
    }
}

/// The one reader of a connection's reverse direction. Flushes, then feeds
/// `proto` the acknowledgements and `Stop` notices the reader sent: with
/// `wait`, one read that may wait that long; without, whatever has
/// arrived, never waiting. Returns whether any arrived. Events read before
/// a failure still count, so an ack followed by EOF is seen.
fn read_acks(conn: &mut Conn, proto: &mut WriterProto, wait: Option<Duration>) -> Result<bool> {
    conn.flush()?;
    let t = conn.get_mut();
    match wait {
        Some(poll) => t.set_op_timeout(Some(poll))?,
        None => t.set_nonblocking(true)?,
    }
    let (mut tmp, mut any) = ([0u8; 256], false);
    let read = loop {
        match conn.get_mut().read(&mut tmp) {
            Ok(0) => break Err(gone("connection closed while reading acks")),
            Ok(n) => match proto.acks(&tmp[..n]) {
                Ok(got) if wait.is_none() => any |= got,
                read => break read.map(|got| any |= got),
            },
            Err(e) if e.kind() == Interrupted => {}
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => break Ok(()),
            Err(e) => break Err(e.into()),
        }
    };
    let t = conn.get_mut();
    let _ = match wait {
        Some(_) => t.set_op_timeout(proto.policy.op_timeout),
        None => t.set_nonblocking(false),
    };
    read.map(|()| any)
}

/// Sends the replay on `conn`: its data re-framed from the ring, then its
/// marker.
fn retransmit(conn: &mut Conn, proto: &WriterProto) -> Result<()> {
    let (data, marker) = proto.replay();
    for (offset, bytes) in data {
        write_data_frame(conn, bytes, offset)?;
    }
    if let Some(marker) = marker {
        write_frame(conn, marker)?;
    }
    Ok(conn.flush()?)
}

/// Makes `t`, as its factory built it, an endpoint's connection: it times
/// out after the policy's `op_timeout`, and the endpoint's interruptor
/// points at it.
fn attach(
    mut t: Box<dyn Transport>,
    interruptor: &Interruptor,
    op_timeout: Option<Duration>,
) -> Box<dyn Transport> {
    let _ = t.set_op_timeout(op_timeout);
    interruptor.attach_transport(&*t);
    t
}

/// A connection gone for the reason `why`: a link failure.
fn gone(why: &str) -> Error {
    Error::Disconnected(why.into())
}

/// Out-of-band interruption for a remote endpoint: lets a network abort
/// wake threads blocked inside transports the deadlock monitor cannot
/// poison (a TCP read, or the wait for a pending connection). Shared
/// between the endpoint (which keeps it pointed at its current transport,
/// across redirects and reconnects) and the abort hook that fires it.
///
/// It is also the endpoint's end of the cut, as the node reports it to the
/// cluster probe ([`CutEnd`]): the endpoint stores how far into its stream
/// it has got on every frame it sends or read it delivers. A reader that
/// moves to a redirect token keeps reporting the token it left, at its
/// final offset.
#[derive(Debug)]
pub struct Interruptor {
    state: parking_lot::Mutex<InterruptState>,
    token: u64,
    side: CutSide,
    /// Relaxed is enough: the node loads it after taking its network
    /// monitor's lock for the snapshot, and a process stores its offset
    /// before it registers a wait under that lock, so the snapshot of a
    /// stuck network comes with every offset its processes reached.
    offset: AtomicU64,
}

#[derive(Debug, Default)]
struct InterruptState {
    interrupted: bool,
    /// A second handle to the endpoint's current socket.
    socket: Option<TcpStream>,
    /// A registration waiting at an acceptor (pending connection).
    pending: Option<(std::sync::Weak<Acceptor>, u64)>,
}

impl Interruptor {
    /// A fresh, un-fired interruptor for the `side` end of the channel
    /// `token` names, at offset 0.
    pub fn new(token: u64, side: CutSide) -> Arc<Self> {
        Arc::new(Interruptor {
            state: parking_lot::Mutex::new(InterruptState::default()),
            token,
            side,
            offset: AtomicU64::new(0),
        })
    }

    /// The endpoint's end of the cut, as far as it has got.
    pub fn cut_end(&self) -> CutEnd {
        CutEnd {
            token: self.token,
            side: self.side,
            offset: self.offset.load(Ordering::Relaxed),
        }
    }

    /// The endpoint has got to `offset` in the stream of `token`; recorded
    /// only for the token this interruptor was made for.
    fn record(&self, token: u64, offset: u64) {
        if token == self.token {
            self.offset.store(offset, Ordering::Relaxed);
        }
    }

    /// Fires the interrupt: shuts the current socket (if any) and cancels
    /// any pending registration. Threads blocked in the transport observe
    /// a disconnect and unwind; a recovery loop checks the flag and gives
    /// up instead of reconnecting. Idempotent; also affects transports
    /// attached later.
    pub fn interrupt(&self) {
        let (socket, pending) = {
            let mut st = self.state.lock();
            st.interrupted = true;
            (st.socket.take(), st.pending.take())
        };
        if let Some(s) = socket {
            let _ = s.shutdown(Shutdown::Both);
        }
        if let Some((acc, token)) = pending {
            if let Some(acc) = acc.upgrade() {
                // Cancelling the registration fails the pending wait.
                acc.unregister(token);
            }
        }
    }

    /// True once fired.
    pub fn is_interrupted(&self) -> bool {
        self.state.lock().interrupted
    }

    fn attach_transport(&self, t: &dyn Transport) {
        let handle = t.socket().and_then(|s| s.try_clone().ok());
        let mut st = self.state.lock();
        if st.interrupted {
            shutdown(t, Shutdown::Both);
            return;
        }
        st.socket = handle;
        st.pending = None;
    }

    fn attach_pending(&self, acceptor: &Arc<Acceptor>, token: u64) {
        let mut st = self.state.lock();
        if st.interrupted {
            acceptor.unregister(token);
            return;
        }
        st.socket = None;
        st.pending = Some((Arc::downgrade(acceptor), token));
    }
}

/// The movable state of a [`RemoteSink`]: the connection and the writer's
/// protocol core. Separated from the `Sink` facade so a deliberate close
/// can leave the state with the watchdog, which sees the final `Close`
/// marker acknowledged (reconnecting if needed) without blocking the
/// closing process.
struct SinkCore {
    /// The connection, or a recovery episode's fresh one; see
    /// [`Self::conn`].
    conn: Option<Conn>,
    /// Reader-side acceptor address, for reconnects.
    addr: String,
    factory: Arc<dyn TransportFactory>,
    interruptor: Arc<Interruptor>,
    peer: Option<SocketAddr>,
    /// A terminal failure the watchdog hit while pumping this sink on the
    /// owner's behalf, delivered on the owner's next operation so the
    /// cascade carries the real error (and the owner does not burn a
    /// second recovery budget rediscovering it).
    pending_failure: Option<Error>,
    /// Counts the recovery episode under way in `recovery_stats`.
    guard: Option<RecoveryGuard>,
    proto: WriterProto,
}

impl SinkCore {
    fn connect(addr: &str, token: u64, profile: NetProfile) -> Result<Self> {
        let mut core = SinkCore {
            conn: None,
            addr: addr.to_string(),
            factory: profile.factory,
            interruptor: Interruptor::new(token, CutSide::Writer),
            peer: None,
            pending_failure: None,
            guard: None,
            proto: WriterProto::new(token, profile.policy),
        };
        core.recover()?;
        let peer = core
            .conn
            .as_ref()
            .and_then(|c| c.get_ref().socket()?.peer_addr().ok());
        core.peer = peer.or_else(|| addr.parse().ok());
        Ok(core)
    }

    /// The protocol core, told first whether the endpoint was interrupted.
    fn proto(&mut self) -> &mut WriterProto {
        if self.interruptor.is_interrupted() {
            self.proto.interrupt();
        }
        &mut self.proto
    }

    /// The connection the stream flows on. None while a recovery episode
    /// is under way, whose fresh connection carries nothing but the
    /// resume handshake: the operation that finds none recovers.
    fn conn(&mut self) -> Result<&mut Conn> {
        let conn = self.conn.as_mut().filter(|_| !self.proto.recovering());
        conn.ok_or(Error::WriteClosed)
    }

    /// Flushes the connection; a failure goes to [`Self::handle_failure`].
    fn flush(&mut self) -> Result<()> {
        let flushed = self.conn().and_then(|c| c.flush().map_err(Error::Io));
        flushed.or_else(|e| self.handle_failure(e))
    }

    /// Reads the acks that arrived, or waits `wait` for some.
    fn read_acks(&mut self, wait: Option<Duration>) -> Result<bool> {
        let conn = self.conn.as_mut().filter(|_| !self.proto.recovering());
        read_acks(conn.ok_or(Error::WriteClosed)?, &mut self.proto, wait)
    }

    /// Records how far the stream has got in the interruptor.
    fn record(&self) {
        self.interruptor.record(self.proto.token, self.proto.sent());
    }

    /// Routes a failed write, flush or ack read: a transient link failure
    /// on a resilient link begins a recovery episode (unless one is under
    /// way, or the failure is no fault) and runs it to the end, and the
    /// replay retransmits whatever the failed operation was sending;
    /// anything else comes back as the fail-fast error.
    fn handle_failure(&mut self, e: Error) -> Result<()> {
        self.begin(e)?;
        self.recover()
    }

    fn begin(&mut self, e: Error) -> Result<()> {
        if !self.proto.recovering() && self.proto().fail(e)? {
            shut(&mut self.conn, Shutdown::Both);
            self.guard = Some(RecoveryGuard::enter());
        }
        Ok(())
    }

    fn recover(&mut self) -> Result<()> {
        while !self.step()? {}
        Ok(())
    }

    /// One step of the episode under way: at most one back-off and
    /// connect, then one wait of `RECOVERY_POLL` on the fresh connection
    /// for the reader's resume `Ack` (sent when the reader adopts the
    /// connection) or a `Stop`, then the retransmission. `Ok(true)`:
    /// resumed. `Ok(false)`: not yet. The owner steps again at once; the
    /// watchdog on its next pass, so a sink whose reader is slow to answer
    /// holds up the others' pumping for a step, not for its whole budget.
    fn step(&mut self) -> Result<bool> {
        let stepped = self.try_step();
        if !self.proto.recovering() {
            self.guard = None;
        }
        if stepped.is_err() {
            shut(&mut self.conn, Shutdown::Both);
        }
        stepped
    }

    fn try_step(&mut self) -> Result<bool> {
        let mut step = self.proto().next_step()?;
        loop {
            step = match step {
                Step::Reconnect(after) => {
                    if let Some(guard) = &self.guard {
                        guard.attempt();
                    }
                    if !after.is_zero() {
                        kpn_core::exec::sleep(after);
                    }
                    let connect = self.factory.connect(&self.addr, self.proto.token);
                    let connect = connect.map(|t| {
                        let t = attach(t, &self.interruptor, self.proto.policy.op_timeout);
                        self.conn = Some(BufWriter::with_capacity(SINK_BUFFER, t));
                    });
                    self.proto.connected(connect)?
                }
                Step::Poll => {
                    let conn = self.conn.as_mut().ok_or(Error::WriteClosed);
                    let polled =
                        conn.and_then(|c| read_acks(c, &mut self.proto, Some(RECOVERY_POLL)));
                    self.proto.polled(polled)?
                }
                Step::Retransmit => {
                    let conn = self.conn.as_mut().ok_or(Error::WriteClosed);
                    let sent = conn.and_then(|c| retransmit(c, &self.proto));
                    self.proto.retransmitted(sent)?
                }
                Step::Retry => {
                    shut(&mut self.conn, Shutdown::Both);
                    return Ok(false);
                }
                Step::Wait => return Ok(false),
                Step::Resumed => return Ok(true),
            }
        }
    }

    /// Blocks until the reader has acknowledged every unit below `target`,
    /// reconnecting and replaying as needed. With `marker_wait`, a `Stop`
    /// from the peer counts as success: the units below `target` end in a
    /// `Close`/`Redirect` marker, and a deliberately-dead token proves the
    /// reader processed that far (in-order delivery).
    ///
    /// There is deliberately no overall deadline here: on a *healthy* link
    /// this is ordinary bounded-channel backpressure (the reader may drain
    /// arbitrarily slowly), exactly like blocking on TCP flow control in
    /// fail-fast mode. Only recovery episodes — where the link is actually
    /// down — are budget-bounded, so a permanently dead link still
    /// terminates via the episode's budget.
    fn wait_acked(&mut self, target: u64, marker_wait: bool) -> Result<()> {
        if self.proto.through(target, marker_wait)? {
            return Ok(());
        }
        // Reading acks can block: publish this task's buffered output
        // first (same publish-before-wait rule as local channels).
        kpn_core::flush::flush_before_block();
        let through = |core: &Self| matches!(core.proto.through(target, marker_wait), Ok(true));
        while !self.proto().through(target, marker_wait)? {
            // Garbage on the ack stream counts as a link fault.
            match self.read_acks(Some(RECOVERY_POLL)) {
                Err(e) if !through(self) => match self.handle_failure(e) {
                    Err(e) if !through(self) => return Err(e),
                    _ => {}
                },
                _ => {}
            }
        }
        Ok(())
    }

    fn write_chunks(&mut self, buf: &[u8]) -> Result<()> {
        if let Some(e) = self.pending_failure.take() {
            return Err(e);
        }
        self.proto.writable()?;
        if self.proto.resilient() {
            if let Err(e) = self.read_acks(None) {
                self.handle_failure(e)?;
            }
            self.proto.writable()?;
        }
        for chunk in buf.chunks(MAX_FRAME) {
            let offset = loop {
                match self.proto.write(chunk) {
                    Chunk::Frame(offset) => break offset,
                    // Replay full: block until the reader catches up —
                    // semantically a smaller bounded channel.
                    Chunk::WaitAcks(upto) => self.wait_acked(upto, false)?,
                }
            };
            self.record();
            if let Err(e) = self.conn().and_then(|c| write_data_frame(c, chunk, offset)) {
                // Recovery retransmits this chunk from the replay.
                self.handle_failure(e)?;
            }
        }
        // Flush on the frame boundary: every `write_all` a raw (unwrapped)
        // writer performs is immediately visible to the remote reader, so
        // deadlock safety never depends on socket-side buffering. Batching
        // happens above: a typed stream's private chunk decides how many
        // tokens one `write_all` here carries, and for a sink like this
        // one, which cannot see its reader, that layer times each call
        // and shares a frame between the steps that fit in as long again
        // (`kpn_core::flush`, clause 5).
        self.flush()
    }

    /// Ends the stream with a `Redirect` to `redirect`, or a `Close`, and
    /// sends the marker. A failed send comes back only from a plain sink
    /// (see [`WriterProto::marker`]).
    fn send_marker(&mut self, redirect: Option<u64>) -> Result<()> {
        let (frame, report) = self.proto.marker(redirect);
        self.record();
        let sent = self.conn().and_then(|c| {
            write_frame(c, &frame)?;
            c.flush().map_err(map_write_err)
        });
        sent.or_else(|e| if report { Err(e) } else { Ok(()) })
    }

    /// Retires a closed sink's connection: shut for writing, then dropped.
    fn finish(&mut self) {
        self.proto.finish();
        shut(&mut self.conn, Shutdown::Write);
    }

    /// One watchdog step on a sink no process is using (see the module
    /// docs): drain any acknowledgements the reader pushed while this
    /// sink's process was parked on some other channel, and if that
    /// reveals a dead link, take a step of an ordinary recovery episode
    /// here on the watchdog task (one per pass until it ends); then
    /// finish a closing sink that is done.
    ///
    /// Reconnection is writer-driven, so without this a process that
    /// stops writing for a while never notices its socket died — and an
    /// in-flight frame lost with the connection could only be restored
    /// by a replay that nothing would ever trigger, stalling the reader
    /// (and, transitively, any cycle through it) forever.
    fn pump(&mut self) {
        let stepped = match self.proto().writable() {
            _ if self.proto.recovering() => self.step().map(drop),
            Ok(()) if self.conn.is_some() => match self.read_acks(None) {
                Err(e) => self.begin(e).and_then(|()| self.step().map(drop)),
                Ok(_) => Ok(()),
            },
            _ => Ok(()),
        };
        // A failed recovery leaves no connection (so the watchdog does not
        // retry a link whose budget is spent); the terminal error is
        // stashed to surface on the owning process's next write, exactly
        // as if that write had discovered the dead link.
        if let Err(e) = stepped {
            self.pending_failure = Some(e);
            self.proto.stash();
        }
        if self.proto.close_done() {
            self.finish();
        }
    }
}

/// The resilient sinks of one [`NetProfile`] (and its clones), which the
/// profile's watchdog task pumps; `None` while no watchdog runs. Each
/// sink's facade holds the other reference. Once the facade is gone, the
/// list owns a closing sink until it is finished and lets go of any other
/// at once. The watchdog exits when it finds the list empty and the next
/// registration starts another, both under this lock, so no registration
/// goes unpumped.
#[derive(Default)]
pub(crate) struct Watchdog(Mutex<Option<Vec<Arc<SharedCore>>>>);

impl Watchdog {
    /// Lists `core`, starting the watchdog task if none runs: on the
    /// executor of the registering task — a node's pool for the sinks a
    /// node's session builds — and on the thread executor for a foreign
    /// thread.
    fn watch(self: &Arc<Self>, core: &Arc<SharedCore>) {
        let mut sinks = self.0.lock();
        if sinks.is_none() {
            let exec = kpn_core::exec::current_exec().unwrap_or_else(|| ThreadExec::new());
            let me = self.clone();
            exec.spawn("sink-watchdog", Box::new(move || me.run()));
        }
        sinks.get_or_insert_with(Vec::new).push(core.clone());
    }

    /// Every poll interval, give each listed sink whose owner is not
    /// actively using it (`try_lock`) one [`SinkCore::pump`] step, until no
    /// sink is left. A sink mid-recovery on its own task is simply skipped,
    /// and a recovery episode run *here* holds only this task — the owning
    /// process keeps running until it next touches the sink, then waits on
    /// the lock exactly as if it were performing the recovery itself. A
    /// closing sink has no owner left, so it is pumped on every pass.
    fn run(&self) {
        loop {
            kpn_core::exec::sleep(RECOVERY_POLL);
            let sinks: Vec<Arc<SharedCore>> = {
                let mut reg = self.0.lock();
                let live = reg.get_or_insert_with(Vec::new);
                // A sink only the list holds stays while it is closing.
                live.retain_mut(|s| {
                    Arc::get_mut(s).is_none_or(|s| s.core.get_mut().proto.closing())
                });
                if live.is_empty() {
                    *reg = None;
                    return;
                }
                live.clone()
            };
            sinks.iter().for_each(|sink| sink.pump());
        }
    }
}

/// A sink's state and the two that use it: the owning process, which
/// locks it for every operation, and its profile's watchdog, which only
/// `try_lock`s it — and may then wait while it holds it (a recovery step, a
/// stalled ack read). The watchdog can be a fiber of the owner's own pool,
/// so an owner that finds it inside parks through its own executor until
/// the watchdog lets go, rather than blocking the worker the watchdog needs
/// to finish on.
struct SharedCore {
    core: Mutex<SinkCore>,
    /// The executor and park key of an owner waiting in [`Self::lock`].
    waiter: Mutex<Option<(Arc<dyn Exec>, usize)>>,
}

impl SharedCore {
    /// The owner's way in.
    fn lock(&self) -> MutexGuard<'_, SinkCore> {
        let key = std::ptr::addr_of!(self.waiter) as usize;
        loop {
            if let Some(core) = self.core.try_lock() {
                return core;
            }
            let exec = kpn_core::exec::current_exec().unwrap_or_else(|| ThreadExec::new());
            let token = exec.park_token(key);
            *self.waiter.lock() = Some((exec.clone(), key));
            // Tried again once registered: a release before this is seen
            // here, one after it wakes the park.
            if let Some(core) = self.core.try_lock() {
                return core;
            }
            let _ = exec.park(key, token, None);
        }
    }

    /// The watchdog's way in: one [`SinkCore::pump`] step unless the owner
    /// is inside, then a wake for an owner that waited meanwhile.
    fn pump(&self) {
        if let Some(mut core) = self.core.try_lock() {
            core.pump();
            drop(core);
            if let Some((exec, key)) = self.waiter.lock().take() {
                exec.unpark_all(key);
            }
        }
    }
}

/// The write end of a channel whose reader lives on another server.
///
/// Frames are staged behind a [`BufWriter`] so a header and its payload
/// (and any adjacent small frames) coalesce into one syscall, and the
/// socket runs with `TCP_NODELAY`: batching is decided by our explicit
/// flush-on-frame-boundary, not by Nagle's timer. Payload bytes are
/// framed in place — no per-frame allocation.
///
/// One `write_all` is one frame, flushed. The sink keeps the default
/// [`Sink::reader_waiting`] answer — it cannot see its reader — so how
/// many tokens a frame carries is decided by the typed stream's buffer
/// above it: at an `Iterative` step boundary that buffer publishes unless
/// its previous publish (this sink's `write_all` + `flush`, timed end to
/// end) returned less than its own duration ago (`kpn_core::flush`,
/// clause 5). A raw writer with no such buffer gets a frame per call.
///
/// With a [`ReconnectPolicy`](crate::transport::ReconnectPolicy) enabled
/// (via the [`NetProfile`] it connects with: its node's, see
/// [`Node::remote_writer`](crate::Node::remote_writer)), the sink also
/// copies each frame's payload into its replay ring until the reader
/// acknowledges it, and survives transient link failure by reconnecting
/// and replaying — see the module docs.
pub struct RemoteSink {
    /// Shared with the profile's watchdog, which keeps it after a resilient
    /// close until the `Close` marker is through.
    core: Option<Arc<SharedCore>>,
    closed: bool,
}

impl RemoteSink {
    /// Connects to the reader's acceptor and presents `token` over plain
    /// fail-fast TCP (the default [`NetProfile`]).
    pub fn connect(addr: &str, token: u64) -> Result<Self> {
        Self::connect_with(addr, token, NetProfile::default())
    }

    /// Connects with an explicit profile. Both ends of a resilient channel
    /// must run the same policy: the reader's comes from its acceptor.
    pub fn connect_with(addr: &str, token: u64, profile: NetProfile) -> Result<Self> {
        let watchdog = profile.watchdog.clone();
        let core = Arc::new(SharedCore {
            core: Mutex::new(SinkCore::connect(addr, token, profile)?),
            waiter: Mutex::new(None),
        });
        if core.lock().proto.resilient() {
            watchdog.watch(&core);
        }
        Ok(RemoteSink {
            core: Some(core),
            closed: false,
        })
    }

    fn core(&self) -> Result<&Arc<SharedCore>> {
        self.core.as_ref().ok_or(Error::WriteClosed)
    }

    /// The peer (reader-side) address — the acceptor this sink connected
    /// to, used when shipping the writer endpoint onward.
    pub fn peer_addr(&self) -> Result<SocketAddr> {
        let core = self.core.as_ref().ok_or(Error::WriteClosed)?.lock();
        if let Some(peer) = core.peer {
            return Ok(peer);
        }
        let socket = core.conn.as_ref().and_then(|c| c.get_ref().socket());
        Ok(socket.ok_or(Error::WriteClosed)?.peer_addr()?)
    }

    /// Begins migrating this writer endpoint to another server (§4.3):
    /// sends `Redirect{token}` so the reader splices in a connection that
    /// the endpoint's new home will open directly, then retires this
    /// connection. Returns `(reader_addr, token)` for the new home's
    /// `RemoteSink::connect`.
    ///
    /// Under a reconnect policy this blocks until the reader acknowledges
    /// the redirect marker (reconnecting and replaying if the link fails
    /// mid-handshake), so the marker is delivered exactly once before the
    /// old connection goes away.
    pub fn begin_redirect(mut self) -> Result<(SocketAddr, u64)> {
        let peer = self.peer_addr()?;
        let token = fresh_token();
        let mut core = self.core()?.lock();
        core.send_marker(Some(token))?;
        let target = core.proto.sent();
        core.wait_acked(target, true)
            .map_err(|e| Error::Disconnected(format!("redirect failed: {e}")))?;
        // Taken, so the watchdog has no connection left to pump.
        shut(&mut core.conn, Shutdown::Both);
        drop(core);
        self.closed = true; // redirect supersedes Close
        Ok((peer, token))
    }
}

impl Sink for RemoteSink {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        if self.closed {
            return Err(Error::WriteClosed);
        }
        let _waiting = crate::rio::around_operation(Interest::Write)?;
        self.core()?.lock().write_chunks(buf)
    }

    fn flush(&mut self) -> Result<()> {
        self.core()?.lock().flush()
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        let Some(core) = self.core.take() else {
            return;
        };
        let mut c = core.lock();
        // A close has no one to report a failed send to.
        let _ = c.send_marker(None);
        // The marker is acknowledged only once the reader drains to it,
        // which can be arbitrarily later: unless it is done already, the
        // watchdog sees it through, so closing never blocks this process.
        if c.proto().close_done() {
            c.finish();
        }
    }
}

impl Drop for RemoteSink {
    fn drop(&mut self) {
        self.close();
    }
}

/// The read end of a channel whose writer lives on another server.
///
/// From its first read on it listens (via its node's acceptor) for the
/// connection presenting its token — the automatic connection
/// establishment of §4.2 — and a `Redirect` marker makes it listen again,
/// in place, for the connection presenting the marker's token (the
/// `RedirectedInputStream` of §4.3). With a reconnect policy (from the
/// acceptor's [`NetProfile`]) the source also tracks the next stream offset
/// it will deliver, discards replayed duplicate bytes, acknowledges
/// cumulatively, and on transient link failure listens for the writer's
/// replacement connection — see the module docs.
pub struct RemoteSource {
    /// The connection; none while the source listens for one.
    stream: Option<BufReader<Box<dyn Transport>>>,
    /// The local acceptor, where every listen registers.
    acceptor: Arc<Acceptor>,
    /// Abort-interruption handle, kept pointing at the live transport or
    /// the pending registration.
    interruptor: Arc<Interruptor>,
    proto: ReaderProto,
}

impl RemoteSource {
    /// The source of `token` at `acceptor`, under the acceptor's policy,
    /// before its first listen.
    fn new(acceptor: &Arc<Acceptor>, token: u64) -> Self {
        RemoteSource {
            stream: None,
            acceptor: acceptor.clone(),
            interruptor: Interruptor::new(token, CutSide::Reader),
            proto: ReaderProto::new(token, acceptor.profile().policy.clone()),
        }
    }

    /// Listens for the connection presenting the core's token and adopts
    /// it: the source's first connection, a redirect's, or the writer's
    /// replacement for a failed one, which is a recovery episode. Retires
    /// the broken transport first (waking a writer whose half was still
    /// healthy). Each wait is bounded as the core says, and one that ends
    /// with nothing is charged to the listen's budget.
    fn listen(&mut self) -> Result<()> {
        let guard = self.proto.poll().map(|_| RecoveryGuard::enter());
        if let Some(stream) = self.stream.take() {
            shutdown(&**stream.get_ref(), Shutdown::Both);
        }
        let mut pending = None;
        loop {
            if self.interruptor.is_interrupted() {
                return Err(gone("aborted while listening"));
            }
            let token = self.proto.token;
            let listening = pending.get_or_insert_with(|| {
                let conn = self.acceptor.register(token);
                self.interruptor.attach_pending(&self.acceptor, token);
                conn
            });
            if let Some(transport) = listening.wait(self.proto.poll())? {
                if let Some(guard) = &guard {
                    guard.attempt();
                }
                if self.adopt(transport) {
                    return Ok(());
                }
                // The adopted connection died at once and was retired:
                // keep listening, charged one poll interval, which bounds
                // how many dead adoptions one listen tolerates.
                pending = None;
            }
            self.proto.listen_expired()?;
        }
    }

    /// Makes `transport` the connection and sends the adoption ack: a
    /// writer in recovery is waiting for our resume offset; a fresh writer
    /// drains it harmlessly. Returns whether the connection is usable: a
    /// failed ack cannot be ignored, since the frame may be partially
    /// written, and the reader would otherwise settle into the idle wait
    /// while the writer blocks on an ack that can never parse.
    fn adopt(&mut self, transport: Box<dyn Transport>) -> bool {
        let stream = attach(transport, &self.interruptor, self.proto.policy.op_timeout);
        self.stream = Some(BufReader::new(stream));
        let ack = self.proto.adopted();
        self.send_ack(ack)
    }

    /// The connection the stream flows on.
    fn stream(&mut self) -> Result<&mut BufReader<Box<dyn Transport>>> {
        self.stream.as_mut().ok_or_else(|| gone("no connection"))
    }

    /// Records how far the stream has got in the interruptor.
    fn record(&self) {
        self.interruptor
            .record(self.proto.token, self.proto.expected());
    }

    /// Writes the `Ack` the core asked for, if any, on the reverse
    /// direction of the transport, returning whether it went out. A failed ack is not merely "link
    /// died" (where the next read would fail anyway): a fault can
    /// interrupt the frame mid-write while the link stays up, leaving the
    /// ack stream garbled. The connection is then shut (the writer's
    /// pending handshake sees EOF at once and reconnects) and the next
    /// read goes to recovery.
    fn send_ack(&mut self, ack: Option<u64>) -> bool {
        let (Some(offset), Some(stream)) = (ack, self.stream.as_mut()) else {
            return true;
        };
        let t = stream.get_mut();
        let sent = write_frame(t, &Frame::Ack { offset }).and_then(|()| Ok(t.flush()?));
        if sent.is_err() {
            shutdown(&**t, Shutdown::Both);
        }
        self.proto.ack_sent(sent.is_ok());
        sent.is_ok()
    }

    /// Marks this endpoint deliberately finished at its marker: records
    /// the offset, acknowledges the marker (`ack`), and poisons the token
    /// so a recovering writer receives `Stop` instead of retrying forever.
    fn finish_deliberate(&mut self, ack: Option<u64>) {
        self.record();
        self.send_ack(ack);
        self.acceptor.unregister(self.proto.token);
    }

    /// Waits for the next frame's tag byte, then reads its header. Waiting
    /// for the tag is the *idle* position: a read timeout here means the
    /// channel simply has no data (Kahn-legal, possibly forever), not that
    /// the link is sick, so we keep waiting instead of tearing the
    /// connection down. A timeout *inside* a frame (header tail or
    /// payload) is different — the writer started a frame and stalled —
    /// and propagates as a transient error into recovery, which is safe
    /// because replay re-sends the whole frame.
    fn read_header(&mut self) -> Result<FrameHeader> {
        let mut tag = [0u8; 1];
        loop {
            match self.stream()?.read(&mut tag) {
                Ok(0) => return Err(gone("connection closed without Close frame")),
                Ok(_) => return parse_frame_header(tag[0], self.stream()?),
                Err(e) if matches!(e.kind(), TimedOut | WouldBlock | Interrupted) => {
                    if self.interruptor.is_interrupted() {
                        return Err(Error::WriteClosed);
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Reads bytes of the current frame into `into`: none is a peer gone
    /// mid-frame. Returns how many, and the ack now due.
    fn read_payload(&mut self, into: &mut [u8]) -> Result<(usize, Option<u64>)> {
        match self.stream()?.read(into)? {
            0 => Err(gone("peer vanished mid-frame")),
            got => Ok((got, self.proto.got(got))),
        }
    }

    /// Carries out the core's steps up to a read's answer, or `None` once
    /// the core says to listen.
    fn try_read(&mut self, buf: &mut [u8]) -> Result<Option<SourceRead>> {
        let mut step = self.proto.next(buf.len())?;
        loop {
            step = match step {
                ReadStep::Header => {
                    let header = self.read_header()?;
                    self.proto.header(header, buf.len())?
                }
                ReadStep::Discard(n) => {
                    // A replayed duplicate prefix is read into scratch and
                    // dropped.
                    self.read_payload(&mut [0u8; 1024][..n.min(1024)])?;
                    self.proto.next(buf.len())?
                }
                ReadStep::Deliver(n) => {
                    let (got, ack) = self.read_payload(&mut buf[..n])?;
                    self.record();
                    self.send_ack(ack);
                    return Ok(Some(SourceRead::Data(got)));
                }
                ReadStep::End { ack } => {
                    self.finish_deliberate(ack);
                    return Ok(Some(SourceRead::End));
                }
                ReadStep::Listen { redirect, ack } => {
                    if let Some(token) = redirect {
                        // The old writer endpoint is done with this token:
                        // its recovering connects see `Stop` (= the marker
                        // arrived). The new one's stream starts afresh.
                        self.finish_deliberate(ack);
                        self.proto = ReaderProto::new(token, self.proto.policy.clone());
                    }
                    return Ok(None);
                }
            }
        }
    }
}

impl Source for RemoteSource {
    fn read(&mut self, buf: &mut [u8]) -> Result<SourceRead> {
        // A socket read can block indefinitely: publish this task's
        // buffered output first (the publish-before-wait rule of
        // `kpn_core::flush`). A read that does wait registers with the
        // monitor in `rio` or in its pending connection, which publishes
        // again — it must, a flush may not block inside a registration —
        // and finds nothing.
        kpn_core::flush::flush_before_block();
        loop {
            let waiting = crate::rio::around_operation(Interest::Read)?;
            match self.try_read(buf) {
                Ok(Some(read)) => return Ok(read),
                Ok(None) => {}
                Err(e) => self.proto.failed(e)?,
            }
            // Unregistered first: a pending connection registers by itself.
            drop(waiting);
            self.listen()?;
        }
    }

    fn close(&mut self) {
        self.proto.close();
        self.acceptor.unregister(self.proto.token);
        if let Some(stream) = &self.stream {
            shutdown(&**stream.get_ref(), Shutdown::Both);
        }
    }
}

/// Creates the write end of a cross-server channel: connects to the
/// reader's node over plain TCP and presents the endpoint token. A node's
/// own writers use its profile instead ([`Node::remote_writer`](crate::Node::remote_writer)).
pub fn remote_writer(addr: &str, token: u64) -> Result<ChannelWriter> {
    Ok(remote_writer_interruptible(addr, token, NetProfile::default())?.0)
}

/// Creates the read end of a cross-server channel: listens (via the node's
/// acceptor) for the connection presenting `token`.
pub fn remote_reader(acceptor: &Arc<Acceptor>, token: u64) -> ChannelReader {
    remote_reader_interruptible(acceptor, token).0
}

/// Like [`remote_reader`], returning the [`Interruptor`] that can wake a
/// blocked read from outside (used by network abort hooks).
pub fn remote_reader_interruptible(
    acceptor: &Arc<Acceptor>,
    token: u64,
) -> (ChannelReader, Arc<Interruptor>) {
    let source = RemoteSource::new(acceptor, token);
    let interruptor = source.interruptor.clone();
    (ChannelReader::from_source(Box::new(source)), interruptor)
}

/// Like [`remote_writer`] under `profile`, returning the [`Interruptor`]
/// that can wake a blocked write from outside.
pub fn remote_writer_interruptible(
    addr: &str,
    token: u64,
    profile: NetProfile,
) -> Result<(ChannelWriter, Arc<Interruptor>)> {
    let sink = RemoteSink::connect_with(addr, token, profile)?;
    let interruptor = sink.core()?.lock().interruptor.clone();
    Ok((ChannelWriter::from_sink(Box::new(sink)), interruptor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ReconnectPolicy, TcpFactory};
    use kpn_core::{DataReader, DataWriter, ExecMode};
    use std::io;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    fn node() -> Arc<Acceptor> {
        Acceptor::bind("127.0.0.1:0").unwrap()
    }

    /// A writer to `b` under `b`'s own profile, as a node's writers are.
    fn writer_to(b: &Acceptor, token: u64) -> ChannelWriter {
        let sink =
            RemoteSink::connect_with(&b.local_addr().to_string(), token, b.profile().clone());
        ChannelWriter::from_sink(Box::new(sink.unwrap()))
    }

    #[test]
    fn bytes_flow_across_tcp() {
        let b = node();
        let token = fresh_token();
        let mut reader = remote_reader(&b, token);
        let mut writer = remote_writer(&b.local_addr().to_string(), token).unwrap();
        writer.write_all(b"over the wire").unwrap();
        let mut buf = [0u8; 13];
        reader.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"over the wire");
    }

    #[test]
    fn connect_before_register_is_parked() {
        let b = node();
        let token = fresh_token();
        // Writer connects first; the reader registers afterwards.
        let mut writer = remote_writer(&b.local_addr().to_string(), token).unwrap();
        writer.write_all(b"early").unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let mut reader = remote_reader(&b, token);
        let mut buf = [0u8; 5];
        reader.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"early");
    }

    #[test]
    fn writer_close_gives_reader_eof_after_drain() {
        let b = node();
        let token = fresh_token();
        let mut reader = remote_reader(&b, token);
        let mut writer = remote_writer(&b.local_addr().to_string(), token).unwrap();
        writer.write_all(b"tail").unwrap();
        drop(writer);
        let mut buf = [0u8; 4];
        reader.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"tail");
        assert_eq!(reader.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn reader_close_fails_writer_across_network() {
        let b = node();
        let token = fresh_token();
        let reader = remote_reader(&b, token);
        let mut writer = remote_writer(&b.local_addr().to_string(), token).unwrap();
        writer.write_all(b"x").unwrap();
        drop(reader);
        // The shutdown needs a moment to reach the writer's kernel.
        std::thread::sleep(Duration::from_millis(50));
        let mut failed = false;
        for _ in 0..100 {
            if writer.write_all(b"yyyyyyyy").is_err() {
                failed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(failed, "writer never observed the closed reader");
    }

    #[test]
    fn typed_streams_work_over_tcp() {
        let b = node();
        let token = fresh_token();
        let reader = remote_reader(&b, token);
        let writer = remote_writer(&b.local_addr().to_string(), token).unwrap();
        let mut dw = DataWriter::new(writer);
        let mut dr = DataReader::new(reader);
        for i in 0..1000i64 {
            dw.write_i64(i * 3).unwrap();
        }
        drop(dw);
        for i in 0..1000i64 {
            assert_eq!(dr.read_i64().unwrap(), i * 3);
        }
        assert!(dr.read_i64().is_err());
    }

    #[test]
    fn large_transfer_chunks_into_frames() {
        let b = node();
        let token = fresh_token();
        let mut reader = remote_reader(&b, token);
        let mut writer = remote_writer(&b.local_addr().to_string(), token).unwrap();
        let data: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        let expect = data.clone();
        let h = std::thread::spawn(move || writer.write_all(&data));
        let mut got = vec![0u8; expect.len()];
        reader.read_exact(&mut got).unwrap();
        h.join().unwrap().unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn redirect_moves_traffic_to_new_writer() {
        // Figure 15: A→B traffic redirected so C→B talks directly.
        let b = node();
        let token = fresh_token();
        let mut reader = remote_reader(&b, token); // "Print" on B
        let mut sink_a = RemoteSink::connect(&b.local_addr().to_string(), token).unwrap();
        sink_a.write_all(b"from A;").unwrap();
        // A migrates the writer endpoint: redirect, then "ship" to C.
        let (reader_addr, new_token) = sink_a.begin_redirect().unwrap();
        // C connects directly to B; A is out of the path from here on.
        let mut writer_c = remote_writer(&reader_addr.to_string(), new_token).unwrap();
        writer_c.write_all(b"from C").unwrap();
        drop(writer_c);
        let mut buf = [0u8; 13];
        reader.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"from A;from C");
        assert_eq!(reader.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn a_redirected_reader_reports_the_token_it_left() {
        // Both ends of the first connection stop at offset 6 — five bytes
        // and the Redirect marker — however much follows on the token the
        // reader moved to.
        let b = node();
        let token = fresh_token();
        let (mut reader, read_end) = remote_reader_interruptible(&b, token);
        let mut sink_a = RemoteSink::connect(&b.local_addr().to_string(), token).unwrap();
        let write_end = sink_a.core().unwrap().lock().interruptor.clone();
        sink_a.write_all(b"12345").unwrap();
        let (addr, next) = sink_a.begin_redirect().unwrap();
        let mut writer_c = remote_writer(&addr.to_string(), next).unwrap();
        writer_c.write_all(b"678").unwrap();
        drop(writer_c);
        let mut buf = [0u8; 8];
        reader.read_exact(&mut buf).unwrap();
        assert_eq!(reader.read(&mut buf).unwrap(), 0);
        let end = |side, offset| CutEnd {
            token,
            side,
            offset,
        };
        assert_eq!(write_end.cut_end(), end(CutSide::Writer, 6));
        assert_eq!(read_end.cut_end(), end(CutSide::Reader, 6));
    }

    #[test]
    fn chained_redirects() {
        // An endpoint migrated twice (A→C→D) still delivers in order.
        let b = node();
        let token = fresh_token();
        let mut reader = remote_reader(&b, token);
        let mut sink_a = RemoteSink::connect(&b.local_addr().to_string(), token).unwrap();
        sink_a.write_all(b"1").unwrap();
        let (addr1, tok1) = sink_a.begin_redirect().unwrap();
        let mut sink_c = RemoteSink::connect(&addr1.to_string(), tok1).unwrap();
        sink_c.write_all(b"2").unwrap();
        let (addr2, tok2) = sink_c.begin_redirect().unwrap();
        let mut sink_d = RemoteSink::connect(&addr2.to_string(), tok2).unwrap();
        sink_d.write_all(b"3").unwrap();
        sink_d.close();
        let mut buf = [0u8; 3];
        reader.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"123");
        assert_eq!(reader.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn a_stale_token_after_a_redirect_is_stopped() {
        // The reader follows a `Redirect` from its first token to a second
        // and reads the new writer's bytes. A raw connection that presents
        // the first token after that is answered `Stop`, and nothing it
        // sends reaches the reader, whose history is the two writers' bytes
        // in order.
        for mode in [ExecMode::Thread, ExecMode::Pooled { workers: 2 }] {
            let b = node();
            let (addr, first) = (b.local_addr().to_string(), fresh_token());
            let net = kpn_core::Network::with_config(kpn_core::NetworkConfig {
                mode: mode.clone(),
                ..kpn_core::NetworkConfig::default()
            });
            let history = Arc::new(Mutex::new(Vec::<u8>::new()));
            let (mut reader, seen) = (remote_reader(&b, first), history.clone());
            net.add_fn("reader", move |_| {
                let mut buf = [0u8; 64];
                loop {
                    match reader.read(&mut buf)? {
                        0 => return Ok(()),
                        n => seen.lock().extend(&buf[..n]),
                    }
                }
            });
            net.start();
            let mut sink_a = RemoteSink::connect(&addr, first).unwrap();
            sink_a.write_all(b"from A;").unwrap();
            let (_, second) = sink_a.begin_redirect().unwrap();
            let mut writer_c = remote_writer(&addr, second).unwrap();
            writer_c.write_all(b"from C;").unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while history.lock().as_slice() != b"from A;from C;" {
                assert!(
                    std::time::Instant::now() < deadline,
                    "{mode:?}: not redirected"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            let mut stale = crate::acceptor::connect_data(&addr, first).unwrap();
            stale
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut answer = Vec::new();
            stale.read_to_end(&mut answer).unwrap();
            assert_eq!(answer, [crate::frame::TAG_STOP], "{mode:?}");
            let mut frame = Vec::new();
            write_data_frame(&mut frame, b"stale;", 7).unwrap();
            let _ = stale.write_all(&frame);
            writer_c.write_all(b"and on").unwrap();
            drop(writer_c);
            net.join().unwrap();
            assert_eq!(
                history.lock().as_slice(),
                b"from A;from C;and on",
                "{mode:?}"
            );
        }
    }

    #[test]
    fn pending_source_close_unregisters() {
        let b = node();
        let token = fresh_token();
        let reader = remote_reader(&b, token);
        drop(reader);
        // A late connection for the abandoned endpoint gets a Stop notice
        // and is dropped; the connector then observes a closed socket on
        // write.
        let mut writer = remote_writer(&b.local_addr().to_string(), token).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let mut failed = false;
        for _ in 0..100 {
            if writer.write_all(b"zzzzzzzz").is_err() {
                failed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(failed, "writer to abandoned endpoint never failed");
    }

    #[test]
    fn resilient_mode_plain_roundtrip() {
        // The ack/replay machinery must be invisible when no faults occur.
        let profile = NetProfile::new(Arc::new(TcpFactory), ReconnectPolicy::resilient());
        let b = Acceptor::bind_with("127.0.0.1:0", profile).unwrap();
        let token = fresh_token();
        let mut reader = remote_reader(&b, token);
        let mut writer = writer_to(&b, token);
        writer.write_all(b"resilient").unwrap();
        let mut buf = [0u8; 9];
        reader.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"resilient");
        drop(writer); // close() leaves the Close marker to the watchdog
        assert_eq!(reader.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn an_ack_past_the_sent_offset_fails_the_channel() {
        // A peer that acknowledges bytes it was never sent is broken, not
        // flaky: the writer reports it at once instead of trimming frames
        // the reader never had or reconnecting until its budget runs out.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut hello = [0u8; 9];
            stream.read_exact(&mut hello).unwrap();
            crate::frame::write_frame(&mut stream, &Frame::Ack { offset: 1 << 40 }).unwrap();
            stream
        });
        let profile = NetProfile::new(Arc::new(TcpFactory), ReconnectPolicy::resilient());
        let mut sink = RemoteSink::connect_with(&addr, fresh_token(), profile).unwrap();
        let _stream = peer.join().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let err = loop {
            match sink.write_all(b"x") {
                Ok(()) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Ok(()) => panic!("every write succeeded after an ack past the sent offset"),
                Err(e) => break e,
            }
        };
        assert!(
            matches!(&err, Error::Graph(why) if why.contains("past the")),
            "{err}"
        );
    }

    #[test]
    fn resilient_large_transfer_with_acks() {
        // Push more than the replay capacity through so the ack-driven
        // trimming and capacity waits actually run.
        let mut policy = ReconnectPolicy::resilient();
        policy.replay_capacity = 96 * 1024;
        let profile = NetProfile::new(Arc::new(TcpFactory), policy);
        let b = Acceptor::bind_with("127.0.0.1:0", profile).unwrap();
        let token = fresh_token();
        let mut reader = remote_reader(&b, token);
        let mut writer = writer_to(&b, token);
        let data: Vec<u8> = (0..400_000u32).map(|i| (i % 239) as u8).collect();
        let expect = data.clone();
        let h = std::thread::spawn(move || {
            writer.write_all(&data).unwrap();
        });
        let mut got = vec![0u8; expect.len()];
        reader.read_exact(&mut got).unwrap();
        h.join().unwrap();
        assert_eq!(got, expect);
    }

    /// TCP whose writer-side connections count the `write`s they make:
    /// behind [`RemoteSink`]'s `BufWriter` one flushed frame, header and
    /// payload, is one of them. Once the flag is set, the next read of any
    /// of them stalls for [`STALL`] and then finds nothing.
    struct CountingFactory(Arc<AtomicUsize>, Arc<AtomicBool>);

    const STALL: Duration = Duration::from_millis(300);

    struct CountedTransport {
        inner: Box<dyn Transport>,
        writes: Arc<AtomicUsize>,
        stall: Arc<AtomicBool>,
    }

    impl TransportFactory for CountingFactory {
        fn connect(&self, addr: &str, token: u64) -> Result<Box<dyn Transport>> {
            Ok(Box::new(CountedTransport {
                inner: TcpFactory.connect(addr, token)?,
                writes: self.0.clone(),
                stall: self.1.clone(),
            }))
        }
        fn wrap_accepted(&self, stream: TcpStream, token: u64) -> Box<dyn Transport> {
            TcpFactory.wrap_accepted(stream, token)
        }
    }

    impl Read for CountedTransport {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.stall.swap(false, Ordering::SeqCst) {
                kpn_core::exec::sleep(STALL);
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.inner.read(buf)
        }
    }

    impl Write for CountedTransport {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.fetch_add(1, Ordering::SeqCst);
            self.inner.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl Transport for CountedTransport {
        fn set_op_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
            self.inner.set_op_timeout(timeout)
        }
        fn set_nonblocking(&mut self, nonblocking: bool) -> io::Result<()> {
            self.inner.set_nonblocking(nonblocking)
        }
        fn socket(&self) -> Option<&TcpStream> {
            self.inner.socket()
        }
    }

    /// Three threads that spin until dropped, so the processes beside them
    /// are descheduled at arbitrary points, mid-registration included.
    struct BusyLoops(
        Arc<std::sync::atomic::AtomicBool>,
        Vec<std::thread::JoinHandle<()>>,
    );

    fn busy_loops() -> BusyLoops {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let spin = |stop: Arc<std::sync::atomic::AtomicBool>| {
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        };
        let threads = (0..3).map(|_| spin(stop.clone())).collect();
        BusyLoops(stop, threads)
    }

    impl Drop for BusyLoops {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
            for t in self.1.drain(..) {
                t.join().unwrap();
            }
        }
    }

    /// A partition whose only outlet is a socket: `Sequence -> L -> Scale ->`
    /// a remote writer, drained by the test thread. Returns the monitor's
    /// view and how many writes the writer's socket saw.
    fn drive_partition_over(
        tokens: u64,
        policy: ReconnectPolicy,
    ) -> (kpn_core::MonitorStats, usize) {
        use kpn_core::stdlib::{Scale, Sequence};
        let writes = Arc::new(AtomicUsize::new(0));
        let factory = CountingFactory(writes.clone(), Arc::default());
        let profile = NetProfile::new(Arc::new(factory), policy);
        let b = Acceptor::bind_with("127.0.0.1:0", profile).unwrap();
        let token = fresh_token();
        let reader = remote_reader(&b, token);
        let net = kpn_core::Network::new();
        let (w0, r0) = net.channel();
        let out = writer_to(&b, token);
        net.add(Sequence::new(0, tokens, w0));
        net.add(Scale::new(3, r0, out));
        net.start();
        let mut dr = DataReader::new(reader);
        for i in 0..tokens as i64 {
            assert_eq!(dr.read_i64().unwrap(), 3 * i);
        }
        assert!(dr.read_i64().is_err());
        let stats = net.join().unwrap().monitor;
        (stats, writes.load(Ordering::SeqCst))
    }

    fn drive_partition(tokens: u64) -> kpn_core::MonitorStats {
        drive_partition_over(tokens, ReconnectPolicy::default()).0
    }

    #[test]
    fn an_owner_waits_out_its_watchdog_on_a_one_worker_pool() {
        // A pooled fiber connects the profile's first resilient sink, so the
        // profile's watchdog is a fiber of the same one-worker pool. Its
        // next pass finds the sink idle and stalls in an ack read while it
        // holds the sink; the owner writing meanwhile must wait for it
        // without blocking the worker the watchdog needs to resume on.
        let stall = Arc::new(AtomicBool::new(false));
        let factory = CountingFactory(Arc::default(), stall.clone());
        let profile = NetProfile::new(Arc::new(factory), ReconnectPolicy::resilient());
        let b = Acceptor::bind_with("127.0.0.1:0", profile.clone()).unwrap();
        let token = fresh_token();
        let mut reader = DataReader::new(remote_reader(&b, token));
        let pool = kpn_core::PooledExec::new(1);
        let net = kpn_core::Network::with_exec(kpn_core::NetworkConfig::default(), pool.clone());
        let addr = b.local_addr().to_string();
        net.add_fn("owner", move |_| {
            let sink = RemoteSink::connect_with(&addr, token, profile)?;
            let mut out = DataWriter::new(ChannelWriter::from_sink(Box::new(sink)));
            out.write_i64(1)?;
            out.flush()?;
            stall.store(true, Ordering::SeqCst);
            kpn_core::exec::sleep(RECOVERY_POLL + RECOVERY_POLL / 2);
            out.write_i64(2)?;
            out.flush()
        });
        net.start();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let got = (reader.read_i64().ok(), reader.read_i64().ok());
            tx.send((got, reader.read_i64().is_err())).unwrap();
        });
        let got = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("owner stuck");
        assert_eq!(got, ((Some(1), Some(2)), true));
        net.join().unwrap();
        pool.shutdown();
    }

    #[test]
    fn a_streaming_writer_shares_frames_between_steps() {
        // `Scale`'s steps are a fraction of what a frame costs to send, so
        // each publish opens a window many steps long (`kpn_core::flush`,
        // clause 5) and the next frame carries them all: the history is
        // exact and the socket sees tens of tokens per write, where a flush
        // at every step boundary sent one frame per token.
        //
        // The bound on writes describes optimised code, and holds in release
        // builds only. Unoptimised, a `Scale` step costs a larger share of
        // a publish, so a window holds only about 9 steps and the count
        // sits around the bound.
        const TOKENS: u64 = 100_000;
        for policy in [ReconnectPolicy::default(), ReconnectPolicy::resilient()] {
            let (stats, writes) = drive_partition_over(TOKENS, policy.clone());
            assert!(
                cfg!(debug_assertions) || writes < TOKENS as usize / 10,
                "{writes} socket writes for {TOKENS} tokens ({policy:?})"
            );
            assert_eq!(stats.capacity_grows, 0, "{:?}", stats.growth_log);
        }
    }

    #[test]
    fn a_remote_writer_that_never_waits_grows_nothing_behind_it() {
        // `Sequence` is parked on the full `L` nearly all the time, and
        // `Scale` writes to its socket after every step. Counted as blocked
        // while it writes, `Scale` would complete an all-blocked picture
        // with nobody stuck at every token — and, descheduled mid-write
        // beside the busy loops, hold it still — so a write that does not
        // wait must not register at all.
        let _load = busy_loops();
        let stats = drive_partition(20_000);
        assert_eq!(stats.capacity_grows, 0, "{:?}", stats.growth_log);
        assert_eq!(stats.true_deadlocks, 0);
    }

    #[test]
    fn a_remote_reader_that_does_wait_still_gets_the_local_channel_grown() {
        // The distributed artificial deadlock: the producer must put 64
        // bytes into a 32-byte `L` before it sends the byte its consumer is
        // waiting for on the socket, and the consumer reads `L` only after
        // that byte. The consumer's wait on its socket registers by itself
        // and leaves the picture alone; the producer's detection tick grows
        // `L`.
        let _load = busy_loops();
        let b = node();
        let token = fresh_token();
        let net = kpn_core::Network::new();
        let (mut l_w, mut l_r) = net.channel_with_capacity(32);
        let go_r = remote_reader(&b, token);
        let mut go_w = remote_writer(&b.local_addr().to_string(), token).unwrap();
        net.add_fn("producer", move |_| {
            l_w.write_all(&[7u8; 64])?;
            go_w.write_all(&[1])
        });
        net.add_fn("consumer", move |_| {
            let mut go_r = go_r;
            let (mut go, mut data) = ([0u8; 1], [0u8; 64]);
            go_r.read_exact(&mut go)?;
            l_r.read_exact(&mut data)?;
            assert_eq!(data, [7u8; 64]);
            Ok(())
        });
        let stats = net.run().unwrap().monitor;
        assert!(stats.capacity_grows >= 1, "{:?}", stats.growth_log);
        assert_eq!(stats.true_deadlocks, 0);
    }

    #[test]
    fn a_remote_reader_waiting_for_its_connection_still_gets_the_local_channel_grown() {
        // The same deadlock one step earlier: the producer connects its
        // writer only once its 64 bytes are in the 32-byte `L`, so the
        // consumer waits for the connection itself (`PendingConn::wait`).
        // That wait is registered, and it is the only one that can tick on
        // a thread: the producer's wait on `L` keeps no clock.
        for mode in [ExecMode::Thread, ExecMode::Pooled { workers: 2 }] {
            let b = node();
            let token = fresh_token();
            let addr = b.local_addr().to_string();
            let net = kpn_core::Network::with_config(kpn_core::NetworkConfig {
                mode: mode.clone(),
                ..kpn_core::NetworkConfig::default()
            });
            let (mut l_w, mut l_r) = net.channel_with_capacity(32);
            let mut go_r = remote_reader(&b, token);
            net.add_fn("producer", move |_| {
                l_w.write_all(&[7u8; 64])?;
                remote_writer(&addr, token)?.write_all(&[1])
            });
            net.add_fn("consumer", move |_| {
                let (mut go, mut data) = ([0u8; 1], [0u8; 64]);
                go_r.read_exact(&mut go)?;
                l_r.read_exact(&mut data)?;
                assert_eq!(data, [7u8; 64]);
                Ok(())
            });
            let stats = net.run().unwrap().monitor;
            let grown = &stats.growth_log;
            assert!(stats.capacity_grows >= 1, "{mode:?}: {grown:?}");
            assert_eq!(stats.true_deadlocks, 0, "{mode:?}");
        }
    }

    /// What a source writes back on a connection: its acks.
    type Back = Arc<Mutex<Vec<u8>>>;

    /// A connection that hands over its bytes in pieces of the given sizes
    /// (the rest in pieces of any size), then reports EOF — or, the
    /// writer's `replacement`, fails for good — and records every write in
    /// `back`.
    struct Scripted {
        bytes: std::collections::VecDeque<u8>,
        sizes: std::collections::VecDeque<usize>,
        back: Back,
        replacement: bool,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.bytes.is_empty() && self.replacement {
                return Err(io::Error::other("the replacement's end"));
            }
            let size = self.sizes.pop_front().unwrap_or(usize::MAX).max(1);
            let n = size.min(buf.len()).min(self.bytes.len());
            for (to, from) in buf.iter_mut().zip(self.bytes.drain(..n)) {
                *to = from;
            }
            Ok(n)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.back.lock().extend(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Transport for Scripted {
        fn set_op_timeout(&mut self, _timeout: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
        fn set_nonblocking(&mut self, _nonblocking: bool) -> io::Result<()> {
            Ok(())
        }
        fn socket(&self) -> Option<&TcpStream> {
            None
        }
    }

    /// Accepts every connection as a writer's replacement: a [`Scripted`]
    /// one with no bytes, recording into the `Back` filed under its token.
    #[derive(Default)]
    struct Replacements(Mutex<std::collections::HashMap<u64, Back>>);

    impl TransportFactory for Replacements {
        fn connect(&self, addr: &str, token: u64) -> Result<Box<dyn Transport>> {
            TcpFactory.connect(addr, token)
        }
        fn wrap_accepted(&self, _stream: TcpStream, token: u64) -> Box<dyn Transport> {
            Box::new(Scripted {
                bytes: Default::default(),
                sizes: Default::default(),
                back: self.0.lock().get(&token).cloned().unwrap_or_default(),
                replacement: true,
            })
        }
    }

    /// The node the proptests' sources listen at, and its replacements.
    fn scripted_node() -> &'static (Arc<Acceptor>, Arc<Replacements>) {
        static NODE: std::sync::OnceLock<(Arc<Acceptor>, Arc<Replacements>)> =
            std::sync::OnceLock::new();
        NODE.get_or_init(|| {
            let replacements = Arc::new(Replacements::default());
            let profile = NetProfile::new(replacements.clone(), ReconnectPolicy::default());
            (
                Acceptor::bind_with("127.0.0.1:0", profile).unwrap(),
                replacements,
            )
        })
    }

    /// What a reader must deliver from `wire`, decoded on its own: each
    /// `Data` frame's payload past the bytes already delivered, up to the
    /// first frame that is short, out of order or anything but `Data`.
    fn deliverable(mut wire: &[u8]) -> Vec<u8> {
        let (mut out, mut expected) = (Vec::new(), 0u64);
        while wire.len() >= 13 && wire[0] == 0x01 {
            let len = u32::from_be_bytes(wire[1..5].try_into().unwrap()) as usize;
            let offset = u64::from_be_bytes(wire[5..13].try_into().unwrap());
            if offset > expected {
                break;
            }
            let body = &wire[13..];
            let (got, skip) = (len.min(body.len()), ((expected - offset) as usize).min(len));
            if skip < got {
                out.extend(&body[skip..got]);
                expected += (got - skip) as u64;
            }
            if got < len {
                break;
            }
            wire = &body[len..];
        }
        out
    }

    /// How a source read a script: what it delivered, how it ended, and
    /// each ack it wrote with the stream units (bytes, and a `Close`) the
    /// caller had been handed by the end of the read that wrote it.
    type ReadThrough = (Vec<u8>, Result<()>, Vec<(u64, u64)>);

    /// Reads `wire`, cut into `sizes`, through a source into `room`-byte
    /// reads until it ends. A resilient source whose script fails listens
    /// for, and adopts, the writer's replacement connection, which then
    /// fails for good.
    fn read_through(
        wire: &[u8],
        sizes: &[usize],
        room: usize,
        policy: ReconnectPolicy,
    ) -> ReadThrough {
        let (node, replacements) = scripted_node();
        let (token, back) = (fresh_token(), Back::default());
        replacements.0.lock().insert(token, back.clone());
        let _replacement =
            crate::acceptor::connect_data(&node.local_addr().to_string(), token).unwrap();
        let mut source = RemoteSource::new(node, token);
        source.proto = ReaderProto::new(token, policy);
        source.adopt(Box::new(Scripted {
            bytes: wire.iter().copied().collect(),
            sizes: sizes.iter().copied().collect(),
            back: back.clone(),
            replacement: false,
        }));
        let (mut delivered, mut buf) = (Vec::new(), vec![0u8; room]);
        let (mut acks, mut parser) = (Vec::new(), crate::frame::AckParser::default());
        let ended = loop {
            let read = source.read(&mut buf);
            if let Ok(SourceRead::Data(n)) = read {
                assert!(n > 0 && n <= room, "{n} bytes into {room}");
                delivered.extend(&buf[..n]);
            }
            let units = delivered.len() as u64 + matches!(read, Ok(SourceRead::End)) as u64;
            let written: Vec<u8> = back.lock().drain(..).collect();
            let on_ack = |event| match event {
                crate::frame::AckEvent::Ack(offset) => acks.push((offset, units)),
                stop => panic!("a source wrote {stop:?}"),
            };
            parser.feed(&written, on_ack).unwrap();
            match read {
                Ok(SourceRead::Data(_)) => {}
                Ok(_) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        source.close();
        replacements.0.lock().remove(&token);
        (delivered, ended, acks)
    }

    /// The acks of a read: none covers bytes the caller had not been handed
    /// when it was written, and a resilient source that adopted the
    /// writer's replacement resumed it at exactly what it delivered, and
    /// one that ended at a `Close` acked what it delivered and the marker.
    fn check_acks(read: &ReadThrough, resilient: bool) -> std::result::Result<(), String> {
        let (delivered, ended, acks) = read;
        if let Some((offset, units)) = acks.iter().find(|(offset, units)| offset > units) {
            return Err(format!("an ack at {offset} with {units} units delivered"));
        }
        let resumed = matches!(ended, Err(Error::Io(e)) if e.kind() == io::ErrorKind::Other);
        let closed = ended.is_ok();
        let last = acks.last().map(|&(offset, _)| offset);
        let want = delivered.len() as u64 + closed as u64;
        match resilient && (resumed || closed) && last != Some(want) {
            true => Err(format!(
                "{} at {last:?} after {} bytes",
                if closed { "closed" } else { "resumed" },
                delivered.len()
            )),
            false => Ok(()),
        }
    }

    /// Frames near the stream's offsets, some out of order or repeated,
    /// each `(kind, offset, payload length)`: 0–2 data, 3 a `Close`.
    fn framed(frames: &[(u8, u64, usize)]) -> Vec<u8> {
        let mut wire = Vec::new();
        for &(kind, offset, len) in frames {
            match kind {
                3 => write_frame(&mut wire, &Frame::Close { offset }).unwrap(),
                _ => write_data_frame(&mut wire, &vec![kind; len], offset).unwrap(),
            }
        }
        wire
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn a_source_delivers_each_byte_once_from_hostile_bytes(
            wire in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256),
            sizes in proptest::collection::vec(0usize..24, 0..48),
            room in 1usize..40,
            resilient in proptest::prelude::any::<bool>(),
        ) {
            // Any bytes, cut anywhere: an end or an error, never a panic,
            // and nothing delivered twice or past its frame.
            let policy = if resilient { ReconnectPolicy::resilient() } else { ReconnectPolicy::default() };
            let read = read_through(&wire, &sizes, room, policy);
            proptest::prop_assert_eq!(&read.0, &deliverable(&wire));
            proptest::prop_assert_eq!(check_acks(&read, resilient), Ok(()));
        }

        #[test]
        fn a_source_delivers_each_byte_once_from_mutated_frames(
            frames in proptest::collection::vec((0u8..4, 0u64..48, 0usize..24), 0..8),
            flips in proptest::collection::vec((0usize..512, 1u8..=255), 0..3),
            sizes in proptest::collection::vec(0usize..24, 0..48),
            room in 1usize..40,
        ) {
            let mut wire = framed(&frames);
            for (at, with) in flips {
                if let Some(byte) = wire.get_mut(at) {
                    *byte ^= with;
                }
            }
            let read = read_through(&wire, &sizes, room, ReconnectPolicy::resilient());
            proptest::prop_assert_eq!(&read.0, &deliverable(&wire));
            proptest::prop_assert_eq!(check_acks(&read, true), Ok(()));
        }

        #[test]
        fn a_source_resumes_a_cut_stream_at_what_it_delivered(
            lens in proptest::collection::vec(1usize..24, 1..8),
            reach in proptest::collection::vec(0u64..8, 1..8),
            cut in proptest::prelude::any::<usize>(),
            sizes in proptest::collection::vec(0usize..24, 0..48),
            room in 1usize..40,
        ) {
            // A writer's data frames, each starting up to `reach` bytes
            // before the stream's end so far (a replayed prefix), cut at
            // any byte: a resilient source delivers the stream once, and
            // its resume ack on the replacement is exactly what it
            // delivered.
            let (mut frames, mut end) = (Vec::new(), 0u64);
            for (i, &len) in lens.iter().enumerate() {
                let offset = end.saturating_sub(reach[i % reach.len()]);
                frames.push((1, offset, len));
                end = end.max(offset + len as u64);
            }
            let mut wire = framed(&frames);
            wire.truncate(cut % (wire.len() + 1));
            let read = read_through(&wire, &sizes, room, ReconnectPolicy::resilient());
            proptest::prop_assert_eq!(&read.0, &deliverable(&wire));
            proptest::prop_assert!(matches!(&read.1, Err(Error::Io(_))), "{:?}", read.1);
            proptest::prop_assert_eq!(check_acks(&read, true), Ok(()));
        }
    }
}
