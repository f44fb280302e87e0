//! Remote channel endpoints over TCP — the `RemoteOutputStream` /
//! `RemoteInputStream` / `RedirectedInputStream` of §4.2–4.3.
//!
//! A [`RemoteSink`] plugs into a [`kpn_core::ChannelWriter`]; a
//! [`RemoteSource`] (or, before its connection arrives, a
//! [`PendingSource`]) plugs into a [`kpn_core::ChannelReader`]. Both sides
//! preserve the full channel semantics across the network:
//!
//! * graceful writer close → `Close` frame → reader drains, then EOF;
//! * reader close → socket shutdown → writer's next write fails with
//!   [`Error::WriteClosed`] ("these exceptions even propagate across
//!   network connections", §3.4);
//! * TCP flow control supplies the bounded-buffer backpressure that local
//!   channels get from their ring buffer (§3.5);
//! * a migrating writer sends `Redirect{token}`; the reader registers the
//!   token with its own acceptor and splices in the replacement
//!   connection, after which traffic flows directly between the new homes
//!   (Figure 15 — no bytes transit the original server).
//!
//! ## Fault tolerance (sequence-numbered reconnection)
//!
//! With a [`ReconnectPolicy`] enabled, endpoints survive transient link
//! failure without perturbing the Kahn semantics. Every frame carries the
//! writer's byte offset into the logical stream; the writer retains a
//! bounded buffer of unacknowledged frames, and the reader tracks the
//! next offset it will deliver, acknowledging cumulatively. When a
//! transport operation fails with a *transient* error (reset, timeout,
//! refused connect, EOF mid-stream):
//!
//! * the **writer** reconnects under exponential backoff + jitter + an
//!   overall budget, waits for the reader's resume acknowledgement, trims
//!   its replay buffer to the acknowledged offset, and retransmits the
//!   rest — the reader discards any duplicate prefix, so every stream
//!   byte is delivered exactly once;
//! * the **reader** shuts the broken transport (so a writer whose half
//!   was still healthy fails fast and recovers too), re-registers its
//!   token at the local acceptor, and acknowledges its resume offset on
//!   the replacement connection.
//!
//! One hazard needs an active component: reconnection is writer-driven
//! (only the writer holds the reader's address), but a writer only
//! *discovers* a dead link when it next touches the socket. A process
//! parked reading some other channel may not write for an arbitrarily
//! long time — and if the lost connection swallowed an in-flight frame,
//! the whole network can stall waiting for a replay that nothing
//! triggers. A single process-wide watchdog thread therefore pumps every
//! resilient sink that is not currently busy (see [`SinkCore::pump`]):
//! it drains acknowledgements and, on finding the link dead, runs the
//! ordinary recovery episode on the idle sink's behalf.
//!
//! Transient failure is distinguished from *deliberate* stream events,
//! which must still cascade per §3.4: a reader that processes `Close` (or
//! is closed locally) marks its token dead, and the acceptor answers any
//! later connection for that token with a `Stop` notice — a recovering
//! writer that sees `Stop` stops retrying (and treats it as success when
//! it was only waiting for a `Close`/`Redirect` marker to be
//! acknowledged, since `Stop` proves the reader got that far). True
//! deadlock detection is also preserved: recovery episodes are counted in
//! process-wide gauges (see [`crate::transport::recovery_stats`]) that
//! the cluster probe checks, so a reconnecting channel is never counted
//! as a blocked one.

use crate::acceptor::{fresh_token, Acceptor, PendingConn};
use crate::frame::{
    parse_frame_header, write_data_frame, write_frame, AckEvent, AckParser, Frame, FrameHeader,
};
use crate::transport::{
    error_is_transient, profile_for, NetProfile, ReconnectPolicy, RecoveryGuard, SplitMix64,
    Transport, TransportFactory,
};
use kpn_core::{
    BlockKind, ChannelReader, ChannelWriter, Error, Monitor, Result, Sink, Source, SourceRead,
};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Maximum payload of one `Data` frame.
const MAX_FRAME: usize = 64 * 1024;

/// Size of the socket-side write coalescing buffer: big enough to merge a
/// frame header with a typical stream-buffer-sized payload into one
/// syscall, small enough per connection to stay cheap.
const SINK_BUFFER: usize = 16 * 1024;

/// The reader acknowledges after this many delivered bytes (and at every
/// `Close`/`Redirect` marker and connection adoption).
const ACK_EVERY: u64 = 16 * 1024;

/// Poll granularity for blocking ack waits and reconnect handshakes:
/// short enough to notice aborts and deadlines promptly.
const RECOVERY_POLL: Duration = Duration::from_millis(100);

/// Budget meter for one recovery episode, charged in *nominal* time: each
/// wait subtracts the duration it asked for (the backoff delay, the poll
/// interval) rather than the wall-clock time it actually took. A loaded
/// machine therefore performs exactly as many reconnect attempts as an
/// idle one before giving up — the chaos suite's fault schedules are
/// op-count based and rely on that; wall-clock deadlines made episode
/// length (and thus which operation a schedule's n-th fault landed on
/// after an early give-up) depend on scheduler noise.
struct RecoveryBudget {
    remaining: Duration,
}

impl RecoveryBudget {
    fn new(policy: &ReconnectPolicy) -> Self {
        RecoveryBudget {
            remaining: policy.budget,
        }
    }

    /// Charges the nominal cost of one wait against the budget.
    fn charge(&mut self, nominal: Duration) {
        self.remaining = self.remaining.saturating_sub(nominal);
    }

    fn exhausted(&self) -> bool {
        self.remaining.is_zero()
    }
}

fn map_write_err(e: std::io::Error) -> Error {
    use std::io::ErrorKind::*;
    match e.kind() {
        BrokenPipe | ConnectionReset | ConnectionAborted | NotConnected => Error::WriteClosed,
        _ => Error::Io(e),
    }
}

/// Transient-link classification for errors surfacing on an endpoint's
/// data path. `Eof`/`WriteClosed` are included because
/// `From<io::Error> for Error` folds `UnexpectedEof`/`BrokenPipe` into
/// them before we see the I/O kind; on a *transport* operation they mean
/// the connection died, not that the stream ended (graceful end is a
/// `Close` frame, never a socket error).
fn link_failure(e: &Error) -> bool {
    matches!(e, Error::Eof | Error::WriteClosed) || error_is_transient(e)
}

/// Out-of-band interruption for a remote endpoint: lets a network abort
/// wake threads blocked inside transports the deadlock monitor cannot
/// poison (a TCP read, or the wait for a pending connection). Shared
/// between the endpoint (which keeps it pointed at its current transport,
/// across redirects and reconnects) and the abort hook that fires it.
pub struct Interruptor {
    state: parking_lot::Mutex<InterruptState>,
}

#[derive(Default)]
struct InterruptState {
    interrupted: bool,
    /// A second handle to the endpoint's current socket.
    socket: Option<TcpStream>,
    /// A registration waiting at an acceptor (pending connection).
    pending: Option<(std::sync::Weak<Acceptor>, u64)>,
}

impl Interruptor {
    /// A fresh, un-fired interruptor.
    pub fn new() -> Arc<Self> {
        Arc::new(Interruptor {
            state: parking_lot::Mutex::new(InterruptState::default()),
        })
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
        let handle = t.shutdown_handle();
        let mut st = self.state.lock();
        if st.interrupted {
            let _ = t.shutdown(Shutdown::Both);
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

impl std::fmt::Debug for Interruptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Interruptor(fired: {})", self.is_interrupted())
    }
}

/// One frame retained for replay until acknowledged.
enum ReplayFrame {
    Data { offset: u64, bytes: Vec<u8> },
    Close { offset: u64 },
    Redirect { offset: u64, token: u64 },
}

/// The movable state of a [`RemoteSink`]: connection, stream accounting,
/// and replay buffer. Separated from the `Sink` facade so a deliberate
/// close can hand the state to a detached "linger" thread that sees the
/// final `Close` marker acknowledged (reconnecting if needed) without
/// blocking the closing process.
struct SinkCore {
    conn: Option<BufWriter<Box<dyn Transport>>>,
    /// Reader-side acceptor address, for reconnects.
    addr: String,
    token: u64,
    policy: ReconnectPolicy,
    factory: Arc<dyn TransportFactory>,
    interruptor: Option<Arc<Interruptor>>,
    peer: Option<SocketAddr>,
    /// The peer answered `Stop`: the reader is deliberately gone.
    peer_stopped: bool,
    /// A terminal failure the watchdog hit while pumping this sink on the
    /// owner's behalf, delivered on the owner's next operation so the
    /// cascade carries the real error (and the owner does not burn a
    /// second recovery budget rediscovering it).
    pending_failure: Option<Error>,
    /// Next stream offset to assign (payload bytes + markers written).
    sent: u64,
    /// Everything below this offset is acknowledged by the reader.
    acked: u64,
    replay: VecDeque<ReplayFrame>,
    replay_bytes: usize,
    acks: AckParser,
    rng: SplitMix64,
}

impl SinkCore {
    fn connect(addr: &str, token: u64, profile: NetProfile) -> Result<Self> {
        let NetProfile { factory, policy } = profile;
        let mut rng = SplitMix64(token ^ 0x005E_ED0F_5EED);
        let mut budget = RecoveryBudget::new(&policy);
        let mut attempt: u32 = 0;
        let transport = loop {
            match factory.connect(addr, token) {
                Ok(t) => break crate::rio::wrap(t),
                Err(e) if policy.enabled && link_failure(&e) && !budget.exhausted() => {
                    let delay = policy.backoff(attempt, &mut rng);
                    attempt = attempt.saturating_add(1);
                    budget.charge(delay);
                    kpn_core::exec::sleep(delay);
                }
                Err(e) => return Err(e),
            }
        };
        let _ = transport.set_op_timeout(policy.op_timeout);
        let peer = transport.peer_addr().ok().or_else(|| addr.parse().ok());
        Ok(SinkCore {
            conn: Some(BufWriter::with_capacity(SINK_BUFFER, transport)),
            addr: addr.to_string(),
            token,
            policy,
            factory,
            interruptor: None,
            peer,
            peer_stopped: false,
            pending_failure: None,
            sent: 0,
            acked: 0,
            replay: VecDeque::new(),
            replay_bytes: 0,
            acks: AckParser::default(),
            rng,
        })
    }

    fn interrupted(&self) -> bool {
        self.interruptor
            .as_ref()
            .is_some_and(|i| i.is_interrupted())
    }

    fn apply_ack_events(&mut self, events: &[AckEvent]) {
        for ev in events {
            match ev {
                AckEvent::Ack(off) => {
                    if *off > self.acked {
                        self.acked = *off;
                    }
                }
                AckEvent::Stop => self.peer_stopped = true,
            }
        }
        self.trim_replay();
    }

    /// Drops fully acknowledged replay entries and trims the acknowledged
    /// prefix of a partially acknowledged `Data` frame.
    fn trim_replay(&mut self) {
        while let Some(front) = self.replay.front_mut() {
            match front {
                ReplayFrame::Data { offset, bytes } => {
                    let end = *offset + bytes.len() as u64;
                    if end <= self.acked {
                        self.replay_bytes -= bytes.len();
                        self.replay.pop_front();
                    } else if *offset < self.acked {
                        let cut = (self.acked - *offset) as usize;
                        bytes.drain(..cut);
                        *offset = self.acked;
                        self.replay_bytes -= cut;
                        break;
                    } else {
                        break;
                    }
                }
                ReplayFrame::Close { offset } | ReplayFrame::Redirect { offset, .. } => {
                    if *offset < self.acked {
                        self.replay.pop_front();
                    } else {
                        break;
                    }
                }
            }
        }
    }

    /// Consumes any acknowledgements sitting in the reverse direction of
    /// the connection without blocking, keeping the replay buffer trimmed.
    fn drain_acks(&mut self) -> Result<()> {
        if !self.policy.enabled {
            return Ok(());
        }
        let mut events = Vec::new();
        let mut failure: Option<Error> = None;
        {
            let Some(conn) = self.conn.as_mut() else {
                return Ok(());
            };
            if conn.get_ref().set_nonblocking(true).is_err() {
                return Ok(());
            }
            let mut tmp = [0u8; 256];
            loop {
                match conn.get_mut().read(&mut tmp) {
                    Ok(0) => {
                        failure = Some(Error::Disconnected(
                            "connection closed while draining acks".into(),
                        ));
                        break;
                    }
                    Ok(n) => {
                        if let Err(e) = self.acks.feed(&tmp[..n], |ev| events.push(ev)) {
                            failure = Some(e);
                            break;
                        }
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        failure = Some(e.into());
                        break;
                    }
                }
            }
            let _ = conn.get_ref().set_nonblocking(false);
        }
        self.apply_ack_events(&events);
        match failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Routes a failed transport operation: transient link failures enter
    /// recovery (the replay buffer retransmits whatever the failed
    /// operation was sending); everything else maps to the fail-fast
    /// semantics of the policy-disabled path.
    fn handle_failure(&mut self, e: Error) -> Result<()> {
        if self.policy.enabled && !self.peer_stopped && !self.interrupted() && link_failure(&e) {
            self.recover()
        } else {
            Err(match e {
                Error::Io(io) => map_write_err(io),
                other => other,
            })
        }
    }

    /// One recovery episode: reconnect with backoff + jitter under the
    /// policy budget, handshake for the reader's resume acknowledgement,
    /// and retransmit the unacknowledged suffix.
    fn recover(&mut self) -> Result<()> {
        let guard = RecoveryGuard::enter();
        if let Some(conn) = self.conn.take() {
            let _ = conn.get_ref().shutdown(Shutdown::Both);
        }
        let mut budget = RecoveryBudget::new(&self.policy);
        let mut attempt: u32 = 0;
        loop {
            if self.interrupted() {
                return Err(Error::WriteClosed);
            }
            if attempt > 0 {
                let delay = self.policy.backoff(attempt - 1, &mut self.rng);
                budget.charge(delay);
                kpn_core::exec::sleep(delay);
            }
            if budget.exhausted() {
                return Err(Error::Disconnected(format!(
                    "reconnect budget exhausted after {attempt} attempts \
                     (token {:#x}, {} unacked bytes)",
                    self.token, self.replay_bytes
                )));
            }
            guard.attempt();
            attempt = attempt.saturating_add(1);
            let transport = match self.factory.connect(&self.addr, self.token) {
                Ok(t) => crate::rio::wrap(t),
                Err(e) if link_failure(&e) => continue,
                Err(e) => return Err(e),
            };
            match self.resume_handshake(transport, &mut budget) {
                Ok(Some(conn)) => {
                    self.conn = Some(conn);
                    match self.transmit_replay() {
                        Ok(()) => return Ok(()),
                        Err(e) if link_failure(&e) => {
                            if let Some(conn) = self.conn.take() {
                                let _ = conn.get_ref().shutdown(Shutdown::Both);
                            }
                            continue;
                        }
                        Err(e) => return Err(e),
                    }
                }
                Ok(None) => {
                    // `Stop`: the reader is deliberately gone.
                    self.peer_stopped = true;
                    return Err(Error::WriteClosed);
                }
                Err(e) if link_failure(&e) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Waits on a fresh connection for the reader's resume `Ack` (sent
    /// when the reader adopts the connection) or a `Stop` notice.
    /// `Ok(Some(conn))` means resume: `acked` is updated and the replay
    /// buffer trimmed. `Ok(None)` means `Stop`.
    fn resume_handshake(
        &mut self,
        mut transport: Box<dyn Transport>,
        budget: &mut RecoveryBudget,
    ) -> Result<Option<BufWriter<Box<dyn Transport>>>> {
        let _ = transport.set_op_timeout(Some(RECOVERY_POLL));
        let mut parser = AckParser::default();
        let mut tmp = [0u8; 64];
        loop {
            if self.interrupted() {
                return Err(Error::WriteClosed);
            }
            if budget.exhausted() {
                return Err(Error::Disconnected(
                    "no resume ack within reconnect budget".into(),
                ));
            }
            match transport.read(&mut tmp) {
                Ok(0) => return Err(Error::Disconnected("eof during resume handshake".into())),
                Ok(n) => {
                    let mut events = Vec::new();
                    parser.feed(&tmp[..n], |ev| events.push(ev))?;
                    let mut resume: Option<u64> = None;
                    for ev in &events {
                        match ev {
                            AckEvent::Stop => return Ok(None),
                            AckEvent::Ack(off) => resume = Some(resume.unwrap_or(0).max(*off)),
                        }
                    }
                    if let Some(off) = resume {
                        if off > self.acked {
                            self.acked = off;
                        }
                        self.trim_replay();
                        let _ = transport.set_op_timeout(self.policy.op_timeout);
                        if let Some(i) = &self.interruptor {
                            i.attach_transport(&*transport);
                        }
                        self.acks = AckParser::default();
                        return Ok(Some(BufWriter::with_capacity(SINK_BUFFER, transport)));
                    }
                }
                Err(ref e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    budget.charge(RECOVERY_POLL);
                    continue;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Retransmits every retained frame on the current connection.
    fn transmit_replay(&mut self) -> Result<()> {
        let Some(conn) = self.conn.as_mut() else {
            return Err(Error::WriteClosed);
        };
        for frame in &self.replay {
            match frame {
                ReplayFrame::Data { offset, bytes } => write_data_frame(conn, bytes, *offset)?,
                ReplayFrame::Close { offset } => {
                    write_frame(conn, &Frame::Close { offset: *offset })?
                }
                ReplayFrame::Redirect { offset, token } => write_frame(
                    conn,
                    &Frame::Redirect {
                        token: *token,
                        offset: *offset,
                    },
                )?,
            }
        }
        conn.flush()?;
        Ok(())
    }

    /// Blocks until the reader has acknowledged every unit below `target`,
    /// reconnecting and replaying as needed. With `marker_wait`, a `Stop`
    /// from the peer counts as success: the frames below `target` end in a
    /// `Close`/`Redirect` marker, and a deliberately-dead token proves the
    /// reader processed that far (in-order delivery).
    ///
    /// There is deliberately no overall deadline here: on a *healthy* link
    /// this is ordinary bounded-channel backpressure (the reader may drain
    /// arbitrarily slowly), exactly like blocking on TCP flow control in
    /// fail-fast mode. Only recovery episodes — where the link is actually
    /// down — are budget-bounded, so a permanently dead link still
    /// terminates via `recover()`'s budget.
    fn wait_acked(&mut self, target: u64, marker_wait: bool) -> Result<()> {
        if !self.policy.enabled || self.acked >= target {
            return Ok(());
        }
        // Reading acks can block: publish this task's buffered output
        // first (same publish-before-wait rule as local channels). Under a
        // `MonitoredSink` the registration has already published and this
        // finds nothing; a bare `RemoteSink` has no one else to do it.
        kpn_core::flush::flush_before_block();
        let mut tmp = [0u8; 256];
        loop {
            if self.acked >= target {
                break;
            }
            if self.peer_stopped {
                if marker_wait {
                    break;
                }
                return Err(Error::WriteClosed);
            }
            if self.interrupted() {
                return Err(Error::WriteClosed);
            }
            let mut step = || -> Result<usize> {
                let Some(conn) = self.conn.as_mut() else {
                    return Err(Error::WriteClosed);
                };
                conn.flush()?;
                let _ = conn.get_ref().set_op_timeout(Some(RECOVERY_POLL));
                let r = conn.get_mut().read(&mut tmp);
                let _ = conn.get_ref().set_op_timeout(self.policy.op_timeout);
                match r {
                    Ok(0) => Err(Error::Disconnected("eof during ack wait".into())),
                    Ok(n) => Ok(n),
                    Err(ref e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        Ok(0)
                    }
                    Err(e) => Err(e.into()),
                }
            };
            let failure = match step() {
                Ok(0) => continue,
                Ok(n) => {
                    let mut events = Vec::new();
                    let fed = self.acks.feed(&tmp[..n], |ev| events.push(ev));
                    self.apply_ack_events(&events);
                    match fed {
                        Ok(()) => continue,
                        Err(e) => e, // garbage on the ack stream: treat as a link fault
                    }
                }
                Err(e) => e,
            };
            match self.handle_failure(failure) {
                Ok(()) => continue,
                Err(e) => {
                    if self.peer_stopped && marker_wait {
                        break;
                    }
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    fn write_chunks(&mut self, buf: &[u8]) -> Result<()> {
        if let Some(e) = self.pending_failure.take() {
            return Err(e);
        }
        if self.peer_stopped {
            return Err(Error::WriteClosed);
        }
        if self.policy.enabled {
            if let Err(e) = self.drain_acks() {
                self.handle_failure(e)?;
            }
            if self.peer_stopped {
                return Err(Error::WriteClosed);
            }
        }
        for chunk in buf.chunks(MAX_FRAME) {
            if self.policy.enabled {
                // Floor: one full frame plus the reader's ack granularity,
                // so the reader's lagging cumulative ack (< ACK_EVERY
                // behind its delivery point) always frees enough window.
                let cap = self
                    .policy
                    .replay_capacity
                    .max(MAX_FRAME + ACK_EVERY as usize);
                if self.replay_bytes + chunk.len() > cap {
                    // Replay window full: block until the reader catches
                    // up — semantically a smaller bounded channel.
                    let free_needed = (self.replay_bytes + chunk.len() - cap) as u64;
                    self.wait_acked(self.acked + free_needed, false)?;
                }
                self.replay.push_back(ReplayFrame::Data {
                    offset: self.sent,
                    bytes: chunk.to_vec(),
                });
                self.replay_bytes += chunk.len();
            }
            let offset = self.sent;
            self.sent += chunk.len() as u64;
            let r = match self.conn.as_mut() {
                Some(conn) => write_data_frame(conn, chunk, offset),
                None => Err(Error::WriteClosed),
            };
            if let Err(e) = r {
                // Recovery retransmits this chunk from the replay buffer.
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
        let r = match self.conn.as_mut() {
            Some(conn) => conn.flush().map_err(Error::Io),
            None => Err(Error::WriteClosed),
        };
        if let Err(e) = r {
            self.handle_failure(e)?;
        }
        Ok(())
    }

    /// Appends a marker frame to the replay buffer and transmits it
    /// (best-effort — `wait_acked` recovery retransmits on failure).
    fn send_marker(&mut self, frame: ReplayFrame) {
        let wire = match &frame {
            ReplayFrame::Close { offset } => Frame::Close { offset: *offset },
            ReplayFrame::Redirect { offset, token } => Frame::Redirect {
                token: *token,
                offset: *offset,
            },
            ReplayFrame::Data { .. } => unreachable!("markers only"),
        };
        self.replay.push_back(frame);
        if let Some(conn) = self.conn.as_mut() {
            let _ = write_frame(conn, &wire);
            let _ = conn.flush();
        }
    }

    /// Sees the final `Close` marker acknowledged, then retires the
    /// connection. Runs on a detached linger thread so closing a channel
    /// never blocks the closing process on the reader's progress.
    fn linger_close(&mut self, target: u64) {
        let _ = self.wait_acked(target, true);
        if let Some(conn) = self.conn.as_ref() {
            let _ = conn.get_ref().shutdown(Shutdown::Write);
        }
    }

    /// One watchdog step on an idle sink (see the module docs): drain any
    /// acknowledgements the reader pushed while this sink's process was
    /// parked on some other channel, and if that reveals a dead link,
    /// run an ordinary recovery episode here on the watchdog thread.
    ///
    /// Reconnection is writer-driven, so without this a process that
    /// stops writing for a while never notices its socket died — and an
    /// in-flight frame lost with the connection could only be restored
    /// by a replay that nothing would ever trigger, stalling the reader
    /// (and, transitively, any cycle through it) forever.
    fn pump(&mut self) {
        if !self.policy.enabled || self.peer_stopped || self.interrupted() || self.conn.is_none()
        {
            return;
        }
        if let Err(e) = self.drain_acks() {
            // A failed recovery leaves `conn` empty (so the watchdog does
            // not retry a link whose budget is spent); the terminal error
            // is stashed to surface on the owning process's next write,
            // exactly as if that write had discovered the dead link.
            if let Err(e) = self.handle_failure(e) {
                self.pending_failure = Some(e);
            }
        }
    }
}

/// Resilient sinks the watchdog thread pumps, registered on creation and
/// pruned when the owning facade (or its linger thread) drops the core.
static PUMP_SINKS: Mutex<Vec<std::sync::Weak<Mutex<SinkCore>>>> = Mutex::new(Vec::new());
static PUMP_THREAD: std::sync::Once = std::sync::Once::new();

fn pump_register(core: &Arc<Mutex<SinkCore>>) {
    PUMP_SINKS.lock().push(Arc::downgrade(core));
    PUMP_THREAD.call_once(|| {
        let _ = std::thread::Builder::new()
            .name("kpn-sink-pump".into())
            .spawn(pump_loop);
    });
}

/// The watchdog: every poll interval, give each registered sink whose
/// owner is not actively using it (`try_lock`) one [`SinkCore::pump`]
/// step. A sink mid-recovery on its own fiber is simply skipped, and a
/// recovery episode run *here* blocks only this thread — the owning
/// process keeps running until it next touches the sink, then waits on
/// the lock exactly as if it were performing the recovery itself.
fn pump_loop() {
    loop {
        kpn_core::exec::sleep(RECOVERY_POLL);
        let sinks: Vec<Arc<Mutex<SinkCore>>> = {
            let mut reg = PUMP_SINKS.lock();
            reg.retain(|w| w.strong_count() > 0);
            reg.iter().filter_map(std::sync::Weak::upgrade).collect()
        };
        for sink in sinks {
            if let Some(mut core) = sink.try_lock() {
                core.pump();
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
/// With a [`ReconnectPolicy`] enabled (via the address's installed
/// [`NetProfile`]), the sink retains unacknowledged frames and survives
/// transient link failure by reconnecting and replaying — see the module
/// docs.
pub struct RemoteSink {
    /// Shared with the watchdog thread (and, after close, the linger
    /// thread): the owning process locks it for every operation, the
    /// watchdog only ever `try_lock`s.
    core: Option<Arc<Mutex<SinkCore>>>,
    closed: bool,
}

impl RemoteSink {
    /// Connects to the reader's acceptor and presents `token`, using the
    /// [`NetProfile`] installed for `addr` (plain fail-fast TCP when none
    /// is).
    pub fn connect(addr: &str, token: u64) -> Result<Self> {
        Self::connect_with(addr, token, profile_for(addr))
    }

    /// Connects with an explicit profile.
    pub fn connect_with(addr: &str, token: u64, profile: NetProfile) -> Result<Self> {
        let core = Arc::new(Mutex::new(SinkCore::connect(addr, token, profile)?));
        if core.lock().policy.enabled {
            pump_register(&core);
        }
        Ok(RemoteSink {
            core: Some(core),
            closed: false,
        })
    }

    fn core(&self) -> Result<&Arc<Mutex<SinkCore>>> {
        self.core.as_ref().ok_or(Error::WriteClosed)
    }

    pub(crate) fn set_interruptor(&mut self, interruptor: Arc<Interruptor>) {
        if let Some(core) = self.core.as_ref() {
            let mut core = core.lock();
            if let Some(conn) = core.conn.as_ref() {
                interruptor.attach_transport(&**conn.get_ref());
            }
            core.interruptor = Some(interruptor);
        }
    }

    /// The peer (reader-side) address — the acceptor this sink connected
    /// to, used when shipping the writer endpoint onward.
    pub fn peer_addr(&self) -> Result<SocketAddr> {
        let core = self.core.as_ref().ok_or(Error::WriteClosed)?.lock();
        if let Some(peer) = core.peer {
            return Ok(peer);
        }
        match core.conn.as_ref() {
            Some(conn) => Ok(conn.get_ref().peer_addr()?),
            None => Err(Error::WriteClosed),
        }
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
        let offset = core.sent;
        core.sent += 1;
        if core.policy.enabled {
            core.send_marker(ReplayFrame::Redirect { offset, token });
            let target = core.sent;
            core.wait_acked(target, true)
                .map_err(|e| Error::Disconnected(format!("redirect failed: {e}")))?;
        } else {
            let conn = core.conn.as_mut().ok_or(Error::WriteClosed)?;
            write_frame(conn, &Frame::Redirect { token, offset })
                .map_err(|e| Error::Disconnected(format!("redirect failed: {e}")))?;
            conn.flush().map_err(map_write_err)?;
        }
        if let Some(conn) = core.conn.as_ref() {
            let _ = conn.get_ref().shutdown(Shutdown::Both);
        }
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
        self.core()?.lock().write_chunks(buf)
    }

    fn flush(&mut self) -> Result<()> {
        let mut core = self.core()?.lock();
        let r = match core.conn.as_mut() {
            Some(conn) => conn.flush().map_err(Error::Io),
            None => Err(Error::WriteClosed),
        };
        match r {
            Ok(()) => Ok(()),
            Err(e) => core.handle_failure(e),
        }
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
        let offset = c.sent;
        c.sent += 1;
        if c.policy.enabled && !c.peer_stopped {
            c.send_marker(ReplayFrame::Close { offset });
            let target = c.sent;
            drop(c);
            // The Close marker is only acknowledged once the reader drains
            // to it, which can be arbitrarily later: see it through from a
            // detached thread so closing never blocks this process. (The
            // thread holds the lock throughout, so the watchdog skips the
            // sink; dropping the Arc afterwards prunes it.)
            let _ = std::thread::Builder::new()
                .name("kpn-sink-linger".into())
                .spawn(move || core.lock().linger_close(target));
        } else if let Some(conn) = c.conn.as_mut() {
            let _ = write_frame(conn, &Frame::Close { offset });
            let _ = conn.flush();
            let _ = conn.get_ref().shutdown(Shutdown::Write);
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
/// With a reconnect policy (from the owning acceptor's [`NetProfile`])
/// the source tracks the next stream offset it will deliver, discards
/// replayed duplicate bytes, acknowledges cumulatively, and on transient
/// link failure re-registers its token and adopts the writer's
/// replacement connection — see the module docs.
pub struct RemoteSource {
    stream: BufReader<Box<dyn Transport>>,
    /// The local acceptor, needed to honour `Redirect` frames and to
    /// re-listen during recovery.
    acceptor: Option<Arc<Acceptor>>,
    /// Abort-interruption handle, kept pointing at the live transport.
    interruptor: Option<Arc<Interruptor>>,
    policy: ReconnectPolicy,
    /// The endpoint token this source listens under (0 = unknown: no
    /// recovery possible).
    token: u64,
    /// Bytes left to stream from the current `Data` frame.
    remaining: usize,
    /// Leading duplicate bytes of the current frame to discard (replayed
    /// data the channel has already delivered).
    skip: usize,
    /// Next stream offset to deliver.
    expected: u64,
    /// Bytes delivered since the last acknowledgement.
    unacked: u64,
    /// Set when an ack write failed mid-frame: the ack direction may
    /// carry a partial frame the writer's parser cannot resynchronize
    /// from, so the connection has been shut down and the next read must
    /// go straight to recovery instead of the idle wait.
    ack_poisoned: bool,
    closed: bool,
}

impl RemoteSource {
    pub(crate) fn adopt(
        transport: Box<dyn Transport>,
        acceptor: Option<Arc<Acceptor>>,
        interruptor: Option<Arc<Interruptor>>,
        policy: ReconnectPolicy,
        token: u64,
    ) -> Self {
        // Accepted connections arrive unwrapped (the acceptor's factory
        // knows nothing about executors); make their waits fiber-aware.
        let transport = crate::rio::wrap(transport);
        if let Some(i) = &interruptor {
            i.attach_transport(&*transport);
        }
        let _ = transport.set_op_timeout(policy.op_timeout);
        let mut source = RemoteSource {
            stream: BufReader::new(transport),
            acceptor,
            interruptor,
            policy,
            token,
            remaining: 0,
            skip: 0,
            expected: 0,
            unacked: 0,
            ack_poisoned: false,
            closed: false,
        };
        if source.policy.enabled {
            // Adoption ack: a writer already in recovery is waiting for
            // our resume offset; a fresh writer drains it harmlessly. A
            // failure here cannot be ignored: the frame may be partially
            // written, and the reader would otherwise settle into the idle
            // wait while the writer blocks on an ack that can never parse.
            if source.send_ack().is_err() {
                source.retire_ack_channel();
            }
        }
        source
    }

    /// Shuts the connection down after a failed ack write. An ack frame
    /// that errored mid-write may sit partially on the wire, and the
    /// writer's ack parser has no way to resynchronize past it — so the
    /// only safe move is to kill the connection (the writer's pending
    /// handshake sees EOF at once and reconnects) and route this source's
    /// next read into recovery.
    fn retire_ack_channel(&mut self) {
        let _ = self.stream.get_ref().shutdown(Shutdown::Both);
        self.ack_poisoned = true;
    }

    /// Writes `Ack{expected}` on the reverse direction of the transport.
    fn send_ack(&mut self) -> Result<()> {
        let t = self.stream.get_mut();
        write_frame(
            t,
            &Frame::Ack {
                offset: self.expected,
            },
        )?;
        t.flush()?;
        self.unacked = 0;
        Ok(())
    }

    fn ack_progress(&mut self, delivered: usize) {
        if !self.policy.enabled {
            return;
        }
        self.unacked += delivered as u64;
        if self.unacked >= ACK_EVERY {
            // A failed ack is not merely "link died" (where the next read
            // would fail anyway): a fault can interrupt the frame mid-write
            // while the link stays up, leaving the ack stream garbled.
            // Retire the connection so recovery resynchronizes both sides.
            if self.send_ack().is_err() {
                self.retire_ack_channel();
            }
        }
    }

    /// Marks this endpoint deliberately finished: acknowledge the final
    /// marker and poison the token so a recovering writer receives `Stop`
    /// instead of retrying forever.
    fn finish_deliberate(&mut self) {
        if self.policy.enabled {
            let _ = self.send_ack();
        }
        if self.token != 0 {
            if let Some(a) = &self.acceptor {
                a.unregister(self.token);
            }
        }
    }

    fn try_read(&mut self, buf: &mut [u8]) -> Result<SourceRead> {
        if self.ack_poisoned {
            // A failed ack write retired this connection (see
            // `retire_ack_channel`); skip the idle wait and reconnect.
            self.ack_poisoned = false;
            return Err(Error::Eof);
        }
        loop {
            if self.remaining > 0 {
                if self.skip > 0 {
                    // Replayed duplicate prefix: consume and discard.
                    let mut scratch = [0u8; 1024];
                    let n = self.skip.min(scratch.len());
                    let got = self.stream.read(&mut scratch[..n])?;
                    if got == 0 {
                        return Err(Error::Disconnected("peer vanished mid-frame".into()));
                    }
                    self.skip -= got;
                    self.remaining -= got;
                    continue;
                }
                let n = buf.len().min(self.remaining);
                let got = self.stream.read(&mut buf[..n])?;
                if got == 0 {
                    return Err(Error::Disconnected("peer vanished mid-frame".into()));
                }
                self.remaining -= got;
                self.expected += got as u64;
                self.ack_progress(got);
                return Ok(SourceRead::Data(got));
            }
            // Waiting for the next frame's tag byte is the *idle* position:
            // a read timeout here means the channel simply has no data
            // (Kahn-legal, possibly forever), not that the link is sick, so
            // we keep waiting instead of tearing the connection down. A
            // timeout *inside* a frame (header tail or payload, above and
            // below) is different — the writer started a frame and stalled —
            // and propagates as a transient error into recovery, which is
            // safe because replay re-sends the whole frame.
            let tag = loop {
                let mut tag = [0u8; 1];
                match self.stream.read(&mut tag) {
                    Ok(0) => {
                        return Err(Error::Disconnected(
                            "connection closed without Close frame".into(),
                        ))
                    }
                    Ok(_) => break tag[0],
                    Err(ref e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::TimedOut
                                | io::ErrorKind::WouldBlock
                                | io::ErrorKind::Interrupted
                        ) =>
                    {
                        if let Some(i) = &self.interruptor {
                            if i.is_interrupted() {
                                return Err(Error::WriteClosed);
                            }
                        }
                        continue;
                    }
                    Err(e) => return Err(e.into()),
                }
            };
            match parse_frame_header(tag, &mut self.stream)? {
                FrameHeader::Data { len: 0, .. } => continue,
                FrameHeader::Data { len, offset } => {
                    if offset > self.expected {
                        return Err(Error::Graph(format!(
                            "stream gap: data at offset {offset}, expected {}",
                            self.expected
                        )));
                    }
                    self.remaining = len;
                    self.skip = ((self.expected - offset) as usize).min(len);
                }
                FrameHeader::Close { offset } => {
                    if offset > self.expected {
                        return Err(Error::Graph(format!(
                            "stream gap: close at offset {offset}, expected {}",
                            self.expected
                        )));
                    }
                    self.expected = offset + 1;
                    self.finish_deliberate();
                    return Ok(SourceRead::End);
                }
                FrameHeader::Redirect { token, offset } => {
                    if offset > self.expected {
                        return Err(Error::Graph(format!(
                            "stream gap: redirect at offset {offset}, expected {}",
                            self.expected
                        )));
                    }
                    self.expected = offset + 1;
                    let acceptor = self.acceptor.clone().ok_or_else(|| {
                        Error::Graph("redirect received but node has no acceptor".into())
                    })?;
                    if self.policy.enabled {
                        let _ = self.send_ack();
                    }
                    if self.token != 0 {
                        // The old writer endpoint is done with this token:
                        // poison it so its recovering connects see `Stop`
                        // (= the marker arrived) instead of retrying.
                        acceptor.unregister(self.token);
                    }
                    let source =
                        PendingSource::listen_with(&acceptor, token, self.interruptor.clone());
                    return Ok(SourceRead::Splice(ChannelReader::from_source(Box::new(
                        source,
                    ))));
                }
                FrameHeader::Ack { .. } | FrameHeader::Stop => {
                    return Err(Error::Graph(
                        "unexpected ack/stop frame on data direction".into(),
                    ));
                }
            }
        }
    }

    /// One reader recovery episode: retire the broken transport (waking a
    /// writer whose half was still healthy), re-register the token, adopt
    /// the writer's replacement connection, and acknowledge the resume
    /// offset on it.
    fn recover(&mut self) -> Result<()> {
        let acceptor = match &self.acceptor {
            Some(a) if self.token != 0 => a.clone(),
            _ => {
                return Err(Error::Disconnected(
                    "link failed and endpoint cannot re-listen".into(),
                ))
            }
        };
        let guard = RecoveryGuard::enter();
        let _ = self.stream.get_ref().shutdown(Shutdown::Both);
        let mut budget = RecoveryBudget::new(&self.policy);
        let mut pending = acceptor.register(self.token);
        if let Some(i) = &self.interruptor {
            i.attach_pending(&acceptor, self.token);
        }
        loop {
            if self
                .interruptor
                .as_ref()
                .is_some_and(|i| i.is_interrupted())
            {
                return Err(Error::Disconnected("aborted while reconnecting".into()));
            }
            match pending.wait(Some(RECOVERY_POLL))? {
                Some(transport) => {
                    guard.attempt();
                    let transport = crate::rio::wrap(transport);
                    let _ = transport.set_op_timeout(self.policy.op_timeout);
                    if let Some(i) = &self.interruptor {
                        i.attach_transport(&*transport);
                    }
                    self.stream = BufReader::new(transport);
                    self.remaining = 0;
                    self.skip = 0;
                    match self.send_ack() {
                        Ok(()) => return Ok(()),
                        Err(_) => {
                            // The adopted connection died immediately:
                            // retire it and keep listening. Charging one
                            // poll interval bounds how many dead adoptions
                            // one episode tolerates.
                            let _ = self.stream.get_ref().shutdown(Shutdown::Both);
                            budget.charge(RECOVERY_POLL);
                            if budget.exhausted() {
                                return Err(self.budget_error());
                            }
                            pending = acceptor.register(self.token);
                            if let Some(i) = &self.interruptor {
                                i.attach_pending(&acceptor, self.token);
                            }
                        }
                    }
                }
                None => {
                    budget.charge(RECOVERY_POLL);
                    if budget.exhausted() {
                        return Err(self.budget_error());
                    }
                }
            }
        }
    }

    fn budget_error(&self) -> Error {
        Error::Disconnected(format!(
            "reconnect budget exhausted: no replacement connection for token {:#x} \
             ({} stream units delivered)",
            self.token, self.expected
        ))
    }
}

impl Source for RemoteSource {
    fn read(&mut self, buf: &mut [u8]) -> Result<SourceRead> {
        // A socket read can block indefinitely: publish this task's
        // buffered output first (the publish-before-wait rule of
        // `kpn_core::flush`). Under a `MonitoredSource` the registration
        // has already published — it must, a flush may not block inside a
        // registration — and this finds nothing; a bare remote reader has
        // no one else to do it.
        kpn_core::flush::flush_before_block();
        loop {
            match self.try_read(buf) {
                Ok(r) => return Ok(r),
                Err(e) if self.policy.enabled && !self.closed && link_failure(&e) => {
                    self.recover()?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn close(&mut self) {
        self.closed = true;
        if self.token != 0 {
            if let Some(a) = &self.acceptor {
                // Deliberate close: a recovering writer gets `Stop` and
                // cascades instead of retrying against a gone reader.
                a.unregister(self.token);
            }
        }
        let _ = self.stream.get_ref().shutdown(Shutdown::Both);
    }
}

/// A read endpoint whose data connection has not arrived yet — the
/// listening state of the automatic connection establishment (§4.2) and of
/// the `RedirectedInputStream` (§4.3). The first read blocks until the
/// connection shows up, then splices in a [`RemoteSource`].
pub struct PendingSource {
    pending: PendingConn,
    token: u64,
    acceptor: Arc<Acceptor>,
    interruptor: Option<Arc<Interruptor>>,
}

impl PendingSource {
    /// Registers `token` at the node's acceptor and returns the endpoint.
    pub fn listen(acceptor: &Arc<Acceptor>, token: u64) -> Self {
        Self::listen_with(acceptor, token, None)
    }

    /// Like [`PendingSource::listen`], with an abort-interruption handle
    /// that stays attached through connection arrival, redirects, and
    /// reconnects.
    pub fn listen_with(
        acceptor: &Arc<Acceptor>,
        token: u64,
        interruptor: Option<Arc<Interruptor>>,
    ) -> Self {
        if let Some(i) = &interruptor {
            i.attach_pending(acceptor, token);
        }
        PendingSource {
            pending: acceptor.register(token),
            token,
            acceptor: acceptor.clone(),
            interruptor,
        }
    }
}

impl Source for PendingSource {
    fn read(&mut self, _buf: &mut [u8]) -> Result<SourceRead> {
        // Waiting for a connection is a blocking read: publish first so the
        // peer (who may need our buffered output to make progress before
        // connecting back) can proceed — a no-op under a `MonitoredSource`,
        // as in `RemoteSource::read`. The wait parks a fiber and blocks an
        // OS thread.
        kpn_core::flush::flush_before_block();
        match self.pending.wait(None)? {
            Some(transport) => {
                let policy = self.acceptor.profile().policy.clone();
                let source = RemoteSource::adopt(
                    transport,
                    Some(self.acceptor.clone()),
                    self.interruptor.clone(),
                    policy,
                    self.token,
                );
                Ok(SourceRead::Splice(ChannelReader::from_source(Box::new(
                    source,
                ))))
            }
            None => unreachable!("a wait without a deadline does not time out"),
        }
    }

    fn close(&mut self) {
        self.acceptor.unregister(self.token);
    }
}

/// Wraps a remote read endpoint so blocking reads register with the
/// network's deadlock monitor as *external* blocks (§6.2): they count
/// toward all-blocked detection and cluster snapshots, but can never cause
/// a local true-deadlock abort, because the monitor cannot see whether
/// data is in flight on the wire.
pub fn monitored_reader(inner: ChannelReader, monitor: Arc<Monitor>) -> ChannelReader {
    ChannelReader::from_source(Box::new(MonitoredSource { inner, monitor }))
}

struct MonitoredSource {
    inner: ChannelReader,
    monitor: Arc<Monitor>,
}

impl Source for MonitoredSource {
    fn read(&mut self, buf: &mut [u8]) -> Result<SourceRead> {
        // `external_block` publishes the task's buffered output before it
        // registers, so nothing below can block on a local channel (and
        // register a second time) while the guard is held.
        let _guard = self.monitor.external_block(BlockKind::Read)?;
        match self.inner.read(buf)? {
            0 => Ok(SourceRead::End),
            n => Ok(SourceRead::Data(n)),
        }
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

/// Wraps a remote write endpoint so blocking writes (TCP backpressure)
/// register with the deadlock monitor as external blocks; see
/// [`monitored_reader`].
pub fn monitored_writer(inner: ChannelWriter, monitor: Arc<Monitor>) -> ChannelWriter {
    ChannelWriter::from_sink(Box::new(MonitoredSink { inner, monitor }))
}

struct MonitoredSink {
    inner: ChannelWriter,
    monitor: Arc<Monitor>,
}

impl Sink for MonitoredSink {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        let _guard = self.monitor.external_block(BlockKind::Write)?;
        self.inner.write_all(buf)
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

/// Creates the write end of a cross-server channel: connects to the
/// reader's node and presents the endpoint token.
pub fn remote_writer(addr: &str, token: u64) -> Result<ChannelWriter> {
    Ok(ChannelWriter::from_sink(Box::new(RemoteSink::connect(
        addr, token,
    )?)))
}

/// Creates the read end of a cross-server channel: listens (via the node's
/// acceptor) for the connection presenting `token`.
pub fn remote_reader(acceptor: &Arc<Acceptor>, token: u64) -> ChannelReader {
    ChannelReader::from_source(Box::new(PendingSource::listen(acceptor, token)))
}

/// Like [`remote_reader`], returning the [`Interruptor`] that can wake a
/// blocked read from outside (used by network abort hooks).
pub fn remote_reader_interruptible(
    acceptor: &Arc<Acceptor>,
    token: u64,
) -> (ChannelReader, Arc<Interruptor>) {
    let interruptor = Interruptor::new();
    let source = PendingSource::listen_with(acceptor, token, Some(interruptor.clone()));
    (ChannelReader::from_source(Box::new(source)), interruptor)
}

/// Like [`remote_writer`], returning the [`Interruptor`] that can wake a
/// blocked write from outside.
pub fn remote_writer_interruptible(
    addr: &str,
    token: u64,
) -> Result<(ChannelWriter, Arc<Interruptor>)> {
    let mut sink = RemoteSink::connect(addr, token)?;
    let interruptor = Interruptor::new();
    sink.set_interruptor(interruptor.clone());
    Ok((ChannelWriter::from_sink(Box::new(sink)), interruptor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{install_profile, remove_profile, TcpFactory};
    use kpn_core::{DataReader, DataWriter};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn node() -> Arc<Acceptor> {
        Acceptor::bind("127.0.0.1:0").unwrap()
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
        let profile = NetProfile {
            factory: Arc::new(TcpFactory),
            policy: ReconnectPolicy::resilient(),
        };
        let b = Acceptor::bind_with("127.0.0.1:0", profile.clone()).unwrap();
        let addr = b.local_addr().to_string();
        install_profile(addr.clone(), profile);
        let token = fresh_token();
        let mut reader = remote_reader(&b, token);
        let mut writer = remote_writer(&addr, token).unwrap();
        writer.write_all(b"resilient").unwrap();
        let mut buf = [0u8; 9];
        reader.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"resilient");
        drop(writer); // close() hands the Close marker to a linger thread
        assert_eq!(reader.read(&mut buf).unwrap(), 0);
        remove_profile(&addr);
    }

    #[test]
    fn resilient_large_transfer_with_acks() {
        // Push more than the replay capacity through so the ack-driven
        // trimming and capacity waits actually run.
        let mut policy = ReconnectPolicy::resilient();
        policy.replay_capacity = 96 * 1024;
        let profile = NetProfile {
            factory: Arc::new(TcpFactory),
            policy,
        };
        let b = Acceptor::bind_with("127.0.0.1:0", profile.clone()).unwrap();
        let addr = b.local_addr().to_string();
        install_profile(addr.clone(), profile);
        let token = fresh_token();
        let mut reader = remote_reader(&b, token);
        let mut writer = remote_writer(&addr, token).unwrap();
        let data: Vec<u8> = (0..400_000u32).map(|i| (i % 239) as u8).collect();
        let expect = data.clone();
        let h = std::thread::spawn(move || {
            writer.write_all(&data).unwrap();
        });
        let mut got = vec![0u8; expect.len()];
        reader.read_exact(&mut got).unwrap();
        h.join().unwrap();
        assert_eq!(got, expect);
        remove_profile(&addr);
    }

    /// TCP whose writer-side connections count the `write`s they make:
    /// behind [`RemoteSink`]'s `BufWriter` one flushed frame, header and
    /// payload, is one of them.
    struct CountingFactory(Arc<AtomicUsize>);

    struct CountedTransport {
        inner: Box<dyn Transport>,
        writes: Arc<AtomicUsize>,
    }

    impl TransportFactory for CountingFactory {
        fn connect(&self, addr: &str, token: u64) -> Result<Box<dyn Transport>> {
            Ok(Box::new(CountedTransport {
                inner: TcpFactory.connect(addr, token)?,
                writes: self.0.clone(),
            }))
        }
        fn wrap_accepted(&self, stream: TcpStream, token: u64) -> Box<dyn Transport> {
            TcpFactory.wrap_accepted(stream, token)
        }
    }

    impl Read for CountedTransport {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
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
        fn shutdown(&self, how: Shutdown) -> io::Result<()> {
            self.inner.shutdown(how)
        }
        fn peer_addr(&self) -> io::Result<SocketAddr> {
            self.inner.peer_addr()
        }
        fn shutdown_handle(&self) -> Option<TcpStream> {
            self.inner.shutdown_handle()
        }
        fn set_op_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
            self.inner.set_op_timeout(timeout)
        }
        fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
            self.inner.set_nonblocking(nonblocking)
        }
        fn raw_fd(&self) -> Option<i32> {
            self.inner.raw_fd()
        }
        fn retry_write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.inner.retry_write(buf)
        }
    }

    /// A partition whose only outlet is a socket: `Sequence -> L -> Scale ->`
    /// a monitored remote writer, drained by the test thread. Returns the
    /// monitor's view and how many writes the writer's socket saw.
    fn drive_partition_over(
        tokens: u64,
        policy: ReconnectPolicy,
    ) -> (kpn_core::MonitorStats, usize) {
        use kpn_core::stdlib::{Scale, Sequence};
        let writes = Arc::new(AtomicUsize::new(0));
        let profile = NetProfile {
            factory: Arc::new(CountingFactory(writes.clone())),
            policy,
        };
        let b = Acceptor::bind_with("127.0.0.1:0", profile.clone()).unwrap();
        let addr = b.local_addr().to_string();
        install_profile(addr.clone(), profile);
        let token = fresh_token();
        let reader = remote_reader(&b, token);
        let net = kpn_core::Network::new();
        let (w0, r0) = net.channel();
        let out = remote_writer(&addr, token).unwrap();
        net.add(Sequence::new(0, tokens, w0));
        net.add(Scale::new(3, r0, monitored_writer(out, net.monitor().clone())));
        net.start();
        let mut dr = DataReader::new(reader);
        for i in 0..tokens as i64 {
            assert_eq!(dr.read_i64().unwrap(), 3 * i);
        }
        assert!(dr.read_i64().is_err());
        let stats = net.join().unwrap().monitor;
        remove_profile(&addr);
        (stats, writes.load(Ordering::SeqCst))
    }

    fn drive_partition(tokens: u64) -> kpn_core::MonitorStats {
        drive_partition_over(tokens, ReconnectPolicy::default()).0
    }

    #[test]
    fn a_streaming_writer_shares_frames_between_steps() {
        // `Scale`'s steps are a fraction of what a frame costs to send, so
        // each publish opens a window many steps long (`kpn_core::flush`,
        // clause 5) and the next frame carries them all: the history is
        // exact and the socket sees tens of tokens per write, where a flush
        // at every step boundary sent one frame per token.
        const TOKENS: u64 = 100_000;
        for policy in [ReconnectPolicy::default(), ReconnectPolicy::resilient()] {
            let (stats, writes) = drive_partition_over(TOKENS, policy.clone());
            assert!(
                writes < TOKENS as usize / 10,
                "{writes} socket writes for {TOKENS} tokens ({policy:?})"
            );
            assert_eq!(stats.capacity_grows, 0, "{:?}", stats.growth_log);
        }
    }

    #[test]
    fn a_remote_writer_that_never_waits_grows_nothing_behind_it() {
        // `Sequence` is parked on the full `L` nearly all the time, and
        // `Scale` registers with the monitor around every socket write, so
        // every token completes an all-blocked picture with nobody stuck.
        // When the registrant slept the settle itself, each one confirmed
        // itself and `L` doubled until it held all of `Sequence`'s output.
        let stats = drive_partition(20_000);
        assert_eq!(stats.capacity_grows, 0, "{:?}", stats.growth_log);
        assert_eq!(stats.true_deadlocks, 0);
    }

    #[test]
    fn a_remote_reader_that_does_wait_still_gets_the_local_channel_grown() {
        // The distributed artificial deadlock: the producer must put 64
        // bytes into a 32-byte `L` before it sends the byte its consumer is
        // waiting for on the socket, and the consumer reads `L` only after
        // that byte. The consumer's registration completes the picture and
        // leaves it alone; the producer's detection tick grows `L`.
        let b = node();
        let token = fresh_token();
        let net = kpn_core::Network::new();
        let monitor = net.monitor().clone();
        let (mut l_w, mut l_r) = net.channel_with_capacity(32);
        let go_r = monitored_reader(remote_reader(&b, token), monitor.clone());
        let go_w = remote_writer(&b.local_addr().to_string(), token).unwrap();
        let mut go_w = monitored_writer(go_w, monitor);
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
}
