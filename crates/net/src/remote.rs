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
//! found not ready, or a pending connection ([`PendingSource`]). A read or
//! write that finds its socket ready never registers, so a remote endpoint
//! is never counted as blocked while it is moving bytes (DESIGN.md §4c).
//! Off Linux x86_64, with no fibers and no readiness check, a read or
//! write registers for its whole length instead.

use crate::acceptor::{fresh_token, Acceptor, PendingConn};
use crate::frame::{
    parse_frame_header, write_data_frame, write_frame, AckEvent, AckParser, Frame, FrameHeader,
};
use crate::probe::{CutEnd, CutSide};
use crate::transport::{
    NetProfile, ReconnectPolicy, RecoveryGuard, SplitMix64, Transport, TransportFactory,
};
use kpn_core::exec::reactor::Interest;
use kpn_core::{
    ChannelReader, ChannelWriter, Error, Exec, Result, Sink, Source, SourceRead, ThreadExec,
};
use parking_lot::{Mutex, MutexGuard};
use std::collections::VecDeque;
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// What is left of one recovery episode's budget, charged in *nominal*
/// time: each wait subtracts the duration it asked for (the backoff delay,
/// the poll interval) rather than the wall-clock time it actually took. A
/// loaded machine therefore performs exactly as many reconnect attempts as
/// an idle one before giving up — the chaos suite's fault schedules are
/// op-count based and rely on that; wall-clock deadlines made episode
/// length (and thus which operation a schedule's n-th fault landed on
/// after an early give-up) depend on scheduler noise. Starts at the
/// policy's `budget`; spent once zero.
type RecoveryBudget = Duration;

/// A writer's recovery episode under way, kept between the steps of
/// [`SinkCore::recover_step`].
struct Episode {
    budget: RecoveryBudget,
    attempt: u32,
    /// A fresh connection still waiting for its resume ack.
    fresh: Option<BufWriter<Box<dyn Transport>>>,
    guard: RecoveryGuard,
}

fn map_write_err(e: io::Error) -> Error {
    use std::io::ErrorKind::*;
    match e.kind() {
        BrokenPipe | ConnectionReset | ConnectionAborted | NotConnected => Error::WriteClosed,
        _ => Error::Io(e),
    }
}

/// Transient-link classification for errors surfacing on an endpoint's
/// data path: `true` means the link may heal (reset, abort, timeout,
/// refusal, EOF mid-stream, a transport's `Disconnected`); `false` means a
/// local or logic error that must not be retried. `Eof`/`WriteClosed` are
/// included because `From<io::Error> for Error` folds
/// `UnexpectedEof`/`BrokenPipe` into them before we see the I/O kind; on a
/// *transport* operation they mean the connection died, not that the
/// stream ended (graceful end is a `Close` frame, never a socket error).
fn link_failure(e: &Error) -> bool {
    use io::ErrorKind::*;
    match e {
        Error::Eof | Error::WriteClosed | Error::Disconnected(_) => true,
        Error::Io(io) => matches!(
            io.kind(),
            ConnectionReset
                | ConnectionAborted
                | ConnectionRefused
                | BrokenPipe
                | NotConnected
                | UnexpectedEof
                | TimedOut
                | WouldBlock
                | Interrupted
        ),
        _ => false,
    }
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

/// The movable state of a [`RemoteSink`]: connection, stream accounting,
/// and replay buffer. Separated from the `Sink` facade so a deliberate
/// close can leave the state with the watchdog, which sees the final
/// `Close` marker acknowledged (reconnecting if needed) without blocking
/// the closing process.
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
    /// The frames retained for replay until acknowledged: data and markers.
    replay: VecDeque<Frame>,
    replay_bytes: usize,
    acks: AckParser,
    rng: SplitMix64,
    /// Set by a resilient close to the offset just past its `Close`
    /// marker: the watchdog owns the sink until it finishes it.
    closing: Option<u64>,
    /// A recovery the watchdog has stepped but not finished; `conn` is
    /// empty meanwhile, so the owner's next operation finishes it.
    episode: Option<Episode>,
}

impl SinkCore {
    fn connect(addr: &str, token: u64, profile: NetProfile) -> Result<Self> {
        let (factory, policy) = (profile.factory, profile.policy);
        let mut rng = SplitMix64(token ^ 0x005E_ED0F_5EED);
        let mut budget: RecoveryBudget = policy.budget;
        let mut attempt: u32 = 0;
        let transport = loop {
            match factory.connect(addr, token) {
                Ok(t) => break crate::rio::wrap(t),
                Err(e) if policy.enabled && link_failure(&e) && !budget.is_zero() => {
                    let delay = policy.backoff(attempt, &mut rng);
                    attempt = attempt.saturating_add(1);
                    budget = budget.saturating_sub(delay);
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
            closing: None,
            episode: None,
        })
    }

    fn interrupted(&self) -> bool {
        self.interruptor
            .as_ref()
            .is_some_and(|i| i.is_interrupted())
    }

    fn conn(&mut self) -> Result<&mut BufWriter<Box<dyn Transport>>> {
        self.conn.as_mut().ok_or(Error::WriteClosed)
    }

    /// Flushes the connection; a failure goes to [`Self::handle_failure`].
    fn flush(&mut self) -> Result<()> {
        let flushed = self.conn().and_then(|c| c.flush().map_err(Error::Io));
        flushed.or_else(|e| self.handle_failure(e))
    }

    /// Assigns the next `len` stream units, returning the offset of the
    /// first, and records how far the stream has got in the interruptor.
    fn take_offset(&mut self, len: u64) -> u64 {
        let offset = self.sent;
        self.sent += len;
        if let Some(i) = &self.interruptor {
            i.record(self.token, self.sent);
        }
        offset
    }

    /// Drops fully acknowledged replay entries and trims the acknowledged
    /// prefix of a partially acknowledged `Data` frame.
    fn trim_replay(&mut self) {
        while let Some(front) = self.replay.front_mut() {
            match front {
                Frame::Data { offset, bytes } => {
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
                Frame::Close { offset }
                | Frame::Redirect { offset, .. }
                | Frame::Ack { offset } => {
                    if *offset < self.acked {
                        self.replay.pop_front();
                    } else {
                        break;
                    }
                }
            }
        }
    }

    /// The one reader of the connection's reverse direction. Flushes, then
    /// takes in the acknowledgements and `Stop` notices the reader sent:
    /// with `wait`, one read that may wait that long; without, whatever has
    /// arrived, never waiting. Returns whether any arrived. Events read
    /// before a failure still count, so an ack followed by EOF is seen.
    /// An ack past what was sent is a protocol error, not a link fault:
    /// no recovery mends it.
    fn read_acks(&mut self, wait: Option<Duration>) -> Result<bool> {
        let conn = self.conn.as_mut().ok_or(Error::WriteClosed)?;
        conn.flush()?;
        let t = conn.get_ref();
        match wait {
            Some(poll) => t.set_op_timeout(Some(poll))?,
            None => t.set_nonblocking(true)?,
        }
        let mut tmp = [0u8; 256];
        let mut events = Vec::new();
        let read = loop {
            match conn.get_mut().read(&mut tmp) {
                Ok(0) => {
                    break Err(Error::Disconnected(
                        "connection closed while reading acks".into(),
                    ))
                }
                Ok(n) => match self.acks.feed(&tmp[..n], |ev| events.push(ev)) {
                    Err(e) => break Err(e),
                    Ok(()) if wait.is_some() => break Ok(()),
                    Ok(()) => {}
                },
                Err(e) if e.kind() == Interrupted => {}
                Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => break Ok(()),
                Err(e) => break Err(e.into()),
            }
        };
        let t = conn.get_ref();
        let _ = match wait {
            Some(_) => t.set_op_timeout(self.policy.op_timeout),
            None => t.set_nonblocking(false),
        };
        for ev in &events {
            match *ev {
                AckEvent::Ack(off) if off > self.sent => {
                    return Err(Error::Graph(format!(
                        "ack at offset {off} past the {} stream units sent (token {:#x})",
                        self.sent, self.token
                    )));
                }
                AckEvent::Ack(off) => self.acked = self.acked.max(off),
                AckEvent::Stop => self.peer_stopped = true,
            }
        }
        self.trim_replay();
        read.map(|()| !events.is_empty())
    }

    /// Routes a failed transport operation: transient link failures enter
    /// recovery (the replay buffer retransmits whatever the failed
    /// operation was sending); everything else maps to the fail-fast
    /// semantics of the policy-disabled path.
    fn handle_failure(&mut self, e: Error) -> Result<()> {
        self.recoverable(e)?;
        self.recover()
    }

    /// `Ok` for a transient link failure, which recovery may mend; any
    /// other failure comes back mapped to the fail-fast semantics.
    fn recoverable(&self, e: Error) -> Result<()> {
        if self.policy.enabled && !self.peer_stopped && !self.interrupted() && link_failure(&e) {
            Ok(())
        } else {
            Err(match e {
                Error::Io(io) => map_write_err(io),
                other => other,
            })
        }
    }

    /// One recovery episode, step after step: reconnect with backoff +
    /// jitter under the policy budget, handshake for the reader's resume
    /// acknowledgement, and retransmit the unacknowledged suffix.
    fn recover(&mut self) -> Result<()> {
        while !self.recover_step()? {}
        Ok(())
    }

    /// One step of the recovery episode under way, or of a new one: at
    /// most one backoff and reconnect, then one wait of `RECOVERY_POLL` on
    /// the fresh connection for the reader's resume `Ack` (sent when the
    /// reader adopts the connection) or a `Stop`. `Ok(true)`: resumed, the
    /// replay buffer trimmed to the ack and the rest retransmitted.
    /// `Ok(false)`: not yet. The owner steps again at once; the watchdog on
    /// its next pass, so a sink whose reader is slow to answer holds up
    /// the others' pumping for a step, not for its whole budget.
    fn recover_step(&mut self) -> Result<bool> {
        let mut episode = match self.episode.take() {
            Some(episode) => episode,
            None => {
                if let Some(conn) = self.conn.take() {
                    let _ = conn.get_ref().shutdown(Shutdown::Both);
                }
                Episode {
                    budget: self.policy.budget,
                    attempt: 0,
                    fresh: None,
                    guard: RecoveryGuard::enter(),
                }
            }
        };
        let stepped = self.step(&mut episode);
        if let Ok(false) = stepped {
            self.episode = Some(episode);
        }
        stepped
    }

    fn step(&mut self, ep: &mut Episode) -> Result<bool> {
        if self.interrupted() || self.peer_stopped {
            return Err(Error::WriteClosed);
        }
        if ep.fresh.is_none() {
            if ep.attempt > 0 {
                let delay = self.policy.backoff(ep.attempt - 1, &mut self.rng);
                ep.budget = ep.budget.saturating_sub(delay);
                kpn_core::exec::sleep(delay);
            }
            if ep.budget.is_zero() {
                return Err(Error::Disconnected(format!(
                    "reconnect budget exhausted after {} attempts \
                     (token {:#x}, {} unacked bytes)",
                    ep.attempt, self.token, self.replay_bytes
                )));
            }
            ep.guard.attempt();
            ep.attempt = ep.attempt.saturating_add(1);
            let transport = match self.factory.connect(&self.addr, self.token) {
                Ok(t) => crate::rio::wrap(t),
                Err(e) if link_failure(&e) => return Ok(false),
                Err(e) => return Err(e),
            };
            if let Some(i) = &self.interruptor {
                i.attach_transport(&*transport);
            }
            ep.fresh = Some(BufWriter::with_capacity(SINK_BUFFER, transport));
            self.acks = AckParser::default();
        }
        if ep.budget.is_zero() {
            return Err(Error::Disconnected(
                "no resume ack within reconnect budget".into(),
            ));
        }
        // Installed to be read through the one ack reader; it stays once
        // the link has resumed.
        self.conn = ep.fresh.take();
        let failure = match self.read_acks(Some(RECOVERY_POLL)) {
            Ok(_) if self.peer_stopped => Error::WriteClosed,
            Ok(true) => match self.transmit_replay() {
                Ok(()) => return Ok(true),
                Err(e) => e,
            },
            Ok(false) => {
                ep.budget = ep.budget.saturating_sub(RECOVERY_POLL);
                ep.fresh = self.conn.take();
                return Ok(false);
            }
            Err(e) => e,
        };
        if let Some(conn) = self.conn.take() {
            let _ = conn.get_ref().shutdown(Shutdown::Both);
        }
        if link_failure(&failure) && !self.peer_stopped {
            Ok(false)
        } else {
            Err(failure)
        }
    }

    /// Retransmits every retained frame on the current connection.
    fn transmit_replay(&mut self) -> Result<()> {
        let conn = self.conn.as_mut().ok_or(Error::WriteClosed)?;
        for frame in &self.replay {
            write_frame(conn, frame)?;
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
        // first (same publish-before-wait rule as local channels).
        kpn_core::flush::flush_before_block();
        let through = |core: &Self| core.acked >= target || (marker_wait && core.peer_stopped);
        loop {
            if through(self) {
                return Ok(());
            }
            if self.peer_stopped || self.interrupted() {
                return Err(Error::WriteClosed);
            }
            // Garbage on the ack stream counts as a link fault.
            let failure = match self.read_acks(Some(RECOVERY_POLL)) {
                Err(e) if !through(self) => e,
                _ => continue,
            };
            if let Err(e) = self.handle_failure(failure) {
                if !through(self) {
                    return Err(e);
                }
            }
        }
    }

    fn write_chunks(&mut self, buf: &[u8]) -> Result<()> {
        if let Some(e) = self.pending_failure.take() {
            return Err(e);
        }
        if self.peer_stopped {
            return Err(Error::WriteClosed);
        }
        if self.policy.enabled {
            if let Err(e) = self.read_acks(None) {
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
                self.replay.push_back(Frame::Data {
                    offset: self.sent,
                    bytes: chunk.to_vec(),
                });
                self.replay_bytes += chunk.len();
            }
            let offset = self.take_offset(chunk.len() as u64);
            if let Err(e) = self.conn().and_then(|c| write_data_frame(c, chunk, offset)) {
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
        self.flush()
    }

    /// Sends a `Close`/`Redirect` marker. A resilient sink keeps it for
    /// replay and leaves a failed write to the recovery of whatever sees
    /// the marker through ([`Self::wait_acked`], the watchdog); a plain
    /// sink gets the failure back.
    fn send_marker(&mut self, frame: Frame) -> Result<()> {
        let sent = self.conn().and_then(|c| {
            write_frame(c, &frame)?;
            c.flush().map_err(map_write_err)
        });
        if !self.policy.enabled {
            return sent;
        }
        self.replay.push_back(frame);
        Ok(())
    }

    /// Whether a sink closing at `target` is done: its `Close` marker is
    /// through (acknowledged, or the reader answered `Stop`), or nothing is
    /// left to see it through — a plain sink, an interrupted endpoint, a
    /// recovery that gave up.
    fn close_done(&self, target: u64) -> bool {
        !self.policy.enabled
            || self.acked >= target
            || self.peer_stopped
            || self.interrupted()
            || (self.conn.is_none() && self.episode.is_none())
            || self.pending_failure.is_some()
    }

    /// Retires a closed sink's connection: shut for writing, then dropped.
    fn finish(&mut self) {
        self.closing = None;
        self.episode = None;
        if let Some(conn) = self.conn.take() {
            let _ = conn.get_ref().shutdown(Shutdown::Write);
        }
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
        let stepped = if self.episode.is_some() {
            self.recover_step().map(drop)
        } else if !self.peer_stopped && !self.interrupted() && self.conn.is_some() {
            let drained = self.read_acks(None);
            // The reader shuts its socket right after acknowledging a
            // `Close` marker, so one drain can bring the ack and then EOF:
            // the ack decides, and the EOF is no fault.
            match drained {
                Err(e) if self.closing.is_none_or(|target| self.acked < target) => self
                    .recoverable(e)
                    .and_then(|()| self.recover_step().map(drop)),
                _ => Ok(()),
            }
        } else {
            Ok(())
        };
        // A failed recovery leaves `conn` empty (so the watchdog does not
        // retry a link whose budget is spent); the terminal error is
        // stashed to surface on the owning process's next write, exactly
        // as if that write had discovered the dead link.
        if let Err(e) = stepped {
            self.pending_failure = Some(e);
        }
        if self.closing.is_some_and(|target| self.close_done(target)) {
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
    fn register(self: &Arc<Self>, core: &Arc<SharedCore>) {
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
                    Arc::get_mut(s).is_none_or(|s| s.core.get_mut().closing.is_some())
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
/// With a [`ReconnectPolicy`] enabled (via the [`NetProfile`] it connects
/// with: its node's, see [`Node::remote_writer`](crate::Node::remote_writer)),
/// the sink retains unacknowledged frames and survives
/// transient link failure by reconnecting and replaying — see the module
/// docs.
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
        if core.lock().policy.enabled {
            watchdog.register(&core);
        }
        Ok(RemoteSink {
            core: Some(core),
            closed: false,
        })
    }

    fn core(&self) -> Result<&Arc<SharedCore>> {
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
        let offset = core.take_offset(1);
        core.send_marker(Frame::Redirect { offset, token })?;
        let target = core.sent;
        core.wait_acked(target, true)
            .map_err(|e| Error::Disconnected(format!("redirect failed: {e}")))?;
        // Taken, so the watchdog has no connection left to pump.
        if let Some(conn) = core.conn.take() {
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
        let offset = c.take_offset(1);
        // A close has no one to report a failed write to.
        let _ = c.send_marker(Frame::Close { offset });
        let target = c.sent;
        // The marker is acknowledged only once the reader drains to it,
        // which can be arbitrarily later: unless it is done already, the
        // watchdog sees it through, so closing never blocks this process.
        c.closing = Some(target);
        if c.close_done(target) {
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
    /// Adopts a connection the acceptor handed over, with the stream
    /// resuming at `expected` (0 for a first connection): the one place a
    /// connection becomes a source's, for its first connection and for
    /// every replacement [`RemoteSource::recover`] adopts.
    pub(crate) fn adopt(
        transport: Box<dyn Transport>,
        acceptor: Option<Arc<Acceptor>>,
        interruptor: Option<Arc<Interruptor>>,
        policy: ReconnectPolicy,
        token: u64,
        expected: u64,
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
            expected,
            unacked: 0,
            ack_poisoned: false,
            closed: false,
        };
        if source.policy.enabled {
            // Adoption ack: a writer in recovery is waiting for our resume
            // offset; a fresh writer drains it harmlessly. A failure here
            // cannot be ignored: the frame may be partially written, and
            // the reader would otherwise settle into the idle wait while
            // the writer blocks on an ack that can never parse.
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

    fn interrupted(&self) -> bool {
        self.interruptor
            .as_ref()
            .is_some_and(|i| i.is_interrupted())
    }

    /// Moves the next offset to deliver to `expected`, and records how far
    /// the stream has got in the interruptor.
    fn deliver_to(&mut self, expected: u64) {
        self.expected = expected;
        if let Some(i) = &self.interruptor {
            i.record(self.token, expected);
        }
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
        self.retire_token();
    }

    /// Poisons this source's token at its acceptor: a writer that still
    /// connects under it (a recovering one) is answered `Stop` and
    /// cascades instead of retrying against a reader that is gone.
    fn retire_token(&self) {
        if let Some(a) = self.acceptor.as_ref().filter(|_| self.token != 0) {
            a.unregister(self.token);
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
                // A replayed duplicate prefix is read into scratch, dropped.
                let (mut scratch, n) = ([0u8; 1024], self.remaining.min(buf.len()));
                let into = match self.skip {
                    0 => &mut buf[..n],
                    skip => &mut scratch[..skip.min(1024)],
                };
                let got = match self.stream.read(into)? {
                    0 => return Err(Error::Disconnected("peer vanished mid-frame".into())),
                    got => got,
                };
                self.remaining -= got;
                if self.skip > 0 {
                    self.skip -= got;
                    continue;
                }
                self.deliver_to(self.expected + got as u64);
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
                    Err(e) if matches!(e.kind(), TimedOut | WouldBlock | Interrupted) => {
                        if self.interrupted() {
                            return Err(Error::WriteClosed);
                        }
                    }
                    Err(e) => return Err(e.into()),
                }
            };
            let header = parse_frame_header(tag, &mut self.stream)?;
            if let FrameHeader::Data { offset, .. }
            | FrameHeader::Close { offset }
            | FrameHeader::Redirect { offset, .. } = header
            {
                if offset > self.expected {
                    return Err(Error::Graph(format!(
                        "stream gap: {header:?}, expected offset {}",
                        self.expected
                    )));
                }
            }
            match header {
                FrameHeader::Data { len, offset } => {
                    self.remaining = len;
                    self.skip = ((self.expected - offset) as usize).min(len);
                }
                FrameHeader::Close { offset } => {
                    self.deliver_to(offset + 1);
                    self.finish_deliberate();
                    return Ok(SourceRead::End);
                }
                FrameHeader::Redirect { token, offset } => {
                    self.deliver_to(offset + 1);
                    let acceptor = self.acceptor.clone().ok_or_else(|| {
                        Error::Graph("redirect received but node has no acceptor".into())
                    })?;
                    // The old writer endpoint is done with this token: its
                    // recovering connects see `Stop` (= the marker arrived).
                    self.finish_deliberate();
                    let source =
                        PendingSource::listen_with(&acceptor, token, self.interruptor.clone());
                    let spliced = ChannelReader::from_source(Box::new(source));
                    return Ok(SourceRead::Splice(spliced));
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
        let acceptor = (self.acceptor.clone().filter(|_| self.token != 0)).ok_or_else(|| {
            Error::Disconnected("link failed and endpoint cannot re-listen".into())
        })?;
        let guard = RecoveryGuard::enter();
        let _ = self.stream.get_ref().shutdown(Shutdown::Both);
        let mut budget: RecoveryBudget = self.policy.budget;
        let mut pending = None;
        loop {
            if self.interrupted() {
                return Err(Error::Disconnected("aborted while reconnecting".into()));
            }
            let listening = pending.get_or_insert_with(|| {
                let conn = acceptor.register(self.token);
                if let Some(i) = &self.interruptor {
                    i.attach_pending(&acceptor, self.token);
                }
                conn
            });
            if let Some(transport) = listening.wait(Some(RECOVERY_POLL))? {
                guard.attempt();
                *self = Self::adopt(
                    transport,
                    Some(acceptor.clone()),
                    self.interruptor.clone(),
                    self.policy.clone(),
                    self.token,
                    self.expected,
                );
                if !self.ack_poisoned {
                    return Ok(());
                }
                // The adopted connection died at once and `adopt` retired
                // it: keep listening. Charging one poll interval bounds how
                // many dead adoptions one episode tolerates.
                self.ack_poisoned = false;
                pending = None;
            }
            budget = budget.saturating_sub(RECOVERY_POLL);
            if budget.is_zero() {
                return Err(self.budget_error());
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
        // `kpn_core::flush`). A read that does wait registers with the
        // monitor in `rio`, which publishes again — it must, a flush may
        // not block inside a registration — and finds nothing.
        kpn_core::flush::flush_before_block();
        loop {
            let waiting = crate::rio::around_operation(Interest::Read)?;
            match self.try_read(buf) {
                Ok(r) => return Ok(r),
                Err(e) if self.policy.enabled && !self.closed && link_failure(&e) => {
                    // Unregistered first: the pending connection of a
                    // recovery registers by itself.
                    drop(waiting);
                    self.recover()?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn close(&mut self) {
        self.closed = true;
        self.retire_token();
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
        // connecting back) can proceed, as in `RemoteSource::read`. The
        // wait parks a fiber and blocks an OS thread.
        kpn_core::flush::flush_before_block();
        let transport =
            (self.pending.wait(None)?).expect("a wait without a deadline does not time out");
        let source = RemoteSource::adopt(
            transport,
            Some(self.acceptor.clone()),
            self.interruptor.clone(),
            self.acceptor.profile().policy.clone(),
            self.token,
            0,
        );
        let spliced = ChannelReader::from_source(Box::new(source));
        Ok(SourceRead::Splice(spliced))
    }

    fn close(&mut self) {
        self.acceptor.unregister(self.token);
    }
}

/// Creates the write end of a cross-server channel: connects to the
/// reader's node over plain TCP and presents the endpoint token. A node's
/// own writers use its profile instead ([`Node::remote_writer`](crate::Node::remote_writer)).
pub fn remote_writer(addr: &str, token: u64) -> Result<ChannelWriter> {
    let sink = RemoteSink::connect(addr, token)?;
    Ok(ChannelWriter::from_sink(Box::new(sink)))
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
    let interruptor = Interruptor::new(token, CutSide::Reader);
    let source = PendingSource::listen_with(acceptor, token, Some(interruptor.clone()));
    (ChannelReader::from_source(Box::new(source)), interruptor)
}

/// Like [`remote_writer`] under `profile`, returning the [`Interruptor`]
/// that can wake a blocked write from outside.
pub fn remote_writer_interruptible(
    addr: &str,
    token: u64,
    profile: NetProfile,
) -> Result<(ChannelWriter, Arc<Interruptor>)> {
    let mut sink = RemoteSink::connect_with(addr, token, profile)?;
    let interruptor = Interruptor::new(token, CutSide::Writer);
    sink.set_interruptor(interruptor.clone());
    Ok((ChannelWriter::from_sink(Box::new(sink)), interruptor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TcpFactory;
    use kpn_core::{DataReader, DataWriter, ExecMode};
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
        let write_end = Interruptor::new(token, CutSide::Writer);
        sink_a.set_interruptor(write_end.clone());
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
}
