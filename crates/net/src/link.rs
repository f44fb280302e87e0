//! The cut channel's link protocol as two state machines that do no IO and
//! read no clock: [`WriterProto`] for a [`RemoteSink`](crate::RemoteSink),
//! [`ReaderProto`] for a [`RemoteSource`](crate::RemoteSource). Each takes
//! the events its endpoint observes (bytes to frame, acknowledgements,
//! frame headers, delivered byte counts, a failed link, a landed connect,
//! an expired poll) and answers with what to do next (send a frame at an
//! offset, wait for acks up to an offset, reconnect after a delay,
//! retransmit, deliver or discard bytes, acknowledge, end, listen, or
//! fail). `remote.rs` carries the answers out over a connection; the model
//! test below carries them out over an in-memory link that fails at every
//! byte boundary.
//!
//! Every decision that depends on the [`ReconnectPolicy`] is made here. A
//! plain policy reproduces the fail-fast link of §4.2: nothing is kept for
//! replay, no acknowledgement is sent, and a failed link is an error. A
//! resilient one keeps the unacknowledged suffix of the stream in one byte
//! ring and runs a recovery episode on a transient failure.

use crate::frame::{AckEvent, AckParser, Frame, FrameHeader};
use crate::transport::{ReconnectPolicy, SplitMix64};
use kpn_core::{Error, Result};
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::time::Duration;

/// Maximum payload of one `Data` frame.
pub(crate) const MAX_FRAME: usize = 64 * 1024;

/// The reader acknowledges after this many delivered bytes (and at every
/// `Close`/`Redirect` marker and connection adoption).
const ACK_EVERY: u64 = 16 * 1024;

/// Poll granularity for blocking ack waits and reconnect handshakes:
/// short enough to notice aborts and deadlines promptly. An episode is
/// charged this much for every poll that finds nothing.
pub(crate) const RECOVERY_POLL: Duration = Duration::from_millis(100);

/// Maps a failed write to the channel semantics: a peer that went away is
/// [`Error::WriteClosed`] (§3.4).
pub(crate) fn map_write_err(e: std::io::Error) -> Error {
    use ErrorKind::*;
    match e.kind() {
        BrokenPipe | ConnectionReset | ConnectionAborted | NotConnected => Error::WriteClosed,
        _ => Error::Io(e),
    }
}

/// Transient-link classification for errors surfacing on an endpoint's
/// data path: `true` means the link may heal (reset, abort, timeout,
/// refusal, EOF mid-stream, a connection's `Disconnected`); `false` means a
/// local or logic error that must not be retried. `Eof`/`WriteClosed` are
/// included because `From<io::Error> for Error` folds
/// `UnexpectedEof`/`BrokenPipe` into them before we see the kind; on a
/// link operation they mean the connection died, not that the stream ended
/// (graceful end is a `Close` frame, never a socket error).
fn link_failure(e: &Error) -> bool {
    use ErrorKind::*;
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

/// What a writer does with the next chunk of the caller's bytes.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Chunk {
    /// Send it as a `Data` frame at this offset.
    Frame(u64),
    /// The replay is full: wait until the reader has acknowledged every
    /// unit below this offset, then offer the chunk again.
    WaitAcks(u64),
}

/// What a writer's recovery episode does next.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Back off this long, then connect.
    Reconnect(Duration),
    /// Read the fresh connection's reverse direction for the resume ack,
    /// for one [`RECOVERY_POLL`].
    Poll,
    /// Send the replay ([`WriterProto::replay`]) on the fresh connection.
    Retransmit,
    /// Drop the connection; the step is over, the next one reconnects.
    Retry,
    /// Keep the fresh connection; the step is over, the next one polls it.
    Wait,
    /// The link is up and the stream resumed: the episode is over.
    Resumed,
}

/// A writer's recovery episode under way.
#[derive(Clone, Debug)]
struct Episode {
    /// What is left of the budget, charged in *nominal* time: each wait
    /// subtracts the duration it asked for (the back-off, the poll
    /// interval) rather than the time it took. A loaded machine therefore
    /// makes exactly as many reconnect attempts as an idle one before it
    /// gives up; the chaos suite's op-count fault schedules rely on that.
    budget: Duration,
    attempt: u32,
    /// A fresh connection is waiting for its resume ack.
    connected: bool,
    /// The sink's first connect, which has nothing to resume.
    first: bool,
}

/// The writer's half of the link protocol: stream accounting, the replay,
/// the closing target, the peer's `Stop` and a recovery episode's
/// attempts, budget and back-off. The driver reads its token and policy.
#[derive(Clone, Debug)]
pub(crate) struct WriterProto {
    pub(crate) token: u64,
    pub(crate) policy: ReconnectPolicy,
    /// Next stream offset to assign (payload bytes + markers written).
    sent: u64,
    /// Everything below this offset is acknowledged by the reader.
    acked: u64,
    /// The replay: the unacknowledged data bytes in one ring, from offset
    /// `start` on, then at most one marker. A `Close` or `Redirect` is
    /// always the stream's last unit, so the marker's offset is the ring's
    /// end.
    replay: VecDeque<u8>,
    start: u64,
    marker: Option<Frame>,
    acks: AckParser,
    rng: SplitMix64,
    /// The peer answered `Stop`: the reader is deliberately gone.
    peer_stopped: bool,
    /// The endpoint's interruptor fired.
    interrupted: bool,
    /// Set by a close to the offset just past its `Close` marker.
    closing: Option<u64>,
    episode: Option<Episode>,
    /// Nothing will carry this stream any more: the recovery gave up, a
    /// failure was stashed for the owner, or the sink finished.
    dead: bool,
}

impl WriterProto {
    /// A writer for `token` under `policy`, about to make its first
    /// connect: an episode of its own, with the back-off and budget of a
    /// reconnect.
    pub(crate) fn new(token: u64, policy: ReconnectPolicy) -> Self {
        let first = Episode {
            budget: policy.budget,
            attempt: 0,
            connected: false,
            first: true,
        };
        WriterProto {
            token,
            policy,
            sent: 0,
            acked: 0,
            replay: VecDeque::new(),
            start: 0,
            marker: None,
            acks: AckParser::default(),
            rng: SplitMix64(token ^ 0x005E_ED0F_5EED),
            peer_stopped: false,
            interrupted: false,
            closing: None,
            episode: Some(first),
            dead: false,
        }
    }

    /// Whether the reader acknowledges what it delivers, so that the
    /// writer has acks to drain and a recovery to run.
    pub(crate) fn resilient(&self) -> bool {
        self.policy.enabled
    }

    /// The stream offset written up to, markers included.
    pub(crate) fn sent(&self) -> u64 {
        self.sent
    }

    /// The sink is closing: its `Close` marker is sent.
    pub(crate) fn closing(&self) -> bool {
        self.closing.is_some()
    }

    /// A recovery episode (or the first connect) is under way.
    pub(crate) fn recovering(&self) -> bool {
        self.episode.is_some()
    }

    /// The endpoint's interruptor fired: no recovery is attempted from now.
    pub(crate) fn interrupt(&mut self) {
        self.interrupted = true;
    }

    /// Whether the stream can still be written: not after a `Stop`, nor
    /// once nothing carries it.
    pub(crate) fn writable(&self) -> Result<()> {
        match self.peer_stopped || self.dead {
            true => Err(Error::WriteClosed),
            false => Ok(()),
        }
    }

    /// Takes the next `chunk` of the stream. A resilient writer keeps it
    /// for replay, unless the replay is full.
    pub(crate) fn write(&mut self, chunk: &[u8]) -> Chunk {
        if self.policy.enabled {
            // Floor: one full frame plus the reader's ack granularity, so
            // the reader's lagging cumulative ack (< ACK_EVERY behind its
            // delivery point) always frees enough room.
            let cap = self
                .policy
                .replay_capacity
                .max(MAX_FRAME + ACK_EVERY as usize);
            let held = self.replay.len() + chunk.len();
            if held > cap {
                return Chunk::WaitAcks(self.acked + (held - cap) as u64);
            }
            self.replay.extend(chunk);
        }
        self.sent += chunk.len() as u64;
        Chunk::Frame(self.sent - chunk.len() as u64)
    }

    /// Ends the stream with a `Redirect` to `redirect`, or with a `Close`.
    /// Returns the marker to send and whether a failed send is the
    /// caller's error: a resilient writer keeps the marker for replay and
    /// leaves a failed send to whatever sees the marker through.
    pub(crate) fn marker(&mut self, redirect: Option<u64>) -> (Frame, bool) {
        let offset = self.sent;
        self.sent += 1;
        let frame = match redirect {
            Some(token) => Frame::Redirect { token, offset },
            None => {
                self.closing = Some(self.sent);
                Frame::Close { offset }
            }
        };
        if self.policy.enabled {
            self.marker = Some(frame.clone());
        }
        (frame, !self.policy.enabled)
    }

    /// Takes in bytes from the reverse direction: acknowledgements and
    /// `Stop` notices. Returns whether any arrived. An ack past what was
    /// sent is a protocol error, not a link fault: no recovery mends it.
    pub(crate) fn acks(&mut self, bytes: &[u8]) -> Result<bool> {
        let (sent, mut past, mut any) = (self.sent, None, false);
        let (acked, stopped) = (&mut self.acked, &mut self.peer_stopped);
        self.acks.feed(bytes, |event| {
            any = true;
            match event {
                AckEvent::Ack(offset) if offset > sent => past = Some(offset),
                AckEvent::Ack(offset) => *acked = (*acked).max(offset),
                AckEvent::Stop => *stopped = true,
            }
        })?;
        if let Some(offset) = past {
            return Err(Error::Graph(format!(
                "ack at offset {offset} past the {sent} stream units sent (token {:#x})",
                self.token
            )));
        }
        // Trim the replay to the acknowledged offset.
        let cut = self.replay.len().min((self.acked - self.start) as usize);
        self.replay.drain(..cut);
        self.start += cut as u64;
        if self.acked > self.start + self.replay.len() as u64 {
            self.marker = None;
        }
        Ok(any)
    }

    /// Whether a wait for acks up to `target` is over: `Ok(true)` once the
    /// reader has acknowledged that far (at once for a plain writer, which
    /// gets no acks) or, waiting on a marker, answered `Stop`, which proves
    /// it processed the marker; `Ok(false)` to read more acks.
    pub(crate) fn through(&self, target: u64, marker_wait: bool) -> Result<bool> {
        if !self.policy.enabled || self.acked >= target || (marker_wait && self.peer_stopped) {
            Ok(true)
        } else if self.peer_stopped || self.interrupted {
            Err(Error::WriteClosed)
        } else {
            Ok(false)
        }
    }

    /// A write, flush or ack drain failed with `e`. `Ok(true)`: a
    /// transient link failure on a resilient link, which a recovery
    /// episode may mend; one is begun. `Ok(false)`: no fault, because the
    /// closing marker is through (the reader shuts its socket right after
    /// acknowledging it, so one drain can bring the ack and then EOF). Any
    /// other failure comes back mapped to the fail-fast semantics.
    pub(crate) fn fail(&mut self, e: Error) -> Result<bool> {
        if self.closing.is_some_and(|target| self.acked >= target) {
            return Ok(false);
        }
        if self.policy.enabled && !self.peer_stopped && !self.interrupted && link_failure(&e) {
            self.episode = Some(Episode {
                budget: self.policy.budget,
                attempt: 0,
                connected: false,
                first: false,
            });
            return Ok(true);
        }
        Err(match e {
            Error::Io(io) => map_write_err(io),
            other => other,
        })
    }

    fn give_up(&mut self, e: Error) -> Result<Step> {
        self.stash();
        Err(e)
    }

    /// What the episode under way does next: poll a fresh connection, or
    /// reconnect (after a back-off from the second attempt on). `Err` once
    /// the episode gives up: the reader said `Stop`, the endpoint was
    /// interrupted, or the budget is spent.
    pub(crate) fn next_step(&mut self) -> Result<Step> {
        if self.episode.is_some() && (self.interrupted || self.peer_stopped) {
            return self.give_up(Error::WriteClosed);
        }
        let Some(ep) = self.episode.as_mut() else {
            return Ok(Step::Resumed);
        };
        if ep.connected {
            return Ok(Step::Poll);
        }
        let mut delay = Duration::ZERO;
        if ep.attempt > 0 {
            delay = self.policy.backoff(ep.attempt - 1, &mut self.rng);
            ep.budget = ep.budget.saturating_sub(delay);
        }
        if ep.attempt > 0 && ep.budget.is_zero() {
            let (attempts, unacked) = (ep.attempt, self.replay.len());
            return self.give_up(Error::Disconnected(format!(
                "reconnect budget exhausted after {attempts} attempts \
                 (token {:#x}, {unacked} unacked bytes)",
                self.token
            )));
        }
        ep.attempt = ep.attempt.saturating_add(1);
        Ok(Step::Reconnect(delay))
    }

    /// A connect came back `connect`. The first connection has nothing to
    /// resume; a replacement waits for the reader's resume ack.
    pub(crate) fn connected(&mut self, connect: Result<()>) -> Result<Step> {
        if let Err(e) = connect {
            return self.lost(e);
        }
        self.acks = AckParser::default();
        match self.episode.as_mut() {
            Some(ep) if !ep.first => {
                ep.connected = true;
                Ok(Step::Poll)
            }
            _ => {
                self.episode = None;
                Ok(Step::Resumed)
            }
        }
    }

    /// A connect, a resume poll or a retransmission failed with `e`: a
    /// transient failure on a resilient link retries, anything else ends
    /// the episode with `e`.
    fn lost(&mut self, e: Error) -> Result<Step> {
        if !self.policy.enabled || !link_failure(&e) || self.peer_stopped {
            return self.give_up(e);
        }
        if let Some(ep) = self.episode.as_mut() {
            ep.connected = false;
        }
        Ok(Step::Retry)
    }

    /// A resume poll came back `polled`: whether acks (or a `Stop`)
    /// arrived, which the driver fed to [`Self::acks`].
    pub(crate) fn polled(&mut self, polled: Result<bool>) -> Result<Step> {
        match polled {
            Ok(_) if self.peer_stopped => self.give_up(Error::WriteClosed),
            Ok(true) => Ok(Step::Retransmit),
            Ok(false) => match self.episode.as_mut() {
                Some(ep) if ep.budget > RECOVERY_POLL => {
                    ep.budget -= RECOVERY_POLL;
                    Ok(Step::Wait)
                }
                _ => {
                    let why = "no resume ack within reconnect budget".into();
                    self.give_up(Error::Disconnected(why))
                }
            },
            Err(e) => self.lost(e),
        }
    }

    /// How the retransmission went: resumed, or lost again.
    pub(crate) fn retransmitted(&mut self, sent: Result<()>) -> Result<Step> {
        if let Err(e) = sent {
            return self.lost(e);
        }
        self.episode = None;
        Ok(Step::Resumed)
    }

    /// The frames that retransmit the replay, in order: its data in
    /// pieces of at most [`MAX_FRAME`] bytes, each with its offset, then
    /// the marker.
    pub(crate) fn replay(&self) -> (impl Iterator<Item = (u64, &[u8])>, Option<&Frame>) {
        let (front, back) = self.replay.as_slices();
        let pieces = front.chunks(MAX_FRAME).chain(back.chunks(MAX_FRAME));
        let data = pieces.scan(self.start, |at, piece| {
            *at += piece.len() as u64;
            Some((*at - piece.len() as u64, piece))
        });
        (data, self.marker.as_ref())
    }

    /// Nothing carries this stream any more: a recovery gave up, or a
    /// failure the watchdog met is on its way to the owner.
    pub(crate) fn stash(&mut self) {
        self.episode = None;
        self.dead = true;
    }

    /// Whether a closing writer is done: its `Close` marker is through
    /// (acknowledged, or the reader answered `Stop`), or nothing is left to
    /// see it through: a plain writer, an interrupted endpoint, a recovery
    /// that gave up.
    pub(crate) fn close_done(&self) -> bool {
        self.closing.is_some_and(|target| {
            let through = !self.policy.enabled || self.acked >= target || self.peer_stopped;
            through || self.interrupted || self.dead
        })
    }

    /// The closed writer's connection is retired.
    pub(crate) fn finish(&mut self) {
        self.closing = None;
        self.stash();
    }
}

/// What a reader does next.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ReadStep {
    /// Read the next frame header: the idle position.
    Header,
    /// Read up to this many payload bytes into the caller's buffer.
    Deliver(usize),
    /// Read and drop up to this many bytes: a replayed duplicate prefix.
    Discard(usize),
    /// The stream ended with `Close`; acknowledge it first, at `ack`.
    End { ack: Option<u64> },
    /// Listen for a connection presenting [`ReaderProto::token`], each wait
    /// bounded by [`ReaderProto::poll`]: the reader's first, or the
    /// replacement for a failed one. After a `Redirect` marker, first
    /// acknowledge it at `ack` and retire the token; then listen for the
    /// connection presenting `redirect`, whose stream starts at offset 0.
    Listen {
        redirect: Option<u64>,
        ack: Option<u64>,
    },
}

/// The reader's half of the link protocol: whether it listens for a
/// connection and under what budget, the next offset to deliver, the
/// current frame's remaining and duplicate bytes, and the bytes delivered
/// since the last acknowledgement. The driver reads its token and policy.
#[derive(Clone, Debug)]
pub(crate) struct ReaderProto {
    pub(crate) token: u64,
    pub(crate) policy: ReconnectPolicy,
    ack_every: u64,
    /// Next stream offset to deliver: what an ack carries.
    expected: u64,
    /// Bytes left to stream from the current `Data` frame.
    remaining: usize,
    /// Leading duplicate bytes of the current frame to discard (replayed
    /// data the channel has already delivered).
    skip: usize,
    /// Bytes delivered since the last acknowledgement.
    unacked: u64,
    /// An ack write failed: the connection is retired, and the next read
    /// goes straight to recovery.
    poisoned: bool,
    closed: bool,
    /// The reader has no connection and listens for one.
    listening: bool,
    /// What is left of a re-listen's budget; `None` until a connection
    /// fails, since a first listen waits as long as it takes.
    budget: Option<Duration>,
}

impl ReaderProto {
    /// A reader for `token` under `policy`, listening for its first
    /// connection, at offset 0.
    pub(crate) fn new(token: u64, policy: ReconnectPolicy) -> Self {
        ReaderProto {
            token,
            policy,
            ack_every: ACK_EVERY,
            expected: 0,
            remaining: 0,
            skip: 0,
            unacked: 0,
            poisoned: false,
            closed: false,
            listening: true,
            budget: None,
        }
    }

    /// The next stream offset to deliver.
    pub(crate) fn expected(&self) -> u64 {
        self.expected
    }

    /// The offset to acknowledge now, if a resilient link acknowledges at
    /// all: everything delivered.
    fn ack(&self) -> Option<u64> {
        self.policy.enabled.then_some(self.expected)
    }

    /// How long one wait of a listen may last: as long as it takes for a
    /// first connection, one [`RECOVERY_POLL`] for a replacement.
    pub(crate) fn poll(&self) -> Option<Duration> {
        self.budget.map(|_| RECOVERY_POLL)
    }

    /// A connection was adopted: the stream restarts at `expected` with a
    /// fresh frame. Returns the offset to acknowledge at once (a writer in
    /// recovery waits for that resume ack; a fresh one drains it).
    pub(crate) fn adopted(&mut self) -> Option<u64> {
        (self.remaining, self.skip, self.unacked) = (0, 0, 0);
        (self.poisoned, self.listening) = (false, false);
        self.ack()
    }

    /// How an ack write went. A failed one may sit half-written on the
    /// wire, which the writer's parser cannot resynchronize past, so the
    /// driver has shut the connection and the next read recovers.
    pub(crate) fn ack_sent(&mut self, ok: bool) {
        if ok {
            self.unacked = 0;
        }
        self.poisoned = !ok;
    }

    /// What to read next into a buffer of `room` bytes.
    pub(crate) fn next(&mut self, room: usize) -> Result<ReadStep> {
        if std::mem::take(&mut self.poisoned) {
            return Err(Error::Eof);
        }
        if self.listening {
            return Ok(ReadStep::Listen {
                redirect: None,
                ack: None,
            });
        }
        Ok(match (self.remaining, self.skip) {
            (0, _) => ReadStep::Header,
            (_, 0) => ReadStep::Deliver(self.remaining.min(room)),
            (_, skip) => ReadStep::Discard(skip),
        })
    }

    /// A frame header arrived; returns what to read next into `room`. A
    /// frame past `expected` is a stream gap, and a marker before it would
    /// move `expected` backwards: both are protocol errors. A data frame
    /// before it is a replayed prefix.
    pub(crate) fn header(&mut self, header: FrameHeader, room: usize) -> Result<ReadStep> {
        if let FrameHeader::Data { offset, .. }
        | FrameHeader::Close { offset }
        | FrameHeader::Redirect { offset, .. } = header
        {
            let marker = !matches!(header, FrameHeader::Data { .. });
            if offset > self.expected || marker && offset < self.expected {
                return Err(Error::Graph(format!(
                    "frame out of place: {header:?}, expected offset {}",
                    self.expected
                )));
            }
        }
        match header {
            FrameHeader::Data { len, offset } => {
                self.remaining = len;
                self.skip = ((self.expected - offset) as usize).min(len);
                self.next(room)
            }
            FrameHeader::Close { offset } => {
                self.expected = offset + 1;
                Ok(ReadStep::End { ack: self.ack() })
            }
            FrameHeader::Redirect { token, offset } => {
                self.expected = offset + 1;
                let (redirect, ack) = (Some(token), self.ack());
                Ok(ReadStep::Listen { redirect, ack })
            }
            FrameHeader::Ack { .. } | FrameHeader::Stop => Err(Error::Graph(
                "unexpected ack/stop frame on data direction".into(),
            )),
        }
    }

    /// `n` bytes of the current frame were read: dropped while a duplicate
    /// prefix is left, delivered after it. Returns the offset to
    /// acknowledge, if an ack is due.
    pub(crate) fn got(&mut self, n: usize) -> Option<u64> {
        self.remaining -= n;
        if self.skip > 0 {
            self.skip -= n;
            return None;
        }
        self.expected += n as u64;
        self.unacked += n as u64;
        self.ack().filter(|_| self.unacked >= self.ack_every)
    }

    /// The reader is closed locally: a failure from now on is final.
    pub(crate) fn close(&mut self) {
        self.closed = true;
    }

    /// A read failed with `e`. `Ok` for a transient failure of a resilient
    /// link: listen for the writer's replacement connection, under a fresh
    /// budget. Anything else is final.
    pub(crate) fn failed(&mut self, e: Error) -> Result<()> {
        if !self.policy.enabled || self.closed || !link_failure(&e) {
            return Err(e);
        }
        (self.listening, self.budget) = (true, Some(self.policy.budget));
        Ok(())
    }

    /// A listen waited one [`RECOVERY_POLL`] for nothing, or adopted a
    /// connection that died at once, which turns a first listen into a
    /// re-listen. `Err` once the budget is spent.
    pub(crate) fn listen_expired(&mut self) -> Result<()> {
        self.listening = true;
        let budget = self.budget.get_or_insert(self.policy.budget);
        *budget = budget.saturating_sub(RECOVERY_POLL);
        if !budget.is_zero() {
            return Ok(());
        }
        Err(Error::Disconnected(format!(
            "reconnect budget exhausted: no replacement connection for token {:#x} \
             ({} stream units delivered)",
            self.token, self.expected
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_marker_behind_the_delivered_offset_is_refused() {
        let mut proto = ReaderProto::new(1, ReconnectPolicy::resilient());
        proto.adopted();
        let data = FrameHeader::Data { len: 10, offset: 0 };
        assert!(matches!(proto.header(data, 16), Ok(ReadStep::Deliver(10))));
        proto.got(10);
        assert!(proto.header(FrameHeader::Close { offset: 2 }, 16).is_err());
        let redirect = FrameHeader::Redirect {
            token: 2,
            offset: 9,
        };
        assert!(proto.header(redirect, 16).is_err());
        assert_eq!(proto.expected(), 10);
        let close = proto.header(FrameHeader::Close { offset: 10 }, 16);
        assert!(matches!(close, Ok(ReadStep::End { ack: Some(11) })));
    }
}

#[cfg(test)]
mod model {
    //! The two cores joined over an in-memory link, explored exhaustively.
    //!
    //! A writer sends up to six chunks and ends the stream with a `Close` or
    //! a `Redirect`; a reader delivers one byte per read and acknowledges
    //! every byte. The link keeps order and can fail up to twice: a failure
    //! cuts one connection's bytes in flight, each way, at any byte
    //! boundary (one cut inside a header, an ack or a marker stands for
    //! all cuts there; see [`cuts`]), and every later operation on it fails
    //! once what is left has been read. Each move is one call a driver
    //! makes into a core, and every move either side or a failure can make
    //! is a branch. Each reachable state is explored once (keyed by its digest),
    //! and the interleavings through it are counted rather than re-run.
    //!
    //! Checked in every state: whatever the reader delivered is a prefix of
    //! what was written, and neither side fails. Checked at every end: the
    //! reader delivered it all exactly once and saw the marker, and the
    //! writer finished its close or saw its redirect through.

    use super::*;
    use crate::frame::{parse_frame_header, write_data_frame, write_frame, TAG_STOP};
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;
    use std::hash::Hasher;

    const SIZES: [usize; 6] = [2, 1, 2, 1, 2, 1];
    const REDIRECT_TO: u64 = 0xBEEF;

    /// A move of one side, or a failure that cuts a connection's bytes in
    /// flight to `k` of `wire` one way and `j` of `back` the other.
    #[derive(Clone, Copy)]
    enum Move {
        Writer(&'static str),
        Reader(&'static str),
        Cut {
            k: usize,
            wire: usize,
            j: usize,
            back: usize,
        },
    }

    impl std::fmt::Display for Move {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                Move::Writer(does) => write!(f, "the writer {does}"),
                Move::Reader(does) => write!(f, "the reader {does}"),
                Move::Cut { k, wire, j, back } => write!(
                    f,
                    "the link fails, keeping {k} of {wire} bytes on the way and {j} of {back} back"
                ),
            }
        }
    }

    /// One connection: bytes in flight each way, and whether it is broken
    /// (by a failure or a shutdown), so that each end reads what is left
    /// and then fails.
    #[derive(Clone, Debug, Default)]
    struct Conn {
        wire: VecDeque<u8>,
        back: VecDeque<u8>,
        broken: bool,
    }

    #[derive(Clone, Debug, PartialEq)]
    enum Writer {
        /// Writing chunk `usize` (the marker once all are written).
        Chunk(usize),
        /// The marker is sent; waiting for it to be seen through.
        Sealing,
        Done,
    }

    #[derive(Clone, Debug, PartialEq)]
    enum Reader {
        Listening,
        Reading(usize),
        Ended(Option<u64>),
    }

    #[derive(Clone, Debug)]
    struct World {
        w: WriterProto,
        r: ReaderProto,
        writes: usize,
        redirect: bool,
        writer: Writer,
        /// The episode under way: its next step.
        step: Option<Step>,
        wconn: Option<usize>,
        reader: Reader,
        pending: VecDeque<usize>,
        conns: Vec<Conn>,
        delivered: Vec<u8>,
        failures: u32,
    }

    /// The byte boundaries worth cutting `bytes` at, whose first `inside`
    /// bytes end a payload the reader is in: every boundary in a payload
    /// and between frames, and one inside each header, ack or marker,
    /// since a cut anywhere in there leaves the far end the same fragment,
    /// which it cannot parse and drops with the connection.
    fn cuts(bytes: &[u8], inside: usize) -> Vec<usize> {
        let (mut at, mut payload, mut out) = (0, inside, vec![0]);
        while at < bytes.len() {
            if payload > 0 {
                (at, payload) = (at + 1, payload - 1);
                out.push(at);
                continue;
            }
            let head = match bytes[at] {
                0x01 => 13,
                0x03 => 17,
                0x02 | 0x04 => 9,
                _ => 1,
            };
            if bytes[at] == 0x01 {
                payload = u32::from_be_bytes(bytes[at + 1..at + 5].try_into().unwrap()) as usize;
            }
            if head > 1 {
                out.push(at + 1);
            }
            at += head;
            out.push(at);
        }
        out
    }

    /// Hashes what is formatted into it.
    struct Digest(DefaultHasher);

    impl std::fmt::Write for Digest {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }

    fn stream(writes: usize) -> Vec<u8> {
        (0..SIZES[..writes].iter().sum::<usize>() as u8).collect()
    }

    fn chunk(i: usize) -> Vec<u8> {
        let start: usize = SIZES[..i].iter().sum();
        (start as u8..(start + SIZES[i]) as u8).collect()
    }

    impl World {
        fn new(writes: usize, redirect: bool, failures: u32) -> Self {
            let policy = ReconnectPolicy {
                budget: Duration::from_secs(3600),
                ..ReconnectPolicy::resilient()
            };
            let mut r = ReaderProto::new(7, policy.clone());
            r.ack_every = 1;
            let mut w = WriterProto::new(7, policy);
            let step = Some(w.next_step().expect("a first connect"));
            World {
                w,
                r,
                writes,
                redirect,
                writer: Writer::Chunk(0),
                step,
                wconn: None,
                reader: Reader::Listening,
                pending: VecDeque::new(),
                conns: Vec::new(),
                delivered: Vec::new(),
                failures,
            }
        }

        /// A digest of the state, with the connections nobody can reach
        /// any more dropped and the rest numbered in order of use, so that
        /// two states that differ only there are one.
        fn digest(&mut self) -> u64 {
            let reading = match self.reader {
                Reader::Reading(c) => Some(c),
                _ => None,
            };
            let mut used = Vec::new();
            for c in self
                .wconn
                .into_iter()
                .chain(reading)
                .chain(self.pending.clone())
            {
                if !used.contains(&c) {
                    used.push(c);
                }
            }
            let at = |c: usize| used.iter().position(|&u| u == c).unwrap();
            self.wconn = self.wconn.map(at);
            if let Reader::Reading(c) = self.reader {
                self.reader = Reader::Reading(at(c));
            }
            self.pending.iter_mut().for_each(|c| *c = at(*c));
            self.conns = used.iter().map(|&c| self.conns[c].clone()).collect();
            let mut h = Digest(DefaultHasher::new());
            std::fmt::Write::write_fmt(&mut h, format_args!("{self:?}")).unwrap();
            h.0.finish()
        }

        /// The writer's connection, if it is still whole.
        fn wire(&mut self) -> Result<&mut Conn> {
            let conn = self.wconn.map(|c| &mut self.conns[c]);
            conn.filter(|c| !c.broken).ok_or(Error::WriteClosed)
        }

        /// Reads what the reverse direction holds: `None` if nothing is
        /// there yet and the connection is whole.
        fn read_back(&mut self) -> Option<Result<bool>> {
            let conn = &mut self.conns[self.wconn?];
            if conn.back.is_empty() {
                return conn.broken.then(|| Err(Error::Disconnected("EOF".into())));
            }
            let bytes: Vec<u8> = conn.back.drain(..).collect();
            Some(self.w.acks(&bytes))
        }

        fn shut_writer(&mut self) {
            if let Some(c) = self.wconn.take() {
                self.conns[c].broken = true;
            }
        }

        /// Every move possible from here, each with what it is.
        fn moves(&self) -> Vec<(Move, World)> {
            let mut next = Vec::new();
            let mut w = self.clone();
            if w.writer_move() {
                next.push((Move::Writer(self.writer_does()), w));
            }
            let mut r = self.clone();
            if r.reader_move() {
                let does = match self.reader {
                    Reader::Listening => "adopts a connection",
                    _ => "reads",
                };
                next.push((Move::Reader(does), r));
            }
            if self.failures > 0 {
                // Only a whole connection fails: cutting a broken one again
                // is the same as cutting it at the smaller boundary first.
                for (c, conn) in self.conns.iter().enumerate().filter(|(_, c)| !c.broken) {
                    let inside = match self.reader {
                        Reader::Reading(r) if r == c => self.r.remaining,
                        _ => 0,
                    };
                    for k in cuts(&conn.wire.iter().copied().collect::<Vec<_>>(), inside) {
                        for j in cuts(&conn.back.iter().copied().collect::<Vec<_>>(), 0) {
                            let mut f = self.clone();
                            let cut = &mut f.conns[c];
                            let (wire, back) = (cut.wire.len(), cut.back.len());
                            cut.wire.truncate(k);
                            cut.back.truncate(j);
                            cut.broken = true;
                            f.failures -= 1;
                            next.push((Move::Cut { k, wire, j, back }, f));
                        }
                    }
                }
            }
            next
        }

        fn writer_does(&self) -> &'static str {
            match (&self.step, &self.writer) {
                (Some(Step::Reconnect(_)), _) => "connects",
                (Some(Step::Poll), _) => "polls for the resume ack",
                (Some(Step::Retransmit), _) => "retransmits",
                (Some(_), _) => "steps its episode",
                (None, Writer::Chunk(i)) if *i < self.writes => "writes a chunk",
                (None, Writer::Chunk(_)) => "sends its marker",
                (None, _) => "drains acks",
            }
        }

        /// The writer's next move, as the driver makes it. `false` if it
        /// has to wait for the reader.
        fn writer_move(&mut self) -> bool {
            if let Some(step) = self.step.take() {
                let next = match step {
                    Step::Reconnect(_) => {
                        let c = self.conns.len();
                        self.conns.push(Conn::default());
                        self.wconn = Some(c);
                        match self.reader {
                            // The token is retired: the acceptor answers
                            // `Stop` and drops the connection.
                            Reader::Ended(_) => {
                                self.conns[c].back.push_back(TAG_STOP);
                                self.conns[c].broken = true;
                            }
                            _ => self.pending.push_back(c),
                        }
                        self.w.connected(Ok(()))
                    }
                    Step::Poll => match self.read_back() {
                        Some(polled) => self.w.polled(polled),
                        None => {
                            self.step = Some(Step::Poll);
                            return false;
                        }
                    },
                    Step::Retransmit => {
                        let replay = self.frames_of_replay();
                        let sent = self.wire().map(|c| c.wire.extend(replay));
                        self.w.retransmitted(sent)
                    }
                    Step::Retry => {
                        self.shut_writer();
                        self.w.next_step()
                    }
                    Step::Wait => self.w.next_step(),
                    Step::Resumed => return self.writer_move(),
                };
                match next {
                    Ok(Step::Resumed) => {}
                    Ok(step) => self.step = Some(step),
                    Err(e) => self.writer_failed(e),
                }
                return true;
            }
            match self.writer.clone() {
                Writer::Chunk(i) if i < self.writes => {
                    // The resilient drain before a write: a failure there
                    // recovers first, and the write waits for it.
                    if let Some(Err(e)) = self.read_back() {
                        self.begin(e);
                        if self.step.is_some() {
                            return true;
                        }
                    }
                    if let Err(e) = self.w.writable() {
                        self.writer_failed(e);
                    }
                    let bytes = chunk(i);
                    let Chunk::Frame(offset) = self.w.write(&bytes) else {
                        panic!("the replay filled");
                    };
                    let mut frame = Vec::new();
                    write_data_frame(&mut frame, &bytes, offset).unwrap();
                    self.writer = Writer::Chunk(i + 1);
                    if let Err(e) = self.wire().map(|c| c.wire.extend(frame)) {
                        self.begin(e);
                    }
                }
                Writer::Chunk(_) => {
                    let (marker, _) = self.w.marker(self.redirect.then_some(REDIRECT_TO));
                    let mut frame = Vec::new();
                    write_frame(&mut frame, &marker).unwrap();
                    let _ = self.wire().map(|c| c.wire.extend(frame));
                    self.writer = Writer::Sealing;
                    self.seal();
                }
                Writer::Sealing => match self.read_back() {
                    None => return false,
                    Some(Ok(_)) => self.seal(),
                    Some(Err(e)) => {
                        self.begin(e);
                        self.seal();
                    }
                },
                Writer::Done => return false,
            }
            true
        }

        /// A close is finished once done; a redirect once through.
        fn seal(&mut self) {
            let done = match self.redirect {
                true => matches!(self.w.through(self.w.sent, true), Ok(true)),
                false => self.w.close_done(),
            };
            if done && self.step.is_none() {
                self.w.finish();
                self.shut_writer();
                self.writer = Writer::Done;
            }
        }

        /// A write or drain failed with `e`: begin an episode.
        fn begin(&mut self, e: Error) {
            match self.w.fail(e) {
                Ok(true) => {
                    self.shut_writer();
                    match self.w.next_step() {
                        Ok(step) => self.step = Some(step),
                        Err(e) => self.writer_failed(e),
                    }
                }
                Ok(false) => {}
                Err(e) => self.writer_failed(e),
            }
        }

        /// The writer got `e`. Only a sealed writer may: a redirect whose
        /// marker is through, or a close, whose failure the watchdog keeps
        /// for a departed owner (whether the `Close` arrived is the
        /// reader's to show).
        fn writer_failed(&mut self, e: Error) {
            self.shut_writer();
            let through = !self.redirect || matches!(self.w.through(self.w.sent, true), Ok(true));
            let sealed = self.writer == Writer::Sealing;
            assert!(through && sealed, "the writer failed: {e}");
            self.w.stash();
            self.seal();
        }

        fn frames_of_replay(&self) -> Vec<u8> {
            let mut wire = Vec::new();
            let (data, marker) = self.w.replay();
            for (offset, bytes) in data {
                write_data_frame(&mut wire, bytes, offset).unwrap();
            }
            if let Some(marker) = marker {
                write_frame(&mut wire, marker).unwrap();
            }
            wire
        }

        /// The reader's next read, as the driver makes it. `false` if it has
        /// to wait.
        fn reader_move(&mut self) -> bool {
            let c = match self.reader {
                Reader::Ended(_) => return false,
                Reader::Listening => {
                    let Some(c) = self.pending.pop_front() else {
                        return false;
                    };
                    self.reader = Reader::Reading(c);
                    let ack = self.r.adopted();
                    self.send_ack(c, ack);
                    return true;
                }
                Reader::Reading(c) => c,
            };
            let conn = &self.conns[c];
            if conn.wire.is_empty() && !conn.broken {
                return false;
            }
            if let Err(e) = self.read(c) {
                if let Err(e) = self.r.failed(e) {
                    panic!("the reader failed: {e}");
                }
                self.conns[c].broken = true;
                self.reader = Reader::Listening;
            }
            true
        }

        fn read(&mut self, c: usize) -> Result<()> {
            let mut step = self.r.next(1)?;
            loop {
                let wire = &mut self.conns[c].wire;
                step = match step {
                    ReadStep::Header => {
                        let Some(tag) = wire.pop_front() else {
                            return Err(Error::Disconnected("EOF".into()));
                        };
                        let rest = wire.make_contiguous();
                        let mut cursor = &rest[..];
                        let header = parse_frame_header(tag, &mut cursor);
                        let used = rest.len() - cursor.len();
                        wire.drain(..used);
                        self.r.header(header?, 1)?
                    }
                    ReadStep::Deliver(n) | ReadStep::Discard(n) => {
                        if wire.is_empty() {
                            return Err(Error::Disconnected("EOF mid-frame".into()));
                        }
                        let got: Vec<u8> = wire.drain(..n.min(wire.len())).collect();
                        let deliver = matches!(step, ReadStep::Deliver(_));
                        let ack = self.r.got(got.len());
                        if !deliver {
                            self.r.next(1)?
                        } else {
                            self.delivered.extend(&got);
                            let expect = stream(self.writes);
                            assert!(
                                expect.starts_with(&self.delivered),
                                "delivered {:?} of {expect:?}",
                                self.delivered
                            );
                            self.send_ack(c, ack);
                            return Ok(());
                        }
                    }
                    ReadStep::End { ack } | ReadStep::Listen { ack, .. } => {
                        let token = match step {
                            ReadStep::Listen { redirect, .. } => redirect,
                            _ => None,
                        };
                        self.send_ack(c, ack);
                        self.reader = Reader::Ended(token);
                        // The token is retired: a waiting connection gets
                        // `Stop`.
                        for p in self.pending.drain(..) {
                            self.conns[p].back.push_back(TAG_STOP);
                            self.conns[p].broken = true;
                        }
                        return Ok(());
                    }
                }
            }
        }

        fn send_ack(&mut self, c: usize, ack: Option<u64>) {
            let Some(offset) = ack else { return };
            let conn = &mut self.conns[c];
            if !conn.broken {
                write_frame(&mut conn.back, &Frame::Ack { offset }).unwrap();
            }
            self.r.ack_sent(!conn.broken);
        }

        /// The checks at an end, where nothing can move.
        fn check_end(&self) {
            let marker = self.redirect.then_some(REDIRECT_TO);
            assert_eq!(self.reader, Reader::Ended(marker), "the marker was lost");
            assert_eq!(self.delivered, stream(self.writes));
            assert_eq!(self.writer, Writer::Done, "the writer never finished");
        }
    }

    /// Explores every state reachable from `world` once; returns the
    /// number of interleavings from it to an end. `path` holds the states
    /// and moves that led here; a failed check prints the moves.
    fn explore(
        mut world: World,
        seen: &mut HashMap<u64, u128>,
        path: &mut Vec<(u64, Move)>,
    ) -> u128 {
        let key = world.digest();
        if let Some(&n) = seen.get(&key) {
            return n;
        }
        assert!(
            path.iter().all(|(k, _)| *k != key),
            "a cycle through {world:?}"
        );
        let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let moves = world.moves();
            if moves.is_empty() {
                world.check_end();
            }
            moves
        }));
        let moves = checked.unwrap_or_else(|panic| {
            let (writes, redirect) = (world.writes, world.redirect);
            eprintln!(
                "{writes} writes, then a {}:",
                ["close", "redirect"][redirect as usize]
            );
            path.iter().for_each(|(_, m)| eprintln!("  {m}"));
            std::panic::resume_unwind(panic)
        });
        let n = match moves.is_empty() {
            true => 1,
            false => moves
                .into_iter()
                .map(|(m, next)| {
                    path.push((key, m));
                    let n = explore(next, seen, path);
                    path.pop();
                    n
                })
                .sum(),
        };
        seen.insert(key, n);
        n
    }

    #[test]
    fn every_interleaving_delivers_exactly_once_and_finishes() {
        let (mut interleavings, mut states) = (0u128, 0usize);
        for writes in 0..=SIZES.len() {
            for redirect in [false, true] {
                let mut seen = HashMap::new();
                let world = World::new(writes, redirect, 2);
                interleavings += explore(world, &mut seen, &mut Vec::new());
                states += seen.len();
            }
        }
        eprintln!("{interleavings} interleavings through {states} states");
        assert!(interleavings >= 10_000, "{interleavings} interleavings");
    }
}
