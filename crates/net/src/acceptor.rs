//! The per-node connection acceptor.
//!
//! Every participating node (compute server or client) runs one
//! [`Acceptor`]: a TCP listener whose accept loop dispatches incoming
//! connections by their first byte — data connections (`Hello` + endpoint
//! token) are routed to the waiting channel endpoint, control sessions are
//! handed to the compute-server logic.
//!
//! Tokens decouple *who listens* from *when they listen*: a connection may
//! arrive before the graph spec that registers its endpoint has been
//! processed (partitions are shipped one after another, §4.2), so
//! unclaimed arrivals are parked until `register` claims them.
//!
//! Accepted data connections are wrapped by the acceptor's
//! [`NetProfile`]'s transport factory, so a chaos profile injects faults
//! on the accept side as well as the connect side. A connection that
//! presents a *dead* token (deliberately closed endpoint) is answered
//! with a single `Stop` byte before being dropped: a reconnecting writer
//! uses it to tell "reader closed on purpose" (terminate, §3.4 cascade)
//! apart from "link is flaky" (keep retrying).

use crate::frame::{read_hello_token, CONN_CONTROL, CONN_HELLO, TAG_STOP};
use crate::transport::{NetProfile, Transport};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use kpn_core::{Error, Exec, Result};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

type ControlHandler = Arc<dyn Fn(TcpStream) + Send + Sync>;

/// How long an accepted connection may take over each read of its preamble
/// (the connection tag, then a data connection's hello token). The preamble
/// is read on the accept thread, so until it has arrived nothing else is
/// accepted — not another node's data connection, not a control session,
/// not [`Acceptor::close`]'s wake-up: without a bound one peer that
/// connects and says nothing holds the node's port, and its thread and
/// listener after the node is dropped, for as long as it likes. A real
/// peer writes its preamble straight after `connect`. The bound limits the
/// stall, it does not remove it; the cure is to accept as a reactor task
/// (ROADMAP item 1(c)).
const PREAMBLE_TIMEOUT: Duration = Duration::from_secs(1);

/// Waker bridging the acceptor's dispatch thread to a fiber parked in
/// [`PendingConn::recv_wait`]: the receiver publishes `(exec, key)` before
/// parking, the sender takes and unparks it after delivering (or after
/// dropping the sender on unregister). Crossbeam wakes blocked *threads*
/// on its own; parked *fibers* need this explicit channel-side nudge.
#[derive(Default)]
pub(crate) struct PendingNotify {
    waiter: Mutex<Option<(Arc<dyn Exec>, usize)>>,
}

impl PendingNotify {
    fn wake(&self) {
        if let Some((exec, key)) = self.waiter.lock().take() {
            exec.unpark_all(key);
        }
    }
}

/// Receives the transport for one registered endpoint token.
pub(crate) struct PendingConn {
    pub(crate) rx: Receiver<Box<dyn Transport>>,
    notify: Arc<PendingNotify>,
}

impl PendingConn {
    /// Waits for the data connection (`timeout` of `None` waits forever,
    /// until the registration is dropped). A pooled fiber parks; an OS
    /// thread blocks in the plain `rx.recv()`.
    pub(crate) fn recv_wait(
        &self,
        timeout: Option<Duration>,
    ) -> std::result::Result<Box<dyn Transport>, RecvTimeoutError> {
        if let Some((exec, reactor)) = crate::rio::parking_context() {
            let deadline = timeout.map(|t| Instant::now() + t);
            let key = Arc::as_ptr(&self.notify) as usize;
            let out = loop {
                match self.rx.try_recv() {
                    Ok(t) => break Ok(t),
                    Err(TryRecvError::Disconnected) => break Err(RecvTimeoutError::Disconnected),
                    Err(TryRecvError::Empty) => {}
                }
                let now = Instant::now();
                if deadline.is_some_and(|dl| now >= dl) {
                    break Err(RecvTimeoutError::Timeout);
                }
                let token = exec.park_token(key);
                *self.notify.waiter.lock() = Some((exec.clone(), key));
                // Re-check with the waiter published: a send that raced in
                // before publication is caught here; one that lands after
                // sees the waiter and unparks (a pre-park unpark just
                // bumps the token's generation — park returns at once).
                match self.rx.try_recv() {
                    Ok(t) => break Ok(t),
                    Err(TryRecvError::Disconnected) => break Err(RecvTimeoutError::Disconnected),
                    Err(TryRecvError::Empty) => {}
                }
                if let Some(dl) = deadline {
                    reactor.add_timer(dl, key);
                }
                let _ = exec.park(key, token, deadline.map(|dl| dl - now));
            };
            self.notify.waiter.lock().take();
            out
        } else {
            match timeout {
                Some(t) => self.rx.recv_timeout(t),
                None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            }
        }
    }
}

/// A waiting endpoint: the channel that delivers its connection plus the
/// waker that reaches a fiber parked in [`PendingConn::recv_wait`].
type Waiter = (Sender<Box<dyn Transport>>, Arc<PendingNotify>);

struct AcceptorState {
    /// Endpoints waiting for their connection.
    waiting: HashMap<u64, Waiter>,
    /// Connections that arrived before their endpoint registered.
    parked: HashMap<u64, Box<dyn Transport>>,
    /// Tokens whose endpoint was abandoned: late connections get a `Stop`
    /// notice and are dropped, so the connector terminates instead of
    /// retrying (termination cascade).
    dead: HashSet<u64>,
    control: Option<ControlHandler>,
    closed: bool,
}

/// A node's connection acceptor (one TCP port for data and control).
pub struct Acceptor {
    addr: SocketAddr,
    profile: NetProfile,
    state: Mutex<AcceptorState>,
}

impl Acceptor {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop, with the default (plain TCP, fail-fast) profile.
    pub fn bind(addr: &str) -> Result<Arc<Self>> {
        Self::bind_with(addr, NetProfile::default())
    }

    /// Binds with an explicit [`NetProfile`]: accepted data connections
    /// are wrapped by the profile's transport factory.
    pub fn bind_with(addr: &str, profile: NetProfile) -> Result<Arc<Self>> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let acceptor = Arc::new(Acceptor {
            addr: local,
            profile,
            state: Mutex::new(AcceptorState {
                waiting: HashMap::new(),
                parked: HashMap::new(),
                dead: HashSet::new(),
                control: None,
                closed: false,
            }),
        });
        let weak = Arc::downgrade(&acceptor);
        std::thread::Builder::new()
            .name(format!("kpn-acceptor:{local}"))
            .spawn(move || {
                for conn in listener.incoming() {
                    let Some(acceptor) = weak.upgrade() else {
                        break; // node dropped; stop accepting
                    };
                    if acceptor.state.lock().closed {
                        break;
                    }
                    match conn {
                        Ok(stream) => acceptor.dispatch(stream),
                        Err(_) => continue,
                    }
                }
            })
            .expect("failed to spawn acceptor thread");
        Ok(acceptor)
    }

    /// The actual bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The acceptor's reconnect policy (shared by endpoints it hosts).
    pub(crate) fn profile(&self) -> &NetProfile {
        &self.profile
    }

    /// Installs the control-session handler (compute server).
    pub(crate) fn set_control_handler(&self, handler: ControlHandler) {
        self.state.lock().control = Some(handler);
    }

    /// True once [`Acceptor::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }

    /// Stops accepting new connections (existing data connections live on).
    pub fn close(&self) {
        self.state.lock().closed = true;
        // Wake the blocking accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }

    /// Registers an endpoint token; the returned receiver yields the data
    /// connection when (or if it already has) arrived. Re-registering a
    /// token (reader-side reconnect) revives it even if it was marked
    /// dead.
    pub(crate) fn register(&self, token: u64) -> PendingConn {
        let (tx, rx) = bounded(1);
        let notify = Arc::new(PendingNotify::default());
        let mut st = self.state.lock();
        st.dead.remove(&token);
        if let Some(stream) = st.parked.remove(&token) {
            let _ = tx.send(stream);
        } else {
            st.waiting.insert(token, (tx, notify.clone()));
        }
        PendingConn { rx, notify }
    }

    /// Removes a registration (endpoint abandoned or deliberately closed).
    /// A connection that later presents this token receives a `Stop`
    /// notice, which the connector treats as a closed reader rather than a
    /// transient fault.
    pub(crate) fn unregister(&self, token: u64) {
        let removed = {
            let mut st = self.state.lock();
            let removed = st.waiting.remove(&token);
            st.parked.remove(&token);
            st.dead.insert(token);
            removed
        };
        // Dropping the sender disconnects the receiver; wake any parked
        // fiber (outside the state lock) so it observes the disconnect.
        if let Some((tx, notify)) = removed {
            drop(tx);
            notify.wake();
        }
    }

    /// Reads the preamble under [`PREAMBLE_TIMEOUT`]: the tag and, after
    /// [`CONN_HELLO`], the endpoint token. The timeout is cleared before
    /// the stream goes to whoever reads the rest (a remote endpoint sets
    /// its own; a control session waits for its client as long as it takes).
    fn read_preamble(stream: &mut TcpStream) -> Result<(u8, u64)> {
        stream.set_read_timeout(Some(PREAMBLE_TIMEOUT))?;
        let mut tag = [0u8; 1];
        stream.read_exact(&mut tag)?;
        let token = match tag[0] {
            CONN_HELLO => read_hello_token(stream)?,
            _ => 0,
        };
        stream.set_read_timeout(None)?;
        Ok((tag[0], token))
    }

    fn dispatch(self: &Arc<Self>, mut stream: TcpStream) {
        let Ok((tag, token)) = Self::read_preamble(&mut stream) else {
            return;
        };
        match tag {
            CONN_HELLO => {
                let _ = stream.set_nodelay(true);
                let mut st = self.state.lock();
                if st.closed {
                    return;
                }
                if st.dead.contains(&token) {
                    // Deliberately closed endpoint: tell the connector to
                    // stop retrying, then drop the connection.
                    let _ = stream.write_all(&[TAG_STOP]);
                    return;
                }
                let transport = self.profile.factory.wrap_accepted(stream, token);
                match st.waiting.remove(&token) {
                    Some((tx, notify)) => {
                        // Endpoint dropped meanwhile → transport drops → the
                        // connector sees a closed socket (WriteClosed).
                        let _ = tx.send(transport);
                        drop(st);
                        // Wake a parked fiber with the state lock dropped —
                        // the woken endpoint may call back into the
                        // acceptor (re-register) before we'd release it.
                        notify.wake();
                    }
                    None => {
                        st.parked.insert(token, transport);
                    }
                }
            }
            CONN_CONTROL => {
                let handler = self.state.lock().control.clone();
                if let Some(h) = handler {
                    std::thread::Builder::new()
                        .name("kpn-control".into())
                        .spawn(move || h(stream))
                        .expect("failed to spawn control thread");
                }
            }
            _ => {} // unknown connection type: drop
        }
    }
}

impl std::fmt::Debug for Acceptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("Acceptor")
            .field("addr", &self.addr)
            .field("waiting", &st.waiting.len())
            .field("parked", &st.parked.len())
            .finish()
    }
}

/// Allocates a fresh endpoint token (random; collision probability over a
/// deployment's lifetime is negligible).
pub(crate) fn fresh_token() -> u64 {
    loop {
        let t: u64 = rand::random();
        if t != 0 {
            return t;
        }
    }
}

/// Opens a data connection to `addr` presenting `token`.
pub(crate) fn connect_data(addr: &str, token: u64) -> Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)
        .map_err(|e| Error::Disconnected(format!("connect {addr}: {e}")))?;
    stream.set_nodelay(true)?;
    crate::frame::write_hello(&mut stream, token)?;
    Ok(stream)
}
