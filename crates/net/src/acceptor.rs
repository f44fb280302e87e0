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

/// The one-shot slot a registered endpoint waits on for its data
/// connection. The acceptor fills it when the connection arrives, or
/// cancels it when the registration is dropped, and wakes the waiter
/// through the waiter's own executor: a pooled fiber parks and an OS
/// thread blocks, on the same path ([`Exec::park_until`]).
#[derive(Clone, Default)]
pub(crate) struct PendingConn(Arc<Mutex<Slot>>);

#[derive(Default)]
struct Slot {
    conn: Option<Box<dyn Transport>>,
    cancelled: bool,
    /// The executor and park key of a task in [`PendingConn::wait`].
    waiter: Option<(Arc<dyn Exec>, usize)>,
}

impl PendingConn {
    /// Waits for the data connection: `Ok(Some(_))` once it has arrived,
    /// `Ok(None)` once `timeout` has passed (`None` waits as long as it
    /// takes), a `Disconnected` error once the registration is cancelled.
    pub(crate) fn wait(&self, timeout: Option<Duration>) -> Result<Option<Box<dyn Transport>>> {
        let exec = kpn_core::exec::current_exec()
            .ok_or_else(|| Error::Disconnected("no executor to wait on".into()))?;
        let key = Arc::as_ptr(&self.0) as usize;
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let token = {
                let mut slot = self.0.lock();
                if let Some(conn) = slot.conn.take() {
                    return Ok(Some(conn));
                }
                if slot.cancelled {
                    return Err(Error::Disconnected(
                        "registration cancelled before its connection arrived".into(),
                    ));
                }
                if deadline.is_some_and(|dl| Instant::now() >= dl) {
                    slot.waiter = None; // nobody to wake any more
                    return Ok(None);
                }
                slot.waiter = Some((exec.clone(), key));
                // Under the slot's lock, as a channel takes it under its own.
                exec.park_token(key)
            };
            exec.park_until(key, token, deadline)?;
        }
    }

    /// Fills (`Some`) or cancels (`None`) the slot and wakes its waiter.
    fn settle(&self, conn: Option<Box<dyn Transport>>) {
        let waiter = {
            let mut slot = self.0.lock();
            match conn {
                Some(conn) => slot.conn = Some(conn),
                None => slot.cancelled = true,
            }
            slot.waiter.take()
        };
        if let Some((exec, key)) = waiter {
            exec.unpark_all(key);
        }
    }
}

struct AcceptorState {
    /// Endpoints waiting for their connection.
    waiting: HashMap<u64, PendingConn>,
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

    /// Registers an endpoint token; the returned slot yields the data
    /// connection when (or if it already has) arrived. Re-registering a
    /// token (reader-side reconnect) revives it even if it was marked
    /// dead.
    pub(crate) fn register(&self, token: u64) -> PendingConn {
        let pending = PendingConn::default();
        let mut st = self.state.lock();
        st.dead.remove(&token);
        match st.parked.remove(&token) {
            Some(conn) => pending.settle(Some(conn)),
            None => {
                st.waiting.insert(token, pending.clone());
            }
        }
        pending
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
        // Cancel outside the state lock: the woken endpoint may call back
        // into the acceptor (re-register).
        if let Some(pending) = removed {
            pending.settle(None);
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
                    Some(pending) => {
                        drop(st);
                        // Endpoint dropped meanwhile → this is the slot's
                        // last holder → the transport drops with it → the
                        // connector sees a closed socket (WriteClosed).
                        pending.settle(Some(transport));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::remote_reader_interruptible;
    use kpn_core::exec::PooledExec;
    use std::sync::mpsc;

    /// Where a case's waiting half runs.
    enum Waiter {
        /// A fiber of a one-worker pool.
        Fiber(Arc<PooledExec>),
        Thread,
    }

    impl Waiter {
        fn run<T: Send + 'static>(
            &self,
            body: impl FnOnce() -> T + Send + 'static,
        ) -> mpsc::Receiver<T> {
            let (tx, rx) = mpsc::channel();
            let job = move || tx.send(body()).unwrap();
            match self {
                Waiter::Fiber(pool) => {
                    pool.spawn("waiter", Box::new(job));
                    // A waiting fiber must not hold the pool's one worker.
                    let (tx, ran) = mpsc::channel();
                    pool.spawn("bystander", Box::new(move || tx.send(()).unwrap()));
                    ran.recv_timeout(Duration::from_secs(10))
                        .expect("the waiter holds the pool's only worker");
                }
                Waiter::Thread => {
                    std::thread::spawn(job);
                }
            }
            rx
        }
    }

    type Case = (&'static str, fn(&Waiter));

    const CASES: &[Case] = &[
        (
            "the connection arrives before register",
            arrives_before_register,
        ),
        (
            "the connection arrives after register",
            arrives_after_register,
        ),
        (
            "unregister wakes the waiter with an error",
            unregister_wakes_the_waiter,
        ),
        ("a timed wait times out", a_timed_wait_times_out),
        (
            "an interrupt wakes a pending reader",
            an_interrupt_wakes_a_pending_reader,
        ),
    ];

    fn run_cases(waiter: Waiter) {
        for (what, case) in CASES {
            eprintln!("case: {what}");
            case(&waiter);
        }
        if let Waiter::Fiber(pool) = waiter {
            pool.shutdown();
        }
    }

    #[test]
    fn pending_conn_cases_with_a_fiber_waiter() {
        run_cases(Waiter::Fiber(PooledExec::new(1)));
    }

    #[test]
    fn pending_conn_cases_with_a_thread_waiter() {
        run_cases(Waiter::Thread);
    }

    const LONG: Duration = Duration::from_secs(10);

    fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
        let deadline = Instant::now() + LONG;
        while !pred() {
            assert!(Instant::now() < deadline, "timed out waiting: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// True once a task waits on `token`'s registration.
    fn waited_on(acc: &Acceptor, token: u64) -> bool {
        let st = acc.state.lock();
        st.waiting
            .get(&token)
            .is_some_and(|p| p.0.lock().waiter.is_some())
    }

    fn arrives_before_register(waiter: &Waiter) {
        let acc = Acceptor::bind("127.0.0.1:0").unwrap();
        let token = fresh_token();
        let _peer = connect_data(&acc.local_addr().to_string(), token).unwrap();
        wait_until("the acceptor parks the connection", || {
            acc.state.lock().parked.contains_key(&token)
        });
        let pending = acc.register(token);
        let got = waiter.run(move || pending.wait(Some(LONG)).map(|c| c.is_some()));
        assert!(got.recv_timeout(LONG).unwrap().unwrap());
    }

    fn arrives_after_register(waiter: &Waiter) {
        let acc = Acceptor::bind("127.0.0.1:0").unwrap();
        let token = fresh_token();
        let pending = acc.register(token);
        let got = waiter.run(move || pending.wait(None).map(|c| c.is_some()));
        wait_until("the waiter waits", || waited_on(&acc, token));
        let _peer = connect_data(&acc.local_addr().to_string(), token).unwrap();
        assert!(got.recv_timeout(LONG).unwrap().unwrap());
    }

    fn unregister_wakes_the_waiter(waiter: &Waiter) {
        let acc = Acceptor::bind("127.0.0.1:0").unwrap();
        let token = fresh_token();
        let pending = acc.register(token);
        let got = waiter.run(move || pending.wait(None).map(|c| c.is_some()));
        wait_until("the waiter waits", || waited_on(&acc, token));
        acc.unregister(token);
        let r = got.recv_timeout(LONG).unwrap();
        assert!(matches!(r, Err(Error::Disconnected(_))), "{r:?}");
    }

    fn a_timed_wait_times_out(waiter: &Waiter) {
        let acc = Acceptor::bind("127.0.0.1:0").unwrap();
        let pending = acc.register(fresh_token());
        let got = waiter.run(move || {
            let start = Instant::now();
            let r = pending.wait(Some(Duration::from_millis(50)));
            (r.map(|c| c.is_some()), start.elapsed())
        });
        let (r, took) = got.recv_timeout(LONG).unwrap();
        assert!(!r.unwrap(), "nothing arrived");
        assert!(
            took >= Duration::from_millis(50),
            "gave up early, after {took:?}"
        );
    }

    fn an_interrupt_wakes_a_pending_reader(waiter: &Waiter) {
        let acc = Acceptor::bind("127.0.0.1:0").unwrap();
        let token = fresh_token();
        let (mut reader, interruptor) = remote_reader_interruptible(&acc, token);
        let got = waiter.run(move || reader.read(&mut [0u8; 1]).is_err());
        wait_until("the reader waits", || waited_on(&acc, token));
        interruptor.interrupt();
        assert!(got.recv_timeout(LONG).unwrap(), "the read must fail");
    }
}
