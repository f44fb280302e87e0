//! The per-node connection acceptor.
//!
//! Every participating node (compute server or client) runs one
//! [`Acceptor`]: a TCP listener whose accept loop dispatches incoming
//! connections by their first byte — data connections (`Hello` + endpoint
//! token) are routed to the waiting channel endpoint, control sessions are
//! handed to the compute-server logic, each as a task of its own.
//!
//! The accept loop is one task of the node's executor. It waits on the
//! listener and on every connection whose preamble is incomplete at once
//! (`rio::wait_readable`): a pooled fiber parks on its pool's reactor, a
//! thread blocks in one `poll(2)`. A peer that is silent or slow delays
//! nobody else, and is dropped once [`PREAMBLE_TIMEOUT`] has passed. (Off
//! Linux x86_64, which has neither, the loop blocks in `accept` and in
//! each preamble read instead, for up to the same bound per read.)
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

use crate::frame::{CONN_CONTROL, CONN_HELLO, TAG_STOP};
use crate::rio::{forget, wait_readable, Ticker, REACTOR};
use crate::transport::{NetProfile, Transport};
use kpn_core::exec::reactor::Interest;
use kpn_core::{Error, Exec, ExecMode, Result};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

type ControlHandler = Arc<dyn Fn(TcpStream) + Send + Sync>;

/// How long an accepted connection may take to send its whole preamble
/// (the connection tag, then a data connection's hello token). A real peer
/// writes it straight after `connect`; one that has not by then is
/// dropped. The accept loop holds every unfinished preamble at once, so
/// the bound only limits how long a silent peer holds its own fd.
const PREAMBLE_TIMEOUT: Duration = Duration::from_secs(1);

/// The one-shot slot a registered endpoint waits on for its data
/// connection. The acceptor fills it when the connection arrives, or
/// cancels it when the registration is dropped, and wakes the waiter
/// through the waiter's own executor: a pooled fiber parks and an OS
/// thread blocks, on the same path ([`Exec::park`]).
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
    /// A process that has to wait is registered with its network's monitor
    /// as blocked reading, for as long as it does, and ticks the monitor
    /// while it waits ([`Ticker`]), as a fiber or as a thread.
    pub(crate) fn wait(&self, timeout: Option<Duration>) -> Result<Option<Box<dyn Transport>>> {
        if let Some(conn) = self.0.lock().conn.take() {
            return Ok(Some(conn));
        }
        let _waiting = crate::rio::waiting(Interest::Read)?;
        let exec = kpn_core::exec::current_exec()
            .ok_or_else(|| Error::Disconnected("no executor to wait on".into()))?;
        let key = Arc::as_ptr(&self.0) as usize;
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut ticker = Ticker::new();
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
            exec.park(key, token, ticker.until(deadline))?;
            ticker.tick();
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
    /// Runs the accept loop and every control session.
    pub(crate) exec: Arc<dyn Exec>,
    state: Mutex<AcceptorState>,
}

/// A connection whose preamble has not all arrived.
struct Greeting {
    stream: TcpStream,
    /// The tag, then a data connection's token.
    bytes: [u8; 9],
    got: usize,
    deadline: Instant,
}

impl Greeting {
    /// An accepted connection, non-blocking where the accept loop waits on
    /// all its sockets at once, and otherwise blocking each preamble read
    /// for up to [`PREAMBLE_TIMEOUT`].
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(REACTOR)?;
        stream.set_read_timeout(Some(PREAMBLE_TIMEOUT))?;
        Ok(Greeting {
            stream,
            bytes: [0; 9],
            got: 0,
            deadline: Instant::now() + PREAMBLE_TIMEOUT,
        })
    }

    /// Reads what has arrived of the preamble and nothing past it:
    /// `Ok(true)` once it is complete.
    fn read(&mut self) -> std::io::Result<bool> {
        loop {
            let want = if self.bytes[0] == CONN_HELLO { 9 } else { 1 };
            if self.got == want {
                return Ok(true);
            }
            match self.stream.read(&mut self.bytes[self.got..want]) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.got += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
    }
}

/// The accept loop: take a connection if one is waiting, advance every
/// preamble, hand on the complete ones, drop the failed and the overdue,
/// and once nothing is left to accept, wait for the next readiness or
/// deadline. It holds the acceptor only between waits, and ends once the
/// acceptor is closed or gone.
fn accept_loop(acceptor: &Weak<Acceptor>, listener: &TcpListener) {
    let mut greetings: Vec<Greeting> = Vec::new();
    while let Some(acc) = acceptor.upgrade().filter(|a| !a.is_closed()) {
        let accepted = listener.accept().and_then(|(s, _)| Greeting::new(s));
        let drained = accepted.is_err();
        greetings.extend(accepted);
        for mut greeting in std::mem::take(&mut greetings) {
            match greeting.read() {
                Ok(false) if Instant::now() < greeting.deadline => greetings.push(greeting),
                done => {
                    forget(&greeting.stream);
                    if let Ok(true) = done {
                        acc.dispatch(greeting);
                    }
                }
            }
        }
        drop(acc);
        if drained {
            let deadline = greetings.iter().map(|g| g.deadline).min();
            wait_readable(listener, greetings.iter().map(|g| &g.stream), deadline);
        }
    }
    forget(listener);
    greetings.iter().for_each(|g| forget(&g.stream));
}

impl Acceptor {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop, with the default (plain TCP, fail-fast) profile.
    pub fn bind(addr: &str) -> Result<Arc<Self>> {
        Self::bind_with(addr, NetProfile::default())
    }

    /// Binds with an explicit [`NetProfile`]: accepted data connections
    /// are wrapped by the profile's transport factory. The accept loop is
    /// a task of the thread executor: one thread.
    pub fn bind_with(addr: &str, profile: NetProfile) -> Result<Arc<Self>> {
        Self::start(addr, profile, ExecMode::Thread.build())
    }

    /// Binds and starts the accept loop as a task of `exec`, which runs
    /// the control sessions too.
    pub(crate) fn start(addr: &str, profile: NetProfile, exec: Arc<dyn Exec>) -> Result<Arc<Self>> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(REACTOR)?;
        let acceptor = Arc::new(Acceptor {
            addr: listener.local_addr()?,
            profile,
            exec: exec.clone(),
            state: Mutex::new(AcceptorState {
                waiting: HashMap::new(),
                parked: HashMap::new(),
                dead: HashSet::new(),
                control: None,
                closed: false,
            }),
        });
        let weak = Arc::downgrade(&acceptor);
        exec.spawn("acceptor", Box::new(move || accept_loop(&weak, &listener)));
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
        // Wake the accept loop with a throwaway connection.
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
            None => drop(st.waiting.insert(token, pending.clone())),
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

    /// Hands on a connection whose preamble is complete, back in blocking
    /// mode: whoever reads the rest decides how it waits.
    fn dispatch(&self, greeting: Greeting) {
        let Greeting {
            mut stream, bytes, ..
        } = greeting;
        if stream.set_nonblocking(false).is_err() || stream.set_read_timeout(None).is_err() {
            return;
        }
        match bytes[0] {
            CONN_HELLO => {
                let token = u64::from_be_bytes(bytes[1..].try_into().unwrap_or_default());
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
                    self.exec.spawn("control", Box::new(move || h(stream)));
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
