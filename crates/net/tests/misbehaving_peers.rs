//! Peers that misbehave on a node's accept path delay nobody else. The
//! accept loop holds every connection whose preamble is incomplete and
//! waits on all of them and the listener at once, so while each kind of
//! misbehaviour below is in progress a `Ping` from a well-behaved client is
//! answered promptly, and whatever the node accepted from a misbehaving
//! peer is closed by `PREAMBLE_TIMEOUT` at the latest. One test per file:
//! the fd count is process-wide.

#![cfg(target_os = "linux")]

use kpn_net::{Node, ServerHandle};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `acceptor::PREAMBLE_TIMEOUT`, which is private to the crate.
const PREAMBLE_TIMEOUT: Duration = Duration::from_secs(1);

/// How long a ping may take beside a misbehaving peer.
const PROMPT: Duration = Duration::from_millis(100);

/// The connection tags of `frame.rs`.
const CONN_HELLO: u8 = b'H';
const CONN_CONTROL: u8 = b'C';

fn fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

fn wait_until(within: Duration, what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + within;
    while !pred() {
        assert!(Instant::now() < deadline, "not within {within:?}: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Pings from a thread of its own, so that a stall fails the test instead
/// of hanging it, and asserts the answer came within [`PROMPT`].
fn ping_promptly(handle: &ServerHandle, beside: &str) {
    let (tx, rx) = mpsc::channel();
    let handle = handle.clone();
    std::thread::spawn(move || {
        let start = Instant::now();
        let _ = tx.send(handle.ping().map(|()| start.elapsed()));
    });
    let took = rx
        .recv_timeout(10 * PROMPT)
        .unwrap_or_else(|_| panic!("ping unanswered beside {beside}"))
        .expect("ping");
    assert!(took < PROMPT, "ping took {took:?} beside {beside}");
}

/// True once the node has closed its end: a read sees EOF or a reset.
fn closed_by_node(stream: &mut TcpStream) -> bool {
    stream.set_nonblocking(true).unwrap();
    let closed = match stream.read(&mut [0u8; 16]) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => e.kind() != std::io::ErrorKind::WouldBlock,
    };
    stream.set_nonblocking(false).unwrap();
    closed
}

#[test]
fn misbehaving_peers_on_the_accept_path_delay_nobody() {
    let node = Node::serve("127.0.0.1:0").unwrap();
    let handle = ServerHandle::new(node.addr().to_string());
    handle.ping().unwrap();
    let connect = || TcpStream::connect(node.addr()).unwrap();

    // A slow-drip preamble: a data connection's tag and token, one byte
    // every 300 ms. The node drops it once its preamble is overdue.
    let mut drip = connect();
    let started = Instant::now();
    let preamble = [CONN_HELLO, 0, 0, 0, 0, 0, 0, 0, 7];
    for byte in preamble {
        if drip.write_all(&[byte]).is_err() {
            break;
        }
        ping_promptly(&handle, "a slow-drip preamble");
        std::thread::sleep(Duration::from_millis(300));
    }
    wait_until(2 * PREAMBLE_TIMEOUT, "the drip is dropped", || {
        closed_by_node(&mut drip)
    });
    assert!(
        started.elapsed() >= PREAMBLE_TIMEOUT,
        "a dripping peer was dropped before its preamble was overdue"
    );

    // Half a preamble, then the peer is gone without a word more.
    let mut half = connect();
    half.write_all(&[CONN_HELLO, 0, 0, 0]).unwrap();
    ping_promptly(&handle, "a half-open preamble");
    half.shutdown(Shutdown::Both).unwrap();
    drop(half);
    // A control session whose client leaves the reply unread and goes:
    // closing with unread data resets the connection.
    let mut reset = connect();
    reset.write_all(&[CONN_CONTROL]).unwrap();
    let ping = kpn_codec::to_bytes(&kpn_net::ControlRequest::Ping).unwrap();
    reset.write_all(&(ping.len() as u32).to_be_bytes()).unwrap();
    reset.write_all(&ping).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    drop(reset);
    ping_promptly(&handle, "a reset control session");

    // An unknown connection tag is dropped at once.
    let mut stranger = connect();
    stranger.write_all(b"Z").unwrap();
    ping_promptly(&handle, "an unknown connection tag");
    wait_until(PREAMBLE_TIMEOUT / 2, "the unknown tag is dropped", || {
        closed_by_node(&mut stranger)
    });
    drop(stranger);

    // 64 silent peers at once: the node's ends are closed by the preamble
    // deadline, while ours are still held.
    std::thread::sleep(Duration::from_millis(50));
    let baseline = fds();
    let mut silent: Vec<TcpStream> = (0..64).map(|_| connect()).collect();
    ping_promptly(&handle, "64 silent peers");
    wait_until(
        2 * PREAMBLE_TIMEOUT,
        "the node closes its ends of 64 silent peers",
        || fds() <= baseline + silent.len(),
    );
    assert!(silent.iter_mut().all(closed_by_node));
    drop(silent);
    wait_until(PREAMBLE_TIMEOUT, "fds back at their baseline", || {
        fds() <= baseline
    });
    ping_promptly(&handle, "nothing");
}
