//! One silent peer must not hold a node's port. The acceptor reads each
//! connection's preamble (tag, hello token) on its accept thread; a peer
//! that connects and sends nothing used to park that thread in `read_exact`
//! for good — no control session, no data connection and not even
//! `Acceptor::close`'s wake-up got past it, so a dropped `Node` kept its
//! thread and listener. The read is bounded now (`PREAMBLE_TIMEOUT` in
//! `acceptor.rs`). One test per file: the thread count is process-wide.

#![cfg(target_os = "linux")]

use kpn_core::DataReader;
use kpn_net::{GraphBuilder, Node, ServerHandle};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `acceptor::PREAMBLE_TIMEOUT`, which is private to the crate.
const PREAMBLE_TIMEOUT: Duration = Duration::from_secs(1);

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn a_silent_peer_delays_the_accept_loop_by_a_bounded_time() {
    let baseline = threads();
    let node = Node::serve("127.0.0.1:0").unwrap();
    let handle = ServerHandle::new(node.addr().to_string());

    // Connected, accepted, and never says a byte — held open to the end.
    let _silent = TcpStream::connect(node.addr()).unwrap();

    // The ping queues behind it. It runs on a thread of its own so that an
    // unbounded stall is a failed assertion, not a hung test.
    let (tx, rx) = mpsc::channel();
    let pinger = std::thread::spawn({
        let handle = handle.clone();
        move || tx.send(handle.ping())
    });
    rx.recv_timeout(2 * PREAMBLE_TIMEOUT)
        .expect("ping unanswered: the accept loop is still waiting for the silent peer")
        .expect("ping");
    pinger.join().unwrap().unwrap();

    // The node is as good as new: a deployment round-trips.
    let client = Node::serve("127.0.0.1:0").unwrap();
    let mut g = GraphBuilder::new();
    let a = g.channel();
    let b = g.channel();
    g.add(0, "Sequence", &(0i64, Some(5u64)), &[], &[a])
        .unwrap();
    g.add(0, "Scale", &2i64, &[a], &[b]).unwrap();
    g.claim_reader(b).unwrap();
    let mut dep = g.deploy(&client, &[handle]).unwrap();
    let mut r = DataReader::new(dep.readers.remove(&b).unwrap());
    for i in 0..5 {
        assert_eq!(r.read_i64().unwrap(), i * 2);
    }
    drop(r);
    dep.join().unwrap();
    drop(dep);
    drop(client);

    // A second silent peer is in the accept thread's hands when the node is
    // dropped: the wake-up connection of `close()` queues behind it, and
    // the thread and the listener must still go.
    let _silent_too = TcpStream::connect(node.addr()).unwrap();
    // (Either order of accept and drop must pass; the pause only makes the
    // one in which the accept thread is already reading the likely one.)
    std::thread::sleep(Duration::from_millis(100));
    drop(node);
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads() != baseline {
        assert!(
            Instant::now() < deadline,
            "dropped nodes left {} threads, baseline {baseline}",
            threads()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
