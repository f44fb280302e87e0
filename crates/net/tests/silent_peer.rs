//! One silent peer must not hold a node's port. The accept loop is one task
//! of the node's executor, and it holds every connection whose preamble
//! (tag, hello token) is incomplete while it waits for any of them and for
//! the listener at once: a peer that connects and sends nothing delays no
//! other connection, and a dropped `Node` still gives back its threads and
//! listener while one is held. One test per file: the thread count is
//! process-wide.

#![cfg(target_os = "linux")]

use kpn_core::DataReader;
use kpn_net::{GraphBuilder, Node, ServerHandle};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a ping may take while a silent peer is held: far below
/// `acceptor::PREAMBLE_TIMEOUT` (1 s), which is how long a peer may take to
/// send its preamble.
const PROMPT: Duration = Duration::from_millis(100);

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn a_silent_peer_delays_nobody() {
    let baseline = threads();
    let node = Node::serve("127.0.0.1:0").unwrap();
    let handle = ServerHandle::new(node.addr().to_string());

    // Connected, accepted, and never says a byte — held open to the end.
    let _silent = TcpStream::connect(node.addr()).unwrap();

    // The ping does not queue behind it. It runs on a thread of its own so
    // that a stall is a failed assertion, not a hung test.
    let (tx, rx) = mpsc::channel();
    let pinger = std::thread::spawn({
        let handle = handle.clone();
        move || {
            let start = Instant::now();
            tx.send(handle.ping().map(|()| start.elapsed()))
        }
    });
    let took = rx
        .recv_timeout(10 * PROMPT)
        .expect("ping unanswered: the accept loop is waiting for the silent peer")
        .expect("ping");
    assert!(took < PROMPT, "ping took {took:?} beside a silent peer");
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

    // A second silent peer is in the accept loop's hands when the node is
    // dropped: the threads and the listener must still go.
    let _silent_too = TcpStream::connect(node.addr()).unwrap();
    // (Either order of accept and drop must pass; the pause only makes the
    // one in which the accept loop already holds it the likely one.)
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
