//! A dropped `Node` returns the process to its baseline thread and fd
//! count: its accept loop ends, the listening socket closes, and the
//! node's executor retires — a pool's workers exit and its reactor's fds
//! close, a thread executor's accept thread exits (before the first of
//! these, `Node::serve` in a loop died with `EMFILE` after ~1,000 nodes).
//! One test per file: the counts are process-wide.

#![cfg(target_os = "linux")]

use kpn::net::{Node, ServerHandle};
use std::time::{Duration, Instant};

fn count(dir: &str) -> usize {
    std::fs::read_dir(dir).unwrap().count()
}

fn threads_and_fds() -> (usize, usize) {
    (count("/proc/self/task"), count("/proc/self/fd"))
}

#[test]
fn served_and_dropped_nodes_leave_no_thread_or_fd_behind() {
    let baseline = threads_and_fds();
    for _ in 0..50 {
        let node = Node::serve("127.0.0.1:0").unwrap();
        // A control session too: its thread ends with the client's stream.
        ServerHandle::new(node.addr().to_string()).ping().unwrap();
        assert!(
            threads_and_fds().0 > baseline.0,
            "a live node has an accept thread"
        );
        drop(node);
    }
    // Thread exit is asynchronous to the drop that requested it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads_and_fds() != baseline {
        assert!(
            Instant::now() < deadline,
            "50 dropped nodes left (threads, fds) at {:?}, baseline {baseline:?}",
            threads_and_fds()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
