//! A dropped default-config `Network` gives back everything it started:
//! on the pooled default its pool's workers exit and its reactor's fds
//! close once its last task has finished, also when a process of it waited
//! on a socket through that reactor. One test per file: the counts are
//! process-wide.

#![cfg(target_os = "linux")]

use kpn::core::{DataReader, DataWriter, Network};
use kpn::net::{remote_reader, remote_writer, Acceptor};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn count(dir: &str) -> usize {
    std::fs::read_dir(dir).unwrap().count()
}

fn threads_and_fds() -> (usize, usize) {
    (count("/proc/self/task"), count("/proc/self/fd"))
}

/// One network whose only process reads a cut channel the test writes
/// slowly, so that its read waits on the socket, then joins and drops it.
fn run_one(acceptor: &Arc<Acceptor>, token: u64) {
    let net = Network::new();
    let mut input = DataReader::new(remote_reader(acceptor, token));
    net.add_fn("reader", move |_| {
        for i in 0..3 {
            assert_eq!(input.read_i64()?, i);
        }
        assert!(input.read_i64().is_err());
        Ok(())
    });
    net.start();
    let mut out =
        DataWriter::new(remote_writer(&acceptor.local_addr().to_string(), token).unwrap());
    for i in 0..3 {
        std::thread::sleep(Duration::from_millis(2));
        out.write_i64(i).unwrap();
        out.flush().unwrap();
    }
    drop(out);
    net.join().unwrap();
}

#[test]
fn created_joined_and_dropped_networks_leave_no_thread_or_fd_behind() {
    let acceptor = Acceptor::bind("127.0.0.1:0").unwrap();
    // The first round starts what the test keeps: the accept loop's wait.
    run_one(&acceptor, 1);
    std::thread::sleep(Duration::from_millis(50));
    let baseline = threads_and_fds();
    for token in 2..52 {
        run_one(&acceptor, token);
    }
    // Thread exit is asynchronous to the drop that requested it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads_and_fds() != baseline {
        assert!(
            Instant::now() < deadline,
            "50 dropped networks left (threads, fds) at {:?}, baseline {baseline:?}",
            threads_and_fds()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
