//! An idle pooled network takes no wakeups: the pool keeps no clock for
//! its networks, and a remote wait ticks its monitor through a timer of
//! its own. The pooled twin of `monitor_wakes`'
//! `an_idle_thread_network_takes_no_wakeups`.
//!
//! One test per file: every pool's workers are named `kpn-pool-worker`, so
//! a pool of another test would count here. Linux x86_64 only (real
//! fibers and the reactor, not Miri).

#![cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]

use kpn::core::stdlib::Identity;
use kpn::core::{ChannelReader, Exec, Network, NetworkConfig, PooledExec};
use kpn::net::{remote_reader, remote_writer, Acceptor};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PROCESSES: usize = 64;
const WINDOW: Duration = Duration::from_millis(500);

/// Voluntary context switches summed over the pool's worker threads.
fn worker_wakeups() -> u64 {
    let mut sum = 0;
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let path = task.unwrap().path();
        let read = |file| std::fs::read_to_string(path.join(file)).unwrap_or_default();
        if read("comm").trim() != "kpn-pool-worker" {
            continue;
        }
        let status = read("status");
        let line = status
            .lines()
            .find(|l| l.starts_with("voluntary_ctxt_switches"));
        sum += line
            .and_then(|l| l.split_whitespace().last()?.parse::<u64>().ok())
            .unwrap_or(0);
    }
    sum
}

/// Chains `PROCESSES` `Identity` processes behind `head`, starts the
/// network, waits until every one of them waits, and counts the pool's
/// worker wakeups over [`WINDOW`]. Returns the chain's tail, to be dropped
/// once the head has been let go.
fn wakeups_of_an_idle_chain(net: &Network, head: ChannelReader) -> (u64, ChannelReader) {
    let mut r = head;
    for _ in 0..PROCESSES {
        let (w, next) = net.channel();
        net.add(Identity::new(r, w));
        r = next;
    }
    r.declare_external();
    net.start();
    let deadline = Instant::now() + Duration::from_secs(10);
    while net.monitor().snapshot().blocked_reads < PROCESSES {
        assert!(Instant::now() < deadline, "the chain never parked");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Let the last process's worker reach its sleep.
    std::thread::sleep(Duration::from_millis(20));
    let before = worker_wakeups();
    std::thread::sleep(WINDOW);
    (worker_wakeups() - before, r)
}

#[test]
fn an_idle_pooled_network_takes_no_wakeups() {
    let pool: Arc<dyn Exec> = PooledExec::new(2);

    // Every process waits on a local channel, the first on a writer
    // outside the network: no event can come, so nothing wakes a worker.
    // A pool that ticked its networks' monitors on a 1 ms heartbeat took
    // ~700–800 wakeups here.
    let net = Network::with_exec(NetworkConfig::default(), pool.clone());
    let (head, r) = net.channel();
    head.declare_external();
    let (woke, tail) = wakeups_of_an_idle_chain(&net, r);
    drop(head);
    drop(tail);
    net.join().unwrap();
    assert!(
        woke < PROCESSES as u64,
        "local head: {woke} wakeups in {WINDOW:?}"
    );

    // The first process waits for a connection that never comes: its wait
    // ticks its monitor once per `MONITOR_TICK` (~25 in the window), and
    // nothing else wakes a worker.
    let acceptor = Acceptor::bind("127.0.0.1:0").unwrap();
    let token = 0x1D1E;
    let net = Network::with_exec(NetworkConfig::default(), pool.clone());
    let (woke, tail) = wakeups_of_an_idle_chain(&net, remote_reader(&acceptor, token));
    // A writer that connects and closes ends the chain with an EOF.
    drop(remote_writer(&acceptor.local_addr().to_string(), token).unwrap());
    drop(tail);
    net.join().unwrap();
    assert!(
        woke < PROCESSES as u64,
        "remote head: {woke} wakeups in {WINDOW:?}"
    );
    acceptor.close();
    pool.shutdown();
}
