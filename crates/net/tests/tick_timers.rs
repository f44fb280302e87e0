//! A remote wait ticks its network's monitor once per `MONITOR_TICK` it
//! lasts, through a reactor timer its endpoint arms when it parks a pooled
//! fiber. Reactor timers are never cancelled, so an endpoint keeps at most
//! one pending: a relay whose every hop waits on a socket would otherwise
//! leave a timer behind per hop, each firing once, long after its wait.
//!
//! Linux x86_64 only (real fibers and the reactor, not Miri).

#![cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]

use kpn_core::monitor::MONITOR_TICK;
use kpn_core::stdlib::Identity;
use kpn_core::{DataReader, DataWriter, Exec, Network, NetworkConfig, PooledExec};
use kpn_net::{remote_reader, remote_writer, Acceptor};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The tests never share the machine's CPUs with each other.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const ROUND_TRIPS: i64 = 10_000;
/// Two remote channels, each with a writing and a reading end.
const ENDPOINTS: u64 = 4;

/// Runs `ROUND_TRIPS` one-token round trips from a client through an
/// `Identity` and back, over two loopback sockets, on a pool of `workers`,
/// and checks the pool's reactor fired no more timers than one per
/// endpoint per period, plus two. `rio`'s time slice adds few: it counts
/// socket operations with no socket wait between them, so a relay end
/// yields on a timer of its own only once per slice of 1 024, and only when
/// its peer is always ahead and it never waits.
fn a_socket_relay_leaves_no_timer_per_hop(workers: usize, tokens: (u64, u64)) {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let pool = PooledExec::new(workers);
    let exec: Arc<dyn Exec> = pool.clone();
    let acceptor = Acceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().to_string();
    let net = Network::with_exec(NetworkConfig::default(), exec);
    let there = remote_reader(&acceptor, tokens.0);
    let back = remote_reader(&acceptor, tokens.1);
    net.add(Identity::new(
        there,
        remote_writer(&addr, tokens.1).unwrap(),
    ));
    let out = remote_writer(&addr, tokens.0).unwrap();
    net.add_fn("client", move |_| {
        let (mut out, mut back) = (DataWriter::new(out), DataReader::new(back));
        for i in 0..ROUND_TRIPS {
            out.write_i64(i)?;
            out.flush()?;
            assert_eq!(back.read_i64()?, i);
        }
        Ok(())
    });
    let start = Instant::now();
    net.run().unwrap();
    let periods = (start.elapsed().as_nanos() / MONITOR_TICK.as_nanos()) as u64;
    let stats = pool.scheduler_stats().unwrap();
    let fired = stats
        .reactor
        .expect("the relay's fibers parked")
        .timer_wakeups;
    let bound = ENDPOINTS * (periods + 2);
    assert!(
        fired <= bound,
        "pooled:{workers}: {fired} timers fired over {periods} periods (bound {bound})"
    );
    acceptor.close();
    pool.shutdown();
}

#[test]
fn a_socket_relay_leaves_no_timer_per_hop_on_one_worker() {
    a_socket_relay_leaves_no_timer_per_hop(1, (0x71C1, 0x71C2));
}

#[test]
fn a_socket_relay_leaves_no_timer_per_hop_on_two_workers() {
    a_socket_relay_leaves_no_timer_per_hop(2, (0x71C3, 0x71C4));
}
