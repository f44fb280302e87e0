//! How many pictures the deadlock monitor takes on networks that never
//! deadlock (`MonitorStats::evaluations`), and how often it wakes a
//! network that waits. A wait counts toward Parks' all-blocked trigger
//! until its wake is issued, not until its task resumes (DESIGN.md §4c),
//! so the block that follows a wake does not evaluate a picture whose
//! looks would reject the woken task anyway; and a local wait keeps no
//! clock, so a network that waits takes no wakeups at all.
//!
//! Every network pins its executor; the counts hold under every
//! `KPN_EXEC`.

use kpn::core::stdlib::Identity;
use kpn::core::{
    DataReader, DataWriter, ExecMode, IterativeProcess, Network, NetworkConfig, Process, ThreadExec,
};
use kpn::dist::{build_network, grid, simulate, GossipMax, MIN_CAPACITY};
use std::time::{Duration, Instant};

/// The `relay_local` graph: a client process sends `n` tokens one at a
/// time through two `Identity` processes and reads each back before the
/// next. Every read blocks, and every block but the first follows a wake.
fn relay_evaluations(mode: ExecMode, n: i64) -> u64 {
    let net = Network::with_config(NetworkConfig {
        mode,
        ..NetworkConfig::default()
    });
    let (w_in, r_in) = net.channel();
    let (w_mid, r_mid) = net.channel();
    let (w_back, r_back) = net.channel();
    net.add(Identity::new(r_in, w_mid));
    net.add(Identity::new(r_mid, w_back));
    net.add_fn("client", move |_| {
        let (mut w, mut r) = (DataWriter::new(w_in), DataReader::new(r_back));
        for i in 0..n {
            w.write_i64(i)?;
            assert_eq!(r.read_i64()?, i, "round trip {i}");
        }
        Ok(())
    });
    net.start();
    let stats = net.join().unwrap().monitor;
    assert_eq!((stats.capacity_grows, stats.true_deadlocks), (0, 0));
    stats.evaluations
}

#[test]
fn a_relay_takes_no_picture_per_round_trip() {
    // A trigger that counts a woken task as blocked takes about three
    // per round trip, each refused by the woken task's look.
    for mode in [ExecMode::Pooled { workers: 2 }, ExecMode::Thread] {
        let evaluations = relay_evaluations(mode.clone(), 20_000);
        assert!(evaluations <= 10, "{mode:?}: {evaluations} pictures");
    }
}

#[test]
fn a_gossip_grid_takes_no_picture_per_round() {
    // 256 processes exchanging one message per edge per round, on two
    // workers; counting woken tasks as blocked takes thousands here.
    const SIDE: usize = 16;
    const ROUNDS: u64 = 64;
    let graph = grid(SIDE, SIDE).unwrap();
    let inputs: Vec<u64> = (0..(SIDE * SIDE) as u64)
        .map(|v| v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7)
        .collect();
    let expected = simulate::<GossipMax>(&graph, &inputs, ROUNDS).unwrap();
    let net = Network::with_config(NetworkConfig {
        mode: ExecMode::Pooled { workers: 2 },
        ..NetworkConfig::default()
    });
    let outputs = build_network::<GossipMax>(&net, &graph, &inputs, ROUNDS, MIN_CAPACITY).unwrap();
    net.start();
    let stats = net.join().unwrap().monitor;
    assert_eq!(*outputs.lock().unwrap(), expected);
    assert!(stats.evaluations <= 64, "{} pictures", stats.evaluations);
}

/// Voluntary context switches summed over the threads named `comm`.
fn voluntary_switches(comm: &str) -> u64 {
    let mut sum = 0;
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let path = task.unwrap().path();
        let read = |file| std::fs::read_to_string(path.join(file)).unwrap_or_default();
        if read("comm").trim() != comm {
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

#[test]
fn an_idle_thread_network_takes_no_wakeups() {
    // 64 `Identity` processes in a chain, each a thread, wait on a writer
    // outside the network. Nothing can happen until it writes, and no
    // event says otherwise, so nothing wakes them: a wait that re-ran
    // detection every 20 ms took about 1,600 wakeups in the half second.
    const PROCESSES: usize = 64;
    // `ExecMode::Thread`, on a thread executor of its own: the process-wide
    // one shares its condvars with the other tests of this file, whose
    // wakes may wake these threads too.
    let net = Network::with_exec(NetworkConfig::default(), ThreadExec::new());
    let (head, mut r) = net.channel();
    head.declare_external();
    for _ in 0..PROCESSES {
        let (w, next) = net.channel();
        // A name of their own: other tests of this file run `Identity`
        // threads of their own meanwhile.
        let identity = Box::new(IterativeProcess::new(Identity::new(r, w)));
        net.add_fn("idle", move |ctx| identity.run(ctx));
        r = next;
    }
    r.declare_external();
    net.start();
    let deadline = Instant::now() + Duration::from_secs(10);
    while net.monitor().snapshot().blocked_reads < PROCESSES {
        assert!(Instant::now() < deadline, "the chain never parked");
        std::thread::sleep(Duration::from_millis(1));
    }
    let before = voluntary_switches("kpn:idle");
    std::thread::sleep(Duration::from_millis(500));
    let woke = voluntary_switches("kpn:idle") - before;
    drop(head);
    drop(r);
    net.join().unwrap();
    assert!(woke < PROCESSES as u64, "{woke} wakeups in 500 ms");
}
