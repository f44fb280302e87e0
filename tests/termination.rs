//! Integration tests for §3.4's graceful-termination machinery across the
//! whole stack: iteration limits, data-dependent stops, cascades through
//! reconfigured graphs, and failure injection.

use kpn::core::graphs::{newton_sqrt, GraphOptions};
use kpn::core::stdlib::{Collect, Discard, Duplicate, Scale, Sequence};
use kpn::core::{DeadlockPolicy, Error, Network, NetworkConfig};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[test]
fn sink_limit_terminates_unbounded_graph_quickly() {
    // "All of the processes do terminate almost immediately after the
    // Print process stops."
    let start = Instant::now();
    let net = Network::new();
    let (aw, ar) = net.channel();
    let (bw, br) = net.channel();
    let out = Arc::new(Mutex::new(Vec::new()));
    net.add(Sequence::unbounded(0, aw));
    net.add(Scale::new(2, ar, bw));
    net.add(Collect::new(br, out.clone()).with_limit(100));
    net.run().unwrap();
    assert_eq!(out.lock().unwrap().len(), 100);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "termination should be prompt"
    );
}

#[test]
fn source_limit_drains_everything() {
    // "In this case no unnecessary computation occurs and all data
    // produced is eventually consumed."
    let net = Network::new();
    let (aw, ar) = net.channel();
    let (bw, br) = net.channel();
    let out = Arc::new(Mutex::new(Vec::new()));
    net.add(Sequence::new(0, 5000, aw));
    net.add(Scale::new(1, ar, bw));
    net.add(Collect::new(br, out.clone()));
    net.run().unwrap();
    assert_eq!(out.lock().unwrap().len(), 5000, "every datum consumed");
}

#[test]
fn data_dependent_termination_newton() {
    // Figure 11: the graph stops itself when the estimate converges.
    let net = Network::new();
    let out = newton_sqrt(&net, 1234.5678, &GraphOptions::default());
    net.run().unwrap();
    let got = out.lock().unwrap();
    assert_eq!(got.len(), 1);
    assert!((got[0] - 1234.5678f64.sqrt()).abs() < 1e-9);
}

#[test]
fn fanout_cascade_stops_all_branches() {
    // One branch stops early; the cascade through Duplicate must
    // eventually stop the other branch and the source.
    let net = Network::new();
    let (aw, ar) = net.channel();
    let (b1w, b1r) = net.channel();
    let (b2w, b2r) = net.channel();
    let out = Arc::new(Mutex::new(Vec::new()));
    net.add(Sequence::unbounded(0, aw));
    net.add(Duplicate::two(ar, b1w, b2w));
    net.add(Collect::new(b1r, out.clone()).with_limit(50));
    net.add(Discard::new(b2r));
    net.run().unwrap();
    assert_eq!(out.lock().unwrap().len(), 50);
}

#[test]
fn abort_interrupts_long_running_network() {
    let net = Network::with_config(NetworkConfig {
        deadlock_policy: DeadlockPolicy::Ignore,
        ..Default::default()
    });
    let (aw, ar) = net.channel();
    net.add(Sequence::unbounded(0, aw));
    net.add(Discard::new(ar));
    net.start();
    std::thread::sleep(Duration::from_millis(50));
    net.abort();
    assert!(matches!(net.join(), Err(Error::Deadlocked)));
}

#[test]
fn true_deadlock_is_detected_and_reported() {
    // Two processes each waiting for the other's output: a genuine Kahn
    // deadlock. Under the simulation scheduler detection is driven by
    // scheduler quiescence rather than wall-clock monitor ticks, so the
    // abort is immediate and the schedule is pinned by the seed.
    use kpn::core::{run_sim, DataReader, DataWriter, SchedulePolicy};
    let start = Instant::now();
    let outcome = run_sim(SchedulePolicy::RandomWalk { seed: 7 }, |net| {
        let (aw, ar) = net.channel();
        let (bw, br) = net.channel();
        net.add_fn("p1", move |_| {
            let mut r = DataReader::new(br);
            let mut w = DataWriter::new(aw);
            loop {
                let v = r.read_i64()?; // waits for p2, which waits for us
                w.write_i64(v)?;
            }
        });
        net.add_fn("p2", move |_| {
            let mut r = DataReader::new(ar);
            let mut w = DataWriter::new(bw);
            loop {
                let v = r.read_i64()?;
                w.write_i64(v)?;
            }
        });
    });
    assert!(matches!(outcome, Err(Error::Deadlocked)));
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "sim-mode detection must not wait on wall-clock ticks"
    );
}

#[test]
fn true_deadlock_is_detected_under_pooled_executor() {
    // The same two-process cycle under the work-stealing pool: both
    // fibers park, the workers' pre-sleep rescan finds no runnable work
    // (hot slots included), and the quiescence tick must hand the
    // monitor an accurate all-blocked picture — a deferred-but-runnable
    // fiber faking quiescence here would make this abort spurious, a
    // lost wakeup would make it hang.
    use kpn::core::{DataReader, DataWriter, ExecMode};
    let start = Instant::now();
    let net = Network::with_config(NetworkConfig {
        mode: ExecMode::Pooled { workers: 2 },
        ..Default::default()
    });
    let (aw, ar) = net.channel();
    let (bw, br) = net.channel();
    net.add_fn("p1", move |_| {
        let mut r = DataReader::new(br);
        let mut w = DataWriter::new(aw);
        loop {
            let v = r.read_i64()?;
            w.write_i64(v)?;
        }
    });
    net.add_fn("p2", move |_| {
        let mut r = DataReader::new(ar);
        let mut w = DataWriter::new(bw);
        loop {
            let v = r.read_i64()?;
            w.write_i64(v)?;
        }
    });
    assert!(matches!(net.run(), Err(Error::Deadlocked)));
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "pooled-mode detection must ride the idle-hook tick, not hang"
    );
}

#[test]
fn deadlock_policy_max_capacity_bounds_memory() {
    // A graph needing unbounded buffers, capped: the monitor grows until
    // the cap, then declares a true deadlock instead of eating all memory.
    use kpn::core::graphs::mod_merge_dag;
    let net = Network::with_config(NetworkConfig {
        deadlock_policy: DeadlockPolicy::Grow {
            max_capacity: Some(32),
        },
        ..Default::default()
    });
    // Needs 9 queued i64s (72 bytes) on the small branch; cap is 32 bytes.
    let _out = mod_merge_dag(&net, 10, 100, 8);
    assert!(matches!(net.run(), Err(Error::Deadlocked)));
}

#[test]
fn poisoned_network_fails_fast_afterwards() {
    let net = Network::new();
    let (_w, r) = net.channel();
    net.add_fn("stuck", move |_| {
        let mut r = r;
        let mut b = [0u8; 1];
        let _ = r.read(&mut b);
        Ok(())
    });
    net.start();
    net.abort();
    let _ = net.join();
    // New operations on the same (aborted) network's channels fail fast.
    let (mut w2, _r2) = net.channel();
    // Channel was created after the abort: writes must fail immediately
    // rather than block forever.
    let result = w2.write_all(&[0u8; 1]);
    // Either outcome is acceptable as long as it does not hang: a fresh
    // channel may still accept its first buffered byte.
    let _ = result;
}
