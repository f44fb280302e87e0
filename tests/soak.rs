//! Long-running soak tests, `#[ignore]`d by default:
//! `cargo test --release -- --ignored` runs them.

use kpn::core::graphs::{first_primes, hamming, hamming_reference, primes_reference, GraphOptions};
use kpn::core::{MonitorTiming, Network, NetworkConfig};
use kpn::net::chaos::{chaos_policy, relay_history, sieve_history, ChaosCluster};
use kpn::net::FaultProfile;

/// Fast monitor cadence: soak graphs starve channels on purpose, so the
/// default 20ms deadlock tick dominates runtime.
fn fast_net() -> Network {
    Network::with_config(NetworkConfig {
        monitor_timing: MonitorTiming::fast(),
        ..Default::default()
    })
}

#[test]
#[ignore = "soak: run with --ignored"]
fn sieve_first_500_primes() {
    // ~500 dynamically-spawned Modulo processes.
    let net = fast_net();
    let out = first_primes(&net, 500, &GraphOptions::default());
    let report = net.run().unwrap();
    let primes = out.lock().unwrap();
    let reference: Vec<i64> = primes_reference(4000).into_iter().take(500).collect();
    assert_eq!(*primes, reference);
    assert!(report.processes_run >= 500);
}

#[test]
#[ignore = "soak: run with --ignored"]
fn hamming_5000_values_with_starved_channels() {
    let net = fast_net();
    let opts = GraphOptions {
        channel_capacity: 32,
        ..Default::default()
    };
    let out = hamming(&net, 5000, &opts);
    let report = net.run().unwrap();
    assert_eq!(*out.lock().unwrap(), hamming_reference(5000));
    assert!(report.monitor.capacity_grows > 0);
    // The growth log tells us the buffer demand Parks' procedure found.
    let max_cap = report
        .monitor
        .growth_log
        .iter()
        .map(|(_, _, new)| *new)
        .max()
        .unwrap();
    assert!(max_cap >= 64);
}

#[test]
#[ignore = "soak: run with --ignored"]
fn chaos_relay_20k_roundtrips_under_faults() {
    // Strict ping-pong rhythm sustained across hundreds of injected
    // resets/refusals: every value must come back, in order, exactly once.
    let profile = FaultProfile {
        mean_ops_between_faults: 300,
        refuse_connects: 1,
        max_faults: 250,
        ..FaultProfile::default()
    };
    let cluster =
        ChaosCluster::with_faults(2, 0x50AC_0001, profile, chaos_policy()).expect("cluster");
    let got = relay_history(&cluster, 20_000).expect("relay under faults");
    assert_eq!(got, (0..20_000).collect::<Vec<i64>>());
    assert!(cluster.injected() > 0, "fault schedule never fired");
}

#[test]
#[ignore = "soak: run with --ignored"]
fn chaos_sieve_2000_under_faults() {
    // The self-modifying sieve (hundreds of dynamically spawned Modulo
    // processes on the server) with its feed and output links under fire.
    let profile = FaultProfile {
        mean_ops_between_faults: 150,
        refuse_connects: 1,
        max_faults: 120,
        ..FaultProfile::default()
    };
    let cluster =
        ChaosCluster::with_faults(2, 0x50AC_0002, profile, chaos_policy()).expect("cluster");
    let primes = sieve_history(&cluster, 2000).expect("sieve under faults");
    assert_eq!(primes, primes_reference(2000));
    assert!(cluster.injected() > 0, "fault schedule never fired");
}

#[test]
#[ignore = "soak: run with --ignored"]
fn meta_dynamic_50k_tasks() {
    use kpn::parallel::{
        meta_dynamic, register_stock_tasks, synthetic_task_stream, Consumer, Producer,
        TaskEnvelope, TaskTypeRegistry,
    };
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let mut reg = TaskTypeRegistry::new();
    register_stock_tasks(&mut reg);
    let reg = reg.into_shared();
    let net = fast_net();
    let (tw, tr) = net.channel();
    let (rw, rr) = net.channel();
    const TASKS: u64 = 50_000;
    net.add(Producer::new(synthetic_task_stream(TASKS, 0.0), tw));
    meta_dynamic(&net, reg, &[1.0, 2.0, 0.5, 1.5], tr, rw);
    let count = Arc::new(AtomicU64::new(0));
    let c = count.clone();
    let expected = Arc::new(AtomicU64::new(0));
    let e = expected.clone();
    net.add(Consumer::new(rr, move |env: TaskEnvelope| {
        let seq = env.unpack::<u64>()?;
        // Task order must be exact over the whole run.
        assert_eq!(seq, e.fetch_add(1, Ordering::SeqCst));
        c.fetch_add(1, Ordering::SeqCst);
        Ok(true)
    }));
    net.run().unwrap();
    assert_eq!(count.load(Ordering::SeqCst), TASKS);
}
