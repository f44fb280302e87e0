//! Regression guards for deadlock-policy behaviour on the example graphs.

use kpn_core::graphs::{fibonacci, fibonacci_reference, hamming, hamming_reference, GraphOptions};
use kpn_core::{DeadlockPolicy, Network, NetworkConfig};

#[test]
fn fibonacci_runs_without_any_monitor() {
    // The Fibonacci feedback network must complete under the `Ignore`
    // policy — proving its default-capacity execution never relies on
    // monitor intervention, which in turn means any monitor action on it
    // would be a false positive (the class of bug this test was written
    // against).
    let net = Network::with_config(NetworkConfig {
        deadlock_policy: DeadlockPolicy::Ignore,
        ..Default::default()
    });
    let out = fibonacci(&net, 20, &GraphOptions::default());
    net.run().unwrap();
    assert_eq!(*out.lock().unwrap(), fibonacci_reference(20));
}

#[test]
fn hamming_with_ample_buffers_needs_no_monitor() {
    let net = Network::with_config(NetworkConfig {
        deadlock_policy: DeadlockPolicy::Ignore,
        ..Default::default()
    });
    let out = hamming(
        &net,
        64,
        &GraphOptions {
            channel_capacity: 64 * 1024, // plenty: no growth needed
            ..Default::default()
        },
    );
    net.run().unwrap();
    assert_eq!(*out.lock().unwrap(), hamming_reference(64));
}

#[test]
fn abort_policy_kills_artificially_deadlocking_graph() {
    // Under `Abort`, the Figure 13 graph (which only needs buffer growth)
    // is torn down instead — demonstrating the policy boundary.
    use kpn_core::graphs::mod_merge_dag;
    let net = Network::with_config(NetworkConfig {
        deadlock_policy: DeadlockPolicy::Abort,
        ..Default::default()
    });
    let _out = mod_merge_dag(&net, 10, 100, 8);
    assert!(net.run().is_err());
}

// ---------------------------------------------------------------------------
// Pins: what the monitor decides on Figures 12 and 13 must not drift.
// Recorded at commit 225b7c0, before the monitor's table / look / verdict
// were made one of each; a refactor of the monitor reproduces them exactly.
// ---------------------------------------------------------------------------

use kpn_core::graphs::mod_merge_dag;
use kpn_core::{ExecMode, SchedulePolicy, SimScheduler};
use std::sync::Arc;

fn hamming_16(net: &Network) {
    let opts = GraphOptions {
        channel_capacity: 16,
        ..Default::default()
    };
    hamming(net, 200, &opts);
}

fn fig13(net: &Network) {
    mod_merge_dag(net, 10, 200, 8);
}

/// Runs `build`'s graph on `mode` and returns its growth log as the string
/// of grown channels, by creation rank in the network (ids are
/// process-global), plus every channel's final capacity. Each growth is
/// checked to double the capacity its channel had, so the string and the
/// initial capacities are the whole log.
fn grown(mode: ExecMode, build: fn(&Network), initial: &[usize]) -> (String, Vec<usize>) {
    let net = Network::with_config(NetworkConfig {
        mode,
        synthesize_capacities: false,
        ..Default::default()
    });
    build(&net);
    let log = net.run().unwrap().monitor.growth_log;
    let report = net.channel_report();
    assert_eq!(report.len(), initial.len(), "the report covers retired channels");
    let mut capacity = initial.to_vec();
    let mut ranks = String::new();
    for (id, old, new) in log {
        let rank = report.binary_search_by_key(&id, |(id, _)| *id).unwrap();
        assert_eq!((old, new), (capacity[rank], 2 * capacity[rank]), "channel {rank}");
        capacity[rank] = new;
        ranks.push(char::from_digit(rank as u32, 10).unwrap());
    }
    let finals: Vec<usize> = report.iter().map(|(_, s)| s.capacity).collect();
    assert_eq!(finals, capacity, "final capacities are the log's last entries");
    (ranks, finals)
}

fn walk(seed: u64) -> (ExecMode, Arc<SimScheduler>) {
    let sched = SimScheduler::new(SchedulePolicy::RandomWalk { seed });
    (ExecMode::Sim(sched.clone()), sched)
}

/// Per random-walk seed 0..16: the schedule's fingerprint and the growth
/// log of Figure 12 (`hamming`, 200 values, 16-byte channels).
const HAMMING_PINS: [(u64, &str); 16] = [
    (0x7f298317d4704387, "12689512658977126"),
    (0x9b81c5637b55b756, "12658971268957126"),
    (0xfa77f33d916bee82, "12658971265897126"),
    (0xb47d47cf91321310, "12689712658957126"),
    (0x8e793a73c6c54066, "1265891268975126"),
    (0x9c0187f75b1f4387, "12689712568957126"),
    (0x49ba54e982cfa996, "1268957126895126"),
    (0x763814c14f769097, "1265789126895126"),
    (0x2880a5e7dd1d1b93, "1268912658977126"),
    (0xa0d3325a4f467ec1, "12658971268957126"),
    (0x45cbf7fb0c0cada5, "12689126589757126"),
    (0xd3f27a12a8248556, "12689571268971265"),
    (0xea0fe4a538f03a66, "12689512689757126"),
    (0xe2ee865e77d1ce61, "12689712658971526"),
    (0x6e02bea38e692e32, "12689571265897126"),
    (0xf69350dd84613792, "1265789126891265"),
];

/// Figure 13 (`mod_merge_dag(10, 200, 8)`) grows its starved branch 8 → 64
/// on every schedule; only the schedules differ.
const FIG13_FINGERPRINTS: [u64; 16] = [
    0xedb853a273438806,
    0x9dcb83b1ae918cc7,
    0xb06a5d20e2d7ce76,
    0x73d7712733d3ce44,
    0xd5177a2cfac59725,
    0xb3da58601284e5e4,
    0x2aab15ac27d6f896,
    0x759e8a562c32ec66,
    0x40b093beecffa7d6,
    0x86b59eaf4fb24d34,
    0x57a95467e7593ee6,
    0xb62976e850c364d5,
    0x47e15b7605fabc96,
    0x67f24efd089d0f55,
    0x06fd6cc13778a907,
    0xbdc1f97bf430a334,
];

#[test]
fn sim_growth_logs_and_schedules_are_the_pinned_ones() {
    for (seed, (fingerprint, ranks)) in HAMMING_PINS.into_iter().enumerate() {
        let (mode, sched) = walk(seed as u64);
        let (got, _) = grown(mode, hamming_16, &[16; 10]);
        assert_eq!(got, ranks, "Figure 12 growth log, seed {seed}");
        assert_eq!(sched.trace().fingerprint(), fingerprint, "Figure 12 schedule, seed {seed}");
    }
    for (seed, fingerprint) in FIG13_FINGERPRINTS.into_iter().enumerate() {
        let (mode, sched) = walk(seed as u64);
        let (got, finals) = grown(mode, fig13, &[8192, 8192, 8, 8192]);
        assert_eq!((got.as_str(), finals[2]), ("222", 64), "Figure 13 growth log, seed {seed}");
        assert_eq!(sched.trace().fingerprint(), fingerprint, "Figure 13 schedule, seed {seed}");
    }
}

/// Final capacities on the thread and pooled executors, per channel: every
/// value the simulator reaches over random-walk seeds 0..2000, where one
/// task runs at a time and every verdict is exact. A channel with one value
/// ends there on every schedule. Where a channel has several, which one a
/// run ends in depends on the schedule, not on the monitor: how many tokens
/// a writer has published when the artificial deadlock forms decides which
/// full channel is the smallest, and Figure 12 stops wherever `Collect`
/// has its 200 values. Figure 12's channel 4 ends at 16 or 32; channel 5 at
/// 32, 64 or 128; channel 7, a merge input, at 16, 32 or 64; channels 8
/// and 9, the merge's other input and its output, at 64 or 128. Figure 13's
/// channel 2 ends at 128 when `ModRouter` waits on its input while its
/// ninth value to that channel is still in its private chunk: publishing it
/// before the wait fills the 64 bytes the merge's missing head needs.
const HAMMING_FINALS: [&[usize]; 10] = [
    &[16],
    &[128],
    &[128],
    &[16],
    &[16, 32],
    &[32, 64, 128],
    &[128],
    &[16, 32, 64],
    &[64, 128],
    &[64, 128],
];
const FIG13_FINALS: [&[usize]; 4] = [&[8192], &[8192], &[64, 128], &[8192]];

#[test]
fn final_capacities_on_real_executors_are_the_pinned_ones() {
    // The monitor counts a registered task only while it is parked and not
    // woken, and acts only on two agreeing back-to-back looks, so a real
    // executor ends where some serial schedule does.
    for mode in [ExecMode::Thread, ExecMode::Pooled { workers: 2 }] {
        let (_, finals) = grown(mode.clone(), fig13, &[8192, 8192, 8, 8192]);
        for (got, pinned) in finals.iter().zip(FIG13_FINALS) {
            assert!(pinned.contains(got), "Figure 13 on {mode:?}: {finals:?}");
        }
        let (_, finals) = grown(mode.clone(), hamming_16, &[16; 10]);
        for (got, pinned) in finals.iter().zip(HAMMING_FINALS) {
            assert!(pinned.contains(got), "Figure 12 on {mode:?}: {finals:?}");
        }
    }
}
