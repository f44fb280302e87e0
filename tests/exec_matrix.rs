//! Exec-matrix acceptance tests: the same program graphs under all three
//! executors — one thread per process (the paper's model), the pooled
//! executor multiplexing processes onto a fixed worker set, and the
//! deterministic simulation scheduler — must produce the same per-channel
//! byte histories. This is the Kahn determinacy claim (§2) quantified over
//! *executors* rather than schedules: the history of every channel depends
//! only on the graph, never on how its processes are mapped to OS threads.
//!
//! History keys come from the executor's task-identity layer, so the keying
//! is itself mode-independent (a channel created by the process `sift` is
//! `("sift", n)` under every executor).

use kpn::core::graphs::{
    fibonacci, fibonacci_reference, hamming, hamming_reference, primes_below, primes_reference,
    GraphOptions,
};
use kpn::core::{
    compare_histories, ChannelKey, Error, ExecMode, HistoryCheck, Network, NetworkConfig,
    SchedulePolicy, SimScheduler,
};
use std::sync::{Arc, Mutex};

/// Runs `build` to completion under `mode` with history recording on, and
/// returns (histories, collected output).
fn run_mode<T: Clone + Send + 'static>(
    mode: ExecMode,
    build: impl FnOnce(&Network) -> Arc<Mutex<Vec<T>>>,
) -> (Vec<(ChannelKey, Vec<u8>)>, Vec<T>) {
    let net = Network::with_config(NetworkConfig {
        mode,
        record_history: true,
        ..Default::default()
    });
    let out = build(&net);
    net.run().expect("network run");
    let hist = net.histories().expect("record_history was set");
    let v = out.lock().unwrap().clone();
    (hist, v)
}

/// The modes of the matrix. The pool runs at one, two, and four workers:
/// one worker serializes everything through the hot-slot/local-deque path,
/// two gives fewer workers than processes (the regime where continuation
/// parking must carry the blocking semantics), and four adds real steal
/// traffic between per-worker run queues.
fn modes() -> Vec<(&'static str, ExecMode)> {
    vec![
        ("thread", ExecMode::Thread),
        ("pooled:1", ExecMode::Pooled { workers: 1 }),
        ("pooled:2", ExecMode::Pooled { workers: 2 }),
        ("pooled:4", ExecMode::Pooled { workers: 4 }),
        (
            "sim",
            ExecMode::Sim(SimScheduler::new(SchedulePolicy::RandomWalk { seed: 7 })),
        ),
    ]
}

/// Per-channel byte histories labelled with the mode that produced them.
type LabelledHistories = (&'static str, Vec<(ChannelKey, Vec<u8>)>);

/// Runs the graph under every mode and requires pairwise-agreeing
/// histories (under `check`) plus reference-equal collected output.
fn assert_matrix<T: Clone + PartialEq + std::fmt::Debug + Send + 'static>(
    check: HistoryCheck,
    reference: &[T],
    build: impl Fn(&Network) -> Arc<Mutex<Vec<T>>>,
) {
    let mut baseline: Option<LabelledHistories> = None;
    for (name, mode) in modes() {
        let (hist, out) = run_mode(mode, &build);
        assert_eq!(out, reference, "{name}: output diverged from reference");
        match &baseline {
            None => baseline = Some((name, hist)),
            Some((base_name, base)) => {
                compare_histories(base, &hist, check).unwrap_or_else(|e| {
                    panic!("histories diverge between {base_name} and {name}: {e}")
                });
            }
        }
    }
}

/// The sieve drains fully (§3.4 mode 1) *and* reconfigures itself as Sift
/// grows its Modulo chain — every executor must reproduce every channel
/// byte-for-byte, dynamically created channels included.
#[test]
fn sieve_histories_identical_across_executors() {
    let opts = GraphOptions {
        channel_capacity: 8,
        self_removing_cons: false,
    };
    assert_matrix(HistoryCheck::Exact, &primes_reference(60), |net| {
        primes_below(net, 60, &opts)
    });
}

/// Hamming's feedback loop needs monitor-driven channel growth at this
/// capacity and terminates by sink limit (§3.4 mode 2): histories are
/// prefix-ordered across executors while the collected output is exact.
#[test]
fn hamming_histories_agree_across_executors() {
    let opts = GraphOptions {
        channel_capacity: 16,
        self_removing_cons: false,
    };
    assert_matrix(HistoryCheck::PrefixClosed, &hamming_reference(30), |net| {
        hamming(net, 30, &opts)
    });
}

/// Figure 9/10: self-removing Cons processes splice themselves out of the
/// Fibonacci graph mid-run. The splice point depends on scheduling — and
/// therefore on the executor — but the streams must not.
#[test]
fn self_removing_cons_agrees_across_executors() {
    let opts = GraphOptions {
        channel_capacity: 16,
        self_removing_cons: true,
    };
    assert_matrix(HistoryCheck::PrefixClosed, &fibonacci_reference(25), |net| {
        fibonacci(net, 25, &opts)
    });
}

/// A 10,000-stage pipeline must complete on a two-worker pool: processes
/// are parked continuations, not threads, so the pool multiplexes all ten
/// thousand of them without exhausting OS resources.
#[test]
fn ten_thousand_process_pipeline_on_two_workers() {
    use kpn::core::stdlib::{Collect, Scale, Sequence};
    const STAGES: usize = 10_000;
    const TOKENS: i64 = 25;

    let net = Network::with_config(NetworkConfig {
        mode: ExecMode::Pooled { workers: 2 },
        ..Default::default()
    });
    let (head_w, mut tail_r) = net.channel_with_capacity(64);
    net.add(Sequence::new(0, TOKENS as u64, head_w));
    for _ in 0..STAGES {
        let (w, r) = net.channel_with_capacity(64);
        net.add(Scale::new(1, tail_r, w));
        tail_r = r;
    }
    let out = Arc::new(Mutex::new(Vec::new()));
    net.add(Collect::new(tail_r, out.clone()));
    let report = net.run().expect("pipeline run");
    assert_eq!(report.processes_run, STAGES + 2);
    let expected: Vec<i64> = (0..TOKENS).collect();
    assert_eq!(*out.lock().unwrap(), expected);
}

/// A cyclic topology under the matrix: a LOCAL-model gossip algorithm on
/// a ring, where every edge is a two-channel feedback pair. Unlike the
/// pipelines above, *every* channel here is part of a cycle, so this pins
/// history equality for the round-synchronous adapter (`kpn::dist`) over
/// graphs the paper's examples never exercise. Histories are exact: every
/// round's messages are fully consumed, and all nodes stop in the same
/// round.
#[test]
fn ring_gossip_histories_identical_across_executors() {
    use kpn::dist::{build_network, ring, simulate, GossipMax};
    const N: usize = 10;
    const ROUNDS: u64 = 5; // the ring's radius: the max reaches everyone
    let g = ring(N).unwrap();
    let ids: Vec<u64> = (0..N as u64).collect();
    let reference = simulate::<GossipMax>(&g, &ids, ROUNDS).unwrap();
    assert_eq!(reference, vec![N as u64 - 1; N]);
    assert_matrix(HistoryCheck::Exact, &reference, |net| {
        build_network::<GossipMax>(net, &g, &ids, ROUNDS, 16).unwrap()
    });
}

/// Blocking on a simulation network's channel from a foreign thread must
/// fail loudly instead of degrading to a timed spin: the simulation's
/// determinism guarantee cannot cover a thread the scheduler does not own.
#[test]
fn cross_executor_blocking_is_rejected() {
    let sched = SimScheduler::new(SchedulePolicy::RandomWalk { seed: 1 });
    let net = Network::with_config(NetworkConfig {
        mode: ExecMode::Sim(sched),
        ..Default::default()
    });
    let (_w, mut r) = net.channel();
    // The channel is empty and its writer is alive, so this read must
    // block — and blocking from outside the simulation is an error.
    let mut buf = [0u8; 1];
    match r.read(&mut buf) {
        Err(Error::Graph(msg)) => {
            assert!(
                msg.contains("cross-executor"),
                "unexpected message: {msg}"
            );
        }
        other => panic!("expected cross-executor rejection, got {other:?}"),
    }
}
