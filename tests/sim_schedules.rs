//! Schedule-exploration acceptance tests for the deterministic simulation
//! scheduler (`kpn::core::sim`).
//!
//! The paper's determinacy claim (§2) is quantified over *all* schedules;
//! real threads only ever sample one. These tests run the paper's example
//! graphs under 100+ seeded schedules plus a bounded DFS over preemption
//! points and require the channel histories to agree — bit-identical for
//! fully-drained graphs ([`HistoryCheck::Exact`]), prefix-ordered for
//! graphs cut by a sink limit ([`HistoryCheck::PrefixClosed`]) — including
//! through the sieve's dynamic reconfiguration (Sift growing its Modulo
//! chain), Figure 9/10 self-removing-Cons splices, and artificial-deadlock
//! channel growth. A deliberately racy graph shows the oracle *can* fail:
//! the breaking schedule is caught, printed, and replays exactly from its
//! seed or decision list.

use kpn::core::graphs::{
    fibonacci, fibonacci_reference, hamming, hamming_reference, primes_below, primes_reference,
    GraphOptions,
};
use kpn::core::stdlib::{Collect, Scale, Sequence};
use kpn::core::{
    check_determinacy, compare_histories, exec, explore_dfs, run_sim, DataReader, HistoryCheck,
    Network, Result, SchedulePolicy, SimRun,
};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Base seed for the random-walk matrices. CI pins a different
/// `SIM_SEED_BASE` per matrix row, so rows explore different schedule sets
/// while each row stays bit-reproducible.
fn seed_base() -> u64 {
    std::env::var("SIM_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xA5EED)
}

/// `n` seeded random-walk policies starting at the pinned base.
fn seeds(n: u64) -> impl Iterator<Item = SchedulePolicy> {
    let base = seed_base();
    (0..n).map(move |i| SchedulePolicy::RandomWalk {
        seed: base.wrapping_add(i),
    })
}

/// Runs `build` under `policy` and returns the run plus the graph's
/// collected output (the builder's collector, read after the run).
fn capture<T: Clone + Send + 'static>(
    policy: SchedulePolicy,
    build: impl FnOnce(&Network) -> Arc<Mutex<Vec<T>>>,
) -> Result<(SimRun, Vec<T>)> {
    let slot = Arc::new(Mutex::new(None));
    let keep = slot.clone();
    let run = run_sim(policy, move |net| {
        *keep.lock().unwrap() = Some(build(net));
    })?;
    let out = slot.lock().unwrap().take().expect("build ran");
    let v = out.lock().unwrap().clone();
    Ok((run, v))
}

/// The sieve drains fully (§3.4 mode 1) *and* reconfigures itself as Sift
/// grows its Modulo chain — every schedule must reproduce every channel
/// byte-for-byte, splices included.
#[test]
fn sieve_histories_bit_identical_across_100_schedules() {
    let reference = primes_reference(40);
    let opts = GraphOptions {
        channel_capacity: 8,
        self_removing_cons: false,
    };
    let distinct = check_determinacy(seeds(112), HistoryCheck::Exact, |policy| {
        let (run, out) = capture(policy, |net| primes_below(net, 40, &opts))?;
        assert_eq!(out, reference, "sieve output diverged from reference");
        Ok(run)
    })
    .expect("sieve determinacy");
    assert!(
        distinct >= 100,
        "only {distinct} distinct schedules explored"
    );
}

/// Hamming's feedback loop needs monitor-driven channel growth at this
/// capacity, and terminates by sink limit (§3.4 mode 2), so histories are
/// prefix-ordered across schedules while the collected output is exact.
#[test]
fn hamming_histories_agree_across_100_schedules() {
    let reference = hamming_reference(30);
    let opts = GraphOptions {
        channel_capacity: 16,
        self_removing_cons: false,
    };
    let distinct = check_determinacy(seeds(112), HistoryCheck::PrefixClosed, |policy| {
        let (run, out) = capture(policy, |net| hamming(net, 30, &opts))?;
        assert_eq!(out, reference, "hamming output diverged from reference");
        Ok(run)
    })
    .expect("hamming determinacy");
    assert!(
        distinct >= 100,
        "only {distinct} distinct schedules explored"
    );
}

/// Figure 9/10: the self-removing Cons processes splice themselves out of
/// the Fibonacci graph mid-run. The splice point depends on the schedule;
/// the streams must not.
#[test]
fn reconfiguring_fibonacci_agrees_across_100_schedules() {
    let reference = fibonacci_reference(25);
    let opts = GraphOptions {
        channel_capacity: 16,
        self_removing_cons: true,
    };
    let distinct = check_determinacy(seeds(112), HistoryCheck::PrefixClosed, |policy| {
        let (run, out) = capture(policy, |net| fibonacci(net, 25, &opts))?;
        assert_eq!(out, reference, "fibonacci output diverged from reference");
        Ok(run)
    })
    .expect("fibonacci determinacy");
    assert!(
        distinct >= 100,
        "only {distinct} distinct schedules explored"
    );
}

/// Bounded DFS over preemption points: systematic rather than sampled
/// coverage of a small pipeline's schedule space. Every generated prefix
/// ends in an untaken alternative, so each run is a distinct schedule.
#[test]
fn dfs_systematically_explores_distinct_schedules() {
    let reference: Vec<i64> = (0..12).map(|v| v * 3).collect();
    let report = explore_dfs(120, 64, HistoryCheck::Exact, |policy| {
        let (run, out) = capture(policy, |net| {
            let (aw, ar) = net.channel_with_capacity(4);
            let (bw, br) = net.channel_with_capacity(4);
            net.add(Sequence::new(0, 12, aw));
            net.add(Scale::new(3, ar, bw));
            let out = Arc::new(Mutex::new(Vec::new()));
            net.add(Collect::new(br, out.clone()));
            out
        })?;
        assert_eq!(out, reference, "pipeline output diverged");
        Ok(run)
    })
    .expect("DFS determinacy");
    assert_eq!(
        report.distinct, report.runs,
        "DFS must never execute the same schedule twice"
    );
    assert!(
        report.distinct >= 100,
        "only {} distinct schedules explored",
        report.distinct
    );
}

/// A deliberately broken "channel": two processes share a mutable counter
/// outside any channel (exactly what Kahn forbids) and record what they
/// saw. Which values each process observes depends on the interleaving,
/// so some pair of schedules must disagree.
fn racy_run(policy: SchedulePolicy) -> Result<SimRun> {
    run_sim(policy, |net| {
        let counter = Arc::new(AtomicI64::new(0));
        for name in ["racer-a", "racer-b"] {
            let (w, r) = net.channel_with_capacity(256);
            let c = Arc::clone(&counter);
            net.add_fn(name, move |_ctx| {
                let mut w = w;
                for _ in 0..6 {
                    let v = c.fetch_add(1, Ordering::SeqCst);
                    w.write_all(&v.to_le_bytes())?;
                }
                Ok(())
            });
            net.add(Collect::new(r, Arc::new(Mutex::new(Vec::new()))));
        }
    })
}

/// The oracle must catch an injected determinacy bug, report the breaking
/// schedule, and that schedule must replay bit-identically from either the
/// printed seed or the recorded decision list.
#[test]
fn injected_race_is_caught_and_its_schedule_replays() {
    let baseline = racy_run(SchedulePolicy::RandomWalk { seed: 1 }).expect("racy run");
    let mut breaking = None;
    for seed in 2..66 {
        let run = racy_run(SchedulePolicy::RandomWalk { seed }).expect("racy run");
        if compare_histories(&baseline.histories, &run.histories, HistoryCheck::Exact).is_err() {
            breaking = Some(run);
            break;
        }
    }
    let breaking = breaking.expect("the injected race never surfaced across 64 schedules");
    let seed = breaking.trace.seed.expect("random walks record their seed");

    // check_determinacy reports the bug and embeds both schedules.
    let err = check_determinacy(
        [
            SchedulePolicy::RandomWalk { seed: 1 },
            SchedulePolicy::RandomWalk { seed },
        ],
        HistoryCheck::Exact,
        racy_run,
    )
    .expect_err("oracle must catch the injected race");
    let msg = err.to_string();
    assert!(msg.contains("determinacy broken"), "unexpected: {msg}");
    assert!(
        msg.contains("schedule"),
        "message must include the failing schedule: {msg}"
    );

    // Replaying the printed seed reproduces the failure exactly...
    let again = racy_run(SchedulePolicy::RandomWalk { seed }).expect("replay by seed");
    assert_eq!(again.trace.decisions, breaking.trace.decisions);
    assert_eq!(again.histories, breaking.histories);

    // ...and so does the recorded decision list, seed or no seed.
    let replay =
        racy_run(SchedulePolicy::Replay(breaking.trace.decisions.clone())).expect("replay");
    assert_eq!(replay.histories, breaking.histories);
}

/// A stuck schedule is a function of its seed. One task parks on a key
/// that nobody unparks while holding the writer of the channel a second
/// task reads: the reader's wait is one the monitor sees, the park is not,
/// so no event can resolve the quiescence. Every run of the seed must fail
/// with the same error, down to the schedule it prints.
#[test]
fn a_stuck_schedule_fails_the_same_way_every_run() {
    let stuck = || {
        run_sim(SchedulePolicy::RandomWalk { seed: 5 }, |net| {
            let (w, r) = net.channel();
            net.add_fn("sleeper", move |_ctx| {
                let _writer = w;
                let exec = exec::current_exec().expect("a process runs on an executor");
                let here = 0u8;
                let key = std::ptr::addr_of!(here) as usize;
                let token = exec.park_token(key);
                exec.park(key, token, None)?;
                Ok(())
            });
            net.add_fn("reader", move |_ctx| {
                DataReader::new(r).read_i64()?;
                Ok(())
            });
        })
        .map(|run| run.trace)
    };
    let first = format!("{:?}", stuck());
    assert!(
        first.starts_with("Err("),
        "a stuck schedule must fail: {first}"
    );
    for i in 1..20 {
        let again = format!("{:?}", stuck());
        assert_eq!(again, first, "run {i} of the same seed failed differently");
    }
}

/// The simulator's decision rate on a Sequence -> Scale -> Collect
/// pipeline whose channels hold half a token, so that nearly every hop
/// waits: printed, not bounded (a wall-clock bound would measure the
/// machine). Run with `--nocapture` in release to read it.
#[test]
fn sim_decision_rate_probe() {
    const TOKENS: u64 = 20_000;
    let mut baseline: Option<SimRun> = None;
    for seed in 1..=3 {
        let t0 = Instant::now();
        let (run, out) = capture(SchedulePolicy::RandomWalk { seed }, |net| {
            let (aw, ar) = net.channel_with_capacity(4);
            let (bw, br) = net.channel_with_capacity(4);
            let out = Arc::new(Mutex::new(Vec::new()));
            net.add(Sequence::new(0, TOKENS, aw));
            net.add(Scale::new(3, ar, bw));
            net.add(Collect::new(br, out.clone()));
            out
        })
        .expect("pipeline run");
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(out.len() as u64, TOKENS, "every token arrives");
        let decisions = run.trace.decisions.len() as f64;
        println!(
            "sim rate probe seed {seed}: {decisions} decisions in {secs:.3} s: {:.0} decisions/s, \
             {:.2} us/decision, {:.2} decisions/token",
            decisions / secs,
            secs * 1e6 / decisions,
            decisions / TOKENS as f64
        );
        match &baseline {
            None => baseline = Some(run),
            Some(base) => compare_histories(&base.histories, &run.histories, HistoryCheck::Exact)
                .expect("pipeline determinacy"),
        }
    }
}
