//! Cross-executor chaos determinacy: the wait mechanism follows the
//! caller (a remote wait made from a pooled fiber parks on the pool's
//! reactor, one made from an OS thread blocks it), and Kahn determinacy
//! says that must be invisible — under a pinned fault seed the channel
//! histories have to come out bit-identical whichever executor ran the
//! relay processes. The fault layer sits above `rio`'s waits, so one
//! operation charges one fault-schedule step whether it is a single
//! blocking syscall or a park-and-retry loop underneath.
//!
//! Each run builds its own relay — client → `Identity` on "server" 0 →
//! `Identity` on "server" 1 → client, every hop a remote channel — out of
//! three acceptors and two networks whose executor is set explicitly in
//! their `NetworkConfig`. Nothing here touches the environment or any
//! process-wide state, so the tests run with the default test-thread
//! count, in any order, next to each other.

#![cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]

use kpn::core::stdlib::Identity;
use kpn::core::{
    ChannelWriter, DataReader, DataWriter, Error, ExecMode, LintLevel, Network, NetworkConfig,
};
use kpn::net::chaos::chaos_policy;
use kpn::net::{
    remote_reader, Acceptor, FaultPlan, FaultProfile, FaultyFactory, NetProfile, RemoteSink,
};
use std::sync::Arc;

/// Same pinned seeds as `chaos_reconnect.rs` (CI's chaos job).
const SEEDS: [u64; 3] = [0x5EED_0001, 0x5EED_0002, 0x5EED_0003];
const ROUND_TRIPS: i64 = 48;

fn profile() -> FaultProfile {
    FaultProfile {
        mean_ops_between_faults: 12,
        refuse_connects: 1, // guarantees each schedule fires at least once
        max_faults: 10,
        ..FaultProfile::default()
    }
}

fn network(mode: &ExecMode) -> Network {
    Network::with_config(NetworkConfig {
        mode: mode.clone(),
        lint: LintLevel::Off, // the endpoints are remote: nothing local to lint
        ..NetworkConfig::default()
    })
}

/// One ping-pong relay run with both `Identity` processes on `mode`,
/// fault-free (`seed == None`) or under that seed's schedule. Reconnect
/// budgets are charged in nominal wait time (see `ReconnectPolicy::budget`),
/// so a loaded machine performs exactly as many recovery attempts as an
/// idle one and a run either completes or fails identically regardless of
/// wall-clock load.
fn relay_history(mode: &ExecMode, seed: Option<u64>) -> Vec<i64> {
    // One profile for every acceptor and every writer, so both ends of each
    // hop run the same policy and draw faults from the same plan.
    let plan = seed.map(|s| FaultPlan::new(s, profile()));
    let net_profile = plan.as_ref().map_or_else(NetProfile::default, |plan| {
        NetProfile::new(Arc::new(FaultyFactory::new(plan.clone())), chaos_policy())
    });
    let bind = || Acceptor::bind_with("127.0.0.1:0", net_profile.clone()).unwrap();
    let (client, s0, s1) = (bind(), bind(), bind());
    let (t_in, t_mid, t_back) = (0xD37E_0001u64, 0xD37E_0002, 0xD37E_0003);
    let connect = |to: &Acceptor, token| {
        let addr = to.local_addr().to_string();
        let sink = RemoteSink::connect_with(&addr, token, net_profile.clone())
            .unwrap_or_else(|e| panic!("connect under {mode:?} seed {seed:x?}: {e}"));
        ChannelWriter::from_sink(Box::new(sink))
    };
    // Every endpoint is made here, on the test thread, and moved into the
    // process that uses it — on the pooled leg the first fiber to touch
    // one switches it to parking.
    let (n0, n1) = (network(mode), network(mode));
    n0.add(Identity::new(remote_reader(&s0, t_in), connect(&s1, t_mid)));
    n1.add(Identity::new(
        remote_reader(&s1, t_mid),
        connect(&client, t_back),
    ));
    let mut w = DataWriter::new(connect(&s0, t_in));
    let mut r = DataReader::new(remote_reader(&client, t_back));
    n0.start();
    n1.start();

    let fail = |e: Error| -> ! { panic!("relay under {mode:?} seed {seed:x?} failed: {e}") };
    let mut out = Vec::new();
    for i in 0..ROUND_TRIPS {
        w.write_i64(i).unwrap_or_else(|e| fail(e));
        out.push(r.read_i64().unwrap_or_else(|e| fail(e)));
    }
    drop(w); // sends Close; the relay winds down by exhaustion
    match r.read_i64() {
        Err(Error::Eof) => {}
        other => panic!("relay under {mode:?} seed {seed:x?} did not end cleanly: {other:?}"),
    }
    n0.join().unwrap_or_else(|e| fail(e));
    n1.join().unwrap_or_else(|e| fail(e));
    if let Some(plan) = &plan {
        assert!(
            plan.injected() > 0,
            "seed {seed:x?} injected no faults under {mode:?}"
        );
    }
    out
}

/// The fault-free baseline plus one run per seed, all on `mode`.
fn histories(mode: ExecMode, seeds: &[u64]) -> Vec<Vec<i64>> {
    std::iter::once(None)
        .chain(seeds.iter().copied().map(Some))
        .map(|seed| relay_history(&mode, seed))
        .collect()
}

fn assert_executors_agree(seeds: &[u64]) {
    let thread = histories(ExecMode::Thread, seeds);
    let pooled = histories(ExecMode::Pooled { workers: 2 }, seeds);
    for (i, h) in thread.iter().enumerate() {
        assert_eq!(
            h, &thread[0],
            "thread executor broke determinacy on run {i}"
        );
    }
    assert_eq!(
        thread, pooled,
        "histories diverge between blocked-thread and parked-fiber waits"
    );
}

#[test]
fn relay_histories_identical_across_executors() {
    // The kpn-net unit suite's pinned seed; the full 0x5EED set stays in
    // the ignored variant, which CI's chaos job runs.
    assert_executors_agree(&[0xC0FFEE]);
}

#[test]
#[ignore = "chaos: run with --ignored"]
fn relay_histories_identical_across_executors_all_seeds() {
    assert_executors_agree(&SEEDS);
}
