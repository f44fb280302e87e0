//! Randomized-graph property test: build arbitrary acyclic pipelines from
//! stock processes (Scale / Modulo filters with random fan-out) with
//! random channel capacities, run them, and compare against a direct
//! sequential evaluation of the same dataflow. Every run must agree —
//! the determinacy theorem exercised over graph *structure*, not just
//! parameters.
//!
//! The second property deploys the same fuzzed pipelines *across a
//! cluster* and replays each one under pinned seeded fault schedules
//! (resets, refusals, stalls): the reconnection protocol must keep every
//! branch history identical to the fault-free reference, whatever graph
//! shape the fuzzer draws.

use kpn::core::stdlib::{Collect, Duplicate, Modulo, Scale, Sequence};
use kpn::core::{
    DataReader, DiagCode, Error, ExecMode, LintLevel, Network, NetworkConfig, SchedulePolicy,
    SimScheduler,
};
use kpn::dist::{self, DistGraph};
use kpn::net::chaos::{chaos_policy, ChaosCluster};
use kpn::net::{ChanId, FaultProfile, GraphBuilder};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// One stage of a random pipeline.
#[derive(Debug, Clone)]
enum Stage {
    /// Multiply by a constant.
    Scale(i64),
    /// Drop multiples of a divisor.
    Filter(i64),
}

fn stage_strategy() -> impl Strategy<Value = Stage> {
    prop_oneof![
        (-7i64..8)
            .prop_filter("nonzero", |v| *v != 0)
            .prop_map(Stage::Scale),
        (2i64..9).prop_map(Stage::Filter),
    ]
}

/// Reference evaluation of a branch.
fn eval(stages: &[Stage], input: &[i64]) -> Vec<i64> {
    let mut values = input.to_vec();
    for s in stages {
        values = match s {
            Stage::Scale(k) => values.iter().map(|v| v * k).collect(),
            Stage::Filter(d) => values.iter().copied().filter(|v| v % d != 0).collect(),
        };
    }
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A random linear pipeline (possibly with a fan-out in the middle)
    /// produces exactly the reference result on every branch.
    #[test]
    fn random_pipelines_match_reference(
        head in proptest::collection::vec(stage_strategy(), 0..4),
        left in proptest::collection::vec(stage_strategy(), 0..4),
        right in proptest::collection::vec(stage_strategy(), 0..4),
        count in 1u64..200,
        capacity in 8usize..512,
    ) {
        let input: Vec<i64> = (1..=count as i64).collect();
        let net = Network::new();
        // source → head stages → duplicate → (left stages, right stages)
        let (src_w, src_r) = net.channel_with_capacity(capacity);
        net.add(Sequence::new(1, count, src_w));
        let mut cursor = src_r;
        for s in &head {
            let (w, r) = net.channel_with_capacity(capacity);
            match s {
                Stage::Scale(k) => net.add(Scale::new(*k, cursor, w)),
                Stage::Filter(d) => net.add(Modulo::new(*d, cursor, w)),
            }
            cursor = r;
        }
        let (lw, lr) = net.channel_with_capacity(capacity);
        let (rw, rr) = net.channel_with_capacity(capacity);
        net.add(Duplicate::two(cursor, lw, rw));
        let wire_branch = |stages: &[Stage], mut cursor: kpn::core::ChannelReader| {
            for s in stages {
                let (w, r) = net.channel_with_capacity(capacity);
                match s {
                    Stage::Scale(k) => net.add(Scale::new(*k, cursor, w)),
                    Stage::Filter(d) => net.add(Modulo::new(*d, cursor, w)),
                }
                cursor = r;
            }
            let out = Arc::new(Mutex::new(Vec::new()));
            net.add(Collect::new(cursor, out.clone()));
            out
        };
        let left_out = wire_branch(&left, lr);
        let right_out = wire_branch(&right, rr);
        net.run().unwrap();

        let after_head = eval(&head, &input);
        prop_assert_eq!(&*left_out.lock().unwrap(), &eval(&left, &after_head));
        prop_assert_eq!(&*right_out.lock().unwrap(), &eval(&right, &after_head));
    }
}

/// Deploys the fuzzed pipeline across `cluster` (stages alternate between
/// the two servers, so every stage boundary that lands on a partition cut
/// becomes a network channel) and returns both branch histories.
fn run_distributed(
    cluster: &ChaosCluster,
    head: &[Stage],
    left: &[Stage],
    right: &[Stage],
    count: u64,
) -> (Vec<i64>, Vec<i64>) {
    fn wire(b: &mut GraphBuilder, stages: &[Stage], mut cursor: ChanId, partition: usize) -> ChanId {
        for s in stages {
            let out = b.channel();
            match s {
                Stage::Scale(k) => b.add(partition, "Scale", k, &[cursor], &[out]).unwrap(),
                Stage::Filter(d) => b.add(partition, "Modulo", d, &[cursor], &[out]).unwrap(),
            }
            cursor = out;
        }
        cursor
    }
    fn drain(reader: kpn::core::ChannelReader) -> Vec<i64> {
        let mut r = DataReader::new(reader);
        let mut out = Vec::new();
        loop {
            match r.read_i64() {
                Ok(v) => out.push(v),
                Err(Error::Eof) => return out,
                Err(e) => panic!("branch stream failed mid-drain: {e}"),
            }
        }
    }

    let mut b = GraphBuilder::new();
    let src = b.channel();
    b.add(0, "Sequence", &(1i64, Some(count)), &[], &[src])
        .unwrap();
    let mut cursor = src;
    for (i, s) in head.iter().enumerate() {
        let out = b.channel();
        let p = i % 2;
        match s {
            Stage::Scale(k) => b.add(p, "Scale", k, &[cursor], &[out]).unwrap(),
            Stage::Filter(d) => b.add(p, "Modulo", d, &[cursor], &[out]).unwrap(),
        }
        cursor = out;
    }
    let l = b.channel();
    let r = b.channel();
    b.add(0, "Duplicate", &(), &[cursor], &[l, r]).unwrap();
    let left_end = wire(&mut b, left, l, 0);
    let right_end = wire(&mut b, right, r, 1);
    b.claim_reader(left_end).unwrap();
    b.claim_reader(right_end).unwrap();
    let mut dep = b.deploy(cluster.client(), cluster.handles()).unwrap();
    let lv = drain(dep.readers.remove(&left_end).unwrap());
    let rv = drain(dep.readers.remove(&right_end).unwrap());
    dep.join().unwrap();
    (lv, rv)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every fuzzed pipeline, deployed across a cluster, yields the
    /// reference histories both fault-free and under three pinned fault
    /// schedules.
    #[test]
    fn random_pipelines_survive_fault_schedules(
        head in proptest::collection::vec(stage_strategy(), 0..3),
        left in proptest::collection::vec(stage_strategy(), 0..3),
        right in proptest::collection::vec(stage_strategy(), 0..3),
        count in 1u64..80,
    ) {
        let input: Vec<i64> = (1..=count as i64).collect();
        let after_head = eval(&head, &input);
        let want_left = eval(&left, &after_head);
        let want_right = eval(&right, &after_head);

        // Fault-free distributed baseline.
        let plain = ChaosCluster::plain(2).unwrap();
        let (lv, rv) = run_distributed(&plain, &head, &left, &right, count);
        prop_assert_eq!(&lv, &want_left);
        prop_assert_eq!(&rv, &want_right);
        drop(plain);

        // The same graph under pinned fault schedules.
        for seed in [0xFA_0001u64, 0xFA_0002, 0xFA_0003] {
            let profile = FaultProfile {
                mean_ops_between_faults: 15,
                refuse_connects: 1,
                max_faults: 6,
                ..FaultProfile::default()
            };
            let cluster = ChaosCluster::with_faults(2, seed, profile, chaos_policy()).unwrap();
            let (lv, rv) = run_distributed(&cluster, &head, &left, &right, count);
            prop_assert_eq!(&lv, &want_left, "left branch diverged under seed {:#x}", seed);
            prop_assert_eq!(&rv, &want_right, "right branch diverged under seed {:#x}", seed);
        }
    }
}

/// Builds the same fuzzed pipeline shape as `random_pipelines_match_reference`
/// into `net`, returning the two branch collectors.
#[allow(clippy::type_complexity)]
fn build_pipeline(
    net: &Network,
    head: &[Stage],
    left: &[Stage],
    right: &[Stage],
    count: u64,
    capacity: usize,
) -> (Arc<Mutex<Vec<i64>>>, Arc<Mutex<Vec<i64>>>) {
    let (src_w, src_r) = net.channel_with_capacity(capacity);
    net.add(Sequence::new(1, count, src_w));
    let mut cursor = src_r;
    for s in head {
        let (w, r) = net.channel_with_capacity(capacity);
        match s {
            Stage::Scale(k) => net.add(Scale::new(*k, cursor, w)),
            Stage::Filter(d) => net.add(Modulo::new(*d, cursor, w)),
        }
        cursor = r;
    }
    let (lw, lr) = net.channel_with_capacity(capacity);
    let (rw, rr) = net.channel_with_capacity(capacity);
    net.add(Duplicate::two(cursor, lw, rw));
    let wire_branch = |stages: &[Stage], mut cursor: kpn::core::ChannelReader| {
        for s in stages {
            let (w, r) = net.channel_with_capacity(capacity);
            match s {
                Stage::Scale(k) => net.add(Scale::new(*k, cursor, w)),
                Stage::Filter(d) => net.add(Modulo::new(*d, cursor, w)),
            }
            cursor = r;
        }
        let out = Arc::new(Mutex::new(Vec::new()));
        net.add(Collect::new(cursor, out.clone()));
        out
    };
    (wire_branch(left, lr), wire_branch(right, rr))
}

/// A topology drawn from *every* `kpn::dist` generator with fuzzed
/// parameters: rings, paths, grids, random d-regular (parity-corrected
/// so n·d is even), and random bipartite d-regular graphs.
fn topology_strategy() -> impl Strategy<Value = DistGraph> {
    prop_oneof![
        (3usize..24).prop_map(|n| dist::ring(n).unwrap()),
        (2usize..24).prop_map(|n| dist::path(n).unwrap()),
        (1usize..6, 1usize..6)
            .prop_filter("need two nodes", |(w, h)| w * h >= 2)
            .prop_map(|(w, h)| dist::grid(w, h).unwrap()),
        (6usize..20, 1usize..4, 0u64..1000).prop_map(|(n, d, seed)| {
            let n = if n * d % 2 == 1 { n + 1 } else { n };
            dist::random_regular(n, d, seed).unwrap()
        }),
        (2usize..12, 1usize..4, 0u64..1000).prop_map(|(half, d, seed)| {
            let d = d.min(half);
            dist::random_bipartite_regular(2 * half, d, seed).unwrap()
        }),
    ]
}

fn deny_network() -> Network {
    Network::with_config(NetworkConfig {
        lint: LintLevel::Deny,
        ..NetworkConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A fuzzed pipeline that passes lint at `Deny` never reaches the
    /// deadlock monitor's structural-abort verdict: static cleanliness
    /// implies the run completes (the verifier's soundness direction over
    /// this graph family).
    #[test]
    fn lint_clean_graphs_never_deadlock(
        head in proptest::collection::vec(stage_strategy(), 0..4),
        left in proptest::collection::vec(stage_strategy(), 0..4),
        right in proptest::collection::vec(stage_strategy(), 0..4),
        count in 1u64..100,
        capacity in 8usize..256,
    ) {
        let net = deny_network();
        let (left_out, right_out) = build_pipeline(&net, &head, &left, &right, count, capacity);
        match net.run() {
            Ok(_) => {}
            Err(Error::Lint(diags)) => {
                // The graph family is fully wired, so lint must accept it.
                prop_assert!(false, "clean pipeline rejected by lint: {diags:?}");
            }
            Err(Error::Deadlocked) => {
                prop_assert!(false, "lint-clean pipeline hit structural deadlock");
            }
            Err(e) => prop_assert!(false, "unexpected failure: {e}"),
        }
        let input: Vec<i64> = (1..=count as i64).collect();
        let after_head = eval(&head, &input);
        prop_assert_eq!(&*left_out.lock().unwrap(), &eval(&left, &after_head));
        prop_assert_eq!(&*right_out.lock().unwrap(), &eval(&right, &after_head));
    }

    /// Seeding an L001 defect (a writer endpoint that no process ever
    /// receives) into an otherwise-clean fuzzed pipeline is always caught
    /// at `Deny`, whatever the surrounding graph shape.
    #[test]
    fn seeded_dangling_writer_always_flagged(
        head in proptest::collection::vec(stage_strategy(), 0..4),
        count in 1u64..50,
        capacity in 8usize..256,
    ) {
        let net = deny_network();
        let (left_out, right_out) = build_pipeline(&net, &head, &[], &[], count, capacity);
        // The defect: this channel's reader feeds a Collect, but the
        // writer stays in the test harness, undeclared — its consumer
        // would block forever.
        let (dangling_w, dangling_r) = net.channel_with_capacity(capacity);
        let orphan_out = Arc::new(Mutex::new(Vec::new()));
        net.add(Collect::new(dangling_r, orphan_out.clone()));
        let err = net.run().expect_err("dangling writer must fail lint");
        match err {
            Error::Lint(diags) => {
                prop_assert!(
                    diags.iter().any(|d| d.code == DiagCode::L001),
                    "expected L001 in {diags:?}"
                );
            }
            other => prop_assert!(false, "expected lint error, got {other}"),
        }
        drop(dangling_w);
        let _ = (left_out, right_out);
    }

    /// Graphviz DOT round-trips exactly over the whole fuzzed topology
    /// family: import(export(g)) is `g` — same name, same node count,
    /// same edges in the same order (port numbering is part of the
    /// contract: a reordered edge list would renumber ports and change
    /// which channel carries which message).
    #[test]
    fn dot_import_export_import_is_identity(g in topology_strategy()) {
        let dot = g.to_dot();
        let back = DistGraph::from_dot(&dot).unwrap();
        prop_assert_eq!(&back, &g, "first round trip changed the graph");
        let dot2 = back.to_dot();
        prop_assert_eq!(&dot2, &dot, "export is not stable across a round trip");
        prop_assert_eq!(&DistGraph::from_dot(&dot2).unwrap(), &g);
    }

    /// Every generated topology, expressed as a round-synchronous KPN,
    /// passes the static verifier at `Deny` and runs to a clean halt:
    /// no dangling endpoints (L001), no undercapacitated cycles (L003),
    /// no orphan processes (L004) — for every generator, whatever
    /// parameters the fuzzer draws.
    #[test]
    fn fuzzed_topologies_are_lint_clean_at_deny(g in topology_strategy(), rounds in 1u64..4) {
        let ids: Vec<u64> = (0..g.n() as u64).collect();
        let cfg = dist::DistConfig {
            lint: LintLevel::Deny,
            max_rounds: rounds,
            ..dist::DistConfig::default()
        };
        match dist::run::<dist::GossipMax>(&g, &ids, cfg) {
            Ok((out, report)) => {
                prop_assert_eq!(out, dist::simulate::<dist::GossipMax>(&g, &ids, rounds).unwrap());
                prop_assert_eq!(report.monitor.true_deadlocks, 0);
            }
            Err(Error::Lint(diags)) => {
                prop_assert!(false, "{} rejected at Deny: {diags:?}", g.name());
            }
            Err(e) => prop_assert!(false, "{} failed: {e}", g.name()),
        }
    }

    /// Seeding an L003 defect (a feedback loop whose channels cannot hold
    /// one declared token) is always caught at `Deny`.
    #[test]
    fn seeded_tiny_cycle_always_flagged(
        head in proptest::collection::vec(stage_strategy(), 0..4),
        count in 1u64..50,
        capacity in 8usize..256,
        tiny in 1usize..8,
    ) {
        let net = deny_network();
        let (left_out, right_out) = build_pipeline(&net, &head, &[], &[], count, capacity);
        // The defect: two Scale processes in a loop over channels smaller
        // than one 8-byte token.
        let (aw, ar) = net.channel_with_capacity(tiny);
        let (bw, br) = net.channel_with_capacity(tiny);
        net.add(Scale::new(1, ar, bw));
        net.add(Scale::new(1, br, aw));
        let err = net.run().expect_err("undersized cycle must fail lint");
        match err {
            Error::Lint(diags) => {
                prop_assert!(
                    diags.iter().any(|d| d.code == DiagCode::L003),
                    "expected L003 in {diags:?}"
                );
            }
            other => prop_assert!(false, "expected lint error, got {other}"),
        }
        let _ = (left_out, right_out);
    }
}

/// Characters DOT text is made of, and two it never holds.
const DOT_CHARS: &[char] = &[
    'g', 'r', 'a', 'p', 'h', 'd', 'i', ' ', '\n', '{', '}', ';', '-', '"', '\\', '/', '0', '1',
    '9', '_', 'é', '\0',
];

/// Characters a quoted graph name is drawn from: `\` and `"` escaped or
/// not, and two that are plain only inside quotes.
const NAME_CHARS: &[char] = &['a', ' ', '{', '"', '\\'];

/// Huge node ids: one past `u32`, one past `usize`.
const HUGE_IDS: [&str; 2] = ["4294967296", "99999999999999999999999"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Hostile DOT text: arbitrary strings, strings of DOT's own
    /// characters, and `to_dot` output under a hostile quoted name, as is
    /// and damaged token by token (an id dropped, duplicated or made huge, a
    /// brace or an `--` removed). Each parse is an `Ok` or an `Err`, never a
    /// panic, and a graph it does accept round-trips like any other.
    #[test]
    fn dot_import_survives_hostile_text(
        g in topology_strategy(),
        chars in proptest::collection::vec(any::<char>(), 0..48),
        picks in proptest::collection::vec(0..DOT_CHARS.len(), 0..48),
        name in proptest::collection::vec(0..NAME_CHARS.len(), 0..8),
        edits in proptest::collection::vec((0u8..4, any::<usize>()), 1..6),
    ) {
        let mut tokens: Vec<String> = g.to_dot().split_whitespace().map(String::from).collect();
        tokens[1] = format!("\"{}\"", name.iter().map(|&i| NAME_CHARS[i]).collect::<String>());
        let named = tokens.join(" ");
        for (edit, at) in edits {
            let i = at % tokens.len();
            let digit = |t: &String| t.starts_with(|c: char| c.is_ascii_digit());
            let id = (i..tokens.len()).find(|&j| digit(&tokens[j]));
            let mark = (i..tokens.len()).find(|&j| matches!(&*tokens[j], "{" | "}" | "--"));
            match (edit, id, mark) {
                (0, Some(j), _) => drop(tokens.remove(j)),
                (1, Some(j), _) => tokens.insert(j, tokens[j].clone()),
                (2, Some(j), _) => {
                    let digits = tokens[j].trim_end_matches(';').len();
                    tokens[j].replace_range(..digits, HUGE_IDS[at % 2]);
                }
                (_, _, Some(j)) => drop(tokens.remove(j)),
                _ => {}
            }
        }
        let texts = [
            chars.iter().collect::<String>(),
            picks.iter().map(|&i| DOT_CHARS[i]).collect(),
            named,
            tokens.join(" "),
        ];
        for text in texts {
            if let Ok(back) = DistGraph::from_dot(&text) {
                let again = DistGraph::from_dot(&back.to_dot());
                prop_assert_eq!(again.as_ref().ok(), Some(&back), "{:?}", text);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Capacity synthesis soundness over fuzzed *static* pipelines: every
    /// stage of this family declares SDF rates, so the lint pass can
    /// synthesize schedule-derived capacities for the whole graph. With
    /// `synthesize_capacities` the fixed graph must pass the `Deny` gate
    /// (lint-clean after fix), produce the reference output, and never
    /// fall back to the monitor's runtime grow loop — on the thread,
    /// pooled, and sim executors alike.
    #[test]
    fn synthesized_static_pipelines_never_grow(
        scales in proptest::collection::vec(2i64..9, 0..5),
        count in 1u64..60,
        capacity in 1usize..24,
    ) {
        let modes: [&dyn Fn() -> ExecMode; 3] = [
            &|| ExecMode::Thread,
            &|| ExecMode::Pooled { workers: 2 },
            &|| ExecMode::Sim(SimScheduler::new(SchedulePolicy::RandomWalk { seed: 11 })),
        ];
        let factor: i64 = scales.iter().product();
        let expect: Vec<i64> = (1..=count as i64).map(|v| v * factor).collect();
        for mode in modes {
            let net = Network::with_config(NetworkConfig {
                lint: LintLevel::Deny,
                synthesize_capacities: true,
                mode: mode(),
                ..NetworkConfig::default()
            });
            let (w, r) = net.channel_with_capacity(capacity);
            net.add(Sequence::new(1, count, w));
            let mut cursor = r;
            for k in &scales {
                let (sw, sr) = net.channel_with_capacity(capacity);
                net.add(Scale::new(*k, cursor, sw));
                cursor = sr;
            }
            let out = Arc::new(Mutex::new(Vec::new()));
            net.add(Collect::new(cursor, out.clone()));
            net.run().unwrap();
            prop_assert_eq!(&*out.lock().unwrap(), &expect);
            prop_assert_eq!(
                net.monitor().stats().capacity_grows,
                0,
                "synthesized static pipeline grew at runtime"
            );
        }
    }
}
