//! Positive and negative cases for every diagnostic code of the static
//! network verifier, exercised through the public API on the paper's own
//! graphs: each code must fire on a seeded defect and stay silent on the
//! corresponding clean graph. Also the zero-capacity construction
//! regressions (a zero-capacity channel can never transfer data and is
//! rejected up front rather than deadlocking at run time).

use kpn::core::graphs::{self, GraphOptions};
use kpn::core::stdlib::{Collect, CollectF64, Constant, ConstantF64, Scale, Sequence};
use kpn::core::{
    DataWriter, DiagCode, Error, ExecMode, Fix, LintLevel, Network, NetworkConfig, Process,
    ProcessCtx, ProcessTag, SchedulePolicy, SimScheduler,
};
use kpn::net::{ChannelSpec, GraphBuilder, GraphSpec, InputSpec, OutputSpec, ProcessSpec};
use std::sync::{Arc, Mutex};

fn deny() -> Network {
    Network::with_config(NetworkConfig {
        lint: LintLevel::Deny,
        ..NetworkConfig::default()
    })
}

fn lint_error(net: &Network) -> Vec<kpn::core::Diagnostic> {
    match net.run() {
        Err(Error::Lint(diags)) => diags,
        other => panic!("expected lint rejection, got {other:?}"),
    }
}

// --- L001: dangling endpoint ----------------------------------------------

#[test]
fn l001_fires_on_writer_never_given_to_a_process() {
    let net = deny();
    let (w, r) = net.channel();
    let out = Arc::new(Mutex::new(Vec::new()));
    net.add(Collect::new(r, out));
    // `w` stays here, undeclared: Collect would block forever.
    let diags = lint_error(&net);
    assert!(
        diags.iter().any(|d| d.code == DiagCode::L001),
        "expected L001 in {diags:?}"
    );
    drop(w);
}

#[test]
fn l001_silent_when_endpoint_declared_external() {
    let net = deny();
    let (w, r) = net.channel();
    w.declare_external();
    let out = Arc::new(Mutex::new(Vec::new()));
    net.add(Collect::new(r, out.clone()));
    net.start();
    // Feed the graph from the test thread — the declared-external pattern.
    let mut dw = DataWriter::new(w);
    for v in 0..5 {
        dw.write_i64(v).unwrap();
    }
    drop(dw);
    net.join().unwrap();
    assert_eq!(*out.lock().unwrap(), vec![0, 1, 2, 3, 4]);
}

// --- L002: typed-stream contract mismatch ---------------------------------

#[test]
fn l002_fires_on_element_type_mismatch() {
    let net = deny();
    let (w, r) = net.channel();
    // Writer produces f64, reader consumes i64: eight bytes either way, so
    // only the static contract can catch the misinterpretation.
    net.add(ConstantF64::new(1.5, w).with_limit(3));
    let out = Arc::new(Mutex::new(Vec::new()));
    net.add(Collect::new(r, out));
    let diags = lint_error(&net);
    assert!(
        diags.iter().any(|d| d.code == DiagCode::L002),
        "expected L002 in {diags:?}"
    );
}

#[test]
fn l002_silent_on_matching_contract() {
    let net = deny();
    let (w, r) = net.channel();
    net.add(ConstantF64::new(1.5, w).with_limit(3));
    let out = Arc::new(Mutex::new(Vec::new()));
    net.add(CollectF64::new(r, out.clone()));
    net.run().unwrap();
    assert_eq!(*out.lock().unwrap(), vec![1.5, 1.5, 1.5]);
}

#[test]
fn l002_fires_on_framing_mismatch() {
    // A DataWriter on one side and an ObjectReader on the other: the wire
    // formats are incompatible even before element types enter into it.
    let net = Network::new();
    let (w, r) = net.channel();
    let dw = DataWriter::new(w);
    let or = kpn::codec::ObjectReader::new(r);
    let diags = net.lint_diagnostics();
    assert!(
        diags
            .iter()
            .any(|d| d.code == DiagCode::L002 && d.message.contains("framing")),
        "expected framing L002 in {diags:?}"
    );
    drop((dw, or));
}

// --- L003: undercapacitated cycle -----------------------------------------

#[test]
fn l003_fires_on_undersized_hamming_cycle() {
    // Figure 12's graph with 4-byte channels: every cycle channel that
    // carries declared 8-byte tokens is too small to circulate even one.
    let net = Network::new();
    let opts = GraphOptions {
        channel_capacity: 4,
        ..GraphOptions::default()
    };
    let _out = graphs::hamming(&net, 20, &opts);
    let diags = net.lint_diagnostics();
    let l003: Vec<_> = diags.iter().filter(|d| d.code == DiagCode::L003).collect();
    assert!(!l003.is_empty(), "expected L003 in {diags:?}");
    // The graph must not start at Deny — drain it via abort to avoid
    // actually running the doomed cycle.
    net.abort();
}

#[test]
fn l003_silent_on_adequate_hamming_cycle() {
    let net = deny();
    let opts = GraphOptions {
        channel_capacity: 16,
        ..GraphOptions::default()
    };
    let out = graphs::hamming(&net, 20, &opts);
    net.run().unwrap();
    assert_eq!(*out.lock().unwrap(), graphs::hamming_reference(20));
}

// --- L004: orphan process --------------------------------------------------

struct Idle {
    tag: ProcessTag,
}

impl Idle {
    fn new() -> Self {
        Idle {
            tag: ProcessTag::new("Idle"),
        }
    }
}

impl Process for Idle {
    fn name(&self) -> String {
        "Idle".into()
    }
    fn lint_tag(&self) -> Option<&ProcessTag> {
        Some(&self.tag)
    }
    fn run(self: Box<Self>, _ctx: &ProcessCtx) -> kpn::core::Result<()> {
        Ok(())
    }
}

#[test]
fn l004_fires_on_process_without_endpoints() {
    let net = deny();
    net.add_process(Box::new(Idle::new()));
    let diags = lint_error(&net);
    assert!(
        diags.iter().any(|d| d.code == DiagCode::L004),
        "expected L004 in {diags:?}"
    );
}

#[test]
fn l004_silent_on_connected_processes() {
    let net = deny();
    let (w, r) = net.channel();
    net.add(Constant::new(7, w).with_limit(2));
    let out = Arc::new(Mutex::new(Vec::new()));
    net.add(Collect::new(r, out.clone()));
    net.run().unwrap();
    assert_eq!(*out.lock().unwrap(), vec![7, 7]);
}

// --- L005: SDF-checkable subgraph ------------------------------------------

/// A declared process that attaches its endpoints with explicit SDF rates
/// and terminates immediately — the graph exists only to be analysed.
struct RateActor {
    tag: ProcessTag,
    inputs: Vec<kpn::core::ChannelReader>,
    outputs: Vec<kpn::core::ChannelWriter>,
}

impl RateActor {
    fn new(
        name: &str,
        inputs: Vec<(kpn::core::ChannelReader, u64)>,
        outputs: Vec<(kpn::core::ChannelWriter, u64)>,
    ) -> Self {
        let tag = ProcessTag::new(name);
        let inputs = inputs
            .into_iter()
            .map(|(r, rate)| {
                r.attach(&tag);
                r.declare_item::<i64>(8);
                r.declare_rate(rate);
                r
            })
            .collect();
        let outputs = outputs
            .into_iter()
            .map(|(w, rate)| {
                w.attach(&tag);
                w.declare_item::<i64>(8);
                w.declare_rate(rate);
                w
            })
            .collect();
        RateActor { tag, inputs, outputs }
    }
}

impl Process for RateActor {
    fn name(&self) -> String {
        self.tag.name().to_string()
    }
    fn lint_tag(&self) -> Option<&ProcessTag> {
        Some(&self.tag)
    }
    fn run(self: Box<Self>, _ctx: &ProcessCtx) -> kpn::core::Result<()> {
        drop(self.inputs);
        drop(self.outputs);
        Ok(())
    }
}

#[test]
fn l005_fires_on_inconsistent_rates() {
    let net = deny();
    // a -2/1-> b -2/1-> a: each firing doubles the tokens in flight — the
    // balance equations have no solution.
    let (ab_w, ab_r) = net.channel();
    let (ba_w, ba_r) = net.channel();
    net.add_process(Box::new(RateActor::new(
        "a",
        vec![(ba_r, 1)],
        vec![(ab_w, 2)],
    )));
    net.add_process(Box::new(RateActor::new(
        "b",
        vec![(ab_r, 1)],
        vec![(ba_w, 2)],
    )));
    let diags = lint_error(&net);
    assert!(
        diags.iter().any(|d| d.code == DiagCode::L005),
        "expected L005 in {diags:?}"
    );
}

#[test]
fn l005_silent_on_consistent_rates() {
    let net = deny();
    let (w, r) = net.channel();
    net.add_process(Box::new(RateActor::new("src", vec![], vec![(w, 1)])));
    net.add_process(Box::new(RateActor::new("sink", vec![(r, 1)], vec![])));
    net.run().unwrap();
}

// --- Paper graphs stay clean at Deny, through reconfiguration --------------

#[test]
fn sieve_is_lint_clean_across_reconfigurations() {
    // The Sift process dynamically inserts a Modulo stage per prime
    // (Figures 7/8); lint re-checks after every insertion, so a full run
    // at Deny proves each intermediate topology is clean too.
    let net = deny();
    let out = graphs::primes_below(&net, 50, &GraphOptions::default());
    net.run().unwrap();
    assert_eq!(
        *out.lock().unwrap(),
        vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    );
}

#[test]
fn fibonacci_and_newton_are_lint_clean_at_deny() {
    let net = deny();
    let out = graphs::fibonacci(&net, 10, &GraphOptions::default());
    net.run().unwrap();
    assert_eq!(*out.lock().unwrap(), vec![1, 1, 2, 3, 5, 8, 13, 21, 34, 55]);

    let net = deny();
    let out = graphs::newton_sqrt(&net, 2.0, &GraphOptions::default());
    net.run().unwrap();
    let got = out.lock().unwrap()[0];
    assert!((got - 2f64.sqrt()).abs() < 1e-9);
}

// --- Zero-capacity regressions ---------------------------------------------

#[test]
fn zero_capacity_channel_rejected() {
    let net = Network::new();
    match net.try_channel_with_capacity(0) {
        Err(Error::Graph(msg)) => assert!(msg.contains("capacity"), "{msg}"),
        other => panic!("expected graph error, got {other:?}"),
    }
}

#[test]
#[should_panic(expected = "capacity")]
fn zero_capacity_channel_panics_on_infallible_path() {
    let net = Network::new();
    let _ = net.channel_with_capacity(0);
}

#[test]
fn zero_capacity_rejected_inside_processes() {
    let net = Network::new();
    let failed = Arc::new(Mutex::new(None));
    let failed2 = failed.clone();
    net.add_fn("probe", move |ctx| {
        *failed2.lock().unwrap() = Some(ctx.try_channel_with_capacity(0).is_err());
        Ok(())
    });
    net.run().unwrap();
    assert_eq!(*failed.lock().unwrap(), Some(true));
}

#[test]
fn zero_capacity_spec_edge_rejected_by_builder() {
    let mut b = GraphBuilder::new();
    let c = b.channel_with_capacity(0);
    b.add(kpn::net::CLIENT, "Sequence", &(1i64, Some(3u64)), &[], &[c])
        .unwrap();
    b.claim_reader(c).unwrap();
    let cluster = kpn::net::chaos::ChaosCluster::plain(0).unwrap();
    match b.deploy(cluster.client(), cluster.handles()) {
        Err(Error::Graph(msg)) => assert!(msg.contains("zero capacity"), "{msg}"),
        other => panic!("expected graph error, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn zero_capacity_spec_edge_flagged_by_spec_checker() {
    let spec = GraphSpec {
        channels: vec![ChannelSpec { capacity: 0 }],
        processes: vec![
            ProcessSpec {
                type_name: "Sequence".into(),
                params: Vec::new(),
                inputs: vec![],
                outputs: vec![OutputSpec::Local(0)],
            },
            ProcessSpec {
                type_name: "Print".into(),
                params: Vec::new(),
                inputs: vec![InputSpec::Local(0)],
                outputs: vec![],
            },
        ],
    };
    let diags = kpn::lint::check_specs(&[("part".into(), spec)]);
    assert!(
        diags.iter().any(|d| d.code == DiagCode::L003),
        "expected zero-capacity finding in {diags:?}"
    );
}

// --- Warn level reports without blocking -----------------------------------

#[test]
fn warn_level_does_not_block_start() {
    let net = Network::with_config(NetworkConfig {
        lint: LintLevel::Warn,
        ..NetworkConfig::default()
    });
    let (w, r) = net.channel();
    // Type mismatch (L002) is advisory here: the run proceeds — eight
    // bytes are eight bytes — but the warning lands on stderr.
    net.add(ConstantF64::new(2.0, w).with_limit(1));
    let out = Arc::new(Mutex::new(Vec::new()));
    net.add(Collect::new(r, out.clone()));
    net.run().unwrap();
    assert_eq!(out.lock().unwrap().len(), 1);
}

// --- Structured diagnostics -------------------------------------------------

#[test]
fn diagnostics_name_the_offending_process_and_channel() {
    let net = Network::new();
    let (w, r) = net.channel();
    net.add(ConstantF64::new(1.0, w).with_limit(1));
    let out = Arc::new(Mutex::new(Vec::new()));
    net.add(Collect::new(r, out));
    let diags = net.lint_diagnostics();
    let l002 = diags
        .iter()
        .find(|d| d.code == DiagCode::L002)
        .expect("type mismatch present");
    assert!(l002.channel.is_some(), "channel attribution missing");
    assert_eq!(l002.process.as_deref(), Some("Collect"));
    net.abort();
}

#[test]
fn sequence_scale_graph_snapshot_is_fully_declared() {
    let net = Network::new();
    let (aw, ar) = net.channel();
    let (bw, br) = net.channel();
    net.add(Sequence::new(0, 5, aw));
    net.add(Scale::new(2, ar, bw));
    let out = Arc::new(Mutex::new(Vec::new()));
    net.add(Collect::new(br, out));
    let snap = net.topology_snapshot();
    assert!(snap.fully_declared);
    assert_eq!(snap.processes.len(), 3);
    assert_eq!(snap.channels.len(), 2);
    net.abort();
}

// --- Capacity synthesis on the paper graphs --------------------------------

#[test]
fn hamming_cap4_emits_setcapacity_fixes() {
    // The acceptance case from the synthesis work: Figure 12's graph at
    // capacity 4 must come with machine-applicable repairs, not just a
    // verdict.
    let net = Network::new();
    let opts = GraphOptions {
        channel_capacity: 4,
        ..GraphOptions::default()
    };
    let _out = graphs::hamming(&net, 20, &opts);
    let diags = net.lint_diagnostics();
    let fixes: Vec<&Fix> = diags.iter().flat_map(|d| d.fixes.iter()).collect();
    assert!(!fixes.is_empty(), "expected SetCapacity fixes in {diags:?}");
    for Fix::SetCapacity { current, suggested, .. } in fixes {
        assert!(suggested > current, "fix must grow the channel");
    }
    net.abort();
}

/// With `synthesize_capacities`, the capacity-4 Hamming graph passes the
/// `Deny` gate (the fixes resolve every L003 before enforcement), runs to
/// completion, and — the observable claim behind synthesis — never needs
/// the monitor's runtime grow loop.
fn hamming_cap4_synthesized_runs_without_growth(mode: ExecMode) {
    let net = Network::with_config(NetworkConfig {
        lint: LintLevel::Deny,
        synthesize_capacities: true,
        mode,
        ..NetworkConfig::default()
    });
    let opts = GraphOptions {
        channel_capacity: 4,
        ..GraphOptions::default()
    };
    let out = graphs::hamming(&net, 20, &opts);
    net.run().unwrap();
    assert_eq!(*out.lock().unwrap(), graphs::hamming_reference(20));
    let stats = net.monitor().stats();
    assert_eq!(
        stats.capacity_grows, 0,
        "synthesized region fell back to runtime growth: {:?}",
        stats.growth_log
    );
}

#[test]
fn hamming_cap4_synthesized_thread() {
    hamming_cap4_synthesized_runs_without_growth(ExecMode::Thread);
}

#[test]
fn hamming_cap4_synthesized_pooled() {
    hamming_cap4_synthesized_runs_without_growth(ExecMode::Pooled { workers: 2 });
}

#[test]
fn hamming_cap4_synthesized_sim() {
    hamming_cap4_synthesized_runs_without_growth(ExecMode::Sim(SimScheduler::new(
        SchedulePolicy::RandomWalk { seed: 7 },
    )));
}

#[test]
fn sieve_synthesis_is_a_noop_and_never_grows() {
    // The sieve's Sift stage is data-dependent (no declared rates), so no
    // SDF region forms and synthesis has nothing to suggest: enabling it
    // must change nothing, and the default capacities already run the
    // graph without monitor growth.
    let net = Network::with_config(NetworkConfig {
        lint: LintLevel::Deny,
        synthesize_capacities: true,
        ..NetworkConfig::default()
    });
    let out = graphs::primes_below(&net, 50, &GraphOptions::default());
    let diags = net.lint_diagnostics();
    assert!(
        diags.iter().all(|d| d.fixes.is_empty()),
        "sieve should synthesize no fixes: {diags:?}"
    );
    net.run().unwrap();
    assert_eq!(
        *out.lock().unwrap(),
        vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    );
    assert_eq!(net.monitor().stats().capacity_grows, 0);
}
