//! The whole lint, L001–L006, runs on every network with nothing installed
//! first. One test in its own binary, so no earlier test in the same
//! process can have set anything up for it.

use kpn::core::stdlib::{Collect, Scale, Sequence};
use kpn::core::{
    ChannelReader, ChannelWriter, DiagCode, Error, Fix, LintLevel, Network, NetworkConfig, Process,
    ProcessCtx, ProcessTag,
};
use std::sync::{Arc, Mutex};

/// A declared process whose endpoints carry SDF rates; it only exists to
/// be linted.
struct Rated {
    tag: ProcessTag,
    _inputs: Vec<ChannelReader>,
    _outputs: Vec<ChannelWriter>,
}

impl Rated {
    fn new(
        name: &str,
        inputs: Vec<(ChannelReader, u64)>,
        outputs: Vec<(ChannelWriter, u64)>,
    ) -> Box<Self> {
        let tag = ProcessTag::new(name);
        let inputs = inputs.into_iter().map(|(r, rate)| {
            r.attach(&tag);
            r.declare_item::<i64>(8);
            r.declare_rate(rate);
            r
        });
        let outputs = outputs.into_iter().map(|(w, rate)| {
            w.attach(&tag);
            w.declare_item::<i64>(8);
            w.declare_rate(rate);
            w
        });
        Box::new(Rated {
            _inputs: inputs.collect(),
            _outputs: outputs.collect(),
            tag,
        })
    }
}

impl Process for Rated {
    fn name(&self) -> String {
        self.tag.name().to_string()
    }
    fn lint_tag(&self) -> Option<&ProcessTag> {
        Some(&self.tag)
    }
    fn run(self: Box<Self>, _ctx: &ProcessCtx) -> kpn::core::Result<()> {
        Ok(())
    }
}

#[test]
fn every_network_runs_l005_and_l006_without_opt_in() {
    // A source feeding a sink over two channels whose rates disagree: one
    // says the two fire equally often, the other that the sink fires twice
    // per source firing. No repetition vector exists, and `Deny` refuses.
    let net = Network::with_config(NetworkConfig {
        lint: LintLevel::Deny,
        ..NetworkConfig::default()
    });
    let (aw, ar) = net.channel();
    let (bw, br) = net.channel();
    net.add_process(Rated::new("src", vec![], vec![(aw, 1), (bw, 2)]));
    net.add_process(Rated::new("sink", vec![(ar, 1), (br, 1)], vec![]));
    match net.try_start() {
        Err(Error::Lint(diags)) => assert!(
            diags.iter().any(|d| d.code == DiagCode::L005),
            "expected L005 in {diags:?}"
        ),
        other => panic!("expected a lint refusal, got {other:?}"),
    }
    net.abort();

    // Sequence→Scale→Collect at capacity 4: each channel carries 8-byte
    // tokens, so the rate-1 chain cannot fire until a channel holds one.
    let net = Network::new();
    let (aw, ar) = net.channel_with_capacity(4);
    let (bw, br) = net.channel_with_capacity(4);
    net.add(Sequence::new(0, 5, aw));
    net.add(Scale::new(2, ar, bw));
    net.add(Collect::new(br, Arc::new(Mutex::new(Vec::new()))));
    let diags = net.lint_diagnostics();
    let l006: Vec<_> = diags.iter().filter(|d| d.code == DiagCode::L006).collect();
    assert!(!l006.is_empty(), "expected L006 in {diags:?}");
    for d in l006 {
        assert_eq!(
            d.fixes,
            vec![Fix::SetCapacity {
                channel: d.channel.expect("L006 names its channel"),
                current: 4,
                suggested: 8,
            }]
        );
    }
    net.abort();
}
