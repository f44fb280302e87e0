//! Fuzz the network-facing parsers: arbitrary bytes from the wire must
//! produce errors, never panics or unbounded allocations — and a spec that
//! decodes is still hostile: every consumer of a [`GraphSpec`] must answer a
//! structurally broken one, not index by its numbers.

use kpn_net::{
    ChannelSpec, ControlRequest, GraphSpec, InputSpec, Node, OutputSpec, ProcessSpec, ServerHandle,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// A node, one helper and the handle to it, shared by every case.
fn nodes() -> &'static (Arc<Node>, Arc<Node>, ServerHandle) {
    static NODES: OnceLock<(Arc<Node>, Arc<Node>, ServerHandle)> = OnceLock::new();
    NODES.get_or_init(|| {
        let node = Node::serve("127.0.0.1:0").unwrap();
        let helper = Node::serve("127.0.0.1:0").unwrap();
        let handle = ServerHandle::new(helper.addr().to_string());
        (node, helper, handle)
    })
}

/// `Sequence(0, 1, 2) → Identity × (n − 2) → Discard` over `n − 1` local
/// channels: well formed, runnable with the stock registry, and finite.
fn pipeline(n: usize) -> GraphSpec {
    let stage = |type_name: &str, params: Vec<u8>, inputs, outputs| ProcessSpec {
        type_name: type_name.into(),
        params,
        inputs,
        outputs,
    };
    let unit = || kpn_codec::to_bytes(&()).unwrap();
    let mut processes = vec![stage(
        "Sequence",
        kpn_codec::to_bytes(&(0i64, Some(3u64))).unwrap(),
        vec![],
        vec![OutputSpec::Local(0)],
    )];
    for c in 1..n - 1 {
        let (from, to) = (InputSpec::Local(c - 1), OutputSpec::Local(c));
        processes.push(stage("Identity", unit(), vec![from], vec![to]));
    }
    let last = InputSpec::Local(n - 2);
    processes.push(stage("Discard", unit(), vec![last], vec![]));
    GraphSpec {
        channels: vec![ChannelSpec { capacity: 64 }; n - 1],
        processes,
    }
}

/// One structural edit: an index, a capacity, or the length of an endpoint
/// or channel list. `which` picks the victim, `value` is what goes in.
fn mutate(spec: &mut GraphSpec, kind: u8, which: usize, value: usize) {
    let channel = which % spec.channels.len();
    // Zero or modest. (A huge capacity is not a structural defect and is
    // allocated as asked: bounding it is the other half of ROADMAP 4(a).)
    let capacity = value % 2 * 64;
    let process = which % spec.processes.len();
    let p = &mut spec.processes[process];
    match kind {
        0 => match p.inputs.first_mut() {
            Some(input) => *input = InputSpec::Local(value),
            None => p.inputs.push(InputSpec::Local(value)),
        },
        1 => match p.outputs.first_mut() {
            Some(output) => *output = OutputSpec::Local(value),
            None => p.outputs.push(OutputSpec::Local(value)),
        },
        2 => spec.channels[channel].capacity = capacity,
        3 => {
            p.inputs.pop();
            p.outputs.pop();
        }
        4 => p.outputs.push(OutputSpec::Local(value)),
        5 => spec.channels.truncate(channel),
        _ => spec.channels.push(ChannelSpec { capacity }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte blobs decoded as control messages or graph specs
    /// fail cleanly.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = kpn_codec::from_bytes::<ControlRequest>(&bytes);
        let _ = kpn_codec::from_bytes::<GraphSpec>(&bytes);
    }

    /// Specs round-trip through the codec unchanged (structural equality
    /// via re-encoding).
    #[test]
    fn specs_roundtrip(
        capacities in proptest::collection::vec(1usize..100_000, 0..8),
        names in proptest::collection::vec("[a-zA-Z]{1,12}", 0..8),
    ) {
        let spec = GraphSpec {
            channels: capacities
                .iter()
                .map(|&c| ChannelSpec { capacity: c })
                .collect(),
            processes: names
                .iter()
                .map(|n| ProcessSpec {
                    type_name: n.clone(),
                    params: n.as_bytes().to_vec(),
                    inputs: vec![],
                    outputs: vec![],
                })
                .collect(),
        };
        let bytes = kpn_codec::to_bytes(&spec).unwrap();
        let back: GraphSpec = kpn_codec::from_bytes(&bytes).unwrap();
        let bytes2 = kpn_codec::to_bytes(&back).unwrap();
        prop_assert_eq!(bytes, bytes2);
    }

    /// ROADMAP 4(a), the structure-aware half: a valid spec with one index,
    /// capacity or list length edited. The check, `instantiate`,
    /// `redistribute` and the lint each answer — `Ok`, `Err` or diagnostics,
    /// never a panic — and a node runs nothing the check refuses.
    #[test]
    fn a_mutated_spec_is_answered_by_everyone_and_run_only_if_well_formed(
        n in 2usize..6,
        kind in 0u8..7,
        which in any::<usize>(),
        value in prop_oneof![0usize..8, Just(usize::MAX), any::<usize>()],
    ) {
        let mut spec = pipeline(n);
        mutate(&mut spec, kind, which, value);
        let (node, _, helper) = nodes();

        let defects = spec.defects();
        let accepted = !defects.iter().any(|d| d.blocks());
        // No remote endpoints here, so the lint has the defects to report
        // and nothing else: one diagnostic each.
        let diagnostics = kpn_lint::check_specs(&[("fuzz".to_string(), spec.clone())]);
        prop_assert_eq!(diagnostics.len(), defects.len());

        // Whoever runs it joins it: a refused spec leaves nothing behind,
        // an accepted one is still the finite pipeline.
        if let Ok(network) = node.instantiate(spec.clone()) {
            prop_assert!(accepted, "instantiate ran a spec with {:?}", defects);
            let _ = network.join();
        }
        if node.redistribute(spec, std::slice::from_ref(helper)).is_ok() {
            prop_assert!(accepted, "redistribute ran a spec with {:?}", defects);
            let _ = node.join_all();
            let _ = helper.wait_idle();
        }
    }
}
