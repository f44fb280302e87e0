//! Pre-deployment checking of serialized graph partitions.
//!
//! A distributed deployment is a set of [`GraphSpec`] partitions, one per
//! node, wired together by remote endpoint tokens (§4.2: an output's
//! `Remote { addr, token }` connects to the input listening for the same
//! `token` on another node's acceptor). What is wrong with one partition on
//! its own is listed by [`GraphSpec::defects`] — the same list a node
//! refuses a shipped spec by — and [`check_specs`] words it as lint
//! diagnostics. What no single partition can show is whether the tokens
//! pair up: nothing validates that until every node is up, and a mistyped
//! token then presents as a silent stall, the distributed analogue of the
//! dangling-endpoint defect L001. That pairing is this module's own check.

use std::collections::HashMap;

use kpn_core::{DiagCode, Diagnostic, Fix, DEFAULT_CAPACITY};
use kpn_net::{GraphSpec, InputSpec, OutputSpec, SpecDefect};

fn diag(code: DiagCode, message: String, process: Option<String>) -> Diagnostic {
    Diagnostic {
        code,
        message,
        process,
        channel: None,
        fixes: Vec::new(),
    }
}

/// Fixes synthesizable for one serialized partition. A [`GraphSpec`]
/// carries no rate or element-type metadata, so spec-level synthesis is
/// limited to what structure alone proves: a zero-capacity channel can
/// never transfer a byte, and the fix raises it to the deployment default
/// capacity. (Rate-declared live topologies get the exact schedule-derived
/// bounds from the L006 pass instead.) Fix channel ids are indices into
/// `spec.channels`.
pub fn synthesize_spec_fixes(spec: &GraphSpec) -> Vec<Fix> {
    spec.channels
        .iter()
        .enumerate()
        .filter(|(_, ch)| ch.capacity == 0)
        .map(|(ci, ch)| Fix::SetCapacity {
            channel: ci as u64,
            current: ch.capacity,
            suggested: DEFAULT_CAPACITY,
        })
        .collect()
}

/// Applies [`Fix::SetCapacity`] edits to a partition in place (fix channel
/// ids are indices into `spec.channels`). Capacities only ever grow, so
/// applying the same fixes twice is a no-op — the property `kpn-lint fix
/// --check` relies on. Returns the number of channels that changed.
pub fn apply_spec_fixes(spec: &mut GraphSpec, fixes: &[Fix]) -> usize {
    let mut changed = 0;
    for fix in fixes {
        let Fix::SetCapacity {
            channel, suggested, ..
        } = fix;
        if let Some(ch) = spec.channels.get_mut(*channel as usize) {
            if ch.capacity < *suggested {
                ch.capacity = *suggested;
                changed += 1;
            }
        }
    }
    changed
}

/// Statically checks a set of named graph partitions as one deployment.
///
/// Per partition, every [`SpecDefect`]: local channel references must be in
/// bounds, every local channel must have exactly one producer and one
/// consumer (§1's single-producer/single-consumer law), channel capacities
/// must be non-zero (L003), and every process must hold at least one
/// endpoint (L004). Across partitions: every `OutputSpec::Remote` token
/// must have exactly one listening `InputSpec::Remote`, and vice versa — an
/// unmatched token is a remote endpoint that will dangle forever (L001).
///
/// The partition `name` (typically the file name) prefixes each message so
/// findings can be traced to the spec that caused them.
pub fn check_specs(specs: &[(String, GraphSpec)]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // token -> (#remote writers, #remote readers), with one exemplar
    // location each for the report.
    let mut remote: HashMap<u64, (usize, usize, String)> = HashMap::new();

    for (name, spec) in specs {
        let nch = spec.channels.len();
        let label =
            |pi: usize| format!("{name}: process {pi} (`{}`)", spec.processes[pi].type_name);
        let of = |pi: usize| Some(spec.processes[pi].type_name.clone());
        let verb = |writes: bool| if writes { "writes" } else { "reads" };
        out.extend(spec.defects().into_iter().map(|defect| match defect {
            SpecDefect::ZeroCapacity { channel } => Diagnostic {
                code: DiagCode::L003,
                message: format!(
                    "{name}: channel {channel} has zero capacity; it can never \
                     transfer data"
                ),
                process: None,
                channel: Some(channel as u64),
                fixes: vec![Fix::SetCapacity {
                    channel: channel as u64,
                    current: 0,
                    suggested: DEFAULT_CAPACITY,
                }],
            },
            SpecDefect::NoEndpoints { process } => diag(
                DiagCode::L004,
                format!(
                    "{} holds no endpoints; it can neither produce nor consume data",
                    label(process)
                ),
                of(process),
            ),
            SpecDefect::OutOfRange {
                process,
                channel,
                writes,
            } => diag(
                DiagCode::L001,
                format!(
                    "{} {} local channel {channel}, but the partition only has {nch} channels",
                    label(process),
                    verb(writes)
                ),
                of(process),
            ),
            SpecDefect::Taken {
                process,
                channel,
                writes,
            } => diag(
                DiagCode::L001,
                format!(
                    "{} {} local channel {channel}, which already has a {}; a channel needs \
                     exactly one (two would race)",
                    label(process),
                    verb(writes),
                    if writes { "producer" } else { "consumer" }
                ),
                of(process),
            ),
            SpecDefect::Open { channel, writes } => diag(
                DiagCode::L001,
                if writes {
                    format!(
                        "{name}: channel {channel} has 0 producers; a channel needs exactly one \
                         (its reader blocks forever)"
                    )
                } else {
                    format!(
                        "{name}: channel {channel} has 0 consumers; a channel needs exactly one \
                         (its writer stalls once the buffer fills)"
                    )
                },
                None,
            ),
            SpecDefect::Unused { channel } => diag(
                DiagCode::L001,
                format!("{name}: channel {channel} has 0 producers and 0 consumers; no process references it"),
                None,
            ),
        }));

        for (pi, p) in spec.processes.iter().enumerate() {
            for input in &p.inputs {
                if let InputSpec::Remote { token } = input {
                    remote.entry(*token).or_insert((0, 0, label(pi))).1 += 1;
                }
            }
            for output in &p.outputs {
                if let OutputSpec::Remote { token, .. } = output {
                    remote.entry(*token).or_insert((0, 0, label(pi))).0 += 1;
                }
            }
        }
    }

    let mut tokens: Vec<_> = remote.into_iter().collect();
    tokens.sort_by_key(|(t, _)| *t);
    for (token, (writers, readers, at)) in tokens {
        if writers != 1 || readers != 1 {
            out.push(diag(
                DiagCode::L001,
                format!(
                    "remote endpoint token {token} has {writers} writer(s) and {readers} \
                     reader(s) across the deployment (first seen at {at}); each token \
                     must pair exactly one remote output with one remote input"
                ),
                None,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpn_net::{ChannelSpec, ProcessSpec};

    fn process(inputs: Vec<InputSpec>, outputs: Vec<OutputSpec>) -> ProcessSpec {
        ProcessSpec {
            type_name: "P".into(),
            params: Vec::new(),
            inputs,
            outputs,
        }
    }

    fn named(spec: GraphSpec) -> Vec<(String, GraphSpec)> {
        vec![("part0".into(), spec)]
    }

    #[test]
    fn wired_partition_is_clean() {
        let spec = GraphSpec {
            channels: vec![ChannelSpec { capacity: 64 }],
            processes: vec![
                process(vec![], vec![OutputSpec::Local(0)]),
                process(vec![InputSpec::Local(0)], vec![]),
            ],
        };
        assert!(check_specs(&named(spec)).is_empty());
    }

    #[test]
    fn unconnected_local_channel_flagged() {
        let spec = GraphSpec {
            channels: vec![ChannelSpec { capacity: 64 }],
            processes: vec![process(vec![], vec![OutputSpec::Local(0)])],
        };
        let diags = check_specs(&named(spec));
        assert!(
            diags
                .iter()
                .any(|d| d.code == DiagCode::L001 && d.message.contains("0 consumers")),
            "{diags:?}"
        );
    }

    #[test]
    fn out_of_bounds_reference_flagged() {
        let spec = GraphSpec {
            channels: vec![],
            processes: vec![process(vec![InputSpec::Local(3)], vec![])],
        };
        let diags = check_specs(&named(spec));
        assert!(diags.iter().any(|d| d.message.contains("only has 0")));
    }

    #[test]
    fn zero_capacity_flagged() {
        let spec = GraphSpec {
            channels: vec![ChannelSpec { capacity: 0 }],
            processes: vec![
                process(vec![], vec![OutputSpec::Local(0)]),
                process(vec![InputSpec::Local(0)], vec![]),
            ],
        };
        let diags = check_specs(&named(spec));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::L003);
    }

    #[test]
    fn matched_remote_tokens_across_partitions_are_clean() {
        let a = GraphSpec {
            channels: vec![],
            processes: vec![process(
                vec![],
                vec![OutputSpec::Remote {
                    addr: "10.0.0.2:9000".into(),
                    token: 7,
                }],
            )],
        };
        let b = GraphSpec {
            channels: vec![],
            processes: vec![process(vec![InputSpec::Remote { token: 7 }], vec![])],
        };
        let specs = vec![("a".to_string(), a), ("b".to_string(), b)];
        assert!(check_specs(&specs).is_empty());
    }

    #[test]
    fn dangling_remote_token_flagged() {
        let a = GraphSpec {
            channels: vec![],
            processes: vec![process(
                vec![],
                vec![OutputSpec::Remote {
                    addr: "10.0.0.2:9000".into(),
                    token: 9,
                }],
            )],
        };
        let diags = check_specs(&[("a".to_string(), a)]);
        assert!(
            diags
                .iter()
                .any(|d| d.code == DiagCode::L001 && d.message.contains("token 9")),
            "{diags:?}"
        );
    }

    #[test]
    fn orphan_spec_process_flagged() {
        let spec = GraphSpec {
            channels: vec![],
            processes: vec![process(vec![], vec![])],
        };
        let diags = check_specs(&named(spec));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::L004);
    }
}
