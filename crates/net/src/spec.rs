//! Serializable graph descriptions — the unit of migration — and the two
//! things that are decided about them: what makes one well formed, and how
//! one is cut.
//!
//! Java ships live objects; Rust cannot ship code, so a subgraph travels as
//! a [`GraphSpec`]: process *descriptions* (type name + constructor
//! parameters) plus channel wiring. The receiving server reconstructs the
//! processes through its [`crate::ProcessRegistry`] — the substitute for
//! Java's dynamic class loading (`java.rmi.server.codebase`, §4.1). What
//! is preserved exactly is the paper's *protocol*: endpoints that cross a
//! partition boundary serialize as remote endpoint descriptors, and
//! deserializing them triggers the automatic network-connection
//! establishment of §4.2.
//!
//! **One check.** [`GraphSpec::defects`] lists what is structurally wrong
//! with a spec. A spec off a socket or out of a file is hostile until it
//! has passed it: [`Node::instantiate`](crate::Node::instantiate),
//! [`Node::redistribute`](crate::Node::redistribute) and the cut refuse
//! the first defect that [blocks](SpecDefect::blocks) before they index
//! anything by a number the spec supplied; `kpn_lint::check_specs` reports
//! the whole list.
//!
//! **One cut.** `GraphSpec::cut` is the only place that decides whether a
//! channel stays local or becomes a network connection, and the only place
//! a `Remote` endpoint is made. [`GraphBuilder::specs`],
//! [`GraphBuilder::deploy`] and [`Node::redistribute`](crate::Node::redistribute)
//! differ in who goes where and where tokens come from, and in nothing
//! else (DESIGN.md §4d).
//!
//! [`GraphBuilder::specs`]: crate::GraphBuilder::specs
//! [`GraphBuilder::deploy`]: crate::GraphBuilder::deploy

use kpn_core::{Error, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A channel local to one partition.
#[derive(Serialize, Deserialize, Debug, Clone)]
pub struct ChannelSpec {
    /// Buffer capacity in bytes.
    pub capacity: usize,
}

/// Where a process input comes from.
#[derive(Serialize, Deserialize, Debug, Clone)]
pub enum InputSpec {
    /// Reads the local channel at this index.
    Local(usize),
    /// The writer lives elsewhere: listen for the data connection
    /// presenting `token` on this node's acceptor.
    Remote {
        /// Endpoint token the incoming connection will present.
        token: u64,
    },
}

/// Where a process output goes.
#[derive(Serialize, Deserialize, Debug, Clone)]
pub enum OutputSpec {
    /// Writes the local channel at this index.
    Local(usize),
    /// The reader lives elsewhere: connect to its node and present
    /// `token`.
    Remote {
        /// Address of the reader's acceptor.
        addr: String,
        /// Endpoint token registered (or to be registered) there.
        token: u64,
    },
}

/// One process to reconstruct.
#[derive(Serialize, Deserialize, Debug, Clone)]
pub struct ProcessSpec {
    /// Registry key naming the process type.
    pub type_name: String,
    /// Constructor parameters, `kpn-codec` encoded (type-specific).
    pub params: Vec<u8>,
    /// Input endpoints, in the order the factory expects.
    pub inputs: Vec<InputSpec>,
    /// Output endpoints, in the order the factory expects.
    pub outputs: Vec<OutputSpec>,
}

/// A partition of the program graph, ready to run on one server.
#[derive(Serialize, Deserialize, Debug, Clone, Default)]
pub struct GraphSpec {
    /// Channels internal to this partition.
    pub channels: Vec<ChannelSpec>,
    /// Processes of this partition.
    pub processes: Vec<ProcessSpec>,
}

/// One structural defect of a [`GraphSpec`], as [`GraphSpec::defects`]
/// lists them. Channels and processes are named by their index in the spec;
/// `writes` says which end of the channel is meant (the producer's when
/// true). `Display` is the text a runtime refuses the spec with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecDefect {
    /// The channel can never transfer a byte.
    ZeroCapacity {
        /// The channel.
        channel: usize,
    },
    /// The process can neither produce nor consume data.
    NoEndpoints {
        /// The process.
        process: usize,
    },
    /// The process names a local channel the spec does not have.
    OutOfRange {
        /// The process.
        process: usize,
        /// The index it names.
        channel: usize,
        /// Whether it names it as an output.
        writes: bool,
    },
    /// The process claims a channel end that an earlier endpoint holds.
    Taken {
        /// The later claimant.
        process: usize,
        /// The channel.
        channel: usize,
        /// Whether the end claimed twice is the producer's.
        writes: bool,
    },
    /// One end of the channel is held and the other is not.
    Open {
        /// The channel.
        channel: usize,
        /// Whether the end nobody holds is the producer's.
        writes: bool,
    },
    /// No process references the channel.
    Unused {
        /// The channel.
        channel: usize,
    },
}

impl SpecDefect {
    /// True when a runtime must refuse the spec. A process without
    /// endpoints and a channel without processes run — to no purpose, which
    /// is for a lint to say.
    pub fn blocks(&self) -> bool {
        !matches!(self, Self::NoEndpoints { .. } | Self::Unused { .. })
    }
}

impl std::fmt::Display for SpecDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let end = |writes: bool| if writes { "writer" } else { "reader" };
        match *self {
            Self::ZeroCapacity { channel } => write!(
                f,
                "channel {channel} has zero capacity: a zero-capacity channel can \
                 never transfer data"
            ),
            Self::NoEndpoints { process } => write!(f, "process {process} holds no endpoints"),
            Self::OutOfRange {
                process,
                channel,
                writes,
            }
            | Self::Taken {
                process,
                channel,
                writes,
            } => write!(
                f,
                "process {process}: channel {channel} {} missing or already taken",
                end(writes)
            ),
            Self::Open { channel, .. } => write!(f, "channel {channel} is not fully connected"),
            Self::Unused { channel } => write!(f, "channel {channel} is referenced by no process"),
        }
    }
}

/// What [`GraphSpec::cut`] returns: the non-empty partitions in ascending
/// order, and the cut channels in channel order as `(writer's partition,
/// reader's partition, token)`.
pub(crate) type CutGraph = (Vec<(usize, GraphSpec)>, Vec<(usize, usize, u64)>);

impl GraphSpec {
    /// True when the partition has nothing to run.
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }

    /// The local channels a process names, as `(index, writes)`: inputs
    /// first, each in port order.
    fn local_ends(p: &ProcessSpec) -> impl Iterator<Item = (usize, bool)> + '_ {
        let reads = p.inputs.iter().filter_map(|i| match i {
            InputSpec::Local(c) => Some((*c, false)),
            InputSpec::Remote { .. } => None,
        });
        let writes = p.outputs.iter().filter_map(|o| match o {
            OutputSpec::Local(c) => Some((*c, true)),
            OutputSpec::Remote { .. } => None,
        });
        reads.chain(writes)
    }

    /// Everything structurally wrong with this spec, the one definition of
    /// a well-formed partition (§1: each channel has exactly one producer
    /// and one consumer): zero capacities in channel order, then — walking
    /// the processes the way [`Node::instantiate`](crate::Node::instantiate)
    /// does — processes without endpoints, indices out of range and ends
    /// claimed twice, then channels left half connected or unused. Remote
    /// endpoints are not judged here: whether a token has its peer is a
    /// question about a whole deployment (`kpn_lint::check_specs`).
    pub fn defects(&self) -> Vec<SpecDefect> {
        let mut out: Vec<_> = (0..self.channels.len())
            .filter(|&c| self.channels[c].capacity == 0)
            .map(|channel| SpecDefect::ZeroCapacity { channel })
            .collect();
        // held[c] = [has a consumer, has a producer]
        let mut held = vec![[false; 2]; self.channels.len()];
        for (process, p) in self.processes.iter().enumerate() {
            if p.inputs.is_empty() && p.outputs.is_empty() {
                out.push(SpecDefect::NoEndpoints { process });
            }
            for (channel, writes) in Self::local_ends(p) {
                match held.get_mut(channel).map(|ends| &mut ends[writes as usize]) {
                    None => out.push(SpecDefect::OutOfRange {
                        process,
                        channel,
                        writes,
                    }),
                    Some(end) if *end => out.push(SpecDefect::Taken {
                        process,
                        channel,
                        writes,
                    }),
                    Some(end) => *end = true,
                }
            }
        }
        out.extend(held.iter().enumerate().filter_map(|(channel, ends)| {
            Some(match *ends {
                [true, true] => return None,
                [false, false] => SpecDefect::Unused { channel },
                [_, produced] => SpecDefect::Open {
                    channel,
                    writes: !produced,
                },
            })
        }));
        out
    }

    /// Refuses a spec with a [blocking](SpecDefect::blocks) defect, naming
    /// the first. After `Ok`, every `Local` index is in range and every
    /// referenced channel has exactly one producer and one consumer.
    pub(crate) fn well_formed(&self) -> Result<()> {
        match self.defects().into_iter().find(SpecDefect::blocks) {
            Some(defect) => Err(Error::Graph(defect.to_string())),
            None => Ok(()),
        }
    }

    /// Cuts a whole graph into one spec per partition — the one place that
    /// decides what §4.2 leaves to serialization hooks: a channel whose two
    /// ends land in one partition stays local, numbered in creation order
    /// among that partition's channels; any other becomes a `token()` that
    /// the reader's partition listens on and the writer connects to at
    /// `addr_of(reader's partition)`. Endpoints that are `Remote` already
    /// keep their absolute address, so connections made by an earlier cut
    /// (back to the original client, say) are unaffected; a channel nobody
    /// references is dropped.
    ///
    /// `partition_of` maps a process index to its partition. Returns the
    /// non-empty partitions in ascending order, processes in graph order
    /// within each, and the cut channels in channel order — `token` is
    /// called once per cut channel, in that order. Refuses a graph that is
    /// not [well formed](Self::well_formed).
    pub(crate) fn cut(
        self,
        partition_of: impl Fn(usize) -> usize,
        addr_of: impl Fn(usize) -> String,
        mut token: impl FnMut() -> u64,
    ) -> Result<CutGraph> {
        self.well_formed()?;
        // ends[c] = [reader's partition, writer's partition]
        let mut ends = vec![[None; 2]; self.channels.len()];
        for (pi, p) in self.processes.iter().enumerate() {
            for (c, writes) in Self::local_ends(p) {
                ends[c][writes as usize] = Some(partition_of(pi));
            }
        }
        let mut parts: BTreeMap<usize, GraphSpec> = BTreeMap::new();
        let mut cuts = Vec::new();
        // What the channel's reader and writer name in their own partitions.
        let mut placed = Vec::with_capacity(ends.len());
        for (ch, ends) in self.channels.into_iter().zip(ends) {
            placed.push(match ends {
                [Some(r), Some(w)] if r == w => {
                    let local = &mut parts.entry(w).or_default().channels;
                    local.push(ch);
                    let index = local.len() - 1;
                    Some((InputSpec::Local(index), OutputSpec::Local(index)))
                }
                [Some(r), Some(w)] => {
                    let token = token();
                    cuts.push((w, r, token));
                    let addr = addr_of(r);
                    Some((
                        InputSpec::Remote { token },
                        OutputSpec::Remote { addr, token },
                    ))
                }
                _ => None,
            });
        }
        let placed = |c: usize| {
            placed[c]
                .as_ref()
                .expect("a referenced channel has both ends")
        };
        for (pi, mut p) in self.processes.into_iter().enumerate() {
            for input in &mut p.inputs {
                if let InputSpec::Local(c) = *input {
                    *input = placed(c).0.clone();
                }
            }
            for output in &mut p.outputs {
                if let OutputSpec::Local(c) = *output {
                    *output = placed(c).1.clone();
                }
            }
            parts.entry(partition_of(pi)).or_default().processes.push(p);
        }
        Ok((parts.into_iter().collect(), cuts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrips_through_codec() {
        let spec = GraphSpec {
            channels: vec![ChannelSpec { capacity: 1024 }],
            processes: vec![ProcessSpec {
                type_name: "Sequence".into(),
                params: kpn_codec::to_bytes(&(0i64, Some(10u64))).unwrap(),
                inputs: vec![InputSpec::Remote { token: 7 }],
                outputs: vec![
                    OutputSpec::Local(0),
                    OutputSpec::Remote {
                        addr: "10.0.0.1:9000".into(),
                        token: 8,
                    },
                ],
            }],
        };
        let bytes = kpn_codec::to_bytes(&spec).unwrap();
        let back: GraphSpec = kpn_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back.channels.len(), 1);
        assert_eq!(back.processes[0].type_name, "Sequence");
        assert!(matches!(
            back.processes[0].inputs[0],
            InputSpec::Remote { token: 7 }
        ));
        match &back.processes[0].outputs[1] {
            OutputSpec::Remote { addr, token } => {
                assert_eq!(addr, "10.0.0.1:9000");
                assert_eq!(*token, 8);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A process of a whole graph: every endpoint local.
    fn process(name: &str, inputs: &[usize], outputs: &[usize]) -> ProcessSpec {
        ProcessSpec {
            type_name: name.into(),
            params: Vec::new(),
            inputs: inputs.iter().map(|&c| InputSpec::Local(c)).collect(),
            outputs: outputs.iter().map(|&c| OutputSpec::Local(c)).collect(),
        }
    }

    /// A graph of `processes` over channels of capacities 10, 11, 12, …, so
    /// that a channel can be recognised after the cut has renumbered it.
    fn graph(channels: usize, processes: Vec<ProcessSpec>) -> GraphSpec {
        GraphSpec {
            channels: (0..channels)
                .map(|c| ChannelSpec { capacity: 10 + c })
                .collect(),
            processes,
        }
    }

    /// One line per partition: `partition: [capacities] name(inputs;outputs) …`,
    /// endpoints as `L<index>`, `R<token>` and `R<token>@<addr>`.
    fn show(parts: &[(usize, GraphSpec)]) -> Vec<String> {
        let ends = |p: &ProcessSpec| {
            let ins = p.inputs.iter().map(|i| match i {
                InputSpec::Local(c) => format!("L{c}"),
                InputSpec::Remote { token } => format!("R{token}"),
            });
            let outs = p.outputs.iter().map(|o| match o {
                OutputSpec::Local(c) => format!("L{c}"),
                OutputSpec::Remote { addr, token } => format!("R{token}@{addr}"),
            });
            let (ins, outs): (Vec<_>, Vec<_>) = (ins.collect(), outs.collect());
            format!("{}({};{})", p.type_name, ins.join(","), outs.join(","))
        };
        parts
            .iter()
            .map(|(part, spec)| {
                let caps: Vec<_> = spec.channels.iter().map(|c| c.capacity).collect();
                let procs: Vec<_> = spec.processes.iter().map(ends).collect();
                format!("{part}: {caps:?} {}", procs.join(" "))
            })
            .collect()
    }

    /// Tokens 101, 102, … — a supplied source, as `fresh_token` is.
    fn supplied() -> impl FnMut() -> u64 {
        let mut next = 100;
        move || {
            next += 1;
            next
        }
    }

    /// The pseudo-partition a deployer keeps claimed endpoints in.
    const KEPT: usize = usize::MAX - 1;

    #[test]
    fn cut_table() {
        let pipeline = || {
            vec![
                process("src", &[], &[0]),
                process("mid", &[0], &[1]),
                process("snk", &[1], &[]),
            ]
        };
        // (case, whole graph, partition of each process, partitions, cuts)
        type Case = (
            &'static str,
            GraphSpec,
            Vec<usize>,
            Vec<&'static str>,
            Vec<(usize, usize, u64)>,
        );
        let table: Vec<Case> = vec![
            (
                "everything in one partition: nothing is cut, no token drawn",
                graph(2, pipeline()),
                vec![3, 3, 3],
                vec!["3: [10, 11] src(;L0) mid(L0;L1) snk(L1;)"],
                vec![],
            ),
            (
                "every channel cut: the reader's partition is the address",
                graph(2, pipeline()),
                vec![2, 0, 1],
                vec![
                    "0: [] mid(R101;R102@n1)",
                    "1: [] snk(R102;)",
                    "2: [] src(;R101@n0)",
                ],
                vec![(2, 0, 101), (0, 1, 102)],
            ),
            (
                "local channels are numbered per partition, in creation order",
                graph(
                    4,
                    vec![
                        process("a", &[3], &[0]),
                        process("b", &[0], &[1]),
                        process("c", &[1], &[2]),
                        process("d", &[2], &[3]),
                    ],
                ),
                vec![0, 0, 1, 1],
                vec![
                    "0: [10] a(R102;L0) b(L0;R101@n1)",
                    "1: [12] c(R101;L0) d(L0;R102@n0)",
                ],
                vec![(0, 1, 101), (1, 0, 102)],
            ),
            (
                "a claimed reader: the kept end listens on the deployer",
                graph(1, vec![process("src", &[], &[0]), process("", &[0], &[])]),
                vec![0, KEPT],
                vec!["0: [] src(;R101@kept)", "18446744073709551614: [] (R101;)"],
                vec![(0, KEPT, 101)],
            ),
            (
                "a claimed writer: the kept end connects to the process's node",
                graph(1, vec![process("snk", &[0], &[]), process("", &[], &[0])]),
                vec![0, KEPT],
                vec!["0: [] snk(R101;)", "18446744073709551614: [] (;R101@n0)"],
                vec![(KEPT, 0, 101)],
            ),
            (
                "a claimed reader paired with a claimed writer stays local to \
                 the kept partition, which is how deploy knows to refuse it",
                graph(1, vec![process("", &[0], &[0])]),
                vec![KEPT],
                vec!["18446744073709551614: [10] (L0;L0)"],
                vec![],
            ),
            (
                "endpoints that are remote already pass through untouched",
                graph(1, {
                    let mut ps = vec![process("a", &[], &[0]), process("b", &[0], &[])];
                    ps[0].inputs.push(InputSpec::Remote { token: 7 });
                    ps[1].outputs.push(OutputSpec::Remote {
                        addr: "client:9".into(),
                        token: 8,
                    });
                    ps
                }),
                vec![0, 1],
                vec!["0: [] a(R7;R101@n1)", "1: [] b(R101;R8@client:9)"],
                vec![(0, 1, 101)],
            ),
            (
                "a channel nobody references is dropped, the rest move up",
                graph(3, vec![process("a", &[], &[2]), process("b", &[2], &[])]),
                vec![0, 0],
                vec!["0: [12] a(;L0) b(L0;)"],
                vec![],
            ),
        ];
        for (case, whole, partitions, want_parts, want_cuts) in table {
            let addr_of = |p: usize| match p {
                KEPT => "kept".to_string(),
                p => format!("n{p}"),
            };
            let (parts, cuts) = whole.cut(|pi| partitions[pi], addr_of, supplied()).unwrap();
            assert_eq!(show(&parts), want_parts, "{case}");
            assert_eq!(cuts, want_cuts, "{case}");
        }
    }

    #[test]
    fn tokens_are_drawn_once_per_cut_channel_in_channel_order() {
        // Channels 0 and 2 are cut, 1 stays local: two draws, whatever the
        // source, handed out in channel order.
        let whole = || {
            graph(
                3,
                vec![
                    process("a", &[], &[0, 1]),
                    process("b", &[1], &[2]),
                    process("c", &[0, 2], &[]),
                ],
            )
        };
        let partition_of = |pi: usize| [0, 0, 1][pi];
        let addr_of = |p: usize| format!("n{p}");
        let mut draws = 0u64;
        let sequential = || {
            draws += 1;
            draws
        };
        let (parts, cuts) = whole().cut(partition_of, addr_of, sequential).unwrap();
        assert_eq!(draws, 2);
        assert_eq!(cuts, [(0, 1, 1), (0, 1, 2)]);
        assert_eq!(
            show(&parts),
            ["0: [11] a(;R1@n1,L0) b(L0;R2@n1)", "1: [] c(R1,R2;)"]
        );
        let (parts, cuts) = whole().cut(partition_of, addr_of, supplied()).unwrap();
        assert_eq!(cuts, [(0, 1, 101), (0, 1, 102)]);
        assert_eq!(
            show(&parts),
            [
                "0: [11] a(;R101@n1,L0) b(L0;R102@n1)",
                "1: [] c(R101,R102;)"
            ]
        );
    }

    #[test]
    fn defects_table() {
        use SpecDefect::*;
        // (spec, every defect in order, the text a runtime refuses it with)
        let table: Vec<(GraphSpec, Vec<SpecDefect>, Option<&str>)> = vec![
            (
                graph(
                    2,
                    vec![process("a", &[], &[0, 1]), process("b", &[1, 0], &[])],
                ),
                vec![],
                None,
            ),
            (
                graph(0, vec![process("a", &[7], &[])]),
                vec![OutOfRange {
                    process: 0,
                    channel: 7,
                    writes: false,
                }],
                Some("process 0: channel 7 reader missing or already taken"),
            ),
            (
                graph(1, vec![process("a", &[], &[0]), process("b", &[0], &[0])]),
                vec![Taken {
                    process: 1,
                    channel: 0,
                    writes: true,
                }],
                Some("process 1: channel 0 writer missing or already taken"),
            ),
            (
                // The same end twice in one process is taken all the same.
                graph(1, vec![process("a", &[0, 0], &[0])]),
                vec![Taken {
                    process: 0,
                    channel: 0,
                    writes: false,
                }],
                Some("process 0: channel 0 reader missing or already taken"),
            ),
            (
                graph(2, vec![process("a", &[], &[0]), process("b", &[1], &[])]),
                vec![
                    Open {
                        channel: 0,
                        writes: false,
                    },
                    Open {
                        channel: 1,
                        writes: true,
                    },
                ],
                Some("channel 0 is not fully connected"),
            ),
            (
                GraphSpec {
                    channels: vec![ChannelSpec { capacity: 0 }],
                    processes: vec![process("a", &[], &[0]), process("b", &[0], &[])],
                },
                vec![ZeroCapacity { channel: 0 }],
                Some(
                    "channel 0 has zero capacity: a zero-capacity channel can never transfer data",
                ),
            ),
            (
                // Pointless, not refused: an idle process, an idle channel.
                graph(1, vec![process("a", &[], &[])]),
                vec![NoEndpoints { process: 0 }, Unused { channel: 0 }],
                None,
            ),
            (
                // Everything at once comes out in the documented order, and
                // the first blocking one is the answer.
                GraphSpec {
                    channels: vec![ChannelSpec { capacity: 8 }, ChannelSpec { capacity: 0 }],
                    processes: vec![process("a", &[], &[]), process("b", &[5], &[0])],
                },
                vec![
                    ZeroCapacity { channel: 1 },
                    NoEndpoints { process: 0 },
                    OutOfRange {
                        process: 1,
                        channel: 5,
                        writes: false,
                    },
                    Open {
                        channel: 0,
                        writes: false,
                    },
                    Unused { channel: 1 },
                ],
                Some("channel 1 has zero capacity"),
            ),
        ];
        for (spec, defects, refusal) in table {
            assert_eq!(spec.defects(), defects);
            let answer = spec.well_formed().map_err(|e| e.to_string());
            match refusal {
                None => assert_eq!(answer, Ok(())),
                Some(text) => assert!(answer.clone().unwrap_err().contains(text), "{answer:?}"),
            }
            // The cut refuses exactly what the check refuses.
            let cut = spec.cut(|_| 0, |_| String::new(), || 1);
            assert_eq!(cut.map(|_| ()).map_err(|e| e.to_string()), answer);
        }
    }
}
