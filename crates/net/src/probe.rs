//! Distributed deadlock detection (§6.2, the paper's stated future work).
//!
//! A local monitor can prove a deadlock *artificial* (some process is
//! write-blocked on a full local channel — grow it) or *true* (all blocked
//! reads are on verifiably empty local channels). But a process blocked on
//! a **remote** channel is opaque locally: data may be in flight on the
//! wire, so the local monitor never aborts because of it. What it can say is
//! that its network is *stuck on remote waits*
//! ([`kpn_core::MonitorSnapshot::stuck_on_remote`]): everything is blocked,
//! every local wait is confirmed, nothing can grow.
//!
//! The wire supplies the rest. Every byte of a cut channel carries its
//! stream offset, so a cut channel is empty exactly when its writer's sent
//! offset equals its reader's delivered offset. Each remote endpoint a node
//! builds reports its end of the cut as a [`CutEnd`] beside its network's
//! monitor snapshot. The [`ClusterProbe`] gathers every node's statuses
//! over the control protocol twice, back to back, and declares a
//! distributed deadlock when both gathers show the same thing:
//!
//! 1. every live network is stuck on remote waits, by its own monitor;
//! 2. every cut channel is empty: its token is seen once at each end, with
//!    equal offsets;
//! 3. nothing moved between the gathers: generations and offsets are equal.
//!
//! Nothing is timed: the decision is `cluster_verdict`, a function of the
//! two gathers. A channel the probe sees only one end of (a reader claimed
//! on the client, a node it does not poll) is not provably empty, and a
//! writer blocked on a full cut channel is Parks' artificial deadlock, not a
//! true one; neither is ever a verdict. Resolution mirrors the local policy:
//! the operator (or the probe's `abort_all`) unwinds the cluster.

use crate::control::ServerHandle;
use crate::remote::Interruptor;
use kpn_core::{Error, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long [`ClusterProbe::wait_for_deadlock`] waits between two verdicts
/// that found no deadlock. It paces the retries; no verdict depends on it.
const RETRY_PACING: Duration = Duration::from_millis(5);

/// Which end of a cut channel a [`CutEnd`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CutSide {
    /// The write end: its offset is the stream units it has sent.
    Writer,
    /// The read end: its offset is the stream units it has delivered.
    Reader,
}

/// One end of a channel cut between nodes, as far as it has got.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CutEnd {
    /// The endpoint token naming the channel.
    pub token: u64,
    /// Which end this is.
    pub side: CutSide,
    /// Stream offset reached: sent by a writer, delivered by a reader.
    pub offset: u64,
}

/// Serializable view of one network's monitor (mirror of
/// [`kpn_core::MonitorSnapshot`] for the wire), with the network's ends of
/// the channels cut between nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkStatus {
    /// Activity counter (see [`kpn_core::MonitorSnapshot::generation`]).
    pub generation: u64,
    /// Live process threads.
    pub live: usize,
    /// Threads blocked reading (local or remote channels).
    pub blocked_reads: usize,
    /// Threads blocked writing.
    pub blocked_writes: usize,
    /// Whether this network was aborted.
    pub aborted: bool,
    /// The local monitor's verdict that the network is stuck on remote
    /// waits ([`kpn_core::MonitorSnapshot::stuck_on_remote`]).
    pub stuck_on_remote: bool,
    /// The network's remote endpoints, each as its end of a cut channel.
    pub cut: Vec<CutEnd>,
}

impl NetworkStatus {
    /// Builds the wire view from a core snapshot and the network's remote
    /// endpoints.
    pub fn from_snapshot(s: &kpn_core::MonitorSnapshot, endpoints: &[Arc<Interruptor>]) -> Self {
        NetworkStatus {
            generation: s.generation,
            live: s.live,
            blocked_reads: s.blocked_reads,
            blocked_writes: s.blocked_writes,
            aborted: s.aborted,
            stuck_on_remote: s.stuck_on_remote,
            cut: endpoints.iter().map(|e| e.cut_end()).collect(),
        }
    }
}

/// Aggregated status of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStatus {
    /// The node's control address.
    pub addr: String,
    /// One entry per network the node is running.
    pub networks: Vec<NetworkStatus>,
}

/// The cluster verdict over two gathers taken back to back: `Ok` for a
/// distributed deadlock, otherwise what stands in the way. See the module
/// docs for the three conditions. A finished network is not counted, its
/// ends of the cut included: the other end of such a channel is then seen
/// alone.
fn cluster_verdict(first: &[NodeStatus], then: &[NodeStatus]) -> std::result::Result<(), String> {
    if first != then {
        return Err("the cluster moved between two gathers".into());
    }
    let live: Vec<(&str, &NetworkStatus)> = then
        .iter()
        .flat_map(|n| n.networks.iter().map(|s| (n.addr.as_str(), s)))
        .filter(|(_, s)| s.live > 0)
        .collect();
    if live.is_empty() {
        return Err("no live network".into());
    }
    // Per token: the offsets its writers report, and its readers'.
    let mut ends: BTreeMap<u64, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for end in live.iter().flat_map(|(_, s)| &s.cut) {
        let (sent, delivered) = ends.entry(end.token).or_default();
        match end.side {
            CutSide::Writer => sent.push(end.offset),
            CutSide::Reader => delivered.push(end.offset),
        }
    }
    for (token, (sent, delivered)) in &ends {
        match (sent.as_slice(), delivered.as_slice()) {
            ([s], [d]) if s == d => {}
            ([s], [d]) => {
                return Err(format!(
                    "cut channel {token:#x} is not empty: sent {s}, delivered {d}"
                ))
            }
            _ => {
                return Err(format!(
                    "cut channel {token:#x} is not seen once at each end \
                     ({} writers, {} readers)",
                    sent.len(),
                    delivered.len()
                ))
            }
        }
    }
    match live.iter().find(|(_, s)| !s.stuck_on_remote) {
        Some((addr, s)) => Err(format!(
            "{addr}: a network is not stuck on remote waits ({} live, {} read-blocked, \
             {} write-blocked, aborted: {})",
            s.live, s.blocked_reads, s.blocked_writes, s.aborted
        )),
        None => Ok(()),
    }
}

/// A coordinator that watches a set of compute servers for distributed
/// deadlock.
pub struct ClusterProbe {
    servers: Vec<ServerHandle>,
}

impl ClusterProbe {
    /// A probe over the given servers.
    pub fn new(servers: Vec<ServerHandle>) -> Self {
        ClusterProbe { servers }
    }

    /// One status gather across all servers.
    pub fn poll(&self) -> Result<Vec<NodeStatus>> {
        self.servers
            .iter()
            .map(|s| {
                Ok(NodeStatus {
                    addr: s.addr().to_string(),
                    networks: s.monitor_status()?,
                })
            })
            .collect()
    }

    /// Two gathers, back to back, and `cluster_verdict` over them.
    fn verdict(&self) -> Result<std::result::Result<(), String>> {
        let first = self.poll()?;
        let then = self.poll()?;
        Ok(cluster_verdict(&first, &then))
    }

    /// True when the cluster as a whole is deadlocked (see the module docs).
    pub fn detect_global_deadlock(&self) -> Result<bool> {
        Ok(self.verdict()?.is_ok())
    }

    /// Takes verdicts until one finds a global deadlock or `timeout`
    /// elapses. On timeout the error says what stood in the way of the last
    /// verdict — a network still running, or a cut channel named by its
    /// token that is not provably empty.
    pub fn wait_for_deadlock(&self, timeout: Duration) -> Result<bool> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.verdict()? {
                Ok(()) => return Ok(true),
                Err(why) if Instant::now() >= deadline => {
                    return Err(Error::Graph(format!(
                        "no global deadlock within {timeout:?} — {why}"
                    )))
                }
                Err(_) => kpn_core::exec::sleep(RETRY_PACING),
            }
        }
    }

    /// Resolves a detected deadlock the blunt way the paper's termination
    /// model allows: aborts every network on every node; the poisoned
    /// channels unwind all processes (including across the network).
    pub fn abort_all(&self) -> Result<()> {
        for s in &self.servers {
            s.abort_networks()?;
        }
        Ok(())
    }

    /// The servers being watched.
    pub fn servers(&self) -> &[ServerHandle] {
        &self.servers
    }
}

impl std::fmt::Debug for ClusterProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ClusterProbe({} servers)", self.servers.len())
    }
}

/// Convenience: builds a probe from deployment server handles.
pub fn probe_deployment(dep: &crate::builder::Deployment) -> ClusterProbe {
    ClusterProbe::new(dep.servers.clone())
}

#[cfg(test)]
mod probe_logic_tests {
    use super::*;

    /// A live network with one process, stuck on remote waits, whose remote
    /// endpoints are `cut` (token, side, offset).
    fn stuck(generation: u64, cut: &[(u64, CutSide, u64)]) -> NetworkStatus {
        NetworkStatus {
            generation,
            live: 1,
            blocked_reads: 1,
            blocked_writes: 0,
            aborted: false,
            stuck_on_remote: true,
            cut: cut
                .iter()
                .map(|&(token, side, offset)| CutEnd {
                    token,
                    side,
                    offset,
                })
                .collect(),
        }
    }

    fn gather(networks: Vec<Vec<NetworkStatus>>) -> Vec<NodeStatus> {
        let node = |(i, networks)| NodeStatus {
            addr: format!("s{i}"),
            networks,
        };
        networks.into_iter().enumerate().map(node).collect()
    }

    #[test]
    fn cluster_verdict_table() {
        use CutSide::{Reader, Writer};
        let running = |n: NetworkStatus| NetworkStatus {
            stuck_on_remote: false,
            ..n
        };
        let finished = |n: NetworkStatus| NetworkStatus {
            live: 0,
            blocked_reads: 0,
            ..running(n)
        };
        // What a monitor reports once its network is aborted: never stuck.
        let aborted = |n: NetworkStatus| NetworkStatus {
            aborted: true,
            ..running(n)
        };
        // The `future_work` cycle: a reads b's output and b reads a's, each
        // on its own node, with nothing in flight.
        let cycle = |gen, off_a: u64, off_b: u64| {
            gather(vec![
                vec![stuck(gen, &[(0xA, Writer, off_a), (0xB, Reader, off_b)])],
                vec![stuck(gen, &[(0xB, Writer, off_b), (0xA, Reader, off_a)])],
            ])
        };
        // (what, first gather, second gather, deadlock)
        let cases: Vec<(&str, Vec<NodeStatus>, Vec<NodeStatus>, bool)> = vec![
            ("every network stuck, every token paired and equal", cycle(3, 8, 8), cycle(3, 8, 8), true),
            (
                "one cut with sent > delivered",
                gather(vec![
                    vec![stuck(3, &[(0xA, Writer, 9), (0xB, Reader, 8)])],
                    vec![stuck(3, &[(0xB, Writer, 8), (0xA, Reader, 8)])],
                ]),
                gather(vec![
                    vec![stuck(3, &[(0xA, Writer, 9), (0xB, Reader, 8)])],
                    vec![stuck(3, &[(0xB, Writer, 8), (0xA, Reader, 8)])],
                ]),
                false,
            ),
            (
                "a token seen on one side only",
                gather(vec![vec![stuck(3, &[(0xA, Writer, 0)])]]),
                gather(vec![vec![stuck(3, &[(0xA, Writer, 0)])]]),
                false,
            ),
            (
                "a token seen twice on one side",
                gather(vec![vec![stuck(3, &[(0xA, Writer, 0), (0xA, Writer, 0), (0xA, Reader, 0)])]]),
                gather(vec![vec![stuck(3, &[(0xA, Writer, 0), (0xA, Writer, 0), (0xA, Reader, 0)])]]),
                false,
            ),
            ("a generation moved", cycle(3, 8, 8), cycle(4, 8, 8), false),
            ("an offset moved", cycle(3, 8, 8), cycle(3, 9, 8), false),
            (
                "one network not stuck",
                gather(vec![
                    vec![stuck(3, &[(0xA, Writer, 8), (0xB, Reader, 8)])],
                    vec![running(stuck(3, &[(0xB, Writer, 8), (0xA, Reader, 8)]))],
                ]),
                gather(vec![
                    vec![stuck(3, &[(0xA, Writer, 8), (0xB, Reader, 8)])],
                    vec![running(stuck(3, &[(0xB, Writer, 8), (0xA, Reader, 8)]))],
                ]),
                false,
            ),
            (
                "every network finished",
                gather(vec![vec![finished(stuck(3, &[]))], vec![finished(stuck(5, &[]))]]),
                gather(vec![vec![finished(stuck(3, &[]))], vec![finished(stuck(5, &[]))]]),
                false,
            ),
            ("no networks", gather(vec![vec![], vec![]]), gather(vec![vec![], vec![]]), false),
            ("no nodes", vec![], vec![], false),
            (
                "an aborted network",
                gather(vec![
                    vec![stuck(3, &[(0xA, Writer, 8), (0xB, Reader, 8)])],
                    vec![aborted(stuck(3, &[(0xB, Writer, 8), (0xA, Reader, 8)]))],
                ]),
                gather(vec![
                    vec![stuck(3, &[(0xA, Writer, 8), (0xB, Reader, 8)])],
                    vec![aborted(stuck(3, &[(0xB, Writer, 8), (0xA, Reader, 8)]))],
                ]),
                false,
            ),
            (
                "a finished network beside the stuck ones is not counted",
                gather(vec![
                    vec![stuck(3, &[(0xA, Writer, 8), (0xB, Reader, 8)])],
                    vec![
                        finished(stuck(7, &[(0xC, Writer, 2)])),
                        stuck(3, &[(0xB, Writer, 8), (0xA, Reader, 8)]),
                    ],
                ]),
                gather(vec![
                    vec![stuck(3, &[(0xA, Writer, 8), (0xB, Reader, 8)])],
                    vec![
                        finished(stuck(7, &[(0xC, Writer, 2)])),
                        stuck(3, &[(0xB, Writer, 8), (0xA, Reader, 8)]),
                    ],
                ]),
                true,
            ),
        ];
        for (what, first, then, deadlock) in cases {
            let verdict = cluster_verdict(&first, &then);
            assert_eq!(verdict.is_ok(), deadlock, "{what}: {verdict:?}");
        }
    }

    #[test]
    fn error_type_propagates() {
        // Probe over an unreachable server reports the failure.
        let probe = ClusterProbe::new(vec![ServerHandle::new("127.0.0.1:1")]);
        assert!(matches!(
            probe.poll(),
            Err(kpn_core::Error::Disconnected(_))
        ));
    }
}
