//! Building and partitioning distributed program graphs.
//!
//! A [`GraphBuilder`] records a whole program graph — processes, channels,
//! and a partition assignment — and hands it to the one cut in
//! [`crate::spec`] (DESIGN.md §4d): channels whose endpoints land in the
//! same partition stay local; cut channels get an endpoint token, the
//! reader side listening at its node's acceptor, the writer side connecting
//! (§4.2's automatic connection establishment, driven here by spec
//! construction instead of `writeReplace`/`readResolve` hooks). Connections
//! between two remote partitions are always direct — the deploying client
//! never relays data, which is the invariant Figure 15's redirect protocol
//! exists to protect. [`GraphBuilder::specs`] is the cut with sequential
//! tokens and nothing shipped; [`GraphBuilder::deploy`] is the cut with
//! fresh tokens plus what only a deployer has: the endpoints it keeps, the
//! order partitions go out in, and a client partition to start.
//!
//! The deploying client is itself a partition ([`CLIENT`]): processes
//! assigned to it run in a local network, and channel ends claimed with
//! [`GraphBuilder::claim_reader`]/[`claim_writer`] are handed back as raw
//! endpoints so the caller can feed and drain the distributed graph.
//!
//! [`claim_writer`]: GraphBuilder::claim_writer

use crate::acceptor::fresh_token;
use crate::control::ServerHandle;
use crate::node::Node;
use crate::spec::{ChannelSpec, GraphSpec, InputSpec, OutputSpec, ProcessSpec};
use kpn_core::{ChannelReader, ChannelWriter, Error, Network, Result, DEFAULT_CAPACITY};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Partition id of the deploying client.
pub const CLIENT: usize = usize::MAX;

/// Internal pseudo-partition for endpoints claimed by the caller. Distinct
/// from [`CLIENT`] so that a channel between a client-partition process and
/// a claimed endpoint still counts as a cut channel (the claimed end is a
/// raw endpoint outside the client's network).
const CLAIMED: usize = usize::MAX - 1;

/// Identifies a channel in a [`GraphBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChanId(usize);

#[derive(Debug, Clone, Copy)]
enum Endpoint {
    /// Port of the process at this index.
    Process(usize),
    /// Claimed by the deploying client as a raw endpoint.
    Claimed,
}

/// Records a program graph plus its partition assignment.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    /// The graph before any cut: every endpoint `Local`.
    whole: GraphSpec,
    /// Partition of each process of `whole`.
    partitions: Vec<usize>,
    /// `[consumer, producer]` of each channel of `whole`.
    ends: Vec<[Option<Endpoint>; 2]>,
    claimed_readers: Vec<ChanId>,
    claimed_writers: Vec<ChanId>,
}

/// A deployed distributed graph.
pub struct Deployment {
    /// The client-partition network (empty if no processes were assigned
    /// to [`CLIENT`]).
    pub client_network: Network,
    /// Endpoints claimed with [`GraphBuilder::claim_reader`].
    pub readers: HashMap<ChanId, ChannelReader>,
    /// Endpoints claimed with [`GraphBuilder::claim_writer`].
    pub writers: HashMap<ChanId, ChannelWriter>,
    /// Handles to the servers that received partitions, in the order they
    /// were shipped (readers before the partitions that write to them).
    pub servers: Vec<ServerHandle>,
}

impl Deployment {
    /// Waits for the client partition and every server partition to
    /// terminate — observing the distributed termination cascade of §3.4.
    pub fn join(&self) -> Result<()> {
        self.client_network.join()?;
        for s in &self.servers {
            s.wait_idle()?;
        }
        Ok(())
    }
}

impl GraphBuilder {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a channel with the default capacity.
    pub fn channel(&mut self) -> ChanId {
        self.channel_with_capacity(DEFAULT_CAPACITY)
    }

    /// Adds a channel with an explicit capacity.
    pub fn channel_with_capacity(&mut self, capacity: usize) -> ChanId {
        self.whole.channels.push(ChannelSpec { capacity });
        self.ends.push([None; 2]);
        ChanId(self.ends.len() - 1)
    }

    /// Adds a process to `partition` ([`CLIENT`] or an index into the
    /// server list given to [`GraphBuilder::deploy`]). `inputs` and
    /// `outputs` are claimed in order; each channel has exactly one
    /// producer and one consumer (§1).
    pub fn add<P: Serialize>(
        &mut self,
        partition: usize,
        type_name: &str,
        params: &P,
        inputs: &[ChanId],
        outputs: &[ChanId],
    ) -> Result<()> {
        let index = self.partitions.len();
        for &c in inputs {
            self.claim(c, Endpoint::Process(index), false)?;
        }
        for &c in outputs {
            self.claim(c, Endpoint::Process(index), true)?;
        }
        self.whole.processes.push(ProcessSpec {
            type_name: type_name.into(),
            params: kpn_codec::to_bytes(params).map_err(Error::from)?,
            inputs: inputs.iter().map(|c| InputSpec::Local(c.0)).collect(),
            outputs: outputs.iter().map(|c| OutputSpec::Local(c.0)).collect(),
        });
        self.partitions.push(partition);
        Ok(())
    }

    /// Marks a channel's read end as claimed by the client: `deploy`
    /// returns the raw [`ChannelReader`].
    pub fn claim_reader(&mut self, c: ChanId) -> Result<()> {
        self.claim(c, Endpoint::Claimed, false)?;
        self.claimed_readers.push(c);
        Ok(())
    }

    /// Marks a channel's write end as claimed by the client: `deploy`
    /// returns the raw [`ChannelWriter`].
    pub fn claim_writer(&mut self, c: ChanId) -> Result<()> {
        self.claim(c, Endpoint::Claimed, true)?;
        self.claimed_writers.push(c);
        Ok(())
    }

    fn claim(&mut self, c: ChanId, endpoint: Endpoint, producer: bool) -> Result<()> {
        let ends = self
            .ends
            .get_mut(c.0)
            .ok_or_else(|| Error::Graph(format!("unknown channel {c:?}")))?;
        let slot = &mut ends[producer as usize];
        if slot.is_some() {
            return Err(Error::Graph(format!(
                "channel {c:?} already has a {}",
                if producer { "producer" } else { "consumer" }
            )));
        }
        *slot = Some(endpoint);
        Ok(())
    }

    /// Renders the graph as Graphviz DOT, clustered by partition —
    /// useful to inspect a deployment plan before shipping it.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph kpn {\n  rankdir=LR;\n  node [shape=box];\n");
        // Group processes by partition.
        let mut partitions = self.partitions.clone();
        partitions.sort_unstable();
        partitions.dedup();
        for part in partitions {
            let label = if part == CLIENT {
                "client".to_string()
            } else {
                format!("server {part}")
            };
            let _ = writeln!(out, "  subgraph \"cluster_{label}\" {{");
            let _ = writeln!(out, "    label=\"{label}\";");
            for (i, p) in self.whole.processes.iter().enumerate() {
                if self.partitions[i] == part {
                    let _ = writeln!(out, "    p{i} [label=\"{}\"];", p.type_name);
                }
            }
            let _ = writeln!(out, "  }}");
        }
        for (ci, &[consumer, producer]) in self.ends.iter().enumerate() {
            let node_of = |e: Option<Endpoint>, suffix: &str| match e {
                Some(Endpoint::Process(i)) => format!("p{i}"),
                Some(Endpoint::Claimed) => format!("claimed_{suffix}_{ci}"),
                None => format!("unconnected_{suffix}_{ci}"),
            };
            let from = node_of(producer, "w");
            let to = node_of(consumer, "r");
            if !from.starts_with('p') {
                let _ = writeln!(out, "  {from} [shape=plaintext, label=\"in\"];");
            }
            if !to.starts_with('p') {
                let _ = writeln!(out, "  {to} [shape=plaintext, label=\"out\"];");
            }
            let _ = writeln!(out, "  {from} -> {to} [label=\"c{ci}\"];");
        }
        out.push_str("}\n");
        out
    }

    /// Partitions the graph into one [`GraphSpec`] per partition *without*
    /// deploying — the static planning half of [`GraphBuilder::deploy`],
    /// for writing partition files, feeding `kpn_lint::check_specs`, or
    /// inspecting a cut before any server exists.
    ///
    /// `addr_of` names the acceptor address of each partition (used in
    /// `OutputSpec::Remote`). Cut channels get deterministic sequential
    /// endpoint tokens (deploy uses globally fresh tokens instead, so a
    /// plan written to disk is reproducible). Claimed endpoints are
    /// rejected: they reference a live client node, which a static plan
    /// does not have. Returns `(partition, spec)` pairs sorted by
    /// partition id.
    pub fn specs(&self, addr_of: impl Fn(usize) -> String) -> Result<Vec<(usize, GraphSpec)>> {
        if !self.claimed_readers.is_empty() || !self.claimed_writers.is_empty() {
            return Err(Error::Graph(
                "static partitioning cannot plan claimed endpoints; \
                 assign every channel end to a process"
                    .into(),
            ));
        }
        let mut next_token = 0u64;
        let sequential = || {
            next_token += 1;
            next_token
        };
        let (specs, _) = self
            .whole
            .clone()
            .cut(|pi| self.partitions[pi], addr_of, sequential)?;
        Ok(specs)
    }

    /// Partitions the graph, ships each server its [`GraphSpec`], starts
    /// the client partition locally, and returns the claimed endpoints.
    ///
    /// `node` is the deploying client's node (its acceptor receives the
    /// data connections for claimed readers); `servers` are the remote
    /// compute servers, indexed by the partition ids used in
    /// [`GraphBuilder::add`].
    pub fn deploy(self, node: &Node, servers: &[ServerHandle]) -> Result<Deployment> {
        let GraphBuilder {
            mut whole,
            mut partitions,
            claimed_readers,
            claimed_writers,
            ..
        } = self;
        for (p, &partition) in whole.processes.iter().zip(&partitions) {
            if partition != CLIENT && partition >= servers.len() {
                return Err(Error::Graph(format!(
                    "process {:?} assigned to unknown partition {partition}",
                    p.type_name
                )));
            }
        }
        // The ends the caller keeps are the ports of one more process, in a
        // partition of its own: the cut then says what each has become.
        if !claimed_readers.is_empty() || !claimed_writers.is_empty() {
            whole.processes.push(ProcessSpec {
                type_name: String::new(),
                params: Vec::new(),
                inputs: claimed_readers
                    .iter()
                    .map(|c| InputSpec::Local(c.0))
                    .collect(),
                outputs: claimed_writers
                    .iter()
                    .map(|c| OutputSpec::Local(c.0))
                    .collect(),
            });
            partitions.push(CLAIMED);
        }
        let addr_of = |partition: usize| -> String {
            if partition == CLIENT || partition == CLAIMED {
                node.addr().to_string()
            } else {
                servers[partition].addr().to_string()
            }
        };
        let (specs, cuts) = whole.cut(|pi| partitions[pi], addr_of, fresh_token)?;
        let mut specs: BTreeMap<usize, GraphSpec> = specs.into_iter().collect();

        // Claimed endpoints: cut channels ending (or starting) at the
        // client that have no client-side process.
        let mut readers = HashMap::new();
        let mut writers = HashMap::new();
        if let Some(kept) = specs.remove(&CLAIMED).and_then(|mut s| s.processes.pop()) {
            for (&c, input) in claimed_readers.iter().zip(kept.inputs) {
                let InputSpec::Remote { token } = input else {
                    return Err(Error::Graph(format!(
                        "claimed reader {c:?} pairs with a claimed writer; \
                         use a local kpn-core channel instead"
                    )));
                };
                readers.insert(c, node.remote_reader(token));
            }
            for (&c, output) in claimed_writers.iter().zip(kept.outputs) {
                // (One left local was refused above, with its reader.)
                if let OutputSpec::Remote { addr, token } = output {
                    writers.insert(c, node.remote_writer(&addr, token)?);
                }
            }
        }

        // Ship server partitions readers first: a partition goes out once
        // every server partition reading one of its cut channels has gone
        // (cycles and ties break towards the lower id). Any order is
        // correct — a connection for an endpoint that is not registered
        // yet is parked at the acceptor — but a partition starts running
        // the moment it arrives, and a producer shipped ahead of its
        // consumers streams into socket buffers and holds a core while the
        // rest of the graph is still being shipped: how long set-up takes
        // would depend on the order.
        let client_spec = specs.remove(&CLIENT).unwrap_or_default();
        let mut pending: BTreeSet<usize> = specs.keys().copied().collect();
        let mut used_servers = Vec::new();
        while let Some(&lowest) = pending.first() {
            let feeds_pending =
                |p: usize| cuts.iter().any(|&(w, r, _)| w == p && pending.contains(&r));
            let next = pending
                .iter()
                .copied()
                .find(|&p| !feeds_pending(p))
                .unwrap_or(lowest);
            pending.remove(&next);
            let spec = specs.remove(&next).expect("a pending partition has a spec");
            servers[next].run_graph(spec)?;
            used_servers.push(servers[next].clone());
        }

        // Start the client partition.
        let client_network = node.instantiate(client_spec)?;

        Ok(Deployment {
            client_network,
            readers,
            writers,
            servers: used_servers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpn_core::{DataReader, DataWriter};

    fn spawn_server() -> (std::sync::Arc<Node>, ServerHandle) {
        let node = Node::serve("127.0.0.1:0").unwrap();
        let handle = ServerHandle::new(node.addr().to_string());
        (node, handle)
    }

    #[test]
    fn single_server_pipeline() {
        let client = Node::serve("127.0.0.1:0").unwrap();
        let (_server, handle) = spawn_server();
        let mut b = GraphBuilder::new();
        let a = b.channel();
        let out = b.channel();
        b.add(0, "Sequence", &(1i64, Some(4u64)), &[], &[a])
            .unwrap();
        b.add(0, "Scale", &100i64, &[a], &[out]).unwrap();
        b.claim_reader(out).unwrap();
        let mut dep = b.deploy(&client, &[handle]).unwrap();
        let mut r = DataReader::new(dep.readers.remove(&out).unwrap());
        for expect in [100, 200, 300, 400] {
            assert_eq!(r.read_i64().unwrap(), expect);
        }
        assert!(r.read_i64().is_err());
        drop(r);
        dep.join().unwrap();
    }

    #[test]
    fn two_servers_talk_directly() {
        // Producer on server 0, consumer pipeline on server 1, result to
        // the client: exercises server↔server and server↔client cuts.
        let client = Node::serve("127.0.0.1:0").unwrap();
        let (_s0, h0) = spawn_server();
        let (_s1, h1) = spawn_server();
        let mut b = GraphBuilder::new();
        let a = b.channel();
        let c = b.channel();
        b.add(0, "Sequence", &(0i64, Some(10u64)), &[], &[a])
            .unwrap();
        b.add(1, "Scale", &7i64, &[a], &[c]).unwrap();
        b.claim_reader(c).unwrap();
        let mut dep = b.deploy(&client, &[h0, h1]).unwrap();
        let mut r = DataReader::new(dep.readers.remove(&c).unwrap());
        for i in 0..10 {
            assert_eq!(r.read_i64().unwrap(), i * 7);
        }
        assert!(r.read_i64().is_err());
        drop(r);
        dep.join().unwrap();
    }

    #[test]
    fn partitions_ship_readers_first() {
        let client = Node::serve("127.0.0.1:0").unwrap();
        let (_s0, h0) = spawn_server();
        let (_s1, h1) = spawn_server();
        let (_s2, h2) = spawn_server();
        let mut b = GraphBuilder::new();
        let [a, c, out] = [b.channel(), b.channel(), b.channel()];
        // The pipeline runs 1 -> 0 -> 2, so partition ids say nothing.
        b.add(1, "Sequence", &(0i64, Some(10u64)), &[], &[a])
            .unwrap();
        b.add(0, "Scale", &7i64, &[a], &[c]).unwrap();
        b.add(2, "Scale", &3i64, &[c], &[out]).unwrap();
        b.claim_reader(out).unwrap();
        let mut dep = b
            .deploy(&client, &[h0.clone(), h1.clone(), h2.clone()])
            .unwrap();
        let shipped: Vec<_> = dep.servers.iter().map(|s| s.addr().to_string()).collect();
        let want: Vec<_> = [&h2, &h0, &h1].map(|h| h.addr().to_string()).into();
        assert_eq!(shipped, want);
        let mut r = DataReader::new(dep.readers.remove(&out).unwrap());
        for i in 0..10 {
            assert_eq!(r.read_i64().unwrap(), i * 21);
        }
        assert!(r.read_i64().is_err());
        drop(r);
        dep.join().unwrap();
    }

    #[test]
    fn client_writer_feeds_remote_graph() {
        let client = Node::serve("127.0.0.1:0").unwrap();
        let (_s0, h0) = spawn_server();
        let mut b = GraphBuilder::new();
        let input = b.channel();
        let output = b.channel();
        b.add(0, "Scale", &-1i64, &[input], &[output]).unwrap();
        b.claim_writer(input).unwrap();
        b.claim_reader(output).unwrap();
        let mut dep = b.deploy(&client, &[h0]).unwrap();
        let mut w = DataWriter::new(dep.writers.remove(&input).unwrap());
        let mut r = DataReader::new(dep.readers.remove(&output).unwrap());
        for i in 0..5 {
            w.write_i64(i).unwrap();
        }
        drop(w);
        for i in 0..5 {
            assert_eq!(r.read_i64().unwrap(), -i);
        }
        assert!(r.read_i64().is_err());
        drop(r);
        dep.join().unwrap();
    }

    #[test]
    fn client_partition_processes_run_locally() {
        let client = Node::serve("127.0.0.1:0").unwrap();
        let (_s0, h0) = spawn_server();
        let mut b = GraphBuilder::new();
        let a = b.channel();
        let c = b.channel();
        // Producer runs ON THE CLIENT, worker remotely.
        b.add(CLIENT, "Sequence", &(5i64, Some(3u64)), &[], &[a])
            .unwrap();
        b.add(0, "Scale", &2i64, &[a], &[c]).unwrap();
        b.claim_reader(c).unwrap();
        let mut dep = b.deploy(&client, &[h0]).unwrap();
        let mut r = DataReader::new(dep.readers.remove(&c).unwrap());
        for expect in [10, 12, 14] {
            assert_eq!(r.read_i64().unwrap(), expect);
        }
        drop(r);
        dep.join().unwrap();
    }

    #[test]
    fn half_connected_channel_is_rejected() {
        let client = Node::serve("127.0.0.1:0").unwrap();
        let mut b = GraphBuilder::new();
        let a = b.channel();
        b.add(CLIENT, "Sequence", &(0i64, Some(1u64)), &[], &[a])
            .unwrap();
        let err = match b.deploy(&client, &[]) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("expected error"),
        };
        assert!(err.contains("not fully connected"));
    }

    #[test]
    fn claimed_reader_paired_with_claimed_writer_is_rejected() {
        let client = Node::serve("127.0.0.1:0").unwrap();
        let mut b = GraphBuilder::new();
        let a = b.channel();
        b.claim_writer(a).unwrap();
        b.claim_reader(a).unwrap();
        let err = match b.deploy(&client, &[]) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("expected error"),
        };
        assert!(err.contains("pairs with a claimed writer"), "{err}");
    }

    #[test]
    fn double_producer_is_rejected_at_build() {
        let mut b = GraphBuilder::new();
        let a = b.channel();
        b.add(0, "Sequence", &(0i64, Some(1u64)), &[], &[a])
            .unwrap();
        let err = b
            .add(0, "Sequence", &(0i64, Some(1u64)), &[], &[a])
            .unwrap_err();
        assert!(err.to_string().contains("already has a producer"));
    }

    #[test]
    fn unknown_partition_is_rejected() {
        let client = Node::serve("127.0.0.1:0").unwrap();
        let mut b = GraphBuilder::new();
        let a = b.channel();
        b.add(3, "Sequence", &(0i64, Some(1u64)), &[], &[a])
            .unwrap();
        b.claim_reader(a).unwrap();
        let err = match b.deploy(&client, &[]) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("expected error"),
        };
        assert!(err.contains("unknown partition"));
    }

    #[test]
    fn dot_export_shows_partitions_and_edges() {
        let mut b = GraphBuilder::new();
        let a = b.channel();
        let c = b.channel();
        b.add(0, "Sequence", &(0i64, Some(4u64)), &[], &[a])
            .unwrap();
        b.add(1, "Scale", &2i64, &[a], &[c]).unwrap();
        b.claim_reader(c).unwrap();
        let dot = b.to_dot();
        assert!(dot.contains("cluster_server 0"), "{dot}");
        assert!(dot.contains("cluster_server 1"), "{dot}");
        assert!(dot.contains("p0 -> p1"), "{dot}");
        assert!(dot.contains("Sequence"), "{dot}");
        assert!(dot.contains("Scale"), "{dot}");
        // Claimed reader shows as an exit port.
        assert!(dot.contains("claimed_r_1"), "{dot}");
    }
}
