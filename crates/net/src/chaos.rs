//! Deterministic chaos harness: paper graphs under seeded fault schedules.
//!
//! Kahn process networks have a built-in test oracle: the history of every
//! channel is **determined by the graph alone**, independent of scheduling,
//! buffering, or — with the reconnection protocol of `remote.rs` — link
//! failures. This module turns that property into a harness:
//!
//! 1. [`ChaosCluster::with_faults`] stands up a client and `n` compute
//!    servers whose transports all run through a [`FaultyFactory`] driven
//!    by one seeded [`FaultPlan`], with a [`ReconnectPolicy`] tuned for
//!    tests (fast backoff, short op timeout);
//! 2. the graph runners ([`sieve_history`], [`hamming_history`],
//!    [`relay_history`]) deploy the paper's example networks across the
//!    cluster and collect the observable output channel's history;
//! 3. [`check_determinacy`] runs the same graph on a fault-free cluster
//!    and under each seed's fault schedule, and fails unless every run
//!    produces a **bit-identical** history.
//!
//! Faults are injected on both ends of every data connection: every node
//! of a faulted cluster, client included, is served with one
//! [`NetProfile`] built from the cluster's one [`FaultPlan`], and a node's
//! profile wraps the connections it opens as well as those it accepts.
//! Control sessions stay on plain TCP — chaos is scoped to the data plane
//! the reconnection protocol protects. No profile lives in a process-wide
//! table, so one cluster's faults cannot reach another cluster's links.

use crate::builder::GraphBuilder;
use crate::control::ServerHandle;
use crate::node::{Node, TaskRegistry};
use crate::registry::ProcessRegistry;
use crate::transport::{FaultPlan, FaultProfile, FaultyFactory, NetProfile, ReconnectPolicy};
use kpn_core::{compare_histories, DataReader, DataWriter, Error, HistoryCheck, Result};
use std::sync::Arc;
use std::time::Duration;

/// A reconnect policy tuned for chaos tests: recovery semantics identical
/// to [`ReconnectPolicy::resilient`], but with millisecond-scale backoff
/// (so injected resets heal quickly), a generous overall budget (fault
/// schedules are bounded, so every episode eventually succeeds), and an
/// operation timeout that turns long stalls into detectable faults.
pub fn chaos_policy() -> ReconnectPolicy {
    ReconnectPolicy {
        initial_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(100),
        budget: Duration::from_secs(20),
        op_timeout: Some(Duration::from_millis(250)),
        ..ReconnectPolicy::resilient()
    }
}

/// A client node plus `n` compute servers, optionally with every data
/// link running under a seeded fault schedule.
pub struct ChaosCluster {
    client: Arc<Node>,
    /// Keep the server nodes alive for the cluster's lifetime.
    _servers: Vec<Arc<Node>>,
    handles: Vec<ServerHandle>,
    plan: Option<Arc<FaultPlan>>,
}

impl ChaosCluster {
    /// A fault-free cluster (plain TCP, fail-fast semantics): the
    /// baseline side of the determinacy oracle.
    pub fn plain(servers: usize) -> Result<Self> {
        Self::plain_with(servers, &ProcessRegistry::with_defaults)
    }

    /// [`ChaosCluster::plain`] with every node (client included) built
    /// from a caller-supplied [`ProcessRegistry`] — required when the
    /// deployed graph ships non-stock processes (e.g. `kpn.Worker`, whose
    /// registration closes over an application task registry).
    pub fn plain_with(servers: usize, mk_registry: &dyn Fn() -> ProcessRegistry) -> Result<Self> {
        Self::serve(servers, mk_registry, NetProfile::default(), None)
    }

    /// A cluster whose every node (client included) is served with one
    /// profile: a [`FaultyFactory`] over one plan seeded from `seed`, and
    /// `policy`. Every data connection, accepted or opened, draws its
    /// faults from that plan.
    pub fn with_faults(
        servers: usize,
        seed: u64,
        profile: FaultProfile,
        policy: ReconnectPolicy,
    ) -> Result<Self> {
        Self::with_faults_with(
            servers,
            seed,
            profile,
            policy,
            &ProcessRegistry::with_defaults,
        )
    }

    /// [`ChaosCluster::with_faults`] with a caller-supplied
    /// [`ProcessRegistry`] per node — the faulted counterpart of
    /// [`ChaosCluster::plain_with`].
    pub fn with_faults_with(
        servers: usize,
        seed: u64,
        profile: FaultProfile,
        policy: ReconnectPolicy,
        mk_registry: &dyn Fn() -> ProcessRegistry,
    ) -> Result<Self> {
        let plan = FaultPlan::new(seed, profile);
        let factory = Arc::new(FaultyFactory::new(plan.clone()));
        Self::serve(
            servers,
            mk_registry,
            NetProfile::new(factory, policy),
            Some(plan),
        )
    }

    /// A client and `servers` nodes, every one served with `profile`.
    fn serve(
        servers: usize,
        mk_registry: &dyn Fn() -> ProcessRegistry,
        profile: NetProfile,
        plan: Option<Arc<FaultPlan>>,
    ) -> Result<Self> {
        let serve = || {
            Node::serve_full(
                "127.0.0.1:0",
                mk_registry(),
                TaskRegistry::new(),
                profile.clone(),
            )
        };
        let client = serve()?;
        let mut nodes = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..servers {
            let node = serve()?;
            handles.push(ServerHandle::new(node.addr().to_string()));
            nodes.push(node);
        }
        Ok(ChaosCluster {
            client,
            _servers: nodes,
            handles,
            plan,
        })
    }

    /// The deploying client node.
    pub fn client(&self) -> &Arc<Node> {
        &self.client
    }

    /// Control handles for the compute servers, in partition order.
    pub fn handles(&self) -> &[ServerHandle] {
        &self.handles
    }

    /// Faults injected so far (0 on a plain cluster).
    pub fn injected(&self) -> u64 {
        self.plan.as_ref().map_or(0, |plan| plan.injected())
    }
}

impl std::fmt::Debug for ChaosCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosCluster")
            .field("servers", &self.handles.len())
            .field("faulty", &self.plan.is_some())
            .finish()
    }
}

/// Reads the stream to its regular end (writer `Close`), failing on any
/// other error — a truncated-by-fault history must fail loudly, not
/// silently shorten the comparison.
fn drain(mut r: DataReader) -> Result<Vec<i64>> {
    let mut out = Vec::new();
    loop {
        match r.read_i64() {
            Ok(v) => out.push(v),
            Err(Error::Eof) => return Ok(out),
            Err(e) => return Err(e),
        }
    }
}

/// The Sieve of Eratosthenes (§3.3, Figures 7/8) producing all primes
/// below `below`: candidates generated on partition 0, the self-modifying
/// `Sift` head (which grows a `Modulo` chain inside its server's local
/// network) on partition 1, primes collected on the client. Terminates by
/// source exhaustion (§3.4 mode 1), so the full history drains cleanly.
pub fn sieve_history(cluster: &ChaosCluster, below: i64) -> Result<Vec<i64>> {
    let mut b = GraphBuilder::new();
    let [candidates, primes] = std::array::from_fn(|_| b.channel());
    let second = 1 % cluster.handles().len().max(1);
    b.add(
        0,
        "Sequence",
        &(2i64, Some((below - 2).max(0) as u64)),
        &[],
        &[candidates],
    )?;
    b.add(second, "Sift", &(), &[candidates], &[primes])?;
    b.claim_reader(primes)?;
    let mut dep = b.deploy(cluster.client(), cluster.handles())?;
    let r = DataReader::new(dep.readers.remove(&primes).expect("claimed reader"));
    let out = drain(r)?;
    dep.join()?;
    Ok(out)
}

/// The Hamming-number network of Figure 12, with its feedback loop kept
/// whole on partition 0 (so the local monitor can grow the loop's
/// channels, §3.5) and the output hopping through an `Identity` on
/// partition 1 before reaching the client — two network cuts on the
/// observable path. Reads the first `count` values, then closes the
/// reader: termination by sink limit (§3.4 mode 2), whose `WriteClosed`
/// cascade must cross both cuts even under faults.
pub fn hamming_history(cluster: &ChaosCluster, count: usize) -> Result<Vec<i64>> {
    let mut b = GraphBuilder::new();
    let [init, merged, h, mid, relay, in2, in3, in5, m2, m3, m5] =
        std::array::from_fn(|_| b.channel());
    let second = 1 % cluster.handles().len().max(1);
    b.add(0, "Constant", &(1i64, Some(1u64)), &[], &[init])?;
    b.add(0, "Cons", &false, &[init, merged], &[h])?;
    b.add(0, "Duplicate", &(), &[h], &[mid, in2, in3, in5])?;
    b.add(0, "Scale", &2i64, &[in2], &[m2])?;
    b.add(0, "Scale", &3i64, &[in3], &[m3])?;
    b.add(0, "Scale", &5i64, &[in5], &[m5])?;
    b.add(0, "OrderedMerge", &true, &[m2, m3, m5], &[merged])?;
    b.add(second, "Identity", &(), &[mid], &[relay])?;
    b.claim_reader(relay)?;
    let mut dep = b.deploy(cluster.client(), cluster.handles())?;
    let mut r = DataReader::new(dep.readers.remove(&relay).expect("claimed reader"));
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(r.read_i64()?);
    }
    // Dropping the reader fires the §3.4 cascade back through both cuts.
    drop(r);
    dep.join()?;
    Ok(out)
}

/// A ping-pong relay: the client writes one value at a time through
/// `Identity` processes on partitions 0 and 1 and reads it back before
/// sending the next — the strictest rhythm for the reconnection protocol,
/// since every fault surfaces while exactly one datum is in flight.
pub fn relay_history(cluster: &ChaosCluster, count: i64) -> Result<Vec<i64>> {
    let mut b = GraphBuilder::new();
    let [input, mid, back] = std::array::from_fn(|_| b.channel());
    let second = 1 % cluster.handles().len().max(1);
    b.add(0, "Identity", &(), &[input], &[mid])?;
    b.add(second, "Identity", &(), &[mid], &[back])?;
    b.claim_writer(input)?;
    b.claim_reader(back)?;
    let mut dep = b.deploy(cluster.client(), cluster.handles())?;
    let mut w = DataWriter::new(dep.writers.remove(&input).expect("claimed writer"));
    let mut r = DataReader::new(dep.readers.remove(&back).expect("claimed reader"));
    let mut out = Vec::with_capacity(count.max(0) as usize);
    for i in 0..count {
        w.write_i64(i)?;
        out.push(r.read_i64()?);
    }
    drop(w); // sends Close; the graph winds down by exhaustion
    let extra = drain(r)?.len();
    if extra > 0 {
        let msg = format!("relay produced {extra} values after the writer closed");
        return Err(Error::Graph(msg));
    }
    dep.join()?;
    Ok(out)
}

/// The Kahn determinacy oracle: runs `run` once on a fault-free cluster
/// and once per seed under that seed's fault schedule, requiring every
/// faulted history to be bit-identical to the baseline
/// ([`compare_histories`] under [`HistoryCheck::Exact`], the output as one
/// channel of big-endian bytes). Returns the total number of injected
/// faults so callers can assert the schedules actually fired.
pub fn check_determinacy<F>(
    servers: usize,
    seeds: &[u64],
    profile: FaultProfile,
    policy: ReconnectPolicy,
    run: F,
) -> Result<u64>
where
    F: Fn(&ChaosCluster) -> Result<Vec<i64>>,
{
    let history = |out: Vec<i64>| {
        let bytes = out.iter().flat_map(|v| v.to_be_bytes()).collect();
        vec![(("output".to_string(), 0), bytes)]
    };
    let baseline = history(run(&ChaosCluster::plain(servers)?)?);
    let mut injected = 0;
    for &seed in seeds {
        let cluster = ChaosCluster::with_faults(servers, seed, profile.clone(), policy.clone())?;
        let got = run(&cluster)
            .map_err(|e| Error::Graph(format!("chaos run failed under seed {seed:#x}: {e}")))?;
        injected += cluster.injected();
        compare_histories(&baseline, &history(got), HistoryCheck::Exact)
            .map_err(|e| Error::Graph(format!("seed {seed:#x} broke determinacy: {e}")))?;
    }
    Ok(injected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relay_is_deterministic_under_faults() {
        // refuse_connects ≥ 1 guarantees the schedule fires even if the
        // op-fault dice stay cold for the whole (short) run.
        let profile = FaultProfile {
            mean_ops_between_faults: 12,
            refuse_connects: 1,
            max_faults: 10,
            ..FaultProfile::default()
        };
        let faults = check_determinacy(2, &[0xC0FFEE], profile, chaos_policy(), |c| {
            relay_history(c, 48)
        })
        .expect("determinacy");
        assert!(faults > 0, "fault schedule never fired");
    }

    #[test]
    fn sieve_survives_fault_schedule() {
        let profile = FaultProfile {
            mean_ops_between_faults: 20,
            refuse_connects: 1,
            max_faults: 8,
            ..FaultProfile::default()
        };
        let cluster =
            ChaosCluster::with_faults(2, 0xBADC0DE, profile, chaos_policy()).expect("cluster");
        let primes = sieve_history(&cluster, 50).expect("sieve run");
        assert_eq!(primes, vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]);
    }
}
