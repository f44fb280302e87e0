//! Distributed deadlock detection (§6.2, the paper's stated future work).
//!
//! A local monitor can prove a deadlock *artificial* (some process is
//! write-blocked on a full local channel — grow it) or *true* (all blocked
//! reads are on verifiably empty local channels). But threads blocked on
//! **remote** channel reads are opaque locally: data may be in flight on
//! the wire, so the local monitor must never abort because of them (they
//! register as *external* blocks, see [`kpn_core::Monitor::external_block`]).
//!
//! The [`ClusterProbe`] supplies the missing global view: it polls every
//! node's monitor snapshots over the control protocol and declares a
//! distributed deadlock when **every** network on **every** node is fully
//! blocked across two consecutive polls (the settling pass rejects
//! in-flight-data races the same way the local monitor's settle delay
//! does). Resolution mirrors the local policy: the operator (or the
//! probe's `abort_all`) unwinds the cluster.

use crate::control::ServerHandle;
use kpn_core::Result;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Serializable view of one network's monitor (mirror of
/// [`kpn_core::MonitorSnapshot`] for the wire).
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    /// Channel growths performed by the local monitor.
    pub growths: u64,
    /// Remote endpoints on the node currently inside a reconnect episode
    /// (process-wide gauge, reported with every network). A reconnecting
    /// channel may deliver data the moment its link heals, so it must
    /// never count toward a deadlock verdict.
    #[serde(default)]
    pub reconnecting: usize,
    /// Total reconnect attempts the node has ever made (progress gauge —
    /// movement between probe polls means the network layer is working,
    /// not deadlocked).
    #[serde(default)]
    pub recovery_attempts: u64,
    /// Socket-readiness wakeups delivered by the executor's reactor
    /// (pooled executor; 0 when the node's networks run on threads). A
    /// reactor-parked channel reports no generation movement while it
    /// waits, but a *delivery* to one is progress exactly like a TCP
    /// receive waking a thread-blocked reader — so this gauge joins the
    /// freshness check. Timer wakeups are deliberately excluded: timers
    /// keep firing during a true deadlock.
    #[serde(default)]
    pub reactor_wakeups: u64,
}

impl NetworkStatus {
    /// Builds the wire view from a core snapshot, stamping in the node's
    /// current transport-recovery gauges.
    pub fn from_snapshot(s: &kpn_core::MonitorSnapshot) -> Self {
        let (reconnecting, recovery_attempts) = crate::transport::recovery_stats();
        NetworkStatus {
            generation: s.generation,
            live: s.live,
            blocked_reads: s.blocked_reads,
            blocked_writes: s.blocked_writes,
            aborted: s.aborted,
            growths: s.stats.growths,
            reconnecting,
            recovery_attempts,
            reactor_wakeups: s
                .stats
                .scheduler
                .as_ref()
                .and_then(|sc| sc.reactor.as_ref())
                .map(|r| r.wakeups)
                .unwrap_or(0),
        }
    }

    /// True when the network still has live processes, all blocked.
    pub fn fully_blocked(&self) -> bool {
        self.live > 0 && self.blocked_reads + self.blocked_writes >= self.live
    }

    /// True when the network has finished.
    pub fn finished(&self) -> bool {
        self.live == 0
    }
}

/// Aggregated status of one node.
#[derive(Debug, Clone)]
pub struct NodeStatus {
    /// The node's control address.
    pub addr: String,
    /// One entry per network the node is running.
    pub networks: Vec<NetworkStatus>,
}

impl NodeStatus {
    /// True when every network on the node is either finished or fully
    /// blocked, with at least one still live — and no channel endpoint is
    /// mid-reconnect. A node with a recovering endpoint is *not*
    /// quiescent: the blocked thread it reports may resume the instant
    /// the link heals, which is indistinguishable from data in flight.
    pub fn quiescent_blocked(&self) -> bool {
        let any_live = self.networks.iter().any(|n| !n.finished());
        any_live
            && self.networks.iter().all(|n| n.reconnecting == 0)
            && self
                .networks
                .iter()
                .all(|n| n.finished() || n.fully_blocked())
    }

    /// One-line description of what is blocked, for timeout diagnostics.
    fn describe(&self) -> String {
        let (mut live, mut reads, mut writes, mut rec) = (0, 0, 0, 0);
        for n in &self.networks {
            live += n.live;
            reads += n.blocked_reads;
            writes += n.blocked_writes;
            rec = rec.max(n.reconnecting);
        }
        format!(
            "{}: {} live, {} read-blocked, {} write-blocked, {} reconnecting",
            self.addr, live, reads, writes, rec
        )
    }
}

/// A coordinator that watches a set of compute servers for distributed
/// deadlock.
pub struct ClusterProbe {
    servers: Vec<ServerHandle>,
    /// Delay between the two confirmation polls.
    pub settle: Duration,
}

impl ClusterProbe {
    /// A probe over the given servers.
    pub fn new(servers: Vec<ServerHandle>) -> Self {
        ClusterProbe {
            servers,
            settle: Duration::from_millis(50),
        }
    }

    /// One status poll across all servers.
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

    /// True when the cluster as a whole is deadlocked: every node is
    /// quiescent-blocked on two consecutive polls. (A single poll can
    /// catch a moment where data is on the wire between two sockets; the
    /// confirmation poll after `settle` rejects that race — TCP delivery
    /// would have woken a reader in between.)
    pub fn detect_global_deadlock(&self) -> Result<bool> {
        let first = self.poll()?;
        if first.is_empty() || !first.iter().all(NodeStatus::quiescent_blocked) {
            return Ok(false);
        }
        kpn_core::exec::sleep(self.settle);
        let second = self.poll()?;
        if !second.iter().all(NodeStatus::quiescent_blocked) {
            return Ok(false);
        }
        // Freshness: any generation movement between the polls means some
        // thread blocked/unblocked, and any recovery-attempt movement
        // means the network layer is actively reconnecting — progress
        // either way, not deadlock.
        let frozen = first.iter().zip(second.iter()).all(|(a, b)| {
            a.networks.len() == b.networks.len()
                && a.networks.iter().zip(b.networks.iter()).all(|(x, y)| {
                    x.generation == y.generation
                        && x.recovery_attempts == y.recovery_attempts
                        && x.reactor_wakeups == y.reactor_wakeups
                })
        });
        Ok(frozen)
    }

    /// Polls repeatedly until a global deadlock is confirmed or `timeout`
    /// elapses. Between polls it parks on the transport-layer condvar
    /// (see [`crate::transport::probe_wait`]) rather than busy-sleeping,
    /// so recovery transitions re-poll immediately and chaos tests don't
    /// flake on fixed-interval timing. On timeout the error reports what
    /// each node had blocked at the final poll.
    pub fn wait_for_deadlock(&self, timeout: Duration) -> Result<bool> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if self.detect_global_deadlock()? {
                return Ok(true);
            }
            if std::time::Instant::now() >= deadline {
                let detail = match self.poll() {
                    Ok(nodes) => nodes
                        .iter()
                        .map(NodeStatus::describe)
                        .collect::<Vec<_>>()
                        .join("; "),
                    Err(e) => format!("final poll failed: {e}"),
                };
                return Err(kpn_core::Error::Graph(format!(
                    "no global deadlock within {timeout:?} — {detail}"
                )));
            }
            crate::transport::probe_wait(self.settle);
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

    fn status(live: usize, reads: usize, writes: usize) -> NetworkStatus {
        NetworkStatus {
            generation: 0,
            live,
            blocked_reads: reads,
            blocked_writes: writes,
            aborted: false,
            growths: 0,
            reconnecting: 0,
            recovery_attempts: 0,
            reactor_wakeups: 0,
        }
    }

    #[test]
    fn fully_blocked_logic() {
        assert!(status(2, 2, 0).fully_blocked());
        assert!(status(2, 1, 1).fully_blocked());
        assert!(!status(2, 1, 0).fully_blocked());
        assert!(!status(0, 0, 0).fully_blocked());
        assert!(status(0, 0, 0).finished());
    }

    #[test]
    fn node_quiescence_requires_a_live_network() {
        let all_done = NodeStatus {
            addr: "x".into(),
            networks: vec![status(0, 0, 0)],
        };
        assert!(!all_done.quiescent_blocked());
        let blocked = NodeStatus {
            addr: "x".into(),
            networks: vec![status(0, 0, 0), status(3, 3, 0)],
        };
        assert!(blocked.quiescent_blocked());
        let running = NodeStatus {
            addr: "x".into(),
            networks: vec![status(3, 2, 0)],
        };
        assert!(!running.quiescent_blocked());
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
