//! The names, units, directions and bounds of every metric, and — for each
//! per-layer metric — which end-to-end metric on which workload it is
//! expected to move, and where it is expected not to. `BENCHMARK.json`
//! repeats the names; a unit test keeps the two in step.

use crate::stats::Better;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may get worse before
    /// `compare` calls it a regression.
    pub bound: f64,
    /// Defined (and steady enough to gate) on the two relays only.
    pub relays_only: bool,
    pub what: &'static str,
}

impl EndToEnd {
    pub fn applies_to(&self, workload: &str) -> bool {
        !self.relays_only || workload.starts_with("relay_")
    }

    /// Whether `BENCHMARK.json` lists it under `end_to_end`: that list is one
    /// for all workloads, and `failed_share` travels there as
    /// `attempted`/`failed`.
    pub fn in_contract(&self) -> bool {
        !self.relays_only && self.name != "failed_share"
    }
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "items_per_s",
        unit: "items/s",
        better: Better::Higher,
        bound: 0.25,
        relays_only: false,
        what: "items / wall time from graph started or deployed to last item verified and join() returned",
    },
    EndToEnd {
        name: "wait_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        relays_only: true,
        what: "median round trip, per repetition (elsewhere the client's wait per 4096-token or 256-task block, or for the whole run, reported per layer)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        relays_only: false,
        what: "nothing -> first process runnable: launch of the repetition's process + cluster + graph build + try_start()/deploy(); median over the repetitions",
    },
    EndToEnd {
        name: "peak_threads",
        unit: "threads",
        better: Better::Lower,
        bound: 0.10,
        relays_only: false,
        what: "max of /proc/self/status Threads read after start, at half of the items and before join",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        relays_only: false,
        what: "VmHWM of the repetition's process at exit",
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        relays_only: false,
        what: "ops_failed / ops_attempted: items missing, wrong or Err, plus every item of a repetition whose run failed",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metric and workload this is expected to move.
    pub moves: &'static str,
    /// Where it is expected not to show.
    pub not: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    not: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        not,
    }
}

use Better::{Higher, Lower};

/// The ladder rungs (isolated microbenchmarks), in ladder order.
pub const LADDER: [PerLayer; 23] = [
    layer("channel.hop_ns", "ns", Lower, "items_per_s on scale_pipeline_local (largest share), dist_gossip", "*_2node beyond their two local hops"),
    layer("channel.bulk_ns_per_kib", "ns/KiB", Lower, "none of today's workloads materially; the floor batching can approach", "every workload"),
    layer("stream.i64_buffered_ns", "ns", Lower, "items_per_s on scale_pipeline_local, scale_pipeline_2node", "relay_*, factor_2node"),
    layer("stream.i64_flush_each_ns", "ns", Lower, "items_per_s on scale_pipeline_local, scale_pipeline_2node (flush_each - buffered = price of the flush rule)", "relay_2node, factor_2node"),
    layer("stream.i64_unbuffered_ns", "ns", Lower, "items_per_s on dist_gossip (its streams are unbuffered)", "scale_pipeline_*"),
    layer("exec.thread.handoff_ns", "ns", Lower, "wait_p50_us on relay_local (default executor)", "scale_pipeline_local (few blocks per item), dist_gossip"),
    layer("exec.pooled.handoff_ns", "ns", Lower, "items_per_s on dist_gossip; wait_p50_us on relay_local once pooled is the default", "scale_pipeline_local"),
    layer("exec.pooled.foreign_handoff_ns", "ns", Lower, "items_per_s where a foreign thread is an endpoint (the clients of scale_pipeline_local and *_2node) once pooled is the default", "relay_local, dist_gossip (no foreign endpoint)"),
    layer("exec.thread.spawn_join_us", "us", Lower, "setup_s on scale_pipeline_local, relay_local", "dist_gossip"),
    layer("exec.pooled.spawn_join_us", "us", Lower, "setup_s on dist_gossip", "the thread-executor workloads"),
    layer("monitor.overhead_pct", "%", Lower, "items_per_s on scale_pipeline_local", "*_2node (their waits are external blocks)"),
    layer("topology.lint_start_us_per_process", "us", Lower, "setup_s on dist_gossip", "the five small graphs"),
    layer("codec.encode_ns", "ns", Lower, "items_per_s on factor_2node", "pipelines and relays (typed streams, no codec)"),
    layer("codec.decode_ns", "ns", Lower, "items_per_s on factor_2node", "pipelines and relays (typed streams, no codec)"),
    layer("net.frame.token_ns", "ns", Lower, "items_per_s on scale_pipeline_2node (expected dominant), factor_2node", "*_local, dist_gossip"),
    layer("net.frame.bulk_ns_per_kib", "ns/KiB", Lower, "items_per_s on scale_pipeline_2node once frames batch", "*_local, dist_gossip"),
    layer("net.transport.raw_tcp_token_ns", "ns", Lower, "items_per_s on scale_pipeline_2node (frame.token - raw = frame + ack + replay)", "*_local, dist_gossip"),
    layer("net.remote.rtt_us", "us", Lower, "wait_p50_us on relay_2node", "*_local, dist_gossip"),
    layer("net.node.serve_ms", "ms", Lower, "setup_s on the three *_2node workloads", "*_local, dist_gossip"),
    layer("net.builder.deploy_ms", "ms", Lower, "setup_s on the three *_2node workloads", "*_local, dist_gossip"),
    layer("parallel.null_task_us", "us", Lower, "items_per_s on factor_2node", "every other workload"),
    layer("bignum.search_task_us", "us", Lower, "items_per_s on factor_2node (expected ~4 %)", "every other workload"),
    layer("bignum.modpow_512_us", "us", Lower, "items_per_s on factor_2node (through search_task)", "every other workload"),
];

/// What the traced pass reports per workload, beside the ladder.
pub const TRACED: [PerLayer; 34] = [
    layer("oracle.items_per_s", "items/s", Higher, "the no-framework baseline each workload's items_per_s is a multiple of", "-"),
    layer("wait_p50_us", "us", Lower, "median client-endpoint wait: a round trip (relays, where profile gates it), a 4096-token block (pipelines), a 256-task block (factor), the whole run (gossip)", "-"),
    layer("wait_p99_us", "us", Lower, "tail of wait_p50_us on the relays (not gated: tails on a shared box do not repeat within a tenth)", "dist_gossip (one wait per run)"),
    layer("wait_p999_us", "us", Lower, "tail of wait_p50_us on the relays", "dist_gossip, factor_2node (too few waits)"),
    layer("span.launch_ms", "ms", Lower, "setup_s on every workload: exec, loading and runtime start-up of the repetition's process", "-"),
    layer("span.setup_cluster_ms", "ms", Lower, "setup_s on *_2node", "*_local, dist_gossip"),
    layer("span.setup_build_ms", "ms", Lower, "setup_s on dist_gossip", "the small graphs"),
    layer("span.setup_start_ms", "ms", Lower, "setup_s on every workload", "-"),
    layer("span.first_item_ms", "ms", Lower, "items_per_s at small sizes (--quick)", "dist_gossip"),
    layer("span.steady_ms", "ms", Lower, "items_per_s", "dist_gossip (its run is the join span)"),
    layer("span.drain_close_ms", "ms", Lower, "items_per_s when termination is slow", "dist_gossip"),
    layer("span.join_ms", "ms", Lower, "items_per_s on dist_gossip; cascading termination elsewhere", "-"),
    layer("span.teardown_ms", "ms", Lower, "nothing gated; cost of dropping a cluster", "-"),
    layer("channel.bytes_written", "count", Lower, "constant for a size; a change means the graph changed", "*_2node pipelines and relays (no client-side channels)"),
    layer("channel.read_blocks", "count", Lower, "items_per_s on scale_pipeline_local, wait_p50_us on relay_local", "*_2node pipelines and relays"),
    layer("channel.write_blocks", "count", Lower, "items_per_s on scale_pipeline_local", "relay_* (one item in flight)"),
    layer("channel.peak_occupancy", "bytes", Lower, "peak_rss_mib", "relay_*"),
    layer("monitor.capacity_grows", "count", Lower, "items_per_s (each grow costs a settle delay)", "-"),
    layer("monitor.true_deadlocks", "count", Lower, "failed_share (must be 0)", "-"),
    layer("exec.fiber_switches", "count", Lower, "items_per_s on dist_gossip", "thread-executor workloads (0)"),
    layer("exec.parks", "count", Lower, "items_per_s on dist_gossip", "thread-executor workloads (0)"),
    layer("exec.steal_successes", "count", Higher, "items_per_s on dist_gossip", "thread-executor workloads (0)"),
    layer("exec.foreign_unparks", "count", Lower, "items_per_s on scale_pipeline_local once pooled is the default (its client is a foreign thread)", "thread-executor workloads (0)"),
    layer("exec.injector_pushes", "count", Lower, "setup_s and items_per_s on dist_gossip", "thread-executor workloads (0)"),
    layer("reactor.wakeups", "count", Lower, "*_2node once the reactor backend is the default", "threads backend (0)"),
    layer("reactor.spurious_polls", "count", Lower, "*_2node once the reactor backend is the default", "threads backend (0)"),
    layer("net.reconnect_attempts", "count", Lower, "failed_share on *_2node (must be 0 on plain clusters)", "*_local"),
    layer("leak.threads_after_drop", "threads", Lower, "peak_threads of a long-lived process (threads still alive 0.5 s after the cluster or network was dropped; should be 0)", "-"),
    layer("proc.cpu_us_per_item", "us", Lower, "items_per_s on every workload (the denominator of ladder coverage)", "-"),
    layer("proc.sys_share", "ratio", Lower, "items_per_s on *_2node (syscalls per frame)", "*_local pipelines"),
    layer("proc.cpu_util", "ratio", Higher, "reads a throughput change against whether the CPU was busy", "-"),
    layer("proc.vol_ctx_switches_per_item", "count", Lower, "wait_p50_us on relay_*, items_per_s on *_2node", "scale_pipeline_local"),
    layer("trace.overhead_pct", "%", Lower, "nothing: the share of a traced repetition's wall time its client thread spent on tracing-only work (span pushes, /proc snapshots), timed in place", "-"),
    layer("net.tcp_segs_per_item", "count", Lower, "items_per_s on scale_pipeline_2node (frames per token, seen from outside)", "*_local, dist_gossip"),
];

/// Reported by `profile` only (derived, or about the benchmark itself).
pub const DERIVED: [PerLayer; 1] = [
    layer("ladder.coverage", "ratio", Higher, "sum(rung x ops per item) / proc.cpu_us_per_item on the pipelines and relays; far from 1 is a finding", "factor_2node, dist_gossip (not computed)"),
];

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    LADDER
        .iter()
        .chain(&TRACED)
        .chain(&DERIVED)
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::SPECS;

    /// `BENCHMARK.json` as these tables define it.
    fn contract() -> Value {
        let named = |name: &str, unit: &str, better: Better| {
            Value::obj()
                .with("name", name)
                .with("unit", unit)
                .with("better", better.as_str())
        };
        let workloads: Vec<Value> = SPECS
            .iter()
            .map(|s| Value::obj().with("name", s.name).with("why", s.why))
            .collect();
        let end_to_end: Vec<Value> = END_TO_END
            .iter()
            .filter(|m| m.in_contract())
            .map(|m| named(m.name, m.unit, m.better).with("bound", m.bound))
            .collect();
        let per_layer: Vec<Value> = LADDER
            .iter()
            .chain(&TRACED)
            .map(|m| named(m.name, m.unit, m.better))
            .collect();
        let command: Vec<Value> = [
            "cargo",
            "run",
            "--release",
            "--quiet",
            "--manifest-path",
            "profile-bench/Cargo.toml",
            "--bin",
            "kpn-bench",
            "--",
        ]
        .iter()
        .map(|&s| Value::from(s))
        .collect();
        Value::obj()
            .with("command", command)
            .with(
                "paths",
                vec![
                    Value::from("profile-bench"),
                    Value::from("bench_results/profile"),
                ],
            )
            .with("run_seconds", 12u64)
            .with("workloads", workloads)
            .with("end_to_end", end_to_end)
            .with("per_layer", per_layer)
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let expected = contract();
        assert_eq!(
            json::parse(&on_disk).expect("BENCHMARK.json parses"),
            expected,
            "BENCHMARK.json is out of step with metrics.rs / workloads.rs; expected:\n{}",
            expected.pretty()
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(LADDER.iter().chain(&TRACED).chain(&DERIVED).map(|m| m.name));
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        // wait_p50_us is an end-to-end metric on the relays and a per-layer
        // one elsewhere; every other name is used once.
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before - names.len(), 1);
        for spec in &SPECS {
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
        for m in LADDER.iter().chain(&TRACED) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
    }
}
