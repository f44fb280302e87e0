//! The six end-to-end workloads. Each function builds its graph through the
//! runtime's public API on the **default path** (`NetworkConfig::default()`,
//! no `KPN_*` variable set), drives it closed-loop from the calling thread,
//! and checks every item against an oracle before the repetition's timings
//! count.

use crate::probe::{Finished, Probe};
use crate::procfs;
use kpn_bignum::{make_weak_key, SearchOutcome};
use kpn_codec::{ObjectReader, ObjectWriter};
use kpn_core::stdlib::{Identity, Scale, Sequence};
use kpn_core::{
    DataReader, DataWriter, Error, ExecMode, LintLevel, MonitorStats, Network, NetworkConfig,
    Result,
};
use kpn_dist::{build_network, grid, simulate, GossipMax, MIN_CAPACITY};
use kpn_net::chaos::ChaosCluster;
use kpn_net::{recovery_stats, GraphBuilder, CLIENT};
use kpn_parallel::{factor_task_stream, meta_dynamic_distributed, parallel_registry, TaskEnvelope};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub struct Spec {
    pub name: &'static str,
    /// What `items_per_s` counts.
    pub item: &'static str,
    /// The size argument of a full repetition (tokens, round trips, tasks,
    /// or rounds); `--quick` runs a tenth of it.
    pub size: u64,
    /// Items per unit of size.
    pub items_per_size: u64,
    /// Runs on [`pinned_pooled`] instead of the default executor.
    pub pooled: bool,
    pub why: &'static str,
    /// Builds, drives and checks one repetition of `size`, inputs from
    /// `seed`; returns the number of failed items.
    run: fn(size: u64, seed: u64, p: &mut Probe) -> Result<u64>,
}

const GRID: usize = 64;
pub const FACTOR_BITS: u64 = 512;
pub const FACTOR_BATCH: u64 = 32;
/// Tokens per client wait span on the pipelines.
const TOKEN_BLOCK: u64 = 4096;
/// Task results per client wait span on `factor_2node`.
const TASK_BLOCK: u64 = 256;
const SCALES: [i64; 3] = [3, 5, 7];

pub const SPECS: [Spec; 6] = [
    Spec {
        name: "scale_pipeline_local",
        item: "token",
        size: 400_000,
        items_per_size: 1,
        pooled: false,
        why: "Streaming mode of channel + stream + flush: four local hops per token, parking is rare, so lock and bookkeeping per hop dominate; net and codec do nothing here.",
        run: scale_pipeline_local,
    },
    Spec {
        name: "scale_pipeline_2node",
        item: "token",
        size: 80_000,
        items_per_size: 1,
        pooled: false,
        why: "The same tokens with two hops replaced by net (frame + ack + replay + transport syscalls); (2node - local)/2 is the per-token price of a network hop.",
        run: scale_pipeline_2node,
    },
    Spec {
        name: "relay_local",
        item: "round trip",
        size: 5_000,
        items_per_size: 1,
        pooled: false,
        why: "The same channel/exec layers used the other way: every hop blocks, so park/unpark and flush-before-block set the time and batching buys nothing.",
        run: relay_local,
    },
    Spec {
        name: "relay_2node",
        item: "round trip",
        size: 4_000,
        items_per_size: 1,
        pooled: false,
        why: "Latency mode of net: one small frame per direction per hop, so the ack path and socket wake latency dominate; a streaming workload would hide slower wakes.",
        run: relay_2node,
    },
    Spec {
        name: "factor_2node",
        item: "task",
        size: 5_000,
        items_per_size: 1,
        pooled: false,
        why: "The paper's 5.2 application at the paper's task size: the object-message workload (codec + parallel routing + net), with bignum a few percent of a task.",
        run: factor_2node,
    },
    Spec {
        name: "dist_gossip",
        item: "node-round",
        size: 8,
        items_per_size: (GRID * GRID) as u64,
        pooled: true,
        why: "4096 processes and 16128 channels on the pooled executor: the only workload where exec::pooled and network/topology start-up do most of the work.",
        run: dist_gossip,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One finished repetition.
pub struct Rep {
    pub items: u64,
    /// Items missing, wrong or `Err`; all of them when the run itself failed.
    pub failed: u64,
    pub error: Option<String>,
    pub exec_mode: String,
    pub net_backend: String,
    pub record: Finished,
}

/// Runs one repetition of `spec` at `size`, inputs generated from `seed`, in
/// a process launched `launch` ago.
pub fn run(spec: &Spec, size: u64, seed: u64, trace: bool, launch: Duration) -> Rep {
    let mut probe = Probe::new(trace, launch);
    let baseline_threads = procfs::threads();
    let reconnects_before = recovery_stats().1;
    let outcome = (spec.run)(size, seed, &mut probe);
    // Everything the repetition owned is dropped by now.
    probe.end_phase();
    if probe.tracing() {
        probe.count(
            "net.reconnect_attempts",
            (recovery_stats().1 - reconnects_before) as f64,
        );
        probe.count(
            "leak.threads_after_drop",
            threads_over(baseline_threads) as f64,
        );
    }
    let items = size * spec.items_per_size;
    let (failed, error) = match outcome {
        Ok(failed) => (failed.min(items), None),
        Err(e) => (items, Some(e.to_string())),
    };
    let mode = if spec.pooled {
        pinned_pooled()
    } else {
        ExecMode::default()
    };
    Rep {
        items,
        failed,
        error,
        exec_mode: format!("{mode:?}"),
        net_backend: format!("{:?}", kpn_core::exec::net_backend()),
        record: probe.finish(),
    }
}

/// Threads above `baseline` once exiting threads had a moment to go: helper
/// threads end asynchronously after their owner is dropped, so a leak is
/// only what is still there after a bounded wait.
fn threads_over(baseline: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_millis(500);
    loop {
        let over = procfs::threads().saturating_sub(baseline);
        if over == 0 || Instant::now() >= deadline {
            return over;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Inputs stay small enough that `105 * token` cannot overflow.
fn token_start(seed: u64) -> i64 {
    (seed % 1_000_003) as i64
}

fn scaled(start: i64, i: u64) -> i64 {
    (start + i as i64) * SCALES.iter().product::<i64>()
}

/// Reads the runtime's report surfaces, off the repetition's clock.
fn record_monitor(p: &mut Probe, net: &Network, stats: &MonitorStats) {
    p.end_phase();
    if !p.tracing() {
        return;
    }
    let channels = net.channel_report();
    let sum = |f: fn(&kpn_core::ChannelIoStats) -> u64| -> f64 {
        channels.iter().fold(0.0, |acc, (_, c)| acc + f(c) as f64)
    };
    p.count("channel.bytes_written", sum(|c| c.bytes_written));
    p.count("channel.read_blocks", sum(|c| c.read_blocks));
    p.count("channel.write_blocks", sum(|c| c.write_blocks));
    p.count(
        "channel.peak_occupancy",
        channels
            .iter()
            .map(|(_, c)| c.peak_occupancy)
            .max()
            .unwrap_or(0) as f64,
    );
    p.count("monitor.capacity_grows", stats.capacity_grows as f64);
    p.count("monitor.true_deadlocks", stats.true_deadlocks as f64);
    if let Some(s) = &stats.scheduler {
        let t = s.totals();
        p.count("exec.fiber_switches", t.fiber_switches as f64);
        p.count("exec.parks", t.parks as f64);
        p.count("exec.steal_successes", t.steal_successes as f64);
        p.count("exec.foreign_unparks", s.foreign_unparks as f64);
        p.count("exec.injector_pushes", s.injector_pushes as f64);
        if let Some(r) = &s.reactor {
            p.count("reactor.wakeups", r.wakeups as f64);
            p.count("reactor.spurious_polls", r.spurious_polls as f64);
        }
    }
}

/// Expects the regular end of the stream; one more value is one failure.
fn expect_eof<T>(read: Result<T>) -> Result<u64> {
    match read {
        Err(Error::Eof) => Ok(0),
        Ok(_) => Ok(1),
        Err(e) => Err(e),
    }
}

/// Reads `n >= 1` items through `next(i)` (1 for a wrong item, 0 for a good
/// one): the first alone, the rest in blocks of `block` with one wait span
/// each. Samples threads at half of the items and closes the `/proc` window
/// at nine tenths, before the producers start to exit, so the per-thread
/// counters it reads are all still there.
fn read_items(
    n: u64,
    block: u64,
    p: &mut Probe,
    mut next: impl FnMut(u64) -> Result<u64>,
) -> Result<u64> {
    p.phase("first_item");
    let mut failed = next(0)?;
    p.phase("steady");
    p.window_open();
    let window_end = n - n / 10;
    let (mut i, mut sampled, mut windowed) = (1, false, false);
    while i < n {
        let block_end = (i + block).min(n);
        let t = Instant::now();
        while i < block_end {
            failed += next(i)?;
            i += 1;
        }
        p.wait_since(t);
        if !sampled && i >= n / 2 {
            p.sample_threads();
            sampled = true;
        }
        if !windowed && i >= window_end {
            p.window_close(i - 1);
            windowed = true;
        }
    }
    Ok(failed)
}

/// The client end of both pipelines: drains `n` tokens, checking each
/// against the closed form.
fn drain_pipeline(mut r: DataReader, n: u64, start: i64, p: &mut Probe) -> Result<u64> {
    let mut failed = read_items(n, TOKEN_BLOCK, p, |i| {
        Ok(u64::from(r.read_i64()? != scaled(start, i)))
    })?;
    p.phase("drain_close");
    failed += expect_eof(r.read_i64())?;
    Ok(failed)
}

/// The client end of both relays: one value in flight, echo checked, one
/// wait span per round trip.
fn drive_relay(
    mut w: DataWriter,
    mut r: DataReader,
    n: u64,
    start: i64,
    p: &mut Probe,
) -> Result<u64> {
    let mut failed = 0;
    p.phase("first_item");
    for i in 0..n {
        let v = start + i as i64;
        let t = Instant::now();
        w.write_i64(v)?;
        failed += u64::from(r.read_i64()? != v);
        p.wait_since(t);
        if i == 0 {
            p.phase("steady");
            p.window_open();
        }
        if i + 1 == n / 2 {
            p.sample_threads();
        }
    }
    p.window_close(n - 1);
    p.phase("drain_close");
    drop(w);
    failed += expect_eof(r.read_i64())?;
    Ok(failed)
}

fn scale_pipeline_local(n: u64, seed: u64, p: &mut Probe) -> Result<u64> {
    let start = token_start(seed);
    p.phase("setup.build");
    let net = Network::new();
    let (w0, r0) = net.channel();
    let (w1, r1) = net.channel();
    let (w2, r2) = net.channel();
    let (w3, r3) = net.channel();
    net.add(Sequence::new(start, n, w0));
    net.add(Scale::new(SCALES[0], r0, w1));
    net.add(Scale::new(SCALES[1], r1, w2));
    net.add(Scale::new(SCALES[2], r2, w3));
    r3.declare_external();
    p.phase("setup.start");
    net.try_start()?;
    p.sample_threads();
    let failed = drain_pipeline(DataReader::new(r3), n, start, p)?;
    p.sample_threads();
    p.phase("join");
    let report = net.join()?;
    record_monitor(p, &net, &report.monitor);
    p.phase("teardown");
    drop(net);
    Ok(failed)
}

fn scale_pipeline_2node(n: u64, seed: u64, p: &mut Probe) -> Result<u64> {
    let start = token_start(seed);
    p.phase("setup.cluster");
    let cluster = ChaosCluster::plain(2)?;
    p.phase("setup.build");
    let mut b = GraphBuilder::new();
    let c: [_; 4] = std::array::from_fn(|_| b.channel());
    b.add(0, "Sequence", &(start, Some(n)), &[], &[c[0]])?;
    b.add(0, "Scale", &SCALES[0], &[c[0]], &[c[1]])?;
    b.add(1, "Scale", &SCALES[1], &[c[1]], &[c[2]])?;
    b.add(1, "Scale", &SCALES[2], &[c[2]], &[c[3]])?;
    b.claim_reader(c[3])?;
    p.phase("setup.start");
    let mut dep = b.deploy(cluster.client(), cluster.handles())?;
    p.sample_threads();
    let reader = dep.readers.remove(&c[3]).expect("claimed reader");
    let failed = drain_pipeline(DataReader::new(reader), n, start, p)?;
    p.sample_threads();
    p.phase("join");
    dep.join()?;
    record_monitor(
        p,
        &dep.client_network,
        &dep.client_network.monitor().stats(),
    );
    p.phase("teardown");
    drop(dep);
    drop(cluster);
    Ok(failed)
}

/// The client is a process of the network, not the calling thread: the
/// monitor cannot see who owns a `declare_external` endpoint, so with a
/// foreign client every moment both `Identity` processes wait on empty
/// channels looks like a true deadlock, and a client descheduled for longer
/// than the monitor's 2 ms settle delay gets the network aborted (seen once
/// in ~7 M round trips on an idle box, 2 repetitions in 40 with the CPUs
/// contended). The probe travels to the client after start and comes back
/// with its result.
fn relay_local(n: u64, seed: u64, p: &mut Probe) -> Result<u64> {
    p.phase("setup.build");
    let net = Network::new();
    let (w_in, r_in) = net.channel();
    let (w_mid, r_mid) = net.channel();
    let (w_back, r_back) = net.channel();
    net.add(Identity::new(r_in, w_mid));
    net.add(Identity::new(r_mid, w_back));
    let (to_client, probe_in) = mpsc::channel::<Probe>();
    let (probe_out, from_client) = mpsc::channel();
    let start = token_start(seed);
    net.add_fn("client", move |_| {
        let Ok(mut probe) = probe_in.recv() else {
            return Ok(());
        };
        let (w, r) = (DataWriter::new(w_in), DataReader::new(r_back));
        let failed = drive_relay(w, r, n, start, &mut probe);
        // The receiver outlives this process unless set-up failed.
        let _ = probe_out.send((probe, failed));
        Ok(())
    });
    p.phase("setup.start");
    net.try_start()?;
    p.sample_threads();
    let lent = std::mem::replace(p, Probe::new(false, Duration::ZERO));
    let _ = to_client.send(lent);
    let (back, failed) = from_client
        .recv()
        .map_err(|_| Error::Graph("relay client ended without a result".into()))?;
    *p = back;
    let failed = failed?;
    p.sample_threads();
    p.phase("join");
    let report = net.join()?;
    record_monitor(p, &net, &report.monitor);
    p.phase("teardown");
    drop(net);
    Ok(failed)
}

/// The shape of `kpn_net::chaos::relay_history`, with each round trip timed.
fn relay_2node(n: u64, seed: u64, p: &mut Probe) -> Result<u64> {
    p.phase("setup.cluster");
    let cluster = ChaosCluster::plain(2)?;
    p.phase("setup.build");
    let mut b = GraphBuilder::new();
    let input = b.channel();
    let mid = b.channel();
    let back = b.channel();
    b.add(0, "Identity", &(), &[input], &[mid])?;
    b.add(1, "Identity", &(), &[mid], &[back])?;
    b.claim_writer(input)?;
    b.claim_reader(back)?;
    p.phase("setup.start");
    let mut dep = b.deploy(cluster.client(), cluster.handles())?;
    p.sample_threads();
    let w = DataWriter::new(dep.writers.remove(&input).expect("claimed writer"));
    let r = DataReader::new(dep.readers.remove(&back).expect("claimed reader"));
    let failed = drive_relay(w, r, n, token_start(seed), p)?;
    p.sample_threads();
    p.phase("join");
    dep.join()?;
    record_monitor(
        p,
        &dep.client_network,
        &dep.client_network.monitor().stats(),
    );
    p.phase("teardown");
    drop(dep);
    drop(cluster);
    Ok(failed)
}

/// The difference planted so that only the last of `tasks` tasks finds it.
pub fn planted_difference(tasks: u64) -> u64 {
    (tasks - 1) * 2 * FACTOR_BATCH + FACTOR_BATCH
}

/// The weak modulus `factor_2node` attacks, from `seed`.
pub fn weak_key(tasks: u64, seed: u64) -> kpn_bignum::WeakKey {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4EA1);
    make_weak_key(FACTOR_BITS, planted_difference(tasks), &mut rng)
}

/// The client side of `kpn_parallel::factor_cluster_run` (one feeder thread,
/// this thread reading), with the phases and waits of a repetition marked
/// and every outcome checked as it arrives.
fn factor_2node(tasks: u64, seed: u64, p: &mut Probe) -> Result<u64> {
    let key = weak_key(tasks, seed);
    p.phase("setup.cluster");
    let cluster = ChaosCluster::plain_with(2, &parallel_registry)?;
    p.phase("setup.build");
    let mut g = GraphBuilder::new();
    let (task_in, result_out) = meta_dynamic_distributed(&mut g, CLIENT, &[0, 1], 1.0)?;
    g.claim_writer(task_in)?;
    g.claim_reader(result_out)?;
    p.phase("setup.start");
    let mut dep = g.deploy(cluster.client(), cluster.handles())?;
    p.sample_threads();

    let writer = dep.writers.remove(&task_in).expect("claimed task writer");
    let mut stream = factor_task_stream(key.n.clone(), tasks, FACTOR_BATCH);
    let feeder = std::thread::spawn(move || -> Result<()> {
        let mut w = ObjectWriter::new(writer);
        while let Some(env) = stream()? {
            w.write(&env)?;
        }
        Ok(())
    });
    let mut r = ObjectReader::new(
        dep.readers
            .remove(&result_out)
            .expect("claimed result reader"),
    );
    let mut failed = read_items(tasks, TASK_BLOCK, p, |i| {
        let outcome: SearchOutcome = r.read::<TaskEnvelope>()?.unpack()?;
        let good = match &outcome {
            SearchOutcome::Found { p, d } => i + 1 == tasks && *p == key.p && *d == key.d,
            SearchOutcome::NotFound => i + 1 != tasks,
        };
        Ok(u64::from(!good))
    })?;
    p.phase("drain_close");
    feeder
        .join()
        .map_err(|_| Error::Graph("task feeder panicked".into()))??;
    // The history length is exact: after the last result, only the end.
    failed += expect_eof(r.read::<TaskEnvelope>())?;
    drop(r);
    p.sample_threads();
    p.phase("join");
    dep.join()?;
    record_monitor(
        p,
        &dep.client_network,
        &dep.client_network.monitor().stats(),
    );
    p.phase("teardown");
    drop(dep);
    drop(cluster);
    Ok(failed)
}

/// The per-node inputs of `dist_gossip`, from `seed`.
pub fn gossip_inputs(seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6055);
    (0..GRID * GRID).map(|_| rng.random()).collect()
}

pub fn gossip_graph() -> Result<kpn_dist::DistGraph> {
    grid(GRID, GRID)
}

/// The executor `dist_gossip` is pinned to: at 4096 processes
/// thread-per-process measures the kernel, not the runtime.
pub fn pinned_pooled() -> ExecMode {
    ExecMode::Pooled {
        workers: procfs::cores(),
    }
}

fn dist_gossip(rounds: u64, seed: u64, p: &mut Probe) -> Result<u64> {
    let graph = gossip_graph()?;
    let inputs = gossip_inputs(seed);
    let expected = simulate::<GossipMax>(&graph, &inputs, rounds)?;
    p.phase("setup.build");
    let net = Network::with_config(NetworkConfig {
        mode: pinned_pooled(),
        lint: LintLevel::Deny,
        ..NetworkConfig::default()
    });
    let outputs = build_network::<GossipMax>(&net, &graph, &inputs, rounds, MIN_CAPACITY)?;
    p.phase("setup.start");
    net.try_start()?;
    p.sample_threads();
    // No client endpoint here: the one wait is for the whole run.
    p.phase("join");
    p.window_open();
    let t = Instant::now();
    let report = net.join()?;
    p.wait_since(t);
    p.window_close(rounds * (GRID * GRID) as u64);
    p.sample_threads();
    record_monitor(p, &net, &report.monitor);
    let got = outputs.lock().expect("outputs lock").clone();
    let wrong = got.iter().zip(&expected).filter(|(a, b)| a != b).count() as u64;
    p.phase("teardown");
    drop(net);
    Ok(wrong * rounds)
}
