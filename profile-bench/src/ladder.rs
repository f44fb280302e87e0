//! The cost ladder: one isolated microbenchmark per layer, timed around the
//! layer's public calls, so that an end-to-end figure can be read as a sum
//! of rungs — and the part that does not add up is itself a finding.
//!
//! Every rung reports wall time per operation (median of `samples` samples
//! of at least `sample` each) and, alongside, process CPU per operation over
//! the same samples: stages of a pipeline overlap on two cores, so coverage
//! is judged against CPU per item, not wall.

use crate::json::Value;
use crate::procfs;
use crate::stats::Summary;
use crate::workloads;
use kpn_bignum::{search_range, BigUint};
use kpn_codec::{ObjectReader, ObjectWriter};
use kpn_core::stdlib::{Scale, Sequence};
use kpn_core::{
    ChannelReader, ChannelWriter, DataReader, DataWriter, DeadlockPolicy, ExecMode, LintLevel,
    Network, NetworkConfig, Sink,
};
use kpn_dist::{build_network, simulate, GossipMax, MIN_CAPACITY};
use kpn_net::chaos::ChaosCluster;
use kpn_net::{remote_reader, remote_writer, Acceptor, GraphBuilder, Node};
use kpn_parallel::{
    factor_task_stream, meta_dynamic, Consumer, Producer, TaskEnv, TaskEnvelope, TaskTypeRegistry,
    WorkTask,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub struct Rung {
    pub name: String,
    pub unit: &'static str,
    /// Per-operation wall time, one value per sample.
    pub wall: Summary,
    /// Process CPU per operation over all samples, in `unit`.
    pub cpu: f64,
}

impl Rung {
    pub fn to_json(&self) -> Value {
        let mut v = self.wall.to_json();
        v.set("unit", self.unit);
        v.set("cpu_per_op", self.cpu);
        v
    }
}

pub struct Timer {
    pub sample: Duration,
    pub samples: usize,
    pub rungs: Vec<Rung>,
}

fn unit_scale(unit: &str) -> f64 {
    match unit {
        "ns" | "ns/KiB" => 1e9,
        "us" => 1e6,
        "ms" => 1e3,
        other => panic!("no time scale for unit {other}"),
    }
}

impl Timer {
    /// Times `body(iters)`, which performs `iters * ops_per_iter` operations
    /// and returns how long they took. `iters` is calibrated once so that a
    /// sample lasts about `self.sample`.
    fn rung(
        &mut self,
        name: &str,
        unit: &'static str,
        ops_per_iter: f64,
        body: impl FnMut(u64) -> Duration,
    ) {
        self.rung_capped(name, unit, ops_per_iter, 1 << 28, body);
    }

    /// [`Timer::rung`] with at most `max_iters` per sample, for operations
    /// that cost the machine something beyond their own time.
    fn rung_capped(
        &mut self,
        name: &str,
        unit: &'static str,
        ops_per_iter: f64,
        max_iters: u64,
        mut body: impl FnMut(u64) -> Duration,
    ) {
        let mut iters = 1u64;
        loop {
            let took = body(iters);
            if took >= self.sample / 4 || iters >= max_iters {
                let scale = self.sample.as_secs_f64() / took.as_secs_f64().max(1e-9);
                iters = ((iters as f64 * scale).ceil() as u64).clamp(1, max_iters);
                break;
            }
            iters *= 4;
        }
        let scale = unit_scale(unit);
        let ops = iters as f64 * ops_per_iter;
        let (user, sys) = procfs::cpu_seconds();
        let wall: Vec<f64> = (0..self.samples)
            .map(|_| body(iters).as_secs_f64() * scale / ops)
            .collect();
        let (user2, sys2) = procfs::cpu_seconds();
        self.rungs.push(Rung {
            name: name.to_string(),
            unit,
            wall: Summary::of(&wall),
            cpu: (user2 + sys2 - user - sys) * scale / (ops * self.samples as f64),
        });
    }

    /// Records a rung whose samples were taken elsewhere.
    fn push(&mut self, name: &str, unit: &'static str, values: &[f64]) {
        self.rungs.push(Rung {
            name: name.to_string(),
            unit,
            wall: Summary::of(values),
            cpu: 0.0,
        });
    }
}

fn network(mode: ExecMode) -> Network {
    // Rung bodies are opaque closures with nothing for the lint to check.
    Network::with_config(NetworkConfig {
        mode,
        lint: LintLevel::Off,
        ..NetworkConfig::default()
    })
}

pub fn run(timer: &mut Timer, seed: u64) {
    channel(timer);
    stream(timer);
    exec(timer);
    monitor(timer, seed);
    topology(timer, seed);
    codec(timer, seed);
    net(timer);
    parallel(timer);
    bignum(timer, seed);
    oracles(timer, seed);
}

/// `channel.*`: a monitored local channel driven from one thread, so no
/// operation ever parks: the lock, the `dyn Sink` call and the waiter and
/// monitor bookkeeping of a hop, and the ring's span copy for bulk.
fn channel(t: &mut Timer) {
    let net = Network::new();
    let (mut w, mut r) = net.channel();
    let mut token = [0u8; 8];
    t.rung("channel.hop_ns", "ns", 1.0, |iters| {
        let start = Instant::now();
        for i in 0..iters {
            w.write_all(&i.to_le_bytes()).expect("write");
            r.read_exact(&mut token).expect("read");
        }
        black_box(token);
        start.elapsed()
    });
    let chunk = [0xABu8; 4096];
    let mut back = [0u8; 4096];
    t.rung("channel.bulk_ns_per_kib", "ns/KiB", 4.0, |iters| {
        let start = Instant::now();
        for _ in 0..iters {
            w.write_all(&chunk).expect("write");
            r.read_exact(&mut back).expect("read");
        }
        black_box(back[0]);
        start.elapsed()
    });
}

/// `stream.*`: one i64 through `DataWriter`/`DataReader` on one thread —
/// through the 4 KiB buffer, with the flush per token that the
/// step-boundary rule performs, and through the unbuffered constructors.
fn stream(t: &mut Timer) {
    const BATCH: u64 = 256;
    let net = Network::new();
    {
        let (w, r) = net.channel();
        let (mut w, mut r) = (DataWriter::new(w), DataReader::new(r));
        t.rung("stream.i64_buffered_ns", "ns", BATCH as f64, |iters| {
            let start = Instant::now();
            for _ in 0..iters {
                for i in 0..BATCH {
                    w.write_i64(i as i64).expect("write");
                }
                w.flush().expect("flush");
                for _ in 0..BATCH {
                    black_box(r.read_i64().expect("read"));
                }
            }
            start.elapsed()
        });
        t.rung("stream.i64_flush_each_ns", "ns", 1.0, |iters| {
            let start = Instant::now();
            for i in 0..iters {
                w.write_i64(i as i64).expect("write");
                w.flush().expect("flush");
                black_box(r.read_i64().expect("read"));
            }
            start.elapsed()
        });
    }
    let (w, r) = net.channel();
    let (mut w, mut r) = (DataWriter::unbuffered(w), DataReader::unbuffered(r));
    t.rung("stream.i64_unbuffered_ns", "ns", 1.0, |iters| {
        let start = Instant::now();
        for i in 0..iters {
            w.write_i64(i as i64).expect("write");
            black_box(r.read_i64().expect("read"));
        }
        start.elapsed()
    });
}

/// Two tasks of one network bounce an 8-byte token over capacity-64
/// channels; every operation blocks, so a round trip is two handoffs.
fn task_pingpong(mode: ExecMode, iters: u64) -> Duration {
    let net = network(mode);
    let (mut ping_w, mut pong_r) = net.channel_with_capacity(64);
    let (mut pong_w, mut ping_r) = net.channel_with_capacity(64);
    let took = Arc::new(Mutex::new(Duration::ZERO));
    let out = took.clone();
    net.add_fn("ping", move |_| {
        let mut token = [0u8; 8];
        let start = Instant::now();
        for i in 0..iters {
            ping_w.write_all(&i.to_le_bytes())?;
            ping_r.read_exact(&mut token)?;
        }
        *out.lock().expect("lock") = start.elapsed();
        Ok(())
    });
    net.add_fn("pong", move |_| {
        let mut token = [0u8; 8];
        loop {
            pong_r.read_exact(&mut token)?;
            pong_w.write_all(&token)?;
        }
    });
    net.run().expect("ping-pong network");
    let took = *took.lock().expect("lock");
    took
}

/// The same bounce between the calling (foreign) thread and one task. The
/// monitor cannot see a foreign endpoint's owner: whenever this thread holds
/// the token the one process is read-blocked on an empty channel, which the
/// default policy may abort as a true deadlock — so here it only watches.
fn foreign_pingpong(mode: ExecMode, iters: u64) -> Duration {
    let net = Network::with_config(NetworkConfig {
        mode,
        lint: LintLevel::Off,
        deadlock_policy: DeadlockPolicy::Ignore,
        ..NetworkConfig::default()
    });
    let (mut ping_w, mut pong_r) = net.channel_with_capacity(64);
    let (mut pong_w, mut ping_r) = net.channel_with_capacity(64);
    net.add_fn("pong", move |_| {
        let mut token = [0u8; 8];
        loop {
            pong_r.read_exact(&mut token)?;
            pong_w.write_all(&token)?;
        }
    });
    net.start();
    let mut token = [0u8; 8];
    let start = Instant::now();
    for i in 0..iters {
        ping_w.write_all(&i.to_le_bytes()).expect("write");
        ping_r.read_exact(&mut token).expect("read");
    }
    let took = start.elapsed();
    drop(ping_w);
    net.join().expect("ping-pong network");
    took
}

/// `exec.*`: blocking handoff and process spawn/join, per executor.
fn exec(t: &mut Timer) {
    t.rung("exec.thread.handoff_ns", "ns", 2.0, |iters| {
        task_pingpong(ExecMode::Thread, iters)
    });
    t.rung("exec.pooled.handoff_ns", "ns", 2.0, |iters| {
        task_pingpong(workloads::pinned_pooled(), iters)
    });
    t.rung("exec.pooled.foreign_handoff_ns", "ns", 2.0, |iters| {
        foreign_pingpong(workloads::pinned_pooled(), iters)
    });
    const PROCESSES: u64 = 1_000;
    for (name, mode) in [
        ("exec.thread.spawn_join_us", ExecMode::Thread),
        ("exec.pooled.spawn_join_us", workloads::pinned_pooled()),
    ] {
        t.rung(name, "us", PROCESSES as f64, |iters| {
            let mut took = Duration::ZERO;
            for _ in 0..iters {
                let net = network(mode.clone());
                for _ in 0..PROCESSES {
                    net.add_fn("noop", |_| Ok(()));
                }
                let start = Instant::now();
                net.run().expect("spawn/join network");
                took += start.elapsed();
            }
            took
        });
    }
}

/// `monitor.overhead_pct`: the Scale pipeline with Parks' monitor acting
/// (`DeadlockPolicy::default()`) against `Ignore`, runs alternating.
fn monitor(t: &mut Timer, seed: u64) {
    let pipeline = |policy: DeadlockPolicy, tokens: u64| -> Duration {
        let net = Network::with_config(NetworkConfig {
            deadlock_policy: policy,
            ..NetworkConfig::default()
        });
        let (w0, r0) = net.channel();
        let (w1, r1) = net.channel();
        let (w2, r2) = net.channel();
        net.add(Sequence::new((seed % 1000) as i64, tokens, w0));
        net.add(Scale::new(3, r0, w1));
        net.add(Scale::new(5, r1, w2));
        net.add(kpn_core::stdlib::Discard::new(r2));
        let start = Instant::now();
        net.run().expect("pipeline");
        start.elapsed()
    };
    // Size one run to about one sample.
    let probe = pipeline(DeadlockPolicy::default(), 20_000);
    let tokens = (20_000.0 * t.sample.as_secs_f64() / probe.as_secs_f64().max(1e-6)) as u64;
    let overheads: Vec<f64> = (0..t.samples)
        .map(|_| {
            let on = pipeline(DeadlockPolicy::default(), tokens.max(1_000)).as_secs_f64();
            let off = pipeline(DeadlockPolicy::Ignore, tokens.max(1_000)).as_secs_f64();
            (on - off) / off * 100.0
        })
        .collect();
    t.push("monitor.overhead_pct", "%", &overheads);
}

/// `topology.lint_start_us_per_process`: `try_start()` of the 4096-node
/// gossip grid at `LintLevel::Deny` minus the same at `Off`.
fn topology(t: &mut Timer, seed: u64) {
    let graph = workloads::gossip_graph().expect("grid");
    let inputs = workloads::gossip_inputs(seed);
    let start_s = |lint: LintLevel| -> f64 {
        let net = Network::with_config(NetworkConfig {
            mode: workloads::pinned_pooled(),
            lint,
            ..NetworkConfig::default()
        });
        build_network::<GossipMax>(&net, &graph, &inputs, 0, MIN_CAPACITY).expect("build");
        let start = Instant::now();
        net.try_start().expect("start");
        let took = start.elapsed().as_secs_f64();
        net.join().expect("join");
        took
    };
    let per_process: Vec<f64> = (0..t.samples)
        .map(|_| (start_s(LintLevel::Deny) - start_s(LintLevel::Off)) * 1e6 / graph.n() as f64)
        .collect();
    t.push("topology.lint_start_us_per_process", "us", &per_process);
}

/// A sink that accepts and forgets: what `codec.encode_ns` writes into, so
/// the rung times the codec and `ObjectWriter`, not a channel.
struct NullSink;

impl Sink for NullSink {
    fn write_all(&mut self, _buf: &[u8]) -> kpn_core::Result<()> {
        Ok(())
    }
    fn close(&mut self) {}
}

/// `codec.*`: one §5.2 task envelope into `ObjectWriter`, and out of
/// `ObjectReader`, with memory on the other side (a hop is `channel.*`).
fn codec(t: &mut Timer, seed: u64) {
    const BATCH: u64 = 512;
    let key = workloads::weak_key(1, seed);
    let env = factor_task_stream(key.n, 1, workloads::FACTOR_BATCH)()
        .expect("pack")
        .expect("one task");
    let mut w = ObjectWriter::new(ChannelWriter::from_sink(Box::new(NullSink)));
    t.rung("codec.encode_ns", "ns", 1.0, |iters| {
        let start = Instant::now();
        for _ in 0..iters {
            w.write(&env).expect("encode");
        }
        w.flush().expect("flush");
        start.elapsed()
    });
    // A batch encoded once, handed back to a reader as bytes already read
    // (one copy per batch, ~2 % of the decoding it feeds).
    let encoded = {
        let (w, mut r) = kpn_core::channel_with_capacity(1 << 20);
        let mut w = ObjectWriter::new(w);
        for _ in 0..BATCH {
            w.write(&env).expect("encode");
        }
        drop(w);
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes).expect("drain");
        bytes
    };
    t.rung("codec.decode_ns", "ns", BATCH as f64, |iters| {
        let start = Instant::now();
        for _ in 0..iters {
            let mut source = ChannelReader::empty();
            source.unread(encoded.clone());
            let mut r = ObjectReader::new(source);
            for _ in 0..BATCH {
                black_box(r.read::<TaskEnvelope>().expect("decode"));
            }
        }
        start.elapsed()
    });
}

/// `net.*`: one remote channel pair over loopback against a bare
/// `TcpStream` moving the same bytes in the same pattern, a remote
/// ping-pong, and node/deployment set-up.
fn net(t: &mut Timer) {
    let acceptor = Acceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr().to_string();
    let mut next_token = 0xBE7C_0000u64;
    let mut pair = || {
        next_token += 1;
        let r = remote_reader(&acceptor, next_token);
        let w = remote_writer(&addr, next_token).expect("connect");
        (w, r)
    };

    // A writer thread streams, this thread reads; the clock runs from the
    // first token read (connection established) to the last.
    let (w, r) = pair();
    let (mut w, mut r) = (DataWriter::new(w), DataReader::new(r));
    t.rung("net.frame.token_ns", "ns", 1.0, |iters| {
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..=iters {
                    w.write_i64(i as i64).expect("write");
                    w.flush().expect("flush");
                }
            });
            black_box(r.read_i64().expect("read"));
            let start = Instant::now();
            for _ in 0..iters {
                black_box(r.read_i64().expect("read"));
            }
            start.elapsed()
        })
    });
    drop((w, r));

    let (mut w, mut r) = pair();
    let chunk = [0xABu8; 4096];
    let mut back = [0u8; 4096];
    t.rung("net.frame.bulk_ns_per_kib", "ns/KiB", 4.0, |iters| {
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..=iters {
                    w.write_all(&chunk).expect("write");
                    w.flush().expect("flush");
                }
            });
            r.read_exact(&mut back).expect("read");
            let start = Instant::now();
            for _ in 0..iters {
                r.read_exact(&mut back).expect("read");
            }
            start.elapsed()
        })
    });
    drop((w, r));

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut tx = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (mut rx, _) = listener.accept().expect("accept");
    tx.set_nodelay(true).expect("nodelay");
    t.rung("net.transport.raw_tcp_token_ns", "ns", 1.0, |iters| {
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..=iters {
                    tx.write_all(&i.to_le_bytes()).expect("write");
                }
            });
            let mut token = [0u8; 8];
            rx.read_exact(&mut token).expect("read");
            let start = Instant::now();
            for _ in 0..iters {
                rx.read_exact(&mut token).expect("read");
            }
            black_box(token);
            start.elapsed()
        })
    });

    // Two remote channels, no processes: this thread pings, one thread echoes.
    let (ping_w, pong_r) = pair();
    let (pong_w, ping_r) = pair();
    let echo = std::thread::spawn(move || {
        let (mut w, mut r) = (DataWriter::new(pong_w), DataReader::new(pong_r));
        while let Ok(v) = r.read_i64() {
            if w.write_i64(v).and_then(|()| w.flush()).is_err() {
                break;
            }
        }
    });
    let (mut w, mut r) = (DataWriter::new(ping_w), DataReader::new(ping_r));
    t.rung("net.remote.rtt_us", "us", 1.0, |iters| {
        let start = Instant::now();
        for i in 0..iters {
            w.write_i64(i as i64).expect("write");
            w.flush().expect("flush");
            black_box(r.read_i64().expect("read"));
        }
        start.elapsed()
    });
    drop((w, r));
    echo.join().expect("echo thread");

    // Every node and deployment leaves sockets in TIME_WAIT for a minute; a
    // few thousand of them slow the next 2-node set-up severalfold (its
    // `setup_s` went from 1 ms to 10 ms), so these two rungs stay small.
    const MAX_SOCKET_OPS: u64 = 16;
    t.rung_capped("net.node.serve_ms", "ms", 1.0, MAX_SOCKET_OPS, |iters| {
        let mut took = Duration::ZERO;
        for _ in 0..iters {
            let start = Instant::now();
            let node = Node::serve("127.0.0.1:0").expect("serve");
            took += start.elapsed();
            // Dropping a node leaves its acceptor thread and socket behind
            // (see leak.threads_after_drop); shut it down off the clock.
            node.shutdown();
        }
        took
    });

    let cluster = ChaosCluster::plain(2).expect("cluster");
    t.rung_capped(
        "net.builder.deploy_ms",
        "ms",
        1.0,
        MAX_SOCKET_OPS,
        |iters| {
            let mut took = Duration::ZERO;
            for _ in 0..iters {
                // The 2-node Scale pipeline with no tokens: deploy, then let it
                // wind down outside the clock.
                let mut b = GraphBuilder::new();
                let c: [_; 4] = std::array::from_fn(|_| b.channel());
                b.add(0, "Sequence", &(0i64, Some(0u64)), &[], &[c[0]])
                    .expect("add");
                b.add(0, "Scale", &3i64, &[c[0]], &[c[1]]).expect("add");
                b.add(1, "Scale", &5i64, &[c[1]], &[c[2]]).expect("add");
                b.add(1, "Scale", &7i64, &[c[2]], &[c[3]]).expect("add");
                b.claim_reader(c[3]).expect("claim");
                let start = Instant::now();
                let mut dep = b
                    .deploy(cluster.client(), cluster.handles())
                    .expect("deploy");
                took += start.elapsed();
                let mut r = DataReader::new(dep.readers.remove(&c[3]).expect("reader"));
                assert!(r.read_i64().is_err(), "empty pipeline produced a token");
                drop(r);
                dep.join().expect("join");
            }
            took
        },
    );
}

/// The no-op task of `parallel.null_task_us`: the §5.2 framework with the
/// work taken out.
#[derive(Serialize, Deserialize)]
struct NullTask(u64);

impl WorkTask for NullTask {
    fn run(self: Box<Self>, _env: &TaskEnv) -> kpn_core::Result<TaskEnvelope> {
        TaskEnvelope::pack("bench.NullResult", &self.0)
    }
}

/// `parallel.null_task_us`: Producer → MetaDynamic (two Workers) → Consumer
/// in one process, per task.
fn parallel(t: &mut Timer) {
    let mut registry = TaskTypeRegistry::new();
    registry.register::<NullTask>("bench.NullTask");
    let registry = registry.into_shared();
    t.rung("parallel.null_task_us", "us", 1.0, |iters| {
        let net = Network::new();
        let (task_w, task_r) = net.channel();
        let (res_w, res_r) = net.channel();
        let mut next = 0u64;
        net.add(Producer::new(
            move || {
                next += 1;
                (next <= iters)
                    .then(|| TaskEnvelope::pack("bench.NullTask", &NullTask(next)))
                    .transpose()
            },
            task_w,
        ));
        meta_dynamic(&net, registry.clone(), &[1.0, 1.0], task_r, res_w);
        let seen = Arc::new(Mutex::new(0u64));
        let count = seen.clone();
        net.add(Consumer::new(res_r, move |_env: TaskEnvelope| {
            *count.lock().expect("lock") += 1;
            Ok(true)
        }));
        let start = Instant::now();
        net.run().expect("null-task network");
        let took = start.elapsed();
        assert_eq!(*seen.lock().expect("lock"), iters, "tasks lost");
        took
    });
}

/// `bignum.*`: one §5.2 task's arithmetic, and the modpow it rides on.
fn bignum(t: &mut Timer, seed: u64) {
    let key = workloads::weak_key(1 << 20, seed);
    let span = 2 * workloads::FACTOR_BATCH;
    t.rung("bignum.search_task_us", "us", 1.0, |iters| {
        let start = Instant::now();
        for i in 0..iters {
            black_box(search_range(&key.n, i * span, (i + 1) * span));
        }
        start.elapsed()
    });
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBE7C4);
    let base = BigUint::random_bits(workloads::FACTOR_BITS, &mut rng);
    let exp = BigUint::random_bits(workloads::FACTOR_BITS, &mut rng);
    t.rung("bignum.modpow_512_us", "us", 1.0, |iters| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(base.modpow(&exp, &key.p));
        }
        start.elapsed()
    });
}

/// `oracle.<workload>.items_per_s`: the single-threaded reference that
/// checks each workload's output — the no-framework baseline the workload
/// is a multiple of.
fn oracles(t: &mut Timer, seed: u64) {
    let rate = |t: &mut Timer, name: &str, items: f64, mut once: Box<dyn FnMut()>| {
        let rates: Vec<f64> = (0..t.samples)
            .map(|_| {
                let start = Instant::now();
                let mut runs = 0u64;
                while start.elapsed() < t.sample {
                    once();
                    runs += 1;
                }
                runs as f64 * items / start.elapsed().as_secs_f64()
            })
            .collect();
        t.push(&format!("oracle.{name}.items_per_s"), "items/s", &rates);
    };
    const N: u64 = 1 << 20;
    let start = (seed % 1_000_003) as i64;
    for name in ["scale_pipeline_local", "scale_pipeline_2node"] {
        rate(
            t,
            name,
            N as f64,
            Box::new(move || {
                let sum = (0..N).fold(0i64, |acc, i| {
                    acc.wrapping_add(black_box(start + i as i64) * 3 * 5 * 7)
                });
                black_box(sum);
            }),
        );
    }
    for name in ["relay_local", "relay_2node"] {
        rate(
            t,
            name,
            N as f64,
            Box::new(move || {
                let same = (0..N).filter(|&i| black_box(start + i as i64) == start + i as i64);
                black_box(same.count());
            }),
        );
    }
    let key = workloads::weak_key(1 << 20, seed);
    let span = 2 * workloads::FACTOR_BATCH;
    let mut next = 0u64;
    rate(
        t,
        "factor_2node",
        256.0,
        Box::new(move || {
            for _ in 0..256 {
                black_box(search_range(&key.n, next * span, (next + 1) * span));
                next += 1;
            }
        }),
    );
    let graph = workloads::gossip_graph().expect("grid");
    let inputs = workloads::gossip_inputs(seed);
    const ROUNDS: u64 = 8;
    let items = (graph.n() as u64 * ROUNDS) as f64;
    rate(
        t,
        "dist_gossip",
        items,
        Box::new(move || {
            black_box(simulate::<GossipMax>(&graph, &inputs, ROUNDS).expect("simulate"));
        }),
    );
}
