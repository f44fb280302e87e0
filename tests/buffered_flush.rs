//! Regression tests for buffered typed streams and the rule that decides
//! when their private chunks become visible (see `kpn-core`'s crate docs,
//! "Buffering and flush semantics", and `kpn_core::flush`).
//!
//! The invariant under test: batching writes through a private buffer must
//! never change what a network computes or how the deadlock monitor
//! classifies a stall. The dangerous case is a token sitting in an
//! unflushed buffer while its owner waits for something — without
//! publish-before-wait, the consumer starves and the monitor sees a false
//! true deadlock (or grows the wrong channel). These tests pin that
//! behaviour at capacities small enough (≤ 64 bytes) to force constant
//! blocking and channel growth, and pin the step-boundary rule itself:
//! a chunk batches while its reader is busy, a waiting reader is fed
//! within one producer step, and a chunk never outgrows its channel.

use kpn::core::graphs::{
    first_primes, hamming, hamming_reference, primes_reference, GraphOptions,
};
use kpn::core::{
    channel_with_capacity, ChannelWriter, DataReader, DataWriter, Error, ExecMode, Iterative,
    Network, NetworkConfig, ProcessCtx, Result, SchedulePolicy, SimScheduler, Sink,
    DEFAULT_STREAM_BUFFER,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn opts(capacity: usize) -> GraphOptions {
    GraphOptions {
        channel_capacity: capacity,
        self_removing_cons: false,
    }
}

/// Hamming at tiny capacities: the feedback loops block on nearly every
/// write, so every blocking read must see the producer's flushed bytes.
#[test]
fn hamming_terminates_with_buffered_streams_at_tiny_capacities() {
    for capacity in [16, 32, 64] {
        let net = Network::new();
        let out = hamming(&net, 60, &opts(capacity));
        net.run().unwrap();
        assert_eq!(
            &*out.lock().unwrap(),
            &hamming_reference(60),
            "capacity {capacity}"
        );
    }
}

/// The self-reconfiguring sieve spawns new filter stages mid-run; each new
/// stage's `DataWriter` buffer must register with its own thread's flush
/// set, not its creator's.
#[test]
fn sieve_terminates_with_buffered_streams_at_tiny_capacities() {
    for capacity in [16, 64] {
        let net = Network::new();
        let out = first_primes(&net, 30, &opts(capacity));
        net.run().unwrap();
        let reference: Vec<i64> = primes_reference(200).into_iter().take(30).collect();
        assert_eq!(&*out.lock().unwrap(), &reference, "capacity {capacity}");
    }
}

/// A two-process ping-pong where each token is far smaller than the 4 KiB
/// stream buffer. Without flush-before-block, the first `write_i64` stays
/// private, both processes park on reads, and the network hangs (or is
/// misreported as truly deadlocked). With it, the exchange completes.
#[test]
fn buffered_ping_pong_does_not_false_deadlock() {
    let net = Network::new();
    let (aw, ar) = net.channel_with_capacity(64);
    let (bw, br) = net.channel_with_capacity(64);
    net.add_fn("ping", move |_| {
        let mut w = DataWriter::new(aw);
        let mut r = DataReader::new(br);
        for i in 0..1000i64 {
            w.write_i64(i)?; // buffered: invisible until a flush
            assert_eq!(r.read_i64()?, i * 2); // read must flush first
        }
        Ok(())
    });
    net.add_fn("pong", move |_| {
        let mut r = DataReader::new(ar);
        let mut w = DataWriter::new(bw);
        loop {
            let v = r.read_i64()?;
            w.write_i64(v * 2)?;
        }
    });
    net.run().unwrap();
}

/// Buffering must not mask a *genuine* deadlock: two processes each
/// read-waiting on the other still abort promptly, with all buffers empty
/// at the point the monitor inspects the network.
#[test]
fn true_deadlock_still_detected_under_buffered_streams() {
    let net = Network::new();
    let (aw, ar) = net.channel_with_capacity(64);
    let (bw, br) = net.channel_with_capacity(64);
    net.add_fn("p1", move |_| {
        let mut r = DataReader::new(br);
        let mut w = DataWriter::new(aw);
        loop {
            let v = r.read_i64()?;
            w.write_i64(v)?;
        }
    });
    net.add_fn("p2", move |_| {
        let mut r = DataReader::new(ar);
        let mut w = DataWriter::new(bw);
        loop {
            let v = r.read_i64()?;
            w.write_i64(v)?;
        }
    });
    let start = Instant::now();
    assert!(matches!(net.run(), Err(Error::Deadlocked)));
    assert!(start.elapsed() < Duration::from_secs(5));
}

/// Buffered and unbuffered endpoints produce byte-identical histories —
/// the Kahn determinacy argument for the batching layer, checked directly,
/// on every executor (when a chunk is published differs on each: the
/// reader-waiting flag is set and cleared on the park path).
#[test]
fn buffered_and_unbuffered_histories_agree() {
    fn run(buffered: bool, mode: ExecMode) -> Vec<i64> {
        let net = Network::with_config(NetworkConfig {
            mode,
            ..Default::default()
        });
        let (w, r) = net.channel_with_capacity(32);
        net.add_fn("src", move |_| {
            let mut dw = if buffered {
                DataWriter::new(w)
            } else {
                DataWriter::unbuffered(w)
            };
            for i in 0..500i64 {
                dw.write_i64(i * 3)?;
            }
            Ok(())
        });
        let out = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = out.clone();
        net.add_fn("dst", move |_| {
            let mut dr = if buffered {
                DataReader::new(r)
            } else {
                DataReader::unbuffered(r)
            };
            while let Ok(v) = dr.read_i64() {
                sink.lock().unwrap().push(v);
            }
            Ok(())
        });
        net.run().unwrap();
        let v = out.lock().unwrap().clone();
        v
    }
    let sim = || ExecMode::Sim(SimScheduler::new(SchedulePolicy::RandomWalk { seed: 7 }));
    let expect: Vec<i64> = (0..500).map(|i| i * 3).collect();
    for buffered in [true, false] {
        assert_eq!(run(buffered, ExecMode::Thread), expect, "thread");
        assert_eq!(run(buffered, ExecMode::Pooled { workers: 1 }), expect, "pooled:1");
        assert_eq!(run(buffered, ExecMode::Pooled { workers: 2 }), expect, "pooled:2");
        assert_eq!(run(buffered, sim()), expect, "sim");
    }
}

/// Mixed-size payloads across the buffer boundary: blocks larger than the
/// stream buffer bypass it, interleaved with small typed tokens, and the
/// reader reassembles everything in order.
#[test]
fn large_blocks_interleave_with_small_tokens() {
    let net = Network::new();
    let (w, r) = net.channel_with_capacity(64);
    let big: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
    let big_w = big.clone();
    net.add_fn("src", move |_| {
        let mut dw = DataWriter::new(w);
        for round in 0..5i64 {
            dw.write_i64(round)?;
            dw.write_block(&big_w)?;
        }
        Ok(())
    });
    net.add_fn("dst", move |_| {
        let mut dr = DataReader::new(r);
        for round in 0..5i64 {
            assert_eq!(dr.read_i64()?, round);
            assert_eq!(dr.read_block()?, big);
        }
        Ok(())
    });
    net.run().unwrap();
}

/// A transport that counts what reaches it and answers
/// [`Sink::reader_waiting`] with a fixed value.
struct CountingSink {
    transfers: Arc<AtomicUsize>,
    bytes: Arc<AtomicUsize>,
    reader_waiting: bool,
}

impl Sink for CountingSink {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        self.transfers.fetch_add(1, Ordering::SeqCst);
        self.bytes.fetch_add(buf.len(), Ordering::SeqCst);
        Ok(())
    }
    fn close(&mut self) {}
    fn reader_waiting(&self) -> bool {
        self.reader_waiting
    }
}

/// One `write_i64` per step, `limit` steps.
struct TokenPerStep {
    out: DataWriter,
    limit: u64,
    next: i64,
}

impl Iterative for TokenPerStep {
    fn limit(&self) -> Option<u64> {
        Some(self.limit)
    }
    fn step(&mut self, _ctx: &ProcessCtx) -> Result<()> {
        self.out.write_i64(self.next)?;
        self.next += 1;
        Ok(())
    }
}

/// The step boundary publishes a chunk only if its reader waits: with a
/// reader that never does, `N` one-token steps reach the transport as
/// `⌈8N / chunk⌉` transfers; with one that always does (the default, and
/// what a socket answers), as `N`.
#[test]
fn step_boundary_batches_unless_the_reader_waits() {
    const N: u64 = 1000;
    for (reader_waiting, expect) in [
        (false, (8 * N as usize).div_ceil(DEFAULT_STREAM_BUFFER)),
        (true, N as usize),
    ] {
        let (transfers, bytes) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let sink = CountingSink {
            transfers: transfers.clone(),
            bytes: bytes.clone(),
            reader_waiting,
        };
        let net = Network::new();
        net.add(TokenPerStep {
            out: DataWriter::new(ChannelWriter::from_sink(Box::new(sink))),
            limit: N,
            next: 0,
        });
        net.run().unwrap();
        assert_eq!(bytes.load(Ordering::SeqCst), 8 * N as usize);
        assert_eq!(
            transfers.load(Ordering::SeqCst),
            expect,
            "reader_waiting = {reader_waiting}"
        );
    }
}

/// The bound that replaces "visible at the end of the step": a reader
/// parked on a slow producer's output is fed at the producer's next step
/// boundary, so token `i` — written in step `i` — is in the reader's hands
/// before step `i + 2` is over. (It usually arrives during step `i + 1`,
/// as it did when every step flushed; the assertion allows the one extra
/// step the rule allows, which also leaves a whole step of slack for the
/// reader's wake-up.) Without the rule nothing would arrive before the
/// chunk fills or the producer ends.
#[test]
fn parked_reader_is_fed_within_one_producer_step() {
    const N: u64 = 25;
    const STEP: Duration = Duration::from_millis(20);
    struct Slow {
        inner: TokenPerStep,
        started: Arc<AtomicU64>,
    }
    impl Iterative for Slow {
        fn limit(&self) -> Option<u64> {
            self.inner.limit()
        }
        fn step(&mut self, ctx: &ProcessCtx) -> Result<()> {
            self.started.fetch_add(1, Ordering::SeqCst);
            self.inner.step(ctx)?;
            std::thread::sleep(STEP);
            Ok(())
        }
    }
    let started = Arc::new(AtomicU64::new(0));
    let net = Network::new();
    let (w, r) = net.channel();
    net.add(Slow {
        inner: TokenPerStep {
            out: DataWriter::new(w),
            limit: N,
            next: 0,
        },
        started: started.clone(),
    });
    net.start();
    let mut r = DataReader::new(r);
    for i in 0..N {
        assert_eq!(r.read_i64().unwrap(), i as i64);
        let begun = started.load(Ordering::SeqCst);
        assert!(
            begun <= i + 3,
            "token {i} arrived only after the producer began step {}",
            begun - 1
        );
    }
    assert!(matches!(r.read_i64(), Err(Error::Eof)));
    net.join().unwrap();
}

/// A task blocked *writing* publishes its other outputs first. The
/// producer's token for `a` sits in a private chunk while it fills `b`; the
/// consumer wants `a` first. Unpublished, that is an all-blocked network
/// the monitor can only resolve by growing `b` until the producer's whole
/// output fits.
#[test]
fn write_blocked_task_publishes_its_other_outputs() {
    let net = Network::new();
    let (aw, ar) = net.channel_with_capacity(64);
    let (bw, br) = net.channel_with_capacity(16);
    net.add_fn("producer", move |_| {
        let mut a = DataWriter::new(aw);
        let mut b = DataWriter::new(bw);
        a.write_i64(7)?;
        for i in 0..100i64 {
            b.write_i64(i)?;
        }
        Ok(())
    });
    net.add_fn("consumer", move |_| {
        let mut a = DataReader::new(ar);
        let mut b = DataReader::new(br);
        assert_eq!(a.read_i64()?, 7);
        for i in 0..100i64 {
            assert_eq!(b.read_i64()?, i);
        }
        Ok(())
    });
    let report = net.run().unwrap();
    assert_eq!(report.monitor.capacity_grows, 0);
}

/// The private chunk is never larger than the channel under it: five
/// tokens into a 32-byte channel make the first four visible with no flush
/// at all. (A flat 4 KiB chunk would hold all forty bytes, and a
/// `channel_with_capacity(32)` would silently be a 4 KiB channel.)
#[test]
fn private_chunk_never_exceeds_the_channel_capacity() {
    let (w, mut r) = channel_with_capacity(32);
    let mut w = DataWriter::new(w);
    for i in 0..5i64 {
        w.write_i64(i).unwrap();
    }
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut visible = [0u8; 32];
        r.read_exact(&mut visible).unwrap();
        tx.send(visible).unwrap();
        r
    });
    let visible = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the first 32 bytes overflowed the chunk into the channel");
    let expect: Vec<u8> = (0..4i64).flat_map(i64::to_be_bytes).collect();
    assert_eq!(&visible[..], &expect[..]);
    drop(reader.join().unwrap());
}
