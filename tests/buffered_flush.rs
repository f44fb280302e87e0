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
//! within one producer step, a reader that cannot be seen waits at most as
//! long again as the last publish took, and a chunk never outgrows its
//! channel.

use kpn::core::graphs::{
    first_primes, hamming, hamming_reference, primes_reference, GraphOptions,
};
use kpn::core::{
    channel_with_capacity, check_determinacy, run_sim, ChannelWriter, DataReader, DataWriter,
    Error, ExecMode, HistoryCheck, Iterative, Network, NetworkConfig, ProcessCtx, ReaderState,
    Result, SchedulePolicy, SimScheduler, Sink, DEFAULT_STREAM_BUFFER,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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

/// One `write_all` as a [`Transport`] saw it.
struct Transfer {
    bytes: usize,
    /// Steps the producer had begun when the transfer started.
    begun: u64,
    entered: Instant,
    left: Instant,
}

/// A transport that logs what reaches it, answers
/// [`Sink::reader_waiting`] with a fixed value, and takes as long over its
/// `n`-th transfer as `delay(n)` says.
struct Transport {
    log: Arc<Mutex<Vec<Transfer>>>,
    reader: ReaderState,
    delay: fn(usize) -> Duration,
    begun: Arc<AtomicU64>,
}

impl Transport {
    fn new(reader: ReaderState, delay: fn(usize) -> Duration) -> Self {
        Transport {
            log: Arc::default(),
            reader,
            delay,
            begun: Arc::default(),
        }
    }
}

impl Sink for Transport {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        let entered = Instant::now();
        let begun = self.begun.load(Ordering::SeqCst);
        let delay = (self.delay)(self.log.lock().unwrap().len());
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        self.log.lock().unwrap().push(Transfer {
            bytes: buf.len(),
            begun,
            entered,
            left: Instant::now(),
        });
        Ok(())
    }
    fn close(&mut self) {}
    fn reader_waiting(&self) -> ReaderState {
        self.reader
    }
}

/// One `write_i64` per step, `limit` steps, each `pace` long; counts the
/// steps it has begun.
struct TokenPerStep {
    out: DataWriter,
    limit: u64,
    next: i64,
    pace: Duration,
    begun: Arc<AtomicU64>,
}

impl TokenPerStep {
    fn new(out: ChannelWriter, limit: u64, pace: Duration, begun: Arc<AtomicU64>) -> Self {
        TokenPerStep {
            out: DataWriter::new(out),
            limit,
            next: 0,
            pace,
            begun,
        }
    }

    /// Writing into `transport`, which gets to see the step counter.
    fn into_transport(transport: Transport, limit: u64, pace: Duration) -> Self {
        let begun = transport.begun.clone();
        let out = ChannelWriter::from_sink(Box::new(transport));
        TokenPerStep::new(out, limit, pace, begun)
    }
}

impl Iterative for TokenPerStep {
    fn limit(&self) -> Option<u64> {
        Some(self.limit)
    }
    fn step(&mut self, _ctx: &ProcessCtx) -> Result<()> {
        self.begun.fetch_add(1, Ordering::SeqCst);
        self.out.write_i64(self.next)?;
        self.next += 1;
        if !self.pace.is_zero() {
            std::thread::sleep(self.pace);
        }
        Ok(())
    }
}

/// Fewest transfers `n` 8-byte tokens can take: the chunk fills.
fn full_chunks(n: u64) -> usize {
    (8 * n as usize).div_ceil(DEFAULT_STREAM_BUFFER)
}

/// The step boundary's three answers. `N` one-token steps reach a
/// transport whose reader waits as `N` transfers; one whose reader is busy
/// as `⌈8N / chunk⌉`; and one that cannot see its reader and takes 200 µs
/// over a transfer as a handful — each publish opens a window as long as
/// it took, and hundreds of near-empty steps fit in that — but never as
/// fewer than the chunk allows.
#[test]
fn step_boundary_batches_unless_the_reader_waits() {
    const N: u64 = 1000;
    let run = |reader: ReaderState, delay: fn(usize) -> Duration| {
        let transport = Transport::new(reader, delay);
        let log = transport.log.clone();
        let net = Network::new();
        net.add(TokenPerStep::into_transport(transport, N, Duration::ZERO));
        net.run().unwrap();
        let log = log.lock().unwrap();
        assert_eq!(log.iter().map(|t| t.bytes).sum::<usize>(), 8 * N as usize);
        log.len()
    };
    assert_eq!(run(ReaderState::Waiting, |_| Duration::ZERO), N as usize);
    assert_eq!(run(ReaderState::Busy, |_| Duration::ZERO), full_chunks(N));
    let unseen = run(ReaderState::Unseen, |_| Duration::from_micros(200));
    assert!(
        (full_chunks(N)..N as usize / 10).contains(&unseen),
        "{unseen} transfers for an unseen reader behind a 200 µs transport"
    );
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
    let begun = Arc::new(AtomicU64::new(0));
    let net = Network::new();
    let (w, r) = net.channel();
    net.add(TokenPerStep::new(
        w,
        N,
        Duration::from_millis(20),
        begun.clone(),
    ));
    net.start();
    let mut r = DataReader::new(r);
    for i in 0..N {
        assert_eq!(r.read_i64().unwrap(), i as i64);
        let begun = begun.load(Ordering::SeqCst);
        assert!(
            begun <= i + 3,
            "token {i} arrived only after the producer began step {}",
            begun - 1
        );
    }
    assert!(matches!(r.read_i64(), Err(Error::Eof)));
    net.join().unwrap();
}

/// The same bound for a reader nobody can see: steps longer than a publish
/// find its window closed at every boundary, so a transport with instant
/// writes under 2 ms steps gets every token in a transfer of its own, the
/// boundary after the step that wrote it — what a socket got when it was
/// flushed at every boundary.
#[test]
fn long_steps_publish_to_an_unseen_reader_every_time() {
    const N: u64 = 25;
    let transport = Transport::new(ReaderState::Unseen, |_| Duration::ZERO);
    let log = transport.log.clone();
    let net = Network::new();
    net.add(TokenPerStep::into_transport(
        transport,
        N,
        Duration::from_millis(2),
    ));
    net.run().unwrap();
    let log = log.lock().unwrap();
    assert_eq!(log.len(), N as usize, "one transfer per step");
    for (i, t) in log.iter().enumerate() {
        assert_eq!(t.bytes, 8);
        assert!(
            t.begun <= i as u64 + 3,
            "token {i} left only after step {} began",
            t.begun - 1
        );
    }
}

/// The doubling bound. One publish stalls for 50 ms (back-pressure); the
/// tokens of the 1 ms steps that follow stay private for as long as that
/// publish took and no longer, then leave in one transfer — the delay the
/// transport imposed is at most doubled — and that transfer having been
/// quick, every later token leaves at its own boundary again.
#[test]
fn an_unseen_reader_waits_at_most_as_long_again_as_the_last_publish_took() {
    const N: u64 = 150;
    const STALLED: usize = 4;
    const STEP: Duration = Duration::from_millis(1);
    let transport = Transport::new(ReaderState::Unseen, |n| {
        if n == STALLED {
            Duration::from_millis(50)
        } else {
            Duration::ZERO
        }
    });
    let log = transport.log.clone();
    let net = Network::new();
    net.add(TokenPerStep::into_transport(transport, N, STEP));
    net.run().unwrap();
    let log = log.lock().unwrap();
    assert_eq!(log.iter().map(|t| t.bytes).sum::<usize>(), 8 * N as usize);
    let (stalled, next) = (&log[STALLED], &log[STALLED + 1]);
    let took = stalled.left - stalled.entered;
    let private = next.entered - stalled.left;
    // The window is what the writer measured — a hair more than `took` —
    // and ends at a boundary, up to a step (and its sleep's overshoot) on.
    assert!(
        private <= took + 10 * STEP,
        "output stayed private for {private:?} after a publish that took {took:?}"
    );
    assert!(
        next.bytes >= 8 * 20,
        "the {}-byte transfer after the stall shows no batching: the window never opened",
        next.bytes
    );
    for (i, t) in log.iter().enumerate().skip(STALLED + 2) {
        assert!(
            t.bytes <= 16,
            "transfer {i}, after the quick one that followed the stall, carried {} bytes",
            t.bytes
        );
    }
}

/// Under the simulation logical time stands still while a task runs, so a
/// publish takes none and the window it opens is empty: the transport that
/// got a handful of transfers above gets one per step in every schedule,
/// whatever its `write_all` costs in wall-clock time, and the local
/// channel beside it carries the same history each time.
#[test]
fn an_unseen_reader_is_published_every_step_under_sim() {
    const N: u64 = 40;
    /// A step feeds an unseen transport and a 32-byte local channel, so
    /// the producer parks every few steps and schedules have room to differ.
    struct Both {
        remote: TokenPerStep,
        local: DataWriter,
    }
    impl Iterative for Both {
        fn limit(&self) -> Option<u64> {
            self.remote.limit()
        }
        fn step(&mut self, ctx: &ProcessCtx) -> Result<()> {
            self.local.write_i64(self.remote.next)?;
            self.remote.step(ctx)
        }
    }
    let explored = check_determinacy(
        (0..12).map(|seed| SchedulePolicy::RandomWalk { seed }),
        HistoryCheck::Exact,
        |policy| {
            let transport = Transport::new(ReaderState::Unseen, |_| Duration::from_micros(200));
            let log = transport.log.clone();
            let run = run_sim(policy, |net| {
                let (w, r) = net.channel_with_capacity(32);
                net.add(Both {
                    remote: TokenPerStep::into_transport(transport, N, Duration::ZERO),
                    local: DataWriter::new(w),
                });
                net.add_fn("drain", move |_| {
                    let mut r = DataReader::new(r);
                    while r.read_i64().is_ok() {}
                    Ok(())
                });
            })?;
            assert_eq!(log.lock().unwrap().len(), N as usize, "{}", run.trace);
            Ok(run)
        },
    )
    .unwrap();
    assert!(explored > 1, "only one schedule explored");
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
