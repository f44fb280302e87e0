//! Liveness of the pooled executor's wake rule: a worker that unparks one
//! fiber into its own empty hot slot wakes nobody, because it runs that
//! fiber next. When the waker then computes instead of switching out,
//! either a sleeper whose sleep is bounded (it went to sleep while another
//! worker ran a fiber) wakes within 1 ms and steals the fiber, or, with no
//! sleeper bounded, the waker made the fiber surplus and woke a sleeper for
//! it. These tests bound how long that takes and check that two computing
//! stages still overlap on two workers.
//!
//! Wall-clock bounds: the tests take one lock so they never share the
//! machine's CPUs with each other. Linux x86_64 only (real fibers).

#![cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]

use kpn::core::{exec, DataReader, DataWriter, Network, NetworkConfig, PooledExec};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Spins the calling fiber for `d` without a channel operation.
fn compute(d: Duration) {
    let until = Instant::now() + d;
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

fn two_worker_network() -> Network {
    Network::with_exec(NetworkConfig::default(), PooledExec::new(2))
}

#[test]
fn a_reader_woken_by_a_computing_writer_starts_within_20_ms() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    const ROUNDS: i64 = 4;
    let net = two_worker_network();
    let (w, r) = net.channel();
    let (tx, lags) = std::sync::mpsc::channel();
    let written = Arc::new(Mutex::new(Instant::now()));
    let at = written.clone();
    net.add_fn("waker", move |_| {
        let mut out = DataWriter::new(w);
        for i in 0..ROUNDS {
            exec::sleep(Duration::from_millis(5)); // the reader parks
            *at.lock().unwrap() = Instant::now();
            out.write_i64(i)?;
            out.flush()?;
            compute(Duration::from_millis(50));
        }
        Ok(())
    });
    net.add_fn("reader", move |_| {
        let mut input = DataReader::new(r);
        for i in 0..ROUNDS {
            assert_eq!(input.read_i64()?, i);
            let _ = tx.send(written.lock().unwrap().elapsed());
        }
        Ok(())
    });
    net.run().unwrap();
    let lags: Vec<Duration> = lags.iter().collect();
    assert_eq!(lags.len(), ROUNDS as usize);
    for lag in lags {
        assert!(
            lag < Duration::from_millis(20),
            "a reader started {lag:?} after its write"
        );
    }
}

#[test]
fn two_computing_stages_overlap_on_two_workers() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // Per item each stage computes 20 µs and 2 ms around its channel
    // operation. The consumer is parked on its first read when the
    // producer writes, so it starts in the producer's hot slot; from then
    // on the stages must overlap. A stage's total is the wall time its
    // computing took, so a host that lends the test less than two CPUs
    // stretches the bound with it.
    const ITEMS: i64 = 40;
    let (short, long) = (Duration::from_micros(20), Duration::from_millis(2));
    let timed = |d| {
        let t = Instant::now();
        compute(d);
        t.elapsed()
    };
    let net = two_worker_network();
    let (w, r) = net.channel();
    let (tx, totals) = std::sync::mpsc::channel();
    let tx2 = tx.clone();
    net.add_fn("producer", move |_| {
        exec::sleep(Duration::from_millis(5)); // the consumer parks
        let mut out = DataWriter::new(w);
        let mut total = Duration::ZERO;
        for i in 0..ITEMS {
            total += timed(short);
            out.write_i64(i)?;
            out.flush()?;
            total += timed(long);
        }
        let _ = tx.send(total);
        Ok(())
    });
    net.add_fn("consumer", move |_| {
        let mut input = DataReader::new(r);
        let mut total = Duration::ZERO;
        for i in 0..ITEMS {
            assert_eq!(input.read_i64()?, i);
            total += timed(short) + timed(long);
        }
        let _ = tx2.send(total);
        Ok(())
    });
    let start = Instant::now();
    net.run().unwrap();
    let took = start.elapsed();
    let stage = totals.iter().max().expect("both stages report");
    assert!(
        took.as_secs_f64() <= 1.5 * stage.as_secs_f64(),
        "two stages of {stage:?} each took {took:?}"
    );
}
