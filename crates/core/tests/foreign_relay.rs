//! A foreign client of a local relay: `Identity -> Identity`, driven by the
//! calling thread through two `declare_external` endpoints, one token in
//! flight at a time. Between the client's calls both processes wait on
//! empty channels — every process of the network is blocked reading — and
//! that is a deadlock only if the client is stuck as well. The monitor
//! knows which: a wait on a channel whose far side is `External` counts
//! only while the thread that drives that side is itself blocked.
//!
//! Run under `KPN_EXEC=thread|pooled:N`; the executor is the network's
//! default. The 10 M round-trip run is `--ignored` (a few minutes on two
//! vCPUs).

use kpn_core::stdlib::Identity;
use kpn_core::{DataReader, DataWriter, Error, MonitorStats, Network};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// The relay, started, with the client's two ends.
fn relay() -> (Network, DataWriter, DataReader) {
    let net = Network::new();
    let (w_in, r_in) = net.channel();
    let (w_mid, r_mid) = net.channel();
    let (w_back, r_back) = net.channel();
    net.add(Identity::new(r_in, w_mid));
    net.add(Identity::new(r_mid, w_back));
    w_in.declare_external();
    r_back.declare_external();
    net.start();
    (net, DataWriter::new(w_in), DataReader::new(r_back))
}

/// Three threads that spin until dropped, so the client and the relay's
/// processes are descheduled at arbitrary points between and inside their
/// channel calls. Loops that `yield_cpu` still take every idle cycle but
/// let a woken thread run at once: a loop that never yields keeps it off
/// the CPU until the next scheduler tick, milliseconds that measure the
/// operating system rather than the runtime.
struct BusyLoops(Arc<AtomicBool>, Vec<JoinHandle<()>>);

fn busy_loops(yield_cpu: bool) -> BusyLoops {
    let stop = Arc::new(AtomicBool::new(false));
    let threads = (0..3)
        .map(|_| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if yield_cpu {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            })
        })
        .collect();
    BusyLoops(stop, threads)
}

impl Drop for BusyLoops {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
        for t in self.1.drain(..) {
            t.join().unwrap();
        }
    }
}

/// `n` round trips beside `load`; returns the monitor's counters and every
/// round trip's duration in nanoseconds, sorted.
fn round_trips(n: u64, load: BusyLoops) -> (MonitorStats, Vec<u64>) {
    let (net, mut w, mut r) = relay();
    let mut took = Vec::with_capacity(n as usize);
    for i in 0..n as i64 {
        let start = Instant::now();
        w.write_i64(i).unwrap();
        assert_eq!(r.read_i64().unwrap(), i, "round trip {i}");
        took.push(start.elapsed().as_nanos() as u64);
    }
    drop((w, load));
    assert!(matches!(r.read_i64(), Err(Error::Eof)));
    let report = net.join().expect("no verdict while the client runs");
    took.sort_unstable();
    (report.monitor, took)
}

#[test]
fn a_running_foreign_client_is_never_a_deadlock() {
    let (stats, _) = round_trips(100_000, busy_loops(false));
    assert_eq!(stats.capacity_grows, 0, "{:?}", stats.growth_log);
    assert_eq!(stats.true_deadlocks, 0);
}

#[test]
#[ignore = "10 M round trips: a few minutes"]
fn ten_million_round_trips_without_a_verdict_or_a_stall() {
    let (stats, took) = round_trips(10_000_000, busy_loops(true));
    assert_eq!(stats.capacity_grows, 0, "{:?}", stats.growth_log);
    assert_eq!(stats.true_deadlocks, 0);
    let quantile = |q: f64| took[((took.len() - 1) as f64 * q) as usize];
    let (p50, p999) = (quantile(0.5), quantile(0.999));
    eprintln!("round trip p50 {p50} ns, p99.9 {p999} ns");
    assert!(p999 < 10 * p50, "p99.9 {p999} ns against p50 {p50} ns");
}

#[test]
fn a_client_that_reads_before_it_writes_is_a_true_deadlock() {
    // The client waits for a reply to a request it never sent: it is
    // blocked, so the processes waiting on it are too.
    let (net, w, mut r) = relay();
    assert!(matches!(r.read_i64(), Err(Error::Deadlocked)));
    drop((w, r));
    assert!(matches!(net.join(), Err(Error::Deadlocked)));
    assert_eq!(net.monitor().stats().true_deadlocks, 1);
}
