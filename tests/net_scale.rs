//! Remote-wait scale soak: a blocked remote channel on the pooled
//! executor costs a parked fiber, not an OS thread — with nothing
//! configured, because the wait mechanism follows the caller (`rio`). The
//! first test opens over a thousand loopback remote channels, blocks a
//! reader fiber on every one of them simultaneously, and asserts the
//! process's OS thread count never rises above `workers + small constant`
//! (a thread per blocked read would grow it linearly). The second covers
//! the lazy switch: endpoints created and connected on the main thread,
//! then moved into the processes of a pooled network, must park just the
//! same — and the pool must run on exactly its configured workers before,
//! during and after.
//!
//! Linux x86_64 only (real fibers and the reactor, not Miri).

#![cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]

use kpn::core::{
    DataReader, DataWriter, Exec, LintLevel, Network, NetworkConfig, PooledExec, SchedulerStats,
};
use kpn::net::{remote_reader, remote_writer, Acceptor};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Live OS threads in this process (main + test harness included).
fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

fn wait_until(secs: u64, what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn thousand_blocked_remote_reads_stay_on_the_worker_pool() {
    const CHANNELS: usize = 1100; // acceptance floor is 1k concurrent blocks
    const WORKERS: usize = 2;
    const SLACK: usize = 4;

    let acceptor = Acceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().to_string();

    // Baseline AFTER the acceptor (its accept loop is one thread) but
    // BEFORE the pool: the bound is baseline + workers + slack.
    let baseline = os_threads();
    let ex = PooledExec::new(WORKERS);

    let done = Arc::new(AtomicUsize::new(0));
    for i in 0..CHANNELS {
        let (acceptor, d) = (acceptor.clone(), done.clone());
        ex.spawn(
            &format!("rd{i}"),
            Box::new(move || {
                let mut r = DataReader::new(remote_reader(&acceptor, 0x5CA1E000 + i as u64));
                assert_eq!(r.read_i64().unwrap(), i as i64);
                d.fetch_add(1, Ordering::SeqCst);
            }),
        );
    }

    // Connect one writer per channel but send nothing yet: every reader
    // fiber adopts its connection, attempts the framed read, gets
    // WouldBlock, and parks on the reactor. Sample the thread count the
    // whole way — this connect storm is exactly when a thread-per-wait
    // design balloons.
    let mut peak = os_threads();
    let mut writers = Vec::with_capacity(CHANNELS);
    for i in 0..CHANNELS {
        writers.push(DataWriter::new(
            remote_writer(&addr, 0x5CA1E000 + i as u64).unwrap(),
        ));
        peak = peak.max(os_threads());
    }

    // Wait until every reader fd is registered with the reactor (i.e.
    // every reader has adopted its connection and parked on readiness),
    // still sampling.
    wait_until(120, "every reader fd registered with the reactor", || {
        peak = peak.max(os_threads());
        let registered = ex
            .scheduler_stats()
            .and_then(|s| s.reactor)
            .map_or(0, |r| r.current_registered);
        registered >= CHANNELS
    });
    // Dwell with all channels blocked at once, still sampling.
    for _ in 0..50 {
        peak = peak.max(os_threads());
        std::thread::sleep(Duration::from_millis(1));
    }

    assert!(
        peak <= baseline + WORKERS + SLACK,
        "peak {peak} threads with {CHANNELS} blocked remote reads \
         (baseline {baseline} + {WORKERS} workers + {SLACK} slack exceeded)"
    );

    // Release every channel and let the run complete.
    for (i, w) in writers.iter_mut().enumerate() {
        w.write_i64(i as i64).unwrap();
        w.flush().unwrap();
    }
    wait_until(120, "every reader completes", || {
        done.load(Ordering::SeqCst) == CHANNELS
    });
    drop(writers);
    ex.shutdown();
}

#[test]
fn main_thread_endpoints_park_in_a_pooled_network_on_fixed_workers() {
    const READERS: usize = 64;
    // More blocked writers than workers: if a blocked write pinned its
    // worker, the pool would wedge before everyone got to block.
    const WRITERS: usize = 4;
    const WORKERS: usize = 2;
    const SLACK: usize = 2;

    let acceptor = Acceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().to_string();

    // Every endpoint is created — and every sink connected — right here
    // on the main thread, while its fd is an ordinary blocking socket.
    let mut readers = Vec::new();
    let mut feeders = Vec::new();
    for i in 0..READERS {
        let token = 0x1A2E_0000 + i as u64;
        readers.push(remote_reader(&acceptor, token));
        feeders.push(DataWriter::new(remote_writer(&addr, token).unwrap()));
    }
    let mut sinks = Vec::new();
    let mut drains = Vec::new();
    for i in 0..WRITERS {
        let token = 0x1A2E_1000 + i as u64;
        drains.push(remote_reader(&acceptor, token));
        sinks.push(remote_writer(&addr, token).unwrap());
    }

    let baseline = os_threads();
    let net = Network::with_config(NetworkConfig {
        lint: LintLevel::Off, // the endpoints are remote: nothing local to lint
        ..NetworkConfig::default().workers(WORKERS)
    });
    let stop = Arc::new(AtomicBool::new(false));
    for (i, r) in readers.into_iter().enumerate() {
        net.add_fn(format!("rd{i}"), move |_| {
            assert_eq!(DataReader::new(r).read_i64()?, i as i64);
            Ok(())
        });
    }
    for (i, mut w) in sinks.into_iter().enumerate() {
        let stop = stop.clone();
        net.add_fn(format!("wr{i}"), move |_| {
            // Nobody drains yet: this fills the socket buffers and blocks.
            let chunk = [0x5Au8; 64 * 1024];
            while !stop.load(Ordering::SeqCst) {
                w.write_all(&chunk)?;
            }
            Ok(())
        });
    }
    let sched = || -> SchedulerStats {
        net.monitor()
            .stats()
            .scheduler
            .expect("pooled network has scheduler stats")
    };
    let assert_fixed_workers = |when: &str| {
        let s = sched();
        assert_eq!(s.target_workers, WORKERS);
        assert_eq!(
            s.current_workers, s.target_workers,
            "{when}: the pool must run on exactly its configured workers"
        );
    };

    net.start();
    assert_fixed_workers("before anything blocks");

    // Blocked at once: every reader fd and every writer fd is attached to
    // the pool's reactor only when its fiber actually had to wait.
    let mut peak = os_threads();
    wait_until(120, "all 68 endpoints parked on the reactor", || {
        peak = peak.max(os_threads());
        sched().reactor.map_or(0, |r| r.current_registered) >= READERS + WRITERS
    });
    for _ in 0..50 {
        peak = peak.max(os_threads());
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_fixed_workers("with every endpoint blocked");
    assert!(
        peak <= baseline + WORKERS + SLACK,
        "peak {peak} threads with {READERS} blocked reads + {WRITERS} blocked writes \
         (baseline {baseline} + {WORKERS} workers + {SLACK} slack exceeded)"
    );

    // Release: feed every reader, then drain every writer to its Close.
    for (i, w) in feeders.iter_mut().enumerate() {
        w.write_i64(i as i64).unwrap();
        w.flush().unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    let mut buf = vec![0u8; 64 * 1024];
    for mut d in drains {
        while d.read(&mut buf).unwrap() > 0 {}
    }
    net.join().unwrap();
    assert_fixed_workers("after the run");
    assert!(os_threads() <= baseline + WORKERS + SLACK);
}
