//! Steal/park/unpark stress for the pooled executor's work-stealing
//! scheduler. These tests exist to be run under ThreadSanitizer (the CI
//! `tsan` job includes this file): they hammer exactly the lock-free edges
//! of the scheduler — hot-slot handoff, deque steals, the Dekker
//! sleep/wake handshake, and foreign-thread unparks — where a missing
//! fence shows up as a data race or a lost wakeup, not as a failed
//! assertion in calm tests.

use kpn::core::{Exec, PooledExec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn wait_until(secs: u64, what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Rings of fibers passing a token by park/unpark, across enough keys and
/// workers that unparks constantly land on foreign workers' queues and
/// idle workers steal mid-handoff.
#[test]
fn park_unpark_rings_under_contention() {
    const RINGS: usize = 8;
    const HOPS: usize = 500;
    let ex = PooledExec::new(4);
    let done = Arc::new(AtomicUsize::new(0));
    for ring in 0..RINGS {
        // Two fibers per ring alternate on a shared counter: each waits
        // for the counter to reach its parity, bumps it, wakes the peer.
        let key = 0x9000 + ring * 0x40;
        let counter = Arc::new(AtomicUsize::new(0));
        for side in 0..2usize {
            let (e, c, d) = (ex.clone(), counter.clone(), done.clone());
            ex.spawn(
                &format!("ring{ring}-{side}"),
                Box::new(move || {
                    loop {
                        let mut v = c.load(Ordering::SeqCst);
                        while v < HOPS && v % 2 != side {
                            let token = e.park_token(key);
                            v = c.load(Ordering::SeqCst);
                            if v >= HOPS || v % 2 == side {
                                break;
                            }
                            e.park(key, token, None).unwrap();
                            v = c.load(Ordering::SeqCst);
                        }
                        if v >= HOPS {
                            break;
                        }
                        c.fetch_add(1, Ordering::SeqCst);
                        e.unpark_all(key);
                    }
                    e.unpark_all(key); // release a peer parked on the final hop
                    d.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
    }
    wait_until(60, "all rings complete", || {
        done.load(Ordering::SeqCst) == RINGS * 2
    });
    ex.shutdown();
}

/// Foreign threads (not pool workers) unparking pooled fibers force the
/// injector path and its producer-side Dekker check, racing the workers'
/// rescan-then-sleep consumer side.
#[test]
fn foreign_thread_unparks_race_worker_sleep() {
    const FIBERS: usize = 16;
    const ROUNDS: usize = 200;
    let ex = PooledExec::new(2);
    let done = Arc::new(AtomicUsize::new(0));
    let go = Arc::new(AtomicUsize::new(0));
    for i in 0..FIBERS {
        let key = 0xA000 + i * 0x20;
        let (e, d, g) = (ex.clone(), done.clone(), go.clone());
        ex.spawn(
            &format!("sleeper{i}"),
            Box::new(move || {
                for round in 1..=ROUNDS {
                    while g.load(Ordering::SeqCst) < round {
                        let token = e.park_token(key);
                        if g.load(Ordering::SeqCst) >= round {
                            break;
                        }
                        e.park(key, token, None).unwrap();
                    }
                }
                d.fetch_add(1, Ordering::SeqCst);
            }),
        );
    }
    let waker = {
        let ex = ex.clone();
        let done = done.clone();
        let go = go.clone();
        std::thread::spawn(move || {
            for round in 1..=ROUNDS {
                go.store(round, Ordering::SeqCst);
                for i in 0..FIBERS {
                    ex.unpark_all(0xA000 + i * 0x20);
                }
                if done.load(Ordering::SeqCst) == FIBERS {
                    return;
                }
                std::thread::yield_now();
            }
            // Keep waking until everyone has observed the final round:
            // unpark_all is cheap and the generation protocol makes
            // re-wakes harmless.
            while done.load(Ordering::SeqCst) < FIBERS {
                for i in 0..FIBERS {
                    ex.unpark_all(0xA000 + i * 0x20);
                }
                std::thread::yield_now();
            }
        })
    };
    wait_until(60, "all sleepers finish every round", || {
        done.load(Ordering::SeqCst) == FIBERS
    });
    waker.join().unwrap();
    ex.shutdown();
}
