//! A streamed token takes almost no lock. On the `scale_pipeline_local`
//! graph every process writes through a buffered typed stream, so a token
//! is an append to its writer's private chunk, and a lock is taken only per
//! chunk (a publish, a read's pop) or per park. The chunk is reached under
//! its owner's claim word, not a mutex: before it was, `Sequence` and the
//! three `Scale`s took one lock per token each — 4.04 per token on a pool
//! and on threads.
//!
//! How often a stage parks depends on how fast its neighbours run, and a
//! park costs locks of its own: the parked side's second acquisition, and
//! the short chunk its writer then publishes to feed it. So the bound is on
//! locks per token once each park (a read or write block on one of the
//! pipeline's channels, as the monitor's channel report counts them) is
//! allowed `PER_PARK` locks. Parks are rare in a release build (0.005–0.02
//! per token); in a debug build on threads the client outruns the `Scale`s
//! and the pipeline parks up to 0.11 times per token.
//!
//! The vendored `parking_lot` counts every `Mutex::lock` and successful
//! `try_lock` in the process (its `count` feature, on for this package's
//! tests only), so this file holds one test: no other test's threads may
//! lock inside the counted window. The count includes what a pooled
//! worker's sleep takes while the pipeline runs, a few per millisecond at
//! most, which the bound allows for.

use kpn::core::stdlib::{Scale, Sequence};
use kpn::core::{DataReader, ExecMode, Network, NetworkConfig};
use std::time::Instant;

const WARM_UP: u64 = 10_000;
const COUNTED: u64 = 500_000;
const SCALES: [i64; 3] = [2, 3, 5];
/// Locks a park may take beyond the hop's own: the parked side's second
/// acquisition, the short publish that feeds it and the read that takes
/// it, and on a pool the worker filing the parked fiber. About 3.3 on
/// threads.
const PER_PARK: f64 = 4.0;

/// What the client counted in its window: lock acquisitions, parks on the
/// pipeline's channels, and milliseconds.
struct Window {
    locks: u64,
    parks: u64,
    ms: u64,
}

/// Parks on the calling process's network's channels so far.
fn parks() -> u64 {
    let monitor = kpn::core::exec::current_monitor().expect("a process of a network");
    let report = monitor.channel_report();
    report.iter().map(|(_, s)| s.read_blocks + s.write_blocks).sum()
}

/// Streams tokens through `Sequence → Scale ×3` on `mode` and counts a
/// window of them. The client is a process of the network: it counts from
/// inside the run, outside the window reads the monitor's channel report,
/// and checks every token it reads.
fn stream(mode: ExecMode) -> Window {
    let net = Network::with_config(NetworkConfig {
        mode,
        ..NetworkConfig::default()
    });
    let (w0, mut r) = net.channel();
    net.add(Sequence::new(0, WARM_UP + COUNTED, w0));
    for factor in SCALES {
        let (w, next) = net.channel();
        net.add(Scale::new(factor, r, w));
        r = next;
    }
    let (tx, counted) = std::sync::mpsc::channel();
    net.add_fn("client", move |_| {
        let mut r = DataReader::new(r);
        let scale: i64 = SCALES.iter().product();
        let mut expect = |v: i64| -> kpn::core::Result<()> {
            assert_eq!(r.read_i64()?, v * scale, "token {v} out of order");
            Ok(())
        };
        for v in 0..WARM_UP {
            expect(v as i64)?;
        }
        let parked = parks();
        let (before, start) = (parking_lot::lock_count(), Instant::now());
        for v in WARM_UP..WARM_UP + COUNTED {
            expect(v as i64)?;
        }
        let locks = parking_lot::lock_count() - before;
        let ms = start.elapsed().as_millis() as u64;
        let parks = parks() - parked;
        let _ = tx.send(Window { locks, parks, ms });
        Ok(())
    });
    net.run().unwrap();
    counted.recv().expect("the client counted")
}

#[test]
fn a_streamed_token_takes_no_lock_of_its_own() {
    // Per token the four writers append to their chunks without a lock;
    // what is left is per 4 KiB chunk (a publish and a read's pop per
    // hop) and per park: 0.038–0.077 locks per token in a release build,
    // 0.27–0.34 in a debug build on threads, and at most 0.025 on any
    // executor and build once parks are allowed for.
    const BUDGET: f64 = 0.25;
    let readings: Vec<_> = [
        ExecMode::Pooled { workers: 1 },
        ExecMode::Pooled { workers: 2 },
        ExecMode::Thread,
    ]
    .into_iter()
    .map(|mode| {
        let w = stream(mode.clone());
        let per = |n: u64| n as f64 / COUNTED as f64;
        eprintln!(
            "{mode:?}: {:.4} locks and {:.4} parks per token, {:.4} locks per token beyond \
             {PER_PARK} per park ({COUNTED} in {} ms)",
            per(w.locks),
            per(w.parks),
            per(w.locks) - PER_PARK * per(w.parks),
            w.ms
        );
        (mode, w)
    })
    .collect();
    for (mode, w) in readings {
        // A sleeping pooled worker takes a few locks per bounded nap (1 ms).
        let allowed = BUDGET * COUNTED as f64 + PER_PARK * w.parks as f64 + 4.0 * w.ms as f64;
        assert!(
            w.locks as f64 <= allowed,
            "{mode:?}: {} locks for {COUNTED} tokens and {} parks, want at most {BUDGET} per token \
             and {PER_PARK} per park",
            w.locks,
            w.parks
        );
    }
}
