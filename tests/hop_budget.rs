//! A blocking hop takes a bounded number of locks. On the `relay_local`
//! graph every read blocks, so each round trip is three parks and three
//! wakes; a local hop keeps its waiter in the channel and counts itself
//! with the monitor in one atomic word, so it takes the channel's lock and
//! no lock shared by other channels — no wait-table bucket, no monitor
//! state — unless it completes an all-blocked picture, which a relay never
//! does.
//!
//! The vendored `parking_lot` counts every `Mutex::lock` and successful
//! `try_lock` in the process (its `count` feature, on for this package's
//! tests only), so this file holds one test: no other test's threads may
//! lock inside the counted window. The count includes what a pooled
//! worker's sleep takes while the relay runs, a few per millisecond at
//! most, which the bound allows for.

use kpn::core::stdlib::Identity;
use kpn::core::{DataReader, DataWriter, ExecMode, Network, NetworkConfig};
use std::time::Instant;

const WARM_UP: i64 = 100;
const COUNTED: i64 = 20_000;

/// Lock acquisitions per round trip of the `relay_local` graph on `mode`,
/// and the milliseconds the counted window took. The client is a process
/// of the network: it counts from inside the run.
fn locks_per_round_trip(mode: ExecMode) -> (f64, u64) {
    let net = Network::with_config(NetworkConfig {
        mode,
        ..NetworkConfig::default()
    });
    let (w_in, r_in) = net.channel();
    let (w_mid, r_mid) = net.channel();
    let (w_back, r_back) = net.channel();
    net.add(Identity::new(r_in, w_mid));
    net.add(Identity::new(r_mid, w_back));
    let (tx, counted) = std::sync::mpsc::channel();
    net.add_fn("client", move |_| {
        let (mut w, mut r) = (DataWriter::new(w_in), DataReader::new(r_back));
        let mut round_trip = |v: i64| -> kpn::core::Result<()> {
            w.write_i64(v)?;
            assert_eq!(r.read_i64()?, v);
            Ok(())
        };
        for v in 0..WARM_UP {
            round_trip(v)?;
        }
        let (before, start) = (parking_lot::lock_count(), Instant::now());
        for v in WARM_UP..WARM_UP + COUNTED {
            round_trip(v)?;
        }
        let locks = parking_lot::lock_count() - before;
        let _ = tx.send((locks, start.elapsed().as_millis() as u64));
        Ok(())
    });
    net.run().unwrap();
    let (locks, ms) = counted.recv().expect("the client counted");
    (locks as f64 / COUNTED as f64, ms)
}

#[test]
fn a_blocking_hop_takes_only_its_channels_lock() {
    // Per round trip the three blocking hops take their channels' locks —
    // the write's push, the read's wait and its pop, and on a pool the
    // worker filing the parked fiber: 14.15 on a pool, 10.4–11.0 on
    // threads. The buffered writers take none of their own: a chunk is
    // reached under a claim word, not a mutex. With that mutex a round
    // trip took 16.15 on a pool and 13.0 on threads; through a wait table
    // and the monitor's lock, as before the waiter moved into the channel,
    // 31.15 and 31.0.
    const BUDGET: f64 = 15.0;
    let readings: Vec<_> = [
        ExecMode::Pooled { workers: 1 },
        ExecMode::Pooled { workers: 2 },
        ExecMode::Thread,
    ]
    .into_iter()
    .map(|mode| {
        let (per, ms) = locks_per_round_trip(mode.clone());
        eprintln!("{mode:?}: {per:.3} locks per round trip ({COUNTED} in {ms} ms)");
        (mode, per, ms)
    })
    .collect();
    for (mode, per, ms) in readings {
        // A sleeping pooled worker takes a few locks per bounded nap (1 ms).
        let slack = 4.0 * ms as f64 / COUNTED as f64;
        assert!(
            per <= BUDGET + slack,
            "{mode:?}: {per:.3} locks per round trip, want at most {BUDGET}"
        );
    }
}
