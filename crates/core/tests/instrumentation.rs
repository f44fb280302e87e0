//! Tests for the channel observability layer: per-channel I/O counters and
//! the monitor's growth log (the raw material for the buffer-management
//! analysis of §3.5/§6.2).

use kpn_core::graphs::{hamming, mod_merge_dag, GraphOptions};
use kpn_core::stdlib::{Collect, Scale, Sequence};
use kpn_core::Network;
use std::sync::{Arc, Mutex};

#[test]
fn byte_counts_match_traffic() {
    let net = Network::new();
    let (aw, ar) = net.channel();
    let (bw, br) = net.channel();
    let out = Arc::new(Mutex::new(Vec::new()));
    net.add(Sequence::new(0, 1000, aw));
    net.add(Scale::new(2, ar, bw));
    net.add(Collect::new(br, out.clone()));
    net.run().unwrap();
    // The report covers dropped channels: snapshot after completion.
    let report = net.channel_report();
    // Both channels carried 1000 i64s = 8000 bytes.
    assert_eq!(report.len(), 2);
    for (_id, stats) in &report {
        assert_eq!(stats.bytes_written, 8000, "{stats:?}");
        assert!(stats.peak_occupancy <= stats.capacity);
        assert!(stats.peak_occupancy > 0);
    }
}

#[test]
fn blocking_counters_reflect_backpressure() {
    // A tiny channel between a fast producer and a consumer forces many
    // write blocks; the consumer side blocks when the buffer runs dry.
    let net = Network::new();
    let (aw, ar) = net.channel_with_capacity(16);
    let out = Arc::new(Mutex::new(Vec::new()));
    net.add(Sequence::new(0, 2000, aw));
    net.add(Collect::new(ar, out.clone()));
    net.run().unwrap();
    let report = net.channel_report();
    let (_, stats) = &report[0];
    assert!(
        stats.write_blocks > 10,
        "2000 i64s through 16 bytes must block the writer often: {stats:?}"
    );
}

#[test]
fn growth_log_records_hamming_buffer_demand() {
    let net = Network::new();
    let opts = GraphOptions {
        channel_capacity: 16,
        ..Default::default()
    };
    let out = hamming(&net, 200, &opts);
    let report = net.run().unwrap();
    assert_eq!(out.lock().unwrap().len(), 200);
    // Every log entry doubles a capacity, starting from the initial 16.
    assert_eq!(
        report.monitor.capacity_grows as usize,
        report.monitor.growth_log.len()
    );
    assert!(!report.monitor.growth_log.is_empty());
    for (_chan, old, new) in &report.monitor.growth_log {
        assert_eq!(*new, old * 2, "growth doubles");
        assert!(*old >= 16);
    }
}

#[test]
fn growth_log_identifies_the_starved_channel() {
    // Figure 13: only the undersized "others" branch should need growth.
    let net = Network::new();
    let _out = mod_merge_dag(&net, 10, 200, 8);
    let report = net.run().unwrap();
    assert!(!report.monitor.growth_log.is_empty());
    let grown_channels: std::collections::HashSet<u64> = report
        .monitor
        .growth_log
        .iter()
        .map(|(c, _, _)| *c)
        .collect();
    assert_eq!(
        grown_channels.len(),
        1,
        "exactly one channel (the starved branch) grows: {:?}",
        report.monitor.growth_log
    );
    // It grew from the deliberately tiny 8-byte capacity.
    assert_eq!(report.monitor.growth_log[0].1, 8);
}

#[test]
fn reports_and_snapshots_never_freeze_a_network_that_drops_channels() {
    // A report or snapshot upgrades the table's weak handles; a channel whose
    // endpoints are dropped meanwhile is then kept alive by that temporary
    // handle alone, and its drop re-enters the monitor to leave the table.
    // Dropping the handle under the monitor's lock froze both threads, and
    // with them every task that blocks or wakes. Both loops must keep
    // advancing for three seconds.
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Duration;
    let net = Network::new();
    let stop = Arc::new(AtomicBool::new(false));
    let looks = Arc::new(AtomicU64::new(0));
    let pairs = Arc::new(AtomicU64::new(0));
    let reporter = {
        let (net, stop, looks) = (net.clone(), stop.clone(), looks.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let report = net.channel_report();
                let snapshot = net.topology_snapshot();
                assert!(report.windows(2).all(|w| w[0].0 < w[1].0));
                assert!(snapshot.channels.windows(2).all(|w| w[0].id < w[1].id));
                looks.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    let churner = {
        let (net, stop, pairs) = (net.clone(), stop.clone(), pairs.clone());
        std::thread::spawn(move || {
            // A few channels stay live so that a report always has handles
            // in hand; the oldest is dropped for each new one. Dropped
            // channels stay in the report, so the churn is paced to keep
            // the three seconds' worth small.
            let mut live = std::collections::VecDeque::new();
            while !stop.load(Ordering::Relaxed) {
                live.push_back(net.channel_with_capacity(8));
                if live.len() > 8 {
                    live.pop_front();
                }
                if pairs.fetch_add(1, Ordering::Relaxed) % 16 == 15 {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        })
    };
    let mut seen = (0, 0);
    for window in 0..12 {
        std::thread::sleep(Duration::from_millis(250));
        let now = (looks.load(Ordering::Relaxed), pairs.load(Ordering::Relaxed));
        assert!(
            now.0 > seen.0 && now.1 > seen.1,
            "frozen in window {window}: {seen:?} -> {now:?} (reports, channel pairs)"
        );
        seen = now;
    }
    stop.store(true, Ordering::Relaxed);
    reporter.join().unwrap();
    churner.join().unwrap();
}
