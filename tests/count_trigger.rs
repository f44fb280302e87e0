//! The monitor's all-blocked trigger is the count change that completes
//! the picture: a local wait adds itself to one atomic word, and the
//! read-modify-write that brings the count of blocked processes up to the
//! live ones evaluates. These runs make the last event race: a wait that
//! is woken and blocks again, a reader's last wait, a writer's last wait
//! and a process that finishes, in whichever order each iteration's
//! timing gives. A missed trigger hangs the run; a false one aborts a
//! network that still moves, or grows a channel nobody needed grown.

use kpn::core::graphs::mod_merge_dag;
use kpn::core::{DeadlockPolicy, Error, ExecMode, Network, NetworkConfig, NetworkReport, Result};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const ITERATIONS: u64 = 200;

fn modes() -> [(&'static str, ExecMode); 2] {
    [
        ("thread", ExecMode::Thread),
        ("pooled:2", ExecMode::Pooled { workers: 2 }),
    ]
}

fn network(mode: ExecMode) -> Network {
    Network::with_config(NetworkConfig {
        mode,
        deadlock_policy: DeadlockPolicy::default(),
        synthesize_capacities: false,
        ..NetworkConfig::default()
    })
}

/// Runs `net` to its end, or fails if that takes longer than a missed
/// trigger would allow.
fn run_bounded(net: &Network, what: &str) -> Result<NetworkReport> {
    let (ran_tx, ran) = mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            let _ = ran_tx.send(net.run());
        });
        ran.recv_timeout(Duration::from_secs(20))
            .unwrap_or_else(|_| {
                // Unstick the run so the scope can end, then fail.
                net.abort();
                panic!("{what}: the monitor missed the all-blocked picture");
            })
    })
}

#[test]
fn a_true_deadlock_is_seen_whichever_event_completes_it() {
    // A writer sends 64 bytes through a one-byte channel to a reader, so
    // both block and are woken 64 times; then each waits for the other on
    // a channel of its own, a true deadlock. A third process spins for a
    // while and finishes, before, between or after those two last waits.
    const BYTES: u8 = 64;
    for (name, mode) in modes() {
        for i in 0..ITERATIONS {
            let what = format!("{name}, iteration {i}");
            let net = network(mode.clone());
            let (mut w, mut r) = net.channel_with_capacity(1);
            let (mut to_writer, mut writer_waits) = net.channel();
            let (mut to_reader, mut reader_waits) = net.channel();
            let (got_tx, got) = mpsc::channel();
            net.add_fn("writer", move |_| {
                w.write_all(&(0..BYTES).collect::<Vec<u8>>())?;
                writer_waits.read(&mut [0u8; 1])?;
                to_reader.write_all(&[1])
            });
            net.add_fn("reader", move |_| {
                let mut byte = [0u8; 1];
                for _ in 0..BYTES {
                    r.read_exact(&mut byte)?;
                    let _ = got_tx.send(byte[0]);
                }
                reader_waits.read(&mut byte)?;
                to_writer.write_all(&[1])
            });
            let spin = Duration::from_micros(i % 20 * 25);
            net.add_fn("finisher", move |_| {
                let start = Instant::now();
                while start.elapsed() < spin {
                    std::hint::spin_loop();
                }
                Ok(())
            });
            let ended = run_bounded(&net, &what);
            assert!(
                matches!(ended, Err(Error::Deadlocked)),
                "{what}: ended in {ended:?}, not a true deadlock"
            );
            let got: Vec<u8> = got.try_iter().collect();
            assert_eq!(
                got,
                (0..BYTES).collect::<Vec<_>>(),
                "{what}: aborted while moving"
            );
            let report = net.channel_report();
            assert_eq!(
                report[0].1.capacity, 1,
                "{what}: grown with nothing to grow"
            );
        }
    }
}

#[test]
fn an_artificial_deadlock_is_grown_from_the_count_path() {
    // Figure 13 with a one-byte channel on the busy branch: the router
    // needs nine values' room there before the merge can drain it, so the
    // run finishes only by growing that channel, step by step, each
    // growth decided on a picture some count change completed.
    const VALUES: u64 = 60;
    for (name, mode) in modes() {
        for i in 0..ITERATIONS {
            let what = format!("{name}, iteration {i}");
            let net = network(mode.clone());
            let out = mod_merge_dag(&net, 10, VALUES, 1);
            let report = run_bounded(&net, &what).unwrap_or_else(|e| panic!("{what}: {e}"));
            let want: Vec<i64> = (1..=VALUES as i64).collect();
            assert_eq!(*out.lock().unwrap(), want, "{what}");
            let grows = report.monitor.capacity_grows;
            assert!(
                grows >= 7,
                "{what}: {grows} growths cannot make room for nine values"
            );
            assert_eq!(report.monitor.true_deadlocks, 0, "{what}");
        }
    }
}
