//! A local channel's wait, end to end on every executor that runs in real
//! time: one lock before the park and one after it, the registration with
//! the monitor ended only once the bytes have moved and the channel's lock
//! is released. A write that blocks more than once in one call must end
//! each registration, handing back the count its wake took, before it waits
//! again; and a wait that a close or a poison ends must leave the monitor's
//! blocked set as a wake would.

use kpn::core::{exec, Error, ExecMode, Network, NetworkConfig};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn modes() -> [(&'static str, ExecMode); 3] {
    [
        ("thread", ExecMode::Thread),
        ("pooled:1", ExecMode::Pooled { workers: 1 }),
        ("pooled:2", ExecMode::Pooled { workers: 2 }),
    ]
}

fn network(mode: ExecMode) -> Network {
    Network::with_config(NetworkConfig {
        mode,
        ..NetworkConfig::default()
    })
}

/// No process of `net` is registered as blocked.
fn assert_none_blocked(net: &Network, what: &str) {
    let snap = net.monitor().snapshot();
    assert_eq!(
        (snap.blocked_reads, snap.blocked_writes),
        (0, 0),
        "{what}: registrations left behind"
    );
}

/// Waits until `net`'s monitor counts `reads` processes blocked reading.
fn await_blocked_reads(net: &Network, reads: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while net.monitor().snapshot().blocked_reads < reads {
        assert!(Instant::now() < deadline, "{what}: the reader never parked");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn one_write_that_blocks_many_times_delivers_every_byte() {
    // 64 bytes through a channel of 8, drained 4 bytes a millisecond: the
    // one `write_all` fills the buffer and waits for room again and again.
    // A sleeping reader is not blocked, so the monitor never grows the
    // channel under it. Then each process waits for the other on a channel
    // of its own: a true deadlock, which the monitor sees only if every
    // count the write's wakes took was handed back.
    let payload: Vec<u8> = (0..64).collect();
    for (name, mode) in modes() {
        let net = network(mode);
        let (mut w, mut r) = net.channel_with_capacity(8);
        let (mut to_writer, mut writer_waits) = net.channel();
        let (mut to_reader, mut reader_waits) = net.channel();
        let (wrote_tx, wrote) = mpsc::channel();
        let (read_tx, read) = mpsc::channel();
        let sent = payload.clone();
        net.add_fn("writer", move |_| {
            let _ = wrote_tx.send(w.write_all(&sent));
            writer_waits.read(&mut [0u8; 1])?;
            to_reader.write_all(&[1])
        });
        net.add_fn("reader", move |_| {
            let mut got = vec![0u8; 64];
            for chunk in got.chunks_mut(4) {
                exec::sleep(Duration::from_millis(1));
                r.read_exact(chunk)?;
            }
            let _ = read_tx.send(got);
            reader_waits.read(&mut [0u8; 1])?;
            to_writer.write_all(&[1])
        });
        let (ran_tx, ran) = mpsc::channel();
        let stats = std::thread::scope(|s| {
            s.spawn(|| {
                let _ = ran_tx.send(net.run().map(|_| ()));
            });
            let outcome = ran.recv_timeout(Duration::from_secs(20));
            if outcome.is_err() {
                // Unstick the run so the scope can end, then fail.
                net.abort();
                panic!("{name}: the monitor missed the deadlock");
            }
            assert!(
                matches!(outcome.unwrap(), Err(Error::Deadlocked)),
                "{name}: the run ended other than in a true deadlock"
            );
            net.channel_report()
        });
        match wrote.recv().unwrap() {
            Ok(()) => {}
            Err(e) => panic!("{name}: the write failed: {e}"),
        }
        assert_eq!(
            read.recv().unwrap(),
            payload,
            "{name}: bytes lost or reordered"
        );
        let (_, stats) = stats.first().expect("the first channel");
        assert_eq!(stats.capacity, 8, "{name}: the channel was grown");
        assert!(
            stats.write_blocks >= 4,
            "{name}: the write blocked {} times, want several",
            stats.write_blocks
        );
        assert_none_blocked(&net, name);
    }
}

/// A reader parked on an empty channel whose writer the test's thread
/// holds, released by `release`; returns what its read returned.
fn released_reader(
    mode: ExecMode,
    name: &str,
    release: impl FnOnce(&Network, kpn::core::ChannelWriter),
) -> kpn::core::Result<usize> {
    let net = network(mode);
    let (w, mut r) = net.channel_with_capacity(8);
    // Driven from outside the network, so the lone waiting reader is not
    // taken for a deadlock while the test's thread holds its writer.
    w.declare_external();
    let (tx, rx) = mpsc::channel();
    net.add_fn("reader", move |_| {
        let _ = tx.send(r.read(&mut [0u8; 8]));
        Ok(())
    });
    net.start();
    await_blocked_reads(&net, 1, name);
    release(&net, w);
    let got = rx
        .recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("{name}: the reader was not released"));
    assert_none_blocked(&net, name);
    let _ = net.join();
    assert_none_blocked(&net, name);
    got
}

#[test]
fn a_reader_released_by_close_reads_the_end() {
    for (name, mode) in modes() {
        let got = released_reader(mode, name, |_, w| drop(w));
        assert!(matches!(got, Ok(0)), "{name}: {got:?}");
    }
}

#[test]
fn a_reader_released_by_poison_is_deadlocked() {
    for (name, mode) in modes() {
        let mut writer = None;
        let got = released_reader(mode, name, |net, w| {
            // Kept open: only the poison may end the wait.
            writer = Some(w);
            net.abort();
        });
        assert!(matches!(got, Err(Error::Deadlocked)), "{name}: {got:?}");
        drop(writer);
    }
}
