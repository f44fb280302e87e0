//! Networks that share one executor — as every graph a node runs shares
//! its node's — keep their own deadlock-monitor ticks. The pool keeps no
//! clock for them: a remote wait ticks its own network's monitor on a
//! reactor timer, so a network whose verdict needs a tick (a write blocked
//! on a full local channel whose reader waits on a cut channel) is not
//! held up by another that streams on the same workers.
//!
//! Linux x86_64 only (real fibers and the reactor, not Miri).

#![cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]

use kpn::core::stdlib::{Discard, Sequence};
use kpn::core::{DataReader, DataWriter, Error, Exec, Network, NetworkConfig, PooledExec};
use kpn::net::{remote_reader, remote_writer, Acceptor};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOKENS: i64 = 64;

fn a_network_grows_while_another_streams_on_its_pool(workers: usize) {
    let pool: Arc<dyn Exec> = PooledExec::new(workers);
    let acceptor = Acceptor::bind("127.0.0.1:0").unwrap();
    let token = 0x5EA7_0000 + workers as u64;

    // Streams for as long as the test runs, and keeps the pool busy.
    let streaming = Network::with_exec(NetworkConfig::default(), pool.clone());
    let (w, r) = streaming.channel();
    streaming.add(Sequence::unbounded(0, w));
    streaming.add(Discard::new(r));
    streaming.start();

    // `reader` waits on the cut channel before it reads `small`, so
    // `writer` fills `small` and blocks: Parks' artificial deadlock, which
    // only a grown `small` resolves. With the cut channel's wait external,
    // the monitor grows it on a tick, not when the last process blocks.
    let stuck = Network::with_exec(NetworkConfig::default(), pool.clone());
    let (small_w, small_r) = stuck.channel_with_capacity(8);
    let cut = remote_reader(&acceptor, token);
    stuck.add_fn("writer", move |_| {
        let mut out = DataWriter::new(small_w);
        (0..TOKENS).try_for_each(|i| out.write_i64(i))
    });
    stuck.add_fn("reader", move |_| {
        let mut cut = DataReader::new(cut);
        assert!(matches!(cut.read_i64(), Err(Error::Eof)));
        let mut small = DataReader::new(small_r);
        for i in 0..TOKENS {
            assert_eq!(small.read_i64()?, i);
        }
        Ok(())
    });
    stuck.start();

    let start = Instant::now();
    while stuck.monitor().stats().capacity_grows == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "pooled:{workers}: no growth within 1 s beside a streaming network"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Closing the cut channel lets the reader drain `small`.
    drop(remote_writer(&acceptor.local_addr().to_string(), token).unwrap());
    stuck.join().unwrap();
    streaming.abort();
    assert!(matches!(streaming.join(), Err(Error::Deadlocked)));
    acceptor.close();
    pool.shutdown();
}

#[test]
fn a_network_grows_while_another_streams_on_one_worker() {
    a_network_grows_while_another_streams_on_its_pool(1);
}

#[test]
fn a_network_grows_while_another_streams_on_two_workers() {
    a_network_grows_while_another_streams_on_its_pool(2);
}
