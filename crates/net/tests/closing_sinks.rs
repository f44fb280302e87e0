//! A resilient sink owns no thread of its own. Closing one sends its
//! `Close` marker and leaves the sink to its profile's watchdog, one task
//! on the executor that connected the profile's first sink, which shuts
//! the socket once the reader has acknowledged the marker: 32 closed sinks
//! whose readers have not read yet cost that one task, not a thread each
//! (no `kpn-sink*` thread at all), and a fault-free close never
//! reconnects. One test per file: the thread count is process-wide. Run it
//! under each executor (`KPN_EXEC=thread`, `KPN_EXEC=pooled:2`).

#![cfg(target_os = "linux")]

use kpn_core::{ChannelWriter, DataReader, DataWriter, Network};
use kpn_net::{
    recovery_stats, remote_reader, Acceptor, NetProfile, ReconnectPolicy, RemoteSink, TcpFactory,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SINKS: u64 = 32;
const TOKENS: i64 = 5;

fn threads() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

#[test]
fn closed_resilient_sinks_share_the_watchdog_thread() {
    let baseline = threads().len();
    let reconnects = recovery_stats().1;
    let profile = NetProfile::new(Arc::new(TcpFactory), ReconnectPolicy::resilient());
    let acceptor = Acceptor::bind_with("127.0.0.1:0", profile.clone()).unwrap();
    let addr = acceptor.local_addr().to_string();

    // The readers are registered but read nothing until every writer has
    // closed, so no `Close` marker is acknowledged before the network joins.
    let net = Network::new();
    let mut readers = Vec::new();
    for i in 0..SINKS {
        let token = 0xC105_E000 + i;
        readers.push(remote_reader(&acceptor, token));
        let (addr, profile) = (addr.clone(), profile.clone());
        net.add_fn(format!("writer{i}"), move |_| {
            let sink = RemoteSink::connect_with(&addr, token, profile)?;
            let mut out = DataWriter::new(ChannelWriter::from_sink(Box::new(sink)));
            for t in 0..TOKENS {
                out.write_i64(i as i64 * 100 + t)?;
            }
            Ok(())
        });
    }
    net.run().unwrap();
    drop(net);
    let helpers: Vec<String> = threads()
        .into_iter()
        .filter(|name| name.starts_with("kpn-sink"))
        .collect();
    assert!(
        helpers.len() <= 1,
        "{} sink threads: {helpers:?}",
        helpers.len()
    );

    for (i, reader) in readers.into_iter().enumerate() {
        let mut input = DataReader::new(reader);
        let got: Vec<i64> = (0..TOKENS).map(|_| input.read_i64().unwrap()).collect();
        let want: Vec<i64> = (0..TOKENS).map(|t| i as i64 * 100 + t).collect();
        assert_eq!(got, want, "reader {i}");
        assert!(input.read_i64().is_err(), "reader {i} read past the Close");
    }
    acceptor.close();
    drop(acceptor);

    // Thread exit is asynchronous to the ack that lets it happen.
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads().len() > baseline {
        assert!(
            Instant::now() < deadline,
            "threads left over a baseline of {baseline}: {:?}",
            threads()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        recovery_stats().1,
        reconnects,
        "a fault-free close reconnected"
    );
}
