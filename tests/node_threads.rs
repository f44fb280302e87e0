//! A node is one executor. Its accept loop, its control sessions and the
//! watchdog of the resilient sinks its sessions connect are tasks of that
//! executor, not threads beside it: on a pool, a node serving open control
//! sessions, closing resilient sinks and a silent peer runs on the pool's
//! workers alone, and an idle node's workers sleep until woken instead of
//! ticking. Run it under each executor (`KPN_EXEC=thread`, `pooled:N`).
//! One test per file: the counts are process-wide.

#![cfg(target_os = "linux")]

use kpn::core::{DataReader, ExecMode, NetworkConfig};
use kpn::net::{
    ChannelSpec, ControlRequest, GraphSpec, NetProfile, Node, OutputSpec, ProcessRegistry,
    ProcessSpec, ReconnectPolicy, ServerHandle, TaskRegistry, TcpFactory,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SESSIONS: usize = 8;
const SINKS: u64 = 32;
const TOKENS: i64 = 5;

/// Every thread of the process: its id, its name, and the context switches
/// it has made (voluntary and not).
fn threads() -> HashMap<String, (String, u64)> {
    let mut all = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let path = task.unwrap().path();
        let read = |file| std::fs::read_to_string(path.join(file)).unwrap_or_default();
        let switches = read("status")
            .lines()
            .filter(|l| l.contains("ctxt_switches"))
            .filter_map(|l| l.split_whitespace().last()?.parse::<u64>().ok())
            .sum();
        let tid = path.file_name().unwrap().to_string_lossy().into_owned();
        all.insert(tid, (read("comm").trim().to_string(), switches));
    }
    all
}

/// The node's pool size, or `None` when every task is a thread.
fn pool_workers() -> Option<usize> {
    match NetworkConfig::default().mode {
        ExecMode::Pooled { workers: 0 } => {
            Some(std::thread::available_parallelism().map_or(1, |n| n.get()))
        }
        ExecMode::Pooled { workers } => Some(workers),
        _ => None,
    }
}

/// A control session that stays open: the tag, one answered ping, and no
/// more requests.
fn open_session(node: &Node) -> TcpStream {
    let mut s = TcpStream::connect(node.addr()).unwrap();
    let ping = kpn::codec::to_bytes(&ControlRequest::Ping).unwrap();
    s.write_all(b"C").unwrap();
    s.write_all(&(ping.len() as u32).to_be_bytes()).unwrap();
    s.write_all(&ping).unwrap();
    let mut len = [0u8; 4];
    s.read_exact(&mut len).unwrap();
    s.read_exact(&mut vec![0u8; u32::from_be_bytes(len) as usize])
        .unwrap();
    s
}

#[test]
fn a_node_runs_its_helpers_as_tasks_of_its_executor() {
    let baseline = threads();
    let profile = NetProfile::new(Arc::new(TcpFactory), ReconnectPolicy::resilient());
    let (processes, tasks) = (ProcessRegistry::with_defaults(), TaskRegistry::new());
    let node = Node::serve_full("127.0.0.1:0", processes, tasks, profile).unwrap();
    let handle = ServerHandle::new(node.addr().to_string());
    handle.ping().unwrap();

    // Idle: no graph, no session. The node's threads sleep until woken.
    std::thread::sleep(Duration::from_millis(100));
    let node_switches = |now: &HashMap<String, (String, u64)>| -> u64 {
        let theirs = now.iter().filter(|(tid, _)| !baseline.contains_key(*tid));
        theirs.map(|(_, (_, switches))| switches).sum()
    };
    let before = node_switches(&threads());
    std::thread::sleep(Duration::from_millis(500));
    let woke = node_switches(&threads()) - before;
    assert!(
        woke < 10,
        "an idle node's threads woke {woke} times in 500 ms"
    );

    // Busy: open sessions, closing resilient sinks, a silent peer.
    let sessions: Vec<TcpStream> = (0..SESSIONS).map(|_| open_session(&node)).collect();
    let token = |i: u64| 0x7A5C_0000 + i;
    let readers: Vec<_> = (0..SINKS).map(|i| node.remote_reader(token(i))).collect();
    let writer = |i: u64| ProcessSpec {
        type_name: "Sequence".into(),
        params: kpn::codec::to_bytes(&(i as i64 * 100, Some(TOKENS as u64))).unwrap(),
        inputs: vec![],
        outputs: vec![OutputSpec::Remote {
            addr: node.addr().to_string(),
            token: token(i),
        }],
    };
    let spec = GraphSpec {
        channels: Vec::<ChannelSpec>::new(),
        processes: (0..SINKS).map(writer).collect(),
    };
    // Shipped over a control session, so the sinks connect on the node.
    handle.run_graph(spec).unwrap();
    handle.wait_idle().unwrap();
    let _silent = TcpStream::connect(node.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(200));

    let extra: Vec<String> = threads()
        .into_iter()
        .filter(|(tid, _)| !baseline.contains_key(tid))
        .map(|(_, (name, _))| name)
        .collect();
    for helper in ["kpn-acceptor", "kpn-control", "kpn-sink-pump"] {
        assert!(
            !extra.iter().any(|name| name.starts_with(helper)),
            "a {helper} thread runs: {extra:?}"
        );
    }
    if let Some(workers) = pool_workers() {
        assert!(
            extra.iter().all(|name| name == "kpn-pool-worker") && extra.len() <= workers,
            "a node on a {workers}-worker pool runs {extra:?}"
        );
    }

    // Every sink's history arrives whole once its reader reads.
    for (i, reader) in readers.into_iter().enumerate() {
        let mut input = DataReader::new(reader);
        let got: Vec<i64> = (0..TOKENS).map(|_| input.read_i64().unwrap()).collect();
        let want: Vec<i64> = (0..TOKENS).map(|t| i as i64 * 100 + t).collect();
        assert_eq!(got, want, "reader {i}");
        assert!(input.read_i64().is_err(), "reader {i} read past the Close");
    }
    drop(sessions);
    drop(node);
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads().len() > baseline.len() {
        assert!(
            Instant::now() < deadline,
            "a dropped node left threads over a baseline of {}: {:?}",
            baseline.len(),
            threads().values().map(|(name, _)| name).collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
