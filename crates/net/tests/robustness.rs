//! Robustness of the node's network surface: garbage on the wire,
//! half-open control sessions, and late/duplicate connections must never
//! take the server down.

use kpn_core::DataReader;
use kpn_net::{
    ChannelSpec, GraphBuilder, GraphSpec, InputSpec, Node, OutputSpec, ProcessSpec, ServerHandle,
};
use std::io::Write;
use std::net::TcpStream;

fn server() -> (std::sync::Arc<Node>, ServerHandle) {
    let n = Node::serve("127.0.0.1:0").unwrap();
    let h = ServerHandle::new(n.addr().to_string());
    (n, h)
}

#[test]
fn garbage_connections_do_not_kill_the_server() {
    let (node, handle) = server();
    let addr = node.addr();

    // 1. Connect and immediately hang up.
    drop(TcpStream::connect(addr).unwrap());
    // 2. Unknown connection tag.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&[0xFFu8; 16]).unwrap();
    drop(s);
    // 3. Control tag followed by garbage framing.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&[0x43]).unwrap(); // CONTROL
    s.write_all(&[0xFF; 64]).unwrap();
    drop(s);
    // 4. Data tag with a truncated hello.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&[0x48, 0x01]).unwrap(); // HELLO + 1 of 8 token bytes
    drop(s);
    // 5. Control message with an absurd length prefix (must not OOM).
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&[0x43]).unwrap();
    s.write_all(&u32::MAX.to_be_bytes()).unwrap();
    drop(s);

    // The server still works.
    handle.ping().expect("server survived the garbage");
    let mut g = GraphBuilder::new();
    let a = g.channel();
    let b = g.channel();
    g.add(0, "Sequence", &(0i64, Some(5u64)), &[], &[a])
        .unwrap();
    g.add(0, "Scale", &2i64, &[a], &[b]).unwrap();
    g.claim_reader(b).unwrap();
    let client = Node::serve("127.0.0.1:0").unwrap();
    let mut dep = g.deploy(&client, &[handle]).unwrap();
    let mut r = DataReader::new(dep.readers.remove(&b).unwrap());
    for i in 0..5 {
        assert_eq!(r.read_i64().unwrap(), i * 2);
    }
    drop(r);
    dep.join().unwrap();
}

#[test]
fn duplicate_hello_token_is_parked_not_fatal() {
    // Two writers presenting the same token: the first is routed, the
    // second parks (and is dropped when the endpoint dies) — never a
    // crash, and the legitimate stream is unaffected.
    let (node, _h) = server();
    let token: u64 = rand::random();
    let mut reader = node.remote_reader(token);
    let mut w1 = kpn_net::remote_writer(&node.addr().to_string(), token).unwrap();
    let _w2 = kpn_net::remote_writer(&node.addr().to_string(), token).unwrap();
    w1.write_all(b"legit").unwrap();
    let mut buf = [0u8; 5];
    reader.read_exact(&mut buf).unwrap();
    assert_eq!(&buf, b"legit");
}

#[test]
fn run_task_with_wrong_params_reports_error() {
    use kpn_net::{ProcessRegistry, TaskRegistry};
    let mut tasks = TaskRegistry::new();
    tasks.register("double", |x: i64| Ok(x * 2));
    let node = Node::serve_with("127.0.0.1:0", ProcessRegistry::with_defaults(), tasks).unwrap();
    let handle = ServerHandle::new(node.addr().to_string());
    // Right call works.
    let ok: i64 = handle.run_task("double", &21i64).unwrap();
    assert_eq!(ok, 42);
    // Wrong parameter type: the server reports a decode error, then keeps
    // serving.
    let err = handle
        .run_task::<_, i64>("double", &"not a number".to_string())
        .unwrap_err();
    assert!(err.to_string().contains("error"), "{err}");
    let still: i64 = handle.run_task("double", &5i64).unwrap();
    assert_eq!(still, 10);
}

/// Three specs no builder would produce, as a hostile or buggy client could
/// send them, and what a node answers each with.
fn malformed_specs() -> Vec<(GraphSpec, &'static str)> {
    let process = |type_name: &str, inputs, outputs| ProcessSpec {
        type_name: type_name.into(),
        params: kpn_codec::to_bytes(&(0i64, Some(1u64))).unwrap(),
        inputs,
        outputs,
    };
    let one_channel = || vec![ChannelSpec { capacity: 64 }];
    vec![
        (
            // An index past the end of an empty channel list.
            GraphSpec {
                channels: vec![],
                processes: vec![process("Print", vec![InputSpec::Local(7)], vec![])],
            },
            "process 0: channel 7 reader missing or already taken",
        ),
        (
            // Two producers of one channel.
            GraphSpec {
                channels: one_channel(),
                processes: vec![
                    process("Sequence", vec![], vec![OutputSpec::Local(0)]),
                    process("Sequence", vec![], vec![OutputSpec::Local(0)]),
                    process("Print", vec![InputSpec::Local(0)], vec![]),
                ],
            },
            "process 1: channel 0 writer missing or already taken",
        ),
        (
            // A producer and nobody to read it.
            GraphSpec {
                channels: one_channel(),
                processes: vec![process("Sequence", vec![], vec![OutputSpec::Local(0)])],
            },
            "channel 0 is not fully connected",
        ),
    ]
}

#[test]
fn a_malformed_spec_is_an_error_on_either_road_into_the_node() {
    let (node, handle) = server();
    let (helper, _) = server();
    let helper = helper.addr().to_string();
    for (spec, why) in malformed_specs() {
        // `run_graph` answered the first two in these words before the node
        // had one check (and ran the third, to no purpose).
        let direct = handle.run_graph(spec.clone()).unwrap_err();
        assert!(
            matches!(&direct, kpn_core::Error::Graph(m) if m.contains(why)),
            "{direct}"
        );
        // `run_graph_redistributed` indexed its tables with the spec's own
        // numbers: the first spec killed the session's thread (the client
        // saw `Eof`), the second was run with one producer overwritten.
        let cut = handle
            .run_graph_redistributed(spec, &[&helper])
            .unwrap_err();
        assert!(
            matches!(&cut, kpn_core::Error::Graph(m) if m.contains(why)),
            "{cut}"
        );
    }

    // Nothing died: the same node answers, and runs a well-formed graph.
    handle.ping().unwrap();
    let mut g = GraphBuilder::new();
    let a = g.channel();
    g.add(0, "Sequence", &(0i64, Some(3u64)), &[], &[a])
        .unwrap();
    g.claim_reader(a).unwrap();
    let client = Node::serve("127.0.0.1:0").unwrap();
    let mut dep = g.deploy(&client, &[handle]).unwrap();
    let mut r = DataReader::new(dep.readers.remove(&a).unwrap());
    for i in 0..3 {
        assert_eq!(r.read_i64().unwrap(), i);
    }
    drop(r);
    dep.join().unwrap();
    drop(node);
}

#[test]
fn a_channel_no_allocator_can_supply_fails_the_deploy_not_the_node() {
    // A local channel of 9·10¹⁷ bytes inside the node's partition: the
    // node must refuse the graph it cannot build, not abort in the
    // allocator.
    let (node, handle) = server();
    let client = Node::serve("127.0.0.1:0").unwrap();
    let mut g = GraphBuilder::new();
    let huge = g.channel_with_capacity(900_000_000_000_000_000);
    let out = g.channel();
    g.add(0, "Sequence", &(0i64, Some(3u64)), &[], &[huge])
        .unwrap();
    g.add(0, "Identity", &(), &[huge], &[out]).unwrap();
    g.claim_reader(out).unwrap();
    let err = match g.deploy(&client, std::slice::from_ref(&handle)) {
        Err(e) => e,
        Ok(_) => panic!("a 9·10¹⁷-byte channel was deployed"),
    };
    assert!(
        matches!(&err, kpn_core::Error::Graph(m) if m.contains("900000000000000000")),
        "{err}"
    );

    // The node lives on: it answers, and deploys a well-formed graph.
    handle.ping().unwrap();
    let mut g = GraphBuilder::new();
    let a = g.channel();
    g.add(0, "Sequence", &(0i64, Some(3u64)), &[], &[a])
        .unwrap();
    g.claim_reader(a).unwrap();
    let mut dep = g.deploy(&client, &[handle]).unwrap();
    let mut r = DataReader::new(dep.readers.remove(&a).unwrap());
    for i in 0..3 {
        assert_eq!(r.read_i64().unwrap(), i);
    }
    drop(r);
    dep.join().unwrap();
    drop(node);
}
