//! # kpn-net — distributed process networks (§4)
//!
//! Extends the `kpn-core` runtime from one machine to many:
//!
//! * [`Acceptor`] — one TCP port per node, dispatching data connections
//!   (by endpoint token) and control sessions;
//! * [`RemoteSink`]/[`RemoteSource`] — channel transports over sockets
//!   that preserve blocking semantics, backpressure, and the §3.4
//!   termination cascade across machines, plus the **redirect protocol**
//!   of §4.3 keeping communication decentralized when endpoints migrate
//!   twice (Figure 15);
//! * [`Node`] — the generic compute server of §4.1 (`run(Runnable)` /
//!   `run(Task)` analogues over a framed control protocol) and/or the
//!   deploying client;
//! * [`ProcessRegistry`]/[`GraphSpec`] — the Java-serialization
//!   substitute: subgraphs travel as process descriptions reconstructed
//!   through a registry of factories;
//! * [`GraphBuilder`] — whole-graph construction with partition
//!   assignment; `deploy` cuts channels at partition boundaries and
//!   triggers the automatic connection establishment of §4.2 (Figure 14).
//!   The cut, and the check of what makes a [`GraphSpec`] well formed
//!   ([`GraphSpec::defects`]), each exist once, beside the type.
//!
//! ```no_run
//! use kpn_net::{GraphBuilder, Node, ServerHandle};
//! use kpn_core::DataReader;
//!
//! let client = Node::serve("127.0.0.1:0").unwrap();
//! let server = ServerHandle::new("192.168.1.10:7000");
//! let mut b = GraphBuilder::new();
//! let ch = b.channel();
//! let out = b.channel();
//! b.add(0, "Sequence", &(0i64, Some(100u64)), &[], &[ch]).unwrap();
//! b.add(0, "Scale", &3i64, &[ch], &[out]).unwrap();
//! b.claim_reader(out).unwrap();
//! let mut dep = b.deploy(&client, &[server]).unwrap();
//! let mut r = DataReader::new(dep.readers.remove(&out).unwrap());
//! while let Ok(v) = r.read_i64() {
//!     println!("{v}");
//! }
//! ```

#![warn(missing_docs)]

mod acceptor;
mod builder;
pub mod chaos;
mod control;
mod frame;
mod link;
mod node;
mod probe;
mod registry;
mod remote;
mod rio;
mod spec;
pub mod transport;

pub use acceptor::Acceptor;
pub use builder::{ChanId, Deployment, GraphBuilder, CLIENT};
pub use control::{ControlRequest, ControlResponse, ServerHandle};
pub use node::{Node, TaskFactory, TaskRegistry};
pub use probe::{probe_deployment, ClusterProbe, CutEnd, CutSide, NetworkStatus, NodeStatus};
pub use registry::{decode_params, Factory, ProcessRegistry};
pub use remote::{
    remote_reader, remote_reader_interruptible, remote_writer, remote_writer_interruptible,
    Interruptor, RemoteSink, RemoteSource,
};
pub use spec::{ChannelSpec, GraphSpec, InputSpec, OutputSpec, ProcessSpec, SpecDefect};
pub use transport::{
    recovery_stats, FaultKind, FaultPlan, FaultProfile, FaultyFactory, FaultyTransport, NetProfile,
    ReconnectPolicy, TcpFactory, Transport, TransportFactory,
};
