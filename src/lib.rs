//! # rkpn — Distributed Kahn Process Networks in Rust
//!
//! Facade crate for the `rkpn` workspace, a reproduction of
//! *"Distributed Process Networks in Java"* (Parks, Roberts, Millman;
//! IPDPS/IPPS workshop, 2003).
//!
//! The workspace crates, re-exported here:
//!
//! * [`core`] — channels with blocking reads and bounded blocking writes,
//!   process & network machinery, dynamic reconfiguration, cascading
//!   termination, and Parks' bounded-scheduling deadlock monitor.
//! * [`codec`] — a compact binary serde format, the Java Object
//!   Serialization analogue used for channel tokens and graph shipping.
//! * [`bignum`] — arbitrary-precision unsigned integers and primality
//!   testing for the parallel-factorization application.
//! * [`net`] — TCP channel transport, compute servers, graph migration with
//!   automatic connection establishment and the redirect protocol.
//! * [`parallel`] — the embarrassingly-parallel framework: `Task`,
//!   Producer/Worker/Consumer, `MetaStatic` and `MetaDynamic` schemas.
//! * [`cluster`] — the heterogeneous cluster model used by the paper's
//!   evaluation (CPU classes A–E, 34-CPU inventory, ideal speedup).
//! * [`sdf`] — synchronous dataflow, the statically-schedulable special
//!   case of process networks the paper references (§1): repetition
//!   vectors, periodic schedules, and exact buffer bounds (the analysis
//!   the lint's L005/L006 run, from [`core`]) executed on the KPN runtime.
//! * [`lint`] — the pre-deployment graph-spec checker behind the
//!   `kpn-lint` binary. The network lint itself, L001–L006, lives in
//!   [`core`] and runs whole on every network according to
//!   `NetworkConfig::lint` / the `KPN_LINT` environment variable.
//! * [`dist`] — distributed-algorithm workloads: round-synchronous
//!   execution of PN/LOCAL-model algorithms (bipartite maximal matching,
//!   vertex-cover 3-approximation, gossip) on generated or Graphviz-DOT
//!   topologies, with a lockstep reference simulator and the `kpn-dist`
//!   CLI (`gen` / `run` / `export`).
//!
//! ## Quickstart
//!
//! ```
//! use kpn::core::{Network, stdlib::{Sequence, Scale, Collect}};
//! use std::sync::{Arc, Mutex};
//!
//! let net = Network::new();
//! let (aw, ar) = net.channel();
//! let (bw, br) = net.channel();
//! let out = Arc::new(Mutex::new(Vec::new()));
//! net.add(Sequence::new(0, 10, aw));
//! net.add(Scale::new(3, ar, bw));
//! net.add(Collect::new(br, out.clone()));
//! net.run().unwrap();
//! assert_eq!(*out.lock().unwrap(), (0..10).map(|x| 3 * x).collect::<Vec<i64>>());
//! ```

pub use kpn_bignum as bignum;
pub use kpn_cluster as cluster;
pub use kpn_codec as codec;
pub use kpn_core as core;
pub use kpn_dist as dist;
pub use kpn_lint as lint;
pub use kpn_net as net;
pub use kpn_parallel as parallel;
pub use kpn_sdf as sdf;
