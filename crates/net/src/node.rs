//! A participating node: generic compute server (§4.1) and/or deploying
//! client. One [`Node`] owns one executor, one [`Acceptor`] (data +
//! control), a [`ProcessRegistry`], a task registry, and the networks it
//! has been asked to run. The executor is built once, from
//! [`NetworkConfig::default`]'s mode, and everything the node does runs on
//! it as a task: the accept loop, each control session, every network it
//! instantiates, and the watchdog of the resilient sinks its sessions
//! connect. The acceptor's [`NetProfile`] is the node's one source of
//! transport configuration: it wraps the data connections the node accepts
//! and every one it opens, from [`Node::instantiate`], [`Node::remote_writer`]
//! and so [`GraphBuilder::deploy`](crate::GraphBuilder::deploy).
//!
//! "The entire implementation can be contained in a single jar file that
//! is less than 8K bytes" — our equivalent is [`Node::serve`], a few lines
//! that bind a port and answer control requests; see the `kpn-server`
//! example binary.
//!
//! A spec arrives off a socket, so nothing here indexes by its numbers
//! until [`GraphSpec::defects`] has been asked: [`Node::instantiate`]
//! refuses a malformed spec before it builds a channel, and
//! [`Node::redistribute`] is the round-robin assignment and the shipping
//! around the one cut in [`crate::spec`] (DESIGN.md §4d), which checks
//! first. Either way a malformed spec is a `ControlResponse::Err` to the
//! client that sent it, never a dead control session.

use crate::acceptor::{fresh_token, Acceptor};
use crate::control::ServerHandle;
use crate::control::{recv_msg, send_msg, ControlRequest, ControlResponse};
use crate::registry::ProcessRegistry;
use crate::remote::{
    remote_reader, remote_reader_interruptible, remote_writer_interruptible, Interruptor,
    RemoteSink,
};
use crate::spec::{GraphSpec, InputSpec, OutputSpec};
use crate::transport::NetProfile;
use kpn_core::{ChannelReader, ChannelWriter, Error, ExecMode, Network, NetworkConfig, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// Builds a task result from encoded parameters (the `Task.run()` of
/// §5.1, exposed over RMI-style control calls).
pub type TaskFactory = Box<dyn Fn(&[u8]) -> Result<Vec<u8>> + Send + Sync>;

/// Registry of named tasks for [`ControlRequest::RunTask`].
#[derive(Default)]
pub struct TaskRegistry {
    tasks: HashMap<String, TaskFactory>,
}

impl TaskRegistry {
    /// An empty task registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a typed task function.
    pub fn register<P, R, F>(&mut self, name: impl Into<String>, f: F)
    where
        P: serde::de::DeserializeOwned,
        R: serde::Serialize,
        F: Fn(P) -> Result<R> + Send + Sync + 'static,
    {
        self.tasks.insert(
            name.into(),
            Box::new(move |params| {
                let p: P = kpn_codec::from_bytes(params).map_err(Error::from)?;
                let r = f(p)?;
                kpn_codec::to_bytes(&r).map_err(Error::from)
            }),
        );
    }

    fn run(&self, name: &str, params: &[u8]) -> Result<Vec<u8>> {
        let f = self
            .tasks
            .get(name)
            .ok_or_else(|| Error::Graph(format!("unknown task type {name:?}")))?;
        f(params)
    }
}

/// A network a node runs, with the interruptors of the remote endpoints
/// [`Node::instantiate`] built for it — which are also its ends of the cut
/// channels, reported in [`ControlRequest::MonitorStatus`].
type Hosted = (Network, Arc<[Arc<Interruptor>]>);

/// One process-network node (client, server, or both).
pub struct Node {
    acceptor: Arc<Acceptor>,
    registry: Arc<ProcessRegistry>,
    tasks: Arc<TaskRegistry>,
    networks: Mutex<Vec<Hosted>>,
}

impl Node {
    /// Starts a node with the default registry, bound to `addr`
    /// (`"127.0.0.1:0"` picks an ephemeral port).
    pub fn serve(addr: &str) -> Result<Arc<Self>> {
        Self::serve_with(addr, ProcessRegistry::with_defaults(), TaskRegistry::new())
    }

    /// Starts a node with custom registries.
    pub fn serve_with(
        addr: &str,
        registry: ProcessRegistry,
        tasks: TaskRegistry,
    ) -> Result<Arc<Self>> {
        Self::serve_full(addr, registry, tasks, NetProfile::default())
    }

    /// Starts a node with custom registries and transport profile. The
    /// profile's factory wraps every data connection the node accepts or
    /// opens, and its reconnect policy governs every endpoint the node
    /// builds; a resilient channel needs the same policy at both ends, so
    /// nodes that share channels share a profile. This is how chaos tests
    /// inject seeded faults.
    pub fn serve_full(
        addr: &str,
        registry: ProcessRegistry,
        tasks: TaskRegistry,
        profile: NetProfile,
    ) -> Result<Arc<Self>> {
        let exec = NetworkConfig::default().mode.build();
        let acceptor = Acceptor::start(addr, profile, exec)?;
        let node = Arc::new(Node {
            acceptor: acceptor.clone(),
            registry: Arc::new(registry),
            tasks: Arc::new(tasks),
            networks: Mutex::new(Vec::new()),
        });
        let weak = Arc::downgrade(&node);
        acceptor.set_control_handler(Arc::new(move |stream| {
            if let Some(node) = weak.upgrade() {
                node.handle_control(stream);
            }
        }));
        Ok(node)
    }

    /// The node's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.local_addr()
    }

    /// The node's acceptor (for registering ad-hoc endpoints).
    pub fn acceptor(&self) -> &Arc<Acceptor> {
        &self.acceptor
    }

    /// The node's process registry.
    pub fn registry(&self) -> &Arc<ProcessRegistry> {
        &self.registry
    }

    /// Creates a read endpoint listening for `token` on this node.
    pub fn remote_reader(&self, token: u64) -> ChannelReader {
        remote_reader(&self.acceptor, token)
    }

    /// Creates a write endpoint connected to `addr` presenting `token`,
    /// under this node's profile.
    pub fn remote_writer(&self, addr: &str, token: u64) -> Result<ChannelWriter> {
        let sink = RemoteSink::connect_with(addr, token, self.acceptor.profile().clone())?;
        Ok(ChannelWriter::from_sink(Box::new(sink)))
    }

    /// Instantiates a partition locally and starts it. Returns the running
    /// [`Network`] (also tracked for [`Node::join_all`]). A spec that is not
    /// well formed ([`GraphSpec::defects`]) is refused before anything is
    /// built.
    pub fn instantiate(&self, spec: GraphSpec) -> Result<Network> {
        spec.well_formed()?;
        let net = Network::with_exec(NetworkConfig::default(), self.acceptor.exec.clone());
        // Remote endpoints register interruptors so a network abort can
        // wake threads blocked inside TCP reads/writes (which the local
        // deadlock monitor cannot poison), and so the node can report how
        // far each has got in its stream. Their waits register with the
        // monitor by themselves, from the processes that make them.
        let mut interruptors: Vec<Arc<Interruptor>> = Vec::new();
        // Build the partition-local channels; each endpoint is consumable
        // exactly once (channels are single-producer / single-consumer).
        let mut writers: Vec<Option<ChannelWriter>> = Vec::new();
        let mut readers: Vec<Option<ChannelReader>> = Vec::new();
        for ch in &spec.channels {
            let (w, r) = net.try_channel_with_capacity(ch.capacity)?;
            writers.push(Some(w));
            readers.push(Some(r));
        }
        const ONE_HOLDER: &str = "a well-formed spec names each channel end once";
        for p in &spec.processes {
            let ins = (p.inputs.iter()).map(|input| match input {
                InputSpec::Local(i) => readers[*i].take().expect(ONE_HOLDER),
                InputSpec::Remote { token } => {
                    let (reader, interruptor) = remote_reader_interruptible(&self.acceptor, *token);
                    interruptors.push(interruptor);
                    reader
                }
            });
            let ins = ins.collect();
            let outs = (p.outputs.iter()).map(|output| match output {
                OutputSpec::Local(i) => Ok(writers[*i].take().expect(ONE_HOLDER)),
                OutputSpec::Remote { addr, token } => {
                    let profile = self.acceptor.profile().clone();
                    let (writer, interruptor) = remote_writer_interruptible(addr, *token, profile)?;
                    interruptors.push(interruptor);
                    Ok(writer)
                }
            });
            let outs = outs.collect::<Result<_>>()?;
            let process = self.registry.build(&p.type_name, &p.params, ins, outs)?;
            net.add_process(process);
        }
        let endpoints: Arc<[Arc<Interruptor>]> = interruptors.into();
        if !endpoints.is_empty() {
            let hook = endpoints.clone();
            let interrupt_all = move || hook.iter().for_each(|i| i.interrupt());
            net.monitor().on_abort(Box::new(interrupt_all));
        }
        net.start();
        self.networks.lock().push((net.clone(), endpoints));
        Ok(net)
    }

    /// §4's decompose-and-redistribute: takes a whole graph partition and
    /// re-partitions it across this node and the given helper servers
    /// (round-robin by process) with the same cut a deployer uses
    /// (`GraphSpec::cut`): channels that end up spanning hosts get fresh
    /// endpoint tokens; endpoints that were already remote in the incoming
    /// spec keep their absolute addresses, so existing connections (e.g.
    /// back to the original client) are unaffected.
    pub fn redistribute(&self, spec: GraphSpec, helpers: &[ServerHandle]) -> Result<()> {
        if helpers.is_empty() {
            self.instantiate(spec)?;
            return Ok(());
        }
        let hosts = helpers.len() + 1; // self is host 0
        let addr_of_host = |h: usize| match h {
            0 => self.addr().to_string(),
            h => helpers[h - 1].addr().to_string(),
        };
        let (shares, _) = spec.cut(|pi| pi % hosts, addr_of_host, fresh_token)?;
        // Ship the helpers' shares, then run our own: process 0 is ours, so
        // ours is the first.
        let mut shares = shares.into_iter();
        let own = shares.next();
        for (h, share) in shares {
            helpers[h - 1].run_graph(share)?;
        }
        if let Some((_, own)) = own {
            self.instantiate(own)?;
        }
        Ok(())
    }

    /// Waits for every network shipped to this node to terminate.
    /// Networks stay registered afterwards so monitor-status requests can
    /// still inspect them.
    pub fn join_all(&self) -> Result<()> {
        // New networks may arrive while joining: the list is looked at
        // again after each join.
        for joined in 0.. {
            let next = self.networks.lock().get(joined).map(|(net, _)| net.clone());
            let Some(net) = next else { break };
            net.join()?;
        }
        Ok(())
    }

    /// Stops accepting connections.
    pub fn shutdown(&self) {
        self.acceptor.close();
    }

    /// True once a shutdown was requested (locally or via the control
    /// protocol).
    pub fn is_shut_down(&self) -> bool {
        self.acceptor.is_closed()
    }

    /// Runs a task as the one process of a network on the thread executor,
    /// and joins it: a task body is opaque and may take as long as it likes
    /// or block, so it holds a thread of its own and never a worker of the
    /// node's pool, while the session parks.
    fn run_task(&self, name: String, params: Vec<u8>) -> Result<Vec<u8>> {
        let net = Network::with_exec(NetworkConfig::default(), ExecMode::Thread.build());
        let (tasks, result) = (self.tasks.clone(), Arc::new(Mutex::new(None)));
        let slot = result.clone();
        net.add_fn("task", move |_| {
            *slot.lock() = Some(tasks.run(&name, &params));
            Ok(())
        });
        net.start();
        net.join()?;
        let ran = result.lock().take();
        ran.expect("a joined network has run its process")
    }

    fn handle_control(&self, stream: TcpStream) {
        let mut stream = crate::rio::wrap(stream);
        loop {
            let request: ControlRequest = match recv_msg(&mut stream) {
                Ok(r) => r,
                Err(_) => return, // client hung up
            };
            let done = |r: Result<()>| r.map(|()| ControlResponse::Ok);
            let response = match request {
                ControlRequest::Ping => Ok(ControlResponse::Pong),
                ControlRequest::RunGraph(spec) => done(self.instantiate(spec).map(drop)),
                ControlRequest::RunGraphRedistributed { spec, helpers } => {
                    let handles: Vec<ServerHandle> =
                        helpers.into_iter().map(ServerHandle::new).collect();
                    done(self.redistribute(spec, &handles))
                }
                ControlRequest::RunTask { type_name, params } => self
                    .run_task(type_name, params)
                    .map(ControlResponse::TaskResult),
                ControlRequest::WaitIdle => done(self.join_all()),
                ControlRequest::MonitorStatus => {
                    let statuses = self
                        .networks
                        .lock()
                        .iter()
                        .map(|(net, endpoints)| {
                            let snapshot = net.monitor().snapshot();
                            crate::probe::NetworkStatus::from_snapshot(&snapshot, endpoints)
                        })
                        .collect();
                    Ok(ControlResponse::MonitorStatus(statuses))
                }
                ControlRequest::AbortNetworks => {
                    for (net, _) in self.networks.lock().iter() {
                        net.abort();
                    }
                    Ok(ControlResponse::Ok)
                }
                ControlRequest::Shutdown => {
                    let _ = send_msg(&mut stream, &ControlResponse::Ok);
                    self.shutdown();
                    return;
                }
            };
            let response = response.unwrap_or_else(|e| ControlResponse::Err(e.to_string()));
            if send_msg(&mut stream, &response).is_err() {
                return;
            }
        }
    }
}

impl Drop for Node {
    /// A dropped node stops listening: the accept loop is poked awake,
    /// sees the closed flag and exits, dropping the listening socket with
    /// it. Data connections already handed to endpoints live on, and so do
    /// the networks the node runs: its executor retires once its last task
    /// has finished.
    fn drop(&mut self) {
        self.acceptor.close();
        self.acceptor.exec.shutdown();
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("addr", &self.addr())
            .field("networks", &self.networks.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ServerHandle;
    use crate::spec::{ChannelSpec, ProcessSpec};

    fn params<T: serde::Serialize>(v: &T) -> Vec<u8> {
        kpn_codec::to_bytes(v).unwrap()
    }

    #[test]
    fn ping_pong() {
        let node = Node::serve("127.0.0.1:0").unwrap();
        let handle = ServerHandle::new(node.addr().to_string());
        handle.ping().unwrap();
    }

    #[test]
    fn run_task_roundtrip() {
        let mut tasks = TaskRegistry::new();
        tasks.register("square", |x: i64| Ok(x * x));
        let node =
            Node::serve_with("127.0.0.1:0", ProcessRegistry::with_defaults(), tasks).unwrap();
        let handle = ServerHandle::new(node.addr().to_string());
        let r: i64 = handle.run_task("square", &12i64).unwrap();
        assert_eq!(r, 144);
        let err = handle.run_task::<_, i64>("nope", &1i64).unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn local_graph_spec_runs() {
        // Sequence -> Scale -> (result back to the "client" via a remote
        // endpoint on the same node, exercising the full loop).
        let node = Node::serve("127.0.0.1:0").unwrap();
        let token = 424242u64;
        let mut result = kpn_core::DataReader::new(node.remote_reader(token));
        let spec = GraphSpec {
            channels: vec![ChannelSpec { capacity: 1024 }],
            processes: vec![
                ProcessSpec {
                    type_name: "Sequence".into(),
                    params: params(&(1i64, Some(5u64))),
                    inputs: vec![],
                    outputs: vec![OutputSpec::Local(0)],
                },
                ProcessSpec {
                    type_name: "Scale".into(),
                    params: params(&10i64),
                    inputs: vec![InputSpec::Local(0)],
                    outputs: vec![OutputSpec::Remote {
                        addr: node.addr().to_string(),
                        token,
                    }],
                },
            ],
        };
        let handle = ServerHandle::new(node.addr().to_string());
        handle.run_graph(spec).unwrap();
        for expect in [10, 20, 30, 40, 50] {
            assert_eq!(result.read_i64().unwrap(), expect);
        }
        assert!(result.read_i64().is_err());
        handle.wait_idle().unwrap();
    }

    #[test]
    fn bad_spec_is_rejected() {
        let node = Node::serve("127.0.0.1:0").unwrap();
        let handle = ServerHandle::new(node.addr().to_string());
        let spec = GraphSpec {
            channels: vec![],
            processes: vec![ProcessSpec {
                type_name: "DoesNotExist".into(),
                params: vec![],
                inputs: vec![],
                outputs: vec![],
            }],
        };
        let err = handle.run_graph(spec).unwrap_err();
        assert!(err.to_string().contains("DoesNotExist"));
    }

    #[test]
    fn double_claim_of_channel_endpoint_is_rejected() {
        let node = Node::serve("127.0.0.1:0").unwrap();
        let spec = GraphSpec {
            channels: vec![ChannelSpec { capacity: 64 }],
            processes: vec![
                ProcessSpec {
                    type_name: "Sequence".into(),
                    params: params(&(0i64, Some(1u64))),
                    inputs: vec![],
                    outputs: vec![OutputSpec::Local(0)],
                },
                ProcessSpec {
                    type_name: "Sequence".into(),
                    params: params(&(0i64, Some(1u64))),
                    inputs: vec![],
                    outputs: vec![OutputSpec::Local(0)], // second producer!
                },
            ],
        };
        let err = match node.instantiate(spec) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("expected error"),
        };
        assert!(err.contains("already taken"));
    }
}
