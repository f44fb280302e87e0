//! A participating node: generic compute server (§4.1) and/or deploying
//! client. One [`Node`] owns one [`Acceptor`] (data + control), a
//! [`ProcessRegistry`], a task registry, and the networks it has been
//! asked to run.
//!
//! "The entire implementation can be contained in a single jar file that
//! is less than 8K bytes" — our equivalent is [`Node::serve`], a few lines
//! that bind a port and answer control requests; see the `kpn-server`
//! example binary.

use crate::acceptor::fresh_token;
use crate::acceptor::Acceptor;
use crate::control::ServerHandle;
use crate::control::{recv_msg, send_msg, ControlRequest, ControlResponse};
use crate::registry::ProcessRegistry;
use crate::remote::{
    monitored_reader, monitored_writer, remote_reader, remote_reader_interruptible, remote_writer,
    remote_writer_interruptible,
};
use crate::spec::{ChannelSpec, GraphSpec, InputSpec, OutputSpec};
use kpn_core::{ChannelReader, ChannelWriter, Error, Network, NetworkConfig, Result};
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

/// One process-network node (client, server, or both).
pub struct Node {
    acceptor: Arc<Acceptor>,
    registry: Arc<ProcessRegistry>,
    tasks: Arc<TaskRegistry>,
    networks: Mutex<Vec<Network>>,
}

impl Node {
    /// Starts a node with the default registry, bound to `addr`
    /// (`"127.0.0.1:0"` picks an ephemeral port).
    pub fn serve(addr: &str) -> Result<Arc<Self>> {
        Self::serve_with(addr, ProcessRegistry::with_defaults(), TaskRegistry::new())
    }

    /// Starts a node with the default registries and an explicit
    /// [`NetProfile`](crate::transport::NetProfile): accepted data
    /// connections are wrapped by the profile's transport factory and
    /// hosted read endpoints inherit its reconnect policy. This is how
    /// chaos tests inject seeded faults on the accept side.
    pub fn serve_with_profile(
        addr: &str,
        profile: crate::transport::NetProfile,
    ) -> Result<Arc<Self>> {
        Self::serve_full(
            addr,
            ProcessRegistry::with_defaults(),
            TaskRegistry::new(),
            profile,
        )
    }

    /// Starts a node with custom registries.
    pub fn serve_with(
        addr: &str,
        registry: ProcessRegistry,
        tasks: TaskRegistry,
    ) -> Result<Arc<Self>> {
        Self::serve_full(addr, registry, tasks, crate::transport::NetProfile::default())
    }

    /// Starts a node with custom registries and transport profile.
    pub fn serve_full(
        addr: &str,
        registry: ProcessRegistry,
        tasks: TaskRegistry,
        profile: crate::transport::NetProfile,
    ) -> Result<Arc<Self>> {
        let acceptor = Acceptor::bind_with(addr, profile)?;
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

    /// Creates a write endpoint connected to `addr` presenting `token`.
    pub fn remote_writer(&self, addr: &str, token: u64) -> Result<ChannelWriter> {
        remote_writer(addr, token)
    }

    /// Instantiates a partition locally and starts it. Returns the running
    /// [`Network`] (also tracked for [`Node::join_all`]).
    pub fn instantiate(&self, spec: GraphSpec) -> Result<Network> {
        let net = Network::with_config(NetworkConfig::default());
        // Remote endpoints register interruptors so a network abort can
        // wake threads blocked inside TCP reads/writes (which the local
        // deadlock monitor cannot poison).
        let mut interruptors: Vec<std::sync::Arc<crate::remote::Interruptor>> = Vec::new();
        // Build the partition-local channels; each endpoint is consumable
        // exactly once (channels are single-producer / single-consumer).
        let mut writers: Vec<Option<ChannelWriter>> = Vec::new();
        let mut readers: Vec<Option<ChannelReader>> = Vec::new();
        for (ci, ch) in spec.channels.iter().enumerate() {
            let (w, r) = net.try_channel_with_capacity(ch.capacity).map_err(|_| {
                Error::Graph(format!(
                    "spec channel {ci} has zero capacity: a zero-capacity channel \
                     can never transfer data"
                ))
            })?;
            writers.push(Some(w));
            readers.push(Some(r));
        }
        for (pi, p) in spec.processes.iter().enumerate() {
            let mut ins = Vec::with_capacity(p.inputs.len());
            for input in &p.inputs {
                ins.push(match input {
                    InputSpec::Local(i) => {
                        readers.get_mut(*i).and_then(Option::take).ok_or_else(|| {
                            Error::Graph(format!(
                                "process {pi}: channel {i} reader missing or already taken"
                            ))
                        })?
                    }
                    InputSpec::Remote { token } => {
                        let (reader, interruptor) =
                            remote_reader_interruptible(&self.acceptor, *token);
                        interruptors.push(interruptor);
                        monitored_reader(reader, net.monitor().clone())
                    }
                });
            }
            let mut outs = Vec::with_capacity(p.outputs.len());
            for output in &p.outputs {
                outs.push(match output {
                    OutputSpec::Local(i) => {
                        writers.get_mut(*i).and_then(Option::take).ok_or_else(|| {
                            Error::Graph(format!(
                                "process {pi}: channel {i} writer missing or already taken"
                            ))
                        })?
                    }
                    OutputSpec::Remote { addr, token } => {
                        let (writer, interruptor) = remote_writer_interruptible(addr, *token)?;
                        interruptors.push(interruptor);
                        monitored_writer(writer, net.monitor().clone())
                    }
                });
            }
            let process = self.registry.build(&p.type_name, &p.params, ins, outs)?;
            net.add_process(process);
        }
        if !interruptors.is_empty() {
            net.monitor().on_abort(Box::new(move || {
                for i in &interruptors {
                    i.interrupt();
                }
            }));
        }
        net.start();
        self.networks.lock().push(net.clone());
        Ok(net)
    }

    /// §4's decompose-and-redistribute: takes a whole graph partition and
    /// re-partitions it across this node and the given helper servers
    /// (round-robin by process). Channels that end up spanning hosts are
    /// cut with fresh endpoint tokens; endpoints that were already remote
    /// in the incoming spec keep their absolute addresses, so existing
    /// connections (e.g. back to the original client) are unaffected.
    pub fn redistribute(&self, spec: GraphSpec, helpers: &[ServerHandle]) -> Result<()> {
        if helpers.is_empty() {
            self.instantiate(spec)?;
            return Ok(());
        }
        let hosts = helpers.len() + 1; // self is host 0
        let host_of_process = |pi: usize| pi % hosts;
        let addr_of_host = |h: usize| -> String {
            if h == 0 {
                self.addr().to_string()
            } else {
                helpers[h - 1].addr().to_string()
            }
        };
        // Who produces / consumes each local channel?
        let nch = spec.channels.len();
        let mut producer_host: Vec<Option<usize>> = vec![None; nch];
        let mut consumer_host: Vec<Option<usize>> = vec![None; nch];
        for (pi, p) in spec.processes.iter().enumerate() {
            for input in &p.inputs {
                if let InputSpec::Local(c) = input {
                    consumer_host[*c] = Some(host_of_process(pi));
                }
            }
            for output in &p.outputs {
                if let OutputSpec::Local(c) = output {
                    producer_host[*c] = Some(host_of_process(pi));
                }
            }
        }
        // Placement per channel: kept-local index on its host, or a cut.
        enum Place {
            Unused,
            Local { host: usize, index: usize },
            Cut { reader_host: usize, token: u64 },
        }
        let mut local_counts = vec![0usize; hosts];
        let mut places = Vec::with_capacity(nch);
        for c in 0..nch {
            if producer_host[c].is_none() && consumer_host[c].is_none() {
                // Unused channel (e.g. an endpoint replaced by a remote
                // descriptor upstream): nothing to place.
                places.push(Place::Unused);
                continue;
            }
            let (Some(ph), Some(ch)) = (producer_host[c], consumer_host[c]) else {
                return Err(Error::Graph(format!(
                    "channel {c} not fully connected in redistributed spec"
                )));
            };
            if ph == ch {
                places.push(Place::Local {
                    host: ph,
                    index: local_counts[ph],
                });
                local_counts[ph] += 1;
            } else {
                places.push(Place::Cut {
                    reader_host: ch,
                    token: fresh_token(),
                });
            }
        }
        // Assemble one sub-spec per host.
        let mut subs: Vec<GraphSpec> = (0..hosts).map(|_| GraphSpec::default()).collect();
        for (c, place) in places.iter().enumerate() {
            if let Place::Local { host, .. } = place {
                subs[*host].channels.push(ChannelSpec {
                    capacity: spec.channels[c].capacity,
                });
            }
        }
        for (pi, p) in spec.processes.iter().enumerate() {
            let host = host_of_process(pi);
            let inputs = p
                .inputs
                .iter()
                .map(|i| match i {
                    InputSpec::Local(c) => match &places[*c] {
                        Place::Local { index, .. } => InputSpec::Local(*index),
                        Place::Cut { token, .. } => InputSpec::Remote { token: *token },
                        Place::Unused => unreachable!("referenced channel placed"),
                    },
                    remote => remote.clone(),
                })
                .collect();
            let outputs = p
                .outputs
                .iter()
                .map(|o| match o {
                    OutputSpec::Local(c) => match &places[*c] {
                        Place::Local { index, .. } => OutputSpec::Local(*index),
                        Place::Cut { reader_host, token } => OutputSpec::Remote {
                            addr: addr_of_host(*reader_host),
                            token: *token,
                        },
                        Place::Unused => unreachable!("referenced channel placed"),
                    },
                    remote => remote.clone(),
                })
                .collect();
            subs[host].processes.push(crate::spec::ProcessSpec {
                type_name: p.type_name.clone(),
                params: p.params.clone(),
                inputs,
                outputs,
            });
        }
        // Ship the helpers' shares, then run our own.
        for (h, handle) in helpers.iter().enumerate() {
            let sub = std::mem::take(&mut subs[h + 1]);
            if !sub.is_empty() {
                handle.run_graph(sub)?;
            }
        }
        let own = std::mem::take(&mut subs[0]);
        if !own.is_empty() {
            self.instantiate(own)?;
        }
        Ok(())
    }

    /// Waits for every network shipped to this node to terminate.
    /// Networks stay registered afterwards so monitor-status requests can
    /// still inspect them.
    pub fn join_all(&self) -> Result<()> {
        let mut joined = 0;
        loop {
            // New networks may arrive while joining; re-check the list.
            let next = {
                let nets = self.networks.lock();
                nets.get(joined).cloned()
            };
            let Some(net) = next else {
                return Ok(());
            };
            net.join()?;
            joined += 1;
        }
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

    fn handle_control(&self, mut stream: TcpStream) {
        loop {
            let request: ControlRequest = match recv_msg(&mut stream) {
                Ok(r) => r,
                Err(_) => return, // client hung up
            };
            let response = match request {
                ControlRequest::Ping => ControlResponse::Pong,
                ControlRequest::RunGraph(spec) => match self.instantiate(spec) {
                    Ok(_) => ControlResponse::Ok,
                    Err(e) => ControlResponse::Err(e.to_string()),
                },
                ControlRequest::RunGraphRedistributed { spec, helpers } => {
                    let handles: Vec<ServerHandle> =
                        helpers.into_iter().map(ServerHandle::new).collect();
                    match self.redistribute(spec, &handles) {
                        Ok(()) => ControlResponse::Ok,
                        Err(e) => ControlResponse::Err(e.to_string()),
                    }
                }
                ControlRequest::RunTask { type_name, params } => {
                    match self.tasks.run(&type_name, &params) {
                        Ok(bytes) => ControlResponse::TaskResult(bytes),
                        Err(e) => ControlResponse::Err(e.to_string()),
                    }
                }
                ControlRequest::WaitIdle => match self.join_all() {
                    Ok(()) => ControlResponse::Ok,
                    Err(e) => ControlResponse::Err(e.to_string()),
                },
                ControlRequest::MonitorStatus => {
                    let statuses = self
                        .networks
                        .lock()
                        .iter()
                        .map(|net| {
                            crate::probe::NetworkStatus::from_snapshot(&net.monitor().snapshot())
                        })
                        .collect();
                    ControlResponse::MonitorStatus(statuses)
                }
                ControlRequest::AbortNetworks => {
                    for net in self.networks.lock().iter() {
                        net.abort();
                    }
                    ControlResponse::Ok
                }
                ControlRequest::Shutdown => {
                    let _ = send_msg(&mut stream, &ControlResponse::Ok);
                    self.shutdown();
                    return;
                }
            };
            if send_msg(&mut stream, &response).is_err() {
                return;
            }
        }
    }
}

impl Drop for Node {
    /// A dropped node stops listening: the accept loop is poked awake,
    /// sees the closed flag and exits, dropping the listening socket with
    /// it. Data connections already handed to endpoints live on.
    fn drop(&mut self) {
        self.acceptor.close();
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
