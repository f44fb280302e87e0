//! The compute-server control protocol — the RMI surface of §4.1.
//!
//! The Java implementation exposes `Server.run(Runnable)` (fire and
//! forget) and `Server.run(Task)` (wait for the result). Ours exposes the
//! equivalent over a framed codec session: `RunGraph` ships a partition
//! and returns immediately once it is running; `RunTask` executes a
//! registered task to completion and returns its encoded result; `WaitIdle`
//! blocks until every shipped partition has terminated (used by deployers
//! to observe the distributed termination cascade).

use kpn_core::{Error, Result};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::TcpStream;

use crate::probe::NetworkStatus;
use crate::spec::GraphSpec;

/// Requests a client can send on a control session.
#[derive(Serialize, Deserialize, Debug)]
pub enum ControlRequest {
    /// Liveness check.
    Ping,
    /// Instantiate and start a graph partition (`run(Runnable)`).
    RunGraph(GraphSpec),
    /// Execute a registered task and return its result (`run(Task)`).
    RunTask {
        /// Task-registry key.
        type_name: String,
        /// Encoded task parameters.
        params: Vec<u8>,
    },
    /// Ship a whole graph and let the receiving server decompose and
    /// redistribute it across the named helper servers (§4: "that server
    /// could decompose it and redistribute some or all of the component
    /// Process objects to other available servers").
    RunGraphRedistributed {
        /// The whole (unpartitioned) graph.
        spec: GraphSpec,
        /// Control addresses of helper servers.
        helpers: Vec<String>,
    },
    /// Block until all graphs shipped to this server have terminated.
    WaitIdle,
    /// Report the monitor snapshot of every network on this node, with its
    /// ends of the cut channels (§6.2 distributed deadlock detection).
    MonitorStatus,
    /// Abort every network on this node (distributed deadlock resolution).
    AbortNetworks,
    /// Stop accepting work and shut the node down.
    Shutdown,
}

/// Responses from the server.
#[derive(Serialize, Deserialize, Debug)]
pub enum ControlResponse {
    /// Ping reply.
    Pong,
    /// Request succeeded.
    Ok,
    /// Task result payload.
    TaskResult(Vec<u8>),
    /// Monitor snapshots, one per network.
    MonitorStatus(Vec<NetworkStatus>),
    /// Request failed.
    Err(String),
}

/// Writes one length-prefixed codec message.
pub(crate) fn send_msg<T: Serialize, W: Write>(stream: &mut W, msg: &T) -> Result<()> {
    let bytes = kpn_codec::to_bytes(msg).map_err(Error::from)?;
    stream.write_all(&(bytes.len() as u32).to_be_bytes())?;
    stream.write_all(&bytes)?;
    stream.flush()?;
    Ok(())
}

/// Reads one length-prefixed codec message.
pub(crate) fn recv_msg<T: DeserializeOwned, R: Read>(stream: &mut R) -> Result<T> {
    let mut bytes = Vec::new();
    read_body(stream, &mut bytes)?;
    kpn_codec::from_bytes(&bytes).map_err(Error::from)
}

/// Reads one length-prefixed message body into `bytes`. The prefix is the
/// peer's claim, not a size to allocate: the body is read in 4 KiB chunks,
/// so `bytes` never holds more than was received plus one chunk, and a
/// corrupt or hostile prefix fails on EOF.
fn read_body<R: Read>(stream: &mut R, bytes: &mut Vec<u8>) -> Result<()> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    let mut remaining = len;
    let mut chunk = [0u8; 4096];
    while remaining > 0 {
        let n = remaining.min(chunk.len());
        stream.read_exact(&mut chunk[..n])?;
        bytes.extend_from_slice(&chunk[..n]);
        remaining -= n;
    }
    Ok(())
}

/// A client handle to one compute server (per-request connections, like
/// RMI stubs).
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: String,
}

impl ServerHandle {
    /// A handle to the server at `addr` (no connection is made yet).
    pub fn new(addr: impl Into<String>) -> Self {
        ServerHandle { addr: addr.into() }
    }

    /// The server's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One request, one reply. `expected` picks out the reply this request
    /// is answered with; of the others, the server's `Err` is the caller's
    /// [`Error::Graph`] and anything else a protocol error.
    fn call<T>(
        &self,
        request: &ControlRequest,
        expected: impl FnOnce(ControlResponse) -> std::result::Result<T, ControlResponse>,
    ) -> Result<T> {
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| Error::Disconnected(format!("control connect {}: {e}", self.addr)))?;
        stream.set_nodelay(true)?;
        let mut stream = crate::rio::wrap(stream);
        stream.write_all(&[crate::frame::CONN_CONTROL])?;
        send_msg(&mut stream, request)?;
        match expected(recv_msg(&mut stream)?) {
            Ok(value) => Ok(value),
            Err(ControlResponse::Err(e)) => Err(Error::Graph(e)),
            Err(other) => Err(Error::Graph(format!("unexpected reply {other:?}"))),
        }
    }

    /// Liveness check.
    pub fn ping(&self) -> Result<()> {
        self.call(&ControlRequest::Ping, |reply| match reply {
            ControlResponse::Pong => Ok(()),
            other => Err(other),
        })
    }

    /// Ships a partition; returns once the server has it running.
    pub fn run_graph(&self, spec: GraphSpec) -> Result<()> {
        self.call(&ControlRequest::RunGraph(spec), done)
    }

    /// Runs a registered task to completion, returning its decoded result
    /// (the blocking `Server.run(Task)` of §4.1).
    pub fn run_task<P: Serialize, R: DeserializeOwned>(
        &self,
        type_name: &str,
        params: &P,
    ) -> Result<R> {
        let request = ControlRequest::RunTask {
            type_name: type_name.into(),
            params: kpn_codec::to_bytes(params).map_err(Error::from)?,
        };
        let bytes = self.call(&request, |reply| match reply {
            ControlResponse::TaskResult(bytes) => Ok(bytes),
            other => Err(other),
        })?;
        kpn_codec::from_bytes(&bytes).map_err(Error::from)
    }

    /// Ships a whole graph for the server to decompose and redistribute
    /// across `helpers` (§4).
    pub fn run_graph_redistributed(&self, spec: GraphSpec, helpers: &[&str]) -> Result<()> {
        let helpers = helpers.iter().map(|s| s.to_string()).collect();
        self.call(
            &ControlRequest::RunGraphRedistributed { spec, helpers },
            done,
        )
    }

    /// Blocks until every partition shipped to this server has terminated.
    pub fn wait_idle(&self) -> Result<()> {
        self.call(&ControlRequest::WaitIdle, done)
    }

    /// Fetches the monitor snapshots of every network on the server.
    pub fn monitor_status(&self) -> Result<Vec<NetworkStatus>> {
        self.call(&ControlRequest::MonitorStatus, |reply| match reply {
            ControlResponse::MonitorStatus(v) => Ok(v),
            other => Err(other),
        })
    }

    /// Aborts every network on the server (deadlock resolution).
    pub fn abort_networks(&self) -> Result<()> {
        self.call(&ControlRequest::AbortNetworks, done)
    }

    /// Asks the node to shut down.
    pub fn shutdown(&self) -> Result<()> {
        self.call(&ControlRequest::Shutdown, done)
    }
}

/// The reply to a request that returns nothing.
fn done(reply: ControlResponse) -> std::result::Result<(), ControlResponse> {
    match reply {
        ControlResponse::Ok => Ok(()),
        other => Err(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_length_prefix_past_the_bytes_sent_is_an_error_not_an_allocation() {
        // A prefix claiming 4 GiB, then 10 bytes and the end of the stream.
        let mut wire = u32::MAX.to_be_bytes().to_vec();
        wire.extend_from_slice(&[7u8; 10]);
        let mut bytes = Vec::new();
        assert!(read_body(&mut &wire[..], &mut bytes).is_err());
        assert!(
            bytes.capacity() <= 10 + 4096,
            "a 10-byte body claimed 4 GiB and held {} bytes",
            bytes.capacity()
        );
        let msg: Result<ControlRequest> = recv_msg(&mut &wire[..]);
        assert!(msg.is_err());
    }
}
