//! # kpn-core — Kahn Process Networks with bounded scheduling
//!
//! The runtime layer of the *Distributed Process Networks* reproduction:
//!
//! * [`mod@channel`]s are FIFO **byte** streams with blocking reads (Kahn's
//!   determinacy condition, §2) and bounded, blocking writes (§3.5);
//! * [`process`]es run as tasks of a pluggable [`exec::Exec`]utor —
//!   multiplexed onto a fixed worker pool (the default), one-per-thread
//!   (the paper's model, `KPN_EXEC=thread`), or serialized under the
//!   deterministic [`sim`] scheduler — built
//!   from the [`process::Iterative`] pattern (`onStart`/`step`/`onStop`,
//!   Figure 4);
//! * [`network::Network`] owns the graph, the executor, and the
//!   [`monitor::Monitor`] implementing Parks' bounded scheduling: artificial
//!   deadlocks are resolved by growing the smallest full channel, true
//!   deadlocks abort the network;
//! * [`stdlib`] provides every process used by the paper's example
//!   networks, and [`graphs`] assembles those examples (Fibonacci, the
//!   Sieve of Eratosthenes, Hamming numbers, Newton's method) ready to run.
//!
//! Determinacy in practice: the history of values on every channel depends
//! only on the graph, never on scheduling — the property tests in
//! `tests/determinacy.rs` (workspace root) exercise exactly this.
//!
//! ## Buffering and flush semantics
//!
//! The typed streams ([`stream::DataWriter`]/[`stream::DataReader`]) and the
//! codec layer batch small tokens through private buffers (at most 4 KiB,
//! [`channel::DEFAULT_STREAM_BUFFER`], and never more than the channel's
//! own capacity) — the `BufferedOutputStream` layer Java's implementation
//! got for free. Batching is invisible to program semantics because of one
//! rule, enforced by the runtime (see [`flush`]): **all of a task's
//! buffered output is published before the task waits for anything** — a
//! read on an empty channel, a write on a full one, a socket. Beyond that,
//! a chunk is published when it fills, when its sink closes, when the
//! process asks, and at an [`process::Iterative`] step boundary *if the
//! reader is waiting for it* — so a parked reader is fed within one
//! producer step, and a busy one lets the chunk batch. A reader the writer
//! cannot see (the far end of a socket) is published to at a step boundary
//! unless the previous publish returned less than its own duration ago, so
//! its output is delayed by at most what the transport just cost.
//!
//! Why this preserves the paper's guarantees:
//!
//! * **Kahn determinacy (§2).** Buffering delays writes but never reorders
//!   them within a channel, so each channel's history is a prefix of the
//!   unbuffered history at all times — and whenever a process is parked
//!   (the only time another process's progress depends on it), the
//!   histories are equal. The fixed-point the network computes is
//!   unchanged.
//! * **Parks' deadlock detection (§3.5).** The monitor classifies a
//!   stalled network by inspecting channel occupancy: an artificial
//!   deadlock has some full channel to grow; a true deadlock has every
//!   process read-blocked on an *empty* channel. A token hiding in a
//!   private buffer while its owner is blocked would make a live network
//!   look truly deadlocked, or make the monitor grow a channel that was
//!   not the problem. Publish-before-wait makes private buffers empty
//!   whenever their owner is blocked — reading *or* writing — so the
//!   monitor's view, and its [`monitor::ChannelIoStats`] accounting, is
//!   exactly as accurate as in the unbuffered implementation.
//!
//! Explicit control remains available: [`stream::DataWriter::flush`],
//! [`process::ProcessCtx::flush_sinks`], and the `unbuffered` constructors
//! opt out per endpoint.

#![warn(missing_docs)]

mod buffer;
pub mod channel;
pub mod error;
pub mod exec;
pub mod flush;
pub mod graphs;
pub mod monitor;
pub mod network;
pub mod process;
pub mod sim;
pub mod stdlib;
pub mod stream;
pub mod topology;

pub use channel::{
    channel, channel_with_capacity, Channel, ChannelReader, ChannelWriter, ReaderState, Sink, Source,
    SourceRead, DEFAULT_CAPACITY, DEFAULT_STREAM_BUFFER,
};
pub use error::{Error, Result};
pub use exec::reactor::ReactorStats;
pub use exec::{
    Exec, ExecMode, NetBackend, PooledExec, SchedulerStats, ThreadExec, WorkerStats,
};
pub use monitor::{
    BlockGuard, BlockKind, ChannelIoStats, DeadlockPolicy, Monitor, MonitorSnapshot,
    MonitorStats,
};
pub use sim::{
    check_determinacy, compare_histories, explore_dfs, run_sim, ChannelKey, DfsReport,
    HistoryCheck, HistoryRecorder, SchedulePolicy, ScheduleTrace, SimRun, SimScheduler,
};
pub use network::{Network, NetworkConfig, NetworkHandle, NetworkReport};
pub use process::{CompositeProcess, FnProcess, Iterative, IterativeProcess, Process, ProcessCtx};
pub use stream::{DataReader, DataWriter};
pub use topology::{
    check_builtin, register_lint_pass, run_lint, ChannelShape, DiagCode, Diagnostic,
    EndpointShape, Fix, LintLevel, LintScope, ProcessShape, ProcessTag, SideState, StreamFraming,
    TopologySnapshot,
};
