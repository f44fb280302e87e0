//! # kpn-sdf — synchronous dataflow on the KPN runtime
//!
//! The paper's introduction points at *dataflow* as the statically
//! analyzable special case of process networks (§1: "the process network
//! model, or a special case of process networks such as dataflow \[12\]").
//! In synchronous dataflow (SDF) every actor produces and consumes a
//! *fixed* number of tokens per firing, which makes three things
//! decidable that are undecidable for general KPNs (§3.5):
//!
//! 1. **consistency** — the balance equations `q[a]·prod = q[b]·cons`
//!    either have a positive integer solution (the repetition vector) or
//!    the graph provably accumulates/starves tokens;
//! 2. **deadlock** — simulating one period of the schedule either
//!    completes or proves the graph needs more initial tokens (delays);
//! 3. **exact buffer bounds** — the maximum occupancy per edge during the
//!    schedule is the channel capacity that provably suffices forever.
//!
//! The analysis ([`graph`], [`schedule`]) lives in `kpn-core`, whose lint
//! runs it over every network's rate-declared regions (L005/L006); this
//! crate re-exports it unchanged. What it adds is [`execute`]:
//! [`Schedule::channel_capacities`] feeds the bounds straight into the
//! KPN runtime, so an SDF graph runs with bounded channels and **zero**
//! deadlock-monitor interventions — the static counterpart of Parks'
//! dynamic buffer growth, and the ablation DESIGN.md pairs with it.

#![warn(missing_docs)]

pub use kpn_core::sdf::{graph, schedule};
pub mod run;

pub use graph::{ActorId, EdgeId, SdfError, SdfGraph};
pub use run::{execute, SdfActor};
pub use schedule::{minimal_capacities, Schedule};
