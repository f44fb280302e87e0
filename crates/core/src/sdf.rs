//! Synchronous dataflow analysis: the statically decidable special case of
//! process networks (§1, ref \[12\]).
//!
//! In synchronous dataflow (SDF) every actor produces and consumes a fixed
//! number of tokens per firing, which makes consistency (the balance
//! equations), deadlock (one simulated period) and exact buffer bounds
//! decidable — all three undecidable for general KPNs (§3.5). The lint's
//! L005 and L006 ([`crate::topology::run_lint`]) lift each rate-declared
//! region of a network into a [`graph::SdfGraph`] and ask these questions
//! of it; the `kpn-sdf` crate re-exports both modules and runs SDF graphs
//! on the KPN runtime.

pub mod graph;
pub mod schedule;
