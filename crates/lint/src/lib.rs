//! Pre-deployment verification of distributed graph specs.
//!
//! `kpn-core` captures advisory topology metadata as a network is wired
//! (which process owns which endpoint, declared stream contracts, SDF
//! rates) and runs the whole lint, L001–L006 with its capacity fixes,
//! over every network it starts (`kpn_core::run_lint`). What no running
//! network can check is a deployment that has not started yet: a set of
//! serialized [`kpn_net::GraphSpec`] partitions, one per node. This crate
//! checks those:
//!
//! * [`check_specs`] validates the partitions *before* deployment: local
//!   channel wiring, zero capacities, and remote endpoint tokens that
//!   dangle across partition files;
//! * [`synthesize_spec_fixes`] and [`apply_spec_fixes`] rewrite a
//!   partition in place with the capacity fixes structure alone proves.
//!
//! The `kpn-lint` binary wraps both for use in build pipelines (`check` /
//! `fix --check`). Everything here is static: no network is started and
//! no process runs.

#![warn(missing_docs)]

mod spec;

pub use spec::{apply_spec_fixes, check_specs, synthesize_spec_fixes};
