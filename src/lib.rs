//! # anonymous-election
//!
//! Umbrella crate for the reproduction of *Impact of Knowledge on Election
//! Time in Anonymous Networks* (Dieudonné & Pelc, SPAA 2017).
//!
//! It re-exports the workspace crates under stable module names so that
//! examples, integration tests and downstream users can depend on a single
//! package:
//!
//! * [`graph`] — port-labeled anonymous graphs, generators and algorithms,
//! * [`views`] — (augmented) truncated views and the election index,
//! * [`sim`] — the synchronous LOCAL-model simulator,
//! * [`advice`] — bit strings and the paper's self-delimiting encodings,
//! * [`election`] — the election algorithms with advice (the paper's
//!   contribution),
//! * [`families`] — every lower-bound graph family used in the paper,
//! * [`conformance`] — the adversarial corpus generator and differential
//!   conformance harness (`report corpus`),
//! * [`analysis`] — the workspace static-analysis pass (`report lint`):
//!   determinism, panic-hygiene and doc-integrity lints over this source
//!   tree itself,
//! * [`service`] — election as a service (`report serve`): an NDJSON
//!   daemon answering election jobs from a warm-`Instance` session cache
//!   keyed by canonical graph encoding, plus its deterministic load
//!   generator (`report loadgen`).
//!
//! See the repository `README.md` for a quickstart and `DESIGN.md` for the
//! full system inventory.

#![forbid(unsafe_code)]

pub use anet_advice as advice;
pub use anet_analysis as analysis;
pub use anet_conformance as conformance;
pub use anet_election as election;
pub use anet_families as families;
pub use anet_graph as graph;
pub use anet_service as service;
pub use anet_sim as sim;
pub use anet_views as views;

/// Convenience prelude re-exporting the most commonly used items.
pub mod prelude {
    pub use anet_advice::BitString;
    pub use anet_election::{
        compute_advice, scheme_suite, verify_election, AdviceScheme, Generic, Instance,
        MilestoneScheme, MinTime, Outcome, Remark,
    };
    pub use anet_graph::{Graph, GraphBuilder, NodeId, Port, PortPath};
    pub use anet_views::{election_index, is_feasible, AugmentedView};
}
