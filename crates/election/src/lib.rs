//! # anet-election
//!
//! The primary contribution of *Impact of Knowledge on Election Time in
//! Anonymous Networks* (Dieudonné & Pelc, SPAA 2017): deterministic leader
//! election with advice in anonymous port-labeled networks.
//!
//! ## Minimum-time election (Section 3)
//!
//! * [`labels`] — the label machinery: `LocalLabel` (Algorithm 2),
//!   `RetrieveLabel` (Algorithm 3) and `BuildTrie` (Algorithm 4), operating
//!   on augmented truncated views.
//! * [`advice_build`] — `ComputeAdvice(G)` (Algorithm 5): the oracle-side
//!   construction of the `O(n log n)`-bit advice (the election index, the
//!   discrimination tries `E1`/`E2`, and the labeled canonical BFS tree).
//! * [`elect`] — Algorithm `Elect` (Algorithm 6): the node-side algorithm
//!   that exchanges views for `φ` rounds through the LOCAL simulator, labels
//!   itself with `RetrieveLabel`, and outputs the tree path to the root.
//!   The [`MinTime`] scheme runs the whole pipeline and verifies the
//!   outcome.
//!
//! Neither side of the Section 3 pipeline materializes a view tree: the
//! oracle works on the refinement class rows (class ids are canonical view
//! ranks), and the nodes on the hash-consed view arena of `anet_views`
//! (`ViewId` records instead of `Δ^depth`-node trees). Both run in
//! near-linear time; the materialized-tree implementations
//! ([`advice_build::compute_advice_reference`], [`elect::elect_output`],
//! the tree-based [`labels`] functions) are kept as correctness oracles for
//! property tests.
//!
//! ## Election in large time (Section 4)
//!
//! * [`generic`] — Algorithm `Generic(x)` (Algorithm 7): election in time at
//!   most `D + x + 1` for any `x >= φ`, with no advice beyond `x`.
//! * [`milestones`] — Algorithms `Election1..4` (Algorithm 8 / Theorem 4.1):
//!   advice of size `O(log φ)`, `O(log log φ)`, `O(log log log φ)`,
//!   `O(log log* φ)` yielding election in time `D+φ+c`, `D+cφ`, `D+φ^c`,
//!   `D+c^φ`.
//! * [`remark`] — the remark after Theorem 4.1: advice
//!   `Concat(bin(D), bin(φ))` for election in time exactly `D + φ`.
//!
//! ## The session API
//!
//! * [`instance`] — [`Instance`]: a graph wrapped with lazily-computed,
//!   memoized analysis (view classes, φ, diameter/eccentricities, the
//!   hash-consed view arena and the full advice). The single place
//!   [`RefineOptions`](anet_graph::RefineOptions) enters the election
//!   layer.
//! * [`scheme`] — [`AdviceScheme`]: every algorithm family above as a
//!   pluggable scheme ([`MinTime`], [`Generic`], [`MilestoneScheme`],
//!   [`Remark`]) returning one [`Outcome`], the only election result type;
//!   [`scheme_suite`] lists the whole tradeoff curve. A one-shot election
//!   is a scheme run on `Instance::new(&g)`.
//!
//! ## Election under adversity
//!
//! * [`adversity`] — [`Instance::elect_under`]: the minimum-time election
//!   replayed through the fault-injecting engine of `anet_sim` under a
//!   [`FaultPlan`](anet_sim::FaultPlan), with the `COM` exchange carried
//!   raw or by a reliability wrapper ([`ExecutionModel`]). Completing
//!   implies electing the clean leader; an unabsorbable adversary is
//!   refused, never answered wrongly.
//!
//! ## Support
//!
//! * [`encoding`] — the paper-exact binary code `bin(B^1(v))`
//!   (Proposition 3.3) used by the depth-1 trie queries.
//! * [`math`] — `⌊log₂⌋`, `log*` and the tower function of the milestone
//!   constructions.
//! * [`baselines`] — reference points: full-map advice and the naive
//!   view-rank labeling whose cost motivates the trie construction.
//! * [`verify`] — election-outcome verification (all outputs are simple
//!   paths ending at a common leader).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversity;
pub mod advice_build;
pub mod baselines;
pub mod elect;
pub mod encoding;
pub mod error;
pub mod generic;
pub mod instance;
pub mod labels;
pub mod math;
pub mod milestones;
pub mod remark;
pub mod scheme;
pub mod verify;

pub use adversity::{AdversityOutcome, ExecutionModel};
pub use advice_build::{compute_advice, Advice};
pub use elect::Simulation;
pub use error::ElectionError;
pub use instance::{ComputeCounts, Instance};
pub use milestones::Milestone;
pub use scheme::{scheme_suite, AdviceScheme, Generic, MilestoneScheme, MinTime, Outcome, Remark};
pub use verify::verify_election;
