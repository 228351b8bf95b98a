//! Algorithm `Elect` (Algorithm 6): minimum-time leader election using the
//! oracle's advice.
//!
//! Every node, given the common advice string:
//!
//! 1. decodes `φ`, `E1`, `E2` and the labeled BFS tree,
//! 2. exchanges views with its neighbors for `φ` rounds (the `COM`
//!    subroutine), acquiring `B^φ(u)`,
//! 3. computes its unique label `x = RetrieveLabel(B^φ(u), E1, E2)`,
//! 4. outputs the port sequence of the unique tree path from the node
//!    labeled `x` to the node labeled 1 (the leader).
//!
//! [`simulate_election_in`] runs this node algorithm on every node through
//! the LOCAL simulator; the [`MinTime`](crate::MinTime) scheme verifies the
//! outcome and reports the election time and advice size — the two
//! quantities Theorem 3.1 relates.
//!
//! ## Scaling notes
//!
//! The simulation exchanges hash-consed [`ViewId`]s against a shared,
//! mutex-striped [`ShardedViewArena`] (see [`anet_sim::com`]), so a round
//! moves `O(m)` words
//! instead of `O(m · Δ^round)` tree nodes. The purely local rest of the
//! algorithm is shared across nodes — none of it changes any node's
//! output, because all of it is a deterministic function of the common
//! advice and the node's own views:
//!
//! * the advice string is decoded once instead of once per node, a word
//!   at a time ([`anet_advice::codec`]);
//! * every node hands over its whole chain `B^0(u) … B^φ(u)`, and
//!   `RetrieveLabel` runs a depth at a time over all chains, each distinct
//!   view labelled once ([`retrieve_labels`]);
//! * the BFS tree is flat with parent positions
//!   ([`anet_advice::LabeledTree`]), and its labels are indexed once, so
//!   each node's output path costs its own length instead of an `O(n)`
//!   tree search.
//!
//! No step recurses on `φ` or on the tree depth, so a deep instance runs
//! on a small stack. The `bench-elect` sweep of `anet-bench` records the
//! per-phase timings.

use std::sync::Arc;

use anet_advice::BitString;
use anet_graph::{Graph, PortPath};
use anet_sim::{AdvRunner, ComNode, FaultPlan, NodeAlgorithm, RunStats, SharedViewArena};
use anet_views::{AugmentedView, ShardedViewArena, ViewId};
use parking_lot::Mutex;

use crate::advice_build::{decode_advice, DecodedAdvice};
use crate::error::ElectionError;
use crate::labels::{retrieve_label, retrieve_labels};

/// The outputs and statistics of the simulated `Elect` phase, before
/// verification (so the two can be timed separately by the bench harness).
#[derive(Debug, Clone)]
pub struct Simulation {
    /// Per-node outputs (indexed by simulator node id).
    pub outputs: Vec<PortPath>,
    /// The number of communication rounds used.
    pub time: usize,
    /// Message statistics of the `COM` exchange.
    pub stats: RunStats,
    /// Number of distinct view subtrees interned by the exchange.
    pub distinct_views: usize,
}

/// Computes the node output of Algorithm `Elect` from the decoded advice and
/// the acquired view `B^φ(u)`, materialized — the purely local part of the
/// algorithm on the explicit-tree representation. Kept as the oracle the
/// arena pipeline is compared against (exponential in `φ`; tests and small
/// graphs only).
pub fn elect_output(advice: &DecodedAdvice, view: &AugmentedView) -> PortPath {
    let x = retrieve_label(view, &advice.e1, &advice.e2);
    let flat = advice
        .tree
        .path_to_root(x)
        .expect("every label appears in the advice tree");
    let ports: Vec<usize> = flat.iter().map(|&p| p as usize).collect();
    PortPath::from_flat(&ports).expect("tree paths have an even number of port entries")
}

/// Runs the node side of Algorithm `Elect` on every node of `g` through the
/// LOCAL simulator, without verifying the outcome: decode the advice
/// string, run `COM(0..φ)` over the shared view arena `arena`, label every
/// node's acquired `B^φ(u)` and emit its tree path to the leader.
///
/// An [`Instance`](crate::Instance) session passes its own arena here, so
/// its repeated runs (and its view levels, if computed) share one set of
/// records; passing a fresh arena gives the same outputs (the set of
/// interned subtrees is the same either way). Advice whose election index
/// no graph of this size has is refused as
/// [`ElectionError::MalformedAdvice`] before any round runs.
pub fn simulate_election_in(
    g: &Graph,
    advice_bits: &BitString,
    arena: &SharedViewArena,
) -> Result<Simulation, ElectionError> {
    // Every node independently decodes the same bit string, exactly as in
    // the model (the decoded advice is shared here only to avoid re-decoding
    // per node; decoding is deterministic so the result is identical).
    let decoded = decode_advice_for(g, advice_bits)?;
    let phi = decoded.phi;
    let runner = AdvRunner::new(g, phi + 1);
    run_elect(
        g,
        &decoded,
        arena,
        &runner,
        &FaultPlan::none(),
        |slot, deposits| com_node(arena, phi, deposits, slot),
    )
}

/// The node side of `Elect` on `runner` under `plan`: slot `v` runs
/// `node(v, deposits)` — its `COM` node from [`com_node`], bare or inside a
/// reliability wrapper — and the chains the nodes deposit become their
/// outputs (see the module docs for why the local tail is shared). The
/// clean pipeline runs bare nodes on one thread for φ + 1 rounds under
/// [`FaultPlan::none`]; [`Instance::elect_under`](crate::Instance::elect_under)
/// brings its own plan, wrappers, threads and round budget.
pub(crate) fn run_elect<A: NodeAlgorithm + Send>(
    g: &Graph,
    decoded: &DecodedAdvice,
    arena: &SharedViewArena,
    runner: &AdvRunner<'_>,
    plan: &FaultPlan,
    mut node: impl FnMut(usize, &Deposits) -> A,
) -> Result<Simulation, ElectionError> {
    let deposits = new_deposits(g.num_nodes(), decoded.phi);
    let outcome = runner.run(plan, |slot, _degree| node(slot, &deposits))?;
    let time = outcome
        .election_time()
        .ok_or_else(|| first_unhalted(&outcome.outputs))?;
    let levels = collect_deposits(&deposits.lock())?;
    let outputs = outputs_from_levels(decoded, arena, &levels)?;
    Ok(Simulation {
        outputs,
        time,
        stats: outcome.stats,
        distinct_views: arena.len(),
    })
}

/// Decodes the advice for an election on `g`, refusing an election index
/// that no `n`-node graph has. Refinement stabilizes within `n - 1` rounds,
/// so a feasible graph on `n >= 2` nodes has `1 <= φ <= n - 1`; a larger
/// forged `φ` would run that many rounds (or overflow the round count), and
/// `φ = 0` would leave every node a depth-0 view, which carries no label.
pub(crate) fn decode_advice_for(
    g: &Graph,
    advice_bits: &BitString,
) -> Result<DecodedAdvice, ElectionError> {
    let decoded = decode_advice(advice_bits)?;
    let n = g.num_nodes();
    if decoded.phi == 0 || decoded.phi >= n {
        return Err(ElectionError::MalformedAdvice(format!(
            "election index {} is impossible on {n} nodes",
            decoded.phi
        )));
    }
    Ok(decoded)
}

/// The view chains a `COM` run deposits: `[d][v]` holds `B^d(v)` once node
/// `v` has finished.
pub(crate) type Deposits = Arc<Mutex<Vec<Vec<Option<ViewId>>>>>;

/// Empty deposits for `n` nodes running `φ` rounds.
fn new_deposits(n: usize, phi: usize) -> Deposits {
    Arc::new(Mutex::new(vec![vec![None; n]; phi + 1]))
}

/// The `COM` node of simulator slot `slot`: `φ` rounds over the shared
/// arena, then its chain `B^0 … B^φ` goes into `deposits`.
pub(crate) fn com_node(
    arena: &SharedViewArena,
    phi: usize,
    deposits: &Deposits,
    slot: usize,
) -> ComNode<impl FnMut(&ShardedViewArena, &[ViewId]) -> PortPath> {
    let deposits = Arc::clone(deposits);
    ComNode::new(Arc::clone(arena), phi, move |_arena, chain| {
        for (level, &id) in deposits.lock().iter_mut().zip(chain) {
            level[slot] = Some(id);
        }
        PortPath::empty()
    })
}

/// Collects the per-node view chains a `COM` run deposited, as
/// `levels[d][v] = B^d(v)`, erroring on the first node that halted without
/// depositing (impossible through [`ComNode`]'s callback, but the error
/// path keeps the pipeline panic-free).
fn collect_deposits(deposited: &[Vec<Option<ViewId>>]) -> Result<Vec<Vec<ViewId>>, ElectionError> {
    deposited
        .iter()
        .map(|level| {
            level
                .iter()
                .enumerate()
                .map(|(node, v)| v.ok_or(ElectionError::NodeDidNotHalt { node }))
                .collect()
        })
        .collect()
}

/// The purely local tail of Algorithm `Elect`, shared across nodes: label
/// every acquired `B^φ(u)` from the chains `levels[d][u] = B^d(u)` and emit
/// its tree path to the leader. This is the tail of [`run_elect`]: the
/// acquired views determine the outputs, no matter which execution model
/// delivered them.
fn outputs_from_levels(
    decoded: &DecodedAdvice,
    arena: &ShardedViewArena,
    levels: &[Vec<ViewId>],
) -> Result<Vec<PortPath>, ElectionError> {
    let labels = retrieve_labels(arena, levels, &decoded.e1, &decoded.e2);
    // The preorder position of the first tree node carrying each label —
    // the node LabeledTree::path_to_root finds.
    let mut positions: Vec<(u64, usize)> = decoded.tree.labels().zip(0..).collect();
    positions.sort_unstable();
    positions.dedup_by_key(|&mut (label, _)| label);
    labels
        .iter()
        .map(|&x| {
            let hops = positions
                .binary_search_by_key(&x, |&(label, _)| label)
                .ok()
                .and_then(|k| decoded.tree.hops_from(positions[k].1))
                .ok_or_else(|| {
                    ElectionError::MalformedAdvice(format!(
                        "label {x} has no path to the root in the advice tree"
                    ))
                })?;
            Ok(PortPath::from_pairs(
                hops.map(|(p, q)| (p as usize, q as usize)).collect(),
            ))
        })
        .collect()
}

/// The error naming the first node that failed to halt.
fn first_unhalted(outputs: &[Option<PortPath>]) -> ElectionError {
    let node = outputs.iter().position(Option::is_none).unwrap_or(0);
    ElectionError::NodeDidNotHalt { node }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advice_build::compute_advice;
    use crate::scheme::{AdviceScheme, MinTime, Outcome};
    use crate::verify::verify_election;
    use crate::Instance;
    use anet_graph::generators;
    use anet_views::election_index;

    /// A minimum-time election on a fresh session of `g`.
    fn min_time(g: &Graph) -> Result<Outcome, ElectionError> {
        MinTime.elect(&Instance::new(g))
    }

    fn feasible_samples() -> Vec<Graph> {
        vec![
            generators::star(4),
            generators::star(7),
            generators::caterpillar(4),
            generators::caterpillar(6),
            generators::lollipop(4, 3),
            generators::lollipop(5, 6),
            generators::random_connected(18, 0.15, 1),
            generators::random_connected(25, 0.1, 2),
            generators::random_tree(15, 3),
            generators::random_tree(20, 9),
        ]
        .into_iter()
        .filter(|g| election_index(g).is_some())
        .collect()
    }

    #[test]
    fn election_succeeds_in_exactly_phi_rounds() {
        for g in feasible_samples() {
            let phi = election_index(&g).unwrap();
            let outcome = min_time(&g).expect("election must succeed on feasible graphs");
            assert_eq!(outcome.time, phi, "Theorem 3.1: time equals φ");
            assert_eq!(outcome.phi, phi);
        }
    }

    #[test]
    fn elected_leader_is_the_advice_root() {
        for g in feasible_samples() {
            let advice = compute_advice(&g).unwrap();
            let outcome = MinTime.run(&Instance::new(&g), &advice.bits).unwrap();
            assert_eq!(outcome.leader, advice.root);
        }
    }

    #[test]
    fn all_outputs_are_simple_paths_to_the_leader() {
        for g in feasible_samples() {
            let outcome = min_time(&g).unwrap();
            for (v, path) in outcome.outputs.iter().enumerate() {
                assert!(path.is_simple(&g, v));
                assert_eq!(path.endpoint(&g, v), Some(outcome.leader));
            }
        }
    }

    #[test]
    fn arena_outputs_match_tree_oracle_outputs() {
        // The per-node output of the arena pipeline must equal
        // elect_output(decoded advice, materialized B^φ(u)) — the
        // tree-based reading of Algorithm 6.
        for g in feasible_samples() {
            let advice = compute_advice(&g).unwrap();
            let decoded = decode_advice(&advice.bits).unwrap();
            let sim =
                simulate_election_in(&g, &advice.bits, &Arc::new(ShardedViewArena::new())).unwrap();
            let views = AugmentedView::compute_all(&g, decoded.phi);
            for v in g.nodes() {
                assert_eq!(
                    sim.outputs[v],
                    elect_output(&decoded, &views[v]),
                    "node {v}"
                );
            }
        }
    }

    #[test]
    fn exchange_stats_are_reported() {
        let g = generators::lollipop(5, 4);
        let outcome = min_time(&g).unwrap();
        let phi = outcome.phi;
        let stats = outcome.stats.unwrap();
        let distinct_views = outcome.distinct_views.unwrap();
        // COM sends one 2-word message per edge direction per round.
        assert_eq!(stats.rounds, phi);
        assert_eq!(stats.messages, 2 * g.num_edges() * phi);
        assert_eq!(stats.message_words, 2 * stats.messages);
        // The arena holds at most one record per (node, depth) pair.
        assert!(distinct_views <= g.num_nodes() * (phi + 1));
        assert!(distinct_views > 0);
    }

    #[test]
    fn election_is_invariant_under_node_relabeling() {
        // The advice and outcome are functions of the structure only; if we
        // permute simulator node ids, the elected leader maps through the
        // permutation.
        use anet_graph::relabel;
        let g = generators::lollipop(5, 4);
        let (h, perm) = relabel::random_node_permutation(&g, 123);
        let og = min_time(&g).unwrap();
        let oh = min_time(&h).unwrap();
        assert_eq!(perm[og.leader], oh.leader);
        assert_eq!(og.time, oh.time);
        assert_eq!(og.advice_bits(), oh.advice_bits());
    }

    /// `bits` with its election index item replaced by `phi`.
    fn with_phi(bits: &BitString, phi: u64) -> BitString {
        let mut items = anet_advice::codec::decode(bits).unwrap();
        items[0] = BitString::from_uint(phi);
        anet_advice::codec::concat(&items)
    }

    #[test]
    fn forged_election_index_is_refused() {
        // A node must never trust φ further than the graph allows: φ = 0
        // leaves no label to compute, and φ >= n is impossible (u64::MAX
        // would overflow the round count).
        let g = generators::lollipop(5, 4);
        let advice = compute_advice(&g).unwrap();
        let n = g.num_nodes() as u64;
        for phi in [u64::MAX, n, 0] {
            let forged = with_phi(&advice.bits, phi);
            let arena = Arc::new(ShardedViewArena::new());
            assert!(
                matches!(
                    simulate_election_in(&g, &forged, &arena),
                    Err(ElectionError::MalformedAdvice(_))
                ),
                "phi = {phi}"
            );
        }
        // Re-encoding the honest φ leaves the advice intact, and it elects.
        let honest = with_phi(&advice.bits, advice.phi as u64);
        assert_eq!(honest, advice.bits);
        let sim = simulate_election_in(&g, &honest, &Arc::new(ShardedViewArena::new())).unwrap();
        assert_eq!(sim.time, advice.phi);
        assert_eq!(verify_election(&g, &sim.outputs), Ok(advice.root));
    }

    #[test]
    fn infeasible_graph_fails_cleanly() {
        assert!(matches!(
            min_time(&generators::ring(5)),
            Err(ElectionError::Infeasible)
        ));
    }

    #[test]
    fn star_elects_in_one_round_with_small_advice() {
        let g = generators::star(6);
        let outcome = min_time(&g).unwrap();
        assert_eq!(outcome.time, 1);
        assert!(outcome.advice_bits() > 0);
    }

    /// `bits` with one part `depth` codes deep (a random part at every
    /// level, the whole string if it has no parts) passed through `mutate`
    /// and every enclosing code rebuilt around it.
    fn mutate_nested(
        bits: &BitString,
        depth: usize,
        rng: &mut rand::rngs::StdRng,
        mutate: &mut dyn FnMut(&mut Vec<bool>, &mut rand::rngs::StdRng),
    ) -> BitString {
        use rand::Rng;
        if let Some(mut parts) = anet_advice::codec::decode(bits)
            .ok()
            .filter(|parts| depth > 0 && !parts.is_empty())
        {
            let i = rng.gen_range(0..parts.len());
            parts[i] = mutate_nested(&parts[i], depth - 1, rng, mutate);
            return anet_advice::codec::concat(&parts);
        }
        let mut raw: Vec<bool> = bits.iter().collect();
        mutate(&mut raw, rng);
        BitString::from_bits(&raw)
    }

    #[test]
    fn mutated_advice_is_refused_or_elects_but_never_panics() {
        // Seeded bit flips, pair flips, truncations and splices, each made
        // at a random nesting depth of honest advice (the outer string, an
        // item, E1, E2, one of its lists or tries, the tree) with the codes
        // around it rebuilt, so that mutants reach every decoder and the
        // run behind them. Every mutant must decode or be refused as
        // malformed, and every decoded one must run to a verified election
        // or a typed error.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let samples: Vec<(Graph, BitString)> = feasible_samples()
            .into_iter()
            .map(|g| {
                let bits = compute_advice(&g).unwrap().bits;
                (g, bits)
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(2017);
        let (mut decoded, mut elected) = (0, 0);
        for round in 0..3000 {
            let (g, honest) = &samples[round % samples.len()];
            let donor: Vec<bool> = samples[rng.gen_range(0..samples.len())].1.iter().collect();
            let depth = rng.gen_range(0..6usize);
            let mut mutate = |raw: &mut Vec<bool>, rng: &mut StdRng| {
                let at = rng.gen_range(0..raw.len() + 1);
                match round % 4 {
                    0 if at < raw.len() => raw[at] = !raw[at],
                    1 if at + 1 < raw.len() => {
                        let pair = at & !1;
                        raw[pair] = !raw[pair];
                        raw[pair + 1] = !raw[pair + 1];
                    }
                    2 => raw.truncate(at),
                    _ => {
                        let end = rng.gen_range(at..raw.len() + 1);
                        let from = rng.gen_range(0..donor.len());
                        let to = rng.gen_range(from..donor.len() + 1);
                        raw.splice(at..end, donor[from..to].iter().copied());
                    }
                }
            };
            let mutant = mutate_nested(honest, depth, &mut rng, &mut mutate);
            match decode_advice(&mutant) {
                Ok(_) => decoded += 1,
                Err(ElectionError::MalformedAdvice(_)) => continue,
                Err(e) => panic!("decode_advice answered {e:?}"),
            }
            let arena = Arc::new(ShardedViewArena::new());
            if let Ok(sim) = simulate_election_in(g, &mutant, &arena) {
                if verify_election(g, &sim.outputs).is_ok() {
                    elected += 1;
                }
            }
        }
        assert!(decoded > 300, "only {decoded} mutants decoded");
        assert!(elected > 30, "only {elected} decoded mutants elected");
    }

    #[test]
    fn deep_election_runs_on_a_small_stack() {
        // A 300-node tail makes φ = 149 and a BFS tree of depth ~300. The
        // oracle, the exchange, the labels and the output paths must all
        // run as loops: the whole election fits a 128 KiB thread stack.
        let worker = std::thread::Builder::new()
            .stack_size(128 * 1024)
            .spawn(|| {
                let g = generators::lollipop(3, 300);
                let inst = Instance::new(&g);
                let outcome = MinTime.elect(&inst).expect("lollipop(3, 300) is feasible");
                let advice = inst.advice().expect("feasible");
                assert_eq!(outcome.time, 149);
                assert_eq!(outcome.leader, advice.root);
                assert_eq!(verify_election(&g, &outcome.outputs), Ok(advice.root));
                assert!(advice.tree.depth() > 149);
            })
            .expect("spawn the small-stack worker");
        worker.join().expect("the deep election must not overflow");
    }
}
