//! Cross-crate integration tests: the full election pipeline on the paper's
//! own graph families and on mixed workloads.

use anonymous_election::election::{
    compute_advice, verify_election, AdviceScheme, ElectionError, Generic, Instance, Milestone,
    MilestoneScheme, MinTime, Outcome,
};
use anonymous_election::families::necklace::NecklaceParams;
use anonymous_election::families::ring_of_cliques::ring_of_cliques_base;
use anonymous_election::families::{
    hairy_ring, lock_chain_graph, necklace, necklace_base, stretched_gadget,
};
use anonymous_election::graph::Graph;
use anonymous_election::graph::{algo, generators};
use anonymous_election::sim::exchange_views;
use anonymous_election::views::{election_index, AugmentedView};

/// `scheme` run on a fresh session of `g`.
fn elect(scheme: impl AdviceScheme, g: &Graph) -> Result<Outcome, ElectionError> {
    scheme.elect(&Instance::new(g))
}

#[test]
fn minimum_time_election_on_the_ring_of_cliques_family() {
    // The Theorem 3.2 family has φ = 1, so the whole pipeline must elect in a
    // single round on every member.
    for assignment in [
        vec![0u64, 1, 2, 3, 4, 5],
        vec![0, 5, 4, 3, 2, 1],
        vec![0, 2, 4, 1, 3, 5],
    ] {
        let g = anonymous_election::families::ring_of_cliques(6, 3, &assignment);
        let outcome = elect(MinTime, &g).expect("feasible");
        assert_eq!(outcome.time, 1);
        for (v, p) in outcome.outputs.iter().enumerate() {
            assert!(p.is_simple(&g, v));
            assert_eq!(p.endpoint(&g, v), Some(outcome.leader));
        }
    }
}

#[test]
fn minimum_time_election_on_necklaces_uses_exactly_phi_rounds() {
    for phi in [2usize, 3] {
        let params = NecklaceParams { k: 4, x: 3, phi };
        let g = necklace_base(params);
        let outcome = elect(MinTime, &g).expect("necklaces are feasible");
        assert_eq!(outcome.time, phi);
        assert_eq!(outcome.phi, phi);
    }
}

#[test]
fn coded_necklaces_elect_and_advice_differs_across_codes() {
    // Claim 3.11 in executable form: two members of N_k that differ only in
    // an inner diamond still elect correctly, and the oracle's advice strings
    // for them are different (they must be, or the common-output argument
    // would break one of them).
    let params = NecklaceParams { k: 6, x: 3, phi: 2 };
    let g1 = necklace(params, &[0, 0, 1, 2, 0, 0]);
    let g2 = necklace(params, &[0, 0, 2, 1, 0, 0]);
    let a1 = compute_advice(&g1).unwrap();
    let a2 = compute_advice(&g2).unwrap();
    assert_ne!(a1.bits, a2.bits);
    assert!(elect(MinTime, &g1).is_ok());
    assert!(elect(MinTime, &g2).is_ok());
}

#[test]
fn generic_election_respects_lemma_4_1_on_families() {
    let graphs = vec![
        ring_of_cliques_base(6, 3),
        necklace_base(NecklaceParams { k: 4, x: 3, phi: 2 }),
        lock_chain_graph(2, 2, 0).graph,
        hairy_ring(&[1, 0, 2, 0, 3, 0]),
    ];
    for g in graphs {
        let phi = election_index(&g).expect("feasible");
        let d = algo::diameter(&g);
        for x in [phi, phi + 2] {
            let outcome = elect(Generic { x }, &g).unwrap();
            assert!(outcome.time <= d + x + 1);
            assert!(verify_election(&g, &outcome.outputs).is_ok());
        }
    }
}

#[test]
fn milestones_and_minimum_time_agree_on_the_leader_up_to_view_order() {
    // Generic elects the node with the smallest depth-x view; Elect elects
    // the node labeled 1 by the trie labeling. Both are valid leaders; what
    // must agree is that each run is internally consistent. Here we check
    // both pipelines fully verify on the same graphs.
    let g = generators::lollipop(6, 5);
    let fast = elect(MinTime, &g).unwrap();
    assert!(verify_election(&g, &fast.outputs).is_ok());
    for m in Milestone::ALL {
        let slow = elect(MilestoneScheme(m), &g).unwrap();
        assert!(verify_election(&g, &slow.outputs).is_ok());
    }
}

#[test]
fn exchanged_views_on_families_match_central_computation() {
    let g = ring_of_cliques_base(4, 3);
    let exchanged = exchange_views(&g, 2).unwrap();
    let central = AugmentedView::compute_all(&g, 2);
    assert_eq!(exchanged, central);
}

#[test]
fn elect_all_completes_on_the_smallest_large_graphs_tier() {
    // The ~1000-node tier of the benchmark sweep (ring of cliques, necklace,
    // sparse random), end to end through the arena-based pipeline: advice,
    // simulated COM exchange, labeling, verification — all in test (debug)
    // mode. The 5k/10k tiers run in the release-mode `bench-elect` sweep.
    let tier = anet_bench_free_workloads_smallest_tier();
    assert_eq!(tier.len(), 3);
    for (name, g) in tier {
        let phi = election_index(&g).expect("tier instances are feasible");
        let outcome = elect(MinTime, &g).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(outcome.time, phi, "{name}: Theorem 3.1 time");
        assert_eq!(outcome.outputs.len(), g.num_nodes());
        assert!(verify_election(&g, &outcome.outputs).is_ok(), "{name}");
        // The exchange moved O(m) words per round: 2 messages per edge per
        // round, 2 words each.
        let stats = outcome.stats.unwrap();
        assert_eq!(stats.messages, 2 * g.num_edges() * phi, "{name}");
        assert_eq!(stats.message_words, 2 * stats.messages, "{name}");
        // Hash-consing keeps the working set at O(n) records per depth.
        let distinct_views = outcome.distinct_views.unwrap();
        assert!(distinct_views <= (phi + 1) * g.num_nodes(), "{name}");
    }
}

/// The smallest `large_graphs()` tier, reconstructed without depending on
/// `anet-bench` (the umbrella crate does not link the bench harness): the
/// same three ~1000-node instances `workloads::large_graphs_up_to(1100)`
/// yields.
fn anet_bench_free_workloads_smallest_tier() -> Vec<(String, Graph)> {
    use anonymous_election::families::ring_of_cliques;
    vec![
        (
            "ring_of_cliques(k=166,x=5)".into(),
            ring_of_cliques::ring_of_cliques_base(166, 5),
        ),
        (
            "necklace(k=92,x=5,phi=3)".into(),
            necklace_base(NecklaceParams {
                k: 92,
                x: 5,
                phi: 3,
            }),
        ),
        (
            "random_sparse(n=1000)".into(),
            generators::random_connected_sparse(1000, 1000, 101),
        ),
    ]
}

#[test]
fn stretched_gadget_elects_despite_local_symmetry() {
    // The Proposition 4.1 gadget is feasible (the hub star is unique), so
    // given enough time and the right advice the election still succeeds —
    // the impossibility is only for advice that does not grow with the family.
    let (g, _hub, _foci) = stretched_gadget(&[1, 0, 2, 0, 3, 0], 0, 3, 8);
    let phi = election_index(&g).expect("feasible");
    let outcome = elect(MinTime, &g).unwrap();
    assert_eq!(outcome.time, phi);
    let d = algo::diameter(&g);
    let slow = elect(Generic { x: phi }, &g).unwrap();
    assert!(slow.time <= d + phi + 1);
}

#[test]
fn infeasible_graphs_are_rejected_by_every_pipeline() {
    for g in [
        generators::ring(6),
        generators::hypercube(3),
        generators::torus(3, 3),
    ] {
        assert!(election_index(&g).is_none());
        assert!(elect(MinTime, &g).is_err());
        assert!(elect(MilestoneScheme(Milestone::AddConstant), &g).is_err());
    }
}

#[test]
fn advice_sizes_track_the_theorem_3_1_bound_on_families() {
    let graphs = vec![
        ring_of_cliques_base(6, 3),
        ring_of_cliques_base(10, 4),
        necklace_base(NecklaceParams { k: 4, x: 3, phi: 3 }),
        lock_chain_graph(2, 2, 1).graph,
    ];
    for g in graphs {
        let advice = compute_advice(&g).unwrap();
        let n = g.num_nodes() as f64;
        assert!(
            (advice.size_bits() as f64) <= 400.0 * n * (n.log2() + 1.0),
            "advice {} bits for n = {}",
            advice.size_bits(),
            n
        );
    }
}
