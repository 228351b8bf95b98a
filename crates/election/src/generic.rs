//! Algorithm `Generic(x)` (Algorithm 7) and the milestone algorithms built on
//! it.
//!
//! `Generic(x)`, run with any parameter `x >= φ(G)`, elects a leader in time
//! at most `D + x + 1` (Lemma 4.1). Nodes keep exchanging views; from round
//! `x` on, a node watches the set of depth-`x` views of the nodes it has
//! discovered and stops in the first round in which the frontier contributes
//! no new depth-`x` view. It then outputs a shortest path (in its view) to
//! the node with the lexicographically smallest depth-`x` view.
//!
//! ## Simulation note
//!
//! A node's decision in round `r` is a function of `B^r(u)`. Materializing
//! those views is exponential in `r` (and `r` reaches `D + x` here), so this
//! module evaluates the *same function* directly on the graph: the nodes at
//! depth `t` of `B^{r+1}(u)` are exactly the graph nodes reachable from `u`
//! by a walk of length `t`, and their depth-`x` views are compared through
//! the [`anet_views::ViewClasses`] refinement table (class equality ⇔ view equality,
//! class order ⇔ canonical view order). Every step of the pseudocode is
//! emulated faithfully; only the representation of knowledge differs. This
//! substitution is recorded in `DESIGN.md`.

use anet_graph::{algo, ClassId, Graph, NodeId, Port, PortPath};
use anet_views::walks;

use crate::instance::Instance;

/// Executes `Generic(x)` on every node against an instance's cached
/// analysis, returning the per-node halting rounds and outputs (the
/// unverified run; [`crate::Generic::run`] verifies and wraps it). The
/// schemes call it only once `D + x + 1` fits in a `usize`, which bounds
/// every halting round `x + ecc(u) + 1`.
///
/// When the depth-`x` views of all nodes are distinct (always the case for
/// `x >= φ` on feasible graphs) the per-node emulation collapses to a
/// closed form — see [`run_all_distinct`] — making the run `O(n · m)`
/// instead of `O(n · m · D)`; otherwise every node is emulated faithfully
/// by [`run_single_node`]. Both paths compute the same function (asserted
/// by tests pitting them against each other on graphs where both apply).
pub(crate) fn run_on_instance(inst: &Instance, x: usize) -> (Vec<usize>, Vec<PortPath>) {
    let g = inst.graph();
    let row = inst.class_row(x);
    if inst.num_classes_at(x) == g.num_nodes() {
        run_all_distinct(g, &row, x, inst.eccentricities())
    } else {
        let mut halt_rounds = Vec::with_capacity(g.num_nodes());
        let mut outputs = Vec::with_capacity(g.num_nodes());
        for u in g.nodes() {
            let (rounds, path) = run_single_node(g, &row, u, x);
            halt_rounds.push(rounds);
            outputs.push(path);
        }
        (halt_rounds, outputs)
    }
}

/// The closed form of `Generic(x)` when all depth-`x` views are distinct.
///
/// With distinct views, "the frontier contributes no new depth-`x` view"
/// degenerates to "the frontier contributes no new *node*". A node `v` is
/// reachable from `u` by a walk of length exactly `l` iff `l >= d_p(u, v)`
/// for `p = l mod 2` (walks extend by back-and-forth steps of two), so the
/// set of nodes known after `t` extra rounds is exactly the distance-`t`
/// ball, and the first `t` whose frontier adds nothing is the eccentricity
/// of `u` (every node at distance `t + 1` is a new node of the frontier,
/// and its distance has the frontier's parity by definition). Each node
/// therefore halts after exactly `x + ecc(u) + 1` rounds having discovered
/// the whole graph, and outputs the lexicographically smallest shortest
/// path to the unique globally-smallest depth-`x` view.
fn run_all_distinct(
    g: &Graph,
    row: &[ClassId],
    x: usize,
    ecc: &[usize],
) -> (Vec<usize>, Vec<PortPath>) {
    let w = row
        .iter()
        .enumerate()
        .min_by_key(|&(_, &c)| c)
        .map(|(v, _)| v)
        .expect("graphs are non-empty");
    let dist_to_w = algo::bfs_distances(g, w);
    let halt_rounds = ecc.iter().map(|&e| x + e + 1).collect();
    let outputs = g
        .nodes()
        .map(|u| lex_smallest_shortest_path_via(g, &dist_to_w, u))
        .collect();
    (halt_rounds, outputs)
}

/// Emulates `Generic(x)` for one node against the depth-`x` class row
/// (`row[v]` = class of `B^x(v)`); returns the number of rounds used and
/// the output path. This is the faithful per-node reading of Algorithm 7
/// and the oracle [`run_all_distinct`] is checked against.
pub(crate) fn run_single_node(
    g: &Graph,
    row: &[ClassId],
    u: NodeId,
    x: usize,
) -> (usize, PortPath) {
    // The repeat loop: in the iteration with loop variable r (starting at x),
    // the node has executed COM(0..=r) and thus knows B^{r+1}(u). It stops in
    // the first iteration where the views at depth exactly (r - x + 1) of its
    // view tree (i.e. of nodes reachable by walks of that length) add nothing
    // new over those at depth at most (r - x).
    let mut t = 0usize; // t = r - x
    let halted_t = loop {
        let within = walks::reach_within(g, u, t);
        let frontier = walks::reach_exact(g, u, t + 1);
        let known: std::collections::BTreeSet<usize> = walks::members(&within)
            .into_iter()
            .map(|v| row[v])
            .collect();
        let new: std::collections::BTreeSet<usize> = walks::members(&frontier)
            .into_iter()
            .map(|v| row[v])
            .collect();
        if new.is_subset(&known) {
            break t;
        }
        t += 1;
    };
    // The node has used rounds 0..=x+halted_t, i.e. x + halted_t + 1 rounds.
    let rounds_used = x + halted_t + 1;

    // Bmin: the lexicographically smallest depth-x view among the discovered
    // nodes; W: the discovered nodes of smallest depth carrying it; w: the
    // one reached by the lexicographically smallest port sequence. The output
    // is the port sequence of the shortest path from u to w in the view,
    // which is the lexicographically smallest shortest path in the graph.
    let within = walks::reach_within(g, u, halted_t);
    let candidates = walks::members(&within);
    let best_class = candidates
        .iter()
        .map(|&v| row[v])
        .min()
        .expect("at least u itself is discovered");
    let dist_from_u = algo::bfs_distances(g, u);
    let w = candidates
        .iter()
        .copied()
        .filter(|&v| row[v] == best_class)
        .min_by_key(|&v| {
            (
                dist_from_u[v],
                lex_smallest_shortest_path(g, u, v).to_flat(),
            )
        })
        .expect("a candidate with the smallest class exists");
    (rounds_used, lex_smallest_shortest_path(g, u, w))
}

/// The lexicographically smallest (as a flat port sequence) shortest path
/// from `from` to `to`.
pub fn lex_smallest_shortest_path(g: &Graph, from: NodeId, to: NodeId) -> PortPath {
    lex_smallest_shortest_path_via(g, &algo::bfs_distances(g, to), from)
}

/// [`lex_smallest_shortest_path`] against a precomputed distance map of the
/// target (`dist_to_target[v]` = `d(v, to)`), so runs that route every node
/// to one common target pay a single BFS.
pub(crate) fn lex_smallest_shortest_path_via(
    g: &Graph,
    dist_to_target: &[usize],
    from: NodeId,
) -> PortPath {
    let mut path = PortPath::empty();
    let mut cur = from;
    while dist_to_target[cur] > 0 {
        // Among neighbors strictly closer to the target, the smallest
        // outgoing port wins (ports are distinct, so no tie).
        let mut chosen: Option<(Port, NodeId, Port)> = None;
        for (p, v, q) in g.ports(cur) {
            if dist_to_target[v] + 1 == dist_to_target[cur] {
                chosen = Some((p, v, q));
                break;
            }
        }
        let (p, v, q) = chosen.expect("a shortest path step always exists");
        path.push(p, q);
        cur = v;
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ElectionError;
    use crate::scheme::{AdviceScheme, Generic, Outcome};
    use anet_graph::generators;
    use anet_views::{election_index, ViewClasses};

    /// `Generic(x)` on a fresh session of `g`.
    fn generic(g: &Graph, x: usize) -> Result<Outcome, ElectionError> {
        Generic { x }.elect(&Instance::new(g))
    }

    fn feasible_samples() -> Vec<Graph> {
        vec![
            generators::star(5),
            generators::caterpillar(5),
            generators::lollipop(4, 4),
            generators::lollipop(6, 8),
            generators::random_connected(20, 0.12, 4),
            generators::random_connected(30, 0.08, 7),
            generators::random_tree(18, 6),
        ]
        .into_iter()
        .filter(|g| election_index(g).is_some())
        .collect()
    }

    #[test]
    fn generic_elects_within_d_plus_x_plus_one_rounds() {
        for g in feasible_samples() {
            let phi = election_index(&g).unwrap();
            let d = algo::diameter(&g);
            for x in [phi, phi + 1, phi + 3] {
                let outcome = generic(&g, x).expect("Lemma 4.1: election succeeds");
                assert!(
                    outcome.time <= d + x + 1,
                    "time {} exceeds D + x + 1 = {}",
                    outcome.time,
                    d + x + 1
                );
            }
        }
    }

    #[test]
    fn generic_leader_is_the_node_with_smallest_view() {
        for g in feasible_samples() {
            let phi = election_index(&g).unwrap();
            let outcome = generic(&g, phi).unwrap();
            let classes = ViewClasses::compute(&g, phi);
            let expected = classes.smallest_view_nodes(phi);
            assert_eq!(expected, vec![outcome.leader]);
        }
    }

    #[test]
    fn all_nodes_elect_the_same_leader_with_simple_paths() {
        for g in feasible_samples() {
            let phi = election_index(&g).unwrap();
            let outcome = generic(&g, phi + 2).unwrap();
            for (v, p) in outcome.outputs.iter().enumerate() {
                assert!(p.is_simple(&g, v));
                assert_eq!(p.endpoint(&g, v), Some(outcome.leader));
            }
        }
    }

    #[test]
    fn larger_x_never_elects_faster_than_d() {
        // The halting round of every node is at least x + 1 by construction.
        let g = generators::lollipop(4, 5);
        let phi = election_index(&g).unwrap();
        let outcome = generic(&g, phi + 4).unwrap();
        assert!(outcome.halt_rounds.iter().all(|&r| r > phi + 4));
    }

    #[test]
    fn lex_smallest_shortest_path_is_shortest_and_minimal() {
        let g = generators::torus(3, 4);
        for u in g.nodes() {
            for v in g.nodes() {
                let p = lex_smallest_shortest_path(&g, u, v);
                assert_eq!(p.len(), algo::distance(&g, u, v));
                assert!(p.is_simple(&g, u));
                assert_eq!(p.endpoint(&g, u), Some(v));
            }
        }
    }

    #[test]
    fn closed_form_matches_per_node_emulation() {
        // Whenever the depth-x views are all distinct both execution paths
        // apply; they must agree on every halting round and every output.
        for g in feasible_samples() {
            let phi = election_index(&g).unwrap();
            for x in [phi, phi + 2] {
                let inst = Instance::new(&g);
                let row = inst.class_row(x);
                assert_eq!(inst.num_classes_at(x), g.num_nodes());
                let (fast_halts, fast_outputs) = run_on_instance(&inst, x);
                for u in g.nodes() {
                    let (rounds, path) = run_single_node(&g, &row, u, x);
                    assert_eq!(fast_halts[u], rounds, "halt of node {u}, x = {x}");
                    assert_eq!(fast_outputs[u], path, "output of node {u}, x = {x}");
                }
            }
        }
    }

    #[test]
    fn undersized_x_can_break_election() {
        // With x < φ the depth-x views are not unique; running Generic(x) may
        // elect different leaders at different nodes. We only require that the
        // harness detects the failure rather than reporting a bogus success
        // on at least one sample where ambiguity exists.
        let mut saw_failure_or_success = false;
        for g in feasible_samples() {
            let phi = election_index(&g).unwrap();
            if phi == 0 {
                continue;
            }
            let result = generic(&g, phi.saturating_sub(1));
            saw_failure_or_success = true;
            if let Ok(outcome) = result {
                // If it succeeded the outputs must still verify (they did).
                assert!(outcome.time > 0);
            }
        }
        assert!(saw_failure_or_success);
    }
}
