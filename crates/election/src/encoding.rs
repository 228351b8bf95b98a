//! The paper-exact binary code of depth-1 augmented truncated views
//! (Proposition 3.3).
//!
//! > "Consider a node `v` of degree `k`, and call `v_j` the neighbor of `v`
//! > corresponding to the port `j` at `v`. Let `a_j` be the port at node
//! > `v_j` corresponding to edge `{v, v_j}`, and let `b_j` be the degree of
//! > `v_j`. The augmented truncated view `B^1(v)` can be represented as a
//! > list `((0, a_0, b_0), ..., (k-1, a_{k-1}, b_{k-1}))`."
//!
//! The list is encoded with the doubling `Concat` code. This encoding is what
//! the depth-1 trie queries of the advice refer to ("is the binary
//! representation of your `B^1` shorter than `t`?", "is its `j`-th bit 1?"),
//! so the oracle and the nodes must compute it identically — both call
//! [`bin_b1`].

use anet_advice::{BitString, ConcatWriter};
use anet_graph::{Graph, NodeId};
use anet_views::{AugmentedView, ShardedViewArena, ViewId};

/// The paper's binary representation `bin(B^1(v))` of a view of depth at
/// least 1 (only the depth-1 truncation is encoded).
///
/// # Panics
/// Panics if the view has depth 0 (there is no depth-1 information to encode).
pub fn bin_b1(view: &AugmentedView) -> BitString {
    assert!(
        view.depth() >= 1,
        "bin(B^1) needs a view of depth at least 1"
    );
    encode_triples(
        view.children()
            .iter()
            .map(|(a_j, sub)| (*a_j, sub.degree())),
    )
}

/// `Concat` of the triples `(j, a_j, b_j)` given `(a_j, b_j)` in port order
/// `j = 0, 1, …` — the list form of `B^1` every `bin_b1*` variant encodes.
fn encode_triples(ports: impl Iterator<Item = (usize, usize)>) -> BitString {
    let mut list = ConcatWriter::new();
    let mut triple = ConcatWriter::new();
    for (j, (a_j, b_j)) in ports.enumerate() {
        triple.clear();
        for x in [j, a_j, b_j] {
            triple.uint(x as u64);
        }
        list.part(triple.bits());
    }
    list.finish()
}

/// The length in bits of `bin(B^1(v))`; convenience for Proposition 3.3
/// measurements.
pub fn bin_b1_len(view: &AugmentedView) -> usize {
    bin_b1(view).len()
}

/// [`bin_b1`] evaluated directly on a hash-consed arena view, without
/// materializing the tree: the code only reads the depth-1 truncation
/// (degree, and per port the reverse port and the child's degree), all of
/// which the arena record exposes in `O(Δ)`.
///
/// # Panics
/// Panics if the view has depth 0.
pub fn bin_b1_arena(arena: &ShardedViewArena, id: ViewId) -> BitString {
    assert!(
        arena.depth(id) >= 1,
        "bin(B^1) needs a view of depth at least 1"
    );
    encode_triples(
        arena
            .children(id)
            .into_iter()
            .map(|(a_j, sub)| (a_j, arena.degree(sub))),
    )
}

/// [`bin_b1`] of `B^1(v)` read straight off the graph: per port `j` of `v`,
/// the port `a_j` at the neighbor and the neighbor's degree `b_j`. This is
/// the oracle's reading in `ComputeAdvice`, which works on the graph and
/// its class rows rather than on interned views.
pub(crate) fn bin_b1_node(g: &Graph, v: NodeId) -> BitString {
    encode_triples(
        g.neighbor_slice(v)
            .iter()
            .map(|&(u, a_j)| (a_j, g.degree(u))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators;

    #[test]
    fn encoding_is_injective_on_depth_one_views() {
        let g = generators::caterpillar(5);
        let views = AugmentedView::compute_all(&g, 1);
        for i in 0..views.len() {
            for j in 0..views.len() {
                assert_eq!(
                    views[i] == views[j],
                    bin_b1(&views[i]) == bin_b1(&views[j]),
                    "bin(B^1) must be injective"
                );
            }
        }
    }

    #[test]
    fn encoding_only_depends_on_depth_one_truncation() {
        let g = generators::lollipop(4, 3);
        let deep = AugmentedView::compute_all(&g, 3);
        let shallow = AugmentedView::compute_all(&g, 1);
        for v in g.nodes() {
            assert_eq!(bin_b1(&deep[v]), bin_b1(&shallow[v]));
        }
    }

    #[test]
    fn length_is_o_n_log_n() {
        // Proposition 3.3: |bin(B^1(v))| is O(n log n). The dominant term is
        // the degree: each of the deg(v) triples costs O(log n) bits.
        let g = generators::clique(40);
        let views = AugmentedView::compute_all(&g, 1);
        let n = g.num_nodes() as f64;
        for v in g.nodes() {
            let len = bin_b1_len(&views[v]) as f64;
            assert!(len <= 40.0 * n * n.log2());
        }
    }

    #[test]
    fn arena_encoding_matches_tree_encoding() {
        let g = generators::lollipop(4, 3);
        let arena = ShardedViewArena::new();
        let levels = arena.compute_levels(&g, 2);
        let trees1 = AugmentedView::compute_all(&g, 1);
        let trees2 = AugmentedView::compute_all(&g, 2);
        for v in g.nodes() {
            assert_eq!(bin_b1_arena(&arena, levels[1][v]), bin_b1(&trees1[v]));
            // Deeper views encode only their depth-1 truncation, identically.
            assert_eq!(bin_b1_arena(&arena, levels[2][v]), bin_b1(&trees2[v]));
            assert_eq!(bin_b1_node(&g, v), bin_b1(&trees1[v]));
        }
    }

    #[test]
    #[should_panic]
    fn depth_zero_views_are_rejected() {
        let g = generators::ring(4);
        let v = AugmentedView::compute(&g, 0, 0);
        bin_b1(&v);
    }
}
