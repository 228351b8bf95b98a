//! A hash-consed arena of augmented truncated views.
//!
//! The explicit [`AugmentedView`] tree of a node grows like `Δ^depth`, which
//! confines any component that materializes, clones or exchanges such trees
//! to toy graphs. The key observation is that almost all of that size is
//! *shared* structure: every subtree of `B^l(v)` is `B^{l-1}(u)` for some
//! neighbor `u`, and across a whole graph there are at most `n` distinct
//! subtrees per depth (one per view-equivalence class). A [`ViewArena`]
//! stores each distinct subtree exactly once and identifies it by a dense
//! [`ViewId`]:
//!
//! * **Interning** — [`ViewArena::intern`] maps a `(degree, children)` record
//!   to the id of the unique arena node with that structure, creating it on
//!   first sight. Two views are structurally equal **iff** their ids are
//!   equal, so equality is `O(1)`.
//! * **Canonical order** — [`ViewArena::cmp_views`] implements exactly the
//!   canonical total order of [`AugmentedView`]'s `Ord` (depth, then root
//!   degree, then children in port order), with an equal-id short-circuit so
//!   comparisons only descend into distinguishing subtrees.
//! * **Compact records** — an arena node is `O(Δ)` words (its degree plus one
//!   `(reverse port, child id)` pair per port), so a whole depth-`l` view
//!   costs `O(Δ)` *new* words on top of the already-interned depth-`l-1`
//!   views. This is what makes the simulated `COM` exchange of `anet-sim`
//!   `O(m)` words per round instead of `O(m · Δ^round)`.
//!
//! The arena is the system's working representation; the materialized
//! [`AugmentedView`] tree pipeline remains available (via
//! [`materialize`](ViewArena::materialize) / [`intern_view`](ViewArena::intern_view))
//! as the correctness oracle for property tests.
//!
//! # Example
//!
//! ```
//! use anet_graph::generators;
//! use anet_views::{AugmentedView, ViewArena};
//!
//! let g = generators::lollipop(4, 3);
//! let mut arena = ViewArena::new();
//! // Per-node view ids at depths 0..=2, interned bottom-up.
//! let levels = arena.compute_levels(&g, 2);
//!
//! // Id equality is structural equality of the explicit trees…
//! let views = AugmentedView::compute_all(&g, 2);
//! for u in g.nodes() {
//!     for v in g.nodes() {
//!         assert_eq!(levels[2][u] == levels[2][v], views[u] == views[v]);
//!     }
//! }
//! // …and the arena order is the canonical view order.
//! assert_eq!(
//!     arena.cmp_views(levels[2][0], levels[2][5]),
//!     views[0].cmp(&views[5]),
//! );
//! // The arena stores each distinct subtree once.
//! assert!(arena.len() <= 3 * g.num_nodes());
//! ```

use std::cmp::Ordering;
use std::collections::HashMap;

use anet_graph::{Graph, NodeId, Port};

use crate::view::AugmentedView;

/// A dense identifier of an interned view inside one [`ViewArena`].
///
/// Within a single arena, `a == b` **iff** the two views are structurally
/// equal (same `B^l` object), which is what makes arena-based discrimination
/// queries `O(1)`. Ids from different arenas are unrelated; [`ViewId`]
/// deliberately does not implement `Ord` — the canonical *view* order is
/// [`ViewArena::cmp_views`], not the numeric id order.
///
/// ```
/// use anet_views::ViewArena;
///
/// let mut arena = ViewArena::new();
/// let a = arena.intern_leaf(3);
/// let b = arena.intern_leaf(3); // same record → same id
/// let c = arena.intern_leaf(5);
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// assert_eq!(arena.len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ViewId(u32);

impl ViewId {
    /// The dense index of this id (`0..arena.len()`), usable as a vector
    /// index for side tables keyed by view.
    ///
    /// Ids minted by a [`ShardedViewArena`](crate::ShardedViewArena) are
    /// unique but *not* dense: they pack a shard tag under a per-shard
    /// local index, so they stay below `SHARD_COUNT` times the largest
    /// shard's length. The shards are balanced by a structural hash, so a
    /// vector sized by the largest index in use is still a small multiple
    /// of the number of views, and side tables for those ids are plain
    /// vectors too (the node side of `Elect` labels views this way).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from its raw bits (the sharded arena packs a shard tag
    /// and a per-shard local index into the same 32 bits).
    pub(crate) fn from_raw(raw: u32) -> Self {
        ViewId(raw)
    }

    /// The raw bits of this id.
    pub(crate) fn raw(self) -> u32 {
        self.0
    }
}

/// One interned view record.
#[derive(Debug, Clone)]
struct ViewNode {
    /// Degree of the root node in the graph.
    degree: u32,
    /// Truncation depth of the view this node represents.
    depth: u32,
    /// Children in port order: `(reverse_port, subview)`. Empty iff depth 0.
    children: Box<[(Port, ViewId)]>,
}

/// Hash-consing key: a view is determined by its root degree and children
/// (the depth is implied — all children of a well-formed record share one).
type ViewKey = (u32, Box<[(Port, ViewId)]>);

/// A hash-consed store of augmented truncated views. See the
/// [module documentation](self) for the representation invariants and an
/// example.
#[derive(Debug, Clone, Default)]
pub struct ViewArena {
    nodes: Vec<ViewNode>,
    index: HashMap<ViewKey, ViewId>,
    /// Memo for [`truncate_one`](Self::truncate_one), indexed by `ViewId`.
    trunc_one: Vec<Option<ViewId>>,
}

impl ViewArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        ViewArena::default()
    }

    /// Number of distinct views interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Interns the depth-0 view `B^0` of a node of the given degree.
    pub fn intern_leaf(&mut self, degree: usize) -> ViewId {
        self.intern_record(degree, Vec::new().into_boxed_slice(), 0)
    }

    /// Interns the view assembled from a root degree and its children in
    /// port order (`children[p] = (reverse_port, B^{d-1} of the neighbor on
    /// port p)`), as a node of the `COM` subroutine does — the arena analogue
    /// of [`AugmentedView::from_parts`], with the same contract: an empty
    /// `children` list interns the depth-0 view `B^0` of that degree (it is
    /// *not* an error, exactly as in `from_parts`).
    ///
    /// # Panics
    /// Panics if the record is inconsistent: a positive-depth view must have
    /// exactly `degree` children and all children must have the same depth.
    pub fn intern(&mut self, degree: usize, children: Vec<(Port, ViewId)>) -> ViewId {
        if children.is_empty() {
            return self.intern_leaf(degree);
        }
        assert_eq!(
            children.len(),
            degree,
            "a positive-depth view has one child per port"
        );
        let child_depth = self.depth(children[0].1);
        assert!(
            children.iter().all(|&(_, c)| self.depth(c) == child_depth),
            "all children must have the same depth"
        );
        self.intern_record(degree, children.into_boxed_slice(), child_depth as u32 + 1)
    }

    fn intern_record(
        &mut self,
        degree: usize,
        children: Box<[(Port, ViewId)]>,
        depth: u32,
    ) -> ViewId {
        let key: ViewKey = (degree as u32, children);
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let id = ViewId(u32::try_from(self.nodes.len()).expect("arena capacity exceeded"));
        self.nodes.push(ViewNode {
            degree: key.0,
            depth,
            children: key.1.clone(),
        });
        self.trunc_one.push(None);
        self.index.insert(key, id);
        id
    }

    /// Degree of the root node of the view.
    pub fn degree(&self, id: ViewId) -> usize {
        self.nodes[id.index()].degree as usize
    }

    /// Truncation depth `l` of the view.
    pub fn depth(&self, id: ViewId) -> usize {
        self.nodes[id.index()].depth as usize
    }

    /// The children of the root in port order, as `(reverse_port, subview)`.
    pub fn children(&self, id: ViewId) -> &[(Port, ViewId)] {
        &self.nodes[id.index()].children
    }

    /// The subview through port `p` of the root, with the reverse port, if
    /// the view has positive depth.
    pub fn child(&self, id: ViewId, p: Port) -> Option<(Port, ViewId)> {
        self.nodes[id.index()].children.get(p).copied()
    }

    /// The canonical total order on views: depth, then root degree, then the
    /// children in port order, each compared by (reverse port, subview) —
    /// exactly [`AugmentedView`]'s `Ord`. Equal ids short-circuit, so the
    /// comparison only descends into distinguishing subtrees.
    pub fn cmp_views(&self, a: ViewId, b: ViewId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        let (na, nb) = (&self.nodes[a.index()], &self.nodes[b.index()]);
        na.depth
            .cmp(&nb.depth)
            .then_with(|| na.degree.cmp(&nb.degree))
            .then_with(|| {
                for (&(pa, ca), &(pb, cb)) in na.children.iter().zip(nb.children.iter()) {
                    let ord = pa.cmp(&pb).then_with(|| self.cmp_views(ca, cb));
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                // Same depth and degree ⇒ same number of children; two views
                // with identical children would have been interned to one id.
                unreachable!("distinct interned views must differ structurally")
            })
    }

    /// The view truncated to one less depth (`B^{d-1}` of the same root),
    /// interned. Memoized, so repeated truncations (as performed by
    /// `RetrieveLabel`) cost amortized `O(Δ)` per *distinct* view.
    ///
    /// # Panics
    /// Panics on a depth-0 view.
    pub fn truncate_one(&mut self, id: ViewId) -> ViewId {
        let depth = self.depth(id);
        assert!(depth >= 1, "cannot truncate a depth-0 view");
        if let Some(t) = self.trunc_one[id.index()] {
            return t;
        }
        let degree = self.degree(id);
        let result = if depth == 1 {
            self.intern_leaf(degree)
        } else {
            let children: Vec<(Port, ViewId)> = self.children(id).to_vec();
            let truncated: Vec<(Port, ViewId)> = children
                .into_iter()
                .map(|(q, c)| (q, self.truncate_one(c)))
                .collect();
            self.intern(degree, truncated)
        };
        self.trunc_one[id.index()] = Some(result);
        result
    }

    /// Interns `B^depth(v)` for every node of `g` and every depth
    /// `0..=depth`, sharing work bottom-up exactly like
    /// [`AugmentedView::compute_all`]; `result[d][v]` is the id of `B^d(v)`.
    /// Total work is `O(m)` per depth (amortized over the interning hashes).
    pub fn compute_levels(&mut self, g: &Graph, depth: usize) -> Vec<Vec<ViewId>> {
        let n = g.num_nodes();
        let mut levels: Vec<Vec<ViewId>> = Vec::with_capacity(depth + 1);
        levels.push((0..n).map(|v| self.intern_leaf(g.degree(v))).collect());
        for d in 1..=depth {
            let mut next = Vec::with_capacity(n);
            for v in 0..n {
                let children: Vec<(Port, ViewId)> =
                    g.ports(v).map(|(_, u, q)| (q, levels[d - 1][u])).collect();
                next.push(self.intern(g.degree(v), children));
            }
            levels.push(next);
        }
        levels
    }

    /// Interns the view `B^depth(v)` of a single node (a thin convenience
    /// over [`compute_levels`](Self::compute_levels) semantics).
    pub fn compute(&mut self, g: &Graph, v: NodeId, depth: usize) -> ViewId {
        if depth == 0 {
            return self.intern_leaf(g.degree(v));
        }
        let neighbors: Vec<(NodeId, Port)> = g.ports(v).map(|(_, u, q)| (u, q)).collect();
        let children: Vec<(Port, ViewId)> = neighbors
            .into_iter()
            .map(|(u, q)| (q, self.compute(g, u, depth - 1)))
            .collect();
        self.intern(g.degree(v), children)
    }

    /// Interns an explicit [`AugmentedView`] tree (the bridge from the
    /// materialized oracle pipeline into the arena).
    pub fn intern_view(&mut self, view: &AugmentedView) -> ViewId {
        let children: Vec<(Port, ViewId)> = view
            .children()
            .iter()
            .map(|(q, sub)| (*q, self.intern_view(sub)))
            .collect();
        self.intern(view.degree(), children)
    }

    /// Materializes the explicit [`AugmentedView`] tree of an interned view
    /// (the bridge back to the oracle pipeline; exponential in depth, for
    /// tests and small graphs only).
    pub fn materialize(&self, id: ViewId) -> AugmentedView {
        let children: Vec<(Port, AugmentedView)> = self
            .children(id)
            .iter()
            .map(|&(q, c)| (q, self.materialize(c)))
            .collect();
        AugmentedView::from_parts(self.degree(id), children)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators;

    #[test]
    fn interning_is_structural_equality() {
        let g = generators::lollipop(4, 3);
        let mut arena = ViewArena::new();
        let levels = arena.compute_levels(&g, 3);
        for (d, level) in levels.iter().enumerate() {
            let views = AugmentedView::compute_all(&g, d);
            for u in g.nodes() {
                for v in g.nodes() {
                    assert_eq!(
                        level[u] == level[v],
                        views[u] == views[v],
                        "depth {d}, nodes {u}/{v}"
                    );
                }
            }
        }
    }

    #[test]
    fn cmp_views_matches_augmented_view_ord() {
        let g = generators::caterpillar(5);
        let mut arena = ViewArena::new();
        let levels = arena.compute_levels(&g, 2);
        // Same-depth comparisons (the order used by the election pipeline).
        for (d, level) in levels.iter().enumerate() {
            let views = AugmentedView::compute_all(&g, d);
            for u in g.nodes() {
                for v in g.nodes() {
                    assert_eq!(
                        arena.cmp_views(level[u], level[v]),
                        views[u].cmp(&views[v]),
                        "depth {d}, nodes {u}/{v}"
                    );
                }
            }
        }
        // Cross-depth comparisons follow the same depth-first rule.
        let v1 = AugmentedView::compute_all(&g, 1);
        let v2 = AugmentedView::compute_all(&g, 2);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    arena.cmp_views(levels[1][u], levels[2][v]),
                    v1[u].cmp(&v2[v])
                );
            }
        }
    }

    #[test]
    fn arena_size_is_bounded_by_classes_not_tree_size() {
        // In a necklace-like symmetric graph the explicit views explode while
        // the arena stays at O(#classes per depth).
        let g = generators::torus(4, 5);
        let mut arena = ViewArena::new();
        let depth = 6;
        let _ = arena.compute_levels(&g, depth);
        // Per depth there can be at most n distinct views.
        assert!(arena.len() <= (depth + 1) * g.num_nodes());
        // The explicit tree at depth 6 alone has 4^6-ish nodes per view.
        let explicit = AugmentedView::compute(&g, 0, depth);
        assert!(explicit.size() > arena.len());
    }

    #[test]
    fn truncate_one_matches_explicit_truncate() {
        let g = generators::lollipop(5, 4);
        let mut arena = ViewArena::new();
        let levels = arena.compute_levels(&g, 3);
        for v in g.nodes() {
            for d in 1..=3usize {
                let t = arena.truncate_one(levels[d][v]);
                assert_eq!(t, levels[d - 1][v], "depth {d}, node {v}");
                // And the memo returns the same id again.
                assert_eq!(arena.truncate_one(levels[d][v]), t);
            }
        }
    }

    #[test]
    fn materialize_roundtrips_through_intern_view() {
        let g = generators::star(4);
        let mut arena = ViewArena::new();
        for v in g.nodes() {
            for d in 0..3 {
                let explicit = AugmentedView::compute(&g, v, d);
                let id = arena.intern_view(&explicit);
                assert_eq!(arena.materialize(id), explicit);
                assert_eq!(arena.depth(id), d);
                assert_eq!(arena.degree(id), explicit.degree());
            }
        }
    }

    #[test]
    fn compute_matches_compute_levels() {
        let g = generators::random_connected(15, 0.2, 3);
        let mut arena = ViewArena::new();
        let levels = arena.compute_levels(&g, 2);
        for v in g.nodes() {
            assert_eq!(arena.compute(&g, v, 2), levels[2][v]);
        }
    }

    #[test]
    fn child_navigation_follows_ports() {
        let g = generators::path(3);
        let mut arena = ViewArena::new();
        let levels = arena.compute_levels(&g, 1);
        let mid = levels[1][1];
        let (q0, c0) = arena.child(mid, 0).unwrap();
        assert_eq!(arena.degree(c0), 1);
        assert_eq!(q0, 0);
        assert!(arena.child(mid, 2).is_none());
    }

    #[test]
    #[should_panic]
    fn truncating_a_leaf_panics() {
        let mut arena = ViewArena::new();
        let leaf = arena.intern_leaf(2);
        arena.truncate_one(leaf);
    }

    #[test]
    #[should_panic]
    fn inconsistent_child_count_panics() {
        let mut arena = ViewArena::new();
        let leaf = arena.intern_leaf(1);
        arena.intern(3, vec![(0, leaf)]);
    }
}
