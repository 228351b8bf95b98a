//! Rooted labeled trees with port numbers (item `A2` of the advice).
//!
//! The advice of the minimum-time election algorithm ships the canonical BFS
//! tree of the graph, with every node labeled by the integer label it will
//! compute from item `A1`, and with the graph's port numbers on both
//! endpoints of every tree edge. Nodes decode this tree, find themselves by
//! label, and output the port sequence of the tree path to the root.
//!
//! ## Layout
//!
//! A [`LabeledTree`] is flat: one vector of nodes in preorder, children in
//! port order at their parent, each node holding its label, the preorder
//! position of its parent, the ports of the edge to it and its child count.
//! The root is position 0 and every parent precedes its children, so the
//! path to the root is a loop over parent positions, and building,
//! encoding, decoding and drop are loops too — a tree as deep as its node
//! count cannot overflow the stack.
//!
//! The codec packs the preorder with the doubling [`crate::codec`] code:
//! the root contributes `[label, k]` and every other node `[p, q, label,
//! k]`, where `p` and `q` are the ports at the parent and at the node and
//! `k` is the child count. For an `n`-node tree with labels in `O(n)` its
//! length is `O(n log n)` bits (Proposition 3.1).

use crate::bitstring::BitString;
use crate::codec::{decode_uints, ConcatWriter, DecodeError};

/// One preorder entry of a flat tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    label: u64,
    /// Preorder position of the parent (0, unread, at the root).
    parent: usize,
    /// Port of the edge to the parent at the parent (0 at the root).
    port_at_parent: u64,
    /// Port of the edge to the parent at this node (0 at the root).
    port_at_node: u64,
    children: usize,
}

/// A rooted tree whose nodes carry integer labels and whose edges carry the
/// port numbers of the underlying graph at both endpoints, stored flat in
/// preorder (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledTree {
    /// Never empty: position 0 is the root.
    nodes: Vec<Node>,
}

impl LabeledTree {
    /// Builds the tree on nodes `0..labels.len()` rooted at `root`, where
    /// `parents[v] = (u, p, q)` says that `v`'s parent is `u`, through port
    /// `p` at `u` and port `q` at `v` (the root's entry is ignored). Node
    /// `v` carries `labels[v]`, and children are ordered by their port at
    /// the parent.
    ///
    /// Returns `None` unless the entries form one tree spanning every node.
    pub fn from_parents(
        root: usize,
        labels: &[u64],
        parents: &[(usize, u64, u64)],
    ) -> Option<Self> {
        let n = labels.len();
        if parents.len() != n || root >= n {
            return None;
        }
        // The children of every node, counting-sorted by parent.
        let mut start = vec![0usize; n + 1];
        for (v, &(u, _, _)) in parents.iter().enumerate() {
            if v != root {
                *start.get_mut(u + 1)? += 1;
            }
        }
        for u in 0..n {
            start[u + 1] += start[u];
        }
        let mut next = start.clone();
        let mut kids = vec![0usize; n - 1];
        for (v, &(u, _, _)) in parents.iter().enumerate() {
            if v != root {
                *kids.get_mut(next[u])? = v;
                next[u] += 1;
            }
        }
        for u in 0..n {
            kids[start[u]..start[u + 1]].sort_unstable_by_key(|&c| (parents[c].1, c));
        }
        let mut nodes = Vec::with_capacity(n);
        let mut pending = vec![(root, 0usize)];
        while let Some((v, parent)) = pending.pop() {
            let (_, p, q) = if v == root { (0, 0, 0) } else { parents[v] };
            let children = &kids[start[v]..start[v + 1]];
            pending.extend(children.iter().rev().map(|&c| (c, nodes.len())));
            nodes.push(Node {
                label: labels[v],
                parent,
                port_at_parent: p,
                port_at_node: q,
                children: children.len(),
            });
        }
        (nodes.len() == n).then_some(LabeledTree { nodes })
    }

    /// Number of nodes in the tree.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the tree (a single node has depth 0).
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate().skip(1) {
            depth[i] = depth[node.parent] + 1;
        }
        depth.into_iter().max().unwrap_or(0)
    }

    /// All labels in the tree, in preorder (position `i` is the `i`-th
    /// label; the root's comes first).
    pub fn labels(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.nodes.iter().map(|node| node.label)
    }

    /// The hops of the path from the node at preorder position `pos` up to
    /// the root, each as `(port at the lower node, port at its parent)`;
    /// `None` if there is no such position. `O(1)` per hop.
    pub fn hops_from(&self, pos: usize) -> Option<impl Iterator<Item = (u64, u64)> + '_> {
        self.nodes.get(pos)?;
        let mut pos = pos;
        Some(std::iter::from_fn(move || {
            let node = self.nodes.get(pos).filter(|_| pos != 0)?;
            pos = node.parent;
            Some((node.port_at_node, node.port_at_parent))
        }))
    }

    /// Finds the path from the node labeled `label` (the first in preorder)
    /// up to the root, as the flat port sequence `(p1, q1, ..., pk, qk)`
    /// (outgoing port first, then the port at the next node), or `None` if
    /// the label is absent. An `O(n)` search; a caller looking up many
    /// labels indexes [`labels`](Self::labels) once and walks
    /// [`hops_from`](Self::hops_from).
    ///
    /// This is exactly what Algorithm `Elect` outputs: the port numbers of
    /// the unique simple tree path from the node to the root.
    pub fn path_to_root(&self, label: u64) -> Option<Vec<u64>> {
        let pos = self.labels().position(|l| l == label)?;
        Some(self.hops_from(pos)?.flat_map(|(p, q)| [p, q]).collect())
    }

    /// Encodes the tree as a uniquely decodable bit string of length
    /// `O(n log n)` for labels in `O(n)`.
    pub fn encode(&self) -> BitString {
        let mut w = ConcatWriter::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if i > 0 {
                w.uint(node.port_at_parent);
                w.uint(node.port_at_node);
            }
            w.uint(node.label);
            w.uint(node.children as u64);
        }
        w.finish()
    }

    /// Decodes a tree produced by [`encode`](LabeledTree::encode).
    ///
    /// A child count is never trusted further than the input: every child
    /// takes four more integers, so a count above a quarter of the integers
    /// left is refused as [`DecodeError::Truncated`], like a preorder that
    /// ends early or runs on after the tree is complete.
    pub fn decode_bits(encoded: &BitString) -> Result<LabeledTree, DecodeError> {
        let ints = decode_uints(encoded)?;
        let mut rest = ints.iter().copied();
        let mut nodes = Vec::new();
        // (position, children still to read) of every open node.
        let mut open: Vec<(usize, usize)> = Vec::new();
        loop {
            let (parent, p, q) = match open.last_mut() {
                None if nodes.is_empty() => (0, 0, 0),
                None => break,
                Some((_, 0)) => {
                    open.pop();
                    continue;
                }
                Some((pos, left)) => {
                    *left -= 1;
                    let pos = *pos;
                    (pos, take_int(&mut rest)?, take_int(&mut rest)?)
                }
            };
            let label = take_int(&mut rest)?;
            let children = usize::try_from(take_int(&mut rest)?)
                .ok()
                .filter(|&k| k <= rest.len() / 4)
                .ok_or(DecodeError::Truncated)?;
            open.push((nodes.len(), children));
            nodes.push(Node {
                label,
                parent,
                port_at_parent: p,
                port_at_node: q,
                children,
            });
        }
        if rest.len() != 0 {
            return Err(DecodeError::Truncated);
        }
        Ok(LabeledTree { nodes })
    }
}

/// The next integer of a preorder, or [`DecodeError::Truncated`].
fn take_int(ints: &mut impl Iterator<Item = u64>) -> Result<u64, DecodeError> {
    ints.next().ok_or(DecodeError::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::concat_uints;

    fn sample_tree() -> LabeledTree {
        // Root 0 labeled 1 with two children (labels 2, 3) on ports 0 and
        // 1; the node labeled 3 has a child labeled 4 on its port 2.
        LabeledTree::from_parents(
            0,
            &[1, 2, 3, 4],
            &[(0, 0, 0), (0, 0, 1), (0, 1, 0), (2, 2, 0)],
        )
        .unwrap()
    }

    /// A path-shaped tree with labels `1..=n` from the root down.
    fn path_tree(n: usize) -> LabeledTree {
        let labels: Vec<u64> = (1..=n as u64).collect();
        let parents: Vec<(usize, u64, u64)> = (0..n).map(|v| (v.saturating_sub(1), 0, 1)).collect();
        LabeledTree::from_parents(0, &labels, &parents).unwrap()
    }

    #[test]
    fn size_depth_labels() {
        let t = sample_tree();
        assert_eq!(t.size(), 4);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.labels().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        let leaf = LabeledTree::from_parents(0, &[9], &[(0, 0, 0)]).unwrap();
        assert_eq!(leaf.depth(), 0);
    }

    #[test]
    fn path_to_root_produces_port_pairs_bottom_up() {
        let t = sample_tree();
        // Going up, each hop outputs the port at the lower node first, then
        // the port at its parent.
        assert_eq!(t.path_to_root(4), Some(vec![0, 2, 0, 1]));
        assert_eq!(t.path_to_root(2), Some(vec![1, 0]));
        assert_eq!(t.path_to_root(1), Some(vec![]));
        assert_eq!(t.path_to_root(7), None);
        assert_eq!(
            t.hops_from(3).unwrap().collect::<Vec<_>>(),
            [(0, 2), (0, 1)]
        );
        assert!(t.hops_from(4).is_none());
    }

    #[test]
    fn hops_walk_reproduces_path_to_root() {
        // The walk a node makes from its own preorder position is the
        // oracle's search for its label, hop for hop.
        for t in [sample_tree(), path_tree(7)] {
            for (pos, label) in t.labels().enumerate() {
                let walked: Vec<u64> = t
                    .hops_from(pos)
                    .unwrap()
                    .flat_map(|(p, q)| [p, q])
                    .collect();
                assert_eq!(Some(walked), t.path_to_root(label), "label {label}");
            }
        }
    }

    #[test]
    fn children_follow_port_order_whatever_the_node_order() {
        // The same tree with its nodes numbered differently.
        let t = LabeledTree::from_parents(
            3,
            &[4, 3, 2, 1],
            &[(1, 2, 0), (3, 1, 0), (3, 0, 1), (0, 0, 0)],
        )
        .unwrap();
        assert_eq!(t, sample_tree());
    }

    #[test]
    fn from_parents_refuses_what_is_not_one_spanning_tree() {
        // A cycle away from the root, a parent out of range, a root out of
        // range and mismatched lengths.
        let cyclic = [(0, 0, 0), (2, 0, 0), (1, 1, 1)];
        assert_eq!(LabeledTree::from_parents(0, &[1, 2, 3], &cyclic), None);
        assert_eq!(
            LabeledTree::from_parents(0, &[1, 2], &[(0, 0, 0), (5, 0, 0)]),
            None
        );
        assert_eq!(
            LabeledTree::from_parents(2, &[1, 2], &[(0, 0, 0), (0, 0, 0)]),
            None
        );
        assert_eq!(LabeledTree::from_parents(0, &[1, 2], &[(0, 0, 0)]), None);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = sample_tree();
        let enc = t.encode();
        // Root [label, k], then [p, q, label, k] per node in preorder.
        assert_eq!(
            enc,
            concat_uints(&[1, 2, 0, 1, 2, 0, 1, 0, 3, 1, 2, 0, 4, 0])
        );
        assert_eq!(LabeledTree::decode_bits(&enc).unwrap(), t);
    }

    #[test]
    fn encode_decode_wide_tree() {
        let labels: Vec<u64> = (1..=51).collect();
        let parents: Vec<(usize, u64, u64)> = (0..51).map(|v| (0, v as u64, 0)).collect();
        let t = LabeledTree::from_parents(0, &labels, &parents).unwrap();
        let enc = t.encode();
        assert_eq!(LabeledTree::decode_bits(&enc).unwrap(), t);
        // 51 nodes, labels < 64: comfortably O(n log n).
        assert!(enc.len() < 51 * 64);
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let t = sample_tree();
        let enc = t.encode();
        let truncated: BitString = enc.iter().take(enc.len() - 8).collect();
        assert!(LabeledTree::decode_bits(&truncated).is_err());
        assert!(LabeledTree::decode_bits(&BitString::new()).is_err());
        // A complete tree followed by more integers.
        assert_eq!(
            LabeledTree::decode_bits(&concat_uints(&[1, 0, 7])),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn forged_child_counts_are_refused_without_allocating() {
        for k in [1 << 40, u64::MAX, 1] {
            assert_eq!(
                LabeledTree::decode_bits(&concat_uints(&[1, k])),
                Err(DecodeError::Truncated),
                "count {k}"
            );
        }
        // Exactly as many integers as the count promises is fine.
        let one_child = concat_uints(&[1, 1, 0, 0, 2, 0]);
        assert_eq!(LabeledTree::decode_bits(&one_child).unwrap().size(), 2);
    }

    #[test]
    fn length_scales_n_log_n() {
        // Empirical Proposition 3.1: a path-shaped tree with n nodes and
        // labels 1..=n encodes into O(n log n) bits.
        for n in [10usize, 100, 500] {
            let bits = path_tree(n).encode().len() as f64;
            let n = n as f64;
            let bound = 12.0 * n * (n.log2() + 1.0);
            assert!(bits < bound, "n = {n}: {bits} >= {bound}");
        }
    }

    #[test]
    fn deep_path_tree_is_stack_safe() {
        // Building, encoding, decoding, the walk from the deepest node and
        // the drop all run on the default test-thread stack.
        let n = 100_000;
        let t = path_tree(n);
        assert_eq!(t.depth(), n - 1);
        let enc = t.encode();
        let back = LabeledTree::decode_bits(&enc).unwrap();
        assert_eq!(back.encode(), enc);
        assert_eq!(back, t);
        let path = back.path_to_root(n as u64).unwrap();
        assert_eq!(path.len(), 2 * (n - 1));
        assert!(path.chunks(2).all(|hop| hop == [1, 0]));
        drop(back);
        drop(t);
    }
}
