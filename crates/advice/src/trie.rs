//! Discrimination tries (item `A1` of the advice).
//!
//! A trie here is a rooted binary tree whose internal nodes carry *queries*
//! `(a, b)` about an object (in the paper: about the augmented truncated view
//! of the node reading the advice) and whose leaves correspond to the objects
//! being discriminated. The left child corresponds to the answer "no" (port
//! 0) and the right child to "yes" (port 1). A trie with `k` leaves has
//! exactly `2k - 1` nodes.
//!
//! ## Layout
//!
//! A [`Trie`] is flat: one vector of nodes in preorder, each holding its
//! query and the number of leaves below it. Because a subtrie with `k`
//! leaves has exactly `2k - 1` nodes (Proposition 3.2), the subtrie rooted
//! at position `i` is the contiguous run `i .. i + 2·leaves(i) - 1`: its
//! left child sits at `i + 1` and its right child at `i + 2·leaves(i + 1)`.
//! The leaf count of any subtrie is therefore `O(1)`, a walk from the root
//! to a leaf is a loop over positions, and encoding, decoding, [`size`],
//! [`height`] and drop are all iterative — a trie as deep as the advice
//! bits allow cannot overflow the stack.
//!
//! [`size`]: Trie::size
//! [`height`]: Trie::height

use crate::bitstring::BitString;
use crate::codec::{decode_uints, ConcatWriter, DecodeError};

/// A query at an internal trie node, encoded as the pair of integers the
/// paper uses (e.g. `(0, t)` = "is the binary representation shorter than
/// `t`?", `(1, j)` = "is the `j`-th bit 1?", `(i, label)` = "is the label of
/// your `i`-th neighbor different from `label`?").
pub type Query = (u64, u64);

/// One preorder entry of a flat trie.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    /// The discrimination query; `(0, 0)` at a leaf.
    query: Query,
    /// Leaves of the subtrie rooted here: exactly 1 at a leaf.
    leaves: usize,
}

const LEAF: Node = Node {
    query: (0, 0),
    leaves: 1,
};

/// A discrimination trie, stored flat in preorder (see the
/// [module docs](self) for the layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trie {
    nodes: Vec<Node>,
}

/// A borrowed subtrie: the contiguous preorder run of one [`Trie`] node and
/// its descendants. Navigating with [`split`](TrieRef::split) costs `O(1)`
/// per step and copies nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrieRef<'a> {
    nodes: &'a [Node],
}

impl<'a> TrieRef<'a> {
    /// The root's query and its two subtries, or `None` at a leaf — the
    /// flat counterpart of matching an internal node.
    pub fn split(self) -> Option<(Query, TrieRef<'a>, TrieRef<'a>)> {
        let (root, rest) = self.nodes.split_first()?;
        let left_len = 2 * rest.first()?.leaves - 1;
        let left = rest.get(..left_len)?;
        let right = rest.get(left_len..)?;
        Some((
            root.query,
            TrieRef { nodes: left },
            TrieRef { nodes: right },
        ))
    }

    /// Whether this subtrie is a single leaf.
    pub fn is_leaf(self) -> bool {
        self.nodes.len() == 1
    }

    /// The query at the root, if the root is internal.
    pub fn query(self) -> Option<Query> {
        self.split().map(|(q, _, _)| q)
    }

    /// Number of leaves (`O(1)`: a subtrie of `2k - 1` nodes has `k`).
    pub fn num_leaves(self) -> usize {
        self.nodes.len().div_ceil(2)
    }
}

impl Trie {
    /// Creates a leaf.
    pub fn leaf() -> Self {
        Trie { nodes: vec![LEAF] }
    }

    /// Creates an internal node (copies both subtries behind it; builders
    /// of large tries use [`build`](Trie::build) instead).
    pub fn internal(query: Query, left: Trie, right: Trie) -> Self {
        let mut nodes = Vec::with_capacity(1 + left.nodes.len() + right.nodes.len());
        nodes.push(Node {
            query,
            leaves: left.num_leaves() + right.num_leaves(),
        });
        nodes.extend(left.nodes);
        nodes.extend(right.nodes);
        Trie { nodes }
    }

    /// Builds a trie top-down in preorder without recursion: `split(s)`
    /// returns `None` when the set `s` becomes a leaf, or the query of its
    /// node and the sets of its left and right subtries.
    pub fn build<S>(root: S, mut split: impl FnMut(S) -> Option<(Query, S, S)>) -> Trie {
        let mut nodes = Vec::new();
        let mut pending = vec![root];
        while let Some(set) = pending.pop() {
            match split(set) {
                None => nodes.push(LEAF),
                Some((query, left, right)) => {
                    nodes.push(Node { query, leaves: 0 });
                    pending.push(right);
                    pending.push(left);
                }
            }
        }
        fill_leaf_counts(&mut nodes);
        Trie { nodes }
    }

    /// The whole trie as a borrowed subtrie.
    pub fn root(&self) -> TrieRef<'_> {
        TrieRef { nodes: &self.nodes }
    }

    /// Whether this trie is a single leaf.
    pub fn is_leaf(&self) -> bool {
        self.root().is_leaf()
    }

    /// The query at the root, if the root is internal.
    pub fn query(&self) -> Option<Query> {
        self.root().query()
    }

    /// The left ("no") subtrie, if the root is internal.
    pub fn left(&self) -> Option<TrieRef<'_>> {
        self.root().split().map(|(_, l, _)| l)
    }

    /// The right ("yes") subtrie, if the root is internal.
    pub fn right(&self) -> Option<TrieRef<'_>> {
        self.root().split().map(|(_, _, r)| r)
    }

    /// Number of leaves (`O(1)`).
    pub fn num_leaves(&self) -> usize {
        self.root().num_leaves()
    }

    /// Total number of nodes (internal + leaves).
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Height of the trie (a single leaf has height 0).
    pub fn height(&self) -> usize {
        // Preorder visits nodes in the order a depth-first stack pops them,
        // so the stack of pending child depths yields every node's depth.
        let mut pending = vec![0usize];
        let mut height = 0;
        for node in &self.nodes {
            let depth = pending.pop().unwrap_or(0);
            height = height.max(depth);
            if node.leaves > 1 {
                pending.push(depth + 1);
                pending.push(depth + 1);
            }
        }
        height
    }

    /// Walks from the root to a leaf, going left wherever `go_left` answers
    /// the node's query with `true`, and returns the 1-based left-to-right
    /// rank of the leaf reached — the value `LocalLabel` (Algorithm 2)
    /// assigns. `O(height)`.
    pub fn walk(&self, mut go_left: impl FnMut(Query) -> bool) -> u64 {
        let mut t = self.root();
        let mut rank = 1u64;
        while let Some((query, left, right)) = t.split() {
            if go_left(query) {
                t = left;
            } else {
                rank += left.num_leaves() as u64;
                t = right;
            }
        }
        rank
    }

    /// Encodes the trie as a uniquely decodable bit string.
    ///
    /// The encoding is a preorder traversal: a leaf is the substring `0`, an
    /// internal node is the substring `1` followed by the two query integers
    /// and then the two subtries; the whole sequence is packed with the
    /// doubling [`concat()`](crate::codec::concat) code. For a trie with
    /// `O(n)` nodes whose query integers are `O(n log n)`, the length is
    /// `O(n log n)` bits (Proposition 3.2).
    pub fn encode(&self) -> BitString {
        let mut w = ConcatWriter::new();
        for node in &self.nodes {
            if node.leaves == 1 {
                w.uint(0);
            } else {
                w.uint(1);
                w.uint(node.query.0);
                w.uint(node.query.1);
            }
        }
        w.finish()
    }

    /// Decodes a trie produced by [`encode`](Trie::encode). A preorder
    /// that ends before every internal node has both subtries, or that
    /// continues after the trie is complete, is a [`DecodeError`].
    pub fn decode_bits(encoded: &BitString) -> Result<Trie, DecodeError> {
        let ints = decode_uints(encoded)?;
        let mut nodes = Vec::new();
        // Subtries still owed by the preorder read so far.
        let mut owed = 1usize;
        let mut pos = 0usize;
        while let Some(&tag) = ints.get(pos) {
            if owed == 0 {
                return Err(DecodeError::Truncated);
            }
            pos += 1;
            match tag {
                0 => {
                    nodes.push(LEAF);
                    owed -= 1;
                }
                1 => {
                    let (&a, &b) = ints
                        .get(pos)
                        .zip(ints.get(pos + 1))
                        .ok_or(DecodeError::Truncated)?;
                    pos += 2;
                    nodes.push(Node {
                        query: (a, b),
                        leaves: 0,
                    });
                    owed += 1;
                }
                _ => return Err(DecodeError::InvalidPair { offset: pos }),
            }
        }
        if owed != 0 {
            return Err(DecodeError::Truncated);
        }
        fill_leaf_counts(&mut nodes);
        Ok(Trie { nodes })
    }
}

/// Sets the leaf count of every internal node of a complete preorder whose
/// internal nodes carry a placeholder count. Runs right to left, so both
/// children of a node (which follow it) are counted before it.
fn fill_leaf_counts(nodes: &mut [Node]) {
    for i in (0..nodes.len()).rev() {
        if nodes[i].leaves != 1 {
            let left = nodes[i + 1].leaves;
            nodes[i].leaves = left + nodes[i + 2 * left].leaves;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::concat_uints;

    fn sample_trie() -> Trie {
        Trie::internal(
            (0, 5),
            Trie::internal((1, 2), Trie::leaf(), Trie::leaf()),
            Trie::leaf(),
        )
    }

    #[test]
    fn leaf_counts_and_size() {
        let t = sample_trie();
        assert_eq!(t.num_leaves(), 3);
        assert_eq!(t.size(), 5);
        assert_eq!(t.height(), 2);
        assert_eq!(Trie::leaf().num_leaves(), 1);
        assert_eq!(Trie::leaf().size(), 1);
        assert_eq!(Trie::leaf().height(), 0);
    }

    #[test]
    fn size_is_twice_leaves_minus_one() {
        // Claim 3.1: a trie discriminating |S| objects has 2|S| - 1 nodes.
        let t = sample_trie();
        assert_eq!(t.size(), 2 * t.num_leaves() - 1);
    }

    #[test]
    fn navigation_accessors() {
        let t = sample_trie();
        assert_eq!(t.query(), Some((0, 5)));
        assert!(t.right().unwrap().is_leaf());
        assert_eq!(t.left().unwrap().query(), Some((1, 2)));
        assert!(Trie::leaf().query().is_none());
        assert!(Trie::leaf().left().is_none());
        assert!(Trie::leaf().right().is_none());
    }

    #[test]
    fn walk_ranks_leaves_left_to_right() {
        let t = sample_trie();
        assert_eq!(t.walk(|_| true), 1);
        assert_eq!(t.walk(|q| q == (0, 5)), 2);
        assert_eq!(t.walk(|_| false), 3);
        assert_eq!(Trie::leaf().walk(|_| false), 1);
    }

    #[test]
    fn build_matches_nested_construction() {
        // Split a range in halves: the balanced trie over 0..5.
        let built = Trie::build((0u64, 5u64), |(lo, hi)| {
            let mid = (lo + hi) / 2;
            (hi - lo > 1).then_some(((lo, hi), (lo, mid), (mid, hi)))
        });
        fn nested(lo: u64, hi: u64) -> Trie {
            if hi - lo == 1 {
                return Trie::leaf();
            }
            let mid = (lo + hi) / 2;
            Trie::internal((lo, hi), nested(lo, mid), nested(mid, hi))
        }
        assert_eq!(built, nested(0, 5));
        assert_eq!(built.num_leaves(), 5);
        assert_eq!(built.left().unwrap().num_leaves(), 2);
        assert_eq!(built.right().unwrap().num_leaves(), 3);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = sample_trie();
        let enc = t.encode();
        assert_eq!(Trie::decode_bits(&enc).unwrap(), t);
        let leaf = Trie::leaf();
        assert_eq!(Trie::decode_bits(&leaf.encode()).unwrap(), leaf);
    }

    #[test]
    fn encode_decode_large_skewed_trie() {
        // A left-skewed trie with 100 leaves.
        let mut t = Trie::leaf();
        for i in 0..99u64 {
            t = Trie::internal((1, i), t, Trie::leaf());
        }
        assert_eq!(t.num_leaves(), 100);
        let enc = t.encode();
        assert_eq!(Trie::decode_bits(&enc).unwrap(), t);
        // O(n log n) sanity: 100 leaves with small queries fits well under
        // 100 * 64 bits.
        assert!(enc.len() < 6400);
    }

    /// The preorder integers of a left-skewed trie of the given depth:
    /// every internal node's right child is a leaf.
    fn skewed_preorder(depth: u64) -> Vec<u64> {
        let mut ints = Vec::new();
        for i in 0..depth {
            ints.extend([1, 1, i]);
        }
        ints.resize(ints.len() + depth as usize + 1, 0);
        ints
    }

    #[test]
    fn deep_skewed_trie_is_stack_safe() {
        // Built straight from its encoding, so no step here recurses: the
        // decode, the counts, the walk, the re-encode and the drop all run
        // on the default test-thread stack.
        let depth = 100_000u64;
        let enc = concat_uints(&skewed_preorder(depth));
        let t = Trie::decode_bits(&enc).unwrap();
        assert_eq!(t.num_leaves(), depth as usize + 1);
        assert_eq!(t.height(), depth as usize);
        assert_eq!(t.size(), 2 * depth as usize + 1);
        assert_eq!(t.walk(|_| true), 1);
        assert_eq!(t.walk(|_| false), depth + 1);
        assert_eq!(t.encode(), enc);
        drop(t);
    }

    #[test]
    fn decode_rejects_incomplete_and_overlong_preorders() {
        let mut missing_leaf = skewed_preorder(5);
        missing_leaf.pop();
        assert_eq!(
            Trie::decode_bits(&concat_uints(&missing_leaf)),
            Err(DecodeError::Truncated)
        );
        let mut trailing = skewed_preorder(5);
        trailing.push(0);
        assert_eq!(
            Trie::decode_bits(&concat_uints(&trailing)),
            Err(DecodeError::Truncated)
        );
        // An internal node cut off inside its query.
        assert!(Trie::decode_bits(&concat_uints(&[1, 4])).is_err());
        assert!(Trie::decode_bits(&BitString::new()).is_err());
    }

    #[test]
    fn decode_rejects_garbage() {
        let garbage = BitString::from_str01("10").unwrap();
        assert!(Trie::decode_bits(&garbage).is_err());
        // A valid concat of a single integer 2 (not a valid tag).
        let bad_tag = crate::codec::concat_uints(&[2]);
        assert!(Trie::decode_bits(&bad_tag).is_err());
    }
}
