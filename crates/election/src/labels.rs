//! The label machinery of the minimum-time election algorithm:
//! `LocalLabel` (Algorithm 2), `RetrieveLabel` (Algorithm 3) and `BuildTrie`
//! (Algorithm 4).
//!
//! These procedures are executed both by the oracle (while constructing the
//! advice) and by the nodes (while interpreting it). Both sides answer trie
//! queries with the same predicates and evaluate `RetrieveLabel`'s
//! summation with the same per-depth index of `L(d)`, which is exactly what
//! makes the advice consistent. The oracle reads views as refinement
//! classes; the nodes read the chains of interned views their `COM` run
//! acquired, labelled a depth at a time ([`retrieve_labels`]).
//!
//! All three procedures manipulate augmented truncated views. The paper's
//! "lexicographic order of binary representations" is realized by the
//! canonical order of [`AugmentedView`] for views of depth `>= 2`, and by the
//! paper-exact `bin(B^1)` code (see [`crate::encoding`]) for views of depth
//! 1 — the depth-1 trie queries literally ask about bits of that code.

use anet_advice::{codec, BitString, Query, Trie, TrieRef};
use anet_graph::{ClassId, Graph, NodeId};
use anet_views::{AugmentedView, ShardedViewArena, ViewId};

use crate::encoding::{bin_b1, bin_b1_arena};

/// The nested list `E2` of the advice: one entry `(i, L(i))` per depth
/// `2 <= i <= φ`, where `L(i)` is a list of `(j, T_j)` couples — `j` is a
/// depth-`(i-1)` label and `T_j` is the trie discriminating the depth-`i`
/// views of the nodes labeled `j` at depth `i-1`.
pub type NestedList = Vec<(u64, Vec<(u64, Trie)>)>;

/// `LocalLabel(B, X, T)` — Algorithm 2.
///
/// Walks the trie `T`, answering each query either from the binary
/// representation of `B` (when the temporary-label list `X` is empty — the
/// depth-1 case) or from the labels of the children of `B` listed in `X`.
/// Returns a label in `{1, ..., num_leaves(T)}`.
pub fn local_label(b: &AugmentedView, x: &[u64], t: &Trie) -> u64 {
    local_label_in(b, x, t.root())
}

fn local_label_in(b: &AugmentedView, x: &[u64], t: TrieRef<'_>) -> u64 {
    match t.split() {
        None => 1,
        Some((query, left, right)) => {
            let (qx, qy) = query;
            let go_left = if x.is_empty() {
                let bits = bin_b1(b);
                if qx == 0 {
                    // "Is the binary representation shorter than y?"
                    (bits.len() as u64) < qy
                } else {
                    // "Is the y-th bit (1-based) of the binary representation 0?"
                    // A missing bit (shorter string) cannot occur for views
                    // reaching this query along a consistent trie; treat an
                    // absent bit as 0 defensively.
                    !bits.bit((qy as usize).saturating_sub(1)).unwrap_or(false)
                }
            } else {
                // "Is the (x+1)-th term of X different from y?"
                x.get(qx as usize).copied() != Some(qy)
            };
            if go_left {
                local_label_in(b, x, left)
            } else {
                left.num_leaves() as u64 + local_label_in(b, x, right)
            }
        }
    }
}

/// `RetrieveLabel(B, E1, E2)` — Algorithm 3.
///
/// Computes the temporary integer label of the view `B` (of any depth
/// `1 <= d <= φ`): a value in `{1, ..., |S_d|}` where `S_d` is the set of
/// depth-`d` views of the graph, different for different views of the same
/// depth (Claims 3.4 and 3.7).
pub fn retrieve_label(b: &AugmentedView, e1: &Trie, e2: &NestedList) -> u64 {
    let d = b.depth();
    assert!(d >= 1, "RetrieveLabel requires a view of positive depth");
    if d == 1 {
        return local_label(b, &[], e1);
    }
    // Labels of the children (the depth-(d-1) views of the neighbors), in
    // port order.
    let x: Vec<u64> = b
        .children()
        .iter()
        .map(|(_, sub)| retrieve_label(sub, e1, e2))
        .collect();
    // Label of our own depth-(d-1) truncation.
    let b_prime = b.truncate(d - 1);
    let label = retrieve_label(&b_prime, e1, e2);
    // L = the list attached to depth d in E2 (possibly absent => empty).
    let empty: Vec<(u64, Trie)> = Vec::new();
    let l: &Vec<(u64, Trie)> = e2
        .iter()
        .find(|(depth, _)| *depth == d as u64)
        .map(|(_, list)| list)
        .unwrap_or(&empty);
    let mut sum = 0u64;
    for i in 1..=label {
        if let Some((_, t)) = l.iter().find(|(j, _)| *j == i) {
            if i < label {
                sum += t.num_leaves() as u64;
            } else {
                sum += local_label(b, &x, t);
            }
        } else {
            sum += 1;
        }
    }
    sum
}

/// `BuildTrie(S, E1, E2)` — Algorithm 4.
///
/// `S` must be a non-empty set of *distinct* views of the same positive
/// depth. When `e1` is `None` (the paper's `E1 = ∅`), the views are
/// discriminated by their `bin(B^1)` representations (this branch is only
/// ever taken for depth-1 views). Otherwise they are discriminated through
/// the labels of their children using the discriminatory index and subview.
pub fn build_trie(s: &[AugmentedView], e1: Option<&Trie>, e2: &NestedList) -> Trie {
    assert!(!s.is_empty(), "BuildTrie requires a non-empty set");
    if s.len() == 1 {
        return Trie::leaf();
    }
    let (val, s_prime): ((u64, u64), Vec<AugmentedView>) = match e1 {
        None => {
            let bins: Vec<BitString> = s.iter().map(bin_b1).collect();
            let max = bins.iter().map(BitString::len).max().unwrap();
            let min = bins.iter().map(BitString::len).min().unwrap();
            if min < max {
                // Query (0, max): "is your representation shorter than max?"
                let subset: Vec<AugmentedView> = s
                    .iter()
                    .zip(&bins)
                    .filter(|(_, b)| b.len() < max)
                    .map(|(v, _)| v.clone())
                    .collect();
                ((0, max as u64), subset)
            } else {
                // All lengths equal: find the first differing (1-based) bit.
                let j = (0..max)
                    .find(|&i| {
                        let first = bins[0].bit(i);
                        bins.iter().any(|b| b.bit(i) != first)
                    })
                    .expect("distinct views must have differing representations")
                    + 1;
                let subset: Vec<AugmentedView> = s
                    .iter()
                    .zip(&bins)
                    .filter(|(_, b)| !b.bit(j - 1).unwrap())
                    .map(|(v, _)| v.clone())
                    .collect();
                ((1, j as u64), subset)
            }
        }
        Some(e1_trie) => {
            let (index, b_disc) = discriminatory_index_and_subview(s);
            let subset: Vec<AugmentedView> = s
                .iter()
                .filter(|v| v.children()[index].1 != b_disc)
                .cloned()
                .collect();
            ((index as u64, retrieve_label(&b_disc, e1_trie, e2)), subset)
        }
    };
    let s_rest: Vec<AugmentedView> = s.iter().filter(|v| !s_prime.contains(v)).cloned().collect();
    debug_assert!(!s_prime.is_empty() && !s_rest.is_empty());
    let e1_for_rec = e1;
    Trie::internal(
        val,
        build_trie(&s_prime, e1_for_rec, e2),
        build_trie(&s_rest, e1_for_rec, e2),
    )
}

/// The discriminatory index and discriminatory subview of a set `S` of at
/// least two views of depth `>= 2` that are all identical at depth `l - 1`
/// (Section 3).
///
/// The index is the smallest port `i` at which the children of the two
/// canonically-smallest views of `S` differ; the subview is the smaller of
/// the two differing children.
pub fn discriminatory_index_and_subview(s: &[AugmentedView]) -> (usize, AugmentedView) {
    assert!(s.len() >= 2);
    assert!(s[0].depth() >= 2, "discriminatory index needs depth >= 2");
    let mut sorted: Vec<&AugmentedView> = s.iter().collect();
    sorted.sort();
    let (a, b) = (sorted[0], sorted[1]);
    for i in 0..a.children().len() {
        let ca = &a.children()[i].1;
        let cb = &b.children()[i].1;
        if ca != cb {
            let disc = if ca < cb { ca.clone() } else { cb.clone() };
            return (i, disc);
        }
    }
    panic!("views identical at depth l-1 but equal at depth l cannot both be in S");
}

// ---------------------------------------------------------------------------
// The production label engine.
//
// `ComputeAdvice` never materializes or interns a view. It reads the
// refinement class rows, where the class of `B^d(v)` is the rank of that
// view in the canonical order among the graph's depth-`d` views (the
// `ViewClasses` invariant). Grouping views is then a counting sort by
// class, "the two canonically smallest views" is a min-2 selection over
// ranks, subview equality is class equality, and every class of a depth is
// labelled in one pass over its representatives. The nodes, which hold only
// the views they acquired, label the interned chains `B^1(u) … B^φ(u)` of
// their `COM` run the same way, one pass per depth (`retrieve_labels`).
// Both sides answer queries with the same two predicates and evaluate
// Algorithm 3's summation with the same per-depth `LabelIndex` — one binary
// search per view instead of a scan of `L(d)` — so they agree by
// construction. The tree-based functions above remain the oracle: advice,
// labels and node outputs are asserted identical by unit and property
// tests.
// ---------------------------------------------------------------------------

/// Answers a depth-1 query of `E1` from the code `bin(B^1)` of the view:
/// whether the walk goes left (the answer "no").
fn code_goes_left(bits: &BitString, (qx, qy): Query) -> bool {
    if qx == 0 {
        // "Is the binary representation shorter than y?"
        (bits.len() as u64) < qy
    } else {
        // "Is the y-th bit (1-based) of the binary representation 0?" A
        // missing bit (shorter string) cannot occur for views reaching this
        // query along a consistent trie; treat an absent bit as 0
        // defensively.
        !bits.bit((qy as usize).saturating_sub(1)).unwrap_or(false)
    }
}

/// Answers a deeper query from the child labels `X`: "Is the `(x+1)`-th
/// term of `X` different from `y`?"
fn labels_go_left(x: &[u64], (qx, qy): Query) -> bool {
    x.get(qx as usize).copied() != Some(qy)
}

/// `LocalLabel(B, ∅, E1)` of a depth-1 view given its code `bin(B^1)`.
pub(crate) fn depth_one_label(bits: &BitString, e1: &Trie) -> u64 {
    e1.walk(|q| code_goes_left(bits, q))
}

/// One list `L(d)` of `E2`, indexed for `RetrieveLabel` (Algorithm 3).
///
/// The entries are sorted by label, keeping only the first entry per label
/// (like the pseudocode's search of `L`, which finds the first match; the
/// decoded advice is not validated for distinct labels, and label 0 never
/// matches since labels start at 1). Each entry carries the sum of
/// `num_leaves(T_j) - 1` over the smaller labels. The pseudocode's
/// `for i in 1..=label` accumulation then costs one binary search and one
/// trie walk per view.
#[derive(Debug, Clone)]
pub(crate) struct LabelIndex<'a> {
    /// `(j, Σ num_leaves(T_i) - 1 over the entries i < j, T_j)`, by `j`.
    entries: Vec<(u64, u64, &'a Trie)>,
    /// `Σ num_leaves(T_j) - 1` over all entries.
    total: u64,
}

impl<'a> LabelIndex<'a> {
    /// Indexes `L(d)` in `O(|L| log |L|)`.
    pub(crate) fn new(list: &'a [(u64, Trie)]) -> Self {
        let mut sorted: Vec<&(u64, Trie)> = list.iter().filter(|(j, _)| *j >= 1).collect();
        // Stable: the first entry per label stays first, and dedup keeps it.
        sorted.sort_by_key(|(j, _)| *j);
        sorted.dedup_by_key(|(j, _)| *j);
        let mut total = 0u64;
        let entries = sorted
            .into_iter()
            .map(|(j, t)| {
                let entry = (*j, total, t);
                total += t.num_leaves() as u64 - 1;
                entry
            })
            .collect();
        LabelIndex { entries, total }
    }

    /// The label of a depth-`d` view whose depth-`(d-1)` truncation has
    /// label `own` and whose children have labels `x`, in port order: every
    /// `i < own` absent from `L` contributes 1, every present `j < own`
    /// contributes `num_leaves(T_j)`, and `own` itself contributes
    /// `LocalLabel(B, X, T_own)` if present and 1 otherwise.
    pub(crate) fn label(&self, own: u64, x: &[u64]) -> u64 {
        let k = self.entries.partition_point(|&(j, _, _)| j < own);
        match self.entries.get(k) {
            Some(&(j, before, t)) if j == own => {
                own + before + t.walk(|q| labels_go_left(x, q)) - 1
            }
            Some(&(_, before, _)) => own + before,
            None => own + self.total,
        }
    }
}

/// One depth `d` of the refinement table, as `ComputeAdvice` reads it.
#[derive(Debug, Clone)]
pub(crate) struct ClassLevel<'a> {
    /// `row[v]` is the class of `B^d(v)`: the rank of that view among the
    /// graph's distinct depth-`d` views in canonical order.
    pub(crate) row: &'a [ClassId],
    /// `reps[c]` is the smallest node of class `c`.
    pub(crate) reps: Vec<NodeId>,
}

impl<'a> ClassLevel<'a> {
    /// Wraps a class row (dense ids `0..k`) and picks its representatives.
    pub(crate) fn new(row: &'a [ClassId]) -> Self {
        let classes = row.iter().max().map_or(0, |&c| c + 1);
        let mut reps = vec![0; classes];
        for (v, &c) in row.iter().enumerate().rev() {
            reps[c] = v;
        }
        ClassLevel { row, reps }
    }
}

/// Moves the members satisfying `pred` to the front of `set` and returns
/// how many there are (a deterministic, in-place, unstable partition).
fn partition<T: Copy>(set: &mut [T], pred: impl Fn(T) -> bool) -> usize {
    let mut mid = 0;
    for i in 0..set.len() {
        if pred(set[i]) {
            set.swap(mid, i);
            mid += 1;
        }
    }
    mid
}

/// `BuildTrie(S, ∅, ∅)` — the depth-1 branch of Algorithm 4 — over the
/// distinct depth-1 views whose codes `bin(B^1)` are `bins`. Produces the
/// trie of [`build_trie`] on the same views.
///
/// The trie is built iteratively ([`Trie::build`]), each split partitioning
/// a range of one member buffer in place. The members of a range agree on
/// every bit before the range's resume point, because a bit split at `j`
/// leaves both halves agreeing up to `j`; the search for the first
/// differing bit starts there rather than at bit 0. No query depends on the
/// member order.
pub(crate) fn build_trie_codes(bins: &[BitString]) -> Trie {
    let mut members: Vec<usize> = (0..bins.len()).collect();
    Trie::build((0, members.len(), 0), |(lo, hi, start)| {
        let set = members.get_mut(lo..hi).filter(|set| set.len() > 1)?;
        let max = set.iter().map(|&c| bins[c].len()).max()?;
        let min = set.iter().map(|&c| bins[c].len()).min()?;
        let (query, mid, resume) = if min < max {
            // Query (0, max): "is your representation shorter than max?"
            let mid = partition(set, |c| bins[c].len() < max);
            ((0, max as u64), mid, start)
        } else {
            // All lengths equal: find the first differing (1-based) bit, the
            // earliest bit where some member differs from the first one.
            let first = &bins[set[0]];
            let mut j = max;
            for &c in &set[1..] {
                if let Some(k) = first.first_difference(&bins[c], start) {
                    j = j.min(k);
                }
            }
            debug_assert!(j < max, "distinct views have distinct codes");
            if j == max {
                return None;
            }
            let mid = partition(set, |c| bins[c].bit(j) == Some(false));
            ((1, j as u64 + 1), mid, j + 1)
        };
        Some((query, (lo, lo + mid, resume), (lo + mid, hi, resume)))
    })
}

/// The two smallest values of `set`, if it has two.
fn two_smallest(set: &[ClassId]) -> Option<(ClassId, ClassId)> {
    let (&x, &y) = set.first().zip(set.get(1))?;
    let (mut a, mut b) = (x.min(y), x.max(y));
    for &c in &set[2..] {
        if c < a {
            (a, b) = (c, a);
        } else if c < b {
            b = c;
        }
    }
    Some((a, b))
}

/// The discriminatory index and subview (Section 3) of a set of at least
/// two depth-`d` classes (`d >= 2`) sharing their depth-`(d-1)` class, read
/// off the class rows: the two canonically smallest views are the two
/// smallest ranks, their children through port `p` are the depth-`(d-1)`
/// classes of their representatives' neighbors, and the smaller of two
/// differing children is the smaller rank. Returns the port and the
/// subview's depth-`(d-1)` class — the counterpart of
/// [`discriminatory_index_and_subview`].
pub(crate) fn discriminatory_index_of_classes(
    g: &Graph,
    level: &ClassLevel<'_>,
    prev: &ClassLevel<'_>,
    set: &[ClassId],
) -> Option<(usize, ClassId)> {
    let (a, b) = two_smallest(set)?;
    let (ra, rb) = (level.reps[a], level.reps[b]);
    g.neighbor_slice(ra)
        .iter()
        .zip(g.neighbor_slice(rb))
        .enumerate()
        .find_map(|(p, (&(ua, _), &(ub, _)))| {
            let (ca, cb) = (prev.row[ua], prev.row[ub]);
            (ca != cb).then_some((p, ca.min(cb)))
        })
}

/// `BuildTrie(S, E1, E2)` — Algorithm 4 at depth `d >= 2` — over the
/// depth-`d` classes `members` that share one depth-`(d-1)` class, where
/// `prev_labels[c]` is the label of the depth-`(d-1)` class `c`. Produces
/// the trie of [`build_trie`] on the same views: iterative, splitting
/// ranges of `members` in place (in any order), `O(|S| + Δ)` per trie
/// node.
pub(crate) fn build_trie_classes(
    g: &Graph,
    level: &ClassLevel<'_>,
    prev: &ClassLevel<'_>,
    prev_labels: &[u64],
    members: &mut [ClassId],
) -> Trie {
    Trie::build((0, members.len()), |(lo, hi)| {
        let set = members.get_mut(lo..hi).filter(|set| set.len() > 1)?;
        let found = discriminatory_index_of_classes(g, level, prev, set);
        debug_assert!(
            found.is_some(),
            "distinct views with one truncation differ in a child"
        );
        let (port, disc) = found?;
        let mid = partition(set, |c| prev.row[g.neighbor(level.reps[c], port).0] != disc);
        Some((
            (port as u64, prev_labels[disc]),
            (lo, lo + mid),
            (lo + mid, hi),
        ))
    })
}

/// `RetrieveLabel` of every depth-`d` class (`d >= 2`), indexed by class:
/// a class's children are the depth-`(d-1)` classes of its
/// representative's neighbors, its own truncation is the representative's
/// depth-`(d-1)` class, and `prev_labels` holds the depth-`(d-1)` labels.
pub(crate) fn class_labels(
    g: &Graph,
    level: &ClassLevel<'_>,
    prev: &ClassLevel<'_>,
    prev_labels: &[u64],
    index: &LabelIndex<'_>,
) -> Vec<u64> {
    let mut x = Vec::new();
    level
        .reps
        .iter()
        .map(|&v| {
            x.clear();
            x.extend(
                g.neighbor_slice(v)
                    .iter()
                    .map(|&(u, _)| prev_labels[prev.row[u]]),
            );
            index.label(prev_labels[prev.row[v]], &x)
        })
        .collect()
}

/// `L(d)`: the first list attached to depth `d` in `E2`, or an empty list
/// if there is none.
fn list_at(e2: &NestedList, d: usize) -> &[(u64, Trie)] {
    e2.iter()
        .find(|(depth, _)| *depth == d as u64)
        .map_or(&[][..], |(_, list)| list.as_slice())
}

/// `RetrieveLabel(B^φ(v), E1, E2)` — Algorithm 3 — of every node `v` at
/// once, from its chain of interned views: `levels[d][v]` is `B^d(v)` for
/// `d = 0..=φ`, as a `COM` run acquires them. Returns the labels indexed by
/// node, exactly those of [`retrieve_label`] on the materialized views.
///
/// The labels go depth by depth into a table indexed by
/// [`ViewId::index`], each distinct view labelled once: depth 1 from the
/// code `bin(B^1)` and `E1`, depth `d >= 2` from the label of the view's
/// own depth-`(d-1)` truncation and those of its children, through the
/// index of `L(d)`. The truncation of `levels[d][v]` is `levels[d - 1][v]`,
/// and its children are neighbors' depth-`(d-1)` views, which are entries of
/// `levels[d - 1]` too — so both were labelled by the previous pass, and no
/// truncation, recursion or hashing is needed: `O(Δ + log |L(d)| +
/// height)` per distinct view.
pub fn retrieve_labels(
    arena: &ShardedViewArena,
    levels: &[Vec<ViewId>],
    e1: &Trie,
    e2: &NestedList,
) -> Vec<u64> {
    let size = levels.iter().flatten().map(|id| id.index() + 1).max();
    // 0 marks a view not labelled yet: labels start at 1.
    let mut labels = vec![0u64; size.unwrap_or(0)];
    for &id in levels.get(1).into_iter().flatten() {
        if labels[id.index()] == 0 {
            labels[id.index()] = if e1.is_leaf() {
                1
            } else {
                depth_one_label(&bin_b1_arena(arena, id), e1)
            };
        }
    }
    let mut x = Vec::new();
    for d in 2..levels.len() {
        let index = LabelIndex::new(list_at(e2, d));
        for (&id, &own) in levels[d].iter().zip(&levels[d - 1]) {
            if labels[id.index()] != 0 {
                continue;
            }
            x.clear();
            x.extend(
                arena
                    .children(id)
                    .iter()
                    .map(|&(_, child)| labels[child.index()]),
            );
            labels[id.index()] = index.label(labels[own.index()], &x);
        }
    }
    levels.last().map_or_else(Vec::new, |top| {
        top.iter().map(|id| labels[id.index()]).collect()
    })
}

/// Encodes the nested list `E2` as a bit string (`bin(E2)` of
/// Proposition 3.4): the outer list is a `Concat` of alternating depth
/// integers and encoded inner lists; each inner list is a `Concat` of
/// alternating labels and encoded tries.
pub fn encode_e2(e2: &NestedList) -> BitString {
    let mut parts = Vec::new();
    for (depth, list) in e2 {
        parts.push(BitString::from_uint(*depth));
        let mut inner = Vec::new();
        for (j, t) in list {
            inner.push(BitString::from_uint(*j));
            inner.push(t.encode());
        }
        parts.push(codec::concat(&inner));
    }
    codec::concat(&parts)
}

/// Decodes a bit string produced by [`encode_e2`].
pub fn decode_e2(bits: &BitString) -> Result<NestedList, String> {
    let parts = codec::decode(bits).map_err(|e| e.to_string())?;
    if parts.len() % 2 != 0 {
        return Err("E2 encoding must have an even number of parts".into());
    }
    let mut out = Vec::with_capacity(parts.len() / 2);
    for chunk in parts.chunks(2) {
        let depth = chunk[0]
            .to_uint()
            .ok_or_else(|| "bad depth integer in E2".to_string())?;
        let inner_parts = codec::decode(&chunk[1]).map_err(|e| e.to_string())?;
        if inner_parts.len() % 2 != 0 {
            return Err("inner list encoding must have an even number of parts".into());
        }
        let mut list = Vec::with_capacity(inner_parts.len() / 2);
        for pair in inner_parts.chunks(2) {
            let j = pair[0]
                .to_uint()
                .ok_or_else(|| "bad label integer in E2".to_string())?;
            let t = Trie::decode_bits(&pair[1]).map_err(|e| e.to_string())?;
            list.push((j, t));
        }
        out.push((depth, list));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators;

    /// Builds the depth-1 trie `E1` for a graph and checks Claims 3.1/3.2:
    /// the trie has `2|S|-1` nodes and `LocalLabel` assigns distinct labels
    /// in `{1, ..., |S|}` to distinct depth-1 views.
    fn check_depth_one_labels(g: &anet_graph::Graph) {
        let views = AugmentedView::compute_all(g, 1);
        let mut distinct = views.clone();
        distinct.sort();
        distinct.dedup();
        let trie = build_trie(&distinct, None, &Vec::new());
        assert_eq!(trie.size(), 2 * distinct.len() - 1, "Claim 3.1");
        assert_eq!(trie.num_leaves(), distinct.len());
        let labels: Vec<u64> = distinct
            .iter()
            .map(|v| local_label(v, &[], &trie))
            .collect();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), distinct.len(), "Claim 3.2: labels distinct");
        assert!(labels.iter().all(|&l| 1 <= l && l <= distinct.len() as u64));
    }

    #[test]
    fn depth_one_trie_discriminates_views() {
        check_depth_one_labels(&generators::star(4));
        check_depth_one_labels(&generators::caterpillar(5));
        check_depth_one_labels(&generators::lollipop(4, 3));
        check_depth_one_labels(&generators::random_connected(20, 0.15, 2));
    }

    #[test]
    fn local_label_on_leaf_is_one() {
        let g = generators::ring(4);
        let v = AugmentedView::compute(&g, 0, 1);
        assert_eq!(local_label(&v, &[], &Trie::leaf()), 1);
        assert_eq!(local_label(&v, &[3, 4], &Trie::leaf()), 1);
    }

    #[test]
    fn retrieve_label_depth_one_equals_local_label() {
        let g = generators::caterpillar(4);
        let views = AugmentedView::compute_all(&g, 1);
        let mut distinct = views.clone();
        distinct.sort();
        distinct.dedup();
        let e1 = build_trie(&distinct, None, &Vec::new());
        for v in &views {
            assert_eq!(
                retrieve_label(v, &e1, &Vec::new()),
                local_label(v, &[], &e1)
            );
        }
    }

    #[test]
    fn discriminatory_index_finds_first_difference() {
        // Build a small graph where two nodes agree at depth 1 but differ at
        // depth 2, and check the helper's invariants directly on their views.
        let g = generators::lollipop(4, 4);
        let views2 = AugmentedView::compute_all(&g, 2);
        let views1 = AugmentedView::compute_all(&g, 1);
        // Find a pair of nodes equal at depth 1 and different at depth 2.
        let mut pair = None;
        'outer: for u in g.nodes() {
            for v in g.nodes() {
                if u < v && views1[u] == views1[v] && views2[u] != views2[v] {
                    pair = Some((u, v));
                    break 'outer;
                }
            }
        }
        if let Some((u, v)) = pair {
            let s = vec![views2[u].clone(), views2[v].clone()];
            let (i, disc) = discriminatory_index_and_subview(&s);
            assert!(i < g.degree(u));
            // The discriminatory subview is a child of one of the two views
            // and differs from the corresponding child of the other.
            assert_ne!(s[0].children()[i].1, s[1].children()[i].1);
            assert!(disc == s[0].children()[i].1 || disc == s[1].children()[i].1);
        }
    }

    #[test]
    fn arena_trie_and_labels_match_tree_engine_at_depth_one() {
        for g in [
            generators::star(4),
            generators::caterpillar(5),
            generators::lollipop(4, 3),
            generators::random_connected(20, 0.15, 2),
        ] {
            let views = AugmentedView::compute_all(&g, 1);
            let mut distinct = views.clone();
            distinct.sort();
            distinct.dedup();
            let oracle_trie = build_trie(&distinct, None, &Vec::new());

            let arena = ShardedViewArena::new();
            let levels = arena.compute_levels(&g, 1);
            let mut ids: Vec<ViewId> = levels[1].clone();
            ids.sort_by(|&a, &b| arena.cmp_views(a, b));
            ids.dedup();
            let bins: Vec<BitString> = ids.iter().map(|&id| bin_b1_arena(&arena, id)).collect();
            let arena_trie = build_trie_codes(&bins);
            assert_eq!(arena_trie, oracle_trie, "E1 tries must be identical");

            let labels = retrieve_labels(&arena, &levels, &arena_trie, &Vec::new());
            for v in g.nodes() {
                assert_eq!(
                    depth_one_label(&bin_b1_arena(&arena, levels[1][v]), &arena_trie),
                    local_label(&views[v], &[], &oracle_trie),
                    "depth-1 label of node {v}"
                );
                assert_eq!(
                    labels[v],
                    retrieve_label(&views[v], &oracle_trie, &Vec::new())
                );
            }
        }
    }

    #[test]
    fn engines_agree_even_on_duplicate_e2_labels() {
        // decode_e2 does not validate label distinctness, so a malformed
        // advice string can decode to an L(i) with repeated labels. Both
        // engines must then still produce the same node labels (only the
        // first entry per label may count).
        let g = generators::caterpillar(4); // φ = 2: non-empty E2
        let advice = crate::advice_build::compute_advice(&g).unwrap();
        let mut e2 = advice.e2.clone();
        let list = e2
            .iter_mut()
            .find(|(_, l)| !l.is_empty())
            .map(|(_, l)| l)
            .expect("caterpillar(4) has a non-trivial E2 entry");
        // Duplicate the first entry with a *different* trie shape so a
        // double-count would be visible in the label sums; label 0 (which
        // no view carries) must not count either.
        let dup_label = list[0].0;
        let shape = Trie::internal((0, 1), Trie::leaf(), Trie::leaf());
        list.push((dup_label, shape.clone()));
        list.insert(0, (0, shape));

        let views = AugmentedView::compute_all(&g, advice.phi);
        let arena = ShardedViewArena::new();
        let levels = arena.compute_levels(&g, advice.phi);
        let labels = retrieve_labels(&arena, &levels, &advice.e1, &e2);
        for v in g.nodes() {
            assert_eq!(
                labels[v],
                retrieve_label(&views[v], &advice.e1, &e2),
                "node {v}"
            );
        }
    }

    #[test]
    fn class_discriminatory_index_matches_tree_engine() {
        let mut groups = 0;
        for g in [
            generators::lollipop(4, 4),
            generators::caterpillar(4),
            generators::caterpillar(6),
            generators::random_connected(20, 0.15, 2),
        ] {
            let views2 = AugmentedView::compute_all(&g, 2);
            let views1 = AugmentedView::compute_all(&g, 1);
            let table = anet_views::ViewClasses::compute(&g, 2);
            let prev = ClassLevel::new(table.classes_at(1));
            let level = ClassLevel::new(table.classes_at(2));
            for b in 0..prev.reps.len() {
                // The distinct depth-2 views whose depth-1 truncation is b.
                let mut set: Vec<ClassId> = (0..level.reps.len())
                    .filter(|&c| prev.row[level.reps[c]] == b)
                    .collect();
                if set.len() < 2 {
                    continue;
                }
                groups += 1;
                let s_tree: Vec<AugmentedView> =
                    set.iter().map(|&c| views2[level.reps[c]].clone()).collect();
                let (i_tree, disc_tree) = discriminatory_index_and_subview(&s_tree);
                // The selection is by class rank, not by position in the set.
                set.reverse();
                let (i, disc) = discriminatory_index_of_classes(&g, &level, &prev, &set).unwrap();
                assert_eq!(i, i_tree);
                assert_eq!(views1[prev.reps[disc]], disc_tree);
            }
        }
        assert!(groups > 0, "no depth-1 view splits at depth 2");
    }

    #[test]
    fn e2_encoding_roundtrips() {
        let trie = Trie::internal(
            (2, 7),
            Trie::leaf(),
            Trie::internal((1, 1), Trie::leaf(), Trie::leaf()),
        );
        let e2: NestedList = vec![
            (2, vec![(1, Trie::leaf()), (4, trie.clone())]),
            (3, vec![]),
            (4, vec![(2, trie)]),
        ];
        let bits = encode_e2(&e2);
        assert_eq!(decode_e2(&bits).unwrap(), e2);
        // Empty E2.
        let empty: NestedList = Vec::new();
        assert_eq!(decode_e2(&encode_e2(&empty)).unwrap(), empty);
    }

    #[test]
    fn e2_decoding_rejects_garbage() {
        let garbage = BitString::from_str01("10").unwrap();
        assert!(decode_e2(&garbage).is_err());
    }
}
