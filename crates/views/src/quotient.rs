//! Base-time view analysis through the covering map (the quotient fast
//! path).
//!
//! A covering projection is a port-preserving local isomorphism, so the
//! refinement key of a lift node `(b, i)` at every depth equals the key of
//! its base node `b` computed on the base's *dart rows* (`rows[b][p] =
//! (target, reverse slot)`): by induction the per-depth class of `(b, i)`
//! is the class of `b`, with **identical dense ranks** — the multiset of
//! lift keys is `fold` copies of the base multiset, so sorting and
//! dense-ranking assign the very same ids. The refinement engine therefore
//! runs on the dart rows at quotient size with the base's fold (its
//! stopping rule counts the lift's `rows × fold` nodes), and every result —
//! per-depth class rows, distinct-view counts, stabilization depth,
//! feasibility, φ — transfers back bit-identically through the covering
//! map. The direct computation on the materialized lift remains the oracle
//! (asserted by unit, property and conformance tests).
//!
//! Entry points: [`analyze_base`] for a [`MinimumBase`] built from a
//! concrete graph, [`analyze_lift`] for a [`VoltageGraph`] whose lift never
//! needs to exist in memory ([`validate_lift`] checks simplicity and
//! connectivity in `O(n + m)` without materializing adjacency), and
//! [`analyze_lift_unchecked`] when the caller guarantees validity by
//! construction (e.g. [`connected_cyclic_lift`]) — that path's cost tracks
//! the *base* size only.
//!
//! [`connected_cyclic_lift`]: anet_graph::quotient::connected_cyclic_lift

use anet_graph::lift::VoltageGraph;
use anet_graph::quotient::{base_dart_rows, validate_lift, MinimumBase, QuotientError};
use anet_graph::RefineOptions;

use crate::classes::ViewClasses;
use crate::election_index::{report_from_table, FeasibilityReport};

/// The base-time analysis of a [`MinimumBase`]: the class table of the
/// quotient dart rows at size `C = num_classes`, with its stable depth, both
/// valid for the covered graph of size `n = C * fold`. Row `d` pulls back to
/// the graph's depth-`d` row through [`MinimumBase::colors`]; extend it
/// with `ViewClasses::ensure_depth(base.dart_rows(), ..)`.
pub fn analyze_base(base: &MinimumBase) -> (ViewClasses, usize) {
    ViewClasses::compute_until_stable_with(base.dart_rows(), base.fold(), &RefineOptions::default())
}

/// Analyzes the lift of a voltage graph **without materializing it**:
/// [`validate_lift`] proves in `O(n + m)` (union-find, no refinement, no
/// adjacency build) that the lift is a simple connected graph, then the
/// refinement runs on the base dart structure at quotient size. The report
/// is bit-identical to `election_index::analyze(&vg.lift()?)`.
pub fn analyze_lift(vg: &VoltageGraph) -> Result<FeasibilityReport, QuotientError> {
    validate_lift(vg)?;
    Ok(analyze_lift_unchecked(vg))
}

/// [`analyze_lift`] without the validity check: the caller guarantees the
/// lift is a simple connected graph (e.g. it came from
/// [`connected_cyclic_lift`](anet_graph::quotient::connected_cyclic_lift)).
/// Cost tracks the *base* size only — this is the `report bench-quotient`
/// fast path that analyzes a million-node lift in base time.
pub fn analyze_lift_unchecked(vg: &VoltageGraph) -> FeasibilityReport {
    let darts = base_dart_rows(vg);
    let (table, stable) =
        ViewClasses::compute_until_stable_with(&darts, vg.fold, &RefineOptions::default());
    report_from_table(&table, stable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::election_index::analyze;
    use anet_graph::lift::{random_lift, VoltageEdge};
    use anet_graph::quotient::connected_cyclic_lift;
    use anet_graph::{generators, ClassId, Graph};

    /// Covering map of a voltage lift: lift node `v` projects to `v / fold`.
    fn lift_colors(vg: &VoltageGraph) -> Vec<usize> {
        (0..vg.base_nodes * vg.fold).map(|v| v / vg.fold).collect()
    }

    /// Pulls a base row back to the covered graph through `colors`.
    fn pullback(row: &[ClassId], colors: &[usize]) -> Vec<ClassId> {
        colors.iter().map(|&c| row[c]).collect()
    }

    fn assert_base_matches_direct(g: &Graph, base: &(ViewClasses, usize), colors: &[usize]) {
        let (ba, base_stable) = base;
        assert_eq!(
            report_from_table(ba, *base_stable),
            analyze(g),
            "report transfer"
        );
        let (table, stable) = ViewClasses::compute_until_stable(g);
        assert_eq!(*base_stable, stable, "stable depth");
        assert_eq!(ba.max_depth(), table.max_depth(), "table depth");
        for d in 0..=table.max_depth() {
            assert_eq!(
                pullback(ba.row_at(d), colors),
                table.row_at(d),
                "pulled-back row at depth {d}"
            );
            assert_eq!(ba.num_classes(d), table.num_classes(d), "count at {d}");
            assert_eq!(ba.all_distinct_at(d), table.all_distinct_at(d), "at {d}");
        }
    }

    #[test]
    fn voltage_lift_analysis_matches_materialized_analysis() {
        // The lollipop is feasible, so the bases of its covers have all
        // their classes distinct: feasibility must compare the count with
        // the covered rows × fold, not with the row length.
        for (i, small) in [
            generators::clique(4),
            generators::ring(6),
            generators::complete_bipartite(2, 3),
            generators::random_connected(8, 0.35, 9),
            generators::lollipop(4, 3),
        ]
        .iter()
        .enumerate()
        {
            for fold in [2usize, 3, 5] {
                let vg = connected_cyclic_lift(small, fold, 7 * i as u64 + fold as u64);
                let g = vg.lift().expect("connected by construction");
                assert_eq!(
                    analyze_lift(&vg).unwrap(),
                    analyze(&g),
                    "base {i} fold {fold}"
                );
                assert_eq!(analyze_lift_unchecked(&vg), analyze(&g));
                let ba = ViewClasses::compute_until_stable_with(
                    &base_dart_rows(&vg),
                    fold,
                    &RefineOptions::default(),
                );
                assert_base_matches_direct(&g, &ba, &lift_colors(&vg));
            }
        }
    }

    #[test]
    fn random_lift_rows_pull_back_bit_identically() {
        for seed in 0..4u64 {
            let small = generators::random_connected(6, 0.5, seed);
            let Some(g) = random_lift(&small, 3, seed) else {
                continue;
            };
            let base = MinimumBase::of(&g).unwrap();
            base.certify(&g).unwrap();
            assert_base_matches_direct(&g, &analyze_base(&base), base.colors());
        }
    }

    #[test]
    fn minimum_base_path_handles_feasible_and_tiny_graphs() {
        for g in [
            generators::lollipop(5, 4),
            generators::path(2),
            generators::path(3),
            Graph::from_adjacency(vec![vec![]]).unwrap(),
            Graph::from_adjacency(vec![]).unwrap(),
        ] {
            let base = MinimumBase::of(&g).unwrap();
            base.certify(&g).unwrap();
            let (ba, stable) = analyze_base(&base);
            assert_eq!(
                report_from_table(&ba, stable),
                analyze(&g),
                "n = {}",
                g.num_nodes()
            );
        }
    }

    #[test]
    fn deep_rows_serve_from_the_fixed_point() {
        let g = generators::ring(9);
        let base = MinimumBase::of(&g).unwrap();
        let (mut ba, _) = analyze_base(&base);
        let (mut table, _) = ViewClasses::compute_until_stable(&g);
        let opts = RefineOptions::default();
        for depth in [3usize, 10, 1_000] {
            ba.ensure_depth(base.dart_rows(), depth, &opts);
            table.ensure_depth(g.adjacency(), depth, &opts);
            assert_eq!(
                pullback(ba.row_at(depth), base.colors()),
                table.row_at(depth)
            );
        }
    }

    #[test]
    fn invalid_lifts_are_refused_without_materialization() {
        let vg = VoltageGraph {
            base_nodes: 1,
            fold: 3,
            edges: vec![VoltageEdge {
                u: 0,
                v: 0,
                sigma: vec![0, 1, 2],
            }],
        };
        assert!(analyze_lift(&vg).is_err());
    }
}
