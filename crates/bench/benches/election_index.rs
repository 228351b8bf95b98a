//! Criterion bench for E8 and two ablations: the partition-refinement engine
//! vs the definitional view-comparison oracle, and the flat-buffer sort-based
//! ranking vs the seed `BTreeMap` ranking — plus the large-scale sweep the
//! acceptance targets (10k-node graphs in seconds).

use anet_bench::workloads;
use anet_graph::RefineOptions;
use anet_views::{election_index, election_index_naive, ViewClasses};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Depth used when pitting the two class-table engines head to head: deep
/// enough that the per-depth ranking dominates, shallow enough that the
/// legacy engine finishes.
const ABLATION_DEPTH: usize = 6;

fn bench_refinement(c: &mut Criterion) {
    let mut group = c.benchmark_group("election_index_refinement");
    for inst in workloads::bench_graphs() {
        group.bench_with_input(
            BenchmarkId::from_parameter(&inst.name),
            &inst.graph,
            |b, g| b.iter(|| election_index(g)),
        );
    }
    group.finish();
}

fn bench_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("election_index_naive");
    for inst in workloads::bench_graphs() {
        group.bench_with_input(
            BenchmarkId::from_parameter(&inst.name),
            &inst.graph,
            |b, g| b.iter(|| election_index_naive(g, 6)),
        );
    }
    group.finish();
}

/// Ablation: the new flat-buffer engine vs the seed `BTreeMap` ranking on the
/// same class tables (acceptance: ≥ 3× on the `bench_graphs()` sweep).
fn bench_classes_flat_vs_legacy(c: &mut Criterion) {
    let mut group = c.benchmark_group("classes_flat");
    for inst in workloads::bench_graphs() {
        group.bench_with_input(
            BenchmarkId::from_parameter(&inst.name),
            &inst.graph,
            |b, g| b.iter(|| ViewClasses::compute(g, ABLATION_DEPTH)),
        );
    }
    group.finish();
    let mut group = c.benchmark_group("classes_legacy_btreemap");
    for inst in workloads::bench_graphs() {
        group.bench_with_input(
            BenchmarkId::from_parameter(&inst.name),
            &inst.graph,
            |b, g| b.iter(|| ViewClasses::compute_legacy(g, ABLATION_DEPTH)),
        );
    }
    group.finish();
}

/// The large-workload sweep: full feasibility analysis on the 1k/5k/10k
/// instances, sequential and with 4 key-fill threads.
fn bench_large_graphs(c: &mut Criterion) {
    let instances = workloads::large_graphs();
    let mut group = c.benchmark_group("election_index_large");
    for inst in &instances {
        group.bench_with_input(
            BenchmarkId::from_parameter(&inst.name),
            &inst.graph,
            |b, g| b.iter(|| election_index(g)),
        );
    }
    group.finish();
    let mut group = c.benchmark_group("election_index_large_threads4");
    let opts = RefineOptions { threads: 4 };
    for inst in &instances {
        group.bench_with_input(
            BenchmarkId::from_parameter(&inst.name),
            &inst.graph,
            |b, g| b.iter(|| anet_views::election_index::analyze_with(g, &opts).election_index),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_refinement,
    bench_naive,
    bench_classes_flat_vs_legacy,
    bench_large_graphs
);
criterion_main!(benches);
