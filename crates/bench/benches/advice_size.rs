//! Criterion bench for E1: advice construction (`ComputeAdvice`) and the full
//! minimum-time election pipeline across growing feasible graphs.

use anet_bench::workloads;
use anet_election::{compute_advice, AdviceScheme, Instance, MinTime};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_compute_advice(c: &mut Criterion) {
    let mut group = c.benchmark_group("compute_advice");
    for inst in workloads::bench_graphs() {
        group.bench_with_input(
            BenchmarkId::from_parameter(&inst.name),
            &inst.graph,
            |b, g| b.iter(|| compute_advice(g).unwrap().size_bits()),
        );
    }
    group.finish();
}

fn bench_full_election(c: &mut Criterion) {
    let mut group = c.benchmark_group("elect_all_min_time");
    for inst in workloads::bench_graphs() {
        group.bench_with_input(
            BenchmarkId::from_parameter(&inst.name),
            &inst.graph,
            |b, g| b.iter(|| MinTime.elect(&Instance::new(g)).unwrap().time),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_compute_advice, bench_full_election);
criterion_main!(benches);
