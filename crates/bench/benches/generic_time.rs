//! Criterion bench for E4/E5: the `Generic(x)` election across the time
//! milestones of Theorem 4.1.

use anet_bench::workloads;
use anet_election::{AdviceScheme, Generic, Instance, Milestone, MilestoneScheme};
use anet_views::election_index;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_generic(c: &mut Criterion) {
    let mut group = c.benchmark_group("generic_x");
    for inst in workloads::bench_graphs() {
        let phi = election_index(&inst.graph).unwrap();
        for extra in [0usize, 4] {
            let id = format!("{} x=phi+{extra}", inst.name);
            group.bench_with_input(BenchmarkId::from_parameter(id), &inst.graph, |b, g| {
                b.iter(|| {
                    Generic { x: phi + extra }
                        .elect(&Instance::new(g))
                        .unwrap()
                        .time
                })
            });
        }
    }
    group.finish();
}

fn bench_milestones(c: &mut Criterion) {
    let mut group = c.benchmark_group("milestones");
    let inst = &workloads::bench_graphs()[0];
    for m in Milestone::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{m:?}")),
            &inst.graph,
            |b, g| b.iter(|| MilestoneScheme(m).elect(&Instance::new(g)).unwrap().time),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_generic, bench_milestones);
criterion_main!(benches);
