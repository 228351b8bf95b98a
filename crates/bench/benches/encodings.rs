//! Criterion bench for the advice substrate: the doubling Concat/Decode code
//! and the trie / labeled-tree codecs (Propositions 3.1-3.4).

use anet_advice::{codec, BitString, LabeledTree, Trie};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_concat_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("concat_decode");
    for n in [64usize, 512, 4096] {
        let parts: Vec<BitString> = (0..n as u64).map(BitString::from_uint).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &parts, |b, parts| {
            b.iter(|| {
                let enc = codec::concat(parts);
                codec::decode(&enc).unwrap().len()
            })
        });
    }
    group.finish();
}

fn bench_tree_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("labeled_tree_codec");
    for n in [64usize, 512, 2048] {
        // A path: node v hangs below v - 1, labels 1..=n from the root.
        let labels: Vec<u64> = (1..=n as u64).collect();
        let parents: Vec<(usize, u64, u64)> = (0..n).map(|v| (v.saturating_sub(1), 0, 1)).collect();
        let tree = LabeledTree::from_parents(0, &labels, &parents).expect("a path is a tree");
        group.bench_with_input(BenchmarkId::from_parameter(n), &tree, |b, t| {
            b.iter(|| LabeledTree::decode_bits(&t.encode()).unwrap().size())
        });
    }
    group.finish();
}

fn bench_trie_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("trie_codec");
    for n in [64u64, 512] {
        let mut trie = Trie::leaf();
        for i in 0..n {
            trie = Trie::internal((1, i), trie, Trie::leaf());
        }
        group.bench_with_input(BenchmarkId::from_parameter(n), &trie, |b, t| {
            b.iter(|| Trie::decode_bits(&t.encode()).unwrap().num_leaves())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_concat_decode,
    bench_tree_codec,
    bench_trie_codec
);
criterion_main!(benches);
