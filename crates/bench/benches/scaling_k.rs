//! X2 — scaling in DTD size `k` (Theorem 4's O(k·D·n): for a fixed
//! document size, cost grows at most linearly with the DTD).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pv_core::token::Tokens;
use pv_core::CheckEngine;
use pv_workload::docgen::DocGen;
use pv_workload::dtdgen::{DtdGen, DtdGenParams};
use pv_workload::mutate::Mutator;

fn bench_scaling_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_k");
    for m in [8usize, 16, 32, 64, 128] {
        let mut gen = DtdGen::new(
            2024,
            DtdGenParams { elements: m, max_model_atoms: 6, ..Default::default() },
        );
        let analysis = gen.generate();
        let mut docgen = DocGen::new(&analysis, 5);
        let mut doc = docgen.generate(3000);
        let strip = doc.element_count() / 5;
        Mutator::new(5).delete_random_markup(&mut doc, strip);
        let toks = Tokens::delta(&doc, doc.root(), &analysis.dtd).unwrap();
        let checker = CheckEngine::new(analysis.clone());
        group.throughput(Throughput::Elements(toks.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("ecrecognizer", analysis.stats.k),
            &doc,
            |b, doc| b.iter(|| checker.check_document(doc).is_potentially_valid()),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_scaling_k
}
criterion_main!(benches);
