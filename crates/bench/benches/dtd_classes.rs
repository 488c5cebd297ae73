//! X5 — recognizer cost across the three DTD recursion classes at a fixed
//! document size (Definitions 6–8).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pv_core::CheckEngine;
use pv_dtd::DtdClass;
use pv_workload::docgen::DocGen;
use pv_workload::dtdgen::{DtdGen, DtdGenParams};
use pv_workload::mutate::Mutator;

fn bench_dtd_classes(c: &mut Criterion) {
    let mut group = c.benchmark_group("dtd_classes");
    for class in
        [DtdClass::NonRecursive, DtdClass::PvWeakRecursive, DtdClass::PvStrongRecursive]
    {
        let mut gen =
            DtdGen::new(99, DtdGenParams { elements: 16, class, ..Default::default() });
        let analysis = gen.generate();
        let mut docgen = DocGen::new(&analysis, 17);
        let mut doc = docgen.generate(2000);
        let strip = doc.element_count() / 5;
        Mutator::new(17).delete_random_markup(&mut doc, strip);
        let checker = CheckEngine::new(analysis.clone());
        let label = match class {
            DtdClass::NonRecursive => "non_recursive",
            DtdClass::PvWeakRecursive => "pv_weak",
            DtdClass::PvStrongRecursive => "pv_strong",
        };
        group.bench_with_input(BenchmarkId::new("check", label), &doc, |b, doc| {
            b.iter(|| checker.check_document(doc).is_potentially_valid())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_dtd_classes
}
criterion_main!(benches);
