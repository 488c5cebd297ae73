//! X3 — cost vs. the depth bound `D` on PV-strong recursive DTDs
//! (Section 4.3.1, Examples 5–6): per-symbol work grows with D, and
//! acceptance is monotone in D.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pv_core::depth::DepthPolicy;
use pv_core::CheckEngine;
use pv_dtd::builtin::BuiltinDtd;
use pv_workload::docgen::DocGen;
use pv_workload::mutate::Mutator;

fn bench_depth_bound(c: &mut Criterion) {
    let t2 = BuiltinDtd::T2.analysis();
    let mut group = c.benchmark_group("depth_bound");

    // The adversarial T2 chain: n b-children need n-2 elisions.
    let doc = pv_xml::parse(&format!("<a>{}</a>", "<b/>".repeat(24))).unwrap();
    for d in [2u32, 8, 22, 64] {
        let checker = CheckEngine::with_policy(t2.clone(), DepthPolicy::Bounded(d));
        group.bench_with_input(BenchmarkId::new("t2_chain24", d), &doc, |b, doc| {
            b.iter(|| checker.check_document(doc).is_potentially_valid())
        });
    }

    // A realistic PV-strong DTD with stripped markup.
    let th = BuiltinDtd::Dissertation.analysis();
    let mut docgen = DocGen::new(&th, 3);
    let mut tdoc = docgen.generate(1000);
    Mutator::new(3).delete_random_markup(&mut tdoc, 200);
    for d in [4u32, 16, 64] {
        let checker = CheckEngine::with_policy(th.clone(), DepthPolicy::Bounded(d));
        group.bench_with_input(BenchmarkId::new("dissertation1k", d), &tdoc, |b, doc| {
            b.iter(|| checker.check_document(doc).is_potentially_valid())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_depth_bound
}
criterion_main!(benches);
