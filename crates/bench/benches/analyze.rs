//! X11 — the static analyzer's cost: `certify` over the largest builtin.
//! The analysis is a per-DTD constant (run by `pvx analyze`, `pvx check
//! -v` and the service at `LOAD`), so its absolute cost should stay
//! microscopic.
//!
//! Before timing, the certificate's claim is checked on speculation-heavy
//! stripped corpora (20% of the markup removed): for each certified
//! builtin, a check at the default budget denies no speculation.

use criterion::{criterion_group, criterion_main, Criterion};
use pv_core::CheckEngine;
use pv_dtd::budget;
use pv_dtd::builtin::BuiltinDtd;
use pv_workload::corpus;
use pv_workload::mutate::Mutator;

fn bench_analyze(c: &mut Criterion) {
    for b in [BuiltinDtd::Play, BuiltinDtd::XhtmlBasic, BuiltinDtd::TeiLite] {
        let analysis = b.analysis();
        assert!(budget::certify(&analysis).is_certified(), "{} must certify", b.name());
        let mut doc = corpus::for_builtin(b, 4000).unwrap();
        let strip = doc.element_count() / 5;
        Mutator::new(9).delete_random_markup(&mut doc, strip);
        let out = CheckEngine::new(analysis).check_document(&doc);
        assert_eq!(out.stats.specs_denied, 0, "{}: certificate broken", b.name());
    }

    let mut group = c.benchmark_group("analyze");
    // Glushkov classification is not part of `certify`; this row is the
    // budget certification alone.
    let tei = BuiltinDtd::TeiDrama.analysis();
    group.bench_function("certify_tei_drama", |bench| {
        bench.iter(|| budget::certify(&tei).is_certified())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_analyze
}
criterion_main!(benches);
