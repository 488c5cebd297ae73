//! X9 — the speculation agenda on the adversarial recursive families: the
//! cost of *complete* recognition where the pre-agenda scheduler simply
//! (and wrongly) gave up. Reported per element node on the stripped
//! `corpus::recursive` documents, plus the exhaustive k = 2 sweep as a
//! recognizer+oracle differential throughput anchor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pv_core::depth::DepthPolicy;
use pv_core::CheckEngine;
use pv_grammar::oracle::EarleyOracle;
use pv_workload::{corpus, sweep};

fn bench_completeness(c: &mut Criterion) {
    let mut group = c.benchmark_group("completeness");

    // Adversarial recursive families (certified configurations): every
    // document forces elision chains down the braided lattice.
    for (depth, fanout) in [(8usize, 4usize), (32, 1), (4, 8)] {
        let analysis = corpus::recursive_analysis(depth, fanout);
        let docs = corpus::recursive(depth, fanout);
        let nodes: usize = docs.iter().map(|d| d.element_count()).sum();
        let checker = CheckEngine::with_policy(analysis.clone(), DepthPolicy::Bounded(64));
        group.throughput(Throughput::Elements(nodes as u64));
        group.bench_with_input(
            BenchmarkId::new("recursive", format!("d{depth}_f{fanout}")),
            &docs,
            |b, docs| {
                b.iter(|| {
                    docs.iter()
                        .filter(|d| checker.check_document(d).is_potentially_valid())
                        .count()
                })
            },
        );
    }

    // The exhaustive k = 2 differential sweep, recognizer side only — the
    // completeness suite's hot loop (the oracle is benched separately in
    // scaling_n; here it anchors suite wall-clock).
    let models = sweep::model_catalogue(2);
    let dtds = sweep::enumerate_dtds(2, &models);
    let docs = sweep::enumerate_documents(2, 4);
    let pairs = (dtds.len() * docs.len()) as u64;
    group.throughput(Throughput::Elements(pairs));
    group.bench_function("sweep_k2_recognizer", |b| {
        b.iter(|| {
            let mut accepted = 0usize;
            for analysis in &dtds {
                let checker = CheckEngine::with_policy(analysis.clone(), DepthPolicy::Bounded(64));
                for doc in &docs {
                    accepted += usize::from(checker.check_document(doc).is_potentially_valid());
                }
            }
            accepted
        })
    });

    // One oracle-inclusive differential row (smaller space): what the
    // nightly sweep actually pays per (DTD × corpus) unit.
    let models1 = sweep::model_catalogue(1);
    let dtds1 = sweep::enumerate_dtds(1, &models1);
    let docs1 = sweep::enumerate_documents(1, 5);
    group.throughput(Throughput::Elements((dtds1.len() * docs1.len()) as u64));
    group.bench_function("sweep_k1_differential", |b| {
        b.iter(|| {
            let mut divergences = 0usize;
            for analysis in &dtds1 {
                let checker = CheckEngine::with_policy(analysis.clone(), DepthPolicy::Bounded(64));
                let oracle = EarleyOracle::new(analysis);
                divergences += oracle.divergences(&checker, &docs1).len();
            }
            divergences
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_completeness
}
criterion_main!(benches);
