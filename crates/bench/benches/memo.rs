//! X8 — shape-memoized checking: ns/node with the verdict cache off, warm,
//! and cold, on corpora sweeping the hit-rate regime from repetitive
//! (hits dominate) to adversarial all-distinct (every lookup misses).
//!
//! `*_off` disables the cache, `*_on_warm` measures the steady state after
//! one warming pass (the editor regime: re-checks of unchanged shapes),
//! `*_on_cold` clears the cache inside the timed loop — the honest
//! overhead of interning + missing on every shape. A real-corpus pair
//! (the stripped 10k-node play document shared with `parallel_scaling`)
//! anchors the numbers outside the synthetic family.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pv_bench::workloads;
use pv_core::CheckEngine;
use pv_dtd::builtin::BuiltinDtd;
use pv_dtd::DtdAnalysis;
use pv_workload::corpus;
use std::sync::Arc;

/// An engine with shape memoization off.
fn memo_off(analysis: DtdAnalysis) -> Arc<CheckEngine> {
    let mut engine = CheckEngine::new(analysis);
    Arc::get_mut(&mut engine)
        .expect("a fresh engine is unshared")
        .set_memo_enabled(false);
    engine
}

fn bench_memo(c: &mut Criterion) {
    let analysis = corpus::repetitive_analysis();
    let mut group = c.benchmark_group("memo");

    for (label, distinct) in [("repetitive16", 16usize), ("adversarial", usize::MAX)] {
        let doc = workloads::memo_doc(distinct);
        let n = doc.element_count();
        group.throughput(Throughput::Elements(n as u64));

        let off = memo_off(analysis.clone());
        group.bench_with_input(BenchmarkId::new(format!("{label}_off"), n), &doc, |b, doc| {
            b.iter(|| off.check_document(doc).is_potentially_valid())
        });

        let warm = CheckEngine::new(analysis.clone());
        warm.check_document(&doc); // warming pass
        group.bench_with_input(
            BenchmarkId::new(format!("{label}_on_warm"), n),
            &doc,
            |b, doc| b.iter(|| warm.check_document(doc).is_potentially_valid()),
        );

        let cold = CheckEngine::new(analysis.clone());
        group.bench_with_input(
            BenchmarkId::new(format!("{label}_on_cold"), n),
            &doc,
            |b, doc| {
                b.iter(|| {
                    cold.memo_clear();
                    cold.check_document(doc).is_potentially_valid()
                })
            },
        );
    }

    // Real corpus: the stripped play document from the parallel workloads.
    let play = BuiltinDtd::Play.analysis();
    let doc = workloads::parallel_doc();
    let n = doc.element_count();
    group.throughput(Throughput::Elements(n as u64));
    let off = memo_off(play.clone());
    group.bench_with_input(BenchmarkId::new("play_off", n), &doc, |b, doc| {
        b.iter(|| off.check_document(doc).is_potentially_valid())
    });
    let warm = CheckEngine::new(play);
    warm.check_document(&doc);
    group.bench_with_input(BenchmarkId::new("play_on_warm", n), &doc, |b, doc| {
        b.iter(|| warm.check_document(doc).is_potentially_valid())
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_memo
}
criterion_main!(benches);
