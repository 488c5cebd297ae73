//! Batched checking on one persistent pool: the sequential baseline on a
//! ~10k-token document, and `check_batch_pooled` at 1/2/4/8 workers over
//! an irregular 24-document corpus and over a mixed batch (that large
//! document first, then 23 of the corpus documents).
//!
//! The unit of parallel work is the document, so a batch should scale
//! with the workers until per-document dispatch and shared-cache traffic
//! dominate, and the mixed batch until the large document alone bounds
//! the region. Once `jobs` exceeds the host's CPUs the same bench
//! measures exactly that overhead — both numbers are worth tracking, so
//! the bench always runs every job count. The pool is sized for the
//! largest count; `jobs` caps how many of its workers a region uses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pv_bench::workloads::{mixed_batch, parallel_batch, parallel_doc, PARALLEL_JOBS};
use pv_core::token::Tokens;
use pv_core::CheckEngine;
use pv_dtd::builtin::BuiltinDtd;
use pv_par::Pool;
use pv_xml::Document;
use std::sync::Arc;

fn bench_parallel_scaling(c: &mut Criterion) {
    let checker = CheckEngine::new(BuiltinDtd::Play.analysis());
    let pool = Pool::new(PARALLEL_JOBS.into_iter().max().unwrap_or(1));

    // One large in-progress document (~10k δ tokens, 20% markup stripped).
    let doc = parallel_doc();
    let n = Tokens::delta(&doc, doc.root(), &checker.analysis().dtd).unwrap().len();
    let mut group = c.benchmark_group("parallel_scaling");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_with_input(BenchmarkId::new("sequential", n), &doc, |b, doc| {
        b.iter(|| checker.check_document(doc).is_potentially_valid())
    });
    group.finish();

    // 24 size-jittered documents (~800 elements each), then the mixed
    // batch: one document per pool task in both. Each batch is built just
    // before its group runs.
    bench_batch(c, &checker, &pool, "batch_checking", parallel_batch());
    bench_batch(c, &checker, &pool, "mixed_batch", mixed_batch());
}

/// `check_batch_pooled` over `docs` at every job count, as group `name`.
fn bench_batch(
    c: &mut Criterion,
    checker: &Arc<CheckEngine>,
    pool: &Pool,
    name: &str,
    docs: Vec<Document>,
) {
    let docs = Arc::new(docs);
    let total: usize = docs.iter().map(|d| d.element_count()).sum();
    let mut group = c.benchmark_group(name);
    group.throughput(Throughput::Elements(total as u64));
    for jobs in PARALLEL_JOBS {
        group.bench_with_input(
            BenchmarkId::new(format!("jobs{jobs}"), docs.len()),
            &docs,
            |b, docs| b.iter(|| checker.check_batch_pooled(docs, pool, jobs).len()),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_parallel_scaling
}
criterion_main!(benches);
