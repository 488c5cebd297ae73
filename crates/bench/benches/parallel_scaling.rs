//! Parallel sharded checking on one persistent pool:
//! `check_document_pooled` at 1/2/4/8 workers against the sequential
//! baseline on a ~10k-token document, and `check_batch_pooled` over an
//! irregular 24-document corpus.
//!
//! Per-element-node ECPV instances are independent, so on a multi-core
//! host the document check should scale near-linearly until the per-task
//! overhead (one deque pop + result tag per node) dominates. Once `jobs`
//! exceeds the host's CPUs the same bench measures exactly that overhead
//! — both numbers are worth tracking, so the bench always runs every job
//! count. The pool is sized for the largest count; `jobs` caps how many
//! of its workers a region uses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pv_bench::workloads::{parallel_batch, parallel_doc, PARALLEL_JOBS};
use pv_core::token::Tokens;
use pv_core::CheckEngine;
use pv_dtd::builtin::BuiltinDtd;
use pv_par::Pool;
use std::sync::Arc;

fn bench_parallel_scaling(c: &mut Criterion) {
    let checker = CheckEngine::new(BuiltinDtd::Play.analysis());
    let pool = Pool::new(PARALLEL_JOBS.into_iter().max().unwrap_or(1));

    // One large in-progress document (~10k δ tokens, 20% markup stripped).
    let doc = Arc::new(parallel_doc());
    let n = Tokens::delta(&doc, doc.root(), &checker.analysis().dtd).unwrap().len();

    let mut group = c.benchmark_group("parallel_scaling");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_with_input(BenchmarkId::new("sequential", n), &doc, |b, doc| {
        b.iter(|| checker.check_document(doc).is_potentially_valid())
    });
    for jobs in PARALLEL_JOBS {
        group.bench_with_input(BenchmarkId::new(format!("jobs{jobs}"), n), &doc, |b, doc| {
            b.iter(|| checker.check_document_pooled(doc, &pool, jobs, true).is_potentially_valid())
        });
    }
    group.finish();

    // A corpus of 24 size-jittered documents (~800 elements each): the
    // batched API shards per document; the jitter forces steals.
    let docs = Arc::new(parallel_batch());
    let total: usize = docs.iter().map(|d| d.element_count()).sum();
    let mut group = c.benchmark_group("batch_checking");
    group.throughput(Throughput::Elements(total as u64));
    for jobs in PARALLEL_JOBS {
        group.bench_with_input(
            BenchmarkId::new(format!("jobs{jobs}"), docs.len()),
            &docs,
            |b, docs| b.iter(|| checker.check_batch_pooled(docs, &pool, jobs).len()),
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
