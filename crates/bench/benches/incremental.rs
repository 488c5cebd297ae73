//! X4 — incremental guard costs (Theorem 2 + Proposition 3): character
//! data operations are O(1) regardless of document size; markup insertion
//! costs two ECPV runs; a naive editor would re-check the whole document.
//!
//! The `editor_*` rows measure **applied** edits through an
//! `EditorSession`, journal bookkeeping included: since the undo layer
//! records reverse operations instead of cloning the document, the
//! per-edit cost must stay flat while the document grows 100×.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pv_core::CheckEngine;
use pv_dtd::builtin::BuiltinDtd;
use pv_editor::EditorSession;
use pv_workload::corpus;

fn bench_incremental(c: &mut Criterion) {
    let analysis = BuiltinDtd::TeiLite.analysis();
    let checker = CheckEngine::new(analysis.clone());
    let mut group = c.benchmark_group("incremental");

    for target in [100usize, 1000, 10000] {
        let doc = corpus::tei(target);
        let p = doc.elements().find(|&n| doc.name(n) == Some("p")).unwrap();
        let parent = doc.parent(p).unwrap();

        group.bench_with_input(BenchmarkId::new("text_insert_o1", target), &doc, |b, doc| {
            b.iter(|| checker.check_text_insertion(doc, p).preserves_pv())
        });
        group.bench_with_input(BenchmarkId::new("markup_insert_2ecpv", target), &doc, |b, doc| {
            b.iter(|| checker.check_markup_insertion(doc, p, parent).preserves_pv())
        });
        group.bench_with_input(BenchmarkId::new("full_recheck", target), &doc, |b, doc| {
            b.iter(|| checker.check_document(doc).is_potentially_valid())
        });

        // One applied guarded edit, undo journal included (O(edit), was
        // O(document) when snapshots cloned the buffer).
        let mut session = EditorSession::open(&analysis, corpus::tei(target)).unwrap();
        let t = session
            .document()
            .descendants(session.document().root())
            .find(|&n| session.document().text(n).is_some())
            .unwrap();
        group.bench_function(BenchmarkId::new("editor_text_update", target), |b| {
            b.iter(|| session.update_text(t, "brown fox").unwrap())
        });

        // A 1000-edit editorial trace (the acceptance workload): per-edit
        // cost must not scale with document size.
        let mut trace = EditorSession::open(&analysis, corpus::tei(target)).unwrap();
        let tt = trace
            .document()
            .descendants(trace.document().root())
            .find(|&n| trace.document().text(n).is_some())
            .unwrap();
        group.bench_function(BenchmarkId::new("editor_trace_1k_edits", target), |b| {
            b.iter(|| {
                for i in 0..1000 {
                    trace.update_text(tt, if i % 2 == 0 { "alpha" } else { "beta" }).unwrap();
                }
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_incremental
}
criterion_main!(benches);
