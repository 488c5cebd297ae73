//! X6 — end-to-end potential-validity checking on realistic
//! document-centric corpora (play / XHTML / TEI) with 20% of the markup
//! stripped, plus the editorial-trace replay through pv-editor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pv_core::token::Tokens;
use pv_core::CheckEngine;
use pv_dtd::builtin::BuiltinDtd;
use pv_editor::EditorSession;
use pv_workload::corpus;
use pv_workload::mutate::Mutator;
use pv_workload::trace::{resolve_path, strip_and_trace, TraceOp};

fn bench_real_dtds(c: &mut Criterion) {
    let mut group = c.benchmark_group("real_dtds");
    for b in [BuiltinDtd::Play, BuiltinDtd::XhtmlBasic, BuiltinDtd::TeiLite] {
        let analysis = b.analysis();
        let mut doc = corpus::for_builtin(b, 5000).unwrap();
        Mutator::new(1).delete_random_markup(&mut doc, 1000);
        let toks = Tokens::delta(&doc, doc.root(), &analysis.dtd).unwrap();
        let checker = CheckEngine::new(analysis.clone());
        group.throughput(Throughput::Elements(toks.len() as u64));
        group.bench_with_input(BenchmarkId::new("pv_check", b.name()), &doc, |bch, doc| {
            bch.iter(|| checker.check_document(doc).is_potentially_valid())
        });
    }

    // Editorial replay: 100 guarded wraps on a TEI document.
    let analysis = BuiltinDtd::TeiLite.analysis();
    let full = corpus::tei(600);
    let trace = strip_and_trace(&full, 100, 11);
    group.bench_function("editor_replay_100_wraps", |bch| {
        bch.iter(|| {
            let mut session = EditorSession::open(&analysis, trace.start.clone()).unwrap();
            for op in &trace.ops {
                match op {
                    TraceOp::WrapChildren { path, range, name } => {
                        let parent = resolve_path(session.document(), path).unwrap();
                        session.insert_markup(parent, range.clone(), name).unwrap();
                    }
                }
            }
            session.stats().applied
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_real_dtds
}
criterion_main!(benches);
