//! X1 — scaling in document size `n` (Theorem 4: the ECRecognizer is
//! linear in the input for a fixed DTD; the Earley baseline on the highly
//! ambiguous `G'` is not practical — Section 3.3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pv_core::token::Tokens;
use pv_core::CheckEngine;
use pv_dtd::builtin::BuiltinDtd;
use pv_grammar::ecfg::{Grammar, GrammarMode};
use pv_grammar::earley::EarleyRecognizer;
use pv_workload::corpus;
use pv_workload::mutate::Mutator;

fn bench_scaling_n(c: &mut Criterion) {
    let analysis = BuiltinDtd::Play.analysis();
    let checker = CheckEngine::new(analysis.clone());
    let g = Grammar::new(&analysis.dtd, analysis.root, GrammarMode::PotentialValidity);
    let earley = EarleyRecognizer::new(&g);

    let mut group = c.benchmark_group("scaling_n");
    for target in [250usize, 1000, 4000, 16000] {
        let mut doc = corpus::play(target);
        Mutator::new(7).delete_random_markup(&mut doc, target / 5);
        let toks = Tokens::delta(&doc, doc.root(), &analysis.dtd).unwrap();
        let n = toks.len();
        group.throughput(Throughput::Elements(n as u64));

        group.bench_with_input(BenchmarkId::new("ecrecognizer", n), &doc, |b, doc| {
            b.iter(|| checker.check_document(doc).is_potentially_valid())
        });
        // Earley grows super-linearly; cap its input sizes.
        if n <= 5000 {
            group.bench_with_input(BenchmarkId::new("earley", n), &toks, |b, toks| {
                b.iter(|| earley.accepts(toks))
            });
        }
        group.bench_with_input(BenchmarkId::new("validate", n), &doc, |b, doc| {
            b.iter(|| {
                pv_grammar::validator::validate_document(doc, &analysis.dtd, analysis.root)
                    .is_ok()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_scaling_n
}
criterion_main!(benches);
