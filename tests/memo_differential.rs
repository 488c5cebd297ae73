//! Memo/no-memo differential: shape-memoized checking must be
//! **observationally invisible**. For every (DTD, document) pair the
//! memoized checker — cold cache, warm cache, sequential, pooled at any
//! job count, batched, or driving an editor session — must produce
//! outcomes bit-identical to the memo-off checker (and so must a pooled
//! check with the per-call memo flag off): same verdict, same
//! first failing node in document order, same failing symbol index and
//! rendering, and the same value in **every** `RecognizerStats` counter
//! (a cache hit replays the recorded stats delta of the run it elides).
//!
//! The suite sweeps the builtin DTD corpus in several states of
//! (dis)repair, proptest-generated DTD/document/mutation families, the
//! pooled and batch paths at jobs ∈ {1, 2, 8}, editor sessions replaying
//! identical edit scripts, and an eviction guard on the adversarial
//! all-distinct-shapes corpus family.

use proptest::prelude::*;
use potential_validity::prelude::*;
use pv_dtd::builtin::BuiltinDtd;
use pv_workload::corpus;
use pv_workload::docgen::DocGen;
use pv_workload::dtdgen::{DtdGen, DtdGenParams};
use pv_workload::mutate::Mutator;
use std::sync::{Arc, OnceLock};

const JOBS: [usize; 3] = [1, 2, 8];

/// The suite's one pool; `jobs` caps how many of its workers a check uses.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(8))
}

/// Memo-off reference checker.
fn plain(analysis: &DtdAnalysis) -> Arc<CheckEngine> {
    let mut c = CheckEngine::new(analysis.clone());
    Arc::get_mut(&mut c).unwrap().set_memo_enabled(false);
    c
}

/// Asserts memoized == plain for one (analysis, document) pair, across
/// cold/warm caches and every pooled job count.
fn assert_memo_identical(analysis: &DtdAnalysis, doc: &Document, ctx: &str) {
    let expect = plain(analysis).check_document(doc);
    let memoized = CheckEngine::new(analysis.clone());
    assert!(memoized.memo_enabled(), "{ctx}: memo must default on");
    assert_eq!(memoized.check_document(doc), expect, "{ctx}: cold cache diverged");
    assert_eq!(memoized.check_document(doc), expect, "{ctx}: warm cache diverged");
    let doc = Arc::new(doc.clone());
    for jobs in JOBS {
        assert_eq!(
            memoized.check_document_pooled(&doc, pool(), jobs, true),
            expect,
            "{ctx}: warm pooled diverged at jobs={jobs}"
        );
        assert_eq!(
            memoized.check_document_pooled(&doc, pool(), jobs, false),
            expect,
            "{ctx}: memo=false pooled diverged at jobs={jobs}"
        );
        let cold = CheckEngine::new(analysis.clone());
        assert_eq!(
            cold.check_document_pooled(&doc, pool(), jobs, true),
            expect,
            "{ctx}: cold pooled diverged at jobs={jobs}"
        );
    }
}

/// The builtin corpus documents, in several states of (dis)repair
/// (mirrors `tests/parallel_differential.rs`).
fn corpus_scenarios(b: BuiltinDtd) -> Vec<(String, Document)> {
    let mut docs = Vec::new();
    if let Some(valid) = corpus::for_builtin(b, 400) {
        let mut stripped = valid.clone();
        Mutator::new(11).delete_random_markup(&mut stripped, 80);
        let mut swapped = stripped.clone();
        Mutator::new(12).swap_random_siblings(&mut swapped);
        let mut renamed = stripped.clone();
        Mutator::new(13).rename_random_element(&mut renamed, &b.analysis().dtd);
        docs.push(("valid".to_owned(), valid));
        docs.push(("stripped".to_owned(), stripped));
        docs.push(("swapped".to_owned(), swapped));
        docs.push(("renamed".to_owned(), renamed));
    }
    docs
}

#[test]
fn corpus_documents_check_identically_with_memo() {
    for b in BuiltinDtd::ALL {
        let analysis = b.analysis();
        for (label, doc) in corpus_scenarios(b) {
            assert_memo_identical(&analysis, &doc, &format!("{}:{label}", b.name()));
        }
    }
}

#[test]
fn repetitive_family_checks_identically_across_hit_rate_regimes() {
    let analysis = corpus::repetitive_analysis();
    for distinct in [1usize, 16, 256, usize::MAX] {
        let doc = corpus::repetitive(3_000, distinct);
        assert_memo_identical(&analysis, &doc, &format!("repetitive:{distinct}"));
    }
}

#[test]
fn adversarial_all_distinct_family_respects_the_capacity_bound() {
    let analysis = corpus::repetitive_analysis();
    // ~580 distinct shapes against a 128-entry cache: the cache must
    // flush rather than grow, and outcomes must stay identical.
    let doc = corpus::repetitive(10_000, usize::MAX);
    let expect = plain(&analysis).check_document(&doc);
    let mut bounded = CheckEngine::new(analysis.clone());
    Arc::get_mut(&mut bounded).unwrap().set_memo_capacity(128);
    for pass in 0..3 {
        assert_eq!(bounded.check_document(&doc), expect, "pass {pass}");
    }
    let stats = bounded.memo_stats().unwrap();
    assert!(stats.entries <= 128, "unbounded growth: {stats:?}");
    assert!(stats.flushes > 0, "capacity bound never engaged: {stats:?}");
    // Sanity: an unbounded cache on the same corpus holds every shape.
    let unbounded = CheckEngine::new(analysis.clone());
    unbounded.check_document(&doc);
    let big = unbounded.memo_stats().unwrap();
    assert!(big.entries > 128, "{big:?}");
}

#[test]
fn batch_checking_matches_memo_off_at_any_job_count() {
    let analysis = BuiltinDtd::Play.analysis();
    let mut docs = corpus::batch(BuiltinDtd::Play, 10, 300).unwrap();
    for (i, doc) in docs.iter_mut().enumerate() {
        Mutator::new(i as u64).delete_random_markup(doc, 40);
        if i % 3 == 0 {
            Mutator::new(i as u64 ^ 7).swap_random_siblings(doc);
        }
    }
    let reference = plain(&analysis);
    let expect: Vec<PvOutcome> = docs.iter().map(|d| reference.check_document(d)).collect();
    assert!(expect.iter().any(|o| o.is_potentially_valid()));
    assert!(expect.iter().any(|o| !o.is_potentially_valid()));
    let memoized = CheckEngine::new(analysis.clone());
    let docs = Arc::new(docs);
    for jobs in [0usize, 1, 2, 8] {
        assert_eq!(memoized.check_batch_pooled(&docs, pool(), jobs), expect, "jobs={jobs}");
    }
}

/// Replays one edit script (accepted and rejected operations, palette and
/// autocomplete queries, one undo) and returns every observable: the
/// resulting XML, applied/rejected counts, and the recognizer counters +
/// palette answer.
fn run_editor_script(session: &mut EditorSession<'_>) -> (String, u64, u64, String) {
    let doc_root = session.document().root();
    // A mix of accepted and rejected operations over the TEI corpus.
    let body = session
        .document()
        .elements()
        .find(|&n| session.document().name(n) == Some("body"))
        .expect("TEI corpus has a body");
    let p = session
        .document()
        .elements()
        .find(|&n| session.document().name(n) == Some("p"))
        .expect("TEI corpus has a p");
    let text = session
        .document()
        .descendants(doc_root)
        .find(|&n| session.document().text(n).is_some())
        .expect("TEI corpus has text");

    session.update_text(text, "Call me Ishmael — again").unwrap();
    let _ = session.insert_text(p, 0, "lead-in ");
    // Wrapping a paragraph in <head> under body is rejected (head must
    // come first / shape violation) or accepted depending on position —
    // either way both sessions must agree; also try a hopeless wrap.
    let _ = session.insert_markup(body, 0..1, "p");
    let _ = session.insert_markup(body, 0..2, "lb");
    let _ = session.rename(p, "head");
    let wraps = session.allowed_wraps(body, 0..1);
    let _ = session.expected_next(body);
    session.undo().unwrap();
    let stats = session.stats();
    (
        session.document().to_xml(),
        stats.applied,
        stats.rejected,
        format!("{:?} wraps={wraps:?}", stats.recognizer),
    )
}

#[test]
fn editor_sessions_behave_identically_with_and_without_memo() {
    let analysis = BuiltinDtd::TeiLite.analysis();
    let doc = corpus::tei(300);
    let mut with_memo = EditorSession::open(&analysis, doc.clone()).unwrap();
    let mut without = EditorSession::open(&analysis, doc).unwrap();
    without.set_memo(false);
    assert!(without.memo_stats().is_none());
    let a = run_editor_script(&mut with_memo);
    let b = run_editor_script(&mut without);
    assert_eq!(a, b, "editor behaviour diverged under memoization");
    assert!(with_memo.verify_invariant());
    assert!(without.verify_invariant());
    // The memoized session actually used its cache.
    let stats = with_memo.memo_stats().unwrap();
    assert!(stats.hits > 0, "editor guards should hit the cache: {stats:?}");
}

fn class_strategy() -> impl Strategy<Value = DtdClass> {
    prop_oneof![
        Just(DtdClass::NonRecursive),
        Just(DtdClass::PvWeakRecursive),
        Just(DtdClass::PvStrongRecursive),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Random DTD families × random documents × random mutations: the
    /// memoized checker is observationally equal to the memo-off one, at
    /// every job count, cold and warm.
    #[test]
    fn memoized_checking_is_bit_identical(
        class in class_strategy(),
        seed in 0u64..5000,
        dels in 0usize..12,
    ) {
        let break_it = seed % 2 == 0;
        let analysis = DtdGen::new(
            seed,
            DtdGenParams { class, elements: 7, max_model_atoms: 4, ..Default::default() },
        )
        .generate();
        let mut doc = DocGen::new(&analysis, seed ^ 0x5EED).generate(40);
        Mutator::new(seed).delete_random_markup(&mut doc, dels);
        if break_it {
            Mutator::new(seed ^ 3).swap_random_siblings(&mut doc);
            Mutator::new(seed ^ 4).rename_random_element(&mut doc, &analysis.dtd);
        }
        let expect = plain(&analysis).check_document(&doc);
        let memoized = CheckEngine::new(analysis.clone());
        prop_assert_eq!(&memoized.check_document(&doc), &expect, "cold");
        prop_assert_eq!(&memoized.check_document(&doc), &expect, "warm");
        let doc = Arc::new(doc);
        for jobs in JOBS {
            prop_assert_eq!(
                &memoized.check_document_pooled(&doc, pool(), jobs, true),
                &expect,
                "jobs={} class={:?} seed={}", jobs, class, seed
            );
        }
    }

    /// Random batches: memoized `check_batch_pooled` equals per-document memo-off
    /// checking, at any job count (one shared cache across documents).
    #[test]
    fn memoized_batch_is_bit_identical(class in class_strategy(), seed in 0u64..5000) {
        let analysis = DtdGen::new(
            seed,
            DtdGenParams { class, elements: 6, ..Default::default() },
        )
        .generate();
        let docs: Vec<Document> = (0..6)
            .map(|i| {
                let mut d = DocGen::new(&analysis, seed ^ i).generate(15 + 5 * i as usize);
                Mutator::new(seed ^ i).delete_random_markup(&mut d, i as usize);
                if i % 2 == 0 {
                    Mutator::new(seed ^ i ^ 9).swap_random_siblings(&mut d);
                }
                d
            })
            .collect();
        let reference = plain(&analysis);
        let expect: Vec<PvOutcome> = docs.iter().map(|d| reference.check_document(d)).collect();
        let memoized = CheckEngine::new(analysis.clone());
        let docs = Arc::new(docs);
        for jobs in JOBS {
            prop_assert_eq!(&memoized.check_batch_pooled(&docs, pool(), jobs), &expect, "jobs={}", jobs);
        }
    }
}
