//! Memo/no-memo differential: memoized checking (the engine's
//! transition cache) must be **observationally invisible**. For every
//! (DTD, document) pair the memoized checker — cold cache, warm cache,
//! sequential, pooled at any job count, batched, or driving an editor
//! session — must produce
//! outcomes bit-identical to the memo-off checker (and so must a pooled
//! check with the per-call memo flag off): same verdict, same
//! first failing node in document order, same failing symbol index and
//! rendering, and the same value in **every** `RecognizerStats` counter
//! (a cache hit replays the recorded stats delta of the run it elides).
//!
//! The suite sweeps the builtin DTD corpus in several states of
//! (dis)repair, proptest-generated DTD/document/mutation families, the
//! pooled and batch paths at jobs ∈ {1, 2, 8} (each case's documents also
//! run as one batch, so the pool's workers share the cache), editor
//! sessions replaying identical edit scripts, and guards that the memo
//! stays within its constant bounds on adversarial families.

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

/// A batch as `check_batch_pooled` takes it — the documents' text — and
/// the trees parsed back from that text, which the expectations check:
/// serializing merges adjacent text nodes, so node ids follow the text.
fn text_batch(docs: &[Document]) -> (Arc<Vec<String>>, Vec<Document>) {
    let texts: Vec<String> = docs.iter().map(Document::to_xml).collect();
    let parsed = texts.iter().map(|t| pv_xml::parse(t).expect("serialized")).collect();
    (Arc::new(texts), parsed)
}

/// A batch's outcomes, every document well-formed.
fn well_formed(results: Vec<pv_xml::Result<PvOutcome>>) -> Vec<PvOutcome> {
    results.into_iter().map(|r| r.expect("serialized documents are well-formed")).collect()
}

/// Asserts a memoized batch of one case's documents == plain, cold and
/// warm, at every job count: the workers share one cache.
fn assert_memo_batch_identical(analysis: &DtdAnalysis, docs: Vec<Document>, ctx: &str) {
    let reference = plain(analysis);
    let (docs, parsed) = text_batch(&docs);
    let expect: Vec<PvOutcome> = parsed.iter().map(|d| reference.check_document(d)).collect();
    for jobs in JOBS {
        let memoized = CheckEngine::new(analysis.clone());
        for pass in ["cold", "warm"] {
            let got = well_formed(memoized.check_batch_pooled(&docs, pool(), jobs));
            assert_eq!(got, expect, "{ctx}: {pass} batch diverged at jobs={jobs}");
        }
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
        let mut docs = Vec::new();
        for (label, doc) in corpus_scenarios(b) {
            assert_memo_identical(&analysis, &doc, &format!("{}:{label}", b.name()));
            docs.push(doc);
        }
        if !docs.is_empty() {
            assert_memo_batch_identical(&analysis, docs, b.name());
        }
    }
}

#[test]
fn repetitive_family_checks_identically_across_hit_rate_regimes() {
    let analysis = corpus::repetitive_analysis();
    let mut docs = Vec::new();
    for distinct in [1usize, 16, 256, usize::MAX] {
        let doc = corpus::repetitive(3_000, distinct);
        assert_memo_identical(&analysis, &doc, &format!("repetitive:{distinct}"));
        docs.push(doc);
    }
    assert_memo_batch_identical(&analysis, docs, "repetitive");
}

/// The constant bound of every transition cache (`pv_core::memo`): the
/// most transitions, and the most configurations, it holds at once.
const CACHE_ENTRIES: usize = 2048;

/// Asserts the engine's memo is within [`CACHE_ENTRIES`].
fn assert_within_bounds(engine: &CheckEngine, ctx: &str) {
    let stats = engine.memo_stats().unwrap();
    assert!(
        stats.entries <= CACHE_ENTRIES && stats.shapes <= CACHE_ENTRIES,
        "{ctx}: unbounded growth: {stats:?}"
    );
}

/// A DTD whose `s` takes any of `letters` empty elements in any order,
/// and a document spelling each of them once: every child symbol is a
/// distinct transition from `s`'s one configuration.
fn wide_alphabet(letters: usize) -> (DtdAnalysis, Document) {
    let names: Vec<String> = (0..letters).map(|i| format!("e{i}")).collect();
    let mut dtd = format!("<!ELEMENT r (s*)><!ELEMENT s ({})*>", names.join("|"));
    let mut xml = String::from("<r>");
    for chunk in names.chunks(50) {
        xml.push_str("<s>");
        for name in chunk {
            dtd.push_str(&format!("<!ELEMENT {name} EMPTY>"));
            xml.push_str(&format!("<{name}/>"));
        }
        xml.push_str("</s>");
    }
    xml.push_str("</r>");
    (DtdAnalysis::parse(&dtd, "r").unwrap(), pv_xml::parse(&xml).unwrap())
}

#[test]
fn adversarial_all_distinct_family_respects_the_capacity_bound() {
    // ~580 distinct `s` shapes, and an alphabet wider than the cache:
    // the cache must flush rather than grow, and outcomes must stay
    // identical.
    let analysis = corpus::repetitive_analysis();
    let doc = corpus::repetitive(10_000, usize::MAX);
    let expect = plain(&analysis).check_document(&doc);
    let bounded = CheckEngine::new(analysis.clone());
    for pass in 0..3 {
        assert_eq!(bounded.check_document(&doc), expect, "pass {pass}");
        assert_within_bounds(&bounded, &format!("pass {pass}"));
    }
    let (analysis, doc) = wide_alphabet(CACHE_ENTRIES + 52);
    let expect = plain(&analysis).check_document(&doc);
    let bounded = CheckEngine::new(analysis);
    for pass in 0..3 {
        assert_eq!(bounded.check_document(&doc), expect, "wide pass {pass}");
        assert_within_bounds(&bounded, &format!("wide pass {pass}"));
    }
    let stats = bounded.memo_stats().unwrap();
    assert!(stats.flushes > 0, "capacity bound never engaged: {stats:?}");
}

/// One engine checks more than [`CACHE_ENTRIES`] distinct long child
/// sequences: its memo stays within the constant bounds after every
/// document, however many distinct sequences it has seen.
#[test]
fn distinct_long_child_sequences_keep_the_memo_bounded() {
    let analysis = BuiltinDtd::Figure1.analysis();
    let reference = plain(&analysis);
    let engine = CheckEngine::new(analysis);
    let mut sequences = 0;
    for d in 0..4u32 {
        // 600 `d` nodes, each spelling its number in `e σ` / `e e` pairs
        // after a run of 40 `e`s: 64 children, no two sequences alike.
        let mut xml = String::from("<r>");
        for i in 0..600 {
            let code = d * 600 + i;
            xml.push_str("<a><d>");
            xml.push_str(&"<e/>".repeat(40));
            for bit in 0..12 {
                xml.push_str(if code >> bit & 1 == 1 { "<e/>x" } else { "<e/><e/>" });
            }
            xml.push_str("</d></a>");
            sequences += 1;
        }
        xml.push_str("</r>");
        let doc = pv_xml::parse(&xml).unwrap();
        let expect = reference.check_document(&doc);
        assert!(expect.is_potentially_valid());
        assert_eq!(engine.check_document(&doc), expect, "document {d}");
        assert_within_bounds(&engine, &format!("after {sequences} distinct sequences"));
    }
    assert!(sequences > CACHE_ENTRIES);
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
    let (docs, parsed) = text_batch(&docs);
    let expect: Vec<PvOutcome> = parsed.iter().map(|d| reference.check_document(d)).collect();
    assert!(expect.iter().any(|o| o.is_potentially_valid()));
    assert!(expect.iter().any(|o| !o.is_potentially_valid()));
    let memoized = CheckEngine::new(analysis.clone());
    for jobs in [0usize, 1, 2, 8] {
        let got = well_formed(memoized.check_batch_pooled(&docs, pool(), jobs));
        assert_eq!(got, expect, "jobs={jobs}");
    }
}

/// Replays one edit script (accepted and rejected operations, palette and
/// autocomplete queries, one undo) and returns every observable: the
/// resulting XML, applied/rejected counts, and the recognizer counters +
/// palette and autocomplete answers.
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
    let next = session.expected_next(body);
    session.undo().unwrap();
    let stats = session.stats();
    (
        session.document().to_xml(),
        stats.applied,
        stats.rejected,
        format!("{:?} wraps={wraps:?} next={next:?}", stats.recognizer),
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
        let (docs, parsed) = text_batch(&docs);
        let expect: Vec<PvOutcome> = parsed.iter().map(|d| reference.check_document(d)).collect();
        let memoized = CheckEngine::new(analysis.clone());
        for jobs in JOBS {
            let got = well_formed(memoized.check_batch_pooled(&docs, pool(), jobs));
            prop_assert_eq!(&got, &expect, "jobs={}", jobs);
        }
    }
}
