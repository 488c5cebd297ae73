//! Parallel/sequential differential: `check_batch_pooled` and
//! `check_document_pooled` must return **bit-identical** outcomes to the
//! sequential checker — same verdict, same first failing node (in document order),
//! same failing symbol index, same work counters — at every job count.
//!
//! The unit of parallel work is the document: a batch runs each document
//! as one pool task through the sequential checker's own body, and a
//! single document is always checked on the calling thread. These tests
//! sweep the builtin DTD corpus (realistic documents, stripped and broken
//! variants) and proptest-generated DTD/document families at jobs ∈ {1,
//! 2, 8}, checking each case's documents one by one and as a batch, so
//! the pool's workers run every one of them.

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

/// Asserts pooled == sequential for one case's documents, one by one
/// and as one batch.
fn assert_parallel_identical(analysis: &DtdAnalysis, docs: Vec<Document>, ctx: &str) {
    let checker = CheckEngine::new(analysis.clone());
    let seq: Vec<PvOutcome> = docs.iter().map(|d| checker.check_document(d)).collect();
    for (i, doc) in docs.iter().enumerate() {
        let doc = Arc::new(doc.clone());
        for jobs in JOBS {
            let par = checker.check_document_pooled(&doc, pool(), jobs, true);
            assert_eq!(par, seq[i], "{ctx}: document {i} diverged at jobs={jobs}");
        }
    }
    let (docs, parsed) = text_batch(&docs);
    let seq: Vec<PvOutcome> = parsed.iter().map(|d| checker.check_document(d)).collect();
    for jobs in JOBS {
        let par = well_formed(checker.check_batch_pooled(&docs, pool(), jobs));
        assert_eq!(par, seq, "{ctx}: batch diverged at jobs={jobs}");
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

/// The builtin corpus documents, in several states of (dis)repair:
/// valid, stripped, swapped and renamed, in that order (none when the
/// builtin has no corpus builder).
fn corpus_scenarios(b: BuiltinDtd) -> Vec<Document> {
    let Some(valid) = corpus::for_builtin(b, 800) else { return Vec::new() };
    let mut stripped = valid.clone();
    Mutator::new(11).delete_random_markup(&mut stripped, 80);
    let mut swapped = stripped.clone();
    Mutator::new(12).swap_random_siblings(&mut swapped);
    let mut renamed = stripped.clone();
    Mutator::new(13).rename_random_element(&mut renamed, &b.analysis().dtd);
    vec![valid, stripped, swapped, renamed]
}

#[test]
fn corpus_documents_check_identically_in_parallel() {
    for b in BuiltinDtd::ALL {
        let docs = corpus_scenarios(b);
        if !docs.is_empty() {
            assert_parallel_identical(&b.analysis(), docs, b.name());
        }
    }
}

#[test]
fn builtin_dtds_with_generated_documents_check_identically() {
    // Builtins without a realistic corpus builder still get coverage via
    // the grammar-walking generator + PV-breaking mutations.
    for b in BuiltinDtd::ALL {
        let analysis = b.analysis();
        for seed in 0..4u64 {
            let valid = DocGen::new(&analysis, seed).generate(600);
            let mut stripped = valid.clone();
            Mutator::new(seed).delete_random_markup(&mut stripped, 15);
            let mut swapped = stripped.clone();
            Mutator::new(seed ^ 1).swap_random_siblings(&mut swapped);
            let mut renamed = stripped.clone();
            Mutator::new(seed ^ 2).rename_random_element(&mut renamed, &analysis.dtd);
            let docs = vec![valid, stripped, swapped, renamed];
            assert_parallel_identical(&analysis, docs, &format!("{}:{seed}", b.name()));
        }
    }
}

#[test]
fn batch_checking_matches_per_document_sequential() {
    let analysis = BuiltinDtd::Play.analysis();
    let checker = CheckEngine::new(analysis.clone());
    // A batch mixing healthy, stripped, and broken documents of ~300 to
    // ~900 elements, one pool task each.
    let mut docs = corpus::batch(BuiltinDtd::Play, 10, 600).unwrap();
    for (i, doc) in docs.iter_mut().enumerate() {
        Mutator::new(i as u64).delete_random_markup(doc, 40);
        if i % 3 == 0 {
            Mutator::new(i as u64 ^ 7).swap_random_siblings(doc);
        }
    }
    let (docs, parsed) = text_batch(&docs);
    let expect: Vec<PvOutcome> = parsed.iter().map(|d| checker.check_document(d)).collect();
    // At least one of each verdict, or the scenario is too weak to matter.
    assert!(expect.iter().any(|o| o.is_potentially_valid()));
    assert!(expect.iter().any(|o| !o.is_potentially_valid()));
    for jobs in [0, 1, 2, 8] {
        let got = well_formed(checker.check_batch_pooled(&docs, pool(), jobs));
        assert_eq!(got, expect, "jobs={jobs}");
    }
}

#[test]
fn mixed_batch_with_giant_document_checks_identically() {
    // One giant document among many small ones: one worker checks the
    // giant one while the others drain the rest. Outcomes must stay
    // bit-identical to the per-document sequential checks — healthy and
    // poisoned variants.
    let analysis = BuiltinDtd::Play.analysis();
    let checker = CheckEngine::new(analysis.clone());
    for poison_giant in [false, true] {
        let mut docs = vec![corpus::play(3_000)];
        docs.extend((0..6).map(|i| corpus::play(60 + 10 * i)));
        if poison_giant {
            // An undeclared element deep in the giant document.
            let target = docs[0]
                .elements()
                .nth(1_500)
                .expect("giant doc has plenty of nodes");
            docs[0].rename_element(target, "NOT_IN_DTD").unwrap();
        }
        let (docs, parsed) = text_batch(&docs);
        let expect: Vec<PvOutcome> = parsed.iter().map(|d| checker.check_document(d)).collect();
        assert_eq!(
            expect[0].is_potentially_valid(),
            !poison_giant,
            "scenario must exercise both verdicts"
        );
        for jobs in [2usize, 3, 8] {
            assert_eq!(
                well_formed(checker.check_batch_pooled(&docs, pool(), jobs)),
                expect,
                "poison={poison_giant} jobs={jobs}"
            );
        }
    }
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
    /// pooled checker is observationally equal to the sequential one, on
    /// a ~40-element and a ~600-element document, one by one and as a
    /// batch.
    #[test]
    fn parallel_checking_is_bit_identical(
        class in class_strategy(),
        seed in 0u64..5000,
        dels in 0usize..12,
    ) {
        let break_it = seed % 2 == 0;
        let params = DtdGenParams { class, elements: 7, max_model_atoms: 4, ..Default::default() };
        let analysis = DtdGen::new(seed, params).generate();
        let big = DocGen::new(&analysis, seed ^ 0xB16).generate(600);
        let small = DocGen::new(&analysis, seed ^ 0x5EED).generate(40);
        let checker = CheckEngine::new(analysis.clone());
        let mut docs = vec![small, big];
        for doc in &mut docs {
            Mutator::new(seed).delete_random_markup(doc, dels);
            if break_it {
                Mutator::new(seed ^ 3).swap_random_siblings(doc);
                Mutator::new(seed ^ 4).rename_random_element(doc, &analysis.dtd);
            }
        }
        let seq: Vec<PvOutcome> = docs.iter().map(|d| checker.check_document(d)).collect();
        for (doc, seq) in docs.iter().zip(&seq) {
            let doc = Arc::new(doc.clone());
            for jobs in JOBS {
                prop_assert_eq!(
                    &checker.check_document_pooled(&doc, pool(), jobs, true),
                    seq,
                    "jobs={} class={:?} seed={} nodes={}", jobs, class, seed, doc.element_count()
                );
            }
        }
        let (docs, parsed) = text_batch(&docs);
        let seq: Vec<PvOutcome> = parsed.iter().map(|d| checker.check_document(d)).collect();
        for jobs in JOBS {
            prop_assert_eq!(
                &well_formed(checker.check_batch_pooled(&docs, pool(), jobs)),
                &seq,
                "batch jobs={} class={:?} seed={}", jobs, class, seed
            );
        }
    }

    /// Batches of generated documents, one ~600-element document among
    /// them at a seed-chosen position: `check_batch_pooled` outcome `i`
    /// equals `check_document(&docs[i])`, at any job count.
    #[test]
    fn batch_is_bit_identical(class in class_strategy(), seed in 0u64..5000) {
        let params = DtdGenParams { class, elements: 6, ..Default::default() };
        let analysis = DtdGen::new(seed, params).generate();
        let mut big = DocGen::new(&analysis, seed ^ 0xB16).generate(600);
        Mutator::new(seed).delete_random_markup(&mut big, 4);
        if seed % 2 == 1 {
            Mutator::new(seed ^ 5).swap_random_siblings(&mut big);
        }
        let mut docs: Vec<Document> = (0..6)
            .map(|i| {
                let mut d = DocGen::new(&analysis, seed ^ i).generate(15 + 5 * i as usize);
                Mutator::new(seed ^ i).delete_random_markup(&mut d, i as usize);
                if i % 2 == 0 {
                    Mutator::new(seed ^ i ^ 9).swap_random_siblings(&mut d);
                }
                d
            })
            .collect();
        docs.insert(seed as usize % 7, big);
        let checker = CheckEngine::new(analysis.clone());
        let (docs, parsed) = text_batch(&docs);
        let expect: Vec<PvOutcome> = parsed.iter().map(|d| checker.check_document(d)).collect();
        for jobs in JOBS {
            let got = well_formed(checker.check_batch_pooled(&docs, pool(), jobs));
            prop_assert_eq!(&got, &expect, "jobs={}", jobs);
        }
    }
}
