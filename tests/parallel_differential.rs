//! Parallel/sequential differential: `check_document_pooled` and
//! `check_batch_pooled` must return **bit-identical** outcomes to the
//! sequential checker — same verdict, same first failing node (in document order),
//! same failing symbol index, same work counters — at every job count.
//!
//! Counter identity is the strong part of the claim: it holds because the
//! pooled checker reduces per-node results in document order and merges
//! per-node stats with a commutative addition, folding exactly the nodes
//! the sequential checker would have visited (nodes after the first
//! violation are skipped on both sides). These tests sweep the builtin DTD
//! corpus (realistic documents, stripped and broken variants) and
//! proptest-generated DTD/document families at jobs ∈ {1, 2, 8}.

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

/// Asserts pooled == sequential for one (analysis, document) pair.
fn assert_parallel_identical(analysis: &DtdAnalysis, doc: &Document, ctx: &str) {
    let checker = CheckEngine::new(analysis.clone());
    let seq = checker.check_document(doc);
    let doc = Arc::new(doc.clone());
    for jobs in JOBS {
        let par = checker.check_document_pooled(&doc, pool(), jobs, true);
        assert_eq!(par, seq, "{ctx}: outcome diverged at jobs={jobs}");
    }
}

/// The builtin corpus documents, in several states of (dis)repair.
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
fn corpus_documents_check_identically_in_parallel() {
    for b in BuiltinDtd::ALL {
        let analysis = b.analysis();
        for (label, doc) in corpus_scenarios(b) {
            assert_parallel_identical(&analysis, &doc, &format!("{}:{label}", b.name()));
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
            let valid = DocGen::new(&analysis, seed).generate(50);
            let mut stripped = valid.clone();
            Mutator::new(seed).delete_random_markup(&mut stripped, 15);
            let mut swapped = stripped.clone();
            Mutator::new(seed ^ 1).swap_random_siblings(&mut swapped);
            let mut renamed = stripped.clone();
            Mutator::new(seed ^ 2).rename_random_element(&mut renamed, &analysis.dtd);
            for (label, doc) in
                [("valid", valid), ("stripped", stripped), ("swapped", swapped), ("renamed", renamed)]
            {
                assert_parallel_identical(&analysis, &doc, &format!("{}:{label}:{seed}", b.name()));
            }
        }
    }
}

#[test]
fn batch_checking_matches_per_document_sequential() {
    let analysis = BuiltinDtd::Play.analysis();
    let checker = CheckEngine::new(analysis.clone());
    // A batch mixing healthy, stripped, and broken documents.
    let mut docs = corpus::batch(BuiltinDtd::Play, 10, 300).unwrap();
    for (i, doc) in docs.iter_mut().enumerate() {
        Mutator::new(i as u64).delete_random_markup(doc, 40);
        if i % 3 == 0 {
            Mutator::new(i as u64 ^ 7).swap_random_siblings(doc);
        }
    }
    let expect: Vec<PvOutcome> = docs.iter().map(|d| checker.check_document(d)).collect();
    // At least one of each verdict, or the scenario is too weak to matter.
    assert!(expect.iter().any(|o| o.is_potentially_valid()));
    assert!(expect.iter().any(|o| !o.is_potentially_valid()));
    let docs = Arc::new(docs);
    for jobs in [0, 1, 2, 8] {
        assert_eq!(checker.check_batch_pooled(&docs, pool(), jobs), expect, "jobs={jobs}");
    }
}

#[test]
fn mixed_batch_with_giant_document_checks_identically() {
    // One document above the node-granular threshold among many small
    // ones: the two-level scheduler lets idle workers join the giant
    // document's node range. Outcomes must stay bit-identical to the
    // per-document sequential checks — healthy and poisoned variants.
    let analysis = BuiltinDtd::Play.analysis();
    let checker = CheckEngine::new(analysis.clone());
    for poison_giant in [false, true] {
        let mut docs = vec![corpus::play(3_000)]; // >> BATCH_SPLIT_MIN_NODES
        docs.extend((0..6).map(|i| corpus::play(60 + 10 * i)));
        if poison_giant {
            // An undeclared element deep in the giant document.
            let target = docs[0]
                .elements()
                .nth(1_500)
                .expect("giant doc has plenty of nodes");
            docs[0].rename_element(target, "NOT_IN_DTD").unwrap();
        }
        let expect: Vec<PvOutcome> = docs.iter().map(|d| checker.check_document(d)).collect();
        assert_eq!(
            expect[0].is_potentially_valid(),
            !poison_giant,
            "scenario must exercise both verdicts"
        );
        let docs = Arc::new(docs);
        for jobs in [2usize, 3, 8] {
            assert_eq!(
                checker.check_batch_pooled(&docs, pool(), jobs),
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
    /// pooled checker is observationally equal to the sequential one.
    #[test]
    fn parallel_checking_is_bit_identical(
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
        let checker = CheckEngine::new(analysis.clone());
        let seq = checker.check_document(&doc);
        let doc = Arc::new(doc);
        for jobs in JOBS {
            prop_assert_eq!(
                &checker.check_document_pooled(&doc, pool(), jobs, true),
                &seq,
                "jobs={} class={:?} seed={}", jobs, class, seed
            );
        }
    }

    /// Batches of generated documents: `check_batch_pooled` outcome `i` equals
    /// `check_document(&docs[i])`, at any job count.
    #[test]
    fn batch_is_bit_identical(class in class_strategy(), seed in 0u64..5000) {
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
        let checker = CheckEngine::new(analysis.clone());
        let expect: Vec<PvOutcome> = docs.iter().map(|d| checker.check_document(d)).collect();
        let docs = Arc::new(docs);
        for jobs in JOBS {
            prop_assert_eq!(&checker.check_batch_pooled(&docs, pool(), jobs), &expect, "jobs={}", jobs);
        }
    }
}
