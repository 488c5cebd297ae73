//! Differential correctness: the greedy ECRecognizer against the exact
//! Earley baseline against the brute-force insertion oracle.
//!
//! * valid documents are accepted by everything;
//! * tag-stripped documents are potentially valid everywhere (Theorem 2);
//! * on arbitrary mutated documents the recognizer and Earley must agree
//!   (for PV-strong DTDs the recognizer gets a generous depth budget and
//!   the test asserts agreement wherever the budget provably suffices);
//! * on tiny instances the brute-force oracle cross-checks Earley itself.

use potential_validity::prelude::*;
use pv_core::depth::DepthPolicy;
use pv_grammar::ecfg::{Grammar, GrammarMode};
use pv_grammar::earley::EarleyRecognizer;
use pv_grammar::naive::{naive_pv, tokens_valid};
use pv_workload::docgen::DocGen;
use pv_workload::dtdgen::{DtdGen, DtdGenParams};
use pv_workload::mutate::Mutator;

fn earley_pv(analysis: &DtdAnalysis, doc: &Document) -> bool {
    let g = Grammar::new(&analysis.dtd, analysis.root, GrammarMode::PotentialValidity);
    let toks = Tokens::delta(doc, doc.root(), &analysis.dtd).unwrap();
    EarleyRecognizer::new(&g).accepts(&toks)
}

fn classes() -> [DtdClass; 3] {
    [DtdClass::NonRecursive, DtdClass::PvWeakRecursive, DtdClass::PvStrongRecursive]
}

/// Generates (analysis, document) pairs: valid, stripped, and mutated.
fn scenarios(
    class: DtdClass,
    seed: u64,
) -> (DtdAnalysis, Vec<(&'static str, Document)>) {
    let analysis = DtdGen::new(
        seed,
        DtdGenParams { class, elements: 7, max_model_atoms: 4, ..Default::default() },
    )
    .generate();
    let mut docs = Vec::new();

    let valid = DocGen::new(&analysis, seed ^ 0xABCD).generate(30);
    let mut stripped = valid.clone();
    Mutator::new(seed).delete_random_markup(&mut stripped, 10);
    let mut swapped = stripped.clone();
    Mutator::new(seed ^ 1).swap_random_siblings(&mut swapped);
    let mut renamed = stripped.clone();
    Mutator::new(seed ^ 2).rename_random_element(&mut renamed, &analysis.dtd);

    docs.push(("valid", valid));
    docs.push(("stripped", stripped));
    docs.push(("swapped", swapped));
    docs.push(("renamed", renamed));
    (analysis, docs)
}

#[test]
fn valid_documents_accepted_by_all_engines() {
    for class in classes() {
        for seed in 0..25u64 {
            let (analysis, docs) = scenarios(class, seed);
            let checker = CheckEngine::new(analysis.clone());
            let (label, doc) = &docs[0];
            assert_eq!(*label, "valid");
            assert!(
                checker.check_document(doc).is_potentially_valid(),
                "recognizer rejects a valid doc: class={class:?} seed={seed}\n{}\n{}",
                analysis.dtd,
                doc.to_xml()
            );
            assert!(
                earley_pv(&analysis, doc),
                "earley rejects a valid doc: class={class:?} seed={seed}"
            );
        }
    }
}

#[test]
fn stripped_documents_remain_potentially_valid_everywhere() {
    // Theorem 2 in action: deletion never breaks potential validity.
    for class in classes() {
        for seed in 0..25u64 {
            let (analysis, docs) = scenarios(class, seed);
            let checker = CheckEngine::new(analysis.clone());
            let (_, doc) = &docs[1];
            assert!(
                checker.check_document(doc).is_potentially_valid(),
                "recognizer: class={class:?} seed={seed}\n{}\n{}",
                analysis.dtd,
                doc.to_xml()
            );
            assert!(earley_pv(&analysis, doc), "earley: class={class:?} seed={seed}");
        }
    }
}

#[test]
fn recognizer_agrees_with_earley_on_mutated_documents() {
    let mut checked = 0usize;
    for class in classes() {
        for seed in 0..40u64 {
            let (analysis, docs) = scenarios(class, seed);
            // A deep budget so that PV-strong elision chains the small
            // documents could need are all within reach.
            let checker = CheckEngine::with_policy(analysis.clone(), DepthPolicy::Bounded(64));
            for (label, doc) in &docs {
                let rec = checker.check_document(doc).is_potentially_valid();
                let ear = earley_pv(&analysis, doc);
                assert_eq!(
                    rec, ear,
                    "engines disagree: class={class:?} seed={seed} scenario={label}\n{}\n{}",
                    analysis.dtd,
                    doc.to_xml()
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 400, "expected a meaningful corpus, got {checked}");
}

#[test]
fn naive_oracle_cross_checks_earley_on_tiny_instances() {
    for class in classes() {
        for seed in 0..12u64 {
            let analysis = DtdGen::new(
                seed,
                DtdGenParams { class, elements: 4, max_model_atoms: 3, ..Default::default() },
            )
            .generate();
            let mut doc = DocGen::new(&analysis, seed).generate(4);
            Mutator::new(seed).delete_random_markup(&mut doc, 2);
            if seed % 2 == 0 {
                Mutator::new(seed ^ 7).swap_random_siblings(&mut doc);
            }
            let toks = Tokens::delta(&doc, doc.root(), &analysis.dtd).unwrap();
            if toks.len() > 12 {
                continue; // keep the brute force tractable
            }
            let ear = {
                let g =
                    Grammar::new(&analysis.dtd, analysis.root, GrammarMode::PotentialValidity);
                EarleyRecognizer::new(&g).accepts(&toks)
            };
            // Soundness: a bounded-insertion witness implies Earley accepts.
            let naive3 = naive_pv(&toks, &analysis.dtd, analysis.root, 3);
            if naive3 {
                assert!(
                    ear,
                    "naive found an extension Earley missed: class={class:?} seed={seed}\n{}\n{}",
                    analysis.dtd,
                    doc.to_xml()
                );
            }
            // Completeness on the reject side: Earley rejecting means no
            // extension exists at all, in particular none within budget 3.
            if !ear {
                assert!(
                    !naive3,
                    "earley rejected but naive completed: class={class:?} seed={seed}"
                );
            }
        }
    }
}

#[test]
fn witnesses_exist_iff_potentially_valid_and_validate() {
    for class in classes() {
        for seed in 0..15u64 {
            let (analysis, docs) = scenarios(class, seed);
            for (label, doc) in &docs {
                let toks = Tokens::delta(doc, doc.root(), &analysis.dtd).unwrap();
                if toks.len() > 60 {
                    continue; // witness search is for human-scale inputs
                }
                let ear = earley_pv(&analysis, doc);
                let witness = complete_tokens(&toks, &analysis.dtd, analysis.root);
                assert_eq!(
                    ear,
                    witness.is_some(),
                    "witness existence diverges from Earley: class={class:?} seed={seed} {label}"
                );
                if let Some(w) = witness {
                    assert!(
                        tokens_valid(&w.tokens(), &analysis.dtd, analysis.root),
                        "witness does not validate: class={class:?} seed={seed} {label}"
                    );
                }
            }
        }
    }
}

#[test]
fn depth_budget_is_monotone_on_strong_dtds() {
    for seed in 0..10u64 {
        let analysis = DtdGen::new(
            seed,
            DtdGenParams {
                class: DtdClass::PvStrongRecursive,
                elements: 6,
                ..Default::default()
            },
        )
        .generate();
        let mut doc = DocGen::new(&analysis, seed).generate(20);
        Mutator::new(seed).delete_random_markup(&mut doc, 8);
        let mut prev = false;
        for d in 0..20u32 {
            let checker = CheckEngine::with_policy(analysis.clone(), DepthPolicy::Bounded(d));
            let now = checker.check_document(&doc).is_potentially_valid();
            assert!(
                !prev || now,
                "acceptance not monotone in D: seed={seed} d={d}\n{}",
                analysis.dtd
            );
            prev = now;
        }
    }
}

// ---------------------------------------------------------------------
// Depth monotonicity as a *property* (Theorem 2 closure): for random
// DTD/document pairs across every class, acceptance at depth D implies
// acceptance at every depth ≥ D. The PR 1 regression class broke exactly
// this (budget starvation made acceptance degrade as the bound grew);
// the cost-ordered agenda must keep it monotone everywhere.
// ---------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    #[test]
    fn acceptance_is_monotone_in_the_depth_bound(
        seed in 0u64..1u64 << 48,
        class_ix in 0usize..3,
        strip in 2usize..14,
    ) {
        let class = classes()[class_ix];
        let analysis = DtdGen::new(
            seed,
            DtdGenParams { class, elements: 6, max_model_atoms: 4, ..Default::default() },
        )
        .generate();
        let mut doc = DocGen::new(&analysis, seed ^ 0xD0C).generate(22);
        Mutator::new(seed).delete_random_markup(&mut doc, strip);
        if seed % 3 == 0 {
            Mutator::new(seed ^ 5).swap_random_siblings(&mut doc);
        }
        let mut prev = false;
        for d in [0u32, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64] {
            let checker = CheckEngine::with_policy(analysis.clone(), DepthPolicy::Bounded(d));
            let now = checker.check_document(&doc).is_potentially_valid();
            prop_assert!(
                !prev || now,
                "acceptance degraded as the depth bound grew: seed={} class={} d={}\n{}",
                seed, class, d, analysis.dtd
            );
            prev = now;
        }
    }
}
