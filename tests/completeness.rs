//! The recognizer-completeness proof suite: the cost-ordered speculation
//! agenda against the **exact** Earley oracle.
//!
//! The oracle ([`pv_grammar::oracle::EarleyOracle`]) has no depth bound
//! and no speculation budget — it accepts a document iff *some* insertion
//! of markup completes it. The recognizer is compared against it in three
//! regimes:
//!
//! 1. **Exhaustive bounded sweeps** ([`pv_workload::sweep`]): every DTD
//!    over a tiny alphabet (a curated content-model catalogue crossed over
//!    every element) × every document up to a bounded node count. A
//!    divergence class cannot hide between samples here — the spaces are
//!    closed out completely. `SWEEP_K3=1` (set in the nightly CI job)
//!    adds the k = 3 product.
//! 2. **The `corpus::recursive` adversarial families**: deep braided
//!    chains with a mid-level recursive re-entry and a mixed bottom star,
//!    at `k = depth · fanout` up to 36 — the regime where the old
//!    scheduler's committed-sub budget drain (gap a) reproduced. The
//!    certified configurations must be divergence-free; a deliberately
//!    over-budget stress configuration checks the **no-silent-
//!    incompleteness invariant** instead: any divergence must be flagged
//!    by `RecognizerStats::specs_denied > 0` (a budget-denied request),
//!    never silent.
//! 3. **Randomized families** (proptest): DtdGen × DocGen × Mutator pairs
//!    across all three DTD classes, scaled by `PROPTEST_CASES`.
//!
//! Soundness is checked in the same pass: the recognizer must never
//! accept a document the oracle rejects (budget pressure can only cause
//! false *rejects*).

use proptest::prelude::*;
use potential_validity::prelude::*;
use pv_core::depth::DepthPolicy;
use pv_grammar::oracle::EarleyOracle;
use pv_workload::corpus;
use pv_workload::docgen::DocGen;
use pv_workload::dtdgen::{DtdGen, DtdGenParams};
use pv_workload::mutate::Mutator;
use pv_workload::sweep;

/// A depth bound generous enough to stand in for the oracle's "no bound":
/// every finite md value is `< k`, so any accepting elision chain for the
/// corpora below fits comfortably.
const GENEROUS_DEPTH: u32 = 64;

fn checker(analysis: &DtdAnalysis) -> std::sync::Arc<CheckEngine> {
    CheckEngine::with_policy(analysis.clone(), DepthPolicy::Bounded(GENEROUS_DEPTH))
}

/// Asserts the recognizer and the oracle agree on every document, with a
/// readable report for the first few disagreements.
fn assert_no_divergence(analysis: &DtdAnalysis, docs: &[Document], ctx: &str) {
    let oracle = EarleyOracle::new(analysis);
    let chk = checker(analysis);
    let divs = oracle.divergences(&chk, docs);
    if divs.is_empty() {
        return;
    }
    let mut msg = format!("{ctx}: {} divergences under DTD:\n{}\n", divs.len(), analysis.dtd);
    for d in divs.iter().take(5) {
        msg.push_str(&format!("  {} on {}\n", d, docs[d.index].to_xml()));
    }
    panic!("{msg}");
}

#[test]
fn exhaustive_sweep_k1() {
    let models = sweep::model_catalogue(1);
    let docs = sweep::enumerate_documents(1, 6);
    for analysis in sweep::enumerate_dtds(1, &models) {
        assert_no_divergence(&analysis, &docs, "sweep k=1");
    }
}

#[test]
fn exhaustive_sweep_k2() {
    let models = sweep::model_catalogue(2);
    let docs = sweep::enumerate_documents(2, 5);
    for analysis in sweep::enumerate_dtds(2, &models) {
        assert_no_divergence(&analysis, &docs, "sweep k=2");
    }
}

/// The k = 3 product is ~474 DTDs × 266 documents and takes a couple of
/// minutes; it runs in the nightly sweep (`SWEEP_K3=1`) and on demand.
#[test]
fn exhaustive_sweep_k3() {
    if std::env::var("SWEEP_K3").is_err() {
        return;
    }
    let models = sweep::model_catalogue_small(3);
    let docs = sweep::enumerate_documents(3, 4);
    for analysis in sweep::enumerate_dtds(3, &models) {
        assert_no_divergence(&analysis, &docs, "sweep k=3");
    }
}

/// Certified `corpus::recursive` configurations: column-local chains keep
/// the per-symbol hypothesis count linear in `k`, so the scaled budget
/// covers every chain and the family must be divergence-free — including
/// the `k ≥ 32` configurations where the old scheduler's committed-sub
/// drain (gap a) falsely rejected.
#[test]
fn recursive_family_certified_configs() {
    for (depth, fanout) in [(2usize, 16usize), (4, 8), (6, 6), (8, 4), (8, 5), (11, 3), (32, 1)] {
        let analysis = corpus::recursive_analysis(depth, fanout);
        let docs = corpus::recursive(depth, fanout);
        assert_no_divergence(&analysis, &docs, &format!("recursive({depth},{fanout})"));
    }
}

/// Sibling-run stress over the certified configurations: flat documents
/// whose children mix explicit elements from every level with σ runs —
/// the shapes that forced the old scheduler into towers.
#[test]
fn recursive_family_flat_runs() {
    for (depth, fanout) in [(4usize, 8usize), (8, 4), (32, 1)] {
        let analysis = corpus::recursive_analysis(depth, fanout);
        let mut names: Vec<Option<String>> = vec![None]; // None = σ run
        for l in 0..depth {
            names.push(Some(format!("x{l}_0")));
        }
        let mut docs = Vec::new();
        for a in 0..names.len() {
            for b in 0..names.len() {
                if names[a].is_none() && names[b].is_none() {
                    continue; // σσ collapses
                }
                let mut d = Document::new("x0_0");
                let root = d.root();
                for n in [&names[a], &names[b]] {
                    match n {
                        Some(name) => {
                            d.append_element(root, name).unwrap();
                        }
                        None => {
                            d.append_text(root, "t").unwrap();
                        }
                    }
                }
                docs.push(d);
            }
        }
        assert_no_divergence(&analysis, &docs, &format!("recursive flat ({depth},{fanout})"));
    }
}

/// No silent incompleteness: on a deliberately over-budget configuration
/// (a deep *braided* lattice whose per-symbol hypothesis count is
/// exponential — beyond any linear-in-`k` budget), divergences from the
/// exact oracle are permitted **only** on documents whose check recorded
/// at least one budget-denied request. A divergence with
/// `specs_denied == 0` would mean the recognizer silently lost a
/// hypothesis it had budget for — that is a bug at any configuration.
#[test]
fn recursive_family_stress_flags_every_divergence() {
    let analysis = corpus::recursive_analysis(16, 2);
    let oracle = EarleyOracle::new(&analysis);
    let chk = checker(&analysis);
    let mut docs = corpus::recursive(16, 2);
    // Add the sibling runs that exhaust the braided lattice's budget.
    for first in ["x0_0", "x12_0"] {
        let mut d = Document::new("x0_0");
        let root = d.root();
        d.append_element(root, first).unwrap();
        d.append_text(root, "t").unwrap();
        docs.push(d);
    }
    let mut denied_divergences = 0u32;
    for doc in &docs {
        let out = chk.check_document(doc);
        let rec = out.is_potentially_valid();
        let ora = oracle.is_potentially_valid(doc);
        assert!(
            rec <= ora,
            "soundness breach: recognizer accepts what the oracle rejects on {}",
            doc.to_xml()
        );
        if rec != ora {
            assert!(
                out.stats.specs_denied > 0,
                "silent incompleteness on {}: divergence with zero denied requests",
                doc.to_xml()
            );
            denied_divergences += 1;
        }
    }
    // The configuration is *designed* to overrun the budget — if it no
    // longer does, promote it to the certified set.
    assert!(denied_divergences > 0, "stress config no longer stresses the budget");
}

/// Every stripped or partially-stripped document of the builtin corpus
/// agrees with the oracle (Theorem 2 says stripped-valid documents are
/// potentially valid; the oracle confirms the mutated ones either way).
#[test]
fn builtin_corpus_strip_agreement() {
    for b in [BuiltinDtd::Figure1, BuiltinDtd::Play, BuiltinDtd::XhtmlBasic, BuiltinDtd::T2] {
        let analysis = b.analysis();
        let Some(valid) = corpus::for_builtin(b, 120) else {
            // Corpus builders exist for document-centric DTDs only; the
            // tiny paper DTDs get generated documents instead.
            let valid = DocGen::new(&analysis, 7).generate(40);
            let mut stripped = valid.clone();
            Mutator::new(7).delete_random_markup(&mut stripped, 12);
            assert_no_divergence(&analysis, &[valid, stripped], b.name());
            continue;
        };
        let mut stripped = valid.clone();
        Mutator::new(11).delete_random_markup(&mut stripped, 40);
        let mut swapped = stripped.clone();
        Mutator::new(13).swap_random_siblings(&mut swapped);
        assert_no_divergence(&analysis, &[valid, stripped, swapped], b.name());
    }
}

proptest! {
    /// Randomized DTD/document/mutation pairs across every DTD class must
    /// agree with the exact oracle.
    #[test]
    fn random_pairs_agree_with_oracle(seed in 0u64..1u64 << 48, class_ix in 0usize..3) {
        let class = [
            DtdClass::NonRecursive,
            DtdClass::PvWeakRecursive,
            DtdClass::PvStrongRecursive,
        ][class_ix];
        let analysis = DtdGen::new(
            seed,
            DtdGenParams { class, elements: 6, max_model_atoms: 4, ..Default::default() },
        )
        .generate();
        let valid = DocGen::new(&analysis, seed ^ 0x51EE9).generate(24);
        let mut stripped = valid.clone();
        Mutator::new(seed).delete_random_markup(&mut stripped, 8);
        let mut swapped = stripped.clone();
        Mutator::new(seed ^ 1).swap_random_siblings(&mut swapped);
        let mut renamed = stripped.clone();
        Mutator::new(seed ^ 2).rename_random_element(&mut renamed, &analysis.dtd);
        assert_no_divergence(
            &analysis,
            &[valid, stripped, swapped, renamed],
            &format!("random pair (seed {seed}, {class})"),
        );
    }
}
