//! Soundness of the static analyzer's budget certificates
//! (`pv_dtd::budget`): **certified ⇒ `specs_denied == 0` at the default
//! budget**.
//!
//! A certificate `Certified { budget: B }` claims that no speculation
//! round can park more than `B ≤ (m+1)²` requests, so the default budget
//! every check runs with is never used up: every check of every document
//! ends with `specs_denied == 0`. This suite holds the analyzer to that
//! claim — sequential and pooled at jobs ∈ {1, 2, 8}, memo on and off —
//! across:
//!
//! 1. the builtin DTD corpus (the certified seven, with their generated
//!    corpora in several states of disrepair);
//! 2. exhaustive tiny-DTD sweeps (`pv_workload::sweep`) at k ≤ 2, plus
//!    the `SWEEP_K3=1` nightly product — spaces closed out completely;
//! 3. the `corpus::recursive` adversarial families (certified configs
//!    must satisfy the claim; flagged configs claim nothing);
//! 4. randomized DtdGen families across all three DTD classes (proptest).
//!
//! The Glushkov determinism pass rides along: ambiguity witnesses are
//! checked for concreteness (both positions render, the symbol is real)
//! and for *independence* from certification — 1-ambiguity must never
//! block a budget certificate, and certification must never hide an
//! ambiguity witness.

use proptest::prelude::*;
use potential_validity::prelude::*;
use pv_dtd::budget::{self, BudgetVerdict};
use pv_dtd::glushkov::Determinism;
use pv_dtd::builtin::BuiltinDtd;
use pv_dtd::StaticReport;
use pv_workload::corpus;
use pv_workload::docgen::DocGen;
use pv_workload::dtdgen::{DtdGen, DtdGenParams};
use pv_workload::mutate::Mutator;
use pv_workload::sweep;
use std::sync::{Arc, OnceLock};

const JOBS: [usize; 3] = [1, 2, 8];

/// The suite's one pool; `jobs` caps how many of its workers a check
/// uses (`jobs = 1` is the sequential path).
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(8))
}

/// The certificate's whole claim, for one (analysis, documents) pair: if
/// the DTD is certified, every check at the default budget records zero
/// denied speculation requests — sequential and pooled, memo on and off.
/// Flagged DTDs claim nothing.
fn assert_certificate_holds(analysis: &DtdAnalysis, docs: &[Document], ctx: &str) {
    let BudgetVerdict::Certified { budget: b } = budget::certify(analysis).verdict else {
        return;
    };
    let full = budget::full_budget(analysis.dtd.len());
    assert!(b <= full, "{ctx}: certificate exceeds the default budget ({b} > {full})");
    let engine = CheckEngine::new(analysis.clone());
    for (i, doc) in docs.iter().enumerate() {
        let doc = Arc::new(doc.clone());
        for memo in [true, false] {
            for jobs in JOBS {
                let out = engine.check_document_pooled(&doc, pool(), jobs, memo);
                assert_eq!(
                    out.stats.specs_denied, 0,
                    "{ctx}: doc {i} denied speculation under a certificate \
                     (jobs {jobs}, memo {memo})"
                );
            }
        }
    }
}

/// Builtin corpus in several states of (dis)repair (mirrors the memo and
/// parallel differential suites).
fn corpus_scenarios(b: BuiltinDtd) -> Vec<Document> {
    let analysis = b.analysis();
    let mut docs = Vec::new();
    match corpus::for_builtin(b, 300) {
        Some(valid) => {
            let mut stripped = valid.clone();
            Mutator::new(11).delete_random_markup(&mut stripped, 60);
            let mut swapped = stripped.clone();
            Mutator::new(12).swap_random_siblings(&mut swapped);
            docs.push(valid);
            docs.push(stripped);
            docs.push(swapped);
        }
        None => {
            // Tiny paper DTDs have no corpus builder; generate instead.
            let valid = DocGen::new(&analysis, 7).generate(40);
            let mut stripped = valid.clone();
            Mutator::new(7).delete_random_markup(&mut stripped, 12);
            docs.push(valid);
            docs.push(stripped);
        }
    }
    docs
}

/// The analyzer's verdict per builtin is part of the CLI contract
/// (`pvx analyze` exit codes, the CI analyze-smoke job): the strong
/// recursive builtins are flagged, everything else is certified.
#[test]
fn builtin_verdicts_are_stable() {
    for b in BuiltinDtd::ALL {
        let analysis = b.analysis();
        let report = StaticReport::analyze(&analysis);
        let expect_flagged = matches!(b, BuiltinDtd::T1 | BuiltinDtd::T2 | BuiltinDtd::Dissertation);
        assert_eq!(
            !report.budget.is_certified(),
            expect_flagged,
            "{}: unexpected verdict {:?}",
            b.name(),
            report.budget.verdict
        );
        if let BudgetVerdict::Flagged { witness, .. } = &report.budget.verdict {
            assert!(!witness.is_empty(), "{}: flagged without a witness chain", b.name());
        }
    }
}

#[test]
fn builtin_certificates_hold_on_corpus_documents() {
    for b in BuiltinDtd::ALL {
        let analysis = b.analysis();
        let docs = corpus_scenarios(b);
        assert_certificate_holds(&analysis, &docs, b.name());
    }
}

#[test]
fn exhaustive_sweep_k1_certificates_hold() {
    let models = sweep::model_catalogue(1);
    let docs = sweep::enumerate_documents(1, 6);
    for analysis in sweep::enumerate_dtds(1, &models) {
        assert_certificate_holds(&analysis, &docs, "sweep k=1");
    }
}

#[test]
fn exhaustive_sweep_k2_certificates_hold() {
    let models = sweep::model_catalogue(2);
    let docs = sweep::enumerate_documents(2, 5);
    for analysis in sweep::enumerate_dtds(2, &models) {
        assert_certificate_holds(&analysis, &docs, "sweep k=2");
    }
}

/// The k = 3 product runs in the nightly sweep (`SWEEP_K3=1`), matching
/// `tests/completeness.rs`.
#[test]
fn exhaustive_sweep_k3_certificates_hold() {
    if std::env::var("SWEEP_K3").is_err() {
        return;
    }
    let models = sweep::model_catalogue_small(3);
    let docs = sweep::enumerate_documents(3, 4);
    for analysis in sweep::enumerate_dtds(3, &models) {
        assert_certificate_holds(&analysis, &docs, "sweep k=3");
    }
}

/// The adversarial recursive families: whatever the analyzer decides per
/// configuration, its claim must hold — certified configs check with zero
/// denials.
#[test]
fn recursive_family_certificates_hold() {
    for (depth, fanout) in [(2usize, 16usize), (4, 8), (8, 4), (11, 3), (16, 2), (32, 1)] {
        let analysis = corpus::recursive_analysis(depth, fanout);
        let docs = corpus::recursive(depth, fanout);
        assert_certificate_holds(&analysis, &docs, &format!("recursive({depth},{fanout})"));
    }
}

/// Glushkov witnesses are concrete: for a classic non-1-unambiguous
/// model the analyzer names the conflicting symbol and both positions,
/// and the ambiguity does not block budget certification.
#[test]
fn glushkov_witness_is_concrete_and_independent_of_certification() {
    let analysis = DtdAnalysis::parse(
        "<!ELEMENT r ((a, b) | (a, c))>\n\
         <!ELEMENT a EMPTY>\n<!ELEMENT b EMPTY>\n<!ELEMENT c EMPTY>",
        "r",
    )
    .unwrap();
    let report = StaticReport::analyze(&analysis);
    assert!(!report.deterministic());
    let ambiguous: Vec<_> = report.ambiguous().collect();
    assert_eq!(ambiguous.len(), 1);
    assert_eq!(analysis.name(ambiguous[0].elem), "r");
    match &ambiguous[0].determinism {
        Determinism::Ambiguous(w) => {
            assert_eq!(w.symbol, "a", "witness symbol: {w}");
            assert!(!w.first.is_empty() && !w.second.is_empty(), "positions must render: {w}");
        }
        Determinism::Deterministic => panic!("model is not 1-unambiguous"),
    }
    // Non-recursive, so the budget certificate must still be granted.
    assert!(report.budget.is_certified(), "ambiguity blocked certification: {:?}", report.budget);
    // …and the certificate still holds on documents.
    let docs = vec![
        pv_xml::parse("<r><a/><b/></r>").unwrap(),
        pv_xml::parse("<r><a/></r>").unwrap(),
        pv_xml::parse("<r><c/></r>").unwrap(),
    ];
    assert_certificate_holds(&analysis, &docs, "glushkov witness dtd");
}

/// Deterministic models stay deterministic through the full pipeline,
/// and the per-element closures the certificate sums are exposed.
#[test]
fn figure1_report_exposes_bounds() {
    let analysis = BuiltinDtd::Figure1.analysis();
    let report = StaticReport::analyze(&analysis);
    assert!(report.deterministic());
    assert_eq!(report.certified_budget(), Some(40));
    assert_eq!(report.budget.full_budget, 64);
    assert!(!report.budget.bounds.is_empty(), "per-element bounds must be exposed");
}

fn class_strategy() -> impl Strategy<Value = DtdClass> {
    prop_oneof![
        Just(DtdClass::NonRecursive),
        Just(DtdClass::PvWeakRecursive),
        Just(DtdClass::PvStrongRecursive),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random DTD families × random documents × random mutations: the
    /// certificate claim holds for every generated pair, whatever the
    /// analyzer decided.
    #[test]
    fn random_families_respect_certificates(
        class in class_strategy(),
        seed in 0u64..5000,
        dels in 0usize..12,
    ) {
        let analysis = DtdGen::new(
            seed,
            DtdGenParams { class, elements: 7, max_model_atoms: 4, ..Default::default() },
        )
        .generate();
        let valid = DocGen::new(&analysis, seed ^ 0xA11A).generate(32);
        let mut stripped = valid.clone();
        Mutator::new(seed).delete_random_markup(&mut stripped, dels);
        let mut swapped = stripped.clone();
        Mutator::new(seed ^ 3).swap_random_siblings(&mut swapped);
        let mut renamed = stripped.clone();
        Mutator::new(seed ^ 4).rename_random_element(&mut renamed, &analysis.dtd);
        let docs = [valid, stripped, swapped, renamed];
        assert_certificate_holds(
            &analysis,
            &docs,
            &format!("random (seed {seed}, {class})"),
        );
        // Strong recursion must always flag (the certificate's linear
        // bound does not exist), and a certified budget never exceeds the
        // default.
        let report = budget::certify(&analysis);
        if analysis.rec.class == DtdClass::PvStrongRecursive {
            prop_assert!(!report.is_certified(), "strong recursive DTD was certified");
        }
        let full = budget::full_budget(analysis.dtd.len());
        prop_assert!(report.certified_budget().is_none_or(|b| b <= full));
    }
}
