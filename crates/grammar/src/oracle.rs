//! The **Earley oracle**: a cached-grammar front end over
//! [`EarleyRecognizer`] for bulk differential comparison against the greedy
//! ECRecognizer.
//!
//! The differential suites compare thousands of documents against one DTD;
//! building the potential-validity grammar `G'_{T,r}` per document (as the
//! early test helpers did) dominates the sweep. [`EarleyOracle`] compiles
//! the grammar once per DTD and answers per-document queries from it, and
//! [`EarleyOracle::divergences`] runs a whole corpus against a
//! [`CheckEngine`] in one call, returning exactly the disagreements — the
//! completeness suites assert that list is empty.
//!
//! The oracle is *exact* (no depth bound, no speculation budget): it
//! accepts a document iff some insertion of markup completes it, so any
//! disagreement with the recognizer at a sufficient depth bound is a
//! recognizer bug — this is the ground truth the cost-ordered speculation
//! agenda is proven against.

use crate::earley::EarleyRecognizer;
use crate::ecfg::{Grammar, GrammarMode};
use pv_core::token::{Tok, Tokens};
use pv_core::CheckEngine;
use pv_dtd::DtdAnalysis;
use pv_xml::Document;
use std::fmt;

/// One recognizer/oracle disagreement found by [`EarleyOracle::divergences`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the offending document in the corpus passed in.
    pub index: usize,
    /// The greedy recognizer's verdict.
    pub recognizer: bool,
    /// The exact oracle's verdict.
    pub earley: bool,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "doc #{}: recognizer says {}, Earley oracle says {}",
            self.index, self.recognizer, self.earley
        )
    }
}

/// An exact potential-validity oracle for one compiled DTD: the `G'_{T,r}`
/// grammar is built once, every query reuses it.
pub struct EarleyOracle<'a> {
    analysis: &'a DtdAnalysis,
    grammar: Grammar,
}

impl<'a> EarleyOracle<'a> {
    /// Compiles the potential-validity grammar for `analysis` (root `r` as
    /// designated by the analysis).
    pub fn new(analysis: &'a DtdAnalysis) -> Self {
        let grammar =
            Grammar::new(&analysis.dtd, analysis.root, GrammarMode::PotentialValidity);
        EarleyOracle { analysis, grammar }
    }

    /// The compiled `G'` grammar (for callers that want raw token runs or
    /// Earley work counters).
    #[inline]
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// `true` iff `toks ∈ L(G')` — the raw token-level query.
    pub fn accepts_tokens(&self, toks: &[Tok]) -> bool {
        EarleyRecognizer::new(&self.grammar).accepts(toks)
    }

    /// Exact Problem PV for a whole document: root must be the designated
    /// root and the `δ_T` token stream must be in `L(G')`. Documents using
    /// undeclared element names violate the problem precondition and are
    /// not potentially valid (matching [`CheckEngine`]'s verdict).
    ///
    /// The explicit root-name check matters: `G'` elides *every* element's
    /// tags including the root's, so a misrooted document's token stream
    /// can still be in `L(G')` — but Definition 3 requires `root(w) = r`,
    /// and the checker enforces it before any content check.
    pub fn is_potentially_valid(&self, doc: &Document) -> bool {
        let root_name = doc.name(doc.root()).unwrap_or("");
        if self.analysis.id(root_name) != Some(self.analysis.root) {
            return false;
        }
        match Tokens::delta(doc, doc.root(), &self.analysis.dtd) {
            Ok(toks) => self.accepts_tokens(&toks),
            Err(_) => false,
        }
    }

    /// Bulk comparison: checks every document with both engines and
    /// returns the disagreements (empty = the recognizer matches the exact
    /// oracle on the whole corpus). The checker must have been built for
    /// the same `DtdAnalysis` — and with a depth bound generous enough for
    /// the corpus, since the oracle has none.
    pub fn divergences<'d, I>(&self, checker: &CheckEngine, docs: I) -> Vec<Divergence>
    where
        I: IntoIterator<Item = &'d Document>,
    {
        let mut out = Vec::new();
        for (index, doc) in docs.into_iter().enumerate() {
            let recognizer = checker.check_document(doc).is_potentially_valid();
            let earley = self.is_potentially_valid(doc);
            if recognizer != earley {
                out.push(Divergence { index, recognizer, earley });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_dtd::builtin::BuiltinDtd;

    #[test]
    fn oracle_matches_single_shot_earley() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let oracle = EarleyOracle::new(&analysis);
        let s = pv_xml::parse(
            "<r><a><b>A quick brown</b><c> fox jumps over a lazy</c> dog<e></e></a></r>",
        )
        .unwrap();
        let w = pv_xml::parse(
            "<r><a><b>A quick brown</b><e></e><c> fox jumps over a lazy</c> dog</a></r>",
        )
        .unwrap();
        assert!(oracle.is_potentially_valid(&s));
        assert!(!oracle.is_potentially_valid(&w));
    }

    #[test]
    fn oracle_rejects_undeclared_and_misrooted() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let oracle = EarleyOracle::new(&analysis);
        assert!(!oracle.is_potentially_valid(&pv_xml::parse("<r><zzz/></r>").unwrap()));
        assert!(!oracle.is_potentially_valid(&pv_xml::parse("<a><b/></a>").unwrap()));
    }

    #[test]
    fn bulk_comparison_finds_no_divergence_on_the_builtin_corpus() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let oracle = EarleyOracle::new(&analysis);
        let checker = CheckEngine::new(analysis.clone());
        let docs: Vec<Document> = [
            "<r/>",
            "<r>text</r>",
            "<r><a><b/><c/><d/></a></r>",
            "<r><a><b/><e/><c/></a></r>",
            "<r><a><d/><c/></a></r>",
        ]
        .iter()
        .map(|x| pv_xml::parse(x).unwrap())
        .collect();
        assert_eq!(oracle.divergences(&checker, &docs), Vec::new());
    }
}
