//! Editing assistance queries — the guidance side of the paper's xTagger
//! editor \[10\]: not just *"is this edit legal?"* but *"what could come
//! next?"*.
//!
//! [`expected_next`] answers: given the children already present under an
//! element (a prefix the recognizer accepts), which symbols could be
//! appended while staying potentially valid? A tag palette greys out
//! everything else; σ in the result means "typing text here is fine".
//!
//! The query replays the prefix once per candidate symbol (`O(m·n)` per
//! call); editor-scale nodes keep this interactive. A clever implementation
//! could snapshot the recognizer state instead, but candidate counts are
//! tiny (`m + 1`).

use crate::engine::CheckEngine;
use crate::recognizer::{EcRecognizer, RecognizerStats};
use crate::token::{ChildSym, Tokens};
use pv_dtd::ElemId;
use pv_xml::{Document, NodeId};

/// Symbols that may follow `prefix` in the content of `elem` while keeping
/// it potentially valid. σ is included when character data may follow.
pub fn expected_next(checker: &CheckEngine, elem: ElemId, prefix: &[ChildSym]) -> Vec<ChildSym> {
    let analysis = checker.analysis();
    let ctx = checker.rec_ctx();
    let mut out = Vec::new();
    let candidates = analysis
        .dtd
        .ids()
        .map(ChildSym::Elem)
        .chain([ChildSym::Sigma]);
    for cand in candidates {
        // σσ is not a δ string; an appended σ merges with a trailing run.
        if cand == ChildSym::Sigma && prefix.last() == Some(&ChildSym::Sigma) {
            continue;
        }
        let mut stats = RecognizerStats::default();
        let mut rec = EcRecognizer::new(ctx, elem, checker.depth());
        let mut ok = true;
        for &p in prefix {
            if !rec.validate(p, &mut stats) {
                ok = false;
                break;
            }
        }
        if ok && rec.validate(cand, &mut stats) {
            out.push(cand);
        }
    }
    out
}

/// Convenience wrapper over a live document node: which symbols could be
/// appended to `node`'s children?
pub fn expected_next_for_node(
    checker: &CheckEngine,
    doc: &Document,
    node: NodeId,
) -> Option<Vec<ChildSym>> {
    let analysis = checker.analysis();
    let elem = analysis.id(doc.name(node)?)?;
    let prefix = Tokens::children(doc, node, &analysis.dtd).ok()?;
    Some(expected_next(checker, elem, &prefix))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_dtd::builtin::BuiltinDtd;

    fn names(analysis: &pv_dtd::DtdAnalysis, syms: &[ChildSym]) -> Vec<String> {
        let mut v: Vec<String> = syms.iter().map(|s| s.display(&analysis.dtd)).collect();
        v.sort();
        v
    }

    #[test]
    fn figure1_a_suggestions_follow_the_model() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let checker = CheckEngine::new(analysis.clone());
        let a = analysis.id("a").unwrap();
        let b = analysis.id("b").unwrap();
        let e = analysis.id("e").unwrap();

        // Empty prefix: everything reachable can start (b, c, f directly;
        // d; e and σ through elisions).
        let start = expected_next(&checker, a, &[]);
        let labels = names(&analysis, &start);
        assert!(labels.contains(&"<b>".to_owned()));
        assert!(labels.contains(&"<c>".to_owned()));
        assert!(labels.contains(&"σ".to_owned()));

        // After b, e: Figure 6(A) says c can no longer come.
        let after_be =
            expected_next(&checker, a, &[ChildSym::Elem(b), ChildSym::Elem(e)]);
        let labels = names(&analysis, &after_be);
        assert!(!labels.contains(&"<c>".to_owned()), "{labels:?}");
        assert!(!labels.contains(&"<f>".to_owned()), "{labels:?}");
        // …but d-content symbols still can.
        assert!(labels.contains(&"<e>".to_owned()));
        assert!(labels.contains(&"σ".to_owned()));
    }

    #[test]
    fn empty_content_suggests_nothing() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let checker = CheckEngine::new(analysis.clone());
        let e = analysis.id("e").unwrap();
        assert!(expected_next(&checker, e, &[]).is_empty());
    }

    #[test]
    fn sigma_not_suggested_after_sigma() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let checker = CheckEngine::new(analysis.clone());
        let d = analysis.id("d").unwrap();
        let next = expected_next(&checker, d, &[ChildSym::Sigma]);
        assert!(!next.contains(&ChildSym::Sigma));
        assert!(next.contains(&ChildSym::Elem(analysis.id("e").unwrap())));
    }

    #[test]
    fn node_wrapper_resolves_prefix() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let checker = CheckEngine::new(analysis.clone());
        let doc = pv_xml::parse("<r><a><b/></a></r>").unwrap();
        let a = doc.children(doc.root())[0];
        let next = expected_next_for_node(&checker, &doc, a).unwrap();
        let labels = names(&analysis, &next);
        assert!(labels.contains(&"<c>".to_owned()));
        assert!(!labels.contains(&"<b>".to_owned()), "b cannot repeat: {labels:?}");
    }

    #[test]
    fn suggestions_are_sound() {
        // Every suggested symbol, when appended, must keep the content
        // potentially valid per the full checker.
        let analysis = BuiltinDtd::TeiLite.analysis();
        let checker = CheckEngine::new(analysis.clone());
        let div = analysis.id("div").unwrap();
        let head = analysis.id("head").unwrap();
        let prefix = vec![ChildSym::Elem(head)];
        for cand in expected_next(&checker, div, &prefix) {
            let mut seq = prefix.clone();
            seq.push(cand);
            let mut stats = RecognizerStats::default();
            assert!(
                checker.check_symbols(div, &seq, &mut stats).is_none(),
                "suggested {} breaks the content",
                cand.display(&analysis.dtd)
            );
        }
    }
}
