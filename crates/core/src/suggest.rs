//! Editing assistance queries — the guidance side of the paper's xTagger
//! editor \[10\]: not just *"is this edit legal?"* but *"what could come
//! next?"* and *"which tags fit here?"*.
//!
//! [`expected_next`] answers: given the children already present under an
//! element (a prefix the recognizer accepts), which symbols could be
//! appended while staying potentially valid? σ in the result means
//! "typing text here is fine". [`allowed_wraps`] answers the tag
//! palette: which elements could wrap a range of a node's children?
//!
//! Both run each candidate's ECPV instances on one scratch, through the
//! engine's transition cache as the guards do: `m + 1` runs of the
//! prefix plus a candidate for `m` declared elements (autocomplete), or
//! `2m` runs of the wrapper's and the parent's sequences (palette). With
//! the memo on, a step an earlier run took is one table probe; with it
//! off, each run is one recognizer run.

use crate::engine::CheckEngine;
use crate::recognizer::RecognizerStats;
use crate::token::{ChildSym, Tokens};
use pv_dtd::ElemId;
use pv_xml::{Document, NodeId};
use std::ops::Range;

/// Symbols that may follow `prefix` in the content of `elem` while keeping
/// it potentially valid. σ is included when character data may follow.
pub fn expected_next(checker: &CheckEngine, elem: ElemId, prefix: &[ChildSym]) -> Vec<ChildSym> {
    let (mut scratch, mut stats) = (checker.scratch(), RecognizerStats::default());
    let mut seq = [prefix, &[ChildSym::Sigma]].concat();
    let last = prefix.len();
    let candidates = checker.analysis().dtd.ids().map(ChildSym::Elem).chain([ChildSym::Sigma]);
    // σσ is not a δ string; an appended σ merges with a trailing run.
    candidates
        .filter(|&cand| cand != ChildSym::Sigma || prefix.last() != Some(&ChildSym::Sigma))
        .filter(|&cand| {
            seq[last] = cand;
            checker.rejected_at(elem, &seq, &mut stats, &mut scratch).is_none()
        })
        .collect()
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

/// Element types, in declaration order, that could wrap children `range`
/// of `parent` — the tag-palette query. Each candidate gets the two ECPV
/// runs of a markup-insertion guard (its content, then the parent's
/// updated child sequence, only if the content passes), simulated at the
/// symbol level: the document is never touched. The runs' work is added
/// to `stats`. A dead or undeclared parent, a bad range, or an undeclared
/// child gives no candidates.
pub fn allowed_wraps(
    checker: &CheckEngine,
    doc: &Document,
    parent: NodeId,
    range: Range<usize>,
    stats: &mut RecognizerStats,
) -> Vec<ElemId> {
    let dtd = &checker.analysis().dtd;
    let parent_elem = doc.is_alive(parent).then(|| doc.name(parent)).flatten();
    let Some(parent_elem) = parent_elem.and_then(|n| dtd.id(n)) else { return Vec::new() };
    let kids = doc.children(parent);
    let Some(wrapped) = kids.get(range.clone()) else { return Vec::new() };
    // Child symbols of the three spans, mirroring what a real wrap
    // produces: σ runs merge within a span but never across the wrapper.
    // Its slot holds an element placeholder, overwritten per candidate,
    // so the suffix starts a fresh run.
    let (mut inner, mut outer) = (Vec::new(), Vec::new());
    let prefix = Tokens::siblings_into(doc, &kids[..range.start], dtd, &mut outer);
    let wrapper_at = outer.len();
    outer.push(ChildSym::Elem(parent_elem));
    let suffix = Tokens::siblings_into(doc, &kids[range.end..], dtd, &mut outer);
    let content = Tokens::siblings_into(doc, wrapped, dtd, &mut inner);
    if prefix.and(suffix).and(content).is_err() {
        return Vec::new();
    }
    let mut scratch = checker.scratch();
    dtd.ids()
        .filter(|&cand| {
            outer[wrapper_at] = ChildSym::Elem(cand);
            checker.rejected_at(cand, &inner, stats, &mut scratch).is_none()
                && checker.rejected_at(parent_elem, &outer, stats, &mut scratch).is_none()
        })
        .collect()
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
