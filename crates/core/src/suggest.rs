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
//! Both step a shared prefix once on one
//! [`CheckScratch`](crate::checker::CheckScratch), save the state it
//! reaches and branch from it, as an incremental parser resumes from a
//! saved state instead of re-parsing an unchanged prefix (Wagner &
//! Graham, "Efficient and Flexible Incremental Parsing", ACM TOPLAS
//! 1998). For a prefix of `n` symbols and `m` declared elements:
//!
//! * autocomplete steps the prefix once, then each candidate one step
//!   from its end: `n + m + 1` steps;
//! * the palette steps the parent's children before the range once, then
//!   per candidate the wrapper symbol from there and, if that passes, the
//!   wrapped content. The children after the range run at most once per
//!   distinct configuration the wrapper steps reach: a candidate that
//!   reaches one an earlier candidate reached takes its verdict, and is
//!   dropped without running its content when that verdict was a
//!   rejection.
//!
//! A step goes through the engine's transition cache as the guards' do:
//! with the memo on, a step an earlier check took is one table probe.
//! With it off the queries take the same steps, sharing by configuration
//! equality, so their answers and work counters are the same either way.
//! A rejected prefix gives no candidates.

use crate::checker::Saved;
use crate::engine::CheckEngine;
use crate::recognizer::RecognizerStats;
use crate::token::{ChildSym, Tokens};
use pv_dtd::ElemId;
use pv_xml::{Document, NodeId};
use std::ops::Range;

/// Symbols that may follow `prefix` in the content of `elem` while keeping
/// it potentially valid. σ is included when character data may follow.
/// The prefix is stepped once and each candidate once from its end; the
/// work is added to `stats`.
pub fn expected_next(
    checker: &CheckEngine,
    elem: ElemId,
    prefix: &[ChildSym],
    stats: &mut RecognizerStats,
) -> Vec<ChildSym> {
    let mut scratch = checker.scratch();
    scratch.start(elem);
    if scratch.walk(prefix, stats).is_some() {
        return Vec::new();
    }
    let end = scratch.save();
    let candidates = checker.analysis().dtd.ids().map(ChildSym::Elem).chain([ChildSym::Sigma]);
    // σσ is not a δ string; an appended σ merges with a trailing run.
    candidates
        .filter(|&cand| cand != ChildSym::Sigma || prefix.last() != Some(&ChildSym::Sigma))
        .filter(|&cand| {
            scratch.resume(end);
            scratch.walk(&[cand], stats).is_none()
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
    Some(expected_next(checker, elem, &prefix, &mut RecognizerStats::default()))
}

/// Element types, in declaration order, that could wrap children `range`
/// of `parent` — the tag-palette query. A candidate fits when a
/// markup-insertion guard would accept it: its content passes, and so
/// does the parent's updated child sequence, simulated at the symbol
/// level (the document is never touched) from the saved state after the
/// children before the range (see the [module docs](self)). The work is
/// added to `stats`. A dead or undeclared parent, a bad range, or an
/// undeclared child gives no candidates.
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
    let (mut before, mut content, mut after) = (Vec::new(), Vec::new(), Vec::new());
    let prefix = Tokens::siblings_into(doc, &kids[..range.start], dtd, &mut before);
    let suffix = Tokens::siblings_into(doc, &kids[range.end..], dtd, &mut after);
    let inner = Tokens::siblings_into(doc, wrapped, dtd, &mut content);
    if prefix.and(suffix).and(inner).is_err() {
        return Vec::new();
    }
    let mut scratch = checker.scratch();
    scratch.start(parent_elem);
    if scratch.walk(&before, stats).is_some() {
        return Vec::new();
    }
    let wrapper_at = scratch.save();
    // Each configuration a wrapper step reached, with the verdict of the
    // children after the range from there once a candidate needed it.
    let mut reached: Vec<(Saved, Option<bool>)> = Vec::new();
    dtd.ids()
        .filter(|&cand| {
            scratch.resume(wrapper_at);
            if scratch.walk(&[ChildSym::Elem(cand)], stats).is_some() {
                return false;
            }
            let i = match reached.iter().position(|&(at, _)| scratch.is_at(at)) {
                Some(i) => i,
                None => {
                    reached.push((scratch.save(), None));
                    reached.len() - 1
                }
            };
            let (at, verdict) = reached[i];
            if verdict == Some(false) || scratch.run(cand, &content, stats).is_some() {
                return false;
            }
            verdict.unwrap_or_else(|| {
                scratch.resume(at);
                let ok = scratch.walk(&after, stats).is_none();
                reached[i].1 = Some(ok);
                ok
            })
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
        let start = expected_next(&checker, a, &[], &mut RecognizerStats::default());
        let labels = names(&analysis, &start);
        assert!(labels.contains(&"<b>".to_owned()));
        assert!(labels.contains(&"<c>".to_owned()));
        assert!(labels.contains(&"σ".to_owned()));

        // After b, e: Figure 6(A) says c can no longer come.
        let after_be = [ChildSym::Elem(b), ChildSym::Elem(e)];
        let after_be = expected_next(&checker, a, &after_be, &mut RecognizerStats::default());
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
        assert!(expected_next(&checker, e, &[], &mut RecognizerStats::default()).is_empty());
    }

    #[test]
    fn sigma_not_suggested_after_sigma() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let checker = CheckEngine::new(analysis.clone());
        let d = analysis.id("d").unwrap();
        let next =
            expected_next(&checker, d, &[ChildSym::Sigma], &mut RecognizerStats::default());
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

    /// A parent with many children, and a range of them in its middle:
    /// a TEI-lite `p` whose phrase content several wrappers fit in the
    /// same way, and a Figure 1 `r` whose children need elided `a`s.
    fn wide_parents() -> Vec<(BuiltinDtd, Document, NodeId, Range<usize>)> {
        let p = ["a <hi>b</hi>", "<name>n</name>", "<ref>see <note>x</note></ref>", "<lb/>"];
        let r = ["<a><b/><c>x</c><d/></a>", "text", "<c>y</c>", "<e/>"];
        let cases = [
            (BuiltinDtd::TeiLite, "p", 11..13, p, "<TEI><text><body><p>{}</p></body></text></TEI>"),
            (BuiltinDtd::Figure1, "r", 10..12, r, "<r>{}</r>"),
        ];
        cases
            .into_iter()
            .map(|(dtd, parent, range, kids, frame)| {
                let body: String = kids.iter().cycle().take(24).copied().collect();
                let doc = pv_xml::parse(&frame.replace("{}", &body)).unwrap();
                let node = doc.elements().find(|&n| doc.name(n) == Some(parent)).unwrap();
                assert!(doc.children(node).len() >= 24);
                (dtd, doc, node, range)
            })
            .collect()
    }

    /// Both queries' answers and work counters on `parent`, and the
    /// flushes each query forced.
    fn queries(
        engine: &CheckEngine,
        doc: &Document,
        parent: NodeId,
        range: Range<usize>,
    ) -> (String, [u64; 2]) {
        let flushes = || engine.memo_stats().map_or(0, |m| m.flushes);
        let (mut wrap_stats, mut next_stats) = Default::default();
        let before = flushes();
        let wraps = allowed_wraps(engine, doc, parent, range, &mut wrap_stats);
        let between = flushes();
        let analysis = engine.analysis();
        let elem = analysis.id(doc.name(parent).unwrap()).unwrap();
        let prefix = Tokens::children(doc, parent, &analysis.dtd).unwrap();
        let next = expected_next(engine, elem, &prefix, &mut next_stats);
        let seen = format!("{wraps:?} {wrap_stats:?} {next:?} {next_stats:?}");
        (seen, [between - before, flushes() - between])
    }

    /// Shrinking the cache until flushes land inside one palette query and
    /// inside one autocomplete query changes no answer and no counter: the
    /// states the queries saved outlive every flush.
    #[test]
    fn flushes_inside_a_query_keep_answers_and_counters() {
        use crate::memo::Bounds;
        use std::sync::Arc;
        let mut flushed = [false; 2];
        for (dtd, doc, parent, range) in wide_parents() {
            let mut off = CheckEngine::new(dtd.analysis());
            Arc::get_mut(&mut off).unwrap().set_memo_enabled(false);
            let (expect, _) = queries(&off, &doc, parent, range.clone());
            let warm = CheckEngine::new(dtd.analysis());
            assert_eq!(queries(&warm, &doc, parent, range.clone()), (expect.clone(), [0, 0]));
            for entries in (1..=16).rev() {
                let mut engine = CheckEngine::new(dtd.analysis());
                let bounds = Bounds { entries, ..Bounds::DEFAULT };
                Arc::get_mut(&mut engine).unwrap().set_memo_bounds(bounds);
                let (seen, flushes) = queries(&engine, &doc, parent, range.clone());
                assert_eq!(seen, expect, "{dtd:?} entries={entries}");
                for (flushed, n) in flushed.iter_mut().zip(flushes) {
                    *flushed |= n > 0;
                }
            }
        }
        assert_eq!(flushed, [true, true], "no flush landed inside a query");
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
        for cand in expected_next(&checker, div, &prefix, &mut RecognizerStats::default()) {
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
