//! The editing session: a document plus the incremental PV guards.

use crate::journal::{apply_unit, RevOp, UndoJournal};
use pv_core::checker::PvViolation;
use pv_core::memo::MemoStats;
use pv_core::recognizer::RecognizerStats;
use pv_core::token::ChildSym;
use pv_core::{suggest, CheckEngine};
use pv_dtd::DtdAnalysis;
use pv_xml::{Document, NodeId, XmlError};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Why an edit was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// The underlying tree operation failed (bad node, bad range, …).
    Xml(XmlError),
    /// The edit would leave the document not potentially valid; it was
    /// rolled back.
    WouldBreakPv(PvViolation),
    /// The session has no undo state left.
    NothingToUndo,
    /// The initial document was not potentially valid.
    NotPotentiallyValid(PvViolation),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::Xml(e) => write!(f, "tree operation failed: {e}"),
            EditError::WouldBreakPv(v) => {
                write!(f, "edit rejected (would break potential validity): {v}")
            }
            EditError::NothingToUndo => write!(f, "nothing to undo"),
            EditError::NotPotentiallyValid(v) => {
                write!(f, "document is not potentially valid: {v}")
            }
        }
    }
}

impl std::error::Error for EditError {}

impl From<XmlError> for EditError {
    fn from(e: XmlError) -> Self {
        EditError::Xml(e)
    }
}

/// Work counters for a session — the numbers behind the incremental-cost
/// claims of table X4 (`experiments --table incremental`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Operations applied successfully.
    pub applied: u64,
    /// Operations rejected by the PV guard.
    pub rejected: u64,
    /// Guards answered by a single reachability probe (Proposition 3) or
    /// by Theorem 2 (no work at all).
    pub constant_time_guards: u64,
    /// Guards that ran the ECRecognizer.
    pub ecpv_guards: u64,
    /// Aggregated recognizer work across all guards.
    pub recognizer: RecognizerStats,
}

/// An always-potentially-valid editing session.
///
/// Two amortization layers keep every operation at the paper's incremental
/// cost, independent of document size:
///
/// * **Undo** is a reverse-operation journal (not document snapshots): a
///   guarded edit records the O(edit-size) inverse ops that revert it, so
///   applying, rejecting, or undoing an edit never clones the buffer.
/// * The session's [`CheckEngine`] persists across edits with its
///   **transition cache** warm, so the two-ECPV guards of markup
///   insertion/rename — and full [`EditorSession::verify_invariant`]
///   sweeps — answer every recognizer step an earlier check already took
///   with one table probe.
pub struct EditorSession<'a> {
    analysis: &'a DtdAnalysis,
    /// Built from a clone of `analysis` and never shared, so the session
    /// can reconfigure it through [`Arc::get_mut`].
    engine: Arc<CheckEngine>,
    doc: Document,
    undo: UndoJournal,
    stats: SessionStats,
}

impl<'a> EditorSession<'a> {
    /// Opens a session on `doc`; fails unless the document is potentially
    /// valid (the invariant the session maintains thereafter).
    pub fn open(analysis: &'a DtdAnalysis, doc: Document) -> Result<Self, EditError> {
        let session = Self::with_document(analysis, doc);
        match session.engine.check_document(&session.doc).violation {
            Some(v) => Err(EditError::NotPotentiallyValid(v)),
            None => Ok(session),
        }
    }

    /// Opens a session on a fresh `<root/>` document.
    pub fn blank(analysis: &'a DtdAnalysis) -> Self {
        Self::with_document(analysis, Document::new(analysis.name(analysis.root)))
    }

    fn with_document(analysis: &'a DtdAnalysis, doc: Document) -> Self {
        EditorSession {
            analysis,
            engine: CheckEngine::new(analysis.clone()),
            doc,
            undo: UndoJournal::default(),
            stats: SessionStats::default(),
        }
    }

    /// Enables or disables the engine's memoization for this
    /// session (on by default; see [`CheckEngine::set_memo_enabled`]).
    /// Guard verdicts are identical either way — this only trades cache
    /// memory for guard latency.
    pub fn set_memo(&mut self, enabled: bool) {
        Arc::get_mut(&mut self.engine)
            .expect("a session never shares its engine")
            .set_memo_enabled(enabled);
    }

    /// Telemetry of the session engine's memo, or `None` when
    /// memoization is disabled.
    pub fn memo_stats(&self) -> Option<MemoStats> {
        self.engine.memo_stats()
    }

    /// The current document.
    #[inline]
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// Session statistics so far.
    #[inline]
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// The engine in use (for ad-hoc queries).
    #[inline]
    pub fn engine(&self) -> &CheckEngine {
        &self.engine
    }

    // --- PV-preserving operations (Theorem 2): no guard -----------------
    //
    // Every operation records its inverse in the undo journal *after* the
    // tree op succeeds (a failed op therefore leaves no trace), so each
    // edit costs O(edit size) — never an O(document) snapshot.

    /// Replaces the text of an existing text node. Never rejected.
    pub fn update_text(&mut self, node: NodeId, text: &str) -> Result<(), EditError> {
        let old =
            if self.doc.is_alive(node) { self.doc.text(node).map(str::to_owned) } else { None };
        self.doc.update_text(node, text)?;
        let old = old.expect("update_text succeeded on a non-text node");
        self.undo.push(vec![RevOp::SetText { node, text: old }]);
        self.stats.applied += 1;
        self.stats.constant_time_guards += 1;
        Ok(())
    }

    /// Deletes a text node. Never rejected.
    pub fn delete_text(&mut self, node: NodeId) -> Result<(), EditError> {
        let parent = if self.doc.is_alive(node) { self.doc.parent(node) } else { None };
        let index = parent.and_then(|_| self.doc.child_index(node));
        self.doc.delete_text(node)?;
        let parent = parent.expect("deleted text node had a parent");
        let index = index.expect("deleted text node had a child index");
        self.undo.push(vec![RevOp::Relink { node, parent, index }]);
        self.stats.applied += 1;
        self.stats.constant_time_guards += 1;
        Ok(())
    }

    /// Removes an element's tag pair, splicing children up (markup
    /// deletion). Never rejected (Theorem 2).
    pub fn delete_markup(&mut self, node: NodeId) -> Result<(), EditError> {
        let (parent, index, count) = if self.doc.is_alive(node) {
            (self.doc.parent(node), self.doc.child_index(node), self.doc.children(node).len())
        } else {
            (None, None, 0)
        };
        self.doc.unwrap_element(node)?;
        let parent = parent.expect("unwrapped element had a parent");
        let index = index.expect("unwrapped element had a child index");
        self.undo.push(vec![RevOp::Rewrap { node, parent, index, count }]);
        self.stats.applied += 1;
        self.stats.constant_time_guards += 1;
        Ok(())
    }

    // --- O(1)-guarded operation (Proposition 3) -------------------------

    /// Inserts a new text node at `parent[index]`. Guarded by one
    /// reachability probe — Proposition 3's O(1) check, performed *before*
    /// touching the tree.
    pub fn insert_text(
        &mut self,
        parent: NodeId,
        index: usize,
        text: &str,
    ) -> Result<NodeId, EditError> {
        let guard = self.engine.check_text_insertion_at(&self.doc, parent, index);
        self.stats.constant_time_guards += 1;
        if let Some(v) = guard.violation {
            self.stats.rejected += 1;
            return Err(EditError::WouldBreakPv(v));
        }
        let id = self.doc.insert_text(parent, index, text)?;
        self.undo.push(vec![RevOp::RemoveSubtree { node: id }]);
        self.stats.applied += 1;
        Ok(id)
    }

    // --- ECPV-guarded operations ----------------------------------------

    /// Wraps children `range` of `parent` in a new `name` element (markup
    /// insertion). Guarded by two ECPV runs; rolled back on rejection.
    pub fn insert_markup(
        &mut self,
        parent: NodeId,
        range: Range<usize>,
        name: &str,
    ) -> Result<NodeId, EditError> {
        let node = self.doc.wrap_children(parent, range, name)?;
        let outcome = self.engine.check_markup_insertion(&self.doc, node, parent);
        self.absorb(outcome.stats);
        self.stats.ecpv_guards += 1;
        if let Some(v) = outcome.violation {
            apply_unit(&mut self.doc, vec![RevOp::Unwrap { node }]).map_err(EditError::Xml)?;
            self.stats.rejected += 1;
            return Err(EditError::WouldBreakPv(v));
        }
        self.undo.push(vec![RevOp::Unwrap { node }]);
        self.stats.applied += 1;
        Ok(node)
    }

    /// Wraps a character range of a text node in a new element — the
    /// "select text, apply tag" gesture. Guarded like
    /// [`EditorSession::insert_markup`].
    pub fn wrap_text(
        &mut self,
        text_node: NodeId,
        start: usize,
        end: usize,
        name: &str,
    ) -> Result<NodeId, EditError> {
        if !self.doc.is_alive(text_node) {
            return Err(EditError::Xml(XmlError::edit("wrap_text: node is not alive")));
        }
        let parent = self
            .doc
            .parent(text_node)
            .ok_or_else(|| EditError::Xml(XmlError::edit("wrap_text: detached node")))?;
        let full = self
            .doc
            .text(text_node)
            .map(str::to_owned)
            .ok_or_else(|| EditError::Xml(XmlError::edit("wrap_text: not a text node")))?;
        let index = self
            .doc
            .child_index(text_node)
            .ok_or_else(|| EditError::Xml(XmlError::edit("wrap_text: node not in parent")))?;
        let (node, _) = self.doc.wrap_text_range(text_node, start, end, name)?;
        // Inverse unit, in application order: drop the pieces the split
        // created (after-part first so indices stay put), then restore the
        // original text node — in place if it survived as the before-part,
        // by resurrection if the split started at 0 and detached it.
        let mut unit = Vec::with_capacity(3);
        let wrapper_idx = self.doc.child_index(node).expect("wrapper was just inserted");
        if end < full.len() {
            let after = self.doc.children(parent)[wrapper_idx + 1];
            unit.push(RevOp::RemoveSubtree { node: after });
        }
        unit.push(RevOp::RemoveSubtree { node });
        if start > 0 {
            unit.push(RevOp::SetText { node: text_node, text: full });
        } else {
            unit.push(RevOp::Relink { node: text_node, parent, index });
        }
        let outcome = self.engine.check_markup_insertion(&self.doc, node, parent);
        self.absorb(outcome.stats);
        self.stats.ecpv_guards += 1;
        if let Some(v) = outcome.violation {
            apply_unit(&mut self.doc, unit).map_err(EditError::Xml)?;
            self.stats.rejected += 1;
            return Err(EditError::WouldBreakPv(v));
        }
        self.undo.push(unit);
        self.stats.applied += 1;
        Ok(node)
    }

    /// Renames an element. Not PV-preserving in general; guarded by two
    /// ECPV runs.
    pub fn rename(&mut self, node: NodeId, name: &str) -> Result<(), EditError> {
        let old =
            if self.doc.is_alive(node) { self.doc.name(node).map(str::to_owned) } else { None };
        self.doc.rename_element(node, name)?;
        let old = old.expect("renamed node had a name");
        let unit = vec![RevOp::Rename { node, name: old }];
        let outcome = self.engine.check_rename(&self.doc, node);
        self.absorb(outcome.stats);
        self.stats.ecpv_guards += 1;
        if let Some(v) = outcome.violation {
            apply_unit(&mut self.doc, unit).map_err(EditError::Xml)?;
            self.stats.rejected += 1;
            return Err(EditError::WouldBreakPv(v));
        }
        self.undo.push(unit);
        self.stats.applied += 1;
        Ok(())
    }

    // --- queries ----------------------------------------------------------

    /// Element names that could legally wrap children `range` of `parent`
    /// — the tag-palette query ([`pv_core::suggest::allowed_wraps`]):
    /// each declared element gets the two ECPV runs of the wrap guard,
    /// simulated at the symbol level on one scratch. The document is never
    /// touched, so a palette query allocates no tree nodes and leaves the
    /// buffer byte-identical; its recognizer work counts in the session's
    /// stats.
    pub fn allowed_wraps(&mut self, parent: NodeId, range: Range<usize>) -> Vec<String> {
        let mut stats = RecognizerStats::default();
        let wraps = suggest::allowed_wraps(&self.engine, &self.doc, parent, range, &mut stats);
        self.absorb(stats);
        wraps.into_iter().map(|e| self.analysis.name(e).to_owned()).collect()
    }

    /// Which symbols (child elements, or σ for text) could be appended to
    /// `node` while keeping the document potentially valid? The
    /// autocomplete query (see [`pv_core::suggest`]). Names are returned
    /// ready for display; σ appears as `"#text"`.
    pub fn expected_next(&self, node: NodeId) -> Vec<String> {
        suggest::expected_next_for_node(&self.engine, &self.doc, node)
            .unwrap_or_default()
            .into_iter()
            .map(|s| match s {
                ChildSym::Elem(e) => self.analysis.name(e).to_owned(),
                ChildSym::Sigma => "#text".to_owned(),
            })
            .collect()
    }

    /// Reverts the last applied operation by replaying its recorded
    /// inverse — O(size of that edit), regardless of document size.
    /// NodeIds handed out before the undone edit remain valid (tombstoned
    /// arena slots are resurrected, never reallocated).
    pub fn undo(&mut self) -> Result<(), EditError> {
        let unit = self.undo.pop().ok_or(EditError::NothingToUndo)?;
        apply_unit(&mut self.doc, unit).map_err(EditError::Xml)
    }

    /// Number of operations currently undoable (the journal retains the
    /// most recent 256).
    pub fn undo_depth(&self) -> usize {
        self.undo.len()
    }

    /// Re-checks the whole document (should always hold — exposed for
    /// tests and defensive callers).
    pub fn verify_invariant(&self) -> bool {
        self.engine.check_document(&self.doc).is_potentially_valid()
    }

    // --- internals --------------------------------------------------------

    fn absorb(&mut self, s: RecognizerStats) {
        self.stats.recognizer.merge(&s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_dtd::builtin::BuiltinDtd;

    #[test]
    fn blank_session_is_potentially_valid() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let s = EditorSession::blank(&analysis);
        assert!(s.verify_invariant());
    }

    #[test]
    fn open_rejects_non_pv_documents() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let doc =
            pv_xml::parse("<r><a><b/><e/><c/></a></r>").unwrap(); // Example 1's w-shape
        assert!(matches!(
            EditorSession::open(&analysis, doc),
            Err(EditError::NotPotentiallyValid(_))
        ));
    }

    /// Replays the paper's Figure 3 editing story: start from bare text,
    /// mark it up step by step; every state stays potentially valid.
    #[test]
    fn paper_editorial_walkthrough() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let mut s = EditorSession::blank(&analysis);
        let root = s.document().root();

        // Editors start by pasting the transcription.
        let text = s.insert_text(root, 0, "A quick brown fox jumps over a lazy dog").unwrap();
        // Wrap the whole thing in <a>.
        let a = s.insert_markup(root, 0..1, "a").unwrap();
        let _ = text;
        // Tag "A quick brown" as <b>.
        let t = s.document().children(a)[0];
        let _b = s.wrap_text(t, 0, "A quick brown".len(), "b").unwrap();
        // Tag " fox jumps over a lazy" as <c>.
        let t2 = s.document().children(a)[1];
        let _c = s.wrap_text(t2, 0, " fox jumps over a lazy".len(), "c").unwrap();
        assert!(s.verify_invariant());
        // Append the <e/> marker after " dog".
        let e = s.insert_markup(a, 3..3, "e").unwrap();
        let _ = e;
        assert!(s.verify_invariant());
        assert_eq!(s.stats().applied, 5);
        assert_eq!(s.stats().rejected, 0);

        // The out-of-order Example 1 mistake is rejected: wrapping "dog"
        // in <f> (f = (c, e)) before <c> position… try an illegal wrap:
        let bad = s.insert_markup(a, 0..2, "e");
        assert!(matches!(bad, Err(EditError::WouldBreakPv(_))));
        // Rolled back: document unchanged and still PV.
        assert!(s.verify_invariant());
        assert_eq!(s.stats().rejected, 1);
    }

    #[test]
    fn text_insertion_guard_is_o1_and_rejects_empty_elements() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let doc = pv_xml::parse("<r><a><b/><c/><d><e/></d></a></r>").unwrap();
        let mut s = EditorSession::open(&analysis, doc).unwrap();
        let a = s.document().children(s.document().root())[0];
        let d = s.document().children(a)[2];
        let e = s.document().children(d)[0];
        // Inserting text under <e> (EMPTY) is rejected without running the
        // recognizer.
        let before = s.stats().recognizer.node_visits;
        assert!(matches!(s.insert_text(e, 0, "boom"), Err(EditError::WouldBreakPv(_))));
        assert_eq!(s.stats().recognizer.node_visits, before, "O(1) guard ran the recognizer");
        // Inserting under <d> (mixed) is fine.
        s.insert_text(d, 0, "fine").unwrap();
        assert!(s.verify_invariant());
    }

    #[test]
    fn text_insertion_next_to_a_text_run_is_accepted() {
        // Both inserts land before <d/>, merging into the existing σ run:
        // the document stays PV, so neither may be refused.
        let analysis = DtdAnalysis::parse(
            "<!ELEMENT x (c*, d)> <!ELEMENT c (#PCDATA)> <!ELEMENT d EMPTY>",
            "x",
        )
        .unwrap();
        let doc = pv_xml::parse("<x>a<d/></x>").unwrap();
        let mut s = EditorSession::open(&analysis, doc).unwrap();
        let root = s.document().root();
        s.insert_text(root, 1, "b").unwrap();
        s.insert_text(root, 2, "c").unwrap();
        assert_eq!(s.document().to_xml(), "<x>abc<d/></x>");
        assert!(s.verify_invariant());
    }

    #[test]
    fn deletions_never_rejected() {
        let analysis = BuiltinDtd::XhtmlBasic.analysis();
        let doc = pv_xml::parse(
            "<html><head><title>t</title></head><body><p>x<b>y</b></p></body></html>",
        )
        .unwrap();
        let mut s = EditorSession::open(&analysis, doc).unwrap();
        // Delete every non-root element one by one; all must succeed.
        loop {
            let victim = s
                .document()
                .elements()
                .find(|&n| n != s.document().root());
            match victim {
                None => break,
                Some(v) => s.delete_markup(v).unwrap(),
            }
            assert!(s.verify_invariant());
        }
    }

    #[test]
    fn undo_restores_previous_state() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let mut s = EditorSession::blank(&analysis);
        let root = s.document().root();
        s.insert_text(root, 0, "hello").unwrap();
        let xml_before = s.document().to_xml();
        s.insert_markup(root, 0..1, "a").unwrap();
        assert_ne!(s.document().to_xml(), xml_before);
        s.undo().unwrap();
        assert_eq!(s.document().to_xml(), xml_before);
        s.undo().unwrap();
        assert_eq!(s.document().to_xml(), "<r/>");
        assert!(matches!(s.undo(), Err(EditError::NothingToUndo)));
    }

    #[test]
    fn undo_round_trips_every_operation_kind() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let doc = pv_xml::parse("<r><a><b>brown</b><c>lazy</c> dog<e/></a></r>").unwrap();
        let mut s = EditorSession::open(&analysis, doc).unwrap();
        let a = s.document().children(s.document().root())[0];
        let before = s.document().to_xml();

        // delete_markup + undo (rewrap restores the exact structure).
        let b = s.document().children(a)[0];
        s.delete_markup(b).unwrap();
        s.undo().unwrap();
        assert_eq!(s.document().to_xml(), before);
        // The original node id survived the delete/undo round trip.
        assert_eq!(s.document().name(b), Some("b"));

        // update_text + undo.
        let t = s.document().children(b)[0];
        s.update_text(t, "red").unwrap();
        s.undo().unwrap();
        assert_eq!(s.document().to_xml(), before);

        // delete_text + undo.
        s.delete_text(t).unwrap();
        s.undo().unwrap();
        assert_eq!(s.document().to_xml(), before);
        assert_eq!(s.document().text(t), Some("brown"));

        // rename + undo (c → f is accepted, then reverted).
        let c = s.document().children(a)[1];
        s.rename(c, "f").unwrap();
        s.undo().unwrap();
        assert_eq!(s.document().to_xml(), before);

        // insert_markup (Figure 3's completing <d> around " dog"<e/>) +
        // undo.
        s.insert_markup(a, 2..4, "d").unwrap();
        s.undo().unwrap();
        assert_eq!(s.document().to_xml(), before);

        // insert_text (merging into the trailing σ run) + undo.
        s.insert_text(a, 3, "tail").unwrap();
        s.undo().unwrap();
        assert_eq!(s.document().to_xml(), before);

        assert_eq!(s.undo_depth(), 0);
        assert!(s.verify_invariant());
    }

    #[test]
    fn wrap_text_undo_restores_all_split_cases() {
        let analysis = BuiltinDtd::XhtmlBasic.analysis();
        let doc = pv_xml::parse("<html><body><p>hello world</p></body></html>").unwrap();
        let mut s = EditorSession::open(&analysis, doc).unwrap();
        let p = s
            .document()
            .elements()
            .find(|&n| s.document().name(n) == Some("p"))
            .unwrap();
        let t = s.document().children(p)[0];
        let before = s.document().to_xml();

        // Suffix wrap (no after-part).
        s.wrap_text(t, 6, 11, "b").unwrap();
        s.undo().unwrap();
        assert_eq!(s.document().to_xml(), before);

        // Prefix wrap from offset 0: the original text node is detached by
        // the split and must be resurrected by the journal.
        s.wrap_text(t, 0, 5, "b").unwrap();
        s.undo().unwrap();
        assert_eq!(s.document().to_xml(), before);
        assert_eq!(s.document().text(t), Some("hello world"));

        // Middle wrap (three pieces: before, wrapper, after).
        s.wrap_text(t, 3, 8, "i").unwrap();
        s.undo().unwrap();
        assert_eq!(s.document().to_xml(), before);

        // A rejected wrap (<li> under <p> is hopeless) rolls back via the
        // same unit and records nothing.
        assert!(matches!(s.wrap_text(t, 0, 5, "li"), Err(EditError::WouldBreakPv(_))));
        assert_eq!(s.document().to_xml(), before);
        assert_eq!(s.undo_depth(), 0);
        assert!(s.verify_invariant());
    }

    #[test]
    fn rejected_ops_leave_no_undo_entry() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let mut s = EditorSession::blank(&analysis);
        let root = s.document().root();
        s.insert_text(root, 0, "x").unwrap();
        let snapshot = s.document().to_xml();
        // Illegal wrap must roll back and not leave a bogus undo frame.
        assert!(s.insert_markup(root, 0..1, "e").is_err());
        assert_eq!(s.document().to_xml(), snapshot);
        s.undo().unwrap(); // undoes insert_text, not the failed wrap
        assert_eq!(s.document().to_xml(), "<r/>");
    }

    #[test]
    fn allowed_wraps_matches_figure1_semantics() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let mut s = EditorSession::blank(&analysis);
        let root = s.document().root();
        s.insert_text(root, 0, "words").unwrap();
        // Wrapping the σ directly under r: a, b, c, d, f all reach PCDATA…
        let mut wraps = s.allowed_wraps(root, 0..1);
        wraps.sort();
        // e is EMPTY — cannot contain the text.
        assert!(!wraps.contains(&"e".to_owned()));
        assert!(wraps.contains(&"a".to_owned()));
        assert!(wraps.contains(&"c".to_owned()));
        assert!(s.verify_invariant());
    }

    #[test]
    fn allowed_wraps_is_read_only_and_allocation_free() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let mut s = EditorSession::blank(&analysis);
        let root = s.document().root();
        s.insert_text(root, 0, "words").unwrap();
        let xml = s.document().to_xml();
        // Two arena allocations bracketing the palette query: if the query
        // allocated (or tombstoned) any node, the indices would diverge by
        // more than the undo'd probe itself.
        let probe1 = s.insert_text(root, 0, "p").unwrap();
        s.undo().unwrap();
        let wraps = s.allowed_wraps(root, 0..1);
        assert!(!wraps.is_empty());
        assert_eq!(s.document().to_xml(), xml, "palette query mutated the buffer");
        let probe2 = s.insert_text(root, 0, "p").unwrap();
        assert_eq!(
            probe2.index(),
            probe1.index() + 1,
            "allowed_wraps grew the node arena"
        );
    }

    #[test]
    fn rename_guarded() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let doc = pv_xml::parse("<r><a><b/><c/><d/></a></r>").unwrap();
        let mut s = EditorSession::open(&analysis, doc).unwrap();
        let a = s.document().children(s.document().root())[0];
        let c = s.document().children(a)[1];
        // c → b creates the unfixable b,b,d order.
        assert!(matches!(s.rename(c, "b"), Err(EditError::WouldBreakPv(_))));
        assert!(s.verify_invariant());
        // c → f is fine (f fits the (c|f) slot).
        s.rename(c, "f").unwrap();
        assert!(s.verify_invariant());
    }

    #[test]
    fn expected_next_guides_the_palette() {
        let analysis = BuiltinDtd::XhtmlBasic.analysis();
        let doc = pv_xml::parse("<html><head><title>t</title></head></html>").unwrap();
        let s = EditorSession::open(&analysis, doc).unwrap();
        let root = s.document().root();
        let next = s.expected_next(root);
        assert!(next.contains(&"body".to_owned()), "{next:?}");
        assert!(!next.contains(&"head".to_owned()), "head cannot repeat: {next:?}");
        // p can follow too (inside an elided body).
        assert!(next.contains(&"p".to_owned()), "{next:?}");
    }

    #[test]
    fn mixed_guard_costs_tracked() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let mut s = EditorSession::blank(&analysis);
        let root = s.document().root();
        s.insert_text(root, 0, "t").unwrap();
        s.insert_markup(root, 0..1, "a").unwrap();
        assert!(s.stats().constant_time_guards >= 1);
        assert!(s.stats().ecpv_guards >= 1);
        assert!(s.stats().recognizer.symbols > 0);
    }
}
