//! Whole-document potential validity: **Problem PV** (paper Section 3).
//!
//! Solved exactly as the paper prescribes (Section 4): run the element
//! content recognizer (Problem ECPV) at **every** element node of the
//! document, over the `Δ_T` child-symbol view of that node. A document is
//! potentially valid iff its root carries the designated root element type
//! and every node's content is potentially valid.
//!
//! Each node's ECPV instance steps through the scan's transition cache
//! ([`crate::memo`]) one child symbol at a time: a repeated step is one
//! table probe that replays its recorded stats delta, so the outcome is
//! the same with the memo on or off. With the memo off the scan's lease
//! has no cache, and each node's sequence is one recognizer run.

use crate::engine::CheckEngine;
use crate::memo::{Key, Lease, State};
use crate::recognizer::{EcRecognizer, RecognizerStats};
use crate::token::{ChildSym, NameTable, Tokens};
use pv_dtd::ElemId;
use pv_xml::{Document, NodeId};
use std::fmt;

/// Why a document failed the potential-validity check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PvViolationKind {
    /// The document's root element is not the DTD root `r`
    /// (Definition 3 requires `root(w) = r`).
    RootMismatch {
        /// The root element found in the document.
        found: String,
        /// The DTD's designated root.
        expected: String,
    },
    /// An element tag is not declared in the DTD (violates the problem
    /// precondition `elements(w) ⊆ T`).
    UndeclaredElement {
        /// The undeclared name.
        name: String,
    },
    /// A node's child sequence was rejected by the ECRecognizer.
    ContentRejected {
        /// Rendered symbol at which recognition failed, e.g. `<c>` or `σ`.
        symbol: String,
        /// Index of the offending symbol in the node's child sequence.
        index: usize,
    },
}

/// A potential-validity violation at a specific node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PvViolation {
    /// The offending node (an element node, or the child node for
    /// undeclared elements).
    pub node: NodeId,
    /// What went wrong.
    pub kind: PvViolationKind,
}

impl fmt::Display for PvViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            PvViolationKind::RootMismatch { found, expected } => {
                write!(f, "root element <{found}> does not match DTD root <{expected}>")
            }
            PvViolationKind::UndeclaredElement { name } => {
                write!(f, "element <{name}> at {} is not declared", self.node)
            }
            PvViolationKind::ContentRejected { symbol, index } => write!(
                f,
                "content of node {} is not potentially valid: symbol {symbol} (child #{index}) \
                 cannot be matched by any markup insertion",
                self.node
            ),
        }
    }
}

/// Result of a whole-document check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PvOutcome {
    /// First violation found in document order, or `None` if potentially
    /// valid.
    pub violation: Option<PvViolation>,
    /// Work counters accumulated over all per-node recognizers.
    pub stats: RecognizerStats,
}

impl PvOutcome {
    /// `true` iff the document is potentially valid.
    #[inline]
    pub fn is_potentially_valid(&self) -> bool {
        self.violation.is_none()
    }
}

/// Reusable per-scan state for every ECPV instance an engine runs: one
/// recognizer (re-armed per sequence, or loaded from a cached
/// configuration on a memo miss), one child-symbol buffer (refilled per
/// node via [`Tokens::children_into`]), so checking a node allocates
/// nothing in steady state, and the scan's transition cache. Create one
/// per document scan, guard or editor query with [`CheckEngine::scratch`];
/// the document entry points do so internally.
///
/// With the memo on, the scratch takes the engine's transition cache
/// when it is made, or a private cold one if another scan holds it, and
/// gives it back when it drops, folding the scan's hit/miss/flush counts
/// into [`CheckEngine::memo_stats`] once (see [`crate::memo`]). With the
/// memo off it holds no cache.
///
/// It is also the crate's state handle: a query steps one sequence
/// ([`start`](Self::start), [`walk`](Self::walk)), saves where it got
/// ([`save`](Self::save)) and branches from there
/// ([`resume`](Self::resume)) as often as it likes, with the memo on or
/// off (see [`crate::memo`]'s saved states).
pub struct CheckScratch<'s> {
    rec: EcRecognizer<'s>,
    syms: Vec<ChildSym>,
    /// The scan's transition cache (see [`CheckEngine::lease`]).
    lease: Lease<'s>,
    /// The engine's elision budget, for every sequence started here.
    depth: u32,
    /// Where the sequence being stepped is (with `rec`).
    key: Key,
    /// The states saved so far, indexed by [`Saved`].
    saved: Vec<State>,
}

/// A state a [`CheckScratch`] saved: valid, across flushes, for the
/// scratch's life.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Saved(usize);

impl CheckScratch<'_> {
    /// Runs one ECPV instance: `syms`, the whole child sequence of an
    /// `elem` node, walked from the fresh state. Returns the index of the
    /// rejected symbol, if any.
    pub(crate) fn run(
        &mut self,
        elem: ElemId,
        syms: &[ChildSym],
        stats: &mut RecognizerStats,
    ) -> Option<usize> {
        // Childless content is trivially potentially valid (every element
        // is nullable under G′ — Theorem 3) and the recognizer would touch
        // no counter: skip it and the cache alike.
        if syms.is_empty() {
            return None;
        }
        let (rec, saved) = (&mut self.rec, &mut self.saved);
        let failing;
        (self.key, failing) = self.lease.cache().run(elem, self.depth, rec, syms, stats, saved);
        failing
    }

    /// Puts the scratch's sequence at the fresh state of `elem`.
    pub(crate) fn start(&mut self, elem: ElemId) {
        self.key = self.lease.cache().start(elem, self.depth, &mut self.rec, &mut self.saved);
    }

    /// Steps the sequence through `syms`, adding the work to `stats`, and
    /// returns the index of the rejected symbol, if any. A rejected
    /// sequence must be started or resumed before it steps again.
    #[inline]
    pub(crate) fn walk(&mut self, syms: &[ChildSym], stats: &mut RecognizerStats) -> Option<usize> {
        self.lease.cache().walk(&mut self.key, &mut self.rec, syms, stats, &mut self.saved)
    }

    /// Saves the state the sequence is in.
    pub(crate) fn save(&mut self) -> Saved {
        let state = self.lease.cache().save(self.key, &self.rec);
        self.saved.push(state);
        Saved(self.saved.len() - 1)
    }

    /// Puts the sequence back in a state saved earlier.
    pub(crate) fn resume(&mut self, at: Saved) {
        self.key = self.lease.cache().resume(&self.saved[at.0], &mut self.rec);
    }

    /// Whether the sequence is in the state saved as `at`.
    pub(crate) fn is_at(&mut self, at: Saved) -> bool {
        self.lease.cache().is_at(self.key, &self.rec, &self.saved[at.0])
    }
}

/// Problem PV on a [`CheckEngine`]: document, node and symbol-sequence
/// checks. Construction compiled the per-element DAGs once (`O(k)`); each
/// document check is then `O(k·D·n)` (Theorem 4), linear in the document
/// for a fixed DTD.
impl CheckEngine {
    /// Builds a per-scan scratch (recognizer + symbol buffer + cache
    /// lease) borrowing this engine. The recognizer context is created
    /// here — once per scan or per call, not once per node.
    pub fn scratch(&self) -> CheckScratch<'_> {
        self.scratch_with(true)
    }

    /// [`CheckEngine::scratch`], consulting the memo only if `memo`.
    pub(crate) fn scratch_with(&self, memo: bool) -> CheckScratch<'_> {
        CheckScratch {
            rec: EcRecognizer::new(self.rec_ctx(), self.analysis().root, self.depth()),
            syms: Vec::new(),
            lease: self.lease(memo),
            depth: self.depth(),
            key: Key::Direct,
            saved: Vec::new(),
        }
    }

    /// Checks Problem PV for the whole document on the calling thread.
    pub fn check_document(&self, doc: &Document) -> PvOutcome {
        let mut scratch = self.scratch();
        self.check_document_with(doc, &mut scratch)
    }

    /// [`CheckEngine::check_document`] with a caller-provided scratch, for
    /// drivers scanning many documents that want to reuse the buffers —
    /// the one document-check body of the sequential, pooled and batch
    /// entry points. Definition 3's root condition `root(w) = r` comes
    /// first; then every element's ECPV instance runs in document order,
    /// stopping at the first violation.
    pub fn check_document_with(&self, doc: &Document, scratch: &mut CheckScratch<'_>) -> PvOutcome {
        let analysis = self.analysis();
        let root_name = doc.name(doc.root()).unwrap_or("");
        if analysis.id(root_name) != Some(analysis.root) {
            let violation = PvViolation {
                node: doc.root(),
                kind: PvViolationKind::RootMismatch {
                    found: root_name.to_owned(),
                    expected: analysis.name(analysis.root).to_owned(),
                },
            };
            return PvOutcome { violation: Some(violation), stats: RecognizerStats::default() };
        }
        let names = NameTable::new(doc, &analysis.dtd);
        let mut stats = RecognizerStats::default();
        for node in doc.elements() {
            if let Some(v) = self.check_node_with(doc, node, Some(&names), &mut stats, scratch) {
                return PvOutcome { violation: Some(v), stats };
            }
        }
        PvOutcome { violation: None, stats }
    }

    /// Checks Problem ECPV for one node's content against a reusable
    /// scratch — the per-node body of every document scan and of the
    /// incremental layer's two-node guards. Names resolve through
    /// `names`, the document's resolved name table, when the caller built
    /// one for a whole-document check; with `None` (single-node guards)
    /// each name is looked up in the DTD. The hot path performs no
    /// allocation in steady state: the child-symbol buffer is refilled in
    /// place, a memo hit replays the cached stats delta, and a miss runs
    /// the scratch recognizer, re-armed or loaded from a cached
    /// configuration.
    pub(crate) fn check_node_with(
        &self,
        doc: &Document,
        node: NodeId,
        names: Option<&NameTable>,
        stats: &mut RecognizerStats,
        scratch: &mut CheckScratch<'_>,
    ) -> Option<PvViolation> {
        let analysis = self.analysis();
        let elem = doc.name_id(node).and_then(|n| match names {
            Some(table) => table.elem(n),
            None => analysis.id(doc.name_of(n)),
        });
        let Some(elem) = elem else {
            return Some(PvViolation {
                node,
                kind: PvViolationKind::UndeclaredElement {
                    name: doc.name(node).unwrap_or("").to_owned(),
                },
            });
        };
        // Borrow juggling: the symbol buffer is taken out of the scratch so
        // the recognizer half can be borrowed mutably alongside it.
        let mut syms = std::mem::take(&mut scratch.syms);
        let tokens = match names {
            Some(table) => Tokens::children_resolved_into(doc, node, table, &mut syms),
            None => Tokens::children_into(doc, node, &analysis.dtd, &mut syms),
        };
        let result = match tokens {
            Ok(()) => {
                self.check_symbols_with(elem, &syms, stats, scratch).map(|(index, symbol)| {
                    PvViolation { node, kind: PvViolationKind::ContentRejected { symbol, index } }
                })
            }
            Err(e) => Some(PvViolation {
                node: e.node,
                kind: PvViolationKind::UndeclaredElement { name: e.name },
            }),
        };
        scratch.syms = syms;
        result
    }

    /// Runs one ECPV instance; returns the failing index/symbol, if any.
    pub fn check_symbols(
        &self,
        elem: ElemId,
        syms: &[ChildSym],
        stats: &mut RecognizerStats,
    ) -> Option<(usize, String)> {
        let mut scratch = self.scratch();
        self.check_symbols_with(elem, syms, stats, &mut scratch)
    }

    /// [`CheckEngine::check_symbols`] against a reusable scratch: the one
    /// way this crate runs an ECPV instance on a whole child sequence
    /// (`CheckScratch::run`). The violation's display string is rendered
    /// from `syms`.
    pub fn check_symbols_with(
        &self,
        elem: ElemId,
        syms: &[ChildSym],
        stats: &mut RecognizerStats,
        scratch: &mut CheckScratch<'_>,
    ) -> Option<(usize, String)> {
        scratch.run(elem, syms, stats).map(|i| (i, syms[i].display(&self.analysis().dtd)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depth::DepthPolicy;
    use crate::memo::Bounds;
    use pv_dtd::builtin::BuiltinDtd;
    use pv_dtd::DtdAnalysis;
    use pv_par::Pool;
    use std::sync::Arc;

    fn check(b: BuiltinDtd, xml: &str) -> PvOutcome {
        let checker = CheckEngine::new(b.analysis());
        let doc = pv_xml::parse(xml).unwrap();
        checker.check_document(&doc)
    }

    /// An engine with memoization off.
    fn memo_off(analysis: DtdAnalysis) -> Arc<CheckEngine> {
        let mut engine = CheckEngine::new(analysis);
        Arc::get_mut(&mut engine).unwrap().set_memo_enabled(false);
        engine
    }

    const W: &str =
        "<r><a><b>A quick brown</b><e></e><c> fox jumps over a lazy</c> dog</a></r>";
    const S: &str =
        "<r><a><b>A quick brown</b><c> fox jumps over a lazy</c> dog<e></e></a></r>";
    /// Figure 3 / Example 2: the completed, valid extension of `s`.
    const S_COMPLETED: &str =
        "<r><a><b><d>A quick brown</d></b><c> fox jumps over a lazy</c><d> dog<e></e></d></a></r>";

    #[test]
    fn example1_w_is_not_potentially_valid() {
        let out = check(BuiltinDtd::Figure1, W);
        assert!(!out.is_potentially_valid());
        let v = out.violation.unwrap();
        assert!(
            matches!(&v.kind, PvViolationKind::ContentRejected { symbol, index: 2 }
                if symbol == "<c>"),
            "expected rejection at <c> (Figure 6 A step 5), got {v:?}"
        );
    }

    #[test]
    fn example1_s_is_potentially_valid() {
        assert!(check(BuiltinDtd::Figure1, S).is_potentially_valid());
    }

    #[test]
    fn example2_completed_document_is_potentially_valid() {
        // Valid documents are trivially potentially valid.
        assert!(check(BuiltinDtd::Figure1, S_COMPLETED).is_potentially_valid());
    }

    #[test]
    fn root_mismatch_detected() {
        let out = check(BuiltinDtd::Figure1, "<a><b/></a>");
        assert!(matches!(
            out.violation.unwrap().kind,
            PvViolationKind::RootMismatch { .. }
        ));
    }

    #[test]
    fn undeclared_element_detected() {
        let out = check(BuiltinDtd::Figure1, "<r><zzz/></r>");
        assert!(matches!(
            out.violation.unwrap().kind,
            PvViolationKind::UndeclaredElement { name } if name == "zzz"
        ));
    }

    #[test]
    fn empty_root_is_potentially_valid() {
        // <r/> — everything below is elidable.
        assert!(check(BuiltinDtd::Figure1, "<r/>").is_potentially_valid());
    }

    #[test]
    fn bare_text_under_root_is_potentially_valid() {
        // "A quick brown fox" with no markup at all: σ reaches through
        // a → c, so wrapping tags can still be inserted.
        assert!(check(BuiltinDtd::Figure1, "<r>A quick brown fox</r>").is_potentially_valid());
    }

    #[test]
    fn violation_deep_in_document_found() {
        // Deep inside: <e> with content (must be EMPTY).
        let out = check(BuiltinDtd::Figure1, "<r><a><b/><c/><d><e>boom</e></d></a></r>");
        let v = out.violation.unwrap();
        assert!(matches!(v.kind, PvViolationKind::ContentRejected { .. }));
    }

    #[test]
    fn example5_document_checks_with_default_policy() {
        // <a><b/><b/></a> against T1 — Figure 7's would-be-infinite case;
        // Auto policy bounds the speculation and accepts.
        assert!(check(BuiltinDtd::T1, "<a><b/><b/></a>").is_potentially_valid());
    }

    #[test]
    fn example6_document_accepts() {
        assert!(check(BuiltinDtd::T2, "<a><b/><b/></a>").is_potentially_valid());
    }

    #[test]
    fn strong_dtd_depth_zero_rejects_deep_case() {
        let analysis = BuiltinDtd::T2.analysis();
        let checker = CheckEngine::with_policy(analysis.clone(), DepthPolicy::Bounded(0));
        let doc = pv_xml::parse("<a><b/><b/><b/></a>").unwrap();
        assert!(!checker.check_document(&doc).is_potentially_valid());
        let checker = CheckEngine::with_policy(analysis, DepthPolicy::Bounded(1));
        assert!(checker.check_document(&doc).is_potentially_valid());
    }

    #[test]
    fn xhtml_partial_markup_accepts() {
        let xml = "<html><body><p>Hello <b>bold <i>and italic</i></b> world</p>\
                   <ul><li>one</li><li>two</li></ul></body></html>";
        assert!(check(BuiltinDtd::XhtmlBasic, xml).is_potentially_valid());
    }

    #[test]
    fn xhtml_misplaced_block_rejects() {
        // <li> directly under <p> can never be fixed by adding markup.
        let xml = "<html><body><p><li>nope</li></p></body></html>";
        assert!(!check(BuiltinDtd::XhtmlBasic, xml).is_potentially_valid());
    }

    #[test]
    fn tei_incomplete_header_accepts() {
        // teiHeader structure missing entirely; title text floating — all
        // completable.
        let xml = "<TEI><text><body><div><p>Call me <name>Ishmael</name>.</p></div></body>\
                   </text></TEI>";
        assert!(check(BuiltinDtd::TeiLite, xml).is_potentially_valid());
    }

    #[test]
    fn stats_populated() {
        let out = check(BuiltinDtd::Figure1, S);
        assert!(out.stats.symbols >= 4);
        assert!(out.stats.node_visits > 0);
    }

    /// A mid-sized document exercising many nodes: valid shape repeated.
    fn wide_doc(reps: usize, poison: bool) -> Document {
        let mut xml = String::from("<r>");
        for i in 0..reps {
            if poison && i == reps / 2 {
                // <e> must be EMPTY: an unfixable violation mid-document.
                xml.push_str("<a><b/><e>boom</e></a>");
            } else {
                xml.push_str("<a><b/><c>text</c><d/></a>");
            }
        }
        xml.push_str("</r>");
        pv_xml::parse(&xml).unwrap()
    }

    /// Checks `docs` one by one and as a batch (which reaches the pool's
    /// workers) at every `jobs`, against the sequential outcomes.
    fn assert_pooled_identical(
        checker: &Arc<CheckEngine>,
        pool: &Pool,
        docs: Vec<Document>,
        jobs: &[usize],
    ) -> Vec<PvOutcome> {
        let seq: Vec<PvOutcome> = docs.iter().map(|d| checker.check_document(d)).collect();
        for (doc, seq) in docs.iter().zip(&seq) {
            let doc = Arc::new(doc.clone());
            for &jobs in jobs {
                let pooled = checker.check_document_pooled(&doc, pool, jobs, true);
                assert_eq!(&pooled, seq, "jobs={jobs}");
            }
        }
        let texts = Arc::new(docs.iter().map(Document::to_xml).collect());
        let oks: Vec<_> = seq.iter().cloned().map(Ok).collect();
        for &jobs in jobs {
            assert_eq!(checker.check_batch_pooled(&texts, pool, jobs), oks, "batch jobs={jobs}");
        }
        seq
    }

    #[test]
    fn pooled_outcome_bit_identical_on_valid_docs() {
        let checker = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let pool = Pool::new(3);
        let docs = vec![pv_xml::parse(S).unwrap(), wide_doc(150, false)];
        let seq = assert_pooled_identical(&checker, &pool, docs, &[1, 2, 3, 8]);
        assert!(seq.iter().all(PvOutcome::is_potentially_valid));
    }

    #[test]
    fn pooled_outcome_bit_identical_on_failing_docs() {
        let checker = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let pool = Pool::new(3);
        let docs = vec![
            pv_xml::parse(W).unwrap(),
            wide_doc(150, true),
            pv_xml::parse("<a><b/></a>").unwrap(), // root mismatch
            pv_xml::parse("<r><zzz/></r>").unwrap(), // undeclared element
        ];
        let seq = assert_pooled_identical(&checker, &pool, docs, &[1, 2, 3, 8]);
        assert!(seq.iter().all(|o| !o.is_potentially_valid()));
    }

    #[test]
    fn batch_matches_per_document_checks() {
        let checker = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let pool = Pool::new(4);
        // Twelve whole-document tasks, one of them much larger.
        let docs: Vec<Document> =
            (0..12).map(|i| wide_doc(if i == 5 { 150 } else { 10 + i }, i % 3 == 0)).collect();
        let expect: Vec<_> = docs.iter().map(|d| Ok(checker.check_document(d))).collect();
        let docs = Arc::new(docs.iter().map(Document::to_xml).collect());
        for jobs in [0usize, 1, 2, 8] {
            assert_eq!(checker.check_batch_pooled(&docs, &pool, jobs), expect, "jobs={jobs}");
        }
        assert!(checker.check_batch_pooled(&Arc::new(Vec::new()), &pool, 4).is_empty());
    }

    #[test]
    fn one_scratch_checks_node_after_node() {
        // The document scan's steps, taken one guard-style call at a time
        // on one scratch: the root accepts, then <a> rejects at <c>.
        let checker = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let doc = pv_xml::parse(W).unwrap();
        let a = doc.children(doc.root())[0];
        let mut scratch = checker.scratch();
        let mut stats = RecognizerStats::default();
        let root = doc.root();
        assert!(checker.check_node_with(&doc, root, None, &mut stats, &mut scratch).is_none());
        let v = checker.check_node_with(&doc, a, None, &mut stats, &mut scratch).unwrap();
        drop(scratch);
        assert_eq!(checker.check_document(&doc), PvOutcome { violation: Some(v), stats });
    }

    /// Memo off is no cache on every path: a memo-off tree scan's lease
    /// interns nothing, and neither it nor a memo-off byte check touches
    /// the engine's memo.
    #[test]
    fn memo_off_interns_nothing() {
        let engine = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let doc = wide_doc(80, true);
        let expect = engine.check_document(&doc);
        let warm = engine.memo_stats().unwrap();
        assert!(warm.entries > 0, "{warm:?}");
        let mut scratch = engine.scratch_with(false);
        assert_eq!(engine.check_document_with(&doc, &mut scratch), expect);
        assert_eq!(scratch.lease.peek().configs(), 0);
        drop(scratch);
        assert_eq!(engine.check_str(&doc.to_xml(), false), Ok(expect));
        assert_eq!(engine.memo_stats().unwrap(), warm);
    }

    /// A sequence whose configuration outgrows the word cap turns
    /// `Direct`: it gives the memo-off outcome, and its tail counts one
    /// miss per symbol it ran, so hits and misses still sum to the
    /// symbols fed. Under 3 words nothing fits, and every symbol misses.
    #[test]
    fn over_cap_sequences_run_direct_and_miss_once_per_symbol() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let plain = memo_off(analysis.clone());
        for config_words in [2, 5, 6, 8] {
            let mut engine = CheckEngine::new(analysis.clone());
            let bounds = Bounds { config_words, ..Bounds::DEFAULT };
            Arc::get_mut(&mut engine).unwrap().set_memo_bounds(bounds);
            let mut symbols = 0;
            for doc in [pv_xml::parse(S).unwrap(), pv_xml::parse(W).unwrap(), wide_doc(40, true)] {
                let out = engine.check_document(&doc);
                assert_eq!(out, plain.check_document(&doc), "config_words={config_words}");
                symbols += out.stats.symbols;
            }
            let stats = engine.memo_stats().unwrap();
            assert_eq!(stats.hits + stats.misses, symbols, "config_words={config_words}");
            if config_words < 3 {
                assert_eq!((stats.hits, stats.shapes), (0, 0), "{stats:?}");
            }
        }
    }

    #[test]
    fn memo_outcomes_bit_identical_cold_and_warm() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let plain = memo_off(analysis.clone());
        assert!(!plain.memo_enabled());
        let memoized = CheckEngine::new(analysis);
        assert!(memoized.memo_enabled());
        for doc in [
            pv_xml::parse(S).unwrap(),
            pv_xml::parse(W).unwrap(),
            wide_doc(80, false),
            wide_doc(80, true),
        ] {
            let expect = plain.check_document(&doc);
            let cold = memoized.check_document(&doc);
            let warm = memoized.check_document(&doc);
            assert_eq!(cold, expect, "cold cache diverged");
            assert_eq!(warm, expect, "warm cache diverged");
        }
        let stats = memoized.memo_stats().unwrap();
        assert!(stats.hits > 0, "repetitive wide_doc must hit: {stats:?}");
        assert!(stats.entries > 0);
    }

    #[test]
    fn memo_hits_across_repeated_shapes_in_one_document() {
        let checker = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let doc = wide_doc(100, false);
        assert!(checker.check_document(&doc).is_potentially_valid());
        let stats = checker.memo_stats().unwrap();
        // 100 identical <a> blocks: each distinct step misses once, every
        // repeat of it hits. (Childless nodes bypass the memo entirely.)
        assert!(stats.hits >= 90, "{stats:?}");
        assert!(stats.entries <= 16, "{stats:?}");
        // Clearing keeps telemetry but drops entries.
        checker.memo_clear();
        assert_eq!(checker.memo_stats().unwrap().entries, 0);
    }

    #[test]
    fn memo_capacity_bounds_adversarial_growth() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let plain = memo_off(analysis.clone());
        let mut checker = CheckEngine::new(analysis);
        let bounds = Bounds { config_words: 64, entries: 4, words: 256 };
        Arc::get_mut(&mut checker).unwrap().set_memo_bounds(bounds);
        // Many <d> nodes with distinct mixed-content shapes (x e … e),
        // each wrapped in its own legal <a> block under r → (a+), and a
        // rejected one (<e> holds text) in the last document.
        for (blocks, poison) in [(40, false), (400, false), (400, true)] {
            let mut xml = String::from("<r>");
            for i in 0..blocks {
                xml.push_str("<a><d>x");
                for _ in 0..(i % 40) {
                    xml.push_str("<e/>");
                }
                xml.push_str("</d></a>");
            }
            if poison {
                xml.push_str("<a><d><e>boom</e></d></a>");
            }
            xml.push_str("</r>");
            let doc = pv_xml::parse(&xml).unwrap();
            assert_eq!(checker.check_document(&doc), plain.check_document(&doc), "{blocks}");
            let stats = checker.memo_stats().unwrap();
            assert!(
                stats.entries <= bounds.entries && stats.shapes <= bounds.entries,
                "bounds not honored: {stats:?}"
            );
        }
        assert!(checker.memo_stats().unwrap().flushes > 0, "the bounds never engaged");
    }

    #[test]
    fn pooled_checking_with_shared_memo_stays_identical() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let plain = memo_off(analysis.clone());
        let memoized = CheckEngine::new(analysis);
        let pool = Pool::new(3);
        let docs = [wide_doc(150, false), wide_doc(150, true)];
        let expect: Vec<PvOutcome> = docs.iter().map(|d| plain.check_document(d)).collect();
        for (doc, expect) in docs.iter().zip(&expect) {
            let doc = Arc::new(doc.clone());
            for jobs in [1usize, 2, 8] {
                // Cold-ish and warm passes both must match.
                for _ in 0..2 {
                    let got = memoized.check_document_pooled(&doc, &pool, jobs, true);
                    assert_eq!(&got, expect, "jobs={jobs}");
                }
            }
        }
        // Both documents as one batch share the cache across workers.
        let docs = Arc::new(docs.iter().map(Document::to_xml).collect());
        let expect: Vec<_> = expect.into_iter().map(Ok).collect();
        for jobs in [1usize, 2, 8] {
            for _ in 0..2 {
                assert_eq!(memoized.check_batch_pooled(&docs, &pool, jobs), expect, "jobs={jobs}");
            }
        }
    }
}
