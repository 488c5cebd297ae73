//! Streaming potential-validity checking over a SAX-style event stream.
//!
//! The paper's ECRecognizer (Figure 5) consumes one child symbol at a
//! time; the element tree every other entry point builds first is an
//! artifact of the front end, not of the algorithm. [`StreamChecker`]
//! removes the artifact: it is fed [`pv_xml::Event`]s as the push parser
//! produces them and holds only the **open ancestor spine** — a
//! recognizer configuration id plus a handful of counters per open
//! element, one recognizer slot per depth — and a constant-bounded
//! transition cache, so residency is O(depth), independent of document
//! size.
//!
//! ## Bit-identity with the tree checker
//!
//! For any complete event stream, [`StreamChecker::finalize`] returns a
//! [`PvOutcome`] — violation *and* work counters — identical to
//! [`CheckEngine::check_document`](crate::engine::CheckEngine::check_document)
//! on the parsed tree. That invariant is non-trivial because the two
//! traversals do their work in different orders:
//!
//! * The tree checker visits nodes in **preorder** and checks each node's
//!   *whole* child-symbol sequence at visit time. Its first violation is
//!   the preorder-first node whose check fails, and its stats are the sum
//!   of per-node deltas of every node checked up to and including that
//!   one.
//! * The streaming checker interleaves: a node's symbols arrive one child
//!   at a time, with whole descendant subtrees checked in between.
//!
//! Per-node deltas are identical in both traversals (each node's
//! recognizer sees the same symbol sequence from the same reset state),
//! so the outcome reduces to tracking *which set of node checks the tree
//! checker would have completed*. The streaming checker does this with a
//! **candidate protocol**:
//!
//! * In normal operation every cleanly closed element merges its delta
//!   into a running `done` accumulator, and each open level snapshots
//!   `done` at open time (`before`).
//! * On the first violation, the checker freezes a *candidate*: the
//!   violation plus `base = before(level)` (every node closed before the
//!   failing node opened — this excludes descendants of the failing node
//!   that streaming already checked but the tree checker never reaches)
//!   and `own` (the failing node's partial delta; zero for
//!   undeclared-element violations, where [`crate::Tokens::children_into`]
//!   fails before the recognizer ever runs).
//! * The verdict is now final ([`StreamChecker::decided`]) but the
//!   *canonical* violation may still move preorder-**earlier**: an open
//!   ancestor's own check — which the tree checker performs in full
//!   *before* descending — can still fail on a later sibling symbol, and
//!   an ancestor may still own a preorder-later undeclared child that
//!   preempts its in-flight `ContentRejected` (children are resolved
//!   all-or-nothing before recognition). So the spine keeps being fed;
//!   subtrees rooted after the candidate are skipped (`skip_depth`),
//!   ancestors that close cleanly merge into `spine`, and any ancestor
//!   failure *replaces* the candidate (resetting `spine`, since the
//!   replaced candidate and the popped levels are preorder-later than
//!   the new failing node).
//! * [`StreamChecker::finalize`] then reports `base ⊕ spine ⊕ own`: the
//!   exact stat set the preorder tree walk accumulates when it stops.
//!
//! Each level steps its symbols through the checker's transition cache
//! ([`crate::memo`]), which replays exact stat deltas, so cached,
//! uncached and tree outcomes all coincide.

//! ## Early exit
//!
//! First-violation early exit is *free* here — once a candidate freezes,
//! no recognizer below the spine ever runs again — just as the tree scan
//! stops at its preorder-first failing node. Both converge on the same
//! node; see `CheckEngine::check_document_pooled` and the
//! `stream_differential` suite.
//!
//! ## Dispatch
//!
//! Every child symbol is stepped as its event arrives: `σ` at the first
//! piece of text after a non-`σ` symbol (the collapse of
//! [`Tokens::children_into`](crate::token::Tokens::children_into), so
//! further pieces and runs up to the next child element cost one branch
//! each), and an element's symbol at its start tag, self-closing or not.
//! A step is one cache probe on a hit, so there is nothing to gain from
//! queueing siblings; the candidate freezes, and
//! [`StreamChecker::decided`] flips, at the event that carries the
//! rejected symbol.
//!
//! ## Transition cache
//!
//! An open level holds only its configuration key; a hit moves the key,
//! and a miss runs the level's **slot**, the recognizer kept for that
//! depth, reloading it first if hits moved the level past it. A corpus
//! document of a few thousand elements revisits a few dozen
//! configurations, and about 99% of its symbols hit. Which cache a
//! checker steps through depends on who made it:
//!
//! * [`CheckEngine::check_str`] and the batch workers of
//!   [`CheckEngine::check_batch_pooled`] have the whole document in
//!   memory, so the check is short: with the memo on they **lease** the
//!   engine's cache exactly as a tree scan does (a warm cache, folded
//!   `memo` counts; a private cold one while another scan holds it), and
//!   with it off they run with no cache, every step a slot run.
//! * [`CheckEngine::stream_checker`] — chunked uploads, whose pace the
//!   sender sets — keeps a private cache, cold for every checker, so a
//!   slow client never holds the engine's.
//!
//! The flush policy is the spine's: before a full cache clears, every
//! open level that still has an id moves its state into its slot, and
//! interns afresh on its next step. So the cache's constant bounds hold
//! however deep the spine is.

use crate::checker::{PvOutcome, PvViolation, PvViolationKind};
use crate::engine::CheckEngine;
use crate::memo::{Bounds, Key, Lease};
use crate::recognizer::{EcRecognizer, RecognizerStats};
use crate::token::ChildSym;
use pv_dtd::ElemId;
use pv_xml::{Event, NodeId, PushParser};
use std::time::Instant;

/// One open element on the ancestor spine.
struct Level {
    /// The node id this element would get in the arena built by
    /// [`pv_xml::parse`] (document order).
    node: NodeId,
    /// The state of this element's recognizer, fed incrementally: a
    /// configuration id, or the level's slot.
    key: Key,
    /// Stats delta accumulated by this element's recognizer so far.
    partial: RecognizerStats,
    /// Snapshot of the global `done` accumulator when this level opened:
    /// the deltas of every node whose check completed before this node
    /// existed.
    before: RecognizerStats,
    /// Child symbols fed so far (= the failing index + 1 when the last
    /// fed symbol was rejected).
    count: usize,
    /// Whether the last fed symbol was `σ` — mirrors the
    /// `out.last() != Some(&ChildSym::Sigma)` collapse in
    /// [`Tokens::children_into`](crate::token::Tokens::children_into),
    /// which merges text runs across comments and PIs.
    last_sigma: bool,
}

/// The frozen first violation plus the stat fragments needed to
/// reproduce the tree checker's accumulator at its stopping point.
struct Candidate {
    violation: PvViolation,
    /// Deltas of all nodes closed before the failing node opened.
    base: RecognizerStats,
    /// Deltas of ancestors of the failing node that closed cleanly after
    /// the freeze (the tree checker checks them, in full, before
    /// descending to the failing node).
    spine: RecognizerStats,
    /// The failing node's own delta (zero for undeclared-element
    /// violations).
    own: RecognizerStats,
    /// Index in `levels` of the frozen level while it is still open.
    frozen: usize,
    /// A `ContentRejected` on a node can still be preempted by a
    /// preorder-later *undeclared* child of the same node: the tree
    /// checker resolves all children before running the recognizer.
    watch_undeclared: bool,
}

/// Why the top level's check fails (see `StreamChecker::freeze`).
enum Cause<'n> {
    /// It rejected this symbol, the last one it counted; the candidate
    /// keeps its partial delta and watches for a later undeclared child.
    Rejected(ChildSym),
    /// Its child at this node has this undeclared name, which discards
    /// the level's delta (children are resolved before recognition).
    Undeclared(NodeId, &'n str),
}

enum State {
    /// No violation yet; `done` accumulates completed node checks.
    Normal,
    /// Verdict decided; tracking the canonical (preorder-first) violation.
    Candidate(Candidate),
    /// Root mismatch: decided before any recognizer ran.
    RootFailed(PvViolation),
}

/// Incremental potential-validity checker over a SAX-style event stream.
///
/// Obtain one from [`CheckEngine::stream_checker`], feed it events (or use
/// the [`StreamCheck`] wrapper to drive it straight from byte chunks),
/// then call [`finalize`](Self::finalize):
///
/// ```
/// use pv_dtd::builtin::BuiltinDtd;
/// use pv_core::CheckEngine;
/// use pv_core::stream::StreamCheck;
///
/// let checker = CheckEngine::new(BuiltinDtd::Figure1.analysis());
/// let mut stream = StreamCheck::new(checker.stream_checker());
/// for chunk in ["<r><a><b>A quick", " brown</b><c> fox</c>", " dog<e/></a></r>"] {
///     stream.feed(chunk.as_bytes()).unwrap();
/// }
/// assert!(stream.finish().unwrap().is_potentially_valid());
/// ```
///
/// Residency is O(depth) plus a constant-bounded cache: per open element
/// a configuration id and a few counters, one recognizer slot per depth,
/// and a [transition cache](self#transition-cache); no tree.
pub struct StreamChecker<'c> {
    engine: &'c CheckEngine,
    levels: Vec<Level>,
    /// `slots[d]` runs the recognizer of the level open at depth `d`, on
    /// cache misses only. A slot stays at its depth for the whole check,
    /// so its buffers keep the capacity an element at that depth needed.
    slots: Vec<EcRecognizer<'c>>,
    cache: Lease<'c>,
    /// Deltas of all cleanly completed node checks (normal mode only).
    done: RecognizerStats,
    state: State,
    /// Depth of the subtree currently being skipped below the candidate
    /// (its levels are never pushed; node-id accounting still runs).
    skip_depth: usize,
    /// Next arena node id, replicating [`pv_xml::parse`]'s allocation
    /// order so reported violation nodes match the tree checker's.
    next_node: u32,
    /// Start tags seen (the engine's `pv_engine_doc_nodes` telemetry).
    elements: usize,
    peak_depth: usize,
}

impl<'c> StreamChecker<'c> {
    /// A checker of `engine`'s DTD stepping through `cache`.
    pub(crate) fn new(engine: &'c CheckEngine, cache: Lease<'c>) -> Self {
        StreamChecker {
            engine,
            levels: Vec::new(),
            slots: Vec::new(),
            cache,
            done: RecognizerStats::default(),
            state: State::Normal,
            skip_depth: 0,
            next_node: 0,
            elements: 0,
            peak_depth: 0,
        }
    }

    /// Dispatches a parser event to the matching handler.
    pub fn on_event(&mut self, event: &Event<'_>) {
        match event {
            Event::Start { name, self_closing, .. } => self.on_start(name, *self_closing),
            Event::End { .. } => self.on_end(),
            Event::Text { piece, first } => self.on_text(piece, *first),
            Event::Comment { .. } => self.on_comment(),
            Event::Pi { .. } => self.on_pi(),
        }
    }

    /// Handles an element start tag (`self_closing` covers `<e/>`).
    pub fn on_start(&mut self, name: &str, self_closing: bool) {
        let node = self.alloc_node();
        self.elements += 1;
        match &mut self.state {
            State::Normal if self.levels.is_empty() => self.start_root(node, name, self_closing),
            State::Normal => self.start_child(node, name, self_closing),
            State::Candidate(c) => {
                if self.skip_depth > 0 {
                    if !self_closing {
                        self.skip_depth += 1;
                    }
                    return;
                }
                if self.levels.len() == c.frozen + 1 {
                    // A later sibling of the failing child, inside the
                    // frozen node. Its recognizer is dead, but an
                    // undeclared sibling preempts an in-flight
                    // ContentRejected (children_into fails first,
                    // discarding the node's delta).
                    if c.watch_undeclared && self.engine.analysis().id(name).is_none() {
                        c.violation = PvViolation {
                            node,
                            kind: PvViolationKind::UndeclaredElement { name: name.to_owned() },
                        };
                        c.own = RecognizerStats::default();
                        c.watch_undeclared = false;
                    }
                    if !self_closing {
                        self.skip_depth = 1;
                    }
                    return;
                }
                // The frozen level has popped; the top is a live ancestor
                // whose own check — performed in full by the tree checker
                // before it ever descends — must keep running.
                self.start_child(node, name, self_closing);
            }
            State::RootFailed(_) => {}
        }
    }

    /// Handles one piece of a character-data run (`first` marks a new
    /// text node; a run may arrive in several pieces).
    pub fn on_text(&mut self, piece: &str, first: bool) {
        if first {
            self.alloc_node();
        }
        if piece.is_empty() {
            // Empty CDATA section: a text node exists but contributes no
            // symbol (children_into skips empty text).
            return;
        }
        let live = match &self.state {
            State::Normal => !self.levels.is_empty(),
            // Text inside a skipped subtree or directly under the frozen
            // node never reaches a live recognizer.
            State::Candidate(c) => self.skip_depth == 0 && self.levels.len() <= c.frozen,
            State::RootFailed(_) => false,
        };
        if live {
            self.feed_sigma_top();
        }
    }

    /// Handles an element end tag (also the implicit end of `<e/>`).
    pub fn on_end(&mut self) {
        match &mut self.state {
            State::Normal => self.close_top_normal(),
            State::Candidate(c) => {
                if self.skip_depth > 0 {
                    self.skip_depth -= 1;
                    return;
                }
                let level = self.levels.pop().expect("level open");
                if self.levels.len() != c.frozen {
                    // A live ancestor closes cleanly: the tree checker
                    // completed this node's check before descending to
                    // the candidate, so its full delta counts. (When the
                    // frozen level itself closes, its delta is already
                    // captured, or deliberately discarded, in `own`.)
                    c.spine.merge(&level.partial);
                }
            }
            State::RootFailed(_) => {}
        }
    }

    /// Handles a comment (allocates its arena node id; comments are
    /// transparent to `Δ_T`, so no symbol is fed and `last_sigma` is
    /// left untouched — adjacent text runs collapse into one `σ`).
    pub fn on_comment(&mut self) {
        self.alloc_node();
    }

    /// Handles a processing instruction (same accounting as comments).
    pub fn on_pi(&mut self) {
        self.alloc_node();
    }

    /// `true` once the boolean verdict is final (a violation froze). It
    /// flips at the event that carries the first rejected symbol or
    /// undeclared name: a text piece, or a child's start tag, self-closing
    /// or not.
    ///
    /// The canonical violation *node* may still move preorder-earlier
    /// until the stream ends, but "not potentially valid" cannot be
    /// retracted — this is what gives streaming its first-violation
    /// latency edge over tree construction.
    pub fn decided(&self) -> bool {
        !matches!(self.state, State::Normal)
    }

    /// High-water mark of the open ancestor spine — the O(depth) bound.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// Consumes the checker and produces the outcome for the completed
    /// stream. Bit-identical — violation and counters — to
    /// [`CheckEngine::check_document`](crate::engine::CheckEngine::check_document)
    /// on the tree built from the same bytes. Only meaningful after a
    /// complete event stream (all elements closed).
    pub fn finalize(mut self) -> PvOutcome {
        self.take_outcome()
    }

    /// Lexes one complete document in place ([`pv_xml::lex`]) into this
    /// checker and returns its outcome, recording the engine's
    /// per-document telemetry (its latency since `t0`, when set), or the
    /// lexer's error. Either way the checker is ready for the next
    /// document afterwards, with its slots and its cache kept.
    pub(crate) fn check_str(&mut self, xml: &str, t0: Option<Instant>) -> pv_xml::Result<PvOutcome> {
        let lexed = pv_xml::lex(xml, |event| self.on_event(&event));
        let elements = self.elements;
        let outcome = self.take_outcome();
        lexed?;
        self.engine.obs.record(t0, || elements, &outcome);
        Ok(outcome)
    }

    /// The outcome of the stream fed so far, resetting every per-document
    /// field for the next stream.
    fn take_outcome(&mut self) -> PvOutcome {
        let outcome = match std::mem::replace(&mut self.state, State::Normal) {
            State::Normal => PvOutcome { violation: None, stats: self.done },
            State::Candidate(c) => {
                let mut stats = c.base;
                stats.merge(&c.spine);
                stats.merge(&c.own);
                PvOutcome { violation: Some(c.violation), stats }
            }
            State::RootFailed(violation) => {
                PvOutcome { violation: Some(violation), stats: RecognizerStats::default() }
            }
        };
        self.levels.clear();
        self.done = RecognizerStats::default();
        self.skip_depth = 0;
        self.next_node = 0;
        self.elements = 0;
        self.peak_depth = 0;
        outcome
    }

    fn alloc_node(&mut self) -> NodeId {
        let id = NodeId::from_index(self.next_node as usize);
        self.next_node += 1;
        id
    }

    fn push_level(&mut self, node: NodeId, elem: ElemId) {
        let (d, depth) = (self.levels.len(), self.engine.depth());
        if d == self.slots.len() {
            self.slots.push(EcRecognizer::new(self.engine.rec_ctx(), elem, depth));
        }
        let key = loop {
            match self.cache.cache().open(elem, depth, &mut self.slots[d]) {
                Some(key) => break key,
                None => self.flush(),
            }
        };
        self.levels.push(Level {
            node,
            key,
            partial: RecognizerStats::default(),
            before: self.done,
            count: 0,
            last_sigma: false,
        });
        self.peak_depth = self.peak_depth.max(self.levels.len());
    }

    /// Clears the full cache: the stream's flush policy. Every open level
    /// that still has an id keeps its state in its slot instead and
    /// interns afresh on its next step, so the bound holds however deep
    /// the spine is.
    fn flush(&mut self) {
        let cache = self.cache.cache();
        for (level, slot) in self.levels.iter_mut().zip(&mut self.slots) {
            cache.release(&mut level.key, slot);
        }
        cache.flush();
    }

    /// Freezes the candidate at the top level, replacing any earlier one.
    fn freeze(&mut self, cause: Cause<'_>) {
        let frozen = self.levels.len() - 1;
        let level = &self.levels[frozen];
        let (violation, own, watch_undeclared) = match cause {
            Cause::Rejected(sym) => {
                let kind = PvViolationKind::ContentRejected {
                    symbol: sym.display(&self.engine.analysis().dtd),
                    index: level.count - 1,
                };
                (PvViolation { node: level.node, kind }, level.partial, true)
            }
            Cause::Undeclared(node, name) => {
                let kind = PvViolationKind::UndeclaredElement { name: name.to_owned() };
                (PvViolation { node, kind }, RecognizerStats::default(), false)
            }
        };
        self.state = State::Candidate(Candidate {
            violation,
            base: level.before,
            spine: RecognizerStats::default(),
            own,
            frozen,
            watch_undeclared,
        });
    }

    fn start_root(&mut self, node: NodeId, name: &str, self_closing: bool) {
        let analysis = self.engine.analysis();
        if analysis.id(name) != Some(analysis.root) {
            // The tree checker's root precondition: decided before any
            // recognizer runs, with zero stats.
            self.state = State::RootFailed(PvViolation {
                node,
                kind: PvViolationKind::RootMismatch {
                    found: name.to_owned(),
                    expected: analysis.name(analysis.root).to_owned(),
                },
            });
            return;
        }
        self.push_level(node, analysis.root);
        if self_closing {
            self.close_top_normal();
        }
    }

    /// A child start tag under the live top level, in normal mode or at a
    /// live ancestor of the candidate: the child's symbol is stepped now.
    /// An undeclared child freezes at once: `children_into` is
    /// all-or-nothing *before* recognition, so it zeroes the parent's
    /// entire delta however many symbols were accepted. A subtree opens a
    /// level only while no violation is frozen; every other subtree is
    /// skipped.
    fn start_child(&mut self, node: NodeId, name: &str, self_closing: bool) {
        let elem = self.engine.analysis().id(name);
        match elem {
            None => self.freeze(Cause::Undeclared(node, name)),
            Some(elem) => {
                let sym = ChildSym::Elem(elem);
                if !self.feed_symbol_top(sym) {
                    self.freeze(Cause::Rejected(sym));
                }
            }
        }
        // An accepted self-closing child has an empty child sequence (no
        // recognizer run, no counters — the tree checker skips empty
        // sequences entirely), so there is nothing to open or merge.
        if self_closing {
            return;
        }
        match (&self.state, elem) {
            (State::Normal, Some(elem)) => self.push_level(node, elem),
            _ => self.skip_depth = 1,
        }
    }

    /// Feeds one symbol to the top level's recognizer through the cache,
    /// replicating the tree path's run: the symbol is counted (and the
    /// recognizer's stats mutate) even when it is rejected.
    fn feed_symbol_top(&mut self, sym: ChildSym) -> bool {
        let d = self.levels.len() - 1;
        let accepted = loop {
            let level = &mut self.levels[d];
            let stepped =
                self.cache.cache().step(&mut level.key, &mut self.slots[d], sym, &mut level.partial);
            match stepped {
                Some(accepted) => break accepted,
                None => self.flush(),
            }
        };
        let level = &mut self.levels[d];
        level.count += 1;
        level.last_sigma = matches!(sym, ChildSym::Sigma);
        accepted
    }

    /// Feeds a `σ` to the live top level unless the previous symbol was
    /// already `σ` (text-run collapse). On rejection the top level
    /// becomes (or replaces) the candidate; `σ` has no subtree, so
    /// `skip_depth` is untouched.
    fn feed_sigma_top(&mut self) {
        if self.levels.last().expect("open level").last_sigma {
            return;
        }
        if !self.feed_symbol_top(ChildSym::Sigma) {
            self.freeze(Cause::Rejected(ChildSym::Sigma));
        }
    }

    /// Closes the top level in normal mode: its check completed cleanly
    /// (a rejection would have frozen a candidate), so its delta counts.
    fn close_top_normal(&mut self) {
        let level = self.levels.pop().expect("open level");
        self.done.merge(&level.partial);
    }
}

impl CheckEngine {
    /// Creates a [`StreamChecker`] sharing this engine's compiled DAGs
    /// and depth policy, for event streams whose pace someone else sets
    /// (chunked uploads). It holds O(depth) state plus its own
    /// constant-bounded transition cache, cold for every checker, and
    /// produces outcomes bit-identical to
    /// [`check_document`](Self::check_document); it never touches the
    /// engine's cache or memo telemetry (every cache replays exact
    /// deltas, so every path coincides).
    pub fn stream_checker(&self) -> StreamChecker<'_> {
        StreamChecker::new(self, Lease::private(Bounds::DEFAULT))
    }
}

/// Push parser + stream checker glued together: feed raw byte chunks,
/// get a [`PvOutcome`].
///
/// [`feed`](Self::feed) is resumable at *any* byte boundary — mid-tag,
/// mid-name, mid-UTF-8-sequence. A truncated or malformed stream
/// surfaces as the same [`pv_xml::XmlError`] the tree parser reports,
/// never as a verdict.
pub struct StreamCheck<'c> {
    parser: PushParser,
    checker: StreamChecker<'c>,
}

impl<'c> StreamCheck<'c> {
    /// Wraps a stream checker with a fresh push parser.
    pub fn new(checker: StreamChecker<'c>) -> Self {
        StreamCheck { parser: PushParser::new(), checker }
    }

    /// Pushes one chunk of document bytes and drains all events it
    /// completes into the checker.
    pub fn feed(&mut self, chunk: &[u8]) -> pv_xml::Result<()> {
        self.parser.push(chunk);
        self.drain()
    }

    /// Signals end-of-input, drains the final events, and produces the
    /// outcome. Fails with the tree parser's error if the stream is
    /// truncated or malformed.
    pub fn finish(mut self) -> pv_xml::Result<PvOutcome> {
        self.parser.finish();
        self.drain()?;
        debug_assert!(self.parser.is_complete());
        Ok(self.checker.finalize())
    }

    /// `true` once the verdict is final (see [`StreamChecker::decided`]).
    pub fn decided(&self) -> bool {
        self.checker.decided()
    }

    /// The underlying push parser (doctype, buffered-byte telemetry).
    pub fn parser(&self) -> &PushParser {
        &self.parser
    }

    /// The underlying stream checker (depth telemetry).
    pub fn checker(&self) -> &StreamChecker<'c> {
        &self.checker
    }

    fn drain(&mut self) -> pv_xml::Result<()> {
        self.parser.drain(|event| self.checker.on_event(&event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_dtd::builtin::BuiltinDtd;
    use pv_dtd::DtdAnalysis;

    fn tree_outcome(analysis: &DtdAnalysis, xml: &str) -> PvOutcome {
        let checker = CheckEngine::new(analysis.clone());
        let doc = pv_xml::parse(xml).unwrap();
        checker.check_document(&doc)
    }

    fn stream_outcome(analysis: &DtdAnalysis, xml: &str, chunk: usize) -> PvOutcome {
        let checker = CheckEngine::new(analysis.clone());
        let mut stream = StreamCheck::new(checker.stream_checker());
        for piece in xml.as_bytes().chunks(chunk.max(1)) {
            stream.feed(piece).unwrap();
        }
        stream.finish().unwrap()
    }

    fn assert_identical(analysis: &DtdAnalysis, xml: &str) {
        let expect = tree_outcome(analysis, xml);
        for chunk in [1, 3, 7, xml.len().max(1)] {
            let got = stream_outcome(analysis, xml, chunk);
            assert_eq!(got, expect, "chunk={chunk} xml={xml}");
        }
    }

    #[test]
    fn figure1_documents_bit_identical() {
        let analysis = BuiltinDtd::Figure1.analysis();
        for xml in [
            "<r><a><b>A quick brown</b><c> fox</c> dog<e/></a></r>", // PV
            "<r><a><b>A quick brown</b><e/><c> fox</c></a></r>",     // content rejected
            "<a><b/></a>",                                           // root mismatch
            "<zzz/>",                                                // undeclared root
            "<r><zzz/></r>",                                         // undeclared child
            "<r><a><zzz>deep</zzz></a></r>",                         // undeclared, nested
            "<r/>",                                                  // trivial
            "<r><a><b>x</b><!--c--> <c>y</c></a></r>",               // σ across comment
            "<r><a><b><![CDATA[]]></b><c>y</c> dog<e/></a></r>",     // empty CDATA node
        ] {
            assert_identical(&analysis, xml);
        }
    }

    #[test]
    fn ancestor_rejection_replaces_deeper_candidate() {
        // The undeclared <zzz> inside <b> freezes a candidate first in
        // event order, but the ancestor <a>'s own check — which the
        // tree walk performs in full before ever descending into <b> —
        // also fails, on the later sibling symbol <c> (b,e,c contradicts
        // figure1's model). The ancestor is preorder-earlier, so it must
        // replace the deeper candidate, and <b>'s discarded check must
        // leave no trace in the counters.
        let analysis = BuiltinDtd::Figure1.analysis();
        let xml = "<r><a><b><zzz/></b><e/><c>y</c></a></r>";
        let expect = tree_outcome(&analysis, xml);
        let v = expect.violation.as_ref().expect("not PV");
        assert_eq!(v.node.index(), 1, "<a> is node 1");
        assert!(
            matches!(v.kind, PvViolationKind::ContentRejected { .. }),
            "ancestor rejection replaces inner undeclared: {:?}",
            v.kind
        );
        assert_identical(&analysis, xml);
    }

    #[test]
    fn later_undeclared_sibling_preempts_content_rejection() {
        // children_into(<a>) fails on <zzz> before the recognizer runs,
        // so the undeclared child wins over the earlier event-order
        // rejection at <e/> and the node's delta is discarded.
        let analysis = BuiltinDtd::Figure1.analysis();
        let xml = "<r><a><b>x</b><e/><c>y</c><zzz/></a></r>";
        let expect = tree_outcome(&analysis, xml);
        match &expect.violation.as_ref().unwrap().kind {
            PvViolationKind::UndeclaredElement { name } => assert_eq!(name, "zzz"),
            other => panic!("expected undeclared, got {other:?}"),
        }
        assert_identical(&analysis, xml);
    }

    #[test]
    fn verdict_decided_before_document_end() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let checker = CheckEngine::new(analysis.clone());
        let mut stream = StreamCheck::new(checker.stream_checker());
        stream.feed(b"<r><a><b>x</b><e/>").unwrap();
        assert!(!stream.decided(), "b,e still extendable (insertions may follow)");
        stream.feed(b"<c>").unwrap();
        assert!(stream.decided(), "violation frozen mid-stream at the <c> symbol");
        stream.feed(b"y</c></a>").unwrap();
        let tail: String = "<a><b>x</b><c>y</c> dog<e/></a>".repeat(50);
        stream.feed(tail.as_bytes()).unwrap();
        stream.feed(b"</r>").unwrap();
        let got = stream.finish().unwrap();
        let full = format!(
            "<r><a><b>x</b><e/><c>y</c></a>{}</r>",
            "<a><b>x</b><c>y</c> dog<e/></a>".repeat(50)
        );
        assert_eq!(got, tree_outcome(&analysis, &full));
    }

    #[test]
    fn a_rejected_self_closing_child_decides_at_its_own_tag() {
        let checker = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let mut stream = StreamCheck::new(checker.stream_checker());
        stream.feed(b"<r><a><b>x</b><e/>").unwrap();
        assert!(!stream.decided());
        stream.feed(b"<c/>").unwrap();
        assert!(stream.decided(), "decided at the <c/> tag itself, before <a> closes");
    }

    /// `corpus::repetitive_analysis()`'s DTD, inlined because `pv-core`
    /// cannot depend on `pv-workload`.
    const REPETITIVE_DTD: &str = "<!ELEMENT r (s*)>
        <!ELEMENT s (t?, t?, t?, t?, t?, t?, t?, t?, t?, t?, t?, t?, t?, t?, t?, t?)>
        <!ELEMENT t (u)><!ELEMENT u (v?, x?)><!ELEMENT v EMPTY><!ELEMENT x EMPTY>";

    /// `corpus::repetitive(elements, usize::MAX)`: `<s>` blocks of 16
    /// leaves whose `v`/`x` pattern spells the block number, so no two
    /// blocks share a shape.
    fn repetitive_all_distinct(elements: usize) -> String {
        let mut xml = String::from("<r>");
        for code in 0..(elements - 1) / 17 {
            xml.push_str("<s>");
            for bit in 0..16 {
                xml.push_str(if (code >> bit) & 1 == 1 { "<x/>" } else { "<v/>" });
            }
            xml.push_str("</s>");
        }
        xml.push_str("</r>");
        xml
    }

    #[test]
    fn residency_is_depth_bounded_on_wide_documents() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let checker = CheckEngine::new(analysis.clone());
        let mut stream = StreamCheck::new(checker.stream_checker());
        stream.feed(b"<r>").unwrap();
        for _ in 0..5_000 {
            stream.feed(b"<a><b>x</b><c>y</c> dog<e/></a>").unwrap();
        }
        stream.feed(b"</r>").unwrap();
        assert!(stream.checker().peak_depth() <= 3, "spine stays O(depth)");
        assert!(stream.parser().peak_buffered() < 4096, "lexer buffers one construct");
        let got = stream.finish().unwrap();
        assert!(got.is_potentially_valid());

        // Every block a distinct child sequence: the transition cache
        // stays within its bound.
        let analysis = DtdAnalysis::parse(REPETITIVE_DTD, "r").unwrap();
        let xml = repetitive_all_distinct(20_000);
        let checker = CheckEngine::new(analysis.clone());
        let mut stream = StreamCheck::new(checker.stream_checker());
        for chunk in xml.as_bytes().chunks(4096) {
            stream.feed(chunk).unwrap();
            assert!(stream.checker().cache.peek().within_bounds());
        }
        assert!(stream.checker().peak_depth() <= 2);
        assert_eq!(stream.finish().unwrap(), tree_outcome(&analysis, &xml));
    }

    /// Wide Figure 1 documents — valid, poisoned with an undeclared
    /// element, and content-rejected (`b, e, c` under one `a`); Figure 1
    /// documents whose `a`s reach one configuration along different
    /// paths, so that levels take hits between misses and meet a full
    /// cache while they are ahead of their slots (the second is rejected
    /// at an explicit `d` after the `σ` an elided `d` absorbed); and T2
    /// documents (PV-strong: elision chains under the default depth bound
    /// of 16). The last T2 document fails twice: its first `b` holds text
    /// (`b` is EMPTY), and preorder-earlier its `a` would need 18
    /// elisions for twenty `b`s.
    fn bounded_cases() -> Vec<(DtdAnalysis, String)> {
        let group = "<a><b>x</b><c>y</c> dog<e/></a>";
        let wide =
            |planted: &str| format!("<r>{}{planted}{}</r>", group.repeat(40), group.repeat(40));
        let short = "<a><c>y</c></a>".repeat(8);
        let figure1 = BuiltinDtd::Figure1.analysis();
        let t2 = BuiltinDtd::T2.analysis();
        let mut cases = vec![
            (figure1.clone(), wide("")),
            (figure1.clone(), wide("<a><b>x<zzz/></b></a>")),
            (figure1.clone(), wide("<a><b>x</b><e/><c>y</c></a>")),
            (
                figure1.clone(),
                format!(
                    "<r>{short}<a><f><c>y</c><e/></f></a>{short}<a><c>y</c>z<e/></a>{group}{short}</r>"
                ),
            ),
            (
                figure1,
                format!("<r>{short}<a><c>y</c>z<e/></a><a><b>x</b><c>y</c>z<d>q</d></a>{group}</r>"),
            ),
        ];
        for xml in [
            format!("<a>{}</a>", "<b/>".repeat(12)),
            format!("<a><a>{}</a>{}</a>", "<b/>".repeat(6), "<b/>".repeat(9)),
            format!("<a>{}</a>", "<b>t</b>".repeat(20)),
        ] {
            cases.push((t2.clone(), xml));
        }
        cases
    }

    /// A memo-off byte check runs with no cache: its checker interns no
    /// configuration, where a memo-on one interns the steps it takes.
    #[test]
    fn memo_off_byte_checks_intern_nothing() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let engine = CheckEngine::new(analysis.clone());
        let xml = format!("<r>{}</r>", "<a><b>x</b><c>y</c> z<e/></a>".repeat(20));
        for memo in [false, true] {
            let mut checker = engine.byte_checker(memo);
            assert_eq!(checker.check_str(&xml, None), Ok(tree_outcome(&analysis, &xml)));
            assert_eq!(checker.cache.peek().configs() > 0, memo, "memo={memo}");
        }
    }

    /// Streams `xml` in 7-byte chunks through a checker with the given
    /// cache bounds, asserting the bounds after every chunk; returns the
    /// outcome, how often the cache flushed and how many configurations
    /// it holds at the end.
    fn bounded_outcome(
        analysis: &DtdAnalysis,
        xml: &str,
        bounds: Bounds,
    ) -> (PvOutcome, u64, usize) {
        let engine = CheckEngine::new(analysis.clone());
        let mut stream = StreamCheck::new(StreamChecker::new(&engine, Lease::private(bounds)));
        for chunk in xml.as_bytes().chunks(7) {
            stream.feed(chunk).unwrap();
            assert!(stream.checker().cache.peek().within_bounds(), "cache over {bounds:?}");
        }
        let cache = stream.checker().cache.peek();
        let (flushes, configs) = (cache.flushes, cache.configs());
        (stream.finish().unwrap(), flushes, configs)
    }

    #[test]
    fn levels_over_the_word_cap_run_their_slots_directly() {
        // No configuration fits in 2 words (the header alone takes 3), nor
        // in the memo-off lease's 0: every level runs its recognizer slot.
        let capped = Bounds { config_words: 2, ..Bounds::DEFAULT };
        for bounds in [capped, Bounds::UNCACHED] {
            for (analysis, xml) in bounded_cases() {
                let (got, flushes, configs) = bounded_outcome(&analysis, &xml, bounds);
                assert_eq!(got, tree_outcome(&analysis, &xml), "{xml}");
                assert_eq!((flushes, configs), (0, 0), "nothing is ever interned");
            }
        }
    }

    #[test]
    fn a_full_cache_flushes_while_levels_are_open() {
        // The smallest capacities flush on almost every step; larger ones
        // flush where a novel group meets a cache that the repeated ones
        // filled exactly.
        for entries in 2..=16 {
            let bounds = Bounds { config_words: 64, entries, words: 4096 };
            for (analysis, xml) in bounded_cases() {
                let (got, flushes, _) = bounded_outcome(&analysis, &xml, bounds);
                assert_eq!(got, tree_outcome(&analysis, &xml), "entries={entries}: {xml}");
                assert!(entries > 3 || flushes > 0, "entries={entries}: {xml}");
            }
        }
    }
}
