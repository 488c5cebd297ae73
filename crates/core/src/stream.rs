//! Streaming potential-validity checking over a SAX-style event stream.
//!
//! The paper's ECRecognizer (Figure 5) consumes one child symbol at a
//! time; the element tree every other entry point builds first is an
//! artifact of the front end, not of the algorithm. [`StreamChecker`]
//! removes the artifact: it is fed [`pv_xml::Event`]s as the push parser
//! produces them and holds only the **open ancestor spine** — one
//! [`EcRecognizer`] plus a handful of counters per open element — so
//! residency is O(depth), independent of document size.
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
//! Streaming never consults the shape memo: the memo replays exact stat
//! deltas, so memoized, unmemoized and streaming outcomes all coincide.
//!
//! ## Early exit
//!
//! First-violation early exit is *free* here — once a candidate freezes,
//! no recognizer below the spine ever runs again — whereas the pooled
//! tree path pays a `fetch_min` race to agree on the document-order-first
//! violation. Both converge on the same node; see
//! `CheckEngine::check_document_pooled` and the `stream_differential`
//! suite.
//!
//! ## Batched dispatch
//!
//! Feeding the parent recognizer one symbol per event would read and
//! write the whole per-level state machine once per child. Instead each
//! open level *queues* its sibling run — `σ` for text (collapsed at
//! queue time, so repeated pieces and whole repeated runs across
//! comments cost one branch each and do zero recognizer work) and one
//! symbol per self-closing declared child — and the run is drained in a
//! single [`EcRecognizer::advance_run`] call at the next point whose
//! outcome can matter: a non-self-closing or undeclared child start, or
//! the level's own end tag. `advance_run` stops at the first rejected
//! symbol with per-symbol-identical stats, so the candidate freezes at
//! exactly the position the per-symbol protocol would have frozen it;
//! queued symbols after the rejection are discarded, which is also
//! per-symbol-identical (they are later siblings inside the frozen
//! node, which the protocol never feeds — undeclared children are never
//! queued: one freezes, or preempts into, an `UndeclaredElement`
//! candidate directly, exactly as the per-symbol watch would). The one
//! observable difference is *when* [`StreamChecker::decided`] flips for
//! a rejected **self-closing** child: the verdict surfaces at the next
//! flush point instead of the child's own start tag. Undeclared
//! children — the common first-violation shape — still decide
//! immediately, and final outcomes are bit-identical everywhere.

use crate::checker::{PvOutcome, PvViolation, PvViolationKind};
use crate::engine::CheckEngine;
use crate::recognizer::{EcRecognizer, RecBuffers, RecCtx, RecognizerStats};
use crate::token::ChildSym;
use pv_dtd::{DtdAnalysis, ElemId};
use pv_xml::{Event, NodeId, PushParser};

/// One open element on the ancestor spine.
struct Level<'c> {
    /// The node id this element would get in the arena built by
    /// [`pv_xml::parse`] (document order).
    node: NodeId,
    /// Recognizer for this element's content, fed incrementally.
    rec: EcRecognizer<'c>,
    /// Stats delta accumulated by `rec` so far.
    partial: RecognizerStats,
    /// Snapshot of the global `done` accumulator when this level opened:
    /// the deltas of every node whose check completed before this node
    /// existed.
    before: RecognizerStats,
    /// Child symbols fed to `rec` so far (= the failing index + 1 when
    /// the last fed symbol was rejected).
    count: usize,
    /// Queued sibling run: symbols appended since the last flush, fed to
    /// `rec` in one [`EcRecognizer::advance_run`] call at the next flush
    /// point (see the module docs on batched dispatch). Only the top
    /// level's run is ever non-empty — descending flushes the parent.
    run: Vec<ChildSym>,
    /// Whether the last symbol of the fed-plus-queued sequence was `σ` —
    /// mirrors the `out.last() != Some(&ChildSym::Sigma)` collapse in
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
/// Residency is O(depth): one recognizer per open element (recycled
/// through a spare pool as elements close), no tree, no memo.
pub struct StreamChecker<'c> {
    analysis: &'c DtdAnalysis,
    ctx: RecCtx<'c>,
    depth: u32,
    levels: Vec<Level<'c>>,
    /// Depth-indexed spare pool: `spare[d]` holds recognizers (plus their
    /// run buffers) retired by levels that lived at depth `d`. Opening a
    /// level at depth `d` re-arms one via [`EcRecognizer::reset`] instead
    /// of allocating, and indexing by depth means a recycled recognizer's
    /// warmed buffer capacities (active lists, generation bitmaps) were
    /// sized by an element that actually occurs at that depth — on
    /// regular documents, usually the *same* element.
    spare: Vec<Vec<(EcRecognizer<'c>, Vec<ChildSym>)>>,
    /// Lifetime-free recognizer buffers recovered from a retired checker
    /// ([`StreamChecker::seed_buffers`]); consumed when a level opens at
    /// a depth whose spare pool is empty.
    seed: Vec<RecBuffers>,
    /// Deltas of all cleanly completed node checks (normal mode only).
    done: RecognizerStats,
    state: State,
    /// Depth of the subtree currently being skipped below the candidate
    /// (its levels are never pushed; node-id accounting still runs).
    skip_depth: usize,
    /// Next arena node id, replicating [`pv_xml::parse`]'s allocation
    /// order so reported violation nodes match the tree checker's.
    next_node: u32,
    peak_depth: usize,
}

impl<'c> StreamChecker<'c> {
    pub(crate) fn new(analysis: &'c DtdAnalysis, ctx: RecCtx<'c>, depth: u32) -> Self {
        StreamChecker {
            analysis,
            ctx,
            depth,
            levels: Vec::new(),
            spare: Vec::new(),
            seed: Vec::new(),
            done: RecognizerStats::default(),
            state: State::Normal,
            skip_depth: 0,
            next_node: 0,
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
        match &mut self.state {
            State::Normal => {
                if self.levels.is_empty() {
                    self.start_root(node, name, self_closing);
                } else {
                    self.start_child_normal(node, name, self_closing);
                }
            }
            State::Candidate(_) => self.start_child_candidate(node, name, self_closing),
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
        match &self.state {
            State::Normal => {
                // Queue one σ per run (collapse at queue time): once the
                // sibling run ends in σ, every further piece — and every
                // further run up to the next child element — does zero
                // recognizer work, whatever the parent's content model.
                if let Some(level) = self.levels.last_mut() {
                    if !level.last_sigma {
                        level.last_sigma = true;
                        level.run.push(ChildSym::Sigma);
                    }
                }
            }
            State::Candidate(c) => {
                // Text inside a skipped subtree or directly under the
                // frozen node never reaches a live recognizer.
                if self.skip_depth == 0 && self.levels.len() <= c.frozen {
                    self.feed_sigma_top();
                }
            }
            State::RootFailed(_) => {}
        }
    }

    /// Handles an element end tag (also the implicit end of `<e/>`).
    pub fn on_end(&mut self) {
        let popped = match &mut self.state {
            State::Normal => return self.close_top_normal(),
            State::Candidate(c) => {
                if self.skip_depth > 0 {
                    self.skip_depth -= 1;
                    return;
                }
                if self.levels.len() == c.frozen + 1 {
                    // The frozen level itself closes: its delta is already
                    // captured (or deliberately discarded) in `own`.
                    self.levels.pop().expect("frozen level open")
                } else {
                    // A live ancestor closes cleanly: the tree checker
                    // completed this node's check before descending to
                    // the candidate, so its full delta counts.
                    let level = self.levels.pop().expect("live level open");
                    c.spine.merge(&level.partial);
                    level
                }
            }
            State::RootFailed(_) => return,
        };
        self.recycle(popped);
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

    /// `true` once the boolean verdict is final (a violation froze).
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

    /// Number of currently open elements.
    pub fn open_depth(&self) -> usize {
        self.levels.len()
    }

    /// Consumes the checker and produces the outcome for the completed
    /// stream. Bit-identical — violation and counters — to
    /// [`CheckEngine::check_document`](crate::engine::CheckEngine::check_document)
    /// on the tree built from the same bytes. Only meaningful after a
    /// complete event stream (all elements closed).
    pub fn finalize(self) -> PvOutcome {
        match self.state {
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
        }
    }

    /// Seeds the recognizer pool with lifetime-free buffers harvested
    /// from a retired checker ([`Self::finalize_recycling`]), so
    /// back-to-back documents reuse
    /// warmed allocations instead of re-growing them per document.
    pub fn seed_buffers(&mut self, bufs: Vec<RecBuffers>) {
        self.seed.extend(bufs);
    }

    /// Like [`finalize`](Self::finalize), additionally harvesting every
    /// recognizer's buffers (spare pool, unconsumed seeds, any levels
    /// still open) for a future checker's
    /// [`seed_buffers`](Self::seed_buffers).
    pub fn finalize_recycling(mut self) -> (PvOutcome, Vec<RecBuffers>) {
        let mut bufs: Vec<RecBuffers> = std::mem::take(&mut self.seed);
        for slot in std::mem::take(&mut self.spare) {
            for (rec, _) in slot {
                bufs.push(rec.into_buffers());
            }
        }
        for level in std::mem::take(&mut self.levels) {
            bufs.push(level.rec.into_buffers());
        }
        (self.finalize(), bufs)
    }

    fn alloc_node(&mut self) -> NodeId {
        let id = NodeId::from_index(self.next_node as usize);
        self.next_node += 1;
        id
    }

    fn push_level(&mut self, node: NodeId, elem: ElemId) {
        let (rec, run) = match self.spare.get_mut(self.levels.len()).and_then(Vec::pop) {
            Some((mut rec, run)) => {
                rec.reset(elem, self.depth);
                (rec, run)
            }
            None => {
                let rec = match self.seed.pop() {
                    Some(bufs) => EcRecognizer::with_buffers(self.ctx, elem, self.depth, bufs),
                    None => EcRecognizer::new(self.ctx, elem, self.depth),
                };
                (rec, Vec::new())
            }
        };
        self.levels.push(Level {
            node,
            rec,
            partial: RecognizerStats::default(),
            before: self.done,
            count: 0,
            run,
            last_sigma: false,
        });
        self.peak_depth = self.peak_depth.max(self.levels.len());
    }

    /// Returns a popped level's recognizer and run buffer to the spare
    /// slot for the depth it lived at. Must be called *after* the pop so
    /// `self.levels.len()` is that depth.
    fn recycle(&mut self, level: Level<'c>) {
        let depth = self.levels.len();
        if self.spare.len() <= depth {
            self.spare.resize_with(depth + 1, Vec::new);
        }
        let mut run = level.run;
        run.clear();
        self.spare[depth].push((level.rec, run));
    }

    fn start_root(&mut self, node: NodeId, name: &str, self_closing: bool) {
        if self.analysis.id(name) != Some(self.analysis.root) {
            // Same precondition check as `check_root`: decided before any
            // recognizer runs, with zero stats.
            self.state = State::RootFailed(PvViolation {
                node,
                kind: PvViolationKind::RootMismatch {
                    found: name.to_owned(),
                    expected: self.analysis.name(self.analysis.root).to_owned(),
                },
            });
            return;
        }
        self.push_level(node, self.analysis.root);
        if self_closing {
            self.close_top_normal();
        }
    }

    fn start_child_normal(&mut self, node: NodeId, name: &str, self_closing: bool) {
        let Some(elem) = self.analysis.id(name) else {
            // `children_into` is all-or-nothing *before* recognition: an
            // undeclared child zeroes the parent's entire delta, however
            // many symbols its recognizer had already accepted. That
            // also means the queued run need not be drained: whether it
            // would have been accepted (delta discarded with `own`) or
            // rejected (the in-flight `ContentRejected` is preempted by
            // this very child — see the candidate-path preemption
            // branch), the frozen candidate comes out identical.
            let parent = self.levels.len() - 1;
            let level = &mut self.levels[parent];
            level.run.clear();
            self.state = State::Candidate(Candidate {
                violation: PvViolation {
                    node,
                    kind: PvViolationKind::UndeclaredElement { name: name.to_owned() },
                },
                base: level.before,
                spine: RecognizerStats::default(),
                own: RecognizerStats::default(),
                frozen: parent,
                watch_undeclared: false,
            });
            self.skip_depth = usize::from(!self_closing);
            return;
        };
        self.queue_symbol_top(ChildSym::Elem(elem));
        if self_closing {
            // Deferred verdict: an accepted self-closing child has an
            // empty child sequence (no recognizer run, no counters — the
            // tree checker skips empty sequences entirely), so there is
            // nothing to open or merge; a rejected one freezes at the
            // next flush point with a bit-identical candidate.
            return;
        }
        if self.flush_top() {
            self.push_level(node, elem);
        } else {
            self.skip_depth = 1;
        }
    }

    fn start_child_candidate(&mut self, node: NodeId, name: &str, self_closing: bool) {
        if self.skip_depth > 0 {
            if !self_closing {
                self.skip_depth += 1;
            }
            return;
        }
        let c = match &mut self.state {
            State::Candidate(c) => c,
            _ => unreachable!("start_child_candidate outside candidate state"),
        };
        if self.levels.len() == c.frozen + 1 {
            // A later sibling of the failing child, inside the frozen
            // node. Its recognizer is dead, but an undeclared sibling
            // preempts an in-flight ContentRejected (children_into fails
            // first, discarding the node's delta).
            if c.watch_undeclared && self.analysis.id(name).is_none() {
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
        // The frozen level has popped; the top is a live ancestor whose
        // own check — performed in full by the tree checker before it
        // ever descends — must keep running.
        let parent = self.levels.len() - 1;
        match self.analysis.id(name) {
            None => {
                let level = &self.levels[parent];
                self.state = State::Candidate(Candidate {
                    violation: PvViolation {
                        node,
                        kind: PvViolationKind::UndeclaredElement { name: name.to_owned() },
                    },
                    base: level.before,
                    spine: RecognizerStats::default(),
                    own: RecognizerStats::default(),
                    frozen: parent,
                    watch_undeclared: false,
                });
            }
            Some(elem) => {
                let accepted = self.feed_symbol_top(ChildSym::Elem(elem));
                if !accepted {
                    let level = &self.levels[parent];
                    self.state = State::Candidate(Candidate {
                        violation: PvViolation {
                            node: level.node,
                            kind: PvViolationKind::ContentRejected {
                                symbol: ChildSym::Elem(elem).display(&self.analysis.dtd),
                                index: level.count - 1,
                            },
                        },
                        base: level.before,
                        spine: RecognizerStats::default(),
                        own: level.partial,
                        frozen: parent,
                        watch_undeclared: true,
                    });
                }
            }
        }
        if !self_closing {
            self.skip_depth = 1;
        }
    }

    /// Appends one symbol to the top level's queued sibling run — the
    /// batched counterpart of [`feed_symbol_top`](Self::feed_symbol_top),
    /// drained by [`flush_top`](Self::flush_top). Normal-mode only.
    fn queue_symbol_top(&mut self, sym: ChildSym) {
        let level = self.levels.last_mut().expect("open level");
        level.last_sigma = matches!(sym, ChildSym::Sigma);
        level.run.push(sym);
    }

    /// Drains the top level's queued sibling run into its recognizer in
    /// one [`EcRecognizer::advance_run`] call. Returns `false` if a
    /// symbol was rejected; the candidate is then frozen at exactly the
    /// position — index, partial delta, stats — the per-symbol protocol
    /// would have frozen it, and the symbols queued after the rejection
    /// are discarded (only `σ` and *declared* self-closing children are
    /// ever queued, and the per-symbol protocol feeds neither to a
    /// frozen level).
    fn flush_top(&mut self) -> bool {
        let parent = self.levels.len() - 1;
        let level = &mut self.levels[parent];
        if level.run.is_empty() {
            return true;
        }
        let mut run = std::mem::take(&mut level.run);
        let rejected = level.rec.advance_run(&run, &mut level.partial);
        level.count += rejected.map_or(run.len(), |i| i + 1);
        let sym = rejected.map(|i| run[i]);
        run.clear();
        level.run = run;
        let Some(sym) = sym else { return true };
        let level = &self.levels[parent];
        self.state = State::Candidate(Candidate {
            violation: PvViolation {
                node: level.node,
                kind: PvViolationKind::ContentRejected {
                    symbol: sym.display(&self.analysis.dtd),
                    index: level.count - 1,
                },
            },
            base: level.before,
            spine: RecognizerStats::default(),
            own: level.partial,
            frozen: parent,
            watch_undeclared: true,
        });
        false
    }

    /// Feeds one symbol to the top level's recognizer, replicating
    /// `run_symbols`: the symbol is counted (and the recognizer's stats
    /// mutate) even when it is rejected.
    fn feed_symbol_top(&mut self, sym: ChildSym) -> bool {
        let level = self.levels.last_mut().expect("open level");
        level.partial.symbols += 1;
        let accepted = level.rec.validate(sym, &mut level.partial);
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
        if self.feed_symbol_top(ChildSym::Sigma) {
            return;
        }
        let parent = self.levels.len() - 1;
        let level = &self.levels[parent];
        self.state = State::Candidate(Candidate {
            violation: PvViolation {
                node: level.node,
                kind: PvViolationKind::ContentRejected {
                    symbol: ChildSym::Sigma.display(&self.analysis.dtd),
                    index: level.count - 1,
                },
            },
            base: level.before,
            spine: RecognizerStats::default(),
            own: level.partial,
            frozen: parent,
            watch_undeclared: true,
        });
    }

    fn close_top_normal(&mut self) {
        let clean = self.flush_top();
        let level = self.levels.pop().expect("open level");
        if clean {
            self.done.merge(&level.partial);
        }
        // On a rejection the freeze already captured `own = partial` and
        // this pop is the frozen level's own close: nothing to merge.
        self.recycle(level);
    }
}

impl CheckEngine {
    /// Creates a [`StreamChecker`] sharing this engine's compiled DAGs
    /// and depth policy. The stream checker holds O(depth) state and
    /// produces outcomes bit-identical to
    /// [`check_document`](Self::check_document); it never touches the
    /// shape memo (the memo replays exact deltas, so all three paths
    /// coincide).
    pub fn stream_checker(&self) -> StreamChecker<'_> {
        StreamChecker::new(self.analysis(), self.rec_ctx(), self.depth())
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

    /// Variant of [`finish`](Self::finish) that also harvests the
    /// checker's recognizer buffers for the next document's
    /// [`StreamChecker::seed_buffers`]. A malformed stream forfeits the
    /// buffers along with the error.
    pub fn finish_recycling(mut self) -> pv_xml::Result<(PvOutcome, Vec<RecBuffers>)> {
        self.parser.finish();
        self.drain()?;
        debug_assert!(self.parser.is_complete());
        Ok(self.checker.finalize_recycling())
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
        while let Some(event) = self.parser.next_event()? {
            self.checker.on_event(&event);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_dtd::builtin::BuiltinDtd;

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
    }
}
