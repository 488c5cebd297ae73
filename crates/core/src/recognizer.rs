//! The **ECRecognizer** algorithm (paper Figure 5): greedy, depth-bounded
//! recognition of Element Content Potential Validity (Problem ECPV).
//!
//! ## How it works
//!
//! For an element `e`, the recognizer walks `DAG_e` keeping an ordered
//! *active node list*. For each input symbol `x` (a child element or a σ
//! character-data run):
//!
//! * a **star-group** node matches `x` if `x` is a member or is reachable
//!   from a member (Proposition 2); the node stays active — groups absorb
//!   arbitrarily many symbols;
//! * a **simple** node `n` for element `y` matches if `x = y` (the node is
//!   consumed and its DAG successors become active with priority), or if
//!   `x` is reachable from `y` — in which case a **nested recognizer** for
//!   `y` is spawned (Figure 5 line 25): this speculates that `<y>` tags are
//!   *elided* and `x` sits inside them (grammar step `Y → Ŷ`). The nested
//!   recognizer is cached on the node and drains further symbols until its
//!   own active list empties ("its last element was matched", Example 4),
//!   at which point the node advances;
//! * a node matching nothing is removed and its successors are examined
//!   *for the same symbol* (the greedy skip — sound because every element
//!   is nullable under the PV grammar, Theorem 3, so a skipped position can
//!   always be filled by later markup insertion).
//!
//! Acceptance: every input symbol must be matched by some active node; the
//! input may end at any time (all remaining positions are nullable).
//!
//! ## Depth bound
//!
//! Nested recognizers may chain (elided element inside elided element …).
//! The chain follows *strong edges* only, so for non-PV-strong DTDs it
//! terminates structurally; for PV-strong DTDs (Example 5's
//! `a → (a | b*)`) an explicit budget caps it — the paper's document-depth
//! bound `D`, threaded through constructor calls as `depth − 1`.
//!
//! ## The cost-ordered speculation agenda
//!
//! The paper's pseudocode explores every elision hypothesis recursively,
//! which is exponential in the depth bound on densely recursive DTDs. We
//! instead process each input symbol as one **round** over the whole
//! nested-recognizer tree, in three phases:
//!
//! 1. **begin** — every recognizer in the tree drains its plain FIFO work —
//!    group/PCDATA/equality matches and skip cascades, all free — and
//!    *parks* each would-be elision as a request priced `1 + md(y, x)`
//!    (the minimal-elision distance, see [`crate::dag::DagSet`]). A
//!    parked entry eagerly explores its **skip branch** too: its DAG
//!    successors are examined for the same symbol, so an alternative that
//!    only becomes visible past a nullable position competes in the same
//!    round instead of hiding behind a failure cascade.
//! 2. **agenda** — a single driver loop repeatedly locates the cheapest
//!    parked request **anywhere in the tree** — committed nested
//!    recognizers hold no privilege; their internal requests are priced
//!    like everyone else's — and opens it, spending one unit of the
//!    shared per-symbol budget ([`EcRecognizer::SPEC_BUDGET_PER_SYMBOL`]).
//!    Opening a request may park cheaper requests inside the new nested
//!    recognizer; those are then globally cheapest and complete first, so
//!    the md-optimal elision chain can never be starved by a costlier
//!    sibling or by an already-committed subtree.
//! 3. **finish** — resolution runs bottom-up: a nested recognizer that
//!    matched always offers its holder's successors for the next symbol
//!    (the elided element may end at any point — every position inside
//!    it is nullable; Example 4's empty-list rule is the special case
//!    where continuing is impossible) *and* keeps the holder alive while
//!    it can continue; one that did not match simply evaporates — its
//!    skip branch already ran in phase 1. Requests still parked when the
//!    budget ran out are dropped the same way and counted in
//!    [`RecognizerStats::specs_denied`] (`0` certifies the round was
//!    exact, i.e. budget-independent).
//!
//! A fresh simple node `n` for `y` that could *both* equality-match `x = y`
//! and absorb it inside an elided `<y>` does not commit to either: the
//! equality branch is taken in phase 1 at cost 0 (the hot path stays
//! FIFO-fast) and the elision branch is parked like any other request, so
//! both parse states survive the round. Exhaustive bounded sweeps against
//! the exact Earley oracle (`tests/completeness.rs`) verify that the
//! agenda leaves no reachable divergence.
//!
//! ## Deviation from the paper's pseudocode
//!
//! Figure 5 checks `element(n) = x` (line 29) even when the node's cached
//! nested recognizer has already consumed content. That would let one DAG
//! position account for both an elided `<y>…</y>` *and* an explicit `<y>`,
//! accepting non-PV inputs (e.g. children `c, y` against model `(y)` with
//! `y → (c, c)`). We perform the equality check only while no content has
//! been committed into the node's nested recognizer; differential tests
//! against the Earley baseline confirm the fix.

use crate::dag::{DagNodeId, DagNodeKind, DagSet, ElementDag};
use crate::token::ChildSym;
use pv_dtd::{DtdAnalysis, ElemId, GroupSet, Reachability};

/// Shared immutable context for a family of recognizers: the per-element
/// DAGs, the reachability lookup table, and the per-symbol speculation
/// budget.
#[derive(Clone, Copy)]
pub struct RecCtx<'a> {
    /// All element DAGs.
    pub dags: &'a DagSet,
    /// Reachability closure `LT`.
    pub reach: &'a Reachability,
    /// Per-symbol speculation budget, [`pv_dtd::budget::full_budget`]`(m)`.
    budget: u32,
}

impl<'a> RecCtx<'a> {
    /// Builds a context from a compiled DTD and its DAG set.
    pub fn new(analysis: &'a DtdAnalysis, dags: &'a DagSet) -> Self {
        let budget = pv_dtd::budget::full_budget(analysis.reach.element_count());
        RecCtx { dags, reach: &analysis.reach, budget }
    }

    /// The per-symbol speculation budget this context runs with.
    #[inline]
    pub fn spec_budget(&self) -> u32 {
        self.budget
    }

    /// Proposition 2's star-group test: membership or reachability.
    #[inline]
    fn group_matches(&self, g: &GroupSet, x: ChildSym) -> bool {
        match x {
            ChildSym::Elem(e) => {
                g.contains(e) || g.elems.iter().any(|&y| self.reach.reaches(y, e))
            }
            ChildSym::Sigma => {
                g.pcdata || g.elems.iter().any(|&y| self.reach.reaches_pcdata(y))
            }
        }
    }
}

/// Work counters, aggregated across nested recognizers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecognizerStats {
    /// Input symbols processed (top-level only).
    pub symbols: u64,
    /// Active-list entries examined (including cascades and nested work).
    pub node_visits: u64,
    /// Nested recognizers created (Figure 5 line 25 executions).
    pub subs_created: u64,
    /// Speculation requests still parked when the per-symbol budget ran
    /// out (dropped unopened). `0` certifies that every round was exact:
    /// the verdict is what an unbounded-budget run would have produced.
    pub specs_denied: u64,
}

impl RecognizerStats {
    /// Accumulates another counter set into this one. Addition is
    /// commutative and associative, so merging per-node stats in document
    /// order reproduces the sequential checker's totals exactly — the
    /// property the parallel checker's deterministic reduction relies on.
    pub fn merge(&mut self, other: &RecognizerStats) {
        self.symbols += other.symbols;
        self.node_visits += other.node_visits;
        self.subs_created += other.subs_created;
        self.specs_denied += other.specs_denied;
    }
}

/// One active DAG position, optionally carrying an in-progress nested
/// recognizer for an elided element.
struct Entry<'a> {
    node: DagNodeId,
    sub: Option<Box<EcRecognizer<'a>>>,
}

impl Entry<'_> {
    fn fresh(node: DagNodeId) -> Self {
        Entry { node, sub: None }
    }
}

/// The element-content recognizer (one instance per ECPV problem).
pub struct EcRecognizer<'a> {
    ctx: RecCtx<'a>,
    dag: &'a ElementDag,
    /// The element whose content this recognizer checks (indexes the
    /// shared md/cascade-hint tables).
    elem: ElemId,
    /// Remaining elision budget (`depth` in Figure 5).
    depth: u32,
    active: Vec<Entry<'a>>,
    /// Scratch: "a fresh entry for node i exists in the current generation"
    /// (entries examinable for the symbol being processed).
    cur: Vec<bool>,
    /// Scratch: same, for the next generation (successors of consumed
    /// nodes — available only from the following symbol on).
    nxt: Vec<bool>,
    /// Scratch for one `validate` round: entries consumed this symbol whose
    /// successors activate for the next one. Kept as a field (emptied
    /// between rounds) so the steady-state hot path never allocates.
    advanced: Vec<Entry<'a>>,
    /// Scratch for one `validate` round: entries that matched and stay
    /// active (star-groups, partial subs).
    stayed: Vec<Entry<'a>>,
    /// Round state: parked speculation requests `(1 + md(y, x), node)`,
    /// waiting on the global agenda. An entry parks at most one request
    /// per round; the skip branch of a parked node was already explored
    /// when it parked.
    pending: Vec<(u32, DagNodeId)>,
    /// Round state: entries whose nested recognizer has begun the round
    /// but not yet finished it (it still has parked requests somewhere in
    /// its subtree); resolved bottom-up in `finish_round`.
    holders: Vec<Entry<'a>>,
    /// Round state: every request parked this round (including ones the
    /// agenda has already opened), for dominance pruning — a same-element
    /// request downstream of one of these is redundant (see `park`).
    parked_round: Vec<(ElemId, DagNodeId)>,
    /// Round state: some entry of *this* recognizer matched the symbol.
    matched: bool,
    /// Round state: the agenda view of this subtree — the cheapest
    /// parked request among `pending` and (each +1 per nesting level)
    /// the `holders` subtrees, `u32::MAX` when none. Maintained
    /// incrementally so the driver never re-walks the tree.
    sub_min: u32,
}

impl<'a> EcRecognizer<'a> {
    /// Creates a recognizer for the content of element `e` with the given
    /// elision budget (Figure 5, constructor).
    pub fn new(ctx: RecCtx<'a>, e: ElemId, depth: u32) -> Self {
        let dag = ctx.dags.dag(e);
        let mut rec = EcRecognizer {
            ctx,
            dag,
            elem: e,
            depth,
            active: Vec::with_capacity(dag.starts.len()),
            cur: Vec::new(),
            nxt: Vec::new(),
            advanced: Vec::new(),
            stayed: Vec::new(),
            pending: Vec::new(),
            holders: Vec::new(),
            parked_round: Vec::new(),
            matched: false,
            sub_min: u32::MAX,
        };
        rec.reset(e, depth);
        rec
    }

    /// Re-arms this recognizer for a fresh ECPV instance over element `e`
    /// with the given elision budget, **reusing every internal buffer**.
    /// After `reset` the recognizer is observationally identical to a
    /// freshly constructed one ([`EcRecognizer::new`] is implemented on top
    /// of it); the checker's per-document scratch
    /// ([`crate::checker::CheckScratch`]) relies on this to keep the
    /// per-node hot path allocation-free.
    pub fn reset(&mut self, e: ElemId, depth: u32) {
        let dag = self.ctx.dags.dag(e);
        self.dag = dag;
        self.elem = e;
        self.depth = depth;
        self.active.clear();
        self.advanced.clear();
        self.stayed.clear();
        self.pending.clear();
        self.holders.clear();
        self.parked_round.clear();
        self.matched = false;
        self.sub_min = u32::MAX;
        self.cur.clear();
        self.cur.resize(dag.len(), false);
        self.nxt.clear();
        self.nxt.resize(dag.len(), false);
        for &s in &dag.starts {
            if !self.cur[s as usize] {
                self.cur[s as usize] = true;
                self.active.push(Entry::fresh(s));
            }
        }
    }

    /// Appends this recognizer's **configuration** to `out`: the element,
    /// the elision budget, and the active list in order, each entry's
    /// nested recognizer encoded recursively. The words are opaque to
    /// every caller; [`EcRecognizer::load`] is their only reader.
    ///
    /// It relies on the between-round invariant: outside a `validate` /
    /// `advance_run` call, every round buffer (`advanced`, `stayed`,
    /// `pending`, `holders`, `parked_round`) is empty, the generation
    /// bitmaps and `matched`/`sub_min` are rewritten before they are next
    /// read, and every nested recognizer on the active list is between
    /// rounds too. The active list is then the whole state, so two
    /// recognizers with equal configurations answer every future symbol
    /// with the same verdict and the same [`RecognizerStats`] delta.
    ///
    /// Returns `false`, leaving `out` partly written, as soon as `out`
    /// would hold more than `cap` words.
    pub(crate) fn encode(&self, out: &mut Vec<u32>, cap: usize) -> bool {
        out.extend([self.elem.0, self.depth]);
        self.encode_active(out, cap)
    }

    /// The active list after `encode`'s header. A nested recognizer's
    /// element and budget are implied by its holder (the holder's simple
    /// node names the element; the budget is one less), so they are not
    /// written.
    fn encode_active(&self, out: &mut Vec<u32>, cap: usize) -> bool {
        out.push(self.active.len() as u32);
        for entry in &self.active {
            if out.len() >= cap {
                return false;
            }
            out.push(entry.node << 1 | u32::from(entry.sub.is_some()));
            if let Some(sub) = &entry.sub {
                if !sub.encode_active(out, cap) {
                    return false;
                }
            }
        }
        out.len() <= cap
    }

    /// Re-arms this recognizer (reusing its buffers, as
    /// [`EcRecognizer::reset`] does) into the configuration `config`
    /// written by [`EcRecognizer::encode`] of a recognizer over the same
    /// [`RecCtx`]. Afterwards it is between rounds and behaves exactly as
    /// the encoded recognizer would (see `encode` for the invariant).
    pub(crate) fn load(&mut self, config: &[u32]) {
        self.reset(ElemId(config[0]), config[1]);
        self.active.clear();
        let used = self.load_active(&config[2..]);
        debug_assert_eq!(used + 2, config.len(), "configuration has trailing words");
    }

    /// Rebuilds the active list from `encode_active`'s words; returns how
    /// many words it read.
    fn load_active(&mut self, words: &[u32]) -> usize {
        let dag = self.dag;
        let mut at = 1;
        for _ in 0..words[0] {
            let word = words[at];
            at += 1;
            let node = word >> 1;
            let sub = if word & 1 == 1 {
                let DagNodeKind::Simple(y) = dag.node(node).kind else {
                    unreachable!("only simple nodes hold nested recognizers")
                };
                let mut sub = Box::new(EcRecognizer::new(self.ctx, y, self.depth - 1));
                sub.active.clear();
                at += sub.load_active(&words[at..]);
                Some(sub)
            } else {
                None
            };
            self.active.push(Entry { node, sub });
        }
        at
    }

    /// `true` once every DAG position has been consumed or skipped — the
    /// elided element's content cannot take further symbols, so the parent
    /// may advance past it (Example 4: "f is removed from the active node
    /// set as its last element was matched").
    #[inline]
    pub fn is_complete(&self) -> bool {
        !self.dag.is_any && self.active.is_empty()
    }

    /// Baseline for the total speculations allowed while processing one
    /// input symbol, shared across the whole nested-recognizer tree.
    /// Tracking *every* speculative alternative is exponential in the
    /// depth budget on densely recursive DTDs (a blow-up the paper's
    /// pseudocode shares); the shared budget keeps per-symbol work at
    /// `O(BUDGET · k)` while retaining enough breadth that the exhaustive
    /// bounded sweeps against the exact Earley oracle find no divergence.
    /// The effective budget is `max(SPEC_BUDGET_PER_SYMBOL, (k + 1)²)`,
    /// echoing Theorem 4's `O(k · D)` per-symbol work bound: every finite
    /// md value is `< k`, so the globally cheapest elision chain (which
    /// the agenda opens before anything costlier, wherever in the
    /// nested-recognizer tree it lives) always fits, and the quadratic
    /// headroom covers the constant-rate side requests that accompany a
    /// full-depth chain — braided interconnects, recursion re-entries,
    /// clone positions (see `corpus::recursive`). The budget is a
    /// worst-case guard, not a steady cost: rounds open only what the
    /// agenda actually holds, and rounds that would have needed more are
    /// flagged via [`RecognizerStats::specs_denied`] (`0` over a corpus
    /// certifies every verdict is budget-independent).
    pub const SPEC_BUDGET_PER_SYMBOL: u32 = pv_dtd::budget::SPEC_FLOOR;

    /// Figure 5's `validate(x)`: feeds one symbol, returns `true` iff the
    /// content so far is still potentially valid.
    ///
    /// One symbol is one **round** over the whole nested-recognizer tree
    /// (see the module docs): FIFO work first, then the driver loop below
    /// opens parked speculation requests strictly cheapest-first across
    /// the entire tree until the agenda empties or the budget runs out,
    /// then resolution runs bottom-up.
    pub fn validate(&mut self, x: ChildSym, stats: &mut RecognizerStats) -> bool {
        // Every finite md value is < k, so k + 1 covers the globally
        // cheapest elision chain; (k + 1)² additionally covers the
        // side requests accompanying each chain level (see const docs).
        let mut budget = self.ctx.spec_budget();
        if self.begin_round(x, stats) {
            return self.matched;
        }
        self.drive(x, stats, &mut budget, u32::MAX);
        self.finish_round(stats)
    }

    /// Phase 1: drain this recognizer's FIFO work for symbol `x`.
    ///
    /// Returns `true` when the round is already **done**: nothing in this
    /// subtree parked a request, so the active list has been rebuilt
    /// inline and `matched` is final — the common case, costing exactly
    /// one pass. Returns `false` when requests were parked (here or in a
    /// committed subtree): resolution then waits on the agenda driver and
    /// [`EcRecognizer::finish_round`].
    fn begin_round(&mut self, x: ChildSym, stats: &mut RecognizerStats) -> bool {
        debug_assert!(self.pending.is_empty() && self.holders.is_empty());
        self.matched = false;
        self.sub_min = u32::MAX;
        if self.dag.is_any {
            // ANY content absorbs every declared symbol (paper Section 4).
            self.matched = true;
            return true;
        }
        // The round buffers are fields so their capacity survives across
        // symbols and nodes (allocation-free steady state); they are taken
        // locally for the round and rotated back at the end.
        let mut work = std::mem::take(&mut self.active);
        let mut advanced = std::mem::take(&mut self.advanced);
        let mut stayed = std::mem::take(&mut self.stayed);
        // Reset generation flags: `cur` marks fresh (sub-less) entries
        // examinable for this symbol, `nxt` marks fresh entries created for
        // the next symbol. Keeping the generations separate is essential:
        // a node consumed by a cascading skip in this round must not
        // suppress the same node arriving fresh as an advance successor.
        self.cur.fill(false);
        self.nxt.fill(false);
        for e in &work {
            if e.sub.is_none() {
                self.cur[e.node as usize] = true;
            }
        }
        let xcol = match x {
            ChildSym::Elem(e) => self.ctx.dags.col_of_elem(e),
            ChildSym::Sigma => self.ctx.dags.col_sigma(),
        };
        // pop() consumes from the back; reverse so the initial entries are
        // scanned front-to-back in their original order. Skip cascades
        // push onto the back (DFS order), exactly as before.
        work.reverse();
        while let Some(mut entry) = work.pop() {
            stats.node_visits += 1;
            if let Some(sub) = &mut entry.sub {
                // A committed nested recognizer: content has already been
                // absorbed inside the elided element, so this entry never
                // equality-matches again (deviation, module docs). Its
                // round begins now; if nothing in its subtree needs the
                // agenda it resolves inline — the hot path.
                if sub.begin_round(x, stats) {
                    if sub.matched {
                        self.matched = true;
                        // The elided element may end right here — every
                        // position still active inside it is nullable
                        // (Theorem 3) — so the holder always offers its
                        // successors for the next symbol, and *also*
                        // stays when the nested recognizer can continue
                        // (both parse states are live; Example 4's
                        // empty-list rule is the special case where
                        // continuing is impossible).
                        self.advance(entry.node, &mut advanced);
                        if !sub.is_complete() {
                            stayed.push(entry);
                        }
                    } else {
                        self.cascade_live(entry.node, xcol, None, &mut work);
                    }
                } else {
                    // Requests parked deeper in the subtree: resolution
                    // waits for the agenda. Explore the skip branch
                    // eagerly — if the subtree ultimately fails, its
                    // successors have already competed for this symbol.
                    self.cascade_live(entry.node, xcol, None, &mut work);
                    if let Some(sub) = &entry.sub {
                        self.sub_min = self.sub_min.min(sub.sub_min.saturating_add(1));
                    }
                    self.holders.push(entry);
                }
                continue;
            }
            match &self.dag.node(entry.node).kind {
                DagNodeKind::Group(g) => {
                    if self.ctx.group_matches(g, x) {
                        self.matched = true;
                        stayed.push(entry);
                    } else {
                        self.cur[entry.node as usize] = false;
                        self.cascade_live(entry.node, xcol, None, &mut work);
                    }
                }
                DagNodeKind::Pcdata => {
                    self.cur[entry.node as usize] = false;
                    if x == ChildSym::Sigma {
                        // PCDATA derives a single σ; runs are pre-collapsed.
                        self.matched = true;
                        self.advance(entry.node, &mut advanced);
                    } else {
                        self.cascade_live(entry.node, xcol, None, &mut work);
                    }
                }
                DagNodeKind::Simple(y) => {
                    let y = *y;
                    // Elision gate (Figure 5 lines 23–28): a fresh nested
                    // recognizer for y can absorb x iff md(y, x) < depth,
                    // an O(1) probe-table test.
                    let need = match x {
                        ChildSym::Elem(e) => self.ctx.dags.min_elisions(y, e),
                        ChildSym::Sigma => self.ctx.dags.min_elisions_sigma(y),
                    };
                    let speculative = need != u32::MAX && need < self.depth;
                    if x == ChildSym::Elem(y) {
                        // Equality branch at cost 0: the hot path stays
                        // FIFO-fast. If elision is also possible the entry
                        // *branches* — the elision hypothesis is parked as
                        // an agenda request instead of pre-empting the
                        // equality match (gap b of the completeness audit).
                        self.matched = true;
                        self.cur[entry.node as usize] = false;
                        self.advance(entry.node, &mut advanced);
                        if speculative {
                            self.park(need + 1, entry.node, y, xcol, &mut work);
                        }
                    } else if speculative {
                        self.park(need + 1, entry.node, y, xcol, &mut work);
                    } else {
                        self.cur[entry.node as usize] = false;
                        self.cascade_live(entry.node, xcol, None, &mut work);
                    }
                }
            }
        }
        if self.sub_min == u32::MAX {
            // Nothing parked anywhere below: the round is conclusive, so
            // rebuild the active list in the same pass (the hot path —
            // no agenda, no deferred resolution).
            self.merge_round(advanced, stayed, work);
            return true;
        }
        self.advanced = advanced;
        self.stayed = stayed;
        self.active = work; // drained; keeps its capacity for rotation
        false
    }

    /// Rebuilds the active list from a round's `advanced` + `stayed`
    /// output (greedy priority: freshly advanced positions first, paper
    /// line 32), merging identical *fresh* duplicates; sub-carrying
    /// entries are distinct parse states and always kept. `drained` is
    /// the spent work stack, rotated in as the next round's scratch.
    fn merge_round(
        &mut self,
        mut advanced: Vec<Entry<'a>>,
        mut stayed: Vec<Entry<'a>>,
        drained: Vec<Entry<'a>>,
    ) {
        advanced.append(&mut stayed);
        self.cur.fill(false);
        advanced.retain(|e| {
            if e.sub.is_some() {
                return true;
            }
            let seen = self.cur[e.node as usize];
            self.cur[e.node as usize] = true;
            !seen
        });
        self.stayed = stayed;
        self.advanced = drained;
        self.active = advanced;
    }

    /// Parks one speculation request for the agenda and eagerly explores
    /// the node's skip branch (successors compete for the same symbol —
    /// sound because every position is nullable, Theorem 3).
    ///
    /// **Dominance pruning:** a request for element `y` at a position
    /// reachable from an already-parked same-element request is dropped.
    /// The two nested recognizers would be identical (same element, same
    /// depth, same first symbol), and every position between the earlier
    /// node and this one is skippable, so any accepting run through the
    /// later state maps to one through the earlier — the prune loses no
    /// acceptance and keeps long optional chains (`(t?, t?, …)`) from
    /// parking one request per slot for every symbol.
    fn park(
        &mut self,
        key: u32,
        node: DagNodeId,
        y: ElemId,
        xcol: u32,
        work: &mut Vec<Entry<'a>>,
    ) {
        let dominated = self
            .parked_round
            .iter()
            .any(|&(e, p)| e == y && (p == node || self.dag.follows(p, node)));
        if !dominated {
            self.parked_round.push((y, node));
            self.pending.push((key, node));
            self.sub_min = self.sub_min.min(key);
        }
        // The skip branch: successors this request dominates are pruned
        // by the hint table; everything else competes for this symbol.
        self.cascade_live(node, xcol, Some(y), work);
    }

    /// [`EcRecognizer::cascade`] guarded by the precomputed hint table:
    /// the walk is skipped when nothing in `node`'s forward closure can
    /// react to the symbol (column `xcol`) — or when the only possible
    /// reactions are elision requests for `dominator`, which dominance
    /// pruning would discard anyway. Long optional tails cost O(1) per
    /// symbol instead of a full walk.
    fn cascade_live(
        &mut self,
        node: DagNodeId,
        xcol: u32,
        dominator: Option<ElemId>,
        work: &mut Vec<Entry<'a>>,
    ) {
        if !self.ctx.dags.cascade_dead(self.elem, node, xcol, dominator) {
            self.cascade(node, work);
        }
    }

    /// Pushes `node`'s DAG successors as fresh same-symbol work (the
    /// cascading skip), deduplicated within the current generation.
    fn cascade(&mut self, node: DagNodeId, work: &mut Vec<Entry<'a>>) {
        let dag = self.dag;
        for &s in &dag.node(node).succs {
            if !self.cur[s as usize] {
                self.cur[s as usize] = true;
                work.push(Entry::fresh(s));
            }
        }
    }

    /// Activates `node`'s DAG successors for the *next* symbol (the node
    /// was consumed), deduplicated within the next generation.
    fn advance(&mut self, node: DagNodeId, advanced: &mut Vec<Entry<'a>>) {
        let dag = self.dag;
        for &s in &dag.node(node).succs {
            if !self.nxt[s as usize] {
                self.nxt[s as usize] = true;
                advanced.push(Entry::fresh(s));
            }
        }
    }

    /// Recomputes `sub_min` — the cheapest parked request anywhere in
    /// this subtree (`u32::MAX` = none), priced from this recognizer's
    /// vantage point: each nesting level adds 1, so a request's global
    /// price is its **accumulated elision cost** — elided ancestors
    /// already below the round's root plus `1 + md(y, x)` for the chain
    /// it would open. The agenda therefore orders hypotheses by the total
    /// number of elements the completion must insert, not merely by the
    /// local md distance — without the nesting surcharge, cheap-looking
    /// requests deep inside yesterday's speculation towers would flood
    /// the budget ahead of a shallow chain the document actually needs.
    /// Called after a `drive` step mutated this level; holders' caches
    /// are already correct bottom-up.
    fn refresh_sub_min(&mut self) {
        let mut min =
            self.pending.iter().map(|&(k, _)| k).min().unwrap_or(u32::MAX);
        for h in &self.holders {
            if let Some(sub) = &h.sub {
                min = min.min(sub.sub_min.saturating_add(1));
            }
        }
        self.sub_min = min;
    }

    /// Phase 2: the agenda driver. Opens parked requests in this subtree
    /// strictly cheapest-first (accumulated cost, see `sub_min`) for as
    /// long as the subtree's cheapest request is no costlier than `bound`
    /// — the best alternative anywhere *else* in the tree — and budget
    /// remains. Recursing with the runner-up as the child's bound yields
    /// exactly the global cheapest-first order without re-descending from
    /// the round root for every request; ties prefer the shallower
    /// request, then parking order — deterministic, which the memo-replay
    /// and parallel bit-identity guarantees rely on.
    fn drive(
        &mut self,
        x: ChildSym,
        stats: &mut RecognizerStats,
        budget: &mut u32,
        bound: u32,
    ) {
        while *budget > 0 {
            // Cheapest own request and runner-up among the rest.
            let mut own: Option<(usize, u32)> = None;
            let mut own2 = u32::MAX;
            for (i, &(k, _)) in self.pending.iter().enumerate() {
                match own {
                    Some((_, kb)) if kb <= k => own2 = own2.min(k),
                    _ => {
                        if let Some((_, kb)) = own {
                            own2 = own2.min(kb);
                        }
                        own = Some((i, k));
                    }
                }
            }
            // Cheapest holder subtree (+1 per nesting level) and runner-up.
            let mut deep: Option<(usize, u32)> = None;
            let mut deep2 = u32::MAX;
            for (i, h) in self.holders.iter().enumerate() {
                let k = h
                    .sub
                    .as_ref()
                    .map_or(u32::MAX, |s| s.sub_min.saturating_add(1));
                match deep {
                    Some((_, kb)) if kb <= k => deep2 = deep2.min(k),
                    _ => {
                        if let Some((_, kb)) = deep {
                            deep2 = deep2.min(kb);
                        }
                        deep = Some((i, k));
                    }
                }
            }
            let own_k = own.map_or(u32::MAX, |(_, k)| k);
            let deep_k = deep.map_or(u32::MAX, |(_, k)| k);
            let best = own_k.min(deep_k);
            if best == u32::MAX || best > bound {
                break; // agenda empty, or something elsewhere is cheaper
            }
            if own_k <= deep_k {
                let (i, _) = own.unwrap();
                // Everything the opened subtree must beat to keep going.
                let runner = own2.min(deep_k).min(bound);
                self.open_request(i, x, stats, budget, runner);
            } else {
                let (i, _) = deep.unwrap();
                let runner = deep2.min(own_k).min(bound);
                if let Some(sub) = &mut self.holders[i].sub {
                    sub.drive(x, stats, budget, runner.saturating_sub(1));
                }
            }
        }
        self.refresh_sub_min();
    }

    /// Opens the parked request at `pending[idx]`: builds the nested
    /// recognizer and feeds it `x`. The holder resolves in `finish_round`
    /// (or its own subtree requests resolve first via the agenda).
    fn open_request(
        &mut self,
        idx: usize,
        x: ChildSym,
        stats: &mut RecognizerStats,
        budget: &mut u32,
        bound: u32,
    ) {
        let (_, node) = self.pending.remove(idx);
        debug_assert!(*budget > 0);
        *budget -= 1;
        stats.subs_created += 1;
        let y = match &self.dag.node(node).kind {
            DagNodeKind::Simple(y) => *y,
            _ => unreachable!("only simple nodes park speculation requests"),
        };
        let mut sub = Box::new(EcRecognizer::new(self.ctx, y, self.depth - 1));
        if sub.begin_round(x, stats) {
            // Conclusive on its first symbol (the common case): resolve
            // the branch immediately instead of deferring to finish.
            if sub.matched {
                self.matched = true;
                let mut advanced = std::mem::take(&mut self.advanced);
                self.advance(node, &mut advanced);
                self.advanced = advanced;
                if !sub.is_complete() {
                    self.stayed.push(Entry { node, sub: Some(sub) });
                }
            }
            // else: the promised chain was budget-denied deeper down; the
            // skip branch already ran when the request parked.
            return;
        }
        // The chain continues inside the fresh subtree while it stays the
        // global cheapest (its costs sit one nesting level below ours).
        sub.drive(x, stats, budget, bound.saturating_sub(1));
        self.holders.push(Entry { node, sub: Some(sub) });
    }

    /// Phase 3: resolve unfinished nested recognizers bottom-up, drop
    /// denied requests, and rebuild the active list. Returns `true` iff
    /// some entry (or nested subtree) matched the symbol.
    fn finish_round(&mut self, stats: &mut RecognizerStats) -> bool {
        if self.dag.is_any {
            return self.matched;
        }
        // Requests still parked were denied by the budget; their skip
        // branches already ran in phase 1, so they simply evaporate — but
        // the round is no longer certified exact.
        stats.specs_denied += self.pending.len() as u64;
        self.pending.clear();
        self.parked_round.clear();
        self.sub_min = u32::MAX;
        let drained = std::mem::take(&mut self.active);
        let mut advanced = std::mem::take(&mut self.advanced);
        let mut stayed = std::mem::take(&mut self.stayed);
        let mut holders = std::mem::take(&mut self.holders);
        for mut entry in holders.drain(..) {
            let matched_sub = match &mut entry.sub {
                Some(sub) => sub.finish_round(stats),
                None => false,
            };
            if matched_sub {
                self.matched = true;
                // As in the inline path: the elided element may end after
                // this symbol (nullability), so advance unconditionally
                // and also stay while the nested recognizer can continue.
                self.advance(entry.node, &mut advanced);
                let complete = entry.sub.as_ref().is_some_and(|s| s.is_complete());
                if !complete {
                    stayed.push(entry);
                }
            }
            // else: the subtree failed (or was budget-denied); the skip
            // branch already competed for this symbol when the entry was
            // parked, so the entry just evaporates.
        }
        self.holders = holders; // drained; keeps its capacity
        self.merge_round(advanced, stayed, drained);
        self.matched
    }

    /// Figure 5's `recognize(x1 … xn)`, and the only multi-symbol entry
    /// point: feeds a whole run of sibling symbols in one call, returning
    /// the index of the first rejected symbol (`None` = every symbol
    /// accepted; symbols after a rejection are not fed). Runs compose:
    /// feeding a sequence in several consecutive calls is the same as
    /// feeding it in one.
    ///
    /// Observationally identical — verdicts, stopping point, and every
    /// [`RecognizerStats`] counter — to counting and feeding each symbol
    /// through [`EcRecognizer::validate`] (the contract
    /// `tests` pin exhaustively): the per-symbol budget bound is hoisted
    /// out of the loop (it depends only on the immutable context), and a
    /// round that `begin_round` resolves conclusively —
    /// the non-speculating common case — short-circuits the agenda
    /// driver and bottom-up resolution entirely, staying on the FIFO
    /// lane for the whole run. Only the transition cache calls it (see
    /// [`crate::memo`]): with each symbol a step misses on, and with the
    /// rest of a tree sequence whose configuration it does not intern
    /// (every sequence, with the memo off).
    pub fn advance_run(
        &mut self,
        syms: &[ChildSym],
        stats: &mut RecognizerStats,
    ) -> Option<usize> {
        let full = self.ctx.spec_budget();
        for (i, &x) in syms.iter().enumerate() {
            stats.symbols += 1;
            let accepted = if self.begin_round(x, stats) {
                self.matched
            } else {
                let mut budget = full;
                self.drive(x, stats, &mut budget, u32::MAX);
                self.finish_round(stats)
            };
            if !accepted {
                return Some(i);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_dtd::builtin::BuiltinDtd;
    use pv_dtd::DtdAnalysis;

    /// Runs one ECPV instance on symbolic children given by name ("σ" for
    /// character data).
    fn ecpv(analysis: &DtdAnalysis, elem: &str, children: &[&str], depth: u32) -> bool {
        let dags = DagSet::new(analysis);
        let syms: Vec<ChildSym> = children
            .iter()
            .map(|c| {
                if *c == "σ" {
                    ChildSym::Sigma
                } else {
                    ChildSym::Elem(analysis.id(c).unwrap_or_else(|| panic!("no element {c}")))
                }
            })
            .collect();
        let ctx = RecCtx::new(analysis, &dags);
        let mut stats = RecognizerStats::default();
        let elem = analysis.id(elem).unwrap();
        EcRecognizer::new(ctx, elem, depth).advance_run(&syms, &mut stats).is_none()
    }

    #[test]
    fn figure6_string_w_rejected() {
        // Example 1 / Figure 6(A): children b, e, c, σ of <a> — reject at
        // the search for c (step 5 of the figure).
        let analysis = BuiltinDtd::Figure1.analysis();
        assert!(!ecpv(&analysis, "a", &["b", "e", "c", "σ"], u32::MAX));
    }

    #[test]
    fn figure6_string_s_accepted() {
        // Example 1 / Figure 6(B): children b, c, σ, e of <a> — accept.
        let analysis = BuiltinDtd::Figure1.analysis();
        assert!(ecpv(&analysis, "a", &["b", "c", "σ", "e"], u32::MAX));
    }

    #[test]
    fn figure6_subrecognizer_count() {
        // Figure 6(A) creates nested recognizers for d and f while hunting
        // for e (steps 3–4).
        let analysis = BuiltinDtd::Figure1.analysis();
        let dags = DagSet::new(&analysis);
        let ctx = RecCtx::new(&analysis, &dags);
        let mut stats = RecognizerStats::default();
        let a = analysis.id("a").unwrap();
        let e = analysis.id("e").unwrap();
        let b = analysis.id("b").unwrap();
        let mut rec = EcRecognizer::new(ctx, a, u32::MAX);
        assert!(rec.validate(ChildSym::Elem(b), &mut stats));
        assert!(rec.validate(ChildSym::Elem(e), &mut stats));
        assert!(stats.subs_created >= 2, "expected d and f recognizers, got {stats:?}");
    }

    #[test]
    fn empty_content_rejects_any_child() {
        let analysis = BuiltinDtd::Figure1.analysis();
        assert!(!ecpv(&analysis, "e", &["σ"], u32::MAX));
        assert!(!ecpv(&analysis, "e", &["d"], u32::MAX));
        assert!(ecpv(&analysis, "e", &[], u32::MAX));
    }

    #[test]
    fn pcdata_only_accepts_one_sigma() {
        let analysis = BuiltinDtd::Figure1.analysis();
        assert!(ecpv(&analysis, "c", &["σ"], u32::MAX));
        assert!(ecpv(&analysis, "c", &[], u32::MAX));
        assert!(!ecpv(&analysis, "c", &["e"], u32::MAX));
    }

    #[test]
    fn mixed_content_interleaves() {
        let analysis = BuiltinDtd::Figure1.analysis();
        assert!(ecpv(&analysis, "d", &["σ", "e", "σ", "e", "e", "σ"], u32::MAX));
        assert!(!ecpv(&analysis, "d", &["f"], u32::MAX)); // f unreachable from {PCDATA,e}
    }

    #[test]
    fn plus_group_accepts_repeats_and_empty() {
        // r → (a+): group [a] absorbs any number of a's (and their
        // reachable descendants), and zero is fine (potential validity).
        let analysis = BuiltinDtd::Figure1.analysis();
        assert!(ecpv(&analysis, "r", &[], u32::MAX));
        assert!(ecpv(&analysis, "r", &["a", "a", "a"], u32::MAX));
        // b is reachable from a, so a's markup may still be missing.
        assert!(ecpv(&analysis, "r", &["b", "b"], u32::MAX));
        // …and σ is reachable through a → c.
        assert!(ecpv(&analysis, "r", &["σ"], u32::MAX));
    }

    #[test]
    fn example5_t1_terminates_with_bound() {
        // T1: a → (a | b*); input children b, b of <a>.
        // With an unbounded budget Figure 7 shows an infinite recognizer
        // chain; our Simple-node speculation is depth-gated, so any finite
        // budget terminates and accepts via the star-group branch.
        let analysis = BuiltinDtd::T1.analysis();
        for depth in [0, 1, 2, 8, 64] {
            assert!(ecpv(&analysis, "a", &["b", "b"], depth), "depth {depth}");
        }
    }

    #[test]
    fn example6_t2_needs_one_elision_step() {
        // T2: a → ((a | b), b); children b, b of <a> require speculating
        // one elided <a> (Example 6: "taking one recursive step is
        // absolutely necessary") — or matching (b, b) directly, which this
        // model also allows. The instance needing elision is b, b, b:
        // <a><a><b/><b/></a*elided*><b/></a> — wait, direct (b,b) covers
        // two; three b's force the elided inner a.
        // NOTE: an unbounded budget on this PV-strong DTD would recurse
        // forever (Example 5 / Figure 7) — always pass a finite bound.
        let analysis = BuiltinDtd::T2.analysis();
        assert!(ecpv(&analysis, "a", &["b", "b"], 8));
        assert!(ecpv(&analysis, "a", &["b", "b", "b"], 1));
        // Each extra pair of b's needs one more elision level:
        assert!(ecpv(&analysis, "a", &["b", "b", "b", "b"], 8));
        // With a zero budget, three b's cannot fit (a | b), b.
        assert!(!ecpv(&analysis, "a", &["b", "b", "b"], 0));
    }

    #[test]
    fn depth_monotonicity_on_strong_dtd() {
        let analysis = BuiltinDtd::T2.analysis();
        // A sequence of n b's fills ((a|b), b) with a chain of elided a's:
        // each level absorbs one trailing b, and the innermost level takes
        // two — so n b's need max(n-2, 0) elision levels.
        for n in 1..10usize {
            let children: Vec<&str> = vec!["b"; n];
            let needed = n.saturating_sub(2) as u32;
            assert!(ecpv(&analysis, "a", &children, needed), "n={n} at exact budget");
            if needed > 0 {
                assert!(!ecpv(&analysis, "a", &children, needed - 1), "n={n} below budget");
            }
        }
    }

    #[test]
    fn equality_not_allowed_after_commitment() {
        // Deviation test (see module docs): model x → (y), y → (c, c);
        // children c, y of <x> must be rejected — c cannot be moved inside
        // the explicit <y>.
        let analysis =
            DtdAnalysis::parse("<!ELEMENT x (y)><!ELEMENT y (c, c)><!ELEMENT c EMPTY>", "x")
                .unwrap();
        assert!(!ecpv(&analysis, "x", &["c", "y"], u32::MAX));
        // Whereas c, c (both inside an elided y) is fine…
        assert!(ecpv(&analysis, "x", &["c", "c"], u32::MAX));
        // …and y alone is the explicit encoding.
        assert!(ecpv(&analysis, "x", &["y"], u32::MAX));
    }

    #[test]
    fn nested_completion_advances_parent() {
        // x → (y, c); y → (c, e): children c, e, c — the first two commit
        // inside elided y, completing it; the final c matches the outer
        // slot.
        let analysis = DtdAnalysis::parse(
            "<!ELEMENT x (y, c)><!ELEMENT y (c, e)><!ELEMENT c EMPTY><!ELEMENT e EMPTY>",
            "x",
        )
        .unwrap();
        assert!(ecpv(&analysis, "x", &["c", "e", "c"], u32::MAX));
        assert!(ecpv(&analysis, "x", &["c", "c"], u32::MAX)); // e nullable
        assert!(!ecpv(&analysis, "x", &["e", "e"], u32::MAX)); // only one e slot
    }

    #[test]
    fn any_content_accepts_everything() {
        let analysis =
            DtdAnalysis::parse("<!ELEMENT x ANY><!ELEMENT q EMPTY>", "x").unwrap();
        assert!(ecpv(&analysis, "x", &["q", "σ", "q", "x", "σ"], 0));
    }

    #[test]
    fn sigma_descends_into_elided_elements() {
        // r → (a+) … σ under r must speculate a (and then c/d) elisions.
        let analysis = BuiltinDtd::Figure1.analysis();
        let dags = DagSet::new(&analysis);
        let ctx = RecCtx::new(&analysis, &dags);
        let mut stats = RecognizerStats::default();
        let r = analysis.id("r").unwrap();
        let mut rec = EcRecognizer::new(ctx, r, u32::MAX);
        assert!(rec.validate(ChildSym::Sigma, &mut stats));
        // Group matching needs no sub-recognizers (Proposition 2).
        assert_eq!(stats.subs_created, 0);
    }

    #[test]
    fn xhtml_nested_inline_accepts() {
        let analysis = BuiltinDtd::XhtmlBasic.analysis();
        // <p> children: σ b σ — trivially fine; i is reachable from b.
        assert!(ecpv(&analysis, "p", &["σ", "b", "σ", "i"], u32::MAX));
        // li cannot appear under p (not reachable from any inline member).
        assert!(!ecpv(&analysis, "p", &["li"], u32::MAX));
    }

    #[test]
    fn ordered_model_rejects_out_of_order() {
        let analysis = BuiltinDtd::XhtmlBasic.analysis();
        // html → (head, body): body before head is a hard violation.
        assert!(!ecpv(&analysis, "html", &["body", "head"], u32::MAX));
        assert!(ecpv(&analysis, "html", &["head", "body"], u32::MAX));
        assert!(ecpv(&analysis, "html", &["body"], u32::MAX)); // head elidable
        // title (inside head) then body: title commits into elided head.
        assert!(ecpv(&analysis, "html", &["title", "body"], u32::MAX));
        // but body then title is unfixable.
        assert!(!ecpv(&analysis, "html", &["body", "title"], u32::MAX));
    }

    /// Distilled gap (a) — **budget drain**, σ-tower flavour (the
    /// simplest instance the exhaustive k = 2 sweep surfaced): under
    /// `a → (a?, b)` with `b ANY`, a bare σ child of `a` must be accepted
    /// at any generous depth bound (completion `<a><b>σ</b></a>`). The
    /// pre-agenda scheduler followed the `a?`-speculation tower in DFS
    /// order and burned the whole shared budget before the cheaper
    /// `b`-elision — which only became visible behind the failure cascade
    /// — was ever tried, so it rejected at depth ≥ 33 while accepting at
    /// small depths (non-monotone). The global agenda prices the `b`
    /// chain cheaper (`1 + md(b, σ) = 1` vs `2`) and the eager skip
    /// branch makes it visible in the same round.
    #[test]
    fn regression_gap_a_sigma_tower_does_not_starve_cheap_chain() {
        let analysis =
            DtdAnalysis::parse("<!ELEMENT a (a?, b)><!ELEMENT b ANY>", "a").unwrap();
        for depth in [1, 8, 32, 48, 64, 256] {
            assert!(ecpv(&analysis, "a", &["σ"], depth), "depth {depth}");
            assert!(ecpv(&analysis, "a", &["σ", "b"], depth), "depth {depth}");
            assert!(ecpv(&analysis, "a", &["σ", "a", "b"], depth), "depth {depth}");
        }
    }

    /// The `corpus::recursive_analysis(depth, fanout)` family (fanout ≥
    /// 2), inlined because `pv-core` cannot depend on `pv-workload`:
    /// `depth` levels of `fanout` braided chains, a recursive re-entry at
    /// the middle level, mixed stars at the bottom.
    fn recursive_analysis(depth: usize, fanout: usize) -> DtdAnalysis {
        let mut src = String::new();
        for l in 0..depth {
            for j in 0..fanout {
                if l + 1 == depth {
                    src.push_str(&format!("<!ELEMENT x{l}_{j} (#PCDATA | x0_{j})*>"));
                } else {
                    let mut alts = vec![format!("x{}_{j}", l + 1)];
                    alts.push(format!("x{}_{}", l + 1, (j + 1) % fanout));
                    if l == depth / 2 {
                        alts.push(format!("x0_{j}"));
                    }
                    src.push_str(&format!("<!ELEMENT x{l}_{j} ({})>", alts.join(" | ")));
                }
            }
        }
        DtdAnalysis::parse(&src, "x0_0").unwrap()
    }

    /// Distilled gap (a) — **committed-sub budget drain on a k ≥ 32
    /// recursive DTD** (the `corpus::recursive(8, 4)` family shape,
    /// inlined here because `pv-core` cannot depend on `pv-workload`):
    /// 8 levels × 4 columns of braided chains, a recursive re-entry at
    /// the middle level, mixed stars at the bottom — `k = 32` pushes the
    /// per-symbol budget into its scaled regime. After `x1_0` commits a
    /// nested recognizer, absorbing a following `x0_0` needs an elision
    /// chain to the bottom star; the old scheduler ran the committed
    /// subtree's internal speculation ahead of it unconditionally and
    /// drained the budget, rejecting a potentially-valid sequence
    /// (completion: both children inside one elided chain's bottom star).
    #[test]
    fn regression_gap_a_committed_sub_drain_on_k32_recursive_dtd() {
        let analysis = recursive_analysis(8, 4);
        assert_eq!(analysis.stats.m, 32, "the regression requires k >= 32");
        assert!(ecpv(&analysis, "x0_0", &["x1_0", "x0_0"], 64));
        assert!(ecpv(&analysis, "x0_0", &["x1_0", "x1_0"], 64));
        assert!(ecpv(&analysis, "x0_0", &["x1_0", "σ"], 64));
        // Soundness pin: with a zero elision budget there is no chain to
        // the bottom star, so the same sequence must still reject.
        assert!(!ecpv(&analysis, "x0_0", &["x1_0", "x0_0"], 0));
    }

    /// Distilled gap (b) — the **equality/elision branch point**: a fresh
    /// simple node for `y` seeing `x = y` when `md(y, y)` is finite used
    /// to *commit* to the elision (nesting the explicit element inside a
    /// speculative one) and discard the equality parse. Under
    /// `a → (b, a?)`, `b → (a?)`, the sequence `b, a, a` needs **both**
    /// branches across rounds: the explicit `a` equality-consumes the
    /// `a?` slot in one surviving parse state while the elision branch
    /// (an inserted `<a>` wrapping `<b><a/></b><a/>`) carries the other;
    /// committing to either alone rejects. Likewise `<a><a>t</a>t</a>`
    /// (document level) rejects under commitment but completes as
    /// `<a><a><b>t</b></a><b>t</b></a>`.
    #[test]
    fn regression_gap_b_equality_elision_branch_point() {
        let analysis =
            DtdAnalysis::parse("<!ELEMENT a (b, a?)><!ELEMENT b (a?)>", "a").unwrap();
        assert!(ecpv(&analysis, "a", &["b", "a", "a"], 64));
        assert!(ecpv(&analysis, "a", &["b", "a", "b"], 64));
        // Document-level composition of both gap classes (fails before
        // the agenda, passes after): checked via the checker to exercise
        // the full per-node pipeline.
        let analysis =
            DtdAnalysis::parse("<!ELEMENT a (a?, b)><!ELEMENT b ANY>", "a").unwrap();
        let checker = crate::engine::CheckEngine::with_policy(
            analysis,
            crate::depth::DepthPolicy::Bounded(64),
        );
        for xml in ["<a><a>t</a>t</a>", "<a><a>t</a><b/>t</a>", "<a>t</a>"] {
            let doc = pv_xml::parse(xml).unwrap();
            let out = checker.check_document(&doc);
            assert!(out.is_potentially_valid(), "{xml}: {:?}", out.violation);
        }
    }

    /// Budget-exactness telemetry: on every round the sweeps certify, the
    /// agenda must report zero denied requests — the counter the
    /// completeness story leans on (`specs_denied == 0` ⇒ the verdict is
    /// budget-independent).
    #[test]
    fn specs_denied_zero_on_small_spaces() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let dags = DagSet::new(&analysis);
        let ctx = RecCtx::new(&analysis, &dags);
        let mut stats = RecognizerStats::default();
        let a = analysis.id("a").unwrap();
        let b = analysis.id("b").unwrap();
        let mut rec = EcRecognizer::new(ctx, a, u32::MAX);
        rec.advance_run(&[ChildSym::Elem(b), ChildSym::Sigma, ChildSym::Elem(b)], &mut stats);
        assert_eq!(stats.specs_denied, 0, "{stats:?}");
    }

    /// Feeds `syms` one at a time through `validate`, counting each fed
    /// symbol, and returns the first rejected index — the per-symbol
    /// reference `advance_run` is held to.
    fn repeated_validate(
        rec: &mut EcRecognizer<'_>,
        syms: &[ChildSym],
        stats: &mut RecognizerStats,
    ) -> Option<usize> {
        for (i, &x) in syms.iter().enumerate() {
            stats.symbols += 1;
            if !rec.validate(x, stats) {
                return Some(i);
            }
        }
        None
    }

    /// `advance_run` contract: identical stopping point *and* identical
    /// stats to repeated `validate`, over every symbol sequence of
    /// bounded length for several parents across the builtin DTDs —
    /// including sequences that reject mid-run and runs fed in several
    /// consecutive `advance_run` calls.
    #[test]
    fn advance_run_matches_repeated_validate() {
        for (builtin, parents, depth) in [
            (BuiltinDtd::Figure1, &["a", "r", "d", "c", "e"][..], u32::MAX),
            (BuiltinDtd::T2, &["a", "b"][..], 8),
            (BuiltinDtd::XhtmlBasic, &["html", "p"][..], 16),
        ] {
            let analysis = builtin.analysis();
            let dags = DagSet::new(&analysis);
            let ctx = RecCtx::new(&analysis, &dags);
            let mut alphabet = vec![ChildSym::Sigma];
            alphabet.extend(
                ["a", "b", "c", "e", "body", "li"]
                    .iter()
                    .filter_map(|n| analysis.id(n).map(ChildSym::Elem)),
            );
            // Every sequence of length <= 3 over the alphabet, as base-N
            // counters.
            for len in 0..=3usize {
                for mut code in 0..alphabet.len().pow(len as u32) {
                    let mut syms = Vec::with_capacity(len);
                    for _ in 0..len {
                        syms.push(alphabet[code % alphabet.len()]);
                        code /= alphabet.len();
                    }
                    for parent in parents {
                        let e = analysis.id(parent).unwrap();
                        let mut batch_stats = RecognizerStats::default();
                        let mut step_stats = RecognizerStats::default();
                        let mut batch = EcRecognizer::new(ctx, e, depth);
                        let mut step = EcRecognizer::new(ctx, e, depth);
                        let got = batch.advance_run(&syms, &mut batch_stats);
                        let expect = repeated_validate(&mut step, &syms, &mut step_stats);
                        assert_eq!(got, expect, "{parent}: {syms:?}");
                        assert_eq!(batch_stats, step_stats, "{parent}: {syms:?}");
                        // Split runs compose: feeding the same accepted
                        // sequence as two consecutive runs is the same
                        // as one.
                        if expect.is_none() && !syms.is_empty() {
                            let mut split_stats = RecognizerStats::default();
                            let mut split = EcRecognizer::new(ctx, e, depth);
                            let mid = syms.len() / 2;
                            assert_eq!(
                                split.advance_run(&syms[..mid], &mut split_stats),
                                None
                            );
                            assert_eq!(
                                split.advance_run(&syms[mid..], &mut split_stats),
                                None,
                                "{parent}: {syms:?} split at {mid}"
                            );
                            assert_eq!(split_stats, batch_stats, "{parent}: {syms:?}");
                        }
                    }
                }
            }
        }
    }

    /// `encode`/`load` contract: a recognizer encoded after every symbol
    /// and loaded into a fresh recognizer (built for another element and
    /// budget, so `load` must re-arm it whole) answers every symbol as
    /// the uninterrupted recognizer does — the same verdict and the same
    /// [`RecognizerStats`], symbol by symbol. Seeded random sequences are
    /// drawn mostly from what each parent can reach (so runs get long and
    /// open nested recognizers) and fed until a rejection, for every
    /// element of every builtin DTD and of two `corpus::recursive`
    /// families.
    #[test]
    fn encode_load_round_trip_matches_uninterrupted_run() {
        let mut analyses: Vec<(String, DtdAnalysis)> =
            BuiltinDtd::ALL.iter().map(|b| (b.name().to_owned(), b.analysis())).collect();
        for (depth, fanout) in [(4, 2), (6, 3)] {
            analyses
                .push((format!("recursive({depth},{fanout})"), recursive_analysis(depth, fanout)));
        }
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n as u64) as usize
        };
        let (mut steps, mut nested) = (0usize, 0usize);
        for (name, analysis) in &analyses {
            let dags = DagSet::new(analysis);
            let ctx = RecCtx::new(analysis, &dags);
            let budget = crate::depth::DepthPolicy::Auto.resolve(analysis);
            let elems: Vec<ElemId> = analysis.dtd.ids().collect();
            for &parent in &elems {
                let mut reachable = vec![ChildSym::Sigma];
                reachable.extend(
                    elems
                        .iter()
                        .filter(|&&y| analysis.reach.reaches(parent, y))
                        .map(|&y| ChildSym::Elem(y)),
                );
                for _ in 0..4 {
                    let mut whole = EcRecognizer::new(ctx, parent, budget);
                    let mut words = Vec::new();
                    assert!(whole.encode(&mut words, usize::MAX));
                    for i in 0..24 {
                        let x = if next(8) == 0 {
                            ChildSym::Elem(elems[next(elems.len())])
                        } else {
                            reachable[next(reachable.len())]
                        };
                        let other = elems[next(elems.len())];
                        let mut resumed = EcRecognizer::new(ctx, other, 3);
                        resumed.load(&words);
                        let mut again = Vec::new();
                        assert!(resumed.encode(&mut again, usize::MAX));
                        assert_eq!(again, words, "{name}: load/encode is not the identity");
                        nested += usize::from(resumed.active.iter().any(|e| e.sub.is_some()));
                        let (mut a, mut b) =
                            (RecognizerStats::default(), RecognizerStats::default());
                        let got = whole.advance_run(&[x], &mut a);
                        let expect = resumed.advance_run(&[x], &mut b);
                        assert_eq!(got, expect, "{name}: verdict at symbol {i} ({x:?})");
                        assert_eq!(a, b, "{name}: stats at symbol {i} ({x:?})");
                        steps += 1;
                        if got.is_some() {
                            break;
                        }
                        words.clear();
                        assert!(resumed.encode(&mut words, usize::MAX));
                    }
                }
            }
        }
        assert!(steps > 5_000 && nested > 1_000, "{steps} steps, {nested} with nested recognizers");

        // Figure 1's `a` over `b, e` (figure6_subrecognizer_count) leaves
        // a committed nested recognizer active; it survives the round trip.
        let analysis = BuiltinDtd::Figure1.analysis();
        let dags = DagSet::new(&analysis);
        let ctx = RecCtx::new(&analysis, &dags);
        let id = |n: &str| analysis.id(n).unwrap();
        let mut whole = EcRecognizer::new(ctx, id("a"), u32::MAX);
        let mut stats = RecognizerStats::default();
        let b_e = [ChildSym::Elem(id("b")), ChildSym::Elem(id("e"))];
        assert_eq!(whole.advance_run(&b_e, &mut stats), None);
        let mut words = Vec::new();
        assert!(whole.encode(&mut words, usize::MAX));
        let mut resumed = EcRecognizer::new(ctx, id("r"), u32::MAX);
        resumed.load(&words);
        assert!(resumed.active.iter().any(|e| e.sub.is_some()), "a nested recognizer is active");
        for x in [ChildSym::Sigma, ChildSym::Elem(id("e")), ChildSym::Elem(id("c"))] {
            let (mut a, mut b) = (RecognizerStats::default(), RecognizerStats::default());
            assert_eq!(whole.advance_run(&[x], &mut a), resumed.advance_run(&[x], &mut b));
            assert_eq!(a, b, "{x:?}");
        }
    }

    /// `encode` gives up past its word cap instead of writing on.
    #[test]
    fn encode_stops_at_the_word_cap() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let dags = DagSet::new(&analysis);
        let ctx = RecCtx::new(&analysis, &dags);
        let rec = EcRecognizer::new(ctx, analysis.id("a").unwrap(), u32::MAX);
        let mut words = Vec::new();
        assert!(rec.encode(&mut words, usize::MAX));
        let len = words.len();
        words.clear();
        assert!(rec.encode(&mut words, len));
        words.clear();
        assert!(!rec.encode(&mut words, len - 1));
        assert!(words.len() <= len);
    }

    #[test]
    fn stats_accumulate() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let dags = DagSet::new(&analysis);
        let ctx = RecCtx::new(&analysis, &dags);
        let mut stats = RecognizerStats::default();
        let a = analysis.id("a").unwrap();
        let b = analysis.id("b").unwrap();
        let mut rec = EcRecognizer::new(ctx, a, u32::MAX);
        rec.advance_run(&[ChildSym::Elem(b), ChildSym::Sigma], &mut stats);
        assert_eq!(stats.symbols, 2);
        assert!(stats.node_visits >= 2);
    }
}
