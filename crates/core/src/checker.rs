//! Whole-document potential validity: **Problem PV** (paper Section 3).
//!
//! Solved exactly as the paper prescribes (Section 4): run the element
//! content recognizer (Problem ECPV) at **every** element node of the
//! document, over the `Δ_T` child-symbol view of that node. A document is
//! potentially valid iff its root carries the designated root element type
//! and every node's content is potentially valid.

use crate::dag::DagSet;
use crate::depth::DepthPolicy;
use crate::memo::{MemoStats, MemoVerdict, ShapeCache};
use crate::recognizer::{EcRecognizer, RecBuffers, RecCtx, RecognizerStats};
use crate::token::{ChildSym, NameTable, Tokens};
use pv_dtd::DtdAnalysis;
use pv_xml::{Document, NodeId};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

/// Reusable per-scan buffers for the checker's per-node hot path: one
/// recognizer (re-armed per node via [`EcRecognizer::reset`]) and one
/// child-symbol buffer (refilled per node via
/// [`Tokens::children_into`]), so checking a node allocates nothing in
/// steady state. Create one per document scan — or one per parallel
/// worker — with [`PvChecker::scratch`]; the sequential and batch entry
/// points do so internally.
pub struct CheckScratch<'s> {
    rec: EcRecognizer<'s>,
    syms: Vec<ChildSym>,
}

impl CheckScratch<'_> {
    /// Retires this scratch into a lifetime-free [`ScratchStash`] whose
    /// buffer capacities a later scan — possibly against a *different*
    /// checker — can adopt via [`PvChecker::scratch_from`]. This is how a
    /// persistent pool worker keeps its scratch warm across parallel
    /// regions: the scratch itself borrows the checker and cannot leave
    /// the region, but its plain-data buffers can.
    pub fn into_stash(mut self) -> ScratchStash {
        self.syms.clear();
        ScratchStash { syms: self.syms, rec: self.rec.into_buffers() }
    }
}

/// Lifetime-free recycled checker buffers (see
/// [`CheckScratch::into_stash`]). Carries no verdict state — only heap
/// capacities — so adopting a stash can never influence an outcome.
#[derive(Default)]
pub struct ScratchStash {
    syms: Vec<ChildSym>,
    rec: RecBuffers,
}

/// A reusable potential-validity checker for one compiled DTD.
///
/// Construction compiles the per-element DAGs once (`O(k)`); each document
/// check is then `O(k·D·n)` (Theorem 4), linear in the document for a fixed
/// DTD.
///
/// ## Shape memoization
///
/// The checker carries a [`ShapeCache`] (on by default): every ECPV run is
/// keyed by `(element type, child-symbol shape)` and repeated shapes are
/// answered from the cache with their recorded stats delta replayed, so
/// outcomes — verdict, failing node/index/symbol, *and every counter* —
/// are bit-identical with the memo on or off (`tests/memo_differential.rs`
/// enforces this). Repetitive document-centric corpora drop from a
/// recognizer walk per node to a hash lookup per node; see
/// [`crate::memo`] for the sharding and capacity rules. Disable with
/// [`PvChecker::set_memo_enabled`] (the `pvx check --no-memo` path).
pub struct PvChecker<'a> {
    analysis: &'a DtdAnalysis,
    /// Shared (`Arc`) so a resident engine can hand pre-compiled DAGs to
    /// per-request checker views without re-deriving them — see
    /// [`crate::engine::CheckEngine`]. Plain construction pays one extra
    /// allocation, nothing else.
    dags: Arc<DagSet>,
    depth: u32,
    /// Per-symbol speculation budget. Resolved at construction: the
    /// statically certified budget when [`pv_dtd::budget::certify`]
    /// produces one, the full default otherwise. Certificates only
    /// shrink the budget, never change verdicts —
    /// `tests/analyze_soundness.rs` proves the bit-identity.
    spec_budget: u32,
    /// Shared for the same reason: a warm cache outliving any one checker
    /// view is the service's per-DTD state.
    memo: Option<Arc<ShapeCache>>,
}

impl<'a> PvChecker<'a> {
    /// Builds a checker with the default (automatic) depth policy.
    pub fn new(analysis: &'a DtdAnalysis) -> Self {
        Self::with_policy(analysis, DepthPolicy::Auto)
    }

    /// Builds a checker with an explicit depth policy. Runs the static
    /// budget certifier and adopts its (possibly reduced) budget.
    pub fn with_policy(analysis: &'a DtdAnalysis, policy: DepthPolicy) -> Self {
        PvChecker {
            analysis,
            dags: Arc::new(DagSet::new(analysis)),
            depth: policy.resolve(analysis),
            spec_budget: pv_dtd::budget::certify(analysis).applied_budget(),
            memo: Some(Arc::new(ShapeCache::new())),
        }
    }

    /// A checker view over pre-compiled shared parts (the engine's
    /// per-request path: no DAG compilation, no re-certification, the
    /// warm shape cache is the shared one). Outcomes are identical to a
    /// freshly built checker's.
    pub(crate) fn from_shared(
        analysis: &'a DtdAnalysis,
        dags: Arc<DagSet>,
        memo: Option<Arc<ShapeCache>>,
        depth: u32,
        spec_budget: u32,
    ) -> Self {
        PvChecker { analysis, dags, depth, spec_budget, memo }
    }

    /// The per-symbol speculation budget in effect.
    #[inline]
    pub fn spec_budget(&self) -> u32 {
        self.spec_budget
    }

    /// Overrides the speculation budget (differential tests and
    /// benchmarks force the full default to compare against a certified
    /// run). Raising the budget above the default never changes verdicts;
    /// lowering it below a certified bound may deny speculation
    /// (`specs_denied > 0`) — exactly what the soundness suite measures.
    pub fn set_spec_budget(&mut self, budget: u32) {
        self.spec_budget = budget;
    }

    /// Enables or disables shape memoization. Turning it off drops the
    /// cache; turning it back on starts cold. Outcomes are identical
    /// either way — this is purely a time/space knob.
    pub fn set_memo_enabled(&mut self, enabled: bool) {
        match (enabled, self.memo.is_some()) {
            (true, false) => self.memo = Some(Arc::new(ShapeCache::new())),
            (false, true) => self.memo = None,
            _ => {}
        }
    }

    /// `true` while shape memoization is active.
    #[inline]
    pub fn memo_enabled(&self) -> bool {
        self.memo.is_some()
    }

    /// Replaces the memo with a fresh cache bounded to roughly `entries`
    /// verdicts (the capacity divides over the cache's shards; a full
    /// shard flushes rather than grows — see [`crate::memo`]).
    pub fn set_memo_capacity(&mut self, entries: usize) {
        self.memo = Some(Arc::new(ShapeCache::with_capacity(entries)));
    }

    /// Telemetry snapshot of the shape cache, or `None` when memoization
    /// is disabled. Hit/miss counts are scheduling-dependent under
    /// parallel checking (see [`MemoStats`]); outcomes never are.
    pub fn memo_stats(&self) -> Option<MemoStats> {
        self.memo.as_ref().map(|m| m.stats())
    }

    /// Drops every cached verdict (telemetry counters survive). Used by
    /// benchmarks to measure cold-cache behaviour.
    pub fn memo_clear(&self) {
        if let Some(m) = &self.memo {
            m.clear();
        }
    }

    /// Builds a per-scan scratch (recognizer + symbol buffer) borrowing
    /// this checker's DAGs. The recognizer context is created here — once
    /// per scan or per parallel worker, not once per node.
    pub fn scratch(&self) -> CheckScratch<'_> {
        CheckScratch {
            rec: EcRecognizer::new(self.rec_ctx(), self.analysis.root, self.depth),
            syms: Vec::new(),
        }
    }

    /// [`PvChecker::scratch`] adopting the buffer capacities of a retired
    /// stash (see [`CheckScratch::into_stash`]). The stash carries no
    /// verdict state, so the scratch behaves exactly like a fresh one.
    pub fn scratch_from(&self, stash: ScratchStash) -> CheckScratch<'_> {
        CheckScratch {
            rec: EcRecognizer::with_buffers(
                self.rec_ctx(),
                self.analysis.root,
                self.depth,
                stash.rec,
            ),
            syms: stash.syms,
        }
    }

    /// The recognizer context every execution path of this checker uses:
    /// shared DAGs, reachability, and the resolved speculation budget.
    /// Single construction point so local, parallel, streaming, and
    /// suggestion paths can never disagree on the budget.
    pub fn rec_ctx(&self) -> RecCtx<'_> {
        RecCtx::with_budget(self.analysis, &self.dags, self.spec_budget)
    }

    /// The compiled DTD this checker runs against.
    #[inline]
    pub fn analysis(&self) -> &'a DtdAnalysis {
        self.analysis
    }

    /// The per-element DAGs (exposed for the incremental layer and tests).
    #[inline]
    pub fn dags(&self) -> &DagSet {
        &self.dags
    }

    /// The resolved elision budget per ECPV instance.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Documents below this many element nodes are always checked
    /// sequentially, whatever `jobs` says: the scoped parallel region's
    /// setup (~100 µs of thread spawning) outweighs per-node recognizer
    /// work by orders of magnitude at this size. 512 nodes × ~100 ns/node
    /// ≈ 50 µs of useful work is a conservative break-even floor;
    /// `experiments --table parallel` prints both regimes.
    pub const PARALLEL_MIN_NODES: usize = 512;

    /// Definition 3's root condition `root(w) = r`, shared verbatim by the
    /// sequential, parallel, and pooled document checks (the bit-identity
    /// guarantee between them depends on all using exactly this).
    pub(crate) fn check_root(&self, doc: &Document) -> Option<PvViolation> {
        let root_name = doc.name(doc.root()).unwrap_or("");
        if self.analysis.id(root_name) != Some(self.analysis.root) {
            return Some(PvViolation {
                node: doc.root(),
                kind: PvViolationKind::RootMismatch {
                    found: root_name.to_owned(),
                    expected: self.analysis.name(self.analysis.root).to_owned(),
                },
            });
        }
        None
    }

    /// Checks Problem PV for the whole document.
    pub fn check_document(&self, doc: &Document) -> PvOutcome {
        let mut scratch = self.scratch();
        self.check_document_with(doc, &mut scratch)
    }

    /// [`PvChecker::check_document`] with a caller-provided scratch, for
    /// drivers scanning many documents that want to reuse the buffers
    /// (the batch checker's workers do).
    pub fn check_document_with(&self, doc: &Document, scratch: &mut CheckScratch<'_>) -> PvOutcome {
        // Root element type must match r.
        if let Some(v) = self.check_root(doc) {
            return PvOutcome { violation: Some(v), stats: RecognizerStats::default() };
        }
        self.check_elements(doc, scratch)
    }

    /// Every element's ECPV instance in document order, stopping at the
    /// first violation (the root check is the caller's).
    fn check_elements(&self, doc: &Document, scratch: &mut CheckScratch<'_>) -> PvOutcome {
        let names = NameTable::new(doc, &self.analysis.dtd);
        let mut stats = RecognizerStats::default();
        for node in doc.elements() {
            if let Some(v) = self.check_node_with(doc, node, Some(&names), &mut stats, scratch) {
                return PvOutcome { violation: Some(v), stats };
            }
        }
        PvOutcome { violation: None, stats }
    }

    /// Checks Problem PV with per-element-node recognizer runs sharded
    /// over `jobs` worker threads (`0` = one per available CPU).
    ///
    /// Element nodes are independent ECPV instances (paper Section 4), so
    /// they are distributed over a work-stealing pool ([`pv_par`]) and the
    /// per-node results are **reduced in document order**: the returned
    /// [`PvOutcome`] — the violation (first failing node in document
    /// order, same node, same symbol index) *and* the work counters — is
    /// bit-identical to [`PvChecker::check_document`]'s, regardless of
    /// worker count or scheduling. Counter identity holds because
    /// sequential stats are a prefix sum of per-node stats and
    /// [`RecognizerStats::merge`] is commutative: the reduction folds
    /// exactly the nodes the sequential checker would have visited.
    ///
    /// On an already-failing document, workers that observe a known
    /// violation skip nodes *after* it (the known first-failure index only
    /// ever moves earlier, so no node at or before the final first failure
    /// is ever skipped); a potentially valid document gets no such
    /// shortcut and every node is checked, just as sequentially.
    ///
    /// The streaming checker ([`PvChecker::stream_checker`]) shares this
    /// contract from the other direction: where the parallel path pays a
    /// `fetch_min` race so concurrently-found violations agree on the
    /// document-order-first one, the streaming path's candidate protocol
    /// only ever *replaces* its frozen violation with a preorder-earlier
    /// one, converging on the same node. All three checkers — sequential
    /// stop-at-first, parallel `fetch_min`, streaming candidate — report
    /// the identical violation (node, kind, symbol index) and counters;
    /// `tests/stream_differential.rs` asserts exactly this
    /// (`early_exit_reports_the_same_violation_everywhere`).
    ///
    /// `jobs <= 1` delegates to the sequential checker outright, as does
    /// any document below [`PvChecker::PARALLEL_MIN_NODES`] element nodes:
    /// spinning up a parallel region costs on the order of 100 µs, which
    /// dominates small documents completely, so `--jobs 0`/auto only
    /// shards when the per-node work can plausibly amortize it (the
    /// threshold is visible in `experiments --table parallel`). The
    /// outcome is bit-identical either way.
    pub fn check_document_parallel(&self, doc: &Document, jobs: usize) -> PvOutcome {
        let jobs = pv_par::effective_jobs(jobs);
        if jobs <= 1 || doc.element_count() < Self::PARALLEL_MIN_NODES {
            return self.check_document(doc);
        }
        // Root check first, exactly as in the sequential path.
        if let Some(v) = self.check_root(doc) {
            return PvOutcome { violation: Some(v), stats: RecognizerStats::default() };
        }
        let nodes: Vec<NodeId> = doc.elements().collect();
        let names = NameTable::new(doc, &self.analysis.dtd);
        // Earliest node index known to carry a violation; only ever
        // decreases, so nodes at or before the final minimum are never
        // pruned and their per-node results are always computed.
        let first_bad = AtomicUsize::new(usize::MAX);
        // Workers carry a per-worker scratch (recognizer buffers) and share
        // this checker's shape cache by reference: the cache is sharded and
        // read-mostly, and a hit replays the recorded stats delta, so the
        // reduction below stays bit-identical to the sequential checker
        // whether a node's verdict was computed or cached.
        let per_node = pv_par::map_indexed_with(
            jobs,
            nodes.len(),
            || self.scratch(),
            |scratch, i| {
                if i > first_bad.load(Ordering::Relaxed) {
                    return None; // after a known violation: result unreachable
                }
                let mut stats = RecognizerStats::default();
                let violation =
                    self.check_node_with(doc, nodes[i], Some(&names), &mut stats, scratch);
                if violation.is_some() {
                    first_bad.fetch_min(i, Ordering::Relaxed);
                }
                Some((violation, stats))
            },
        );
        // Deterministic reduction in document order.
        reduce_node_results(per_node)
    }

    /// Checks a batch of documents against this DTD on `jobs` worker
    /// threads (`0` = one per available CPU), returning one outcome per
    /// document in input order — outcome `i` is bit-identical to
    /// `check_document(&docs[i])`.
    ///
    /// Scheduling is **two-level** ([`pv_par::map_grouped_with`]): whole
    /// documents are stolen first (the right granularity while documents
    /// outnumber idle workers — a worker scans its documents' nodes
    /// in order, cache-local), and a worker that finds no untouched
    /// document left *joins* the started document with the most nodes
    /// remaining, claiming chunks of its node range. Only documents big
    /// enough to bottleneck the batch are node-granular (joinable) at
    /// all — larger than `max(`[`PvChecker::PARALLEL_MIN_NODES`]`,
    /// total/4·workers)` nodes; the rest run as single whole-document
    /// tasks with zero per-node scheduling overhead. A batch mixing one giant document with many small ones
    /// therefore pipelines instead of serializing on the giant one.
    ///
    /// Bit-identity holds for the same reason as in
    /// [`PvChecker::check_document_parallel`]: per-node results are
    /// reduced per document in document order, nodes after a document's
    /// known first violation are pruned (never any node at or before it),
    /// and the stats merge is commutative.
    pub fn check_batch(&self, docs: &[Document], jobs: usize) -> Vec<PvOutcome> {
        if pv_par::effective_jobs(jobs) <= 1 {
            let mut scratch = self.scratch();
            return docs.iter().map(|d| self.check_document_with(d, &mut scratch)).collect();
        }
        // Per-document plan: the root check happens up front (it is one
        // string comparison), leaving only per-node ECPV work to shard.
        // Most documents stay **one task each** — whole-document
        // granularity has no per-node sharding overhead, and splitting a
        // document that checks in microseconds buys nothing. Only
        // documents big enough to bottleneck the batch become
        // node-granular groups idle workers can join into.
        let workers = pv_par::effective_jobs(jobs);
        let total_nodes: usize = docs.iter().map(Document::element_count).sum();
        let split = Self::batch_split_threshold(workers, total_nodes);
        let plans: Vec<BatchPlan> = docs.iter().map(|d| self.plan_document(d, split)).collect();
        let sizes: Vec<usize> = plans.iter().map(BatchPlan::task_count).collect();
        let first_bad: Vec<AtomicUsize> =
            docs.iter().map(|_| AtomicUsize::new(usize::MAX)).collect();
        let per_doc = pv_par::map_grouped_with(
            jobs,
            &sizes,
            || self.scratch(),
            |scratch, g, i| {
                self.run_batch_task(&docs[g], &plans[g], &first_bad[g], i, scratch)
            },
        );
        plans.iter().zip(per_doc).map(|(plan, results)| plan.reduce(results)).collect()
    }

    /// The node count above which a batch document becomes a joinable
    /// node-granular group instead of one whole-document task. Splitting
    /// costs per-node scheduling overhead, so it is only worth paying for
    /// documents that could actually bottleneck the region: larger than
    /// the absolute parallel threshold **and** large relative to the
    /// batch (a document holding less than a quarter of one worker's
    /// average share can never leave the other workers idle long —
    /// whole-document stealing balances it fine).
    pub(crate) fn batch_split_threshold(workers: usize, total_nodes: usize) -> usize {
        Self::PARALLEL_MIN_NODES.max(total_nodes / (4 * workers.max(1)))
    }

    /// How one batch document is scheduled (see [`PvChecker::check_batch`]).
    pub(crate) fn plan_document(&self, doc: &Document, split_threshold: usize) -> BatchPlan {
        match self.check_root(doc) {
            Some(v) => BatchPlan::RootFailed(v),
            None if doc.element_count() < split_threshold => BatchPlan::Whole,
            None => {
                let names = NameTable::new(doc, &self.analysis.dtd);
                BatchPlan::PerNode(doc.elements().collect(), names)
            }
        }
    }

    /// One scheduled task of a batch region: either the whole document
    /// (small documents) or one node (joinable large documents).
    pub(crate) fn run_batch_task(
        &self,
        doc: &Document,
        plan: &BatchPlan,
        first_bad: &AtomicUsize,
        i: usize,
        scratch: &mut CheckScratch<'_>,
    ) -> Option<(Option<PvViolation>, RecognizerStats)> {
        match plan {
            BatchPlan::RootFailed(_) => unreachable!("root-failed documents have no tasks"),
            BatchPlan::Whole => {
                debug_assert_eq!(i, 0);
                let outcome = self.check_elements(doc, scratch);
                Some((outcome.violation, outcome.stats))
            }
            BatchPlan::PerNode(nodes, names) => {
                if i > first_bad.load(Ordering::Relaxed) {
                    return None; // after a known violation in this doc
                }
                let mut stats = RecognizerStats::default();
                let violation =
                    self.check_node_with(doc, nodes[i], Some(names), &mut stats, scratch);
                if violation.is_some() {
                    first_bad.fetch_min(i, Ordering::Relaxed);
                }
                Some((violation, stats))
            }
        }
    }

    /// Checks Problem ECPV for a single node's content (used by the
    /// incremental layer after markup edits).
    pub fn check_node(
        &self,
        doc: &Document,
        node: NodeId,
        stats: &mut RecognizerStats,
    ) -> Option<PvViolation> {
        let mut scratch = self.scratch();
        self.check_node_with(doc, node, None, stats, &mut scratch)
    }

    /// [`PvChecker::check_node`] against a reusable scratch — the per-node
    /// body of every document scan. Names resolve through `names`, the
    /// document's resolved name table, when the caller built one for a
    /// whole-document check; with `None` (single-node guards) each name
    /// is looked up in the DTD. The hot path performs no allocation: the
    /// child-symbol buffer is refilled in place, a memo hit replays the
    /// cached stats delta, and a miss re-arms the scratch recognizer.
    pub(crate) fn check_node_with(
        &self,
        doc: &Document,
        node: NodeId,
        names: Option<&NameTable>,
        stats: &mut RecognizerStats,
        scratch: &mut CheckScratch<'_>,
    ) -> Option<PvViolation> {
        let elem = doc.name_id(node).and_then(|n| match names {
            Some(table) => table.elem(n),
            None => self.analysis.id(doc.name_of(n)),
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
            None => Tokens::children_into(doc, node, &self.analysis.dtd, &mut syms),
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
        elem: pv_dtd::ElemId,
        syms: &[ChildSym],
        stats: &mut RecognizerStats,
    ) -> Option<(usize, String)> {
        let mut scratch = self.scratch();
        self.check_symbols_with(elem, syms, stats, &mut scratch)
    }

    /// [`PvChecker::check_symbols`] against a reusable scratch, memoized
    /// by `(elem, shape)` when the shape cache is on. The violation's
    /// display string is re-rendered from `syms` on a hit (the failing
    /// *index* is shape-intrinsic, so it caches; the string is not stored).
    pub fn check_symbols_with(
        &self,
        elem: pv_dtd::ElemId,
        syms: &[ChildSym],
        stats: &mut RecognizerStats,
        scratch: &mut CheckScratch<'_>,
    ) -> Option<(usize, String)> {
        // Childless content is trivially potentially valid (every element
        // is nullable under G′ — Theorem 3) and the recognizer would touch
        // no counter: skip it and the memo alike.
        if syms.is_empty() {
            return None;
        }
        let render = |i: u32| (i as usize, syms[i as usize].display(&self.analysis.dtd));
        if let Some(memo) = &self.memo {
            if let Some(hit) = memo.lookup(elem, syms) {
                stats.merge(&hit.stats);
                return hit.failing.map(render);
            }
            let (failing, delta) = self.run_symbols(elem, syms, scratch);
            memo.insert(elem, syms, MemoVerdict { failing, stats: delta });
            stats.merge(&delta);
            return failing.map(render);
        }
        let (failing, delta) = self.run_symbols(elem, syms, scratch);
        stats.merge(&delta);
        failing.map(render)
    }

    /// The uncached ECPV run, returning the failing index and the exact
    /// stats delta the run accumulated (what the memo stores and replays).
    fn run_symbols(
        &self,
        elem: pv_dtd::ElemId,
        syms: &[ChildSym],
        scratch: &mut CheckScratch<'_>,
    ) -> (Option<u32>, RecognizerStats) {
        let mut delta = RecognizerStats::default();
        scratch.rec.reset(elem, self.depth);
        for (i, &x) in syms.iter().enumerate() {
            delta.symbols += 1;
            if !scratch.rec.validate(x, &mut delta) {
                return (Some(i as u32), delta);
            }
        }
        (None, delta)
    }
}

/// How one document of a batch is scheduled: no tasks at all (root
/// violation, found in the planning pre-pass), one whole-document task
/// (small documents — no per-node sharding overhead), or one task per
/// element node (large documents idle workers may join). Shared by the
/// scoped [`PvChecker::check_batch`] and the engine's pooled batch; the
/// reduction produces outcomes bit-identical to the sequential checker
/// in every variant.
pub(crate) enum BatchPlan {
    /// The root check already failed; zero tasks.
    RootFailed(PvViolation),
    /// One task running every node sequentially with early exit (the
    /// task iterates `doc.elements()` directly — no node list is
    /// materialized for the common small-document case).
    Whole,
    /// One task per node, document-order reduction. Only this plan needs
    /// random access by task index, so only it collects the node ids; its
    /// tasks share the document's resolved name table.
    PerNode(Vec<NodeId>, NameTable),
}

impl BatchPlan {
    /// Number of tasks this document contributes to the grouped region.
    pub(crate) fn task_count(&self) -> usize {
        match self {
            BatchPlan::RootFailed(_) => 0,
            BatchPlan::Whole => 1,
            BatchPlan::PerNode(nodes, _) => nodes.len(),
        }
    }

    /// Folds the group's task results into the document outcome.
    pub(crate) fn reduce(
        &self,
        results: Vec<Option<(Option<PvViolation>, RecognizerStats)>>,
    ) -> PvOutcome {
        match self {
            BatchPlan::RootFailed(v) => {
                PvOutcome { violation: Some(v.clone()), stats: RecognizerStats::default() }
            }
            // A whole-document task already folded its nodes (stopping at
            // the first violation) — its single result IS the outcome.
            BatchPlan::Whole | BatchPlan::PerNode(..) => reduce_node_results(results),
        }
    }
}

/// The deterministic document-order reduction shared by every sharded
/// check (scoped parallel, two-level batch, and the engine's pooled
/// paths): folds per-node `(violation, stats)` results in document order,
/// stopping at the first violation exactly as the sequential scan would.
/// `None` entries are nodes pruned *after* a known violation — the fold
/// never reaches them, which the pruning protocol guarantees (the known
/// first-failure index only ever decreases).
pub(crate) fn reduce_node_results(
    per_node: impl IntoIterator<Item = Option<(Option<PvViolation>, RecognizerStats)>>,
) -> PvOutcome {
    let mut stats = RecognizerStats::default();
    for entry in per_node {
        let (violation, node_stats) =
            entry.expect("nodes up to the first violation are never pruned");
        stats.merge(&node_stats);
        if violation.is_some() {
            return PvOutcome { violation, stats };
        }
    }
    PvOutcome { violation: None, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_dtd::builtin::BuiltinDtd;

    fn check(b: BuiltinDtd, xml: &str) -> PvOutcome {
        let analysis = b.analysis();
        let checker = PvChecker::new(&analysis);
        let doc = pv_xml::parse(xml).unwrap();
        checker.check_document(&doc)
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
        let checker = PvChecker::with_policy(&analysis, DepthPolicy::Bounded(0));
        let doc = pv_xml::parse("<a><b/><b/><b/></a>").unwrap();
        assert!(!checker.check_document(&doc).is_potentially_valid());
        let checker = PvChecker::with_policy(&analysis, DepthPolicy::Bounded(1));
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

    #[test]
    fn parallel_outcome_bit_identical_on_valid_docs() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let checker = PvChecker::new(&analysis);
        for doc in [pv_xml::parse(S).unwrap(), wide_doc(60, false)] {
            let seq = checker.check_document(&doc);
            assert!(seq.is_potentially_valid());
            for jobs in [1usize, 2, 3, 8] {
                assert_eq!(checker.check_document_parallel(&doc, jobs), seq, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn parallel_outcome_bit_identical_on_failing_docs() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let checker = PvChecker::new(&analysis);
        for doc in [
            pv_xml::parse(W).unwrap(),
            wide_doc(60, true),
            pv_xml::parse("<a><b/></a>").unwrap(), // root mismatch
            pv_xml::parse("<r><zzz/></r>").unwrap(), // undeclared element
        ] {
            let seq = checker.check_document(&doc);
            assert!(!seq.is_potentially_valid());
            for jobs in [1usize, 2, 3, 8] {
                assert_eq!(checker.check_document_parallel(&doc, jobs), seq, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn batch_matches_per_document_checks() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let checker = PvChecker::new(&analysis);
        let docs: Vec<Document> =
            (0..12).map(|i| wide_doc(10 + i, i % 3 == 0)).collect();
        let expect: Vec<PvOutcome> = docs.iter().map(|d| checker.check_document(d)).collect();
        for jobs in [0usize, 1, 2, 8] {
            assert_eq!(checker.check_batch(&docs, jobs), expect, "jobs={jobs}");
        }
        assert!(checker.check_batch(&[], 4).is_empty());
    }

    #[test]
    fn check_node_reusable() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let checker = PvChecker::new(&analysis);
        let doc = pv_xml::parse(S).unwrap();
        let a = doc.children(doc.root())[0];
        let mut stats = RecognizerStats::default();
        assert!(checker.check_node(&doc, a, &mut stats).is_none());
    }

    #[test]
    fn memo_outcomes_bit_identical_cold_and_warm() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let mut plain = PvChecker::new(&analysis);
        plain.set_memo_enabled(false);
        assert!(!plain.memo_enabled());
        let memoized = PvChecker::new(&analysis);
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
        let analysis = BuiltinDtd::Figure1.analysis();
        let checker = PvChecker::new(&analysis);
        let doc = wide_doc(100, false);
        assert!(checker.check_document(&doc).is_potentially_valid());
        let stats = checker.memo_stats().unwrap();
        // 100 identical <a> blocks: one miss per distinct shape, the other
        // ~99 <a> nodes hit. (Childless nodes bypass the memo entirely.)
        assert!(stats.hits >= 90, "{stats:?}");
        assert!(stats.entries <= 16, "{stats:?}");
        // Clearing keeps telemetry but drops entries.
        checker.memo_clear();
        assert_eq!(checker.memo_stats().unwrap().entries, 0);
    }

    #[test]
    fn memo_capacity_bounds_adversarial_growth() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let mut checker = PvChecker::new(&analysis);
        checker.set_memo_capacity(64);
        // Many <d> nodes with distinct mixed-content shapes (x e … e),
        // each wrapped in its own legal <a> block under r → (a+).
        let mut xml = String::from("<r>");
        for i in 0..400 {
            xml.push_str("<a><d>x");
            for _ in 0..(i % 40) {
                xml.push_str("<e/>");
            }
            xml.push_str("</d></a>");
        }
        xml.push_str("</r>");
        let doc = pv_xml::parse(&xml).unwrap();
        let out = checker.check_document(&doc);
        let mut plain = PvChecker::new(&analysis);
        plain.set_memo_enabled(false);
        assert_eq!(out, plain.check_document(&doc));
        let stats = checker.memo_stats().unwrap();
        assert!(stats.entries <= 64, "capacity not honored: {stats:?}");
    }

    #[test]
    fn parallel_checking_with_shared_memo_stays_identical() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let mut plain = PvChecker::new(&analysis);
        plain.set_memo_enabled(false);
        let memoized = PvChecker::new(&analysis);
        for doc in [wide_doc(120, false), wide_doc(120, true)] {
            let expect = plain.check_document(&doc);
            for jobs in [1usize, 2, 8] {
                // Cold-ish and warm passes both must match.
                assert_eq!(memoized.check_document_parallel(&doc, jobs), expect, "jobs={jobs}");
                assert_eq!(memoized.check_document_parallel(&doc, jobs), expect, "jobs={jobs}");
            }
        }
    }
}
