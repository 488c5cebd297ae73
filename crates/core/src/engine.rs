//! The **check engine**: the one checker of the stack.
//!
//! A [`CheckEngine`] owns everything a check needs for one DTD:
//!
//! * the compiled [`DtdAnalysis`],
//! * the per-element DAG set (compiled **once**, at construction),
//! * the shape-memo [`ShapeCache`] — in the service, the **warm cache**:
//!   it outlives every request, so repeated shapes across requests cost
//!   one hash lookup even on a cold connection,
//! * the resolved depth budget,
//! * its telemetry handles.
//!
//! Constructors hand the engine out in an `Arc` so it can be shared with
//! the workers of a persistent [`pv_par::Pool`] (pool regions are
//! `'static`). Sequential checks ([`CheckEngine::check_document`], the
//! incremental guards, the stream checker, the suggestion queries) run on
//! the calling thread through the same per-node code as the pooled paths;
//! the differential suites hold the resulting bit-identity.
//!
//! ```
//! use std::sync::Arc;
//! use pv_core::engine::CheckEngine;
//! use pv_dtd::builtin::BuiltinDtd;
//!
//! let engine = CheckEngine::new(BuiltinDtd::Figure1.analysis());
//! let pool = pv_par::Pool::new(2);
//! let doc = Arc::new(pv_xml::parse("<r><a><b>x</b><c>y</c> z<e/></a></r>").unwrap());
//!
//! let pooled = engine.check_document_pooled(&doc, &pool, 0, true);
//! assert_eq!(pooled, engine.check_document(&doc));
//! ```

use crate::checker::{DocPlan, PvOutcome};
use crate::dag::DagSet;
use crate::depth::DepthPolicy;
use crate::memo::{MemoStats, ShapeCache};
use crate::recognizer::RecCtx;
use pv_dtd::DtdAnalysis;
use pv_obs::{Counter, Histogram, Registry};
use pv_par::Pool;
use pv_xml::Document;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Instant;

/// The engine's metric handles (`pv_engine_*`). Default is all no-ops;
/// [`CheckEngine::with_policy_observed`] registers live ones. Recording
/// happens once per pooled document or batch check only — the per-node
/// hot path is never touched.
#[derive(Default, Clone)]
struct EngineObs {
    /// Wall-clock of one document check (recognize + memo + reduction).
    check_us: Histogram,
    /// Wall-clock of one pooled batch check.
    batch_us: Histogram,
    /// Element nodes per checked document.
    doc_nodes: Histogram,
    /// Documents checked.
    checks: Counter,
    /// Mirrors of the outcome's `RecognizerStats` counters.
    symbols: Counter,
    node_visits: Counter,
    subs_created: Counter,
    specs_denied: Counter,
}

impl EngineObs {
    fn registered(reg: &Registry) -> EngineObs {
        EngineObs {
            check_us: reg.histogram("pv_engine_check_us"),
            batch_us: reg.histogram("pv_engine_batch_us"),
            doc_nodes: reg.histogram("pv_engine_doc_nodes"),
            checks: reg.counter("pv_engine_checks_total"),
            symbols: reg.counter("pv_engine_symbols_total"),
            node_visits: reg.counter("pv_engine_node_visits_total"),
            subs_created: reg.counter("pv_engine_subs_created_total"),
            specs_denied: reg.counter("pv_engine_specs_denied_total"),
        }
    }

    /// Folds one finished document check into the registry. The node
    /// count is a scan over the whole arena, so it is only taken when the
    /// histogram records.
    fn record(&self, t0: Option<Instant>, doc: &Document, outcome: &PvOutcome) {
        self.check_us.observe_since(t0);
        if self.doc_nodes.is_live() {
            self.doc_nodes.observe(doc.element_count() as u64);
        }
        self.checks.inc();
        self.symbols.add(outcome.stats.symbols);
        self.node_visits.add(outcome.stats.node_visits);
        self.subs_created.add(outcome.stats.subs_created);
        self.specs_denied.add(outcome.stats.specs_denied);
    }
}

/// The potential-validity checker for one compiled DTD — see the
/// [module docs](self). Construct once per DTD, share via `Arc`, check
/// documents from any thread.
///
/// ## Shape memoization
///
/// The engine carries a [`ShapeCache`] (on by default): every ECPV run is
/// keyed by `(element type, child-symbol shape)` and repeated shapes are
/// answered from the cache with their recorded stats delta replayed, so
/// outcomes — verdict, failing node/index/symbol, *and every counter* —
/// are bit-identical with the memo on or off (`tests/memo_differential.rs`
/// enforces this). Repetitive document-centric corpora drop from a
/// recognizer walk per node to a hash lookup per node; see
/// [`crate::memo`] for the sharding and capacity rules. The pooled entry
/// points take a per-call `memo` flag (the `pvx check --no-memo` and wire
/// `memo=0` paths); [`CheckEngine::set_memo_enabled`] switches the cache
/// for every check.
pub struct CheckEngine {
    analysis: DtdAnalysis,
    dags: DagSet,
    depth: u32,
    memo: Option<ShapeCache>,
    obs: EngineObs,
}

impl CheckEngine {
    /// The floor of the split rule: a document below this many element
    /// nodes is never split per node. A pooled check splits a document
    /// only at `max(SPLIT_MIN_NODES, total / (4·workers))` element nodes
    /// (`total` over every document of the check), so a split document
    /// is both large and a real share of the work; every other document
    /// is one whole-document task. Per-node tasks cost scheduling and
    /// shared-cache traffic that only a document this size repays.
    pub const SPLIT_MIN_NODES: usize = 512;

    /// Builds an engine with the default (automatic) depth policy and
    /// shape memoization on.
    pub fn new(analysis: DtdAnalysis) -> Arc<CheckEngine> {
        Self::with_policy(analysis, DepthPolicy::Auto)
    }

    /// Builds an engine with an explicit depth policy.
    pub fn with_policy(analysis: DtdAnalysis, policy: DepthPolicy) -> Arc<CheckEngine> {
        Self::with_policy_observed(analysis, policy, &Registry::disabled())
    }

    /// [`CheckEngine::with_policy`], recording engine telemetry
    /// (`pv_engine_*`: per-document check wall-clock and node-count
    /// histograms, recognizer work counters, memo hit/miss/flush
    /// mirrors) into `registry`. Instrumentation observes and never
    /// steers: outcomes are bit-identical to an unobserved engine's,
    /// held by `tests/obs_differential.rs`.
    pub fn with_policy_observed(
        analysis: DtdAnalysis,
        policy: DepthPolicy,
        registry: &Registry,
    ) -> Arc<CheckEngine> {
        let depth = policy.resolve(&analysis);
        let dags = DagSet::new(&analysis);
        let mut memo = ShapeCache::new();
        memo.instrument(registry);
        Arc::new(CheckEngine {
            analysis,
            dags,
            depth,
            memo: Some(memo),
            obs: EngineObs::registered(registry),
        })
    }

    /// The compiled DTD this engine runs against.
    #[inline]
    pub fn analysis(&self) -> &DtdAnalysis {
        &self.analysis
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

    /// The engine itself: every check lives on [`CheckEngine`]. Kept so
    /// callers can spell a stream check `engine.checker().stream_checker()`.
    #[inline]
    pub fn checker(&self) -> &Self {
        self
    }

    /// The recognizer context every execution path of this engine uses:
    /// its DAGs, reachability, and the per-symbol speculation budget.
    pub fn rec_ctx(&self) -> RecCtx<'_> {
        RecCtx::new(&self.analysis, &self.dags)
    }

    /// The shape cache, when memoization is on.
    #[inline]
    pub(crate) fn memo(&self) -> Option<&ShapeCache> {
        self.memo.as_ref()
    }

    /// Enables or disables shape memoization. Turning it off drops the
    /// cache; turning it back on starts cold. Outcomes are identical
    /// either way — this is purely a time/space knob.
    pub fn set_memo_enabled(&mut self, enabled: bool) {
        match (enabled, self.memo.is_some()) {
            (true, false) => self.memo = Some(ShapeCache::new()),
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
        self.memo = Some(ShapeCache::with_capacity(entries));
    }

    /// Telemetry snapshot of the shape cache, or `None` when memoization
    /// is disabled. Hit/miss counts are scheduling-dependent under pooled
    /// checking (see [`MemoStats`]); outcomes never are.
    pub fn memo_stats(&self) -> Option<MemoStats> {
        self.memo.as_ref().map(|m| m.stats())
    }

    /// Drops every cached verdict (telemetry counters survive) — for
    /// cold-cache benchmarking.
    pub fn memo_clear(&self) {
        if let Some(m) = &self.memo {
            m.clear();
        }
    }

    /// Drops every cached verdict **and** zeroes the memo's hit/miss/
    /// flush counters — the service's `RESET` verb, which opens a fresh
    /// uptime window.
    pub fn memo_reset(&self) {
        if let Some(m) = &self.memo {
            m.clear();
            m.reset_telemetry();
        }
    }

    /// Checks one document on the pool (`jobs` caps participation; `0` =
    /// all of them, `1` = the calling thread). `memo` toggles the shape
    /// cache for this check (outcomes are identical either way).
    ///
    /// This is the one-document case of [`CheckEngine::check_batch_pooled`]:
    /// a document of at least [`CheckEngine::SPLIT_MIN_NODES`] element
    /// nodes is split per node — element nodes are independent ECPV
    /// instances (paper Section 4) — and the per-node results are
    /// **reduced in document order**, so the returned [`PvOutcome`] — the
    /// violation (first failing node in document order, same node, same
    /// symbol index) *and* the work counters — is bit-identical to
    /// [`CheckEngine::check_document`]'s regardless of worker count or
    /// scheduling. Counter identity holds because sequential stats are a
    /// prefix sum of per-node stats and [`RecognizerStats::merge`] is
    /// commutative: the reduction folds exactly the nodes the sequential
    /// checker would have visited. A smaller document is a single task,
    /// and a single task runs on the calling thread.
    ///
    /// On an already-failing document, workers that observe a known
    /// violation skip nodes *after* it (the known first-failure index only
    /// ever moves earlier, so no node at or before the final first failure
    /// is ever skipped); a potentially valid document gets no such
    /// shortcut and every node is checked, just as sequentially.
    ///
    /// The streaming checker ([`CheckEngine::stream_checker`]) shares this
    /// contract from the other direction: where the pooled path pays a
    /// `fetch_min` race so concurrently-found violations agree on the
    /// document-order-first one, the streaming path's candidate protocol
    /// only ever *replaces* its frozen violation with a preorder-earlier
    /// one, converging on the same node. All three — sequential
    /// stop-at-first, pooled `fetch_min`, streaming candidate — report the
    /// identical violation (node, kind, symbol index) and counters;
    /// `tests/stream_differential.rs` asserts exactly this
    /// (`early_exit_reports_the_same_violation_everywhere`).
    ///
    /// [`RecognizerStats::merge`]: crate::recognizer::RecognizerStats::merge
    pub fn check_document_pooled(
        self: &Arc<Self>,
        doc: &Arc<Document>,
        pool: &Pool,
        jobs: usize,
        memo: bool,
    ) -> PvOutcome {
        let t0 = self.obs.check_us.start();
        let mut outcomes = self.check_pooled(Docs::One(Arc::clone(doc)), pool, jobs, memo);
        let outcome = outcomes.pop().expect("one outcome per document");
        self.obs.record(t0, doc, &outcome);
        outcome
    }

    /// Checks a batch of documents on the pool, returning one outcome per
    /// document in input order — outcome `i` is bit-identical to
    /// `check_document(&docs[i])`.
    ///
    /// Scheduling is **two-level** ([`Pool::run`]): each document is a
    /// group, and whole documents are stolen first (the right granularity
    /// while documents outnumber idle workers — a worker scans its
    /// documents' nodes in order, cache-local); a worker that finds no
    /// untouched document left *joins* the started document with the most
    /// nodes remaining, claiming chunks of its node range. Only documents
    /// big enough to bottleneck the batch are node-granular (joinable) at
    /// all — at least `max(`[`CheckEngine::SPLIT_MIN_NODES`]`,
    /// total/4·workers)` nodes; the rest run as single whole-document
    /// tasks with zero per-node scheduling overhead. A batch mixing one
    /// giant document with many small ones therefore pipelines instead of
    /// serializing on the giant one. Per-node results are reduced per
    /// document in document order, exactly as in
    /// [`CheckEngine::check_document_pooled`]. A batch that plans to a
    /// single task, or `jobs` resolving to one participant, runs on the
    /// calling thread.
    pub fn check_batch_pooled(
        self: &Arc<Self>,
        docs: &Arc<Vec<Document>>,
        pool: &Pool,
        jobs: usize,
    ) -> Vec<PvOutcome> {
        let t0 = self.obs.batch_us.start();
        let outcomes = self.check_pooled(Docs::Batch(Arc::clone(docs)), pool, jobs, true);
        self.obs.batch_us.observe_since(t0);
        for (doc, outcome) in docs.iter().zip(&outcomes) {
            self.obs.record(None, doc, outcome);
        }
        outcomes
    }

    /// The one pooled check body. `jobs` resolving to one participant is
    /// tested first and checks every document on the calling thread
    /// without planning. Otherwise every document is planned by the split
    /// rule ([`CheckEngine::SPLIT_MIN_NODES`]) — its root checked up
    /// front, leaving only ECPV work to shard — and the planned tasks run
    /// as one region, one group per document, unless they are a single
    /// task, which again runs on the calling thread.
    fn check_pooled(
        self: &Arc<Self>,
        docs: Docs,
        pool: &Pool,
        jobs: usize,
        memo: bool,
    ) -> Vec<PvOutcome> {
        let on_caller = || {
            let mut scratch = self.scratch();
            scratch.memo = memo;
            docs.docs().iter().map(|d| self.check_document_with(d, &mut scratch)).collect()
        };
        let workers = pool.participants(jobs);
        if workers <= 1 {
            return on_caller();
        }
        let counts: Vec<usize> = docs.docs().iter().map(Document::element_count).collect();
        let split = Self::SPLIT_MIN_NODES.max(counts.iter().sum::<usize>() / (4 * workers));
        let plans: Vec<DocPlan> =
            docs.docs().iter().zip(&counts).map(|(d, &n)| self.plan_document(d, n >= split)).collect();
        let plans = Arc::new(plans);
        let sizes: Vec<usize> = plans.iter().map(DocPlan::task_count).collect();
        if sizes.iter().sum::<usize>() <= 1 {
            return on_caller();
        }
        let first_bad: Vec<AtomicUsize> =
            sizes.iter().map(|_| AtomicUsize::new(usize::MAX)).collect();
        let engine = Arc::clone(self);
        let task_plans = Arc::clone(&plans);
        let per_doc = pool.run(jobs, &sizes, move |scope| {
            // Once per worker per region: a fresh scratch. Workers share
            // the engine's shape cache (sharded, read-mostly; a hit
            // replays the recorded stats delta, so the reduction stays
            // bit-identical).
            let mut scratch = engine.scratch();
            scratch.memo = memo;
            while let Some((g, i)) = scope.claim() {
                let doc = &docs.docs()[g];
                let r = engine.run_task(doc, &task_plans[g], &first_bad[g], i, &mut scratch);
                scope.put(g, i, r);
            }
        });
        plans.iter().zip(per_doc).map(|(plan, results)| plan.reduce(results)).collect()
    }
}

/// The documents of one pooled check: one shared document, or a batch.
enum Docs {
    One(Arc<Document>),
    Batch(Arc<Vec<Document>>),
}

impl Docs {
    fn docs(&self) -> &[Document] {
        match self {
            Docs::One(doc) => std::slice::from_ref(&**doc),
            Docs::Batch(docs) => docs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_dtd::builtin::BuiltinDtd;

    fn wide_doc(reps: usize, poison: bool) -> Document {
        let mut xml = String::from("<r>");
        for i in 0..reps {
            if poison && i == reps / 2 {
                xml.push_str("<a><b/><e>boom</e></a>");
            } else {
                xml.push_str("<a><b/><c>text</c><d/></a>");
            }
        }
        xml.push_str("</r>");
        pv_xml::parse(&xml).unwrap()
    }

    #[test]
    fn pooled_document_check_bit_identical() {
        let engine = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let pool = Pool::new(4);
        let plain = memo_off();
        for doc in [
            wide_doc(150, false), // 601 element nodes: split per node
            wide_doc(150, true),
            wide_doc(60, true), // 241: one task, on the calling thread
            pv_xml::parse("<a><b/></a>").unwrap(), // root mismatch
            pv_xml::parse("<r><zzz/></r>").unwrap(), // undeclared element
            pv_xml::parse("<r/>").unwrap(),        // tiny: sequential path
        ] {
            let doc = Arc::new(doc);
            let expect = plain.check_document(&doc);
            for jobs in [0usize, 1, 2, 8] {
                assert_eq!(
                    engine.check_document_pooled(&doc, &pool, jobs, true),
                    expect,
                    "jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn pooled_batch_bit_identical_and_pool_reusable() {
        let engine = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let pool = Pool::new(3);
        let docs: Arc<Vec<Document>> = Arc::new(
            (0..10)
                .map(|i| {
                    if i == 4 {
                        pv_xml::parse("<x><b/></x>").unwrap() // root mismatch
                    } else if i == 7 {
                        // Above SPLIT_MIN_NODES: exercises the
                        // node-granular (joinable) plan, poisoned.
                        wide_doc(400, true)
                    } else {
                        wide_doc(30 + i, i % 3 == 0)
                    }
                })
                .collect(),
        );
        let plain = memo_off();
        let expect: Vec<PvOutcome> = docs.iter().map(|d| plain.check_document(d)).collect();
        for round in 0..3 {
            for jobs in [0usize, 1, 2, 8] {
                assert_eq!(
                    engine.check_batch_pooled(&docs, &pool, jobs),
                    expect,
                    "round={round} jobs={jobs}"
                );
            }
        }
        // The shared cache is warm now; outcomes must not have drifted.
        assert!(engine.memo_stats().unwrap().hits > 0);
    }

    #[test]
    fn pooled_memo_flag_matches_memo_off_engine() {
        let engine = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let plain = memo_off();
        let pool = Pool::new(2);
        for doc in [wide_doc(150, false), wide_doc(150, true), pv_xml::parse("<r/>").unwrap()] {
            let expect = plain.check_document(&doc);
            let doc = Arc::new(doc);
            let before = engine.memo_stats().unwrap();
            for jobs in [1usize, 2] {
                assert_eq!(engine.check_document_pooled(&doc, &pool, jobs, false), expect);
            }
            // memo=false leaves the shared cache untouched.
            assert_eq!(engine.memo_stats().unwrap(), before);
        }
    }

    /// A potentially valid Figure 1 document of exactly `nodes` element
    /// nodes: `<r>`, four-node `<a>` blocks, then empty `<a/>` padding.
    fn sized_doc(nodes: usize) -> Document {
        let mut xml = String::from("<r>");
        let mut left = nodes - 1;
        while left >= 4 {
            xml.push_str("<a><b/><c>text</c><d/></a>");
            left -= 4;
        }
        xml.push_str(&"<a/>".repeat(left));
        xml.push_str("</r>");
        pv_xml::parse(&xml).unwrap()
    }

    /// The split floor on an observed pool at jobs 2: one node below it
    /// the check is a single task on the calling thread (no region); at
    /// it the document is split into one task per element node.
    #[test]
    fn split_floor_boundary() {
        let engine = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let plain = memo_off();
        let floor = CheckEngine::SPLIT_MIN_NODES;
        for (nodes, regions) in [(floor - 1, 0), (floor, 1)] {
            let doc = Arc::new(sized_doc(nodes));
            assert_eq!(doc.element_count(), nodes);
            let reg = Registry::new();
            let pool = Pool::try_new(2, &reg).unwrap();
            let expect = plain.check_document(&doc);
            assert_eq!(engine.check_document_pooled(&doc, &pool, 2, true), expect, "nodes={nodes}");
            let snap = reg.snapshot();
            assert_eq!(snap.counters["pv_pool_regions_total"], regions, "nodes={nodes}");
            let tasks = if regions == 0 { 0 } else { nodes as u64 };
            assert_eq!(snap.counters["pv_pool_tasks_total"], tasks, "nodes={nodes}");
        }
    }

    /// A Figure 1 engine with shape memoization off.
    fn memo_off() -> Arc<CheckEngine> {
        let mut engine = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        Arc::get_mut(&mut engine).unwrap().set_memo_enabled(false);
        engine
    }
}
