//! A **resident check engine**: the owned, shareable bundle behind the
//! validation service.
//!
//! [`crate::checker::PvChecker`] is a *borrowing* view — right for one-shot
//! callers whose `DtdAnalysis` lives on the stack, wrong for a long-lived
//! server that must hand work to persistent pool workers ([`pv_par::Pool`]
//! regions are `'static`; see the pool docs for why). [`CheckEngine`] owns
//! everything behind `Arc`s:
//!
//! * the compiled [`DtdAnalysis`],
//! * the per-element DAG set (compiled **once**, at engine construction),
//! * the shape-memo [`ShapeCache`] — the service's **warm cache**: it
//!   outlives every request, so repeated shapes across requests cost one
//!   hash lookup even on a cold connection,
//! * the resolved depth budget.
//!
//! Per request the engine derives a cheap checker *view*
//! ([`CheckEngine::checker`], two `Arc` clones — no compilation), so every
//! outcome flows through exactly the same code as the in-process paths;
//! the differential suites (`tests/service_differential.rs`) hold the
//! resulting bit-identity to the sequential checker.
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
//! assert_eq!(pooled, engine.checker().check_document(&doc));
//! ```

use crate::checker::{reduce_node_results, BatchPlan, PvChecker, PvOutcome, ScratchStash};
use crate::dag::DagSet;
use crate::depth::DepthPolicy;
use crate::memo::{MemoStats, ShapeCache};
use crate::recognizer::RecognizerStats;
use crate::token::NameTable;
use pv_dtd::budget::StaticReport;
use pv_dtd::DtdAnalysis;
use pv_obs::{Counter, Histogram, Registry};
use pv_par::Pool;
use pv_xml::{Document, NodeId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The engine's metric handles (`pv_engine_*`). Default is all no-ops;
/// [`CheckEngine::with_policy_observed`] registers live ones. Recording
/// happens at document granularity only — the per-node hot path is never
/// touched, which is what keeps the measured overhead inside the budget
/// the ISSUE sets (≤ 2% on scaling medians).
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

/// An owned, `'static`, shareable checking bundle for one DTD — see the
/// [module docs](self). Construct once per loaded DTD, share via `Arc`,
/// check documents from any thread.
pub struct CheckEngine {
    analysis: Arc<DtdAnalysis>,
    dags: Arc<DagSet>,
    depth: u32,
    /// Static analysis computed once at construction (the service's
    /// preflight report, attached to every handle).
    report: Arc<StaticReport>,
    /// Budget derived from `report` — certified constant when one exists.
    spec_budget: u32,
    memo: Option<Arc<ShapeCache>>,
    obs: EngineObs,
}

impl CheckEngine {
    /// Documents below this many element nodes are checked sequentially
    /// even when a pool is supplied. Dispatching a pool region costs
    /// single-digit microseconds (a condvar round-trip — not the ~100 µs
    /// thread spawn behind [`PvChecker::PARALLEL_MIN_NODES`]), so the
    /// pooled break-even sits far lower than the scoped one.
    pub const POOLED_MIN_NODES: usize = 64;

    /// Builds an engine with the default (automatic) depth policy and
    /// shape memoization on.
    pub fn new(analysis: DtdAnalysis) -> Arc<CheckEngine> {
        Self::with_policy(analysis, DepthPolicy::Auto)
    }

    /// Builds an engine with an explicit depth policy. Runs the static
    /// analyzer (determinism + budget certification) once; the report is
    /// attached to the engine and its certified budget — when one exists
    /// — is adopted by every derived checker view.
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
        let dags = Arc::new(DagSet::new(&analysis));
        let report = Arc::new(StaticReport::analyze(&analysis));
        let spec_budget = report.budget.applied_budget();
        let mut memo = ShapeCache::new();
        memo.instrument(registry);
        Arc::new(CheckEngine {
            analysis: Arc::new(analysis),
            dags,
            depth,
            report,
            spec_budget,
            memo: Some(Arc::new(memo)),
            obs: EngineObs::registered(registry),
        })
    }

    /// The compiled DTD this engine runs against.
    #[inline]
    pub fn analysis(&self) -> &DtdAnalysis {
        &self.analysis
    }

    /// The resolved elision budget per ECPV instance.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The static-analysis report computed at construction.
    #[inline]
    pub fn report(&self) -> &Arc<StaticReport> {
        &self.report
    }

    /// The per-symbol speculation budget every derived checker runs with.
    #[inline]
    pub fn spec_budget(&self) -> u32 {
        self.spec_budget
    }

    /// Derives a borrowing checker view sharing this engine's DAGs and
    /// warm shape cache: two `Arc` clones, no compilation and no
    /// re-certification. Use it for any sequential or scoped-parallel
    /// entry point; outcomes are identical to a freshly built
    /// [`PvChecker`]'s.
    pub fn checker(&self) -> PvChecker<'_> {
        PvChecker::from_shared(
            &self.analysis,
            self.dags.clone(),
            self.memo.clone(),
            self.depth,
            self.spec_budget,
        )
    }

    /// Telemetry snapshot of the shared shape cache.
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

    /// Checks one document with per-node recognizer runs sharded over the
    /// persistent pool's workers (`jobs` caps participation; `0` = all of
    /// them). `memo` toggles the shared shape cache for this check
    /// (`false` gives each worker a detached cache-less view — the
    /// diagnostic path; outcomes are identical either way). The outcome
    /// is **bit-identical** to [`PvChecker::check_document`] — same
    /// reduction discipline as [`PvChecker::check_document_parallel`],
    /// same per-node code, with the region dispatched to parked workers
    /// instead of freshly spawned ones. Small documents (below
    /// [`CheckEngine::POOLED_MIN_NODES`]) and `jobs <= 1` run sequentially
    /// on the calling thread.
    pub fn check_document_pooled(
        self: &Arc<Self>,
        doc: &Arc<Document>,
        pool: &Pool,
        jobs: usize,
        memo: bool,
    ) -> PvOutcome {
        let t0 = self.obs.check_us.start();
        let outcome = self.check_document_pooled_inner(doc, pool, jobs, memo);
        self.obs.record(t0, doc, &outcome);
        outcome
    }

    fn check_document_pooled_inner(
        self: &Arc<Self>,
        doc: &Arc<Document>,
        pool: &Pool,
        jobs: usize,
        memo: bool,
    ) -> PvOutcome {
        if pool.participants(jobs) <= 1 || doc.element_count() < Self::POOLED_MIN_NODES {
            let mut checker = self.checker();
            checker.set_memo_enabled(memo);
            return checker.check_document(doc);
        }
        if let Some(v) = self.checker().check_root(doc) {
            return PvOutcome { violation: Some(v), stats: RecognizerStats::default() };
        }
        let names = Arc::new(NameTable::new(doc, &self.analysis.dtd));
        let nodes: Arc<Vec<NodeId>> = Arc::new(doc.elements().collect());
        let first_bad = Arc::new(AtomicUsize::new(usize::MAX));
        let len = nodes.len();
        let engine = Arc::clone(self);
        let doc = Arc::clone(doc);
        let task_nodes = Arc::clone(&nodes);
        let fb = Arc::clone(&first_bad);
        let per_node = pool.run(jobs, len, move |scope| {
            // Once per worker per region: a checker view over the shared
            // parts and a scratch re-armed from the worker's sticky stash.
            let mut checker = engine.checker();
            checker.set_memo_enabled(memo);
            let stash = scope.sticky().take::<ScratchStash>().unwrap_or_default();
            let mut scratch = checker.scratch_from(stash);
            while let Some(i) = scope.claim() {
                if i > fb.load(Ordering::Relaxed) {
                    scope.put(i, None); // after a known violation
                    continue;
                }
                let mut stats = RecognizerStats::default();
                let violation = checker.check_node_with(
                    &doc,
                    task_nodes[i],
                    Some(&names),
                    &mut stats,
                    &mut scratch,
                );
                if violation.is_some() {
                    fb.fetch_min(i, Ordering::Relaxed);
                }
                scope.put(i, Some((violation, stats)));
            }
            scope.sticky().put(scratch.into_stash());
        });
        reduce_node_results(per_node)
    }

    /// Checks a batch of documents on the persistent pool with the
    /// two-level scheduler (whole documents first, node-range joins when
    /// idle — the pooled sibling of [`PvChecker::check_batch`]). Outcome
    /// `i` is bit-identical to `check_document(&docs[i])`.
    pub fn check_batch_pooled(
        self: &Arc<Self>,
        docs: &Arc<Vec<Document>>,
        pool: &Pool,
        jobs: usize,
    ) -> Vec<PvOutcome> {
        let t0 = self.obs.batch_us.start();
        let outcomes = self.check_batch_pooled_inner(docs, pool, jobs);
        self.obs.batch_us.observe_since(t0);
        for (doc, outcome) in docs.iter().zip(&outcomes) {
            self.obs.record(None, doc, outcome);
        }
        outcomes
    }

    fn check_batch_pooled_inner(
        self: &Arc<Self>,
        docs: &Arc<Vec<Document>>,
        pool: &Pool,
        jobs: usize,
    ) -> Vec<PvOutcome> {
        let effective = pool.participants(jobs);
        if effective <= 1 {
            let checker = self.checker();
            let mut scratch = checker.scratch();
            return docs.iter().map(|d| checker.check_document_with(d, &mut scratch)).collect();
        }
        // The shared scheduling plan: most documents are one task each,
        // batch-dominating ones are node-granular joinable groups, root
        // failures contribute nothing (see `BatchPlan` in the checker
        // module).
        let checker = self.checker();
        let total_nodes: usize = docs.iter().map(Document::element_count).sum();
        let split = PvChecker::batch_split_threshold(effective, total_nodes);
        let plans: Arc<Vec<BatchPlan>> =
            Arc::new(docs.iter().map(|d| checker.plan_document(d, split)).collect());
        drop(checker);
        let sizes: Vec<usize> = plans.iter().map(BatchPlan::task_count).collect();
        let first_bad: Arc<Vec<AtomicUsize>> =
            Arc::new(docs.iter().map(|_| AtomicUsize::new(usize::MAX)).collect());
        let engine = Arc::clone(self);
        let task_docs = Arc::clone(docs);
        let task_plans = Arc::clone(&plans);
        let fb = Arc::clone(&first_bad);
        let per_doc = pool.run_grouped(jobs, &sizes, move |scope| {
            let checker = engine.checker();
            let stash = scope.sticky().take::<ScratchStash>().unwrap_or_default();
            let mut scratch = checker.scratch_from(stash);
            while let Some((g, i)) = scope.claim() {
                let r = checker.run_batch_task(
                    &task_docs[g],
                    &task_plans[g],
                    &fb[g],
                    i,
                    &mut scratch,
                );
                scope.put(g, i, r);
            }
            scope.sticky().put(scratch.into_stash());
        });
        plans.iter().zip(per_doc).map(|(plan, results)| plan.reduce(results)).collect()
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
        let analysis = BuiltinDtd::Figure1.analysis();
        let mut plain = PvChecker::new(&analysis);
        plain.set_memo_enabled(false);
        for doc in [
            wide_doc(60, false),
            wide_doc(60, true),
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
                        // Above PARALLEL_MIN_NODES: exercises the
                        // node-granular (joinable) plan, poisoned.
                        wide_doc(400, true)
                    } else {
                        wide_doc(30 + i, i % 3 == 0)
                    }
                })
                .collect(),
        );
        let analysis = BuiltinDtd::Figure1.analysis();
        let mut plain = PvChecker::new(&analysis);
        plain.set_memo_enabled(false);
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
    fn engine_checker_view_matches_plain_checker() {
        let analysis = BuiltinDtd::Play.analysis();
        let engine = CheckEngine::new(BuiltinDtd::Play.analysis());
        let plain = PvChecker::new(&analysis);
        let doc = pv_workload_free_play();
        assert_eq!(engine.checker().check_document(&doc), plain.check_document(&doc));
        assert_eq!(engine.depth(), plain.depth());
    }

    /// A small play-shaped document without depending on pv-workload.
    fn pv_workload_free_play() -> Document {
        pv_xml::parse(
            "<PLAY><TITLE>t</TITLE><PERSONAE><TITLE>p</TITLE><PERSONA>A</PERSONA></PERSONAE>\
             <ACT><TITLE>a</TITLE><SCENE><TITLE>s</TITLE><SPEECH><SPEAKER>A</SPEAKER>\
             <LINE>line</LINE></SPEECH></SCENE></ACT></PLAY>",
        )
        .unwrap()
    }
}
