//! The **check engine**: the one checker of the stack.
//!
//! A [`CheckEngine`] owns everything a check needs for one DTD:
//!
//! * the compiled [`DtdAnalysis`],
//! * the per-element DAG set (compiled **once**, at construction),
//! * the memo: one transition cache ([`crate::memo`]) that the engine
//!   lends to one scan at a time — in the service and the editor it
//!   outlives every request and edit, so a scan that gets it starts warm,
//! * the resolved depth budget,
//! * its telemetry handles.
//!
//! Constructors hand the engine out in an `Arc` so it can be shared with
//! the workers of a persistent [`pv_par::Pool`] (pool regions are
//! `'static`). A document's bytes are checked with no tree
//! ([`CheckEngine::check_str`]: the in-place lexer feeds a stream
//! checker); a parsed tree is checked by [`CheckEngine::check_document`].
//! The unit of parallel work is the **document**: a batch check
//! ([`CheckEngine::check_batch_pooled`]) runs each document's text as one
//! pool task through the same body as `check_str`, and a single document
//! is always checked on the calling thread. The differential suites hold
//! the bit-identity of every path.
//!
//! ```
//! use std::sync::Arc;
//! use pv_core::engine::CheckEngine;
//! use pv_dtd::builtin::BuiltinDtd;
//!
//! let engine = CheckEngine::new(BuiltinDtd::Figure1.analysis());
//! let pool = pv_par::Pool::new(2);
//! let docs = Arc::new(vec![
//!     "<r><a><b>x</b><c>y</c> z<e/></a></r>".to_owned(),
//!     "<r><a><b>x</b><e/><c>y</c></a></r>".to_owned(),
//!     "<r><a>".to_owned(),
//! ]);
//!
//! let pooled = engine.check_batch_pooled(&docs, &pool, 0);
//! let tree = engine.check_document(&pv_xml::parse(&docs[1]).unwrap());
//! assert!(pooled[0].as_ref().unwrap().is_potentially_valid());
//! assert_eq!(pooled[1], Ok(tree));
//! assert_eq!(pooled[2], Err(pv_xml::parse(&docs[2]).unwrap_err()));
//! ```

use crate::checker::PvOutcome;
use crate::dag::DagSet;
use crate::depth::DepthPolicy;
use crate::memo::{Bounds, Lease, Memo, MemoStats};
use crate::recognizer::RecCtx;
use crate::stream::StreamChecker;
use pv_dtd::DtdAnalysis;
use pv_obs::{Counter, Histogram, Registry};
use pv_par::Pool;
use pv_xml::Document;
use std::sync::Arc;
use std::time::Instant;

/// The engine's metric handles (`pv_engine_*`). Default is all no-ops;
/// [`CheckEngine::with_policy_observed`] registers live ones. Recording
/// happens once per document or batch of the `*_pooled` entry points
/// only — the per-node hot path is never touched.
#[derive(Default, Clone)]
pub(crate) struct EngineObs {
    /// Wall-clock of one document check (tokens + memo + recognizer).
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

    /// Folds one finished document check into the registry. The element
    /// count may be a scan over a whole arena, so it is only taken when
    /// the histogram records.
    pub(crate) fn record(
        &self,
        t0: Option<Instant>,
        elements: impl FnOnce() -> usize,
        outcome: &PvOutcome,
    ) {
        self.check_us.observe_since(t0);
        if self.doc_nodes.is_live() {
            self.doc_nodes.observe(elements() as u64);
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
/// ## Memoization
///
/// The engine carries a memo (on by default): one lazy transition cache
/// over recognizer configurations, `(configuration, child symbol) →
/// (next configuration or rejected, stats delta)`. A repeated step is
/// answered from the cache with its recorded stats delta replayed, so
/// outcomes — verdict, failing node/index/symbol, *and every counter* —
/// are bit-identical with the memo on or off (`tests/memo_differential.rs`
/// enforces this). Repetitive document-centric corpora drop from a
/// recognizer round per child symbol to one table probe. Each scan
/// borrows the engine's cache, or runs on a private cold one while
/// another scan holds it, and folds its counts in once when it ends; see
/// [`crate::memo`] for lending and the bounds.
/// [`CheckEngine::check_document_pooled`] and [`CheckEngine::check_str`]
/// take a per-call `memo` flag (the wire `memo=0` path), and
/// [`CheckEngine::set_memo_enabled`] switches the memo for every check;
/// with the memo off a check, guard or query runs with no cache at all.
pub struct CheckEngine {
    analysis: DtdAnalysis,
    dags: DagSet,
    depth: u32,
    memo: Option<Memo>,
    pub(crate) obs: EngineObs,
}

impl CheckEngine {
    /// Builds an engine with the default (automatic) depth policy and
    /// memoization on.
    pub fn new(analysis: DtdAnalysis) -> Arc<CheckEngine> {
        Self::with_policy(analysis, DepthPolicy::Auto)
    }

    /// Builds an engine with an explicit depth policy.
    pub fn with_policy(analysis: DtdAnalysis, policy: DepthPolicy) -> Arc<CheckEngine> {
        Self::with_policy_observed(analysis, policy, &Registry::disabled())
    }

    /// [`CheckEngine::with_policy`], recording engine telemetry
    /// (`pv_engine_*`: per-document check wall-clock and node-count
    /// histograms, recognizer work counters, memo hit/miss/flush counts
    /// folded once per scan) into `registry`. Instrumentation observes and never
    /// steers: outcomes are bit-identical to an unobserved engine's,
    /// held by `tests/obs_differential.rs`.
    pub fn with_policy_observed(
        analysis: DtdAnalysis,
        policy: DepthPolicy,
        registry: &Registry,
    ) -> Arc<CheckEngine> {
        let depth = policy.resolve(&analysis);
        let dags = DagSet::new(&analysis);
        Arc::new(CheckEngine {
            analysis,
            dags,
            depth,
            memo: Some(Memo::new(Bounds::DEFAULT, registry)),
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
    pub(crate) fn rec_ctx(&self) -> RecCtx<'_> {
        RecCtx::new(&self.analysis, &self.dags)
    }

    /// One scan's transition cache: the engine's, lent by [`Memo::lease`],
    /// if `memo` and the engine's memo are on; else no cache at all.
    pub(crate) fn lease(&self, memo: bool) -> Lease<'_> {
        match self.memo.as_ref().filter(|_| memo) {
            Some(memo) => memo.lease(),
            None => Lease::private(Bounds::UNCACHED),
        }
    }

    /// Enables or disables memoization. Turning it off drops the
    /// transition cache; turning it back on starts cold. Outcomes are
    /// identical either way — this is purely a time/space knob.
    pub fn set_memo_enabled(&mut self, enabled: bool) {
        match (enabled, self.memo.is_some()) {
            (true, false) => self.memo = Some(Memo::new(Bounds::DEFAULT, &Registry::disabled())),
            (false, true) => self.memo = None,
            _ => {}
        }
    }

    /// `true` while memoization is active.
    #[inline]
    pub fn memo_enabled(&self) -> bool {
        self.memo.is_some()
    }

    /// Replaces the memo with a cold one whose caches have `bounds`
    /// instead of the constants.
    #[cfg(test)]
    pub(crate) fn set_memo_bounds(&mut self, bounds: Bounds) {
        self.memo = Some(Memo::new(bounds, &Registry::disabled()));
    }

    /// Telemetry snapshot of the memo, or `None` when memoization is
    /// disabled: the hit/miss/flush counts every finished scan folded in
    /// (scheduling-dependent under pooled checking, see [`MemoStats`];
    /// outcomes never are) and the engine cache's size.
    pub fn memo_stats(&self) -> Option<MemoStats> {
        self.memo.as_ref().map(Memo::stats)
    }

    /// Drops every cached transition (telemetry counters survive) — for
    /// cold-cache benchmarking. Waits for a scan that holds the engine's
    /// cache to give it back.
    pub fn memo_clear(&self) {
        if let Some(m) = &self.memo {
            m.clear();
        }
    }

    /// Drops every cached transition **and** zeroes the memo's hit/miss/
    /// flush counters — the service's `RESET` verb, which opens a fresh
    /// uptime window.
    pub fn memo_reset(&self) {
        if let Some(m) = &self.memo {
            m.clear();
            m.reset_counts();
        }
    }

    /// Checks one document on the calling thread, with the memo on or
    /// off for this check (`memo`; outcomes are identical either
    /// way), and records the check's engine telemetry. This is the
    /// one-document case of [`CheckEngine::check_batch_pooled`]: a single
    /// document is never split, so the check never dispatches and `pool`
    /// and `jobs` do not change it. The outcome is
    /// [`CheckEngine::check_document`]'s.
    ///
    /// The streaming checker ([`CheckEngine::stream_checker`]) shares the
    /// first-violation contract from the other direction: where the tree
    /// scan stops at the preorder-first failing node, the streaming
    /// path's candidate protocol only ever *replaces* its frozen violation
    /// with a preorder-earlier one, converging on the same node. Both
    /// report the identical violation (node, kind, symbol index) and
    /// counters; `tests/stream_differential.rs` asserts exactly this
    /// (`early_exit_reports_the_same_violation_everywhere`).
    pub fn check_document_pooled(
        &self,
        doc: &Arc<Document>,
        _pool: &Pool,
        _jobs: usize,
        memo: bool,
    ) -> PvOutcome {
        let t0 = self.obs.check_us.start();
        let mut scratch = self.scratch_with(memo);
        let outcome = self.check_document_with(doc, &mut scratch);
        self.obs.record(t0, || doc.element_count(), &outcome);
        outcome
    }

    /// Checks one complete document held in memory without building a
    /// tree: the in-place lexer ([`pv_xml::lex`]) drives a
    /// [`StreamChecker`], and the check's engine telemetry is recorded as
    /// [`CheckEngine::check_document_pooled`] records it. The outcome is
    /// bit-identical to [`CheckEngine::check_document`] on
    /// `pv_xml::parse(xml)`, and a malformed document fails with
    /// `pv_xml::parse`'s error (kind and byte offset).
    ///
    /// With `memo` set (and the engine's memo on) the checker steps
    /// through the engine's transition cache, leased exactly as a tree
    /// scan leases it, so a warm cache helps and its hit/miss counts fold
    /// into [`CheckEngine::memo_stats`]; otherwise it runs with no cache,
    /// as a memo-off tree scan does.
    pub fn check_str(&self, xml: &str, memo: bool) -> pv_xml::Result<PvOutcome> {
        let t0 = self.obs.check_us.start();
        self.byte_checker(memo).check_str(xml, t0)
    }

    /// A checker for documents in memory, leasing the engine's cache if
    /// `memo` (see [`CheckEngine::check_str`]).
    pub(crate) fn byte_checker(&self, memo: bool) -> StreamChecker<'_> {
        StreamChecker::new(self, self.lease(memo))
    }

    /// Checks a batch of documents on the pool, returning one result per
    /// document in input order — result `i` is
    /// [`CheckEngine::check_str`]`(&docs[i], true)`'s, so its outcome is
    /// bit-identical to `check_document(&pv_xml::parse(&docs[i])?)`, and a
    /// malformed document is its own `Err` without stopping the others.
    ///
    /// Each document is one pool task ([`Pool::run`]), root check
    /// included, lexed and checked with no tree by a checker built once
    /// per worker; workers claim the next unstarted document as they
    /// finish one. `jobs` caps participation (`0` = all pool workers); a
    /// batch of at most one document, or `jobs` resolving to one
    /// participant, runs on the calling thread. The first worker to need
    /// a cache leases the engine's for the whole region and the others
    /// run on private cold ones, so no lookup writes shared memory (a hit
    /// replays the recorded stats delta, so every outcome stays exact
    /// either way).
    pub fn check_batch_pooled(
        self: &Arc<Self>,
        docs: &Arc<Vec<String>>,
        pool: &Pool,
        jobs: usize,
    ) -> Vec<pv_xml::Result<PvOutcome>> {
        let t0 = self.obs.batch_us.start();
        let outcomes = if docs.len() <= 1 || pool.participants(jobs) <= 1 {
            let mut checker = self.byte_checker(true);
            docs.iter().map(|d| checker.check_str(d, None)).collect()
        } else {
            let (engine, batch) = (Arc::clone(self), Arc::clone(docs));
            pool.run(jobs, docs.len(), move |scope| {
                let mut checker = engine.byte_checker(true);
                while let Some(i) = scope.claim() {
                    scope.put(i, checker.check_str(&batch[i], None));
                }
            })
        };
        self.obs.batch_us.observe_since(t0);
        outcomes
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
        let docs = vec![
            wide_doc(150, false), // 601 element nodes
            wide_doc(150, true),
            wide_doc(60, true),
            pv_xml::parse("<a><b/></a>").unwrap(), // root mismatch
            pv_xml::parse("<r><zzz/></r>").unwrap(), // undeclared element
            pv_xml::parse("<r/>").unwrap(),
        ];
        let expect: Vec<PvOutcome> = docs.iter().map(|d| plain.check_document(d)).collect();
        for (doc, expect) in docs.iter().zip(&expect) {
            let doc = Arc::new(doc.clone());
            for jobs in [0usize, 1, 2, 8] {
                assert_eq!(
                    &engine.check_document_pooled(&doc, &pool, jobs, true),
                    expect,
                    "jobs={jobs}"
                );
            }
        }
        // The same documents as one batch reach the pool's workers.
        let (docs, expect) = (texts(&docs), oks(&expect));
        for jobs in [0usize, 1, 2, 8] {
            assert_eq!(engine.check_batch_pooled(&docs, &pool, jobs), expect, "batch jobs={jobs}");
        }
    }

    #[test]
    fn pooled_batch_bit_identical_and_pool_reusable() {
        let engine = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let pool = Pool::new(3);
        let docs: Vec<Document> = (0..10)
            .map(|i| {
                if i == 4 {
                    pv_xml::parse("<x><b/></x>").unwrap() // root mismatch
                } else if i == 7 {
                    wide_doc(400, true) // one large poisoned document
                } else {
                    wide_doc(30 + i, i % 3 == 0)
                }
            })
            .collect();
        let plain = memo_off();
        let expect: Vec<PvOutcome> = docs.iter().map(|d| plain.check_document(d)).collect();
        let (docs, expect) = (texts(&docs), oks(&expect));
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
            // memo=false leaves the engine's memo untouched.
            assert_eq!(engine.memo_stats().unwrap(), before);
        }
    }

    /// A byte check leases the engine's cache as a tree scan does: with
    /// the memo its counts fold in and a warm repeat only hits; without
    /// it the engine's memo is untouched.
    #[test]
    fn byte_checks_lease_the_engines_cache() {
        let engine = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let xml = wide_doc(60, true).to_xml();
        let expect = memo_off().check_document(&pv_xml::parse(&xml).unwrap());
        assert_eq!(engine.check_str(&xml, false), Ok(expect.clone()));
        assert_eq!(engine.memo_stats().unwrap(), MemoStats::default());
        assert_eq!(engine.check_str(&xml, true), Ok(expect.clone()));
        let cold = engine.memo_stats().unwrap();
        assert!(cold.hits > 0 && cold.misses > 0 && cold.entries > 0, "{cold:?}");
        assert_eq!(engine.check_str(&xml, true), Ok(expect));
        let warm = engine.memo_stats().unwrap();
        assert_eq!(warm.misses, cold.misses, "a warm check hits every step");
        assert_eq!(warm.hits - cold.hits, cold.hits + cold.misses);
        let truncated = &xml[..xml.len() - 2];
        assert_eq!(engine.check_str(truncated, true), Err(pv_xml::parse(truncated).unwrap_err()));
    }

    /// Byte checks record each document's element count, also when one
    /// checker checks a whole batch, one document after another.
    #[test]
    fn byte_checks_record_each_documents_size() {
        let reg = Registry::new();
        let analysis = BuiltinDtd::Figure1.analysis();
        let engine = CheckEngine::with_policy_observed(analysis, DepthPolicy::Auto, &reg);
        let docs = vec![wide_doc(10, false), wide_doc(20, true), wide_doc(5, false)];
        let first = docs[0].element_count() as u64;
        let all: u64 = docs.iter().map(|d| d.element_count() as u64).sum();
        engine.check_str(&docs[0].to_xml(), true).unwrap();
        let pool = Pool::new(2);
        for jobs in [1, 2] {
            engine.check_batch_pooled(&texts(&docs), &pool, jobs);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counters["pv_engine_checks_total"], 7);
        let nodes = &snap.histograms["pv_engine_doc_nodes"];
        assert_eq!((nodes.count, nodes.sum), (7, first + 2 * all));
        assert_eq!(snap.histograms["pv_engine_check_us"].count, 1, "batches time the batch");
    }

    /// The unit of parallel work is the document, on an observed pool
    /// at jobs 2: one document of 8,000 element nodes runs on the
    /// calling thread (no region), and a batch of it plus three small
    /// documents is one region of four tasks.
    #[test]
    fn one_document_never_dispatches_and_a_batch_is_one_task_per_document() {
        let engine = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let plain = memo_off();
        let big = wide_doc(2_000, true);
        assert!(big.element_count() >= 8_000);
        let reg = Registry::new();
        let pool = Pool::try_new(2, &reg).unwrap();

        let doc = Arc::new(big.clone());
        assert_eq!(engine.check_document_pooled(&doc, &pool, 2, true), plain.check_document(&doc));
        let snap = reg.snapshot();
        assert_eq!(snap.counters["pv_pool_regions_total"], 0);
        assert_eq!(snap.counters["pv_pool_tasks_total"], 0);

        let docs = vec![big, wide_doc(3, false), wide_doc(5, true), wide_doc(8, false)];
        let expect: Vec<PvOutcome> = docs.iter().map(|d| plain.check_document(d)).collect();
        assert_eq!(engine.check_batch_pooled(&texts(&docs), &pool, 2), oks(&expect));
        let snap = reg.snapshot();
        assert_eq!(snap.counters["pv_pool_regions_total"], 1);
        assert_eq!(snap.counters["pv_pool_tasks_total"], 4);
    }

    /// A scan that finds the engine's cache taken runs on a private cold
    /// one: a second scratch on the same thread, and the second worker of
    /// a batch at jobs 2. Outcomes are the memo-off engine's either way.
    #[test]
    fn a_scan_that_finds_the_cache_taken_runs_on_a_private_one() {
        let engine = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let plain = memo_off();
        let docs = vec![wide_doc(150, false), wide_doc(150, true), wide_doc(7, false)];
        let expect: Vec<PvOutcome> = docs.iter().map(|d| plain.check_document(d)).collect();

        let mut held = engine.scratch();
        let mut stats = crate::RecognizerStats::default();
        let a = engine.analysis().id("a").unwrap();
        let b = crate::ChildSym::Elem(engine.analysis().id("b").unwrap());
        assert_eq!(engine.check_symbols_with(a, &[b], &mut stats, &mut held), None);
        for (doc, expect) in docs.iter().zip(&expect) {
            assert_eq!(&engine.check_document(doc), expect);
        }
        // The private caches folded their counts, not their size.
        let during = engine.memo_stats().unwrap();
        assert!(during.hits > 0 && during.misses > 0, "{during:?}");
        assert_eq!((during.entries, during.shapes), (0, 0), "{during:?}");
        drop(held);
        let after = engine.memo_stats().unwrap();
        assert!(after.entries > 0 && after.shapes > 0, "the lent cache came back: {after:?}");

        let pool = Pool::new(2);
        let (docs, expect) = (texts(&docs), oks(&expect));
        for _ in 0..3 {
            assert_eq!(engine.check_batch_pooled(&docs, &pool, 2), expect);
        }
    }

    /// `memo_clear` empties the cache, so the next check misses exactly
    /// as a cold one does; `memo_reset` also zeroes the counters.
    #[test]
    fn memo_clear_starts_cold_and_memo_reset_zeroes_counters() {
        let engine = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let doc = wide_doc(60, false);
        engine.check_document(&doc);
        let cold = engine.memo_stats().unwrap();
        assert!(cold.entries > 0 && cold.misses > 0, "{cold:?}");
        engine.check_document(&doc);
        let warm = engine.memo_stats().unwrap();
        assert_eq!(warm.misses, cold.misses, "a warm check hits every step");

        engine.memo_clear();
        let cleared = engine.memo_stats().unwrap();
        assert_eq!((cleared.entries, cleared.shapes), (0, 0), "{cleared:?}");
        assert_eq!((cleared.hits, cleared.misses), (warm.hits, warm.misses));
        engine.check_document(&doc);
        let again = engine.memo_stats().unwrap();
        assert_eq!(again.misses - cleared.misses, cold.misses, "misses again as cold");
        assert_eq!(again.hits - cleared.hits, cold.hits);
        assert_eq!(again.entries, cold.entries);

        engine.memo_reset();
        assert_eq!(engine.memo_stats().unwrap(), MemoStats::default());
    }

    /// A scan that panics while it holds the engine's cache poisons its
    /// lock; later checks recover it and stay exact.
    #[test]
    fn a_panicking_scan_leaves_the_engine_usable() {
        let engine = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let plain = memo_off();
        let docs = vec![wide_doc(40, false), wide_doc(40, true)];
        let expect: Vec<PvOutcome> = docs.iter().map(|d| plain.check_document(d)).collect();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut scratch = engine.scratch();
            engine.check_document_with(&docs[0], &mut scratch);
            panic!("a scan fails while it holds the cache");
        }));
        assert!(panicked.is_err());
        for (doc, expect) in docs.iter().zip(&expect) {
            assert_eq!(&engine.check_document(doc), expect);
            assert_eq!(&engine.check_document(doc), expect);
        }
        engine.memo_clear();
        assert_eq!(engine.check_batch_pooled(&texts(&docs), &Pool::new(2), 2), oks(&expect));
        assert!(engine.memo_stats().unwrap().hits > 0);
    }

    /// Parsed documents as a batch of their text (a parsed document
    /// serializes to text that parses back to the same arena).
    fn texts(docs: &[Document]) -> Arc<Vec<String>> {
        Arc::new(docs.iter().map(Document::to_xml).collect())
    }

    /// Tree outcomes as the batch results they equal.
    fn oks(outcomes: &[PvOutcome]) -> Vec<pv_xml::Result<PvOutcome>> {
        outcomes.iter().cloned().map(Ok).collect()
    }

    /// A Figure 1 engine with memoization off.
    fn memo_off() -> Arc<CheckEngine> {
        let mut engine = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        Arc::get_mut(&mut engine).unwrap().set_memo_enabled(false);
        engine
    }
}
