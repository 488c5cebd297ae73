//! `tree_corpus` and `stream_corpus`: one-shot local checks over the same
//! seeded in-progress corpus, closed loop, one thread.
//!
//! Each pass runs every document once, in a fixed order; the loop keeps
//! each document's best time (see [`Loop`]) and times one more set-up
//! between passes.
//!
//! The tree path is what `pvx check` does: `pv_xml::parse`, then a
//! `CheckEngine` check with the shape cache cleared before each document
//! (cold, as in a fresh process). The stream path feeds the very same
//! bytes through `StreamCheck` in 64 KiB chunks and stops a poisoned
//! document as soon as its verdict is final.

use crate::adapter::{self, CheckEngine, PvOutcome, Registry};
use crate::inputs::{self, Input, Kind, Rng};
use crate::trace::Tracer;
use crate::verdict::{same_outcome, Expect};
use crate::{
    e2e_metrics, layer_pass, own_peak_rss_mib, secs, stats, Ctx, Loop, Report, SETUP_REPS,
};
use pv_par::Pool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Chunk size of the streaming path.
const CHUNK: usize = 64 << 10;
/// Documents per corpus kind (six kinds).
const PER_KIND: usize = 16;
/// Element-count range the sizes are drawn from, log-uniformly.
const SIZES: (usize, usize) = (200, 20_000);
/// Span capacity of a traced loop.
const SPAN_CAP: usize = 1 << 19;
const MIB: f64 = 1024.0 * 1024.0;

/// One set-up: compiles the six DTDs and builds their engines. Returns
/// the engines and the analysis and build times in milliseconds.
fn set_up() -> (Vec<Arc<CheckEngine>>, f64, f64) {
    let (mut a_ms, mut b_ms) = (0.0, 0.0);
    let engines = Kind::ALL
        .iter()
        .map(|k| {
            let t = Instant::now();
            let analysis = adapter::analyze(k.builtin());
            a_ms += secs(t) * 1e3;
            let t = Instant::now();
            let e = adapter::engine(analysis);
            b_ms += secs(t) * 1e3;
            e
        })
        .collect();
    (engines, a_ms, b_ms)
}

/// Times one more set-up between passes of a measured loop.
fn set_up_again(lp: &mut Loop) {
    let t0 = Instant::now();
    std::hint::black_box(set_up());
    lp.setup(secs(t0));
}

/// Set-up plus the shared corpus and its reference outcomes.
pub struct Local {
    engines: Vec<Arc<CheckEngine>>,
    setup_s: Vec<f64>,
    analyze_ms: Vec<f64>,
    build_ms: Vec<f64>,
    inputs: Vec<Input>,
    refs: Vec<PvOutcome>,
    gen_s: f64,
    pool: Pool,
}

/// Work counters a traced loop gathers.
#[derive(Default)]
struct Counts {
    docs: u64,
    memo_hits: u64,
    memo_misses: u64,
    memo_flushes: u64,
    rec: adapter::RecognizerStats,
    max_buffered: usize,
    max_depth: usize,
    decided_ratio: Vec<f64>,
}

impl Local {
    /// Generates the corpus and each document's reference outcome
    /// (untimed), then compiles the six DTDs and builds their engines
    /// (timed, repeated; set-up runs after generation so that it is
    /// measured in the same steady state every run). References are
    /// checked against the known answers, and the full streamed outcome
    /// of every document against the tree's.
    pub fn new(ctx: &Ctx, rep: &mut Report) -> Result<Local, String> {
        let t0 = Instant::now();
        let gen_engines: Vec<_> = Kind::ALL
            .iter()
            .map(|k| adapter::engine(adapter::analyze(k.builtin())))
            .collect();
        let mut rng = Rng::new(ctx.seed, 1);
        let inputs =
            inputs::in_progress_corpus(&mut rng, &gen_engines, &Kind::ALL, PER_KIND, SIZES)?;
        let pool = adapter::local_pool();
        let mut refs = Vec::with_capacity(inputs.len());
        for (i, inp) in inputs.iter().enumerate() {
            let engine = &gen_engines[inp.kind.index()];
            let doc = Arc::new(adapter::parse(&inp.xml)?);
            adapter::memo_clear(engine);
            let outcome = adapter::check(engine, &doc, &pool, true);
            if let Err(e) = Expect::for_input(inp.poisoned).check(&outcome) {
                rep.error(format!("input {i} ({:?}): {e}", inp.kind));
            }
            let mut off = Tracer::off();
            match adapter::stream_check(engine, inp.xml.as_bytes(), CHUNK, false, &mut off, 0, None)
            {
                Ok(run) => match run.outcome {
                    Some(s) => {
                        if let Err(e) = same_outcome("stream vs tree", &s, &outcome) {
                            rep.error(format!("input {i}: {e}"));
                        }
                    }
                    None => rep.error(format!("input {i}: full stream gave no outcome")),
                },
                Err(e) => rep.error(format!("input {i}: stream failed: {e}")),
            }
            refs.push(outcome);
        }
        drop(gen_engines);
        let gen_s = secs(t0);
        let bytes: usize = inputs.iter().map(|i| i.xml.len()).sum();
        let hash = inputs::content_hash(inputs.iter().map(|i| i.xml.as_bytes()));
        rep.note(format!(
            "corpus: {} documents ({} poisoned), {bytes} bytes, content hash {hash:016x}",
            inputs.len(),
            inputs.iter().filter(|i| i.poisoned).count()
        ));
        rep.note(format!(
            "input generation + references: {gen_s:.3} s (not in setup_s)"
        ));
        let (mut engines, mut setup_s, mut analyze_ms, mut build_ms) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let (e, a_ms, b_ms) = set_up();
            setup_s.push(secs(t0));
            engines = e;
            analyze_ms.push(a_ms);
            build_ms.push(b_ms);
        }
        Ok(Local {
            engines,
            setup_s,
            analyze_ms,
            build_ms,
            inputs,
            refs,
            gen_s,
            pool,
        })
    }

    /// The tree loop: parse + check per document, cold shape cache. When
    /// traced, each document is one operation with `parse`, `check` and
    /// `tokenize` (a Δ pass added for attribution) child spans, plus a
    /// root `nomemo` probe re-checking with the cache off.
    fn tree_loop(&self, seconds: f64, tr: &mut Tracer, rep: &mut Report, c: &mut Counts) -> Loop {
        let mut lp = Loop::default();
        let mut buf = Vec::new();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut i = 0usize;
        while Instant::now() < deadline && !tr.full() {
            let k = i % self.inputs.len();
            if k == 0 && i > 0 {
                lp.pass_done();
                set_up_again(&mut lp);
            }
            let item = lp.next_item();
            let (inp, reference) = (&self.inputs[k], &self.refs[k]);
            let engine = &self.engines[inp.kind.index()];
            adapter::memo_clear(engine);
            let m0 = adapter::memo_stats(engine);
            let op = i as u32;
            rep.attempted += 1;
            let t0 = Instant::now();
            let root = tr.open("doc", op, None);
            let sp = tr.open("parse", op, Some(root));
            let parsed = adapter::parse(&inp.xml);
            tr.close(sp);
            let doc = match parsed {
                Ok(d) => Arc::new(d),
                Err(e) => {
                    tr.close(root);
                    rep.fail(format!("tree op {i}: parse failed: {e}"));
                    i += 1;
                    continue;
                }
            };
            let sp = tr.open("check", op, Some(root));
            let outcome = adapter::check(engine, &doc, &self.pool, true);
            tr.close(sp);
            if tr.enabled() {
                // After the check, so that it warms nothing the check uses.
                let sp = tr.open("tokenize", op, Some(root));
                std::hint::black_box(adapter::tokenize_all(engine, &doc, &mut buf));
                tr.close(sp);
            }
            tr.close(root);
            let dt = secs(t0);
            match same_outcome("tree", &outcome, reference) {
                Ok(()) => lp.record(item, dt, inp.xml.len(), true),
                Err(e) => rep.fail(format!("tree op {i}: {e}")),
            }
            if tr.enabled() {
                let m1 = adapter::memo_stats(engine);
                c.docs += 1;
                c.memo_hits += m1.hits - m0.hits;
                c.memo_misses += m1.misses - m0.misses;
                c.memo_flushes += m1.flushes - m0.flushes;
                c.rec.merge(&outcome.stats);
                let sp = tr.open("nomemo", op, None);
                let plain = adapter::check(engine, &doc, &self.pool, false);
                tr.close(sp);
                if let Err(e) = same_outcome("memo off vs on", &plain, reference) {
                    rep.error(format!("tree op {i}: {e}"));
                }
            }
            i += 1;
        }
        lp
    }

    /// The stream loop: 64 KiB chunks through `StreamCheck`, stopping at
    /// a final verdict. When traced, each `feed`/`finish` is a child span
    /// of the document's `doc` span, and a root `lex` probe drains the
    /// push lexer alone over the same bytes.
    fn stream_loop(&self, seconds: f64, tr: &mut Tracer, rep: &mut Report, c: &mut Counts) -> Loop {
        let mut lp = Loop::default();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut i = 0usize;
        while Instant::now() < deadline && !tr.full() {
            let k = i % self.inputs.len();
            if k == 0 && i > 0 {
                lp.pass_done();
                set_up_again(&mut lp);
            }
            let item = lp.next_item();
            let (inp, reference) = (&self.inputs[k], &self.refs[k]);
            let engine = &self.engines[inp.kind.index()];
            let bytes = inp.xml.as_bytes();
            let op = i as u32;
            rep.attempted += 1;
            let t0 = Instant::now();
            let root = tr.open("doc", op, None);
            let run = adapter::stream_check(engine, bytes, CHUNK, true, tr, op, Some(root));
            tr.close(root);
            let dt = secs(t0);
            let run = match run {
                Ok(r) => r,
                Err(e) => {
                    rep.fail(format!("stream op {i}: {e}"));
                    i += 1;
                    continue;
                }
            };
            let verdict = match (&run.outcome, inp.poisoned) {
                (Some(o), _) => same_outcome("stream", o, reference),
                (None, true) => Ok(()),
                (None, false) => Err("a potentially valid document was decided early".into()),
            };
            match verdict {
                Ok(()) => lp.record(item, dt, bytes.len(), true),
                Err(e) => rep.fail(format!("stream op {i}: {e}")),
            }
            if tr.enabled() {
                c.docs += 1;
                c.max_buffered = c.max_buffered.max(run.peak_buffered);
                c.max_depth = c.max_depth.max(run.peak_depth);
                if inp.poisoned {
                    c.decided_ratio.push(run.fed as f64 / bytes.len() as f64);
                }
                let sp = tr.open("lex", op, None);
                let lexed = adapter::lex_only(bytes, run.fed, CHUNK);
                tr.close(sp);
                if let Err(e) = lexed {
                    rep.error(format!("stream op {i}: lexer alone failed: {e}"));
                }
            }
            i += 1;
        }
        lp
    }

    /// Observed vs unobserved engines on the same documents, interleaved
    /// per document so drift cancels: summed check time ratio.
    fn obs_overhead(&self, seconds: f64, rep: &mut Report) -> f64 {
        let registry = Registry::new();
        let observed: Vec<_> = self
            .engines
            .iter()
            .map(|e| adapter::observed_engine(e.analysis().clone(), &registry))
            .collect();
        let (mut plain_s, mut obs_s) = (0.0, 0.0);
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut i = 0usize;
        while Instant::now() < deadline {
            let k = i % self.inputs.len();
            let inp = &self.inputs[k];
            let Ok(doc) = adapter::parse(&inp.xml) else {
                break;
            };
            let doc = Arc::new(doc);
            let pair = [&self.engines[inp.kind.index()], &observed[inp.kind.index()]];
            for j in 0..2 {
                let which = (i + j) % 2;
                let engine = pair[which];
                adapter::memo_clear(engine);
                let t0 = Instant::now();
                let outcome = adapter::check(engine, &doc, &self.pool, true);
                let dt = secs(t0);
                if which == 0 {
                    plain_s += dt;
                } else {
                    obs_s += dt;
                }
                if let Err(e) = same_outcome("observed engine", &outcome, &self.refs[k]) {
                    rep.error(format!("obs probe {i}: {e}"));
                }
            }
            i += 1;
        }
        obs_s / plain_s.max(f64::MIN_POSITIVE)
    }

    /// Per-layer metrics of the tree path (see `BENCHMARK.json`).
    pub fn tree_layers(&self, ctx: &Ctx, main: bool, rep: &mut Report) -> Result<(), String> {
        let (mut c, mut untraced_counts) = (Counts::default(), Counts::default());
        let (untraced, tr, lp) = layer_pass(ctx.seconds, main, SPAN_CAP, |s, tr| {
            let counts = if tr.enabled() {
                &mut c
            } else {
                &mut untraced_counts
            };
            self.tree_loop(s, tr, rep, counts)
        });
        let aggs = tr.summarize()?;
        let get = |n: &str| aggs.get(n).copied().unwrap_or_default();
        let (doc, parse, tok, check) = (get("doc"), get("parse"), get("tokenize"), get("check"));
        rep.metric(
            "dtd.analyze_ms",
            stats::median(&self.analyze_ms).unwrap_or(0.0),
            "ms",
        );
        rep.metric(
            "engine.build_ms",
            stats::median(&self.build_ms).unwrap_or(0.0),
            "ms",
        );
        rep.metric("xml.parse_us", parse.mean_us(), "us");
        rep.metric(
            "xml.parse_mib_s",
            lp.bytes() as f64 / MIB / (parse.total_ns as f64 / 1e9),
            "MiB/s",
        );
        rep.metric("token.children_us", tok.mean_us(), "us");
        rep.metric("check.busy_us", check.mean_us(), "us");
        rep.metric("ledger.remainder_us", doc.mean_self_us(), "us");
        rep.note(format!(
            "tree ledger per document: {:.1} us = parse {:.1} + tokenize {:.1} + check {:.1} + remainder {:.1}",
            doc.mean_us(),
            parse.mean_us(),
            tok.mean_us(),
            check.mean_us(),
            doc.mean_self_us()
        ));
        let docs = c.docs.max(1) as f64;
        rep.metric("memo.hits", c.memo_hits as f64 / docs, "count");
        rep.metric("memo.misses", c.memo_misses as f64 / docs, "count");
        let lookups = (c.memo_hits + c.memo_misses).max(1) as f64;
        rep.metric("memo.hit_ratio", c.memo_hits as f64 / lookups, "ratio");
        rep.metric("memo.flushes", c.memo_flushes as f64, "count");
        rep.metric("recognizer.nomemo_us", get("nomemo").mean_us(), "us");
        rep.metric("recognizer.symbols", c.rec.symbols as f64 / docs, "count");
        rep.metric(
            "recognizer.node_visits",
            c.rec.node_visits as f64 / docs,
            "count",
        );
        rep.metric(
            "recognizer.subs_created",
            c.rec.subs_created as f64 / docs,
            "count",
        );
        rep.metric(
            "recognizer.specs_denied",
            c.rec.specs_denied as f64,
            "count",
        );
        let obs = self.obs_overhead(ctx.seconds / 4.0, rep);
        rep.metric("obs.overhead_ratio", obs, "ratio");
        if let Some(u) = untraced {
            // The tokenize span is attribution-only work: leave it out.
            let traced_per_byte = (doc.total_ns - tok.total_ns) as f64 / 1e9 / lp.bytes() as f64;
            let untraced_per_byte = u.busy_s() / u.bytes() as f64;
            rep.note(format!(
                "tree trace overhead: {:.2} ns/byte traced vs {:.2} untraced",
                traced_per_byte * 1e9,
                untraced_per_byte * 1e9
            ));
            rep.metric(
                "trace.overhead_ratio",
                traced_per_byte / untraced_per_byte,
                "ratio",
            );
            rep.metric("inputs.gen_s", self.gen_s, "s");
        }
        write_spans(ctx, &tr, "tree_corpus", rep);
        Ok(())
    }

    /// Per-layer metrics of the streaming path.
    pub fn stream_layers(&self, ctx: &Ctx, main: bool, rep: &mut Report) -> Result<(), String> {
        let (mut c, mut untraced_counts) = (Counts::default(), Counts::default());
        let (untraced, tr, lp) = layer_pass(ctx.seconds, main, SPAN_CAP, |s, tr| {
            let counts = if tr.enabled() {
                &mut c
            } else {
                &mut untraced_counts
            };
            self.stream_loop(s, tr, rep, counts)
        });
        let aggs = tr.summarize()?;
        let get = |n: &str| aggs.get(n).copied().unwrap_or_default();
        let (doc, feed, finish, lex) = (get("doc"), get("feed"), get("finish"), get("lex"));
        let docs = c.docs.max(1) as f64;
        let feed_us = (feed.total_ns + finish.total_ns) as f64 / 1e3 / docs;
        let lex_us = lex.total_ns as f64 / 1e3 / docs;
        rep.metric("stream.lex_us", lex_us, "us");
        rep.metric("stream.peak_buffered_bytes", c.max_buffered as f64, "bytes");
        rep.metric("stream.feed_us", feed_us, "us");
        rep.metric("stream.check_share_us", feed_us - lex_us, "us");
        rep.metric("stream.remainder_us", doc.mean_self_us(), "us");
        rep.metric("stream.peak_depth", c.max_depth as f64, "count");
        rep.metric(
            "stream.decided_bytes_ratio",
            stats::mean(&c.decided_ratio),
            "ratio",
        );
        rep.note(format!(
            "stream ledger per document: {:.1} us = feed {feed_us:.1} (lex {lex_us:.1} + check share {:.1}) + remainder {:.1}",
            doc.mean_us(),
            feed_us - lex_us,
            doc.mean_self_us()
        ));
        if let Some(u) = untraced {
            let traced_per_byte = doc.total_ns as f64 / 1e9 / lp.bytes() as f64;
            rep.metric(
                "trace.overhead_ratio",
                traced_per_byte / (u.busy_s() / u.bytes() as f64),
                "ratio",
            );
            rep.metric("inputs.gen_s", self.gen_s, "s");
        }
        write_spans(ctx, &tr, "stream_corpus", rep);
        Ok(())
    }
}

/// Writes a tracer's spans next to the run's other scratch files.
pub fn write_spans(ctx: &Ctx, tr: &Tracer, workload: &str, rep: &mut Report) {
    let path = ctx
        .work_dir
        .join(format!("spans-{workload}-{}.tsv", ctx.seed));
    if let Err(e) = tr.write_tsv(&path) {
        rep.error(format!("cannot write {}: {e}", path.display()));
    }
}

/// `tree_corpus`, untraced.
pub fn tree_e2e(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let l = Local::new(ctx, rep)?;
    let lp = l.tree_loop(ctx.seconds, &mut Tracer::off(), rep, &mut Counts::default());
    e2e_metrics(rep, &l.setup_s, &lp, own_peak_rss_mib());
    Ok(())
}

/// `stream_corpus`, untraced.
pub fn stream_e2e(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let l = Local::new(ctx, rep)?;
    let lp = l.stream_loop(ctx.seconds, &mut Tracer::off(), rep, &mut Counts::default());
    e2e_metrics(rep, &l.setup_s, &lp, own_peak_rss_mib());
    Ok(())
}
