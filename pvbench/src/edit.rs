//! `edit_session`: the paper's editor loop, closed loop, one thread.
//!
//! Each session opens an `EditorSession` on a stripped corpus document
//! and replays the wrap trace that restores the original through the
//! guarded `insert_markup`. Mixed in, at fixed positions of the trace:
//! tag-palette queries (`allowed_wraps`, `expected_next`), text inserts
//! (undone again) and text updates (set back again), undo + re-apply
//! pairs, and planted edits that must be refused (a wrap or a rename to
//! an undeclared name). Every call's answer is known; a finished session
//! must reproduce the original exactly, and the result must pass the
//! independent validator.

use crate::adapter::{self, DtdAnalysis, EditError, Editor, PvViolationKind};
use crate::inputs::{self, Kind, Rng, Session, UNDECLARED};
use crate::local::write_spans;
use crate::trace::Tracer;
use crate::{e2e_metrics, layer_pass, own_peak_rss_mib, secs, Ctx, Loop, Report, SETUP_REPS};

/// One set-up: compiles every DTD.
fn set_up() -> Vec<DtdAnalysis> {
    Kind::ALL
        .iter()
        .map(|k| adapter::analyze(k.builtin()))
        .collect()
}
use pv_dtd::ast::ContentSpec;
use pv_workload::trace::resolve_path;
use pv_xml::NodeId;
use std::time::{Duration, Instant};

/// Corpora editor sessions are drawn from.
const KINDS: [Kind; 5] = [
    Kind::Play,
    Kind::Xhtml,
    Kind::Tei,
    Kind::Docbook,
    Kind::TeiDrama,
];
/// Sessions per corpus kind.
const PER_KIND: usize = 8;
/// Element-count range of session documents, drawn log-uniformly.
const SIZES: (usize, usize) = (1_500, 2_600);
const SPAN_CAP: usize = 1 << 20;

struct EditBench {
    analyses: Vec<DtdAnalysis>,
    setup_s: Vec<f64>,
    sessions: Vec<Session>,
    gen_s: f64,
}

#[derive(Default)]
struct Counts {
    sessions: u64,
    ecpv_guards: u64,
    constant_time_guards: u64,
    applied: u64,
    rejected: u64,
}

/// Whether an edit was refused for an undeclared element.
fn refused_undeclared(r: Result<(), EditError>) -> Result<(), String> {
    match r {
        Err(EditError::WouldBreakPv(v))
            if matches!(v.kind, PvViolationKind::UndeclaredElement { .. }) =>
        {
            Ok(())
        }
        other => Err(format!(
            "planted edit was not refused as undeclared: {other:?}"
        )),
    }
}

impl EditBench {
    /// Generates the sessions (untimed), then compiles the DTDs (timed,
    /// repeated, after generation so the machine is in the same state
    /// every run).
    fn new(ctx: &Ctx, rep: &mut Report) -> Result<EditBench, String> {
        let t0 = Instant::now();
        let gen: Vec<DtdAnalysis> = Kind::ALL
            .iter()
            .map(|k| adapter::analyze(k.builtin()))
            .collect();
        let refs: Vec<&DtdAnalysis> = gen.iter().collect();
        let sessions =
            inputs::edit_sessions(&mut Rng::new(ctx.seed, 2), &refs, &KINDS, PER_KIND, SIZES)?;
        let gen_s = secs(t0);
        let mut analyses = Vec::new();
        let mut setup_s = Vec::new();
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            analyses = set_up();
            setup_s.push(secs(t0));
        }
        let hash = inputs::content_hash(sessions.iter().map(|s| s.original.as_bytes()));
        let wraps: usize = sessions.iter().map(|s| s.ops.len()).sum();
        rep.note(format!(
            "sessions: {} documents, {wraps} trace wraps, content hash {hash:016x}",
            sessions.len()
        ));
        rep.note(format!("input generation: {gen_s:.3} s (not in setup_s)"));
        Ok(EditBench {
            analyses,
            setup_s,
            sessions,
            gen_s,
        })
    }

    /// Runs sessions until `seconds` have passed; a pass replays every
    /// session once, the same calls in the same order, so the loop keeps
    /// each call's best time (see [`Loop`]) and times one more set-up
    /// between passes. Every editor call is one operation (and one root
    /// span when traced); opens add to busy time and carry the session's
    /// bytes but are not operations.
    fn run(&self, seconds: f64, tr: &mut Tracer, rep: &mut Report, c: &mut Counts) -> Loop {
        let mut lp = Loop::default();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut op = 0u32;
        'sessions: for s_idx in 0.. {
            if Instant::now() >= deadline || tr.full() {
                break;
            }
            if s_idx % self.sessions.len() == 0 && s_idx > 0 {
                lp.pass_done();
                let t0 = Instant::now();
                std::hint::black_box(set_up());
                lp.setup(secs(t0));
            }
            let sess = &self.sessions[s_idx % self.sessions.len()];
            let analysis = &self.analyses[sess.kind.index()];
            let start = sess.start.clone();
            let texts: Vec<NodeId> = start
                .descendants(start.root())
                .filter(|&n| start.text(n).is_some_and(|t| !t.is_empty()))
                .collect();
            let k = lp.next_item();
            let t0 = Instant::now();
            let sp = tr.open("open", op, None);
            let opened = Editor::open(analysis, start);
            tr.close(sp);
            lp.record(k, secs(t0), sess.original.len(), false);
            let mut ed = match opened {
                Ok(e) => e,
                Err(e) => {
                    rep.attempted += 1;
                    rep.fail(format!("session {s_idx}: open failed: {e}"));
                    continue;
                }
            };
            let mut planted = 0u64;
            let mut text_cursor = 0usize;
            // One timed editor call: `f` returns Ok when the answer is right.
            let mut call = |name: &'static str,
                            lp: &mut Loop,
                            rep: &mut Report,
                            op: &mut u32,
                            f: &mut dyn FnMut() -> Result<(), String>| {
                rep.attempted += 1;
                let k = lp.next_item();
                let t0 = Instant::now();
                let sp = tr.open(name, *op, None);
                let r = f();
                tr.close(sp);
                let dt = secs(t0);
                *op = op.wrapping_add(1);
                match r {
                    Ok(()) => lp.record(k, dt, 0, true),
                    Err(e) => rep.fail(format!("{name}: {e}")),
                }
            };
            for (k, (path, range, name)) in sess.ops.iter().enumerate() {
                if Instant::now() >= deadline {
                    break 'sessions;
                }
                let Some(parent) = resolve_path(ed.document(), path) else {
                    rep.attempted += 1;
                    rep.fail(format!(
                        "session {s_idx}: trace path {path:?} does not resolve"
                    ));
                    continue 'sessions;
                };
                if k % 8 == 0 {
                    call("palette", &mut lp, rep, &mut op, &mut || {
                        let names = ed.allowed_wraps(parent, range.clone());
                        names
                            .contains(name)
                            .then_some(())
                            .ok_or_else(|| format!("palette {names:?} lacks the trace's <{name}>"))
                    });
                }
                let mut wrapped = None;
                call("wrap", &mut lp, rep, &mut op, &mut || {
                    wrapped = Some(
                        ed.insert_markup(parent, range.clone(), name)
                            .map_err(|e| e.to_string())?,
                    );
                    Ok(())
                });
                let Some(node) = wrapped else {
                    continue 'sessions;
                };
                if k % 8 == 4 {
                    // Autocomplete inside the element just made.
                    let must = expected_must_contain(&ed, analysis, node);
                    call("palette", &mut lp, rep, &mut op, &mut || {
                        let next = ed.expected_next(node);
                        match must.iter().find(|m| !next.contains(m)) {
                            None => Ok(()),
                            Some(m) => Err(format!("expected_next {next:?} lacks {m}")),
                        }
                    });
                }
                if k % 16 == 5 {
                    call("undo", &mut lp, rep, &mut op, &mut || {
                        ed.undo().map_err(|e| e.to_string())
                    });
                    call("wrap", &mut lp, rep, &mut op, &mut || {
                        ed.insert_markup(parent, range.clone(), name)
                            .map(|_| ())
                            .map_err(|e| e.to_string())
                    });
                }
                if k % 8 == 2 {
                    planted += 1;
                    call("refuse", &mut lp, rep, &mut op, &mut || {
                        refused_undeclared(ed.insert_markup(parent, 0..0, UNDECLARED).map(|_| ()))
                    });
                }
                if k % 8 == 6 {
                    planted += 1;
                    call("refuse", &mut lp, rep, &mut op, &mut || {
                        refused_undeclared(ed.rename(node, UNDECLARED))
                    });
                }
                if k % 8 == 1 || k % 8 == 3 {
                    if let Some(t) = next_text(&ed, analysis, &texts, &mut text_cursor) {
                        if k % 8 == 1 {
                            let (p, at) = (
                                ed.document().parent(t).expect("attached"),
                                ed.document().child_index(t).expect("attached"),
                            );
                            call("text", &mut lp, rep, &mut op, &mut || {
                                ed.insert_text(p, at, "inserted ")
                                    .map(|_| ())
                                    .map_err(|e| e.to_string())
                            });
                            call("undo", &mut lp, rep, &mut op, &mut || {
                                ed.undo().map_err(|e| e.to_string())
                            });
                        } else {
                            let old = ed.document().text(t).expect("text node").to_owned();
                            call("text", &mut lp, rep, &mut op, &mut || {
                                ed.update_text(t, "updated text").map_err(|e| e.to_string())
                            });
                            call("text", &mut lp, rep, &mut op, &mut || {
                                ed.update_text(t, &old).map_err(|e| e.to_string())
                            });
                        }
                    }
                }
            }
            // The session ran to its end: it must restore the original.
            let doc = ed.document();
            if doc.to_xml() != sess.original {
                rep.fail(format!(
                    "session {s_idx}: replay did not restore the original document"
                ));
            } else if let Err(e) = adapter::validate(doc, analysis) {
                rep.fail(format!(
                    "session {s_idx}: restored document is not valid: {e}"
                ));
            }
            let st = ed.stats();
            if st.rejected != planted {
                rep.error(format!(
                    "session {s_idx}: {} edits refused, {planted} planted",
                    st.rejected
                ));
            }
            c.sessions += 1;
            c.ecpv_guards += st.ecpv_guards;
            c.constant_time_guards += st.constant_time_guards;
            c.applied += st.applied;
            c.rejected += st.rejected;
        }
        lp
    }
}

/// Names `expected_next(parent)` must offer: a mixed content model
/// accepts each listed element at its end, and character data unless the
/// content already ends in text (an appended run would merge with it).
fn expected_must_contain(ed: &Editor<'_>, analysis: &DtdAnalysis, parent: NodeId) -> Vec<String> {
    let doc = ed.document();
    let Some(elem) = doc.name(parent).and_then(|n| analysis.id(n)) else {
        return Vec::new();
    };
    let ends_in_text = doc
        .children(parent)
        .iter()
        .rev()
        .find_map(|&c| match (doc.name(c), doc.text(c)) {
            (Some(_), _) => Some(false),
            (None, Some(t)) if !t.is_empty() => Some(true),
            _ => None,
        })
        .unwrap_or(false);
    let text = (!ends_in_text).then(|| "#text".to_owned());
    match &analysis.dtd.element(elem).content {
        ContentSpec::Mixed(names) => text
            .into_iter()
            .chain(names.iter().map(|&e| analysis.name(e).to_owned()))
            .collect(),
        ContentSpec::PcdataOnly | ContentSpec::Any => text.into_iter().collect(),
        _ => Vec::new(),
    }
}

/// The next live, non-empty text node (round robin) whose parent's
/// content model allows character data — where inserting text is known
/// to be accepted.
fn next_text(
    ed: &Editor<'_>,
    analysis: &DtdAnalysis,
    texts: &[NodeId],
    cursor: &mut usize,
) -> Option<NodeId> {
    let doc = ed.document();
    for _ in 0..texts.len().min(16) {
        let t = texts[*cursor % texts.len()];
        *cursor += 1;
        let mixed = doc
            .parent(t)
            .and_then(|p| doc.name(p))
            .and_then(|n| analysis.id(n))
            .is_some_and(|e| analysis.dtd.element(e).content.allows_pcdata());
        if mixed && doc.text(t).is_some_and(|s| !s.is_empty()) {
            return Some(t);
        }
    }
    None
}

/// `edit_session`, untraced.
pub fn e2e(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let b = EditBench::new(ctx, rep)?;
    let lp = b.run(ctx.seconds, &mut Tracer::off(), rep, &mut Counts::default());
    e2e_metrics(rep, &b.setup_s, &lp, own_peak_rss_mib());
    Ok(())
}

/// Per-layer metrics of the editor.
pub fn layers(ctx: &Ctx, main: bool, rep: &mut Report) -> Result<(), String> {
    let b = EditBench::new(ctx, rep)?;
    let (mut c, mut untraced_counts) = (Counts::default(), Counts::default());
    let (untraced, tr, lp) = layer_pass(ctx.seconds, main, SPAN_CAP, |s, tr| {
        let counts = if tr.enabled() {
            &mut c
        } else {
            &mut untraced_counts
        };
        b.run(s, tr, rep, counts)
    });
    let aggs = tr.summarize()?;
    let get = |n: &str| aggs.get(n).copied().unwrap_or_default();
    rep.metric("editor.open_ms", get("open").mean_us() / 1e3, "ms");
    rep.metric("editor.wrap_us", get("wrap").mean_us(), "us");
    rep.metric("editor.text_us", get("text").mean_us(), "us");
    rep.metric("editor.palette_us", get("palette").mean_us(), "us");
    rep.metric("editor.undo_us", get("undo").mean_us(), "us");
    let sessions = c.sessions.max(1) as f64;
    rep.metric(
        "editor.ecpv_guards",
        c.ecpv_guards as f64 / sessions,
        "count",
    );
    rep.metric(
        "editor.constant_time_guards",
        c.constant_time_guards as f64 / sessions,
        "count",
    );
    rep.metric(
        "editor.rejected_ratio",
        c.rejected as f64 / (c.applied + c.rejected).max(1) as f64,
        "ratio",
    );
    if let Some(u) = untraced {
        let ops = ["open", "wrap", "text", "palette", "undo", "refuse"];
        let traced_s: f64 = ops.iter().map(|n| get(n).total_ns as f64 / 1e9).sum();
        let per_op_traced = traced_s / lp.ops().max(1) as f64;
        rep.metric(
            "trace.overhead_ratio",
            per_op_traced / (u.busy_s() / u.ops().max(1) as f64),
            "ratio",
        );
        rep.metric("inputs.gen_s", b.gen_s, "s");
    }
    write_spans(ctx, &tr, "edit_session", rep);
    Ok(())
}
