//! # pv-cli — the `pvx` command-line tool
//!
//! A front end over the potential-validity stack for shell use:
//!
//! ```text
//! pvx check    [--dtd FILE --root NAME] [--depth N] DOC.xml…
//! pvx validate [--dtd FILE --root NAME] [--ignore-whitespace] DOC.xml…
//! pvx complete [--dtd FILE --root NAME] DOC.xml
//! pvx classify (--dtd FILE --root NAME | --builtin NAME)
//! pvx lint     (--dtd FILE --root NAME | --builtin NAME)
//! ```
//!
//! * `check` — potential validity (the paper's Problem PV) with a
//!   node-precise diagnosis on failure, from the document's bytes with
//!   no tree;
//! * `validate` — standard DTD validity;
//! * `complete` — print a valid extension with `•`-marked inserted tags
//!   (Definition 2 / Figure 3 as a tool);
//! * `classify` — DTD statistics and the recursion class (Definitions
//!   6–8), which decides whether a depth bound is needed;
//! * `lint` — DTD diagnostics: unusable elements, non-deterministic
//!   (1-ambiguous) content models, PV-strong recursive elements.
//!
//! Documents may carry their DTD in an internal subset
//! (`<!DOCTYPE root [ … ]>`); `--dtd`/`--root` override it. The library
//! part of this crate (this module) holds the testable command
//! implementations; `src/bin/pvx.rs` is a thin argv wrapper.

use pv_core::checker::PvOutcome;
use pv_core::depth::DepthPolicy;
use pv_core::memo::MemoStats;
use pv_core::token::Tokens;
use pv_core::CheckEngine;
use pv_dtd::builtin::BuiltinDtd;
use pv_dtd::{ContentSpec, Dtd, DtdAnalysis};
use pv_grammar::validator::{validate_document_with, ContentAutomata, ValidateOptions};
use pv_grammar::witness::{complete_document, complete_tokens};
use pv_service::json;
use pv_xml::Document;
use std::fmt::Write as _;
use std::io::Read as _;

/// Exit status of a command (mirrors the process exit code).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Everything checked out.
    Ok,
    /// The check ran and the answer is "no".
    Failed,
    /// The command could not run (bad arguments, parse errors, …).
    Error,
}

impl Status {
    /// Process exit code.
    pub fn code(self) -> i32 {
        match self {
            Status::Ok => 0,
            Status::Failed => 1,
            Status::Error => 2,
        }
    }
}

/// Resolved DTD context for a command.
pub struct DtdContext {
    /// Compiled DTD.
    pub analysis: DtdAnalysis,
    /// Where it came from (for messages).
    pub source: String,
}

/// Resolves the DTD for a document: explicit `--dtd` content wins, then a
/// `--builtin` name, then the document's internal subset.
pub fn resolve_dtd(
    dtd_src: Option<&str>,
    root: Option<&str>,
    builtin: Option<&str>,
    doc: Option<&Document>,
) -> Result<DtdContext, String> {
    if dtd_src.is_none() && builtin.is_none() {
        let doc = doc.ok_or("no DTD given and no document to read one from")?;
        return resolve_dtd_doctype(dtd_src, root, builtin, doc.doctype.as_ref());
    }
    resolve_dtd_doctype(dtd_src, root, builtin, None)
}

/// [`resolve_dtd`] from a bare [`pv_xml::Doctype`] instead of a parsed
/// document — the form `check` uses, streamed or not: by the time the
/// push parser emits the root start tag, the `<!DOCTYPE …>` (internal
/// subset included) has been seen, but no tree exists (see
/// [`prolog_doctype`]).
pub fn resolve_dtd_doctype(
    dtd_src: Option<&str>,
    root: Option<&str>,
    builtin: Option<&str>,
    doctype: Option<&pv_xml::Doctype>,
) -> Result<DtdContext, String> {
    if let Some(name) = builtin {
        let b = BuiltinDtd::ALL
            .iter()
            .copied()
            .find(|b| b.name() == name)
            .ok_or_else(|| {
                format!(
                    "unknown builtin {name:?}; known: {}",
                    BuiltinDtd::ALL.map(|b| b.name()).join(", ")
                )
            })?;
        return Ok(DtdContext { analysis: b.analysis(), source: format!("builtin:{name}") });
    }
    if let Some(src) = dtd_src {
        let root = root.ok_or("--dtd requires --root NAME")?;
        let analysis =
            DtdAnalysis::parse(src, root).map_err(|e| format!("DTD error: {e}"))?;
        return Ok(DtdContext { analysis, source: "--dtd".to_owned() });
    }
    let dt =
        doctype.ok_or("document has no <!DOCTYPE …> and no --dtd/--builtin was given")?;
    let subset = dt
        .internal_subset
        .as_deref()
        .ok_or("document DOCTYPE has no internal subset; pass --dtd")?;
    let dtd = Dtd::parse(subset).map_err(|e| format!("internal-subset DTD error: {e}"))?;
    let root_name = root.unwrap_or(&dt.name);
    let analysis =
        DtdAnalysis::new(dtd, root_name).map_err(|e| format!("DTD error: {e}"))?;
    Ok(DtdContext { analysis, source: "internal subset".to_owned() })
}

/// Options of a `pvx check` run (local or remote).
#[derive(Debug, Clone, Copy)]
pub struct CheckOpts {
    /// The depth policy (`--depth N` ⇒ `Bounded(N)`).
    pub depth: DepthPolicy,
    /// Memoization (`--no-memo` passes `false`).
    pub memo: bool,
    /// Emit one machine-readable JSON line per document instead of text.
    pub json: bool,
    /// `-v`: append a one-line `analysis:` summary (class, determinism,
    /// certified budget) to text reports. Local checks only — remote
    /// reports carry the server's summary in `STATS` instead.
    pub verbose: bool,
}

impl Default for CheckOpts {
    fn default() -> Self {
        CheckOpts { depth: DepthPolicy::Auto, memo: true, json: false, verbose: false }
    }
}

/// Everything a check report needs, local or remote: the outcome plus the
/// DTD context it ran under.
pub struct CheckReport {
    /// The (bit-identical-everywhere) outcome.
    pub outcome: PvOutcome,
    /// Cache telemetry, when memoization ran. Local checks report this
    /// run's counters; remote checks report the server's (warm,
    /// server-lifetime) counters.
    pub memo: Option<MemoStats>,
    /// Where the DTD came from (`builtin:play`, `--dtd`, …).
    pub source: String,
    /// The DTD's recursion class, rendered.
    pub class: String,
    /// Depth budget the check ran under.
    pub depth: u32,
    /// Static-analysis one-liner (`-v` local checks only): what the
    /// engine decided — class, determinism, certified budget.
    pub analysis: Option<String>,
}

/// Renders a check report as the human text block or as one JSON line —
/// the single rendering path shared by local and `--remote` checks, so
/// both read identically.
pub fn render_check(name: &str, r: &CheckReport, json_out: bool) -> (String, Status) {
    let status = if r.outcome.is_potentially_valid() { Status::Ok } else { Status::Failed };
    if json_out {
        let mut line = String::from("{\"doc\":");
        json::write_str(&mut line, name);
        let _ = write!(
            line,
            ",\"potentially_valid\":{},\"verdict\":",
            r.outcome.is_potentially_valid()
        );
        json::write_str(
            &mut line,
            if r.outcome.is_potentially_valid() { "potentially-valid" } else { "not-potentially-valid" },
        );
        line.push_str(",\"dtd\":");
        json::write_str(&mut line, &r.source);
        line.push_str(",\"class\":");
        json::write_str(&mut line, &r.class);
        let _ = write!(line, ",\"depth\":{},\"outcome\":", r.depth);
        json::write_outcome(&mut line, &r.outcome);
        match &r.outcome.violation {
            None => line.push_str(",\"violation_text\":null"),
            Some(v) => {
                line.push_str(",\"violation_text\":");
                json::write_str(&mut line, &v.to_string());
            }
        }
        line.push_str(",\"memo\":");
        match &r.memo {
            Some(m) => json::write_memo(&mut line, m),
            None => line.push_str("null"),
        }
        line.push_str("}\n");
        return (line, status);
    }
    let mut report = String::new();
    match &r.outcome.violation {
        None => {
            let _ = writeln!(
                report,
                "{name}: POTENTIALLY VALID (dtd: {}, class: {}, depth budget: {})",
                r.source,
                r.class,
                if r.depth == u32::MAX { "∞".to_owned() } else { r.depth.to_string() },
            );
        }
        Some(v) => {
            let _ = writeln!(report, "{name}: NOT potentially valid");
            let _ = writeln!(report, "  {v}");
            let _ = writeln!(
                report,
                "  (no insertion of markup can repair this; deletion or renaming is required)"
            );
        }
    }
    if let Some(stats) = &r.memo {
        let _ = writeln!(
            report,
            "  memo: {} hits / {} misses ({:.1}% hit rate), {} cached transitions",
            stats.hits,
            stats.misses,
            100.0 * stats.hit_rate(),
            stats.entries,
        );
    }
    // Speculation-agenda telemetry: a non-zero denial count means the
    // per-symbol budget cut the hypothesis search short somewhere — the
    // verdict MAY then be a false reject (never a false accept); zero
    // certifies the run was exact.
    let _ = writeln!(
        report,
        "  speculation: {} nested recognizers opened, {} requests budget-denied{}",
        r.outcome.stats.subs_created,
        r.outcome.stats.specs_denied,
        if r.outcome.stats.specs_denied == 0 { " (exact)" } else { "" },
    );
    if let Some(a) = &r.analysis {
        let _ = writeln!(report, "  analysis: {a}");
    }
    (report, status)
}

/// The `-v` one-liner: `pvx check -v` shows what the static analyzer
/// decided for this DTD — recursion class, determinism, and whether the
/// full speculation budget every check runs with is certified never to
/// run out.
pub fn analysis_summary(analysis: &DtdAnalysis) -> String {
    let report = pv_dtd::StaticReport::analyze(analysis);
    let det = if report.deterministic() {
        "deterministic".to_owned()
    } else {
        format!("1-ambiguous ({} models)", report.ambiguous().count())
    };
    let full = report.budget.full_budget;
    let budget = match report.certified_budget() {
        Some(b) => format!("certified budget {b} ≤ full {full} (no speculation denied)"),
        None => format!("uncertified (full budget {full})"),
    };
    format!("{}, {det}, {budget}", report.class)
}

/// Renders a check-level *error* (unreadable file, malformed document,
/// unresolvable DTD, remote failure) in the mode the run asked for: a
/// plain text line, or — under `--json` — a `{"doc":…,"ok":false,…}`
/// line, so JSON-lines consumers never hit bare text mid-stream.
pub fn render_check_error(name: &str, msg: &str, json_out: bool) -> String {
    if json_out {
        let mut line = String::from("{\"doc\":");
        json::write_str(&mut line, name);
        line.push_str(",\"ok\":false,\"error\":");
        json::write_str(&mut line, msg);
        line.push_str("}\n");
        line
    } else {
        format!("{name}: {msg}\n")
    }
}

/// `pvx check`: potential validity with diagnosis, in-process, with no
/// tree: the text is lexed in place straight into a fresh engine's
/// checker ([`CheckEngine::check_str`]), which uses the engine's
/// transition cache unless `opts.memo` is off (only the `memo:` line
/// comes and goes). The DTD resolves like [`cmd_check_stream`]'s, from
/// the flags or the prolog ([`prolog_doctype`]). Returns the report text
/// (or JSON line) and status; a DTD that does not resolve or a malformed
/// document is an error report (exit 2).
pub fn cmd_check(
    dtd_src: Option<&str>,
    root: Option<&str>,
    builtin: Option<&str>,
    name: &str,
    xml: &str,
    opts: &CheckOpts,
) -> (String, Status) {
    let fail = |msg: &str| (render_check_error(name, msg, opts.json), Status::Error);
    let doctype = match (dtd_src, builtin) {
        (None, None) => match prolog_doctype(xml) {
            Ok(doctype) => doctype,
            Err(msg) => return fail(&msg),
        },
        _ => None,
    };
    let ctx = match resolve_dtd_doctype(dtd_src, root, builtin, doctype.as_ref()) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let engine = CheckEngine::with_policy(ctx.analysis, opts.depth);
    let outcome = match engine.check_str(xml, opts.memo) {
        Ok(outcome) => outcome,
        Err(e) => return fail(&format!("not well-formed: {e}")),
    };
    let report = CheckReport {
        outcome,
        memo: engine.memo_stats().filter(|_| opts.memo),
        source: ctx.source,
        class: engine.analysis().rec.class.to_string(),
        depth: engine.depth(),
        analysis: opts.verbose.then(|| analysis_summary(engine.analysis())),
    };
    render_check(name, &report, opts.json)
}

/// `pvx check --remote`: ship the document to a resident `pvx serve` and
/// render the (bit-identical) outcome with the same renderer as the local
/// path. `handle` comes from a prior `load_builtin`/`load_dtd` on the
/// same client.
pub fn cmd_check_remote(
    client: &mut pv_service::Client,
    handle: &str,
    name: &str,
    xml: &str,
    opts: &CheckOpts,
) -> (String, Status) {
    // The server checks one document on its connection thread at any
    // `jobs`; 1 says so on the wire.
    render_remote(name, client.check(handle, xml, 1, opts.memo), opts)
}

/// Renders a remote check result (or its failure) like a local report.
fn render_remote(
    name: &str,
    result: pv_service::Result<pv_service::RemoteCheck>,
    opts: &CheckOpts,
) -> (String, Status) {
    match result {
        Err(e) => (render_check_error(name, &e.to_string(), opts.json), Status::Error),
        Ok(remote) => {
            let report = CheckReport {
                outcome: remote.outcome,
                memo: remote.memo,
                source: remote.label,
                class: remote.class,
                depth: remote.depth,
                analysis: None,
            };
            render_check(name, &report, opts.json)
        }
    }
}

/// The `<!DOCTYPE …>` of a document held in memory, read by the push
/// parser up to the root start tag — where a check finds an
/// internal-subset DTD without building a tree. `Err` carries the
/// report's `not well-formed: …` message for a malformed prolog.
pub fn prolog_doctype(xml: &str) -> Result<Option<pv_xml::Doctype>, String> {
    let mut parser = pv_xml::PushParser::new();
    let mut chunks = xml.as_bytes().chunks(64 * 1024);
    loop {
        match parser.next_event() {
            Err(e) => return Err(format!("not well-formed: {e}")),
            Ok(Some(_)) => break, // the root start tag: the prolog is read
            Ok(None) => match chunks.next() {
                Some(chunk) => parser.push(chunk),
                None => parser.finish(),
            },
        }
    }
    Ok(parser.doctype().cloned())
}

/// `pvx check --stream`: potential validity over the push-parser event
/// stream, in-process. The document is read from `input` in
/// `chunk_size`-byte chunks and never materializes — resident state is
/// the open ancestor spine plus one lexer construct, so arbitrarily
/// large documents check in O(depth) memory. The verdict, diagnosis and
/// counters are bit-identical to [`cmd_check`]'s (streaming never
/// consults the engine's memo, so no `memo:` telemetry is shown).
///
/// The DTD resolves exactly like [`cmd_check`]'s — `--dtd`, `--builtin`,
/// or the document's own internal subset: by the time the root start
/// tag is lexed, the `<!DOCTYPE …>` has been fully seen, so the checker
/// is constructed between the doctype and the first element.
pub fn cmd_check_stream(
    dtd_src: Option<&str>,
    root: Option<&str>,
    builtin: Option<&str>,
    name: &str,
    input: &mut dyn std::io::Read,
    chunk_size: usize,
    opts: &CheckOpts,
) -> (String, Status) {
    let fail = |msg: &str| (render_check_error(name, msg, opts.json), Status::Error);
    if chunk_size == 0 {
        // A zero chunk size would read zero bytes forever; reject it
        // loudly instead of silently substituting some other size.
        return fail("chunk size must be at least 1 byte");
    }
    let mut parser = pv_xml::PushParser::new();
    // The buffer grows only as bytes arrive, so a huge chunk size costs
    // what the input holds, never an allocation of that size up front.
    let mut buf = Vec::new();
    let mut eof = false;
    let mut read = |parser: &mut pv_xml::PushParser| {
        buf.clear();
        match (&mut *input).take(chunk_size as u64).read_to_end(&mut buf) {
            Err(e) => Err(format!("cannot read: {e}")),
            Ok(0) => {
                parser.finish();
                Ok(true)
            }
            Ok(_) => {
                parser.push(&buf);
                Ok(false)
            }
        }
    };
    // Pump until the root start tag: the first event the parser can emit.
    let (root_name, root_self_closing) = loop {
        match parser.next_event() {
            Err(e) => return fail(&format!("not well-formed: {e}")),
            Ok(Some(pv_xml::Event::Start { name, self_closing, .. })) => {
                break (name.to_owned(), self_closing);
            }
            Ok(Some(_)) => continue, // unreachable: nothing precedes the root
            Ok(None) if eof => return fail("not well-formed: missing root element"),
            Ok(None) => match read(&mut parser) {
                Ok(end) => eof = end,
                Err(msg) => return fail(&msg),
            },
        }
    };
    let ctx = match resolve_dtd_doctype(dtd_src, root, builtin, parser.doctype()) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let engine = CheckEngine::with_policy(ctx.analysis, opts.depth);
    let mut stream = engine.stream_checker();
    stream.on_start(&root_name, root_self_closing);
    // From here on the parser pushes every event a read completes.
    loop {
        if let Err(e) = parser.drain(|event| stream.on_event(&event)) {
            return fail(&format!("not well-formed: {e}"));
        }
        if eof {
            break;
        }
        match read(&mut parser) {
            Ok(end) => eof = end,
            Err(msg) => return fail(&msg),
        }
    }
    let report = CheckReport {
        outcome: stream.finalize(),
        memo: None,
        source: ctx.source,
        class: engine.analysis().rec.class.to_string(),
        depth: engine.depth(),
        analysis: opts.verbose.then(|| analysis_summary(engine.analysis())),
    };
    render_check(name, &report, opts.json)
}

/// `pvx check --stream --remote`: upload the document as `CHECK_STREAM`
/// chunks to a resident `pvx serve` — the server validates while the
/// client uploads, holding O(depth) state — and render the
/// (bit-identical) outcome with the shared renderer.
pub fn cmd_check_stream_remote(
    client: &mut pv_service::Client,
    handle: &str,
    name: &str,
    xml: &str,
    chunk_size: usize,
    opts: &CheckOpts,
) -> (String, Status) {
    if chunk_size == 0 {
        // `chunks(0)` would panic, and on the wire a zero-length block is
        // the terminator: reject it as `cmd_check_stream` does.
        return (
            render_check_error(name, "chunk size must be at least 1 byte", opts.json),
            Status::Error,
        );
    }
    render_remote(
        name,
        client.check_stream(handle, xml.as_bytes().chunks(chunk_size)),
        opts,
    )
}

/// Options for the `pvx bench-serve` load generator.
pub struct BenchServeOpts {
    /// Server address (socket path or host:port).
    pub addr: String,
    /// Built-in DTD every request checks against.
    pub builtin: String,
    /// The document text each request ships.
    pub xml: String,
    /// Total requests across all workers.
    pub requests: usize,
    /// Concurrent worker connections.
    pub concurrency: usize,
    /// Extra idle connections held open for the whole run (a connection
    /// flood: against a low `--max-conns` server these soak up permits,
    /// so the workers' shed rate becomes measurable).
    pub flood: usize,
    /// Upload chunk size for `CHECK_STREAM` requests; `0` keeps the
    /// plain `CHECK` request shape (the document ships as one payload).
    pub stream_chunk: usize,
    /// Emit one JSON line instead of text.
    pub json: bool,
}

/// `pvx bench-serve`: an honest load generator for `pvx serve`. Every
/// request lands in exactly one bucket — `ok`, `shed` (the server said
/// `busy`/`draining`; nothing was checked), or `errors` — so the
/// reported shed rate is the real one, not retries hidden as successes.
/// Each worker holds one connection and reconnects after a shed or
/// transport failure (the next request pays the reconnect, as a real
/// client would). The request shape is selectable: plain `CHECK`
/// (default) or chunked `CHECK_STREAM` uploads (`stream_chunk > 0`);
/// `concurrency` workers streaming at once are how streaming throughput
/// is measured at service scale.
pub fn cmd_bench_serve(opts: &BenchServeOpts) -> (String, Status) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    // The flood connects first and holds its sockets for the whole run.
    let flood: Vec<pv_service::Client> = (0..opts.flood)
        .filter_map(|_| pv_service::Client::connect(&opts.addr).ok())
        .collect();
    let ok = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    let errors = AtomicUsize::new(0);
    // Latency lives in a pv-obs histogram, not a per-worker Vec: the
    // handle is one relaxed atomic add per request from any thread, and
    // the percentiles come out of the same log-linear buckets the
    // server's own telemetry uses.
    let registry = pv_obs::Registry::new();
    let latency = registry.histogram("pvx_bench_request_us");
    let workers = opts.concurrency.max(1);
    let t0 = std::time::Instant::now();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let share = opts.requests / workers + usize::from(w < opts.requests % workers);
            let (ok, shed, errors) = (&ok, &shed, &errors);
            let latency = latency.clone();
            scope.spawn(move || {
                let mut conn: Option<(pv_service::Client, String)> = None;
                for _ in 0..share {
                    if conn.is_none() {
                        match pv_service::Client::connect(&opts.addr) {
                            Ok(mut c) => match c.load_builtin(&opts.builtin) {
                                Ok(info) => conn = Some((c, info.handle)),
                                Err(pv_service::ServiceError::Unavailable { .. }) => {
                                    shed.fetch_add(1, Ordering::Relaxed);
                                    continue;
                                }
                                Err(_) => {
                                    errors.fetch_add(1, Ordering::Relaxed);
                                    continue;
                                }
                            },
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                        }
                    }
                    let (c, handle) = conn.as_mut().expect("connected above");
                    let rt0 = latency.start();
                    let outcome = if opts.stream_chunk == 0 {
                        c.check(handle, &opts.xml, 1, true)
                    } else {
                        c.check_stream(handle, opts.xml.as_bytes().chunks(opts.stream_chunk))
                    };
                    match outcome {
                        Ok(_) => {
                            // Only completed checks count toward the
                            // latency distribution: a shed answer is
                            // fast precisely because nothing ran, and
                            // mixing it in would flatter the tail.
                            latency.observe_since(rt0);
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(pv_service::ServiceError::Unavailable { .. }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                            conn = None;
                        }
                        Err(pv_service::ServiceError::Remote(_)) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            conn = None;
                        }
                    }
                }
            });
        }
    });
    let elapsed = t0.elapsed();
    drop(flood);
    let (ok, shed, errors) =
        (ok.into_inner(), shed.into_inner(), errors.into_inner());
    let rps = ok as f64 / elapsed.as_secs_f64().max(1e-9);
    let shed_rate = shed as f64 / (opts.requests.max(1)) as f64;
    let status = if errors == 0 { Status::Ok } else { Status::Error };
    let lat = latency.snapshot();
    let mode = match opts.stream_chunk {
        0 => "check".to_owned(),
        chunk => format!("stream{chunk}"),
    };
    if opts.json {
        let line = format!(
            "{{\"group\":\"bench_serve\",\"id\":\"{}-{mode}-c{}-f{}\",\"requests\":{},\"ok\":{ok},\
             \"shed\":{shed},\"errors\":{errors},\"elapsed_ms\":{},\"rps\":{rps:.1},\
             \"shed_rate\":{shed_rate:.4},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\
             \"max_us\":{}}}\n",
            opts.builtin,
            workers,
            opts.flood,
            opts.requests,
            elapsed.as_millis(),
            lat.p50(),
            lat.p95(),
            lat.p99(),
            lat.max,
        );
        (line, status)
    } else {
        (
            format!(
                "bench-serve: {} {mode} requests, {} workers, flood {} → ok {ok}, shed {shed}, \
                 errors {errors} in {} ms ({rps:.1} req/s, shed rate {:.1}%)\n\
                 latency: p50 {} µs · p95 {} µs · p99 {} µs · max {} µs\n",
                opts.requests,
                workers,
                opts.flood,
                elapsed.as_millis(),
                shed_rate * 100.0,
                lat.p50(),
                lat.p95(),
                lat.p99(),
                lat.max,
            ),
            status,
        )
    }
}

/// Options for the `pvx top` live telemetry view.
pub struct TopOpts {
    /// Server address (socket path or host:port).
    pub addr: String,
    /// Delay between samples.
    pub interval: std::time::Duration,
    /// Frames to print before exiting; `0` runs until interrupted, with
    /// each frame redrawing the screen instead of scrolling.
    pub count: usize,
}

fn top_counter(m: &json::Json, name: &str) -> u64 {
    m.get("counters").and_then(|c| c.get(name)).and_then(json::Json::as_u64).unwrap_or(0)
}

fn top_gauge(m: &json::Json, name: &str) -> u64 {
    m.get("gauges").and_then(|g| g.get(name)).and_then(json::Json::as_u64).unwrap_or(0)
}

/// `(count, p50, p95, p99, max)` of a histogram in a `METRICS` reply.
fn top_hist(m: &json::Json, name: &str) -> (u64, u64, u64, u64, u64) {
    let h = m.get("histograms").and_then(|hs| hs.get(name));
    let f = |k: &str| h.and_then(|h| h.get(k)).and_then(json::Json::as_u64).unwrap_or(0);
    (f("count"), f("p50"), f("p95"), f("p99"), f("max"))
}

fn top_frame(m: &json::Json, addr: &str, rps: Option<f64>) -> String {
    let mut out = String::new();
    let uptime_s = m.get("uptime_ms").and_then(json::Json::as_u64).unwrap_or(0) as f64 / 1e3;
    let requests = top_counter(m, "pv_service_requests_total");
    let rate = rps.map_or(String::new(), |r| format!(" ({r:.1} req/s)"));
    let _ = writeln!(out, "pvx top — {addr} · uptime {uptime_s:.1} s");
    let _ = writeln!(
        out,
        "requests {requests}{rate} · documents {} · ok {} · shed {} · app errors {}",
        top_counter(m, "pv_service_documents_total"),
        top_counter(m, "pv_service_ok_total"),
        top_counter(m, "pv_service_shed_total"),
        top_counter(m, "pv_service_app_error_total"),
    );
    let (count, p50, p95, p99, max) = top_hist(m, "pv_service_check_us");
    let _ = writeln!(
        out,
        "check latency: p50 {p50} µs · p95 {p95} µs · p99 {p99} µs · max {max} µs ({count} reqs)"
    );
    let _ = writeln!(
        out,
        "stage p95: read {} µs · recognize {} µs · serialize {} µs",
        top_hist(m, "pv_service_read_us").2,
        top_hist(m, "pv_service_recognize_us").2,
        top_hist(m, "pv_service_serialize_us").2,
    );
    let (hits, misses) = (
        top_counter(m, "pv_engine_memo_hits_total"),
        top_counter(m, "pv_engine_memo_misses_total"),
    );
    let hit_rate = if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 };
    let _ = writeln!(
        out,
        "memo: {hits} hits / {misses} misses ({:.1}% hit rate) · flushes {} · specs denied {}",
        hit_rate * 100.0,
        top_counter(m, "pv_engine_memo_flushes_total"),
        top_counter(m, "pv_engine_specs_denied_total"),
    );
    let _ = writeln!(
        out,
        "pool: regions {} · tasks {} · parks {}",
        top_counter(m, "pv_pool_regions_total"),
        top_counter(m, "pv_pool_tasks_total"),
        top_counter(m, "pv_pool_parks_total"),
    );
    let _ = writeln!(
        out,
        "governor: conns {} · inflight {} · busy {} · draining {} · idle timeouts {}",
        top_gauge(m, "pv_service_connections"),
        top_gauge(m, "pv_service_inflight"),
        top_counter(m, "pv_service_busy_total"),
        top_counter(m, "pv_service_draining_total"),
        top_counter(m, "pv_service_idle_timeout_total"),
    );
    let slow = m.get("slow").and_then(json::Json::as_arr).unwrap_or(&[]);
    for t in slow.iter().rev().take(3) {
        let op = t.get("op").and_then(json::Json::as_str).unwrap_or("?");
        let total = t.get("total_us").and_then(json::Json::as_u64).unwrap_or(0);
        let stages: Vec<String> = t
            .get("stages")
            .and_then(json::Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|s| {
                let s = s.as_arr()?;
                Some(format!("{} {} µs", s.first()?.as_str()?, s.get(1)?.as_u64()?))
            })
            .collect();
        let _ = writeln!(out, "slow: {op} {total} µs [{}]", stages.join(", "));
    }
    out
}

/// `pvx top`: polls the server's `METRICS` verb and renders a compact
/// terminal view — request rate, latency percentiles, stage breakdown,
/// memo hit rate, pool and governor pressure, and the latest slow
/// traces. Prints frames itself (the view is open-ended); returns the
/// exit status.
pub fn cmd_top(opts: &TopOpts) -> Status {
    let mut client = match pv_service::Client::connect(&opts.addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("top: cannot connect to {}: {e}", opts.addr);
            return Status::Error;
        }
    };
    let live = opts.count == 0;
    let mut prev: Option<u64> = None;
    let mut frames = 0usize;
    loop {
        let m = match client.metrics() {
            Ok(m) => m,
            Err(e) => {
                eprintln!("top: METRICS request failed: {e}");
                return Status::Error;
            }
        };
        let requests = top_counter(&m, "pv_service_requests_total");
        let rps = prev.map(|p| {
            requests.saturating_sub(p) as f64 / opts.interval.as_secs_f64().max(1e-9)
        });
        prev = Some(requests);
        let frame = top_frame(&m, &opts.addr, rps);
        if live {
            // Redraw in place: clear the screen, home the cursor.
            print!("\x1b[2J\x1b[H{frame}");
        } else {
            print!("{frame}");
        }
        let _ = std::io::Write::flush(&mut std::io::stdout());
        frames += 1;
        if !live && frames >= opts.count {
            return Status::Ok;
        }
        std::thread::sleep(opts.interval);
    }
}

/// `pvx validate`: standard DTD validity.
pub fn cmd_validate(
    ctx: &DtdContext,
    name: &str,
    doc: &Document,
    ignore_whitespace: bool,
) -> (String, Status) {
    match validate_document_with(
        doc,
        &ctx.analysis.dtd,
        ctx.analysis.root,
        ValidateOptions { ignore_whitespace },
    ) {
        Ok(()) => (format!("{name}: VALID\n"), Status::Ok),
        Err(e) => (format!("{name}: INVALID\n  {e}\n"), Status::Failed),
    }
}

/// `pvx complete`: print the extension witness.
pub fn cmd_complete(ctx: &DtdContext, name: &str, doc: &Document) -> (String, Status) {
    let toks = match Tokens::delta(doc, doc.root(), &ctx.analysis.dtd) {
        Ok(t) => t,
        Err(e) => return (format!("{name}: {e}\n"), Status::Error),
    };
    match complete_tokens(&toks, &ctx.analysis.dtd, ctx.analysis.root) {
        None => (
            format!("{name}: not potentially valid — no completion exists\n"),
            Status::Failed,
        ),
        Some(w) => {
            let mut report = String::new();
            let _ = writeln!(report, "{name}: completable with {} inserted element(s)", w.inserted_count());
            let _ = writeln!(report, "  {}", w.render_marked(&ctx.analysis.dtd));
            if let Some(completed) = complete_document(doc, &ctx.analysis.dtd, ctx.analysis.root)
            {
                let _ = writeln!(report, "completed document:");
                let _ = writeln!(report, "{}", completed.to_xml());
            }
            (report, Status::Ok)
        }
    }
}

/// `pvx classify`: DTD statistics and recursion class.
pub fn cmd_classify(ctx: &DtdContext) -> (String, Status) {
    let a = &ctx.analysis;
    let mut report = String::new();
    let _ = writeln!(report, "dtd: {} (root <{}>)", ctx.source, a.name(a.root));
    let _ = writeln!(report, "  {}", a.stats);
    let _ = writeln!(report, "  class: {}", a.rec.class);
    match a.rec.strong_chain_bound() {
        Some(c) => {
            let _ = writeln!(
                report,
                "  elision chains bounded by {c}: no depth bound needed (WebDB'04 regime)"
            );
        }
        None => {
            let _ = writeln!(
                report,
                "  PV-strong recursion: checking uses a depth bound (default {})",
                pv_core::depth::DEFAULT_STRONG_DEPTH
            );
        }
    }
    let recursive: Vec<&str> = a
        .dtd
        .ids()
        .filter(|&x| a.rec.is_recursive(x))
        .map(|x| a.name(x))
        .collect();
    if !recursive.is_empty() {
        let _ = writeln!(report, "  recursive elements: {}", recursive.join(", "));
    }
    let strong: Vec<&str> =
        a.dtd.ids().filter(|&x| a.rec.is_strong(x)).map(|x| a.name(x)).collect();
    if !strong.is_empty() {
        let _ = writeln!(report, "  PV-strong elements: {}", strong.join(", "));
    }
    (report, Status::Ok)
}

/// `pvx lint`: DTD diagnostics.
pub fn cmd_lint(ctx: &DtdContext) -> (String, Status) {
    let a = &ctx.analysis;
    let mut report = String::new();
    let mut findings = 0usize;

    for x in a.dtd.ids() {
        if matches!(a.dtd.element(x).content, ContentSpec::Children(_))
            && !ContentAutomata::for_element(&a.dtd, x).is_deterministic()
        {
            findings += 1;
            let _ = writeln!(
                report,
                "warning: content model of <{}> is not 1-unambiguous (XML appendix E \
                 requires deterministic models): {}",
                a.name(x),
                a.dtd.model_to_string(x)
            );
        }
        if a.rec.is_strong(x) {
            findings += 1;
            let _ = writeln!(
                report,
                "note: <{}> is PV-strong recursive; potential-validity checks for this DTD \
                 use a depth bound (Example 5 of the paper shows why)",
                a.name(x)
            );
        }
        if matches!(a.dtd.element(x).content, ContentSpec::Any) {
            findings += 1;
            let _ = writeln!(
                report,
                "note: <{}> declares ANY content; its element-content checks are trivially \
                 satisfied (paper Section 4)",
                a.name(x)
            );
        }
    }
    if findings == 0 {
        let _ = writeln!(report, "clean: no findings for {} element types", a.stats.m);
    }
    (report, Status::Ok)
}

/// `pvx analyze`: the full static-analysis report — recursion class,
/// per-model determinism witnesses, and speculation-budget certification.
///
/// Exit codes: `0` when the DTD is budget-certified, `1` when flagged
/// (PV-strong recursive or static bound past the runtime budget), `2`
/// when the DTD itself cannot be resolved/compiled (handled upstream).
/// `--json` emits one line with a stable schema: `ok`, `dtd`, `root`,
/// `class`, `elements`, `deterministic`, `ambiguous` (array of
/// `{element, symbol, witness}`), `budget` (`{certified, applied, full,
/// static_bound, reason, witness}`; `applied` is the budget checks run
/// with, the full default for every DTD), and top-level `certified`.
pub fn cmd_analyze(ctx: &DtdContext, json_out: bool) -> (String, Status) {
    let a = &ctx.analysis;
    let report = pv_dtd::StaticReport::analyze(a);
    let status = if report.budget.is_certified() { Status::Ok } else { Status::Failed };

    if json_out {
        let mut line = String::from("{\"ok\":true,\"dtd\":");
        json::write_str(&mut line, &ctx.source);
        line.push_str(",\"root\":");
        json::write_str(&mut line, a.name(a.root));
        line.push_str(",\"class\":");
        json::write_str(&mut line, &report.class.to_string());
        let _ = write!(
            line,
            ",\"elements\":{},\"deterministic\":{},\"ambiguous\":[",
            a.stats.m,
            report.deterministic()
        );
        for (i, m) in report.ambiguous().enumerate() {
            let pv_dtd::Determinism::Ambiguous(w) = &m.determinism else { continue };
            if i > 0 {
                line.push(',');
            }
            line.push_str("{\"element\":");
            json::write_str(&mut line, a.name(m.elem));
            line.push_str(",\"symbol\":");
            json::write_str(&mut line, &w.symbol);
            line.push_str(",\"witness\":");
            json::write_str(&mut line, &w.to_string());
            line.push('}');
        }
        let b = &report.budget;
        let _ = write!(
            line,
            "],\"budget\":{{\"certified\":{},\"applied\":{},\"full\":{}",
            b.is_certified(),
            b.full_budget,
            b.full_budget
        );
        match b.static_bound {
            Some(s) => {
                let _ = write!(line, ",\"static_bound\":{s}");
            }
            None => line.push_str(",\"static_bound\":null"),
        }
        match &b.verdict {
            pv_dtd::BudgetVerdict::Certified { .. } => {
                line.push_str(",\"reason\":null,\"witness\":[]");
            }
            pv_dtd::BudgetVerdict::Flagged { reason, witness } => {
                line.push_str(",\"reason\":");
                json::write_str(&mut line, reason);
                line.push_str(",\"witness\":[");
                for (i, w) in witness.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    json::write_str(&mut line, w);
                }
                line.push(']');
            }
        }
        let _ = write!(line, "}},\"certified\":{}}}", b.is_certified());
        line.push('\n');
        return (line, status);
    }

    let mut out = String::new();
    let _ = writeln!(out, "dtd: {} (root <{}>)", ctx.source, a.name(a.root));
    let _ = writeln!(out, "  class: {}", report.class);
    let ambiguous = report.ambiguous().count();
    if ambiguous == 0 {
        let _ = writeln!(
            out,
            "  determinism: all {} content models 1-unambiguous",
            a.stats.m
        );
    } else {
        let _ = writeln!(
            out,
            "  determinism: {ambiguous} of {} content models 1-ambiguous",
            a.stats.m
        );
        for m in report.ambiguous() {
            let pv_dtd::Determinism::Ambiguous(w) = &m.determinism else { continue };
            let _ = writeln!(out, "    <{}>: {w}", a.name(m.elem));
        }
    }
    let b = &report.budget;
    match &b.verdict {
        pv_dtd::BudgetVerdict::Certified { budget } => {
            let _ = writeln!(
                out,
                "  budget: certified {budget} per symbol ≤ full default {} (static bound {})",
                b.full_budget,
                b.static_bound.unwrap_or(0)
            );
            let _ = writeln!(
                out,
                "    certificate: checks run the full default budget and no speculation \
                 round can use it up (specs_denied = 0)"
            );
        }
        pv_dtd::BudgetVerdict::Flagged { reason, witness } => {
            let _ = writeln!(out, "  budget: NOT certified — {reason}");
            if !witness.is_empty() {
                let _ = writeln!(out, "    witness chain: {}", witness.join(" -> "));
            }
            let _ = writeln!(
                out,
                "    checking runs with the full budget {} (speculation may be cut \
                 short on adversarial inputs)",
                b.full_budget
            );
        }
    }
    let _ = writeln!(
        out,
        "verdict: {}",
        if b.is_certified() { "certified" } else { "flagged" }
    );
    (out, status)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_ctx() -> DtdContext {
        resolve_dtd(None, None, Some("figure1"), None).unwrap()
    }

    /// `pvx check --builtin figure1` on `xml`.
    fn check_fig1(name: &str, xml: &str, opts: &CheckOpts) -> (String, Status) {
        cmd_check(None, None, Some("figure1"), name, xml, opts)
    }


    #[test]
    fn resolve_builtin() {
        let ctx = fig1_ctx();
        assert_eq!(ctx.analysis.stats.m, 7);
        assert!(resolve_dtd(None, None, Some("nope"), None).is_err());
    }

    #[test]
    fn resolve_explicit_dtd() {
        let ctx =
            resolve_dtd(Some("<!ELEMENT r EMPTY>"), Some("r"), None, None).unwrap();
        assert_eq!(ctx.analysis.stats.m, 1);
        assert!(resolve_dtd(Some("<!ELEMENT r EMPTY>"), None, None, None).is_err());
    }

    #[test]
    fn resolve_internal_subset() {
        let doc = pv_xml::parse("<!DOCTYPE r [<!ELEMENT r (#PCDATA)>]><r>x</r>").unwrap();
        let ctx = resolve_dtd(None, None, None, Some(&doc)).unwrap();
        assert_eq!(ctx.source, "internal subset");
        let plain = pv_xml::parse("<r/>").unwrap();
        assert!(resolve_dtd(None, None, None, Some(&plain)).is_err());
    }

    const S: &str = "<r><a><b>x</b><c>y</c> z<e/></a></r>";
    const W: &str = "<r><a><b>x</b><e/><c>y</c></a></r>";

    #[test]
    fn check_reports_both_ways() {
        let (rep, st) = check_fig1("s", S, &CheckOpts::default());
        assert_eq!(st, Status::Ok);
        assert!(rep.contains("POTENTIALLY VALID"));
        assert!(rep.contains("memo:"), "memo telemetry line expected: {rep}");
        let (rep, st) = check_fig1("w", W, &CheckOpts::default());
        assert_eq!(st, Status::Failed);
        assert!(rep.contains("NOT potentially valid"));
        assert!(rep.contains("<c>"));
    }

    #[test]
    fn check_json_line_is_parseable_and_complete() {
        let json_opts = CheckOpts { json: true, ..CheckOpts::default() };
        let (line, st) = check_fig1("s.xml", S, &json_opts);
        assert_eq!(st, Status::Ok);
        let v = json::parse(line.trim_end()).unwrap();
        assert_eq!(v.get("potentially_valid").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("doc").unwrap().as_str(), Some("s.xml"));
        assert_eq!(v.get("verdict").unwrap().as_str(), Some("potentially-valid"));
        assert!(v.get("violation_text").unwrap().is_null());
        assert!(v.get("outcome").unwrap().get("stats").is_some());
        assert!(v.get("memo").unwrap().get("hits").is_some());

        let (line, st) = check_fig1("w.xml", W, &json_opts);
        assert_eq!(st, Status::Failed);
        let v = json::parse(line.trim_end()).unwrap();
        assert_eq!(v.get("potentially_valid").unwrap().as_bool(), Some(false));
        let outcome = json::read_outcome(v.get("outcome").unwrap()).unwrap();
        assert!(matches!(
            outcome.violation.unwrap().kind,
            pv_core::checker::PvViolationKind::ContentRejected { index: 2, .. }
        ));
        assert!(v.get("violation_text").unwrap().as_str().unwrap().contains("<c>"));
    }

    #[test]
    fn check_memo_off_drops_telemetry_but_keeps_the_verdict() {
        let (with_memo, st1) = check_fig1("s", S, &CheckOpts::default());
        let memo_off = CheckOpts { memo: false, ..CheckOpts::default() };
        let (without, st2) = check_fig1("s", S, &memo_off);
        assert_eq!(st1, st2);
        assert!(!without.contains("memo:"), "{without}");
        assert_eq!(strip_memo_lines(&with_memo), without);
    }

    /// Drops the `memo:` telemetry line (the cache counters, which a
    /// streaming or memo-off check does not report).
    fn strip_memo_lines(report: &str) -> String {
        report
            .lines()
            .filter(|l| !l.trim_start().starts_with("memo:"))
            .map(|l| format!("{l}\n"))
            .collect()
    }

    #[test]
    fn check_stream_reports_match_the_byte_check() {
        let docs = [
            "<r><a><b>x</b><c>y</c> z<e/></a></r>",
            "<r><a><b>x</b><e/><c>y</c></a></r>",
            "<r><zzz/></r>",
            "<wrong/>",
        ];
        for xml in docs {
            for json in [false, true] {
                let opts = CheckOpts { json, ..CheckOpts::default() };
                let (byte_rep, byte_st) = check_fig1("d", xml, &opts);
                for chunk in [1usize, 7, xml.len()] {
                    let mut input = xml.as_bytes();
                    let (rep, st) = cmd_check_stream(
                        None,
                        None,
                        Some("figure1"),
                        "d",
                        &mut input,
                        chunk,
                        &opts,
                    );
                    // Streaming never consults the memo; everything else —
                    // verdict, diagnosis, counters — is bit-identical.
                    assert_eq!(st, byte_st, "chunk={chunk} xml={xml}");
                    if json {
                        let a = json::parse(rep.trim_end()).unwrap();
                        let b = json::parse(byte_rep.trim_end()).unwrap();
                        assert!(a.get("memo").unwrap().is_null());
                        for key in ["doc", "verdict", "violation_text", "dtd", "class"] {
                            assert_eq!(
                                format!("{:?}", a.get(key)),
                                format!("{:?}", b.get(key)),
                                "key={key} chunk={chunk} xml={xml}"
                            );
                        }
                        assert_eq!(
                            json::read_outcome(a.get("outcome").unwrap()).unwrap(),
                            json::read_outcome(b.get("outcome").unwrap()).unwrap(),
                            "chunk={chunk} xml={xml}"
                        );
                    } else {
                        assert_eq!(rep, strip_memo_lines(&byte_rep), "chunk={chunk} xml={xml}");
                    }
                }
            }
        }
    }

    #[test]
    fn check_stream_resolves_the_internal_subset() {
        let xml = "<!DOCTYPE r [<!ELEMENT r (#PCDATA)>]><r>x</r>";
        let (rep, st) = cmd_check_stream(
            None,
            None,
            None,
            "d",
            &mut xml.as_bytes(),
            3,
            &CheckOpts::default(),
        );
        assert_eq!(st, Status::Ok, "{rep}");
        assert!(rep.contains("internal subset"), "{rep}");
        let plain = "<r/>";
        let (rep, st) = cmd_check_stream(
            None,
            None,
            None,
            "d",
            &mut plain.as_bytes(),
            3,
            &CheckOpts::default(),
        );
        assert_eq!(st, Status::Error);
        assert!(rep.contains("DOCTYPE"), "{rep}");
    }

    #[test]
    fn check_stream_rejects_malformed_and_truncated_input() {
        let full = "<r><a><b>x</b><c>y</c> z<e/></a></r>";
        for cut in [1, full.len() / 2, full.len() - 1] {
            let (rep, st) = cmd_check_stream(
                None,
                None,
                Some("figure1"),
                "d",
                &mut &full.as_bytes()[..cut],
                4,
                &CheckOpts::default(),
            );
            assert_eq!(st, Status::Error, "cut={cut}: {rep}");
            assert!(rep.contains("not well-formed"), "cut={cut}: {rep}");
        }
        let (rep, st) = cmd_check_stream(
            None,
            None,
            Some("figure1"),
            "d",
            &mut "<r></q>".as_bytes(),
            4,
            &CheckOpts::default(),
        );
        assert_eq!(st, Status::Error);
        assert!(rep.contains("not well-formed"), "{rep}");
    }

    #[test]
    fn validate_reports_both_ways() {
        let ctx = fig1_ctx();
        let ok = pv_xml::parse("<r><a><b><d>x</d></b><c>y</c><d/></a></r>").unwrap();
        assert_eq!(cmd_validate(&ctx, "ok", &ok, false).1, Status::Ok);
        let bad = pv_xml::parse("<r><a><b>x</b><c>y</c> z<e/></a></r>").unwrap();
        assert_eq!(cmd_validate(&ctx, "bad", &bad, false).1, Status::Failed);
    }

    #[test]
    fn complete_marks_insertions() {
        let ctx = fig1_ctx();
        let s = pv_xml::parse("<r><a><b>x</b><c>y</c> z<e/></a></r>").unwrap();
        let (rep, st) = cmd_complete(&ctx, "s", &s);
        assert_eq!(st, Status::Ok);
        assert!(rep.contains("2 inserted"));
        assert!(rep.contains("•<d>"));
        let w = pv_xml::parse("<r><a><b>x</b><e/><c>y</c></a></r>").unwrap();
        assert_eq!(cmd_complete(&ctx, "w", &w).1, Status::Failed);
    }

    #[test]
    fn classify_names_classes() {
        let (rep, _) = cmd_classify(&fig1_ctx());
        assert!(rep.contains("non-recursive"));
        let t1 = resolve_dtd(None, None, Some("t1"), None).unwrap();
        let (rep, _) = cmd_classify(&t1);
        assert!(rep.contains("PV-strong"));
        assert!(rep.contains("depth bound"));
    }

    #[test]
    fn lint_finds_ambiguity_and_strength() {
        let ctx = resolve_dtd(
            Some(
                "<!ELEMENT r ((a, b) | (a, c))><!ELEMENT a (a?)>
                 <!ELEMENT b EMPTY><!ELEMENT c ANY>",
            ),
            Some("r"),
            None,
            None,
        )
        .unwrap();
        let (rep, st) = cmd_lint(&ctx);
        assert_eq!(st, Status::Ok);
        assert!(rep.contains("not 1-unambiguous"), "{rep}");
        assert!(rep.contains("PV-strong recursive"), "{rep}");
        assert!(rep.contains("ANY content"), "{rep}");
    }

    #[test]
    fn lint_clean_dtd() {
        let (rep, _) = cmd_lint(&fig1_ctx());
        assert!(rep.contains("clean"), "{rep}");
    }

    #[test]
    fn status_codes() {
        assert_eq!(Status::Ok.code(), 0);
        assert_eq!(Status::Failed.code(), 1);
        assert_eq!(Status::Error.code(), 2);
    }
}
