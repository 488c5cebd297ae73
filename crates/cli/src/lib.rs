//! # pv-cli — the `pvx` command-line tool
//!
//! A front end over the potential-validity stack for shell use:
//!
//! ```text
//! pvx check    [--dtd FILE --root NAME] [--depth N] [--stream] [--remote ADDR] DOC.xml…
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
//! * `lint` — DTD diagnostics on the declared content models: models
//!   that are not 1-unambiguous (judged by [`pv_dtd::glushkov`]),
//!   PV-strong recursive elements and `ANY` content.
//!
//! Every command finds its DTD by one rule ([`resolve_dtd`]): `--builtin`,
//! then `--dtd` with `--root`, then the document's internal subset
//! (`<!DOCTYPE root [ … ]>`), with `--root` as override. `check` has one
//! per-document path, [`CheckRun::check`], for its four modes (local,
//! `--stream`, `--remote`, `--stream --remote`): it reads the prolog
//! with one push parser when the prolog carries the DTD, resolves the
//! DTD, and hands the document to the mode's checker; the streamed modes
//! read the file as they go. The library part of this crate (this
//! module) holds the testable command implementations and the argv
//! reader: every flag is declared once in one table (`FLAGS`) with what
//! it takes and the commands that take it, and [`Args::parse`] refuses
//! any other use. `src/bin/pvx.rs` is a thin wrapper.

use pv_core::checker::PvOutcome;
use pv_core::depth::DepthPolicy;
use pv_core::memo::MemoStats;
use pv_core::stream::StreamCheck;
use pv_core::token::Tokens;
use pv_core::CheckEngine;
use pv_dtd::builtin::BuiltinDtd;
use pv_dtd::{ContentSpec, Dtd, DtdAnalysis};
use pv_grammar::validator::{validate_document_with, ValidateOptions};
use pv_grammar::witness::{complete_document, complete_tokens};
use pv_service::{json, Client};
use pv_xml::{Doctype, Document};
use std::fmt::Write as _;
use std::io::Read;

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

/// The `pvx` usage text.
pub const USAGE: &str = "\
pvx — potential validity of document-centric XML (ICDE 2006)

USAGE:
  pvx check    [--dtd FILE --root NAME | --builtin NAME] [--depth N] [--no-memo]
               [--json] [-v] [--stream [--chunk-size N]] [--remote ADDR] DOC.xml...
  pvx validate [--dtd FILE --root NAME | --builtin NAME] [--ignore-whitespace] DOC.xml...
  pvx complete [--dtd FILE --root NAME | --builtin NAME] DOC.xml
  pvx classify (--dtd FILE --root NAME | --builtin NAME)
  pvx lint     (--dtd FILE --root NAME | --builtin NAME)
  pvx analyze  (--dtd FILE --root NAME | --builtin NAME) [--json]
  pvx serve    (--socket PATH | --port N) [--jobs N] [--max-conns N]
               [--max-inflight N] [--idle-timeout-ms N] [--read-timeout-ms N]
               [--write-timeout-ms N] [--drain-ms N] [--max-payload BYTES]
               [--max-request BYTES] [--access-log] [--strict-load]
               [--metrics-port N]
  pvx top      ADDR [--interval-ms N] [--count N]
  pvx bench-serve --remote ADDR [--builtin NAME] [--doc FILE]
               [--requests N] [--concurrency N] [--flood N]
               [--stream [--chunk-size N]] [--json]

The DTD comes from --builtin, else --dtd with --root, else the
document's internal DTD subset (<!DOCTYPE root [ ... ]>, rooted at
--root when given). Builtins: figure1, t1, t2, xhtml-basic, tei-lite,
play, docbook-like, dissertation, docbook-article, tei-drama.

`check` checks each document on the calling thread, lexing its bytes
straight into the checker without building a tree: a single document
is never split over threads, so --jobs belongs to `serve` alone and is
refused elsewhere (exit 2). `check` memoizes repeated recognizer steps
(configuration, child symbol) in a transition cache and reports its
telemetry on a trailing `memo:` line (symbols hit and missed, cached
transitions); with --no-memo the document is checked with no cache at
all, locally or over --remote. The verdict and the diagnosis are
identical either way.

--json makes `check` print one machine-readable JSON line per document
(verdict, first violation, memo/speculation counters) instead of text.
-v adds a one-line `analysis:` summary (recursion class, determinism,
speculation-budget certificate) to each text-mode `check` report.

Each command takes only the flags on its lines above; any other flag is
refused (exit 2) with a message naming the commands that take it.

`pvx lint` judges determinism on the declared content models, as XML
appendix E states it (so `(a?, a)` is 1-ambiguous); `pvx analyze` judges
the PV-normalized models the recognizer runs (`?` dropped, `+` widened
to `*`), where `(a?, a)` is deterministic. Both run one Glushkov
construction.

`pvx analyze` runs the static DTD analyzer: Glushkov 1-unambiguity per
PV-normalized content model (with a concrete witness pair on ambiguity)
and a static speculation-budget certificate — a proof that the full
budget every check runs with is never used up (`specs_denied == 0`).
--json emits one stable machine-readable object. Exit codes:
0 = budget-certified, 1 = flagged (analysis ran; certification
refused), 2 = error.

--stream reads the document in chunks (default 64 KiB, --chunk-size N)
instead of whole, pushing them through the SAX-style event front end
and validating as it parses, in O(depth) memory, with a verdict and
counters bit-identical to the default check. With --remote the chunks
upload as one CHECK_STREAM request, each read from the file as the
upload goes, while the server validates them. Either way the client
holds at most one chunk plus the prolog, which is read first when it
carries the DTD. --no-memo does not apply to streaming checks.

`pvx serve` runs the resident validation server: a persistent pool of
--jobs N parked workers (default 0 = one per CPU; a worker the OS cannot
start is an error, exit 2) that checks each BATCH request one document
per task, and, per loaded DTD, pre-compiled DAGs plus a warm
transition cache lent to one check at a time across requests.
`pvx check --remote ADDR` ships documents to such a server (ADDR is the
socket path or host:port), which lexes and checks them, and renders the
bit-identical outcome; the DTD (from the flags, or the internal subset
of each document's prolog) is loaded (idempotently) into the server on
first use.

`pvx serve` governance: --max-conns caps concurrent connections (excess
gets a clean BUSY error; 0 = unlimited), --max-inflight caps concurrent
pool-bound checks (excess is shed per request), --idle-timeout-ms reaps
connections idle between requests, --read/--write-timeout-ms bound each
transfer, --drain-ms bounds the graceful drain after SHUTDOWN, and
--max-payload/--max-request cap request sizes. A timeout value of 0
disables that deadline. --access-log prints one structured line per
request (op, handle, bytes, duration, verdict, disposition) to stderr.
--strict-load refuses LOAD/BUILTIN of DTDs the static analyzer cannot
budget-certify (see `pvx analyze`).

`pvx serve --metrics-port N` additionally serves the telemetry registry
over HTTP on 127.0.0.1:N: GET /metrics answers in the Prometheus text
exposition format, GET /metrics.json mirrors the wire protocol's
METRICS verb (counters, gauges, latency histograms with
p50/p95/p99/max, recent slow-request traces). `pvx top ADDR` polls
METRICS and renders a live terminal view of the same data — request
rate, stage-level latency, memo hit rate, pool and governor pressure
(--interval-ms, default 1000; --count N prints N frames and exits,
0 = until interrupted).

`pvx bench-serve` measures a server honestly: every request counts as
exactly one of ok / shed (server said busy or draining) / error, so
throughput and shed rate are real. Completed checks feed a latency
histogram reported as p50/p95/p99/max. --flood holds N extra idle
connections open to push a --max-conns-limited server into shedding.
With --stream each request uploads the document as CHECK_STREAM chunks
(default 64 KiB, --chunk-size N); --concurrency N runs N such uploads
at once, one connection each, measuring the streaming path at service
scale.

EXIT CODES: 0 ok / potentially valid · 1 check failed · 2 usage or parse error";

/// What a `pvx` flag takes after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Takes {
    /// Nothing: the flag is a switch.
    Nothing,
    /// A word: a path, a name or an address.
    Word,
    /// A whole number from `min` to `max` (the range of what reads it).
    Number {
        /// Smallest value taken.
        min: u64,
        /// Largest value taken.
        max: u64,
    },
}

/// One `pvx` flag: its name, what it takes, and the commands [`USAGE`]
/// lists it under, which are the only ones that take it.
#[derive(Debug)]
pub(crate) struct Flag {
    /// The flag as typed.
    name: &'static str,
    /// What follows it.
    takes: Takes,
    /// The commands that take it.
    commands: &'static [&'static str],
}

const fn flag(name: &'static str, takes: Takes, commands: &'static [&'static str]) -> Flag {
    Flag { name, takes, commands }
}

const fn upto(max: u64) -> Takes {
    Takes::Number { min: 0, max }
}

const DTD_COMMANDS: &[&str] = &["check", "validate", "complete", "classify", "lint", "analyze"];
const BUILTIN_COMMANDS: &[&str] =
    &["check", "validate", "complete", "classify", "lint", "analyze", "bench-serve"];
const CHECK_OR_BENCH: &[&str] = &["check", "bench-serve"];
const SIZE: u64 = usize::MAX as u64;

/// Every `pvx` flag, each declared once. `-v` is also spelled
/// `--verbose`.
pub(crate) const FLAGS: &[Flag] = &[
    flag("--dtd", Takes::Word, DTD_COMMANDS),
    flag("--root", Takes::Word, DTD_COMMANDS),
    flag("--builtin", Takes::Word, BUILTIN_COMMANDS),
    flag("--depth", upto(u32::MAX as u64), &["check"]),
    flag("--no-memo", Takes::Nothing, &["check"]),
    flag("--json", Takes::Nothing, &["check", "analyze", "bench-serve"]),
    flag("-v", Takes::Nothing, &["check"]),
    flag("--stream", Takes::Nothing, CHECK_OR_BENCH),
    flag("--chunk-size", Takes::Number { min: 1, max: SIZE }, CHECK_OR_BENCH),
    flag("--remote", Takes::Word, CHECK_OR_BENCH),
    flag("--ignore-whitespace", Takes::Nothing, &["validate"]),
    flag("--socket", Takes::Word, &["serve"]),
    flag("--port", upto(u16::MAX as u64), &["serve"]),
    flag("--jobs", upto(SIZE), &["serve"]),
    flag("--max-conns", upto(SIZE), &["serve"]),
    flag("--max-inflight", upto(SIZE), &["serve"]),
    flag("--idle-timeout-ms", upto(u64::MAX), &["serve"]),
    flag("--read-timeout-ms", upto(u64::MAX), &["serve"]),
    flag("--write-timeout-ms", upto(u64::MAX), &["serve"]),
    flag("--drain-ms", upto(u64::MAX), &["serve"]),
    flag("--max-payload", upto(SIZE), &["serve"]),
    flag("--max-request", upto(SIZE), &["serve"]),
    flag("--access-log", Takes::Nothing, &["serve"]),
    flag("--strict-load", Takes::Nothing, &["serve"]),
    flag("--metrics-port", upto(u16::MAX as u64), &["serve"]),
    flag("--interval-ms", Takes::Number { min: 1, max: u64::MAX }, &["top"]),
    flag("--count", upto(SIZE), &["top"]),
    flag("--doc", Takes::Word, &["bench-serve"]),
    flag("--requests", upto(SIZE), &["bench-serve"]),
    flag("--concurrency", upto(SIZE), &["bench-serve"]),
    flag("--flood", upto(SIZE), &["bench-serve"]),
];

/// Every `pvx` command.
pub(crate) const COMMANDS: &[&str] = &[
    "check",
    "validate",
    "complete",
    "classify",
    "lint",
    "analyze",
    "serve",
    "top",
    "bench-serve",
];

/// Why a `pvx` command line cannot run.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// A malformed command line; the usage text follows the message.
    Usage(String),
    /// A flag the command does not take, or a pair of flags it cannot
    /// combine.
    Refused(String),
}

/// A `pvx` command line read through the flag table (`FLAGS`).
#[derive(Debug)]
pub struct Args {
    /// The command.
    pub command: String,
    /// The flags given, in order, each with its value (empty for a
    /// switch).
    given: Vec<(&'static Flag, String)>,
    /// The positional arguments: documents, or `top`'s address.
    pub docs: Vec<String>,
}

impl Args {
    /// Reads `argv` (program name excluded): each flag must be in the
    /// flag table, carry the value it takes and belong to the command.
    /// `Ok(None)` asks for the usage text (`--help`, `-h`).
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Option<Args>, ArgError> {
        let usage = |msg: String| Err(ArgError::Usage(msg));
        let mut argv = argv.into_iter();
        let Some(command) = argv.next() else { return usage("missing command".to_owned()) };
        if matches!(command.as_str(), "--help" | "-h") {
            return Ok(None);
        }
        let mut args = Args { command, given: Vec::new(), docs: Vec::new() };
        while let Some(arg) = argv.next() {
            let name = if arg == "--verbose" { "-v" } else { arg.as_str() };
            if matches!(name, "--help" | "-h") {
                return Ok(None);
            }
            let Some(flag) = FLAGS.iter().find(|f| f.name == name) else {
                if name.starts_with('-') {
                    return usage(format!("unknown flag {arg}"));
                }
                args.docs.push(arg);
                continue;
            };
            let value = match flag.takes {
                Takes::Nothing => String::new(),
                takes => {
                    let Some(v) = argv.next() else {
                        return usage(format!("{name} requires a value"));
                    };
                    if let Takes::Number { min, max } = takes {
                        match v.parse::<u64>() {
                            Ok(n) if n > max => return usage(format!("bad {name} {v:?}")),
                            Ok(n) if n < min => {
                                return usage(format!("{name} must be at least {min}"))
                            }
                            Ok(_) => {}
                            Err(_) => return usage(format!("bad {name} {v:?}")),
                        }
                    }
                    v
                }
            };
            args.given.push((flag, value));
        }
        if !COMMANDS.contains(&args.command.as_str()) {
            return usage(format!("unknown command {:?}", args.command));
        }
        let refuse = |msg: String| Err(ArgError::Refused(msg));
        let command = args.command.as_str();
        if let Some((flag, _)) = args.given.iter().find(|(f, _)| !f.commands.contains(&command)) {
            let mut names: Vec<String> =
                flag.commands.iter().map(|c| format!("`pvx {c}`")).collect();
            let last = names.pop().unwrap_or_default();
            let list = match names.len() {
                0 => last,
                _ => format!("{} and {last}", names.join(", ")),
            };
            return refuse(format!("{} is only supported by {list}", flag.name));
        }
        if args.has("--remote") && args.has("--depth") {
            // The wire protocol has no depth parameter: the server's
            // engines run under their automatic depth policy. A silently
            // different verdict would be worse than an error.
            return refuse(
                "--depth cannot be combined with --remote (the server uses its automatic \
                 depth policy)"
                    .to_owned(),
            );
        }
        if args.has("--chunk-size") && !args.has("--stream") {
            return refuse("--chunk-size requires --stream".to_owned());
        }
        Ok(Some(args))
    }

    /// The value given for flag `name` (the last, if given twice; empty
    /// for a switch).
    pub fn value(&self, name: &str) -> Option<&str> {
        debug_assert!(FLAGS.iter().any(|f| f.name == name), "{name} is not in FLAGS");
        self.given.iter().rev().find(|(f, _)| f.name == name).map(|(_, v)| v.as_str())
    }

    /// `true` if flag `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The number given for flag `name`, in a type as wide as the range
    /// the flag table gives it (checked when parsed).
    pub fn number<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.value(name).and_then(|v| v.parse().ok())
    }
}

/// Resolved DTD context for a command.
#[derive(Clone)]
pub struct DtdContext {
    /// Compiled DTD.
    pub analysis: DtdAnalysis,
    /// Where it came from (for messages).
    pub source: String,
}

/// Where a DTD comes from, by the one rule of [`dtd_source`].
enum DtdSource<'a> {
    /// `--builtin NAME`.
    Builtin(&'a str),
    /// The `--dtd` file's text, rooted at `--root`.
    File { src: &'a str, root: &'a str },
    /// A document's internal subset, rooted at `--root` or at the
    /// DOCTYPE's name.
    Subset { src: &'a str, root: &'a str },
}

/// The one DTD rule: `--builtin`, then `--dtd` (which needs `--root`),
/// then the internal subset of `doctype`, with `--root` as override.
fn dtd_source<'a>(
    dtd_src: Option<&'a str>,
    root: Option<&'a str>,
    builtin: Option<&'a str>,
    doctype: Option<&'a Doctype>,
) -> Result<DtdSource<'a>, String> {
    if let Some(name) = builtin {
        return Ok(DtdSource::Builtin(name));
    }
    if let Some(src) = dtd_src {
        let root = root.ok_or("--dtd requires --root NAME")?;
        return Ok(DtdSource::File { src, root });
    }
    let dt = doctype.ok_or("document has no <!DOCTYPE …> and no --dtd/--builtin was given")?;
    let src = dt
        .internal_subset
        .as_deref()
        .ok_or("document DOCTYPE has no internal subset; pass --dtd")?;
    Ok(DtdSource::Subset { src, root: root.unwrap_or(&dt.name) })
}

impl DtdSource<'_> {
    /// Compiles the DTD here, for a local command.
    fn analysis(self) -> Result<DtdContext, String> {
        let (analysis, source) = match self {
            DtdSource::Builtin(name) => {
                let b = BuiltinDtd::ALL.iter().copied().find(|b| b.name() == name).ok_or_else(|| {
                    format!(
                        "unknown builtin {name:?}; known: {}",
                        BuiltinDtd::ALL.map(|b| b.name()).join(", ")
                    )
                })?;
                (b.analysis(), format!("builtin:{name}"))
            }
            DtdSource::File { src, root } => {
                let analysis =
                    DtdAnalysis::parse(src, root).map_err(|e| format!("DTD error: {e}"))?;
                (analysis, "--dtd".to_owned())
            }
            DtdSource::Subset { src, root } => {
                let dtd = Dtd::parse(src).map_err(|e| format!("internal-subset DTD error: {e}"))?;
                let analysis = DtdAnalysis::new(dtd, root).map_err(|e| format!("DTD error: {e}"))?;
                (analysis, "internal subset".to_owned())
            }
        };
        Ok(DtdContext { analysis, source })
    }

    /// Loads the DTD into a server (idempotently: the server interns it
    /// by content) and returns its handle, for a remote check.
    fn load(self, client: &mut Client) -> Result<String, String> {
        let loaded = match self {
            DtdSource::Builtin(name) => client.load_builtin(name),
            DtdSource::File { src, root } | DtdSource::Subset { src, root } => {
                client.load_dtd(root, src)
            }
        };
        loaded.map(|info| info.handle).map_err(|e| e.to_string())
    }
}

/// Resolves the DTD of a local command by the one rule: `--builtin`,
/// then `--dtd` with `--root`, then the internal subset of `doctype`
/// (the document's, once its prolog is read), with `--root` as override.
pub fn resolve_dtd(
    dtd_src: Option<&str>,
    root: Option<&str>,
    builtin: Option<&str>,
    doctype: Option<&Doctype>,
) -> Result<DtdContext, String> {
    dtd_source(dtd_src, root, builtin, doctype)?.analysis()
}

/// Chunk size of `--stream` without `--chunk-size`, and of the prolog
/// read of an in-memory document.
pub const DEFAULT_CHUNK: usize = 64 * 1024;

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
    /// `--stream [--chunk-size N]`: read and check the document `N`
    /// bytes at a time instead of whole.
    pub stream: Option<usize>,
}

impl Default for CheckOpts {
    fn default() -> Self {
        CheckOpts {
            depth: DepthPolicy::Auto,
            memo: true,
            json: false,
            verbose: false,
            stream: None,
        }
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

/// Reads the next chunk of at most `size` bytes of `input` into `buf`,
/// replacing what it held; `Ok(false)` at the end of the input, `Err`
/// the report's message for a failed read. Past one default chunk the
/// buffer grows only as bytes arrive, so a huge `size` costs what the
/// input holds, never an allocation of that size.
fn read_chunk(input: &mut dyn Read, size: usize, buf: &mut Vec<u8>) -> Result<bool, String> {
    buf.clear();
    buf.reserve(size.min(DEFAULT_CHUNK));
    match input.take(size as u64).read_to_end(buf) {
        Ok(n) => Ok(n > 0),
        Err(e) => Err(format!("cannot read: {e}")),
    }
}

/// A streamed check's input: `head` (the bytes the prolog reader took),
/// then each further chunk of `input`, read when it is asked for. A read
/// error ends the chunks and is left in `failed`.
fn chunks<'r>(
    head: Vec<u8>,
    input: &'r mut dyn Read,
    size: usize,
    failed: &'r mut Option<String>,
) -> impl Iterator<Item = Vec<u8>> + 'r {
    let rest = std::iter::from_fn(move || {
        let mut buf = Vec::new();
        match read_chunk(input, size, &mut buf) {
            Ok(more) => more.then_some(buf),
            Err(msg) => {
                *failed = Some(msg);
                None
            }
        }
    });
    (!head.is_empty()).then_some(head).into_iter().chain(rest)
}

/// The one prolog reader: pushes `input`, `chunk` bytes at a time, into a
/// push parser until it emits the root start tag, by which point the
/// `<!DOCTYPE …>` (internal subset included) has been seen. Returns the
/// doctype and every byte read, for the checker to start from. `Err`
/// carries the report's message for a malformed prolog or a failed read.
fn read_prolog(input: &mut dyn Read, chunk: usize) -> Result<(Option<Doctype>, Vec<u8>), String> {
    let mut parser = pv_xml::PushParser::new();
    let (mut head, mut buf) = (Vec::new(), Vec::new());
    loop {
        match parser.next_event() {
            Err(e) => return Err(format!("not well-formed: {e}")),
            Ok(Some(_)) => break, // the root start tag: the prolog is read
            Ok(None) => {
                if read_chunk(input, chunk, &mut buf)? {
                    parser.push(&buf);
                    head.extend_from_slice(&buf);
                } else {
                    // A finished parser emits the root or fails.
                    parser.finish();
                }
            }
        }
    }
    Ok((parser.doctype().cloned(), head))
}

/// A resolved DTD, in the form the run's checker takes.
#[derive(Clone)]
enum CheckDtd {
    /// Compiled here, for a local check.
    Local(Box<DtdContext>),
    /// A server's handle, for a remote one.
    Remote(String),
}

/// One `pvx check` run over its documents: the DTD flags, the options,
/// and with `--remote` the server connection. [`CheckRun::check`] is the
/// one per-document path of all four modes, which differ only in the
/// checker:
///
/// * local: [`CheckEngine::check_str`] on the whole text, lexed in place;
/// * `--stream`: a [`StreamCheck`] fed one chunk at a time, with no
///   cache telemetry (no `memo:` line);
/// * `--remote`: one `CHECK` of the whole text;
/// * `--stream --remote`: one `CHECK_STREAM`, uploading each chunk as it
///   is read.
///
/// The verdict, diagnosis and counters are the same in every mode.
/// Streamed modes hold at most one chunk plus the prolog of the file.
pub struct CheckRun<'a> {
    dtd_src: Option<&'a str>,
    root: Option<&'a str>,
    builtin: Option<&'a str>,
    remote: Option<&'a mut Client>,
    opts: CheckOpts,
    /// The DTD the flags fix (`--builtin`, or `--dtd`), resolved once for
    /// the run, so one `LOAD` serves every remote document; `None` when
    /// each document's prolog carries its own.
    fixed: Option<Result<CheckDtd, String>>,
}

impl<'a> CheckRun<'a> {
    /// A run with these DTD flags (`--dtd`'s text, `--root`,
    /// `--builtin`), checking on `remote` when given.
    pub fn new(
        dtd_src: Option<&'a str>,
        root: Option<&'a str>,
        builtin: Option<&'a str>,
        remote: Option<&'a mut Client>,
        opts: CheckOpts,
    ) -> Self {
        let mut run = CheckRun { dtd_src, root, builtin, remote, opts, fixed: None };
        if dtd_src.is_some() || builtin.is_some() {
            run.fixed = Some(run.resolve(None));
        }
        run
    }

    /// The DTD by the one rule, compiled or loaded as the run needs it.
    fn resolve(&mut self, doctype: Option<&Doctype>) -> Result<CheckDtd, String> {
        let source = dtd_source(self.dtd_src, self.root, self.builtin, doctype)?;
        match self.remote.as_deref_mut() {
            None => source.analysis().map(|ctx| CheckDtd::Local(Box::new(ctx))),
            Some(client) => source.load(client).map(CheckDtd::Remote),
        }
    }

    /// `pvx check` on one document read from `input`: its report (text,
    /// or one JSON line) and status. A DTD that does not resolve, a
    /// malformed document, a failed read or a remote failure is an error
    /// report (exit 2).
    pub fn check(&mut self, name: &str, input: &mut dyn Read) -> (String, Status) {
        match self.check_document(input) {
            Ok(report) => render_check(name, &report, self.opts.json),
            Err(msg) => (render_check_error(name, &msg, self.opts.json), Status::Error),
        }
    }

    fn check_document(&mut self, input: &mut dyn Read) -> Result<CheckReport, String> {
        let opts = self.opts;
        let chunk = opts.stream.unwrap_or(DEFAULT_CHUNK);
        if chunk == 0 {
            // A zero chunk size would read nothing forever, and on the
            // wire a zero-length block ends the upload.
            return Err("chunk size must be at least 1 byte".to_owned());
        }
        let text = match opts.stream {
            Some(_) => None,
            None => {
                let mut text = String::new();
                input.read_to_string(&mut text).map_err(|e| format!("cannot read: {e}"))?;
                Some(text)
            }
        };
        let (dtd, head) = match &self.fixed {
            Some(fixed) => (fixed.clone()?, Vec::new()),
            None => {
                let (doctype, head) = match &text {
                    Some(text) => read_prolog(&mut text.as_bytes(), chunk)?,
                    None => read_prolog(input, chunk)?,
                };
                (self.resolve(doctype.as_ref())?, head)
            }
        };
        let not_wf = |e: pv_xml::XmlError| format!("not well-formed: {e}");
        match dtd {
            CheckDtd::Local(ctx) => {
                let engine = CheckEngine::with_policy(ctx.analysis, opts.depth);
                let (outcome, memo) = match &text {
                    Some(text) => {
                        let outcome = engine.check_str(text, opts.memo).map_err(not_wf)?;
                        (outcome, engine.memo_stats().filter(|_| opts.memo))
                    }
                    None => {
                        let (mut stream, mut failed) =
                            (StreamCheck::new(engine.stream_checker()), None);
                        for bytes in chunks(head, input, chunk, &mut failed) {
                            stream.feed(&bytes).map_err(not_wf)?;
                        }
                        if let Some(msg) = failed {
                            return Err(msg);
                        }
                        (stream.finish().map_err(not_wf)?, None)
                    }
                };
                Ok(CheckReport {
                    outcome,
                    memo,
                    source: ctx.source,
                    class: engine.analysis().rec.class.to_string(),
                    depth: engine.depth(),
                    analysis: opts.verbose.then(|| analysis_summary(engine.analysis())),
                })
            }
            CheckDtd::Remote(handle) => {
                let client = self.remote.as_deref_mut().expect("a remote DTD has a client");
                let checked = match &text {
                    // The server checks one document on its connection
                    // thread at any `jobs`; 1 says so on the wire.
                    Some(text) => client.check(&handle, text, 1, opts.memo),
                    None => {
                        let mut failed = None;
                        let checked =
                            client.check_stream(&handle, chunks(head, input, chunk, &mut failed));
                        // A read error ended the upload: it is the report.
                        if let Some(msg) = failed {
                            return Err(msg);
                        }
                        checked
                    }
                };
                let remote = checked.map_err(|e| e.to_string())?;
                Ok(CheckReport {
                    outcome: remote.outcome,
                    memo: remote.memo,
                    source: remote.label,
                    class: remote.class,
                    depth: remote.depth,
                    analysis: None,
                })
            }
        }
    }
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

/// `pvx lint`: DTD diagnostics. Determinism is judged on the *declared*
/// content models, as XML appendix E states it (`(a?, a)` is flagged);
/// `pvx analyze` judges the PV-normalized ones instead.
pub fn cmd_lint(ctx: &DtdContext) -> (String, Status) {
    let a = &ctx.analysis;
    let mut report = String::new();
    let mut findings = 0usize;

    for x in a.dtd.ids() {
        let declared = match &a.dtd.element(x).content {
            ContentSpec::Children(cp) => pv_dtd::glushkov::declared_determinism(&a.dtd, cp),
            _ => pv_dtd::Determinism::Deterministic,
        };
        if !declared.is_deterministic() {
            findings += 1;
            let _ = writeln!(
                report,
                "warning: declared content model of <{}> is not 1-unambiguous (XML \
                 appendix E requires deterministic models): {}",
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
/// Determinism is judged on the PV-normalized content models the
/// recognizer runs (`?` dropped, `+` widened to `*`), so a declared
/// ambiguity that normalizes away, such as `(a?, a)`, is not reported;
/// `pvx lint` judges the declared models.
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
            "  determinism (PV-normalized models): all {} content models 1-unambiguous",
            a.stats.m
        );
    } else {
        let _ = writeln!(
            out,
            "  determinism (PV-normalized models): {ambiguous} of {} content models 1-ambiguous",
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

    fn parse(line: &str) -> Result<Option<Args>, ArgError> {
        Args::parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn every_command_refuses_a_flag_it_does_not_take() {
        for (line, refused) in [
            (
                "check --max-conns 3 --metrics-port 9 d.xml",
                "--max-conns is only supported by `pvx serve`",
            ),
            ("validate --no-memo d.xml", "--no-memo is only supported by `pvx check`"),
            (
                "complete --ignore-whitespace d.xml",
                "--ignore-whitespace is only supported by `pvx validate`",
            ),
            (
                "classify --json --builtin t1",
                "--json is only supported by `pvx check`, `pvx analyze` and `pvx bench-serve`",
            ),
            ("lint --depth 4 --builtin t1", "--depth is only supported by `pvx check`"),
            (
                "analyze --stream --builtin t1",
                "--stream is only supported by `pvx check` and `pvx bench-serve`",
            ),
            ("serve --depth 4 --port 7", "--depth is only supported by `pvx check`"),
            ("top 127.0.0.1:7 --jobs 2", "--jobs is only supported by `pvx serve`"),
            ("bench-serve --remote a --verbose", "-v is only supported by `pvx check`"),
            (
                "validate --remote a d.xml",
                "--remote is only supported by `pvx check` and `pvx bench-serve`",
            ),
        ] {
            match parse(line) {
                Err(ArgError::Refused(msg)) => assert_eq!(msg, refused, "{line}"),
                other => panic!("{line}: {other:?}"),
            }
        }
    }

    #[test]
    fn a_leading_help_flag_asks_for_the_usage() {
        for line in ["--help", "-h", "--help check", "-h --frob", "check --help", "frob -h"] {
            assert!(matches!(parse(line), Ok(None)), "{line}");
        }
        let unknown = ArgError::Usage("unknown command \"--verbose\"".to_owned());
        assert_eq!(parse("--verbose").unwrap_err(), unknown);
    }

    #[test]
    fn flags_parse_once_with_their_rules() {
        let args = parse("check --builtin play --depth 4 -v --stream --chunk-size 9 a.xml b.xml")
            .unwrap()
            .unwrap();
        assert_eq!(args.value("--builtin"), Some("play"));
        assert_eq!(args.number::<u32>("--depth"), Some(4));
        assert!(args.has("-v") && args.has("--stream") && !args.has("--no-memo"));
        assert_eq!(args.number::<usize>("--chunk-size"), Some(9));
        assert_eq!(args.docs, ["a.xml", "b.xml"]);
        let twice = parse("check --depth 3 --depth 5 d").unwrap().unwrap();
        assert_eq!(twice.number("--depth"), Some(5u32));
        assert!(parse("lint --builtin t1 -h").unwrap().is_none());
        for (line, usage) in [
            ("", "missing command"),
            ("check --depth x d", "bad --depth \"x\""),
            ("serve --port 70000", "bad --port \"70000\""),
            ("check --dtd", "--dtd requires a value"),
            ("check --stream --chunk-size 0 d", "--chunk-size must be at least 1"),
            ("top a --interval-ms 0", "--interval-ms must be at least 1"),
            ("check --frob d", "unknown flag --frob"),
            ("frob d", "unknown command \"frob\""),
        ] {
            assert_eq!(parse(line).unwrap_err(), ArgError::Usage(usage.to_owned()), "{line}");
        }
        for (line, refused) in [
            (
                "check --remote a --depth 3 d",
                "--depth cannot be combined with --remote (the server uses its automatic depth policy)",
            ),
            ("check --chunk-size 3 d", "--chunk-size requires --stream"),
            ("bench-serve --remote a --chunk-size 3", "--chunk-size requires --stream"),
        ] {
            assert_eq!(parse(line).unwrap_err(), ArgError::Refused(refused.to_owned()), "{line}");
        }
    }

    /// Each command's lines in [`USAGE`] name exactly the flags [`FLAGS`]
    /// gives it.
    #[test]
    fn usage_lists_each_flag_under_its_commands() {
        let mut listed: Vec<(String, Vec<String>)> = Vec::new();
        let lines = USAGE.lines().skip_while(|l| l != &"USAGE:").skip(1);
        for line in lines.take_while(|l| !l.is_empty()) {
            let mut words = line.split_whitespace().peekable();
            if words.peek() == Some(&"pvx") {
                words.next();
                listed.push((words.next().unwrap().to_owned(), Vec::new()));
            }
            let flags = &mut listed.last_mut().unwrap().1;
            for w in words {
                let w = w.trim_matches(|c| matches!(c, '[' | ']' | '(' | ')'));
                if w.starts_with('-') && !flags.iter().any(|f| f == w) {
                    flags.push(w.to_owned());
                }
            }
        }
        assert_eq!(listed.iter().map(|(c, _)| c.as_str()).collect::<Vec<_>>(), COMMANDS);
        for (command, mut flags) in listed {
            flags.sort();
            let mut table: Vec<&str> =
                FLAGS.iter().filter(|f| f.commands.contains(&&*command)).map(|f| f.name).collect();
            table.sort();
            assert_eq!(flags, table, "{command}");
        }
    }

    fn fig1_ctx() -> DtdContext {
        resolve_dtd(None, None, Some("figure1"), None).unwrap()
    }

    /// `pvx check --builtin figure1` on `xml`, in the mode `opts` asks for.
    fn check_fig1(name: &str, xml: &str, opts: &CheckOpts) -> (String, Status) {
        CheckRun::new(None, None, Some("figure1"), None, *opts).check(name, &mut xml.as_bytes())
    }

    /// `pvx check --stream --chunk-size chunk` with these DTD flags.
    fn check_stream(
        builtin: Option<&str>,
        name: &str,
        xml: &str,
        chunk: usize,
        opts: &CheckOpts,
    ) -> (String, Status) {
        let opts = CheckOpts { stream: Some(chunk), ..*opts };
        CheckRun::new(None, None, builtin, None, opts).check(name, &mut xml.as_bytes())
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
        let ctx = resolve_dtd(None, None, None, doc.doctype.as_ref()).unwrap();
        assert_eq!(ctx.source, "internal subset");
        let plain = pv_xml::parse("<r/>").unwrap();
        assert!(resolve_dtd(None, None, None, plain.doctype.as_ref()).is_err());
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
                    let (rep, st) = check_stream(Some("figure1"), "d", xml, chunk, &opts);
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
        let (rep, st) = check_stream(None, "d", xml, 3, &CheckOpts::default());
        assert_eq!(st, Status::Ok, "{rep}");
        assert!(rep.contains("internal subset"), "{rep}");
        let plain = "<r/>";
        let (rep, st) = check_stream(None, "d", plain, 3, &CheckOpts::default());
        assert_eq!(st, Status::Error);
        assert!(rep.contains("DOCTYPE"), "{rep}");
    }

    #[test]
    fn check_stream_rejects_malformed_and_truncated_input() {
        let full = "<r><a><b>x</b><c>y</c> z<e/></a></r>";
        for cut in [1, full.len() / 2, full.len() - 1] {
            let (rep, st) =
                check_stream(Some("figure1"), "d", &full[..cut], 4, &CheckOpts::default());
            assert_eq!(st, Status::Error, "cut={cut}: {rep}");
            assert!(rep.contains("not well-formed"), "cut={cut}: {rep}");
        }
        let (rep, st) = check_stream(Some("figure1"), "d", "<r></q>", 4, &CheckOpts::default());
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
