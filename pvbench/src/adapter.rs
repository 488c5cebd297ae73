//! The benchmark's whole call surface into the program under test.
//!
//! Every timed call goes through this module, and only through entry
//! points meant to last: DTD compilation, `CheckEngine`,
//! `pv_xml::parse`, `PushParser`/`StreamCheck`, `Tokens::children_into`,
//! the service `Client` against a `pvx serve` child process, and
//! `EditorSession`. Nothing here uses the scoped `pv_par::map_*` helpers,
//! speculation-budget knobs, or entry points that exist only on the
//! borrowing checker view — with one exception the library leaves no way
//! around: a `StreamCheck` is built from the engine's checker view, as
//! the server itself builds it.

use crate::trace::{SpanId, Tracer};
use pv_core::depth::DepthPolicy;
use pv_core::token::{ChildSym, Tokens};
use pv_dtd::builtin::BuiltinDtd;
use pv_par::Pool;
use pv_xml::{NodeId, PushParser};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use pv_core::{CheckEngine, MemoStats, PvOutcome, PvViolationKind, RecognizerStats};
pub use pv_dtd::DtdAnalysis;
pub use pv_editor::{EditError, SessionStats};
pub use pv_obs::Registry;
pub use pv_service::{Client, ServiceError};
pub use pv_xml::Document;

// --- DTDs and engines -------------------------------------------------------

/// Parses and compiles a built-in DTD (the "DTD analysis" set-up step).
pub fn analyze(b: BuiltinDtd) -> DtdAnalysis {
    DtdAnalysis::parse(b.source(), b.root()).expect("built-in DTDs compile")
}

/// Builds a check engine (DAGs, static report, shape cache) for a DTD.
pub fn engine(analysis: DtdAnalysis) -> Arc<CheckEngine> {
    CheckEngine::new(analysis)
}

/// Builds an engine whose per-document telemetry records into `registry`.
pub fn observed_engine(analysis: DtdAnalysis, registry: &Registry) -> Arc<CheckEngine> {
    CheckEngine::with_policy_observed(analysis, DepthPolicy::Auto, registry)
}

/// The one-thread pool local checks run on: `jobs = 1` keeps every check
/// on the calling thread, exactly as `pvx check` does by default.
pub fn local_pool() -> Pool {
    Pool::new(1)
}

// --- the tree path ------------------------------------------------------------

/// Parses a document into a tree.
pub fn parse(xml: &str) -> Result<Document, String> {
    pv_xml::parse(xml).map_err(|e| e.to_string())
}

/// Checks a parsed document on the calling thread; `memo` toggles the
/// engine's shape cache for this check.
pub fn check(engine: &Arc<CheckEngine>, doc: &Arc<Document>, pool: &Pool, memo: bool) -> PvOutcome {
    engine.check_document_pooled(doc, pool, 1, memo)
}

/// Drops every cached verdict so the next check starts cold.
pub fn memo_clear(engine: &CheckEngine) {
    engine.memo_clear();
}

/// Shape-cache counters (server-lifetime style: they survive a clear).
pub fn memo_stats(engine: &CheckEngine) -> MemoStats {
    engine.memo_stats().unwrap_or_default()
}

/// Runs Δ tokenization (`Tokens::children_into`) over every element of
/// `doc`, returning the number of child symbols produced. An undeclared
/// element stops the pass, as it stops the checker.
pub fn tokenize_all(engine: &CheckEngine, doc: &Document, buf: &mut Vec<ChildSym>) -> usize {
    let dtd = &engine.analysis().dtd;
    let mut symbols = 0;
    for node in doc.elements() {
        if Tokens::children_into(doc, node, dtd, buf).is_err() {
            break;
        }
        symbols += buf.len();
    }
    symbols
}

// --- the streaming path -------------------------------------------------------

/// What one streamed check saw.
pub struct StreamRun {
    /// The outcome, when the stream was run to its end.
    pub outcome: Option<PvOutcome>,
    /// Bytes fed before the verdict was final.
    pub fed: usize,
    /// Lexer high-water mark of buffered bytes.
    pub peak_buffered: usize,
    /// Deepest open-element stack the checker held.
    pub peak_depth: usize,
}

/// Streams `bytes` through `StreamCheck` in `chunk`-byte pieces. With
/// `stop_when_decided` the feed stops at the first chunk after which the
/// verdict is final (no outcome is produced then). Each `feed` and the
/// closing `finish` are traced as children of `parent`.
pub fn stream_check(
    engine: &CheckEngine,
    bytes: &[u8],
    chunk: usize,
    stop_when_decided: bool,
    tr: &mut Tracer,
    op: u32,
    parent: Option<SpanId>,
) -> Result<StreamRun, String> {
    let checker = engine.checker();
    let mut s = pv_core::StreamCheck::new(checker.stream_checker());
    let mut fed = 0;
    for piece in bytes.chunks(chunk) {
        let sp = tr.open("feed", op, parent);
        let r = s.feed(piece);
        tr.close(sp);
        r.map_err(|e| e.to_string())?;
        fed += piece.len();
        if stop_when_decided && s.decided() {
            return Ok(StreamRun {
                outcome: None,
                fed,
                peak_buffered: s.parser().peak_buffered(),
                peak_depth: s.checker().peak_depth(),
            });
        }
    }
    let (peak_buffered, peak_depth) = (s.parser().peak_buffered(), s.checker().peak_depth());
    let sp = tr.open("finish", op, parent);
    let outcome = s.finish();
    tr.close(sp);
    Ok(StreamRun {
        outcome: Some(outcome.map_err(|e| e.to_string())?),
        fed,
        peak_buffered,
        peak_depth,
    })
}

/// Drains the push lexer alone over the first `upto` bytes of `bytes`
/// (fed in `chunk`-byte pieces; the whole input is also finished).
/// Returns the number of events.
pub fn lex_only(bytes: &[u8], upto: usize, chunk: usize) -> Result<u64, String> {
    let mut p = PushParser::new();
    let mut events = 0u64;
    for piece in bytes[..upto].chunks(chunk) {
        p.push(piece);
        while let Some(ev) = p.next_event().map_err(|e| e.to_string())? {
            std::hint::black_box(&ev);
            events += 1;
        }
    }
    if upto == bytes.len() {
        p.finish();
        while let Some(ev) = p.next_event().map_err(|e| e.to_string())? {
            std::hint::black_box(&ev);
            events += 1;
        }
    }
    Ok(events)
}

// --- the service --------------------------------------------------------------

/// A `pvx serve` child process listening on a unix socket.
pub struct ServerProc {
    child: Option<Child>,
    socket: PathBuf,
}

impl ServerProc {
    /// Starts `pvx serve --socket SOCKET --jobs JOBS` and waits for its
    /// "listening" line.
    pub fn start(pvx: &Path, socket: &Path, jobs: usize) -> Result<ServerProc, String> {
        let _ = std::fs::remove_file(socket);
        let mut child = Command::new(pvx)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .arg("--jobs")
            .arg(jobs.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", pvx.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut proc = ServerProc {
            child: Some(child),
            socket: socket.to_owned(),
        };
        match read {
            Ok(n) if n > 0 && line.contains("listening") => Ok(proc),
            _ => {
                proc.kill();
                Err(format!("pvx serve did not come up (said {line:?})"))
            }
        }
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Result<Client, String> {
        let c = Client::connect(&self.socket.to_string_lossy()).map_err(|e| e.to_string())?;
        c.set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        Ok(c)
    }

    /// Asks the server to shut down and waits for the process to end.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let mut child = self.child.take().expect("running");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("pvx serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("pvx serve did not stop after SHUTDOWN".into());
                }
            }
        }
        let _ = std::fs::remove_file(&self.socket);
        asked
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_file(&self.socket);
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Loads a built-in DTD into the server; returns its handle.
pub fn remote_load(c: &mut Client, b: BuiltinDtd) -> Result<String, ServiceError> {
    c.load_builtin(b.name()).map(|info| info.handle)
}

/// `CHECK`: one document, `jobs` server workers, shape cache on.
pub fn remote_check(
    c: &mut Client,
    handle: &str,
    xml: &str,
    jobs: usize,
) -> Result<PvOutcome, ServiceError> {
    c.check(handle, xml, jobs, true).map(|r| r.outcome)
}

/// `CHECK_STREAM`: one document uploaded in `chunk`-byte pieces.
pub fn remote_check_stream(
    c: &mut Client,
    handle: &str,
    bytes: &[u8],
    chunk: usize,
) -> Result<PvOutcome, ServiceError> {
    c.check_stream(handle, bytes.chunks(chunk))
        .map(|r| r.outcome)
}

/// `BATCH`: several documents at `jobs` server workers.
pub fn remote_batch(
    c: &mut Client,
    handle: &str,
    xmls: &[String],
    jobs: usize,
) -> Result<Vec<PvOutcome>, ServiceError> {
    c.check_batch(handle, xmls, jobs)
}

/// `PING`: the bare wire round trip.
pub fn remote_ping(c: &mut Client) -> Result<(), ServiceError> {
    c.ping()
}

/// The server's `METRICS` snapshot, flattened to `name → value`:
/// counters as totals, histograms as `name.count` and `name.sum`.
pub fn remote_metrics(
    c: &mut Client,
) -> Result<std::collections::BTreeMap<String, f64>, ServiceError> {
    use pv_service::json::Json;
    let v = c.metrics()?;
    let mut out = std::collections::BTreeMap::new();
    if let Some(Json::Obj(counters)) = v.get("counters") {
        for (k, x) in counters {
            out.insert(k.clone(), x.as_u64().unwrap_or(0) as f64);
        }
    }
    if let Some(Json::Obj(hists)) = v.get("histograms") {
        for (k, h) in hists {
            for field in ["count", "sum"] {
                let x = h.get(field).and_then(Json::as_u64).unwrap_or(0);
                out.insert(format!("{k}.{field}"), x as f64);
            }
        }
    }
    Ok(out)
}

// --- the editor -----------------------------------------------------------------

/// An editing session (the guarded editor loop of the paper).
pub struct Editor<'a>(pv_editor::EditorSession<'a>);

impl<'a> Editor<'a> {
    /// Opens a session; fails unless the document is potentially valid.
    pub fn open(analysis: &'a DtdAnalysis, doc: Document) -> Result<Self, EditError> {
        pv_editor::EditorSession::open(analysis, doc).map(Editor)
    }
    /// Guarded markup insertion around children `range` of `parent`.
    pub fn insert_markup(
        &mut self,
        parent: NodeId,
        range: std::ops::Range<usize>,
        name: &str,
    ) -> Result<NodeId, EditError> {
        self.0.insert_markup(parent, range, name)
    }
    /// Guarded rename.
    pub fn rename(&mut self, node: NodeId, name: &str) -> Result<(), EditError> {
        self.0.rename(node, name)
    }
    /// O(1)-guarded text insertion.
    pub fn insert_text(
        &mut self,
        parent: NodeId,
        index: usize,
        text: &str,
    ) -> Result<NodeId, EditError> {
        self.0.insert_text(parent, index, text)
    }
    /// Text update (never rejected).
    pub fn update_text(&mut self, node: NodeId, text: &str) -> Result<(), EditError> {
        self.0.update_text(node, text)
    }
    /// Tag palette: names that may wrap children `range` of `parent`.
    pub fn allowed_wraps(&mut self, parent: NodeId, range: std::ops::Range<usize>) -> Vec<String> {
        self.0.allowed_wraps(parent, range)
    }
    /// Autocomplete: symbols that may be appended to `node`.
    pub fn expected_next(&self, node: NodeId) -> Vec<String> {
        self.0.expected_next(node)
    }
    /// Reverts the last applied edit.
    pub fn undo(&mut self) -> Result<(), EditError> {
        self.0.undo()
    }
    /// The current document.
    pub fn document(&self) -> &Document {
        self.0.document()
    }
    /// Guard counters so far.
    pub fn stats(&self) -> SessionStats {
        *self.0.stats()
    }
}

// --- independent validation and process memory ---------------------------------

/// Strict DTD validity by `pv-grammar`'s validator — an oracle that
/// shares no code with the potential-validity checker.
pub fn validate(doc: &Document, analysis: &DtdAnalysis) -> Result<(), String> {
    pv_grammar::validator::validate_document(doc, &analysis.dtd, analysis.root)
        .map_err(|v| v.to_string())
}

/// `VmHWM` (peak resident set) from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mib(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
