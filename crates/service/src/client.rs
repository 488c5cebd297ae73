//! The service client: one connection, blocking request/response.
//!
//! [`Client`] speaks the [`crate::proto`] protocol and rebuilds real
//! [`PvOutcome`] values from the wire — the differential suite compares
//! them bit-for-bit against in-process checks. `pvx check --remote` is a
//! thin wrapper over this type.

use crate::json::{self, Json};
use crate::proto::{self, Request};
use crate::server::{connect, parse_response, Endpoint, RemoteFailure, Stream};
use pv_core::checker::PvOutcome;
use pv_core::memo::MemoStats;
use std::fmt;
use std::io::{self, BufReader, Write};
use std::time::Duration;

/// A client-side failure.
#[derive(Debug)]
pub enum ServiceError {
    /// Transport failure.
    Io(io::Error),
    /// The server answered `ok:false` with this message.
    Remote(String),
    /// The server turned the request away for capacity reasons (`kind`
    /// is `busy` or `draining`) — nothing is wrong with the request, and
    /// retrying later is legitimate.
    Unavailable {
        /// The refusal kind (`busy`, `draining`).
        kind: String,
        /// The server's message.
        msg: String,
    },
    /// The server answered something unintelligible.
    Protocol(String),
    /// The request is invalid on the client side and was rejected
    /// before (or instead of) reaching the server, such as an empty
    /// stream chunk.
    Invalid(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "transport error: {e}"),
            ServiceError::Remote(m) => write!(f, "server error: {m}"),
            ServiceError::Unavailable { kind, msg } => {
                write!(f, "server unavailable ({kind}): {msg}")
            }
            ServiceError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServiceError::Invalid(m) => write!(f, "invalid request: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<io::Error> for ServiceError {
    fn from(e: io::Error) -> Self {
        ServiceError::Io(e)
    }
}

/// Result alias for client calls.
pub type Result<T> = std::result::Result<T, ServiceError>;

/// Maps a failed response to the right error flavour: unparsable lines
/// are protocol errors, `kind: busy|draining` refusals are
/// [`ServiceError::Unavailable`], everything else is a plain remote
/// application error.
fn map_failure(line: &str, fail: RemoteFailure) -> ServiceError {
    if json::parse(line).is_err() {
        return ServiceError::Protocol(fail.msg);
    }
    match fail.kind.as_deref() {
        Some(kind @ ("busy" | "draining")) => {
            ServiceError::Unavailable { kind: kind.to_owned(), msg: fail.msg }
        }
        _ => ServiceError::Remote(fail.msg),
    }
}

/// Metadata returned by `LOAD`/`BUILTIN`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadInfo {
    /// The handle subsequent `CHECK`/`BATCH` requests use.
    pub handle: String,
    /// Human-readable source label (`builtin:play`, `loaded:r`, …).
    pub label: String,
    /// The DTD's recursion class, rendered.
    pub class: String,
    /// Element-type count `m`.
    pub elements: u64,
    /// The engine's resolved depth budget.
    pub depth: u32,
}

/// A full remote check result: the reconstructed outcome plus the
/// server-side context a report needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteCheck {
    /// The outcome, bit-identical to the in-process check.
    pub outcome: PvOutcome,
    /// Shared-cache telemetry (server-lifetime counters), when the
    /// request ran with memoization.
    pub memo: Option<MemoStats>,
    /// DTD source label.
    pub label: String,
    /// DTD recursion class, rendered.
    pub class: String,
    /// Depth budget the check ran under.
    pub depth: u32,
}

/// One blocking connection to a `pvx serve` instance.
pub struct Client {
    reader: BufReader<Stream>,
}

impl Client {
    /// Connects to an address string (see [`Endpoint::parse`]).
    pub fn connect(addr: &str) -> io::Result<Client> {
        Self::connect_endpoint(&Endpoint::parse(addr))
    }

    /// Connects to a parsed endpoint.
    pub fn connect_endpoint(endpoint: &Endpoint) -> io::Result<Client> {
        Ok(Client { reader: BufReader::new(connect(endpoint)?) })
    }

    /// Deadline on response reads (`None` = wait forever). A client
    /// facing a possibly-wedged server sets this so a call fails with
    /// [`ServiceError::Io`] in bounded time instead of blocking.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(dur)
    }

    fn round_trip(&mut self, req: &Request) -> Result<Json> {
        self.send(|w| proto::write_request(w, req))?;
        self.reply()
    }

    /// Writes a request with `write`. A server that turns a connection
    /// away (`busy`, `draining`) answers and closes without reading, so
    /// a write can then fail (`BrokenPipe`, `ConnectionReset`) while the
    /// refusal waits to be read: that refusal is the answer, and it
    /// reads as [`ServiceError::Unavailable`] like any other.
    fn send(&mut self, write: impl FnOnce(&mut Stream) -> io::Result<()>) -> Result<()> {
        let Err(e) = write(self.reader.get_mut()) else { return Ok(()) };
        if matches!(e.kind(), io::ErrorKind::BrokenPipe | io::ErrorKind::ConnectionReset) {
            if let Ok(Some(line)) = proto::read_line(&mut self.reader) {
                if let Err(fail) = parse_response(&line) {
                    return Err(map_failure(&line, fail));
                }
            }
        }
        Err(ServiceError::Io(e))
    }

    /// Flushes the request written so far and reads its reply.
    fn reply(&mut self) -> Result<Json> {
        self.reader.get_mut().flush()?;
        let line = proto::read_line(&mut self.reader)?
            .ok_or_else(|| ServiceError::Protocol("server closed the connection".into()))?;
        parse_response(&line).map_err(|f| map_failure(&line, f))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        self.round_trip(&Request::Ping).map(|_| ())
    }

    /// Loads (or re-finds) a DTD by source text and root.
    pub fn load_dtd(&mut self, root: &str, source: &str) -> Result<LoadInfo> {
        let v = self.round_trip(&Request::Load {
            root: root.to_owned(),
            source: source.to_owned(),
        })?;
        Self::load_info(&v)
    }

    /// Loads (or re-finds) a built-in DTD by name.
    pub fn load_builtin(&mut self, name: &str) -> Result<LoadInfo> {
        let v = self.round_trip(&Request::Builtin { name: name.to_owned() })?;
        Self::load_info(&v)
    }

    fn load_info(v: &Json) -> Result<LoadInfo> {
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| ServiceError::Protocol(format!("load reply missing {k:?}")))
        };
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| ServiceError::Protocol(format!("load reply missing {k:?}")))
        };
        Ok(LoadInfo {
            handle: field("handle")?,
            label: field("label")?,
            class: field("class")?,
            elements: num("elements")?,
            depth: num("depth")? as u32,
        })
    }

    /// Checks one document; `memo` toggles the engine's memo for this
    /// request. The server checks one document on the connection
    /// thread, so `jobs` (still sent as `jobs=N`) does not change it.
    pub fn check(
        &mut self,
        handle: &str,
        xml: &str,
        jobs: usize,
        memo: bool,
    ) -> Result<RemoteCheck> {
        self.send(|w| proto::write_check(w, handle, jobs, memo, xml))?;
        Self::remote_check(&self.reply()?)
    }

    /// Checks one document streamed as raw byte chunks (`CHECK_STREAM`):
    /// the upload and the server-side validation overlap, the document
    /// never materializes on the server, and its resident cost is
    /// O(depth). Chunk boundaries may fall anywhere — mid-tag, mid-UTF-8
    /// sequence. Chunks must be non-empty (a zero-length block is the
    /// wire terminator): an empty chunk — the classic symptom of a zero
    /// chunk size upstream — ends the upload cleanly and reports
    /// [`ServiceError::Invalid`] instead of silently truncating. The
    /// outcome is bit-identical to [`Self::check`] (`memo` is always
    /// `None`: streaming never consults the engine's memo). Chunks are
    /// taken one at a time, so an iterator that reads them as it is
    /// asked uploads a file of any size in the memory of one chunk.
    pub fn check_stream<I>(&mut self, handle: &str, chunks: I) -> Result<RemoteCheck>
    where
        I: IntoIterator,
        I::Item: AsRef<[u8]>,
    {
        let req = Request::CheckStream { handle: handle.to_owned() };
        let mut empty_chunk = false;
        self.send(|w| {
            proto::write_request(w, &req)?;
            for chunk in chunks {
                let chunk = chunk.as_ref();
                if chunk.is_empty() {
                    empty_chunk = true;
                    break;
                }
                proto::write_block(w, chunk)?;
                // Flush per chunk so the server validates while we upload.
                w.flush()?;
            }
            proto::write_stream_end(w)?;
            w.flush()
        })?;
        // Read (and on misuse discard) the response either way, so the
        // connection stays in sync for the next request.
        let line = proto::read_line(&mut self.reader)?
            .ok_or_else(|| ServiceError::Protocol("server closed the connection".into()))?;
        if empty_chunk {
            return Err(ServiceError::Invalid(
                "empty stream chunk: chunks must be at least 1 byte \
                 (check the chunk size; a zero-length block terminates the stream)"
                    .into(),
            ));
        }
        let v = parse_response(&line).map_err(|f| map_failure(&line, f))?;
        Self::remote_check(&v)
    }

    fn remote_check(v: &Json) -> Result<RemoteCheck> {
        let outcome_v = v
            .get("outcome")
            .ok_or_else(|| ServiceError::Protocol("check reply missing outcome".into()))?;
        let outcome = json::read_outcome(outcome_v).map_err(ServiceError::Protocol)?;
        let memo = match v.get("memo") {
            None | Some(Json::Null) => None,
            Some(m) => Some(json::read_memo(m).map_err(ServiceError::Protocol)?),
        };
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| ServiceError::Protocol(format!("check reply missing {k:?}")))
        };
        Ok(RemoteCheck {
            outcome,
            memo,
            label: field("label")?,
            class: field("class")?,
            depth: v
                .get("depth")
                .and_then(Json::as_u64)
                .ok_or_else(|| ServiceError::Protocol("check reply missing depth".into()))?
                as u32,
        })
    }

    /// Checks a batch; outcome `i` corresponds to `xmls[i]`. `jobs` caps
    /// the server-side workers, one document per task (`0` = every pool
    /// worker, `1` = the connection thread).
    pub fn check_batch(
        &mut self,
        handle: &str,
        xmls: &[String],
        jobs: usize,
    ) -> Result<Vec<PvOutcome>> {
        self.send(|w| proto::write_batch(w, handle, jobs, xmls))?;
        let v = self.reply()?;
        let arr = v
            .get("outcomes")
            .and_then(Json::as_arr)
            .ok_or_else(|| ServiceError::Protocol("batch reply missing outcomes".into()))?;
        arr.iter()
            .map(|o| json::read_outcome(o).map_err(ServiceError::Protocol))
            .collect()
    }

    /// Raw server telemetry (see the protocol's `STATS`).
    pub fn stats(&mut self) -> Result<Json> {
        self.round_trip(&Request::Stats)
    }

    /// The server's metrics snapshot (see the protocol's `METRICS`):
    /// counters, gauges, latency histograms, and recent slow traces.
    pub fn metrics(&mut self) -> Result<Json> {
        self.round_trip(&Request::Metrics)
    }

    /// Clears the handle's server-side transition cache and zeroes the
    /// server's telemetry window.
    pub fn reset(&mut self, handle: &str) -> Result<()> {
        self.round_trip(&Request::Reset { handle: handle.to_owned() }).map(|_| ())
    }

    /// Asks the server to stop accepting connections.
    pub fn shutdown(&mut self) -> Result<()> {
        self.round_trip(&Request::Shutdown).map(|_| ())
    }
}
