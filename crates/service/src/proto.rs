//! The wire protocol: newline-framed verbs, length-prefixed payloads.
//!
//! One request is a single verb line terminated by `\n`, optionally
//! followed by length-prefixed payload blocks (documents and DTD sources
//! contain newlines, so they cannot ride on the line itself):
//!
//! ```text
//! request  := verb-line "\n" payload*
//! verb-line:= VERB (" " arg)*
//! payload  := decimal-byte-length "\n" raw-bytes
//! response := one JSON object, "\n"-terminated
//! ```
//!
//! Verbs (arguments in `key=value` form where optional):
//!
//! | verb | payloads | effect |
//! |---|---|---|
//! | `PING` | — | liveness probe |
//! | `LOAD <root>` | 1 (DTD source) | compile + intern a DTD, reply with its handle (idempotent: same source + root ⇒ same handle, warm cache kept) |
//! | `BUILTIN <name>` | — | same, for a built-in DTD |
//! | `CHECK <handle> [jobs=N] [memo=0]` | 1 (XML) | potential-validity check of one document, on the connection thread (`jobs=N` parses but has no effect on one document) |
//! | `CHECK_STREAM <handle>` | chunked (see below) | streaming check: raw byte chunks, validated as they arrive |
//! | `BATCH <handle> <count> [jobs=N]` | `count` (XML each) | check a document batch on the pool, one task per document (`jobs=0` = every worker, `1` = the connection thread) |
//! | `STATS` | — | server telemetry (uptime, request/work counters, per-DTD memo) |
//! | `METRICS` | — | metrics-registry snapshot: counters, gauges, histogram percentiles, slow traces |
//! | `RESET <handle>` | — | clear the handle's transition cache **and** zero the server's telemetry window (STATS' totals and governance counts, memo counters, metrics registry) |
//! | `SHUTDOWN` | — | stop accepting connections |
//!
//! `CHECK_STREAM` is the one verb whose payload is **not** buffered by
//! [`finish_request`]: after the verb line the client sends a sequence of
//! non-empty length-prefixed chunks terminated by a zero-length block
//! (`0\n`). The server feeds each chunk to the streaming checker as it
//! arrives — the document never materializes on either side, and the
//! socket's flow control gives per-chunk backpressure. Chunks are raw
//! bytes, not UTF-8 blocks: a chunk boundary may fall anywhere, including
//! mid-tag or mid-UTF-8-sequence. If the document turns out malformed,
//! the handle is unknown, or the request is shed at the in-flight limit,
//! the server still drains every chunk up to the terminator before
//! answering, so the connection stays in sync.
//!
//! Every response is exactly one line of JSON (strings escape `\n`, so a
//! line is always a full document): `{"ok":true,…}` on success,
//! `{"ok":false,"error":"…"}` on failure. A malformed verb line closes
//! the connection — after a framing error the server cannot know whether
//! payload bytes follow, so resynchronization is impossible by design.

use std::io::{self, BufRead, Read, Write};

/// Upper bound on a payload block (DTD source or document), guarding the
/// server against absurd allocations. 64 MiB dwarfs any realistic
/// document-centric file.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Upper bound on one request's **aggregate** payload bytes (a `BATCH`
/// buffers every document before checking — without this, a single
/// request could demand `count × MAX_PAYLOAD`).
pub const MAX_REQUEST_BYTES: usize = 256 << 20;

/// Per-server request-size limits. The constants above are the
/// defaults; a deployment fronting untrusted clients dials them down
/// (`pvx serve --max-payload/--max-request`, or
/// [`crate::GovernorConfig::limits`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Cap on one payload block (a document, a DTD source, one stream
    /// chunk).
    pub max_payload: usize,
    /// Cap on one request's aggregate bytes (`BATCH` documents summed,
    /// `CHECK_STREAM` chunks summed).
    pub max_request: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_payload: MAX_PAYLOAD, max_request: MAX_REQUEST_BYTES }
    }
}

/// How reading a payload block or chunk failed. Transport errors keep
/// their [`io::Error`] (the server distinguishes a read **timeout** — a
/// governance disposition — from a framing violation); everything else
/// is a framing error that poisons the payload boundary.
#[derive(Debug)]
pub enum ReadError {
    /// The underlying transport failed (timeout, reset, …).
    Io(io::Error),
    /// The bytes on the wire violate the framing.
    Frame(String),
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Compile and intern a DTD under its content hash.
    Load {
        /// The designated root element.
        root: String,
        /// DTD source text.
        source: String,
    },
    /// Intern a built-in DTD by name.
    Builtin {
        /// `pv_dtd::builtin` name, e.g. `play`.
        name: String,
    },
    /// Check one document.
    Check {
        /// Handle from a previous `LOAD`/`BUILTIN`.
        handle: String,
        /// Parsed but unused: one document runs on the connection thread.
        jobs: usize,
        /// Memoization toggle for this request.
        memo: bool,
        /// The document text.
        xml: String,
    },
    /// Check one document streamed as raw byte chunks. The chunks are
    /// **not** part of the parsed request: they follow on the wire and
    /// are consumed incrementally by the server's stream handler (see
    /// [`read_chunk`]).
    CheckStream {
        /// Handle from a previous `LOAD`/`BUILTIN`.
        handle: String,
    },
    /// Check a batch of documents.
    Batch {
        /// Handle from a previous `LOAD`/`BUILTIN`.
        handle: String,
        /// Worker cap (`0` = all pool workers, `1` = the connection thread).
        jobs: usize,
        /// The document texts.
        xmls: Vec<String>,
    },
    /// Server telemetry.
    Stats,
    /// The metrics-registry snapshot (counters, gauges, histogram
    /// percentiles, slow-request traces) as one JSON object — the same
    /// registry `pvx serve --metrics-port` exposes as Prometheus text.
    Metrics,
    /// Clear a handle's transition cache.
    Reset {
        /// Handle from a previous `LOAD`/`BUILTIN`.
        handle: String,
    },
    /// Stop accepting connections.
    Shutdown,
}

/// What one attempt to read a request produced.
#[derive(Debug)]
pub enum Frame {
    /// A framing/parse error — the connection must close (see module
    /// docs: payload boundaries are unknowable after a bad line).
    Bad(String),
    /// A well-formed request.
    Req(Request),
}

/// Reads one `\n`-terminated line, without the terminator. `None` on EOF
/// at a request boundary.
pub fn read_line(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = String::new();
    let n = r.read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

/// Writes one length-prefixed payload block.
pub fn write_block(w: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
    writeln!(w, "{}", bytes.len())?;
    w.write_all(bytes)
}

/// Reads one length-prefixed block of at most `max` bytes; `what` names
/// it (`payload`, `chunk`) in framing errors.
fn read_prefixed(r: &mut impl BufRead, max: usize, what: &str) -> Result<Vec<u8>, ReadError> {
    let line = match read_line(r) {
        Ok(Some(l)) => l,
        Ok(None) => return Err(ReadError::Frame(format!("eof before {what} length"))),
        Err(e) => return Err(ReadError::Io(e)),
    };
    let len: usize = line
        .trim()
        .parse()
        .map_err(|_| ReadError::Frame(format!("bad {what} length {line:?}")))?;
    if len > max {
        return Err(ReadError::Frame(format!("{what} of {len} bytes exceeds the {max}-byte limit")));
    }
    // Read incrementally (`take` + `read_to_end`): memory grows with the
    // bytes that actually arrive, so a client *claiming* a huge payload
    // and then stalling cannot make the server pre-allocate it.
    let mut buf = Vec::new();
    match r.take(len as u64).read_to_end(&mut buf) {
        Ok(n) if n == len => Ok(buf),
        Ok(n) => Err(ReadError::Frame(format!("short {what}: got {n} of {len} bytes"))),
        Err(e) => Err(ReadError::Io(e)),
    }
}

/// Reads one length-prefixed payload block as UTF-8 text, bounded by
/// `max_payload`.
pub fn read_block(r: &mut impl BufRead, max_payload: usize) -> Result<String, ReadError> {
    let buf = read_prefixed(r, max_payload, "payload")?;
    String::from_utf8(buf).map_err(|_| ReadError::Frame("payload is not UTF-8".into()))
}

/// Reads one raw chunk of a `CHECK_STREAM` body: `Ok(Some(bytes))` for a
/// data chunk, `Ok(None)` for the zero-length terminator. Unlike
/// [`read_block`], chunks are raw bytes — a boundary may split a UTF-8
/// sequence (the streaming lexer reassembles it).
pub fn read_chunk(r: &mut impl BufRead, max_payload: usize) -> Result<Option<Vec<u8>>, ReadError> {
    read_prefixed(r, max_payload, "chunk").map(|chunk| Some(chunk).filter(|c| !c.is_empty()))
}

/// Writes the zero-length block ending a `CHECK_STREAM` chunk sequence.
pub fn write_stream_end(w: &mut impl Write) -> io::Result<()> {
    writeln!(w, "0")
}

fn parse_kv(args: &[&str], key: &str) -> Result<Option<u64>, String> {
    for a in args {
        if let Some(v) = a.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')) {
            return v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad {key} value {v:?}"));
        }
    }
    Ok(None)
}

/// Parses a verb line (read with [`read_line`]) and consumes any payload
/// blocks it announces. The two steps are split so a server can read the
/// verb line under an **idle** timeout and the payload under a (tighter)
/// **read** timeout: the gap between requests is idleness, the gap
/// inside one is a slow or stalled client. Transport errors (including
/// timeouts) propagate as `Err`; framing violations become
/// [`Frame::Bad`].
pub fn finish_request(line: &str, r: &mut impl BufRead, limits: &Limits) -> io::Result<Frame> {
    let parts: Vec<&str> = line.split_whitespace().collect();
    let bad = |msg: String| Ok(Frame::Bad(msg));
    let Some((&verb, args)) = parts.split_first() else {
        return bad("empty request line".into());
    };
    match verb {
        "PING" => Ok(Frame::Req(Request::Ping)),
        "STATS" => Ok(Frame::Req(Request::Stats)),
        "METRICS" => Ok(Frame::Req(Request::Metrics)),
        "SHUTDOWN" => Ok(Frame::Req(Request::Shutdown)),
        "RESET" => match args {
            [handle] => Ok(Frame::Req(Request::Reset { handle: (*handle).to_owned() })),
            _ => bad("RESET takes exactly one handle".into()),
        },
        "BUILTIN" => match args {
            [name] => Ok(Frame::Req(Request::Builtin { name: (*name).to_owned() })),
            _ => bad("BUILTIN takes exactly one name".into()),
        },
        "LOAD" => {
            let [root] = args else {
                return bad("LOAD takes exactly one root name".into());
            };
            match read_block(r, limits.max_payload) {
                Ok(source) => {
                    Ok(Frame::Req(Request::Load { root: (*root).to_owned(), source }))
                }
                Err(ReadError::Frame(e)) => bad(e),
                Err(ReadError::Io(e)) => Err(e),
            }
        }
        "CHECK" => {
            let Some((&handle, opts)) = args.split_first() else {
                return bad("CHECK needs a handle".into());
            };
            let jobs = match parse_kv(opts, "jobs") {
                Ok(v) => v.unwrap_or(1) as usize,
                Err(e) => return bad(e),
            };
            let memo = match parse_kv(opts, "memo") {
                Ok(v) => v.unwrap_or(1) != 0,
                Err(e) => return bad(e),
            };
            match read_block(r, limits.max_payload) {
                Ok(xml) => Ok(Frame::Req(Request::Check {
                    handle: handle.to_owned(),
                    jobs,
                    memo,
                    xml,
                })),
                Err(ReadError::Frame(e)) => bad(e),
                Err(ReadError::Io(e)) => Err(e),
            }
        }
        "CHECK_STREAM" => match args {
            [handle] => Ok(Frame::Req(Request::CheckStream { handle: (*handle).to_owned() })),
            _ => bad("CHECK_STREAM takes exactly one handle".into()),
        },
        "BATCH" => {
            let (&handle, rest) = match args.split_first() {
                Some(x) => x,
                None => return bad("BATCH needs a handle and a count".into()),
            };
            let (&count_s, opts) = match rest.split_first() {
                Some(x) => x,
                None => return bad("BATCH needs a document count".into()),
            };
            let count: usize = match count_s.parse() {
                Ok(c) => c,
                Err(_) => return bad(format!("bad BATCH count {count_s:?}")),
            };
            if count > 100_000 {
                return bad(format!("BATCH count {count} is absurd"));
            }
            let jobs = match parse_kv(opts, "jobs") {
                Ok(v) => v.unwrap_or(0) as usize,
                Err(e) => return bad(e),
            };
            let mut xmls = Vec::with_capacity(count.min(1024));
            let mut total = 0usize;
            for _ in 0..count {
                match read_block(r, limits.max_payload) {
                    Ok(xml) => {
                        total += xml.len();
                        if total > limits.max_request {
                            return bad(format!(
                                "batch exceeds the {}-byte aggregate limit",
                                limits.max_request
                            ));
                        }
                        xmls.push(xml);
                    }
                    Err(ReadError::Frame(e)) => return bad(e),
                    Err(ReadError::Io(e)) => return Err(e),
                }
            }
            Ok(Frame::Req(Request::Batch { handle: handle.to_owned(), jobs, xmls }))
        }
        other => bad(format!("unknown verb {other:?}")),
    }
}

/// Writes a request in wire form (the client half).
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    match req {
        Request::Ping => writeln!(w, "PING"),
        Request::Stats => writeln!(w, "STATS"),
        Request::Metrics => writeln!(w, "METRICS"),
        Request::Shutdown => writeln!(w, "SHUTDOWN"),
        Request::Reset { handle } => writeln!(w, "RESET {handle}"),
        Request::Builtin { name } => writeln!(w, "BUILTIN {name}"),
        Request::Load { root, source } => {
            writeln!(w, "LOAD {root}")?;
            write_block(w, source.as_bytes())
        }
        Request::Check { handle, jobs, memo, xml } => write_check(w, handle, *jobs, *memo, xml),
        // Chunks follow separately (write_block per chunk, then
        // write_stream_end) — see Client::check_stream.
        Request::CheckStream { handle } => writeln!(w, "CHECK_STREAM {handle}"),
        Request::Batch { handle, jobs, xmls } => write_batch(w, handle, *jobs, xmls),
    }
}

/// Writes a `CHECK` request from borrowed text.
pub fn write_check(
    w: &mut impl Write,
    handle: &str,
    jobs: usize,
    memo: bool,
    xml: &str,
) -> io::Result<()> {
    writeln!(w, "CHECK {handle} jobs={jobs} memo={}", u8::from(memo))?;
    write_block(w, xml.as_bytes())
}

/// Writes a `BATCH` request from borrowed texts.
pub fn write_batch(
    w: &mut impl Write,
    handle: &str,
    jobs: usize,
    xmls: &[String],
) -> io::Result<()> {
    writeln!(w, "BATCH {handle} {} jobs={jobs}", xmls.len())?;
    for xml in xmls {
        write_block(w, xml.as_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// Reads one request as the server does: the verb line with
    /// [`read_line`], then its payload with [`finish_request`]. `None` is a
    /// clean end of stream before any verb line.
    fn read(wire: &[u8], limits: &Limits) -> Option<Frame> {
        let mut r = BufReader::new(wire);
        let line = read_line(&mut r).unwrap()?;
        Some(finish_request(&line, &mut r, limits).unwrap())
    }

    fn round_trip(req: Request) {
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        match read(&wire, &Limits::default()) {
            Some(Frame::Req(back)) => assert_eq!(back, req),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn requests_round_trip() {
        round_trip(Request::Ping);
        round_trip(Request::Stats);
        round_trip(Request::Metrics);
        round_trip(Request::Shutdown);
        round_trip(Request::Reset { handle: "d0".into() });
        round_trip(Request::Builtin { name: "play".into() });
        round_trip(Request::Load { root: "r".into(), source: "<!ELEMENT r EMPTY>\n".into() });
        round_trip(Request::Check {
            handle: "d1".into(),
            jobs: 4,
            memo: false,
            xml: "<r>\nmultiline\n</r>".into(),
        });
        round_trip(Request::Batch {
            handle: "d1".into(),
            jobs: 0,
            xmls: vec!["<r/>".into(), "<r>two</r>".into()],
        });
        round_trip(Request::CheckStream { handle: "d2".into() });
    }

    #[test]
    fn chunk_sequences_round_trip() {
        let mut wire = Vec::new();
        write_block(&mut wire, b"<r><a>").unwrap();
        write_block(&mut wire, &[0xE2]).unwrap(); // raw bytes: split UTF-8 is legal
        write_stream_end(&mut wire).unwrap();
        let mut r = BufReader::new(wire.as_slice());
        let cap = MAX_PAYLOAD;
        assert_eq!(read_chunk(&mut r, cap).unwrap().as_deref(), Some(b"<r><a>".as_slice()));
        assert_eq!(read_chunk(&mut r, cap).unwrap().as_deref(), Some([0xE2].as_slice()));
        assert_eq!(read_chunk(&mut r, cap).unwrap(), None);
        // Truncated chunk and oversized chunk are framing errors.
        let mut r = BufReader::new("12\nshort".as_bytes());
        assert!(matches!(read_chunk(&mut r, cap), Err(ReadError::Frame(_))));
        let wire = format!("{}\n", MAX_PAYLOAD + 1);
        let mut r = BufReader::new(wire.as_bytes());
        assert!(matches!(read_chunk(&mut r, cap), Err(ReadError::Frame(_))));
        // A tighter per-server limit bites before the default would.
        let mut wire = Vec::new();
        write_block(&mut wire, b"0123456789abcdef").unwrap();
        let mut r = BufReader::new(wire.as_slice());
        assert!(matches!(read_chunk(&mut r, 8), Err(ReadError::Frame(_))));
    }

    #[test]
    fn framing_errors_are_reported_not_fatal_to_the_reader() {
        let limits = Limits::default();
        assert!(matches!(read(b"NOPE x\n", &limits), Some(Frame::Bad(_))));
        assert!(matches!(read(b"CHECK\n", &limits), Some(Frame::Bad(_))));
        assert!(matches!(read(b"CHECK d0\nnot-a-length\n", &limits), Some(Frame::Bad(_))));
        // A retired verb is refused like any other unknown one.
        match read(b"BATCH_STREAM d0 2\n", &limits) {
            Some(Frame::Bad(e)) => assert!(e.contains("unknown verb"), "{e}"),
            other => panic!("{other:?}"),
        }
        assert!(read(b"", &limits).is_none());
    }

    #[test]
    fn oversized_payload_rejected() {
        let wire = format!("CHECK d0\n{}\n", MAX_PAYLOAD + 1);
        assert!(matches!(read(wire.as_bytes(), &Limits::default()), Some(Frame::Bad(_))));
    }

    #[test]
    fn custom_limits_bite_before_defaults() {
        let limits = Limits { max_payload: 8, max_request: 12 };
        // A 9-byte CHECK payload is fine by default but over this cap.
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            &Request::Check { handle: "d0".into(), jobs: 1, memo: true, xml: "<r>xx</r>".into() },
        )
        .unwrap();
        assert!(matches!(read(&wire, &limits), Some(Frame::Bad(_))));
        // Two 7-byte batch documents clear max_payload but trip the
        // 12-byte aggregate.
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            &Request::Batch {
                handle: "d0".into(),
                jobs: 0,
                xmls: vec!["<r>12</".into(), "<r>34</".into()],
            },
        )
        .unwrap();
        assert!(matches!(read(&wire, &limits), Some(Frame::Bad(_))));
    }
}
