//! `pvx` — potential-validity tooling for document-centric XML.
//!
//! See `pvx --help` or the crate docs of `pv-cli` for usage.

use pv_cli::{
    cmd_analyze, cmd_bench_serve, cmd_check, cmd_check_remote, cmd_check_stream,
    cmd_check_stream_remote, cmd_classify, cmd_complete, cmd_lint, cmd_top, cmd_validate,
    prolog_doctype, render_check_error, resolve_dtd, BenchServeOpts, CheckOpts, Status, TopOpts,
};
use pv_core::depth::DepthPolicy;
use pv_service::{metrics_http, Client, Endpoint, GovernorConfig, LogSink, Server};
use std::time::Duration;

const USAGE: &str = "\
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

Without --dtd/--builtin, documents must carry an internal DTD subset
(<!DOCTYPE root [ ... ]>). Builtins: figure1, t1, t2, xhtml-basic,
tei-lite, play, docbook-like, dissertation, docbook-article, tei-drama.

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

`pvx analyze` runs the static DTD analyzer: Glushkov 1-unambiguity per
content model (with a concrete witness pair on ambiguity) and a static
speculation-budget certificate — a proof that the full budget every
check runs with is never used up (`specs_denied == 0`). --json emits one
stable machine-readable object. Exit codes: 0 = budget-certified,
1 = flagged (analysis ran; certification refused), 2 = error.

--stream reads the document in chunks (default 64 KiB, --chunk-size N)
instead of whole, pushing them through the SAX-style event front end
and validating as it parses, in O(depth) memory, with a verdict and
counters bit-identical to the default check. With --remote the chunks
upload as CHECK_STREAM requests while the server validates them
(requires --builtin/--dtd: the DTD cannot ride inside the byte stream).
--no-memo does not apply to streaming checks.

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

struct Args {
    command: String,
    dtd_file: Option<String>,
    root: Option<String>,
    builtin: Option<String>,
    depth: Option<u32>,
    jobs: Option<usize>,
    memo: bool,
    json: bool,
    remote: Option<String>,
    socket: Option<String>,
    port: Option<u16>,
    ignore_whitespace: bool,
    stream: bool,
    chunk_size: Option<usize>,
    max_conns: Option<usize>,
    max_inflight: Option<usize>,
    idle_timeout_ms: Option<u64>,
    read_timeout_ms: Option<u64>,
    write_timeout_ms: Option<u64>,
    drain_ms: Option<u64>,
    max_payload: Option<usize>,
    max_request: Option<usize>,
    access_log: bool,
    verbose: bool,
    strict_load: bool,
    requests: Option<usize>,
    concurrency: Option<usize>,
    flood: Option<usize>,
    doc_file: Option<String>,
    metrics_port: Option<u16>,
    interval_ms: Option<u64>,
    count: Option<usize>,
    docs: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command")?;
    let mut args = Args {
        command,
        dtd_file: None,
        root: None,
        builtin: None,
        depth: None,
        jobs: None,
        memo: true,
        json: false,
        remote: None,
        socket: None,
        port: None,
        ignore_whitespace: false,
        stream: false,
        chunk_size: None,
        max_conns: None,
        max_inflight: None,
        idle_timeout_ms: None,
        read_timeout_ms: None,
        write_timeout_ms: None,
        drain_ms: None,
        max_payload: None,
        max_request: None,
        access_log: false,
        verbose: false,
        strict_load: false,
        requests: None,
        concurrency: None,
        flood: None,
        doc_file: None,
        metrics_port: None,
        interval_ms: None,
        count: None,
        docs: Vec::new(),
    };
    let need_value = |argv: &mut dyn Iterator<Item = String>, flag: &str| {
        argv.next().ok_or(format!("{flag} requires a value"))
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--dtd" => args.dtd_file = Some(need_value(&mut argv, "--dtd")?),
            "--root" => args.root = Some(need_value(&mut argv, "--root")?),
            "--builtin" => args.builtin = Some(need_value(&mut argv, "--builtin")?),
            "--depth" => {
                let v = need_value(&mut argv, "--depth")?;
                args.depth = Some(v.parse().map_err(|_| format!("bad --depth {v:?}"))?);
            }
            "--jobs" => {
                let v = need_value(&mut argv, "--jobs")?;
                args.jobs = Some(v.parse().map_err(|_| format!("bad --jobs {v:?}"))?);
            }
            "--no-memo" => args.memo = false,
            "--json" => args.json = true,
            "--remote" => args.remote = Some(need_value(&mut argv, "--remote")?),
            "--socket" => args.socket = Some(need_value(&mut argv, "--socket")?),
            "--port" => {
                let v = need_value(&mut argv, "--port")?;
                args.port = Some(v.parse().map_err(|_| format!("bad --port {v:?}"))?);
            }
            "--ignore-whitespace" => args.ignore_whitespace = true,
            "--stream" => args.stream = true,
            "--max-conns" => {
                let v = need_value(&mut argv, "--max-conns")?;
                args.max_conns = Some(v.parse().map_err(|_| format!("bad --max-conns {v:?}"))?);
            }
            "--max-inflight" => {
                let v = need_value(&mut argv, "--max-inflight")?;
                args.max_inflight =
                    Some(v.parse().map_err(|_| format!("bad --max-inflight {v:?}"))?);
            }
            "--idle-timeout-ms" => {
                let v = need_value(&mut argv, "--idle-timeout-ms")?;
                args.idle_timeout_ms =
                    Some(v.parse().map_err(|_| format!("bad --idle-timeout-ms {v:?}"))?);
            }
            "--read-timeout-ms" => {
                let v = need_value(&mut argv, "--read-timeout-ms")?;
                args.read_timeout_ms =
                    Some(v.parse().map_err(|_| format!("bad --read-timeout-ms {v:?}"))?);
            }
            "--write-timeout-ms" => {
                let v = need_value(&mut argv, "--write-timeout-ms")?;
                args.write_timeout_ms =
                    Some(v.parse().map_err(|_| format!("bad --write-timeout-ms {v:?}"))?);
            }
            "--drain-ms" => {
                let v = need_value(&mut argv, "--drain-ms")?;
                args.drain_ms = Some(v.parse().map_err(|_| format!("bad --drain-ms {v:?}"))?);
            }
            "--max-payload" => {
                let v = need_value(&mut argv, "--max-payload")?;
                args.max_payload =
                    Some(v.parse().map_err(|_| format!("bad --max-payload {v:?}"))?);
            }
            "--max-request" => {
                let v = need_value(&mut argv, "--max-request")?;
                args.max_request =
                    Some(v.parse().map_err(|_| format!("bad --max-request {v:?}"))?);
            }
            "--access-log" => args.access_log = true,
            "-v" | "--verbose" => args.verbose = true,
            "--strict-load" => args.strict_load = true,
            "--requests" => {
                let v = need_value(&mut argv, "--requests")?;
                args.requests = Some(v.parse().map_err(|_| format!("bad --requests {v:?}"))?);
            }
            "--concurrency" => {
                let v = need_value(&mut argv, "--concurrency")?;
                args.concurrency =
                    Some(v.parse().map_err(|_| format!("bad --concurrency {v:?}"))?);
            }
            "--flood" => {
                let v = need_value(&mut argv, "--flood")?;
                args.flood = Some(v.parse().map_err(|_| format!("bad --flood {v:?}"))?);
            }
            "--doc" => args.doc_file = Some(need_value(&mut argv, "--doc")?),
            "--metrics-port" => {
                let v = need_value(&mut argv, "--metrics-port")?;
                args.metrics_port =
                    Some(v.parse().map_err(|_| format!("bad --metrics-port {v:?}"))?);
            }
            "--interval-ms" => {
                let v = need_value(&mut argv, "--interval-ms")?;
                let n: u64 = v.parse().map_err(|_| format!("bad --interval-ms {v:?}"))?;
                if n == 0 {
                    return Err("--interval-ms must be at least 1".to_owned());
                }
                args.interval_ms = Some(n);
            }
            "--count" => {
                let v = need_value(&mut argv, "--count")?;
                args.count = Some(v.parse().map_err(|_| format!("bad --count {v:?}"))?);
            }
            "--chunk-size" => {
                let v = need_value(&mut argv, "--chunk-size")?;
                let n: usize = v.parse().map_err(|_| format!("bad --chunk-size {v:?}"))?;
                if n == 0 {
                    return Err("--chunk-size must be at least 1".to_owned());
                }
                args.chunk_size = Some(n);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            doc => args.docs.push(doc.to_owned()),
        }
    }
    Ok(args)
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(Status::Error.code());
}

/// Maps a `--*-timeout-ms` flag onto the governor's `Option<Duration>`:
/// absent keeps the default, `0` disables the deadline.
fn timeout_flag(ms: Option<u64>, default: Option<Duration>) -> Option<Duration> {
    match ms {
        None => default,
        Some(0) => None,
        Some(ms) => Some(Duration::from_millis(ms)),
    }
}

fn governance(args: &Args) -> GovernorConfig {
    let d = GovernorConfig::default();
    let mut limits = d.limits;
    if let Some(p) = args.max_payload {
        limits.max_payload = p;
    }
    if let Some(r) = args.max_request {
        limits.max_request = r;
    }
    GovernorConfig {
        max_connections: args.max_conns.unwrap_or(d.max_connections),
        max_inflight: args.max_inflight.unwrap_or(d.max_inflight),
        idle_timeout: timeout_flag(args.idle_timeout_ms, d.idle_timeout),
        read_timeout: timeout_flag(args.read_timeout_ms, d.read_timeout),
        write_timeout: timeout_flag(args.write_timeout_ms, d.write_timeout),
        drain_deadline: args.drain_ms.map(Duration::from_millis).unwrap_or(d.drain_deadline),
        limits,
        log: if args.access_log { LogSink::Stderr } else { LogSink::Null },
        strict_load: args.strict_load,
    }
}

fn cmd_serve(args: &Args) -> ! {
    let endpoint = match (&args.socket, args.port) {
        (Some(path), None) => Endpoint::Unix(path.into()),
        (None, Some(port)) => Endpoint::Tcp(format!("127.0.0.1:{port}")),
        _ => die("serve needs exactly one of --socket PATH or --port N"),
    };
    // A server wants every CPU: unset --jobs means 0 (one parked worker
    // per CPU).
    let jobs = args.jobs.unwrap_or(0);
    match Server::bind_with(&endpoint, jobs, governance(args)) {
        Err(e) => die(&format!("cannot bind {endpoint}: {e}")),
        Ok(handle) => {
            println!(
                "pvx serve: listening on {} (pool: {} persistent workers)",
                handle.endpoint(),
                pv_par::effective_jobs(jobs)
            );
            if let Some(port) = args.metrics_port {
                let bind = format!("127.0.0.1:{port}");
                match metrics_http::serve_metrics(&bind, handle.metrics_source()) {
                    Err(e) => die(&format!("cannot bind metrics endpoint {bind}: {e}")),
                    Ok((addr, _scraper)) => {
                        println!("pvx serve: metrics on http://{addr}/metrics");
                    }
                }
            }
            handle.join();
            std::process::exit(0);
        }
    }
}

fn cmd_top_main(args: &Args) -> ! {
    let addr = match args.docs.as_slice() {
        [addr] => addr.clone(),
        _ => die("top needs exactly one ADDR (socket path or host:port)"),
    };
    let opts = TopOpts {
        addr,
        interval: Duration::from_millis(args.interval_ms.unwrap_or(1000)),
        count: args.count.unwrap_or(0),
    };
    std::process::exit(cmd_top(&opts).code());
}

/// A small valid document per built-in, for `bench-serve` runs that
/// don't pass `--doc FILE`.
fn bench_doc(builtin: &str) -> Option<&'static str> {
    match builtin {
        "figure1" => Some("<r><a><b>x</b><c>y</c> z<e/></a></r>"),
        "t1" => Some("<a><a/></a>"),
        _ => None,
    }
}

fn cmd_bench(args: &Args) -> ! {
    let Some(addr) = args.remote.clone() else {
        die("bench-serve needs --remote ADDR");
    };
    let builtin = args.builtin.clone().unwrap_or_else(|| "figure1".to_owned());
    let xml = match &args.doc_file {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => die(&format!("cannot read {path}: {e}")),
        },
        None => match bench_doc(&builtin) {
            Some(d) => d.to_owned(),
            None => die(&format!("no built-in bench document for {builtin:?}; pass --doc FILE")),
        },
    };
    if args.chunk_size.is_some() && !args.stream {
        die("--chunk-size requires --stream");
    }
    let opts = BenchServeOpts {
        addr,
        builtin,
        xml,
        requests: args.requests.unwrap_or(200),
        concurrency: args.concurrency.unwrap_or(4),
        flood: args.flood.unwrap_or(0),
        stream_chunk: if args.stream { args.chunk_size.unwrap_or(64 * 1024) } else { 0 },
        json: args.json,
    };
    let (report, status) = cmd_bench_serve(&opts);
    print!("{report}");
    std::process::exit(status.code());
}

/// Loads the `--builtin`/`--dtd` DTD into the server (idempotent),
/// returning the handle — or `None` when the DTD comes from each
/// document's prolog (see [`remote_handle_for_doctype`]). Resolved
/// **once** per run: the handle does not depend on the document, so
/// re-shipping the DTD source per document would only waste round trips.
fn remote_handle_fixed(
    client: &mut Client,
    args: &Args,
    dtd_src: Option<&str>,
) -> Option<Result<String, String>> {
    if let Some(name) = &args.builtin {
        return Some(
            client
                .load_builtin(name)
                .map(|i| i.handle)
                .map_err(|e| e.to_string()),
        );
    }
    if let Some(src) = dtd_src {
        return Some(match args.root.as_deref() {
            None => Err("--dtd requires --root NAME".to_owned()),
            Some(root) => client
                .load_dtd(root, src)
                .map(|i| i.handle)
                .map_err(|e| e.to_string()),
        });
    }
    None
}

/// The per-document fallback: load the internal DTD subset of the
/// document's prolog (interned server-side, so repeated subsets share one
/// engine).
fn remote_handle_for_doctype(
    client: &mut Client,
    args: &Args,
    doctype: Option<&pv_xml::Doctype>,
) -> Result<String, String> {
    let dt = doctype.ok_or("document has no <!DOCTYPE …> and no --dtd/--builtin was given")?;
    let subset = dt
        .internal_subset
        .as_deref()
        .ok_or("document DOCTYPE has no internal subset; pass --dtd")?;
    let root = args.root.clone().unwrap_or_else(|| dt.name.clone());
    client
        .load_dtd(&root, subset)
        .map(|i| i.handle)
        .map_err(|e| e.to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(Status::Error.code());
        }
    };

    if args.command == "serve" {
        cmd_serve(&args);
    }
    if args.jobs.is_some() {
        // Only the server's pool has workers to give: `check` never
        // splits a single document.
        die("--jobs is only supported by `pvx serve`");
    }
    if args.command == "top" {
        cmd_top_main(&args);
    }
    if args.command == "bench-serve" {
        cmd_bench(&args);
    }

    if args.remote.is_some() {
        if args.command != "check" {
            // Silently validating/completing locally while connected to a
            // server would misattribute the work; refuse instead.
            die("--remote is only supported by `pvx check`");
        }
        if args.depth.is_some() {
            // The wire protocol has no depth parameter: the server's
            // engines run under their automatic depth policy. A silently
            // different verdict would be worse than an error.
            die("--depth cannot be combined with --remote (the server uses its automatic depth policy)");
        }
    }

    if args.stream {
        if args.command != "check" {
            die("--stream is only supported by `pvx check`");
        }
        if args.remote.is_some() && args.builtin.is_none() && args.dtd_file.is_none() {
            // A CHECK reads the DTD out of the prolog of the file it
            // holds; a chunked upload commits to a handle before its
            // first chunk is read.
            die("--stream --remote needs --builtin or --dtd (the DTD cannot ride inside the byte stream)");
        }
    }
    if args.chunk_size.is_some() && !args.stream {
        die("--chunk-size requires --stream");
    }

    let dtd_src = match &args.dtd_file {
        None => None,
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => Some(s),
            Err(e) => die(&format!("cannot read DTD {path}: {e}")),
        },
    };

    let mut remote = match &args.remote {
        None => None,
        Some(addr) => match Client::connect(addr) {
            Ok(c) => Some(c),
            Err(e) => die(&format!("cannot connect to {addr}: {e}")),
        },
    };

    let mut worst = Status::Ok;

    match args.command.as_str() {
        "classify" | "lint" | "analyze" => {
            let ctx = match resolve_dtd(
                dtd_src.as_deref(),
                args.root.as_deref(),
                args.builtin.as_deref(),
                None,
            ) {
                Ok(c) => c,
                Err(e) => die(&e),
            };
            let (report, status) = match args.command.as_str() {
                "classify" => cmd_classify(&ctx),
                "lint" => cmd_lint(&ctx),
                _ => cmd_analyze(&ctx, args.json),
            };
            print!("{report}");
            worst = status;
        }
        "check" | "validate" | "complete" => {
            if args.docs.is_empty() {
                eprintln!("error: no documents given\n\n{USAGE}");
                std::process::exit(Status::Error.code());
            }
            // Under `check --json`, per-document failures must also come
            // out as JSON lines on stdout (a JSON-lines consumer reads
            // one object per document, success or not); other commands
            // keep plain stderr diagnostics.
            let json_errors = args.json && args.command == "check";
            // With --remote and a fixed DTD (--builtin/--dtd), one LOAD
            // round trip serves every document.
            let fixed_handle = match remote.as_mut() {
                Some(client) if args.command == "check" => {
                    remote_handle_fixed(client, &args, dtd_src.as_deref())
                }
                _ => None,
            };
            for path in &args.docs {
                let fail = |msg: String, worst: &mut Status| {
                    if json_errors {
                        print!("{}", render_check_error(path, &msg, true));
                    } else {
                        eprintln!("{path}: {msg}");
                    }
                    *worst = Status::Error;
                };
                let opts = CheckOpts {
                    depth: match args.depth {
                        Some(d) => DepthPolicy::Bounded(d),
                        None => DepthPolicy::Auto,
                    },
                    memo: args.memo,
                    json: args.json,
                    verbose: args.verbose,
                };
                // The streaming check path never holds the whole file:
                // locally it is read in chunks straight into the push
                // parser; remotely the bytes upload as CHECK_STREAM
                // chunks while the server validates them.
                let (report, status) = if args.stream {
                    let chunk = args.chunk_size.unwrap_or(64 * 1024);
                    if let Some(client) = remote.as_mut() {
                        let handle = fixed_handle
                            .clone()
                            .expect("--stream --remote was checked to carry a fixed DTD");
                        match (handle, std::fs::read_to_string(path)) {
                            (Err(e), _) => {
                                (render_check_error(path, &e, opts.json), Status::Error)
                            }
                            (_, Err(e)) => {
                                fail(format!("cannot read: {e}"), &mut worst);
                                continue;
                            }
                            (Ok(handle), Ok(text)) => cmd_check_stream_remote(
                                client, &handle, path, &text, chunk, &opts,
                            ),
                        }
                    } else {
                        match std::fs::File::open(path) {
                            Err(e) => {
                                fail(format!("cannot read: {e}"), &mut worst);
                                continue;
                            }
                            Ok(mut file) => cmd_check_stream(
                                dtd_src.as_deref(),
                                args.root.as_deref(),
                                args.builtin.as_deref(),
                                path,
                                &mut file,
                                chunk,
                                &opts,
                            ),
                        }
                    }
                } else {
                    let text = match std::fs::read_to_string(path) {
                        Ok(t) => t,
                        Err(e) => {
                            fail(format!("cannot read: {e}"), &mut worst);
                            continue;
                        }
                    };
                    if args.command != "check" {
                        // `validate` and `complete` work on the tree.
                        let doc = match pv_xml::parse(&text) {
                            Ok(d) => d,
                            Err(e) => {
                                fail(format!("not well-formed: {e}"), &mut worst);
                                continue;
                            }
                        };
                        let ctx = match resolve_dtd(
                            dtd_src.as_deref(),
                            args.root.as_deref(),
                            args.builtin.as_deref(),
                            Some(&doc),
                        ) {
                            Ok(c) => c,
                            Err(e) => {
                                fail(e, &mut worst);
                                continue;
                            }
                        };
                        match args.command.as_str() {
                            "validate" => cmd_validate(&ctx, path, &doc, args.ignore_whitespace),
                            _ => cmd_complete(&ctx, path, &doc),
                        }
                    } else if let Some(client) = remote.as_mut() {
                        // The remote check path: the DTD loads
                        // (idempotently) into the server, the document
                        // ships over the wire unparsed, and the renderer
                        // is the same as local. Without --dtd/--builtin
                        // the DTD is the internal subset of the prolog.
                        let handle = match &fixed_handle {
                            Some(fixed) => fixed.clone(),
                            None => prolog_doctype(&text).and_then(|doctype| {
                                remote_handle_for_doctype(client, &args, doctype.as_ref())
                            }),
                        };
                        match handle {
                            Err(e) => (render_check_error(path, &e, opts.json), Status::Error),
                            Ok(handle) => cmd_check_remote(client, &handle, path, &text, &opts),
                        }
                    } else {
                        // No tree: the document is lexed once, by the
                        // checker.
                        cmd_check(
                            dtd_src.as_deref(),
                            args.root.as_deref(),
                            args.builtin.as_deref(),
                            path,
                            &text,
                            &opts,
                        )
                    }
                };
                print!("{report}");
                if status.code() > worst.code() {
                    worst = status;
                }
            }
        }
        other => {
            eprintln!("error: unknown command {other:?}\n\n{USAGE}");
            std::process::exit(Status::Error.code());
        }
    }
    std::process::exit(worst.code());
}
