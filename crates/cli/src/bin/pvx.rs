//! `pvx` — potential-validity tooling for document-centric XML.
//!
//! See `pvx --help` or the crate docs of `pv-cli` for usage.

use pv_cli::{
    cmd_analyze, cmd_bench_serve, cmd_classify, cmd_complete, cmd_lint, cmd_top, cmd_validate,
    render_check_error, resolve_dtd, ArgError, Args, BenchServeOpts, CheckOpts, CheckRun, Status,
    TopOpts, DEFAULT_CHUNK, USAGE,
};
use pv_core::depth::DepthPolicy;
use pv_service::{metrics_http, Client, Endpoint, GovernorConfig, LogSink, Server};
use std::time::Duration;

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
    if let Some(p) = args.number("--max-payload") {
        limits.max_payload = p;
    }
    if let Some(r) = args.number("--max-request") {
        limits.max_request = r;
    }
    GovernorConfig {
        max_connections: args.number("--max-conns").unwrap_or(d.max_connections),
        max_inflight: args.number("--max-inflight").unwrap_or(d.max_inflight),
        idle_timeout: timeout_flag(args.number("--idle-timeout-ms"), d.idle_timeout),
        read_timeout: timeout_flag(args.number("--read-timeout-ms"), d.read_timeout),
        write_timeout: timeout_flag(args.number("--write-timeout-ms"), d.write_timeout),
        drain_deadline: args
            .number("--drain-ms")
            .map(Duration::from_millis)
            .unwrap_or(d.drain_deadline),
        limits,
        log: if args.has("--access-log") { LogSink::Stderr } else { LogSink::Null },
        strict_load: args.has("--strict-load"),
    }
}

fn cmd_serve(args: &Args) -> ! {
    let port: Option<u16> = args.number("--port");
    let endpoint = match (args.value("--socket"), port) {
        (Some(path), None) => Endpoint::Unix(path.into()),
        (None, Some(port)) => Endpoint::Tcp(format!("127.0.0.1:{port}")),
        _ => die("serve needs exactly one of --socket PATH or --port N"),
    };
    // A server wants every CPU: unset --jobs means 0 (one parked worker
    // per CPU).
    let jobs = args.number("--jobs").unwrap_or(0);
    match Server::bind_with(&endpoint, jobs, governance(args)) {
        Err(e) => die(&format!("cannot bind {endpoint}: {e}")),
        Ok(handle) => {
            println!(
                "pvx serve: listening on {} (pool: {} persistent workers)",
                handle.endpoint(),
                pv_par::effective_jobs(jobs)
            );
            if let Some(port) = args.number::<u16>("--metrics-port") {
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
        interval: Duration::from_millis(args.number("--interval-ms").unwrap_or(1000)),
        count: args.number("--count").unwrap_or(0),
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
    let Some(addr) = args.value("--remote").map(str::to_owned) else {
        die("bench-serve needs --remote ADDR");
    };
    let builtin = args.value("--builtin").unwrap_or("figure1").to_owned();
    let xml = match args.value("--doc") {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => die(&format!("cannot read {path}: {e}")),
        },
        None => match bench_doc(&builtin) {
            Some(d) => d.to_owned(),
            None => die(&format!("no built-in bench document for {builtin:?}; pass --doc FILE")),
        },
    };
    let opts = BenchServeOpts {
        addr,
        builtin,
        xml,
        requests: args.number("--requests").unwrap_or(200),
        concurrency: args.number("--concurrency").unwrap_or(4),
        flood: args.number("--flood").unwrap_or(0),
        stream_chunk: stream_chunk(args).unwrap_or(0),
        json: args.has("--json"),
    };
    let (report, status) = cmd_bench_serve(&opts);
    print!("{report}");
    std::process::exit(status.code());
}

/// `--stream [--chunk-size N]` as a chunk size, `None` without `--stream`.
fn stream_chunk(args: &Args) -> Option<usize> {
    args.has("--stream").then(|| args.number("--chunk-size").unwrap_or(DEFAULT_CHUNK))
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            std::process::exit(0);
        }
        Err(ArgError::Usage(e)) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(Status::Error.code());
        }
        Err(ArgError::Refused(e)) => die(&e),
    };
    match args.command.as_str() {
        "serve" => cmd_serve(&args),
        "top" => cmd_top_main(&args),
        "bench-serve" => cmd_bench(&args),
        _ => {}
    }
    let (root, builtin) = (args.value("--root"), args.value("--builtin"));

    let dtd_src = match args.value("--dtd") {
        None => None,
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => Some(s),
            Err(e) => die(&format!("cannot read DTD {path}: {e}")),
        },
    };

    let mut remote = match args.value("--remote") {
        None => None,
        Some(addr) => match Client::connect(addr) {
            Ok(c) => Some(c),
            Err(e) => die(&format!("cannot connect to {addr}: {e}")),
        },
    };

    let mut worst = Status::Ok;

    match args.command.as_str() {
        "classify" | "lint" | "analyze" => {
            let ctx = match resolve_dtd(dtd_src.as_deref(), root, builtin, None) {
                Ok(c) => c,
                Err(e) => die(&e),
            };
            let (report, status) = match args.command.as_str() {
                "classify" => cmd_classify(&ctx),
                "lint" => cmd_lint(&ctx),
                _ => cmd_analyze(&ctx, args.has("--json")),
            };
            print!("{report}");
            worst = status;
        }
        _ => {
            if args.docs.is_empty() {
                eprintln!("error: no documents given\n\n{USAGE}");
                std::process::exit(Status::Error.code());
            }
            // Under `check --json`, per-document failures must also come
            // out as JSON lines on stdout (a JSON-lines consumer reads
            // one object per document, success or not); other commands
            // keep plain stderr diagnostics.
            let json_errors = args.has("--json");
            let fail = |path: &str, msg: String, worst: &mut Status| {
                if json_errors {
                    print!("{}", render_check_error(path, &msg, true));
                } else {
                    eprintln!("{path}: {msg}");
                }
                *worst = Status::Error;
            };
            let opts = CheckOpts {
                depth: match args.number("--depth") {
                    Some(d) => DepthPolicy::Bounded(d),
                    None => DepthPolicy::Auto,
                },
                memo: !args.has("--no-memo"),
                json: args.has("--json"),
                verbose: args.has("-v"),
                stream: stream_chunk(&args),
            };
            let mut run = (args.command == "check")
                .then(|| CheckRun::new(dtd_src.as_deref(), root, builtin, remote.as_mut(), opts));
            for path in &args.docs {
                let (report, status) = if let Some(run) = run.as_mut() {
                    match std::fs::File::open(path) {
                        Ok(mut file) => run.check(path, &mut file),
                        Err(e) => {
                            fail(path, format!("cannot read: {e}"), &mut worst);
                            continue;
                        }
                    }
                } else {
                    // `validate` and `complete` work on the tree.
                    let text = match std::fs::read_to_string(path) {
                        Ok(t) => t,
                        Err(e) => {
                            fail(path, format!("cannot read: {e}"), &mut worst);
                            continue;
                        }
                    };
                    let doc = match pv_xml::parse(&text) {
                        Ok(d) => d,
                        Err(e) => {
                            fail(path, format!("not well-formed: {e}"), &mut worst);
                            continue;
                        }
                    };
                    let doctype = doc.doctype.as_ref();
                    let ctx = match resolve_dtd(dtd_src.as_deref(), root, builtin, doctype) {
                        Ok(c) => c,
                        Err(e) => {
                            fail(path, e, &mut worst);
                            continue;
                        }
                    };
                    match args.command.as_str() {
                        "validate" => {
                            cmd_validate(&ctx, path, &doc, args.has("--ignore-whitespace"))
                        }
                        _ => cmd_complete(&ctx, path, &doc),
                    }
                };
                print!("{report}");
                if status.code() > worst.code() {
                    worst = status;
                }
            }
        }
    }
    std::process::exit(worst.code());
}
