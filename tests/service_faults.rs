//! Fault injection against a governed `pv-service`: hostile clients,
//! saturated pools, degraded transport — and through all of it, two
//! invariants:
//!
//! 1. **Bounded damage.** Every degraded path ends in a clean refusal
//!    (`busy`/`draining` app error), a logged timeout close, or a logged
//!    framing close — never a hang, never a poisoned server. Each
//!    governance mechanism has a test here that fails if the mechanism
//!    is disabled.
//! 2. **Bit-identity.** `PvOutcome` stays bit-identical to the
//!    in-process check on every path that answers at all: direct,
//!    remote, and through a degraded proxy.
//!
//! The injectors live in `pv_workload::faultnet` ([`FaultProxy`]); the
//! assertions lean on the governor's memory [`LogSink`], so they check
//! *dispositions*, not timing.

use potential_validity::prelude::*;
use pv_dtd::builtin::BuiltinDtd;
use pv_service::{Client, Endpoint, GovernorConfig, LogSink, Server, ServerHandle, ServiceError};
use pv_workload::faultnet::{FaultMode, FaultProxy};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Binds a governed TCP server on an ephemeral port with a memory log.
fn governed(config: GovernorConfig) -> (ServerHandle, Arc<Mutex<Vec<String>>>) {
    let (sink, log) = LogSink::memory();
    let server = Server::bind_with(
        &Endpoint::parse("127.0.0.1:0"),
        2,
        GovernorConfig { log: sink, ..config },
    )
    .expect("bind on port 0");
    (server, log)
}

fn tcp_addr(server: &ServerHandle) -> String {
    match server.endpoint() {
        Endpoint::Tcp(a) => a.clone(),
        other => unreachable!("expected TCP endpoint, got {other}"),
    }
}

fn expect_outcome(b: BuiltinDtd, xml: &str) -> PvOutcome {
    let analysis = b.analysis();
    let checker = CheckEngine::new(analysis.clone());
    checker.check_document(&pv_xml::parse(xml).unwrap())
}

/// Polls the memory log until a line contains `needle` (dispositions are
/// written by server threads; a blink of scheduling delay is normal).
fn wait_for_log(log: &Arc<Mutex<Vec<String>>>, needle: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(line) =
            log.lock().unwrap().iter().find(|l| l.contains(needle)).cloned()
        {
            return line;
        }
        assert!(
            Instant::now() < deadline,
            "log never gained {needle:?}; have:\n{}",
            log.lock().unwrap().join("\n")
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn shutdown(server: ServerHandle, addr: &str) {
    // Prefer the wire verb so SHUTDOWN-path coverage comes for free, but
    // fall back to the handle: under a tight max_connections the shutdown
    // connection itself can be shed `busy` (a correct refusal), and
    // ignoring that would leave `join` blocked forever.
    if let Ok(mut c) = Client::connect(addr) {
        if c.shutdown().is_ok() {
            server.join();
            return;
        }
    }
    server.shutdown();
}

const PV_XML: &str = "<r><a><b>x</b><c>y</c> dog<e/></a></r>";

// ---------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------

/// A client that opens a CHECK payload and stops sending must be cut by
/// `read_timeout` — with the stall logged — while fresh connections keep
/// being served. Disable the read deadline and this test hangs on the
/// reaped-connection read below (caught by the harness timeout).
#[test]
fn payload_stall_trips_read_timeout() {
    let (server, log) = governed(GovernorConfig {
        read_timeout: Some(Duration::from_millis(150)),
        idle_timeout: Some(Duration::from_secs(30)),
        ..GovernorConfig::default()
    });
    let addr = tcp_addr(&server);
    let mut client = Client::connect(&addr).unwrap();
    let dtd = client.load_builtin("figure1").unwrap();

    // Hand-rolled CHECK that claims 64 bytes and sends 3.
    let mut raw = TcpStream::connect(&addr).unwrap();
    write!(raw, "CHECK {} 1 1\n64\n<r>", dtd.handle).unwrap();
    raw.flush().unwrap();
    let line = wait_for_log(&log, "disposition=read_timeout");
    assert!(line.contains("op=CHECK"), "stall logged with its op: {line}");
    // The stalled connection is closed server-side…
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = Vec::new();
    assert_eq!(raw.read_to_end(&mut buf).unwrap_or(0), 0, "no reply to a timed-out request");
    // …and the server still answers everyone else, bit-identically.
    let got = client.check(&dtd.handle, PV_XML, 2, true).unwrap();
    assert_eq!(got.outcome, expect_outcome(BuiltinDtd::Figure1, PV_XML));
    shutdown(server, &addr);
}

/// A connection that sits silent between requests is reaped by
/// `idle_timeout` (logged as such), releasing its slot.
#[test]
fn idle_connections_are_reaped() {
    let (server, log) = governed(GovernorConfig {
        idle_timeout: Some(Duration::from_millis(120)),
        ..GovernorConfig::default()
    });
    let addr = tcp_addr(&server);
    let mut idle = Client::connect(&addr).unwrap();
    idle.ping().unwrap();
    let line = wait_for_log(&log, "disposition=idle_timeout");
    assert!(line.contains("conn="), "{line}");
    // The reaped connection errors on next use; a fresh one works.
    assert!(idle.ping().is_err(), "reaped connection must be closed");
    let mut fresh = Client::connect(&addr).unwrap();
    fresh.ping().unwrap();
    shutdown(server, &addr);
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

/// Connections past `max_connections` get one clean `busy` error line —
/// not a hang, not a silent close — and a freed slot re-admits.
#[test]
fn connection_flood_sheds_cleanly_and_recovers() {
    let (server, log) = governed(GovernorConfig {
        max_connections: 2,
        ..GovernorConfig::default()
    });
    let addr = tcp_addr(&server);
    let mut a = Client::connect(&addr).unwrap();
    let mut b = Client::connect(&addr).unwrap();
    a.ping().unwrap();
    b.ping().unwrap();

    // Third connection: accepted at the TCP level, refused at the
    // protocol level with a parseable busy error, then closed.
    let over = TcpStream::connect(&addr).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = BufReader::new(over);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":false") && line.contains("\"kind\":\"busy\""), "{line}");
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap_or(0), 0, "closed after the refusal");
    wait_for_log(&log, "disposition=busy");

    // Freeing a slot re-admits as soon as the server notices the close.
    drop(a);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut c = loop {
        if let Ok(mut c) = Client::connect(&addr) {
            if c.ping().is_ok() {
                break c;
            }
        }
        assert!(Instant::now() < deadline, "slot never freed");
        std::thread::sleep(Duration::from_millis(5));
    };
    let dtd = c.load_builtin("figure1").unwrap();
    let got = c.check(&dtd.handle, PV_XML, 1, true).unwrap();
    assert_eq!(got.outcome, expect_outcome(BuiltinDtd::Figure1, PV_XML));
    drop(b);
    shutdown(server, &addr);
}

/// A connection turned away `busy` reads as a refusal on the client, also
/// when the server has answered and closed before the request went out:
/// a write that then fails (`BrokenPipe`, `ConnectionReset`) still finds
/// the refusal waiting. With both slots held, 200 concurrent attempts to
/// load a DTD must each end in `ServiceError::Unavailable`, none in a
/// transport error.
#[test]
fn refused_loads_read_as_unavailable() {
    let (server, _log) =
        governed(GovernorConfig { max_connections: 2, ..GovernorConfig::default() });
    let addr = tcp_addr(&server);
    let mut a = Client::connect(&addr).unwrap();
    let mut b = Client::connect(&addr).unwrap();
    a.ping().unwrap();
    b.ping().unwrap();

    let (threads, per_thread) = (20, 10);
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut wrong = Vec::new();
                for i in 0..per_thread {
                    let mut c = match Client::connect(&addr) {
                        Ok(c) => c,
                        Err(e) => {
                            wrong.push(format!("connect: {e}"));
                            continue;
                        }
                    };
                    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                    let got = if (t + i) % 2 == 0 {
                        c.load_builtin("play").map(|_| ())
                    } else {
                        c.load_dtd("r", "<!ELEMENT r (#PCDATA)>").map(|_| ())
                    };
                    match got {
                        Err(ServiceError::Unavailable { kind, .. }) if kind == "busy" => {}
                        other => wrong.push(format!("{other:?}")),
                    }
                }
                wrong
            })
        })
        .collect();
    let wrong: Vec<String> = workers.into_iter().flat_map(|w| w.join().unwrap()).collect();
    assert!(wrong.is_empty(), "{} of {} attempts: {wrong:?}", wrong.len(), threads * per_thread);
    drop(a);
    drop(b);
    shutdown(server, &addr);
}

/// Pool saturation: with `max_inflight: 1` held by a parked stream, a
/// second check is shed with a `busy` app error while its connection
/// stays usable — and the shed is logged. A shed `CHECK_STREAM` still
/// drains its chunks, so the next request on its connection parses
/// cleanly. With shedding disabled this test fails on the Ok(..) arm
/// below.
#[test]
fn pool_saturation_sheds_requests_not_connections() {
    let (server, log) = governed(GovernorConfig {
        max_inflight: 1,
        idle_timeout: Some(Duration::from_secs(30)),
        ..GovernorConfig::default()
    });
    let addr = tcp_addr(&server);
    let mut client = Client::connect(&addr).unwrap();
    let dtd = client.load_builtin("figure1").unwrap();

    // Hold the only inflight permit: open a CHECK_STREAM and park after
    // the first chunk (the chunk loop waits under idle_timeout).
    let mut holder = TcpStream::connect(&addr).unwrap();
    write!(holder, "CHECK_STREAM {}\n3\n<r>", dtd.handle).unwrap();
    holder.flush().unwrap();
    // Wait until the permit is actually held, visible via STATS.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = client.stats().unwrap();
        let inflight = stats
            .get("governance")
            .and_then(|g| g.get("inflight"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        if inflight == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "stream never took the inflight permit");
        std::thread::sleep(Duration::from_millis(5));
    }

    match client.check(&dtd.handle, PV_XML, 1, true) {
        Err(ServiceError::Unavailable { kind, .. }) => assert_eq!(kind, "busy"),
        other => panic!("expected busy shed, got {other:?}"),
    }
    wait_for_log(&log, "disposition=shed");
    // The shed connection still works…
    client.ping().unwrap();
    // …a multi-chunk CHECK_STREAM is shed the same way, after the server
    // drained every chunk without checking them…
    match client.check_stream(&dtd.handle, PV_XML.as_bytes().chunks(4)) {
        Err(ServiceError::Unavailable { kind, .. }) => assert_eq!(kind, "busy"),
        other => panic!("expected busy shed, got {other:?}"),
    }
    // …so the framing is still in sync: a PING answers at once.
    client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    client.ping().unwrap();
    // …and once the holder finishes its upload, the answer it gets is
    // bit-identical to in-process.
    let rest = &PV_XML.as_bytes()[3..];
    writeln!(holder, "{}", rest.len()).unwrap();
    holder.write_all(rest).unwrap();
    holder.write_all(b"0\n").unwrap();
    holder.flush().unwrap();
    let mut line = String::new();
    BufReader::new(&holder).read_line(&mut line).unwrap();
    assert!(line.contains("\"potentially_valid\":true"), "{line}");
    let got = client.check(&dtd.handle, PV_XML, 1, true).unwrap();
    assert_eq!(got.outcome, expect_outcome(BuiltinDtd::Figure1, PV_XML));
    shutdown(server, &addr);
}

/// Payloads over `max_payload` are refused as framing errors without the
/// server buffering them; the default-limit control accepts the same
/// document.
#[test]
fn oversized_payloads_are_refused() {
    let (server, log) = governed(GovernorConfig {
        limits: pv_service::proto::Limits { max_payload: 256, max_request: 1024 },
        ..GovernorConfig::default()
    });
    let addr = tcp_addr(&server);
    let mut client = Client::connect(&addr).unwrap();
    let dtd = client.load_builtin("figure1").unwrap();
    let big = format!("<r><a><b>{}</b><c>y</c> z<e/></a></r>", "x".repeat(500));
    let err = client.check(&dtd.handle, &big, 1, true).unwrap_err();
    assert!(err.to_string().contains("payload"), "{err}");
    wait_for_log(&log, "disposition=framing_error");
    // Same request against default limits: answered, bit-identically.
    let (control, _) = governed(GovernorConfig::default());
    let caddr = tcp_addr(&control);
    let mut ok = Client::connect(&caddr).unwrap();
    let cdtd = ok.load_builtin("figure1").unwrap();
    let got = ok.check(&cdtd.handle, &big, 1, true).unwrap();
    assert_eq!(got.outcome, expect_outcome(BuiltinDtd::Figure1, &big));
    shutdown(control, &caddr);
    shutdown(server, &addr);
}

/// A length prefix claiming gigabytes is rejected up front — the server
/// must not allocate the claim.
#[test]
fn huge_claimed_length_is_rejected_without_allocation() {
    let (server, _log) = governed(GovernorConfig::default());
    let addr = tcp_addr(&server);
    let mut raw = TcpStream::connect(&addr).unwrap();
    // 100 GiB claim, 3 real bytes.
    write!(raw, "CHECK d0 1 1\n107374182400\n<r>").unwrap();
    raw.flush().unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut line = String::new();
    BufReader::new(raw.try_clone().unwrap()).read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":false"), "refused, not buffered: {line}");
    // Fresh connections still served.
    let mut c = Client::connect(&addr).unwrap();
    c.ping().unwrap();
    shutdown(server, &addr);
}

// ---------------------------------------------------------------------
// Degraded transport (FaultProxy)
// ---------------------------------------------------------------------

/// Bytes trickling through a slow proxy never go idle long enough to
/// trip the deadlines — the answer must come through bit-identical.
#[test]
fn trickled_uploads_survive_and_stay_bit_identical() {
    let (server, _log) = governed(GovernorConfig {
        idle_timeout: Some(Duration::from_secs(10)),
        read_timeout: Some(Duration::from_secs(10)),
        ..GovernorConfig::default()
    });
    let addr = tcp_addr(&server);
    let proxy = FaultProxy::spawn(&addr).unwrap();
    proxy.set_mode(FaultMode::Trickle { chunk: 5, pause: Duration::from_millis(2) });
    let mut client = Client::connect(proxy.addr()).unwrap();
    let dtd = client.load_builtin("figure1").unwrap();
    let got = client.check(&dtd.handle, PV_XML, 2, true).unwrap();
    assert_eq!(got.outcome, expect_outcome(BuiltinDtd::Figure1, PV_XML));
    let streamed = client.check_stream(&dtd.handle, PV_XML.as_bytes().chunks(4)).unwrap();
    assert_eq!(streamed.outcome, got.outcome);
    drop(client);
    drop(proxy);
    shutdown(server, &addr);
}

/// A connection cut mid-frame surfaces as a transport error client-side
/// and leaves the server fully healthy.
#[test]
fn mid_frame_cut_leaves_server_healthy() {
    let (server, _log) = governed(GovernorConfig::default());
    let addr = tcp_addr(&server);
    let proxy = FaultProxy::spawn(&addr).unwrap();
    let mut warm = Client::connect(proxy.addr()).unwrap();
    let dtd = warm.load_builtin("figure1").unwrap();
    drop(warm);
    // Cut after the verb line + a few payload bytes.
    proxy.set_mode(FaultMode::CutAfter(24));
    let mut cut = Client::connect(proxy.addr()).unwrap();
    let err = cut.check(&dtd.handle, PV_XML, 1, true);
    assert!(err.is_err(), "a cut connection cannot produce an answer");
    drop(cut);
    // Direct connection: bit-identical service continues.
    let mut direct = Client::connect(&addr).unwrap();
    let got = direct.check(&dtd.handle, PV_XML, 2, true).unwrap();
    assert_eq!(got.outcome, expect_outcome(BuiltinDtd::Figure1, PV_XML));
    drop(proxy);
    shutdown(server, &addr);
}

/// Garbage bytes ahead of real requests get one framing error and a
/// close; the server survives.
#[test]
fn garbage_prefix_gets_clean_framing_error() {
    let (server, log) = governed(GovernorConfig::default());
    let addr = tcp_addr(&server);
    let proxy = FaultProxy::spawn(&addr).unwrap();
    proxy.set_mode(FaultMode::GarbagePrefix(b"\x00\xfe\xffNOT A VERB\n".to_vec()));
    let mut confused = Client::connect(proxy.addr()).unwrap();
    assert!(confused.ping().is_err(), "garbage must not be survivable mid-connection");
    wait_for_log(&log, "disposition=framing_error");
    drop(confused);
    let mut fine = Client::connect(&addr).unwrap();
    fine.ping().unwrap();
    drop(proxy);
    shutdown(server, &addr);
}

// ---------------------------------------------------------------------
// Drain
// ---------------------------------------------------------------------

/// SHUTDOWN with a wedged in-flight connection: the drain deadline
/// force-closes it, `join()` returns promptly, and the force is logged.
/// Without the deadline this test times out in `join()`.
#[test]
fn drain_deadline_bounds_shutdown() {
    let (server, log) = governed(GovernorConfig {
        drain_deadline: Duration::from_millis(300),
        idle_timeout: Some(Duration::from_secs(60)),
        read_timeout: Some(Duration::from_secs(60)),
        ..GovernorConfig::default()
    });
    let addr = tcp_addr(&server);
    let mut client = Client::connect(&addr).unwrap();
    let dtd = client.load_builtin("figure1").unwrap();
    // Wedge: a CHECK_STREAM that never finishes its upload.
    let mut wedged = TcpStream::connect(&addr).unwrap();
    write!(wedged, "CHECK_STREAM {}\n3\n<r>", dtd.handle).unwrap();
    wedged.flush().unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let it park in the chunk loop
    client.shutdown().unwrap();
    drop(client);
    let t0 = Instant::now();
    server.join();
    let waited = t0.elapsed();
    assert!(waited < Duration::from_secs(5), "join took {waited:?}, deadline ignored");
    wait_for_log(&log, "disposition=drain_forced");
}

/// A connection racing into a draining server gets a clean `draining`
/// refusal — never accepted-and-abandoned (the old SHUTDOWN
/// self-connect race).
#[test]
fn late_connections_get_clean_draining_refusal() {
    let (server, _log) = governed(GovernorConfig {
        drain_deadline: Duration::from_millis(1500),
        idle_timeout: Some(Duration::from_secs(60)),
        ..GovernorConfig::default()
    });
    let addr = tcp_addr(&server);
    let mut client = Client::connect(&addr).unwrap();
    let dtd = client.load_builtin("figure1").unwrap();
    // Park one busy upload so the server actually lingers in drain.
    let mut busy = TcpStream::connect(&addr).unwrap();
    write!(busy, "CHECK_STREAM {}\n3\n<r>", dtd.handle).unwrap();
    busy.flush().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    client.shutdown().unwrap();
    drop(client);
    // Late arrivals during the drain window are answered, not abandoned.
    let mut refusals = 0;
    for _ in 0..5 {
        let Ok(late) = TcpStream::connect(&addr) else { break };
        late.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut line = String::new();
        if BufReader::new(late).read_line(&mut line).unwrap_or(0) > 0 {
            assert!(
                line.contains("\"kind\":\"draining\"") || line.contains("\"kind\":\"busy\""),
                "late connection got a non-refusal: {line}"
            );
            refusals += 1;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(refusals > 0, "no late connection was answered during drain");
    drop(busy);
    server.join();
}

// ---------------------------------------------------------------------
// Framing fuzz
// ---------------------------------------------------------------------

mod fuzz {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// One long-lived default-governed server shared by every fuzz case
    /// (leaked — proptest cases cannot be globally joined).
    fn fuzz_addr() -> &'static str {
        static ADDR: OnceLock<String> = OnceLock::new();
        ADDR.get_or_init(|| {
            let server = Server::bind_with(
                &Endpoint::parse("127.0.0.1:0"),
                1,
                GovernorConfig {
                    // Short deadlines keep wedge-shaped inputs cheap.
                    idle_timeout: Some(Duration::from_millis(500)),
                    read_timeout: Some(Duration::from_millis(500)),
                    ..GovernorConfig::default()
                },
            )
            .expect("bind fuzz server");
            let addr = tcp_addr(&server);
            std::mem::forget(server);
            addr
        })
    }

    /// Builds one hostile payload from raw fuzz ingredients. `shape`
    /// picks the attack family; the rest parameterize it.
    fn hostile_payload(shape: u8, bytes: &[u8], claim: u64, line: &str) -> Vec<u8> {
        match shape % 4 {
            // Arbitrary bytes.
            0 => bytes.to_vec(),
            // Verb-shaped lines with corrupt operands.
            1 => line.as_bytes().to_vec(),
            // Truncated or lying length prefixes.
            2 => format!("CHECK d0 1 1\n{claim}\n<r>").into_bytes(),
            // Valid-looking frame carrying junk instead of XML.
            _ => {
                let mut req = format!("CHECK d0 1 1\n{}\n", bytes.len()).into_bytes();
                req.extend_from_slice(bytes);
                req
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Whatever bytes arrive, the server answers each connection
        /// with single-line JSON or a close — and it never dies: a
        /// well-formed PING on a fresh connection succeeds after every
        /// case.
        #[test]
        fn arbitrary_bytes_never_wedge_the_server(
            shapes in prop::collection::vec(any::<u8>(), 1..4),
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            claim in 0u64..u64::MAX,
            line in "(CHECK|LOAD|BATCH|CHECK_STREAM|BATCH_STREAM|BUILTIN|STATS|RESET|PING|NOPE)( [ -~]{0,20}){0,3}\n",
        ) {
            let addr = fuzz_addr();
            let mut raw = TcpStream::connect(addr).unwrap();
            raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            for shape in &shapes {
                let p = hostile_payload(*shape, &bytes, claim, &line);
                if raw.write_all(&p).is_err() {
                    break; // server already (rightly) closed on us
                }
            }
            let _ = raw.flush();
            // Read whatever comes back until close or deadline; every
            // complete line must be JSON (starts with '{').
            let mut reader = BufReader::new(raw);
            let mut line = String::new();
            while let Ok(n) = reader.read_line(&mut line) {
                if n == 0 {
                    break;
                }
                prop_assert!(
                    line.starts_with('{'),
                    "non-JSON response to garbage: {line:?}"
                );
                line.clear();
            }
            drop(reader);
            // Liveness probe: the server took no lasting damage.
            let mut probe = Client::connect(addr).unwrap();
            prop_assert!(probe.ping().is_ok(), "server wedged after garbage");
        }
    }
}
