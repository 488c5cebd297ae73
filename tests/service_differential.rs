//! Service differential: outcomes fetched **over the wire** from a
//! resident `pv-service` server must be bit-identical to in-process
//! checking — same verdict, same violation (node, kind, symbol, index),
//! same work counters — at every job count, on warm and cold caches, and
//! across interleaved DTDs sharing one persistent pool.
//!
//! The server parses the same document text the in-process expectation
//! parses, runs the same `pv-core` code (sequential, or pooled on parked
//! workers), and ships the outcome as JSON; the client rebuilds a real
//! `PvOutcome`. Anything lost or perturbed anywhere in that pipeline —
//! framing, JSON codecs, engine sharing, pool scheduling, sticky scratch
//! reuse — shows up here as an inequality.

use potential_validity::prelude::*;
use pv_dtd::builtin::BuiltinDtd;
use pv_service::{Client, Endpoint, GovernorConfig, LogSink, Server, ServerHandle};
use pv_workload::corpus;
use pv_workload::mutate::Mutator;
use std::time::Duration;

const JOBS: [usize; 3] = [1, 2, 8];

fn start_server() -> (ServerHandle, Client) {
    let server = Server::bind(&Endpoint::parse("127.0.0.1:0"), 4).expect("bind on port 0");
    let client = Client::connect_endpoint(server.endpoint()).expect("connect");
    (server, client)
}

/// In-process expectation for a document text under a builtin DTD.
fn expect_outcome(b: BuiltinDtd, xml: &str) -> PvOutcome {
    let analysis = b.analysis();
    let checker = CheckEngine::new(analysis.clone());
    let doc = pv_xml::parse(xml).unwrap();
    checker.check_document(&doc)
}

/// Builtin corpus scenarios as serialized text (valid, stripped, broken).
fn scenarios(b: BuiltinDtd) -> Vec<(String, String)> {
    let mut out = Vec::new();
    if let Some(valid) = corpus::for_builtin(b, 300) {
        let mut stripped = valid.clone();
        Mutator::new(11).delete_random_markup(&mut stripped, 60);
        let mut swapped = stripped.clone();
        Mutator::new(12).swap_random_siblings(&mut swapped);
        let mut renamed = stripped.clone();
        Mutator::new(13).rename_random_element(&mut renamed, &b.analysis().dtd);
        out.push(("valid".to_owned(), valid.to_xml()));
        out.push(("stripped".to_owned(), stripped.to_xml()));
        out.push(("swapped".to_owned(), swapped.to_xml()));
        out.push(("renamed".to_owned(), renamed.to_xml()));
    }
    out
}

#[test]
fn over_the_wire_outcomes_bit_identical() {
    let (server, mut client) = start_server();
    // Hand-written Figure 1 documents covering every violation kind.
    let fig1 = client.load_builtin("figure1").unwrap();
    for xml in [
        "<r><a><b>A quick brown</b><c> fox</c> dog<e/></a></r>", // PV
        "<r><a><b>A quick brown</b><e/><c> fox</c></a></r>",     // content-rejected
        "<a><b/></a>",                                           // root mismatch
        "<r><zzz/></r>",                                         // undeclared element
        "<r/>",                                                  // trivial
    ] {
        let expect = expect_outcome(BuiltinDtd::Figure1, xml);
        for jobs in JOBS {
            let got = client.check(&fig1.handle, xml, jobs, true).unwrap();
            assert_eq!(got.outcome, expect, "figure1 jobs={jobs} xml={xml}");
        }
    }
    // Realistic corpora in several states of (dis)repair.
    for b in [BuiltinDtd::Play, BuiltinDtd::TeiLite, BuiltinDtd::DocbookArticle] {
        let dtd = client.load_builtin(b.name()).unwrap();
        for (label, xml) in scenarios(b) {
            let expect = expect_outcome(b, &xml);
            for jobs in JOBS {
                let got = client.check(&dtd.handle, &xml, jobs, true).unwrap();
                assert_eq!(got.outcome, expect, "{}:{label} jobs={jobs}", b.name());
            }
        }
    }
    client.shutdown().unwrap();
    drop(client);
    server.join();
}

#[test]
fn batch_over_the_wire_matches_per_document_in_process() {
    let (server, mut client) = start_server();
    let dtd = client.load_builtin("play").unwrap();
    let mut docs = corpus::batch(BuiltinDtd::Play, 8, 200).unwrap();
    for (i, doc) in docs.iter_mut().enumerate() {
        Mutator::new(i as u64).delete_random_markup(doc, 30);
        if i % 3 == 0 {
            Mutator::new(i as u64 ^ 7).swap_random_siblings(doc);
        }
    }
    let mut xmls: Vec<String> = docs.iter().map(|d| d.to_xml()).collect();
    // The play DTD is insertion-permissive enough that random mutations
    // usually stay potentially valid; plant two deterministic
    // unrepairable documents so the batch carries both verdicts.
    xmls[1] = "<ACT><TITLE>misrooted</TITLE></ACT>".to_owned(); // root mismatch
    xmls[4] = xmls[4].replacen("<PERSONAE>", "<PERSONAE><FOO>oops</FOO>", 1); // undeclared
    let expect: Vec<PvOutcome> =
        xmls.iter().map(|x| expect_outcome(BuiltinDtd::Play, x)).collect();
    // Both verdicts must occur or the scenario is too weak to matter.
    assert!(expect.iter().any(|o| o.is_potentially_valid()));
    assert!(expect.iter().any(|o| !o.is_potentially_valid()));
    for jobs in [0, 1, 2, 8] {
        let got = client.check_batch(&dtd.handle, &xmls, jobs).unwrap();
        assert_eq!(got, expect, "jobs={jobs}");
    }
    client.shutdown().unwrap();
    drop(client);
    server.join();
}

#[test]
fn warm_cache_sequences_identical_to_cold() {
    let (server, mut client) = start_server();
    let dtd = client.load_builtin("tei-drama").unwrap();
    let mut doc = corpus::tei_drama(400);
    Mutator::new(5).delete_random_markup(&mut doc, 80);
    let xml = doc.to_xml();
    let expect = expect_outcome(BuiltinDtd::TeiDrama, &xml);
    // Cold, then repeatedly warm — the shared cache must never perturb an
    // outcome (stats deltas replay bit-identically), with or without the
    // per-request memo, at any job count.
    for round in 0..4 {
        for jobs in JOBS {
            let memoized = client.check(&dtd.handle, &xml, jobs, true).unwrap();
            assert_eq!(memoized.outcome, expect, "round={round} jobs={jobs} memo=on");
            assert!(memoized.memo.is_some());
            let plain = client.check(&dtd.handle, &xml, jobs, false).unwrap();
            assert_eq!(plain.outcome, expect, "round={round} jobs={jobs} memo=off");
            assert!(plain.memo.is_none());
        }
    }
    // RESET drops the cache; outcomes still identical afterwards.
    client.reset(&dtd.handle).unwrap();
    assert_eq!(client.check(&dtd.handle, &xml, 2, true).unwrap().outcome, expect);
    client.shutdown().unwrap();
    drop(client);
    server.join();
}

#[test]
fn pool_reuse_leaks_no_state_between_dtds_and_requests() {
    let (server, mut client) = start_server();
    // Two structurally different DTDs interleaved on one pool: sticky
    // scratch and the shared pool must carry nothing across requests.
    let fig1 = client.load_builtin("figure1").unwrap();
    let article = client.load_builtin("docbook-article").unwrap();
    assert_ne!(fig1.handle, article.handle);
    let fig1_docs: Vec<(String, PvOutcome)> = [
        "<r><a><b>x</b><c>y</c> dog<e/></a></r>",
        "<r><a><b>x</b><e/><c>y</c></a></r>",
    ]
    .iter()
    .map(|x| ((*x).to_owned(), expect_outcome(BuiltinDtd::Figure1, x)))
    .collect();
    let mut article_doc = corpus::docbook_article(300);
    Mutator::new(3).delete_random_markup(&mut article_doc, 60);
    let article_xml = article_doc.to_xml();
    let article_expect = expect_outcome(BuiltinDtd::DocbookArticle, &article_xml);
    for round in 0..6 {
        let jobs = JOBS[round % JOBS.len()];
        for (xml, expect) in &fig1_docs {
            assert_eq!(
                &client.check(&fig1.handle, xml, jobs, true).unwrap().outcome,
                expect,
                "figure1 round={round}"
            );
        }
        assert_eq!(
            client.check(&article.handle, &article_xml, jobs, true).unwrap().outcome,
            article_expect,
            "article round={round}"
        );
    }
    // Loading the same builtin again is idempotent: same handle, warm
    // cache preserved (hits grow, entries persist).
    let again = client.load_builtin("figure1").unwrap();
    assert_eq!(again.handle, fig1.handle);
    client.shutdown().unwrap();
    drop(client);
    server.join();
}

#[cfg(unix)]
#[test]
fn unix_socket_round_trip() {
    let path = std::env::temp_dir().join(format!("pv-service-test-{}.sock", std::process::id()));
    let server = Server::bind(&Endpoint::Unix(path.clone()), 2).expect("bind unix socket");
    let mut client = Client::connect_endpoint(server.endpoint()).expect("connect unix");
    client.ping().unwrap();
    // A second bind on a LIVE socket must refuse, not hijack it.
    let clash_kind = Server::bind(&Endpoint::Unix(path.clone()), 1).map(|_| ()).map_err(|e| e.kind());
    assert_eq!(clash_kind, Err(std::io::ErrorKind::AddrInUse));
    let dtd = client.load_builtin("figure1").unwrap();
    let xml = "<r><a><b>x</b><c>y</c> dog<e/></a></r>";
    let got = client.check(&dtd.handle, xml, 2, true).unwrap();
    assert_eq!(got.outcome, expect_outcome(BuiltinDtd::Figure1, xml));
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("documents").unwrap().as_u64(), Some(1));
    assert!(stats.get("workers").unwrap().as_u64().unwrap() >= 1);
    client.shutdown().unwrap();
    drop(client);
    server.join();
    assert!(!path.exists(), "socket file cleaned up");
}

/// In-process **streaming** expectation for a document text.
fn expect_stream_outcome(b: BuiltinDtd, xml: &str, chunk: usize) -> PvOutcome {
    let analysis = b.analysis();
    let checker = CheckEngine::new(analysis.clone());
    let mut stream = pv_core::stream::StreamCheck::new(checker.stream_checker());
    for piece in xml.as_bytes().chunks(chunk.max(1)) {
        stream.feed(piece).unwrap();
    }
    stream.finish().unwrap()
}

#[test]
fn check_stream_over_the_wire_bit_identical() {
    let (server, mut client) = start_server();
    let fig1 = client.load_builtin("figure1").unwrap();
    for xml in [
        "<r><a><b>A quick brown</b><c> fox</c> dog<e/></a></r>", // PV
        "<r><a><b>A quick brown</b><e/><c> fox</c></a></r>",     // content-rejected
        "<a><b/></a>",                                           // root mismatch
        "<r><zzz/></r>",                                         // undeclared element
        "<r/>",                                                  // trivial
    ] {
        let tree = expect_outcome(BuiltinDtd::Figure1, xml);
        for chunk in [1usize, 7, xml.len()] {
            // One invariant, three witnesses: the in-process streaming
            // checker, the remote tree check, and the remote stream all
            // agree bit-for-bit.
            assert_eq!(expect_stream_outcome(BuiltinDtd::Figure1, xml, chunk), tree);
            let got = client
                .check_stream(&fig1.handle, xml.as_bytes().chunks(chunk))
                .unwrap();
            assert_eq!(got.outcome, tree, "figure1 chunk={chunk} xml={xml}");
            assert!(got.memo.is_none(), "streaming never reports memo telemetry");
        }
    }
    // Realistic corpora in several states of (dis)repair, uploaded in
    // mid-construct-splitting chunk sizes.
    for b in [BuiltinDtd::Play, BuiltinDtd::TeiLite] {
        let dtd = client.load_builtin(b.name()).unwrap();
        for (label, xml) in scenarios(b) {
            let tree = expect_outcome(b, &xml);
            for chunk in [3usize, 113, 64 << 10] {
                let got =
                    client.check_stream(&dtd.handle, xml.as_bytes().chunks(chunk)).unwrap();
                assert_eq!(got.outcome, tree, "{}:{label} chunk={chunk}", b.name());
            }
        }
    }
    client.shutdown().unwrap();
    drop(client);
    server.join();
}

#[cfg(unix)]
#[test]
fn check_stream_unix_socket_round_trip() {
    let path = std::env::temp_dir()
        .join(format!("pv-service-stream-test-{}.sock", std::process::id()));
    let server = Server::bind(&Endpoint::Unix(path.clone()), 2).expect("bind unix socket");
    let mut client = Client::connect_endpoint(server.endpoint()).expect("connect unix");
    let dtd = client.load_builtin("play").unwrap();
    let mut doc = corpus::play(300);
    Mutator::new(17).delete_random_markup(&mut doc, 40);
    let xml = doc.to_xml();
    let expect = expect_outcome(BuiltinDtd::Play, &xml);
    for chunk in [1usize, 251, xml.len()] {
        let got = client.check_stream(&dtd.handle, xml.as_bytes().chunks(chunk)).unwrap();
        assert_eq!(got.outcome, expect, "chunk={chunk}");
    }
    client.shutdown().unwrap();
    drop(client);
    server.join();
}

#[test]
fn check_stream_errors_leave_the_connection_usable() {
    let (server, mut client) = start_server();
    let dtd = client.load_builtin("figure1").unwrap();
    let xml = "<r><a><b>x</b><c>y</c> dog<e/></a></r>";
    // Unknown handle: the server must drain the chunk sequence before
    // answering, or these bytes would be parsed as garbage requests.
    let err = client.check_stream("d999", xml.as_bytes().chunks(4)).unwrap_err();
    assert!(err.to_string().contains("unknown DTD handle"), "{err}");
    assert_eq!(
        client.check_stream(&dtd.handle, xml.as_bytes().chunks(4)).unwrap().outcome,
        expect_outcome(BuiltinDtd::Figure1, xml)
    );
    // Malformed document: clean app-level error, connection stays usable.
    let err = client.check_stream(&dtd.handle, "<r><broken".as_bytes().chunks(3)).unwrap_err();
    assert!(err.to_string().contains("not well-formed"), "{err}");
    // Truncated document: same surface.
    let err = client.check_stream(&dtd.handle, "<r><a>".as_bytes().chunks(2)).unwrap_err();
    assert!(err.to_string().contains("not well-formed"), "{err}");
    let got = client.check_stream(&dtd.handle, xml.as_bytes().chunks(7)).unwrap();
    assert_eq!(got.outcome, expect_outcome(BuiltinDtd::Figure1, xml));
    // And the plain tree path still works on the same connection.
    let got = client.check(&dtd.handle, xml, 2, true).unwrap();
    assert_eq!(got.outcome, expect_outcome(BuiltinDtd::Figure1, xml));
    client.shutdown().unwrap();
    drop(client);
    server.join();
}

#[test]
fn mid_stream_disconnect_leaves_the_server_healthy() {
    use std::io::Write as _;
    let (server, mut client) = start_server();
    let dtd = client.load_builtin("figure1").unwrap();
    let addr = match server.endpoint() {
        Endpoint::Tcp(a) => a.clone(),
        _ => unreachable!("test server binds TCP"),
    };
    // A client that starts a CHECK_STREAM upload and vanishes mid-chunk
    // sequence (connection dropped without the zero-length terminator).
    for partial in ["", "<r><a><b>x", "<r><a><b>x</b><c>y</c> dog<e/></a></r>"] {
        let mut raw = std::net::TcpStream::connect(&addr).unwrap();
        writeln!(raw, "CHECK_STREAM {}", dtd.handle).unwrap();
        if !partial.is_empty() {
            writeln!(raw, "{}", partial.len()).unwrap();
            raw.write_all(partial.as_bytes()).unwrap();
        }
        raw.flush().unwrap();
        drop(raw); // vanish without the terminator
    }
    // The server must shrug those off and keep serving this connection.
    let xml = "<r><a><b>x</b><c>y</c> dog<e/></a></r>";
    let got = client.check_stream(&dtd.handle, xml.as_bytes().chunks(5)).unwrap();
    assert_eq!(got.outcome, expect_outcome(BuiltinDtd::Figure1, xml));
    // And fresh connections are still accepted afterwards.
    let mut late = Client::connect_endpoint(server.endpoint()).unwrap();
    late.ping().unwrap();
    drop(late);
    client.shutdown().unwrap();
    drop(client);
    server.join();
}

/// Deadline boundary, the surviving side: a client trickling stream
/// chunks with gaps well **under** the idle deadline is a slow client,
/// not a hostile one — the check must complete bit-identically, because
/// the governor re-arms the between-chunks clock on every chunk.
#[test]
fn trickled_stream_chunks_under_the_idle_deadline_succeed() {
    let server = Server::bind_with(
        &Endpoint::parse("127.0.0.1:0"),
        2,
        GovernorConfig {
            idle_timeout: Some(Duration::from_millis(400)),
            read_timeout: Some(Duration::from_millis(400)),
            ..GovernorConfig::default()
        },
    )
    .expect("bind governed");
    let mut client = Client::connect_endpoint(server.endpoint()).unwrap();
    let dtd = client.load_builtin("figure1").unwrap();
    let xml = "<r><a><b>x</b><c>y</c> dog<e/></a></r>";
    // Each chunk arrives after a pause shorter than the deadline; the
    // whole upload takes several deadline-lengths end to end.
    let paced = xml.as_bytes().chunks(6).inspect(|_| {
        std::thread::sleep(Duration::from_millis(60));
    });
    let got = client.check_stream(&dtd.handle, paced).unwrap();
    assert_eq!(got.outcome, expect_outcome(BuiltinDtd::Figure1, xml));
    client.shutdown().unwrap();
    drop(client);
    server.join();
}

/// Deadline boundary, the reaped side: a client that stalls **past** the
/// idle deadline mid-stream is cut, the stall is logged with its
/// disposition, and the server keeps serving others bit-identically.
#[test]
fn stalled_stream_chunks_past_the_idle_deadline_time_out() {
    use std::io::{Read as _, Write as _};
    let (sink, log) = LogSink::memory();
    let server = Server::bind_with(
        &Endpoint::parse("127.0.0.1:0"),
        2,
        GovernorConfig {
            idle_timeout: Some(Duration::from_millis(150)),
            log: sink,
            ..GovernorConfig::default()
        },
    )
    .expect("bind governed");
    let addr = match server.endpoint() {
        Endpoint::Tcp(a) => a.clone(),
        _ => unreachable!("test server binds TCP"),
    };
    let mut client = Client::connect(&addr).unwrap();
    let dtd = client.load_builtin("figure1").unwrap();
    // First chunk arrives, then silence far past the deadline.
    let mut stalled = std::net::TcpStream::connect(&addr).unwrap();
    write!(stalled, "CHECK_STREAM {}\n3\n<r>", dtd.handle).unwrap();
    stalled.flush().unwrap();
    // The server must close the stalled connection (bounded wait, no
    // response line) and record why.
    stalled.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = Vec::new();
    assert_eq!(stalled.read_to_end(&mut buf).unwrap_or(0), 0, "stall gets no answer");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if log.lock().unwrap().iter().any(|l| l.contains("disposition=read_timeout")) {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "stall was never logged");
        std::thread::sleep(Duration::from_millis(5));
    }
    // By now the first client has idled past the deadline too (every
    // connection lives under the same clock); a fresh one still gets
    // bit-identical answers.
    drop(client);
    let mut fresh = Client::connect(&addr).unwrap();
    let xml = "<r><a><b>x</b><c>y</c> dog<e/></a></r>";
    let got = fresh.check_stream(&dtd.handle, xml.as_bytes().chunks(4)).unwrap();
    assert_eq!(got.outcome, expect_outcome(BuiltinDtd::Figure1, xml));
    fresh.shutdown().unwrap();
    drop(fresh);
    server.join();
}

#[test]
fn protocol_errors_leave_the_connection_usable() {
    let (server, mut client) = start_server();
    // Unknown handle.
    let err = client.check("d999", "<r/>", 1, true).unwrap_err();
    assert!(err.to_string().contains("unknown DTD handle"), "{err}");
    // Bad builtin name.
    let err = client.load_builtin("no-such-dtd").unwrap_err();
    assert!(err.to_string().contains("unknown builtin"), "{err}");
    // Malformed document.
    let dtd = client.load_builtin("figure1").unwrap();
    let err = client.check(&dtd.handle, "<r><unclosed>", 1, true).unwrap_err();
    assert!(err.to_string().contains("not well-formed"), "{err}");
    // Bad DTD source.
    let err = client.load_dtd("r", "<!ELEMENT r (oops").unwrap_err();
    assert!(err.to_string().contains("DTD error"), "{err}");
    // The same connection still serves correct answers afterwards.
    let xml = "<r><a><b>x</b><c>y</c> dog<e/></a></r>";
    let got = client.check(&dtd.handle, xml, 2, true).unwrap();
    assert_eq!(got.outcome, expect_outcome(BuiltinDtd::Figure1, xml));
    client.shutdown().unwrap();
    drop(client);
    server.join();
}

// ---------------------------------------------------------------------
// BATCH_STREAM: multiplexed streaming checks over one connection
// ---------------------------------------------------------------------

#[test]
fn batch_stream_bit_identical_to_independent_check_streams() {
    let (server, mut client) = start_server();
    let fig1 = client.load_builtin("figure1").unwrap();
    let docs_owned: [&str; 5] = [
        "<r><a><b>A quick brown</b><c> fox</c> dog<e/></a></r>", // PV
        "<r><a><b>A quick brown</b><e/><c> fox</c></a></r>",     // content-rejected
        "<r><zzz/></r>",                                         // undeclared element
        "<r/>",                                                  // trivial
        "<a><b/></a>",                                           // root mismatch
    ];
    let docs: Vec<&[u8]> = docs_owned.iter().map(|s| s.as_bytes()).collect();
    for chunk in [1usize, 7, 4096] {
        let got = client.check_stream_batch(&fig1.handle, &docs, chunk).unwrap();
        assert_eq!(got.len(), docs.len());
        for (i, slot) in got.iter().enumerate() {
            // The oracle: the same bytes as one standalone CHECK_STREAM.
            let solo = client.check_stream(&fig1.handle, docs[i].chunks(chunk)).unwrap();
            let slot = slot.as_ref().expect("well-formed document slot");
            assert_eq!(slot.outcome, solo.outcome, "stream {i} chunk={chunk}");
            assert_eq!(slot.label, solo.label);
            assert_eq!(slot.class, solo.class);
            assert_eq!(slot.depth, solo.depth);
            assert!(slot.memo.is_none(), "streaming never reports memo telemetry");
        }
    }
    // Realistic corpora: one BATCH_STREAM carrying every scenario at a
    // mid-construct-splitting chunk size.
    for b in [BuiltinDtd::Play, BuiltinDtd::TeiLite] {
        let dtd = client.load_builtin(b.name()).unwrap();
        let texts: Vec<(String, String)> = scenarios(b);
        let bytes: Vec<&[u8]> = texts.iter().map(|(_, x)| x.as_bytes()).collect();
        let got = client.check_stream_batch(&dtd.handle, &bytes, 113).unwrap();
        for ((label, xml), slot) in texts.iter().zip(&got) {
            let expect = expect_outcome(b, xml);
            assert_eq!(
                slot.as_ref().expect("well-formed document slot").outcome,
                expect,
                "{}:{label}",
                b.name()
            );
        }
    }
    // A malformed document fills only its own slot; its neighbours and
    // the connection are untouched.
    let bad: [&[u8]; 3] =
        [b"<r><a><b>x</b><c>y</c> z<e/></a></r>", b"<r><broken", b"<r/>"];
    let got = client.check_stream_batch(&fig1.handle, &bad, 3).unwrap();
    assert!(got[0].is_ok() && got[2].is_ok());
    let msg = got[1].as_ref().unwrap_err();
    assert!(msg.contains("not well-formed"), "{msg}");
    let xml = "<r><a><b>x</b><c>y</c> dog<e/></a></r>";
    let after = client.check(&fig1.handle, xml, 1, true).unwrap();
    assert_eq!(after.outcome, expect_outcome(BuiltinDtd::Figure1, xml));
    client.shutdown().unwrap();
    drop(client);
    server.join();
}

#[test]
fn batch_stream_abort_leaves_other_streams_and_connection_usable() {
    let (server, mut client) = start_server();
    let fig1 = client.load_builtin("figure1").unwrap();
    let xml = "<r><a><b>x</b><c>y</c> dog<e/></a></r>";
    let expect = expect_outcome(BuiltinDtd::Figure1, xml);
    // Manually interleave three streams and kill the middle one
    // mid-document: its slot reports the abort, the other two finish
    // with bit-identical outcomes.
    let mut bs = client.batch_stream(&fig1.handle, 3).unwrap();
    bs.send(0, &xml.as_bytes()[..10]).unwrap();
    bs.send(1, &xml.as_bytes()[..10]).unwrap();
    bs.send(2, xml.as_bytes()).unwrap();
    bs.abort(1).unwrap();
    bs.send(0, &xml.as_bytes()[10..]).unwrap();
    bs.end_stream(0).unwrap();
    bs.end_stream(2).unwrap();
    let got = bs.finish().unwrap();
    assert_eq!(got[0].as_ref().unwrap().outcome, expect);
    assert!(got[1].as_ref().unwrap_err().contains("aborted"), "{:?}", got[1]);
    assert_eq!(got[2].as_ref().unwrap().outcome, expect);
    // The connection serves every request shape afterwards.
    assert_eq!(client.check(&fig1.handle, xml, 1, true).unwrap().outcome, expect);
    assert_eq!(
        client.check_stream(&fig1.handle, xml.as_bytes().chunks(5)).unwrap().outcome,
        expect
    );
    let again = client.check_stream_batch(&fig1.handle, &[xml.as_bytes(); 2], 4).unwrap();
    assert_eq!(again[0].as_ref().unwrap().outcome, expect);
    assert_eq!(again[1].as_ref().unwrap().outcome, expect);
    client.shutdown().unwrap();
    drop(client);
    server.join();
}

#[test]
fn batch_stream_client_misuse_is_rejected_before_the_wire() {
    use pv_service::ServiceError;
    let (server, mut client) = start_server();
    let fig1 = client.load_builtin("figure1").unwrap();
    let xml = "<r><a><b>x</b><c>y</c> dog<e/></a></r>";
    let expect = expect_outcome(BuiltinDtd::Figure1, xml);
    // Zero streams / zero chunk size never reach the server.
    assert!(matches!(
        client.batch_stream(&fig1.handle, 0),
        Err(ServiceError::Invalid(_))
    ));
    assert!(matches!(
        client.check_stream_batch(&fig1.handle, &[xml.as_bytes()], 0),
        Err(ServiceError::Invalid(_))
    ));
    // Out-of-range index, empty chunk, frame after close, premature
    // finish: all caught client-side, and the request still completes.
    let mut bs = client.batch_stream(&fig1.handle, 2).unwrap();
    assert!(matches!(bs.send(5, b"x"), Err(ServiceError::Invalid(_))));
    assert!(matches!(bs.send(0, b""), Err(ServiceError::Invalid(_))));
    bs.send(0, xml.as_bytes()).unwrap();
    bs.end_stream(0).unwrap();
    assert!(matches!(bs.send(0, b"x"), Err(ServiceError::Invalid(_))));
    let err = bs.finish();
    // finish with stream 1 still open is itself a client error…
    assert!(matches!(err, Err(ServiceError::Invalid(_))));
    // …so drop that connection (its request was left mid-flight) and
    // drive a fresh, correct batch to show nothing leaked server-side.
    drop(client);
    let mut client = Client::connect_endpoint(server.endpoint()).unwrap();
    let got = client.check_stream_batch(&fig1.handle, &[xml.as_bytes(); 2], 6).unwrap();
    assert_eq!(got[0].as_ref().unwrap().outcome, expect);
    assert_eq!(got[1].as_ref().unwrap().outcome, expect);
    // The empty-chunk guard on plain CHECK_STREAM: clean Invalid, clean
    // terminator on the wire, connection stays in sync.
    let err = client
        .check_stream(&fig1.handle, [&b"<r/>"[..], &b""[..]])
        .unwrap_err();
    assert!(matches!(err, ServiceError::Invalid(_)), "{err}");
    assert_eq!(client.check(&fig1.handle, xml, 1, true).unwrap().outcome, expect);
    client.shutdown().unwrap();
    drop(client);
    server.join();
}

/// `--strict-load`: a governed server refuses to intern DTDs the static
/// analyzer cannot budget-certify, names the reason on the wire, and
/// keeps serving certified DTDs on the same connection. The default
/// (permissive) server loads the same DTD fine, and both surface the
/// analysis block on `LOAD` responses and per-DTD `STATS` entries.
#[test]
fn strict_load_refuses_uncertified_dtds() {
    // Permissive default: the flagged builtin loads, with its analysis
    // attached (certified=false, budget == full_budget).
    let (server, mut client) = start_server();
    client.load_builtin("t1").unwrap();
    let stats = client.stats().unwrap();
    let dtds = stats.get("dtds").unwrap().as_arr().unwrap();
    let analysis = dtds[0].get("analysis").expect("STATS entry carries analysis");
    assert_eq!(analysis.get("certified").unwrap().as_bool(), Some(false));
    assert_eq!(
        analysis.get("budget").unwrap().as_u64(),
        analysis.get("full_budget").unwrap().as_u64(),
        "flagged DTD must run the full budget"
    );
    client.shutdown().unwrap();
    drop(client);
    server.join();

    // Strict: certified loads succeed (the analysis block shows the full
    // budget in effect, certified), flagged loads are refused with the
    // reason.
    let server = Server::bind_with(
        &Endpoint::parse("127.0.0.1:0"),
        2,
        GovernorConfig { strict_load: true, ..GovernorConfig::default() },
    )
    .expect("bind on port 0");
    let mut client = Client::connect_endpoint(server.endpoint()).unwrap();
    let fig1 = client.load_builtin("figure1").unwrap();
    let err = client.load_builtin("t1").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("strict-load"), "{msg}");
    assert!(msg.contains("not budget-certified"), "{msg}");
    // The connection survives the refusal and checks run bit-identically.
    let xml = "<r><a><b>x</b><c>y</c> dog<e/></a></r>";
    let got = client.check(&fig1.handle, xml, 1, true).unwrap();
    assert_eq!(got.outcome, expect_outcome(BuiltinDtd::Figure1, xml));
    let stats = client.stats().unwrap();
    let dtds = stats.get("dtds").unwrap().as_arr().unwrap();
    assert_eq!(dtds.len(), 1, "the refused DTD must not be interned");
    let analysis = dtds[0].get("analysis").unwrap();
    assert_eq!(analysis.get("certified").unwrap().as_bool(), Some(true));
    assert_eq!(
        analysis.get("budget").unwrap().as_u64(),
        analysis.get("full_budget").unwrap().as_u64(),
        "certified DTD runs the full budget"
    );
    client.shutdown().unwrap();
    drop(client);
    server.join();
}
