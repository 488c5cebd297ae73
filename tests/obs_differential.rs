//! Observability differential: telemetry must **observe and never
//! steer**. Every suite here pins one direction of that contract:
//!
//! * outcomes are bit-identical with metrics on and off — sequential,
//!   pooled-parallel, streaming, and over the wire (the server's
//!   registry is always live, so the remote leg doubles as the
//!   "metrics on" side);
//! * the registry's `pv_engine_*` counters are exact mirrors of the
//!   summed `RecognizerStats` the outcomes themselves report — the
//!   instrumentation reads the same numbers the caller gets, it does
//!   not keep a second set of books;
//! * histogram percentiles land within the log-linear bucket bound of
//!   brute-force sorting (`true <= got <= true * 17/16 + 1`, exact
//!   below 16), through the public `Registry` API;
//! * the wire protocol's `RESET` opens a fresh telemetry window
//!   atomically: recognizer totals, memo telemetry, and the metrics
//!   registry all read zero afterwards — no mixed-window STATS;
//! * `STATS` and `METRICS` keep one set of books: STATS' work totals are
//!   the registry's `pv_engine_*` counters, streamed checks included.

use potential_validity::prelude::*;
use pv_core::stream::StreamCheck;
use pv_obs::Registry;
use pv_par::Pool;
use pv_service::{Client, Endpoint, Server};
use pv_workload::corpus;
use pv_workload::mutate::Mutator;
use std::sync::Arc;

/// Builtin corpus documents in several states of (dis)repair — the same
/// scenario shapes the service differential uses, checked one by one and
/// as one batch (which reaches the pool's workers).
fn scenarios(b: BuiltinDtd) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(valid) = corpus::for_builtin(b, 600) {
        let mut stripped = valid.clone();
        Mutator::new(21).delete_random_markup(&mut stripped, 60);
        let mut swapped = stripped.clone();
        Mutator::new(22).swap_random_siblings(&mut swapped);
        out.push(valid.to_xml());
        out.push(stripped.to_xml());
        out.push(swapped.to_xml());
    }
    out.push("<r><a><b>x</b><c>y</c> z<e/></a></r>".to_owned());
    out.push("<r><zzz/></r>".to_owned());
    out
}

const BUILTINS: [BuiltinDtd; 3] = [BuiltinDtd::Figure1, BuiltinDtd::Play, BuiltinDtd::TeiLite];

#[test]
fn outcomes_bit_identical_with_metrics_on_and_off() {
    for b in BUILTINS {
        let registry = Registry::new();
        let observed = CheckEngine::with_policy_observed(b.analysis(), DepthPolicy::Auto, &registry);
        let plain = CheckEngine::new(b.analysis());
        let pool_observed = Pool::try_new(4, &registry).unwrap();
        let pool_plain = Pool::new(4);
        let mut batch = Vec::new();
        for xml in scenarios(b) {
            let Ok(doc) = pv_xml::parse(&xml) else { continue };
            batch.push(xml.clone());
            let doc = Arc::new(doc);
            // Sequential, both memo settings.
            for memo in [true, false] {
                let seq_plain = plain.check_document_pooled(&doc, &pool_plain, 1, memo);
                let seq_obs = observed.check_document_pooled(&doc, &pool_observed, 1, memo);
                assert_eq!(seq_obs, seq_plain, "sequential memo={memo} {}", b.name());
                // The pooled entry at several widths against the
                // sequential verdict.
                for jobs in [2, 4] {
                    let par = observed.check_document_pooled(&doc, &pool_observed, jobs, memo);
                    assert_eq!(par, seq_plain, "jobs={jobs} memo={memo} {}", b.name());
                }
            }
            // Streaming through the observed engine, at an adversarial
            // 1-byte chunking and a whole-document feed.
            let expect = plain.check_document(&doc);
            for chunk in [1usize, xml.len().max(1)] {
                let mut stream = StreamCheck::new(observed.stream_checker());
                for piece in xml.as_bytes().chunks(chunk) {
                    stream.feed(piece).expect("well-formed");
                }
                let got = stream.finish().expect("well-formed");
                assert_eq!(got, expect, "stream chunk={chunk} {}", b.name());
            }
        }
        // The scenarios as one batch on the observed pool: instrumented
        // pool and engine must not perturb any worker's outcome.
        let expect: Vec<PvOutcome> =
            batch.iter().map(|x| plain.check_document(&pv_xml::parse(x).unwrap())).collect();
        let batch = Arc::new(batch);
        for jobs in [2, 4] {
            let par: Vec<PvOutcome> = observed
                .check_batch_pooled(&batch, &pool_observed, jobs)
                .into_iter()
                .map(|r| r.expect("well-formed"))
                .collect();
            assert_eq!(par, expect, "batch jobs={jobs} {}", b.name());
        }
    }
}

#[test]
fn remote_outcomes_bit_identical_to_unobserved_local() {
    // The server's registry is unconditionally live (METRICS must answer
    // without opt-in flags), so the wire leg is the "metrics on" side by
    // construction; the expectation runs on a metrics-off checker.
    let server = Server::bind(&Endpoint::parse("127.0.0.1:0"), 2).expect("bind");
    let mut client = Client::connect_endpoint(server.endpoint()).expect("connect");
    for b in BUILTINS {
        let analysis = b.analysis();
        let checker = CheckEngine::new(analysis.clone());
        let dtd = client.load_builtin(b.name()).unwrap();
        for xml in scenarios(b) {
            let Ok(doc) = pv_xml::parse(&xml) else { continue };
            let expect = checker.check_document(&doc);
            for jobs in [1, 4] {
                let got = client.check(&dtd.handle, &xml, jobs, true).unwrap();
                assert_eq!(got.outcome, expect, "{} jobs={jobs}", b.name());
            }
            let streamed = client.check_stream(&dtd.handle, xml.as_bytes().chunks(7)).unwrap();
            assert_eq!(streamed.outcome, expect, "{} streamed", b.name());
        }
    }
    client.shutdown().unwrap();
    drop(client);
    server.join();
}

#[test]
fn registry_counters_mirror_recognizer_stats_totals() {
    let registry = Registry::new();
    let engine =
        CheckEngine::with_policy_observed(BuiltinDtd::Play.analysis(), DepthPolicy::Auto, &registry);
    let pool = Pool::try_new(2, &registry).unwrap();
    let texts: Vec<String> =
        scenarios(BuiltinDtd::Play).into_iter().filter(|xml| pv_xml::parse(xml).is_ok()).collect();
    let docs: Vec<Document> = texts.iter().map(|xml| pv_xml::parse(xml).unwrap()).collect();
    let mut outcomes = Vec::new();
    for doc in &docs {
        outcomes.push(engine.check_document_pooled(&Arc::new(doc.clone()), &pool, 2, true));
    }
    // The same documents as one batch: every worker's outcome is mirrored.
    let batch = engine.check_batch_pooled(&Arc::new(texts), &pool, 2);
    outcomes.extend(batch.into_iter().map(|r| r.expect("well-formed")));
    let mut totals = (0u64, 0u64, 0u64, 0u64); // symbols, visits, subs, denied
    for outcome in &outcomes {
        totals.0 += outcome.stats.symbols;
        totals.1 += outcome.stats.node_visits;
        totals.2 += outcome.stats.subs_created;
        totals.3 += outcome.stats.specs_denied;
    }
    assert!(docs.len() > 1 && totals.0 > 0, "scenario set must exercise the recognizer");
    let snap = registry.snapshot();
    assert_eq!(snap.counters["pv_engine_checks_total"], outcomes.len() as u64);
    assert_eq!(snap.counters["pv_engine_symbols_total"], totals.0);
    assert_eq!(snap.counters["pv_engine_node_visits_total"], totals.1);
    assert_eq!(snap.counters["pv_engine_subs_created_total"], totals.2);
    assert_eq!(snap.counters["pv_engine_specs_denied_total"], totals.3);
    // One check-latency observation per single-document check, one batch
    // observation for the batch, which ran as one region.
    assert_eq!(snap.histograms["pv_engine_check_us"].count, docs.len() as u64);
    assert_eq!(snap.histograms["pv_engine_batch_us"].count, 1);
    assert_eq!(snap.counters["pv_pool_regions_total"], 1);
}

#[test]
fn histogram_percentiles_match_brute_force_within_bucket_bound() {
    // A deterministic skewed distribution through the public API: mostly
    // small values, a heavy tail, duplicates, and exact-bucket values
    // below 16 — the shapes latency data actually takes.
    let registry = Registry::new();
    let hist = registry.histogram("pv_test_latency_us");
    let mut values: Vec<u64> = Vec::new();
    let mut x = 0x243F_6A88_85A3_08D3u64; // deterministic PRNG seed
    for i in 0..5000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = match i % 10 {
            0..=5 => x % 16,            // exact buckets
            6 | 7 => 20 + x % 1000,     // body
            8 => 5_000 + x % 100_000,   // tail
            _ => 1_000_000 + x % 1_000, // far tail
        };
        values.push(v);
        hist.observe(v);
    }
    let snap = registry.snapshot();
    let h = &snap.histograms["pv_test_latency_us"];
    let mut sorted = values.clone();
    sorted.sort_unstable();
    assert_eq!(h.count, values.len() as u64);
    assert_eq!(h.sum, values.iter().sum::<u64>());
    assert_eq!(h.max, *sorted.last().unwrap());
    for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let truth = sorted[rank - 1];
        let got = h.quantile(q);
        assert!(got >= truth, "q={q}: {got} below true order statistic {truth}");
        assert!(
            got <= truth + truth / 16 + 1,
            "q={q}: {got} beyond the 1/16 bucket bound over {truth}"
        );
        if truth < 16 {
            assert_eq!(got, truth, "q={q}: values below 16 are exact");
        }
    }
}

/// A counter in a `METRICS` reply (0 when absent).
fn metric(m: &pv_service::json::Json, name: &str) -> u64 {
    m.get("counters")
        .and_then(|c| c.get(name))
        .and_then(pv_service::json::Json::as_u64)
        .unwrap_or(0)
}

#[test]
fn reset_opens_a_fresh_telemetry_window_atomically() {
    let server = Server::bind(&Endpoint::parse("127.0.0.1:0"), 2).expect("bind");
    let mut client = Client::connect_endpoint(server.endpoint()).expect("connect");
    let dtd = client.load_builtin("play").unwrap();
    let docs = scenarios(BuiltinDtd::Play);
    for xml in &docs {
        if pv_xml::parse(xml).is_ok() {
            // Twice: the second pass hits the warm shape cache, so memo
            // hit telemetry is provably nonzero before the reset.
            client.check(&dtd.handle, xml, 2, true).unwrap();
            client.check(&dtd.handle, xml, 2, true).unwrap();
        }
    }

    // Everything observable is nonzero before the reset…
    let stats = client.stats().unwrap();
    let spec = stats.get("speculation").expect("speculation block");
    assert!(spec.get("symbols").and_then(pv_service::json::Json::as_u64).unwrap() > 0);
    let metrics = client.metrics().unwrap();
    assert!(metric(&metrics, "pv_service_requests_total") > 0);
    assert!(metric(&metrics, "pv_engine_checks_total") > 0);
    assert!(metric(&metrics, "pv_engine_memo_hits_total") > 0);

    client.reset(&dtd.handle).unwrap();

    // …and every window reads zero after it, in the same snapshot:
    // recognizer totals (STATS), memo telemetry, and the registry all
    // reset together — partial zeroing would read as a cache that never
    // hits against old uptime totals.
    let stats = client.stats().unwrap();
    let spec = stats.get("speculation").expect("speculation block");
    for key in ["symbols", "node_visits", "subs_created", "specs_denied"] {
        assert_eq!(
            spec.get(key).and_then(pv_service::json::Json::as_u64),
            Some(0),
            "stale {key} after RESET"
        );
    }
    let metrics = client.metrics().unwrap();
    assert_eq!(metric(&metrics, "pv_engine_checks_total"), 0);
    assert_eq!(metric(&metrics, "pv_engine_memo_hits_total"), 0);
    assert_eq!(metric(&metrics, "pv_engine_memo_misses_total"), 0);
    assert_eq!(metric(&metrics, "pv_engine_symbols_total"), 0);
    // The STATS and METRICS round trips above are themselves requests;
    // only they may appear in the post-reset window.
    assert!(metric(&metrics, "pv_service_requests_total") <= 2);
    assert_eq!(metric(&metrics, "pv_service_documents_total"), 0);

    // The window is live again: new work records from zero.
    client.check(&dtd.handle, "<ACT><TITLE>t</TITLE></ACT>", 1, true).unwrap();
    let metrics = client.metrics().unwrap();
    assert_eq!(metric(&metrics, "pv_engine_checks_total"), 1);

    client.shutdown().unwrap();
    drop(client);
    server.join();
}

/// `STATS` reads the registry's engine counters, so it and `METRICS`
/// agree after every verb: a `CHECK`, a `CHECK_STREAM` (a finished
/// stream check records its document like a batch document), and a
/// `BATCH` refused for its malformed document #1, whose two well-formed
/// documents were still checked.
#[test]
fn stats_and_metrics_keep_one_set_of_books() {
    let server = Server::bind(&Endpoint::parse("127.0.0.1:0"), 2).expect("bind");
    let mut client = Client::connect_endpoint(server.endpoint()).expect("connect");
    let dtd = client.load_builtin("play").unwrap();
    let xml = scenarios(BuiltinDtd::Play).into_iter().find(|x| pv_xml::parse(x).is_ok()).unwrap();
    client.check(&dtd.handle, &xml, 1, true).unwrap();
    client.check_stream(&dtd.handle, xml.as_bytes().chunks(7)).unwrap();
    let batch = vec![xml.clone(), "<ACT><TITLE>".to_owned(), xml.clone()];
    assert!(client.check_batch(&dtd.handle, &batch, 2).is_err());

    let stats = client.stats().unwrap();
    let spec = stats.get("speculation").expect("speculation block");
    let metrics = client.metrics().unwrap();
    for (key, counter) in [
        ("symbols", "pv_engine_symbols_total"),
        ("node_visits", "pv_engine_node_visits_total"),
        ("subs_created", "pv_engine_subs_created_total"),
        ("specs_denied", "pv_engine_specs_denied_total"),
    ] {
        assert_eq!(
            spec.get(key).and_then(pv_service::json::Json::as_u64),
            Some(metric(&metrics, counter)),
            "STATS {key} against {counter}"
        );
    }
    assert!(metric(&metrics, "pv_engine_symbols_total") > 0);
    // The CHECK, the CHECK_STREAM and the batch's two well-formed
    // documents.
    assert_eq!(metric(&metrics, "pv_engine_checks_total"), 4);

    client.shutdown().unwrap();
    drop(client);
    server.join();
}
