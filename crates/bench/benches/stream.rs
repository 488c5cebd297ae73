//! The streaming front end: whole-document throughput vs the tree
//! pipeline, O(depth) peak residency, and first-violation latency.
//!
//! The workload is a wide figure1 document — many repeated sibling
//! subtrees under a depth-3 spine — so the document is thousands of
//! times larger than the streaming checker's resident state. The peak
//! residency numbers (lexer bytes buffered, open-recognizer depth) are
//! measured once and **recorded in the benchmark ids**, so the
//! `BENCH_stream.json` baseline pins the memory claim alongside the
//! timing claim.
//!
//! `stream_first_violation` plants an unrepairable element ~1% into the
//! document: the streaming checker's verdict is final at the first
//! freeze (`StreamCheck::decided`), so it stops after a small prefix of
//! the bytes, while the tree pipeline must parse all of them before the
//! first recognizer runs. The id records how many bytes the stream
//! actually consumed.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pv_bench::workloads::{stream_doc, stream_doc_poisoned};
use pv_core::stream::StreamCheck;
use pv_core::CheckEngine;
use pv_dtd::builtin::BuiltinDtd;

const CHUNK: usize = 64 << 10;

fn bench_stream(c: &mut Criterion) {
    let analysis = BuiltinDtd::Figure1.analysis();
    let checker = CheckEngine::new(analysis.clone());
    let xml = stream_doc(50_000);

    // One instrumented pass pins the residency baseline: the document is
    // ~4.6 MB; the stream must hold no more than one lexer construct and
    // one recognizer per open ancestor. The lexer buffer's high-water
    // mark includes whatever chunk was last pushed (bytes drain after
    // each feed), so the probe feeds small chunks to expose the
    // construct-bound part; the timed runs below use the 64 KiB chunks a
    // real caller would.
    let mut probe = StreamCheck::new(checker.stream_checker());
    for chunk in xml.as_bytes().chunks(512) {
        probe.feed(chunk).unwrap();
    }
    let peak_buffered = probe.parser().peak_buffered();
    let peak_depth = probe.checker().peak_depth();
    assert!(peak_buffered < 4096, "residency regressed: {peak_buffered} bytes buffered");
    assert_eq!(peak_depth, 4, "spine is r/a/b/d");
    let expect = probe.finish().unwrap();
    assert!(expect.violation.is_none());

    let mut group = c.benchmark_group("stream_throughput");
    group.throughput(Throughput::Bytes(xml.len() as u64));
    group.bench_function(
        format!("stream_whole_peak{peak_buffered}B_depth{peak_depth}"),
        |b| {
            b.iter(|| {
                let mut stream = StreamCheck::new(checker.stream_checker());
                for chunk in xml.as_bytes().chunks(CHUNK) {
                    stream.feed(chunk).unwrap();
                }
                stream.finish().unwrap()
            })
        },
    );
    group.bench_function("tree_whole", |b| {
        b.iter(|| {
            let doc = pv_xml::parse(&xml).unwrap();
            checker.check_document(&doc)
        })
    });
    group.finish();

    // First-violation latency: an undeclared element after ~1% of the
    // sibling groups. The streaming verdict is decided as soon as that
    // tag is lexed; the tree pipeline parses the remaining 99% first.
    let poisoned = stream_doc_poisoned(50_000);
    let mut consumed = 0usize;
    let mut early = StreamCheck::new(checker.stream_checker());
    for chunk in poisoned.as_bytes().chunks(CHUNK) {
        early.feed(chunk).unwrap();
        consumed += chunk.len();
        if early.decided() {
            break;
        }
    }
    assert!(early.decided(), "the planted violation must freeze the stream");

    let mut group = c.benchmark_group("stream_first_violation");
    group.bench_function(
        format!("stream_decided_after_{consumed}_of_{}B", poisoned.len()),
        |b| {
            b.iter(|| {
                let mut stream = StreamCheck::new(checker.stream_checker());
                for chunk in poisoned.as_bytes().chunks(CHUNK) {
                    stream.feed(chunk).unwrap();
                    if stream.decided() {
                        break;
                    }
                }
                stream.decided()
            })
        },
    );
    group.bench_function("tree_parse_then_check", |b| {
        b.iter(|| {
            let doc = pv_xml::parse(&poisoned).unwrap();
            checker.check_document(&doc)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_stream
}
criterion_main!(benches);
