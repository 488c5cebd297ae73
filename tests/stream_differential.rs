//! Streaming/tree differential: the SAX-style streaming checker
//! ([`pv_core::stream::StreamCheck`]) must return **bit-identical**
//! outcomes to the tree checker — same verdict, same first failing node
//! (in document order), same failing symbol index, same work counters —
//! for every document and at **every chunking** of its bytes.
//!
//! Chunk boundaries are adversarial by construction: the suites feed each
//! document as 1-byte chunks (every boundary falls mid-construct), as
//! every possible 2-chunk split for small documents (so splits land
//! inside tag names, attribute values, entity references, and multi-byte
//! UTF-8 sequences), at several fixed sizes, and as one whole-document
//! chunk. The verdict, diagnosis, and counters must not notice.
//!
//! Coverage mirrors `parallel_differential.rs`: the builtin DTD corpus in
//! several states of (dis)repair, the `corpus::recursive` adversarial
//! families, and proptest-generated DTD/document families — plus the
//! streaming-specific shapes (doctypes, comments and PIs between text
//! runs, deep spines).

use proptest::prelude::*;
use potential_validity::prelude::*;
use pv_core::stream::StreamCheck;
use pv_workload::corpus;
use pv_workload::docgen::DocGen;
use pv_workload::dtdgen::{DtdGen, DtdGenParams};
use pv_workload::mutate::Mutator;
use pv_xml::NodeKind;
use std::sync::{Arc, OnceLock};

/// The suite's one pool; `jobs` caps how many of its workers a check uses.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(8))
}

/// Streams `xml` through a fresh [`StreamCheck`] in the given chunks.
fn stream_outcome(checker: &CheckEngine, chunks: &[&[u8]]) -> PvOutcome {
    let mut stream = StreamCheck::new(checker.stream_checker());
    for chunk in chunks {
        stream.feed(chunk).expect("document is well-formed");
    }
    stream.finish().expect("document is well-formed")
}

/// The event-at-a-time oracle for the batched hot path: drives the same
/// `StreamChecker` one tree-derived event at a time — no chunked lexing,
/// no sibling-run batching upstream — with text shattered into 1-char
/// pieces (maximal σ-collapse pressure) and childless elements encoded
/// as `<e/>` (`expand_self_closing: false`) or `<e></e>` (`true`). The
/// internal queue may batch however it likes; the outcome must be
/// bit-identical to this dispatch.
fn event_at_a_time_outcome(
    checker: &CheckEngine,
    doc: &Document,
    expand_self_closing: bool,
) -> PvOutcome {
    enum Step {
        Enter(NodeId),
        Close,
    }
    let mut stream = checker.stream_checker();
    let mut stack = vec![Step::Enter(doc.root())];
    while let Some(step) = stack.pop() {
        match step {
            Step::Close => stream.on_end(),
            Step::Enter(n) => match doc.kind(n) {
                NodeKind::Text(t) => {
                    if t.is_empty() {
                        stream.on_text("", true);
                    }
                    let mut first = true;
                    for (i, c) in t.char_indices() {
                        stream.on_text(&t[i..i + c.len_utf8()], first);
                        first = false;
                    }
                }
                NodeKind::Comment(_) => stream.on_comment(),
                NodeKind::Pi { .. } => stream.on_pi(),
                NodeKind::Element { name, .. } => {
                    let kids = doc.children(n);
                    if kids.is_empty() && !expand_self_closing {
                        stream.on_start(name, true);
                    } else {
                        stream.on_start(name, false);
                        stack.push(Step::Close);
                        for &c in kids.iter().rev() {
                            stack.push(Step::Enter(c));
                        }
                    }
                }
            },
        }
    }
    stream.finalize()
}

/// The chunkings every document is replayed under: 1-byte chunks, a few
/// fixed sizes, one whole-document chunk — and, for small documents,
/// every possible split into two chunks.
fn chunkings(xml: &str) -> Vec<Vec<&[u8]>> {
    let bytes = xml.as_bytes();
    let mut out: Vec<Vec<&[u8]>> = vec![bytes.chunks(1).collect(), vec![bytes]];
    for size in [3usize, 7, 64, 4096] {
        out.push(bytes.chunks(size).collect());
    }
    if bytes.len() <= 160 {
        for i in 1..bytes.len() {
            out.push(vec![&bytes[..i], &bytes[i..]]);
        }
    }
    out
}

/// Asserts streaming == tree (== pooled tree) for one document at every
/// chunking. The document is passed as text so both sides parse the
/// exact same bytes the stream sees.
fn assert_stream_identical(analysis: &DtdAnalysis, xml: &str, ctx: &str) {
    let doc = pv_xml::parse(xml).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let checker = CheckEngine::new(analysis.clone());
    let tree = checker.check_document(&doc);
    let shared = Arc::new(doc.clone());
    for jobs in [2usize, 8] {
        assert_eq!(
            checker.check_document_pooled(&shared, pool(), jobs, true),
            tree,
            "{ctx}: pooled tree check diverged at jobs={jobs}"
        );
    }
    for expand in [false, true] {
        assert_eq!(
            event_at_a_time_outcome(&checker, &doc, expand),
            tree,
            "{ctx}: event-at-a-time dispatch diverged (expand_self_closing={expand})"
        );
    }
    for (i, chunks) in chunkings(xml).into_iter().enumerate() {
        let got = stream_outcome(&checker, &chunks);
        assert_eq!(got, tree, "{ctx}: streaming diverged at chunking #{i}");
    }
}

/// The builtin corpus documents, in several states of (dis)repair,
/// serialized so the streaming side sees real markup.
fn corpus_scenarios(b: BuiltinDtd) -> Vec<(String, String)> {
    let mut docs = Vec::new();
    if let Some(valid) = corpus::for_builtin(b, 300) {
        let mut stripped = valid.clone();
        Mutator::new(11).delete_random_markup(&mut stripped, 60);
        let mut swapped = stripped.clone();
        Mutator::new(12).swap_random_siblings(&mut swapped);
        let mut renamed = stripped.clone();
        Mutator::new(13).rename_random_element(&mut renamed, &b.analysis().dtd);
        docs.push(("valid".to_owned(), valid.to_xml()));
        docs.push(("stripped".to_owned(), stripped.to_xml()));
        docs.push(("swapped".to_owned(), swapped.to_xml()));
        docs.push(("renamed".to_owned(), renamed.to_xml()));
    }
    docs
}

#[test]
fn corpus_documents_stream_identically() {
    for b in BuiltinDtd::ALL {
        let analysis = b.analysis();
        for (label, xml) in corpus_scenarios(b) {
            assert_stream_identical(&analysis, &xml, &format!("{}:{label}", b.name()));
        }
    }
}

#[test]
fn builtin_dtds_with_generated_documents_stream_identically() {
    // Builtins without a realistic corpus builder still get coverage via
    // the grammar-walking generator + PV-breaking mutations.
    for b in BuiltinDtd::ALL {
        let analysis = b.analysis();
        for seed in 0..3u64 {
            let valid = DocGen::new(&analysis, seed).generate(40);
            let mut stripped = valid.clone();
            Mutator::new(seed).delete_random_markup(&mut stripped, 12);
            let mut swapped = stripped.clone();
            Mutator::new(seed ^ 1).swap_random_siblings(&mut swapped);
            let mut renamed = stripped.clone();
            Mutator::new(seed ^ 2).rename_random_element(&mut renamed, &analysis.dtd);
            for (label, doc) in [
                ("valid", valid),
                ("stripped", stripped),
                ("swapped", swapped),
                ("renamed", renamed),
            ] {
                assert_stream_identical(
                    &analysis,
                    &doc.to_xml(),
                    &format!("{}:{label}:{seed}", b.name()),
                );
            }
        }
    }
}

/// The `corpus::recursive` adversarial families: deep braided recursion
/// is where the recognizer's speculation agenda works hardest, so the
/// streaming recognizers must replicate the exact same work counters.
#[test]
fn recursive_stress_families_stream_identically() {
    for (depth, fanout) in [(4usize, 8usize), (8, 4), (11, 3), (32, 1)] {
        let analysis = corpus::recursive_analysis(depth, fanout);
        for (i, doc) in corpus::recursive(depth, fanout).iter().enumerate() {
            assert_stream_identical(
                &analysis,
                &doc.to_xml(),
                &format!("recursive({depth},{fanout})#{i}"),
            );
        }
    }
}

/// Streaming-specific markup shapes: doctype prefixes, comments and
/// processing instructions splitting text runs (the σ-collapse edge),
/// CDATA-style empty text, attributes with entities, multi-byte UTF-8
/// that every 2-chunk split bisects.
#[test]
fn markup_edge_shapes_stream_identically() {
    let analysis = BuiltinDtd::Figure1.analysis();
    let docs = [
        "<r><a><b>x</b><c>y</c> z<e/></a></r>",
        "<r><a><b>x</b><c>y</c>one<!--gap-->two<e/></a></r>",
        "<r><a><b>x</b><c>y</c>one<?pi data?>two<e/></a></r>",
        "<r><a><b>x&amp;y</b><c attr=\"v&lt;w\">z</c> t<e/></a></r>",
        "<r><a><b>ünïcödé — 試験</b><c>y</c> z<e/></a></r>",
        "<r><a><b>x</b><e/><c>y</c></a></r>",
        "<r><a><zzz/></a></r>",
        "<wrong/>",
        "<!DOCTYPE r [<!ELEMENT r (a)*><!ELEMENT a (#PCDATA)>]><r><a>x</a></r>",
    ];
    for xml in docs {
        assert_stream_identical(&analysis, xml, xml);
    }
}

/// Satellite: the tree checkers' first-violation early exit (sequential
/// stop-at-first, pooled `fetch_min` reduction) and the streaming
/// candidate protocol must all report the **same violation node** — the
/// first in document order — even when a preorder-later node fails first
/// in event order. Here the undeclared `<zzz/>` (inside `<b>`) freezes
/// the stream first, but ancestor `<a>`'s content model `(b,(c|σ)*,e)`
/// rejects at the `<c>` symbol, and `<a>` (node #1) is preorder-earlier.
#[test]
fn early_exit_reports_the_same_violation_everywhere() {
    let analysis = BuiltinDtd::Figure1.analysis();
    let xml = "<r><a><b><zzz/></b><e/><c>y</c></a></r>";
    let doc = pv_xml::parse(xml).unwrap();
    let checker = CheckEngine::new(analysis.clone());
    let seq = checker.check_document(&doc);
    let violation = seq.violation.as_ref().expect("document is not PV");
    assert_eq!(violation.node.index(), 1, "first violation is <a>, in document order");
    let shared = Arc::new(doc.clone());
    for jobs in [1usize, 2, 8] {
        let par = checker.check_document_pooled(&shared, pool(), jobs, true);
        assert_eq!(par.violation.as_ref().map(|v| v.node), Some(violation.node));
        assert_eq!(par, seq, "jobs={jobs}");
    }
    for (i, chunks) in chunkings(xml).into_iter().enumerate() {
        let streamed = stream_outcome(&checker, &chunks);
        assert_eq!(
            streamed.violation.as_ref().map(|v| v.node),
            Some(violation.node),
            "chunking #{i}"
        );
        assert_eq!(streamed, seq, "chunking #{i}");
    }
}

/// Memoization must be invisible: the tree checker with the shape memo
/// enabled, the tree checker without it, and the streaming checker (which
/// never consults a memo) all produce the same outcome.
#[test]
fn streaming_matches_the_tree_checker_at_any_memo_setting() {
    let analysis = BuiltinDtd::Play.analysis();
    let mut doc = corpus::play(400);
    Mutator::new(21).delete_random_markup(&mut doc, 50);
    let xml = doc.to_xml();
    let parsed = pv_xml::parse(&xml).unwrap();
    let memoized = CheckEngine::new(analysis.clone());
    let mut plain = CheckEngine::new(analysis.clone());
    Arc::get_mut(&mut plain).unwrap().set_memo_enabled(false);
    let with_memo = memoized.check_document(&parsed);
    let without = plain.check_document(&parsed);
    assert_eq!(with_memo, without);
    let bytes = xml.as_bytes();
    for chunks in [bytes.chunks(1).collect::<Vec<_>>(), bytes.chunks(113).collect()] {
        assert_eq!(stream_outcome(&plain, &chunks), without);
        assert_eq!(stream_outcome(&memoized, &chunks), without);
    }
}

fn class_strategy() -> impl Strategy<Value = DtdClass> {
    prop_oneof![
        Just(DtdClass::NonRecursive),
        Just(DtdClass::PvWeakRecursive),
        Just(DtdClass::PvStrongRecursive),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random DTD families × random documents × random mutations × random
    /// chunk sizes: the streaming checker is observationally equal to the
    /// tree checker.
    #[test]
    fn streaming_is_bit_identical(
        class in class_strategy(),
        seed in 0u64..5000,
        dels in 0usize..12,
        chunk in 1usize..257,
    ) {
        let break_it = seed % 2 == 0;
        let analysis = DtdGen::new(
            seed,
            DtdGenParams { class, elements: 7, max_model_atoms: 4, ..Default::default() },
        )
        .generate();
        let mut doc = DocGen::new(&analysis, seed ^ 0x5EED).generate(40);
        Mutator::new(seed).delete_random_markup(&mut doc, dels);
        if break_it {
            Mutator::new(seed ^ 3).swap_random_siblings(&mut doc);
            Mutator::new(seed ^ 4).rename_random_element(&mut doc, &analysis.dtd);
        }
        let xml = doc.to_xml();
        let parsed = pv_xml::parse(&xml).unwrap();
        let checker = CheckEngine::new(analysis.clone());
        let tree = checker.check_document(&parsed);
        let chunks: Vec<&[u8]> = xml.as_bytes().chunks(chunk).collect();
        prop_assert_eq!(
            &stream_outcome(&checker, &chunks),
            &tree,
            "class={:?} seed={} chunk={}", class, seed, chunk
        );
    }

    /// Random DTD families × random documents: batched dispatch (chunked
    /// bytes, sibling runs) is observationally equal to event-at-a-time
    /// dispatch under both self-closing encodings.
    #[test]
    fn batched_dispatch_matches_event_at_a_time(
        class in class_strategy(),
        seed in 0u64..5000,
        dels in 0usize..12,
        expand in any::<bool>(),
    ) {
        let break_it = seed % 2 == 1;
        let analysis = DtdGen::new(
            seed,
            DtdGenParams { class, elements: 7, max_model_atoms: 4, ..Default::default() },
        )
        .generate();
        let mut doc = DocGen::new(&analysis, seed ^ 0xBA7C).generate(40);
        Mutator::new(seed).delete_random_markup(&mut doc, dels);
        if break_it {
            Mutator::new(seed ^ 3).swap_random_siblings(&mut doc);
            Mutator::new(seed ^ 4).rename_random_element(&mut doc, &analysis.dtd);
        }
        let xml = doc.to_xml();
        let parsed = pv_xml::parse(&xml).unwrap();
        let checker = CheckEngine::new(analysis.clone());
        let tree = checker.check_document(&parsed);
        prop_assert_eq!(
            &event_at_a_time_outcome(&checker, &parsed, expand),
            &tree,
            "class={:?} seed={} expand={}", class, seed, expand
        );
    }
}
