//! Torture tests for the one XML lexer ([`pv_xml::PushParser`]), which
//! both streaming validation and `pv_xml::parse` run on: arbitrary chunk
//! boundaries must be invisible, truncation must be a clean error (never
//! a wrong verdict), and no input — well-formed, truncated, or raw byte
//! soup — may panic the parser.
//!
//! The judge is an independent reference lexer (`tests/support`), a
//! hand-written cursor parser that shares no lexing code with `pv_xml`.
//! Every input is judged three ways: the reference's canonical trace, the
//! trace of the tree `pv_xml::parse` builds (same elements, attributes,
//! text nodes, comments, PIs, in the same order), and the push parser's
//! event trace at every chunking tried must be equal — and for a broken
//! input all three must report the **same error** (kind and byte offset).
//! The push parser's trace is taken through both of its entry points,
//! pulled with `next_event` and drained into a sink with `drain`, and the
//! two must agree at every chunking.

mod support;

use proptest::prelude::*;
use potential_validity::prelude::*;
use pv_core::stream::StreamCheck;
use pv_xml::{Event, NodeKind, PushParser};
use pv_workload::corpus;
use pv_workload::docgen::DocGen;

/// A canonical event trace under construction (multi-piece text runs
/// collapsed to one text node, self-closing tags expanded to start+end —
/// the tree's view).
#[derive(Default)]
struct Trace {
    out: String,
    text: Option<String>,
}

impl Trace {
    fn flush(&mut self) {
        if let Some(t) = self.text.take() {
            self.out.push_str(&format!("T:{t:?}\n"));
        }
    }

    fn event(&mut self, event: Event<'_>) {
        match event {
            Event::Start { name, attrs, self_closing } => {
                self.flush();
                self.out.push_str(&format!("S:{name}"));
                for a in attrs {
                    self.out.push_str(&format!(" {}={:?}", a.name, a.value));
                }
                self.out.push('\n');
                if self_closing {
                    self.out.push_str(&format!("E:{name}\n"));
                }
            }
            Event::End { name } => {
                self.flush();
                self.out.push_str(&format!("E:{name}\n"));
            }
            Event::Text { piece, first } => {
                if first {
                    self.flush();
                    self.text = Some(String::new());
                }
                self.text.as_mut().expect("continuation piece without a first").push_str(piece);
            }
            Event::Comment { text: c } => {
                self.flush();
                self.out.push_str(&format!("C:{c:?}\n"));
            }
            Event::Pi { target, data } => {
                self.flush();
                self.out.push_str(&format!("P:{target} {data:?}\n"));
            }
        }
    }

    fn finish(mut self) -> String {
        self.flush();
        self.out
    }
}

/// Pulls `xml` through a push parser's `next_event` in `chunk`-byte
/// chunks and renders its canonical trace.
fn pull_trace(xml: &[u8], chunk: usize) -> pv_xml::Result<String> {
    let mut parser = PushParser::new();
    let mut trace = Trace::default();
    let mut pieces = xml.chunks(chunk.max(1));
    let mut eof = false;
    loop {
        match parser.next_event()? {
            Some(event) => trace.event(event),
            None if eof => break,
            None => match pieces.next() {
                Some(c) => parser.push(c),
                None => {
                    parser.finish();
                    eof = true;
                }
            },
        }
    }
    assert!(parser.is_complete(), "event stream ended on an incomplete document");
    Ok(trace.finish())
}

/// The same trace with the parser pushing events into a sink: one
/// `drain` after every chunk and one after `finish`.
fn drain_trace(xml: &[u8], chunk: usize) -> pv_xml::Result<String> {
    let mut parser = PushParser::new();
    let mut trace = Trace::default();
    for piece in xml.chunks(chunk.max(1)) {
        parser.push(piece);
        parser.drain(|event| trace.event(event))?;
    }
    parser.finish();
    parser.drain(|event| trace.event(event))?;
    assert!(parser.is_complete(), "drain ended on an incomplete document");
    Ok(trace.finish())
}

/// The push parser's trace of `xml` in `chunk`-byte chunks, after
/// checking that pulling events and draining them into a sink give the
/// same trace, or the same error (kind and byte offset).
fn event_trace(xml: &str, chunk: usize) -> pv_xml::Result<String> {
    let pulled = pull_trace(xml.as_bytes(), chunk);
    let drained = drain_trace(xml.as_bytes(), chunk);
    assert_eq!(drained, pulled, "drain and next_event disagree on {xml:?} at chunk={chunk}");
    pulled
}

/// The same canonical trace, derived from a built document.
fn tree_trace(doc: &Document) -> String {
    enum Step {
        Enter(NodeId),
        Close(NodeId),
    }
    let mut out = String::new();
    let mut stack = vec![Step::Enter(doc.root())];
    while let Some(step) = stack.pop() {
        match step {
            Step::Close(n) => {
                out.push_str(&format!("E:{}\n", doc.name(n).unwrap()));
            }
            Step::Enter(n) => match doc.kind(n) {
                NodeKind::Text(t) => out.push_str(&format!("T:{t:?}\n")),
                NodeKind::Comment(c) => out.push_str(&format!("C:{c:?}\n")),
                NodeKind::Pi { target, data } => {
                    out.push_str(&format!("P:{target} {data:?}\n"))
                }
                NodeKind::Element { name, attrs } => {
                    out.push_str(&format!("S:{name}"));
                    for a in attrs {
                        out.push_str(&format!(" {}={:?}", a.name, a.value));
                    }
                    out.push('\n');
                    stack.push(Step::Close(n));
                    for &c in doc.children(n).iter().rev() {
                        stack.push(Step::Enter(c));
                    }
                }
            },
        }
    }
    out
}

/// The reference lexer's verdict on `xml` — its trace, or its error —
/// after checking that `pv_xml::parse` reaches exactly the same one.
fn reference(xml: &str) -> pv_xml::Result<String> {
    let expect = support::reference_trace(xml);
    let tree = pv_xml::parse(xml).map(|doc| tree_trace(&doc));
    assert_eq!(tree, expect, "pv_xml::parse disagrees with the reference on {xml:?}");
    expect
}

/// Hand-picked markup shapes that stress the lexer's resumption points:
/// splits land inside names, attributes, references, comments, PIs,
/// CDATA sections, and multi-byte UTF-8 sequences.
const EDGE_DOCS: &[&str] = &[
    "<r><a><b>x</b><c>y</c> z<e/></a></r>",
    "<r a=\"1\" b='two&amp;'><x/>tail</r>",
    "<r><![CDATA[literal <markup> &amp; kept]]>after</r>",
    "<r><![CDATA[]]></r>",
    "<r>one<!--comment--><![CDATA[two]]>three</r>",
    "<r><?pi some data?><?bare?></r>",
    "<r>ünïcödé — 試験 &#x2603;</r>",
    "<r    \n  a = \"ws\"  ><b\n/></r>",
];

#[test]
fn edge_documents_trace_identically_at_every_split() {
    for xml in EDGE_DOCS {
        let expect = reference(xml).unwrap();
        for chunk in 1..=xml.len() {
            assert_eq!(
                event_trace(xml, chunk).unwrap(),
                expect,
                "xml={xml} chunk={chunk}"
            );
        }
    }
}

#[test]
fn corpus_documents_trace_identically() {
    for b in BuiltinDtd::ALL {
        let Some(doc) = corpus::for_builtin(b, 300) else { continue };
        let xml = doc.to_xml();
        let expect = reference(&xml).unwrap();
        for chunk in [1usize, 7, 64, xml.len()] {
            assert_eq!(event_trace(&xml, chunk).unwrap(), expect, "{} chunk={chunk}", b.name());
        }
    }
}

/// A text run, a start tag and an `&amp;` straddle every power-of-two
/// offset from 4 KiB to 256 KiB, in rotation, so any power-of-two chunk
/// size from 4 KiB to 64 KiB (the streaming CLI's default) cuts through
/// each kind at one of its own boundaries. They must come out as the
/// reference reads them, both from the tree `pv_xml::parse` builds over
/// the whole input and from the push parser at chunkings of those sizes
/// and a few odd ones.
#[test]
fn slice_boundaries_inside_text_tags_and_references() {
    let straddlers = ["text run", "<tag a=\"v\">t</tag>", "pre&amp;post"];
    let mut xml = String::from("<r>");
    for (log2, straddler) in (12..=18).zip(straddlers.iter().cycle()) {
        // Element padding up to 4 bytes before the boundary.
        let boundary = 1usize << log2;
        let filler = boundary - 4 - xml.len() - "<p></p>".len();
        xml.push_str(&format!("<p>{}</p>", "x".repeat(filler)));
        assert_eq!(xml.len(), boundary - 4);
        xml.push_str(straddler);
    }
    xml.push_str("</r>");
    let expect = reference(&xml).unwrap();
    assert!(expect.contains("\nT:\"text run\"\n"));
    assert!(expect.contains("\nS:tag a=\"v\"\n"));
    assert!(expect.contains("\nT:\"pre&post\"\n"));
    let powers = (12..=16).map(|log2| 1usize << log2);
    for chunk in powers.chain([(1 << 16) - 1, (1 << 16) + 1, 4093]) {
        assert_eq!(event_trace(&xml, chunk).unwrap(), expect, "chunk={chunk}");
    }
}

/// Constructs many chunks long — a comment, a CDATA section, attribute
/// values, a PI, a doctype subset, a reference between two long text
/// halves — must parse as the reference reads them, and ones the end of
/// input cuts off (a comment, a CDATA section, an attribute value, a `&`
/// that never meets its `;`) must give the reference's error, both from
/// `pv_xml::parse` and from the push parser. The push parser re-lexes a
/// construct in flight from its first byte on every push, so this is
/// also where chunked lexing that turns quadratic would show.
#[test]
fn constructs_spanning_many_slices() {
    let long = "y".repeat(200 * 1024);
    let docs = [
        format!("<r>a<!--{long}-->b</r>"),
        format!("<r><![CDATA[{long}]]>tail</r>"),
        format!("<r a=\"{long}\" b='&amp;{long}'/>"),
        format!("<r><?pi {long}?></r>"),
        format!("<!DOCTYPE r [<!-- {long} --><!ELEMENT r ANY>]><r/>"),
        format!("<r>{long}&amp;{long}</r>"),
    ];
    for xml in &docs {
        let expect = reference(xml).unwrap();
        for chunk in [1 << 16, 4093] {
            assert_eq!(event_trace(xml, chunk).unwrap(), expect, "chunk={chunk}");
        }
    }
    let cut = "z".repeat(1 << 20);
    let broken = [
        format!("<r><!--{cut}"),
        format!("<r><![CDATA[{cut}"),
        format!("<r a=\"{cut}"),
        format!("<r>&{cut}"),
        format!("<r>&{cut};</r>"),
    ];
    for xml in &broken {
        let ref_err = reference(xml).expect_err("cut-off construct");
        let stream_err = event_trace(xml, 1 << 16).expect_err("push parser must reject too");
        assert_eq!(stream_err.to_string(), ref_err.to_string());
    }
}

/// A start tag with 100,000 attributes whose first repeat comes at its
/// end and names one of its first attributes: `pv_xml::parse` and
/// `StreamCheck` (whole, and in the streaming CLI's 64 KiB chunks, which
/// re-lex the tag on every push) must report that repeat — its name at
/// its byte offset — before the later repeat and the malformed attribute
/// behind it. Checking each name against every earlier one would cost
/// O(N²) here, seconds per pass.
#[test]
fn a_hundred_thousand_attributes_report_their_first_repeat() {
    let mut xml = String::from("<r");
    for i in 0..100_000 {
        xml.push_str(&format!(" a{i}=\"\""));
    }
    let repeat = xml.len() + 1;
    xml.push_str(" a3=\"\" a50000=\"\" b/>");
    let expect = pv_xml::XmlError::new(
        pv_xml::XmlErrorKind::DuplicateAttribute("a3".to_owned()),
        repeat,
    );
    assert_eq!(pv_xml::parse(&xml).unwrap_err(), expect);
    let checker = CheckEngine::new(BuiltinDtd::Figure1.analysis());
    for chunk in [1 << 16, xml.len()] {
        let mut check = StreamCheck::new(checker.stream_checker());
        let fed: Result<Vec<()>, _> = xml.as_bytes().chunks(chunk).map(|c| check.feed(c)).collect();
        let err = match fed {
            Err(e) => e,
            Ok(_) => check.finish().expect_err("a repeated attribute is not well-formed"),
        };
        assert_eq!(err, expect, "chunk={chunk}");
    }
}

/// Every strict prefix of a well-formed document (no trailing misc) is
/// incomplete or broken: the push parser must report a clean error —
/// the **same** error the reference and `pv_xml::parse` report for that
/// prefix — and the streaming checker must propagate it instead of
/// inventing a verdict.
#[test]
fn every_prefix_truncation_is_a_clean_error() {
    let analysis = BuiltinDtd::Figure1.analysis();
    let checker = CheckEngine::new(analysis.clone());
    let full = "<r><a><b>x&amp;y</b><c a=\"v\">ü</c> z<!--c--><e/></a></r>";
    for cut in 1..full.len() {
        if !full.is_char_boundary(cut) {
            continue; // byte-level truncation of UTF-8 is covered below
        }
        let prefix = &full[..cut];
        let ref_err = reference(prefix).expect_err("strict prefix cannot be complete");
        for chunk in [1usize, 4, prefix.len()] {
            let stream_err =
                event_trace(prefix, chunk).expect_err("push parser must also reject");
            assert_eq!(
                stream_err.to_string(),
                ref_err.to_string(),
                "cut={cut} chunk={chunk}"
            );
            // The checking layer sees the error, not a verdict.
            let mut check = StreamCheck::new(checker.stream_checker());
            let fed: Result<Vec<()>, _> =
                prefix.as_bytes().chunks(chunk).map(|c| check.feed(c)).collect();
            match fed {
                Err(e) => assert_eq!(e.to_string(), ref_err.to_string(), "cut={cut}"),
                Ok(_) => {
                    let e = check.finish().expect_err("truncation must not yield a verdict");
                    assert_eq!(e.to_string(), ref_err.to_string(), "cut={cut}");
                }
            }
        }
    }
}

/// `peak_buffered` is a **true high-water mark** of the lexer's resident
/// bytes, not a sample at convenient boundaries: it must reach at least
/// the size of the largest single construct (which is fully resident
/// just before its event), must stay construct-bound rather than
/// document-bound at every chunking, and must count bytes parked in the
/// split-UTF-8 tail the moment they are parked.
#[test]
fn peak_buffered_is_a_true_high_water_mark() {
    // One ~300-byte comment dominates every other construct; the rest of
    // the document is an order of magnitude smaller.
    let comment = format!("<!--{}-->", "c".repeat(300));
    let xml = format!("<r>head{comment}<a>tail — ünïcödé 試験</a></r>");
    for chunk in [1usize, 2, 7, 16, 64] {
        let mut parser = PushParser::new();
        let mut pieces = xml.as_bytes().chunks(chunk);
        let mut eof = false;
        loop {
            match parser.next_event().unwrap() {
                Some(_) => continue,
                None if eof => break,
                None => match pieces.next() {
                    Some(c) => parser.push(c),
                    None => {
                        parser.finish();
                        eof = true;
                    }
                },
            }
        }
        assert!(parser.is_complete());
        let peak = parser.peak_buffered();
        assert!(
            peak >= comment.len(),
            "chunk={chunk}: peak {peak} under-reports the {}-byte construct",
            comment.len()
        );
        assert!(
            peak <= comment.len() + chunk + 16,
            "chunk={chunk}: peak {peak} is not construct-bound"
        );
    }
    // The split-UTF-8 tail counts toward residency the moment it is
    // parked, not at the next event boundary: 119 pushed bytes are 117
    // buffered text bytes plus a 2-byte partial codepoint in the tail.
    let mut parser = PushParser::new();
    parser.push(b"<r>");
    while parser.next_event().unwrap().is_some() {}
    let text = "試".repeat(40); // 120 bytes of 3-byte codepoints
    parser.push(&text.as_bytes()[..119]);
    assert!(
        parser.peak_buffered() >= 119,
        "tail bytes missing from the high-water mark: {}",
        parser.peak_buffered()
    );
}

/// Byte soup — including invalid UTF-8 and mid-codepoint truncations —
/// must never panic; it either errors or (for the rare well-formed
/// accident) completes. Soup that is valid UTF-8 must also get the
/// reference's verdict, error or trace.
#[test]
fn byte_soup_never_panics() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let alphabet: &[u8] = b"<>!?/=\"'&;ab \xC3\xBC\xE8\xA9\xA6\xFF\x00-[]CDATA";
    for _ in 0..400 {
        let len = (rng() % 64) as usize;
        let mut soup = Vec::with_capacity(len + 1);
        soup.push(b'<'); // start tag-ish so the lexer engages
        for _ in 0..len {
            soup.push(alphabet[(rng() % alphabet.len() as u64) as usize]);
        }
        let mut parser = PushParser::new();
        let chunk = 1 + (rng() % 9) as usize;
        let mut pieces = soup.chunks(chunk);
        let mut eof = false;
        loop {
            match parser.next_event() {
                Err(_) => break, // clean rejection
                Ok(Some(_)) => continue,
                Ok(None) if eof => break,
                Ok(None) => match pieces.next() {
                    Some(c) => parser.push(c),
                    None => {
                        parser.finish();
                        eof = true;
                    }
                },
            }
        }
        // Draining gives what pulling gives, invalid UTF-8 included.
        assert_eq!(drain_trace(&soup, chunk), pull_trace(&soup, chunk), "soup={soup:?}");
        if let Ok(text) = std::str::from_utf8(&soup) {
            assert_eq!(event_trace(text, chunk), reference(text), "soup={text:?} chunk={chunk}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random well-formed documents × random chunk sizes: the event
    /// stream, the built tree and the reference trace agree.
    #[test]
    fn generated_documents_trace_identically(
        seed in 0u64..5000,
        nodes in 5usize..60,
        chunk in 1usize..129,
    ) {
        let analysis = BuiltinDtd::Play.analysis();
        let doc = DocGen::new(&analysis, seed).generate(nodes);
        let xml = doc.to_xml();
        let expect = reference(&xml).unwrap();
        prop_assert_eq!(event_trace(&xml, chunk).unwrap(), expect);
    }

    /// Random truncations of random documents: clean error, never a
    /// verdict, never a panic.
    #[test]
    fn generated_truncations_error_cleanly(
        seed in 0u64..5000,
        cut_mille in 50u64..999,
        chunk in 1usize..65,
    ) {
        let analysis = BuiltinDtd::Play.analysis();
        let doc = DocGen::new(&analysis, seed).generate(20);
        let xml = doc.to_xml();
        let mut cut = (xml.len() * cut_mille as usize) / 1000;
        cut = cut.clamp(1, xml.len() - 1);
        while !xml.is_char_boundary(cut) {
            cut -= 1;
        }
        let prefix = &xml[..cut];
        let ref_err = reference(prefix).expect_err("strict prefix cannot be complete");
        let stream_err = event_trace(prefix, chunk).expect_err("push parser must reject too");
        prop_assert_eq!(stream_err.to_string(), ref_err.to_string());
    }
}
