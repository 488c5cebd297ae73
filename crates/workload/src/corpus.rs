//! Deterministic realistic documents for the built-in DTDs, sized by a
//! target element count — the benchmark suite's standard corpora.
//!
//! Unlike [`crate::docgen`], these builders produce documents with the
//! *shape* of their real-world counterparts (a play has acts with dozens
//! of speeches of several lines each; an XHTML page is a long flat body; a
//! TEI transcription nests divisions), which matters for the recognizer's
//! branching behaviour.

use pv_dtd::builtin::BuiltinDtd;
use pv_dtd::DtdAnalysis;
use pv_xml::Document;

/// A play (PLAY DTD) with enough acts/scenes/speeches to reach roughly
/// `target_elements` element nodes.
pub fn play(target_elements: usize) -> Document {
    let mut doc = Document::new("PLAY");
    let root = doc.root();
    let title = doc.append_element(root, "TITLE").unwrap();
    doc.append_text(title, "The Tragedy of Potential Validity").unwrap();
    let personae = doc.append_element(root, "PERSONAE").unwrap();
    let pt = doc.append_element(personae, "TITLE").unwrap();
    doc.append_text(pt, "Dramatis Personae").unwrap();
    for name in ["EDITOR", "PARSER"] {
        let p = doc.append_element(personae, "PERSONA").unwrap();
        doc.append_text(p, name).unwrap();
    }

    // ~13 elements per speech-pair scene block below.
    let mut produced = 8usize;
    while produced < target_elements {
        let act = doc.append_element(root, "ACT").unwrap();
        let at = doc.append_element(act, "TITLE").unwrap();
        doc.append_text(at, "ACT").unwrap();
        produced += 2;
        for scene_i in 0..3 {
            // An ACT requires at least one SCENE (play.dtd: `(TITLE, SCENE+)`),
            // so only break once the act is valid.
            if scene_i > 0 && produced >= target_elements {
                break;
            }
            let scene = doc.append_element(act, "SCENE").unwrap();
            let st = doc.append_element(scene, "TITLE").unwrap();
            doc.append_text(st, "SCENE I. A workshop.").unwrap();
            produced += 2;
            for s in 0..4 {
                let speech = doc.append_element(scene, "SPEECH").unwrap();
                let sp = doc.append_element(speech, "SPEAKER").unwrap();
                doc.append_text(sp, if s % 2 == 0 { "EDITOR" } else { "PARSER" }).unwrap();
                produced += 2;
                for l in 0..4 {
                    let line = doc.append_element(speech, "LINE").unwrap();
                    doc.append_text(line, match l {
                        0 => "Shall I compare thee to a well-formed tree?",
                        1 => "Thou art more lovely and more deterministic:",
                        2 => "Rough winds do shake the darling tags of May,",
                        _ => "And summer's lease hath all too short a date.",
                    })
                    .unwrap();
                    produced += 1;
                }
            }
        }
    }
    debug_assert!(doc.check_integrity().is_ok());
    doc
}

/// An XHTML page (XhtmlBasic DTD) with roughly `target_elements` elements.
pub fn xhtml(target_elements: usize) -> Document {
    let mut doc = Document::new("html");
    let root = doc.root();
    let head = doc.append_element(root, "head").unwrap();
    let title = doc.append_element(head, "title").unwrap();
    doc.append_text(title, "On Potential Validity").unwrap();
    let body = doc.append_element(root, "body").unwrap();
    let h1 = doc.append_element(body, "h1").unwrap();
    doc.append_text(h1, "Document-centric editing").unwrap();

    let mut produced = 5usize;
    let mut i = 0usize;
    while produced < target_elements {
        match i % 4 {
            0 | 1 => {
                let p = doc.append_element(body, "p").unwrap();
                doc.append_text(p, "A quick brown fox jumps over a ").unwrap();
                let b = doc.append_element(p, "b").unwrap();
                doc.append_text(b, "lazy").unwrap();
                let inner = doc.append_element(b, "i").unwrap();
                doc.append_text(inner, " and italic").unwrap();
                doc.append_text(p, " dog.").unwrap();
                produced += 3;
            }
            2 => {
                let ul = doc.append_element(body, "ul").unwrap();
                for item in ["insert", "delete", "update"] {
                    let li = doc.append_element(ul, "li").unwrap();
                    doc.append_text(li, item).unwrap();
                }
                produced += 4;
            }
            _ => {
                let pre = doc.append_element(body, "pre").unwrap();
                doc.append_text(pre, "<r><a>…</a></r>").unwrap();
                produced += 1;
            }
        }
        i += 1;
    }
    debug_assert!(doc.check_integrity().is_ok());
    doc
}

/// A TEI transcription (TeiLite DTD) with roughly `target_elements`
/// elements, nesting divisions two levels deep.
pub fn tei(target_elements: usize) -> Document {
    let mut doc = Document::new("TEI");
    let root = doc.root();
    let header = doc.append_element(root, "teiHeader").unwrap();
    let fd = doc.append_element(header, "fileDesc").unwrap();
    let ts = doc.append_element(fd, "titleStmt").unwrap();
    let t = doc.append_element(ts, "title").unwrap();
    doc.append_text(t, "Letters of a Markup Editor").unwrap();
    let text = doc.append_element(root, "text").unwrap();
    let body = doc.append_element(text, "body").unwrap();

    let mut produced = 7usize;
    while produced < target_elements {
        let div = doc.append_element(body, "div").unwrap();
        let head = doc.append_element(div, "head").unwrap();
        doc.append_text(head, "Chapter").unwrap();
        produced += 2;
        for _ in 0..3 {
            let sub = doc.append_element(div, "div").unwrap();
            produced += 1;
            for pi in 0..4 {
                let p = doc.append_element(sub, "p").unwrap();
                doc.append_text(p, "Call me ").unwrap();
                let name = doc.append_element(p, "name").unwrap();
                doc.append_text(name, "Ishmael").unwrap();
                doc.append_text(p, ". Some years ago — never mind how long — ").unwrap();
                if pi % 2 == 0 {
                    let hi = doc.append_element(p, "hi").unwrap();
                    doc.append_text(hi, "precisely").unwrap();
                    produced += 1;
                }
                doc.append_element(p, "lb").unwrap();
                produced += 3;
            }
        }
    }
    debug_assert!(doc.check_integrity().is_ok());
    doc
}

/// A scholarly article (DocbookArticle DTD) with roughly
/// `target_elements` elements: front matter, then `sect1` blocks mixing
/// paragraphs (with inline emphasis and footnotes), item lists, and one
/// `sect2` subsection each.
pub fn docbook_article(target_elements: usize) -> Document {
    let mut doc = Document::new("article");
    let root = doc.root();
    let title = doc.append_element(root, "title").unwrap();
    doc.append_text(title, "On the Potential Validity of Editorial Markup").unwrap();
    let info = doc.append_element(root, "articleinfo").unwrap();
    let author = doc.append_element(info, "author").unwrap();
    let first = doc.append_element(author, "firstname").unwrap();
    doc.append_text(first, "Ada").unwrap();
    let sur = doc.append_element(author, "surname").unwrap();
    doc.append_text(sur, "Lovelace").unwrap();
    let date = doc.append_element(info, "date").unwrap();
    doc.append_text(date, "2006-04-03").unwrap();
    let abs = doc.append_element(root, "abstract").unwrap();
    let abs_p = doc.append_element(abs, "para").unwrap();
    doc.append_text(abs_p, "We study in-progress documents.").unwrap();

    let mut produced = 9usize;
    let mut section = 0usize;
    while produced < target_elements {
        section += 1;
        let s1 = doc.append_element(root, "sect1").unwrap();
        let t = doc.append_element(s1, "title").unwrap();
        doc.append_text(t, "Section").unwrap();
        produced += 2;
        for pi in 0..3 {
            let p = doc.append_element(s1, "para").unwrap();
            doc.append_text(p, "A quick brown fox jumps over a ").unwrap();
            let em = doc.append_element(p, "emphasis").unwrap();
            doc.append_text(em, "lazy").unwrap();
            doc.append_text(p, " dog").unwrap();
            produced += 2;
            if pi == 1 {
                let fnote = doc.append_element(p, "footnote").unwrap();
                let fp = doc.append_element(fnote, "para").unwrap();
                doc.append_text(fp, "Not an actual dog.").unwrap();
                produced += 2;
            }
        }
        let list = doc.append_element(s1, "itemizedlist").unwrap();
        produced += 1;
        for item in ["insert", "delete", "update"] {
            let li = doc.append_element(list, "listitem").unwrap();
            let lp = doc.append_element(li, "para").unwrap();
            doc.append_text(lp, item).unwrap();
            produced += 2;
        }
        if section.is_multiple_of(2) {
            let s2 = doc.append_element(s1, "sect2").unwrap();
            let t2 = doc.append_element(s2, "title").unwrap();
            doc.append_text(t2, "Subsection").unwrap();
            let p2 = doc.append_element(s2, "para").unwrap();
            doc.append_text(p2, "Details follow.").unwrap();
            produced += 3;
        }
    }
    debug_assert!(doc.check_integrity().is_ok());
    doc
}

/// A performance text (TeiDrama DTD) with roughly `target_elements`
/// elements: a cast list up front, then acts (`div`) of speeches mixing
/// prose, verse lines, and stage directions.
pub fn tei_drama(target_elements: usize) -> Document {
    let mut doc = Document::new("TEI");
    let root = doc.root();
    let header = doc.append_element(root, "teiHeader").unwrap();
    let fd = doc.append_element(header, "fileDesc").unwrap();
    let ts = doc.append_element(fd, "titleStmt").unwrap();
    let t = doc.append_element(ts, "title").unwrap();
    doc.append_text(t, "The Marked-Up Tragedy").unwrap();
    let text = doc.append_element(root, "text").unwrap();
    let front = doc.append_element(text, "front").unwrap();
    let cast = doc.append_element(front, "castList").unwrap();
    for who in ["EDITOR", "PARSER"] {
        let item = doc.append_element(cast, "castItem").unwrap();
        let role = doc.append_element(item, "role").unwrap();
        doc.append_text(role, who).unwrap();
    }
    let body = doc.append_element(text, "body").unwrap();

    let mut produced = 11usize;
    while produced < target_elements {
        let div = doc.append_element(body, "div").unwrap();
        let head = doc.append_element(div, "head").unwrap();
        doc.append_text(head, "Act").unwrap();
        let opening = doc.append_element(div, "stage").unwrap();
        doc.append_text(opening, "Enter EDITOR, stage left.").unwrap();
        produced += 3;
        for s in 0..4 {
            let sp = doc.append_element(div, "sp").unwrap();
            let speaker = doc.append_element(sp, "speaker").unwrap();
            doc.append_text(speaker, if s % 2 == 0 { "EDITOR" } else { "PARSER" }).unwrap();
            produced += 2;
            if s % 2 == 0 {
                for l in 0..3 {
                    let line = doc.append_element(sp, "l").unwrap();
                    doc.append_text(line, match l {
                        0 => "Shall I compare thee to a well-formed tree?",
                        1 => "Thou art more lovely and more deterministic:",
                        _ => "Rough winds do shake the darling tags of May,",
                    })
                    .unwrap();
                    produced += 1;
                }
            } else {
                let p = doc.append_element(sp, "p").unwrap();
                doc.append_text(p, "Speak the speech, I pray you, with ").unwrap();
                let hi = doc.append_element(p, "hi").unwrap();
                doc.append_text(hi, "balanced tags").unwrap();
                doc.append_text(p, ".").unwrap();
                let stage = doc.append_element(sp, "stage").unwrap();
                doc.append_text(stage, "Gestures at the DOM.").unwrap();
                produced += 3;
            }
        }
    }
    debug_assert!(doc.check_integrity().is_ok());
    doc
}

/// Builds the standard corpus document for a built-in DTD, when one exists.
pub fn for_builtin(b: BuiltinDtd, target_elements: usize) -> Option<Document> {
    match b {
        BuiltinDtd::Play => Some(play(target_elements)),
        BuiltinDtd::XhtmlBasic => Some(xhtml(target_elements)),
        BuiltinDtd::TeiLite => Some(tei(target_elements)),
        BuiltinDtd::DocbookArticle => Some(docbook_article(target_elements)),
        BuiltinDtd::TeiDrama => Some(tei_drama(target_elements)),
        _ => None,
    }
}

/// A deterministic batch of `docs` corpus documents for `b` — the standard
/// many-document workload behind the `CheckEngine::check_batch_pooled`
/// benchmarks and tests. Document `i` targets a size jittered over
/// `[target_elements/2, 3·target_elements/2)` by a fixed Weyl sequence, so
/// batches are irregular enough that pool workers finish their documents
/// at different times, while staying bit-identical across runs and
/// machines. Returns `None` for DTDs without a corpus builder (see
/// [`for_builtin`]).
pub fn batch(b: BuiltinDtd, docs: usize, target_elements: usize) -> Option<Vec<Document>> {
    let spread = target_elements.max(1);
    (0..docs)
        .map(|i| {
            // Low-discrepancy jitter: golden-ratio Weyl sequence on [0, 1).
            let phase = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 32;
            let jitter = (phase as usize) % spread;
            for_builtin(b, target_elements / 2 + jitter)
        })
        .collect()
}

/// Number of leaf symbols under every `<s>` node of the [`repetitive`]
/// corpus (and the number of optional `t` slots in `s`'s content model).
pub const REPETITIVE_WIDTH: usize = 16;

/// The DTD behind [`repetitive`]. Each `<s>` node's children are leaves
/// that can only be absorbed by speculating an elided `t → u` chain per
/// symbol (`md(t, v) = md(t, x) = 2`), so an **uncached** ECPV run over an
/// `<s>` shape is deliberately expensive (nested-recognizer spawns), while
/// a memoized run is one transition-cache probe per symbol — the corpus
/// family separates the two regimes cleanly.
const REPETITIVE_DTD: &str = "\
<!ELEMENT r (s*)>
<!ELEMENT s (t?, t?, t?, t?, t?, t?, t?, t?, t?, t?, t?, t?, t?, t?, t?, t?)>
<!ELEMENT t (u)>
<!ELEMENT u (v?, x?)>
<!ELEMENT v EMPTY>
<!ELEMENT x EMPTY>";

/// Compiled analysis of the [`repetitive`] corpus DTD (root `r`).
pub fn repetitive_analysis() -> DtdAnalysis {
    DtdAnalysis::parse(REPETITIVE_DTD, "r").expect("repetitive DTD is well-formed")
}

/// A deterministic shape-controlled corpus for the memoization benchmarks:
/// roughly `target_elements` elements under [`repetitive_analysis`],
/// organised as `<s>` blocks of [`REPETITIVE_WIDTH`] leaf children each.
///
/// Block `i` takes **shape code** `i % distinct_shapes`; bit `b` of the
/// code decides whether leaf `b` is `<v>` or `<x>`, so the corpus contains
/// exactly `min(distinct_shapes, blocks, 2^16)` distinct `(s, child
/// sequence)` shapes. Sweeping `distinct_shapes` from `1` to `usize::MAX`
/// (every block distinct — the adversarial regime for a memo keyed by
/// whole child sequences) varies repetition on documents whose node
/// count, per-node work, and potential validity are otherwise identical.
/// The transition cache, keyed by recognizer configuration and symbol,
/// still answers ~99% of symbols on every setting.
///
/// Every generated document is potentially valid (each leaf sits in an
/// elided `t → u` chain; `s` has enough optional `t` slots for any
/// pattern) and the builder is allocation-deterministic: same arguments,
/// bit-identical document.
pub fn repetitive(target_elements: usize, distinct_shapes: usize) -> Document {
    let distinct = distinct_shapes.clamp(1, 1 << REPETITIVE_WIDTH);
    let blocks = std::cmp::max(1, target_elements.saturating_sub(1) / (REPETITIVE_WIDTH + 1));
    let mut doc = Document::new("r");
    let root = doc.root();
    for i in 0..blocks {
        let s = doc.append_element(root, "s").unwrap();
        let code = i % distinct;
        for bit in 0..REPETITIVE_WIDTH {
            let name = if (code >> bit) & 1 == 1 { "x" } else { "v" };
            doc.append_element(s, name).unwrap();
        }
    }
    debug_assert!(doc.check_integrity().is_ok());
    doc
}

/// The densely recursive adversarial DTD family behind the
/// recognizer-completeness suites: `depth` levels of `fanout` elements
/// each (`k = depth · fanout`), wired as per-column chains with a braided
/// interconnect — `x{l}_j → (x{l+1}_j | x{l+1}_{j+1 mod f})` — a
/// **recursive re-entry at the middle level** (`x0_j` as a third
/// alternative, making the family PV-strong recursive) and a mixed
/// bottom level `(#PCDATA | x0_j)*` whose star reaches the whole
/// alphabet.
///
/// The shape is engineered to stress the speculation agenda:
///
/// * `md(x{l}_j, σ) = depth − 1 − l` spreads the md spectrum, so agenda
///   ordering (not DTD declaration order) decides which chain opens
///   first;
/// * absorbing an explicit `x{m}` or a second sibling takes a chain of
///   elisions down to the bottom star — the committed-sub/budget-drain
///   class (gap a of the PR 4 completeness audit) reproduces on it under
///   the old scheduler once `depth · fanout ≥ 32` pushes the budget into
///   its scaled regime;
/// * the mid-level re-entry plus the choice-of-two interconnect creates
///   equality/elision branch points (gap b) at every level.
///
/// Chains are column-local (not a complete bipartite lattice), keeping
/// the per-symbol hypothesis count near-linear in `k` — the regime the
/// scaled budget covers; `tests/completeness.rs` asserts the certified
/// configurations are divergence-free against the exact Earley oracle,
/// and that on over-budget configurations (deep braids are exponential
/// in hypothesis count) every divergence is flagged by
/// `RecognizerStats::specs_denied`, never silent.
pub fn recursive_dtd_source(depth: usize, fanout: usize) -> String {
    let depth = depth.max(2);
    let fanout = fanout.max(1);
    let mut src = String::new();
    for l in 0..depth {
        for j in 0..fanout {
            let name = format!("x{l}_{j}");
            if l + 1 == depth {
                src.push_str(&format!("<!ELEMENT {name} (#PCDATA | x0_{j})*>\n"));
            } else {
                let mut alts: Vec<String> = vec![format!("x{}_{j}", l + 1)];
                let braid = format!("x{}_{}", l + 1, (j + 1) % fanout);
                if !alts.contains(&braid) {
                    alts.push(braid);
                }
                if l == depth / 2 {
                    alts.push(format!("x0_{j}"));
                }
                src.push_str(&format!("<!ELEMENT {name} ({})>\n", alts.join(" | ")));
            }
        }
    }
    src
}

/// Compiled analysis of [`recursive_dtd_source`]`(depth, fanout)`, rooted
/// at `x0_0`.
pub fn recursive_analysis(depth: usize, fanout: usize) -> DtdAnalysis {
    DtdAnalysis::parse(&recursive_dtd_source(depth, fanout), "x0_0")
        .expect("recursive family DTD is well-formed")
}

/// Deterministic stripped documents for the [`recursive_analysis`] family:
/// every document is potentially valid (verified against the Earley
/// oracle by `tests/completeness.rs`), but recognizing one forces elision
/// chains of up to `depth` levels. The set contains, for each level `l`:
/// a bare σ run under an explicit level-`l` element, explicit chains
/// broken at `l` (children that skip one level), sibling runs mixing σ
/// with explicit elements, and a recursive re-entry (`x0_0` under the
/// bottom level).
pub fn recursive(depth: usize, fanout: usize) -> Vec<Document> {
    let depth = depth.max(1);
    let fanout = fanout.max(1);
    let name = |l: usize, j: usize| format!("x{l}_{j}");
    let mut docs = Vec::new();
    // Bare text at the root: needs the full depth of elisions.
    let mut d = Document::new(&name(0, 0));
    d.append_text(d.root(), "t").unwrap();
    docs.push(d);
    for l in 1..depth {
        for j in 0..fanout.min(3) {
            // An explicit level-l element directly under the root (skips
            // l − 1 levels of markup), carrying bare text.
            let mut d = Document::new(&name(0, 0));
            let mid = d.append_element(d.root(), &name(l, j)).unwrap();
            d.append_text(mid, "t").unwrap();
            docs.push(d);
            // The same with a recursive re-entry next to the text.
            let mut d = Document::new(&name(0, 0));
            let mid = d.append_element(d.root(), &name(l, j)).unwrap();
            d.append_text(mid, "t").unwrap();
            d.append_element(mid, &name(0, 0)).unwrap();
            docs.push(d);
        }
    }
    // Sibling runs under the root: σ then explicit elements from two
    // different levels (only one child can be legal per choice parse, the
    // rest must be absorbed by recursive elision).
    if depth >= 2 {
        let mut d = Document::new(&name(0, 0));
        let root = d.root();
        d.append_text(root, "t").unwrap();
        d.append_element(root, &name(1, 0)).unwrap();
        d.append_element(root, &name(depth - 1, fanout.min(2) - 1)).unwrap();
        docs.push(d);
    }
    // A full explicit chain root → bottom, then text.
    let mut d = Document::new(&name(0, 0));
    let mut at = d.root();
    for l in 1..depth {
        at = d.append_element(at, &name(l, (l * 7) % fanout)).unwrap();
    }
    d.append_text(at, "t").unwrap();
    docs.push(d);
    for doc in &docs {
        debug_assert!(doc.check_integrity().is_ok());
    }
    docs
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_grammar::validator::validate_document;

    #[test]
    fn corpora_are_valid() {
        for (b, doc) in [
            (BuiltinDtd::Play, play(500)),
            (BuiltinDtd::XhtmlBasic, xhtml(500)),
            (BuiltinDtd::TeiLite, tei(500)),
            (BuiltinDtd::DocbookArticle, docbook_article(500)),
            (BuiltinDtd::TeiDrama, tei_drama(500)),
        ] {
            let analysis = b.analysis();
            validate_document(&doc, &analysis.dtd, analysis.root)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        }
    }

    #[test]
    fn corpora_scale() {
        for target in [50usize, 500, 5000] {
            let doc = play(target);
            let count = doc.element_count();
            assert!(
                count >= target && count < target + 40,
                "target {target} produced {count}"
            );
        }
    }

    #[test]
    fn for_builtin_covers_realistic_dtds() {
        assert!(for_builtin(BuiltinDtd::Play, 100).is_some());
        assert!(for_builtin(BuiltinDtd::Figure1, 100).is_none());
    }

    #[test]
    fn repetitive_corpus_is_pv_deterministic_and_shape_controlled() {
        use pv_core::{CheckEngine, Tokens};
        let analysis = repetitive_analysis();
        let checker = CheckEngine::new(analysis.clone());
        for distinct in [1usize, 7, 64, usize::MAX] {
            let doc = repetitive(2_000, distinct);
            let again = repetitive(2_000, distinct);
            assert_eq!(doc.to_xml(), again.to_xml(), "distinct={distinct}");
            let count = doc.element_count();
            assert!(
                (1_900..2_100).contains(&count),
                "distinct={distinct}: {count} elements"
            );
            assert!(
                checker.check_document(&doc).is_potentially_valid(),
                "distinct={distinct}"
            );
        }
        // The distinct non-empty `(element, child sequence)` shapes of a
        // document (childless leaves have none).
        let shapes = |doc: &Document| {
            let mut seen = std::collections::HashSet::new();
            for node in doc.elements() {
                let syms = Tokens::children(doc, node, &analysis.dtd).unwrap();
                if !syms.is_empty() {
                    seen.insert((doc.name(node).unwrap().to_owned(), syms));
                }
            }
            seen.len()
        };
        // Shape-count control: exactly `distinct` s-shapes (+1 for the
        // root's own child sequence).
        assert_eq!(shapes(&repetitive(2_000, 7)), 8);
        // All-distinct: every block its own shape.
        let blocks = (2_000 - 1) / (REPETITIVE_WIDTH + 1);
        assert_eq!(shapes(&repetitive(2_000, usize::MAX)), blocks + 1);
    }

    #[test]
    fn batch_is_deterministic_valid_and_jittered() {
        let docs = batch(BuiltinDtd::Play, 8, 200).unwrap();
        assert_eq!(docs.len(), 8);
        let again = batch(BuiltinDtd::Play, 8, 200).unwrap();
        let sizes: Vec<usize> = docs.iter().map(|d| d.element_count()).collect();
        assert_eq!(sizes, again.iter().map(|d| d.element_count()).collect::<Vec<_>>());
        // Jitter actually varies sizes within [target/2, 3*target/2).
        assert!(sizes.iter().any(|&s| s != sizes[0]), "{sizes:?}");
        assert!(sizes.iter().all(|s| (100..340).contains(s)), "{sizes:?}");
        // The jitter window is centred on the target: both halves occur
        // (bounds leave headroom for the generator's block overshoot).
        assert!(sizes.iter().any(|&s| s < 150), "{sizes:?}");
        assert!(sizes.iter().any(|&s| s >= 200), "{sizes:?}");
        let analysis = BuiltinDtd::Play.analysis();
        for d in &docs {
            validate_document(d, &analysis.dtd, analysis.root).unwrap();
        }
        assert!(batch(BuiltinDtd::Figure1, 3, 100).is_none());
    }
}
