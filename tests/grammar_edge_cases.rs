//! Edge-case regressions across the grammar machinery and the recognizer:
//! deep ε-chains, mutual recursion, ANY content, pathological nesting —
//! the corners where Earley implementations and greedy recognizers
//! classically go wrong.

use potential_validity::prelude::*;
use pv_core::depth::DepthPolicy;
use pv_grammar::ecfg::{Grammar, GrammarMode};
use pv_grammar::earley::EarleyRecognizer;

fn both(analysis: &DtdAnalysis, xml: &str, depth: DepthPolicy) -> (bool, bool) {
    let doc = pv_xml::parse(xml).unwrap();
    let rec = CheckEngine::with_policy(analysis.clone(), depth)
        .check_document(&doc)
        .is_potentially_valid();
    let g = Grammar::new(&analysis.dtd, analysis.root, GrammarMode::PotentialValidity);
    let toks = Tokens::delta(&doc, doc.root(), &analysis.dtd).unwrap();
    let ear = EarleyRecognizer::new(&g).accepts(&toks);
    (rec, ear)
}

fn agree(analysis: &DtdAnalysis, xml: &str, expected: bool) {
    let (rec, ear) = both(analysis, xml, DepthPolicy::Bounded(64));
    assert_eq!(rec, expected, "recognizer on {xml}");
    assert_eq!(ear, expected, "earley on {xml}");
}

#[test]
fn deep_epsilon_chain() {
    // 30-element chain where everything must be elided to accept <e0/>.
    let mut src = String::new();
    for i in 0..30 {
        if i + 1 < 30 {
            src.push_str(&format!("<!ELEMENT e{i} (e{})>", i + 1));
        } else {
            src.push_str(&format!("<!ELEMENT e{i} (#PCDATA)>"));
        }
    }
    let analysis = DtdAnalysis::parse(&src, "e0").unwrap();
    agree(&analysis, "<e0/>", true);
    // Text at the bottom requires 29 elisions — within the 64 budget.
    agree(&analysis, "<e0>deep text</e0>", true);
    // …but not within a tight one.
    let doc = pv_xml::parse("<e0>deep text</e0>").unwrap();
    let tight = CheckEngine::with_policy(analysis.clone(), DepthPolicy::Bounded(10));
    assert!(!tight.check_document(&doc).is_potentially_valid());
}

#[test]
fn mutual_recursion_even_odd() {
    // even → (odd?), odd → (even): nesting alternates; only even-rooted
    // chains of the right parity are valid, but *any* elision-completable
    // prefix is potentially valid.
    let src = "<!ELEMENT even (odd?)><!ELEMENT odd (even)>";
    let analysis = DtdAnalysis::parse(src, "even").unwrap();
    agree(&analysis, "<even/>", true);
    agree(&analysis, "<even><odd><even/></odd></even>", true);
    // odd directly inside odd is fixable: an elided even sits between them
    // (odd → (even), even → (odd?)).
    agree(&analysis, "<even><odd><odd/></odd></even>", true);
    // A hard violation needs the root: odd is not the root element.
    let doc = pv_xml::parse("<odd><even/></odd>").unwrap();
    assert!(!CheckEngine::new(analysis.clone()).check_document(&doc).is_potentially_valid());
}

#[test]
fn any_content_sandwich() {
    // ANY in the middle of a strict structure.
    let src = "<!ELEMENT r (a, x, b)><!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT x ANY>";
    let analysis = DtdAnalysis::parse(src, "r").unwrap();
    agree(&analysis, "<r><a/><x><b/><a/><x/>text</x><b/></r>", true);
    // Even b before a is fixable: wrap BOTH in the ANY-element x, then
    // insert <a/> before and <b/> after — ANY swallows everything.
    agree(&analysis, "<r><b/><a/></r>", true);
    // a, b alone: x is mandatory but nullable under PV (ANY derives ε).
    agree(&analysis, "<r><a/><b/></r>", true);
    // ANY makes nearly everything potentially valid: any child run can be
    // wrapped wholesale in x and the strict a/b slots filled by insertion.
    agree(&analysis, "<r><a/><a/><b/><b/><a/></r>", true);
}

#[test]
fn wide_flat_content() {
    // A single node with hundreds of children under a star-group.
    let analysis = BuiltinDtd::Figure1.analysis();
    let body = "<b/>".repeat(200).replace("<b/>", "<a><c>x</c><d/></a>");
    let xml = format!("<r>{body}</r>");
    agree(&analysis, &xml, true);
}

#[test]
fn alternating_sigma_elements() {
    let analysis = BuiltinDtd::Figure1.analysis();
    // d is mixed: σ e σ e σ … freely.
    let inner = "text<e/>".repeat(50);
    let xml = format!("<r><a><c>x</c><d>{inner}</d></a></r>");
    agree(&analysis, &xml, true);
}

#[test]
fn empty_choice_branches_and_nested_groups() {
    let src = "<!ELEMENT r ((a | (b, c)) , (c | a)?)>
               <!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY>";
    let analysis = DtdAnalysis::parse(src, "r").unwrap();
    agree(&analysis, "<r><a/></r>", true);
    agree(&analysis, "<r><b/><c/><a/></r>", true);
    agree(&analysis, "<r><a/><a/></r>", true);
    agree(&analysis, "<r><c/><b/></r>", false); // c alone can't start (b,c)
    agree(&analysis, "<r><a/><a/><a/></r>", false); // at most two a's
}

#[test]
fn self_loop_star_absorbs_unbounded_width() {
    // a → (a)*: weak recursion; arbitrarily many a-children, any depth.
    let analysis = DtdAnalysis::parse("<!ELEMENT a (a*)>", "a").unwrap();
    assert_eq!(analysis.rec.class, DtdClass::PvWeakRecursive);
    let wide = format!("<a>{}</a>", "<a/>".repeat(300));
    agree(&analysis, &wide, true);
    let deep = format!("{}{}", "<a>".repeat(120), "</a>".repeat(120));
    agree(&analysis, &deep, true);
}

#[test]
fn strong_self_loop_depth_semantics() {
    // a → (a?, b): each level has one optional nested a then a mandatory b.
    let src = "<!ELEMENT a (a?, b)><!ELEMENT b EMPTY>";
    let analysis = DtdAnalysis::parse(src, "a").unwrap();
    assert_eq!(analysis.rec.class, DtdClass::PvStrongRecursive);
    // n b-children need n-1 elided a's.
    for n in 1..6usize {
        let xml = format!("<a>{}</a>", "<b/>".repeat(n));
        let doc = pv_xml::parse(&xml).unwrap();
        let exact = CheckEngine::with_policy(analysis.clone(), DepthPolicy::Bounded(n as u32 - 1));
        assert!(exact.check_document(&doc).is_potentially_valid(), "n={n}");
        if n >= 2 {
            let under = CheckEngine::with_policy(analysis.clone(), DepthPolicy::Bounded(n as u32 - 2));
            assert!(!under.check_document(&doc).is_potentially_valid(), "n={n} under-budget");
        }
        // Earley agrees without any bound.
        let g = Grammar::new(&analysis.dtd, analysis.root, GrammarMode::PotentialValidity);
        let toks = Tokens::delta(&doc, doc.root(), &analysis.dtd).unwrap();
        assert!(EarleyRecognizer::new(&g).accepts(&toks), "earley n={n}");
    }
}

#[test]
fn sigma_runs_never_double() {
    // Two text nodes around a comment are one σ; (#PCDATA) accepts it.
    let analysis =
        DtdAnalysis::parse("<!ELEMENT p (#PCDATA)>", "p").unwrap();
    agree(&analysis, "<p>one<!-- x -->two</p>", true);
}

#[test]
fn unicode_names_and_content() {
    let src = "<!ELEMENT livre (titre)><!ELEMENT titre (#PCDATA)>";
    let analysis = DtdAnalysis::parse(src, "livre").unwrap();
    agree(&analysis, "<livre><titre>Vingt mille lieues — 🌊</titre></livre>", true);
    agree(&analysis, "<livre>Père Goriot</livre>", true); // titre elidable around σ
}
