//! End-to-end reproduction of every worked artifact in the paper,
//! cross-checked by all engines (ECRecognizer, Earley on G', standard
//! validator, brute-force oracle, witness construction).
//!
//! Index (the artifacts of `experiments --table examples`): F1 Figure 1
//! DTD · F2/E1/E2 Examples 1–2 with Figure 2 DOM trees and Figure 3
//! completion · F4 Figure 4 DAGs · F5/F6 recognizer traces · E5/F7
//! Example 5 (T1) · E6 Example 6 (T2).

use potential_validity::prelude::*;
use pv_core::dag::DagSet;
use pv_core::depth::DepthPolicy;
use pv_grammar::ecfg::{Grammar, GrammarMode};
use pv_grammar::earley::EarleyRecognizer;
use pv_grammar::naive::naive_pv;
use pv_grammar::validator::validate_tokens;

const W: &str = "<r><a><b>A quick brown</b><e></e><c> fox jumps over a lazy</c> dog</a></r>";
const S: &str = "<r><a><b>A quick brown</b><c> fox jumps over a lazy</c> dog<e></e></a></r>";
/// Figure 3 / Example 2: the completed valid extension of s.
const COMPLETED: &str =
    "<r><a><b><d>A quick brown</d></b><c> fox jumps over a lazy</c><d> dog<e></e></d></a></r>";

fn engines_agree(analysis: &DtdAnalysis, xml: &str) -> bool {
    let doc = pv_xml::parse(xml).unwrap();
    let checker = CheckEngine::new(analysis.clone());
    let rec = checker.check_document(&doc).is_potentially_valid();
    let toks = Tokens::delta(&doc, doc.root(), &analysis.dtd).unwrap();
    let g = Grammar::new(&analysis.dtd, analysis.root, GrammarMode::PotentialValidity);
    let ear = EarleyRecognizer::new(&g).accepts(&toks);
    assert_eq!(rec, ear, "engines disagree on {xml}");
    let witness = complete_tokens(&toks, &analysis.dtd, analysis.root);
    assert_eq!(rec, witness.is_some(), "witness existence disagrees on {xml}");
    rec
}

#[test]
fn f1_figure1_dtd_parses_with_expected_structure() {
    let analysis = BuiltinDtd::Figure1.analysis();
    assert_eq!(analysis.stats.m, 7);
    assert_eq!(analysis.rec.class, DtdClass::NonRecursive);
    assert_eq!(analysis.dtd.model_to_string(analysis.id("a").unwrap()), "(b?, (c | f), d)");
}

#[test]
fn e1_example1_string_w_not_potentially_valid() {
    let analysis = BuiltinDtd::Figure1.analysis();
    assert!(!engines_agree(&analysis, W));
    // The paper's diagnosis: the order of <c> and <e> contradicts the DTD.
    let doc = pv_xml::parse(W).unwrap();
    let out = CheckEngine::new(analysis.clone()).check_document(&doc);
    let v = out.violation.unwrap();
    match v.kind {
        pv_core::checker::PvViolationKind::ContentRejected { symbol, index } => {
            assert_eq!(symbol, "<c>");
            assert_eq!(index, 2, "rejection at the third child (b, e, *c*)");
        }
        other => panic!("unexpected violation {other:?}"),
    }
}

#[test]
fn e1_example1_string_s_potentially_valid() {
    let analysis = BuiltinDtd::Figure1.analysis();
    assert!(engines_agree(&analysis, S));
}

#[test]
fn e2_example2_completion_is_valid_and_minimal() {
    let analysis = BuiltinDtd::Figure1.analysis();
    // The paper's completed encoding is valid.
    let comp = pv_xml::parse(COMPLETED).unwrap();
    validate_document(&comp, &analysis.dtd, analysis.root).unwrap();

    // Our witness for s inserts exactly the two <d> elements of Figure 3.
    let s = pv_xml::parse(S).unwrap();
    let toks = Tokens::delta(&s, s.root(), &analysis.dtd).unwrap();
    let w = complete_tokens(&toks, &analysis.dtd, analysis.root).unwrap();
    assert_eq!(w.inserted_count(), 2);
    assert!(validate_tokens(&w.tokens(), &analysis.dtd, analysis.root));
    // And it matches the token structure of the paper's completion.
    let expected = Tokens::delta(&comp, comp.root(), &analysis.dtd).unwrap();
    assert_eq!(w.tokens(), expected, "witness should equal Figure 3's completion");
}

#[test]
fn e2_brute_force_confirms_two_insertions() {
    let analysis = BuiltinDtd::Figure1.analysis();
    let s = pv_xml::parse(S).unwrap();
    let toks = Tokens::delta(&s, s.root(), &analysis.dtd).unwrap();
    assert!(!naive_pv(&toks, &analysis.dtd, analysis.root, 1), "one insertion cannot fix s");
    assert!(naive_pv(&toks, &analysis.dtd, analysis.root, 2), "two insertions fix s");
    let w = pv_xml::parse(W).unwrap();
    let wtoks = Tokens::delta(&w, w.root(), &analysis.dtd).unwrap();
    assert!(!naive_pv(&wtoks, &analysis.dtd, analysis.root, 2), "w is beyond repair");
}

#[test]
fn f4_figure4_dag_shapes() {
    let analysis = BuiltinDtd::Figure1.analysis();
    let dags = DagSet::new(&analysis);
    // DAG_a: paths a→b→c→d and a→b→f→d (4 nodes).
    let a = dags.dag(analysis.id("a").unwrap());
    assert_eq!(a.len(), 4);
    assert_eq!(a.starts.len(), 1);
    // DAG_d: single star-group node [#PCDATA, e].
    let d = dags.dag(analysis.id("d").unwrap());
    assert_eq!(d.len(), 1);
    assert!(matches!(
        &d.node(0).kind,
        pv_core::dag::DagNodeKind::Group(g) if g.pcdata && g.elems.len() == 1
    ));
}

#[test]
fn f6_recognizer_trace_semantics() {
    // Figure 6: on w's children (b, e, c, σ) the recognizer spawns nested
    // recognizers for d and f while hunting e, then rejects at c; on s's
    // children (b, c, σ, e) every symbol matches.
    let analysis = BuiltinDtd::Figure1.analysis();
    let checker = CheckEngine::new(analysis.clone());
    let doc_w = pv_xml::parse(W).unwrap();
    let out_w = checker.check_document(&doc_w);
    assert!(!out_w.is_potentially_valid());
    assert!(out_w.stats.subs_created >= 2, "Figure 6(A) steps 3-4 create d/f recognizers");
    let doc_s = pv_xml::parse(S).unwrap();
    let out_s = checker.check_document(&doc_s);
    assert!(out_s.is_potentially_valid());
}

#[test]
fn e5_example5_t1_strong_recursion() {
    let t1 = BuiltinDtd::T1.analysis();
    assert_eq!(t1.rec.class, DtdClass::PvStrongRecursive);
    // <a><b/><b/></a> is plainly valid (b* branch) and must be accepted at
    // every depth bound — Figure 7's loop is purely an algorithmic hazard.
    let doc = pv_xml::parse("<a><b/><b/></a>").unwrap();
    validate_document(&doc, &t1.dtd, t1.root).unwrap();
    for d in [0u32, 1, 4, 64] {
        let checker = CheckEngine::with_policy(t1.clone(), DepthPolicy::Bounded(d));
        assert!(checker.check_document(&doc).is_potentially_valid(), "depth {d}");
    }
}

#[test]
fn e6_example6_t2_needs_recursive_step() {
    let t2 = BuiltinDtd::T2.analysis();
    assert_eq!(t2.rec.class, DtdClass::PvStrongRecursive);
    // The paper's instance: <a><b/><b/></a>, obtained from
    // <a><a><b/><b/></a><b/></a>… — here the direct (b, b) parse works
    // too, so probe the 3-b variant where "taking one recursive step is
    // absolutely necessary".
    let doc = pv_xml::parse("<a><b/><b/><b/></a>").unwrap();
    let c0 = CheckEngine::with_policy(t2.clone(), DepthPolicy::Bounded(0));
    assert!(!c0.check_document(&doc).is_potentially_valid());
    let c1 = CheckEngine::with_policy(t2.clone(), DepthPolicy::Bounded(1));
    assert!(c1.check_document(&doc).is_potentially_valid());
    // The paper's own completed form for the 2-b case is valid:
    let completed = pv_xml::parse("<a><a><b/><b/></a><b/></a>").unwrap();
    validate_document(&completed, &t2.dtd, t2.root).unwrap();
}

#[test]
fn section31_delta_operator_example() {
    // δ_T(<a><b>A quick brown</b>…) = <a><b>σ</b><c>σ</c><d>σ<e></e></d></a>
    let analysis = BuiltinDtd::Figure1.analysis();
    let doc = pv_xml::parse(
        "<r><a><b>A quick brown</b><c> fox jumps over a lazy</c><d> dog<e></e></d></a></r>",
    )
    .unwrap();
    let a = doc.children(doc.root())[0];
    let toks = Tokens::delta(&doc, a, &analysis.dtd).unwrap();
    assert_eq!(
        Tokens::render(&toks, &analysis.dtd),
        "<a><b>σ</b><c>σ</c><d>σ<e></e></d></a>"
    );
}

#[test]
fn section4_delta_children_example() {
    // Δ_T(w) for the string w: children of <a> are b, e, c, σ.
    let analysis = BuiltinDtd::Figure1.analysis();
    let doc = pv_xml::parse(W).unwrap();
    let a = doc.children(doc.root())[0];
    let syms = Tokens::children(&doc, a, &analysis.dtd).unwrap();
    let rendered: Vec<String> = syms.iter().map(|s| s.display(&analysis.dtd)).collect();
    assert_eq!(rendered, ["<b>", "<e>", "<c>", "σ"]);
}

#[test]
fn definition7_trivial_strong_example() {
    // <!ELEMENT a ((a | c), b*)> — the paper's "trivial example of a
    // strong recursive element".
    let dtd = "<!ELEMENT a ((a | c), b*)><!ELEMENT b EMPTY><!ELEMENT c EMPTY>";
    let analysis = DtdAnalysis::parse(dtd, "a").unwrap();
    assert_eq!(analysis.rec.class, DtdClass::PvStrongRecursive);
    assert!(analysis.rec.is_strong(analysis.id("a").unwrap()));
}

#[test]
fn definition4_star_group_example() {
    // r_x = (a, (b* | (c, d*, e)*)): star-groups are b* and (c,d*,e)*;
    // d* is not one (it is inside another star-group).
    let dtd = "<!ELEMENT x (a, (b* | (c, d*, e)*))><!ELEMENT a EMPTY><!ELEMENT b EMPTY>
               <!ELEMENT c EMPTY><!ELEMENT d EMPTY><!ELEMENT e EMPTY>";
    let analysis = DtdAnalysis::parse(dtd, "x").unwrap();
    let x = analysis.id("x").unwrap();
    let pv_dtd::NormModel::Expr(e) = analysis.norm.model(x) else { panic!() };
    let mut atoms = Vec::new();
    e.atoms(&mut atoms);
    let groups: Vec<usize> = atoms
        .iter()
        .filter_map(|a| match a {
            pv_dtd::Atom::Group(g) => Some(g.elems.len()),
            _ => None,
        })
        .collect();
    assert_eq!(groups, vec![1, 3], "exactly the groups {{b}} and {{c,d,e}}");
}
