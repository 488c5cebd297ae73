//! Property-based tests (proptest) for the paper's theorems and the
//! substrate invariants.

use proptest::prelude::*;
use potential_validity::prelude::*;
use pv_core::depth::DepthPolicy;
use pv_grammar::ecfg::{Grammar, GrammarMode};
use pv_grammar::validator::validate_document;
use pv_workload::docgen::DocGen;
use pv_workload::dtdgen::{DtdGen, DtdGenParams};
use pv_workload::mutate::Mutator;

fn class_strategy() -> impl Strategy<Value = DtdClass> {
    prop_oneof![
        Just(DtdClass::NonRecursive),
        Just(DtdClass::PvWeakRecursive),
        Just(DtdClass::PvStrongRecursive),
    ]
}

fn make_analysis(class: DtdClass, seed: u64) -> DtdAnalysis {
    DtdGen::new(seed, DtdGenParams { class, elements: 6, ..Default::default() }).generate()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Valid documents are potentially valid (Definition 3, trivially).
    #[test]
    fn valid_implies_potentially_valid(class in class_strategy(), seed in 0u64..5000) {
        let analysis = make_analysis(class, seed);
        let doc = DocGen::new(&analysis, seed).generate(25);
        validate_document(&doc, &analysis.dtd, analysis.root).unwrap();
        let checker = PvChecker::new(&analysis);
        prop_assert!(checker.check_document(&doc).is_potentially_valid());
    }

    /// Theorem 2: markup deletion preserves potential validity.
    #[test]
    fn theorem2_deletion_closure(class in class_strategy(), seed in 0u64..5000, dels in 1usize..12) {
        let analysis = make_analysis(class, seed);
        let mut doc = DocGen::new(&analysis, seed).generate(25);
        let checker = PvChecker::new(&analysis);
        // Delete one at a time; PV must hold after EVERY deletion.
        for _ in 0..dels {
            if Mutator::new(seed).delete_random_markup(&mut doc, 1) == 0 {
                break;
            }
            prop_assert!(
                checker.check_document(&doc).is_potentially_valid(),
                "deletion broke PV:\n{}\n{}", analysis.dtd, doc.to_xml()
            );
        }
    }

    /// Theorem 2: character-data updates preserve potential validity.
    #[test]
    fn theorem2_text_update_closure(class in class_strategy(), seed in 0u64..5000, new_text in ".{0,30}") {
        let analysis = make_analysis(class, seed);
        let mut doc = DocGen::new(&analysis, seed).generate(25);
        Mutator::new(seed).delete_random_markup(&mut doc, 5);
        let checker = PvChecker::new(&analysis);
        prop_assume!(checker.check_document(&doc).is_potentially_valid());
        // Update every text node to the arbitrary new content.
        let texts: Vec<NodeId> = doc
            .descendants(doc.root())
            .filter(|&n| doc.text(n).is_some())
            .collect();
        for t in texts {
            doc.update_text(t, &new_text).unwrap();
        }
        prop_assert!(checker.check_document(&doc).is_potentially_valid());
    }

    /// Theorem 3: every nonterminal of G' is nullable for usable DTDs.
    #[test]
    fn theorem3_nullability(class in class_strategy(), seed in 0u64..5000) {
        let analysis = make_analysis(class, seed);
        let g = Grammar::new(&analysis.dtd, analysis.root, GrammarMode::PotentialValidity);
        for id in analysis.dtd.ids() {
            prop_assert!(g.is_nullable(id), "{} not nullable\n{}", analysis.name(id), analysis.dtd);
        }
    }

    /// Proposition 3: the O(1) text-insertion guard agrees with a full
    /// document re-check after actually inserting text, at any child
    /// position.
    #[test]
    fn proposition3_text_insertion_guard_is_exact(
        class in class_strategy(),
        seed in 0u64..5000,
        pick in 0usize..50,
        at in 0usize..50,
    ) {
        let analysis = make_analysis(class, seed);
        let mut doc = DocGen::new(&analysis, seed).generate(20);
        Mutator::new(seed).delete_random_markup(&mut doc, 4);
        let checker = PvChecker::new(&analysis);
        prop_assume!(checker.check_document(&doc).is_potentially_valid());
        let elements: Vec<NodeId> = doc.elements().collect();
        let target = elements[pick % elements.len()];
        let index = at % (doc.children(target).len() + 1);
        let guard_says = checker.check_text_insertion_at(&doc, target, index).preserves_pv();
        // Apply for real and re-check from scratch.
        doc.insert_text(target, index, "inserted!").unwrap();
        let recheck = checker.check_document(&doc).is_potentially_valid();
        prop_assert_eq!(guard_says, recheck,
            "guard={} recheck={} elem={} index={}\n{}\n{}",
            guard_says, recheck,
            doc.name(target).unwrap_or("?"), index, analysis.dtd, doc.to_xml());
    }

    /// Corollary 3.1 + Proposition 1: normalization does not change the
    /// recognized PV language. Checked two ways: (a) the PV-normalized
    /// models of a DTD and of its textual `?`-dropped/`+→*` rewrite are
    /// identical; (b) both compiled DTDs make identical PV decisions.
    ///
    /// Note the rewrite may destroy *usability* of the rewritten DTD as a
    /// validity grammar (e.g. `a → (x, a?)` becomes the unusable
    /// `a → (x, a)`), which is fine: the corollary lives at the PV level
    /// where the recognizer's skip rule (justified by Theorem 3 on the
    /// ORIGINAL DTD) is built in — hence `new_unchecked` below.
    #[test]
    fn normalization_invariance(class in class_strategy(), seed in 0u64..5000) {
        let analysis = make_analysis(class, seed);
        let rewritten = analysis
            .dtd
            .to_dtd_string()
            .replace('?', "")
            .replace('+', "*");
        let dtd2 = Dtd::parse(&rewritten).unwrap();
        let root2 = dtd2.id("e0").unwrap();
        let analysis2 = DtdAnalysis::new_unchecked(dtd2, root2);
        prop_assert_eq!(&analysis.norm.models, &analysis2.norm.models);

        // And both checkers agree on concrete documents.
        let mut doc = DocGen::new(&analysis, seed).generate(20);
        Mutator::new(seed).delete_random_markup(&mut doc, 6);
        let c1 = PvChecker::with_policy(&analysis, DepthPolicy::Bounded(32));
        let c2 = PvChecker::with_policy(&analysis2, DepthPolicy::Bounded(32));
        prop_assert_eq!(
            c1.check_document(&doc).is_potentially_valid(),
            c2.check_document(&doc).is_potentially_valid()
        );
    }

    /// The XML layer round-trips the token view: parse(serialize(d)) has
    /// the same δ tokens as d.
    #[test]
    fn xml_roundtrip_preserves_tokens(class in class_strategy(), seed in 0u64..5000) {
        let analysis = make_analysis(class, seed);
        let mut doc = DocGen::new(&analysis, seed).generate(25);
        Mutator::new(seed).delete_random_markup(&mut doc, 5);
        let xml = doc.to_xml();
        let back = pv_xml::parse(&xml).unwrap();
        let t1 = Tokens::delta(&doc, doc.root(), &analysis.dtd).unwrap();
        let t2 = Tokens::delta(&back, back.root(), &analysis.dtd).unwrap();
        prop_assert_eq!(t1, t2, "roundtrip changed tokens: {}", xml);
    }

    /// Wrapping then unwrapping any child range is a structural no-op.
    #[test]
    fn wrap_unwrap_is_identity(seed in 0u64..5000, a in 0usize..8, b in 0usize..8) {
        let analysis = make_analysis(DtdClass::NonRecursive, seed);
        let mut doc = DocGen::new(&analysis, seed).generate(20);
        let before = doc.to_xml();
        let root = doc.root();
        let n = doc.children(root).len();
        let (lo, hi) = (a.min(b) % (n + 1), a.max(b) % (n + 1));
        let wrapper = doc.wrap_children(root, lo..hi.max(lo), "e0").unwrap();
        doc.unwrap_element(wrapper).unwrap();
        prop_assert_eq!(doc.to_xml(), before);
        doc.check_integrity().unwrap();
    }

    /// The two independent content matchers (NFA subset simulation and
    /// Brzozowski derivatives) agree on random DTDs and child sequences.
    #[test]
    fn derivative_matcher_agrees_with_nfa(
        class in class_strategy(),
        seed in 0u64..5000,
        picks in prop::collection::vec((0usize..8, 0usize..7), 0..6),
    ) {
        use pv_grammar::derivative::accepts_content_derivative;
        use pv_grammar::validator::accepts_content;
        let analysis = make_analysis(class, seed);
        let m = analysis.dtd.len();
        for elem in analysis.dtd.ids() {
            let seq: Vec<ChildSym> = picks
                .iter()
                .map(|&(kind, which)| {
                    if kind == 0 {
                        ChildSym::Sigma
                    } else {
                        ChildSym::Elem(pv_dtd::ElemId((which % m) as u32))
                    }
                })
                .collect();
            let nfa = accepts_content(&analysis.dtd, elem, &seq).is_ok();
            let der = accepts_content_derivative(&analysis.dtd, elem, &seq);
            prop_assert_eq!(nfa, der, "<{}> on {:?}\n{}", analysis.name(elem), seq, analysis.dtd);
        }
    }

    /// Every `expected_next` suggestion keeps the content potentially
    /// valid, and every element symbol it omits really is hopeless.
    #[test]
    fn suggestions_sound_and_complete(class in class_strategy(), seed in 0u64..5000, pick in 0usize..32) {
        use pv_core::recognizer::RecognizerStats;
        use pv_core::suggest::expected_next_for_node;
        let analysis = make_analysis(class, seed);
        let mut doc = DocGen::new(&analysis, seed).generate(15);
        Mutator::new(seed).delete_random_markup(&mut doc, 4);
        let checker = PvChecker::new(&analysis);
        prop_assume!(checker.check_document(&doc).is_potentially_valid());
        let elements: Vec<NodeId> = doc.elements().collect();
        let node = elements[pick % elements.len()];
        let elem = analysis.id(doc.name(node).unwrap()).unwrap();
        let prefix = Tokens::children(&doc, node, &analysis.dtd).unwrap();
        let suggested = expected_next_for_node(&checker, &doc, node).unwrap();
        for cand in analysis.dtd.ids().map(ChildSym::Elem).chain([ChildSym::Sigma]) {
            if cand == ChildSym::Sigma && prefix.last() == Some(&ChildSym::Sigma) {
                continue;
            }
            let mut seq = prefix.clone();
            seq.push(cand);
            let mut stats = RecognizerStats::default();
            let accepted = checker.check_symbols(elem, &seq, &mut stats).is_none();
            prop_assert_eq!(
                suggested.contains(&cand),
                accepted,
                "candidate {} under <{}> after {:?}",
                cand.display(&analysis.dtd), analysis.name(elem), prefix
            );
        }
    }

    /// The editor session never reaches a non-PV state, no matter what
    /// operations are thrown at it.
    #[test]
    fn editor_invariant_under_random_ops(
        seed in 0u64..5000,
        ops in prop::collection::vec((0u8..5, 0usize..64, 0usize..64), 1..24),
    ) {
        let analysis = make_analysis(DtdClass::PvWeakRecursive, seed);
        let doc = DocGen::new(&analysis, seed).generate(15);
        let mut session = match pv_editor::EditorSession::open(&analysis, doc) {
            Ok(s) => s,
            Err(_) => return Ok(()),
        };
        let names: Vec<String> =
            analysis.dtd.iter().map(|(_, d)| d.name.to_string()).collect();
        for (op, x, y) in ops {
            let elements: Vec<NodeId> = session.document().elements().collect();
            let node = elements[x % elements.len()];
            let kid_count = session.document().children(node).len();
            match op {
                0 => {
                    let lo = y % (kid_count + 1);
                    let hi = (x % (kid_count + 1)).max(lo);
                    let _ = session.insert_markup(node, lo..hi, &names[y % names.len()]);
                }
                1 => {
                    let _ = session.insert_text(node, y % (kid_count + 1), "txt");
                }
                2 => {
                    if node != session.document().root() {
                        let _ = session.delete_markup(node);
                    }
                }
                3 => {
                    let _ = session.rename(node, &names[y % names.len()]);
                }
                _ => {
                    let _ = session.undo();
                }
            }
            prop_assert!(session.verify_invariant(), "invariant lost\n{}", session.document().to_xml());
        }
    }
}
