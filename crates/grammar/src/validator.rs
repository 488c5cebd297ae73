//! Standard DTD validation: is `δ_T(w) ∈ L(G_{T,r})`? (paper Section 3.1).
//!
//! Validity is checked node-locally — each element's child sequence against
//! its content model via NFA subset simulation — which is equivalent to the
//! global grammar membership but linear and diagnostic-friendly.
//!
//! Faithful to the paper's formalization, **any** non-empty character data
//! counts as `σ`: whitespace between elements in `children` content makes a
//! document invalid (the paper's `δ_T` has no "ignorable whitespace"
//! notion). [`ValidateOptions::ignore_whitespace`] relaxes this for
//! real-world documents.
//!
//! The module also provides the XML 1-unambiguity ("deterministic content
//! model") diagnostic: the paper's machinery never requires deterministic
//! models, which is worth surfacing because real DTDs must be
//! deterministic per XML appendix E.

use crate::ecfg::{Edge, Grammar, GrammarMode};
use pv_core::token::ChildSym;
use pv_dtd::{ContentSpec, Dtd, ElemId};
use pv_xml::{Document, NodeId};
use std::fmt;

/// Why a document is not valid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidityViolation {
    /// Root element differs from `r`.
    RootMismatch {
        /// Found root name.
        found: String,
        /// Expected root name.
        expected: String,
    },
    /// Undeclared element in the document.
    UndeclaredElement {
        /// The tag name.
        name: String,
    },
    /// A node's children do not match its content model.
    ContentMismatch {
        /// The element whose content failed.
        elem: String,
        /// The node id.
        node: NodeId,
        /// Index of the offending child symbol (`children.len()` when the
        /// sequence ended prematurely).
        index: usize,
    },
}

impl fmt::Display for ValidityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidityViolation::RootMismatch { found, expected } => {
                write!(f, "root <{found}> is not the DTD root <{expected}>")
            }
            ValidityViolation::UndeclaredElement { name } => {
                write!(f, "element <{name}> is not declared")
            }
            ValidityViolation::ContentMismatch { elem, node, index } => {
                write!(f, "content of <{elem}> at {node} fails its model at child #{index}")
            }
        }
    }
}

/// Options for [`validate_document`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ValidateOptions {
    /// Treat whitespace-only text in `children` content as ignorable
    /// (off by default — the paper's δ_T counts every non-empty run).
    pub ignore_whitespace: bool,
}

/// Validates a whole document against `dtd` with root element `root`.
pub fn validate_document(
    doc: &Document,
    dtd: &Dtd,
    root: ElemId,
) -> Result<(), ValidityViolation> {
    validate_document_with(doc, dtd, root, ValidateOptions::default())
}

/// Validates with explicit [`ValidateOptions`].
pub fn validate_document_with(
    doc: &Document,
    dtd: &Dtd,
    root: ElemId,
    options: ValidateOptions,
) -> Result<(), ValidityViolation> {
    let root_name = doc.name(doc.root()).unwrap_or("");
    if dtd.id(root_name) != Some(root) {
        return Err(ValidityViolation::RootMismatch {
            found: root_name.to_owned(),
            expected: dtd.name(root).to_owned(),
        });
    }
    for node in doc.elements() {
        let name = doc.name(node).unwrap_or("");
        let elem = dtd
            .id(name)
            .ok_or_else(|| ValidityViolation::UndeclaredElement { name: name.to_owned() })?;
        // The child sequence: element names, and one σ per maximal run of
        // non-empty text (comments and PIs do not end a run).
        let drop_sigma = options.ignore_whitespace
            && element_content_only(&dtd.element(elem).content)
            && sigma_run_is_whitespace(doc, node);
        let mut syms = Vec::new();
        for &c in doc.children(node) {
            if let Some(n) = doc.name(c) {
                let e = dtd.id(n).ok_or_else(|| ValidityViolation::UndeclaredElement {
                    name: n.to_owned(),
                })?;
                syms.push(ChildSym::Elem(e));
            } else if doc.text(c).is_some_and(|t| !t.is_empty())
                && !drop_sigma
                && syms.last() != Some(&ChildSym::Sigma)
            {
                syms.push(ChildSym::Sigma);
            }
        }
        if let Err(index) = accepts_content(dtd, elem, &syms) {
            return Err(ValidityViolation::ContentMismatch {
                elem: name.to_owned(),
                node,
                index,
            });
        }
    }
    Ok(())
}

fn element_content_only(spec: &ContentSpec) -> bool {
    matches!(spec, ContentSpec::Children(_) | ContentSpec::Empty)
}

/// Crude but sufficient: whitespace relaxation treats all σ runs of a node
/// alike; callers wanting precision should pre-strip whitespace text nodes.
fn sigma_run_is_whitespace(doc: &Document, node: NodeId) -> bool {
    doc.children(node).iter().all(|&c| match doc.text(c) {
        Some(t) => t.trim().is_empty(),
        None => true,
    })
}

/// Does `elem`'s content model accept exactly the child sequence `syms`?
/// Returns `Err(failure_index)` otherwise (`syms.len()` = premature end).
pub fn accepts_content(dtd: &Dtd, elem: ElemId, syms: &[ChildSym]) -> Result<(), usize> {
    match &dtd.element(elem).content {
        ContentSpec::Empty => {
            if syms.is_empty() {
                Ok(())
            } else {
                Err(0)
            }
        }
        ContentSpec::Any => Ok(()),
        ContentSpec::PcdataOnly => match syms {
            [] | [ChildSym::Sigma] => Ok(()),
            [ChildSym::Sigma, ..] => Err(1),
            _ => Err(0),
        },
        ContentSpec::Mixed(ids) => {
            for (i, s) in syms.iter().enumerate() {
                match s {
                    ChildSym::Sigma => {}
                    ChildSym::Elem(e) if ids.contains(e) => {}
                    _ => return Err(i),
                }
            }
            Ok(())
        }
        ContentSpec::Children(_) => simulate_children(dtd, elem, syms),
    }
}

/// NFA subset simulation of the `children` model over element symbols.
/// σ is always a mismatch in element content.
fn simulate_children(dtd: &Dtd, elem: ElemId, syms: &[ChildSym]) -> Result<(), usize> {
    // Build the content NFA once per call; cached validators use
    // `ContentAutomata` below.
    let automata = ContentAutomata::for_element(dtd, elem);
    automata.accepts(syms)
}

/// A compiled content automaton for one element (subset simulation over the
/// child alphabet), reusable across nodes.
pub struct ContentAutomata {
    nfa: crate::ecfg::Nfa,
}

impl ContentAutomata {
    /// Compiles the content model of `elem`.
    pub fn for_element(dtd: &Dtd, elem: ElemId) -> Self {
        // Reuse the grammar lowering: build a one-element grammar NFA and
        // strip the tag wrapper by simulating between c_in and c_out.
        // Simpler: lower the content directly through a tiny private NFA.
        let mut nfa = crate::ecfg::Nfa::new();
        let accept = nfa.add_state();
        nfa.accept = accept;
        crate::ecfg::lower_content(dtd, &dtd.element(elem).content, &mut nfa, 0, accept);
        ContentAutomata { nfa }
    }

    /// Runs the subset simulation. Calls (`Call(y)` edges) consume exactly
    /// the child symbol `y` — children are validated by their own nodes.
    pub fn accepts(&self, syms: &[ChildSym]) -> Result<(), usize> {
        let mut cur: Vec<u32> = vec![self.nfa.start];
        self.nfa.eps_closure(&mut cur);
        for (i, &sym) in syms.iter().enumerate() {
            let mut next: Vec<u32> = Vec::new();
            for &s in &cur {
                for &(label, t) in &self.nfa.states[s as usize] {
                    let matched = match (label, sym) {
                        (Edge::Call(y), ChildSym::Elem(e)) => y == e,
                        (Edge::Term(pv_core::token::Tok::Sigma), ChildSym::Sigma) => true,
                        _ => false,
                    };
                    if matched && !next.contains(&t) {
                        next.push(t);
                    }
                }
            }
            if next.is_empty() {
                return Err(i);
            }
            self.nfa.eps_closure(&mut next);
            cur = next;
        }
        if cur.contains(&self.nfa.accept) {
            Ok(())
        } else {
            Err(syms.len())
        }
    }

    /// XML "deterministic content model" (1-unambiguity) diagnostic on
    /// the *declared* model: `true` if no state set reachable in the
    /// determinized automaton has two edges for one symbol.
    pub fn is_deterministic(&self) -> bool {
        // A content model is 1-unambiguous iff its Glushkov automaton is
        // deterministic. Our Thompson NFA is not the Glushkov automaton,
        // but each of its non-ε edges stands for one position of the
        // model, so ambiguity is one symbol matched by two distinct edges
        // out of one ε-closed state set. Edges are told apart by
        // identity, not by their endpoints: a choice lowers every
        // alternative between the same two states, so the two `a`s of
        // `(a | a)` are two edges that join one pair of states.
        let mut start = vec![self.nfa.start];
        self.nfa.eps_closure(&mut start);
        let mut seen: Vec<Vec<u32>> = Vec::new();
        let mut work = vec![start];
        while let Some(cur) = work.pop() {
            if seen.contains(&cur) {
                continue;
            }
            // symbol key → the target of the one edge that matches it.
            let mut next: std::collections::HashMap<String, u32> =
                std::collections::HashMap::new();
            for &s in &cur {
                for &(label, t) in &self.nfa.states[s as usize] {
                    let key = match label {
                        Edge::Call(y) => format!("e{}", y.0),
                        Edge::Term(pv_core::token::Tok::Sigma) => "σ".to_owned(),
                        _ => continue,
                    };
                    if next.insert(key, t).is_some() {
                        return false;
                    }
                }
            }
            for t in next.into_values() {
                let mut set = vec![t];
                self.nfa.eps_closure(&mut set);
                set.sort_unstable();
                work.push(set);
            }
            seen.push(cur);
        }
        true
    }
}

/// Validates a δ token string directly against the grammar — used by the
/// witness machinery to check completed token strings without
/// reconstructing a document. O(n³) Earley in the worst case but exact.
pub fn validate_tokens(tokens: &[pv_core::token::Tok], dtd: &Dtd, root: ElemId) -> bool {
    let g = Grammar::new(dtd, root, GrammarMode::Validity);
    crate::earley::EarleyRecognizer::new(&g).accepts(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_dtd::builtin::BuiltinDtd;

    fn validate(b: BuiltinDtd, xml: &str) -> Result<(), ValidityViolation> {
        let dtd = b.dtd();
        let root = dtd.id(b.root()).unwrap();
        let doc = pv_xml::parse(xml).unwrap();
        validate_document(&doc, &dtd, root)
    }

    /// Figure 3's completed encoding — the paper's canonical valid document.
    const COMPLETED: &str =
        "<r><a><b><d>A quick brown</d></b><c> fox jumps over a lazy</c><d> dog<e></e></d></a></r>";

    #[test]
    fn figure3_completion_is_valid() {
        validate(BuiltinDtd::Figure1, COMPLETED).unwrap();
    }

    #[test]
    fn paper_s_is_invalid_but_potentially_valid() {
        // s lacks the <d> wrappers: invalid (but PV — checked in pv-core).
        let s = "<r><a><b>A quick brown</b><c> fox jumps over a lazy</c> dog<e></e></a></r>";
        assert!(validate(BuiltinDtd::Figure1, s).is_err());
    }

    #[test]
    fn root_mismatch() {
        assert!(matches!(
            validate(BuiltinDtd::Figure1, "<a/>"),
            Err(ValidityViolation::RootMismatch { .. })
        ));
    }

    #[test]
    fn undeclared_element() {
        assert!(matches!(
            validate(BuiltinDtd::Figure1, "<r><qq/></r>"),
            Err(ValidityViolation::UndeclaredElement { name }) if name == "qq"
        ));
    }

    #[test]
    fn empty_element_with_content_invalid() {
        let bad = COMPLETED.replace("<e></e>", "<e>boo</e>");
        assert!(matches!(
            validate(BuiltinDtd::Figure1, &bad),
            Err(ValidityViolation::ContentMismatch { elem, .. }) if elem == "e"
        ));
    }

    #[test]
    fn plus_needs_at_least_one() {
        assert!(matches!(
            validate(BuiltinDtd::Figure1, "<r></r>"),
            Err(ValidityViolation::ContentMismatch { elem, index: 0, .. }) if elem == "r"
        ));
    }

    #[test]
    fn whitespace_strictness_and_relaxation() {
        let spaced = "<r> <a><b><d>x</d></b><c>y</c><d>z</d></a> </r>";
        // Strict (paper semantics): whitespace σ under r violates (a+).
        assert!(validate(BuiltinDtd::Figure1, spaced).is_err());
        // Relaxed: accepted.
        let dtd = BuiltinDtd::Figure1.dtd();
        let root = dtd.id("r").unwrap();
        let doc = pv_xml::parse(spaced).unwrap();
        validate_document_with(
            &doc,
            &dtd,
            root,
            ValidateOptions { ignore_whitespace: true },
        )
        .unwrap();
    }

    #[test]
    fn mixed_content_validates() {
        let ok = "<r><a><b><d>one<e/>two</d></b><c>x</c><d/></a></r>";
        validate(BuiltinDtd::Figure1, ok).unwrap();
    }

    #[test]
    fn t1_examples() {
        // <a><b/><b/></a> is valid for T1 (b* branch).
        let dtd = BuiltinDtd::T1.dtd();
        let root = dtd.id("a").unwrap();
        let doc = pv_xml::parse("<a><b/><b/></a>").unwrap();
        validate_document(&doc, &dtd, root).unwrap();
        // Example 6's completed T2 instance: <a><a><b/></a><b/></a>.
        let dtd2 = BuiltinDtd::T2.dtd();
        let root2 = dtd2.id("a").unwrap();
        let doc2 = pv_xml::parse("<a><a><b/><b/></a><b/></a>").unwrap();
        validate_document(&doc2, &dtd2, root2).unwrap();
        // But <a><b/><b/><b/></a> is not valid for T2 (only two slots).
        let doc3 = pv_xml::parse("<a><b/><b/><b/></a>").unwrap();
        assert!(validate_document(&doc3, &dtd2, root2).is_err());
    }

    #[test]
    fn xhtml_document_validates() {
        let xml = "<html><head><title>t</title></head><body><p>hello <b>world</b></p></body></html>";
        validate(BuiltinDtd::XhtmlBasic, xml).unwrap();
    }

    #[test]
    fn determinism_diagnostic() {
        let dtd = Dtd::parse(
            "<!ELEMENT det (a, b)><!ELEMENT amb ((a, b) | (a, c))>
             <!ELEMENT twice (a | a)><!ELEMENT nested (a, (b | b))>
             <!ELEMENT opt (a?, a)><!ELEMENT choice (a, (b | c))>
             <!ELEMENT optplus (a?)+><!ELEMENT starplus (b*)+>
             <!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY>",
        )
        .unwrap();
        let deterministic =
            |name| ContentAutomata::for_element(&dtd, dtd.id(name).unwrap()).is_deterministic();
        assert!(deterministic("det"));
        assert!(deterministic("choice"));
        // One Glushkov position each: `c+` lowers one copy of `c`, so a
        // nullable `c` does not meet itself.
        assert!(deterministic("optplus"));
        assert!(deterministic("starplus"));
        // ((a,b)|(a,c)) is the textbook 1-ambiguous model.
        assert!(!deterministic("amb"));
        // A repeated alternative is two positions for one symbol, though
        // both of its edges join the same pair of states.
        assert!(!deterministic("twice"));
        assert!(!deterministic("nested"));
        // Declared `(a?, a)` is ambiguous; only its PV normalization is not.
        assert!(!deterministic("opt"));
    }

    #[test]
    fn builtin_dtds_are_deterministic() {
        // Our realistic corpus should be XML-legal (deterministic models).
        for b in BuiltinDtd::ALL {
            let dtd = b.dtd();
            for id in dtd.ids() {
                if matches!(dtd.element(id).content, ContentSpec::Children(_)) {
                    assert!(
                        ContentAutomata::for_element(&dtd, id).is_deterministic(),
                        "{}: element {} has a non-deterministic model",
                        b.name(),
                        dtd.name(id)
                    );
                }
            }
        }
    }

    #[test]
    fn validate_tokens_agrees_with_document_validation() {
        let dtd = BuiltinDtd::Figure1.dtd();
        let root = dtd.id("r").unwrap();
        let doc = pv_xml::parse(COMPLETED).unwrap();
        let toks = pv_core::token::Tokens::delta(&doc, doc.root(), &dtd).unwrap();
        assert!(validate_tokens(&toks, &dtd, root));
        let bad = pv_xml::parse("<r><a><b/><c/><d/><e/></a></r>").unwrap();
        let toks2 = pv_core::token::Tokens::delta(&bad, bad.root(), &dtd).unwrap();
        assert!(!validate_tokens(&toks2, &dtd, root));
    }
}
