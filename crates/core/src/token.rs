//! The `δ_T` and `Δ_T` operators (paper Sections 3.1 and 4).
//!
//! * `δ_T` maps an XML string to a token string over the grammar alphabet
//!   `Σ = {σ} ∪ {<x>, </x> | x ∈ T}`: markup structure is preserved and
//!   every maximal run of (non-empty) character data collapses to one `σ`.
//! * `Δ_T` is the per-node variant: the root's tags around the **children
//!   only**, each child element reduced to an empty tag pair — the input
//!   alphabet of the element-content recognizer.
//!
//! Both operators resolve document tag names against the DTD; an element
//! not declared in `T` violates the problem precondition
//! (`elements(w) ⊆ T`) and is reported as a [`TokenError`]. A
//! whole-document check resolves the document's interned name table once
//! per check; single-node callers resolve each name as they meet it.

use pv_dtd::{Dtd, ElemId};
use pv_xml::{Document, NameId, NodeId};
use std::fmt;

/// One terminal of the grammar alphabet `Σ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tok {
    /// Start tag `<x>`.
    Open(ElemId),
    /// End tag `</x>`.
    Close(ElemId),
    /// A non-empty character-data run.
    Sigma,
}

/// One symbol of a node's **child** sequence (the recognizer's input
/// alphabet: elements and σ, no tags).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChildSym {
    /// A child element of the given type.
    Elem(ElemId),
    /// A character-data run.
    Sigma,
}

impl ChildSym {
    /// Pretty-prints against a DTD (for diagnostics).
    pub fn display(&self, dtd: &Dtd) -> String {
        match self {
            ChildSym::Elem(id) => format!("<{}>", dtd.name(*id)),
            ChildSym::Sigma => "σ".to_owned(),
        }
    }
}

/// A document element whose tag name is not declared in the DTD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenError {
    /// The undeclared tag name.
    pub name: String,
    /// The node carrying it.
    pub node: NodeId,
}

impl fmt::Display for TokenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "element <{}> at node {} is not declared in the DTD", self.name, self.node)
    }
}

impl std::error::Error for TokenError {}

/// Token-string construction (`δ_T`, `Δ_T`) over a `(Document, Dtd)` pair.
pub struct Tokens;

impl Tokens {
    /// `δ_T(w)` of the subtree rooted at `node`: the full token string with
    /// all markup and collapsed character data (paper Section 3.1).
    pub fn delta(doc: &Document, node: NodeId, dtd: &Dtd) -> Result<Vec<Tok>, TokenError> {
        let mut out = Vec::new();
        // Iterative traversal; mirrors Document::descendants but emits
        // Close tokens and merges sibling text runs.
        enum Step {
            Enter(NodeId),
            Close(ElemId),
        }
        let mut stack = vec![Step::Enter(node)];
        while let Some(step) = stack.pop() {
            match step {
                Step::Close(id) => out.push(Tok::Close(id)),
                Step::Enter(n) => match doc.kind(n) {
                    pv_xml::NodeKind::Text(t)
                        if !t.is_empty() && out.last() != Some(&Tok::Sigma) =>
                    {
                        out.push(Tok::Sigma);
                    }
                    pv_xml::NodeKind::Element { name, .. } => {
                        let id = dtd
                            .id(name)
                            .ok_or_else(|| TokenError { name: name.to_string(), node: n })?;
                        out.push(Tok::Open(id));
                        stack.push(Step::Close(id));
                        for &c in doc.children(n).iter().rev() {
                            stack.push(Step::Enter(c));
                        }
                    }
                    // Comments/PIs are structure-transparent.
                    _ => {}
                },
            }
        }
        Ok(out)
    }

    /// The child-symbol sequence of element `node` — the essential content
    /// of `Δ_T` (paper Section 4) without the enclosing tags. This is the
    /// ECRecognizer's input for one ECPV instance.
    pub fn children(
        doc: &Document,
        node: NodeId,
        dtd: &Dtd,
    ) -> Result<Vec<ChildSym>, TokenError> {
        let mut out = Vec::with_capacity(doc.children(node).len());
        Self::children_into(doc, node, dtd, &mut out)?;
        Ok(out)
    }

    /// Scratch-buffer variant of [`Tokens::children`]: clears `out` and
    /// fills it with the node's child-symbol sequence, so a caller
    /// tokenizing many nodes with one reusable buffer allocates nothing
    /// per node.
    ///
    /// Semantics are identical to [`Tokens::children`]: child elements
    /// resolve against the DTD (undeclared names error), maximal runs of
    /// non-empty character data collapse to one σ, and comments/PIs are
    /// transparent — σ runs merge *across* them, mirroring `δ_T`.
    pub fn children_into(
        doc: &Document,
        node: NodeId,
        dtd: &Dtd,
        out: &mut Vec<ChildSym>,
    ) -> Result<(), TokenError> {
        out.clear();
        Self::siblings_into(doc, doc.children(node), dtd, out)
    }

    /// Appends the child symbols of a run of sibling nodes to `out`, with
    /// [`Tokens::children_into`]'s rules. The run continues whatever `out`
    /// already holds: a leading text node merges into a σ that `out` ends
    /// with. Guards use this to build a hypothetical child sequence from
    /// slices of the real one.
    pub fn siblings_into(
        doc: &Document,
        siblings: &[NodeId],
        dtd: &Dtd,
        out: &mut Vec<ChildSym>,
    ) -> Result<(), TokenError> {
        push_symbols(doc, siblings, out, |name| dtd.id(doc.name_of(name)))
    }

    /// [`Tokens::children_into`] resolving names through a document's
    /// [`NameTable`] — the whole-document checkers' per-node step, with no
    /// hashing at all.
    pub(crate) fn children_resolved_into(
        doc: &Document,
        node: NodeId,
        names: &NameTable,
        out: &mut Vec<ChildSym>,
    ) -> Result<(), TokenError> {
        out.clear();
        push_symbols(doc, doc.children(node), out, |name| names.elem(name))
    }

    /// Renders a δ token string for diagnostics/tests, e.g.
    /// `<a><b>σ</b></a>`.
    pub fn render(toks: &[Tok], dtd: &Dtd) -> String {
        let mut s = String::new();
        for t in toks {
            match t {
                Tok::Open(id) => {
                    s.push('<');
                    s.push_str(dtd.name(*id));
                    s.push('>');
                }
                Tok::Close(id) => {
                    s.push_str("</");
                    s.push_str(dtd.name(*id));
                    s.push('>');
                }
                Tok::Sigma => s.push('σ'),
            }
        }
        s
    }
}

/// The σ-merging loop behind every child-symbol view: element children
/// resolve through `resolve` (`None` = undeclared, an error at that
/// child), each maximal run of non-empty text adds one σ unless `out`
/// already ends with one, and comments/PIs add nothing.
fn push_symbols(
    doc: &Document,
    siblings: &[NodeId],
    out: &mut Vec<ChildSym>,
    resolve: impl Fn(NameId) -> Option<ElemId>,
) -> Result<(), TokenError> {
    for &c in siblings {
        if let Some(name) = doc.name_id(c) {
            let elem = resolve(name)
                .ok_or_else(|| TokenError { name: doc.name_of(name).to_owned(), node: c })?;
            out.push(ChildSym::Elem(elem));
        } else if doc.text(c).is_some_and(|t| !t.is_empty()) && out.last() != Some(&ChildSym::Sigma)
        {
            out.push(ChildSym::Sigma);
        }
    }
    Ok(())
}

/// A document's name table resolved against a DTD: entry `n` is the
/// element type of [`NameId`] `n`, or `None` if the DTD does not declare
/// that name. Building it costs one DTD lookup per distinct name, so a
/// whole-document check hashes each name once instead of once or twice
/// per element. Valid for the document it was built from until the next
/// edit interns a new name.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameTable(Vec<Option<ElemId>>);

impl NameTable {
    /// Resolves every name `doc` has interned against `dtd`.
    pub(crate) fn new(doc: &Document, dtd: &Dtd) -> NameTable {
        NameTable(doc.names().map(|n| dtd.id(n)).collect())
    }

    /// The element type of interned name `name`.
    #[inline]
    pub(crate) fn elem(&self, name: NameId) -> Option<ElemId> {
        self.0[name.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_dtd::builtin::BuiltinDtd;

    fn fig1() -> pv_dtd::Dtd {
        BuiltinDtd::Figure1.dtd()
    }

    #[test]
    fn delta_matches_paper_example() {
        // Section 3.1's worked example.
        let doc = pv_xml::parse(
            "<r><a><b>A quick brown</b><c> fox jumps over a lazy</c><d> dog<e></e></d></a></r>",
        )
        .unwrap();
        let dtd = fig1();
        let a = doc.children(doc.root())[0];
        let toks = Tokens::delta(&doc, a, &dtd).unwrap();
        assert_eq!(Tokens::render(&toks, &dtd), "<a><b>σ</b><c>σ</c><d>σ<e></e></d></a>");
    }

    #[test]
    fn delta_collapses_adjacent_text() {
        let mut doc = pv_xml::parse("<d></d>").unwrap();
        doc.append_text(doc.root(), "one").unwrap();
        doc.append_text(doc.root(), "two").unwrap();
        let dtd = fig1();
        let toks = Tokens::delta(&doc, doc.root(), &dtd).unwrap();
        assert_eq!(Tokens::render(&toks, &dtd), "<d>σ</d>");
    }

    #[test]
    fn delta_drops_empty_text() {
        let mut doc = pv_xml::parse("<d></d>").unwrap();
        doc.append_text(doc.root(), "").unwrap();
        let dtd = fig1();
        let toks = Tokens::delta(&doc, doc.root(), &dtd).unwrap();
        assert_eq!(toks, vec![Tok::Open(dtd.id("d").unwrap()), Tok::Close(dtd.id("d").unwrap())]);
    }

    #[test]
    fn children_matches_paper_delta_example() {
        // Section 4: Δ_T of string w is <a><b></b><e></e><c></c>σ</a>;
        // our child view is the inner symbol sequence b, e, c, σ.
        let doc = pv_xml::parse(
            "<r><a><b>A quick brown</b><e></e><c> fox jumps over a lazy</c> dog</a></r>",
        )
        .unwrap();
        let dtd = fig1();
        let a = doc.children(doc.root())[0];
        let syms = Tokens::children(&doc, a, &dtd).unwrap();
        let rendered: Vec<String> = syms.iter().map(|s| s.display(&dtd)).collect();
        assert_eq!(rendered, ["<b>", "<e>", "<c>", "σ"]);
    }

    #[test]
    fn children_into_matches_children_and_reuses_buffer() {
        let doc = pv_xml::parse(
            "<r><a><b>A quick brown</b>mid<!-- note -->dle<e></e><c>x</c> dog</a></r>",
        )
        .unwrap();
        let dtd = fig1();
        let a = doc.children(doc.root())[0];
        let mut buf = vec![ChildSym::Sigma; 8]; // stale contents must be cleared
        Tokens::children_into(&doc, a, &dtd, &mut buf).unwrap();
        assert_eq!(buf, Tokens::children(&doc, a, &dtd).unwrap());
        // σ runs merge across the comment: b, σ, e, c, σ.
        assert_eq!(buf.len(), 5);
        // And the buffer is reusable for a different node.
        Tokens::children_into(&doc, doc.root(), &dtd, &mut buf).unwrap();
        assert_eq!(buf, Tokens::children(&doc, doc.root(), &dtd).unwrap());
    }

    #[test]
    fn undeclared_element_is_reported() {
        let doc = pv_xml::parse("<r><zz/></r>").unwrap();
        let dtd = fig1();
        let err = Tokens::delta(&doc, doc.root(), &dtd).unwrap_err();
        assert_eq!(err.name, "zz");
        let err2 = Tokens::children(&doc, doc.root(), &dtd).unwrap_err();
        assert_eq!(err2.name, "zz");
    }

    #[test]
    fn comments_are_transparent() {
        let doc = pv_xml::parse("<d>one<!-- note -->two</d>").unwrap();
        let dtd = fig1();
        let toks = Tokens::delta(&doc, doc.root(), &dtd).unwrap();
        // Text runs on both sides of the comment merge into one σ in δ_T
        // (the comment carries no structure).
        assert_eq!(Tokens::render(&toks, &dtd), "<d>σ</d>");
    }

    #[test]
    fn deep_document_tokenizes() {
        let mut src = String::new();
        let n = 30_000;
        for _ in 0..n {
            src.push_str("<a>");
        }
        for _ in 0..n {
            src.push_str("</a>");
        }
        let dtd = pv_dtd::Dtd::parse("<!ELEMENT a (a?)>").unwrap();
        let doc = pv_xml::parse(&src).unwrap();
        let toks = Tokens::delta(&doc, doc.root(), &dtd).unwrap();
        assert_eq!(toks.len(), 2 * n);
    }
}
