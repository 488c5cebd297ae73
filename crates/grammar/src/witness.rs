//! Extension-witness construction: materializing Definition 2.
//!
//! When a document is potentially valid, there exists an extension
//! `ω ∈ Ext(w, T)` that is valid — the paper's Figure 3 shows one for its
//! running example. This module *constructs* such an ω: a derivation of
//! `δ_T(w)` under `G'` is searched top-down with memoization; every use of
//! the tag-elision rule `X → X̂` marks an **inserted** element, and
//! re-emitting its tags yields the completed token string.
//!
//! The search is exact but super-linear (`O(m·n³)`-ish with memoization);
//! it exists for tests, diagnostics and editor "complete my document"
//! commands on human-scale documents, not for the hot path.

use crate::ecfg::{Edge, Grammar, GrammarMode};
use pv_core::token::Tok;
use pv_dtd::{Dtd, ElemId};
use std::collections::HashMap;

/// One node of a witness derivation tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WNode {
    /// An element occurrence; `tagged == false` means its tags were elided
    /// in the input and are **inserted** by the witness.
    Elem {
        /// The element type.
        elem: ElemId,
        /// `true` if the tags were present in the input.
        tagged: bool,
        /// Content in order.
        children: Vec<WNode>,
    },
    /// A character-data run from the input.
    Sigma,
}

/// A complete witness: the derivation tree of the extension ω.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The root derivation node.
    pub root: WNode,
}

impl Witness {
    /// The completed token string `δ_T(ω)` — valid w.r.t. the DTD.
    pub fn tokens(&self) -> Vec<Tok> {
        let mut out = Vec::new();
        emit(&self.root, &mut out);
        out
    }

    /// Number of inserted (previously elided) elements.
    pub fn inserted_count(&self) -> usize {
        count_inserted(&self.root)
    }

    /// Renders the completed string with `•`-marked inserted tags, e.g.
    /// `<a>•<d>•σ•</d>•</a>` (diagnostics).
    pub fn render_marked(&self, dtd: &Dtd) -> String {
        let mut s = String::new();
        render(&self.root, dtd, &mut s);
        s
    }
}

fn emit(node: &WNode, out: &mut Vec<Tok>) {
    match node {
        WNode::Sigma => out.push(Tok::Sigma),
        WNode::Elem { elem, children, .. } => {
            out.push(Tok::Open(*elem));
            for c in children {
                emit(c, out);
            }
            out.push(Tok::Close(*elem));
        }
    }
}

fn count_inserted(node: &WNode) -> usize {
    match node {
        WNode::Sigma => 0,
        WNode::Elem { tagged, children, .. } => {
            usize::from(!*tagged) + children.iter().map(count_inserted).sum::<usize>()
        }
    }
}

fn render(node: &WNode, dtd: &Dtd, out: &mut String) {
    match node {
        WNode::Sigma => out.push('σ'),
        WNode::Elem { elem, tagged, children } => {
            let mark = if *tagged { "" } else { "•" };
            out.push_str(&format!("{mark}<{}>", dtd.name(*elem)));
            for c in children {
                render(c, dtd, out);
            }
            out.push_str(&format!("</{}>{mark}", dtd.name(*elem)));
        }
    }
}

/// Searches for an extension witness of the token string `input` (which
/// must include the root's tags). Returns `None` iff the string is not
/// potentially valid.
pub fn complete_tokens(input: &[Tok], dtd: &Dtd, root: ElemId) -> Option<Witness> {
    let g = Grammar::new(dtd, root, GrammarMode::PotentialValidity);
    let mut search = Search { g: &g, input, memo: HashMap::new(), in_progress: HashMap::new() };
    let node = search.derive_elem(root, 0, input.len())?;
    Some(Witness { root: node })
}

type Key = (u32, usize, usize); // (elem, i, j)

struct Search<'a> {
    g: &'a Grammar,
    input: &'a [Tok],
    /// (elem, i, j) → known result. `None` = proven underivable.
    memo: HashMap<Key, Option<WNode>>,
    /// Cycle guard: spans currently on the search stack.
    in_progress: HashMap<Key, ()>,
}

impl Search<'_> {
    /// Can element `e` derive `input[i..j)` (tagged or elided)?
    fn derive_elem(&mut self, e: ElemId, i: usize, j: usize) -> Option<WNode> {
        let key = (e.0, i, j);
        if let Some(res) = self.memo.get(&key) {
            return res.clone();
        }
        if self.in_progress.contains_key(&key) {
            // Minimal derivations never repeat an identical (elem, span)
            // frame; treating repeats as failure preserves completeness.
            return None;
        }
        self.in_progress.insert(key, ());

        // Tagged form: input[i] = <e> … input[j-1] = </e>.
        let mut result: Option<WNode> = None;
        if j - i >= 2 && self.input[i] == Tok::Open(e) && self.input[j - 1] == Tok::Close(e) {
            if let Some(children) = self.derive_content(e, i + 1, j - 1) {
                result = Some(WNode::Elem { elem: e, tagged: true, children });
            }
        }
        // Elided form (rule X → X̂): the whole span is content.
        if result.is_none() {
            if let Some(children) = self.derive_content(e, i, j) {
                result = Some(WNode::Elem { elem: e, tagged: false, children });
            }
        }

        self.in_progress.remove(&key);
        self.memo.insert(key, result.clone());
        result
    }

    /// Path search through `e`'s content NFA (between the tag edges),
    /// consuming exactly `input[i..j)`.
    fn derive_content(&mut self, e: ElemId, i: usize, j: usize) -> Option<Vec<WNode>> {
        let nfa = self.g.nfa(e);
        // The content portion starts after the Open edge: find the state
        // targeted by Term(Open(e)) from the NFA start; the content ends at
        // the state with the Close edge to accept. We must locate c_in and
        // c_out: by construction (ecfg::build_element_nfa) the Open edge is
        // the first transition of the start state and Close is the only
        // Term(Close(e)) edge into accept.
        let mut c_in = None;
        for &(label, t) in &nfa.states[nfa.start as usize] {
            if label == Edge::Term(Tok::Open(e)) {
                c_in = Some(t);
                break;
            }
        }
        let c_in = c_in.expect("element NFA has an Open edge");
        let mut c_out = None;
        'outer: for (s, edges) in nfa.states.iter().enumerate() {
            for &(label, t) in edges {
                if label == Edge::Term(Tok::Close(e)) && t == nfa.accept {
                    c_out = Some(s as u32);
                    break 'outer;
                }
            }
        }
        let c_out = c_out.expect("element NFA has a Close edge");

        // DFS from (c_in, i) to (c_out, j), collecting children.
        let mut visited = std::collections::HashSet::new();
        self.dfs_path(e, c_in, c_out, i, j, &mut visited)
    }

    /// DFS for a path from `(state, pos)` to `(goal, j)`. `visited` guards
    /// against ε cycles within the same position.
    fn dfs_path(
        &mut self,
        e: ElemId,
        state: u32,
        goal: u32,
        pos: usize,
        j: usize,
        visited: &mut std::collections::HashSet<(u32, usize)>,
    ) -> Option<Vec<WNode>> {
        if state == goal && pos == j {
            return Some(Vec::new());
        }
        if !visited.insert((state, pos)) {
            return None;
        }
        let edges: Vec<(Edge, u32)> = self.g.nfa(e).states[state as usize].clone();
        for (label, t) in edges {
            match label {
                Edge::Eps => {
                    if let Some(rest) = self.dfs_path(e, t, goal, pos, j, visited) {
                        visited.remove(&(state, pos));
                        return Some(rest);
                    }
                }
                Edge::Term(tok) => {
                    if pos < j && self.input[pos] == tok {
                        // A fresh visited set: position advanced.
                        let mut v2 = std::collections::HashSet::new();
                        if let Some(mut rest) = self.dfs_path(e, t, goal, pos + 1, j, &mut v2) {
                            if tok == Tok::Sigma {
                                rest.insert(0, WNode::Sigma);
                            }
                            visited.remove(&(state, pos));
                            return Some(rest);
                        }
                    }
                }
                Edge::Call(y) => {
                    // Try every split point, longest child first (maximal
                    // munch): consuming real input through the child keeps
                    // witnesses minimal-ish — empty inserted elements are
                    // the last resort.
                    for k in (pos..=j).rev() {
                        if let Some(child) = self.derive_elem(y, pos, k) {
                            // The ε-cycle guard may only be reset when the
                            // position advances; a zero-width child keeps
                            // the current guard (otherwise star hubs with
                            // nullable calls recurse forever).
                            let found = if k > pos {
                                let mut v2 = std::collections::HashSet::new();
                                self.dfs_path(e, t, goal, k, j, &mut v2)
                            } else {
                                self.dfs_path(e, t, goal, k, j, visited)
                            };
                            if let Some(mut rest) = found {
                                rest.insert(0, child);
                                visited.remove(&(state, pos));
                                return Some(rest);
                            }
                        }
                    }
                }
            }
        }
        visited.remove(&(state, pos));
        None
    }
}

/// Document-level completion: constructs a **valid** [`pv_xml::Document`]
/// extension of `doc` (Definition 2 applied to the real tree), preserving
/// all character data, attributes, comments and processing instructions.
/// Returns `None` iff `doc` is not potentially valid.
///
/// This is Figure 3 as an operation: the two `<d>` elements appear in the
/// output around the text they must wrap.
pub fn complete_document(
    doc: &pv_xml::Document,
    dtd: &Dtd,
    root: ElemId,
) -> Option<pv_xml::Document> {
    use pv_core::token::Tokens;
    let toks = Tokens::delta(doc, doc.root(), dtd).ok()?;
    let witness = complete_tokens(&toks, dtd, root)?;

    // The witness root must be the (tagged) document root.
    let WNode::Elem { tagged: true, children, .. } = &witness.root else {
        return None; // cannot happen: the input carries its root tags
    };
    let mut r = Rebuilder { src: doc, dtd, dst: pv_xml::Document::new(doc.name(doc.root())?) };
    let dst_root = r.dst.root();
    r.copy_attrs(doc.root(), dst_root);
    r.rebuild(doc.root(), children, dst_root);
    debug_assert!(r.dst.check_integrity().is_ok());
    Some(r.dst)
}

/// Walks a witness tree and the original document in lockstep, emitting
/// the completed tree. Inserted (untagged) witness elements share their
/// parent's cursor: they wrap a run of the original children.
struct Rebuilder<'a> {
    src: &'a pv_xml::Document,
    dtd: &'a Dtd,
    dst: pv_xml::Document,
}

impl Rebuilder<'_> {
    fn copy_attrs(&mut self, from: pv_xml::NodeId, to: pv_xml::NodeId) {
        if let pv_xml::NodeKind::Element { attrs, .. } = self.src.kind(from) {
            for a in attrs {
                self.dst.set_attribute(to, &a.name, &a.value).expect("attr on element");
            }
        }
    }

    /// Rebuilds all children of a tagged element, then flushes trailing
    /// comments/PIs.
    fn rebuild(&mut self, src_parent: pv_xml::NodeId, wkids: &[WNode], dst_parent: pv_xml::NodeId) {
        let mut cursor = 0usize;
        self.rebuild_run(src_parent, &mut cursor, wkids, dst_parent);
        self.flush_invisible(src_parent, &mut cursor, dst_parent);
    }

    /// Copies comments, PIs and empty text nodes up to the next
    /// token-bearing child.
    fn flush_invisible(
        &mut self,
        src_parent: pv_xml::NodeId,
        cursor: &mut usize,
        dst_parent: pv_xml::NodeId,
    ) {
        let kids: Vec<pv_xml::NodeId> = self.src.children(src_parent).to_vec();
        while *cursor < kids.len() {
            let c = kids[*cursor];
            match self.src.kind(c) {
                pv_xml::NodeKind::Comment(t) => {
                    self.dst.append_comment(dst_parent, t).unwrap();
                }
                pv_xml::NodeKind::Pi { target, data } => {
                    self.dst.append_pi(dst_parent, target, data).unwrap();
                }
                pv_xml::NodeKind::Text("") => {}
                _ => break,
            }
            *cursor += 1;
        }
    }

    fn rebuild_run(
        &mut self,
        src_parent: pv_xml::NodeId,
        cursor: &mut usize,
        wkids: &[WNode],
        dst_parent: pv_xml::NodeId,
    ) {
        for w in wkids {
            self.flush_invisible(src_parent, cursor, dst_parent);
            let kids: Vec<pv_xml::NodeId> = self.src.children(src_parent).to_vec();
            match w {
                WNode::Sigma => {
                    // Consume the maximal run of text nodes.
                    while *cursor < kids.len() {
                        let c = kids[*cursor];
                        match self.src.kind(c) {
                            pv_xml::NodeKind::Text(t) => {
                                if !t.is_empty() {
                                    self.dst.append_text(dst_parent, t).unwrap();
                                }
                                *cursor += 1;
                            }
                            _ => break,
                        }
                    }
                }
                WNode::Elem { tagged: true, children, .. } => {
                    // Consume the next original element.
                    let c = kids[*cursor];
                    *cursor += 1;
                    let name = self.src.name(c).expect("witness aligned to an element").to_owned();
                    let new = self.dst.append_element(dst_parent, &name).unwrap();
                    self.copy_attrs(c, new);
                    self.rebuild(c, children, new);
                }
                WNode::Elem { elem, tagged: false, children } => {
                    // Inserted element: wraps the following original items.
                    let name = self.dtd.name(*elem).to_owned();
                    let new = self.dst.append_element(dst_parent, &name).unwrap();
                    self.rebuild_run(src_parent, cursor, children, new);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::validate_tokens;
    use pv_core::token::Tokens;
    use pv_dtd::builtin::BuiltinDtd;

    fn witness_for(b: BuiltinDtd, xml: &str) -> Option<Witness> {
        let dtd = b.dtd();
        let root = dtd.id(b.root()).unwrap();
        let doc = pv_xml::parse(xml).unwrap();
        let toks = Tokens::delta(&doc, doc.root(), &dtd).unwrap();
        complete_tokens(&toks, &dtd, root)
    }

    const S: &str =
        "<r><a><b>A quick brown</b><c> fox jumps over a lazy</c> dog<e></e></a></r>";
    const W: &str =
        "<r><a><b>A quick brown</b><e></e><c> fox jumps over a lazy</c> dog</a></r>";

    #[test]
    fn figure3_witness_exists_and_validates() {
        let dtd = BuiltinDtd::Figure1.dtd();
        let root = dtd.id("r").unwrap();
        let w = witness_for(BuiltinDtd::Figure1, S).expect("s is potentially valid");
        // The completed tokens must be *valid* — Definition 3's existential
        // made concrete.
        assert!(validate_tokens(&w.tokens(), &dtd, root));
        // Figure 3 inserts two <d> elements; a minimal witness matches.
        assert_eq!(w.inserted_count(), 2, "{}", w.render_marked(&dtd));
    }

    #[test]
    fn non_pv_string_has_no_witness() {
        assert!(witness_for(BuiltinDtd::Figure1, W).is_none());
    }

    #[test]
    fn valid_document_witnesses_itself() {
        let src = "<r><a><b><d>x</d></b><c>y</c><d/></a></r>";
        let w = witness_for(BuiltinDtd::Figure1, src).unwrap();
        assert_eq!(w.inserted_count(), 0);
        let dtd = BuiltinDtd::Figure1.dtd();
        let doc = pv_xml::parse(src).unwrap();
        let toks = Tokens::delta(&doc, doc.root(), &dtd).unwrap();
        assert_eq!(w.tokens(), toks);
    }

    #[test]
    fn example6_witness_reconstructs_inner_a() {
        // T2: <a><b/><b/><b/></a> needs an inserted inner <a>.
        let dtd = BuiltinDtd::T2.dtd();
        let root = dtd.id("a").unwrap();
        let w = witness_for(BuiltinDtd::T2, "<a><b/><b/><b/></a>").unwrap();
        assert!(w.inserted_count() >= 1);
        assert!(validate_tokens(&w.tokens(), &dtd, root));
    }

    #[test]
    fn empty_root_witness_fills_minimum_structure() {
        // <r/> with r → (a+): the witness must insert a (and satisfy a's
        // model with further nullable insertions).
        let dtd = BuiltinDtd::Figure1.dtd();
        let root = dtd.id("r").unwrap();
        let w = witness_for(BuiltinDtd::Figure1, "<r/>").unwrap();
        assert!(w.inserted_count() >= 1);
        assert!(validate_tokens(&w.tokens(), &dtd, root));
    }

    #[test]
    fn bare_text_witness() {
        let dtd = BuiltinDtd::Figure1.dtd();
        let root = dtd.id("r").unwrap();
        let w = witness_for(BuiltinDtd::Figure1, "<r>text</r>").unwrap();
        assert!(validate_tokens(&w.tokens(), &dtd, root));
        // σ must survive into the witness.
        assert!(w.tokens().contains(&Tok::Sigma));
    }

    #[test]
    fn witness_tokens_embed_input_subsequence() {
        // Deleting inserted tags from ω must recover δ(w) — here checked
        // as subsequence preservation of the input tokens.
        let dtd = BuiltinDtd::Figure1.dtd();
        let doc = pv_xml::parse(S).unwrap();
        let input = Tokens::delta(&doc, doc.root(), &dtd).unwrap();
        let w = witness_for(BuiltinDtd::Figure1, S).unwrap();
        let out = w.tokens();
        // subsequence check
        let mut it = out.iter();
        for tok in &input {
            assert!(it.any(|t| t == tok), "input token {tok:?} lost in witness");
        }
    }

    #[test]
    fn complete_document_reproduces_figure3() {
        // Document-level completion of the paper's s: the output is the
        // Figure 3 encoding, text preserved verbatim.
        let dtd = BuiltinDtd::Figure1.dtd();
        let root = dtd.id("r").unwrap();
        let doc = pv_xml::parse(S).unwrap();
        let completed = complete_document(&doc, &dtd, root).expect("s is potentially valid");
        assert_eq!(
            completed.to_xml(),
            "<r><a><b><d>A quick brown</d></b><c> fox jumps over a lazy</c><d> dog<e/></d></a></r>"
        );
        crate::validator::validate_document(&completed, &dtd, root).unwrap();
        // Character data is untouched (Theorem 2 setting).
        assert_eq!(completed.content(completed.root()), doc.content(doc.root()));
    }

    #[test]
    fn complete_document_none_for_broken_input() {
        let dtd = BuiltinDtd::Figure1.dtd();
        let root = dtd.id("r").unwrap();
        let doc = pv_xml::parse(W).unwrap();
        assert!(complete_document(&doc, &dtd, root).is_none());
    }

    #[test]
    fn complete_document_preserves_attributes_and_comments() {
        let dtd = BuiltinDtd::Figure1.dtd();
        let root = dtd.id("r").unwrap();
        let doc = pv_xml::parse(
            "<r><a id=\"a1\"><!-- note --><b>x</b><c>y</c> z<e/></a></r>",
        )
        .unwrap();
        let completed = complete_document(&doc, &dtd, root).unwrap();
        let xml = completed.to_xml();
        assert!(xml.contains("id=\"a1\""), "{xml}");
        assert!(xml.contains("<!-- note -->"), "{xml}");
        crate::validator::validate_document(&completed, &dtd, root).unwrap();
    }

    #[test]
    fn complete_document_identity_on_valid_input() {
        let dtd = BuiltinDtd::Figure1.dtd();
        let root = dtd.id("r").unwrap();
        let src = "<r><a><b><d>x</d></b><c>y</c><d/></a></r>";
        let doc = pv_xml::parse(src).unwrap();
        let completed = complete_document(&doc, &dtd, root).unwrap();
        assert_eq!(completed.to_xml(), src);
    }

    #[test]
    fn render_marked_shows_insertions() {
        let dtd = BuiltinDtd::Figure1.dtd();
        let w = witness_for(BuiltinDtd::Figure1, S).unwrap();
        let marked = w.render_marked(&dtd);
        assert!(marked.contains("•<d>"), "{marked}");
    }
}
