//! Arena-based document tree (the paper's DOM model, Figure 2).
//!
//! Nodes live in a single `Vec` owned by [`Document`] and are addressed by
//! [`NodeId`]. This gives cheap copies of ids, cache-friendly traversal, and
//! O(1) structural surgery for the edit operations in [`crate::edit`].
//! Deleted nodes are tombstoned (never reused) so `NodeId`s remain stable for
//! the lifetime of a document — which the incremental potential-validity
//! checker in `pv-core` relies on.

use crate::error::XmlError;
use crate::Result;
use std::fmt;

/// Index of a node inside a [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The arena slot of this id.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from [`NodeId::index`] — for serialization layers
    /// (the validation service ships violation nodes over the wire). An id
    /// is only meaningful against the arena it came from; nothing checks
    /// that here.
    #[inline]
    pub fn from_index(i: usize) -> NodeId {
        NodeId(i as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A single `name="value"` attribute.
///
/// Attributes never influence potential validity (paper, footnote 3); they
/// are preserved for round-tripping only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name.
    pub name: Box<str>,
    /// Attribute value with references already resolved.
    pub value: String,
}

/// What a node is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// An element node with a tag name and attributes.
    Element { name: Box<str>, attrs: Vec<Attribute> },
    /// A character-data node (text or CDATA content).
    Text(String),
    /// A comment (`<!-- … -->`); content excludes the delimiters.
    Comment(String),
    /// A processing instruction (`<?target data?>`).
    Pi { target: Box<str>, data: String },
}

impl NodeKind {
    /// `true` if this is an element node.
    #[inline]
    pub fn is_element(&self) -> bool {
        matches!(self, NodeKind::Element { .. })
    }

    /// `true` if this is a text node.
    #[inline]
    pub fn is_text(&self) -> bool {
        matches!(self, NodeKind::Text(_))
    }
}

/// A node in the arena.
#[derive(Debug, Clone)]
pub struct Node {
    /// Parent element, or `None` for the root (or a detached/tombstoned node).
    pub parent: Option<NodeId>,
    /// The node payload.
    pub kind: NodeKind,
    /// Children in document order (always empty for non-element nodes).
    pub children: Vec<NodeId>,
    /// Tombstone flag: `true` once removed by an edit.
    pub(crate) dead: bool,
}

/// Captured `<!DOCTYPE …>` declaration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Doctype {
    /// The declared document-type name (should match the root element).
    pub name: String,
    /// The internal subset between `[` and `]`, verbatim (for `pv-dtd`).
    pub internal_subset: Option<String>,
}

/// The logical token produced for one child slot of an element: either a
/// child element's tag name or a maximal run of character data.
///
/// This is the raw material of the paper's `Δ_T` operator (Section 4): the
/// sequence of children of a node with all character data collapsed to a
/// single `σ` per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildToken<'doc> {
    /// A child element with the given name, at this [`NodeId`].
    Element(&'doc str, NodeId),
    /// One or more consecutive character-data children (non-empty overall).
    Sigma,
}

/// An XML document: an arena of [`Node`]s plus a distinguished root element.
#[derive(Debug, Clone)]
pub struct Document {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
    /// Doctype declaration if one was present in the source.
    pub doctype: Option<Doctype>,
}

impl Document {
    /// Creates a document consisting of a single empty root element.
    pub fn new(root_name: &str) -> Self {
        Self::with_root(NodeKind::Element { name: root_name.into(), attrs: Vec::new() })
    }

    /// Creates a document whose root node is `kind` (the parser passes the
    /// root's start tag, attributes included).
    pub(crate) fn with_root(kind: NodeKind) -> Self {
        let root = Node { parent: None, kind, children: Vec::new(), dead: false };
        Document { nodes: vec![root], root: NodeId(0), doctype: None }
    }

    /// The root element of the document.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Borrow a node. Panics on a stale (tombstoned) id.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        let n = &self.nodes[id.index()];
        debug_assert!(!n.dead, "accessed dead node {id}");
        n
    }

    #[inline]
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// `true` if the node id refers to a live node.
    #[inline]
    pub fn is_alive(&self, id: NodeId) -> bool {
        id.index() < self.nodes.len() && !self.nodes[id.index()].dead
    }

    /// The element name of `id`, or `None` for non-element nodes.
    #[inline]
    pub fn name(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// The text content of `id` if it is a text node.
    #[inline]
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Text(t) => Some(t),
            _ => None,
        }
    }

    /// Children of `id` in document order.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.node(id).children
    }

    /// Parent of `id` (`None` for the root).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// Position of `child` within its parent's child list.
    pub fn child_index(&self, child: NodeId) -> Option<usize> {
        let p = self.parent(child)?;
        self.children(p).iter().position(|&c| c == child)
    }

    /// Allocates a new detached node and returns its id.
    pub(crate) fn alloc(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("arena overflow"));
        self.nodes.push(Node { parent: None, kind, children: Vec::new(), dead: false });
        id
    }

    /// Allocates a node and links it as the last child of `parent`, which
    /// the caller guarantees is a live element.
    pub(crate) fn push_child(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        let id = self.alloc(kind);
        self.node_mut(id).parent = Some(parent);
        self.node_mut(parent).children.push(id);
        id
    }

    /// Number of live nodes.
    pub fn live_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.dead).count()
    }

    /// Number of live **element** nodes.
    pub fn element_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.dead && n.kind.is_element()).count()
    }

    /// Iterator over all live element nodes in document (pre)order,
    /// starting at the root.
    pub fn elements(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.descendants(self.root).filter(move |&id| self.node(id).kind.is_element())
    }

    /// Pre-order traversal of the subtree rooted at `id` (inclusive).
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants { doc: self, stack: vec![id] }
    }

    /// Depth of the subtree rooted at `id`: a leaf element has depth 1.
    ///
    /// The paper's depth-bound parameter `D` (Section 4.3.1) is compared
    /// against this measure.
    pub fn depth(&self, id: NodeId) -> usize {
        // Iterative DFS to avoid recursion on pathological documents.
        let mut max = 0usize;
        let mut stack = vec![(id, 1usize)];
        while let Some((n, d)) = stack.pop() {
            if self.node(n).kind.is_element() {
                max = max.max(d);
                for &c in self.children(n) {
                    stack.push((c, d + 1));
                }
            }
        }
        max
    }

    /// Depth of the whole document (root has depth 1).
    pub fn document_depth(&self) -> usize {
        self.depth(self.root)
    }

    /// Concatenation of all character data in the subtree of `id`, in
    /// document order — the paper's `content(w)`.
    pub fn content(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.push_content(id, &mut out);
        out
    }

    fn push_content(&self, id: NodeId, out: &mut String) {
        match &self.node(id).kind {
            NodeKind::Text(t) => out.push_str(t),
            NodeKind::Element { .. } => {
                for &c in self.children(id) {
                    self.push_content(c, out);
                }
            }
            _ => {}
        }
    }

    /// The child-token view of element `id`: the sequence of the paper's
    /// `Δ_T` symbols *before* DTD resolution — child element names and `σ`
    /// markers, with each maximal run of non-empty character data collapsed
    /// into a single [`ChildToken::Sigma`].
    ///
    /// Comments and processing instructions are transparent (they carry no
    /// structure relevant to validity). Whitespace-only text **does** count
    /// as character data, matching `δ_T`'s definition ("any string of
    /// non-markup characters of length at least one").
    pub fn child_tokens(&self, id: NodeId) -> Vec<ChildToken<'_>> {
        let mut out = Vec::with_capacity(self.children(id).len());
        let mut in_text_run = false;
        for &c in self.children(id) {
            match &self.node(c).kind {
                NodeKind::Element { name, .. } => {
                    out.push(ChildToken::Element(name, c));
                    in_text_run = false;
                }
                NodeKind::Text(t) => {
                    if !t.is_empty() && !in_text_run {
                        out.push(ChildToken::Sigma);
                        in_text_run = true;
                    }
                }
                NodeKind::Comment(_) | NodeKind::Pi { .. } => {
                    // transparent: does not break a σ run in spirit, but the
                    // paper has no notion of comments; we conservatively end
                    // the run (two text nodes separated by a comment are two
                    // sigma tokens only if an element intervenes — keep runs
                    // simple and end them here).
                    in_text_run = false;
                }
            }
        }
        out
    }

    /// Validates internal structural invariants; used by tests and after
    /// batches of edits. Returns an error describing the first violation.
    pub fn check_integrity(&self) -> Result<()> {
        if !self.is_alive(self.root) {
            return Err(XmlError::edit("root is dead"));
        }
        if self.nodes[self.root.index()].parent.is_some() {
            return Err(XmlError::edit("root has a parent"));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.dead {
                continue;
            }
            for &c in &n.children {
                let child = &self.nodes[c.index()];
                if child.dead {
                    return Err(XmlError::edit(format!("node #{i} has dead child {c}")));
                }
                if child.parent != Some(NodeId(i as u32)) {
                    return Err(XmlError::edit(format!(
                        "child {c} of #{i} has wrong parent {:?}",
                        child.parent
                    )));
                }
            }
            if !n.kind.is_element() && !n.children.is_empty() {
                return Err(XmlError::edit(format!("non-element #{i} has children")));
            }
        }
        // Every live non-root node must be reachable from the root.
        let reachable: std::collections::HashSet<NodeId> = self.descendants(self.root).collect();
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.dead && !reachable.contains(&NodeId(i as u32)) {
                return Err(XmlError::edit(format!("node #{i} is live but unreachable")));
            }
        }
        Ok(())
    }
}

/// Iterator returned by [`Document::descendants`].
pub struct Descendants<'doc> {
    doc: &'doc Document,
    stack: Vec<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        let node = self.doc.node(id);
        // Push children in reverse so they pop in document order.
        self.stack.extend(node.children.iter().rev());
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, NodeId) {
        // <r><a>hi<b/></a>world</r>
        let mut d = Document::new("r");
        let a = d.append_element(d.root(), "a").unwrap();
        let t1 = d.append_text(a, "hi").unwrap();
        let b = d.append_element(a, "b").unwrap();
        d.append_text(d.root(), "world").unwrap();
        let _ = t1;
        (d, a, b, t1)
    }

    #[test]
    fn new_document_has_root() {
        let d = Document::new("r");
        assert_eq!(d.name(d.root()), Some("r"));
        assert_eq!(d.children(d.root()), &[]);
        assert_eq!(d.document_depth(), 1);
        d.check_integrity().unwrap();
    }

    #[test]
    fn traversal_is_preorder() {
        let (d, a, b, t1) = sample();
        let order: Vec<NodeId> = d.descendants(d.root()).collect();
        assert_eq!(order.len(), 5);
        assert_eq!(order[0], d.root());
        assert_eq!(order[1], a);
        assert_eq!(order[2], t1);
        assert_eq!(order[3], b);
    }

    #[test]
    fn depth_counts_elements() {
        let (d, _, _, _) = sample();
        assert_eq!(d.document_depth(), 3); // r > a > b
    }

    #[test]
    fn content_concatenates_in_document_order() {
        let (d, _, _, _) = sample();
        assert_eq!(d.content(d.root()), "hiworld");
    }

    #[test]
    fn child_tokens_collapse_text_runs() {
        let mut d = Document::new("r");
        d.append_text(d.root(), "one").unwrap();
        d.append_text(d.root(), "two").unwrap();
        let a = d.append_element(d.root(), "a").unwrap();
        d.append_text(d.root(), "three").unwrap();
        let toks = d.child_tokens(d.root());
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[0], ChildToken::Sigma);
        assert_eq!(toks[1], ChildToken::Element("a", a));
        assert_eq!(toks[2], ChildToken::Sigma);
    }

    #[test]
    fn empty_text_is_not_sigma() {
        let mut d = Document::new("r");
        d.append_text(d.root(), "").unwrap();
        assert!(d.child_tokens(d.root()).is_empty());
    }

    #[test]
    fn element_count_skips_text() {
        let (d, _, _, _) = sample();
        assert_eq!(d.element_count(), 3);
        assert_eq!(d.live_count(), 5);
    }

    #[test]
    fn child_index_finds_position() {
        let (d, a, b, t1) = sample();
        assert_eq!(d.child_index(a), Some(0));
        assert_eq!(d.child_index(t1), Some(0));
        assert_eq!(d.child_index(b), Some(1));
        assert_eq!(d.child_index(d.root()), None);
    }
}
