//! Arena-based document tree (the paper's DOM model, Figure 2).
//!
//! Nodes live in a single `Vec` owned by [`Document`] and are addressed by
//! [`NodeId`]. Each node is a small `Copy` record (at most 32 bytes) that
//! holds handles into per-document storage rather than owning its payload:
//!
//! * **Element names are interned.** A document keeps one name table (a
//!   `Vec` of names plus a `std` `HashMap` from name to [`NameId`]), and
//!   an element records only its `NameId`. Edits intern through the same
//!   map, so a rename or insertion costs one hash. A checker resolves the
//!   whole table against its DTD once per document instead of hashing a
//!   name per element ([`Document::names`], [`Document::name_id`]).
//! * **Parse-time arenas.** [`crate::parse`] writes all text, comment and
//!   processing-instruction bytes into one `String`, and every element's
//!   child list as a range of one flat `Vec<NodeId>`, appended at the
//!   element's end tag. A parsed document therefore costs a handful of
//!   allocations, not one per node.
//! * **Owned slots on first edit.** Edits and the `append_*` builders never
//!   write the shared arenas. The first time an edit touches a parsed text
//!   node or child list, its contents move to an owned slot of their own
//!   (a `String` or `Vec<NodeId>`), which later edits update in place.
//!   API-built documents start in owned slots. Long editing sessions thus
//!   cost what they did with one allocation per node, and the arenas never
//!   grow after `parse` returns.
//!
//! [`Document::kind`] is the borrowed view of a node's payload
//! ([`NodeKind`]). Structural surgery in [`crate::edit`] stays O(1) per
//! moved id. Deleted nodes are tombstoned (never reused) so `NodeId`s remain
//! stable for the lifetime of a document — which the incremental
//! potential-validity checker in `pv-core` relies on.

use crate::error::XmlError;
use crate::Result;
use std::collections::HashMap;
use std::fmt;

/// Index of a node inside a [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The `parent` of the root and of detached nodes.
    pub(crate) const NONE: NodeId = NodeId(u32::MAX);

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

/// Index of an element name in a [`Document`]'s name table (see
/// [`Document::names`]). Only meaningful against the document it came
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(u32);

impl NameId {
    /// The position of this name in [`Document::names`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
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

/// What a node is: a view borrowed from its [`Document`] (see
/// [`Document::kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind<'doc> {
    /// An element node with a tag name and attributes.
    Element { name: &'doc str, attrs: &'doc [Attribute] },
    /// A character-data node (text or CDATA content).
    Text(&'doc str),
    /// A comment (`<!-- … -->`); content excludes the delimiters.
    Comment(&'doc str),
    /// A processing instruction (`<?target data?>`).
    Pi { target: &'doc str, data: &'doc str },
}

impl NodeKind<'_> {
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

/// Where a node's bytes or child ids live.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    /// `len` items of the parse-time arena (the text arena for strings,
    /// the child array for child lists) starting at `start`.
    Shared { start: u32, len: u32 },
    /// Owned slot `i` (of `Document::strs` or `Document::lists`).
    Owned(u32),
}

impl Slot {
    /// The empty list or string.
    pub(crate) const EMPTY: Slot = Slot::Shared { start: 0, len: 0 };
}

/// A node's payload: handles into the document's storage.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Data {
    /// `attrs` indexes `Document::attrs`, whose slot 0 is the empty list.
    Element { name: NameId, kids: Slot, attrs: u32 },
    Text(Slot),
    Comment(Slot),
    /// Target and data stored back to back; the target is the first
    /// `split` bytes.
    Pi { text: Slot, split: u32 },
}

/// A node in the arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    /// Parent element, or [`NodeId::NONE`] for the root (or a
    /// detached/tombstoned node).
    pub(crate) parent: NodeId,
    /// Tombstone flag: `true` once removed by an edit.
    pub(crate) dead: bool,
    pub(crate) data: Data,
}

/// Captured `<!DOCTYPE …>` declaration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Doctype {
    /// The declared document-type name (should match the root element).
    pub name: String,
    /// The internal subset between `[` and `]`, verbatim (for `pv-dtd`).
    pub internal_subset: Option<String>,
}

/// An XML document: an arena of nodes plus a distinguished root element,
/// with the storage the nodes point into (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct Document {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
    /// Interned element names, indexed by [`NameId`].
    names: Vec<Box<str>>,
    name_ids: HashMap<Box<str>, NameId>,
    /// Parse-time text, comment and PI bytes.
    arena: String,
    /// Parse-time child lists, one range per parsed element.
    shared_kids: Vec<NodeId>,
    /// Owned strings written by edits and builders.
    strs: Vec<String>,
    /// Owned child lists written by edits and builders.
    lists: Vec<Vec<NodeId>>,
    /// Attribute lists; slot 0 is the empty list every element starts with.
    attrs: Vec<Vec<Attribute>>,
    /// Doctype declaration if one was present in the source.
    pub doctype: Option<Doctype>,
}

impl Document {
    /// Creates a document consisting of a single empty root element.
    pub fn new(root_name: &str) -> Self {
        let mut doc = Self::empty();
        doc.alloc_element(root_name, &[]);
        doc
    }

    /// A document without nodes; the parser allocates the root (node 0)
    /// from the first start tag.
    pub(crate) fn empty() -> Self {
        Document {
            nodes: Vec::new(),
            root: NodeId(0),
            names: Vec::new(),
            name_ids: HashMap::new(),
            arena: String::new(),
            shared_kids: Vec::new(),
            strs: Vec::new(),
            lists: Vec::new(),
            attrs: vec![Vec::new()],
            doctype: None,
        }
    }

    /// The root element of the document.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Borrow a node. Panics on a stale (tombstoned) id.
    #[inline]
    pub(crate) fn node(&self, id: NodeId) -> &Node {
        let n = &self.nodes[id.index()];
        debug_assert!(!n.dead, "accessed dead node {id}");
        n
    }

    /// `true` if the node id refers to a live node.
    #[inline]
    pub fn is_alive(&self, id: NodeId) -> bool {
        id.index() < self.nodes.len() && !self.nodes[id.index()].dead
    }

    /// What node `id` is, borrowed from the document.
    pub fn kind(&self, id: NodeId) -> NodeKind<'_> {
        match self.node(id).data {
            Data::Element { name, attrs, .. } => NodeKind::Element {
                name: &self.names[name.index()],
                attrs: &self.attrs[attrs as usize],
            },
            Data::Text(s) => NodeKind::Text(self.str(s)),
            Data::Comment(s) => NodeKind::Comment(self.str(s)),
            Data::Pi { text, split } => {
                let (target, data) = self.str(text).split_at(split as usize);
                NodeKind::Pi { target, data }
            }
        }
    }

    /// The element name of `id`, or `None` for non-element nodes.
    #[inline]
    pub fn name(&self, id: NodeId) -> Option<&str> {
        self.name_id(id).map(|n| &*self.names[n.index()])
    }

    /// The interned name of element `id`, or `None` for non-element nodes.
    #[inline]
    pub fn name_id(&self, id: NodeId) -> Option<NameId> {
        match self.node(id).data {
            Data::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// The name table: every element name interned so far, in [`NameId`]
    /// order (`names().nth(n.index())` is name `n`). It only grows, so it
    /// may list names no live element carries any more.
    pub fn names(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.names.iter().map(|n| &**n)
    }

    /// The text of interned name `name`.
    #[inline]
    pub fn name_of(&self, name: NameId) -> &str {
        &self.names[name.index()]
    }

    /// The text content of `id` if it is a text node.
    #[inline]
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match self.node(id).data {
            Data::Text(s) => Some(self.str(s)),
            _ => None,
        }
    }

    /// Children of `id` in document order.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        self.kids_of(self.node(id))
    }

    /// Parent of `id` (`None` for the root).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let p = self.node(id).parent;
        (p != NodeId::NONE).then_some(p)
    }

    /// Position of `child` within its parent's child list.
    pub fn child_index(&self, child: NodeId) -> Option<usize> {
        let p = self.parent(child)?;
        self.children(p).iter().position(|&c| c == child)
    }

    /// The bytes behind a string slot.
    #[inline]
    fn str(&self, s: Slot) -> &str {
        match s {
            Slot::Shared { start, len } => &self.arena[start as usize..][..len as usize],
            Slot::Owned(i) => &self.strs[i as usize],
        }
    }

    /// The child list of a node, dead or alive.
    #[inline]
    pub(crate) fn kids_of(&self, n: &Node) -> &[NodeId] {
        match n.data {
            Data::Element { kids: Slot::Shared { start, len }, .. } => {
                &self.shared_kids[start as usize..][..len as usize]
            }
            Data::Element { kids: Slot::Owned(i), .. } => &self.lists[i as usize],
            _ => &[],
        }
    }

    /// Interns an element name.
    pub(crate) fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = NameId(u32::try_from(self.names.len()).expect("name table overflow"));
        self.names.push(name.into());
        self.name_ids.insert(name.into(), id);
        id
    }

    /// Allocates a new detached node and returns its id.
    pub(crate) fn alloc(&mut self, data: Data) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("arena overflow"));
        self.nodes.push(Node { parent: NodeId::NONE, dead: false, data });
        id
    }

    /// Allocates a detached, childless element.
    pub(crate) fn alloc_element(&mut self, name: &str, attrs: &[Attribute]) -> NodeId {
        let name = self.intern(name);
        let id = self.alloc(Data::Element { name, kids: Slot::EMPTY, attrs: 0 });
        if !attrs.is_empty() {
            self.attrs_mut(id).extend_from_slice(attrs);
        }
        id
    }

    /// The attribute list of element `id`, given a slot of its own on
    /// first write. Callers guarantee `id` is an element.
    pub(crate) fn attrs_mut(&mut self, id: NodeId) -> &mut Vec<Attribute> {
        let Data::Element { attrs, .. } = &mut self.nodes[id.index()].data else {
            panic!("attributes of non-element {id}");
        };
        if *attrs == 0 {
            *attrs = self.attrs.len() as u32;
            self.attrs.push(Vec::new());
        }
        &mut self.attrs[*attrs as usize]
    }

    /// Copies `s` into the parse-time text arena. The parser is its only
    /// writer; an arena past `u32` offsets spills into an owned slot.
    pub(crate) fn parsed_str(&mut self, s: &str) -> Slot {
        match u32::try_from(self.arena.len() + s.len()) {
            Ok(_) => {
                let start = self.arena.len() as u32;
                self.arena.push_str(s);
                Slot::Shared { start, len: s.len() as u32 }
            }
            Err(_) => self.own_str(s.to_owned()),
        }
    }

    /// Appends a continuation piece to the text node the parser created
    /// last: its bytes end the arena, so the span just grows.
    pub(crate) fn extend_parsed_text(&mut self, id: NodeId, piece: &str) {
        let Data::Text(slot) = self.nodes[id.index()].data else { return };
        let slot = match slot {
            Slot::Shared { start, len }
                if start as usize + len as usize == self.arena.len()
                    && u32::try_from(self.arena.len() + piece.len()).is_ok() =>
            {
                self.arena.push_str(piece);
                Slot::Shared { start, len: len + piece.len() as u32 }
            }
            Slot::Owned(i) => {
                self.strs[i as usize].push_str(piece);
                slot
            }
            Slot::Shared { .. } => {
                let text = format!("{}{piece}", self.str(slot));
                self.own_str(text)
            }
        };
        self.nodes[id.index()].data = Data::Text(slot);
    }

    /// Sets a parsed element's child list: appends `kids` to the
    /// parse-time child array (called once per element, at its end tag).
    pub(crate) fn set_parsed_kids(&mut self, id: NodeId, kids: &[NodeId]) {
        if kids.is_empty() {
            return;
        }
        let start = self.shared_kids.len() as u32;
        self.shared_kids.extend_from_slice(kids);
        if let Data::Element { kids: k, .. } = &mut self.nodes[id.index()].data {
            *k = Slot::Shared { start, len: kids.len() as u32 };
        }
    }

    /// Stores a string in an owned slot of its own.
    pub(crate) fn own_str(&mut self, s: String) -> Slot {
        self.strs.push(s);
        Slot::Owned((self.strs.len() - 1) as u32)
    }

    /// Replaces the text of text node `id`: in place when it already has
    /// an owned slot, else in a new one (a parsed node's old bytes stay
    /// behind in the arena). `false` if `id` is not a text node.
    pub(crate) fn set_text(&mut self, id: NodeId, text: &str) -> bool {
        match self.nodes[id.index()].data {
            Data::Text(Slot::Owned(i)) => {
                let t = &mut self.strs[i as usize];
                t.clear();
                t.push_str(text);
            }
            Data::Text(Slot::Shared { .. }) => {
                let slot = self.own_str(text.to_owned());
                self.nodes[id.index()].data = Data::Text(slot);
            }
            _ => return false,
        }
        true
    }

    /// The owned child list of element `id`, moving it out of the
    /// parse-time array on first touch. Callers guarantee `id` is an
    /// element.
    pub(crate) fn kids_mut(&mut self, id: NodeId) -> &mut Vec<NodeId> {
        let Data::Element { kids, .. } = self.nodes[id.index()].data else {
            panic!("child list of non-element {id}");
        };
        let i = match kids {
            Slot::Owned(i) => i,
            Slot::Shared { .. } => {
                let list = self.kids_of(&self.nodes[id.index()]).to_vec();
                self.set_kids(id, list)
            }
        };
        &mut self.lists[i as usize]
    }

    /// Replaces the child list of element `id` (reusing its owned slot if
    /// it has one) and returns the slot.
    pub(crate) fn set_kids(&mut self, id: NodeId, list: Vec<NodeId>) -> u32 {
        let Data::Element { kids, .. } = &mut self.nodes[id.index()].data else {
            panic!("child list of non-element {id}");
        };
        match *kids {
            Slot::Owned(i) => {
                self.lists[i as usize] = list;
                i
            }
            Slot::Shared { .. } => {
                let i = self.lists.len() as u32;
                *kids = Slot::Owned(i);
                self.lists.push(list);
                i
            }
        }
    }

    /// Takes the child list of `id`, leaving it empty.
    pub(crate) fn take_kids(&mut self, id: NodeId) -> Vec<NodeId> {
        if self.kids_of(&self.nodes[id.index()]).is_empty() {
            return Vec::new();
        }
        std::mem::take(self.kids_mut(id))
    }

    /// Number of live nodes.
    pub fn live_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.dead).count()
    }

    /// Number of live **element** nodes.
    pub fn element_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.dead && matches!(n.data, Data::Element { .. })).count()
    }

    /// Iterator over all live element nodes in document (pre)order,
    /// starting at the root.
    pub fn elements(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.descendants(self.root).filter(move |&id| self.name_id(id).is_some())
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
            if self.name_id(n).is_some() {
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
    /// document order — the paper's `content(w)`. Iterative, like every
    /// other traversal here, so any depth is fine.
    pub fn content(&self, id: NodeId) -> String {
        let mut out = String::new();
        for t in self.descendants(id).filter_map(|n| self.text(n)) {
            out.push_str(t);
        }
        out
    }

    /// Validates internal structural invariants; used by tests and after
    /// batches of edits. Returns an error describing the first violation.
    ///
    /// Checked: the root is live and parentless; every live node's storage
    /// handles (name id, attribute slot, text span or owned slot, child
    /// range or owned list) are in bounds; every child listed by a live
    /// element — from the parse-time array or an owned list — is live and
    /// names that element as its parent; and every live node is reached
    /// from the root exactly once.
    pub fn check_integrity(&self) -> Result<()> {
        if !self.is_alive(self.root) {
            return Err(XmlError::edit("root is dead"));
        }
        if self.nodes[self.root.index()].parent != NodeId::NONE {
            return Err(XmlError::edit("root has a parent"));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.dead {
                continue;
            }
            if !self.handles_in_bounds(n) {
                return Err(XmlError::edit(format!("node #{i} has a storage handle out of bounds")));
            }
            for &c in self.kids_of(n) {
                let Some(child) = self.nodes.get(c.index()) else {
                    return Err(XmlError::edit(format!("node #{i} lists missing child {c}")));
                };
                if child.dead {
                    return Err(XmlError::edit(format!("node #{i} has dead child {c}")));
                }
                if child.parent != NodeId(i as u32) {
                    return Err(XmlError::edit(format!(
                        "child {c} of #{i} has wrong parent {}",
                        child.parent
                    )));
                }
            }
        }
        // Every live node must be reached from the root, and only once.
        let mut seen = vec![false; self.nodes.len()];
        for n in self.descendants(self.root) {
            if std::mem::replace(&mut seen[n.index()], true) {
                return Err(XmlError::edit(format!("node {n} is listed twice")));
            }
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.dead && !seen[i] {
                return Err(XmlError::edit(format!("node #{i} is live but unreachable")));
            }
        }
        Ok(())
    }

    /// Whether every storage handle of `n` points inside its store.
    fn handles_in_bounds(&self, n: &Node) -> bool {
        let str_ok = |s: Slot| match s {
            Slot::Shared { start, len } => {
                self.arena.get(start as usize..start as usize + len as usize).is_some()
            }
            Slot::Owned(i) => (i as usize) < self.strs.len(),
        };
        match n.data {
            Data::Element { name, kids, attrs } => {
                name.index() < self.names.len()
                    && (attrs as usize) < self.attrs.len()
                    && match kids {
                        Slot::Shared { start, len } => {
                            start as usize + len as usize <= self.shared_kids.len()
                        }
                        Slot::Owned(i) => (i as usize) < self.lists.len(),
                    }
            }
            Data::Text(s) | Data::Comment(s) => str_ok(s),
            Data::Pi { text, split } => {
                str_ok(text) && self.str(text).is_char_boundary(split as usize)
            }
        }
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
        // Push children in reverse so they pop in document order.
        self.stack.extend(self.doc.children(id).iter().rev());
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
        (d, a, b, t1)
    }

    #[test]
    fn nodes_stay_small() {
        assert!(std::mem::size_of::<Node>() <= 32, "{}", std::mem::size_of::<Node>());
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
    fn names_are_interned_once() {
        let mut d = Document::new("r");
        let a1 = d.append_element(d.root(), "a").unwrap();
        let a2 = d.append_element(d.root(), "a").unwrap();
        let b = d.append_element(a1, "b").unwrap();
        assert_eq!(d.name_id(a1), d.name_id(a2));
        assert_ne!(d.name_id(a1), d.name_id(b));
        assert_eq!(d.names().collect::<Vec<_>>(), ["r", "a", "b"]);
        assert_eq!(d.name_of(d.name_id(b).unwrap()), "b");
        d.append_text(d.root(), "t").unwrap();
        assert_eq!(d.name_id(d.children(d.root())[2]), None);
    }

    #[test]
    fn kind_views_every_payload() {
        let mut d = Document::new("r");
        d.set_attribute(d.root(), "k", "v").unwrap();
        let t = d.append_text(d.root(), "hi").unwrap();
        let c = d.append_comment(d.root(), "note").unwrap();
        let p = d.append_pi(d.root(), "app", "do it").unwrap();
        match d.kind(d.root()) {
            NodeKind::Element { name, attrs } => {
                assert_eq!(name, "r");
                assert_eq!(attrs[0].value, "v");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(d.kind(t), NodeKind::Text("hi"));
        assert_eq!(d.kind(c), NodeKind::Comment("note"));
        assert_eq!(d.kind(p), NodeKind::Pi { target: "app", data: "do it" });
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

    #[test]
    fn integrity_catches_a_child_listed_twice() {
        let (mut d, a, _, _) = sample();
        let root = d.root();
        d.kids_mut(root).push(a);
        assert!(d.check_integrity().is_err());
    }
}
