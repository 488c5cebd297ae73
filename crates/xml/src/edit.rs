//! Structural edit operations on [`Document`].
//!
//! These mirror the paper's update taxonomy (Sections 3.2 and 4):
//!
//! * **markup insertion** — wrapping a contiguous run of existing children in
//!   a new element so that the document stays well-formed
//!   ([`Document::wrap_children`]); this is the only operation needed to
//!   *extend* a document toward validity (Definition 2),
//! * **markup deletion** — removing a tag pair and splicing its children into
//!   the parent ([`Document::unwrap_element`]); preserves potential validity
//!   (Theorem 2),
//! * **character data insertion** — creating a new text node
//!   ([`Document::insert_text`], [`Document::append_text`]),
//! * **character data update** — changing an existing text node
//!   ([`Document::update_text`]); preserves potential validity (Theorem 2),
//! * **character data deletion** ([`Document::delete_text`]).
//!
//! All operations keep the arena invariants checked by
//! [`Document::check_integrity`] and return [`XmlError::edit`] on violated
//! preconditions rather than panicking, so editor front-ends (`pv-editor`)
//! can surface the failures.

use crate::error::XmlError;
use crate::tree::{Attribute, Data, Document, NodeId};
use crate::Result;

impl Document {
    fn expect_element(&self, id: NodeId, op: &str) -> Result<()> {
        if !self.is_alive(id) {
            return Err(XmlError::edit(format!("{op}: node {id} is not alive")));
        }
        if self.name_id(id).is_none() {
            return Err(XmlError::edit(format!("{op}: node {id} is not an element")));
        }
        Ok(())
    }

    /// Links the detached node `id` at child position `index` of `parent`
    /// (any out-of-range index appends).
    fn link_child(&mut self, parent: NodeId, index: usize, id: NodeId) {
        self.nodes[id.index()].parent = parent;
        let kids = self.kids_mut(parent);
        let at = index.min(kids.len());
        kids.insert(at, id);
    }

    /// Appends a new empty element named `name` as the last child of
    /// `parent`. Returns the new node's id.
    pub fn append_element(&mut self, parent: NodeId, name: &str) -> Result<NodeId> {
        self.insert_element(parent, usize::MAX, name)
    }

    /// Inserts a new empty element at child position `index` of `parent`
    /// (`usize::MAX` or any out-of-range index appends).
    pub fn insert_element(&mut self, parent: NodeId, index: usize, name: &str) -> Result<NodeId> {
        self.expect_element(parent, "insert_element")?;
        let id = self.alloc_element(name, &[]);
        self.link_child(parent, index, id);
        Ok(id)
    }

    /// Appends a text node to `parent`. Returns the new node's id.
    pub fn append_text(&mut self, parent: NodeId, text: &str) -> Result<NodeId> {
        self.insert_text(parent, usize::MAX, text)
    }

    /// Inserts a new text node at child position `index` of `parent`.
    ///
    /// This is the paper's *character data insertion* — the update whose
    /// potential-validity check is O(1) by Proposition 3.
    pub fn insert_text(&mut self, parent: NodeId, index: usize, text: &str) -> Result<NodeId> {
        self.expect_element(parent, "insert_text")?;
        let slot = self.own_str(text.to_owned());
        let id = self.alloc(Data::Text(slot));
        self.link_child(parent, index, id);
        Ok(id)
    }

    /// Appends a comment node to `parent`.
    pub fn append_comment(&mut self, parent: NodeId, text: &str) -> Result<NodeId> {
        self.expect_element(parent, "append_comment")?;
        let slot = self.own_str(text.to_owned());
        let id = self.alloc(Data::Comment(slot));
        self.link_child(parent, usize::MAX, id);
        Ok(id)
    }

    /// Appends a processing instruction to `parent`.
    pub fn append_pi(&mut self, parent: NodeId, target: &str, data: &str) -> Result<NodeId> {
        self.expect_element(parent, "append_pi")?;
        let text = self.own_str(format!("{target}{data}"));
        let id = self.alloc(Data::Pi { text, split: target.len() as u32 });
        self.link_child(parent, usize::MAX, id);
        Ok(id)
    }

    /// Replaces the contents of an existing text node — the paper's
    /// *character data update* (always PV-preserving, Theorem 2).
    pub fn update_text(&mut self, id: NodeId, text: &str) -> Result<()> {
        if !self.is_alive(id) {
            return Err(XmlError::edit(format!("update_text: node {id} is not alive")));
        }
        if self.set_text(id, text) {
            Ok(())
        } else {
            Err(XmlError::edit(format!("update_text: node {id} is not a text node")))
        }
    }

    /// Removes a text node entirely — *character data deletion*.
    pub fn delete_text(&mut self, id: NodeId) -> Result<()> {
        if !self.is_alive(id) {
            return Err(XmlError::edit(format!("delete_text: node {id} is not alive")));
        }
        if self.text(id).is_none() {
            return Err(XmlError::edit(format!("delete_text: node {id} is not a text node")));
        }
        self.detach(id)
    }

    /// **Markup insertion** (Definition 2): wraps children
    /// `parent.children[range]` in a new element named `name`, preserving
    /// order. `range` may be empty (inserting an empty element between
    /// siblings). Returns the new wrapper element's id.
    ///
    /// This is exactly the `w1 <δ> w2 </δ> w3` extension step of the paper:
    /// `w2` is the wrapped run of children, and well-formedness is preserved
    /// by construction because a child run is always a balanced span.
    pub fn wrap_children(
        &mut self,
        parent: NodeId,
        range: std::ops::Range<usize>,
        name: &str,
    ) -> Result<NodeId> {
        self.expect_element(parent, "wrap_children")?;
        let len = self.children(parent).len();
        if range.start > range.end || range.end > len {
            return Err(XmlError::edit(format!(
                "wrap_children: range {range:?} out of bounds for {len} children"
            )));
        }
        let wrapper = self.alloc_element(name, &[]);
        let moved: Vec<NodeId> = self.kids_mut(parent).splice(range, [wrapper]).collect();
        for &m in &moved {
            self.nodes[m.index()].parent = wrapper;
        }
        self.nodes[wrapper.index()].parent = parent;
        self.set_kids(wrapper, moved);
        Ok(wrapper)
    }

    /// Wraps a *character range* of a text node in a new element: splits the
    /// text node at `start`/`end` (byte offsets) and wraps the middle part.
    /// This is the typical "select text, apply tag" gesture of a
    /// document-centric XML editor (the paper's xTagger reference \[10\]).
    ///
    /// Returns `(wrapper, inner_text)` ids.
    pub fn wrap_text_range(
        &mut self,
        text_node: NodeId,
        start: usize,
        end: usize,
        name: &str,
    ) -> Result<(NodeId, NodeId)> {
        if !self.is_alive(text_node) {
            return Err(XmlError::edit("wrap_text_range: node is not alive"));
        }
        let (parent, full) = match (self.parent(text_node), self.text(text_node)) {
            (Some(p), Some(t)) => (p, t.to_owned()),
            (None, _) => return Err(XmlError::edit("wrap_text_range: detached text node")),
            _ => return Err(XmlError::edit("wrap_text_range: not a text node")),
        };
        if start > end || end > full.len() {
            return Err(XmlError::edit(format!(
                "wrap_text_range: bad range {start}..{end} for text of length {}",
                full.len()
            )));
        }
        if !full.is_char_boundary(start) || !full.is_char_boundary(end) {
            return Err(XmlError::edit("wrap_text_range: offsets not on char boundaries"));
        }
        let idx = self
            .child_index(text_node)
            .ok_or_else(|| XmlError::edit("wrap_text_range: node not in parent"))?;

        let (before, rest) = full.split_at(start);
        let (middle, after) = rest.split_at(end - start);

        // Reuse `text_node` for the leading part (or drop it if empty).
        let mut insert_at = idx;
        if before.is_empty() {
            self.detach(text_node)?;
        } else {
            self.update_text(text_node, before)?;
            insert_at += 1;
        }
        let wrapper = self.insert_element(parent, insert_at, name)?;
        let inner = self.append_text(wrapper, middle)?;
        if !after.is_empty() {
            self.insert_text(parent, insert_at + 1, after)?;
        }
        Ok((wrapper, inner))
    }

    /// **Markup deletion** (Theorem 2): removes element `id`'s start/end
    /// tags, splicing its children into its parent at its position. The
    /// element node itself is tombstoned. Fails on the root (the paper keeps
    /// the root fixed: `root(w) = r`).
    pub fn unwrap_element(&mut self, id: NodeId) -> Result<()> {
        self.expect_element(id, "unwrap_element")?;
        let parent = self
            .parent(id)
            .ok_or_else(|| XmlError::edit("unwrap_element: cannot unwrap the root"))?;
        let idx = self
            .child_index(id)
            .ok_or_else(|| XmlError::edit("unwrap_element: node not in parent"))?;
        let moved = self.take_kids(id);
        for &m in &moved {
            self.nodes[m.index()].parent = parent;
        }
        self.kids_mut(parent).splice(idx..=idx, moved);
        let n = &mut self.nodes[id.index()];
        n.dead = true;
        n.parent = NodeId::NONE;
        Ok(())
    }

    /// A tombstoned node's state for the undo primitives: `Err` unless
    /// `id` is dead and childless.
    fn expect_tombstone(&self, id: NodeId, op: &str) -> Result<()> {
        let Some(n) = self.nodes.get(id.index()).filter(|n| n.dead) else {
            return Err(XmlError::edit(format!("{op}: node {id} is not tombstoned")));
        };
        if !self.kids_of(n).is_empty() {
            return Err(XmlError::edit(format!("{op}: node {id} still has children")));
        }
        Ok(())
    }

    /// **Undo primitive** — resurrects a tombstoned *childless* node at
    /// child position `index` of `parent`, with its payload (text,
    /// attributes, name) exactly as it was when it died. This is the
    /// inverse of detaching a leaf (text deletion, or the detach half of
    /// [`Document::wrap_text_range`]); `pv-editor`'s O(edit)-cost undo
    /// journal is its only intended caller.
    ///
    /// Tombstoned arena slots are never reused, so the node's id — and
    /// every id the caller handed out before the deletion — stays valid
    /// across a delete/undo round trip, which a snapshot-based undo could
    /// not guarantee cheaply.
    pub fn restore_node(&mut self, id: NodeId, parent: NodeId, index: usize) -> Result<()> {
        self.expect_element(parent, "restore_node")?;
        self.expect_tombstone(id, "restore_node")?;
        let len = self.children(parent).len();
        if index > len {
            return Err(XmlError::edit(format!(
                "restore_node: index {index} out of bounds for {len} children"
            )));
        }
        self.nodes[id.index()].dead = false;
        self.link_child(parent, index, id);
        Ok(())
    }

    /// **Undo primitive** — the exact inverse of [`Document::unwrap_element`]:
    /// resurrects the tombstoned element `id` and moves children
    /// `parent.children[index .. index + count]` (the run the unwrap
    /// spliced up) back inside it, splicing `id` into their place.
    pub fn rewrap_children(
        &mut self,
        id: NodeId,
        parent: NodeId,
        index: usize,
        count: usize,
    ) -> Result<()> {
        self.expect_element(parent, "rewrap_children")?;
        self.expect_tombstone(id, "rewrap_children")?;
        if !matches!(self.nodes[id.index()].data, Data::Element { .. }) {
            return Err(XmlError::edit(format!("rewrap_children: node {id} is not an element")));
        }
        let len = self.children(parent).len();
        if index.checked_add(count).is_none_or(|end| end > len) {
            return Err(XmlError::edit(format!(
                "rewrap_children: range {index}..{index}+{count} out of bounds for {len} children"
            )));
        }
        let moved: Vec<NodeId> =
            self.kids_mut(parent).splice(index..index + count, [id]).collect();
        for &m in &moved {
            self.nodes[m.index()].parent = id;
        }
        let n = &mut self.nodes[id.index()];
        n.dead = false;
        n.parent = parent;
        self.set_kids(id, moved);
        Ok(())
    }

    /// Removes the whole subtree rooted at `id` (element with all its
    /// descendants, or a single non-element node).
    pub fn remove_subtree(&mut self, id: NodeId) -> Result<()> {
        if !self.is_alive(id) {
            return Err(XmlError::edit("remove_subtree: node is not alive"));
        }
        if id == self.root {
            return Err(XmlError::edit("remove_subtree: cannot remove the root"));
        }
        let subtree: Vec<NodeId> = self.descendants(id).collect();
        self.detach(id)?;
        for n in subtree {
            self.take_kids(n);
            let node = &mut self.nodes[n.index()];
            node.dead = true;
            node.parent = NodeId::NONE;
        }
        Ok(())
    }

    /// Detaches `id` from its parent and tombstones it (children untouched —
    /// callers handle them). Internal helper.
    fn detach(&mut self, id: NodeId) -> Result<()> {
        let parent = self
            .parent(id)
            .ok_or_else(|| XmlError::edit("detach: node has no parent"))?;
        let idx = self
            .child_index(id)
            .ok_or_else(|| XmlError::edit("detach: node not in parent"))?;
        self.kids_mut(parent).remove(idx);
        let n = &mut self.nodes[id.index()];
        n.dead = true;
        n.parent = NodeId::NONE;
        Ok(())
    }

    /// Swaps the positions of two children of `parent`. Unlike the
    /// PV-preserving operations above, reordering can break potential
    /// validity — callers must re-check (used by mutation workloads).
    pub fn swap_siblings(&mut self, parent: NodeId, a: NodeId, b: NodeId) -> Result<()> {
        self.expect_element(parent, "swap_siblings")?;
        let kids = self.children(parent);
        let ia = kids.iter().position(|&c| c == a);
        let ib = kids.iter().position(|&c| c == b);
        match (ia, ib) {
            (Some(ia), Some(ib)) => {
                self.kids_mut(parent).swap(ia, ib);
                Ok(())
            }
            _ => Err(XmlError::edit("swap_siblings: nodes are not children of parent")),
        }
    }

    /// Sets an attribute on an element (replacing an existing one of the
    /// same name).
    pub fn set_attribute(&mut self, id: NodeId, name: &str, value: &str) -> Result<()> {
        self.expect_element(id, "set_attribute")?;
        let attr = Attribute { name: name.into(), value: value.to_owned() };
        let list = self.attrs_mut(id);
        match list.iter_mut().find(|a| &*a.name == name) {
            Some(a) => a.value = attr.value,
            None => list.push(attr),
        }
        Ok(())
    }

    /// Renames an element. Note that renaming is **not** one of the paper's
    /// PV-preserving operations; `pv-editor` re-checks after a rename.
    pub fn rename_element(&mut self, id: NodeId, name: &str) -> Result<()> {
        self.expect_element(id, "rename_element")?;
        let new = self.intern(name);
        if let Data::Element { name, .. } = &mut self.nodes[id.index()].data {
            *name = new;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::NodeKind;

    #[test]
    fn wrap_children_moves_range() {
        // <r>a b c d</r> -> wrap [1..3) in <x>
        let mut d = Document::new("r");
        let kids: Vec<NodeId> =
            ["a", "b", "c", "dd"].iter().map(|n| d.append_element(d.root(), n).unwrap()).collect();
        let x = d.wrap_children(d.root(), 1..3, "x").unwrap();
        assert_eq!(d.children(d.root()), &[kids[0], x, kids[3]]);
        assert_eq!(d.children(x), &[kids[1], kids[2]]);
        assert_eq!(d.parent(kids[1]), Some(x));
        d.check_integrity().unwrap();
    }

    #[test]
    fn wrap_empty_range_inserts_empty_element() {
        let mut d = Document::new("r");
        let a = d.append_element(d.root(), "a").unwrap();
        let x = d.wrap_children(d.root(), 0..0, "x").unwrap();
        assert_eq!(d.children(d.root()), &[x, a]);
        assert!(d.children(x).is_empty());
        d.check_integrity().unwrap();
    }

    #[test]
    fn wrap_rejects_bad_range() {
        let mut d = Document::new("r");
        assert!(d.wrap_children(d.root(), 0..1, "x").is_err());
    }

    #[test]
    fn unwrap_splices_children_back() {
        let mut d = Document::new("r");
        let a = d.append_element(d.root(), "a").unwrap();
        let x = d.wrap_children(d.root(), 0..1, "x").unwrap();
        d.unwrap_element(x).unwrap();
        assert_eq!(d.children(d.root()), &[a]);
        assert_eq!(d.parent(a), Some(d.root()));
        assert!(!d.is_alive(x));
        d.check_integrity().unwrap();
    }

    #[test]
    fn wrap_then_unwrap_is_identity_on_structure() {
        let mut d = Document::new("r");
        for n in ["a", "b", "c"] {
            d.append_element(d.root(), n).unwrap();
        }
        let before: Vec<NodeId> = d.children(d.root()).to_vec();
        let x = d.wrap_children(d.root(), 0..3, "x").unwrap();
        d.unwrap_element(x).unwrap();
        assert_eq!(d.children(d.root()), &before[..]);
    }

    #[test]
    fn unwrap_root_fails() {
        let mut d = Document::new("r");
        assert!(d.unwrap_element(d.root()).is_err());
    }

    #[test]
    fn wrap_text_range_splits_text() {
        let mut d = Document::new("r");
        let t = d.append_text(d.root(), "hello world").unwrap();
        let (w, inner) = d.wrap_text_range(t, 6, 11, "em").unwrap();
        assert_eq!(d.text(inner), Some("world"));
        assert_eq!(d.name(w), Some("em"));
        assert_eq!(d.content(d.root()), "hello world");
        assert_eq!(d.children(d.root()).len(), 2); // "hello " + <em>
        d.check_integrity().unwrap();
    }

    #[test]
    fn wrap_text_range_whole_text_replaces_node() {
        let mut d = Document::new("r");
        let t = d.append_text(d.root(), "abc").unwrap();
        let (w, _) = d.wrap_text_range(t, 0, 3, "em").unwrap();
        assert_eq!(d.children(d.root()), &[w]);
        assert!(!d.is_alive(t));
        d.check_integrity().unwrap();
    }

    #[test]
    fn wrap_text_range_middle_creates_three_parts() {
        let mut d = Document::new("r");
        let t = d.append_text(d.root(), "abcdef").unwrap();
        d.wrap_text_range(t, 2, 4, "em").unwrap();
        assert_eq!(d.children(d.root()).len(), 3);
        assert_eq!(d.content(d.root()), "abcdef");
        d.check_integrity().unwrap();
    }

    #[test]
    fn update_text_changes_content() {
        let mut d = Document::new("r");
        let t = d.append_text(d.root(), "old").unwrap();
        d.update_text(t, "new").unwrap();
        assert_eq!(d.text(t), Some("new"));
    }

    #[test]
    fn update_text_on_element_fails() {
        let mut d = Document::new("r");
        let a = d.append_element(d.root(), "a").unwrap();
        assert!(d.update_text(a, "x").is_err());
    }

    #[test]
    fn delete_text_removes_node() {
        let mut d = Document::new("r");
        let t = d.append_text(d.root(), "x").unwrap();
        d.delete_text(t).unwrap();
        assert!(d.children(d.root()).is_empty());
        assert!(!d.is_alive(t));
        d.check_integrity().unwrap();
    }

    #[test]
    fn restore_node_resurrects_deleted_text() {
        let mut d = Document::new("r");
        let a = d.append_element(d.root(), "a").unwrap();
        let t = d.append_text(d.root(), "x").unwrap();
        d.delete_text(t).unwrap();
        assert!(!d.is_alive(t));
        d.restore_node(t, d.root(), 1).unwrap();
        assert!(d.is_alive(t));
        assert_eq!(d.text(t), Some("x"));
        assert_eq!(d.children(d.root()), &[a, t]);
        d.check_integrity().unwrap();
        // A live node cannot be restored again.
        assert!(d.restore_node(t, d.root(), 0).is_err());
        // Nor at an out-of-range index.
        d.delete_text(t).unwrap();
        assert!(d.restore_node(t, d.root(), 5).is_err());
    }

    #[test]
    fn rewrap_children_inverts_unwrap_exactly() {
        let mut d = Document::new("r");
        let kids: Vec<NodeId> =
            ["a", "b", "c"].iter().map(|n| d.append_element(d.root(), n).unwrap()).collect();
        let x = d.wrap_children(d.root(), 1..3, "x").unwrap();
        let before: Vec<NodeId> = d.children(d.root()).to_vec();
        d.unwrap_element(x).unwrap();
        assert_eq!(d.children(d.root()), &[kids[0], kids[1], kids[2]]);
        d.rewrap_children(x, d.root(), 1, 2).unwrap();
        assert_eq!(d.children(d.root()), &before[..]);
        assert_eq!(d.children(x), &[kids[1], kids[2]]);
        assert_eq!(d.parent(kids[1]), Some(x));
        d.check_integrity().unwrap();
        // Bad ranges and live targets are refused.
        assert!(d.rewrap_children(x, d.root(), 0, 1).is_err());
        let y = d.wrap_children(d.root(), 0..0, "y").unwrap();
        d.unwrap_element(y).unwrap();
        assert!(d.rewrap_children(y, d.root(), 1, 9).is_err());
        // Zero-count rewrap resurrects an empty wrapper (inverse of
        // unwrapping an empty element).
        d.rewrap_children(y, d.root(), 0, 0).unwrap();
        assert!(d.children(y).is_empty());
        d.check_integrity().unwrap();
    }

    #[test]
    fn remove_subtree_tombstones_descendants() {
        let mut d = Document::new("r");
        let a = d.append_element(d.root(), "a").unwrap();
        let b = d.append_element(a, "b").unwrap();
        d.remove_subtree(a).unwrap();
        assert!(!d.is_alive(a));
        assert!(!d.is_alive(b));
        assert!(d.children(d.root()).is_empty());
        d.check_integrity().unwrap();
    }

    #[test]
    fn set_attribute_replaces() {
        let mut d = Document::new("r");
        d.set_attribute(d.root(), "id", "1").unwrap();
        d.set_attribute(d.root(), "id", "2").unwrap();
        if let NodeKind::Element { attrs, .. } = d.kind(d.root()) {
            assert_eq!(attrs.len(), 1);
            assert_eq!(attrs[0].value, "2");
        } else {
            panic!("root not element");
        }
    }

    #[test]
    fn rename_changes_name() {
        let mut d = Document::new("r");
        let a = d.append_element(d.root(), "a").unwrap();
        d.rename_element(a, "z").unwrap();
        assert_eq!(d.name(a), Some("z"));
    }
}
