//! Property-based tests for the XML substrate itself: round-trips, edit
//! algebra, and parser robustness against adversarial input.

use proptest::prelude::*;
use pv_xml::{parse, Document, NodeId, NodeKind};

/// Strategy: a small random tree program (sequence of build steps).
fn build_ops() -> impl Strategy<Value = Vec<(u8, u8, String)>> {
    prop::collection::vec(
        (0u8..4, any::<u8>(), "[a-z]{0,8}"),
        0..40,
    )
}

/// Applies build steps to a document, always keeping it well-formed.
fn build(ops: &[(u8, u8, String)]) -> Document {
    let mut doc = Document::new("root");
    let mut elements: Vec<NodeId> = vec![doc.root()];
    for (op, pick, text) in ops {
        let parent = elements[*pick as usize % elements.len()];
        match op {
            0 | 1 => {
                let name = if text.is_empty() { "x".to_owned() } else { format!("e{text}") };
                let id = doc.append_element(parent, &name).unwrap();
                elements.push(id);
            }
            2 => {
                doc.append_text(parent, text).unwrap();
            }
            _ => {
                doc.append_comment(parent, text).unwrap();
            }
        }
    }
    doc
}

/// `doc` rebuilt through `Document::new` and the `append_*` builders, so
/// every text node and child list sits in an owned slot, where a parsed
/// document keeps them in its parse-time arenas. Node ids match `doc`'s
/// when `doc` is freshly parsed: both allocate in document order.
fn rebuild(doc: &Document) -> Document {
    let root = doc.root();
    let mut copy = Document::new(doc.name(root).unwrap());
    for n in doc.descendants(root) {
        let parent = doc.parent(n).unwrap_or(root);
        let id = match doc.kind(n) {
            _ if n == root => root,
            NodeKind::Element { name, .. } => copy.append_element(parent, name).unwrap(),
            NodeKind::Text(t) => copy.append_text(parent, t).unwrap(),
            NodeKind::Comment(c) => copy.append_comment(parent, c).unwrap(),
            NodeKind::Pi { target, data } => copy.append_pi(parent, target, data).unwrap(),
        };
        assert_eq!(id, n, "rebuild allocates in document order");
        if let NodeKind::Element { attrs, .. } = doc.kind(n) {
            for a in attrs {
                copy.set_attribute(id, &a.name, &a.value).unwrap();
            }
        }
    }
    copy
}

/// The inverse of the last edit, when it was a text deletion or an unwrap.
enum Inverse {
    Restore { id: NodeId, parent: NodeId, index: usize },
    Rewrap { id: NodeId, parent: NodeId, index: usize, count: usize },
}

/// Applies one step of a random edit script, picking its targets from the
/// document's current shape. Returns whether the edit succeeded; `undo`
/// holds the inverse of the previous step if it has one.
fn apply_edit(
    doc: &mut Document,
    (op, a, b, text): &(u8, u8, u8, String),
    undo: &mut Option<Inverse>,
) -> bool {
    let root = doc.root();
    let elements: Vec<NodeId> = doc.elements().collect();
    let inner: Vec<NodeId> = elements.iter().copied().filter(|&n| n != root).collect();
    let texts: Vec<NodeId> = doc.descendants(root).filter(|&n| doc.text(n).is_some()).collect();
    let pick = |xs: &[NodeId], k: u8| (!xs.is_empty()).then(|| xs[k as usize % xs.len()]);
    let element = pick(&elements, *a).expect("the root is an element");
    let len = doc.children(element).len();
    let (lo, hi) = {
        let (x, y) = (*b as usize % (len + 1), *a as usize / 7 % (len + 1));
        (x.min(y), x.max(y))
    };
    let name = if text.is_empty() { "x".to_owned() } else { format!("e{text}") };
    let last = undo.take();
    match op {
        0 => doc.wrap_children(element, lo..hi, &name).is_ok(),
        1 => {
            let Some(id) = pick(&inner, *a) else { return false };
            let (parent, index, count) =
                (doc.parent(id).unwrap(), doc.child_index(id).unwrap(), doc.children(id).len());
            *undo = Some(Inverse::Rewrap { id, parent, index, count });
            doc.unwrap_element(id).is_ok()
        }
        2 => doc.insert_text(element, *b as usize, text).is_ok(),
        3 => pick(&texts, *a).is_some_and(|t| doc.update_text(t, text).is_ok()),
        4 => {
            let Some(id) = pick(&texts, *a) else { return false };
            let (parent, index) = (doc.parent(id).unwrap(), doc.child_index(id).unwrap());
            *undo = Some(Inverse::Restore { id, parent, index });
            doc.delete_text(id).is_ok()
        }
        5 => doc.rename_element(element, &name).is_ok(),
        6 => doc.set_attribute(element, &format!("k{}", b % 3), text).is_ok(),
        7 => {
            let kids = doc.children(element).to_vec();
            !kids.is_empty()
                && doc.swap_siblings(element, kids[lo % kids.len()], kids[hi % kids.len()]).is_ok()
        }
        8 => {
            let victims: Vec<NodeId> = doc.descendants(root).skip(1).collect();
            pick(&victims, *b).is_some_and(|v| doc.remove_subtree(v).is_ok())
        }
        9 => match pick(&texts, *a) {
            Some(t) => {
                let n = doc.text(t).unwrap().len();
                let (x, y) = (*b as usize % (n + 1), *a as usize % (n + 1));
                doc.wrap_text_range(t, x.min(y), x.max(y), &name).is_ok()
            }
            None => false,
        },
        _ => match last {
            Some(Inverse::Restore { id, parent, index }) => {
                doc.restore_node(id, parent, index).is_ok()
            }
            Some(Inverse::Rewrap { id, parent, index, count }) => {
                doc.rewrap_children(id, parent, index, count).is_ok()
            }
            None => false,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// parse(serialize(d)) reproduces the serialization exactly
    /// (serialization is a normal form).
    #[test]
    fn serialize_parse_serialize_is_identity(ops in build_ops()) {
        let doc = build(&ops);
        let xml = doc.to_xml();
        let back = parse(&xml).unwrap();
        prop_assert_eq!(back.to_xml(), xml);
        back.check_integrity().unwrap();
    }

    /// Content is preserved through serialization.
    #[test]
    fn content_survives_roundtrip(ops in build_ops()) {
        let doc = build(&ops);
        let back = parse(&doc.to_xml()).unwrap();
        prop_assert_eq!(back.content(back.root()), doc.content(doc.root()));
    }

    /// The parser never panics on arbitrary input — it returns Ok or Err.
    #[test]
    fn parser_total_on_arbitrary_input(input in ".{0,200}") {
        let _ = parse(&input);
    }

    /// The parser never panics on tag-soup-shaped input either.
    #[test]
    fn parser_total_on_tag_soup(parts in prop::collection::vec("(<[a-z]{1,3}>|</[a-z]{1,3}>|[a-z ]{0,5}|<!--x-->|&amp;|&#65;|<[a-z]/>)", 0..30)) {
        let soup: String = parts.concat();
        let _ = parse(&soup);
    }

    /// Any successfully parsed document satisfies the arena invariants and
    /// serializes without panicking.
    #[test]
    fn parsed_documents_are_sound(parts in prop::collection::vec("(<a>|</a>|<b>|</b>|x|<c/>)", 0..24)) {
        let soup: String = parts.concat();
        if let Ok(doc) = parse(&soup) {
            doc.check_integrity().unwrap();
            let xml = doc.to_xml();
            let back = parse(&xml).unwrap();
            prop_assert_eq!(back.to_xml(), xml);
        }
    }

    /// wrap_children followed by unwrap_element restores the child list for
    /// arbitrary trees and ranges.
    #[test]
    fn wrap_unwrap_inverse(ops in build_ops(), a in any::<u8>(), b in any::<u8>()) {
        let mut doc = build(&ops);
        let before = doc.to_xml();
        let root = doc.root();
        let n = doc.children(root).len();
        let (lo, hi) = {
            let x = a as usize % (n + 1);
            let y = b as usize % (n + 1);
            (x.min(y), x.max(y))
        };
        let w = doc.wrap_children(root, lo..hi, "wrapper").unwrap();
        prop_assert_eq!(doc.children(w).len(), hi - lo);
        doc.unwrap_element(w).unwrap();
        prop_assert_eq!(doc.to_xml(), before);
        doc.check_integrity().unwrap();
    }

    /// remove_subtree never leaves dangling references.
    #[test]
    fn remove_subtree_keeps_invariants(ops in build_ops(), pick in any::<u8>()) {
        let mut doc = build(&ops);
        let victims: Vec<NodeId> =
            doc.elements().filter(|&n| n != doc.root()).collect();
        if victims.is_empty() {
            return Ok(());
        }
        let victim = victims[pick as usize % victims.len()];
        doc.remove_subtree(victim).unwrap();
        doc.check_integrity().unwrap();
        prop_assert!(!doc.is_alive(victim));
    }

    /// wrap_text_range preserves overall content for any valid split.
    #[test]
    fn wrap_text_range_preserves_content(text in "[a-zA-Z ]{1,20}", a in any::<u8>(), b in any::<u8>()) {
        let mut doc = Document::new("r");
        let t = doc.append_text(doc.root(), &text).unwrap();
        let (lo, hi) = {
            let x = a as usize % (text.len() + 1);
            let y = b as usize % (text.len() + 1);
            (x.min(y), x.max(y))
        };
        doc.wrap_text_range(t, lo, hi, "em").unwrap();
        prop_assert_eq!(doc.content(doc.root()), text);
        doc.check_integrity().unwrap();
    }

    /// One edit script applied to a parsed document (text and child lists
    /// in the parse-time arenas) and to the same document rebuilt through
    /// the builders (owned slots): after every step both serialize alike
    /// and pass the integrity check, so moving parsed storage to owned
    /// slots on first edit changes nothing observable.
    #[test]
    fn parsed_and_built_documents_edit_alike(
        ops in build_ops(),
        script in prop::collection::vec((0u8..11, any::<u8>(), any::<u8>(), "[a-z ]{0,6}"), 1..40),
    ) {
        let mut src = build(&ops);
        src.set_attribute(src.root(), "id", "r1").unwrap();
        src.append_pi(src.root(), "app", "go").unwrap();
        let mut parsed = parse(&src.to_xml()).unwrap();
        let mut owned = rebuild(&parsed);
        prop_assert_eq!(owned.to_xml(), parsed.to_xml());
        let (mut undo_parsed, mut undo_owned) = (None, None);
        for step in &script {
            let applied = apply_edit(&mut parsed, step, &mut undo_parsed);
            prop_assert_eq!(apply_edit(&mut owned, step, &mut undo_owned), applied);
            prop_assert_eq!(parsed.to_xml(), owned.to_xml());
            parsed.check_integrity().unwrap();
            owned.check_integrity().unwrap();
        }
    }
}
