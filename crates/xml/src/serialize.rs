//! Serialization of [`Document`] trees back to XML text.
//!
//! The serializer is the inverse of the parser on the *token view*: parsing
//! the output of [`Document::to_xml`] yields a document with an identical
//! structure and character data (verified by property tests). Exact byte
//! round-tripping is a non-goal (entity references are normalized).

use crate::escape::{escape_attr, escape_text};
use crate::tree::{Document, NodeId, NodeKind};

impl Document {
    /// Serializes the whole document (without an XML declaration or
    /// doctype; see [`Document::to_xml_with_doctype`]).
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_node(self.root(), &mut out);
        out
    }

    /// Serializes with the captured doctype (if any) re-emitted first.
    pub fn to_xml_with_doctype(&self) -> String {
        let mut out = String::new();
        if let Some(dt) = &self.doctype {
            out.push_str("<!DOCTYPE ");
            out.push_str(&dt.name);
            if let Some(subset) = &dt.internal_subset {
                out.push_str(" [");
                out.push_str(subset);
                out.push(']');
            }
            out.push_str(">\n");
        }
        self.write_node(self.root(), &mut out);
        out
    }

    /// Serializes the subtree rooted at `id`.
    pub fn subtree_to_xml(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.write_node(id, &mut out);
        out
    }

    fn write_node(&self, id: NodeId, out: &mut String) {
        // Iterative serializer: explicit stack of (node, child-cursor) so
        // pathologically deep documents do not overflow the call stack.
        enum Step {
            Enter(NodeId),
            Close(NodeId),
        }
        let mut stack = vec![Step::Enter(id)];
        while let Some(step) = stack.pop() {
            match step {
                Step::Enter(n) => match self.kind(n) {
                    NodeKind::Text(t) => escape_text(t, out),
                    NodeKind::Comment(c) => {
                        out.push_str("<!--");
                        out.push_str(c);
                        out.push_str("-->");
                    }
                    NodeKind::Pi { target, data } => {
                        out.push_str("<?");
                        out.push_str(target);
                        if !data.is_empty() {
                            out.push(' ');
                            out.push_str(data);
                        }
                        out.push_str("?>");
                    }
                    NodeKind::Element { name, attrs } => {
                        out.push('<');
                        out.push_str(name);
                        for a in attrs {
                            out.push(' ');
                            out.push_str(&a.name);
                            out.push_str("=\"");
                            escape_attr(&a.value, out);
                            out.push('"');
                        }
                        let children = self.children(n);
                        // Empty text nodes serialize to nothing; treating
                        // them as absent keeps serialization a normal form
                        // (parse ∘ serialize ∘ parse = parse).
                        let effectively_empty =
                            children.iter().all(|&c| self.text(c).is_some_and(str::is_empty));
                        if effectively_empty {
                            out.push_str("/>");
                        } else {
                            out.push('>');
                            stack.push(Step::Close(n));
                            for &c in children.iter().rev() {
                                stack.push(Step::Enter(c));
                            }
                        }
                    }
                },
                Step::Close(n) => {
                    out.push_str("</");
                    out.push_str(self.name(n).expect("close of non-element"));
                    out.push('>');
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn roundtrip_simple() {
        let src = "<r><a><b>A quick brown</b><c> fox</c> dog<e/></a></r>";
        let doc = parse(src).unwrap();
        assert_eq!(doc.to_xml(), src);
    }

    #[test]
    fn empty_elements_self_close() {
        let doc = parse("<r><a></a></r>").unwrap();
        assert_eq!(doc.to_xml(), "<r><a/></r>");
    }

    #[test]
    fn text_is_escaped() {
        let mut doc = Document::new("r");
        doc.append_text(doc.root(), "a < b & c > d").unwrap();
        assert_eq!(doc.to_xml(), "<r>a &lt; b &amp; c &gt; d</r>");
        // and it parses back to the same content
        let back = parse(&doc.to_xml()).unwrap();
        assert_eq!(back.content(back.root()), "a < b & c > d");
    }

    #[test]
    fn attributes_serialize_escaped() {
        let mut doc = Document::new("r");
        doc.set_attribute(doc.root(), "t", "say \"hi\" & go").unwrap();
        let xml = doc.to_xml();
        assert_eq!(xml, r#"<r t="say &quot;hi&quot; &amp; go"/>"#);
        let back = parse(&xml).unwrap();
        if let NodeKind::Element { attrs, .. } = back.kind(back.root()) {
            assert_eq!(attrs[0].value, "say \"hi\" & go");
        }
    }

    #[test]
    fn doctype_reemitted() {
        let src = "<!DOCTYPE r [<!ELEMENT r EMPTY>]>\n<r/>";
        let doc = parse(src).unwrap();
        let xml = doc.to_xml_with_doctype();
        assert!(xml.starts_with("<!DOCTYPE r [<!ELEMENT r EMPTY>]>"));
        assert!(xml.ends_with("<r/>"));
    }

    #[test]
    fn comments_and_pis_roundtrip() {
        let src = "<r><!-- note --><?app data?></r>";
        let doc = parse(src).unwrap();
        assert_eq!(doc.to_xml(), src);
    }

    #[test]
    fn subtree_serialization() {
        let doc = parse("<r><a><b/>text</a><c/></r>").unwrap();
        let a = doc.children(doc.root())[0];
        assert_eq!(doc.subtree_to_xml(a), "<a><b/>text</a>");
    }

    #[test]
    fn deep_document_serializes_iteratively() {
        let n = 50_000;
        let mut src = String::new();
        for _ in 0..n {
            src.push_str("<a>");
        }
        for _ in 0..n {
            src.push_str("</a>");
        }
        let doc = parse(&src).unwrap();
        let xml = doc.to_xml();
        // The innermost empty <a></a> self-closes, everything else round-trips.
        let back = parse(&xml).unwrap();
        assert_eq!(back.document_depth(), n);
        assert_eq!(back.to_xml(), xml);
    }
}
