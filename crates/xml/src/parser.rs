//! Well-formedness XML parser producing a [`Document`] arena.
//!
//! [`parse`] is a small tree builder over the crate's one lexer (see
//! [`crate::stream`]). The lexer runs over the caller's string in place,
//! with end of input known from the start, and pushes each event into the
//! builder, which turns it into arena nodes in event order: the first
//! start tag creates the root, later start tags allocate elements, a
//! character-data run (or CDATA section) becomes one text node however
//! many pieces it arrives in, and comments and PIs inside the root
//! allocate nodes. The `<!DOCTYPE>` the lexer captured is attached last.
//!
//! Node payloads go to the document's parse-time storage (see
//! [`crate::tree`]): element names are interned, text, comment and PI
//! bytes are appended to one arena, and the ids of an open element's
//! children collect on a pending stack until its end tag copies them, as
//! one range, into the document's flat child array. So a parent's child
//! list is written once, not grown one push at a time.
//!
//! The accepted language and every error (kind and byte offset) are
//! therefore the lexer's, the same as a [`crate::PushParser`] fed the
//! input in any chunking. The open-element stack is explicit, so
//! arbitrarily deep documents (which the depth-bound experiments of
//! `pv-bench` generate) parse fine.

use crate::stream::{lex, Event};
use crate::tree::{Data, Document, NodeId};
use crate::Result;

/// Parses a complete XML document (one root element; prolog and trailing
/// misc allowed).
pub fn parse(input: &str) -> Result<Document> {
    let mut tree = Builder::default();
    let doctype = lex(input, |event| tree.event(event))?;
    let mut doc = tree.doc;
    assert!(!doc.nodes.is_empty(), "a complete event stream starts with the root's start tag");
    doc.doctype = doctype;
    debug_assert!(doc.check_integrity().is_ok());
    Ok(doc)
}

/// The tree under construction: the document (its root is the first
/// element allocated), the open-element stack, each entry with the
/// position in `pending` where its children start, and the text node that
/// continuation pieces extend.
struct Builder {
    doc: Document,
    open: Vec<(NodeId, usize)>,
    pending: Vec<NodeId>,
    text: Option<NodeId>,
}

impl Default for Builder {
    fn default() -> Self {
        Builder { doc: Document::empty(), open: Vec::new(), pending: Vec::new(), text: None }
    }
}

impl Builder {
    fn event(&mut self, event: Event<'_>) {
        match event {
            Event::Start { name, attrs, self_closing } => {
                let id = self.doc.alloc_element(name, attrs);
                self.adopt(id);
                if !self_closing {
                    self.open.push((id, self.pending.len()));
                }
            }
            Event::End { .. } => {
                if let Some((id, first)) = self.open.pop() {
                    self.doc.set_parsed_kids(id, &self.pending[first..]);
                    self.pending.truncate(first);
                }
            }
            Event::Text { piece, first: true } => {
                let slot = self.doc.parsed_str(piece);
                let id = self.doc.alloc(Data::Text(slot));
                self.adopt(id);
                self.text = Some(id);
            }
            Event::Text { piece, first: false } => {
                if let Some(id) = self.text {
                    self.doc.extend_parsed_text(id, piece);
                }
            }
            Event::Comment { text } => {
                let slot = self.doc.parsed_str(text);
                let id = self.doc.alloc(Data::Comment(slot));
                self.adopt(id);
            }
            Event::Pi { target, data } => {
                let text = self.doc.parsed_str(&format!("{target}{data}"));
                let id = self.doc.alloc(Data::Pi { text, split: target.len() as u32 });
                self.adopt(id);
            }
        }
    }

    /// Makes `id` the next child of the innermost open element. The lexer
    /// emits nothing outside the root element but the root's own start
    /// tag, which has no parent.
    fn adopt(&mut self, id: NodeId) {
        if let Some(&(parent, _)) = self.open.last() {
            self.doc.nodes[id.index()].parent = parent;
            self.pending.push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::XmlErrorKind;
    use crate::tree::NodeKind;

    /// The children of `id` as names, text in quotes, `!` for a comment
    /// and `?` for a PI.
    fn child_view(doc: &Document, id: NodeId) -> Vec<String> {
        doc.children(id)
            .iter()
            .map(|&c| match doc.kind(c) {
                NodeKind::Element { name, .. } => name.to_owned(),
                NodeKind::Text(t) => format!("{t:?}"),
                NodeKind::Comment(_) => "!".to_owned(),
                NodeKind::Pi { .. } => "?".to_owned(),
            })
            .collect()
    }

    #[test]
    fn parses_paper_example_string_w() {
        // Example 1, string w (the one rejected for potential validity).
        let w = "<r><a><b>A quick brown</b><e></e><c> fox jumps over a lazy</c> dog</a></r>";
        let doc = parse(w).unwrap();
        assert_eq!(doc.name(doc.root()), Some("r"));
        let a = doc.children(doc.root())[0];
        assert_eq!(doc.name(a), Some("a"));
        assert_eq!(child_view(&doc, a), ["b", "e", "c", "\" dog\""]);
        assert_eq!(doc.content(doc.root()), "A quick brown fox jumps over a lazy dog");
    }

    #[test]
    fn parses_paper_example_string_s() {
        let s = "<r><a><b>A quick brown</b><c> fox jumps over a lazy</c> dog<e></e></a></r>";
        let doc = parse(s).unwrap();
        let a = doc.children(doc.root())[0];
        assert_eq!(child_view(&doc, a), ["b", "c", "\" dog\"", "e"]);
    }

    #[test]
    fn self_closing_tags() {
        let doc = parse("<r><a/><b x='1'/></r>").unwrap();
        assert_eq!(doc.children(doc.root()).len(), 2);
    }

    #[test]
    fn attributes_parse_and_resolve_references() {
        let doc = parse(r#"<r a="1" b='two &amp; three'/>"#).unwrap();
        if let NodeKind::Element { attrs, .. } = doc.kind(doc.root()) {
            assert_eq!(attrs.len(), 2);
            assert_eq!(&*attrs[1].name, "b");
            assert_eq!(attrs[1].value, "two & three");
        } else {
            panic!()
        }
    }

    #[test]
    fn duplicate_attribute_rejected() {
        assert!(matches!(
            parse(r#"<r a="1" a="2"/>"#).unwrap_err().kind,
            XmlErrorKind::DuplicateAttribute(_)
        ));
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(matches!(
            parse("<r><a></b></r>").unwrap_err().kind,
            XmlErrorKind::MismatchedTag { .. }
        ));
    }

    #[test]
    fn unclosed_tag_rejected() {
        assert!(matches!(parse("<r><a>").unwrap_err().kind, XmlErrorKind::UnclosedTag(_)));
    }

    #[test]
    fn unopened_close_rejected() {
        assert!(matches!(parse("</r>").unwrap_err().kind, XmlErrorKind::UnopenedTag(_)));
    }

    #[test]
    fn trailing_content_rejected() {
        assert!(matches!(parse("<r/><x/>").unwrap_err().kind, XmlErrorKind::TrailingContent));
        assert!(parse("<r/>  \n").is_ok());
        assert!(parse("<r/><!-- ok --><?pi ok?>").is_ok());
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(parse("").unwrap_err().kind, XmlErrorKind::NoRootElement));
        assert!(matches!(parse("   ").unwrap_err().kind, XmlErrorKind::NoRootElement));
    }

    #[test]
    fn character_references_in_text() {
        let doc = parse("<r>&lt;&#65;&gt; &amp; &#x42;</r>").unwrap();
        assert_eq!(doc.content(doc.root()), "<A> & B");
    }

    #[test]
    fn bad_entity_rejected() {
        assert!(matches!(
            parse("<r>&nope;</r>").unwrap_err().kind,
            XmlErrorKind::InvalidReference(_)
        ));
    }

    #[test]
    fn cdata_becomes_text() {
        let doc = parse("<r><![CDATA[<not-a-tag> & stuff]]></r>").unwrap();
        assert_eq!(doc.content(doc.root()), "<not-a-tag> & stuff");
    }

    #[test]
    fn comments_and_pis_kept() {
        let doc = parse("<r><!-- note --><?app do?></r>").unwrap();
        assert_eq!(child_view(&doc, doc.root()), ["!", "?"]);
        let pi = doc.children(doc.root())[1];
        assert_eq!(doc.kind(pi), NodeKind::Pi { target: "app", data: "do" });
    }

    #[test]
    fn double_dash_in_comment_rejected() {
        assert!(parse("<r><!-- a -- b --></r>").is_err());
    }

    #[test]
    fn xml_decl_and_doctype() {
        let src = r#"<?xml version="1.0"?>
<!DOCTYPE r [
  <!ELEMENT r (a+)>
  <!ELEMENT a (#PCDATA)>
]>
<r><a>x</a></r>"#;
        let doc = parse(src).unwrap();
        let dt = doc.doctype.as_ref().unwrap();
        assert_eq!(dt.name, "r");
        assert!(dt.internal_subset.as_ref().unwrap().contains("<!ELEMENT r (a+)>"));
    }

    #[test]
    fn doctype_with_system_id() {
        let src = r#"<!DOCTYPE html SYSTEM "http://example.org/x.dtd"><html/>"#;
        let doc = parse(src).unwrap();
        assert_eq!(doc.doctype.as_ref().unwrap().name, "html");
        assert!(doc.doctype.as_ref().unwrap().internal_subset.is_none());
    }

    #[test]
    fn deep_nesting_does_not_overflow() {
        let n = 50_000;
        let mut src = String::new();
        for _ in 0..n {
            src.push_str("<a>");
        }
        for _ in 0..n {
            src.push_str("</a>");
        }
        let doc = parse(&src).unwrap();
        assert_eq!(doc.document_depth(), n);
    }

    #[test]
    fn content_of_a_deep_document_fits_the_default_test_stack() {
        let n = 50_000;
        let src = format!("{}x{}", "<a>".repeat(n), "</a>".repeat(n));
        let content = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let doc = parse(&src).unwrap();
                doc.content(doc.root())
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(content, "x");
    }

    #[test]
    fn whitespace_only_text_is_kept() {
        let doc = parse("<r> <a/> </r>").unwrap();
        // two whitespace text nodes + element: δ_T counts any non-empty data
        assert_eq!(child_view(&doc, doc.root()), ["\" \"", "a", "\" \""]);
    }

    #[test]
    fn invalid_name_rejected() {
        assert!(parse("<1r/>").is_err());
    }

    #[test]
    fn lt_in_attribute_rejected() {
        assert!(parse(r#"<r a="<"/>"#).is_err());
    }
}
