//! # pv-xml — XML substrate for potential-validity checking
//!
//! A from-scratch, dependency-free XML layer providing exactly what the
//! ICDE 2006 paper *On Potential Validity of Document-Centric XML Documents*
//! needs from its document model:
//!
//! * one **XML lexer**, the resumable push parser ([`PushParser`]), which
//!   turns byte chunks into SAX-style [`Event`]s for streaming validation,
//!   and runs in place over a complete document in memory ([`lex`]),
//! * a **well-formedness parser** ([`parse`]): a small tree builder over the
//!   push parser's events, producing an arena-based [`Document`] (the DOM
//!   trees of the paper's Figure 2),
//! * a **serializer** ([`Document::to_xml`]) that round-trips the token
//!   structure,
//! * **edit operations** mirroring the paper's update taxonomy (Section 3.2):
//!   markup insertion/deletion of well-formed tag pairs, character-data
//!   insertion/update/deletion ([`Document::wrap_children`],
//!   [`Document::unwrap_element`], [`Document::insert_text`], …),
//! * document-order traversal, depth computation, and the interned element
//!   names and child lists that the `δ_T` / `Δ_T` operators of `pv-core`
//!   are built on.
//!
//! The parser handles the document-centric XML subset relevant to potential
//! validity: elements, attributes, character data, CDATA sections, comments,
//! processing instructions, numeric/named character references, and a
//! `<!DOCTYPE … [internal subset]>` whose internal subset is captured verbatim
//! (so `pv-dtd` can parse it). Attribute values and non-structural elements of
//! the XML spec (external DTD subsets, full entity machinery) are out of
//! scope, as in the paper (footnote 3: attributes never affect potential
//! validity).

pub mod edit;
pub mod error;
pub mod escape;
pub mod parser;
pub mod serialize;
pub mod stream;
pub mod tree;

pub use error::{XmlError, XmlErrorKind};
pub use parser::parse;
pub use stream::{lex, Event, PushParser};
pub use tree::{Attribute, Document, Doctype, NameId, NodeId, NodeKind};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, XmlError>;
