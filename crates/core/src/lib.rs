//! # pv-core — potential validity of document-centric XML documents
//!
//! The primary contribution of Iacob, Dekhtyar & Dekhtyar, *On Potential
//! Validity of Document-Centric XML Documents* (ICDE 2006): deciding, in
//! linear time, whether an in-progress XML document can still be completed
//! into a valid one using **markup insertions only**.
//!
//! ## The problem
//!
//! During document-centric editing (marking up pre-existing text), the
//! working document is almost never valid. Two very different situations
//! hide behind "invalid":
//!
//! 1. the encoding is merely **incomplete** — more tags will fix it;
//! 2. the encoding **contradicts** the DTD — no amount of additional markup
//!    can ever fix it.
//!
//! A document of the first kind is *potentially valid* (Definition 3:
//! `w ∈ D*(T, r)` iff some extension `ω ∈ Ext(w, T)` is valid). An editor
//! wants to keep the invariant "the buffer is always potentially valid" and
//! to check it **incrementally** after every edit.
//!
//! ## What this crate provides
//!
//! * [`token`] — the `δ_T` and `Δ_T` operators: XML documents to token
//!   strings over `{<x>, </x>, σ}` (Sections 3.1 and 4).
//! * [`dag`] — the per-element DAG model `DAG_x` built from PV-normalized
//!   content models (Section 4.2, Figure 4).
//! * [`recognizer`] — the **ECRecognizer** algorithm (Figure 5): a greedy,
//!   depth-bounded recognizer solving Element Content Potential Validity
//!   in `O(k·D)` per input symbol (Theorem 4).
//! * [`engine`] — [`CheckEngine`], the one checker: it owns the compiled
//!   DTD, its DAGs, the memo and the depth budget, is shared via
//!   `Arc`, and checks a document's bytes (no tree) or a parsed tree on
//!   the calling thread, or a batch of texts on a persistent
//!   [`pv_par::Pool`], one document per task.
//! * [`checker`] — whole-document potential validity (Problem PV) by
//!   running ECPV at every element node, with diagnostics pointing at the
//!   offending node and symbol.
//! * [`memo`] — the transition cache: recognizer configurations are
//!   hash-consed into ids and `(configuration, child symbol)` steps are
//!   cached with their stats delta, so repetitive markup checks in one
//!   table probe per child symbol, with outcomes bit-identical to the
//!   uncached checker. Every check, guard and editor query steps through
//!   it; an engine lends its one cache to one scan at a time, and with
//!   the memo off a scan runs with no cache.
//! * [`incremental`] — update-time checks for editors: O(1) character-data
//!   insertion (Proposition 3), free deletions and data updates
//!   (Theorem 2), and two-node checks for markup insertion.
//! * [`suggest`] — editor guidance (the paper's xTagger editor \[10\]):
//!   which symbols may come next at a position (autocomplete), and which
//!   elements may wrap a range of children (the tag palette).
//! * [`depth`] — depth policies: `Unbounded` is proven safe for
//!   non-PV-strong DTDs (elision chains follow strong edges only); the
//!   paper's bound `D` applies to PV-strong DTDs (Section 4.3.1).
//!
//! ## Quick start
//!
//! ```
//! use pv_dtd::builtin::BuiltinDtd;
//! use pv_core::CheckEngine;
//!
//! let checker = CheckEngine::new(BuiltinDtd::Figure1.analysis());
//!
//! // Example 1 of the paper: `s` is potentially valid …
//! let s = pv_xml::parse(
//!     "<r><a><b>A quick brown</b><c> fox jumps over a lazy</c> dog<e></e></a></r>",
//! ).unwrap();
//! assert!(checker.check_document(&s).is_potentially_valid());
//!
//! // … while `w` is not: the order b, e, c contradicts the DTD.
//! let w = "<r><a><b>A quick brown</b><e></e><c> fox jumps over a lazy</c> dog</a></r>";
//! assert!(!checker.check_document(&pv_xml::parse(w).unwrap()).is_potentially_valid());
//!
//! // The same check straight from the bytes, with no tree.
//! assert!(!checker.check_str(w, true).unwrap().is_potentially_valid());
//! ```

#![warn(missing_docs)]

pub mod checker;
pub mod dag;
pub mod depth;
pub mod engine;
pub mod incremental;
pub mod memo;
pub mod recognizer;
pub mod stream;
pub mod suggest;
pub mod token;

pub use checker::{CheckScratch, PvOutcome, PvViolation, PvViolationKind};
pub use engine::CheckEngine;
pub use dag::{DagNode, DagNodeKind, DagSet, ElementDag};
pub use depth::DepthPolicy;
pub use memo::MemoStats;
pub use recognizer::{EcRecognizer, RecognizerStats};
pub use stream::{StreamCheck, StreamChecker};
pub use token::{ChildSym, Tok, TokenError, Tokens};
