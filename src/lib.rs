//! # potential-validity — umbrella crate
//!
//! A complete Rust implementation of Iacob, Dekhtyar & Dekhtyar,
//! *On Potential Validity of Document-Centric XML Documents* (ICDE 2006):
//! linear-time checking of whether an in-progress XML document can still be
//! completed into a valid one by inserting markup only.
//!
//! This crate re-exports the whole workspace:
//!
//! * [`xml`] ([`pv_xml`]) — XML parser, arena DOM, serializer, edit ops;
//! * [`dtd`] ([`pv_dtd`]) — DTD parser, normalization, reachability,
//!   recursion classification, built-in DTD corpus;
//! * [`grammar`] ([`pv_grammar`]) — the validity/PV grammars, standard
//!   validator, Earley baseline, extension witnesses, brute-force oracle;
//! * [`core`] ([`pv_core`]) — the paper's contribution: `δ_T`/`Δ_T`,
//!   the per-element DAG model, the ECRecognizer, whole-document and
//!   incremental potential-validity checking;
//! * [`par`] ([`pv_par`]) — the parallelism layer: one persistent
//!   [`pv_par::Pool`] of parked workers per process, behind batch checks
//!   and the resident service's `BATCH` verb;
//! * [`service`] ([`pv_service`]) — the resident validation server and
//!   its client (`pvx serve` / `pvx check --remote`): warm caches,
//!   parked workers, a newline-framed length-prefixed wire protocol;
//! * [`workload`] ([`pv_workload`]) — random DTD/document/trace generators;
//! * [`editor`] ([`pv_editor`]) — always-potentially-valid editing
//!   sessions.
//!
//! ## Quickstart
//!
//! ```
//! use potential_validity::prelude::*;
//!
//! // Compile a DTD (the paper's Figure 1) into a checker once…
//! let checker = CheckEngine::new(BuiltinDtd::Figure1.analysis());
//!
//! // …and check in-progress documents in linear time.
//! let doc = pv_xml::parse("<r><a><b>A quick brown</b> fox</a></r>").unwrap();
//! assert!(checker.check_document(&doc).is_potentially_valid());
//! ```
//!
//! ## Parallel quickstart
//!
//! Documents are independent Problem PV instances, so corpora shard
//! across the workers of one persistent pool, one task per document —
//! with outcomes **bit-identical** to the sequential checker (same
//! first-failing node in document order, same work counters), so
//! parallelism is purely a wall-clock decision. A single document is
//! never split. Pool regions are `'static`, so batches travel in an
//! `Arc`:
//!
//! ```
//! use std::sync::Arc;
//! use potential_validity::prelude::*;
//!
//! let checker = CheckEngine::new(BuiltinDtd::Play.analysis());
//! let pool = Pool::new(0); // one parked worker per CPU
//!
//! // A corpus as text, one task per document, each lexed straight into
//! // its check: outcome i == check_document(&parse(&docs[i])?).
//! let corpus = pv_workload::corpus::batch(BuiltinDtd::Play, 8, 300).unwrap();
//! let docs = Arc::new(corpus.iter().map(Document::to_xml).collect());
//! let outcomes = checker.check_batch_pooled(&docs, &pool, 0);
//! assert!(outcomes.iter().all(|o| o.as_ref().is_ok_and(PvOutcome::is_potentially_valid)));
//! let tree = pv_xml::parse(&docs[3]).unwrap();
//! assert_eq!(outcomes[3], Ok(checker.check_document(&tree)));
//! ```

pub use pv_core as core;
pub use pv_par as par;
pub use pv_dtd as dtd;
pub use pv_editor as editor;
pub use pv_grammar as grammar;
pub use pv_service as service;
pub use pv_workload as workload;
pub use pv_xml as xml;

/// The most common imports in one place.
pub mod prelude {
    pub use pv_core::checker::{PvOutcome, PvViolation};
    pub use pv_core::depth::DepthPolicy;
    pub use pv_core::engine::CheckEngine;
    pub use pv_core::token::{ChildSym, Tok, Tokens};
    pub use pv_dtd::builtin::BuiltinDtd;
    pub use pv_dtd::{Dtd, DtdAnalysis, DtdClass};
    pub use pv_editor::{EditError, EditorSession};
    pub use pv_grammar::validator::validate_document;
    pub use pv_grammar::witness::{complete_document, complete_tokens};
    pub use pv_par::Pool;
    pub use pv_xml::{parse, Document, NodeId};
}
