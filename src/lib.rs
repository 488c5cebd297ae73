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
//! * [`par`] ([`pv_par`]) — the work-stealing parallelism layer: one
//!   persistent [`pv_par::Pool`] of parked workers per process, behind
//!   `pvx check --jobs` and the resident service alike;
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
//! Element nodes are independent ECPV instances, so big documents and
//! corpora shard across the workers of one persistent pool — with
//! outcomes **bit-identical** to the sequential checker (same
//! first-failing node in document order, same work counters), so
//! parallelism is purely a wall-clock decision. Pool regions are
//! `'static`, so documents travel in an `Arc`:
//!
//! ```
//! use std::sync::Arc;
//! use potential_validity::prelude::*;
//!
//! let checker = CheckEngine::new(BuiltinDtd::Play.analysis());
//! let pool = Pool::new(0); // one parked worker per CPU
//! let play = Arc::new(pv_workload::corpus::play(2_000));
//!
//! // One large document, per-node sharding over every pool worker.
//! let outcome = checker.check_document_pooled(&play, &pool, 0, true);
//! assert!(outcome.is_potentially_valid());
//! assert_eq!(outcome, checker.check_document(&play));
//!
//! // A corpus, per-document sharding: outcome i == check_document(&docs[i]).
//! let docs = Arc::new(pv_workload::corpus::batch(BuiltinDtd::Play, 8, 300).unwrap());
//! let outcomes = checker.check_batch_pooled(&docs, &pool, 0);
//! assert!(outcomes.iter().all(|o| o.is_potentially_valid()));
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
