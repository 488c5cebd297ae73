//! # pv-dtd — DTD substrate for potential-validity checking
//!
//! A from-scratch Document Type Definition layer implementing everything the
//! ICDE 2006 paper *On Potential Validity of Document-Centric XML Documents*
//! assumes about schemas:
//!
//! * a **DTD parser** ([`Dtd::parse`]) for `<!ELEMENT>` declarations (plus
//!   `<!ATTLIST>`/`<!ENTITY>`/comments/PIs, which are parsed and recorded but
//!   — per the paper's footnote 3 — never affect potential validity),
//! * the **content-model AST** ([`ContentSpec`], [`Cp`]) with `EMPTY`, `ANY`,
//!   mixed content and full regular-expression children models,
//! * **normalization** (Corollary 3.1 + Proposition 1): drop `?`, rewrite
//!   `+ → *`, and flatten every maximal *star-group* to its element set
//!   ([`normalize`]),
//! * the **reachability graph** `R_T` and its precomputed lookup table `LT`
//!   (Definition 5, [`reach::Reachability`]),
//! * **usability** analysis (productive + reachable elements, Section 3.3),
//! * the **recursion classification** of Definitions 6–8: non-recursive /
//!   PV-weak recursive / PV-strong recursive ([`classify`]),
//! * a corpus of **built-in DTDs**: the paper's Figure 1 DTD, the `T1`/`T2`
//!   examples, and realistic document-centric schemas (TEI-like, XHTML-like,
//!   DocBook-like, Shakespeare-play-like) used by tests and benchmarks.
//!
//! The one-stop entry point for checkers is [`analysis::DtdAnalysis`], which
//! bundles the normalized models, lookup table, classification and stats.
//! On top of it sits the static analyzer ([`budget::StaticReport`]):
//! Glushkov determinism classification ([`glushkov`]) and speculation-budget
//! certification ([`budget`]), reported by `pvx analyze`, `pvx check -v`
//! and the service at `LOAD` time. The same Glushkov construction judges
//! the declared models for `pvx lint`.

#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod budget;
pub mod builtin;
pub mod classify;
pub mod error;
pub mod glushkov;
pub mod normalize;
pub mod parser;
pub mod reach;
pub mod stats;
pub mod usable;

pub use analysis::DtdAnalysis;
pub use ast::{ContentSpec, Cp, Dtd, ElemId, ElementDecl};
pub use budget::{BudgetReport, BudgetVerdict, StaticReport};
pub use classify::{DtdClass, RecursionInfo};
pub use glushkov::{AmbiguityWitness, Determinism};
pub use error::{DtdError, DtdErrorKind};
pub use normalize::{Atom, GroupSet, NormCp, NormModel, NormalizedDtd};
pub use reach::Reachability;
pub use stats::DtdStats;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, DtdError>;
