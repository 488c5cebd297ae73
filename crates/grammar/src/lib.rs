//! # pv-grammar — ECFG substrate, baselines and witnesses
//!
//! Grammar-level machinery for the ICDE 2006 potential-validity paper
//! (Section 3):
//!
//! * [`ecfg`] — the extended context-free grammars `G_{T,r}` (validity) and
//!   `G'_{T,r}` (potential validity, Theorem 1), represented as recursive
//!   transition networks: one NFA per element nonterminal, with *call*
//!   edges for nested elements. `G'` is `G` plus the tag-elision bypass
//!   `X → X̂`. Includes the nullability analysis behind Theorem 3.
//! * [`validator`] — a standard DTD validator (is `δ_T(w) ∈ L(G)`?) via NFA
//!   subset simulation, linear-time.
//! * [`earley`] — an Earley recognizer for the (highly ambiguous) `G'`,
//!   with the nullable-completion fix that Theorem 3 makes mandatory. This
//!   is the paper's "standard CFG parsing" baseline that ECRecognizer is
//!   measured against.
//! * [`witness`] — constructs an *extension witness*: a concrete
//!   `ω ∈ Ext(w, T)` that is valid, materializing Definition 2 (and the
//!   paper's Figure 3 completion) whenever the document is potentially
//!   valid.
//! * [`naive`] — a brute-force tag-insertion search, the ground-truth
//!   oracle for differential testing on tiny instances.
//! * [`oracle`] — the cached-grammar [`oracle::EarleyOracle`] for *bulk*
//!   differential comparison: one grammar per DTD, whole corpora checked
//!   against a `CheckEngine` in one call (the completeness suites' API).
//! * [`derivative`] — a Brzozowski-derivative content matcher: a second,
//!   code-independent implementation of content-model matching that
//!   cross-checks the NFA validator.

#![warn(missing_docs)]

pub mod derivative;
pub mod earley;
pub mod ecfg;
pub mod naive;
pub mod oracle;
pub mod validator;
pub mod witness;

pub use earley::EarleyRecognizer;
pub use ecfg::{Grammar, GrammarMode};
pub use oracle::{Divergence, EarleyOracle};
pub use validator::{validate_document, validate_tokens, ValidityViolation};
pub use witness::{complete_document, complete_tokens, Witness};
