//! # pv-editor — potential-validity-guarded editing sessions
//!
//! The application layer the paper was written for: its authors' xTagger
//! editor \[10\] keeps a human editor's in-progress, document-centric XML
//! buffer **always potentially valid**, so that the markup campaign can
//! always be finished without undoing work.
//!
//! An [`EditorSession`] owns a document and a [`pv_core::CheckEngine`] and
//! exposes the paper's update taxonomy with exactly the incremental costs
//! of Sections 3.2/4:
//!
//! | operation              | guard                                    |
//! |------------------------|------------------------------------------|
//! | [`EditorSession::update_text`], [`EditorSession::delete_text`], [`EditorSession::delete_markup`] | none — PV-preserving (Theorem 2) |
//! | [`EditorSession::insert_text`] | one reachability bit (Proposition 3, O(1)) |
//! | [`EditorSession::insert_markup`], [`EditorSession::wrap_text`] | two ECPV runs (node + parent) |
//! | [`EditorSession::rename`] | two ECPV runs |
//!
//! Operations that would break potential validity are rejected and rolled
//! back; the session also offers [`EditorSession::allowed_wraps`] — the
//! "which tags can I apply to this selection?" query a tag-palette UI
//! needs — and an undo stack.
//!
//! Undo (and guard rollback) is a **reverse-operation journal**: every
//! applied edit records the O(edit-size) inverse ops that revert it, so no
//! operation ever clones the document. The session's engine keeps its
//! transition cache warm across edits, so a guard's repeated recognizer
//! steps are table probes.

mod journal;
pub mod session;

pub use session::{EditError, EditorSession, SessionStats};
