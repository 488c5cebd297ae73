//! Editorial traces: replayable operation sequences that rebuild a valid
//! document from a less-marked-up (but always potentially valid) state —
//! the paper's motivating workflow, synthesized.
//!
//! Construction inverts Theorem 2: starting from a valid document, unwrap
//! `k` random elements (each deletion is PV-preserving, so *every prefix*
//! of the inverse re-wrap trace is potentially valid); the trace is the
//! sequence of wrap operations restoring the original. Replaying it through
//! `pv-editor` exercises exactly the incremental markup-insertion checks.

use pv_xml::{Document, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One replayable editing step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// Wrap children `range` of the element found at `path` in a new
    /// element `name`. Paths are child-index sequences from the root,
    /// counting only live children at replay time.
    WrapChildren {
        /// Path from the root (child indices).
        path: Vec<usize>,
        /// Child range to wrap.
        range: std::ops::Range<usize>,
        /// New element name.
        name: String,
    },
}

/// A trace plus its starting document.
#[derive(Debug, Clone)]
pub struct EditorialTrace {
    /// The starting (stripped, potentially valid) document.
    pub start: Document,
    /// Operations restoring full markup.
    pub ops: Vec<TraceOp>,
}

/// Resolves a child-index path to a node.
pub fn resolve_path(doc: &Document, path: &[usize]) -> Option<NodeId> {
    let mut cur = doc.root();
    for &i in path {
        cur = *doc.children(cur).get(i)?;
    }
    Some(cur)
}

/// Computes the child-index path of `node`.
fn path_of(doc: &Document, node: NodeId) -> Vec<usize> {
    let mut path = Vec::new();
    let mut cur = node;
    while let Some(parent) = doc.parent(cur) {
        path.push(doc.child_index(cur).expect("attached child"));
        cur = parent;
    }
    path.reverse();
    path
}

/// Builds a trace by stripping `strip` random elements from `valid_doc`.
///
/// The returned ops, applied in order to `start`, reproduce a document
/// token-equivalent to `valid_doc`; every intermediate state is
/// potentially valid (it is an intermediate extension of `start` toward
/// `valid_doc`).
pub fn strip_and_trace(valid_doc: &Document, strip: usize, seed: u64) -> EditorialTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut doc = valid_doc.clone();
    // Record inverse ops as we unwrap; replaying them in reverse restores.
    let mut inverse: Vec<TraceOp> = Vec::new();
    for _ in 0..strip {
        let candidates: Vec<NodeId> = doc.elements().filter(|&n| n != doc.root()).collect();
        if candidates.is_empty() {
            break;
        }
        let pick = candidates[rng.random_range(0..candidates.len())];
        let parent = doc.parent(pick).expect("non-root");
        let idx = doc.child_index(pick).expect("attached");
        let child_count = doc.children(pick).len();
        let name = doc.name(pick).expect("element").to_owned();
        let parent_path = path_of(&doc, parent);
        doc.unwrap_element(pick).expect("unwrap non-root");
        inverse.push(TraceOp::WrapChildren {
            path: parent_path,
            range: idx..idx + child_count,
            name,
        });
    }
    inverse.reverse();
    EditorialTrace { start: doc, ops: inverse }
}

/// Applies a trace without any checking (the checked replay lives in
/// `pv-editor`); returns the final document.
pub fn replay_unchecked(trace: &EditorialTrace) -> Document {
    let mut doc = trace.start.clone();
    for op in &trace.ops {
        match op {
            TraceOp::WrapChildren { path, range, name } => {
                let parent = resolve_path(&doc, path).expect("trace path resolves");
                doc.wrap_children(parent, range.clone(), name).expect("trace wrap applies");
            }
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;
    use crate::docgen::DocGen;
    use pv_core::CheckEngine;
    use pv_dtd::builtin::BuiltinDtd;
    use pv_grammar::validator::validate_document;

    #[test]
    fn replay_restores_structure() {
        let analysis = BuiltinDtd::TeiLite.analysis();
        let doc = DocGen::new(&analysis, 4).generate(80);
        let trace = strip_and_trace(&doc, 25, 7);
        let restored = replay_unchecked(&trace);
        assert_eq!(restored.to_xml(), doc.to_xml());
    }

    #[test]
    fn start_document_is_potentially_valid() {
        let analysis = BuiltinDtd::Play.analysis();
        let doc = corpus::play(200);
        let trace = strip_and_trace(&doc, 60, 3);
        // The stripped start is usually invalid…
        let strictly_valid = validate_document(&trace.start, &analysis.dtd, analysis.root).is_ok();
        let _ = strictly_valid; // (may or may not hold; PV must)
        // …but always potentially valid (Theorem 2).
        let checker = CheckEngine::new(analysis.clone());
        assert!(checker.check_document(&trace.start).is_potentially_valid());
    }

    #[test]
    fn every_prefix_is_potentially_valid() {
        let analysis = BuiltinDtd::XhtmlBasic.analysis();
        let doc = corpus::xhtml(60);
        let trace = strip_and_trace(&doc, 20, 11);
        let checker = CheckEngine::new(analysis.clone());
        let mut cur = trace.start.clone();
        assert!(checker.check_document(&cur).is_potentially_valid());
        for op in &trace.ops {
            match op {
                TraceOp::WrapChildren { path, range, name } => {
                    let parent = resolve_path(&cur, path).unwrap();
                    cur.wrap_children(parent, range.clone(), name).unwrap();
                }
            }
            assert!(checker.check_document(&cur).is_potentially_valid());
        }
        // Final state is fully valid again.
        validate_document(&cur, &analysis.dtd, analysis.root).unwrap();
    }

    #[test]
    fn strip_zero_is_identity() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let doc = DocGen::new(&analysis, 1).generate(20);
        let trace = strip_and_trace(&doc, 0, 0);
        assert!(trace.ops.is_empty());
        assert_eq!(trace.start.to_xml(), doc.to_xml());
    }

    #[test]
    fn path_resolution_roundtrips() {
        let doc = pv_xml::parse("<r><a><b/><c/></a><d/></r>").unwrap();
        let a = doc.children(doc.root())[0];
        let c = doc.children(a)[1];
        assert_eq!(path_of(&doc, c), vec![0, 1]);
        assert_eq!(resolve_path(&doc, &[0, 1]), Some(c));
        assert_eq!(resolve_path(&doc, &[5]), None);
    }
}
