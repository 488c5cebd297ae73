//! Mutation operators over documents.
//!
//! * [`Mutator::delete_random_markup`] — removes random tag pairs
//!   ([`pv_xml::Document::unwrap_element`]). By **Theorem 2** this always
//!   preserves potential validity, so applying it to a valid document
//!   yields guaranteed-PV (usually invalid) workloads — the exact shape of
//!   an in-progress document-centric encoding.
//! * [`Mutator::swap_random_siblings`] / [`Mutator::rename_random_element`] — perturbations
//!   that frequently break potential validity, for negative workloads;
//!   the caller labels results with an oracle.

use pv_dtd::Dtd;
use pv_xml::{Document, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Deterministic mutator.
pub struct Mutator {
    rng: StdRng,
}

impl Mutator {
    /// Creates a mutator from a seed.
    pub fn new(seed: u64) -> Self {
        Mutator { rng: StdRng::seed_from_u64(seed) }
    }

    /// Unwraps up to `count` random non-root elements (markup deletion,
    /// PV-preserving by Theorem 2). Returns how many were removed.
    pub fn delete_random_markup(&mut self, doc: &mut Document, count: usize) -> usize {
        let mut removed = 0;
        for _ in 0..count {
            let candidates: Vec<NodeId> =
                doc.elements().filter(|&n| n != doc.root()).collect();
            if candidates.is_empty() {
                break;
            }
            let pick = candidates[self.rng.random_range(0..candidates.len())];
            doc.unwrap_element(pick).expect("unwrap of live non-root element");
            removed += 1;
        }
        removed
    }

    /// Swaps two random adjacent element siblings somewhere in the
    /// document. Returns `true` if a swap happened.
    pub fn swap_random_siblings(&mut self, doc: &mut Document) -> bool {
        let parents: Vec<NodeId> = doc
            .elements()
            .filter(|&n| {
                let kids = doc.children(n);
                kids.iter().filter(|&&c| doc.kind(c).is_element()).count() >= 2
            })
            .collect();
        if parents.is_empty() {
            return false;
        }
        let parent = parents[self.rng.random_range(0..parents.len())];
        let elem_positions: Vec<usize> = doc
            .children(parent)
            .iter()
            .enumerate()
            .filter(|(_, &c)| doc.kind(c).is_element())
            .map(|(i, _)| i)
            .collect();
        let which = self.rng.random_range(0..elem_positions.len() - 1);
        let (i, j) = (elem_positions[which], elem_positions[which + 1]);
        // Swap by rebuilding the child vec through wrap/unwrap-free surgery:
        // pv-xml keeps children public only through ops, so emulate with
        // wrap+unwrap… simpler: use the dedicated test-support method below.
        swap_children(doc, parent, i, j);
        true
    }

    /// Renames one random non-root element to another declared name.
    /// Returns the renamed node, if any.
    pub fn rename_random_element(&mut self, doc: &mut Document, dtd: &Dtd) -> Option<NodeId> {
        let candidates: Vec<NodeId> = doc.elements().filter(|&n| n != doc.root()).collect();
        if candidates.is_empty() || dtd.is_empty() {
            return None;
        }
        let pick = candidates[self.rng.random_range(0..candidates.len())];
        let new_id = self.rng.random_range(0..dtd.len());
        let new_name = dtd.name(pv_dtd::ElemId(new_id as u32)).to_owned();
        doc.rename_element(pick, &new_name).ok()?;
        Some(pick)
    }
}

fn swap_children(doc: &mut Document, parent: NodeId, i: usize, j: usize) {
    assert!(i < j);
    let kids: Vec<NodeId> = doc.children(parent).to_vec();
    doc.swap_siblings(parent, kids[i], kids[j]).expect("valid sibling swap");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docgen::DocGen;
    use pv_dtd::builtin::BuiltinDtd;

    #[test]
    fn delete_markup_reduces_elements() {
        let analysis = BuiltinDtd::Play.analysis();
        let mut doc = DocGen::new(&analysis, 1).generate(100);
        let before = doc.element_count();
        let removed = Mutator::new(9).delete_random_markup(&mut doc, 20);
        assert_eq!(removed, 20);
        assert_eq!(doc.element_count(), before - 20);
        doc.check_integrity().unwrap();
    }

    #[test]
    fn delete_markup_preserves_content() {
        let analysis = BuiltinDtd::TeiLite.analysis();
        let mut doc = DocGen::new(&analysis, 2).generate(80);
        let content = doc.content(doc.root());
        Mutator::new(1).delete_random_markup(&mut doc, 15);
        assert_eq!(doc.content(doc.root()), content, "Theorem 2 setting: text untouched");
    }

    #[test]
    fn swap_changes_order() {
        let mut doc = pv_xml::parse("<r><a/><b/></r>").unwrap();
        let r = doc.root();
        let before: Vec<NodeId> = doc.children(r).to_vec();
        assert!(Mutator::new(3).swap_random_siblings(&mut doc));
        let after: Vec<NodeId> = doc.children(r).to_vec();
        assert_eq!(before[0], after[1]);
        assert_eq!(before[1], after[0]);
        doc.check_integrity().unwrap();
    }

    #[test]
    fn swap_on_flat_document_is_noop() {
        let mut doc = pv_xml::parse("<r><a/></r>").unwrap();
        assert!(!Mutator::new(3).swap_random_siblings(&mut doc));
    }

    #[test]
    fn rename_uses_declared_names() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let mut doc = pv_xml::parse("<r><a><b/><c/><d/></a></r>").unwrap();
        let node = Mutator::new(5)
            .rename_random_element(&mut doc, &analysis.dtd)
            .expect("candidates exist");
        let name = doc.name(node).unwrap();
        assert!(analysis.dtd.id(name).is_some());
    }
}
