//! Workloads that more than one `experiments` table checks: table X7's
//! large document is also table X8's real-corpus anchor, and X7's mixed
//! batch leads with it — retuning a workload here retunes every table
//! and `BENCH_*.json` record that uses it.

use pv_dtd::builtin::BuiltinDtd;
use pv_workload::corpus;
use pv_workload::mutate::Mutator;
use pv_xml::Document;

/// Worker counts swept by table X7.
pub const PARALLEL_JOBS: [usize; 4] = [1, 2, 4, 8];

/// The large-document workload: one in-progress play document (~10k
/// target elements → ~24k δ tokens, 20% of the markup stripped).
pub fn parallel_doc() -> Document {
    let mut doc = corpus::play(10_000);
    Mutator::new(7).delete_random_markup(&mut doc, 2_000);
    doc
}

/// The batch workload: 24 play documents with sizes jittered over
/// `[400, 1200)` elements (irregular on purpose, so workers finish their
/// documents at different times).
pub fn parallel_batch() -> Vec<Document> {
    corpus::batch(BuiltinDtd::Play, 24, 800).expect("play has a corpus builder")
}

/// The mixed batch: [`parallel_doc`] first, then 23 of the
/// [`parallel_batch`] documents — one document about ten times the size
/// of each of the others.
pub fn mixed_batch() -> Vec<Document> {
    let mut docs = parallel_batch();
    docs.truncate(23);
    docs.insert(0, parallel_doc());
    docs
}

/// Target element count of the memoization workloads.
pub const MEMO_NODES: usize = 10_000;

/// The repetitive memo workload: ~10k elements, `distinct` distinct
/// `(element, child-shape)` pairs (see `pv_workload::corpus::repetitive`).
/// `usize::MAX` gives the adversarial all-distinct corpus.
pub fn memo_doc(distinct: usize) -> Document {
    corpus::repetitive(MEMO_NODES, distinct)
}

/// Distinct-shape counts swept by table X8, from one
/// `s` shape to all distinct (the transition cache hits ~99% of symbols
/// at every setting; see `pv_workload::corpus::repetitive`).
pub const MEMO_DISTINCT_SWEEP: [usize; 4] = [1, 16, 256, usize::MAX];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        let a = parallel_doc();
        let b = parallel_doc();
        assert_eq!(a.element_count(), b.element_count());
        let batch = parallel_batch();
        assert_eq!(batch.len(), 24);
        assert_eq!(
            batch.iter().map(|d| d.element_count()).sum::<usize>(),
            parallel_batch().iter().map(|d| d.element_count()).sum::<usize>(),
        );
        let mixed = mixed_batch();
        assert_eq!(mixed.len(), 24);
        assert_eq!(mixed[0].element_count(), a.element_count());
    }
}
