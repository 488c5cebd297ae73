//! # pv-par — a persistent work-stealing pool for the PV stack
//!
//! The potential-validity check is embarrassingly parallel: Problem PV runs
//! one independent ECPV recognizer per element node (paper Section 4), and
//! a corpus check runs one independent Problem PV per document. This crate
//! supplies the **only** parallelism primitive the workspace needs to
//! exploit that — a [`Pool`] of parked worker threads running
//! deterministic parallel maps over finite batches of tasks — built from
//! scratch on `std` (no rayon; the workspace builds fully offline and
//! never adds a registry dependency).
//!
//! ## Design
//!
//! * **One region kind, two levels** (the `queue` internals): a region is
//!   a list of *groups* of tasks (a batch's documents, or the one document
//!   of a single check). Group ids are pre-seeded as contiguous blocks
//!   over per-worker deques; owners pop from the front of their own
//!   deque, idle workers steal whole groups from the back of a victim's,
//!   and a worker that finds no unstarted group anywhere *joins* the
//!   started group with the most work left, claiming chunks of its index
//!   range — the cross-document pipelining a batch mixing one giant
//!   document with many small ones needs, and chunked claims (never one
//!   deque pop per task) when one document is split per node.
//! * **Persistent parked workers**: a region is dispatched to workers
//!   waiting on a condvar (single-digit microseconds, no thread spawn).
//!   Region closures are `'static`; inputs are shared via `Arc`.
//! * **Deterministic result join**: each worker tags results with their
//!   `(group, index)`; the caller receives one `Vec<R>` per group in
//!   **task order** regardless of which worker ran what when. Reductions
//!   that depend on order (the checker's first-failing-node-in-document-
//!   order rule) stay exact.
//! * **Panic transparency**: a panicking task propagates to the
//!   dispatching caller; the workers survive and the pool stays usable.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//!
//! // One pool per process; `try_new` reports a failed thread spawn.
//! let pool = pv_par::Pool::new(4);
//!
//! // Square 0..100 as one group; results come back in index order.
//! let squares = pool.run(0, &[100], |scope| {
//!     while let Some((g, i)) = scope.claim() {
//!         scope.put(g, i, i * i);
//!     }
//! });
//! assert_eq!(squares[0][7], 49);
//!
//! // Regions are `'static`: inputs travel in an `Arc`. One group per
//! // word here, one task per character.
//! let words = Arc::new(["potential", "validity"]);
//! let sizes: Vec<usize> = words.iter().map(|w| w.len()).collect();
//! let chars = pool.run(2, &sizes, move |scope| {
//!     while let Some((g, i)) = scope.claim() {
//!         scope.put(g, i, words[g].as_bytes()[i]);
//!     }
//! });
//! assert_eq!(chars[1], b"validity");
//! ```

#![warn(missing_docs)]

mod pool;
mod queue;

pub use pool::{Pool, Scope};

/// Resolves a `jobs` request to a worker count: `0` means "one worker per
/// available CPU" (`std::thread::available_parallelism`, falling back to 1
/// when the OS will not say); any other value is taken literally.
///
/// Every `jobs` parameter in the workspace (pool sizes, `pvx --jobs`, …)
/// funnels through this.
pub fn effective_jobs(requested: usize) -> usize {
    if requested != 0 {
        requested
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_jobs_resolution() {
        assert_eq!(effective_jobs(5), 5);
        assert!(effective_jobs(0) >= 1);
    }
}
