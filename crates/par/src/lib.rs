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
//! * **Per-worker deques + stealing** (the `queue` internals): task indices
//!   are pre-seeded as contiguous blocks, owners pop from the front of
//!   their own deque, idle workers steal from the back of a victim's.
//!   Contiguous blocks keep an owner's tasks cache-local (adjacent document
//!   nodes); back-stealing takes the work the owner would reach last, so
//!   owner and thief rarely contend on the same lock.
//! * **Persistent parked workers**: a region is dispatched to workers
//!   waiting on a condvar (single-digit microseconds, no thread spawn),
//!   and each worker keeps a [`Sticky`] slot across regions for warm
//!   scratch. Region closures are `'static`; inputs are shared via `Arc`.
//! * **Deterministic result join**: each worker tags results with their
//!   task index; the caller receives `Vec<R>` in **task order** regardless
//!   of which worker ran what when. Reductions that depend on order (the
//!   checker's first-failing-node-in-document-order rule) stay exact.
//! * **Panic transparency**: a panicking task propagates to the
//!   dispatching caller; the workers survive and the pool stays usable.
//! * **Two-level grouped regions** ([`Pool::run_grouped`]): tasks organized
//!   as groups (a batch's documents) are stolen group-first, and idle
//!   workers *join* a started group's remaining index range — the
//!   cross-document pipelining a batch mixing one giant document with
//!   many small ones needs.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//!
//! // One pool per process; `try_new` reports a failed thread spawn.
//! let pool = pv_par::Pool::new(4);
//!
//! // Square 0..100; results come back in index order.
//! let squares = pool.run(0, 100, |scope| {
//!     while let Some(i) = scope.claim() {
//!         scope.put(i, i * i);
//!     }
//! });
//! assert_eq!(squares[7], 49);
//!
//! // Regions are `'static`: inputs travel in an `Arc`.
//! let words = Arc::new(["potential", "validity"]);
//! let lens = pool.run(2, words.len(), move |scope| {
//!     while let Some(i) = scope.claim() {
//!         scope.put(i, words[i].len());
//!     }
//! });
//! assert_eq!(lens, vec![9, 8]);
//! ```

#![warn(missing_docs)]

mod pool;
mod queue;

pub use pool::{GroupScope, Pool, Sticky, WorkerScope};

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

/// Work distribution counters for one parallel region, for tests and
/// benchmarks that want to see the stealing actually happen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks executed by each worker (summing to the region's task count).
    pub executed_per_worker: Vec<u64>,
    /// Successful steals (tasks — or, in a grouped region, whole groups —
    /// a worker took from another's deque).
    pub steals: u64,
    /// Grouped regions only: times an idle worker joined the index range
    /// of a group another worker had already started (the two-level
    /// scheduler's "split a large document when idle" path).
    pub group_joins: u64,
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
