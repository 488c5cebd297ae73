//! # pv-par — a persistent worker pool for the PV stack
//!
//! A corpus check runs one independent Problem PV per document (paper
//! Section 3), so a batch of documents is embarrassingly parallel. This
//! crate supplies the **only** parallelism primitive the workspace needs
//! to exploit that — a [`Pool`] of parked worker threads running
//! deterministic parallel maps over finite batches of tasks — built from
//! scratch on `std` (no rayon; the workspace builds fully offline and
//! never adds a registry dependency).
//!
//! ## Design
//!
//! * **One region kind, one level**: a region is `n` independent tasks
//!   (a batch's documents), handed out by one shared atomic cursor, so a
//!   worker that finishes early claims the next unstarted task and a
//!   slow task holds back only the worker running it.
//! * **Persistent parked workers**: a region is dispatched to workers
//!   waiting on a condvar (single-digit microseconds, no thread spawn).
//!   Region closures are `'static`; inputs are shared via `Arc`.
//! * **Deterministic result join**: each worker tags results with their
//!   task index; the caller receives one `Vec<R>` in **task order**
//!   regardless of which worker ran what when.
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
//! // Square 0..100; results come back in index order.
//! let squares = pool.run(0, 100, |scope| {
//!     while let Some(i) = scope.claim() {
//!         scope.put(i, i * i);
//!     }
//! });
//! assert_eq!(squares[7], 49);
//!
//! // Regions are `'static`: inputs travel in an `Arc`. One task per
//! // word here, on at most two workers.
//! let words = Arc::new(["potential", "validity"]);
//! let lens = pool.run(2, words.len(), move |scope| {
//!     while let Some(i) = scope.claim() {
//!         scope.put(i, words[i].len());
//!     }
//! });
//! assert_eq!(lens, [9, 8]);
//! ```

#![warn(missing_docs)]

mod pool;

pub use pool::{Pool, Scope};

/// Resolves a `jobs` request to a worker count: `0` means "one worker per
/// available CPU" (`std::thread::available_parallelism`, falling back to 1
/// when the OS will not say); any other value is taken literally.
///
/// Every `jobs` parameter in the workspace (pool sizes, `pvx serve --jobs`, …)
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
