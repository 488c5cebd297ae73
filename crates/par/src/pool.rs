//! The **persistent** work-stealing pool: the workspace's one parallel
//! regime.
//!
//! [`Pool`] keeps its workers alive and **parked on a condvar** between
//! regions: dispatching a region costs one mutex/notify round-trip
//! (single-digit microseconds) instead of thread creation, and each worker
//! carries a [`Sticky`] slot that survives regions, so per-worker scratch
//! (the checker's recognizer buffers) stays warm across requests.
//!
//! ## Why pool jobs are `'static`
//!
//! Persistent workers outlive every caller frame, and the workspace
//! forbids `unsafe` (so the lifetime-erasure trick every scoped-pool crate
//! uses is off the table) — pool regions therefore require `'static`
//! closures and share state via `Arc`. The check engine, its documents
//! and batches are held in `Arc`s for exactly this reason.
//!
//! ## Region model
//!
//! A region is dispatched with [`Pool::run`] (flat index range) or
//! [`Pool::run_grouped`] (two-level group/index scheduling). Both take a
//! **drain-style** closure: the pool calls it once per participating
//! worker, and the closure pulls tasks from the scope it is handed —
//!
//! ```
//! use std::sync::Arc;
//! let pool = pv_par::Pool::new(2);
//! let data = Arc::new((0..100).collect::<Vec<u64>>());
//! let out = pool.run(0, 100, move |scope| {
//!     // Per-region setup runs once per worker, not once per task…
//!     let mut acc = 0u64;
//!     while let Some(i) = scope.claim() {
//!         acc += data[i]; // …and tasks may keep borrowing it.
//!         scope.put(i, data[i] * 2);
//!     }
//!     let _ = acc;
//! });
//! assert_eq!(out[7], 14);
//! ```
//!
//! — which is what lets a checker build its borrowed scratch once per
//! region from `Arc`ed parts and run every claimed task against it.
//!
//! Results come back in task order, a panicking task propagates to the
//! dispatching caller (workers survive: the pool stays usable), and
//! concurrent dispatchers are serialized — one region runs at a time,
//! which keeps worker counts and [`Sticky`] access race-free.

use crate::queue::{GroupCounters, GroupQueues, StealQueues};
use crate::PoolStats;
use pv_obs::{Counter, Gauge, Histogram, Registry};
use std::any::Any;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The pool's metric handles — all no-ops unless the pool was built with
/// a live registry ([`Pool::try_new`]). Region-level only: recording
/// happens once per dispatched region (and once per park/unpark episode),
/// never per task, so the per-task claim path pays nothing for it.
#[derive(Default, Clone)]
struct PoolObs {
    /// Regions dispatched.
    regions: Counter,
    /// Tasks scheduled across all regions.
    tasks: Counter,
    /// Successful steals (task or whole-group).
    steals: Counter,
    /// Grouped-region range joins.
    joins: Counter,
    /// Worker park episodes (a worker began waiting for work).
    parks: Counter,
    /// Worker unpark episodes (a parked worker woke to a region).
    unparks: Counter,
    /// Region wall-clock, dispatch to completion, microseconds.
    region_us: Histogram,
    /// Tasks queued per region (the pool's queue-depth signal).
    region_tasks: Histogram,
    /// Workers currently executing a region closure.
    active: Gauge,
}

impl PoolObs {
    fn registered(reg: &Registry) -> PoolObs {
        PoolObs {
            regions: reg.counter("pv_pool_regions_total"),
            tasks: reg.counter("pv_pool_tasks_total"),
            steals: reg.counter("pv_pool_steals_total"),
            joins: reg.counter("pv_pool_group_joins_total"),
            parks: reg.counter("pv_pool_parks_total"),
            unparks: reg.counter("pv_pool_unparks_total"),
            region_us: reg.histogram("pv_pool_region_us"),
            region_tasks: reg.histogram("pv_pool_region_tasks"),
            active: reg.gauge("pv_pool_active_workers"),
        }
    }
}

/// A per-worker slot that survives across regions: workers hand it to
/// every region closure they run, so a region can stash warm scratch
/// (buffer capacities, caches of pure data) for the next region to reuse.
///
/// The slot holds at most one value, untyped. [`Sticky::take`] removes and
/// downcasts it — a type mismatch (two region kinds sharing a pool) drops
/// the stored value and returns `None`, so regions must treat the slot as
/// a best-effort cache, never as state they rely on getting back.
#[derive(Default)]
pub struct Sticky(Option<Box<dyn Any + Send>>);

impl Sticky {
    /// Removes and downcasts the stored value. `None` if the slot is
    /// empty or holds a different type (the mismatched value is dropped).
    pub fn take<T: 'static>(&mut self) -> Option<T> {
        match self.0.take() {
            Some(boxed) => match boxed.downcast::<T>() {
                Ok(v) => Some(*v),
                Err(_) => None,
            },
            None => None,
        }
    }

    /// Stores a value, replacing whatever was there.
    pub fn put<T: Send + 'static>(&mut self, v: T) {
        self.0 = Some(Box::new(v));
    }
}

/// What a worker thread executes for one region: a type-erased wrapper
/// around the region's queues, result sink, and user closure.
trait Region: Send + Sync {
    fn work(&self, worker: usize, sticky: &mut Sticky);
}

/// The pool's shared control block.
struct Shared {
    state: Mutex<Central>,
    /// Workers wait here for a new region (or shutdown).
    work_cv: Condvar,
    /// Dispatchers wait here for their region to finish — and for the
    /// pool to go idle before installing the next one.
    done_cv: Condvar,
    /// Metric handles (no-ops unless the pool is observed).
    obs: PoolObs,
}

struct Central {
    /// Bumped once per installed region; workers use it to tell "new
    /// region" from "the one I just finished".
    epoch: u64,
    /// Highest epoch whose region has fully finished.
    completed: u64,
    region: Option<Arc<dyn Region>>,
    /// Workers still inside the current region.
    active: usize,
    /// First panic payload per region epoch (at most one entry per
    /// queued dispatcher; each dispatcher removes its own on the way
    /// out, so this cannot grow).
    panics: Vec<(u64, Box<dyn Any + Send>)>,
    shutdown: bool,
}

/// A resident pool of parked worker threads. See the module docs at the
/// top of this file for the model; dropping the pool parks no one —
/// workers are woken, told to exit, and joined.
pub struct Pool {
    shared: Arc<Shared>,
    workers: usize,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawns a pool of [`crate::effective_jobs`]`(jobs)` parked workers
    /// (`0` = one per available CPU). Panics if the OS refuses a thread;
    /// processes that must report that cleanly use [`Pool::try_new`].
    pub fn new(jobs: usize) -> Pool {
        Self::try_new(jobs, &Registry::disabled()).expect("spawning pool workers")
    }

    /// Spawns a pool of [`crate::effective_jobs`]`(jobs)` parked workers,
    /// returning the spawn error when the OS refuses a thread (the
    /// workers already started are shut down and joined first). Pool
    /// telemetry (`pv_pool_*`: regions, tasks, steals, group joins,
    /// park/unpark episodes, region wall-clock and size histograms, an
    /// active-worker gauge) records into `registry`; a disabled registry
    /// makes every handle a no-op.
    pub fn try_new(jobs: usize, registry: &Registry) -> io::Result<Pool> {
        let workers = crate::effective_jobs(jobs).max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(Central {
                epoch: 0,
                completed: 0,
                region: None,
                active: 0,
                panics: Vec::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            obs: PoolObs::registered(registry),
        });
        let mut pool = Pool { shared, workers, handles: Vec::with_capacity(workers) };
        for w in 0..workers {
            let shared = Arc::clone(&pool.shared);
            // On error, dropping `pool` stops and joins the workers so far.
            let handle = std::thread::Builder::new()
                .name(format!("pv-pool-{w}"))
                .spawn(move || worker_main(&shared, w))?;
            pool.handles.push(handle);
        }
        Ok(pool)
    }

    /// Number of resident workers.
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Dispatches a flat-indexed region: `f` runs once per participating
    /// worker and must drain its [`WorkerScope`] (claim tasks with
    /// [`WorkerScope::claim`], store each result with [`WorkerScope::put`]
    /// before returning). Results come back in task order.
    ///
    /// `jobs` caps how many of the pool's workers participate (`0` = all
    /// of them); capping does not change results, only scheduling.
    pub fn run<R, F>(&self, jobs: usize, len: usize, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(&mut WorkerScope<'_, R>) + Send + Sync + 'static,
    {
        self.run_stats(jobs, len, f).0
    }

    /// [`Pool::run`], also reporting how the work spread over the workers.
    pub fn run_stats<R, F>(&self, jobs: usize, len: usize, f: F) -> (Vec<R>, PoolStats)
    where
        R: Send + 'static,
        F: Fn(&mut WorkerScope<'_, R>) + Send + Sync + 'static,
    {
        let participants = self.participants(jobs).min(len.max(1));
        if len == 0 {
            return (
                Vec::new(),
                PoolStats { executed_per_worker: Vec::new(), steals: 0, group_joins: 0 },
            );
        }
        let region = Arc::new(IndexedRegion {
            participants,
            queues: StealQueues::split(participants, len),
            steals: AtomicU64::new(0),
            executed: (0..participants).map(|_| AtomicU64::new(0)).collect(),
            out: Mutex::new(Vec::with_capacity(len)),
            f,
        });
        let t0 = self.shared.obs.region_us.start();
        self.dispatch(region.clone());
        self.shared.obs.region_us.observe_since(t0);
        self.shared.obs.regions.inc();
        self.shared.obs.tasks.add(len as u64);
        self.shared.obs.region_tasks.observe(len as u64);
        self.shared.obs.steals.add(region.steals.load(Ordering::Relaxed));
        let mut slots: Vec<Option<R>> = Vec::with_capacity(len);
        slots.resize_with(len, || None);
        for (i, r) in std::mem::take(&mut *region.out.lock().unwrap()) {
            debug_assert!(slots[i].is_none(), "task {i} executed twice");
            slots[i] = Some(r);
        }
        let out = slots
            .into_iter()
            .map(|r| r.expect("region closure must drain its scope and put every result"))
            .collect();
        (
            out,
            PoolStats {
                executed_per_worker:
                    region.executed.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                steals: region.steals.load(Ordering::Relaxed),
                group_joins: 0,
            },
        )
    }

    /// Dispatches a two-level grouped region (`sizes[g]` tasks in group
    /// `g`). Scheduling is group-first: whole groups are seeded over the
    /// workers' deques and stolen whole, and only a worker that finds no
    /// unstarted group anywhere *joins* a started group's remaining index
    /// range, claiming chunks of it — so a batch mixing one giant group
    /// with many small ones drains the small ones as cache-local units
    /// while the giant one ends up shared. `f` must drain its
    /// [`GroupScope`]. Results come back as one ordered `Vec<R>` per
    /// group.
    pub fn run_grouped<R, F>(&self, jobs: usize, sizes: &[usize], f: F) -> Vec<Vec<R>>
    where
        R: Send + 'static,
        F: Fn(&mut GroupScope<'_, R>) + Send + Sync + 'static,
    {
        self.run_grouped_stats(jobs, sizes, f).0
    }

    /// [`Pool::run_grouped`], also reporting work distribution (steals
    /// are whole-group steals; `group_joins` counts range joins).
    pub fn run_grouped_stats<R, F>(
        &self,
        jobs: usize,
        sizes: &[usize],
        f: F,
    ) -> (Vec<Vec<R>>, PoolStats)
    where
        R: Send + 'static,
        F: Fn(&mut GroupScope<'_, R>) + Send + Sync + 'static,
    {
        let total: usize = sizes.iter().sum();
        let participants = self.participants(jobs).min(total.max(1));
        if total == 0 {
            return (
                sizes.iter().map(|_| Vec::new()).collect(),
                PoolStats { executed_per_worker: Vec::new(), steals: 0, group_joins: 0 },
            );
        }
        let region = Arc::new(GroupedRegion {
            participants,
            queues: GroupQueues::split(participants, sizes),
            counters: GroupCounters::new(),
            executed: (0..participants).map(|_| AtomicU64::new(0)).collect(),
            out: Mutex::new(Vec::with_capacity(total)),
            f,
        });
        let t0 = self.shared.obs.region_us.start();
        self.dispatch(region.clone());
        self.shared.obs.region_us.observe_since(t0);
        self.shared.obs.regions.inc();
        self.shared.obs.tasks.add(total as u64);
        self.shared.obs.region_tasks.observe(total as u64);
        self.shared.obs.steals.add(region.counters.steals.load(Ordering::Relaxed));
        self.shared.obs.joins.add(region.counters.joins.load(Ordering::Relaxed));
        let mut slots: Vec<Vec<Option<R>>> = sizes
            .iter()
            .map(|&len| {
                let mut v = Vec::with_capacity(len);
                v.resize_with(len, || None);
                v
            })
            .collect();
        for (g, i, r) in std::mem::take(&mut *region.out.lock().unwrap()) {
            debug_assert!(slots[g][i].is_none(), "task ({g}, {i}) executed twice");
            slots[g][i] = Some(r);
        }
        let out = slots
            .into_iter()
            .map(|group| {
                group
                    .into_iter()
                    .map(|r| r.expect("region closure must drain its scope and put every result"))
                    .collect()
            })
            .collect();
        (
            out,
            PoolStats {
                executed_per_worker:
                    region.executed.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                steals: region.counters.steals.load(Ordering::Relaxed),
                group_joins: region.counters.joins.load(Ordering::Relaxed),
            },
        )
    }

    /// Resolves a region's `jobs` cap to an actual participant count:
    /// `0` means every pool worker, anything else is clamped to the pool
    /// size. The engine layer uses this for its sequential-fallback
    /// decision, so the rule lives in exactly one place.
    pub fn participants(&self, jobs: usize) -> usize {
        if jobs == 0 {
            self.workers
        } else {
            jobs.min(self.workers)
        }
    }

    /// Installs a region (serializing with any other dispatcher), wakes
    /// the workers, and blocks until every worker has finished it. A task
    /// panic is re-raised here, on the dispatching thread.
    fn dispatch(&self, region: Arc<dyn Region>) {
        let my_epoch;
        {
            let mut g = self.shared.state.lock().unwrap();
            while g.region.is_some() {
                g = self.shared.done_cv.wait(g).unwrap();
            }
            g.epoch += 1;
            my_epoch = g.epoch;
            g.region = Some(region);
            g.active = self.workers;
            self.shared.work_cv.notify_all();
            while g.completed < my_epoch {
                g = self.shared.done_cv.wait(g).unwrap();
            }
            if let Some(at) = g.panics.iter().position(|(e, _)| *e == my_epoch) {
                let (_, payload) = g.panics.swap_remove(at);
                drop(g);
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut g = self.shared.state.lock().unwrap();
            g.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_main(shared: &Shared, w: usize) {
    let mut sticky = Sticky::default();
    let mut seen_epoch = 0u64;
    loop {
        let (region, epoch) = {
            let mut g = shared.state.lock().unwrap();
            // One park/unpark pair per blocking episode, not per spurious
            // wake: `parked` latches on the first actual wait.
            let mut parked = false;
            let pair = loop {
                if let Some(region) = &g.region {
                    if g.epoch != seen_epoch {
                        seen_epoch = g.epoch;
                        break (Arc::clone(region), g.epoch);
                    }
                }
                if g.shutdown {
                    return;
                }
                if !parked {
                    parked = true;
                    shared.obs.parks.inc();
                }
                g = shared.work_cv.wait(g).unwrap();
            };
            if parked {
                shared.obs.unparks.inc();
            }
            pair
        };
        // Run the region; a panicking task must not kill the worker — the
        // payload is carried back to the dispatcher, the pool stays whole.
        shared.obs.active.add(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            region.work(w, &mut sticky)
        }));
        shared.obs.active.add(-1);
        drop(region);
        let mut g = shared.state.lock().unwrap();
        if let Err(payload) = result {
            // Keep the first payload per region: each dispatcher gets its
            // own region's panic even when regions queue back-to-back.
            if !g.panics.iter().any(|(e, _)| *e == epoch) {
                g.panics.push((epoch, payload));
            }
        }
        g.active -= 1;
        if g.active == 0 {
            g.completed = epoch;
            g.region = None;
            shared.done_cv.notify_all();
        }
    }
}

/// The task source and result sink one worker sees inside a flat
/// [`Pool::run`] region.
pub struct WorkerScope<'r, R> {
    worker: usize,
    sticky: &'r mut Sticky,
    queues: &'r StealQueues,
    steals: &'r AtomicU64,
    executed: &'r AtomicU64,
    buf: Vec<(usize, R)>,
}

impl<R> WorkerScope<'_, R> {
    /// This worker's index within the pool.
    #[inline]
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// The worker's cross-region [`Sticky`] slot.
    #[inline]
    pub fn sticky(&mut self) -> &mut Sticky {
        self.sticky
    }

    /// Claims the next task index (own deque first, then stealing).
    /// Every claimed index **must** be answered with [`WorkerScope::put`]
    /// before the region closure returns.
    pub fn claim(&mut self) -> Option<usize> {
        let i = self.queues.next(self.worker, self.steals);
        if i.is_some() {
            self.executed.fetch_add(1, Ordering::Relaxed);
        }
        i
    }

    /// Stores the result of task `i`.
    pub fn put(&mut self, i: usize, r: R) {
        self.buf.push((i, r));
    }
}

struct IndexedRegion<R, F> {
    participants: usize,
    queues: StealQueues,
    steals: AtomicU64,
    executed: Vec<AtomicU64>,
    out: Mutex<Vec<(usize, R)>>,
    f: F,
}

impl<R, F> Region for IndexedRegion<R, F>
where
    R: Send + 'static,
    F: Fn(&mut WorkerScope<'_, R>) + Send + Sync + 'static,
{
    fn work(&self, worker: usize, sticky: &mut Sticky) {
        if worker >= self.participants {
            return;
        }
        let mut scope = WorkerScope {
            worker,
            sticky,
            queues: &self.queues,
            steals: &self.steals,
            executed: &self.executed[worker],
            buf: Vec::new(),
        };
        (self.f)(&mut scope);
        if !scope.buf.is_empty() {
            self.out.lock().unwrap().append(&mut scope.buf);
        }
    }
}

/// The task source and result sink one worker sees inside a grouped
/// [`Pool::run_grouped`] region. Tasks are `(group, index)` pairs.
pub struct GroupScope<'r, R> {
    worker: usize,
    sticky: &'r mut Sticky,
    queues: &'r GroupQueues,
    counters: &'r GroupCounters,
    executed: &'r AtomicU64,
    /// The group this worker is currently attached to.
    current: Option<usize>,
    /// Claimed-but-unyielded tasks (chunk claiming hands out ranges);
    /// stored reversed so `pop()` yields them in claim order.
    pending: Vec<(usize, usize)>,
    buf: Vec<(usize, usize, R)>,
}

impl<R> GroupScope<'_, R> {
    /// This worker's index within the pool.
    #[inline]
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// The worker's cross-region [`Sticky`] slot.
    #[inline]
    pub fn sticky(&mut self) -> &mut Sticky {
        self.sticky
    }

    /// Claims the next `(group, index)` task. Every claimed task **must**
    /// be answered with [`GroupScope::put`] before the closure returns.
    pub fn claim(&mut self) -> Option<(usize, usize)> {
        if self.pending.is_empty() {
            if let Some((g, lo, hi)) =
                self.queues.next_chunk(self.worker, &mut self.current, self.counters)
            {
                self.pending.extend((lo..hi).rev().map(|i| (g, i)));
            }
        }
        let t = self.pending.pop();
        if t.is_some() {
            self.executed.fetch_add(1, Ordering::Relaxed);
        }
        t
    }

    /// Stores the result of task `(g, i)`.
    pub fn put(&mut self, g: usize, i: usize, r: R) {
        self.buf.push((g, i, r));
    }
}

struct GroupedRegion<R, F> {
    participants: usize,
    queues: GroupQueues,
    counters: GroupCounters,
    executed: Vec<AtomicU64>,
    out: Mutex<Vec<(usize, usize, R)>>,
    f: F,
}

impl<R, F> Region for GroupedRegion<R, F>
where
    R: Send + 'static,
    F: Fn(&mut GroupScope<'_, R>) + Send + Sync + 'static,
{
    fn work(&self, worker: usize, sticky: &mut Sticky) {
        if worker >= self.participants {
            return;
        }
        let mut scope = GroupScope {
            worker,
            sticky,
            queues: &self.queues,
            counters: &self.counters,
            executed: &self.executed[worker],
            current: None,
            pending: Vec::new(),
            buf: Vec::new(),
        };
        (self.f)(&mut scope);
        if !scope.buf.is_empty() {
            self.out.lock().unwrap().append(&mut scope.buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn pool_matches_sequential_across_regions() {
        let pool = Pool::new(4);
        for len in [0usize, 1, 3, 257] {
            let expect: Vec<usize> = (0..len).map(|i| i * 3 + 1).collect();
            let out = pool.run(0, len, |scope| {
                while let Some(i) = scope.claim() {
                    scope.put(i, i * 3 + 1);
                }
            });
            assert_eq!(out, expect, "len={len}");
        }
    }

    #[test]
    fn jobs_cap_limits_participants() {
        let pool = Pool::new(4);
        let (out, stats) = pool.run_stats(2, 100, |scope| {
            while let Some(i) = scope.claim() {
                scope.put(i, i);
            }
        });
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert_eq!(stats.executed_per_worker.len(), 2);
        assert_eq!(stats.executed_per_worker.iter().sum::<u64>(), 100);
    }

    #[test]
    fn sticky_state_survives_regions() {
        // A single-worker pool makes the scheduling deterministic: the
        // one worker must execute every task of every region, so its
        // sticky slot provably carries the exact count across regions.
        let pool = Pool::new(1);
        for round in 1u64..=3 {
            pool.run(0, 64, |scope| {
                let mut seen: u64 = scope.sticky().take().unwrap_or(0);
                while let Some(i) = scope.claim() {
                    seen += 1;
                    scope.put(i, ());
                }
                scope.sticky().put(seen);
            });
            let read_back = pool.run(0, 1, |scope| {
                while let Some(i) = scope.claim() {
                    let seen: u64 = scope.sticky().take().unwrap_or(0);
                    scope.sticky().put(seen);
                    scope.put(i, seen);
                }
            });
            assert_eq!(read_back, vec![64 * round], "round {round}");
        }
    }

    #[test]
    fn grouped_region_matches_sequential() {
        let pool = Pool::new(3);
        let sizes = [5usize, 0, 40, 1];
        let out = pool.run_grouped(0, &sizes, |scope| {
            while let Some((g, i)) = scope.claim() {
                scope.put(g, i, g * 1000 + i);
            }
        });
        assert_eq!(out.len(), sizes.len());
        for (g, &len) in sizes.iter().enumerate() {
            assert_eq!(out[g], (0..len).map(|i| g * 1000 + i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(0, 32, |scope| {
                while let Some(i) = scope.claim() {
                    if i == 17 {
                        panic!("boom at 17");
                    }
                    scope.put(i, i);
                }
            })
        }));
        assert!(result.is_err());
        // The pool keeps working after a panicked region.
        let out = pool.run(0, 8, |scope| {
            while let Some(i) = scope.claim() {
                scope.put(i, i + 1);
            }
        });
        assert_eq!(out, (1..9).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_dispatchers_are_serialized() {
        let pool = Arc::new(Pool::new(2));
        std::thread::scope(|s| {
            for t in 0..4 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for round in 0..8 {
                        let base = t * 1000 + round;
                        let out = pool.run(0, 50, move |scope| {
                            while let Some(i) = scope.claim() {
                                scope.put(i, base + i);
                            }
                        });
                        assert_eq!(out, (base..base + 50).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn observed_pool_records_region_telemetry() {
        let reg = Registry::new();
        let pool = Pool::try_new(2, &reg).unwrap();
        let out = pool.run(0, 100, |scope| {
            while let Some(i) = scope.claim() {
                scope.put(i, i);
            }
        });
        assert_eq!(out.len(), 100);
        pool.run_grouped(0, &[3, 4], |scope| {
            while let Some((g, i)) = scope.claim() {
                scope.put(g, i, ());
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counters["pv_pool_regions_total"], 2);
        assert_eq!(snap.counters["pv_pool_tasks_total"], 107);
        assert_eq!(snap.histograms["pv_pool_region_tasks"].count, 2);
        assert_eq!(snap.histograms["pv_pool_region_tasks"].max, 100);
        assert_eq!(snap.histograms["pv_pool_region_us"].count, 2);
        // All workers are parked again once the regions are done.
        assert_eq!(snap.gauges["pv_pool_active_workers"], 0);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = Pool::new(4);
        let counters: Arc<Vec<AtomicUsize>> =
            Arc::new((0..500).map(|_| AtomicUsize::new(0)).collect());
        let c = Arc::clone(&counters);
        pool.run(4, 500, move |scope| {
            while let Some(i) = scope.claim() {
                c[i].fetch_add(1, Ordering::Relaxed);
                scope.put(i, ());
            }
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn unbalanced_load_triggers_stealing() {
        // The first worker's whole block is slow; the rest are instant.
        // Even on a single-CPU host the OS interleaves the workers, so the
        // fast ones drain their blocks and then steal from the slow one.
        let pool = Pool::new(4);
        let (out, stats) = pool.run_stats(0, 64, |scope| {
            while let Some(i) = scope.claim() {
                if i < 16 {
                    std::thread::sleep(Duration::from_millis(2));
                }
                scope.put(i, i);
            }
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        assert_eq!(stats.executed_per_worker.iter().sum::<u64>(), 64);
        assert!(stats.steals > 0, "expected steals, got {stats:?}");
    }

    #[test]
    fn workers_capped_by_task_count() {
        let pool = Pool::new(16);
        let (_, stats) = pool.run_stats(0, 3, |scope| {
            while let Some(i) = scope.claim() {
                scope.put(i, i);
            }
        });
        assert_eq!(stats.executed_per_worker.len(), 3);
    }

    #[test]
    fn grouped_map_empty_and_degenerate() {
        let pool = Pool::new(4);
        let drain = |scope: &mut GroupScope<'_, (usize, usize)>| {
            while let Some((g, i)) = scope.claim() {
                scope.put(g, i, (g, i));
            }
        };
        assert_eq!(pool.run_grouped(4, &[], drain), Vec::<Vec<(usize, usize)>>::new());
        assert_eq!(pool.run_grouped(4, &[0, 0], drain), vec![Vec::new(), Vec::new()]);
    }

    #[test]
    fn grouped_map_mixed_batch_pipelines() {
        // One giant slow group among small ones: the counters must show
        // the idle workers joining the giant group's range.
        let pool = Pool::new(4);
        let sizes = [2000usize, 8, 8, 8];
        let (out, stats) = pool.run_grouped_stats(0, &sizes, |scope| {
            while let Some((g, i)) = scope.claim() {
                if g == 0 {
                    std::thread::sleep(Duration::from_micros(20));
                }
                scope.put(g, i, g + i);
            }
        });
        assert_eq!(out[0].len(), 2000);
        assert_eq!(stats.executed_per_worker.iter().sum::<u64>(), 2024);
        assert!(stats.group_joins > 0, "expected range joins, got {stats:?}");
    }

    #[test]
    fn drop_joins_workers() {
        let pool = Pool::new(3);
        let out = pool.run(0, 10, |scope| {
            while let Some(i) = scope.claim() {
                scope.put(i, i);
            }
        });
        assert_eq!(out.len(), 10);
        drop(pool); // must not hang
    }
}
