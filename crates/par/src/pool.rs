//! The **persistent** work-stealing pool and its one region kind.
//!
//! [`Pool`] keeps its workers alive and **parked on a condvar** between
//! regions: dispatching a region costs one mutex/notify round-trip
//! (single-digit microseconds) instead of thread creation.
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
//! A region ([`Pool::run`]) is a list of **groups** — `sizes[g]` tasks in
//! group `g`, a document of the checker's batch or the one document of a
//! single check — scheduled by the two-level queues (`queue` internals):
//! whole groups are stolen first, and a worker with no unstarted group
//! left joins a started one, claiming chunks of its index range. The
//! closure is **drain-style**: the pool calls it once per participating
//! worker, and it pulls `(group, index)` tasks from the [`Scope`] it is
//! handed —
//!
//! ```
//! use std::sync::Arc;
//! let pool = pv_par::Pool::new(2);
//! let data = Arc::new((0..100).collect::<Vec<u64>>());
//! let out = pool.run(0, &[100], move |scope| {
//!     // Per-region setup runs once per worker, not once per task…
//!     let mut acc = 0u64;
//!     while let Some((g, i)) = scope.claim() {
//!         acc += data[i]; // …and tasks may keep borrowing it.
//!         scope.put(g, i, data[i] * 2);
//!     }
//!     let _ = acc;
//! });
//! assert_eq!(out[0][7], 14);
//! ```
//!
//! — which is what lets a checker build its borrowed scratch once per
//! worker per region from `Arc`ed parts and run every claimed task
//! against it.
//!
//! Results come back in task order, one `Vec` per group; a panicking task
//! propagates to the dispatching caller (workers survive: the pool stays
//! usable), and concurrent dispatchers are serialized — one region runs
//! at a time.

use crate::queue::{GroupCounters, GroupQueues};
use pv_obs::{Counter, Gauge, Histogram, Registry};
use std::any::Any;
use std::io;
use std::ops::Range;
use std::sync::atomic::Ordering;
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
    /// Whole-group steals.
    steals: Counter,
    /// Range joins of a started group.
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

/// What a worker thread executes for one region: a type-erased wrapper
/// around the region's queues, result sink, and user closure.
trait Work: Send + Sync {
    fn work(&self, worker: usize);
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
    region: Option<Arc<dyn Work>>,
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

    /// Dispatches a region of `sizes[g]` tasks in group `g`. Scheduling is
    /// group-first: whole groups are seeded over the workers' deques and
    /// stolen whole, and only a worker that finds no unstarted group
    /// anywhere *joins* a started group's remaining index range, claiming
    /// chunks of it — so a batch mixing one giant group with many small
    /// ones drains the small ones as cache-local units while the giant one
    /// ends up shared. `f` runs once per participating worker and must
    /// drain its [`Scope`]. Results come back as one ordered `Vec<R>` per
    /// group.
    ///
    /// `jobs` caps how many of the pool's workers participate (`0` = all
    /// of them); capping does not change results, only scheduling. A
    /// region without tasks dispatches nothing.
    pub fn run<R, F>(&self, jobs: usize, sizes: &[usize], f: F) -> Vec<Vec<R>>
    where
        R: Send + 'static,
        F: Fn(&mut Scope<'_, R>) + Send + Sync + 'static,
    {
        let total: usize = sizes.iter().sum();
        if total == 0 {
            return sizes.iter().map(|_| Vec::new()).collect();
        }
        let participants = self.participants(jobs).min(total);
        let region = Arc::new(Region {
            participants,
            queues: GroupQueues::split(participants, sizes),
            counters: GroupCounters::new(),
            out: Mutex::new(Vec::with_capacity(total)),
            f,
        });
        let obs = &self.shared.obs;
        let t0 = obs.region_us.start();
        self.dispatch(region.clone());
        obs.region_us.observe_since(t0);
        obs.regions.inc();
        obs.tasks.add(total as u64);
        obs.region_tasks.observe(total as u64);
        obs.steals.add(region.counters.steals.load(Ordering::Relaxed));
        obs.joins.add(region.counters.joins.load(Ordering::Relaxed));
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
        slots
            .into_iter()
            .map(|group| {
                group
                    .into_iter()
                    .map(|r| r.expect("region closure must drain its scope and put every result"))
                    .collect()
            })
            .collect()
    }

    /// Resolves a region's `jobs` cap to an actual participant count:
    /// `0` means every pool worker, anything else is clamped to the pool
    /// size. The engine layer uses this for its calling-thread decision,
    /// so the rule lives in exactly one place.
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
    fn dispatch(&self, region: Arc<dyn Work>) {
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
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| region.work(w)));
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

/// The task source and result sink one worker sees inside a
/// [`Pool::run`] region. Tasks are `(group, index)` pairs.
pub struct Scope<'r, R> {
    worker: usize,
    queues: &'r GroupQueues,
    counters: &'r GroupCounters,
    /// The group this worker is currently attached to.
    current: Option<usize>,
    /// The claimed-but-unyielded rest of the last chunk, and its group.
    chunk: (usize, Range<usize>),
    buf: Vec<(usize, usize, R)>,
}

impl<R> Scope<'_, R> {
    /// This worker's index within the pool.
    #[inline]
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Claims the next `(group, index)` task. Every claimed task **must**
    /// be answered with [`Scope::put`] before the closure returns.
    pub fn claim(&mut self) -> Option<(usize, usize)> {
        if self.chunk.1.is_empty() {
            self.chunk = self.queues.next_chunk(self.worker, &mut self.current, self.counters)?;
        }
        let i = self.chunk.1.next()?;
        Some((self.chunk.0, i))
    }

    /// Stores the result of task `(g, i)`.
    pub fn put(&mut self, g: usize, i: usize, r: R) {
        self.buf.push((g, i, r));
    }
}

struct Region<R, F> {
    participants: usize,
    queues: GroupQueues,
    counters: GroupCounters,
    out: Mutex<Vec<(usize, usize, R)>>,
    f: F,
}

impl<R, F> Work for Region<R, F>
where
    R: Send + 'static,
    F: Fn(&mut Scope<'_, R>) + Send + Sync + 'static,
{
    fn work(&self, worker: usize) {
        if worker >= self.participants {
            return;
        }
        let mut scope = Scope {
            worker,
            queues: &self.queues,
            counters: &self.counters,
            current: None,
            chunk: (0, 0..0),
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
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    /// Drains a region of `sizes`, recording `(g, i) -> f(g, i)`.
    fn map(
        pool: &Pool,
        jobs: usize,
        sizes: &[usize],
        f: fn(usize, usize) -> usize,
    ) -> Vec<Vec<usize>> {
        pool.run(jobs, sizes, move |scope| {
            while let Some((g, i)) = scope.claim() {
                scope.put(g, i, f(g, i));
            }
        })
    }

    /// The distinct `scope.worker()` values that entered the region
    /// closure — the region's participants.
    fn entered(pool: &Pool, jobs: usize, sizes: &[usize]) -> BTreeSet<usize> {
        let seen = Arc::new(Mutex::new(BTreeSet::new()));
        let s = Arc::clone(&seen);
        pool.run(jobs, sizes, move |scope| {
            s.lock().unwrap().insert(scope.worker());
            while let Some((g, i)) = scope.claim() {
                scope.put(g, i, ());
            }
        });
        let out = seen.lock().unwrap().clone();
        out
    }

    #[test]
    fn pool_matches_sequential_across_regions() {
        let pool = Pool::new(4);
        for sizes in [&[0usize][..], &[1], &[3], &[257], &[5, 0, 40, 1], &[]] {
            let out = map(&pool, 0, sizes, |g, i| g * 1000 + i * 3 + 1);
            assert_eq!(out.len(), sizes.len());
            for (g, &len) in sizes.iter().enumerate() {
                let expect: Vec<usize> = (0..len).map(|i| g * 1000 + i * 3 + 1).collect();
                assert_eq!(out[g], expect, "sizes={sizes:?} group {g}");
            }
        }
    }

    #[test]
    fn jobs_cap_limits_participants() {
        let pool = Pool::new(4);
        assert_eq!(entered(&pool, 2, &[100]), BTreeSet::from([0, 1]));
        assert_eq!(entered(&pool, 0, &[100]).len(), 4);
        let out = map(&pool, 2, &[100], |_, i| i);
        assert_eq!(out, vec![(0..100).collect::<Vec<_>>()]);
    }

    #[test]
    fn workers_capped_by_task_count() {
        let pool = Pool::new(16);
        assert_eq!(entered(&pool, 0, &[3]).len(), 3);
        assert_eq!(entered(&pool, 0, &[1, 0, 1]).len(), 2);
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map(&pool, 0, &[32], |_, i| if i == 17 { panic!("boom at 17") } else { i })
        }));
        assert!(result.is_err());
        // The pool keeps working after a panicked region.
        assert_eq!(map(&pool, 0, &[8], |_, i| i + 1), vec![(1..9).collect::<Vec<_>>()]);
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
                        let out = pool.run(0, &[50, 3], move |scope| {
                            while let Some((g, i)) = scope.claim() {
                                scope.put(g, i, base + g * 100 + i);
                            }
                        });
                        assert_eq!(out[0], (base..base + 50).collect::<Vec<_>>());
                        assert_eq!(out[1], (base + 100..base + 103).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn observed_pool_records_region_telemetry() {
        let reg = Registry::new();
        let pool = Pool::try_new(2, &reg).unwrap();
        assert_eq!(map(&pool, 0, &[100], |_, i| i)[0].len(), 100);
        map(&pool, 0, &[3, 4], |g, i| g + i);
        map(&pool, 0, &[0, 0], |g, i| g + i); // no tasks: nothing dispatched
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
        let sizes = [500usize, 1, 77];
        let counters: Arc<Vec<Vec<AtomicUsize>>> = Arc::new(
            sizes.iter().map(|&len| (0..len).map(|_| AtomicUsize::new(0)).collect()).collect(),
        );
        let c = Arc::clone(&counters);
        pool.run(4, &sizes, move |scope| {
            while let Some((g, i)) = scope.claim() {
                c[g][i].fetch_add(1, Ordering::Relaxed);
                scope.put(g, i, ());
            }
        });
        assert!(counters.iter().flatten().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn unbalanced_load_triggers_stealing() {
        // 64 one-task groups, seeded 16 per worker; the first worker's
        // whole block is slow, the rest instant. Even on a single-CPU host
        // the OS interleaves the workers, so the fast ones drain their
        // blocks and then steal whole groups from the slow one.
        let reg = Registry::new();
        let pool = Pool::try_new(4, &reg).unwrap();
        let out = pool.run(0, &[1; 64], |scope| {
            while let Some((g, i)) = scope.claim() {
                if g < 16 {
                    std::thread::sleep(Duration::from_millis(2));
                }
                scope.put(g, i, g);
            }
        });
        assert_eq!(out, (0..64).map(|g| vec![g]).collect::<Vec<_>>());
        let steals = reg.snapshot().counters["pv_pool_steals_total"];
        assert!(steals > 0, "expected steals, got {steals}");
    }

    #[test]
    fn mixed_batch_pipelines_through_joins() {
        // One giant slow group among small ones: the registry must show
        // the idle workers joining the giant group's range.
        let reg = Registry::new();
        let pool = Pool::try_new(4, &reg).unwrap();
        let out = pool.run(0, &[2000, 8, 8, 8], |scope| {
            while let Some((g, i)) = scope.claim() {
                if g == 0 {
                    std::thread::sleep(Duration::from_micros(20));
                }
                scope.put(g, i, g + i);
            }
        });
        assert_eq!(out.iter().map(Vec::len).collect::<Vec<_>>(), vec![2000, 8, 8, 8]);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["pv_pool_tasks_total"], 2024);
        let joins = snap.counters["pv_pool_group_joins_total"];
        assert!(joins > 0, "expected range joins, got {joins}");
    }

    #[test]
    fn drop_joins_workers() {
        let pool = Pool::new(3);
        assert_eq!(map(&pool, 0, &[10], |_, i| i)[0].len(), 10);
        drop(pool); // must not hang
    }
}
