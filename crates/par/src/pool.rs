//! The **persistent** pool and its one region kind.
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
//! closures and share state via `Arc`. The check engine and its batches
//! are held in `Arc`s for exactly this reason.
//!
//! ## Region model
//!
//! A region ([`Pool::run`]) is `n` independent tasks `0..n` — the
//! documents of the checker's batch — handed out by one shared atomic
//! cursor: every claim takes the next unclaimed index, so a slow task
//! holds back only the worker running it. The closure is
//! **drain-style**: the pool calls it once per participating worker, and
//! it pulls task indices from the [`Scope`] it is handed —
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
//! worker per region from `Arc`ed parts and run every claimed task
//! against it.
//!
//! Results come back in task order; a panicking task propagates to the
//! dispatching caller (workers survive: the pool stays usable), and
//! concurrent dispatchers are serialized — one region runs at a time.

use pv_obs::{Counter, Gauge, Histogram, Registry};
use std::any::Any;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
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
            parks: reg.counter("pv_pool_parks_total"),
            unparks: reg.counter("pv_pool_unparks_total"),
            region_us: reg.histogram("pv_pool_region_us"),
            region_tasks: reg.histogram("pv_pool_region_tasks"),
            active: reg.gauge("pv_pool_active_workers"),
        }
    }
}

/// What a worker thread executes for one region: a type-erased wrapper
/// around the region's cursor, result sink, and user closure.
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
    /// telemetry (`pv_pool_*`: regions, tasks, park/unpark episodes,
    /// region wall-clock and size histograms, an active-worker gauge)
    /// records into `registry`; a disabled registry makes every handle a
    /// no-op.
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

    /// Dispatches a region of `n` tasks, handed out in index order to
    /// whichever participant claims next. `f` runs once per participating
    /// worker and must drain its [`Scope`]. Results come back as one
    /// `Vec<R>` in task order.
    ///
    /// `jobs` caps how many of the pool's workers participate (`0` = all
    /// of them); capping does not change results, only scheduling. A
    /// region without tasks dispatches nothing.
    pub fn run<R, F>(&self, jobs: usize, n: usize, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(&mut Scope<'_, R>) + Send + Sync + 'static,
    {
        if n == 0 {
            return Vec::new();
        }
        let region = Arc::new(Region {
            participants: self.participants(jobs).min(n),
            n,
            next: AtomicUsize::new(0),
            out: Mutex::new(Vec::with_capacity(n)),
            f,
        });
        let obs = &self.shared.obs;
        let t0 = obs.region_us.start();
        self.dispatch(region.clone());
        obs.region_us.observe_since(t0);
        obs.regions.inc();
        obs.tasks.add(n as u64);
        obs.region_tasks.observe(n as u64);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let out = std::mem::take(&mut *region.out.lock().expect("no task runs under this lock"));
        for (i, r) in out {
            debug_assert!(slots[i].is_none(), "task {i} executed twice");
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|r| r.expect("region closure must drain its scope and put every result"))
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
/// [`Pool::run`] region. Tasks are indices `0..n`.
pub struct Scope<'r, R> {
    worker: usize,
    next: &'r AtomicUsize,
    n: usize,
    buf: Vec<(usize, R)>,
}

impl<R> Scope<'_, R> {
    /// This worker's index within the pool.
    #[inline]
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Claims the next unclaimed task. Every claimed task **must** be
    /// answered with [`Scope::put`] before the closure returns.
    #[inline]
    pub fn claim(&mut self) -> Option<usize> {
        // Relaxed: the cursor only hands out distinct indices. Task inputs
        // were published by `dispatch`'s lock, results travel under `out`'s.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.n).then_some(i)
    }

    /// Stores the result of task `i`.
    pub fn put(&mut self, i: usize, r: R) {
        self.buf.push((i, r));
    }
}

struct Region<R, F> {
    participants: usize,
    n: usize,
    /// The next unclaimed task index, shared by every participant.
    next: AtomicUsize,
    out: Mutex<Vec<(usize, R)>>,
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
        let mut scope = Scope { worker, next: &self.next, n: self.n, buf: Vec::new() };
        (self.f)(&mut scope);
        if !scope.buf.is_empty() {
            self.out.lock().expect("no task runs under this lock").append(&mut scope.buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::time::{Duration, Instant};

    /// Drains a region of `n` tasks, recording `i -> f(i)`.
    fn map(pool: &Pool, jobs: usize, n: usize, f: fn(usize) -> usize) -> Vec<usize> {
        pool.run(jobs, n, move |scope| {
            while let Some(i) = scope.claim() {
                scope.put(i, f(i));
            }
        })
    }

    /// The distinct `scope.worker()` values that entered the region
    /// closure — the region's participants.
    fn entered(pool: &Pool, jobs: usize, n: usize) -> BTreeSet<usize> {
        let seen = Arc::new(Mutex::new(BTreeSet::new()));
        let s = Arc::clone(&seen);
        pool.run(jobs, n, move |scope| {
            s.lock().unwrap().insert(scope.worker());
            while let Some(i) = scope.claim() {
                scope.put(i, ());
            }
        });
        let out = seen.lock().unwrap().clone();
        out
    }

    #[test]
    fn pool_matches_sequential_across_regions() {
        let pool = Pool::new(4);
        for n in [0usize, 1, 3, 257, 46] {
            let out = map(&pool, 0, n, |i| i * 3 + 1);
            assert_eq!(out, (0..n).map(|i| i * 3 + 1).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn jobs_cap_limits_participants() {
        let pool = Pool::new(4);
        assert_eq!(entered(&pool, 2, 100), BTreeSet::from([0, 1]));
        assert_eq!(entered(&pool, 0, 100).len(), 4);
        assert_eq!(map(&pool, 2, 100, |i| i), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn workers_capped_by_task_count() {
        let pool = Pool::new(16);
        assert_eq!(entered(&pool, 0, 3).len(), 3);
        assert_eq!(entered(&pool, 0, 2).len(), 2);
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map(&pool, 0, 32, |i| if i == 17 { panic!("boom at 17") } else { i })
        }));
        assert!(result.is_err());
        // The pool keeps working after a panicked region.
        assert_eq!(map(&pool, 0, 8, |i| i + 1), (1..9).collect::<Vec<_>>());
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
                        let out = pool.run(0, 53, move |scope| {
                            while let Some(i) = scope.claim() {
                                scope.put(i, base + i);
                            }
                        });
                        assert_eq!(out, (base..base + 53).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn observed_pool_records_region_telemetry() {
        let reg = Registry::new();
        let pool = Pool::try_new(2, &reg).unwrap();
        assert_eq!(map(&pool, 0, 100, |i| i).len(), 100);
        map(&pool, 0, 7, |i| i);
        map(&pool, 0, 0, |i| i); // no tasks: nothing dispatched
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
        let n = 578;
        let counters: Arc<Vec<AtomicUsize>> =
            Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect());
        let c = Arc::clone(&counters);
        pool.run(4, n, move |scope| {
            while let Some(i) = scope.claim() {
                c[i].fetch_add(1, Ordering::Relaxed);
                scope.put(i, ());
            }
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn slow_first_task_does_not_hold_back_the_rest() {
        // Task 0 blocks until every other task has run (or a 10 s
        // deadline passes). Tasks come from one shared cursor, so the
        // other participant must claim all of them meanwhile — even on a
        // single-CPU host, where the OS interleaves the two workers.
        let pool = Pool::new(2);
        let n = 32;
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let ran_on = pool.run(2, n, move |scope| {
            while let Some(i) = scope.claim() {
                if i == 0 {
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while d.load(Ordering::Acquire) < n - 1 && Instant::now() < deadline {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                } else {
                    d.fetch_add(1, Ordering::Release);
                }
                scope.put(i, scope.worker());
            }
        });
        assert_eq!(done.load(Ordering::Acquire), n - 1);
        assert!(ran_on[1..].iter().all(|&w| w != ran_on[0]), "{ran_on:?}");
    }

    #[test]
    fn drop_joins_workers() {
        let pool = Pool::new(3);
        assert_eq!(map(&pool, 0, 10, |i| i).len(), 10);
        drop(pool); // must not hang
    }
}
