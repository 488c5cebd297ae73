//! # pv-obs — dependency-free observability for the PV stack
//!
//! A sharded metrics registry the serving path can afford: counters,
//! gauges, and log-linear histograms registered by **static name**,
//! updated through cloneable handles whose hot path is one relaxed
//! atomic RMW. Registration (name → cell) is the only locked operation,
//! and it happens once per metric at startup; after that, readers
//! snapshot and writers add without ever meeting a lock.
//!
//! ## Zero cost when disabled
//!
//! [`Registry::disabled()`] hands out handles with no backing cell: every
//! `add`/`observe` is a branch on a `None` and nothing else. Code can
//! therefore thread handles unconditionally — the engine, the pool, and
//! the server all carry them — and the differential suite holds the real
//! invariant: `PvOutcome` is **bit-identical** metrics on or off, because
//! instrumentation only ever observes wall-clock and counter values, and
//! never steers control flow.
//!
//! ## Naming scheme
//!
//! `pv_<layer>_<what>[_<unit>]`, snake case, units spelled out in the
//! suffix: `_total` for counters, `_us` for microsecond histograms,
//! `_bytes` for size histograms, bare nouns for gauges. Examples:
//! `pv_service_requests_total`, `pv_engine_check_us`,
//! `pv_service_inflight`.
//!
//! ## Quick start
//!
//! ```
//! let reg = pv_obs::Registry::new();
//! let hits = reg.counter("pv_demo_hits_total");
//! let lat = reg.histogram("pv_demo_lat_us");
//! hits.inc();
//! lat.observe(250);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counters["pv_demo_hits_total"], 1);
//! assert_eq!(snap.histograms["pv_demo_lat_us"].p50(), 250);
//! ```

#![warn(missing_docs)]

mod hist;
mod trace;

pub use hist::HistSnapshot;
pub use trace::{Trace, SLOW_THRESHOLD_US};

use hist::HistCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;
use trace::TraceRing;

/// Shards for the name → cell map: registration is rare, but several
/// threads may register concurrently at startup (one engine per LOAD).
const NAME_SHARDS: usize = 8;

/// Slow-trace ring capacity.
const TRACE_CAP: usize = 32;

struct CounterCell(AtomicU64);
struct GaugeCell(AtomicI64);

enum Slot {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Hist(Arc<HistCell>),
}

struct Inner {
    shards: Vec<RwLock<HashMap<&'static str, Slot>>>,
    traces: TraceRing,
}

/// The metrics registry: a shareable, cheaply clonable handle factory.
/// Clones share the same underlying metrics. See the crate docs for the
/// cost model and the naming scheme.
#[derive(Clone)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl Registry {
    /// An enabled registry.
    pub fn new() -> Registry {
        Registry {
            inner: Some(Arc::new(Inner {
                shards: (0..NAME_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
                traces: TraceRing::new(TRACE_CAP),
            })),
        }
    }

    /// A disabled registry: every handle it hands out is a no-op, every
    /// snapshot is empty. This is the default the instrumented layers
    /// carry when nobody asked for telemetry.
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// Whether this registry records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// `Some(Instant::now())` when enabled — the stage-timer idiom:
    /// `let t = reg.start();` … `hist.observe_since(t);` costs nothing
    /// when the registry is off.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.inner.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    fn shard_of(name: &str) -> usize {
        // FNV-1a over the name; registration-time only.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in name.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        h as usize % NAME_SHARDS
    }

    fn slot_with<T>(
        &self,
        name: &'static str,
        make: impl FnOnce() -> Slot,
        pick: impl Fn(&Slot) -> Option<T>,
    ) -> Option<T> {
        let inner = self.inner.as_ref()?;
        let shard = &inner.shards[Self::shard_of(name)];
        if let Some(slot) = shard.read().expect("registry shard poisoned").get(name) {
            return Some(pick(slot).unwrap_or_else(|| {
                panic!("metric {name:?} already registered with a different type")
            }));
        }
        let mut w = shard.write().expect("registry shard poisoned");
        let slot = w.entry(name).or_insert_with(make);
        Some(
            pick(slot).unwrap_or_else(|| {
                panic!("metric {name:?} already registered with a different type")
            }),
        )
    }

    /// Gets or registers a monotone counter by its static name.
    pub fn counter(&self, name: &'static str) -> Counter {
        Counter(self.slot_with(
            name,
            || Slot::Counter(Arc::new(CounterCell(AtomicU64::new(0)))),
            |s| match s {
                Slot::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        ))
    }

    /// Gets or registers an up/down gauge by its static name.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        Gauge(self.slot_with(
            name,
            || Slot::Gauge(Arc::new(GaugeCell(AtomicI64::new(0)))),
            |s| match s {
                Slot::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        ))
    }

    /// Gets or registers a log-linear histogram by its static name.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        Histogram(self.slot_with(
            name,
            || Slot::Hist(Arc::new(HistCell::new())),
            |s| match s {
                Slot::Hist(h) => Some(Arc::clone(h)),
                _ => None,
            },
        ))
    }

    /// Offers a stage-level trace to the slow ring; kept only if
    /// `trace.total_us` meets [`SLOW_THRESHOLD_US`].
    pub fn record_trace(&self, trace: Trace) {
        if let Some(inner) = &self.inner {
            inner.traces.record(trace);
        }
    }

    /// Zeroes every counter and histogram and drops the slow traces.
    /// Gauges are left alone — they mirror live state (open connections,
    /// inflight requests) that a telemetry reset must not falsify.
    pub fn reset(&self) {
        let Some(inner) = &self.inner else { return };
        for shard in &inner.shards {
            for slot in shard.read().expect("registry shard poisoned").values() {
                match slot {
                    Slot::Counter(c) => c.0.store(0, Ordering::Relaxed),
                    Slot::Hist(h) => h.reset(),
                    Slot::Gauge(_) => {}
                }
            }
        }
        inner.traces.clear();
    }

    /// A point-in-time copy of everything the registry holds, with
    /// metrics in name order (deterministic exposition).
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        let Some(inner) = &self.inner else { return snap };
        for shard in &inner.shards {
            for (&name, slot) in shard.read().expect("registry shard poisoned").iter() {
                match slot {
                    Slot::Counter(c) => {
                        snap.counters.insert(name.to_owned(), c.0.load(Ordering::Relaxed));
                    }
                    Slot::Gauge(g) => {
                        snap.gauges.insert(name.to_owned(), g.0.load(Ordering::Relaxed));
                    }
                    Slot::Hist(h) => {
                        snap.histograms.insert(name.to_owned(), h.snapshot());
                    }
                }
            }
        }
        snap.traces = inner.traces.snapshot();
        snap
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// A monotone counter handle; cloning shares the cell. The default value
/// is a no-op handle (what a disabled registry returns).
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<CounterCell>>);

impl Counter {
    /// Adds `n` (one relaxed atomic add; nothing when no-op).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.0.load(Ordering::Relaxed))
    }
}

/// An up/down gauge handle; cloning shares the cell.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<GaugeCell>>);

impl Gauge {
    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(g) = &self.0 {
            g.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Sets the value outright.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.0.store(v, Ordering::Relaxed);
        }
    }

    /// The current value (0 for a no-op handle).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.0.load(Ordering::Relaxed))
    }
}

/// A histogram handle; cloning shares the cell. Values are plain `u64`
/// — the name's unit suffix says what they mean (`_us`, `_bytes`, …).
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<HistCell>>);

impl Histogram {
    /// Records one observation (three relaxed atomic RMWs; nothing when
    /// no-op).
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }

    /// Whether this handle records anywhere.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    /// `Some(Instant::now())` when live — pair with
    /// [`Histogram::observe_since`].
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.0.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Records the microseconds elapsed since `t0` (a `None` from a
    /// no-op [`Histogram::start`] records nothing). Returns the elapsed
    /// microseconds when it recorded.
    #[inline]
    pub fn observe_since(&self, t0: Option<Instant>) -> Option<u64> {
        let t0 = t0?;
        let us = t0.elapsed().as_micros() as u64;
        self.observe(us);
        Some(us)
    }

    /// A snapshot of just this histogram (empty for a no-op handle).
    pub fn snapshot(&self) -> HistSnapshot {
        self.0.as_ref().map_or_else(HistSnapshot::empty, |h| h.snapshot())
    }
}

/// Everything a registry held at one instant, keyed by metric name.
#[derive(Default)]
pub struct Snapshot {
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots (percentiles computed on read).
    pub histograms: BTreeMap<String, HistSnapshot>,
    /// The slow-request trace ring, oldest first.
    pub traces: Vec<Trace>,
}

impl Snapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): counters and gauges as single samples,
    /// histograms as summaries (`{quantile="…"}` samples plus `_sum`,
    /// `_count`, and a `_max` gauge). Deterministic: metrics appear in
    /// name order. Traces are not exposed here — they are part of the
    /// JSON `METRICS` surface only.
    pub fn prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} summary");
            for (q, label) in [(h.p50(), "0.5"), (h.p95(), "0.95"), (h.p99(), "0.99")] {
                let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {q}");
            }
            let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum, h.count);
            let _ = writeln!(out, "# TYPE {name}_max gauge\n{name}_max {}", h.max);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells_by_name() {
        let reg = Registry::new();
        let a = reg.counter("pv_test_total");
        let b = reg.counter("pv_test_total");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(reg.snapshot().counters["pv_test_total"], 3);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let reg = Registry::disabled();
        assert!(!reg.enabled());
        let c = reg.counter("pv_test_total");
        let g = reg.gauge("pv_test_g");
        let h = reg.histogram("pv_test_us");
        c.inc();
        g.add(5);
        h.observe(100);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
        assert!(reg.start().is_none());
    }

    #[test]
    fn reset_zeroes_counters_and_hists_but_not_gauges() {
        let reg = Registry::new();
        let c = reg.counter("pv_test_total");
        let g = reg.gauge("pv_test_open");
        let h = reg.histogram("pv_test_us");
        c.add(7);
        g.set(3);
        h.observe(50);
        reg.record_trace(Trace { op: "CHECK".into(), total_us: u64::MAX, stages: vec![] });
        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["pv_test_total"], 0);
        assert_eq!(snap.gauges["pv_test_open"], 3);
        assert_eq!(snap.histograms["pv_test_us"].count, 0);
        assert!(snap.traces.is_empty());
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("pv_test_mismatch");
        let _ = reg.gauge("pv_test_mismatch");
    }

    #[test]
    fn exposition_is_well_formed_and_ordered() {
        let reg = Registry::new();
        reg.counter("pv_b_total").add(2);
        reg.gauge("pv_a_open").set(-1);
        reg.histogram("pv_c_us").observe(10);
        let text = reg.snapshot().prometheus_text();
        assert!(text.contains("# TYPE pv_b_total counter\npv_b_total 2\n"));
        assert!(text.contains("# TYPE pv_a_open gauge\npv_a_open -1\n"));
        assert!(text.contains("pv_c_us{quantile=\"0.5\"} 10"));
        assert!(text.contains("pv_c_us_count 1"));
        assert!(text.contains("pv_c_us_max 10"));
    }

    #[test]
    fn concurrent_updates_sum_exactly() {
        let reg = Registry::new();
        let threads = 8;
        let per = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = reg.counter("pv_test_mt_total");
                let h = reg.histogram("pv_test_mt_us");
                s.spawn(move || {
                    for i in 0..per {
                        c.inc();
                        h.observe(i % 97);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counters["pv_test_mt_total"], threads * per);
        assert_eq!(snap.histograms["pv_test_mt_us"].count, threads * per);
    }
}
