//! Shape-memoized ECPV verdicts: the checker's cache layer.
//!
//! Real document-centric markup is massively repetitive — thousands of
//! element nodes share the same **shape** `(element type, child-symbol
//! sequence)`, and Problem ECPV is a pure function of exactly that pair
//! (plus the checker's fixed DTD analysis and depth budget). This module
//! hash-conses child-symbol sequences into interned [`ShapeId`]s and caches
//! `(ElemId, ShapeId) → (verdict, stats delta)` so a repeated shape costs
//! one hash lookup instead of a recognizer walk.
//!
//! ## Bit-identity
//!
//! A cache hit must be observationally invisible: the checker's
//! [`PvOutcome`](crate::checker::PvOutcome) — including every
//! [`RecognizerStats`] counter — has to come out identical with the memo
//! on, off, cold, or warm. Two properties make that hold:
//!
//! 1. the recognizer is deterministic, so for a fixed checker the verdict
//!    *and the work counters* of a `(elem, shape)` run are a function of
//!    the key; the cache stores the counters as a **stats delta** and a hit
//!    *replays* the delta into the caller's accumulator, reproducing
//!    exactly what the uncached run would have added;
//! 2. the failing position of a rejected shape is a symbol index into the
//!    sequence, which is node-independent; the caller re-renders the
//!    failing symbol's display string from its own sequence.
//!
//! ## Concurrency
//!
//! The cache is shared by reference across the pool workers of a batch
//! check ([`CheckEngine::check_batch_pooled`](crate::engine::CheckEngine::check_batch_pooled)),
//! so it is sharded: a deterministic hash of the symbol sequence picks one
//! of [`SHARD_COUNT`] shards, each behind its own `RwLock` — hits take a
//! read lock (read-mostly by design), only misses write. Races are benign:
//! two workers missing on the same shape insert the *same* entry (the
//! recognizer is deterministic), so insertion order can only affect the
//! hit/miss telemetry, never an outcome.
//!
//! ## Bounded growth
//!
//! Adversarial inputs (every node a distinct shape) would otherwise grow
//! the cache without limit, so each shard holds at most its share of the
//! configured capacity; inserting into a full shard flushes that shard
//! (interner and verdicts together — the interned ids are shard-local) and
//! starts it over. Flushing only costs re-derivation, never correctness.

use crate::recognizer::RecognizerStats;
use crate::token::ChildSym;
use pv_dtd::ElemId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// rustc-style Fx hash. The cache hashes a node's whole child-symbol
/// sequence on *every* lookup, so hashing is the dominant cost of both a
/// hit and the adversarial all-miss regime; SipHash there costs more than
/// the bound the benchmarks budget for cache overhead. Fx is a few
/// multiplies per symbol, deterministic (shard selection needs the same
/// hash on every thread), and its non-resistance to crafted collisions is
/// irrelevant here: a collision only degrades a bounded, flushable cache's
/// hit rate, never an outcome. The stream checker's transition cache
/// ([`crate::stream`]) hashes its configurations and transition keys
/// with it for the same reasons.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;

/// One interner bucket: the (in practice singleton) list of shapes whose
/// sequences share a hash value.
type ShapeChain = Vec<(Box<[ChildSym]>, ShapeId)>;

/// An interned child-symbol sequence (shard-local; see the module docs).
/// Exposed only through [`ShapeCache`] internals and
/// [`MemoStats::shapes`] — the id itself never leaves the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShapeId(u32);

/// Number of independently locked shards.
pub const SHARD_COUNT: usize = 16;

/// Default total capacity (entries across all shards) of a
/// [`ShapeCache`]; see [`ShapeCache::with_capacity`].
pub const DEFAULT_MEMO_CAPACITY: usize = 1 << 16;

/// The memoized result of one `(element, shape)` ECPV run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoVerdict {
    /// Index of the rejected symbol within the shape, or `None` when the
    /// content is potentially valid.
    pub failing: Option<u32>,
    /// The exact [`RecognizerStats`] the uncached run accumulated; a hit
    /// replays this delta so counters stay bit-identical.
    pub stats: RecognizerStats,
}

#[derive(Default)]
struct Shard {
    /// The interner, keyed by the **precomputed** sequence hash so a probe
    /// hashes the sequence exactly once (shard selection reuses the same
    /// value; a `HashMap<Box<[ChildSym]>, _>` would re-hash the whole
    /// sequence on every map operation). Each bucket is the — in practice
    /// singleton — list of shapes sharing the hash; equality on the stored
    /// sequence keeps a collision a slow path, never a wrong answer.
    shapes: HashMap<u64, ShapeChain, FxBuild>,
    /// The verdict table over interned shapes (8-byte keys: cheap to
    /// hash).
    verdicts: HashMap<(ElemId, ShapeId), MemoVerdict, FxBuild>,
    /// Next shard-local [`ShapeId`]; reset on flush.
    next_shape: u32,
}

impl Shard {
    /// Finds the interned id of `syms` given its precomputed hash.
    fn shape_of(&self, hash: u64, syms: &[ChildSym]) -> Option<ShapeId> {
        let chain = self.shapes.get(&hash)?;
        chain.iter().find(|(seq, _)| seq.as_ref() == syms).map(|&(_, sid)| sid)
    }
}

/// A sharded, bounded, read-mostly cache of ECPV verdicts keyed by
/// `(element type, interned child-symbol shape)`.
///
/// One cache belongs to one [`CheckEngine`](crate::engine::CheckEngine)
/// (verdicts depend on its DTD analysis and depth budget, both fixed at
/// construction) and lives as long as the engine — which is what makes
/// editor sessions amortized: the guards' re-checks of unchanged shapes
/// become hash lookups across edits.
pub struct ShapeCache {
    shards: Vec<RwLock<Shard>>,
    cap_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    flushes: AtomicU64,
    /// Registry mirrors of the three counters above — no-op handles
    /// unless [`ShapeCache::instrument`] was called, so the uninstrumented
    /// lookup path pays a null-check and nothing more.
    obs_hits: pv_obs::Counter,
    obs_misses: pv_obs::Counter,
    obs_flushes: pv_obs::Counter,
}

/// Telemetry snapshot of a [`ShapeCache`] (see
/// [`CheckEngine::memo_stats`](crate::engine::CheckEngine::memo_stats)).
///
/// Hit/miss counts are telemetry, not semantics: under batch checking
/// two workers can race to the same cold shape and both count a miss, so
/// these numbers may vary across schedules while outcomes never do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the recognizer.
    pub misses: u64,
    /// Verdict entries currently resident.
    pub entries: usize,
    /// Distinct interned shapes currently resident.
    pub shapes: usize,
    /// Shard flushes forced by the capacity bound.
    pub flushes: u64,
}

impl MemoStats {
    /// Fraction of lookups answered from the cache (0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl ShapeCache {
    /// A cache with the default capacity ([`DEFAULT_MEMO_CAPACITY`]).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_MEMO_CAPACITY)
    }

    /// A cache bounded to roughly `capacity` verdict entries in total
    /// (each of the [`SHARD_COUNT`] shards gets an equal share, minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        ShapeCache {
            shards: (0..SHARD_COUNT).map(|_| RwLock::new(Shard::default())).collect(),
            cap_per_shard: (capacity / SHARD_COUNT).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            obs_hits: pv_obs::Counter::default(),
            obs_misses: pv_obs::Counter::default(),
            obs_flushes: pv_obs::Counter::default(),
        }
    }

    /// Mirrors hit/miss/flush telemetry into `registry`
    /// (`pv_engine_memo_{hits,misses,flushes}_total`). Every instrumented
    /// cache in a process shares those registry cells, so the counters
    /// aggregate across loaded DTDs. Adds one relaxed atomic add per
    /// lookup when the registry is enabled; a disabled registry keeps
    /// the handles as no-ops.
    pub fn instrument(&mut self, registry: &pv_obs::Registry) {
        self.obs_hits = registry.counter("pv_engine_memo_hits_total");
        self.obs_misses = registry.counter("pv_engine_memo_misses_total");
        self.obs_flushes = registry.counter("pv_engine_memo_flushes_total");
    }

    /// Zeroes the hit/miss/flush counters (entries are untouched — use
    /// [`ShapeCache::clear`] for those). The service's `RESET` verb uses
    /// both to open a fresh telemetry window.
    pub fn reset_telemetry(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.flushes.store(0, Ordering::Relaxed);
    }

    /// The deterministic sequence hash: seed-free Fx, identical on every
    /// thread, computed **once** per cache operation and reused for both
    /// shard selection and the interner probe.
    fn seq_hash(syms: &[ChildSym]) -> u64 {
        let mut h = FxHasher::default();
        syms.hash(&mut h);
        h.finish()
    }

    /// Shard for a precomputed sequence hash. Fx mixes poorly in the low
    /// bits; take the top ones so the shard index does not correlate with
    /// the interner's in-map bucket index.
    fn shard_for(&self, hash: u64) -> &RwLock<Shard> {
        &self.shards[(hash >> 56) as usize % SHARD_COUNT]
    }

    /// Looks up the verdict for `(elem, syms)`. Counts a hit or a miss.
    /// A hit costs one sequence hash, one read lock, and two 8-byte-key
    /// probes.
    pub fn lookup(&self, elem: ElemId, syms: &[ChildSym]) -> Option<MemoVerdict> {
        let hash = Self::seq_hash(syms);
        let shard = self.shard_for(hash).read().expect("memo shard poisoned");
        let found = shard
            .shape_of(hash, syms)
            .and_then(|sid| shard.verdicts.get(&(elem, sid)))
            .copied();
        drop(shard);
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.obs_hits.inc();
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.obs_misses.inc();
                None
            }
        }
    }

    /// Records the verdict for `(elem, syms)`, interning the shape if it
    /// is new. A full shard is flushed first (capacity bound).
    pub fn insert(&self, elem: ElemId, syms: &[ChildSym], verdict: MemoVerdict) {
        let hash = Self::seq_hash(syms);
        let mut guard = self.shard_for(hash).write().expect("memo shard poisoned");
        let shard = &mut *guard;
        if shard.verdicts.len() >= self.cap_per_shard {
            shard.shapes.clear();
            shard.verdicts.clear();
            shard.next_shape = 0;
            self.flushes.fetch_add(1, Ordering::Relaxed);
            self.obs_flushes.inc();
        }
        let chain = shard.shapes.entry(hash).or_default();
        let sid = match chain.iter().find(|(seq, _)| seq.as_ref() == syms) {
            Some(&(_, sid)) => sid,
            None => {
                let sid = ShapeId(shard.next_shape);
                shard.next_shape += 1;
                chain.push((syms.to_vec().into_boxed_slice(), sid));
                sid
            }
        };
        shard.verdicts.insert((elem, sid), verdict);
    }

    /// Drops every entry (interner and verdicts), keeping the telemetry
    /// counters. Used by benchmarks to measure cold-cache behaviour.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.write().expect("memo shard poisoned");
            s.shapes.clear();
            s.verdicts.clear();
            s.next_shape = 0;
        }
    }

    /// A telemetry snapshot (entry counts walk the shards under read
    /// locks; counters are relaxed loads).
    pub fn stats(&self) -> MemoStats {
        let mut entries = 0usize;
        let mut shapes = 0usize;
        for shard in &self.shards {
            let s = shard.read().expect("memo shard poisoned");
            entries += s.verdicts.len();
            shapes += s.shapes.values().map(Vec::len).sum::<usize>();
        }
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            shapes,
            flushes: self.flushes.load(Ordering::Relaxed),
        }
    }
}

impl Default for ShapeCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: u32) -> Vec<ChildSym> {
        (0..n).map(|i| ChildSym::Elem(ElemId(i))).collect()
    }

    fn verdict(failing: Option<u32>) -> MemoVerdict {
        MemoVerdict {
            failing,
            stats: RecognizerStats { symbols: 3, node_visits: 7, subs_created: 1, specs_denied: 0 },
        }
    }

    #[test]
    fn lookup_miss_then_hit_roundtrips() {
        let cache = ShapeCache::new();
        let syms = seq(4);
        assert_eq!(cache.lookup(ElemId(0), &syms), None);
        cache.insert(ElemId(0), &syms, verdict(Some(2)));
        assert_eq!(cache.lookup(ElemId(0), &syms), Some(verdict(Some(2))));
        // Same shape, different element type: still a miss.
        assert_eq!(cache.lookup(ElemId(1), &syms), None);
        cache.insert(ElemId(1), &syms, verdict(None));
        assert_eq!(cache.lookup(ElemId(1), &syms), Some(verdict(None)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.shapes, 1, "one shape shared by two element types");
    }

    #[test]
    fn capacity_bound_flushes_rather_than_grows() {
        let cache = ShapeCache::with_capacity(SHARD_COUNT * 4);
        for i in 0..10_000u32 {
            cache.insert(ElemId(0), &seq(i % 97 + 1), verdict(None));
        }
        // Distinct lengths spread over shards; each shard stays at ≤ cap.
        let stats = cache.stats();
        assert!(stats.entries <= SHARD_COUNT * 4, "{stats:?}");
        assert!(stats.flushes > 0);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn empty_and_sigma_shapes_are_distinct_keys() {
        let cache = ShapeCache::new();
        cache.insert(ElemId(0), &[], verdict(None));
        assert_eq!(cache.lookup(ElemId(0), &[]), Some(verdict(None)));
        assert_eq!(cache.lookup(ElemId(0), &[ChildSym::Sigma]), None);
    }
}
