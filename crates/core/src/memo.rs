//! The transition cache: the one memo of every check.
//!
//! Problem PV runs the ECPV recognizer at every element node, and
//! document-centric markup repeats itself: a corpus document of a few
//! thousand elements revisits a few dozen recognizer states. This module
//! caches the recognizer's steps, for tree scans, editor guards, batch
//! workers and stream checkers alike.
//!
//! ## Configurations and transitions
//!
//! Between two symbols a recognizer is in a **configuration**: its
//! element, its elision budget and its active list in order, with every
//! nested recognizer's active list inside it (the round buffers are
//! empty then; see [`EcRecognizer`]'s `encode`). The recognizer is
//! deterministic, so a configuration and the next symbol fix the verdict,
//! the next configuration and the exact [`RecognizerStats`] delta of the
//! step. A `TransitionCache` is a lazy transition table in the manner of
//! a lazy DFA (Cox, "Regular Expression Matching in the Wild",
//! swtch.com/~rsc/regexp/regexp3.html): configurations are hash-consed
//! into ids, and `(id, symbol) → (next id or rejected, delta)` is filled
//! in on first use. A checked sequence holds only a `Key`, normally a
//! configuration id. A hit replays the recorded delta and moves the id —
//! one table probe per symbol. A miss runs the caller's recognizer
//! **slot**, reloading it from the stored configuration first if hits
//! moved the key past it, and caches the step.
//!
//! ## Bit-identity
//!
//! A hit is observationally invisible: the delta it replays *is* what the
//! uncached step adds, and the step's verdict is a function of the
//! configuration and the symbol. So a check's
//! [`PvOutcome`](crate::checker::PvOutcome) — verdict, failing node,
//! symbol and index, and every counter — is the same with the memo on,
//! off, cold or warm, on a lent or a private cache, and on the tree or the
//! stream path (`tests/memo_differential.rs`, `tests/stream_differential.rs`).
//!
//! ## Who holds a cache
//!
//! * A [`CheckEngine`](crate::engine::CheckEngine) with the memo on owns
//!   one cache behind a `Mutex` and **lends** it: a scan (the
//!   [`CheckScratch`](crate::checker::CheckScratch) of a tree check, a
//!   guard, a palette query, the stream checker of a byte check or of a
//!   batch worker) takes it with `try_lock` when it starts stepping and
//!   gives it back when it drops. Editor guards and repeated requests
//!   therefore start warm. A scan that finds it taken — a second batch
//!   worker, a concurrent connection — runs on a private cold cache
//!   instead, so no lookup, hit or miss, ever writes shared memory. A lock
//!   poisoned by a panicking scan is recovered with its entries dropped.
//! * A chunked stream check
//!   ([`CheckEngine::stream_checker`](crate::engine::CheckEngine::stream_checker))
//!   keeps a private cache, cold for every checker and counted nowhere:
//!   its sender sets its pace, so it must not hold the engine's.
//!
//! ## Counting once per scan
//!
//! A cache counts its own hits (symbols answered by a probe), misses
//! (symbols the recognizer ran on) and flushes in plain fields. When a
//! scan's lease drops, those counts fold into the engine's [`MemoStats`]
//! and its `pv_engine_memo_*` registry counters once, and a lent cache
//! also publishes its size. Counts depend on which scan held the engine's
//! cache, so they are schedule-dependent telemetry; outcomes never are.
//!
//! ## Bounds
//!
//! Every cache is bounded in bytes by private constants. A configuration
//! longer than 256 words is never interned: its sequence runs its slot
//! directly, the uncached path. A cache holds at most 2,048 transitions
//! (56 bytes each, in a hash table of 4,096 slots: 228 KiB), 2,048
//! configurations (an index of 68 KiB and 24 KiB of spans) and 32,768
//! configuration words (128 KiB, up to 256 KiB of vector capacity) —
//! under 600 KiB in all, plus one entry per element type. When any bound
//! would be exceeded the cache clears itself; the sequences in flight
//! keep their state in their slots and intern afresh on their next step
//! (each caller's flush policy). So an engine's memory stays constant
//! however many distinct child sequences it checks.

use crate::recognizer::{EcRecognizer, RecognizerStats};
use crate::token::ChildSym;
use pv_dtd::ElemId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

/// rustc-style Fx hash: a few multiplies per word, deterministic, and
/// cheaper than SipHash on the probe every symbol pays. Its
/// non-resistance to crafted collisions is irrelevant here: a collision
/// only lengthens a chain in a bounded, flushable cache, never changes an
/// outcome.
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

/// Longest configuration a cache interns, in 4-byte words. A sequence
/// whose configuration outgrows it runs its slot directly to its end.
const CONFIG_WORDS: usize = 256;

/// Transitions, and separately configurations, a cache holds before it
/// clears itself.
const CACHE_ENTRIES: usize = 2048;

/// Configuration words a cache holds before it clears itself.
const CACHE_WORDS: usize = 1 << 15;

/// A transition cache's bounds: the constants above (tests shrink them).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bounds {
    /// Longest internable configuration, in words.
    pub(crate) config_words: usize,
    /// Most transitions, and most configurations, held at once.
    pub(crate) entries: usize,
    /// Most configuration words held at once.
    pub(crate) words: usize,
}

impl Bounds {
    pub(crate) const DEFAULT: Bounds =
        Bounds { config_words: CONFIG_WORDS, entries: CACHE_ENTRIES, words: CACHE_WORDS };
}

/// No configuration id (end of a hash chain, element not yet opened).
const NO_ID: u32 = u32::MAX;

/// One interned configuration: its words are
/// `words[start .. start + len]`; `next` is the previous id with the same
/// hash (the collision chain), `NO_ID` at its end.
#[derive(Clone, Copy)]
struct Interned {
    start: u32,
    len: u32,
    next: u32,
}

/// One cached recognizer step from a configuration on a symbol.
#[derive(Clone, Copy)]
struct Transition {
    /// The configuration after the step, `None` when the symbol was
    /// rejected.
    next: Option<u32>,
    /// Everything the step added to the sequence's stats, `symbols`
    /// included; a hit replays it.
    delta: RecognizerStats,
}

/// Where the recognizer state of a sequence being checked lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Key {
    /// Interned configuration `id`. The sequence's slot holds it too only
    /// when `synced`: hits move the id, not the slot.
    Config { id: u32, synced: bool },
    /// Only in the slot: a flush dropped the sequence's id. The next step
    /// runs the slot and interns the result.
    Slot,
    /// Only in the slot, for good: the configuration outgrew the word
    /// cap, so the slot runs every step until the sequence ends.
    Direct,
}

/// A lazy transition table over recognizer configurations (see the
/// [module docs](self)): configurations hash-consed into ids, and
/// `(id, symbol) → transition`. Configurations are opaque words written
/// and read only by [`EcRecognizer`].
pub(crate) struct TransitionCache {
    bounds: Bounds,
    /// Interned configurations, back to back.
    words: Vec<u32>,
    /// Per configuration id: where its words are.
    configs: Vec<Interned>,
    /// Configuration hash → the newest id with that hash.
    index: HashMap<u64, u32, FxBuild>,
    transitions: HashMap<(u32, ChildSym), Transition, FxBuild>,
    /// Per element: the id of a fresh recognizer's configuration, `NO_ID`
    /// until the element first opens after the last clear.
    initial: Vec<u32>,
    /// Scratch for encoding a configuration.
    scratch: Vec<u32>,
    /// Symbols answered by a probe since the last
    /// [`take_counts`](Self::take_counts).
    hits: u64,
    /// Symbols the recognizer ran on since then.
    misses: u64,
    /// Clears forced by the bounds since then.
    pub(crate) flushes: u64,
}

impl TransitionCache {
    /// An empty cache; nothing is allocated until the first step.
    pub(crate) fn new(bounds: Bounds) -> Self {
        TransitionCache {
            bounds,
            words: Vec::new(),
            configs: Vec::new(),
            index: HashMap::default(),
            transitions: HashMap::default(),
            initial: Vec::new(),
            scratch: Vec::new(),
            hits: 0,
            misses: 0,
            flushes: 0,
        }
    }

    #[inline]
    fn config(&self, id: u32) -> &[u32] {
        let c = self.configs[id as usize];
        &self.words[c.start as usize..(c.start + c.len) as usize]
    }

    /// `true` when one more configuration and one more transition might
    /// not fit: the caller must [`flush`](Self::flush) first.
    #[inline]
    fn full(&self) -> bool {
        self.transitions.len() >= self.bounds.entries
            || self.configs.len() >= self.bounds.entries
            || self.words.len() + self.bounds.config_words > self.bounds.words
    }

    /// The key of a fresh recognizer for `elem` at elision budget `depth`:
    /// its interned configuration, or else `slot` re-armed for it and
    /// interned (`Direct` past the word cap). `None` when interning needs
    /// room the cache lacks: the caller flushes and asks again.
    #[inline]
    pub(crate) fn open(
        &mut self,
        elem: ElemId,
        depth: u32,
        slot: &mut EcRecognizer<'_>,
    ) -> Option<Key> {
        let i = elem.0 as usize;
        if let Some(&id) = self.initial.get(i).filter(|&&id| id != NO_ID) {
            return Some(Key::Config { id, synced: false });
        }
        if self.full() {
            return None;
        }
        slot.reset(elem, depth);
        let key = self.key(slot);
        if let Key::Config { id, .. } = key {
            if self.initial.len() <= i {
                self.initial.resize(i + 1, NO_ID);
            }
            self.initial[i] = id;
        }
        Some(key)
    }

    /// Feeds one symbol to the sequence whose state is `key` (and `slot`)
    /// and counts it in `stats`, rejected or not; returns whether `x` was
    /// accepted. A cached transition replays its delta and moves the key.
    /// A miss runs `slot` — reloaded first if hits moved the key past it —
    /// and caches the step. `None`, with nothing changed, when the step
    /// missed and the cache is full: the caller flushes (its policy; the
    /// sequence's own key included) and steps again.
    #[inline]
    pub(crate) fn step(
        &mut self,
        key: &mut Key,
        slot: &mut EcRecognizer<'_>,
        x: ChildSym,
        stats: &mut RecognizerStats,
    ) -> Option<bool> {
        if let Key::Config { id, synced } = *key {
            if let Some(&t) = self.transitions.get(&(id, x)) {
                self.hits += 1;
                stats.merge(&t.delta);
                let Some(next) = t.next else { return Some(false) };
                // A self-loop leaves a synced slot in step.
                *key = Key::Config { id: next, synced: synced && next == id };
                return Some(true);
            }
        }
        if *key != Key::Direct && self.full() {
            return None;
        }
        Some(self.miss(key, slot, x, stats))
    }

    /// [`step`](Self::step)'s miss: runs `slot` on `x` and caches the step
    /// unless the key is `Direct`. The cache has room.
    fn miss(
        &mut self,
        key: &mut Key,
        slot: &mut EcRecognizer<'_>,
        x: ChildSym,
        stats: &mut RecognizerStats,
    ) -> bool {
        self.misses += 1;
        let from = *key;
        if let Key::Config { id, synced: false } = from {
            slot.load(self.config(id));
        }
        let mut delta = RecognizerStats::default();
        let accepted = slot.advance_run(std::slice::from_ref(&x), &mut delta).is_none();
        stats.merge(&delta);
        if from == Key::Direct {
            return accepted;
        }
        if !accepted {
            // The sequence stops here: cache the verdict, keep no
            // configuration.
            if let Key::Config { id, .. } = from {
                self.record(id, x, Transition { next: None, delta });
            }
            return false;
        }
        let to = self.key(slot);
        if let (Key::Config { id, .. }, Key::Config { id: next, .. }) = (from, to) {
            self.record(id, x, Transition { next: Some(next), delta });
        }
        *key = to;
        true
    }

    /// Runs one whole child sequence of `elem` from a fresh recognizer,
    /// `slot` taking the misses, and returns the index of the rejected
    /// symbol, if any — [`EcRecognizer::advance_run`]'s answer, with the
    /// same stats added to `stats`. The tree path's flush policy: only
    /// this sequence is in flight, so a full cache keeps its state in
    /// `slot` and clears.
    pub(crate) fn run(
        &mut self,
        elem: ElemId,
        depth: u32,
        slot: &mut EcRecognizer<'_>,
        syms: &[ChildSym],
        stats: &mut RecognizerStats,
    ) -> Option<usize> {
        let mut key = loop {
            match self.open(elem, depth, slot) {
                Some(key) => break key,
                None => self.flush(),
            }
        };
        for (i, &x) in syms.iter().enumerate() {
            let accepted = loop {
                match self.step(&mut key, slot, x, stats) {
                    Some(accepted) => break accepted,
                    None => {
                        self.release(&mut key, slot);
                        self.flush();
                    }
                }
            };
            if !accepted {
                return Some(i);
            }
        }
        None
    }

    /// Moves a sequence's state out of the cache into its `slot` (loading
    /// the slot if hits moved the key past it), so that it survives a
    /// [`flush`](Self::flush): a `Config` key becomes `Slot`.
    pub(crate) fn release(&self, key: &mut Key, slot: &mut EcRecognizer<'_>) {
        if let Key::Config { id, synced } = *key {
            if !synced {
                slot.load(self.config(id));
            }
            *key = Key::Slot;
        }
    }

    /// Clears the cache because a bound was reached, counting a flush.
    /// Every key still in flight must have been [released](Self::release).
    pub(crate) fn flush(&mut self) {
        self.flushes += 1;
        self.clear();
    }

    /// The key of the configuration `slot` holds: a synced id, or
    /// `Direct` when it is longer than the word cap. The cache has room.
    fn key(&mut self, slot: &EcRecognizer<'_>) -> Key {
        let mut words = std::mem::take(&mut self.scratch);
        words.clear();
        let key = if slot.encode(&mut words, self.bounds.config_words) {
            Key::Config { id: self.intern(&words), synced: true }
        } else {
            Key::Direct
        };
        self.scratch = words;
        key
    }

    fn intern(&mut self, words: &[u32]) -> u32 {
        let mut h = FxHasher::default();
        for &w in words {
            h.write_u32(w);
        }
        let hash = h.finish();
        let head = self.index.get(&hash).copied().unwrap_or(NO_ID);
        let mut id = head;
        while id != NO_ID {
            if self.config(id) == words {
                return id;
            }
            id = self.configs[id as usize].next;
        }
        let id = self.configs.len() as u32;
        self.configs.push(Interned {
            start: self.words.len() as u32,
            len: words.len() as u32,
            next: head,
        });
        self.words.extend_from_slice(words);
        self.index.insert(hash, id);
        debug_assert!(self.within_bounds());
        id
    }

    fn record(&mut self, id: u32, x: ChildSym, t: Transition) {
        self.transitions.insert((id, x), t);
        debug_assert!(self.within_bounds());
    }

    pub(crate) fn within_bounds(&self) -> bool {
        self.transitions.len() <= self.bounds.entries
            && self.configs.len() <= self.bounds.entries
            && self.words.len() <= self.bounds.words
    }

    /// Drops every id and transition (allocations are kept).
    fn clear(&mut self) {
        self.words.clear();
        self.configs.clear();
        self.index.clear();
        self.transitions.clear();
        self.initial.fill(NO_ID);
    }

    /// Configurations resident.
    #[cfg(test)]
    pub(crate) fn configs(&self) -> usize {
        self.configs.len()
    }

    /// Hits, misses and flushes since the last call, zeroing them.
    fn take_counts(&mut self) -> (u64, u64, u64) {
        let counts = (self.hits, self.misses, self.flushes);
        (self.hits, self.misses, self.flushes) = (0, 0, 0);
        counts
    }
}

/// Telemetry snapshot of an engine's memo (see
/// [`CheckEngine::memo_stats`](crate::engine::CheckEngine::memo_stats)).
///
/// Counts are telemetry, not semantics: which scan held the engine's
/// cache, and so what was warm, depends on the schedule, so these numbers
/// may vary across runs while outcomes never do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Child symbols answered from a transition cache.
    pub hits: u64,
    /// Child symbols the recognizer had to run on.
    pub misses: u64,
    /// Transitions resident in the engine's cache, as of the last scan
    /// that returned it.
    pub entries: usize,
    /// Distinct configurations resident in the engine's cache, as of the
    /// last scan that returned it.
    pub shapes: usize,
    /// Cache clears forced by the bounds.
    pub flushes: u64,
}

impl MemoStats {
    /// Fraction of symbols answered from the cache (0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// An engine's memo: the transition cache it lends to one scan at a time,
/// and the telemetry every scan folds into once, when it ends.
pub(crate) struct Memo {
    /// The bounds of the engine's cache and of every private one.
    bounds: Bounds,
    cache: Mutex<TransitionCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    flushes: AtomicU64,
    entries: AtomicUsize,
    configs: AtomicUsize,
    /// Registry mirrors of the three counters above (no-op handles unless
    /// the engine was built observed).
    obs_hits: pv_obs::Counter,
    obs_misses: pv_obs::Counter,
    obs_flushes: pv_obs::Counter,
}

impl Memo {
    /// An empty memo whose counters mirror into `registry`
    /// (`pv_engine_memo_{hits,misses,flushes}_total`, shared by every
    /// engine observed by that registry).
    pub(crate) fn new(bounds: Bounds, registry: &pv_obs::Registry) -> Memo {
        Memo {
            bounds,
            cache: Mutex::new(TransitionCache::new(bounds)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            entries: AtomicUsize::new(0),
            configs: AtomicUsize::new(0),
            obs_hits: registry.counter("pv_engine_memo_hits_total"),
            obs_misses: registry.counter("pv_engine_memo_misses_total"),
            obs_flushes: registry.counter("pv_engine_memo_flushes_total"),
        }
    }

    /// A cache for one scan: the engine's if no other scan holds it, else
    /// a private cold one with the same bounds.
    pub(crate) fn lease(&self) -> Lease<'_> {
        let lent = match self.cache.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => {
                // A scan panicked while it held the cache. Start it over
                // rather than trust what the panic interrupted.
                let mut guard = poisoned.into_inner();
                guard.clear();
                self.cache.clear_poison();
                Some(guard)
            }
            Err(TryLockError::WouldBlock) => None,
        };
        Lease { memo: Some(self), lent, own: TransitionCache::new(self.bounds) }
    }

    /// The counters every finished scan folded in, and the engine cache's
    /// size as its last holder left it.
    pub(crate) fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            shapes: self.configs.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry of the engine's cache, waiting for a scan that
    /// holds it to give it back (so a thread must not call it while its
    /// own scratch holds the cache).
    pub(crate) fn clear(&self) {
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        cache.clear();
        self.cache.clear_poison();
        self.entries.store(0, Ordering::Relaxed);
        self.configs.store(0, Ordering::Relaxed);
    }

    /// Zeroes the hit, miss and flush counters.
    pub(crate) fn reset_counts(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.flushes.store(0, Ordering::Relaxed);
    }
}

/// One scan's transition cache (see [`Memo::lease`]), or a cache that
/// belongs to no engine ([`Lease::private`]). Dropping a lease folds the
/// scan's counts into the engine's telemetry and returns a lent cache.
pub(crate) struct Lease<'m> {
    /// The memo the counts fold into; `None` for a private cache.
    memo: Option<&'m Memo>,
    /// The engine's cache, when no other scan held it.
    lent: Option<MutexGuard<'m, TransitionCache>>,
    /// The scan's own cache otherwise (empty until first used).
    own: TransitionCache,
}

impl Lease<'_> {
    /// A cold cache of no engine, whose counts go nowhere: a chunked
    /// stream check's, or a byte check's with the memo off.
    pub(crate) fn private(bounds: Bounds) -> Self {
        Lease { memo: None, lent: None, own: TransitionCache::new(bounds) }
    }

    /// The cache this scan steps through.
    #[inline]
    pub(crate) fn cache(&mut self) -> &mut TransitionCache {
        self.lent.as_deref_mut().unwrap_or(&mut self.own)
    }

    /// [`Lease::cache`], read-only.
    #[cfg(test)]
    pub(crate) fn peek(&self) -> &TransitionCache {
        self.lent.as_deref().unwrap_or(&self.own)
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        let Some(memo) = self.memo else { return };
        let (hits, misses, flushes) = self.cache().take_counts();
        memo.hits.fetch_add(hits, Ordering::Relaxed);
        memo.misses.fetch_add(misses, Ordering::Relaxed);
        memo.flushes.fetch_add(flushes, Ordering::Relaxed);
        memo.obs_hits.add(hits);
        memo.obs_misses.add(misses);
        memo.obs_flushes.add(flushes);
        if let Some(cache) = &self.lent {
            memo.entries.store(cache.transitions.len(), Ordering::Relaxed);
            memo.configs.store(cache.configs.len(), Ordering::Relaxed);
        }
    }
}
