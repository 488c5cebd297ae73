//! The two-level task queues of one region.
//!
//! Level 1 is a deque of whole *groups* per worker (a group is a document
//! of the checker's region), level 2 a chunk-claimable cursor over each
//! group's task indices.
//!
//! Every group id is seeded up front into one worker's deque (contiguous
//! blocks, so a worker's own groups are document-order adjacent). Owners
//! pop from the **front** of their deque; thieves pop from the **back** of
//! a victim's, so a steal takes the group the owner would reach last. Only
//! when no unstarted group exists anywhere does a worker **join** the
//! started group with the most work left, claiming chunks of its remaining
//! index range. A batch mixing one giant document with many small ones
//! thus keeps every worker busy — the small documents drain first as whole
//! units, then everyone converges on the giant one's node range — and a
//! region of one group (a single document) is shared chunk by chunk from
//! the start.
//!
//! Claiming is a CAS loop on the group's cursor, so every `(group, index)`
//! task is handed out exactly once; a worker that claims a chunk always
//! runs all of it before claiming again. No task ever creates work, so
//! deques and cursors only drain, and one full failed scan — own deque,
//! every victim deque, every group cursor — proves the region complete
//! (no sleeping/waking protocol is needed for this finite-batch pool).
//!
//! The deques are `Mutex<VecDeque<usize>>`, not lock-free ring buffers:
//! the workspace forbids `unsafe`, and a deque is touched once per group,
//! not once per task.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The shared task state of one region.
pub(crate) struct GroupQueues {
    deques: Vec<Mutex<VecDeque<usize>>>,
    groups: Vec<GroupCursor>,
}

/// Chunk-claimable cursor over one group's `0..len` index range.
struct GroupCursor {
    len: usize,
    /// Next unclaimed index; claimed in `chunk`-sized ranges.
    next: AtomicUsize,
    /// Claim granularity: small enough that late joiners still split the
    /// tail of a big group, big enough that the per-chunk CAS is noise.
    chunk: usize,
}

/// Work-distribution counters of one region.
pub(crate) struct GroupCounters {
    /// Whole groups taken from another worker's deque.
    pub(crate) steals: AtomicU64,
    /// Times an idle worker joined a group another worker had started.
    pub(crate) joins: AtomicU64,
}

impl GroupCounters {
    pub(crate) fn new() -> Self {
        GroupCounters { steals: AtomicU64::new(0), joins: AtomicU64::new(0) }
    }
}

impl GroupQueues {
    /// Seeds the group ids `0..sizes.len()` into `workers` deques as
    /// contiguous balanced blocks (`len mod workers` leading deques get
    /// one extra). Chunk sizes scale with the group and shrink with the
    /// worker count, clamped to `[1, 64]`.
    pub(crate) fn split(workers: usize, sizes: &[usize]) -> Self {
        debug_assert!(workers > 0);
        let n = sizes.len();
        let base = n / workers;
        let extra = n % workers;
        let mut deques = Vec::with_capacity(workers);
        let mut next = 0usize;
        for w in 0..workers {
            let take = base + usize::from(w < extra);
            deques.push(Mutex::new((next..next + take).collect()));
            next += take;
        }
        debug_assert_eq!(next, n);
        let groups = sizes
            .iter()
            .map(|&len| GroupCursor {
                len,
                next: AtomicUsize::new(0),
                chunk: (len / (workers * 4)).clamp(1, 64),
            })
            .collect();
        GroupQueues { deques, groups }
    }

    /// Claims the next chunk of group `g`, or `None` once the group is
    /// fully claimed. A returned range is never empty.
    fn claim(&self, g: usize) -> Option<Range<usize>> {
        let c = &self.groups[g];
        let mut cur = c.next.load(Ordering::Relaxed);
        loop {
            if cur >= c.len {
                return None;
            }
            let hi = (cur + c.chunk).min(c.len);
            match c.next.compare_exchange_weak(cur, hi, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return Some(cur..hi),
                Err(seen) => cur = seen,
            }
        }
    }

    /// The started group with the most unclaimed work, for idle joiners.
    fn most_loaded(&self) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        for (g, c) in self.groups.iter().enumerate() {
            let remaining = c.len.saturating_sub(c.next.load(Ordering::Relaxed));
            if remaining > 0 && best.is_none_or(|(_, r)| remaining > r) {
                best = Some((g, remaining));
            }
        }
        best.map(|(g, _)| g)
    }

    /// One scheduling step for worker `w`: claims the next chunk of work
    /// as `(group, index range)`, updating `current` (the group this
    /// worker is attached to, threaded by the caller so claiming stays
    /// incremental). `None` means no claimable task is left anywhere —
    /// tasks another worker already claimed may still be *executing*; the
    /// region join covers that.
    pub(crate) fn next_chunk(
        &self,
        w: usize,
        current: &mut Option<usize>,
        counters: &GroupCounters,
    ) -> Option<(usize, Range<usize>)> {
        loop {
            // Level 2: drain the group this worker is attached to.
            if let Some(g) = *current {
                match self.claim(g) {
                    Some(chunk) => return Some((g, chunk)),
                    None => *current = None,
                }
            }
            // Level 1: own deque front, then steal a whole group.
            if let Some(g) = self.deques[w].lock().unwrap().pop_front() {
                *current = Some(g);
                continue;
            }
            let n = self.deques.len();
            let stolen =
                (1..n).find_map(|off| self.deques[(w + off) % n].lock().unwrap().pop_back());
            if let Some(g) = stolen {
                counters.steals.fetch_add(1, Ordering::Relaxed);
                *current = Some(g);
                continue;
            }
            // No whole group anywhere: join the biggest started one.
            match self.most_loaded() {
                Some(g) => {
                    counters.joins.fetch_add(1, Ordering::Relaxed);
                    *current = Some(g);
                }
                None => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the region from worker `w`'s perspective, calling
    /// `run(group, index)` for every task this worker claims (the loop a
    /// pool worker's [`crate::Scope`] runs).
    fn drain(
        q: &GroupQueues,
        w: usize,
        counters: &GroupCounters,
        mut run: impl FnMut(usize, usize),
    ) {
        let mut current: Option<usize> = None;
        while let Some((g, chunk)) = q.next_chunk(w, &mut current, counters) {
            for i in chunk {
                run(g, i);
            }
        }
    }

    #[test]
    fn split_is_balanced_and_complete() {
        let q = GroupQueues::split(3, &[1; 10]);
        let sizes: Vec<usize> = q.deques.iter().map(|d| d.lock().unwrap().len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        let mut all: Vec<usize> =
            q.deques.iter().flat_map(|d| d.lock().unwrap().iter().copied().collect::<Vec<_>>()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn owner_drains_front_thief_drains_back() {
        // Four one-task groups: deque 0 holds [0, 1], deque 1 holds [2, 3].
        let q = GroupQueues::split(2, &[1; 4]);
        let counters = GroupCounters::new();
        let (mut cur0, mut cur1) = (None, None);
        assert_eq!(q.next_chunk(0, &mut cur0, &counters), Some((0, 0..1))); // own front
        assert_eq!(q.next_chunk(1, &mut cur1, &counters), Some((2, 0..1)));
        assert_eq!(q.next_chunk(1, &mut cur1, &counters), Some((3, 0..1)));
        assert_eq!(q.next_chunk(1, &mut cur1, &counters), Some((1, 0..1))); // 0's back
        assert_eq!(counters.steals.load(Ordering::Relaxed), 1);
        assert_eq!(q.next_chunk(0, &mut cur0, &counters), None);
        assert_eq!(counters.joins.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn empty_region_terminates_immediately() {
        for sizes in [&[][..], &[0, 0][..]] {
            let q = GroupQueues::split(4, sizes);
            let counters = GroupCounters::new();
            for w in 0..4 {
                assert_eq!(q.next_chunk(w, &mut None, &counters), None);
            }
        }
    }

    #[test]
    fn grouped_drain_runs_every_task_exactly_once() {
        let sizes = [5usize, 0, 200, 3, 1];
        let q = GroupQueues::split(3, &sizes);
        let counters = GroupCounters::new();
        let mut seen: Vec<Vec<u32>> = sizes.iter().map(|&len| vec![0; len]).collect();
        // A single worker must still drain everything (joins included).
        drain(&q, 0, &counters, |g, i| seen[g][i] += 1);
        for (g, group) in seen.iter().enumerate() {
            assert!(group.iter().all(|&c| c == 1), "group {g}: {group:?}");
        }
    }

    #[test]
    fn grouped_drain_is_complete_across_workers() {
        use std::sync::atomic::AtomicU32;
        let sizes = [400usize, 7, 7, 7];
        let q = GroupQueues::split(4, &sizes);
        let counters = GroupCounters::new();
        let hits: Vec<Vec<AtomicU32>> = sizes
            .iter()
            .map(|&len| (0..len).map(|_| AtomicU32::new(0)).collect())
            .collect();
        std::thread::scope(|s| {
            for w in 0..4 {
                let q = &q;
                let counters = &counters;
                let hits = &hits;
                s.spawn(move || {
                    drain(q, w, counters, |g, i| {
                        hits[g][i].fetch_add(1, Ordering::Relaxed);
                    })
                });
            }
        });
        for (g, group) in hits.iter().enumerate() {
            for (i, c) in group.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "task ({g}, {i})");
            }
        }
    }

    #[test]
    fn idle_workers_join_the_big_group() {
        // One giant slow group: whoever takes it holds it for tens of
        // milliseconds, so the other two workers — with nothing to steal —
        // must join its index range (even a 1-CPU host interleaves them).
        let sizes = [3_000usize];
        let q = GroupQueues::split(3, &sizes);
        let counters = GroupCounters::new();
        std::thread::scope(|s| {
            for w in 0..3 {
                let q = &q;
                let counters = &counters;
                s.spawn(move || {
                    drain(q, w, counters, |_, _| {
                        std::thread::sleep(std::time::Duration::from_micros(20));
                    })
                });
            }
        });
        assert!(counters.joins.load(Ordering::Relaxed) > 0, "expected joins");
    }
}
