//! Slow-request traces: a bounded ring of stage-level timing breakdowns.
//!
//! The registry keeps the last N requests whose total wall-clock met
//! [`SLOW_THRESHOLD_US`], each with the stages its server path timed:
//! `read`, `recognize` and `serialize` for `CHECK`, `read` and
//! `recognize` for `BATCH`, `read` alone for the other buffered verbs;
//! a `CHECK_STREAM` reads its payload as it checks it and records no
//! stages. The ring is a Mutex'd VecDeque — traces are recorded at most
//! once per *slow* request, so the lock is off every fast path by
//! construction.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Requests whose total wall-clock is at or above this (10 ms) are kept
/// in the slow ring.
pub const SLOW_THRESHOLD_US: u64 = 10_000;

/// One slow request: which op it was, its total wall-clock, and how that
/// time split over the pipeline stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Wire op or internal label (`CHECK`, `CHECK_STREAM`, …).
    pub op: String,
    /// Total request wall-clock, microseconds.
    pub total_us: u64,
    /// `(stage name, microseconds)` in pipeline order.
    pub stages: Vec<(String, u64)>,
}

pub(crate) struct TraceRing {
    cap: usize,
    ring: Mutex<VecDeque<Trace>>,
}

impl TraceRing {
    pub(crate) fn new(cap: usize) -> Self {
        TraceRing { cap, ring: Mutex::new(VecDeque::with_capacity(cap)) }
    }

    pub(crate) fn record(&self, trace: Trace) {
        if trace.total_us < SLOW_THRESHOLD_US {
            return;
        }
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    pub(crate) fn snapshot(&self) -> Vec<Trace> {
        self.ring.lock().expect("trace ring poisoned").iter().cloned().collect()
    }

    pub(crate) fn clear(&self) {
        self.ring.lock().expect("trace ring poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(op: &str, us: u64) -> Trace {
        Trace { op: op.into(), total_us: us, stages: vec![("recognize".into(), us / 2)] }
    }

    #[test]
    fn ring_keeps_last_n_over_threshold() {
        let ring = TraceRing::new(2);
        ring.record(t("CHECK", SLOW_THRESHOLD_US - 1)); // below threshold: dropped
        ring.record(t("CHECK", SLOW_THRESHOLD_US));
        ring.record(t("CHECK", 2 * SLOW_THRESHOLD_US));
        ring.record(t("CHECK", 3 * SLOW_THRESHOLD_US)); // evicts the first
        let got = ring.snapshot();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].total_us, 2 * SLOW_THRESHOLD_US);
        assert_eq!(got[1].total_us, 3 * SLOW_THRESHOLD_US);
        ring.clear();
        assert!(ring.snapshot().is_empty());
    }
}
