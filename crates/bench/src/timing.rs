//! The measurement harness behind every timed `experiments` cell and
//! every `BENCH_*.json` record.
//!
//! A table declares its timed [`Row`]s and hands them to [`run`] at
//! once. Each row is calibrated once: after one warm-up call, its
//! iteration count doubles from 1 until one sample of that many calls
//! takes at least 1 ms (capped at 2²⁰), so timer granularity stays
//! negligible. Then every row is sampled once per round for [`ROUNDS`]
//! rounds, the row order reversed every other round, so drift on the
//! host (frequency changes, a neighbour's load) spreads over all rows
//! instead of landing on whichever ran last. A record's min–max over
//! rounds is therefore its error bar, and a ratio of two rows is taken
//! per round ([`Timed::ratio`]) from samples that ran side by side.
//!
//! Correctness checks belong outside the row closures: a closure holds
//! only the work being timed, and its result passes through
//! [`std::hint::black_box`].

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rounds every row is sampled in.
pub const ROUNDS: usize = 10;
/// Calibration target for one sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(1);
/// Calibration cap on calls per sample.
const MAX_ITERS: u32 = 1 << 20;

/// One timed row of a table: its record, filled in by [`run`], and the
/// work.
pub struct Row<'a> {
    timed: Timed,
    work: Box<dyn FnMut() + 'a>,
}

impl<'a> Row<'a> {
    /// A row timing `work` as record `group`, `id`; its result is passed
    /// through `black_box`.
    pub fn new<R>(
        group: &'static str,
        id: impl Into<String>,
        mut work: impl FnMut() -> R + 'a,
    ) -> Row<'a> {
        let id = id.into();
        let timed = Timed { group, id, elements: None, iters_per_sample: 1, rounds: Vec::new() };
        Row {
            timed,
            work: Box::new(move || {
                black_box(work());
            }),
        }
    }

    /// Declares that one call processes `n` elements (the record's
    /// throughput).
    pub fn elements(mut self, n: usize) -> Row<'a> {
        self.timed.elements = Some(n as u64);
        self
    }

    /// After one warm-up call, doubles the calls per sample from 1 until
    /// a sample takes [`SAMPLE_TARGET`] or the count reaches
    /// [`MAX_ITERS`]. The warm-up keeps a first call that fills caches
    /// (an engine's memo, say) from ending calibration at one call per
    /// sample, which would leave each round a single call, made cold by
    /// the rows that ran before it.
    fn calibrate(&mut self) {
        (self.work)();
        while self.sample() < SAMPLE_TARGET && self.timed.iters_per_sample < MAX_ITERS {
            self.timed.iters_per_sample *= 2;
        }
    }

    /// Records one round: a sample's time per call.
    fn record(&mut self) {
        let per_call = self.sample() / self.timed.iters_per_sample;
        self.timed.rounds.push(per_call);
    }

    fn sample(&mut self) -> Duration {
        let t0 = Instant::now();
        for _ in 0..self.timed.iters_per_sample {
            (self.work)();
        }
        t0.elapsed()
    }
}

/// A measured row: one per-call time per round, in round order.
#[derive(Debug, Clone)]
pub struct Timed {
    pub group: &'static str,
    pub id: String,
    pub elements: Option<u64>,
    pub iters_per_sample: u32,
    pub rounds: Vec<Duration>,
}

impl Timed {
    /// Median, min and max of the per-round times.
    pub fn spread(&self) -> Spread<Duration> {
        Spread::of(self.rounds.clone())
    }

    /// `self ÷ base`, taken per round.
    pub fn ratio(&self, base: &Timed) -> Spread<f64> {
        let ratios = self.rounds.iter().zip(&base.rounds);
        Spread::of(ratios.map(|(a, b)| a.as_secs_f64() / b.as_secs_f64().max(1e-12)).collect())
    }

    /// The record as one line of JSON.
    pub fn json(&self) -> String {
        let s = self.spread();
        let throughput = self
            .elements
            .map_or(String::new(), |n| format!(",\"throughput\":{{\"elements\":{n}}}"));
        format!(
            "{{\"group\":{:?},\"id\":{:?},\"median_ns\":{},\"min_ns\":{},\"max_ns\":{},\
             \"rounds\":{},\"iters_per_sample\":{}{throughput}}}",
            self.group,
            self.id,
            s.median.as_nanos(),
            s.min.as_nanos(),
            s.max.as_nanos(),
            self.rounds.len(),
            self.iters_per_sample,
        )
    }
}

/// A JSON array of `records`, one per line.
pub fn json_array(records: &[Timed]) -> String {
    let lines: Vec<String> = records.iter().map(Timed::json).collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// Median (the upper one of an even count), min and max of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread<T> {
    pub median: T,
    pub min: T,
    pub max: T,
}

impl<T: Copy + PartialOrd> Spread<T> {
    fn of(mut xs: Vec<T>) -> Spread<T> {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("timings are ordered"));
        Spread { median: xs[xs.len() / 2], min: xs[0], max: xs[xs.len() - 1] }
    }
}

/// Calibrates every row, then samples all of them in [`ROUNDS`]
/// interleaved rounds, the order reversed every other round. Returns
/// one [`Timed`] per row, in the order given.
pub fn run(mut rows: Vec<Row<'_>>) -> Vec<Timed> {
    rows.iter_mut().for_each(Row::calibrate);
    for round in 0..ROUNDS {
        if round % 2 == 0 {
            rows.iter_mut().for_each(Row::record);
        } else {
            rows.iter_mut().rev().for_each(Row::record);
        }
    }
    rows.into_iter().map(|row| row.timed).collect()
}

/// Median (min–max) of nanosecond figures, all three in the median's
/// unit.
fn fmt_ns(median: f64, min: f64, max: f64) -> String {
    let (div, unit, places) = match median {
        m if m < 100.0 => (1.0, "ns", 1),
        m if m < 1e4 => (1.0, "ns", 0),
        m if m < 1e7 => (1e3, "µs", 1),
        m if m < 1e10 => (1e6, "ms", 2),
        _ => (1e9, "s", 2),
    };
    let f = |x: f64| format!("{:.*}", places, x / div);
    format!("{} {unit} ({}–{})", f(median), f(min), f(max))
}

/// A timed cell: the per-call median (min–max).
pub fn fmt_cell(t: &Timed) -> String {
    fmt_per_item(t, 1)
}

/// A per-item cell: the per-call median (min–max) divided by `items`.
pub fn fmt_per_item(t: &Timed, items: usize) -> String {
    let s = t.spread();
    let f = |d: Duration| d.as_nanos() as f64 / items as f64;
    fmt_ns(f(s.median), f(s.min), f(s.max))
}

/// A ratio cell: median× (min–max).
pub fn fmt_ratio(r: Spread<f64>) -> String {
    format!("{:.2}× ({:.2}–{:.2})", r.median, r.min, r.max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// Three rows that log their index per call and sleep 300 µs, so
    /// calibration stops after a few doublings.
    #[test]
    fn rows_calibrate_then_run_interleaved_rounds() {
        let log = RefCell::new(Vec::new());
        let rows = (0..3)
            .map(|i| {
                let log = &log;
                Row::new("g", format!("r{i}"), move || {
                    log.borrow_mut().push(i);
                    std::thread::sleep(Duration::from_micros(300));
                })
            })
            .collect();
        let timed = run(rows);
        let log = log.into_inner();

        // Calibration: a warm-up call, then 1 + 2 + … + iters calls, of
        // each row in turn.
        let mut at = 0;
        for (i, t) in timed.iter().enumerate() {
            let calib = 2 * t.iters_per_sample as usize;
            assert!(log[at..at + calib].iter().all(|&r| r == i));
            at += calib;
        }
        // Then ROUNDS rounds of iters consecutive calls per row, forward
        // in even rounds and reversed in odd ones.
        for round in 0..ROUNDS {
            let mut order = vec![0, 1, 2];
            if round % 2 == 1 {
                order.reverse();
            }
            for i in order {
                let n = timed[i].iters_per_sample as usize;
                assert!(log[at..at + n].iter().all(|&r| r == i), "round {round}, row {i}");
                at += n;
            }
        }
        assert_eq!(at, log.len());

        for t in &timed {
            assert_eq!(t.rounds.len(), ROUNDS);
            let s = t.spread();
            assert!(s.min <= s.median && s.median <= s.max);
            assert!(s.min >= Duration::from_micros(300));
        }
        let r = timed[0].ratio(&timed[1]);
        assert!(r.min <= r.median && r.median <= r.max);
    }

    fn timed(elements: Option<u64>) -> Timed {
        let rounds = [5, 3, 9, 4, 7, 6, 8, 2, 10, 1].map(Duration::from_nanos).to_vec();
        Timed { group: "g", id: "x/1".into(), elements, iters_per_sample: 64, rounds }
    }

    #[test]
    fn json_records_and_array() {
        let record = "{\"group\":\"g\",\"id\":\"x/1\",\"median_ns\":6,\"min_ns\":1,\"max_ns\":10,\
                      \"rounds\":10,\"iters_per_sample\":64";
        assert_eq!(timed(None).json(), format!("{record}}}"));
        assert_eq!(
            timed(Some(662)).json(),
            format!("{record},\"throughput\":{{\"elements\":662}}}}")
        );
        let array = json_array(&[timed(None), timed(None)]);
        assert_eq!(array, format!("[\n{record}}},\n{record}}}\n]\n"));
    }

    #[test]
    fn formatting() {
        let t = timed(None);
        assert_eq!(fmt_cell(&t), "6.0 ns (1.0–10.0)");
        assert_eq!(fmt_per_item(&t, 2), "3.0 ns (0.5–5.0)");
        assert_eq!(fmt_ratio(t.ratio(&t)), "1.00× (1.00–1.00)");
        assert_eq!(fmt_ns(500.0, 400.0, 600.0), "500 ns (400–600)");
        assert_eq!(fmt_ns(5e5, 4e5, 6e5), "500.0 µs (400.0–600.0)");
        assert_eq!(fmt_ns(5e8, 4e8, 6e8), "500.00 ms (400.00–600.00)");
        assert_eq!(fmt_ns(2e10, 1e10, 3e10), "20.00 s (10.00–30.00)");
    }
}
