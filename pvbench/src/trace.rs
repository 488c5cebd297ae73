//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and an end, the span that caused it and
//! the id of the operation it belongs to. Spans stay in memory (bounded
//! by a capacity; a traced loop stops when it is full) and are written
//! out when the run ends. A layer's self time is its span's duration
//! minus the time its child spans cover; because the benchmark is single
//! threaded per tracer, children never overlap, so that is a subtraction.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its tracer (`NONE` when tracing is off).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanId(u32);

impl SpanId {
    const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    op: u32,
    parent: SpanId,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over a tracer's spans.
#[derive(Clone, Copy, Default, Debug)]
pub struct Agg {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans).
    pub self_ns: u64,
}

impl Agg {
    /// Mean duration in microseconds (0 when no spans).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Mean self time in microseconds.
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// An in-memory span recorder; a disabled tracer records nothing and
/// takes no clock readings.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    cap: usize,
    on: bool,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            cap: 0,
            on: false,
        }
    }

    /// A recording tracer holding at most `cap` spans.
    pub fn on(cap: usize) -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(cap),
            cap,
            on: true,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// `true` once the span buffer is full: a traced loop stops here.
    pub fn full(&self) -> bool {
        self.on && self.spans.len() + 64 >= self.cap
    }

    /// Opens a span of operation `op`, caused by `parent`.
    #[inline]
    pub fn open(&mut self, name: &'static str, op: u32, parent: Option<SpanId>) -> SpanId {
        if !self.on || self.spans.len() >= self.cap {
            return SpanId::NONE;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent: parent.unwrap_or(SpanId::NONE),
            start_ns: now,
            end_ns: now,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    #[inline]
    pub fn close(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            self.spans[id.0 as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
        }
    }

    /// Checks that every child lies inside its parent's interval and
    /// returns the per-name totals with self times. An `Err` names the
    /// first span that escapes its parent — a ledger that cannot add up.
    pub fn summarize(&self) -> Result<BTreeMap<&'static str, Agg>, String> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != SpanId::NONE {
                let p = &self.spans[s.parent.0 as usize];
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.op != p.op {
                    return Err(format!(
                        "span {i} ({}) escapes its parent ({})",
                        s.name, p.name
                    ));
                }
                child_ns[s.parent.0 as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(kids);
        }
        Ok(out)
    }

    /// Writes every span as one tab-separated line
    /// (`op name parent start_ns end_ns`; parent `-` for a root span).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "op\tname\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            if s.parent == SpanId::NONE {
                writeln!(w, "{}\t{}\t-\t{}\t{}", s.op, s.name, s.start_ns, s.end_ns)?;
            } else {
                writeln!(
                    w,
                    "{}\t{}\t{}\t{}\t{}",
                    s.op, s.name, s.parent.0, s.start_ns, s.end_ns
                )?;
            }
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::on(16);
        let root = t.open("doc", 0, None);
        let a = t.open("parse", 0, Some(root));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(a);
        let b = t.open("check", 0, Some(root));
        t.close(b);
        t.close(root);
        let s = t.summarize().unwrap();
        let doc = s["doc"];
        let kids = s["parse"].total_ns + s["check"].total_ns;
        assert_eq!(doc.self_ns, doc.total_ns - kids);
        assert!(s["parse"].total_ns >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.open("doc", 0, None);
        t.close(id);
        assert!(t.summarize().unwrap().is_empty());
        assert!(!t.full());
    }
}
