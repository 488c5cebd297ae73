//! `pvbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! pvbench --workload NAME --seed N --seconds S --trace 0|1 --pvx PATH --work-dir DIR
//! ```
//!
//! Workloads: `tree_corpus`, `stream_corpus`, `edit_session`. With
//! `--trace 0` the run measures the workload's end-to-end metrics
//! untraced; with `--trace 1` it reports the per-layer metrics from spans
//! the benchmark records around its calls into each layer (layers the
//! named workload does not run — among them the service, driven as
//! `serve_mixed` — are measured on a shorter pass of a workload that
//! does). Human-readable lines
//! come first; the last line of standard output is one JSON object.
//! `python3 pvbench/run.py …` builds everything and runs this binary.

mod adapter;
mod edit;
mod inputs;
mod local;
mod serve;
mod stats;
mod trace;
mod verdict;

use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Setup is repeated this many times before the measured loop (and once
/// more between passes of it); its median is reported.
pub const SETUP_REPS: usize = 15;

/// Command-line settings of one run.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds for the named workload.
    pub seconds: f64,
    /// The `pvx` binary (for the service layers).
    pub pvx: PathBuf,
    /// Scratch directory for the server socket and span files.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// The same settings with the measured time scaled by `f`.
    pub fn scaled(&self, f: f64) -> Ctx {
        Ctx {
            seed: self.seed,
            seconds: self.seconds * f,
            pvx: self.pvx.clone(),
            work_dir: self.work_dir.clone(),
        }
    }
}

/// What a run measured: metrics, operation counts and any mismatches.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
    errors: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.metrics.push((name.to_owned(), value, unit));
        } else {
            self.error(format!("metric {name} is not a number ({value})"));
        }
    }

    /// Records one failed operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.error(msg);
    }

    /// Records a mismatch that fails the run without being an operation.
    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 20 {
            eprintln!("pvbench: {msg}");
        }
        self.errors.push(msg);
    }

    /// A human-readable line printed before the result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }
}

/// A run with fewer complete passes than this is too short to report.
pub const MIN_PASSES: u64 = 3;

/// A measured closed loop over a fixed list of items (documents, editor
/// calls) that repeats pass after pass; item `k` of one pass is the same
/// work as item `k` of every other. Each item keeps the fastest time it
/// was seen to take. On a shared host, interference (other tenants on
/// the same cores, frequency changes) only ever slows an operation down,
/// and it comes and goes over seconds; the best of many repetitions
/// spread over the whole run estimates the program's own cost far more
/// steadily than any average does. Both commits of a comparison are
/// measured the same way. Totals over every repetition are kept as well.
#[derive(Default)]
pub struct Loop {
    best_s: Vec<f64>,
    item_bytes: Vec<u64>,
    item_op: Vec<bool>,
    passes: u64,
    cursor: usize,
    ragged: bool,
    setup_s: Vec<f64>,
    total_s: f64,
    total_bytes: u64,
    total_ops: u64,
}

impl Loop {
    /// Records one run of item `k` that took `secs` and brought `bytes`
    /// of input to a verdict; `op` says whether the item is an operation
    /// (counted in `ops_per_s` and the latencies) or only work around
    /// them.
    pub fn record(&mut self, k: usize, secs: f64, bytes: usize, op: bool) {
        if k >= self.best_s.len() {
            self.best_s.resize(k + 1, f64::INFINITY);
            self.item_bytes.resize(k + 1, 0);
            self.item_op.resize(k + 1, false);
        }
        self.best_s[k] = self.best_s[k].min(secs);
        self.item_bytes[k] = bytes as u64;
        self.item_op[k] = op;
        self.total_s += secs;
        self.total_bytes += bytes as u64;
        self.total_ops += u64::from(op);
    }

    /// The index of the next item of this pass: items are numbered in
    /// the order they run, once each whether they succeed or not.
    pub fn next_item(&mut self) -> usize {
        self.cursor += 1;
        self.cursor - 1
    }

    /// Counts one complete pass over the items; a pass that ran a
    /// different number of items than the others makes the run invalid.
    pub fn pass_done(&mut self) {
        self.ragged |= self.cursor != self.best_s.len();
        self.passes += 1;
        self.cursor = 0;
    }

    /// Records one repeated set-up, timed between passes.
    pub fn setup(&mut self, secs: f64) {
        self.setup_s.push(secs);
    }

    /// Operations recorded, over every repetition.
    pub fn ops(&self) -> u64 {
        self.total_ops
    }

    /// Busy time, over every repetition.
    pub fn busy_s(&self) -> f64 {
        self.total_s
    }

    /// Bytes, over every repetition.
    pub fn bytes(&self) -> u64 {
        self.total_bytes
    }
}

/// The end-to-end metrics every workload reports, from one pass's worth
/// of best times (see [`Loop`]): throughput and operation rate are the
/// items' bytes and operations over the sum of their best times, the
/// median latency is the smoothed median ([`stats::middle_mean`]) of the
/// operations' best times. `setup_s` is the median of `setup_s` and the
/// set-ups timed between passes.
pub fn e2e_metrics(rep: &mut Report, setup_s: &[f64], lp: &Loop, rss_mib: f64) {
    const MIB: f64 = 1024.0 * 1024.0;
    let setups: Vec<f64> = setup_s.iter().chain(&lp.setup_s).copied().collect();
    setup_metric(rep, &setups);
    if lp.ragged {
        rep.error("passes ran different numbers of items".into());
    }
    if lp.passes < MIN_PASSES {
        rep.error(format!(
            "only {} complete passes (need {MIN_PASSES}): run longer",
            lp.passes
        ));
    }
    let pass_s: f64 = lp.best_s.iter().sum();
    let bytes: u64 = lp.item_bytes.iter().sum();
    let lat_us: Vec<f64> = lp
        .best_s
        .iter()
        .zip(&lp.item_op)
        .filter(|&(_, &op)| op)
        .map(|(s, _)| s * 1e6)
        .collect();
    rep.note(format!(
        "{} items per pass ({} operations), {} passes; best pass {:.1} ms, mean pass {:.1} ms",
        lp.best_s.len(),
        lat_us.len(),
        lp.passes,
        pass_s * 1e3,
        lp.total_s * 1e3 / lp.passes.max(1) as f64
    ));
    rep.metric("throughput_mib_s", bytes as f64 / MIB / pass_s, "MiB/s");
    rep.metric("ops_per_s", lat_us.len() as f64 / pass_s, "1/s");
    match stats::middle_mean(&lat_us) {
        Some(v) => rep.metric("latency_p50_us", v, "us"),
        None => rep.error("latency_p50_us: no operations".into()),
    }
    // The tail is printed, not bounded: a corpus of documents has too
    // few items for a p99 with ten beyond it.
    rep.note(match stats::tail_percentile(&lat_us, 0.99) {
        Ok(v) => format!(
            "latency_p99_us {v:.4} us (best times of {} operations)",
            lat_us.len()
        ),
        Err(e) => format!("latency_p99_us not reported: {e}"),
    });
    rep.metric("peak_rss_mib", rss_mib, "MiB");
}

/// Adds `setup_s` as the median of the repeated set-ups.
pub fn setup_metric(rep: &mut Report, setup_s: &[f64]) {
    rep.metric("setup_s", stats::median(setup_s).unwrap_or(0.0), "s");
    if let Some(s) = stats::spread(setup_s) {
        rep.note(format!(
            "set-up repeated {} times, quartile spread {s:.3} of the median",
            setup_s.len()
        ));
    }
}

/// One pass of a layer measurement: when `main`, half the time untraced
/// (the baseline of `trace.overhead_ratio`) and then half traced;
/// otherwise all of it traced. `run(seconds, tracer)` runs the loop.
pub fn layer_pass<T>(
    seconds: f64,
    main: bool,
    span_cap: usize,
    mut run: impl FnMut(f64, &mut Tracer) -> T,
) -> (Option<T>, Tracer, T) {
    let untraced = main.then(|| run(seconds / 2.0, &mut Tracer::off()));
    let mut tr = Tracer::on(span_cap);
    let traced = run(if main { seconds / 2.0 } else { seconds }, &mut tr);
    (untraced, tr, traced)
}

/// This process's peak resident memory.
pub fn own_peak_rss_mib() -> f64 {
    adapter::peak_rss_mib("/proc/self/status").unwrap_or(0.0)
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

const WORKLOADS: [&str; 3] = ["tree_corpus", "stream_corpus", "edit_session"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pvx: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut pvx, mut work_dir) = (None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            "--pvx" => pvx = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        pvx: pvx.ok_or("--pvx is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        pvx: args.pvx.clone(),
        work_dir: args.work_dir.clone(),
    };
    let mut rep = Report::default();
    let w = args.workload.as_str();
    if !args.trace {
        match w {
            "tree_corpus" => local::tree_e2e(&ctx, &mut rep)?,
            "stream_corpus" => local::stream_e2e(&ctx, &mut rep)?,
            _ => edit::e2e(&ctx, &mut rep)?,
        }
        return Ok(rep);
    }
    // Traced: the named workload for the full time, every other layer on
    // an eighth-length pass of the workload that runs it (this keeps a
    // traced run within about twice the untraced one). The service layers
    // are only measured here.
    let locals = local::Local::new(&ctx, &mut rep)?;
    for other in [
        "tree_corpus",
        "stream_corpus",
        "serve_mixed",
        "edit_session",
    ] {
        let main = other == w;
        let sub = ctx.scaled(if main { 1.0 } else { 0.125 });
        match other {
            "tree_corpus" => locals.tree_layers(&sub, main, &mut rep)?,
            "stream_corpus" => locals.stream_layers(&sub, main, &mut rep)?,
            "serve_mixed" => serve::layers(&sub, main, &mut rep)?,
            _ => edit::layers(&sub, main, &mut rep)?,
        }
    }
    Ok(rep)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pvbench: {e}");
            std::process::exit(2);
        }
    };
    let rep = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pvbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for n in &rep.notes {
        println!("  {n}");
    }
    for (name, value, unit) in &rep.metrics {
        println!("  {name:<28} {value:>16.4} {unit}");
    }
    let error_rate = rep.failed as f64 / rep.attempted.max(1) as f64;
    println!(
        "  {:<28} {:>16.4} ratio ({} of {} operations)",
        "error_rate", error_rate, rep.failed, rep.attempted
    );
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                json_escape(n),
                json_escape(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.correct(),
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    );
}
