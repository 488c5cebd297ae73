//! `serve_mixed`: a `pvx serve --jobs 2` child process driven from this
//! process over two unix-socket connections, one thread each. It is not
//! one of the benchmark's timed workloads (two connections and a server
//! on a two-core shared host time the scheduler as much as the program);
//! the traced run drives it to report the service, client and pool
//! layers.
//!
//! Two phases. A closed loop (each connection sends its next request as
//! soon as the previous answer arrives) gives the capacity: requests and
//! payload bytes per second. An open loop then offers a fixed rate,
//! [`OFFERED_RPS`], well under that capacity, with seeded Poisson
//! arrivals per connection; latency is timed from each request's due
//! time, so a stall also charges the requests queued behind it. A run
//! whose generator fell behind is refused, not reported. Busy or shed
//! replies are never retried: they count as failed.
//!
//! The mix is mostly small `CHECK`s (the editor-save case), plus
//! `CHECK_STREAM` uploads of medium documents, `BATCH`es of small
//! documents at jobs=2 and a few medium `CHECK`s at jobs=2. Every reply
//! is compared with the local tree outcome of the same bytes.

use crate::adapter::{self, Client, PvOutcome, ServerProc};
use crate::inputs::{self, Input, Kind, Rng};
use crate::local::write_spans;
use crate::trace::Tracer;
use crate::verdict::{same_outcome, Expect};
use crate::{secs, stats, Ctx, Report, SETUP_REPS};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The open loop's offered rate (requests per second, both connections
/// together) — a constant, well under the closed-loop capacity.
pub const OFFERED_RPS: f64 = 200.0;
/// Client connections (one generator thread each).
const CONNS: usize = 2;
/// Server pool workers.
const SERVER_JOBS: usize = 2;
/// Share of the measured time spent in the closed loop.
const CLOSED_SHARE: f64 = 0.3;
/// Small documents per kind, and their element-count range.
const SMALL: (usize, (usize, usize)) = (20, (400, 900));
/// Medium documents per kind, and their element-count range.
const MEDIUM: (usize, (usize, usize)) = (4, (2_000, 4_500));
/// Documents per `BATCH`.
const BATCH: usize = 4;
/// `CHECK_STREAM` chunk size.
const CHUNK: usize = 64 << 10;
/// Requests in each connection's pre-drawn schedule (cycled).
const SCHEDULE: usize = 4096;
/// Pings in the traced wire-floor probe.
const PINGS: usize = 300;
const SPAN_CAP: usize = 1 << 19;

/// One request of the mix (indices into the small/medium inputs; a
/// batch's documents share one DTD).
#[derive(Clone, Copy)]
enum Req {
    Check(usize),
    CheckJobs2(usize),
    Stream(usize),
    Batch([usize; BATCH]),
}

impl Req {
    fn span(self) -> &'static str {
        match self {
            Req::Check(_) => "check",
            Req::CheckJobs2(_) => "check_jobs2",
            Req::Stream(_) => "check_stream",
            Req::Batch(_) => "batch",
        }
    }
}

struct ServeBench {
    server: ServerProc,
    handles: Vec<String>,
    setup_s: Vec<f64>,
    small: Vec<Input>,
    medium: Vec<Input>,
    small_refs: Vec<PvOutcome>,
    medium_refs: Vec<PvOutcome>,
    schedules: Vec<Vec<Req>>,
    gaps: Vec<Vec<f64>>,
    gen_s: f64,
}

/// What one connection thread measured besides its loop.
#[derive(Default)]
struct ConnResult {
    attempted: u64,
    errors: Vec<String>,
    queue_wait_us: Vec<f64>,
    backlog: u64,
    busy_s: f64,
    ops: u64,
    tracer: Option<Tracer>,
}

fn reference_outcomes(inputs: &[Input], rep: &mut Report) -> Result<Vec<PvOutcome>, String> {
    let engines: Vec<_> = Kind::ALL
        .iter()
        .map(|k| adapter::engine(adapter::analyze(k.builtin())))
        .collect();
    let pool = adapter::local_pool();
    inputs
        .iter()
        .enumerate()
        .map(|(i, inp)| {
            let doc = Arc::new(adapter::parse(&inp.xml)?);
            let outcome = adapter::check(&engines[inp.kind.index()], &doc, &pool, true);
            if let Err(e) = Expect::for_input(inp.poisoned).check(&outcome) {
                rep.error(format!("serve input {i}: {e}"));
            }
            Ok(outcome)
        })
        .collect()
}

impl ServeBench {
    /// Builds the inputs, their local reference outcomes and the
    /// per-connection schedules (untimed); then starts the server
    /// [`SETUP_REPS`] times (start + `BUILTIN` of every DTD, timed),
    /// keeping the last one.
    fn new(ctx: &Ctx, rep: &mut Report) -> Result<ServeBench, String> {
        let t0 = Instant::now();
        let engines: Vec<_> = Kind::ALL
            .iter()
            .map(|k| adapter::engine(adapter::analyze(k.builtin())))
            .collect();
        let mut rng = Rng::new(ctx.seed, 3);
        let small = inputs::in_progress_corpus(&mut rng, &engines, &Kind::ALL, SMALL.0, SMALL.1)?;
        let medium =
            inputs::in_progress_corpus(&mut rng, &engines, &Kind::ALL, MEDIUM.0, MEDIUM.1)?;
        drop(engines);
        let small_refs = reference_outcomes(&small, rep)?;
        let medium_refs = reference_outcomes(&medium, rep)?;
        let by_kind: Vec<Vec<usize>> = Kind::ALL
            .iter()
            .map(|&k| (0..small.len()).filter(|&i| small[i].kind == k).collect())
            .collect();
        let mut schedules = Vec::new();
        let mut gaps = Vec::new();
        for _ in 0..CONNS {
            let sched = (0..SCHEDULE)
                .map(|_| {
                    let u = rng.unit();
                    if u < 0.70 {
                        Req::Check(rng.below(small.len()))
                    } else if u < 0.80 {
                        Req::Stream(rng.below(medium.len()))
                    } else if u < 0.90 {
                        // A batch goes to one DTD: same-kind documents only.
                        let same = &by_kind[small[rng.below(small.len())].kind.index()];
                        Req::Batch(std::array::from_fn(|_| same[rng.below(same.len())]))
                    } else {
                        Req::CheckJobs2(rng.below(medium.len()))
                    }
                })
                .collect();
            schedules.push(sched);
            let mean_gap = CONNS as f64 / OFFERED_RPS;
            gaps.push((0..SCHEDULE).map(|_| rng.exp(mean_gap)).collect());
        }
        let gen_s = secs(t0);
        let socket = ctx
            .work_dir
            .join(format!("pvbench-{}.sock", std::process::id()));
        let mut setup_s = Vec::new();
        let mut kept = None;
        for r in 0..SETUP_REPS {
            let t0 = Instant::now();
            let server = ServerProc::start(&ctx.pvx, &socket, SERVER_JOBS)?;
            let mut c = server.connect()?;
            let handles = Kind::ALL
                .iter()
                .map(|k| adapter::remote_load(&mut c, k.builtin()).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()?;
            setup_s.push(secs(t0));
            drop(c);
            if r + 1 < SETUP_REPS {
                server.stop()?;
            } else {
                kept = Some((server, handles));
            }
        }
        let (server, handles) = kept.expect("at least one start");
        let hash = inputs::content_hash(small.iter().chain(&medium).map(|i| i.xml.as_bytes()));
        rep.note(format!(
            "inputs: {} small + {} medium documents, content hash {hash:016x}",
            small.len(),
            medium.len()
        ));
        rep.note(format!(
            "input generation + references: {gen_s:.3} s (not in setup_s)"
        ));
        Ok(ServeBench {
            server,
            handles,
            setup_s,
            small,
            medium,
            small_refs,
            medium_refs,
            schedules,
            gaps,
            gen_s,
        })
    }

    /// Sends one request; `Ok` when every outcome matched its reference.
    fn send(&self, c: &mut Client, req: Req) -> Result<(), String> {
        let one =
            |c: &mut Client, inp: &Input, reference: &PvOutcome, jobs: usize, stream: bool| {
                let handle = &self.handles[inp.kind.index()];
                let got = if stream {
                    adapter::remote_check_stream(c, handle, inp.xml.as_bytes(), CHUNK)
                } else {
                    adapter::remote_check(c, handle, &inp.xml, jobs)
                };
                let got = got.map_err(|e| e.to_string())?;
                same_outcome("remote vs tree", &got, reference)
            };
        match req {
            Req::Check(i) => one(c, &self.small[i], &self.small_refs[i], 1, false),
            Req::CheckJobs2(i) => one(c, &self.medium[i], &self.medium_refs[i], 2, false),
            Req::Stream(i) => one(c, &self.medium[i], &self.medium_refs[i], 1, true),
            Req::Batch(ids) => {
                let kind = self.small[ids[0]].kind;
                let xmls: Vec<String> = ids.iter().map(|&i| self.small[i].xml.clone()).collect();
                let got = adapter::remote_batch(c, &self.handles[kind.index()], &xmls, 2)
                    .map_err(|e| e.to_string())?;
                if got.len() != ids.len() {
                    return Err(format!("batch of {BATCH} answered {} outcomes", got.len()));
                }
                for (o, &i) in got.iter().zip(&ids) {
                    same_outcome("remote batch vs tree", o, &self.small_refs[i])?;
                }
                Ok(())
            }
        }
    }

    /// Runs both connections for `seconds`; `open` selects the open loop.
    /// Folds attempts and failures into `rep`; returns the per-connection
    /// results.
    fn phase(
        &self,
        seconds: f64,
        open: bool,
        traced: bool,
        rep: &mut Report,
    ) -> Result<Vec<ConnResult>, String> {
        let clients = (0..CONNS)
            .map(|_| self.server.connect())
            .collect::<Result<Vec<_>, _>>()?;
        let t0 = Instant::now();
        let end = t0 + Duration::from_secs_f64(seconds);
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(conn, mut c)| {
                    s.spawn(move || {
                        let mut r = ConnResult::default();
                        let mut tr = if traced {
                            Tracer::on(SPAN_CAP)
                        } else {
                            Tracer::off()
                        };
                        let (sched, gaps) = (&self.schedules[conn], &self.gaps[conn]);
                        let mut due = t0;
                        for n in 0.. {
                            let req = sched[n % sched.len()];
                            let start = if open {
                                due += Duration::from_secs_f64(gaps[n % gaps.len()]);
                                if due > end {
                                    break;
                                }
                                let now = Instant::now();
                                if now < due {
                                    std::thread::sleep(due - now);
                                }
                                let sent = Instant::now();
                                r.queue_wait_us
                                    .push(sent.duration_since(due).as_secs_f64() * 1e6);
                                if sent > end {
                                    r.backlog += 1;
                                }
                                due
                            } else {
                                let now = Instant::now();
                                if now >= end || tr.full() {
                                    break;
                                }
                                now
                            };
                            r.attempted += 1;
                            let sp = tr.open(req.span(), n as u32, None);
                            let sent = self.send(&mut c, req);
                            tr.close(sp);
                            match sent {
                                Ok(()) => {
                                    r.busy_s += secs(start);
                                    r.ops += 1;
                                }
                                Err(e) => {
                                    r.errors.push(format!("connection {conn} request {n}: {e}"))
                                }
                            }
                        }
                        r.tracer = traced.then_some(tr);
                        r
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .collect::<Vec<_>>()
        });
        let mut conns = Vec::new();
        for mut r in results {
            rep.attempted += r.attempted;
            for e in r.errors.drain(..) {
                rep.fail(e);
            }
            conns.push(r);
        }
        Ok(conns)
    }
}

/// Refuses an open-loop run whose generator fell behind: requests still
/// waiting to be sent when the phase ended.
fn check_generator(results: &[ConnResult], rep: &mut Report) -> Result<(), String> {
    let sent: usize = results.iter().map(|r| r.queue_wait_us.len()).sum();
    let backlog: u64 = results.iter().map(|r| r.backlog).sum();
    let waits: Vec<f64> = results
        .iter()
        .flat_map(|r| r.queue_wait_us.iter().copied())
        .collect();
    let lag_ms = waits.iter().copied().fold(0.0, f64::max) / 1e3;
    rep.note(format!(
        "open loop: offered {OFFERED_RPS} req/s, {sent} sent, backlog at end {backlog}, max lag {lag_ms:.2} ms"
    ));
    if backlog as f64 > (sent as f64 * 0.01).max(2.0) {
        return Err(format!(
            "generator fell behind: {backlog} of {sent} requests still queued at the end"
        ));
    }
    Ok(())
}

/// Mean of a histogram's observations between two `METRICS` snapshots.
fn hist_mean(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>, name: &str) -> f64 {
    let d = |k: String| b.get(&k).copied().unwrap_or(0.0) - a.get(&k).copied().unwrap_or(0.0);
    let count = d(format!("{name}.count"));
    if count > 0.0 {
        d(format!("{name}.sum")) / count
    } else {
        0.0
    }
}

/// Per-layer metrics of the client, the server and its pool.
pub fn layers(ctx: &Ctx, main: bool, rep: &mut Report) -> Result<(), String> {
    let b = ServeBench::new(ctx, rep)?;
    rep.metric(
        "service.startup_ms",
        stats::median(&b.setup_s).unwrap_or(0.0) * 1e3,
        "ms",
    );
    let mut probe = b.server.connect()?;
    let before = adapter::remote_metrics(&mut probe).map_err(|e| e.to_string())?;
    let closed_s = ctx.seconds
        * if main {
            CLOSED_SHARE / 2.0
        } else {
            CLOSED_SHARE
        };
    let untraced = if main {
        Some(b.phase(closed_s, false, false, rep)?)
    } else {
        None
    };
    let closed = b.phase(closed_s, false, true, rep)?;
    // The open loop runs for the generator's lag.
    let open = b.phase(ctx.seconds * (1.0 - CLOSED_SHARE), true, false, rep)?;
    check_generator(&open, rep)?;
    let mut ping = Tracer::on(PINGS + 8);
    for n in 0..PINGS {
        rep.attempted += 1;
        let sp = ping.open("ping", n as u32, None);
        let r = adapter::remote_ping(&mut probe);
        ping.close(sp);
        if let Err(e) = r {
            rep.fail(format!("ping {n}: {e}"));
        }
    }
    let after = adapter::remote_metrics(&mut probe).map_err(|e| e.to_string())?;
    drop(probe);
    let mut aggs: BTreeMap<&'static str, crate::trace::Agg> = BTreeMap::new();
    for t in closed
        .iter()
        .filter_map(|r| r.tracer.as_ref())
        .chain(std::iter::once(&ping))
    {
        for (name, a) in t.summarize()? {
            let e = aggs.entry(name).or_default();
            e.count += a.count;
            e.total_ns += a.total_ns;
            e.self_ns += a.self_ns;
        }
    }
    let get = |n: &str| aggs.get(n).copied().unwrap_or_default();
    rep.metric("client.check_us", get("check").mean_us(), "us");
    rep.metric(
        "client.check_stream_us",
        get("check_stream").mean_us(),
        "us",
    );
    rep.metric("client.batch_us", get("batch").mean_us(), "us");
    rep.metric("client.ping_us", get("ping").mean_us(), "us");
    let waits: Vec<f64> = open
        .iter()
        .flat_map(|r| r.queue_wait_us.iter().copied())
        .collect();
    rep.metric("gen.queue_wait_us", stats::mean(&waits), "us");
    rep.metric(
        "gen.lag_ms",
        waits.iter().copied().fold(0.0, f64::max) / 1e3,
        "ms",
    );
    rep.metric(
        "gen.backlog",
        open.iter().map(|r| r.backlog).sum::<u64>() as f64,
        "count",
    );
    for (metric, hist) in [
        ("server.read_us", "pv_service_read_us"),
        ("server.parse_us", "pv_service_parse_us"),
        ("server.recognize_us", "pv_service_recognize_us"),
        ("server.serialize_us", "pv_service_serialize_us"),
        ("server.stream_feed_us", "pv_stream_feed_us"),
        ("pool.region_us", "pv_pool_region_us"),
    ] {
        rep.metric(metric, hist_mean(&before, &after, hist), "us");
    }
    let delta =
        |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    let requests = delta("pv_service_requests_total").max(1.0);
    for (metric, counter, per_request) in [
        ("server.shed", "pv_service_shed_total", false),
        ("server.busy", "pv_service_busy_total", false),
        (
            "server.framing_error",
            "pv_service_framing_error_total",
            false,
        ),
        ("pool.tasks", "pv_pool_tasks_total", true),
        ("pool.steals", "pv_pool_steals_total", true),
        ("pool.parks", "pv_pool_parks_total", true),
    ] {
        let v = delta(counter);
        rep.metric(metric, if per_request { v / requests } else { v }, "count");
    }
    if let Some(u) = untraced {
        let mean_s = |rs: &[ConnResult]| {
            let ops: u64 = rs.iter().map(|r| r.ops).sum();
            rs.iter().map(|r| r.busy_s).sum::<f64>() / ops.max(1) as f64
        };
        let (traced_mean, untraced_mean) = (mean_s(&closed), mean_s(&u));
        rep.metric("trace.overhead_ratio", traced_mean / untraced_mean, "ratio");
        rep.metric("inputs.gen_s", b.gen_s, "s");
    }
    if let Some(t) = closed.first().and_then(|r| r.tracer.as_ref()) {
        write_spans(ctx, t, "serve_mixed", rep);
    }
    b.server.stop()
}
