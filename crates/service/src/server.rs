//! The resident validation server.
//!
//! One process holds the expensive state — a persistent [`Pool`] of
//! parked workers and, per loaded DTD, a [`CheckEngine`] whose compiled
//! DAGs and **warm transition cache** outlive every request — and serves the
//! [`crate::proto`] protocol over a unix socket or a loopback TCP port.
//! Each connection gets a thread (requests within a connection are
//! sequential; a `CHECK` runs on it, and the pool serializes `BATCH`
//! regions across connections),
//! and every check flows through exactly the same `pv-core` code as the
//! in-process entry points, so outcomes are bit-identical to
//! `CheckEngine::check_document` — `tests/service_differential.rs` holds
//! that over the wire.
//!
//! DTD loading is **idempotent by content**: `LOAD`/`BUILTIN` intern the
//! compiled DTD under a hash of `(root, source)` and return the same
//! handle — with its warm cache — for the same input, so reconnecting
//! clients keep hitting the cache they warmed.
//!
//! Every request takes one path: [`proto::finish_request`] reads its
//! frame, `handle_request` serves every verb (`CHECK_STREAM` reads its
//! chunks there) and reports a `Reply` — the response line plus its
//! disposition and verdict — and `ServiceState::record` books it. That
//! one step also ends every counted refusal (a connection turned away
//! `busy` or `draining`, an idle reap, a forced drain): it writes the
//! access-log line and bumps the disposition's registry counter, and for
//! a request it observes the verb latency and offers the slow trace.
//! The registry is the only set of books, so `STATS` and `METRICS` read
//! the same numbers and `RESET` restarts both.

use crate::governor::{Access, ConnPermit, Governor, GovernorConfig};
use crate::json::{self, Json};
use crate::proto::{self, Frame, ReadError, Request};
use pv_core::checker::PvOutcome;
use pv_core::depth::DepthPolicy;
use pv_core::engine::CheckEngine;
use pv_core::stream::StreamCheck;
use pv_dtd::builtin::BuiltinDtd;
use pv_dtd::{DtdAnalysis, StaticReport};
use pv_obs::{Counter, Gauge, Histogram, Registry, Trace};
use pv_par::Pool;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Where a server listens (and a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address, `host:port` (`port` may be `0` to let the OS pick —
    /// the bound [`ServerHandle::endpoint`] reports the real one).
    Tcp(String),
}

impl Endpoint {
    /// Parses an address string: anything containing a `/` (or ending in
    /// `.sock`) is a unix socket path, everything else is `host:port`.
    pub fn parse(s: &str) -> Endpoint {
        if s.contains('/') || s.ends_with(".sock") {
            Endpoint::Unix(PathBuf::from(s))
        } else {
            Endpoint::Tcp(s.to_owned())
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "{a}"),
        }
    }
}

/// A connected byte stream of either flavour.
pub(crate) enum Stream {
    /// Unix-domain.
    #[cfg(unix)]
    Unix(UnixStream),
    /// TCP.
    Tcp(TcpStream),
}

impl io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl io::Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

impl Stream {
    /// A second handle on the same socket. Socket options set through
    /// either handle apply to both — the connection loop keeps one in a
    /// registry so a draining server can sever a parked connection that
    /// is blocked inside a read elsewhere.
    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    /// Deadline on blocking reads (`None` = wait forever). Timed-out
    /// reads fail with `WouldBlock`/`TimedOut`.
    pub(crate) fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(dur),
            Stream::Tcp(s) => s.set_read_timeout(dur),
        }
    }

    /// Deadline on blocking writes (`None` = wait forever).
    pub(crate) fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_write_timeout(dur),
            Stream::Tcp(s) => s.set_write_timeout(dur),
        }
    }

    /// Severs both directions; a thread blocked reading this socket
    /// observes EOF and unwinds.
    pub(crate) fn shutdown_both(&self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
        }
    }
}

/// `true` for the error kinds a tripped socket deadline produces.
fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Connects a [`Stream`] to an endpoint (shared by the client and the
/// server's own shutdown wake-up).
pub(crate) fn connect(endpoint: &Endpoint) -> io::Result<Stream> {
    match endpoint {
        #[cfg(unix)]
        Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
        #[cfg(not(unix))]
        Endpoint::Unix(_) => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "unix sockets are not available on this platform",
        )),
        Endpoint::Tcp(addr) => {
            let s = TcpStream::connect(addr.as_str())?;
            // Request/response framing means every write should go out
            // now; Nagle + delayed ACK otherwise adds ~40ms per round
            // trip when the verb line and payload land in separate
            // segments.
            s.set_nodelay(true)?;
            Ok(Stream::Tcp(s))
        }
    }
}

enum Listener {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
        }
    }

    /// Nonblocking accepts — the drain loop polls instead of parking, so
    /// it can honour the drain deadline while still answering late
    /// arrivals with a clean `DRAINING` error.
    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }
}

/// One interned DTD: the engine, the static-analysis report computed at
/// `LOAD`, and display metadata.
struct DtdEntry {
    engine: Arc<CheckEngine>,
    report: StaticReport,
    label: String,
}

/// A connection's control block: a second socket handle (to sever it
/// from outside) plus whether it is mid-request.
struct ConnCtl {
    ctl: Stream,
    busy: Arc<AtomicBool>,
}

/// The server's `pv_service_*` metric handles, registered once at bind.
/// Everything here is a cloneable no-op-capable `pv-obs` handle: the
/// request path pays one relaxed atomic add per touch and nothing when
/// the registry is disabled (the server's registry is always enabled —
/// `METRICS` must work without flags — but the handles keep the
/// zero-cost shape so the instrumented code reads identically at every
/// layer).
struct ServiceMetrics {
    /// Per-verb wall-clock (verb line to response).
    check_us: Histogram,
    batch_us: Histogram,
    stream_us: Histogram,
    load_us: Histogram,
    other_us: Histogram,
    /// `CHECK` stage wall-clocks (the recognize stage, which lexes the
    /// document as it checks it, also lands in the engine's own
    /// `pv_engine_check_us`).
    read_us: Histogram,
    recognize_us: Histogram,
    serialize_us: Histogram,
    /// Streaming ingest: one count/size/feed-latency sample per chunk.
    stream_chunks: Counter,
    stream_bytes: Counter,
    stream_feed_us: Histogram,
    /// One counter per [`Disposition`], indexed by it.
    dispositions: [Counter; 9],
    /// Lifetime totals: the `STATS` reply reads these.
    requests: Counter,
    documents: Counter,
    /// Live state, refreshed from the governor at snapshot time.
    connections: Gauge,
    inflight: Gauge,
}

impl ServiceMetrics {
    fn registered(reg: &Registry) -> ServiceMetrics {
        ServiceMetrics {
            check_us: reg.histogram("pv_service_check_us"),
            batch_us: reg.histogram("pv_service_batch_us"),
            stream_us: reg.histogram("pv_service_stream_us"),
            load_us: reg.histogram("pv_service_load_us"),
            other_us: reg.histogram("pv_service_other_us"),
            read_us: reg.histogram("pv_service_read_us"),
            recognize_us: reg.histogram("pv_service_recognize_us"),
            serialize_us: reg.histogram("pv_service_serialize_us"),
            stream_chunks: reg.counter("pv_stream_chunks_total"),
            stream_bytes: reg.counter("pv_stream_bytes_total"),
            stream_feed_us: reg.histogram("pv_stream_feed_us"),
            dispositions: DISPOSITIONS.map(|(_, counter)| reg.counter(counter)),
            requests: reg.counter("pv_service_requests_total"),
            documents: reg.counter("pv_service_documents_total"),
            connections: reg.gauge("pv_service_connections"),
            inflight: reg.gauge("pv_service_inflight"),
        }
    }

    /// The latency histogram a verb's wall-clock lands in.
    fn verb_hist(&self, op: &str) -> &Histogram {
        match op {
            "CHECK" => &self.check_us,
            "BATCH" => &self.batch_us,
            "CHECK_STREAM" => &self.stream_us,
            "LOAD" | "BUILTIN" => &self.load_us,
            _ => &self.other_us,
        }
    }

    /// The one counter of a disposition.
    fn count(&self, disposition: Disposition) -> &Counter {
        &self.dispositions[disposition as usize]
    }
}

/// The access log's disposition column: how a request or a counted
/// refusal ended. [`ServiceState::record`] counts each in its own
/// registry counter and nowhere else: `METRICS` reads them all, `STATS`'
/// `"governance"` block reads the refusals and timeouts, and `RESET`
/// zeroes them with the rest of the registry.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Disposition {
    Ok,
    AppError,
    Shed,
    Busy,
    Draining,
    IdleTimeout,
    ReadTimeout,
    FramingError,
    DrainForced,
}

/// Each [`Disposition`]'s access-log name and counter, in declaration
/// order.
const DISPOSITIONS: [(&str, &str); 9] = [
    ("ok", "pv_service_ok_total"),
    ("app_error", "pv_service_app_error_total"),
    ("shed", "pv_service_shed_total"),
    ("busy", "pv_service_busy_total"),
    ("draining", "pv_service_draining_total"),
    ("idle_timeout", "pv_service_idle_timeout_total"),
    ("read_timeout", "pv_service_read_timeout_total"),
    ("framing_error", "pv_service_framing_error_total"),
    ("drain_forced", "pv_service_drain_forced_total"),
];

/// Shared server state.
struct ServiceState {
    pool: Pool,
    /// The always-enabled metrics registry behind `METRICS` and the
    /// `/metrics` HTTP exposition; the pool and every interned engine
    /// record into it.
    obs: Registry,
    metrics: ServiceMetrics,
    /// Admission permits, deadlines and limits, the access-log sink.
    gov: Governor,
    /// Live connections by id — the drain path severs these.
    conns: Mutex<HashMap<u64, ConnCtl>>,
    /// handle → entry.
    dtds: RwLock<HashMap<String, Arc<DtdEntry>>>,
    /// full key material → handle (the idempotence map). Keyed by the
    /// verbatim `(kind, root, source)` string, not a digest: a resident
    /// multi-tenant server must not let a hash collision silently hand
    /// one client another client's engine.
    interned: RwLock<HashMap<String, String>>,
    next_handle: AtomicU64,
    started: Instant,
    shutdown: AtomicBool,
    /// A connectable form of the listen endpoint — a `SHUTDOWN` handler
    /// self-connects here to release the blocking `accept`. For wildcard
    /// TCP binds (`0.0.0.0` / `[::]`) this is rewritten to the loopback
    /// address with the resolved port, since connecting *to* a wildcard
    /// address is not portable.
    endpoint: Endpoint,
}

impl ServiceState {
    fn intern(
        &self,
        key: &str,
        build: impl FnOnce() -> Result<(DtdAnalysis, String), String>,
    ) -> Result<(String, Arc<DtdEntry>), String> {
        if let Some(handle) = self.interned.read().unwrap().get(key) {
            let entry = self.dtds.read().unwrap()[handle].clone();
            return Ok((handle.clone(), entry));
        }
        let (analysis, label) = build()?;
        let report = StaticReport::analyze(&analysis);
        if self.gov.config.strict_load {
            if let pv_dtd::BudgetVerdict::Flagged { reason, witness } = &report.budget.verdict {
                let chain = if witness.is_empty() {
                    String::new()
                } else {
                    format!(" (witness: {})", witness.join(" -> "))
                };
                return Err(format!(
                    "strict-load: {label} is not budget-certified: {reason}{chain}"
                ));
            }
        }
        let engine = CheckEngine::with_policy_observed(analysis, DepthPolicy::Auto, &self.obs);
        let entry = Arc::new(DtdEntry { engine, report, label });
        let mut interned = self.interned.write().unwrap();
        // Double-checked under the write lock: a racing loader wins once.
        if let Some(handle) = interned.get(key) {
            let existing = self.dtds.read().unwrap()[handle].clone();
            return Ok((handle.clone(), existing));
        }
        let handle = format!("d{}", self.next_handle.fetch_add(1, Ordering::Relaxed));
        interned.insert(key.to_owned(), handle.clone());
        self.dtds.write().unwrap().insert(handle.clone(), entry.clone());
        Ok((handle, entry))
    }

    fn entry(&self, handle: &str) -> Result<Arc<DtdEntry>, String> {
        self.dtds
            .read()
            .unwrap()
            .get(handle)
            .cloned()
            .ok_or_else(|| format!("unknown DTD handle {handle:?} (LOAD or BUILTIN first)"))
    }

    /// Brings the live-state gauges up to date from the governor. Called
    /// at every snapshot point (`METRICS`, the HTTP exposition) so a
    /// scrape always sees current connection/inflight occupancy without
    /// the request path paying gauge traffic.
    fn refresh_gauges(&self) {
        self.metrics.connections.set(self.gov.active() as i64);
        self.metrics.inflight.set(self.gov.inflight() as i64);
    }

    /// Ends one request or counted refusal, the one place either is
    /// booked: its access-log line, its disposition counter and, for a
    /// request (`stages` is `Some`), its verb's latency and the offer of
    /// its stage trace to the slow ring.
    fn record(
        &self,
        conn: u64,
        access: &Access<'_>,
        disposition: Disposition,
        stages: Option<Vec<(String, u64)>>,
    ) {
        self.gov.log_request(conn, access, DISPOSITIONS[disposition as usize].0);
        self.metrics.count(disposition).inc();
        if let Some(stages) = stages {
            let total_us = access.dur.as_micros() as u64;
            self.metrics.verb_hist(access.op).observe(total_us);
            self.obs.record_trace(Trace { op: access.op.to_owned(), total_us, stages });
        }
    }
}

/// A running server: the acceptor thread plus its resolved endpoint.
pub struct ServerHandle {
    endpoint: Endpoint,
    state: Arc<ServiceState>,
    acceptor: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The endpoint clients should connect to (TCP port resolved).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The server's metrics registry (always enabled). Cloning is cheap;
    /// clones observe the same cells the serving path updates.
    pub fn registry(&self) -> Registry {
        self.state.obs.clone()
    }

    /// A cloneable telemetry renderer detached from the handle's
    /// lifetime — what the `/metrics` HTTP exposition thread holds.
    pub fn metrics_source(&self) -> MetricsSource {
        MetricsSource { state: Arc::clone(&self.state) }
    }

    /// Blocks until the server stops accepting (a `SHUTDOWN` request or
    /// [`ServerHandle::shutdown`]).
    pub fn join(self) {
        let _ = self.acceptor.join();
        Self::cleanup(&self.endpoint);
    }

    /// Stops accepting connections and joins the acceptor. In-flight
    /// requests get until the configured drain deadline to finish; idle
    /// connections are severed immediately.
    pub fn shutdown(self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        let _ = connect(&self.state.endpoint); // wake the blocking accept
        let _ = self.acceptor.join();
        Self::cleanup(&self.endpoint);
    }

    fn cleanup(endpoint: &Endpoint) {
        if let Endpoint::Unix(path) = endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A cloneable view of a running server's telemetry, for renderers that
/// outlive or run beside the protocol loop (the `/metrics` HTTP thread,
/// tests). Snapshots refresh the live-state gauges from the governor
/// first, so scrapes see current occupancy.
#[derive(Clone)]
pub struct MetricsSource {
    state: Arc<ServiceState>,
}

impl MetricsSource {
    /// The registry snapshot in Prometheus text exposition format.
    pub fn prometheus(&self) -> String {
        self.state.refresh_gauges();
        self.state.obs.snapshot().prometheus_text()
    }

    /// The registry snapshot as the `METRICS` verb's JSON body.
    pub fn json(&self) -> String {
        metrics_response(&self.state)
    }
}

/// The server constructor: see the module docs at the top of this file
/// (re-exported as the crate-level `Server`).
pub struct Server;

impl Server {
    /// Binds and starts serving in background threads. `jobs` sizes the
    /// persistent pool (`0` = one worker per CPU). Governance runs with
    /// [`GovernorConfig::default`].
    pub fn bind(endpoint: &Endpoint, jobs: usize) -> io::Result<ServerHandle> {
        Self::bind_with(endpoint, jobs, GovernorConfig::default())
    }

    /// [`Server::bind`] with explicit governance policy. A pool worker
    /// (or the acceptor) the OS refuses to spawn fails the bind with the
    /// spawn error.
    pub fn bind_with(
        endpoint: &Endpoint,
        jobs: usize,
        config: GovernorConfig,
    ) -> io::Result<ServerHandle> {
        // The registry is always enabled: METRICS and the HTTP
        // exposition must answer without opt-in flags, and the handles'
        // cost is one relaxed atomic add per touch. The pool starts
        // before the listener binds, so a refused worker leaves no
        // socket file behind.
        let obs = Registry::new();
        let pool = Pool::try_new(jobs, &obs)?;
        let (listener, endpoint) = match endpoint {
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                // A stale socket file from a dead server blocks bind —
                // but only remove it after proving no server answers
                // there, or a restart race would silently hijack (and
                // later delete) a live server's endpoint.
                if path.exists() {
                    if UnixStream::connect(path).is_ok() {
                        return Err(io::Error::new(
                            io::ErrorKind::AddrInUse,
                            format!("a server is already listening on {}", path.display()),
                        ));
                    }
                    let _ = std::fs::remove_file(path);
                }
                (Listener::Unix(UnixListener::bind(path)?), Endpoint::Unix(path.clone()))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix sockets are not available on this platform",
                ))
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                let resolved = l.local_addr()?.to_string();
                (Listener::Tcp(l), Endpoint::Tcp(resolved))
            }
        };
        let metrics = ServiceMetrics::registered(&obs);
        let state = Arc::new(ServiceState {
            pool,
            obs,
            metrics,
            gov: Governor::new(config),
            conns: Mutex::new(HashMap::new()),
            dtds: RwLock::new(HashMap::new()),
            interned: RwLock::new(HashMap::new()),
            next_handle: AtomicU64::new(0),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            endpoint: connectable(&endpoint),
        });
        let accept_state = Arc::clone(&state);
        let acceptor = std::thread::Builder::new()
            .name("pv-serve-accept".into())
            .spawn(move || {
                accept_loop(&listener, &accept_state);
            })?;
        Ok(ServerHandle { endpoint, state, acceptor })
    }
}

/// A form of the bound endpoint one can `connect` to: wildcard TCP hosts
/// become loopback (connecting to `0.0.0.0`/`[::]` is not portable).
fn connectable(endpoint: &Endpoint) -> Endpoint {
    match endpoint {
        Endpoint::Tcp(addr) => {
            if let Some(port) = addr.strip_prefix("0.0.0.0:") {
                Endpoint::Tcp(format!("127.0.0.1:{port}"))
            } else if let Some(port) = addr.strip_prefix("[::]:") {
                Endpoint::Tcp(format!("[::1]:{port}"))
            } else {
                endpoint.clone()
            }
        }
        other => other.clone(),
    }
}

fn accept_loop(listener: &Listener, state: &Arc<ServiceState>) {
    let mut conn_id = 0u64;
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok(mut stream) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    // Either the SHUTDOWN handler's wake-up self-connect
                    // or a real client racing shutdown — answer with a
                    // clean refusal either way (the wake-up never reads
                    // it), then drain. This closes the old
                    // accepted-and-abandoned race.
                    deny(&mut stream, state, "draining", "server is draining");
                    break;
                }
                conn_id += 1;
                match state.gov.try_conn() {
                    Some(permit) => {
                        let state = Arc::clone(state);
                        let _ = std::thread::Builder::new()
                            .name(format!("pv-serve-conn-{conn_id}"))
                            .spawn(move || {
                                let _ = serve_connection(stream, &state, conn_id, permit);
                            });
                    }
                    None => {
                        // At max_connections: one clean BUSY line, close.
                        // Never a hang, never a silent drop. Logged after
                        // the refusal goes out so dur_us is the real
                        // delivery time, not zero.
                        let t0 = Instant::now();
                        deny(&mut stream, state, "busy", "server is at its connection limit");
                        let access = Access { dur: t0.elapsed(), ..Access::default() };
                        state.record(conn_id, &access, Disposition::Busy, None);
                    }
                }
            }
            Err(_) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept error: keep serving.
            }
        }
    }
    drain(listener, state);
}

/// Writes one structured refusal line and closes the connection (by
/// dropping it). Bounded by the write timeout so a flooder who never
/// reads cannot park the acceptor.
fn deny(stream: &mut Stream, state: &Arc<ServiceState>, kind: &str, msg: &str) {
    let _ = stream.set_write_timeout(
        state.gov.config.write_timeout.or(Some(Duration::from_secs(5))),
    );
    let _ = respond(stream, err_response_kind(kind, msg));
}

/// Graceful drain: sever idle connections at once, give busy ones until
/// the drain deadline, answer late arrivals with `DRAINING`, then force
/// the stragglers.
fn drain(listener: &Listener, state: &Arc<ServiceState>) {
    let gov = &state.gov;
    let drain_t0 = Instant::now();
    let deadline = drain_t0 + gov.config.drain_deadline;
    let _ = listener.set_nonblocking(true);
    {
        let conns = state.conns.lock().unwrap();
        for ctl in conns.values() {
            if !ctl.busy.load(Ordering::SeqCst) {
                let _ = ctl.ctl.shutdown_both();
            }
        }
    }
    while gov.active() > 0 && Instant::now() < deadline {
        if let Ok(mut s) = listener.accept() {
            deny(&mut s, state, "draining", "server is draining");
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    if gov.active() > 0 {
        let conns = state.conns.lock().unwrap();
        for (id, ctl) in conns.iter() {
            // dur_us = how long this connection was given to finish.
            let access = Access { dur: drain_t0.elapsed(), ..Access::default() };
            state.record(*id, &access, Disposition::DrainForced, None);
            let _ = ctl.ctl.shutdown_both();
        }
        drop(conns);
        // Brief grace for the severed threads to observe EOF and release
        // their permits; join() must stay bounded regardless.
        let grace = Instant::now() + Duration::from_millis(500);
        while gov.active() > 0 && Instant::now() < grace {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

fn respond(stream: &mut impl Write, body: String) -> io::Result<()> {
    debug_assert!(!body.contains('\n'), "responses are newline-framed");
    stream.write_all(body.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

fn err_response(msg: &str) -> String {
    let mut out = String::from("{\"ok\":false,\"error\":");
    json::write_str(&mut out, msg);
    out.push('}');
    out
}

/// An `ok:false` response with a machine-readable `kind` (`busy`,
/// `draining`) so clients can tell "come back later" from "your request
/// is wrong".
fn err_response_kind(kind: &str, msg: &str) -> String {
    let mut out = String::from("{\"ok\":false,\"kind\":\"");
    out.push_str(kind); // fixed tokens only, no escaping needed
    out.push_str("\",\"error\":");
    json::write_str(&mut out, msg);
    out.push('}');
    out
}

/// Registers the connection's control block, runs the request loop, and
/// deregisters on any exit path.
fn serve_connection(
    stream: Stream,
    state: &Arc<ServiceState>,
    conn_id: u64,
    permit: ConnPermit,
) -> io::Result<()> {
    let busy = Arc::new(AtomicBool::new(false));
    if let Ok(ctl) = stream.try_clone() {
        state
            .conns
            .lock()
            .unwrap()
            .insert(conn_id, ConnCtl { ctl, busy: Arc::clone(&busy) });
    }
    let res = connection_loop(stream, state, conn_id, &busy);
    state.conns.lock().unwrap().remove(&conn_id);
    drop(permit);
    res
}

fn connection_loop(
    stream: Stream,
    state: &Arc<ServiceState>,
    conn_id: u64,
    busy: &AtomicBool,
) -> io::Result<()> {
    let gov = &state.gov;
    let _ = stream.set_write_timeout(gov.config.write_timeout);
    let mut reader = BufReader::new(stream);
    loop {
        busy.store(false, Ordering::SeqCst);
        if state.shutdown.load(Ordering::SeqCst) {
            // The server began draining between our requests. Recorded
            // after the refusal goes out so dur_us is its delivery time.
            let t0 = Instant::now();
            let _ = respond(reader.get_mut(), err_response_kind("draining", "server is draining"));
            let access = Access { dur: t0.elapsed(), ..Access::default() };
            state.record(conn_id, &access, Disposition::Draining, None);
            return Ok(());
        }
        // The gap between requests is idleness; the verb line read waits
        // under the (long) idle deadline.
        let _ = reader.get_ref().set_read_timeout(gov.config.idle_timeout);
        let idle_t0 = Instant::now();
        let line = match proto::read_line(&mut reader) {
            Ok(None) => return Ok(()), // clean EOF between requests
            Ok(Some(l)) => l,
            Err(e) if is_timeout(&e) => {
                // dur_us = how long the connection sat idle before the
                // reaper took it.
                let access = Access { dur: idle_t0.elapsed(), ..Access::default() };
                state.record(conn_id, &access, Disposition::IdleTimeout, None);
                return Ok(());
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Non-UTF-8 garbage where a verb line should be: same
                // contract as any framing error — one reported refusal,
                // then close.
                let t0 = Instant::now();
                let _ = respond(reader.get_mut(), err_response("request line is not UTF-8"));
                let access = Access { dur: t0.elapsed(), ..Access::default() };
                state.record(conn_id, &access, Disposition::FramingError, None);
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        busy.store(true, Ordering::SeqCst);
        let t0 = Instant::now();
        let op = line.split_whitespace().next().unwrap_or("-").to_owned();
        // Inside a request the clock tightens: payload bytes must keep
        // arriving under the read deadline.
        let _ = reader.get_ref().set_read_timeout(gov.config.read_timeout);
        let mut handle = "-".to_owned();
        let mut stages = Vec::new();
        let mut shutdown = false;
        let frame = proto::finish_request(&line, &mut reader, &gov.config.limits);
        let served = frame.and_then(|frame| {
            // The time spent in finish_request is the request's read stage
            // (payload bytes off the wire into memory).
            let read_us = t0.elapsed().as_micros() as u64;
            state.metrics.read_us.observe(read_us);
            match frame {
                Frame::Bad(msg) => Ok(Reply::framing(&msg)),
                Frame::Req(req) => {
                    state.metrics.requests.inc();
                    handle = request_handle(&req).unwrap_or("-").to_owned();
                    shutdown = matches!(req, Request::Shutdown);
                    // A stream's payload is read as it is checked, so its
                    // trace has no read stage.
                    if !matches!(req, Request::CheckStream { .. }) {
                        stages.push(("read".to_owned(), read_us));
                    }
                    handle_request(req, &mut reader, state, &mut stages)
                }
            }
        });
        let reply = match served {
            Ok(reply) => reply,
            Err(e) if is_timeout(&e) => {
                // A payload or stream stalled past its deadline: no
                // reply, the connection closes.
                let access =
                    Access { op: &op, handle: &handle, dur: t0.elapsed(), ..Access::default() };
                state.record(conn_id, &access, Disposition::ReadTimeout, Some(stages));
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let access = Access {
            op: &op,
            handle: &handle,
            bytes: reply.bytes,
            dur: t0.elapsed(),
            verdict: reply.verdict,
        };
        state.record(conn_id, &access, reply.disposition, Some(stages));
        respond(reader.get_mut(), reply.body)?;
        if reply.disposition == Disposition::FramingError {
            // A framing error poisons the payload boundary: report and
            // close (module docs).
            return Ok(());
        }
        if shutdown {
            // The acceptor blocks in `accept`; one self-connect makes it
            // re-check the flag and start draining.
            let _ = connect(&state.endpoint);
            return Ok(());
        }
    }
}

/// Which DTD handle a request names, for the access log.
fn request_handle(req: &Request) -> Option<&str> {
    match req {
        Request::Check { handle, .. }
        | Request::CheckStream { handle }
        | Request::Batch { handle, .. }
        | Request::Reset { handle } => Some(handle),
        _ => None,
    }
}

/// How a request ended: its response line, and the access log's
/// disposition, verdict and payload-bytes columns for it, as the handler
/// that served it reports them.
struct Reply {
    body: String,
    disposition: Disposition,
    /// `pv`, `not-pv`, `error`, or `-` (see `Access::verdict`).
    verdict: &'static str,
    bytes: usize,
}

impl Reply {
    fn new(body: String, disposition: Disposition, verdict: &'static str) -> Reply {
        Reply { body, disposition, verdict, bytes: 0 }
    }

    /// Served, with no verdict.
    fn ok(body: String) -> Reply {
        Reply::new(body, Disposition::Ok, "-")
    }

    /// Served with a verdict.
    fn checked(body: String, potentially_valid: bool) -> Reply {
        Reply::new(body, Disposition::Ok, if potentially_valid { "pv" } else { "not-pv" })
    }

    /// An application error; the connection stays usable.
    fn error(msg: &str) -> Reply {
        Reply::new(err_response(msg), Disposition::AppError, "error")
    }

    /// A pool-bound request refused at the in-flight cap with a clean
    /// `busy` error; the connection stays usable.
    fn shed() -> Reply {
        let body = err_response_kind("busy", "server is at its in-flight request limit");
        Reply::new(body, Disposition::Shed, "error")
    }

    /// A framing error: the connection closes after this reply.
    fn framing(msg: &str) -> Reply {
        Reply::new(err_response(msg), Disposition::FramingError, "-")
    }

    /// The same reply, for a request that carried `bytes` of payload.
    fn carrying(self, bytes: usize) -> Reply {
        Reply { bytes, ..self }
    }
}

/// Serves one request. `CHECK_STREAM` reads its chunks from `reader`;
/// every other verb's payload was read with its frame. `stages`
/// accumulates named stage wall-clocks (microseconds) for the slow-trace
/// ring — `CHECK` and `BATCH` append their `recognize`/`serialize`
/// stages. `Err` is a transport failure, a stalled stream included, and
/// ends the connection.
fn handle_request(
    req: Request,
    reader: &mut BufReader<Stream>,
    state: &ServiceState,
    stages: &mut Vec<(String, u64)>,
) -> io::Result<Reply> {
    Ok(match req {
        Request::Ping => Reply::ok("{\"ok\":true,\"pong\":true}".to_owned()),
        Request::Shutdown => {
            state.shutdown.store(true, Ordering::SeqCst);
            Reply::ok("{\"ok\":true,\"shutting_down\":true}".to_owned())
        }
        Request::Reset { handle } => match state.entry(&handle) {
            Ok(entry) => {
                // RESET opens a fresh telemetry window: the handle's
                // cached verdicts AND its hit/miss counters go, along
                // with the metrics registry, whose counters STATS reads
                // too. Anything less leaves STATS mixing windows — old
                // uptime totals against zeroed memo counters reads as a
                // cache that never hits.
                entry.engine.memo_reset();
                state.obs.reset();
                Reply::ok("{\"ok\":true}".to_owned())
            }
            Err(e) => Reply::error(&e),
        },
        Request::Metrics => Reply::ok(metrics_response(state)),
        Request::Stats => Reply::ok(stats_response(state)),
        Request::Builtin { name } => {
            let result = state.intern(&format!("builtin\u{0}{name}"), || {
                let b = BuiltinDtd::ALL
                    .iter()
                    .copied()
                    .find(|b| b.name() == name)
                    .ok_or_else(|| format!("unknown builtin {name:?}"))?;
                Ok((b.analysis(), format!("builtin:{name}")))
            });
            load_response(result)
        }
        Request::Load { root, source } => {
            let result = state.intern(&format!("load\u{0}{root}\u{0}{source}"), || {
                let analysis = DtdAnalysis::parse(&source, &root)
                    .map_err(|e| format!("DTD error: {e}"))?;
                Ok((analysis, format!("loaded:{root}")))
            });
            load_response(result).carrying(source.len())
        }
        Request::Check { handle, jobs: _, memo, xml } => {
            check(state, &handle, memo, &xml, stages).carrying(xml.len())
        }
        Request::CheckStream { handle } => return check_stream(reader, &handle, state),
        Request::Batch { handle, jobs, xmls } => {
            let bytes = xmls.iter().map(String::len).sum();
            batch(state, &handle, jobs, xmls, stages).carrying(bytes)
        }
    })
}

/// `CHECK`: one document is never split — it is lexed and checked with
/// no tree on this connection thread, and `memo=0` checks it with no
/// cache at all.
fn check(
    state: &ServiceState,
    handle: &str,
    memo: bool,
    xml: &str,
    stages: &mut Vec<(String, u64)>,
) -> Reply {
    // Pool-bound work honours the in-flight cap.
    let Some(_permit) = state.gov.try_inflight() else { return Reply::shed() };
    let entry = match state.entry(handle) {
        Ok(entry) => entry,
        Err(e) => return Reply::error(&e),
    };
    let m = &state.metrics;
    let rt = m.recognize_us.start();
    let checked = entry.engine.check_str(xml, memo);
    if let Some(us) = m.recognize_us.observe_since(rt) {
        stages.push(("recognize".to_owned(), us));
    }
    match checked {
        Ok(outcome) => {
            m.documents.inc();
            let st = m.serialize_us.start();
            let body = check_response(&outcome, &entry, memo);
            if let Some(us) = m.serialize_us.observe_since(st) {
                stages.push(("serialize".to_owned(), us));
            }
            Reply::checked(body, outcome.is_potentially_valid())
        }
        Err(e) => Reply::error(&format!("document is not well-formed: {e}")),
    }
}

/// `CHECK_STREAM`: consumes the chunk sequence that follows the verb
/// line, feeding each chunk to the streaming checker as it arrives, so
/// the client's upload and the server's validation overlap.
///
/// The streaming checker holds only the open ancestor spine (O(depth)),
/// so a multi-gigabyte upload costs the server a few kilobytes of
/// resident state. Application errors — unknown handle, malformed
/// document, a request shed at the in-flight cap — still drain every
/// remaining chunk up to the terminator before replying, so the
/// connection stays usable; only transport errors (`Err`, including a
/// tripped deadline) and framing errors end it.
fn check_stream(
    reader: &mut BufReader<Stream>,
    handle: &str,
    state: &ServiceState,
) -> io::Result<Reply> {
    let limits = state.gov.config.limits;
    let inflight = state.gov.try_inflight();
    // The gap between chunks is idleness (a trickling client is fine):
    // each read waits under the idle deadline.
    let _ = reader.get_ref().set_read_timeout(state.gov.config.idle_timeout);
    let entry = state.entry(handle);
    // A shed request drains its chunks but never builds a checker: the
    // whole point is to do no pool-bound work.
    let mut stream = entry
        .as_ref()
        .ok()
        .filter(|_| inflight.is_some())
        .map(|e| StreamCheck::new(e.engine.stream_checker()));
    let mut parse_err = None;
    let mut total = 0usize;
    loop {
        match proto::read_chunk(reader, limits.max_payload) {
            Err(ReadError::Io(e)) => return Err(e),
            Err(ReadError::Frame(msg)) => return Ok(Reply::framing(&msg).carrying(total)),
            Ok(None) => break,
            Ok(Some(chunk)) => {
                total += chunk.len();
                state.metrics.stream_chunks.inc();
                state.metrics.stream_bytes.add(chunk.len() as u64);
                if total > limits.max_request {
                    let msg =
                        format!("stream exceeds the {}-byte aggregate limit", limits.max_request);
                    return Ok(Reply::framing(&msg).carrying(total));
                }
                if let (None, Some(s)) = (&parse_err, stream.as_mut()) {
                    let ft = state.metrics.stream_feed_us.start();
                    let fed = s.feed(&chunk);
                    state.metrics.stream_feed_us.observe_since(ft);
                    // Keep draining (the framing is intact), but stop
                    // feeding: the error is final.
                    parse_err = fed.err();
                }
            }
        }
    }
    let reply = match &entry {
        _ if inflight.is_none() => Reply::shed(),
        Err(e) => Reply::error(e),
        Ok(entry) => {
            let stream = stream.expect("stream built for live entry");
            match parse_err.map_or_else(|| stream.finish(), Err) {
                Err(e) => Reply::error(&format!("document is not well-formed: {e}")),
                Ok(outcome) => {
                    state.metrics.documents.inc();
                    // Streaming runs on its checker's private cache, not
                    // the engine's memo, so the reply's memo field is
                    // always null (same JSON shape as CHECK).
                    let body = check_response(&outcome, entry, false);
                    Reply::checked(body, outcome.is_potentially_valid())
                }
            }
        }
    };
    Ok(reply.carrying(total))
}

/// `BATCH`: each document is one pool task, lexed and checked with no
/// tree; the reply names the malformed document of lowest index.
fn batch(
    state: &ServiceState,
    handle: &str,
    jobs: usize,
    xmls: Vec<String>,
    stages: &mut Vec<(String, u64)>,
) -> Reply {
    // Pool-bound work honours the in-flight cap.
    let Some(_permit) = state.gov.try_inflight() else { return Reply::shed() };
    let entry = match state.entry(handle) {
        Ok(entry) => entry,
        Err(e) => return Reply::error(&e),
    };
    let m = &state.metrics;
    let rt = m.recognize_us.start();
    let results = entry.engine.check_batch_pooled(&Arc::new(xmls), &state.pool, jobs);
    if let Some(us) = m.recognize_us.observe_since(rt) {
        stages.push(("recognize".to_owned(), us));
    }
    let indexed = results.into_iter().enumerate().map(|(i, r)| r.map_err(|e| (i, e)));
    let outcomes = match indexed.collect::<Result<Vec<_>, _>>() {
        Ok(outcomes) => outcomes,
        Err((i, e)) => return Reply::error(&format!("document #{i} is not well-formed: {e}")),
    };
    m.documents.add(outcomes.len() as u64);
    let mut out = String::from("{\"ok\":true,\"outcomes\":[");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_outcome(&mut out, o);
    }
    out.push_str("]}");
    // The access log's verdict for a batch: `pv` only if every document is.
    if outcomes.is_empty() {
        Reply::ok(out)
    } else {
        Reply::checked(out, outcomes.iter().all(PvOutcome::is_potentially_valid))
    }
}

/// Renders the `STATS` reply. Its counters are the registry's, so it and
/// `METRICS` keep one set of books and `RESET` restarts both.
fn stats_response(state: &ServiceState) -> String {
    // The engines' work counters, as METRICS reports them.
    let work = |name| state.obs.counter(name).get();
    let count = |disposition| state.metrics.count(disposition).get();
    let mut out = String::from("{\"ok\":true");
    let _ = write!(
        out,
        ",\"uptime_ms\":{},\"requests\":{},\"documents\":{},\"workers\":{}",
        state.started.elapsed().as_millis(),
        state.metrics.requests.get(),
        state.metrics.documents.get(),
        state.pool.workers(),
    );
    let _ = write!(
        out,
        ",\"speculation\":{{\"symbols\":{},\"node_visits\":{},\"subs_created\":{},\"specs_denied\":{}}}",
        work("pv_engine_symbols_total"),
        work("pv_engine_node_visits_total"),
        work("pv_engine_subs_created_total"),
        work("pv_engine_specs_denied_total"),
    );
    let _ = write!(
        out,
        ",\"governance\":{{\"draining\":{},\"active\":{},\"max_connections\":{},\
         \"conns_shed\":{},\"inflight\":{},\"max_inflight\":{},\"reqs_shed\":{},\
         \"timeouts\":{},\"drains_forced\":{}}}",
        state.shutdown.load(Ordering::SeqCst),
        state.gov.active(),
        state.gov.config.max_connections,
        count(Disposition::Busy),
        state.gov.inflight(),
        state.gov.config.max_inflight,
        count(Disposition::Shed),
        count(Disposition::IdleTimeout) + count(Disposition::ReadTimeout),
        count(Disposition::DrainForced),
    );
    out.push_str(",\"dtds\":[");
    let dtds = state.dtds.read().unwrap();
    let mut handles: Vec<&String> = dtds.keys().collect();
    handles.sort();
    for (i, handle) in handles.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let entry = &dtds[*handle];
        out.push_str("{\"handle\":");
        json::write_str(&mut out, handle);
        out.push_str(",\"label\":");
        json::write_str(&mut out, &entry.label);
        out.push_str(",\"class\":");
        json::write_str(&mut out, &entry.engine.analysis().rec.class.to_string());
        out.push_str(",\"memo\":");
        match entry.engine.memo_stats() {
            Some(m) => json::write_memo(&mut out, &m),
            None => out.push_str("null"),
        }
        out.push_str(",\"analysis\":");
        write_analysis(&mut out, &entry.report);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Renders the `METRICS` reply: the registry snapshot as one JSON line
/// — counters and gauges as name→value maps, histograms with their
/// count/sum/max and exact-within-6.25% p50/p95/p99, and the slow-request
/// trace ring (oldest first). Deterministic: metrics appear in name
/// order, so two scrapes with no traffic between them are bytewise
/// identical apart from `uptime_ms`.
fn metrics_response(state: &ServiceState) -> String {
    state.refresh_gauges();
    let snap = state.obs.snapshot();
    let mut out = String::from("{\"ok\":true");
    let _ = write!(
        out,
        ",\"uptime_ms\":{},\"slow_threshold_us\":{}",
        state.started.elapsed().as_millis(),
        pv_obs::SLOW_THRESHOLD_US,
    );
    out.push_str(",\"counters\":{");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(&mut out, name);
        let _ = write!(out, ":{v}");
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(&mut out, name);
        let _ = write!(out, ":{v}");
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(&mut out, name);
        let _ = write!(
            out,
            ":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            h.count,
            h.sum,
            h.max,
            h.p50(),
            h.p95(),
            h.p99(),
        );
    }
    out.push_str("},\"slow\":[");
    for (i, t) in snap.traces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"op\":");
        json::write_str(&mut out, &t.op);
        let _ = write!(out, ",\"total_us\":{},\"stages\":[", t.total_us);
        for (j, (stage, us)) in t.stages.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('[');
            json::write_str(&mut out, stage);
            let _ = write!(out, ",{us}]");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

fn load_response(result: Result<(String, Arc<DtdEntry>), String>) -> Reply {
    match result {
        Err(e) => Reply::error(&e),
        Ok((handle, entry)) => {
            let a = entry.engine.analysis();
            let mut out = String::from("{\"ok\":true,\"handle\":");
            json::write_str(&mut out, &handle);
            out.push_str(",\"label\":");
            json::write_str(&mut out, &entry.label);
            out.push_str(",\"class\":");
            json::write_str(&mut out, &a.rec.class.to_string());
            let _ = write!(
                out,
                ",\"elements\":{},\"depth\":{}",
                a.stats.m,
                entry.engine.depth()
            );
            out.push_str(",\"analysis\":");
            write_analysis(&mut out, &entry.report);
            out.push('}');
            Reply::ok(out)
        }
    }
}

/// The static-analysis summary attached to a handle (`LOAD`/`BUILTIN`
/// responses and per-DTD `STATS` entries): certification verdict, the
/// budget in effect (the full default for every DTD; a certificate proves
/// it is never used up), and determinism.
fn write_analysis(out: &mut String, report: &StaticReport) {
    let _ = write!(
        out,
        "{{\"certified\":{},\"budget\":{},\"full_budget\":{},\"deterministic\":{},\
         \"ambiguous_models\":{}}}",
        report.budget.is_certified(),
        report.budget.full_budget,
        report.budget.full_budget,
        report.deterministic(),
        report.ambiguous().count(),
    );
}

fn check_response(outcome: &PvOutcome, entry: &DtdEntry, memo: bool) -> String {
    let mut out = String::from("{\"ok\":true,\"outcome\":");
    json::write_outcome(&mut out, outcome);
    out.push_str(",\"memo\":");
    match entry.engine.memo_stats().filter(|_| memo) {
        Some(m) => json::write_memo(&mut out, &m),
        None => out.push_str("null"),
    }
    out.push_str(",\"label\":");
    json::write_str(&mut out, &entry.label);
    out.push_str(",\"class\":");
    json::write_str(&mut out, &entry.engine.analysis().rec.class.to_string());
    let _ = write!(out, ",\"depth\":{}}}", entry.engine.depth());
    out
}

/// An `ok:false` response, split into its machine-readable kind (when
/// the server sent one — `busy`, `draining`) and its message.
pub(crate) struct RemoteFailure {
    /// The `kind` field, if present.
    pub(crate) kind: Option<String>,
    /// The `error` message.
    pub(crate) msg: String,
}

/// Parses a server response line into JSON, surfacing `ok:false` errors
/// with their kind. Unparseable responses are protocol errors, reported
/// as a bare message (`Err` with `kind: None` and a `protocol:` prefix
/// would conflate the two — the client maps them separately).
pub(crate) fn parse_response(line: &str) -> Result<Json, RemoteFailure> {
    let fail = |msg: String| RemoteFailure { kind: None, msg };
    let v = json::parse(line).map_err(|e| fail(format!("bad response JSON: {e}")))?;
    match v.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(v),
        Some(false) => Err(RemoteFailure {
            kind: v.get("kind").and_then(Json::as_str).map(str::to_owned),
            msg: v
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified server error")
                .to_owned(),
        }),
        None => Err(fail("response missing \"ok\"".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parsing() {
        assert_eq!(
            Endpoint::parse("/tmp/pv.sock"),
            Endpoint::Unix(PathBuf::from("/tmp/pv.sock"))
        );
        assert_eq!(Endpoint::parse("pv.sock"), Endpoint::Unix(PathBuf::from("pv.sock")));
        assert_eq!(Endpoint::parse("127.0.0.1:7070"), Endpoint::Tcp("127.0.0.1:7070".into()));
    }

    #[test]
    fn error_responses_are_single_line_json() {
        let r = err_response("bad\nthing");
        assert!(!r.contains('\n'));
        assert!(parse_response(&r).is_err());
    }

    #[test]
    fn kinded_errors_carry_their_kind() {
        let r = err_response_kind("busy", "server is at its connection limit");
        assert!(!r.contains('\n'));
        let fail = parse_response(&r).expect_err("ok:false");
        assert_eq!(fail.kind.as_deref(), Some("busy"));
        assert!(fail.msg.contains("connection limit"));
        // Plain app errors stay kind-less.
        let fail = parse_response(&err_response("nope")).expect_err("ok:false");
        assert!(fail.kind.is_none());
    }
}
