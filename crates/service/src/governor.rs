//! Connection governance: the admission, deadline, and shedding policy
//! that keeps a hostile or merely slow client from parking server
//! resources forever.
//!
//! The [`Governor`] is deliberately dumb — two occupancy counts behind
//! two RAII permits, and nothing else: it keeps no tally of what it
//! refuses. All *policy* lives in [`GovernorConfig`]; all *enforcement*
//! lives in the server's accept and connection loops, which consult the
//! governor at three choke points:
//!
//! 1. **Accept**: [`Governor::try_conn`] — over `max_connections` the
//!    acceptor writes one clean `BUSY` error line and closes, so a
//!    connection flood degrades into fast rejections, never a hang.
//! 2. **Dispatch**: [`Governor::try_inflight`] — over `max_inflight`
//!    a pool-bound request (`CHECK`/`CHECK_STREAM`/`BATCH`) is shed
//!    with a `busy` app error while the connection stays usable.
//! 3. **Deadlines**: the connection loop times the verb line under
//!    `idle_timeout` and everything after it under `read_timeout`;
//!    responses go out under `write_timeout`. A tripped deadline closes
//!    the connection with its disposition logged.
//!
//! Every request (and every turned-away connection) ends in the server's
//! one `record` step: one access-log line through [`LogSink`] and one
//! bump of the registry's counter for its disposition. Those counters
//! are the only books — `STATS`' `"governance"` block and `METRICS` both
//! read them, and `RESET` zeroes them — and the fault tests assert on
//! the logged dispositions rather than on timing.

use crate::proto::Limits;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Where access-log lines go.
#[derive(Debug, Clone)]
pub enum LogSink {
    /// Drop every line (the default — tests and benches stay quiet).
    Null,
    /// One line per request on stderr (`pvx serve --access-log`).
    Stderr,
    /// Append to a shared vector (tests assert on dispositions).
    Memory(Arc<Mutex<Vec<String>>>),
}

impl LogSink {
    /// A memory sink plus the buffer it appends to.
    pub fn memory() -> (LogSink, Arc<Mutex<Vec<String>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        (LogSink::Memory(Arc::clone(&buf)), buf)
    }

    fn emit(&self, line: &str) {
        match self {
            LogSink::Null => {}
            LogSink::Stderr => eprintln!("{line}"),
            LogSink::Memory(buf) => buf.lock().unwrap().push(line.to_owned()),
        }
    }
}

/// Governance policy for one server. The defaults are generous enough
/// that a well-behaved local client never notices them; a deployment
/// fronting untrusted traffic dials them down per `pvx serve` flags.
#[derive(Debug, Clone)]
pub struct GovernorConfig {
    /// Concurrent-connection cap; `0` = unlimited. Connections past the
    /// cap get one `BUSY` error line and a close.
    pub max_connections: usize,
    /// Concurrent pool-bound requests (`CHECK`/`CHECK_STREAM`/`BATCH`);
    /// `0` = unlimited. Requests past the cap are shed with a `busy`
    /// app error; the connection survives.
    pub max_inflight: usize,
    /// How long a connection may sit between requests before it is
    /// reaped. `None` = never.
    pub idle_timeout: Option<Duration>,
    /// How long one read inside a request (payload bytes, the next
    /// stream chunk) may stall. `None` = forever.
    pub read_timeout: Option<Duration>,
    /// How long one response write may stall. `None` = forever.
    pub write_timeout: Option<Duration>,
    /// On `SHUTDOWN`, how long in-flight requests get to finish before
    /// their connections are force-closed.
    pub drain_deadline: Duration,
    /// Request-size caps (per payload block, per request aggregate).
    pub limits: Limits,
    /// Access-log destination.
    pub log: LogSink,
    /// Refuse `LOAD`/`BUILTIN` of DTDs the static analyzer cannot
    /// budget-certify (PV-strong recursive, or bound past the runtime
    /// budget). Off by default — uncertified DTDs are fully supported,
    /// they just run with the full budget; strict mode is for
    /// deployments that want the `specs_denied == 0` guarantee on every
    /// loaded handle (`pvx serve --strict-load`).
    pub strict_load: bool,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            max_connections: 1024,
            max_inflight: 0,
            idle_timeout: Some(Duration::from_secs(300)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            drain_deadline: Duration::from_secs(5),
            limits: Limits::default(),
            log: LogSink::Null,
            strict_load: false,
        }
    }
}

/// Shared admission state: the live connection and in-flight request
/// counts the permits hold, the policy, and the log sink.
pub(crate) struct Governor {
    pub(crate) config: GovernorConfig,
    active: Arc<AtomicUsize>,
    inflight: Arc<AtomicUsize>,
}

impl Governor {
    pub(crate) fn new(config: GovernorConfig) -> Governor {
        Governor {
            config,
            active: Arc::new(AtomicUsize::new(0)),
            inflight: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Admit one connection, or refuse if at `max_connections`.
    pub(crate) fn try_conn(&self) -> Option<ConnPermit> {
        admit(&self.active, self.config.max_connections).map(ConnPermit)
    }

    /// Admit one pool-bound request, or refuse if at `max_inflight`.
    pub(crate) fn try_inflight(&self) -> Option<InflightPermit> {
        admit(&self.inflight, self.config.max_inflight).map(InflightPermit)
    }

    /// Live connections.
    pub(crate) fn active(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Pool-bound requests in flight.
    pub(crate) fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }

    /// One access-log line for a request or a connection-level event (a
    /// refusal, a reap). `disposition` is the interesting column (see
    /// the server's `Disposition`). `dur` is real on **every** line, not
    /// just the served ones: the idle wait before a reaped connection,
    /// the time spent delivering a refusal — refusal latencies are
    /// exactly what an overload investigation needs.
    pub(crate) fn log_request(&self, conn: u64, access: &Access<'_>, disposition: &str) {
        if matches!(self.config.log, LogSink::Null) {
            return;
        }
        self.config.log.emit(&format!(
            "conn={conn} op={} handle={} bytes={} dur_us={} verdict={} disposition={disposition}",
            access.op,
            access.handle,
            access.bytes,
            access.dur.as_micros(),
            access.verdict,
        ));
    }
}

/// The per-request columns of one access-log line.
pub(crate) struct Access<'a> {
    /// Protocol verb (`CHECK`, `LOAD`, …), `-` for a connection-level
    /// event.
    pub op: &'a str,
    /// DTD handle the request named, `-` if none.
    pub handle: &'a str,
    /// Payload bytes carried.
    pub bytes: usize,
    /// Wall time from verb line to response (for an event, how long it
    /// took).
    pub dur: Duration,
    /// `pv`, `not-pv`, `error`, or `-`.
    pub verdict: &'a str,
}

impl Default for Access<'_> {
    fn default() -> Self {
        Access { op: "-", handle: "-", bytes: 0, dur: Duration::ZERO, verdict: "-" }
    }
}

/// Increment `counter` unless it is already at `cap` (`0` = no cap).
/// Compare-and-swap loop so two racing accepts cannot both slip past
/// the last slot.
fn admit(counter: &Arc<AtomicUsize>, cap: usize) -> Option<Arc<AtomicUsize>> {
    let mut cur = counter.load(Ordering::Acquire);
    loop {
        if cap != 0 && cur >= cap {
            return None;
        }
        match counter.compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return Some(Arc::clone(counter)),
            Err(now) => cur = now,
        }
    }
}

/// RAII slot in the connection count; dropping releases it.
pub(crate) struct ConnPermit(Arc<AtomicUsize>);

impl Drop for ConnPermit {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// RAII slot in the in-flight request count; dropping releases it.
pub(crate) struct InflightPermit(Arc<AtomicUsize>);

impl Drop for InflightPermit {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permits_enforce_caps_and_release_on_drop() {
        let gov = Governor::new(GovernorConfig {
            max_connections: 2,
            max_inflight: 1,
            ..GovernorConfig::default()
        });
        let a = gov.try_conn().unwrap();
        let b = gov.try_conn().unwrap();
        assert!(gov.try_conn().is_none());
        drop(a);
        let _c = gov.try_conn().unwrap();
        drop(b);
        assert_eq!(gov.active(), 1);

        let p = gov.try_inflight().unwrap();
        assert!(gov.try_inflight().is_none());
        assert_eq!(gov.inflight(), 1);
        drop(p);
        assert!(gov.try_inflight().is_some());
    }

    #[test]
    fn zero_caps_mean_unlimited() {
        let gov = Governor::new(GovernorConfig {
            max_connections: 0,
            max_inflight: 0,
            ..GovernorConfig::default()
        });
        let held: Vec<_> = (0..64).map(|_| gov.try_conn().unwrap()).collect();
        assert_eq!(gov.active(), 64);
        drop(held);
        assert_eq!(gov.active(), 0);
    }

    #[test]
    fn memory_sink_captures_dispositions() {
        let (sink, buf) = LogSink::memory();
        let gov = Governor::new(GovernorConfig { log: sink, ..GovernorConfig::default() });
        let access = Access {
            op: "CHECK",
            handle: "d0",
            bytes: 42,
            dur: Duration::from_micros(9),
            verdict: "pv",
        };
        gov.log_request(7, &access, "ok");
        let event = Access { dur: Duration::from_micros(137), ..Access::default() };
        gov.log_request(8, &event, "busy");
        let lines = buf.lock().unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("conn=7"));
        assert!(lines[0].contains("op=CHECK"));
        assert!(lines[0].contains("disposition=ok"));
        assert!(lines[1].contains("conn=8"));
        assert!(lines[1].contains("disposition=busy"));
        // Connection-level refusals carry their real duration too.
        assert!(lines[1].contains("dur_us=137"), "{}", lines[1]);
    }
}
