//! # faultnet — a fault-injecting TCP proxy for service hardening tests
//!
//! [`FaultProxy`] sits between a `pv-service` client and server and
//! degrades the client→server byte stream on purpose: mid-frame cuts,
//! long stalls, byte-trickling, and garbage prefixes. The server→client
//! direction is always a faithful copy — the tests assert on what the
//! *server* does under client misbehaviour, so only the client side lies.
//!
//! The proxy is TCP-only (`127.0.0.1:0`) and deliberately simple:
//! thread-per-connection pumps with short read timeouts so dropping the
//! proxy takes effect promptly. The active [`FaultMode`] is sampled once
//! per connection at accept time, so a `set_mode` call affects the next
//! connection, never a pump mid-copy — that keeps every scenario
//! deterministic.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// What the proxy does to the client→server stream of one connection.
#[derive(Debug, Clone)]
pub enum FaultMode {
    /// Faithful copy (control runs).
    Forward,
    /// Forward exactly `n` client bytes, then sever both directions —
    /// models a mid-frame disconnect.
    CutAfter(usize),
    /// Forward `bytes` client bytes, then stop forwarding (the
    /// connection stays open, silent) — models a stalled sender. The
    /// server's read deadline, not the proxy, decides what happens next.
    StallAfter {
        /// Bytes forwarded before the stall.
        bytes: usize,
    },
    /// Forward in `chunk`-byte pieces with `pause` between them —
    /// models a slow sender that never quite goes idle.
    Trickle {
        /// Bytes per piece.
        chunk: usize,
        /// Gap between pieces.
        pause: Duration,
    },
    /// Inject these bytes into the server first, then forward the real
    /// stream — models a confused or malicious client speaking garbage.
    GarbagePrefix(Vec<u8>),
}

struct Shared {
    mode: Mutex<FaultMode>,
    stop: AtomicBool,
    accepted: AtomicU64,
    /// Clones of both sides of every live connection, so dropping the
    /// proxy can cut them without cooperation from the pump threads.
    conns: Mutex<Vec<TcpStream>>,
}

/// A fault-injecting TCP proxy in front of one upstream address.
pub struct FaultProxy {
    addr: String,
    shared: Arc<Shared>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Starts a proxy on an ephemeral loopback port forwarding to
    /// `upstream` (a `host:port` string), initially in
    /// [`FaultMode::Forward`].
    pub fn spawn(upstream: &str) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            mode: Mutex::new(FaultMode::Forward),
            stop: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
        });
        let upstream = upstream.to_owned();
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&listener, &upstream, &shared))
        };
        Ok(FaultProxy { addr, shared, acceptor: Some(acceptor) })
    }

    /// The proxy's own listen address (`host:port`).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Sets the fault applied to connections accepted from now on.
    pub fn set_mode(&self, mode: FaultMode) {
        *self.shared.mode.lock().unwrap() = mode;
    }

    /// How many connections the proxy has accepted.
    pub fn accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Severs every live proxied connection in both directions.
    fn sever_all(&self) {
        let mut conns = self.shared.conns.lock().unwrap();
        for s in conns.drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.sever_all();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, upstream: &str, shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::Acquire) {
        let client = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
                continue;
            }
            Err(_) => break,
        };
        shared.accepted.fetch_add(1, Ordering::Relaxed);
        let mode = shared.mode.lock().unwrap().clone();
        let server = match TcpStream::connect(upstream) {
            Ok(s) => s,
            Err(_) => continue,
        };
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        {
            let mut conns = shared.conns.lock().unwrap();
            if let (Ok(c), Ok(s)) = (client.try_clone(), server.try_clone()) {
                conns.push(c);
                conns.push(s);
            }
        }
        // client→server carries the fault; server→client is faithful.
        let up = {
            let (from, to) = match (client.try_clone(), server.try_clone()) {
                (Ok(f), Ok(t)) => (f, t),
                _ => continue,
            };
            let shared = Arc::clone(shared);
            thread::spawn(move || pump(from, to, mode, &shared))
        };
        {
            let shared = Arc::clone(shared);
            thread::spawn(move || {
                pump(server, client, FaultMode::Forward, &shared);
                let _ = up.join();
            });
        }
    }
}

/// Copies `from` into `to` under `mode` until EOF, an error, or `stop`.
/// Severs both ends on exit so the peer pump unblocks too.
fn pump(mut from: TcpStream, mut to: TcpStream, mode: FaultMode, shared: &Shared) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let mut forwarded = 0usize;
    if let FaultMode::GarbagePrefix(garbage) = &mode {
        if to.write_all(garbage).is_err() {
            return;
        }
    }
    let mut buf = [0u8; 4096];
    'copy: while !shared.stop.load(Ordering::Acquire) {
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => break,
        };
        let mut out: &[u8] = &buf[..n];
        match &mode {
            FaultMode::Forward | FaultMode::GarbagePrefix(_) => {}
            FaultMode::CutAfter(cap) => {
                let room = cap.saturating_sub(forwarded);
                if room < out.len() {
                    let _ = to.write_all(&out[..room]);
                    break; // sever below
                }
            }
            FaultMode::StallAfter { bytes } => {
                let room = bytes.saturating_sub(forwarded);
                if room < out.len() {
                    let _ = to.write_all(&out[..room]);
                    // Stay connected but silent; keep draining the
                    // client so its writes don't block, until stop.
                    loop {
                        if shared.stop.load(Ordering::Acquire) {
                            break 'copy;
                        }
                        match from.read(&mut buf) {
                            Ok(0) | Err(_) => {}
                            Ok(_) => continue,
                        }
                        thread::sleep(Duration::from_millis(10));
                    }
                }
            }
            FaultMode::Trickle { chunk, pause } => {
                let step = (*chunk).max(1);
                while !out.is_empty() {
                    let k = step.min(out.len());
                    if to.write_all(&out[..k]).is_err() {
                        break 'copy;
                    }
                    out = &out[k..];
                    forwarded += k;
                    if !out.is_empty() {
                        thread::sleep(*pause);
                    }
                }
                continue;
            }
        }
        if to.write_all(out).is_err() {
            break;
        }
        forwarded += out.len();
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// A one-connection echo server for exercising the proxy alone.
    fn echo_upstream() -> (String, thread::JoinHandle<()>) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        let h = thread::spawn(move || {
            // One connection is all the tests need.
            if let Ok((mut s, _)) = l.accept() {
                let mut buf = [0u8; 1024];
                loop {
                    match s.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if s.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        (addr, h)
    }

    #[test]
    fn forward_mode_is_transparent() {
        let (upstream, server) = echo_upstream();
        let proxy = FaultProxy::spawn(&upstream).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(b"hello\n").unwrap();
        let mut line = String::new();
        BufReader::new(c.try_clone().unwrap()).read_line(&mut line).unwrap();
        assert_eq!(line, "hello\n");
        assert_eq!(proxy.accepted(), 1);
        drop(c);
        drop(proxy);
        server.join().unwrap();
    }

    #[test]
    fn cut_after_severs_mid_stream() {
        let (upstream, _server) = echo_upstream();
        let proxy = FaultProxy::spawn(&upstream).unwrap();
        proxy.set_mode(FaultMode::CutAfter(4));
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(b"abcdefgh\n").unwrap();
        let mut buf = Vec::new();
        let got = c.read_to_end(&mut buf).unwrap_or(0);
        // At most the 4 forwarded bytes ever echo back.
        assert!(got <= 4, "got {got} bytes past the cut");
    }
}
