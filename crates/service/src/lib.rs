//! # pv-service — the resident potential-validity server
//!
//! The paper's payoff is *interactive-speed* checking: an editor asks
//! after every edit whether the document can still be completed. A
//! checker process that starts, compiles the DTD, cold caches, spawns
//! threads, checks one document, and exits pays more in setup than in
//! checking. This crate keeps all of that **resident**:
//!
//! * a [`Server`] holding a persistent [`pv_par::Pool`] (parked workers —
//!   a `BATCH` region costs a condvar round-trip, not thread spawns) and
//!   one [`pv_core::engine::CheckEngine`] per loaded DTD (pre-compiled
//!   DAGs and a **warm transition cache** lent to one check at a time
//!   across requests and connections);
//! * a newline-framed, length-prefixed wire [`proto`]col over unix
//!   sockets or loopback TCP (`PING`, `LOAD`/`BUILTIN`, `CHECK`,
//!   `CHECK_STREAM`, `BATCH`, `STATS`, `METRICS`, `RESET`, `SHUTDOWN`);
//! * a blocking [`Client`] that rebuilds full [`pv_core::PvOutcome`]
//!   values from the wire — **bit-identical** to in-process checking,
//!   held by `tests/service_differential.rs`;
//! * the tiny offline [`json`] codec both halves (and `pvx check
//!   --json`) share.
//!
//! `pvx serve --socket /tmp/pv.sock` and `pvx check --remote
//! /tmp/pv.sock …` are the CLI faces of this crate.
//!
//! ## In-process quick start
//!
//! ```
//! use pv_service::{Client, Endpoint, Server};
//!
//! // Bind on an OS-assigned loopback port (tests do exactly this)…
//! let server = Server::bind(&Endpoint::parse("127.0.0.1:0"), 2).unwrap();
//! let mut client = Client::connect_endpoint(server.endpoint()).unwrap();
//!
//! // …load a built-in DTD and check a document over the wire.
//! let dtd = client.load_builtin("figure1").unwrap();
//! let reply = client
//!     .check(&dtd.handle, "<r><a><b>x</b><c>y</c> z<e/></a></r>", 1, true)
//!     .unwrap();
//! assert!(reply.outcome.is_potentially_valid());
//!
//! client.shutdown().unwrap();
//! server.join();
//! ```

#![warn(missing_docs)]

mod client;
mod governor;
pub mod json;
pub mod metrics_http;
pub mod proto;
mod server;

pub use client::{Client, LoadInfo, RemoteCheck, Result, ServiceError};
pub use governor::{GovernorConfig, LogSink};
pub use server::{Endpoint, MetricsSource, Server, ServerHandle};
