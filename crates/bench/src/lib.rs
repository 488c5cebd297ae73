//! # pv-bench — experiment harness
//!
//! The ICDE 2006 paper is an algorithms paper with no measurement section;
//! its quantitative content is a set of complexity claims (Theorem 4's
//! `O(k·D·n)`, Proposition 3's O(1) content updates, and the argument that
//! Earley-style parsing of the highly ambiguous `G'` is impractical). This
//! crate regenerates **every** paper artifact and claim as tables:
//!
//! * `experiments --table examples` — Figures 1–7 / Examples 1–6 as
//!   executable checks (expected vs. measured);
//! * `experiments --table scaling-n` — wall-time vs. document size for
//!   ECRecognizer / Earley / standard validation (claim X1, Theorem 4);
//! * `experiments --table scaling-k` — vs. DTD size `k` (claim X2);
//! * `experiments --table depth` — vs. depth bound `D` on PV-strong DTDs
//!   (claim X3, Examples 5–6);
//! * `experiments --table incremental` — per-operation costs of the
//!   editing guards (claim X4, Theorem 2 + Proposition 3);
//! * `experiments --table classes` — DTD classes at fixed size (claim X5);
//! * `experiments --table real-dtds` — realistic corpora (claim X6);
//! * `experiments --table parallel` — sharded checking on one persistent
//!   pv-par work-stealing pool: per-node sharding of one large document,
//!   the sequential-fallback threshold, and two-level sharding of a
//!   batch, with speedup vs. the sequential checker and an
//!   outcome-identity column (claim X7 — this reproduction's own
//!   addition; the paper is purely sequential);
//! * `experiments --table memo` — shape-memoized checking (claim X8, also
//!   an addition): ns/node with the verdict cache off / warm / cold over
//!   the `repetitive` corpus family's hit-rate sweep, with hit rate,
//!   resident cache entries, and a bit-identity column per row;
//! * `experiments --table completeness` — recognizer completeness against
//!   the exact Earley oracle (claim X9): exhaustive bounded sweeps plus
//!   adversarial recursive families, with budget-exactness telemetry;
//! * `experiments --table stream` — the streaming front end (claim X10):
//!   MiB/s vs the tree pipeline, O(depth) peak residency, and
//!   first-violation latency, each row with an outcome-identity column.
//!
//! The same workloads back the Criterion benches under `benches/`
//! (including `parallel_scaling` and the end-to-end `service` bench,
//! which measures full wire round trips against a live `pv-service`
//! server). Set `BENCH_JSON=path` while running
//! `cargo bench` to also append machine-readable results to a JSON file —
//! the repository's `BENCH_*.json` baselines are captured that way (see
//! BENCHMARKS.md at the repo root).

pub mod experiments;
pub mod timing;
pub mod workloads;

pub use experiments::{all_tables, run_table};
