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
//!   ECRecognizer / Earley / standard validation (claim X1, Theorem 4),
//!   and what recording engine telemetry costs a check;
//! * `experiments --table scaling-k` — vs. DTD size `k` (claim X2);
//! * `experiments --table depth` — vs. depth bound `D` on PV-strong DTDs
//!   (claim X3, Examples 5–6);
//! * `experiments --table incremental` — per-operation costs of the
//!   editing guards (claim X4, Theorem 2 + Proposition 3);
//! * `experiments --table classes` — DTD classes at fixed size (claim X5);
//! * `experiments --table parallel` — batched checking on one persistent
//!   pv-par pool, one document per task: an irregular batch and a mixed
//!   batch led by one large document, with speedup vs. jobs 1 and an
//!   outcome-identity column (claim X7 — this reproduction's own
//!   addition; the paper is purely sequential);
//! * `experiments --table memo` — memoized checking (claim X8, also an
//!   addition): ns/node with the transition cache off / warm / cold over
//!   the `repetitive` corpus family's distinct-shape sweep, with the
//!   per-symbol hit rate and resident transitions, every outcome asserted
//!   bit-identical to the memo-off check;
//! * `experiments --table completeness` — recognizer completeness against
//!   the exact Earley oracle (claim X9): exhaustive bounded sweeps plus
//!   adversarial recursive families, with budget-exactness telemetry,
//!   and the time a pass over each family or sweep takes;
//! * `experiments --table analyze` — the static DTD analyzer (claim X11).
//!
//! Table X6 (realistic corpora) is retired: the repository benchmark's
//! `tree_corpus` workload checks the same corpus builders' documents, in
//! progress, end to end, and `edit_session` replays editorial traces.
//!
//! Table X10 (the streaming front end) is retired: the repository
//! benchmark's `stream_corpus` workload measures streaming throughput
//! against `tree_corpus`, and its traced run reports residency
//! (`stream.peak_buffered_bytes`, `stream.peak_depth`) and how early a
//! poisoned stream decides (`stream.decided_bytes_ratio`).
//!
//! Every timed cell is a row of the one harness in [`timing`]: each
//! table's rows are calibrated, then sampled together in ten interleaved
//! rounds, and each cell prints its median with its min–max over rounds.
//! `experiments --json DIR` also writes each table's rows to its
//! `BENCH_*.json` file in `DIR`; the repository's checked-in baselines
//! are captured that way (see BENCHMARKS.md at the repo root).

pub mod experiments;
pub mod timing;
pub mod workloads;

pub use experiments::{parse_args, run_tables, Command, Table, TABLES, USAGE};
