//! # `dps-obs` — observability for the production-system stack
//!
//! The paper's §5 argues that the dynamic approach's speed-up is
//! governed by three factors: the **degree of conflict** (how often
//! concurrent productions collide), the **wasted-work fraction `f`**
//! (execution time thrown away by aborts) and the per-production
//! execution-time distribution. Optimising any of them requires
//! *seeing* them first. This crate is the dependency-free seeing
//! apparatus, threaded through `dps-lock`, `dps-core` and `dps-bench`:
//!
//! * **[`Recorder`]** — the shared sink. Per-worker-slot [event
//!   rings](event) record the transaction lifecycle (`Begin` / `Grant`
//!   / `Block` / `Doom` / `Deadlock` / `Commit` / `Abort`-with-cause)
//!   with monotonic nanosecond timestamps from a common epoch;
//!   [`Recorder::history`] merges them into one global history on
//!   demand, and [`validate_history`] checks its well-formedness
//!   (recorded per-transaction histories are the raw material for any
//!   consistency or performance analysis — Biswas & Enea).
//! * **[Histograms](hist)** — fixed log₂-bucket latency histograms
//!   (p50/p95/p99/max) for the lock-wait, LHS-eval, RHS-act and commit
//!   phases of Figures 4.1/4.2.
//! * **[Reports](ObsReport)** — [`Recorder::report`] counts the rings
//!   in one pass: events per kind, aborts per cause, and aborts per
//!   rule id (`Abort` events carry the attempt's `RuleId`). The rings
//!   are the only record of events; nothing else is counted during the
//!   run, and which rule fired when is the engine's commit log's.
//! * **[JSON](json)** — a hand-rolled writer *and* parser, so benches
//!   emit machine-readable reports and CI can shape-check them without
//!   `serde`.
//! * **[Analysis](analysis)** — the explanation layer over the raw
//!   stream: blocking/wait-for graph reconstruction, per-resource
//!   contention attribution, critical-path extraction (effective
//!   parallelism, wasted-work `f`) and the §3-Theorem-2 commit-sequence
//!   checker ([`analyze`]), which reads the commit order from the
//!   engine's commit log: the txn id of each commit, in slot order.
//! * **[`CachePadded`]** — a value on cache lines of its own, for the
//!   shared state `dps-lock` and `dps-core` write on every firing, so
//!   one worker's writes do not evict what another reads.
//!
//! Everything is toggleable and cheap: instrumentation sites hold an
//! `Option<Arc<Recorder>>`, so "off" costs one branch on a `None`.
//!
//! ```
//! use dps_obs::{analyze, AbortCause, EventKind, Phase, Recorder, Verdict, validate_history};
//! use std::time::Duration;
//!
//! let rec = Recorder::default();
//! rec.record(0, EventKind::Begin);
//! rec.phase(Phase::LockWait, Duration::from_micros(12));
//! rec.record(0, EventKind::Commit);
//! rec.record(1, EventKind::Begin);
//! rec.record(1, EventKind::Abort { cause: AbortCause::Doomed, rule: 4 });
//!
//! let history = rec.history();
//! validate_history(&history).unwrap();
//! // The engine's commit log: txn 0 took slot 0, txn 1 none.
//! assert_eq!(analyze(&history, &[0]).verdict(), Verdict::Consistent);
//! assert_eq!(analyze(&history, &[1]).verdict(), Verdict::Inconsistent);
//! let report = rec.report();
//! assert_eq!((report.commits, report.aborts), (1, 1));
//! assert_eq!((report.rules[0].rule, report.rules[0].aborted), (4, 1));
//! println!("{report}");                       // human
//! let doc = report.to_json().to_string_pretty(); // machine
//! assert!(doc.contains("\"lock_wait\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod event;
pub mod hist;
pub mod json;
mod pad;
mod recorder;
mod report;
pub mod timeline;

pub use analysis::{analyze, RunAnalysis, Verdict};
pub use event::{AbortCause, Event, EventKind};
pub use hist::{HistSnapshot, Histogram, Phase};
pub use pad::{field_align, CachePadded};
pub use recorder::{validate_history, Recorder, DEFAULT_RING_CAPACITY, DEFAULT_SLOTS};
pub use report::{FanoutStats, ObsReport, RuleRow};
pub use timeline::{Series, SeriesKind, Telemetry, TelemetryConfig, TimelineDoc, TIMELINE_SCHEMA};
