//! # `dbps` — Parallelism in Database Production Systems
//!
//! Umbrella crate re-exporting the whole workspace. See the `README.md`
//! for a tour and `DESIGN.md` for the paper-to-module map.
//!
//! The sub-crates:
//!
//! * [`wm`] — working-memory substrate (typed tuples, relations, indexes,
//!   atomic deltas).
//! * [`rules`] — OPS5-flavoured rule language and its text parser.
//! * [`rete`] — match substrate: Rete and TREAT incremental matchers plus
//!   conflict-resolution strategies.
//! * [`lock`] — the lock manager: S/X two-phase locking and the paper's
//!   `R_c`/`R_a`/`W_a` protocol.
//! * [`engine`] — single-thread, static-parallel and dynamic-parallel
//!   engines, and the execution-semantics checker.
//! * [`sim`] — the discrete-event simulator reproducing section 5.
//! * [`obs`] — observability: transaction-lifecycle event history,
//!   phase latency histograms, per-rule tables, JSON reports.
//! * [`server`] — the multi-session front door: wire protocol,
//!   admission control / overload shedding, disconnect-safe sessions.

#![forbid(unsafe_code)]

pub use dps_core as engine;
pub use dps_lock as lock;
pub use dps_obs as obs;
pub use dps_match as rete;
pub use dps_rules as rules;
pub use dps_server as server;
pub use dps_sim as sim;
pub use dps_wm as wm;
