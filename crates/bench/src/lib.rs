//! # `dps-bench` — workloads, gates and the paper-reproduction binary
//!
//! Shared synthetic [`workloads`]; the seven gates CI runs, each a
//! `gate(&ReportArgs) -> Report` in its own module ([`analysis`],
//! [`chaos`], [`matchbench`], [`mvcc`], [`recovery`], [`server_load`],
//! [`commute`]), listed once in [`harness::GATES`] — the table the
//! `gate <name>` binary dispatches on; the one certified-leg runner
//! they all run through ([`analysis`]); the one report they all emit
//! and the validator `obs_check` applies to it ([`report`]); the
//! strict command line every binary parses through ([`harness`]); and
//! the `repro` binary (`cargo run -p dps-bench --bin repro --release`),
//! which prints every table and figure of the paper next to the
//! measured values. See
//! `EXPERIMENTS.md` at the workspace root for the index. A gate
//! certifies what its runs determine — counts, identities, §3 replays,
//! SI verdicts, probes — and reports wall-clock time only as an
//! observation. Speed is the `e2e` benchmark's (`BENCHMARK.json`,
//! `crates/e2e`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod chaos;
pub mod commute;
pub mod harness;
pub mod matchbench;
pub mod mvcc;
pub mod recovery;
pub mod report;
pub mod server_load;
pub mod workloads;
