//! # `dps-core` — the production-system engines
//!
//! The paper's primary contribution, implemented end to end:
//!
//! * [`SingleThreadEngine`] — the reference match–select–execute
//!   interpreter of §2, whose set of possible execution sequences
//!   *defines* correctness (§3, Definitions 3.1–3.2).
//! * [`StaticParallelEngine`] — Theorem 1's static approach: each cycle,
//!   a maximal set of mutually non-interfering instantiations fires in
//!   parallel.
//! * [`ParallelEngine`] — the dynamic approach of §4.2–4.3: worker
//!   threads execute RHSs as transactions under a pluggable lock
//!   protocol (conventional 2PL per Theorem 2, or the `Rc`/`Ra`/`Wa`
//!   scheme with abort-on-commit or revalidation).
//! * [`abstract_model`] — the add/delete-set model of §3.3, used for
//!   execution-graph enumeration and the §5 analysis.
//! * [`semantics`] — the execution graph (Figure 3.1/3.2), `ES_single`
//!   enumeration, and trace validation: every engine records its commit
//!   sequence as a [`Trace`], and [`semantics::validate_trace`] checks the
//!   semantic-consistency condition `ES_M ⊆ ES_single` by replaying the
//!   trace as a single-thread execution.
//!
//! ```
//! use dps_core::{SingleThreadEngine, EngineConfig};
//! use dps_match::Strategy;
//! use dps_rules::RuleSet;
//! use dps_wm::{WorkingMemory, WmeData};
//!
//! let rules = RuleSet::parse(
//!     "(p count-down (counter ^n { > 0 <n> }) --> (modify 1 ^n (- <n> 1)))",
//! ).unwrap();
//! let mut wm = WorkingMemory::new();
//! wm.insert(WmeData::new("counter").with("n", 3i64));
//!
//! let mut engine = SingleThreadEngine::new(&rules, wm, EngineConfig::default());
//! let report = engine.run();
//! assert_eq!(report.commits, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abstract_model;
mod commit;
mod firing;
mod log;
mod parallel;
mod pipeline;
pub mod semantics;
pub mod session;
mod single;
mod static_parallel;
mod strategy;
mod world;

pub use firing::{Firing, Footprint, Trace};
pub use log::{CommitLog, NO_TXN};
pub use parallel::{
    AbortStats, DurabilityConfig, ParallelConfig, ParallelEngine, ParallelReport, WorkModel,
};
pub use session::{ExternalTxn, EXTERNAL_RULE, EXTERNAL_RULE_NAME};
pub use single::{EngineConfig, RunReport, SingleThreadEngine, StepOutcome};
pub use static_parallel::{SelectionMode, StaticConfig, StaticParallelEngine, StaticReport};
