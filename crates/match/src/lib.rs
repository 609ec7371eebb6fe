//! # `dps-match` — the match substrate
//!
//! The match phase is the classic bottleneck of production systems
//! (Forgy 1982), and the ICDE 1990 paper's production-cycle model assumes
//! an incremental matcher that keeps the **conflict set** — the set of
//! satisfied rule instantiations — up to date as working memory changes.
//! This crate implements both published algorithms the paper surveys:
//!
//! * [`Rete`] — Forgy's Rete network: a shared **alpha network** of
//!   constant tests feeding per-pattern alpha memories, and a **beta
//!   network** of join nodes storing partial matches (tokens), with full
//!   incremental add *and* remove, negated condition elements, and
//!   node sharing for common subexpressions.
//! * [`Treat`] — Miranker's TREAT: alpha memories only; instantiations are
//!   (re)computed by joining alpha memories when a change arrives. Less
//!   state, more recomputation — the classic trade-off the benchmarks
//!   in `dps-bench` quantify.
//!
//! Both implement the [`Matcher`] trait consumed by the engines in
//! `dps-core`, and both maintain a [`ConflictSet`] of [`InstKey`]s: an
//! entry is a key plus its rule's salience, and the [`Instantiation`] a
//! caller fires — matched tuples and bindings — is materialised from the
//! matcher's state only when that caller takes it
//! ([`Matcher::instantiate`]).
//! The **select** phase is covered by [`Strategy`], which implements the
//! OPS5 conflict-resolution heuristics the paper names (LEX, MEA) plus
//! salience, FIFO and a seeded-random strategy. As the paper stresses
//! (§3.2), these heuristics "do not rule out any execution sequence
//! entirely" — correctness never depends on the strategy chosen.
//!
//! ```
//! use dps_match::{Matcher, Rete};
//! use dps_rules::RuleSet;
//! use dps_wm::{WorkingMemory, WmeData};
//!
//! let rules = RuleSet::parse("(p done (task ^state finished) --> (remove 1))").unwrap();
//! let mut wm = WorkingMemory::new();
//! wm.insert(WmeData::new("task").with("state", "finished"));
//!
//! let rete = Rete::new(&rules, &wm);
//! assert_eq!(rete.conflict_set().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alpha;
mod conflict;
mod instantiation;
mod resolve;
mod rete;
mod shard;
mod treat;

pub use alpha::{AlphaMemId, AlphaNetwork};
pub use conflict::ConflictSet;
pub use instantiation::{InstKey, Instantiation};
pub use resolve::Strategy;
pub use rete::Rete;
pub use shard::{ShardPlan, ShardedRete, DEFAULT_MATCH_SHARDS};
pub use treat::Treat;

use dps_wm::{Change, Timestamp, WmeId};

/// An incremental matcher: consumes working-memory change logs and keeps
/// the conflict set current.
pub trait Matcher {
    /// Feeds a batch of changes (one committed production's effects).
    fn apply(&mut self, changes: &[Change]);

    /// The current conflict set.
    fn conflict_set(&self) -> &ConflictSet;

    /// Materialises the instantiation `key` names — its matched tuples,
    /// shared with the matcher, and its bindings — or `None` when `key`
    /// is not in the conflict set. Each call builds a fresh one; the
    /// conflict set itself holds keys only.
    fn instantiate(&self, key: &InstKey) -> Option<Instantiation>;

    /// Whether tuple `id`, asserted at timestamp `ts`, is still in this
    /// matcher's memories. Ids and timestamps are never reused, so once
    /// this is `false` it stays `false`, and no instantiation naming the
    /// pair can match again.
    fn holds(&self, id: WmeId, ts: Timestamp) -> bool;
}
