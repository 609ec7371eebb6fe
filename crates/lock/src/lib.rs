//! # `dps-lock` — the lock manager
//!
//! A centralised lock manager implementing both concurrency-control
//! schemes of *Parallelism in Database Production Systems* (ICDE 1990,
//! §4.2–4.3):
//!
//! * **Conventional two-phase locking** with shared/exclusive modes
//!   ([`LockMode::S`], [`LockMode::X`]) — the baseline whose semantic
//!   consistency the paper proves in Theorem 2 (Figure 4.1's protocol).
//! * **The improved three-mode protocol** with condition-read
//!   ([`LockMode::Rc`]), action-read ([`LockMode::Ra`]) and action-write
//!   ([`LockMode::Wa`]) locks, per Table 4.1. Its signature property: a
//!   `Wa` lock **is granted even while other productions hold `Rc`** on
//!   the same object ("allowing Rc–Wa conflict to exist!"), and
//!   consistency is restored at commit time — when a `Wa` holder commits
//!   first, every live overlapped `Rc` holder is either aborted
//!   ([`ConflictPolicy::AbortReaders`], the paper's rule (ii)) or handed
//!   back for condition re-evaluation ([`ConflictPolicy::Revalidate`],
//!   the paper's stated alternative).
//!
//! The manager also provides what the paper's §4.3 closing remarks call
//! for: waits-for-graph **deadlock detection** with youngest-victim
//! selection (the new `Rc` mode "does not introduce new kinds of
//! deadlocks", so the standard machinery applies) and **lock escalation**
//! hooks via relation-granularity resources ([`ResourceId::Relation`]),
//! "equivalent to locking the appropriate tuple in the SYSTEM-CATALOG
//! relation". A transaction that writes a class takes its relation in
//! an *intention* mode ([`LockMode::IWa`], [`LockMode::IX`] under 2PL;
//! [`Protocol::relation_write`]): compatible with itself, so writers of
//! one class meet only at the tuples they share, and otherwise answering
//! the class's readers exactly as a full write would.
//!
//! A blocked request waits until it is granted or doomed — by a
//! committing writer or as a deadlock victim. No wait has a timeout,
//! under a [`FaultPlan`] either.
//!
//! ```
//! use dps_lock::{LockManager, LockMode, ResourceId, ConflictPolicy};
//!
//! let mgr = LockManager::new(ConflictPolicy::AbortReaders);
//! let reader = mgr.begin();
//! let writer = mgr.begin();
//! let q = ResourceId::Tuple(1);
//!
//! mgr.lock(reader, q, LockMode::Rc).unwrap();
//! // The novelty: Wa is granted *despite* the outstanding Rc.
//! mgr.lock(writer, q, LockMode::Wa).unwrap();
//! // Writer commits first → the reader is doomed (Figure 4.3(b)).
//! let outcome = mgr.commit(writer).unwrap();
//! assert_eq!(outcome.doomed_readers, vec![reader]);
//! assert!(mgr.commit(reader).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deadlock;
mod error;
pub mod fault;
mod manager;
mod modes;
mod modeset;
mod sharding;
mod txn;

pub use error::LockError;
pub use fault::{FaultInjector, FaultPlan, FaultStats, WalKillSite};
pub use manager::{
    res_key, res_of_key, CommitOutcome, ConflictPolicy, LockManager, LockManagerBuilder,
    LockStats, TxnId,
};
pub use modes::{compatibility_table, compatible, LockMode, Protocol, ResourceId};
pub use sharding::DEFAULT_SHARDS;
