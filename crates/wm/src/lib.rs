//! # `dps-wm` — the working-memory substrate
//!
//! The "database" underneath a database production system, built from
//! scratch for the reproduction of *Parallelism in Database Production
//! Systems* (Srivastava, Hwang & Tan, ICDE 1990).
//!
//! A production system's database is its **working memory** (WM), a
//! collection of **working-memory elements** (WMEs). Following OPS5 and the
//! paper's database setting, a WME here is a typed tuple: it belongs to a
//! *class* (the relation name) and carries a set of *attribute → value*
//! pairs. The paper treats WM as a relational database ("the execution
//! phase will be a full-fledged database query"), so this crate organises
//! WMEs into class-partitioned [`Relation`]s keyed by id, one per
//! declared class, iterated in declaration order. (Section 4.3's
//! relation-level locks, "equivalent to locking the appropriate tuple in
//! the `SYSTEM-CATALOG` relation", are lock resources the engine names
//! itself; working memory keeps no catalogue for them.)
//!
//! Two properties of the paper's execution model shape the API:
//!
//! 1. **Atomic commit-time updates.** "The WM content is atomically
//!    updated, only when a production reaches its commit point" (section
//!    4.2). RHS effects are therefore buffered in a [`DeltaSet`] and applied
//!    in one call ([`WorkingMemory::apply`]), which returns the precise list
//!    of [`Change`]s for driving an incremental matcher.
//! 2. **Recency timestamps.** Conflict-resolution strategies such as LEX
//!    and MEA order instantiations by WME recency, so every insertion gets
//!    a monotonically increasing [`Timestamp`]; an OPS5-style `modify`
//!    refreshes the timestamp (it is a remove + re-insert).
//!
//! ```
//! use dps_wm::{WorkingMemory, WmeData, Value};
//!
//! let mut wm = WorkingMemory::new();
//! let id = wm.insert(WmeData::new("task").with("status", "pending").with("cost", 3i64));
//! assert_eq!(wm.len(), 1);
//! let wme = wm.get(id).unwrap();
//! assert_eq!(wme.get("status"), Some(&Value::from("pending")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atom;
mod attrs;
pub mod codec;
mod delta;
mod error;
mod persist;
mod relation;
pub mod rng;
mod store;
mod value;
mod version;
pub mod wal;
mod wme;

pub use atom::Atom;
pub use attrs::AttrMap;
pub use delta::{Change, Delta, DeltaSet};
pub use error::WmError;
pub use codec::CodecError;
pub use persist::apply_changes_atomic;
pub use wal::{recover, DurableWm, KillMode, Recovered, WalError, WalStats, WalWriter};
pub use relation::Relation;
pub use store::WorkingMemory;
pub use value::Value;
pub use version::{Version, VersionStats, VersionedStore};
pub use wme::{IdHasher, IdMap, IdSet, Timestamp, Wme, WmeData, WmeId};
