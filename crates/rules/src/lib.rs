//! # `dps-rules` — the rule language
//!
//! An OPS5-flavoured production-rule language over the [`dps_wm`] working
//! memory, as assumed by *Parallelism in Database Production Systems*
//! (ICDE 1990, §2): a production is `if <condition> then <action>`, the
//! LHS a conjunction of *condition elements* and the RHS a sequence of
//! `make` / `modify` / `remove` operations.
//!
//! The crate provides:
//!
//! * a typed AST ([`Rule`], [`Condition`], [`Action`], [`Expr`]);
//! * a text [`parser`] for the DSL below, the crate's one front end;
//! * evaluation: matching one condition element against a WME under a set
//!   of [`Bindings`], and instantiating the RHS into a
//!   [`dps_wm::DeltaSet`];
//! * static [`analysis`]: per-rule read/write sets at class and
//!   class+attribute granularity, computed once per rule by
//!   [`RuleSet::add`] and read through [`RuleSet::access`], and the
//!   pairwise *interference* test the paper's static approach (§4.1) and
//!   dynamic lock protocols rely on.
//!
//! ## The DSL
//!
//! ```text
//! (p advance-stage
//!    (job ^stage <s> ^cost { > 0 <c> })
//!    (stage ^name <s> ^next <n>)
//!    -(hold ^job-stage <s>)
//!    -->
//!    (modify 1 ^stage <n> ^cost (- <c> 1))
//!    (make event ^kind advanced ^to <n>))
//! ```
//!
//! `<x>` is a variable (first occurrence binds, later occurrences test),
//! `{ ... }` is a conjunction of tests on one attribute, a leading `-`
//! negates a condition element, and `-->` separates LHS from RHS.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod ast;
mod bindings;
mod error;
mod eval;
pub mod parser;
mod ruleset;

pub use ast::{
    Action, AttrTest, Condition, ConditionElement, Expr, Op, Predicate, Rule, TestAtom, VarName,
};
pub use bindings::Bindings;
pub use error::RuleError;
pub use eval::{eval_expr, instantiate_actions, match_ce, matches_constants};
pub use ruleset::{RuleId, RuleSet};
