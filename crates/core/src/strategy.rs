//! The concurrency-control strategy of one transaction.
//!
//! [`Strategy::choose`] is the **one site** that reads
//! `protocol` / `policy` / `elide_locks` / the shard plan's commute
//! verdict; the transaction skeleton ([`crate::parallel`], where the
//! strategy × step table lives) and the session layer only ever ask
//! the chosen strategy what to do at a step.

use dps_lock::{ConflictPolicy, Protocol, ResourceId, TxnId};
use dps_match::ShardPlan;
use dps_obs::AbortCause;
use dps_rules::RuleId;

use crate::parallel::{ParallelConfig, ParallelEngine};

/// What a transaction is about to do with a resource (the three
/// columns of the paper's Table 4.1).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Access {
    /// LHS / condition read (`R_c`).
    Condition,
    /// RHS read (`R_a`).
    Read,
    /// RHS write (`W_a`; `IW_a` on a relation).
    Write,
}

/// How one transaction is isolated. Chosen once per claim (or per
/// session transaction) and fixed for its lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Strategy {
    /// Every access takes its Table 4.1 lock (2PL's `S`/`X` or
    /// `Rc`/`Ra`/`Wa`); the lock manager's commit rule (Figure 4.3)
    /// dooms or hands back overlapped readers.
    Locked(Protocol),
    /// MVCC: condition reads are snapshot reads (no lock), action
    /// accesses still lock, and the committer validates its own read
    /// set at the commit point.
    Snapshot(Protocol),
    /// Coordination avoidance: the rule's component is provably
    /// commutative, so *no* access locks; snapshot reads plus commit
    /// validation as under `Snapshot`. `validate: false` is the
    /// `elide_misclassify` falsifiability probe.
    Elided {
        /// Whether the commit-time read-set validation runs.
        validate: bool,
    },
}

impl Strategy {
    /// The strategy for a firing of `rule`, or for a session
    /// transaction (`None` — sessions have no commute proof, so they
    /// never elide).
    pub(crate) fn choose(config: &ParallelConfig, plan: &ShardPlan, rule: Option<RuleId>) -> Self {
        let elided = config.elide_locks
            && rule.is_some_and(|r| config.elide_misclassify || plan.elidable(r));
        if elided {
            Strategy::Elided { validate: !config.elide_misclassify }
        } else if config.policy == ConflictPolicy::MvccSnapshot {
            Strategy::Snapshot(config.protocol)
        } else {
            Strategy::Locked(config.protocol)
        }
    }

    /// Whether any transaction of an engine so configured will ever
    /// read the version store (so the pipeline must feed it): the MVCC
    /// policy, or elision with a rule [`Strategy::choose`] can elide.
    pub(crate) fn any_snapshot(config: &ParallelConfig, plan: &ShardPlan) -> bool {
        config.policy == ConflictPolicy::MvccSnapshot
            || (config.elide_locks && (config.elide_misclassify || plan.elidable_count() > 0))
    }

    /// Covers one access: a lock, or — where the strategy skips the
    /// lock — the chaos seam the lock request would have passed
    /// through, so fault-injected A/B runs compare protocols rather
    /// than injection surface areas. A locked access takes its Table 4.1
    /// mode under the strategy's protocol; a write of a relation takes
    /// the protocol's intention write, so writers of one class share it.
    pub(crate) fn acquire(
        self,
        engine: &ParallelEngine,
        txn: TxnId,
        res: ResourceId,
        access: Access,
    ) -> Result<(), AbortCause> {
        let (lm, classify) = (&engine.lm, |e| engine.classify(e));
        let mode = match (self, access) {
            (Strategy::Elided { .. }, _) => return lm.elide(txn, res).map_err(classify),
            (Strategy::Snapshot(_), Access::Condition) => {
                return lm.inject_read(txn, res).map_err(classify)
            }
            (Strategy::Locked(p), Access::Condition) => p.condition_read(),
            (Strategy::Locked(p) | Strategy::Snapshot(p), Access::Read) => p.action_read(),
            (Strategy::Locked(p) | Strategy::Snapshot(p), Access::Write) => match res {
                ResourceId::Tuple(_) => p.action_write(),
                ResourceId::Relation(_) => p.relation_write(),
            },
        };
        lm.lock(txn, res, mode).map_err(classify)
    }

    /// Whether condition reads are snapshot reads (pin a snapshot at
    /// claim validation and record the versions read).
    pub(crate) fn pins_snapshot(self) -> bool {
        !matches!(self, Strategy::Locked(_))
    }

    /// Whether the committer must validate its own read set under the
    /// base mutex (nothing else protected it).
    pub(crate) fn validate_at_commit(self) -> bool {
        matches!(self, Strategy::Snapshot(_) | Strategy::Elided { validate: true })
    }

    /// The abort cause a failed snapshot read or commit validation
    /// surfaces.
    pub(crate) fn stale_cause(self) -> AbortCause {
        match self {
            Strategy::Locked(_) => AbortCause::Stale,
            Strategy::Snapshot(_) => AbortCause::SnapshotStale,
            Strategy::Elided { .. } => AbortCause::ElisionStale,
        }
    }
}
