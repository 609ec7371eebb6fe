//! Fixed-bucket latency histograms.
//!
//! Log₂ buckets over nanoseconds: bucket `i ≥ 1` covers
//! `[2^(i-1), 2^i)` ns, bucket 0 covers exactly 0 ns. Recording is a
//! handful of relaxed atomic increments — cheap enough for the lock
//! manager's grant path — and quantiles are estimated from the bucket
//! boundaries at snapshot time (an estimate's error is bounded by one
//! octave, which is ample for the §5 speed-up analysis the paper calls
//! for: it distinguishes "microseconds of lock wait" from "milliseconds
//! of lock wait", not 5% deltas).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// Number of log₂ buckets (covers 0 ns up to > 2⁶² ns ≈ 146 years).
pub const BUCKETS: usize = 64;

/// The instrumented phases of a production's lifecycle, one histogram
/// each. The taxonomy follows Figures 4.1/4.2: condition evaluation
/// under `Rc`/`S` locks, RHS execution, action locks, atomic commit —
/// plus the lock-manager-level wait time that §5's speed-up factor
/// analysis needs broken out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Time a `lock()` request spent blocked before grant (or failure).
    LockWait,
    /// Claim → condition locks → re-validation (LHS evaluation span).
    LhsEval,
    /// RHS execution + action-lock acquisition (the transaction body).
    RhsAct,
    /// The commit phase end to end: base-mutex wait and hold, the own
    /// shard's match catch-up, the ledger unclaim. [`Phase::BaseWait`]
    /// and [`Phase::BaseHold`] are its serialising parts.
    Commit,
    /// Applying a published WM delta batch to one match shard's Rete
    /// (the sharded pipeline's per-shard `catch_up` work — both the
    /// committer's fan-out and stolen catch-up applies land here).
    MatchApply,
    /// Time a committer (rule firing or session) spent acquiring the
    /// engine's base mutex — spinning or parked behind other commits.
    BaseWait,
    /// Time a commit held the base mutex: lock-manager commit, WM
    /// apply, WAL stage, publish, trace append — the one section every
    /// commit serialises through.
    BaseHold,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 7] = [
        Phase::LockWait,
        Phase::LhsEval,
        Phase::RhsAct,
        Phase::Commit,
        Phase::MatchApply,
        Phase::BaseWait,
        Phase::BaseHold,
    ];

    /// Stable machine-readable name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::LockWait => "lock_wait",
            Phase::LhsEval => "lhs_eval",
            Phase::RhsAct => "rhs_act",
            Phase::Commit => "commit",
            Phase::MatchApply => "match_apply",
            Phase::BaseWait => "base_wait",
            Phase::BaseHold => "base_hold",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Phase::LockWait => 0,
            Phase::LhsEval => 1,
            Phase::RhsAct => 2,
            Phase::Commit => 3,
            Phase::MatchApply => 4,
            Phase::BaseWait => 5,
            Phase::BaseHold => 6,
        }
    }
}

/// A concurrent log₂ histogram of nanosecond durations.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index of a nanosecond value (clamped into the top bucket).
fn bucket_of(ns: u64) -> usize {
    ((u64::BITS - ns.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of a bucket, in nanoseconds.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i).wrapping_sub(1).max(1)
    }
}

impl Histogram {
    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let ns = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.buckets[bucket_of(ns)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(ns, Relaxed);
        self.max.fetch_max(ns, Relaxed);
    }

    /// An immutable snapshot for reporting.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Relaxed)),
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }

    /// Takes everything recorded since the last drain and resets the
    /// histogram to zero — one telemetry tick's distribution. A
    /// concurrent `record` lands in this drain or the next; `count` is
    /// the drained buckets' sum, so the quantiles stay consistent.
    pub fn drain(&self) -> HistSnapshot {
        let buckets: [u64; BUCKETS] = std::array::from_fn(|i| self.buckets[i].swap(0, Relaxed));
        self.count.swap(0, Relaxed);
        HistSnapshot {
            count: buckets.iter().sum(),
            buckets,
            sum: self.sum.swap(0, Relaxed),
            max: self.max.swap(0, Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts (log₂ buckets; see [`BUCKETS`]).
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all recorded nanoseconds.
    pub sum: u64,
    /// Largest recorded value (exact, not bucketed).
    pub max: u64,
}

impl HistSnapshot {
    /// Estimated `q`-quantile in nanoseconds (`q` in `[0, 1]`): the
    /// upper bound of the first bucket at which the cumulative count
    /// reaches `ceil(q * count)`, clamped to the observed maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate (ns).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate (ns).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate (ns).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Arithmetic mean (ns).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// Render nanoseconds human-readably.
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

impl fmt::Display for HistSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={:<7} p50={:<9} p95={:<9} p99={:<9} max={:<9} mean={}",
            self.count,
            fmt_ns(self.p50()),
            fmt_ns(self.p95()),
            fmt_ns(self.p99()),
            fmt_ns(self.max),
            fmt_ns(self.mean()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1, "clamped to top bucket");
    }

    #[test]
    fn extreme_value_stays_in_range() {
        // u64::MAX has 64 significant bits; ensure record() cannot panic.
        let h = Histogram::default();
        h.record(Duration::from_secs(u64::MAX / 2_000_000_000));
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn quantiles_bound_the_data() {
        let h = Histogram::default();
        for ns in [100u64, 200, 400, 800, 100_000] {
            h.record(Duration::from_nanos(ns));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.max, 100_000);
        // p50 falls in the bucket of 200–400: upper bound ≤ 511.
        assert!(s.p50() >= 200 && s.p50() <= 511, "p50={}", s.p50());
        // p99 lands in the top bucket, clamped to max.
        assert_eq!(s.p99(), 100_000);
        assert_eq!(s.mean(), (100 + 200 + 400 + 800 + 100_000) / 5);
    }

    #[test]
    fn drain_takes_one_tick_and_resets() {
        let h = Histogram::default();
        for ns in [100u64, 200, 400, 100_000] {
            h.record(Duration::from_nanos(ns));
        }
        let t = h.drain();
        assert_eq!(t.count, 4);
        assert!(t.p50() >= 200 && t.p50() <= 511, "p50={}", t.p50());
        assert_eq!(t.p99(), 100_000, "top bucket clamps to the exact max");
        assert_eq!(t.max, 100_000);
        // Drained: the next tick starts from zero.
        assert_eq!(h.drain(), Histogram::default().snapshot());
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!((s.count, s.p50(), s.p99(), s.max, s.mean()), (0, 0, 0, 0, 0));
    }

    #[test]
    fn zero_duration_goes_to_bucket_zero() {
        let h = Histogram::default();
        h.record(Duration::ZERO);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.p50(), 0);
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "lock_wait",
                "lhs_eval",
                "rhs_act",
                "commit",
                "match_apply",
                "base_wait",
                "base_hold"
            ]
        );
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
