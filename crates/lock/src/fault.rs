//! Deterministic, seeded fault injection — the chaos layer.
//!
//! The paper's semantic-consistency condition (`ES_M ⊆ ES_single`,
//! Theorem 2) must hold under *adversarial* schedules, not just
//! happy-path ones. This module manufactures those schedules: a
//! [`FaultPlan`] describes a reproducible storm of grant delays,
//! spurious wakeups, forced aborts, mid-RHS stalls and panics, session
//! disconnects and WAL kills, and a [`FaultInjector`] threads it
//! through the lock manager's, engine's and server's seams. No plan
//! gives a lock wait a deadline: with or without faults, a wait ends
//! only in a grant, a doom or a deadlock doom. The chaos gate (`dps-bench`'s `chaos` bin) then
//! requires every surviving trace to replay consistently through the
//! single-thread oracle.
//!
//! ## Determinism model
//!
//! Every injection decision is a **pure function** of
//! `(plan.seed, site, key, salt)` — hashed through the same
//! SplitMix64 finalizer the lock table uses for sharding. At the lock
//! and engine seams the key is the transaction id; at the server's
//! seams it is the session id, salted with the session's own
//! transaction ordinal. So:
//!
//! * the decision stream carries **no shared mutable state** (no RNG
//!   stream to race on): two threads asking concurrently perturb
//!   nothing;
//! * a single-worker run is **bit-reproducible** from its seed;
//! * which session transactions the server's seams hit is fixed by the
//!   seed and the sessions' scripts alone;
//! * at the lock and engine seams a multi-worker run draws from a
//!   distribution fixed by the seed, but the OS schedule decides
//!   transaction interleaving and id assignment — no user-space layer
//!   can pin that — so which transaction draws which decision, and
//!   how many faults fire, varies from run to run.
//!
//! Probabilities are expressed in **per-mille** (`0..=1000`) so plans
//! stay integer-only, like the rest of the dependency-free workspace.
//!
//! Injected faults are accounted three ways: the injector's own
//! [`FaultStats`] atomics, first-class [`dps_obs::EventKind::Fault`]
//! events (when a recorder is attached), and — for forced aborts — the
//! dedicated [`crate::LockError::Injected`] /
//! [`dps_obs::AbortCause::Injected`] cause, so chaos never pollutes the
//! organic abort taxonomy.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

use dps_obs::{EventKind as ObsEvent, Recorder};

use crate::txn::TxnId;

/// SplitMix64 finalizer (same mixer as the lock-table's `shard_of`).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fault-site tags (salt the hash so the same txn draws independent
/// decisions at different seams).
mod site {
    pub const GRANT_DELAY: u64 = 0x01;
    pub const SPURIOUS: u64 = 0x02;
    pub const FORCED_ABORT: u64 = 0x03;
    pub const RHS_STALL: u64 = 0x04;
    pub const DROP_MID_CLAIM: u64 = 0x06;
    pub const DROP_MID_RHS: u64 = 0x07;
    pub const SLOWLORIS: u64 = 0x08;
    pub const RHS_PANIC: u64 = 0x09;
}

/// A reproducible chaos schedule: per-mille odds and magnitudes for
/// every fault kind, plus the seed that fixes all decisions.
///
/// `Default` is the all-quiet plan (every probability 0) — attaching it
/// injects nothing, which the zero-cost tests rely on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed fixing every injection decision (see the module docs).
    pub seed: u64,
    /// Per-mille odds that a successful grant is held up by
    /// [`FaultPlan::grant_delay_us`] *before* the requester proceeds
    /// (the lock is already held, so the delay amplifies contention).
    pub grant_delay_pm: u32,
    /// Grant-delay magnitude, microseconds.
    pub grant_delay_us: u64,
    /// Per-mille odds, per blocked wait round, that a parked waiter
    /// wakes spuriously and re-runs the grant loop without a signal.
    pub spurious_wakeup_pm: u32,
    /// Per-mille odds that a lock request force-aborts its transaction
    /// with [`crate::LockError::Injected`].
    pub forced_abort_pm: u32,
    /// Per-mille odds, per doomed-poll, that the engine's RHS loop
    /// stalls for [`FaultPlan::rhs_stall_us`] mid-action (widening the
    /// window in which a committing writer can doom the worker).
    pub rhs_stall_pm: u32,
    /// RHS-stall magnitude, microseconds.
    pub rhs_stall_us: u64,
    /// Corrupt the engine's `Fire.seq` commit-sequence records
    /// (`seq ^ 1`) — the falsifiability knob: a corrupted ordering
    /// **must** be rejected by the §3 checker, proving the chaos gate
    /// can actually fail.
    pub corrupt_fire_seq: bool,
    /// Per-mille odds that a server session is torn down right after
    /// its transaction claims (locks held, nothing executed) — the
    /// `drop_mid_claim` disconnect site. The server observes the
    /// decision and severs the connection; the disconnect-safety path
    /// must then release every lock and pin.
    pub drop_mid_claim_pm: u32,
    /// Per-mille odds that a server session is torn down mid-RHS
    /// (locks + snapshot pin held, delta half-built) — the
    /// `drop_mid_rhs` disconnect site.
    pub drop_mid_rhs_pm: u32,
    /// Per-mille odds that a session goes half-open (stops reading and
    /// writing but keeps the connection up) for
    /// [`FaultPlan::slowloris_us`] — the `slowloris` site. The server's
    /// per-session read timeout must reap it.
    pub slowloris_pm: u32,
    /// Slowloris stall magnitude, microseconds.
    pub slowloris_us: u64,
    /// Per-mille odds that the engine's RHS evaluation *panics*
    /// mid-action — the leak-regression knob: every lock and snapshot
    /// pin must still be released by drop-guards as the unwind passes
    /// through the worker.
    pub rhs_panic_pm: u32,
    /// Kill the WAL writer at exactly this commit sequence number
    /// (0 = off). Deterministic rather than probabilistic: a crash
    /// point is a *place*, and the recovery gate sweeps places.
    pub wal_kill_commit: u64,
    /// Where, relative to the doomed commit, the "process" dies.
    pub wal_kill_site: WalKillSite,
    /// Stall the commit that takes exactly this sequence number
    /// (0 = off) for [`FaultPlan::publish_stall_us`] between its
    /// `lm.commit` — locks released, readers free to re-acquire them —
    /// and its `publish`. Deterministic, like the kill point: the gap
    /// is a *place*, and the claim-validation barrier test parks a
    /// committer in it.
    pub publish_stall_commit: u64,
    /// Length of the [`FaultPlan::publish_stall_commit`] stall (µs).
    pub publish_stall_us: u64,
}

/// Kill-point placement for [`FaultPlan::wal_kill_commit`] — which
/// durability seam the simulated process death lands on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WalKillSite {
    /// Die after the commit publishes to the delta log but before its
    /// WAL record is fsynced — the batch is visible to the run but
    /// must NOT survive recovery (it was never durable).
    #[default]
    AfterPublish,
    /// Die mid-write: the tail WAL record reaches disk torn (a strict
    /// prefix of its frame), exercising the torn-tail truncation rule.
    TornTail,
    /// Die right after the commit's fsync — the batch is durable and
    /// recovery must reproduce exactly this prefix.
    AfterSync,
}

impl WalKillSite {
    /// Short static label (report vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            WalKillSite::AfterPublish => "after_publish",
            WalKillSite::TornTail => "torn_tail",
            WalKillSite::AfterSync => "after_sync",
        }
    }

    /// Every kill site, for sweeps.
    pub const ALL: [WalKillSite; 3] = [
        WalKillSite::AfterPublish,
        WalKillSite::TornTail,
        WalKillSite::AfterSync,
    ];
}

impl FaultPlan {
    /// Named plan: no faults at all (baseline for overhead comparison).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan { seed, ..Default::default() }
    }

    /// Named plan: grant delays only — schedule perturbation without
    /// any induced aborts.
    pub fn delays(seed: u64) -> Self {
        FaultPlan {
            seed,
            grant_delay_pm: 150,
            grant_delay_us: 300,
            spurious_wakeup_pm: 100,
            ..Default::default()
        }
    }

    /// Named plan: doom storm — forced aborts and RHS stalls drive the
    /// abort rate up, and widen the window a writer's commit dooms in.
    pub fn doom_storm(seed: u64) -> Self {
        FaultPlan {
            seed,
            forced_abort_pm: 250,
            rhs_stall_pm: 200,
            rhs_stall_us: 400,
            grant_delay_pm: 100,
            grant_delay_us: 200,
            ..Default::default()
        }
    }

    /// Named plan: everything at once.
    pub fn mixed(seed: u64) -> Self {
        FaultPlan {
            seed,
            grant_delay_pm: 100,
            grant_delay_us: 200,
            spurious_wakeup_pm: 100,
            forced_abort_pm: 120,
            rhs_stall_pm: 120,
            rhs_stall_us: 300,
            ..Default::default()
        }
    }

    /// Named plan: session carnage — mid-claim and mid-RHS disconnects
    /// plus half-open stalls, the server's disconnect-safety diet. Not
    /// part of [`FaultPlan::NAMED`] (the engine-level chaos sweep);
    /// `loadgen` and the server tests drive it directly.
    pub fn disconnects(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_mid_claim_pm: 120,
            drop_mid_rhs_pm: 120,
            slowloris_pm: 60,
            slowloris_us: 2_000,
            ..Default::default()
        }
    }

    /// The named CI sweep: `(label, constructor)` for every plan the
    /// chaos gate runs.
    #[allow(clippy::type_complexity)]
    pub const NAMED: [(&'static str, fn(u64) -> FaultPlan); 4] = [
        ("quiet", FaultPlan::quiet),
        ("delays", FaultPlan::delays),
        ("doom_storm", FaultPlan::doom_storm),
        ("mixed", FaultPlan::mixed),
    ];
}

/// Injection counters (all relaxed atomics; snapshot via
/// [`FaultInjector::stats`]).
#[derive(Debug, Default)]
struct FaultCounters {
    grant_delays: AtomicU64,
    spurious_wakeups: AtomicU64,
    forced_aborts: AtomicU64,
    rhs_stalls: AtomicU64,
    wal_kills: AtomicU64,
    drop_mid_claims: AtomicU64,
    drop_mid_rhs: AtomicU64,
    slowloris: AtomicU64,
    rhs_panics: AtomicU64,
    publish_stalls: AtomicU64,
}

/// Point-in-time snapshot of every injection counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Grants held up by an injected delay.
    pub grant_delays: u64,
    /// Parked waits woken without a signal.
    pub spurious_wakeups: u64,
    /// Transactions force-aborted ([`crate::LockError::Injected`]).
    pub forced_aborts: u64,
    /// Mid-RHS stalls injected at the doomed-poll seam.
    pub rhs_stalls: u64,
    /// WAL kill points that fired (at most 1 per run — the process is
    /// dead afterwards).
    pub wal_kills: u64,
    /// Sessions disconnected right after claiming.
    pub drop_mid_claims: u64,
    /// Sessions disconnected mid-RHS.
    pub drop_mid_rhs: u64,
    /// Half-open (slowloris) stalls injected.
    pub slowloris: u64,
    /// RHS evaluations made to panic.
    pub rhs_panics: u64,
    /// Commits stalled between `lm.commit` and `publish`. Counted
    /// *before* the stall, so a test can wait for the committer to be
    /// inside the gap.
    pub publish_stalls: u64,
}

impl FaultStats {
    /// Sum over every fault kind.
    pub fn total(&self) -> u64 {
        self.grant_delays
            + self.spurious_wakeups
            + self.forced_aborts
            + self.rhs_stalls
            + self.wal_kills
            + self.drop_mid_claims
            + self.drop_mid_rhs
            + self.slowloris
            + self.rhs_panics
            + self.publish_stalls
    }
}

/// The injector: a [`FaultPlan`] plus counters. Share behind an `Arc`;
/// every method takes `&self` and is lock-free (counters are relaxed
/// atomics, decisions are pure hashes).
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    counters: FaultCounters,
}

impl FaultInjector {
    /// Wraps a plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan, counters: FaultCounters::default() }
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            grant_delays: self.counters.grant_delays.load(Relaxed),
            spurious_wakeups: self.counters.spurious_wakeups.load(Relaxed),
            forced_aborts: self.counters.forced_aborts.load(Relaxed),
            rhs_stalls: self.counters.rhs_stalls.load(Relaxed),
            wal_kills: self.counters.wal_kills.load(Relaxed),
            drop_mid_claims: self.counters.drop_mid_claims.load(Relaxed),
            drop_mid_rhs: self.counters.drop_mid_rhs.load(Relaxed),
            slowloris: self.counters.slowloris.load(Relaxed),
            rhs_panics: self.counters.rhs_panics.load(Relaxed),
            publish_stalls: self.counters.publish_stalls.load(Relaxed),
        }
    }

    /// The pure decision hash of `(seed, site, key, salt)`: true with
    /// probability `pm`/1000. `key` is a transaction id at the lock and
    /// engine seams and a session id at the server's.
    fn hit(&self, site_tag: u64, key: u64, salt: u64, pm: u32) -> bool {
        if pm == 0 {
            return false;
        }
        let h = mix(self
            .plan
            .seed
            .wrapping_add(mix(site_tag))
            ^ mix(key).rotate_left(17)
            ^ mix(salt).rotate_left(31));
        (h % 1000) < u64::from(pm)
    }

    fn emit(obs: Option<&Recorder>, txn: TxnId, kind: &'static str) {
        if let Some(obs) = obs {
            obs.record(txn.0, ObsEvent::Fault { kind });
        }
    }

    /// Grant seam: maybe stall the requester *after* its grant (lock
    /// already held, so the delay stretches the hold time).
    pub(crate) fn grant_delay(&self, txn: TxnId, res: u64, obs: Option<&Recorder>) {
        if self.hit(site::GRANT_DELAY, txn.0, res, self.plan.grant_delay_pm) {
            self.counters.grant_delays.fetch_add(1, Relaxed);
            Self::emit(obs, txn, "grant_delay");
            std::thread::sleep(Duration::from_micros(self.plan.grant_delay_us));
        }
    }

    /// Park seam: should this wait round wake spuriously (skip the
    /// park and re-run the grant loop)? `round` salts the hash so a
    /// request that loops draws fresh odds each time — hashing only
    /// `(txn, res)` would return the same answer forever and livelock.
    pub(crate) fn spurious_wakeup(
        &self,
        txn: TxnId,
        res: u64,
        round: u64,
        obs: Option<&Recorder>,
    ) -> bool {
        let hit = self.hit(
            site::SPURIOUS,
            txn.0,
            res ^ mix(round),
            self.plan.spurious_wakeup_pm,
        );
        if hit {
            self.counters.spurious_wakeups.fetch_add(1, Relaxed);
            Self::emit(obs, txn, "spurious_wakeup");
        }
        hit
    }

    /// Request seam: force-abort this transaction's lock request?
    /// (The manager performs the actual abort and emits the event.)
    pub(crate) fn forced_abort(&self, txn: TxnId, res: u64) -> bool {
        self.hit(site::FORCED_ABORT, txn.0, res, self.plan.forced_abort_pm)
    }

    /// Counts a forced abort the manager actually carried out (the
    /// decision in [`Self::forced_abort`] may be vetoed by a
    /// concurrent organic doom, which takes priority).
    pub(crate) fn count_forced_abort(&self, txn: TxnId, obs: Option<&Recorder>) {
        self.counters.forced_aborts.fetch_add(1, Relaxed);
        Self::emit(obs, txn, "forced_abort");
    }

    /// Engine seam: maybe stall between RHS steps. `step` salts the
    /// hash per poll. Public because the engine (not the manager)
    /// owns the RHS loop.
    pub fn rhs_stall(&self, txn: TxnId, step: u64, obs: Option<&Recorder>) {
        if self.hit(site::RHS_STALL, txn.0, step, self.plan.rhs_stall_pm) {
            self.counters.rhs_stalls.fetch_add(1, Relaxed);
            Self::emit(obs, txn, "rhs_stall");
            std::thread::sleep(Duration::from_micros(self.plan.rhs_stall_us));
        }
    }

    /// Durability seam: does the WAL kill point fire at this commit
    /// sequence number? Deterministic — exactly the configured commit,
    /// independent of thread interleaving (seq numbers are allocated
    /// under the engine's base mutex). The engine performs the actual
    /// kill; this just decides and tells it where to die. Public
    /// because the engine (not the lock manager) owns the commit path.
    pub fn wal_kill(&self, seq: u64) -> Option<WalKillSite> {
        if self.plan.wal_kill_commit != 0 && seq == self.plan.wal_kill_commit {
            Some(self.plan.wal_kill_site)
        } else {
            None
        }
    }

    /// Commit seam: stall commit `seq` in the gap between its
    /// `lm.commit` and its `publish` (the engine calls this under its
    /// base mutex, with the sequence number just taken). Public because
    /// the engine owns the commit path.
    pub fn publish_stall(&self, txn: TxnId, seq: u64, obs: Option<&Recorder>) {
        if self.plan.publish_stall_commit != 0 && seq == self.plan.publish_stall_commit {
            self.counters.publish_stalls.fetch_add(1, Relaxed);
            Self::emit(obs, txn, "publish_stall");
            std::thread::sleep(Duration::from_micros(self.plan.publish_stall_us));
        }
    }

    /// Counts a WAL kill the engine actually carried out, with its
    /// first-class fault event.
    pub fn count_wal_kill(&self, txn: TxnId, obs: Option<&Recorder>) {
        self.counters.wal_kills.fetch_add(1, Relaxed);
        Self::emit(obs, txn, "wal_kill");
    }

    /// Server seam: tear this session's connection down right after
    /// its transaction claimed (locks held)? Like every server seam it
    /// draws on `(session, ordinal)` — the session id and the number of
    /// the session's own transaction, counted at each `Begin` — so the
    /// decision follows the session's script, not the engine's
    /// transaction ids, which session transactions share with rule
    /// firings; `txn` only labels the fault event. Public because the
    /// server (not the manager) owns the session loop.
    pub fn drop_mid_claim(
        &self,
        session: u64,
        ordinal: u64,
        txn: TxnId,
        obs: Option<&Recorder>,
    ) -> bool {
        let hit = self.hit(site::DROP_MID_CLAIM, session, ordinal, self.plan.drop_mid_claim_pm);
        if hit {
            self.counters.drop_mid_claims.fetch_add(1, Relaxed);
            Self::emit(obs, txn, "drop_mid_claim");
        }
        hit
    }

    /// Server seam: tear this session's connection down mid-RHS (locks
    /// and snapshot pin held, delta half-built)? Drawn as
    /// [`Self::drop_mid_claim`] is.
    pub fn drop_mid_rhs(
        &self,
        session: u64,
        ordinal: u64,
        txn: TxnId,
        obs: Option<&Recorder>,
    ) -> bool {
        let hit = self.hit(site::DROP_MID_RHS, session, ordinal, self.plan.drop_mid_rhs_pm);
        if hit {
            self.counters.drop_mid_rhs.fetch_add(1, Relaxed);
            Self::emit(obs, txn, "drop_mid_rhs");
        }
        hit
    }

    /// Server seam: should this session go half-open (stop talking but
    /// keep the connection up)? Returns the stall to inject; the
    /// server's read timeout must reap the session. Drawn as
    /// [`Self::drop_mid_claim`] is.
    pub fn slowloris(
        &self,
        session: u64,
        ordinal: u64,
        txn: TxnId,
        obs: Option<&Recorder>,
    ) -> Option<Duration> {
        if self.hit(site::SLOWLORIS, session, ordinal, self.plan.slowloris_pm) {
            self.counters.slowloris.fetch_add(1, Relaxed);
            Self::emit(obs, txn, "slowloris");
            Some(Duration::from_micros(self.plan.slowloris_us))
        } else {
            None
        }
    }

    /// Engine seam: should this RHS evaluation panic mid-action? The
    /// leak-regression knob — drop-guards must release every lock and
    /// pin as the unwind passes through. Public because the engine
    /// owns the RHS loop.
    pub fn rhs_panic(&self, txn: TxnId, step: u64, obs: Option<&Recorder>) -> bool {
        let hit = self.hit(site::RHS_PANIC, txn.0, step, self.plan.rhs_panic_pm);
        if hit {
            self.counters.rhs_panics.fetch_add(1, Relaxed);
            Self::emit(obs, txn, "rhs_panic");
        }
        hit
    }

    /// Falsifiability seam: corrupt a commit-sequence number. The §3
    /// checker must reject the resulting trace — `chaos` and
    /// `tests/chaos.rs` prove the oracle can actually fail.
    pub fn corrupt_seq(&self, seq: u64) -> u64 {
        if self.plan.corrupt_fire_seq {
            seq ^ 1
        } else {
            seq
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_injects_nothing() {
        let inj = FaultInjector::new(FaultPlan::quiet(42));
        for i in 0..2000 {
            assert!(!inj.forced_abort(TxnId(i), i));
            assert!(!inj.spurious_wakeup(TxnId(i), i, 0, None));
            inj.grant_delay(TxnId(i), i, None);
            inj.rhs_stall(TxnId(i), i, None);
            assert_eq!(inj.corrupt_seq(i), i);
        }
        assert_eq!(inj.stats().total(), 0);
    }

    #[test]
    fn decisions_are_deterministic_in_the_seed() {
        let a = FaultInjector::new(FaultPlan::mixed(7));
        let b = FaultInjector::new(FaultPlan::mixed(7));
        let c = FaultInjector::new(FaultPlan::mixed(8));
        let mut diverged = false;
        for i in 0..500 {
            assert_eq!(a.forced_abort(TxnId(i), i), b.forced_abort(TxnId(i), i));
            if a.forced_abort(TxnId(i), i) != c.forced_abort(TxnId(i), i) {
                diverged = true;
            }
        }
        assert!(diverged, "different seeds draw different faults");
    }

    #[test]
    fn hit_rate_tracks_per_mille() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 3,
            forced_abort_pm: 250,
            ..Default::default()
        });
        let hits = (0..4000).filter(|&i| inj.forced_abort(TxnId(i), i)).count();
        // 250‰ of 4000 = 1000 expected; allow a generous band.
        assert!((700..1300).contains(&hits), "hit rate {hits}/4000 off 250‰");
    }

    #[test]
    fn spurious_rounds_draw_fresh_odds() {
        // With round-salted hashing, a request that keeps looping must
        // eventually draw a miss (no livelock).
        let inj = FaultInjector::new(FaultPlan {
            seed: 9,
            spurious_wakeup_pm: 500,
            ..Default::default()
        });
        let miss = (0..64).position(|round| !inj.spurious_wakeup(TxnId(1), 1, round, None));
        assert!(miss.is_some(), "all 64 rounds hit — round salt ignored?");
    }

    #[test]
    fn corrupt_seq_flips_the_low_bit() {
        let inj = FaultInjector::new(FaultPlan {
            corrupt_fire_seq: true,
            ..Default::default()
        });
        assert_eq!(inj.corrupt_seq(0), 1);
        assert_eq!(inj.corrupt_seq(1), 0);
        assert_eq!(inj.corrupt_seq(6), 7);
    }

    #[test]
    fn named_plans_carry_their_seed() {
        for (name, ctor) in FaultPlan::NAMED {
            assert_eq!(ctor(11).seed, 11, "plan {name}");
        }
    }

    #[test]
    fn wal_kill_fires_exactly_at_its_commit() {
        let quiet = FaultInjector::new(FaultPlan::quiet(1));
        for seq in 0..100 {
            assert!(quiet.wal_kill(seq).is_none(), "quiet plan kills nothing");
        }
        let inj = FaultInjector::new(FaultPlan {
            wal_kill_commit: 7,
            wal_kill_site: WalKillSite::TornTail,
            ..Default::default()
        });
        for seq in 0..100 {
            let hit = inj.wal_kill(seq);
            if seq == 7 {
                assert_eq!(hit, Some(WalKillSite::TornTail));
            } else {
                assert!(hit.is_none(), "seq {seq}");
            }
        }
        inj.count_wal_kill(TxnId(3), None);
        assert_eq!(inj.stats().wal_kills, 1);
        assert_eq!(inj.stats().total(), 1);
        for site in WalKillSite::ALL {
            assert!(!site.name().is_empty());
        }
    }

    #[test]
    fn disconnect_sites_draw_and_count() {
        let quiet = FaultInjector::new(FaultPlan::quiet(3));
        for i in 0..500 {
            assert!(!quiet.drop_mid_claim(i, i, TxnId(i), None));
            assert!(!quiet.drop_mid_rhs(i, i, TxnId(i), None));
            assert!(quiet.slowloris(i, i, TxnId(i), None).is_none());
            assert!(!quiet.rhs_panic(TxnId(i), i, None));
        }
        assert_eq!(quiet.stats().total(), 0);

        let inj = FaultInjector::new(FaultPlan {
            seed: 5,
            drop_mid_claim_pm: 500,
            drop_mid_rhs_pm: 500,
            slowloris_pm: 500,
            slowloris_us: 1,
            rhs_panic_pm: 500,
            ..Default::default()
        });
        let mut claims = 0;
        let mut rhs = 0;
        let mut slow = 0;
        let mut panics = 0;
        for i in 0..400 {
            claims += u64::from(inj.drop_mid_claim(i, i, TxnId(i), None));
            rhs += u64::from(inj.drop_mid_rhs(i, i, TxnId(i), None));
            slow += u64::from(inj.slowloris(i, i, TxnId(i), None).is_some());
            panics += u64::from(inj.rhs_panic(TxnId(i), i, None));
        }
        let s = inj.stats();
        assert_eq!(s.drop_mid_claims, claims);
        assert_eq!(s.drop_mid_rhs, rhs);
        assert_eq!(s.slowloris, slow);
        assert_eq!(s.rhs_panics, panics);
        for n in [claims, rhs, slow, panics] {
            assert!((100..300).contains(&n), "hit rate {n}/400 off 500‰");
        }
        // The sites are salted independently: identical (session,
        // ordinal) pairs must not force identical decisions across sites.
        let agree = (0..400)
            .filter(|&i| {
                inj.drop_mid_claim(i, i, TxnId(i), None) == inj.drop_mid_rhs(i, i, TxnId(i), None)
            })
            .count();
        assert!(agree < 400, "sites share a decision stream");
        // The transaction id labels the event only: a session's draw
        // is the same whichever id its transaction got.
        for i in 0..400 {
            assert_eq!(
                inj.drop_mid_claim(7, i, TxnId(i), None),
                inj.drop_mid_claim(7, i, TxnId(i + 1_000), None)
            );
        }
        assert_eq!(FaultPlan::disconnects(9).seed, 9);
        assert!(FaultPlan::disconnects(9).drop_mid_claim_pm > 0);
    }

    #[test]
    fn stats_snapshot_counts() {
        let inj = FaultInjector::new(FaultPlan {
            rhs_stall_pm: 1000,
            rhs_stall_us: 1,
            ..Default::default()
        });
        inj.rhs_stall(TxnId(0), 0, None);
        inj.count_forced_abort(TxnId(1), None);
        let s = inj.stats();
        assert_eq!(s.rhs_stalls, 1);
        assert_eq!(s.forced_aborts, 1);
        assert_eq!(s.total(), 2);
    }
}
