//! Admission control and overload shedding.
//!
//! §5's analysis says wasted work — transactions that execute and then
//! abort — is what kills a parallel production system under
//! contention. The same argument applies one layer up: admitting a
//! transaction the engine cannot absorb *guarantees* wasted work
//! (queueing, timeouts, doomed claims). The front door therefore sheds
//! early, with a typed [`crate::wire::Response::Overloaded`] and a
//! retry hint, rather than queueing without bound. Three independent
//! gates, checked in order of cost:
//!
//! 1. **Inflight cap** — at most [`AdmissionConfig::max_inflight`]
//!    open external transactions engine-wide. The bound keeps the
//!    lock-manager and snapshot-pin footprint proportional to what the
//!    workers can drain.
//! 2. **Token bucket** — a sustained-rate limit
//!    ([`AdmissionConfig::tokens_per_sec`], burst
//!    [`AdmissionConfig::bucket_cap`]) decoupling the admitted rate
//!    from the offered rate; the retry hint is the time until the next
//!    token, so well-behaved clients reconverge on the sustainable
//!    rate instead of thundering back.
//! 3. **Doom storm** — a streak counter watches the *outcome* stream
//!    of admitted transactions. Once [`STORM_STREAK`] of them in a row
//!    have aborted on contention, every further contention abort shuts
//!    the door for [`AdmissionConfig::storm_hold_ms`]; a commit resets
//!    the streak. Shedding at the door is strictly cheaper than
//!    aborting inside.
//!
//!    This is narrower than the engine's adaptive retry controller it
//!    replaces, whose rule-serialization set the door reused: once the
//!    streak had tripped, that set re-armed the hold on *any*
//!    contention abort until 16 calm commits had passed. Here the
//!    first commit ends the storm.
//!
//! All three gates are disabled together by
//! [`AdmissionConfig::enabled`]` = false` — the shed-off baseline the
//! XS.8 experiment measures against.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Consecutive contention aborts of admitted transactions that make a
/// doom storm (gate 3).
pub const STORM_STREAK: u32 = 6;

/// Admission policy knobs (see module docs).
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Master switch: `false` admits everything (the shed-off
    /// baseline).
    pub enabled: bool,
    /// Sustained admitted-transaction rate (token refill rate).
    pub tokens_per_sec: f64,
    /// Burst capacity of the token bucket.
    pub bucket_cap: f64,
    /// Maximum concurrently open external transactions.
    pub max_inflight: usize,
    /// How long a doom storm holds the door shut, milliseconds.
    pub storm_hold_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            enabled: true,
            tokens_per_sec: 2_000.0,
            bucket_cap: 200.0,
            max_inflight: 256,
            storm_hold_ms: 50,
        }
    }
}

/// One admission decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Admitted; the caller must pair with
    /// [`AdmissionController::txn_end`].
    Granted,
    /// Shed. `retry_after_ms` is the client hint.
    Shed {
        /// Client retry hint, milliseconds.
        retry_after_ms: u64,
    },
}

/// Cumulative admission counters (all monotone; suitable as telemetry
/// probes and for the report's cause-sum reconciliation).
#[derive(Clone, Copy, Debug, Default)]
pub struct AdmissionStats {
    /// Transactions admitted.
    pub admitted: u64,
    /// Shed by the token bucket.
    pub shed_rate: u64,
    /// Shed by the inflight cap.
    pub shed_inflight: u64,
    /// Shed by doom-storm hold.
    pub shed_storm: u64,
}

impl AdmissionStats {
    /// Total shed, all causes.
    pub fn shed_total(&self) -> u64 {
        self.shed_rate + self.shed_inflight + self.shed_storm
    }
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

/// The front door's admission gate (see module docs). Shared across
/// session handler threads behind an `Arc`.
pub struct AdmissionController {
    config: AdmissionConfig,
    bucket: Mutex<Bucket>,
    inflight: AtomicUsize,
    /// Contention aborts since the last commit (gate 3).
    storm_streak: AtomicU32,
    storm_until: Mutex<Option<Instant>>,
    admitted: AtomicU64,
    shed_rate: AtomicU64,
    shed_inflight: AtomicU64,
    shed_storm: AtomicU64,
}

impl AdmissionController {
    /// A controller with a full bucket.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            bucket: Mutex::new(Bucket { tokens: config.bucket_cap, last: Instant::now() }),
            inflight: AtomicUsize::new(0),
            storm_streak: AtomicU32::new(0),
            storm_until: Mutex::new(None),
            admitted: AtomicU64::new(0),
            shed_rate: AtomicU64::new(0),
            shed_inflight: AtomicU64::new(0),
            shed_storm: AtomicU64::new(0),
            config,
        }
    }

    /// The policy in force.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Decides admission for one transaction. On [`Admission::Granted`]
    /// the inflight slot is held until [`AdmissionController::txn_end`].
    pub fn admit(&self) -> Admission {
        if !self.config.enabled {
            self.admitted.fetch_add(1, Relaxed);
            self.inflight.fetch_add(1, Relaxed);
            return Admission::Granted;
        }
        // Gate 3 first — it is the cheapest read and the strongest
        // signal (the engine is already wasting work).
        if let Some(until) = *self.storm_until.lock().unwrap() {
            if Instant::now() < until {
                self.shed_storm.fetch_add(1, Relaxed);
                return Admission::Shed { retry_after_ms: self.config.storm_hold_ms.max(1) };
            }
        }
        // Gate 1: inflight cap (reserve optimistically, roll back on
        // overshoot so concurrent admits cannot leak past the cap).
        let prev = self.inflight.fetch_add(1, Relaxed);
        if prev >= self.config.max_inflight {
            self.inflight.fetch_sub(1, Relaxed);
            self.shed_inflight.fetch_add(1, Relaxed);
            // Hint: one full transaction's worth of drain time at the
            // sustained rate.
            let ms = (1_000.0 / self.config.tokens_per_sec.max(1.0)).ceil() as u64;
            return Admission::Shed { retry_after_ms: ms.max(1) };
        }
        // Gate 2: token bucket.
        let mut b = self.bucket.lock().unwrap();
        let now = Instant::now();
        let dt = now.duration_since(b.last).as_secs_f64();
        b.last = now;
        b.tokens = (b.tokens + dt * self.config.tokens_per_sec).min(self.config.bucket_cap);
        if b.tokens < 1.0 {
            let need = 1.0 - b.tokens;
            let ms = (need / self.config.tokens_per_sec.max(f64::MIN_POSITIVE) * 1_000.0).ceil();
            drop(b);
            self.inflight.fetch_sub(1, Relaxed);
            self.shed_rate.fetch_add(1, Relaxed);
            return Admission::Shed { retry_after_ms: (ms as u64).max(1) };
        }
        b.tokens -= 1.0;
        drop(b);
        self.admitted.fetch_add(1, Relaxed);
        Admission::Granted
    }

    /// Releases the inflight slot of an admitted transaction and feeds
    /// its outcome to the storm streak. The server passes
    /// `aborted_on_contention = true` only for a transaction the engine
    /// rolled back with a cause `AbortCause::is_contention` accepts:
    /// doomed, deadlock, revalidation, injected, snapshot-stale or
    /// elision-stale. Every other outcome resets the streak: a commit,
    /// a client abort, a stale id, an evaluation error, and a session
    /// that died by timeout or by disconnect (an injected one too).
    // `_touched` is unused: the streak needs no blame set.
    pub fn txn_end(&self, aborted_on_contention: bool, _touched: &[u64]) {
        self.inflight.fetch_sub(1, Relaxed);
        if !self.config.enabled {
            return;
        }
        if !aborted_on_contention {
            self.storm_streak.store(0, Relaxed);
        } else if self.storm_streak.fetch_add(1, Relaxed) >= STORM_STREAK - 1 {
            let hold = Duration::from_millis(self.config.storm_hold_ms);
            *self.storm_until.lock().unwrap() = Some(Instant::now() + hold);
        }
    }

    /// Currently open external transactions (telemetry gauge).
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Relaxed) as u64
    }

    /// Cumulative counters.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.admitted.load(Relaxed),
            shed_rate: self.shed_rate.load(Relaxed),
            shed_inflight: self.shed_inflight.load(Relaxed),
            shed_storm: self.shed_storm.load(Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cfg: AdmissionConfig) -> AdmissionController {
        AdmissionController::new(cfg)
    }

    #[test]
    fn disabled_admits_everything() {
        let c = quick(AdmissionConfig { enabled: false, ..AdmissionConfig::default() });
        for _ in 0..10_000 {
            assert_eq!(c.admit(), Admission::Granted);
            c.txn_end(false, &[]);
        }
        assert_eq!(c.stats().shed_total(), 0);
        assert_eq!(c.inflight(), 0);
    }

    #[test]
    fn token_bucket_sheds_past_burst() {
        let c = quick(AdmissionConfig {
            tokens_per_sec: 1.0, // ~no refill within the test
            bucket_cap: 10.0,
            max_inflight: 1_000,
            ..AdmissionConfig::default()
        });
        let mut granted = 0;
        let mut shed = 0;
        for _ in 0..50 {
            match c.admit() {
                Admission::Granted => {
                    granted += 1;
                    c.txn_end(false, &[]);
                }
                Admission::Shed { retry_after_ms } => {
                    assert!(retry_after_ms >= 1);
                    shed += 1;
                }
            }
        }
        assert_eq!(granted, 10, "exactly the burst capacity is admitted");
        assert_eq!(shed, 40);
        assert_eq!(c.stats().shed_rate, 40);
    }

    #[test]
    fn inflight_cap_sheds_and_releases() {
        let c = quick(AdmissionConfig {
            tokens_per_sec: 1e9,
            bucket_cap: 1e9,
            max_inflight: 3,
            ..AdmissionConfig::default()
        });
        assert_eq!(c.admit(), Admission::Granted);
        assert_eq!(c.admit(), Admission::Granted);
        assert_eq!(c.admit(), Admission::Granted);
        assert!(matches!(c.admit(), Admission::Shed { .. }), "cap reached");
        c.txn_end(false, &[]);
        assert_eq!(c.admit(), Admission::Granted, "slot freed");
        assert_eq!(c.stats().shed_inflight, 1);
    }

    fn stormy(storm_hold_ms: u64) -> AdmissionController {
        quick(AdmissionConfig {
            tokens_per_sec: 1e9,
            bucket_cap: 1e9,
            max_inflight: 1_000,
            storm_hold_ms,
            ..AdmissionConfig::default()
        })
    }

    /// Admits `n` transactions and ends each with `aborted`.
    fn feed(c: &AdmissionController, n: u32, aborted: bool) {
        for i in 0..n {
            assert_eq!(c.admit(), Admission::Granted, "admit {i}");
            c.txn_end(aborted, &[]);
        }
    }

    #[test]
    fn doom_storm_holds_the_door() {
        // A pure-abort stream shuts the door for the full hold at the
        // streak bound, and not one abort earlier.
        let c = stormy(10_000);
        feed(&c, STORM_STREAK, true);
        assert_eq!(c.admit(), Admission::Shed { retry_after_ms: 10_000 });
        assert_eq!(c.stats().shed_storm, 1);
    }

    #[test]
    fn a_commit_resets_the_storm_streak() {
        let c = stormy(10_000);
        feed(&c, STORM_STREAK - 1, true);
        feed(&c, 1, false);
        feed(&c, STORM_STREAK - 1, true);
        assert_eq!(c.admit(), Admission::Granted, "the streak is consecutive");
        assert_eq!(c.stats().shed_storm, 0);
    }

    #[test]
    fn the_door_reopens_after_the_hold() {
        let c = stormy(20);
        feed(&c, STORM_STREAK, true);
        assert!(matches!(c.admit(), Admission::Shed { .. }), "storm shut the door");
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(c.admit(), Admission::Granted);
    }
}
