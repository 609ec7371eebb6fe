//! The benchmark's fixed vocabulary: workloads, sizes, metric names,
//! units and regression bounds. `BENCHMARK.json` at the repo root is a
//! projection of these tables (a unit test keeps them in step).

use crate::gen::{ContendSize, MatchSize};

/// `--seconds` when none is given; `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: u64 = 12;
/// `e2e check` runs every workload at this fraction of the default size.
pub const CHECK_DIVISOR: u64 = 20;
/// Set-ups (and recoveries) timed per run; the metric is their median.
pub const SETUP_REPEATS: usize = 15;
/// Runs of every workload behind one result set of `run` / `repeat`:
/// each end-to-end value of a set is the median of this many runs and
/// carries their spread, so `compare` can tell a move from noise.
pub const REPS: usize = 5;

/// The four workloads (names are normative).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Server path, durability on, `abort_readers`.
    SessionZipf,
    /// Server path, durability off, `mvcc_snapshot`, reads beside writes.
    SessionMixed,
    /// No server: match-dominated, zero conflicts.
    EngineMatch,
    /// No server: lock-dominated, hot tuples.
    EngineContend,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SessionZipf,
        Workload::SessionMixed,
        Workload::EngineMatch,
        Workload::EngineContend,
    ];

    /// The normative name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SessionZipf => "session_zipf",
            Workload::SessionMixed => "session_mixed",
            Workload::EngineMatch => "engine_match",
            Workload::EngineContend => "engine_contend",
        }
    }

    /// Parses a normative name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// `true` for the two server-path workloads.
    pub fn is_session(self) -> bool {
        matches!(self, Workload::SessionZipf | Workload::SessionMixed)
    }

    /// One line on why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SessionZipf => "the whole request path with durability on: wire, admission, session, commit, WAL fsync, publish, match catch-up, rule firing; wm.wal and server.* do most of the work",
            Workload::SessionMixed => "same server and commit layers used differently: MVCC reads with large Rows replies beside writes, no WAL, so a WAL change must not move it",
            Workload::EngineMatch => "no server, no conflicts: each firing re-derives 48 partial matches and feeds a second join, so Rete apply inside the commit critical section sets the pace; match changes show here and nowhere else",
            Workload::EngineContend => "no server, every firing writes one of 8 hot tallies under two relation locks: lock waits, dooms and stale claims over a narrow join; lock and commit-path changes show here, engine_match stays flat",
        }
    }
}

/// Operation counts of every workload at a given size. Counts are
/// fixed functions of `--seconds` (never of elapsed time), calibrated
/// so each measured phase takes about `--seconds` on the 2-core
/// reference box.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    /// `session_zipf` logical transactions (warm-up included).
    pub zipf_txns: usize,
    /// `session_mixed` logical transactions (warm-up included).
    pub mixed_txns: usize,
    /// `engine_match` shape.
    pub matching: MatchSize,
    /// `engine_contend` shape.
    pub contend: ContendSize,
}

impl Sizes {
    /// Sizes for a run of `millis` nominal milliseconds: every
    /// workload's cost is linear in its count, so counts scale with
    /// time (the engine workloads through their chain length).
    pub fn for_millis(millis: u64) -> Sizes {
        let t = millis as f64 / 1e3;
        Sizes {
            zipf_txns: (6_800.0 * t) as usize,
            mixed_txns: (10_000.0 * t) as usize,
            matching: MatchSize {
                groups: 48,
                pairs: (125.0 * t) as usize,
            },
            contend: ContendSize {
                tasks: 32,
                steps: (680.0 * t) as i64,
            },
        }
    }
}

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system would see.
#[derive(Clone, Copy, Debug)]
pub struct E2eMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline by which the median of [`REPS`] runs may
    /// worsen before `compare` calls a regression (the issue's bound).
    pub bound: f64,
    /// Which workloads report it.
    pub applies: fn(Workload) -> bool,
    /// `Some(bound)` when `BENCHMARK.json` lists it: every workload
    /// reports it, never as zero. The driver also requires the spread
    /// of ten *single* runs to stay inside that bound (and asks for a
    /// third of it), so where this box's single-run spread is wider
    /// than the issue's bound the manifest carries a wider one.
    pub manifest: Option<f64>,
}

fn all(_: Workload) -> bool {
    true
}
fn session(w: Workload) -> bool {
    w.is_session()
}
fn zipf(w: Workload) -> bool {
    w == Workload::SessionZipf
}

use Better::{Higher, Lower};

const fn em(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    applies: fn(Workload) -> bool,
    manifest: Option<f64>,
) -> E2eMetric {
    E2eMetric {
        name,
        unit,
        better,
        bound,
        applies,
        manifest,
    }
}

/// The end-to-end metrics with the issue's bounds. `ok_share` is
/// `1 − failed_share`: the latter is 0 on three workloads, which a
/// relative bound cannot hold, and 1% of a value next to 1 is the
/// issue's "+0.01 absolute".
pub const E2E: [E2eMetric; 11] = [
    em("setup_s", "s", Lower, 0.15, all, Some(0.25)),
    em("txn_per_s", "1/s", Higher, 0.10, session, None),
    em("txn_p50_us", "us", Lower, 0.10, session, None),
    em("txn_p99_us", "us", Lower, 0.20, session, None),
    em("react_p50_us", "us", Lower, 0.10, zipf, None),
    em("react_p95_us", "us", Lower, 0.20, zipf, None),
    em("firings_per_s", "1/s", Higher, 0.10, all, Some(0.25)),
    em("ok_share", "share", Higher, 0.01, all, Some(0.01)),
    em("wal_bytes_per_commit", "B", Lower, 0.05, zipf, None),
    em("recover_s", "s", Lower, 0.15, zipf, None),
    em("peak_rss_mb", "MB", Lower, 0.10, all, Some(0.10)),
];

/// Looks an end-to-end metric up by name.
pub fn e2e(name: &str) -> Option<&'static E2eMetric> {
    E2E.iter().find(|m| m.name == name)
}

/// One per-layer metric (`<layer>.<metric>`); no bound.
#[derive(Clone, Copy, Debug)]
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lm(name: &'static str, unit: &'static str, better: Better) -> LayerMetric {
    LayerMetric { name, unit, better }
}

/// The per-layer metrics, in layer order. A workload that does not
/// exercise a layer reports its metrics as 0.
pub const LAYERS: [LayerMetric; 80] = [
    // server.wire
    lm("wire.encode_ns_per_frame", "ns", Lower),
    lm("wire.decode_ns_per_frame", "ns", Lower),
    lm("wire.bytes_per_txn", "B", Lower),
    // server.session / server.transport (client-side spans)
    lm("session.begin_us_p50", "us", Lower),
    lm("session.insert_us_p50", "us", Lower),
    lm("session.query_us_p50", "us", Lower),
    lm("session.commit_us_p50", "us", Lower),
    lm("session.commit_us_p99", "us", Lower),
    lm("session.invoke_us_p50", "us", Lower),
    lm("session.client_self_us_p50", "us", Lower),
    lm("budget.spans_us", "us", Lower),
    lm("budget.coverage", "ratio", Higher),
    lm("budget.coordination_share", "share", Lower),
    // server.admission
    lm("admission.admit_ns", "ns", Lower),
    lm("admission.admitted", "count", Higher),
    lm("admission.shed", "count", Lower),
    // core.session
    lm("core_session.begin_us_p50", "us", Lower),
    lm("core_session.insert_us_p50", "us", Lower),
    lm("core_session.query_us_p50", "us", Lower),
    lm("core_session.commit_us_p50", "us", Lower),
    lm("server.overhead_us_per_txn", "us", Lower),
    // core.parallel
    lm("parallel.commits", "count", Higher),
    lm("parallel.abort_ratio", "ratio", Lower),
    lm("parallel.aborts_doomed", "count", Lower),
    lm("parallel.aborts_deadlock", "count", Lower),
    lm("parallel.aborts_stale", "count", Lower),
    lm("parallel.aborts_snapshot_stale", "count", Lower),
    lm("parallel.wasted_work_share", "share", Lower),
    lm("parallel.lhs_eval_us_p50", "us", Lower),
    lm("parallel.rhs_act_us_p50", "us", Lower),
    lm("parallel.commit_us_p50", "us", Lower),
    lm("parallel.commit_us_p99", "us", Lower),
    lm("parallel.outside_txn_share", "share", Lower),
    // core.pipeline
    lm("pipeline.batches", "count", Higher),
    lm("pipeline.applies_per_batch", "ratio", Lower),
    lm("pipeline.free_advance_share", "share", Higher),
    lm("pipeline.steal_share", "share", Lower),
    lm("pipeline.match_apply_us_p50", "us", Lower),
    lm("pipeline.match_apply_us_p99", "us", Lower),
    lm("pipeline.match_apply_share", "share", Lower),
    // lock.manager
    lm("lock.grants_per_commit", "ratio", Lower),
    lm("lock.block_ratio", "ratio", Lower),
    lm("lock.dooms", "count", Lower),
    lm("lock.deadlocks", "count", Lower),
    lm("lock.elided", "count", Higher),
    lm("lock.wait_us_p50", "us", Lower),
    lm("lock.wait_us_p99", "us", Lower),
    lm("lock.wait_share", "share", Lower),
    lm("lock.acquire_ns", "ns", Lower),
    // match.rete
    lm("rete.apply_us_per_batch", "us", Lower),
    lm("rete.right_activations_per_batch", "ratio", Lower),
    lm("rete.left_activations_per_batch", "ratio", Lower),
    lm("rete.tokens", "count", Lower),
    lm("rete.conflict_set_len", "count", Lower),
    // wm.store
    lm("wm.apply_ns_per_commit", "ns", Lower),
    lm("wm.live_tuples", "count", Lower),
    // wm.version
    lm("version.record_ns_per_commit", "ns", Lower),
    lm("version.as_of_ns", "ns", Lower),
    lm("version.records", "count", Lower),
    // wm.wal
    lm("wal.appends", "count", Lower),
    lm("wal.fsyncs", "count", Lower),
    lm("wal.commits_per_fsync", "ratio", Higher),
    lm("wal.piggyback_share", "share", Higher),
    lm("wal.fsync_us_mean", "us", Lower),
    lm("wal.checkpoints", "count", Lower),
    lm("wal.append_ns_per_commit", "ns", Lower),
    lm("wal.sync_us", "us", Lower),
    // obs
    lm("obs.trace_overhead_share", "share", Lower),
    // probe-time shares (service time × count, as a share of their sum)
    lm("probe.rete_share", "share", Lower),
    lm("probe.lock_share", "share", Lower),
    lm("probe.wm_share", "share", Lower),
    lm("probe.version_share", "share", Lower),
    lm("probe.wal_share", "share", Lower),
    // untraced end-to-end metrics the manifest cannot list because not
    // every workload has them; mirrored so the driver's record holds them
    lm("e2e.txn_per_s", "1/s", Higher),
    lm("e2e.txn_p50_us", "us", Lower),
    lm("e2e.txn_p99_us", "us", Lower),
    lm("e2e.react_p50_us", "us", Lower),
    lm("e2e.react_p95_us", "us", Lower),
    lm("e2e.wal_bytes_per_commit", "B", Lower),
    lm("e2e.recover_s", "s", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use dps_obs::json::{parse, Json};

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
    }

    #[test]
    fn manifest_matches_the_tables() {
        let m = manifest();
        let names = |key: &str| -> Vec<String> {
            m.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
        let listed: Vec<&E2eMetric> = E2E.iter().filter(|m| m.manifest.is_some()).collect();
        assert_eq!(
            names("end_to_end"),
            listed.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, spec) in m
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(&listed)
        {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(spec.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(spec.better.as_str())
            );
            assert_eq!(entry.get("bound").and_then(Json::as_f64), spec.manifest);
            assert!(
                Workload::ALL.into_iter().all(spec.applies),
                "{} must apply everywhere",
                spec.name
            );
        }
        assert_eq!(
            names("per_layer"),
            LAYERS.iter().map(|l| l.name).collect::<Vec<_>>()
        );
        for (entry, spec) in m
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(&LAYERS)
        {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(spec.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(spec.better.as_str())
            );
        }
        assert_eq!(
            m.get("run_seconds").and_then(Json::as_u64),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn names_are_unique_and_sizes_scale() {
        let mut names: Vec<&str> = E2E
            .iter()
            .map(|m| m.name)
            .chain(LAYERS.iter().map(|l| l.name))
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
        let full = Sizes::for_millis(DEFAULT_SECONDS * 1000);
        let small = Sizes::for_millis(DEFAULT_SECONDS * 1000 / CHECK_DIVISOR);
        assert_eq!(full.zipf_txns, 81_600);
        assert_eq!(small.zipf_txns * 20, full.zipf_txns);
        assert!(full.matching.expected_commits() >= 20_000);
        assert!(full.contend.expected_commits() >= 20_000);
        assert_eq!(small.matching.pairs * 20, full.matching.pairs);
    }
}
