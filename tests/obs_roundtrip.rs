//! Seed-loop property tests for the observability JSON pipeline: the
//! hand-rolled writer and parser must be exact inverses on
//!
//! 1. randomized `ObsReport`s driven through a real [`Recorder`] with
//!    random but *lifecycle-valid* transaction schedules (whose merged
//!    history must pass `validate_history`; `to_json` → text → parse →
//!    `Json` tree equality);
//! 2. randomized `dps-timeline-v1` documents (the live-telemetry
//!    series), which must survive the writer↔parser round trip exactly
//!    and stay `validate`-clean on both sides.
//!
//! A third property pins what a report *is*: its event, per-cause and
//! per-rule abort counts are folds over the recorder's own history,
//! also when the rings wrap (then over the retained events, with the
//! overwritten ones counted in `dropped_events`). Which transactions
//! committed, in which order, is the commit log's: each schedule keeps
//! one, and a complete history pairs with it.
//!
//! Randomness comes from the workspace's internal deterministic PRNG
//! (`dps_wm::rng::SmallRng`); each property runs over a fixed sweep of
//! seeds so failures reproduce exactly by seed.

use std::collections::BTreeMap;
use std::time::Duration;

use dbps::obs::json::{self, Json};
use dbps::obs::{
    analyze, validate_history, AbortCause, Event, EventKind, Phase, Recorder, Series, SeriesKind,
    TimelineDoc, Verdict,
};
use dbps::wm::rng::SmallRng;

const CASES: u64 = 64;

/// The lock-mode names the lock layer emits.
const MODES: [&str; 7] = ["S", "X", "Rc", "Ra", "Wa", "IX", "IWa"];

/// Drives a [`Recorder`] with a random but lifecycle-valid schedule:
/// every transaction begins first, accumulates random non-terminal
/// events, and ends with exactly one terminal (an `ElidedCommit`
/// receipt may trail a commit, as the engine emits it). Returns the
/// schedule's commit log: the committed txns in commit order.
fn random_valid_recorder(rng: &mut SmallRng) -> (Recorder, Vec<u64>) {
    let rec = Recorder::with_capacity(4, 4096);
    let txns = 1 + rng.index(10) as u64;
    let (_, log) = record_schedule(&rec, rng, 0..txns);
    (rec, log)
}

/// Records a random lifecycle-valid schedule of the transactions `txns`
/// into `rec`; returns how many events it recorded and its commit log.
fn record_schedule(
    rec: &Recorder,
    rng: &mut SmallRng,
    txns: std::ops::Range<u64>,
) -> (u64, Vec<u64>) {
    let mut log = Vec::new();
    let mut events = 0u64;
    let mut record = |txn: u64, kind: EventKind| {
        rec.record(txn, kind);
        events += 1;
    };
    for txn in txns {
        let rule = (txn % 2) as u32;
        record(txn, EventKind::Begin);
        for _ in 0..rng.index(4) {
            match rng.index(3) {
                0 => record(
                    txn,
                    EventKind::Grant {
                        resource: rng.range_u64(0..17),
                        mode: MODES[rng.index(MODES.len())],
                    },
                ),
                1 => record(
                    txn,
                    EventKind::Block {
                        resource: rng.range_u64(0..17),
                        mode: MODES[rng.index(MODES.len())],
                        holder: txn.checked_sub(1),
                    },
                ),
                _ => record(txn, EventKind::Doom { by: txn.wrapping_add(1) }),
            }
        }
        if rng.random_bool(0.7) {
            record(txn, EventKind::Commit);
            if rng.random_bool(0.5) {
                record(txn, EventKind::ElidedCommit { resources: rng.range_u64(1..5) as u32 });
            }
            log.push(txn);
        } else {
            let cause = AbortCause::ALL[rng.index(AbortCause::ALL.len())];
            record(txn, EventKind::Abort { cause, rule });
        }
        rec.phase(
            Phase::ALL[rng.index(Phase::ALL.len())],
            Duration::from_nanos(rng.range_u64(0..(1 << 20) + 1)),
        );
    }
    (events, log)
}

/// The `events` key of the report's JSON that counts `kind`.
fn event_key(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::Begin => "begins",
        EventKind::Grant { .. } => "grants",
        EventKind::Block { .. } => "blocks",
        EventKind::Doom { .. } => "dooms",
        EventKind::Deadlock => "deadlocks",
        EventKind::Commit => "commits",
        EventKind::Abort { .. } => "aborts",
        EventKind::Anomaly { .. } => "anomalies",
        EventKind::Fault { .. } => "faults",
        EventKind::SnapshotPin { .. } => "snapshot_pins",
        EventKind::VersionRead { .. } => "version_reads",
        EventKind::VersionWrite { .. } => "version_writes",
        EventKind::WalSync { .. } => "wal_syncs",
        EventKind::Checkpoint { .. } => "checkpoints",
        EventKind::ElidedCommit { .. } => "elided_commits",
    }
}

/// Per-kind, per-cause and per-rule abort counts folded over a history.
type Folds = (BTreeMap<&'static str, u64>, Vec<(AbortCause, u64)>, Vec<(u32, u64)>);

fn fold(history: &[Event]) -> Folds {
    let mut kinds = BTreeMap::new();
    let mut causes: Vec<(AbortCause, u64)> = AbortCause::ALL.iter().map(|&c| (c, 0)).collect();
    let mut rules: BTreeMap<u32, u64> = BTreeMap::new();
    for ev in history {
        *kinds.entry(event_key(&ev.kind)).or_insert(0) += 1;
        if let EventKind::Abort { cause, rule } = ev.kind {
            causes[cause.index()].1 += 1;
            *rules.entry(rule).or_default() += 1;
        }
    }
    (kinds, causes, rules.into_iter().collect())
}

#[test]
fn report_counts_are_folds_over_the_history() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Rings from 2 events (wrapping on almost every case) to ample.
        let capacity = [2, 5, 16, 4096][rng.index(4)];
        let rec = Recorder::with_capacity(1 + rng.index(3), capacity);
        let seeds: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        // Three threads, so events spread over several rings.
        let (recorded, logged): (u64, usize) = std::thread::scope(|s| {
            let rec = &rec;
            let handles: Vec<_> = seeds
                .iter()
                .enumerate()
                .map(|(t, &sd)| {
                    s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(sd);
                        let n = rng.range_u64(0..13);
                        record_schedule(rec, &mut rng, t as u64 * 100..t as u64 * 100 + n)
                    })
                })
                .collect();
            handles.into_iter().fold((0, 0), |(events, commits), h| {
                let (e, log) = h.join().unwrap();
                (events + e, commits + log.len())
            })
        });
        let history = rec.history();
        let rep = rec.report();
        let (kinds, causes, rules) = fold(&history);
        let events = rep.to_json();
        for kind in [
            "begins", "grants", "blocks", "dooms", "deadlocks", "commits", "aborts", "anomalies",
            "faults", "snapshot_pins", "version_reads", "version_writes", "wal_syncs",
            "checkpoints", "elided_commits",
        ] {
            let got = events.at(&["events", kind]).and_then(Json::as_u64);
            assert_eq!(got, Some(kinds.get(kind).copied().unwrap_or(0)), "seed {seed}: {kind}");
        }
        assert_eq!(rep.abort_causes, causes, "seed {seed}");
        let rows: Vec<(u32, u64)> = rep.rules.iter().map(|r| (r.rule, r.aborted)).collect();
        assert_eq!(rows, rules, "seed {seed}");
        if rec.dropped() == 0 {
            assert_eq!(rep.commits, logged as u64, "seed {seed}: one commit per log record");
        }
        assert_eq!(rep.dropped_events, recorded - history.len() as u64, "seed {seed}");
        assert_eq!(rep.dropped_events, rec.dropped(), "seed {seed}");
    }
}

#[test]
fn random_reports_round_trip_as_json_trees() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (rec, log) = random_valid_recorder(&mut rng);
        let history = rec.history();
        validate_history(&history).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let analysis = analyze(&history, &log);
        assert_eq!(analysis.verdict(), Verdict::Consistent, "seed {seed}");
        assert_eq!(analysis.checker.commits.len(), log.len(), "seed {seed}");
        let doc = rec.report().to_json();

        let pretty = json::parse(&doc.to_string_pretty()).expect("pretty parses");
        assert_eq!(pretty, doc, "seed {seed}: pretty tree");
        let compact = json::parse(&doc.to_string_compact()).expect("compact parses");
        assert_eq!(compact, doc, "seed {seed}: compact tree");
    }
}

#[test]
fn old_shape_reports_without_fanout_still_parse() {
    // Reports emitted before the sharded match pipeline carry neither a
    // "fanout" object nor a "match_apply" histogram. Consumers parse the
    // generic Json tree, so the old shape must stay readable. (Fan-out
    // tallies live in the engine's report, so today's shape has no
    // "fanout" object either.)
    let old = r#"{
  "schema": "dps-obs-report-v1",
  "commits": 3,
  "aborts": 1,
  "phases": {
    "lock_wait": { "count": 4, "p50_ns": 100, "p95_ns": 200, "p99_ns": 200, "max_ns": 230 }
  },
  "events": [],
  "rules": [ { "rule": "bump", "fired": 3, "aborted": 1 } ]
}"#;
    let doc = json::parse(old).expect("pre-fanout reports must keep parsing");
    let Json::Obj(fields) = &doc else {
        panic!("report root must be an object");
    };
    assert!(fields.iter().all(|(k, _)| k != "fanout"));
    let rec = Recorder::with_capacity(1, 16);
    let new_doc = rec.report().to_json();
    let Json::Obj(new_fields) = &new_doc else {
        panic!("report root must be an object");
    };
    assert!(new_fields.iter().all(|(k, _)| k != "fanout"));
}

/// A structurally valid random timeline: positive tick, per-series
/// sample counts bounded by the tick count, counter series built as
/// non-decreasing prefix sums, unique dotted names.
fn random_timeline(rng: &mut SmallRng) -> TimelineDoc {
    let ticks = rng.range_u64(0..41);
    let n = rng.index(12);
    let series = (0..n)
        .map(|i| {
            let kind = if rng.random_bool(0.5) {
                SeriesKind::Counter
            } else {
                SeriesKind::Gauge
            };
            let len = rng.range_u64(0..ticks + 1) as usize;
            let mut samples: Vec<u64> =
                (0..len).map(|_| rng.range_u64(0..(1 << 32) + 1)).collect();
            if kind == SeriesKind::Counter {
                // Prefix-sum into a monotone counter trace.
                let mut acc = 0u64;
                for s in &mut samples {
                    acc += *s >> 16; // keep the sum comfortably in range
                    *s = acc;
                }
            }
            Series {
                name: format!("sub{}.metric{i}", rng.index(4)),
                kind,
                samples,
            }
        })
        .collect();
    TimelineDoc {
        tick_ns: rng.range_u64(1..(1 << 40) + 1),
        ticks,
        dropped: rng.range_u64(0..(1 << 20) + 1),
        series,
    }
}

#[test]
fn random_timelines_round_trip_exactly_and_stay_valid() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let doc = random_timeline(&mut rng);
        doc.validate().unwrap_or_else(|e| panic!("seed {seed}: generator broke: {e}"));

        // Pretty form.
        let pretty = doc.to_json().to_string_pretty();
        let parsed = TimelineDoc::from_json(&json::parse(&pretty).expect("pretty parses"))
            .expect("pretty timeline decodes");
        assert_eq!(parsed, doc, "seed {seed}: pretty round trip");

        // Compact form, and validity is serialization-invariant.
        let compact = doc.to_json().to_string_compact();
        let parsed = TimelineDoc::from_json(&json::parse(&compact).expect("compact parses"))
            .expect("compact timeline decodes");
        assert_eq!(parsed, doc, "seed {seed}: compact round trip");
        parsed
            .validate()
            .unwrap_or_else(|e| panic!("seed {seed} (reparsed): {e}"));
    }
}

#[test]
fn timeline_parser_rejects_what_the_writer_never_emits() {
    // Falsifiability for the shape checks: a parser that accepts
    // anything would make the round-trip property vacuous.
    let bad_schema = r#"{ "schema": "dps-timeline-v2", "tick_ns": 1, "ticks": 0, "dropped": 0, "series": [] }"#;
    assert!(TimelineDoc::from_json(&json::parse(bad_schema).unwrap()).is_err());
    let bad_kind = r#"{ "schema": "dps-timeline-v1", "tick_ns": 1, "ticks": 1, "dropped": 0,
        "series": [ { "name": "x", "kind": "derivative", "samples": [1] } ] }"#;
    assert!(TimelineDoc::from_json(&json::parse(bad_kind).unwrap()).is_err());
    // And validate() catches a decreasing counter that parsed fine.
    let decreasing = r#"{ "schema": "dps-timeline-v1", "tick_ns": 1, "ticks": 2, "dropped": 0,
        "series": [ { "name": "x", "kind": "counter", "samples": [5, 3] } ] }"#;
    let doc = TimelineDoc::from_json(&json::parse(decreasing).unwrap()).expect("shape is fine");
    assert!(doc.validate().is_err(), "decreasing counter must not validate");
}

#[test]
fn old_shape_reports_without_timeline_still_parse() {
    // Bench reports written before the live-telemetry layer carry no
    // "timeline" key; consumers (and obs_check) must treat the absence
    // — and an explicit null, as emitted for sampler-less legs — as
    // "nothing to check", not an error.
    let old = r#"{
  "schema": "dps-scaling-report-v1",
  "config": { "tasks": 8 },
  "sweeps": { "partitioned": [] }
}"#;
    let doc = json::parse(old).expect("pre-telemetry reports must keep parsing");
    assert!(doc.get("timeline").is_none());
    let nulled = r#"{ "schema": "dps-chaos-report-v1", "timeline": null }"#;
    let doc = json::parse(nulled).expect("null timeline parses");
    assert_eq!(doc.get("timeline"), Some(&Json::Null));
}

#[test]
fn scaling_style_nested_documents_round_trip() {
    // A nested object mixing every Json shape the report writers emit
    // (negative and fractional numbers, escapes, empty containers).
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str("dps-test-v1")),
            (
                "values".into(),
                Json::Arr(
                    (0..rng.index(8))
                        .map(|_| Json::num(rng.range_i64(-1000..1000) as f64 / 8.0))
                        .collect(),
                ),
            ),
            (
                "nested".into(),
                Json::Obj(vec![
                    ("quoted".into(), Json::str("a \"b\" \\ c\n\t")),
                    ("none".into(), Json::Null),
                    ("flag".into(), Json::Bool(rng.random_bool(0.5))),
                    ("empty_arr".into(), Json::Arr(vec![])),
                    ("empty_obj".into(), Json::Obj(vec![])),
                ]),
            ),
        ]);
        let pretty = json::parse(&doc.to_string_pretty()).expect("pretty parses");
        assert_eq!(pretty, doc, "seed {seed}");
        let compact = json::parse(&doc.to_string_compact()).expect("compact parses");
        assert_eq!(compact, doc, "seed {seed}");
    }
}
