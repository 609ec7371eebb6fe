//! The two no-server workloads: `ParallelEngine::run()` to quiescence
//! on a seeded rule system, timed by the engine's own wall clock.

use std::time::Instant;

use dps_core::{ParallelConfig, ParallelEngine, ParallelReport, WorkModel};
use dps_lock::ConflictPolicy;
use dps_obs::{ObsReport, TelemetryConfig};
use dps_rules::RuleSet;
use dps_wm::{Value, WorkingMemory};

use crate::gen::{self, ContendSize, MatchSize};
use crate::Shape;

/// Which engine workload, at what size.
#[derive(Clone, Copy, Debug)]
pub enum EngineSpec {
    /// `engine_match`.
    Match(MatchSize),
    /// `engine_contend`.
    Contend(ContendSize),
}

impl EngineSpec {
    /// Rule firings the run must commit.
    pub fn expected_commits(&self) -> u64 {
        match self {
            EngineSpec::Match(s) => s.expected_commits(),
            EngineSpec::Contend(s) => s.expected_commits(),
        }
    }
}

/// One phase (untraced or traced) of an engine workload.
pub struct EngineRun {
    /// Rule parse → engine built (Rete loaded), seconds.
    pub setup_s: f64,
    /// The engine's end-of-run report; `report.wall` is the measured
    /// window.
    pub report: ParallelReport,
    /// Phase histograms and event counts (traced phase only).
    pub obs: Option<ObsReport>,
    /// Last sampled `pipeline.version_records` (traced phase only).
    pub version_records: Option<u64>,
    /// The rule set (for replay probes).
    pub rules: RuleSet,
    /// Initial working memory (for replay probes).
    pub initial_wm: WorkingMemory,
    /// Final working memory.
    pub final_wm: WorkingMemory,
    /// Output-check failures (empty = correct).
    pub failures: Vec<String>,
}

/// Rule parse, WM populate, engine build (Rete load). Returns the
/// engine with its inputs and the seconds the set-up took.
fn build(
    spec: &EngineSpec,
    shape: &Shape,
    seed: u64,
    traced: bool,
) -> (ParallelEngine, RuleSet, WorkingMemory, Vec<i64>, f64) {
    let t_setup = Instant::now();
    let (rules, initial_wm, totals) = match spec {
        EngineSpec::Match(size) => gen::match_input(*size, seed),
        EngineSpec::Contend(size) => gen::contend_input(*size, seed),
    };
    let engine = ParallelEngine::new(
        &rules,
        initial_wm.clone(),
        ParallelConfig {
            policy: ConflictPolicy::AbortReaders,
            workers: shape.workers,
            work: WorkModel::None,
            max_commits: usize::MAX,
            observe: traced,
            telemetry: traced.then(TelemetryConfig::default),
            elide_locks: false,
            ..ParallelConfig::default()
        },
    );
    let setup_s = t_setup.elapsed().as_secs_f64();
    (engine, rules, initial_wm, totals, setup_s)
}

/// One set-up repeat: builds everything, runs nothing.
pub fn setup_only(spec: &EngineSpec, shape: &Shape, seed: u64) -> f64 {
    build(spec, shape, seed, false).4
}

/// Runs one phase to quiescence and checks its output.
pub fn run(spec: &EngineSpec, shape: &Shape, seed: u64, traced: bool) -> EngineRun {
    let (mut engine, rules, initial_wm, totals, setup_s) = build(spec, shape, seed, traced);
    let report = engine.run();
    let mut failures = Vec::new();
    if engine.held_locks() != 0 {
        failures.push(format!("{} locks still held", engine.held_locks()));
    }
    if engine.snapshot_pins() != 0 {
        failures.push(format!(
            "{} snapshot pins still registered",
            engine.snapshot_pins()
        ));
    }
    let final_wm = engine.final_wm();
    check_truth(spec, &totals, &final_wm, &report, &mut failures);
    EngineRun {
        setup_s,
        obs: engine.observer().map(|r| r.report()),
        version_records: engine
            .telemetry()
            .and_then(|t| t.doc().last("pipeline.version_records")),
        report,
        rules,
        initial_wm,
        final_wm,
        failures,
    }
}

/// Closed-form final state: every expected firing committed and every
/// counter sits where arithmetic says it must (`totals`: per-family
/// sums on `engine_match`, per-tally counts on `engine_contend`).
fn check_truth(
    spec: &EngineSpec,
    totals: &[i64],
    wm: &WorkingMemory,
    report: &ParallelReport,
    failures: &mut Vec<String>,
) {
    let int = |w: &dps_wm::Wme, attr: &str| match w.get(attr) {
        Some(Value::Int(n)) => *n,
        _ => i64::MIN,
    };
    if report.commits as u64 != spec.expected_commits() {
        failures.push(format!(
            "{} commits, expected {}",
            report.commits,
            spec.expected_commits()
        ));
    }
    match spec {
        EngineSpec::Match(size) => {
            for (g, want) in totals.iter().enumerate() {
                let one = |class: String, attr: &str| {
                    let mut it = wm.class_iter(&class).map(|w| int(w, attr));
                    (it.next(), it.next())
                };
                let sum = one(format!("sum-{g}"), "total");
                let at = one(format!("cursor-{g}"), "at");
                let left = wm.class_iter(&format!("out-{g}")).count();
                if sum != (Some(*want), None) || at != (Some(size.pairs as i64), None) || left != 0
                {
                    failures.push(format!(
                        "family {g}: sum {sum:?} (expected {want}), cursor {at:?} (expected {}), {left} out tuples unfolded",
                        size.pairs
                    ));
                    break;
                }
            }
        }
        EngineSpec::Contend(_) => {
            for t in wm.class_iter("tally") {
                let id = int(t, "id");
                if totals.get(id as usize).copied() != Some(int(t, "count")) {
                    failures.push(format!(
                        "tally[{id}].count = {}, expected {:?}",
                        int(t, "count"),
                        totals.get(id as usize)
                    ));
                }
            }
            let owing = wm
                .class_iter("task")
                .filter(|w| int(w, "left") != 0)
                .count();
            if owing != 0 {
                failures.push(format!("{owing} tasks not fully charged"));
            }
        }
    }
}
