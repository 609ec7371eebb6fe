//! Result documents and their comparison.
//!
//! A *result set* is every workload at one `(seed, size)` on one box:
//! `dps-e2e-v1` JSON carrying the load shape, every end-to-end metric
//! with unit and sample count, the per-layer table when traced, the
//! exact-repeat counters and the final-WM content fingerprint. A set of
//! `run` / `repeat` is [`merge`]d from several runs of each workload:
//! its end-to-end values are medians and carry the runs' spread.
//! [`compare`] diffs two sets metric by metric against the bounds in
//! [`crate::spec::E2E`]; [`acceptance`] checks what a traced set must
//! show for the workloads to be measuring what they claim.

use dps_obs::json::Json;

use crate::run::{Outcome, Value};
use crate::spec::{self, Better, Workload};
use crate::stats::{median, spread};
use crate::Shape;

/// Schema tag of a result set.
pub const SCHEMA: &str = "dps-e2e-v1";

/// Identity of a result set: two sets compare only when these agree.
#[derive(Clone, Debug, PartialEq)]
pub struct Header {
    /// Commit hash (or `unknown` outside a git checkout).
    pub commit: String,
    /// Thread budget.
    pub shape: Shape,
    /// Generator seed.
    pub seed: u64,
    /// Nominal size, milliseconds.
    pub millis: u64,
    /// Per-layer table present?
    pub traced: bool,
}

fn values_json(values: &[Value]) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|v| {
                (
                    v.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(v.value)),
                        ("unit".into(), Json::str(v.unit)),
                        ("n".into(), Json::u64(v.n)),
                    ]),
                )
            })
            .collect(),
    )
}

/// One run's block of a result set.
pub fn outcome_json(o: &Outcome) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::str(o.workload.name())),
        ("correct".into(), Json::Bool(o.failures.is_empty())),
        (
            "failures".into(),
            Json::Arr(o.failures.iter().map(Json::str).collect()),
        ),
        ("runs".into(), Json::u64(1)),
        ("attempted".into(), Json::u64(o.attempted)),
        ("failed".into(), Json::u64(o.failed)),
        ("measured_s".into(), Json::Num(o.measured_s)),
        ("warmup_s".into(), Json::Num(o.warmup_s)),
        (
            "fingerprint".into(),
            Json::str(format!("{:016x}", o.fingerprint)),
        ),
        (
            "exact".into(),
            Json::Obj(
                o.exact
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::u64(*v)))
                    .collect(),
            ),
        ),
        ("e2e".into(), values_json(&o.e2e)),
        ("layers".into(), values_json(&o.layers)),
        (
            "budget".into(),
            Json::Arr(o.budget.iter().map(Json::str).collect()),
        ),
    ])
}

fn field_mut<'a>(obj: &'a mut Json, key: &str) -> Option<&'a mut Json> {
    match obj {
        Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn set_field(obj: &mut Json, key: &str, value: Json) {
    if let Some(v) = field_mut(obj, key) {
        *v = value;
    } else if let Json::Obj(fields) = obj {
        fields.push((key.into(), value));
    }
}

/// Folds several runs of one workload (equal seed and size) into one
/// block: every end-to-end value becomes the median of the runs and
/// gains their `spread` (from four runs up); a traced run contributes
/// the per-layer table, its `budget.coverage` recomputed against the
/// median `txn_p50_us`; the block is correct only if every run was and
/// the runs agree on the fingerprint and on every exact counter they
/// share.
pub fn merge(runs: &[Json]) -> Json {
    let mut block = runs
        .iter()
        .find(|r| {
            r.get("layers")
                .and_then(Json::as_obj)
                .is_some_and(|l| !l.is_empty())
        })
        .unwrap_or(&runs[0])
        .clone();
    let mut failures: Vec<Json> = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        for f in r.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
            failures.push(Json::str(format!(
                "run {}: {}",
                i + 1,
                f.as_str().unwrap_or("?")
            )));
        }
        if r.get("fingerprint") != runs[0].get("fingerprint") {
            failures.push(Json::str(format!(
                "run {}: final-WM fingerprint differs from run 1",
                i + 1
            )));
        }
        for (key, v) in r.get("exact").and_then(Json::as_obj).unwrap_or(&[]) {
            if runs[0].at(&["exact", key]).is_some_and(|first| first != v) {
                failures.push(Json::str(format!(
                    "run {}: exact counter {key} differs from run 1",
                    i + 1
                )));
            }
        }
    }
    let merged: Vec<(String, Json)> = runs[0]
        .get("e2e")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .map(|(name, first)| {
            let mut values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.at(&["e2e", name, "value"]).and_then(Json::as_f64))
                .collect();
            let mut entry = first.clone();
            if let Some(s) = spread(&values) {
                set_field(&mut entry, "spread", Json::Num(s));
            }
            set_field(&mut entry, "value", Json::Num(median(&mut values)));
            (name.clone(), entry)
        })
        .collect();
    set_field(&mut block, "e2e", Json::Obj(merged));
    // `budget.coverage` is the traced run's spans over `txn_p50_us`;
    // the set's `txn_p50_us` is now the median of its runs.
    let value = |path: &[&str]| block.at(path).and_then(Json::as_f64);
    let spans = value(&["layers", "budget.spans_us", "value"]);
    let p50 = value(&["e2e", "txn_p50_us", "value"]);
    if let (Some(spans), Some(p50), Some(entry)) = (
        spans,
        p50,
        field_mut(&mut block, "layers").and_then(|l| field_mut(l, "budget.coverage")),
    ) {
        set_field(entry, "value", Json::Num(spans / p50));
    }
    set_field(&mut block, "runs", Json::u64(runs.len() as u64));
    set_field(&mut block, "correct", Json::Bool(failures.is_empty()));
    set_field(&mut block, "failures", Json::Arr(failures));
    block
}

/// A whole result set.
pub fn set_json(h: &Header, workloads: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::str(SCHEMA)),
        ("commit".into(), Json::str(h.commit.clone())),
        ("nproc".into(), Json::u64(h.shape.nproc as u64)),
        ("clients".into(), Json::u64(h.shape.clients as u64)),
        ("workers".into(), Json::u64(h.shape.workers as u64)),
        ("seed".into(), Json::u64(h.seed)),
        ("millis".into(), Json::u64(h.millis)),
        ("traced".into(), Json::Bool(h.traced)),
        ("workloads".into(), Json::Arr(workloads)),
    ])
}

/// The single line the benchmark driver reads: `correct`, `attempted`,
/// `failed`, and either every manifest end-to-end metric (`trace 0`) or
/// every per-layer metric (`trace 1`).
pub fn driver_line(o: &Outcome, traced: bool) -> String {
    let metrics: Vec<(String, Json)> = if traced {
        o.layers.iter().map(metric_entry).collect()
    } else {
        spec::E2E
            .iter()
            .filter(|m| m.manifest.is_some())
            .filter_map(|m| o.e2e.iter().find(|v| v.name == m.name))
            .map(metric_entry)
            .collect()
    };
    Json::Obj(vec![
        ("correct".into(), Json::Bool(o.failures.is_empty())),
        ("attempted".into(), Json::u64(o.attempted.max(1))),
        ("failed".into(), Json::u64(o.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_string_compact()
}

fn metric_entry(v: &Value) -> (String, Json) {
    (
        v.name.to_string(),
        Json::Obj(vec![
            ("value".into(), Json::Num(v.value)),
            ("unit".into(), Json::str(v.unit)),
        ]),
    )
}

/// Human-readable table of one block (a single run's or a merged one).
pub fn render(block: &Json) -> String {
    let text = |key: &str| block.get(key).and_then(Json::as_str).unwrap_or("?");
    let num = |key: &str| block.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let correct = block.get("correct") == Some(&Json::Bool(true));
    let mut out = format!(
        "== {} ({})\n   {} run(s); measured {:.2} s after {:.2} s of warm-up, attempted {}, failed {}, fingerprint {}, {}\n",
        text("workload"),
        Workload::parse(text("workload")).map_or("", Workload::why),
        num("runs"),
        num("measured_s"),
        num("warmup_s"),
        num("attempted"),
        num("failed"),
        text("fingerprint"),
        if correct { "outputs correct" } else { "OUTPUT CHECKS FAILED" }
    );
    for f in block.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
        out.push_str(&format!("   FAIL {}\n", f.as_str().unwrap_or("?")));
    }
    let field = |e: &Json, key: &str| e.get(key).and_then(Json::as_f64);
    for (name, e) in block.get("e2e").and_then(Json::as_obj).unwrap_or(&[]) {
        let (bound, better) = spec::e2e(name).map_or((0.0, ""), |m| (m.bound, m.better.as_str()));
        out.push_str(&format!(
            "   {name:<24} {:>16.4} {:<6} n={:<8} {better} is better, bound {:.0}%{}\n",
            field(e, "value").unwrap_or(0.0),
            e.get("unit").and_then(Json::as_str).unwrap_or(""),
            field(e, "n").unwrap_or(0.0),
            bound * 100.0,
            field(e, "spread").map_or(String::new(), |s| format!(", spread {:.1}%", s * 100.0)),
        ));
    }
    for (name, e) in block.get("layers").and_then(Json::as_obj).unwrap_or(&[]) {
        let better = spec::LAYERS
            .iter()
            .find(|l| l.name == name)
            .map_or("", |l| l.better.as_str());
        out.push_str(&format!(
            "   {name:<36} {:>16.4} {:<6} n={:<8} {better} is better\n",
            field(e, "value").unwrap_or(0.0),
            e.get("unit").and_then(Json::as_str).unwrap_or(""),
            field(e, "n").unwrap_or(0.0),
        ));
    }
    for line in block.get("budget").and_then(Json::as_arr).unwrap_or(&[]) {
        out.push_str(&format!("   {}\n", line.as_str().unwrap_or("")));
    }
    out
}

fn blocks(doc: &Json) -> &[Json] {
    doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[])
}

fn block_of(doc: &Json, w: Workload) -> Option<&Json> {
    blocks(doc)
        .iter()
        .find(|x| x.get("workload").and_then(Json::as_str) == Some(w.name()))
}

/// Result of [`acceptance`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Acceptance {
    /// Conditions the set breaks; any of these fails the command.
    pub violations: Vec<String>,
    /// Conditions the set's own run-to-run spread cannot decide.
    pub unresolved: Vec<String>,
}

/// What a traced result set of all four workloads must show for the
/// workloads to measure what their `why` says. An untraced or partial
/// set has nothing to check.
pub fn acceptance(set: &Json) -> Acceptance {
    let layer = |w: Workload, name: &str| {
        block_of(set, w).and_then(|b| b.at(&["layers", name, "value"]).and_then(Json::as_f64))
    };
    let mut out = Acceptance::default();
    if Workload::ALL
        .iter()
        .any(|w| layer(*w, "parallel.commits").is_none())
    {
        return out;
    }
    let get = |w: Workload, name: &str| layer(w, name).unwrap_or(f64::NAN);
    for w in Workload::ALL {
        let appends = get(w, "wal.appends");
        if (w == Workload::SessionZipf) != (appends > 0.0) {
            out.violations
                .push(format!("{}: wal.appends = {appends}", w.name()));
        }
        if w.is_session() {
            // The traced phase's spans must add up to the latency the
            // untraced phase measured, to within 5%. The spans are one
            // run's, and one run in five lies further than one spread
            // from the median of its peers (one in a hundred further
            // than two), so up to two spreads off is noise this box
            // cannot tell from a gap: unresolved, not violated.
            let coverage = get(w, "budget.coverage");
            let off = (coverage - 1.0).abs();
            let spread = block_of(set, w)
                .and_then(|b| b.at(&["e2e", "txn_p50_us", "spread"]))
                .and_then(Json::as_f64);
            let within = off <= 0.05;
            if !within {
                let message = format!(
                    "{}: budget.coverage {coverage:.3} outside 0.95–1.05 (txn_p50_us spread {})",
                    w.name(),
                    spread.map_or("unknown".into(), |s| format!("{:.1}%", s * 100.0))
                );
                if spread.is_some_and(|s| off <= 2.0 * s) {
                    out.unresolved.push(message);
                } else {
                    out.violations.push(message);
                }
            }
        }
    }
    let (m, c) = (Workload::EngineMatch, Workload::EngineContend);
    for name in ["lock.block_ratio", "lock.wait_share"] {
        let separated = get(m, name) < get(c, name) / 10.0;
        if !separated {
            out.violations.push(format!(
                "{name}: engine_match {:.4} is not below a tenth of engine_contend's {:.4}",
                get(m, name),
                get(c, name)
            ));
        }
    }
    let rete = get(m, "probe.rete_share");
    for other in [
        "probe.lock_share",
        "probe.wm_share",
        "probe.version_share",
        "probe.wal_share",
    ] {
        let largest = rete > get(m, other);
        if !largest {
            out.violations.push(format!(
                "engine_match: probe.rete_share {rete:.3} is not above {other} {:.3}",
                get(m, other)
            ));
        }
    }
    out
}

/// Verdict on one row of a comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is not worse than A by more than the bound.
    Within,
    /// B is worse than A by more than the bound and by more than the
    /// runs' own spread.
    Breach,
    /// The runs' spread exceeds the bound: this box cannot tell a move
    /// of that size from noise, so the row neither passes nor fails.
    Unresolved,
}

/// One row of a comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Value in set A (a median when the set holds several runs).
    pub a: f64,
    /// Value in set B.
    pub b: f64,
    /// How much worse B is than A, as a share of A (negative = better);
    /// in a symmetric comparison, the larger of the two directions.
    pub worse: f64,
    /// The wider of the two sets' run-to-run spreads, when known.
    pub spread: Option<f64>,
    /// The metric's bound.
    pub bound: f64,
    /// What the row says.
    pub verdict: Verdict,
}

/// Result of [`compare`].
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// Per workload × end-to-end metric.
    pub rows: Vec<Row>,
    /// Reasons the comparison fails beyond metric breaches (identity
    /// mismatch, exact-counter drift, incorrect outputs).
    pub errors: Vec<String>,
}

impl Comparison {
    /// `true` when nothing breached and nothing mismatched.
    pub fn ok(&self) -> bool {
        self.errors.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Breach)
    }

    /// Table + verdict.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<16} {:<22} {:>14} {:>14} {:>9} {:>8} {:>7}\n",
            "workload", "metric", "A", "B", "worse", "spread", "bound"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<16} {:<22} {:>14.4} {:>14.4} {:>+8.2}% {:>8} {:>6.0}%{}\n",
                r.workload,
                r.metric,
                r.a,
                r.b,
                r.worse * 100.0,
                r.spread
                    .map_or("-".into(), |s| format!("{:.1}%", s * 100.0)),
                r.bound * 100.0,
                match r.verdict {
                    Verdict::Within => "",
                    Verdict::Breach => "  BREACH",
                    Verdict::Unresolved => "  UNRESOLVED (spread exceeds bound)",
                }
            ));
        }
        for e in &self.errors {
            out.push_str(&format!("ERROR {e}\n"));
        }
        let unresolved = self
            .rows
            .iter()
            .filter(|r| r.verdict == Verdict::Unresolved)
            .count();
        out.push_str(&format!(
            "compare: {}, {unresolved} of {} rows unresolved\n",
            if self.ok() { "PASS" } else { "FAIL" },
            self.rows.len()
        ));
        out
    }
}

/// Compares set `b` (candidate) against set `a` (baseline). With
/// `symmetric` (two sets of one commit) a metric breaches when either
/// side is worse than the other by more than its bound.
pub fn compare(a: &Json, b: &Json, symmetric: bool) -> Comparison {
    let mut c = Comparison::default();
    for (doc, tag) in [(a, "A"), (b, "B")] {
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            c.errors
                .push(format!("set {tag} is not a {SCHEMA} document"));
        }
    }
    for key in ["nproc", "clients", "workers", "seed", "millis"] {
        let (x, y) = (
            a.get(key).and_then(Json::as_u64),
            b.get(key).and_then(Json::as_u64),
        );
        if x.is_none() || x != y {
            c.errors.push(format!(
                "{key} differs ({x:?} vs {y:?}): the sets do not compare"
            ));
        }
    }
    if !c.errors.is_empty() {
        return c;
    }
    for w in Workload::ALL {
        let (Some(xa), Some(xb)) = (block_of(a, w), block_of(b, w)) else {
            if block_of(a, w).is_some() != block_of(b, w).is_some() {
                c.errors
                    .push(format!("{}: present in only one set", w.name()));
            }
            continue;
        };
        for (x, tag) in [(xa, "A"), (xb, "B")] {
            if x.get("correct") != Some(&Json::Bool(true)) {
                c.errors
                    .push(format!("{}: set {tag} failed its output checks", w.name()));
            }
        }
        if xa.get("fingerprint") != xb.get("fingerprint") {
            c.errors
                .push(format!("{}: final-WM fingerprints differ", w.name()));
        }
        for (key, va) in xa.get("exact").and_then(Json::as_obj).unwrap_or(&[]) {
            let vb = xb.at(&["exact", key]);
            if vb.is_some_and(|vb| vb != va) {
                c.errors.push(format!(
                    "{}: exact counter {key} differs ({va:?} vs {vb:?})",
                    w.name()
                ));
            }
        }
        for m in spec::E2E.iter().filter(|m| (m.applies)(w)) {
            let field = |x: &Json, key: &str| x.at(&["e2e", m.name, key]).and_then(Json::as_f64);
            let (Some(va), Some(vb)) = (field(xa, "value"), field(xb, "value")) else {
                c.errors
                    .push(format!("{}: {} missing from a set", w.name(), m.name));
                continue;
            };
            let forward = match m.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            // B as the base for the reverse direction.
            let reverse = match m.better {
                Better::Lower => (va - vb) / vb,
                Better::Higher => (vb - va) / vb,
            };
            let worse = if symmetric {
                forward.max(reverse)
            } else {
                forward
            };
            let spread = match (field(xa, "spread"), field(xb, "spread")) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let verdict = if worse > m.bound && spread.is_none_or(|s| worse > s) {
                Verdict::Breach
            } else if spread.is_some_and(|s| s > m.bound) {
                Verdict::Unresolved
            } else {
                Verdict::Within
            };
            c.rows.push(Row {
                workload: w.name().into(),
                metric: m.name.into(),
                a: va,
                b: vb,
                worse,
                spread,
                bound: m.bound,
                verdict,
            });
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(tps: f64) -> Outcome {
        let v = |name: &'static str, value: f64, unit: &'static str| Value {
            name,
            value,
            unit,
            n: 100,
        };
        Outcome {
            workload: Workload::EngineMatch,
            e2e: vec![
                v("setup_s", 0.2, "s"),
                v("firings_per_s", tps, "1/s"),
                v("ok_share", 1.0, "share"),
                v("peak_rss_mb", 100.0, "MB"),
            ],
            layers: Vec::new(),
            exact: vec![("committed", 20_000), ("parallel.commits", 20_000)],
            fingerprint: 0xfeed,
            attempted: 20_000,
            failed: 0,
            measured_s: 12.0,
            warmup_s: 0.0,
            failures: Vec::new(),
            budget: Vec::new(),
        }
    }

    fn header(nproc: usize) -> Header {
        Header {
            commit: "test".into(),
            shape: Shape {
                nproc,
                clients: 4,
                workers: 2,
            },
            seed: 1,
            millis: 12_000,
            traced: false,
        }
    }

    /// A set whose `firings_per_s` is the median of `runs`.
    fn set_of(runs: &[f64]) -> Json {
        let blocks: Vec<Json> = runs.iter().map(|t| outcome_json(&outcome(*t))).collect();
        set_json(&header(2), vec![merge(&blocks)])
    }

    fn firings(c: &Comparison) -> &Row {
        c.rows
            .iter()
            .find(|r| r.metric == "firings_per_s")
            .expect("row")
    }

    #[test]
    fn compare_flags_a_planted_12_percent_drop_and_passes_3_percent() {
        let base = set_of(&[1000.0]);
        let drop = compare(&base, &set_of(&[880.0]), false);
        assert!(!drop.ok());
        assert_eq!(firings(&drop).verdict, Verdict::Breach);
        assert!(drop.render().contains("BREACH"));
        let small = compare(&base, &set_of(&[970.0]), false);
        assert!(small.ok(), "{}", small.render());
        // A gain never breaches one-way, but two sets of one commit
        // that far apart do.
        let gain = set_of(&[1140.0]);
        assert!(compare(&base, &gain, false).ok());
        assert!(!compare(&base, &gain, true).ok());
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved_not_unchanged() {
        // Quiet runs (spread 2%): the median's 12% drop is a breach.
        let quiet = |m: f64| set_of(&[0.98 * m, 0.99 * m, m, 1.01 * m, 1.02 * m]);
        let c = compare(&quiet(1000.0), &quiet(880.0), false);
        assert_eq!(firings(&c).verdict, Verdict::Breach);
        assert!(firings(&c).spread.is_some_and(|s| s < 0.05));
        // Noisy runs (spread 30%): the same medians are unresolved, and
        // so is a 3% move; neither fails the comparison.
        let noisy = |m: f64| set_of(&[0.8 * m, 0.9 * m, m, 1.1 * m, 1.2 * m]);
        for candidate in [880.0, 970.0] {
            let c = compare(&noisy(1000.0), &noisy(candidate), false);
            assert_eq!(firings(&c).verdict, Verdict::Unresolved);
            assert!(c.ok() && c.render().contains("UNRESOLVED"));
        }
        // A drop beyond even that spread still breaches.
        let c = compare(&noisy(1000.0), &noisy(600.0), false);
        assert_eq!(firings(&c).verdict, Verdict::Breach);
    }

    #[test]
    fn merge_takes_medians_and_insists_on_exact_repeats() {
        let runs: Vec<Json> = [900.0, 1000.0, 1100.0, 1200.0, 5000.0]
            .iter()
            .map(|t| outcome_json(&outcome(*t)))
            .collect();
        let m = merge(&runs);
        assert_eq!(m.get("runs").and_then(Json::as_u64), Some(5));
        assert_eq!(
            m.at(&["e2e", "firings_per_s", "value"])
                .and_then(Json::as_f64),
            Some(1100.0)
        );
        assert!(m.at(&["e2e", "firings_per_s", "spread"]).is_some());
        assert_eq!(m.get("correct"), Some(&Json::Bool(true)));
        assert!(merge(&runs[..3])
            .at(&["e2e", "firings_per_s", "spread"])
            .is_none());
        let mut drift = outcome(1000.0);
        drift.exact[1].1 += 1;
        let m = merge(&[runs[0].clone(), outcome_json(&drift)]);
        assert_eq!(m.get("correct"), Some(&Json::Bool(false)));
        assert!(render(&m).contains("parallel.commits differs"));
        // The traced run's coverage is restated against the median
        // latency: spans 420 µs over p50s of 380, 400 (traced run), 440.
        let session = |p50: f64, traced: bool| {
            let mut o = outcome(1000.0);
            let v = |name: &'static str, value: f64| Value {
                name,
                value,
                unit: "us",
                n: 100,
            };
            o.e2e.push(v("txn_p50_us", p50));
            if traced {
                o.layers = vec![
                    v("budget.spans_us", 420.0),
                    v("budget.coverage", 420.0 / p50),
                ];
            }
            outcome_json(&o)
        };
        let m = merge(&[
            session(380.0, false),
            session(440.0, true),
            session(400.0, false),
        ]);
        assert_eq!(
            m.at(&["layers", "budget.coverage", "value"])
                .and_then(Json::as_f64),
            Some(420.0 / 400.0)
        );
    }

    #[test]
    fn compare_refuses_mismatched_sets() {
        let one = |h: &Header, o: &Outcome| set_json(h, vec![outcome_json(o)]);
        let c = compare(
            &one(&header(2), &outcome(1000.0)),
            &one(&header(8), &outcome(1000.0)),
            false,
        );
        assert!(!c.ok() && c.rows.is_empty());
        assert!(c.errors[0].contains("nproc"));
        // Exact-repeat counters must repeat.
        let mut drift = outcome(1000.0);
        drift.exact[1].1 += 1;
        let c = compare(
            &one(&header(2), &outcome(1000.0)),
            &one(&header(2), &drift),
            false,
        );
        assert!(
            c.errors.iter().any(|e| e.contains("parallel.commits")),
            "{:?}",
            c.errors
        );
    }

    /// A traced set of all four workloads that meets every condition,
    /// `txn_p50_us` spread `spread`, one layer value overridden.
    fn traced_set(spread: f64, tweak: (Workload, &'static str, f64)) -> Json {
        let blocks = Workload::ALL
            .iter()
            .map(|w| {
                let mut o = outcome(1000.0);
                o.workload = *w;
                let base = |name: &str| match (name, *w) {
                    ("wal.appends", Workload::SessionZipf) => 5000.0,
                    // 1% above the 400 µs median `txn_p50_us` below.
                    ("budget.spans_us", w) if w.is_session() => 404.0,
                    ("lock.block_ratio" | "lock.wait_share", Workload::EngineContend) => 0.1,
                    ("probe.rete_share", Workload::EngineMatch) => 0.9,
                    ("probe.lock_share", Workload::EngineMatch) => 0.06,
                    ("parallel.commits", _) => 20_000.0,
                    _ => 0.0,
                };
                o.layers = spec::LAYERS
                    .iter()
                    .map(|l| Value {
                        name: l.name,
                        value: if (*w, l.name) == (tweak.0, tweak.1) {
                            tweak.2
                        } else {
                            base(l.name)
                        },
                        unit: l.unit,
                        n: 0,
                    })
                    .collect();
                let runs: Vec<Json> = [-1.0, -0.5, 0.0, 0.5, 1.0]
                    .iter()
                    .map(|k| {
                        let mut run = o.clone();
                        run.e2e.push(Value {
                            name: "txn_p50_us",
                            value: 400.0 * (1.0 + k * spread / 1.5),
                            unit: "us",
                            n: 100,
                        });
                        outcome_json(&run)
                    })
                    .collect();
                merge(&runs)
            })
            .collect();
        set_json(&header(2), blocks)
    }

    #[test]
    fn acceptance_names_each_violated_separation() {
        let none = (Workload::EngineMatch, "", 0.0);
        assert_eq!(acceptance(&traced_set(0.02, none)), Acceptance::default());
        assert_eq!(
            acceptance(&set_of(&[1000.0])),
            Acceptance::default(),
            "untraced: nothing to check"
        );
        let broken = |w, metric, value| acceptance(&traced_set(0.02, (w, metric, value)));
        let only = |a: &Acceptance, what: &str| {
            a.unresolved.is_empty() && a.violations.len() == 1 && a.violations[0].contains(what)
        };
        let wal = broken(Workload::SessionMixed, "wal.appends", 3.0);
        assert!(only(&wal, "session_mixed: wal.appends"), "{wal:?}");
        let locks = broken(Workload::EngineMatch, "lock.block_ratio", 0.02);
        assert!(only(&locks, "lock.block_ratio"), "{locks:?}");
        let rete = broken(Workload::EngineMatch, "probe.lock_share", 0.95);
        assert!(only(&rete, "probe.rete_share"), "{rete:?}");
        // Coverage 8% off: a violation when latency repeats to 2%,
        // unresolved when its own spread is 10%.
        let coverage = broken(Workload::SessionZipf, "budget.spans_us", 432.0);
        assert!(only(&coverage, "budget.coverage 1.080"), "{coverage:?}");
        let noisy = acceptance(&traced_set(
            0.10,
            (Workload::SessionZipf, "budget.spans_us", 432.0),
        ));
        assert!(noisy.violations.is_empty() && noisy.unresolved.len() == 1);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = driver_line(&outcome(1234.5678), false);
        let doc = dps_obs::json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics: Vec<&str> = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            metrics,
            ["setup_s", "firings_per_s", "ok_share", "peak_rss_mb"]
        );
        assert_eq!(
            doc.at(&["metrics", "firings_per_s", "value"])
                .and_then(Json::as_f64),
            Some(1234.5678)
        );
        assert!(!line.contains('\n'));
    }
}
