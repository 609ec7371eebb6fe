//! The one report every gate emits, and its validator.
//!
//! `dps-report-v2 { schema, gate, meta, legs[], gates[], probes[],
//! timeline }`:
//!
//! * `legs[]` — one object per engine run, all encoded by
//!   [`Leg::to_json`]: `key`, `commits` / `expected_commits`, `secs`,
//!   `throughput`, the per-cause `aborts` block, `locks`, the `checker`
//!   block, plus whatever the owning gate attached;
//! * `gates[]` — every pass/fail condition **and** every accounting
//!   identity of the gate, as `{name, observed, op, bound, pass}`. The
//!   module that owns a gate declares each one once, on typed values
//!   ([`Report::gate`], [`Report::holds`], [`Report::equal`]); the same
//!   list drives the binary's exit code ([`Report::finish`]) and is
//!   what `obs_check` re-derives `pass` from;
//! * `probes[]` — falsifiability probes: hand-made bad inputs the
//!   checkers must reject (and good ones they must accept);
//! * `timeline` — the `dps-timeline-v1` document of the leg whose
//!   sampled series tell the gate's story, or `null`.
//!
//! [`validate`] is the whole of `obs_check`: it knows this shape and
//! nothing about any particular gate.

use std::process::ExitCode;

use dps_obs::json::Json;
use dps_obs::{AbortCause, TimelineDoc, TIMELINE_SCHEMA};

use crate::analysis::Leg;
use crate::harness::ReportArgs;

/// The schema tag of every gate report.
pub const SCHEMA: &str = "dps-report-v2";

/// Comparison a gate applies: `observed op bound`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `==`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Op {
    const ALL: [Op; 5] = [Op::Eq, Op::Lt, Op::Le, Op::Gt, Op::Ge];

    /// The operator as written in the document.
    pub fn name(self) -> &'static str {
        match self {
            Op::Eq => "==",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
        }
    }

    /// `observed op bound`. A NaN on either side holds for no operator.
    pub fn holds(self, observed: f64, bound: f64) -> bool {
        match self {
            Op::Eq => observed == bound,
            Op::Lt => observed < bound,
            Op::Le => observed <= bound,
            Op::Gt => observed > bound,
            Op::Ge => observed >= bound,
        }
    }
}

/// One declared condition of a gate.
#[derive(Clone, Debug)]
pub struct Gate {
    /// Stable name (`elided.lock_grants`, `legs_with_unbalanced_books`, …).
    pub name: String,
    /// The measured side.
    pub observed: f64,
    /// The comparison.
    pub op: Op,
    /// The required side.
    pub bound: f64,
}

impl Gate {
    /// Whether the condition holds.
    pub fn pass(&self) -> bool {
        self.op.holds(self.observed, self.bound)
    }
}

fn verdict_word(rejected: bool) -> &'static str {
    if rejected {
        "rejected"
    } else {
        "accepted"
    }
}

/// A gate's report under construction.
#[derive(Debug)]
pub struct Report {
    gate: &'static str,
    meta: Vec<(String, Json)>,
    legs: Vec<Json>,
    uncertified: Vec<String>,
    gates: Vec<Gate>,
    /// `(name, must be rejected, was rejected)`.
    probes: Vec<(String, bool, bool)>,
    timeline: Option<TimelineDoc>,
}

impl Report {
    /// Starts the report of `gate`. `meta` is the run's provenance
    /// (seed, sizes, worker counts); the machine's core count is added
    /// because every number here depends on it.
    pub fn new(gate: &'static str, meta: Vec<(&str, Json)>) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut meta: Vec<(String, Json)> =
            meta.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
        meta.push(("cores".into(), Json::u64(cores as u64)));
        Report {
            gate,
            meta,
            legs: Vec::new(),
            uncertified: Vec::new(),
            gates: Vec::new(),
            probes: Vec::new(),
            timeline: None,
        }
    }

    /// Adds a finished leg: its human line goes to stderr, its JSON to
    /// `legs[]`, and a leg that did not drain or did not certify fails
    /// the `legs_certified` gate.
    pub fn leg(&mut self, leg: &Leg) {
        eprintln!("  {}", leg.line());
        for err in leg.errors.iter().take(3) {
            eprintln!("    ! {err}");
        }
        if let Err(e) = &leg.replay {
            eprintln!("    ! replay: {e}");
        }
        if !leg.passes() {
            self.uncertified.push(leg.key.clone());
        }
        self.legs.push(leg.to_json());
    }

    /// Declares `observed op bound`.
    pub fn gate(&mut self, name: impl Into<String>, observed: f64, op: Op, bound: f64) {
        self.gates.push(Gate {
            name: name.into(),
            observed,
            op,
            bound,
        });
    }

    /// Declares a condition already reduced to a boolean.
    pub fn holds(&mut self, name: impl Into<String>, cond: bool) {
        self.gate(name, u64::from(cond) as f64, Op::Eq, 1.0);
    }

    /// Declares a counting identity `observed == expected`.
    pub fn equal(&mut self, name: impl Into<String>, observed: u64, expected: u64) {
        self.gate(name, observed as f64, Op::Eq, expected as f64);
    }

    /// Records a falsifiability probe: `must_reject` says what a sound
    /// checker does with the probe's input, `rejected` what it did.
    pub fn probe(&mut self, name: impl Into<String>, must_reject: bool, rejected: bool) {
        self.probes.push((name.into(), must_reject, rejected));
    }

    /// Embeds `leg`'s sampled timeline as the report's `timeline`, and
    /// declares that the sampler ran and its series are internally
    /// consistent (monotone counters, equal-length rings).
    pub fn timeline_of(&mut self, leg: &Leg) {
        self.timeline = leg.timeline.clone();
        let sound = leg.timeline.as_ref().is_some_and(|t| t.validate().is_ok());
        self.holds("timeline_sampled_and_consistent", sound);
    }

    /// Declared gates plus the one every report carries: no leg failed
    /// to drain or to certify.
    fn all_gates(&self) -> Vec<Gate> {
        let mut gates = vec![Gate {
            name: "legs_certified".into(),
            observed: self.uncertified.len() as f64,
            op: Op::Eq,
            bound: 0.0,
        }];
        gates.extend(self.gates.iter().cloned());
        gates
    }

    /// The `dps-report-v2` document.
    pub fn to_json(&self) -> Json {
        let gates = self
            .all_gates()
            .iter()
            .map(|g| {
                Json::Obj(vec![
                    ("name".into(), Json::str(g.name.clone())),
                    ("observed".into(), Json::num(g.observed)),
                    ("op".into(), Json::str(g.op.name())),
                    ("bound".into(), Json::num(g.bound)),
                    ("pass".into(), Json::Bool(g.pass())),
                ])
            })
            .collect();
        let probes = self
            .probes
            .iter()
            .map(|(name, must_reject, rejected)| {
                Json::Obj(vec![
                    ("name".into(), Json::str(name.clone())),
                    ("expected".into(), Json::str(verdict_word(*must_reject))),
                    ("observed".into(), Json::str(verdict_word(*rejected))),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("gate".into(), Json::str(self.gate)),
            ("meta".into(), Json::Obj(self.meta.clone())),
            ("legs".into(), Json::Arr(self.legs.clone())),
            ("gates".into(), Json::Arr(gates)),
            ("probes".into(), Json::Arr(probes)),
            (
                "timeline".into(),
                self.timeline
                    .as_ref()
                    .map_or(Json::Null, TimelineDoc::to_json),
            ),
        ])
    }

    /// Ends a gate run: prints the document when `--json` was given,
    /// one line per gate and probe to stderr, and returns success iff
    /// every gate passed and every probe came out as it must.
    pub fn finish(self, args: &ReportArgs) -> ExitCode {
        if args.json() {
            println!("{}", self.to_json().to_string_pretty());
        }
        let mut failed: Vec<&str> = Vec::new();
        let gates = self.all_gates();
        eprintln!("\n{} gates:", self.gate);
        for g in &gates {
            let mark = if g.pass() { "PASS" } else { "FAIL" };
            eprintln!(
                "  {mark}: {} ({} {} {})",
                g.name,
                g.observed,
                g.op.name(),
                g.bound
            );
            if !g.pass() {
                failed.push(&g.name);
            }
        }
        for (name, must_reject, rejected) in &self.probes {
            let mark = if must_reject == rejected {
                "PASS"
            } else {
                "FAIL"
            };
            eprintln!("  {mark}: probe {name} {}", verdict_word(*rejected));
            if must_reject != rejected {
                failed.push(name);
            }
        }
        for key in &self.uncertified {
            eprintln!("  uncertified leg: {key}");
        }
        if failed.is_empty() {
            eprintln!("{}: GATE PASSED", self.gate);
            ExitCode::SUCCESS
        } else {
            eprintln!("{}: GATE FAILED ({})", self.gate, failed.join(", "));
            ExitCode::FAILURE
        }
    }
}

fn need<'a, T>(
    obj: &'a Json,
    at: &str,
    key: &str,
    read: impl Fn(&'a Json) -> Option<T>,
) -> Result<T, String> {
    obj.get(key)
        .and_then(read)
        .ok_or_else(|| format!("{at}: missing {key:?}"))
}

fn one_of<'a>(obj: &'a Json, at: &str, key: &str, allowed: &[&str]) -> Result<&'a str, String> {
    let v = need(obj, at, key, Json::as_str)?;
    if allowed.contains(&v) {
        Ok(v)
    } else {
        Err(format!("{at}.{key} is {v:?}, not one of {allowed:?}"))
    }
}

/// The rules every leg obeys, whatever gate ran it.
fn validate_leg(leg: &Json, at: &str) -> Result<(), String> {
    let commits = need(leg, at, "commits", Json::as_u64)?;
    let expected = need(leg, at, "expected_commits", Json::as_u64)?;
    if commits != expected {
        return Err(format!(
            "{at}: commits {commits} but expected_commits {expected} — the leg did not drain"
        ));
    }
    if need(leg, at, "secs", Json::as_f64)? <= 0.0 {
        return Err(format!("{at}: secs is not positive"));
    }
    need(leg, at, "throughput", Json::as_f64)?;

    let aborts = need(leg, at, "aborts", Some)?;
    let at_aborts = format!("{at}.aborts");
    let mut sum = 0;
    for cause in AbortCause::ALL {
        sum += need(aborts, &at_aborts, cause.name(), Json::as_u64)?;
    }
    let total = need(aborts, &at_aborts, "total", Json::as_u64)?;
    if sum != total {
        return Err(format!(
            "{at_aborts}: causes sum to {sum} but total is {total}"
        ));
    }

    let checker = need(leg, at, "checker", Some)?;
    let at_checker = format!("{at}.checker");
    let errors = need(checker, &at_checker, "structural_errors", Json::as_u64)?;
    let replay = one_of(checker, &at_checker, "replay", &["consistent", "violation"])?;
    let si = match checker.get("si") {
        Some(Json::Null) => None,
        _ => Some(one_of(
            checker,
            &at_checker,
            "si",
            &["consistent", "inconsistent"],
        )?),
    };
    let verdict = one_of(
        checker,
        &at_checker,
        "verdict",
        &["consistent", "inconsistent"],
    )?;
    let derived = errors == 0 && replay == "consistent" && si != Some("inconsistent");
    if derived != (verdict == "consistent") {
        return Err(format!(
            "{at_checker}.verdict is {verdict:?} but {errors} structural errors, \
             replay {replay:?}, si {si:?} say otherwise"
        ));
    }
    if !derived {
        return Err(format!(
            "{at_checker}.verdict is {verdict:?}: the leg is not certified"
        ));
    }
    Ok(())
}

/// Validates an embedded `dps-timeline-v1` document.
fn validate_timeline(tl: &Json) -> Result<(), String> {
    let schema = need(tl, "timeline", "schema", Json::as_str)?;
    if schema != TIMELINE_SCHEMA {
        return Err(format!("timeline: unexpected schema {schema:?}"));
    }
    let parsed =
        TimelineDoc::from_json(tl).map_err(|e| format!("timeline: does not parse: {e}"))?;
    parsed
        .validate()
        .map_err(|e| format!("timeline: invalid: {e}"))?;
    if parsed.ticks == 0 {
        return Err("timeline: zero ticks — the sampler never ran".into());
    }
    // The engine registers these on every run, whatever the workload;
    // a missing one means probe registration drifted.
    for name in ["engine.commits", "lock.grants", "pipeline.batches"] {
        if parsed.series(name).is_none() {
            return Err(format!("timeline: core series {name:?} missing"));
        }
    }
    Ok(())
}

/// Validates a `dps-report-v2` document: the shape, every leg's drain /
/// abort-accounting / checker rules, every gate's `pass` recomputed
/// from `observed`, `op` and `bound` (a forged `pass` and an honestly
/// failed gate are both errors, worded differently), every probe's
/// outcome, and the embedded timeline. The error names the field.
pub fn validate(doc: &Json) -> Result<(), String> {
    let schema = need(doc, "doc", "schema", Json::as_str)?;
    if schema != SCHEMA {
        return Err(format!(
            "unexpected schema {schema:?} (this validator reads {SCHEMA:?})"
        ));
    }
    need(doc, "doc", "gate", Json::as_str)?;
    need(doc, "doc", "meta", Json::as_obj)?;

    let legs = need(doc, "doc", "legs", Json::as_arr)?;
    if legs.is_empty() {
        return Err("legs is empty".into());
    }
    let mut keys: Vec<&str> = Vec::new();
    for (i, leg) in legs.iter().enumerate() {
        let key = need(leg, &format!("legs[{i}]"), "key", Json::as_str)?;
        if keys.contains(&key) {
            return Err(format!("legs[{i}]: key {key:?} appears twice"));
        }
        keys.push(key);
        validate_leg(leg, &format!("legs[{i}] {key:?}"))?;
    }

    for (i, p) in need(doc, "doc", "probes", Json::as_arr)?.iter().enumerate() {
        let name = need(p, &format!("probes[{i}]"), "name", Json::as_str)?;
        let at = format!("probes[{i}] {name:?}");
        let expected = one_of(p, &at, "expected", &["rejected", "accepted"])?;
        let observed = one_of(p, &at, "observed", &["rejected", "accepted"])?;
        if expected != observed {
            return Err(format!(
                "{at}: {observed}, must be {expected} — the checker proves nothing"
            ));
        }
    }

    match doc.get("timeline") {
        Some(Json::Null) => {}
        Some(tl) => validate_timeline(tl)?,
        None => return Err("doc: missing \"timeline\"".into()),
    }

    // Honest gate failures last, so that one is reported only for a
    // document that is otherwise sound.
    let gates = need(doc, "doc", "gates", Json::as_arr)?;
    if gates.is_empty() {
        return Err("gates is empty".into());
    }
    let mut failed = None;
    for (i, g) in gates.iter().enumerate() {
        let name = need(g, &format!("gates[{i}]"), "name", Json::as_str)?;
        let at = format!("gates[{i}] {name:?}");
        let observed = need(g, &at, "observed", Json::as_f64)?;
        let bound = need(g, &at, "bound", Json::as_f64)?;
        let op_name = need(g, &at, "op", Json::as_str)?;
        let op = Op::ALL
            .into_iter()
            .find(|op| op.name() == op_name)
            .ok_or_else(|| format!("{at}: unknown op {op_name:?}"))?;
        let pass = match g.get("pass") {
            Some(Json::Bool(b)) => *b,
            _ => return Err(format!("{at}: missing \"pass\"")),
        };
        let holds = op.holds(observed, bound);
        if pass != holds {
            return Err(format!(
                "{at}: pass is {pass} but {observed} {op_name} {bound} is {holds}"
            ));
        }
        if !pass && failed.is_none() {
            failed = Some(format!(
                "{at} failed: {observed} {op_name} {bound} does not hold"
            ));
        }
    }
    failed.map_or(Ok(()), Err)
}
