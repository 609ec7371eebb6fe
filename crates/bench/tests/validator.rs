//! Falsifiability of the report validator: every gate's `--quick`
//! document is accepted by [`validate`], and each of a fixed set of
//! corruptions of it is rejected with a diagnostic naming the field.
//! A validator that accepts everything would let CI pass on a report
//! that does not say what the `gate` binary's exit code said.

use dps_bench::harness::{ReportArgs, GATES};
use dps_bench::report::{validate, SCHEMA};
use dps_obs::json::{parse, Json};
use dps_obs::AbortCause;

/// The command line each gate's `--quick` document is produced with.
fn quick_args(gate: &str) -> &'static [&'static str] {
    match gate {
        "matchbench" => &["--quick"],
        "loadgen" => &["--quick", "--workers", "2"],
        _ => &["--quick", "--workers", "4"],
    }
}

/// The only gates that compare two legs' run-time outcomes: `loadgen`'s
/// overload pair (latency and goodput, shedding on vs off) and `mvcc`'s
/// wasted-work fraction (simulated work driven by abort counts). At
/// `--quick` size in a debug build they may honestly fail; that is the
/// gate working, not the validator, so the fresh document may be
/// rejected for exactly one of these and nothing else.
const TIMING_GATES: [&str; 3] = [
    "mvcc.wasted_fraction_below_stock",
    "2x.shed_on_p99_below_off",
    "2x.shed_on_goodput_kept",
];

fn member<'a>(v: &'a mut Json, key: &str) -> &'a mut Json {
    match v {
        Json::Obj(members) => members
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no member {key:?}")),
        other => panic!("{key:?} looked up in non-object {other:?}"),
    }
}

fn items(v: &mut Json) -> &mut Vec<Json> {
    match v {
        Json::Arr(items) => items,
        other => panic!("not an array: {other:?}"),
    }
}

/// Applies `corrupt` to a copy of `doc` and requires a rejection that
/// mentions every string in `named`.
fn rejects(gate: &str, what: &str, doc: &Json, named: &[&str], corrupt: impl FnOnce(&mut Json)) {
    let mut bad = doc.clone();
    corrupt(&mut bad);
    let err = validate(&bad).expect_err(&format!("{gate}: {what} was accepted"));
    for name in named {
        assert!(
            err.contains(name),
            "{gate}: {what}: diagnostic {err:?} does not name {name:?}"
        );
    }
}

#[test]
fn every_gate_report_validates_and_every_corruption_is_named() {
    let mut declared: Vec<String> = Vec::new();
    for entry in GATES {
        let gate = entry.name;
        let list = quick_args(gate).iter().map(|s| s.to_string());
        let args = ReportArgs::from_args(entry.flags, list).unwrap();
        // Through text, as `obs_check` reads it.
        let doc = parse(&(entry.run)(&args).to_json().to_string_pretty()).unwrap();
        assert_eq!(doc.at(&["gate"]).and_then(Json::as_str), Some(gate));
        if let Err(e) = validate(&doc) {
            let timing = TIMING_GATES
                .iter()
                .any(|n| e.contains(&format!("{n:?} failed: ")));
            assert!(timing, "{gate}: fresh report rejected: {e}");
        }

        // A gate's `observed` moved across its `bound`, `pass` left true.
        let gates = doc.get("gates").and_then(Json::as_arr).unwrap().to_vec();
        for (i, g) in gates.iter().enumerate() {
            let name = g.get("name").and_then(Json::as_str).unwrap();
            declared.push(name.to_owned());
            if g.get("pass") != Some(&Json::Bool(true)) {
                continue;
            }
            let bound = g.get("bound").and_then(Json::as_f64).unwrap();
            let across = match g.get("op").and_then(Json::as_str).unwrap() {
                ">" | ">=" => bound - 1.0,
                _ => bound + 1.0,
            };
            rejects(
                gate,
                "a forged pass",
                &doc,
                &[&format!("{name:?}"), "pass is true"],
                |d| {
                    *member(&mut items(member(d, "gates"))[i], "observed") = Json::num(across);
                },
            );
        }

        // One abort cause dropped from a leg.
        let cause = AbortCause::Doomed.name();
        rejects(
            gate,
            "a dropped abort cause",
            &doc,
            &["legs[0]", "aborts", cause],
            |d| match member(&mut items(member(d, "legs"))[0], "aborts") {
                Json::Obj(causes) => causes.retain(|(k, _)| k != cause),
                other => panic!("aborts is {other:?}"),
            },
        );

        // A leg's checker verdict that is not "consistent".
        rejects(
            gate,
            "a violation verdict",
            &doc,
            &["legs[0]", "checker.verdict"],
            |d| {
                let checker = member(&mut items(member(d, "legs"))[0], "checker");
                *member(checker, "verdict") = Json::str("violation");
            },
        );

        // A timeline counter series made to decrease.
        if doc.get("timeline") != Some(&Json::Null) {
            let named = ["timeline", "engine.commits", "decreases"];
            rejects(gate, "a decreasing counter", &doc, &named, |d| {
                let series = items(member(member(d, "timeline"), "series"))
                    .iter_mut()
                    .find(|s| s.get("name").and_then(Json::as_str) == Some("engine.commits"))
                    .expect("core series");
                let samples = items(member(series, "samples"));
                assert!(
                    samples.len() >= 2,
                    "{gate}: the sampler ticked {} time(s)",
                    samples.len()
                );
                samples[0] = Json::u64(1 << 50);
            });
        } else {
            assert!(
                ["analyze", "chaos"].contains(&gate),
                "only analyze and chaos run without the sampler, not {gate}"
            );
        }

        // A schema tag this validator does not read.
        rejects(
            gate,
            "an unknown schema",
            &doc,
            &["schema", "dps-report-v3"],
            |d| {
                *member(d, "schema") = Json::str(SCHEMA.replace("v2", "v3"));
            },
        );
    }

    // The tolerance list cannot outlive the gates it names.
    for name in TIMING_GATES {
        assert!(
            declared.iter().any(|d| d == name),
            "TIMING_GATES names {name:?}, which no gate's --quick report declares"
        );
    }
}
