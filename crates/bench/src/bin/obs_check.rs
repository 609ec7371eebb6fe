//! Validates a `dps-report-v2` document — what every gate emits
//! with `--json` — against the one shape they share (see
//! [`dps_bench::report::validate`]): schema tag, every leg's drain /
//! abort-accounting / checker rules, every gate's `pass` recomputed
//! from `observed`, `op` and `bound`, every probe's outcome, and the
//! embedded `dps-timeline-v1` document. It knows nothing about any
//! particular gate: the invariants are declared, on typed values, by
//! the module that owns the gate, and arrive here as `gates[]` entries.
//!
//! Usage: `obs_check <report.json>` (or `-` / no argument for stdin).
//! Exit 0 if the document is valid and every gate in it passed, 1 with
//! a diagnostic naming the field otherwise.

use std::io::Read;
use std::process::ExitCode;

use dps_bench::report::validate;
use dps_obs::json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let text = match args.as_slice() {
        [] => read_stdin(),
        [path] if path == "-" => read_stdin(),
        [path] if !path.starts_with("--") => {
            std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
        }
        _ => {
            eprintln!("usage: obs_check [report.json | -]");
            return ExitCode::from(2);
        }
    };
    let checked = text
        .and_then(|t| json::parse(&t).map_err(|e| format!("JSON parse error: {e}")))
        .and_then(|doc| validate(&doc));
    match checked {
        Ok(()) => {
            println!("obs_check: report OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs_check: {e}");
            ExitCode::FAILURE
        }
    }
}

fn read_stdin() -> Result<String, String> {
    let mut s = String::new();
    std::io::stdin()
        .read_to_string(&mut s)
        .map_err(|e| format!("reading stdin: {e}"))?;
    Ok(s)
}
