//! Runs one of the gates CI runs: `gate <name> [flags]`, where `name`
//! is one of `analyze`, `chaos`, `matchbench`, `mvcc`, `recovery`,
//! `loadgen`, `commute` and each gate's flags are declared
//! once, in [`dps_bench::harness::GATES`]. With `--json` the
//! `dps-report-v2` document goes to stdout (human summary to stderr).
//! Exit 0 iff every gate holds, 1 if one fails, 2 on a usage error (an
//! unknown gate or flag). Ctrl-C/SIGTERM exits through the graceful
//! drain.

use std::process::ExitCode;

use dps_bench::harness::parse_gate;

fn main() -> ExitCode {
    let (gate, args) = match parse_gate(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    dps_server::shutdown::install();
    (gate.run)(&args).finish(&args)
}
