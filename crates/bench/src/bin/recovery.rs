//! The crash-recovery gate (see [`dps_bench::recovery`]): kill-point ×
//! policy sweep over the durable engine, the corrupt-record probe and
//! the group-commit overhead A/B. Usage: `recovery [--quick] [--json]
//! [--workers N] [--seed S]`; with `--json` the `dps-report-v2`
//! document goes to stdout (human summary to stderr). Exit 0 iff every
//! gate holds.

use std::process::ExitCode;

use dps_bench::harness::{ReportArgs, GATE_FLAGS};

fn main() -> ExitCode {
    dps_server::shutdown::install();
    let args = ReportArgs::parse("recovery", GATE_FLAGS);
    dps_bench::recovery::gate(&args).finish(&args)
}
