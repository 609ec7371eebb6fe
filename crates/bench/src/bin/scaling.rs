//! The scaling gate (see [`dps_bench::scaling`]): worker-count sweep,
//! observability and telemetry overhead budgets. Usage: `scaling
//! [--quick] [--json]`; with `--json` the `dps-report-v2` document goes
//! to stdout (human summary to stderr). Exit 0 iff every gate holds.

use std::process::ExitCode;

use dps_bench::harness::{Flag, ReportArgs};

fn main() -> ExitCode {
    dps_server::shutdown::install();
    let args = ReportArgs::parse("scaling", &[Flag::Bare("--quick"), Flag::Bare("--json")]);
    dps_bench::scaling::gate(&args).finish(&args)
}
