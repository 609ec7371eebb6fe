//! The chaos gate (see [`dps_bench::chaos`]): seeded fault plans ×
//! conflict policies × worker counts, the corrupted-sequence probe and
//! the governor A/B. Usage: `chaos [--quick] [--json] [--workers N]
//! [--seed S]`; with `--json` the `dps-report-v2` document goes to
//! stdout (human summary to stderr). Exit 0 iff every gate holds.

use std::process::ExitCode;

use dps_bench::harness::{ReportArgs, GATE_FLAGS};

fn main() -> ExitCode {
    dps_server::shutdown::install();
    let args = ReportArgs::parse("chaos", GATE_FLAGS);
    dps_bench::chaos::gate(&args).finish(&args)
}
