//! The MVCC gate (see [`dps_bench::mvcc`]): stock lock-based `R_c` vs
//! snapshot condition reads, A/B on the doom-storm plan. Usage: `mvcc
//! [--quick] [--json] [--workers N] [--seed S]`; with `--json` the
//! `dps-report-v2` document goes to stdout (human summary to stderr).
//! Exit 0 iff every gate holds.

use std::process::ExitCode;

use dps_bench::harness::{ReportArgs, GATE_FLAGS};

fn main() -> ExitCode {
    dps_server::shutdown::install();
    let args = ReportArgs::parse("mvcc", GATE_FLAGS);
    dps_bench::mvcc::gate(&args).finish(&args)
}
