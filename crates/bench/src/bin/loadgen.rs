//! The front-door load gate (see [`dps_bench::server_load`]):
//! open-loop sessions against `dps-server`, admission control A/B'd at
//! overload, plus a disconnect-chaos leg. Usage: `loadgen [--quick]
//! [--json] [--workers N] [--seed S]`; with `--json` the
//! `dps-report-v2` document goes to stdout (human summary to stderr).
//! Exit 0 iff every gate holds. Ctrl-C/SIGTERM exits through the
//! graceful drain.

use std::process::ExitCode;

use dps_bench::harness::{ReportArgs, GATE_FLAGS};

fn main() -> ExitCode {
    dps_server::shutdown::install();
    let args = ReportArgs::parse("loadgen", GATE_FLAGS);
    dps_bench::server_load::gate(&args).finish(&args)
}
