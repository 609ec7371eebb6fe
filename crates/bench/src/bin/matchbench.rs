//! The match-shard gate (see [`dps_bench::matchbench`]): shard-count
//! sweep of the sharded match pipeline. Usage: `matchbench [--quick]
//! [--json]`; with `--json` the `dps-report-v2` document goes to stdout
//! (human summary to stderr). Exit 0 iff every gate holds.

use std::process::ExitCode;

use dps_bench::harness::{Flag, ReportArgs};

fn main() -> ExitCode {
    dps_server::shutdown::install();
    let args = ReportArgs::parse("matchbench", &[Flag::Bare("--quick"), Flag::Bare("--json")]);
    dps_bench::matchbench::gate(&args).finish(&args)
}
