//! The coordination-avoidance gate (see [`dps_bench::commute`]): §4
//! locking vs lock-elided commit for provably-commutative firings.
//! Usage: `commute [--quick] [--json] [--workers N] [--seed S]
//! [--work-us U]`; with `--json` the `dps-report-v2` document goes to
//! stdout (human summary to stderr). Exit 0 iff every gate holds.

use std::process::ExitCode;

use dps_bench::commute::{gate, FLAGS};
use dps_bench::harness::ReportArgs;

fn main() -> ExitCode {
    dps_server::shutdown::install();
    let args = ReportArgs::parse("commute", FLAGS);
    gate(&args).finish(&args)
}
