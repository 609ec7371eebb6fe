//! The trace-analysis gate (see [`dps_bench::analysis::gate`]): both
//! lock protocols on a contended workload, each run explained
//! (contention table, critical path, wasted-work `f`) and certified
//! (`ES_M ⊆ ES_single`, §3 Theorem 2). Usage: `analyze [--quick]
//! [--json] [--workers N]`; with `--json` the `dps-report-v2` document
//! goes to stdout (human tables to stderr). Exit 0 iff every gate holds.

use std::process::ExitCode;

use dps_bench::harness::{Flag, ReportArgs};

fn main() -> ExitCode {
    dps_server::shutdown::install();
    let flags = [
        Flag::Bare("--quick"),
        Flag::Bare("--json"),
        Flag::Int("--workers"),
    ];
    let args = ReportArgs::parse("analyze", &flags);
    dps_bench::analysis::gate(&args).finish(&args)
}
