//! `e2e` — the repo's end-to-end benchmark.
//!
//! Four long workloads (two through `dps-server`, two straight into
//! `ParallelEngine`), eleven end-to-end metrics with regression bounds,
//! and a per-layer budget measured **from outside**: client-side spans
//! around every call, counters from the public reports, and replay
//! probes that push a run's own recorded inputs single-threaded through
//! one layer's public API at a time. See `README.md` next to this
//! crate's manifest for every name, unit, bound and count.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cli;
mod engine;
mod gen;
mod probe;
mod report;
mod run;
mod session;
mod span;
mod spec;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use dps_obs::json::{parse, Json};

use cli::Opts;
use report::Header;
use run::{Outcome, Params};
use spec::{Workload, CHECK_DIVISOR, DEFAULT_SECONDS, REPS};

/// Thread budget of every workload; recorded in every result set, and
/// two sets with different budgets refuse to compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Closed-loop client threads, `min(2·nproc, 8)`: enough callers
    /// that no core idles between replies (an idle core's wake-up cost
    /// is the box's, not the system's, and made runs bimodal).
    pub clients: usize,
    /// Engine worker threads, `min(nproc, 4)`.
    pub workers: usize,
}

impl Shape {
    fn detect() -> Shape {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Shape {
            nproc,
            clients: (2 * nproc).min(8),
            workers: nproc.min(4),
        }
    }
}

/// Scratch space for WAL directories and span dumps: inside the
/// current directory (the checkout), never elsewhere.
pub const WORK_DIR: &str = ".e2e_work";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let ok = match command {
        cli::Command::Run(o) => match o.workload {
            Some(w) => run_one(w, &o),
            None => run_set(&o),
        },
        cli::Command::Check(o) => check(&o),
        cli::Command::Repeat(o) => repeat(&o),
        cli::Command::Compare(a, b) => compare_files(&a, &b),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn header(o: &Opts, millis: u64, commit: String) -> Header {
    Header {
        commit,
        shape: Shape::detect(),
        seed: o.seed,
        millis,
        traced: o.traced,
    }
}

fn write_json(path: &Path, doc: &Json) -> bool {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(path, doc.to_string_pretty() + "\n") {
        Ok(()) => true,
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", path.display());
            false
        }
    }
}

/// `run --workload W`: the whole workload, once, in this process. The
/// last line of standard output is the driver's result line.
fn run_one(workload: Workload, o: &Opts) -> bool {
    let millis = o.seconds * 1000;
    let outcome = run::run_workload(
        workload,
        &Params {
            shape: Shape::detect(),
            seed: o.seed,
            millis,
            traced: o.traced,
            validate: false,
        },
    );
    let block = report::outcome_json(&outcome);
    print!("{}", report::render(&block));
    let mut ok = outcome.failures.is_empty();
    if let Some(path) = &o.out {
        let doc = report::set_json(&header(o, millis, "unknown".into()), vec![block]);
        ok &= write_json(path, &doc);
    }
    println!("{}", report::driver_line(&outcome, o.traced));
    ok
}

/// `HEAD`, with `-dirty` appended when the tree differs from it.
fn commit_hash() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// One run of `w` in a child process (so `peak_rss_mb` is the run's
/// own); its block, or `None` when the child produced none.
fn child_run(exe: &Path, w: Workload, o: &Opts, traced: bool) -> Option<(Json, bool)> {
    let part = PathBuf::from(WORK_DIR).join(format!("{}-{}.json", w.name(), std::process::id()));
    let status = Command::new(exe)
        .args(["run", "--workload", w.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&part)
        .stdout(Stdio::null())
        .status();
    let block = std::fs::read_to_string(&part)
        .ok()
        .and_then(|s| parse(&s).ok())
        .and_then(|doc| {
            doc.get("workloads")
                .and_then(Json::as_arr)
                .and_then(|a| a.first().cloned())
        });
    let _ = std::fs::remove_file(&part);
    block.map(|b| (b, status.is_ok_and(|s| s.success())))
}

/// One result set per tag: [`REPS`] runs of every workload each,
/// merged. With several tags the sets' runs alternate (A, B, A, B, …),
/// so a change of the box's speed lands on both. The traced phase runs
/// once per set, in its first run. Returns the sets and whether every
/// run was correct and every traced set passed [`report::acceptance`].
fn run_sets(o: &Opts, tags: &[&str]) -> Option<(Vec<Json>, bool)> {
    let exe = std::env::current_exe().ok()?;
    let millis = o.seconds * 1000;
    let h = header(o, millis, commit_hash());
    println!(
        "e2e: commit {} nproc {} clients {} workers {} seed {} seconds {} traced {}, {} run(s) of each workload per set",
        h.commit, h.shape.nproc, h.shape.clients, h.shape.workers, h.seed, o.seconds, h.traced, REPS
    );
    std::fs::create_dir_all(WORK_DIR).ok()?;
    // runs[tag][workload] = that workload's blocks, in run order.
    let mut runs: Vec<Vec<Vec<Json>>> = vec![vec![Vec::new(); Workload::ALL.len()]; tags.len()];
    let mut ok = true;
    for rep in 0..REPS {
        for (t, tag) in tags.iter().enumerate() {
            for (i, w) in Workload::ALL.into_iter().enumerate() {
                let started = std::time::Instant::now();
                let run = child_run(&exe, w, o, o.traced && rep == 0);
                println!(
                    "{tag} run {}/{REPS} {:<16} {} ({:.1} s)",
                    rep + 1,
                    w.name(),
                    match &run {
                        Some((_, true)) => "ok",
                        Some((_, false)) => "FAILED",
                        None => "produced no result",
                    },
                    started.elapsed().as_secs_f64()
                );
                ok &= run.as_ref().is_some_and(|(_, good)| *good);
                runs[t][i].extend(run.map(|(block, _)| block));
            }
        }
    }
    let mut sets = Vec::new();
    for (tag, per_workload) in tags.iter().zip(runs) {
        let blocks: Vec<Json> = per_workload
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| report::merge(r))
            .collect();
        println!("---- {tag}");
        for b in &blocks {
            print!("{}", report::render(b));
        }
        let set = report::set_json(&h, blocks);
        ok &= accepted(&set, tag);
        sets.push(set);
    }
    println!("e2e: {}", if ok { "all runs correct" } else { "FAILED" });
    Some((sets, ok))
}

/// Prints what [`report::acceptance`] finds in `set`; `false` on a
/// violation.
fn accepted(set: &Json, tag: &str) -> bool {
    let found = report::acceptance(set);
    for unresolved in &found.unresolved {
        println!("ACCEPTANCE {tag} unresolved: {unresolved}");
    }
    for violation in &found.violations {
        println!("ACCEPTANCE {tag} violated: {violation}");
    }
    found.violations.is_empty()
}

/// `run` without `--workload`: one merged set of every workload.
fn run_set(o: &Opts) -> bool {
    let Some((sets, mut ok)) = run_sets(o, &["run"]) else {
        return false;
    };
    if let Some(path) = &o.out {
        ok &= write_json(path, &sets[0]);
    }
    ok
}

/// `check`: every workload at 1/20 size, traced, with the full §3
/// replay of both phases' traces.
fn check(o: &Opts) -> bool {
    let millis = DEFAULT_SECONDS * 1000 / CHECK_DIVISOR;
    let workloads: Vec<Workload> = o.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    let mut blocks = Vec::new();
    for w in workloads {
        let outcome: Outcome = run::run_workload(
            w,
            &Params {
                shape: Shape::detect(),
                seed: o.seed,
                millis,
                traced: true,
                validate: true,
            },
        );
        let block = report::outcome_json(&outcome);
        if o.traced {
            print!("{}", report::render(&block));
        }
        println!(
            "check {:<16} {} ({} commits replayed through the §3 oracle twice)",
            w.name(),
            if outcome.failures.is_empty() {
                "PASS"
            } else {
                "FAIL"
            },
            outcome
                .exact
                .iter()
                .find(|(k, _)| *k == "parallel.commits")
                .map_or(0, |(_, v)| *v),
        );
        for f in &outcome.failures {
            println!("   FAIL {f}");
        }
        ok &= outcome.failures.is_empty();
        blocks.push(block);
    }
    if let Some(path) = &o.out {
        let h = Header {
            traced: true,
            ..header(o, millis, commit_hash())
        };
        ok &= write_json(path, &report::set_json(&h, blocks));
    }
    println!("check: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

/// `repeat`: two full sets of the same commit, their runs alternating;
/// they must agree within every bound (or be unresolved), both ways,
/// and on every exact counter.
fn repeat(o: &Opts) -> bool {
    if o.workload.is_some() {
        eprintln!("error: repeat always runs every workload");
        return false;
    }
    let Some((sets, mut ok)) = run_sets(o, &["set-a", "set-b"]) else {
        return false;
    };
    if let Some(dir) = &o.out {
        ok &= write_json(&dir.join("set-a.json"), &sets[0]);
        ok &= write_json(&dir.join("set-b.json"), &sets[1]);
    }
    let c = report::compare(&sets[0], &sets[1], true);
    print!("{}", c.render());
    ok && c.ok()
}

fn compare_files(a: &Path, b: &Path) -> bool {
    let load = |p: &Path| -> Option<Json> {
        let text = std::fs::read_to_string(p)
            .map_err(|e| eprintln!("error: {}: {e}", p.display()))
            .ok()?;
        parse(&text)
            .map_err(|e| eprintln!("error: {}: {e}", p.display()))
            .ok()
    };
    let (Some(a), Some(b)) = (load(a), load(b)) else {
        return false;
    };
    let c = report::compare(&a, &b, false);
    print!("{}", c.render());
    c.ok() & accepted(&a, "A") & accepted(&b, "B")
}
