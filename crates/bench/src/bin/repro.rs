//! `repro` — regenerates every table and figure of *Parallelism in
//! Database Production Systems* (ICDE 1990), plus the extension
//! experiments indexed in `EXPERIMENTS.md`.
//!
//! Usage:
//! ```text
//! repro                # run everything
//! repro --exp e5.1     # one experiment (e3.2, e4.1..e4.4, e5.1..e5.4, x1..x9)
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use dps_bench::analysis::{certified_run, Leg};
use dps_bench::harness::{Flag, ReportArgs};
use dps_bench::workloads;
use dps_core::abstract_model::{fmt_seq, paper33_example};
use dps_core::semantics::{validate_trace, ExecutionGraph};
use dps_core::{ParallelConfig, SelectionMode, StaticConfig, StaticParallelEngine, WorkModel};
use dps_lock::{
    compatibility_table, res_of_key, ConflictPolicy, LockError, LockManager, LockMode, Protocol,
    ResourceId, TxnId,
};
use dps_obs::{EventKind, Recorder};
use dps_rules::analysis::Granularity;
use dps_sim::scenario::all_figures;
use dps_sim::{simulate_multi, sweep, Outcome};

fn main() {
    let args = ReportArgs::parse("repro", &[Flag::Text("--exp")]);
    let pick = args.text("--exp").map(str::to_lowercase);
    let want = |id: &str| pick.as_deref().is_none_or(|p| p == id);

    println!("Reproduction of: Srivastava, Hwang & Tan,");
    println!("\"Parallelism in Database Production Systems\", ICDE 1990, pp. 121-128");
    println!("(paper value in parentheses where the paper prints one)\n");

    if want("e3.2") {
        e3_2();
    }
    if want("e4.1") {
        e4_1();
    }
    if want("e4.2") {
        e4_2();
    }
    if want("e4.3") {
        e4_3();
    }
    if want("e4.4") {
        e4_4();
    }
    if pick.as_deref().is_none_or(|p| p.starts_with("e5")) {
        e5(pick.as_deref());
    }
    if want("x1") {
        x1();
    }
    if want("x2") {
        x2();
    }
    if want("x3") {
        x3();
    }
    if want("x5") {
        x5();
    }
    if want("x7") {
        x7();
    }
    if want("x9") {
        x9();
    }
}

fn header(title: &str) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

/// One-cell digest of a certified, observed leg: wasted-work fraction
/// `f`, effective parallelism, and the checker's verdict. Used by the
/// dynamic-engine experiments (X2/X3/X7), which all run with
/// `observe: true`.
fn obs_digest(leg: &Leg) -> String {
    let c = &leg.analysis.as_ref().expect("observe: true").critical;
    format!(
        "f {:.2}, eff {:.1}x, {}",
        c.wasted_fraction,
        c.effective_parallelism,
        leg.verdict().name()
    )
}

/// E3.2 — §3.3 example + Figure 3.2: the execution graph and ES_single.
fn e3_2() {
    header("E3.2  Figure 3.2 / §3.3 — execution graph and ES_single");
    let sys = paper33_example();
    let g = ExecutionGraph::build(&sys, 10_000);
    println!("initial conflict set: {{p1, p2, p3, p5}}  (paper: {{P1,P2,P3,P5}})");
    println!("\nexecution graph ({} states):", g.state_count());
    println!("{}", g.render());
    let seqs = g.maximal_sequences(100, 100);
    println!(
        "\nES_single maximal sequences ({}; paper lists 9):",
        seqs.len()
    );
    for s in &seqs {
        println!("  {}", fmt_seq(s));
    }
    println!();
}

/// E4.1 — Table 4.1 + Figure 4.1 (standard 2PL acquisition trace).
fn e4_1() {
    header("E4.1  Table 4.1 — lock compatibility matrix; Figure 4.1 — 2PL protocol");
    println!("{}", compatibility_table());
    println!("Figure 4.1 protocol trace (S for LHS reads, X for RHS writes):");
    // Two condition reads, then the RHS write upgrades the second.
    print_protocol_trace(&[(1, LockMode::S), (2, LockMode::S), (2, LockMode::X)]);
    println!();
}

/// E4.2 — Figure 4.2: Rc for condition evaluation, Ra/Wa for the RHS.
fn e4_2() {
    header("E4.2  Figure 4.2 — improved acquisition with Rc locks");
    print_protocol_trace(&[
        (1, LockMode::Rc),
        (2, LockMode::Rc),
        (1, LockMode::Ra),
        (2, LockMode::Wa),
    ]);
    println!();
}

/// E4.3 — Figures 4.3(a)/(b): the two commit orders of an Rc–Wa conflict.
fn e4_3() {
    header("E4.3  Figure 4.3 — Rc–Wa conflict, both commit orders");
    // (a) reader commits first: both commit, serial order Pj Pi.
    let lm = LockManager::new(ConflictPolicy::AbortReaders);
    let pj = lm.begin();
    let pi = lm.begin();
    lm.lock(pj, ResourceId::Tuple(1), LockMode::Rc).unwrap();
    lm.lock(pi, ResourceId::Tuple(1), LockMode::Wa).unwrap();
    let oj = lm.commit(pj).unwrap();
    let oi = lm.commit(pi).unwrap();
    println!(
        "(a) Pj(Rc) commits first: both commit, {} doomed -> serial order Pj Pi",
        oi.doomed_readers.len() + oj.doomed_readers.len()
    );
    // (b) writer commits first: reader forced to abort.
    let lm = LockManager::new(ConflictPolicy::AbortReaders);
    let pj = lm.begin();
    let pi = lm.begin();
    lm.lock(pj, ResourceId::Tuple(1), LockMode::Rc).unwrap();
    lm.lock(pi, ResourceId::Tuple(1), LockMode::Wa).unwrap();
    let oi = lm.commit(pi).unwrap();
    let rj = lm.commit(pj);
    println!(
        "(b) Pi(Wa) commits first: Pi dooms {} reader(s); Pj -> {}",
        oi.doomed_readers.len(),
        match rj {
            Err(LockError::DoomedByWriter { .. }) => "forced abort (as the paper requires)",
            other => unreachable!("unexpected: {other:?}"),
        }
    );
    println!();
}

/// E4.4 — Figure 4.4: circular Rc–Wa dependency → exactly one commits.
fn e4_4() {
    header("E4.4  Figure 4.4 — circular conflict dependency");
    let lm = LockManager::new(ConflictPolicy::AbortReaders);
    let pi = lm.begin();
    let pj = lm.begin();
    let (q, r) = (ResourceId::Tuple(1), ResourceId::Tuple(2));
    lm.lock(pi, q, LockMode::Rc).unwrap();
    lm.lock(pj, r, LockMode::Rc).unwrap();
    lm.lock(pi, r, LockMode::Wa).unwrap();
    lm.lock(pj, q, LockMode::Wa).unwrap();
    println!("Pi holds Rc(q)+Wa(r); Pj holds Rc(r)+Wa(q)  — all granted (Rc || Wa)");
    let first = lm.commit(pi).unwrap();
    let second = lm.commit(pj);
    println!(
        "Pi commits -> dooms {:?}; Pj commit -> {}",
        first.doomed_readers,
        if second.is_err() {
            "aborted"
        } else {
            "committed (BUG)"
        }
    );
    println!("exactly one of the two commits, as required\n");
}

/// E5.1–E5.4 — the §5 figures via the discrete-event simulator.
fn e5(pick: Option<&str>) {
    header("E5.1-E5.4  Figures 5.1-5.4 — single vs multiple thread execution");
    for fig in all_figures() {
        let id = fig.id.to_lowercase().replace("figure ", "e");
        if pick.is_some_and(|p| p != id) {
            continue;
        }
        println!("{}", fig.row());
        let sys = match fig.id {
            "Figure 5.1" | "Figure 5.4" => dps_core::abstract_model::paper51_base(),
            "Figure 5.2" => dps_core::abstract_model::paper52_conflict(),
            _ => dps_core::abstract_model::paper51_base().with_time(1, 4),
        };
        let m = simulate_multi(&sys, fig.processors);
        for proc in 0..fig.processors {
            let bars: Vec<String> = m
                .segments
                .iter()
                .filter(|s| s.processor == proc)
                .map(|s| {
                    format!(
                        "{} [{}..{}{}]",
                        s.p,
                        s.start,
                        s.end,
                        if s.outcome == Outcome::Aborted {
                            " ABORTED"
                        } else {
                            ""
                        }
                    )
                })
                .collect();
            println!(
                "    proc {proc}: {}",
                if bars.is_empty() {
                    "idle".to_string()
                } else {
                    bars.join("  ")
                }
            );
        }
        println!(
            "    status: {}",
            if fig.matches_paper() {
                "MATCHES PAPER"
            } else {
                "DIVERGES"
            }
        );
        println!();
    }
}

/// X1 — extension sweeps over the three §5 factors.
fn x1() {
    header("X1  Speed-up sweeps (randomized abstract systems, 16 productions, mean of 20 seeds)");
    println!("degree of conflict (Np = 8):");
    println!("  density | speedup | wasted fraction");
    for p in sweep::conflict_sweep(&[0.0, 0.05, 0.1, 0.2, 0.4, 0.8], 8, 20) {
        println!(
            "  {:>7.2} | {:>7.2} | {:.3}",
            p.x, p.speedup, p.wasted_fraction
        );
    }
    println!("\nnumber of processors (density = 0.05):");
    println!("  Np | speedup");
    for p in sweep::processor_sweep(&[1, 2, 4, 8, 16], 0.05, 20) {
        println!("  {:>2} | {:>7.2}", p.x as usize, p.speedup);
    }
    println!("\nexecution-time spread (times 1..=max, Np = 8):");
    println!("  max T | speedup");
    for p in sweep::time_skew_sweep(&[1, 4, 16, 64], 8, 20) {
        println!("  {:>5} | {:>7.2}", p.x as u64, p.speedup);
    }
    println!();
}

/// X2 — measured wall-clock: Rc/Ra/Wa vs 2PL with long RHSs.
fn x2() {
    header("X2  Measured: Rc/Ra/Wa vs 2PL, long RHS, varying contention (wall-clock)");
    println!("workload: 24 tasks charge K shared tallies; RHS busy-works 2 ms; 8 workers\n");
    println!("  tallies | protocol |  wall (ms) | commits | aborts | trace analysis");
    for &resources in &[24usize, 8, 2, 1] {
        for (name, protocol) in [
            ("2PL    ", Protocol::TwoPhase),
            ("RcRaWa ", Protocol::RcRaWa),
        ] {
            let (rules, wm) = workloads::shared_resources(24, resources);
            let leg = certified_run(
                &rules,
                wm,
                ParallelConfig {
                    protocol,
                    policy: ConflictPolicy::AbortReaders,
                    workers: 8,
                    work: WorkModel::FixedMicros(2000),
                    observe: true,
                    ..Default::default()
                },
            );
            assert!(leg.passes(), "semantic consistency: {:?} {:?}", leg.errors, leg.replay);
            println!(
                "  {:>7} | {name} | {:>10.1} | {:>7} | {:>6} | {}",
                resources,
                leg.secs * 1e3,
                leg.report.commits,
                leg.report.aborts.total(),
                obs_digest(&leg)
            );
        }
    }
    println!("\n(the paper's claim: Rc lets new condition evaluations overlap a long RHS,");
    println!(" so the improved scheme's advantage grows with RHS length and contention)\n");
}

/// X3 — abort-on-commit vs revalidation on relation-level false conflicts.
fn x3() {
    header("X3  Conflict-policy ablation: AbortReaders vs Revalidate (false conflicts)");
    println!("workload: 12 guards with negated CEs (relation-level Rc), 12 producers\n");
    println!("  policy       | commits | doomed | revalidation aborts | stale | trace analysis");
    for (name, policy) in [
        ("AbortReaders", ConflictPolicy::AbortReaders),
        ("Revalidate  ", ConflictPolicy::Revalidate),
    ] {
        let (rules, wm) = workloads::false_conflicts(12, 12);
        let leg = certified_run(
            &rules,
            wm,
            ParallelConfig {
                protocol: Protocol::RcRaWa,
                policy,
                workers: 8,
                work: WorkModel::FixedMicros(500),
                observe: true,
                ..Default::default()
            },
        );
        assert!(leg.passes(), "semantic consistency: {:?} {:?}", leg.errors, leg.replay);
        let aborts = leg.report.aborts;
        println!(
            "  {name} | {:>7} | {:>6} | {:>19} | {:>5} | {}",
            leg.report.commits,
            aborts.doomed,
            aborts.revalidation,
            aborts.stale,
            obs_digest(&leg)
        );
    }
    println!("\n(producers never touch the guards' WMEs, yet AbortReaders kills guards on");
    println!(" any escalated-relation overlap; Revalidate keeps the survivors — the paper's");
    println!(" \"reevaluate Pj's condition\" alternative)\n");
}

/// X5 — static (Theorem 1) vs dynamic-footprint selection.
fn x5() {
    header("X5  Static vs dynamic parallel engines (manufacturing pipeline, 12 jobs x 6 stages)");
    println!("  mode                     | cycles | commits | analytic speedup");
    let mut cost = HashMap::new();
    cost.insert(dps_wm::Atom::from("advance"), 3u64);
    for (name, mode) in [
        (
            "static rules (class)    ",
            SelectionMode::StaticRules(Granularity::Class),
        ),
        (
            "static rules (class+att)",
            SelectionMode::StaticRules(Granularity::ClassAttribute),
        ),
        ("dynamic footprints      ", SelectionMode::DynamicFootprints),
    ] {
        let (rules, wm) = workloads::manufacturing(12, 6);
        let initial = wm.clone();
        let mut engine = StaticParallelEngine::new(
            &rules,
            wm,
            StaticConfig {
                mode,
                max_width: 16,
                rule_cost: cost.clone(),
                ..Default::default()
            },
        );
        let report = engine.run();
        validate_trace(&rules, &initial, &report.trace).expect("semantic consistency");
        println!(
            "  {name} | {:>6} | {:>7} | {:>6.2}",
            report.cycles,
            report.commits,
            report.speedup()
        );
    }
    println!("\n(rule-level static analysis self-serialises the advance rule — the paper's");
    println!(" conservatism argument; run-time footprints recover the per-job parallelism)\n");
}

/// X7 — Rc lock-escalation ablation (§4.3's closing paragraph).
fn x7() {
    header("X7  Rc escalation ablation: tuple locks vs relation locks (Sec 4.3)");
    println!("workload: 24 tasks, 8 tallies, 0.5 ms RHS, 8 workers\n");
    println!("  escalation | policy       |  wall (ms) | aborts (doomed/reval/stale) | trace analysis");
    for (esc_name, esc) in [("never ", None), ("always", Some(0usize))] {
        for (pol_name, policy) in [
            ("AbortReaders", ConflictPolicy::AbortReaders),
            ("Revalidate  ", ConflictPolicy::Revalidate),
        ] {
            let (rules, wm) = workloads::shared_resources(24, 8);
            let leg = certified_run(
                &rules,
                wm,
                ParallelConfig {
                    protocol: Protocol::RcRaWa,
                    policy,
                    workers: 8,
                    work: WorkModel::FixedMicros(500),
                    rc_escalation: esc,
                    observe: true,
                    ..Default::default()
                },
            );
            assert!(leg.passes(), "semantic consistency: {:?} {:?}", leg.errors, leg.replay);
            let aborts = leg.report.aborts;
            println!(
                "  {esc_name}     | {pol_name} | {:>10.1} | {:>3} ({}/{}/{}) | {}",
                leg.secs * 1e3,
                aborts.total(),
                aborts.doomed,
                aborts.revalidation,
                aborts.stale,
                obs_digest(&leg)
            );
        }
    }
    println!("\n(escalating every Rc to its relation cuts lock traffic but manufactures");
    println!(" false conflicts; Revalidate absorbs them, AbortReaders pays in retries)\n");
}

/// X9 — Example 5.1: multiple threads on a uniprocessor never beat the
/// single thread (time slicing only adds wasted partial work).
fn x9() {
    use dps_sim::{simulate_multi_uniprocessor, single_thread_time};
    header("X9  Example 5.1 — uniprocessor multiple-thread overhead");
    println!("  system      | quantum | T_single(sigma) | T_multi,uni | wasted");
    for (name, sys) in [
        ("base (5.1) ", dps_core::abstract_model::paper51_base()),
        ("conflict 5.2", dps_core::abstract_model::paper52_conflict()),
    ] {
        for quantum in [1u64, 2, 100] {
            let uni = simulate_multi_uniprocessor(&sys, quantum);
            let t_single = single_thread_time(&sys, &uni.commit_seq);
            println!(
                "  {name} | {quantum:>7} | {:>15} | {:>11} | {:>6}",
                t_single, uni.makespan, uni.wasted
            );
            assert!(uni.makespan >= t_single);
        }
    }
    println!("\n(T_multi,uni = T_single + wasted, so the single thread always wins on one");
    println!(" processor — the paper's justification for requiring a multiprocessor)\n");
}

/// Runs one transaction that takes `locks` (tuple id, mode) in order
/// and commits, then prints the lock manager's recorded events.
fn print_protocol_trace(locks: &[(u64, LockMode)]) {
    let rec = Arc::new(Recorder::default());
    let lm = LockManager::builder().obs(Arc::clone(&rec)).build();
    let p = lm.begin();
    for &(tuple, mode) in locks {
        lm.lock(p, ResourceId::Tuple(tuple), mode).unwrap();
    }
    lm.commit(p).unwrap();
    for e in rec.history() {
        let t = TxnId(e.txn);
        match e.kind {
            EventKind::Begin => println!("  {t}: begin"),
            EventKind::Grant { resource, mode } => {
                println!("  {t}: granted {mode} on {}", res_of_key(resource))
            }
            EventKind::Commit => println!("  {t}: commit (all locks released)"),
            other => println!("  {t}: {other:?}"),
        }
    }
}
