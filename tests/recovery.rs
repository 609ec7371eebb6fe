//! Crash-point property test for the durability layer: cut the WAL at
//! **every byte boundary** and recover.
//!
//! A real crash does not respect record framing — the kernel may have
//! written any prefix of the log when the power goes. So the property
//! the recovery path must hold is quantified over *arbitrary*
//! truncation points, not just the frame boundaries the kill-point
//! harness exercises:
//!
//! for every prefix length `k` of the segment file, `recover` either
//!
//! * succeeds with some durable horizon `w` and a working memory
//!   **byte-identical** (via `encode_snapshot`) to a single-thread
//!   replay of the run's first `w` trace firings — a truncated trace
//!   that itself passes the §3 oracle ([`validate_trace`]) — or
//! * fails cleanly with a recovery error (a cut inside the segment
//!   header, for instance, leaves nothing to trust);
//!
//! and it **never** panics and never produces a half-applied batch
//! (half-applied states cannot be byte-identical to any whole-commit
//! prefix). Recovered horizons must also be monotone in `k`: more
//! surviving bytes can only ever expose more whole records.
//!
//! Two scenarios: a single-segment log (no checkpoints — redo carries
//! everything) and a checkpointed log (recovery seeds from the
//! snapshot and replays the suffix; the cut sweeps the *live* tail
//! segment).
//!
//! A third test holds the same recover-to-the-oracle-prefix property
//! for *external* (session) commits killed at each WAL kill site: they
//! go through the one commit section rule firings use, so the kill
//! arms must behave identically for them.

use std::fs;
use std::path::{Path, PathBuf};

use dps_bench::workloads;
use dps_core::semantics::validate_trace;
use dps_core::{DurabilityConfig, ParallelConfig, ParallelEngine, Trace};
use dps_lock::{FaultPlan, WalKillSite};
use dps_rules::RuleSet;
use dps_wm::{recover, WmeData, WorkingMemory};

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dps-crashcut-{tag}-{}", std::process::id()))
}

/// Serially replays the first `w` firings from `initial`, after
/// checking the truncated trace against the §3 oracle.
fn serial_prefix(rules: &RuleSet, initial: &WorkingMemory, trace: &Trace, w: usize) -> Vec<u8> {
    let prefix: Trace = trace.iter().take(w).collect();
    assert_eq!(prefix.len(), w, "the durable horizon lies within the trace");
    validate_trace(rules, initial, &prefix)
        .unwrap_or_else(|v| panic!("durable prefix of {w} firings fails the oracle: {v}"));
    let mut wm = initial.clone();
    for firing in prefix.iter() {
        wm.apply(&firing.delta).expect("prefix replay applies");
    }
    wm.encode_snapshot().expect("prefix snapshot encodes")
}

/// The sorted `.log` segment paths of a durability dir.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .expect("durability dir lists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    segs.sort();
    segs
}

/// Runs the counters workload durably, then sweeps every byte-boundary
/// cut of the final (live) segment, checking the recovery property at
/// each length.
fn sweep_every_byte_cut(tag: &str, checkpoint_interval: u64) {
    let dir = scratch(tag);
    let _ = fs::remove_dir_all(&dir);

    let (rules, wm) = workloads::counters(4, 3);
    let expected = 12u64;
    let initial = wm.clone();
    let mut engine = ParallelEngine::new(
        &rules,
        wm,
        ParallelConfig {
            workers: 4,
            durability: Some(DurabilityConfig { dir: dir.clone(), checkpoint_interval }),
            ..Default::default()
        },
    );
    let report = engine.run();
    assert_eq!(report.commits as u64, expected);
    let trace = report.trace.clone();

    // Precompute the serial-replay snapshot for every possible horizon
    // (recovery at a cut may land on any of them).
    let by_horizon: Vec<Vec<u8>> =
        (0..=expected as usize).map(|w| serial_prefix(&rules, &initial, &trace, w)).collect();

    let segs = segments(&dir);
    let tail = segs.last().expect("at least one segment").clone();
    let tail_bytes = fs::read(&tail).expect("tail segment reads");

    let cut_dir = scratch(&format!("{tag}-cut"));
    let mut horizons = Vec::new();
    let mut clean_failures = 0usize;
    let mut last_horizon = 0u64;
    for k in 0..=tail_bytes.len() {
        let _ = fs::remove_dir_all(&cut_dir);
        fs::create_dir_all(&cut_dir).expect("cut dir creates");
        for entry in fs::read_dir(&dir).expect("durability dir lists") {
            let p = entry.expect("dir entry").path();
            let name = p.file_name().expect("file name");
            fs::copy(&p, cut_dir.join(name)).expect("durability file copies");
        }
        fs::write(cut_dir.join(tail.file_name().expect("file name")), &tail_bytes[..k])
            .expect("cut tail writes");

        // The property: Ok(exact prefix) or a clean Err — never a
        // panic, never a half-applied state.
        match recover(&cut_dir) {
            Ok(rec) => {
                assert!(
                    rec.last_seq <= expected,
                    "cut at byte {k}: horizon {} past the run's {expected} commits",
                    rec.last_seq
                );
                assert!(
                    rec.last_seq >= last_horizon,
                    "cut at byte {k}: horizon {} below byte {}'s {last_horizon} — \
                     more bytes exposed fewer records",
                    rec.last_seq,
                    k.saturating_sub(1),
                );
                last_horizon = rec.last_seq;
                let got = rec.wm.encode_snapshot().expect("recovered snapshot encodes");
                assert_eq!(
                    got, by_horizon[rec.last_seq as usize],
                    "cut at byte {k}: recovered state diverges from the serial replay \
                     of its own horizon ({})",
                    rec.last_seq
                );
                horizons.push(rec.last_seq);
            }
            Err(_) => clean_failures += 1,
        }
    }

    // Not vacuous: the uncut log must recover the whole run, and the
    // sweep must actually have visited distinct horizons.
    assert_eq!(horizons.last().copied(), Some(expected), "uncut log recovers everything");
    let distinct = {
        let mut h = horizons.clone();
        h.sort_unstable();
        h.dedup();
        h.len()
    };
    assert!(
        distinct > 2,
        "only {distinct} distinct horizons over {} cuts — the sweep is not cutting \
         through records ({clean_failures} clean failures)",
        tail_bytes.len() + 1
    );

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&cut_dir);
}

#[test]
fn every_byte_cut_recovers_a_whole_prefix_or_fails_cleanly() {
    sweep_every_byte_cut("flat", 0);
}

#[test]
fn every_byte_cut_of_a_checkpointed_log_recovers_from_the_snapshot() {
    // 12 commits at interval 5: checkpoints at 5 and 10, so the live
    // tail segment holds records 11–12 (an interval dividing the run
    // length would leave the tail empty and the sweep vacuous).
    sweep_every_byte_cut("ckpt", 5);
}

/// A session commit dies at each kill site; recovery must land on the
/// site's durable horizon with a WM byte-identical to the serial replay
/// of that trace prefix. The first three commits are external inserts
/// into a class no rule reads, so commit 3 — the killed one — is a
/// session commit on every schedule; the deltas inserted after it fire
/// rules on a dead WAL, which keeps running in memory.
#[test]
fn killed_session_commit_recovers_to_the_oracle_prefix() {
    let rules = RuleSet::parse(
        "(p apply (delta ^key <k> ^v <v>) (acc ^key <k> ^total <t>)
           --> (remove 1) (modify 2 ^total (+ <t> <v>)))",
    )
    .unwrap();
    let mut initial = WorkingMemory::new();
    for k in 0..2i64 {
        initial.insert(WmeData::new("acc").with("key", k).with("total", 0i64));
    }
    for (tag, site, horizon) in [
        ("after-publish", WalKillSite::AfterPublish, 2),
        ("torn-tail", WalKillSite::TornTail, 2),
        ("after-sync", WalKillSite::AfterSync, 3),
    ] {
        let dir = scratch(&format!("session-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        let engine = ParallelEngine::new(
            &rules,
            initial.clone(),
            ParallelConfig {
                service: true,
                workers: 2,
                durability: Some(DurabilityConfig { dir: dir.clone(), checkpoint_interval: 0 }),
                fault: Some(FaultPlan {
                    wal_kill_commit: 3,
                    wal_kill_site: site,
                    ..Default::default()
                }),
                ..Default::default()
            },
        );
        let commit = |data: WmeData| {
            let mut xt = engine.external_begin();
            engine.external_insert(&mut xt, data).expect("insert admitted");
            engine.external_commit(&mut xt).expect("commit")
        };
        let report = std::thread::scope(|scope| {
            let run = scope.spawn(|| engine.run_shared());
            for n in 1..=3i64 {
                assert_eq!(commit(WmeData::new("note").with("n", n)), n as u64);
            }
            for i in 0..4i64 {
                commit(WmeData::new("delta").with("key", i % 2).with("v", 1i64));
            }
            engine.await_quiescence();
            engine.request_stop();
            run.join().expect("engine run")
        });
        assert_eq!(report.trace.len(), 3 + 4 + 4, "{tag}: the in-memory run drains");
        assert_eq!(report.fault_stats.expect("fault plan attached").wal_kills, 1, "{tag}");

        let rec = recover(&dir).unwrap_or_else(|e| panic!("{tag}: recovery failed: {e}"));
        assert_eq!(rec.last_seq, horizon, "{tag}: durable horizon");
        assert_eq!(rec.torn_tail, site == WalKillSite::TornTail, "{tag}");
        assert_eq!(
            rec.wm.encode_snapshot().expect("recovered snapshot encodes"),
            serial_prefix(&rules, &initial, &report.trace, horizon as usize),
            "{tag}: recovered state diverges from the serial replay of its horizon"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
