//! End-to-end tests of the multi-session front door.
//!
//! Two ISSUE-9 claims, checked from outside the crate through the wire
//! protocol only:
//!
//! * **Determinism across interleavings** — K concurrent sessions
//!   writing disjoint key namespaces converge to a working memory
//!   fingerprint-identical to the same K sessions driven one at a
//!   time. The fingerprint is content-based (class + sorted attrs,
//!   ignoring WME ids and timestamps), because ids and arrival order
//!   legitimately differ between schedules.
//! * **Disconnect safety at scale** — ~150 sessions killed
//!   mid-transaction by the `disconnects` chaos plan (dropped after
//!   `Begin`, dropped between writes and commit, stalled past the
//!   transaction budget) leave **zero** held locks, **zero** snapshot
//!   pins, and a commit history the §3 single-thread oracle accepts.

use std::collections::BTreeMap;
use std::time::Duration;

use dbps::engine::semantics::validate_trace;
use dbps::engine::ParallelConfig;
use dbps::rules::RuleSet;
use dbps::server::{
    loopback_pair, read_frame, write_frame, AdmissionConfig, LoopbackConn, Request, Response,
    Server, ServerConfig, SessionTimeouts,
};
use dbps::wm::{Value, WmeData, WorkingMemory};
use dps_bench::server_load::{run_leg, LoadSpec};

/// Class → multiset of (attr, value) rows, ignoring ids and
/// timestamps: the order-independent fingerprint of a working memory.
fn fingerprint(wm: &WorkingMemory) -> BTreeMap<String, Vec<String>> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for w in wm.iter() {
        let row: Vec<String> = w
            .data
            .attrs
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        out.entry(w.class().to_string())
            .or_default()
            .push(row.join(","));
    }
    for rows in out.values_mut() {
        rows.sort();
    }
    out
}

fn accumulator_rules() -> RuleSet {
    RuleSet::parse(
        "(p apply (delta ^key <k> ^v <v>) (acc ^key <k> ^total <t>)
           --> (remove 1) (modify 2 ^total (+ <t> <v>)))",
    )
    .unwrap()
}

fn acc_wm(keys: i64) -> WorkingMemory {
    let mut wm = WorkingMemory::new();
    for k in 0..keys {
        wm.insert(WmeData::new("acc").with("key", k).with("total", 0i64));
    }
    wm
}

fn rpc(conn: &mut LoopbackConn, req: &Request) -> Response {
    write_frame(conn, &req.encode()).unwrap();
    let body = read_frame(conn).unwrap().expect("response frame");
    Response::decode(&body).unwrap()
}

/// One session's whole script: `txns` transactions, each inserting one
/// delta into the session's own key range (`base .. base + keys`).
fn drive(mut conn: LoopbackConn, base: i64, keys: i64, txns: usize) {
    assert!(matches!(rpc(&mut conn, &Request::Hello), Response::Granted { .. }));
    for t in 0..txns {
        assert!(matches!(rpc(&mut conn, &Request::Begin), Response::Ok { .. }));
        let key = base + (t as i64 % keys);
        let req = Request::Insert {
            class: "delta".into(),
            attrs: vec![("key".into(), Value::Int(key)), ("v".into(), Value::Int(1))],
        };
        assert!(matches!(rpc(&mut conn, &req), Response::Ok { .. }));
        match rpc(&mut conn, &Request::Commit) {
            Response::Ok { seq } => assert!(seq > 0, "commit must carry a sequence"),
            other => panic!("commit failed: {other:?}"),
        }
    }
    assert!(matches!(rpc(&mut conn, &Request::Bye), Response::Bye));
}

/// Builds a K-session server over the disjoint-namespace workload and
/// runs it with the given client driver.
fn run_sessions(
    k: usize,
    keys_per_session: i64,
    txns: usize,
    concurrent: bool,
) -> (BTreeMap<String, Vec<String>>, usize) {
    let rules = accumulator_rules();
    let initial = acc_wm(k as i64 * keys_per_session);
    let server = Server::new(
        &rules,
        initial.clone(),
        ParallelConfig { workers: 3, ..ParallelConfig::default() },
        ServerConfig {
            admission: AdmissionConfig { enabled: false, ..AdmissionConfig::default() },
            // Sequential driving leaves later connections silent for a
            // while — no idle deadline, and a roomy transaction budget.
            timeouts: SessionTimeouts { idle_read: None, txn: Duration::from_secs(5) },
            stamp_session: true,
            stop: None,
        },
    );
    let mut server_ends = Vec::new();
    let mut client_ends = Vec::new();
    for _ in 0..k {
        let (a, b) = loopback_pair();
        server_ends.push(a);
        client_ends.push(b);
    }
    let report = std::thread::scope(|s| {
        let srv = s.spawn(|| server.run(server_ends));
        if concurrent {
            let handles: Vec<_> = client_ends
                .into_iter()
                .enumerate()
                .map(|(i, conn)| {
                    s.spawn(move || drive(conn, i as i64 * keys_per_session, keys_per_session, txns))
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        } else {
            for (i, conn) in client_ends.into_iter().enumerate() {
                drive(conn, i as i64 * keys_per_session, keys_per_session, txns);
            }
        }
        let (report, _) = srv.join().unwrap();
        report
    });
    assert_eq!(server.engine().held_locks(), 0, "lock leak after drain");
    assert_eq!(server.engine().snapshot_pins(), 0, "pin leak after drain");
    validate_trace(&rules, &initial, &report.trace).expect("§3 oracle must accept the history");
    (fingerprint(&server.engine().final_wm()), report.commits)
}

#[test]
fn concurrent_disjoint_sessions_match_sequential_fingerprint() {
    let (k, keys, txns) = (6usize, 4i64, 12usize);
    let (concurrent, c_commits) = run_sessions(k, keys, txns, true);
    let (sequential, s_commits) = run_sessions(k, keys, txns, false);
    // Every delta folded by exactly one rule firing, in both schedules.
    assert_eq!(c_commits, k * txns);
    assert_eq!(s_commits, k * txns);
    assert_eq!(
        concurrent, sequential,
        "concurrent and sequential schedules must converge to the same WM"
    );
    // And the converged state is the arithmetic truth: key j of session
    // i received ceil/floor(txns / keys) increments.
    let accs = &concurrent["acc"];
    assert_eq!(accs.len(), (k as i64 * keys) as usize);
    for (i, row) in accs.iter().enumerate() {
        let per_key = txns as i64 / keys + i64::from((i as i64 % keys) < (txns as i64 % keys));
        assert!(
            row.contains(&format!("total={per_key}")),
            "acc row {i} should have total {per_key}: {row}"
        );
    }
}

#[test]
fn hundred_disconnects_leak_nothing_and_replay() {
    // ~150 sessions, each with ~87% odds of dying mid-transaction over
    // its 8 transactions under the `disconnects` plan, gives well over
    // 100 injected mid-transaction deaths.
    let spec = LoadSpec {
        seed: 0x6B_2026,
        sessions: 8,
        chaos_sessions: 192,
        txns_per_session: 8,
        keys: 32,
        zipf_s: 1.0,
        workers: 3,
        txn_timeout_ms: 250,
        min_disconnects: 100,
        stop: None,
    };
    let leg = run_leg(&spec, "chaos", 0.0, 0.0, false, 0.0, true);
    assert!(
        leg.server.disconnects >= 100,
        "expected >= 100 injected disconnects, got {}",
        leg.server.disconnects
    );
    assert_eq!(leg.held_locks, 0, "disconnects leaked locks");
    assert_eq!(leg.snapshot_pins, 0, "disconnects leaked snapshot pins");
    assert!(leg.leg.passes(), "§3 oracle rejected the history: {:?}", leg.leg.replay);
    assert!(leg.reconciled(), "session books must balance after the storm");
}
