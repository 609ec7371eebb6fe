//! Replay probes: after a traced run, the run's own recorded inputs
//! (its commit trace, its request streams) are pushed single-threaded
//! through one layer's public API at a time. The result is that
//! layer's *uncontended service time* per operation; what the run's
//! end-to-end time holds beyond the sum of these is coordination
//! (lock waits, base-mutex waits, thread hand-offs, group-commit
//! waits).

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use dps_core::{ParallelConfig, ParallelEngine, Trace};
use dps_lock::{ConflictPolicy, LockManager, LockMode, Protocol, ResourceId};
use dps_match::{ShardedRete, DEFAULT_MATCH_SHARDS};
use dps_rules::RuleSet;
use dps_server::{AdmissionConfig, AdmissionController, Request, Response};
use dps_wm::{Atom, Change, DurableWm, VersionedStore, WmeData, WmeId, WorkingMemory};

use crate::gen::Txn;
use crate::session::{insert_delta, insert_note};
use crate::stats::{percentile, sorted};

/// Commits per replay step: each layer is timed over one chunk of
/// batches at a time, so the clock is read once per chunk and only one
/// chunk of change batches is alive.
const CHUNK: usize = 4096;
/// `append` + `sync_to` pairs the WAL sync probe performs (each is a
/// real fsync).
pub const SYNC_CAP: usize = 200;
/// Session transactions the `server.wire` and `core.session` probes
/// are given (a prefix of client 0's stream; the stream is i.i.d., so a
/// prefix is a fair sample).
pub const SESSION_CAP: usize = 8_000;
/// Per-chain version bound the engine's pipeline uses.
const VERSION_CHAIN_CAP: usize = 16;

/// What replaying a run's **whole** trace through each commit-path
/// layer took. Every total covers every commit, so a layer's share of
/// the probed service time needs no extrapolation.
pub struct Replay {
    /// Commits replayed (the trace's length).
    pub commits: u64,
    /// `WorkingMemory::apply` over every recorded delta.
    pub apply: Duration,
    /// `ShardedRete::apply` over every resulting change batch.
    pub rete: Duration,
    /// Uncontended `begin · lock… · commit` over every firing's lock
    /// footprint.
    pub lock: Duration,
    /// `VersionedStore::record` over every batch (`mvcc_snapshot` runs).
    pub record: Duration,
    /// One `VersionedStore::as_of` per changed tuple, and how many.
    pub as_of: (Duration, u64),
    /// `WalWriter::append`, no sync, over every batch (durable runs).
    pub append: Duration,
    /// `wal.sync_us`: mean of [`SYNC_CAP`] `append` + `sync_to` pairs.
    pub sync_us: f64,
    /// Right and left activations the replay caused.
    pub activations: (u64, u64),
    /// Live tokens when the replay ended.
    pub tokens: u64,
    /// Conflict-set size when the replay ended.
    pub conflict_set_len: u64,
    /// Whether the replay reproduces the run's final WM tuple for tuple.
    pub reproduces_final: bool,
}

impl Replay {
    /// Mean nanoseconds per commit of one layer's total.
    pub fn ns_per_commit(&self, total: Duration) -> f64 {
        total.as_nanos() as f64 / self.commits.max(1) as f64
    }
}

fn rete_counters(net: &ShardedRete) -> (u64, u64, u64) {
    (0..net.plan().shards()).fold((0, 0, 0), |(r, l, t), s| {
        let st = net.shard(s).stats();
        (
            r + st.right_activations,
            l + st.left_activations,
            t + st.tokens as u64,
        )
    })
}

/// Replays `trace` over `initial`, chunk by chunk, through the store,
/// a fresh `ShardedRete` (the engine's default shard count), a fresh
/// lock manager, and — when the run used them — a version store and a
/// WAL under `wal_dir`.
pub fn replay(
    rules: &RuleSet,
    initial: &WorkingMemory,
    trace: &Trace,
    final_wm: &WorkingMemory,
    policy: ConflictPolicy,
    wal_dir: Option<&Path>,
) -> Replay {
    let mut wm = initial.clone();
    let mut net = ShardedRete::new(rules, initial, DEFAULT_MATCH_SHARDS);
    let (right0, left0, _) = rete_counters(&net);
    let lm = LockManager::new(policy);
    let mut versions = (policy == ConflictPolicy::MvccSnapshot).then(|| {
        let mut store = VersionedStore::new(VERSION_CHAIN_CAP);
        store.seed(initial);
        store
    });
    let durable =
        wal_dir.map(|dir| DurableWm::create(dir, initial, 0).expect("probe WAL dir initialises"));
    let mut classes: HashMap<Atom, u32> = HashMap::new();
    let mut first_batches: Vec<Vec<Change>> = Vec::new();
    let mut r = Replay {
        commits: trace.len() as u64,
        apply: Duration::ZERO,
        rete: Duration::ZERO,
        lock: Duration::ZERO,
        record: Duration::ZERO,
        as_of: (Duration::ZERO, 0),
        append: Duration::ZERO,
        sync_us: 0.0,
        activations: (0, 0),
        tokens: 0,
        conflict_set_len: 0,
        reproduces_final: false,
    };
    let mut seq = 0u64;
    for chunk in trace.firings.chunks(CHUNK) {
        let t = Instant::now();
        let batches: Vec<Vec<Change>> = chunk
            .iter()
            .map(|f| wm.apply(&f.delta).expect("recorded delta applies"))
            .collect();
        r.apply += t.elapsed();

        let t = Instant::now();
        for batch in &batches {
            black_box(net.apply(batch));
        }
        r.rete += t.elapsed();

        let footprints: Vec<_> = chunk
            .iter()
            .zip(&batches)
            .map(|(f, batch)| footprint(&f.key.wmes, batch, &mut classes))
            .collect();
        let t = Instant::now();
        for fp in &footprints {
            let txn = lm.begin();
            for (res, mode) in fp {
                lm.lock(txn, *res, *mode).expect("uncontended lock");
            }
            black_box(lm.commit(txn).expect("uncontended commit"));
        }
        r.lock += t.elapsed();

        if let Some(store) = &mut versions {
            let t = Instant::now();
            for (i, batch) in batches.iter().enumerate() {
                store.record(seq + i as u64 + 1, batch);
            }
            r.record += t.elapsed();
            let t = Instant::now();
            for (i, batch) in batches.iter().enumerate() {
                for c in batch {
                    black_box(store.as_of(c.wme().id, seq + i as u64 + 1));
                }
                r.as_of.1 += batch.len() as u64;
            }
            r.as_of.0 += t.elapsed();
        }
        if let Some(d) = &durable {
            let writer = d.writer();
            let t = Instant::now();
            for (i, batch) in batches.iter().enumerate() {
                writer
                    .append(seq + i as u64 + 1, batch)
                    .expect("probe append");
            }
            r.append += t.elapsed();
        }
        if seq == 0 {
            first_batches = batches.iter().take(SYNC_CAP).cloned().collect();
        }
        seq += chunk.len() as u64;
    }
    if let Some(d) = &durable {
        // One real fsync per pair, on the sandbox's filesystem.
        let writer = d.writer();
        writer.flush().expect("probe flush");
        let t = Instant::now();
        for batch in &first_batches {
            seq += 1;
            writer.append(seq, batch).expect("probe append");
            writer.sync_to(seq).expect("probe sync");
        }
        r.sync_us = t.elapsed().as_nanos() as f64 / 1e3 / first_batches.len().max(1) as f64;
    }
    let (right1, left1, tokens) = rete_counters(&net);
    r.activations = (right1 - right0, left1 - left0);
    r.tokens = tokens;
    r.conflict_set_len = net.len() as u64;
    r.reproduces_final = wm.iter().eq(final_wm.iter());
    r
}

/// The locks `try_execute` / `external_commit` take for one commit
/// under `RcRaWa`: `Rc` on every matched tuple, `Ra` on matched tuples
/// the RHS leaves alone, `Wa` on written tuples and on the relation of
/// every class the batch touches.
fn footprint(
    matched: &[(WmeId, u64)],
    batch: &[Change],
    classes: &mut HashMap<Atom, u32>,
) -> Vec<(ResourceId, LockMode)> {
    let p = Protocol::RcRaWa;
    let written: Vec<u64> = batch
        .iter()
        .filter(|c| !c.is_add())
        .map(|c| c.wme().id.0)
        .collect();
    let mut locks = Vec::new();
    for (id, _) in matched {
        locks.push((ResourceId::Tuple(id.0), p.condition_read()));
    }
    for (id, _) in matched {
        if !written.contains(&id.0) {
            locks.push((ResourceId::Tuple(id.0), p.action_read()));
        }
    }
    for id in &written {
        locks.push((ResourceId::Tuple(*id), p.action_write()));
    }
    let mut rels: Vec<u32> = batch
        .iter()
        .map(|c| {
            let next = classes.len() as u32;
            *classes.entry(c.wme().data.class.clone()).or_insert(next)
        })
        .collect();
    rels.sort_unstable();
    rels.dedup();
    locks.extend(
        rels.into_iter()
            .map(|r| (ResourceId::Relation(r), p.action_write())),
    );
    locks
}

/// `admission.admit_ns`: one `admit()` + `txn_end()` pair on a
/// controller configured like the run's.
pub fn admit_ns(config: AdmissionConfig) -> f64 {
    const N: u32 = 200_000;
    let gate = AdmissionController::new(config);
    let t0 = Instant::now();
    for _ in 0..N {
        black_box(gate.admit());
        gate.txn_end(false, &[]);
    }
    t0.elapsed().as_nanos() as f64 / f64::from(N)
}

/// The frames one transaction of `stream` puts on the wire (requests as
/// the client builds them, responses as the server answers them;
/// `rows` is what `Query acc` returns).
fn frames(txn: Txn, rows: &[(u64, WmeData)]) -> (Vec<Request>, Vec<Response>) {
    let ok = Response::Ok { seq: 0 };
    match txn {
        Txn::Delta { key } => (
            vec![Request::Begin, insert_delta(key), Request::Commit],
            vec![ok.clone(), ok, Response::Ok { seq: 1 }],
        ),
        Txn::Read => (
            vec![
                Request::Begin,
                Request::Query {
                    class: "acc".into(),
                },
                Request::Commit,
            ],
            vec![
                ok,
                Response::Rows {
                    rows: rows.to_vec(),
                },
                Response::Ok { seq: 1 },
            ],
        ),
        Txn::Note => {
            let note = WmeData::new("note").with("owner", 0i64).with("n", 1i64);
            (
                vec![
                    Request::Begin,
                    Request::Query {
                        class: "note".into(),
                    },
                    Request::Remove { id: 1 },
                    insert_note(0, 1),
                    Request::Commit,
                ],
                vec![
                    ok.clone(),
                    Response::Rows {
                        rows: vec![(1, note)],
                    },
                    ok.clone(),
                    ok,
                    Response::Ok { seq: 1 },
                ],
            )
        }
    }
}

/// `(wire.encode_ns_per_frame, wire.decode_ns_per_frame, frames per
/// transaction)` over the frames of `stream`, requests and responses
/// pooled.
pub fn wire(stream: &[Txn], final_wm: &WorkingMemory) -> (f64, f64, f64) {
    let rows: Vec<(u64, WmeData)> = final_wm
        .class_iter("acc")
        .map(|w| (w.id.0, w.data.clone()))
        .collect();
    let (mut reqs, mut resps) = (Vec::new(), Vec::new());
    for txn in stream {
        let (q, r) = frames(*txn, &rows);
        reqs.extend(q);
        resps.extend(r);
    }
    let n = (reqs.len() + resps.len()).max(1) as f64;
    let t0 = Instant::now();
    let req_bytes: Vec<Vec<u8>> = reqs.iter().map(Request::encode).collect();
    let resp_bytes: Vec<Vec<u8>> = resps.iter().map(Response::encode).collect();
    let encode_ns = t0.elapsed().as_nanos() as f64 / n;
    let t0 = Instant::now();
    for b in &req_bytes {
        black_box(Request::decode(b).expect("own frame decodes"));
    }
    for b in &resp_bytes {
        black_box(Response::decode(b).expect("own frame decodes"));
    }
    let decode_ns = t0.elapsed().as_nanos() as f64 / n;
    (encode_ns, decode_ns, n / stream.len().max(1) as f64)
}

/// Median µs of the four `external_*` calls when `stream` is driven
/// straight into a fresh engine by one thread — no server, no workers
/// (rules never fire; that cost is `core.parallel`'s), no WAL (one
/// thread would fsync every commit, which no grouped run does; the WAL
/// has its own probes), same policy as the run.
pub struct CoreSession {
    /// `core_session.begin_us_p50`.
    pub begin_us: f64,
    /// `core_session.insert_us_p50`.
    pub insert_us: f64,
    /// `core_session.query_us_p50` (0 when the stream never queries).
    pub query_us: f64,
    /// `core_session.commit_us_p50`.
    pub commit_us: f64,
}

/// Runs the `core.session` probe.
pub fn core_session(
    rules: &RuleSet,
    initial: &WorkingMemory,
    policy: ConflictPolicy,
    stream: &[Txn],
) -> CoreSession {
    let engine = ParallelEngine::new(
        rules,
        initial.clone(),
        ParallelConfig {
            policy,
            service: true,
            max_commits: usize::MAX,
            ..ParallelConfig::default()
        },
    );
    let us = |t: Instant| t.elapsed().as_nanos() as f64 / 1e3;
    let (mut begin, mut insert, mut query, mut commit) = (vec![], vec![], vec![], vec![]);
    for txn in stream {
        let t = Instant::now();
        let mut xt = engine.external_begin();
        begin.push(us(t));
        match txn {
            Txn::Delta { key } => {
                let data = WmeData::new("delta").with("key", *key).with("v", 1i64);
                let t = Instant::now();
                engine
                    .external_insert(&mut xt, data)
                    .expect("uncontended insert");
                insert.push(us(t));
            }
            Txn::Read => {
                let t = Instant::now();
                black_box(
                    engine
                        .external_query(&mut xt, "acc")
                        .expect("uncontended query"),
                );
                query.push(us(t));
            }
            Txn::Note => {
                let t = Instant::now();
                let rows = engine
                    .external_query(&mut xt, "note")
                    .expect("uncontended query");
                query.push(us(t));
                // One client here, so the only note is its own.
                if let Some((id, _)) = rows.last() {
                    engine
                        .external_remove(&mut xt, WmeId(*id))
                        .expect("uncontended remove");
                }
                let data = WmeData::new("note").with("owner", 0i64).with("n", 1i64);
                let t = Instant::now();
                engine
                    .external_insert(&mut xt, data)
                    .expect("uncontended insert");
                insert.push(us(t));
            }
        }
        let t = Instant::now();
        engine.external_commit(&mut xt).expect("uncontended commit");
        commit.push(us(t));
    }
    let p50 = |v: Vec<f64>| percentile(&sorted(v), 0.5).unwrap_or(0.0);
    CoreSession {
        begin_us: p50(begin),
        insert_us: p50(insert),
        query_us: p50(query),
        commit_us: p50(commit),
    }
}
