//! The two server-path workloads: closed-loop clients over loopback
//! `Conn`s against one `dps-server`, measured entirely from the client
//! side of the wire.

use std::io;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dps_core::{DurabilityConfig, ParallelConfig, ParallelReport};
use dps_lock::ConflictPolicy;
use dps_obs::{ObsReport, TelemetryConfig};
use dps_server::{
    loopback_pair, read_frame, write_frame, AdmissionConfig, ErrCode, LoopbackConn, Request,
    Response, Server, ServerConfig, ServerStats, SessionTimeouts,
};
use dps_wm::{Value, WmeData, WorkingMemory};

use crate::gen::{self, Mix, Txn, KINDS};
use crate::span::{Name, Span};
use crate::stats::sorted;
use crate::Shape;

/// Attempts a client makes at one logical transaction before giving up.
pub const MAX_ATTEMPTS: u32 = 64;
/// Share of each client's transactions run as warm-up (excluded from
/// every timing; see README on why it is not part of `setup_s`).
pub const WARMUP_SHARE: f64 = 0.05;
/// An `Invoke` follows every this-many-th transaction (`session_zipf`).
pub const INVOKE_EVERY: usize = 64;

/// Static description of one session workload.
#[derive(Clone, Copy, Debug)]
pub struct SessionSpec {
    /// Request mix and key count.
    pub mix: Mix,
    /// Commit-time `Rc`–`Wa` policy.
    pub policy: ConflictPolicy,
    /// WAL + checkpoints on?
    pub durable: bool,
    /// Follow every [`INVOKE_EVERY`]-th transaction with `Invoke`?
    pub invoke: bool,
}

/// `Insert delta ^key k ^v 1`.
pub fn insert_delta(key: i64) -> Request {
    Request::Insert {
        class: "delta".into(),
        attrs: vec![("key".into(), Value::Int(key)), ("v".into(), Value::Int(1))],
    }
}

/// `Insert note ^owner c ^n k`: client `c`'s `k`-th note.
pub fn insert_note(owner: i64, n: i64) -> Request {
    Request::Insert {
        class: "note".into(),
        attrs: vec![
            ("owner".into(), Value::Int(owner)),
            ("n".into(), Value::Int(n)),
        ],
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientOut {
    /// Logical-transaction latencies (µs), measured phase only.
    lat_us: Vec<f64>,
    /// `Commit` ack → `Done` (µs), measured phase only.
    react_us: Vec<f64>,
    /// Logical transactions committed, measured phase, by kind.
    committed: [u64; KINDS],
    /// Attempts (a `Begin` sent), measured phase.
    attempts: u64,
    /// Attempts that ended in `Err`/`Overloaded`, measured phase.
    failed_attempts: u64,
    /// Logical transactions abandoned after [`MAX_ATTEMPTS`].
    gave_up: u64,
    /// Committed deltas per key, warm-up included (arithmetic truth).
    delta_hist: Vec<u64>,
    /// Committed note transactions, warm-up included.
    notes: u64,
    /// Cumulative rule commits reported by the warm-up `Invoke`.
    fired_at_start: u64,
    /// Cumulative rule commits reported by the final `Invoke`.
    fired_at_end: u64,
    /// When the last measured `Commit` was acknowledged.
    txn_end: Option<Instant>,
    /// When the final `Invoke` returned.
    fire_end: Option<Instant>,
    /// Request + response bytes on the wire, measured phase.
    wire_bytes: u64,
    spans: Vec<Span>,
    /// First protocol violation or transport error, if any.
    fatal: Option<String>,
}

/// One phase (untraced or traced) of a session workload.
pub struct SessionRun {
    /// Rule parse → every session greeted, seconds.
    pub setup_s: f64,
    /// Warm-up (first [`WARMUP_SHARE`] of the transactions + one
    /// `Invoke`), seconds: timed by nothing, reported for the record.
    pub warmup_s: f64,
    /// Measured window for transactions, seconds.
    pub txn_window_s: f64,
    /// Measured window for rule firings (ends at the final quiescence).
    pub fire_window_s: f64,
    /// Sorted logical-transaction latencies, µs.
    pub lat_us: Vec<f64>,
    /// Sorted react latencies, µs.
    pub react_us: Vec<f64>,
    /// Measured logical transactions committed, by kind.
    pub committed: [u64; KINDS],
    /// Measured attempts.
    pub attempts: u64,
    /// Measured failed attempts.
    pub failed_attempts: u64,
    /// Logical transactions that never committed.
    pub gave_up: u64,
    /// Rule firings inside the measured window.
    pub fired: u64,
    /// Wire bytes, measured phase.
    pub wire_bytes: u64,
    /// Every client's spans (traced phase only).
    pub spans: Vec<Span>,
    /// The engine's end-of-run report (whole run, warm-up included).
    pub report: ParallelReport,
    /// Server statistics (whole run).
    pub stats: ServerStats,
    /// Phase histograms and event counts (traced phase only).
    pub obs: Option<ObsReport>,
    /// Last sampled `pipeline.version_records` (traced phase only).
    pub version_records: Option<u64>,
    /// Cumulative nanoseconds the WAL writer spent in write + fsync.
    pub fsync_ns: u64,
    /// Final working memory.
    pub final_wm: WorkingMemory,
    /// Initial working memory (for replay probes).
    pub initial_wm: WorkingMemory,
    /// Durability directory, when the spec is durable.
    pub wal_dir: Option<PathBuf>,
    /// Output-check failures (empty = correct).
    pub failures: Vec<String>,
}

struct Client {
    conn: LoopbackConn,
    index: usize,
    epoch: Instant,
    traced: bool,
    next_span: u64,
    txn_id: u64,
    root: u64,
    measuring: bool,
    out: ClientOut,
}

/// How one attempt at a transaction ended.
enum Attempt {
    Committed,
    Retry,
}

impl Client {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn span_id(&mut self) -> u64 {
        self.next_span += 1;
        ((self.index as u64 + 1) << 40) | self.next_span
    }

    /// One request/response round trip; while the traced phase is
    /// measuring, one span (`name == None`: handshake frames, no span).
    fn rpc(&mut self, name: impl Into<Option<Name>>, req: &Request) -> io::Result<Response> {
        let name = name.into().filter(|_| self.traced && self.measuring);
        let start = name.map(|_| self.now_ns());
        let body = req.encode();
        write_frame(&mut self.conn, &body)?;
        let reply = read_frame(&mut self.conn)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server hung up"))?;
        let resp = Response::decode(&reply)?;
        if let (Some(name), Some(start_ns)) = (name, start) {
            let id = self.span_id();
            let parent = if name == Name::React { 0 } else { self.root };
            self.out.spans.push(Span {
                txn: self.txn_id,
                id,
                parent,
                name,
                kind: 0,
                start_ns,
                end_ns: self.now_ns(),
            });
            self.out.wire_bytes += (body.len() + reply.len() + 8) as u64;
        }
        Ok(resp)
    }

    /// `Ok(true)`: proceed; `Ok(false)`: the server resolved the
    /// transaction (abort / shed) — re-submit it.
    fn proceed(resp: Response) -> Result<bool, String> {
        match resp {
            Response::Ok { .. } => Ok(true),
            Response::Err {
                code: ErrCode::Aborted,
                ..
            } => Ok(false),
            Response::Overloaded { retry_after_ms } => {
                std::thread::sleep(Duration::from_millis(retry_after_ms.min(2)));
                Ok(false)
            }
            other => Err(format!("unexpected response {other:?}")),
        }
    }

    /// [`Client::rpc`] with transport errors as messages.
    fn call(&mut self, name: Name, req: &Request) -> Result<Response, String> {
        self.rpc(name, req).map_err(|e| format!("transport: {e}"))
    }

    /// Sends `req` and classifies the answer with [`Client::proceed`].
    fn ack(&mut self, name: Name, req: &Request) -> Result<bool, String> {
        Self::proceed(self.call(name, req)?)
    }

    /// `Query class`: the rows, or `None` when the server resolved the
    /// transaction instead.
    fn query(&mut self, class: &str) -> Result<Option<Vec<(u64, WmeData)>>, String> {
        let req = Request::Query {
            class: class.into(),
        };
        match self.call(Name::Query, &req)? {
            Response::Rows { rows } => Ok(Some(rows)),
            other => match Self::proceed(other)? {
                true => Err("Query acknowledged without rows".into()),
                false => Ok(None),
            },
        }
    }

    fn attempt(&mut self, txn: Txn, keys: usize) -> Result<Attempt, String> {
        if !self.ack(Name::Begin, &Request::Begin)? {
            return Ok(Attempt::Retry);
        }
        match txn {
            Txn::Delta { key } => {
                if !self.ack(Name::Insert, &insert_delta(key))? {
                    return Ok(Attempt::Retry);
                }
            }
            Txn::Read => {
                let Some(rows) = self.query("acc")? else {
                    return Ok(Attempt::Retry);
                };
                if rows.len() != keys {
                    return Err(format!(
                        "Query acc returned {} rows, expected {keys}",
                        rows.len()
                    ));
                }
            }
            Txn::Note => {
                let Some(rows) = self.query("note")? else {
                    return Ok(Attempt::Retry);
                };
                let me = Value::Int(self.index as i64);
                let mine = rows.iter().find(|(_, d)| d.get("owner") == Some(&me));
                if let Some((id, _)) = mine {
                    if !self.ack(Name::Remove, &Request::Remove { id: *id })? {
                        return Ok(Attempt::Retry);
                    }
                }
                let insert = insert_note(self.index as i64, self.out.notes as i64 + 1);
                if !self.ack(Name::Insert, &insert)? {
                    return Ok(Attempt::Retry);
                }
            }
        }
        match self.call(Name::Commit, &Request::Commit)? {
            Response::Ok { seq } if seq > 0 => Ok(Attempt::Committed),
            other => match Self::proceed(other)? {
                true => Err("commit acknowledged without a sequence number".into()),
                false => Ok(Attempt::Retry),
            },
        }
    }

    /// One logical transaction: re-submitted until it commits.
    fn transact(&mut self, txn: Txn, keys: usize) -> Result<(), String> {
        self.txn_id += 1;
        self.root = self.span_id();
        let t0 = Instant::now();
        let start_ns = self.now_ns();
        let mut committed = false;
        for _ in 0..MAX_ATTEMPTS {
            if self.measuring {
                self.out.attempts += 1;
            }
            match self.attempt(txn, keys)? {
                Attempt::Committed => {
                    committed = true;
                    break;
                }
                Attempt::Retry if self.measuring => self.out.failed_attempts += 1,
                Attempt::Retry => {}
            }
        }
        let done = Instant::now();
        if !committed {
            self.out.gave_up += 1;
            return Ok(());
        }
        match txn {
            Txn::Delta { key } => self.out.delta_hist[key as usize] += 1,
            Txn::Note => self.out.notes += 1,
            Txn::Read => {}
        }
        if self.measuring {
            self.out.lat_us.push((done - t0).as_nanos() as f64 / 1e3);
            self.out.committed[txn.kind()] += 1;
            self.out.txn_end = Some(done);
        }
        if self.traced && self.measuring {
            self.out.spans.push(Span {
                txn: self.txn_id,
                id: self.root,
                parent: 0,
                name: Name::Txn,
                kind: txn.kind() as u8,
                start_ns,
                end_ns: self.now_ns(),
            });
        }
        Ok(())
    }

    /// `Invoke`: blocks until the rule program has quiesced; returns
    /// the cumulative rule-commit count.
    fn invoke(&mut self) -> Result<u64, String> {
        match self.call(Name::React, &Request::Invoke)? {
            Response::Done { commits } => Ok(commits),
            other => Err(format!("Invoke answered {other:?}")),
        }
    }

    fn warm_up(&mut self, stream: &[Txn], keys: usize) -> Result<(), String> {
        for txn in stream {
            self.transact(*txn, keys)?;
        }
        self.out.fired_at_start = self.invoke()?;
        Ok(())
    }

    fn measured(&mut self, spec: &SessionSpec, stream: &[Txn]) -> Result<(), String> {
        self.measuring = true;
        for (i, txn) in stream.iter().enumerate() {
            self.transact(*txn, spec.mix.keys)?;
            if spec.invoke && (i + 1) % INVOKE_EVERY == 0 {
                let t0 = Instant::now();
                self.invoke()?;
                self.out.react_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            }
        }
        self.measuring = false;
        self.out.fired_at_end = self.invoke()?;
        self.out.fire_end = Some(Instant::now());
        Ok(())
    }

    /// `Hello`, barrier (set-up ends), warm-up, barrier (timing
    /// starts), measured phase, final quiescence, `Bye`. A set-up
    /// repeat (`measure == false`) stops at the first barrier.
    fn drive(
        &mut self,
        spec: &SessionSpec,
        stream: &[Txn],
        warm: usize,
        ready: &Barrier,
        measure: bool,
    ) {
        match self.rpc(None, &Request::Hello) {
            Ok(Response::Granted { .. }) => {}
            other => self.out.fatal = Some(format!("Hello answered {other:?}")),
        }
        ready.wait();
        if measure {
            if self.out.fatal.is_none() {
                self.out.fatal = self.warm_up(&stream[..warm], spec.mix.keys).err();
            }
            ready.wait();
            if self.out.fatal.is_none() {
                self.out.fatal = self.measured(spec, &stream[warm..]).err();
            }
        }
        let _ = self.rpc(None, &Request::Bye);
    }
}

/// Admission stays on the path (every `Begin` pays `admit`), with a
/// rate far above what a closed loop of `C` callers can offer: overload
/// behaviour belongs to the `loadgen` gate.
pub fn admission_config() -> AdmissionConfig {
    AdmissionConfig {
        tokens_per_sec: 1e7,
        bucket_cap: 1e6,
        ..AdmissionConfig::default()
    }
}

/// Engine + server configuration shared by both phases.
fn configs(
    spec: &SessionSpec,
    shape: &Shape,
    traced: bool,
    wal_dir: Option<&PathBuf>,
) -> (ParallelConfig, ServerConfig) {
    let engine = ParallelConfig {
        policy: spec.policy,
        workers: shape.workers,
        max_commits: usize::MAX,
        observe: traced,
        telemetry: traced.then(TelemetryConfig::default),
        durability: wal_dir.map(DurabilityConfig::at),
        ..ParallelConfig::default()
    };
    let server = ServerConfig {
        admission: admission_config(),
        timeouts: SessionTimeouts {
            idle_read: Some(Duration::from_millis(200)),
            txn: Duration::from_secs(60),
        },
        ..ServerConfig::default()
    };
    (engine, server)
}

/// Runs one phase. `total` logical transactions are split evenly over
/// the clients; with `measure == false` only the set-up runs, for the
/// set-up repeats.
pub fn run(
    spec: &SessionSpec,
    shape: &Shape,
    seed: u64,
    total: usize,
    traced: bool,
    measure: bool,
    wal_dir: Option<PathBuf>,
) -> SessionRun {
    let per_client = total / shape.clients;
    let warm = ((per_client as f64 * WARMUP_SHARE) as usize).max(1);
    // Generating the requests is the benchmark's work, not the system's
    // set-up (and a set-up repeat sends none).
    let streams: Vec<Vec<Txn>> = (0..shape.clients)
        .map(|c| gen::session_stream(&spec.mix, seed, c, if measure { per_client } else { 0 }))
        .collect();
    let t_setup = Instant::now();
    let rules = gen::session_rules();
    let initial_wm = gen::session_wm(spec.mix.keys);
    let (engine_cfg, server_cfg) = configs(spec, shape, traced, wal_dir.as_ref());
    let server = Server::new(&rules, initial_wm.clone(), engine_cfg, server_cfg);
    let (server_ends, client_ends): (Vec<_>, Vec<_>) =
        (0..shape.clients).map(|_| loopback_pair()).unzip();
    let ready = Barrier::new(shape.clients + 1);
    let epoch = Instant::now();

    let (setup_s, t_start, outs, report, stats) = std::thread::scope(|s| {
        let srv = s.spawn(|| server.run(server_ends));
        let handles: Vec<_> = client_ends
            .into_iter()
            .enumerate()
            .map(|(index, conn)| {
                let (stream, ready) = (&streams[index], &ready);
                s.spawn(move || {
                    let mut c = Client {
                        conn,
                        index,
                        epoch,
                        traced,
                        next_span: 0,
                        txn_id: (index as u64 + 1) << 40,
                        root: 0,
                        measuring: false,
                        out: ClientOut {
                            delta_hist: vec![0; spec.mix.keys],
                            ..ClientOut::default()
                        },
                    };
                    c.drive(spec, stream, warm, ready, measure);
                    c.out
                })
            })
            .collect();
        ready.wait();
        let setup_s = t_setup.elapsed().as_secs_f64();
        if measure {
            ready.wait();
        }
        let t_start = Instant::now();
        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect();
        let (report, stats) = srv.join().expect("server panicked");
        (setup_s, t_start, outs, report, stats)
    });
    let warmup_s = t_start.duration_since(t_setup).as_secs_f64() - setup_s;

    let engine = server.engine();
    let final_wm = engine.final_wm();
    let mut failures = Vec::new();
    for o in &outs {
        if let Some(e) = &o.fatal {
            failures.push(format!("client: {e}"));
        }
    }
    if engine.held_locks() != 0 {
        failures.push(format!("{} locks still held", engine.held_locks()));
    }
    if engine.snapshot_pins() != 0 {
        failures.push(format!(
            "{} snapshot pins still registered",
            engine.snapshot_pins()
        ));
    }
    check_truth(spec, &outs, &final_wm, &report, &stats, &mut failures);

    let sum = |f: fn(&ClientOut) -> u64| outs.iter().map(f).sum::<u64>();
    let window = |f: fn(&ClientOut) -> Option<Instant>| {
        outs.iter()
            .filter_map(f)
            .max()
            .map_or(0.0, |t| (t - t_start).as_secs_f64())
    };
    let mut committed = [0u64; KINDS];
    for o in &outs {
        for (k, c) in committed.iter_mut().enumerate() {
            *c += o.committed[k];
        }
    }
    let fired_start = outs.iter().map(|o| o.fired_at_start).max().unwrap_or(0);
    let fired_end = outs.iter().map(|o| o.fired_at_end).max().unwrap_or(0);
    SessionRun {
        setup_s,
        warmup_s,
        txn_window_s: window(|o| o.txn_end),
        fire_window_s: window(|o| o.fire_end),
        lat_us: sorted(outs.iter().flat_map(|o| o.lat_us.iter().copied()).collect()),
        react_us: sorted(
            outs.iter()
                .flat_map(|o| o.react_us.iter().copied())
                .collect(),
        ),
        committed,
        attempts: sum(|o| o.attempts),
        failed_attempts: sum(|o| o.failed_attempts),
        gave_up: sum(|o| o.gave_up),
        fired: fired_end.saturating_sub(fired_start),
        wire_bytes: sum(|o| o.wire_bytes),
        spans: outs.iter().flat_map(|o| o.spans.iter().copied()).collect(),
        obs: engine.observer().map(|r| r.report()),
        version_records: engine
            .telemetry()
            .and_then(|t| t.doc().last("pipeline.version_records")),
        fsync_ns: engine.durable().map_or(0, |d| d.writer().fsync_nanos()),
        report,
        stats,
        final_wm,
        initial_wm,
        wal_dir,
        failures,
    }
}

/// Arithmetic truth of the final working memory and the books.
fn check_truth(
    spec: &SessionSpec,
    outs: &[ClientOut],
    wm: &WorkingMemory,
    report: &ParallelReport,
    stats: &ServerStats,
    failures: &mut Vec<String>,
) {
    let int = |w: &dps_wm::Wme, attr: &str| match w.get(attr) {
        Some(Value::Int(n)) => *n,
        _ => i64::MIN,
    };
    let mut expected = vec![0u64; spec.mix.keys];
    for o in outs {
        for (k, n) in o.delta_hist.iter().enumerate() {
            expected[k] += n;
        }
    }
    let deltas: u64 = expected.iter().sum();
    let mut seen = 0;
    for acc in wm.class_iter("acc") {
        let key = int(acc, "key");
        seen += 1;
        if expected.get(key as usize).copied() != Some(int(acc, "total") as u64) {
            failures.push(format!(
                "acc[{key}].total = {} ≠ committed deltas",
                int(acc, "total")
            ));
            break;
        }
    }
    if seen != spec.mix.keys {
        failures.push(format!("{seen} acc tuples, expected {}", spec.mix.keys));
    }
    let left = wm.class_iter("delta").count();
    if left != 0 {
        failures.push(format!("{left} deltas never folded"));
    }
    if report.commits as u64 != deltas {
        failures.push(format!(
            "{} rule firings for {deltas} committed deltas",
            report.commits
        ));
    }
    for (c, o) in outs.iter().enumerate() {
        let mine: Vec<i64> = wm
            .class_iter("note")
            .filter(|w| int(w, "owner") == c as i64)
            .map(|w| int(w, "n"))
            .collect();
        let want: Vec<i64> = if o.notes > 0 {
            vec![o.notes as i64]
        } else {
            vec![]
        };
        if mine != want {
            failures.push(format!("client {c} notes {mine:?}, expected {want:?}"));
        }
    }
    if stats.admission.admitted != stats.commits + stats.aborts {
        failures.push("admitted ≠ commits + aborts".into());
    }
    let gave_up: u64 = outs.iter().map(|o| o.gave_up).sum();
    if gave_up != 0 {
        failures.push(format!(
            "{gave_up} transactions never committed in {MAX_ATTEMPTS} attempts"
        ));
    }
}
