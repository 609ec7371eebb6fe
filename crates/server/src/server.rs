//! The server proper: N sessions multiplexed onto one shared engine.
//!
//! [`Server::run`] owns two kinds of threads under one
//! `std::thread::scope`:
//!
//! * **the engine thread** — [`dps_core::ParallelEngine::run_shared`]
//!   in service mode: workers park at quiescence and stay parked (a
//!   10 ms rescan is their safety net), so the engine thread mostly
//!   waits for the drain;
//! * **one handler thread per connection** — the wire loop: decode a
//!   frame, check it against the [`SessionState`] machine, execute it
//!   through the engine's external-transaction API, reply. After the
//!   reply to a successful `Commit` the handler fires what that commit
//!   enabled ([`dps_core::ParallelEngine::fire_ready`]) while the
//!   client turns around, so rules fire *data-driven* against the union
//!   of every session's writes on the threads that wrote them. A `Query`
//!   reply is encoded straight from working memory
//!   ([`dps_core::ParallelEngine::external_query_with`]) into a buffer
//!   the connection reuses; a reply too large for one frame is answered
//!   with a typed `Err(Protocol)` and the session goes on.
//!
//! Disconnect safety is the handler's invariant: *every* exit path —
//! clean `Bye`, EOF mid-transaction, a read timeout, a transaction
//! overrunning its budget, an injected client death — routes the open
//! transaction through [`dps_core::ParallelEngine::external_abort`]
//! before the thread returns, so a dying session releases its locks,
//! drops its snapshot pin and discards its buffered delta. The
//! engine's drain then `debug_assert`s both leak probes
//! ([`dps_core::ParallelEngine::held_locks`],
//! [`dps_core::ParallelEngine::snapshot_pins`]) are zero.
//!
//! Graceful drain: [`Server::request_drain`] (or the shared
//! [`ServerConfig::stop`] flag, typically flipped by
//! [`crate::shutdown`]) moves sessions to `Draining` — open
//! transactions finish, new ones are refused with a typed
//! `Err(Draining)` — and once every handler has returned, the engine
//! is quiesced, stopped and joined through its final WAL flush.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dps_core::{ExternalTxn, ParallelConfig, ParallelEngine, ParallelReport};
use dps_obs::AbortCause;
use dps_rules::RuleSet;
use dps_wm::{Value, WmeData, WorkingMemory};

use crate::admission::{Admission, AdmissionConfig, AdmissionController, AdmissionStats};
use crate::session::{SessionState, SessionTimeouts};
use crate::transport::Conn;
use crate::wire::{put_rows, read_frame, write_frame, ErrCode, Request, Response};

/// Front-door configuration.
#[derive(Clone, Debug, Default)]
pub struct ServerConfig {
    /// Admission / shedding policy.
    pub admission: AdmissionConfig,
    /// Per-session timeouts.
    pub timeouts: SessionTimeouts,
    /// Stamp every inserted tuple with a `^session <id>` attribute
    /// (unless the client set one) — the per-session namespace: rules
    /// and queries can discriminate by originating session, and the
    /// reconciliation checks can attribute every tuple.
    pub stamp_session: bool,
    /// Shared stop flag (signal handler → drain). The server polls it;
    /// once set, every session drains as if
    /// [`Server::request_drain`] had been called.
    pub stop: Option<Arc<AtomicBool>>,
}

/// End-of-run server statistics. Every admitted transaction resolves
/// exactly once, so `admission.admitted == commits + aborts`.
#[derive(Clone, Debug)]
pub struct ServerStats {
    /// Sessions served (granted a `Hello`).
    pub sessions: u64,
    /// Committed external transactions (the engine's own count,
    /// [`ParallelEngine::external_commit_count`]).
    pub commits: u64,
    /// Rolled-back external transactions (all causes).
    pub aborts: u64,
    /// Transactions rolled back by per-session timeouts.
    pub timeouts: u64,
    /// Sessions that died with a transaction open.
    pub disconnects: u64,
    /// Admission-gate counters.
    pub admission: AdmissionStats,
}

#[derive(Default)]
struct Counters {
    sessions: AtomicU64,
    aborts: AtomicU64,
    timeouts: AtomicU64,
    disconnects: AtomicU64,
}

/// How an admitted transaction ended (see [`Server::book`]).
#[derive(Clone, Copy)]
enum End {
    /// Committed; the engine counts it.
    Commit,
    /// Rolled back by the engine (a failed op or commit) or by the
    /// client (`Abort`, `Bye`).
    Abort(AbortCause),
    /// Rolled back because the session died: `Timeout` for a
    /// transaction that overran its budget, any other cause for a
    /// disconnect.
    Died(AbortCause),
}

/// The multi-session front door (see module docs).
pub struct Server {
    engine: Arc<ParallelEngine>,
    admission: Arc<AdmissionController>,
    config: ServerConfig,
    counters: Arc<Counters>,
    draining: AtomicBool,
}

impl Server {
    /// Builds the server: one shared engine (forced into service
    /// mode), the admission gate, and — when the engine carries a
    /// telemetry registry — the `server.*` probe series.
    pub fn new(
        rules: &RuleSet,
        wm: WorkingMemory,
        mut engine_config: ParallelConfig,
        config: ServerConfig,
    ) -> Server {
        engine_config.service = true;
        let engine = Arc::new(ParallelEngine::new(rules, wm, engine_config));
        let admission = Arc::new(AdmissionController::new(config.admission.clone()));
        let counters = Arc::new(Counters::default());
        if let Some(tel) = engine.telemetry() {
            let a = Arc::clone(&admission);
            tel.counter("server.admitted", move || a.stats().admitted);
            let a = Arc::clone(&admission);
            tel.counter("server.shed", move || a.stats().shed_total());
            let a = Arc::clone(&admission);
            tel.gauge("server.inflight", move || a.inflight());
            // Weak: the engine owns the registry that holds this probe.
            let e = Arc::downgrade(&engine);
            tel.counter("server.commits", move || {
                e.upgrade().map_or(0, |e| e.external_commit_count())
            });
            let c = Arc::clone(&counters);
            tel.counter("server.aborts", move || c.aborts.load(Relaxed));
            let c = Arc::clone(&counters);
            tel.counter("server.disconnects", move || c.disconnects.load(Relaxed));
        }
        Server { engine, admission, config, counters, draining: AtomicBool::new(false) }
    }

    /// The shared engine (final WM, trace, leak probes, telemetry).
    pub fn engine(&self) -> &ParallelEngine {
        &self.engine
    }

    /// The admission gate.
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Starts a graceful drain: sessions refuse new transactions,
    /// finish open ones, and the run ends once every connection has
    /// closed.
    pub fn request_drain(&self) {
        self.draining.store(true, Relaxed);
    }

    /// `true` once a drain was requested (locally or via the shared
    /// [`ServerConfig::stop`] flag).
    pub fn draining(&self) -> bool {
        self.draining.load(Relaxed)
            || self.config.stop.as_ref().is_some_and(|s| s.load(Relaxed))
    }

    /// Serves every connection to completion, then drains the engine.
    /// Returns the engine's run report and the server statistics.
    pub fn run<C: Conn>(&self, conns: Vec<C>) -> (ParallelReport, ServerStats) {
        let report = std::thread::scope(|s| {
            let engine_thread = s.spawn(|| self.engine.run_shared());
            let handlers: Vec<_> = conns
                .into_iter()
                .enumerate()
                .map(|(i, conn)| {
                    let sid = i as u64 + 1;
                    std::thread::Builder::new()
                        .name(format!("dps-session-{sid}"))
                        .spawn_scoped(s, move || self.serve_conn(sid, conn))
                        .expect("spawn session handler")
                })
                .collect();
            for h in handlers {
                h.join().expect("handler panicked");
            }
            // Every session is resolved; let the rules quiesce on the
            // union of their commits, then stop the engine through its
            // normal drain (final WAL flush, telemetry stop, leak
            // asserts).
            self.engine.await_quiescence();
            self.engine.request_stop();
            engine_thread.join().expect("engine panicked")
        });
        let stats = ServerStats {
            sessions: self.counters.sessions.load(Relaxed),
            commits: self.engine.external_commit_count(),
            aborts: self.counters.aborts.load(Relaxed),
            timeouts: self.counters.timeouts.load(Relaxed),
            disconnects: self.counters.disconnects.load(Relaxed),
            admission: self.admission.stats(),
        };
        (report, stats)
    }

    fn reply(conn: &mut impl Conn, resp: &Response) -> io::Result<()> {
        Self::send(conn, &resp.encode())
    }

    /// Writes one reply body. A body over [`crate::wire::MAX_FRAME`] is
    /// refused before a byte of it is sent, so the connection is still
    /// in step: the client gets a typed `Err(Protocol)` in its place,
    /// and the session (and any open transaction) stays usable.
    fn send(conn: &mut impl Conn, body: &[u8]) -> io::Result<()> {
        match write_frame(conn, body) {
            Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
                let resp = Response::Err { code: ErrCode::Protocol, msg: e.to_string() };
                write_frame(conn, &resp.encode())
            }
            sent => sent,
        }
    }

    /// Runs `Query class` in `xt` and encodes the `Rows` body into `out`
    /// straight from working memory, under the engine's lock, with the
    /// encoder [`Response::encode`] uses.
    fn query_body(
        engine: &ParallelEngine,
        xt: &mut ExternalTxn,
        class: &str,
        out: &mut Vec<u8>,
    ) -> Result<(), AbortCause> {
        engine.external_query_with(xt, class, |rows| {
            put_rows(out, rows.map(|w| (w.id.0, &w.data)));
        })
    }

    /// Books one transaction's resolution. Every path that ends an
    /// admitted transaction comes here exactly once: it frees the
    /// admission slot (a contention abort feeds the storm streak) and
    /// counts the abort, and the timeout or disconnect.
    fn book(&self, end: End) {
        let contention = matches!(end, End::Abort(cause) if cause.is_contention());
        self.admission.txn_end(contention, &[]);
        let c = &self.counters;
        let died = match end {
            End::Commit => return,
            End::Abort(_) => None,
            End::Died(AbortCause::Timeout) => Some(&c.timeouts),
            End::Died(_) => Some(&c.disconnects),
        };
        c.aborts.fetch_add(1, Relaxed);
        if let Some(n) = died {
            n.fetch_add(1, Relaxed);
        }
    }

    /// Rolls back `xt`, if open, with `end`'s cause and books it.
    fn roll_back(&self, xt: &mut Option<ExternalTxn>, end: End) {
        let (End::Abort(cause) | End::Died(cause)) = end else { return };
        if let Some(mut x) = xt.take() {
            self.engine.external_abort(&mut x, cause);
            self.book(end);
        }
    }

    /// One connection, served to completion (see module docs for the
    /// exit-path invariant).
    fn serve_conn<C: Conn>(&self, sid: u64, mut conn: C) {
        conn.set_read_timeout(self.config.timeouts.idle_read);
        // Handshake: the first frame must be a Hello. As on an idle
        // session below, a read timeout only lets the session see a
        // drain: a client whose thread starts late keeps its session.
        loop {
            match read_frame(&mut conn) {
                Ok(Some(body)) if matches!(Request::decode(&body), Ok(Request::Hello)) => break,
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock)
                        && !self.draining() => {}
                _ => return,
            }
        }
        if Self::reply(&mut conn, &Response::Granted { session: sid }).is_err() {
            return;
        }
        self.counters.sessions.fetch_add(1, Relaxed);

        let obs = self.engine.observer().map(|r| r.as_ref());
        let mut state = SessionState::Idle;
        let mut xt: Option<ExternalTxn> = None;
        let mut deadline: Option<Instant> = None;
        // This session's `Begin`s so far, shed ones included: the salt
        // of the chaos draws, which key on the session, not the txn id.
        let mut ordinal: u64 = 0;
        // The `Rows` body of the last `Query`, reused across frames.
        let mut rows_body = Vec::new();
        loop {
            // While a transaction is open, the read timeout is bounded
            // by its remaining budget so an overrun is noticed even if
            // the client goes fully silent (slowloris).
            let timeout = match deadline {
                Some(d) => Some(
                    d.saturating_duration_since(Instant::now()).max(Duration::from_millis(1)),
                ),
                None => self.config.timeouts.idle_read,
            };
            conn.set_read_timeout(timeout);
            let body = match read_frame(&mut conn) {
                Ok(Some(body)) => body,
                Ok(None) => {
                    // EOF: disconnect. Roll back anything open.
                    self.roll_back(&mut xt, End::Died(AbortCause::Stale));
                    break;
                }
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock) =>
                {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        // Transaction overran its budget: roll back and
                        // disconnect (holding locks for a silent client
                        // is the one thing the front door must never do).
                        self.roll_back(&mut xt, End::Died(AbortCause::Timeout));
                        break;
                    }
                    if self.draining() && xt.is_none() {
                        break;
                    }
                    continue;
                }
                Err(_) => {
                    // A dead peer, or a frame cut off by the read
                    // timeout (its consumed bytes are gone, so the
                    // stream cannot resume at a frame boundary). Cut
                    // off at the transaction's deadline, it overran its
                    // budget like any silent holder.
                    let cause = if deadline.is_some_and(|d| Instant::now() >= d) {
                        AbortCause::Timeout
                    } else {
                        AbortCause::Stale
                    };
                    self.roll_back(&mut xt, End::Died(cause));
                    break;
                }
            };
            let req = match Request::decode(&body) {
                Ok(req) => req,
                Err(e) => {
                    let resp = Response::Err { code: ErrCode::Protocol, msg: e.to_string() };
                    if Self::reply(&mut conn, &resp).is_err() {
                        self.roll_back(&mut xt, End::Died(AbortCause::Stale));
                        break;
                    }
                    continue;
                }
            };
            let draining = self.draining();
            let next = match state.next(&req, draining) {
                Ok(next) => next,
                Err(code) => {
                    let resp = Response::Err { code, msg: format!("{req:?} in {state:?}") };
                    if Self::reply(&mut conn, &resp).is_err() {
                        self.roll_back(&mut xt, End::Died(AbortCause::Stale));
                        break;
                    }
                    continue;
                }
            };
            // Chaos: the injected-client-death sites. `slowloris`
            // stalls the session while it holds its transaction;
            // `drop_mid_claim` kills it right after `Begin` claimed
            // engine resources; `drop_mid_rhs` kills it between its
            // writes and the commit.
            if let (Some(inj), Some(x)) = (self.engine.injector(), xt.as_ref()) {
                if let Some(d) = inj.slowloris(sid, ordinal, x.txn(), obs) {
                    std::thread::sleep(d);
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        self.roll_back(&mut xt, End::Died(AbortCause::Timeout));
                        break;
                    }
                }
                if matches!(req, Request::Commit) && inj.drop_mid_rhs(sid, ordinal, x.txn(), obs)
                {
                    self.roll_back(&mut xt, End::Died(AbortCause::Injected));
                    break;
                }
            }
            // An op or commit the engine rolled back is `Err(cause)`;
            // `Ok(None)` is a `Query` whose reply is in `rows_body`.
            let commit = matches!(req, Request::Commit);
            ordinal += u64::from(matches!(req, Request::Begin));
            let outcome = match req {
                Request::Hello | Request::Bye => {
                    // Hello is illegal here (the state machine rejected
                    // it above); Bye closes, aborting anything open as
                    // a voluntary rollback.
                    self.roll_back(&mut xt, End::Abort(AbortCause::Stale));
                    let _ = Self::reply(&mut conn, &Response::Bye);
                    break;
                }
                Request::Begin => match self.admission.admit() {
                    Admission::Shed { retry_after_ms } => {
                        // State unchanged: the transaction never opened.
                        if Self::reply(&mut conn, &Response::Overloaded { retry_after_ms })
                            .is_err()
                        {
                            break;
                        }
                        continue;
                    }
                    Admission::Granted => {
                        let x = self.engine.external_begin();
                        if let Some(inj) = self.engine.injector() {
                            if inj.drop_mid_claim(sid, ordinal, x.txn(), obs) {
                                xt = Some(x);
                                self.roll_back(&mut xt, End::Died(AbortCause::Injected));
                                break;
                            }
                        }
                        xt = Some(x);
                        deadline = Some(Instant::now() + self.config.timeouts.txn);
                        Ok(Some(Response::Ok { seq: 0 }))
                    }
                },
                Request::Insert { class, attrs } => {
                    let mut data = WmeData::new(class);
                    for (k, v) in attrs {
                        data.attrs.insert(k.into(), v);
                    }
                    if self.config.stamp_session {
                        data.attrs
                            .insert_if_absent("session".into(), Value::Int(sid as i64));
                    }
                    let x = xt.as_mut().expect("InTxn implies open txn");
                    self.engine.external_insert(x, data).map(|()| Some(Response::Ok { seq: 0 }))
                }
                Request::Remove { id } => {
                    let x = xt.as_mut().expect("InTxn implies open txn");
                    let removed = self.engine.external_remove(x, dps_wm::WmeId(id));
                    removed.map(|()| Some(Response::Ok { seq: 0 }))
                }
                Request::Query { class } => {
                    let x = xt.as_mut().expect("InTxn implies open txn");
                    rows_body.clear();
                    Self::query_body(&self.engine, x, &class, &mut rows_body).map(|()| None)
                }
                Request::Invoke => {
                    self.engine.await_quiescence();
                    Ok(Some(Response::Done { commits: self.engine.rule_commit_count() }))
                }
                Request::Commit => {
                    let mut x = xt.take().expect("InTxn implies open txn");
                    deadline = None;
                    self.engine.external_commit(&mut x).map(|seq| {
                        self.book(End::Commit);
                        Some(Response::Ok { seq })
                    })
                }
                Request::Abort => {
                    deadline = None;
                    self.roll_back(&mut xt, End::Abort(AbortCause::Stale));
                    Ok(Some(Response::Ok { seq: 0 }))
                }
            };
            let committed = commit && outcome.is_ok();
            let resp = match outcome {
                Ok(resp) => {
                    state = next;
                    resp
                }
                Err(cause) => {
                    // The engine already rolled the transaction back.
                    xt = None;
                    deadline = None;
                    self.book(End::Abort(cause));
                    state = if draining { SessionState::Draining } else { SessionState::Idle };
                    Some(Response::Err { code: ErrCode::Aborted, msg: format!("{cause:?}") })
                }
            };
            let sent = match resp {
                Some(resp) => Self::reply(&mut conn, &resp),
                None => Self::send(&mut conn, &rows_body),
            };
            if sent.is_err() {
                self.roll_back(&mut xt, End::Died(AbortCause::Stale));
                break;
            }
            if committed {
                // Run to completion: fire what this commit enabled here,
                // after the reply, instead of waking a parked worker.
                self.engine.fire_ready();
            }
            if state == SessionState::Closed {
                break;
            }
        }
        // Belt and braces: no exit path may leak an open transaction.
        self.roll_back(&mut xt, End::Died(AbortCause::Stale));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{loopback_pair, LoopbackConn};
    use dps_core::ParallelConfig;
    use std::io::Write;

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
        let body = read_frame(conn).unwrap().expect("response");
        Response::decode(&body).unwrap()
    }

    fn hello(conn: &mut LoopbackConn) -> u64 {
        match rpc(conn, &Request::Hello) {
            Response::Granted { session } => session,
            r => panic!("expected Granted, got {r:?}"),
        }
    }

    fn fast_timeouts() -> SessionTimeouts {
        SessionTimeouts {
            idle_read: Some(Duration::from_millis(20)),
            txn: Duration::from_millis(250),
        }
    }

    #[test]
    fn sessions_commit_and_rules_fire() {
        let rules = accumulator_rules();
        let server = Server::new(
            &rules,
            acc_wm(4),
            ParallelConfig { workers: 2, ..ParallelConfig::default() },
            ServerConfig {
                timeouts: fast_timeouts(),
                stamp_session: true,
                ..ServerConfig::default()
            },
        );
        let (s1, mut c1) = loopback_pair();
        let (s2, mut c2) = loopback_pair();
        std::thread::scope(|s| {
            let srv = s.spawn(|| server.run(vec![s1, s2]));
            for (conn, key) in [(&mut c1, 0i64), (&mut c2, 1i64)] {
                let sid = hello(conn);
                assert!(sid > 0);
                assert_eq!(rpc(conn, &Request::Begin), Response::Ok { seq: 0 });
                let resp = rpc(
                    conn,
                    &Request::Insert {
                        class: "delta".into(),
                        attrs: vec![("key".into(), Value::Int(key)), ("v".into(), Value::Int(5))],
                    },
                );
                assert_eq!(resp, Response::Ok { seq: 0 });
                match rpc(conn, &Request::Commit) {
                    Response::Ok { seq } => assert!(seq > 0),
                    r => panic!("commit failed: {r:?}"),
                }
                match rpc(conn, &Request::Invoke) {
                    Response::Done { .. } => {}
                    r => panic!("invoke failed: {r:?}"),
                }
                assert_eq!(rpc(conn, &Request::Bye), Response::Bye);
            }
            let (report, stats) = srv.join().unwrap();
            assert_eq!(stats.sessions, 2);
            assert_eq!(stats.commits, 2);
            assert_eq!(stats.aborts, 0);
            assert_eq!(stats.admission.admitted, stats.commits + stats.aborts);
            assert_eq!(report.commits, 2, "one rule firing per delta");
        });
        // Both deltas consumed; totals updated; leak probes clean.
        let wm = server.engine().final_wm();
        assert_eq!(wm.class_iter("delta").count(), 0);
        let totals: i64 = wm
            .class_iter("acc")
            .filter_map(|w| match w.data.get("total") {
                Some(Value::Int(v)) => Some(*v),
                _ => None,
            })
            .sum();
        assert_eq!(totals, 10);
        assert_eq!(server.engine().held_locks(), 0);
        assert_eq!(server.engine().snapshot_pins(), 0);
    }

    #[test]
    fn disconnect_mid_txn_releases_everything() {
        let rules = accumulator_rules();
        let server = Server::new(
            &rules,
            acc_wm(2),
            ParallelConfig { workers: 1, ..ParallelConfig::default() },
            ServerConfig { timeouts: fast_timeouts(), ..ServerConfig::default() },
        );
        let (s1, mut c1) = loopback_pair();
        std::thread::scope(|s| {
            let srv = s.spawn(|| server.run(vec![s1]));
            hello(&mut c1);
            assert_eq!(rpc(&mut c1, &Request::Begin), Response::Ok { seq: 0 });
            let resp = rpc(
                &mut c1,
                &Request::Insert {
                    class: "delta".into(),
                    attrs: vec![("key".into(), Value::Int(0)), ("v".into(), Value::Int(1))],
                },
            );
            assert_eq!(resp, Response::Ok { seq: 0 });
            c1.kill(); // client dies mid-transaction
            let (_, stats) = srv.join().unwrap();
            assert_eq!(stats.disconnects, 1);
            assert_eq!(stats.aborts, 1);
            assert_eq!(stats.commits, 0);
            assert_eq!(stats.admission.admitted, stats.commits + stats.aborts);
        });
        assert_eq!(server.engine().held_locks(), 0, "disconnect leaked locks");
        assert_eq!(server.engine().snapshot_pins(), 0, "disconnect leaked pins");
        // The uncommitted delta never reached working memory.
        assert_eq!(server.engine().final_wm().class_iter("delta").count(), 0);
    }

    #[test]
    fn silent_txn_holder_is_timed_out() {
        let rules = accumulator_rules();
        let server = Server::new(
            &rules,
            acc_wm(1),
            ParallelConfig { workers: 1, ..ParallelConfig::default() },
            ServerConfig {
                timeouts: SessionTimeouts {
                    idle_read: Some(Duration::from_millis(20)),
                    txn: Duration::from_millis(40),
                },
                ..ServerConfig::default()
            },
        );
        let (s1, mut c1) = loopback_pair();
        std::thread::scope(|s| {
            let srv = s.spawn(|| server.run(vec![s1]));
            hello(&mut c1);
            assert_eq!(rpc(&mut c1, &Request::Begin), Response::Ok { seq: 0 });
            // Go silent holding the transaction; the server must roll
            // it back and hang up.
            let mut buf = [0u8; 1];
            use std::io::Read;
            c1.set_read_timeout(None);
            assert_eq!(c1.read(&mut buf).unwrap(), 0, "server hung up");
            let (_, stats) = srv.join().unwrap();
            assert_eq!(stats.timeouts, 1);
            assert_eq!(stats.aborts, 1);
        });
        assert_eq!(server.engine().held_locks(), 0);
        assert_eq!(server.engine().snapshot_pins(), 0);
    }

    #[test]
    fn a_frame_split_across_the_read_timeout_ends_the_session() {
        crate::transport::watchdog(|| {
            let rules = accumulator_rules();
            let server = Server::new(
                &rules,
                acc_wm(1),
                ParallelConfig { workers: 1, ..ParallelConfig::default() },
                ServerConfig {
                    timeouts: SessionTimeouts {
                        idle_read: Some(Duration::from_millis(20)),
                        txn: Duration::from_millis(40),
                    },
                    ..ServerConfig::default()
                },
            );
            // Writes `req`'s frame in two pieces, 100 ms apart: past the
            // idle read timeout and the transaction budget alike.
            let split = |conn: &mut LoopbackConn, req: &Request| {
                let mut frame = Vec::new();
                write_frame(&mut frame, &req.encode()).unwrap();
                conn.write_all(&frame[..2]).unwrap();
                std::thread::sleep(Duration::from_millis(100));
                // The server may have hung up already.
                let _ = conn.write_all(&frame[2..]);
            };
            let (s1, mut c1) = loopback_pair();
            let (s2, mut c2) = loopback_pair();
            std::thread::scope(|s| {
                let srv = s.spawn(|| server.run(vec![s1, s2]));
                hello(&mut c1);
                hello(&mut c2);
                // Idle: the server drops the session instead of reading
                // the rest of the frame as the start of the next one.
                split(&mut c1, &Request::Begin);
                assert_eq!(read_frame(&mut c1).unwrap(), None, "server hung up");
                // In a transaction: rolled back as an overrun.
                assert_eq!(rpc(&mut c2, &Request::Begin), Response::Ok { seq: 0 });
                let insert = Request::Insert {
                    class: "delta".into(),
                    attrs: vec![("key".into(), Value::Int(0)), ("v".into(), Value::Int(1))],
                };
                split(&mut c2, &insert);
                assert_eq!(read_frame(&mut c2).unwrap(), None, "server hung up");
                let (_, stats) = srv.join().unwrap();
                assert_eq!((stats.sessions, stats.commits), (2, 0));
                assert_eq!((stats.aborts, stats.timeouts, stats.disconnects), (1, 1, 0));
                assert_eq!(stats.admission.admitted, stats.commits + stats.aborts);
            });
            assert_eq!(server.engine().held_locks(), 0);
            assert_eq!(server.engine().snapshot_pins(), 0);
            assert_eq!(server.engine().final_wm().class_iter("delta").count(), 0);
        });
    }

    #[test]
    fn overload_is_shed_with_typed_response() {
        let rules = accumulator_rules();
        let server = Server::new(
            &rules,
            acc_wm(1),
            ParallelConfig { workers: 1, ..ParallelConfig::default() },
            ServerConfig {
                admission: AdmissionConfig {
                    tokens_per_sec: 0.001, // ~no refill during the test
                    bucket_cap: 1.0,
                    ..AdmissionConfig::default()
                },
                timeouts: fast_timeouts(),
                ..ServerConfig::default()
            },
        );
        let (s1, mut c1) = loopback_pair();
        std::thread::scope(|s| {
            let srv = s.spawn(|| server.run(vec![s1]));
            hello(&mut c1);
            assert_eq!(rpc(&mut c1, &Request::Begin), Response::Ok { seq: 0 });
            assert_eq!(rpc(&mut c1, &Request::Abort), Response::Ok { seq: 0 });
            match rpc(&mut c1, &Request::Begin) {
                Response::Overloaded { retry_after_ms } => assert!(retry_after_ms >= 1),
                r => panic!("expected Overloaded, got {r:?}"),
            }
            // The shed left the session Idle, not broken: Bye still works.
            assert_eq!(rpc(&mut c1, &Request::Bye), Response::Bye);
            let (_, stats) = srv.join().unwrap();
            assert_eq!(stats.admission.shed_rate, 1);
            assert_eq!(stats.admission.shed_total(), 1);
        });
    }

    #[test]
    fn drain_refuses_new_transactions() {
        let rules = accumulator_rules();
        let server = Server::new(
            &rules,
            acc_wm(1),
            ParallelConfig { workers: 1, ..ParallelConfig::default() },
            ServerConfig { timeouts: fast_timeouts(), ..ServerConfig::default() },
        );
        let (s1, mut c1) = loopback_pair();
        std::thread::scope(|s| {
            let srv = s.spawn(|| server.run(vec![s1]));
            hello(&mut c1);
            server.request_drain();
            match rpc(&mut c1, &Request::Begin) {
                Response::Err { code, .. } => assert_eq!(code, ErrCode::Draining),
                r => panic!("expected Err(Draining), got {r:?}"),
            }
            assert_eq!(rpc(&mut c1, &Request::Bye), Response::Bye);
            let (_, stats) = srv.join().unwrap();
            assert_eq!(stats.commits, 0);
        });
    }

    #[test]
    fn oversized_rows_reply_is_a_typed_error_not_a_hang_up() {
        // 30 000 `acc` rows encode to about 1.6 MB, past `MAX_FRAME`.
        let rules = accumulator_rules();
        let server = Server::new(
            &rules,
            acc_wm(30_000),
            ParallelConfig { workers: 1, ..ParallelConfig::default() },
            ServerConfig {
                timeouts: SessionTimeouts {
                    idle_read: Some(Duration::from_millis(20)),
                    txn: Duration::from_secs(30),
                },
                ..ServerConfig::default()
            },
        );
        let (s1, mut c1) = loopback_pair();
        std::thread::scope(|s| {
            let srv = s.spawn(|| server.run(vec![s1]));
            hello(&mut c1);
            assert_eq!(rpc(&mut c1, &Request::Begin), Response::Ok { seq: 0 });
            match rpc(&mut c1, &Request::Query { class: "acc".into() }) {
                Response::Err { code, msg } => {
                    assert_eq!(code, ErrCode::Protocol);
                    assert!(msg.contains("MAX_FRAME"), "{msg}");
                }
                r => panic!("expected Err(Protocol), got {r:?}"),
            }
            // The transaction is still open and usable.
            match rpc(&mut c1, &Request::Query { class: "delta".into() }) {
                Response::Rows { rows } => assert!(rows.is_empty()),
                r => panic!("expected Rows, got {r:?}"),
            }
            let insert = Request::Insert {
                class: "delta".into(),
                attrs: vec![("key".into(), Value::Int(7)), ("v".into(), Value::Int(3))],
            };
            assert_eq!(rpc(&mut c1, &insert), Response::Ok { seq: 0 });
            match rpc(&mut c1, &Request::Commit) {
                Response::Ok { seq } => assert!(seq > 0),
                r => panic!("commit failed: {r:?}"),
            }
            assert_eq!(rpc(&mut c1, &Request::Bye), Response::Bye);
            let (_, stats) = srv.join().unwrap();
            assert_eq!(stats.disconnects, 0);
            assert_eq!(stats.aborts, 0);
            assert_eq!(stats.commits, 1);
        });
        assert_eq!(server.engine().held_locks(), 0);
    }

    #[test]
    fn rows_from_working_memory_encode_like_response_encode() {
        let mut wm = acc_wm(5);
        wm.insert(WmeData::new("acc").with("key", 9i64).with("tag", Value::Sym("hot".into())));
        wm.insert(WmeData::new("acc").with("key", 10i64).with("note", Value::Str("é".into())));
        let engine = ParallelEngine::new(
            &accumulator_rules(),
            wm,
            ParallelConfig { service: true, ..ParallelConfig::default() },
        );
        for class in ["acc", "none"] {
            let mut xt = engine.external_begin();
            let rows = engine.external_query(&mut xt, class).unwrap();
            let mut body = Vec::new();
            Server::query_body(&engine, &mut xt, class, &mut body).unwrap();
            assert_eq!(body, Response::Rows { rows }.encode(), "class {class}");
            engine.external_abort(&mut xt, AbortCause::Stale);
        }
    }

    #[test]
    fn state_machine_violations_are_rejected_not_fatal() {
        let rules = accumulator_rules();
        let server = Server::new(
            &rules,
            acc_wm(1),
            ParallelConfig { workers: 1, ..ParallelConfig::default() },
            ServerConfig { timeouts: fast_timeouts(), ..ServerConfig::default() },
        );
        let (s1, mut c1) = loopback_pair();
        std::thread::scope(|s| {
            let srv = s.spawn(|| server.run(vec![s1]));
            hello(&mut c1);
            // Commit without Begin.
            match rpc(&mut c1, &Request::Commit) {
                Response::Err { code, .. } => assert_eq!(code, ErrCode::BadState),
                r => panic!("expected Err(BadState), got {r:?}"),
            }
            // Session still usable afterwards.
            assert_eq!(rpc(&mut c1, &Request::Begin), Response::Ok { seq: 0 });
            assert_eq!(rpc(&mut c1, &Request::Abort), Response::Ok { seq: 0 });
            assert_eq!(rpc(&mut c1, &Request::Bye), Response::Bye);
            let (_, stats) = srv.join().unwrap();
            assert_eq!(stats.sessions, 1);
        });
    }
}
