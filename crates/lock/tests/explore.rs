//! Every interleaving of the §4.3 protocol core, at small scope.
//!
//! A depth-first search with state hashing over the pure decisions of
//! [`dps_lock::protocol`], stepped at the critical-section boundaries
//! of `LockManager`: one step is one section (a grant step under a
//! stripe and a record, a record read, an entry read, one stripe of a
//! scan or a release, a commit point over several records, a registry
//! removal) or the delivery of one wake-up. A deadlock walk reads a
//! transaction's `waiting_on` and then its entry as two steps, and
//! confirms a cycle it found one member's record at a time, so the
//! fuzzy walk is explored too. Each owner thread runs one transaction
//! and picks its next request at every idle point: a lock in a mode of
//! the protocol on a resource, an injected forced abort, an abort of
//! another thread's transaction, then its own commit or abort. Under
//! `Revalidate` a committer then gives the engine's verdict on each
//! reader its commit handed back, one step each, at any later point:
//! the reader is kept (it re-reads what was written) or doomed by the
//! committed writer through `protocol::doom`. The engine judges under
//! the base mutex every commit takes, so a reader's commit point waits
//! for the verdicts owed on it. The scopes are listed at [`scopes`].
//!
//! Checked in every reachable state:
//! - a transaction ends exactly once, and leaves no holder or waiter
//!   entry behind;
//! - no thread is parked without a pending signal when its request is
//!   grantable or its transaction is no longer `Active`;
//! - a granted mode is compatible with every other holder's modes;
//! - under the policies that doom, a committed `W_a`/`IW_a` holder
//!   leaves no `Active` `R_c` holder on its resource (Fig. 4.3);
//! - under `Revalidate`, a doomed reader never commits: no verdict
//!   lands on a reader that has committed already;
//! - the walk reads the edges there are: the blockers it reads for a
//!   queued request are exactly those Table 4.1 and first come first
//!   served give at that instant, recomputed here from `compatible`;
//! - a victim is doomed only on a real cycle: unless a member has
//!   stopped being `Active`, every edge of the cycle holds when the
//!   victim is doomed;
//! - committed histories are serialisable in commit order: at a
//!   transaction's commit point every version it read is still the
//!   latest committed one.
//!
//! A state where no thread can move while a thread is not done is a
//! hang, reported with any waits-for cycle left without a victim. Each
//! violated invariant is reported with the first trace that broke it.
//!
//! Run with `cargo test --release -p dps-lock --test explore --
//! --nocapture` to see the explored state counts.

use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

use dps_lock::protocol::{
    self, Cycle, Decision, Effect, Ender, Entry, ModeSet, Record, Request, Status, Waiter, Walk,
};
use dps_lock::{compatible, ConflictPolicy, LockMode, Protocol, ResourceId, TxnId};

/// The two resources.
const RES: [ResourceId; 2] = [ResourceId::Tuple(0), ResourceId::Tuple(1)];

fn index(res: ResourceId) -> usize {
    RES.iter()
        .position(|&r| r == res)
        .expect("a modelled resource")
}

fn id(t: usize) -> TxnId {
    TxnId(t as u64)
}

fn reads(mode: LockMode) -> bool {
    matches!(mode, LockMode::S | LockMode::Rc | LockMode::Ra)
}

fn writes(mode: LockMode) -> bool {
    !reads(mode)
}

/// A lock request: resource index and mode.
type Req = (usize, LockMode);

/// Where an owner thread is. Each variant but `Idle` and `Done` is the
/// next critical section the thread runs.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Pc {
    /// Between requests: picks the next one.
    Idle,
    /// `grant_step`: `protocol::request` under the stripe and record.
    Grant(Req),
    /// The walk reads the record of the transaction it needs next.
    Waiting(Req, Walk),
    /// The walk reads the entry that transaction is queued on.
    Blockers(Req, Walk, usize, Req),
    /// The walk's cycle, confirmed member by member: the next member's
    /// record is read.
    Confirm(Req, Cycle, usize),
    /// `doom_victim` on the confirmed cycle's victim.
    Victim(Req, Cycle),
    /// Parked on the wait slot.
    Park(Req),
    /// `surface_doom`: `protocol::end` with `Ender::Doom`.
    Surface,
    /// An injected forced abort of the own transaction.
    Forced,
    /// `abort` of the given transaction (the own one or another).
    Abort(usize),
    /// `commit`, first section: what the transaction holds.
    CommitRead,
    /// `commit`: the overlap scan over the stripes (resources) where it
    /// holds a write that overrides `R_c`, one per step: what it holds,
    /// the stripes left to scan and the readers found so far.
    CommitScan(Vec<usize>, Vec<usize>, Vec<TxnId>),
    /// `commit`: the commit point over the records.
    CommitPoint(Vec<usize>, Vec<TxnId>),
    /// `release_held` of a transaction: its stripes left, the wakes so
    /// far, and where the thread goes after unregistering it.
    Release(usize, Vec<usize>, Vec<TxnId>, bool),
    /// `release_held`'s last step: the registry removal.
    Unregister(usize, bool),
    /// The engine's verdict on the first reader the commit handed back.
    /// The search takes both: the step with `true` dooms it, the one
    /// with `false` keeps it (at rest the flag means nothing).
    Verdict(bool),
    /// The thread's transaction is over.
    Done,
}

/// One transaction and the thread that owns it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Txn {
    rec: Record,
    /// The wait slot's flag.
    signalled: bool,
    /// In the registry.
    live: bool,
    /// Terminal transitions so far (`Committed` or `Aborted`).
    ends: u8,
    /// The version of each resource its first read grant saw.
    read: [Option<u8>; 2],
    /// Requests picked so far (locks, forced and foreign aborts).
    requests: u8,
    pc: Pc,
    /// Wake-ups this thread still delivers, in order, before its next
    /// section.
    outbox: Vec<TxnId>,
    /// Readers its commit handed back whose verdict it still owes.
    handed_back: Vec<TxnId>,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct State {
    entries: [Entry; 2],
    txns: Vec<Txn>,
    /// The last committed writer of each resource, as `1 + index`.
    versions: [u8; 2],
}

/// The scope of one search.
#[derive(Clone, Copy, Debug)]
struct Scope {
    protocol: Protocol,
    policy: ConflictPolicy,
    txns: usize,
    /// Requests each transaction may pick before it commits or aborts.
    requests: u8,
    /// How many of [`RES`] the requests may name.
    resources: usize,
    modes: &'static [LockMode],
    /// Forced aborts and aborts of another thread's transaction are
    /// among the requests.
    aborts: bool,
}

/// What a search found.
#[derive(Debug, Default)]
struct Findings {
    states: u64,
    /// `(invariant, trace)`: the first counterexample of each broken
    /// invariant, one line per step.
    violations: Vec<(String, Vec<String>)>,
}

/// Multiply-mix hasher: the visited set keys on a 64-bit state hash.
#[derive(Default)]
struct Fx(u64);

impl Hasher for Fx {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

fn fingerprint(st: &State) -> u64 {
    let mut h = Fx::default();
    st.hash(&mut h);
    h.finish()
}

/// Next states of one thread: `(label, state, broken invariant)`.
type Successors = Vec<(String, State, Option<String>)>;

/// How the search reached a state: `(thread, successor)` pairs.
type Path = Vec<(usize, usize)>;

struct Explorer {
    scope: Scope,
    seen: HashSet<u64, BuildHasherDefault<Fx>>,
    findings: Findings,
    /// Steps are labelled only when a trace is printed: the search
    /// keeps `(thread, successor)` pairs and replays them.
    labels: bool,
}

impl Explorer {
    fn new(scope: Scope) -> Self {
        Explorer {
            scope,
            seen: HashSet::default(),
            findings: Findings::default(),
            labels: false,
        }
    }

    fn run(mut self) -> Findings {
        let start = State {
            entries: Default::default(),
            txns: (0..self.scope.txns)
                .map(|_| Txn {
                    rec: Record::default(),
                    signalled: false,
                    live: true,
                    ends: 0,
                    read: [None; 2],
                    requests: 0,
                    pc: Pc::Idle,
                    outbox: Vec::new(),
                    handed_back: Vec::new(),
                })
                .collect(),
            versions: [0; 2],
        };
        let mut broken = Vec::new();
        self.dfs(start.clone(), &mut Vec::new(), &mut broken);
        self.labels = true;
        for (invariant, path) in broken {
            let mut st = start.clone();
            let mut trace = Vec::new();
            for (t, k) in path {
                let (label, next, _) = self.steps(&st, t).swap_remove(k);
                trace.push(format!("T{t}: {label}"));
                st = next;
            }
            self.findings.violations.push((invariant, trace));
        }
        self.findings.states = self.seen.len() as u64;
        self.findings
    }

    /// Keeps the first path that breaks each invariant (named by the
    /// text before its first colon).
    fn report(broken: &mut Vec<(String, Path)>, invariant: String, path: &Path) {
        let kind = |s: &str| s.split(':').next().unwrap_or_default().to_string();
        if !broken.iter().any(|(k, _)| kind(k) == kind(&invariant)) {
            broken.push((invariant, path.to_vec()));
        }
    }

    /// Visits `st` and everything reachable from it.
    fn dfs(&mut self, st: State, path: &mut Path, broken: &mut Vec<(String, Path)>) {
        if !self.seen.insert(fingerprint(&st)) {
            return;
        }
        if let Some(invariant) = self.check(&st) {
            return Self::report(broken, invariant, path);
        }
        let mut moved = false;
        for t in 0..st.txns.len() {
            for (k, (_, next, invariant)) in self.steps(&st, t).into_iter().enumerate() {
                moved = true;
                path.push((t, k));
                match invariant {
                    Some(invariant) => Self::report(broken, invariant, path),
                    None => self.dfs(next, path, broken),
                }
                path.pop();
            }
        }
        if !moved {
            if let Some(invariant) = self.terminal(&st) {
                Self::report(broken, invariant, path);
            }
        }
    }

    /// A label for a step, formatted only when a trace is printed.
    fn say(&self, args: fmt::Arguments) -> String {
        if self.labels {
            args.to_string()
        } else {
            String::new()
        }
    }

    /// The invariants of one state.
    fn check(&self, st: &State) -> Option<String> {
        for (t, txn) in st.txns.iter().enumerate() {
            if txn.ends > 1 {
                return Some(format!("ends exactly once: T{t} ended {} times", txn.ends));
            }
            let in_entries = || {
                let holds = |e: &Entry| e.holders.get(id(t)) != ModeSet::default();
                st.entries
                    .iter()
                    .any(|e| holds(e) || e.waiters.iter().any(|&(w, _)| w == id(t)))
            };
            if !txn.live && in_entries() {
                return Some(format!("ends exactly once: T{t} left its locks behind"));
            }
            if let Pc::Park((r, mode)) = txn.pc {
                let pending = st.txns.iter().any(|o| {
                    o.outbox.contains(&id(t))
                        || matches!(&o.pc, Pc::Release(_, _, wake, _) if wake.contains(&id(t)))
                });
                let stuck =
                    txn.rec.status != Status::Active || st.entries[r].grantable(id(t), mode);
                if stuck && !txn.signalled && !pending {
                    return Some(format!(
                        "no parked thread without a pending signal: T{t} is parked on t{r} {mode} as {:?}",
                        txn.rec.status
                    ));
                }
            }
        }
        if self.scope.policy != ConflictPolicy::Revalidate {
            for (r, e) in st.entries.iter().enumerate() {
                for (w, modes) in e.holders.iter() {
                    let committed = st.txns[w.0 as usize].rec.status == Status::Committed;
                    if !committed || !modes.iter().any(LockMode::overrides_rc) {
                        continue;
                    }
                    for (reader, rmodes) in e.holders.iter() {
                        let live = st.txns[reader.0 as usize].rec.status == Status::Active;
                        if reader != w && live && rmodes.contains(LockMode::Rc) {
                            return Some(format!(
                                "a committed write leaves no Active Rc holder: {w} committed over {reader}'s Rc on t{r}"
                            ));
                        }
                    }
                }
            }
        }
        None
    }

    /// A state where no thread can move: what is wrong with it, if the
    /// threads are not all done.
    fn terminal(&self, st: &State) -> Option<String> {
        if st
            .txns
            .iter()
            .all(|t| t.pc == Pc::Done && t.ends == 1 && !t.live)
        {
            return None;
        }
        let held = |b: TxnId| {
            real_blockers(st, b.0 as usize)
                .into_iter()
                .map(|x| (x, None))
                .collect()
        };
        let edges = |b: TxnId| (st.txns[b.0 as usize].rec.waiting_on, held(b));
        let cycle = (0..st.txns.len()).find_map(|t| Walk::new(id(t)).run(edges));
        let broken = match cycle {
            Some(cycle) => format!("every waits-for cycle gets a victim: {cycle:?} is left"),
            None => {
                let thread = |(t, x): (usize, &Txn)| format!("T{t} {:?} {:?}", x.pc, x.rec.status);
                let stuck: Vec<String> = st.txns.iter().enumerate().map(thread).collect();
                format!("no hang: nobody can move: {}", stuck.join("; "))
            }
        };
        Some(broken)
    }

    /// The next states of thread `t`.
    fn steps(&self, st: &State, t: usize) -> Successors {
        let txn = &st.txns[t];
        if let Some(&to) = txn.outbox.first() {
            let mut next = st.clone();
            next.txns[t].outbox.remove(0);
            if next.txns[to.0 as usize].live {
                next.txns[to.0 as usize].signalled = true;
            }
            return vec![(self.say(format_args!("signal {to}")), next, None)];
        }
        match txn.pc.clone() {
            Pc::Done => Vec::new(),
            Pc::Idle => self.choices(st, t),
            Pc::Park(req) if txn.signalled => {
                let (label, next, broken) = self.section(st, t, Pc::Grant(req));
                vec![(self.say(format_args!("wakes: {label}")), next, broken)]
            }
            Pc::Park(_) => Vec::new(),
            Pc::CommitPoint(..) if st.txns.iter().any(|o| o.handed_back.contains(&id(t))) => {
                Vec::new()
            }
            Pc::Verdict(_) => [false, true]
                .map(|doom| self.section(st, t, Pc::Verdict(doom)))
                .into(),
            pc => vec![self.section(st, t, pc)],
        }
    }

    /// The requests an idle thread may pick, each run together with its
    /// first section: picking touches nothing another thread sees.
    fn choices(&self, st: &State, t: usize) -> Successors {
        if !st.txns[t].live {
            // Its transaction was aborted from another thread: the
            // owner's next call answers `NotActive`.
            return vec![(
                self.say(format_args!("finds itself ended")),
                with_pc(st, t, Pc::Done),
                None,
            )];
        }
        let mut picks = vec![(self.say(format_args!("commit")), Pc::CommitRead, 0)];
        if self.scope.aborts {
            picks.push((self.say(format_args!("abort")), Pc::Abort(t), 0));
        }
        if st.txns[t].requests < self.scope.requests {
            for r in 0..self.scope.resources {
                for &mode in self.scope.modes {
                    picks.push((
                        self.say(format_args!("lock t{r} {mode}")),
                        Pc::Grant((r, mode)),
                        1,
                    ));
                }
            }
            if self.scope.aborts {
                picks.push((self.say(format_args!("forced abort")), Pc::Forced, 1));
                for other in (0..st.txns.len()).filter(|&o| o != t) {
                    picks.push((
                        self.say(format_args!("abort T{other}")),
                        Pc::Abort(other),
                        1,
                    ));
                }
            }
        }
        let run = |(pick, pc, request): (String, Pc, u8)| {
            let (label, mut next, broken) = self.section(st, t, pc);
            next.txns[t].requests += request;
            (self.say(format_args!("{pick}: {label}")), next, broken)
        };
        picks.into_iter().map(run).collect()
    }

    /// One critical section of thread `t` at `pc`.
    fn section(&self, st: &State, t: usize, pc: Pc) -> (String, State, Option<String>) {
        let mut next = st.clone();
        let mut effects = Vec::new();
        let mut broken = None;
        let label = match pc {
            Pc::Grant((r, mode)) => {
                let (entries, txns, version) =
                    (&mut next.entries, &mut next.txns, next.versions[r]);
                let (entry, rec) = (&mut entries[r], &mut txns[t].rec);
                let effect = protocol::request(entry, id(t), rec, RES[r], mode, &mut effects);
                txns[t].pc = match effect {
                    Err(_) => Pc::Surface,
                    Ok(Decision::Held) => Pc::Idle,
                    Ok(Decision::Park { .. }) => {
                        txns[t].signalled = false;
                        Pc::Waiting((r, mode), Walk::new(id(t)))
                    }
                    Ok(Decision::Grant) => {
                        let mut holders = entries[r].holders.iter();
                        let refused = |&(h, held): &(TxnId, ModeSet)| {
                            h != id(t) && held.iter().any(|m| !compatible(m, mode))
                        };
                        if let Some((h, _)) = holders.find(refused) {
                            broken = Some(format!(
                                "granted modes are compatible: {mode} granted over {h} on t{r}"
                            ));
                        }
                        if reads(mode) {
                            txns[t].read[r].get_or_insert(version);
                        }
                        Pc::Idle
                    }
                };
                self.say(format_args!("grant step t{r} {mode} -> {effect:?}"))
            }
            Pc::Waiting(req, mut walk) => {
                let b = walk.next().expect("a walk without a verdict").0 as usize;
                let waiting = if st.txns[b].live {
                    protocol::waiting(&st.txns[b].rec)
                } else {
                    None
                };
                next.txns[t].pc = match waiting {
                    Some((res, mode)) => Pc::Blockers(req, walk, b, (index(res), mode)),
                    None => after_feed(req, &mut walk, None, Vec::new()),
                };
                self.say(format_args!("walk reads T{b}'s record: {waiting:?}"))
            }
            Pc::Blockers(req, mut walk, b, (r, mode)) => {
                let blockers = protocol::blockers(&st.entries[r], id(b), (RES[r], mode));
                let real = queued_behind(&st.entries[r], id(b), mode);
                if blockers.iter().map(|&(x, _)| x).ne(real.iter().copied()) {
                    broken = Some(format!(
                        "the walk reads the edges there are: T{b} waits for {real:?}"
                    ));
                }
                let label = self.say(format_args!("walk reads t{r}: T{b} waits for {blockers:?}"));
                next.txns[t].pc = after_feed(req, &mut walk, Some((RES[r], mode)), blockers);
                label
            }
            Pc::Confirm(req, cycle, k) => {
                let (m, member) = (cycle[k].0 .0 as usize, cycle[k]);
                let confirmed = st.txns[m].live && protocol::confirms(&st.txns[m].rec, member);
                next.txns[t].pc = match (confirmed, k + 1 == cycle.len()) {
                    (false, _) => Pc::Waiting(req, Walk::new(id(t))),
                    (true, true) => Pc::Victim(req, cycle),
                    (true, false) => Pc::Confirm(req, cycle, k + 1),
                };
                self.say(format_args!("walk confirms T{m}: {confirmed}"))
            }
            Pc::Victim(req, cycle) => {
                let all_active = cycle
                    .iter()
                    .all(|m| st.txns[m.0 .0 as usize].rec.status == Status::Active);
                let real = (0..cycle.len()).all(|k| {
                    let next = cycle[(k + 1) % cycle.len()].0;
                    real_blockers(st, cycle[k].0 .0 as usize).contains(&next)
                });
                if all_active && !real {
                    broken = Some(format!(
                        "only a real cycle gets a victim: {cycle:?} is not one"
                    ));
                }
                let victim = protocol::victim(&cycle);
                if next.txns[victim.0 as usize].live {
                    protocol::doom(
                        victim,
                        &mut next.txns[victim.0 as usize].rec,
                        None,
                        &mut effects,
                    );
                }
                next.txns[t].pc = Pc::Waiting(req, Walk::new(id(t)));
                self.say(format_args!("victim {victim} of {cycle:?}"))
            }
            Pc::Surface => self.end(&mut next, (t, t), Ender::Doom, &mut effects, false),
            Pc::Forced => self.end(&mut next, (t, t), Ender::Forced, &mut effects, false),
            Pc::Abort(of) => self.end(&mut next, (t, of), Ender::Abort, &mut effects, of != t),
            Pc::CommitRead => {
                let rec = &st.txns[t].rec;
                let held: Vec<usize> = rec.held.iter().map(|(r, _)| index(r)).collect();
                let overrides =
                    |&(_, modes): &(_, ModeSet)| modes.iter().any(LockMode::overrides_rc);
                let scan: Vec<usize> = rec
                    .held
                    .iter()
                    .filter(overrides)
                    .map(|(r, _)| index(r))
                    .collect();
                next.txns[t].pc = match rec.status {
                    Status::Active if scan.is_empty() => Pc::CommitPoint(held, Vec::new()),
                    Status::Active => Pc::CommitScan(held, scan, Vec::new()),
                    _ => Pc::Surface,
                };
                "commit reads its locks".into()
            }
            Pc::CommitScan(held, mut scan, mut readers) => {
                let r = scan.remove(0);
                protocol::overlapped(&st.entries[r], id(t), &mut readers);
                next.txns[t].pc = match scan.is_empty() {
                    true => Pc::CommitPoint(held, readers),
                    false => Pc::CommitScan(held, scan, readers),
                };
                self.say(format_args!("commit scans t{r}"))
            }
            Pc::CommitPoint(held, readers) => {
                let live: Vec<usize> = readers
                    .iter()
                    .map(|r| r.0 as usize)
                    .filter(|&r| st.txns[r].live)
                    .collect();
                let mut records: Vec<(TxnId, &mut Record)> = next
                    .txns
                    .iter_mut()
                    .enumerate()
                    .filter(|(i, _)| *i == t || live.contains(i))
                    .map(|(i, x)| (id(i), &mut x.rec))
                    .collect();
                let verdict =
                    protocol::commit(self.scope.policy, id(t), &mut records, &mut effects);
                drop(records);
                match verdict {
                    Err(_) => next.txns[t].pc = Pc::Surface,
                    Ok(()) => {
                        broken = commit_order(&mut next, t);
                        next.txns[t].ends += 1;
                        next.txns[t].pc = release(t, held, false);
                        let handed_back = effects.iter().filter_map(|e| match *e {
                            Effect::Revalidate(reader) => Some(reader),
                            _ => None,
                        });
                        next.txns[t].handed_back.extend(handed_back);
                    }
                }
                self.say(format_args!("commit point over {readers:?} -> {verdict:?}"))
            }
            Pc::Release(of, mut left, mut wake, back) => {
                let r = left.remove(0);
                let mut out = Vec::new();
                protocol::release(&mut next.entries[r], id(of), &mut out);
                wake.extend(out.iter().filter_map(|e| match *e {
                    Effect::Signal(w) => Some(w),
                    _ => None,
                }));
                next.txns[t].pc = match left.is_empty() {
                    true => {
                        next.txns[t].outbox = wake;
                        Pc::Unregister(of, back)
                    }
                    false => Pc::Release(of, left, wake, back),
                };
                self.say(format_args!("releases T{of} on t{r}"))
            }
            Pc::Unregister(of, back) => {
                next.txns[of].live = false;
                next.txns[t].pc = match (back, next.txns[t].handed_back.is_empty()) {
                    (true, _) => Pc::Idle,
                    (false, true) => Pc::Done,
                    (false, false) => Pc::Verdict(false),
                };
                self.say(format_args!("unregisters T{of}"))
            }
            Pc::Verdict(doom) => {
                let reader = next.txns[t].handed_back.remove(0);
                let r = reader.0 as usize;
                if st.txns[r].rec.status == Status::Committed {
                    broken = Some(format!(
                        "a doomed reader never commits: {reader} committed before T{t}'s verdict"
                    ));
                }
                if !doom {
                    // Kept: its instantiation still holds, as if it
                    // re-read everything `t` wrote.
                    for (res, modes) in st.txns[t].rec.held.iter() {
                        let seen = &mut next.txns[r].read[index(res)];
                        if modes.iter().any(writes) && seen.is_some() {
                            *seen = Some(st.versions[index(res)]);
                        }
                    }
                } else if st.txns[r].live {
                    protocol::doom(reader, &mut next.txns[r].rec, Some(id(t)), &mut effects);
                }
                next.txns[t].pc = match next.txns[t].handed_back.is_empty() {
                    true => Pc::Done,
                    false => Pc::Verdict(false),
                };
                let verdict = if doom { "dooms" } else { "keeps" };
                self.say(format_args!("verdict: {verdict} {reader}"))
            }
            Pc::Idle | Pc::Park(_) | Pc::Done => unreachable!("not a section"),
        };
        for effect in effects {
            match effect {
                Effect::Signal(to) | Effect::Doom { victim: to, .. } => {
                    next.txns[t].outbox.push(to)
                }
                Effect::Revalidate(_) => {}
            }
        }
        (label, next, broken)
    }

    /// `end` of transaction `of` by thread `t`: [`protocol::end`] under
    /// its record, then its release. `back` when `t` returns to its own
    /// transaction afterwards.
    fn end(
        &self,
        st: &mut State,
        (t, of): (usize, usize),
        ender: Ender,
        effects: &mut Vec<Effect>,
        back: bool,
    ) -> String {
        let after = if back { Pc::Idle } else { Pc::Done };
        if !st.txns[of].live {
            st.txns[t].pc = after;
            return self.say(format_args!("{ender:?} of T{of}: not registered"));
        }
        let txn = &mut st.txns[of];
        let result = protocol::end(id(of), &mut txn.rec, ender, effects);
        st.txns[t].pc = match result {
            None => after,
            Some(_) => {
                let txn = &mut st.txns[of];
                txn.ends += 1;
                let queued = txn.rec.waiting_on.take().map(|(res, _)| index(res));
                let mut held: Vec<usize> = txn
                    .rec
                    .held
                    .iter()
                    .map(|(r, _)| index(r))
                    .chain(queued)
                    .collect();
                held.sort_unstable();
                held.dedup();
                release(of, held, back)
            }
        };
        self.say(format_args!("{ender:?} of T{of} -> {result:?}"))
    }
}

/// `st` with thread `t` moved to `pc`.
fn with_pc(st: &State, t: usize, pc: Pc) -> State {
    let mut next = st.clone();
    next.txns[t].pc = pc;
    next
}

/// `release_held` of `of` over the stripes `held`, by a thread that
/// goes `back` to its own transaction afterwards.
fn release(of: usize, held: Vec<usize>, back: bool) -> Pc {
    match held.is_empty() {
        true => Pc::Unregister(of, back),
        false => Pc::Release(of, held, Vec::new(), back),
    }
}

/// Feeds a walk and says where the walker goes next.
fn after_feed(req: Req, walk: &mut Walk, request: Option<Request>, blockers: Vec<Waiter>) -> Pc {
    match walk.feed(request, blockers) {
        None => Pc::Waiting(req, walk.clone()),
        Some(Some(cycle)) => Pc::Confirm(req, cycle, 0),
        Some(None) => Pc::Park(req),
    }
}

/// The transactions `t` really waits for now: none unless it is
/// `Active` and queued where its record says.
fn real_blockers(st: &State, t: usize) -> Vec<TxnId> {
    let rec = &st.txns[t].rec;
    match (rec.status, rec.waiting_on) {
        (Status::Active, Some((res, mode))) => queued_behind(&st.entries[index(res)], id(t), mode),
        _ => Vec::new(),
    }
}

/// What `t`'s request for `mode` waits for on entry `e`, from Table 4.1
/// and first come first served alone: nothing unless `t` is queued
/// there; else every other holder of a mode that refuses `mode`, then
/// every waiter ahead whose mode refuses or is refused by it. The
/// reference `protocol::blockers` is held to.
fn queued_behind(e: &Entry, t: TxnId, mode: LockMode) -> Vec<TxnId> {
    let Some(at) = e.waiters.iter().position(|&(w, _)| w == t) else {
        return Vec::new();
    };
    let holders = e
        .holders
        .iter()
        .filter(|&(h, held)| h != t && held.iter().any(|m| !compatible(m, mode)));
    let ahead = e
        .waiters
        .iter()
        .take(at)
        .filter(|&&(_, m)| !compatible(m, mode) || !compatible(mode, m));
    holders
        .map(|(h, _)| h)
        .chain(ahead.map(|&(w, _)| w))
        .collect()
}

/// The commit of `t` in commit order: every version it read must still
/// be the latest (else the history is not serialisable in commit
/// order), then its writes become the latest.
fn commit_order(st: &mut State, t: usize) -> Option<String> {
    let read = st.txns[t].read;
    let stale =
        (0..RES.len()).find_map(|r| read[r].filter(|&v| v != st.versions[r]).map(|v| (r, v)));
    let broken = stale.map(|(r, v)| {
        format!(
            "committed histories are serialisable in commit order: T{t} read version {v} of t{r}, but T{} committed a write first",
            st.versions[r] - 1
        )
    });
    for (r, modes) in st.txns[t].rec.held.clone().iter() {
        if modes.iter().any(writes) {
            st.versions[index(r)] = t as u8 + 1;
        }
    }
    broken
}

/// Every mode of `protocol`, and just its condition read and its
/// action write.
fn modes(protocol: Protocol) -> (&'static [LockMode], &'static [LockMode]) {
    use LockMode::*;
    match protocol {
        Protocol::TwoPhase => (&[S, X, IX], &[S, X]),
        Protocol::RcRaWa => (&[Rc, Ra, Wa, IWa], &[Rc, Wa]),
    }
}

/// Every scope the search covers. Two transactions on two resources
/// make two requests each in every mode of their protocol, forced and
/// foreign aborts included, under 2PL and under `R_c`/`R_a`/`W_a` with
/// each conflict policy. Three transactions on one resource make two
/// requests each in the condition-read and action-write modes: three
/// upgrades closing cycles at once, and a waiter ahead granted and
/// queued again behind while a walk reads it. `MvccSnapshot` decides
/// every conflict as `AbortReaders` does, so it runs the first shape
/// only; under 2PL no mode is `R_c`, and the policy decides nothing.
fn scopes() -> Vec<Scope> {
    let mut out = Vec::new();
    for (protocol, policy) in [
        (Protocol::TwoPhase, ConflictPolicy::AbortReaders),
        (Protocol::RcRaWa, ConflictPolicy::AbortReaders),
        (Protocol::RcRaWa, ConflictPolicy::Revalidate),
        (Protocol::RcRaWa, ConflictPolicy::MvccSnapshot),
    ] {
        let (every, read_write) = modes(protocol);
        let scope = Scope {
            protocol,
            policy,
            txns: 2,
            requests: 2,
            resources: 2,
            modes: every,
            aborts: true,
        };
        out.push(scope);
        if policy != ConflictPolicy::MvccSnapshot {
            out.push(Scope {
                txns: 3,
                resources: 1,
                modes: read_write,
                aborts: false,
                ..scope
            });
        }
    }
    out
}

#[test]
fn every_interleaving_keeps_the_protocol_invariants() {
    let scopes = scopes();
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..2 {
            // The search recurses once per step; give it room.
            let worker = std::thread::Builder::new().stack_size(256 << 20);
            worker
                .spawn_scoped(s, || {
                    while let Some(&scope) = scopes.get(next.fetch_add(1, Relaxed)) {
                        let findings = Explorer::new(scope).run();
                        results.lock().unwrap().push((scope, findings));
                    }
                })
                .expect("spawn an explorer");
        }
    });
    let mut total = 0;
    let mut failures = Vec::new();
    for (scope, findings) in results.into_inner().unwrap() {
        println!(
            "{:?} {:?}, {} txns x {} requests x {} resources: {} states",
            scope.protocol,
            scope.policy,
            scope.txns,
            scope.requests,
            scope.resources,
            findings.states
        );
        total += findings.states;
        for (invariant, trace) in findings.violations {
            failures.push(format!(
                "{scope:?}\n  {invariant}\n    {}",
                trace.join("\n    ")
            ));
        }
    }
    println!("explored {total} states");
    assert!(
        failures.is_empty(),
        "{} violations:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn the_explorer_sees_a_lost_wakeup() {
    // A parked owner whose transaction ended with no signal pending: the
    // state the foreign-abort hang reached.
    let scope = scopes()[0];
    let explorer = Explorer::new(scope);
    let mut st = State {
        entries: Default::default(),
        txns: vec![
            Txn {
                rec: Record {
                    status: Status::Aborted,
                    ..Record::default()
                },
                signalled: false,
                live: true,
                ends: 1,
                read: [None; 2],
                requests: 1,
                pc: Pc::Park((0, LockMode::X)),
                outbox: Vec::new(),
                handed_back: Vec::new(),
            };
            1
        ],
        versions: [0; 2],
    };
    assert!(explorer
        .check(&st)
        .is_some_and(|b| b.starts_with("no parked thread")));
    st.txns[0].signalled = true;
    assert_eq!(explorer.check(&st), None);
}
