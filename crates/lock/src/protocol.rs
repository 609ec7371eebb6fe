//! The pure §4.3 protocol core.
//!
//! Every decision of the lock protocol lives here, as a function over
//! one resource's [`Entry`] and one transaction's [`Record`]: it changes
//! them in place and returns what it decided, and the [`Effect`]s the
//! caller must carry out.
//! Nothing here locks, parks, counts, records or reads a clock.
//! [`crate::LockManager`] is the applier: it keeps the stripes, the
//! registry, the wait slots, the lock order, the counters and the
//! obs/fault/histogram hooks, calls one of these functions in each of
//! its critical sections, and applies what it returns.
//!
//! | decision | function | paper |
//! |---|---|---|
//! | grant, queue or refuse one request, first come first served | [`request`] | Table 4.1 |
//! | the readers a committing write overlaps | [`overlapped`] | Fig. 4.3 |
//! | `Active → Committed`, and the overlapped readers split by policy | [`commit`] | Fig. 4.3, rule (ii) and its alternative |
//! | `Active → Doomed { by }` | [`doom`] | Fig. 4.3(b), deadlock victims |
//! | `→ Aborted` | [`end`] | |
//! | a waiter's wait-for edges, read in two steps | [`waiting`], [`blockers`] | §4.3, last paragraph |
//! | the waits-for walk, its confirmation and its victim | [`Walk`], [`confirms`], [`victim`] | |
//! | the waiters a release wakes | [`release`] | |
//!
//! `crates/lock/tests/explore.rs` runs these same functions, at the
//! manager's critical-section boundaries, over every interleaving of
//! two transactions on two resources and of three on one, and checks
//! the invariants the crate docs list. That explorer, an integration
//! test, is this module's only reader outside the crate, which is why
//! it is public but hidden from the docs: engines and servers go
//! through [`crate::LockManager`] alone.

use std::collections::VecDeque;
use std::ops::DerefMut;

pub use crate::modeset::{ModeMap, ModeSet};
use crate::{compatible, ConflictPolicy, LockError, LockMode, ResourceId, TxnId};

/// Lifecycle of a transaction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Status {
    /// Live; may acquire locks.
    #[default]
    Active,
    /// Marked for death; its next operation aborts it.
    Doomed {
        /// The committing writer; `None` for a deadlock victim.
        by: Option<TxnId>,
    },
    /// Reached its commit point (Figure 4.3's linearization instant).
    Committed,
    /// Rolled back.
    Aborted,
}

/// A lock request: a mode on a resource.
pub type Request = (ResourceId, LockMode);

/// One transaction's record.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Record {
    /// Where the transaction is in its lifecycle.
    pub status: Status,
    /// Locks held, mirrored from the entries so a release visits only
    /// them; in `ResourceId` order.
    pub held: ModeMap<ResourceId>,
    /// The one request the transaction is queued with, if any.
    pub waiting_on: Option<Request>,
}

/// One resource's lock-table entry.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Entry {
    /// Current holders, in `TxnId` order.
    pub holders: ModeMap<TxnId>,
    /// Queued requests, first come first served.
    pub waiters: VecDeque<(TxnId, LockMode)>,
}

/// What [`request`] decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Decision {
    /// Granted now: count it and record a `Grant`.
    Grant,
    /// The mode was held already: nothing to count.
    Held,
    /// The request waits: arm the wait slot and park.
    Park {
        /// The request joined the queue now: count a block and record
        /// it.
        newly: bool,
        /// One transaction the request waits for, named in the `Block`
        /// event.
        holder: Option<TxnId>,
    },
}

/// An effect of a decision, for the applier to carry out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Effect {
    /// Wake this transaction's wait slot.
    Signal(TxnId),
    /// A transaction went `Active → Doomed { by }`: book a doom (`by` a
    /// committing writer) or a deadlock (`None`), record it and wake
    /// the victim.
    Doom {
        /// The doomed transaction.
        victim: TxnId,
        /// The committing writer; `None` for a deadlock victim.
        by: Option<TxnId>,
    },
    /// An `Active` reader a committed write overlapped, handed to the
    /// engine to re-validate ([`ConflictPolicy::Revalidate`]).
    Revalidate(TxnId),
}

/// Who ends a transaction through [`end`]. The ender fixes which
/// statuses it ends and what each surfaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ender {
    /// An `abort`, by the owner or from another thread: ends an
    /// `Active` or a `Doomed` transaction and surfaces `Ok`. A doom not
    /// yet surfaced is dropped.
    Abort,
    /// A doom surfacing: ends a `Doomed` transaction with its doom.
    Doom,
    /// An injected forced abort: ends an `Active` transaction as
    /// [`LockError::Injected`], and a `Doomed` one with its doom, which
    /// outranks the injection.
    Forced,
}

/// Do two queued requests conflict? Either direction refusing counts,
/// so no request overtakes one queued ahead that it conflicts with.
fn conflict(a: LockMode, b: LockMode) -> bool {
    !compatible(a, b) || !compatible(b, a)
}

impl Entry {
    /// Is `mode` grantable to `txn` right now? Yes iff no holder other
    /// than `txn` holds a mode that refuses it ([`compatible`], held ×
    /// requested) and no waiter queued ahead of `txn` conflicts with it.
    pub fn grantable(&self, txn: TxnId, mode: LockMode) -> bool {
        let mut ahead = self.waiters.iter().take_while(|&&(w, _)| w != txn);
        self.holders
            .iter()
            .all(|(h, modes)| h == txn || !modes.blocks(mode))
            && ahead.all(|&(_, queued)| !conflict(queued, mode))
    }

    /// `true` once nobody holds or waits: the entry can be dropped.
    pub fn is_vacant(&self) -> bool {
        self.holders.is_empty() && self.waiters.is_empty()
    }

    /// Signals every waiter other than `except` whose request is
    /// grantable now. Nothing else can have become grantable —
    /// grantability depends only on the holders and on the waiters
    /// queued ahead — so the rest stay parked: waking them all would
    /// cost a hot lock's FIFO convoy one failed retry per waiter per
    /// release.
    fn wake(&self, except: TxnId, out: &mut Vec<Effect>) {
        let grantable = self
            .waiters
            .iter()
            .filter(|&&(t, mode)| t != except && self.grantable(t, mode));
        out.extend(grantable.map(|&(t, _)| Effect::Signal(t)));
    }
}

/// Table 4.1, first come first served: `txn` asks for `mode` on `res`.
///
/// `Err(status)` when `txn` is no longer `Active`. [`Decision::Held`]
/// when it already holds `mode`. [`Decision::Grant`] after granting
/// into both holder lists; a request that had queued also signals the
/// waiters its leaving the queue unblocked. [`Decision::Park`]
/// otherwise, after queueing the request if it was not queued yet.
pub fn request(
    entry: &mut Entry,
    txn: TxnId,
    rec: &mut Record,
    res: ResourceId,
    mode: LockMode,
    out: &mut Vec<Effect>,
) -> Result<Decision, Status> {
    if rec.status != Status::Active {
        return Err(rec.status);
    }
    if rec.held.get(res).contains(mode) {
        return Ok(Decision::Held);
    }
    if !entry.grantable(txn, mode) {
        let newly = rec.waiting_on != Some((res, mode));
        let mut holder = None;
        if newly {
            entry.waiters.retain(|&(t, _)| t != txn);
            entry.waiters.push_back((txn, mode));
            rec.waiting_on = Some((res, mode));
            holder = blockers(entry, txn, (res, mode)).first().map(|&(h, _)| h);
        }
        return Ok(Decision::Park { newly, holder });
    }
    entry.holders.grant(txn, mode);
    rec.held.grant(res, mode);
    if rec.waiting_on.take().is_some() {
        entry.waiters.retain(|&(t, _)| t != txn);
        entry.wake(txn, out);
    }
    Ok(Decision::Grant)
}

/// The first read of `txn`'s wait-for edges: the request it is queued
/// with. A transaction that is not `Active` waits for nobody — it was
/// signalled and is on its way to releasing everything — so no cycle
/// runs through it.
pub fn waiting(rec: &Record) -> Option<Request> {
    rec.waiting_on.filter(|_| rec.status == Status::Active)
}

/// The second read: the transactions blocking `txn`'s queued `request`
/// on this entry — conflicting holders, then conflicting waiters queued
/// ahead, each of these with the request it is queued with here. Empty
/// when `txn` is not queued here: the two reads are separate critical
/// sections, so the request may have been granted in between, and a
/// granted request is blocked by nobody (reading the whole queue for it
/// would report every conflicting waiter behind it and close a
/// waits-for cycle that does not exist).
pub fn blockers(entry: &Entry, txn: TxnId, (res, mode): Request) -> Vec<Waiter> {
    let Some(at) = entry.waiters.iter().position(|&(w, _)| w == txn) else {
        return Vec::new();
    };
    let holders = entry
        .holders
        .iter()
        .filter(|&(h, modes)| h != txn && modes.blocks(mode));
    let ahead = entry
        .waiters
        .iter()
        .take(at)
        .filter(|&&(_, queued)| conflict(queued, mode));
    holders
        .map(|(h, _)| (h, None))
        .chain(ahead.map(|&(w, queued)| (w, Some((res, queued)))))
        .collect()
}

/// A transaction and the request it is queued with: a cycle member as a
/// walk read it ([`waiting`]), or a blocker as its entry showed it
/// (`None` for a holder).
pub type Waiter = (TxnId, Option<Request>);

/// A waits-for cycle as a walk found it, its start first.
pub type Cycle = Vec<Waiter>;

/// A depth-first walk of the waits-for graph looking for a cycle
/// through one transaction. It is fed one transaction's request and
/// blockers at a time, so the caller reads each in its own critical
/// sections ([`waiting`], then [`blockers`]); the graph it sees is
/// therefore fuzzy. An edge read from a blocker's queued request is
/// dropped when the blocker turns out to wait with another request (it
/// was granted that one, and a granted mode may no longer block), and a
/// cycle the walk reports may be gone by the time it ends. A real cycle
/// is stable — none of its members can move until a victim is doomed —
/// and is found by the walk of the transaction whose request closed it;
/// [`confirms`] tells the two apart.
///
/// Each transaction is expanded at most once per walk: one explored
/// without reaching the start cannot reach it by another route either.
/// Without that, a FIFO convoy on one hot lock (waiter *k* blocked by
/// the holder and all *k* earlier waiters, an acyclic graph) costs
/// 2^*k* expansions.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Walk {
    start: TxnId,
    /// The path from `start`, each member with the blockers it has yet
    /// to try, last first.
    path: Vec<(Waiter, Vec<Waiter>)>,
    seen: Vec<TxnId>,
    /// The transaction to read next, with the request the edge to it
    /// was read from (`None` for a held lock).
    next: Option<Waiter>,
}

impl Walk {
    /// A walk looking for a cycle through `start`.
    pub fn new(start: TxnId) -> Walk {
        Walk {
            start,
            path: Vec::new(),
            seen: vec![start],
            next: Some((start, None)),
        }
    }

    /// The transaction whose blockers the walk needs next; `None` once
    /// it has its verdict.
    pub fn next(&self) -> Option<TxnId> {
        self.next.map(|(t, _)| t)
    }

    /// Feeds the request and the blockers of [`Walk::next`]. Returns the
    /// verdict once there is one: `Some(Some(cycle))` with the cycle's
    /// members, `start` first, or `Some(None)` when no cycle runs
    /// through `start`.
    pub fn feed(
        &mut self,
        request: Option<Request>,
        mut blockers: Vec<Waiter>,
    ) -> Option<Option<Cycle>> {
        let (node, behind) = self
            .next
            .take()
            .expect("a walk with a verdict is fed nothing");
        if behind.is_some_and(|queued| request != Some(queued)) {
            blockers.clear();
        }
        blockers.reverse();
        self.path.push(((node, request), blockers));
        while let Some((_, todo)) = self.path.last_mut() {
            match todo.pop() {
                None => {
                    self.path.pop();
                }
                Some((b, behind)) if b == self.start => {
                    if behind.is_none_or(|queued| self.path[0].0 .1 == Some(queued)) {
                        return Some(Some(self.path.iter().map(|&(member, _)| member).collect()));
                    }
                }
                Some((b, _)) if self.seen.contains(&b) => {}
                Some(edge) => {
                    self.seen.push(edge.0);
                    self.next = Some(edge);
                    return None;
                }
            }
        }
        Some(None)
    }

    /// Runs the walk to its verdict, reading each transaction's request
    /// and blockers through `edges`.
    pub fn run(
        mut self,
        mut edges: impl FnMut(TxnId) -> (Option<Request>, Vec<Waiter>),
    ) -> Option<Cycle> {
        while let Some(t) = self.next() {
            let (request, blockers) = edges(t);
            if let Some(verdict) = self.feed(request, blockers) {
                return verdict;
            }
        }
        None
    }
}

/// Is a walk's cycle member still waiting with the request the walk
/// read? A cycle whose members all are, each read after the walk ended,
/// is real. A transaction never queues the same request twice (once
/// granted, it holds that mode until it ends), so every member waited
/// with that one request from its read on, and at the first of these
/// reads all did at once. Every edge held then too: a holder keeps its
/// modes until it ends, and a waiter ahead was read queued with the
/// request the walk checked it still waits with, and queued requests
/// keep their order. A real deadlock stays one.
pub fn confirms(rec: &Record, (_, request): Waiter) -> bool {
    request.is_some() && waiting(rec) == request
}

/// The victim of a confirmed waits-for cycle: its youngest member.
pub fn victim(cycle: &[Waiter]) -> TxnId {
    cycle
        .iter()
        .map(|&(t, _)| t)
        .max()
        .expect("a cycle has members")
}

/// The one `Active → Doomed { by }` transition: `by` the committing
/// writer of Fig. 4.3(b), `None` for a deadlock victim. A `victim` no
/// longer `Active` is left alone: a reader that already committed won
/// (a legal serial order), and one already doomed or finished needs
/// nothing.
pub fn doom(victim: TxnId, rec: &mut Record, by: Option<TxnId>, out: &mut Vec<Effect>) {
    if rec.status == Status::Active {
        rec.status = Status::Doomed { by };
        out.push(Effect::Doom { victim, by });
    }
}

/// Fig. 4.3's overlapped set on one entry: when `writer` holds a mode
/// here that overrides `R_c` (`W_a`, `IW_a`), the other `R_c` holders.
/// They took `R_c` before the write was granted — Table 4.1 refuses the
/// reverse order — so while `writer` holds on, the set only shrinks.
pub fn overlapped(entry: &Entry, writer: TxnId, readers: &mut Vec<TxnId>) {
    let writes = entry.holders.get(writer).iter().any(LockMode::overrides_rc);
    for (holder, modes) in entry.holders.iter().filter(|_| writes) {
        if holder != writer && modes.contains(LockMode::Rc) && !readers.contains(&holder) {
            readers.push(holder);
        }
    }
}

/// Fig. 4.3's commit point: the one `Active → Committed` transition,
/// over the committer's record and those of its [`overlapped`] readers,
/// all held at once (`records`, the committer among them). Each reader
/// still `Active` is then split by policy: handed back for
/// re-validation under [`ConflictPolicy::Revalidate`], doomed by the
/// committer otherwise. The flip and the dooms are one step, so of two
/// commits that overlap each other's `R_c` — Fig. 4.4's circular pair —
/// exactly one commits, however their calls race. `Err(status)` when
/// the committer is no longer `Active`.
pub fn commit<R: DerefMut<Target = Record>>(
    policy: ConflictPolicy,
    txn: TxnId,
    records: &mut [(TxnId, R)],
    out: &mut Vec<Effect>,
) -> Result<(), Status> {
    let own = &mut records
        .iter_mut()
        .find(|(t, _)| *t == txn)
        .expect("the committer's record")
        .1;
    if own.status != Status::Active {
        return Err(own.status);
    }
    own.status = Status::Committed;
    for (reader, rec) in records.iter_mut().filter(|(t, _)| *t != txn) {
        if policy != ConflictPolicy::Revalidate {
            doom(*reader, rec, Some(txn), out);
        } else if rec.status == Status::Active {
            out.push(Effect::Revalidate(*reader));
        }
    }
    Ok(())
}

/// The one `→ Aborted` transition. `ender` says which statuses it ends
/// and what each surfaces; `None` leaves the transaction as it is.
/// Ending a queued transaction signals its owner, who may be parked in
/// `lock`: an `abort` from another thread must not leave it there.
pub fn end(
    txn: TxnId,
    rec: &mut Record,
    ender: Ender,
    out: &mut Vec<Effect>,
) -> Option<Result<(), LockError>> {
    let result = match (ender, rec.status) {
        (Ender::Abort, Status::Active | Status::Doomed { .. }) => Ok(()),
        (Ender::Forced, Status::Active) => Err(LockError::Injected(txn)),
        (_, Status::Doomed { by: Some(by) }) => Err(LockError::DoomedByWriter { txn, by }),
        (_, Status::Doomed { by: None }) => Err(LockError::Deadlock(txn)),
        (_, Status::Active | Status::Committed | Status::Aborted) => return None,
    };
    rec.status = Status::Aborted;
    if rec.waiting_on.is_some() {
        out.push(Effect::Signal(txn));
    }
    Some(result)
}

/// `txn` leaves one entry: it stops holding and waiting here, and every
/// waiter this made grantable is signalled.
pub fn release(entry: &mut Entry, txn: TxnId, out: &mut Vec<Effect>) {
    entry.holders.remove(txn);
    entry.waiters.retain(|&(t, _)| t != txn);
    entry.wake(txn, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use crate::LockMode::*;

    const Q: ResourceId = ResourceId::Tuple(1);

    /// `n` fresh records, one per transaction `T0 … T(n-1)`.
    fn records(n: usize) -> Vec<Record> {
        vec![Record::default(); n]
    }

    /// Transaction `txn` asks for `mode` on [`Q`]: the decision, and the
    /// signals it left.
    fn ask(
        e: &mut Entry,
        recs: &mut [Record],
        txn: u64,
        mode: LockMode,
    ) -> (Decision, Vec<Effect>) {
        let mut out = Vec::new();
        let effect = request(e, TxnId(txn), &mut recs[txn as usize], Q, mode, &mut out);
        (effect.expect("an active transaction"), out)
    }

    fn parks(effect: (Decision, Vec<Effect>)) -> bool {
        matches!(effect.0, Decision::Park { .. })
    }

    #[test]
    fn wa_is_granted_over_rc_but_not_rc_over_wa() {
        let (mut e, mut recs) = (Entry::default(), records(3));
        assert_eq!(ask(&mut e, &mut recs, 0, Rc).0, Decision::Grant);
        assert_eq!(
            ask(&mut e, &mut recs, 1, Wa).0,
            Decision::Grant,
            "Rc ∥ Wa (Table 4.1)"
        );
        assert_eq!(
            ask(&mut e, &mut recs, 2, Rc).0,
            Decision::Park {
                newly: true,
                holder: Some(TxnId(1))
            },
            "no Rc under a live Wa"
        );
        assert_eq!(
            ask(&mut e, &mut recs, 0, Rc).0,
            Decision::Held,
            "a held mode is no second grant"
        );
        assert_eq!(
            ask(&mut e, &mut recs, 2, Rc).0,
            Decision::Park {
                newly: false,
                holder: None
            }
        );
        // 2PL: X waits for S.
        let (mut e, mut recs) = (Entry::default(), records(2));
        ask(&mut e, &mut recs, 0, S);
        assert!(parks(ask(&mut e, &mut recs, 1, X)), "2PL: X waits for S");
    }

    #[test]
    fn intention_writers_share_a_relation_and_exclude_its_readers() {
        let (mut e, mut recs) = (Entry::default(), records(5));
        ask(&mut e, &mut recs, 0, Rc);
        assert_eq!(
            ask(&mut e, &mut recs, 1, IWa).0,
            Decision::Grant,
            "Rc ∥ IWa, as Rc ∥ Wa"
        );
        assert_eq!(
            ask(&mut e, &mut recs, 2, IWa).0,
            Decision::Grant,
            "IWa ∥ IWa"
        );
        assert!(
            parks(ask(&mut e, &mut recs, 3, Rc)),
            "no Rc under a live IWa"
        );
        assert!(
            parks(ask(&mut e, &mut recs, 4, Wa)),
            "a full Wa excludes intention writers"
        );
        // 2PL: `IX` shares the relation with `IX` and waits for `S`.
        let (mut e, mut recs) = (Entry::default(), records(4));
        ask(&mut e, &mut recs, 0, IX);
        assert_eq!(ask(&mut e, &mut recs, 1, IX).0, Decision::Grant);
        assert!(parks(ask(&mut e, &mut recs, 2, S)));
        let (mut e, mut recs) = (Entry::default(), records(2));
        ask(&mut e, &mut recs, 0, S);
        assert!(parks(ask(&mut e, &mut recs, 1, IX)));
    }

    #[test]
    fn fifo_keeps_a_reader_behind_a_queued_writer() {
        let (mut e, mut recs) = (Entry::default(), records(3));
        let (r1, w, r2) = (TxnId(0), TxnId(1), TxnId(2));
        ask(&mut e, &mut recs, 0, S);
        assert!(parks(ask(&mut e, &mut recs, 1, X)));
        assert!(
            parks(ask(&mut e, &mut recs, 2, S)),
            "r2 queues behind the waiting writer"
        );
        assert_eq!(
            blockers(&e, w, (Q, X)),
            vec![(r1, None)],
            "the writer waits for the holder only"
        );
        assert_eq!(
            blockers(&e, r2, (Q, S)),
            vec![(w, Some((Q, X)))],
            "and the reader for the writer ahead"
        );
        let mut out = Vec::new();
        release(&mut e, r1, &mut out);
        assert_eq!(out, vec![Effect::Signal(w)], "only the writer is woken");
        let (granted, woken) = ask(&mut e, &mut recs, 1, X);
        assert_eq!(
            (granted, woken),
            (Decision::Grant, vec![]),
            "r2 stays blocked by the X"
        );
        assert_eq!(recs[1].waiting_on, None);
        release(&mut e, w, &mut out);
        assert_eq!(out[1..], [Effect::Signal(r2)]);
    }

    #[test]
    fn only_grantable_waiters_are_woken() {
        let mut e = Entry::default();
        let (a, b, c, d) = (TxnId(0), TxnId(1), TxnId(2), TxnId(3));
        // Holder a gone; queue: writer b, then readers c and d.
        e.waiters.extend([(b, X), (c, S), (d, S)]);
        let mut out = Vec::new();
        release(&mut e, a, &mut out);
        assert_eq!(
            out,
            vec![Effect::Signal(b)],
            "readers stay FIFO-blocked behind b"
        );
        // b leaves the queue without a grant: both readers go.
        out.clear();
        release(&mut e, b, &mut out);
        assert_eq!(out, vec![Effect::Signal(c), Effect::Signal(d)]);
    }

    #[test]
    fn granted_or_absent_txn_has_no_blockers() {
        // The walk's race: `b` was granted between the read of its
        // `waiting_on` and the read of this entry. It is a holder now,
        // not a waiter — the conflicting waiters queued behind it wait
        // *for* it, never the other way round.
        let mut e = Entry::default();
        let (a, b, c, d) = (TxnId(0), TxnId(1), TxnId(2), TxnId(3));
        e.holders.grant(b, X);
        e.waiters.extend([(a, X), (c, X)]);
        assert!(
            blockers(&e, b, (Q, X)).is_empty(),
            "granted txn is blocked by nobody"
        );
        assert!(
            blockers(&e, d, (Q, X)).is_empty(),
            "absent txn is blocked by nobody"
        );
        let expected = vec![(b, None), (a, Some((Q, X)))];
        assert_eq!(
            blockers(&e, c, (Q, X)),
            expected,
            "the holder, then the earlier waiter"
        );
    }

    #[test]
    fn holders_are_visited_in_txn_order_whatever_the_grant_order() {
        // Blocker lists (and through them the obs `Block` holder and
        // the commit rule's doom order) follow `TxnId` order.
        let mut e = Entry::default();
        let (a, b, c, w) = (TxnId(4), TxnId(1), TxnId(9), TxnId(12));
        for (t, m) in [(c, Rc), (a, Rc), (b, Ra), (a, Ra), (c, Rc)] {
            e.holders.grant(t, m);
        }
        assert_eq!(e.holders.len(), 3, "re-grants add modes, not holders");
        e.waiters.push_back((w, Wa));
        assert_eq!(
            blockers(&e, w, (Q, Wa)),
            vec![(b, None), (a, None)],
            "Rc alone does not refuse Wa"
        );
        assert!(e.grantable(w, Rc));
        let mut out = Vec::new();
        release(&mut e, b, &mut out);
        release(&mut e, a, &mut out);
        assert_eq!(out, vec![Effect::Signal(w)]);
        release(&mut e, c, &mut out);
        release(&mut e, w, &mut out);
        assert!(e.is_vacant());
    }

    #[test]
    fn commit_point_dooms_or_hands_back_the_overlapped_readers() {
        // Fig. 4.3 on one entry: T0 and T2 read, T1 writes.
        let mut e = Entry::default();
        for (t, m) in [(0, Rc), (1, Rc), (1, Wa), (2, Rc), (2, Ra)] {
            e.holders.grant(TxnId(t), m);
        }
        let mut readers = Vec::new();
        overlapped(&e, TxnId(0), &mut readers);
        assert!(readers.is_empty(), "a pure reader overlaps nobody");
        overlapped(&e, TxnId(1), &mut readers);
        assert_eq!(readers, vec![TxnId(0), TxnId(2)]);
        for (policy, expected) in [
            (
                ConflictPolicy::AbortReaders,
                Status::Doomed { by: Some(TxnId(1)) },
            ),
            (ConflictPolicy::Revalidate, Status::Active),
        ] {
            let mut recs = records(3);
            recs[2].status = Status::Committed; // read first: a legal serial order
            let mut out = Vec::new();
            let mut all: Vec<(TxnId, &mut Record)> = recs
                .iter_mut()
                .enumerate()
                .map(|(t, r)| (TxnId(t as u64), r))
                .collect();
            assert_eq!(commit(policy, TxnId(1), &mut all, &mut out), Ok(()));
            let doomed = Effect::Doom {
                victim: TxnId(0),
                by: Some(TxnId(1)),
            };
            let handed_back = Effect::Revalidate(TxnId(0));
            let only = if policy == ConflictPolicy::Revalidate {
                handed_back
            } else {
                doomed
            };
            assert_eq!(out, vec![only], "{policy:?}");
            assert_eq!(
                (recs[0].status, recs[1].status),
                (expected, Status::Committed)
            );
        }
    }

    #[test]
    fn circular_pair_commits_exactly_one_in_either_order() {
        // Fig. 4.4: each commit point holds both records, so whichever
        // runs second finds itself doomed.
        for first in [0u64, 1] {
            let mut recs = records(2);
            let mut out = Vec::new();
            let doomed = Status::Doomed {
                by: Some(TxnId(first)),
            };
            for (turn, expected) in [(first, Ok(())), (1 - first, Err(doomed))] {
                let mut both: Vec<(TxnId, &mut Record)> = recs
                    .iter_mut()
                    .enumerate()
                    .map(|(t, r)| (TxnId(t as u64), r))
                    .collect();
                let policy = ConflictPolicy::AbortReaders;
                assert_eq!(commit(policy, TxnId(turn), &mut both, &mut out), expected);
            }
        }
    }

    #[test]
    fn ending_a_queued_transaction_signals_its_owner() {
        let (mut e, mut recs) = (Entry::default(), records(2));
        ask(&mut e, &mut recs, 0, X);
        assert!(parks(ask(&mut e, &mut recs, 1, X)));
        let mut out = Vec::new();
        assert_eq!(
            end(TxnId(1), &mut recs[1], Ender::Abort, &mut out),
            Some(Ok(()))
        );
        assert_eq!(
            out,
            vec![Effect::Signal(TxnId(1))],
            "a parked owner must wake"
        );
        assert_eq!(
            end(TxnId(1), &mut recs[1], Ender::Abort, &mut out),
            None,
            "ends once"
        );
        // Not queued: nobody to wake. A doom outranks an injection.
        out.clear();
        doom(TxnId(0), &mut recs[0], None, &mut out);
        assert_eq!(
            out,
            vec![Effect::Doom {
                victim: TxnId(0),
                by: None
            }]
        );
        let surfaced = end(TxnId(0), &mut recs[0], Ender::Forced, &mut out);
        assert_eq!(surfaced, Some(Err(LockError::Deadlock(TxnId(0)))));
        assert_eq!(out.len(), 1);
        let mut live = Record::default();
        assert_eq!(
            end(TxnId(5), &mut live, Ender::Doom, &mut out),
            None,
            "no doom to surface"
        );
        let injected = Some(Err(LockError::Injected(TxnId(5))));
        assert_eq!(end(TxnId(5), &mut live, Ender::Forced, &mut out), injected);
    }

    fn graph(edges: &[(u64, u64)]) -> impl Fn(TxnId) -> Vec<TxnId> + '_ {
        let mut map: HashMap<u64, Vec<TxnId>> = HashMap::new();
        for &(a, b) in edges {
            map.entry(a).or_default().push(TxnId(b));
        }
        move |t: TxnId| map.get(&t.0).cloned().unwrap_or_default()
    }

    /// The members of the cycle through `start` in graph `g`, every
    /// transaction read as waiting for `X` on [`Q`].
    fn find_cycle(start: u64, g: impl Fn(TxnId) -> Vec<TxnId>) -> Option<Vec<TxnId>> {
        let held = |t| g(t).into_iter().map(|b| (b, None)).collect();
        let cycle = Walk::new(TxnId(start)).run(|t| (Some((Q, X)), held(t)))?;
        assert!(cycle.iter().all(|&(_, request)| request == Some((Q, X))));
        Some(cycle.into_iter().map(|(t, _)| t).collect())
    }

    #[test]
    fn walk_finds_two_and_three_cycles_from_any_member() {
        let cycle = find_cycle(0, graph(&[(0, 1), (1, 0)])).expect("cycle");
        assert_eq!(cycle, vec![TxnId(0), TxnId(1)]);
        let read = [(TxnId(0), Some((Q, X))), (TxnId(1), Some((Q, S)))];
        assert_eq!(victim(&read), TxnId(1), "the youngest member");
        for s in 0..3 {
            let cycle = find_cycle(s, graph(&[(0, 1), (1, 2), (2, 0)])).expect("cycle");
            assert_eq!(cycle.len(), 3);
        }
        // Cannot happen with real lock tables (a txn never blocks on
        // itself) but the walk must not diverge on it.
        assert_eq!(find_cycle(5, graph(&[(5, 5)])), Some(vec![TxnId(5)]));
    }

    #[test]
    fn a_cycle_is_confirmed_only_by_members_still_waiting_with_the_request_read() {
        // The stale cycle: T1 was read queued for `Rc` ahead of T2's
        // `Wa`, was granted, and queued again for `Wa` — behind T2.
        let (mut e, mut recs) = (Entry::default(), records(3));
        ask(&mut e, &mut recs, 0, Wa);
        assert!(parks(ask(&mut e, &mut recs, 1, Rc)));
        release(&mut e, TxnId(0), &mut Vec::new());
        assert_eq!(ask(&mut e, &mut recs, 2, Rc).0, Decision::Grant);
        assert!(
            parks(ask(&mut e, &mut recs, 2, Wa)),
            "FIFO: behind T1's queued Rc"
        );
        assert_eq!(
            blockers(&e, TxnId(2), (Q, Wa)),
            vec![(TxnId(1), Some((Q, Rc)))]
        );
        let read_t1 = (TxnId(1), waiting(&recs[1]));
        assert!(confirms(&recs[1], read_t1), "still waiting with it");
        assert_eq!(ask(&mut e, &mut recs, 1, Rc).0, Decision::Grant);
        assert!(!confirms(&recs[1], read_t1), "granted since");
        assert!(parks(ask(&mut e, &mut recs, 1, Wa)));
        assert_eq!(
            blockers(&e, TxnId(1), (Q, Wa)),
            vec![(TxnId(2), Some((Q, Wa)))]
        );
        assert!(
            blockers(&e, TxnId(2), (Q, Wa)).is_empty(),
            "T2 waits for nobody now"
        );
        assert!(
            !confirms(&recs[1], read_t1),
            "queued again with another request"
        );
        assert!(confirms(&recs[1], (TxnId(1), Some((Q, Wa)))));
        recs[1].status = Status::Doomed { by: None };
        assert!(
            !confirms(&recs[1], (TxnId(1), Some((Q, Wa)))),
            "a doomed member waits for nobody"
        );
        assert!(
            !confirms(&recs[0], (TxnId(0), None)),
            "nor does one read waiting for nothing"
        );
    }

    #[test]
    fn walk_drops_an_edge_whose_queued_request_was_granted() {
        // T2's read saw T1 queued ahead for `Rc`; by T1's read it was
        // granted that and waits for `Wa` behind T2. No cycle.
        let (t1, t2) = (TxnId(1), TxnId(2));
        let mut walk = Walk::new(t2);
        assert_eq!(walk.feed(Some((Q, Wa)), vec![(t1, Some((Q, Rc)))]), None);
        assert_eq!(walk.next(), Some(t1));
        assert_eq!(
            walk.feed(Some((Q, Wa)), vec![(t2, Some((Q, Wa)))]),
            Some(None)
        );
        // Read consistently, the same edges close the cycle.
        let mut walk = Walk::new(t2);
        assert_eq!(walk.feed(Some((Q, Wa)), vec![(t1, Some((Q, Wa)))]), None);
        let cycle = walk.feed(Some((Q, Wa)), vec![(t2, Some((Q, Wa)))]);
        assert_eq!(
            cycle,
            Some(Some(vec![(t2, Some((Q, Wa))), (t1, Some((Q, Wa)))]))
        );
        // The closing edge is checked against the start's request too.
        let mut walk = Walk::new(t2);
        assert_eq!(walk.feed(Some((Q, Wa)), vec![(t1, None)]), None);
        assert_eq!(
            walk.feed(Some((Q, Wa)), vec![(t2, Some((Q, Rc)))]),
            Some(None)
        );
    }

    #[test]
    fn walk_pops_dead_branches_and_chains() {
        assert!(find_cycle(0, graph(&[(0, 1), (1, 2), (2, 3)])).is_none());
        // 0 → {1, 2}; only the 2-branch loops back.
        let cycle = find_cycle(0, graph(&[(0, 1), (0, 2), (2, 0), (1, 3)])).expect("cycle");
        assert_eq!(cycle, vec![TxnId(0), TxnId(2)], "dead branch popped");
    }

    #[test]
    fn fifo_convoy_is_walked_in_linear_expansions() {
        // Waiter k of one hot lock waits for every earlier waiter: a
        // complete DAG, no cycle. Path-only bookkeeping would expand
        // 2^40 nodes here.
        let n = 40u64;
        let edges: Vec<(u64, u64)> = (0..n).flat_map(|k| (0..k).map(move |j| (k, j))).collect();
        let g = graph(&edges);
        let calls = std::cell::Cell::new(0u64);
        let counted = |t: TxnId| {
            calls.set(calls.get() + 1);
            g(t)
        };
        assert!(find_cycle(n - 1, counted).is_none());
        assert_eq!(calls.get(), n, "each transaction expanded exactly once");
    }
}
