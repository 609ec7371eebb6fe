//! The striped lock table.
//!
//! Resources hash to one of N independent shards; each shard is a
//! `Mutex<IdMap<ResourceId, Entry>>`. Two transactions touching
//! resources in different shards never contend on a manager-level lock:
//! a `lock`/`try_lock` call takes the one stripe its resource hashes to,
//! and never two stripes at once.
//!
//! Per-resource FIFO waiter queues live inside each [`Entry`], so no
//! reader overtakes a queued writer; since a queue is per *resource*,
//! shard-local FIFO is exactly resource FIFO, whatever other resources
//! share the stripe.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Mutex;

use dps_obs::CachePadded;

use crate::modeset::ModeMap;
use crate::{compatible, LockMode, ResourceId, TxnId};

/// The lock table's stripe count. Two requests for unrelated resources
/// share a stripe mutex with odds 1/N, and each stripe sits on 128
/// bytes of its own, so 64 stripes cost 8 KiB. 256 read within noise
/// of 64 on the engines and lower on sessions (EXPERIMENTS §XS.30).
pub const DEFAULT_SHARDS: usize = 64;

/// Lock-table entry for one resource: current holders (in `TxnId`
/// order) and the FIFO queue of waiters.
#[derive(Debug, Default)]
pub(crate) struct Entry {
    pub holders: ModeMap<TxnId>,
    pub waiters: VecDeque<(TxnId, LockMode)>,
}

impl Entry {
    /// Is `mode` grantable to `txn` on this resource right now?
    ///
    /// Yes iff there is no conflicting holder (other than `txn`
    /// itself) and — FIFO fairness — no earlier waiter we conflict with
    /// in either direction (prevents writer starvation).
    /// Compatibility is Table 4.1's, through [`compatible`].
    pub fn grantable(&self, txn: TxnId, mode: LockMode) -> bool {
        for (holder, modes) in self.holders.iter() {
            if holder != txn && modes.blocks(mode) {
                return false;
            }
        }
        for &(waiter, wmode) in &self.waiters {
            if waiter == txn {
                break;
            }
            if !compatible(wmode, mode) || !compatible(mode, wmode) {
                return false;
            }
        }
        true
    }

    /// Transactions currently blocking `txn`'s pending request for
    /// `mode`: conflicting holders plus earlier conflicting waiters.
    /// Empty when `txn` is not queued here: the deadlock detector reads
    /// a transaction's `waiting_on` and this entry under two different
    /// locks, so the request may have been granted in between — and a
    /// granted request is blocked by nobody (scanning the whole queue
    /// for it would report every conflicting waiter as a blocker and
    /// close a waits-for cycle that does not exist).
    pub fn blockers_of(&self, txn: TxnId, mode: LockMode) -> Vec<TxnId> {
        let Some(queued_at) = self.waiters.iter().position(|&(w, _)| w == txn) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (holder, modes) in self.holders.iter() {
            if holder != txn && modes.blocks(mode) {
                out.push(holder);
            }
        }
        for &(waiter, wmode) in self.waiters.iter().take(queued_at) {
            if !compatible(wmode, mode) || !compatible(mode, wmode) {
                out.push(waiter);
            }
        }
        out
    }

    /// Removes `txn` from the waiter queue (no-op if absent).
    pub fn remove_waiter(&mut self, txn: TxnId) {
        self.waiters.retain(|&(t, _)| t != txn);
    }

    /// The waiters to wake after this entry changed (a holder or an
    /// earlier waiter left): those, other than `except`, whose request
    /// is grantable now. Nothing else can have become grantable —
    /// grantability depends only on this entry's holders and on the
    /// waiters queued ahead — so the rest stay parked; waking them all
    /// costs a hot lock's FIFO convoy one failed retry (shard mutex,
    /// deadlock walk, re-park) per waiter per release.
    pub fn grantable_waiters(&self, except: TxnId) -> Vec<TxnId> {
        self.waiters
            .iter()
            .filter(|&&(t, mode)| t != except && self.grantable(t, mode))
            .map(|&(t, _)| t)
            .collect()
    }

    /// `true` once nobody holds or waits — the entry can be dropped.
    pub fn is_vacant(&self) -> bool {
        self.holders.is_empty() && self.waiters.is_empty()
    }
}

/// One stripe of the lock table, on cache lines of its own: a stripe's
/// mutex word is written by every request that hashes to it, and an
/// unpadded neighbour would take that line away from another worker.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    pub table: CachePadded<Mutex<IdMap<ResourceId, Entry>>>,
}

/// A hash map keyed by engine-assigned integer ids.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiply-mix hasher for [`IdMap`]: one rotate, xor and multiply per
/// word. Not flood-resistant, and it need not be: transaction ids come
/// from [`crate::LockManager::begin`], and tuple and relation ids from
/// the engine — a client cannot choose the keys it hashes.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
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

/// The SplitMix64 finalizer: consecutive inputs land far apart. Shard
/// placement and the fault injector's seeded decisions both rest on its
/// exact outputs.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a resource to its shard index ([`mix`], so consecutive tuple
/// ids spread across stripes).
pub(crate) fn shard_of(res: ResourceId, shards: usize) -> usize {
    let raw = match res {
        ResourceId::Tuple(t) => t,
        // Relations live in a disjoint key space.
        ResourceId::Relation(r) => (1u64 << 63) | u64::from(r),
    };
    (mix(raw) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    use crate::LockMode::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for n in [1usize, 2, 16, 64] {
            for k in 0..200u64 {
                let s1 = shard_of(ResourceId::Tuple(k), n);
                let s2 = shard_of(ResourceId::Tuple(k), n);
                assert_eq!(s1, s2);
                assert!(s1 < n);
                assert!(shard_of(ResourceId::Relation(k as u32), n) < n);
            }
        }
        // Placement is pinned: the finalizer's outputs must not move.
        assert_eq!(shard_of(ResourceId::Tuple(7), 64), 23);
        assert_eq!(shard_of(ResourceId::Relation(3), 64), 56);
    }

    #[test]
    fn tuple_and_relation_keyspaces_are_disjoint() {
        // Same raw number, different resource kind → (usually) different
        // shard; at minimum they are distinct map keys, but check the
        // hash actually mixes the tag bit for a few values.
        let n = 64;
        let differing = (0..32u64)
            .filter(|&k| {
                shard_of(ResourceId::Tuple(k), n) != shard_of(ResourceId::Relation(k as u32), n)
            })
            .count();
        assert!(differing > 0, "tag bit must influence the hash");
    }

    #[test]
    fn consecutive_tuples_spread_over_shards() {
        let n = 16;
        let mut seen = vec![false; n];
        for k in 0..64u64 {
            seen[shard_of(ResourceId::Tuple(k), n)] = true;
        }
        assert!(
            seen.iter().filter(|&&s| s).count() >= n / 2,
            "64 consecutive ids should hit at least half the stripes"
        );
    }

    #[test]
    fn entry_grantable_respects_fifo() {
        let mut e = Entry::default();
        let (a, b, c) = (TxnId(0), TxnId(1), TxnId(2));
        e.holders.grant(a, S);
        // Writer b queues behind holder a.
        e.waiters.push_back((b, X));
        // Reader c is FIFO-blocked by waiting writer b...
        assert!(!e.grantable(c, S));
        // ...but b itself sees only the holder conflict.
        assert_eq!(e.blockers_of(b, X), vec![a]);
        e.remove_waiter(b);
        assert!(e.grantable(c, S));
    }

    #[test]
    fn only_grantable_waiters_are_woken() {
        let mut e = Entry::default();
        let (a, b, c, d) = (TxnId(0), TxnId(1), TxnId(2), TxnId(3));
        // Holder a gone; queue: writer b, then readers c and d.
        e.waiters.push_back((b, X));
        e.waiters.push_back((c, S));
        e.waiters.push_back((d, S));
        assert_eq!(e.grantable_waiters(a), vec![b], "readers stay FIFO-blocked behind b");
        // b granted (left the queue, not yet a holder): both readers go.
        e.remove_waiter(b);
        assert_eq!(e.grantable_waiters(b), vec![c, d]);
        // ...and none of them while b holds X.
        e.holders.grant(b, X);
        assert!(e.grantable_waiters(a).is_empty());
    }

    #[test]
    fn granted_or_absent_txn_has_no_blockers() {
        // The deadlock detector's race: `b` was granted between the
        // read of its `waiting_on` and the read of this entry. It is a
        // holder now, not a waiter — the conflicting waiters queued
        // behind it wait *for* it, never the other way round.
        let mut e = Entry::default();
        let (a, b, c, d) = (TxnId(0), TxnId(1), TxnId(2), TxnId(3));
        e.holders.grant(b, X);
        e.waiters.push_back((a, X));
        e.waiters.push_back((c, X));
        assert!(e.blockers_of(b, X).is_empty(), "granted txn is blocked by nobody");
        assert!(e.blockers_of(d, X).is_empty(), "absent txn is blocked by nobody");
        // A queued waiter still sees the holder and the earlier waiter.
        assert_eq!(e.blockers_of(c, X), vec![b, a]);
    }

    #[test]
    fn holders_are_visited_in_txn_order_whatever_the_grant_order() {
        // Blocker lists (and through them the obs `Block` holder and
        // the commit rule's doom order) follow `TxnId` order, as the
        // ordered map the holder vector replaced did.
        let mut e = Entry::default();
        let (a, b, c, w) = (TxnId(4), TxnId(1), TxnId(9), TxnId(12));
        for (t, m) in [(c, Rc), (a, Rc), (b, Ra), (a, Ra), (c, Rc)] {
            e.holders.grant(t, m);
        }
        assert_eq!(e.holders.len(), 3, "re-grants add modes, not holders");
        e.waiters.push_back((w, Wa));
        assert_eq!(e.blockers_of(w, Wa), vec![b, a], "Rc alone does not refuse Wa");
        assert!(e.grantable(w, Rc));
        e.holders.remove(b);
        e.holders.remove(a);
        assert!(e.grantable(w, Wa));
        e.holders.remove(c);
        e.remove_waiter(w);
        assert!(e.is_vacant());
    }

    #[test]
    fn id_hasher_spreads_consecutive_ids() {
        // Bucket index = low bits, control byte = top 7 bits: both must
        // vary over a run of consecutive ids.
        let hash = |k: &dyn Fn(&mut IdHasher)| {
            let mut h = IdHasher::default();
            k(&mut h);
            h.finish()
        };
        let tuples: Vec<u64> = (0..256u64).map(|k| hash(&|h| ResourceId::Tuple(k).hash(h))).collect();
        let low: std::collections::HashSet<u64> = tuples.iter().map(|h| h & 0xFF).collect();
        let top: std::collections::HashSet<u64> = tuples.iter().map(|h| h >> 57).collect();
        assert_eq!(low.len(), 256, "consecutive ids fill distinct buckets");
        assert!(top.len() >= 64, "control bytes vary: {}", top.len());
        let relations = (0..256u32).filter(|&k| {
            hash(&|h| ResourceId::Relation(k).hash(h)) != hash(&|h| ResourceId::Tuple(u64::from(k)).hash(h))
        });
        assert_eq!(relations.count(), 256, "the variant tag is hashed");
    }
}
