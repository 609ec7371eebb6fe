//! The striped lock table.
//!
//! Resources hash to one of N independent shards; each shard is a
//! `Mutex<IdMap<ResourceId, Entry>>`. Two transactions touching
//! resources in different shards never contend on a manager-level lock:
//! a `lock` call takes the one stripe its resource hashes to, and never
//! two stripes at once.
//!
//! Per-resource FIFO waiter queues live inside each [`Entry`], so no
//! reader overtakes a queued writer; since a queue is per *resource*,
//! shard-local FIFO is exactly resource FIFO, whatever other resources
//! share the stripe.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Mutex;

use dps_obs::CachePadded;

use crate::protocol::Entry;
use crate::ResourceId;

/// The lock table's stripe count. Two requests for unrelated resources
/// share a stripe mutex with odds 1/N, and each stripe sits on 128
/// bytes of its own, so 64 stripes cost 8 KiB. 256 read within noise
/// of 64 on the engines and lower on sessions (EXPERIMENTS §XS.30).
pub const DEFAULT_SHARDS: usize = 64;

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
