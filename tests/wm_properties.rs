//! Property tests on the working-memory substrate: routing-index
//! invariants under random operation streams, timestamp monotonicity,
//! snapshot round trips, and clones that share their indexes behaving as
//! unshared copies.
//!
//! Randomness comes from the workspace's internal deterministic PRNG
//! (`dps_wm::rng::SmallRng`); each property is checked over a fixed
//! sweep of seeds so failures reproduce exactly by seed.

use dbps::wm::rng::SmallRng;
use dbps::wm::{
    apply_changes_atomic, Atom, Change, DeltaSet, Value, Wme, WmeData, WmeId, WorkingMemory,
};

const CASES: u64 = 128;

#[derive(Clone, Debug)]
enum Op {
    Insert { class: u8, k: i64 },
    Remove { pick: usize },
    Modify { pick: usize, k: i64 },
}

fn random_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| match rng.index(3) {
            0 => Op::Insert {
                class: rng.index(3) as u8,
                k: rng.range_i64(-3..3),
            },
            1 => Op::Remove { pick: rng.index(8) },
            _ => Op::Modify {
                pick: rng.index(8),
                k: rng.range_i64(-3..3),
            },
        })
        .collect()
}

fn apply_ops(wm: &mut WorkingMemory, ops: &[Op]) {
    let mut live: Vec<WmeId> = Vec::new();
    for op in ops {
        match op {
            Op::Insert { class, k } => {
                let id = wm.insert(WmeData::new(format!("c{class}")).with("k", *k));
                live.push(id);
            }
            Op::Remove { pick } => {
                if live.is_empty() {
                    continue;
                }
                let id = live.swap_remove(pick % live.len());
                wm.remove(id).unwrap();
            }
            Op::Modify { pick, k } => {
                if live.is_empty() {
                    continue;
                }
                let id = live[pick % live.len()];
                let mut d = DeltaSet::new();
                d.modify(id, [(Atom::from("k"), Value::Int(*k))]);
                wm.apply(&d).unwrap();
            }
        }
    }
}

/// The id → class routing index never drifts from the relations: every
/// tuple a relation holds is what `get` finds under its id, relations
/// iterate in id order, and together they hold exactly the live set —
/// so every live id routes to the relation that holds it.
#[test]
fn index_invariants_hold_under_random_ops() {
    for seed in 0..CASES {
        let mut wm = WorkingMemory::new();
        apply_ops(&mut wm, &random_ops(seed, 40));
        let mut held = 0;
        for class in ["c0", "c1", "c2"] {
            if let Some(rel) = wm.relation(class) {
                let ids: Vec<WmeId> = rel.iter().map(|w| w.id).collect();
                assert!(
                    ids.windows(2).all(|p| p[0] < p[1]),
                    "seed {seed}: {class} out of id order"
                );
                for w in rel.iter() {
                    assert_eq!(w.class().as_str(), class, "seed {seed}");
                    assert_eq!(
                        wm.get(w.id),
                        Some(w),
                        "seed {seed}: {class} routing drifted"
                    );
                }
                held += rel.len();
            }
        }
        assert_eq!(held, wm.len(), "seed {seed}");
    }
}

/// Timestamps increase strictly with every (re-)insertion.
#[test]
fn timestamps_strictly_increase() {
    for seed in 0..CASES {
        let mut wm = WorkingMemory::new();
        let ops = random_ops(seed, 30);
        let mut last = 0;
        let mut live: Vec<WmeId> = Vec::new();
        for op in &ops {
            match op {
                Op::Insert { class, k } => {
                    let w = wm.insert_full(WmeData::new(format!("c{class}")).with("k", *k));
                    assert!(w.timestamp > last, "seed {seed}");
                    last = w.timestamp;
                    live.push(w.id);
                }
                Op::Remove { pick } if !live.is_empty() => {
                    let id = live.swap_remove(pick % live.len());
                    wm.remove(id).unwrap();
                }
                Op::Modify { pick, k } if !live.is_empty() => {
                    let id = live[pick % live.len()];
                    let mut d = DeltaSet::new();
                    d.modify(id, [(Atom::from("k"), Value::Int(*k))]);
                    wm.apply(&d).unwrap();
                    let fresh = wm.get(id).unwrap().timestamp;
                    assert!(fresh > last, "seed {seed}");
                    last = fresh;
                }
                _ => {}
            }
        }
    }
}

/// Snapshots roundtrip exactly for arbitrary operation histories, and
/// replaying the further commits' change batches atomically on the
/// snapshot recovers the final state.
#[test]
fn persistence_roundtrip_under_random_ops() {
    for seed in 0..CASES {
        let mut wm = WorkingMemory::new();
        apply_ops(&mut wm, &random_ops(seed, 25));
        let snap = wm.encode_snapshot().unwrap();
        let restored = WorkingMemory::decode_snapshot(&snap).unwrap();
        let a: Vec<Wme> = wm.iter().cloned().collect();
        let b: Vec<Wme> = restored.iter().cloned().collect();
        assert_eq!(a, b, "seed {seed}");
        assert_eq!(wm.clock(), restored.clock(), "seed {seed}");

        // Record further commits as change batches.
        let mut log: Vec<Vec<Change>> = Vec::new();
        let more = random_ops(seed.wrapping_add(1), 10);
        let mut shadow = restored;
        {
            // Record as change batches via a mirror of the same ops.
            let mut live: Vec<WmeId> = shadow.iter().map(|w| w.id).collect();
            for op in &more {
                match op {
                    Op::Insert { class, k } => {
                        let mut d = DeltaSet::new();
                        d.create(WmeData::new(format!("c{class}")).with("k", *k));
                        let ch = shadow.apply(&d).unwrap();
                        live.extend(ch.iter().map(|c| c.wme().id));
                        log.push(ch);
                    }
                    Op::Remove { pick } if !live.is_empty() => {
                        let id = live.swap_remove(pick % live.len());
                        if shadow.contains(id) {
                            let mut d = DeltaSet::new();
                            d.remove(id);
                            log.push(shadow.apply(&d).unwrap());
                        }
                    }
                    Op::Modify { pick, k } if !live.is_empty() => {
                        let id = live[pick % live.len()];
                        if shadow.contains(id) {
                            let mut d = DeltaSet::new();
                            d.modify(id, [(Atom::from("k"), Value::Int(*k))]);
                            log.push(shadow.apply(&d).unwrap());
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut recovered = WorkingMemory::decode_snapshot(&snap).unwrap();
        for batch in &log {
            apply_changes_atomic(&mut recovered, batch).unwrap();
        }
        let x: Vec<Wme> = shadow.iter().cloned().collect();
        let y: Vec<Wme> = recovered.iter().cloned().collect();
        assert_eq!(x, y, "seed {seed}");
    }
}

/// A random delta over `wm`: one to three creates, modifies and removes
/// of live ids, and now and then an id that may be dead (the delta is
/// then rejected whole, leaving the memory untouched).
fn random_delta(rng: &mut SmallRng, wm: &WorkingMemory) -> DeltaSet {
    let live: Vec<WmeId> = wm.iter().map(|w| w.id).collect();
    let pick = |rng: &mut SmallRng| {
        if live.is_empty() || rng.index(10) == 0 {
            WmeId(rng.range_u64(0..12_000))
        } else {
            live[rng.index(live.len())]
        }
    };
    let mut d = DeltaSet::new();
    for _ in 0..1 + rng.index(3) {
        match rng.index(3) {
            0 => {
                let class = format!("c{}", rng.index(3));
                d.create(WmeData::new(class).with("k", rng.range_i64(-3..3)));
            }
            1 => d.remove(pick(rng)),
            _ => {
                let id = pick(rng);
                d.modify(id, [(Atom::from("k"), Value::Int(rng.range_i64(-3..3)))]);
            }
        }
    }
    d
}

/// A copy of `wm` that shares nothing with it.
fn unshared(wm: &WorkingMemory) -> WorkingMemory {
    WorkingMemory::decode_snapshot(&wm.encode_snapshot().unwrap()).unwrap()
}

/// A memory and its clone share relations and id ranges until one of
/// them writes. Random deltas applied alternately to the two give the
/// same results, and leave the same states, as the same deltas applied
/// to two copies that share nothing — also across a second clone taken
/// midway, and with ids spread over several 4096-id ranges, some of
/// them emptied (a churned prefix).
#[test]
fn clones_behave_as_unshared_copies_under_random_deltas() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0FF_EE00);
        let mut base = WorkingMemory::new();
        let churn: Vec<WmeId> = (0..rng.index(3) * 3000)
            .map(|i| base.insert(WmeData::new("c0").with("k", i as i64)))
            .collect();
        for (i, id) in churn.into_iter().enumerate() {
            if i % 700 != 0 {
                base.remove(id).unwrap();
            }
        }
        apply_ops(&mut base, &random_ops(seed, 40));

        let mut shared = [base.clone(), base];
        let mut alone = [unshared(&shared[0]), unshared(&shared[1])];
        for step in 0..24 {
            if step == 12 {
                shared[0] = shared[1].clone();
                alone[0] = unshared(&alone[1]);
            }
            let side = step % 2;
            let delta = random_delta(&mut rng, &shared[side]);
            assert_eq!(
                shared[side].apply(&delta),
                alone[side].apply(&delta),
                "seed {seed} step {step}"
            );
            // A direct remove of an id that may be dead.
            let id = WmeId(rng.range_u64(0..12_000));
            assert_eq!(
                shared[side].remove(id).map(|w| w.id),
                alone[side].remove(id).map(|w| w.id),
                "seed {seed} step {step}"
            );
        }
        for (side, (wm, want)) in shared.iter().zip(&alone).enumerate() {
            assert_eq!(wm.len(), want.len(), "seed {seed} side {side}");
            assert_eq!(
                wm.encode_snapshot().unwrap(),
                want.encode_snapshot().unwrap(),
                "seed {seed} side {side}"
            );
            for w in want.iter() {
                assert_eq!(wm.get(w.id), Some(w), "seed {seed} side {side}");
            }
        }
    }
}
