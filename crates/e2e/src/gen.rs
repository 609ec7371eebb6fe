//! Seeded input generators. Everything here is a pure function of its
//! arguments: the same `(seed, size)` yields the same rule set, the
//! same initial working memory and the same request streams, so the
//! committed work — and the final working-memory *content* — is
//! identical run to run. The system under test only ever sees what
//! these functions produced.

use dps_rules::RuleSet;
use dps_wm::rng::SmallRng;
use dps_wm::{WmeData, WorkingMemory};

/// Zipf sampler over `0..keys` with exponent `s`, by binary search on
/// the precomputed CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the CDF table.
    pub fn new(keys: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(keys);
        let mut acc = 0.0;
        for k in 1..=keys {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one key.
    pub fn draw(&self, rng: &mut SmallRng) -> i64 {
        let u = rng.random_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as i64
    }
}

/// One logical session transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Txn {
    /// `Begin · Insert delta ^key k ^v 1 · Commit` — one `apply`
    /// firing folds it into `acc[k]`.
    Delta {
        /// Accumulator key.
        key: i64,
    },
    /// `Begin · Query acc · Commit`.
    Read,
    /// `Begin · Query note · Remove own previous note · Insert note ·
    /// Commit` on a class no rule reads.
    Note,
}

/// Transaction kinds, for per-kind tallies and span tags.
pub const KINDS: usize = 3;

impl Txn {
    /// Dense kind index (`0` delta, `1` read, `2` note).
    pub fn kind(self) -> usize {
        match self {
            Txn::Delta { .. } => 0,
            Txn::Read => 1,
            Txn::Note => 2,
        }
    }
}

/// Kind names, indexed by [`Txn::kind`].
pub const KIND_NAMES: [&str; KINDS] = ["delta", "read", "note"];

/// Shape of a session workload's request stream.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Pre-populated `acc` keys (the Zipf domain).
    pub keys: usize,
    /// Share of read transactions.
    pub read: f64,
    /// Share of note transactions (the rest are deltas).
    pub note: f64,
}

/// `session_zipf`: deltas only, 1024 keys.
pub const ZIPF_MIX: Mix = Mix {
    keys: 1024,
    read: 0.0,
    note: 0.0,
};
/// `session_mixed`: 50% reads, 40% deltas, 10% notes over 256 keys.
pub const MIXED_MIX: Mix = Mix {
    keys: 256,
    read: 0.5,
    note: 0.1,
};

/// Zipf exponent of every delta key draw.
pub const ZIPF_S: f64 = 1.0;

fn client_rng(seed: u64, client: usize) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Client `client`'s `n` transactions.
pub fn session_stream(mix: &Mix, seed: u64, client: usize, n: usize) -> Vec<Txn> {
    let zipf = Zipf::new(mix.keys, ZIPF_S);
    let mut rng = client_rng(seed, client);
    (0..n)
        .map(|_| {
            let u = rng.random_f64();
            if u < mix.read {
                Txn::Read
            } else if u < mix.read + mix.note {
                Txn::Note
            } else {
                Txn::Delta {
                    key: zipf.draw(&mut rng),
                }
            }
        })
        .collect()
}

/// The accumulator rule: one firing per committed delta.
pub fn session_rules() -> RuleSet {
    RuleSet::parse(
        "(p apply (delta ^key <k> ^v <v>) (acc ^key <k> ^total <t>)
           --> (remove 1) (modify 2 ^total (+ <t> <v>)))",
    )
    .expect("accumulator rule parses")
}

/// One zeroed accumulator per key.
pub fn session_wm(keys: usize) -> WorkingMemory {
    let mut wm = WorkingMemory::new();
    for k in 0..keys {
        wm.insert(
            WmeData::new("acc")
                .with("key", k as i64)
                .with("total", 0i64),
        );
    }
    wm
}

/// Fisher–Yates over `v`.
fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.index(i + 1));
    }
}

/// `engine_match` shape: `groups` independent families. In family `g`
/// a `cursor-g` walks a linked list of `pairs` `item-g` tuples; each
/// `visit-g` firing classifies the item under the cursor against
/// [`MATCH_KINDS`] `kind-g` tuples and makes an `out-g`, which `fold-g`
/// — the second join the RHS output feeds — folds into `sum-g`.
/// Families share no class, so there are no conflicts between them, and
/// at most two instantiations per family are live at any time.
/// Total commits = `2 * groups * pairs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatchSize {
    /// Rule families.
    pub groups: usize,
    /// Items per family (each visited once, then folded once).
    pub pairs: usize,
}

/// `kind-g` tuples per family. `visit-g` names the `kind-g` CE before
/// the `item-g` CE, and `cursor-g` shares no variable with it, so every
/// cursor move re-derives this many partial matches, of which one
/// survives the `item-g` join: the join work a match-layer change
/// (join ordering, indexing, token reuse) would remove.
pub const MATCH_KINDS: usize = 48;

impl MatchSize {
    /// Rule firings the run must commit.
    pub fn expected_commits(&self) -> u64 {
        2 * (self.groups * self.pairs) as u64
    }
}

/// Rules, initial WM and the closed-form final `sum-g` totals of
/// `engine_match`. The seed picks each item's kind and the insertion
/// order (hence ids and recency, hence conflict-set order).
pub fn match_input(size: MatchSize, seed: u64) -> (RuleSet, WorkingMemory, Vec<i64>) {
    let mut src = String::new();
    for g in 0..size.groups {
        src.push_str(&format!(
            "(p visit-{g} (cursor-{g} ^at <i>) (kind-{g} ^kind <k> ^w <w>)
                (item-{g} ^id <i> ^kind <k> ^next <j>) -(out-{g})
               --> (modify 1 ^at <j>) (make out-{g} ^id <i> ^w <w>))
             (p fold-{g} (out-{g} ^id <i> ^w <w>) (sum-{g} ^total <s>)
               --> (remove 1) (modify 2 ^total (+ <s> <w>)))\n"
        ));
    }
    let rules = RuleSet::parse(&src).expect("engine_match rules parse");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sums = vec![0i64; size.groups];
    let mut tuples = Vec::with_capacity(size.groups * (size.pairs + MATCH_KINDS + 2));
    for (g, sum) in sums.iter_mut().enumerate() {
        tuples.push(WmeData::new(format!("cursor-{g}")).with("at", 0i64));
        tuples.push(WmeData::new(format!("sum-{g}")).with("total", 0i64));
        for k in 0..MATCH_KINDS as i64 {
            tuples.push(
                WmeData::new(format!("kind-{g}"))
                    .with("kind", k)
                    .with("w", k + 1),
            );
        }
        for i in 0..size.pairs as i64 {
            let kind = rng.index(MATCH_KINDS) as i64;
            *sum += kind + 1;
            tuples.push(
                WmeData::new(format!("item-{g}"))
                    .with("id", i)
                    .with("kind", kind)
                    .with("next", i + 1),
            );
        }
    }
    shuffle(&mut tuples, &mut rng);
    let mut wm = WorkingMemory::new();
    for t in tuples {
        wm.insert(t);
    }
    (rules, wm, sums)
}

/// Hot `tally` tuples of `engine_contend`.
pub const CONTEND_RESOURCES: usize = 8;

/// Finished `task` tuples (`^left 0`) the live ones sit among: a
/// working memory mostly at rest, which set-up has to load and filter
/// and no firing ever matches.
pub const CONTEND_AT_REST: usize = 20_000;

/// `engine_contend` shape: `shared_resources` with a repeat count.
/// `tasks` tasks each charge one of [`CONTEND_RESOURCES`] hot tallies
/// `steps` times, so every firing of the run writes a hot tuple and
/// takes the relation-level `W_a` on both classes, while the live
/// `task × tally` join stays `tasks` instantiations wide.
/// Total commits = `tasks * steps`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContendSize {
    /// `task` tuples.
    pub tasks: usize,
    /// Charges per task.
    pub steps: i64,
}

impl ContendSize {
    /// Rule firings the run must commit.
    pub fn expected_commits(&self) -> u64 {
        self.tasks as u64 * self.steps as u64
    }
}

/// Rules, initial WM and the closed-form final tally counts of
/// `engine_contend`. The seed picks each task's resource and the
/// insertion order.
pub fn contend_input(size: ContendSize, seed: u64) -> (RuleSet, WorkingMemory, Vec<i64>) {
    let rules = RuleSet::parse(
        "(p charge (task ^res <r> ^left { > 0 <n> }) (tally ^id <r> ^count <c>)
           --> (modify 1 ^left (- <n> 1)) (modify 2 ^count (+ <c> 1)))",
    )
    .expect("engine_contend rule parses");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut expected = vec![0i64; CONTEND_RESOURCES];
    let mut tuples = Vec::with_capacity(size.tasks + CONTEND_AT_REST + CONTEND_RESOURCES);
    for i in 0..CONTEND_AT_REST {
        tuples.push(
            WmeData::new("task")
                .with("res", (i % CONTEND_RESOURCES) as i64)
                .with("left", 0i64),
        );
    }
    for r in 0..CONTEND_RESOURCES {
        tuples.push(
            WmeData::new("tally")
                .with("id", r as i64)
                .with("count", 0i64),
        );
    }
    for _ in 0..size.tasks {
        let r = rng.index(CONTEND_RESOURCES);
        expected[r] += size.steps;
        tuples.push(
            WmeData::new("task")
                .with("res", r as i64)
                .with("left", size.steps),
        );
    }
    shuffle(&mut tuples, &mut rng);
    let mut wm = WorkingMemory::new();
    for t in tuples {
        wm.insert(t);
    }
    (rules, wm, expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        let a = session_stream(&MIXED_MIX, 7, 1, 500);
        assert_eq!(a, session_stream(&MIXED_MIX, 7, 1, 500));
        assert_ne!(a, session_stream(&MIXED_MIX, 8, 1, 500));
        assert_ne!(a, session_stream(&MIXED_MIX, 7, 0, 500));
        // A longer stream extends a shorter one (warm-up is a prefix).
        assert_eq!(a[..100], session_stream(&MIXED_MIX, 7, 1, 100)[..]);
    }

    #[test]
    fn mix_shares_and_zipf_skew() {
        let s = session_stream(&MIXED_MIX, 3, 0, 20_000);
        let reads = s.iter().filter(|t| **t == Txn::Read).count() as f64 / 20_000.0;
        let notes = s.iter().filter(|t| **t == Txn::Note).count() as f64 / 20_000.0;
        assert!(
            (reads - 0.5).abs() < 0.02 && (notes - 0.1).abs() < 0.01,
            "{reads} {notes}"
        );
        let mut hist = [0u32; 256];
        for t in &s {
            if let Txn::Delta { key } = t {
                assert!((0..256).contains(key));
                hist[*key as usize] += 1;
            }
        }
        assert!(
            hist[0] > 4 * hist[15],
            "Zipf head not hot: {} vs {}",
            hist[0],
            hist[15]
        );
        assert!(session_stream(&ZIPF_MIX, 3, 0, 100)
            .iter()
            .all(|t| t.kind() == 0));
    }

    #[test]
    fn engine_inputs_are_pure_functions_of_the_seed() {
        let size = MatchSize {
            groups: 3,
            pairs: 5,
        };
        let (_, a, sa) = match_input(size, 1);
        let (_, b, sb) = match_input(size, 1);
        let (_, c, sc) = match_input(size, 2);
        assert!(a.iter().eq(b.iter()) && sa == sb, "same seed, same input");
        assert!(!a.iter().eq(c.iter()), "seed permutes insertion order");
        assert_eq!(a.len(), c.len());
        assert!(sa
            .iter()
            .chain(&sc)
            .all(|s| (5..=5 * MATCH_KINDS as i64).contains(s)));
        assert_eq!(size.expected_commits(), 30);

        let size = ContendSize {
            tasks: 64,
            steps: 3,
        };
        let (_, a, ea) = contend_input(size, 1);
        let (_, b, eb) = contend_input(size, 1);
        let (_, c, _) = contend_input(size, 2);
        assert!(a.iter().eq(b.iter()) && ea == eb);
        assert!(!a.iter().eq(c.iter()) && a.len() == c.len());
        assert_eq!(ea.iter().sum::<i64>(), 64 * 3);
        assert_eq!(size.expected_commits(), 64 * 3);
    }
}
