//! Synthetic concrete rule workloads with controllable interference —
//! the knobs §5 identifies (degree of conflict, execution time, number
//! of processors) realised as real rule systems.

use dps_rules::RuleSet;
use dps_wm::{WmeData, WorkingMemory};

/// `n` independent counters, each counting down from `start`: zero
/// interference, embarrassingly parallel. Total commits = `n * start`.
pub fn counters(n: usize, start: i64) -> (RuleSet, WorkingMemory) {
    let rules = RuleSet::parse("(p bump (cell ^n { > 0 <n> }) --> (modify 1 ^n (- <n> 1)))")
        .expect("static workload parses");
    let mut wm = WorkingMemory::new();
    for _ in 0..n {
        wm.insert(WmeData::new("cell").with("n", start));
    }
    (rules, wm)
}

/// Tunable contention: `tasks` tasks, each charging one of `resources`
/// shared tally tuples. `resources = tasks` → no interference;
/// `resources = 1` → a single hot spot. Total commits = `tasks`.
pub fn shared_resources(tasks: usize, resources: usize) -> (RuleSet, WorkingMemory) {
    assert!(resources > 0);
    let rules = RuleSet::parse(
        "(p charge (task ^res <r> ^state todo) (tally ^id <r> ^count <c>)
           --> (modify 1 ^state done) (modify 2 ^count (+ <c> 1)))",
    )
    .expect("static workload parses");
    let mut wm = WorkingMemory::new();
    for r in 0..resources {
        wm.insert(
            WmeData::new("tally")
                .with("id", r as i64)
                .with("count", 0i64),
        );
    }
    for t in 0..tasks {
        wm.insert(
            WmeData::new("task")
                .with("res", (t % resources) as i64)
                .with("state", "todo"),
        );
    }
    (rules, wm)
}

/// The manufacturing / process-control pipeline the paper's introduction
/// motivates: `jobs` jobs advance through `stages` routing steps. Jobs
/// are mutually independent (they share only read-only routing tuples),
/// so run-time analysis parallelises them while rule-level static
/// analysis must serialise (the rule self-interferes on `job.stage`).
/// Total commits = `jobs * stages`.
pub fn manufacturing(jobs: usize, stages: usize) -> (RuleSet, WorkingMemory) {
    let rules = RuleSet::parse(
        "(p advance (job ^stage <s>) (route ^from <s> ^to <n>)
           --> (modify 1 ^stage <n>))",
    )
    .expect("static workload parses");
    let mut wm = WorkingMemory::new();
    for s in 0..stages {
        wm.insert(
            WmeData::new("route")
                .with("from", s as i64)
                .with("to", (s + 1) as i64),
        );
    }
    for _ in 0..jobs {
        wm.insert(WmeData::new("job").with("stage", 0i64));
    }
    (rules, wm)
}

/// A workload with *relation-level false conflicts*: guards watch for the
/// absence of `alarm` tuples in their own zone (a negated CE, so their
/// `Rc` lock escalates to the whole `alarm` relation), while producers
/// insert alarms into a zone (999) that **no guard watches**. The
/// producers' `IWa` on the escalated relation overlaps every guard's `Rc`
/// even though no guard's condition is actually invalidated. Under
/// `AbortReaders` every such overlap kills the guards (who then retry);
/// under `Revalidate` the engine re-checks their instantiations, finds
/// them intact, and lets them commit. Exercises X3.
pub fn false_conflicts(guards: usize, events: usize) -> (RuleSet, WorkingMemory) {
    let rules = RuleSet::parse(
        "(p guard (watch ^id <w> ^armed true) -(alarm ^zone <w>) --> (modify 1 ^armed false))
         (p produce (pending ^id <e>) --> (remove 1) (make alarm ^zone 999 ^id <e>))",
    )
    .expect("static workload parses");
    let mut wm = WorkingMemory::new();
    for w in 0..guards {
        wm.insert(
            WmeData::new("watch")
                .with("id", w as i64)
                .with("armed", true),
        );
    }
    for e in 0..events {
        wm.insert(WmeData::new("pending").with("id", e as i64));
    }
    (rules, wm)
}

/// The streaming variant of [`false_conflicts`]: the same relation-level
/// false-conflict channel, kept *live* for the whole run. Each guard
/// counts its `watch` tuple down `g_steps` times (still under a negated
/// `alarm` CE, so its `Rc` escalates to the whole `alarm` relation);
/// each producer counts a `feed` tuple down `p_steps` times, making one
/// zone-999 alarm per step that no guard watches. Because both sides
/// advance by `modify` — remove + reinsert with *fresh recency* — their
/// instantiations keep leap-frogging each other in the conflict order,
/// so guard claims and producer commits genuinely overlap instead of
/// draining as two recency-sorted batches the way the one-shot workload
/// does. Under `AbortReaders` every overlapping producer commit dooms
/// the live guards (who redo their work); under MVCC the guards hold no
/// `Rc` at all and nothing is doomed. Total commits =
/// `guards * g_steps + producers * p_steps`, deterministically.
pub fn false_conflict_stream(
    guards: usize,
    g_steps: i64,
    producers: usize,
    p_steps: i64,
) -> (RuleSet, WorkingMemory) {
    let rules = RuleSet::parse(
        "(p guard (watch ^id <w> ^n { > 0 <n> }) -(alarm ^zone <w>)
           --> (modify 1 ^n (- <n> 1)))
         (p produce (feed ^id <f> ^n { > 0 <n> })
           --> (modify 1 ^n (- <n> 1)) (make alarm ^zone 999 ^src <f> ^step <n>))",
    )
    .expect("static workload parses");
    let mut wm = WorkingMemory::new();
    for w in 0..guards {
        wm.insert(
            WmeData::new("watch")
                .with("id", w as i64)
                .with("n", g_steps),
        );
    }
    for f in 0..producers {
        wm.insert(
            WmeData::new("feed")
                .with("id", f as i64)
                .with("n", p_steps),
        );
    }
    (rules, wm)
}

/// The coordination-avoidance workload: every rule is **provably
/// commutative**, yet under the §4 locking protocol every access goes
/// through the lock table. `bump` delta-decrements `counters` `ctr`
/// tuples (`c_steps` each); `emit` delta-decrements `makers` `feed`
/// tuples and makes one `evt` per step into a class nobody reads.
///
/// * **Commute matrix**: `bump` RMW-writes the attribute it reads, so
///   it self-commutes; `emit`'s delta (`feed.n`) and insert (`evt`)
///   never meet its plain reads; the two rules share no class. Both
///   class-components elide.
/// * **Lock traffic (elision off)**: every firing takes `Rc` and `Wa`
///   on its tuple plus the intention write `IWa` on the relation of
///   each class it writes (shared with the class's other writers,
///   refusing negated readers) — three grants a `bump`, four an `emit`.
///   Elision skips exactly that traffic; nothing else changes.
///
/// Total commits = `counters * c_steps + makers * m_steps`,
/// deterministically, and the final WM is schedule-independent.
pub fn commute_stream(
    counters: usize,
    c_steps: i64,
    makers: usize,
    m_steps: i64,
) -> (RuleSet, WorkingMemory) {
    let rules = RuleSet::parse(
        "(p bump (ctr ^id <c> ^n { > 0 <n> }) --> (modify 1 ^n (- <n> 1)))
         (p emit (feed ^id <f> ^n { > 0 <n> })
           --> (modify 1 ^n (- <n> 1)) (make evt ^src <f> ^step <n>))",
    )
    .expect("static workload parses");
    let mut wm = WorkingMemory::new();
    for c in 0..counters {
        wm.insert(WmeData::new("ctr").with("id", c as i64).with("n", c_steps));
    }
    for f in 0..makers {
        wm.insert(WmeData::new("feed").with("id", f as i64).with("n", m_steps));
    }
    (rules, wm)
}

/// The **non-commutative pair** for the elision falsifiability probe:
/// `dec` delta-decrements `cell.n`; `tag` delta-increments `cell.hits`
/// but *plain-reads* `cell.n` through its guard, so the commute
/// judgment (correctly) refuses the pair — `dec` changes what `tag`'s
/// instantiation matched on. Forcing the pair through the lock-elision
/// fast path **with commit validation bypassed**
/// ([`dps_core::ParallelConfig::elide_misclassify`]) lets `tag` commit
/// a delta materialised from a tuple `dec` has already replaced — a
/// lost update the §3 serial-replay oracle must reject. `tag`'s own
/// budget (`hits < steps`) bounds the run either way.
pub fn misclassified_pair(cells: usize, steps: i64) -> (RuleSet, WorkingMemory) {
    let src = format!(
        "(p dec (cell ^n {{ > 0 <n> }}) --> (modify 1 ^n (- <n> 1)))
         (p tag (cell ^n {{ > 0 <n> }} ^hits {{ < {steps} <h> }})
           --> (modify 1 ^hits (+ <h> 1)))"
    );
    let rules = RuleSet::parse(&src).expect("static workload parses");
    let mut wm = WorkingMemory::new();
    for _ in 0..cells {
        wm.insert(WmeData::new("cell").with("n", steps).with("hits", 0i64));
    }
    (rules, wm)
}

/// A match-dominated workload: `groups` independent rule families, each
/// a wide fan-out join of one `cfg-g` tuple against `pairs` `item-g`
/// tuples, firing a cheap `make`-only RHS. Nothing is ever removed or
/// modified, so
///
/// * the conflict set starts with `groups * pairs` live instantiations,
///   and each leaves it as it fires (it stays satisfied, and refraction
///   unlists it), so a claim scan walks only claimed keys ahead of a
///   free one — **match and pipeline cost, not lock contention, is the
///   measured axis** (there are zero conflict aborts);
/// * the class families are disjoint (`cfg-g`/`item-g`/`out-g` appear in
///   exactly one rule), so the rule partition yields `groups`
///   class-connected components — ideal fodder for match sharding.
///
/// Total commits = `groups * pairs`, deterministically.
pub fn match_heavy(groups: usize, pairs: usize) -> (RuleSet, WorkingMemory) {
    let mut src = String::new();
    for g in 0..groups {
        src.push_str(&format!(
            "(p fan-{g} (cfg-{g} ^on true) (item-{g} ^id <i>) --> (make out-{g} ^id <i>))\n"
        ));
    }
    let rules = RuleSet::parse(&src).expect("static workload parses");
    let mut wm = WorkingMemory::new();
    for g in 0..groups {
        wm.insert(WmeData::new(format!("cfg-{g}")).with("on", true));
        for i in 0..pairs {
            wm.insert(WmeData::new(format!("item-{g}")).with("id", i as i64));
        }
    }
    (rules, wm)
}

/// A full order-fulfillment pipeline — the richest workload in the
/// suite, exercising multi-way joins, arithmetic, salience, negation and
/// value disjunctions together. `fulfillable` orders flow
/// `received → reserved → picked → packed → shipped` (4 commits each);
/// `backordered` orders ask for an item with no stock and flow
/// `received → backordered` plus one audit (2 commits each).
///
/// Total commits = `4 * fulfillable + 2 * backordered`, and the final
/// state is deterministic (stock covers all fulfillable demand).
pub fn order_fulfillment(fulfillable: usize, backordered: usize) -> (RuleSet, WorkingMemory) {
    let rules = RuleSet::parse(
        r#"
        ; Rush orders reserve first (salience), but every order reserves.
        (p reserve-rush (salience 10)
           (order ^state received ^priority << rush urgent >> ^item <i> ^qty <q>)
           (stock ^item <i> ^on-hand >= <q> ^on-hand <s>)
           -->
           (modify 1 ^state reserved)
           (modify 2 ^on-hand (- <s> <q>)))

        (p reserve
           (order ^state received ^item <i> ^qty <q>)
           (stock ^item <i> ^on-hand >= <q> ^on-hand <s>)
           -->
           (modify 1 ^state reserved)
           (modify 2 ^on-hand (- <s> <q>)))

        (p backorder
           (order ^state received ^id <id> ^item <i> ^qty <q>)
           (stock ^item <i> ^on-hand < <q>)
           -->
           (modify 1 ^state backordered))

        (p audit-backorder
           (order ^state backordered ^id <id>)
           -(audit ^order <id>)
           -->
           (make audit ^order <id>))

        (p pick
           (order ^state reserved)
           -->
           (modify 1 ^state picked))

        (p pack
           (order ^state picked ^id <id> ^qty <q>)
           -->
           (modify 1 ^state packed)
           (make package ^order <id> ^weight (* <q> 2)))

        (p ship
           (order ^state packed ^id <id>)
           (package ^order <id>)
           -->
           (modify 1 ^state shipped))
        "#,
    )
    .expect("static workload parses");
    let mut wm = WorkingMemory::new();
    let total_demand: i64 = (1..=fulfillable as i64).sum();
    wm.insert(
        WmeData::new("stock")
            .with("item", "widget")
            .with("on-hand", total_demand),
    );
    wm.insert(
        WmeData::new("stock")
            .with("item", "unobtainium")
            .with("on-hand", 0i64),
    );
    for i in 0..fulfillable {
        wm.insert(
            WmeData::new("order")
                .with("id", i as i64)
                .with("item", "widget")
                .with("qty", (i + 1) as i64)
                .with("state", "received")
                .with("priority", if i % 3 == 0 { "rush" } else { "normal" }),
        );
    }
    for i in 0..backordered {
        wm.insert(
            WmeData::new("order")
                .with("id", (1000 + i) as i64)
                .with("item", "unobtainium")
                .with("qty", 1i64)
                .with("state", "received")
                .with("priority", "normal"),
        );
    }
    (rules, wm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_core::{EngineConfig, SingleThreadEngine};

    #[test]
    fn counters_commit_count() {
        let (rules, wm) = counters(3, 4);
        let mut e = SingleThreadEngine::new(&rules, wm, EngineConfig::default());
        assert_eq!(e.run().commits, 12);
    }

    #[test]
    fn shared_resources_commit_count() {
        let (rules, wm) = shared_resources(6, 2);
        let mut e = SingleThreadEngine::new(&rules, wm, EngineConfig::default());
        assert_eq!(e.run().commits, 6);
        for tally in e.wm().class_iter("tally") {
            assert_eq!(tally.get("count"), Some(&dps_wm::Value::Int(3)));
        }
    }

    #[test]
    fn manufacturing_jobs_reach_final_stage() {
        let (rules, wm) = manufacturing(3, 4);
        let mut e = SingleThreadEngine::new(&rules, wm, EngineConfig::default());
        assert_eq!(e.run().commits, 12);
        for job in e.wm().class_iter("job") {
            assert_eq!(job.get("stage"), Some(&dps_wm::Value::Int(4)));
        }
    }

    #[test]
    fn match_heavy_commit_count() {
        let (rules, wm) = match_heavy(4, 3);
        let mut e = SingleThreadEngine::new(&rules, wm, EngineConfig::default());
        assert_eq!(e.run().commits, 12);
        for g in 0..4 {
            assert_eq!(e.wm().class_iter(&format!("out-{g}")).count(), 3);
        }
    }

    #[test]
    fn order_fulfillment_lifecycle() {
        let (rules, wm) = order_fulfillment(4, 2);
        let mut e = SingleThreadEngine::new(&rules, wm, EngineConfig::default());
        let r = e.run();
        assert_eq!(r.commits, 4 * 4 + 2 * 2);
        let shipped = e
            .wm()
            .class_iter("order")
            .filter(|w| w.get("state").and_then(|v| v.as_text()) == Some("shipped"))
            .count();
        assert_eq!(shipped, 4);
        let backordered = e
            .wm()
            .class_iter("order")
            .filter(|w| w.get("state").and_then(|v| v.as_text()) == Some("backordered"))
            .count();
        assert_eq!(backordered, 2);
        assert_eq!(e.wm().class_iter("audit").count(), 2);
        assert_eq!(e.wm().class_iter("package").count(), 4);
        // All widget stock consumed.
        let stock = e
            .wm()
            .class_iter("stock")
            .find(|w| w.get("item").and_then(|v| v.as_text()) == Some("widget"))
            .unwrap();
        assert_eq!(stock.get("on-hand"), Some(&dps_wm::Value::Int(0)));
    }

    #[test]
    fn false_conflicts_guards_and_events() {
        let (rules, wm) = false_conflicts(2, 3);
        let mut e = SingleThreadEngine::new(&rules, wm, EngineConfig::default());
        let r = e.run();
        // 2 guards (each disarms itself) + 3 produces; zone-999 alarms
        // match no guard's negated CE.
        assert_eq!(r.commits, 5);
        assert_eq!(e.wm().class_iter("alarm").count(), 3);
    }

    #[test]
    fn commute_stream_counts() {
        let (rules, wm) = commute_stream(3, 4, 2, 5);
        let mut e = SingleThreadEngine::new(&rules, wm, EngineConfig::default());
        let r = e.run();
        assert_eq!(r.commits, 3 * 4 + 2 * 5);
        assert_eq!(e.wm().class_iter("evt").count(), 10);
        for w in e.wm().class_iter("ctr").chain(e.wm().class_iter("feed")) {
            assert_eq!(w.get("n"), Some(&dps_wm::Value::Int(0)));
        }
    }

    #[test]
    fn misclassified_pair_is_bounded_and_serially_valid() {
        let (rules, wm) = misclassified_pair(2, 3);
        let mut e = SingleThreadEngine::new(&rules, wm, EngineConfig::default());
        let r = e.run();
        // dec fully drains both cells; tag's budget caps it at `steps`
        // per cell but n may hit 0 first, ending tag early.
        assert!(r.commits >= 2 * 3 && r.commits <= 2 * 3 * 2);
        for w in e.wm().class_iter("cell") {
            assert_eq!(w.get("n"), Some(&dps_wm::Value::Int(0)));
        }
    }

    #[test]
    fn false_conflict_stream_counts() {
        let (rules, wm) = false_conflict_stream(2, 3, 2, 4);
        let mut e = SingleThreadEngine::new(&rules, wm, EngineConfig::default());
        let r = e.run();
        assert_eq!(r.commits, 2 * 3 + 2 * 4);
        assert_eq!(e.wm().class_iter("alarm").count(), 8);
        for w in e.wm().class_iter("watch").chain(e.wm().class_iter("feed")) {
            assert_eq!(w.get("n"), Some(&dps_wm::Value::Int(0)));
        }
    }
}
