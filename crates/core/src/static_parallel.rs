//! The static approach (§4.1 / Theorem 1): fire a set of mutually
//! non-interfering productions per cycle.
//!
//! Two selection modes expose the paper's discussion directly:
//!
//! * [`SelectionMode::StaticRules`] — interference judged from the rules'
//!   static read/write sets, the rule set's analysis
//!   ([`dps_rules::RuleSet::access`]), as a pre-execution partitioner
//!   would — but no partition is precomputed: each cycle's greedy batch
//!   asks [`dps_rules::analysis::interferes`] of its members. Conservative:
//!   "the analyzer must behave in a conservative manner, sacrificing
//!   parallelism".
//! * [`SelectionMode::DynamicFootprints`] — interference judged from the
//!   *run-time* footprints of the candidate instantiations (matched WMEs
//!   and computed deltas), the information the paper notes static
//!   analysis cannot have. Strictly more parallelism, still
//!   serializability-safe (Theorem 1's argument applies unchanged: the
//!   batch's effects equal those of firing it in any serial order).
//!
//! A cycle walks the conflict set in key order and builds the batch
//! greedily. A candidate is tested before it is evaluated — under
//! `StaticRules` by its rule, under `DynamicFootprints` by the reads its
//! key and rule's analysis already name (its matched tuples, its negated
//! classes)
//! against the batch's writes — then evaluated, and under
//! `DynamicFootprints` tested once more, whole, against the union of the
//! members' footprints ([`Footprint::conflicts`] is a disjunction of set
//! intersections, so the union answers as every member would). Each
//! listed key is evaluated once: a key pins each matched tuple's id and
//! timestamp, so its RHS result cannot change while it stays listed, and
//! the engine keeps the result until the key leaves the conflict set.
//!
//! Each batch member commits through the one single-thread step
//! ([`crate::world`]) in the batch's witnessing serial order. A candidate
//! whose RHS fails to evaluate is refracted there without committing,
//! and a member that halts ends the batch and the run.

use std::collections::HashMap;

use dps_match::{InstKey, Instantiation, Matcher, Rete};
use dps_rules::analysis::{interferes, Granularity};
use dps_rules::RuleSet;
use dps_wm::{Atom, DeltaSet, WorkingMemory};

use crate::world::World;
use crate::{Firing, Footprint, Trace};

/// An evaluated instantiation: the match, its delta, whether it halts,
/// and its footprint.
type Evaluated = (Instantiation, DeltaSet, bool, Footprint);

/// How batch members are checked for mutual non-interference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectionMode {
    /// Rule-level static read/write sets at the given granularity.
    StaticRules(Granularity),
    /// Instantiation-level run-time footprints.
    DynamicFootprints,
}

/// Configuration of a static-parallel run.
#[derive(Clone, Debug)]
pub struct StaticConfig {
    /// Interference-checking mode.
    pub mode: SelectionMode,
    /// Maximum batch width (the number of processors, `N_p`).
    pub max_width: usize,
    /// Cycle cap.
    pub max_cycles: usize,
    /// Per-rule execution cost in abstract time units (default 1) —
    /// used for the analytic parallel-time accounting.
    pub rule_cost: HashMap<Atom, u64>,
}

impl Default for StaticConfig {
    fn default() -> Self {
        StaticConfig {
            mode: SelectionMode::DynamicFootprints,
            max_width: usize::MAX,
            max_cycles: 100_000,
            rule_cost: HashMap::new(),
        }
    }
}

/// Result of a static-parallel run.
#[derive(Clone, Debug)]
pub struct StaticReport {
    /// Cycles executed.
    pub cycles: usize,
    /// Total productions committed.
    pub commits: usize,
    /// Batch width per cycle.
    pub batch_sizes: Vec<usize>,
    /// Analytic serial time: Σ cost over all commits.
    pub serial_time: u64,
    /// Analytic parallel time: Σ over cycles of the batch's max cost.
    pub parallel_time: u64,
    /// The commit sequence (batch members recorded in application order,
    /// which is a witnessing serial order).
    pub trace: Trace,
    /// `true` if the run ended by `halt`.
    pub halted: bool,
}

impl StaticReport {
    /// Analytic speed-up (serial / parallel time).
    pub fn speedup(&self) -> f64 {
        if self.parallel_time == 0 {
            1.0
        } else {
            self.serial_time as f64 / self.parallel_time as f64
        }
    }
}

/// The static-approach engine. See the module docs.
pub struct StaticParallelEngine {
    rules: RuleSet,
    world: World,
    config: StaticConfig,
    trace: Trace,
    /// Σ cost of the commits in `trace`, summed as they are appended.
    serial_time: u64,
    /// The listed keys evaluated so far; see the module docs.
    evaluated: HashMap<InstKey, Evaluated>,
}

impl StaticParallelEngine {
    /// Creates the engine.
    pub fn new(rules: &RuleSet, wm: WorkingMemory, config: StaticConfig) -> Self {
        let matcher = Rete::new(rules, &wm);
        StaticParallelEngine {
            rules: rules.clone(),
            world: World::new(wm, matcher),
            config,
            trace: Trace::default(),
            serial_time: 0,
            evaluated: HashMap::new(),
        }
    }

    /// The current working memory.
    pub fn wm(&self) -> &WorkingMemory {
        &self.world.wm
    }

    fn cost(&self, name: &Atom) -> u64 {
        self.config.rule_cost.get(name).copied().unwrap_or(1)
    }

    /// Selects one batch of mutually non-interfering instantiations and
    /// fires it. Returns the batch size (0 = quiescent) and the batch's
    /// cost, the most any member costs.
    fn cycle(&mut self) -> (usize, u64) {
        let listed = self.world.matcher.conflict_set();
        self.evaluated.retain(|key, _| listed.contains(key));
        let keys: Vec<InstKey> = listed.keys().cloned().collect();
        // Greedy maximal independent set; `union` is the members'
        // footprints, accumulated.
        let (mut batch, mut union) = (Vec::<InstKey>::new(), Footprint::default());
        let dynamic = self.config.mode == SelectionMode::DynamicFootprints;
        let access = |k: &InstKey| self.rules.access(k.rule);
        for key in keys {
            if batch.len() >= self.config.max_width {
                break;
            }
            let free = match self.config.mode {
                SelectionMode::DynamicFootprints => {
                    !key.wmes.iter().any(|(id, _)| union.write_tuples.contains(id))
                        && union.write_classes.is_disjoint(&access(&key).negated_classes)
                }
                SelectionMode::StaticRules(g) => {
                    batch.iter().all(|b| !interferes(access(&key), access(b), g))
                }
            };
            if !free {
                continue;
            }
            if !self.evaluated.contains_key(&key) {
                let Some((_, inst, delta, halt)) = self.world.evaluate(&self.rules, &key) else {
                    continue;
                };
                let fp = Footprint::of(access(&key), &inst, &delta);
                self.evaluated.insert(key.clone(), (inst, delta, halt, fp));
            }
            let fp = &self.evaluated[&key].3;
            if dynamic && fp.conflicts(&union) {
                continue;
            }
            union.absorb(fp);
            batch.push(key);
        }

        // "Parallel" firing: the members are non-interfering, so applying
        // them in batch order is equivalent to every other order
        // (Theorem 1); the recorded order is the witnessing serial one.
        let (width, mut cost) = (batch.len(), 0);
        for key in batch {
            let (inst, delta, halt, _) = self.evaluated.remove(&key).expect("members are evaluated");
            self.world.step(&key, &delta, halt).expect("a batch member steps");
            let rule_name = self.rules.get(inst.rule).expect("known").name.clone();
            let rule_cost = self.cost(&rule_name);
            cost = cost.max(rule_cost);
            self.serial_time += rule_cost;
            self.trace.push(Firing { rule: inst.rule, rule_name, key, delta, halt });
            if halt {
                break;
            }
        }
        (width, cost)
    }

    /// Runs to quiescence (or `halt` / cycle cap), and reports, handing
    /// the commit sequence over to the report.
    pub fn run(&mut self) -> StaticReport {
        let mut batch_sizes = Vec::new();
        let mut parallel_time = 0;
        for _ in 0..self.config.max_cycles {
            let (n, cost) = self.cycle();
            if n == 0 {
                break;
            }
            batch_sizes.push(n);
            parallel_time += cost;
            if self.world.halted() {
                break;
            }
        }
        let trace = std::mem::take(&mut self.trace);
        StaticReport {
            cycles: batch_sizes.len(),
            commits: trace.len(),
            batch_sizes,
            serial_time: std::mem::take(&mut self.serial_time),
            parallel_time,
            trace,
            halted: self.world.halted(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::validate_trace;
    use dps_wm::WmeData;

    /// N independent counters: fully parallelisable.
    fn independent(n: i64) -> (RuleSet, WorkingMemory) {
        let rules =
            RuleSet::parse("(p bump (cell ^n { > 0 <n> }) --> (modify 1 ^n (- <n> 1)))").unwrap();
        let mut wm = WorkingMemory::new();
        for _ in 0..n {
            wm.insert(WmeData::new("cell").with("n", 1i64));
        }
        (rules, wm)
    }

    #[test]
    fn independent_instantiations_fire_in_one_cycle() {
        let (rules, wm) = independent(8);
        let initial = wm.clone();
        let mut e = StaticParallelEngine::new(&rules, wm, StaticConfig::default());
        let r = e.run();
        assert_eq!(r.commits, 8);
        assert_eq!(r.cycles, 1, "all 8 are pairwise non-interfering");
        assert_eq!(r.batch_sizes, vec![8]);
        assert!(validate_trace(&rules, &initial, &r.trace).is_ok());
    }

    #[test]
    fn static_rule_mode_is_conservative() {
        // Same rule fires on disjoint cells; rule-level analysis sees the
        // rule self-interfering (writes cell.n, reads cell.n) and
        // serialises — the paper's 'false interference'.
        let (rules, wm) = independent(4);
        let mut e = StaticParallelEngine::new(
            &rules,
            wm,
            StaticConfig {
                mode: SelectionMode::StaticRules(Granularity::ClassAttribute),
                ..Default::default()
            },
        );
        let r = e.run();
        assert_eq!(r.commits, 4);
        assert_eq!(r.cycles, 4, "one at a time under static analysis");
        assert!(r.speedup() <= 1.0 + f64::EPSILON);
    }

    #[test]
    fn dynamic_footprints_beat_static_on_speedup() {
        let (rules, wm) = independent(6);
        let run = |mode| {
            let mut e = StaticParallelEngine::new(
                &rules,
                wm.clone(),
                StaticConfig {
                    mode,
                    ..Default::default()
                },
            );
            e.run().speedup()
        };
        let dynamic = run(SelectionMode::DynamicFootprints);
        let static_ = run(SelectionMode::StaticRules(Granularity::Class));
        assert!(dynamic > static_, "dynamic {dynamic} vs static {static_}");
    }

    #[test]
    fn max_width_caps_batches() {
        let (rules, wm) = independent(9);
        let mut e = StaticParallelEngine::new(
            &rules,
            wm,
            StaticConfig {
                max_width: 3,
                ..Default::default()
            },
        );
        let r = e.run();
        assert_eq!(r.commits, 9);
        assert_eq!(r.cycles, 3);
        assert!(r.batch_sizes.iter().all(|&b| b <= 3));
    }

    #[test]
    fn conflicting_instantiations_are_split_across_cycles() {
        // Two rules both modify the same WME: they must serialise.
        let rules = RuleSet::parse(
            "(p inc (cell ^n <n>) (go) --> (modify 1 ^n (+ <n> 1)) (remove 2))
             (p dec (cell ^n <n>) (og) --> (modify 1 ^n (- <n> 1)) (remove 2))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("cell").with("n", 0i64));
        wm.insert(WmeData::new("go"));
        wm.insert(WmeData::new("og"));
        let initial = wm.clone();
        let mut e = StaticParallelEngine::new(&rules, wm, StaticConfig::default());
        let r = e.run();
        assert_eq!(r.commits, 2);
        assert_eq!(r.cycles, 2, "write-write on the cell forbids batching");
        assert!(validate_trace(&rules, &initial, &r.trace).is_ok());
        let cell = e.wm().class_iter("cell").next().unwrap();
        assert_eq!(cell.get("n"), Some(&dps_wm::Value::Int(0)), "+1 then -1");
    }

    #[test]
    fn negated_reader_is_not_batched_with_maker() {
        let rules = RuleSet::parse(
            "(p quiet (go) -(alarm) --> (remove 1))
             (p raise (trigger) --> (make alarm) (remove 1))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("go"));
        wm.insert(WmeData::new("trigger"));
        let initial = wm.clone();
        let mut e = StaticParallelEngine::new(&rules, wm, StaticConfig::default());
        let r = e.run();
        // Whatever fires first, the trace must replay single-threadedly.
        assert!(validate_trace(&rules, &initial, &r.trace).is_ok());
        assert!(
            r.batch_sizes.iter().all(|&b| b == 1),
            "make(alarm) conflicts with -(alarm)"
        );
    }

    #[test]
    fn cost_model_feeds_speedup() {
        let (rules, wm) = independent(4);
        let mut cost = HashMap::new();
        cost.insert(Atom::from("bump"), 5);
        let mut e = StaticParallelEngine::new(
            &rules,
            wm,
            StaticConfig {
                rule_cost: cost,
                ..Default::default()
            },
        );
        let r = e.run();
        assert_eq!(r.serial_time, 20);
        assert_eq!(r.parallel_time, 5);
        assert!((r.speedup() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn halt_inside_batch_stops_run() {
        let rules = RuleSet::parse(
            "(p a (x) --> (remove 1) (halt))
             (p b (y) --> (remove 1))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("x"));
        wm.insert(WmeData::new("y"));
        let mut e = StaticParallelEngine::new(&rules, wm, StaticConfig::default());
        let r = e.run();
        assert!(r.halted);
    }
}
