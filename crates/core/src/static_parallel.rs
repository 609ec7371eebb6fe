//! The static approach (§4.1 / Theorem 1): fire a set of mutually
//! non-interfering productions per cycle.
//!
//! Two selection modes expose the paper's discussion directly:
//!
//! * [`SelectionMode::StaticRules`] — interference judged from the rules'
//!   static read/write sets (`dps_rules::analysis`), as a pre-execution
//!   partitioner would. Conservative: "the analyzer must behave in a
//!   conservative manner, sacrificing parallelism".
//! * [`SelectionMode::DynamicFootprints`] — interference judged from the
//!   *run-time* footprints of the candidate instantiations (matched WMEs
//!   and computed deltas), the information the paper notes static
//!   analysis cannot have. Strictly more parallelism, still
//!   serializability-safe (Theorem 1's argument applies unchanged: the
//!   batch's effects equal those of firing it in any serial order).

use std::collections::HashMap;

use dps_match::{Instantiation, Matcher, Rete};
use dps_rules::analysis::{interferes, rule_access, Granularity, RuleAccess};
use dps_rules::{instantiate_actions, RuleSet};
use dps_wm::{Atom, DeltaSet, WorkingMemory};

use crate::world::{Refraction, World};
use crate::{Firing, Footprint, Trace};

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
    accesses: Vec<RuleAccess>,
    world: World,
    config: StaticConfig,
    refracted: Refraction,
    trace: Trace,
    halted: bool,
}

impl StaticParallelEngine {
    /// Creates the engine.
    pub fn new(rules: &RuleSet, wm: WorkingMemory, config: StaticConfig) -> Self {
        let matcher = Rete::new(rules, &wm);
        let accesses = rules.rules().iter().map(rule_access).collect();
        StaticParallelEngine {
            rules: rules.clone(),
            accesses,
            world: World { wm, matcher },
            config,
            refracted: Refraction::default(),
            trace: Trace::default(),
            halted: false,
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
    /// fires it. Returns the batch size (0 = quiescent).
    fn cycle(&mut self) -> usize {
        // Candidate instantiations, deterministic order.
        let candidates: Vec<Instantiation> = self
            .world
            .matcher
            .conflict_set()
            .iter_keyed()
            .filter(|(k, _)| !self.refracted.contains(k))
            .map(|(_, i)| i.clone())
            .collect();
        if candidates.is_empty() {
            return 0;
        }

        // Pre-compute deltas (needed for footprints and for execution).
        let mut prepared: Vec<(Instantiation, DeltaSet, bool, Footprint)> = Vec::new();
        for inst in candidates {
            let rule = self.rules.get(inst.rule).expect("known rule");
            let Ok((delta, halt)) = instantiate_actions(rule, &inst.bindings, &inst.wmes) else {
                continue; // runtime eval error (e.g. div by zero): skip
            };
            let fp = Footprint::of(rule, &inst, &delta);
            prepared.push((inst, delta, halt, fp));
        }

        // Greedy maximal independent set.
        let mut batch: Vec<usize> = Vec::new();
        for i in 0..prepared.len() {
            if batch.len() >= self.config.max_width {
                break;
            }
            let ok = batch.iter().all(|&j| {
                let (a, b) = (&prepared[i], &prepared[j]);
                match self.config.mode {
                    SelectionMode::DynamicFootprints => !a.3.conflicts(&b.3),
                    SelectionMode::StaticRules(g) => {
                        let (ra, rb) = (
                            &self.accesses[a.0.rule.0 as usize],
                            &self.accesses[b.0.rule.0 as usize],
                        );
                        !interferes(ra, rb, g)
                    }
                }
            });
            if ok {
                batch.push(i);
            }
        }

        // "Parallel" firing: the members are non-interfering, so applying
        // them in batch order is equivalent to every other order
        // (Theorem 1); the recorded order is the witnessing serial one.
        let mut max_cost = 0;
        for &i in &batch {
            let (inst, delta, halt, _) = &prepared[i];
            let rule_name = self.rules.get(inst.rule).expect("known").name.clone();
            max_cost = max_cost.max(self.cost(&rule_name));
            self.world.commit(
                &mut self.refracted,
                &mut self.trace,
                Firing {
                    rule: inst.rule,
                    rule_name,
                    key: inst.key(),
                    delta: delta.clone(),
                    halt: *halt,
                    external: false,
                },
            );
            if *halt {
                self.halted = true;
                break;
            }
        }
        batch.len()
    }

    /// Runs to quiescence (or `halt` / cycle cap) and reports.
    pub fn run(&mut self) -> StaticReport {
        let mut batch_sizes = Vec::new();
        let mut parallel_time = 0;
        for _ in 0..self.config.max_cycles {
            let before = self.trace.len();
            let n = self.cycle();
            if n == 0 {
                break;
            }
            batch_sizes.push(n);
            let batch_max = self.trace.firings[before..]
                .iter()
                .map(|f| self.cost(&f.rule_name))
                .max()
                .unwrap_or(0);
            parallel_time += batch_max;
            if self.halted {
                break;
            }
        }
        let serial_time = self
            .trace
            .firings
            .iter()
            .map(|f| self.cost(&f.rule_name))
            .sum();
        StaticReport {
            cycles: batch_sizes.len(),
            commits: self.trace.len(),
            batch_sizes,
            serial_time,
            parallel_time,
            trace: self.trace.clone(),
            halted: self.halted,
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
