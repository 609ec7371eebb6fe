//! The single-execution-thread engine: the reference interpreter of §2
//! whose behaviour defines the execution semantics (§3.2).

use dps_match::{Matcher, Rete, Strategy};
use dps_rules::{instantiate_actions, RuleSet};
use dps_wm::WorkingMemory;

use crate::world::{Refraction, World};
use crate::{Firing, Trace};

/// Configuration of a single-thread run.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Conflict-resolution strategy (the **select** phase).
    pub strategy: Strategy,
    /// Cycle cap — guards against non-terminating rule systems.
    pub max_cycles: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            strategy: Strategy::Lex,
            max_cycles: 100_000,
        }
    }
}

/// Why a run stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// A production fired.
    Fired,
    /// Conflict set empty (or fully refracted) — the paper's termination
    /// condition.
    Quiescent,
    /// A `halt` action executed.
    Halted,
}

/// Result of [`SingleThreadEngine::run`].
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Number of productions committed.
    pub commits: usize,
    /// Terminal outcome (`Quiescent`, `Halted`, or `Fired` when the cycle
    /// cap stopped the run mid-stream).
    pub outcome: StepOutcome,
    /// The commit sequence.
    pub trace: Trace,
}

/// The match–select–execute interpreter (OPS5-style), running one
/// production at a time on one thread.
///
/// Refraction: a fired instantiation never fires again while the tuples
/// it matched persist unchanged, even if a negated CE blocks it and lets
/// it back into the conflict set (standard OPS5 behaviour; without it
/// any rule whose RHS leaves its own match intact would loop forever).
#[derive(Clone, Debug)]
pub struct SingleThreadEngine<M: Matcher = Rete> {
    rules: RuleSet,
    world: World<M>,
    config: EngineConfig,
    refracted: Refraction,
    trace: Trace,
    halted: bool,
}

impl SingleThreadEngine<Rete> {
    /// Creates an engine with the reference Rete matcher.
    pub fn new(rules: &RuleSet, wm: WorkingMemory, config: EngineConfig) -> Self {
        let matcher = Rete::new(rules, &wm);
        SingleThreadEngine::with_matcher(rules, wm, matcher, config)
    }
}

impl<M: Matcher> SingleThreadEngine<M> {
    /// Creates an engine with a caller-supplied matcher already loaded
    /// with `wm`.
    pub fn with_matcher(
        rules: &RuleSet,
        wm: WorkingMemory,
        matcher: M,
        config: EngineConfig,
    ) -> Self {
        SingleThreadEngine {
            rules: rules.clone(),
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

    /// The matcher (for conflict-set inspection).
    pub fn matcher(&self) -> &M {
        &self.world.matcher
    }

    /// The commit sequence so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Executes one production-system cycle.
    pub fn step(&mut self) -> StepOutcome {
        if self.halted {
            return StepOutcome::Halted;
        }
        // select, then materialise the pick
        let Some(key) = self
            .config
            .strategy
            .select(self.world.matcher.conflict_set(), self.refracted.keys())
        else {
            return StepOutcome::Quiescent;
        };
        let key = key.clone();
        let inst = self.world.matcher.instantiate(&key).expect("selected key is listed");
        let rule = self
            .rules
            .get(inst.rule)
            .expect("matcher only emits known rules");
        // execute — the commit skeleton is the one shared by all engines.
        let (delta, halt) = instantiate_actions(rule, &inst.bindings, &inst.wmes)
            .expect("validated rule instantiates");
        self.world.commit(
            &mut self.refracted,
            &mut self.trace,
            Firing {
                rule: inst.rule,
                rule_name: rule.name.clone(),
                key,
                delta,
                halt,
                external: false,
            },
        );
        if halt {
            self.halted = true;
            return StepOutcome::Halted;
        }
        StepOutcome::Fired
    }

    /// Runs until quiescence, `halt`, or the cycle cap.
    pub fn run(&mut self) -> RunReport {
        let mut outcome = StepOutcome::Fired;
        for _ in 0..self.config.max_cycles {
            outcome = self.step();
            if outcome != StepOutcome::Fired {
                break;
            }
        }
        RunReport {
            commits: self.trace.len(),
            outcome,
            trace: self.trace.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::validate_trace;
    use dps_wm::{Value, WmeData};

    fn counter_system(n: i64) -> (RuleSet, WorkingMemory) {
        let rules =
            RuleSet::parse("(p count-down (counter ^n { > 0 <n> }) --> (modify 1 ^n (- <n> 1)))")
                .unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("counter").with("n", n));
        (rules, wm)
    }

    #[test]
    fn counts_down_to_zero_and_quiesces() {
        let (rules, wm) = counter_system(5);
        let mut e = SingleThreadEngine::new(&rules, wm, EngineConfig::default());
        let r = e.run();
        assert_eq!(r.commits, 5);
        assert_eq!(r.outcome, StepOutcome::Quiescent);
        let c = e.wm().class_iter("counter").next().unwrap();
        assert_eq!(c.get("n"), Some(&Value::Int(0)));
    }

    #[test]
    fn trace_is_semantically_valid() {
        let (rules, wm) = counter_system(4);
        let initial = wm.clone();
        let mut e = SingleThreadEngine::new(&rules, wm, EngineConfig::default());
        let r = e.run();
        assert!(validate_trace(&rules, &initial, &r.trace).is_ok());
    }

    #[test]
    fn halt_stops_immediately() {
        let rules = RuleSet::parse(
            "(p stop (salience 10) (go) --> (halt))
             (p loop-forever (go ^n <n>) --> (modify 1 ^n (+ <n> 1)))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("go").with("n", 0i64));
        let mut e = SingleThreadEngine::new(
            &rules,
            wm,
            EngineConfig {
                strategy: Strategy::Salience,
                max_cycles: 100,
            },
        );
        let r = e.run();
        assert_eq!(r.commits, 1);
        assert_eq!(r.outcome, StepOutcome::Halted);
        assert!(r.trace.firings[0].halt);
        // Further steps stay halted.
        assert_eq!(e.step(), StepOutcome::Halted);
    }

    #[test]
    fn refraction_prevents_refiring_make_only_rules() {
        // Without refraction this rule would fire forever on the same
        // match (its RHS never touches the matched WME).
        let rules = RuleSet::parse("(p log-once (go) --> (make log))").unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("go"));
        let mut e = SingleThreadEngine::new(&rules, wm, EngineConfig::default());
        let r = e.run();
        assert_eq!(r.commits, 1);
        assert_eq!(r.outcome, StepOutcome::Quiescent);
        assert_eq!(e.wm().class_iter("log").count(), 1);
    }

    #[test]
    fn cycle_cap_stops_livelock() {
        let rules = RuleSet::parse("(p spin (go ^n <n>) --> (modify 1 ^n (+ <n> 1)))").unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("go").with("n", 0i64));
        let mut e = SingleThreadEngine::new(
            &rules,
            wm,
            EngineConfig {
                strategy: Strategy::Lex,
                max_cycles: 7,
            },
        );
        let r = e.run();
        assert_eq!(r.commits, 7);
        assert_eq!(r.outcome, StepOutcome::Fired);
    }

    #[test]
    fn strategies_explore_different_sequences() {
        let rules = RuleSet::parse(
            "(p a (x) --> (remove 1))
             (p b (y) --> (remove 1))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("x"));
        wm.insert(WmeData::new("y"));
        let run = |strategy: Strategy| {
            let mut e = SingleThreadEngine::new(
                &rules,
                wm.clone(),
                EngineConfig {
                    strategy,
                    max_cycles: 10,
                },
            );
            e.run().trace.names().join(" ")
        };
        assert_eq!(run(Strategy::Fifo), "a b");
        assert_eq!(run(Strategy::Lex), "b a", "y is more recent");
        // Every strategy's trace has both rules.
        for s in [Strategy::Mea, Strategy::Salience, Strategy::Random(3)] {
            let t = run(s);
            assert!(t.contains('a') && t.contains('b'));
        }
    }

    #[test]
    fn step_on_quiescent_engine_is_stable() {
        let (rules, wm) = counter_system(0);
        let mut e = SingleThreadEngine::new(&rules, wm, EngineConfig::default());
        assert_eq!(e.step(), StepOutcome::Quiescent);
        assert_eq!(e.step(), StepOutcome::Quiescent);
        assert!(e.trace().is_empty());
    }
}
