//! Execution semantics: the execution graph, `ES_single` enumeration, and
//! the semantic-consistency check of Definitions 3.1–3.2.
//!
//! * For **abstract** systems (§3.3) the system state *is* the conflict
//!   set, so [`ExecutionGraph`] is exact: its root-originating paths are
//!   precisely `ES_single` (Figure 3.2).
//! * For **concrete** rule systems, checking `ES_M ⊆ ES_single` for a
//!   recorded parallel commit sequence does not require materialising the
//!   (unbounded) graph: once the version order is the commit order, one
//!   replay decides it. [`validate_trace`] is a fold of the single-thread
//!   engine's own step (`World::step`) over the trace — at every
//!   commit the instantiation must be in the replayed conflict set, not
//!   refracted, and not after a rule firing that halted, which is exactly
//!   membership of the corresponding root-originating path. The fold
//!   holds one world and one decoded firing (it streams over the
//!   trace's commit log), so its memory is O(WM): the matcher's
//!   conflict set drops refracted keys whose tuples are gone.
//!   [`enumerate_concrete`] branches on the same step, after the same
//!   evaluation (`World::evaluate`).

use std::collections::{BTreeMap, HashMap};

use dps_match::{Matcher, Rete};
use dps_rules::RuleSet;
use dps_wm::WorkingMemory;

use crate::abstract_model::{fmt_seq, AbstractSystem, ConflictState, PId};
use crate::world::World;
use crate::{Firing, Trace};

/// The single-thread execution graph of an abstract system (Figure 3.1 /
/// 3.2): nodes are reachable conflict-set states, edges are firings.
///
/// States are interned; since the abstract transition is a pure function
/// of the conflict set, convergent paths share nodes and the graph is
/// finite whenever the reachable state space is (a cap guards against
/// livelock-capable systems whose add sets regenerate productions).
#[derive(Clone, Debug)]
pub struct ExecutionGraph {
    states: Vec<ConflictState>,
    index: HashMap<ConflictState, usize>,
    /// Outgoing edges: `edges[s]` maps fired production → successor state.
    edges: Vec<BTreeMap<PId, usize>>,
    root: usize,
    truncated: bool,
}

impl ExecutionGraph {
    /// Builds the graph by exhaustive expansion from the initial state,
    /// visiting at most `max_states` distinct states.
    pub fn build(sys: &AbstractSystem, max_states: usize) -> Self {
        let mut g = ExecutionGraph {
            states: Vec::new(),
            index: HashMap::new(),
            edges: Vec::new(),
            root: 0,
            truncated: false,
        };
        g.root = g.intern(sys.initial.clone());
        let mut frontier = vec![g.root];
        while let Some(s) = frontier.pop() {
            let state = g.states[s].clone();
            for &p in state.iter() {
                let next = sys.fire(&state, p).expect("p is active");
                if let Some(&existing) = g.index.get(&next) {
                    g.edges[s].insert(p, existing);
                } else if g.states.len() < max_states {
                    let id = g.intern(next);
                    g.edges[s].insert(p, id);
                    frontier.push(id);
                } else {
                    g.truncated = true;
                }
            }
        }
        g
    }

    fn intern(&mut self, state: ConflictState) -> usize {
        if let Some(&id) = self.index.get(&state) {
            return id;
        }
        let id = self.states.len();
        self.index.insert(state.clone(), id);
        self.states.push(state);
        self.edges.push(BTreeMap::new());
        id
    }

    /// `true` when the state cap stopped the expansion (results are then
    /// conservative: `admits` may reject valid deep sequences).
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Number of distinct reachable states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The semantic-consistency membership test of Definition 3.2: is
    /// `seq` a root-originating path (or prefix of one)?
    ///
    /// Since every edge out of a node corresponds to an *active*
    /// production, any sequence of legal firings is automatically a
    /// prefix of some maximal path, so checking edge-by-edge suffices.
    pub fn admits(&self, seq: &[PId]) -> bool {
        let mut s = self.root;
        for &p in seq {
            match self.edges[s].get(&p) {
                Some(&next) => s = next,
                None => return false,
            }
        }
        true
    }

    /// Enumerates `ES_single`'s **maximal** sequences (paths ending in a
    /// state with an empty conflict set or no outgoing edges), up to
    /// `cap` sequences and `max_len` length. Returns the sequences in
    /// lexicographic firing order.
    pub fn maximal_sequences(&self, cap: usize, max_len: usize) -> Vec<Vec<PId>> {
        let mut out = Vec::new();
        let mut path = Vec::new();
        self.dfs(self.root, &mut path, &mut out, cap, max_len);
        out
    }

    fn dfs(
        &self,
        s: usize,
        path: &mut Vec<PId>,
        out: &mut Vec<Vec<PId>>,
        cap: usize,
        max_len: usize,
    ) {
        if out.len() >= cap {
            return;
        }
        if self.edges[s].is_empty() {
            out.push(path.clone());
            return;
        }
        if path.len() >= max_len {
            out.push(path.clone()); // truncated path counts as maximal-so-far
            return;
        }
        for (&p, &next) in &self.edges[s] {
            path.push(p);
            self.dfs(next, path, out, cap, max_len);
            path.pop();
        }
    }

    /// Pretty-prints the graph as `state --p--> state` lines (Figure 3.2
    /// in text form).
    pub fn render(&self) -> String {
        use crate::abstract_model::fmt_state;
        let mut lines = Vec::new();
        for (s, edges) in self.edges.iter().enumerate() {
            for (p, next) in edges {
                lines.push(format!(
                    "{} --{}--> {}",
                    fmt_state(&self.states[s]),
                    p,
                    fmt_state(&self.states[*next])
                ));
            }
        }
        lines.join("\n")
    }
}

/// A violation of the semantic-consistency condition found by
/// [`validate_trace`].
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Index of the offending commit within the trace.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "semantic violation at commit #{}: {}",
            self.at, self.message
        )
    }
}

/// Checks Definition 3.2 for a concrete engine run: replays `trace` from
/// `initial` as a single-thread execution and verifies that every
/// committed instantiation was selectable at its commit point — present
/// in the replayed conflict set, not refracted (it has not fired
/// before, by the single-thread engine's own refraction rule), and not
/// after a rule firing that halted — and that its recorded effects
/// apply cleanly. External session commits replay their delta as-is.
///
/// This is precisely "the commit sequence ... is identical to some
/// single-thread execution of the same sequence" from the paper's
/// Theorem 2 induction step, checked mechanically.
pub fn validate_trace(
    rules: &RuleSet,
    initial: &WorkingMemory,
    trace: &Trace,
) -> Result<(), Violation> {
    let mut world = World::new(initial.clone(), Rete::new(rules, initial));
    trace.iter().enumerate().try_for_each(|(at, f)| replay(&mut world, at, &f))
}

/// One commit of [`validate_trace`]'s fold: commit `at` of the trace,
/// `firing`, through the single-thread step.
fn replay(world: &mut World, at: usize, firing: &Firing) -> Result<(), Violation> {
    let stepped = if firing.is_external() {
        world.apply(&firing.delta).map_err(|e| format!("external delta no longer applies: {e}"))
    } else {
        world.step(&firing.key, &firing.delta, firing.halt).map_err(|why| {
            format!("instantiation {:?} of rule {} {why}", firing.key, firing.rule_name)
        })
    };
    stepped.map_err(|message| Violation { at, message })
}

/// Exhaustively enumerates the single-thread execution sequences of a
/// *concrete* rule system, up to `max_depth` firings and `max_paths`
/// sequences — Definition 3.1 for real working memories.
///
/// Each world (working memory + matcher, whose conflict set refracts)
/// is cloned at every branch, so this is exponential and meant for small
/// systems (tests, examples, and exhaustive verification of toy
/// workloads). Every branch is one single-thread step: an instantiation
/// that fired never fires again, one whose RHS fails to evaluate is
/// refracted, and a `halt` ends the branch. Returned sequences are the
/// *maximal* ones (quiescent, halted or depth-capped), each as the list
/// of fired rule names.
pub fn enumerate_concrete(
    rules: &RuleSet,
    initial: &WorkingMemory,
    max_depth: usize,
    max_paths: usize,
) -> Vec<Vec<String>> {
    fn go(
        rules: &RuleSet,
        mut world: World,
        path: &mut Vec<String>,
        out: &mut Vec<Vec<String>>,
        depth_left: usize,
        max_paths: usize,
    ) {
        if out.len() >= max_paths {
            return;
        }
        let mut branches = Vec::new();
        if !world.halted() && depth_left > 0 {
            let keys: Vec<_> = world.matcher.conflict_set().keys().cloned().collect();
            for key in keys {
                if let Some((rule, _, delta, halt)) = world.evaluate(rules, &key) {
                    branches.push((key, rule.name.to_string(), delta, halt));
                }
            }
        }
        if branches.is_empty() {
            out.push(path.clone());
            return;
        }
        for (key, name, delta, halt) in branches {
            let mut next = world.clone();
            next.step(&key, &delta, halt).expect("a listed key steps");
            path.push(name);
            go(rules, next, path, out, depth_left - 1, max_paths);
            path.pop();
        }
    }

    let world = World::new(initial.clone(), Rete::new(rules, initial));
    let mut out = Vec::new();
    go(rules, world, &mut Vec::new(), &mut out, max_depth, max_paths);
    out
}

/// Validates an abstract commit sequence against an abstract system
/// (used by the §5 simulator's consistency self-checks).
pub fn validate_abstract_sequence(sys: &AbstractSystem, seq: &[PId]) -> Result<(), Violation> {
    let mut state = sys.initial.clone();
    for (i, &p) in seq.iter().enumerate() {
        match sys.fire(&state, p) {
            Some(next) => state = next,
            None => {
                return Err(Violation {
                    at: i,
                    message: format!(
                        "{p} fired while not in conflict set (sequence {})",
                        fmt_seq(seq)
                    ),
                })
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_model::{paper33_example, AbstractProduction};

    #[test]
    fn paper33_has_exactly_nine_maximal_sequences() {
        let sys = paper33_example();
        let g = ExecutionGraph::build(&sys, 10_000);
        assert!(!g.truncated());
        let seqs = g.maximal_sequences(1000, 100);
        let rendered: Vec<String> = seqs.iter().map(|s| fmt_seq(s)).collect();
        assert_eq!(
            rendered,
            vec![
                "p1 p4 p5",
                "p1 p5",
                "p2 p3 p5",
                "p2 p5",
                "p3 p1 p4 p5",
                "p3 p1 p5",
                "p3 p5 p1 p4",
                "p5 p1 p4",
                "p5 p2",
            ],
            "the reconstructed §3.3 example yields nine maximal sequences"
        );
    }

    #[test]
    fn admits_accepts_paths_and_prefixes() {
        let sys = paper33_example();
        let g = ExecutionGraph::build(&sys, 10_000);
        assert!(g.admits(&[])); // the initial state itself
        assert!(g.admits(&[PId(0)]));
        assert!(g.admits(&[PId(0), PId(3), PId(4)]));
        assert!(g.admits(&[PId(2), PId(4), PId(0), PId(3)]));
    }

    #[test]
    fn admits_rejects_invalid_sequences() {
        let sys = paper33_example();
        let g = ExecutionGraph::build(&sys, 10_000);
        assert!(!g.admits(&[PId(3)]), "P4 not initially active");
        assert!(!g.admits(&[PId(0), PId(1)]), "P1 deletes P2");
        assert!(
            !g.admits(&[PId(0), PId(3), PId(4), PId(0)]),
            "nothing after a maximal path"
        );
    }

    #[test]
    fn convergent_states_are_shared() {
        let sys = paper33_example();
        let g = ExecutionGraph::build(&sys, 10_000);
        // Far fewer states than path prefixes.
        assert!(
            g.state_count() < 20,
            "state interning collapses the tree: {}",
            g.state_count()
        );
    }

    #[test]
    fn livelock_system_truncates_gracefully() {
        let sys = AbstractSystem::new(
            vec![
                AbstractProduction::new([1], [], 1),
                AbstractProduction::new([0], [], 1),
            ],
            [0],
        );
        // Reachable states: {p1},{p2},{p1,p2}... finite! Use a self-add.
        let g = ExecutionGraph::build(&sys, 10_000);
        assert!(!g.truncated());
        // p1 p2 p1 p2 ... is admitted arbitrarily deep (cyclic graph).
        assert!(g.admits(&[PId(0), PId(1), PId(0), PId(1), PId(0)]));
    }

    #[test]
    fn state_cap_marks_truncation() {
        // A chain generator: each production enables the next id via adds;
        // cap below reachable count → truncated.
        let n = 20;
        let prods: Vec<AbstractProduction> = (0..n)
            .map(|i| AbstractProduction::new(if i + 1 < n { vec![i + 1] } else { vec![] }, [], 1))
            .collect();
        let sys = AbstractSystem::new(prods, [0]);
        let g = ExecutionGraph::build(&sys, 3);
        assert!(g.truncated());
    }

    #[test]
    fn render_mentions_edges() {
        let sys = paper33_example();
        let g = ExecutionGraph::build(&sys, 10_000);
        let r = g.render();
        assert!(r.contains("--p1-->"));
        assert!(r.contains("{p4, p5}"));
    }

    #[test]
    fn enumerate_concrete_lists_all_orders() {
        use dps_wm::WmeData;
        let rules = RuleSet::parse(
            "(p a (x) --> (remove 1))
             (p b (y) --> (remove 1))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("x"));
        wm.insert(WmeData::new("y"));
        let mut seqs = enumerate_concrete(&rules, &wm, 10, 100);
        seqs.sort();
        assert_eq!(seqs, vec![vec!["a", "b"], vec!["b", "a"]]);
    }

    #[test]
    fn enumerate_concrete_respects_halt_and_depth() {
        use dps_wm::WmeData;
        let rules =
            RuleSet::parse("(p stop (go ^n <n>) --> (modify 1 ^n (+ <n> 1)) (halt))").unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("go").with("n", 0i64));
        let seqs = enumerate_concrete(&rules, &wm, 10, 100);
        assert_eq!(seqs, vec![vec!["stop"]], "halt terminates the branch");

        let spin = RuleSet::parse("(p spin (go ^n <n>) --> (modify 1 ^n (+ <n> 1)))").unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("go").with("n", 0i64));
        let seqs = enumerate_concrete(&spin, &wm, 3, 100);
        assert_eq!(seqs.len(), 1);
        assert_eq!(seqs[0].len(), 3, "depth cap bounds the livelock");
    }

    /// A make-only rule leaves its own instantiation in the conflict set;
    /// only refraction stops it from firing again.
    fn log_once() -> (RuleSet, WorkingMemory) {
        let rules = RuleSet::parse("(p log-once (go) --> (make log))").unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(dps_wm::WmeData::new("go"));
        (rules, wm)
    }

    #[test]
    fn enumerate_concrete_never_refires_an_instantiation() {
        let (rules, wm) = log_once();
        assert_eq!(
            enumerate_concrete(&rules, &wm, 5, 100),
            vec![vec!["log-once"]]
        );
    }

    #[test]
    fn validate_trace_rejects_a_refracted_repeat() {
        use crate::{EngineConfig, SingleThreadEngine};
        let (rules, wm) = log_once();
        let trace = SingleThreadEngine::new(&rules, wm.clone(), EngineConfig::default())
            .run()
            .trace;
        assert_eq!(trace.len(), 1);
        validate_trace(&rules, &wm, &trace).unwrap();
        let mut firings: Vec<Firing> = trace.iter().collect();
        firings.push(firings[0].clone());
        let doubled: Trace = firings.into_iter().collect();
        let err = validate_trace(&rules, &wm, &doubled).unwrap_err();
        assert_eq!(err.at, 1);
        assert!(err.message.contains("refraction"), "{err}");
    }

    #[test]
    fn validate_trace_rejects_a_rule_firing_after_a_halt() {
        use crate::{EngineConfig, SingleThreadEngine, EXTERNAL_RULE, EXTERNAL_RULE_NAME};
        use dps_match::{InstKey, Strategy};
        use dps_wm::{Atom, DeltaSet, WmeData};
        let rules = RuleSet::parse(
            "(p stop (salience 10) (go) --> (remove 1) (halt))
             (p work (job) --> (remove 1))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("go"));
        let job = wm.insert(WmeData::new("job"));
        let config = EngineConfig { strategy: Strategy::Salience, max_cycles: 10 };
        let mut trace = SingleThreadEngine::new(&rules, wm.clone(), config).run().trace;
        assert_eq!(trace.names(), ["stop"]);
        validate_trace(&rules, &wm, &trace).unwrap();
        // `work` was listed all along; after the halt it may not fire.
        let work = Rete::new(&rules, &wm).conflict_set().keys().find(|k| k.rule.0 == 1).cloned();
        let mut remove = DeltaSet::new();
        remove.remove(job);
        let firing = Firing {
            rule: dps_rules::RuleId(1),
            rule_name: Atom::from("work"),
            key: work.unwrap(),
            delta: remove.clone(),
            halt: false,
        };
        let late: Trace = trace.iter().chain([firing]).collect();
        let err = validate_trace(&rules, &wm, &late).unwrap_err();
        assert_eq!(err.at, 1);
        assert!(err.message.contains("halt"), "{err}");
        // A client may still change working memory there.
        trace.push(Firing {
            rule: EXTERNAL_RULE,
            rule_name: Atom::from(EXTERNAL_RULE_NAME),
            key: InstKey { rule: EXTERNAL_RULE, wmes: Default::default() },
            delta: remove,
            halt: false,
        });
        validate_trace(&rules, &wm, &trace).unwrap();
    }

    /// The oracle's memory is O(WM): a self-modifying rule leaves one
    /// dead key per firing, and the fold's conflict set drops them.
    #[test]
    fn the_replay_fold_keeps_its_refraction_set_bounded() {
        use crate::{EngineConfig, SingleThreadEngine};
        use dps_wm::WmeData;
        let rules = RuleSet::parse("(p spin (go ^n <n>) --> (modify 1 ^n (+ <n> 1)))").unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("go").with("n", 0i64));
        let config = EngineConfig { max_cycles: 20_000, ..EngineConfig::default() };
        let trace = SingleThreadEngine::new(&rules, wm.clone(), config).run().trace;
        assert_eq!(trace.len(), 20_000);
        let mut world = World::new(wm.clone(), Rete::new(&rules, &wm));
        let mut peak = 0;
        for (at, firing) in trace.iter().enumerate() {
            replay(&mut world, at, &firing).unwrap();
            peak = peak.max(world.matcher.conflict_set().refracted_len());
        }
        assert!(peak < 2048, "the refraction set peaked at {peak} keys");
    }

    #[test]
    fn enumerate_concrete_refracts_a_failed_rhs() {
        use dps_wm::WmeData;
        let rules = RuleSet::parse(
            "(p boom (cell ^n <n>) --> (modify 1 ^n (/ <n> 0)))
             (p take (job) --> (remove 1))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("cell").with("n", 1i64));
        assert_eq!(enumerate_concrete(&rules, &wm, 5, 100), [Vec::<String>::new()]);
        wm.insert(WmeData::new("job"));
        assert_eq!(enumerate_concrete(&rules, &wm, 5, 100), [["take"]]);
    }

    #[test]
    fn enumerated_sequences_agree_with_single_thread_runs() {
        use crate::{EngineConfig, SingleThreadEngine};
        use dps_match::Strategy;
        use dps_wm::WmeData;
        let rules = RuleSet::parse(
            "(p take (coin ^v <v>) (purse ^sum <s>)
               --> (remove 1) (modify 2 ^sum (+ <s> <v>)))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new();
        for v in [1i64, 2, 4] {
            wm.insert(WmeData::new("coin").with("v", v));
        }
        wm.insert(WmeData::new("purse").with("sum", 0i64));
        let all = enumerate_concrete(&rules, &wm, 10, 1000);
        assert_eq!(all.len(), 6, "3! orders of consuming the coins");
        for seed in 0..10 {
            let mut e = SingleThreadEngine::new(
                &rules,
                wm.clone(),
                EngineConfig {
                    strategy: Strategy::Random(seed + 1),
                    max_cycles: 10,
                },
            );
            let r = e.run();
            let names: Vec<String> = r.trace.names().iter().map(|s| s.to_string()).collect();
            assert!(all.contains(&names), "observed run must be enumerated");
        }
    }

    #[test]
    fn abstract_sequence_validation() {
        let sys = paper33_example();
        assert!(validate_abstract_sequence(&sys, &[PId(0), PId(3), PId(4)]).is_ok());
        let err = validate_abstract_sequence(&sys, &[PId(3)]).unwrap_err();
        assert_eq!(err.at, 0);
        assert!(err.to_string().contains("p4"));
    }
}
