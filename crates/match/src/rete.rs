//! The Rete network (Forgy 1982): incremental many-pattern/many-object
//! matching with partial-match state.
//!
//! Structure (following the classic description, with the negation
//! handling of Doorenbos' formulation):
//!
//! * The **alpha network** ([`crate::AlphaNetwork`]) evaluates class and
//!   constant tests once per WME and stores survivors in shared alpha
//!   memories.
//! * The **beta network** is a DAG of *sources* (token holders) and
//!   *joins*. A source is the top memory (holding the dummy token), a
//!   beta memory, or a negative node (holding the tokens whose negated
//!   pattern currently has **no** match). Join nodes test variable
//!   consistency between a source's tokens and an alpha memory and feed
//!   the next beta memory. A production node enters each complete
//!   token's [`InstKey`] into the conflict set (which lists nothing for
//!   a refracted key) and remembers the token;
//!   [`Matcher::instantiate`] materialises the [`Instantiation`] from
//!   that token's chain when a caller fires it.
//! * **Sharing**: alpha memories are shared by constant-test signature;
//!   join, memory and negative nodes are shared by
//!   `(parent, alpha memory, tests)`, so rules whose planned join orders
//!   (below) start alike share beta state too.
//!
//! **Connected-first join order** (Ishida, "Optimizing Rules in
//! Production System Programs", AAAI-88): a rule's beta chain does not
//! follow the written CE order. [`join_order`] plans it. Negated CEs are
//! barriers and keep their positions. Inside each run of positive CEs
//! between them, the next CE is the earliest remaining one that shares
//! an `=`-tested variable with a CE already placed, else the earliest
//! remaining one. So `(cursor ^at <i>) (kind ^kind <k>) (item ^id <i>
//! ^kind <k>)` joins as `cursor`, `item`, `kind` instead of building
//! `cursor × kind` and discarding all but one of it at `item`; a written
//! order with no avoidable cross product is its own plan. Two
//! invariants make the plan invisible to callers:
//!
//! 1. **Instantiations in written order.** The production node maps
//!    token depth back to written CE index, so `Instantiation::wmes`,
//!    its bindings and its [`InstKey`] are exactly the written-order
//!    network's — and with them the conflict set, refraction, traces,
//!    lock footprints and WAL records.
//! 2. **Test pairs unchanged.** A variable is bound by its first positive
//!    `=` occurrence in written order, and every other occurrence is
//!    tested against that binder — the operand pairs the written-order
//!    network evaluates. A test whose binder the plan places after it
//!    runs at the binder's join with the converse predicate
//!    ([`Predicate::converse`]); intra-CE tests stay in their CE. Since
//!    no pair is derived, loose numeric equality needs no transitivity.
//!
//! **Hash-indexed joins**: when a join's tests include an equality
//! against an earlier condition's attribute, both sides are indexed —
//! the alpha memory by the tested attribute's value and the join by the
//! tokens' key value — so activations probe a bucket instead of
//! scanning the whole memory (keys are normalised so the strict hash
//! lookup coincides with the matcher's numerically coercing equality).
//!
//! Removal is exact (no recomputation): every token records its parent
//! and children, a WME-to-token index locates all tokens carrying a
//! retracted WME, and negative nodes keep per-token join-result sets so a
//! retraction can *enable* previously blocked tokens.
//!
//! **Ownership** (DESIGN.md §2): the compiled [`Network`] (nodes, tests,
//! successor lists, alpha network) is split from the mutable [`Beta`]
//! state, so an activation *borrows* its tests and children while it
//! mutates memories. A WME enters as one `Arc<Wme>` that alpha memories,
//! tokens and join candidates share; tokens live in a slab (`Vec` + free
//! list) and are threaded onto their parent's child list, their owner's
//! memory list and their WME's carrier list by slot index, so a steady
//! state batch neither copies a WME nor allocates for a token. Join
//! tests reach earlier conditions by walking parent links. A complete
//! match costs one [`InstKey`] (one allocation, shared by reference count
//! with the conflict set and the production's token index); nothing is
//! deep-copied. Bindings and the matched-tuple list are built only for an
//! instantiation a caller takes to fire, from its token chain's
//! `Arc<Wme>`s, while the token is still live — the key leaves the
//! conflict set in the same step that frees the token.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use dps_rules::{Bindings, Condition, Predicate, Rule, RuleId, RuleSet, TestAtom, VarName};
use dps_wm::{Atom, Change, IdMap, IdSet, Timestamp, Value, Wme, WmeId, WorkingMemory};

use crate::alpha::{attr_of, index_key};
use crate::conflict::Site;
use crate::{AlphaMemId, AlphaNetwork, ConflictSet, InstKey, Instantiation, Matcher};

/// Index of a node in the Rete graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct NodeId(usize);

/// Slot of a token in the slab. Slots are reused; slot 0 is a reserved
/// placeholder so that `NONE` doubles as the "no link" value.
type Slot = u32;
const NONE: Slot = 0;

/// The intrusive lists a token is threaded on (`Token::links` indices).
const SIBLINGS: usize = 0;
const MEMORY: usize = 1;
const CARRIERS: usize = 2;

/// Where a join test reads its right-hand value.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum TestTarget {
    /// Another attribute of the candidate WME itself (intra-CE test).
    NewAttr(Atom),
    /// An attribute of the WME matched at an earlier condition.
    Token {
        /// Parent hops from the join's input token to that condition's
        /// token (0 = the input token itself).
        up: usize,
        /// Attribute of that WME.
        attr: Atom,
    },
}

/// One variable-consistency test evaluated at a join or negative node.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct JoinTest {
    /// Attribute of the candidate WME (left operand).
    new_attr: Atom,
    /// Predicate, applied as `predicate(new_value, target_value)`.
    predicate: Predicate,
    /// Right operand source.
    target: TestTarget,
}

/// A token: a partial match covering the conditions up to its own.
#[derive(Clone, Debug, Default)]
struct Token {
    parent: Slot,
    /// The WME matched at this token's condition (`None` for the dummy
    /// token and for negative-node output tokens).
    wme: Option<Arc<Wme>>,
    /// Node that owns (stores) this token.
    owner: NodeId,
    /// Newest child; the rest follow on the children's `SIBLINGS` links.
    first_child: Slot,
    /// `[prev, next]` on each intrusive list.
    links: [[Slot; 2]; 3],
}

/// Pushes `t` on the front of list `list`; returns the new head.
fn push_front(tokens: &mut [Token], list: usize, head: Slot, t: Slot) -> Slot {
    tokens[t as usize].links[list] = [NONE, head];
    if head != NONE {
        tokens[head as usize].links[list][0] = t;
    }
    t
}

/// Unlinks `t` from list `list`; returns the new head.
fn unlink(tokens: &mut [Token], list: usize, head: Slot, t: Slot) -> Slot {
    let [prev, next] = tokens[t as usize].links[list];
    if next != NONE {
        tokens[next as usize].links[list][0] = prev;
    }
    if prev == NONE {
        return next;
    }
    tokens[prev as usize].links[list][1] = next;
    head
}

/// The token `up` parent hops above `t` — how a join test or index key
/// reaches an earlier condition's match.
fn ancestor(tokens: &[Token], mut t: Slot, up: usize) -> &Token {
    for _ in 0..up {
        t = tokens[t as usize].parent;
    }
    &tokens[t as usize]
}

/// The WME matched at token depth `d` of the chain whose last token,
/// `last`, sits at depth `depth - 1`; `None` at a negated CE.
fn chain_wme(tokens: &[Token], last: Slot, depth: usize, d: usize) -> Option<&Arc<Wme>> {
    ancestor(tokens, last, depth - 1 - d).wme.as_ref()
}

/// The normalised key of the WME `up` hops above `t` (a join index's
/// token side); `Nil` when that condition is negated.
fn token_key<'a>(tokens: &'a [Token], t: Slot, up: usize, attr: &str) -> Cow<'a, Value> {
    match &ancestor(tokens, t, up).wme {
        Some(w) => index_key(attr_of(w, attr)),
        None => Cow::Owned(Value::Nil),
    }
}

/// The order the beta network joins a rule's CEs in: written CE indices,
/// one per token depth (see the module docs).
///
/// Negated CEs are barriers and keep their positions. Inside each run of
/// positive CEs between them, the next CE is the earliest remaining one
/// that shares an `=`-tested variable with a CE already placed, or the
/// earliest remaining one when none does. A written order with no
/// avoidable cross product is therefore its own plan.
fn join_order(conds: &[Condition]) -> Vec<usize> {
    let eq_vars = |ci: usize| {
        conds[ci]
            .ce()
            .tests
            .iter()
            .filter_map(|t| match (t.predicate, &t.operand) {
                (Predicate::Eq, TestAtom::Var(v)) => Some(v),
                _ => None,
            })
    };
    let mut order = Vec::with_capacity(conds.len());
    let mut placed_vars: Vec<&VarName> = Vec::new();
    let mut run: Vec<usize> = Vec::new();
    for (ci, cond) in conds.iter().enumerate() {
        // A negated CE, or the rule's end, closes the current run.
        if let Condition::Pos(_) = cond {
            run.push(ci);
            if ci + 1 < conds.len() {
                continue;
            }
        }
        while !run.is_empty() {
            let next = run
                .iter()
                .position(|&c| eq_vars(c).any(|v| placed_vars.contains(&v)))
                .unwrap_or(0);
            let c = run.remove(next);
            placed_vars.extend(eq_vars(c));
            order.push(c);
        }
        if let Condition::Neg(_) = cond {
            order.push(ci);
        }
    }
    order
}

/// The compiled, immutable-while-matching half of a node.
#[derive(Clone, Debug)]
enum Node {
    /// Token holder (top memory or beta memory). Children are join,
    /// negative and production nodes.
    Memory { children: Vec<NodeId> },
    /// Join between `parent` source tokens and `amem`. Its child is the
    /// beta memory receiving matched (token, wme) pairs. When the tests
    /// include an equality against an earlier condition's attribute, the
    /// join is *hash-indexed*: its memory buckets the parent's tokens by
    /// their key value, and the alpha memory carries a matching value
    /// index, so activations probe instead of scanning.
    Join {
        parent: NodeId,
        amem: AlphaMemId,
        tests: Vec<JoinTest>,
        out: NodeId,
        index: Option<JoinIndex>,
    },
    /// Negated condition. Owns an *output* token per input token (a
    /// token of `parent`) whose join against `amem` is empty; children
    /// are like a memory's.
    Negative {
        parent: NodeId,
        amem: AlphaMemId,
        tests: Vec<JoinTest>,
        children: Vec<NodeId>,
    },
    /// Terminal node: keys complete matches into the conflict set.
    Production {
        rule: RuleId,
        salience: i32,
        /// var → (token depth of its binding CE, attribute), in written
        /// order, for binding extraction.
        binding_map: Vec<(VarName, usize, Atom)>,
        /// Token depth of each positive CE, in written order (for wme
        /// extraction).
        positive_conds: Vec<usize>,
        /// Length of a complete token chain (the rule's CE count).
        depth: usize,
    },
}

/// Hash support for an equality join: the first `Eq`-against-token test
/// becomes the probe key on both sides.
#[derive(Clone, Debug)]
struct JoinIndex {
    /// Attribute of the candidate WME (alpha side) and the position of
    /// its value index in the alpha memory.
    new_attr: Atom,
    alpha_index: usize,
    /// Token-side operand: parent hops from the input token, attribute.
    up: usize,
    attr: Atom,
}

/// The mutable half of a node; which fields are used depends on its kind.
#[derive(Clone, Debug, Default)]
struct NodeMem {
    /// Sources: newest stored token (the rest on `MEMORY` links).
    head: Slot,
    /// Indexed joins: normalised token-side key → the parent's tokens.
    by_key: HashMap<Value, IdSet<Slot>>,
    /// Negatives: input token → (matching wme ids, output token if none).
    entries: IdMap<Slot, NegEntry>,
    /// Productions: final token → instantiation key in the conflict set.
    insts: IdMap<Slot, InstKey>,
}

#[derive(Clone, Debug, Default)]
struct NegEntry {
    results: IdSet<WmeId>,
    out: Slot,
}

/// Statistics about network size and activity, for benchmarks and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReteStats {
    /// Distinct alpha memories.
    pub alpha_memories: usize,
    /// Beta-level nodes (memories + negatives).
    pub beta_nodes: usize,
    /// Join nodes.
    pub join_nodes: usize,
    /// Join nodes with a hash index (equality probe instead of scan).
    pub indexed_joins: usize,
    /// Production nodes.
    pub production_nodes: usize,
    /// Live tokens (partial matches currently stored).
    pub tokens: usize,
    /// Right activations processed since construction.
    pub right_activations: u64,
    /// Left activations processed since construction.
    pub left_activations: u64,
}

/// What matching reads but never writes: the alpha network (written only
/// between propagations) and the compiled beta graph.
#[derive(Clone, Debug, Default)]
struct Network {
    alpha: AlphaNetwork,
    nodes: Vec<Node>,
    /// Join/negative nodes attached to each alpha memory, in build order.
    successors: Vec<Vec<NodeId>>,
    /// Sharing keys for join/negative/memory nodes.
    share: HashMap<(NodeId, AlphaMemId, Vec<JoinTest>, bool), NodeId>,
}

impl Network {
    fn children(&self, source: NodeId) -> &[NodeId] {
        match &self.nodes[source.0] {
            Node::Memory { children } | Node::Negative { children, .. } => children,
            _ => unreachable!("only sources have children"),
        }
    }
}

/// What matching writes: node memories, the token slab and its indexes.
#[derive(Clone, Debug, Default)]
struct Beta {
    /// Parallel to `Network::nodes`.
    mems: Vec<NodeMem>,
    tokens: Vec<Token>,
    free: Vec<Slot>,
    /// Newest token whose own `wme` is this id (rest on `CARRIERS`).
    by_wme: IdMap<WmeId, Slot>,
    /// (negative node, input token) pairs whose result set contains the id.
    neg_by_wme: IdMap<WmeId, IdSet<(NodeId, Slot)>>,
    /// Emptied index buckets, kept for their capacity.
    spare: Vec<IdSet<Slot>>,
    conflict: ConflictSet,
    right_activations: u64,
    left_activations: u64,
}

/// The Rete matcher. See the module docs.
#[derive(Clone, Debug)]
pub struct Rete {
    net: Network,
    beta: Beta,
}

const TOP: NodeId = NodeId(0);
const DUMMY: Slot = 1;

impl Rete {
    /// Builds the network for `rules` and loads the initial working
    /// memory.
    pub fn new(rules: &RuleSet, wm: &WorkingMemory) -> Self {
        let mut rete = Rete::compile(rules.iter());
        for wme in wm.handles() {
            rete.insert(wme);
        }
        rete
    }

    /// Builds the network for an arbitrary `(RuleId, &Rule)` collection
    /// over an empty working memory ([`Rete::insert`] loads it).
    ///
    /// The given ids are stored verbatim in the production nodes, so the
    /// resulting conflict set speaks the *caller's* id space. This is
    /// what lets a match shard own a Rete over a subset of the rule set
    /// while still emitting global rule ids — no local→global
    /// translation layer and no merged conflict set to refresh.
    pub fn compile<'a>(rules: impl IntoIterator<Item = (RuleId, &'a Rule)>) -> Self {
        let mut rete = Rete {
            net: Network::default(),
            beta: Beta::default(),
        };
        rete.push_node(Node::Memory {
            children: Vec::new(),
        });
        // The placeholder slot, then the dummy token in the top memory.
        rete.beta.tokens.push(Token::default());
        let dummy = rete.beta.add_token(NONE, None, TOP);
        debug_assert_eq!(dummy, DUMMY);
        for (id, rule) in rules {
            rete.compile_rule(id, rule);
        }
        rete
    }

    /// Current network statistics.
    pub fn stats(&self) -> ReteStats {
        let mut s = ReteStats {
            alpha_memories: self.net.alpha.memory_count(),
            // Exclude the placeholder slot and the dummy.
            tokens: self.beta.tokens.len() - self.beta.free.len() - 2,
            right_activations: self.beta.right_activations,
            left_activations: self.beta.left_activations,
            ..ReteStats::default()
        };
        for n in &self.net.nodes {
            match n {
                Node::Memory { .. } | Node::Negative { .. } => s.beta_nodes += 1,
                Node::Join { index, .. } => {
                    s.join_nodes += 1;
                    s.indexed_joins += usize::from(index.is_some());
                }
                Node::Production { .. } => s.production_nodes += 1,
            }
        }
        s
    }

    // -------------------------------------------------------------
    // Compilation
    // -------------------------------------------------------------

    fn compile_rule(&mut self, id: RuleId, rule: &Rule) {
        let conds = &rule.conditions;
        let order = join_order(conds);
        // Written CE index → placed depth (token level).
        let mut depth = vec![0; conds.len()];
        for (d, &ci) in order.iter().enumerate() {
            depth[ci] = d;
        }
        // A test at depth `d` reaches the match at depth `at` by walking
        // up from its input token (depth `d - 1`).
        let token = |d: usize, at: usize, attr: &Atom| TestTarget::Token {
            up: d - 1 - at,
            attr: attr.clone(),
        };

        // Classify every variable test in written order, exactly as the
        // written-order network would. `binding_map` holds the first Eq
        // occurrence of each variable in a positive CE; `tests` is per
        // written CE index.
        let mut binding_map: Vec<(VarName, usize, Atom)> = Vec::new();
        let mut tests: Vec<Vec<JoinTest>> = vec![Vec::new(); conds.len()];
        for (ci, cond) in conds.iter().enumerate() {
            // Local (within this CE) first occurrences, for intra-CE tests
            // and for locally bound negative-CE variables.
            let mut local_first: Vec<(VarName, Atom)> = Vec::new();
            for t in &cond.ce().tests {
                let TestAtom::Var(var) = &t.operand else {
                    continue;
                };
                let global = binding_map.iter().find(|(v, _, _)| v == var);
                let local = local_first.iter().find(|(v, _)| v == var);
                match (t.predicate, global, local) {
                    // Binding occurrence: variable not seen anywhere yet.
                    (Predicate::Eq, None, None) => {
                        local_first.push((var.clone(), t.attr.clone()));
                        if let Condition::Pos(_) = cond {
                            binding_map.push((var.clone(), ci, t.attr.clone()));
                        }
                    }
                    // Test against an earlier condition's binding, at
                    // whichever of the two CEs the plan places later.
                    (p, Some(&(_, bi, ref battr)), None) if depth[bi] < depth[ci] => {
                        tests[ci].push(JoinTest {
                            new_attr: t.attr.clone(),
                            predicate: p,
                            target: token(depth[ci], depth[bi], battr),
                        });
                    }
                    // The binder is placed later: the test runs at its
                    // join with the operands swapped. The binder precedes
                    // this CE in written order, so its own tests are all
                    // in already and keep their places (and its index key).
                    (p, Some(&(_, bi, ref battr)), None) => {
                        tests[bi].push(JoinTest {
                            new_attr: battr.clone(),
                            predicate: p.converse(),
                            target: token(depth[bi], depth[ci], &t.attr),
                        });
                    }
                    // Intra-CE test (local occurrence takes precedence:
                    // inside a negated CE the local binding shadows).
                    (p, _, Some((_, local_attr))) => {
                        tests[ci].push(JoinTest {
                            new_attr: t.attr.clone(),
                            predicate: p,
                            target: TestTarget::NewAttr(local_attr.clone()),
                        });
                    }
                    // Validation guarantees non-Eq predicates are bound.
                    (_, None, None) => unreachable!("validated rule has no unbound test"),
                }
            }
        }

        let mut source = TOP;
        for &ci in &order {
            let ce = conds[ci].ce();
            let amem = self.net.alpha.register(ce);
            let tests = std::mem::take(&mut tests[ci]);
            source = match &conds[ci] {
                Condition::Pos(_) => self.get_or_make_join(source, amem, tests),
                Condition::Neg(_) => self.get_or_make_negative(source, amem, tests),
            };
        }

        // Attach the production node. It reads tokens by depth and emits
        // bindings and WMEs in written order.
        for (_, ci, _) in &mut binding_map {
            *ci = depth[*ci];
        }
        let positive_conds = conds
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c, Condition::Pos(_)))
            .map(|(ci, _)| depth[ci])
            .collect();
        let pnode = self.push_node(Node::Production {
            rule: id,
            salience: rule.salience,
            binding_map,
            positive_conds,
            depth: conds.len(),
        });
        self.add_child(source, pnode);
        // Activate for tokens already in the source (sharing may reuse a
        // populated subnetwork).
        for t in self.source_tokens(source) {
            self.beta.deliver_to_production(&self.net, pnode, t);
        }
    }

    fn get_or_make_join(
        &mut self,
        parent: NodeId,
        amem: AlphaMemId,
        tests: Vec<JoinTest>,
    ) -> NodeId {
        let key = (parent, amem, tests.clone(), false);
        if let Some(&join) = self.net.share.get(&key) {
            let Node::Join { out, .. } = &self.net.nodes[join.0] else {
                unreachable!()
            };
            return *out;
        }
        // Pick the first token-equality test as the hash-join key.
        let index = tests.iter().find_map(|t| match (&t.predicate, &t.target) {
            (Predicate::Eq, TestTarget::Token { up, attr }) => Some(JoinIndex {
                new_attr: t.new_attr.clone(),
                alpha_index: self.net.alpha.ensure_index(amem, &t.new_attr),
                up: *up,
                attr: attr.clone(),
            }),
            _ => None,
        });
        let out = NodeId(self.net.nodes.len() + 1);
        let join = self.push_node(Node::Join {
            parent,
            amem,
            tests,
            out,
            index,
        });
        self.push_node(Node::Memory {
            children: Vec::new(),
        });
        self.add_child(parent, join);
        self.add_successor(amem, join);
        self.net.share.insert(key, join);
        // Populate from existing state (tokens × amem).
        for t in self.source_tokens(parent) {
            self.beta.index_token(&self.net, join, t);
            self.beta.join_left_activate(&self.net, join, t);
        }
        out
    }

    fn get_or_make_negative(
        &mut self,
        parent: NodeId,
        amem: AlphaMemId,
        tests: Vec<JoinTest>,
    ) -> NodeId {
        let key = (parent, amem, tests.clone(), true);
        if let Some(&neg) = self.net.share.get(&key) {
            return neg;
        }
        let neg = self.push_node(Node::Negative {
            parent,
            amem,
            tests,
            children: Vec::new(),
        });
        self.add_child(parent, neg);
        self.add_successor(amem, neg);
        self.net.share.insert(key, neg);
        for t in self.source_tokens(parent) {
            self.beta.negative_left_activate(&self.net, neg, t);
        }
        neg
    }

    fn push_node(&mut self, node: Node) -> NodeId {
        self.net.nodes.push(node);
        self.beta.mems.push(NodeMem::default());
        NodeId(self.net.nodes.len() - 1)
    }

    fn add_child(&mut self, parent: NodeId, child: NodeId) {
        match &mut self.net.nodes[parent.0] {
            Node::Memory { children } | Node::Negative { children, .. } => children.push(child),
            _ => unreachable!("only sources have children"),
        }
    }

    fn add_successor(&mut self, amem: AlphaMemId, node: NodeId) {
        if self.net.successors.len() <= amem.0 {
            self.net.successors.resize(amem.0 + 1, Vec::new());
        }
        self.net.successors[amem.0].push(node);
    }

    /// The tokens a source holds (compile-time population only; matching
    /// walks the list in place).
    fn source_tokens(&self, source: NodeId) -> Vec<Slot> {
        let mut out = Vec::new();
        let mut t = self.beta.mems[source.0].head;
        while t != NONE {
            out.push(t);
            t = self.beta.tokens[t as usize].links[MEMORY][1];
        }
        out
    }

    // -------------------------------------------------------------
    // WME-level entry points
    // -------------------------------------------------------------

    /// Adds one element: what [`Matcher::apply`] does for an `Added`
    /// change, without the caller building one. The network keeps the
    /// caller's handle (the working memory's own allocation), not a copy.
    pub fn insert(&mut self, wme: &Arc<Wme>) {
        self.net.alpha.add_wme(wme);
        for amem in self.net.alpha.holding(wme) {
            for &node in self.net.successors.get(amem.0).into_iter().flatten() {
                match &self.net.nodes[node.0] {
                    Node::Join { .. } => self.beta.join_right_activate(&self.net, node, wme),
                    Node::Negative { .. } => {
                        self.beta.negative_right_activate(&self.net, node, wme);
                    }
                    _ => unreachable!(),
                }
            }
        }
    }

    fn remove_wme(&mut self, class: &Atom, id: WmeId) {
        self.net.alpha.remove_wme(class, id, |_| ());
        // Kill tokens carrying the WME (a cascade may take later
        // carriers with it, so always re-read the list head).
        while let Some(&t) = self.beta.by_wme.get(&id) {
            self.beta.delete_token(&self.net, t);
        }
        // Unblock negative entries that were matched by it.
        let mut to_emit = Vec::new();
        for (neg, input) in self.beta.neg_by_wme.remove(&id).unwrap_or_default() {
            if let Some(e) = self.beta.mems[neg.0].entries.get_mut(&input) {
                e.results.remove(&id);
                if e.results.is_empty() && e.out == NONE {
                    to_emit.push((neg, input));
                }
            }
        }
        // Deterministic order across hash-set iteration.
        to_emit.sort_unstable();
        for (neg, input) in to_emit {
            self.beta.negative_emit(&self.net, neg, input);
        }
    }

    /// Test/debug helper: the timestamps of all live tokens (excluding
    /// the dummy), for state-size assertions.
    #[doc(hidden)]
    pub fn live_token_timestamps(&self) -> Vec<Timestamp> {
        let tokens = self.beta.tokens.iter();
        let mut ts: Vec<Timestamp> = tokens
            .filter_map(|t| t.wme.as_ref().map(|w| w.timestamp))
            .collect();
        ts.sort_unstable();
        ts
    }
}

impl Beta {
    // -------------------------------------------------------------
    // Token plumbing
    // -------------------------------------------------------------

    /// Takes a slot for a new token and threads it onto its parent's
    /// children, its owner's memory and its WME's carriers.
    fn add_token(&mut self, parent: Slot, wme: Option<Arc<Wme>>, owner: NodeId) -> Slot {
        let t = self.free.pop().unwrap_or_else(|| {
            self.tokens.push(Token::default());
            Slot::try_from(self.tokens.len() - 1).expect("token slab fits u32")
        });
        let tokens = &mut self.tokens;
        if let Some(w) = &wme {
            let head = self.by_wme.entry(w.id).or_insert(NONE);
            *head = push_front(tokens, CARRIERS, *head, t);
        }
        let first = tokens[parent as usize].first_child;
        tokens[parent as usize].first_child = push_front(tokens, SIBLINGS, first, t);
        let mem = &mut self.mems[owner.0];
        mem.head = push_front(tokens, MEMORY, mem.head, t);
        let token = &mut tokens[t as usize];
        (token.parent, token.wme, token.owner) = (parent, wme, owner);
        t
    }

    /// Adds `token` to a join's hash index (no-op for unindexed joins).
    fn index_token(&mut self, net: &Network, join: NodeId, token: Slot) {
        if let Node::Join {
            index: Some(ix), ..
        } = &net.nodes[join.0]
        {
            let key = token_key(&self.tokens, token, ix.up, ix.attr.as_str()).into_owned();
            let spare = &mut self.spare;
            let bucket = self.mems[join.0].by_key.entry(key);
            bucket
                .or_insert_with(|| spare.pop().unwrap_or_default())
                .insert(token);
        }
    }

    fn eval_tests(&self, tests: &[JoinTest], token: Slot, new: &Wme) -> bool {
        tests.iter().all(|t| {
            let right = match &t.target {
                TestTarget::NewAttr(attr) => attr_of(new, attr.as_str()),
                TestTarget::Token { up, attr } => match &ancestor(&self.tokens, token, *up).wme {
                    Some(w) => attr_of(w, attr.as_str()),
                    None => return false,
                },
            };
            t.predicate.apply(attr_of(new, t.new_attr.as_str()), right)
        })
    }

    // -------------------------------------------------------------
    // Activations
    // -------------------------------------------------------------

    /// A new token appeared in `source`: tell all its children.
    fn source_token_added(&mut self, net: &Network, source: NodeId, token: Slot) {
        let children = net.children(source);
        // Register in all indexed joins first, then activate.
        for &child in children {
            self.index_token(net, child, token);
        }
        for &child in children {
            match &net.nodes[child.0] {
                Node::Join { .. } => self.join_left_activate(net, child, token),
                Node::Negative { .. } => self.negative_left_activate(net, child, token),
                Node::Production { .. } => self.deliver_to_production(net, child, token),
                Node::Memory { .. } => unreachable!("memories hang off joins"),
            }
        }
    }

    fn join_left_activate(&mut self, net: &Network, join: NodeId, token: Slot) {
        self.left_activations += 1;
        let Node::Join {
            amem,
            tests,
            out,
            index,
            ..
        } = &net.nodes[join.0]
        else {
            unreachable!()
        };
        let mem = net.alpha.memory(*amem);
        match index {
            Some(ix) => {
                let key = token_key(&self.tokens, token, ix.up, ix.attr.as_str()).into_owned();
                for w in mem.lookup(ix.alpha_index, &key) {
                    if self.eval_tests(tests, token, w) {
                        self.memory_add_token(net, *out, token, Arc::clone(w));
                    }
                }
            }
            None => {
                for w in mem.wmes() {
                    if self.eval_tests(tests, token, w) {
                        self.memory_add_token(net, *out, token, Arc::clone(w));
                    }
                }
            }
        }
    }

    fn join_right_activate(&mut self, net: &Network, join: NodeId, w: &Arc<Wme>) {
        self.right_activations += 1;
        let Node::Join {
            parent,
            tests,
            out,
            index,
            ..
        } = &net.nodes[join.0]
        else {
            unreachable!()
        };
        match index {
            Some(ix) => {
                // New tokens land strictly below this join, so its bucket
                // cannot change while it is lent out.
                let key = index_key(attr_of(w, ix.new_attr.as_str()));
                let by_key = &mut self.mems[join.0].by_key;
                let Some(bucket) = by_key.get_mut(&*key).map(std::mem::take) else {
                    return;
                };
                for &t in &bucket {
                    if self.eval_tests(tests, t, w) {
                        self.memory_add_token(net, *out, t, Arc::clone(w));
                    }
                }
                *self.mems[join.0].by_key.get_mut(&*key).expect("lent") = bucket;
            }
            None => {
                let mut t = self.mems[parent.0].head;
                while t != NONE {
                    let next = self.tokens[t as usize].links[MEMORY][1];
                    if self.eval_tests(tests, t, w) {
                        self.memory_add_token(net, *out, t, Arc::clone(w));
                    }
                    t = next;
                }
            }
        }
    }

    fn memory_add_token(&mut self, net: &Network, mem: NodeId, parent: Slot, w: Arc<Wme>) {
        let t = self.add_token(parent, Some(w), mem);
        self.source_token_added(net, mem, t);
    }

    fn negative_left_activate(&mut self, net: &Network, neg: NodeId, input: Slot) {
        self.left_activations += 1;
        let Node::Negative { amem, tests, .. } = &net.nodes[neg.0] else {
            unreachable!()
        };
        let candidates = net.alpha.memory(*amem).wmes();
        let results: IdSet<WmeId> = candidates
            .filter(|w| self.eval_tests(tests, input, w))
            .map(|w| w.id)
            .collect();
        for wid in &results {
            self.neg_by_wme
                .entry(*wid)
                .or_default()
                .insert((neg, input));
        }
        let empty = results.is_empty();
        let entry = NegEntry { results, out: NONE };
        self.mems[neg.0].entries.insert(input, entry);
        if empty {
            self.negative_emit(net, neg, input);
        }
    }

    /// Creates and propagates the output token for a blocked-free input.
    fn negative_emit(&mut self, net: &Network, neg: NodeId, input: Slot) {
        let out = self.add_token(input, None, neg);
        if let Some(e) = self.mems[neg.0].entries.get_mut(&input) {
            e.out = out;
        }
        self.source_token_added(net, neg, out);
    }

    fn negative_right_activate(&mut self, net: &Network, neg: NodeId, w: &Arc<Wme>) {
        self.right_activations += 1;
        let Node::Negative { parent, tests, .. } = &net.nodes[neg.0] else {
            unreachable!()
        };
        // The inputs are exactly the parent's tokens; retractions below
        // happen strictly under this node, so the walk is stable.
        let mut input = self.mems[parent.0].head;
        while input != NONE {
            let next = self.tokens[input as usize].links[MEMORY][1];
            if self.eval_tests(tests, input, w) {
                self.neg_by_wme
                    .entry(w.id)
                    .or_default()
                    .insert((neg, input));
                let entry = self.mems[neg.0].entries.get_mut(&input);
                let entry = entry.expect("every parent token is an input");
                // First match: the negated pattern now holds, so retract
                // the output.
                if entry.results.insert(w.id) && entry.results.len() == 1 {
                    let out = std::mem::replace(&mut entry.out, NONE);
                    if out != NONE {
                        self.delete_token(net, out);
                    }
                }
            }
            input = next;
        }
    }

    /// A complete match: key it (written CE order) into the conflict
    /// set and the production's token index. Nothing else is built here
    /// — see [`Matcher::instantiate`].
    fn deliver_to_production(&mut self, net: &Network, pnode: NodeId, token: Slot) {
        let Node::Production {
            rule,
            salience,
            positive_conds,
            depth,
            ..
        } = &net.nodes[pnode.0]
        else {
            unreachable!()
        };
        let tokens = &self.tokens;
        let key = InstKey {
            rule: *rule,
            wmes: positive_conds
                .iter()
                .map(|&d| {
                    let w = chain_wme(tokens, token, *depth, d).expect("positive CE token");
                    (w.id, w.timestamp)
                })
                .collect(),
        };
        self.mems[pnode.0].insts.insert(token, key.clone());
        let site = Site {
            node: u32::try_from(pnode.0).expect("node ids fit u32"),
            token,
        };
        self.conflict.insert(key, *salience, site);
    }

    // -------------------------------------------------------------
    // Deletion
    // -------------------------------------------------------------

    fn delete_token(&mut self, net: &Network, tid: Slot) {
        loop {
            let child = self.tokens[tid as usize].first_child;
            if child == NONE {
                break;
            }
            self.delete_token(net, child);
        }
        let (parent, owner) = {
            let t = &self.tokens[tid as usize];
            (t.parent, t.owner)
        };
        for &child in net.children(owner) {
            match &net.nodes[child.0] {
                // Drop the token from sibling join hash indexes (the key
                // walk needs the token's parents, which are still intact).
                Node::Join {
                    index: Some(ix), ..
                } => {
                    let key = token_key(&self.tokens, tid, ix.up, ix.attr.as_str());
                    let by_key = &mut self.mems[child.0].by_key;
                    if let Some(bucket) = by_key.get_mut(&*key) {
                        bucket.remove(&tid);
                        if bucket.is_empty() {
                            self.spare.extend(by_key.remove(&*key));
                        }
                    }
                }
                // Production retractions: instantiations are keyed by
                // their final token.
                Node::Production { .. } => {
                    if let Some(key) = self.mems[child.0].insts.remove(&tid) {
                        self.conflict.remove(&key);
                    }
                }
                // As an *input* of negative children, drop their entries
                // and index links (output tokens are our children and
                // are already gone).
                Node::Negative { .. } => {
                    let entry = self.mems[child.0].entries.remove(&tid);
                    for wid in entry.into_iter().flat_map(|e| e.results) {
                        if let Some(set) = self.neg_by_wme.get_mut(&wid) {
                            set.remove(&(child, tid));
                        }
                    }
                }
                _ => {}
            }
        }
        // Detach from the owner, the parent and the WME's carriers.
        let tokens = &mut self.tokens;
        let mem = &mut self.mems[owner.0];
        mem.head = unlink(tokens, MEMORY, mem.head, tid);
        // An output token: clear the negative node's back-pointer.
        if let Some(e) = mem.entries.get_mut(&parent) {
            if e.out == tid {
                e.out = NONE;
            }
        }
        let first = tokens[parent as usize].first_child;
        tokens[parent as usize].first_child = unlink(tokens, SIBLINGS, first, tid);
        if let Some(w) = tokens[tid as usize].wme.take() {
            // Only the list head is recorded in the map.
            let was_head = tokens[tid as usize].links[CARRIERS][0] == NONE;
            let next = unlink(tokens, CARRIERS, NONE, tid);
            if was_head && next == NONE {
                self.by_wme.remove(&w.id);
            } else if was_head {
                self.by_wme.insert(w.id, next);
            }
        }
        self.free.push(tid);
    }
}

impl Matcher for Rete {
    fn apply(&mut self, changes: &[Change]) {
        for change in changes {
            match change {
                Change::Added(w) => self.insert(w),
                Change::Removed(w) => self.remove_wme(&w.data.class, w.id),
            }
        }
    }

    fn conflict_set(&self) -> &ConflictSet {
        &self.beta.conflict
    }

    /// Reads the match off the token the conflict set's entry names:
    /// the positive CEs' `Arc<Wme>`s in written order, and each
    /// variable's value at its binding CE. The token is live for as long
    /// as its key is listed, so a present key never reads a freed slot.
    fn instantiate(&self, key: &InstKey) -> Option<Instantiation> {
        let Site { node, token } = self.beta.conflict.site(key)?;
        let Node::Production {
            rule,
            salience,
            binding_map,
            positive_conds,
            depth,
        } = &self.net.nodes[node as usize]
        else {
            unreachable!("conflict sites name production nodes")
        };
        let wme_at = |d: usize| chain_wme(&self.beta.tokens, token, *depth, d);
        let mut bindings = Bindings::new();
        for (var, d, attr) in binding_map {
            if let Some(w) = wme_at(*d) {
                bindings.bind(var.clone(), attr_of(w, attr.as_str()).clone());
            }
        }
        let inst = Instantiation {
            rule: *rule,
            wmes: positive_conds
                .iter()
                .map(|&d| Arc::clone(wme_at(d).expect("positive CE token")))
                .collect(),
            bindings,
            salience: *salience,
        };
        debug_assert!(inst.key() == *key, "a site reads back its own key");
        Some(inst)
    }

    /// The production node keeps the refracted key's token: it is
    /// dropped, as any other, when a tuple of it is retracted.
    fn refract(&mut self, key: &InstKey) {
        let alpha = &self.net.alpha;
        self.beta.conflict.refract(key, |id, ts| alpha.holds(id, ts));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_wm::{DeltaSet, Value, WmeData};

    fn setup(rules_src: &str) -> (RuleSet, WorkingMemory) {
        (RuleSet::parse(rules_src).unwrap(), WorkingMemory::new())
    }

    fn apply_insert(rete: &mut Rete, wm: &mut WorkingMemory, data: WmeData) -> WmeId {
        let w = wm.insert_full(data);
        let id = w.id;
        rete.apply(&[Change::Added(w)]);
        id
    }

    fn apply_remove(rete: &mut Rete, wm: &mut WorkingMemory, id: WmeId) {
        let w = wm.remove(id).unwrap();
        rete.apply(&[Change::Removed(w)]);
    }

    /// The first instantiation in key order, materialised.
    fn first(rete: &Rete) -> Instantiation {
        let key = rete.conflict_set().keys().next().unwrap();
        rete.instantiate(key).unwrap()
    }

    #[test]
    fn single_ce_match_and_retract() {
        let (rules, mut wm) = setup("(p r (job ^state open) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        assert!(rete.conflict_set().is_empty());
        let id = apply_insert(
            &mut rete,
            &mut wm,
            WmeData::new("job").with("state", "open"),
        );
        assert_eq!(rete.conflict_set().len(), 1);
        apply_remove(&mut rete, &mut wm, id);
        assert!(rete.conflict_set().is_empty());
        assert!(rete.live_token_timestamps().is_empty(), "no leaked tokens");
    }

    #[test]
    fn join_on_shared_variable() {
        let (rules, mut wm) = setup("(p r (a ^k <x>) (b ^k <x>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(&mut rete, &mut wm, WmeData::new("a").with("k", 1i64));
        apply_insert(&mut rete, &mut wm, WmeData::new("b").with("k", 2i64));
        assert!(rete.conflict_set().is_empty(), "keys differ");
        apply_insert(&mut rete, &mut wm, WmeData::new("b").with("k", 1i64));
        assert_eq!(rete.conflict_set().len(), 1);
        // A second `a` with k=1 doubles the instantiations.
        apply_insert(&mut rete, &mut wm, WmeData::new("a").with("k", 1i64));
        assert_eq!(rete.conflict_set().len(), 2);
    }

    #[test]
    fn cross_ce_ordering_test() {
        let (rules, mut wm) = setup("(p r (lo ^v <x>) (hi ^v > <x>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(&mut rete, &mut wm, WmeData::new("lo").with("v", 3i64));
        apply_insert(&mut rete, &mut wm, WmeData::new("hi").with("v", 5i64));
        assert_eq!(rete.conflict_set().len(), 1);
        apply_insert(&mut rete, &mut wm, WmeData::new("hi").with("v", 2i64));
        assert_eq!(rete.conflict_set().len(), 1, "2 > 3 is false");
    }

    #[test]
    fn intra_ce_variable_consistency() {
        let (rules, mut wm) = setup("(p r (pair ^l <v> ^r <v>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(
            &mut rete,
            &mut wm,
            WmeData::new("pair").with("l", 1i64).with("r", 2i64),
        );
        assert!(rete.conflict_set().is_empty());
        apply_insert(
            &mut rete,
            &mut wm,
            WmeData::new("pair").with("l", 7i64).with("r", 7i64),
        );
        assert_eq!(rete.conflict_set().len(), 1);
    }

    #[test]
    fn negation_blocks_and_unblocks() {
        let (rules, mut wm) = setup("(p r (go) -(hold) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        let _go = apply_insert(&mut rete, &mut wm, WmeData::new("go"));
        assert_eq!(rete.conflict_set().len(), 1);
        let hold = apply_insert(&mut rete, &mut wm, WmeData::new("hold"));
        assert!(rete.conflict_set().is_empty(), "hold blocks the rule");
        apply_remove(&mut rete, &mut wm, hold);
        assert_eq!(rete.conflict_set().len(), 1, "retraction unblocks");
    }

    #[test]
    fn a_refracted_key_stays_unlisted_through_a_negation_block_until_swept() {
        let (rules, mut wm) = setup("(p mark (a) -(b) --> (make log))");
        let mut rete = Rete::new(&rules, &wm);
        let a = apply_insert(&mut rete, &mut wm, WmeData::new("a"));
        let key = rete.conflict_set().keys().next().unwrap().clone();
        rete.refract(&key);
        assert_eq!(rete.conflict_set().len(), 0);
        assert!(rete.conflict_set().keys().next().is_none());
        assert!(rete.instantiate(&key).is_none());
        let dead = |n: u64| InstKey { rule: key.rule, wmes: [(WmeId(1_000 + n), 0)].into() };
        // A `b` blocks the match while a sweep runs: the key survives it,
        // and when the block lifts the same key is not listed again.
        let b = apply_insert(&mut rete, &mut wm, WmeData::new("b"));
        for n in 0..1023 {
            rete.refract(&dead(n));
        }
        assert_eq!(rete.conflict_set().refracted_len(), 1, "the sweep ran");
        apply_remove(&mut rete, &mut wm, b);
        assert!(rete.conflict_set().is_empty());
        assert!(rete.conflict_set().is_refracted(&key));
        // Once its tuple is gone, the next sweep drops it.
        apply_remove(&mut rete, &mut wm, a);
        for n in 1023..2046 {
            rete.refract(&dead(n));
        }
        assert_eq!(rete.conflict_set().refracted_len(), 0, "a dead key is collected");
    }

    #[test]
    fn negation_with_variable_from_earlier_ce() {
        let (rules, mut wm) = setup("(p r (job ^id <j>) -(lock ^job <j>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(&mut rete, &mut wm, WmeData::new("job").with("id", 1i64));
        apply_insert(&mut rete, &mut wm, WmeData::new("job").with("id", 2i64));
        assert_eq!(rete.conflict_set().len(), 2);
        let l1 = apply_insert(&mut rete, &mut wm, WmeData::new("lock").with("job", 1i64));
        assert_eq!(rete.conflict_set().len(), 1, "only job 1 is blocked");
        apply_insert(&mut rete, &mut wm, WmeData::new("lock").with("job", 2i64));
        assert_eq!(rete.conflict_set().len(), 0);
        apply_remove(&mut rete, &mut wm, l1);
        assert_eq!(rete.conflict_set().len(), 1);
    }

    #[test]
    fn two_blockers_require_both_retractions() {
        let (rules, mut wm) = setup("(p r (go) -(hold) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(&mut rete, &mut wm, WmeData::new("go"));
        let h1 = apply_insert(&mut rete, &mut wm, WmeData::new("hold"));
        let h2 = apply_insert(&mut rete, &mut wm, WmeData::new("hold"));
        assert!(rete.conflict_set().is_empty());
        apply_remove(&mut rete, &mut wm, h1);
        assert!(rete.conflict_set().is_empty(), "h2 still blocks");
        apply_remove(&mut rete, &mut wm, h2);
        assert_eq!(rete.conflict_set().len(), 1);
    }

    #[test]
    fn removal_cascades_through_joins() {
        let (rules, mut wm) = setup("(p r (a ^k <x>) (b ^k <x>) (c ^k <x>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        let a = apply_insert(&mut rete, &mut wm, WmeData::new("a").with("k", 1i64));
        apply_insert(&mut rete, &mut wm, WmeData::new("b").with("k", 1i64));
        apply_insert(&mut rete, &mut wm, WmeData::new("c").with("k", 1i64));
        assert_eq!(rete.conflict_set().len(), 1);
        apply_remove(&mut rete, &mut wm, a);
        assert!(rete.conflict_set().is_empty());
        assert!(
            rete.live_token_timestamps().is_empty(),
            "cascade removed all partial matches"
        );
    }

    #[test]
    fn modify_retimestamps_instantiation() {
        let (rules, mut wm) = setup("(p r (c ^n > 0) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        let id = apply_insert(&mut rete, &mut wm, WmeData::new("c").with("n", 1i64));
        let key_before = rete.conflict_set().keys().next().unwrap().clone();
        let mut d = DeltaSet::new();
        d.modify(id, [(Atom::from("n"), Value::Int(2))]);
        let changes = wm.apply(&d).unwrap();
        rete.apply(&changes);
        assert_eq!(rete.conflict_set().len(), 1);
        let key_after = rete.conflict_set().keys().next().unwrap().clone();
        assert_ne!(
            key_before, key_after,
            "fresh timestamp → fresh instantiation"
        );
    }

    #[test]
    fn alpha_and_beta_sharing_across_rules() {
        let (rules, wm) = setup(
            "(p r1 (a ^k <x>) (b ^k <x>) --> (remove 1))
             (p r2 (a ^k <x>) (b ^k <x>) --> (remove 2))",
        );
        let rete = Rete::new(&rules, &wm);
        let stats = rete.stats();
        assert_eq!(stats.alpha_memories, 2, "a and b shared across rules");
        assert_eq!(
            stats.join_nodes, 2,
            "join chain shared; production nodes differ"
        );
        assert_eq!(stats.production_nodes, 2);
    }

    #[test]
    fn shared_subnetwork_activates_late_added_production() {
        // r2 compiled after WMEs exist? Here: rules compiled first, but
        // r2 shares r1's join chain; both must fire.
        let (rules, mut wm) = setup(
            "(p r1 (a ^k <x>) (b ^k <x>) --> (remove 1))
             (p r2 (a ^k <x>) (b ^k <x>) --> (remove 2))",
        );
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(&mut rete, &mut wm, WmeData::new("a").with("k", 1i64));
        apply_insert(&mut rete, &mut wm, WmeData::new("b").with("k", 1i64));
        assert_eq!(rete.conflict_set().len(), 2);
    }

    #[test]
    fn initial_working_memory_is_matched() {
        let rules = RuleSet::parse("(p r (x) (y) --> (remove 1))").unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("x"));
        wm.insert(WmeData::new("y"));
        wm.insert(WmeData::new("y"));
        let rete = Rete::new(&rules, &wm);
        assert_eq!(rete.conflict_set().len(), 2);
    }

    #[test]
    fn bindings_are_extracted() {
        let (rules, mut wm) =
            setup("(p r (job ^id <j> ^cost <c>) --> (make log ^job <j> ^was <c>))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(
            &mut rete,
            &mut wm,
            WmeData::new("job").with("id", 7i64).with("cost", 3i64),
        );
        let inst = first(&rete);
        assert_eq!(inst.bindings.get("j"), Some(&Value::Int(7)));
        assert_eq!(inst.bindings.get("c"), Some(&Value::Int(3)));
        assert_eq!(inst.wmes.len(), 1);
    }

    #[test]
    fn negated_ce_does_not_contribute_wmes() {
        let (rules, mut wm) = setup("(p r (go ^id <g>) -(hold) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(&mut rete, &mut wm, WmeData::new("go").with("id", 4i64));
        let inst = first(&rete);
        assert_eq!(inst.wmes.len(), 1);
        assert_eq!(inst.wmes[0].class().as_str(), "go");
    }

    #[test]
    fn three_way_join_with_negation_in_middle() {
        let (rules, mut wm) = setup("(p r (a ^k <x>) -(veto ^k <x>) (b ^k <x>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(&mut rete, &mut wm, WmeData::new("a").with("k", 1i64));
        apply_insert(&mut rete, &mut wm, WmeData::new("b").with("k", 1i64));
        assert_eq!(rete.conflict_set().len(), 1);
        let v = apply_insert(&mut rete, &mut wm, WmeData::new("veto").with("k", 1i64));
        assert!(rete.conflict_set().is_empty());
        apply_remove(&mut rete, &mut wm, v);
        assert_eq!(rete.conflict_set().len(), 1);
    }

    #[test]
    fn consecutive_negations() {
        let (rules, mut wm) =
            setup("(p r (go ^k <x>) -(hold ^k <x>) -(veto ^k <x>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(&mut rete, &mut wm, WmeData::new("go").with("k", 1i64));
        assert_eq!(rete.conflict_set().len(), 1);
        let h = apply_insert(&mut rete, &mut wm, WmeData::new("hold").with("k", 1i64));
        assert!(rete.conflict_set().is_empty());
        let v = apply_insert(&mut rete, &mut wm, WmeData::new("veto").with("k", 1i64));
        apply_remove(&mut rete, &mut wm, h);
        assert!(
            rete.conflict_set().is_empty(),
            "second negation still blocks"
        );
        apply_remove(&mut rete, &mut wm, v);
        assert_eq!(rete.conflict_set().len(), 1);
        // Re-block through the second negation only.
        apply_insert(&mut rete, &mut wm, WmeData::new("veto").with("k", 1i64));
        assert!(rete.conflict_set().is_empty());
    }

    #[test]
    fn disjunction_filters_in_alpha_network() {
        let (rules, mut wm) = setup("(p r (job ^state << open pending >>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(
            &mut rete,
            &mut wm,
            WmeData::new("job").with("state", "open"),
        );
        apply_insert(
            &mut rete,
            &mut wm,
            WmeData::new("job").with("state", "pending"),
        );
        apply_insert(
            &mut rete,
            &mut wm,
            WmeData::new("job").with("state", "closed"),
        );
        assert_eq!(rete.conflict_set().len(), 2);
    }

    #[test]
    fn equality_joins_are_indexed() {
        let (rules, mut wm) = setup("(p r (a ^k <x>) (b ^k <x>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        assert_eq!(rete.stats().indexed_joins, 1, "second CE joins on <x>");
        // Scale: many distinct keys, each joining exactly once.
        for k in 0..50i64 {
            apply_insert(&mut rete, &mut wm, WmeData::new("a").with("k", k));
        }
        for k in 0..50i64 {
            apply_insert(&mut rete, &mut wm, WmeData::new("b").with("k", k));
        }
        assert_eq!(rete.conflict_set().len(), 50);
        // Retract half the `a`s; their joins disappear exactly.
        let ids: Vec<WmeId> = wm.class_iter("a").map(|w| w.id).take(25).collect();
        for id in ids {
            apply_remove(&mut rete, &mut wm, id);
        }
        assert_eq!(rete.conflict_set().len(), 25);
        assert_eq!(
            rete.live_token_timestamps().len(),
            25 + 25,
            "25 a-tokens + 25 join tokens"
        );
    }

    #[test]
    fn indexed_join_respects_numeric_coercion() {
        // Int 2 on one side, Float 2.0 on the other: loose equality says
        // they join; the normalised hash keys must agree.
        let (rules, mut wm) = setup("(p r (a ^k <x>) (b ^k <x>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(&mut rete, &mut wm, WmeData::new("a").with("k", 2i64));
        apply_insert(&mut rete, &mut wm, WmeData::new("b").with("k", 2.0f64));
        assert_eq!(rete.conflict_set().len(), 1, "Int(2) joins Float(2.0)");
        apply_insert(&mut rete, &mut wm, WmeData::new("b").with("k", 2.5f64));
        assert_eq!(rete.conflict_set().len(), 1, "2.5 does not join 2");
    }

    #[test]
    fn ordering_only_joins_stay_unindexed_but_work() {
        let (rules, mut wm) = setup("(p r (lo ^v <x>) (hi ^v > <x>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        assert_eq!(rete.stats().indexed_joins, 0, "no equality test to index");
        apply_insert(&mut rete, &mut wm, WmeData::new("lo").with("v", 1i64));
        apply_insert(&mut rete, &mut wm, WmeData::new("hi").with("v", 2i64));
        assert_eq!(rete.conflict_set().len(), 1);
    }

    fn plans(src: &str) -> Vec<(String, Vec<usize>)> {
        let rules = RuleSet::parse(src).unwrap();
        rules
            .iter()
            .map(|(_, r)| (r.name.to_string(), join_order(&r.conditions)))
            .collect()
    }

    #[test]
    fn connected_rules_plan_to_their_written_order() {
        let src = "
            (p charge (task ^res <r> ^left { > 0 <n> }) (tally ^id <r> ^count <c>)
               --> (modify 1 ^left (- <n> 1)) (modify 2 ^count (+ <c> 1)))
            (p apply (delta ^key <k> ^v <v>) (acc ^key <k> ^total <t>)
               --> (remove 1) (modify 2 ^total (+ <t> <v>)))
            (p fold-0 (out-0 ^id <i> ^w <w>) (sum-0 ^total <s>)
               --> (remove 1) (modify 2 ^total (+ <s> <w>)))
            (p join2 (a ^k <x>) (b ^k <x>) --> (remove 1))
            (p join3 (a ^k <x>) (b ^k <x>) (c ^k <x>) --> (remove 1))
            (p intra (pair ^l <v> ^r <v>) --> (remove 1))
            (p neg-const (a ^k <x>) -(hold) --> (remove 1))
            (p neg-bound (a ^k <x>) -(hold ^k <x>) --> (remove 1))
            (p order (a ^k <x>) (b ^k > <x>) --> (remove 1))
            (p neg-mid (a ^k <x>) -(veto ^k <x>) (b ^k <x>) --> (remove 1))
            (p negneg (a ^k <x>) -(hold ^k <x>) -(veto ^k <x>) --> (remove 1))
            (p join4 (a ^k <x>) (b ^k <x>) (c ^k <x>) (pair ^l <x>) --> (remove 1))
            (p bare (x) (y) --> (remove 1))";
        for (name, plan) in plans(src) {
            let identity: Vec<usize> = (0..plan.len()).collect();
            assert_eq!(plan, identity, "{name}");
        }
    }

    #[test]
    fn visit_plans_item_before_kind() {
        let src = "(p visit-0 (cursor-0 ^at <i>) (kind-0 ^kind <k> ^w <w>)
                      (item-0 ^id <i> ^kind <k> ^next <j>) -(out-0)
                     --> (modify 1 ^at <j>) (make out-0 ^id <i> ^w <w>))";
        assert_eq!(plans(src)[0].1, [0, 2, 1, 3]);
    }

    #[test]
    fn visit_shape_builds_no_cross_product() {
        let (rules, mut wm) = setup(
            "(p visit (cursor ^at <i>) (kind ^kind <k> ^w <w>)
                      (item ^id <i> ^kind <k> ^next <j>) -(out)
               --> (modify 1 ^at <j>) (make out ^id <i> ^w <w>))",
        );
        let mut rete = Rete::new(&rules, &wm);
        assert_eq!(rete.stats().indexed_joins, 2, "item on <i>, kind on <k>");
        let cursor = apply_insert(&mut rete, &mut wm, WmeData::new("cursor").with("at", 0i64));
        for k in 0..10i64 {
            let kind = WmeData::new("kind").with("kind", k).with("w", k + 1);
            apply_insert(&mut rete, &mut wm, kind);
        }
        for i in 0..5i64 {
            let item = WmeData::new("item").with("id", i).with("next", i + 1);
            apply_insert(&mut rete, &mut wm, item.with("kind", 2 * i));
        }
        // cursor, cursor×item, ×kind, and the negation's output: no
        // cursor × kind tokens.
        assert_eq!(rete.stats().tokens, 4);
        let inst = first(&rete);
        let classes: Vec<&str> = inst.wmes.iter().map(|w| w.class().as_str()).collect();
        assert_eq!(classes, ["cursor", "kind", "item"], "written CE order");
        assert_eq!(inst.wmes[0].id, cursor);
        assert_eq!(inst.bindings.get("w"), Some(&Value::Int(1)));
        assert_eq!(inst.bindings.get("j"), Some(&Value::Int(1)));
    }

    #[test]
    fn negated_ce_keeps_its_position_and_preceding_set() {
        let src = "(p r (a ^k <x>) (c ^m <z>) (b ^k <x>) -(veto ^k <x>)
                       (d ^n <w>) (e ^k <x> ^n <w>) --> (remove 1))";
        let plan = plans(src).remove(0).1;
        assert_eq!(plan, [0, 2, 1, 3, 5, 4]);
        let mut before: Vec<usize> = plan[..3].to_vec();
        before.sort_unstable();
        assert_eq!(before, [0, 1, 2], "the negation follows the same CEs");
    }

    #[test]
    fn ordering_test_before_its_binder_moves_to_the_binders_join() {
        let src = "(p r (a ^k <x>) (c ^v <y>) (b ^k <x> ^v > <y>) --> (remove 1))";
        assert_eq!(plans(src)[0].1, [0, 2, 1]);
        let (rules, mut wm) = setup(src);
        let mut rete = Rete::new(&rules, &wm);
        // `b.v > c.v`, evaluated at `c`'s join (one hop above: `b`) as
        // `c.v < b.v`.
        let moved = JoinTest {
            new_attr: Atom::from("v"),
            predicate: Predicate::Lt,
            target: TestTarget::Token {
                up: 0,
                attr: Atom::from("v"),
            },
        };
        let at_c = rete.net.nodes.iter().any(|n| match n {
            Node::Join { tests, .. } => tests == std::slice::from_ref(&moved),
            _ => false,
        });
        assert!(at_c, "converse test at the binder's join");
        apply_insert(&mut rete, &mut wm, WmeData::new("a").with("k", 1i64));
        apply_insert(
            &mut rete,
            &mut wm,
            WmeData::new("b").with("k", 1i64).with("v", 5i64),
        );
        apply_insert(&mut rete, &mut wm, WmeData::new("c").with("v", 7i64));
        assert!(rete.conflict_set().is_empty(), "5 > 7 is false");
        apply_insert(&mut rete, &mut wm, WmeData::new("c").with("v", 3i64));
        assert_eq!(rete.conflict_set().len(), 1);
        let inst = first(&rete);
        let classes: Vec<&str> = inst.wmes.iter().map(|w| w.class().as_str()).collect();
        assert_eq!(classes, ["a", "c", "b"]);
        assert_eq!(inst.bindings.get("y"), Some(&Value::Int(3)));
    }

    #[test]
    fn stats_track_activations() {
        let (rules, mut wm) = setup("(p r (a) (b) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(&mut rete, &mut wm, WmeData::new("a"));
        apply_insert(&mut rete, &mut wm, WmeData::new("b"));
        let s = rete.stats();
        assert!(s.right_activations >= 2);
        assert!(s.tokens > 0);
    }
}
