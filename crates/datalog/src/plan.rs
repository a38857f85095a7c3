//! Precomputed join plans: dense per-rule variable numbering, atom join
//! orders chosen by bound-variable selectivity, and the probe-index key
//! specifications those orders probe.
//!
//! The seed evaluator recomputed `rule.variables()` (and a fresh
//! binary-search closure over it) on **every** `rule_matches` invocation of
//! every delta round. A [`ProgramPlan`] hoists all of that: it is built once
//! per evaluation and shared — immutably, so also across worker threads —
//! by every round.
//!
//! For each rule we precompute one join order per "seeding" variant: the
//! naive variant (no atom restricted to a delta, used by round 0 and the
//! naive operator) and one variant per IDB body atom (the semi-naive work
//! items, where that occurrence reads the delta relation and is scanned
//! first). Orders are greedy: after the seed, repeatedly pick the atom with
//! the most argument positions over already-bound variables (ties prefer
//! EDB atoms, then source order), so each step can be answered by a sorted
//! probe index ([`crate::index`]) keyed on exactly those bound positions:
//! the relation itself when they are a prefix, else a permuted copy. A
//! negated literal over a unary predicate gets a spec of its own kind, a
//! membership bitmap, so the guard is one bit test.

use std::cmp::Reverse;

use hp_structures::{Elem, Relation};

use crate::ast::{PredRef, Program, Rule};
use crate::index::Source;

/// Key specification for one probe index: a predicate together with the
/// sorted tuple positions the key is drawn from. Interned per program so
/// equal specs across rules share one physical index — the relation's own
/// sorted store when the positions are the prefix `0..k`, else one
/// permuted copy.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct IndexSpec {
    /// Indexed predicate.
    pub pred: PredRef,
    /// Sorted tuple positions forming the key.
    pub key_positions: Vec<usize>,
    /// True for the membership bitmap of a negated unary guard (key `[0]`):
    /// a bit per universe element, tested rather than probed. Part of the
    /// interning key, so a guard never shares a positive probe's index
    /// on the same predicate and positions.
    pub guard: bool,
}

/// One body atom with its arguments renumbered to dense rule-local slots.
#[derive(Clone, Debug)]
pub(crate) struct AtomPlan {
    /// The predicate.
    pub pred: PredRef,
    /// Dense variable slot of each argument position.
    pub args: Vec<usize>,
    /// True for a negated literal: the step is a membership *guard* —
    /// scheduled only once every argument is bound, it filters rather than
    /// binds, and it never seeds a delta order.
    pub negated: bool,
}

/// One step of a join order: which atom to join next and how each of its
/// argument positions behaves at that point of the order.
#[derive(Clone, Debug)]
pub(crate) struct JoinStep {
    /// Body atom index this step joins.
    pub atom: usize,
    /// `(argument position, slot)` pairs whose variable is already bound by
    /// earlier steps, in argument-position order — these form the probe key.
    pub bound: Vec<(usize, usize)>,
    /// `(argument position, slot)` pairs binding a variable for the first
    /// time.
    pub binds: Vec<(usize, usize)>,
    /// `(later, earlier)` argument positions carrying the same — hitherto
    /// unbound — variable within this atom: candidate tuples must agree.
    pub repeats: Vec<(usize, usize)>,
    /// Index into [`ProgramPlan::index_specs`] to probe with the values of
    /// `bound`, or `None` to scan the whole relation (nothing bound yet, or
    /// the step reads a delta relation). On a negated step: the guard's
    /// membership bitmap when the predicate is unary, else `None` — the
    /// guard then probes the sealed relation itself.
    pub index: Option<usize>,
}

/// One work item's probe scratch: the key buffer every probe writes into,
/// so no probe allocates; one cursor per join depth — the start of that
/// depth's previous probe range, from which a sorted probe
/// ([`TupleStore::prefix_range_from`]) gallops forward while keys arrive
/// in ascending order, as they do under a sorted delta scan; and the
/// [`Source`] each depth probes, resolved on the item's first probe there.
///
/// [`TupleStore::prefix_range_from`]: hp_structures::TupleStore::prefix_range_from
pub(crate) struct ProbeScratch<'a> {
    key: Vec<Elem>,
    cursors: Vec<usize>,
    sources: Vec<Option<Source<'a>>>,
}

impl<'a> ProbeScratch<'a> {
    /// The scratch of an item of `depths` join steps.
    pub(crate) fn new(depths: usize) -> ProbeScratch<'a> {
        ProbeScratch {
            key: Vec::new(),
            cursors: vec![0; depths],
            sources: vec![None; depths],
        }
    }

    /// Write `step`'s probe key — the values of its bound slots under
    /// `asg` — into the buffer, and return it with the cursor of `depth`.
    pub(crate) fn key(
        &mut self,
        step: &JoinStep,
        depth: usize,
        asg: &[Elem],
    ) -> (&[Elem], &mut usize) {
        self.key.clear();
        self.key.extend(step.bound.iter().map(|&(_, s)| asg[s]));
        (&self.key, &mut self.cursors[depth])
    }

    /// The source of `relation()` keyed on `step`'s bound positions,
    /// looked up on the item's first probe at `depth`.
    pub(crate) fn source(
        &mut self,
        step: &JoinStep,
        depth: usize,
        relation: impl FnOnce() -> &'a Relation,
    ) -> Source<'a> {
        *self.sources[depth].get_or_insert_with(|| {
            let key: Vec<usize> = step.bound.iter().map(|&(i, _)| i).collect();
            relation().copy(&key)
        })
    }
}

/// Everything the join core needs to know about one rule, precomputed.
#[derive(Clone, Debug)]
pub(crate) struct RulePlan {
    /// IDB index of the head predicate.
    pub head: usize,
    /// Dense slot of each head argument.
    pub head_args: Vec<usize>,
    /// Number of dense variable slots in the rule.
    pub var_count: usize,
    /// Body atoms with dense argument slots.
    pub atoms: Vec<AtomPlan>,
    /// Join order when no atom is restricted to a delta (round 0, naive Φ).
    pub seed_order: Vec<JoinStep>,
    /// Join order seeded by each body atom as the delta atom, aligned with
    /// `atoms`; `None` for EDB atoms.
    pub delta_orders: Vec<Option<Vec<JoinStep>>>,
    /// Body atom indices that are IDB atoms — the semi-naive work items.
    pub idb_atoms: Vec<usize>,
}

/// Per-program metadata for the indexed join core: one [`RulePlan`] per
/// rule plus the interned set of index specs the orders probe.
#[derive(Clone, Debug)]
pub(crate) struct ProgramPlan {
    /// Rule plans, aligned with [`Program::rules`].
    pub rules: Vec<RulePlan>,
    /// Interned index-key specs referenced by [`JoinStep::index`].
    pub index_specs: Vec<IndexSpec>,
    /// Aligned with `index_specs`: whether the evaluator keeps an IDB
    /// index in step with its predicate as it grows. False when only the
    /// seed orders of rules in the predicate's own stratum probe it: such
    /// a rule is not an exit rule, so the fixpoint never runs its seed
    /// order (round 0 runs exit rules only), and the index is never read.
    /// Always true for a guard bitmap over an IDB: a negated predicate
    /// sits in a strictly lower stratum than every rule reading it. Unused
    /// for EDB specs.
    pub absorbed: Vec<bool>,
}

impl ProgramPlan {
    /// Build the plan for a validated program.
    pub fn new(p: &Program) -> ProgramPlan {
        let mut index_specs: Vec<IndexSpec> = Vec::new();
        let rules: Vec<RulePlan> = p
            .rules()
            .iter()
            .map(|r| RulePlan::new(r, &mut index_specs))
            .collect();
        let mut absorbed = vec![false; index_specs.len()];
        for (ri, rp) in rules.iter().enumerate() {
            // Delta orders run while the accumulated IDBs grow; a seed
            // order runs in round 0 only for an exit rule, whose IDB atoms
            // all lie in lower strata.
            for i in rp
                .delta_orders
                .iter()
                .flatten()
                .flatten()
                .filter_map(|s| s.index)
            {
                absorbed[i] = true;
            }
            for i in rp.seed_order.iter().filter_map(|s| s.index) {
                if let PredRef::Idb(q) = index_specs[i].pred {
                    absorbed[i] |= p.stratum_of(q) < p.rule_stratum(ri);
                }
            }
        }
        ProgramPlan {
            rules,
            index_specs,
            absorbed,
        }
    }
}

impl RulePlan {
    /// Build the plan for one rule, interning index specs into `specs`.
    /// Also used by the incremental-maintenance planner, which reuses the
    /// dense slotting and then derives its own orders with
    /// [`plan_steps`]/[`plan_steps_prebound`].
    pub(crate) fn new(rule: &Rule, specs: &mut Vec<IndexSpec>) -> RulePlan {
        let vars: Vec<u32> = rule.variables().into_iter().collect();
        let slot = |v: u32| vars.binary_search(&v).expect("rule variable");
        let atoms: Vec<AtomPlan> = rule
            .body
            .iter()
            .map(|a| AtomPlan {
                pred: a.pred,
                args: a.args.iter().map(|&v| slot(v)).collect(),
                negated: a.negated,
            })
            .collect();
        let PredRef::Idb(head) = rule.head.pred else {
            unreachable!("validated: rule heads are IDB atoms")
        };
        // Only *positive* IDB atoms are semi-naive work items: a negated
        // literal reads a sealed lower stratum, whose delta is empty by the
        // time this rule's stratum runs.
        let idb_atoms: Vec<usize> = atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a.pred, PredRef::Idb(_)) && !a.negated)
            .map(|(i, _)| i)
            .collect();
        let seed_order = plan_steps(&atoms, vars.len(), None, specs);
        let delta_orders = (0..atoms.len())
            .map(|i| {
                idb_atoms
                    .contains(&i)
                    .then(|| plan_steps(&atoms, vars.len(), Some(i), specs))
            })
            .collect();
        RulePlan {
            head,
            head_args: rule.head.args.iter().map(|&v| slot(v)).collect(),
            var_count: vars.len(),
            atoms,
            seed_order,
            delta_orders,
            idb_atoms,
        }
    }
}

/// Choose a greedy join order seeded by `seed` (the delta atom, scanned
/// first) and derive the per-step classification and index specs.
pub(crate) fn plan_steps(
    atoms: &[AtomPlan],
    var_count: usize,
    seed: Option<usize>,
    specs: &mut Vec<IndexSpec>,
) -> Vec<JoinStep> {
    plan_steps_inner(atoms, var_count, seed, &[], specs)
}

/// Like [`plan_steps`], but with some variable slots *prebound* before the
/// first step — the rederivation orders of DRed start from a fully bound
/// head tuple, so every step can be answered by an index probe on its
/// prebound-or-earlier-bound positions.
pub(crate) fn plan_steps_prebound(
    atoms: &[AtomPlan],
    var_count: usize,
    prebound: &[bool],
    specs: &mut Vec<IndexSpec>,
) -> Vec<JoinStep> {
    plan_steps_inner(atoms, var_count, None, prebound, specs)
}

fn plan_steps_inner(
    atoms: &[AtomPlan],
    var_count: usize,
    seed: Option<usize>,
    prebound: &[bool],
    specs: &mut Vec<IndexSpec>,
) -> Vec<JoinStep> {
    debug_assert!(prebound.is_empty() || prebound.len() == var_count);
    let mut order: Vec<usize> = Vec::new();
    let mut used = vec![false; atoms.len()];
    let mut bound_var = vec![false; var_count];
    for (v, &b) in prebound.iter().enumerate() {
        bound_var[v] = b;
    }
    if let Some(s) = seed {
        used[s] = true;
        order.push(s);
        for &v in &atoms[s].args {
            bound_var[v] = true;
        }
    }
    while order.len() < atoms.len() {
        // A negated atom is eligible only once all of its variables are
        // bound (guaranteed reachable: negation safety makes positive atoms
        // bind every negated variable). Among eligible atoms positive ones
        // win ties, so a scannable positive atom always opens the order
        // when one exists.
        let next = (0..atoms.len())
            .filter(|&ai| {
                !used[ai] && (!atoms[ai].negated || atoms[ai].args.iter().all(|&s| bound_var[s]))
            })
            .max_by_key(|&ai| {
                let bound = atoms[ai].args.iter().filter(|&&s| bound_var[s]).count();
                (
                    bound,
                    !atoms[ai].negated,
                    matches!(atoms[ai].pred, PredRef::Edb(_)),
                    Reverse(ai),
                )
            })
            .expect("unused atom remains");
        used[next] = true;
        order.push(next);
        for &v in &atoms[next].args {
            bound_var[v] = true;
        }
    }
    // Derive the step classifications along the chosen order.
    let mut bound_var = vec![false; var_count];
    for (v, &b) in prebound.iter().enumerate() {
        bound_var[v] = b;
    }
    order
        .iter()
        .map(|&ai| {
            let atom = &atoms[ai];
            let mut bound = Vec::new();
            let mut binds: Vec<(usize, usize)> = Vec::new();
            let mut repeats = Vec::new();
            for (i, &s) in atom.args.iter().enumerate() {
                if bound_var[s] {
                    bound.push((i, s));
                } else if let Some(&(j, _)) = binds.iter().find(|&&(_, t)| t == s) {
                    repeats.push((i, j));
                } else {
                    binds.push((i, s));
                }
            }
            for &(_, s) in &binds {
                bound_var[s] = true;
            }
            // The delta atom (always at depth 0) reads the per-round delta
            // relation, which is scanned, never indexed. A negated guard
            // over a unary predicate tests one bit of its membership bitmap;
            // a wider (or 0-ary) guard is a sorted-store probe of the
            // sealed relation from the depth's cursor, not an index. Any
            // other step with at least one bound position probes an index
            // on exactly those positions.
            let reads_delta = seed == Some(ai);
            let index = if atom.negated {
                (atom.args.len() == 1).then(|| intern(specs, atom.pred, vec![0], true))
            } else {
                (!bound.is_empty() && !reads_delta).then(|| {
                    intern(
                        specs,
                        atom.pred,
                        bound.iter().map(|&(i, _)| i).collect(),
                        false,
                    )
                })
            };
            JoinStep {
                atom: ai,
                bound,
                binds,
                repeats,
                index,
            }
        })
        .collect()
}

fn intern(
    specs: &mut Vec<IndexSpec>,
    pred: PredRef,
    key_positions: Vec<usize>,
    guard: bool,
) -> usize {
    let spec = IndexSpec {
        pred,
        key_positions,
        guard,
    };
    if let Some(i) = specs.iter().position(|s| *s == spec) {
        i
    } else {
        specs.push(spec);
        specs.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_structures::Vocabulary;

    fn tc() -> Program {
        Program::parse(
            "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).",
            &Vocabulary::digraph(),
        )
        .unwrap()
    }

    #[test]
    fn tc_plan_shape() {
        let plan = ProgramPlan::new(&tc());
        assert_eq!(plan.rules.len(), 2);
        let r1 = &plan.rules[1];
        assert_eq!(r1.var_count, 3);
        assert_eq!(r1.idb_atoms, vec![1]);
        // Delta order for the T(z,y) atom: T first, then E probed on its
        // second position (z bound).
        let steps = r1.delta_orders[1].as_ref().unwrap();
        assert_eq!(steps[0].atom, 1);
        assert!(steps[0].index.is_none());
        assert_eq!(steps[1].atom, 0);
        let spec = &plan.index_specs[steps[1].index.unwrap()];
        assert_eq!(spec.key_positions, vec![1]);
    }

    #[test]
    fn repeated_variable_within_atom_is_a_repeat_check() {
        let p = Program::parse("L(x) :- E(x,x).", &Vocabulary::digraph()).unwrap();
        let plan = ProgramPlan::new(&p);
        let step = &plan.rules[0].seed_order[0];
        assert_eq!(step.binds, vec![(0, 0)]);
        assert_eq!(step.repeats, vec![(1, 0)]);
        assert!(step.bound.is_empty());
        assert!(step.index.is_none());
    }

    #[test]
    fn unary_guards_get_a_membership_spec_of_their_own() {
        // `R` is probed on position 0 and guarded on position 0: two specs,
        // only the guard's marked, and the guard's IDB bitmap is absorbed.
        // The binary guard `not E(y,x)` gets no spec at all.
        let p = Program::parse(
            "R(x) :- M(x).\nS(x) :- E(x,y), R(y), not R(x).\nU(x) :- E(x,y), not E(y,x).",
            &Vocabulary::from_pairs([("E", 2), ("M", 1)]),
        )
        .unwrap();
        let plan = ProgramPlan::new(&p);
        let r = p.idbs().iter().position(|(n, _)| n == "R").unwrap();
        let on_r: Vec<(bool, bool)> = (0..plan.index_specs.len())
            .filter(|&i| plan.index_specs[i].pred == PredRef::Idb(r))
            .map(|i| (plan.index_specs[i].guard, plan.absorbed[i]))
            .collect();
        assert_eq!(on_r, vec![(false, true), (true, true)]);
        let u = p.idbs().iter().position(|(n, _)| n == "U").unwrap();
        let rp = plan.rules.iter().find(|rp| rp.head == u).unwrap();
        let guard = &rp.seed_order[1];
        assert!(rp.atoms[guard.atom].negated && guard.index.is_none());
    }

    #[test]
    fn specs_are_interned_across_rules() {
        // Both rules probe E on position 1 after seeding from the IDB atom;
        // the spec is shared.
        let p = Program::parse(
            "A(x) :- E(x,x).\nA(x) :- E(x,y), A(y).\nB(x) :- E(x,y), B(y).\nB(x) :- E(x,x).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        let plan = ProgramPlan::new(&p);
        let probe_specs: Vec<usize> = plan
            .rules
            .iter()
            .flat_map(|r| r.delta_orders.iter().flatten())
            .flat_map(|steps| steps.iter().filter_map(|s| s.index))
            .collect();
        assert!(!probe_specs.is_empty());
        assert!(probe_specs.windows(2).all(|w| w[0] == w[1]));
    }
}
