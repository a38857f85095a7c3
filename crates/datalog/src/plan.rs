//! Precomputed join plans: dense per-rule variable numbering, and atom
//! join orders chosen by bound-variable selectivity.
//!
//! The seed evaluator recomputed `rule.variables()` (and a fresh
//! binary-search closure over it) on **every** `rule_matches` invocation of
//! every delta round. A [`ProgramPlan`] hoists all of that: it is built once
//! per evaluation and shared — immutably, so also across worker threads —
//! by every round.
//!
//! For each rule we plan one join order per "seeding" variant: the naive
//! variant (no atom restricted to a delta, used by round 0 and the naive
//! operator), one variant per positive body atom (the semi-naive work
//! items, where that occurrence reads a delta — an IDB's last round, or
//! in maintenance an insertion or deletion batch — and is scanned first),
//! and the rederivation order of incremental maintenance, which starts
//! from a bound head tuple. Evaluation and maintenance read the same
//! [`ProgramPlan`]; all but the naive variant are planned on first use,
//! so an evaluation plans only the orders it runs. Orders are greedy: after the seed, repeatedly
//! pick the atom with the most argument positions over already-bound
//! variables (ties prefer EDB atoms, then source order). A plan names no
//! index: each step's [`JoinStep::bound`] positions are the key, and
//! every structure a probe reads belongs to the relation it reads
//! ([`Relation::copy`], [`Relation::holds`]), in one of three shapes:
//!
//! - **identity** (key positions are the prefix `0..k`): nothing is built.
//!   The relation's own sealed store is already sorted lexicographically,
//!   so a probe is [`TupleStore::prefix_rows`] on it — a chunked
//!   search over the leading column planes that gallops forward from the
//!   caller's cursor while keys ascend.
//! - **permuted copy** (any other key positions): a sorted copy with the
//!   key columns moved to the front, probed the same way, built on the
//!   first probe that needs it and spliced by every later write (a
//!   maintenance batch, a round's delta merge, a served update).
//!   Evaluations, snapshots and views sharing a relation share its copies;
//!   results leave an evaluation without them.
//! - **membership bitmap** (a negated literal over a unary predicate): one
//!   bit per value up to the relation's largest member, so the guard is a
//!   single bit test, built and kept in step the same way. A wider guard
//!   probes the sealed store.
//!
//! [`TupleStore::prefix_rows`]: hp_structures::TupleStore::prefix_rows

use std::cmp::Reverse;
use std::sync::{Arc, OnceLock};

use hp_structures::{Cursor, Elem, Relation, Row, RowRef, TupleStore};

use crate::ast::{PredRef, Program, Rule};
use crate::depgraph::DepGraph;

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
    /// earlier steps (or prebound), in argument-position order — these form
    /// the probe key. Empty on a step that scans: nothing is bound yet, or
    /// the step is the delta atom at depth 0, which scans its delta.
    pub bound: Vec<(usize, usize)>,
    /// `(argument position, slot)` pairs binding a variable for the first
    /// time.
    pub binds: Vec<(usize, usize)>,
    /// `(later, earlier)` argument positions carrying the same — hitherto
    /// unbound — variable within this atom: candidate tuples must agree.
    pub repeats: Vec<(usize, usize)>,
}

/// One candidate row handed out by a probe, in the atom's original column
/// order regardless of how the backing store holds it.
#[derive(Clone, Copy)]
pub(crate) enum ResolvedRow<'a> {
    /// A row of a sealed store already in original column order.
    Direct(RowRef<'a>),
    /// A permuted-copy row read through the copy's position map.
    Permuted {
        row: RowRef<'a>,
        pos_of: &'a [usize],
    },
}

impl<'a> ResolvedRow<'a> {
    /// A row of a [`Source`]'s store, read through its position map.
    #[inline]
    pub(crate) fn new(row: RowRef<'a>, pos_of: Option<&'a [usize]>) -> Self {
        match pos_of {
            Some(pos_of) => ResolvedRow::Permuted { row, pos_of },
            None => ResolvedRow::Direct(row),
        }
    }
}

impl Row for ResolvedRow<'_> {
    #[inline]
    fn width(&self) -> usize {
        match self {
            ResolvedRow::Direct(r) => r.len(),
            ResolvedRow::Permuted { pos_of, .. } => pos_of.len(),
        }
    }

    #[inline]
    fn at(&self, i: usize) -> Elem {
        match self {
            ResolvedRow::Direct(r) => r.get(i),
            ResolvedRow::Permuted { row, pos_of } => row.get(pos_of[i]),
        }
    }
}

/// What a probe step searches, as [`Relation::copy`] hands it out: a
/// sorted store and the map to read its rows in original column order
/// (`None` when they already are).
pub(crate) type Source<'a> = (&'a TupleStore, Option<&'a [usize]>);

/// One work item's probe scratch: the key buffer every probe writes into,
/// so no probe allocates; one cursor per join depth — the start of that
/// depth's previous probe range, from which a sorted probe
/// ([`TupleStore::prefix_rows`]) gallops forward while keys arrive
/// in ascending order, as they do under a sorted delta scan; and the
/// [`Source`] each depth probes, resolved on the item's first probe there.
pub(crate) struct ProbeScratch<'a> {
    key: Vec<Elem>,
    cursors: Vec<Cursor>,
    sources: Vec<Option<Source<'a>>>,
}

impl<'a> ProbeScratch<'a> {
    /// The scratch of an item of `depths` join steps.
    pub(crate) fn new(depths: usize) -> ProbeScratch<'a> {
        ProbeScratch {
            key: Vec::new(),
            cursors: vec![Cursor::default(); depths],
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
    ) -> (&[Elem], &mut Cursor) {
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
    /// `(later, earlier)` head argument positions carrying the same
    /// variable: a concrete head tuple must agree on them before its slots
    /// can be prebound.
    pub head_repeats: Vec<(usize, usize)>,
    /// Number of dense variable slots in the rule.
    pub var_count: usize,
    /// Body atoms with dense argument slots.
    pub atoms: Vec<AtomPlan>,
    /// Join order when no atom is restricted to a delta (round 0, naive Φ).
    pub seed_order: Vec<JoinStep>,
    /// [`RulePlan::seeded_order`] per body atom, planned on first use:
    /// evaluation seeds by IDB atoms only, maintenance by every positive
    /// atom.
    seeded_orders: Vec<OnceLock<Vec<JoinStep>>>,
    /// [`RulePlan::rederive_order`], planned on first use.
    rederive_order: OnceLock<Vec<JoinStep>>,
    /// Body atom indices that are positive IDB atoms — the semi-naive
    /// work items.
    pub idb_atoms: Vec<usize>,
}

/// Per-program metadata for the indexed join core: one [`RulePlan`] per
/// rule, and the dependency graph whose SCCs maintenance visits.
#[derive(Clone, Debug)]
pub(crate) struct ProgramPlan {
    /// Rule plans, aligned with [`Program::rules`].
    pub rules: Vec<RulePlan>,
    /// The program's dependency graph ([`Program::graph`]), shared with
    /// it rather than copied.
    pub graph: Arc<DepGraph>,
}

impl ProgramPlan {
    /// Build the plan for a validated program.
    pub fn new(p: &Program) -> ProgramPlan {
        ProgramPlan {
            rules: p.rules().iter().map(RulePlan::new).collect(),
            graph: Arc::clone(&p.graph),
        }
    }
}

impl RulePlan {
    /// Build the plan for one rule.
    pub(crate) fn new(rule: &Rule) -> RulePlan {
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
        let head_args: Vec<usize> = rule.head.args.iter().map(|&v| slot(v)).collect();
        let mut head_repeats = Vec::new();
        for (i, &s) in head_args.iter().enumerate() {
            if let Some(j) = head_args[..i].iter().position(|&t| t == s) {
                head_repeats.push((i, j));
            }
        }
        // Only *positive* IDB atoms are semi-naive work items: a negated
        // literal reads a sealed lower stratum, whose delta is empty by the
        // time this rule's stratum runs.
        let idb_atoms: Vec<usize> = atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a.pred, PredRef::Idb(_)) && !a.negated)
            .map(|(i, _)| i)
            .collect();
        let seed_order = plan_steps(&atoms, None, &vec![false; vars.len()]);
        RulePlan {
            head,
            head_args,
            head_repeats,
            var_count: vars.len(),
            seed_order,
            seeded_orders: atoms.iter().map(|_| OnceLock::new()).collect(),
            rederive_order: OnceLock::new(),
            idb_atoms,
            atoms,
        }
    }

    /// The join order seeded by positive body atom `i`, which it scans
    /// first.
    pub(crate) fn seeded_order(&self, i: usize) -> &[JoinStep] {
        debug_assert!(!self.atoms[i].negated, "a negated atom never seeds");
        self.seeded_orders[i]
            .get_or_init(|| plan_steps(&self.atoms, Some(i), &vec![false; self.var_count]))
    }

    /// The order with every head variable prebound: DRed's rederivation
    /// probe for one concrete head tuple.
    pub(crate) fn rederive_order(&self) -> &[JoinStep] {
        self.rederive_order.get_or_init(|| {
            let mut prebound = vec![false; self.var_count];
            for &s in &self.head_args {
                prebound[s] = true;
            }
            plan_steps(&self.atoms, None, &prebound)
        })
    }
}

/// Choose a greedy join order seeded by `seed` (the delta atom, scanned
/// first), with the variable slots flagged in `prebound` (one flag per
/// slot) bound before the first step — DRed's rederivation order starts
/// from a bound head tuple, so every step is a probe — and derive the
/// per-step classification.
fn plan_steps(atoms: &[AtomPlan], seed: Option<usize>, prebound: &[bool]) -> Vec<JoinStep> {
    let mut order: Vec<usize> = Vec::new();
    let mut used = vec![false; atoms.len()];
    let mut bound_var = prebound.to_vec();
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
    let mut bound_var = prebound.to_vec();
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
            // The delta atom (always at depth 0) binds before anything is
            // bound, so it scans: `bound` is empty.
            debug_assert!(seed != Some(ai) || bound.is_empty());
            JoinStep {
                atom: ai,
                bound,
                binds,
                repeats,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_structures::generators::directed_path;
    use hp_structures::Rows;
    use hp_structures::{permuted_copy, Structure, SymbolId, Vocabulary};

    fn tc() -> Program {
        Program::parse(
            "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).",
            &Vocabulary::digraph(),
        )
        .unwrap()
    }

    /// The argument positions `step` probes on.
    fn key_of(step: &JoinStep) -> Vec<usize> {
        step.bound.iter().map(|&(i, _)| i).collect()
    }

    /// Every `(predicate, key positions)` a positive step of `plan`
    /// probes, in first-use order.
    fn probed(plan: &ProgramPlan) -> Vec<(PredRef, Vec<usize>)> {
        let mut keys = Vec::new();
        for rp in &plan.rules {
            let positive = (0..rp.atoms.len()).filter(|&i| !rp.atoms[i].negated);
            let seeded = positive.map(|i| rp.seeded_order(i));
            for steps in std::iter::once(&rp.seed_order[..]).chain(seeded) {
                for step in steps.iter().filter(|s| !s.bound.is_empty()) {
                    let probe = (rp.atoms[step.atom].pred, key_of(step));
                    if !rp.atoms[step.atom].negated && !keys.contains(&probe) {
                        keys.push(probe);
                    }
                }
            }
        }
        keys
    }

    type Probe<'a> = (&'a TupleStore, Option<&'a [usize]>, Rows<'a>);

    /// The rows of `source` whose key columns equal `key`, galloping from
    /// `cursor` as the join does.
    fn probe<'a>((store, pos_of): Source<'a>, key: &[Elem], cursor: &mut Cursor) -> Probe<'a> {
        (store, pos_of, store.prefix_rows(key, cursor))
    }

    fn collect((_, pos_of, rows): Probe<'_>) -> Vec<Vec<Elem>> {
        rows.map(|t| ResolvedRow::new(t, pos_of).to_elems())
            .collect()
    }

    /// The source an EDB probe on `key` reads: its relation's store or copy.
    fn source<'a>(a: &'a Structure, pred: PredRef, key: &[usize]) -> Source<'a> {
        let PredRef::Edb(sym) = pred else {
            unreachable!("an EDB probe")
        };
        a.relation(sym).copy(key)
    }

    #[test]
    fn tc_plan_shape() {
        let plan = ProgramPlan::new(&tc());
        assert_eq!(plan.rules.len(), 2);
        let r1 = &plan.rules[1];
        assert_eq!(r1.var_count, 3);
        assert_eq!(r1.idb_atoms, vec![1]);
        // Delta order for the T(z,y) atom: T first (scanned), then E probed
        // on its second position (z bound).
        let steps = r1.seeded_order(1);
        assert_eq!(steps[0].atom, 1);
        assert!(steps[0].bound.is_empty());
        assert_eq!(steps[1].atom, 0);
        assert_eq!(key_of(&steps[1]), vec![1]);
    }

    #[test]
    fn repeated_variable_within_atom_is_a_repeat_check() {
        let p = Program::parse("L(x) :- E(x,x).", &Vocabulary::digraph()).unwrap();
        let plan = ProgramPlan::new(&p);
        let step = &plan.rules[0].seed_order[0];
        assert_eq!(step.binds, vec![(0, 0)]);
        assert_eq!(step.repeats, vec![(1, 0)]);
        assert!(step.bound.is_empty());
    }

    #[test]
    fn guards_come_last_with_every_argument_bound() {
        // `R` is probed on position 0 and guarded on position 0; the unary
        // guard `not R(x)` and the binary guard `not E(y,x)` both run once
        // every argument is bound, binding nothing.
        let p = Program::parse(
            "R(x) :- M(x).\nS(x) :- E(x,y), R(y), not R(x).\nU(x) :- E(x,y), not E(y,x).",
            &Vocabulary::from_pairs([("E", 2), ("M", 1)]),
        )
        .unwrap();
        let plan = ProgramPlan::new(&p);
        let r = p.idbs().iter().position(|(n, _)| n == "R").unwrap();
        assert!(probed(&plan).contains(&(PredRef::Idb(r), vec![0])));
        for (head, key) in [("S", vec![0]), ("U", vec![0, 1])] {
            let h = p.idbs().iter().position(|(n, _)| n == head).unwrap();
            let rp = plan.rules.iter().find(|rp| rp.head == h).unwrap();
            let guard = rp.seed_order.last().unwrap();
            assert!(rp.atoms[guard.atom].negated, "{head}");
            assert_eq!(key_of(guard), key, "{head}");
            assert!(guard.binds.is_empty() && guard.repeats.is_empty(), "{head}");
        }
    }

    #[test]
    fn edb_copies_probe_by_position() {
        let plan = ProgramPlan::new(&tc());
        let a = directed_path(4);
        // The TC delta order probes E on its second position; edges into
        // element 2 = {(1,2)}.
        let (pred, key) = probed(&plan)
            .into_iter()
            .find(|(pred, key)| matches!(pred, PredRef::Edb(_)) && *key == vec![1])
            .expect("E probed on position 1");
        let hits = collect(probe(
            source(&a, pred, &key),
            &[Elem(2)],
            &mut Cursor::default(),
        ));
        assert_eq!(hits, vec![vec![Elem(1), Elem(2)]]);
        assert!(collect(probe(
            source(&a, pred, &key),
            &[Elem(0)],
            &mut Cursor::default()
        ))
        .is_empty());
    }

    #[test]
    fn prefix_keys_probe_the_relation_directly() {
        let p = Program::parse(
            "R(y) :- S(x), E(x,y).\nR(y) :- R(x), E(x,y).",
            &Vocabulary::from_pairs([("E", 2), ("S", 1)]),
        )
        .unwrap();
        let plan = ProgramPlan::new(&p);
        let mut a = Structure::new(p.edb().clone(), 4);
        for i in 0..3u32 {
            a.add_tuple_ids(0, &[i, i + 1]).unwrap();
        }
        a.add_tuple_ids(1, &[0]).unwrap();
        let (pred, key) = probed(&plan)
            .into_iter()
            .find(|(pred, key)| matches!(pred, PredRef::Edb(_)) && *key == vec![0])
            .expect("E probed on position 0 (the linear chain probe)");
        let e = a.relation(SymbolId::from(0usize));
        let (store, pos_of, _) = probe(source(&a, pred, &key), &[Elem(2)], &mut Cursor::default());
        assert!(e.copies().next().is_none());
        assert!(std::ptr::eq(store, e.store()) && pos_of.is_none());
        let hits = collect(probe(
            source(&a, pred, &key),
            &[Elem(2)],
            &mut Cursor::default(),
        ));
        assert_eq!(hits, vec![vec![Elem(2), Elem(3)]]);
    }

    #[test]
    fn permuted_rows_come_back_in_original_column_order() {
        let mut a = directed_path(4);
        a.add_tuple_ids(0, &[0, 2]).unwrap();
        a.add_tuple_ids(0, &[3, 2]).unwrap();
        let e = PredRef::Edb(SymbolId::from(0usize));
        // Edges into 2: (0,2), (1,2), (3,2) — ascending by the remaining
        // (source) column, exactly the relation's own row order restricted
        // to the key, with every row decoded back to (src, dst).
        let hits = collect(probe(
            source(&a, e, &[1]),
            &[Elem(2)],
            &mut Cursor::default(),
        ));
        assert_eq!(
            hits,
            vec![
                vec![Elem(0), Elem(2)],
                vec![Elem(1), Elem(2)],
                vec![Elem(3), Elem(2)],
            ]
        );
    }

    #[test]
    fn a_shared_cursor_never_changes_an_answer() {
        // One cursor through ascending, repeated and descending keys, on
        // both sorted shapes: every answer equals a fresh-cursor probe.
        let p = Program::parse(
            "R(y) :- S(x), E(x,y).\nR(y) :- R(x), E(x,y).\nT(x) :- E(x,y), R(y).",
            &Vocabulary::from_pairs([("E", 2), ("S", 1)]),
        )
        .unwrap();
        let plan = ProgramPlan::new(&p);
        let mut a = Structure::new(p.edb().clone(), 200);
        for i in 0..200u32 {
            for d in [1, 7, 30] {
                a.add_tuple_ids(0, &[i, (i * d + 3) % 200]).unwrap();
            }
        }
        let keys: Vec<u32> = (0..200)
            .chain([5, 5, 199, 0, 150, 150, 3])
            .chain((0..200).rev())
            .collect();
        // The orders seeded by an EDB atom (maintenance's) also probe `S`,
        // which this structure leaves empty.
        let e = PredRef::Edb(SymbolId::from(0usize));
        let edb_probes: Vec<_> = probed(&plan)
            .into_iter()
            .filter(|(pred, _)| *pred == e)
            .collect();
        assert_eq!(edb_probes.len(), 2, "E on [0] and on [1]");
        for (pred, key) in edb_probes {
            let mut cursor = Cursor::default();
            for &k in &keys {
                let got = collect(probe(source(&a, pred, &key), &[Elem(k)], &mut cursor));
                assert_eq!(
                    got,
                    collect(probe(
                        source(&a, pred, &key),
                        &[Elem(k)],
                        &mut Cursor::default()
                    ))
                );
            }
        }
    }

    #[test]
    fn idb_copies_follow_absorbed_deltas() {
        // Nonlinear TC probes T on [0] (a prefix: the identity, no copy)
        // and on [1] (a permuted copy absorbing every delta).
        let p = Program::parse(
            "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), T(y,z).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        let plan = ProgramPlan::new(&p);
        let on_t: Vec<Vec<usize>> = probed(&plan)
            .into_iter()
            .filter(|(pred, _)| *pred == PredRef::Idb(0))
            .map(|(_, key)| key)
            .collect();
        assert_eq!(on_t, vec![vec![0], vec![1]]);
        let mut idb = p.empty_idbs();
        // Stage Φ⁰: the copy is built over the empty relation, then follows
        // every merged delta.
        idb[0].copy(&[1]);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for round in 0..6 {
            let mut batch = Relation::new(2);
            for _ in 0..15 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                batch.insert(&[Elem((x % 12) as u32), Elem(((x >> 32) % 12) as u32)]);
            }
            // A delta holds only tuples new to the accumulated relation.
            let mut delta = p.empty_idbs();
            delta[0].merge_store(&batch.store().difference(idb[0].store()));
            idb[0].merge(&delta[0]);

            let copy = idb[0].copies().next().map(|(_, s)| s.clone());
            let want = Some(permuted_copy(&[1], idb[0].store()).1);
            assert_eq!(copy, want, "round {round}");
            for col in [0, 1] {
                let mut cursor = Cursor::default();
                for k in 0..12u32 {
                    let mut got = collect(probe(idb[0].copy(&[col]), &[Elem(k)], &mut cursor));
                    got.sort();
                    let scan: Vec<Vec<Elem>> = idb[0]
                        .iter()
                        .filter(|t| t.get(col) == Elem(k))
                        .map(|t| t.to_vec())
                        .collect();
                    assert_eq!(got, scan, "round {round}, column {col}, key {k}");
                }
            }
            assert_eq!(idb[0].copies().count(), 1);
            // A resumed run builds the same copy from the accumulated
            // relation in one go.
            let mut rebuilt = Relation::new(2);
            rebuilt.merge_store(idb[0].store());
            assert_eq!(Some(rebuilt.copy(&[1]).0), copy.as_ref());
        }
    }
}
