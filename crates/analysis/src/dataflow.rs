//! A monotone-dataflow framework over the predicate dependency graph.
//!
//! An analysis assigns every IDB predicate a value from a join-semilattice
//! of finite height and declares how values flow through rules: **forward**
//! analyses push body-predicate values into heads (derivability-style
//! facts), **backward** analyses pull head values into body predicates
//! (demand-style facts). The [`solve`] driver iterates the program's SCCs
//! in the topological order the [`Pdg`] condensation provides —
//! dependencies first for forward flows, dependents first for backward —
//! and runs a change-driven loop inside each component, so nonrecursive
//! programs solve in one sweep and iteration cost is confined to the
//! recursive SCCs.
//!
//! Three analyses ship with the framework and power the HP006/HP007,
//! HP015, and HP008/HP014 passes:
//!
//! - [`Relevance`] — backward demand from the goal: which predicates can
//!   influence the goal relation at all;
//! - [`PossiblyNonempty`] — forward derivability: which predicates have
//!   *some* EDB on which they are nonempty (the complement is the
//!   guaranteed-emptiness warning);
//! - [`StageDepth`] — forward stage accounting: an upper bound on the
//!   stage at which each nonrecursive predicate stabilizes (`∞` inside
//!   recursive SCCs), which both sharpens the nonrecursive HP008 message
//!   and seeds the HP014 boundedness search with a provably sufficient
//!   stage cap.

use hp_datalog::{PredRef, Rule};

use crate::facts::ProgramFacts;
use crate::pdg::Pdg;

/// A join-semilattice value of finite height. `join` folds another value
/// in and reports whether anything changed; the solver iterates until no
/// join changes anything, so heights must be finite for termination.
pub trait JoinSemiLattice: Clone {
    /// Least-upper-bound accumulation; returns `true` when `self` grew.
    fn join(&mut self, other: &Self) -> bool;
}

impl JoinSemiLattice for bool {
    fn join(&mut self, other: &bool) -> bool {
        let grew = !*self && *other;
        *self |= *other;
        grew
    }
}

/// Which way values flow through rules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Body-predicate values determine head values (derivability facts).
    Forward,
    /// Head values determine body-predicate values (demand facts).
    Backward,
}

/// A dataflow analysis: a lattice, a seed, and a per-rule transfer
/// function.
pub trait DataflowAnalysis {
    /// The lattice of per-predicate values.
    type Value: JoinSemiLattice;

    /// Short machine-friendly name (diagnostics, debugging).
    fn name(&self) -> &'static str;

    /// Flow direction.
    fn direction(&self) -> Direction;

    /// The seed value for predicate `pred` before any rule flows.
    fn init(&self, facts: &ProgramFacts, pdg: &Pdg, pred: usize) -> Self::Value;

    /// The value rule `ri` contributes to predicate `target`, given the
    /// current `values` of every IDB predicate. Forward analyses are
    /// called with `target` = the rule's head; backward analyses with
    /// `target` = each distinct IDB predicate in the rule's body. The
    /// contribution is joined into `values[target]`.
    fn transfer(
        &self,
        facts: &ProgramFacts,
        pdg: &Pdg,
        ri: usize,
        rule: &Rule,
        target: usize,
        values: &[Self::Value],
    ) -> Self::Value;
}

/// Solve an analysis to its least fixpoint over the PDG. Returns the
/// per-predicate values, indexed by IDB predicate.
pub fn solve<A: DataflowAnalysis>(a: &A, facts: &ProgramFacts, pdg: &Pdg) -> Vec<A::Value> {
    let n = pdg.num_preds();
    let mut values: Vec<A::Value> = (0..n).map(|p| a.init(facts, pdg, p)).collect();
    let scc_order: Vec<usize> = match a.direction() {
        Direction::Forward => (0..pdg.scc_count()).collect(),
        Direction::Backward => (0..pdg.scc_count()).rev().collect(),
    };
    for s in scc_order {
        // Change-driven loop within the component. A single sweep
        // suffices for non-recursive SCCs; recursive ones iterate until
        // the (finite-height) lattice stabilizes.
        loop {
            let mut changed = false;
            for &p in pdg.scc_members(s) {
                let incoming: &[usize] = match a.direction() {
                    Direction::Forward => pdg.rules_of(p),
                    Direction::Backward => pdg.rules_using(p),
                };
                for &ri in incoming {
                    let v = a.transfer(facts, pdg, ri, &facts.rules[ri], p, &values);
                    changed |= values[p].join(&v);
                }
            }
            if !changed {
                break;
            }
        }
    }
    values
}

/// Backward demand analysis: a predicate is *relevant* when the goal
/// (transitively) depends on it. Seeds the goal with `true`; a rule
/// transfers its head's relevance to every IDB predicate in its body.
/// With no designated goal every predicate stays irrelevant — passes
/// treat that case as "no demand information" and stay silent.
pub struct Relevance;

impl DataflowAnalysis for Relevance {
    type Value = bool;

    fn name(&self) -> &'static str {
        "relevance"
    }

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn init(&self, facts: &ProgramFacts, _pdg: &Pdg, pred: usize) -> bool {
        facts.goal == Some(pred)
    }

    fn transfer(
        &self,
        _facts: &ProgramFacts,
        _pdg: &Pdg,
        _ri: usize,
        rule: &Rule,
        _target: usize,
        values: &[bool],
    ) -> bool {
        match rule.head.pred {
            PredRef::Idb(h) if h < values.len() => values[h],
            _ => false,
        }
    }
}

/// Forward derivability analysis: a predicate is *possibly nonempty* when
/// some EDB structure makes its relation nonempty. A rule derives its
/// head as soon as every **positive** IDB predicate in its body is
/// possibly nonempty (EDB atoms are satisfiable by a suitably rich input;
/// on the 1-element structure with all EDB relations full, possibility
/// and actuality coincide, so the analysis is exact for positive
/// programs). Negated literals are skipped: a `not Q(..)` guard is
/// satisfied by making `Q`'s supporting facts absent, so it never forces
/// emptiness — under negation the analysis is a sound
/// over-approximation. Predicates that end up `false` are **guaranteed
/// empty on every input** — the HP015 warning.
pub struct PossiblyNonempty;

impl DataflowAnalysis for PossiblyNonempty {
    type Value = bool;

    fn name(&self) -> &'static str {
        "possibly-nonempty"
    }

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn init(&self, _facts: &ProgramFacts, _pdg: &Pdg, _pred: usize) -> bool {
        false
    }

    fn transfer(
        &self,
        _facts: &ProgramFacts,
        _pdg: &Pdg,
        _ri: usize,
        rule: &Rule,
        _target: usize,
        values: &[bool],
    ) -> bool {
        rule.body.iter().all(|a| match a.pred {
            PredRef::Idb(q) if !a.negated => q < values.len() && values[q],
            // Negated guards (and EDB atoms) never block derivability.
            _ => true,
        })
    }
}

/// A stage bound: `Finite(s)` means the predicate's relation provably
/// stabilizes by stage `s` on every structure; [`StageBound::Unbounded`]
/// is the lattice top, used for predicates inside recursive SCCs where
/// this purely syntactic accounting gives no bound.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StageBound {
    /// Stable by the given stage on every input.
    Finite(usize),
    /// No syntactic bound (recursive component).
    Unbounded,
}

impl StageBound {
    /// The finite bound, if any.
    pub fn finite(self) -> Option<usize> {
        match self {
            StageBound::Finite(s) => Some(s),
            StageBound::Unbounded => None,
        }
    }
}

impl JoinSemiLattice for StageBound {
    fn join(&mut self, other: &StageBound) -> bool {
        let joined = match (*self, *other) {
            (StageBound::Unbounded, _) | (_, StageBound::Unbounded) => StageBound::Unbounded,
            (StageBound::Finite(a), StageBound::Finite(b)) => StageBound::Finite(a.max(b)),
        };
        let grew = joined != *self;
        *self = joined;
        grew
    }
}

/// Forward stage accounting. A predicate with no rules is stable at stage
/// 0 (always empty); a nonrecursive predicate is stable one stage after
/// all its body predicates are; predicates in recursive SCCs get
/// [`StageBound::Unbounded`]. The maximum finite bound over all
/// predicates upper-bounds the `m₀` of §2.3 for nonrecursive programs and
/// seeds the HP014 stage cap.
pub struct StageDepth;

impl DataflowAnalysis for StageDepth {
    type Value = StageBound;

    fn name(&self) -> &'static str {
        "stage-depth"
    }

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn init(&self, _facts: &ProgramFacts, pdg: &Pdg, pred: usize) -> StageBound {
        if pdg.is_recursive_pred(pred) {
            StageBound::Unbounded
        } else {
            StageBound::Finite(0)
        }
    }

    fn transfer(
        &self,
        _facts: &ProgramFacts,
        pdg: &Pdg,
        _ri: usize,
        rule: &Rule,
        target: usize,
        values: &[StageBound],
    ) -> StageBound {
        if pdg.is_recursive_pred(target) {
            return StageBound::Unbounded;
        }
        let mut worst = 0usize;
        for a in &rule.body {
            if let PredRef::Idb(q) = a.pred {
                if q >= values.len() {
                    continue;
                }
                match values[q] {
                    StageBound::Finite(s) => worst = worst.max(s),
                    StageBound::Unbounded => return StageBound::Unbounded,
                }
            }
        }
        StageBound::Finite(worst + 1)
    }
}

/// Convenience: the set of relevant predicates (goal demand), or `None`
/// when no goal is designated.
pub fn relevant_preds(facts: &ProgramFacts, pdg: &Pdg) -> Option<Vec<bool>> {
    facts.goal?;
    Some(solve(&Relevance, facts, pdg))
}

/// Convenience: per-predicate possibly-nonempty flags.
pub fn possibly_nonempty(facts: &ProgramFacts, pdg: &Pdg) -> Vec<bool> {
    solve(&PossiblyNonempty, facts, pdg)
}

/// Convenience: per-predicate stage bounds.
pub fn stage_bounds(facts: &ProgramFacts, pdg: &Pdg) -> Vec<StageBound> {
    solve(&StageDepth, facts, pdg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_datalog::Program;
    use hp_structures::Vocabulary;

    fn facts(text: &str) -> ProgramFacts {
        ProgramFacts::of_program(&Program::parse(text, &Vocabulary::digraph()).unwrap())
    }

    #[test]
    fn relevance_matches_useful_idbs() {
        let f = facts(
            "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).\nU(x) :- T(x,x).\nGoal() :- T(x,x).",
        );
        let g = Pdg::new(&f);
        let rel = relevant_preds(&f, &g).unwrap();
        let useful = f.useful_idbs().unwrap();
        for (p, &r) in rel.iter().enumerate() {
            assert_eq!(r, useful.contains(&p), "pred {p}");
        }
        // U is demanded by nothing.
        assert!(!rel[1]);
    }

    #[test]
    fn relevance_is_transitive() {
        // W feeds U feeds nothing: neither is relevant, even though W is
        // "used" by U's rule — demand must propagate transitively.
        let f =
            facts("T(x,y) :- E(x,y).\nW(x) :- E(x,x).\nU(x) :- W(x), T(x,x).\nGoal() :- T(x,x).");
        let g = Pdg::new(&f);
        let rel = relevant_preds(&f, &g).unwrap();
        assert!(rel[0], "T relevant");
        assert!(!rel[1], "W only feeds the dead U");
        assert!(!rel[2], "U dead");
    }

    #[test]
    fn no_goal_means_no_relevance_information() {
        let f = facts("T(x,y) :- E(x,y).");
        let g = Pdg::new(&f);
        assert!(relevant_preds(&f, &g).is_none());
    }

    #[test]
    fn emptiness_finds_vacuous_idbs() {
        // B has no base case: A and B are both empty on every input.
        let f = facts("A(x,y) :- E(x,y), B(y).\nB(x) :- A(x,x), B(x).\nC(x) :- E(x,x).");
        let g = Pdg::new(&f);
        let ne = possibly_nonempty(&f, &g);
        assert!(!ne[0], "A guaranteed empty");
        assert!(!ne[1], "B guaranteed empty");
        assert!(ne[2], "C derivable");
    }

    #[test]
    fn emptiness_handles_recursion_with_base_case() {
        let f = facts("T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).");
        let g = Pdg::new(&f);
        assert_eq!(possibly_nonempty(&f, &g), vec![true]);
    }

    #[test]
    fn stage_bounds_on_a_pipeline() {
        // P2 stable at 1, Q at 2, Goal at 3.
        let f = facts("P2(x,y) :- E(x,z), E(z,y).\nQ(x) :- P2(x,x).\nGoal() :- Q(x).");
        let g = Pdg::new(&f);
        let b = stage_bounds(&f, &g);
        assert_eq!(b[0], StageBound::Finite(1));
        assert_eq!(b[1], StageBound::Finite(2));
        assert_eq!(b[2], StageBound::Finite(3));
    }

    #[test]
    fn stage_bounds_are_unbounded_inside_recursion() {
        let f = facts("T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).\nGoal() :- T(x,x).");
        let g = Pdg::new(&f);
        let b = stage_bounds(&f, &g);
        assert_eq!(b[0], StageBound::Unbounded);
        // Downstream of a recursive predicate: still unbounded.
        assert_eq!(b[1], StageBound::Unbounded);
    }

    #[test]
    fn negated_guard_does_not_force_emptiness() {
        use hp_datalog::gallery;
        // Lose0 is guarded by `not Escape0`; both are possibly nonempty.
        let f = ProgramFacts::of_program(&gallery::win_move(1));
        let g = Pdg::new(&f);
        assert!(possibly_nonempty(&f, &g).iter().all(|&b| b));
    }

    #[test]
    fn rule_less_predicate_is_stable_at_zero() {
        // U referenced but rule-less is impossible in parsed programs (the
        // parser would read it as an EDB), so build raw facts.
        let f = facts("T(x,y) :- E(x,y).");
        let g = Pdg::new(&f);
        assert_eq!(stage_bounds(&f, &g), vec![StageBound::Finite(1)]);
    }
}
