//! **Theorem 7.1 made executable**: the m-th stage of a k-Datalog program is
//! definable by a finite disjunction of `CQ^k` formulas.
//!
//! One unfolding step ([`unfold_over`]) substitutes every IDB body atom of
//! an IDB's rules by a given UCQ for that IDB (free variables renamed to
//! the atom's arguments, bound variables freshened) and flattens the
//! existential-positive result with
//! [`hp_logic::ucq_of_existential_positive`]. Stage UCQs iterate it from
//! `Θ⁰ = ⊥`: `Θ^{m+1}_P` is `P`'s rules unfolded over every `Θ^m_Q`.

use hp_logic::{ucq_of_existential_positive, Formula, Ucq};
use hp_structures::Elem;

use crate::ast::{PredRef, Program};

impl Program {
    /// Stage `m` of IDB `P` as a UCQ (the Theorem 7.1 disjunction of
    /// `CQ^k` sentences/formulas).
    pub fn stage_ucq(&self, idb: usize, m: usize) -> Result<Ucq, String> {
        stage_ucq(self, idb, m)
    }
}

/// One unfolding step for one IDB over formulas for the IDBs its rules
/// mention (`prev[q]`, free variables `0 .. arity(q)`).
fn stage_step(p: &Program, idb: usize, prev: &[Formula]) -> Formula {
    let arity = p.idbs()[idb].1;
    let mut disjuncts: Vec<Formula> = Vec::new();
    for rule in p.rules_for(idb) {
        // Variable layout for this rule instance: head variables must become
        // the canonical free variables 0..arity; all other rule variables
        // are fresh existentials placed after them.
        let rule_vars: Vec<u32> = rule.variables().into_iter().collect();
        let mut target: Vec<u32> = vec![u32::MAX; rule_vars.len()];
        let pos = |v: u32, rule_vars: &[u32]| rule_vars.binary_search(&v).expect("rule var");
        // Head args map to 0..arity. Repeated head variables map to the
        // first position they occupy; equalities pin the rest.
        let mut eqs: Vec<(u32, u32)> = Vec::new();
        for (i, &hv) in rule.head.args.iter().enumerate() {
            let pidx = pos(hv, &rule_vars);
            if target[pidx] == u32::MAX {
                target[pidx] = i as u32;
            } else {
                eqs.push((target[pidx], i as u32));
            }
        }
        let mut next_fresh = arity as u32;
        let mut exist_vars: Vec<u32> = Vec::new();
        for t in target.iter_mut() {
            if *t == u32::MAX {
                *t = next_fresh;
                exist_vars.push(next_fresh);
                next_fresh += 1;
            }
        }
        let var_of = |v: u32| target[pos(v, &rule_vars)];
        let mut conj: Vec<Formula> = eqs.iter().map(|&(a, b)| Formula::Eq(a, b)).collect();
        for atom in &rule.body {
            match atom.pred {
                PredRef::Edb(sym) => {
                    let args: Vec<u32> = atom.args.iter().map(|&v| var_of(v)).collect();
                    conj.push(Formula::atom(sym.index(), &args));
                }
                PredRef::Idb(q) => {
                    // Substitute Θ^{m−1}_Q with its free vars 0..arity(Q)
                    // renamed to this atom's arguments, binders freshened.
                    let args: Vec<u32> = atom.args.iter().map(|&v| var_of(v)).collect();
                    conj.push(substitute_free(&prev[q], &args, &mut next_fresh));
                }
            }
        }
        let mut body = Formula::And(conj);
        for &v in exist_vars.iter().rev() {
            body = Formula::exists(v, body);
        }
        disjuncts.push(body);
    }
    Formula::Or(disjuncts)
}

/// Rename the free variables `0..args.len()` of `f` to `args`, freshening
/// every binder above `*fresh` to avoid capture.
fn substitute_free(f: &Formula, args: &[u32], fresh: &mut u32) -> Formula {
    // First freshen binders apart (they get ids above all existing), then
    // apply the free-variable mapping. Since renamed_apart gives binders
    // unique ids disjoint from free ids, a single rename_vars pass is safe.
    let g = f.renamed_apart();
    let free: Vec<u32> = g.free_vars().into_iter().collect();
    debug_assert!(free.iter().all(|&v| (v as usize) < args.len()));
    // Map binder ids into the fresh range, free vars to args.
    let bound: Vec<u32> = {
        let mut b = Vec::new();
        g.visit(&mut |h| {
            if let Formula::Exists(x, _) | Formula::Forall(x, _) = h {
                b.push(*x);
            }
        });
        b
    };
    let base = *fresh;
    *fresh += bound.len() as u32;
    let map = move |v: u32| -> u32 {
        if let Some(i) = bound.iter().position(|&b| b == v) {
            base + i as u32
        } else {
            args[v as usize]
        }
    };
    g.rename_vars(&map)
}

/// One unfolding step of IDB `idb` over given UCQs for the IDBs its rules
/// mention: every IDB body atom `Q(ū)` is replaced by `child(Q)` with its
/// free positions renamed to `ū`, and the result is flattened to a UCQ
/// over the EDB vocabulary; over the previous stage's UCQs this is one
/// stage of [`stage_ucq`]. In a nonrecursive program, when each child is
/// equivalent to that child's full unfolding (its core, say), the result
/// is equivalent to `idb`'s full unfolding: replacing a subquery by an
/// equivalent one preserves equivalence (Theorem 2.1).
pub fn unfold_over<'a>(
    p: &Program,
    idb: usize,
    child: impl Fn(usize) -> &'a Ucq,
) -> Result<Ucq, String> {
    positive(p)?;
    let deps = p.graph().deps(idb);
    let prev: Vec<Formula> = (0..p.idbs().len())
        .map(|q| {
            if deps.contains(&q) {
                child(q).to_formula()
            } else {
                Formula::bottom()
            }
        })
        .collect();
    ucq_of_existential_positive(&stage_step(p, idb, &prev), p.edb())
}

/// Theorem 7.1 is a statement about the positive-existential fragment: a
/// negated literal has no existential-positive unfolding.
fn positive(p: &Program) -> Result<(), String> {
    if p.has_negation() {
        return Err("stage unfoldings are defined for positive programs only".to_string());
    }
    Ok(())
}

/// `Θ⁰ = ⊥` for every IDB: the empty union at the IDB's arity.
pub(crate) fn stage_zero(p: &Program) -> Vec<Ucq> {
    p.idbs()
        .iter()
        .map(|&(_, arity)| Ucq::empty(arity))
        .collect()
}

/// `Θ^{m+1}` of every IDB from `Θ^m`: one [`unfold_over`] per IDB.
pub(crate) fn next_stage(p: &Program, stage: &[Ucq]) -> Result<Vec<Ucq>, String> {
    (0..stage.len())
        .map(|idb| unfold_over(p, idb, |q| &stage[q]))
        .collect()
}

/// Free-standing form of [`Program::stage_ucq`]: [`unfold_over`] iterated
/// `m` times from `Θ⁰ = ⊥`, one step over all IDBs at a time.
pub fn stage_ucq(p: &Program, idb: usize, m: usize) -> Result<Ucq, String> {
    positive(p)?;
    let mut stage = stage_zero(p);
    for _ in 0..m {
        stage = next_stage(p, &stage)?;
    }
    Ok(stage.swap_remove(idb))
}

/// Check that stage-`m` unfoldings agree with the naive operator stages on
/// a given structure (used pervasively in tests; exposed for the
/// experiment harness).
pub fn stages_agree(p: &Program, a: &hp_structures::Structure, m: usize) -> Result<(), String> {
    // A deliberately capped prefix: each computed stage is compared against
    // its unfolding, so convergence of the sequence is not required here.
    let stages = p.stages(a, m).stages;
    for (stage_idx, rels) in stages.iter().enumerate() {
        for (idb, rel) in rels.iter().enumerate().take(p.idbs().len()) {
            let u = stage_ucq(p, idb, stage_idx)?;
            let mut expected: Vec<Vec<Elem>> = rel.iter().map(|t| t.to_vec()).collect();
            expected.sort();
            let got = u.answers(a);
            if got != expected {
                return Err(format!(
                    "stage {stage_idx} of {}: unfolding gives {got:?}, operator gives {expected:?}",
                    p.idbs()[idb].0
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_structures::generators::{directed_cycle, directed_path, down_tree, random_digraph};
    use hp_structures::Vocabulary;

    fn tc() -> Program {
        Program::parse(
            "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).",
            &Vocabulary::digraph(),
        )
        .unwrap()
    }

    #[test]
    fn stage_zero_is_false() {
        let p = tc();
        let u = p.stage_ucq(0, 0).unwrap();
        assert!(u.is_empty());
    }

    #[test]
    fn stage_one_is_the_edge_relation() {
        let p = tc();
        let u = p.stage_ucq(0, 1).unwrap();
        assert_eq!(u.len(), 1);
        let a = directed_path(4);
        assert_eq!(u.answers(&a).len(), 3);
    }

    #[test]
    fn stage_m_is_paths_up_to_length_m() {
        let p = tc();
        let a = directed_path(6);
        for m in 0..=4 {
            let u = p.stage_ucq(0, m).unwrap();
            // Pairs (i, j) with 1 ≤ j − i ≤ m.
            let expect: usize = (1..=m).map(|l| 6 - l).sum();
            assert_eq!(u.answers(&a).len(), expect, "stage {m}");
        }
    }

    #[test]
    fn unfolding_matches_operator_on_random_digraphs() {
        let p = tc();
        for seed in 0..5 {
            let a = random_digraph(5, 8, seed);
            stages_agree(&p, &a, 4).unwrap();
        }
        stages_agree(&p, &directed_cycle(4), 4).unwrap();
    }

    #[test]
    fn unfolding_variable_budget_is_programs_k() {
        // Theorem 7.1: stages of a k-Datalog program are CQ^k definable. In
        // formula terms: after minimization each disjunct's canonical
        // structure has treewidth < k — validated in integration tests; here
        // we check the UCQ is at least semantically right and the formula
        // uses few variables per disjunct *after the CQ^k rewriting*
        // (structure size can exceed k; variable REUSE is the point).
        let p = tc();
        let u = p.stage_ucq(0, 3).unwrap();
        assert_eq!(u.len(), 3);
        // Each disjunct is a path query: canonical structure = path.
        for d in u.disjuncts() {
            assert!(d.var_count() <= 3 + 1); // path of length ≤ 3 has ≤ 4 nodes
        }
    }

    #[test]
    fn multi_idb_unfolding() {
        let v = Vocabulary::from_pairs([("Down", 2), ("Leaf", 1)]);
        let p = Program::parse(
            "Reach(x) :- Leaf(x).\nReach(x) :- Down(x,y), Reach(y).\nGoal() :- Reach(x).",
            &v,
        )
        .unwrap();
        let t = down_tree(2);
        stages_agree(&p, &t, 4).unwrap();
        // Goal at stage 2 = ∃x Reach^1(x) = ∃x Leaf(x).
        let u = p.stage_ucq(1, 2).unwrap();
        assert!(u.holds_in(&t));
    }

    #[test]
    fn head_with_repeated_variables() {
        // Symmetric-pair IDB: S(x,x) :- E(x,x)... use head repetition:
        // D(x,x) :- E(x,y). The head repeats x: stage formulas must pin the
        // two free positions equal.
        let p = Program::parse("D(x,x) :- E(x,y).", &Vocabulary::digraph()).unwrap();
        let a = directed_path(3);
        let u = p.stage_ucq(0, 1).unwrap();
        let ans = u.answers(&a);
        // Sources with out-edges: 0 and 1 → (0,0), (1,1).
        assert_eq!(ans, vec![vec![Elem(0), Elem(0)], vec![Elem(1), Elem(1)]]);
        stages_agree(&p, &a, 2).unwrap();
    }

    #[test]
    fn mutual_recursion_unfolds() {
        // Even/odd-length path endpoints, mutually recursive.
        let p = Program::parse(
            "Even(x,y) :- E(x,z), Odd(z,y).\nOdd(x,y) :- E(x,y).\nOdd(x,y) :- E(x,z), Even(z,y).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        let a = directed_path(6);
        stages_agree(&p, &a, 4).unwrap();
    }
}
