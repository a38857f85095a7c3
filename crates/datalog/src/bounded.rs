//! Boundedness of Datalog programs (§7, Ajtai–Gurevich).
//!
//! A program is **bounded** when there is an `s` such that on *every*
//! finite structure the monotone operator reaches its least fixpoint within
//! `s` iterations. Theorem 7.5 says boundedness coincides with first-order
//! definability of the program's query.
//!
//! Two tools are provided:
//!
//! - [`stage_probe`] — empirical: stage counts over a family of structures
//!   (an unbounded program like transitive closure shows counts growing
//!   with the input; a bounded one plateaus);
//! - [`certified_bounded_at`] — exact: decides whether `Θ^s ≡ Θ^{s+1}` by
//!   Sagiv–Yannakakis UCQ equivalence. Since the stage formulas are
//!   monotone in `s` and `Θ^{s} ≡ Θ^{s+1}` implies `Θ^{s} ≡ Θ^{m}` for all
//!   `m ≥ s`, this certifies boundedness at `s` *on all finite structures*
//!   — the decidable criterion behind Theorem 7.5.

use std::time::Duration;

use hp_guard::{Budget, Resource};
use hp_logic::Ucq;
use hp_structures::Structure;

use crate::ast::Program;
use crate::unfold::{next_stage, stage_zero};

/// One row of an empirical boundedness probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundednessProbe {
    /// Universe size of the probed structure.
    pub universe: usize,
    /// Stages the naive operator needed to converge.
    pub stages: usize,
}

/// Run the program on each structure and record the stage counts.
///
/// Evaluation runs to the fixpoint, so every recorded count is a true
/// `m₀`.
pub fn stage_probe<'a, I: IntoIterator<Item = &'a Structure>>(
    p: &Program,
    structures: I,
) -> Vec<BoundednessProbe> {
    structures
        .into_iter()
        .map(|a| BoundednessProbe {
            universe: a.universe_size(),
            stages: p.evaluate(a).stages,
        })
        .collect()
}

/// Decide whether the program is bounded **at stage `s`**: for every IDB,
/// `Θ^s ≡ Θ^{s+1}` as queries on all finite structures (checked by UCQ
/// equivalence). Sound and complete for positive Datalog. Equivalence at
/// `s` holds exactly when it holds at some stage `≤ s`, so this is
/// [`certified_boundedness`] with cap `s`.
pub fn certified_bounded_at(p: &Program, s: usize) -> Result<bool, String> {
    Ok(certified_boundedness(p, s)?.is_some())
}

/// Search for the least `s ≤ max_s` at which the program is certified
/// bounded. Returns `Ok(Some(s))`, `Ok(None)` when no such stage exists up
/// to the cap (the program may be unbounded — transitive closure never
/// stabilizes), or an error from the unfolding: [`certify_boundedness`]
/// on an unlimited budget.
pub fn certified_boundedness(p: &Program, max_s: usize) -> Result<Option<usize>, String> {
    match certify_boundedness(p, max_s, &Budget::unlimited())? {
        BoundednessVerdict::Certified { stage, .. } => Ok(Some(stage)),
        BoundednessVerdict::NotCertified { .. } => Ok(None),
        BoundednessVerdict::BudgetExhausted { .. } => {
            unreachable!("an unlimited budget cannot exhaust")
        }
    }
}

/// Outcome of a budgeted boundedness search ([`certify_boundedness`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoundednessVerdict {
    /// `Θ^s ≡ Θ^{s+1}` for every IDB: the program is bounded at stage
    /// `stage` on all finite structures, hence (Theorem 7.5) equivalent to
    /// the stage-`stage` UCQ unfolding, whose size is reported.
    Certified {
        /// The least certified stage within the budget.
        stage: usize,
        /// Disjunct count of the witnessing UCQ: the goal IDB's stage
        /// unfolding when a goal is designated, else the sum over all
        /// IDBs.
        ucq_disjuncts: usize,
    },
    /// Every stage `0..=max_stage` was tested and none certified. The
    /// program may be unbounded (like transitive closure) or bounded only
    /// beyond the cap.
    NotCertified {
        /// The inclusive cap that was exhausted.
        max_stage: usize,
    },
    /// The budget ran out before the stage search finished.
    BudgetExhausted {
        /// Stages `0..next_stage` were fully tested (and not certified);
        /// the search stopped before completing stage `next_stage`.
        next_stage: usize,
        /// Which resource ran out (fuel, wall-clock, or interrupt).
        resource: Resource,
        /// Fuel charged before the stop: one unit per per-IDB
        /// UCQ-equivalence test performed.
        fuel_spent: u64,
        /// Time actually spent.
        elapsed: Duration,
    },
}

/// Budgeted version of [`certified_boundedness`]: search for the least
/// certified stage `s ≤ max_stage` under a shared [`hp_guard::Budget`],
/// never giving a wrong answer — when the budget runs out the verdict says
/// which resource and how much fuel was spent instead of guessing. Fuel is
/// charged one unit per per-IDB UCQ-equivalence test (the NP-hard-squared
/// inner step); the wall clock and interrupt token are polled between
/// tests, so a single equivalence call can overshoot — the budget bounds
/// when the search *stops trying*, not the worst-case overshoot of one
/// test. This is the hook the `hp-analysis` boundedness pass (HP014)
/// calls.
pub fn certify_boundedness(
    p: &Program,
    max_stage: usize,
    budget: &Budget,
) -> Result<BoundednessVerdict, String> {
    let mut gauge = budget.gauge();
    // Θ^s of every IDB; each stage is unfolded once, from the one before.
    let mut stage = stage_zero(p);
    for s in 0..=max_stage {
        // Θ^{s+1}, unfolded only once the stage's first test is charged, so
        // a spent budget stops the search before any unfolding work (and
        // before a negated program's unfolding error). Empty until then: a
        // program with IDBs unfolds to one UCQ per IDB.
        let mut next: Vec<Ucq> = Vec::new();
        let mut certified = true;
        for idb in 0..stage.len() {
            // Charge the test about to run and poll the clock/interrupt:
            // exhaustion is reported *before* starting another NP-hard
            // equivalence check, never after one that certified a stage.
            if let Some(stop) = gauge.check().err().or_else(|| gauge.tick(1).err()) {
                return Ok(BoundednessVerdict::BudgetExhausted {
                    next_stage: s,
                    resource: stop.resource,
                    fuel_spent: stop.spent,
                    elapsed: stop.elapsed,
                });
            }
            if next.is_empty() {
                next = next_stage(p, &stage)?;
            }
            if !stage[idb].is_equivalent_to(&next[idb]) {
                certified = false;
                break;
            }
        }
        if certified {
            let ucq_disjuncts = match p.goal_index() {
                Some(g) => stage[g].len(),
                None => stage.iter().map(Ucq::len).sum(),
            };
            return Ok(BoundednessVerdict::Certified {
                stage: s,
                ucq_disjuncts,
            });
        }
        stage = next;
    }
    Ok(BoundednessVerdict::NotCertified { max_stage })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_structures::generators::directed_path;
    use hp_structures::Vocabulary;

    fn tc() -> Program {
        Program::parse(
            "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).",
            &Vocabulary::digraph(),
        )
        .unwrap()
    }

    #[test]
    fn tc_probe_grows_with_diameter() {
        let p = tc();
        let paths: Vec<Structure> = (2..8).map(directed_path).collect();
        let probe = stage_probe(&p, paths.iter());
        for w in probe.windows(2) {
            assert!(w[1].stages > w[0].stages, "TC stages must grow: {probe:?}");
        }
    }

    #[test]
    fn tc_is_not_certified_bounded() {
        let p = tc();
        assert_eq!(certified_boundedness(&p, 4).unwrap(), None);
    }

    #[test]
    fn bounded_program_certified() {
        // "There is a path of length exactly 2 from x to y" via one
        // recursion level that never actually recurses... simplest bounded
        // program: P2(x,y) :- E(x,z), E(z,y). No recursion: bounded at 1.
        let p = Program::parse("P2(x,y) :- E(x,z), E(z,y).", &Vocabulary::digraph()).unwrap();
        assert_eq!(certified_boundedness(&p, 3).unwrap(), Some(1));
    }

    #[test]
    fn vacuous_recursion_is_bounded() {
        // Recursive rule that adds nothing new: T(x,y) :- E(x,y) and
        // T(x,y) :- T(x,y), E(x,y). The recursive rule is subsumed: bounded
        // at 1 (Θ² ≡ Θ¹).
        let p = Program::parse(
            "T(x,y) :- E(x,y).\nT(x,y) :- T(x,y), E(x,y).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        assert_eq!(certified_boundedness(&p, 3).unwrap(), Some(1));
    }

    #[test]
    fn bounded_recursion_via_absorption() {
        // A classic bounded-looking program: reach-within-loop,
        // R(x) :- E(x,x).  R(x) :- E(x,y), R(y), E(x,x).
        // The recursive rule is absorbed: any witness already satisfies
        // E(x,x), so R = loops; bounded at... Θ¹ = loops; Θ² = loops ∨
        // (E(x,y) ∧ loop(y) ∧ E(x,x)) ⊒ contains Θ¹; containment other way:
        // each Θ² disjunct maps into Θ¹'s? The second disjunct's canonical:
        // x loop + edge to y loop... folds onto x=y? Only if hom exists:
        // canonical of disjunct 2: {x: E(x,x), E(x,y); y: E(y,y)} →
        // canonical of disjunct 1 {z: E(z,z)}: map x,y→z works! So bounded
        // at 1.
        let p = Program::parse(
            "R(x) :- E(x,x).\nR(x) :- E(x,y), R(y), E(x,x).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        assert_eq!(certified_boundedness(&p, 3).unwrap(), Some(1));
    }

    #[test]
    fn zero_stage_bounded_program() {
        // A program whose IDB is always empty (no rules can ever fire
        // because the body is unsatisfiable-by-emptiness of another IDB).
        let p = Program::parse("A(x,y) :- E(x,y), B(y).\nB(x) :- A(x,x), B(x).", {
            &Vocabulary::digraph()
        })
        .unwrap();
        // Θ^s stays ⊥ for both: bounded at 0.
        assert_eq!(certified_boundedness(&p, 2).unwrap(), Some(0));
    }

    #[test]
    fn probe_on_bounded_program_plateaus() {
        let p = Program::parse("P2(x,y) :- E(x,z), E(z,y).", &Vocabulary::digraph()).unwrap();
        let paths: Vec<Structure> = (3..9).map(directed_path).collect();
        let probe = stage_probe(&p, paths.iter());
        assert!(probe.iter().all(|r| r.stages <= 1), "{probe:?}");
    }

    // --- edge cases and the budgeted search ---

    #[test]
    fn empty_program_is_bounded_at_zero() {
        let p = Program::new(Vocabulary::digraph(), vec![], vec![], vec![]).unwrap();
        assert_eq!(certified_boundedness(&p, 2).unwrap(), Some(0));
        assert_eq!(
            certify_boundedness(&p, 2, &Budget::unlimited()).unwrap(),
            BoundednessVerdict::Certified {
                stage: 0,
                ucq_disjuncts: 0
            }
        );
        // And the probe is trivially flat.
        let probe = stage_probe(&p, [directed_path(3)].iter());
        assert_eq!(
            probe,
            vec![BoundednessProbe {
                universe: 3,
                stages: 0
            }]
        );
    }

    #[test]
    fn goal_only_program_is_bounded_at_one() {
        // A single 0-ary goal rule: Θ¹ = ∃x E(x,x) = Θ².
        let p = Program::parse("Goal() :- E(x,x).", &Vocabulary::digraph()).unwrap();
        assert_eq!(certified_boundedness(&p, 2).unwrap(), Some(1));
        let v = certify_boundedness(&p, 2, &Budget::unlimited()).unwrap();
        assert_eq!(
            v,
            BoundednessVerdict::Certified {
                stage: 1,
                ucq_disjuncts: 1
            }
        );
    }

    #[test]
    fn zero_stage_verdict_carries_empty_witness() {
        // Both IDBs provably empty: certified at s = 0 with Θ⁰ = ⊥ (an
        // empty UCQ).
        let p = Program::parse("A(x,y) :- E(x,y), B(y).\nB(x) :- A(x,x), B(x).", {
            &Vocabulary::digraph()
        })
        .unwrap();
        assert_eq!(
            certify_boundedness(&p, 2, &Budget::unlimited()).unwrap(),
            BoundednessVerdict::Certified {
                stage: 0,
                ucq_disjuncts: 0
            }
        );
    }

    #[test]
    fn probe_underestimates_certified_stage() {
        // bounded_reach(2) is certified bounded at stage 2 (R stabilizes at
        // 1, Goal needs one more application), but on mark-free structures
        // no rule ever fires, so every empirical count is below the
        // certified stage: the probe alone would under-report the bound.
        let p = crate::gallery::bounded_reach(2);
        assert_eq!(certified_boundedness(&p, 3).unwrap(), Some(2));
        let vocab = p.edb().clone();
        let markless: Vec<Structure> = (2..7)
            .map(|n| {
                let mut s = Structure::new(vocab.clone(), n);
                let e = vocab.lookup("E").unwrap();
                for i in 0..n - 1 {
                    s.add_tuple(
                        e,
                        &[
                            hp_structures::Elem(i as u32),
                            hp_structures::Elem(i as u32 + 1),
                        ],
                    )
                    .unwrap();
                }
                s
            })
            .collect();
        let probe = stage_probe(&p, markless.iter());
        let empirical_max = probe.iter().map(|r| r.stages).max().unwrap();
        assert!(
            empirical_max < 2,
            "mark-free probe must undershoot the certified stage: {probe:?}"
        );
    }

    #[test]
    fn zero_time_budget_is_exhausted_not_wrong() {
        let p = tc();
        let budget = Budget::wall_clock(Duration::ZERO);
        match certify_boundedness(&p, 4, &budget).unwrap() {
            BoundednessVerdict::BudgetExhausted {
                next_stage,
                resource,
                fuel_spent,
                ..
            } => {
                assert_eq!(next_stage, 0);
                assert_eq!(resource, Resource::Time);
                assert_eq!(fuel_spent, 0);
            }
            v => panic!("expected BudgetExhausted, got {v:?}"),
        }
    }

    #[test]
    fn generous_budget_matches_unbudgeted_search() {
        let p = tc();
        let budget = Budget::wall_clock(Duration::from_secs(120));
        assert_eq!(
            certify_boundedness(&p, 3, &budget).unwrap(),
            BoundednessVerdict::NotCertified { max_stage: 3 }
        );
        let q = Program::parse("P2(x,y) :- E(x,z), E(z,y).", &Vocabulary::digraph()).unwrap();
        assert_eq!(
            certify_boundedness(&q, 3, &Budget::unlimited()).unwrap(),
            BoundednessVerdict::Certified {
                stage: 1,
                ucq_disjuncts: 1
            }
        );
    }
}
