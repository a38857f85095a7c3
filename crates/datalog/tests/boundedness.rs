//! Pinned boundedness verdicts and stage-UCQ sizes over the gallery: the
//! certified stage and witnessing UCQ size of each positive program, the
//! disjunct count of every IDB's stage UCQ at stages 0–4, and where a
//! fuel-limited search stops. Negated programs have no stage unfolding
//! and are refused with an error.

use hp_datalog::{
    certified_bounded_at, certified_boundedness, certify_boundedness, gallery, stage_ucq,
    BoundednessVerdict, Program,
};
use hp_guard::{Budget, Resource};

fn certified(stage: usize, ucq_disjuncts: usize) -> BoundednessVerdict {
    BoundednessVerdict::Certified {
        stage,
        ucq_disjuncts,
    }
}

fn not_certified() -> BoundednessVerdict {
    BoundednessVerdict::NotCertified { max_stage: 3 }
}

/// Each positive gallery program, its verdict at cap 3, and per IDB the
/// disjunct counts of `stage_ucq` at stages 0..=4.
#[allow(clippy::type_complexity)]
fn pinned() -> Vec<(&'static str, Program, BoundednessVerdict, Vec<[usize; 5]>)> {
    vec![
        (
            "transitive_closure",
            gallery::transitive_closure(),
            not_certified(),
            vec![[0, 1, 2, 3, 4]],
        ),
        (
            "cycle_detection",
            gallery::cycle_detection(),
            not_certified(),
            vec![[0, 1, 2, 3, 4], [0, 0, 1, 2, 3]],
        ),
        (
            "reach_leaf",
            gallery::reach_leaf(),
            not_certified(),
            vec![[0, 1, 2, 3, 4], [0, 0, 1, 2, 3]],
        ),
        (
            "same_generation",
            gallery::same_generation(),
            not_certified(),
            vec![[0, 1, 2, 3, 4]],
        ),
        (
            "two_hop",
            gallery::two_hop(),
            certified(1, 1),
            vec![[0, 1, 1, 1, 1]],
        ),
        (
            "absorbed_recursion",
            gallery::absorbed_recursion(),
            certified(1, 1),
            vec![[0, 1, 2, 3, 4]],
        ),
        (
            "bounded_reach(1)",
            gallery::bounded_reach(1),
            certified(2, 2),
            vec![[0, 2, 2, 2, 2], [0, 0, 2, 2, 2]],
        ),
        (
            "bounded_reach(2)",
            gallery::bounded_reach(2),
            certified(2, 3),
            vec![[0, 3, 3, 3, 3], [0, 0, 3, 3, 3]],
        ),
        (
            "bounded_reach(3)",
            gallery::bounded_reach(3),
            certified(2, 4),
            vec![[0, 4, 4, 4, 4], [0, 0, 4, 4, 4]],
        ),
    ]
}

#[test]
fn gallery_verdicts_and_stage_sizes_are_pinned() {
    for (name, p, verdict, sizes) in pinned() {
        assert_eq!(
            certify_boundedness(&p, 3, &Budget::unlimited()).unwrap(),
            verdict,
            "{name}"
        );
        let expected_stage = match verdict {
            BoundednessVerdict::Certified { stage, .. } => Some(stage),
            _ => None,
        };
        assert_eq!(
            certified_boundedness(&p, 3).unwrap(),
            expected_stage,
            "{name}"
        );
        assert_eq!(sizes.len(), p.idbs().len(), "{name}");
        for (idb, row) in sizes.iter().enumerate() {
            let got: Vec<usize> = (0..=4)
                .map(|m| stage_ucq(&p, idb, m).unwrap().len())
                .collect();
            assert_eq!(got, row.to_vec(), "{name}, IDB {idb}");
        }
    }
}

#[test]
fn fuel_limited_search_stops_mid_stage() {
    // bounded_reach(2): stage 0 fails at R (1 test), stage 1 certifies R
    // (2) and stops charging the Goal test (3).
    match certify_boundedness(&gallery::bounded_reach(2), 3, &Budget::fuel(3)).unwrap() {
        BoundednessVerdict::BudgetExhausted {
            next_stage,
            resource,
            fuel_spent,
            ..
        } => {
            assert_eq!(next_stage, 1);
            assert_eq!(resource, Resource::Fuel);
            assert_eq!(fuel_spent, 3);
        }
        v => panic!("expected BudgetExhausted, got {v:?}"),
    }
    // Enough fuel for every test reaches the unbudgeted verdict.
    assert_eq!(
        certify_boundedness(&gallery::bounded_reach(2), 3, &Budget::fuel(6)).unwrap(),
        certified(2, 3)
    );
}

#[test]
fn negated_programs_are_refused_not_unfolded() {
    let p = gallery::non_reachability();
    assert!(stage_ucq(&p, 0, 1).is_err());
    assert!(stage_ucq(&p, 1, 0).is_err());
    assert!(certified_bounded_at(&p, 0).is_err());
    assert!(certify_boundedness(&p, 3, &Budget::unlimited()).is_err());
    // A spent budget stops the search before the first test, so before
    // anything is unfolded.
    assert!(matches!(
        certify_boundedness(&p, 3, &Budget::fuel(0)),
        Ok(BoundednessVerdict::BudgetExhausted { next_stage: 0, .. })
    ));
}
