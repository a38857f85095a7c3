//! The resume law, property-tested end to end through the Datalog engine:
//! exhausting a run at fuel `f1` and resuming with `f2` more lands at
//! exactly the state of a single uninterrupted `f1 + f2` run — same
//! verdict, same relations, same stage count, same cumulative fuel.

use proptest::prelude::*;

use hp_datalog::{EvalCheckpoint, EvalConfig, FixpointResult, Program};
use hp_guard::{Budget, Budgeted};
use hp_structures::{Structure, Vocabulary};

fn digraph_strategy(max_n: usize, max_m: usize) -> impl Strategy<Value = Structure> {
    (
        1..=max_n,
        prop::collection::vec((0usize..max_n, 0usize..max_n), 0..max_m),
    )
        .prop_map(move |(n, edges)| {
            let mut s = Structure::new(Vocabulary::digraph(), n);
            for (u, v) in edges {
                let _ = s.add_tuple_ids(0, &[(u % n) as u32, (v % n) as u32]);
            }
            s
        })
}

fn tc() -> Program {
    Program::parse(
        "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).",
        &Vocabulary::digraph(),
    )
    .unwrap()
}

/// Collapse a budgeted outcome into comparable state: `(relations,
/// stages, fuel spent if exhausted)`.
fn state(
    r: Budgeted<FixpointResult, EvalCheckpoint>,
) -> (Vec<hp_datalog::IdbRelation>, usize, Option<u64>) {
    match r {
        Ok(r) => (r.relations, r.stages, None),
        Err(e) => {
            let fuel = e.partial.fuel_spent();
            let p = e.partial.partial;
            (p.relations, p.stages, Some(fuel))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Split-budget runs are indistinguishable from single-budget runs.
    #[test]
    fn fuel_f1_then_f2_equals_f1_plus_f2(
        a in digraph_strategy(6, 14),
        f1 in 1u64..40,
        f2 in 1u64..40,
    ) {
        let p = tc();
        let cfg = EvalConfig::new();
        let single = p.evaluate_budgeted(&a, &cfg, &Budget::fuel(f1 + f2));
        let split = match p.evaluate_budgeted(&a, &cfg, &Budget::fuel(f1)) {
            Ok(done) => Ok(done), // finished within f1: extra fuel changes nothing
            Err(e) => p
                .resume_budgeted(&a, &cfg, e.partial, &Budget::fuel(f2))
                .expect("checkpoint comes from this program"),
        };
        prop_assert_eq!(state(split), state(single));
    }
}
