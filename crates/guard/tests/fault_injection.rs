//! Fault-injection harness for the workspace's robustness guarantees.
//!
//! Installs [`hp_guard::fault::FaultPlan`]s and checks, against the
//! Datalog engine's multi-threaded paths (the sharded evaluator and
//! incremental maintenance, which share one worker pool):
//!
//! * a forced worker panic never hangs or poisons the evaluation or the
//!   maintained database — it is recovered sequentially, recorded as a
//!   diagnostic, and the result is bit-identical to a sequential run;
//! * a forced fuel exhaustion at a fixed point yields the same
//!   deterministic partial every time;
//! * resuming an exhausted evaluation with a larger budget reaches the
//!   same fixpoint as an uninterrupted run, for randomized injection
//!   points; an exhausted maintenance run returns no database, and a build
//!   on the updated structure reaches that fixpoint.
//!
//! The fault plan is process-global, so every test serializes through
//! [`hp_guard::fault::exclusive`].

use hp_datalog::{gallery, EvalConfig, Program};
use hp_guard::{fault, Budget};
use hp_structures::generators::{directed_path, random_digraph};
use hp_structures::Structure;

/// A config that forces the parallel sharded path even on small inputs,
/// so the worker injection site is actually exercised.
fn parallel_cfg() -> EvalConfig {
    EvalConfig::new().with_threads(4).with_parallel_min_seed(0)
}

fn tc_instance() -> (Program, Structure) {
    (gallery::transitive_closure(), directed_path(24))
}

#[test]
fn forced_worker_panic_recovers_and_matches_reference() {
    let _serial = fault::exclusive();
    fault::clear();
    let (p, a) = tc_instance();
    let reference = p.evaluate_reference(&a);

    fault::install(fault::FaultPlan {
        exhaust_at: None,
        panic_at: Some(("datalog.worker".to_string(), 0)),
        panic_span: None,
    });
    let r = p.evaluate_with(&a, &parallel_cfg());
    assert!(
        r.diagnostics.iter().any(|d| d.contains("panicked")),
        "recovery must be recorded: {:?}",
        r.diagnostics
    );
    assert_eq!(
        r.relations, reference.relations,
        "sequential recovery must be bit-identical to the reference"
    );

    // The trigger disarmed itself: the next run is clean.
    let clean = p.evaluate_with(&a, &parallel_cfg());
    assert!(clean.diagnostics.is_empty(), "no lingering fault state");
    assert_eq!(clean.relations, reference.relations);
    fault::clear();
}

#[test]
fn worker_panic_at_any_item_is_isolated() {
    let _serial = fault::exclusive();
    fault::clear();
    let (p, a) = tc_instance();
    let reference = p.evaluate_reference(&a);
    for item in 0..4u64 {
        fault::install(fault::FaultPlan {
            exhaust_at: None,
            panic_at: Some(("datalog.worker".to_string(), item)),
            panic_span: None,
        });
        let r = p.evaluate_with(&a, &parallel_cfg());
        assert_eq!(r.relations, reference.relations, "item {item}");
    }
    fault::clear();
}

#[test]
fn forced_exhaustion_yields_deterministic_partial() {
    let _serial = fault::exclusive();
    fault::clear();
    let (p, a) = tc_instance();
    let cfg = EvalConfig::new();
    let run = || {
        fault::install(fault::FaultPlan {
            exhaust_at: Some(40),
            panic_at: None,
            panic_span: None,
        });
        p.evaluate_budgeted(&a, &cfg, &Budget::unlimited())
            .expect_err("forced exhaustion must stop an unlimited run")
    };
    let first = run().partial;
    let second = run().partial;
    assert_eq!(first.partial.stages, second.partial.stages);
    assert_eq!(first.partial.relations, second.partial.relations);
    assert_eq!(first.fuel_spent(), second.fuel_spent());

    // Resuming the deterministic partial with no further faults reaches
    // the true fixpoint.
    fault::clear();
    let resumed = p
        .resume_budgeted(&a, &cfg, first, &Budget::unlimited())
        .expect("checkpoint comes from this program")
        .expect("an unlimited, un-faulted resume finishes");
    let reference = p.evaluate_reference(&a);
    assert_eq!(resumed.relations, reference.relations);
}

#[test]
fn randomized_exhaustion_points_never_hang_or_poison() {
    let _serial = fault::exclusive();
    fault::clear();
    let cfg = EvalConfig::new();
    for seed in 0..6u64 {
        let a = random_digraph(7, 13, seed);
        let p = gallery::transitive_closure();
        let reference = p.evaluate_reference(&a);
        // A spread of injection points, including some past the total
        // spend (where the run just finishes).
        for at in [1u64, 2, 3, 5, 8, 13, 21, 34, 55, 10_000] {
            fault::install(fault::FaultPlan {
                exhaust_at: Some(at),
                panic_at: None,
                panic_span: None,
            });
            match p.evaluate_budgeted(&a, &cfg, &Budget::unlimited()) {
                Ok(r) => {
                    assert_eq!(r.relations, reference.relations, "seed {seed} at {at}");
                }
                Err(e) => {
                    // The partial is a genuine stage prefix, and resuming
                    // (trigger now disarmed) lands on the same fixpoint.
                    let cp = e.partial;
                    let resumed = p
                        .resume_budgeted(&a, &cfg, cp, &Budget::unlimited())
                        .expect("checkpoint comes from this program")
                        .expect("resume after a disarmed fault finishes");
                    assert_eq!(
                        resumed.relations, reference.relations,
                        "seed {seed} at {at}"
                    );
                }
            }
            // No poisoned state: a clean follow-up run converges quietly.
            fault::clear();
            let clean = p.evaluate_with(&a, &EvalConfig::new());
            assert!(clean.diagnostics.is_empty());
            assert_eq!(clean.relations, reference.relations);
        }
    }
}

/// Forced fuel exhaustion mid-maintenance: the incremental engine stops at
/// the first SCC boundary and returns no database, and a build on the
/// updated structure (trigger disarmed) lands on exactly the state a full
/// re-evaluation computes.
#[test]
fn forced_exhaustion_during_incremental_maintenance_drops_the_db() {
    use hp_datalog::{EdbDelta, MaterializedDb};

    let _serial = fault::exclusive();
    fault::clear();
    let p = gallery::cycle_detection();
    let a = directed_path(12);
    let cfg = EvalConfig::new();
    let db = MaterializedDb::new(&p, a.clone()).expect("vocab matches");

    // Delete an edge below the recursive derivations, then force the gauge
    // to trip at the first stratum boundary.
    let mut minus = EdbDelta::new(p.edb());
    minus.push_ids(0, &[5, 6]);
    let plus = EdbDelta::new(p.edb());
    let (_, full) = p
        .evaluate_incremental_budgeted(db.clone(), &plus, &minus, &cfg, &Budget::unlimited())
        .expect("valid batch")
        .expect("an un-faulted run finishes");
    fault::install(fault::FaultPlan {
        exhaust_at: Some(1),
        panic_at: None,
        panic_span: None,
    });
    let exhausted = p
        .evaluate_incremental_budgeted(db, &plus, &minus, &cfg, &Budget::unlimited())
        .expect("valid batch")
        .expect_err("forced exhaustion must stop an unlimited run");
    fault::clear();
    assert_eq!(exhausted.resource, hp_guard::Resource::Fuel);
    assert!(
        exhausted.spent < full.profile[0].fuel,
        "stopped at the first boundary"
    );

    let mut b = a;
    assert!(b.remove_tuple(0usize.into(), &[5u32.into(), 6u32.into()]));
    let rebuilt = MaterializedDb::new(&p, b.clone()).expect("vocab matches");
    assert_eq!(rebuilt.relations(), &p.evaluate(&b).relations[..]);
}

/// Randomized injection points across a stream of incremental updates:
/// whatever boundary the forced exhaustion lands on, the run either
/// completes on the fixpoint full re-evaluation computes or returns no
/// database, and a build on the updated structure computes it; neither
/// is poisoned for the next batch.
#[test]
fn randomized_exhaustion_points_in_maintenance_never_poison() {
    use hp_datalog::{EdbDelta, MaterializedDb};

    let _serial = fault::exclusive();
    fault::clear();
    let p = gallery::cycle_detection();
    let cfg = EvalConfig::new();
    for seed in 0..4u64 {
        let a = random_digraph(8, 16, seed);
        for at in [1u64, 2, 3, 5, 8, 10_000] {
            let db = MaterializedDb::new(&p, a.clone()).expect("vocab matches");
            let mut b = a.clone();
            // One deletion, one insertion — both touch the recursive stratum.
            let mut minus = EdbDelta::new(p.edb());
            minus.push_ids(0, &[(seed % 8) as u32, ((seed + 1) % 8) as u32]);
            let mut plus = EdbDelta::new(p.edb());
            plus.push_ids(0, &[((seed + 2) % 8) as u32, (seed % 8) as u32]);
            if !b.contains_tuple(
                0usize.into(),
                &[(((seed + 2) % 8) as u32).into(), ((seed % 8) as u32).into()],
            ) {
                let _ = b.add_tuple_ids(0, &[((seed + 2) % 8) as u32, (seed % 8) as u32]);
            }
            b.remove_tuple(
                0usize.into(),
                &[((seed % 8) as u32).into(), (((seed + 1) % 8) as u32).into()],
            );
            let reference = p.evaluate(&b);

            fault::install(fault::FaultPlan {
                exhaust_at: Some(at),
                panic_at: None,
                panic_span: None,
            });
            let outcome = p
                .evaluate_incremental_budgeted(db, &plus, &minus, &cfg, &Budget::unlimited())
                .expect("valid batch");
            fault::clear();
            let mut db = match outcome {
                Ok((db, _)) => db,
                Err(_) => MaterializedDb::new(&p, b.clone()).expect("vocab matches"),
            };
            assert_eq!(
                db.relations(),
                &reference.relations[..],
                "seed {seed} at {at}"
            );
            // No poisoned state: a follow-up no-op batch changes nothing.
            let empty = EdbDelta::new(p.edb());
            let clean = p
                .evaluate_incremental(&mut db, &empty, &empty)
                .expect("no-op batch");
            assert_eq!(
                db.relations(),
                &reference.relations[..],
                "seed {seed} at {at}"
            );
            assert_eq!(clean.stages, 0);
        }
    }
}

/// A worker panic during parallel maintenance is recovered on the calling
/// thread: the batch still lands on the full re-evaluation's fixpoint, the
/// recovery is recorded, and the database is not out of step with its
/// EDB.
#[test]
fn worker_panic_during_maintenance_recovers() {
    use hp_datalog::{EdbDelta, MaterializedDb};

    let _serial = fault::exclusive();
    fault::clear();
    let p = gallery::cycle_detection();
    let cfg = EvalConfig::new().with_threads(4);
    for item in 0..3u64 {
        let a = random_digraph(8, 16, item);
        let mut db = MaterializedDb::new_with(&p, a.clone(), &cfg).expect("vocab matches");
        // One deletion and one insertion, both touching the recursive
        // stratum, so the first DRed round already has several items.
        let (u, v) = a
            .relation(0usize.into())
            .iter()
            .map(|t| (t.get(0).0, t.get(1).0))
            .find(|(u, v)| u != v)
            .expect("random digraph has a non-loop edge");
        let mut minus = EdbDelta::new(p.edb());
        minus.push_ids(0, &[u, v]);
        let mut plus = EdbDelta::new(p.edb());
        plus.push_ids(0, &[v, u]);
        let mut b = a;
        let _ = b.add_tuple_ids(0, &[v, u]);
        b.remove_tuple(0usize.into(), &[u.into(), v.into()]);
        let reference = p.evaluate(&b);

        fault::install(fault::FaultPlan {
            exhaust_at: None,
            panic_at: Some(("datalog.worker".to_string(), item)),
            panic_span: None,
        });
        let r = p
            .evaluate_incremental_with(&mut db, &plus, &minus, &cfg)
            .expect("valid batch");
        fault::clear();
        assert!(
            r.diagnostics.iter().any(|d| d.contains("panicked")),
            "item {item}: recovery must be recorded: {:?}",
            r.diagnostics
        );
        assert_eq!(db.relations(), &reference.relations[..], "item {item}");

        // Nothing lingers: an empty follow-up batch is a clean no-op.
        let empty = EdbDelta::new(p.edb());
        let clean = p
            .evaluate_incremental_with(&mut db, &empty, &empty, &cfg)
            .expect("no-op batch");
        assert!(clean.diagnostics.is_empty(), "item {item}");
        assert_eq!(db.relations(), &reference.relations[..], "item {item}");
        assert_eq!(clean.stages, 0, "item {item}");
    }
}
