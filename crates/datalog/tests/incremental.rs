//! Differential suite for incremental view maintenance: random update
//! streams applied through [`Program::evaluate_incremental`] must leave the
//! materialized database bit-identical to a from-scratch evaluation of the
//! updated structure — for recursive and non-recursive gallery programs, at
//! 1, 2, and 4 worker threads — and budgeted maintenance must either
//! complete as an unlimited run does or stop and return no database.

use proptest::prelude::*;

use hp_datalog::{
    gallery, EdbDelta, EvalConfig, EvalError, MaintenanceReport, MaterializedDb, Program,
};
use hp_guard::Budget;
use hp_structures::{Elem, Structure, SymbolId, Vocabulary};

/// One EDB operation: `(symbol, insert?, raw elements)`. Elements are taken
/// modulo the universe and truncated to the symbol's arity.
type Op = (usize, bool, (usize, usize));

/// A stream of update batches.
type Stream = Vec<Vec<Op>>;

fn stream_strategy(max_batches: usize, max_ops: usize) -> impl Strategy<Value = Stream> {
    prop::collection::vec(
        prop::collection::vec(
            (0usize..4, any::<bool>(), (0usize..16, 0usize..16)),
            0..max_ops,
        ),
        0..max_batches,
    )
}

/// Random structure over `vocab`: `n` elements, `m` tuple draws per symbol
/// from a deterministic xorshift stream.
fn random_structure(vocab: &Vocabulary, n: usize, m: usize, seed: u64) -> Structure {
    let mut state = seed.wrapping_mul(2).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut s = Structure::new(vocab.clone(), n);
    for (sym, symbol) in vocab.iter() {
        for _ in 0..m {
            let t: Vec<u32> = (0..symbol.arity)
                .map(|_| (next() % n as u64) as u32)
                .collect();
            let _ = s.add_tuple_ids(sym.index(), &t);
        }
    }
    s
}

/// Split one batch of ops into insertion/deletion [`EdbDelta`]s and apply
/// the same batch semantics (insertions win) to the mirror structure.
fn apply_batch(vocab: &Vocabulary, mirror: &mut Structure, batch: &[Op]) -> (EdbDelta, EdbDelta) {
    let n = mirror.universe_size();
    let mut plus = EdbDelta::new(vocab);
    let mut minus = EdbDelta::new(vocab);
    let mut plus_rows: Vec<(usize, Vec<Elem>)> = Vec::new();
    let mut minus_rows: Vec<(usize, Vec<Elem>)> = Vec::new();
    for &(sym_raw, insert, elems) in batch {
        let sym = sym_raw % vocab.len();
        let arity = vocab.arity(SymbolId::from(sym));
        let pick = [elems.0, elems.1];
        let row: Vec<Elem> = (0..arity).map(|i| Elem((pick[i % 2] % n) as u32)).collect();
        if insert {
            plus.push(SymbolId::from(sym), &row);
            plus_rows.push((sym, row));
        } else {
            minus.push(SymbolId::from(sym), &row);
            minus_rows.push((sym, row));
        }
    }
    for (sym, row) in &minus_rows {
        if !plus_rows.iter().any(|(s, r)| s == sym && r == row) {
            mirror.remove_tuple(SymbolId::from(*sym), row);
        }
    }
    for (sym, row) in &plus_rows {
        let _ = mirror.add_tuple(SymbolId::from(*sym), row);
    }
    (plus, minus)
}

/// Drive `stream` through incremental maintenance and check, after every
/// batch, that the database matches a from-scratch evaluation of the
/// mirrored structure.
fn check_stream(p: &Program, initial: Structure, stream: &Stream, cfg: &EvalConfig) {
    let mut db = MaterializedDb::new_with(p, initial.clone(), cfg).expect("vocab matches");
    let mut mirror = initial;
    for batch in stream {
        let (plus, minus) = apply_batch(p.edb(), &mut mirror, batch);
        p.evaluate_incremental_with(&mut db, &plus, &minus, cfg)
            .expect("valid batch");
        let full = p.evaluate_with(&mirror, cfg);
        assert_eq!(
            db.relations(),
            &full.relations[..],
            "materialized relations diverged from full re-evaluation"
        );
        assert_eq!(db.structure().total_tuples(), mirror.total_tuples());
    }
}

/// Maintain one random stream at 1, 2 and 4 threads (with the parallel
/// path forced) and require identical relations and stage counts after
/// every batch, matching a from-scratch evaluation.
fn check_thread_invariance(
    p: &Program,
    n: usize,
    m: usize,
    seed: u64,
    stream: &Stream,
) -> Result<(), TestCaseError> {
    let a = random_structure(p.edb(), n, m, seed);
    let configs: Vec<EvalConfig> = [1, 2, 4]
        .iter()
        .map(|&t| EvalConfig::new().with_threads(t).with_parallel_min_seed(0))
        .collect();
    let mut dbs: Vec<MaterializedDb> = configs
        .iter()
        .map(|cfg| MaterializedDb::new_with(p, a.clone(), cfg).unwrap())
        .collect();
    let mut mirror = a;
    for batch in stream {
        let (plus, minus) = apply_batch(p.edb(), &mut mirror, batch);
        let results: Vec<MaintenanceReport> = dbs
            .iter_mut()
            .zip(&configs)
            .map(|(db, cfg)| p.evaluate_incremental_with(db, &plus, &minus, cfg).unwrap())
            .collect();
        for (db, r) in dbs[1..].iter().zip(&results[1..]) {
            prop_assert_eq!(db.relations(), dbs[0].relations());
            prop_assert_eq!(r.stages, results[0].stages);
        }
        let full = p.evaluate(&mirror);
        prop_assert_eq!(dbs[0].relations(), &full.relations[..]);
    }
    Ok(())
}

fn digraph_programs() -> Vec<Program> {
    vec![
        gallery::transitive_closure(),
        gallery::cycle_detection(), // recursive SCC + nullary non-recursive consumer
        gallery::two_hop(),         // one non-recursive stratum
        gallery::absorbed_recursion(),
        // Mutual recursion: a two-member SCC.
        Program::parse(
            "Even(x,y) :- E(x,z), Odd(z,y).\nOdd(x,y) :- E(x,y).\nOdd(x,y) :- E(x,z), Even(z,y).",
            &Vocabulary::digraph(),
        )
        .unwrap(),
        // A multiply-derived non-recursive stratum below a recursive one.
        Program::parse(
            "P2(x,y) :- E(x,z), E(z,y).\nT(x,y) :- P2(x,y).\nT(x,y) :- P2(x,z), T(z,y).",
            &Vocabulary::digraph(),
        )
        .unwrap(),
        // Nonlinear TC: two member atoms in one body.
        Program::parse(
            "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), T(y,z).",
            &Vocabulary::digraph(),
        )
        .unwrap(),
        // A two-member SCC whose seeded join probes the member `T` on its
        // second column: the insertion phase must follow its added rows
        // with a permuted index, not only the committed ones.
        Program::parse(
            "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), S(y,z).\nS(x,y) :- T(x,y).",
            &Vocabulary::digraph(),
        )
        .unwrap(),
        // An empty-body rule in a stratum of its own, read by the next.
        Program::parse(
            "Z().\nT(x,y) :- E(x,y), Z().\nT(x,z) :- T(x,y), E(y,z).",
            &Vocabulary::digraph(),
        )
        .unwrap(),
        // A head that repeats a variable: rederiving `T(a,b)` through the
        // second rule must first check `a = b`.
        Program::parse(
            "T(x,y) :- E(x,y).\nT(x,x) :- T(x,y), T(y,x).",
            &Vocabulary::digraph(),
        )
        .unwrap(),
    ]
}

fn other_vocab_programs() -> Vec<Program> {
    vec![
        gallery::same_generation(),
        gallery::reach_leaf(),
        gallery::bounded_reach(2),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random insert/delete streams on digraph gallery programs match full
    /// re-evaluation after every batch.
    #[test]
    fn digraph_streams_match_full_eval(
        n in 1usize..8,
        m in 0usize..12,
        seed in 0u64..1000,
        stream in stream_strategy(4, 8),
    ) {
        let cfg = EvalConfig::new();
        for p in digraph_programs() {
            let a = random_structure(p.edb(), n, m, seed);
            check_stream(&p, a, &stream, &cfg);
        }
    }

    /// The same differential property over the multi-symbol vocabularies
    /// (`{Down, Leaf}`, `{E, M}`).
    #[test]
    fn multi_symbol_streams_match_full_eval(
        n in 1usize..7,
        m in 0usize..10,
        seed in 0u64..1000,
        stream in stream_strategy(4, 8),
    ) {
        let cfg = EvalConfig::new();
        for p in other_vocab_programs() {
            let a = random_structure(p.edb(), n, m, seed);
            check_stream(&p, a, &stream, &cfg);
        }
    }

    /// Worker-thread invariance: relations AND stage counts are identical
    /// at 1, 2, and 4 threads (with the parallel path forced), for a
    /// recursive program, one with a non-recursive stratum above a
    /// recursive one, and a non-recursive one.
    #[test]
    fn thread_counts_are_invisible(
        n in 1usize..7,
        m in 0usize..10,
        seed in 0u64..1000,
        stream in stream_strategy(3, 8),
    ) {
        for p in [
            gallery::transitive_closure(),
            gallery::cycle_detection(),
            gallery::two_hop(),
        ] {
            check_thread_invariance(&p, n, m, seed, &stream)?;
        }
    }
    /// Budgeted maintenance is all or nothing. Under any fuel a run either
    /// completes bit-identical to the unlimited run (relations, stages,
    /// fuel), or it stops, exactly when the fuel does not exceed the
    /// unlimited run's, and returns no database; a build on the updated
    /// structure then equals full evaluation.
    #[test]
    fn incremental_fuel_split_law(
        n in 2usize..7,
        m in 1usize..10,
        seed in 0u64..1000,
        ops in prop::collection::vec((0usize..4, any::<bool>(), (0usize..16, 0usize..16)), 1..8),
        fuel in 0u64..60,
    ) {
        let p = gallery::cycle_detection(); // two strata: a tick between them
        let cfg = EvalConfig::new();
        let a = random_structure(p.edb(), n, m, seed);
        let db = MaterializedDb::new(&p, a.clone()).unwrap();
        let mut mirror = a;
        let (plus, minus) = apply_batch(p.edb(), &mut mirror, &ops);
        let maintain = |db: MaterializedDb, budget: &Budget| {
            p.evaluate_incremental_budgeted(db, &plus, &minus, &cfg, budget)
                .expect("valid batch")
        };
        let (full, full_report) = maintain(db.clone(), &Budget::unlimited())
            .expect("unlimited budgets cannot exhaust");
        let full_fuel = full_report.profile[0].fuel;
        match maintain(db, &Budget::fuel(fuel)) {
            Ok((done, report)) => {
                prop_assert!(fuel > full_fuel);
                prop_assert_eq!(done.relations(), full.relations());
                prop_assert_eq!(report.stages, full_report.stages);
                prop_assert_eq!(report.profile[0].fuel, full_fuel);
            }
            Err(stop) => {
                prop_assert!(fuel <= full_fuel);
                prop_assert!(fuel <= stop.spent && stop.spent <= full_fuel);
                let rebuilt = MaterializedDb::new(&p, mirror.clone()).unwrap();
                prop_assert_eq!(rebuilt.relations(), &p.evaluate(&mirror).relations[..]);
                prop_assert_eq!(rebuilt.relations(), full.relations());
            }
        }
    }
}

/// Deleting an edge *below* a recursive derivation: the tuples it supported
/// fall out unless an alternative path revives them, and reinsertion
/// restores the original fixpoint exactly.
#[test]
fn delete_below_recursive_derivation_and_reinsert() {
    let p = gallery::transitive_closure();
    // Diamond with a tail: 0→1→3→4, 0→2→3. Deleting 1→3 keeps T(0,3),
    // T(0,4) alive through 2; deleting 2→3 afterwards kills them.
    let mut a = Structure::new(Vocabulary::digraph(), 5);
    for (u, v) in [(0u32, 1), (1, 3), (0, 2), (2, 3), (3, 4)] {
        let _ = a.add_tuple_ids(0, &[u, v]);
    }
    let mut db = MaterializedDb::new(&p, a.clone()).unwrap();
    let original = db.relations().to_vec();

    let mut minus = EdbDelta::new(p.edb());
    minus.push_ids(0, &[1, 3]);
    p.evaluate_incremental(&mut db, &EdbDelta::new(p.edb()), &minus)
        .unwrap();
    assert!(db.idb(0).contains(&[Elem(0), Elem(3)]), "revived via 2");
    assert!(db.idb(0).contains(&[Elem(0), Elem(4)]));
    assert!(!db.idb(0).contains(&[Elem(1), Elem(3)]));
    let mut b = a.clone();
    assert!(b.remove_tuple(SymbolId::from(0usize), &[Elem(1), Elem(3)]));
    assert_eq!(db.relations(), &p.evaluate(&b).relations[..]);

    let mut minus2 = EdbDelta::new(p.edb());
    minus2.push_ids(0, &[2, 3]);
    p.evaluate_incremental(&mut db, &EdbDelta::new(p.edb()), &minus2)
        .unwrap();
    assert!(!db.idb(0).contains(&[Elem(0), Elem(3)]));
    assert!(!db.idb(0).contains(&[Elem(0), Elem(4)]));

    let mut plus = EdbDelta::new(p.edb());
    plus.push_ids(0, &[1, 3]);
    plus.push_ids(0, &[2, 3]);
    p.evaluate_incremental(&mut db, &plus, &EdbDelta::new(p.edb()))
        .unwrap();
    assert_eq!(
        db.relations(),
        &original[..],
        "reinsertion restores the fixpoint"
    );
}

/// A database built for one program refuses batches from another, and
/// vocabulary mismatches are typed errors.
#[test]
fn mismatches_are_typed_errors() {
    let tc = gallery::transitive_closure();
    let sg = gallery::same_generation();
    let mut db = MaterializedDb::new(&tc, Structure::new(Vocabulary::digraph(), 3)).unwrap();
    let err = sg
        .evaluate_incremental(&mut db, &EdbDelta::new(sg.edb()), &EdbDelta::new(sg.edb()))
        .expect_err("different program");
    assert!(matches!(err, EvalError::ProgramMismatch { .. }));

    let err = MaterializedDb::new(&sg, Structure::new(Vocabulary::digraph(), 3))
        .expect_err("vocabulary mismatch");
    assert!(matches!(err, EvalError::ProgramMismatch { .. }));

    let err = tc
        .evaluate_incremental(&mut db, &EdbDelta::new(sg.edb()), &EdbDelta::new(sg.edb()))
        .expect_err("batch vocabulary mismatch");
    assert!(matches!(err, EvalError::ProgramMismatch { .. }));
}
