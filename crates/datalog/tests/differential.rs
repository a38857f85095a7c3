//! Differential tests for the evaluator stack: the naive stage oracle
//! ([`Program::stages`]), the scan-based seed evaluator
//! ([`Program::evaluate_reference`]), and the indexed semi-naive engine
//! ([`Program::evaluate_with`]) at every thread count in {1, 2, 4} must
//! agree **bit for bit** — relations *and* stage counts — on random
//! programs and random structures, including rules with duplicate IDB body
//! atoms, repeated variables, and 0-ary heads.

use proptest::prelude::*;

use hp_datalog::{DatalogAtom, EvalConfig, PredRef, Program, Rule};
use hp_structures::{Structure, Vocabulary};

/// IDB signature used by the random programs: `A/1`, `B/2`, `G/0`.
fn idb_signature() -> Vec<(String, usize)> {
    vec![
        ("A".to_string(), 1),
        ("B".to_string(), 2),
        ("G".to_string(), 0),
    ]
}

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

/// Raw atom descriptor: predicate choice 0..4 (E, A, B, G) plus two
/// variable candidates; the arity decides how many are used.
type RawAtom = (usize, (u32, u32));

/// Build a *valid* program from raw rule descriptors: head variables are
/// remapped onto body variables (safety by construction), and heads whose
/// body binds nothing collapse to the 0-ary `G`.
fn build_program(raw_rules: Vec<(usize, (u32, u32), Vec<RawAtom>)>) -> Program {
    let vocab = Vocabulary::digraph();
    let arities = [2usize, 1, 2, 0]; // E, A, B, G
    let mut rules = Vec::new();
    for (head_choice, head_vars, raw_body) in raw_rules {
        let mut body = Vec::new();
        let mut body_vars: Vec<u32> = Vec::new();
        for (pred_choice, (v0, v1)) in raw_body {
            let pred_choice = pred_choice % 4;
            let args: Vec<u32> = [v0 % 4, v1 % 4][..arities[pred_choice]].to_vec();
            body_vars.extend(&args);
            let pred = if pred_choice == 0 {
                PredRef::Edb(0usize.into())
            } else {
                PredRef::Idb(pred_choice - 1)
            };
            body.push(DatalogAtom {
                pred,
                args,
                negated: false,
            });
        }
        body_vars.sort_unstable();
        body_vars.dedup();
        // 0..3 picks A, B, or G; bodies that bind no variable force G.
        let head_idb = if body_vars.is_empty() {
            2
        } else {
            head_choice % 3
        };
        let head_arity = [1usize, 2, 0][head_idb];
        let args: Vec<u32> = [head_vars.0, head_vars.1][..head_arity]
            .iter()
            .map(|&v| body_vars[v as usize % body_vars.len()])
            .collect();
        rules.push(Rule {
            head: DatalogAtom {
                pred: PredRef::Idb(head_idb),
                args,
                negated: false,
            },
            body,
        });
    }
    Program::new(vocab, idb_signature(), rules, Vec::new()).expect("repaired rules are valid")
}

fn program_strategy() -> impl Strategy<Value = Program> {
    prop::collection::vec(
        (
            0usize..3,
            (0u32..4, 0u32..4),
            prop::collection::vec((0usize..4, (0u32..4, 0u32..4)), 1..4),
        ),
        1..5,
    )
    .prop_map(build_program)
}

/// Hand-picked programs covering the shapes the ISSUE calls out
/// explicitly: duplicate IDB body atoms, repeated variables, 0-ary heads,
/// mutual recursion, and nonlinear recursion.
fn gallery() -> Vec<Program> {
    let v = Vocabulary::digraph();
    [
        // Linear and nonlinear transitive closure (nonlinear = duplicate
        // IDB predicate in one body).
        "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).",
        "T(x,y) :- E(x,y).\nT(x,y) :- T(x,z), T(z,y).",
        // Literally duplicated IDB body atom plus a repeated variable.
        "A(x) :- E(x,x).\nB(x,y) :- A(x), A(x), E(x,y).",
        // 0-ary head fed by recursion.
        "A(x) :- E(x,x).\nA(x) :- E(x,y), A(y).\nG() :- A(x).",
        // Mutual recursion.
        "Even(x,y) :- E(x,z), Odd(z,y).\nOdd(x,y) :- E(x,y).\nOdd(x,y) :- E(x,z), Even(z,y).",
        // Cartesian-ish rule: disconnected body atoms.
        "B(x,y) :- E(x,x), E(y,y).",
    ]
    .iter()
    .map(|text| Program::parse(text, &v).unwrap())
    .collect()
}

/// The heart of the differential suite: every evaluator and every thread
/// count agrees with the naive stage oracle on `a`.
fn assert_all_agree(p: &Program, a: &Structure) -> Result<(), TestCaseError> {
    let naive = p.stages(a, 64);
    prop_assert!(naive.converged, "oracle must converge within 64 stages");
    let reference = p.evaluate_reference(a);
    prop_assert_eq!(&reference.relations[..], naive.last());
    prop_assert_eq!(reference.stages, naive.applications());
    for threads in [1usize, 2, 4] {
        // min_seed 0 keeps the pool engaged even on these tiny structures.
        let cfg = EvalConfig::new()
            .with_threads(threads)
            .with_parallel_min_seed(0);
        let r = p.evaluate_with(a, &cfg);
        prop_assert_eq!(&r.relations, &reference.relations, "threads {}", threads);
        prop_assert_eq!(r.stages, reference.stages, "threads {}", threads);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random programs × random structures: naive oracle, scan reference,
    /// and the indexed engine at 1/2/4 threads are bit-identical.
    #[test]
    fn random_programs_agree(p in program_strategy(), a in digraph_strategy(6, 16)) {
        assert_all_agree(&p, &a)?;
    }

    /// The hand-picked shape gallery on random structures.
    #[test]
    fn gallery_programs_agree(a in digraph_strategy(7, 18)) {
        for p in gallery() {
            assert_all_agree(&p, &a)?;
        }
    }
}

/// Larger fixed structures so the parallel path actually distributes work
/// over non-trivial delta shards (the proptest structures are tiny).
#[test]
fn parallel_shards_agree_on_large_digraphs() {
    use hp_structures::generators::random_digraph;
    let programs = gallery();
    for seed in [3u64, 17, 40] {
        let a = random_digraph(40, 140, seed);
        for p in &programs {
            let reference = p.evaluate_reference(&a);
            for threads in [1usize, 2, 4] {
                let cfg = EvalConfig::new()
                    .with_threads(threads)
                    .with_parallel_min_seed(0);
                let r = p.evaluate_with(&a, &cfg);
                assert_eq!(r.relations, reference.relations, "threads {threads}");
                assert_eq!(r.stages, reference.stages, "threads {threads}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stratified negation: the indexed engine at 1/2/4 threads vs the extended
// scan-based reference oracle. The naive `stages` oracle is positive-only
// (the operator is non-monotone under negation), so here the reference
// evaluator *is* the oracle — an independent implementation with its own
// stratum loop and trailing membership guards.
// ---------------------------------------------------------------------------

/// splitmix64 — a self-contained deterministic generator for the random
/// EDB sweep (no external dependency, stable across platforms).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random structure over an arbitrary vocabulary: `n` elements, and per
/// relation `m` tuple draws (duplicates collapse). Unary relations are
/// additionally biased to cover most of the universe so guards like
/// `Node(x)` and `Pos(x)` have substance.
fn random_edb(vocab: &Vocabulary, n: usize, m: usize, seed: u64) -> Structure {
    let mut s = Structure::new(vocab.clone(), n);
    let mut state = seed ^ 0xD1B5_4A32_D192_ED03;
    for (sym, info) in vocab.iter() {
        if info.arity == 1 {
            for e in 0..n {
                if !splitmix64(&mut state).is_multiple_of(4) {
                    s.add_tuple_ids(sym.index(), &[e as u32]).unwrap();
                }
            }
            continue;
        }
        for _ in 0..m {
            let t: Vec<u32> = (0..info.arity)
                .map(|_| (splitmix64(&mut state) % n as u64) as u32)
                .collect();
            s.add_tuple_ids(sym.index(), &t).unwrap();
        }
    }
    s
}

/// The negation program gallery the random sweep runs over.
fn negation_gallery() -> Vec<Program> {
    vec![
        hp_datalog::gallery::non_reachability(),
        hp_datalog::gallery::set_difference(),
        hp_datalog::gallery::win_move(1),
        hp_datalog::gallery::win_move(2),
        hp_datalog::gallery::win_move(3),
        // Goal over the top of a two-stratum program: a positive join
        // *after* a negated guard.
        Program::parse(
            "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).\n\
             NR(x,y) :- Node(x), Node(y), not T(x,y).\nGoal() :- NR(x,x).",
            &Vocabulary::from_pairs([("E", 2), ("Node", 1)]),
        )
        .unwrap(),
        // Unary guards, EDB and IDB, each beside a positive probe of the
        // same predicate on the same position: the guard's membership
        // arena must stay apart from the probe's index.
        Program::parse(
            "U(x) :- E(x,y), not M(y).\nP(x) :- E(x,y), M(y).\n\
             R(x) :- M(x).\nR(y) :- R(x), E(x,y).\nS(x) :- E(x,y), R(y), not R(x).",
            &Vocabulary::from_pairs([("E", 2), ("M", 1)]),
        )
        .unwrap(),
    ]
}

/// Evaluate `p` on `a` at 1, 2 and 4 threads (every round on the pool)
/// and assert relations and stage counts equal the reference oracle's.
fn assert_matches_reference(p: &Program, a: &Structure, what: &str) {
    let reference = p.evaluate_reference(a);
    for threads in [1usize, 2, 4] {
        let cfg = EvalConfig::new()
            .with_threads(threads)
            .with_parallel_min_seed(0);
        let r = p.evaluate_with(a, &cfg);
        assert_eq!(r.relations, reference.relations, "{what} threads {threads}");
        assert_eq!(r.stages, reference.stages, "{what} threads {threads}");
    }
}

/// ~128 random EDBs: every stratifiable negation gallery program evaluates
/// bit-identically at 1/2/4 threads and matches the reference oracle —
/// relations *and* stage counts.
#[test]
fn stratified_negation_differential_sweep() {
    let programs = negation_gallery();
    let mut edbs = 0usize;
    for seed in 0..22u64 {
        for p in &programs {
            let n = 3 + (seed as usize % 5);
            let m = 2 + (seed as usize * 3) % 12;
            let a = random_edb(p.edb(), n, m, seed * 131 + 7);
            edbs += 1;
            assert_matches_reference(p, &a, &format!("seed {seed}"));
        }
    }
    assert!(edbs >= 128, "sweep covered only {edbs} EDBs");
}

/// The sweep at universe sizes around the 64-bit word boundaries of the
/// unary guards' membership bitmaps (one word, exactly one, one bit into
/// the second, and past two), where the random EDBs above all fit in one
/// word.
#[test]
fn stratified_negation_sweep_across_bitmap_words() {
    let programs = negation_gallery();
    for n in [63usize, 64, 65, 129] {
        for seed in 0..3u64 {
            for (i, p) in programs.iter().enumerate() {
                let a = random_edb(p.edb(), n, n + n / 2, seed * 977 + n as u64);
                assert_matches_reference(p, &a, &format!("n {n} seed {seed} program {i}"));
            }
        }
    }
}

/// Assert the exact resume law for `p` on `a`: for every `f1` in `f1s`
/// and each `f2`, fuel `f1` then `f2` lands bit-identically on a single
/// `f1 + f2` run — relations, stage counts, pending delta, and fuel state.
fn assert_fuel_split_law(p: &Program, a: &Structure, f1s: std::ops::Range<u64>) {
    use hp_guard::Budget;
    let cfg = EvalConfig::new();
    let full = p.evaluate(a);
    for f1 in f1s {
        for f2 in [1u64, 3, 11, 500] {
            let straight = p.evaluate_budgeted(a, &cfg, &Budget::fuel(f1 + f2));
            let split = match p.evaluate_budgeted(a, &cfg, &Budget::fuel(f1)) {
                Ok(r) => Ok(r),
                Err(e) => p
                    .resume_budgeted(a, &cfg, e.partial, &Budget::fuel(f2))
                    .expect("checkpoint comes from this program"),
            };
            match (straight, split) {
                (Ok(s), Ok(t)) => {
                    assert_eq!(s.relations, t.relations, "f1={f1} f2={f2}");
                    assert_eq!(s.stages, t.stages, "f1={f1} f2={f2}");
                    assert_eq!(s.relations, full.relations, "f1={f1} f2={f2}");
                }
                (Err(s), Err(t)) => {
                    let (s, t) = (s.partial, t.partial);
                    assert_eq!(s.partial.relations, t.partial.relations, "f1={f1} f2={f2}");
                    assert_eq!(s.partial.stages, t.partial.stages, "f1={f1} f2={f2}");
                    assert_eq!(s.pending_delta(), t.pending_delta(), "f1={f1} f2={f2}");
                    assert_eq!(s.fuel_state(), t.fuel_state(), "f1={f1} f2={f2}");
                }
                (s, t) => panic!(
                    "split and straight disagree on exhaustion for f1={f1} f2={f2}: \
                     straight ok={} split ok={}",
                    s.is_ok(),
                    t.is_ok()
                ),
            }
        }
    }
}

/// Budgeted evaluation of stratified programs obeys the exact resume law
/// across stratum boundaries: fuel `f1` then `f2` lands bit-identically on
/// a single `f1 + f2` run — relations, stage counts, pending delta, and
/// fuel state.
#[test]
fn stratified_fuel_split_equals_straight_run() {
    let p = hp_datalog::gallery::non_reachability();
    let a = random_edb(p.edb(), 6, 10, 42);
    assert_fuel_split_law(&p, &a, 1..40);
}

/// The same law where checkpoints cross unary guards: `win_move(2)` reads
/// its lower strata through membership bitmaps, which a resumed run
/// refills from the checkpoint's relations. 70 positions span two bitmap
/// words; `f1` runs past the straight run's whole fuel spend, so every
/// stratum boundary is a stop point.
#[test]
fn stratified_fuel_split_over_unary_guards() {
    let p = hp_datalog::gallery::win_move(2);
    let a = random_edb(p.edb(), 70, 90, 7);
    let profile = p.evaluate(&a).profile;
    assert_eq!(profile.len(), p.num_strata());
    let total: u64 = profile.iter().map(|s| s.fuel).sum();
    assert_fuel_split_law(&p, &a, 1..total + 2);
}

/// The same law on programs whose delta orders probe an IDB through a
/// permuted copy (key `[1]`): a resumed run rebuilds the copy from the
/// checkpoint's relations, then absorbs the pending delta into it. In
/// nonlinear TC the copy serves the right-delta variant, which TC never
/// needs (every new path also splits with its newest half on the left);
/// in the second program it serves the `B`-delta variant of the `A` rule,
/// the only one that joins an old `A` fact with a `B` fact derived rounds
/// later. `f1` runs past each straight run's whole fuel spend, so every
/// round boundary is a stop point.
#[test]
fn nonlinear_fuel_split_over_idb_copies() {
    let nonlinear_tc = Program::parse(
        "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), T(y,z).",
        &Vocabulary::digraph(),
    )
    .unwrap();
    let late_right = Program::parse(
        "A(x,y) :- E(x,y).\nB(x,y) :- F(x,y).\nB(x,z) :- B(x,y), E(y,z).\n\
         A(x,z) :- A(x,y), B(y,z).",
        &Vocabulary::from_pairs([("E", 2), ("F", 2)]),
    )
    .unwrap();
    let cases = [
        (
            hp_structures::generators::random_digraph(40, 55, 3),
            nonlinear_tc,
        ),
        (random_edb(late_right.edb(), 30, 40, 11), late_right),
    ];
    for (a, p) in &cases {
        let full = p.evaluate(a);
        assert!(full.stages >= 4, "the run spans several rounds");
        let total: u64 = full.profile.iter().map(|s| s.fuel).sum();
        assert_fuel_split_law(p, a, 1..total + 2);
    }
}

/// The old failure shape, demonstrated: a capped stage sequence used to be
/// indistinguishable from a converged one. `converged` now tells them
/// apart.
#[test]
fn capped_runs_surface_non_convergence() {
    let p = Program::parse(
        "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).",
        &Vocabulary::digraph(),
    )
    .unwrap();
    let a = hp_structures::generators::directed_path(12);
    let capped = p.stages(&a, 4);
    let full = p.stages(&a, 64);
    // Pre-fix, both of these looked like "the" stage sequence.
    assert!(!capped.converged);
    assert!(full.converged);
    assert_ne!(capped.last(), full.last());
}
