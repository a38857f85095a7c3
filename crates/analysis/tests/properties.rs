//! Property tests for the analyzer:
//!
//! 1. **Dead-rule elimination is certified**: on random programs and
//!    random structures, removing goal-unreachable rules never changes
//!    the goal's fixpoint relation.
//! 2. **Analyzer/constructor agreement**: every program `Program::new`
//!    accepts lints without Error diagnostics, and every rejected program
//!    maps to the matching `HP0xx` code at the same rule.
//! 3. **The `--fix` engine is certified**: both the AST-level
//!    [`fix_program`] and the source-level [`fix_source`] preserve the
//!    goal fixpoint on random programs and random EDB structures —
//!    checked differentially against the independent `evaluate_reference`
//!    oracle — and both are idempotent.
//! 4. **Core keys are compositional**: on random nonrecursive positive
//!    programs, every IDB's key — built over its children's memoised
//!    cores — equals the key of its from-scratch unfolding, and HP019
//!    flags exactly the pairs whose from-scratch unfoldings are
//!    equivalent. `goal_core_key`'s recursion gate agrees with the
//!    analyzer's recursion class.

use hp_analysis::datalog_passes::{recursion_class, RecursionClass};
use hp_analysis::{
    eliminate_dead_rules, fix_program, fix_source, goal_core_key, semantic_scan, Analyzer, Code,
    ProgramFacts,
};
use hp_datalog::{stage_ucq, DatalogAtom, PredRef, Program, Rule};
use hp_guard::Budget;
use hp_structures::{Elem, Structure, Vocabulary};
use proptest::prelude::*;

/// A pool of rules over the digraph EDB with IDBs `T/2`, `U/1`, `V/1`,
/// `W/1`, `Goal/0`. Subsets of the pool (always including a Goal rule)
/// form valid programs with varied dependency structure: some subsets
/// make `U`/`V` feed the goal, others leave them dead. The tail of the
/// pool feeds the semantic rewrites: rule 9 carries a redundant body
/// atom (HP017), rule 10 is semantically subsumed by rule 0 (HP018),
/// rule 11 is a renamed duplicate of rule 3 (HP018), and rules 12/13
/// build a provably-empty `W` that reaches the goal (HP015).
fn rule_pool() -> Vec<&'static str> {
    vec![
        "T(x,y) :- E(x,y).",
        "T(x,y) :- E(x,z), T(z,y).",
        "T(x,y) :- T(x,z), T(z,y).",
        "U(x) :- T(x,x).",
        "U(x) :- E(x,y), U(y).",
        "V(x) :- E(x,x).",
        "V(x) :- U(x), T(x,x).",
        "Goal() :- T(x,x).",
        "Goal() :- U(x), V(x).",
        "T(x,y) :- E(x,y), E(x,w).",
        "T(x,y) :- E(x,y), E(y,y).",
        "U(u) :- T(u,u).",
        "W(x) :- E(x,w), W(w).",
        "Goal() :- W(x).",
    ]
}

/// The `Goal() :- W(x).` rule needs `W`'s defining rule in scope, or the
/// parser reads `W` as an unknown EDB symbol.
fn close_under_w(chosen: &mut Vec<usize>) {
    if chosen.contains(&13) && !chosen.contains(&12) {
        chosen.push(12);
    }
}

/// Assemble a program text from pool indices (deduplicated, ordered).
/// The base rules for `T`, `U`, `V` and the first Goal rule are always
/// included so every IDB referenced in a body has a defining rule (the
/// parser would otherwise read it as an unknown EDB).
fn program_from_indices(picks: &[usize]) -> Program {
    let pool = rule_pool();
    let mut chosen: Vec<usize> = picks.iter().map(|&i| i % pool.len()).collect();
    chosen.extend([0, 3, 5, 7]);
    close_under_w(&mut chosen);
    chosen.sort_unstable();
    chosen.dedup();
    let text: String = chosen
        .iter()
        .map(|&i| pool[i])
        .collect::<Vec<_>>()
        .join("\n");
    Program::parse(&text, &Vocabulary::digraph()).expect("pool rules are valid")
}

/// Like [`program_from_indices`], but keeps the raw text and does *not*
/// deduplicate picks — duplicate rules are exactly what the HP013 rewrite
/// needs to see.
fn program_text_from_indices(picks: &[usize]) -> String {
    let pool = rule_pool();
    let mut chosen: Vec<usize> = picks.iter().map(|&i| i % pool.len()).collect();
    close_under_w(&mut chosen);
    let mut lines: Vec<&str> = vec![pool[0], pool[3], pool[5], pool[7]];
    lines.extend(chosen.iter().map(|&i| pool[i]));
    lines.join("\n")
}

/// A pool of **stratified negation** rules over the digraph EDB. Every
/// subset is stratifiable (negation only points at `T` and `W`, which
/// never depend on the negating predicates) and safe (negated variables
/// are always positively bound). The tail mixes in the rewrite triggers:
/// rule 9 a redundant atom (HP017), rule 10 a subsumed rule (HP018),
/// rule 11 a dead helper (HP007), rules 12/13 a provably-empty `W` used
/// positively (HP015 removes), and rules 14/15 the same `W` used
/// *negated* (vacuous guard — the fix engine must keep both the guard
/// and W's inert definition).
fn negation_rule_pool() -> Vec<&'static str> {
    vec![
        "T(x,y) :- E(x,y).",
        "T(x,y) :- E(x,z), T(z,y).",
        "V(x) :- E(x,y).",
        "V(y) :- E(x,y).",
        "NR(x,y) :- V(x), V(y), not T(x,y).",
        "S(x) :- V(x), not T(x,x).",
        "S(x) :- E(x,x).",
        "Goal() :- NR(x,y).",
        "Goal() :- S(x).",
        "T(x,y) :- E(x,y), E(x,w).",
        "T(x,y) :- E(x,y), E(y,y).",
        "Dead2(x) :- T(x,x).",
        "W(x) :- E(x,w), W(w).",
        "Goal() :- W(x), NR(x,x).",
        "U(x) :- V(x), not W(x).",
        "Goal() :- U(x).",
    ]
}

/// Assemble a stratified-negation program text: the defining rules for
/// `T`, `V`, `NR` and the first Goal rule are always present; picks add
/// more (duplicates kept — HP013 needs them), closed so every referenced
/// IDB has a defining rule in scope.
fn negation_text_from_indices(picks: &[usize]) -> String {
    let pool = negation_rule_pool();
    let mut chosen: Vec<usize> = picks.iter().map(|&i| i % pool.len()).collect();
    if chosen.contains(&8) && !chosen.contains(&6) {
        chosen.push(5); // `Goal() :- S(x).` needs S defined
    }
    if chosen.contains(&15) && !chosen.contains(&14) {
        chosen.push(14); // `Goal() :- U(x).` needs U defined
    }
    if (chosen.contains(&13) || chosen.contains(&14)) && !chosen.contains(&12) {
        chosen.push(12); // any use of W needs W defined
    }
    let mut lines: Vec<&str> = vec![pool[0], pool[2], pool[4], pool[7]];
    lines.extend(chosen.iter().map(|&i| pool[i]));
    lines.join("\n")
}

/// A digraph structure from a list of (u, v) byte pairs on `n` elements.
fn structure_from_edges(n: usize, edges: &[(u8, u8)]) -> Structure {
    let vocab = Vocabulary::digraph();
    let e = vocab.lookup("E").unwrap();
    let mut s = Structure::new(vocab, n);
    for &(u, v) in edges {
        let (u, v) = (u as usize % n, v as usize % n);
        s.add_tuple(e, &[Elem(u as u32), Elem(v as u32)]).unwrap();
    }
    s
}

/// The EDB vocabulary of [`random_positive_program`].
fn em_vocab() -> Vocabulary {
    Vocabulary::from_pairs([("E", 2), ("M", 1)])
}

/// A body atom of [`random_positive_program`]: `E`, `M`, or IDB `I{c}`,
/// with indices into the variable pool.
#[derive(Clone)]
enum Pred {
    E,
    M,
    Idb(usize),
}

/// A generated rule: head arguments and body atoms, as variable indices.
type GenRule = (Vec<usize>, Vec<(Pred, Vec<usize>)>);

/// Decode a random positive program over `{E/2, M/1}` from `bytes`: IDBs
/// `I0 … I{k-1}` of arity 0–2, each defined by 1–3 rules whose bodies mix
/// `E`/`M` atoms with IDB atoms (so shared children make diamonds). Head
/// arguments are drawn from the body's variables, repeats allowed, so
/// every rule is safe. Without `back_edges` an IDB's body mentions only
/// lower IDBs, so the program is nonrecursive, and an IDB atom is left
/// out when the rule's unfolding would exceed 4 disjuncts, keeping the
/// from-scratch unfoldings small. Some IDBs are renamed copies of the
/// previous one, so HP019 has equivalent pairs to find.
fn random_positive_program(k: usize, bytes: &[u8], back_edges: bool) -> String {
    const VARS: [&str; 4] = ["x", "y", "z", "w"];
    let mut stream = bytes.iter().cycle().map(|&b| b as usize);
    let mut next = |m: usize| stream.next().expect("cycled bytes") % m;
    let arity: Vec<usize> = (0..k).map(|_| next(3)).collect();
    // Upper bound on the disjuncts of each IDB's unfolding.
    let mut width: Vec<usize> = Vec::new();
    let mut rules: Vec<Vec<GenRule>> = Vec::new();
    let mut text = String::new();
    for j in 0..k {
        let copy = j > 0 && arity[j] == arity[j - 1] && next(3) == 0;
        if !copy {
            let mut defs = Vec::new();
            let mut total = 0;
            for _ in 0..1 + next(3) {
                let mut body = Vec::new();
                let mut prod = 1;
                for _ in 0..1 + next(3) {
                    let c = if back_edges { next(k) } else { next(j.max(1)) };
                    let w = width.get(c).copied().unwrap_or(1);
                    let atom = match next(5) {
                        0 | 1 if (back_edges || c < j) && prod * w <= 4 => {
                            prod *= w;
                            (Pred::Idb(c), (0..arity[c]).map(|_| next(4)).collect())
                        }
                        2 => (Pred::M, vec![next(4)]),
                        _ => (Pred::E, vec![next(4), next(4)]),
                    };
                    body.push(atom);
                }
                let mut vars: Vec<usize> = body.iter().flat_map(|(_, a)| a.clone()).collect();
                if vars.is_empty() && arity[j] > 0 {
                    body.push((Pred::M, vec![0]));
                    vars.push(0);
                }
                let head = (0..arity[j]).map(|_| vars[next(vars.len())]).collect();
                total += prod;
                defs.push((head, body));
            }
            width.push(total);
            rules.push(defs);
        } else {
            width.push(width[j - 1]);
            rules.push(rules[j - 1].clone());
        }
        // A copy renders the previous IDB's rules with rotated variables.
        let rot = usize::from(copy);
        for (head, body) in &rules[j] {
            let v = |i: &usize| VARS[(i + rot) % VARS.len()];
            let args = |a: &[usize]| a.iter().map(v).collect::<Vec<_>>().join(",");
            let atoms: Vec<String> = body
                .iter()
                .map(|(pred, a)| match pred {
                    Pred::E => format!("E({})", args(a)),
                    Pred::M => format!("M({})", args(a)),
                    Pred::Idb(c) => format!("I{c}({})", args(a)),
                })
                .collect();
            text.push_str(&format!("I{j}({}) :- {}.\n", args(head), atoms.join(", ")));
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Certified dead-rule elimination: the goal relation of the pruned
    /// program equals the original's on arbitrary structures, and the
    /// pruned program triggers no HP007 diagnostics itself.
    #[test]
    fn dead_rule_elimination_preserves_goal_fixpoint(
        picks in prop::collection::vec(0usize..9, 0..6),
        edges in prop::collection::vec((0u8..6, 0u8..6), 0..14),
        n in 1usize..6,
    ) {
        let p = program_from_indices(&picks);
        let out = eliminate_dead_rules(&p, "Goal").expect("Goal always present");
        let a = structure_from_edges(n, &edges);
        let before = p.evaluate(&a);
        let after = out.program.evaluate(&a);
        prop_assert_eq!(before.idb("Goal"), after.idb("Goal"));
        // Elimination is complete: no dead rules remain afterwards.
        let ds = Analyzer::default_pipeline().analyze_program(&out.program);
        prop_assert!(!ds.contains(Code::Hp007), "{}", ds.render("pruned", None));
        // And it removed exactly the rules HP007 flagged on the original.
        let flagged: Vec<usize> = Analyzer::default_pipeline()
            .analyze_program(&p)
            .iter()
            .filter(|d| d.code == Code::Hp007)
            .filter_map(|d| d.span.rule)
            .collect();
        prop_assert_eq!(flagged, out.removed);
    }

    /// Programs accepted by `Program::new` produce no Error diagnostics.
    #[test]
    fn accepted_programs_lint_clean(
        picks in prop::collection::vec(0usize..9, 0..7),
    ) {
        let p = program_from_indices(&picks);
        let ds = Analyzer::default_pipeline().analyze_program(&p);
        prop_assert!(!ds.has_errors(), "{}", ds.render("accepted", None));
    }

    /// `fix_program` is certified: the fixed program computes the same
    /// goal relation as the original on arbitrary EDB structures, under
    /// the independent reference evaluator — including the semantic
    /// rewrites (HP015 never-firing rules, HP017 redundant atoms, HP018
    /// subsumed rules). Fixing is also complete (no
    /// HP006/HP007/HP013/HP017/HP018 remain) and idempotent.
    #[test]
    fn fix_program_preserves_goal_fixpoint_against_reference(
        picks in prop::collection::vec(0usize..14, 0..8),
        edges in prop::collection::vec((0u8..6, 0u8..6), 0..14),
        n in 1usize..6,
    ) {
        let text = program_text_from_indices(&picks);
        let p = Program::parse(&text, &Vocabulary::digraph()).expect("pool rules are valid");
        let fix = fix_program(&p);
        let a = structure_from_edges(n, &edges);
        let before = p.evaluate_reference(&a);
        let after = fix.program.evaluate_reference(&a);
        prop_assert_eq!(before.idb("Goal"), after.idb("Goal"));
        // The fixed program is clean of everything the rewrites discharge.
        let ds = Analyzer::default_pipeline().analyze_program(&fix.program);
        for c in [Code::Hp006, Code::Hp007, Code::Hp013, Code::Hp017, Code::Hp018] {
            prop_assert!(!ds.contains(c), "{}", ds.render("fixed", None));
        }
        // Idempotent: a second fix has nothing left to do.
        prop_assert!(!fix_program(&fix.program).changed());
    }

    /// `fix_source` agrees with `fix_program` on what to remove, its
    /// output re-parses to a program with the same goal fixpoint (again
    /// differentially against the reference evaluator), and re-fixing the
    /// fixed text is the identity.
    #[test]
    fn fix_source_is_certified_and_idempotent(
        picks in prop::collection::vec(0usize..14, 0..8),
        edges in prop::collection::vec((0u8..6, 0u8..6), 0..14),
        n in 1usize..6,
    ) {
        let text = program_text_from_indices(&picks);
        let vocab = Vocabulary::digraph();
        let out = fix_source(&text, Some(&vocab)).expect("pool text parses");
        let p = Program::parse(&text, &vocab).unwrap();
        let q = Program::parse(&out.fixed, &vocab).expect("fixed text parses");
        let a = structure_from_edges(n, &edges);
        let before = p.evaluate_reference(&a);
        let after = q.evaluate_reference(&a);
        prop_assert_eq!(before.idb("Goal"), after.idb("Goal"));
        // Source-level and AST-level fixing remove the same rules and the
        // same body atoms for the same reasons.
        let fixp = fix_program(&p);
        let by_source: Vec<(usize, Code)> = out.removed.iter().map(|r| (r.rule, r.code)).collect();
        let by_ast: Vec<(usize, Code)> = fixp.removed.iter().map(|r| (r.rule, r.code)).collect();
        prop_assert_eq!(by_source, by_ast);
        let atoms_source: Vec<(usize, usize)> =
            out.removed_atoms.iter().map(|a| (a.rule, a.atom)).collect();
        let atoms_ast: Vec<(usize, usize)> =
            fixp.removed_atoms.iter().map(|a| (a.rule, a.atom)).collect();
        prop_assert_eq!(atoms_source, atoms_ast);
        // Idempotent on the text level, byte for byte.
        let again = fix_source(&out.fixed, Some(&vocab)).unwrap();
        prop_assert!(!again.changed());
        prop_assert_eq!(&again.fixed, &out.fixed);
    }

    /// The fix engine is certified **under stratified negation**: on
    /// random stratified programs with negated guards, both fix levels
    /// preserve the goal's stratified fixpoint (differentially against
    /// the reference oracle), agree with each other, never misread a
    /// negated literal as positive, and stay byte-idempotent.
    #[test]
    fn fix_is_certified_on_stratified_negation_programs(
        picks in prop::collection::vec(0usize..16, 0..8),
        edges in prop::collection::vec((0u8..6, 0u8..6), 0..14),
        n in 1usize..6,
    ) {
        let text = negation_text_from_indices(&picks);
        let vocab = Vocabulary::digraph();
        let p = Program::parse(&text, &vocab).expect("pool subsets are stratifiable");
        let out = fix_source(&text, Some(&vocab)).expect("pool text parses");
        let q = Program::parse(&out.fixed, &vocab).expect("fixed text parses");
        let a = structure_from_edges(n, &edges);
        let before = p.evaluate_reference(&a);
        let after = q.evaluate_reference(&a);
        prop_assert_eq!(before.idb("Goal"), after.idb("Goal"));
        // Source- and AST-level fixing agree rule-for-rule.
        let fixp = fix_program(&p);
        let by_source: Vec<(usize, Code)> = out.removed.iter().map(|r| (r.rule, r.code)).collect();
        let by_ast: Vec<(usize, Code)> = fixp.removed.iter().map(|r| (r.rule, r.code)).collect();
        prop_assert_eq!(by_source, by_ast);
        // A negated guard is never deleted as a "redundant atom".
        for ra in &out.removed_atoms {
            prop_assert!(!ra.text.starts_with("not "), "removed negated atom {:?}", ra);
        }
        // Byte-idempotent on negated programs too.
        let again = fix_source(&out.fixed, Some(&vocab)).unwrap();
        prop_assert!(!again.changed());
        prop_assert_eq!(&again.fixed, &out.fixed);
    }

    /// Programs rejected by `Program::new` map to the matching HP code:
    /// whatever structured error the constructor reports, the analyzer
    /// reports the same code as an Error at the same rule — including
    /// unsafe negation (HP023) and cycles through negation (HP022), which
    /// both sides read off the same dependency graph.
    #[test]
    fn rejected_programs_map_to_specific_codes(
        shapes in prop::collection::vec(
            // (head_pred, head_nargs, body_pred, body_nargs, negated) with
            // preds drawn loosely so arity/safety/head/negation violations
            // all occur.
            (0usize..3, 0usize..4, 0usize..3, 0usize..4, any::<bool>()),
            1..5,
        ),
    ) {
        let edb = Vocabulary::digraph();
        let e = edb.lookup("E").unwrap();
        let idbs = vec![("T".to_string(), 2), ("Goal".to_string(), 0)];
        let pred_of = |i: usize| match i {
            0 => PredRef::Edb(e),
            1 => PredRef::Idb(0),
            _ => PredRef::Idb(1),
        };
        let rules: Vec<Rule> = shapes
            .iter()
            .map(|&(hp, hn, bp, bn, negated)| Rule {
                head: DatalogAtom {
                    pred: pred_of(hp),
                    // Head args drawn from {0,1}; body args from {2,3,...}
                    // with overlap only at 0 — so unsafe heads happen.
                    args: (0..hn as u32).collect(),
                    negated: false,
                },
                body: vec![DatalogAtom {
                    pred: pred_of(bp),
                    args: (0..bn as u32).collect(),
                    negated,
                }],
            })
            .collect();
        let var_names: Vec<String> = (0..4).map(|v| format!("x{v}")).collect();
        let verdict = Program::new(
            edb.clone(),
            idbs.clone(),
            rules.clone(),
            var_names.clone(),
        );
        let facts = ProgramFacts::from_parts(edb, idbs, rules, var_names);
        let ds = Analyzer::default_pipeline().run_on(&facts);
        match verdict {
            Ok(_) => prop_assert!(!ds.has_errors(), "{}", ds.render("t", None)),
            Err(err) => {
                let code = Code::of_datalog(&err.kind);
                let hit = ds.iter().any(|d| {
                    d.code == code
                        && d.severity == hp_analysis::Severity::Error
                        && d.span.rule == err.span.rule
                });
                prop_assert!(
                    hit,
                    "constructor said {:?} (rule {:?}), analyzer said:\n{}",
                    err.kind,
                    err.span.rule,
                    ds.render("t", None)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Compositional core keys equal from-scratch ones. Every IDB's key,
    /// computed by `goal_core_key` over its children's memoised cores,
    /// equals the canonical-core key of its full `stage_ucq` unfolding;
    /// and the scan's HP019 findings are exactly the same-arity pairs
    /// whose from-scratch unfoldings are equivalent, in pair order.
    #[test]
    fn compositional_core_keys_match_from_scratch_unfoldings(
        k in 1usize..6,
        bytes in prop::collection::vec(any::<u8>(), 96),
    ) {
        let text = random_positive_program(k, &bytes, false);
        let p = Program::parse(&text, &em_vocab()).expect("generated programs are valid");
        let m = p.idbs().len();
        let unfolded: Vec<_> = (0..m).map(|i| stage_ucq(&p, i, m).unwrap()).collect();
        for (i, (name, _)) in p.idbs().iter().enumerate() {
            let q = p.clone().with_goal(name).unwrap();
            let key = goal_core_key(&q, &Budget::unlimited()).unwrap();
            prop_assert_eq!(key, Some(unfolded[i].canonical_core_key()), "{} in\n{}", name, text);
        }
        let facts = ProgramFacts::of_program(&p);
        let found = semantic_scan(&facts, &Budget::unlimited()).unwrap();
        let hp019: Vec<_> = found.iter().filter(|d| d.code == Code::Hp019).collect();
        let mut expected = Vec::new();
        for i in 0..m {
            for j in i + 1..m {
                if p.idbs()[i].1 == p.idbs()[j].1 && unfolded[i].is_equivalent_to(&unfolded[j]) {
                    let first_rule = p.rules().iter().position(|r| r.head.pred == PredRef::Idb(j));
                    let names = format!("IDB predicates {} and {} ", p.idbs()[i].0, p.idbs()[j].0);
                    expected.push((names, first_rule));
                }
            }
        }
        prop_assert_eq!(hp019.len(), expected.len(), "{:?} in\n{}", hp019, text);
        for (d, (names, rule)) in hp019.iter().zip(&expected) {
            prop_assert!(d.message.starts_with(names.as_str()), "{} vs {}", d.message, names);
            prop_assert_eq!(d.span.rule, *rule);
        }
    }

    /// `goal_core_key` gates on the program's dependency graph; the gate
    /// lets a program through exactly when the analyzer classes it
    /// nonrecursive. A fuel cap bounds the key work past the gate, and
    /// exhaustion there still means the gate let the program through.
    #[test]
    fn goal_core_key_gate_matches_recursion_class(
        k in 1usize..6,
        bytes in prop::collection::vec(any::<u8>(), 96),
        back_edges in any::<bool>(),
    ) {
        let text = random_positive_program(k, &bytes, back_edges);
        let p = Program::parse(&text, &em_vocab())
            .and_then(|p| p.with_goal(&format!("I{}", k - 1)))
            .expect("generated programs are valid");
        let nonrecursive =
            recursion_class(&ProgramFacts::of_program(&p)) == RecursionClass::Nonrecursive;
        let keyed = !matches!(goal_core_key(&p, &Budget::fuel(5_000)), Ok(None));
        prop_assert_eq!(keyed, nonrecursive, "{}", text);
    }
}
