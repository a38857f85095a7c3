//! Property-based tests for hp-datalog: naive/semi-naive agreement on
//! random inputs, stage monotonicity, unfolding agreement, boundedness
//! certificate soundness, and least strata over the dependency graph.

use proptest::prelude::*;

use hp_datalog::{
    certified_bounded_at, stage_ucq, stages_agree, DatalogAtom, DatalogErrorKind, DepGraph,
    PredRef, Program, Rule,
};
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

fn programs() -> Vec<Program> {
    let v = Vocabulary::digraph();
    vec![
        tc(),
        Program::parse("P(x,y) :- E(x,z), E(z,y).", &v).unwrap(),
        Program::parse("L(x) :- E(x,x).\nL(x) :- E(x,y), L(y).", &v).unwrap(),
        Program::parse(
            "Even(x,y) :- E(x,z), Odd(z,y).\nOdd(x,y) :- E(x,y).\nOdd(x,y) :- E(x,z), Even(z,y).",
            &v,
        )
        .unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Naive fixpoint == semi-naive fixpoint, and stage counts agree, for
    /// every program in the gallery on random digraphs.
    #[test]
    fn naive_semi_naive_agree(a in digraph_strategy(6, 14)) {
        for p in programs() {
            let naive = p.stages(&a, 64);
            prop_assert!(naive.converged);
            let semi = p.evaluate(&a);
            prop_assert_eq!(&semi.relations[..], naive.last());
            prop_assert_eq!(semi.stages, naive.applications());
        }
    }

    /// Stages are monotone under Φ (least-fixpoint iteration from ∅).
    #[test]
    fn stages_monotone(a in digraph_strategy(6, 12)) {
        for p in programs() {
            let st = p.stages(&a, 32).stages;
            for w in st.windows(2) {
                for (r0, r1) in w[0].iter().zip(&w[1]) {
                    prop_assert!(r0.is_subset(r1));
                }
            }
        }
    }

    /// Theorem 7.1: unfolded stage UCQs agree with the operator stages.
    #[test]
    fn unfolding_agrees(a in digraph_strategy(5, 10)) {
        for p in programs() {
            prop_assert!(stages_agree(&p, &a, 3).is_ok());
        }
    }

    /// Fixpoints are preserved under homomorphisms elementwise: Datalog
    /// queries are (infinitary) UCQs, so if h : A → B then h(T^A) ⊆ T^B.
    #[test]
    fn fixpoint_preserved_under_homs(a in digraph_strategy(5, 8), b in digraph_strategy(5, 12)) {
        if let Some(h) = hp_hom::find_hom(&a, &b) {
            let p = tc();
            let fa = p.evaluate(&a);
            let fb = p.evaluate(&b);
            for t in &fa.relations[0] {
                let mapped: Vec<_> = t.iter().map(|e| h[e.index()]).collect();
                prop_assert!(fb.relations[0].contains(&mapped));
            }
        }
    }

    /// Soundness of the boundedness certificate: if certified at s, the
    /// fixpoint equals stage s on arbitrary random structures.
    #[test]
    fn certificate_sound(a in digraph_strategy(6, 12)) {
        let v = Vocabulary::digraph();
        let p = Program::parse(
            "R(x) :- E(x,x).\nR(x) :- E(x,y), R(y), E(x,x).",
            &v,
        ).unwrap();
        prop_assert!(certified_bounded_at(&p, 1).unwrap());
        let u = stage_ucq(&p, 0, 1).unwrap();
        let fix = p.evaluate(&a);
        let mut expected: Vec<_> = fix.relations[0].iter().map(|t| t.to_vec()).collect();
        expected.sort();
        prop_assert_eq!(u.answers(&a), expected);
    }

    /// TC is never certified bounded at small stages (completeness side on
    /// a known-unbounded program).
    #[test]
    fn tc_never_certifies(s in 0usize..4) {
        prop_assert!(!certified_bounded_at(&tc(), s).unwrap());
    }

    /// `Program::strata()` is the least stratification and the SCC list
    /// is a topological condensation, on random programs with negation:
    /// every positive edge satisfies `≤` and every negated edge `<`; each
    /// SCC at stratum `s > 0` has an edge leaving it that forces `s`
    /// (which, SCC by SCC in topological order, pins the least solution);
    /// SCCs are exactly the mutual-reachability classes; and every
    /// dependency sits in the same or an earlier SCC. Programs rejected as
    /// unstratifiable have a negative edge inside an SCC.
    #[test]
    fn strata_are_least_and_sccs_topological(
        shapes in prop::collection::vec(
            // Body atoms (IDB, variable, negated unless the draw is > 0):
            // one in four negated, so stratifiable programs still carry
            // multi-member SCCs.
            (0usize..5, prop::collection::vec((0usize..5, 0u32..2, 0u8..4), 0..3)),
            1..8,
        ),
    ) {
        const K: usize = 5;
        let v = Vocabulary::digraph();
        let e = v.lookup("E").unwrap();
        let idbs: Vec<(String, usize)> = (0..K).map(|i| (format!("P{i}"), 1)).collect();
        // Head P_h(x0) guarded by E(x0,x1), so every rule is safe.
        let rules: Vec<Rule> = shapes
            .iter()
            .map(|(h, atoms)| Rule {
                head: DatalogAtom::positive(PredRef::Idb(*h), vec![0]),
                body: std::iter::once(DatalogAtom::positive(PredRef::Edb(e), vec![0, 1]))
                    .chain(atoms.iter().map(|&(q, x, draw)| DatalogAtom {
                        pred: PredRef::Idb(q),
                        args: vec![x],
                        negated: draw == 0,
                    }))
                    .collect(),
            })
            .collect();
        let names = vec!["x".to_string(), "y".to_string()];
        let g = DepGraph::new(K, &rules);
        let p = match Program::new(v.clone(), idbs, rules.clone(), names) {
            Ok(p) => p,
            Err(err) => {
                prop_assert!(
                    matches!(err.kind, DatalogErrorKind::UnstratifiableNegation { .. }),
                    "{err}"
                );
                prop_assert!((0..g.scc_count()).any(|s| g.scc_has_negative_edge(s)));
                return Ok(());
            }
        };
        let (strata, g) = (p.strata(), p.graph());
        let edges: Vec<(usize, usize, bool)> = rules
            .iter()
            .flat_map(|r| {
                let PredRef::Idb(h) = r.head.pred else { unreachable!() };
                r.body.iter().filter_map(move |a| match a.pred {
                    PredRef::Idb(q) => Some((h, q, a.negated)),
                    PredRef::Edb(_) => None,
                })
            })
            .collect();
        for &(h, q, neg) in &edges {
            if neg {
                prop_assert!(strata[q] < strata[h], "{h} -not-> {q}: {strata:?}");
            } else {
                prop_assert!(strata[q] <= strata[h], "{h} -> {q}: {strata:?}");
            }
            prop_assert!(g.scc_of(q) <= g.scc_of(h), "{h} -> {q} breaks topological order");
        }
        for s in 0..g.scc_count() {
            let level = strata[g.scc_members(s)[0]];
            prop_assert!(g.scc_members(s).iter().all(|&m| strata[m] == level));
            if level > 0 {
                prop_assert!(
                    edges.iter().any(|&(h, q, neg)| g.scc_of(h) == s
                        && g.scc_of(q) != s
                        && strata[q] + usize::from(neg) == level),
                    "stratum {level} of SCC {s} is not forced: {strata:?}"
                );
            }
        }
        // Transitive closure of the dependency relation, for the SCCs.
        let mut reach = [[false; K]; K];
        for &(h, q, _) in &edges {
            reach[h][q] = true;
        }
        for m in 0..K {
            for a in 0..K {
                for b in 0..K {
                    reach[a][b] |= reach[a][m] && reach[m][b];
                }
            }
        }
        for (a, row) in reach.iter().enumerate() {
            for (b, &a_to_b) in row.iter().enumerate() {
                let mutual = a == b || (a_to_b && reach[b][a]);
                prop_assert_eq!(g.scc_of(a) == g.scc_of(b), mutual, "{} vs {}", a, b);
            }
        }
    }
}
