//! Property-based tests for hp-hom: solver soundness, composition laws,
//! core invariants, and isomorphism as an equivalence.

use proptest::prelude::*;

use hp_guard::Budget;
use hp_hom::{
    are_homomorphically_equivalent, are_isomorphic, core_of, core_of_pointed_gauged, is_core,
    HomSearch,
};
use hp_logic::Cq;
use hp_structures::{Elem, Structure, Vocabulary};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every hom the solver returns really is a homomorphism.
    #[test]
    fn solver_is_sound(a in digraph_strategy(5, 8), b in digraph_strategy(5, 10)) {
        if let Some(h) = HomSearch::new(&a, &b).solve() {
            prop_assert!(a.is_homomorphism(&h, &b));
        }
    }

    /// Completeness against brute force on tiny instances.
    #[test]
    fn solver_is_complete(a in digraph_strategy(3, 5), b in digraph_strategy(3, 6)) {
        let n = a.universe_size();
        let m = b.universe_size();
        let mut brute = false;
        let total = (m as u64).pow(n as u32);
        for code in 0..total {
            let mut c = code;
            let map: Vec<Elem> = (0..n).map(|_| {
                let e = Elem((c % m as u64) as u32);
                c /= m as u64;
                e
            }).collect();
            if a.is_homomorphism(&map, &b) {
                brute = true;
                break;
            }
        }
        prop_assert_eq!(HomSearch::new(&a, &b).exists(), brute);
    }

    /// Homomorphisms compose.
    #[test]
    fn homs_compose(
        a in digraph_strategy(4, 6),
        b in digraph_strategy(4, 8),
        c in digraph_strategy(4, 10),
    ) {
        if let (Some(h), Some(g)) = (
            HomSearch::new(&a, &b).solve(),
            HomSearch::new(&b, &c).solve(),
        ) {
            let comp: Vec<Elem> = h.iter().map(|e| g[e.index()]).collect();
            prop_assert!(a.is_homomorphism(&comp, &c));
        }
    }

    /// Enumeration count matches brute force on tiny instances.
    #[test]
    fn enumeration_is_exhaustive(a in digraph_strategy(3, 4), b in digraph_strategy(3, 5)) {
        let n = a.universe_size();
        let m = b.universe_size();
        let mut brute = 0usize;
        for code in 0..(m as u64).pow(n as u32) {
            let mut c = code;
            let map: Vec<Elem> = (0..n).map(|_| {
                let e = Elem((c % m as u64) as u32);
                c /= m as u64;
                e
            }).collect();
            if a.is_homomorphism(&map, &b) {
                brute += 1;
            }
        }
        prop_assert_eq!(HomSearch::new(&a, &b).count(usize::MAX), brute);
    }

    /// The core is a core, is unique up to iso under re-runs, and is
    /// hom-equivalent to the original.
    #[test]
    fn core_invariants(a in digraph_strategy(5, 10)) {
        let c = core_of(&a);
        prop_assert!(is_core(&c.structure));
        prop_assert!(are_homomorphically_equivalent(&a, &c.structure));
        prop_assert!(a.is_homomorphism(&c.retraction, &c.structure));
        let c2 = core_of(&c.structure);
        prop_assert!(are_isomorphic(&c.structure, &c2.structure));
    }

    /// The pointed fold: every point stays fixed, the retraction is a
    /// homomorphism onto the result that fixes the result's elements, no
    /// point-fixing endomorphism of the result avoids an element, and the
    /// result is the structure (and the points the free tuple) of
    /// `Cq::minimize`.
    #[test]
    fn pointed_fold_is_the_cq_core(
        a in digraph_strategy(6, 10),
        picks in prop::collection::vec(0usize..12, 0..4),
    ) {
        let n = a.universe_size();
        let points: Vec<Elem> = picks.iter().map(|&i| Elem((i % n) as u32)).collect();
        let core = core_of_pointed_gauged(&a, &points, &mut Budget::unlimited().gauge()).unwrap();
        let c = &core.structure;
        let at: Vec<Elem> = points.iter().map(|p| core.retraction[p.index()]).collect();
        for (p, q) in points.iter().zip(&at) {
            prop_assert_eq!(core.old_of_new[q.index()], *p);
        }
        prop_assert!(a.is_homomorphism(&core.retraction, c));
        for (j, old) in core.old_of_new.iter().enumerate() {
            prop_assert_eq!(core.retraction[old.index()].index(), j, "retraction moves the core");
        }
        let image: std::collections::BTreeSet<Elem> = core.retraction.iter().copied().collect();
        prop_assert_eq!(image.len(), c.universe_size());
        for e in c.elements() {
            let mut s = HomSearch::new(c, c).forbid_value(e);
            for &q in &at {
                s = s.pin(q, q);
            }
            prop_assert!(s.solve().is_none(), "a point-fixing retract avoids {:?}", e);
        }
        let m = Cq::with_free(&a, &points).minimize();
        prop_assert_eq!(m.canonical(), c);
        prop_assert_eq!(m.free(), &at[..]);
    }

    /// Isomorphism is reflexive and symmetric, and implies hom-equivalence.
    #[test]
    fn iso_is_equivalence_ish(a in digraph_strategy(5, 8), perm_seed in any::<u64>()) {
        prop_assert!(are_isomorphic(&a, &a));
        // Permute the structure: still isomorphic.
        use rand::seq::SliceRandom;
        let mut r = hp_structures::generators::rng(perm_seed);
        let n = a.universe_size();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.shuffle(&mut r);
        let map: Vec<Elem> = perm.iter().map(|&v| Elem(v)).collect();
        let b = a.hom_image(&map, n);
        prop_assert!(are_isomorphic(&a, &b));
        prop_assert!(are_isomorphic(&b, &a));
        prop_assert!(are_homomorphically_equivalent(&a, &b));
    }

    /// Pins are honored by every reported solution.
    #[test]
    fn pins_honored(a in digraph_strategy(4, 6), b in digraph_strategy(4, 9)) {
        let x = Elem(0);
        for y in b.elements() {
            for h in HomSearch::new(&a, &b).pin(x, y).enumerate(16) {
                prop_assert_eq!(h[0], y);
            }
        }
    }

    /// Injective solutions are injective; surjective solutions cover.
    #[test]
    fn modes_honored(a in digraph_strategy(4, 6), b in digraph_strategy(4, 9)) {
        for h in HomSearch::new(&a, &b).injective().enumerate(8) {
            let mut seen = std::collections::BTreeSet::new();
            for e in &h {
                prop_assert!(seen.insert(e.0));
            }
        }
        for h in HomSearch::new(&a, &b).surjective().enumerate(8) {
            let covered: std::collections::BTreeSet<u32> = h.iter().map(|e| e.0).collect();
            prop_assert_eq!(covered.len(), b.universe_size());
        }
    }
}
