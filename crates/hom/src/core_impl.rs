//! Cores and retracts (§6.2).
//!
//! A substructure **B** of **A** is a *core of* **A** if there is a
//! homomorphism from **A** to **B** but none from **A** to any proper
//! substructure of **B**. Every finite structure has a core, unique up to
//! isomorphism, and is homomorphically equivalent to it.

use hp_guard::{Budget, Budgeted, Gauge, Stop};
use hp_structures::{BitSet, Elem, Structure};

use crate::search::HomSearch;

/// The core of a structure, together with the witnessing retraction.
#[derive(Clone, Debug)]
pub struct Core {
    /// The core itself (universe renumbered densely).
    pub structure: Structure,
    /// For each element of the *original* structure, the core element
    /// (in the core's numbering) it retracts to.
    pub retraction: Vec<Elem>,
    /// For each element of the core, the original element it came from.
    pub old_of_new: Vec<Elem>,
}

/// Try to find a retract of `a` that avoids the element `e`: a homomorphism
/// `h : a → a` whose image excludes `e`. Returns the map if one exists.
///
/// This is the elementary step of the core computation: `a` has a proper
/// retract iff some single element can be avoided (folding away one element
/// at a time reaches the core).
pub fn retract_avoiding(a: &Structure, e: Elem) -> Option<Vec<Elem>> {
    HomSearch::new(a, a).forbid_value(e).solve()
}

/// True when `a` is its own core: no homomorphism from `a` into a proper
/// substructure of `a`.
///
/// It suffices to check single-element-avoiding retracts: if `a` folds into
/// any proper substructure, the image misses some element.
pub fn is_core(a: &Structure) -> bool {
    match is_core_with_budget(a, &Budget::unlimited()) {
        Ok(core) => core,
        Err(_) => unreachable!("an unlimited budget cannot exhaust"),
    }
}

/// Budgeted [`is_core`]: one shared budget across all the per-element
/// retract searches (each charging one fuel unit per search node). An
/// `Ok(bool)` answer is exact; exhaustion means the remaining retract
/// searches never ran, so nothing was decided and the partial is `()`.
pub fn is_core_with_budget(a: &Structure, budget: &Budget) -> Budgeted<bool, ()> {
    let mut gauge = budget.gauge();
    for e in a.elements() {
        match HomSearch::new(a, a)
            .forbid_value(e)
            .solve_gauged(&mut gauge)
        {
            Ok(Some(_)) => return Ok(false),
            Ok(None) => {}
            Err(stop) => return Err(stop.with_partial(())),
        }
    }
    Ok(true)
}

/// Compute the core of `a` (unique up to isomorphism), with the retraction
/// map from `a` onto it: [`core_of_pointed_gauged`] with no points.
pub fn core_of(a: &Structure) -> Core {
    match core_of_with_budget(a, &Budget::unlimited()) {
        Ok(core) => core,
        Err(_) => unreachable!("an unlimited budget cannot exhaust"),
    }
}

/// Budgeted [`core_of`]: the retract searches charge one shared budget
/// (one fuel unit per search node). On exhaustion the partial is the
/// **partially folded core** — still a genuine retract of `a` with a valid
/// retraction map, homomorphically equivalent to `a`, just possibly not
/// minimal. Resuming is as simple as calling [`core_of_with_budget`] again
/// on `partial.structure` and composing the retractions.
// The Err variant is deliberately heavy: exhaustion carries the partially
// folded core so the caller keeps the work already done.
#[allow(clippy::result_large_err)]
pub fn core_of_with_budget(a: &Structure, budget: &Budget) -> Budgeted<Core, Core> {
    core_of_pointed_gauged(a, &[], &mut budget.gauge())
        .map_err(|(partial, stop)| stop.with_partial(partial))
}

/// The core of `a` **relative to `points`**: the smallest retract of `a`
/// onto which some endomorphism fixing every point folds `a`, charging an
/// existing gauge (one fuel unit per search node). With points this is
/// Chandra–Merlin minimization of a query whose free positions are the
/// points (`hp_logic::Cq::minimize`); without, it is [`core_of`]. The
/// retraction fixes every core element (`retraction[old_of_new[j]] = j`),
/// so a point `p` sits at `retraction[p]` in the core's numbering.
///
/// The fold searches, element by element, for an endomorphism fixing the
/// points whose image avoids the element, restricts to that image and
/// restarts. An element no such endomorphism avoids stays unavoidable in
/// every later retract — if `g` avoided it on the image `h(C)`, `g∘h`
/// would avoid it on `C` — so it is marked kept and never re-tested, and
/// the points are kept from the start. `induced` preserves element order,
/// so the folds happen exactly as in a loop that re-tests every element
/// after each fold.
///
/// On exhaustion returns the fold state reached so far (a valid retract
/// with its retraction, possibly not minimal) with the stop provenance.
#[allow(clippy::result_large_err)]
pub fn core_of_pointed_gauged(
    a: &Structure,
    points: &[Elem],
    gauge: &mut Gauge,
) -> Result<Core, (Core, Stop)> {
    let identity: Vec<Elem> = a.elements().collect();
    let mut core = Core {
        structure: a.clone(),
        retraction: identity.clone(),
        old_of_new: identity,
    };
    let mut kept = vec![false; a.universe_size()];
    for p in points {
        kept[p.index()] = true;
    }
    'outer: loop {
        for e in core.structure.elements() {
            if kept[e.index()] {
                continue;
            }
            let mut s = HomSearch::new(&core.structure, &core.structure).forbid_value(e);
            for p in points {
                let at = core.retraction[p.index()];
                s = s.pin(at, at);
            }
            let h = match s.solve_gauged(gauge) {
                Ok(Some(h)) => h,
                Ok(None) => {
                    kept[e.index()] = true;
                    continue;
                }
                Err(stop) => return Err((core, stop)),
            };
            let mut image = BitSet::new(core.structure.universe_size());
            for &v in &h {
                image.insert(v.index());
            }
            let (next, old_of_new) = core.structure.induced(&image);
            let mut new_of_old = vec![u32::MAX; core.structure.universe_size()];
            for (new, &old) in old_of_new.iter().enumerate() {
                new_of_old[old.index()] = new as u32;
            }
            for r in core.retraction.iter_mut() {
                *r = Elem(new_of_old[h[r.index()].index()]);
            }
            core.old_of_new = old_of_new
                .iter()
                .map(|&cur| core.old_of_new[cur.index()])
                .collect();
            kept = old_of_new.iter().map(|old| kept[old.index()]).collect();
            core.structure = next;
            continue 'outer;
        }
        break;
    }
    // Every point-fixing endomorphism of the finished core is an
    // automorphism, so the composed folds map the core's own elements by a
    // permutation; undo it so the retraction fixes every core element.
    let mut undo = vec![Elem(0); core.old_of_new.len()];
    for (j, old) in core.old_of_new.iter().enumerate() {
        undo[core.retraction[old.index()].index()] = Elem(j as u32);
    }
    for r in core.retraction.iter_mut() {
        *r = undo[r.index()];
    }
    debug_assert!(a.is_homomorphism(&core.retraction, &core.structure));
    Ok(core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iso::{are_homomorphically_equivalent, are_isomorphic};
    use hp_structures::generators::{
        bicycle, clique, complete_bipartite, cycle, directed_cycle, directed_path, grid, wheel,
    };

    #[test]
    fn directed_path_is_core() {
        assert!(is_core(&directed_path(4)));
        let c = core_of(&directed_path(4));
        assert_eq!(c.structure.universe_size(), 4);
    }

    #[test]
    fn directed_cycles_are_cores() {
        for n in [1usize, 2, 3, 5, 6] {
            assert!(is_core(&directed_cycle(n)), "C_{n} should be a core");
        }
    }

    #[test]
    fn core_of_bipartite_is_k2() {
        // §6.2: the core of every non-trivial bipartite graph is K_2.
        for g in [
            complete_bipartite(3, 4),
            cycle(6),
            grid(3, 4),
            hp_structures::generators::star(5),
        ] {
            let c = core_of(&g.to_structure());
            assert_eq!(c.structure.universe_size(), 2, "bipartite core is K2");
            assert_eq!(c.structure.total_tuples(), 2); // both orientations
        }
    }

    #[test]
    fn core_of_odd_cycle_is_itself() {
        let c5 = cycle(5).to_structure();
        assert!(is_core(&c5));
        assert_eq!(core_of(&c5).structure.universe_size(), 5);
    }

    #[test]
    fn core_of_bicycle_is_k4() {
        // §6.2: B_n = W_n + K_4 has core K_4 (wheels are 4-colorable).
        for n in [3usize, 5, 6, 7] {
            let b = bicycle(n).to_structure();
            let c = core_of(&b);
            assert!(
                are_isomorphic(&c.structure, &clique(4).to_structure()),
                "core of B_{n} should be K_4"
            );
        }
    }

    #[test]
    fn odd_wheels_are_cores() {
        // §6.2: W_n is a core when n is odd (n >= 5; W_3 = K_4 is also a core).
        for n in [3usize, 5, 7] {
            assert!(is_core(&wheel(n).to_structure()), "W_{n} should be a core");
        }
        // Even wheels are NOT cores: W_4 is 3-colorable? W_4's rim C_4 is
        // 2-colorable, plus hub = 3 colors, so W_4 folds onto K_3... which is
        // its triangle subgraph.
        let w4 = wheel(4).to_structure();
        assert!(!is_core(&w4));
        let c = core_of(&w4);
        assert!(are_isomorphic(&c.structure, &clique(3).to_structure()));
    }

    #[test]
    fn retraction_is_homomorphism_onto_core() {
        let g = grid(3, 3).to_structure();
        let c = core_of(&g);
        // The retraction must be a hom from g onto the core.
        assert!(g.is_homomorphism(&c.retraction, &c.structure));
        // And the core must embed back (it's an induced substructure).
        assert!(are_homomorphically_equivalent(&g, &c.structure));
        // Idempotent: core of core is itself.
        let cc = core_of(&c.structure);
        assert!(are_isomorphic(&c.structure, &cc.structure));
        // old_of_new maps into the original universe.
        assert!(c.old_of_new.iter().all(|e| e.index() < g.universe_size()));
    }

    #[test]
    fn retraction_fixes_the_core() {
        // Random digraphs whose first folds permute the surviving
        // elements: the returned map must still fix each core element.
        for (n, seed) in [(7usize, 40u64), (6, 51), (7, 874)] {
            let a = hp_structures::generators::random_digraph(n, 2 * n, seed);
            let c = core_of(&a);
            assert!(a.is_homomorphism(&c.retraction, &c.structure));
            for (j, old) in c.old_of_new.iter().enumerate() {
                assert_eq!(c.retraction[old.index()].index(), j, "seed {seed}");
            }
        }
    }

    #[test]
    fn core_unique_up_to_iso_across_presentations() {
        // Two different bipartite graphs have isomorphic cores (K_2).
        let a = core_of(&cycle(8).to_structure());
        let b = core_of(&grid(2, 5).to_structure());
        assert!(are_isomorphic(&a.structure, &b.structure));
    }

    #[test]
    fn core_of_disjoint_union_with_absorbing_part() {
        // P3 ⊕ C3 (directed): P3 → C3, so the core is C3.
        let u = directed_path(3).disjoint_union(&directed_cycle(3)).unwrap();
        let c = core_of(&u);
        assert!(are_isomorphic(&c.structure, &directed_cycle(3)));
    }

    #[test]
    fn retract_avoiding_none_on_cores() {
        let c3 = directed_cycle(3);
        for e in c3.elements() {
            assert!(retract_avoiding(&c3, e).is_none());
        }
    }
}
