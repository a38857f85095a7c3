//! Conjunctive queries and the Chandra–Merlin correspondence (Theorem 2.1).

use hp_structures::{BitSet, Elem, Structure, Vocabulary};

use hp_guard::{Budget, Gauge, Stop};
use hp_hom::{canonical_form_pointed_gauged, core_of_pointed_gauged, HomSearch};

use crate::ast::{Atom, Formula, Var};
use crate::key::CanonicalCoreKey;

/// A conjunctive query in **canonical-structure form**: a finite structure
/// `D` (the canonical structure / tableau) plus a list of distinguished
/// elements standing for the free variables.
///
/// - A Boolean CQ (`free.is_empty()`) holds in `B` iff there is a
///   homomorphism `D → B` (Theorem 2.1).
/// - A non-Boolean CQ's answers over `B` are the images of `free` under all
///   homomorphisms `D → B`.
///
/// This representation makes evaluation, containment (hom the other way),
/// and minimization (core preserving `free`) direct applications of the
/// `hp-hom` engine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cq {
    canonical: Structure,
    free: Vec<Elem>,
}

impl Cq {
    /// The canonical (Boolean) conjunctive query `φ_A` of a structure: the
    /// existential closure of A's positive diagram (§2.2).
    pub fn canonical_query(a: &Structure) -> Cq {
        Cq {
            canonical: a.clone(),
            free: Vec::new(),
        }
    }

    /// A CQ with distinguished (free) elements of the canonical structure.
    ///
    /// # Panics
    /// Panics if a distinguished element is out of range.
    pub fn with_free(a: &Structure, free: &[Elem]) -> Cq {
        assert!(
            free.iter().all(|e| e.index() < a.universe_size()),
            "free element out of range"
        );
        Cq {
            canonical: a.clone(),
            free: free.to_vec(),
        }
    }

    /// The canonical structure (tableau).
    pub fn canonical(&self) -> &Structure {
        &self.canonical
    }

    /// The distinguished elements.
    pub fn free(&self) -> &[Elem] {
        &self.free
    }

    /// Arity of the query (number of free positions).
    pub fn arity(&self) -> usize {
        self.free.len()
    }

    /// Number of existential variables a prenex formula form would use —
    /// i.e. the size of the canonical structure.
    pub fn var_count(&self) -> usize {
        self.canonical.universe_size()
    }

    /// Build from a conjunctive first-order formula (atoms, ∧, ∃, =).
    ///
    /// Equalities are eliminated by variable unification (§2.2: "equalities
    /// can be eliminated from existential positive formulas"). The free
    /// variables of the formula become the distinguished elements, in
    /// increasing variable order.
    ///
    /// Returns `Err` when the formula is not conjunctive or uses a symbol
    /// outside `vocab`.
    pub fn from_formula(f: &Formula, vocab: &Vocabulary) -> Result<Cq, String> {
        if !f.is_conjunctive() {
            return Err(format!("formula is not conjunctive: {f}"));
        }
        let free_vars: Vec<Var> = f.free_vars().into_iter().collect();
        let g = f.renamed_apart();
        // Collect atoms and equalities (all binders distinct now, so scope
        // can be ignored).
        let mut atoms: Vec<Atom> = Vec::new();
        let mut eqs: Vec<(Var, Var)> = Vec::new();
        g.visit(&mut |h| match h {
            Formula::Atom(a) => atoms.push(a.clone()),
            Formula::Eq(x, y) => eqs.push((*x, *y)),
            _ => {}
        });
        for a in &atoms {
            if a.sym.index() >= vocab.len() {
                return Err(format!("unknown symbol R{} in formula", a.sym.0));
            }
            if a.args.len() != vocab.arity(a.sym) {
                return Err(format!(
                    "arity mismatch for {} in formula",
                    vocab.symbol(a.sym).name
                ));
            }
        }
        build_cq(vocab, &atoms, &eqs, &free_vars)
    }

    /// Render as a prenex conjunctive formula: element `i` becomes variable
    /// `i`; non-free elements are existentially quantified.
    pub fn to_formula(&self) -> Formula {
        let mut conj: Vec<Formula> = Vec::new();
        for (sym, rel) in self.canonical.relations() {
            for t in rel.iter() {
                conj.push(Formula::Atom(Atom {
                    sym,
                    args: t.iter().map(|e| e.0).collect(),
                }));
            }
        }
        let mut body = Formula::And(conj);
        let free_set: BitSet = self.free.iter().map(|e| e.index()).collect();
        for e in (0..self.canonical.universe_size()).rev() {
            let covered = e < free_set.capacity() && free_set.contains(e);
            if !covered {
                body = Formula::exists(e as Var, body);
            }
        }
        body
    }

    /// Boolean evaluation: `B ⊨ φ_D` iff `hom(D, B)` (Theorem 2.1).
    ///
    /// For non-Boolean queries this asks whether the query has *some*
    /// answer.
    pub fn holds_in(&self, b: &Structure) -> bool {
        HomSearch::new(&self.canonical, b).exists()
    }

    /// Evaluate with a fixed assignment of the free positions.
    pub fn holds_with(&self, b: &Structure, tuple: &[Elem]) -> bool {
        assert_eq!(tuple.len(), self.free.len(), "wrong answer arity");
        let mut s = HomSearch::new(&self.canonical, b);
        for (i, &fe) in self.free.iter().enumerate() {
            s = s.pin(fe, tuple[i]);
        }
        s.exists()
    }

    /// All answers over `B`: the set of images of the free tuple under all
    /// homomorphisms `D → B`, deduplicated and sorted.
    pub fn answers(&self, b: &Structure) -> Vec<Vec<Elem>> {
        let mut out: Vec<Vec<Elem>> = HomSearch::new(&self.canonical, b)
            .enumerate(usize::MAX)
            .into_iter()
            .map(|h| self.free.iter().map(|e| h[e.index()]).collect())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Containment `self ⊑ other` (every answer of `self` over every
    /// structure is an answer of `other`): by Chandra–Merlin this holds iff
    /// there is a homomorphism from `other`'s canonical structure to
    /// `self`'s mapping free positions pointwise.
    pub fn is_contained_in(&self, other: &Cq) -> bool {
        unlimited(|gauge| self.is_contained_in_gauged(other, gauge))
    }

    /// Logical equivalence of queries.
    pub fn is_equivalent_to(&self, other: &Cq) -> bool {
        unlimited(|gauge| self.is_equivalent_to_gauged(other, gauge))
    }

    /// [`is_contained_in`](Cq::is_contained_in) charging an existing
    /// gauge, for budgeted containment sweeps over many query pairs.
    pub fn is_contained_in_gauged(&self, other: &Cq, gauge: &mut Gauge) -> Result<bool, Stop> {
        if self.free.len() != other.free.len() {
            return Ok(false);
        }
        let mut s = HomSearch::new(&other.canonical, &self.canonical);
        for (i, &fe) in other.free.iter().enumerate() {
            s = s.pin(fe, self.free[i]);
        }
        Ok(s.solve_gauged(gauge)?.is_some())
    }

    /// Gauged logical equivalence (containment both ways on one budget).
    pub fn is_equivalent_to_gauged(&self, other: &Cq, gauge: &mut Gauge) -> Result<bool, Stop> {
        Ok(self.is_contained_in_gauged(other, gauge)?
            && other.is_contained_in_gauged(self, gauge)?)
    }

    /// Minimize the query: compute the core of the canonical structure
    /// **relative to the free elements** (they must stay fixed). The result
    /// is the unique (up to isomorphism) minimal equivalent CQ — the
    /// Chandra–Merlin optimal implementation.
    pub fn minimize(&self) -> Cq {
        unlimited(|gauge| self.minimize_gauged(gauge))
    }

    /// [`minimize`](Cq::minimize) charging an existing gauge: the pointed
    /// fold [`core_of_pointed_gauged`] with the free elements as points.
    /// Exhaustion aborts mid-fold; no partial is returned (re-run with more
    /// fuel).
    pub fn minimize_gauged(&self, gauge: &mut Gauge) -> Result<Cq, Stop> {
        let core =
            core_of_pointed_gauged(&self.canonical, &self.free, gauge).map_err(|(_, stop)| stop)?;
        Ok(Cq {
            free: self
                .free
                .iter()
                .map(|f| core.retraction[f.index()])
                .collect(),
            canonical: core.structure,
        })
    }

    /// The stable [`CanonicalCoreKey`] of this query: minimize to the core
    /// (unique up to isomorphism), canonically label the pointed core, and
    /// hash the certificate. Logically equivalent CQs — in particular any
    /// two presentations differing by variable renaming or redundant atoms
    /// — get the identical key.
    pub fn canonical_core_key(&self) -> CanonicalCoreKey {
        unlimited(|gauge| self.canonical_core_key_gauged(gauge))
    }

    /// [`canonical_core_key`](Cq::canonical_core_key) charging an existing
    /// gauge: both the core fold and the canonical labelling draw from it.
    pub fn canonical_core_key_gauged(&self, gauge: &mut Gauge) -> Result<CanonicalCoreKey, Stop> {
        let m = self.minimize_gauged(gauge)?;
        let form = canonical_form_pointed_gauged(&m.canonical, &m.free, gauge)?;
        Ok(CanonicalCoreKey::of_form(&form))
    }
}

/// Run a gauged computation on an unlimited budget: the unbudgeted form of
/// every `_gauged` method here.
pub(crate) fn unlimited<T>(run: impl FnOnce(&mut Gauge) -> Result<T, Stop>) -> T {
    match run(&mut Budget::unlimited().gauge()) {
        Ok(t) => t,
        Err(_) => unreachable!("an unlimited budget cannot exhaust"),
    }
}

/// Assemble a CQ from atoms, equalities, and a list of free variables.
fn build_cq(
    vocab: &Vocabulary,
    atoms: &[Atom],
    eqs: &[(Var, Var)],
    free_vars: &[Var],
) -> Result<Cq, String> {
    // Union-find over variable ids, preferring free variables as roots so
    // distinguished positions survive unification.
    use std::collections::BTreeMap;
    let mut vars: Vec<Var> = Vec::new();
    for a in atoms {
        vars.extend(a.args.iter().copied());
    }
    for &(x, y) in eqs {
        vars.push(x);
        vars.push(y);
    }
    vars.extend(free_vars.iter().copied());
    vars.sort_unstable();
    vars.dedup();
    let index: BTreeMap<Var, usize> = vars.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut parent: Vec<usize> = (0..vars.len()).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let r = find(parent, parent[i]);
            parent[i] = r;
        }
        parent[i]
    }
    let is_free = |i: usize, vars: &[Var]| free_vars.contains(&vars[i]);
    for &(x, y) in eqs {
        let (a, b) = (index[&x], index[&y]);
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            // Prefer the free representative.
            if is_free(rb, &vars) && !is_free(ra, &vars) {
                parent[ra] = rb;
            } else {
                parent[rb] = ra;
            }
        }
    }
    // Dense numbering of representatives.
    let mut elem_of_root: BTreeMap<usize, u32> = BTreeMap::new();
    let mut count = 0u32;
    let mut elem_of_var = |v: Var, parent: &mut Vec<usize>| -> Elem {
        let r = find(parent, index[&v]);
        let e = *elem_of_root.entry(r).or_insert_with(|| {
            let e = count;
            count += 1;
            e
        });
        Elem(e)
    };
    let mut tuples: Vec<(hp_structures::SymbolId, Vec<Elem>)> = Vec::new();
    for a in atoms {
        let t: Vec<Elem> = a
            .args
            .iter()
            .map(|&v| elem_of_var(v, &mut parent))
            .collect();
        tuples.push((a.sym, t));
    }
    let free: Vec<Elem> = free_vars
        .iter()
        .map(|&v| elem_of_var(v, &mut parent))
        .collect();
    let mut canonical = Structure::new(vocab.clone(), count as usize);
    for (sym, t) in tuples {
        canonical
            .add_tuple(sym, &t)
            .map_err(|e| format!("bad atom: {e}"))?;
    }
    Ok(Cq { canonical, free })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_structures::generators::{
        complete_digraph, directed_cycle, directed_path, self_loop, transitive_tournament,
    };

    fn edge(x: Var, y: Var) -> Formula {
        Formula::atom(0usize, &[x, y])
    }

    #[test]
    fn chandra_merlin_three_way() {
        // Theorem 2.1: hom(A,B) ⇔ B ⊨ φ_A ⇔ φ_B ⊢ φ_A.
        let a = directed_path(3);
        let b = directed_cycle(3);
        let phi_a = Cq::canonical_query(&a);
        let phi_b = Cq::canonical_query(&b);
        assert!(hp_hom::hom_exists(&a, &b));
        assert!(phi_a.holds_in(&b));
        // φ_B logically implies φ_A ⇔ q(φ_B) ⊑ q(φ_A).
        assert!(phi_b.is_contained_in(&phi_a));
        // And the converse direction fails all three ways.
        assert!(!hp_hom::hom_exists(&b, &a));
        assert!(!phi_b.holds_in(&a));
        assert!(!phi_a.is_contained_in(&phi_b));
    }

    #[test]
    fn from_formula_basic() {
        let v = Vocabulary::digraph();
        // ∃x0 ∃x1 (E(x0,x1) ∧ E(x1,x0))
        let f = Formula::exists(
            0,
            Formula::exists(1, Formula::And(vec![edge(0, 1), edge(1, 0)])),
        );
        let q = Cq::from_formula(&f, &v).unwrap();
        assert_eq!(q.var_count(), 2);
        assert_eq!(q.arity(), 0);
        assert!(q.holds_in(&directed_cycle(2)));
        assert!(!q.holds_in(&transitive_tournament(5)));
        assert!(q.holds_in(&self_loop())); // fold both onto the loop
    }

    #[test]
    fn from_formula_with_equalities() {
        let v = Vocabulary::digraph();
        // ∃x0 ∃x1 (E(x0,x1) ∧ x0 = x1) ≡ ∃x E(x,x): a loop.
        let f = Formula::exists(
            0,
            Formula::exists(1, Formula::And(vec![edge(0, 1), Formula::Eq(0, 1)])),
        );
        let q = Cq::from_formula(&f, &v).unwrap();
        assert_eq!(q.var_count(), 1);
        assert!(q.holds_in(&self_loop()));
        assert!(!q.holds_in(&directed_cycle(3)));
    }

    #[test]
    fn from_formula_rejects_disjunction() {
        let v = Vocabulary::digraph();
        let f = Formula::Or(vec![edge(0, 1), edge(1, 0)]);
        assert!(Cq::from_formula(&f, &v).is_err());
    }

    #[test]
    fn from_formula_free_variables() {
        let v = Vocabulary::digraph();
        // E(x0, x1) with both free: the edge relation itself.
        let q = Cq::from_formula(&edge(0, 1), &v).unwrap();
        assert_eq!(q.arity(), 2);
        let p = directed_path(3);
        let ans = q.answers(&p);
        assert_eq!(ans, vec![vec![Elem(0), Elem(1)], vec![Elem(1), Elem(2)]]);
        assert!(q.holds_with(&p, &[Elem(0), Elem(1)]));
        assert!(!q.holds_with(&p, &[Elem(1), Elem(0)]));
    }

    #[test]
    fn to_formula_roundtrip_semantics() {
        let q = Cq::canonical_query(&directed_path(3));
        let f = q.to_formula();
        assert!(f.is_conjunctive());
        assert!(f.is_sentence());
        for b in [directed_path(3), directed_cycle(3), directed_path(2)] {
            assert_eq!(f.holds(&b), q.holds_in(&b), "mismatch on {b:?}");
        }
    }

    #[test]
    fn containment_path_lengths() {
        // "Has a path of length 3" ⊑ "has a path of length 2".
        let q3 = Cq::canonical_query(&directed_path(4));
        let q2 = Cq::canonical_query(&directed_path(3));
        assert!(q3.is_contained_in(&q2));
        assert!(!q2.is_contained_in(&q3));
    }

    #[test]
    fn minimize_folds_redundancy() {
        // Canonical query of the transitive tournament on 3: asks for a
        // "triangle with shortcut"; its core is... the tournament is a core
        // actually. Use instead: query of (path of length 2) ∪ (edge):
        // structure 0->1->2 plus extra disjoint edge 3->4 maps into itself
        // minus {3,4}: minimized to the path.
        let mut s = directed_path(3).disjoint_union(&directed_path(2)).unwrap();
        s.add_tuple_ids(0, &[3, 4]).unwrap(); // ensure edge present (already)
        let q = Cq::canonical_query(&s);
        let m = q.minimize();
        assert_eq!(m.var_count(), 3);
        assert!(m.is_equivalent_to(&q));
    }

    #[test]
    fn minimize_preserves_free_positions() {
        // E(x0, x1) ∧ E(x0, x2), x1 free: minimization may fold x2 into x1
        // but must keep x1 distinguished.
        let v = Vocabulary::digraph();
        let f = Formula::And(vec![edge(0, 1), edge(0, 2)]);
        let q = Cq::with_free(Cq::from_formula(&f, &v).unwrap().canonical(), &[Elem(1)]);
        let m = q.minimize();
        assert_eq!(m.arity(), 1);
        assert!(m.var_count() <= q.var_count());
        let p = directed_path(2);
        assert_eq!(m.answers(&p), q.answers(&p));
    }

    #[test]
    fn equivalent_queries_with_different_presentations() {
        // "Path of length 2 into a loop-closed vertex" vs its minimized form.
        let c6 = Cq::canonical_query(&directed_cycle(6));
        let c3 = Cq::canonical_query(&directed_cycle(3));
        // C6 ⊨-query is implied by C3-query? hom(C6→C3) exists so
        // q_{C3} ⊑ q_{C6}: every structure with hom from C3... wait:
        // q_A holds in B iff hom(A,B). q_{C6} ⊑ q_{C3} iff hom(C3, C6)? No:
        // containment via hom(other.canonical → self.canonical) =
        // hom(C3, C6), which fails; and hom(C6, C3) holds so q_{C3} ⊑ q_{C6}.
        assert!(c3.is_contained_in(&c6));
        assert!(!c6.is_contained_in(&c3));
    }

    #[test]
    fn core_keys_identify_equivalent_queries() {
        let v = Vocabulary::digraph();
        // q1: E(x0,x1) ∧ E(x0,x2) with x0,x1 free — x2 folds into x1.
        let q1 = Cq::with_free(
            Cq::from_formula(&Formula::And(vec![edge(0, 1), edge(0, 2)]), &v)
                .unwrap()
                .canonical(),
            &[Elem(0), Elem(1)],
        );
        // q2: same query already minimized, with renamed variables.
        let q2 = Cq::with_free(
            Cq::from_formula(&edge(5, 9), &v).unwrap().canonical(),
            &[Elem(0), Elem(1)],
        );
        assert!(q1.is_equivalent_to(&q2));
        assert_eq!(q1.canonical_core_key(), q2.canonical_core_key());
        // edge(1,0) numbers its elements in the other order, so this is
        // the same query under a different element numbering.
        let q3 = Cq::with_free(
            Cq::from_formula(&edge(1, 0), &v).unwrap().canonical(),
            &[Elem(0), Elem(1)],
        );
        assert!(q2.is_equivalent_to(&q3), "renumbered presentation");
        assert_eq!(q2.canonical_core_key(), q3.canonical_core_key());
        // The genuinely reversed query (answers (a,b) with E(b,a)) differs.
        let q4 = Cq::with_free(
            Cq::from_formula(&edge(0, 1), &v).unwrap().canonical(),
            &[Elem(1), Elem(0)],
        );
        assert!(!q2.is_equivalent_to(&q4));
        assert_ne!(q2.canonical_core_key(), q4.canonical_core_key());
    }

    #[test]
    fn core_key_ignores_boolean_redundancy() {
        // Boolean: C6 and C3 ⊕ C3... not equivalent. But "path of length 2
        // with a detour" ≡ "path of length 2".
        let mut s = directed_path(3).disjoint_union(&directed_path(2)).unwrap();
        s.add_tuple_ids(0, &[3, 4]).unwrap();
        let q = Cq::canonical_query(&s);
        let p = Cq::canonical_query(&directed_path(3));
        assert_eq!(q.canonical_core_key(), p.canonical_core_key());
        assert_ne!(
            p.canonical_core_key(),
            Cq::canonical_query(&directed_path(2)).canonical_core_key()
        );
    }

    #[test]
    fn gauged_variants_agree_and_exhaust() {
        use hp_guard::Budget;
        let q3 = Cq::canonical_query(&directed_path(4));
        let q2 = Cq::canonical_query(&directed_path(3));
        let mut g = Budget::unlimited().gauge();
        assert!(q3.is_contained_in_gauged(&q2, &mut g).unwrap());
        assert!(!q2.is_contained_in_gauged(&q3, &mut g).unwrap());
        assert!(!q2.is_equivalent_to_gauged(&q3, &mut g).unwrap());
        let mut tiny = Budget::fuel(1).gauge();
        assert!(q3.canonical_core_key_gauged(&mut tiny).is_err());
    }

    #[test]
    fn answers_on_complete_digraph() {
        // E(x0,x1) over K3: all 6 ordered pairs of distinct elements.
        let v = Vocabulary::digraph();
        let q = Cq::from_formula(&edge(0, 1), &v).unwrap();
        assert_eq!(q.answers(&complete_digraph(3)).len(), 6);
    }
}
