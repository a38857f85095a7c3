//! Unions of conjunctive queries (select-project-join-union queries).

use hp_guard::{Gauge, Stop};
use hp_structures::{Elem, Structure, Vocabulary};

use crate::ast::{Atom, Formula, Var};
use crate::cq::{unlimited, Cq};
use crate::key::CanonicalCoreKey;
use hp_hom::canonical_form_pointed_gauged;

/// A union of conjunctive queries `q₁ ∨ ⋯ ∨ q_m`, all of the same arity.
///
/// The paper's target syntactic class: a first-order query preserved under
/// homomorphisms on a suitable class is equivalent to one of these
/// (Theorems 3.5 / 4.4 / 5.4), via the disjunction of the canonical queries
/// of its minimal models (Theorem 3.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ucq {
    disjuncts: Vec<Cq>,
    arity: usize,
}

impl Ucq {
    /// The empty union — the unsatisfiable query ⊥ of the given arity.
    pub fn empty(arity: usize) -> Ucq {
        Ucq {
            disjuncts: Vec::new(),
            arity,
        }
    }

    /// Build from disjuncts.
    ///
    /// # Panics
    /// Panics when disjunct arities disagree.
    pub fn new(disjuncts: Vec<Cq>) -> Ucq {
        let arity = disjuncts.first().map_or(0, Cq::arity);
        assert!(
            disjuncts.iter().all(|d| d.arity() == arity),
            "mixed arities in UCQ"
        );
        Ucq { disjuncts, arity }
    }

    /// The disjunction of the **canonical queries** of the given structures
    /// — the Theorem 3.1(1⇒2) construction from a set of minimal models.
    pub fn from_structures<'a, I: IntoIterator<Item = &'a Structure>>(models: I) -> Ucq {
        Ucq::new(models.into_iter().map(Cq::canonical_query).collect())
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[Cq] {
        &self.disjuncts
    }

    /// Query arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.disjuncts.len()
    }

    /// True when the union is empty (⊥).
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// Add a disjunct.
    ///
    /// # Panics
    /// Panics on arity mismatch (unless the union was empty).
    pub fn push(&mut self, q: Cq) {
        if self.disjuncts.is_empty() {
            self.arity = q.arity();
        }
        assert_eq!(q.arity(), self.arity, "mixed arities in UCQ");
        self.disjuncts.push(q);
    }

    /// Boolean evaluation: some disjunct holds.
    pub fn holds_in(&self, b: &Structure) -> bool {
        self.disjuncts.iter().any(|d| d.holds_in(b))
    }

    /// Evaluation at a fixed answer tuple.
    pub fn holds_with(&self, b: &Structure, tuple: &[Elem]) -> bool {
        self.disjuncts.iter().any(|d| d.holds_with(b, tuple))
    }

    /// All answers over `b` (union over disjuncts, dedup + sorted).
    pub fn answers(&self, b: &Structure) -> Vec<Vec<Elem>> {
        let mut out: Vec<Vec<Elem>> = self.disjuncts.iter().flat_map(|d| d.answers(b)).collect();
        out.sort();
        out.dedup();
        out
    }

    /// **Sagiv–Yannakakis containment**: `self ⊑ other` iff every disjunct
    /// of `self` is contained in *some* disjunct of `other`.
    pub fn is_contained_in(&self, other: &Ucq) -> bool {
        unlimited(|gauge| self.is_contained_in_gauged(other, gauge))
    }

    /// Logical equivalence.
    pub fn is_equivalent_to(&self, other: &Ucq) -> bool {
        unlimited(|gauge| self.is_equivalent_to_gauged(other, gauge))
    }

    /// Gauged Sagiv–Yannakakis containment: every per-disjunct-pair
    /// homomorphism search charges the shared gauge.
    pub fn is_contained_in_gauged(&self, other: &Ucq, gauge: &mut Gauge) -> Result<bool, Stop> {
        for d in &self.disjuncts {
            let mut covered = false;
            for e in &other.disjuncts {
                if d.is_contained_in_gauged(e, gauge)? {
                    covered = true;
                    break;
                }
            }
            if !covered {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Gauged logical equivalence.
    pub fn is_equivalent_to_gauged(&self, other: &Ucq, gauge: &mut Gauge) -> Result<bool, Stop> {
        Ok(self.is_contained_in_gauged(other, gauge)?
            && other.is_contained_in_gauged(self, gauge)?)
    }

    /// Minimize: minimize every disjunct to its core form and drop disjuncts
    /// contained in another kept disjunct. The result is equivalent and
    /// irredundant.
    pub fn minimize(&self) -> Ucq {
        unlimited(|gauge| self.minimize_gauged(gauge))
    }

    /// [`minimize`](Ucq::minimize) charging an existing gauge.
    pub fn minimize_gauged(&self, gauge: &mut Gauge) -> Result<Ucq, Stop> {
        let mut cores: Vec<Cq> = Vec::with_capacity(self.disjuncts.len());
        for d in &self.disjuncts {
            cores.push(d.minimize_gauged(gauge)?);
        }
        let mut kept: Vec<Cq> = Vec::new();
        'outer: for (i, q) in cores.iter().enumerate() {
            // Drop q if it is contained in a kept disjunct, or in a later
            // disjunct (the later one will be kept or subsumed itself —
            // checking "contained in any other not yet dropped" with a
            // stable rule: keep q unless contained in some kept one or some
            // strictly later one).
            for k in &kept {
                if q.is_contained_in_gauged(k, gauge)? {
                    continue 'outer;
                }
            }
            for later in cores.iter().skip(i + 1) {
                if q.is_contained_in_gauged(later, gauge)? {
                    continue 'outer;
                }
            }
            kept.push(q.clone());
        }
        Ok(Ucq {
            disjuncts: kept,
            arity: self.arity,
        })
    }

    /// The stable [`CanonicalCoreKey`] of the union: minimize to the
    /// irredundant union of cores (unique up to isomorphism of disjuncts),
    /// key each pointed core, and combine order-insensitively. Logically
    /// equivalent UCQs get the identical key.
    pub fn canonical_core_key(&self) -> CanonicalCoreKey {
        unlimited(|gauge| self.canonical_core_key_gauged(gauge))
    }

    /// [`canonical_core_key`](Ucq::canonical_core_key) charging an
    /// existing gauge.
    pub fn canonical_core_key_gauged(&self, gauge: &mut Gauge) -> Result<CanonicalCoreKey, Stop> {
        self.core_and_key_gauged(gauge).map(|(_, key)| key)
    }

    /// The irredundant union of cores ([`minimize`](Ucq::minimize)) together
    /// with its [`CanonicalCoreKey`], charging an existing gauge. Callers
    /// that keep the core — to unfold a parent query over it, say — get
    /// it without minimizing a second time.
    pub fn core_and_key_gauged(&self, gauge: &mut Gauge) -> Result<(Ucq, CanonicalCoreKey), Stop> {
        let m = self.minimize_gauged(gauge)?;
        let mut keys: Vec<CanonicalCoreKey> = Vec::with_capacity(m.disjuncts.len());
        for d in &m.disjuncts {
            let form = canonical_form_pointed_gauged(d.canonical(), d.free(), gauge)?;
            keys.push(CanonicalCoreKey::of_form(&form));
        }
        let key = CanonicalCoreKey::combine(self.arity, &keys);
        Ok((m, key))
    }

    /// Render as an existential-positive formula (disjunction of prenex
    /// conjunctive formulas over shared free variables).
    ///
    /// Free positions are mapped to variables `0..arity`; the existential
    /// variables of each disjunct are renamed apart automatically.
    pub fn to_formula(&self) -> Formula {
        if self.disjuncts.is_empty() {
            return Formula::bottom();
        }
        let mut parts = Vec::new();
        for d in &self.disjuncts {
            // Variables: free positions first (identified across disjuncts),
            // then the rest of the canonical structure.
            let n = d.canonical().universe_size();
            let arity = self.arity as Var;
            // var_of_elem: free elements get their *position* id; others get
            // arity + dense index. An element serving several free positions
            // takes the first and equalities pin the rest.
            let mut var_of_elem: Vec<Option<Var>> = vec![None; n];
            let mut eqs: Vec<(Var, Var)> = Vec::new();
            for (pos, &fe) in d.free().iter().enumerate() {
                match var_of_elem[fe.index()] {
                    None => var_of_elem[fe.index()] = Some(pos as Var),
                    Some(first) => eqs.push((first, pos as Var)),
                }
            }
            let mut next = arity;
            let mut exist_vars = Vec::new();
            for v in var_of_elem.iter_mut().take(n) {
                if v.is_none() {
                    *v = Some(next);
                    exist_vars.push(next);
                    next += 1;
                }
            }
            let mut conj: Vec<Formula> = eqs.into_iter().map(|(a, b)| Formula::Eq(a, b)).collect();
            for (sym, rel) in d.canonical().relations() {
                for t in rel.iter() {
                    conj.push(Formula::Atom(Atom {
                        sym,
                        args: t
                            .iter()
                            .map(|e| var_of_elem[e.index()].expect("numbered"))
                            .collect(),
                    }));
                }
            }
            let mut body = Formula::And(conj);
            for v in exist_vars.into_iter().rev() {
                body = Formula::exists(v, body);
            }
            parts.push(body);
        }
        Formula::Or(parts)
    }
}

/// Convert an arbitrary **existential-positive** formula to an equivalent
/// UCQ, by renaming binders apart, distributing ∧ and ∃ over ∨ (DNF
/// expansion), and eliminating equalities by unification.
///
/// Returns `Err` when the formula is not existential positive or is
/// ill-formed over `vocab`. The expansion can be exponential in the size of
/// the formula — inherent to the normal form, as the paper notes when
/// rewriting `∃FO^{k,+}` sentences as finite disjunctions of `CQ^k`
/// sentences.
pub fn ucq_of_existential_positive(f: &Formula, vocab: &Vocabulary) -> Result<Ucq, String> {
    if !f.is_existential_positive() {
        return Err(format!("formula is not existential positive: {f}"));
    }
    let free_vars: Vec<Var> = f.free_vars().into_iter().collect();
    let g = f.renamed_apart();
    // DNF over atom/equality literals; binders can be ignored after
    // renaming apart (every bound variable is implicitly existential).
    #[derive(Clone)]
    struct Conj {
        atoms: Vec<Atom>,
        eqs: Vec<(Var, Var)>,
    }
    fn dnf(f: &Formula) -> Vec<Conj> {
        match f {
            Formula::Atom(a) => vec![Conj {
                atoms: vec![a.clone()],
                eqs: vec![],
            }],
            Formula::Eq(x, y) => vec![Conj {
                atoms: vec![],
                eqs: vec![(*x, *y)],
            }],
            Formula::Or(gs) => gs.iter().flat_map(dnf).collect(),
            Formula::And(gs) => {
                let mut acc = vec![Conj {
                    atoms: vec![],
                    eqs: vec![],
                }];
                for g in gs {
                    let parts = dnf(g);
                    let mut next = Vec::with_capacity(acc.len() * parts.len());
                    for a in &acc {
                        for p in &parts {
                            let mut c = a.clone();
                            c.atoms.extend(p.atoms.iter().cloned());
                            c.eqs.extend(p.eqs.iter().copied());
                            next.push(c);
                        }
                    }
                    acc = next;
                }
                acc
            }
            Formula::Exists(_, g) => dnf(g),
            _ => unreachable!("checked existential positive"),
        }
    }
    let mut disjuncts = Vec::new();
    for c in dnf(&g) {
        for a in &c.atoms {
            if a.sym.index() >= vocab.len() || a.args.len() != vocab.arity(a.sym) {
                return Err("atom does not match vocabulary".to_string());
            }
        }
        // Build a conjunctive formula and reuse Cq::from_formula by
        // assembling the pieces directly.
        let mut conj: Vec<Formula> = c.eqs.iter().map(|&(a, b)| Formula::Eq(a, b)).collect();
        conj.extend(c.atoms.iter().map(|a| Formula::Atom(a.clone())));
        let body = Formula::And(conj);
        // Existentially close everything except the original free variables.
        let mut closed = body.clone();
        for &v in body.free_vars().iter().rev() {
            if !free_vars.contains(&v) {
                closed = Formula::exists(v, closed);
            }
        }
        // A disjunct may not mention some free variable of the whole
        // formula (e.g. `E(x,x) ∨ E(y,y)`): such a variable ranges over the
        // entire universe. Represent it as an isolated distinguished
        // element, which Cq::from_formula handles by including the free
        // variable list explicitly.
        let mut d = Cq::from_formula(&closed, vocab)?;
        if d.arity() != free_vars.len() {
            d = pad_free(&d, &free_vars, &closed);
        }
        disjuncts.push(d);
    }
    let mut u = Ucq::empty(free_vars.len());
    for d in disjuncts {
        u.push(d);
    }
    Ok(u)
}

/// Extend a CQ whose formula did not mention every free variable of the
/// surrounding UCQ: append fresh isolated elements for the missing
/// positions, keeping the free tuple aligned with `free_vars` order.
fn pad_free(d: &Cq, free_vars: &[Var], closed: &Formula) -> Cq {
    let present: Vec<Var> = closed.free_vars().into_iter().collect();
    let canon = d.canonical();
    let mut extra = 0u32;
    let mut free_elems: Vec<Elem> = Vec::with_capacity(free_vars.len());
    for &v in free_vars {
        if let Some(pos) = present.iter().position(|&p| p == v) {
            free_elems.push(d.free()[pos]);
        } else {
            free_elems.push(Elem(canon.universe_size() as u32 + extra));
            extra += 1;
        }
    }
    let mut s = Structure::new(
        canon.vocab().clone(),
        canon.universe_size() + extra as usize,
    );
    for (sym, rel) in canon.relations() {
        for t in rel.iter() {
            s.add_tuple(sym, t).expect("copy tuple");
        }
    }
    Cq::with_free(&s, &free_elems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_structures::generators::{
        directed_cycle, directed_path, random_digraph, self_loop, transitive_tournament,
    };

    fn edge(x: Var, y: Var) -> Formula {
        Formula::atom(0usize, &[x, y])
    }

    fn path_q(len: usize) -> Cq {
        Cq::canonical_query(&directed_path(len + 1))
    }

    #[test]
    fn union_semantics() {
        // "path of length 3 OR a loop".
        let loop_q = Cq::canonical_query(&self_loop());
        let u = Ucq::new(vec![path_q(3), loop_q]);
        assert!(u.holds_in(&directed_path(4)));
        assert!(u.holds_in(&self_loop()));
        assert!(!u.holds_in(&directed_path(3)));
        assert!(u.holds_in(&directed_cycle(2))); // wraps: has paths of any length
    }

    #[test]
    fn empty_ucq_is_false() {
        let u = Ucq::empty(0);
        assert!(!u.holds_in(&directed_path(4)));
        assert!(u.is_contained_in(&Ucq::new(vec![path_q(1)])));
        assert!(u.is_empty());
    }

    #[test]
    fn sagiv_yannakakis_containment() {
        // {len-3} ⊑ {len-1, len-2} since len-3 ⊑ len-2 ⊑ len-1.
        let a = Ucq::new(vec![path_q(3)]);
        let b = Ucq::new(vec![path_q(1), path_q(2)]);
        assert!(a.is_contained_in(&b));
        assert!(!b.is_contained_in(&a));
        // {len-1, loop} vs {len-1}: loop ⊑ len-1 (a loop has paths of all
        // lengths: hom from path into loop exists), so equivalent!
        let c = Ucq::new(vec![path_q(1), Cq::canonical_query(&self_loop())]);
        let d = Ucq::new(vec![path_q(1)]);
        assert!(c.is_equivalent_to(&d));
    }

    #[test]
    fn minimize_drops_subsumed_disjuncts() {
        let u = Ucq::new(vec![
            path_q(1),
            path_q(2),
            path_q(3),
            Cq::canonical_query(&self_loop()),
        ]);
        let m = u.minimize();
        // Everything is contained in path_q(1).
        assert_eq!(m.len(), 1);
        assert!(m.is_equivalent_to(&u));
    }

    #[test]
    fn minimize_keeps_incomparable_disjuncts() {
        // "loop" and "two distinct mutually-connected nodes" are
        // incomparable with... use: C2 query and C3 query: hom(C2,C3)? C2 is
        // the directed 2-cycle: no hom into C3 (2-cycle wraps to... a hom
        // C2→C3 needs an edge pair u->v->u in C3: none). hom(C3,C2): needs
        // 3-cycle in C2: 0->1->0->1: h(0)=0,h(1)=1,h(2)=0, edge h(2)->h(0) =
        // 0->0 missing. So incomparable.
        let u = Ucq::new(vec![
            Cq::canonical_query(&directed_cycle(2)),
            Cq::canonical_query(&directed_cycle(3)),
        ]);
        let m = u.minimize();
        assert_eq!(m.len(), 2);
        assert!(m.is_equivalent_to(&u));
    }

    #[test]
    fn ep_to_ucq_distributes() {
        let v = Vocabulary::digraph();
        // ∃x (E(x,x) ∨ ∃y (E(x,y) ∧ E(y,x)))
        let f = Formula::exists(
            0,
            Formula::Or(vec![
                edge(0, 0),
                Formula::exists(1, Formula::And(vec![edge(0, 1), edge(1, 0)])),
            ]),
        );
        let u = ucq_of_existential_positive(&f, &v).unwrap();
        assert_eq!(u.len(), 2);
        // Semantics agree with direct FO evaluation on random digraphs.
        for seed in 0..10 {
            let b = random_digraph(5, 6, seed);
            assert_eq!(u.holds_in(&b), f.holds(&b), "seed {seed}");
        }
    }

    #[test]
    fn ep_to_ucq_conjunction_of_disjunctions() {
        let v = Vocabulary::digraph();
        // (∃x E(x,x) ∨ P3) ∧ (∃y E(y,y) ∨ P2) expands to 4 disjuncts.
        let loop0 = Formula::exists(0, edge(0, 0));
        let p3 = Formula::exists(
            1,
            Formula::exists(2, Formula::And(vec![edge(1, 2), edge(2, 1)])),
        );
        let f = Formula::And(vec![
            Formula::Or(vec![loop0.clone(), p3.clone()]),
            Formula::Or(vec![loop0, p3]),
        ]);
        let u = ucq_of_existential_positive(&f, &v).unwrap();
        assert_eq!(u.len(), 4);
        for seed in 0..10 {
            let b = random_digraph(5, 7, seed + 100);
            assert_eq!(u.holds_in(&b), f.holds(&b), "seed {seed}");
        }
    }

    #[test]
    fn ep_to_ucq_with_free_vars_padding() {
        let v = Vocabulary::digraph();
        // E(x0,x0) ∨ E(x1,x1): each disjunct misses one free variable.
        let f = Formula::Or(vec![edge(0, 0), edge(1, 1)]);
        let u = ucq_of_existential_positive(&f, &v).unwrap();
        assert_eq!(u.arity(), 2);
        let mut b = transitive_tournament(3);
        b.add_tuple_ids(0, &[1, 1]).unwrap(); // loop at 1
        let ans = u.answers(&b);
        // Answers: (1, y) for all y, plus (x, 1) for all x = 3 + 3 - 1 = 5.
        assert_eq!(ans.len(), 5);
        // Cross-check against FO answers.
        let fo = f.answers(&b);
        assert_eq!(ans, fo);
    }

    #[test]
    fn ucq_core_keys_are_stable_under_presentation() {
        // Disjunct order and subsumed disjuncts don't change the key.
        let a = Ucq::new(vec![path_q(1), path_q(3)]);
        let b = Ucq::new(vec![
            path_q(3),
            path_q(1),
            Cq::canonical_query(&self_loop()),
        ]);
        assert!(a.is_equivalent_to(&b));
        assert_eq!(a.canonical_core_key(), b.canonical_core_key());
        // Incomparable unions differ.
        let c = Ucq::new(vec![
            Cq::canonical_query(&directed_cycle(2)),
            Cq::canonical_query(&directed_cycle(3)),
        ]);
        assert_ne!(a.canonical_core_key(), c.canonical_core_key());
        // Both unions collapse to {path_q(1)}: longer paths and the loop
        // are contained in "has an edge".
        assert_eq!(a.minimize().len(), 1);
    }

    #[test]
    fn gauged_ucq_containment_matches_unbudgeted() {
        use hp_guard::Budget;
        let a = Ucq::new(vec![path_q(3)]);
        let b = Ucq::new(vec![path_q(1), path_q(2)]);
        let mut g = Budget::unlimited().gauge();
        assert!(a.is_contained_in_gauged(&b, &mut g).unwrap());
        assert!(!b.is_contained_in_gauged(&a, &mut g).unwrap());
        let mut tiny = Budget::fuel(1).gauge();
        assert!(b.canonical_core_key_gauged(&mut tiny).is_err());
    }

    #[test]
    fn ep_rejects_negation() {
        let v = Vocabulary::digraph();
        let f = Formula::not(edge(0, 1));
        assert!(ucq_of_existential_positive(&f, &v).is_err());
    }

    #[test]
    fn to_formula_matches_semantics() {
        let u = Ucq::new(vec![path_q(2), Cq::canonical_query(&directed_cycle(2))]);
        let f = u.to_formula();
        assert!(f.is_existential_positive());
        for seed in 0..10 {
            let b = random_digraph(5, 6, seed + 50);
            assert_eq!(f.holds(&b), u.holds_in(&b), "seed {seed}");
        }
    }

    #[test]
    fn to_formula_nonboolean_roundtrip() {
        let v = Vocabulary::digraph();
        // Answers of "x0 has an out-neighbor with a loop" style query.
        let f = Formula::exists(1, Formula::And(vec![edge(0, 1), edge(1, 1)]));
        let u = ucq_of_existential_positive(&f, &v).unwrap();
        let g = u.to_formula();
        for seed in 0..6 {
            let b = random_digraph(5, 8, seed + 7);
            assert_eq!(g.answers(&b), u.answers(&b), "seed {seed}");
            assert_eq!(f.answers(&b), u.answers(&b), "seed {seed}");
        }
    }
}
