//! Probe sources keyed on bound argument positions, one shape for both
//! engines. Every positive probe of the evaluator's and the maintenance
//! joins reads a sorted store that its relation owns
//! ([`Relation::copy`](hp_structures::Relation::copy)), in one of two
//! shapes:
//!
//! - **identity** (key positions are the prefix `0..k`): nothing is built.
//!   The relation's own sealed store is already sorted lexicographically,
//!   so a probe is [`TupleStore::prefix_range_from`] on it — a chunked
//!   search over the leading column planes that gallops forward from the
//!   caller's cursor while keys ascend.
//! - **permuted copy** (any other key positions): a sorted copy with the
//!   key columns moved to the front, probed the same way, built on the
//!   first probe that needs it and spliced by every later write (a
//!   maintenance batch, a round's delta merge, a served update).
//!   Evaluations, snapshots and views sharing a relation share its copies;
//!   results leave an evaluation without them.
//!
//! The evaluator's [`IndexPool`] holds only what no relation owns: for a
//! guard spec (a negated literal over a unary predicate) a **membership
//! bitmap**, one [`BitSet`] bit per universe element, so the guard is a
//! single bit test (`universe / 8` bytes, 12.5 KB at 10⁵ elements). Guards
//! of arity ≥ 2 get no spec: they probe the sealed store.

use hp_structures::{BitSet, Elem, Row, RowRef, Structure, TupleStore};

use crate::ast::PredRef;
use crate::eval::IdbRelation;
use crate::plan::ProgramPlan;

/// One candidate row handed out by a probe, in the atom's original column
/// order regardless of how the backing store holds it.
#[derive(Clone, Copy)]
pub(crate) enum ResolvedRow<'a> {
    /// A row of a sealed store already in original column order.
    Direct(RowRef<'a>),
    /// A permuted-copy row read through the copy's position map.
    Permuted {
        row: RowRef<'a>,
        pos_of: &'a [usize],
    },
}

impl<'a> ResolvedRow<'a> {
    /// Row `r` of a [`Source`]'s store, read through its position map.
    #[inline]
    pub(crate) fn new(store: &'a TupleStore, pos_of: Option<&'a [usize]>, r: usize) -> Self {
        let row = store.row(r);
        match pos_of {
            Some(pos_of) => ResolvedRow::Permuted { row, pos_of },
            None => ResolvedRow::Direct(row),
        }
    }
}

impl Row for ResolvedRow<'_> {
    #[inline]
    fn width(&self) -> usize {
        match self {
            ResolvedRow::Direct(r) => r.len(),
            ResolvedRow::Permuted { pos_of, .. } => pos_of.len(),
        }
    }

    #[inline]
    fn at(&self, i: usize) -> Elem {
        match self {
            ResolvedRow::Direct(r) => r.get(i),
            ResolvedRow::Permuted { row, pos_of } => row.get(pos_of[i]),
        }
    }
}

/// What a probe step searches, as
/// [`Relation::copy`](hp_structures::Relation::copy) hands it out: a sorted
/// store and the map to read its rows in original column order (`None`
/// when they already are).
pub(crate) type Source<'a> = (&'a TupleStore, Option<&'a [usize]>);

/// The guard bitmaps one evaluation needs, aligned with
/// [`ProgramPlan::index_specs`]: `Some` for a guard spec, `None` for a
/// positive spec, whose relation answers its probes.
pub(crate) struct IndexPool {
    guards: Vec<Option<BitSet>>,
}

impl IndexPool {
    /// Build the pool over `a` and the IDB relations accumulated so far —
    /// all empty (stage Φ⁰) for a fresh run, a checkpoint's for a resumed
    /// one: each guard spec becomes a bitmap of its relation's members.
    pub fn new(plan: &ProgramPlan, a: &Structure, idb: &[IdbRelation]) -> IndexPool {
        let n = a.universe_size();
        let guards = plan
            .index_specs
            .iter()
            .map(|s| {
                s.guard.then(|| {
                    let rows = match s.pred {
                        PredRef::Edb(sym) => a.relation(sym).store(),
                        PredRef::Idb(i) => idb[i].store(),
                    };
                    BitSet::from_indices(n, rows.iter().map(|t| t.get(0).index()))
                })
            })
            .collect();
        IndexPool { guards }
    }

    /// Fold one round's newly derived tuples into the absorbed IDB guard
    /// bitmaps, which then mirror `idb ∪ delta`. Call exactly once per
    /// delta round, right when the delta is merged into the accumulated
    /// relations (whose merge also carries every built copy along).
    pub fn absorb(&mut self, plan: &ProgramPlan, delta: &[IdbRelation]) {
        for ((bits, spec), &absorbed) in self
            .guards
            .iter_mut()
            .zip(&plan.index_specs)
            .zip(&plan.absorbed)
        {
            if let (Some(bits), PredRef::Idb(i), true) = (bits, spec.pred, absorbed) {
                for t in delta[i].iter() {
                    bits.insert(t.get(0).index());
                }
            }
        }
    }

    /// Whether the unary relation behind guard spec `idx` holds `e`.
    #[inline]
    pub fn contains(&self, idx: usize, e: Elem) -> bool {
        self.guards[idx]
            .as_ref()
            .expect("membership test on a probe spec")
            .contains(e.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Program;
    use crate::plan::IndexSpec;
    use hp_structures::generators::directed_path;
    use hp_structures::{permuted_copy, Relation, SymbolId, Vocabulary};
    use std::ops::Range;

    type Probe<'a> = (&'a TupleStore, Option<&'a [usize]>, Range<usize>);

    /// The rows of `source` whose key columns equal `key`, galloping from
    /// `cursor` as the join does.
    fn probe<'a>((store, pos_of): Source<'a>, key: &[Elem], cursor: &mut usize) -> Probe<'a> {
        let range = store.prefix_range_from(key, *cursor);
        *cursor = range.start;
        (store, pos_of, range)
    }

    fn collect((store, pos_of, range): Probe<'_>) -> Vec<Vec<Elem>> {
        range
            .map(|r| ResolvedRow::new(store, pos_of, r).to_elems())
            .collect()
    }

    fn edb(a: &Structure, sym: usize) -> &TupleStore {
        a.relation(SymbolId::from(sym)).store()
    }

    /// The source an EDB spec's probes read: its relation's store or copy.
    fn source<'a>(a: &'a Structure, spec: &IndexSpec) -> Source<'a> {
        let PredRef::Edb(sym) = spec.pred else {
            unreachable!("an EDB spec")
        };
        a.relation(sym).copy(&spec.key_positions)
    }

    #[test]
    fn edb_index_probes_by_position() {
        let p = Program::parse(
            "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        let plan = ProgramPlan::new(&p);
        let a = directed_path(4);
        // The TC delta order probes E on its second position; edges into
        // element 2 = {(1,2)}.
        let spec = plan
            .index_specs
            .iter()
            .find(|s| matches!(s.pred, PredRef::Edb(_)) && s.key_positions == vec![1])
            .expect("E indexed on position 1");
        let hits = collect(probe(source(&a, spec), &[Elem(2)], &mut 0));
        assert_eq!(hits, vec![vec![Elem(1), Elem(2)]]);
        assert!(collect(probe(source(&a, spec), &[Elem(0)], &mut 0)).is_empty());
    }

    #[test]
    fn prefix_specs_probe_the_relation_directly() {
        let p = Program::parse(
            "R(y) :- S(x), E(x,y).\nR(y) :- R(x), E(x,y).",
            &Vocabulary::from_pairs([("E", 2), ("S", 1)]),
        )
        .unwrap();
        let plan = ProgramPlan::new(&p);
        let mut a = hp_structures::Structure::new(p.edb().clone(), 4);
        for i in 0..3u32 {
            a.add_tuple_ids(0, &[i, i + 1]).unwrap();
        }
        a.add_tuple_ids(1, &[0]).unwrap();
        let spec = plan
            .index_specs
            .iter()
            .find(|s| matches!(s.pred, PredRef::Edb(_)) && s.key_positions == vec![0])
            .expect("E indexed on position 0 (the linear chain probe)");
        let (store, pos_of, _) = probe(source(&a, spec), &[Elem(2)], &mut 0);
        assert!(a.relation(SymbolId::from(0usize)).copies().next().is_none());
        assert!(std::ptr::eq(store, edb(&a, 0)) && pos_of.is_none());
        let hits = collect(probe(source(&a, spec), &[Elem(2)], &mut 0));
        assert_eq!(hits, vec![vec![Elem(2), Elem(3)]]);
    }

    #[test]
    fn permuted_rows_come_back_in_original_column_order() {
        let p = Program::parse(
            "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        let plan = ProgramPlan::new(&p);
        let mut a = directed_path(4);
        a.add_tuple_ids(0, &[0, 2]).unwrap();
        a.add_tuple_ids(0, &[3, 2]).unwrap();
        let spec = plan
            .index_specs
            .iter()
            .find(|s| matches!(s.pred, PredRef::Edb(_)) && s.key_positions == vec![1])
            .expect("E indexed on position 1");
        // Edges into 2: (0,2), (1,2), (3,2) — ascending by the remaining
        // (source) column, exactly the relation's own row order restricted
        // to the key, with every row decoded back to (src, dst).
        let hits = collect(probe(source(&a, spec), &[Elem(2)], &mut 0));
        assert_eq!(
            hits,
            vec![
                vec![Elem(0), Elem(2)],
                vec![Elem(1), Elem(2)],
                vec![Elem(3), Elem(2)],
            ]
        );
    }

    #[test]
    fn a_shared_cursor_never_changes_an_answer() {
        // One cursor through ascending, repeated and descending keys, on
        // both sorted shapes: every answer equals a fresh-cursor probe.
        let p = Program::parse(
            "R(y) :- S(x), E(x,y).\nR(y) :- R(x), E(x,y).\nT(x) :- E(x,y), R(y).",
            &Vocabulary::from_pairs([("E", 2), ("S", 1)]),
        )
        .unwrap();
        let plan = ProgramPlan::new(&p);
        let mut a = hp_structures::Structure::new(p.edb().clone(), 200);
        for i in 0..200u32 {
            for d in [1, 7, 30] {
                a.add_tuple_ids(0, &[i, (i * d + 3) % 200]).unwrap();
            }
        }
        let keys: Vec<u32> = (0..200)
            .chain([5, 5, 199, 0, 150, 150, 3])
            .chain((0..200).rev())
            .collect();
        for spec in &plan.index_specs {
            if !matches!(spec.pred, PredRef::Edb(_)) {
                continue;
            }
            let mut cursor = 0;
            for &k in &keys {
                let got = collect(probe(source(&a, spec), &[Elem(k)], &mut cursor));
                assert_eq!(got, collect(probe(source(&a, spec), &[Elem(k)], &mut 0)));
            }
        }
    }

    #[test]
    fn idb_copies_follow_absorbed_deltas() {
        // Nonlinear TC probes T on [0] (a prefix: the identity, no copy)
        // and on [1] (a permuted copy absorbing every delta).
        let p = Program::parse(
            "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), T(y,z).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        let plan = ProgramPlan::new(&p);
        let a = directed_path(12);
        let mut idb = p.empty_idbs();
        let mut pool = IndexPool::new(&plan, &a, &idb);
        let spec_on = |key: Vec<usize>| {
            plan.index_specs
                .iter()
                .position(|s| s.pred == PredRef::Idb(0) && s.key_positions == key && !s.guard)
                .expect("T is probed on this key")
        };
        let (prefix, permuted) = (spec_on(vec![0]), spec_on(vec![1]));
        assert!(plan.absorbed[prefix] && plan.absorbed[permuted]);
        let keys = |spec: usize| plan.index_specs[spec].key_positions.clone();
        // Stage Φ⁰: the copy is built over the empty relation, then follows
        // every merged delta.
        idb[0].copy(&keys(permuted));
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for round in 0..6 {
            let mut batch = Relation::new(2);
            for _ in 0..15 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                batch.insert(&[Elem((x % 12) as u32), Elem(((x >> 32) % 12) as u32)]);
            }
            // A delta holds only tuples new to the accumulated relation.
            let mut delta = p.empty_idbs();
            delta[0].merge_store(&batch.store().difference(idb[0].store()));
            pool.absorb(&plan, &delta);
            idb[0].merge(&delta[0]);

            let copy = idb[0].copies().next().map(|(_, s)| s.clone());
            let want = Some(permuted_copy(&[1], idb[0].store()).1);
            assert_eq!(copy, want, "round {round}");
            for (spec, col) in [(prefix, 0), (permuted, 1)] {
                let mut cursor = 0;
                for k in 0..12u32 {
                    let mut got = collect(probe(idb[0].copy(&keys(spec)), &[Elem(k)], &mut cursor));
                    got.sort();
                    let scan: Vec<Vec<Elem>> = idb[0]
                        .iter()
                        .filter(|t| t.get(col) == Elem(k))
                        .map(|t| t.to_vec())
                        .collect();
                    assert_eq!(got, scan, "round {round}, column {col}, key {k}");
                }
            }
            assert_eq!(idb[0].copies().count(), 1);
            // A resumed run builds the same copy from the accumulated
            // relation in one go.
            let mut rebuilt = Relation::new(2);
            rebuilt.merge_store(idb[0].store());
            assert_eq!(Some(rebuilt.copy(&keys(permuted)).0), copy.as_ref());
        }
    }

    #[test]
    fn guard_arenas_hold_one_bit_per_member() {
        // `not M(y)` is an EDB guard, filled at setup; `not R(x)` an IDB
        // guard, filled as `R` is absorbed. 70 elements span two words.
        let p = Program::parse(
            "U(x) :- E(x,y), not M(y).\nR(x) :- M(x).\nS(x) :- E(x,y), not R(x).",
            &Vocabulary::from_pairs([("E", 2), ("M", 1)]),
        )
        .unwrap();
        let plan = ProgramPlan::new(&p);
        let mut a = hp_structures::Structure::new(p.edb().clone(), 70);
        for m in [0u32, 63, 64, 69] {
            a.add_tuple_ids(1, &[m]).unwrap();
        }
        let mut pool = IndexPool::new(&plan, &a, &p.empty_idbs());
        let spec = |pred: PredRef| {
            plan.index_specs
                .iter()
                .position(|s| s.pred == pred && s.guard)
                .expect("guard spec")
        };
        let (m, r) = (spec(PredRef::Edb(1usize.into())), spec(PredRef::Idb(1)));
        let members = |pool: &IndexPool, spec: usize| -> Vec<u32> {
            (0..70u32)
                .filter(|&e| pool.contains(spec, Elem(e)))
                .collect()
        };
        assert_eq!(members(&pool, m), vec![0, 63, 64, 69]);
        assert!(members(&pool, r).is_empty());
        let mut delta = p.empty_idbs();
        delta[1].insert(&[Elem(64)]);
        pool.absorb(&plan, &delta);
        assert_eq!(members(&pool, r), vec![64]);
    }
}
