//! Probe indexes keyed on bound argument positions, one type for both
//! engines.
//!
//! The [`ProgramPlan`] knows, statically, every `(predicate, bound
//! positions)` combination the evaluator's join orders probe, and the
//! maintenance plan of [`MaterializedDb`](crate::MaterializedDb) knows its
//! own. Every positive spec of either is answered by a [`ProbeIndex`] over
//! the column-plane [`TupleStore`], in one of two shapes:
//!
//! - **identity** (key positions are the prefix `0..k`): nothing is built.
//!   The relation's own sealed store is already sorted lexicographically,
//!   so a probe is [`TupleStore::prefix_range_from`] on it — a chunked
//!   search over the leading column planes that gallops forward from the
//!   caller's cursor while keys ascend.
//! - **permuted copy** (any other key positions): a sorted copy of the
//!   relation with the key columns moved to the front (remaining columns
//!   keep their relative order), probed the same way. The copy follows its
//!   relation through [`ProbeIndex::apply_batch`]: a maintenance batch's
//!   deletions and insertions, or an evaluation round's delta, each
//!   [subtracted](TupleStore::subtract) or [merged](TupleStore::merge) in
//!   place.
//!
//! The evaluator's [`IndexPool`] adds a third shape for the guard specs (a
//! negated literal over a unary predicate): a **membership bitmap**, one
//! [`BitSet`] bit per universe element, so the guard is a single bit test
//! (`universe / 8` bytes, 12.5 KB at 10⁵ elements). Guards of arity ≥ 2
//! get no spec: they probe the sealed store.

use std::ops::Range;

use hp_structures::{BitSet, Elem, Row, RowRef, Structure, TupleStore};

use crate::ast::PredRef;
use crate::eval::IdbRelation;
use crate::plan::ProgramPlan;

/// One candidate row handed out by a probe, in the atom's original column
/// order regardless of how the backing index stores it.
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
    /// Row `r` of a [`Probe`]'s store, read through its position map.
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

/// The rows one probe matched: a range of sorted rows of a store, and the
/// position map to read them in original column order (`None` when they
/// already are). [`ResolvedRow::new`] reads one of them.
pub(crate) type Probe<'a> = (&'a TupleStore, Option<&'a [usize]>, Range<usize>);

/// A column order that moves an index's key columns to the front, the
/// remaining columns following in ascending order, so that a probe on the
/// key is a [`TupleStore::prefix_range`].
#[derive(Clone, Debug)]
pub(crate) struct KeyOrder {
    /// `perm[k]` = original column stored at permuted position `k`.
    perm: Vec<usize>,
    /// `pos_of[i]` = permuted position of original column `i`.
    pos_of: Vec<usize>,
}

impl KeyOrder {
    /// The rows of `rows` with their columns in this order, sealed.
    fn permute(&self, rows: &TupleStore) -> TupleStore {
        let mut out = TupleStore::with_capacity(self.perm.len(), rows.len());
        for t in rows.iter() {
            out.push_with(|buf| buf.extend(self.perm.iter().map(|&i| t.get(i))));
        }
        out.seal();
        out
    }
}

/// The sorted copy of `rows` with the columns `key_positions` moved to the
/// front, and the order that built it. `None` when the key columns already
/// are the prefix `0..k`: `rows` is then sorted exactly as the copy would
/// be, and serves every probe itself.
fn permuted_copy(key_positions: &[usize], rows: &TupleStore) -> Option<(KeyOrder, TupleStore)> {
    if key_positions.iter().copied().eq(0..key_positions.len()) {
        return None;
    }
    let arity = rows.arity();
    let mut perm = key_positions.to_vec();
    perm.extend((0..arity).filter(|i| !key_positions.contains(i)));
    let mut pos_of = vec![0usize; arity];
    for (k, &i) in perm.iter().enumerate() {
        pos_of[i] = k;
    }
    let order = KeyOrder { perm, pos_of };
    let store = order.permute(rows);
    Some((order, store))
}

/// The probe index for one positive spec over one relation: the identity
/// (the relation's own store answers) or a permuted copy that follows the
/// relation batch by batch. The relation itself is handed to each probe,
/// so the index borrows nothing.
#[derive(Clone, Debug)]
pub(crate) struct ProbeIndex {
    /// The permuted copy and its column order; `None` for the identity.
    pub(crate) copy: Option<(KeyOrder, TupleStore)>,
}

impl ProbeIndex {
    /// The index on `key_positions` over `rows`, copying them only when
    /// the key columns are not a prefix.
    pub(crate) fn new(key_positions: &[usize], rows: &TupleStore) -> ProbeIndex {
        ProbeIndex {
            copy: permuted_copy(key_positions, rows),
        }
    }

    /// All rows of `rows` — the relation this index was built over, in its
    /// current state — whose key columns equal `key`, in ascending order
    /// of the index's store. `cursor` is the caller's per-(work item,
    /// depth) position: the search gallops forward from it while it is
    /// still valid (see [`TupleStore::prefix_range_from`]) and leaves the
    /// range's start there, so ascending keys sweep the store once. The
    /// answer never depends on it.
    #[inline]
    pub(crate) fn probe<'a>(
        &'a self,
        rows: &'a TupleStore,
        key: &[Elem],
        cursor: &mut usize,
    ) -> Probe<'a> {
        let (store, pos_of) = match &self.copy {
            Some((order, store)) => (store, Some(order.pos_of.as_slice())),
            None => (rows, None),
        };
        let range = store.prefix_range_from(key, *cursor);
        *cursor = range.start;
        (store, pos_of, range)
    }

    /// Fold a batch of the relation in: the copy follows it in place (the
    /// permuted deletions are [subtracted](TupleStore::subtract), the
    /// permuted insertions [merged](TupleStore::merge)), while an identity
    /// index already sees it through the relation's store. Both batches
    /// are sealed.
    pub(crate) fn apply_batch(&mut self, removed: &TupleStore, inserted: &TupleStore) {
        let Some((order, store)) = &mut self.copy else {
            return;
        };
        if !removed.is_empty() {
            store.subtract(&order.permute(removed));
        }
        if !inserted.is_empty() {
            store.merge(&order.permute(inserted));
        }
    }

    /// Heap bytes of the permuted copy (0 for the identity).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.copy.as_ref().map_or(0, |(_, s)| s.heap_bytes())
    }
}

/// How the pool answers one spec.
#[derive(Clone, Debug)]
enum Arena {
    /// A positive probe spec.
    Probe(ProbeIndex),
    /// Unary guard: the relation's members as a bit per universe element.
    Members(BitSet),
}

/// All indexes one evaluation needs, aligned with
/// [`ProgramPlan::index_specs`].
pub(crate) struct IndexPool {
    arenas: Vec<Arena>,
}

impl IndexPool {
    /// Build the pool over `a` and the IDB relations accumulated so far —
    /// all empty (stage Φ⁰) for a fresh run, a checkpoint's for a resumed
    /// one: a probe spec becomes a [`ProbeIndex`] over its relation, a
    /// guard spec a bitmap of its members. An IDB spec the plan does not
    /// absorb is never probed, and stays as built.
    pub fn new(plan: &ProgramPlan, a: &Structure, idb: &[IdbRelation]) -> IndexPool {
        let n = a.universe_size();
        let arenas = plan
            .index_specs
            .iter()
            .map(|s| {
                let rows = match s.pred {
                    PredRef::Edb(sym) => a.relation(sym).store(),
                    PredRef::Idb(i) => idb[i].store(),
                };
                if s.guard {
                    Arena::Members(BitSet::from_indices(
                        n,
                        rows.iter().map(|t| t.get(0).index()),
                    ))
                } else {
                    Arena::Probe(ProbeIndex::new(&s.key_positions, rows))
                }
            })
            .collect();
        IndexPool { arenas }
    }

    /// Fold one round's newly derived tuples into the absorbed IDB
    /// indexes, which then mirror `idb ∪ delta`: a copy merges them, a
    /// bitmap sets their bits, an identity index reads the merged relation
    /// itself. Call exactly once per delta round, right when the delta is
    /// merged into the accumulated relations.
    pub fn absorb(&mut self, plan: &ProgramPlan, delta: &[IdbRelation]) {
        for ((arena, spec), &absorbed) in self
            .arenas
            .iter_mut()
            .zip(&plan.index_specs)
            .zip(&plan.absorbed)
        {
            let PredRef::Idb(i) = spec.pred else {
                continue;
            };
            if !absorbed || delta[i].is_empty() {
                continue;
            }
            match arena {
                Arena::Probe(index) => {
                    index.apply_batch(&TupleStore::new(delta[i].arity()), delta[i].store());
                }
                Arena::Members(bits) => {
                    for t in delta[i].iter() {
                        bits.insert(t.get(0).index());
                    }
                }
            }
        }
    }

    /// The probe index of spec `idx`.
    #[inline]
    pub fn index(&self, idx: usize) -> &ProbeIndex {
        let Arena::Probe(index) = &self.arenas[idx] else {
            unreachable!("a guard arena is tested, not probed");
        };
        index
    }

    /// Whether the unary relation behind guard spec `idx` holds `e`.
    #[inline]
    pub fn contains(&self, idx: usize, e: Elem) -> bool {
        let Arena::Members(bits) = &self.arenas[idx] else {
            unreachable!("membership test on a probe index");
        };
        bits.contains(e.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Program;
    use hp_structures::generators::directed_path;
    use hp_structures::{Relation, SymbolId, Vocabulary};

    fn collect((store, pos_of, range): Probe<'_>) -> Vec<Vec<Elem>> {
        range
            .map(|r| ResolvedRow::new(store, pos_of, r).to_elems())
            .collect()
    }

    fn edb(a: &Structure, sym: usize) -> &TupleStore {
        a.relation(SymbolId::from(sym)).store()
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
        let pool = IndexPool::new(&plan, &a, &p.empty_idbs());
        // The TC delta order probes E on its second position; edges into
        // element 2 = {(1,2)}.
        let spec = plan
            .index_specs
            .iter()
            .position(|s| matches!(s.pred, PredRef::Edb(_)) && s.key_positions == vec![1])
            .expect("E indexed on position 1");
        let hits = collect(pool.index(spec).probe(edb(&a, 0), &[Elem(2)], &mut 0));
        assert_eq!(hits, vec![vec![Elem(1), Elem(2)]]);
        assert!(collect(pool.index(spec).probe(edb(&a, 0), &[Elem(0)], &mut 0)).is_empty());
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
        let pool = IndexPool::new(&plan, &a, &p.empty_idbs());
        let spec = plan
            .index_specs
            .iter()
            .position(|s| matches!(s.pred, PredRef::Edb(_)) && s.key_positions == vec![0])
            .expect("E indexed on position 0 (the linear chain probe)");
        assert!(pool.index(spec).copy.is_none());
        let (store, pos_of, _) = pool.index(spec).probe(edb(&a, 0), &[Elem(2)], &mut 0);
        assert!(std::ptr::eq(store, edb(&a, 0)) && pos_of.is_none());
        let hits = collect(pool.index(spec).probe(edb(&a, 0), &[Elem(2)], &mut 0));
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
        let pool = IndexPool::new(&plan, &a, &p.empty_idbs());
        let spec = plan
            .index_specs
            .iter()
            .position(|s| matches!(s.pred, PredRef::Edb(_)) && s.key_positions == vec![1])
            .expect("E indexed on position 1");
        // Edges into 2: (0,2), (1,2), (3,2) — ascending by the remaining
        // (source) column, exactly the relation's own row order restricted
        // to the key, with every row decoded back to (src, dst).
        let hits = collect(pool.index(spec).probe(edb(&a, 0), &[Elem(2)], &mut 0));
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
        let pool = IndexPool::new(&plan, &a, &p.empty_idbs());
        let keys: Vec<u32> = (0..200)
            .chain([5, 5, 199, 0, 150, 150, 3])
            .chain((0..200).rev())
            .collect();
        for (spec, s) in plan.index_specs.iter().enumerate() {
            let PredRef::Edb(sym) = s.pred else {
                continue;
            };
            let rows = a.relation(sym).store();
            let mut cursor = 0;
            for &k in &keys {
                let got = collect(pool.index(spec).probe(rows, &[Elem(k)], &mut cursor));
                assert_eq!(
                    got,
                    collect(pool.index(spec).probe(rows, &[Elem(k)], &mut 0))
                );
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

            let copy = pool.index(permuted).copy.as_ref().map(|(_, s)| s);
            let want = permuted_copy(&[1], idb[0].store()).map(|(_, s)| s);
            assert_eq!(copy, want.as_ref(), "round {round}");
            for (spec, col) in [(prefix, 0), (permuted, 1)] {
                let mut cursor = 0;
                for k in 0..12u32 {
                    let mut got = collect(pool.index(spec).probe(
                        idb[0].store(),
                        &[Elem(k)],
                        &mut cursor,
                    ));
                    got.sort();
                    let scan: Vec<Vec<Elem>> = idb[0]
                        .iter()
                        .filter(|t| t.get(col) == Elem(k))
                        .map(|t| t.to_vec())
                        .collect();
                    assert_eq!(got, scan, "round {round}, column {col}, key {k}");
                }
            }
            assert_eq!(pool.index(prefix).heap_bytes(), 0);
            // A resumed run builds the same copy from the accumulated
            // relation in one go.
            let rebuilt = IndexPool::new(&plan, &a, &idb);
            assert_eq!(rebuilt.index(permuted).copy.as_ref().map(|(_, s)| s), copy);
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
