//! Per-predicate probe indexes keyed on bound argument positions.
//!
//! The [`ProgramPlan`](crate::plan::ProgramPlan) knows, statically, every
//! `(predicate, bound positions)` combination the join orders probe. An
//! [`IndexPool`] materializes one [`TupleIndex`] per such spec. With the
//! column-plane [`TupleStore`](hp_structures::TupleStore) there are four
//! shapes, picked per spec:
//!
//! - **Natural** (EDB, key positions are the prefix `0..k`): no index is
//!   built at all. The relation's sealed store is already sorted
//!   lexicographically, so a probe is
//!   [`TupleStore::prefix_range_from`](hp_structures::TupleStore::prefix_range_from) —
//!   a chunked search over the leading column planes that gallops forward
//!   from the caller's cursor while keys ascend. Setup cost is zero, which
//!   matters because the pool is rebuilt per evaluation.
//! - **Permuted** (EDB, any other key positions): a sorted copy of the
//!   relation with the key columns permuted to the front (remaining
//!   columns keep their relative order, so rows sharing a key enumerate in
//!   the same order the row-id hash index used to yield). One sort at
//!   setup replaces per-row hash inserts; probes are again `prefix_range`.
//! - **Idb**: a hash map from key to **row ids** (`u32`) into a flat
//!   append-only arena the index owns — stable across rounds because
//!   absorbed rows are never reordered, unlike the accumulated relations
//!   whose sorted runs shift on every merge. IDB indexes grow
//!   **incrementally**: each delta round folds exactly the newly derived
//!   tuples in, so maintaining them costs `O(Σ|Δ|)` over the whole
//!   fixpoint instead of `O(rounds × |IDB|)` rebuilds.
//! - **Members** (guard specs: a negated literal over a unary predicate):
//!   a [`BitSet`] over the universe, one bit per element, so the guard is
//!   a single bit test (`universe / 8` bytes, 12.5 KB at 10⁵ elements).
//!   An EDB arena is filled once at setup; an IDB arena is filled by
//!   [`IndexPool::absorb`] as its lower stratum grows, like an `Idb`
//!   arena. Guards of arity ≥ 2 get no spec: they probe the sealed store.
//!
//! Row ids are `u32`; an IDB arena that outgrows them reports a typed
//! [`StructureError::CapacityExceeded`] instead of silently wrapping (the
//! 10⁸-row audit: `2^32` rows of a binary IDB would already be a 32 GiB
//! arena, but the failure must be loud, not a corrupted join).

use std::collections::HashMap;
use std::ops::Range;

use hp_structures::{BitSet, Elem, Relation, Row, RowRef, Structure, StructureError, TupleStore};

use crate::ast::PredRef;
use crate::eval::IdbRelation;
use crate::plan::ProgramPlan;

/// How a [`TupleIndex`] resolves probes.
#[derive(Clone, Debug)]
enum Arena<'a> {
    /// EDB indexed on a positional prefix: probe the relation's own sealed
    /// store, nothing materialized.
    Natural(&'a Relation),
    /// EDB indexed on non-prefix positions: a sorted [permuted
    /// copy](permuted_copy).
    Permuted { order: KeyOrder, store: TupleStore },
    /// IDB: rows are appended to `data` (one `arity`-stride row per
    /// absorbed tuple, in absorption order); `map` sends each key to the
    /// row ids carrying it.
    Idb {
        arity: usize,
        data: Vec<Elem>,
        map: HashMap<Vec<Elem>, Vec<u32>>,
    },
    /// Unary guard: the relation's members as a bit per universe element.
    Members(BitSet),
}

/// One candidate row handed out by a probe, in the atom's original column
/// order regardless of how the backing index stores it.
#[derive(Clone, Copy)]
pub(crate) enum ResolvedRow<'a> {
    /// A row of a sealed store already in original column order.
    Direct(RowRef<'a>),
    /// A permuted-index row read through the index's position map.
    Permuted {
        row: RowRef<'a>,
        pos_of: &'a [usize],
    },
    /// A row of an IDB index's flat arena.
    Slice(&'a [Elem]),
}

impl Row for ResolvedRow<'_> {
    #[inline]
    fn width(&self) -> usize {
        match self {
            ResolvedRow::Direct(r) => r.len(),
            ResolvedRow::Permuted { pos_of, .. } => pos_of.len(),
            ResolvedRow::Slice(s) => s.len(),
        }
    }

    #[inline]
    fn at(&self, i: usize) -> Elem {
        match self {
            ResolvedRow::Direct(r) => r.get(i),
            ResolvedRow::Permuted { row, pos_of } => row.get(pos_of[i]),
            ResolvedRow::Slice(s) => s[i],
        }
    }
}

/// Iterator of one probe's candidate rows.
pub(crate) enum ProbeIter<'a> {
    Rows {
        store: &'a TupleStore,
        range: Range<usize>,
    },
    Permuted {
        store: &'a TupleStore,
        pos_of: &'a [usize],
        range: Range<usize>,
    },
    Ids {
        arity: usize,
        data: &'a [Elem],
        ids: std::slice::Iter<'a, u32>,
    },
}

impl<'a> Iterator for ProbeIter<'a> {
    type Item = ResolvedRow<'a>;

    #[inline]
    fn next(&mut self) -> Option<ResolvedRow<'a>> {
        match self {
            ProbeIter::Rows { store, range } => {
                range.next().map(|r| ResolvedRow::Direct(store.row(r)))
            }
            ProbeIter::Permuted {
                store,
                pos_of,
                range,
            } => range.next().map(|r| ResolvedRow::Permuted {
                row: store.row(r),
                pos_of,
            }),
            ProbeIter::Ids { arity, data, ids } => ids.next().map(|&id| {
                let i = id as usize;
                ResolvedRow::Slice(&data[i * *arity..(i + 1) * *arity])
            }),
        }
    }
}

/// A probe index over one relation for one key-position spec.
#[derive(Clone, Debug)]
pub(crate) struct TupleIndex<'a> {
    key_positions: Vec<usize>,
    arena: Arena<'a>,
}

impl<'a> TupleIndex<'a> {
    /// Add `t` to an IDB arena: set its bit in a membership arena, or
    /// append it to the owned row arena and record its fresh row id,
    /// refusing (typed, not wrapping) once ids no longer fit in `u32`.
    fn absorb_row(&mut self, t: RowRef<'_>) -> Result<(), StructureError> {
        let (arity, data, map) = match &mut self.arena {
            Arena::Idb { arity, data, map } => (arity, data, map),
            Arena::Members(bits) => {
                bits.insert(t.get(0).index());
                return Ok(());
            }
            _ => unreachable!("absorb_row on an EDB index"),
        };
        debug_assert_eq!(t.len(), *arity);
        let rows = data.len().checked_div(*arity).unwrap_or(0);
        let row_id = u32::try_from(rows).map_err(|_| StructureError::CapacityExceeded {
            what: "IDB index row id",
            requested: rows + 1,
            limit: u32::MAX as usize,
        })?;
        t.append_to(data);
        let key: Vec<Elem> = self.key_positions.iter().map(|&p| t.get(p)).collect();
        map.entry(key).or_default().push(row_id);
        Ok(())
    }

    /// All tuples whose projection to the key positions equals `key`, in
    /// original column order. EDB probes enumerate ascending store rows,
    /// IDB probes absorption order — both match the row-id orders the
    /// hash-only pool produced, and every consumer seals its output anyway.
    ///
    /// `cursor` is the caller's per-(work item, depth) position: a sorted
    /// EDB probe gallops forward from it when it is still valid (see
    /// [`TupleStore::prefix_range_from`]) and leaves its range's start
    /// there, so ascending keys sweep the store once. The answer never
    /// depends on it; IDB hash probes leave it alone.
    pub fn probe<'s>(&'s self, key: &[Elem], cursor: &mut usize) -> ProbeIter<'s> {
        let mut sorted = |store: &TupleStore| {
            let range = store.prefix_range_from(key, *cursor);
            *cursor = range.start;
            range
        };
        match &self.arena {
            Arena::Natural(rel) => ProbeIter::Rows {
                store: rel.store(),
                range: sorted(rel.store()),
            },
            Arena::Permuted { order, store } => ProbeIter::Permuted {
                store,
                pos_of: &order.pos_of,
                range: sorted(store),
            },
            Arena::Idb { arity, data, map } => ProbeIter::Ids {
                arity: *arity,
                data,
                ids: map.get(key).map(Vec::as_slice).unwrap_or(&[]).iter(),
            },
            Arena::Members(_) => unreachable!("a guard arena is tested, not probed"),
        }
    }

    /// Whether the unary relation behind a guard arena holds `e`.
    #[inline]
    pub fn contains(&self, e: Elem) -> bool {
        let Arena::Members(bits) = &self.arena else {
            unreachable!("membership test on a probe index");
        };
        bits.contains(e.index())
    }
}

/// A column order that moves an index's key columns to the front, the
/// remaining columns following in ascending order, so that a probe on the
/// key is a [`TupleStore::prefix_range`].
#[derive(Clone, Debug)]
pub(crate) struct KeyOrder {
    /// `perm[k]` = original column stored at permuted position `k`.
    perm: Vec<usize>,
    /// `pos_of[i]` = permuted position of original column `i`.
    pub(crate) pos_of: Vec<usize>,
}

impl KeyOrder {
    /// The rows of `rows` with their columns in this order, sealed.
    pub(crate) fn permute(&self, rows: &TupleStore) -> TupleStore {
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
pub(crate) fn permuted_copy(
    key_positions: &[usize],
    rows: &TupleStore,
) -> Option<(KeyOrder, TupleStore)> {
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

/// All indexes one evaluation needs, aligned with
/// [`ProgramPlan::index_specs`]. Borrows the input structure for the
/// lifetime of the evaluation so EDB indexes can point into its planes.
pub(crate) struct IndexPool<'a> {
    indexes: Vec<TupleIndex<'a>>,
}

impl<'a> IndexPool<'a> {
    /// Build the pool: prefix-keyed EDB specs borrow the relation as-is,
    /// non-prefix EDB specs sort one permuted copy, EDB guard arenas set
    /// one bit per row, and IDB indexes start empty (mirroring the empty
    /// stage Φ⁰).
    pub fn new(plan: &ProgramPlan, a: &'a Structure) -> IndexPool<'a> {
        let n = a.universe_size();
        let indexes: Vec<TupleIndex<'a>> = plan
            .index_specs
            .iter()
            .map(|s| {
                let arena = match (s.pred, s.guard) {
                    (PredRef::Edb(sym), true) => Arena::Members(BitSet::from_indices(
                        n,
                        a.relation(sym).iter().map(|t| t.get(0).index()),
                    )),
                    (PredRef::Idb(_), true) => Arena::Members(BitSet::new(n)),
                    (PredRef::Edb(sym), false) => {
                        let rel = a.relation(sym);
                        match permuted_copy(&s.key_positions, rel.store()) {
                            None => Arena::Natural(rel),
                            Some((order, store)) => Arena::Permuted { order, store },
                        }
                    }
                    (PredRef::Idb(i), false) => Arena::Idb {
                        arity: plan.idb_arities[i],
                        data: Vec::new(),
                        map: HashMap::new(),
                    },
                };
                TupleIndex {
                    key_positions: s.key_positions.clone(),
                    arena,
                }
            })
            .collect();
        IndexPool { indexes }
    }

    /// Fold one round's newly derived tuples into the IDB indexes, which
    /// then mirror `idb ∪ delta`. Call exactly once per delta round, right
    /// when the delta is merged into the accumulated relations.
    pub fn absorb(
        &mut self,
        plan: &ProgramPlan,
        delta: &[IdbRelation],
    ) -> Result<(), StructureError> {
        for (idx, spec) in plan.index_specs.iter().enumerate() {
            if let (PredRef::Idb(i), true) = (spec.pred, plan.absorbed[idx]) {
                for t in delta[i].iter() {
                    self.indexes[idx].absorb_row(t)?;
                }
            }
        }
        Ok(())
    }

    /// The index for spec `idx`.
    pub fn get(&self, idx: usize) -> &TupleIndex<'a> {
        &self.indexes[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Program;
    use hp_structures::generators::directed_path;
    use hp_structures::Vocabulary;

    fn collect(iter: ProbeIter<'_>) -> Vec<Vec<Elem>> {
        iter.map(|t| t.to_elems()).collect()
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
        let pool = IndexPool::new(&plan, &a);
        // The TC delta order probes E on its second position; edges into
        // element 2 = {(1,2)}.
        let spec = plan
            .index_specs
            .iter()
            .position(|s| matches!(s.pred, PredRef::Edb(_)) && s.key_positions == vec![1])
            .expect("E indexed on position 1");
        let hits = collect(pool.get(spec).probe(&[Elem(2)], &mut 0));
        assert_eq!(hits, vec![vec![Elem(1), Elem(2)]]);
        assert!(pool.get(spec).probe(&[Elem(0)], &mut 0).next().is_none());
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
        let pool = IndexPool::new(&plan, &a);
        let spec = plan
            .index_specs
            .iter()
            .position(|s| matches!(s.pred, PredRef::Edb(_)) && s.key_positions == vec![0])
            .expect("E indexed on position 0 (the linear chain probe)");
        assert!(matches!(pool.get(spec).arena, Arena::Natural(_)));
        let hits = collect(pool.get(spec).probe(&[Elem(2)], &mut 0));
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
        let pool = IndexPool::new(&plan, &a);
        let spec = plan
            .index_specs
            .iter()
            .position(|s| matches!(s.pred, PredRef::Edb(_)) && s.key_positions == vec![1])
            .expect("E indexed on position 1");
        // Edges into 2: (0,2), (1,2), (3,2) — ascending by the remaining
        // (source) column, exactly the relation's own row order restricted
        // to the key, with every row decoded back to (src, dst).
        let hits = collect(pool.get(spec).probe(&[Elem(2)], &mut 0));
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
        let pool = IndexPool::new(&plan, &a);
        let keys: Vec<u32> = (0..200)
            .chain([5, 5, 199, 0, 150, 150, 3])
            .chain((0..200).rev())
            .collect();
        for (spec, s) in plan.index_specs.iter().enumerate() {
            if !matches!(s.pred, PredRef::Edb(_)) {
                continue;
            }
            let mut cursor = 0;
            for &k in &keys {
                let got = collect(pool.get(spec).probe(&[Elem(k)], &mut cursor));
                assert_eq!(got, collect(pool.get(spec).probe(&[Elem(k)], &mut 0)));
            }
        }
    }

    #[test]
    fn idb_indexes_absorb_deltas_incrementally() {
        let p = Program::parse(
            "T(x,y) :- E(x,y).\nT(x,y) :- T(x,z), T(z,y).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        let plan = ProgramPlan::new(&p);
        let a = directed_path(3);
        let mut pool = IndexPool::new(&plan, &a);
        let spec = plan
            .index_specs
            .iter()
            .position(|s| matches!(s.pred, PredRef::Idb(0)))
            .expect("T is indexed (nonlinear rule)");
        assert!(pool.get(spec).probe(&[Elem(1)], &mut 0).next().is_none());
        let mut delta: Vec<IdbRelation> = vec![Relation::new(2)];
        delta[0].insert(&[Elem(0), Elem(1)]);
        pool.absorb(&plan, &delta).unwrap();
        delta[0].clear();
        delta[0].insert(&[Elem(2), Elem(1)]);
        pool.absorb(&plan, &delta).unwrap();
        let key = plan.index_specs[spec].key_positions.clone();
        let probe_key = if key == vec![0] { Elem(0) } else { Elem(1) };
        assert!(pool.get(spec).probe(&[probe_key], &mut 0).next().is_some());
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
        let mut pool = IndexPool::new(&plan, &a);
        let spec = |pred: PredRef| {
            plan.index_specs
                .iter()
                .position(|s| s.pred == pred && s.guard)
                .expect("guard spec")
        };
        let (m, r) = (spec(PredRef::Edb(1usize.into())), spec(PredRef::Idb(1)));
        let members = |pool: &IndexPool<'_>, spec: usize| -> Vec<u32> {
            (0..70u32)
                .filter(|&e| pool.get(spec).contains(Elem(e)))
                .collect()
        };
        assert_eq!(members(&pool, m), vec![0, 63, 64, 69]);
        assert!(members(&pool, r).is_empty());
        let mut delta: Vec<IdbRelation> = p.idbs().iter().map(|&(_, k)| Relation::new(k)).collect();
        delta[1].insert(&[Elem(64)]);
        pool.absorb(&plan, &delta).unwrap();
        assert_eq!(members(&pool, r), vec![64]);
    }

    #[test]
    fn capacity_error_formats_the_offending_count() {
        let e = StructureError::CapacityExceeded {
            what: "IDB index row id",
            requested: 1 << 33,
            limit: u32::MAX as usize,
        };
        let msg = e.to_string();
        assert!(msg.contains("capacity exceeded"), "{msg}");
        assert!(msg.contains("IDB index row id"), "{msg}");
    }
}
