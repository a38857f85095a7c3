//! Property-based tests for hp-structures: BitSet against a model,
//! relation/set invariants, structure operations, and format round-trips.

use proptest::prelude::*;
use std::collections::BTreeSet;

use hp_structures::{
    generators, permuted_copy, BitSet, Elem, KeyOrder, Relation, Structure, SymbolId, TupleStore,
    Vocabulary,
};

proptest! {
    /// BitSet agrees with a BTreeSet model under arbitrary op sequences.
    #[test]
    fn bitset_matches_model(ops in prop::collection::vec((0usize..3, 0usize..96), 0..200)) {
        let mut bs = BitSet::new(96);
        let mut model: BTreeSet<usize> = BTreeSet::new();
        for (op, i) in ops {
            match op {
                0 => {
                    prop_assert_eq!(bs.insert(i), model.insert(i));
                }
                1 => {
                    prop_assert_eq!(bs.remove(i), model.remove(&i));
                }
                _ => {
                    prop_assert_eq!(bs.contains(i), model.contains(&i));
                }
            }
        }
        prop_assert_eq!(bs.len(), model.len());
        prop_assert_eq!(bs.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
    }

    /// Set algebra laws on random pairs.
    #[test]
    fn bitset_algebra_laws(
        a in prop::collection::btree_set(0usize..64, 0..40),
        b in prop::collection::btree_set(0usize..64, 0..40),
    ) {
        let sa = BitSet::from_indices(64, a.iter().copied());
        let sb = BitSet::from_indices(64, b.iter().copied());
        let mut union = sa.clone();
        union.union_with(&sb);
        let mut inter = sa.clone();
        inter.intersect_with(&sb);
        let mut diff = sa.clone();
        diff.difference_with(&sb);
        prop_assert_eq!(union.len(), a.union(&b).count());
        prop_assert_eq!(inter.len(), a.intersection(&b).count());
        prop_assert_eq!(diff.len(), a.difference(&b).count());
        prop_assert_eq!(sa.is_subset(&union), true);
        prop_assert_eq!(inter.is_subset(&sa), true);
        prop_assert_eq!(sa.is_disjoint(&sb), a.is_disjoint(&b));
    }
}

/// Random tuples of a fixed arity over a small element range.
fn tuples_strategy(k: usize, count: usize) -> impl Strategy<Value = Vec<Vec<Elem>>> {
    prop::collection::vec(
        prop::collection::vec((0u32..6).prop_map(Elem), k..=k),
        0..count,
    )
}

proptest! {
    /// The columnar store agrees with a `BTreeSet<Vec<Elem>>` model on
    /// contains, length, sorted iteration order, merge, difference, and
    /// subset — across arities 0..=3 and with seals interleaved at random
    /// points so the sorted-run/pending boundary is exercised (duplicates
    /// may straddle it).
    #[test]
    fn tuple_store_matches_model(
        input in (0usize..=3).prop_flat_map(|k| (
            Just(k),
            tuples_strategy(k, 40),
            tuples_strategy(k, 40),
            prop::collection::vec(any::<bool>(), 40..41),
        ))
    ) {
        let (k, xs, ys, seals) = input;
        let mut s = TupleStore::new(k);
        let mut model: BTreeSet<Vec<Elem>> = BTreeSet::new();
        for (i, t) in xs.iter().enumerate() {
            s.push(t);
            model.insert(t.clone());
            if seals[i] {
                s.seal();
            }
        }
        s.seal();
        prop_assert_eq!(s.len(), model.len());
        let got: Vec<Vec<Elem>> = s.iter().map(|t| t.to_vec()).collect();
        let want: Vec<Vec<Elem>> = model.iter().cloned().collect();
        prop_assert_eq!(got, want, "sorted iteration order");
        for t in &ys {
            prop_assert_eq!(s.contains(t), model.contains(t));
        }

        let mut o = TupleStore::new(k);
        let mut omodel: BTreeSet<Vec<Elem>> = BTreeSet::new();
        for t in &ys {
            o.push(t);
            omodel.insert(t.clone());
        }
        o.seal();

        let mut u = s.clone();
        u.merge(&o);
        let union: Vec<Vec<Elem>> = model.union(&omodel).cloned().collect();
        prop_assert_eq!(u.iter().map(|t| t.to_vec()).collect::<Vec<_>>(), union);

        let d = s.difference(&o);
        let diff: Vec<Vec<Elem>> = model.difference(&omodel).cloned().collect();
        prop_assert_eq!(d.iter().map(|t| t.to_vec()).collect::<Vec<_>>(), diff);

        prop_assert!(s.is_subset(&u));
        prop_assert!(d.is_subset(&s));
        prop_assert_eq!(s.is_subset(&o), model.is_subset(&omodel));
        // Empty stores merge/difference as identities.
        let empty = TupleStore::new(k);
        let mut e2 = s.clone();
        e2.merge(&empty);
        prop_assert_eq!(&e2, &s);
        prop_assert_eq!(s.difference(&empty).len(), s.len());
        prop_assert!(empty.is_subset(&s));
    }

    /// Interleaved insert/remove/seal sequences on the raw store agree with
    /// the model — in particular a tuple that only exists in the *pending*
    /// delta must still be removable (`remove` seals first), and removals
    /// followed by re-pushes of the same tuple must round-trip.
    #[test]
    fn tuple_store_interleaved_ops_match_model(
        input in (1usize..=3).prop_flat_map(|k| (
            Just(k),
            prop::collection::vec(
                (0usize..4, prop::collection::vec((0u32..5).prop_map(Elem), k..=k)),
                0..160,
            ),
        ))
    ) {
        let (k, ops) = input;
        let mut s = TupleStore::new(k);
        let mut model: BTreeSet<Vec<Elem>> = BTreeSet::new();
        for (op, t) in ops {
            match op {
                0 => {
                    // Buffered insert: lands in the pending delta only.
                    s.push(&t);
                    model.insert(t);
                }
                1 => {
                    prop_assert_eq!(s.remove(&t), model.remove(&t), "remove divergence");
                }
                2 => {
                    prop_assert_eq!(s.contains(&t), model.contains(&t), "contains divergence");
                }
                _ => s.seal(),
            }
        }
        s.seal();
        prop_assert_eq!(s.len(), model.len());
        let got: Vec<Vec<Elem>> = s.iter().map(|t| t.to_vec()).collect();
        prop_assert_eq!(got, model.iter().cloned().collect::<Vec<_>>());
    }

    /// `prefix_range` and `intersection` agree with brute-force models.
    #[test]
    fn prefix_range_and_intersection_match_model(
        xs in tuples_strategy(2, 40),
        ys in tuples_strategy(2, 40),
        probe in (0u32..6).prop_map(Elem),
    ) {
        let mut s = TupleStore::new(2);
        let mut model: BTreeSet<Vec<Elem>> = BTreeSet::new();
        for t in &xs {
            s.push(t);
            model.insert(t.clone());
        }
        s.seal();
        let r = s.prefix_range(&[probe]);
        let want: Vec<Vec<Elem>> =
            model.iter().filter(|t| t[0] == probe).cloned().collect();
        let got: Vec<Vec<Elem>> = r.map(|i| s.row(i).to_vec()).collect();
        prop_assert_eq!(got, want, "prefix_range");
        prop_assert_eq!(s.prefix_range(&[]), 0..s.len());

        let mut o = TupleStore::new(2);
        let mut omodel: BTreeSet<Vec<Elem>> = BTreeSet::new();
        for t in &ys {
            o.push(t);
            omodel.insert(t.clone());
        }
        o.seal();
        let inter: Vec<Vec<Elem>> = model.intersection(&omodel).cloned().collect();
        let got: Vec<Vec<Elem>> =
            s.intersection(&o).iter().map(|t| t.to_vec()).collect();
        prop_assert_eq!(got, inter, "intersection");
    }

    /// `Relation` (the always-sealed wrapper) agrees with the model under
    /// arbitrary insert/remove/contains sequences.
    #[test]
    fn relation_ops_match_model(
        ops in prop::collection::vec((0usize..3, (0u32..5, 0u32..5)), 0..120)
    ) {
        let mut r = Relation::new(2);
        let mut model: BTreeSet<Vec<Elem>> = BTreeSet::new();
        for (op, (a, b)) in ops {
            let t = vec![Elem(a), Elem(b)];
            match op {
                0 => prop_assert_eq!(r.insert(&t), model.insert(t)),
                1 => prop_assert_eq!(r.remove(&t), model.remove(&t)),
                _ => prop_assert_eq!(r.contains(&t), model.contains(&t)),
            }
        }
        prop_assert_eq!(r.len(), model.len());
        let got: Vec<Vec<Elem>> = r.iter().map(|t| t.to_vec()).collect();
        prop_assert_eq!(got, model.iter().cloned().collect::<Vec<_>>());
    }
}

/// Element values chosen to stress the store's kernels: dense low values,
/// the extremes of the `u32` range, and isolated powers of two, so rows
/// spread sparsely over the whole value range.
fn sparse_elem() -> impl Strategy<Value = Elem> {
    prop_oneof![
        (0u32..4).prop_map(Elem),
        Just(Elem(u32::MAX)),
        Just(Elem(u32::MAX - 17)),
        (2u32..30).prop_map(|i| Elem(1u32 << i)),
    ]
}

proptest! {
    /// Sparse, high element values round-trip through the store: it
    /// agrees with the model on membership and sorted iteration.
    #[test]
    fn sparse_high_elem_values_roundtrip(
        xs in prop::collection::vec(
            (prop::collection::vec(sparse_elem(), 2..=2), any::<bool>()),
            0..60,
        ),
    ) {
        let mut s = TupleStore::new(2);
        let mut model: BTreeSet<Vec<Elem>> = BTreeSet::new();
        for (t, seal) in &xs {
            s.push(t);
            model.insert(t.clone());
            if *seal {
                s.seal();
            }
        }
        s.seal();
        prop_assert_eq!(s.len(), model.len());
        let got: Vec<Vec<Elem>> = s.iter().map(|t| t.to_vec()).collect();
        prop_assert_eq!(got, model.iter().cloned().collect::<Vec<_>>());
        for t in &model {
            prop_assert!(s.contains(t));
        }
    }

    /// Sealing a batch whose values sort *below* existing rows splices
    /// them ahead of every already-sealed row; rows read before and after
    /// any number of such seals must be identical.
    #[test]
    fn dictionary_remap_stable_across_seals(
        batches in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(sparse_elem(), 2..=2), 0..12),
            1..6,
        ),
    ) {
        let mut s = TupleStore::new(2);
        let mut model: BTreeSet<Vec<Elem>> = BTreeSet::new();
        for batch in &batches {
            for t in batch {
                s.push(t);
                model.insert(t.clone());
            }
            s.seal();
            // Everything inserted so far — including rows sealed under an
            // older, smaller run — still reads back as itself.
            prop_assert_eq!(s.len(), model.len());
            let got: Vec<Vec<Elem>> = s.iter().map(|t| t.to_vec()).collect();
            prop_assert_eq!(got, model.iter().cloned().collect::<Vec<_>>());
            for t in &model {
                prop_assert!(s.contains(t), "lost {t:?} after remap");
            }
        }
    }

    /// Arity-0 stores (nullary relations hold at most the empty tuple)
    /// agree with the model under insert/remove/seal interleavings, and
    /// the set algebra degenerates correctly.
    #[test]
    fn arity_zero_store_matches_model(ops in prop::collection::vec(0usize..4, 0..40)) {
        let empty: &[Elem] = &[];
        let mut s = TupleStore::new(0);
        let mut model: BTreeSet<Vec<Elem>> = BTreeSet::new();
        for op in ops {
            match op {
                0 => {
                    s.push(empty);
                    model.insert(Vec::new());
                }
                1 => {
                    prop_assert_eq!(s.remove(empty), model.remove(&Vec::new()));
                }
                2 => {
                    prop_assert_eq!(s.contains(empty), model.contains(&Vec::new()));
                }
                _ => s.seal(),
            }
        }
        s.seal();
        prop_assert_eq!(s.len(), model.len());
        let mut o = TupleStore::new(0);
        o.seal();
        prop_assert_eq!(s.difference(&o).len(), s.len());
        prop_assert_eq!(s.intersection(&o).len(), 0);
        let mut u = s.clone();
        u.merge(&o);
        prop_assert_eq!(u.len(), s.len());
    }

    /// Two stores driven by interleaved pushes and removes — removes
    /// landing while rows are still buffered in the pending delta — with
    /// `difference` checked against the model at random points mid-stream.
    #[test]
    fn interleaved_remove_and_difference_match_model(
        input in (1usize..=2).prop_flat_map(|k| (
            Just(k),
            prop::collection::vec(
                (0usize..5, prop::collection::vec((0u32..5).prop_map(Elem), k..=k)),
                0..120,
            ),
        )),
    ) {
        let (k, ops) = input;
        let mut s = TupleStore::new(k);
        let mut o = TupleStore::new(k);
        let mut ms: BTreeSet<Vec<Elem>> = BTreeSet::new();
        let mut mo: BTreeSet<Vec<Elem>> = BTreeSet::new();
        for (op, t) in ops {
            match op {
                0 => {
                    s.push(&t);
                    ms.insert(t);
                }
                1 => {
                    o.push(&t);
                    mo.insert(t);
                }
                2 => {
                    prop_assert_eq!(s.remove(&t), ms.remove(&t), "remove from s");
                }
                3 => {
                    prop_assert_eq!(o.remove(&t), mo.remove(&t), "remove from o");
                }
                _ => {
                    s.seal();
                    o.seal();
                    let got: Vec<Vec<Elem>> =
                        s.difference(&o).iter().map(|t| t.to_vec()).collect();
                    prop_assert_eq!(
                        got,
                        ms.difference(&mo).cloned().collect::<Vec<_>>(),
                        "mid-stream difference"
                    );
                }
            }
        }
        s.seal();
        o.seal();
        let got: Vec<Vec<Elem>> = s.difference(&o).iter().map(|t| t.to_vec()).collect();
        prop_assert_eq!(got, ms.difference(&mo).cloned().collect::<Vec<_>>());
    }
}

/// Element values for the in-place batch kernels: a band `10..20` the
/// seeded store draws from, values outside it (new to the store both
/// below and above its maximum), and the sparse extremes.
fn batch_elem() -> impl Strategy<Value = Elem> {
    prop_oneof![(0u32..30).prop_map(Elem), sparse_elem()]
}

/// The canonical store holding exactly `model`: one bulk load into an
/// empty store.
fn fresh_store(k: usize, model: &BTreeSet<Vec<Elem>>) -> TupleStore {
    let mut s = TupleStore::new(k);
    for t in model {
        s.push(t);
    }
    s.seal();
    s
}

fn hash_of(s: &TupleStore) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The in-place batch kernels — `seal`'s splice, `merge`, `subtract`
    /// and the single-row `insert`/`remove` — agree with a `BTreeSet`
    /// model at arities 0–3, over empty batches, duplicates within a
    /// batch, rows already present on insert and absent on delete, values
    /// new to the store below and above its maximum, and batches
    /// larger than the store. After every step the store is sealed and
    /// canonical: equal to, and hashing like, a fresh bulk load of the
    /// model.
    #[test]
    fn in_place_batch_kernels_match_model(
        input in (0usize..=3).prop_flat_map(|k| (
            Just(k),
            prop::collection::vec(prop::collection::vec((10u32..20).prop_map(Elem), k..=k), 0..10),
            prop::collection::vec(
                (0usize..5, prop::collection::vec(prop::collection::vec(batch_elem(), k..=k), 0..24)),
                0..12,
            ),
        )),
    ) {
        let (k, seed, ops) = input;
        let mut s = TupleStore::new(k);
        let mut model: BTreeSet<Vec<Elem>> = BTreeSet::new();
        for t in &seed {
            s.push(t);
            model.insert(t.clone());
        }
        s.seal();
        for (op, batch) in ops {
            let mut b = TupleStore::new(k);
            for t in &batch {
                b.push(t);
            }
            b.seal();
            match op {
                0 => {
                    // Raw pending rows, duplicates included, sealed in.
                    for t in &batch {
                        s.push(t);
                        model.insert(t.clone());
                    }
                    s.seal();
                }
                1 => {
                    s.merge(&b);
                    model.extend(batch.iter().cloned());
                }
                2 => {
                    let want = batch.iter().collect::<BTreeSet<_>>()
                        .into_iter()
                        .filter(|t| model.remove(*t))
                        .count();
                    prop_assert_eq!(s.subtract(&b), want, "subtract count");
                }
                3 => {
                    if let Some(t) = batch.first() {
                        prop_assert_eq!(s.insert(t), model.insert(t.clone()), "insert");
                    }
                }
                _ => {
                    if let Some(t) = batch.first() {
                        prop_assert_eq!(s.remove(t), model.remove(t), "remove");
                    }
                }
            }
            prop_assert!(s.is_sealed());
            let got: Vec<Vec<Elem>> = s.iter().map(|t| t.to_vec()).collect();
            prop_assert_eq!(got, model.iter().cloned().collect::<Vec<_>>());
            for t in &model {
                prop_assert!(s.contains(t));
            }
            let fresh = fresh_store(k, &model);
            prop_assert!(s == fresh, "not canonical after op {}", op);
            prop_assert_eq!(hash_of(&s), hash_of(&fresh));
        }
    }
}

/// A row over three columns: a lead value wide enough for runs longer
/// than the kernels' 64-value counting window, two narrow columns so
/// equal groups form. Keys draw one past each range, so some are absent.
fn wide_lead_row(extra: u32) -> impl Strategy<Value = [u32; 3]> {
    (0u32..96 + extra, 0u32..5 + extra, 0u32..5 + extra).prop_map(|(a, b, c)| [a, b, c])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `prefix_range_from` returns exactly what the unhinted
    /// `prefix_range` returns — the matching rows, or the empty range at
    /// their lower bound — at arities 1–3 and every prefix length, with
    /// hints at 0, inside the run, past its end, at the answer's own
    /// bounds, and stale from a larger key; and a cursor carried through a
    /// run of probes, in ascending or arbitrary key order, never changes
    /// an answer. The unhinted answer is checked against a row scan.
    #[test]
    fn hinted_prefix_range_matches_unhinted(
        k in 1usize..=3,
        rows in prop::collection::vec(wide_lead_row(0), 0..300),
        keys in prop::collection::vec(wide_lead_row(1), 1..16),
        inside in any::<usize>(),
        past in 1usize..50,
    ) {
        let mut s = TupleStore::new(k);
        for r in &rows {
            s.push(r[..k].iter().map(|&v| Elem(v)).collect::<Vec<_>>());
        }
        s.seal();
        let n = s.len();
        let prefixes: Vec<Vec<Elem>> = keys
            .iter()
            .flat_map(|key| (0..=k).map(move |len| key[..len].iter().map(|&v| Elem(v)).collect()))
            .collect();
        for prefix in &prefixes {
            let want = s.prefix_range(prefix);
            let len = prefix.len();
            let head = |i: usize| s.row(i).to_vec()[..len].to_vec();
            let lower = (0..n).filter(|&i| head(i) < *prefix).count();
            let hits = (0..n).filter(|&i| head(i) == *prefix).count();
            prop_assert_eq!(want.clone(), lower..lower + hits, "unhinted {:?}", prefix);
            let mut hints = vec![0, inside % (n + 1), n, n + past, want.start, want.end];
            if let Some(last) = len.checked_sub(1) {
                let mut larger = prefix.clone();
                larger[last] = Elem(larger[last].0 + 1);
                hints.push(s.prefix_range(&larger).start);
                hints.push(s.prefix_range(&larger).end);
            }
            for h in hints {
                prop_assert_eq!(
                    s.prefix_range_from(prefix, h),
                    want.clone(),
                    "prefix {:?}, hint {}", prefix, h
                );
            }
        }
        let mut sorted = prefixes.clone();
        sorted.sort();
        for order in [&prefixes, &sorted] {
            let mut cursor = 0usize;
            for prefix in order.iter() {
                let got = s.prefix_range_from(prefix, cursor);
                prop_assert_eq!(got.clone(), s.prefix_range(prefix), "swept {:?}", prefix);
                cursor = got.start;
            }
        }
    }
}

/// A strategy for small random digraph structures.
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
    /// Text-format round trip is the identity.
    #[test]
    fn text_roundtrip(s in digraph_strategy(8, 24)) {
        let back = Structure::from_text(&s.to_text()).unwrap();
        prop_assert_eq!(s, back);
    }

    /// Disjoint union: sizes and tuple counts add; each part embeds.
    #[test]
    fn disjoint_union_invariants(a in digraph_strategy(6, 12), b in digraph_strategy(6, 12)) {
        let u = a.disjoint_union(&b).unwrap();
        prop_assert_eq!(u.universe_size(), a.universe_size() + b.universe_size());
        prop_assert_eq!(u.total_tuples(), a.total_tuples() + b.total_tuples());
        // The identity embedding of a is a hom into u.
        let id: Vec<Elem> = (0..a.universe_size() as u32).map(Elem).collect();
        prop_assert!(a.is_homomorphism(&id, &u));
        // The Gaifman graph of the union has no cross edges.
        let g = u.gaifman_graph();
        for (x, y) in g.edges() {
            let cross = (x as usize) < a.universe_size() && (y as usize) >= a.universe_size();
            prop_assert!(!cross, "cross edge in disjoint union");
        }
    }

    /// Induced substructures are substructures; restriction to the full
    /// set is the identity.
    #[test]
    fn induced_invariants(s in digraph_strategy(7, 20), keep_bits in prop::collection::vec(any::<bool>(), 7)) {
        let n = s.universe_size();
        let keep = BitSet::from_indices(n, (0..n).filter(|&i| *keep_bits.get(i).unwrap_or(&false)));
        let (sub, old) = s.induced(&keep);
        prop_assert_eq!(sub.universe_size(), keep.len());
        // Every tuple of sub maps to a tuple of s under old_of_new.
        for (sym, rel) in sub.relations() {
            for t in rel.iter() {
                let mapped: Vec<Elem> = t.iter().map(|e| old[e.index()]).collect();
                prop_assert!(s.contains_tuple(sym, &mapped));
            }
        }
        let full = BitSet::full(n);
        let (same, _) = s.induced(&full);
        prop_assert_eq!(same, s);
    }

    /// hom_image produces a structure the map is a homomorphism into.
    #[test]
    fn hom_image_receives_hom(s in digraph_strategy(6, 15), target in 1usize..5, seed in any::<u64>()) {
        use rand::Rng;
        let mut r = generators::rng(seed);
        let map: Vec<Elem> = (0..s.universe_size())
            .map(|_| Elem::from(r.gen_range(0..target)))
            .collect();
        let img = s.hom_image(&map, target);
        prop_assert!(s.is_homomorphism(&map, &img));
    }

    /// Gaifman graphs of digraphs: edge count ≤ tuple count; degree bounds.
    #[test]
    fn gaifman_bounds(s in digraph_strategy(8, 30)) {
        let g = s.gaifman_graph();
        prop_assert!(g.edge_count() <= s.total_tuples());
        prop_assert_eq!(g.vertex_count(), s.universe_size());
        prop_assert_eq!(s.degree(), g.max_degree());
    }

    /// d-neighborhoods are monotone in d and bounded by reachability.
    #[test]
    fn neighborhood_monotone(s in digraph_strategy(8, 20), d in 0usize..5) {
        let g = s.gaifman_graph();
        for v in g.vertices() {
            let small = g.neighborhood(v, d);
            let big = g.neighborhood(v, d + 1);
            prop_assert!(small.is_subset(&big));
            prop_assert!(small.contains(v as usize));
        }
    }

    /// one_step_weakenings always yields proper "smaller" structures.
    #[test]
    fn weakenings_shrink(s in digraph_strategy(5, 10)) {
        for w in s.one_step_weakenings() {
            let shrunk = w.total_tuples() < s.total_tuples()
                || w.universe_size() < s.universe_size();
            prop_assert!(shrunk);
        }
    }
}

proptest! {
    /// Generators produce graphs with the advertised vertex/edge counts.
    #[test]
    fn generator_counts(n in 3usize..12) {
        prop_assert_eq!(generators::path(n).edge_count(), n - 1);
        prop_assert_eq!(generators::cycle(n).edge_count(), n);
        prop_assert_eq!(generators::clique(n).edge_count(), n * (n - 1) / 2);
        prop_assert_eq!(generators::star(n).edge_count(), n);
        prop_assert_eq!(generators::wheel(n).edge_count(), 2 * n);
        let s = generators::directed_cycle(n);
        prop_assert_eq!(s.relation(SymbolId(0)).len(), n);
    }

    /// Random trees are trees; random partial k-trees respect degeneracy.
    #[test]
    fn random_family_invariants(n in 4usize..40, seed in any::<u64>()) {
        let t = generators::random_tree(n, seed);
        prop_assert_eq!(t.edge_count(), n - 1);
        prop_assert!(t.is_connected());
        let g = generators::random_bounded_degree(n, 3, 5 * n, seed);
        prop_assert!(g.max_degree() <= 3);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Graph-algorithm consistency: bipartite ⇔ every cycle length found by
    /// girth is even; diameter bounds; subdivision multiplies girth.
    #[test]
    fn graph_algo_consistency(edges in prop::collection::vec((0u32..9, 0u32..9), 0..20)) {
        let mut g = hp_structures::Graph::new(9);
        for (u, v) in edges {
            if u != v {
                g.add_edge(u, v);
            }
        }
        // Bipartite ⇒ no odd girth.
        match (g.is_bipartite(), g.girth()) {
            (true, Some(girth)) => prop_assert_eq!(girth % 2, 0),
            (false, None) => prop_assert!(false, "non-bipartite graphs have a cycle"),
            _ => {}
        }
        // Diameter, when defined, is at most n − 1 and 0 only for trivial.
        if let Some(d) = g.diameter() {
            prop_assert!(d <= 8);
        }
        // Subdividing doubles every cycle length: girth doubles.
        if let Some(girth) = g.girth() {
            prop_assert_eq!(g.subdivided(1).girth(), Some(girth * 2));
        }
        // Bipartition, when it exists, is proper.
        if let Some(side) = g.bipartition() {
            for (u, v) in g.edges() {
                prop_assert_ne!(side[u as usize], side[v as usize]);
            }
        }
        // One subdivision always makes the graph bipartite? No — odd cycles
        // become even cycles: subdivided graphs with `times = 1` ARE
        // bipartite (every edge path has length 2).
        prop_assert!(g.subdivided(1).is_bipartite());
    }
}

/// The `{E/2, S/1}` structure over 6 elements holding exactly `model`'s
/// tuples (`model[0]` for `E`, `model[1]` for `S`).
fn structure_of(model: &[BTreeSet<Vec<Elem>>; 2]) -> Structure {
    let mut s = Structure::new(Vocabulary::from_pairs([("E", 2), ("S", 1)]), 6);
    for (sym, tuples) in model.iter().enumerate() {
        s.extend_tuples(SymbolId::from(sym), tuples).unwrap();
    }
    s
}

fn matches_model(s: &Structure, model: &[BTreeSet<Vec<Elem>>; 2]) -> bool {
    s.relations().all(|(sym, rel)| {
        rel.iter()
            .map(|t| t.to_vec())
            .eq(model[sym.index()].iter().cloned())
    })
}

proptest! {
    /// Relations are copy-on-write: every mutating path on a clone leaves
    /// the original bit-identical to its model, and the clone agrees with
    /// its own model. A relation the clone never wrote stays shared.
    #[test]
    fn clone_mutations_leave_the_original_intact(
        seed in prop::collection::vec((0usize..2, 0u32..6, 0u32..6), 0..24),
        ops in prop::collection::vec(
            (0usize..4, 0usize..2, prop::collection::vec((0u32..6, 0u32..6), 1..4)),
            1..12,
        ),
    ) {
        let mut model: [BTreeSet<Vec<Elem>>; 2] = Default::default();
        for &(sym, a, b) in &seed {
            let t = [Elem(a), Elem(b)];
            model[sym].insert(t[..2 - sym].to_vec());
        }
        let original = structure_of(&model);
        let bytes = original.heap_bytes();
        let mut copy = original.clone();
        let mut copy_model = model.clone();
        let mut written = [false; 2];
        for (op, sym, pairs) in ops {
            let id = SymbolId::from(sym);
            let tuples: Vec<Vec<Elem>> =
                pairs.iter().map(|&(a, b)| [Elem(a), Elem(b)][..2 - sym].to_vec()).collect();
            written[sym] = true;
            match op {
                0 => {
                    let fresh = copy_model[sym].insert(tuples[0].clone());
                    prop_assert_eq!(copy.add_tuple(id, &tuples[0]).unwrap(), fresh);
                }
                1 => {
                    let present = copy_model[sym].remove(&tuples[0]);
                    prop_assert_eq!(copy.remove_tuple(id, &tuples[0]), present);
                }
                2 => {
                    let before = copy_model[sym].len();
                    copy_model[sym].extend(tuples.iter().cloned());
                    let added = copy.extend_tuples(id, &tuples).unwrap();
                    prop_assert_eq!(added, copy_model[sym].len() - before);
                }
                _ => {
                    let mut batch = TupleStore::new(2 - sym);
                    for t in &tuples {
                        batch.push(t);
                    }
                    batch.seal();
                    let before = copy_model[sym].len();
                    for t in &tuples {
                        copy_model[sym].remove(t);
                    }
                    prop_assert_eq!(copy.remove_tuples(id, &batch), before - copy_model[sym].len());
                }
            }
            prop_assert!(matches_model(&original, &model), "original changed");
        }
        prop_assert!(matches_model(&copy, &copy_model));
        prop_assert_eq!(&original, &structure_of(&model));
        prop_assert_eq!(original.heap_bytes(), bytes);
        for (sym, was_written) in written.into_iter().enumerate() {
            let id = SymbolId::from(sym);
            if !was_written {
                prop_assert!(std::ptr::eq(original.relation(id), copy.relation(id)));
            }
        }
    }
}

/// One write to a [`Relation`], or a read that builds a permuted copy or
/// the membership bitmap.
#[derive(Clone, Debug)]
enum CopyStep {
    Insert(Vec<Elem>),
    Remove(Vec<Elem>),
    Extend(Vec<Vec<Elem>>),
    Merge(Vec<Vec<Elem>>),
    RemoveTuples(Vec<Vec<Elem>>),
    Clear,
    /// Probe on the key columns set in the mask's low `arity` bits.
    Probe(u8),
    /// Test membership of a unary relation.
    Holds(Elem),
}

/// Rows of `arity`: dense values, for the counting-sort build, and a
/// sparse one, for the sorting build and a many-word bitmap.
fn copy_rows(arity: usize) -> impl Strategy<Value = Vec<Vec<Elem>>> {
    let elem = prop_oneof![(0u32..6).prop_map(Elem), Just(Elem(5000))];
    prop::collection::vec(prop::collection::vec(elem, arity..=arity), 0..12)
}

fn copy_step(arity: usize) -> impl Strategy<Value = CopyStep> {
    let one = move |r: Vec<Vec<Elem>>| r.into_iter().next().unwrap_or(vec![Elem(1); arity]);
    let masks = 1u8..1 << arity;
    // The read that builds a derived structure: a bitmap at arity 1, whose
    // only key is the prefix, else a copy.
    let build = if arity == 1 {
        prop_oneof![(0u32..8).prop_map(Elem), Just(Elem(5001))]
            .prop_map(CopyStep::Holds)
            .boxed()
    } else {
        masks.clone().prop_map(CopyStep::Probe).boxed()
    };
    prop_oneof![
        copy_rows(arity).prop_map(move |r| CopyStep::Insert(one(r))),
        copy_rows(arity).prop_map(move |r| CopyStep::Remove(one(r))),
        copy_rows(arity).prop_map(CopyStep::Extend),
        copy_rows(arity).prop_map(CopyStep::Merge),
        copy_rows(arity).prop_map(CopyStep::RemoveTuples),
        Just(CopyStep::Clear),
        masks.prop_map(CopyStep::Probe),
        build,
    ]
}

fn sealed(arity: usize, rows: &[Vec<Elem>]) -> TupleStore {
    let mut s = TupleStore::new(arity);
    for t in rows {
        s.push(t);
    }
    s.seal();
    s
}

/// Every built copy of `r` is a fresh permute-and-seal of its store,
/// plane capacity included, with at most one copy per column order.
fn copies_are_fresh(r: &Relation) -> Result<(), TestCaseError> {
    let mut orders: Vec<&KeyOrder> = Vec::new();
    for (order, copy) in r.copies() {
        let fresh = order.permute(r.store());
        prop_assert_eq!(copy, &fresh);
        prop_assert_eq!(copy.heap_bytes(), fresh.heap_bytes());
        prop_assert!(!orders.contains(&order), "two copies of {:?}", order);
        orders.push(order);
    }
    Ok(())
}

/// The heap bytes `r` holds beyond its store and copies: its bitmap's.
fn bitmap_bytes(r: &Relation) -> usize {
    let copies: usize = r.copies().map(|(_, c)| c.heap_bytes()).sum();
    r.heap_bytes() - r.store().heap_bytes() - copies
}

proptest! {
    /// Random sequences of every `&mut` mutator over a unary or a ternary
    /// relation, with copies on random key orders and (at arity 1) the
    /// membership bitmap built at random points: the relation matches a
    /// model, every built copy follows it exactly, and a built bitmap
    /// answers like the rows and holds the bytes of a fresh build.
    #[test]
    fn relation_copies_follow_every_mutator(
        input in prop_oneof![Just(1usize), Just(3)]
            .prop_flat_map(|arity| (Just(arity), prop::collection::vec(copy_step(arity), 0..40)))
    ) {
        let (arity, steps) = input;
        let mut r = Relation::new(arity);
        let mut model: BTreeSet<Vec<Elem>> = BTreeSet::new();
        let mut built = false;
        for step in steps {
            match step {
                CopyStep::Insert(t) => prop_assert_eq!(r.insert(&t), model.insert(t)),
                CopyStep::Remove(t) => prop_assert_eq!(r.remove(&t), model.remove(&t)),
                CopyStep::Extend(rows) => {
                    let added = rows.iter().filter(|t| !model.contains(*t)).collect::<BTreeSet<_>>().len();
                    prop_assert_eq!(r.extend_tuples(rows.iter()), added);
                    model.extend(rows);
                }
                CopyStep::Merge(rows) => {
                    r.merge_store(&sealed(arity, &rows));
                    model.extend(rows);
                }
                CopyStep::RemoveTuples(rows) => {
                    r.remove_tuples(&sealed(arity, &rows));
                    rows.iter().for_each(|t| { model.remove(t); });
                }
                CopyStep::Clear => {
                    r.clear();
                    model.clear();
                    built = false;
                }
                CopyStep::Probe(mask) => {
                    // A prefix key reads the store itself; any other key
                    // the copy sorted on it.
                    let key: Vec<usize> = (0..arity).filter(|&i| mask >> i & 1 == 1).collect();
                    let (store, pos_of) = r.copy(&key);
                    if key.iter().copied().eq(0..key.len()) {
                        prop_assert!(std::ptr::eq(store, r.store()) && pos_of.is_none());
                    } else {
                        let (order, want) = permuted_copy(&key, r.store());
                        prop_assert_eq!(store, &want);
                        prop_assert_eq!(pos_of, Some(order.pos_of()));
                    }
                }
                CopyStep::Holds(e) => {
                    prop_assert_eq!(r.holds(e), model.contains(&vec![e]));
                    built = true;
                }
            }
            let got: Vec<Vec<Elem>> = r.iter().map(|t| t.to_vec()).collect();
            prop_assert_eq!(got, model.iter().cloned().collect::<Vec<_>>());
            copies_are_fresh(&r)?;
            if built {
                let top = model.last().map_or(0, |t| t[0].0);
                for e in (0..=top + 1).map(Elem) {
                    prop_assert_eq!(r.holds(e), r.contains(&[e]), "{:?}", e);
                }
                let mut fresh = Relation::new(1);
                fresh.merge_store(r.store());
                fresh.holds(Elem(0));
                prop_assert_eq!(bitmap_bytes(&r), bitmap_bytes(&fresh));
            } else {
                prop_assert_eq!(bitmap_bytes(&r), 0);
            }
        }
    }
}

/// The unary batch a dense-seal case draws: `pending ≥ 2` values below
/// `span`, the largest (`span − 1`) present, with `span` placed against the
/// seal's density rule (`span ≤ 32 · pending + 64` marks a bitmap, a wider
/// range sorts): `side` 0 is well inside it with many duplicates, 1
/// anywhere inside, 2 on the boundary, 3 one past it, 4 far outside, and 5
/// reaches the top of the `u32` values.
fn unary_batch(pending: usize, side: usize, draws: &[u32]) -> Vec<u32> {
    let rule = 32 * pending + 64;
    let d = draws[0] as usize;
    let span = match side {
        0 => 1 + d % (2 * pending),
        1 => 1 + d % rule,
        2 => rule,
        3 => rule + 1,
        4 => rule + 1 + d % 100_000,
        _ => u32::MAX as usize + 1,
    };
    let mut batch = vec![(span - 1) as u32];
    batch.extend(
        draws[1..pending]
            .iter()
            .map(|&x| (x as usize % span) as u32),
    );
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A unary seal on either side of the density rule, and on its
    /// boundary, into an empty store or a sealed run (the splice path):
    /// the run is the batch and the old rows sorted and deduplicated, and
    /// it equals, hashes like and holds the heap bytes of a fresh build
    /// from the same rows.
    #[test]
    fn unary_seal_matches_sort_dedup_on_both_sides_of_the_density_rule(
        input in (2usize..150, 0usize..6, any::<bool>()).prop_flat_map(
            |(pending, side, into_run)| (
                Just((pending, side, into_run)),
                prop::collection::vec(any::<u32>(), pending..=pending),
                prop::collection::vec(any::<u32>(), 1..40),
            ),
        ),
    ) {
        let ((pending, side, into_run), draws, run) = input;
        let batch = unary_batch(pending, side, &draws);
        let mut s = TupleStore::new(1);
        let mut want: Vec<u32> = Vec::new();
        if into_run {
            // Old rows inside the batch's range and anywhere else.
            let top = *batch.iter().max().expect("non-empty batch");
            for &x in &run {
                let v = if x % 2 == 0 { x % top.saturating_add(1) } else { x };
                s.push(&[Elem(v)]);
                want.push(v);
            }
            s.seal();
        }
        for &v in &batch {
            s.push(&[Elem(v)]);
        }
        want.extend(&batch);
        s.seal();
        want.sort_unstable();
        want.dedup();
        prop_assert!(s.is_sealed());
        let got: Vec<u32> = s.iter().map(|t| t.get(0).0).collect();
        prop_assert_eq!(&got, &want);
        let model: BTreeSet<Vec<Elem>> = want.iter().map(|&v| vec![Elem(v)]).collect();
        let fresh = fresh_store(1, &model);
        prop_assert!(s == fresh, "not canonical");
        prop_assert_eq!(hash_of(&s), hash_of(&fresh));
        prop_assert_eq!(s.heap_bytes(), fresh.heap_bytes());
    }

    /// Unary `difference` and `intersection` — which walk the other
    /// store when the probing side holds at least an eighth as many rows —
    /// equal the galloping kernels' result, read through the same rows
    /// widened to arity 2 (where every size gallops), and the model.
    #[test]
    fn dense_unary_filters_match_galloping(
        a in prop::collection::vec(0u32..400, 0..120),
        b in prop::collection::vec(0u32..400, 0..900),
    ) {
        let unary = |xs: &[u32]| {
            let mut s = TupleStore::new(1);
            xs.iter().for_each(|&x| s.push(&[Elem(x)]));
            s.seal();
            s
        };
        let widened = |xs: &[u32]| {
            let mut s = TupleStore::new(2);
            xs.iter().for_each(|&x| s.push(&[Elem(x), Elem(0)]));
            s.seal();
            s
        };
        let lead = |s: &TupleStore| s.iter().map(|t| t.get(0).0).collect::<Vec<u32>>();
        let (ma, mb): (BTreeSet<u32>, BTreeSet<u32>) =
            (a.iter().copied().collect(), b.iter().copied().collect());
        let (ua, ub, wa, wb) = (unary(&a), unary(&b), widened(&a), widened(&b));
        for (x, y, wx, wy, mx, my) in [
            (&ua, &ub, &wa, &wb, &ma, &mb),
            (&ub, &ua, &wb, &wa, &mb, &ma),
        ] {
            let d = x.difference(y);
            prop_assert_eq!(lead(&d), lead(&wx.difference(wy)));
            prop_assert_eq!(lead(&d), mx.difference(my).copied().collect::<Vec<_>>());
            let i = x.intersection(y);
            prop_assert_eq!(lead(&i), lead(&wx.intersection(wy)));
            prop_assert_eq!(lead(&i), mx.intersection(my).copied().collect::<Vec<_>>());
            prop_assert!(d.is_sealed() && i.is_sealed());
            prop_assert_eq!(d.len() + i.len(), x.len());
        }
    }
}

/// Deterministic xorshift64* stream: the multi-page test draws its
/// thousands of rows from a seed rather than from proptest vectors.
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: u32) -> u32 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) as u32 % n
    }
}

/// A row of arity `k` for a store of about `n` rows: `groups` lead values
/// (a few, so equal groups span pages, or many), the later columns wide
/// enough that about half of all rows are absent.
fn draw_row(d: &mut Draws, k: usize, n: usize, groups: u32) -> Vec<Elem> {
    let rest = (2 * n as u32 / groups).max(2);
    match k {
        1 => vec![Elem(d.below(2 * n as u32))],
        2 => vec![Elem(d.below(groups)), Elem(d.below(rest))],
        _ => vec![
            Elem(d.below(groups)),
            Elem(d.below(8)),
            Elem(d.below(rest / 8 + 1)),
        ],
    }
}

/// `count` model rows from `lo` on, wrapping: a contiguous stretch of the
/// run, so removing it empties pages.
fn stretch(model: &BTreeSet<Vec<Elem>>, lo: usize, count: usize) -> Vec<Vec<Elem>> {
    model
        .iter()
        .cycle()
        .skip(lo % model.len().max(1))
        .take(count.min(model.len()))
        .cloned()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Stores of 2–4 × `PAGE` rows at arities 1–3 against a `BTreeSet`
    /// model, under bursts of single-row inserts and removes that split
    /// full pages and join emptied ones, `push` + `seal`, `merge` and
    /// `subtract` of batches, and the read kernels (`difference`,
    /// `intersection`, `is_subset`, `contains`, `prefix_range_from` with
    /// hints around page boundaries and equal groups that span pages).
    /// After every step the store equals, and hashes like, a bulk load of
    /// the model, and so does a store grown from the model row by row in
    /// random order. A `Relation` takes the same writes: its permuted copy
    /// (arities 2–3) equals a fresh build, and its membership bitmap
    /// (arity 1) answers like the rows and holds a fresh build's bytes.
    #[test]
    fn multi_page_stores_match_model(
        k in 1usize..=3,
        pages in 2usize..=4,
        few_groups in any::<bool>(),
        seed in any::<u64>(),
        ops in prop::collection::vec(0usize..8, 4..10),
    ) {
        let n = pages * hp_structures::PAGE;
        let groups = if few_groups { 3 } else { (n / 64) as u32 };
        let mut d = Draws(seed | 1);
        let mut model: BTreeSet<Vec<Elem>> = BTreeSet::new();
        while model.len() < n {
            model.insert(draw_row(&mut d, k, n, groups));
        }
        let mut s = fresh_store(k, &model);
        let mut r = Relation::new(k);
        r.extend_tuples(model.iter());
        if k == 1 {
            r.holds(Elem(0));
        } else {
            r.copy(&[k - 1]);
        }
        let batch = |d: &mut Draws, model: &BTreeSet<Vec<Elem>>, count: usize| {
            // Half fresh draws, half rows of one stretch of the run.
            let mut rows: Vec<Vec<Elem>> = (0..count / 2).map(|_| draw_row(d, k, n, groups)).collect();
            rows.extend(stretch(model, d.below(n as u32) as usize, count - count / 2));
            rows
        };
        for op in ops {
            match op {
                0 => {
                    // A burst of new rows around one stretch: its page
                    // overflows and splits.
                    let near = stretch(&model, d.below(n as u32) as usize, 1);
                    for _ in 0..600 {
                        let mut t = near.first().cloned().unwrap_or_else(|| draw_row(&mut d, k, n, groups));
                        t[k - 1] = Elem(t[k - 1].0 + d.below(40));
                        let fresh = model.insert(t.clone());
                        prop_assert_eq!(s.insert(&t), fresh, "insert {:?}", t);
                        prop_assert_eq!(r.insert(&t), fresh);
                    }
                }
                1 => {
                    // Remove most of one page's worth, one row at a time,
                    // with absent rows between: pages empty and join.
                    let gone = stretch(&model, d.below(n as u32) as usize, hp_structures::PAGE * 9 / 10);
                    for t in gone {
                        let present = model.remove(&t);
                        prop_assert_eq!(s.remove(&t), present, "remove {:?}", t);
                        prop_assert_eq!(r.remove(&t), present);
                        let absent = draw_row(&mut d, k, n, groups);
                        let present = model.remove(&absent);
                        prop_assert_eq!(s.remove(&absent), present);
                        prop_assert_eq!(r.remove(&absent), present);
                    }
                }
                2 => {
                    let rows = batch(&mut d, &model, 3000);
                    rows.iter().for_each(|t| s.push(t));
                    let added = rows.iter().filter(|t| !model.contains(*t)).collect::<BTreeSet<_>>().len();
                    s.seal();
                    prop_assert_eq!(r.extend_tuples(rows.iter()), added);
                    model.extend(rows);
                }
                3 => {
                    let b = sealed(k, &batch(&mut d, &model, 5000));
                    s.merge(&b);
                    r.merge_store(&b);
                    model.extend(b.iter().map(|t| t.to_vec()));
                }
                4 => {
                    let b = sealed(k, &batch(&mut d, &model, 2 * hp_structures::PAGE));
                    let want = b.iter().filter(|t| model.remove(&t.to_vec())).count();
                    prop_assert_eq!(s.subtract(&b), want);
                    prop_assert_eq!(r.remove_tuples(&b), want);
                }
                5 => {
                    let b = sealed(k, &batch(&mut d, &model, 4000));
                    let rows = |x: &TupleStore| x.iter().map(|t| t.to_vec()).collect::<Vec<_>>();
                    let inb: BTreeSet<Vec<Elem>> = rows(&b).into_iter().collect();
                    prop_assert_eq!(rows(&b.difference(&s)), inb.difference(&model).cloned().collect::<Vec<_>>());
                    prop_assert_eq!(rows(&s.difference(&b)), model.difference(&inb).cloned().collect::<Vec<_>>());
                    let both: Vec<Vec<Elem>> = inb.intersection(&model).cloned().collect();
                    prop_assert_eq!(rows(&b.intersection(&s)), both.clone());
                    prop_assert_eq!(rows(&s.intersection(&b)), both.clone());
                    prop_assert_eq!(b.is_subset(&s), both.len() == inb.len());
                    prop_assert!(sealed(k, &both).is_subset(&s));
                    prop_assert!(!s.is_subset(&sealed(k, &both)) || both.len() == model.len());
                    for t in &inb {
                        prop_assert_eq!(s.contains(t), model.contains(t));
                    }
                }
                6 => {
                    // Probes on rows around every multiple of `PAGE` (the
                    // boundaries of a bulk load, shifted by the writes).
                    let all: Vec<&Vec<Elem>> = model.iter().collect();
                    for b in (1..=all.len() / hp_structures::PAGE).map(|i| i * hp_structures::PAGE) {
                        for i in b.saturating_sub(2)..(b + 2).min(all.len()) {
                            for len in 0..=k {
                                let prefix = &all[i][..len];
                                let lower = all.iter().filter(|t| &t[..len] < prefix).count();
                                let hits = all.iter().filter(|t| &t[..len] == prefix).count();
                                let want = lower..lower + hits;
                                let near = d.below(64) as usize;
                                for h in [0, i, b, b - 1, want.start, want.end, b + near, b - near, all.len(), d.below(n as u32) as usize] {
                                    prop_assert_eq!(s.prefix_range_from(prefix, h), want.clone(), "{:?} from {}", prefix, h);
                                }
                                // Cursors left by a probe of a nearby row,
                                // before or after the prefix's range.
                                let rows: Vec<Vec<Elem>> = all[want].iter().map(|t| t.to_vec()).collect();
                                for j in [i.saturating_sub(near), b - 1, b, b + near].map(|j| j.min(all.len() - 1)) {
                                    let mut cursor = hp_structures::Cursor::default();
                                    prop_assert_eq!(s.prefix_rows(all[j], &mut cursor).count(), 1);
                                    let got = s.prefix_rows(prefix, &mut cursor);
                                    prop_assert_eq!(got.len(), hits);
                                    let got: Vec<Vec<Elem>> = got.map(|t| t.to_vec()).collect();
                                    prop_assert_eq!(&got, &rows, "{:?} after {:?}", prefix, all[j]);
                                    let back: Vec<Vec<Elem>> = s.prefix_rows(prefix, &mut cursor).rev().map(|t| t.to_vec()).collect();
                                    prop_assert_eq!(back, rows.iter().rev().cloned().collect::<Vec<_>>());
                                }
                            }
                        }
                    }
                }
                _ => {
                    let lo = d.below(n as u32) as usize % (model.len() + 1);
                    let hi = lo + (d.below(3 * hp_structures::PAGE as u32) as usize).min(model.len() - lo);
                    let got: Vec<Vec<Elem>> = s.rows_in(lo..hi).map(|t| t.to_vec()).collect();
                    let want: Vec<Vec<Elem>> = model.iter().skip(lo).take(hi - lo).cloned().collect();
                    prop_assert_eq!(got, want.clone());
                    let back: Vec<Vec<Elem>> = s.rows_in(lo..hi).rev().map(|t| t.to_vec()).collect();
                    prop_assert_eq!(back, want.into_iter().rev().collect::<Vec<_>>());
                    for i in [lo, hi.saturating_sub(1)].into_iter().filter(|&i| i < model.len()) {
                        prop_assert_eq!(s.row(i).to_vec(), model.iter().nth(i).cloned().unwrap());
                    }
                }
            }
            prop_assert!(s.is_sealed());
            let got: Vec<Vec<Elem>> = s.iter().map(|t| t.to_vec()).collect();
            prop_assert_eq!(&got, &model.iter().cloned().collect::<Vec<_>>(), "after op {}", op);
            let fresh = fresh_store(k, &model);
            prop_assert!(s == fresh, "not canonical after op {}", op);
            prop_assert_eq!(hash_of(&s), hash_of(&fresh));
            prop_assert!(r.store() == &fresh);
            for (order, copy) in r.copies() {
                let built = order.permute(r.store());
                prop_assert!(copy == &built, "copy on {:?}", order);
            }
            if k == 1 {
                let top = model.last().map_or(0, |t| t[0].0);
                for e in (0..=top + 1).map(Elem) {
                    prop_assert_eq!(r.holds(e), model.contains(&vec![e]), "{:?}", e);
                }
                let mut built = Relation::new(1);
                built.merge_store(&fresh);
                built.holds(Elem(0));
                prop_assert_eq!(bitmap_bytes(&r), bitmap_bytes(&built));
            }
        }
        // A store grown row by row, in random order, is the bulk load.
        let mut shuffled: Vec<&Vec<Elem>> = model.iter().collect();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, d.below(i as u32 + 1) as usize);
        }
        let mut grown = TupleStore::new(k);
        for t in shuffled {
            prop_assert!(grown.insert(t));
        }
        let fresh = fresh_store(k, &model);
        prop_assert!(grown == fresh);
        prop_assert_eq!(hash_of(&grown), hash_of(&fresh));
        prop_assert_eq!(grown.len(), model.len());
    }
}
