//! Finite σ-structures.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use crate::elem::Elem;
use crate::error::StructureError;
use crate::row::{Row, RowRef};
use crate::store::TupleStore;
use crate::vocab::{SymbolId, Vocabulary};

/// The interpretation of one relation symbol: a set of tuples.
///
/// Backed by a columnar [`TupleStore`] (one plane of element values per
/// column), kept **sealed** — sorted lexicographically and
/// deduplicated — after every `&mut self` method returns. Relation equality
/// is therefore structural equality, membership is a chunked galloping
/// search, and iteration hands out zero-copy [`RowRef`] handles in
/// lexicographic order.
///
/// For bulk loads use [`extend_tuples`](Relation::extend_tuples), which
/// buffers into the store's pending delta and seals once: one sort, then
/// the sorted rows are cut into full pages (into an empty relation) or
/// spliced page by page, instead of n single-row
/// [`insert`](Relation::insert)s, each a search and a shift of one page.
///
/// A relation also owns its **permuted copies** ([`copy`](Relation::copy)),
/// which probes on non-prefix key columns read: at most one per
/// [`KeyOrder`], built on the first probe that needs it (through a `&self`
/// that threads may share), then kept in step by every `&mut` mutator at
/// `O(batch)` cost. A unary relation likewise owns a **membership bitmap**
/// ([`holds`](Relation::holds)), which negated guards test. A clone carries
/// both, so relations shared copy-on-write share them. Equality, hashing
/// and `Debug` ignore them; [`heap_bytes`](Relation::heap_bytes) counts
/// them.
#[derive(Clone)]
pub struct Relation {
    store: TupleStore,
    copies: Copies,
    members: Members,
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            store: TupleStore::new(arity),
            copies: Copies::default(),
            members: Members::default(),
        }
    }

    /// Whether the unary relation holds `(e)`: one bit test of its
    /// membership bitmap, built on the first call (through a `&self` that
    /// threads may share) with one bit per value up to the largest member.
    #[inline]
    pub fn holds(&self, e: Elem) -> bool {
        let v = e.index();
        let words = self.members.get(&self.store);
        words.get(v / 64).is_some_and(|w| w >> (v % 64) & 1 == 1)
    }

    /// The rows sorted with the columns `key_positions` (ascending) first,
    /// and the map to read them in original column order: the store and
    /// `None` for a prefix `0..k`, else a permuted copy built on first use.
    pub fn copy(&self, key_positions: &[usize]) -> (&TupleStore, Option<&[usize]>) {
        if key_positions.iter().copied().eq(0..key_positions.len()) {
            return (&self.store, None);
        }
        let c = self.copies.get(key_positions, &self.store);
        (&c.rows, Some(&c.order.pos_of))
    }

    /// The permuted copies built so far, with their column orders.
    pub fn copies(&self) -> impl Iterator<Item = (&KeyOrder, &TupleStore)> {
        self.copies.iter()
    }

    /// Drop every permuted copy and the membership bitmap, keeping the
    /// rows.
    pub fn drop_copies(&mut self) {
        self.copies = Copies::default();
        self.members = Members::default();
    }

    /// True when a mutation has a copy or a bitmap to keep in step.
    fn has_derived(&self) -> bool {
        self.copies.0.get().is_some() || self.members.0.get().is_some()
    }

    /// The backing columnar store (always sealed).
    #[inline]
    pub fn store(&self) -> &TupleStore {
        &self.store
    }

    /// The backing store, without the copies and bitmap built over it.
    pub fn into_store(self) -> TupleStore {
        self.store
    }

    /// The arity of the relation.
    #[inline]
    pub fn arity(&self) -> usize {
        self.store.arity()
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the relation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Membership test (chunked galloping search).
    pub fn contains<R: Row>(&self, t: R) -> bool {
        self.store.contains(t)
    }

    /// Insert a tuple, keeping sort order. Returns true if newly inserted.
    /// The row goes into the store and, permuted, into every built copy by
    /// [`TupleStore::insert`], each a shift within one page; a built bitmap
    /// sets its bit.
    pub fn insert<R: Row>(&mut self, t: R) -> bool {
        let added = self.store.insert(&t);
        if added {
            self.copies
                .each(|order, rows| rows.insert(order.permuted(&t)));
            self.members.follow(std::iter::once_with(|| t.at(0)), true);
        }
        added
    }

    /// Bulk-insert: buffer every tuple into the pending delta, then sort,
    /// dedup, and splice them into the sorted run **once**, in place
    /// ([`TupleStore::seal`]). Returns the number of newly inserted
    /// tuples. This is the `O(m · log m + m · log n)` path (plus one shift
    /// of each touched page) generators, builders and update batches use in
    /// place of m single-row inserts.
    pub fn extend_tuples<I, T>(&mut self, tuples: I) -> usize
    where
        I: IntoIterator<Item = T>,
        T: Row,
    {
        if self.has_derived() {
            let mut batch = TupleStore::new(self.arity());
            tuples.into_iter().for_each(|t| batch.push(t));
            batch.seal();
            return self.merge_store(&batch);
        }
        let before = self.store.len();
        for t in tuples {
            self.store.push(t);
        }
        self.store.seal();
        self.store.len() - before
    }

    /// Set-union `other` into `self`, spliced into the sorted run in place
    /// ([`TupleStore::merge`]). Returns the number of newly inserted
    /// tuples.
    pub fn merge(&mut self, other: &Relation) -> usize {
        self.merge_store(other.store())
    }

    /// Set-union a sealed [`TupleStore`] into `self` (the evaluator's
    /// delta-merge). Returns the number of newly inserted tuples.
    pub fn merge_store(&mut self, other: &TupleStore) -> usize {
        let before = self.store.len();
        self.store.merge(other);
        self.copies.follow(other, true);
        self.members.follow(other.iter().map(|t| t.get(0)), true);
        self.store.len() - before
    }

    /// Tuples of `self` absent from `other`, as a sealed store (the
    /// evaluator's new-facts filter).
    pub fn difference(&self, other: &Relation) -> TupleStore {
        self.store.difference(other.store())
    }

    /// Remove a tuple. Returns true if it was present. The row leaves the
    /// store and every built copy by [`TupleStore::remove`]; a built bitmap
    /// clears its bit.
    pub fn remove<R: Row>(&mut self, t: R) -> bool {
        let removed = self.store.remove(&t);
        if removed {
            self.copies
                .each(|order, rows| rows.remove(order.permuted(&t)));
            self.members.follow(std::iter::once_with(|| t.at(0)), false);
        }
        removed
    }

    /// Bulk-remove: drop every tuple of the sealed store `other` in place,
    /// one galloping search per tuple and one compaction of the run
    /// ([`TupleStore::subtract`]). Returns the number of tuples actually
    /// removed; an empty batch costs nothing.
    pub fn remove_tuples(&mut self, other: &TupleStore) -> usize {
        self.copies.follow(other, false);
        self.members.follow(other.iter().map(|t| t.get(0)), false);
        self.store.subtract(other)
    }

    /// Drop all tuples (keeping the arena allocation), every copy and the
    /// bitmap.
    pub fn clear(&mut self) {
        self.store.clear();
        self.drop_copies();
    }

    /// Iterate over the tuples in lexicographic order (zero-copy rows).
    pub fn iter(&self) -> crate::store::Rows<'_> {
        self.store.iter()
    }

    /// The `i`-th tuple in lexicographic order.
    pub fn tuple(&self, i: usize) -> RowRef<'_> {
        self.store.row(i)
    }

    /// True when every tuple of `self` is a tuple of `other`.
    pub fn is_subset(&self, other: &Relation) -> bool {
        self.store.is_subset(other.store())
    }

    /// Heap bytes held by the backing arena, the permuted copies (see
    /// [`TupleStore::heap_bytes`]) and the membership bitmap.
    pub fn heap_bytes(&self) -> usize {
        let copies: usize = self.copies().map(|(_, c)| c.heap_bytes()).sum();
        self.store.heap_bytes() + copies + self.members.heap_bytes()
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.store == other.store
    }
}

impl Eq for Relation {}

impl Hash for Relation {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.store.hash(state);
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = RowRef<'a>;
    type IntoIter = crate::store::Rows<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.store, f)
    }
}

/// A column order that moves an index's key columns to the front, the
/// remaining columns following in ascending order, so that a probe on the
/// key is a [`TupleStore::prefix_range`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyOrder {
    /// `perm[k]` = original column stored at permuted position `k`.
    perm: Vec<usize>,
    /// `pos_of[i]` = permuted position of original column `i`.
    pos_of: Vec<usize>,
}

impl KeyOrder {
    /// `pos_of[i]`: the permuted position of original column `i`.
    pub fn pos_of(&self) -> &[usize] {
        &self.pos_of
    }

    /// The row `t` with its columns in this order.
    fn permuted(&self, t: impl Row) -> Vec<Elem> {
        self.perm.iter().map(|&i| t.at(i)).collect()
    }

    /// The rows of `rows` with their columns in this order, sealed.
    pub fn permute(&self, rows: &TupleStore) -> TupleStore {
        let mut out = TupleStore::with_capacity(self.perm.len(), rows.len());
        for t in rows.iter() {
            out.push_with(|buf| buf.extend(self.perm.iter().map(|&i| t.get(i))));
        }
        out.seal();
        out
    }
}

/// The sorted copy of `rows` with the columns `key_positions` (ascending,
/// not the prefix `0..k`) moved to the front, and the order that built it.
/// A one-column key over dense values is counting-sorted, without
/// [`KeyOrder::permute`]'s row arena and sort scratch.
pub fn permuted_copy(key_positions: &[usize], rows: &TupleStore) -> (KeyOrder, TupleStore) {
    let arity = rows.arity();
    let mut perm = key_positions.to_vec();
    perm.extend((0..arity).filter(|i| !key_positions.contains(i)));
    let mut pos_of = vec![0usize; arity];
    for (k, &i) in perm.iter().enumerate() {
        pos_of[i] = k;
    }
    let order = KeyOrder { perm, pos_of };
    let store = (key_positions.len() == 1)
        .then(|| rows.lead_sorted(&order.perm))
        .flatten()
        .unwrap_or_else(|| order.permute(rows));
    (order, store)
}

/// One built copy, and the slot of the relation's next one.
#[derive(Clone)]
struct Built {
    order: KeyOrder,
    rows: TupleStore,
    next: Copies,
}

/// A relation's built copies: a chain of write-once slots. A reader walks
/// it to the copy of its order, or builds that copy in the first empty
/// slot; a racing reader of another order waits for the slot, then walks
/// on. A clone carries every built copy.
#[derive(Clone, Default)]
struct Copies(OnceLock<Box<Built>>);

impl Copies {
    /// The copy of `rows` keyed on `key_positions` (not a prefix), built
    /// on first use.
    fn get(&self, key_positions: &[usize], rows: &TupleStore) -> &Built {
        let mut slot = self;
        loop {
            let c = slot.0.get_or_init(|| {
                let (order, rows) = permuted_copy(key_positions, rows);
                let next = Copies::default();
                Box::new(Built { order, rows, next })
            });
            let (key, rest) = c.order.perm.split_at(key_positions.len());
            if key == key_positions && rest.is_sorted() {
                return c;
            }
            slot = &c.next;
        }
    }

    /// Every built copy, in build order.
    fn iter(&self) -> impl Iterator<Item = (&KeyOrder, &TupleStore)> {
        std::iter::successors(self.0.get(), |c| c.next.0.get()).map(|c| (&c.order, &c.rows))
    }

    /// Apply `write` to every built copy, with its column order.
    fn each<T>(&mut self, mut write: impl FnMut(&KeyOrder, &mut TupleStore) -> T) {
        let mut slot = self;
        while let Some(c) = slot.0.get_mut() {
            write(&c.order, &mut c.rows);
            slot = &mut c.next;
        }
    }

    /// Fold a sealed batch of the relation into every built copy: the
    /// permuted rows are [merged](TupleStore::merge) when `add`, else
    /// [subtracted](TupleStore::subtract), in place.
    fn follow(&mut self, batch: &TupleStore, add: bool) {
        if batch.is_empty() {
            return;
        }
        self.each(|order, rows| {
            let batch = order.permute(batch);
            if add {
                rows.merge(&batch);
            } else {
                rows.subtract(&batch);
            }
        });
    }
}

/// A unary relation's membership bitmap, in a write-once slot: bit `v % 64`
/// of word `v / 64` is set iff `(v)` is a member, and the words end at the
/// largest member's, as a fresh build from the rows would allocate them.
#[derive(Clone, Default)]
struct Members(OnceLock<Vec<u64>>);

impl Members {
    /// The bitmap of the unary `rows`, built on first use.
    fn get(&self, rows: &TupleStore) -> &[u64] {
        self.0.get_or_init(|| {
            assert_eq!(rows.arity(), 1, "a membership bitmap of a unary relation");
            let mut words = Vec::new();
            Members::mark(&mut words, rows.iter().map(|t| t.get(0)));
            words
        })
    }

    /// Set the bits of the ascending `values`, growing `words` to the
    /// largest of them.
    fn mark(words: &mut Vec<u64>, values: impl DoubleEndedIterator<Item = Elem> + Clone) {
        let Some(top) = values.clone().next_back() else {
            return;
        };
        let len = (top.index() / 64 + 1).max(words.len());
        words.reserve_exact(len - words.len());
        words.resize(len, 0);
        for v in values.map(Elem::index) {
            words[v / 64] |= 1 << (v % 64);
        }
    }

    /// Fold the ascending values of a write to the relation into a built
    /// bitmap: set their bits when `add`, else clear them and drop the
    /// trailing empty words. Reads nothing when no bitmap is built.
    fn follow(&mut self, values: impl DoubleEndedIterator<Item = Elem> + Clone, add: bool) {
        let Some(words) = self.0.get_mut() else {
            return;
        };
        if add {
            return Members::mark(words, values);
        }
        for v in values.map(Elem::index) {
            if let Some(w) = words.get_mut(v / 64) {
                *w &= !(1 << (v % 64));
            }
        }
        let len = words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        if len < words.len() {
            words.truncate(len);
            words.shrink_to_fit();
        }
    }

    fn heap_bytes(&self) -> usize {
        self.0.get().map_or(0, |w| w.capacity() * 8)
    }
}

/// A finite relational structure **A** = (A, R₁^A, …, R_m^A).
///
/// The universe is `{0, …, n-1}` (elements are [`Elem`] indices); the
/// interpretation of each symbol of the [`Vocabulary`] is a [`Relation`].
///
/// Structural equality (`==`) is equality of vocabulary, universe size, and
/// relations — i.e. equality *as labelled structures*, not isomorphism
/// (isomorphism lives in `hp-hom`).
///
/// Relations are **copy-on-write**: each sits behind its own `Arc`, so
/// `clone` costs one refcount bump per relation, and a mutation copies
/// only the relation it touches (and only while that relation is still
/// shared with another clone).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Structure {
    vocab: Vocabulary,
    universe: usize,
    relations: Vec<Arc<Relation>>,
}

impl Structure {
    /// The empty-relations structure over `universe` elements.
    pub fn new(vocab: Vocabulary, universe: usize) -> Self {
        let relations = vocab
            .iter()
            .map(|(_, s)| Arc::new(Relation::new(s.arity)))
            .collect();
        Structure {
            vocab,
            universe,
            relations,
        }
    }

    /// Start building a structure with bulk tuple loading.
    pub fn builder(vocab: Vocabulary, universe: usize) -> StructureBuilder {
        let buffers = vocab.iter().map(|_| (Vec::new(), 0)).collect();
        StructureBuilder {
            vocab,
            universe,
            buffers,
        }
    }

    /// The structure's vocabulary.
    #[inline]
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Size of the universe.
    #[inline]
    pub fn universe_size(&self) -> usize {
        self.universe
    }

    /// Iterate over the universe.
    pub fn elements(&self) -> impl Iterator<Item = Elem> {
        (0..self.universe as u32).map(Elem)
    }

    /// The interpretation of a symbol.
    #[inline]
    pub fn relation(&self, id: SymbolId) -> &Relation {
        &self.relations[id.index()]
    }

    /// Iterate over `(id, relation)` pairs.
    pub fn relations(&self) -> impl Iterator<Item = (SymbolId, &Relation)> {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, r)| (SymbolId::from(i), &**r))
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// Heap bytes held by all relation arenas and their permuted copies
    /// (see [`Relation::heap_bytes`]); the universe itself stores nothing.
    /// Arenas this structure shares with its clones are counted in full.
    pub fn heap_bytes(&self) -> usize {
        self.relations.iter().map(|r| r.heap_bytes()).sum()
    }

    /// True when `self` and `other` hold `sym`'s relation in one shared
    /// allocation — a pointer comparison, so content equality without a
    /// scan. Copy-on-write keeps a relation shared between a structure
    /// and its clones until one of them writes it.
    pub fn shares_relation(&self, other: &Structure, sym: SymbolId) -> bool {
        Arc::ptr_eq(&self.relations[sym.index()], &other.relations[sym.index()])
    }

    /// Share `other`'s allocation for every relation whose content equals
    /// this structure's, so later [`shares_relation`](Self::shares_relation)
    /// tests succeed without a scan. Both structures must have the same
    /// vocabulary. Returns the number of relations adopted.
    pub fn adopt_equal_relations(&mut self, other: &Structure) -> usize {
        debug_assert_eq!(self.vocab, other.vocab);
        let mut adopted = 0;
        for (mine, theirs) in self.relations.iter_mut().zip(&other.relations) {
            if !Arc::ptr_eq(mine, theirs) && mine == theirs {
                *mine = theirs.clone();
                adopted += 1;
            }
        }
        adopted
    }

    /// Add `extra` fresh elements to the universe (they take the next
    /// ids). Every existing tuple stays in range, so no relation is
    /// touched or copied.
    pub fn grow_universe(&mut self, extra: usize) {
        self.universe += extra;
    }

    /// Add a tuple to a relation, validating arity and range.
    pub fn add_tuple<R: Row>(&mut self, sym: SymbolId, t: R) -> Result<bool, StructureError> {
        let arity = self.vocab.arity(sym);
        if t.width() != arity {
            return Err(StructureError::ArityMismatch {
                symbol: self.vocab.symbol(sym).name.clone(),
                expected: arity,
                got: t.width(),
            });
        }
        for c in 0..arity {
            let e = t.at(c);
            if e.index() >= self.universe {
                return Err(StructureError::ElementOutOfRange {
                    element: e.0,
                    universe: self.universe,
                });
            }
        }
        Ok(self.relation_mut(sym).insert(t))
    }

    /// Convenience: add a tuple given a raw symbol index and raw element ids.
    pub fn add_tuple_ids(&mut self, sym: usize, t: &[u32]) -> Result<bool, StructureError> {
        let elems: Vec<Elem> = t.iter().map(|&v| Elem(v)).collect();
        self.add_tuple(SymbolId::from(sym), &elems)
    }

    /// Bulk-add tuples to one relation, validating each, with a single
    /// sort+dedup+splice at the end ([`Relation::extend_tuples`]). Returns
    /// the number of newly inserted tuples. On error nothing is inserted,
    /// and an empty batch leaves a shared relation shared.
    pub fn extend_tuples<I, T>(&mut self, sym: SymbolId, tuples: I) -> Result<usize, StructureError>
    where
        I: IntoIterator<Item = T>,
        T: Row,
    {
        let arity = self.vocab.arity(sym);
        let mut buf: Vec<Elem> = Vec::new();
        let mut count = 0usize;
        for t in tuples {
            if t.width() != arity {
                return Err(StructureError::ArityMismatch {
                    symbol: self.vocab.symbol(sym).name.clone(),
                    expected: arity,
                    got: t.width(),
                });
            }
            for c in 0..arity {
                let e = t.at(c);
                if e.index() >= self.universe {
                    return Err(StructureError::ElementOutOfRange {
                        element: e.0,
                        universe: self.universe,
                    });
                }
            }
            t.append_to(&mut buf);
            count += 1;
        }
        if count == 0 {
            return Ok(0);
        }
        let rel = self.relation_mut(sym);
        if arity == 0 {
            // Nullary tuples leave `buf` empty; `chunks_exact(0)` is
            // undefined, so feed the counted empty rows directly.
            return Ok(rel.extend_tuples((0..count).map(|_| [].as_slice())));
        }
        Ok(rel.extend_tuples(buf.chunks_exact(arity)))
    }

    /// Remove a tuple from a relation. Returns true if it was present.
    pub fn remove_tuple<R: Row>(&mut self, sym: SymbolId, t: R) -> bool {
        self.relation_mut(sym).remove(t)
    }

    /// Bulk-remove a sealed batch of tuples from one relation (the EDB
    /// delete path of incremental maintenance). Returns the number of
    /// tuples actually removed. An empty batch leaves a shared relation
    /// shared.
    pub fn remove_tuples(&mut self, sym: SymbolId, tuples: &TupleStore) -> usize {
        debug_assert_eq!(tuples.arity(), self.vocab.arity(sym));
        if tuples.is_empty() {
            return 0;
        }
        self.relation_mut(sym).remove_tuples(tuples)
    }

    /// The relation of `sym`, unshared first: the one mutation path, so a
    /// write copies a relation only while a clone still shares it.
    fn relation_mut(&mut self, sym: SymbolId) -> &mut Relation {
        Arc::make_mut(&mut self.relations[sym.index()])
    }

    /// Membership test.
    pub fn contains_tuple<R: Row>(&self, sym: SymbolId, t: R) -> bool {
        self.relations[sym.index()].contains(t)
    }

    /// True when `self` is a **substructure** of `other` *as labelled
    /// structures*: same vocabulary, `|A| ≤ |B|` with universe `0..n`
    /// identified with the first `n` elements of `other`, and every relation
    /// of `self` a subset of the corresponding relation of `other`.
    ///
    /// Substructures in the paper's sense (§2.1) are *not necessarily
    /// induced*; this check matches that definition for identity embeddings.
    pub fn is_substructure_of(&self, other: &Structure) -> bool {
        self.vocab == other.vocab
            && self.universe <= other.universe
            && self
                .relations
                .iter()
                .zip(&other.relations)
                .all(|(a, b)| a.is_subset(b))
    }

    /// True when `self` is a **proper** substructure of `other` (substructure
    /// and not equal).
    pub fn is_proper_substructure_of(&self, other: &Structure) -> bool {
        self.is_substructure_of(other) && self != other
    }
}

impl fmt::Debug for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Structure(|A|={}, {:?})", self.universe, self.vocab)?;
        for (id, r) in self.relations() {
            writeln!(f, "  {} = {:?}", self.vocab.symbol(id).name, r)?;
        }
        Ok(())
    }
}

/// Bulk builder for [`Structure`] — semantically identical to mutating a
/// fresh structure tuple-by-tuple, but tuples are buffered per symbol and
/// sealed with **one** sort+dedup+merge per relation in
/// [`build`](StructureBuilder::build), so an
/// n-tuple load is O(n log n) instead of the O(n²) of n sorted inserts.
pub struct StructureBuilder {
    vocab: Vocabulary,
    universe: usize,
    /// Per-symbol flat tuple buffers plus explicit row counts (the count
    /// cannot be recovered from buffer length for nullary symbols).
    buffers: Vec<(Vec<Elem>, usize)>,
}

impl StructureBuilder {
    /// Add a tuple by raw ids (panics on arity/range errors — builder misuse
    /// is a programming error).
    pub fn tuple(mut self, sym: usize, t: &[u32]) -> Self {
        let arity = self.vocab.arity(SymbolId::from(sym));
        assert_eq!(
            t.len(),
            arity,
            "invalid tuple in StructureBuilder: arity mismatch for symbol {sym}"
        );
        for &v in t {
            assert!(
                (v as usize) < self.universe,
                "invalid tuple in StructureBuilder: element {v} out of range"
            );
        }
        let (buf, rows) = &mut self.buffers[sym];
        buf.extend(t.iter().map(|&v| Elem(v)));
        *rows += 1;
        self
    }

    /// Finish building: seal each buffered relation in one batch.
    pub fn build(self) -> Structure {
        let mut inner = Structure::new(self.vocab, self.universe);
        for (sym, (buf, rows)) in self.buffers.into_iter().enumerate() {
            let arity = inner.vocab.arity(SymbolId::from(sym));
            let rel = inner.relation_mut(SymbolId::from(sym));
            if arity == 0 {
                rel.extend_tuples((0..rows).map(|_| [].as_slice()));
            } else {
                rel.extend_tuples(buf.chunks_exact(arity));
            }
        }
        inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digraph3() -> Structure {
        Structure::builder(Vocabulary::digraph(), 3)
            .tuple(0, &[0, 1])
            .tuple(0, &[1, 2])
            .build()
    }

    #[test]
    fn add_and_contains() {
        let s = digraph3();
        assert!(s.contains_tuple(SymbolId(0), &[Elem(0), Elem(1)]));
        assert!(!s.contains_tuple(SymbolId(0), &[Elem(1), Elem(0)]));
        assert_eq!(s.total_tuples(), 2);
    }

    #[test]
    fn duplicate_tuples_are_deduped() {
        let mut s = digraph3();
        assert!(!s.add_tuple_ids(0, &[0, 1]).unwrap());
        assert_eq!(s.total_tuples(), 2);
    }

    #[test]
    fn arity_and_range_validation() {
        let mut s = digraph3();
        assert!(matches!(
            s.add_tuple_ids(0, &[0]),
            Err(StructureError::ArityMismatch { .. })
        ));
        assert!(matches!(
            s.add_tuple_ids(0, &[0, 9]),
            Err(StructureError::ElementOutOfRange { .. })
        ));
    }

    #[test]
    fn remove_tuple_works() {
        let mut s = digraph3();
        assert!(s.remove_tuple(SymbolId(0), &[Elem(0), Elem(1)]));
        assert!(!s.remove_tuple(SymbolId(0), &[Elem(0), Elem(1)]));
        assert_eq!(s.total_tuples(), 1);
    }

    #[test]
    fn substructure_relation() {
        let big = digraph3();
        let mut small = Structure::new(Vocabulary::digraph(), 3);
        small.add_tuple_ids(0, &[0, 1]).unwrap();
        assert!(small.is_substructure_of(&big));
        assert!(small.is_proper_substructure_of(&big));
        assert!(big.is_substructure_of(&big));
        assert!(!big.is_proper_substructure_of(&big));
        assert!(!big.is_substructure_of(&small));
    }

    #[test]
    fn relation_subset_merge_scan() {
        let mut a = Relation::new(1);
        let mut b = Relation::new(1);
        for i in [1u32, 3, 5] {
            a.insert(&[Elem(i)]);
        }
        for i in 0u32..7 {
            b.insert(&[Elem(i)]);
        }
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
    }

    #[test]
    fn tuples_iterate_sorted() {
        let mut r = Relation::new(2);
        r.insert(&[Elem(2), Elem(0)]);
        r.insert(&[Elem(0), Elem(1)]);
        r.insert(&[Elem(0), Elem(0)]);
        let v: Vec<Vec<u32>> = r.iter().map(|t| t.iter().map(|e| e.0).collect()).collect();
        assert_eq!(v, vec![vec![0, 0], vec![0, 1], vec![2, 0]]);
    }

    fn edges(pairs: &[(u32, u32)]) -> Relation {
        let mut r = Relation::new(2);
        r.extend_tuples(pairs.iter().map(|&(a, b)| vec![Elem(a), Elem(b)]));
        r
    }

    fn copy_rows(r: &Relation) -> Vec<TupleStore> {
        r.copies().map(|(_, c)| c.clone()).collect()
    }

    #[test]
    fn a_clone_carries_copies_and_writes_stay_its_own() {
        let mut a = edges(&[(0, 1), (1, 2), (2, 0)]);
        a.copy(&[1]);
        let before = copy_rows(&a);
        let mut b = a.clone();
        assert_eq!(copy_rows(&b), before);
        b.insert(&[Elem(3), Elem(1)]);
        b.remove(&[Elem(0), Elem(1)]);
        assert_eq!(copy_rows(&a), before, "the original's copy is untouched");
        assert_eq!(a.copy(&[1]).0, &before[0]);
        let (copy, pos_of) = b.copy(&[1]);
        assert_eq!(pos_of, Some(&[1, 0][..]));
        let rows: Vec<Vec<u32>> = copy.iter().map(|t| vec![t.get(0).0, t.get(1).0]).collect();
        assert_eq!(rows, vec![vec![0, 2], vec![1, 3], vec![2, 1]]);
        a.clear();
        assert_eq!(
            copy_rows(&b)[0].len(),
            3,
            "nor does the original's write reach the clone"
        );
        // Likewise the membership bitmap of a unary relation.
        let mut u = members(&[1, 70]);
        assert!(u.holds(Elem(70)));
        let mut v = u.clone();
        assert_eq!(
            v.heap_bytes(),
            u.heap_bytes(),
            "the clone carries the bitmap"
        );
        v.insert(&[Elem(2)]);
        v.remove(&[Elem(70)]);
        assert!(!u.holds(Elem(2)) && u.holds(Elem(70)));
        assert!(v.holds(Elem(2)) && !v.holds(Elem(70)));
        u.clear();
        assert!(!u.holds(Elem(1)) && v.holds(Elem(1)));
    }

    fn members(values: &[u32]) -> Relation {
        let mut r = Relation::new(1);
        r.extend_tuples(values.iter().map(|&v| vec![Elem(v)]));
        r
    }

    #[test]
    fn holds_reads_one_bit_per_member() {
        // Members 0, 63, 64 and 69 of 70 values span two words; a value
        // above the largest member reads false.
        let mut r = members(&[64, 0, 69, 63]);
        let held = |r: &Relation| {
            (0..140u32)
                .filter(|&e| r.holds(Elem(e)))
                .collect::<Vec<_>>()
        };
        assert_eq!(held(&r), vec![0, 63, 64, 69]);
        assert_eq!(r.heap_bytes() - r.store().heap_bytes(), 16);
        r.insert(&[Elem(130)]);
        r.remove(&[Elem(63)]);
        assert_eq!(held(&r), vec![0, 64, 69, 130]);
        assert_eq!(r.heap_bytes() - r.store().heap_bytes(), 24);
        // Removing the largest members drops the words past the new one.
        r.remove_tuples(members(&[69, 130]).store());
        assert_eq!(held(&r), vec![0, 64]);
        assert_eq!(r.heap_bytes() - r.store().heap_bytes(), 16);
        r.drop_copies();
        assert_eq!(r.heap_bytes(), r.store().heap_bytes());
    }

    #[test]
    fn copies_are_invisible_to_equality_and_hashing() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |r: &Relation| {
            let mut h = DefaultHasher::new();
            r.hash(&mut h);
            h.finish()
        };
        let a = edges(&[(0, 1), (1, 2), (2, 0)]);
        let b = edges(&[(2, 0), (1, 2), (0, 1)]);
        b.copy(&[1]);
        assert_eq!(copy_rows(&a).len(), 0);
        assert_eq!(copy_rows(&b).len(), 1);
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(
            b.heap_bytes() > a.heap_bytes(),
            "the copy's bytes are counted"
        );
        let (u, v) = (members(&[3, 1, 200]), members(&[200, 3, 1]));
        assert!(v.holds(Elem(200)));
        assert_eq!(u, v);
        assert_eq!(hash(&u), hash(&v));
        assert_eq!(format!("{u:?}"), format!("{v:?}"));
        assert_eq!(
            v.heap_bytes() - u.heap_bytes(),
            32,
            "the bitmap's four words are counted"
        );
    }

    #[test]
    fn structural_equality() {
        assert_eq!(digraph3(), digraph3());
        let mut other = digraph3();
        other.add_tuple_ids(0, &[2, 0]).unwrap();
        assert_ne!(digraph3(), other);
    }
}
