//! Column-plane tuple storage: element values in a structure-of-arrays
//! layout with chunked galloping kernels.
//!
//! [`TupleStore`] is the single physical representation behind
//! [`Relation`](crate::Relation) and the evaluator's IDB relations. Tuples
//! live in a **structure-of-arrays** layout:
//!
//! * **column planes** — one `Vec<Elem>` per column, all of length `rows`,
//!   holding the **sorted run**: rows in lexicographic order, deduplicated,
//!   addressed by row index across the planes. A cell is the element value
//!   itself: an [`Elem`] is already a dense `u32` index into the universe
//!   `{0, …, n−1}`, so there is nothing to encode or decode;
//! * a **pending delta** — rows appended in arrival order, possibly
//!   duplicated, batching inserts so a bulk load costs one sort + merge
//!   instead of `n` shifting array inserts.
//!
//! [`seal`](TupleStore::seal) folds the pending delta into the sorted run:
//! it orders the pending rows and **splices** them into the existing run in
//! place. At arity 1 the values are universe indices, so a dense batch is
//! marked in a [`BitSet`] over `0..=max` and read back in order; a
//! sparse unary batch sorts its `u32` values directly, arity 2 sorts packed
//! `u64` pairs, and wider rows sort an index. Every read (`contains`,
//! `iter`, equality, hashing) is defined over the *sealed* content;
//! `contains` additionally scans the pending region so unsealed stores
//! still answer membership correctly.
//!
//! Batch updates of a sealed run are in place and cost `O(m · log n)` for
//! `m` rows plus one shift of the tail: the splice behind `seal` and
//! [`merge`](TupleStore::merge) gallops each new row's position, grows
//! every plane by exactly the rows added and fills it from the back;
//! [`subtract`](TupleStore::subtract) gallops each doomed row, compacts
//! the run forward once and shrinks the planes. On these batch paths plane
//! capacity tracks length, so the planes' share of
//! [`heap_bytes`](TupleStore::heap_bytes) matches a fresh build. The
//! single-row [`insert`](TupleStore::insert)/[`remove`](TupleStore::remove)
//! use `Vec::insert`/`Vec::remove` instead, whose geometric capacity keeps
//! row-by-row builds amortised.
//!
//! The search kernels run on the **lead plane first**: a binary search —
//! or, from a cursor, an exponential gallop — narrows to a window of at
//! most 64 values, which a branch-free `(v < target) as usize` counting
//! loop — a shape LLVM autovectorizes — resolves; equal-lead groups then
//! narrow column by column the same way, and each group's end gallops
//! from its start. The batch kernels ([`merge`](TupleStore::merge),
//! [`subtract`](TupleStore::subtract),
//! [`difference`](TupleStore::difference),
//! [`intersection`](TupleStore::intersection)) gallop from an advancing
//! cursor; `contains` and [`prefix_range`](TupleStore::prefix_range)
//! search the whole run, and
//! [`prefix_range_from`](TupleStore::prefix_range_from) gallops from a
//! caller's cursor when it is valid. Cross-store operations read the
//! other store's planes as they are: two stores holding the same rows hold
//! the same planes.
//!
//! Rows are addressed by index and handed out as [`RowRef`] — a `Copy`
//! `(store, row)` handle that reads the planes on access (see
//! [`crate::row`]). Arity-0 relations (nullary predicates) are supported:
//! the planes stay empty and only the explicit row counters distinguish
//! `{}` from `{()}`.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::bitset::BitSet;
use crate::elem::Elem;
use crate::row::{Row, RowRef};

/// Window size below which galloping searches switch from binary halving
/// to a branch-free counting scan over the plane (autovectorizable).
const CHUNK: usize = 64;

/// First index in `w` where `below` turns false (`w` is partitioned:
/// `below` holds on a prefix): binary halving to a `CHUNK`-wide window,
/// then a branch-free count of the values still below.
#[inline]
fn search<T: Copy>(w: &[T], below: impl Fn(T) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, w.len());
    while hi - lo > CHUNK {
        let mid = lo + (hi - lo) / 2;
        if below(w[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo + w[lo..hi].iter().map(|&v| below(v) as usize).sum::<usize>()
}

/// Like [`search`], but with an exponential gallop from the front, so the
/// cost is logarithmic in the answer rather than in `w.len()`: cheap when
/// the answer is near, as for an advancing cursor or a short equal group.
#[inline]
fn gallop<T: Copy>(w: &[T], below: impl Fn(T) -> bool) -> usize {
    if w.is_empty() || !below(w[0]) {
        return 0;
    }
    let mut lo = 0usize; // invariant: below(w[lo])
    let mut step = 1usize;
    while lo + step < w.len() && below(w[lo + step]) {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step).min(w.len());
    lo + 1 + search(&w[lo + 1..hi], below)
}

/// Bits a unary seal may spend on its bitmap beyond the density rule,
/// so tiny batches over a small range need not sort.
const DENSE_SLACK: usize = 64;

/// The unary seal's density rule: a batch of `pending` values whose range
/// `0..=max` holds `span = max + 1` values is marked in a bitmap when
/// `span ≤ 32 · pending` plus [`DENSE_SLACK`]. The bitmap's `span / 8`
/// bytes then never exceed the `4 · pending`-byte arena it orders (beyond
/// the slack's 8 bytes): the seal's scratch is at most the arena's own
/// size, where the arity-2 path's packed copy is twice it. A sparser batch
/// sorts in place.
fn dense_range(span: usize, pending: usize) -> bool {
    span <= pending.saturating_mul(32).saturating_add(DENSE_SLACK)
}

/// Sort and dedup the unary values `v` (non-empty) in place. A dense batch
/// ([`dense_range`]) is marked in a [`BitSet`] and read back in order into
/// `v`'s own allocation, `O(len + span / 64)`; a sparse one is sorted.
fn sort_dedup_unary(v: &mut Vec<Elem>) {
    let span = v.iter().map(|e| e.index() + 1).max().unwrap_or(0);
    if dense_range(span, v.len()) {
        let mut bits = BitSet::new(span);
        for e in v.iter() {
            bits.insert(e.index());
        }
        v.clear();
        v.extend(bits.iter().map(|i| Elem(i as u32)));
    } else {
        v.sort_unstable();
        v.dedup();
    }
}

/// Sort row indices `idx` by the rows they address in the arity-`k`
/// row-major arena `rows`, then drop indices of duplicate rows. Generic
/// over the index type so `seal` can use `u32` scratch in the common case
/// and `usize` when the pending count exceeds `u32::MAX`.
fn sort_dedup_rows<I: Copy>(
    mut idx: Vec<I>,
    to_usize: impl Fn(I) -> usize,
    rows: &[Elem],
    k: usize,
) -> Vec<I> {
    idx.sort_unstable_by(|&i, &j| {
        let (i, j) = (to_usize(i), to_usize(j));
        rows[i * k..(i + 1) * k].cmp(&rows[j * k..(j + 1) * k])
    });
    idx.dedup_by(|a, b| {
        let (a, b) = (to_usize(*a), to_usize(*b));
        rows[a * k..(a + 1) * k] == rows[b * k..(b + 1) * k]
    });
    idx
}

/// A set of same-arity tuples in column-plane layout.
///
/// See the module docs for the layout. Invariants:
///
/// * every plane has length `rows`;
/// * rows `0..rows` are lexicographically sorted and distinct;
/// * `pending` holds `pending_rows * arity` elements in insertion order,
///   possibly duplicated, until [`seal`](TupleStore::seal).
///
/// Row *counts* are `usize` throughout; only external consumers that
/// compress row ids to `u32` (the evaluator's hash indexes) need a
/// capacity check.
///
/// Equality and hashing require a sealed store (checked with
/// `debug_assert`); a sealed store's planes are a canonical form of its
/// rows, so equality compares planes. [`Relation`](crate::Relation)
/// maintains "sealed after every `&mut` method returns" so its comparisons
/// are always canonical.
#[derive(Clone)]
pub struct TupleStore {
    arity: usize,
    /// Number of rows in the sorted run.
    rows: usize,
    /// One plane of element values per column, each of length `rows`.
    planes: Vec<Vec<Elem>>,
    /// Number of rows in the pending delta.
    pending_rows: usize,
    /// Pending arena: `pending_rows * arity` elements, insertion order.
    pending: Vec<Elem>,
}

impl TupleStore {
    /// An empty store of the given arity.
    pub fn new(arity: usize) -> Self {
        Self::with_capacity(arity, 0)
    }

    /// An empty store with pending-delta capacity reserved for `rows`
    /// buffered rows (the planes size themselves exactly at seal).
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        TupleStore {
            arity,
            rows: 0,
            planes: vec![Vec::new(); arity],
            pending_rows: 0,
            pending: Vec::with_capacity(rows * arity),
        }
    }

    /// The arity (number of column planes) of the store.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows in the sorted run. Call [`seal`](TupleStore::seal)
    /// first for an exact count when pending rows exist.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when both the sorted run and the pending delta are empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 && self.pending_rows == 0
    }

    /// Number of buffered (not yet sealed) rows, duplicates included.
    #[inline]
    pub fn pending_len(&self) -> usize {
        self.pending_rows
    }

    /// True when there is no pending delta.
    #[inline]
    pub fn is_sealed(&self) -> bool {
        self.pending_rows == 0
    }

    /// The `i`-th row of the sorted run, as a zero-copy handle.
    #[inline]
    pub fn row(&self, i: usize) -> RowRef<'_> {
        debug_assert!(i < self.rows);
        RowRef {
            store: self,
            row: i,
        }
    }

    /// The cell at column `c`, row `i` of the sorted run.
    #[inline]
    pub(crate) fn cell(&self, c: usize, i: usize) -> Elem {
        self.planes[c][i]
    }

    /// Borrow the cell at column `c`, row `i` of the sorted run.
    #[inline]
    pub(crate) fn cell_ref(&self, c: usize, i: usize) -> &Elem {
        &self.planes[c][i]
    }

    /// Iterate the sorted run in lexicographic order (zero-copy handles).
    pub fn iter(&self) -> Rows<'_> {
        Rows {
            store: self,
            front: 0,
            back: self.rows,
        }
    }

    /// Append a row to the pending delta (no ordering or dedup work).
    #[inline]
    pub fn push<R: Row>(&mut self, t: R) {
        debug_assert_eq!(t.width(), self.arity);
        t.append_to(&mut self.pending);
        self.pending_rows += 1;
    }

    /// Append one pending row by writing its elements straight into the
    /// pending arena — the zero-copy emit path for join outputs. `fill`
    /// must append exactly `arity` elements.
    #[inline]
    pub fn push_with(&mut self, fill: impl FnOnce(&mut Vec<Elem>)) {
        #[cfg(debug_assertions)]
        let before = self.pending.len();
        fill(&mut self.pending);
        #[cfg(debug_assertions)]
        debug_assert_eq!(self.pending.len() - before, self.arity);
        self.pending_rows += 1;
    }

    /// Fold the pending delta into the sorted run: sort and dedup the
    /// pending rows, then splice them into the existing run **in place** —
    /// each new row's position is galloped, every plane grows by exactly
    /// the number of new rows and is filled from the back — so a batch of
    /// `m` rows costs `O(m · log n)` searches plus one shift of the tail
    /// behind its first row, with no full-size temporary. Into an empty
    /// store the sorted batch simply becomes the run. Idempotent; a no-op
    /// when sealed.
    ///
    /// Arity 1 orders the values without comparing them when they are
    /// dense: a batch whose largest value is below 32 times its pending
    /// count (plus a 64-value slack) is marked in a bitmap over `0..=max`
    /// and read back in order, in linear time and with scratch no larger
    /// than the pending arena; a sparser batch sorts. Arity 2 sorts packed
    /// `u64` pairs; wider rows sort through a `Vec<u32>` of row indices to
    /// halve the scratch footprint of the common case — a pending count
    /// that does not fit in `u32` (≥ 2³² buffered rows) automatically takes
    /// an equivalent `usize`-indexed path instead of silently truncating.
    pub fn seal(&mut self) {
        self.seal_impl(self.pending_rows > u32::MAX as usize);
    }

    /// The seal body, with the index-width decision made explicit so the
    /// wide path is unit-testable on small data.
    fn seal_impl(&mut self, wide: bool) {
        if self.pending_rows == 0 {
            return;
        }
        let k = self.arity;
        if k == 0 {
            // The only possible row is `()`; sealing collapses to "present".
            self.rows = 1;
            self.pending_rows = 0;
            self.pending.clear();
            return;
        }
        let mut pend = std::mem::take(&mut self.pending);
        let prows = self.pending_rows;
        self.pending_rows = 0;
        debug_assert_eq!(pend.len(), prows * k);
        let batch = match k {
            1 => {
                sort_dedup_unary(&mut pend);
                vec![pend]
            }
            2 => {
                let mut packed: Vec<u64> = pend
                    .chunks_exact(2)
                    .map(|r| (u64::from(r[0].0) << 32) | u64::from(r[1].0))
                    .collect();
                packed.sort_unstable();
                packed.dedup();
                let p0 = packed.iter().map(|&p| Elem((p >> 32) as u32)).collect();
                let p1 = packed.iter().map(|&p| Elem(p as u32)).collect();
                vec![p0, p1]
            }
            _ => {
                let idx: Vec<usize> = if wide {
                    sort_dedup_rows((0..prows).collect(), |i| i, &pend, k)
                } else {
                    sort_dedup_rows(
                        (0..prows as u32).collect::<Vec<u32>>(),
                        |i| i as usize,
                        &pend,
                        k,
                    )
                    .into_iter()
                    .map(|i| i as usize)
                    .collect()
                };
                (0..k)
                    .map(|c| idx.iter().map(|&i| pend[i * k + c]).collect())
                    .collect()
            }
        };
        if self.rows == 0 {
            // The batch becomes the run; at arity 1 it is the pending
            // arena itself, whose capacity the dedup left behind.
            self.rows = batch[0].len();
            self.planes = batch;
            self.planes.iter_mut().for_each(Vec::shrink_to_fit);
        } else {
            self.splice(&batch);
        }
    }

    /// Splice sorted, distinct rows into the sorted run, **in place**.
    /// `batch` holds one plane per column. One galloping pass finds each
    /// row's position and skips rows already present; then each plane
    /// grows by exactly the number of new rows (so a batch-maintained
    /// store's capacity matches a fresh build's) and is filled from the
    /// back, every run of old rows moved once.
    fn splice(&mut self, batch: &[Vec<Elem>]) {
        debug_assert_eq!(batch.len(), self.arity);
        // (run position, batch row) of every row to add, ascending.
        let mut at: Vec<(usize, usize)> = Vec::new();
        let mut from = 0usize;
        for (j, _) in batch[0].iter().enumerate() {
            let (pos, found) = self.locate(Some(from), |c| batch[c][j]);
            if found {
                from = pos + 1;
            } else {
                from = pos;
                at.push((pos, j));
            }
        }
        let (n, add) = (self.rows, at.len());
        if add == 0 {
            return;
        }
        for (p, col) in self.planes.iter_mut().zip(batch) {
            p.reserve_exact(add);
            p.resize(n + add, Elem(0));
            let p = p.as_mut_slice();
            let mut end = n;
            for (i, &(pos, j)) in at.iter().enumerate().rev() {
                // Old rows `pos..end` have `i + 1` new rows before them.
                p.copy_within(pos..end, pos + i + 1);
                p[pos + i] = col[j];
                end = pos;
            }
        }
        self.rows = n + add;
    }

    /// Delete the sorted-run rows at the strictly increasing positions
    /// `at`, in place: every run of kept rows moves down once with
    /// `copy_within`, then the planes are truncated and shrunk so capacity
    /// tracks length.
    fn drop_rows(&mut self, at: &[usize]) {
        if at.is_empty() {
            return;
        }
        let n = self.rows;
        for p in &mut self.planes {
            for (i, &pos) in at.iter().enumerate() {
                let end = at.get(i + 1).copied().unwrap_or(n);
                p.copy_within(pos + 1..end, pos - i);
            }
            p.truncate(n - at.len());
            p.shrink_to_fit();
        }
        self.rows = n - at.len();
    }

    /// The rows of the sorted run whose first `k` cells are
    /// `target(0..k)`, as a range; when there are none, the empty range
    /// sits at their lexicographic lower bound. The lead column is searched
    /// from `from` — galloping forward from a cursor (`Some`), or binary
    /// over the whole run (`None`) — and each later column within the
    /// previous column's equal group; every group's end gallops from the
    /// group's start. With `from = Some(i)`, every row before `i` must sort
    /// below the target.
    fn narrow(
        &self,
        from: Option<usize>,
        k: usize,
        target: impl Fn(usize) -> Elem,
    ) -> std::ops::Range<usize> {
        let (mut lo, mut hi) = (from.unwrap_or(0), self.rows);
        for c in 0..k {
            let t = target(c);
            let w = &self.planes[c][lo..hi];
            let s = match from {
                Some(_) if c == 0 => gallop(w, |v| v < t),
                _ => search(w, |v| v < t),
            };
            if s >= w.len() || w[s] != t {
                return lo + s..lo + s;
            }
            hi = lo + s + gallop(&w[s..], |v| v <= t);
            lo += s;
        }
        lo..hi
    }

    /// Seek the row whose cell in column `c` is `target(c)`, from a cursor
    /// (`Some`, galloping) or over the whole run (`None`). Returns the
    /// lexicographic lower bound and whether the row is present.
    fn locate(&self, from: Option<usize>, target: impl Fn(usize) -> Elem) -> (usize, bool) {
        debug_assert!(self.arity > 0);
        let r = self.narrow(from, self.arity, target);
        (r.start, !r.is_empty())
    }

    /// The rows of `probe` (sealed) whose presence in `base` (sealed)
    /// equals `keep`, as a new sealed store: one galloping pass through
    /// `base` from an advancing cursor, `O(|probe| · log |base|)`. At
    /// arity 1, when `probe` holds at least an eighth as many rows as
    /// `base`, the gallops would land a few values apart, so `base` is
    /// walked linearly instead, `O(|probe| + |base|)`.
    fn filter(probe: &TupleStore, base: &TupleStore, keep: bool) -> TupleStore {
        let k = probe.arity;
        let mut out = TupleStore::new(k);
        if k == 1 && probe.rows.saturating_mul(8) >= base.rows {
            let (p, b) = (&probe.planes[0], &base.planes[0]);
            let mut j = 0usize;
            out.planes[0] = p
                .iter()
                .copied()
                .filter(|&v| {
                    while j < b.len() && b[j] < v {
                        j += 1;
                    }
                    (j < b.len() && b[j] == v) == keep
                })
                .collect();
            out.rows = out.planes[0].len();
            return out;
        }
        let mut j = 0usize;
        for i in 0..probe.rows {
            let (nj, found) = base.locate(Some(j), |c| probe.planes[c][i]);
            j = nj + usize::from(found);
            if found == keep {
                for (o, p) in out.planes.iter_mut().zip(&probe.planes) {
                    o.push(p[i]);
                }
                out.rows += 1;
            }
        }
        out
    }

    /// The sorted run with column `perm[c]` as column `c`, where `perm`
    /// moves one column to the front and keeps the rest in order: a stable
    /// counting sort on that column leaves rows with one key in this run's
    /// order, which is the rest's. Linear, and beside the result it holds
    /// one count per key value. `None` when the key values are sparse (one
    /// exceeds `len + 1024`) or the rows too many for `u32` counts.
    pub(crate) fn lead_sorted(&self, perm: &[usize]) -> Option<TupleStore> {
        let (n, key) = (self.rows, &self.planes[perm[0]]);
        let bound = key.iter().map(|e| e.index() + 1).max().unwrap_or(0);
        if bound > n + 1024 || u32::try_from(n).is_err() {
            return None;
        }
        // `next[v]`: the output row the next row with key `v` goes to.
        let mut next = vec![0u32; bound + 1];
        for e in key {
            next[e.index() + 1] += 1;
        }
        for v in 1..=bound {
            next[v] += next[v - 1];
        }
        let mut planes = vec![vec![Elem(0); n]; self.arity];
        for (i, e) in key.iter().enumerate() {
            let j = next[e.index()] as usize;
            next[e.index()] += 1;
            for (out, &c) in planes.iter_mut().zip(perm) {
                out[j] = self.planes[c][i];
            }
        }
        let mut out = TupleStore::new(self.arity);
        (out.rows, out.planes) = (n, planes);
        Some(out)
    }

    /// Membership test: a chunked binary search of the sorted run plus a
    /// linear scan of the pending delta.
    pub fn contains<R: Row>(&self, t: R) -> bool {
        debug_assert_eq!(t.width(), self.arity);
        if self.arity == 0 {
            return self.rows > 0 || self.pending_rows > 0;
        }
        if self.rows > 0 && self.locate(None, |c| t.at(c)).1 {
            return true;
        }
        let k = self.arity;
        self.pending
            .chunks_exact(k)
            .any(|row| (0..k).all(|c| row[c] == t.at(c)))
    }

    /// Insert a single row into the sorted run (sealing first if needed).
    /// Returns true when the row was not already present. The row goes in
    /// at its galloped position with `Vec::insert`, shifting every plane's
    /// tail in place; capacity grows geometrically, so building a store
    /// row by row in order costs amortised `O(log n)` per row. Prefer
    /// batching through [`push`](TupleStore::push)/[`seal`](TupleStore::seal),
    /// which pays the shift once per batch.
    pub fn insert<R: Row>(&mut self, t: R) -> bool {
        debug_assert_eq!(t.width(), self.arity);
        self.seal();
        if self.arity == 0 {
            let added = self.rows == 0;
            self.rows = 1;
            return added;
        }
        let (pos, found) = self.locate(None, |c| t.at(c));
        if found {
            return false;
        }
        for (c, p) in self.planes.iter_mut().enumerate() {
            p.insert(pos, t.at(c));
        }
        self.rows += 1;
        true
    }

    /// Remove a row (sealing first if needed). Returns true if present.
    /// The planes' tails shift down in place (`Vec::remove`, capacity
    /// kept).
    pub fn remove<R: Row>(&mut self, t: R) -> bool {
        debug_assert_eq!(t.width(), self.arity);
        self.seal();
        if self.arity == 0 {
            let removed = self.rows > 0;
            self.rows = 0;
            return removed;
        }
        let (pos, found) = self.locate(None, |c| t.at(c));
        if !found {
            return false;
        }
        for p in &mut self.planes {
            p.remove(pos);
        }
        self.rows -= 1;
        true
    }

    /// Set-union `other` (sealed) into `self` (sealed), in place: `other`'s
    /// planes are spliced into the run as they are. A batch of `m` rows
    /// costs `O(m · log n)` plus one tail shift. Into an empty store,
    /// `other` is copied as it is.
    pub fn merge(&mut self, other: &TupleStore) {
        debug_assert_eq!(self.arity, other.arity);
        debug_assert!(self.is_sealed() && other.is_sealed());
        if other.rows == 0 {
            return;
        }
        if self.arity == 0 {
            self.rows = self.rows.max(other.rows);
        } else if self.rows == 0 {
            self.planes = other.planes.clone();
            self.rows = other.rows;
        } else {
            self.splice(&other.planes);
        }
    }

    /// Remove every row of `other` (sealed) from `self` (sealed), in place:
    /// each of `other`'s rows is galloped, and the run is compacted forward
    /// once. A batch of `m` rows costs `O(m · log n)` plus one shift of the
    /// tail behind its first hit; an empty batch returns at once. Returns
    /// the number of rows removed.
    pub fn subtract(&mut self, other: &TupleStore) -> usize {
        debug_assert_eq!(self.arity, other.arity);
        debug_assert!(self.is_sealed() && other.is_sealed());
        if self.rows == 0 || other.rows == 0 {
            return 0;
        }
        if self.arity == 0 {
            self.rows = 0;
            return 1;
        }
        let mut at: Vec<usize> = Vec::new();
        let mut from = 0usize;
        for j in 0..other.rows {
            let (pos, found) = self.locate(Some(from), |c| other.planes[c][j]);
            if found {
                at.push(pos);
            }
            from = pos + usize::from(found);
        }
        self.drop_rows(&at);
        at.len()
    }

    /// Rows of `self` (sealed) absent from `other` (sealed), as a new
    /// sealed store. Gallops through `other` so a small `self` against a
    /// large `other` costs `O(|self| · log |other|)`.
    pub fn difference(&self, other: &TupleStore) -> TupleStore {
        debug_assert_eq!(self.arity, other.arity);
        debug_assert!(self.is_sealed() && other.is_sealed());
        if self.arity == 0 {
            let mut out = TupleStore::new(0);
            out.rows = usize::from(self.rows > 0 && other.rows == 0);
            return out;
        }
        if other.rows == 0 {
            return self.clone();
        }
        Self::filter(self, other, false)
    }

    /// Rows present in both `self` and `other` (both sealed), as a new
    /// sealed store. Gallops the larger operand from the smaller one so the
    /// cost is `O(min · log max)`.
    pub fn intersection(&self, other: &TupleStore) -> TupleStore {
        debug_assert_eq!(self.arity, other.arity);
        debug_assert!(self.is_sealed() && other.is_sealed());
        if self.arity == 0 {
            let mut out = TupleStore::new(0);
            out.rows = self.rows.min(other.rows);
            return out;
        }
        if self.rows <= other.rows {
            Self::filter(self, other, true)
        } else {
            Self::filter(other, self, true)
        }
    }

    /// The contiguous range of sorted-run row indices whose first
    /// `prefix.len()` elements equal `prefix` (sealed stores only). One
    /// chunked binary search per prefix column, narrowing the equal group;
    /// an empty prefix selects every row. This is the probe primitive
    /// behind the evaluator's natural and permuted secondary indexes: an
    /// EDB relation whose join key is a column prefix needs *no* index
    /// build at all — `prefix_range(key)` is the matching row set.
    pub fn prefix_range(&self, prefix: &[Elem]) -> std::ops::Range<usize> {
        self.prefix_range_from(prefix, 0)
    }

    /// [`prefix_range`](TupleStore::prefix_range) with a cursor: `hint` is
    /// a row index, typically the start of the previous probe's range.
    /// When the row just before `hint` sorts strictly below `prefix`, so
    /// does every earlier row, and the search gallops forward from `hint`;
    /// otherwise (a hint of 0, past the end of a shorter run, or left by a
    /// larger key) it searches from row 0. The answer is the unhinted
    /// one whatever the hint; a run of probes with ascending keys becomes
    /// one forward sweep.
    pub fn prefix_range_from(&self, prefix: &[Elem], hint: usize) -> std::ops::Range<usize> {
        debug_assert!(self.is_sealed());
        debug_assert!(prefix.len() <= self.arity);
        let h = hint.min(self.rows);
        let below = h > 0
            && (0..prefix.len())
                .map(|c| self.planes[c][h - 1])
                .lt(prefix.iter().copied());
        self.narrow(below.then_some(h), prefix.len(), |c| prefix[c])
    }

    /// True when every sealed row of `self` is a row of `other` (both
    /// sealed). Galloping merge scan.
    pub fn is_subset(&self, other: &TupleStore) -> bool {
        debug_assert_eq!(self.arity, other.arity);
        debug_assert!(self.is_sealed() && other.is_sealed());
        if self.arity == 0 || self.rows == 0 {
            return self.rows <= other.rows;
        }
        if self.rows > other.rows {
            return false;
        }
        let mut j = 0usize;
        for i in 0..self.rows {
            let (nj, found) = other.locate(Some(j), |c| self.planes[c][i]);
            if !found {
                return false;
            }
            j = nj + 1;
        }
        true
    }

    /// Drop all rows (sealed and pending), keeping the allocations.
    pub fn clear(&mut self) {
        self.rows = 0;
        for p in &mut self.planes {
            p.clear();
        }
        self.pending_rows = 0;
        self.pending.clear();
    }

    /// Bytes of heap held (capacity, not just length) across the column
    /// planes and the pending arena — the store's contribution to peak
    /// memory. `#![forbid(unsafe_code)]` rules out a counting allocator,
    /// so footprint reporting is analytic.
    pub fn heap_bytes(&self) -> usize {
        let cells: usize = self.planes.iter().map(Vec::capacity).sum();
        (cells + self.pending.capacity()) * std::mem::size_of::<Elem>()
    }
}

/// Zero-copy iterator over the sorted rows of a [`TupleStore`].
#[derive(Clone)]
pub struct Rows<'a> {
    store: &'a TupleStore,
    front: usize,
    back: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = RowRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<RowRef<'a>> {
        if self.front >= self.back {
            return None;
        }
        let i = self.front;
        self.front += 1;
        Some(RowRef {
            store: self.store,
            row: i,
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.front;
        (n, Some(n))
    }
}

impl DoubleEndedIterator for Rows<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Self::Item> {
        if self.front >= self.back {
            return None;
        }
        self.back -= 1;
        Some(RowRef {
            store: self.store,
            row: self.back,
        })
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl PartialEq for TupleStore {
    fn eq(&self, other: &Self) -> bool {
        debug_assert!(self.is_sealed() && other.is_sealed());
        self.arity == other.arity && self.rows == other.rows && self.planes == other.planes
    }
}

impl Eq for TupleStore {}

impl Hash for TupleStore {
    fn hash<H: Hasher>(&self, state: &mut H) {
        debug_assert!(self.is_sealed());
        self.arity.hash(state);
        self.rows.hash(state);
        // Row-major, so the hash is a function of the row sequence alone
        // and agrees with `Eq`, which compares the same cells.
        for i in 0..self.rows {
            for p in &self.planes {
                p[i].hash(state);
            }
        }
    }
}

impl fmt::Debug for TupleStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_of(s: &TupleStore) -> Vec<Vec<u32>> {
        s.iter().map(|r| r.iter().map(|e| e.0).collect()).collect()
    }

    #[test]
    fn push_seal_sorts_and_dedups() {
        let mut s = TupleStore::new(2);
        for t in [[2u32, 0], [0, 1], [0, 0], [0, 1], [2, 0]] {
            s.push(&[Elem(t[0]), Elem(t[1])]);
        }
        assert!(!s.is_sealed());
        assert!(s.contains(&[Elem(2), Elem(0)])); // pending scan
        s.seal();
        assert_eq!(rows_of(&s), vec![vec![0, 0], vec![0, 1], vec![2, 0]]);
    }

    #[test]
    fn dedup_across_sorted_pending_boundary() {
        let mut s = TupleStore::new(1);
        s.insert(&[Elem(3)]);
        s.insert(&[Elem(7)]);
        s.push(&[Elem(7)]);
        s.push(&[Elem(1)]);
        s.seal();
        assert_eq!(rows_of(&s), vec![vec![1], vec![3], vec![7]]);
    }

    #[test]
    fn merge_and_difference() {
        let mut a = TupleStore::new(1);
        let mut b = TupleStore::new(1);
        for i in [1u32, 3, 5] {
            a.insert(&[Elem(i)]);
        }
        for i in [2u32, 3, 9] {
            b.insert(&[Elem(i)]);
        }
        let d = a.difference(&b);
        assert_eq!(rows_of(&d), vec![vec![1], vec![5]]);
        a.merge(&b);
        assert_eq!(
            rows_of(&a),
            vec![vec![1], vec![2], vec![3], vec![5], vec![9]]
        );
        assert!(d.is_subset(&a));
        assert!(!a.is_subset(&d));
    }

    #[test]
    fn arity_zero_store() {
        let mut s = TupleStore::new(0);
        assert!(!s.contains(&[]));
        s.push(&[]);
        assert!(s.contains(&[]));
        s.push(&[]);
        s.seal();
        assert_eq!(s.len(), 1);
        assert_eq!(s.row(0).len(), 0);
        let empty = TupleStore::new(0);
        assert!(empty.is_subset(&s));
        assert!(!s.is_subset(&empty));
        assert_eq!(s.difference(&empty).len(), 1);
        assert_eq!(s.difference(&s).len(), 0);
        let mut t = TupleStore::new(0);
        t.merge(&s);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn insert_remove_round_trip() {
        let mut s = TupleStore::new(2);
        assert!(s.insert(&[Elem(1), Elem(2)]));
        assert!(!s.insert(&[Elem(1), Elem(2)]));
        assert!(s.insert(&[Elem(0), Elem(9)]));
        assert!(s.remove(&[Elem(1), Elem(2)]));
        assert!(!s.remove(&[Elem(1), Elem(2)]));
        assert_eq!(rows_of(&s), vec![vec![0, 9]]);
    }

    #[test]
    fn wide_seal_path_matches_narrow() {
        // Exercise the usize-indexed seal path (taken automatically only
        // when pending_rows > u32::MAX) on small arity-3 data and check it
        // agrees with the default u32 path.
        let tuples = [
            [2u32, 0, 5],
            [0, 1, 1],
            [0, 0, 4],
            [0, 1, 1],
            [2, 0, 5],
            [1, 9, 0],
        ];
        let mut narrow = TupleStore::new(3);
        let mut wide = TupleStore::new(3);
        for s in [&mut narrow, &mut wide] {
            s.insert(&[Elem(0), Elem(1), Elem(1)]);
            s.insert(&[Elem(5), Elem(5), Elem(5)]);
            for t in tuples {
                s.push(&[Elem(t[0]), Elem(t[1]), Elem(t[2])]);
            }
        }
        narrow.seal_impl(false);
        wide.seal_impl(true);
        assert!(wide.is_sealed());
        assert_eq!(narrow, wide);
        assert_eq!(
            rows_of(&wide),
            vec![
                vec![0, 0, 4],
                vec![0, 1, 1],
                vec![1, 9, 0],
                vec![2, 0, 5],
                vec![5, 5, 5]
            ]
        );
    }

    #[test]
    fn intersection_gallops_both_ways() {
        let mut a = TupleStore::new(1);
        let mut b = TupleStore::new(1);
        for i in [1u32, 3, 5, 7] {
            a.insert(&[Elem(i)]);
        }
        for i in [0u32, 3, 4, 7, 9, 11] {
            b.insert(&[Elem(i)]);
        }
        assert_eq!(rows_of(&a.intersection(&b)), vec![vec![3], vec![7]]);
        assert_eq!(a.intersection(&b), b.intersection(&a));
        let empty = TupleStore::new(1);
        assert!(a.intersection(&empty).is_empty());
        assert!(empty.intersection(&a).is_empty());
    }

    #[test]
    fn prefix_range_selects_matching_rows() {
        let mut s = TupleStore::new(2);
        for t in [[0u32, 3], [1, 0], [1, 2], [1, 7], [2, 2]] {
            s.insert(&[Elem(t[0]), Elem(t[1])]);
        }
        assert_eq!(s.prefix_range(&[]), 0..5);
        assert_eq!(s.prefix_range(&[Elem(1)]), 1..4);
        assert_eq!(s.prefix_range(&[Elem(0)]), 0..1);
        assert_eq!(s.prefix_range(&[Elem(2)]), 4..5);
        assert_eq!(s.prefix_range(&[Elem(3)]), 5..5);
        let r = s.prefix_range(&[Elem(1), Elem(2)]);
        assert_eq!(r, 2..3);
        assert_eq!(s.row(2), &[Elem(1), Elem(2)]);
    }

    #[test]
    fn empty_merges() {
        let mut a = TupleStore::new(2);
        let b = TupleStore::new(2);
        a.merge(&b);
        assert!(a.is_empty());
        a.insert(&[Elem(4), Elem(4)]);
        a.merge(&b);
        assert_eq!(a.len(), 1);
        let mut c = TupleStore::new(2);
        c.merge(&a);
        assert_eq!(c.len(), 1);
        assert_eq!(a, c);
    }

    #[test]
    fn sparse_high_values_take_search_paths() {
        // Values near u32::MAX next to small ones: the planes hold the
        // values as they are, however sparse.
        let mut s = TupleStore::new(2);
        s.push(&[Elem(u32::MAX), Elem(u32::MAX - 7)]);
        s.push(&[Elem(3), Elem(u32::MAX)]);
        s.seal();
        assert_eq!(
            rows_of(&s),
            vec![vec![3, u32::MAX], vec![u32::MAX, u32::MAX - 7]]
        );
        // Second seal inserts a value *below* the existing maximum;
        // previously sealed rows keep their content.
        s.push(&[Elem(1), Elem(4)]);
        s.seal();
        assert_eq!(
            rows_of(&s),
            vec![vec![1, 4], vec![3, u32::MAX], vec![u32::MAX, u32::MAX - 7]]
        );
        assert!(s.contains(&[Elem(u32::MAX), Elem(u32::MAX - 7)]));
        assert!(!s.contains(&[Elem(u32::MAX), Elem(4)]));
        assert_eq!(s.prefix_range(&[Elem(u32::MAX)]), 2..3);
    }

    #[test]
    fn cross_store_set_ops_compare_by_value() {
        // a and b share one row and no other value.
        let mut a = TupleStore::new(2);
        let mut b = TupleStore::new(2);
        for t in [[10u32, 20], [30, 40]] {
            a.push(&[Elem(t[0]), Elem(t[1])]);
        }
        for t in [[10u32, 20], [15, 5]] {
            b.push(&[Elem(t[0]), Elem(t[1])]);
        }
        a.seal();
        b.seal();
        let d = a.difference(&b);
        assert_eq!(rows_of(&d), vec![vec![30, 40]]);
        let i = a.intersection(&b);
        assert_eq!(rows_of(&i), vec![vec![10, 20]]);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(rows_of(&m), vec![vec![10, 20], vec![15, 5], vec![30, 40]]);
    }

    #[test]
    fn removed_rows_do_not_break_equality() {
        // A store that held and then removed a row must compare (and hash)
        // equal to one that never saw it.
        let mut a = TupleStore::new(1);
        for i in [1u32, 5, 9] {
            a.insert(&[Elem(i)]);
        }
        a.remove(&[Elem(5)]);
        let mut b = TupleStore::new(1);
        for i in [1u32, 9] {
            b.insert(&[Elem(i)]);
        }
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn chunked_galloping_crosses_window_boundaries() {
        // More than CHUNK rows so the counting loop and the binary
        // narrowing both run; verify probes against a naive model.
        let n = 1000u32;
        let mut s = TupleStore::new(2);
        for i in (0..n).rev() {
            s.push(&[Elem(i * 3), Elem(i % 7)]);
        }
        s.seal();
        assert_eq!(s.len(), n as usize);
        for i in 0..n {
            assert!(s.contains(&[Elem(i * 3), Elem(i % 7)]));
            assert!(!s.contains(&[Elem(i * 3 + 1), Elem(i % 7)]));
            assert_eq!(
                s.prefix_range(&[Elem(i * 3)]),
                (i as usize)..(i as usize + 1)
            );
        }
        let mut odd = TupleStore::new(2);
        for i in (0..n).filter(|i| i % 2 == 1) {
            odd.push(&[Elem(i * 3), Elem(i % 7)]);
        }
        odd.seal();
        let even = s.difference(&odd);
        assert_eq!(even.len(), 500);
        assert_eq!(s.intersection(&odd).len(), 500);
        assert!(odd.is_subset(&s));
        let mut m = even.clone();
        m.merge(&odd);
        assert_eq!(m, s);
    }

    #[test]
    fn density_rule_boundary() {
        // The bitmap holds at most 32 bits per pending value plus the
        // slack; one bit more sorts.
        for p in [1usize, 2, 100, 1 << 20] {
            assert!(dense_range(1, p));
            assert!(dense_range(32 * p + DENSE_SLACK, p));
            assert!(!dense_range(32 * p + DENSE_SLACK + 1, p));
        }
        // Saturating: a pending count near `usize::MAX` admits any span.
        assert!(dense_range(usize::MAX, usize::MAX / 16));
        assert!(!dense_range(usize::MAX, 1));
    }

    #[test]
    fn values_below_maximum_are_stable_across_seals() {
        // Interleave seals so each one lands new values below the current
        // maximum, splicing them ahead of every sealed row.
        let mut s = TupleStore::new(1);
        let mut expect: Vec<u32> = Vec::new();
        for round in 0..5u32 {
            for i in 0..20u32 {
                let v = 1000 - round * 100 + i;
                s.push(&[Elem(v)]);
                expect.push(v);
            }
            s.seal();
        }
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(
            rows_of(&s),
            expect.iter().map(|&v| vec![v]).collect::<Vec<_>>()
        );
    }
}
