//! Column-plane tuple storage: dictionary-encoded SoA layout with chunked
//! galloping kernels.
//!
//! [`TupleStore`] is the single physical representation behind
//! [`Relation`](crate::Relation) and the evaluator's IDB relations. Tuples
//! live in a **structure-of-arrays** layout:
//!
//! * a **per-store dictionary** — the sorted, distinct [`Elem`] values the
//!   store has seen, so dense id `d` decodes as `dict[d]` and, because ids
//!   are ranks, *id order equals element order*;
//! * **column planes** — one `Vec<u32>` of dictionary ids per column, all
//!   of length `rows`, holding the **sorted run**: rows in lexicographic
//!   order, deduplicated, addressed by row index across the planes;
//! * a **pending delta** — raw `Elem` rows appended in arrival order,
//!   possibly duplicated, batching inserts so a bulk load costs one
//!   sort + encode + merge instead of `n` shifting array inserts.
//!
//! [`seal`](TupleStore::seal) folds the pending delta into the sorted run:
//! it extends the dictionary with unseen values (remapping the planes when
//! an insertion lands below the current maximum — appends keep ids stable),
//! encodes the pending rows to ids, sorts them (`u32` values directly at
//! arity 1, packed `u64` pairs at arity 2, an index sort above), and
//! **splices** them into the existing run in place. Every read
//! (`contains`, `iter`, equality, hashing) is defined over the *sealed*
//! content; `contains` additionally scans the pending region so unsealed
//! stores still answer membership correctly.
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
//! row-by-row builds amortised. One case is not `O(batch)`: a value new
//! to the dictionary below its maximum remaps every plane.
//!
//! The galloping kernels (`contains`, [`merge`](TupleStore::merge),
//! [`subtract`](TupleStore::subtract),
//! [`difference`](TupleStore::difference),
//! [`intersection`](TupleStore::intersection),
//! [`prefix_range`](TupleStore::prefix_range)) run on the **lead plane
//! first**: an exponential gallop plus binary search narrows to a window of
//! at most 64 ids, which a branch-free `(id < target) as usize` counting
//! loop — a shape LLVM autovectorizes — resolves; equal-lead groups then
//! narrow column by column the same way. Cross-store operations never
//! decode: a one-pass **translation table** maps each of the left store's
//! ids to its rank in the right store's dictionary (plus an exact-hit
//! flag), so mixed-dictionary comparisons stay integer compares.
//!
//! Rows are addressed by index and handed out as [`RowRef`] — a `Copy`
//! `(store, row)` handle that decodes on access (see [`crate::row`]).
//! Arity-0 relations (nullary predicates) are supported: the planes stay
//! empty and only the explicit row counters distinguish `{}` from `{()}`.
//!
//! After [`remove`](TupleStore::remove) or
//! [`subtract`](TupleStore::subtract), the dictionary may retain entries
//! no row references (there is no garbage collection); equality and
//! hashing therefore compare *decoded* content, with a planes-only fast
//! path when two stores share a dictionary.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::elem::Elem;
use crate::row::{Row, RowRef};

/// Window size below which galloping searches switch from binary halving
/// to a branch-free counting scan over the id plane (autovectorizable).
const CHUNK: usize = 64;

/// First index in sorted `w` with `w[i] >= t`: binary halving to a
/// `CHUNK`-wide window, then a branch-free count of smaller ids.
#[inline]
fn lb<T: Copy + Ord>(w: &[T], t: T) -> usize {
    let (mut lo, mut hi) = (0usize, w.len());
    while hi - lo > CHUNK {
        let mid = lo + (hi - lo) / 2;
        if w[mid] < t {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo + w[lo..hi].iter().map(|&v| (v < t) as usize).sum::<usize>()
}

/// First index in sorted `w` with `w[i] > t`.
#[inline]
fn ub<T: Copy + Ord>(w: &[T], t: T) -> usize {
    let (mut lo, mut hi) = (0usize, w.len());
    while hi - lo > CHUNK {
        let mid = lo + (hi - lo) / 2;
        if w[mid] <= t {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo + w[lo..hi].iter().map(|&v| (v <= t) as usize).sum::<usize>()
}

/// Like [`lb`], but with an exponential gallop from the front so repeated
/// calls with an advancing cursor (merges, subset scans) stay near-linear.
#[inline]
fn gallop_lb<T: Copy + Ord>(w: &[T], t: T) -> usize {
    if w.is_empty() || w[0] >= t {
        return 0;
    }
    let mut lo = 0usize; // invariant: w[lo] < t
    let mut step = 1usize;
    while lo + step < w.len() && w[lo + step] < t {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step).min(w.len());
    lo + 1 + lb(&w[lo + 1..hi], t)
}

/// Merge the sorted, distinct, disjoint dictionaries `a` and `b`. Returns
/// the union plus each id of `a`'s rank in it.
fn union_dicts(a: &[Elem], b: &[Elem]) -> (Vec<Elem>, Vec<u32>) {
    let mut u: Vec<Elem> = Vec::with_capacity(a.len() + b.len());
    let mut ra: Vec<u32> = Vec::with_capacity(a.len());
    let mut j = 0usize;
    for &v in a {
        while j < b.len() && b[j] < v {
            u.push(b[j]);
            j += 1;
        }
        ra.push(u.len() as u32);
        u.push(v);
    }
    u.extend_from_slice(&b[j..]);
    (u, ra)
}

/// For each id of the sorted dictionary `from`, its rank in `to` and
/// whether the value is present there (`None` when the dictionaries are
/// identical, i.e. the translation is the exact identity). Because both
/// dictionaries are sorted, ranks are monotone, so translated ids compare
/// exactly like the underlying element values.
fn translation(from: &[Elem], to: &[Elem]) -> Option<Vec<(u32, bool)>> {
    if from == to {
        return None;
    }
    let mut tr = Vec::with_capacity(from.len());
    let mut j = 0usize;
    for &v in from {
        j += gallop_lb(&to[j..], v);
        tr.push((j as u32, j < to.len() && to[j] == v));
    }
    Some(tr)
}

/// Sort row indices `idx` by the rows they address in the arity-`k` id
/// arena `enc`, then drop indices of duplicate rows. Generic over the
/// index type so `seal` can use `u32` scratch in the common case and
/// `usize` when the pending count exceeds `u32::MAX`.
fn sort_dedup_rows<I: Copy>(
    mut idx: Vec<I>,
    to_usize: impl Fn(I) -> usize,
    enc: &[u32],
    k: usize,
) -> Vec<I> {
    idx.sort_unstable_by(|&i, &j| {
        let (i, j) = (to_usize(i), to_usize(j));
        enc[i * k..(i + 1) * k].cmp(&enc[j * k..(j + 1) * k])
    });
    idx.dedup_by(|a, b| {
        let (a, b) = (to_usize(*a), to_usize(*b));
        enc[a * k..(a + 1) * k] == enc[b * k..(b + 1) * k]
    });
    idx
}

/// Element → id encoder built once per `seal`: a direct-indexed table when
/// the value range is dense relative to the dictionary, binary search on
/// the sorted dictionary otherwise (sparse high values).
enum Enc {
    Table(Vec<u32>),
    Search,
}

/// A set of same-arity tuples in dictionary-encoded column-plane layout.
///
/// See the module docs for the layout. Invariants:
///
/// * `dict` is sorted and distinct, so the dense id of a value is its rank
///   and raw id comparisons within one store are element-order compares;
/// * every plane has length `rows` and every stored id is `< dict.len()`
///   (the dictionary may hold extra, unreferenced values after `remove`);
/// * rows `0..rows` are lexicographically sorted and distinct;
/// * `pending` holds `pending_rows * arity` raw elements in insertion
///   order, possibly duplicated, until [`seal`](TupleStore::seal).
///
/// Dictionary ids cannot silently wrap: an id is a rank among distinct
/// `u32` element values, so it always fits the `u32` plane cell. Row
/// *counts* are `usize` throughout; only external consumers that compress
/// row ids to `u32` (the evaluator's hash indexes) need a capacity check.
///
/// Equality and hashing require a sealed store (checked with
/// `debug_assert`) and compare decoded content;
/// [`Relation`](crate::Relation) maintains "sealed after every `&mut`
/// method returns" so its comparisons are always canonical.
#[derive(Clone)]
pub struct TupleStore {
    arity: usize,
    /// Number of rows in the sorted run.
    rows: usize,
    /// Sorted distinct element values; dense id = rank.
    dict: Vec<Elem>,
    /// One id plane per column, each of length `rows`.
    planes: Vec<Vec<u32>>,
    /// Number of rows in the pending delta.
    pending_rows: usize,
    /// Pending arena: `pending_rows * arity` raw elements, insertion order.
    pending: Vec<Elem>,
}

impl TupleStore {
    /// An empty store of the given arity.
    pub fn new(arity: usize) -> Self {
        TupleStore {
            arity,
            rows: 0,
            dict: Vec::new(),
            planes: vec![Vec::new(); arity],
            pending_rows: 0,
            pending: Vec::new(),
        }
    }

    /// An empty store with pending-delta capacity reserved for `rows`
    /// buffered rows (the planes size themselves exactly at seal).
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        TupleStore {
            arity,
            rows: 0,
            dict: Vec::new(),
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

    /// Number of distinct values the dictionary currently holds (including
    /// entries orphaned by `remove`). Exposed for memory observability.
    #[inline]
    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }

    /// The `i`-th row of the sorted run, as a zero-copy decoding handle.
    #[inline]
    pub fn row(&self, i: usize) -> RowRef<'_> {
        debug_assert!(i < self.rows);
        RowRef {
            store: self,
            row: i,
        }
    }

    /// Decode the cell at column `c`, row `i` of the sorted run.
    #[inline]
    pub(crate) fn cell(&self, c: usize, i: usize) -> Elem {
        self.dict[self.planes[c][i] as usize]
    }

    /// Borrow the dictionary slot backing column `c`, row `i`.
    #[inline]
    pub(crate) fn cell_ref(&self, c: usize, i: usize) -> &Elem {
        &self.dict[self.planes[c][i] as usize]
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

    /// Fold the pending delta into the sorted run: extend the dictionary,
    /// encode, sort and dedup the pending rows, then splice them into the
    /// existing run **in place** — each new row's position is galloped,
    /// every plane grows by exactly the number of new rows and is filled
    /// from the back — so a batch of `m` rows costs `O(m · log n)`
    /// searches plus one shift of the tail behind its first row, with no
    /// full-size temporary. Into an empty store the sorted batch simply
    /// becomes the run. Idempotent; a no-op when sealed.
    ///
    /// One case still costs `O(n)` beyond the shift: a value new to the
    /// dictionary that lies *below* its maximum remaps every plane (ids
    /// are ranks; values above the maximum append and keep ids stable).
    ///
    /// Arity ≤ 2 sorts id values directly (packed `u64` pairs at arity 2);
    /// wider rows sort through a `Vec<u32>` of row indices to halve the
    /// scratch footprint of the common case — a pending count that does
    /// not fit in `u32` (≥ 2³² buffered rows) automatically takes an
    /// equivalent `usize`-indexed path instead of silently truncating.
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
        let pend = std::mem::take(&mut self.pending);
        let prows = self.pending_rows;
        self.pending_rows = 0;
        debug_assert_eq!(pend.len(), prows * k);
        self.extend_dict(&pend);
        let enc = self.encoder(pend.len());
        match k {
            1 => self.seal_unary(&pend, &enc),
            2 => self.seal_binary(&pend, prows, &enc),
            _ => self.seal_wide_arity(&pend, prows, &enc, wide),
        }
    }

    /// Grow the dictionary with the distinct pending values it has not
    /// seen, remapping the planes when insertions land below the current
    /// maximum (pure appends keep existing ids stable).
    fn extend_dict(&mut self, pend: &[Elem]) {
        let maxv = pend.iter().map(|e| e.index()).max().unwrap_or(0);
        let words = maxv / 64 + 1;
        // The bitmap pass reads the whole dictionary, so a batch of fewer
        // than 1/16 as many elements gallops instead (the crossover
        // measured for `encoder`, which makes the same trade).
        let dense = words <= pend.len() + 1024 && self.dict.len() <= 16 * pend.len();
        let new_vals: Vec<Elem> = if dense {
            // Dense values: mark pending elements in a bitmap, clear the
            // ones the dictionary already knows, scan out the rest sorted.
            let mut bits = vec![0u64; words];
            for e in pend {
                bits[e.index() / 64] |= 1 << (e.index() % 64);
            }
            for d in &self.dict {
                if d.index() <= maxv {
                    bits[d.index() / 64] &= !(1 << (d.index() % 64));
                }
            }
            let mut out = Vec::new();
            for (w, &word) in bits.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let b = word.trailing_zeros() as usize;
                    out.push(Elem((w * 64 + b) as u32));
                    word &= word - 1;
                }
            }
            out
        } else {
            // Sparse values: sort-dedup, then subtract the dictionary.
            let mut vals: Vec<u32> = pend.iter().map(|e| e.0).collect();
            vals.sort_unstable();
            vals.dedup();
            let mut out = Vec::new();
            let mut j = 0usize;
            for v in vals {
                j += gallop_lb(&self.dict[j..], Elem(v));
                if j >= self.dict.len() || self.dict[j] != Elem(v) {
                    out.push(Elem(v));
                }
            }
            out
        };
        self.absorb_new_vals(new_vals);
    }

    /// Merge sorted, distinct, previously-unseen values into the
    /// dictionary, rewriting the planes when ids shift.
    fn absorb_new_vals(&mut self, mut new_vals: Vec<Elem>) {
        if new_vals.is_empty() {
            return;
        }
        if self.dict.is_empty() {
            self.dict = new_vals;
            return;
        }
        if new_vals[0] > *self.dict.last().unwrap() {
            self.dict.append(&mut new_vals);
            return;
        }
        let (u, rs) = union_dicts(&self.dict, &new_vals);
        self.remap_planes(&rs);
        self.dict = u;
    }

    /// Extend the dictionary with the sorted, distinct `vals` and return
    /// each one's id in the extended dictionary (`None` when that map is
    /// the identity). `vals` gallops through the dictionary, costing
    /// `O(|vals| · log)` unless a value lands below the maximum.
    fn absorb_dict(&mut self, vals: &[Elem]) -> Option<Vec<u32>> {
        let tr = translation(vals, &self.dict)?;
        let fresh: Vec<Elem> = vals
            .iter()
            .zip(&tr)
            .filter(|(_, &(_, hit))| !hit)
            .map(|(&v, _)| v)
            .collect();
        self.absorb_new_vals(fresh);
        // A value's id is now its old rank plus the number of fresh values
        // below it, i.e. the misses before it in `vals`.
        let mut missed = 0u32;
        let ids: Vec<u32> = tr
            .iter()
            .map(|&(rank, hit)| {
                let id = rank + missed;
                missed += u32::from(!hit);
                id
            })
            .collect();
        let identity = ids.iter().enumerate().all(|(i, &id)| i as u32 == id);
        (!identity).then_some(ids)
    }

    /// Rewrite every plane through the monotone id map `rs`.
    fn remap_planes(&mut self, rs: &[u32]) {
        for p in &mut self.planes {
            for v in p.iter_mut() {
                *v = rs[*v as usize];
            }
        }
    }

    /// Build the element → id encoder for the current dictionary and a
    /// batch of `pending` elements. The direct table costs a pass over the
    /// value range, so a batch of fewer than 1/16 as many elements
    /// binary-searches instead (a bulk load, whose batch holds every
    /// dictionary value, always gets the table when the range is dense).
    /// The factor is measured: sealing `m` random binary rows into a store
    /// over a dense dictionary of `d` values (`d` = 8.7k, 86k, 865k; one
    /// x86-64 host), the table wins at `d/m ≈ 14` and searching at
    /// `d/m ≈ 55`, and `16 · pending = 32 m` lies between.
    fn encoder(&self, pending: usize) -> Enc {
        match self.dict.last() {
            None => Enc::Search,
            Some(max) => {
                let slots = max.index() + 1;
                if slots <= 8 * self.dict.len() + 8192 && slots <= 16 * pending {
                    let mut t = vec![0u32; slots];
                    for (i, d) in self.dict.iter().enumerate() {
                        t[d.index()] = i as u32;
                    }
                    Enc::Table(t)
                } else {
                    Enc::Search
                }
            }
        }
    }

    /// Encode one element through `enc`; the value must be in the
    /// dictionary (guaranteed after [`extend_dict`](Self::extend_dict)).
    #[inline]
    fn encode(&self, enc: &Enc, e: Elem) -> u32 {
        match enc {
            Enc::Table(t) => t[e.index()],
            Enc::Search => {
                self.dict
                    .binary_search(&e)
                    .expect("pending element missing from dictionary") as u32
            }
        }
    }

    fn seal_unary(&mut self, pend: &[Elem], enc: &Enc) {
        let mut ids: Vec<u32> = pend.iter().map(|&e| self.encode(enc, e)).collect();
        ids.sort_unstable();
        ids.dedup();
        self.absorb_sorted(vec![ids]);
    }

    fn seal_binary(&mut self, pend: &[Elem], prows: usize, enc: &Enc) {
        let mut packed: Vec<u64> = (0..prows)
            .map(|r| {
                let a = self.encode(enc, pend[2 * r]) as u64;
                let b = self.encode(enc, pend[2 * r + 1]) as u64;
                (a << 32) | b
            })
            .collect();
        packed.sort_unstable();
        packed.dedup();
        let mut p0 = Vec::with_capacity(packed.len());
        let mut p1 = Vec::with_capacity(packed.len());
        for &p in &packed {
            p0.push((p >> 32) as u32);
            p1.push(p as u32);
        }
        self.absorb_sorted(vec![p0, p1]);
    }

    fn seal_wide_arity(&mut self, pend: &[Elem], prows: usize, enc: &Enc, wide: bool) {
        let k = self.arity;
        let encd: Vec<u32> = pend.iter().map(|&e| self.encode(enc, e)).collect();
        let idx: Vec<usize> = if wide {
            sort_dedup_rows((0..prows).collect(), |i| i, &encd, k)
        } else {
            debug_assert!(prows <= u32::MAX as usize);
            sort_dedup_rows(
                (0..prows as u32).collect::<Vec<u32>>(),
                |i| i as usize,
                &encd,
                k,
            )
            .into_iter()
            .map(|i| i as usize)
            .collect()
        };
        let batch: Vec<Vec<u32>> = (0..k)
            .map(|c| idx.iter().map(|&i| encd[i * k + c]).collect())
            .collect();
        self.absorb_sorted(batch);
    }

    /// Fold sorted, distinct id planes of this store's dictionary into the
    /// run: into an empty store they become the run as they are, otherwise
    /// they are [spliced](Self::splice) in place.
    fn absorb_sorted(&mut self, batch: Vec<Vec<u32>>) {
        if self.rows == 0 {
            self.rows = batch[0].len();
            self.planes = batch;
        } else {
            self.splice(&batch);
        }
    }

    /// Splice sorted, distinct rows into the sorted run, **in place**.
    /// `batch` holds one id plane per column, in this store's dictionary.
    /// One galloping pass finds each row's position and skips rows already
    /// present; then each plane grows by exactly the number of new rows
    /// (so a batch-maintained store's capacity matches a fresh build's)
    /// and is filled from the back, every run of old rows moved once.
    /// Returns the rows added.
    fn splice<P: AsRef<[u32]>>(&mut self, batch: &[P]) -> usize {
        debug_assert_eq!(batch.len(), self.arity);
        let m = batch.first().map_or(0, |p| p.as_ref().len());
        // (run position, batch row) of every row to add, ascending.
        let mut at: Vec<(usize, usize)> = Vec::new();
        let mut from = 0usize;
        for j in 0..m {
            let (pos, found) = self.locate(from, |c| (batch[c].as_ref()[j], true));
            if found {
                from = pos + 1;
            } else {
                from = pos;
                at.push((pos, j));
            }
        }
        let (n, add) = (self.rows, at.len());
        if add == 0 {
            return 0;
        }
        for (p, col) in self.planes.iter_mut().zip(batch) {
            let col = col.as_ref();
            p.reserve_exact(add);
            p.resize(n + add, 0);
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
        add
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

    /// Seek the row equal to the per-column targets, starting at `from`.
    /// `targets(c)` yields the target id for column `c` plus an exact-hit
    /// flag (false when the sought value is not in this store's
    /// dictionary). Returns the lexicographic lower bound and whether the
    /// row is present.
    fn locate(&self, from: usize, targets: impl Fn(usize) -> (u32, bool)) -> (usize, bool) {
        let k = self.arity;
        debug_assert!(k > 0);
        let (mut lo, mut hi) = (from, self.rows);
        for c in 0..k {
            let (t, exact) = targets(c);
            let w = &self.planes[c][lo..hi];
            let s = if c == 0 { gallop_lb(w, t) } else { lb(w, t) };
            if !exact || s >= w.len() || w[s] != t {
                return (lo + s, false);
            }
            if c + 1 == k {
                return (lo + s, true);
            }
            hi = lo + s + ub(&w[s..], t);
            lo += s;
        }
        (lo, true)
    }

    /// Membership test: chunked-galloping search of the sorted run plus a
    /// linear scan of the pending delta.
    pub fn contains<R: Row>(&self, t: R) -> bool {
        debug_assert_eq!(t.width(), self.arity);
        if self.arity == 0 {
            return self.rows > 0 || self.pending_rows > 0;
        }
        if self.rows > 0 {
            let (_, found) = self.locate(0, |c| match self.dict.binary_search(&t.at(c)) {
                Ok(d) => (d as u32, true),
                Err(d) => (d as u32, false),
            });
            if found {
                return true;
            }
        }
        if self.pending_rows > 0 {
            let k = self.arity;
            return self
                .pending
                .chunks_exact(k)
                .any(|row| (0..k).all(|c| row[c] == t.at(c)));
        }
        false
    }

    /// Insert a single row into the sorted run (sealing first if needed).
    /// Returns true when the row was not already present. The row goes in
    /// at its galloped position with `Vec::insert`, shifting every plane's
    /// tail in place; capacity grows geometrically, so building a store
    /// row by row in order costs amortised `O(log n)` per row. Prefer
    /// batching through [`push`](TupleStore::push)/[`seal`](TupleStore::seal),
    /// which pays the shift once per batch. A value new to the dictionary
    /// and below its maximum still remaps every plane (see
    /// [`seal`](Self::seal)).
    pub fn insert<R: Row>(&mut self, t: R) -> bool {
        debug_assert_eq!(t.width(), self.arity);
        self.seal();
        let k = self.arity;
        if k == 0 {
            if self.rows == 0 {
                self.rows = 1;
                return true;
            }
            return false;
        }
        let mut missing: Vec<Elem> = Vec::new();
        for c in 0..k {
            if self.dict.binary_search(&t.at(c)).is_err() {
                missing.push(t.at(c));
            }
        }
        if !missing.is_empty() {
            missing.sort_unstable();
            missing.dedup();
            self.absorb_new_vals(missing);
        }
        let ids: Vec<u32> = (0..k)
            .map(|c| {
                self.dict
                    .binary_search(&t.at(c))
                    .expect("value just added to dictionary") as u32
            })
            .collect();
        let (pos, found) = self.locate(0, |c| (ids[c], true));
        if found {
            return false;
        }
        for (p, &id) in self.planes.iter_mut().zip(&ids) {
            p.insert(pos, id);
        }
        self.rows += 1;
        true
    }

    /// Remove a row (sealing first if needed). Returns true if present.
    /// The planes' tails shift down in place (`Vec::remove`, capacity
    /// kept); the removed row's values may remain in the dictionary
    /// unreferenced.
    pub fn remove<R: Row>(&mut self, t: R) -> bool {
        debug_assert_eq!(t.width(), self.arity);
        self.seal();
        let k = self.arity;
        if k == 0 {
            if self.rows > 0 {
                self.rows = 0;
                return true;
            }
            return false;
        }
        let mut ids = vec![0u32; k];
        for (c, id) in ids.iter_mut().enumerate() {
            match self.dict.binary_search(&t.at(c)) {
                Ok(d) => *id = d as u32,
                Err(_) => return false,
            }
        }
        let (pos, found) = self.locate(0, |c| (ids[c], true));
        if !found {
            return false;
        }
        for p in &mut self.planes {
            p.remove(pos);
        }
        self.rows -= 1;
        true
    }

    /// Set-union `other` (sealed) into `self` (sealed), in place: the
    /// values of `other`'s dictionary this one lacks are added (see
    /// [`seal`](Self::seal) for the one case that remaps), `other`'s ids
    /// are translated, and its rows are spliced into the
    /// run. A batch of `m` rows costs `O(m · log n)` plus one tail shift.
    /// Into an empty store, `other` is copied as it is.
    pub fn merge(&mut self, other: &TupleStore) {
        debug_assert_eq!(self.arity, other.arity);
        debug_assert!(self.is_sealed() && other.is_sealed());
        if other.rows == 0 {
            return;
        }
        if self.arity == 0 {
            self.rows = self.rows.max(other.rows);
            return;
        }
        if self.rows == 0 {
            self.dict = other.dict.clone();
            self.planes = other.planes.clone();
            self.rows = other.rows;
            return;
        }
        match self.absorb_dict(&other.dict) {
            None => self.splice(&other.planes),
            Some(ids) => {
                let batch: Vec<Vec<u32>> = other
                    .planes
                    .iter()
                    .map(|p| p.iter().map(|&v| ids[v as usize]).collect())
                    .collect();
                self.splice(&batch)
            }
        };
    }

    /// Remove every row of `other` (sealed) from `self` (sealed), in place:
    /// each of `other`'s rows is galloped through a translation of its
    /// dictionary, and the run is compacted forward once. A batch of `m`
    /// rows costs `O(m · log n)` plus one shift of the tail behind its
    /// first hit; an empty batch returns at once. Returns the number of
    /// rows removed; their values may stay in the dictionary unreferenced.
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
        let tr = translation(&other.dict, &self.dict);
        let mut at: Vec<usize> = Vec::new();
        let mut from = 0usize;
        for j in 0..other.rows {
            let (pos, found) = self.locate(from, |c| {
                let id = other.planes[c][j];
                match &tr {
                    Some(t) => t[id as usize],
                    None => (id, true),
                }
            });
            if found {
                at.push(pos);
                from = pos + 1;
            } else {
                from = pos;
            }
        }
        self.drop_rows(&at);
        at.len()
    }

    /// Rows of `self` (sealed) absent from `other` (sealed), as a new
    /// sealed store sharing `self`'s dictionary. Gallops through `other`
    /// via an id translation table so a small `self` against a large
    /// `other` costs `O(|self| · log |other|)` with no decoding.
    pub fn difference(&self, other: &TupleStore) -> TupleStore {
        debug_assert_eq!(self.arity, other.arity);
        debug_assert!(self.is_sealed() && other.is_sealed());
        let k = self.arity;
        let mut out = TupleStore::new(k);
        if k == 0 {
            out.rows = usize::from(self.rows > 0 && other.rows == 0);
            return out;
        }
        if self.rows == 0 {
            return out;
        }
        if other.rows == 0 {
            return self.clone();
        }
        let tr = translation(&self.dict, &other.dict);
        out.dict = self.dict.clone();
        let mut j = 0usize;
        for i in 0..self.rows {
            let (nj, found) = other.locate(j, |c| {
                let id = self.planes[c][i];
                match &tr {
                    Some(t) => t[id as usize],
                    None => (id, true),
                }
            });
            j = nj;
            if found {
                j += 1;
                continue;
            }
            for c in 0..k {
                out.planes[c].push(self.planes[c][i]);
            }
            out.rows += 1;
        }
        out
    }

    /// Rows present in both `self` and `other` (both sealed), as a new
    /// sealed store sharing `self`'s dictionary. Gallops the larger
    /// operand from the smaller one so the cost is `O(min · log max)`.
    pub fn intersection(&self, other: &TupleStore) -> TupleStore {
        debug_assert_eq!(self.arity, other.arity);
        debug_assert!(self.is_sealed() && other.is_sealed());
        let k = self.arity;
        let mut out = TupleStore::new(k);
        if k == 0 {
            out.rows = self.rows.min(other.rows);
            return out;
        }
        if self.rows == 0 || other.rows == 0 {
            return out;
        }
        out.dict = self.dict.clone();
        if self.rows <= other.rows {
            let tr = translation(&self.dict, &other.dict);
            let mut j = 0usize;
            for i in 0..self.rows {
                let (nj, found) = other.locate(j, |c| {
                    let id = self.planes[c][i];
                    match &tr {
                        Some(t) => t[id as usize],
                        None => (id, true),
                    }
                });
                j = nj;
                if found {
                    for c in 0..k {
                        out.planes[c].push(self.planes[c][i]);
                    }
                    out.rows += 1;
                    j += 1;
                }
            }
        } else {
            let tr = translation(&other.dict, &self.dict);
            let mut i = 0usize;
            for j in 0..other.rows {
                let (ni, found) = self.locate(i, |c| {
                    let id = other.planes[c][j];
                    match &tr {
                        Some(t) => t[id as usize],
                        None => (id, true),
                    }
                });
                i = ni;
                if found {
                    for c in 0..k {
                        out.planes[c].push(self.planes[c][i]);
                    }
                    out.rows += 1;
                    i += 1;
                }
            }
        }
        out
    }

    /// The contiguous range of sorted-run row indices whose first
    /// `prefix.len()` elements equal `prefix` (sealed stores only). One
    /// chunked binary search per prefix column, narrowing the equal group;
    /// an empty prefix selects every row. This is the probe primitive
    /// behind the evaluator's natural and permuted secondary indexes: an
    /// EDB relation whose join key is a column prefix needs *no* index
    /// build at all — `prefix_range(key)` is the matching row set.
    pub fn prefix_range(&self, prefix: &[Elem]) -> std::ops::Range<usize> {
        debug_assert!(self.is_sealed());
        debug_assert!(prefix.len() <= self.arity);
        let (mut lo, mut hi) = (0usize, self.rows);
        for (c, v) in prefix.iter().enumerate() {
            let w = &self.planes[c][lo..hi];
            match self.dict.binary_search(v) {
                Ok(d) => {
                    let id = d as u32;
                    let s = lb(w, id);
                    if s >= w.len() || w[s] != id {
                        return lo + s..lo + s;
                    }
                    hi = lo + s + ub(&w[s..], id);
                    lo += s;
                }
                Err(d) => {
                    let s = lb(w, d as u32);
                    return lo + s..lo + s;
                }
            }
        }
        lo..hi
    }

    /// True when every sealed row of `self` is a row of `other` (both
    /// sealed). Galloping merge scan over translated ids.
    pub fn is_subset(&self, other: &TupleStore) -> bool {
        debug_assert_eq!(self.arity, other.arity);
        debug_assert!(self.is_sealed() && other.is_sealed());
        if self.arity == 0 {
            return self.rows <= other.rows;
        }
        if self.rows > other.rows {
            return false;
        }
        if self.rows == 0 {
            return true;
        }
        let tr = translation(&self.dict, &other.dict);
        let mut j = 0usize;
        for i in 0..self.rows {
            let (nj, found) = other.locate(j, |c| {
                let id = self.planes[c][i];
                match &tr {
                    Some(t) => t[id as usize],
                    None => (id, true),
                }
            });
            if !found {
                return false;
            }
            j = nj + 1;
        }
        true
    }

    /// Drop all rows (sealed and pending) and the dictionary, keeping the
    /// allocations.
    pub fn clear(&mut self) {
        self.rows = 0;
        for p in &mut self.planes {
            p.clear();
        }
        self.dict.clear();
        self.pending_rows = 0;
        self.pending.clear();
    }

    /// Bytes of heap held (capacity, not just length) across the id
    /// planes, the dictionary, and the pending arena — the store's
    /// contribution to peak memory. `#![forbid(unsafe_code)]` rules out a
    /// counting allocator, so footprint reporting is analytic.
    pub fn heap_bytes(&self) -> usize {
        let planes: usize = self.planes.iter().map(Vec::capacity).sum();
        planes * std::mem::size_of::<u32>()
            + self.dict.capacity() * std::mem::size_of::<Elem>()
            + self.pending.capacity() * std::mem::size_of::<Elem>()
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
        if self.arity != other.arity || self.rows != other.rows {
            return false;
        }
        if self.dict == other.dict {
            return self.planes == other.planes;
        }
        // Dictionaries may differ (stale entries after `remove`): compare
        // decoded content column by column.
        (0..self.arity).all(|c| {
            (0..self.rows).all(|i| {
                self.dict[self.planes[c][i] as usize] == other.dict[other.planes[c][i] as usize]
            })
        })
    }
}

impl Eq for TupleStore {}

impl Hash for TupleStore {
    fn hash<H: Hasher>(&self, state: &mut H) {
        debug_assert!(self.is_sealed());
        self.arity.hash(state);
        self.rows.hash(state);
        // Decode so two stores with equal content but different
        // dictionaries (stale entries) hash alike, consistent with `Eq`.
        for i in 0..self.rows {
            for c in 0..self.arity {
                self.dict[self.planes[c][i] as usize].hash(state);
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
        // Values near u32::MAX force the sort-based dictionary collection
        // and the binary-search encoder; mixing in small values exercises
        // a non-append dictionary extension with plane remap.
        let mut s = TupleStore::new(2);
        s.push(&[Elem(u32::MAX), Elem(u32::MAX - 7)]);
        s.push(&[Elem(3), Elem(u32::MAX)]);
        s.seal();
        assert_eq!(
            rows_of(&s),
            vec![vec![3, u32::MAX], vec![u32::MAX, u32::MAX - 7]]
        );
        // Second seal inserts a value *below* the existing maximum: ids
        // must be remapped and previously sealed rows keep their content.
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
    fn cross_dictionary_set_ops_compare_by_value() {
        // a and b have disjoint dictionaries except for one shared value.
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
    fn stale_dictionary_entries_do_not_break_equality() {
        // `remove` leaves the removed values in the dictionary; a store
        // that never saw them must still compare (and hash) equal.
        let mut a = TupleStore::new(1);
        for i in [1u32, 5, 9] {
            a.insert(&[Elem(i)]);
        }
        a.remove(&[Elem(5)]);
        let mut b = TupleStore::new(1);
        for i in [1u32, 9] {
            b.insert(&[Elem(i)]);
        }
        assert_eq!(a.dict_len(), 3);
        assert_eq!(b.dict_len(), 2);
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
    fn dictionary_remap_is_stable_across_seals() {
        // Interleave seals so each one lands new values below the current
        // dictionary maximum, forcing repeated remaps.
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
