//! Column-plane tuple storage: element values in a structure-of-arrays
//! layout, cut into fixed-size sorted pages, with chunked galloping kernels.
//!
//! [`TupleStore`] is the single physical representation behind
//! [`Relation`](crate::Relation) and the evaluator's IDB relations. Tuples
//! live in a **structure-of-arrays** layout:
//!
//! * the **sorted run** — rows in lexicographic order, deduplicated — is
//!   cut into **pages** of at most [`PAGE`] rows. A page holds one plane
//!   (`Vec<Elem>`) per column, all of the page's length, and the store
//!   keeps every page's planes in one vector, page after page. A cell is
//!   the element value itself: an [`Elem`] is already a dense `u32` index
//!   into the universe `{0, …, n−1}`, so there is nothing to encode or
//!   decode;
//! * a **page index** — for every page after the first, its first row and
//!   that row's run index — so a search gallops the index to one page, then
//!   that page's planes, and a run index resolves to its page by one search
//!   of the page starts. A one-page store keeps no index;
//! * a **pending delta** — rows appended in arrival order, possibly
//!   duplicated, batching inserts so a bulk load costs one sort + merge
//!   instead of `n` single-row inserts.
//!
//! [`seal`](TupleStore::seal) folds the pending delta into the sorted run.
//! At arity 1 the values are universe indices, so a dense batch is marked
//! in a [`BitSet`] over `0..=max` and read back in order; a sparse unary
//! batch sorts its `u32` values directly, arity 2 sorts packed `u64` pairs,
//! and wider rows sort an index. The sorted batch is cut into full pages as
//! it is read out; into an empty store those pages become the run.
//! Every read (`contains`, `iter`, equality, hashing) is defined over the
//! *sealed* content; `contains` additionally scans the pending region so
//! unsealed stores still answer membership correctly.
//!
//! Writes into a sealed run are in place and **shift within one page**:
//! the splice behind `seal`, [`merge`](TupleStore::merge) and the
//! single-row [`insert`](TupleStore::insert) gallops each new row's page and
//! position, grows each touched page's planes by exactly the rows it gains
//! and fills them from the back; a page that outgrows [`PAGE`] rows is
//! written once into the fewest equal pages. [`subtract`](TupleStore::subtract)
//! and the single-row [`remove`](TupleStore::remove) compact each touched
//! page forward once and shrink its planes; a page left below a quarter
//! full joins its neighbour. So a write of `m` rows costs `O(m · log n)`
//! searches plus at most one page's shift per touched page, whatever the
//! run's length. At arity 1 a batch of at least an eighth of the run is
//! merged linearly instead, `O(n + m)`, and cut into full pages. On every
//! write path plane capacity tracks length, so the planes' share of
//! [`heap_bytes`](TupleStore::heap_bytes) equals a fresh build's; only the
//! page index, a few words per page after the first, depends on where the
//! pages were cut.
//!
//! The search kernels run on the **lead plane first**: a binary search —
//! or, from a cursor, an exponential gallop — narrows to a window of at
//! most 64 values, which a branch-free `(v < target) as usize` counting
//! loop — a shape LLVM autovectorizes — resolves; equal-lead groups then
//! narrow column by column the same way, and each group's end gallops
//! from its start. Across pages the same search runs on the page index
//! first, comparing the target with each page's first row, and an equal
//! group that reaches a page's end continues on the following pages. The
//! batch kernels ([`merge`](TupleStore::merge),
//! [`subtract`](TupleStore::subtract),
//! [`difference`](TupleStore::difference),
//! [`intersection`](TupleStore::intersection)) gallop from an advancing
//! cursor; `contains` and [`prefix_range`](TupleStore::prefix_range)
//! search the whole run, and [`prefix_rows`](TupleStore::prefix_rows)
//! gallops from a caller's [`Cursor`] — a page and an offset — when it is
//! valid. Cross-store operations read the other store's pages as they are;
//! equality and hashing compare rows, not page boundaries, so a bulk load
//! and a store grown row by row are equal.
//!
//! Rows are handed out as [`RowRef`] — a `Copy` handle on the row's page
//! planes and its offset there, which reads the planes on access (see
//! [`crate::row`]). A row's page is resolved once per probe range or scan
//! ([`prefix_rows`](TupleStore::prefix_rows),
//! [`rows_in`](TupleStore::rows_in), [`iter`](TupleStore::iter)), not once
//! per cell. Arity-0 relations (nullary predicates) are supported: their
//! pages hold no planes, and the one row `()` is present iff the run has a
//! page.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use crate::bitset::BitSet;
use crate::elem::Elem;
use crate::row::{Row, RowRef};

/// Rows per page of a sorted run: a single-row write shifts at most this
/// many rows per plane. 4096 binary rows are 32 KiB of planes; EXPERIMENTS.md
/// (E-IVM) records the sizes measured.
pub const PAGE: usize = 4096;

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

/// First index in `lo..hi` where `below` turns false (`below` holds on a
/// prefix of the range): an exponential gallop from `lo` when `near`, then
/// binary halving. The page-index search, over a few hundred pages.
#[inline]
fn partition(mut lo: usize, mut hi: usize, near: bool, below: impl Fn(usize) -> bool) -> usize {
    if near {
        let mut step = 1usize;
        while lo + step <= hi {
            let probe = lo + step - 1;
            if !below(probe) {
                hi = probe;
                break;
            }
            lo = probe + 1;
            step <<= 1;
        }
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
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

/// The sorted rows `0..n` of a batch cut into full pages, the last one
/// holding the rest, as a run's planes page by page: `planes(range)` reads
/// out the batch rows at `range`, one plane per column.
fn cut(n: usize, mut planes: impl FnMut(Range<usize>) -> Vec<Vec<Elem>>) -> Vec<Vec<Elem>> {
    (0..n)
        .step_by(PAGE)
        .flat_map(|lo| planes(lo..n.min(lo + PAGE)))
        .collect()
}

/// A row position: a page, and an offset in it. An offset equal to the
/// page's length stands just past its last row, where a row sorting
/// between this page and the next is inserted.
#[derive(Clone, Copy, Debug, Default)]
struct Pos {
    page: usize,
    off: usize,
}

impl Pos {
    const START: Pos = Pos { page: 0, off: 0 };

    /// The position `by` rows further on the same page.
    #[inline]
    fn skip(self, by: bool) -> Pos {
        Pos {
            off: self.off + usize::from(by),
            ..self
        }
    }
}

/// Where a run of probes on a sealed store stands: the start of the last
/// probe's range, as a page and an offset on it
/// ([`TupleStore::prefix_rows`]). The default cursor stands at row 0. Any
/// cursor is safe with any store: a probe trusts it only when it lies in
/// the run and the row before it sorts below the probe's key, and otherwise
/// searches from row 0, so the answer never depends on it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cursor(Pos);

/// A set of same-arity tuples in paged column-plane layout.
///
/// See the module docs for the layout. Invariants:
///
/// * `planes` holds `arity` planes per page, page after page: page `p`'s
///   plane for column `c` is `planes[p * arity + c]`. Every page holds
///   `1..=PAGE` rows, and each of its planes has that length; a nullary
///   store's only page holds `()` and no planes;
/// * the pages' rows, read in page order, are lexicographically sorted
///   and distinct, and number `rows`;
/// * page 0 opens the run at row 0; for every later page `p`,
///   `starts[p - 1]` is the run index of its first row and
///   `heads[(p - 1) * arity..][..arity]` is that row, so a one-page store
///   keeps no page index at all;
/// * `pending` holds `pending_rows * arity` elements in insertion order,
///   possibly duplicated, until [`seal`](TupleStore::seal).
///
/// Row *counts* are `usize` throughout; only external consumers that
/// compress row ids to `u32` (the evaluator's hash indexes) need a
/// capacity check.
///
/// Equality and hashing require a sealed store (checked with
/// `debug_assert`) and compare the row sequences, whatever the page
/// boundaries. [`Relation`](crate::Relation) maintains "sealed after every
/// `&mut` method returns" so its comparisons are always canonical.
#[derive(Clone)]
pub struct TupleStore {
    arity: usize,
    /// Number of rows in the sorted run.
    rows: usize,
    /// Number of pages in the sorted run.
    pages: usize,
    /// The sorted run's planes, page by page.
    planes: Vec<Vec<Elem>>,
    /// The run index of the first row of each page after the first.
    starts: Vec<usize>,
    /// The first row of each page after the first, row-major.
    heads: Vec<Elem>,
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
    /// buffered rows (the pages size themselves exactly at seal).
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        TupleStore {
            arity,
            rows: 0,
            pages: 0,
            planes: Vec::new(),
            starts: Vec::new(),
            heads: Vec::new(),
            pending_rows: 0,
            pending: Vec::with_capacity(rows * arity),
        }
    }

    /// A sealed store (of arity at least 1) whose run is `planes`, page by
    /// page.
    fn from_planes(arity: usize, planes: Vec<Vec<Elem>>) -> Self {
        let mut s = TupleStore::new(arity);
        s.planes = planes;
        s.reindex(0);
        s
    }

    /// A sealed store whose run is the sorted, distinct rows of `planes`,
    /// one plane per column (at least one): the planes themselves when they
    /// fit on one page, else cut into full pages.
    fn paged(planes: Vec<Vec<Elem>>) -> Self {
        let (k, n) = (planes.len(), planes[0].len());
        match n {
            0 => return TupleStore::new(k),
            1..=PAGE => return TupleStore::from_planes(k, planes),
            _ => {}
        }
        TupleStore::from_planes(
            k,
            cut(n, |r| {
                planes.iter().map(|p| p[r.clone()].to_vec()).collect()
            }),
        )
    }

    /// The sealed nullary store holding `()` iff `present`.
    fn nullary(present: bool) -> Self {
        let mut s = TupleStore::new(0);
        s.rows = usize::from(present);
        s.pages = s.rows;
        s
    }

    /// Recompute the page count, the page index from page `from` on, and
    /// the row count, after a write to the planes (arity at least 1).
    fn reindex(&mut self, from: usize) {
        let k = self.arity;
        self.pages = self.planes.len() / k;
        let from = from.clamp(1, self.pages.max(1));
        self.starts.truncate(from - 1);
        self.heads.truncate((from - 1) * k);
        let mut at = match self.pages {
            0 => 0,
            _ => self.start(from - 1) + self.page_len(from - 1),
        };
        for page in self.planes.chunks_exact(k).skip(from) {
            self.starts.push(at);
            self.heads.extend(page.iter().map(|plane| plane[0]));
            at += page[0].len();
        }
        self.rows = at;
        debug_assert!(self.well_formed());
    }

    /// The planes of page `p`, one per column.
    #[inline]
    fn page(&self, p: usize) -> &[Vec<Elem>] {
        &self.planes[p * self.arity..(p + 1) * self.arity]
    }

    /// The rows on page `p`.
    #[inline]
    fn page_len(&self, p: usize) -> usize {
        match self.arity {
            0 => 1,
            k => self.planes[p * k].len(),
        }
    }

    /// The run index of page `p`'s first row.
    #[inline]
    fn start(&self, p: usize) -> usize {
        match p {
            0 => 0,
            _ => self.starts[p - 1],
        }
    }

    /// The layout invariants, on the page level: page lengths, the page
    /// index, and row order across every page boundary.
    fn well_formed(&self) -> bool {
        let k = self.arity;
        let mut at = 0;
        let later = self.pages.saturating_sub(1);
        if self.planes.len() != self.pages * k
            || self.starts.len() != later
            || self.heads.len() != later * k
        {
            return false;
        }
        for p in 0..self.pages {
            let (page, n) = (self.page(p), self.page_len(p));
            if !(1..=PAGE).contains(&n)
                || page.iter().any(|plane| plane.len() != n)
                || self.start(p) != at
            {
                return false;
            }
            if p > 0
                && ((0..k).any(|c| self.heads[(p - 1) * k + c] != page[c][0])
                    || self.row_at(self.last_of(p - 1)) >= self.row_at(Pos { page: p, off: 0 }))
            {
                return false;
            }
            at += n;
        }
        at == self.rows
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

    /// The position of run index `i`, at most `rows` (which maps past the
    /// last page's end). No page holds more than [`PAGE`] rows, so the
    /// page is at least `i / PAGE`, and the search of the page starts
    /// gallops from there: one step when the pages are full, as a bulk
    /// load cuts them. The run must have a page.
    #[inline]
    fn pos(&self, i: usize) -> Pos {
        let low = (i / PAGE).min(self.pages - 1);
        let page = low + gallop(&self.starts[low..], |s| s <= i);
        Pos {
            page,
            off: i - self.start(page),
        }
    }

    /// The last row of page `p`.
    #[inline]
    fn last_of(&self, p: usize) -> Pos {
        Pos {
            page: p,
            off: self.page_len(p) - 1,
        }
    }

    /// The row at `at`, which must hold one.
    #[inline]
    fn row_at(&self, at: Pos) -> RowRef<'_> {
        RowRef {
            planes: self.page(at.page),
            row: at.off,
        }
    }

    /// The `i`-th row of the sorted run, as a zero-copy handle. Resolves
    /// the row's page; to read a range of rows, resolve it once with
    /// [`rows_in`](TupleStore::rows_in).
    #[inline]
    pub fn row(&self, i: usize) -> RowRef<'_> {
        debug_assert!(i < self.rows);
        self.row_at(self.pos(i))
    }

    /// Iterate the sorted run in lexicographic order (zero-copy handles).
    pub fn iter(&self) -> Rows<'_> {
        self.rows_at(Pos::START, self.rows)
    }

    /// The rows of the sorted run at the run indices `range`, in order:
    /// the first row's page is resolved once, then the iterator walks the
    /// pages.
    pub fn rows_in(&self, range: Range<usize>) -> Rows<'_> {
        debug_assert!(range.end <= self.rows);
        if range.is_empty() {
            return Rows::default();
        }
        self.rows_at(self.pos(range.start), range.len())
    }

    /// The `n` rows from `at` on.
    #[inline]
    fn rows_at(&self, mut at: Pos, n: usize) -> Rows<'_> {
        if n == 0 {
            return Rows::default();
        }
        if at.off == self.page_len(at.page) {
            at = Pos {
                page: at.page + 1,
                off: 0,
            };
        }
        let (planes, len) = (self.page(at.page), self.page_len(at.page));
        if at.off + n <= len {
            return Rows {
                planes,
                at: at.off,
                end: at.off + n,
                ..Rows::default()
            };
        }
        let last = self.pos(self.start(at.page) + at.off + n - 1);
        let k = self.arity;
        Rows {
            planes,
            at: at.off,
            end: len,
            rest: &self.planes[(at.page + 1) * k..(last.page + 1) * k],
            back: last.off + 1,
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
    /// pending rows, cutting them into full pages as they are read out,
    /// then splice them into the existing run **in place** — each new
    /// row's page and position are galloped, and each touched page grows by
    /// exactly its new rows and is filled from the back — so a batch of
    /// `m` rows costs `O(m · log n)` searches plus one shift of each
    /// touched page. Into an empty store the batch's pages become the run.
    /// Idempotent; a no-op when sealed.
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
            (self.rows, self.pages, self.pending_rows) = (1, 1, 0);
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
                // On one page, the arena itself, whose capacity the dedup
                // left behind.
                pend.shrink_to_fit();
                TupleStore::paged(vec![pend]).planes
            }
            2 => {
                let mut packed: Vec<u64> = pend
                    .chunks_exact(2)
                    .map(|r| (u64::from(r[0].0) << 32) | u64::from(r[1].0))
                    .collect();
                packed.sort_unstable();
                packed.dedup();
                cut(packed.len(), |r| {
                    let page = &packed[r];
                    let p0 = page.iter().map(|&p| Elem((p >> 32) as u32)).collect();
                    let p1 = page.iter().map(|&p| Elem(p as u32)).collect();
                    vec![p0, p1]
                })
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
                cut(idx.len(), |r| {
                    let page = &idx[r];
                    (0..k)
                        .map(|c| page.iter().map(|&i| pend[i * k + c]).collect())
                        .collect()
                })
            }
        };
        if self.rows == 0 {
            self.planes = batch;
            self.reindex(0);
        } else {
            self.splice(TupleStore::from_planes(k, batch).iter());
        }
    }

    /// Splice sorted, distinct rows into the sorted run (which must have a
    /// page), **in place**: one galloping pass finds each row's page and
    /// position and skips rows already present, then
    /// [`insert_at`](TupleStore::insert_at) writes them.
    fn splice<R: Row>(&mut self, rows: impl IntoIterator<Item = R>) {
        let mut at: Vec<(Pos, R)> = Vec::new();
        let mut from = Pos::START;
        for t in rows {
            let (pos, found) = self.locate(Some(from), |c| t.at(c));
            from = pos.skip(found);
            if !found {
                at.push((pos, t));
            }
        }
        self.insert_at(&at);
    }

    /// Insert each row at its position (ascending; none present). Each
    /// touched page grows its planes by exactly its new rows (so capacity
    /// tracks length, as in a fresh build) and fills them from the back,
    /// each run of old rows moved once; a page that outgrows [`PAGE`] rows
    /// then [splits](TupleStore::split). Pages are visited last to first,
    /// so a split never moves a page still to be written.
    fn insert_at<R: Row>(&mut self, at: &[(Pos, R)]) {
        let Some(first) = at.first().map(|(p, _)| p.page) else {
            return;
        };
        let mut end = at.len();
        while end > 0 {
            let page = at[end - 1].0.page;
            let begin = at[..end]
                .iter()
                .rposition(|(p, _)| p.page != page)
                .map_or(0, |i| i + 1);
            let group = &at[begin..end];
            let (k, n) = (self.arity, self.page_len(page));
            let total = n + group.len();
            for (c, plane) in self.planes[page * k..(page + 1) * k].iter_mut().enumerate() {
                if total > PAGE {
                    // The page splits: write its rows once, in order, into
                    // a plane of the new length, and cut that.
                    let mut merged = Vec::with_capacity(total);
                    let mut lo = 0;
                    for (pos, t) in group {
                        merged.extend_from_slice(&plane[lo..pos.off]);
                        merged.push(t.at(c));
                        lo = pos.off;
                    }
                    merged.extend_from_slice(&plane[lo..]);
                    *plane = merged;
                    continue;
                }
                plane.reserve_exact(group.len());
                plane.resize(total, Elem(0));
                let mut hi = n;
                for (i, (pos, t)) in group.iter().enumerate().rev() {
                    // Old rows `pos.off..hi` have `i + 1` new rows before them.
                    plane.copy_within(pos.off..hi, pos.off + i + 1);
                    plane[pos.off + i] = t.at(c);
                    hi = pos.off;
                }
            }
            if total > PAGE {
                self.split(page);
            }
            end = begin;
        }
        self.reindex(first);
    }

    /// Cut an overfull page into the fewest equal pages of at most
    /// [`PAGE`] rows. Each later piece is split off the back of the page's
    /// planes at its length, and the first is shrunk to fit.
    fn split(&mut self, page: usize) {
        let (k, n) = (self.arity, self.page_len(page));
        let parts = n.div_ceil(PAGE);
        let planes = &mut self.planes[page * k..(page + 1) * k];
        let mut tail: Vec<Vec<Vec<Elem>>> = (1..parts)
            .rev()
            .map(|i| {
                planes
                    .iter_mut()
                    .map(|p| p.split_off(n * i / parts))
                    .collect()
            })
            .collect();
        planes.iter_mut().for_each(Vec::shrink_to_fit);
        tail.reverse();
        let at = (page + 1) * k;
        self.planes.splice(at..at, tail.into_iter().flatten());
        self.pages += parts - 1;
    }

    /// Delete the rows at the positions `at` (ascending, each holding a
    /// row), in place: each touched page's kept rows move down once with
    /// `copy_within`, and its planes are truncated and shrunk so capacity
    /// tracks length; then every touched page left below a quarter full
    /// joins a neighbour ([`rebalance`](TupleStore::rebalance)).
    fn drop_at(&mut self, at: &[Pos]) {
        let Some(first) = at.first().map(|p| p.page) else {
            return;
        };
        let mut touched = Vec::new();
        let mut end = at.len();
        while end > 0 {
            let page = at[end - 1].page;
            let begin = at[..end]
                .iter()
                .rposition(|p| p.page != page)
                .map_or(0, |i| i + 1);
            let group = &at[begin..end];
            let (k, n) = (self.arity, self.page_len(page));
            for plane in &mut self.planes[page * k..(page + 1) * k] {
                for (i, pos) in group.iter().enumerate() {
                    let hi = group.get(i + 1).map_or(n, |q| q.off);
                    plane.copy_within(pos.off + 1..hi, pos.off - i);
                }
                plane.truncate(n - group.len());
                plane.shrink_to_fit();
            }
            touched.push(page);
            end = begin;
        }
        // Descending, so a join never moves a page still to be visited.
        for page in touched {
            self.rebalance(page);
        }
        if self.pages == 1 && self.page_len(0) == 0 {
            self.planes.clear();
        }
        self.reindex(first.saturating_sub(1));
    }

    /// Join page `page`, when it is below a quarter full and not the only
    /// page, with its next page (its previous, if it is the last): into one
    /// page when they fit, else into two equal ones.
    fn rebalance(&mut self, page: usize) {
        if self.pages < 2 || self.page_len(page) >= PAGE / 4 {
            return;
        }
        let (k, a) = (self.arity, page.min(self.pages - 2));
        let b: Vec<Vec<Elem>> = self.planes.drain((a + 1) * k..(a + 2) * k).collect();
        self.pages -= 1;
        for (p, q) in self.planes[a * k..(a + 1) * k].iter_mut().zip(&b) {
            p.reserve_exact(q.len());
            p.extend_from_slice(q);
        }
        if self.page_len(a) > PAGE {
            self.split(a);
        }
    }

    /// The rows whose first `k` cells are `target(0..k)`, as a run range,
    /// and the position of its start; when there are none, the empty range
    /// sits at their lexicographic lower bound. The search narrows on the
    /// last page whose first row sorts below the target
    /// ([`page_of`](TupleStore::page_of)), then on that page's planes
    /// ([`narrow_page`]); a group that reaches the page's end continues over
    /// the following pages whose first rows match. With `from = Some(at)`,
    /// every row before `at` must sort below the target.
    fn narrow(
        &self,
        from: Option<Pos>,
        k: usize,
        target: impl Fn(usize) -> Elem,
    ) -> (Pos, Range<usize>) {
        let n = self.pages;
        if n == 0 {
            return (Pos::START, 0..0);
        }
        let (page, local) = self.page_of(from, k, &target, false);
        let planes = self.page(page);
        let len = planes.first().map_or(1, Vec::len);
        let r = narrow_page(planes, len, local, k, &target);
        let start = self.start(page);
        let mut end = start + r.end;
        if r.end == len && page + 1 < n {
            // Pages `page + 1..q` open with the target's cells.
            let q = partition(page + 1, n, true, |p| self.head_below(p, k, &target, true));
            if q > page + 1 {
                let last = (self.page(q - 1), self.page_len(q - 1));
                end = self.start(q - 1) + narrow_page(last.0, last.1, Some(0), k, &target).end;
            }
        }
        (Pos { page, off: r.start }, start + r.start..end)
    }

    /// The page a search for `target(0..k)` narrows on, and the offset on
    /// it to gallop from: the last page whose first row, cut to `k` cells,
    /// sorts below the target (at or below it, when `or_equal`). From a
    /// cursor (`Some`) the page index is galloped from the cursor's page,
    /// and the page's planes from the cursor, or from the front of a later
    /// page, whose first row sorts below the target too; without one
    /// (`None`) both searches are binary. The run must have a page.
    #[inline]
    fn page_of(
        &self,
        from: Option<Pos>,
        k: usize,
        target: &impl Fn(usize) -> Elem,
        or_equal: bool,
    ) -> (usize, Option<usize>) {
        let lo = from.map_or(0, |at| at.page);
        let below = |p| self.head_below(p, k, target, or_equal);
        let page = partition(lo + 1, self.pages, from.is_some(), below) - 1;
        let local = from.map(|at| if at.page == page { at.off } else { 0 });
        (page, local)
    }

    /// Whether the first row of page `p` (not the first page), cut to `k`
    /// cells, sorts below `target(0..k)` (or equals it, when `or_equal`).
    #[inline]
    fn head_below(
        &self,
        p: usize,
        k: usize,
        target: &impl Fn(usize) -> Elem,
        or_equal: bool,
    ) -> bool {
        let head = &self.heads[(p - 1) * self.arity..][..k];
        for (c, &h) in head.iter().enumerate() {
            let t = target(c);
            if h != t {
                return h < t;
            }
        }
        or_equal
    }

    /// Seek the row whose cell in column `c` is `target(c)`, from a cursor
    /// (`Some`, galloping) or over the whole run (`None`). Returns the
    /// lexicographic lower bound — the row itself, when present — and
    /// whether the row is present. Rows are distinct, so a present row lies
    /// on the last page whose first row sorts at or below it, and no group
    /// continues past a page's end.
    fn locate(&self, from: Option<Pos>, target: impl Fn(usize) -> Elem) -> (Pos, bool) {
        debug_assert!(self.arity > 0);
        if self.pages == 0 {
            return (Pos::START, false);
        }
        let (page, local) = self.page_of(from, self.arity, &target, true);
        let len = self.page_len(page);
        let r = narrow_page(self.page(page), len, local, self.arity, &target);
        (Pos { page, off: r.start }, !r.is_empty())
    }

    /// The rows of `probe` (sealed) whose presence in `base` (sealed)
    /// equals `keep`, as a new sealed store: one galloping pass through
    /// `base` from an advancing cursor, `O(|probe| · log |base|)`. At
    /// arity 1, when `probe` holds at least an eighth as many rows as
    /// `base`, the gallops would land a few values apart, so `base` is
    /// walked linearly instead, page after page, `O(|probe| + |base|)`.
    fn filter(probe: &TupleStore, base: &TupleStore, keep: bool) -> TupleStore {
        if probe.arity == 1 && probe.rows.saturating_mul(8) >= base.rows {
            // At arity 1 each page is one plane: walk the concatenations.
            let (p, b) = (probe.planes.concat(), base.planes.concat());
            let mut j = 0;
            let kept = p.into_iter().filter(|&v| {
                while j < b.len() && b[j] < v {
                    j += 1;
                }
                (j < b.len() && b[j] == v) == keep
            });
            return TupleStore::paged(vec![kept.collect()]);
        }
        let mut out = vec![Vec::new(); probe.arity];
        let mut from = Pos::START;
        for t in probe.iter() {
            let (pos, found) = base.locate(Some(from), |c| t.get(c));
            from = pos.skip(found);
            if found == keep {
                for (c, plane) in out.iter_mut().enumerate() {
                    plane.push(t.get(c));
                }
            }
        }
        TupleStore::paged(out)
    }

    /// The sorted run with column `perm[c]` as column `c`, where `perm`
    /// moves one column to the front and keeps the rest in order: a stable
    /// counting sort on that column leaves rows with one key in this run's
    /// order, which is the rest's. Linear, writing each row straight into
    /// its full page of the result; beside the result it holds one count
    /// per key value. `None` when the key values are sparse (one exceeds
    /// `len + 1024`) or the rows too many for `u32` counts.
    pub(crate) fn lead_sorted(&self, perm: &[usize]) -> Option<TupleStore> {
        let n = self.rows;
        let k = self.arity;
        let keys = || self.planes.iter().skip(perm[0]).step_by(k).flatten();
        let bound = keys().map(|e| e.index() + 1).max().unwrap_or(0);
        if bound > n + 1024 || u32::try_from(n).is_err() {
            return None;
        }
        // `next[v]`: the output row the next row with key `v` goes to.
        let mut next = vec![0u32; bound + 1];
        for e in keys() {
            next[e.index() + 1] += 1;
        }
        for v in 1..=bound {
            next[v] += next[v - 1];
        }
        let mut planes = cut(n, |r| vec![vec![Elem(0); r.len()]; k]);
        for page in self.planes.chunks_exact(k) {
            for (i, e) in page[perm[0]].iter().enumerate() {
                let j = next[e.index()] as usize;
                next[e.index()] += 1;
                let out = &mut planes[j / PAGE * k..][..k];
                for (plane, &c) in out.iter_mut().zip(perm) {
                    plane[j % PAGE] = page[c][i];
                }
            }
        }
        Some(TupleStore::from_planes(k, planes))
    }

    /// Membership test: a chunked binary search of the page index and one
    /// page, plus a linear scan of the pending delta.
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
    /// Returns true when the row was not already present. The one-row case
    /// of the splice behind [`seal`](TupleStore::seal): the row's page and
    /// position are galloped, and only that page's planes shift, growing by
    /// exactly one row (a full page splits in two), so a write costs
    /// `O(log n + PAGE)` whatever the run's length.
    pub fn insert<R: Row>(&mut self, t: R) -> bool {
        debug_assert_eq!(t.width(), self.arity);
        self.seal();
        if self.arity == 0 || self.rows == 0 {
            let added = self.rows == 0;
            self.push(t);
            self.seal();
            return added;
        }
        let (pos, found) = self.locate(None, |c| t.at(c));
        if !found {
            self.insert_at(&[(pos, t)]);
        }
        !found
    }

    /// Remove a row (sealing first if needed). Returns true if present. The
    /// one-row case of [`subtract`](TupleStore::subtract): only the row's
    /// page shifts down and shrinks.
    pub fn remove<R: Row>(&mut self, t: R) -> bool {
        debug_assert_eq!(t.width(), self.arity);
        self.seal();
        if self.arity == 0 {
            let removed = self.rows > 0;
            *self = TupleStore::nullary(false);
            return removed;
        }
        let (pos, found) = self.locate(None, |c| t.at(c));
        if found {
            self.drop_at(&[pos]);
        }
        found
    }

    /// Set-union `other` (sealed) into `self` (sealed), in place: `other`'s
    /// rows are spliced into the run as they are read. A batch of `m` rows
    /// costs `O(m · log n)` plus one shift of each touched page. Into an
    /// empty store, `other`'s pages are copied as they are. At arity 1, when
    /// `other` holds at least an eighth as many rows as `self`, the two runs
    /// are merged linearly instead, as [`difference`](TupleStore::difference)
    /// walks them, and the union is cut into full pages, `O(n + m)`.
    pub fn merge(&mut self, other: &TupleStore) {
        debug_assert_eq!(self.arity, other.arity);
        debug_assert!(self.is_sealed() && other.is_sealed());
        if other.rows == 0 {
            return;
        }
        if self.arity == 0 {
            *self = TupleStore::nullary(true);
        } else if self.rows == 0 {
            self.planes = other.planes.clone();
            self.reindex(0);
        } else if self.arity == 1 && other.rows.saturating_mul(8) >= self.rows {
            let (a, b) = (self.planes.concat(), other.planes.concat());
            let mut union = Vec::with_capacity(a.len() + b.len());
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                let (x, y) = (a[i], b[j]);
                union.push(x.min(y));
                i += usize::from(x <= y);
                j += usize::from(y <= x);
            }
            union.extend_from_slice(&a[i..]);
            union.extend_from_slice(&b[j..]);
            union.shrink_to_fit();
            self.planes = TupleStore::paged(vec![union]).planes;
            self.reindex(0);
        } else {
            self.splice(other.iter());
        }
    }

    /// Remove every row of `other` (sealed) from `self` (sealed), in place:
    /// each of `other`'s rows is galloped, and each touched page is
    /// compacted forward once. A batch of `m` rows costs `O(m · log n)` plus
    /// one shift of each touched page; an empty batch returns at once.
    /// Returns the number of rows removed.
    pub fn subtract(&mut self, other: &TupleStore) -> usize {
        debug_assert_eq!(self.arity, other.arity);
        debug_assert!(self.is_sealed() && other.is_sealed());
        if self.rows == 0 || other.rows == 0 {
            return 0;
        }
        if self.arity == 0 {
            *self = TupleStore::nullary(false);
            return 1;
        }
        let mut at: Vec<Pos> = Vec::new();
        let mut from = Pos::START;
        for t in other.iter() {
            let (pos, found) = self.locate(Some(from), |c| t.get(c));
            if found {
                at.push(pos);
            }
            from = pos.skip(found);
        }
        self.drop_at(&at);
        at.len()
    }

    /// Rows of `self` (sealed) absent from `other` (sealed), as a new
    /// sealed store. Gallops through `other` so a small `self` against a
    /// large `other` costs `O(|self| · log |other|)`.
    pub fn difference(&self, other: &TupleStore) -> TupleStore {
        debug_assert_eq!(self.arity, other.arity);
        debug_assert!(self.is_sealed() && other.is_sealed());
        if self.arity == 0 {
            return TupleStore::nullary(self.rows > 0 && other.rows == 0);
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
            return TupleStore::nullary(self.rows > 0 && other.rows > 0);
        }
        if self.rows <= other.rows {
            Self::filter(self, other, true)
        } else {
            Self::filter(other, self, true)
        }
    }

    /// The contiguous range of sorted-run row indices whose first
    /// `prefix.len()` elements equal `prefix` (sealed stores only). One
    /// chunked binary search of the page index, then one per prefix column
    /// within a page, narrowing the equal group; an empty prefix selects
    /// every row. This is the probe primitive behind the evaluator's
    /// natural and permuted secondary indexes: an EDB relation whose join
    /// key is a column prefix needs *no* index build at all —
    /// `prefix_range(key)` is the matching row set.
    pub fn prefix_range(&self, prefix: &[Elem]) -> Range<usize> {
        self.prefix_range_from(prefix, 0)
    }

    /// [`prefix_range`](TupleStore::prefix_range) with a cursor: `hint` is
    /// a row index, typically the start of the previous probe's range.
    /// When the row just before `hint` sorts strictly below `prefix`, so
    /// does every earlier row, and the search gallops forward from `hint`
    /// — over the page index, then within the page; otherwise (a hint of 0,
    /// past the end of a shorter run, or left by a larger key) it searches
    /// from row 0. The answer is the unhinted one whatever the hint; a run
    /// of probes with ascending keys becomes one forward sweep.
    #[inline]
    pub fn prefix_range_from(&self, prefix: &[Elem], hint: usize) -> Range<usize> {
        let at = match hint.min(self.rows) {
            0 => Pos::START,
            h => self.pos(h - 1).skip(true),
        };
        self.probe(prefix, at).1
    }

    /// The rows whose first `prefix.len()` cells equal `prefix` (sealed
    /// stores only), searched from `cursor` as
    /// [`prefix_range_from`](TupleStore::prefix_range_from) searches from a
    /// hint, and the cursor moved to their start. The cursor is a page and
    /// an offset, so a probe neither resolves it to a page nor resolves its
    /// rows' page again; the rows are read where the search found them.
    #[inline]
    pub fn prefix_rows(&self, prefix: &[Elem], cursor: &mut Cursor) -> Rows<'_> {
        let (at, range) = self.probe(prefix, cursor.0);
        cursor.0 = at;
        if range.is_empty() {
            return Rows::default();
        }
        let planes = self.page(at.page);
        match at.off + range.len() {
            // The common case: the range lies on its first page.
            end if end <= planes.first().map_or(1, Vec::len) => Rows {
                planes,
                at: at.off,
                end,
                ..Rows::default()
            },
            _ => self.rows_at(at, range.len()),
        }
    }

    /// The body of [`prefix_rows`](TupleStore::prefix_rows): the matching
    /// range, and the position of its start. `at` is used as a cursor when
    /// it lies in the run and the row before it sorts below `prefix`.
    #[inline]
    fn probe(&self, prefix: &[Elem], at: Pos) -> (Pos, Range<usize>) {
        debug_assert!(self.is_sealed());
        debug_assert!(prefix.len() <= self.arity);
        let from = Some(at).filter(|at| {
            if at.page >= self.pages {
                return false;
            }
            let (mut planes, mut off) = (self.page(at.page), at.off);
            if off == 0 {
                if at.page == 0 {
                    return false;
                }
                planes = self.page(at.page - 1);
                off = planes.first().map_or(1, Vec::len);
            }
            off <= planes.first().map_or(1, Vec::len)
                && (0..prefix.len())
                    .map(|c| planes[c][off - 1])
                    .lt(prefix.iter().copied())
        });
        self.narrow(from, prefix.len(), |c| prefix[c])
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
        let mut from = Pos::START;
        for t in self.iter() {
            let (pos, found) = other.locate(Some(from), |c| t.get(c));
            if !found {
                return false;
            }
            from = pos.skip(true);
        }
        true
    }

    /// Drop all rows (sealed and pending), keeping the pending arena's
    /// allocation.
    pub fn clear(&mut self) {
        self.rows = 0;
        self.pages = 0;
        self.planes.clear();
        self.starts.clear();
        self.heads.clear();
        self.pending_rows = 0;
        self.pending.clear();
    }

    /// Bytes of heap held: the planes' and the pending arena's capacity,
    /// plus, for every page after the first, its plane headers and its
    /// page-index entry (its start and its first row). A one-page store
    /// counts its cells alone. This is the store's contribution to peak
    /// memory; `#![forbid(unsafe_code)]` rules out a counting allocator,
    /// so footprint reporting is analytic.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let cells: usize = self.planes.iter().map(Vec::capacity).sum();
        let per_page =
            self.arity * (size_of::<Vec<Elem>>() + size_of::<Elem>()) + size_of::<usize>();
        (cells + self.pending.capacity()) * size_of::<Elem>()
            + self.pages.saturating_sub(1) * per_page
    }
}

/// [`TupleStore::narrow`] within one page of `len` rows and the planes
/// `planes`, from the offset `from` (`Some`, galloping) or over the whole
/// page (`None`).
#[inline(always)]
fn narrow_page(
    planes: &[Vec<Elem>],
    len: usize,
    from: Option<usize>,
    k: usize,
    target: &impl Fn(usize) -> Elem,
) -> Range<usize> {
    let (mut lo, mut hi) = (from.unwrap_or(0), len);
    for (c, plane) in planes[..k].iter().enumerate() {
        let t = target(c);
        let w = &plane[lo..hi];
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

/// Zero-copy iterator over sorted rows of a [`TupleStore`], walking its
/// pages: within a page a step is one comparison, as over a range.
#[derive(Clone, Default)]
pub struct Rows<'a> {
    /// The planes of the front row's page.
    planes: &'a [Vec<Elem>],
    /// The front row's offset on its page, and where the rows handed out
    /// from that page end.
    at: usize,
    end: usize,
    /// The planes of the pages after the front row's, through the back
    /// row's, page by page.
    rest: &'a [Vec<Elem>],
    /// One past the back row's offset on the last page of `rest` (unused
    /// while `rest` is empty).
    back: usize,
}

impl<'a> Rows<'a> {
    /// Step onto the next page (`rest` is not empty) and hand out its first
    /// row. Only a store of arity at least 1 has more than one page.
    #[inline]
    fn turn(&mut self) -> Option<RowRef<'a>> {
        let (page, rest) = self.rest.split_at(self.planes.len());
        (self.planes, self.at, self.rest) = (page, 1, rest);
        self.end = if rest.is_empty() {
            self.back
        } else {
            page[0].len()
        };
        Some(RowRef {
            planes: page,
            row: 0,
        })
    }
}

impl<'a> Iterator for Rows<'a> {
    type Item = RowRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<RowRef<'a>> {
        if self.at < self.end {
            self.at += 1;
            return Some(RowRef {
                planes: self.planes,
                row: self.at - 1,
            });
        }
        if self.rest.is_empty() {
            return None;
        }
        self.turn()
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let k = self.planes.len().max(1);
        let n = self.end - self.at
            + match self.rest.len().checked_sub(k) {
                Some(full) => {
                    let pages = self.rest[..full].iter().step_by(k);
                    pages.map(Vec::len).sum::<usize>() + self.back
                }
                None => 0,
            };
        (n, Some(n))
    }
}

impl DoubleEndedIterator for Rows<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Self::Item> {
        let k = self.planes.len();
        if self.rest.is_empty() {
            if self.at == self.end {
                return None;
            }
            self.end -= 1;
            return Some(RowRef {
                planes: self.planes,
                row: self.end,
            });
        }
        let (full, last) = self.rest.split_at(self.rest.len() - k);
        self.back -= 1;
        let row = RowRef {
            planes: last,
            row: self.back,
        };
        if self.back == 0 {
            self.rest = full;
            self.back = full.len().checked_sub(k).map_or(0, |p| full[p].len());
        }
        Some(row)
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl PartialEq for TupleStore {
    /// Row by row, in segments that lie within one page of each store, so
    /// page boundaries do not matter.
    fn eq(&self, other: &Self) -> bool {
        debug_assert!(self.is_sealed() && other.is_sealed());
        if self.arity != other.arity || self.rows != other.rows {
            return false;
        }
        let k = self.arity;
        if k == 0 {
            return true;
        }
        let (mut a, mut b) = (self.planes.chunks_exact(k), other.planes.chunks_exact(k));
        let (mut pa, mut pb) = (a.next(), b.next());
        let (mut i, mut j) = (0, 0);
        while let (Some(x), Some(y)) = (pa, pb) {
            let m = (x[0].len() - i).min(y[0].len() - j);
            if x.iter().zip(y).any(|(u, v)| u[i..i + m] != v[j..j + m]) {
                return false;
            }
            (i, j) = (i + m, j + m);
            if i == x[0].len() {
                (pa, i) = (a.next(), 0);
            }
            if j == y[0].len() {
                (pb, j) = (b.next(), 0);
            }
        }
        true
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
        for t in self.iter() {
            for e in t {
                e.hash(state);
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
