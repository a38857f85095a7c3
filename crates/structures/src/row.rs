//! Row handles over the column-plane [`TupleStore`](crate::TupleStore): the borrowed
//! [`RowRef`] and the [`Row`] trait unifying every row-shaped input.
//!
//! With the structure-of-arrays layout a stored row is no longer a
//! contiguous `&[Elem]` slice — its cells live in `arity` separate column
//! planes of element values, on one page of the store's sorted run.
//! [`RowRef`] is the zero-copy handle the store hands out instead: the
//! page's planes and the row's offset there, reading cells from the planes
//! on access. It is `Copy`, indexes like a slice (`t[i]` borrows
//! the [`Elem`] in the plane), iterates cells by value, and compares by
//! element values so rows from different stores order lexicographically.
//!
//! [`Row`] abstracts over everything callers pass as "a tuple": borrowed
//! slices, `Vec`s, array literals, and `RowRef` itself. Write-side store
//! APIs ([`TupleStore::push`](crate::TupleStore::push), `contains`, `insert`, `remove`, and the
//! `Relation`/`Structure` wrappers) are generic over it, so call sites keep
//! their pre-refactor shape (`s.push(&[Elem(1), Elem(2)])`,
//! `idb.contains(t)` with `t` a `RowRef`) without materializing rows.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Index;

use crate::elem::Elem;

/// Anything that can be read as a fixed-width row of [`Elem`]s.
///
/// Implemented for borrowed slices, `Vec`s, arrays (by reference), boxed
/// slices, [`RowRef`], and references to any of them. Store and structure write paths take
/// `impl Row` so both row handles and plain element buffers flow in
/// without copies.
pub trait Row {
    /// Number of cells in the row.
    fn width(&self) -> usize;
    /// The `i`-th cell.
    fn at(&self, i: usize) -> Elem;
    /// Append every cell, in order, to `buf`.
    #[inline]
    fn append_to(&self, buf: &mut Vec<Elem>) {
        for i in 0..self.width() {
            buf.push(self.at(i));
        }
    }
    /// The row as an owned `Vec<Elem>`.
    #[inline]
    fn to_elems(&self) -> Vec<Elem> {
        let mut v = Vec::with_capacity(self.width());
        self.append_to(&mut v);
        v
    }
}

impl Row for &[Elem] {
    #[inline]
    fn width(&self) -> usize {
        self.len()
    }
    #[inline]
    fn at(&self, i: usize) -> Elem {
        self[i]
    }
    #[inline]
    fn append_to(&self, buf: &mut Vec<Elem>) {
        buf.extend_from_slice(self);
    }
}

impl Row for Vec<Elem> {
    #[inline]
    fn width(&self) -> usize {
        self.len()
    }
    #[inline]
    fn at(&self, i: usize) -> Elem {
        self[i]
    }
    #[inline]
    fn append_to(&self, buf: &mut Vec<Elem>) {
        buf.extend_from_slice(self);
    }
}

impl Row for Box<[Elem]> {
    #[inline]
    fn width(&self) -> usize {
        self.len()
    }
    #[inline]
    fn at(&self, i: usize) -> Elem {
        self[i]
    }
    #[inline]
    fn append_to(&self, buf: &mut Vec<Elem>) {
        buf.extend_from_slice(self);
    }
}

impl<const N: usize> Row for &[Elem; N] {
    #[inline]
    fn width(&self) -> usize {
        N
    }
    #[inline]
    fn at(&self, i: usize) -> Elem {
        self[i]
    }
    #[inline]
    fn append_to(&self, buf: &mut Vec<Elem>) {
        buf.extend_from_slice(self.as_slice());
    }
}

impl Row for RowRef<'_> {
    #[inline]
    fn width(&self) -> usize {
        self.len()
    }
    #[inline]
    fn at(&self, i: usize) -> Elem {
        self.get(i)
    }
}

impl<R: Row + ?Sized> Row for &R {
    #[inline]
    fn width(&self) -> usize {
        (**self).width()
    }
    #[inline]
    fn at(&self, i: usize) -> Elem {
        (**self).at(i)
    }
    #[inline]
    fn append_to(&self, buf: &mut Vec<Elem>) {
        (**self).append_to(buf)
    }
}

/// A borrowed, zero-copy handle to one sealed row of a
/// [`TupleStore`](crate::TupleStore).
///
/// Cells are read on access: `t[i]` and [`get`](RowRef::get) read the
/// `i`-th column plane of the row's page at the row's offset. Comparisons (`==`, `<`) are by element
/// values, so handles from different stores compare lexicographically,
/// exactly as contiguous `&[Elem]` rows do.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    /// The column planes of the row's page.
    pub(crate) planes: &'a [Vec<Elem>],
    /// The row's offset on its page.
    pub(crate) row: usize,
}

impl<'a> RowRef<'a> {
    /// The arity of the underlying store (number of cells).
    #[inline]
    pub fn len(&self) -> usize {
        self.planes.len()
    }

    /// True for rows of a nullary relation.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th cell.
    #[inline]
    pub fn get(&self, i: usize) -> Elem {
        self.planes[i][self.row]
    }

    /// Iterate the cells in column order, by value.
    #[inline]
    pub fn iter(&self) -> RowElems<'a> {
        RowElems {
            planes: self.planes,
            row: self.row,
            front: 0,
            back: self.planes.len(),
        }
    }

    /// The row as an owned `Vec<Elem>`.
    #[inline]
    pub fn to_vec(&self) -> Vec<Elem> {
        let mut v = Vec::with_capacity(self.len());
        for i in 0..self.len() {
            v.push(self.get(i));
        }
        v
    }
}

impl Index<usize> for RowRef<'_> {
    type Output = Elem;

    #[inline]
    fn index(&self, i: usize) -> &Elem {
        &self.planes[i][self.row]
    }
}

impl<'a> IntoIterator for RowRef<'a> {
    type Item = Elem;
    type IntoIter = RowElems<'a>;

    #[inline]
    fn into_iter(self) -> RowElems<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &RowRef<'a> {
    type Item = Elem;
    type IntoIter = RowElems<'a>;

    #[inline]
    fn into_iter(self) -> RowElems<'a> {
        self.iter()
    }
}

/// By-value cell iterator of a [`RowRef`].
#[derive(Clone)]
pub struct RowElems<'a> {
    planes: &'a [Vec<Elem>],
    row: usize,
    front: usize,
    back: usize,
}

impl Iterator for RowElems<'_> {
    type Item = Elem;

    #[inline]
    fn next(&mut self) -> Option<Elem> {
        if self.front >= self.back {
            return None;
        }
        let e = self.planes[self.front][self.row];
        self.front += 1;
        Some(e)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.front;
        (n, Some(n))
    }
}

impl DoubleEndedIterator for RowElems<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Elem> {
        if self.front >= self.back {
            return None;
        }
        self.back -= 1;
        Some(self.planes[self.back][self.row])
    }
}

impl ExactSizeIterator for RowElems<'_> {}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.get(i) == other.get(i))
    }
}

impl Eq for RowRef<'_> {}

impl PartialOrd for RowRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RowRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in 0..self.len().min(other.len()) {
            match self.get(i).cmp(&other.get(i)) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        self.len().cmp(&other.len())
    }
}

impl PartialEq<[Elem]> for RowRef<'_> {
    fn eq(&self, other: &[Elem]) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.get(i) == other[i])
    }
}

impl PartialEq<&[Elem]> for RowRef<'_> {
    fn eq(&self, other: &&[Elem]) -> bool {
        *self == **other
    }
}

impl<const N: usize> PartialEq<[Elem; N]> for RowRef<'_> {
    fn eq(&self, other: &[Elem; N]) -> bool {
        *self == other[..]
    }
}

impl<const N: usize> PartialEq<&[Elem; N]> for RowRef<'_> {
    fn eq(&self, other: &&[Elem; N]) -> bool {
        *self == other[..]
    }
}

impl PartialEq<Vec<Elem>> for RowRef<'_> {
    fn eq(&self, other: &Vec<Elem>) -> bool {
        *self == other[..]
    }
}

impl PartialEq<RowRef<'_>> for Vec<Elem> {
    fn eq(&self, other: &RowRef<'_>) -> bool {
        *other == self[..]
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
