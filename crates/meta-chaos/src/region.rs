//! Region types (paper §4.1.1).
//!
//! A *Region* is a compact description of a group of elements of a
//! distributed data structure, in global terms, for a given library.  The
//! paper's libraries use two families, both provided here:
//!
//! * [`RegularSection`] — a strided section of a multidimensional array
//!   (HPF and Multiblock Parti); its linearization is row-major order over
//!   the section.  Its libraries dereference through one owned-segment
//!   walk, [`owned_section_runs`], and locate through
//!   [`locate_section_run`];
//! * [`IndexSet`] — an explicit ordered list of global indices (Chaos and
//!   the `tulip` collection); its linearization is the list order.
//!
//! Libraries may define further Region types by implementing [`Region`].

use std::ops::{Deref, DerefMut};

use mcsim::error::SimError;
use mcsim::wire::{Wire, WireReader};

use crate::adapter::Location;
use crate::runs::{LocatedRun, OwnedRun, RunBuilder};
use crate::setof::SetOfRegions;
use crate::LocalAddr;

/// Behaviour every region type must provide: a size, so the meta-library
/// can stitch linearizations together.
pub trait Region: Clone {
    /// Number of elements the region describes.
    fn len(&self) -> usize;

    /// True if the region is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One dimension of a regular section: indices `lo, lo+stride, ...` strictly
/// below `hi` (half-open, like Rust ranges; the paper's Fortran-style
/// inclusive triplets translate directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimSlice {
    /// First index.
    pub lo: usize,
    /// One past the last candidate index (half-open).
    pub hi: usize,
    /// Step between consecutive indices (≥ 1).
    pub stride: usize,
}

impl DimSlice {
    /// A contiguous slice `[lo, hi)`.
    pub fn new(lo: usize, hi: usize) -> Self {
        DimSlice::strided(lo, hi, 1)
    }

    /// A strided slice.
    pub fn strided(lo: usize, hi: usize, stride: usize) -> Self {
        assert!(stride >= 1, "stride must be at least 1");
        assert!(lo <= hi, "empty-or-valid slice requires lo <= hi");
        DimSlice { lo, hi, stride }
    }

    /// Number of indices in the slice.
    pub fn count(&self) -> usize {
        if self.lo >= self.hi {
            0
        } else {
            (self.hi - self.lo - 1) / self.stride + 1
        }
    }

    /// The `k`-th index of the slice.
    #[inline]
    pub fn index(&self, k: usize) -> usize {
        debug_assert!(k < self.count());
        self.lo + k * self.stride
    }

    /// The positions `[k_lo, k_hi)` within the slice whose indices lie in
    /// `[lo, hi)`, if there are any.
    #[inline]
    pub fn positions_within(&self, lo: usize, hi: usize) -> Option<(usize, usize)> {
        let (lo, hi) = (lo.max(self.lo), hi.min(self.hi));
        if lo >= hi {
            return None;
        }
        let k_lo = (lo - self.lo).div_ceil(self.stride);
        let k_hi = (hi - 1 - self.lo) / self.stride + 1;
        (k_lo < k_hi).then_some((k_lo, k_hi))
    }

    /// If `i` is in the slice, its position within the slice.
    pub fn position_of(&self, i: usize) -> Option<usize> {
        if i < self.lo || i >= self.hi || !(i - self.lo).is_multiple_of(self.stride) {
            None
        } else {
            Some((i - self.lo) / self.stride)
        }
    }
}

impl Wire for DimSlice {
    fn write(&self, out: &mut Vec<u8>) {
        self.lo.write(out);
        self.hi.write(out);
        self.stride.write(out);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        let lo = usize::read(r)?;
        let hi = usize::read(r)?;
        let stride = usize::read(r)?;
        if stride == 0 {
            return Err(SimError::Decode("zero stride".into()));
        }
        Ok(DimSlice { lo, hi, stride })
    }
}

/// A strided section of an n-dimensional array; linearized row-major
/// (last dimension fastest), matching the paper's C-layout convention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegularSection {
    dims: Vec<DimSlice>,
}

impl RegularSection {
    /// Build from per-dimension slices.
    pub fn new(dims: Vec<DimSlice>) -> Self {
        assert!(!dims.is_empty(), "regular section needs at least one dim");
        RegularSection { dims }
    }

    /// The whole index space of an array with the given shape.
    pub fn whole(shape: &[usize]) -> Self {
        RegularSection::new(shape.iter().map(|&n| DimSlice::new(0, n)).collect())
    }

    /// A contiguous (stride-1) box `[lo_d, hi_d)` in every dimension.
    pub fn of_bounds(bounds: &[(usize, usize)]) -> Self {
        RegularSection::new(
            bounds
                .iter()
                .map(|&(lo, hi)| DimSlice::new(lo, hi))
                .collect(),
        )
    }

    /// Dimensionality.
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension slices.
    pub fn dims(&self) -> &[DimSlice] {
        &self.dims
    }

    /// Per-dimension element counts.
    pub fn counts(&self) -> Vec<usize> {
        self.dims.iter().map(|d| d.count()).collect()
    }

    /// Global coordinates of the `k`-th element of the section's row-major
    /// linearization.
    pub fn coords_of(&self, k: usize) -> Vec<usize> {
        let mut out = vec![0; self.ndim()];
        self.coords_into(k, &mut out);
        out
    }

    /// As [`Self::coords_of`], writing into a caller-provided buffer to
    /// avoid per-element allocation in hot loops.
    pub fn coords_into(&self, mut k: usize, out: &mut [usize]) {
        debug_assert_eq!(out.len(), self.ndim());
        for d in (0..self.ndim()).rev() {
            let c = self.dims[d].count();
            out[d] = self.dims[d].index(k % c);
            k /= c;
        }
        debug_assert_eq!(k, 0, "coordinate index out of range");
    }

    /// Position of global coordinates within the section's linearization,
    /// if the coordinates belong to the section.
    pub fn position_of(&self, coords: &[usize]) -> Option<usize> {
        assert_eq!(coords.len(), self.ndim());
        let mut pos = 0;
        for (d, &c) in coords.iter().enumerate() {
            let p = self.dims[d].position_of(c)?;
            pos = pos * self.dims[d].count() + p;
        }
        Some(pos)
    }

    /// Intersect with a contiguous box `[lo_d, hi_d)` per dimension
    /// (e.g. the caller's locally owned block).  Returns the sub-section of
    /// `self` falling inside the box, or `None` if empty.
    ///
    /// The returned section's elements are a subset of `self`'s; use
    /// [`Self::position_of`] to recover their positions in `self`.
    pub fn intersect_box(&self, bounds: &[(usize, usize)]) -> Option<RegularSection> {
        assert_eq!(bounds.len(), self.ndim());
        let mut dims = Vec::with_capacity(self.ndim());
        for (s, &(blo, bhi)) in self.dims.iter().zip(bounds) {
            let (k_lo, _) = s.positions_within(blo, bhi)?;
            dims.push(DimSlice::strided(s.index(k_lo), s.hi.min(bhi), s.stride));
        }
        Some(RegularSection::new(dims))
    }

    /// Iterate the global coordinates of all elements, in linearization
    /// order, without per-element allocation.
    pub fn iter_coords(&self) -> CoordIter<'_> {
        CoordIter {
            sec: self,
            next: 0,
            total: self.len(),
            buf: vec![0; self.ndim()],
        }
    }
}

impl Region for RegularSection {
    fn len(&self) -> usize {
        self.dims.iter().map(|d| d.count()).product()
    }
}

impl Wire for RegularSection {
    fn write(&self, out: &mut Vec<u8>) {
        self.dims.write(out);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        let dims = Vec::<DimSlice>::read(r)?;
        if dims.is_empty() {
            return Err(SimError::Decode("regular section with no dims".into()));
        }
        Ok(RegularSection { dims })
    }
}

/// Iterator over a section's global coordinates in linearization order.
#[derive(Debug)]
pub struct CoordIter<'a> {
    sec: &'a RegularSection,
    next: usize,
    total: usize,
    buf: Vec<usize>,
}

impl CoordIter<'_> {
    /// Advance and expose the next coordinates (lending-iterator style:
    /// the slice is only valid until the next call).
    pub fn advance(&mut self) -> Option<&[usize]> {
        if self.next >= self.total {
            return None;
        }
        self.sec.coords_into(self.next, &mut self.buf);
        self.next += 1;
        Some(&self.buf)
    }
}

/// One integer per dimension, on the stack up to eight dimensions (the
/// heap only above), so the walks below allocate no per-call state.
#[derive(Debug)]
enum PerDim {
    Inline(usize, [usize; 8]),
    Heap(Vec<usize>),
}

impl PerDim {
    #[inline]
    fn zeroed(n: usize) -> Self {
        if n <= 8 {
            PerDim::Inline(n, [0; 8])
        } else {
            PerDim::Heap(vec![0; n])
        }
    }
}

impl Deref for PerDim {
    type Target = [usize];
    #[inline]
    fn deref(&self) -> &[usize] {
        match self {
            PerDim::Inline(n, a) => &a[..*n],
            PerDim::Heap(v) => v,
        }
    }
}

impl DerefMut for PerDim {
    #[inline]
    fn deref_mut(&mut self) -> &mut [usize] {
        match self {
            PerDim::Inline(n, a) => &mut a[..*n],
            PerDim::Heap(v) => v,
        }
    }
}

/// Row-major odometer over the product of per-dimension ascending lists
/// of non-empty ranges `[lo, hi)`, last dimension fastest: the one walk
/// behind [`for_each_in_ranges`], [`for_each_in_box`] and
/// [`owned_section_runs`].  All dimensions' ranges sit back to back in one
/// slice, and the walk's state is a [`PerDim`].
struct RangeOdometer<'a> {
    ranges: &'a [(usize, usize)],
    /// Per dimension, one past its last range in `ranges`.
    ends: PerDim,
}

impl<'a> RangeOdometer<'a> {
    /// Over `ndim` dimensions whose ranges `fill(d, buf)` appends to `buf`
    /// (cleared first).
    fn new(
        buf: &'a mut Vec<(usize, usize)>,
        ndim: usize,
        mut fill: impl FnMut(usize, &mut Vec<(usize, usize)>),
    ) -> Self {
        buf.clear();
        let mut ends = PerDim::zeroed(ndim);
        for d in 0..ndim {
            fill(d, buf);
            ends[d] = buf.len();
        }
        RangeOdometer { ranges: buf, ends }
    }

    /// Over a box: one range per dimension.
    fn of_box(bounds: &'a [(usize, usize)]) -> Self {
        let mut ends = PerDim::zeroed(bounds.len());
        for (d, end) in ends.iter_mut().enumerate() {
            *end = d + 1;
        }
        RangeOdometer {
            ranges: bounds,
            ends,
        }
    }

    /// Dimension `d`'s ranges.
    #[inline]
    fn ranges(&self, d: usize) -> &'a [(usize, usize)] {
        let first = d.checked_sub(1).map_or(0, |p| self.ends[p]);
        &self.ranges[first..self.ends[d]]
    }

    /// Call `f` on every tuple of the leading `dims` dimensions' product.
    /// A dimension without ranges, or whose first range is empty, makes it
    /// empty; zero dimensions give the one empty tuple.
    fn for_each(&self, dims: usize, mut f: impl FnMut(&[usize])) {
        // Per dimension, the index of the current range and the coordinate.
        let (mut which, mut at) = (PerDim::zeroed(dims), PerDim::zeroed(dims));
        let (which, at) = (&mut *which, &mut *at);
        for d in 0..dims {
            match self.ranges(d).first() {
                Some(&(lo, hi)) if lo < hi => at[d] = lo,
                _ => return,
            }
        }
        let Some(last) = dims.checked_sub(1) else {
            return f(at);
        };
        loop {
            // The last dimension runs whole; the leading ones step.
            for &(lo, hi) in self.ranges(last) {
                for x in lo..hi {
                    at[last] = x;
                    f(at);
                }
            }
            let mut d = last;
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                let ranges = self.ranges(d);
                at[d] += 1;
                if at[d] < ranges[which[d]].1 {
                    break;
                }
                which[d] = (which[d] + 1) % ranges.len();
                at[d] = ranges[which[d]].0;
                if which[d] != 0 {
                    break;
                }
            }
        }
    }
}

/// Call `f` on every tuple of the row-major product of per-dimension
/// ascending lists of non-empty ranges, `fill(d, buf)` appending dimension
/// `d`'s to `buf`; one range buffer per call.
pub fn for_each_in_ranges(
    ndim: usize,
    fill: impl FnMut(usize, &mut Vec<(usize, usize)>),
    f: impl FnMut(&[usize]),
) {
    let mut ranges = Vec::new();
    RangeOdometer::new(&mut ranges, ndim, fill).for_each(ndim, f);
}

/// Call `f` on every coordinate of the box `bounds` (per-dimension
/// `[lo, hi)`, empty if any is), row-major, without allocating.
pub fn for_each_in_box(bounds: &[(usize, usize)], f: impl FnMut(&[usize])) {
    RangeOdometer::of_box(bounds).for_each(bounds.len(), f);
}

/// The owned-segment walk, the one
/// [`deref_owned_runs`](crate::McObject::deref_owned_runs) of a
/// regular-section library, from two inquiry functions:
/// `owned(d, slice, out)` appends the ascending ranges `[k_lo, k_hi)` of
/// `slice` positions the calling rank owns along dimension `d`, each
/// inside one owned segment (so local addresses advance by the slice
/// stride across it), and `addr(coords)` is the local address of owned
/// global coordinates.  The outer dimensions' owned positions form a
/// `RangeOdometer`, and each inner range of each owned row is one
/// progression of addresses: O(owned rows × inner ranges) host work, one
/// range buffer per call.
///
/// The runs are the canonical decomposition, what [`RunBuilder::push`]
/// makes of the owned elements — the Cooperation build announces one
/// record per run.  `push_run` alone is not that (a length-1 last run
/// adopts any stride from `push`, only the run's own from `push_run`), so
/// each range's first element goes through `push` and the rest follow as
/// one run.
pub fn owned_section_runs(
    set: &SetOfRegions<RegularSection>,
    mut owned: impl FnMut(usize, &DimSlice, &mut Vec<(usize, usize)>),
    addr: impl Fn(&[usize]) -> LocalAddr,
) -> Vec<OwnedRun> {
    let mut builder = RunBuilder::new();
    let mut ranges = Vec::with_capacity(set.regions().first().map_or(0, RegularSection::ndim));
    let mut base = 0;
    for region in set.regions() {
        let slices = region.dims();
        let (inner, outer) = slices.split_last().expect("sections have a dimension");
        let odo = RangeOdometer::new(&mut ranges, slices.len(), |d, out| {
            owned(d, &slices[d], out)
        });
        let inner_ranges = odo.ranges(outer.len());
        let mut coords = PerDim::zeroed(slices.len());
        let coords = &mut *coords;
        if !inner_ranges.is_empty() {
            odo.for_each(outer.len(), |ks| {
                let mut row = 0;
                for (d, (&k, s)) in ks.iter().zip(outer).enumerate() {
                    row = row * s.count() + k;
                    coords[d] = s.index(k);
                }
                let row_pos = base + row * inner.count();
                for &(k_lo, k_hi) in inner_ranges {
                    coords[outer.len()] = inner.index(k_lo);
                    let first = addr(coords);
                    let (pos, stride) = (row_pos + k_lo, inner.stride);
                    builder.push(pos, first);
                    builder.push_run(pos + 1, k_hi - k_lo - 1, first + stride, stride as isize);
                }
            });
        }
        base += region.len();
    }
    builder.finish()
}

/// [`locate_run`](crate::McDescriptor::locate_run) for a regular-section
/// descriptor.  `owner(coords)` gives the [`Location`] of global
/// coordinates and where the owner's segment along the last dimension
/// ends; the run stops at the section row's end, the segment's end or
/// `max_len`, and its address advances by the row's stride.
pub fn locate_section_run(
    set: &SetOfRegions<RegularSection>,
    pos: usize,
    max_len: usize,
    owner: impl FnOnce(&[usize]) -> (Location, usize),
) -> LocatedRun {
    debug_assert!(max_len >= 1);
    let (ri, off) = set.locate_position(pos);
    let region = &set.regions()[ri];
    let row = region.dims()[region.ndim() - 1];
    let mut coords = PerDim::zeroed(region.ndim());
    region.coords_into(off, &mut coords);
    let (Location { rank, addr }, segment_end) = owner(&coords);
    let c = coords[region.ndim() - 1];
    let left = row.count() - row.position_of(c).expect("coords came from the section");
    let steps = (segment_end - c).div_ceil(row.stride);
    LocatedRun {
        pos,
        len: left.min(steps).min(max_len),
        rank,
        addr,
        stride: row.stride as isize,
    }
}

/// An explicit ordered list of global (flattened) indices — the Chaos
/// Region type.  Linearization is list order; duplicates are allowed by
/// construction but rejected when used as a *destination* (an element
/// cannot receive twice).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSet {
    indices: Vec<usize>,
}

impl IndexSet {
    /// Build from a list of global indices (kept in the given order).
    pub fn new(indices: Vec<usize>) -> Self {
        IndexSet { indices }
    }

    /// The indices in linearization order.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The `k`-th global index.
    #[inline]
    pub fn index(&self, k: usize) -> usize {
        self.indices[k]
    }
}

impl Region for IndexSet {
    fn len(&self) -> usize {
        self.indices.len()
    }
}

impl Wire for IndexSet {
    fn write(&self, out: &mut Vec<u8>) {
        self.indices.write(out);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        Ok(IndexSet {
            indices: Vec::<usize>::read(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimslice_count_and_index() {
        let s = DimSlice::strided(2, 11, 3); // 2, 5, 8
        assert_eq!(s.count(), 3);
        assert_eq!(s.index(0), 2);
        assert_eq!(s.index(2), 8);
        assert_eq!(s.position_of(5), Some(1));
        assert_eq!(s.position_of(6), None);
        assert_eq!(s.position_of(11), None);
        assert_eq!(DimSlice::new(4, 4).count(), 0);
    }

    #[test]
    fn dimslice_inclusive_triplet_equivalent() {
        // Fortran a(2:10:3) = indices 2,5,8 -> half-open strided(2, 11, 3).
        let s = DimSlice::strided(2, 11, 3);
        let idxs: Vec<usize> = (0..s.count()).map(|k| s.index(k)).collect();
        assert_eq!(idxs, vec![2, 5, 8]);
    }

    #[test]
    fn section_len_and_coords_roundtrip() {
        let sec = RegularSection::new(vec![
            DimSlice::strided(1, 8, 2), // 1,3,5,7
            DimSlice::new(10, 13),      // 10,11,12
        ]);
        assert_eq!(sec.len(), 12);
        for k in 0..sec.len() {
            let c = sec.coords_of(k);
            assert_eq!(sec.position_of(&c), Some(k));
        }
        // Row-major: last dim fastest.
        assert_eq!(sec.coords_of(0), vec![1, 10]);
        assert_eq!(sec.coords_of(1), vec![1, 11]);
        assert_eq!(sec.coords_of(3), vec![3, 10]);
    }

    #[test]
    fn section_position_of_rejects_outside() {
        let sec = RegularSection::of_bounds(&[(2, 5), (0, 4)]);
        assert_eq!(sec.position_of(&[1, 0]), None);
        assert_eq!(sec.position_of(&[2, 4]), None);
        assert_eq!(sec.position_of(&[4, 3]), Some(2 * 4 + 3));
    }

    #[test]
    fn intersect_box_strided() {
        let sec = RegularSection::new(vec![DimSlice::strided(1, 20, 3)]); // 1,4,7,10,13,16,19
        let sub = sec.intersect_box(&[(5, 15)]).unwrap(); // 7,10,13
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.coords_of(0), vec![7]);
        assert_eq!(sub.coords_of(2), vec![13]);
        assert!(sec.intersect_box(&[(2, 4)]).is_none()); // gap between 1 and 4
    }

    #[test]
    fn intersect_box_2d_matches_filter() {
        let sec = RegularSection::new(vec![
            DimSlice::strided(0, 10, 2),
            DimSlice::strided(1, 9, 3),
        ]);
        let bounds = [(3, 9), (2, 8)];
        let sub = sec.intersect_box(&bounds);
        let expect: Vec<Vec<usize>> = (0..sec.len())
            .map(|k| sec.coords_of(k))
            .filter(|c| c[0] >= 3 && c[0] < 9 && c[1] >= 2 && c[1] < 8)
            .collect();
        match sub {
            None => assert!(expect.is_empty()),
            Some(s) => {
                let got: Vec<Vec<usize>> = (0..s.len()).map(|k| s.coords_of(k)).collect();
                assert_eq!(got, expect);
            }
        }
    }

    #[test]
    fn positions_within_clips_to_the_slice() {
        let s = DimSlice::strided(2, 11, 3); // 2, 5, 8
        assert_eq!(s.positions_within(4, 9), Some((1, 3)));
        assert_eq!(s.positions_within(0, 3), Some((0, 1)));
        assert_eq!(s.positions_within(6, 8), None);
        assert_eq!(s.positions_within(9, 20), None);
    }

    fn tuples(ndim: usize, fill: impl FnMut(usize, &mut Vec<(usize, usize)>)) -> Vec<Vec<usize>> {
        let mut seen = Vec::new();
        for_each_in_ranges(ndim, fill, |t| seen.push(t.to_vec()));
        seen
    }

    #[test]
    fn range_walks_visit_the_product() {
        let dims = [vec![(0, 2), (5, 6)], vec![(1, 3)]];
        let fill = |d: usize, out: &mut Vec<(usize, usize)>| out.extend(&dims[d]);
        let want = [[0, 1], [0, 2], [1, 1], [1, 2], [5, 1], [5, 2]];
        assert_eq!(tuples(2, fill), want);
        // An empty dimension empties the product; no dimension is one
        // empty tuple.
        assert!(tuples(2, |d, out| out.extend(&dims[0][..usize::from(d == 0)])).is_empty());
        assert_eq!(tuples(0, fill), [[0usize; 0]]);
        // Past eight dimensions the state is on the heap; an empty range
        // empties a box.
        let (mut n, mut last) = (0, Vec::new());
        for_each_in_box(&[(3, 5); 10], |c| (n, last) = (n + 1, c.to_vec()));
        assert_eq!((n, last), (1024, vec![4; 10]));
        for_each_in_box(&[(0, 2), (3, 3)], |_| panic!("empty box visited"));
    }

    #[test]
    fn iter_coords_matches_coords_of() {
        let sec = RegularSection::of_bounds(&[(0, 3), (5, 7)]);
        let mut it = sec.iter_coords();
        let mut k = 0;
        while let Some(c) = it.advance() {
            assert_eq!(c, sec.coords_of(k).as_slice());
            k += 1;
        }
        assert_eq!(k, sec.len());
    }

    #[test]
    fn index_set_basics() {
        let s = IndexSet::new(vec![9, 3, 7]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.index(1), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn regions_wire_roundtrip() {
        let sec = RegularSection::new(vec![DimSlice::strided(1, 8, 2), DimSlice::new(0, 5)]);
        let b = sec.to_bytes();
        assert_eq!(RegularSection::from_bytes(&b).unwrap(), sec);
        let is = IndexSet::new(vec![5, 1, 1000]);
        let b = is.to_bytes();
        assert_eq!(IndexSet::from_bytes(&b).unwrap(), is);
    }

    #[test]
    fn zero_stride_decode_rejected() {
        let mut b = Vec::new();
        1usize.write(&mut b);
        2usize.write(&mut b);
        0usize.write(&mut b);
        assert!(DimSlice::from_bytes(&b).is_err());
    }
}
