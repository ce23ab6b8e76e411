//! Region types (paper §4.1.1).
//!
//! A *Region* is a compact description of a group of elements of a
//! distributed data structure, in global terms, for a given library.  The
//! paper's libraries use two families, both provided here:
//!
//! * [`RegularSection`] — a strided section of a multidimensional array
//!   (HPF, Multiblock Parti, and the `tulip` collection use these); its
//!   linearization is row-major order over the section;
//! * [`IndexSet`] — an explicit ordered list of global indices (Chaos);
//!   its linearization is the list order.
//!
//! Libraries may define further Region types by implementing [`Region`].

use mcsim::error::SimError;
use mcsim::wire::{Wire, WireReader};

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

    /// Hand `f` the coordinates of the `k`-th element, resolved on the
    /// stack (the heap only above eight dimensions) — for callers that
    /// locate one element per call and cannot keep a buffer.
    pub fn with_coords<R>(&self, k: usize, f: impl FnOnce(&[usize]) -> R) -> R {
        const INLINE: usize = 8;
        let nd = self.ndim();
        if nd <= INLINE {
            let mut buf = [0usize; INLINE];
            self.coords_into(k, &mut buf[..nd]);
            f(&buf[..nd])
        } else {
            f(&self.coords_of(k))
        }
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
        for (d, &(blo, bhi)) in bounds.iter().enumerate() {
            let s = &self.dims[d];
            // First section index >= blo:
            let lo = if s.lo >= blo {
                s.lo
            } else {
                let k = (blo - s.lo).div_ceil(s.stride);
                s.lo + k * s.stride
            };
            let hi = s.hi.min(bhi);
            if lo >= hi {
                return None;
            }
            dims.push(DimSlice::strided(lo, hi, s.stride));
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
    fn with_coords_matches_coords_of_on_stack_and_heap() {
        let small = RegularSection::new(vec![DimSlice::strided(1, 9, 3), DimSlice::new(4, 7)]);
        let big = RegularSection::whole(&[2; 10]);
        for sec in [&small, &big] {
            for k in 0..sec.len() {
                let want = sec.coords_of(k);
                assert_eq!(sec.with_coords(k, |c| c.to_vec()), want);
            }
        }
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
