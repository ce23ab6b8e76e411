//! Ordered collections of regions (paper §4.1.1).
//!
//! Regions are gathered into an ordered group called a *SetOfRegions*.  The
//! linearization of a SetOfRegions is the linearization of its first region
//! followed by the linearizations of the rest (paper §4.1.2).

use mcsim::error::SimError;
use mcsim::wire::{Wire, WireReader};

use crate::region::Region;

/// An ordered group of regions; the unit a data transfer is specified over.
///
/// Equality compares the regions: the offsets are a function of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetOfRegions<R> {
    regions: Vec<R>,
    /// [`Self::offsets`], kept so a position is located by binary search.
    starts: Vec<usize>,
}

impl<R: Region> SetOfRegions<R> {
    /// An empty set (add regions with [`Self::add`], mirroring the paper's
    /// `MC_NewSetOfRegion` / `MC_AddRegion2Set` calls).
    pub fn new() -> Self {
        Self::from_regions(Vec::new())
    }

    /// Build directly from regions.
    pub fn from_regions(regions: Vec<R>) -> Self {
        let mut starts = Vec::with_capacity(regions.len() + 1);
        starts.push(0);
        for r in &regions {
            starts.push(starts[starts.len() - 1] + r.len());
        }
        SetOfRegions { regions, starts }
    }

    /// A set containing a single region.
    pub fn single(region: R) -> Self {
        Self::from_regions(vec![region])
    }

    /// Append a region (order is significant: it extends the linearization).
    pub fn add(&mut self, region: R) {
        self.starts.push(self.total_len() + region.len());
        self.regions.push(region);
    }

    /// The regions in order.
    pub fn regions(&self) -> &[R] {
        &self.regions
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Total elements across all regions — the linearization length.
    pub fn total_len(&self) -> usize {
        self.starts[self.regions.len()]
    }

    /// Linearization offsets: `offsets()[i]` is the position of region `i`'s
    /// first element in the set's linearization (one extra trailing entry
    /// equals [`Self::total_len`]).
    pub fn offsets(&self) -> Vec<usize> {
        self.starts.clone()
    }

    /// Map a linearization position to `(region index, offset inside it)`:
    /// the first region ending after `pos`, which skips empty regions (they
    /// end where they start).  A position in the first region — every
    /// position of a one-region set — needs no search; others binary-search
    /// the region offsets.
    #[inline]
    pub fn locate_position(&self, pos: usize) -> (usize, usize) {
        let ends = &self.starts[1..];
        let i = match ends.first() {
            Some(&end) if pos < end => 0,
            _ => ends.partition_point(|&end| end <= pos),
        };
        if i == self.regions.len() {
            panic!(
                "position {pos} out of range for SetOfRegions of {} elements",
                self.total_len()
            );
        }
        (i, pos - self.starts[i])
    }
}

impl<R: Region> Default for SetOfRegions<R> {
    fn default() -> Self {
        SetOfRegions::new()
    }
}

impl<R: Region + Wire> Wire for SetOfRegions<R> {
    fn write(&self, out: &mut Vec<u8>) {
        self.regions.write(out);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        Ok(SetOfRegions::from_regions(Vec::<R>::read(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{IndexSet, RegularSection};

    #[test]
    fn totals_and_offsets() {
        let mut s = SetOfRegions::new();
        s.add(RegularSection::of_bounds(&[(0, 2), (0, 3)])); // 6
        s.add(RegularSection::of_bounds(&[(5, 7), (1, 2)])); // 2
        assert_eq!(s.num_regions(), 2);
        assert_eq!(s.total_len(), 8);
        assert_eq!(s.offsets(), vec![0, 6, 8]);
    }

    #[test]
    fn locate_position_spans_regions() {
        let s = SetOfRegions::from_regions(vec![
            IndexSet::new(vec![10, 20, 30]),
            IndexSet::new(vec![40]),
            IndexSet::new(vec![50, 60]),
        ]);
        assert_eq!(s.locate_position(0), (0, 0));
        assert_eq!(s.locate_position(2), (0, 2));
        assert_eq!(s.locate_position(3), (1, 0));
        assert_eq!(s.locate_position(4), (2, 0));
        assert_eq!(s.locate_position(5), (2, 1));
    }

    #[test]
    fn locate_position_matches_the_linear_scan() {
        let scan = |s: &SetOfRegions<IndexSet>, pos: usize| -> (usize, usize) {
            let mut rem = pos;
            for (i, r) in s.regions().iter().enumerate() {
                if rem < r.len() {
                    return (i, rem);
                }
                rem -= r.len();
            }
            unreachable!("position {pos} out of range")
        };
        let mut rng = mcsim::rng::Rng::seed_from_u64(0x10ca7e);
        for case in 0..200 {
            // Up to 12 regions of 0..4 elements: empty ones at the start,
            // in runs in the middle and at the end all occur.
            let regions = (0..rng.gen_range(13))
                .map(|_| IndexSet::new((0..rng.gen_range(5)).collect()))
                .collect();
            let mut s = SetOfRegions::from_regions(regions);
            if case % 2 == 1 {
                s.add(IndexSet::new(vec![]));
                s.add(IndexSet::new(vec![7]));
            }
            for pos in 0..s.total_len() {
                assert_eq!(
                    s.locate_position(pos),
                    scan(&s, pos),
                    "case {case} pos {pos}"
                );
            }
            assert_eq!(
                SetOfRegions::<IndexSet>::from_bytes(&s.to_bytes()).unwrap(),
                s
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn locate_position_out_of_range() {
        let s = SetOfRegions::single(IndexSet::new(vec![1]));
        let _ = s.locate_position(1);
    }

    #[test]
    fn wire_roundtrip() {
        let s = SetOfRegions::from_regions(vec![IndexSet::new(vec![3, 1]), IndexSet::new(vec![])]);
        let b = s.to_bytes();
        assert_eq!(SetOfRegions::<IndexSet>::from_bytes(&b).unwrap(), s);
    }

    #[test]
    fn empty_set() {
        let s: SetOfRegions<IndexSet> = SetOfRegions::default();
        assert_eq!(s.total_len(), 0);
        assert_eq!(s.offsets(), vec![0]);
    }
}
