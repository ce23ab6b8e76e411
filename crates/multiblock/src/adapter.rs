//! Meta-Chaos interface functions for [`MultiblockArray`] (paper §4.1.3).
//!
//! The Region type is a [`RegularSection`] in the array's *global* index
//! space — exactly the paper's choice for Multiblock Parti and HPF.  All
//! owner queries are closed-form block arithmetic, so the dereference
//! enumerates only the rows this rank owns (no communication) and the
//! descriptor is a handful of integers.

use mcsim::error::SimError;
use mcsim::group::Comm;
use mcsim::wire::{Wire, WireReader};

use meta_chaos::adapter::{Location, McDescriptor, McObject};
use meta_chaos::region::{Region, RegularSection};
use meta_chaos::runs::{LocatedRun, OwnedRun, RunBuilder};
use meta_chaos::setof::SetOfRegions;

use crate::array::MultiblockArray;
use crate::dist::BlockDist;
use crate::grid::ProcGrid;

/// Shippable descriptor of a block-distributed array: distribution
/// parameters plus the owning program's global ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockDesc {
    /// The block distribution (shape, grid, halo).
    pub dist: BlockDist,
    /// Global ranks of the owning program, in grid order.
    pub members: Vec<usize>,
}

impl Wire for BlockDesc {
    fn write(&self, out: &mut Vec<u8>) {
        self.dist.shape().to_vec().write(out);
        self.dist.grid().dims().to_vec().write(out);
        self.dist.halo().write(out);
        self.members.write(out);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        let shape = Vec::<usize>::read(r)?;
        let grid_dims = Vec::<usize>::read(r)?;
        let halo = usize::read(r)?;
        let members = Vec::<usize>::read(r)?;
        if grid_dims.iter().product::<usize>() != members.len() {
            return Err(SimError::Decode(
                "grid size does not match member count".into(),
            ));
        }
        Ok(BlockDesc {
            dist: BlockDist::new(shape, ProcGrid::new(grid_dims), halo),
            members,
        })
    }
}

impl McDescriptor for BlockDesc {
    type Region = RegularSection;

    fn locate_run(
        &self,
        set: &SetOfRegions<RegularSection>,
        pos: usize,
        max_len: usize,
    ) -> LocatedRun {
        debug_assert!(max_len >= 1);
        let (ri, off) = set.locate_position(pos);
        let region = &set.regions()[ri];
        let d = region.ndim() - 1;
        region.with_coords(off, |coords| {
            let Location { rank, addr } = self.location_of(coords);
            // Consecutive positions step the last (fastest) dimension: stay
            // in this section row, on this owner's block, within max_len.
            let ls = &region.dims()[d];
            let c = coords[d];
            let k = ls.position_of(c).expect("coords came from the section");
            let row_left = ls.count() - k;
            let bc = self.dist.owner_in_dim(d, c);
            let (_, bhi) = self.dist.bounds_in_dim(d, bc);
            let steps = (bhi - c).div_ceil(ls.stride);
            LocatedRun {
                pos,
                len: row_left.min(steps).min(max_len),
                rank,
                addr,
                stride: ls.stride as isize,
            }
        })
    }
}

impl BlockDesc {
    /// Owner (global rank) and local address of global coordinates.
    fn location_of(&self, coords: &[usize]) -> Location {
        let local = self.dist.owner(coords);
        Location {
            rank: self.members[local],
            addr: self.dist.local_addr(local, coords),
        }
    }
}

impl<T: Copy + Default> McObject<T> for MultiblockArray<T> {
    type Region = RegularSection;
    type Descriptor = BlockDesc;

    fn deref_owned_runs(
        &self,
        comm: &mut Comm<'_>,
        set: &SetOfRegions<RegularSection>,
    ) -> Vec<OwnedRun> {
        // Each row of an intersected sub-section is one run of consecutive
        // positions whose local addresses advance by the section's last-dim
        // stride.  Work is O(rows), not O(elements).
        let my_box = self.my_box();
        let dist = self.dist();
        let me = self.my_local();
        let mut builder = RunBuilder::new();
        let mut region_offset = 0;
        let mut inspected = 0usize;
        for region in set.regions() {
            if let Some(sub) = region.intersect_box(&my_box) {
                let nd = sub.ndim();
                let (row_len, stride) = if nd == 0 {
                    (sub.len(), 1isize)
                } else {
                    let ls = &sub.dims()[nd - 1];
                    (ls.count(), ls.stride as isize)
                };
                let rows = sub.len().checked_div(row_len).unwrap_or(0);
                let mut coords = vec![0usize; nd];
                for r in 0..rows {
                    sub.coords_into(r * row_len, &mut coords);
                    let pos = region_offset
                        + region
                            .position_of(&coords)
                            .expect("intersection is a subset");
                    let addr = dist.local_addr(me, &coords);
                    builder.push_run(pos, row_len, addr, stride);
                }
                inspected += sub.len();
            }
            region_offset += region.len();
        }
        // Closed-form arithmetic per owned element, plus a constant per
        // region for the intersection itself.
        comm.ep().charge_owner_calc(inspected + set.num_regions());
        builder.finish()
    }

    fn descriptor(&self, _comm: &mut Comm<'_>) -> BlockDesc {
        // Purely local: a block descriptor is a few integers.
        BlockDesc {
            dist: self.dist().clone(),
            members: self.members().to_vec(),
        }
    }

    fn epoch(&self) -> u64 {
        MultiblockArray::epoch(self)
    }

    fn local(&self) -> &[T] {
        MultiblockArray::local(self)
    }

    fn local_mut(&mut self) -> &mut [T] {
        MultiblockArray::local_mut(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim::group::Group;
    use mcsim::model::MachineModel;
    use mcsim::world::World;
    use meta_chaos::build::{compute_schedule, BuildMethod};
    use meta_chaos::datamove::data_move;
    use meta_chaos::testlib::check_deref_runs;
    use meta_chaos::Side;

    #[test]
    fn desc_wire_roundtrip() {
        let d = BlockDesc {
            dist: BlockDist::new(vec![8, 6], ProcGrid::new(vec![2, 2]), 1),
            members: vec![0, 1, 2, 3],
        };
        let b = d.to_bytes();
        assert_eq!(BlockDesc::from_bytes(&b).unwrap(), d);
    }

    #[test]
    fn deref_owned_runs_agree_with_descriptor() {
        let world = World::with_model(4, MachineModel::zero());
        world.run(|ep| {
            let g = Group::world(ep.world_size());
            let a = MultiblockArray::<f64>::new(&g, ep.rank(), &[9, 7]);
            let sets = [
                SetOfRegions::from_regions(vec![
                    RegularSection::of_bounds(&[(1, 6), (2, 7)]),
                    RegularSection::of_bounds(&[(7, 9), (0, 3)]),
                ]),
                SetOfRegions::from_regions(vec![
                    RegularSection::of_bounds(&[(1, 6), (2, 7)]),
                    RegularSection::new(vec![
                        meta_chaos::DimSlice::strided(0, 9, 2),
                        meta_chaos::DimSlice::strided(1, 7, 3),
                    ]),
                ]),
            ];
            for set in &sets {
                check_deref_runs(&mut Comm::world(ep), &a, set);
            }
        });
    }

    #[test]
    fn locate_run_agrees_with_locate_and_tiles() {
        let d = BlockDesc {
            dist: BlockDist::new(vec![10, 10], ProcGrid::new(vec![2, 2]), 1),
            members: vec![5, 6, 7, 8],
        };
        let set = SetOfRegions::from_regions(vec![
            RegularSection::of_bounds(&[(2, 9), (3, 8)]),
            RegularSection::new(vec![
                meta_chaos::DimSlice::strided(0, 10, 3),
                meta_chaos::DimSlice::strided(0, 10, 2),
            ]),
        ]);
        let n = set.total_len();
        let mut pos = 0;
        while pos < n {
            let run = d.locate_run(&set, pos, n - pos);
            assert!(run.pos == pos && run.len >= 1 && run.end() <= n);
            for k in 0..run.len {
                let loc = d.locate(&set, pos + k);
                assert_eq!(loc.rank, run.rank, "pos {}", pos + k);
                assert_eq!(loc.addr, run.addr_at(k), "pos {}", pos + k);
            }
            pos = run.end();
        }
        // And the batched form tiles the whole span after merging.
        let runs = d.locate_runs(&set, 0, n);
        assert_eq!(runs.iter().map(|r| r.len).sum::<usize>(), n);
        for w in runs.windows(2) {
            assert_eq!(w[0].end(), w[1].pos);
        }
    }

    #[test]
    fn section_copy_between_two_block_arrays() {
        // The paper's Fig. 9 example, shrunk: A[1:5, 1:6] = B[5:9, 5:10].
        let world = World::with_model(4, MachineModel::zero());
        let out = world.run(|ep| {
            let g = Group::world(ep.world_size());
            let mut b = MultiblockArray::<f64>::new(&g, ep.rank(), &[12, 12]);
            b.fill_with(|c| (c[0] * 100 + c[1]) as f64);
            let mut a = MultiblockArray::<f64>::new(&g, ep.rank(), &[8, 8]);
            let sset = SetOfRegions::single(RegularSection::of_bounds(&[(5, 9), (5, 11)]));
            let dset = SetOfRegions::single(RegularSection::of_bounds(&[(1, 5), (1, 7)]));
            let sched = compute_schedule(
                ep,
                &g,
                &g,
                Some(Side::new(&b, &sset)),
                &g,
                Some(Side::new(&a, &dset)),
                BuildMethod::Cooperation,
            )
            .unwrap();
            data_move(ep, &sched, &b, &mut a);
            // Collect owned values of A for checking.
            let boxx = a.my_box();
            let mut vals = Vec::new();
            for i in boxx[0].0..boxx[0].1 {
                for j in boxx[1].0..boxx[1].1 {
                    vals.push((i, j, a.get(&[i, j])));
                }
            }
            vals
        });
        for vals in out.results {
            for (i, j, v) in vals {
                let expect = if (1..5).contains(&i) && (1..7).contains(&j) {
                    ((i + 4) * 100 + (j + 4)) as f64
                } else {
                    0.0
                };
                assert_eq!(v, expect, "A[{i}][{j}]");
            }
        }
    }
}
