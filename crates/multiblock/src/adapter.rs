//! Meta-Chaos interface functions for [`MultiblockArray`] (paper §4.1.3).
//!
//! The Region type is a [`RegularSection`] in the array's *global* index
//! space — exactly the paper's choice for Multiblock Parti and HPF.  All
//! owner queries are closed-form block arithmetic: the dereference is the
//! owned-segment walk [`owned_section_runs`] over the section's
//! intersection with the rank's block (no communication), and the
//! descriptor is a handful of integers.

use mcsim::error::SimError;
use mcsim::group::Comm;
use mcsim::wire::{Wire, WireReader};

use meta_chaos::adapter::{Location, McDescriptor, McObject};
use meta_chaos::region::{locate_section_run, owned_section_runs, RegularSection};
use meta_chaos::runs::{runs_total, LocatedRun, OwnedRun};
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
        locate_section_run(set, pos, max_len, |coords| {
            let local = self.dist.owner(coords);
            let d = coords.len() - 1;
            let location = Location {
                rank: self.members[local],
                addr: self.dist.local_addr(local, coords),
            };
            let block = self.dist.owner_in_dim(d, coords[d]);
            (location, self.dist.bounds_in_dim(d, block).1)
        })
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
        let dist = self.dist();
        let me = self.my_local();
        let my_box = self.my_box();
        let runs = owned_section_runs(
            set,
            |d, slice, out| out.extend(slice.positions_within(my_box[d].0, my_box[d].1)),
            |coords| dist.local_addr(me, coords),
        );
        // Closed-form arithmetic per owned element, plus a constant per
        // region for the intersection itself.
        comm.ep()
            .charge_owner_calc(runs_total(&runs) + set.num_regions());
        runs
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
    use meta_chaos::testlib::{check_deref_runs, check_locate_runs};
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
            // A stride-1 region, then a stride-2 one on rank 0's block: the
            // first strided element continues the stride-1 run, as
            // `RunBuilder::push` has it: [(0, 5, 0, 1), (5, 3, 6, 2)].
            let v = MultiblockArray::<f64>::new(&g, ep.rank(), &[48]);
            let set = SetOfRegions::from_regions(vec![
                RegularSection::of_bounds(&[(0, 4)]),
                RegularSection::new(vec![meta_chaos::DimSlice::strided(4, 12, 2)]),
            ]);
            check_deref_runs(&mut Comm::world(ep), &v, &set);
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
        check_locate_runs(&d, &set);
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
