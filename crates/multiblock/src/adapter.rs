//! Meta-Chaos interface functions for [`MultiblockArray`] (paper §4.1.3).
//!
//! The Region type is a [`RegularSection`] in the array's *global* index
//! space — exactly the paper's choice for Multiblock Parti and HPF.  All
//! owner queries are closed-form block arithmetic, so `deref_owned`
//! enumerates only the elements this rank owns (no communication) and the
//! descriptor is a handful of integers.

use mcsim::error::SimError;
use mcsim::group::Comm;
use mcsim::prelude::Endpoint;
use mcsim::wire::{Wire, WireReader};

use meta_chaos::adapter::{Location, McDescriptor, McObject};
use meta_chaos::region::{Region, RegularSection};
use meta_chaos::runs::{LocatedRun, OwnedRun, RunBuilder};
use meta_chaos::schedule::AddrRuns;
use meta_chaos::setof::SetOfRegions;
use meta_chaos::LocalAddr;

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

    fn locate(&self, set: &SetOfRegions<RegularSection>, pos: usize) -> Location {
        let (ri, off) = set.locate_position(pos);
        set.regions()[ri].with_coords(off, |coords| self.location_of(coords))
    }

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

    fn locate_all(&self, set: &SetOfRegions<RegularSection>) -> Vec<Location> {
        // Batch version: avoid re-resolving the region per element.
        let mut out = Vec::with_capacity(set.total_len());
        for region in set.regions() {
            let mut it = region.iter_coords();
            while let Some(coords) = it.advance() {
                out.push(self.location_of(coords));
            }
        }
        out
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

    fn deref_owned(
        &self,
        comm: &mut Comm<'_>,
        set: &SetOfRegions<RegularSection>,
    ) -> Vec<(usize, LocalAddr)> {
        let my_box = self.my_box();
        let mut out = Vec::new();
        let mut region_offset = 0;
        let mut inspected = 0usize;
        for region in set.regions() {
            if let Some(sub) = region.intersect_box(&my_box) {
                let mut it = sub.iter_coords();
                while let Some(coords) = it.advance() {
                    let pos = region_offset
                        + region
                            .position_of(coords)
                            .expect("intersection is a subset");
                    let addr = self.dist().local_addr(self.my_local(), coords);
                    out.push((pos, addr));
                }
                inspected += sub.len();
            }
            region_offset += region.len();
        }
        // Closed-form arithmetic per owned element, plus a constant per
        // region for the intersection itself.
        comm.ep().charge_owner_calc(inspected + set.num_regions());
        out
    }

    fn deref_owned_runs(
        &self,
        comm: &mut Comm<'_>,
        set: &SetOfRegions<RegularSection>,
    ) -> Vec<OwnedRun> {
        // Row-at-a-time version of `deref_owned`: each row of an
        // intersected sub-section is one run of consecutive positions whose
        // local addresses advance by the section's last-dim stride.  Work is
        // O(rows), not O(elements); the virtual-clock charge is identical.
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
        comm.ep().charge_owner_calc(inspected + set.num_regions());
        builder.finish()
    }

    fn locate_positions(
        &self,
        comm: &mut Comm<'_>,
        set: &SetOfRegions<RegularSection>,
        positions: &[usize],
    ) -> Vec<Location> {
        // Closed-form block arithmetic per query; no communication.
        let dist = self.dist();
        comm.ep().charge_owner_calc(positions.len());
        positions
            .iter()
            .map(|&pos| {
                let (ri, off) = set.locate_position(pos);
                set.regions()[ri].with_coords(off, |coords| {
                    let local = dist.owner(coords);
                    Location {
                        rank: self.members()[local],
                        addr: dist.local_addr(local, coords),
                    }
                })
            })
            .collect()
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

    fn pack(&self, ep: &mut Endpoint, addrs: &[LocalAddr], out: &mut Vec<T>) {
        let data = self.local();
        out.extend(addrs.iter().map(|&a| data[a]));
        ep.charge_copy_bytes(addrs.len() * std::mem::size_of::<T>());
    }

    fn unpack(&mut self, ep: &mut Endpoint, addrs: &[LocalAddr], vals: &[T]) {
        assert_eq!(addrs.len(), vals.len());
        let data = self.local_mut();
        for (&a, &v) in addrs.iter().zip(vals) {
            data[a] = v;
        }
        ep.charge_copy_bytes(addrs.len() * std::mem::size_of::<T>());
    }

    fn pack_runs(&self, ep: &mut Endpoint, runs: &AddrRuns, out: &mut Vec<T>) {
        let data = self.local();
        for &(start, len) in runs.runs() {
            out.extend_from_slice(&data[start..start + len]);
        }
        ep.charge_copy_bytes(runs.len() * std::mem::size_of::<T>());
    }

    fn unpack_runs(&mut self, ep: &mut Endpoint, runs: &AddrRuns, vals: &[T]) {
        assert_eq!(runs.len(), vals.len());
        let data = self.local_mut();
        let mut off = 0;
        for &(start, len) in runs.runs() {
            data[start..start + len].copy_from_slice(&vals[off..off + len]);
            off += len;
        }
        ep.charge_copy_bytes(runs.len() * std::mem::size_of::<T>());
    }

    fn pack_runs_wire(&self, ep: &mut Endpoint, runs: &AddrRuns, out: &mut Vec<u8>)
    where
        T: Wire,
    {
        let data = self.local();
        for &(start, len) in runs.runs() {
            T::write_slice(&data[start..start + len], out);
        }
        ep.charge_copy_bytes(runs.len() * std::mem::size_of::<T>());
    }

    fn unpack_runs_wire(
        &mut self,
        ep: &mut Endpoint,
        runs: &AddrRuns,
        r: &mut WireReader<'_>,
    ) -> Result<(), SimError>
    where
        T: Wire,
    {
        let data = self.local_mut();
        for &(start, len) in runs.runs() {
            T::read_slice(r, &mut data[start..start + len])?;
        }
        ep.charge_copy_bytes(runs.len() * std::mem::size_of::<T>());
        Ok(())
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
    fn locate_agrees_with_deref_owned() {
        let world = World::with_model(4, MachineModel::zero());
        world.run(|ep| {
            let g = Group::world(ep.world_size());
            let a = MultiblockArray::<f64>::new(&g, ep.rank(), &[9, 7]);
            let set = SetOfRegions::from_regions(vec![
                RegularSection::of_bounds(&[(1, 6), (2, 7)]),
                RegularSection::of_bounds(&[(7, 9), (0, 3)]),
            ]);
            let mut comm = Comm::world(ep);
            let owned = a.deref_owned(&mut comm, &set);
            let desc = a.descriptor(&mut comm);
            let me = comm.ep_ref().rank();
            let all = desc.locate_all(&set);
            // Every owned (pos, addr) must agree with the descriptor.
            for &(pos, addr) in &owned {
                assert_eq!(all[pos], Location { rank: me, addr });
            }
            // And the descriptor claims exactly those positions for me.
            let mine: Vec<usize> = all
                .iter()
                .enumerate()
                .filter(|(_, l)| l.rank == me)
                .map(|(p, _)| p)
                .collect();
            assert_eq!(mine, owned.iter().map(|&(p, _)| p).collect::<Vec<_>>());
        });
    }

    #[test]
    fn deref_owned_runs_expand_to_deref_owned() {
        let world = World::with_model(4, MachineModel::zero());
        world.run(|ep| {
            let g = Group::world(ep.world_size());
            let a = MultiblockArray::<f64>::new(&g, ep.rank(), &[9, 7]);
            let set = SetOfRegions::from_regions(vec![
                RegularSection::of_bounds(&[(1, 6), (2, 7)]),
                RegularSection::new(vec![
                    meta_chaos::DimSlice::strided(0, 9, 2),
                    meta_chaos::DimSlice::strided(1, 7, 3),
                ]),
            ]);
            let mut comm = Comm::world(ep);
            let owned = a.deref_owned(&mut comm, &set);
            let runs = a.deref_owned_runs(&mut comm, &set);
            let mut expanded = Vec::new();
            for r in &runs {
                for k in 0..r.len {
                    expanded.push((r.pos + k, r.addr_at(k)));
                }
            }
            assert_eq!(expanded, owned);
            // Runs are sorted, disjoint and maximal is implied by equality
            // with the sorted element list plus the builder invariants.
            for w in runs.windows(2) {
                assert!(w[0].end() <= w[1].pos);
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
    fn locate_all_matches_locate() {
        let d = BlockDesc {
            dist: BlockDist::new(vec![10, 10], ProcGrid::new(vec![2, 2]), 0),
            members: vec![5, 6, 7, 8],
        };
        let set = SetOfRegions::single(RegularSection::of_bounds(&[(2, 9), (3, 8)]));
        let all = d.locate_all(&set);
        for pos in 0..set.total_len() {
            assert_eq!(all[pos], d.locate(&set, pos));
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
