//! Meta-Chaos interface functions for [`HpfArray`] (the paper's HPF
//! runtime-library interface, used in its Figure 9 example).
//!
//! The Region type is an HPF array section ([`RegularSection`]).  The
//! run-based dereference ([`McObject::deref_owned_runs`]) resolves
//! ownership in closed form for every directive: box intersection for
//! all-contiguous distributions (`BLOCK`/`*`), and the per-dimension
//! owned chunk ranges of [`HpfDist::owned_section_ranges`] once a
//! `CYCLIC(k)` dimension is involved — host work proportional to what
//! the rank owns.  The owner test per section element it replaced is kept
//! as the test oracle (`deref_owned_scan`).

use mcsim::error::SimError;
use mcsim::group::Comm;
use mcsim::wire::{Wire, WireReader};

use meta_chaos::adapter::{Location, McDescriptor, McObject};
use meta_chaos::region::{Region, RegularSection};
use meta_chaos::runs::{LocatedRun, OwnedRun, RunBuilder};
use meta_chaos::setof::SetOfRegions;

use crate::array::HpfArray;
use crate::dist::{DistKind, HpfDist, RangeOdometer};

/// Compact descriptor of an HPF distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HpfDesc {
    /// The distribution directives.
    pub dist: HpfDist,
    /// Global ranks of the owning program, in arrangement order.
    pub members: Vec<usize>,
}

impl Wire for HpfDesc {
    fn write(&self, out: &mut Vec<u8>) {
        self.dist.write(out);
        self.members.write(out);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        let dist = HpfDist::read(r)?;
        let members = Vec::<usize>::read(r)?;
        if dist.num_procs() != members.len() {
            return Err(SimError::Decode("member count mismatch".into()));
        }
        Ok(HpfDesc { dist, members })
    }
}

impl McDescriptor for HpfDesc {
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
            // Consecutive positions step the last (fastest) dimension; the
            // run ends at the section row, the owner boundary (block edge
            // or cyclic chunk edge), or max_len — whichever comes first.
            // Within that span the HPF local-addressing formula advances
            // by the section stride for every directive kind.
            let ls = &region.dims()[d];
            let c = coords[d];
            let k = ls.position_of(c).expect("coords came from the section");
            let row_left = ls.count() - k;
            let steps = match self.dist.kinds()[d] {
                DistKind::Collapsed => row_left,
                DistKind::Block => {
                    let n = self.dist.shape()[d];
                    let g = self.dist.proc_dims()[d];
                    let o = DistKind::Block.owner(n, g, c);
                    let (_, bhi) = self.dist.block_bounds(d, o);
                    (bhi - c).div_ceil(ls.stride)
                }
                DistKind::Cyclic(kk) => {
                    let chunk_end = (c / kk + 1) * kk;
                    (chunk_end - c).div_ceil(ls.stride)
                }
            };
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

impl HpfDesc {
    /// Owner (global rank) and local address of global coordinates.
    fn location_of(&self, coords: &[usize]) -> Location {
        let local = self.dist.owner(coords);
        Location {
            rank: self.members[local],
            addr: self.dist.local_addr(local, coords),
        }
    }
}

impl<T: Copy + Default> HpfArray<T> {
    /// [`McObject::deref_owned_runs`] for distributions with a `CYCLIC(k)`
    /// dimension: the owned section indices of the outer dimensions form a
    /// row-major odometer, and each owned chunk range of the innermost
    /// dimension is one arithmetic progression of addresses — O(owned
    /// rows × inner chunks) host work, no per-element owner test.
    ///
    /// The decomposition is part of the contract, not just the expansion:
    /// the Cooperation build announces one record per run, so the run list
    /// must equal `coalesce_owned(&self.deref_owned_scan(..))` run for run.
    /// `RunBuilder::push_run` is not the same as pushing its elements (a
    /// length-1 last run adopts any stride from `push`, only the run's own
    /// from `push_run`), hence each range's first element goes through
    /// `push` and the rest follow as one run.  The virtual-clock charge is
    /// per section element: the simulated library still inspects the
    /// section.
    fn deref_owned_runs_chunked(
        &self,
        comm: &mut Comm<'_>,
        set: &SetOfRegions<RegularSection>,
    ) -> Vec<OwnedRun> {
        let dist = self.dist();
        let me = self.my_local();
        let pc = dist.proc_coords(me);
        let mut builder = RunBuilder::new();
        let mut region_offset = 0usize;
        for region in set.regions() {
            let base = region_offset;
            region_offset += region.len();
            let slices = region.dims();
            let owned: Vec<Vec<(usize, usize)>> = slices
                .iter()
                .enumerate()
                .map(|(d, s)| dist.owned_section_ranges(d, pc[d], s).collect())
                .collect();
            let (inner, outer) = owned.split_last().expect("sections have a dimension");
            if inner.is_empty() {
                continue;
            }
            let (inner_slice, outer_slices) =
                slices.split_last().expect("sections have a dimension");
            let row_len = inner_slice.count();
            let stride = inner_slice.stride;
            let mut coords = vec![0usize; slices.len()];
            let mut rows = RangeOdometer::new(outer);
            while let Some(ks) = rows.advance() {
                let mut row = 0usize;
                for (d, (&k, s)) in ks.iter().zip(outer_slices).enumerate() {
                    row = row * s.count() + k;
                    coords[d] = s.index(k);
                }
                let row_pos = base + row * row_len;
                for &(k_lo, k_hi) in inner {
                    coords[slices.len() - 1] = inner_slice.index(k_lo);
                    let addr = dist.local_addr(me, &coords);
                    builder.push(row_pos + k_lo, addr);
                    builder.push_run(
                        row_pos + k_lo + 1,
                        k_hi - k_lo - 1,
                        addr + stride,
                        stride as isize,
                    );
                }
            }
        }
        comm.ep()
            .charge_owner_calc(set.total_len() + set.num_regions());
        builder.finish()
    }

    /// The pre-run-based dereference: `(position, address)` per owned
    /// element, an owner test on every section element once a `CYCLIC(k)`
    /// dimension is involved.  Kept as the test oracle.
    #[cfg(test)]
    fn deref_owned_scan(
        &self,
        comm: &mut Comm<'_>,
        set: &SetOfRegions<RegularSection>,
    ) -> Vec<(usize, meta_chaos::LocalAddr)> {
        let me = self.my_local();
        let dist = self.dist();
        let mut out = Vec::new();
        let mut region_offset = 0usize;
        let mut inspected = 0usize;

        if dist.is_all_contiguous() {
            // Fast path: ownership is a box; intersect like Parti does.
            let pc = dist.proc_coords(me);
            let my_box: Vec<(usize, usize)> = (0..dist.shape().len())
                .map(|d| dist.block_bounds(d, pc[d]))
                .collect();
            for region in set.regions() {
                if let Some(sub) = region.intersect_box(&my_box) {
                    let mut it = sub.iter_coords();
                    while let Some(coords) = it.advance() {
                        let pos =
                            region_offset + region.position_of(coords).expect("subset of region");
                        out.push((pos, dist.local_addr(me, coords)));
                    }
                    inspected += sub.len();
                }
                region_offset += region.len();
            }
        } else {
            // General path: closed-form owner test per section element.
            for region in set.regions() {
                let mut it = region.iter_coords();
                let mut k = 0usize;
                while let Some(coords) = it.advance() {
                    if dist.owner(coords) == me {
                        out.push((region_offset + k, dist.local_addr(me, coords)));
                    }
                    k += 1;
                }
                inspected += region.len();
                region_offset += region.len();
            }
            out.sort_unstable_by_key(|&(pos, _)| pos);
        }
        comm.ep().charge_owner_calc(inspected + set.num_regions());
        out
    }
}

impl<T: Copy + Default> McObject<T> for HpfArray<T> {
    type Region = RegularSection;
    type Descriptor = HpfDesc;

    fn deref_owned_runs(
        &self,
        comm: &mut Comm<'_>,
        set: &SetOfRegions<RegularSection>,
    ) -> Vec<OwnedRun> {
        let dist = self.dist();
        if !dist.is_all_contiguous() {
            return self.deref_owned_runs_chunked(comm, set);
        }
        // Contiguous fast path: ownership is a box, and each row of an
        // intersected sub-section is one run — O(rows) work, charged per
        // owned element.
        let me = self.my_local();
        let pc = dist.proc_coords(me);
        let my_box: Vec<(usize, usize)> = (0..dist.shape().len())
            .map(|d| dist.block_bounds(d, pc[d]))
            .collect();
        let mut builder = RunBuilder::new();
        let mut region_offset = 0usize;
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
                    let pos =
                        region_offset + region.position_of(&coords).expect("subset of region");
                    builder.push_run(pos, row_len, dist.local_addr(me, &coords), stride);
                }
                inspected += sub.len();
            }
            region_offset += region.len();
        }
        comm.ep().charge_owner_calc(inspected + set.num_regions());
        builder.finish()
    }

    fn descriptor(&self, _comm: &mut Comm<'_>) -> HpfDesc {
        HpfDesc {
            dist: self.dist().clone(),
            members: self.members().to_vec(),
        }
    }

    fn epoch(&self) -> u64 {
        HpfArray::epoch(self)
    }

    fn local(&self) -> &[T] {
        HpfArray::local(self)
    }

    fn local_mut(&mut self) -> &mut [T] {
        HpfArray::local_mut(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DistKind;
    use mcsim::group::Group;
    use mcsim::model::MachineModel;
    use mcsim::rng::Rng;
    use mcsim::world::World;
    use meta_chaos::build::{compute_schedule, BuildMethod};
    use meta_chaos::datamove::data_move;
    use meta_chaos::testlib::check_deref_runs;
    use meta_chaos::Side;

    #[test]
    fn deref_owned_runs_agree_with_descriptor() {
        // The contiguous box path and the cyclic chunk path, 1-D and 2-D.
        let cyclic_1d = HpfDist::new(vec![15], vec![DistKind::Cyclic(2)], vec![3]);
        let strided_1d =
            SetOfRegions::single(RegularSection::new(vec![meta_chaos::DimSlice::strided(
                1, 15, 2,
            )]));
        let set_2d = SetOfRegions::from_regions(vec![
            RegularSection::of_bounds(&[(1, 8), (2, 7)]),
            RegularSection::new(vec![
                meta_chaos::DimSlice::strided(0, 9, 2),
                meta_chaos::DimSlice::strided(1, 8, 3),
            ]),
        ]);
        let cyclic_2d = HpfDist::new(
            vec![9, 8],
            vec![DistKind::Cyclic(2), DistKind::Block],
            vec![2, 2],
        );
        let cases = [
            (3usize, cyclic_1d, strided_1d),
            (4, HpfDist::block_block(9, 8, 2, 2), set_2d.clone()),
            (4, cyclic_2d, set_2d),
        ];
        for (procs, dist, set) in cases {
            let world = World::with_model(procs, MachineModel::zero());
            world.run(|ep| {
                let g = Group::world(procs);
                let a = HpfArray::<f64>::new(&g, ep.rank(), dist.clone());
                check_deref_runs(&mut Comm::new(ep, g), &a, &set);
            });
        }
    }

    /// Seeded random `(distribution, section set)` cases over `procs`
    /// ranks: 1–3 dims, 1–3 strided regions, empty slices included.
    fn random_cases(
        seed: u64,
        procs: usize,
        count: usize,
    ) -> Vec<(HpfDist, SetOfRegions<RegularSection>)> {
        let mut rng = Rng::seed_from_u64(seed ^ procs as u64);
        (0..count)
            .map(|_| {
                let ndim = 1 + rng.gen_range(3);
                let shape: Vec<usize> = (0..ndim).map(|_| 1 + rng.gen_range(14)).collect();
                let regions = (0..1 + rng.gen_range(3))
                    .map(|_| {
                        let dims = shape
                            .iter()
                            .map(|&n| {
                                let lo = rng.gen_range(n + 1);
                                // One slice in eight is empty.
                                let hi = if rng.gen_range(8) == 0 {
                                    lo
                                } else {
                                    lo + rng.gen_range(n - lo + 1)
                                };
                                meta_chaos::DimSlice::strided(lo, hi, 1 + rng.gen_range(4))
                            })
                            .collect();
                        RegularSection::new(dims)
                    })
                    .collect();
                let dist = HpfDist::random(&mut rng, shape, procs);
                (dist, SetOfRegions::from_regions(regions))
            })
            .collect()
    }

    /// Per rank and case: the run list and the virtual clock (bits) after
    /// it, through the run path or through the element-wise reference.
    fn deref_all(
        cases: &[(HpfDist, SetOfRegions<RegularSection>)],
        procs: usize,
        via_runs: bool,
    ) -> Vec<Vec<(Vec<OwnedRun>, u64)>> {
        let world = World::with_model(procs, MachineModel::sp2());
        let out = world.run(|ep| {
            let g = Group::world(procs);
            cases
                .iter()
                .map(|(dist, set)| {
                    let a = HpfArray::<f64>::new(&g, ep.rank(), dist.clone());
                    let mut comm = Comm::borrowed(ep, &g);
                    let runs = if via_runs {
                        a.deref_owned_runs(&mut comm, set)
                    } else {
                        meta_chaos::coalesce_owned(&a.deref_owned_scan(&mut comm, set))
                    };
                    (runs, ep.clock().to_bits())
                })
                .collect()
        });
        out.results
    }

    fn expand(runs: &[OwnedRun]) -> Vec<(usize, meta_chaos::LocalAddr)> {
        runs.iter()
            .flat_map(|r| (0..r.len).map(move |k| (r.pos + k, r.addr_at(k))))
            .collect()
    }

    #[test]
    fn deref_owned_runs_matches_elementwise_reference() {
        // Differential property: on every rank of random distributions ×
        // strided multi-region sets, the closed-form run path expands to
        // the element-wise reference and charges the same virtual time;
        // where a CYCLIC dimension is involved the decomposition itself is
        // the reference's, run for run (it sizes the announce records).
        let seed = mcsim::test_seed();
        let mut chunked = 0usize;
        for procs in [1usize, 2, 3, 4, 6, 8] {
            let cases = random_cases(seed, procs, 60);
            let fast = deref_all(&cases, procs, true);
            let reference = deref_all(&cases, procs, false);
            for rank in 0..procs {
                for (i, (dist, set)) in cases.iter().enumerate() {
                    let (runs, clock) = &fast[rank][i];
                    let (ref_runs, ref_clock) = &reference[rank][i];
                    let ctx = format!("seed {seed} procs {procs} rank {rank} {dist:?} {set:?}");
                    assert_eq!(expand(runs), expand(ref_runs), "{ctx}");
                    assert_eq!(clock, ref_clock, "virtual clock, {ctx}");
                    if !dist.is_all_contiguous() {
                        assert_eq!(runs, ref_runs, "{ctx}");
                        chunked += 1;
                    }
                }
            }
        }
        assert!(chunked > 500, "only {chunked} non-contiguous rank-cases");
    }

    #[test]
    fn locate_run_agrees_with_locate_for_every_kind() {
        let dists = [
            HpfDist::new(
                vec![10, 9],
                vec![DistKind::Block, DistKind::Cyclic(3)],
                vec![2, 2],
            ),
            HpfDist::new(
                vec![10, 9],
                vec![DistKind::Block, DistKind::Collapsed],
                vec![4, 1],
            ),
            HpfDist::new(
                vec![10, 9],
                vec![DistKind::Cyclic(1), DistKind::Block],
                vec![2, 2],
            ),
        ];
        for dist in dists {
            let desc = HpfDesc {
                dist,
                members: (0..4).collect(),
            };
            let set = SetOfRegions::from_regions(vec![
                RegularSection::of_bounds(&[(1, 9), (0, 9)]),
                RegularSection::new(vec![
                    meta_chaos::DimSlice::strided(0, 10, 3),
                    meta_chaos::DimSlice::strided(1, 9, 2),
                ]),
            ]);
            let n = set.total_len();
            let mut pos = 0;
            while pos < n {
                let run = desc.locate_run(&set, pos, n - pos);
                assert!(run.pos == pos && run.len >= 1 && run.end() <= n);
                for k in 0..run.len {
                    let loc = desc.locate(&set, pos + k);
                    assert_eq!(loc.rank, run.rank, "pos {}", pos + k);
                    assert_eq!(loc.addr, run.addr_at(k), "pos {}", pos + k);
                }
                pos = run.end();
            }
        }
    }

    #[test]
    fn hpf_fig9_example() {
        // The paper's Figure 9: two HPF programs exchange
        // A[0:50, 9:60) = B[49:100, 49:100) (0-based half-open here);
        // run as one SPMD program with two (block,block) arrays.
        let world = World::with_model(4, MachineModel::zero());
        let out = world.run(|ep| {
            let g = Group::world(4);
            let mut b = HpfArray::<f64>::new(&g, ep.rank(), HpfDist::block_block(200, 100, 2, 2));
            b.for_each_owned(|c, v| *v = (c[0] * 1000 + c[1]) as f64);
            let a = HpfArray::<f64>::new(&g, ep.rank(), HpfDist::block_block(50, 60, 2, 2));
            let sset = SetOfRegions::single(RegularSection::of_bounds(&[(49, 99), (49, 99)]));
            let dset = SetOfRegions::single(RegularSection::of_bounds(&[(0, 50), (9, 59)]));
            let mut a = a;
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
            let mut got = Vec::new();
            for i in 0..50 {
                for j in 0..60 {
                    if a.owns(&[i, j]) {
                        got.push((i, j, a.get(&[i, j])));
                    }
                }
            }
            got
        });
        for vals in out.results {
            for (i, j, v) in vals {
                let expect = if (9..59).contains(&j) {
                    ((i + 49) * 1000 + (j - 9 + 49)) as f64
                } else {
                    0.0
                };
                assert_eq!(v, expect, "A[{i}][{j}]");
            }
        }
    }

    #[test]
    fn cyclic_to_block_copy() {
        // Meta-Chaos moving between different HPF distributions.
        let world = World::with_model(2, MachineModel::zero());
        let out = world.run(|ep| {
            let g = Group::world(2);
            let mut src = HpfArray::<f64>::new(
                &g,
                ep.rank(),
                HpfDist::new(vec![10], vec![DistKind::Cyclic(1)], vec![2]),
            );
            src.for_each_owned(|c, v| *v = c[0] as f64 + 0.5);
            let mut dst = HpfArray::<f64>::new(&g, ep.rank(), HpfDist::block_1d(10, 2));
            let set = SetOfRegions::single(RegularSection::whole(&[10]));
            let sched = compute_schedule(
                ep,
                &g,
                &g,
                Some(Side::new(&src, &set)),
                &g,
                Some(Side::new(&dst, &set)),
                BuildMethod::Duplication,
            )
            .unwrap();
            data_move(ep, &sched, &src, &mut dst);
            let mut got = Vec::new();
            for x in 0..10 {
                if dst.owns(&[x]) {
                    got.push((x, dst.get(&[x])));
                }
            }
            got
        });
        for vals in out.results {
            for (x, v) in vals {
                assert_eq!(v, x as f64 + 0.5);
            }
        }
    }
}
