//! Meta-Chaos interface functions for [`HpfArray`] (the paper's HPF
//! runtime-library interface, used in its Figure 9 example).
//!
//! The Region type is an HPF array section ([`RegularSection`]).  The
//! dereference is the owned-segment walk [`owned_section_runs`] over the
//! per-dimension owned chunk ranges of [`HpfDist::owned_section_ranges`],
//! for every directive: host work proportional to what the rank owns.  The
//! owner test per section element it replaced is kept as the test oracle
//! (`deref_owned_scan`).

use mcsim::error::SimError;
use mcsim::group::Comm;
use mcsim::wire::{Wire, WireReader};

use meta_chaos::adapter::{Location, McDescriptor, McObject};
use meta_chaos::region::{locate_section_run, owned_section_runs, RegularSection};
use meta_chaos::runs::{runs_total, LocatedRun, OwnedRun};
use meta_chaos::setof::SetOfRegions;

use crate::array::HpfArray;
use crate::dist::HpfDist;

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
            (location, self.dist.segment_end(d, coords[d]))
        })
    }
}

#[cfg(test)]
impl<T: Copy + Default> HpfArray<T> {
    /// The pre-run-based dereference: `(position, address)` per owned
    /// element by an owner test on every section element, charged like
    /// [`McObject::deref_owned_runs`].  Kept as the test oracle.
    fn deref_owned_scan(
        &self,
        comm: &mut Comm<'_>,
        set: &SetOfRegions<RegularSection>,
    ) -> Vec<(usize, meta_chaos::LocalAddr)> {
        let me = self.my_local();
        let dist = self.dist();
        let mut out = Vec::new();
        let mut pos = 0usize;
        for region in set.regions() {
            let mut it = region.iter_coords();
            while let Some(coords) = it.advance() {
                if dist.owner(coords) == me {
                    out.push((pos, dist.local_addr(me, coords)));
                }
                pos += 1;
            }
        }
        let inspected = if dist.is_all_contiguous() {
            out.len()
        } else {
            pos
        };
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
        let me = self.my_local();
        let pc = dist.proc_coords(me);
        let runs = owned_section_runs(
            set,
            |d, slice, out| out.extend(dist.owned_section_ranges(d, pc[d], slice)),
            |coords| dist.local_addr(me, coords),
        );
        // Per element inspected: the simulated runtime intersects boxes
        // for BLOCK/`*`, and inspects the whole section once a CYCLIC
        // dimension is involved; plus a constant per region.
        let inspected = if dist.is_all_contiguous() {
            runs_total(&runs)
        } else {
            set.total_len()
        };
        comm.ep().charge_owner_calc(inspected + set.num_regions());
        runs
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
    use meta_chaos::runs::RunBuilder;
    use meta_chaos::testlib::{check_deref_runs, check_locate_runs};
    use meta_chaos::Side;

    #[test]
    fn deref_owned_runs_agree_with_descriptor() {
        // BLOCK and CYCLIC distributions, 1-D and 2-D.
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
                        let mut b = RunBuilder::new();
                        for (pos, addr) in a.deref_owned_scan(&mut comm, set) {
                            b.push(pos, addr);
                        }
                        b.finish()
                    };
                    (runs, ep.clock().to_bits())
                })
                .collect()
        });
        out.results
    }

    #[test]
    fn deref_owned_runs_matches_elementwise_reference() {
        // Differential property: on every rank of random distributions ×
        // strided multi-region sets, the owned-segment walk returns the
        // element-wise reference's decomposition, run for run (it sizes
        // the announce records), and charges the same virtual time.
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
                    assert_eq!(runs, ref_runs, "{ctx}");
                    assert_eq!(clock, ref_clock, "virtual clock, {ctx}");
                    chunked += usize::from(!dist.is_all_contiguous());
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
            check_locate_runs(&desc, &set);
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
