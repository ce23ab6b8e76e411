//! The complete Meta-Chaos integration of the Tulip collection — all a
//! library must supply (paper §4.1.3): a Region type (we reuse
//! [`IndexSet`]), a descriptor with `locate`, an owned-elements
//! dereference, and a view of its local storage.  Everything is
//! closed-form because the deal distribution is `g % P`.

use mcsim::error::SimError;
use mcsim::group::Comm;
use mcsim::wire::{Wire, WireReader};

use meta_chaos::adapter::{Location, McDescriptor, McObject};
use meta_chaos::region::IndexSet;
use meta_chaos::runs::{OwnedRun, RunBuilder};
use meta_chaos::setof::SetOfRegions;

use crate::collection::DistributedCollection;

/// Descriptor of a dealt collection: size + member ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TulipDesc {
    /// Collection size.
    pub n: usize,
    /// Global ranks of the owning program.
    pub members: Vec<usize>,
}

impl Wire for TulipDesc {
    fn write(&self, out: &mut Vec<u8>) {
        self.n.write(out);
        self.members.write(out);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        Ok(TulipDesc {
            n: usize::read(r)?,
            members: Vec::<usize>::read(r)?,
        })
    }
}

impl McDescriptor for TulipDesc {
    type Region = IndexSet;

    fn locate(&self, set: &SetOfRegions<IndexSet>, pos: usize) -> Location {
        let (ri, off) = set.locate_position(pos);
        let g = set.regions()[ri].index(off);
        let p = self.members.len();
        Location {
            rank: self.members[g % p],
            addr: g / p,
        }
    }
}

impl<T: Copy + Default> McObject<T> for DistributedCollection<T> {
    type Region = IndexSet;
    type Descriptor = TulipDesc;

    fn deref_owned_runs(&self, comm: &mut Comm<'_>, set: &SetOfRegions<IndexSet>) -> Vec<OwnedRun> {
        // The deal distribution (`g % P`) is irregular from a run point of
        // view, so the scan stays O(elements); runs still form wherever the
        // index list walks one owner's elements in order (always for P = 1,
        // stride-aware for arithmetic index sequences).
        let me = self.my_local();
        let mut builder = RunBuilder::new();
        let mut pos = 0usize;
        for region in set.regions() {
            for &g in region.indices() {
                if self.owner_of(g) == me {
                    builder.push(pos, self.local_of(g));
                }
                pos += 1;
            }
        }
        comm.ep().charge_owner_calc(pos);
        builder.finish()
    }

    fn descriptor(&self, _comm: &mut Comm<'_>) -> TulipDesc {
        TulipDesc {
            n: self.len(),
            members: self.members().to_vec(),
        }
    }

    fn local(&self) -> &[T] {
        DistributedCollection::local(self)
    }

    fn local_mut(&mut self) -> &mut [T] {
        DistributedCollection::local_mut(self)
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
    fn tulip_to_tulip_copy() {
        let world = World::with_model(3, MachineModel::zero());
        let out = world.run(|ep| {
            let g = Group::world(3);
            let mut src = DistributedCollection::<f64>::new(&g, ep.rank(), 12);
            src.apply(|g, v| *v = g as f64 * 3.0);
            let mut dst = DistributedCollection::<f64>::new(&g, ep.rank(), 12);
            // dst[k] = src[11-k]
            let sset = SetOfRegions::single(IndexSet::new((0..12).rev().collect()));
            let dset = SetOfRegions::single(IndexSet::new((0..12).collect()));
            let sched = compute_schedule(
                ep,
                &g,
                &g,
                Some(Side::new(&src, &sset)),
                &g,
                Some(Side::new(&dst, &dset)),
                BuildMethod::Cooperation,
            )
            .unwrap();
            data_move(ep, &sched, &src, &mut dst);
            let mut got = Vec::new();
            let me = dst.my_local();
            let p = dst.num_procs();
            for (l, &v) in dst.local().iter().enumerate() {
                got.push((l * p + me, v));
            }
            got
        });
        for vals in out.results {
            for (g, v) in vals {
                assert_eq!(v, (11 - g) as f64 * 3.0, "dst[{g}]");
            }
        }
    }

    #[test]
    fn deref_owned_runs_agree_with_descriptor() {
        for procs in [1usize, 2, 3] {
            let world = World::with_model(procs, MachineModel::zero());
            world.run(move |ep| {
                let g = Group::world(procs);
                let c = DistributedCollection::<f64>::new(&g, ep.rank(), 20);
                let sets = [
                    SetOfRegions::single(IndexSet::new(vec![8, 0, 5])),
                    SetOfRegions::from_regions(vec![
                        IndexSet::new((0..12).collect()),
                        IndexSet::new(vec![19, 3, 8, 8]),
                    ]),
                ];
                for set in &sets {
                    let runs = check_deref_runs(&mut Comm::new(ep, g.clone()), &c, set);
                    if procs == 1 && set.total_len() > 12 {
                        // Single owner: the contiguous prefix collapses.
                        assert!(runs[0].len >= 12, "runs: {runs:?}");
                    }
                }
            });
        }
    }

    #[test]
    fn desc_wire_roundtrip() {
        let d = TulipDesc {
            n: 5,
            members: vec![2, 4],
        };
        assert_eq!(TulipDesc::from_bytes(&d.to_bytes()).unwrap(), d);
    }
}
