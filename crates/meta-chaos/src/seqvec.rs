//! A sequential (single-owner) vector as a degenerate data-parallel
//! library.
//!
//! The paper's client/server scenarios repeatedly involve a *sequential*
//! program exchanging data with a parallel one ("a client, running
//! sequentially or in parallel...").  [`SeqVec`] makes that first-class: a
//! vector wholly owned by one designated rank of a program, exporting the
//! same Meta-Chaos interface as any parallel library.  Copying between a
//! `SeqVec` and any distributed structure gives gather/scatter to a single
//! rank for free.

use mcsim::error::SimError;
use mcsim::group::Comm;
use mcsim::wire::{Wire, WireReader};

use crate::adapter::{Location, McDescriptor, McObject};
use crate::region::IndexSet;
use crate::runs::{OwnedRun, RunBuilder};
use crate::setof::SetOfRegions;

/// Descriptor: everything lives on one global rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqDesc {
    /// Vector length.
    pub n: usize,
    /// The owning global rank.
    pub owner: usize,
}

impl Wire for SeqDesc {
    fn write(&self, out: &mut Vec<u8>) {
        self.n.write(out);
        self.owner.write(out);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        Ok(SeqDesc {
            n: usize::read(r)?,
            owner: usize::read(r)?,
        })
    }
}

impl McDescriptor for SeqDesc {
    type Region = IndexSet;

    fn locate(&self, set: &SetOfRegions<IndexSet>, pos: usize) -> Location {
        let (ri, off) = set.locate_position(pos);
        Location {
            rank: self.owner,
            addr: set.regions()[ri].index(off),
        }
    }
}

/// A vector owned in full by one rank; other program ranks hold an empty
/// shell (SPMD-friendly: every rank constructs one).
#[derive(Debug, Clone)]
pub struct SeqVec<T> {
    n: usize,
    owner_global: usize,
    /// Non-empty only on the owner.
    data: Vec<T>,
}

impl<T: Copy + Default> SeqVec<T> {
    /// Create on every rank of the program; storage materializes only on
    /// `owner_global`.
    pub fn new(me_global: usize, owner_global: usize, n: usize) -> Self {
        let data = if me_global == owner_global {
            vec![T::default(); n]
        } else {
            Vec::new()
        };
        SeqVec {
            n,
            owner_global,
            data,
        }
    }

    /// Length of the vector.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The owning global rank.
    pub fn owner(&self) -> usize {
        self.owner_global
    }

    /// The values (meaningful on the owner only).
    pub fn values(&self) -> &[T] {
        &self.data
    }

    /// Mutable values (owner only).
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T: Copy + Default> McObject<T> for SeqVec<T> {
    type Region = IndexSet;
    type Descriptor = SeqDesc;

    fn deref_owned_runs(&self, comm: &mut Comm<'_>, set: &SetOfRegions<IndexSet>) -> Vec<OwnedRun> {
        if comm.group().global(comm.rank()) != self.owner_global {
            return Vec::new();
        }
        // The owner holds every position; its address is the global index.
        let mut out = RunBuilder::new();
        let mut pos = 0;
        for region in set.regions() {
            for &g in region.indices() {
                debug_assert!(g < self.n);
                out.push(pos, g);
                pos += 1;
            }
        }
        comm.ep().charge_owner_calc(pos);
        out.finish()
    }

    fn descriptor(&self, _comm: &mut Comm<'_>) -> SeqDesc {
        SeqDesc {
            n: self.n,
            owner: self.owner_global,
        }
    }

    fn local(&self) -> &[T] {
        &self.data
    }

    fn local_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{compute_schedule, BuildMethod};
    use crate::datamove::data_move;
    use crate::testlib::BlockVec;
    use crate::Side;
    use mcsim::group::Group;
    use mcsim::model::MachineModel;
    use mcsim::world::World;

    #[test]
    fn gather_distributed_vector_to_rank_zero() {
        let n = 18;
        let world = World::with_model(3, MachineModel::zero());
        let out = world.run(move |ep| {
            let g = Group::world(3);
            let b = BlockVec::create(&g, ep.rank(), n, |i| i as f64 * 3.0);
            let mut s = SeqVec::<f64>::new(ep.rank(), 0, n);
            let set = SetOfRegions::single(IndexSet::new((0..n).collect()));
            let sched = compute_schedule(
                ep,
                &g,
                &g,
                Some(Side::new(&b, &set)),
                &g,
                Some(Side::new(&s, &set)),
                BuildMethod::Cooperation,
            )
            .unwrap();
            data_move(ep, &sched, &b, &mut s);
            s.values().to_vec()
        });
        assert_eq!(
            out.results[0],
            (0..n).map(|i| i as f64 * 3.0).collect::<Vec<_>>()
        );
        assert!(out.results[1].is_empty());
    }

    #[test]
    fn scatter_from_owner_with_reversed_schedule() {
        let n = 12;
        let world = World::with_model(2, MachineModel::zero());
        let out = world.run(move |ep| {
            let g = Group::world(2);
            let mut b = BlockVec::create(&g, ep.rank(), n, |_| 0.0);
            let mut s = SeqVec::<f64>::new(ep.rank(), 1, n);
            if ep.rank() == 1 {
                for (i, v) in s.values_mut().iter_mut().enumerate() {
                    *v = 100.0 + i as f64;
                }
            }
            let set = SetOfRegions::single(IndexSet::new((0..n).collect()));
            // Build the gather schedule, then run it backwards to scatter.
            let gather = compute_schedule(
                ep,
                &g,
                &g,
                Some(Side::new(&b, &set)),
                &g,
                Some(Side::new(&s, &set)),
                BuildMethod::Duplication,
            )
            .unwrap();
            data_move(ep, &gather.reversed(), &s, &mut b);
            b.data.clone()
        });
        let all: Vec<f64> = out.results.into_iter().flatten().collect();
        for (i, v) in all.into_iter().enumerate() {
            assert_eq!(v, 100.0 + i as f64);
        }
    }
}
