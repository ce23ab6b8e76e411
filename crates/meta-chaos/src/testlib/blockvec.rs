//! A deliberately tiny reference "data-parallel library" used only by this
//! crate's unit tests: a 1-D block-distributed `f64` vector.
//!
//! The real libraries live in the `multiblock`, `chaos`, `hpf` and `tulip`
//! crates; this one exists so schedule construction and data movement can
//! be tested without a dependency cycle.

use mcsim::error::SimError;
use mcsim::group::{Comm, Group};
use mcsim::wire::{Wire, WireReader};

use crate::adapter::{Location, McDescriptor, McObject};
use crate::region::{IndexSet, Region};
use crate::runs::{OwnedRun, RunBuilder};
use crate::setof::SetOfRegions;

/// Distribution descriptor: block partition of `0..n` over the program.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockVecDesc {
    pub n: usize,
    pub members: Vec<usize>,
}

impl BlockVecDesc {
    fn block(&self) -> usize {
        self.n.div_ceil(self.members.len())
    }

    fn owner_local(&self, g: usize) -> usize {
        (g / self.block()).min(self.members.len() - 1)
    }

    fn lo(&self, local: usize) -> usize {
        (local * self.block()).min(self.n)
    }

    fn hi(&self, local: usize) -> usize {
        ((local + 1) * self.block()).min(self.n)
    }
}

impl Wire for BlockVecDesc {
    fn write(&self, out: &mut Vec<u8>) {
        self.n.write(out);
        self.members.write(out);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        Ok(BlockVecDesc {
            n: usize::read(r)?,
            members: Vec::<usize>::read(r)?,
        })
    }
}

impl McDescriptor for BlockVecDesc {
    type Region = IndexSet;
    fn locate(&self, set: &SetOfRegions<IndexSet>, pos: usize) -> Location {
        let (ri, off) = set.locate_position(pos);
        let g = set.regions()[ri].index(off);
        let local = self.owner_local(g);
        Location {
            rank: self.members[local],
            addr: g - self.lo(local),
        }
    }
}

/// The distributed vector itself: each rank of the program stores its block.
#[derive(Debug, Clone)]
pub struct BlockVec {
    pub desc: BlockVecDesc,
    pub my_local: usize,
    pub data: Vec<f64>,
}

impl BlockVec {
    /// Create on each program rank, filled by `f(global index)`.
    pub fn create(prog: &Group, me_global: usize, n: usize, f: impl Fn(usize) -> f64) -> Self {
        let desc = BlockVecDesc {
            n,
            members: prog.members().to_vec(),
        };
        let my_local = prog.local_of(me_global).expect("member");
        let lo = desc.lo(my_local);
        let hi = desc.hi(my_local);
        BlockVec {
            my_local,
            data: (lo..hi).map(f).collect(),
            desc,
        }
    }

    /// Global index of local address `a`.
    #[allow(dead_code)]
    pub fn global_of(&self, a: usize) -> usize {
        self.desc.lo(self.my_local) + a
    }
}

impl McObject<f64> for BlockVec {
    type Region = IndexSet;
    type Descriptor = BlockVecDesc;

    fn deref_owned_runs(&self, comm: &mut Comm<'_>, set: &SetOfRegions<IndexSet>) -> Vec<OwnedRun> {
        let me = comm.rank();
        let mut out = RunBuilder::new();
        let mut pos = 0;
        for r in set.regions() {
            for k in 0..r.len() {
                let g = r.index(k);
                if self.desc.owner_local(g) == me {
                    out.push(pos, g - self.desc.lo(me));
                }
                pos += 1;
            }
        }
        comm.ep().charge_owner_calc(pos);
        out.finish()
    }

    fn descriptor(&self, _comm: &mut Comm<'_>) -> BlockVecDesc {
        self.desc.clone()
    }

    fn local(&self) -> &[f64] {
        &self.data
    }

    fn local_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}
