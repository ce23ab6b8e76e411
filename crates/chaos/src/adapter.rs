//! Meta-Chaos interface functions for [`IrregArray`] (paper §4.1.3).
//!
//! The Region type is an [`IndexSet`] of global indices — "for Chaos a
//! Region type would be a set of global array indices".  Dereferencing
//! goes through the distributed translation table (communication!), and
//! the descriptor for the duplication build strategy is the *entire*
//! table — the paper's example of a library without a compact descriptor,
//! making duplication impractical between separate programs.

use mcsim::collectives::per_peer;
use mcsim::error::SimError;
use mcsim::group::Comm;
use mcsim::prelude::Endpoint;
use mcsim::wire::{Wire, WireReader};

use meta_chaos::adapter::{McDescriptor, McObject};
use meta_chaos::region::IndexSet;
use meta_chaos::runs::{LocatedRun, OwnedRun, RunBuilder};
use meta_chaos::setof::SetOfRegions;

use crate::array::IrregArray;
use crate::ttable::Entry;

/// The (large) Chaos descriptor: a fully replicated translation table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrregDesc {
    /// Global array length.
    pub n: usize,
    /// Global ranks of the owning program.
    pub members: Vec<usize>,
    /// `table[g] = (owner program-local rank, local address)`.
    pub table: Vec<Entry>,
}

impl Wire for IrregDesc {
    fn write(&self, out: &mut Vec<u8>) {
        self.n.write(out);
        self.members.write(out);
        self.table.write(out);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        let n = usize::read(r)?;
        let members = Vec::<usize>::read(r)?;
        let table = Vec::<Entry>::read(r)?;
        if table.len() != n {
            return Err(SimError::Decode("table length mismatch".into()));
        }
        Ok(IrregDesc { n, members, table })
    }
}

impl McDescriptor for IrregDesc {
    type Region = IndexSet;

    fn locate_run(&self, set: &SetOfRegions<IndexSet>, pos: usize, _: usize) -> LocatedRun {
        let (ri, off) = set.locate_position(pos);
        let (owner, addr) = self.table[set.regions()[ri].index(off)];
        LocatedRun::single(pos, self.members[owner as usize], addr as usize)
    }

    fn charge_locates(&self, ep: &mut Endpoint, n: usize) {
        // Probing even a *replicated* translation table costs the full
        // table-lookup software path per element.
        ep.charge_deref(n);
    }
}

impl<T: Copy> IrregArray<T> {
    /// First half of `deref_owned_runs`: chunked translation-table
    /// dereference of the replicated region lists, with
    /// the answers forwarded to their owners.  Returns the per-source-rank
    /// `(pos, addr)` lists; each list is ascending and, taken in rank
    /// order, so is their concatenation (sender `r` holds the `r`-th
    /// position block).
    fn owned_incoming(
        &self,
        comm: &mut Comm<'_>,
        set: &SetOfRegions<IndexSet>,
    ) -> Vec<Vec<(usize, u32)>> {
        let p = comm.size();
        let me = comm.rank();
        let n = set.total_len();

        // The region lists are replicated program-wide (they are the
        // transfer specification), so the positions are processed in
        // parallel: rank r translates the r-th block.
        let chunk = n.div_ceil(p).max(1);
        let lo = (me * chunk).min(n);
        let hi = ((me + 1) * chunk).min(n);
        let mut queries = Vec::with_capacity(hi - lo);
        let mut pos = 0usize;
        for region in set.regions() {
            if pos >= hi {
                break;
            }
            // This region's share of [lo, hi), in its own offsets.
            let idx = region.indices();
            let from = lo.saturating_sub(pos).min(idx.len());
            let to = hi.saturating_sub(pos).min(idx.len());
            queries.extend_from_slice(&idx[from..to]);
            pos += idx.len();
        }
        let locs = self.table().dereference(comm, &queries);

        let outgoing = per_peer(
            p,
            (lo..)
                .zip(&locs)
                .map(|(pos, &(owner, addr))| (owner as usize, (pos, addr))),
        );
        comm.ep().charge_schedule_insert(hi - lo);
        comm.alltoallv_t(outgoing)
    }
}

impl<T: Copy> McObject<T> for IrregArray<T> {
    type Region = IndexSet;
    type Descriptor = IrregDesc;

    fn deref_owned_runs(&self, comm: &mut Comm<'_>, set: &SetOfRegions<IndexSet>) -> Vec<OwnedRun> {
        // Irregular placement means runs mostly degrade to length 1 — the
        // paper's point about Chaos — but whatever locality the
        // translation table does have is kept.
        let incoming = self.owned_incoming(comm, set);
        let mut builder = RunBuilder::with_capacity(incoming.iter().map(Vec::len).sum());
        for list in incoming {
            comm.ep().charge_schedule_insert(list.len());
            for (pos, addr) in list {
                builder.push(pos, addr as usize);
            }
        }
        builder.finish()
    }

    fn descriptor(&self, comm: &mut Comm<'_>) -> IrregDesc {
        // The whole distributed table must be replicated — the expensive
        // step that makes duplication ≈2× cooperation in Table 2.
        let table = self.table().gather_full(comm);
        IrregDesc {
            n: self.len(),
            members: self.table().members().to_vec(),
            table,
        }
    }

    fn epoch(&self) -> u64 {
        IrregArray::epoch(self)
    }

    fn local(&self) -> &[T] {
        IrregArray::local(self)
    }

    fn local_mut(&mut self) -> &mut [T] {
        IrregArray::local_mut(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partition;
    use mcsim::group::Group;
    use mcsim::model::MachineModel;
    use mcsim::world::World;
    use meta_chaos::build::{compute_schedule, BuildMethod};
    use meta_chaos::datamove::data_move;
    use meta_chaos::testlib::check_deref_runs;
    use meta_chaos::Side;

    #[test]
    fn deref_owned_runs_agree_with_descriptor() {
        let world = World::with_model(3, MachineModel::zero());
        world.run(|ep| {
            let mut comm = Comm::new(ep, Group::world(3));
            let x = IrregArray::create(&mut comm, 24, Partition::Random(5), |g| g as f64);
            let sets = [
                SetOfRegions::from_regions(vec![
                    IndexSet::new(vec![3, 19, 0, 7]),
                    IndexSet::new(vec![11, 2]),
                ]),
                SetOfRegions::from_regions(vec![
                    IndexSet::new((0..16).collect()),
                    IndexSet::new(vec![23, 1, 17]),
                ]),
            ];
            for set in &sets {
                check_deref_runs(&mut comm, &x, set);
            }
        });
    }

    #[test]
    fn desc_wire_roundtrip() {
        let d = IrregDesc {
            n: 3,
            members: vec![4, 9],
            table: vec![(0, 0), (1, 0), (0, 1)],
        };
        assert_eq!(IrregDesc::from_bytes(&d.to_bytes()).unwrap(), d);
        // Truncated table rejected.
        let bad = IrregDesc {
            n: 5,
            members: vec![0],
            table: vec![(0, 0)],
        };
        let mut bytes = Vec::new();
        bad.n.write(&mut bytes);
        bad.members.write(&mut bytes);
        bad.table.write(&mut bytes);
        assert!(IrregDesc::from_bytes(&bytes).is_err());
    }

    #[test]
    fn irregular_to_irregular_meta_chaos_copy() {
        // Meta-Chaos moving data between two *differently* irregularly
        // distributed arrays, both build methods.
        let n = 32;
        for method in [BuildMethod::Cooperation, BuildMethod::Duplication] {
            let world = World::with_model(4, MachineModel::zero());
            let out = world.run(move |ep| {
                let g = Group::world(4);
                let mut comm = Comm::new(ep, g.clone());
                let src =
                    IrregArray::create(&mut comm, n, Partition::Random(21), |g| 1000.0 + g as f64);
                let mut dst = IrregArray::create(&mut comm, n, Partition::Random(22), |_| 0.0);
                // dst[2k] = src[k] for k in 0..16
                let sset = SetOfRegions::single(IndexSet::new((0..16).collect()));
                let dset = SetOfRegions::single(IndexSet::new((0..16).map(|k| 2 * k).collect()));
                let sched = compute_schedule(
                    ep,
                    &g,
                    &g,
                    Some(Side::new(&src, &sset)),
                    &g,
                    Some(Side::new(&dst, &dset)),
                    method,
                )
                .unwrap();
                data_move(ep, &sched, &src, &mut dst);
                dst.my_globals()
                    .iter()
                    .zip(dst.local())
                    .map(|(&g, &v)| (g, v))
                    .collect::<Vec<_>>()
            });
            for vals in out.results {
                for (g, v) in vals {
                    let expect = if g % 2 == 0 && g < 32 {
                        1000.0 + (g / 2) as f64
                    } else {
                        0.0
                    };
                    assert_eq!(v, expect, "{method:?} dst[{g}]");
                }
            }
        }
    }
}
