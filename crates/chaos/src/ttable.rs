//! The distributed translation table.
//!
//! Chaos describes an irregular distribution point-wise: entry `g` of the
//! table says which rank owns global element `g` and at which local
//! address.  The table is itself **block-distributed** (entry `g` lives on
//! the rank owning block `g / ceil(n/P)`), so translating an arbitrary
//! global index requires a round trip to the entry's owner.  This is the
//! `dereference` the paper identifies as the dominant cost of Chaos-side
//! schedule building, and the reason the duplication strategy (which needs
//! the *whole* table on every rank) is expensive.

use mcsim::collectives::per_peer;
use mcsim::error::SimError;
use mcsim::group::Comm;
use mcsim::wire::{Wire, WireReader};

/// One table entry: `(owner program-local rank, local address)`.
pub type Entry = (u32, u32);

/// The replicated table as [`TranslationTable::gather_full`] broadcasts
/// it: sent as the `Vec<Vec<Entry>>` of every rank's slice (held only by
/// the root), decoded straight into one table.
struct TablePieces {
    slices: Vec<Vec<Entry>>,
    table: Vec<Entry>,
}

impl Wire for TablePieces {
    fn write(&self, out: &mut Vec<u8>) {
        self.slices.write(out);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        let pieces = usize::read(r)?;
        // The remaining bytes bound the entry count, so one allocation.
        let mut table = Vec::with_capacity(r.remaining() / 8);
        for _ in 0..pieces {
            let len = usize::read(r)?;
            Entry::read_extend(r, len, &mut table)?;
        }
        let slices = Vec::new();
        Ok(TablePieces { slices, table })
    }
}

/// A block-distributed global-index → (owner, address) directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslationTable {
    n: usize,
    members: Vec<usize>,
    my_local: usize,
    /// Entries for global indices in this rank's table block.
    slice: Vec<Entry>,
}

impl TranslationTable {
    /// Collectively build the table for an `n`-element irregular array.
    ///
    /// Each rank passes `my_indices`: the global indices it owns, in local
    /// storage order (so `my_indices[a]` lives at local address `a`).
    /// Every global index in `0..n` must be owned by exactly one rank.
    pub fn build(comm: &mut Comm<'_>, n: usize, my_indices: &[usize]) -> Self {
        let p = comm.size();
        let me = comm.rank();
        let members: Vec<usize> = (0..p).map(|l| comm.group().global(l)).collect();
        let block = n.div_ceil(p).max(1);

        // Route (g, my_local, addr) to the rank owning table entry g.
        let outgoing = per_peer(
            p,
            my_indices.iter().enumerate().map(|(addr, &g)| {
                assert!(g < n, "global index {g} out of range {n}");
                ((g / block).min(p - 1), (g, addr as u32))
            }),
        );
        comm.ep().charge_schedule_insert(my_indices.len());
        let incoming = comm.alltoallv_t(outgoing);

        let lo = (me * block).min(n);
        let hi = ((me + 1) * block).min(n);
        let mut slice: Vec<Entry> = vec![(u32::MAX, u32::MAX); hi - lo];
        let mut filled = 0usize;
        for (from, list) in incoming.into_iter().enumerate() {
            comm.ep().charge_schedule_insert(list.len());
            for (g, addr) in list {
                let e = &mut slice[g - lo];
                assert_eq!(
                    e.0,
                    u32::MAX,
                    "global index {g} claimed by ranks {} and {from}",
                    e.0
                );
                *e = (from as u32, addr);
                filled += 1;
            }
        }
        let total: usize = comm.allreduce_sum(filled);
        assert_eq!(total, n, "translation table covers {total} of {n} indices");
        assert!(
            slice.iter().all(|e| e.0 != u32::MAX),
            "table block has unowned entries"
        );

        TranslationTable {
            n,
            members,
            my_local: me,
            slice,
        }
    }

    /// Array size the table describes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for a zero-length table.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Global ranks of the owning program.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// This rank's program-local index.
    pub fn my_local(&self) -> usize {
        self.my_local
    }

    /// Block size of the table distribution.
    pub fn block(&self) -> usize {
        self.n.div_ceil(self.members.len()).max(1)
    }

    /// Collective: translate `queries` (global indices) to
    /// `(owner program-local rank, local address)` pairs, in query order.
    ///
    /// Every rank may pass a different query list.  Cost: one table-lookup
    /// charge per query at the entry owner, plus the request/reply
    /// messages — the paper's expensive Chaos `dereference`.
    pub fn dereference(&self, comm: &mut Comm<'_>, queries: &[usize]) -> Vec<Entry> {
        let p = comm.size();
        let me = comm.rank();
        let block = self.block();
        let lo = (me * block).min(self.n);

        // Bucket queries by table-entry owner, remembering where each
        // answer will be: query `i` is request `k` to its owner.  Counted
        // first, so each bucket is allocated at its size and filled, and
        // the answers read, by index.
        let mut counts = vec![0usize; p];
        let slot: Vec<(usize, usize)> = queries
            .iter()
            .map(|&g| {
                assert!(g < self.n, "global index {g} out of range {}", self.n);
                let owner = (g / block).min(p - 1);
                counts[owner] += 1;
                (owner, counts[owner] - 1)
            })
            .collect();
        let mut requests: Vec<Vec<usize>> = counts.iter().map(|&c| vec![0; c]).collect();
        for (&(owner, k), &g) in slot.iter().zip(queries) {
            requests[owner][k] = g;
        }
        let incoming = comm.alltoallv_t(requests);

        // Answer lookups against my table slice.
        let mut replies: Vec<Vec<Entry>> = Vec::with_capacity(p);
        for list in incoming {
            comm.ep().charge_deref(list.len());
            replies.push(list.into_iter().map(|g| self.slice[g - lo]).collect());
        }
        let answers = comm.alltoallv_t(replies);

        slot.into_iter()
            .map(|(owner, k)| answers[owner][k])
            .collect()
    }

    /// Collective: replicate the full table on every rank (the descriptor
    /// the duplication build strategy needs).  Expensive: every rank
    /// receives all `n` entries.
    ///
    /// The messages of `allgather_t` over the slices; the pieces are
    /// concatenated once, at the gathering root, and every other rank
    /// decodes the broadcast straight into one table.
    pub fn gather_full(&self, comm: &mut Comm<'_>) -> Vec<Entry> {
        let gathered = comm.gather_t(0, self.slice.clone());
        let pieces = gathered.map(|slices| TablePieces {
            table: slices.concat(),
            slices,
        });
        let full = comm.bcast_t(0, pieces).table;
        assert_eq!(full.len(), self.n);
        // Assembling the replicated directory structure costs per entry,
        // on top of the allgather traffic itself.
        comm.ep().charge_schedule_insert(self.n);
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim::group::Group;
    use mcsim::model::MachineModel;
    use mcsim::world::World;

    /// Deterministic scattered ownership: rank (g*7 % p) owns g.
    fn scatter_indices(n: usize, p: usize, me: usize) -> Vec<usize> {
        (0..n).filter(|g| (g * 7) % p == me).collect()
    }

    #[test]
    fn build_and_dereference_everything() {
        for p in [1, 2, 3, 4] {
            let n = 40;
            let world = World::with_model(p, MachineModel::zero());
            world.run(move |ep| {
                let me = ep.rank();
                let mut comm = Comm::new(ep, Group::world(p));
                let mine = scatter_indices(n, p, me);
                let tt = TranslationTable::build(&mut comm, n, &mine);
                // Every rank queries all indices and must see consistent
                // ownership.
                let all: Vec<usize> = (0..n).collect();
                let locs = tt.dereference(&mut comm, &all);
                for (g, (owner, addr)) in locs.into_iter().enumerate() {
                    assert_eq!(owner as usize, (g * 7) % p, "owner of {g}");
                    let owners_list = scatter_indices(n, p, owner as usize);
                    assert_eq!(owners_list[addr as usize], g, "addr of {g}");
                }
            });
        }
    }

    #[test]
    fn dereference_preserves_query_order_with_repeats() {
        let world = World::with_model(2, MachineModel::zero());
        world.run(|ep| {
            let me = ep.rank();
            let mut comm = Comm::new(ep, Group::world(2));
            let mine = scatter_indices(10, 2, me);
            let tt = TranslationTable::build(&mut comm, 10, &mine);
            let q = vec![9, 0, 9, 3, 0];
            let locs = tt.dereference(&mut comm, &q);
            assert_eq!(locs.len(), 5);
            assert_eq!(locs[0], locs[2]);
            assert_eq!(locs[1], locs[4]);
            assert_ne!(locs[0], locs[1]);
        });
    }

    #[test]
    fn gather_full_replicates() {
        let world = World::with_model(3, MachineModel::zero());
        world.run(|ep| {
            let me = ep.rank();
            let mut comm = Comm::new(ep, Group::world(3));
            let mine = scatter_indices(17, 3, me);
            let tt = TranslationTable::build(&mut comm, 17, &mine);
            let full = tt.gather_full(&mut comm);
            assert_eq!(full.len(), 17);
            for (g, (owner, addr)) in full.into_iter().enumerate() {
                let owners_list = scatter_indices(17, 3, owner as usize);
                assert_eq!(owners_list[addr as usize], g);
            }
        });
    }

    #[test]
    fn table_pieces_encode_like_nested_slices() {
        let nested: Vec<Vec<Entry>> = vec![vec![(0, 1), (2, 3)], vec![], vec![(4, 5)], vec![]];
        let flat = TablePieces {
            table: nested.concat(),
            slices: nested.clone(),
        };
        let bytes = nested.to_bytes();
        assert_eq!(flat.to_bytes(), bytes);
        let back = TablePieces::from_bytes(&bytes).unwrap();
        assert_eq!(back.table, flat.table);
        assert!(back.slices.is_empty());
        let empty = TablePieces::from_bytes(&Vec::<Vec<Entry>>::new().to_bytes()).unwrap();
        assert!(empty.table.is_empty());
        assert!(TablePieces::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    #[should_panic(expected = "claimed by ranks")]
    fn double_ownership_rejected() {
        let world = World::with_model(2, MachineModel::zero());
        world.run(|ep| {
            let mut comm = Comm::new(ep, Group::world(2));
            // Both ranks claim index 0.
            let mine = vec![0usize];
            let _ = TranslationTable::build(&mut comm, 2, &mine);
        });
    }

    #[test]
    fn dereference_charges_time() {
        let world = World::with_model(2, MachineModel::sp2());
        let out = world.run(|ep| {
            let me = ep.rank();
            let mut comm = Comm::new(ep, Group::world(2));
            let mine = scatter_indices(100, 2, me);
            let tt = TranslationTable::build(&mut comm, 100, &mine);
            let t0 = comm.clock();
            let q: Vec<usize> = (0..100).collect();
            let _ = tt.dereference(&mut comm, &q);
            comm.clock() - t0
        });
        // A dereference involves real message latency.
        assert!(out.results.iter().all(|&t| t > MachineModel::sp2().latency));
    }
}
