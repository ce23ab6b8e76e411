//! Ghost-cell (overlap) exchange — Multiblock Parti's intra-mesh
//! communication, in inspector/executor form.
//!
//! The *inspector* ([`build_ghost_schedule`]) walks the distribution once
//! and records, per grid neighbour, which local addresses to send (the
//! owned boundary slab) and which to fill (the halo slab).  The *executor*
//! ([`exchange_halo`]) replays the schedule every time step — the classic
//! Saltz inspector/executor split the paper's Table 1 measures.
//!
//! Exchanges are face-only (no corner propagation), sufficient for the
//! 5-point stencil of the paper's Figure 1.

use mcsim::prelude::{Endpoint, Tag};
use meta_chaos::region::for_each_in_box;

use crate::array::MultiblockArray;

/// One neighbour's worth of exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GhostTransfer {
    /// Peer's global rank.
    pub peer: usize,
    /// Local addresses to pack and send (owned boundary slab).
    pub send_addrs: Vec<usize>,
    /// Local addresses to fill from the peer (halo slab).
    pub recv_addrs: Vec<usize>,
}

/// A reusable halo-exchange schedule for one array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GhostSchedule {
    transfers: Vec<GhostTransfer>,
    seq: u32,
}

/// Scratch key of the per-rank ghost-schedule sequence counter
/// (SPMD-consistent: every rank builds schedules in the same order).
const GHOST_SEQ_KEY: u32 = 0x4748_5351; // "GHSQ"

impl GhostSchedule {
    /// The per-neighbour transfers.
    pub fn transfers(&self) -> &[GhostTransfer] {
        &self.transfers
    }

    /// Total elements sent per exchange.
    pub fn elems_out(&self) -> usize {
        self.transfers.iter().map(|t| t.send_addrs.len()).sum()
    }

    fn tag(&self) -> Tag {
        // Ghost traffic lives in the world context with a high user-tag
        // base; `seq` separates schedules, the sender disambiguates peers.
        Tag::user(0x2000_0000 | self.seq)
    }
}

/// Enumerate the local addresses of a slab: the owned box with dimension
/// `dim` replaced by `[lo, hi)`.
fn slab_addrs<T: Copy + Default>(
    arr: &MultiblockArray<T>,
    dim: usize,
    lo: usize,
    hi: usize,
) -> Vec<usize> {
    let mut boxx = arr.my_box();
    boxx[dim] = (lo, hi);
    let mut out = Vec::with_capacity(boxx.iter().map(|&(l, h)| h - l).product());
    for_each_in_box(&boxx, |coords| {
        out.push(arr.dist().local_addr(arr.my_local(), coords))
    });
    out
}

/// Inspector: build the halo-exchange schedule for `arr`.
///
/// Cost: one closed-form pass over the boundary slabs (charged as
/// dereference + schedule-insertion work).
pub fn build_ghost_schedule<T: Copy + Default>(
    ep: &mut Endpoint,
    arr: &MultiblockArray<T>,
) -> GhostSchedule {
    let halo = arr.dist().halo();
    let mut transfers = Vec::new();
    if halo > 0 {
        let grid = arr.dist().grid().clone();
        let me_local = arr.my_local();
        let boxx = arr.my_box();
        for dim in 0..grid.ndim() {
            for dir in [-1isize, 1] {
                let Some(peer_local) = grid.neighbor(me_local, dim, dir) else {
                    continue;
                };
                let (lo, hi) = boxx[dim];
                let width = halo.min(hi - lo);
                let (send_lo, send_hi, recv_lo, recv_hi) = if dir > 0 {
                    (hi - width, hi, hi, hi + width)
                } else {
                    (lo, lo + width, lo - width, lo)
                };
                let send_addrs = slab_addrs(arr, dim, send_lo, send_hi);
                let recv_addrs = slab_addrs(arr, dim, recv_lo, recv_hi);
                ep.charge_owner_calc(send_addrs.len() + recv_addrs.len());
                ep.charge_schedule_insert(send_addrs.len() + recv_addrs.len());
                transfers.push(GhostTransfer {
                    peer: arr.members()[peer_local],
                    send_addrs,
                    recv_addrs,
                });
            }
        }
    }
    let seq = ep.next_seq(GHOST_SEQ_KEY);
    GhostSchedule { transfers, seq }
}

/// Executor: perform one halo exchange using a prebuilt schedule.
pub fn exchange_halo<T>(ep: &mut Endpoint, arr: &mut MultiblockArray<T>, sched: &GhostSchedule)
where
    T: Copy + Default + mcsim::wire::Wire,
{
    // Post all sends, then drain receives (buffered channels, no deadlock).
    for t in &sched.transfers {
        let buf: Vec<T> = t.send_addrs.iter().map(|&a| arr.local()[a]).collect();
        ep.charge_copy_bytes(buf.len() * std::mem::size_of::<T>());
        ep.send_t(t.peer, sched.tag(), &buf);
    }
    for t in &sched.transfers {
        let buf: Vec<T> = ep.recv_t(t.peer, sched.tag());
        assert_eq!(buf.len(), t.recv_addrs.len(), "halo slab size mismatch");
        ep.charge_copy_bytes(buf.len() * std::mem::size_of::<T>());
        let data = arr.local_mut();
        for (&a, &v) in t.recv_addrs.iter().zip(&buf) {
            data[a] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim::group::Group;
    use mcsim::model::MachineModel;
    use mcsim::world::World;

    #[test]
    fn halo_receives_neighbor_boundary() {
        // (procs, shape, halo): 1-D; 2-D; a two-cell halo on a 3x1 grid;
        // 3-D on a 2x2x2 grid, so every axis exchanges.
        let cases: [(usize, &[usize], usize); 4] = [
            (2, &[8], 1),
            (4, &[8, 8], 1),
            (3, &[12, 12], 2),
            (8, &[6, 6, 6], 1),
        ];
        for (p, shape, halo) in cases {
            let world = World::with_model(p, MachineModel::zero());
            world.run(move |ep| {
                let g = Group::world(p);
                let mut a = MultiblockArray::<f64>::with_halo(&g, ep.rank(), shape, halo);
                // Each cell holds its row-major global index.
                a.fill_with(|c| c.iter().zip(shape).fold(0, |acc, (&x, &n)| acc * n + x) as f64);
                let sched = build_ghost_schedule(ep, &a);
                exchange_halo(ep, &mut a, &sched);
                // After one exchange, every cell up to `halo` steps outside
                // the owned box along exactly one axis reads its global
                // value.
                let boxx = a.my_box();
                for i in 0..shape.iter().product::<usize>() {
                    let mut n = vec![0; shape.len()];
                    let mut r = i;
                    for d in (0..shape.len()).rev() {
                        n[d] = r % shape[d];
                        r /= shape[d];
                    }
                    let outside: Vec<usize> = n
                        .iter()
                        .zip(&boxx)
                        .map(|(&x, &(lo, hi))| lo.saturating_sub(x) + (x + 1).saturating_sub(hi))
                        .filter(|&o| o > 0)
                        .collect();
                    if outside.len() == 1 && outside[0] <= halo {
                        assert_eq!(
                            a.get(&n),
                            i as f64,
                            "P={p} halo={halo}: rank {} reading {n:?}",
                            ep.rank()
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn reuse_schedule_many_times() {
        let world = World::with_model(2, MachineModel::zero());
        world.run(|ep| {
            let g = Group::world(ep.world_size());
            let mut a = MultiblockArray::<f64>::with_halo(&g, ep.rank(), &[6], 1);
            let sched = build_ghost_schedule(ep, &a);
            for it in 0..3 {
                a.fill_with(|c| (c[0] * 10 + it) as f64);
                exchange_halo(ep, &mut a, &sched);
                // Rank boundary: global 2|3 split for 6 over 2.
                let boxx = a.my_box();
                if boxx[0].0 > 0 {
                    assert_eq!(a.get(&[boxx[0].0 - 1]), ((boxx[0].0 - 1) * 10 + it) as f64);
                }
                if boxx[0].1 < 6 {
                    assert_eq!(a.get(&[boxx[0].1]), (boxx[0].1 * 10 + it) as f64);
                }
            }
        });
    }

    #[test]
    fn no_halo_means_no_transfers() {
        let world = World::with_model(2, MachineModel::zero());
        world.run(|ep| {
            let g = Group::world(ep.world_size());
            let a = MultiblockArray::<f64>::new(&g, ep.rank(), &[8]);
            let sched = build_ghost_schedule(ep, &a);
            assert!(sched.transfers().is_empty());
            assert_eq!(sched.elems_out(), 0);
        });
    }

    #[test]
    fn single_rank_has_no_neighbors() {
        let world = World::with_model(1, MachineModel::zero());
        world.run(|ep| {
            let g = Group::world(1);
            let mut a = MultiblockArray::<f64>::with_halo(&g, ep.rank(), &[5, 5], 1);
            let sched = build_ghost_schedule(ep, &a);
            assert!(sched.transfers().is_empty());
            exchange_halo(ep, &mut a, &sched); // must be a no-op
        });
    }
}
