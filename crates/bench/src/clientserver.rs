//! The client/server experiments: Figures 10–15.
//!
//! A (possibly parallel) client written with Multiblock Parti uses an HPF
//! program as a matrix–vector computation server (paper §5.4).  Meta-Chaos
//! moves the matrix once and then, per multiply, the operand vector
//! client→server and the result server→client — using one symmetric
//! vector schedule for both directions, exactly as the paper describes.
//!
//! The machine model is the Alpha-farm/ATM preset (PVM/UDP-class latency).
//! All times are simulated milliseconds.

use mcsim::group::{Comm, Group};
use mcsim::model::MachineModel;
use mcsim::prelude::Endpoint;
use mcsim::world::World;

use hpf::matvec::{server_dists, MatVec};
use hpf::HpfArray;
use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::datamove::{data_move_recv, data_move_send};
use meta_chaos::region::RegularSection;
use meta_chaos::setof::SetOfRegions;
use meta_chaos::Side;
use multiblock::MultiblockArray;

use crate::ms;

/// Matrix entry used by client, server and the sequential reference.
pub fn matrix_value(i: usize, j: usize) -> f64 {
    ((i * 7 + j * 13) % 10) as f64 * 0.1 + 0.05
}

/// Operand-vector entry for multiply number `it`.
pub fn vector_value(it: usize, j: usize) -> f64 {
    ((j * 11 + it * 3) % 7) as f64 * 0.25
}

fn sync(ep: &mut Endpoint, g: &Group) -> f64 {
    Comm::new(ep, g.clone()).sync_clocks()
}

/// One client/server run's breakdown (the stacked bars of Figs. 10–14).
#[derive(Debug, Clone, Copy)]
pub struct CsBreakdown {
    /// "compute schedule": both schedules, ms.
    pub sched_ms: f64,
    /// "send matrix": one-time matrix transfer, ms.
    pub matrix_ms: f64,
    /// "HPF program": total server compute over all vectors, ms.
    pub server_ms: f64,
    /// "send/recv vector": total operand+result transfers, ms.
    pub vector_ms: f64,
    /// Checksum of the final result vector (for correctness checks).
    pub checksum: f64,
}

impl CsBreakdown {
    /// Total time, ms.
    pub fn total_ms(&self) -> f64 {
        self.sched_ms + self.matrix_ms + self.server_ms + self.vector_ms
    }
}

/// Run the client/server workload: `nvec` multiplies of an `n × n` matrix.
pub fn client_server(pclient: usize, pserver: usize, n: usize, nvec: usize) -> CsBreakdown {
    let world = World::with_model(pclient + pserver, MachineModel::alpha_farm_atm());
    let out = world.run(move |ep| {
        let (pc, ps, un) = Group::split_two(pclient, pserver, 64);
        let mat_set = SetOfRegions::single(RegularSection::whole(&[n, n]));
        let vec_set = SetOfRegions::single(RegularSection::whole(&[n]));

        if pc.contains(ep.rank()) {
            // ------------- client (Fortran + Multiblock Parti) ----------
            let mut a = MultiblockArray::<f64>::new(&pc, ep.rank(), &[n, n]);
            a.fill_with(|c| matrix_value(c[0], c[1]));
            let mut x = MultiblockArray::<f64>::new(&pc, ep.rank(), &[n]);
            let mut y = MultiblockArray::<f64>::new(&pc, ep.rank(), &[n]);

            let t0 = sync(ep, &un);
            let mat_sched = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                ep,
                &un,
                &pc,
                Some(Side::new(&a, &mat_set)),
                &ps,
                None,
                BuildMethod::Cooperation,
            )
            .expect("matrix schedule");
            let vec_sched = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                ep,
                &un,
                &pc,
                Some(Side::new(&x, &vec_set)),
                &ps,
                None,
                BuildMethod::Cooperation,
            )
            .expect("vector schedule");
            let t1 = sync(ep, &un);
            data_move_send(ep, &mat_sched, &a).unwrap();
            let t2 = sync(ep, &un);

            let mut server_ms = 0.0;
            let mut vector_ms = 0.0;
            for it in 0..nvec {
                x.fill_with(|c| vector_value(it, c[0]));
                let u0 = sync(ep, &un);
                data_move_send(ep, &vec_sched, &x).unwrap();
                let u1 = sync(ep, &un);
                // server computes here
                let u2 = sync(ep, &un);
                // Result comes back over the *same* schedule, reversed.
                data_move_recv(ep, &vec_sched.reversed(), &mut y).unwrap();
                let u3 = sync(ep, &un);
                server_ms += u2 - u1;
                vector_ms += (u1 - u0) + (u3 - u2);
            }
            let checksum = {
                let mut comm = Comm::new(ep, pc.clone());
                comm.allreduce_sum(y.local_sum())
            };
            (t1 - t0, t2 - t1, server_ms, vector_ms, checksum)
        } else {
            // -------------------- server (HPF) --------------------------
            let (da, dx, dy) = server_dists(n, n, pserver);
            let mut a_s = HpfArray::<f64>::new(&ps, ep.rank(), da);
            let mut x_s = HpfArray::<f64>::new(&ps, ep.rank(), dx);
            let mut y_s = HpfArray::<f64>::new(&ps, ep.rank(), dy);

            let t0 = sync(ep, &un);
            let mat_sched = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                ep,
                &un,
                &pc,
                None,
                &ps,
                Some(Side::new(&a_s, &mat_set)),
                BuildMethod::Cooperation,
            )
            .expect("matrix schedule");
            let vec_sched = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                ep,
                &un,
                &pc,
                None,
                &ps,
                Some(Side::new(&x_s, &vec_set)),
                BuildMethod::Cooperation,
            )
            .expect("vector schedule");
            let t1 = sync(ep, &un);
            data_move_recv(ep, &mat_sched, &mut a_s).unwrap();
            let t2 = sync(ep, &un);

            let mv = MatVec::new(&a_s);
            let mut server_ms = 0.0;
            let mut vector_ms = 0.0;
            for _ in 0..nvec {
                let u0 = sync(ep, &un);
                data_move_recv(ep, &vec_sched, &mut x_s).unwrap();
                let u1 = sync(ep, &un);
                {
                    let mut comm = Comm::new(ep, ps.clone());
                    mv.apply(&mut comm, &a_s, &x_s, &mut y_s);
                }
                let u2 = sync(ep, &un);
                data_move_send(ep, &vec_sched.reversed(), &y_s).unwrap();
                let u3 = sync(ep, &un);
                server_ms += u2 - u1;
                vector_ms += (u1 - u0) + (u3 - u2);
            }
            (t1 - t0, t2 - t1, server_ms, vector_ms, 0.0)
        }
    });
    // The client's rank-0 view of the phase times (the paper measures on
    // the client); the checksum is the client's global result sum.
    let r = out.results[0];
    CsBreakdown {
        sched_ms: ms(r.0),
        matrix_ms: ms(r.1),
        server_ms: ms(r.2),
        vector_ms: ms(r.3),
        checksum: r.4,
    }
}

/// Sequential reference: checksum of `y = A x_last` for run `nvec`.
pub fn reference_checksum(n: usize, nvec: usize) -> f64 {
    let it = nvec - 1;
    let mut sum = 0.0;
    for i in 0..n {
        let mut acc = 0.0;
        for j in 0..n {
            acc += matrix_value(i, j) * vector_value(it, j);
        }
        sum += acc;
    }
    sum
}

/// Time for the client to run one multiply *itself* (no server) — the
/// baseline of the paper's Figure 15 break-even analysis.  Uses the same
/// row-block algorithm on the client's own processes.
pub fn client_local_matvec_ms(pclient: usize, n: usize) -> f64 {
    let world = World::with_model(pclient, MachineModel::alpha_farm_atm());
    let out = world.run(move |ep| {
        let g = Group::world(pclient);
        let (da, dx, dy) = server_dists(n, n, pclient);
        let mut a = HpfArray::<f64>::new(&g, ep.rank(), da);
        let mut x = HpfArray::<f64>::new(&g, ep.rank(), dx);
        let mut y = HpfArray::<f64>::new(&g, ep.rank(), dy);
        a.for_each_owned(|c, v| *v = matrix_value(c[0], c[1]));
        x.for_each_owned(|c, v| *v = vector_value(0, c[0]));
        let mv = MatVec::new(&a);
        let t0 = sync(ep, &g);
        {
            let mut comm = Comm::new(ep, g.clone());
            mv.apply(&mut comm, &a, &x, &mut y);
        }
        sync(ep, &g) - t0
    });
    ms(out.results[0])
}

/// Figure 15: vectors needed before using the server beats computing in
/// the client.  `None` when the overhead is never amortized (the paper's
/// 2-client/2-server blank cell).
pub fn break_even(pclient: usize, pserver: usize, n: usize) -> Option<usize> {
    let one = client_server(pclient, pserver, n, 1);
    let overhead = one.sched_ms + one.matrix_ms;
    let per_vec_remote = one.server_ms + one.vector_ms;
    let per_vec_local = client_local_matvec_ms(pclient, n);
    if per_vec_local <= per_vec_remote {
        return None;
    }
    Some(
        (overhead / (per_vec_local - per_vec_remote))
            .ceil()
            .max(1.0) as usize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_server_computes_the_right_answer() {
        for (pc, ps) in [(1, 1), (1, 3), (2, 2)] {
            let r = client_server(pc, ps, 24, 2);
            let want = reference_checksum(24, 2);
            assert!(
                (r.checksum - want).abs() < 1e-9,
                "pc={pc} ps={ps}: {} vs {want}",
                r.checksum
            );
            assert!(r.sched_ms > 0.0 && r.matrix_ms > 0.0);
        }
    }

    #[test]
    fn matrix_transfer_dominates_vector_transfer() {
        // An n×n matrix is n times the data of a vector.
        let r = client_server(1, 2, 256, 1);
        assert!(r.matrix_ms > r.vector_ms);
    }

    #[test]
    fn break_even_exists_for_sequential_client() {
        // With the paper's 512x512 matrix the parallel server wins after a
        // few vectors (Figure 15).
        let be = break_even(1, 4, 512);
        assert!(be.is_some());
        assert!(be.unwrap() <= 8, "break-even {be:?} vectors is too many");
    }
}
