//! The structured/unstructured mesh experiments: Tables 1–4, plus the
//! aggregation and partition-locality ablations.
//!
//! Workload (paper §5.1): a `side × side` regular mesh of `f64`
//! (block,block)-distributed by Multiblock Parti, and an irregular mesh of
//! `side²` points irregularly distributed by Chaos, with a random edge
//! list standing in for the unstructured CFD mesh and a random permutation
//! standing in for the `Reg2Irreg` boundary mapping.  All times are
//! simulated milliseconds, maxed over ranks between synchronization
//! points.

use mcsim::group::{Comm, Group};
use mcsim::model::MachineModel;
use mcsim::prelude::Endpoint;
use mcsim::world::World;

use chaos::native_copy::{build_chaos_copy_schedule, chaos_copy};
use chaos::{IrregArray, IrregularSweep, Partition, TranslationTable};
use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::datamove::{data_move, data_move_recv, data_move_send};
use meta_chaos::region::{IndexSet, RegularSection};
use meta_chaos::setof::SetOfRegions;
use meta_chaos::Side;
use multiblock::sweep::RegularSweep;
use multiblock::MultiblockArray;

use mcsim::rng::Rng;

use crate::ms;

/// Deterministic pseudo-random edge list over `nodes` mesh points.
pub fn edge_list(nodes: usize, edges: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..edges)
        .map(|_| (rng.gen_range(nodes), rng.gen_range(nodes)))
        .collect()
}

/// Geometric edge list: endpoints are nearby mesh points (distance <=
/// `radius` in each grid direction), the locality a real unstructured CFD
/// mesh has.  Used by the partition-locality ablation.
fn geometric_edge_list(side: usize, edges: usize, radius: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..edges)
        .map(|_| {
            let i = rng.gen_range(side);
            let j = rng.gen_range(side);
            let di = rng.gen_range(2 * radius + 1) as isize - radius as isize;
            let dj = rng.gen_range(2 * radius + 1) as isize - radius as isize;
            let ni = (i as isize + di).clamp(0, side as isize - 1) as usize;
            let nj = (j as isize + dj).clamp(0, side as isize - 1) as usize;
            (i * side + j, ni * side + nj)
        })
        .collect()
}

/// The partition-locality ablation: Table 1's sweeps on a 96×96 mesh with
/// a geometric (CFD-like) edge list on 4 ranks, the irregular mesh
/// partitioned randomly or by RCB.  Returns the executor time per
/// iteration (ms) and the gather ghosts summed over ranks.
pub fn partition_ablation(use_rcb: bool) -> (f64, usize) {
    let (procs, side, steps) = (4, 96, 2);
    let nodes = side * side;
    let edges = geometric_edge_list(side, 2 * nodes, 3, 7);
    let world = World::with_model(procs, MachineModel::sp2());
    let out = world.run(move |ep| {
        let g = Group::world(procs);
        let mut a = MultiblockArray::<f64>::with_halo(&g, ep.rank(), &[side, side], 1);
        a.fill_with(|c| ((c[0] * 7 + c[1] * 3) % 13) as f64);
        let me = g.local_of(ep.rank()).expect("member");
        let my_indices = if use_rcb {
            let coords: Vec<(f64, f64)> = (0..nodes)
                .map(|k| ((k / side) as f64, (k % side) as f64))
                .collect();
            chaos::partition::rcb_indices_of(&coords, procs, me)
        } else {
            Partition::Random(11).indices_of(nodes, procs, me)
        };
        let (x, mut y) = {
            let mut comm = Comm::new(ep, g.clone());
            let t = std::sync::Arc::new(TranslationTable::build(&mut comm, nodes, &my_indices));
            let x = IrregArray::over_table(t.clone(), my_indices.clone(), |gi| (gi % 13) as f64);
            let y = IrregArray::over_table(t, my_indices.clone(), |_| 0.0);
            (x, y)
        };
        // Edges partitioned to follow their first endpoint's owner, as a
        // partitioner would assign them.
        let my_edges: Vec<(usize, usize)> = {
            let set: std::collections::HashSet<usize> = my_indices.iter().copied().collect();
            edges
                .iter()
                .copied()
                .filter(|&(u, _)| set.contains(&u))
                .collect()
        };
        time_sweeps(ep, &g, &mut a, &x, &mut y, &my_edges, steps)
    });
    let ghosts: usize = out.results.iter().map(|r| r.2).sum();
    (ms(out.results[0].1), ghosts)
}

/// Deterministic permutation of `0..n` — the `Reg2Irreg` mapping.
pub fn mesh_mapping(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut rng = Rng::seed_from_u64(seed);
    rng.shuffle(&mut perm);
    perm
}

fn sync(ep: &mut Endpoint, g: &Group) -> f64 {
    Comm::new(ep, g.clone()).sync_clocks()
}

/// Time Table 1's inspector (both sweeps' set-up, total) and executor
/// (per iteration over `steps`) in seconds, plus this rank's gather ghosts.
fn time_sweeps(
    ep: &mut Endpoint,
    g: &Group,
    a: &mut MultiblockArray<f64>,
    x: &IrregArray<f64>,
    y: &mut IrregArray<f64>,
    edges: &[(usize, usize)],
    steps: usize,
) -> (f64, f64, usize) {
    let t0 = sync(ep, g);
    let reg_sweep = RegularSweep::new(ep, a);
    let irr_sweep = {
        let mut comm = Comm::new(ep, g.clone());
        IrregularSweep::new(&mut comm, x.table(), edges)
    };
    let t1 = sync(ep, g);
    for _ in 0..steps {
        reg_sweep.step(ep, a);
        let mut comm = Comm::new(ep, g.clone());
        irr_sweep.step(&mut comm, x, y);
    }
    let t2 = sync(ep, g);
    (t1 - t0, (t2 - t1) / steps as f64, irr_sweep.num_ghosts())
}

/// Table 1 result: inspector total and executor per-iteration times for
/// the regular+irregular sweeps in one program.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// Inspector time (total), ms.
    pub inspector_ms: f64,
    /// Executor time (per iteration), ms.
    pub executor_ms: f64,
}

/// Run the Table 1 workload.
pub fn table1(procs: usize, side: usize, edge_factor: usize, steps: usize) -> Table1Row {
    let nodes = side * side;
    let nedges = nodes * edge_factor;
    let world = World::with_model(procs, MachineModel::sp2());
    let out = world.run(move |ep| {
        let g = Group::world(procs);
        let mut a = MultiblockArray::<f64>::with_halo(&g, ep.rank(), &[side, side], 1);
        a.fill_with(|c| ((c[0] * 7 + c[1] * 3) % 13) as f64);
        let (x, mut y) = {
            let mut comm = Comm::new(ep, g.clone());
            let x = IrregArray::create(&mut comm, nodes, Partition::Random(11), |gidx| {
                (gidx % 13) as f64
            });
            let y = IrregArray::over_table(x.table().clone(), x.my_globals().to_vec(), |_| 0.0);
            (x, y)
        };
        let edges = edge_list(nodes, nedges, 17);
        let me = g.local_of(ep.rank()).expect("member");
        let chunk = edges.len().div_ceil(procs);
        let lo = (me * chunk).min(edges.len());
        let hi = ((me + 1) * chunk).min(edges.len());
        time_sweeps(ep, &g, &mut a, &x, &mut y, &edges[lo..hi], steps)
    });
    Table1Row {
        inspector_ms: ms(out.results[0].0),
        executor_ms: ms(out.results[0].1),
    }
}

/// Table 2 result: schedule-build (total) and copy (per iteration,
/// regular→irregular and back) times for the three methods.
#[derive(Debug, Clone, Copy)]
pub struct Table2Row {
    /// Chaos-native schedule build, ms.
    pub chaos_sched_ms: f64,
    /// Chaos-native round-trip copy per iteration, ms.
    pub chaos_copy_ms: f64,
    /// Meta-Chaos cooperation schedule build, ms.
    pub coop_sched_ms: f64,
    /// Meta-Chaos cooperation copy, ms.
    pub coop_copy_ms: f64,
    /// Meta-Chaos duplication schedule build, ms.
    pub dup_sched_ms: f64,
    /// Meta-Chaos duplication copy, ms.
    pub dup_copy_ms: f64,
}

/// Run the Table 2 workload: remap all `side²` mesh points to the
/// irregular mesh (and back) with Chaos, Meta-Chaos/cooperation and
/// Meta-Chaos/duplication.
pub fn table2(procs: usize, side: usize) -> Table2Row {
    let nodes = side * side;
    let world = World::with_model(procs, MachineModel::sp2());
    let out = world.run(move |ep| {
        let g = Group::world(procs);
        let mut a = MultiblockArray::<f64>::new(&g, ep.rank(), &[side, side]);
        a.fill_with(|c| (c[0] * side + c[1]) as f64);
        let mut x = {
            let mut comm = Comm::new(ep, g.clone());
            IrregArray::create(&mut comm, nodes, Partition::Random(11), |_| 0.0)
        };
        let perm = mesh_mapping(nodes, 23);

        // --- Chaos native: describe the regular mesh with an explicit
        // translation table (extra memory!), then use Chaos end to end.
        let (mesh_table, mesh_globals) = {
            let my_box = a.my_box();
            let mut globals = Vec::new();
            for i in my_box[0].0..my_box[0].1 {
                for j in my_box[1].0..my_box[1].1 {
                    globals.push(i * side + j);
                }
            }
            let mut comm = Comm::new(ep, g.clone());
            let t = TranslationTable::build(&mut comm, nodes, &globals);
            (std::sync::Arc::new(t), globals)
        };
        let mut mesh_as_chaos =
            IrregArray::over_table(mesh_table, mesh_globals, |gidx| (gidx) as f64);
        let src_map: Vec<usize> = (0..nodes).collect();

        let t0 = sync(ep, &g);
        let chaos_sched = {
            let mut comm = Comm::new(ep, g.clone());
            build_chaos_copy_schedule(
                &mut comm,
                mesh_as_chaos.table(),
                &src_map,
                x.my_globals(),
                &perm,
            )
        };
        let t1 = sync(ep, &g);
        {
            let mut comm = Comm::new(ep, g.clone());
            chaos_copy(&mut comm, &chaos_sched, &mesh_as_chaos, &mut x);
            let back = chaos_sched.reversed();
            chaos_copy(&mut comm, &back, &x, &mut mesh_as_chaos);
        }
        let t2 = sync(ep, &g);

        // --- Meta-Chaos, both build strategies, straight from the
        // Multiblock Parti mesh to the Chaos mesh.
        let sset = SetOfRegions::single(RegularSection::whole(&[side, side]));
        let dset = SetOfRegions::single(IndexSet::new(perm.clone()));

        let t3 = sync(ep, &g);
        let coop = compute_schedule(
            ep,
            &g,
            &g,
            Some(Side::new(&a, &sset)),
            &g,
            Some(Side::new(&x, &dset)),
            BuildMethod::Cooperation,
        )
        .expect("coop schedule");
        let t4 = sync(ep, &g);
        data_move(ep, &coop, &a, &mut x);
        data_move(ep, &coop.reversed(), &x, &mut a);
        let t5 = sync(ep, &g);

        let dup = compute_schedule(
            ep,
            &g,
            &g,
            Some(Side::new(&a, &sset)),
            &g,
            Some(Side::new(&x, &dset)),
            BuildMethod::Duplication,
        )
        .expect("dup schedule");
        let t6 = sync(ep, &g);
        data_move(ep, &dup, &a, &mut x);
        data_move(ep, &dup.reversed(), &x, &mut a);
        let t7 = sync(ep, &g);

        // The two Meta-Chaos strategies must agree on the data motion.
        assert_eq!(coop.sends, dup.sends);
        assert_eq!(coop.recvs, dup.recvs);

        (t1 - t0, t2 - t1, t4 - t3, t5 - t4, t6 - t5, t7 - t6)
    });
    let r = out.results[0];
    Table2Row {
        chaos_sched_ms: ms(r.0),
        chaos_copy_ms: ms(r.1),
        coop_sched_ms: ms(r.2),
        coop_copy_ms: ms(r.3),
        dup_sched_ms: ms(r.4),
        dup_copy_ms: ms(r.5),
    }
}

/// Tables 3 & 4 result: Meta-Chaos schedule and per-iteration copy times
/// for the two-program version of the mesh workload.
#[derive(Debug, Clone, Copy)]
pub struct Table34Cell {
    /// Cooperation schedule build, ms (Table 3).
    pub sched_ms: f64,
    /// Round-trip copy per iteration, ms (Table 4).
    pub copy_ms: f64,
}

/// Run the Tables 3/4 workload: program `P_reg` (Multiblock Parti) and
/// program `P_irreg` (Chaos) in disjoint rank sets, coupled by Meta-Chaos
/// with the cooperation method.
pub fn table34(preg: usize, pirreg: usize, side: usize) -> Table34Cell {
    let nodes = side * side;
    let world = World::with_model(preg + pirreg, MachineModel::sp2());
    let out = world.run(move |ep| {
        let (pa, pb, un) = Group::split_two(preg, pirreg, 64);
        let perm = mesh_mapping(nodes, 23);
        let sset = SetOfRegions::single(RegularSection::whole(&[side, side]));
        let dset = SetOfRegions::single(IndexSet::new(perm.clone()));

        if pa.contains(ep.rank()) {
            let mut a = MultiblockArray::<f64>::new(&pa, ep.rank(), &[side, side]);
            a.fill_with(|c| (c[0] * side + c[1]) as f64);
            let t0 = sync(ep, &un);
            let sched = compute_schedule::<f64, MultiblockArray<f64>, IrregArray<f64>>(
                ep,
                &un,
                &pa,
                Some(Side::new(&a, &sset)),
                &pb,
                None,
                BuildMethod::Cooperation,
            )
            .expect("schedule");
            let t1 = sync(ep, &un);
            data_move_send(ep, &sched, &a).unwrap();
            data_move_recv(ep, &sched.reversed(), &mut a).unwrap();
            let t2 = sync(ep, &un);
            (t1 - t0, t2 - t1)
        } else {
            let mut x = {
                let mut comm = Comm::new(ep, pb.clone());
                IrregArray::create(&mut comm, nodes, Partition::Random(11), |_| 0.0)
            };
            let t0 = sync(ep, &un);
            let sched = compute_schedule::<f64, MultiblockArray<f64>, IrregArray<f64>>(
                ep,
                &un,
                &pa,
                None,
                &pb,
                Some(Side::new(&x, &dset)),
                BuildMethod::Cooperation,
            )
            .expect("schedule");
            let t1 = sync(ep, &un);
            data_move_recv(ep, &sched, &mut x).unwrap();
            data_move_send(ep, &sched.reversed(), &x).unwrap();
            let t2 = sync(ep, &un);
            (t1 - t0, t2 - t1)
        }
    });
    Table34Cell {
        sched_ms: ms(out.results[0].0),
        copy_ms: ms(out.results[0].1),
    }
}

/// The aggregation ablation (paper §4.1.4): a 96×96 regular → irregular
/// remap on 4 ranks, moved once through a duplication-built schedule (one
/// message per processor pair) and once element by element between the
/// same pairs.  Returns (aggregated, per-element) times in ms.
pub fn aggregation_ablation(model: MachineModel) -> (f64, f64) {
    let side = 96;
    let nodes = side * side;
    let world = World::with_model(4, model);
    let out = world.run(move |ep| {
        let g = Group::world(4);
        let mut a = MultiblockArray::<f64>::new(&g, ep.rank(), &[side, side]);
        a.fill_with(|c| (c[0] + c[1]) as f64);
        let mut x = {
            let mut comm = Comm::new(ep, g.clone());
            IrregArray::create(&mut comm, nodes, Partition::Random(3), |_| 0.0)
        };
        let perm = mesh_mapping(nodes, 5);
        let sset = SetOfRegions::single(RegularSection::whole(&[side, side]));
        let dset = SetOfRegions::single(IndexSet::new(perm));
        let sched = compute_schedule(
            ep,
            &g,
            &g,
            Some(Side::new(&a, &sset)),
            &g,
            Some(Side::new(&x, &dset)),
            BuildMethod::Duplication,
        )
        .expect("dup schedule");

        let t0 = sync(ep, &g);
        data_move(ep, &sched, &a, &mut x);
        let aggregated = sync(ep, &g) - t0;

        let t1 = sync(ep, &g);
        {
            let tag = 9000;
            let mut comm = Comm::new(ep, g.clone());
            for (peer, addrs) in &sched.sends {
                for addr in addrs.iter() {
                    let v = a.local()[addr];
                    comm.send_t(*peer, tag, &v);
                }
            }
            for (peer, addrs) in &sched.recvs {
                for addr in addrs.iter() {
                    let v: f64 = comm.recv_t(*peer, tag);
                    x.local_mut()[addr] = v;
                }
            }
            for (s, d) in sched.local_pairs.iter() {
                let v = a.local()[s];
                x.local_mut()[d] = v;
            }
        }
        let per_element = sync(ep, &g) - t1;
        (aggregated, per_element)
    });
    let (aggregated, per_element) = out.results[0];
    (ms(aggregated), ms(per_element))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_small_runs_and_scales() {
        let r2 = table1(2, 32, 2, 2);
        let r4 = table1(4, 32, 2, 2);
        assert!(r2.inspector_ms > 0.0 && r2.executor_ms > 0.0);
        // Executor work is split across ranks: more procs, less time.
        assert!(r4.executor_ms < r2.executor_ms * 1.1);
    }

    #[test]
    fn table2_small_shape() {
        let r = table2(2, 64);
        // Duplication pays for the descriptor exchange + second dereference
        // pass: "about twice" cooperation (paper §5.1).
        assert!(r.dup_sched_ms > r.coop_sched_ms * 1.4);
        assert!(r.dup_sched_ms < r.coop_sched_ms * 2.6);
        // Cooperation tracks the Chaos-native build closely.
        assert!(r.coop_sched_ms < r.chaos_sched_ms * 1.6);
        assert!(r.coop_sched_ms > r.chaos_sched_ms * 0.8);
        // Meta-Chaos copies beat Chaos copies (extra copy + indirection).
        assert!(r.coop_copy_ms < r.chaos_copy_ms);
        assert!((r.coop_copy_ms - r.dup_copy_ms).abs() < 0.2 * r.coop_copy_ms + 1e-6);
    }

    #[test]
    fn table34_small_runs() {
        let c = table34(2, 2, 16);
        assert!(c.sched_ms > 0.0 && c.copy_ms > 0.0);
    }
}
