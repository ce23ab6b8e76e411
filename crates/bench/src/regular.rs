//! The regular↔regular experiment: Table 5.
//!
//! One program, two `side × side` (block,block)-distributed arrays; every
//! time step copies half of one into half of the other (the multiblock
//! inter-block boundary update scenario of §5.3).  Three methods: native
//! Multiblock Parti, Meta-Chaos/cooperation, Meta-Chaos/duplication.
//! Also the local-copy ablation, which stages the same kind of copy
//! through Parti's intermediate buffer.

use mcsim::group::{Comm, Group};
use mcsim::model::MachineModel;
use mcsim::prelude::Endpoint;
use mcsim::world::World;

use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::datamove::data_move;
use meta_chaos::region::RegularSection;
use meta_chaos::setof::SetOfRegions;
use meta_chaos::Side;
use multiblock::native_move::{build_copy_schedule, parti_copy};
use multiblock::MultiblockArray;

use crate::ms;

fn sync(ep: &mut Endpoint, g: &Group) -> f64 {
    Comm::new(ep, g.clone()).sync_clocks()
}

/// Table 5 result: schedule-build (total) and copy (per iteration) times.
#[derive(Debug, Clone, Copy)]
pub struct Table5Row {
    /// Native Multiblock Parti schedule build, ms.
    pub parti_sched_ms: f64,
    /// Native Multiblock Parti copy, ms.
    pub parti_copy_ms: f64,
    /// Meta-Chaos cooperation schedule build, ms.
    pub coop_sched_ms: f64,
    /// Meta-Chaos cooperation copy, ms.
    pub coop_copy_ms: f64,
    /// Meta-Chaos duplication schedule build, ms.
    pub dup_sched_ms: f64,
    /// Meta-Chaos duplication copy, ms.
    pub dup_copy_ms: f64,
}

/// Run the Table 5 workload (`side` defaults to the paper's 1000).
pub fn table5(procs: usize, side: usize) -> Table5Row {
    let world = World::with_model(procs, MachineModel::sp2());
    let out = world.run(move |ep| {
        let g = Group::world(procs);
        let mut src = MultiblockArray::<f64>::new(&g, ep.rank(), &[side, side]);
        src.fill_with(|c| (c[0] * side + c[1]) as f64);
        let mut dst = MultiblockArray::<f64>::new(&g, ep.rank(), &[side, side]);
        // Half of each array participates: top half -> bottom half.
        let ssec = RegularSection::of_bounds(&[(0, side / 2), (0, side)]);
        let dsec = RegularSection::of_bounds(&[(side / 2, side), (0, side)]);

        let t0 = sync(ep, &g);
        let parti = build_copy_schedule(ep, &g, &src, &ssec, &dst, &dsec);
        let t1 = sync(ep, &g);
        parti_copy(ep, &parti, &src, &mut dst);
        let t2 = sync(ep, &g);

        let sset = SetOfRegions::single(ssec.clone());
        let dset = SetOfRegions::single(dsec.clone());
        let coop = compute_schedule(
            ep,
            &g,
            &g,
            Some(Side::new(&src, &sset)),
            &g,
            Some(Side::new(&dst, &dset)),
            BuildMethod::Cooperation,
        )
        .expect("coop");
        let t3 = sync(ep, &g);
        data_move(ep, &coop, &src, &mut dst);
        let t4 = sync(ep, &g);

        let dup = compute_schedule(
            ep,
            &g,
            &g,
            Some(Side::new(&src, &sset)),
            &g,
            Some(Side::new(&dst, &dset)),
            BuildMethod::Duplication,
        )
        .expect("dup");
        let t5 = sync(ep, &g);
        data_move(ep, &dup, &src, &mut dst);
        let t6 = sync(ep, &g);

        // All three methods must express the same data motion.
        assert_eq!(parti.sends, coop.sends);
        assert_eq!(parti.recvs, dup.recvs);
        assert_eq!(coop.local_pairs, dup.local_pairs);

        (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t6 - t5, t5 - t4)
    });
    let r = out.results[0];
    Table5Row {
        parti_sched_ms: ms(r.0),
        parti_copy_ms: ms(r.1),
        coop_sched_ms: ms(r.2),
        coop_copy_ms: ms(r.3),
        dup_sched_ms: ms(r.5),
        dup_copy_ms: ms(r.4),
    }
}

/// The local-copy ablation (paper §5.3): an all-local 512×512 copy on one
/// rank, staged through Parti's intermediate buffer and then direct by
/// Meta-Chaos over the same schedule.  Returns (staged, direct) in ms.
pub fn local_copy_ablation() -> (f64, f64) {
    let world = World::with_model(1, MachineModel::sp2());
    let out = world.run(|ep| {
        let g = Group::world(1);
        let mut b = MultiblockArray::<f64>::new(&g, ep.rank(), &[512, 512]);
        b.fill_with(|c| c[0] as f64);
        let mut a = MultiblockArray::<f64>::new(&g, ep.rank(), &[512, 512]);
        let sec = RegularSection::whole(&[512, 512]);
        let sched = build_copy_schedule(ep, &g, &b, &sec, &a, &sec);

        let t0 = ep.clock();
        parti_copy(ep, &sched, &b, &mut a);
        let staged = ep.clock() - t0;

        let t1 = ep.clock();
        data_move(ep, &sched, &b, &mut a);
        let direct = ep.clock() - t1;
        (staged, direct)
    });
    let (staged, direct) = out.results[0];
    (ms(staged), ms(direct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_small_shape() {
        let r = table5(4, 64);
        // Parti's specialized inspector is the cheapest; duplication
        // (local, no communication) beats cooperation (which must
        // exchange ownership); copies are essentially identical.
        assert!(r.parti_sched_ms <= r.dup_sched_ms);
        assert!(r.dup_sched_ms <= r.coop_sched_ms);
        let spread = (r.parti_copy_ms - r.coop_copy_ms).abs();
        assert!(spread < 0.25 * r.parti_copy_ms + 1e-6);
        assert!((r.coop_copy_ms - r.dup_copy_ms).abs() < 0.2 * r.coop_copy_ms + 1e-6);
    }
}
