//! Misuse must fail loudly and helpfully: wrong-side data moves, ranks
//! outside the union, inconsistent Side options — plus a larger-world
//! smoke test exercising a larger world.

use mcsim::group::{Comm, Group};
use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::datamove::{data_move, data_move_recv, data_move_send};
use meta_chaos::error::McError;
use meta_chaos::region::{IndexSet, RegularSection};
use meta_chaos::setof::SetOfRegions;
use meta_chaos::Side;
use meta_chaos_repro::test_world;

use chaos::{IrregArray, Partition};
use multiblock::MultiblockArray;

fn build_two_program_sched(
    ep: &mut mcsim::Endpoint,
) -> (Group, Group, meta_chaos::Schedule, MultiblockArray<f64>) {
    let (pa, pb, un) = Group::split_two(1, 1, 32);
    let set = SetOfRegions::single(RegularSection::whole(&[8]));
    let a = MultiblockArray::<f64>::new(
        if pa.contains(ep.rank()) { &pa } else { &pb },
        ep.rank(),
        &[8],
    );
    let sched = if pa.contains(ep.rank()) {
        compute_schedule::<f64, MultiblockArray<f64>, MultiblockArray<f64>>(
            ep,
            &un,
            &pa,
            Some(Side::new(&a, &set)),
            &pb,
            None,
            BuildMethod::Cooperation,
        )
        .unwrap()
    } else {
        compute_schedule::<f64, MultiblockArray<f64>, MultiblockArray<f64>>(
            ep,
            &un,
            &pa,
            None,
            &pb,
            Some(Side::new(&a, &set)),
            BuildMethod::Cooperation,
        )
        .unwrap()
    };
    (pa, pb, sched, a)
}

#[test]
fn wrong_side_half_moves_return_errors() {
    test_world(2).run(|ep| {
        let (pa, _pb, sched, mut a) = build_two_program_sched(ep);
        if pa.contains(ep.rank()) {
            // This rank is the source: receiving here is the misuse.
            let err = data_move_recv(ep, &sched, &mut a).unwrap_err();
            assert!(
                matches!(err, McError::RecvSideHasSends { peers } if peers == 1),
                "unexpected error: {err}"
            );
        } else {
            // This rank is the destination: sending here is the misuse.
            let err = data_move_send(ep, &sched, &a).unwrap_err();
            assert!(
                matches!(err, McError::SendSideHasReceives { peers } if peers == 1),
                "unexpected error: {err}"
            );
        }
        // Neither guard performed any communication, so the (still valid)
        // schedule remains usable with the correct calls afterwards.
        if pa.contains(ep.rank()) {
            data_move_send(ep, &sched, &a).unwrap();
        } else {
            data_move_recv(ep, &sched, &mut a).unwrap();
        }
    });
}

#[test]
fn half_move_on_intra_program_schedule_is_rejected() {
    // A same-program copy produces local pairs; the half-move entry
    // points are for cross-program coupling only and must refuse it.
    test_world(1).run(|ep| {
        let g = Group::world(1);
        let mut a = MultiblockArray::<f64>::new(&g, ep.rank(), &[8]);
        let b = MultiblockArray::<f64>::new(&g, ep.rank(), &[8]);
        let set = SetOfRegions::single(RegularSection::whole(&[8]));
        let sched = compute_schedule(
            ep,
            &g,
            &g,
            Some(Side::new(&b, &set)),
            &g,
            Some(Side::new(&a, &set)),
            BuildMethod::Cooperation,
        )
        .unwrap();
        let err = data_move_send(ep, &sched, &b).unwrap_err();
        assert!(
            matches!(err, McError::LocalPairsInCrossProgramMove { pairs: 8 }),
            "unexpected error: {err}"
        );
        let err = data_move_recv(ep, &sched, &mut a).unwrap_err();
        assert!(
            matches!(err, McError::LocalPairsInCrossProgramMove { pairs: 8 }),
            "unexpected error: {err}"
        );
        // The resumable session's steps are half-moves too: same guard,
        // same error, before anything is sent or checkpointed.
        let mut session = meta_chaos::RecoverySession::new("misuse");
        let err = session.send_step(ep, &sched, &b, 0).unwrap_err();
        assert!(
            matches!(err, McError::LocalPairsInCrossProgramMove { pairs: 8 }),
            "unexpected error: {err}"
        );
        let err = session.recv_step(ep, &sched, &mut a, 0).unwrap_err();
        assert!(
            matches!(err, McError::LocalPairsInCrossProgramMove { pairs: 8 }),
            "unexpected error: {err}"
        );
    });
}

#[test]
#[should_panic(expected = "src side must be Some")]
fn missing_side_is_rejected() {
    test_world(1).run(|ep| {
        let g = Group::world(1);
        let a = MultiblockArray::<f64>::new(&g, ep.rank(), &[4]);
        let set = SetOfRegions::single(RegularSection::whole(&[4]));
        let _ = compute_schedule::<f64, MultiblockArray<f64>, MultiblockArray<f64>>(
            ep,
            &g,
            &g,
            None, // should be Some: this rank is in the source program
            &g,
            Some(Side::new(&a, &set)),
            BuildMethod::Cooperation,
        );
    });
}

/// 24 simulated processors (heavily oversubscribed on small hosts): the
/// machinery must stay correct and deterministic at larger scale.
#[test]
fn twenty_four_rank_smoke() {
    let n = 240;
    let run = || {
        let out = test_world(24).run(move |ep| {
            let g = Group::world(24);
            let mut a = MultiblockArray::<f64>::new(&g, ep.rank(), &[n]);
            a.fill_with(|c| c[0] as f64);
            let mut x = {
                let mut comm = Comm::new(ep, g.clone());
                IrregArray::create(&mut comm, n, Partition::Random(3), |_| 0.0)
            };
            let sset = SetOfRegions::single(RegularSection::whole(&[n]));
            let dset = SetOfRegions::single(IndexSet::new((0..n).rev().collect()));
            let sched = compute_schedule(
                ep,
                &g,
                &g,
                Some(Side::new(&a, &sset)),
                &g,
                Some(Side::new(&x, &dset)),
                BuildMethod::Cooperation,
            )
            .unwrap();
            data_move(ep, &sched, &a, &mut x);
            let local: f64 = x
                .my_globals()
                .iter()
                .zip(x.local())
                .map(|(&g, &v)| v * (g as f64 + 1.0))
                .sum();
            let mut comm = Comm::new(ep, g.clone());
            comm.allreduce_sum(local)
        });
        out.results[0]
    };
    let want: f64 = (0..n).map(|g| (n - 1 - g) as f64 * (g as f64 + 1.0)).sum();
    let a = run();
    assert!((a - want).abs() < 1e-9);
    // Determinism across runs.
    assert_eq!(a.to_bits(), run().to_bits());
}
