//! Invariants of the causal critical-path analyzer (DESIGN.md §4i).
//!
//! Three properties must hold on every trace, clean or faulted:
//!
//! 1. **Tiling** — per transfer, the phase attribution sums exactly to
//!    the end-to-end virtual time (within `SUM_TOLERANCE`); nothing is
//!    double-counted, nothing is lost.
//! 2. **Monotonicity** — the reconstructed path walks strictly backward
//!    on the virtual clock: `start <= end` per transfer and every
//!    segment lies inside `[start, end]`.
//! 3. **Exact send→recv matching** — every delivered payload is matched
//!    to the physical send copy that caused it, even when the fault
//!    plan drops, duplicates, corrupts, and delays frames and the
//!    reliable transport retransmits around the damage.
//!
//! The faulted runs repeat across the committed seed set
//! ([`mcsim::fault::test_seeds`]) so the matcher is exercised against
//! three different interleavings of loss and duplication.

use mcsim::analyze::{self, SUM_TOLERANCE};
use mcsim::fault::{test_seeds, FaultPlan, FaultRates};
use mcsim::trace::TraceEvent;
use mcsim::{MachineModel, World};

use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::coupling::Coupler;
use meta_chaos::region::RegularSection;
use meta_chaos::setof::SetOfRegions;
use meta_chaos::Side;

use hpf::{HpfArray, HpfDist};
use multiblock::MultiblockArray;

/// A traced coupled run (Multiblock {0,1} put / HPF {2,3} get, as in
/// `bench::traced`), optionally under a lossy fault plan.
fn traced_run(n: usize, reps: usize, faults: Option<FaultPlan>) -> Vec<Vec<TraceEvent>> {
    let mut world = World::with_model(4, MachineModel::sp2()).with_trace();
    if let Some(plan) = faults {
        world = world.with_faults(plan);
    }
    let out = world.run(move |ep| {
        let (pa, pb, un) = mcsim::group::Group::split_two(2, 2, 32);
        let set: SetOfRegions<RegularSection> = SetOfRegions::single(RegularSection::whole(&[n]));
        let mut coupler = Coupler::new();
        if pa.contains(ep.rank()) {
            let mut v = MultiblockArray::<f64>::new(&pa, ep.rank(), &[n]);
            v.fill_with(|c| (c[0] * 7 + 3) as f64);
            let sched = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                ep,
                &un,
                &pa,
                Some(Side::new(&v, &set)),
                &pb,
                None,
                BuildMethod::Cooperation,
            )
            .expect("schedule");
            coupler.bind("boundary", sched);
            for _ in 0..reps {
                coupler.put(ep, "boundary", &v).expect("put");
            }
        } else {
            let mut h = HpfArray::<f64>::new(&pb, ep.rank(), HpfDist::block_1d(n, 2));
            let sched = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                ep,
                &un,
                &pa,
                None,
                &pb,
                Some(Side::new(&h, &set)),
                BuildMethod::Cooperation,
            )
            .expect("schedule");
            coupler.bind("boundary", sched);
            for _ in 0..reps {
                coupler.get(ep, "boundary", &mut h).expect("get");
            }
        }
    });
    out.traces
}

/// A fault plan nasty enough to force retransmits, duplicate
/// suppression, and window stalls, yet crash-free so every transfer
/// completes.
fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).rates(FaultRates {
        drop: 0.15,
        dup: 0.15,
        corrupt: 0.08,
        delay: 0.10,
        delay_secs: 2e-4,
    })
}

fn assert_invariants(traces: &[Vec<TraceEvent>], label: &str) {
    let report = analyze::analyze(traces);
    assert!(
        !report.transfers.is_empty(),
        "{label}: no transfers reconstructed"
    );

    // Monotone + non-negative + tiling, via the built-in self check…
    report
        .self_check()
        .unwrap_or_else(|e| panic!("{label}: {e}"));

    // …and again explicitly, so a future self_check() regression can't
    // silently weaken this suite.
    for t in &report.transfers {
        assert!(
            t.start <= t.end,
            "{label}: transfer seq={} occ={} runs backward",
            t.seq,
            t.occurrence
        );
        let tol = SUM_TOLERANCE * t.duration().max(1.0);
        assert!(
            (t.attributed() - t.duration()).abs() <= tol,
            "{label}: transfer seq={} occ={}: attributed {} != end-to-end {}",
            t.seq,
            t.occurrence,
            t.attributed(),
            t.duration()
        );
        assert!(t.segments > 0, "{label}: transfer tiled into zero segments");
        for (phase, s) in &t.phases {
            assert!(
                s.is_finite() && *s >= -tol,
                "{label}: phase {phase} attribution {s} negative or non-finite"
            );
        }
    }

    // Exact matching: every delivered payload found its physical copy.
    assert!(report.recvs > 0, "{label}: trace recorded no recvs");
    assert_eq!(
        report.unmatched_recvs, 0,
        "{label}: {}/{} recvs unmatched",
        report.unmatched_recvs, report.recvs
    );

    // The matcher itself must hand back causally possible pairs.
    for (rank, recvs) in analyze::match_sends(traces).iter().enumerate() {
        for m in recvs {
            let s = m
                .send
                .as_ref()
                .unwrap_or_else(|| panic!("{label}: rank {rank} recv at {} unmatched", m.at));
            assert!(
                s.arrival <= m.at + 1e-9,
                "{label}: rank {rank} recv at {} matched to a copy arriving later ({})",
                m.at,
                s.arrival
            );
            assert_eq!(s.rank, m.from, "{label}: matched copy from the wrong rank");
        }
    }
}

#[test]
fn clean_run_attribution_tiles_and_matches() {
    // At 1 << 17 each pair half is 65 536 f64: three reliable parts at
    // the default 256 KiB chunk, so multi-part transfers must tile too.
    for n in [256, 1 << 17] {
        let traces = traced_run(n, 2, None);
        assert_invariants(&traces, &format!("clean n={n}"));
    }
}

#[test]
fn faulted_runs_keep_invariants_across_seeds() {
    for seed in test_seeds() {
        let traces = traced_run(192, 2, Some(lossy_plan(seed)));
        // Under this plan retransmission must actually have happened,
        // otherwise the test is not exercising the dup/drop paths.
        let retransmits = traces
            .iter()
            .flatten()
            .filter(|e| matches!(e, TraceEvent::Retransmit { .. }))
            .count();
        assert!(
            retransmits > 0,
            "seed {seed}: fault plan produced no retransmits"
        );
        assert_invariants(&traces, &format!("faulted seed {seed}"));
    }
}

#[test]
fn zero_model_traces_still_tile() {
    // On the zero machine model every timestamp collapses to 0; the
    // analyzer must degrade to zero-duration transfers without NaNs,
    // negative phases, or tiling residue.
    let world = World::new(4).with_trace();
    let out = world.run(move |ep| {
        let n = 64;
        let (pa, pb, un) = mcsim::group::Group::split_two(2, 2, 32);
        let set: SetOfRegions<RegularSection> = SetOfRegions::single(RegularSection::whole(&[n]));
        let mut coupler = Coupler::new();
        if pa.contains(ep.rank()) {
            let mut v = MultiblockArray::<f64>::new(&pa, ep.rank(), &[n]);
            v.fill_with(|c| c[0] as f64);
            let sched = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                ep,
                &un,
                &pa,
                Some(Side::new(&v, &set)),
                &pb,
                None,
                BuildMethod::Cooperation,
            )
            .expect("schedule");
            coupler.bind("b", sched);
            coupler.put(ep, "b", &v).expect("put");
        } else {
            let mut h = HpfArray::<f64>::new(&pb, ep.rank(), HpfDist::block_1d(n, 2));
            let sched = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                ep,
                &un,
                &pa,
                None,
                &pb,
                Some(Side::new(&h, &set)),
                BuildMethod::Cooperation,
            )
            .expect("schedule");
            coupler.bind("b", sched);
            coupler.get(ep, "b", &mut h).expect("get");
        }
    });
    let report = analyze::analyze(&out.traces);
    report.self_check().expect("zero-model attribution tiles");
    for t in &report.transfers {
        for (phase, s) in &t.phases {
            assert!(
                s.is_finite() && *s >= 0.0,
                "phase {phase} went non-finite/negative on the zero model"
            );
        }
    }
}
