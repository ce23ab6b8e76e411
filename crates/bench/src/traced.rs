//! A small, fully traced coupled run for the trace exporters.
//!
//! Two programs of two ranks each on the SP2 machine model (so span
//! durations are real virtual time, not zeros): senders {0,1} hold a
//! Multiblock vector, receivers {2,3} an HPF vector, coupled over the
//! whole index space through a named port.  The world runs with tracing
//! enabled, so the result carries every rank's event timeline —
//! `inspect`, then per-move `transfer > {manifest, pack, wire, stage,
//! commit}` — ready for [`mcsim::chrome_trace_json`] or
//! [`mcsim::jsonl_events`].

use mcsim::stats::NetStats;
use mcsim::trace::TraceEvent;
use mcsim::{MachineModel, World};

use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::coupling::Coupler;
use meta_chaos::region::RegularSection;
use meta_chaos::setof::SetOfRegions;
use meta_chaos::Side;

use hpf::{HpfArray, HpfDist};
use multiblock::MultiblockArray;

/// Output of [`traced_coupled_run`]: per-rank timelines plus the
/// aggregated network counters of the same run.
pub struct TracedRun {
    /// Per-rank event timelines, indexed by rank.
    pub traces: Vec<Vec<TraceEvent>>,
    /// Aggregated counters (messages, bytes, faults, session).
    pub stats: NetStats,
}

/// Run `reps` coupled transfers of an `n`-element vector between two
/// 2-rank programs with tracing on, and return the timelines.
pub fn traced_coupled_run(n: usize, reps: usize) -> TracedRun {
    assert!(n >= 4 && reps >= 1);
    let world = World::with_model(4, MachineModel::sp2()).with_trace();
    let out = world.run(move |ep| {
        let (pa, pb, un) = mcsim::group::Group::split_two(2, 2, 32);
        let set: SetOfRegions<RegularSection> = SetOfRegions::single(RegularSection::whole(&[n]));
        let mut coupler = Coupler::new();
        if pa.contains(ep.rank()) {
            let mut v = MultiblockArray::<f64>::new(&pa, ep.rank(), &[n]);
            v.fill_with(|c| (c[0] * 3 + 1) as f64);
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
    TracedRun {
        traces: out.traces,
        stats: out.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim::span::{pair_spans, Phase};

    #[test]
    fn traced_run_produces_full_span_tree() {
        let run = traced_coupled_run(64, 2);
        assert_eq!(run.traces.len(), 4);
        // Every rank carries an inspect span and per-move transfer spans
        // with the session phases nested inside.
        for (rank, tl) in run.traces.iter().enumerate() {
            let spans = pair_spans(tl);
            let has = |p: Phase| spans.iter().any(|s| s.phase == p);
            assert!(has(Phase::Inspect), "rank {rank} missing inspect");
            assert!(has(Phase::Transfer), "rank {rank} missing transfer");
            assert!(has(Phase::Manifest), "rank {rank} missing manifest");
            let sender = rank < 2;
            if sender {
                assert!(has(Phase::Pack), "rank {rank} missing pack");
                assert!(has(Phase::Wire), "rank {rank} missing wire");
            } else {
                assert!(has(Phase::Stage), "rank {rank} missing stage");
                assert!(has(Phase::Commit), "rank {rank} missing commit");
            }
            // Session phases nest under a transfer span.
            let transfer_ids: Vec<_> = spans
                .iter()
                .filter(|s| s.phase == Phase::Transfer)
                .map(|s| s.id)
                .collect();
            assert!(spans
                .iter()
                .filter(|s| s.phase == Phase::Manifest)
                .all(|s| s.parent.is_some_and(|p| transfer_ids.contains(&p))));
        }
    }
}
