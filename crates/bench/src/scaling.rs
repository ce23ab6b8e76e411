//! `repro scaling` — scaling curves for the rank runner.
//!
//! The claim behind these numbers: the simulator's rank count is not
//! bounded by OS threads.  Ranks are tasks of one scheduler on one host
//! thread, so a P=1024 world is just more parked continuations, not 1024
//! kernel stacks.  Each curve point runs three
//! paper workloads at fixed problem size and growing P:
//!
//! * **inspector build** — the two-program Cooperation-method schedule
//!   build for a whole-vector coupled transfer;
//! * **transfer settle** — one session-layer `put`/`get` of that vector
//!   through a bound coupler port, until both sides commit;
//! * **redistribution** — HPF `REDISTRIBUTE` of a block vector to a
//!   cyclic layout within one P-rank program.  Broker-free: the
//!   Duplication build needs no messages, and each rank dereferences its
//!   own side through `HpfDist::owned_section_ranges` — the owned chunk
//!   ranges `c, c+g, c+2g, …` of the `CYCLIC(4)` dimension intersected
//!   with the section, O(owned chunks) host work per rank rather than an
//!   owner test per global element.
//!
//! Two times are recorded per workload: **virtual** milliseconds (the
//! simulated cost — deterministic, so the verify gate can hold it to an
//! exact budget, and the quantity the paper's scaling claims are about)
//! and **host wall** milliseconds (what the simulator itself spent
//! hosting the run).  With the problem size fixed, per-rank work shrinks
//! as P grows, so the simulated inspector and executor costs both grow
//! **sub-linearly** in P; see [`sublinear`] for why the wall clock
//! tracks the Θ(P²) simulated message count instead.
//!
//! `inspector_wall_ms` and `redist_wall_ms` time whole worlds (spawn,
//! build, run, join).  The transfer's world has to repeat the schedule
//! build, so its wall column is `settle_wall_ms`: the put/get alone,
//! timed inside that world.
//!
//! Beside the curve, [`wire_throughput_micro`] reads the sliding window's
//! speed-up off the virtual clock: a protocol property of the modeled wire.

use std::time::Instant;

use mcsim::group::{Comm, Group};
use mcsim::model::MachineModel;
use mcsim::prelude::Endpoint;
use mcsim::world::World;

use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::coupling::Coupler;
use meta_chaos::region::RegularSection;
use meta_chaos::setof::SetOfRegions;
use meta_chaos::Side;

use hpf::{DistKind, HpfArray, HpfDist};
use multiblock::MultiblockArray;

/// One row of the scaling curve.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// World size (total ranks across both programs).
    pub procs: usize,
    /// Max-over-ranks virtual ms of the coupled schedule build.
    pub inspector_virtual_ms: f64,
    /// Max-over-ranks virtual ms of one coupled put/get settle.
    pub transfer_virtual_ms: f64,
    /// Max-over-ranks virtual ms of the block→cyclic redistribution.
    pub redist_virtual_ms: f64,
    /// Host wall ms of the build-only world.
    pub inspector_wall_ms: f64,
    /// Host wall ms of the put/get settle alone, inside that world.
    pub settle_wall_ms: f64,
    /// Host wall ms of the redistribution world.
    pub redist_wall_ms: f64,
}

/// The coupled workload: programs of `p/2` ranks each, a Multiblock
/// vector on A coupled to a block-distributed HPF vector on B over the
/// whole index space.  Returns per-rank `(build_s, settle_s)` virtual
/// durations and the rank's [`settle_wall_ms`]; `settle` runs only when
/// `reps > 0`.
fn coupled_times(p: usize, n: usize, reps: usize) -> Vec<(f64, f64, f64)> {
    assert!(
        p >= 4 && p.is_multiple_of(2),
        "coupled workload needs an even P >= 4"
    );
    let pa_size = p / 2;
    let world = World::with_model(p, MachineModel::sp2());
    let out = world.run(move |ep| {
        let (pa, pb, un) = Group::split_two(pa_size, p - pa_size, 32);
        let set: SetOfRegions<RegularSection> = SetOfRegions::single(RegularSection::whole(&[n]));
        let mut coupler = Coupler::new();
        let t0 = ep.clock();
        let mut settle_s = 0.0;
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
            let build_s = ep.clock() - t0;
            coupler.bind("boundary", sched);
            let t1 = ep.clock();
            for _ in 0..reps {
                coupler.put(ep, "boundary", &v).expect("put");
            }
            settle_s = ep.clock() - t1;
            let wall_ms = settle_wall_ms(ep, &un, reps, |ep| {
                coupler.put(ep, "boundary", &v).expect("put");
            });
            (build_s, settle_s, wall_ms)
        } else {
            let mut h = HpfArray::<f64>::new(&pb, ep.rank(), HpfDist::block_1d(n, p - pa_size));
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
            let build_s = ep.clock() - t0;
            coupler.bind("boundary", sched);
            let t1 = ep.clock();
            for _ in 0..reps {
                coupler.get(ep, "boundary", &mut h).expect("get");
            }
            settle_s += ep.clock() - t1;
            let wall_ms = settle_wall_ms(ep, &un, reps, |ep| {
                coupler.get(ep, "boundary", &mut h).expect("get");
            });
            (build_s, settle_s, wall_ms)
        }
    });
    out.results
}

/// Host wall ms of `reps` further settles (`half` is this rank's put or
/// get), timed between two `sync_clocks` over the union group so that the
/// span on any one rank covers every rank's half.  It runs after the
/// virtual measurement, which must not see the synchronization.
fn settle_wall_ms(
    ep: &mut Endpoint,
    un: &Group,
    reps: usize,
    mut half: impl FnMut(&mut Endpoint),
) -> f64 {
    if reps == 0 {
        return 0.0;
    }
    Comm::borrowed(ep, un).sync_clocks();
    let w = Instant::now();
    for _ in 0..reps {
        half(ep);
    }
    Comm::borrowed(ep, un).sync_clocks();
    w.elapsed().as_secs_f64() * 1e3
}

/// The redistribution workload: one P-rank program, block vector to
/// `CYCLIC(4)`.  Returns per-rank virtual seconds.
fn redist_times(p: usize, n: usize) -> Vec<f64> {
    let world = World::with_model(p, MachineModel::sp2());
    let out = world.run(move |ep| {
        let prog = Group::world(ep.world_size());
        let mut src = HpfArray::<f64>::new(&prog, ep.rank(), HpfDist::block_1d(n, p));
        src.for_each_owned(|c, v| *v = c[0] as f64);
        let t0 = ep.clock();
        let dst = hpf::redistribute(
            ep,
            &prog,
            &src,
            HpfDist::new(vec![n], vec![DistKind::Cyclic(4)], vec![p]),
        );
        let dt = ep.clock() - t0;
        drop(dst);
        dt
    });
    out.results
}

fn max_ms(vals: impl Iterator<Item = f64>) -> f64 {
    vals.fold(0.0f64, f64::max) * 1e3
}

/// Measure one curve point.  Three worlds run: build-only (inspector
/// wall), build+settle (rank 0's timing of the settle alone is the
/// settle wall), and the redistribution.
pub fn scaling_point(procs: usize, elements: usize) -> ScalingPoint {
    let w0 = Instant::now();
    let build_only = coupled_times(procs, elements, 0);
    let inspector_wall_ms = w0.elapsed().as_secs_f64() * 1e3;

    let with_settle = coupled_times(procs, elements, 1);

    let w1 = Instant::now();
    let redist = redist_times(procs, elements);
    let redist_wall_ms = w1.elapsed().as_secs_f64() * 1e3;

    ScalingPoint {
        procs,
        inspector_virtual_ms: max_ms(build_only.iter().map(|r| r.0)),
        transfer_virtual_ms: max_ms(with_settle.iter().map(|r| r.1)),
        redist_virtual_ms: max_ms(redist.iter().copied()),
        inspector_wall_ms,
        settle_wall_ms: with_settle[0].2,
        redist_wall_ms,
    }
}

/// Sub-linearity check over consecutive curve points: the simulated cost
/// of the inspector build and of the transfer settle must both grow by a
/// smaller factor than the rank count does.  (The transfer actually
/// *shrinks* with P — per-rank payload drops — and the inspector's growth
/// comes from the union-group collective's latency terms, which scale
/// with P but sub-linearly so.)
///
/// Host wall time is recorded but not bounded here: the Cooperation
/// build exchanges descriptors over an alltoallv in the union group, so
/// the *simulated message count* is Θ(P²) by construction and the host
/// pays for every simulated message (allocation, mailbox and stash costs;
/// DESIGN §4j has the measured split).  The scheduler's win is that
/// those P² messages at P=1024 cost seconds on one host thread instead
/// of needing 1024 OS threads.
pub fn sublinear(points: &[ScalingPoint]) -> bool {
    points.windows(2).all(|w| {
        let p_ratio = w[1].procs as f64 / w[0].procs as f64;
        let insp = w[1].inspector_virtual_ms / w[0].inspector_virtual_ms.max(1e-12);
        let xfer = w[1].transfer_virtual_ms / w[0].transfer_virtual_ms.max(1e-12);
        insp < p_ratio && xfer < p_ratio
    })
}

/// The sliding window against its stop-and-wait ablation (window = 1
/// frame): **simulated** ns to stream one payload rank 0 → rank 1 on the
/// SP2 model, send through last ack, under each transport config.
#[derive(Debug, Clone, Copy)]
pub struct WireThroughput {
    /// Simulated ns of the windowed transfer.
    pub windowed_ns: f64,
    /// Simulated ns of the stop-and-wait transfer.
    pub stopwait_ns: f64,
}

impl WireThroughput {
    /// Wire-throughput ratio of the windowed protocol over stop-and-wait.
    pub fn window_speedup(&self) -> f64 {
        self.stopwait_ns / self.windowed_ns
    }
}

/// Stream `bytes` through both transport configs on the SP2 model.
pub fn wire_throughput_micro(bytes: usize) -> WireThroughput {
    use mcsim::reliable::{flush_send, reliable_recv, reliable_send, StreamTag};
    let leg_ns = |cfg| {
        let world = World::with_model(2, MachineModel::sp2()).with_reliable_config(cfg);
        let out = world.run(move |ep| {
            let st = StreamTag::new(40, 1);
            if ep.rank() == 0 {
                let mut b = ep.take_buf();
                b.resize(bytes, 0x5A);
                reliable_send(ep, 1, st, b).expect("wire leg send");
                flush_send(ep, 1, st).expect("wire leg flush");
            } else {
                let b = reliable_recv(ep, 0, st).expect("wire leg recv");
                assert_eq!(b.len(), bytes, "wire leg must deliver the payload");
                ep.recycle_buf(b);
            }
        });
        out.elapsed * 1e9
    };
    WireThroughput {
        windowed_ns: leg_ns(mcsim::ReliableConfig::default()),
        stopwait_ns: leg_ns(mcsim::ReliableConfig::stop_and_wait()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_point_is_self_consistent() {
        let pt = scaling_point(8, 512);
        assert_eq!(pt.procs, 8);
        assert!(pt.inspector_virtual_ms > 0.0);
        assert!(pt.transfer_virtual_ms > 0.0);
        assert!(pt.redist_virtual_ms > 0.0);
        assert!(pt.inspector_wall_ms > 0.0);
    }

    #[test]
    fn virtual_times_are_deterministic() {
        let a = scaling_point(8, 512);
        let b = scaling_point(8, 512);
        assert_eq!(a.inspector_virtual_ms, b.inspector_virtual_ms);
        assert_eq!(a.transfer_virtual_ms, b.transfer_virtual_ms);
        assert_eq!(a.redist_virtual_ms, b.redist_virtual_ms);
    }

    #[test]
    fn wire_legs_show_pipelining_win_on_sp2() {
        // 8 MB on the SP2 wire model: the windowed stream keeps the link
        // busy while acks are in flight, so it must beat stop-and-wait by
        // a wide margin — the ≥4× acceptance bar, asserted here so a
        // protocol regression fails in `cargo test`, not only in the gate.
        let w = wire_throughput_micro(8 << 20);
        assert!(w.windowed_ns > 0.0 && w.stopwait_ns > 0.0);
        assert!(
            w.window_speedup() >= 4.0,
            "windowed transport must be >=4x stop-and-wait on sp2/8MB, got {:.2}x \
             (windowed {:.0} ns, stopwait {:.0} ns)",
            w.window_speedup(),
            w.windowed_ns,
            w.stopwait_ns
        );
    }
}
