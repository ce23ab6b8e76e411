//! Executor micro-benchmarks: the numbers `repro gate executor` holds.
//!
//! The wall legs measure **real wall time** (the reproduction's own
//! efficiency, not simulated 1997 hardware): the cooperation inspector
//! build and the reliable cross-program move of a regular→regular
//! shifted-section copy where every element crosses ranks, and the
//! inspector build of every library pair.  The wire leg reads the
//! **virtual** clock: the sliding window against its stop-and-wait
//! ablation on the SP2 model.
//!
//! Every wall leg goes through one shared harness (`timed_leg`): paths
//! are warmed before anything is timed, and every repetition is
//! bracketed by a clock barrier so no leg can pipeline across
//! repetitions.

use std::time::Instant;

use mcsim::group::{Comm, Group};
use mcsim::model::MachineModel;
use mcsim::prelude::Endpoint;
use mcsim::world::World;

use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::datamove::{data_move_recv, data_move_send};
use meta_chaos::region::{IndexSet, RegularSection};
use meta_chaos::setof::SetOfRegions;
use meta_chaos::{McObject, Side};

use chaos::{IrregArray, Partition};
use hpf::{HpfArray, HpfDist};
use multiblock::MultiblockArray;
use tulip::DistributedCollection;

/// The shared measurement harness: every leg of the micro-benchmark is
/// timed by this one function so the numbers are comparable.  Each batch
/// starts from a clock barrier; each repetition ends on one, so a leg
/// whose work drains asynchronously (the reliable send half, say) is
/// still charged its full round trip.  The best of `batches` batches is
/// kept — a single descheduling of the host thread can add milliseconds
/// to one batch, and the minimum is the standard scheduler-noise filter
/// for wall-clock micros.
fn timed_leg(
    ep: &mut Endpoint,
    g: &Group,
    batches: usize,
    reps: usize,
    mut body: impl FnMut(&mut Endpoint),
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        Comm::borrowed(ep, g).sync_clocks();
        let t = Instant::now();
        for _ in 0..reps {
            body(ep);
            Comm::borrowed(ep, g).sync_clocks();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / reps as f64);
    }
    best
}

/// Inspector build time for one source→destination library pair, both
/// build methods, on a small whole-object copy.
#[derive(Debug, Clone, Copy)]
pub struct PairBuild {
    /// `"src-library->dst-library"`.
    pub pair: &'static str,
    /// Wall ns per cooperation `compute_schedule`.
    pub coop_build_ns: f64,
    /// Wall ns per duplication `compute_schedule`.
    pub dup_build_ns: f64,
}

/// Result of one executor micro-benchmark run.
#[derive(Debug, Clone)]
pub struct ExecutorMicro {
    /// Transferred elements per move (f64, 8 bytes each).
    pub elements: usize,
    /// Simulated processor count.
    pub procs: usize,
    /// Timed repetitions per path.
    pub reps: usize,
    /// Wall nanoseconds per reliable cross-program move (fault-free
    /// `data_move_send`/`data_move_recv`, including the transactional
    /// session layer: manifest exchange, verdict round, staged
    /// all-or-nothing delivery); measured only at `procs == 2`, where
    /// the shift makes rank 0 pure-send and rank 1 pure-recv.
    pub reliable_ns: Option<f64>,
    /// Wall ns for one cold cooperation `compute_schedule` of the same
    /// transfer, rank 0.
    pub inspector_build_ns: f64,
    /// Inspector build time per library pair (all 4×4 combinations),
    /// both build methods, on a small whole-object copy.
    pub pairs: Vec<PairBuild>,
}

impl ExecutorMicro {
    /// Reliable-path throughput, MB/s of moved payload.
    pub fn reliable_mbps(&self) -> Option<f64> {
        let bytes = (self.elements * 8) as f64;
        self.reliable_ns.map(|ns| bytes / (ns * 1e-9) / 1e6)
    }
}

const BATCHES: usize = 5;

/// Benchmark a `2 * elements`-long 1-D block array copying its lower half
/// onto its upper half: on two ranks every element moves in one message
/// rank 0 → rank 1; more ranks shift the halves across several pairs.
pub fn executor_micro(elements: usize, procs: usize, reps: usize) -> ExecutorMicro {
    assert!(elements >= 2 && procs >= 1 && reps >= 1);
    let n = 2 * elements;
    let world = World::with_model(procs, MachineModel::zero());
    let out = world.run(move |ep| {
        let g = Group::world(procs);
        let mut src = MultiblockArray::<f64>::new(&g, ep.rank(), &[n]);
        src.fill_with(|c| c[0] as f64);
        let mut dst = MultiblockArray::<f64>::new(&g, ep.rank(), &[n]);
        let sset = SetOfRegions::single(RegularSection::of_bounds(&[(0, elements)]));
        let dset = SetOfRegions::single(RegularSection::of_bounds(&[(elements, n)]));
        let build = |ep: &mut Endpoint, src: &MultiblockArray<f64>, dst: &MultiblockArray<f64>| {
            compute_schedule(
                ep,
                &g,
                &g,
                Some(Side::new(src, &sset)),
                &g,
                Some(Side::new(dst, &dset)),
                BuildMethod::Cooperation,
            )
            .expect("schedule")
        };
        let sched = build(ep, &src, &dst);

        // Reliable leg: at two ranks the shift is a pure producer/consumer
        // pair, which is exactly the cross-program shape, so the schedule
        // can be driven through the reliable halves.  One warm move pages
        // in the arrays and primes the wire-buffer pool; the per-rep
        // barrier in the shared harness charges the full round trip.
        let reliable_ns = (procs == 2).then(|| {
            let mut step = |ep: &mut Endpoint| {
                if ep.rank() == 0 {
                    data_move_send(ep, &sched, &src).expect("reliable send");
                } else {
                    data_move_recv(ep, &sched, &mut dst).expect("reliable recv");
                }
            };
            step(ep);
            timed_leg(ep, &g, BATCHES, reps, step)
        });

        let inspector_build_ns = timed_leg(ep, &g, BATCHES, reps, |ep| {
            build(ep, &src, &dst);
        });
        (reliable_ns, inspector_build_ns)
    });
    let (reliable_ns, inspector_build_ns) = out.results[0];
    ExecutorMicro {
        elements,
        procs,
        reps,
        reliable_ns,
        inspector_build_ns,
        pairs: inspector_pairs_micro(PAIR_ELEMS, procs, reps.min(2)),
    }
}

/// Wire-throughput legs on the paper's SP2 machine model: stream `bytes`
/// of payload rank 0 → rank 1 through the reliable transport, once with
/// the default sliding-window config and once with the stop-and-wait
/// ablation (window = 1 frame).  Times are **simulated** nanoseconds read
/// off the virtual clock — the sliding window's gain is a protocol
/// property of the modeled wire, not of host scheduling.
#[derive(Debug, Clone, Copy)]
pub struct WireThroughput {
    /// Payload bytes per streamed message.
    pub bytes: usize,
    /// Simulated ns for the full windowed transfer (send through last ack).
    pub windowed_ns: f64,
    /// Simulated ns for the stop-and-wait ablation of the same transfer.
    pub stopwait_ns: f64,
}

impl WireThroughput {
    /// Wire-throughput ratio of the windowed protocol over stop-and-wait.
    pub fn window_speedup(&self) -> f64 {
        self.stopwait_ns / self.windowed_ns
    }
}

/// Measure one `bytes`-long reliable stream on the SP2 model under the
/// given transport config, returning simulated seconds from start to the
/// latest rank clock (sender flush and receiver delivery inclusive).
fn wire_leg_ns(bytes: usize, cfg: mcsim::ReliableConfig) -> f64 {
    use mcsim::reliable::{flush_send, reliable_recv, reliable_send, StreamTag};
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
        ep.clock()
    });
    out.elapsed * 1e9
}

/// The transport-level throughput comparison: a 1M-element (8 MB) payload
/// streamed through the windowed protocol vs the stop-and-wait ablation
/// on the same modeled wire.
pub fn wire_throughput_micro(bytes: usize) -> WireThroughput {
    WireThroughput {
        bytes,
        windowed_ns: wire_leg_ns(bytes, mcsim::ReliableConfig::default()),
        stopwait_ns: wire_leg_ns(bytes, mcsim::ReliableConfig::stop_and_wait()),
    }
}

/// Element count for the per-pair inspector legs — small enough that 16
/// pairs × 2 methods stay fast, large enough to dominate fixed costs.
const PAIR_ELEMS: usize = 4096;

/// Inspector build time for every source→destination library pair
/// (multiblock, hpf, tulip, chaos — 4×4 combinations), both build
/// methods, on an `n`-element whole-object identity copy.
pub fn inspector_pairs_micro(n: usize, procs: usize, reps: usize) -> Vec<PairBuild> {
    assert!(n >= 2 && procs >= 1 && reps >= 1);
    let world = World::with_model(procs, MachineModel::zero());
    let out = world.run(move |ep| {
        let g = Group::world(procs);
        let mb = MultiblockArray::<f64>::new(&g, ep.rank(), &[n]);
        let hp = HpfArray::<f64>::new(&g, ep.rank(), HpfDist::block_1d(n, procs));
        let tu = DistributedCollection::<f64>::new(&g, ep.rank(), n);
        let ch = {
            let mut comm = Comm::new(ep, g.clone());
            IrregArray::create(&mut comm, n, Partition::Cyclic, |_| 0.0)
        };
        let sec = SetOfRegions::single(RegularSection::whole(&[n]));
        let idx = SetOfRegions::single(IndexSet::new((0..n).collect()));

        fn build_pair<S, D>(
            ep: &mut Endpoint,
            g: &Group,
            reps: usize,
            (src, sset): (&S, &SetOfRegions<S::Region>),
            (dst, dset): (&D, &SetOfRegions<D::Region>),
            method: BuildMethod,
        ) -> f64
        where
            S: McObject<f64>,
            D: McObject<f64>,
        {
            timed_leg(ep, g, 3, reps, |ep| {
                compute_schedule(
                    ep,
                    g,
                    g,
                    Some(Side::new(src, sset)),
                    g,
                    Some(Side::new(dst, dset)),
                    method,
                )
                .expect("pair build");
            })
        }

        let mut legs: Vec<(&'static str, f64, f64)> = Vec::new();
        macro_rules! pair {
            ($name:expr, $s:expr, $ss:expr, $d:expr, $ds:expr) => {
                legs.push((
                    $name,
                    build_pair(ep, &g, reps, ($s, $ss), ($d, $ds), BuildMethod::Cooperation),
                    build_pair(ep, &g, reps, ($s, $ss), ($d, $ds), BuildMethod::Duplication),
                ));
            };
        }
        pair!("multiblock->multiblock", &mb, &sec, &mb, &sec);
        pair!("multiblock->hpf", &mb, &sec, &hp, &sec);
        pair!("multiblock->tulip", &mb, &sec, &tu, &idx);
        pair!("multiblock->chaos", &mb, &sec, &ch, &idx);
        pair!("hpf->multiblock", &hp, &sec, &mb, &sec);
        pair!("hpf->hpf", &hp, &sec, &hp, &sec);
        pair!("hpf->tulip", &hp, &sec, &tu, &idx);
        pair!("hpf->chaos", &hp, &sec, &ch, &idx);
        pair!("tulip->multiblock", &tu, &idx, &mb, &sec);
        pair!("tulip->hpf", &tu, &idx, &hp, &sec);
        pair!("tulip->tulip", &tu, &idx, &tu, &idx);
        pair!("tulip->chaos", &tu, &idx, &ch, &idx);
        pair!("chaos->multiblock", &ch, &idx, &mb, &sec);
        pair!("chaos->hpf", &ch, &idx, &hp, &sec);
        pair!("chaos->tulip", &ch, &idx, &tu, &idx);
        pair!("chaos->chaos", &ch, &idx, &ch, &idx);
        legs
    });
    out.results[0]
        .iter()
        .map(|&(pair, coop_build_ns, dup_build_ns)| PairBuild {
            pair,
            coop_build_ns,
            dup_build_ns,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_runs_and_reports_sane_numbers() {
        let r = executor_micro(4096, 2, 2);
        // The reliable leg runs at two procs and reports real numbers (no
        // wall-clock threshold here — that belongs to the bench gate).
        assert!(r.reliable_ns.expect("reliable leg at procs == 2") > 0.0);
        assert!(r.reliable_mbps().unwrap() > 0.0);
        assert!(r.inspector_build_ns > 0.0);
        // All 16 library pairs report both methods.
        assert_eq!(r.pairs.len(), 16);
        for p in &r.pairs {
            assert!(
                p.coop_build_ns > 0.0 && p.dup_build_ns > 0.0,
                "pair {} must time both methods",
                p.pair
            );
        }
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

    #[test]
    fn micro_skips_reliable_leg_off_pairs() {
        let r = executor_micro(512, 3, 1);
        assert!(r.reliable_ns.is_none());
        assert!(r.reliable_mbps().is_none());
    }
}
