//! Executor and inspector micro-benchmarks: the run-compressed `data_move`,
//! both inspector builds, and the reliable transport legs — all on the
//! same schedule in the same run.
//!
//! Unlike the table/figure reproductions this measures **real wall time**
//! (the reproduction's own efficiency, not simulated 1997 hardware): a
//! regular→regular shifted-section copy where every element crosses ranks,
//! so the pack → wire-encode → transfer → decode → unpack pipeline is
//! exercised end to end.
//!
//! Every leg goes through one shared harness (`timed_leg`): all paths
//! are warmed before anything is timed, and every repetition is bracketed
//! by a clock barrier so no leg can pipeline across repetitions while
//! another is measured round-trip.  Overheads reported against `fast_ns`
//! therefore share one denominator — the earlier harness let the reliable
//! leg stream ahead of the barrier and "cost" −67% of the fast path.

use std::time::Instant;

use mcsim::group::{Comm, Group};
use mcsim::model::MachineModel;
use mcsim::prelude::Endpoint;
use mcsim::wire::WireReader;
use mcsim::world::World;
use mcsim::{pair_spans, Phase, RecoveryConfig, RunReport};

use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::datamove::{
    data_move, data_move_recv, data_move_recv_unverified, data_move_send, data_move_send_unverified,
};
use meta_chaos::region::{IndexSet, RegularSection};
use meta_chaos::setof::SetOfRegions;
use meta_chaos::{McObject, RecoverySession, Side};

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

/// Wall-clock breakdown of where a `data_move` spends its time, measured
/// by driving each stage of the pipeline in isolation on the ranks that
/// actually perform it (pack on the first sender, unpack on the last
/// receiver).
#[derive(Debug, Clone, Copy)]
pub struct PhaseNanos {
    /// Wall ns for one cold `compute_schedule` with the cooperation
    /// method.
    pub inspector_build_ns: f64,
    /// Wall ns for one cold `compute_schedule` with the duplication
    /// method, same transfer — the paper's other build strategy, so the
    /// Table 4/5 build-cost ratios are checkable from the JSON.
    pub inspector_build_dup_ns: f64,
    /// Wall ns to pack one move's send runs into wire buffers (rank 0).
    pub pack_ns: f64,
    /// Wall ns to unpack one move's receive runs from wire bytes (last
    /// rank).
    pub unpack_ns: f64,
    /// Residual of the fast-path move after pack and unpack: wire
    /// encode/decode, channel transfer and synchronization.  Derived
    /// (`fast_ns - pack_ns - unpack_ns`, floored at zero), not measured.
    pub wire_ns: f64,
    /// Extra wall ns per move for the transactional session layer
    /// (manifests, verdicts, staged delivery): `reliable_ns -
    /// reliable_raw_ns`.  Only measured where the reliable legs run
    /// (`procs == 2`).
    pub session_overhead_ns: Option<f64>,
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

/// The "compute once, reuse many" leg: a transfer whose schedule carries
/// many runs (`sched_runs > 1` — a 2-D quadrant shift, one run per row),
/// timing one inspector build against one executed move.
#[derive(Debug, Clone, Copy)]
pub struct Amortization {
    /// Transferred elements per move.
    pub elements: usize,
    /// Max `(start, len)` runs in any rank's schedule (> 1 by
    /// construction).
    pub sched_runs: usize,
    /// Wall ns per cooperation `compute_schedule`.
    pub build_ns: f64,
    /// Wall ns per run-compressed `data_move` of the same schedule.
    pub move_ns: f64,
}

impl Amortization {
    /// How many reuses of the schedule pay for building it once — the
    /// paper's economy in one number.
    pub fn breakeven_moves(&self) -> f64 {
        self.build_ns / self.move_ns
    }
}

/// Result of one executor micro-benchmark run.
#[derive(Debug, Clone)]
pub struct ExecutorMicro {
    /// Transferred elements per `data_move` (f64, 8 bytes each).
    pub elements: usize,
    /// Simulated processor count.
    pub procs: usize,
    /// Timed repetitions per path.
    pub reps: usize,
    /// Wall nanoseconds per run-compressed `data_move`, rank 0.
    pub fast_ns: f64,
    /// Wall nanoseconds per reliable cross-program move (fault-free
    /// `data_move_send`/`data_move_recv` of the same payload, including
    /// the transactional session layer: manifest exchange, verdict round,
    /// staged all-or-nothing delivery); measured only at `procs == 2`,
    /// where the shift makes rank 0 pure-send and rank 1 pure-recv.
    pub reliable_ns: Option<f64>,
    /// Wall nanoseconds per *unverified* reliable move — the bare link
    /// layer without manifests or staging (the pre-transactional
    /// behaviour), isolating the session layer's fault-free overhead.
    pub reliable_raw_ns: Option<f64>,
    /// Total `(start, len)` runs in rank 0's schedule (compression check).
    pub sched_runs: usize,
    /// Per-phase wall-clock breakdown (inspector builds, pack, wire,
    /// unpack, session overhead).
    pub phases: PhaseNanos,
    /// Inspector build time per library pair (all 4×4 combinations),
    /// both build methods, on a small whole-object copy.
    pub pairs: Vec<PairBuild>,
    /// The schedule-reuse leg (`sched_runs > 1`).
    pub amortization: Amortization,
}

impl ExecutorMicro {
    fn mbps(&self, ns_per_move: f64) -> f64 {
        let bytes = (self.elements * 8) as f64;
        bytes / (ns_per_move * 1e-9) / 1e6
    }

    /// Fast-path throughput, MB/s of moved payload.
    pub fn fast_mbps(&self) -> f64 {
        self.mbps(self.fast_ns)
    }

    /// Reliable-path throughput, MB/s of moved payload.
    pub fn reliable_mbps(&self) -> Option<f64> {
        self.reliable_ns.map(|ns| self.mbps(ns))
    }

    /// Fault-free overhead of the transactional session layer (manifest
    /// exchange, verdict round, staged delivery) over the bare reliable
    /// link layer, in percent.  Both legs drive the identical split
    /// pipeline through the same barriered harness, so numerator and
    /// denominator share transport machinery and measurement shape.  The
    /// earlier definition divided the reliable leg by `fast_ns` — a
    /// different transport (the pooled coupling link vs the simulator
    /// channel `data_move`) — and reported a meaningless −67%.
    pub fn reliable_overhead_pct(&self) -> Option<f64> {
        match (self.reliable_ns, self.reliable_raw_ns) {
            (Some(txn), Some(raw)) => Some((txn / raw - 1.0) * 100.0),
            _ => None,
        }
    }
}

/// Per-rank raw measurements from the main benchmark world.
#[derive(Clone, Copy)]
struct RankLegs {
    fast_ns: f64,
    reliable_ns: Option<f64>,
    reliable_raw_ns: Option<f64>,
    sched_runs: usize,
    inspector_build_ns: f64,
    inspector_build_dup_ns: f64,
    pack_ns: f64,
    unpack_ns: f64,
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
        let sched = compute_schedule(
            ep,
            &g,
            &g,
            Some(Side::new(&src, &sset)),
            &g,
            Some(Side::new(&dst, &dset)),
            BuildMethod::Cooperation,
        )
        .expect("schedule");

        // Warm every path before timing any: page in the arrays, prime the
        // wire-buffer pool, and run each transport once, so all legs start
        // from the same steady state.
        data_move(ep, &sched, &src, &mut dst);
        if procs == 2 {
            if ep.rank() == 0 {
                data_move_send(ep, &sched, &src).expect("warm reliable send");
                data_move_send_unverified(ep, &sched, &src).expect("warm raw send");
            } else {
                data_move_recv(ep, &sched, &mut dst).expect("warm reliable recv");
                data_move_recv_unverified(ep, &sched, &mut dst).expect("warm raw recv");
            }
        }

        let fast_ns = timed_leg(ep, &g, BATCHES, reps, |ep| {
            data_move(ep, &sched, &src, &mut dst);
        });

        // Reliable legs: at two ranks the shift is a pure producer/consumer
        // pair, which is exactly the cross-program shape, so the same
        // schedule can be driven through the reliable halves.  The per-rep
        // barrier in the shared harness charges the full round trip.
        let reliable_ns = (procs == 2).then(|| {
            timed_leg(ep, &g, BATCHES, reps, |ep| {
                if ep.rank() == 0 {
                    data_move_send(ep, &sched, &src).expect("reliable send");
                } else {
                    data_move_recv(ep, &sched, &mut dst).expect("reliable recv");
                }
            })
        });

        // Ablation: the same payload through the bare link layer (no
        // manifests, no verdicts, no staging) prices the transactional
        // session layer's fault-free overhead.
        let reliable_raw_ns = (procs == 2).then(|| {
            timed_leg(ep, &g, BATCHES, reps, |ep| {
                if ep.rank() == 0 {
                    data_move_send_unverified(ep, &sched, &src).expect("raw send");
                } else {
                    data_move_recv_unverified(ep, &sched, &mut dst).expect("raw recv");
                }
            })
        });

        // Inspector legs: a cold schedule build per method.  The
        // cooperation build is the headline number; duplication gives the
        // other Table 4/5 method.
        let inspector_build_ns = timed_leg(ep, &g, BATCHES, reps, |ep| {
            compute_schedule(
                ep,
                &g,
                &g,
                Some(Side::new(&src, &sset)),
                &g,
                Some(Side::new(&dst, &dset)),
                BuildMethod::Cooperation,
            )
            .expect("coop rebuild");
        });
        let inspector_build_dup_ns = timed_leg(ep, &g, BATCHES, reps, |ep| {
            compute_schedule(
                ep,
                &g,
                &g,
                Some(Side::new(&src, &sset)),
                &g,
                Some(Side::new(&dst, &dset)),
                BuildMethod::Duplication,
            )
            .expect("dup rebuild");
        });

        let mut scratch: Vec<u8> = Vec::new();
        let pack_ns = timed_leg(ep, &g, BATCHES, reps, |ep| {
            for (_, runs) in &sched.sends {
                scratch.clear();
                src.pack_runs_wire(ep, runs, &mut scratch);
            }
        });

        // Valid wire payloads for the unpack leg come from packing the
        // destination's own storage at the receive addresses.
        let payloads: Vec<Vec<u8>> = sched
            .recvs
            .iter()
            .map(|(_, runs)| {
                let mut b = Vec::new();
                dst.pack_runs_wire(ep, runs, &mut b);
                b
            })
            .collect();
        let unpack_ns = timed_leg(ep, &g, BATCHES, reps, |ep| {
            for ((_, runs), b) in sched.recvs.iter().zip(&payloads) {
                let mut r = WireReader::new(b);
                dst.unpack_runs_wire(ep, runs, &mut r).expect("unpack");
            }
        });

        RankLegs {
            fast_ns,
            reliable_ns,
            reliable_raw_ns,
            sched_runs: sched.num_runs(),
            inspector_build_ns,
            inspector_build_dup_ns,
            pack_ns,
            unpack_ns,
        }
    });
    let r0 = out.results[0];
    let unpack_ns = out.results[procs - 1].unpack_ns;
    let phases = PhaseNanos {
        inspector_build_ns: r0.inspector_build_ns,
        inspector_build_dup_ns: r0.inspector_build_dup_ns,
        pack_ns: r0.pack_ns,
        unpack_ns,
        wire_ns: (r0.fast_ns - r0.pack_ns - unpack_ns).max(0.0),
        session_overhead_ns: match (r0.reliable_ns, r0.reliable_raw_ns) {
            (Some(txn), Some(raw)) => Some((txn - raw).max(0.0)),
            _ => None,
        },
    };
    ExecutorMicro {
        elements,
        procs,
        reps,
        fast_ns: r0.fast_ns,
        reliable_ns: r0.reliable_ns,
        reliable_raw_ns: r0.reliable_raw_ns,
        sched_runs: r0.sched_runs,
        phases,
        pairs: inspector_pairs_micro(PAIR_ELEMS, procs, reps.min(2)),
        amortization: amortization_micro(AMORT_SIDE, procs, reps.min(2)),
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

    /// How much of the stop-and-wait serial latency the pipeline hides:
    /// `(1 - windowed/stopwait) * 100`.
    pub fn pipeline_overlap_pct(&self) -> f64 {
        (1.0 - self.windowed_ns / self.stopwait_ns) * 100.0
    }

    fn mbps(&self, ns: f64) -> f64 {
        self.bytes as f64 / (ns * 1e-9) / 1e6
    }

    /// Modeled wire throughput of the windowed stream, MB/s.
    pub fn windowed_mbps(&self) -> f64 {
        self.mbps(self.windowed_ns)
    }

    /// Modeled wire throughput of the stop-and-wait stream, MB/s.
    pub fn stopwait_mbps(&self) -> f64 {
        self.mbps(self.stopwait_ns)
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

/// Square side for the amortization leg: a quadrant shift of an
/// `AMORT_SIDE × AMORT_SIDE` array, one schedule run per section row.
const AMORT_SIDE: usize = 512;

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

/// The schedule-reuse leg: copy the top-left quadrant of a `side × side`
/// array onto the bottom-right quadrant.  Row-major linearization makes
/// every section row its own address run (`sched_runs > 1`), and the
/// quadrants land on different ranks however the process grid splits, so
/// the move is a real transfer — then one build is priced against one
/// move.
pub fn amortization_micro(side: usize, procs: usize, reps: usize) -> Amortization {
    assert!(side >= 4 && side.is_multiple_of(2) && procs >= 1 && reps >= 1);
    let world = World::with_model(procs, MachineModel::zero());
    let out = world.run(move |ep| {
        let g = Group::world(procs);
        let mut src = MultiblockArray::<f64>::new(&g, ep.rank(), &[side, side]);
        src.fill_with(|c| (c[0] * side + c[1]) as f64);
        let mut dst = MultiblockArray::<f64>::new(&g, ep.rank(), &[side, side]);
        let h = side / 2;
        let sset = SetOfRegions::single(RegularSection::of_bounds(&[(0, h), (0, h)]));
        let dset = SetOfRegions::single(RegularSection::of_bounds(&[(h, side), (h, side)]));
        let sched = compute_schedule(
            ep,
            &g,
            &g,
            Some(Side::new(&src, &sset)),
            &g,
            Some(Side::new(&dst, &dset)),
            BuildMethod::Cooperation,
        )
        .expect("amortization schedule");
        data_move(ep, &sched, &src, &mut dst);
        let build_ns = timed_leg(ep, &g, 3, reps, |ep| {
            compute_schedule(
                ep,
                &g,
                &g,
                Some(Side::new(&src, &sset)),
                &g,
                Some(Side::new(&dst, &dset)),
                BuildMethod::Cooperation,
            )
            .expect("amortization rebuild");
        });
        let move_ns = timed_leg(ep, &g, 3, reps, |ep| {
            data_move(ep, &sched, &src, &mut dst);
        });
        (sched.num_runs(), build_ns, move_ns)
    });
    let sched_runs = out.results.iter().map(|&(r, _, _)| r).max().unwrap_or(0);
    let (_, build_ns, move_ns) = out.results[0];
    Amortization {
        elements: (side / 2) * (side / 2),
        sched_runs,
        build_ns,
        move_ns,
    }
}

/// Wall-clock cost of one supervised crash + recovery: the same small
/// resumable coupled transfer (one Multiblock sender, one HPF receiver,
/// two steps through a [`RecoverySession`]) run under the supervisor
/// twice — once fault-free, once with the receiving rank killed halfway
/// through its transfer window and respawned from its checkpoint.  The
/// settle time is the wall-clock difference: what the lease windows,
/// restart, and part replay actually cost on this host.
#[derive(Debug, Clone, Copy)]
pub struct RecoverySettle {
    /// Transferred elements per step (f64, 8 bytes each).
    pub elements: usize,
    /// Wall ns for the fault-free supervised run.
    pub baseline_ns: f64,
    /// Wall ns for the run with one mid-transfer crash + respawn.
    pub crashed_ns: f64,
    /// Ranks the supervisor respawned in the crashed run (>= 1).
    pub ranks_recovered: u64,
    /// Transfer halves replayed while the recovered pair re-settled.
    pub parts_replayed: u64,
}

impl RecoverySettle {
    /// Recovery overhead: crashed minus baseline wall time, floored at
    /// zero (both runs share world setup and teardown, so the
    /// difference isolates detection + restart + replay).
    pub fn settle_ns(&self) -> f64 {
        (self.crashed_ns - self.baseline_ns).max(0.0)
    }
}

/// Steps in the settle micro: two, so a restarted life demonstrably
/// resumes (step 0 replayed or confirmed, step 1 fresh).
const SETTLE_STEPS: u64 = 2;

/// Scripted crashes panic inside rank tasks *by design*; the world
/// supervisor catches them and respawns the rank.  Silence just those
/// expected payloads so bench output stays readable, and leave every
/// other panic on the default reporter.
fn quiet_crash_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("crashed by fault plan") {
                default_hook(info);
            }
        }));
    });
}

/// One supervised settle run: a 2-rank coupled transfer driven through
/// a `RecoverySession`, optionally crashing rank 1 at virtual time
/// `crash`.  Returns the wall ns around `World::run_result` plus the
/// report (traces for span mining, stats for recovery counters).
fn settle_world(n: usize, crash: Option<f64>) -> (f64, RunReport<()>) {
    let world = World::with_model(2, MachineModel::sp2())
        .with_supervisor(1)
        .with_recovery_config(RecoveryConfig {
            heartbeats: true,
            lease_misses: 3,
        })
        .with_trace();
    let t = Instant::now();
    let rep = world.run_result(move |ep| {
        // Arm the scripted crash once per rank: the flag rides the
        // checkpoint store, so the restarted life does not re-crash.
        if let Some(at) = crash {
            if ep.rank() == 1 && !ep.ckpt_has("settle-crash-armed") {
                ep.ckpt_put("settle-crash-armed", Vec::new());
                ep.arm_crash(at);
            }
        }
        let (pa, pb, un) = Group::split_two(1, 1, 36);
        let set: SetOfRegions<RegularSection> = SetOfRegions::single(RegularSection::whole(&[n]));
        let mut ses = RecoverySession::new("bench-settle");
        if pa.contains(ep.rank()) {
            let mut v: MultiblockArray<f64> = ses.restore_object(ep).unwrap_or_else(|| {
                let o = MultiblockArray::<f64>::new(&pa, ep.rank(), &[n]);
                ses.checkpoint_object(ep, &o);
                o
            });
            let sched = ses.restore_schedule(ep).unwrap_or_else(|| {
                let s = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                    ep,
                    &un,
                    &pa,
                    Some(Side::new(&v, &set)),
                    &pb,
                    None,
                    BuildMethod::Cooperation,
                )
                .expect("settle schedule");
                ses.checkpoint_schedule(ep, &s);
                s
            });
            for k in 0..SETTLE_STEPS {
                v.fill_with(|c| (k * n as u64 + c[0] as u64) as f64);
                ses.send_step(ep, &sched, &v, k).expect("settle send");
            }
            ses.finish(ep, &sched, SETTLE_STEPS).expect("settle finish");
        } else {
            let mut h: HpfArray<f64> = ses.restore_object(ep).unwrap_or_else(|| {
                let o = HpfArray::<f64>::new(&pb, ep.rank(), HpfDist::block_1d(n, 1));
                ses.checkpoint_object(ep, &o);
                o
            });
            let sched = ses.restore_schedule(ep).unwrap_or_else(|| {
                let s = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                    ep,
                    &un,
                    &pa,
                    None,
                    &pb,
                    Some(Side::new(&h, &set)),
                    BuildMethod::Cooperation,
                )
                .expect("settle schedule");
                ses.checkpoint_schedule(ep, &s);
                s
            });
            for k in 0..SETTLE_STEPS {
                ses.recv_step(ep, &sched, &mut h, k).expect("settle recv");
            }
            ses.finish(ep, &sched, SETTLE_STEPS).expect("settle finish");
        }
    });
    (t.elapsed().as_nanos() as f64, rep)
}

/// The crash-recovery settle micro: price a supervised mid-transfer
/// crash against the fault-free supervised baseline.  The crash time is
/// mined from the baseline's traces (midpoint of the receiver's transfer
/// window) so it always lands inside the resumable session, never inside
/// the collective schedule build.
pub fn recovery_settle_micro(n: usize) -> RecoverySettle {
    quiet_crash_panics();
    let (baseline_ns, base) = settle_world(n, None);
    for o in &base.outcomes {
        o.as_ref().expect("fault-free supervised settle run");
    }
    let (lo, hi) = pair_spans(&base.traces[1])
        .into_iter()
        .filter(|s| {
            matches!(
                s.phase,
                Phase::Manifest | Phase::Pack | Phase::Wire | Phase::Stage | Phase::Commit
            )
        })
        .fold(None::<(f64, f64)>, |acc, s| {
            Some(match acc {
                None => (s.begin, s.end),
                Some((lo, hi)) => (lo.min(s.begin), hi.max(s.end)),
            })
        })
        .expect("baseline transfer spans on the receiving rank");
    let (crashed_ns, crashed) = settle_world(n, Some(lo + 0.5 * (hi - lo)));
    for o in &crashed.outcomes {
        o.as_ref()
            .expect("crashed supervised settle run must converge");
    }
    let rec = crashed.stats.recovery;
    assert!(
        rec.ranks_recovered >= 1,
        "the scripted mid-transfer crash must fire and be recovered"
    );
    RecoverySettle {
        elements: n,
        baseline_ns,
        crashed_ns,
        ranks_recovered: rec.ranks_recovered,
        parts_replayed: rec.parts_replayed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_runs_and_reports_sane_numbers() {
        let r = executor_micro(4096, 2, 2);
        assert!(r.fast_ns > 0.0 && r.fast_mbps() > 0.0);
        // The shifted halves of a 2-rank block array are contiguous on
        // both sides: the schedule must compress to a handful of runs.
        assert!(r.sched_runs <= 4, "expected few runs, got {}", r.sched_runs);
        // The reliable leg runs at two procs and reports real numbers (no
        // wall-clock threshold here — that belongs to the bench gate).
        let rel = r.reliable_ns.expect("reliable leg at procs == 2");
        assert!(rel > 0.0);
        assert!(r.reliable_mbps().unwrap() > 0.0);
        // The ablation leg prices the session layer against the bare link
        // (no threshold here — that belongs to the bench gate).
        let raw = r.reliable_raw_ns.expect("raw leg at procs == 2");
        assert!(raw > 0.0);
        assert!(r.reliable_overhead_pct().is_some());
        // Phase breakdown: every measured stage is positive and the wire
        // residual stays within the whole move.
        let ph = r.phases;
        assert!(ph.inspector_build_ns > 0.0);
        assert!(ph.inspector_build_dup_ns > 0.0);
        assert!(ph.pack_ns > 0.0, "rank 0 sends, so pack must cost");
        assert!(
            ph.unpack_ns > 0.0,
            "last rank receives, so unpack must cost"
        );
        assert!(ph.wire_ns >= 0.0 && ph.wire_ns <= r.fast_ns);
        assert!(ph.session_overhead_ns.is_some());
        // All 16 library pairs report both methods.
        assert_eq!(r.pairs.len(), 16);
        for p in &r.pairs {
            assert!(
                p.coop_build_ns > 0.0 && p.dup_build_ns > 0.0,
                "pair {} must time both methods",
                p.pair
            );
        }
        // The amortization leg exercises a genuinely run-compressed
        // schedule and a payable build.
        let a = r.amortization;
        assert!(a.sched_runs > 1, "quadrant shift must have many runs");
        assert!(a.build_ns > 0.0 && a.move_ns > 0.0);
        assert!(a.breakeven_moves() > 0.0);
    }

    #[test]
    fn wire_legs_show_pipelining_win_on_sp2() {
        // 8 MB on the SP2 wire model: the windowed stream keeps the link
        // busy while acks are in flight, so it must beat stop-and-wait by
        // a wide margin — the PR's ≥4× acceptance bar, asserted here so a
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
        assert!(w.pipeline_overlap_pct() > 0.0 && w.pipeline_overlap_pct() < 100.0);
        assert!(w.windowed_mbps() > w.stopwait_mbps());
    }

    #[test]
    fn recovery_settle_micro_converges_and_reports() {
        let r = recovery_settle_micro(512);
        assert!(r.baseline_ns > 0.0 && r.crashed_ns > 0.0);
        assert!(r.ranks_recovered >= 1, "the scripted crash must recover");
        assert!(r.settle_ns() >= 0.0);
    }

    #[test]
    fn micro_skips_reliable_leg_off_pairs() {
        let r = executor_micro(512, 3, 1);
        assert!(r.reliable_ns.is_none());
        assert!(r.reliable_raw_ns.is_none());
        assert!(r.reliable_overhead_pct().is_none());
        assert!(r.phases.session_overhead_ns.is_none());
    }
}
