//! The six workloads: names, sizes, worlds, and the per-rank bodies.
//!
//! All run on `MachineModel::sp2()`, crossbar, `f64`, under the default
//! runner (`Runner::Coop { workers: 1 }`: one process, one thread).
//! `--seed` drives fill values, the Chaos partitions, the `Reg2Irreg`
//! permutations, the `FaultPlan`, and a sub-percent jitter of the
//! element counts (so the simulated times of two seeds differ, while any
//! one seed repeats exactly).

mod coupled;
mod irregular;
pub mod pairs;
mod scale;
mod small_steps;

use std::time::Instant;

use mcsim::group::{Comm, Group};
use mcsim::prelude::Endpoint;
use mcsim::{FaultPlan, FaultRates, MachineModel, RunOutput, World};
use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::schedule::Schedule;
use meta_chaos::{validate_schedule, McError, Side};

use hpf::HpfArray;
use multiblock::MultiblockArray;

use crate::driver::{LoopCfg, RankOut};
use crate::libs::{fill, mismatches, mix, value, Lib, POISON};
use crate::spans::Rec;

/// One of the six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BulkRegular,
    SmallSteps,
    IrregularRemap,
    PairsMatrix,
    ScaleP128,
    LossyLink,
}

impl Kind {
    /// All workloads, in report order.
    pub const ALL: [Kind; 6] = [
        Kind::BulkRegular,
        Kind::SmallSteps,
        Kind::IrregularRemap,
        Kind::PairsMatrix,
        Kind::ScaleP128,
        Kind::LossyLink,
    ];

    /// The workload's name, as `--workload` and `BENCHMARK.json` spell it.
    pub fn name(self) -> &'static str {
        match self {
            Kind::BulkRegular => "bulk-regular",
            Kind::SmallSteps => "small-steps",
            Kind::IrregularRemap => "irregular-remap",
            Kind::PairsMatrix => "pairs-matrix",
            Kind::ScaleP128 => "scale-p128",
            Kind::LossyLink => "lossy-link",
        }
    }

    /// Why the workload exists (one line, recorded in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Kind::BulkRegular => {
                "8 MiB regular put/get over a prebuilt schedule: pack/unpack, reliable framing and stage/commit do all the work, the inspector none"
            }
            Kind::SmallSteps => {
                "4 096-element put/get plus a RecoverySession step: per-transfer fixed cost (manifest, acks, checkpoint, context switches) is all there is"
            }
            Kind::IrregularRemap => {
                "the paper's Table 2 remap at P=8: fresh permutation, both inspector builds and a there-and-back move every iteration; Chaos deref and length-1 runs dominate"
            }
            Kind::PairsMatrix => {
                "all 16 library pairs at P=4, both builds plus a move and a cache-hit copy each: every adapter and the api cache take part"
            }
            Kind::ScaleP128 => {
                "64+64 ranks, coupled build + settle + HPF redistribute: ~7e4 simulated messages per iteration, so scheduler, mailboxes and collectives dominate"
            }
            Kind::LossyLink => {
                "bulk-regular's shape at 2 MiB under 2% drop, 1% dup, 1% corrupt, 2% delay: retransmit, NACK, dedup and checksum paths dominate"
            }
        }
    }

    /// Parse a `--workload` value.
    pub fn from_name(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Ranks in the workload's world.
    pub fn procs(self) -> usize {
        match self {
            Kind::IrregularRemap => 8,
            Kind::ScaleP128 => 128,
            _ => 4,
        }
    }

    /// Vector length for `seed`: the nominal size minus a seeded jitter of
    /// at most 1/256 of it.  (`irregular-remap` keeps the paper's exact
    /// 256 × 256 mesh; its seed dependence comes from the partition and
    /// the permutations.)
    pub fn elements(self, seed: u64) -> usize {
        let nominal: usize = match self {
            Kind::BulkRegular => 1 << 20,
            Kind::SmallSteps => 4096,
            Kind::IrregularRemap => return MESH_SIDE * MESH_SIDE,
            Kind::PairsMatrix => 4096,
            Kind::ScaleP128 => 32768,
            Kind::LossyLink => 1 << 18,
        };
        nominal - (mix(seed ^ 0x51ce) % (nominal as u64 / 256)) as usize
    }

    /// Elements one iteration covers (moved end to end), for `elems_per_s`.
    pub fn elems_per_iter(self, seed: u64) -> usize {
        let n = self.elements(seed);
        match self {
            Kind::BulkRegular | Kind::LossyLink => n,
            // put/get + session step; there and back; settle + redistribute.
            Kind::SmallSteps | Kind::IrregularRemap | Kind::ScaleP128 => 2 * n,
            // 16 pairs, a data_move and an mc_copy each.
            Kind::PairsMatrix => 32 * n,
        }
    }

    /// Loop sizing: `(warmup, prefix, traced iteration cap)`.
    fn sizing(self) -> (usize, usize, usize) {
        match self {
            Kind::BulkRegular => (6, 16, 200),
            Kind::SmallSteps => (50, 64, 500),
            Kind::IrregularRemap => (3, 8, 16),
            Kind::PairsMatrix => (3, 8, 24),
            Kind::ScaleP128 => (3, 8, 8),
            Kind::LossyLink => (8, 1024, 1024),
        }
    }

    /// The loop configuration of one trial.
    pub fn loop_cfg(self, budget_s: f64, traced: bool) -> LoopCfg {
        let (warmup, prefix, cap) = self.sizing();
        LoopCfg {
            budget_s,
            warmup,
            prefix,
            max_iters: if traced { cap } else { usize::MAX },
        }
    }

    /// The workload's world for `seed`.
    pub fn world(self, seed: u64, traced: bool) -> World {
        let mut w = World::with_model(self.procs(), MachineModel::sp2());
        match self {
            Kind::SmallSteps => w = w.with_supervisor(1),
            Kind::LossyLink => {
                w = w.with_faults(FaultPlan::new(mix(seed ^ 0xfa17)).rates(FaultRates {
                    drop: 0.02,
                    dup: 0.01,
                    corrupt: 0.01,
                    delay: 0.02,
                    delay_secs: 0.5e-3,
                }));
            }
            _ => {}
        }
        if traced {
            w = w.with_trace();
        }
        w
    }

    /// Run one trial's world: every rank builds its side and goes through
    /// [`crate::driver::drive`].
    pub fn run(self, seed: u64, budget_s: f64, traced: bool, epoch: Instant) -> RunOutput<RankOut> {
        let cfg = self.loop_cfg(budget_s, traced);
        let world = self.world(seed, traced);
        self.run_in(world, seed, self.elements(seed), cfg, traced, epoch)
    }

    /// [`Kind::run`] with the world, size and loop chosen by the caller —
    /// how the probes run a workload's twin (the fault-free `lossy-link`,
    /// `scale-p128` at P = 256).  The rank count is the world's.
    pub fn run_in(
        self,
        world: World,
        seed: u64,
        n: usize,
        cfg: LoopCfg,
        traced: bool,
        epoch: Instant,
    ) -> RunOutput<RankOut> {
        let procs = world.size();
        world.run(move |ep| {
            let rec = Rec::new(traced, ep.rank(), epoch);
            match self {
                Kind::BulkRegular | Kind::LossyLink => coupled::rank(ep, seed, n, cfg, rec),
                Kind::SmallSteps => small_steps::rank(ep, seed, n, cfg, rec),
                Kind::IrregularRemap => irregular::rank(ep, seed, MESH_SIDE, procs, cfg, rec),
                Kind::PairsMatrix => pairs::rank(ep, seed, n, procs, cfg, rec),
                Kind::ScaleP128 => scale::rank(ep, seed, n, procs / 2, cfg, rec),
            }
        })
    }
}

/// Mesh side of `irregular-remap` (the paper's 256 × 256 / 65 536 points).
const MESH_SIDE: usize = 256;

/// The coupled shape `bulk-regular`, `lossy-link`, `small-steps`,
/// `scale-p128` and one probe share: program A (the first `a` ranks)
/// holds a Multiblock vector, program B (the next `b`) an HPF block
/// vector, coupled over the whole index space.
pub struct Coupled {
    pub pa: Group,
    pub pb: Group,
    pub un: Group,
    /// This rank's side: the source on A's ranks, the destination on B's.
    pub src: Option<MultiblockArray<f64>>,
    pub dst: Option<HpfArray<f64>>,
    pub seed: u64,
    n: usize,
}

impl Coupled {
    /// Collective over each program: build this rank's side (zeros).
    pub fn build(ep: &mut Endpoint, a: usize, b: usize, n: usize, seed: u64) -> Self {
        let (pa, pb, un) = Group::split_two(a, b, 32);
        let src = pa.contains(ep.rank()).then(|| Lib::build(ep, &pa, n, seed));
        let dst = pb.contains(ep.rank()).then(|| Lib::build(ep, &pb, n, seed));
        Coupled {
            pa,
            pb,
            un,
            src,
            dst,
            seed,
            n,
        }
    }

    /// Collective over the union: the Cooperation schedule of the whole
    /// vector, A → B.
    pub fn schedule(&self, ep: &mut Endpoint) -> Result<Schedule, McError> {
        let sset = MultiblockArray::<f64>::whole(self.n);
        let dset = HpfArray::<f64>::whole(self.n);
        compute_schedule(
            ep,
            &self.un,
            &self.pa,
            self.src.as_ref().map(|s| Side::new(s, &sset)),
            &self.pb,
            self.dst.as_ref().map(|d| Side::new(d, &dset)),
            BuildMethod::Cooperation,
        )
    }

    /// Fill the source with generation `gen`, poison the destination.
    pub fn refill(&mut self, gen: u64) {
        let seed = self.seed;
        if let Some(src) = &mut self.src {
            fill(src, |g| value(seed, 0, gen, g));
        }
        if let Some(dst) = &mut self.dst {
            fill(dst, |_| POISON);
        }
    }

    /// Oracle: owned destination elements that are not generation `gen`.
    pub fn mismatches(&mut self, gen: u64) -> usize {
        let seed = self.seed;
        self.dst
            .as_mut()
            .map_or(0, |dst| mismatches(dst, |g| value(seed, 0, gen, g)))
    }
}

/// Traced run only: direct calls into the `schedule` layer on the
/// workload's own schedule.  Collective over the schedule's group;
/// returns named measurements (totals over ranks, host microseconds on
/// the calling rank).
fn schedule_probe(ep: &mut Endpoint, traced: bool, sched: &Schedule) -> Vec<(String, f64)> {
    if !traced {
        return Vec::new();
    }
    const REPS: u32 = 5;
    let t = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(sched.reversed());
    }
    let reversed_us = t.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    let t = Instant::now();
    let issues = validate_schedule(ep, sched);
    let validate_us = t.elapsed().as_secs_f64() * 1e6;
    assert!(issues.is_empty(), "workload schedule invalid: {issues:?}");
    let mut comm = Comm::borrowed(ep, sched.group());
    let runs = comm.allreduce_sum(sched.num_runs() as u64);
    let remote = comm.allreduce_sum(sched.elems_out() as u64);
    let handled = sched.elems_out() + sched.elems_in() + sched.elems_local();
    let handled = comm.allreduce_sum(handled as u64);
    vec![
        ("schedule.runs_total".into(), runs as f64),
        ("schedule.elems_handled".into(), handled as f64),
        ("schedule.elems_remote".into(), remote as f64),
        ("schedule.reversed_us".into(), reversed_us),
        ("schedule.validate_us".into(), validate_us),
    ]
}
