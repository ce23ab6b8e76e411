//! `scale-p128`: programs of 64 + 64 ranks.  An iteration is a coupled
//! Cooperation build (Multiblock → HPF block over the whole vector), one
//! `put`/`get` settle over the fresh schedule, and an
//! `hpf::redistribute` block → CYCLIC(4) across all 128 ranks.  Some
//! 7·10⁴ simulated messages per iteration: the scheduler, the endpoint
//! mailboxes and the collectives do the work, library code almost none —
//! and every iteration waits for its slowest rank.

use mcsim::group::Comm;
use mcsim::prelude::Endpoint;
use meta_chaos::coupling::Coupler;
use meta_chaos::schedule::Schedule;
use meta_chaos::McError;

use hpf::{DistKind, HpfArray, HpfDist};

use crate::driver::{drive, Body, LoopCfg, RankOut};
use crate::libs::{fill, mismatches, value, Lib};
use crate::spans::Rec;
use crate::workloads::{schedule_probe, Coupled};

const PORT: &str = "boundary";

struct Scale {
    sides: Coupled,
    n: usize,
    /// Block vector over all ranks: the redistribution's source.
    wide: HpfArray<f64>,
    /// The last redistribution's result (the oracle reads it).
    cyclic: Option<HpfArray<f64>>,
    last_sched: Option<Schedule>,
}

impl Body for Scale {
    fn iterate(&mut self, ep: &mut Endpoint, rec: &mut Rec, _k: u64) -> Result<(), McError> {
        let un = self.sides.un.clone();
        let phase_end = |ep: &mut Endpoint, rec: &mut Rec| {
            rec.scope(ep, "coll.sync", |ep, _| {
                Comm::borrowed(ep, &un).sync_clocks()
            });
        };
        let sched = rec.scope(ep, "build.coop", |ep, _| self.sides.schedule(ep))?;
        phase_end(ep, rec);
        let mut coupler = Coupler::new();
        coupler.bind(PORT, sched);
        if let Some(src) = &self.sides.src {
            rec.scope(ep, "datamove.put", |ep, _| coupler.put(ep, PORT, src))?;
        }
        if let Some(dst) = &mut self.sides.dst {
            rec.scope(ep, "datamove.get", |ep, _| coupler.get(ep, PORT, dst))?;
        }
        phase_end(ep, rec);
        let cyclic = rec.scope(ep, "hpf.redistribute", |ep, _| {
            let to = HpfDist::new(vec![self.n], vec![DistKind::Cyclic(4)], vec![un.size()]);
            hpf::redistribute(ep, &un, &self.wide, to)
        });
        self.cyclic = Some(cyclic);
        self.last_sched = coupler.unbind(PORT);
        Ok(())
    }

    fn refill(&mut self, _ep: &mut Endpoint, gen: u64) {
        let seed = self.sides.seed;
        self.sides.refill(gen);
        fill(&mut self.wide, |g| value(seed, 1, gen, g));
        self.cyclic = None;
    }

    fn mismatches(&mut self, gen: u64) -> usize {
        let seed = self.sides.seed;
        let redistributed = match &mut self.cyclic {
            Some(c) => mismatches(c, |g| value(seed, 1, gen, g)),
            None => self.n,
        };
        self.sides.mismatches(gen) + redistributed
    }
}

/// Per-rank body (`n` elements, programs of `half` + `half` ranks).
pub fn rank(
    ep: &mut Endpoint,
    seed: u64,
    n: usize,
    half: usize,
    cfg: LoopCfg,
    mut rec: Rec,
) -> RankOut {
    let traced = rec.on();
    let setup = rec.begin(ep, "setup");
    let sides = Coupled::build(ep, half, half, n, seed);
    let un = sides.un.clone();
    let wide = HpfArray::build(ep, &un, n, seed);
    rec.end(ep, setup);
    let mut body = Scale {
        sides,
        n,
        wide,
        cyclic: None,
        last_sched: None,
    };
    let mut out = drive(ep, &un, cfg, rec, &mut body);
    let sched = body.last_sched.as_ref().expect("at least one iteration");
    out.extras = schedule_probe(ep, traced, sched);
    out
}
