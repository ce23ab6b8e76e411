//! `bulk-regular` and `lossy-link`: programs A = ranks {0,1} holding a
//! Multiblock vector and B = ranks {2,3} holding an HPF block vector,
//! coupled over the whole index space through one `Coupler` port whose
//! schedule is built in set-up.  An iteration is one verified
//! `put`/`get`.  `lossy-link` is the same shape at a quarter of the size
//! under a seeded `FaultPlan` on the reliable tag classes.

use mcsim::prelude::Endpoint;
use meta_chaos::coupling::Coupler;
use meta_chaos::McError;

use crate::driver::{drive, Body, LoopCfg, RankOut};
use crate::spans::Rec;
use crate::workloads::{schedule_probe, Coupled};

const PORT: &str = "field";

struct Bulk {
    sides: Coupled,
    coupler: Coupler,
}

impl Body for Bulk {
    fn iterate(&mut self, ep: &mut Endpoint, rec: &mut Rec, _k: u64) -> Result<(), McError> {
        let c = &self.coupler;
        if let Some(src) = &self.sides.src {
            rec.scope(ep, "datamove.put", |ep, _| c.put(ep, PORT, src))?;
        }
        if let Some(dst) = &mut self.sides.dst {
            rec.scope(ep, "datamove.get", |ep, _| c.get(ep, PORT, dst))?;
        }
        Ok(())
    }

    fn refill(&mut self, _ep: &mut Endpoint, gen: u64) {
        self.sides.refill(gen);
    }

    fn mismatches(&mut self, gen: u64) -> usize {
        self.sides.mismatches(gen)
    }
}

/// Per-rank body of both workloads (`n` elements, world of 4).
pub fn rank(ep: &mut Endpoint, seed: u64, n: usize, cfg: LoopCfg, mut rec: Rec) -> RankOut {
    let traced = rec.on();
    let setup = rec.begin(ep, "setup");
    let sides = Coupled::build(ep, 2, 2, n, seed);
    let sched = sides.schedule(ep).expect("coupling schedule");
    rec.end(ep, setup);
    let un = sides.un.clone();
    let mut coupler = Coupler::new();
    coupler.bind(PORT, sched);
    let mut body = Bulk { sides, coupler };
    let mut out = drive(ep, &un, cfg, rec, &mut body);
    let sched = body.coupler.port(PORT).expect("bound above");
    out.extras = schedule_probe(ep, traced, sched);
    out
}
