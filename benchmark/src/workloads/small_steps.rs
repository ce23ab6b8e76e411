//! `small-steps`: the coupled shape of `bulk-regular` at 4 096 elements
//! in a supervised world with heartbeats.  An iteration is one
//! `Coupler::put`/`get` **plus** one `RecoverySession::send_step` /
//! `recv_step` — both front doors into the transfer machinery, at a size
//! where the per-transfer fixed cost (manifest round, acks, checkpoint,
//! context switches) is all there is.  The session owns its schedule's
//! stream epochs, so each front door gets its own schedule (and its own
//! destination).

use mcsim::prelude::Endpoint;
use meta_chaos::coupling::Coupler;
use meta_chaos::schedule::Schedule;
use meta_chaos::{McError, RecoverySession};

use hpf::HpfArray;

use crate::driver::{drive, Body, LoopCfg, RankOut};
use crate::libs::{fill, mismatches, value, POISON};
use crate::spans::Rec;
use crate::workloads::{schedule_probe, Coupled};

const PORT: &str = "field";

struct Steps {
    sides: Coupled,
    coupler: Coupler,
    session: RecoverySession,
    step_sched: Schedule,
    /// Destination of the session steps (`sides.dst` is the port's).
    step_dst: Option<HpfArray<f64>>,
}

impl Body for Steps {
    fn iterate(&mut self, ep: &mut Endpoint, rec: &mut Rec, k: u64) -> Result<(), McError> {
        let Steps {
            sides,
            coupler,
            session,
            step_sched,
            step_dst,
        } = self;
        if let Some(src) = &sides.src {
            rec.scope(ep, "datamove.put", |ep, _| coupler.put(ep, PORT, src))?;
            rec.scope(ep, "session.send_step", |ep, _| {
                session.send_step(ep, step_sched, src, k)
            })?;
        }
        if let (Some(dst), Some(step_dst)) = (&mut sides.dst, step_dst) {
            rec.scope(ep, "datamove.get", |ep, _| coupler.get(ep, PORT, dst))?;
            rec.scope(ep, "session.recv_step", |ep, _| {
                session.recv_step(ep, step_sched, step_dst, k)
            })?;
        }
        Ok(())
    }

    fn refill(&mut self, _ep: &mut Endpoint, gen: u64) {
        self.sides.refill(gen);
        if let Some(dst) = &mut self.step_dst {
            fill(dst, |_| POISON);
        }
    }

    fn mismatches(&mut self, gen: u64) -> usize {
        let seed = self.sides.seed;
        let steps = self
            .step_dst
            .as_mut()
            .map_or(0, |dst| mismatches(dst, |g| value(seed, 0, gen, g)));
        self.sides.mismatches(gen) + steps
    }
}

/// Per-rank body (`n` elements, world of 4).
pub fn rank(ep: &mut Endpoint, seed: u64, n: usize, cfg: LoopCfg, mut rec: Rec) -> RankOut {
    let traced = rec.on();
    let setup = rec.begin(ep, "setup");
    let sides = Coupled::build(ep, 2, 2, n, seed);
    let port_sched = sides.schedule(ep).expect("coupling schedule");
    let step_sched = sides.schedule(ep).expect("session schedule");
    rec.end(ep, setup);
    let un = sides.un.clone();
    let mut coupler = Coupler::new();
    coupler.bind(PORT, port_sched);
    let mut body = Steps {
        step_dst: sides.dst.clone(),
        sides,
        coupler,
        session: RecoverySession::new("steps"),
        step_sched,
    };
    let mut out = drive(ep, &un, cfg, rec, &mut body);
    let steps = cfg.warmup as u64 + out.iters + 1;
    if body.session.finish(ep, &body.step_sched, steps).is_err() {
        out.failed += 1;
    }
    let sched = body.coupler.port(PORT).expect("bound above");
    out.extras = schedule_probe(ep, traced, sched);
    out
}
