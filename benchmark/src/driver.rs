//! The in-world iteration driver every workload runs under.
//!
//! One `World::run` hosts, in order: a verified first iteration, a fixed
//! warm-up, the timed section, a post-check and a verified last
//! iteration.  An *iteration* is bracketed by `sync_clocks` over the
//! workload's union group and timed with `Instant` on rank 0 — a closed
//! loop with one outstanding iteration.  The timed iteration count is
//! calibrated once from the warm-up (rank 0 decides, everyone learns it
//! by broadcast) so a run measures for the seconds it was given; the
//! virtual-clock metrics are taken over a fixed prefix of the timed
//! section so they do not depend on that count.

use std::time::Instant;

use mcsim::group::{Comm, Group};
use mcsim::prelude::Endpoint;
use mcsim::stats::StatsSnapshot;
use meta_chaos::McError;

use crate::spans::{Rec, SpanRec};

/// Fill generation the timed section moves (set by the verified first
/// iteration) and the one the verified last iteration moves.
const GEN_FIRST: u64 = 1;
const GEN_LAST: u64 = 2;

/// Iteration times kept per trial.  A percentile does not need every one
/// of `small-steps`' 10^5 samples, and a buffer that grows with the
/// iteration count would make `peak_rss_mb` measure the harness.
const KEEP: usize = 1 << 15;

/// A systematic sample of the timed iterations' host nanoseconds: every
/// iteration until [`KEEP`] are held, then every 2nd, 4th, … — always the
/// iterations whose index is a multiple of the current stride.
#[derive(Debug, Clone)]
pub struct Samples {
    stride: usize,
    seen: usize,
    ns: Vec<u64>,
}

impl Samples {
    fn new() -> Self {
        Samples {
            stride: 1,
            seen: 0,
            ns: Vec::new(),
        }
    }

    fn push(&mut self, ns: u64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.ns.len() == KEEP {
                let mut i = 0;
                self.ns.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.ns.push(ns);
            }
        }
        self.seen += 1;
    }

    /// The sampled iteration times.
    pub fn ns(&self) -> &[u64] {
        &self.ns
    }
}

/// How one trial's loop is sized.
#[derive(Debug, Clone, Copy)]
pub struct LoopCfg {
    /// Host seconds the timed section should take.
    pub budget_s: f64,
    /// Untimed iterations before the timed section (>= 2; the first one
    /// is the verified first iteration, the rest calibrate the count).
    pub warmup: usize,
    /// Timed iterations whose virtual time and message counts are
    /// reported; the timed section never runs fewer.
    pub prefix: usize,
    /// Upper bound on timed iterations (the traced run keeps timelines
    /// in memory, so it caps them).
    pub max_iters: usize,
}

/// One workload's per-rank state, driven by [`drive`].
pub trait Body {
    /// One iteration: the calls into the layers, each inside a
    /// [`Rec::scope`].  `k` is the iteration id.
    fn iterate(&mut self, ep: &mut Endpoint, rec: &mut Rec, k: u64) -> Result<(), McError>;

    /// Refill every source with fill generation `gen` and poison every
    /// destination, so the next iteration's outcome is checkable.
    fn refill(&mut self, ep: &mut Endpoint, gen: u64);

    /// Oracle: owned destination elements that differ bit-wise from the
    /// serial linearization model for generation `gen`.
    fn mismatches(&mut self, gen: u64) -> usize;

    /// A verified iteration (outside the timed span): refill, iterate,
    /// compare.  Workloads that overwrite one destination several times
    /// per iteration override this to compare in between.
    fn verified(
        &mut self,
        ep: &mut Endpoint,
        rec: &mut Rec,
        k: u64,
        gen: u64,
    ) -> Result<usize, McError> {
        self.refill(ep, gen);
        self.iterate(ep, rec, k)?;
        Ok(self.mismatches(gen))
    }
}

/// What one rank measured.
#[derive(Debug, Clone)]
pub struct RankOut {
    /// Host nanoseconds of the timed iterations (rank 0 only).
    pub iter_ns: Samples,
    /// Host nanoseconds from the trial epoch to the first timed
    /// iteration (rank 0 only).
    pub setup_ns: u64,
    /// Host nanoseconds of the whole timed section (rank 0 only).
    pub timed_ns: u64,
    /// Virtual seconds of each prefix iteration (identical on all ranks).
    pub virt: Vec<f64>,
    /// Messages this rank sent in each prefix iteration.
    pub msgs: Vec<u64>,
    /// Iteration id of the first timed iteration.
    pub first_iter: u64,
    /// Timed iterations run.
    pub iters: u64,
    /// Iterations (timed or verified) that returned a typed error here.
    pub failed: u64,
    /// Oracle mismatches on this rank.
    pub mismatches: u64,
    /// This rank's counters over the timed section.
    pub timed_stats: StatsSnapshot,
    /// Benchmark-side spans (traced run only).
    pub spans: Vec<SpanRec>,
    /// Workload-specific named measurements (rank 0 reports them).
    pub extras: Vec<(String, f64)>,
}

fn sync(ep: &mut Endpoint, g: &Group) -> f64 {
    Comm::borrowed(ep, g).sync_clocks()
}

/// Run the standard trial loop for `body` over `union`.
pub fn drive(
    ep: &mut Endpoint,
    union: &Group,
    cfg: LoopCfg,
    mut rec: Rec,
    body: &mut dyn Body,
) -> RankOut {
    assert!(cfg.warmup >= 2 && cfg.prefix >= 1);
    let root = union.global(0) == ep.rank();
    let mut failed = 0u64;
    let mut mism = 0u64;
    let mut k = 0u64;
    let check = |r: Result<usize, McError>, failed: &mut u64, mism: &mut u64| match r {
        Ok(bad) => *mism += bad as u64,
        Err(e) => {
            eprintln!("benchmark: verified iteration failed: {e}");
            *failed += 1;
        }
    };

    // Verified first iteration, then the calibrating warm-up.
    sync(ep, union);
    rec.iter = k;
    let first = body.verified(ep, &mut rec, k, GEN_FIRST);
    check(first, &mut failed, &mut mism);
    k += 1;
    sync(ep, union);
    let w0 = Instant::now();
    for _ in 1..cfg.warmup {
        rec.iter = k;
        if body.iterate(ep, &mut rec, k).is_err() {
            failed += 1;
        }
        sync(ep, union);
        k += 1;
    }
    let per_iter = w0.elapsed().as_secs_f64() / (cfg.warmup - 1) as f64;

    // Timed section, in batches: the warm-up runs cold and overestimates
    // the iteration cost, so the first batch is sized from it and every
    // further one from the rate measured so far, until the budget is
    // used.  Rank 0 sizes a batch; everyone learns it by broadcast,
    // between iterations and outside their timing.
    let mut iter_ns = Samples::new();
    let mut virt = Vec::with_capacity(cfg.prefix);
    let mut msgs = Vec::with_capacity(cfg.prefix);
    let stats0 = ep.stats_snapshot();
    let setup_ns = rec.now_ns();
    let first_iter = k;
    let mut spent = 0.0;
    let mut n = 0usize;
    let mut batch = ((cfg.budget_s / per_iter.max(1e-9)) as usize).clamp(cfg.prefix, cfg.max_iters);
    loop {
        batch = Comm::borrowed(ep, union).bcast_t(0, root.then_some(batch as u64)) as usize;
        if batch == 0 {
            break;
        }
        let mut t_prev = sync(ep, union);
        let mut m_prev = ep.stats_snapshot().total_msgs();
        let mut h_prev = Instant::now();
        for _ in 0..batch {
            rec.iter = k;
            let span = rec.begin(ep, "iter");
            if body.iterate(ep, &mut rec, k).is_err() {
                failed += 1;
            }
            let t = rec.scope(ep, "coll.sync", |ep, _| sync(ep, union));
            rec.end(ep, span);
            if root {
                let h = Instant::now();
                iter_ns.push((h - h_prev).as_nanos() as u64);
                spent += (h - h_prev).as_secs_f64();
                h_prev = h;
            }
            if n < cfg.prefix {
                let m = ep.stats_snapshot().total_msgs();
                virt.push(t - t_prev);
                msgs.push(m - m_prev);
                m_prev = m;
            }
            t_prev = t;
            n += 1;
            k += 1;
        }
        let left = cfg.budget_s - spent;
        batch = if left > 0.05 * cfg.budget_s {
            ((left * n as f64 / spent.max(1e-9)) as usize).min(cfg.max_iters - n)
        } else {
            0
        };
    }
    let timed_ns = (spent * 1e9) as u64;
    let timed_stats = ep.stats_snapshot().since(&stats0);

    // Whatever the timed section left behind must still be generation
    // GEN_FIRST; then one more verified iteration on fresh data.
    mism += body.mismatches(GEN_FIRST) as u64;
    rec.iter = k;
    let last = body.verified(ep, &mut rec, k, GEN_LAST);
    check(last, &mut failed, &mut mism);
    sync(ep, union);

    RankOut {
        iter_ns,
        setup_ns,
        timed_ns,
        virt,
        msgs,
        first_iter,
        iters: n as u64,
        failed,
        mismatches: mism,
        timed_stats,
        spans: rec.into_spans(),
        extras: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_decimate_systematically() {
        let mut s = Samples::new();
        for i in 0..(3 * KEEP as u64) {
            s.push(i);
        }
        // Past 2·KEEP pushes the stride is 4: exactly the multiples of 4.
        assert!(s.ns().len() <= KEEP);
        assert!(s.ns().iter().enumerate().all(|(k, &v)| v == 4 * k as u64));
        assert_eq!(s.ns().len(), (3 * KEEP).div_ceil(4));
    }
}
