//! `pairs-matrix`: one program of P = 4 holds a source and a destination
//! object in each of the four libraries; an iteration walks all 16
//! source→destination library pairs and, per pair, runs an uncached
//! `compute_schedule` with both methods, one `data_move`, and one
//! cache-hit `mc_compute_sched` + `mc_copy`.  Every adapter and the
//! `api` schedule cache take part, so a change that hurts one library
//! shows here even when the other workloads never touch it.

use mcsim::group::{Comm, Group};
use mcsim::prelude::Endpoint;
use meta_chaos::api::{mc_compute_sched, mc_copy};
use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::datamove::try_data_move;
use meta_chaos::region::{IndexSet, RegularSection};
use meta_chaos::schedule::Schedule;
use meta_chaos::setof::SetOfRegions;
use meta_chaos::{McError, Side};

use chaos::IrregArray;
use hpf::HpfArray;
use multiblock::MultiblockArray;
use tulip::DistributedCollection;

use crate::driver::{drive, Body, LoopCfg, RankOut};
use crate::libs::{fill, mismatches, value, Lib, POISON};
use crate::spans::Rec;
use crate::workloads::schedule_probe;

/// Library names in pair order; a pair's span is `pair.<src>-<dst>`.
pub const LIBS: [&str; 4] = [
    <MultiblockArray<f64> as Lib>::NAME,
    <HpfArray<f64> as Lib>::NAME,
    <DistributedCollection<f64> as Lib>::NAME,
    <IrregArray<f64> as Lib>::NAME,
];

/// The two whole-object region sets the four libraries use, built once.
struct Sets {
    sec: SetOfRegions<RegularSection>,
    idx: SetOfRegions<IndexSet>,
}

/// Picks a library's whole-object set out of [`Sets`].
trait PairLib: Lib {
    fn set(sets: &Sets) -> &SetOfRegions<Self::Region>;
}
impl PairLib for MultiblockArray<f64> {
    fn set(sets: &Sets) -> &SetOfRegions<RegularSection> {
        &sets.sec
    }
}
impl PairLib for HpfArray<f64> {
    fn set(sets: &Sets) -> &SetOfRegions<RegularSection> {
        &sets.sec
    }
}
impl PairLib for DistributedCollection<f64> {
    fn set(sets: &Sets) -> &SetOfRegions<IndexSet> {
        &sets.idx
    }
}
impl PairLib for IrregArray<f64> {
    fn set(sets: &Sets) -> &SetOfRegions<IndexSet> {
        &sets.idx
    }
}

/// A source and a destination object of one library.
struct Both<L> {
    src: L,
    dst: L,
}

impl<L: Lib> Both<L> {
    fn build(ep: &mut Endpoint, g: &Group, n: usize, seed: u64) -> Self {
        Both {
            src: L::build(ep, g, n, seed),
            dst: L::build(ep, g, n, seed),
        }
    }
}

struct Pairs {
    seed: u64,
    group: Group,
    sets: Sets,
    mb: Both<MultiblockArray<f64>>,
    hp: Both<HpfArray<f64>>,
    tu: Both<DistributedCollection<f64>>,
    ch: Both<IrregArray<f64>>,
    last_sched: Option<Schedule>,
}

/// Shared, read-only context of one pair's work.
struct Ctx<'a> {
    seed: u64,
    group: &'a Group,
    sets: &'a Sets,
    /// `Some(gen)` on a verified iteration: compare (and re-poison) the
    /// destination after each of the pair's two moves.
    verify: Option<u64>,
}

/// One pair's work; returns the pair's oracle mismatches (0 unless
/// `ctx.verify`) and the cooperation schedule.
fn pair<S: PairLib, D: PairLib>(
    ep: &mut Endpoint,
    rec: &mut Rec,
    ctx: &Ctx<'_>,
    span: &'static str,
    stream: u64,
    src: &S,
    dst: &mut D,
) -> Result<(usize, Schedule), McError> {
    let g = ctx.group;
    let (sset, dset) = (S::set(ctx.sets), D::set(ctx.sets));
    let mut bad = 0;
    let mut check = |dst: &mut D| {
        if let Some(gen) = ctx.verify {
            bad += mismatches(dst, |i| value(ctx.seed, stream, gen, i));
            fill(dst, |_| POISON);
        }
    };
    let id = rec.begin(ep, span);
    let coop = rec.scope(ep, "build.coop", |ep, _| {
        let (s, d) = (Side::new(src, sset), Side::new(&*dst, dset));
        compute_schedule(ep, g, g, Some(s), g, Some(d), BuildMethod::Cooperation)
    })?;
    let dup = rec.scope(ep, "build.dup", |ep, _| {
        let (s, d) = (Side::new(src, sset), Side::new(&*dst, dset));
        compute_schedule(ep, g, g, Some(s), g, Some(d), BuildMethod::Duplication)
    })?;
    if coop.sends != dup.sends || coop.recvs != dup.recvs || coop.local_pairs != dup.local_pairs {
        return Err(McError::ScheduleMismatch {
            peer: ep.rank(),
            detail: format!("{span}: cooperation and duplication builds disagree"),
        });
    }
    rec.scope(ep, "datamove.move", |ep, _| {
        try_data_move(ep, &coop, src, dst)
    })?;
    check(dst);
    let cached = rec.scope(ep, "api.cached_sched", |ep, _| {
        mc_compute_sched(ep, g, src, sset, &*dst, dset)
    })?;
    rec.scope(ep, "api.copy", |ep, _| mc_copy(ep, &cached, src, dst))?;
    check(dst);
    rec.scope(ep, "coll.sync", |ep, _| Comm::borrowed(ep, g).sync_clocks());
    rec.end(ep, id);
    Ok((bad, coop))
}

impl Pairs {
    fn walk(
        &mut self,
        ep: &mut Endpoint,
        rec: &mut Rec,
        verify: Option<u64>,
    ) -> Result<usize, McError> {
        let ctx = Ctx {
            seed: self.seed,
            group: &self.group,
            sets: &self.sets,
            verify,
        };
        let mut bad = 0;
        macro_rules! row {
            ($si:expr, $sname:literal, $s:ident) => {
                row!(@cell $si, $sname, $s, "multiblock", mb);
                row!(@cell $si, $sname, $s, "hpf", hp);
                row!(@cell $si, $sname, $s, "tulip", tu);
                row!(@cell $si, $sname, $s, "chaos", ch);
            };
            (@cell $si:expr, $sname:literal, $s:ident, $dname:literal, $d:ident) => {{
                let span = concat!("pair.", $sname, "-", $dname);
                // Source and destination objects are distinct fields even
                // on the diagonal, so the borrows never overlap.
                let src = &self.$s.src;
                let (b, sched) = pair(ep, rec, &ctx, span, $si, src, &mut self.$d.dst)?;
                bad += b;
                self.last_sched = Some(sched);
            }};
        }
        row!(0, "multiblock", mb);
        row!(1, "hpf", hp);
        row!(2, "tulip", tu);
        row!(3, "chaos", ch);
        Ok(bad)
    }
}

impl Body for Pairs {
    fn iterate(&mut self, ep: &mut Endpoint, rec: &mut Rec, _k: u64) -> Result<(), McError> {
        self.walk(ep, rec, None).map(|_| ())
    }

    fn refill(&mut self, _ep: &mut Endpoint, gen: u64) {
        let seed = self.seed;
        fill(&mut self.mb.src, |g| value(seed, 0, gen, g));
        fill(&mut self.hp.src, |g| value(seed, 1, gen, g));
        fill(&mut self.tu.src, |g| value(seed, 2, gen, g));
        fill(&mut self.ch.src, |g| value(seed, 3, gen, g));
        fill(&mut self.mb.dst, |_| POISON);
        fill(&mut self.hp.dst, |_| POISON);
        fill(&mut self.tu.dst, |_| POISON);
        fill(&mut self.ch.dst, |_| POISON);
    }

    /// Between verified iterations every destination holds what the last
    /// source row (Chaos, stream 3) copied into it.
    fn mismatches(&mut self, gen: u64) -> usize {
        let seed = self.seed;
        let expect = |g| value(seed, 3, gen, g);
        mismatches(&mut self.mb.dst, expect)
            + mismatches(&mut self.hp.dst, expect)
            + mismatches(&mut self.tu.dst, expect)
            + mismatches(&mut self.ch.dst, expect)
    }

    fn verified(
        &mut self,
        ep: &mut Endpoint,
        rec: &mut Rec,
        _k: u64,
        gen: u64,
    ) -> Result<usize, McError> {
        self.refill(ep, gen);
        let bad = self.walk(ep, rec, Some(gen))?;
        // The per-pair checks re-poisoned every destination; walk once
        // more so the timed section starts from (and the post-check
        // finds) real data.
        self.walk(ep, rec, None)?;
        Ok(bad)
    }
}

/// Per-rank body (`n` elements per object, one program of `procs`).
pub fn rank(
    ep: &mut Endpoint,
    seed: u64,
    n: usize,
    procs: usize,
    cfg: LoopCfg,
    mut rec: Rec,
) -> RankOut {
    let group = Group::new((0..procs).collect(), 32);
    let traced = rec.on();
    let setup = rec.begin(ep, "setup");
    let mut body = Pairs {
        seed,
        sets: Sets {
            sec: SetOfRegions::single(RegularSection::whole(&[n])),
            idx: SetOfRegions::single(IndexSet::new((0..n).collect())),
        },
        mb: Both::build(ep, &group, n, seed),
        hp: Both::build(ep, &group, n, seed),
        tu: Both::build(ep, &group, n, seed),
        ch: Both::build(ep, &group, n, seed),
        group: group.clone(),
        last_sched: None,
    };
    rec.end(ep, setup);
    let mut out = drive(ep, &group, cfg, rec, &mut body);
    let sched = body.last_sched.as_ref().expect("at least one iteration");
    out.extras = schedule_probe(ep, traced, sched);
    out
}
