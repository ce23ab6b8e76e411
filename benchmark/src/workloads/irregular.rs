//! `irregular-remap`: the paper's Table 2 case.  One program of P = 8
//! holds a `side × side` Multiblock mesh and a `side²`-point Chaos array
//! (`Partition::Random`); every iteration takes the next seeded
//! `Reg2Irreg` permutation, builds the remap schedule with Cooperation
//! and again with Duplication (asserted identical), moves the mesh onto
//! the irregular array and moves it back over the reversed schedule.
//! Inspector work, the Chaos translation table and length-1 runs
//! dominate.

use mcsim::group::{Comm, Group};
use mcsim::prelude::Endpoint;
use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::datamove::try_data_move;
use meta_chaos::region::{IndexSet, RegularSection};
use meta_chaos::schedule::Schedule;
use meta_chaos::setof::SetOfRegions;
use meta_chaos::{McError, Side};

use bench::meshes::mesh_mapping;
use chaos::{IrregArray, Partition};
use multiblock::MultiblockArray;

use crate::driver::{drive, Body, LoopCfg, RankOut};
use crate::libs::{fill, mesh_for_owned, mismatches, mix, value, POISON};
use crate::spans::Rec;
use crate::workloads::schedule_probe;

/// Permutations generated in set-up and cycled through: consecutive
/// iterations never share one, so nothing can be reused across them.
const PERMS: usize = 4;

struct Remap {
    seed: u64,
    group: Group,
    mesh: MultiblockArray<f64>,
    points: IrregArray<f64>,
    mesh_set: SetOfRegions<RegularSection>,
    /// `point_sets[i]` is the destination set of permutation `i`;
    /// `inverse[i][p]` the mesh position that lands on point `p`.
    point_sets: Vec<SetOfRegions<IndexSet>>,
    inverse: Vec<Vec<usize>>,
    last_perm: usize,
    last_sched: Option<Schedule>,
}

impl Remap {
    fn build(
        &self,
        ep: &mut Endpoint,
        which: usize,
        method: BuildMethod,
    ) -> Result<Schedule, McError> {
        compute_schedule(
            ep,
            &self.group,
            &self.group,
            Some(Side::new(&self.mesh, &self.mesh_set)),
            &self.group,
            Some(Side::new(&self.points, &self.point_sets[which])),
            method,
        )
    }
}

impl Body for Remap {
    fn iterate(&mut self, ep: &mut Endpoint, rec: &mut Rec, k: u64) -> Result<(), McError> {
        let which = k as usize % PERMS;
        self.last_perm = which;
        let g = self.group.clone();
        let phase_end = |ep: &mut Endpoint, rec: &mut Rec| {
            rec.scope(ep, "coll.sync", |ep, _| {
                Comm::borrowed(ep, &g).sync_clocks()
            });
        };
        let coop = rec.scope(ep, "build.coop", |ep, _| {
            self.build(ep, which, BuildMethod::Cooperation)
        })?;
        phase_end(ep, rec);
        let dup = rec.scope(ep, "build.dup", |ep, _| {
            self.build(ep, which, BuildMethod::Duplication)
        })?;
        phase_end(ep, rec);
        if coop.sends != dup.sends || coop.recvs != dup.recvs || coop.local_pairs != dup.local_pairs
        {
            return Err(McError::ScheduleMismatch {
                peer: ep.rank(),
                detail: "cooperation and duplication builds disagree".into(),
            });
        }
        rec.scope(ep, "datamove.move", |ep, _| {
            try_data_move(ep, &coop, &self.mesh, &mut self.points)
        })?;
        phase_end(ep, rec);
        let back = rec.scope(ep, "schedule.reversed", |_, _| coop.reversed());
        rec.scope(ep, "datamove.move_back", |ep, _| {
            try_data_move(ep, &back, &self.points, &mut self.mesh)
        })?;
        self.last_sched = Some(coop);
        Ok(())
    }

    fn refill(&mut self, _ep: &mut Endpoint, gen: u64) {
        let seed = self.seed;
        mesh_for_owned(&mut self.mesh, &mut |g, v| *v = value(seed, 0, gen, g));
        fill(&mut self.points, |_| POISON);
    }

    fn mismatches(&mut self, gen: u64) -> usize {
        let seed = self.seed;
        let inv = &self.inverse[self.last_perm];
        let mut bad = mismatches(&mut self.points, |p| value(seed, 0, gen, inv[p]));
        mesh_for_owned(&mut self.mesh, &mut |g, v| {
            bad += usize::from(v.to_bits() != value(seed, 0, gen, g).to_bits());
        });
        bad
    }
}

/// Per-rank body (`side × side` mesh, one program of `procs`).
pub fn rank(
    ep: &mut Endpoint,
    seed: u64,
    side: usize,
    procs: usize,
    cfg: LoopCfg,
    mut rec: Rec,
) -> RankOut {
    let nodes = side * side;
    let group = Group::new((0..procs).collect(), 32);
    let traced = rec.on();
    let setup = rec.begin(ep, "setup");
    let mesh = MultiblockArray::<f64>::new(&group, ep.rank(), &[side, side]);
    let points = {
        let mut comm = Comm::borrowed(ep, &group);
        let part = Partition::Random(mix(seed ^ 0xc4a0));
        IrregArray::create(&mut comm, nodes, part, |_| 0.0)
    };
    let mut point_sets = Vec::with_capacity(PERMS);
    let mut inverse = Vec::with_capacity(PERMS);
    for i in 0..PERMS {
        let perm = mesh_mapping(nodes, mix(seed ^ 0x9e31) ^ i as u64);
        let mut inv = vec![0usize; nodes];
        for (k, &p) in perm.iter().enumerate() {
            inv[p] = k;
        }
        inverse.push(inv);
        point_sets.push(SetOfRegions::single(IndexSet::new(perm)));
    }
    rec.end(ep, setup);
    let mut body = Remap {
        seed,
        group: group.clone(),
        mesh,
        points,
        mesh_set: SetOfRegions::single(RegularSection::whole(&[side, side])),
        point_sets,
        inverse,
        last_perm: 0,
        last_sched: None,
    };
    let mut out = drive(ep, &group, cfg, rec, &mut body);
    let sched = body.last_sched.as_ref().expect("at least one iteration");
    out.extras = schedule_probe(ep, traced, sched);
    out
}
