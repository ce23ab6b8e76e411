//! Scenario execution: run a [`Scenario`] through the real
//! inspector/executor/session stack inside an `mcsim::World` and report
//! everything the oracles need — per-rank schedules with the descriptors
//! they were built against, per-step typed outcomes, and the destination's
//! final memory as `(global, bits)`.
//!
//! The same scenario can be run fault-free (where the serial schedule
//! oracle checks every build) and faulted (the chaos soak).  Every world
//! is armed with the scenario's virtual-clock deadline, so a hang surfaces
//! as a typed `DeadlineExceeded` instead of wedging the harness.

use mcsim::group::{Comm, Group};
use mcsim::prelude::Endpoint;
use mcsim::rng::Rng;
use mcsim::span::Phase;
use mcsim::wire::Wire;
use mcsim::{pair_spans, FaultPlan, FaultRates, MachineModel, World};
use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::datamove::{data_move_recv, data_move_send, try_data_move};
use meta_chaos::region::{for_each_in_box, DimSlice, IndexSet, RegularSection};
use meta_chaos::schedule::Schedule;
use meta_chaos::setof::SetOfRegions;
use meta_chaos::{McError, McObject, RecoverySession, Side};

use chaos::{remap, IrregArray, Partition};
use hpf::{redistribute, HpfArray, HpfDist};
use multiblock::{regrid, BlockDist, MultiblockArray};
use tulip::DistributedCollection;

use crate::oracle::{serial_schedule, Motion};
use crate::scenario::{LibKind, LibSpec, RegionsSpec, Scenario, Step};

/// Source fill value for global flat index `g` — shared with the serial
/// oracle so expected memory is pure arithmetic.
pub fn src_val(g: usize) -> f64 {
    g as f64 * 2.0 + 0.5
}

/// Destination initial value for global flat index `g`.
pub fn dst_init(g: usize) -> f64 {
    -(g as f64) - 0.25
}

/// Row-major flattening of `coords` over `shape`.
pub fn flatten(coords: &[usize], shape: &[usize]) -> usize {
    coords.iter().zip(shape).fold(0, |acc, (&c, &n)| {
        debug_assert!(c < n);
        acc * n + c
    })
}

fn unflatten(mut flat: usize, shape: &[usize]) -> Vec<usize> {
    let mut out = vec![0; shape.len()];
    for d in (0..shape.len()).rev() {
        out[d] = flat % shape[d];
        flat /= shape[d];
    }
    out
}

fn sections_set(spec: &RegionsSpec) -> SetOfRegions<RegularSection> {
    let RegionsSpec::Sections(regions) = spec else {
        panic!("section-library side given index regions");
    };
    SetOfRegions::from_regions(
        regions
            .iter()
            .map(|dims| {
                RegularSection::new(
                    dims.iter()
                        .map(|&(lo, hi, s)| DimSlice::strided(lo, hi, s))
                        .collect(),
                )
            })
            .collect(),
    )
}

fn indices_set(spec: &RegionsSpec) -> SetOfRegions<IndexSet> {
    let RegionsSpec::Indices(regions) = spec else {
        panic!("index-library side given section regions");
    };
    SetOfRegions::from_regions(regions.iter().map(|l| IndexSet::new(l.clone())).collect())
}

/// The adapter surface the harness drives generically per library.
/// `Clone + Send` is what [`RecoverySession::checkpoint_object`] needs
/// for the supervised recovery mode.
pub trait FuzzLib: McObject<f64> + Clone + Send + Sized + 'static {
    const KIND: LibKind;
    /// Whether a mid-stream distribution change exists for this library.
    const CAN_BUMP: bool;

    /// Collective over `prog`: build the object with its random (but
    /// valid) distribution regenerated from `spec.dist_seed`, filled with
    /// `fill(global flat index)`.
    fn build(
        ep: &mut Endpoint,
        prog: &Group,
        me: usize,
        spec: &LibSpec,
        fill: fn(usize) -> f64,
    ) -> Self;

    fn regions(set: &RegionsSpec) -> SetOfRegions<Self::Region>;

    /// Collective over `prog`: redistribute to a new random distribution
    /// from `dist_seed` (epoch bumps by one).  Only called when
    /// [`FuzzLib::CAN_BUMP`].
    fn bump(
        ep: &mut Endpoint,
        prog: &Group,
        me: usize,
        cur: &Self,
        spec: &LibSpec,
        dist_seed: u64,
    ) -> Self;

    /// This rank's owned elements as `(global flat index, value bits)`.
    fn owned_mem(cur: &Self, shape: &[usize]) -> Vec<(usize, u64)>;
}

impl FuzzLib for MultiblockArray<f64> {
    const KIND: LibKind = LibKind::Multiblock;
    const CAN_BUMP: bool = true;

    fn build(
        _ep: &mut Endpoint,
        prog: &Group,
        me: usize,
        spec: &LibSpec,
        fill: fn(usize) -> f64,
    ) -> Self {
        let dist = BlockDist::random(
            &mut Rng::seed_from_u64(spec.dist_seed),
            spec.shape.clone(),
            prog.size(),
        );
        let mut a = MultiblockArray::from_dist(prog, me, dist);
        let shape = spec.shape.clone();
        a.fill_with(|c| fill(flatten(c, &shape)));
        a
    }

    fn regions(set: &RegionsSpec) -> SetOfRegions<RegularSection> {
        sections_set(set)
    }

    fn bump(
        ep: &mut Endpoint,
        prog: &Group,
        _me: usize,
        cur: &Self,
        spec: &LibSpec,
        dist_seed: u64,
    ) -> Self {
        let dist = BlockDist::random(
            &mut Rng::seed_from_u64(dist_seed),
            spec.shape.clone(),
            prog.size(),
        );
        regrid(ep, prog, cur, dist)
    }

    fn owned_mem(cur: &Self, shape: &[usize]) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        for_each_in_box(&cur.my_box(), |coords| {
            out.push((flatten(coords, shape), cur.get(coords).to_bits()));
        });
        out
    }
}

impl FuzzLib for HpfArray<f64> {
    const KIND: LibKind = LibKind::Hpf;
    const CAN_BUMP: bool = true;

    fn build(
        _ep: &mut Endpoint,
        prog: &Group,
        me: usize,
        spec: &LibSpec,
        fill: fn(usize) -> f64,
    ) -> Self {
        let dist = HpfDist::random(
            &mut Rng::seed_from_u64(spec.dist_seed),
            spec.shape.clone(),
            prog.size(),
        );
        let mut h = HpfArray::new(prog, me, dist);
        let shape = spec.shape.clone();
        h.for_each_owned(|c, v| *v = fill(flatten(c, &shape)));
        h
    }

    fn regions(set: &RegionsSpec) -> SetOfRegions<RegularSection> {
        sections_set(set)
    }

    fn bump(
        ep: &mut Endpoint,
        prog: &Group,
        _me: usize,
        cur: &Self,
        spec: &LibSpec,
        dist_seed: u64,
    ) -> Self {
        let dist = HpfDist::random(
            &mut Rng::seed_from_u64(dist_seed),
            spec.shape.clone(),
            prog.size(),
        );
        redistribute(ep, prog, cur, dist)
    }

    fn owned_mem(cur: &Self, shape: &[usize]) -> Vec<(usize, u64)> {
        let total: usize = shape.iter().product();
        (0..total)
            .filter_map(|g| {
                let coords = unflatten(g, shape);
                cur.owns(&coords).then(|| (g, cur.get(&coords).to_bits()))
            })
            .collect()
    }
}

impl FuzzLib for DistributedCollection<f64> {
    const KIND: LibKind = LibKind::Tulip;
    const CAN_BUMP: bool = false;

    fn build(
        _ep: &mut Endpoint,
        prog: &Group,
        me: usize,
        spec: &LibSpec,
        fill: fn(usize) -> f64,
    ) -> Self {
        DistributedCollection::new_filled(prog, me, spec.shape[0], fill)
    }

    fn regions(set: &RegionsSpec) -> SetOfRegions<IndexSet> {
        indices_set(set)
    }

    fn bump(
        _ep: &mut Endpoint,
        _prog: &Group,
        _me: usize,
        _cur: &Self,
        _spec: &LibSpec,
        _dist_seed: u64,
    ) -> Self {
        unreachable!("tulip collections do not redistribute");
    }

    fn owned_mem(cur: &Self, _shape: &[usize]) -> Vec<(usize, u64)> {
        let p = cur.num_procs();
        let me = cur.my_local();
        cur.local()
            .iter()
            .enumerate()
            .map(|(l, v)| (l * p + me, v.to_bits()))
            .collect()
    }
}

impl FuzzLib for IrregArray<f64> {
    const KIND: LibKind = LibKind::Chaos;
    const CAN_BUMP: bool = true;

    fn build(
        ep: &mut Endpoint,
        prog: &Group,
        _me: usize,
        spec: &LibSpec,
        fill: fn(usize) -> f64,
    ) -> Self {
        let part = Partition::random_choice(&mut Rng::seed_from_u64(spec.dist_seed));
        let mut comm = Comm::new(ep, prog.clone());
        IrregArray::create(&mut comm, spec.shape[0], part, fill)
    }

    fn regions(set: &RegionsSpec) -> SetOfRegions<IndexSet> {
        indices_set(set)
    }

    fn bump(
        ep: &mut Endpoint,
        prog: &Group,
        me: usize,
        cur: &Self,
        spec: &LibSpec,
        dist_seed: u64,
    ) -> Self {
        let part = Partition::random_choice(&mut Rng::seed_from_u64(dist_seed));
        let me_local = prog.local_of(me).expect("member rank");
        let globals = part.indices_of(spec.shape[0], prog.size(), me_local);
        let mut comm = Comm::new(ep, prog.clone());
        remap(&mut comm, cur, globals)
    }

    fn owned_mem(cur: &Self, _shape: &[usize]) -> Vec<(usize, u64)> {
        cur.my_globals()
            .iter()
            .zip(cur.local())
            .map(|(&g, v)| (g, v.to_bits()))
            .collect()
    }
}

/// One rank's full observation of a scenario run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RankReport {
    /// `Some(error)` when the initial schedule build failed (everything
    /// after is skipped).
    pub build_err: Option<String>,
    /// One entry per schedule built (initial + one per effective bump).
    pub scheds: Vec<Motion>,
    /// For oracle-checked runs, on the ranks of the source program and
    /// parallel to `scheds`: the wire bytes of the source descriptor each
    /// schedule was built against.
    pub src_descs: Vec<Vec<u8>>,
    /// The same for the destination program's ranks and descriptor.
    pub dst_descs: Vec<Vec<u8>>,
    /// `(step index, result)` for every executed step.
    pub outcomes: Vec<(usize, Result<(), String>)>,
    /// For each effective bump in a same-program run: the error the *old*
    /// schedule produced (`None` means it was wrongly accepted).
    pub stale_probes: Vec<Option<String>>,
    /// Destination-side owned memory after all steps.  Empty on pure
    /// source ranks.
    pub mem: Vec<(usize, u64)>,
}

/// A whole world's observations: per-rank reports (`Err` = the rank
/// panicked; the string carries the reason) plus per-rank trace tails for
/// post-mortems.
#[derive(Debug, Clone)]
pub struct WorldRun {
    pub reports: Vec<Result<RankReport, String>>,
    pub trace_tails: Vec<Vec<String>>,
    /// Total supervisor recoveries across the run (`ranks_recovered`).
    pub recovered: u64,
    /// Per rank, the `[begin, end]` virtual-time window of its transfer
    /// activity (Manifest/Pack/Wire/Stage/Commit spans) — `None` for
    /// ranks that recorded none.  Recovery crash fractions resolve
    /// against these windows.
    pub windows: Vec<Option<(f64, f64)>>,
    /// One-paragraph critical-path summary of the run's coupled
    /// transfers ([`mod@mcsim::analyze`]) — `None` when the trace recorded
    /// no transfer spans.  Oracles embed it in failure post-mortems so
    /// a shrunk repro arrives with its own bottleneck analysis.
    pub critical_path: Option<String>,
    /// `oracle[k][rank]`: what the serial schedule oracle expects of the
    /// `k`-th schedule every rank built (empty for faulted runs, which
    /// collect no descriptors).
    pub oracle: Vec<Vec<Motion>>,
}

/// Which execution mode a dispatch runs the scenario under.
#[derive(Clone, Copy)]
enum Mode<'a> {
    /// The classic paths, faults attached or not.
    Plain { faults_on: bool },
    /// Supervised recovery: `RecoverySession` steps under crash scripts
    /// with absolute times already resolved.
    Recovery { crash_times: &'a [(usize, f64)] },
}

fn world_run<S: FuzzLib, D: FuzzLib>(sc: &Scenario, rep: mcsim::RunReport<RankReport>) -> WorldRun {
    let windows = rep
        .traces
        .iter()
        .map(|t| {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for s in pair_spans(t) {
                if matches!(
                    s.phase,
                    Phase::Manifest | Phase::Pack | Phase::Wire | Phase::Stage | Phase::Commit
                ) {
                    lo = lo.min(s.begin);
                    hi = hi.max(s.end);
                }
            }
            (lo < hi).then_some((lo, hi))
        })
        .collect();
    let cp = mcsim::analyze::analyze(&rep.traces);
    let critical_path = (!cp.transfers.is_empty()).then(|| cp.render());
    let reports: Vec<Result<RankReport, String>> = rep
        .outcomes
        .into_iter()
        .map(|r| r.map_err(|e| format!("{e:?}")))
        .collect();
    WorldRun {
        windows,
        critical_path,
        recovered: rep.stats.recovery.ranks_recovered,
        oracle: serial_oracle::<S, D>(sc, &reports),
        reports,
        trace_tails: rep
            .traces
            .iter()
            .map(|t| {
                let skip = t.len().saturating_sub(16);
                t[skip..].iter().map(|e| format!("{e:?}")).collect()
            })
            .collect(),
    }
}

/// The scenario's `(source program, destination program, union)`.
fn groups(sc: &Scenario) -> (Group, Group, Group) {
    if sc.coupled {
        Group::split_two(sc.procs_src, sc.procs_dst, 32)
    } else {
        let g = Group::world(sc.procs_src);
        (g.clone(), g.clone(), g)
    }
}

/// Run the serial schedule oracle over every build some rank reported
/// descriptors for (the first holder of each side speaks for its program).
fn serial_oracle<S: FuzzLib, D: FuzzLib>(
    sc: &Scenario,
    reports: &[Result<RankReport, String>],
) -> Vec<Vec<Motion>> {
    let (_, _, un) = groups(sc);
    let (sset, dset) = (S::regions(&sc.src_set), D::regions(&sc.dst_set));
    let ok = || reports.iter().filter_map(|r| r.as_ref().ok());
    (0..)
        .map_while(|k| {
            let sdesc = ok().find_map(|r| r.src_descs.get(k))?;
            let ddesc = ok().find_map(|r| r.dst_descs.get(k))?;
            Some(serial_schedule::<S::Descriptor, D::Descriptor>(
                &un,
                (sdesc, &sset),
                (ddesc, &dset),
            ))
        })
        .collect()
}

/// Build the scenario's schedule; on success record it in `report`,
/// together with both descriptors when the run is `oracle`-checked.
#[allow(clippy::too_many_arguments)]
fn build_recorded<S: FuzzLib, D: FuzzLib>(
    ep: &mut Endpoint,
    sc: &Scenario,
    (src_prog, dst_prog, un): (&Group, &Group, &Group),
    src_obj: &Option<S>,
    dst_obj: &Option<D>,
    oracle: bool,
    report: &mut RankReport,
) -> Result<Schedule, McError> {
    let (sset, dset) = (S::regions(&sc.src_set), D::regions(&sc.dst_set));
    let method = if sc.method == 0 {
        BuildMethod::Cooperation
    } else {
        BuildMethod::Duplication
    };
    let sside = src_obj.as_ref().map(|o| Side::new(o, &sset));
    let dside = dst_obj.as_ref().map(|o| Side::new(o, &dset));
    let sched = compute_schedule::<f64, S, D>(ep, un, src_prog, sside, dst_prog, dside, method)?;
    report.scheds.push(Motion::of(&sched));
    if oracle {
        if let Some(o) = src_obj {
            let desc = o.descriptor(&mut Comm::borrowed(ep, src_prog));
            report.src_descs.push(desc.to_bytes());
        }
        if let Some(o) = dst_obj {
            let desc = o.descriptor(&mut Comm::borrowed(ep, dst_prog));
            report.dst_descs.push(desc.to_bytes());
        }
    }
    Ok(sched)
}

fn fault_plan(f: &crate::scenario::FaultSpec) -> FaultPlan {
    let mut plan = FaultPlan::new(f.seed).rates(FaultRates {
        drop: f.drop,
        dup: f.dup,
        corrupt: f.corrupt,
        delay: f.delay,
        delay_secs: f.delay_secs,
    });
    if let Some((rank, at)) = f.crash {
        plan = plan.crash(rank, at);
    }
    plan
}

fn run_rank<S: FuzzLib, D: FuzzLib>(ep: &mut Endpoint, sc: &Scenario, oracle: bool) -> RankReport {
    let me = ep.rank();
    let (src_prog, dst_prog, un) = groups(sc);
    let progs = (&src_prog, &dst_prog, &un);
    let on_src = src_prog.contains(me);
    let on_dst = dst_prog.contains(me);
    let mut src_obj = on_src.then(|| S::build(ep, &src_prog, me, &sc.src, src_val));
    let mut dst_obj = on_dst.then(|| D::build(ep, &dst_prog, me, &sc.dst, dst_init));

    let mut report = RankReport::default();
    let mut sched = match build_recorded(ep, sc, progs, &src_obj, &dst_obj, oracle, &mut report) {
        Ok(s) => Some(s),
        Err(e) => {
            report.build_err = Some(format!("{e:?}"));
            None
        }
    };

    if let Some(live) = sched.as_mut() {
        for (i, step) in sc.steps.iter().enumerate() {
            match step {
                Step::Move => {
                    let r = if !sc.coupled {
                        try_data_move(
                            ep,
                            live,
                            src_obj.as_ref().expect("same-program src"),
                            dst_obj.as_mut().expect("same-program dst"),
                        )
                    } else if on_src {
                        data_move_send(ep, live, src_obj.as_ref().expect("src side"))
                    } else {
                        data_move_recv(ep, live, dst_obj.as_mut().expect("dst side"))
                    };
                    report.outcomes.push((i, r.map_err(|e| format!("{e:?}"))));
                }
                Step::BumpSrc { dist_seed } => {
                    if !S::CAN_BUMP {
                        report.outcomes.push((i, Ok(())));
                        continue;
                    }
                    if let Some(cur) = src_obj.as_ref() {
                        src_obj = Some(S::bump(ep, &src_prog, me, cur, &sc.src, *dist_seed));
                    }
                    if !sc.coupled {
                        let e = try_data_move(
                            ep,
                            live,
                            src_obj.as_ref().expect("same-program src"),
                            dst_obj.as_mut().expect("same-program dst"),
                        )
                        .err();
                        report.stale_probes.push(e.map(|e| format!("{e:?}")));
                    }
                    let rebuilt =
                        build_recorded(ep, sc, progs, &src_obj, &dst_obj, oracle, &mut report)
                            .map(|s| *live = s);
                    let outcome = rebuilt.map_err(|e| format!("{e:?}"));
                    report.outcomes.push((i, outcome));
                }
                Step::BumpDst { dist_seed } => {
                    if !D::CAN_BUMP {
                        report.outcomes.push((i, Ok(())));
                        continue;
                    }
                    if let Some(cur) = dst_obj.as_ref() {
                        dst_obj = Some(D::bump(ep, &dst_prog, me, cur, &sc.dst, *dist_seed));
                    }
                    if !sc.coupled {
                        let e = try_data_move(
                            ep,
                            live,
                            src_obj.as_ref().expect("same-program src"),
                            dst_obj.as_mut().expect("same-program dst"),
                        )
                        .err();
                        report.stale_probes.push(e.map(|e| format!("{e:?}")));
                    }
                    let rebuilt =
                        build_recorded(ep, sc, progs, &src_obj, &dst_obj, oracle, &mut report)
                            .map(|s| *live = s);
                    let outcome = rebuilt.map_err(|e| format!("{e:?}"));
                    report.outcomes.push((i, outcome));
                }
            }
        }
    }

    report.mem = dst_obj
        .map(|o| D::owned_mem(&o, &sc.dst.shape))
        .unwrap_or_default();
    report
}

fn run_pair<S: FuzzLib, D: FuzzLib>(sc: &Scenario, faults_on: bool) -> WorldRun {
    let model = if faults_on {
        MachineModel::sp2()
    } else {
        MachineModel::zero()
    };
    let mut world = World::with_model(sc.total_procs(), model)
        .with_perturb_seed(sc.perturb_seed)
        .with_deadline(sc.deadline)
        .with_trace();
    if faults_on {
        if let Some(f) = &sc.fault {
            world = world.with_faults(fault_plan(f));
        }
    }
    // The faulted leg stays exactly the traffic under test: descriptors
    // (a table gather, for Chaos) are collected on the fault-free leg only.
    let rank_sc = sc.clone();
    let rep = world.run_result(move |ep| run_rank::<S, D>(ep, &rank_sc, !faults_on));
    world_run::<S, D>(sc, rep)
}

/// One rank of a supervised recovery run: restore-or-build the objects
/// and the schedule (a restarted rank must never redo collective work
/// its peers will not repeat), then drive every `Move` step through a
/// [`RecoverySession`] and close it.
fn run_recovery_rank<S: FuzzLib, D: FuzzLib>(ep: &mut Endpoint, sc: &Scenario) -> RankReport {
    let me = ep.rank();
    let (src_prog, dst_prog, un) = groups(sc);
    let on_src = src_prog.contains(me);
    let mut ses = RecoverySession::new("fuzz");
    let mut report = RankReport::default();

    let src_obj = on_src.then(|| {
        ses.restore_object::<S>(ep).unwrap_or_else(|| {
            let o = S::build(ep, &src_prog, me, &sc.src, src_val);
            ses.checkpoint_object(ep, &o);
            o
        })
    });
    let mut dst_obj = (!on_src).then(|| {
        ses.restore_object::<D>(ep).unwrap_or_else(|| {
            let o = D::build(ep, &dst_prog, me, &sc.dst, dst_init);
            ses.checkpoint_object(ep, &o);
            o
        })
    });

    let sched = match ses.restore_schedule(ep) {
        Some(s) => {
            report.scheds.push(Motion::of(&s));
            s
        }
        None => {
            let progs = (&src_prog, &dst_prog, &un);
            match build_recorded(ep, sc, progs, &src_obj, &dst_obj, true, &mut report) {
                Ok(s) => {
                    ses.checkpoint_schedule(ep, &s);
                    s
                }
                Err(e) => {
                    report.build_err = Some(format!("{e:?}"));
                    return report;
                }
            }
        }
    };

    let steps = sc.num_moves() as u64;
    for k in 0..steps {
        let r = if on_src {
            ses.send_step(ep, &sched, src_obj.as_ref().expect("source side"), k)
        } else {
            ses.recv_step(ep, &sched, dst_obj.as_mut().expect("destination side"), k)
        };
        report
            .outcomes
            .push((k as usize, r.map_err(|e| format!("{e:?}"))));
    }
    let fin = ses.finish(ep, &sched, steps);
    report
        .outcomes
        .push((steps as usize, fin.map_err(|e| format!("{e:?}"))));

    report.mem = dst_obj
        .map(|o| D::owned_mem(&o, &sc.dst.shape))
        .unwrap_or_default();
    report
}

fn run_recovery_pair<S: FuzzLib, D: FuzzLib>(
    sc: &Scenario,
    crash_times: &[(usize, f64)],
) -> WorldRun {
    let mut world = World::with_model(sc.total_procs(), MachineModel::sp2())
        .with_perturb_seed(sc.perturb_seed)
        .with_supervisor(2)
        .with_deadline(sc.deadline)
        .with_trace();
    if !crash_times.is_empty() {
        let seed = sc.fault.as_ref().map_or(1, |f| f.seed);
        let mut plan = FaultPlan::new(seed);
        if let Some(f) = &sc.fault {
            plan = plan.rates(FaultRates {
                drop: f.drop,
                dup: f.dup,
                corrupt: f.corrupt,
                delay: f.delay,
                delay_secs: f.delay_secs,
            });
        }
        for &(rank, at) in crash_times {
            plan = plan.crash(rank, at);
        }
        world = world.with_faults(plan);
    }
    let rank_sc = sc.clone();
    let rep = world.run_result(move |ep| run_recovery_rank::<S, D>(ep, &rank_sc));
    world_run::<S, D>(sc, rep)
}

fn run_mode<S: FuzzLib, D: FuzzLib>(sc: &Scenario, mode: Mode) -> WorldRun {
    match mode {
        Mode::Plain { faults_on } => run_pair::<S, D>(sc, faults_on),
        Mode::Recovery { crash_times } => run_recovery_pair::<S, D>(sc, crash_times),
    }
}

fn dispatch(sc: &Scenario, mode: Mode) -> WorldRun {
    use LibKind::*;
    match (sc.src.kind, sc.dst.kind) {
        (Multiblock, Multiblock) => {
            run_mode::<MultiblockArray<f64>, MultiblockArray<f64>>(sc, mode)
        }
        (Multiblock, Hpf) => run_mode::<MultiblockArray<f64>, HpfArray<f64>>(sc, mode),
        (Multiblock, Tulip) => {
            run_mode::<MultiblockArray<f64>, DistributedCollection<f64>>(sc, mode)
        }
        (Multiblock, Chaos) => run_mode::<MultiblockArray<f64>, IrregArray<f64>>(sc, mode),
        (Hpf, Multiblock) => run_mode::<HpfArray<f64>, MultiblockArray<f64>>(sc, mode),
        (Hpf, Hpf) => run_mode::<HpfArray<f64>, HpfArray<f64>>(sc, mode),
        (Hpf, Tulip) => run_mode::<HpfArray<f64>, DistributedCollection<f64>>(sc, mode),
        (Hpf, Chaos) => run_mode::<HpfArray<f64>, IrregArray<f64>>(sc, mode),
        (Tulip, Multiblock) => {
            run_mode::<DistributedCollection<f64>, MultiblockArray<f64>>(sc, mode)
        }
        (Tulip, Hpf) => run_mode::<DistributedCollection<f64>, HpfArray<f64>>(sc, mode),
        (Tulip, Tulip) => {
            run_mode::<DistributedCollection<f64>, DistributedCollection<f64>>(sc, mode)
        }
        (Tulip, Chaos) => run_mode::<DistributedCollection<f64>, IrregArray<f64>>(sc, mode),
        (Chaos, Multiblock) => run_mode::<IrregArray<f64>, MultiblockArray<f64>>(sc, mode),
        (Chaos, Hpf) => run_mode::<IrregArray<f64>, HpfArray<f64>>(sc, mode),
        (Chaos, Tulip) => run_mode::<IrregArray<f64>, DistributedCollection<f64>>(sc, mode),
        (Chaos, Chaos) => run_mode::<IrregArray<f64>, IrregArray<f64>>(sc, mode),
    }
}

/// Run a scenario; `faults_on` attaches the scenario's fault plan
/// (ignored when the scenario has none).
pub fn run_scenario(sc: &Scenario, faults_on: bool) -> WorldRun {
    dispatch(sc, Mode::Plain { faults_on })
}

/// Run a recovery scenario under a supervised world.  `crash_times`
/// carries absolute virtual crash times (resolve the scenario's window
/// fractions against a fault-free baseline's [`WorldRun::windows`]
/// first); pass an empty slice for the baseline itself.
pub fn run_recovery(sc: &Scenario, crash_times: &[(usize, f64)]) -> WorldRun {
    dispatch(sc, Mode::Recovery { crash_times })
}
