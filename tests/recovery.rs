//! Crash-recovery acceptance: a rank killed in ANY transfer phase and
//! respawned by the world supervisor must leave the destination
//! bit-identical to the fault-free run, with every half committed
//! exactly once.
//!
//! The harness runs a supervised, traced baseline first and mines the
//! victim's phase spans ([`mcsim::pair_spans`]) for crash times — the
//! virtual clock is deterministic, so a time inside a baseline span
//! lands inside the same span in the crash run.

use mcsim::group::{Comm, Group};
use mcsim::prelude::Endpoint;
use mcsim::{pair_spans, MachineModel, Phase, RecoveryConfig, RunOutput, World};
use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::region::{IndexSet, RegularSection};
use meta_chaos::setof::SetOfRegions;
use meta_chaos::{McObject, RecoverySession, Side};

use chaos::{IrregArray, Partition};
use hpf::{HpfArray, HpfDist};
use multiblock::MultiblockArray;
use tulip::DistributedCollection;

use mcsim::test_seeds as seeds;

/// Phase-matrix problem size (multiblock -> HPF, 2 senders, 2 receivers).
const N: usize = 256;
const STEPS: u64 = 3;

/// Library-matrix problem size (smaller: 16 pairs x seeds runs).
const M: usize = 64;
const STEPS_M: u64 = 2;

/// Step-dependent source data, so resuming at the wrong step is visible.
fn value(k: u64, x: usize) -> f64 {
    ((k + 1) * 1000 + 3 * x as u64 + 1) as f64
}

/// A fast failure detector so evictions (and thus the whole suite) fit
/// in test time: 3 missed leases evict.
fn detector() -> RecoveryConfig {
    RecoveryConfig { lease_misses: 3 }
}

/// Arm a scripted crash once per rank: the flag rides the checkpoint
/// store, so a restarted life does not crash again.
fn arm_once(ep: &mut Endpoint, crashes: &[(usize, f64)]) {
    for &(victim, at) in crashes {
        if ep.rank() == victim && !ep.ckpt_has("crash-armed") {
            ep.ckpt_put("crash-armed", Vec::new());
            ep.arm_crash(at);
        }
    }
}

/// The phase-matrix world: programs {0,1} (Multiblock source) and {2,3}
/// (HPF destination) coupled over the whole index space, driven through
/// `STEPS` resumable steps with step-dependent data.  Every rank
/// checkpoints its schedule and object so a restarted life rejoins
/// without re-running the collective build.  A `quitter` sender returns
/// after its last step without `finish`, falling silent for good.
fn phase_world(crashes: Vec<(usize, f64)>, quitter: Option<usize>) -> RunOutput<Vec<(usize, f64)>> {
    World::with_model(4, MachineModel::sp2())
        .with_supervisor(2)
        .with_recovery_config(detector())
        .with_trace()
        .run(move |ep| {
            arm_once(ep, &crashes);
            let (pa, pb, un) = Group::split_two(2, 2, 32);
            let set: SetOfRegions<RegularSection> =
                SetOfRegions::single(RegularSection::whole(&[N]));
            let mut ses = RecoverySession::new("field");
            if pa.contains(ep.rank()) {
                let mut v: MultiblockArray<f64> = match ses.restore_object(ep) {
                    Some(o) => o,
                    None => {
                        let o = MultiblockArray::<f64>::new(&pa, ep.rank(), &[N]);
                        ses.checkpoint_object(ep, &o);
                        o
                    }
                };
                let sched = match ses.restore_schedule(ep) {
                    Some(s) => s,
                    None => {
                        let s = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                            ep,
                            &un,
                            &pa,
                            Some(Side::new(&v, &set)),
                            &pb,
                            None,
                            BuildMethod::Cooperation,
                        )
                        .unwrap();
                        ses.checkpoint_schedule(ep, &s);
                        s
                    }
                };
                for k in 0..STEPS {
                    v.fill_with(|c| value(k, c[0]));
                    ses.send_step(ep, &sched, &v, k).unwrap();
                }
                if quitter != Some(ep.rank()) {
                    ses.finish(ep, &sched, STEPS).unwrap();
                }
                Vec::new()
            } else {
                let mut h: HpfArray<f64> = match ses.restore_object(ep) {
                    Some(o) => o,
                    None => {
                        let o = HpfArray::<f64>::new(&pb, ep.rank(), HpfDist::block_1d(N, 2));
                        ses.checkpoint_object(ep, &o);
                        o
                    }
                };
                let sched = match ses.restore_schedule(ep) {
                    Some(s) => s,
                    None => {
                        let s = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                            ep,
                            &un,
                            &pa,
                            None,
                            &pb,
                            Some(Side::new(&h, &set)),
                            BuildMethod::Cooperation,
                        )
                        .unwrap();
                        ses.checkpoint_schedule(ep, &s);
                        s
                    }
                };
                for k in 0..STEPS {
                    ses.recv_step(ep, &sched, &mut h, k).unwrap();
                }
                ses.finish(ep, &sched, STEPS).unwrap();
                (0..N)
                    .filter(|&x| h.owns(&[x]))
                    .map(|x| (x, h.get(&[x])))
                    .collect::<Vec<_>>()
            }
        })
}

fn assert_byte_identical(got: &[Vec<(usize, f64)>], baseline: &[Vec<(usize, f64)>], label: &str) {
    for (rank, (g, b)) in got.iter().zip(baseline).enumerate() {
        assert_eq!(g.len(), b.len(), "{label}: rank {rank} element count");
        for ((xi, vi), (xj, vj)) in g.iter().zip(b) {
            assert_eq!(xi, xj, "{label}: rank {rank} index set");
            assert_eq!(
                vi.to_bits(),
                vj.to_bits(),
                "{label}: rank {rank} value at {xi}"
            );
        }
    }
}

/// Spans of one phase in one rank's baseline trace, mined for crash
/// times.  Only the transfer phases count — build-time spans (Inspect,
/// Transfer wrappers) are excluded by construction of the filter.
fn phase_spans(out: &RunOutput<Vec<(usize, f64)>>, rank: usize, phase: Phase) -> Vec<(f64, f64)> {
    pair_spans(&out.traces[rank])
        .into_iter()
        .filter(|s| s.phase == phase)
        .map(|s| (s.begin, s.end))
        .collect()
}

/// A crash time inside span `which` (index scaled into the list) of the
/// given phase, at fraction `frac` of the span.
fn crash_time(spans: &[(f64, f64)], which: usize, of: usize, frac: f64) -> f64 {
    assert!(
        !spans.is_empty(),
        "baseline recorded no spans of this phase"
    );
    let idx = (which * spans.len() / of).min(spans.len() - 1);
    let (b, e) = spans[idx];
    b + (e - b) * frac
}

/// Tentpole oracle: crash a rank inside each of the five transfer
/// phases (sync/manifest, pack, wire, stage, commit), across the
/// workspace seeds, and require the recovered run to be bit-identical
/// to the fault-free baseline with the exact same number of commits
/// (exactly-once), plus the final-step values in every destination.
#[test]
fn crash_in_every_phase_converges_bit_identical() {
    let baseline = phase_world(Vec::new(), None);
    // The fault-free run itself must deliver the last step's values.
    for vals in &baseline.results[2..] {
        for &(x, v) in vals {
            assert_eq!(v, value(STEPS - 1, x), "baseline dst[{x}]");
        }
    }
    let committed = baseline.stats.session.transfers_committed;
    assert_eq!(committed, 2 * STEPS, "one commit per receiver per step");

    // Sender phases crash a source rank; receiver phases a destination.
    let cases: [(Phase, usize, &str); 5] = [
        (Phase::Manifest, 0, "manifest"),
        (Phase::Pack, 0, "pack"),
        (Phase::Wire, 0, "wire"),
        (Phase::Stage, 2, "stage"),
        (Phase::Commit, 3, "commit"),
    ];
    for (si, _seed) in seeds().iter().enumerate() {
        let frac = 0.3 + 0.15 * si as f64;
        for (phase, victim, label) in &cases {
            let spans = phase_spans(&baseline, *victim, *phase);
            let at = crash_time(&spans, si, seeds().len(), frac);
            let out = phase_world(vec![(*victim, at)], None);
            let tag = format!("{label} crash rank {victim} at t={at:.6}");
            assert_byte_identical(&out.results, &baseline.results, &tag);
            assert!(
                out.stats.recovery.ranks_recovered >= 1,
                "{tag}: no recovery happened"
            );
            assert_eq!(
                out.stats.session.transfers_committed, committed,
                "{tag}: commits diverged (duplicate or lost commit)"
            );
        }
    }
}

/// Double fault: a sender AND a receiver die (at baseline-mined times in
/// different phases) and both recover; the run still converges.
#[test]
fn double_fault_converges() {
    let baseline = phase_world(Vec::new(), None);
    let pack = phase_spans(&baseline, 0, Phase::Pack);
    let stage = phase_spans(&baseline, 3, Phase::Stage);
    let crashes = vec![
        (0, crash_time(&pack, 1, 3, 0.5)),
        (3, crash_time(&stage, 2, 3, 0.5)),
    ];
    let out = phase_world(crashes, None);
    assert_byte_identical(&out.results, &baseline.results, "double fault");
    assert!(
        out.stats.recovery.ranks_recovered >= 2,
        "both victims must recover (got {})",
        out.stats.recovery.ranks_recovered
    );
    assert_eq!(
        out.stats.session.transfers_committed, baseline.stats.session.transfers_committed,
        "double fault: commits diverged"
    );
}

/// Parity oracle: every recovery counter must equal the count of its
/// trace events, summed over ranks — `NetStats` and the chrome-trace
/// view must tell the same story.
#[test]
fn recovery_trace_counters_match_stats() {
    let baseline = phase_world(Vec::new(), None);
    // A commit-phase crash exercises the absorb path, and a sender that
    // skips `finish` leaves its receivers waiting on a silent peer until
    // its lease lapses, so all four counters (heartbeats, leases,
    // recoveries, replays) are non-zero.
    let spans = phase_spans(&baseline, 3, Phase::Commit);
    let at = crash_time(&spans, 1, 3, 0.5);
    let out = phase_world(vec![(3, at)], Some(1));
    assert_byte_identical(&out.results, &baseline.results, "quitter");

    let mut heartbeats = 0usize;
    let mut leases = 0usize;
    let mut recoveries = 0usize;
    let mut replays = 0usize;
    for trace in &out.traces {
        let s = mcsim::summarize(trace);
        heartbeats += s.heartbeats;
        leases += s.leases_expired;
        recoveries += s.recoveries;
        replays += s.parts_replayed;
    }
    let r = &out.stats.recovery;
    assert_eq!(r.heartbeats_sent, heartbeats as u64, "heartbeat parity");
    assert_eq!(r.leases_expired, leases as u64, "lease-expiry parity");
    assert_eq!(r.ranks_recovered, recoveries as u64, "recovery parity");
    assert_eq!(r.parts_replayed, replays as u64, "part-replay parity");
    assert!(r.heartbeats_sent > 0, "supervised run must heartbeat");
    assert!(r.leases_expired > 0, "a silent peer must be evicted");
    assert!(r.ranks_recovered >= 1, "the scripted crash must recover");
    assert!(
        r.parts_replayed >= 1,
        "a commit-phase crash must absorb a replayed half"
    );
}

// ---------------------------------------------------------------------
// Library matrix: every (source library, destination library) pair must
// survive a crash, for all four libraries on both sides.
// ---------------------------------------------------------------------

/// What the 16-pair driver needs from a library object: build it inside
/// one program (restoring collective state is the caller's job — build
/// only runs in a rank's first life), refill it for a step, describe
/// the whole index space as regions, and report `(global, value)`.
trait RecObj: McObject<f64> + Clone + Send + Sized + 'static {
    fn build(ep: &mut Endpoint, g: &Group) -> Self;
    fn fill(&mut self, k: u64);
    fn set() -> SetOfRegions<Self::Region>;
    fn snapshot(&self) -> Vec<(usize, f64)>;
}

impl RecObj for MultiblockArray<f64> {
    fn build(ep: &mut Endpoint, g: &Group) -> Self {
        MultiblockArray::<f64>::new(g, ep.rank(), &[M])
    }
    fn fill(&mut self, k: u64) {
        self.fill_with(|c| value(k, c[0]));
    }
    fn set() -> SetOfRegions<RegularSection> {
        SetOfRegions::single(RegularSection::whole(&[M]))
    }
    fn snapshot(&self) -> Vec<(usize, f64)> {
        let b = self.my_box();
        (b[0].0..b[0].1).map(|x| (x, self.get(&[x]))).collect()
    }
}

impl RecObj for HpfArray<f64> {
    fn build(ep: &mut Endpoint, g: &Group) -> Self {
        HpfArray::<f64>::new(g, ep.rank(), HpfDist::block_1d(M, 2))
    }
    fn fill(&mut self, k: u64) {
        self.for_each_owned(|c, v| *v = value(k, c[0]));
    }
    fn set() -> SetOfRegions<RegularSection> {
        SetOfRegions::single(RegularSection::whole(&[M]))
    }
    fn snapshot(&self) -> Vec<(usize, f64)> {
        (0..M)
            .filter(|&x| self.owns(&[x]))
            .map(|x| (x, self.get(&[x])))
            .collect()
    }
}

impl RecObj for IrregArray<f64> {
    fn build(ep: &mut Endpoint, g: &Group) -> Self {
        let mut comm = Comm::new(ep, g.clone());
        IrregArray::create(&mut comm, M, Partition::Random(7), |_| 0.0)
    }
    fn fill(&mut self, k: u64) {
        let globals: Vec<usize> = self.my_globals().to_vec();
        for (g, v) in globals.iter().zip(self.local_mut()) {
            *v = value(k, *g);
        }
    }
    fn set() -> SetOfRegions<IndexSet> {
        SetOfRegions::single(IndexSet::new((0..M).collect()))
    }
    fn snapshot(&self) -> Vec<(usize, f64)> {
        self.my_globals()
            .iter()
            .zip(self.local())
            .map(|(&g, &v)| (g, v))
            .collect()
    }
}

impl RecObj for DistributedCollection<f64> {
    fn build(ep: &mut Endpoint, g: &Group) -> Self {
        DistributedCollection::<f64>::new(g, ep.rank(), M)
    }
    fn fill(&mut self, k: u64) {
        self.apply(|gi, v| *v = value(k, gi));
    }
    fn set() -> SetOfRegions<IndexSet> {
        SetOfRegions::single(IndexSet::new((0..M).collect()))
    }
    fn snapshot(&self) -> Vec<(usize, f64)> {
        let p = self.num_procs();
        let me = self.my_local();
        self.local()
            .iter()
            .enumerate()
            .map(|(l, &v)| (l * p + me, v))
            .collect()
    }
}

fn run_matrix<S, D>(crashes: Vec<(usize, f64)>) -> RunOutput<Vec<(usize, f64)>>
where
    S: RecObj,
    D: RecObj,
{
    World::with_model(4, MachineModel::sp2())
        .with_supervisor(2)
        .with_recovery_config(detector())
        .with_trace()
        .run(move |ep| {
            arm_once(ep, &crashes);
            let (pa, pb, un) = Group::split_two(2, 2, 32);
            let mut ses = RecoverySession::new("matrix");
            if pa.contains(ep.rank()) {
                let mut a: S = match ses.restore_object(ep) {
                    Some(o) => o,
                    None => {
                        let o = S::build(ep, &pa);
                        ses.checkpoint_object(ep, &o);
                        o
                    }
                };
                let sset = S::set();
                let sched = match ses.restore_schedule(ep) {
                    Some(s) => s,
                    None => {
                        let s = compute_schedule::<f64, S, D>(
                            ep,
                            &un,
                            &pa,
                            Some(Side::new(&a, &sset)),
                            &pb,
                            None,
                            BuildMethod::Cooperation,
                        )
                        .unwrap();
                        ses.checkpoint_schedule(ep, &s);
                        s
                    }
                };
                for k in 0..STEPS_M {
                    a.fill(k);
                    ses.send_step(ep, &sched, &a, k).unwrap();
                }
                ses.finish(ep, &sched, STEPS_M).unwrap();
                Vec::new()
            } else {
                let mut d: D = match ses.restore_object(ep) {
                    Some(o) => o,
                    None => {
                        let o = D::build(ep, &pb);
                        ses.checkpoint_object(ep, &o);
                        o
                    }
                };
                let dset = D::set();
                let sched = match ses.restore_schedule(ep) {
                    Some(s) => s,
                    None => {
                        let s = compute_schedule::<f64, S, D>(
                            ep,
                            &un,
                            &pa,
                            None,
                            &pb,
                            Some(Side::new(&d, &dset)),
                            BuildMethod::Cooperation,
                        )
                        .unwrap();
                        ses.checkpoint_schedule(ep, &s);
                        s
                    }
                };
                for k in 0..STEPS_M {
                    ses.recv_step(ep, &sched, &mut d, k).unwrap();
                }
                ses.finish(ep, &sched, STEPS_M).unwrap();
                d.snapshot()
            }
        })
}

/// One library pair, all seeds: baseline then a crash run per seed,
/// victim and crash time varied by seed index.
fn matrix_case<S, D>(label: &str)
where
    S: RecObj,
    D: RecObj,
{
    let baseline = run_matrix::<S, D>(Vec::new());
    let mut seen = vec![false; M];
    for vals in &baseline.results[2..] {
        for &(x, v) in vals {
            assert_eq!(v, value(STEPS_M - 1, x), "{label} baseline dst[{x}]");
            assert!(!seen[x], "{label} baseline dst[{x}] reported twice");
            seen[x] = true;
        }
    }
    assert!(
        seen.into_iter().all(|s| s),
        "{label} baseline left elements unreported"
    );

    // One victim per seed: a receiver's stage, a sender's pack, the
    // other sender's position wait.
    let picks: [(usize, Phase); 3] = [(2, Phase::Stage), (0, Phase::Pack), (1, Phase::Manifest)];
    for (si, _seed) in seeds().iter().enumerate() {
        let (victim, phase) = picks[si % picks.len()];
        let spans = phase_spans(&baseline, victim, phase);
        let at = crash_time(&spans, si, seeds().len(), 0.5);
        let out = run_matrix::<S, D>(vec![(victim, at)]);
        let tag = format!("{label}: crash rank {victim} at t={at:.6}");
        assert_byte_identical(&out.results, &baseline.results, &tag);
        assert!(
            out.stats.recovery.ranks_recovered >= 1,
            "{tag}: no recovery happened"
        );
        assert_eq!(
            out.stats.session.transfers_committed, baseline.stats.session.transfers_committed,
            "{tag}: commits diverged"
        );
    }
}

macro_rules! matrix_test {
    ($name:ident, $s:ty, $d:ty) => {
        #[test]
        fn $name() {
            matrix_case::<$s, $d>(stringify!($name));
        }
    };
}

matrix_test!(rec_mb_to_mb, MultiblockArray<f64>, MultiblockArray<f64>);
matrix_test!(rec_mb_to_chaos, MultiblockArray<f64>, IrregArray<f64>);
matrix_test!(rec_mb_to_hpf, MultiblockArray<f64>, HpfArray<f64>);
matrix_test!(
    rec_mb_to_tulip,
    MultiblockArray<f64>,
    DistributedCollection<f64>
);
matrix_test!(rec_chaos_to_mb, IrregArray<f64>, MultiblockArray<f64>);
matrix_test!(rec_chaos_to_chaos, IrregArray<f64>, IrregArray<f64>);
matrix_test!(rec_chaos_to_hpf, IrregArray<f64>, HpfArray<f64>);
matrix_test!(
    rec_chaos_to_tulip,
    IrregArray<f64>,
    DistributedCollection<f64>
);
matrix_test!(rec_hpf_to_mb, HpfArray<f64>, MultiblockArray<f64>);
matrix_test!(rec_hpf_to_chaos, HpfArray<f64>, IrregArray<f64>);
matrix_test!(rec_hpf_to_hpf, HpfArray<f64>, HpfArray<f64>);
matrix_test!(rec_hpf_to_tulip, HpfArray<f64>, DistributedCollection<f64>);
matrix_test!(
    rec_tulip_to_mb,
    DistributedCollection<f64>,
    MultiblockArray<f64>
);
matrix_test!(
    rec_tulip_to_chaos,
    DistributedCollection<f64>,
    IrregArray<f64>
);
matrix_test!(rec_tulip_to_hpf, DistributedCollection<f64>, HpfArray<f64>);
matrix_test!(
    rec_tulip_to_tulip,
    DistributedCollection<f64>,
    DistributedCollection<f64>
);
