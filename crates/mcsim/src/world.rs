//! World construction: run an SPMD closure on every rank.
//!
//! Every rank is a task of the deterministic virtual-clock scheduler in
//! [`crate::sched`], dispatched one at a time on the thread that called
//! [`World::run`].  There is one runner and nothing to select: the same
//! `(virtual_time, rank)` total order — and therefore the same results,
//! clocks, stats and traces — on every target.
//!
//! A run builds, in this order, the world's `crate::sched::Hub` (the
//! shared state: mailboxes, scheduler, link state), one [`Endpoint`] per
//! rank on it, one task body per endpoint, and hands the bodies to
//! `crate::sched::run`, which makes the tasks and dispatches them to
//! completion; the contended link seconds are read back from the hub.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::endpoint::Endpoint;
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::message::Rank;
use crate::model::{MachineModel, Topology};
use crate::reliable::ReliableConfig;
use crate::sched::{Hub, TaskBody, WakeCause};
use crate::stats::{NetStats, StatsSnapshot};
use crate::trace::TraceEvent;

/// A simulated machine with a fixed number of ranks and a cost model.
#[derive(Debug, Clone)]
pub struct World {
    size: usize,
    model: MachineModel,
    faults: Option<FaultPlan>,
    trace: bool,
    rel_cfg: ReliableConfig,
    deadline: Option<f64>,
    /// Restart budget per rank when a supervisor is attached.
    supervisor: Option<u32>,
    topology: Topology,
    /// Tie-break seed of the scheduler; `None` runs equal virtual times in
    /// rank order.
    perturb_seed: Option<u64>,
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// Per-rank return values of the SPMD closure, indexed by rank.
    pub results: Vec<R>,
    /// Final virtual clock of each rank, in seconds.
    pub clocks: Vec<f64>,
    /// Simulated elapsed time of the whole run: `max(clocks)`.
    pub elapsed: f64,
    /// Aggregate message traffic.
    pub stats: NetStats,
    /// Per-rank event timelines when the world was built with
    /// [`World::with_trace`]; empty vectors otherwise.
    pub traces: Vec<Vec<TraceEvent>>,
    /// Total virtual seconds messages spent queued behind busy links —
    /// always `0.0` on the contention-free [`Topology::Crossbar`].
    pub contended_secs: f64,
}

/// What [`World::run_result`] produces: per-rank outcomes where a rank
/// that panicked yields `Err` instead of taking the whole run down.
#[derive(Debug)]
pub struct RunReport<R> {
    /// Per-rank closure results; a panicked rank becomes
    /// [`SimError::PeerFailed`] carrying its own rank and panic message.
    pub outcomes: Vec<Result<R, SimError>>,
    /// Final virtual clock of each rank, in seconds.
    pub clocks: Vec<f64>,
    /// Simulated elapsed time of the whole run: `max(clocks)`.
    pub elapsed: f64,
    /// Aggregate message traffic.
    pub stats: NetStats,
    /// Per-rank event timelines when the world was built with
    /// [`World::with_trace`]; empty vectors otherwise.  Panicked ranks
    /// contribute whatever they recorded before dying.
    pub traces: Vec<Vec<TraceEvent>>,
    /// Total virtual seconds messages spent queued behind busy links —
    /// always `0.0` on the contention-free [`Topology::Crossbar`].
    pub contended_secs: f64,
}

enum RankOutcome<R> {
    Done(R, f64, StatsSnapshot, Vec<TraceEvent>),
    Panicked(
        Box<dyn Any + Send>,
        String,
        f64,
        StatsSnapshot,
        Vec<TraceEvent>,
    ),
}

impl World {
    /// A world of `size` ranks with the default (SP2) cost model.
    pub fn new(size: usize) -> Self {
        World::with_model(size, MachineModel::default())
    }

    /// A world of `size` ranks with an explicit cost model.
    pub fn with_model(size: usize, model: MachineModel) -> Self {
        assert!(size > 0, "world must have at least one rank");
        World {
            size,
            model,
            faults: None,
            trace: false,
            rel_cfg: ReliableConfig::default(),
            deadline: None,
            supervisor: None,
            topology: Topology::Crossbar,
            perturb_seed: None,
        }
    }

    /// Select the interconnect topology (default [`Topology::Crossbar`]).
    ///
    /// Non-crossbar topologies route every message over shared links with
    /// per-link serialization and contention queuing (see
    /// [`crate::model::Topology`]); the scheduler's total order over rank
    /// execution makes the shared link state deterministic.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        assert!(
            topology.fits(self.size),
            "topology {topology:?} cannot seat {} ranks",
            self.size
        );
        self.topology = topology;
        self
    }

    /// Attach a supervisor: a rank that dies to a *scripted* crash (fault
    /// plan or [`crate::endpoint::Endpoint::arm_crash`]) is respawned in
    /// place up to `max_restarts` times per rank, under a bumped
    /// incarnation, with its endpoint reset for recovery and the
    /// checkpoint store intact.  Panics that are not scripted crashes
    /// (real bugs) still poison the world.
    ///
    /// Arms heartbeats and the lease detector — the only switch that
    /// does: a supervisor restart sends no poison, so lease eviction is
    /// the only thing that wakes survivors blocked on the crashed rank.
    /// Its budget is [`crate::recovery::LEASE_MISSES`].
    pub fn with_supervisor(mut self, max_restarts: u32) -> Self {
        self.supervisor = Some(max_restarts);
        self
    }

    /// Arm a virtual-clock deadline (seconds) for the whole run: any rank
    /// whose clock passes it — or that blocks in a receive with nothing
    /// arriving while it is armed — fails with
    /// [`SimError::DeadlineExceeded`]
    /// instead of hanging.  This is the fuzz harness's no-hang oracle;
    /// production-style runs leave it off and rely on the reliable
    /// layer's retry budget.
    pub fn with_deadline(mut self, secs: f64) -> Self {
        assert!(secs > 0.0, "deadline must be positive");
        self.deadline = Some(secs);
        self
    }

    /// Override the reliable-transport window every endpoint in this
    /// world runs with.
    /// `ReliableConfig::stop_and_wait()` gives the one-frame-in-flight
    /// ablation the benches compare against.
    pub fn with_reliable_config(mut self, cfg: ReliableConfig) -> Self {
        self.rel_cfg = cfg;
        self
    }

    /// Attach a deterministic [`FaultPlan`]: every rank's endpoint injects
    /// the scripted drops/dups/corruptions/delays on its sends, and
    /// scripted crashes fire at their virtual times.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Record full per-rank event timelines for the run: every rank's
    /// endpoint starts with tracing enabled, and whatever it recorded is
    /// collected into [`RunOutput::traces`] / [`RunReport::traces`]
    /// (snapshot taken when the rank's closure returns, alongside its
    /// stats).  A closure that calls `take_trace` itself simply leaves
    /// less for the sink.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Perturb the schedule: with `Some(seed)`, tasks due at the same
    /// virtual time run in an order hashed from `seed` instead of rank
    /// order (`None`, the default).  Every seed is one deterministic
    /// interleaving; results that only hold in rank order are what it
    /// exposes.
    pub fn with_perturb_seed(mut self, seed: Option<u64>) -> Self {
        self.perturb_seed = seed;
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The cost model in effect.
    pub fn model(&self) -> &MachineModel {
        &self.model
    }

    /// One endpoint per rank on `hub` (model, faults, tracing).
    fn build_endpoints(&self, hub: &Arc<Hub>) -> Vec<Endpoint> {
        (0..self.size)
            .map(|rank| {
                let mut ep = Endpoint::new(
                    rank,
                    self.size,
                    hub.clone(),
                    self.model,
                    self.faults.as_ref(),
                    self.rel_cfg,
                    self.deadline,
                    self.supervisor,
                );
                if self.trace {
                    ep.enable_trace();
                }
                ep
            })
            .collect()
    }

    /// Run the closure everywhere — every rank a task, resumed by the
    /// scheduler in [`crate::sched`] in `(virtual_time, rank)` order on
    /// this thread — and keep every rank answering reliable-protocol
    /// traffic until the last rank is done: a rank still flushing a
    /// reliable stream must never be orphaned by a peer that already
    /// returned.  Gathers what both public runs report, each rank's
    /// result (or panic payload and message) mapped by `keep`; `None`
    /// leaves the rank out of [`RunOutput::results`].
    fn collect<F, R, T>(
        &self,
        f: F,
        mut keep: impl FnMut(Rank, Result<R, (Box<dyn Any + Send>, String)>) -> Option<T>,
    ) -> RunOutput<T>
    where
        F: Fn(&mut Endpoint) -> R + Send + Sync,
        R: Send,
    {
        let hub = Arc::new(Hub::new(self.size, self.topology, self.perturb_seed));
        let mut endpoints = self.build_endpoints(&hub);
        let mut outcomes: Vec<Option<RankOutcome<R>>> = (0..self.size).map(|_| None).collect();

        let f = &f;
        let bodies: Vec<TaskBody<'_>> = endpoints
            .iter_mut()
            .zip(outcomes.iter_mut())
            .map(|(ep, out)| -> TaskBody<'_> {
                Box::new(move || {
                    // Supervisor loop: a scripted crash under a restart
                    // budget respawns the closure on this same task — the
                    // endpoint (reset for recovery) keeps serving peers and
                    // the restarted life rejoins seamlessly.
                    let mut result = catch_unwind(AssertUnwindSafe(|| f(ep)));
                    while let Err(e) = &result {
                        if !ep.try_restart(&panic_message(e.as_ref())) {
                            break;
                        }
                        result = catch_unwind(AssertUnwindSafe(|| f(ep)));
                    }
                    // Snapshot before the service phase, so late protocol
                    // traffic never perturbs the reported tail counters.
                    *out = Some(match result {
                        Ok(r) => {
                            RankOutcome::Done(r, ep.clock(), ep.stats_snapshot(), ep.take_trace())
                        }
                        Err(e) => {
                            let reason = panic_message(e.as_ref());
                            ep.poison_all(&reason);
                            let (clock, stats) = (ep.clock(), ep.stats_snapshot());
                            RankOutcome::Panicked(e, reason, clock, stats, ep.take_trace())
                        }
                    });
                    // Service phase: keep answering protocol traffic until
                    // the whole world completes (the scheduler delivers
                    // Shutdown exactly then).
                    loop {
                        match ep.coop_service_park() {
                            WakeCause::Shutdown => break,
                            _ => ep.coop_service_drain(),
                        }
                    }
                })
            })
            .collect();

        if let Some(e) = crate::sched::run(&hub, bodies) {
            // A panic escaped a task harness (bug in the runner itself):
            // re-raise rather than lose it.
            resume_unwind(e);
        }

        let mut results = Vec::with_capacity(self.size);
        let mut clocks = Vec::with_capacity(self.size);
        let mut locals = Vec::with_capacity(self.size);
        let mut traces = Vec::with_capacity(self.size);
        for (rank, o) in outcomes.into_iter().enumerate() {
            let (kept, clock, stats, trace) = match o.expect("every task wrote its outcome") {
                RankOutcome::Done(r, c, st, tr) => (keep(rank, Ok(r)), c, st, tr),
                RankOutcome::Panicked(e, reason, c, st, tr) => {
                    (keep(rank, Err((e, reason))), c, st, tr)
                }
            };
            results.extend(kept);
            clocks.push(clock);
            locals.push(stats);
            traces.push(trace);
        }
        RunOutput {
            results,
            elapsed: clocks.iter().copied().fold(0.0f64, f64::max),
            clocks,
            stats: NetStats::from_locals(locals),
            traces,
            contended_secs: hub.contended_secs(),
        }
    }

    /// Run `f` on every rank and collect the results.
    ///
    /// If any rank panics, the panic is re-raised on the caller's thread
    /// after all ranks have finished; peers blocked in `recv` are woken
    /// by a poison message so the run always terminates.  Use
    /// [`World::run_result`] to observe panics as values instead.
    pub fn run<F, R>(&self, f: F) -> RunOutput<R>
    where
        F: Fn(&mut Endpoint) -> R + Send + Sync,
        R: Send,
    {
        // Re-raise the first original failure, ahead of the cascade panics
        // ranks raise when they see a peer's poison; else the first panic.
        let mut panic: Option<(Box<dyn Any + Send>, bool)> = None;
        let out = self.collect(f, |_, outcome| {
            outcome
                .map_err(|(e, reason)| {
                    let cascade = reason.contains(CASCADE_MARKER);
                    if panic.as_ref().is_none_or(|&(_, prev)| prev && !cascade) {
                        panic = Some((e, cascade));
                    }
                })
                .ok()
        });
        if let Some((p, _)) = panic {
            resume_unwind(p);
        }
        out
    }

    /// Run `f` on every rank, turning rank panics into per-rank `Err`
    /// outcomes instead of re-panicking — the recoverable counterpart of
    /// [`World::run`] for tests and callers that must observe failures.
    pub fn run_result<F, R>(&self, f: F) -> RunReport<R>
    where
        F: Fn(&mut Endpoint) -> R + Send + Sync,
        R: Send,
    {
        let out = self.collect(f, |rank, outcome| {
            Some(outcome.map_err(|(_, reason)| SimError::PeerFailed { rank, reason }))
        });
        RunReport {
            outcomes: out.results,
            clocks: out.clocks,
            elapsed: out.elapsed,
            stats: out.stats,
            traces: out.traces,
            contended_secs: out.contended_secs,
        }
    }
}

/// Substring identifying a panic caused by observing a peer's failure
/// rather than an original fault.  Kept in sync with the message raised in
/// [`crate::endpoint::Endpoint::recv`].
pub(crate) const CASCADE_MARKER: &str = "peer rank";

fn panic_message(e: &(dyn Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::Tag;

    #[test]
    fn run_returns_results_in_rank_order() {
        let world = World::with_model(5, MachineModel::zero());
        let out = world.run(|ep| ep.rank() * 10);
        assert_eq!(out.results, vec![0, 10, 20, 30, 40]);
        assert_eq!(out.clocks.len(), 5);
        assert_eq!(out.elapsed, 0.0);
    }

    #[test]
    fn elapsed_is_max_clock() {
        let world = World::with_model(3, MachineModel::zero());
        let out = world.run(|ep| {
            ep.charge(ep.rank() as f64);
        });
        assert_eq!(out.elapsed, 2.0);
        assert_eq!(out.clocks, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn panics_propagate() {
        let world = World::with_model(2, MachineModel::zero());
        world.run(|ep| {
            if ep.rank() == 1 {
                panic!("deliberate");
            }
            // Rank 0 blocks on a message that will never come; the poison
            // from rank 1 must wake it rather than deadlock the test.
            let _ = ep.recv(1, Tag::user(0));
        });
    }

    #[test]
    fn run_result_reports_panics_without_propagating() {
        let world = World::with_model(2, MachineModel::zero());
        let report = world.run_result(|ep| {
            if ep.rank() == 1 {
                panic!("deliberate failure");
            }
            ep.recv_result(1, Tag::user(0)).map(|_| ())
        });
        // Rank 1's panic is an Err outcome, not a re-panic.
        match &report.outcomes[1] {
            Err(SimError::PeerFailed { rank, reason }) => {
                assert_eq!(*rank, 1);
                assert!(reason.contains("deliberate failure"));
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
        // Rank 0 observed the poison as a recoverable error.
        match &report.outcomes[0] {
            Ok(Err(SimError::PeerFailed { rank, .. })) => assert_eq!(*rank, 1),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn single_rank_world() {
        let world = World::new(1);
        let out = world.run(|ep| ep.world_size());
        assert_eq!(out.results, vec![1]);
    }

    /// Tasks due at one virtual time start in rank order; a perturbation
    /// seed fixes another order, the same on every run.
    #[test]
    fn perturb_seed_reorders_ties_reproducibly() {
        let order = |world: World| {
            let log = std::sync::Mutex::new(Vec::new());
            world.run(|ep| log.lock().unwrap().push(ep.rank()));
            log.into_inner().unwrap()
        };
        let world = World::with_model(8, MachineModel::zero());
        assert_eq!(order(world.clone()), (0..8).collect::<Vec<_>>());
        let perturbed = order(world.clone().with_perturb_seed(Some(1)));
        assert_ne!(perturbed, (0..8).collect::<Vec<_>>());
        assert_eq!(perturbed, order(world.with_perturb_seed(Some(1))));
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = World::new(0);
    }

    /// Run `f` on `world` once per switch back end and require the two
    /// runs to be the same execution: outcomes, clocks, stats, contended
    /// link seconds and the *full* traces (reliable-control events
    /// included).  Returns the native run for scenario-specific checks.
    fn assert_back_ends_agree<R, F>(world: &World, f: F) -> RunReport<R>
    where
        F: Fn(&mut Endpoint) -> R + Send + Sync,
        R: Send + PartialEq + std::fmt::Debug,
    {
        let native = world.run_result(&f);
        let baton = crate::sched::with_baton(|| world.run_result(&f));
        assert_eq!(native.outcomes, baton.outcomes, "outcomes");
        assert_eq!(native.clocks, baton.clocks, "clocks");
        assert_eq!(native.stats, baton.stats, "stats");
        assert_eq!(native.contended_secs, baton.contended_secs, "contended");
        assert_eq!(native.traces, baton.traces, "traces");
        native
    }

    /// A 16-rank reliable ring exchange under drop/dup/delay faults, then
    /// a `recv_timeout` nobody answers: retransmits, dedup, window events
    /// and the silence wake all land identically on both back ends.
    #[test]
    fn back_ends_agree_on_faulted_ring_and_silence() {
        use crate::fault::FaultRates;
        use crate::reliable::{reliable_recv, reliable_send, StreamTag};

        let world = World::with_model(16, MachineModel::sp2())
            .with_faults(FaultPlan::new(42).rates(FaultRates {
                drop: 0.05,
                dup: 0.04,
                delay: 0.05,
                delay_secs: 2e-4,
                ..FaultRates::default()
            }))
            .with_trace();
        let rep = assert_back_ends_agree(&world, |ep| {
            let (p, me) = (ep.world_size(), ep.rank());
            let mut sum = 0u64;
            for round in 0..2u32 {
                let st = StreamTag::new(0xBA70, round);
                for hop in [1, 5] {
                    let payload = vec![(me + hop) as u8; 40 + 8 * me];
                    reliable_send(ep, (me + hop) % p, st, payload).unwrap();
                }
                for hop in [1, 5] {
                    let got = reliable_recv(ep, (me + p - hop) % p, st).unwrap();
                    sum += got.iter().map(|&b| b as u64).sum::<u64>();
                }
            }
            let silent = ep.recv_timeout((me + 1) % p, Tag::user(77), 1e-3);
            (sum, silent)
        });
        for (rank, o) in rep.outcomes.iter().enumerate() {
            let (_, silent) = o.as_ref().expect("no rank panics");
            let peer = (rank + 1) % 16;
            assert_eq!(*silent, Err(SimError::PeerTimeout { rank: peer }));
        }
        assert!(rep.stats.faults.drops_injected > 0, "the plan must bite");
        assert!(rep.stats.faults.retransmits > 0);
    }

    /// A scripted crash under a supervisor: the victim's closure unwinds
    /// and is re-invoked on the same task (its own OS thread, on the baton
    /// back end) under a bumped incarnation.
    #[test]
    fn back_ends_agree_on_supervised_restart() {
        use crate::reliable::{reliable_recv, reliable_send, StreamTag};

        let world = World::with_model(4, MachineModel::sp2())
            .with_supervisor(1)
            .with_faults(FaultPlan::new(7).crash(2, 5e-4))
            .with_trace();
        let rep = assert_back_ends_agree(&world, |ep| {
            let st = StreamTag::new(0xBA71, 0);
            if ep.rank() == 0 {
                (1..ep.world_size())
                    .map(|from| reliable_recv(ep, from, st).unwrap()[0] as u64)
                    .sum()
            } else {
                // Rank 2's first life dies on entry to the send.
                ep.charge(1e-3);
                reliable_send(ep, 0, st, vec![ep.rank() as u8; 64]).unwrap();
                ep.incarnation()
            }
        });
        let results: Vec<u64> = rep.outcomes.into_iter().map(|o| o.unwrap()).collect();
        assert_eq!(results, vec![1 + 2 + 3, 0, 1, 0]);
        assert_eq!(rep.stats.recovery.ranks_recovered, 1);
    }

    /// Heartbeats arm exactly when a supervisor is attached.
    #[test]
    fn heartbeats_arm_exactly_with_a_supervisor() {
        let sp2 = || World::with_model(2, MachineModel::sp2());
        let beats = |world: World| {
            let rep = world.run_result(|ep| {
                if ep.rank() == 0 {
                    ep.send(1, Tag::user(4), vec![1]);
                } else {
                    ep.recv(0, Tag::user(4));
                }
            });
            rep.stats.recovery.heartbeats_sent
        };
        assert!(beats(sp2().with_supervisor(1)) > 0);
        assert_eq!(beats(sp2()), 0);
    }

    /// Two ranks each waiting for the other to speak first: quiescence
    /// with no silence-capable waiter tears the world down with
    /// `Shutdown` instead of hanging.
    #[test]
    fn back_ends_agree_on_deadlock_teardown() {
        let world = World::with_model(2, MachineModel::sp2()).with_trace();
        let rep = assert_back_ends_agree(&world, |ep| {
            ep.recv_result(1 - ep.rank(), Tag::user(5)).map(|_| ())
        });
        assert_eq!(
            rep.outcomes,
            vec![Ok(Err(SimError::Shutdown)), Ok(Err(SimError::Shutdown))]
        );
    }

    /// All-to-one on a 4×4 torus: every send charges the shared link
    /// state, which has no lock of its own — the scheduler's total order
    /// is what makes it the same on both back ends.
    #[test]
    fn back_ends_agree_on_torus_incast() {
        let world = World::with_model(16, MachineModel::sp2())
            .with_topology(Topology::Torus2D { cols: 4, rows: 4 })
            .with_trace();
        let rep = assert_back_ends_agree(&world, |ep| {
            let t = Tag::user(3);
            if ep.rank() == 0 {
                for src in 1..ep.world_size() {
                    assert_eq!(ep.recv(src, t).len(), 4096);
                }
            } else {
                ep.send(0, t, vec![0xA5; 4096]);
            }
            ep.clock()
        });
        assert!(rep.contended_secs > 0.0, "a 15-to-1 incast must queue");
    }
}
