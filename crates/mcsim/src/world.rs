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

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::endpoint::Endpoint;
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::metrics::MetricsRegistry;
use crate::model::{MachineModel, Topology};
use crate::recovery::{CkptStore, RecoveryConfig};
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
    recovery: RecoveryConfig,
    /// Restart budget per rank when a supervisor is attached.
    supervisor: Option<u32>,
    /// World-level checkpoint store; survives rank crashes, and clones of
    /// this world share it (it is the durable half of recovery).
    ckpt: CkptStore,
    topology: Topology,
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

impl<R> RunOutput<R> {
    /// Named metrics (counters + virtual-time histograms) for this run.
    pub fn metrics(&self) -> MetricsRegistry {
        MetricsRegistry::from_run(&self.stats, &self.traces)
    }
}

impl<R> RunReport<R> {
    /// Named metrics (counters + virtual-time histograms) for this run.
    pub fn metrics(&self) -> MetricsRegistry {
        MetricsRegistry::from_run(&self.stats, &self.traces)
    }
}

enum RankOutcome<R> {
    Done(R, f64, StatsSnapshot, Vec<TraceEvent>),
    Panicked(
        Box<dyn std::any::Any + Send>,
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
            recovery: RecoveryConfig::default(),
            supervisor: None,
            ckpt: CkptStore::default(),
            topology: Topology::Crossbar,
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

    /// The interconnect topology in effect.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Override the recovery configuration: the lease-based failure
    /// detector every endpoint runs when `heartbeats` is set.  The default
    /// keeps heartbeats off, so behavior is unchanged unless a caller opts
    /// in.
    pub fn with_recovery_config(mut self, cfg: RecoveryConfig) -> Self {
        assert!(cfg.lease_misses > 0, "lease budget must be positive");
        self.recovery = cfg;
        self
    }

    /// Attach a supervisor: a rank that dies to a *scripted* crash (fault
    /// plan or [`crate::endpoint::Endpoint::arm_crash`]) is respawned in
    /// place up to `max_restarts` times per rank, under a bumped
    /// incarnation, with its endpoint reset for recovery and the
    /// checkpoint store intact.  Panics that are not scripted crashes
    /// (real bugs) still poison the world.
    ///
    /// Arms heartbeats as a side effect: a supervisor restart sends no
    /// poison, so lease eviction is the only thing that wakes survivors
    /// blocked on the crashed rank.  Call
    /// [`World::with_recovery_config`] *after* this to tune (or disarm)
    /// the detector.
    pub fn with_supervisor(mut self, max_restarts: u32) -> Self {
        self.supervisor = Some(max_restarts);
        self.recovery.heartbeats = true;
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

    /// Override the reliable-transport configuration (window size,
    /// chunking, retry policy) every endpoint in this world runs with.
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

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The cost model in effect.
    pub fn model(&self) -> &MachineModel {
        &self.model
    }

    /// The attached fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The recovery configuration in effect.
    pub fn recovery_config(&self) -> &RecoveryConfig {
        &self.recovery
    }

    /// The world-level checkpoint store (shared with every endpoint).
    pub fn checkpoints(&self) -> &CkptStore {
        &self.ckpt
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
                    self.recovery,
                    self.supervisor,
                    self.ckpt.clone(),
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
    /// returned.  Returns the outcomes and the contended link seconds.
    fn execute<F, R>(&self, f: F) -> (Vec<RankOutcome<R>>, f64)
    where
        F: Fn(&mut Endpoint) -> R + Send + Sync,
        R: Send,
    {
        let hub = Arc::new(Hub::new(self.size, self.topology));
        let mut endpoints = self.build_endpoints(&hub);
        let mut outcomes: Vec<Option<RankOutcome<R>>> = (0..self.size).map(|_| None).collect();

        // Raw pointers into `endpoints` / `outcomes`: each task body is
        // the exclusive user of its own rank's slots.  The Vec buffers
        // never move (no pushes after this point).
        struct SendPtr<T>(*mut T);
        // SAFETY: only the one task that owns the slot dereferences it, and
        // on the baton back end (task bodies on their own threads) the
        // baton mutex orders that against this thread's reads after `run`.
        unsafe impl<T> Send for SendPtr<T> {}

        let f = &f;
        let mut bodies: Vec<TaskBody> = Vec::with_capacity(self.size);
        for rank in 0..self.size {
            let ep_ptr = SendPtr(&mut endpoints[rank] as *mut Endpoint);
            let out_ptr = SendPtr(&mut outcomes[rank] as *mut Option<RankOutcome<R>>);
            let body = Box::new(move || {
                let ep_ptr = ep_ptr;
                let out_ptr = out_ptr;
                // SAFETY: this body is the only user of `endpoints[rank]`
                // until `sched::run` returns, and the Vec is not touched
                // (let alone resized) before then.
                let ep: &mut Endpoint = unsafe { &mut *ep_ptr.0 };
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
                let reason = match &result {
                    Ok(_) => None,
                    Err(e) => {
                        let reason = panic_message(e.as_ref());
                        ep.poison_all(&reason);
                        Some(reason)
                    }
                };
                // Snapshot before the service phase, so late protocol
                // traffic never perturbs the reported tail counters.
                let clock = ep.clock();
                let stats = ep.stats_snapshot();
                let trace = ep.take_trace();
                // SAFETY: as for `ep_ptr` — `outcomes[rank]` is this
                // body's alone until `sched::run` returns.
                unsafe {
                    *out_ptr.0 = Some(match result {
                        Ok(r) => RankOutcome::Done(r, clock, stats, trace),
                        Err(e) => RankOutcome::Panicked(
                            e,
                            reason.unwrap_or_default(),
                            clock,
                            stats,
                            trace,
                        ),
                    });
                }
                // Service phase: keep answering protocol traffic until
                // the whole world completes (the scheduler delivers
                // Shutdown exactly then).
                loop {
                    match ep.coop_service_park() {
                        WakeCause::Shutdown => break,
                        _ => ep.coop_service_drain(),
                    }
                }
            });
            let body: Box<dyn FnOnce() + Send> = body;
            // SAFETY: only the scope lifetime is erased (same layout), and
            // `sched::run` below returns only once every task ran to
            // completion, so the borrows inside cannot outlive their
            // owners.
            bodies.push(unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, TaskBody>(body)
            });
        }

        if let Some(e) = crate::sched::run(&hub, bodies) {
            // A panic escaped a task harness (bug in the runner itself):
            // re-raise rather than lose it.
            resume_unwind(e);
        }

        let outcomes = outcomes
            .into_iter()
            .map(|o| o.expect("every task wrote its outcome"))
            .collect();
        (outcomes, hub.contended_secs())
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
        let (outcomes, contended_secs) = self.execute(f);

        let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
        let mut results = Vec::with_capacity(self.size);
        let mut clocks = Vec::with_capacity(self.size);
        let mut locals = Vec::with_capacity(self.size);
        let mut traces = Vec::with_capacity(self.size);
        for o in outcomes {
            match o {
                RankOutcome::Done(r, c, st, tr) => {
                    results.push(r);
                    clocks.push(c);
                    locals.push(st);
                    traces.push(tr);
                }
                RankOutcome::Panicked(e, reason, _, _, _) => {
                    // Prefer the original failure over cascade panics that
                    // ranks raise when they see a peer's poison.
                    let is_cascade = reason.contains(CASCADE_MARKER);
                    match (&panic_payload, is_cascade) {
                        (None, _) => panic_payload = Some(e),
                        (Some(prev), false)
                            if panic_message(prev.as_ref()).contains(CASCADE_MARKER) =>
                        {
                            panic_payload = Some(e)
                        }
                        _ => {}
                    }
                }
            }
        }

        if let Some(p) = panic_payload {
            resume_unwind(p);
        }

        let elapsed = clocks.iter().copied().fold(0.0f64, f64::max);
        RunOutput {
            results,
            clocks,
            elapsed,
            stats: NetStats::from_locals(locals),
            traces,
            contended_secs,
        }
    }

    /// Run `f` on every rank, turning rank panics into per-rank `Err`
    /// outcomes instead of re-panicking — the recoverable counterpart of
    /// [`World::run`] for tests and callers that must observe failures.
    pub fn run_result<F, R>(&self, f: F) -> RunReport<R>
    where
        F: Fn(&mut Endpoint) -> R + Send + Sync,
        R: Send,
    {
        let (outcomes, contended_secs) = self.execute(f);

        let mut report = Vec::with_capacity(self.size);
        let mut clocks = Vec::with_capacity(self.size);
        let mut locals = Vec::with_capacity(self.size);
        let mut traces = Vec::with_capacity(self.size);
        for (rank, o) in outcomes.into_iter().enumerate() {
            match o {
                RankOutcome::Done(r, c, st, tr) => {
                    report.push(Ok(r));
                    clocks.push(c);
                    locals.push(st);
                    traces.push(tr);
                }
                RankOutcome::Panicked(_, reason, c, st, tr) => {
                    report.push(Err(SimError::PeerFailed { rank, reason }));
                    clocks.push(c);
                    locals.push(st);
                    traces.push(tr);
                }
            }
        }
        let elapsed = clocks.iter().copied().fold(0.0f64, f64::max);
        RunReport {
            outcomes: report,
            clocks,
            elapsed,
            stats: NetStats::from_locals(locals),
            traces,
            contended_secs,
        }
    }
}

/// Substring identifying a panic caused by observing a peer's failure
/// rather than an original fault.  Kept in sync with the message raised in
/// [`crate::endpoint::Endpoint::recv`].
pub(crate) const CASCADE_MARKER: &str = "peer rank";

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
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
