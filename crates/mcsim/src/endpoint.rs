//! Per-rank communication endpoint with a deterministic virtual clock.
//!
//! An [`Endpoint`] is what the SPMD closure passed to
//! [`crate::world::World::run`] receives.  It provides:
//!
//! * point-to-point `send`/`recv` by global rank and [`Tag`] (receives always
//!   name their source, which keeps virtual time deterministic),
//! * typed variants via the [`Wire`] codec,
//! * recoverable receive variants (`recv_result`, `recv_t_result`,
//!   `recv_timeout`) that surface peer failure and teardown as
//!   [`SimError`] instead of panicking,
//! * the **virtual clock**: every send/receive advances it per the
//!   [`MachineModel`], and runtime libraries charge modeled computation with
//!   the `charge_*` helpers,
//! * per-destination traffic counters,
//! * when the world carries a [`crate::fault::FaultPlan`], deterministic
//!   fault injection on sends and scripted crashes on communication ops.
//!
//! An endpoint owns everything that is its rank's alone (clock, stash,
//! counters, transport state).  What ranks share — the mailboxes, the
//! scheduler, the topology's link state — is the world's
//! `crate::sched::Hub`, handed to the endpoint at construction: a send
//! is one `Hub::post`, a pump pops this rank's own mailbox, a blocking
//! wait is `Hub::park`.

use std::any::{Any, TypeId};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::error::SimError;
use crate::fault::{FaultPlan, FaultState};
use crate::message::{Body, Message, Rank, DROP_PREFIX};
use crate::model::MachineModel;
use crate::onesided::OnesidedState;
use crate::recovery::{CkptStore, RecoveryConfig, BEAT_INTERVAL};
use crate::reliable::{self, ReliableConfig, ReliableState};
use crate::sched::{Hub, ParkKind, WakeCause};
use crate::span::{ObsState, Phase, SpanId};
use crate::stats::StatsSnapshot;
use crate::tag::Tag;
use crate::trace::{FaultKind, TraceEvent};
use crate::wire::Wire;

/// Most buffers kept in an endpoint's reuse pool; beyond this they are
/// dropped so a burst of large transfers cannot pin memory forever.
const BUF_POOL_CAP: usize = 32;

/// One rank's handle on the simulated machine.
pub struct Endpoint {
    rank: Rank,
    world: usize,
    /// The world's shared state (see [`crate::sched`]): every rank's
    /// mailbox, the scheduler this rank's task parks on, and the
    /// topology's link state.
    hub: Arc<Hub>,
    /// Messages popped from the mailbox but not yet matched by a `recv`.
    pub(crate) stash: VecDeque<Message>,
    pub(crate) clock: f64,
    pub(crate) model: MachineModel,
    pub(crate) stats: StatsSnapshot,
    /// Observability state: the always-on bounded flight recorder, span
    /// bookkeeping, and (when tracing is enabled) the full timeline.
    obs: ObsState,
    /// Reusable byte buffers.  Sends take from here; receives recycle
    /// decoded payloads back, so a steady-state exchange loop (the
    /// executor's `data_move`) allocates no fresh wire buffers.
    buf_pool: Vec<Vec<u8>>,
    /// Fault-injection state, present when the world has a `FaultPlan`.
    faults: Option<FaultState>,
    /// Latched peer failure: once a poison message is seen, every
    /// subsequent receive fails with the same `PeerFailed`.
    pub(crate) poisoned: Option<(Rank, String)>,
    /// Reliable-transport stream state (see [`crate::reliable`]).
    pub(crate) rel: ReliableState,
    /// One-sided (exposed-window put/get) state (see [`crate::onesided`]).
    pub(crate) os: OnesidedState,
    /// Virtual-clock deadline for the whole run, when the world was built
    /// with [`crate::world::World::with_deadline`].  Blocking pumps check
    /// it and fail with [`SimError::DeadlineExceeded`] instead of waiting
    /// forever.
    deadline: Option<f64>,
    /// Recovery knobs (heartbeats on/off, lease budget).
    pub(crate) recovery: RecoveryConfig,
    /// True when the world was built with a supervisor.
    supervised: bool,
    /// Scripted-crash restarts this rank may still consume.
    restarts_left: u32,
    /// This rank's incarnation: 0 for the first life, bumped once per
    /// supervisor restart.
    incarnation: u64,
    /// Highest incarnation observed per peer (via heartbeats).
    peer_inc: Vec<u64>,
    /// Monotone count of messages this endpoint has routed, used to stamp
    /// `peer_seen`.  A logical counter instead of wall-clock `Instant`s:
    /// the lease detector's "have I heard from this peer since I last
    /// looked?" question needs order, not time, and a logical stamp is
    /// deterministic under the cooperative scheduler.
    route_epoch: u64,
    /// `route_epoch` value when a frame from each peer was last routed —
    /// the lease detector's liveness evidence.
    peer_seen: Vec<u64>,
    /// Incarnation baseline snapshotted by [`Endpoint::arm_eviction`]:
    /// while armed, waits fail with `PeerEvicted` when a peer is observed
    /// restarting past its baseline.  `None` (default) disables it.
    evict_base: Option<Vec<u64>>,
    /// Virtual time of the last heartbeat broadcast.
    last_beat: f64,
    /// Crash armed at runtime (see [`Endpoint::arm_crash`]); fires like a
    /// fault-plan crash.
    armed_crash: Option<f64>,
    /// Handle on the world-level checkpoint store.
    ckpt: CkptStore,
    /// Per-rank scratch slots for higher layers (see [`Endpoint::scratch`]).
    scratch: HashMap<(TypeId, u32), Box<dyn Any + Send>>,
}

impl Endpoint {
    // One internal call site (world spawn); the argument list mirrors the
    // world's configuration knobs one-to-one.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rank: Rank,
        world: usize,
        hub: Arc<Hub>,
        model: MachineModel,
        faults: Option<&FaultPlan>,
        rel_cfg: ReliableConfig,
        deadline: Option<f64>,
        recovery: RecoveryConfig,
        supervisor: Option<u32>,
        ckpt: CkptStore,
    ) -> Self {
        Endpoint {
            rank,
            world,
            hub,
            stash: VecDeque::new(),
            clock: 0.0,
            model,
            stats: StatsSnapshot::new(world),
            obs: {
                let mut obs = ObsState::default();
                // Large worlds shrink the per-rank flight recorder so
                // aggregate post-mortem memory stays bounded: 64 events
                // per rank is cheap at P=16 and dominant at P=1024.
                if world > 256 {
                    obs.flight.set_cap(crate::span::FLIGHT_RING_CAP / 4);
                }
                obs
            },
            buf_pool: Vec::new(),
            faults: faults.map(|p| FaultState::new(p.clone(), rank)),
            poisoned: None,
            rel: ReliableState::new(rel_cfg),
            os: OnesidedState::default(),
            deadline,
            recovery,
            supervised: supervisor.is_some(),
            restarts_left: supervisor.unwrap_or(0),
            incarnation: 0,
            peer_inc: vec![0; world],
            route_epoch: 0,
            peer_seen: vec![0; world],
            evict_base: None,
            last_beat: f64::NEG_INFINITY,
            armed_crash: None,
            ckpt,
            scratch: HashMap::new(),
        }
    }

    /// Per-rank scratch storage for higher layers.  This replaces
    /// `thread_local!` rank state, which silently breaks when one OS
    /// thread hosts many ranks (a thread-local is shared across ranks and
    /// leaks across runs).  Slots are keyed by `(type, key)` and
    /// default-initialized on first access; a slot lives as long as this
    /// endpoint — one `World::run` — and survives supervisor restarts.
    pub fn scratch<T: Any + Send + Default>(&mut self, key: u32) -> &mut T {
        self.scratch
            .entry((TypeId::of::<T>(), key))
            .or_insert_with(|| Box::<T>::default())
            .downcast_mut::<T>()
            .expect("slot type is fixed by its TypeId key")
    }

    /// Post-increment a per-rank `u32` sequence counter held in scratch
    /// slot `key` (the SPMD-consistent schedule numbering every runtime
    /// library layer uses).
    pub fn next_seq(&mut self, key: u32) -> u32 {
        let c: &mut u32 = self.scratch(key);
        let v = *c;
        *c = v.wrapping_add(1);
        v
    }

    /// Arrival time of `bytes` departing for `to` at `depart`, over the
    /// world's topology.
    fn arrival_for(&mut self, to: Rank, bytes: usize, depart: f64) -> f64 {
        self.hub.transit(&self.model, self.rank, to, bytes, depart)
    }

    /// Park the current task and report why it was resumed.
    fn coop_park(&mut self, kind: ParkKind) -> WakeCause {
        self.hub.park(self.rank, kind, self.clock)
    }

    /// Start recording the full communication timeline (see
    /// [`crate::trace`]).  The bounded flight recorder runs regardless;
    /// this turns on the unbounded event vector the exporters consume.
    pub fn enable_trace(&mut self) {
        if self.obs.events.is_none() {
            self.obs.events = Some(Vec::new());
        }
    }

    /// Stop recording and return the events captured so far (empty if
    /// tracing was never enabled).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.obs.events.take().unwrap_or_default()
    }

    /// True while the full timeline is being recorded.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.obs.events.is_some()
    }

    /// Open a phase span at the current virtual time (see [`crate::span`]).
    /// `detail` supplies free-form provenance (`seq=… strategy=…`).
    /// Close it with [`Endpoint::span_end`] — including on error paths,
    /// or the span is left with zero duration in exports.
    pub fn span_begin<F: FnOnce() -> String>(&mut self, phase: Phase, detail: F) -> SpanId {
        let id = self.obs.alloc_id();
        let parent = self.obs.parent();
        let ev = TraceEvent::SpanBegin {
            at: self.clock,
            id,
            parent,
            phase,
            detail: detail(),
        };
        self.obs.push(ev);
        self.obs.stack.push(id);
        id
    }

    /// Close a span opened by [`Endpoint::span_begin`].  Inner spans still
    /// open (an error path skipped their end) are force-popped so the
    /// parent chain stays consistent.
    pub fn span_end(&mut self, id: SpanId) {
        if let Some(pos) = self.obs.stack.iter().rposition(|&s| s == id) {
            self.obs.stack.truncate(pos);
        }
        self.obs.push(TraceEvent::SpanEnd { at: self.clock, id });
    }

    /// Record a point annotation at the current virtual time (cache
    /// hit/miss, verdicts, timeouts, port bindings).
    pub fn mark<F: FnOnce() -> String>(&mut self, label: F) {
        let ev = TraceEvent::Mark {
            at: self.clock,
            label: label(),
        };
        self.obs.push(ev);
    }

    /// Snapshot of the flight recorder: the last
    /// [`crate::span::FLIGHT_RING_CAP`] events, oldest first.
    pub fn flight_dump(&self) -> Vec<TraceEvent> {
        self.obs.flight.snapshot()
    }

    /// This rank's global index.
    #[inline]
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn world_size(&self) -> usize {
        self.world
    }

    /// The machine cost model in effect.
    #[inline]
    pub fn model(&self) -> &MachineModel {
        &self.model
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// True when a fault plan is active on this world.
    #[inline]
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// The reliable-transport configuration this world runs with (window,
    /// chunking, retry policy).
    #[inline]
    pub fn reliable_config(&self) -> &ReliableConfig {
        self.rel.config()
    }

    /// Charge `seconds` of modeled computation to this rank.
    #[inline]
    pub fn charge(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "negative charge");
        self.clock += seconds;
    }

    /// Advance the virtual clock to at least `t` (no-op if already past).
    ///
    /// Used by synchronization points: after a barrier every rank's clock is
    /// moved to the barrier's completion time.
    #[inline]
    pub fn advance_to(&mut self, t: f64) {
        if t > self.clock {
            self.clock = t;
        }
    }

    /// Charge `n` floating-point operations.
    #[inline]
    pub fn charge_flops(&mut self, n: usize) {
        self.clock += n as f64 * self.model.flop_cost;
    }

    /// Charge `n` distributed-directory (translation-table) probes — the
    /// expensive Chaos dereference path.
    #[inline]
    pub fn charge_deref(&mut self, n: usize) {
        self.clock += n as f64 * self.model.deref_local_cost;
    }

    /// Charge `n` closed-form owner computations (block/cyclic arithmetic).
    #[inline]
    pub fn charge_owner_calc(&mut self, n: usize) {
        self.clock += n as f64 * self.model.owner_calc_cost;
    }

    /// Charge `n` extra indirect memory accesses (`x[ia[i]]`-style).
    #[inline]
    pub fn charge_indirect(&mut self, n: usize) {
        self.clock += n as f64 * self.model.indirect_cost;
    }

    /// Charge copying `bytes` through memory (pack/unpack, buffer staging).
    #[inline]
    pub fn charge_copy_bytes(&mut self, bytes: usize) {
        self.clock += bytes as f64 * self.model.byte_copy_cost;
    }

    /// Charge inserting `n` entries into schedule data structures.
    #[inline]
    pub fn charge_schedule_insert(&mut self, n: usize) {
        self.clock += n as f64 * self.model.schedule_insert_cost;
    }

    /// Traffic counters accumulated so far (messages/bytes per destination).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats.clone()
    }

    /// Count a schedule-cache lookup (`hit = true` when a memoized schedule
    /// was reused instead of re-running the inspector).
    pub fn record_sched_cache(&mut self, hit: bool) {
        self.stats.record_sched_cache(hit);
    }

    /// Count a data half staged on the receive side of a transactional
    /// transfer (see [`crate::stats::SessionStats`]).
    pub fn record_staged_frame(&mut self) {
        self.stats.session.frames_staged += 1;
    }

    /// Count a coupled transfer aborted before touching the destination.
    pub fn record_transfer_aborted(&mut self) {
        self.stats.session.transfers_aborted += 1;
    }

    /// Count a replayed data half discarded by transfer-epoch dedup.
    pub fn record_stale_half(&mut self) {
        self.stats.session.stale_halves_dropped += 1;
    }

    /// Count a stale-schedule rejection reported by an executor.
    pub fn record_stale_schedule(&mut self) {
        self.stats.session.stale_schedules += 1;
    }

    /// Count a coupled transfer whose staged halves were committed into
    /// the destination (the exactly-once counterpart of
    /// [`Endpoint::record_transfer_aborted`]).
    pub fn record_transfer_committed(&mut self) {
        self.stats.session.transfers_committed += 1;
    }

    /// Count `parts` already-committed transfer parts that were
    /// re-received and discarded during a resume, with the matching
    /// trace event (one per absorbed half).
    pub fn record_parts_replayed(&mut self, from: Rank, parts: usize) {
        self.stats.recovery.parts_replayed += parts as u64;
        let at = self.clock;
        self.trace_push(TraceEvent::PartReplayed { at, from, parts });
    }

    /// Take an empty byte buffer, reusing pooled capacity when available.
    pub fn take_buf(&mut self) -> Vec<u8> {
        self.buf_pool.pop().unwrap_or_default()
    }

    /// Return a buffer to the pool for reuse (cleared, capacity kept).
    pub fn recycle_buf(&mut self, mut buf: Vec<u8>) {
        if self.buf_pool.len() < BUF_POOL_CAP && buf.capacity() > 0 {
            buf.clear();
            self.buf_pool.push(buf);
        }
    }

    /// Fire a scripted crash if the fault plan (or a runtime-armed crash)
    /// says this rank's time has come.  Called on entry to every
    /// communication operation — which also makes it the natural place to
    /// piggyback heartbeat broadcasts: a rank that stopped performing
    /// communication operations stops beating, and that is exactly the
    /// silence the lease detector exists to notice.
    pub(crate) fn check_crash(&mut self) {
        self.maybe_beat();
        if let Some(t) = self.armed_crash {
            if self.clock >= t {
                // Disarm before dying so a supervised restart does not
                // immediately re-fire the same crash.
                self.armed_crash = None;
                panic!("rank {} crashed by fault plan at t={t:.6}", self.rank);
            }
        }
        if let Some(f) = &mut self.faults {
            if let Some(t) = f.crash_due(self.clock) {
                panic!("rank {} crashed by fault plan at t={t:.6}", self.rank);
            }
        }
    }

    /// Arm a one-shot crash at virtual time `at` (same panic shape as a
    /// fault-plan crash, so the supervisor treats both alike).  Used by
    /// harnesses that decide crash points at runtime.
    pub fn arm_crash(&mut self, at: f64) {
        self.armed_crash = Some(at);
    }

    /// This rank's incarnation: 0 until a supervisor restart bumps it.
    #[inline]
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Highest incarnation observed for `rank` (via heartbeats).
    #[inline]
    pub fn peer_incarnation(&self, rank: Rank) -> u64 {
        self.peer_inc[rank]
    }

    /// True when the world was built with a supervisor
    /// (see [`crate::world::World::with_supervisor`]).
    #[inline]
    pub fn supervised(&self) -> bool {
        self.supervised
    }

    /// The recovery configuration this world runs with.
    #[inline]
    pub fn recovery_config(&self) -> &RecoveryConfig {
        &self.recovery
    }

    /// Snapshot the current peer-incarnation vector as an eviction
    /// baseline: until [`Endpoint::disarm_eviction`], any wait that
    /// observes a peer restarting past this baseline fails with
    /// [`SimError::PeerEvicted`] instead of blocking on a peer whose old
    /// life will never answer.
    pub fn arm_eviction(&mut self) {
        self.evict_base = Some(self.peer_inc.clone());
    }

    /// Drop the eviction baseline armed by [`Endpoint::arm_eviction`].
    pub fn disarm_eviction(&mut self) {
        self.evict_base = None;
    }

    /// Heal dead reliable streams keyed to `peer` so a session-layer
    /// retry can reopen them from seq 0.  A give-up (ours, or a stale
    /// GIVEUP frame that crossed the peer's restart) otherwise leaves a
    /// permanently dead stream that wedges every subsequent attempt.
    /// Live streams are untouched: within one life their sequence space
    /// is still coherent.
    pub fn clear_dead_streams(&mut self, peer: Rank) {
        self.rel.clear_dead(peer);
    }

    /// Checkpoint serialized bytes under `key` for this rank.
    pub fn ckpt_put(&mut self, key: &str, bytes: Vec<u8>) {
        self.ckpt.put(self.rank, key, bytes);
    }

    /// Checkpoint serialized bytes plus a typed in-memory snapshot that
    /// [`Endpoint::ckpt_state`] can restore by clone.
    pub fn ckpt_put_state<T: Any + Send>(&mut self, key: &str, bytes: Vec<u8>, state: T) {
        self.ckpt.put_with_state(self.rank, key, bytes, state);
    }

    /// This rank's checkpointed bytes under `key`, if any.
    pub fn ckpt_bytes(&self, key: &str) -> Option<Vec<u8>> {
        self.ckpt.bytes(self.rank, key)
    }

    /// A clone of this rank's typed checkpoint snapshot under `key`.
    pub fn ckpt_state<T: Any + Clone>(&self, key: &str) -> Option<T> {
        self.ckpt.state(self.rank, key)
    }

    /// True when this rank has a checkpoint under `key`.
    pub fn ckpt_has(&self, key: &str) -> bool {
        self.ckpt.has(self.rank, key)
    }

    /// Broadcast a heartbeat if the configured virtual-clock cadence says
    /// one is due.  No-op unless heartbeats are armed.
    pub(crate) fn maybe_beat(&mut self) {
        if !self.recovery.heartbeats || self.world < 2 {
            return;
        }
        if self.clock < self.last_beat + BEAT_INTERVAL {
            return;
        }
        self.broadcast_beat();
    }

    /// Broadcast one heartbeat (NIC plane, uncharged) carrying this
    /// rank's incarnation.  Exactly one `Heartbeat` trace event and one
    /// `heartbeats_sent` tick per broadcast, whatever the world size.
    pub(crate) fn broadcast_beat(&mut self) {
        let at = self.clock;
        let incarnation = self.incarnation;
        self.stats.recovery.heartbeats_sent += 1;
        self.trace_push(TraceEvent::Heartbeat { at, incarnation });
        let tag = crate::onesided::beat_tag();
        for to in 0..self.world {
            if to == self.rank {
                continue;
            }
            let mut buf = Vec::with_capacity(17);
            buf.push(crate::onesided::K_BEAT);
            buf.extend_from_slice(&incarnation.to_le_bytes());
            buf.extend_from_slice(&at.to_le_bytes());
            self.nic_send(to, tag, buf, at);
        }
        self.last_beat = at;
    }

    /// Record a peer's incarnation learned from a heartbeat.  A bump
    /// means the peer restarted: reliable streams still keyed to its old
    /// life can only ever deliver stale frames, so they are purged.
    pub(crate) fn note_peer_incarnation(&mut self, from: Rank, inc: u64) {
        if inc > self.peer_inc[from] {
            self.peer_inc[from] = inc;
            self.rel.purge_peer(from);
        }
    }

    /// Fail with [`SimError::PeerEvicted`] when an armed eviction
    /// baseline shows `from` restarted since the baseline was taken.
    pub(crate) fn check_evicted(&mut self, from: Rank) -> Result<(), SimError> {
        if let Some(base) = &self.evict_base {
            if self.peer_inc[from] > base[from] {
                return Err(SimError::PeerEvicted {
                    rank: from,
                    incarnation: self.peer_inc[from],
                });
            }
        }
        Ok(())
    }

    /// Pump one message on behalf of a wait against peer `from`,
    /// enforcing the failure detector.  With heartbeats off this is
    /// exactly [`Endpoint::pump_one`] (plus the incarnation check, which
    /// is inert unless armed).  With heartbeats on, the blocking receive
    /// becomes lease windows — one per quiescence of the world: `misses`
    /// (caller-held, one per wait) counts consecutive windows in which
    /// `from` stayed silent, and crossing the configured budget evicts
    /// the peer.
    pub(crate) fn pump_guarded(&mut self, from: Rank, misses: &mut u32) -> Result<(), SimError> {
        self.check_evicted(from)?;
        if !self.recovery.heartbeats {
            return self.pump_one();
        }
        self.maybe_beat();
        if let Some(d) = self.deadline {
            if self.clock > d {
                let clock = self.clock;
                self.mark(move || format!("deadline exceeded clock={clock:.6} limit={d:.6}"));
                return Err(SimError::DeadlineExceeded);
            }
        }
        let before = self.peer_seen[from];
        let got = self.pump_some()?;
        self.check_evicted(from)?;
        if self.peer_seen[from] > before {
            *misses = 0;
        } else if !got {
            // A rank blocked in a receive wait does not advance its
            // virtual clock, so the virtual-cadence beat goes silent
            // exactly when peers most need liveness (and incarnation)
            // evidence.  Re-announce once per silent window:
            // a recovered life whose only activity is waiting keeps its
            // new incarnation flowing, and peers un-wedge streams still
            // keyed to the old one.
            self.broadcast_beat();
            *misses += 1;
            if *misses >= self.recovery.lease_misses {
                self.stats.recovery.leases_expired += 1;
                let at = self.clock;
                let incarnation = self.peer_inc[from];
                self.trace_push(TraceEvent::LeaseExpired {
                    at,
                    rank: from,
                    incarnation,
                });
                return Err(SimError::PeerEvicted {
                    rank: from,
                    incarnation,
                });
            }
        }
        Ok(())
    }

    /// Supervisor hook: consume one restart if `reason` is a scripted
    /// crash and budget remains.  Returns true when the rank closure
    /// should be re-invoked on this (reset) endpoint.
    pub(crate) fn try_restart(&mut self, reason: &str) -> bool {
        if self.restarts_left == 0 || !reason.contains("crashed by fault plan") {
            return false;
        }
        self.restarts_left -= 1;
        self.reset_for_recovery();
        true
    }

    /// Reset this endpoint for a new life: bump the incarnation, discard
    /// every frame and stream belonging to the old one, and announce the
    /// restart with an immediate heartbeat.  The clock, traffic counters,
    /// trace, and peer-incarnation knowledge all survive — a restart is a
    /// continuation of the same simulated rank, not a new rank.
    pub(crate) fn reset_for_recovery(&mut self) {
        self.incarnation += 1;
        self.poisoned = None;
        // Drain the mailbox: everything queued was addressed to the dead
        // life.  Poison still latches — a *real* peer failure must not be
        // swallowed by our own restart.
        while let Some(msg) = self.hub.pop(self.rank) {
            match msg {
                Message {
                    src,
                    body: Body::Poison(reason),
                    ..
                } => self.poisoned = Some((src, reason)),
                // A peer's restart announcement must survive *our*
                // restart: discarding it with the rest of the dead
                // life's mail would leave that peer's incarnation
                // unknown and every reliable stream to it wedged on
                // old sequence state.
                Message {
                    src,
                    tag,
                    body: Body::Data(b),
                    ..
                } if tag == crate::onesided::beat_tag()
                    && b.len() >= 17
                    && b[0] == crate::onesided::K_BEAT =>
                {
                    let inc = u64::from_le_bytes(b[1..9].try_into().unwrap());
                    self.note_peer_incarnation(src, inc);
                }
                _ => {}
            }
        }
        self.stash.clear();
        self.rel.purge_all();
        self.os.reset_keep_reqs();
        self.armed_crash = None;
        self.evict_base = None;
        self.obs.stack.clear();
        self.stats.recovery.ranks_recovered += 1;
        let at = self.clock;
        let rank = self.rank;
        let incarnation = self.incarnation;
        self.trace_push(TraceEvent::Recovered {
            at,
            rank,
            incarnation,
        });
        // Peers purge streams keyed to the old life when this beat lands.
        self.broadcast_beat();
    }

    pub(crate) fn trace_push(&mut self, ev: TraceEvent) {
        self.obs.push(ev);
    }

    /// Send `payload` to global rank `to` with `tag`.
    ///
    /// Charges the sender's clock and stamps the message with its arrival
    /// time at the receiver.  Sending to self is allowed (the message loops
    /// through this rank's own mailbox).
    pub fn send(&mut self, to: Rank, tag: Tag, payload: Vec<u8>) {
        assert!(to < self.world, "send to rank {to} of {}", self.world);
        self.check_crash();
        let bytes = payload.len();
        self.clock += self.model.send_cost(bytes);
        let at = self.clock;
        let arrival = self.arrival_for(to, bytes, at);
        self.send_at(to, tag, payload, at, arrival);
    }

    /// NIC-plane send used by the reliable protocol: timestamps are derived
    /// from the triggering message's arrival, and nothing is charged to
    /// this rank's program-order clock — acks and retransmits happen "in
    /// the network", so virtual time stays deterministic no matter when the
    /// protocol pump actually drains the triggering event.
    pub(crate) fn nic_send(&mut self, to: Rank, tag: Tag, payload: Vec<u8>, at: f64) {
        let arrival = self.arrival_for(to, payload.len(), at);
        self.send_at(to, tag, payload, at, arrival);
    }

    /// The physical sender: applies fault injection, records stats/trace,
    /// and posts one or two message copies with the given timestamps.
    fn send_at(&mut self, to: Rank, tag: Tag, mut payload: Vec<u8>, at: f64, arrival: f64) {
        let bytes = payload.len();
        let draw = self
            .faults
            .as_mut()
            .and_then(|f| f.draw(self.rank, to, tag, bytes));
        let Some(draw) = draw else {
            // Clean fast path — identical to the unfaulted sender.
            self.stats.record(to, bytes);
            self.trace_push(TraceEvent::Send {
                at,
                to,
                tag,
                bytes,
                arrival,
            });
            let msg = Message {
                src: self.rank,
                tag,
                body: Body::Data(payload),
                arrival,
            };
            self.hub.post(to, msg);
            return;
        };
        let n = draw.copies.len();
        for (i, fate) in draw.copies.iter().enumerate() {
            let mut copy = if i + 1 == n {
                std::mem::take(&mut payload)
            } else {
                payload.clone()
            };
            if i > 0 {
                self.stats.faults.dups_injected += 1;
                self.trace_push(TraceEvent::Fault {
                    at,
                    kind: FaultKind::Duplicate,
                    to,
                    tag,
                    bytes,
                });
            }
            let mut copy_arrival = arrival;
            if fate.extra_delay > 0.0 {
                copy_arrival += fate.extra_delay;
                self.stats.faults.delays_injected += 1;
                self.trace_push(TraceEvent::Fault {
                    at,
                    kind: FaultKind::Delay,
                    to,
                    tag,
                    bytes,
                });
            }
            let body = if fate.drop {
                self.stats.faults.drops_injected += 1;
                self.trace_push(TraceEvent::Fault {
                    at,
                    kind: FaultKind::Drop,
                    to,
                    tag,
                    bytes,
                });
                Body::Dropped {
                    orig_len: bytes,
                    prefix: copy[..bytes.min(DROP_PREFIX)].to_vec(),
                }
            } else {
                if let Some(bit) = fate.corrupt_bit {
                    copy[bit / 8] ^= 1 << (bit % 8);
                    self.stats.faults.corrupts_injected += 1;
                    self.trace_push(TraceEvent::Fault {
                        at,
                        kind: FaultKind::Corrupt,
                        to,
                        tag,
                        bytes,
                    });
                }
                Body::Data(copy)
            };
            self.stats.record(to, bytes);
            self.trace_push(TraceEvent::Send {
                at,
                to,
                tag,
                bytes,
                arrival: copy_arrival,
            });
            let msg = Message {
                src: self.rank,
                tag,
                body,
                arrival: copy_arrival,
            };
            self.hub.post(to, msg);
        }
    }

    /// Typed send: encodes `value` with the [`Wire`] codec into a pooled
    /// buffer.
    pub fn send_t<T: Wire>(&mut self, to: Rank, tag: Tag, value: &T) {
        let mut buf = self.take_buf();
        value.write(&mut buf);
        self.send(to, tag, buf);
    }

    /// Route one message that just came off the wire: latch poison, feed
    /// reliable-protocol frames to the transport (which acks/nacks them
    /// eagerly), stash everything else.
    fn route_msg(&mut self, msg: Message) -> Result<(), SimError> {
        if let Body::Poison(reason) = &msg.body {
            let p = (msg.src, reason.clone());
            self.poisoned = Some(p.clone());
            return Err(SimError::PeerFailed {
                rank: p.0,
                reason: p.1,
            });
        }
        // Any frame is liveness evidence for its sender's lease.
        self.route_epoch += 1;
        self.peer_seen[msg.src] = self.route_epoch;
        if let Some(m) = reliable::intake(self, msg) {
            self.stash.push_back(m);
        }
        Ok(())
    }

    /// Route everything already waiting in this rank's mailbox, returning
    /// how many messages were handled.  The pump primitive: popping never
    /// blocks, parking does.
    fn drain_ready(&mut self) -> Result<usize, SimError> {
        if let Some((rank, reason)) = &self.poisoned {
            return Err(SimError::PeerFailed {
                rank: *rank,
                reason: reason.clone(),
            });
        }
        let mut n = 0;
        while let Some(msg) = self.hub.pop(self.rank) {
            match self.route_msg(msg) {
                Ok(()) => n += 1,
                // Poison is latched by `route_msg`; messages routed
                // ahead of it stay consumable first (FIFO: a message
                // sent before the sender died is delivered before its
                // poison).  Only a batch *led* by poison fails the
                // drain itself.
                Err(e) => return if n == 0 { Err(e) } else { Ok(n) },
            }
        }
        Ok(n)
    }

    /// Wait for at least one message from the wire and route what
    /// arrived: drain what is there, else park until a message (or
    /// deterministic teardown) wakes this task.
    ///
    /// When a world deadline is armed, both halves of "hung" are bounded:
    /// a virtual clock already past the deadline fails immediately, and
    /// so does a silence wake — the world went quiescent, and a peer that
    /// will never send cannot advance our virtual clock.
    pub(crate) fn pump_one(&mut self) -> Result<(), SimError> {
        loop {
            if self.drain_ready()? > 0 {
                return Ok(());
            }
            if let Some(d) = self.deadline {
                if self.clock > d {
                    let clock = self.clock;
                    self.mark(move || format!("deadline exceeded clock={clock:.6} limit={d:.6}"));
                    return Err(SimError::DeadlineExceeded);
                }
            }
            let expiry = self.deadline.unwrap_or(f64::INFINITY);
            match self.coop_park(ParkKind::Wait { expiry }) {
                WakeCause::Message => continue,
                WakeCause::Silence => {
                    let clock = self.clock;
                    self.mark(move || {
                        format!("deadline silence clock={clock:.6} limit={expiry:.6}")
                    });
                    return Err(SimError::DeadlineExceeded);
                }
                WakeCause::Shutdown => return Err(SimError::Shutdown),
            }
        }
    }

    /// Route what arrives within one *silence window*: `Ok(true)` when a
    /// message was handled, `Ok(false)` on silence — the caller decides
    /// what silence means (the one-sided get retries its unprotected
    /// control-plane request, the lease detector counts a miss).  Silence
    /// is observed exactly: the scheduler delivers the wake at global
    /// quiescence, the only virtual instant at which nothing can arrive
    /// any more.
    pub(crate) fn pump_some(&mut self) -> Result<bool, SimError> {
        if self.drain_ready()? > 0 {
            return Ok(true);
        }
        let now = self.clock;
        match self.coop_park(ParkKind::Wait { expiry: now }) {
            WakeCause::Message => {
                self.drain_ready()?;
                Ok(true)
            }
            WakeCause::Silence => Ok(false),
            WakeCause::Shutdown => Err(SimError::Shutdown),
        }
    }

    /// Route everything already waiting in the mailbox without blocking.
    fn pump_ready(&mut self) -> Result<(), SimError> {
        self.drain_ready().map(|_| ())
    }

    fn stash_match(&self, from: Rank, tag: Tag) -> Option<usize> {
        // Raw receives only ever match real data; drop tombstones and
        // reliable frames are the transport's business.
        self.stash
            .iter()
            .position(|m| m.src == from && m.tag == tag && matches!(m.body, Body::Data(_)))
    }

    /// Receive the next message from `from` with `tag`, surfacing peer
    /// failure and world teardown as [`SimError`] instead of panicking.
    ///
    /// Advances the virtual clock to `max(now, arrival) + recv cost` on
    /// success.
    pub fn recv_result(&mut self, from: Rank, tag: Tag) -> Result<Vec<u8>, SimError> {
        assert!(from < self.world, "recv from rank {from} of {}", self.world);
        self.check_crash();
        loop {
            if let Some(idx) = self.stash_match(from, tag) {
                let msg = self.stash.remove(idx).expect("index valid");
                return Ok(self.accept(msg));
            }
            self.pump_one()?;
        }
    }

    /// Typed variant of [`Endpoint::recv_result`]; decode failures surface
    /// as [`SimError::Decode`].
    pub fn recv_t_result<T: Wire>(&mut self, from: Rank, tag: Tag) -> Result<T, SimError> {
        let bytes = self.recv_result(from, tag)?;
        let decoded = T::from_bytes(&bytes);
        self.recycle_buf(bytes);
        decoded
    }

    /// Receive with a deadline of `timeout` seconds of *virtual* time from
    /// now.  A message whose modeled arrival is past the deadline is left
    /// stashed (a later plain `recv` can still take it) and
    /// [`SimError::PeerTimeout`] is returned with the clock advanced to the
    /// deadline.  Because virtual time only moves when messages do, a peer
    /// that never sends at all is detected by the world going quiescent
    /// (`kind=silence`) rather than by the virtual deadline passing.
    pub fn recv_timeout(
        &mut self,
        from: Rank,
        tag: Tag,
        timeout: f64,
    ) -> Result<Vec<u8>, SimError> {
        assert!(from < self.world, "recv from rank {from} of {}", self.world);
        self.check_crash();
        let deadline = self.clock + timeout;
        loop {
            self.pump_ready()?;
            if let Some(idx) = self.stash_match(from, tag) {
                if self.stash[idx].arrival <= deadline {
                    let msg = self.stash.remove(idx).expect("index valid");
                    return Ok(self.accept(msg));
                }
                self.stats.faults.timeouts += 1;
                self.advance_to(deadline);
                self.mark(|| format!("timeout peer={from} tag={tag:?} kind=late-arrival"));
                return Err(SimError::PeerTimeout { rank: from });
            }
            match self.coop_park(ParkKind::Wait { expiry: deadline }) {
                WakeCause::Message => continue,
                WakeCause::Silence => {
                    self.stats.faults.timeouts += 1;
                    self.advance_to(deadline);
                    self.mark(|| format!("timeout peer={from} tag={tag:?} kind=silence"));
                    return Err(SimError::PeerTimeout { rank: from });
                }
                WakeCause::Shutdown => return Err(SimError::Shutdown),
            }
        }
    }

    /// Turn a [`SimError`] into the legacy panic for SPMD-internal paths,
    /// preserving the exact messages the cascade detector keys on.
    fn panic_sim(&self, e: SimError, from: Rank, tag: Tag) -> ! {
        match e {
            SimError::PeerFailed { rank, reason } => {
                panic!("rank {}: peer rank {} failed: {reason}", self.rank, rank)
            }
            SimError::Shutdown => panic!(
                "rank {}: world tore down while waiting for message from {from} tag {tag:?}",
                self.rank
            ),
            SimError::Decode(e) => panic!(
                "rank {}: decode of message from {from} tag {tag:?} failed: {e}",
                self.rank
            ),
            SimError::PeerTimeout { rank } => {
                panic!("rank {}: timed out waiting for rank {rank}", self.rank)
            }
            SimError::PeerEvicted { rank, incarnation } => panic!(
                "rank {}: evicted rank {rank} (incarnation {incarnation})",
                self.rank
            ),
            SimError::DeadlineExceeded => panic!(
                "rank {}: virtual-clock deadline exceeded waiting for {from} tag {tag:?}",
                self.rank
            ),
        }
    }

    /// Receive the next message from `from` with `tag` (blocking).
    ///
    /// Advances the virtual clock to `max(now, arrival) + recv cost`.
    ///
    /// # Panics
    /// Panics if a peer rank failed (poison received) — the simulation
    /// cannot meaningfully continue, mirroring an MPI job abort.  Use
    /// [`Endpoint::recv_result`] to observe the failure instead.
    pub fn recv(&mut self, from: Rank, tag: Tag) -> Vec<u8> {
        match self.recv_result(from, tag) {
            Ok(v) => v,
            Err(e) => self.panic_sim(e, from, tag),
        }
    }

    /// Non-blocking receive: returns the payload if a matching message has
    /// already arrived, without waiting.  Virtual time advances only on a
    /// successful match (a failed probe is free, as with `MPI_Iprobe`).
    pub fn try_recv(&mut self, from: Rank, tag: Tag) -> Option<Vec<u8>> {
        self.check_crash();
        if !self.probe(from, tag) {
            return None;
        }
        let idx = self.stash_match(from, tag)?;
        let msg = self.stash.remove(idx).expect("index valid");
        Some(self.accept(msg))
    }

    /// True if a matching message has already arrived (non-blocking).
    ///
    /// Under the virtual clock, "has a message already arrived" only has
    /// a stable answer at quiescence, so a miss parks until either a
    /// matching message arrives (true) or nothing can ever arrive without
    /// this rank acting (false) — a poll never races real delivery.
    pub fn probe(&mut self, from: Rank, tag: Tag) -> bool {
        self.drain_mailbox(from, tag);
        loop {
            if self.stash_match(from, tag).is_some() {
                return true;
            }
            let now = self.clock;
            match self.coop_park(ParkKind::Wait { expiry: now }) {
                WakeCause::Message => self.drain_mailbox(from, tag),
                WakeCause::Silence => return false,
                WakeCause::Shutdown => self.panic_sim(SimError::Shutdown, from, tag),
            }
        }
    }

    /// Move everything waiting in the mailbox into the stash, surfacing
    /// poison immediately (panicking path).
    fn drain_mailbox(&mut self, from: Rank, tag: Tag) {
        if let Err(e) = self.pump_ready() {
            self.panic_sim(e, from, tag);
        }
    }

    /// Typed receive.  The decoded payload's byte buffer is recycled into
    /// this endpoint's pool, which is what feeds [`Endpoint::take_buf`] in
    /// steady state.
    ///
    /// # Panics
    /// Panics on peer failure or decode errors (see [`Endpoint::recv`] and
    /// [`Endpoint::recv_t_result`]).
    pub fn recv_t<T: Wire>(&mut self, from: Rank, tag: Tag) -> T {
        match self.recv_t_result(from, tag) {
            Ok(v) => v,
            Err(e) => self.panic_sim(e, from, tag),
        }
    }

    pub(crate) fn accept(&mut self, msg: Message) -> Vec<u8> {
        let bytes = msg.len();
        let waited = (msg.arrival - self.clock).max(0.0);
        if msg.arrival > self.clock {
            self.clock = msg.arrival;
        }
        self.clock += self.model.recv_cost(bytes);
        self.trace_push(TraceEvent::Recv {
            at: self.clock,
            from: msg.src,
            tag: msg.tag,
            bytes,
            waited,
        });
        match msg.body {
            Body::Data(d) => d,
            Body::Dropped { .. } => unreachable!("tombstones never match a receive"),
            Body::Poison(_) => unreachable!("poison filtered in pump loop"),
        }
    }

    /// Charge the receive-side cost of one already-validated transport
    /// chunk that was reassembled at intake: wait for its arrival, pay
    /// `recv_cost` on the frame bytes, and record the `Recv` event —
    /// exactly what [`Endpoint::accept`] does for a matched message,
    /// without a `Message` to consume.
    pub(crate) fn accept_chunk(&mut self, from: Rank, tag: Tag, arrival: f64, bytes: usize) {
        let waited = (arrival - self.clock).max(0.0);
        if arrival > self.clock {
            self.clock = arrival;
        }
        self.clock += self.model.recv_cost(bytes);
        self.trace_push(TraceEvent::Recv {
            at: self.clock,
            from,
            tag,
            bytes,
            waited,
        });
    }

    /// Park after this rank's program has finished and report why the
    /// scheduler woke us: a message means protocol traffic to answer
    /// (acks for late frames, retransmit requests — peers still flushing
    /// reliable streams must not be orphaned); the wake is
    /// [`WakeCause::Shutdown`] exactly once the whole world has completed
    /// (or deterministically torn down).
    pub(crate) fn coop_service_park(&mut self) -> WakeCause {
        self.coop_park(ParkKind::Service)
    }

    /// Route whatever protocol traffic is ready, ignoring errors — the
    /// program is already over, so poison can no longer matter.
    pub(crate) fn coop_service_drain(&mut self) {
        while let Some(msg) = self.hub.pop(self.rank) {
            let _ = self.route_msg(msg);
        }
    }

    /// Broadcast a poison message so peers blocked in `recv` fail fast
    /// instead of hanging when this rank panics.
    pub(crate) fn poison_all(&mut self, reason: &str) {
        for to in 0..self.world {
            if to == self.rank {
                continue;
            }
            let msg = Message {
                src: self.rank,
                tag: Tag::new(Tag::CONTROL_CTX, 0),
                body: Body::Poison(reason.to_string()),
                arrival: self.clock,
            };
            self.hub.post(to, msg);
        }
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("rank", &self.rank)
            .field("world", &self.world)
            .field("clock", &self.clock)
            .field("stashed", &self.stash.len())
            .finish()
    }
}

/// Result of decoding a received message without panicking; used by tests.
pub fn try_decode<T: Wire>(bytes: &[u8]) -> Result<T, SimError> {
    T::from_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use crate::model::MachineModel;
    use crate::tag::Tag;
    use crate::world::World;

    #[test]
    fn ping_pong_and_clock() {
        let world = World::with_model(2, MachineModel::sp2());
        let out = world.run(|ep| {
            let t = Tag::user(1);
            if ep.rank() == 0 {
                ep.send_t(1, t, &vec![1.0f64, 2.0, 3.0]);
                let back: Vec<f64> = ep.recv_t(1, t);
                assert_eq!(back, vec![2.0, 4.0, 6.0]);
            } else {
                let v: Vec<f64> = ep.recv_t(0, t);
                let doubled: Vec<f64> = v.iter().map(|x| x * 2.0).collect();
                ep.send_t(0, t, &doubled);
            }
            ep.clock()
        });
        // Both ranks advanced their virtual clocks past one latency.
        assert!(out.results.iter().all(|&c| c > MachineModel::sp2().latency));
        // Rank 0 saw two message costs plus the round trip.
        assert!(out.results[0] >= out.results[1]);
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        let world = World::with_model(2, MachineModel::zero());
        world.run(|ep| {
            if ep.rank() == 0 {
                ep.send_t(1, Tag::user(1), &1u32);
                ep.send_t(1, Tag::user(2), &2u32);
            } else {
                // Receive in the opposite order they were sent.
                let b: u32 = ep.recv_t(0, Tag::user(2));
                let a: u32 = ep.recv_t(0, Tag::user(1));
                assert_eq!((a, b), (1, 2));
            }
        });
    }

    #[test]
    fn same_tag_preserves_fifo_order() {
        let world = World::with_model(2, MachineModel::zero());
        world.run(|ep| {
            let t = Tag::user(9);
            if ep.rank() == 0 {
                for i in 0..10u32 {
                    ep.send_t(1, t, &i);
                }
            } else {
                for i in 0..10u32 {
                    let v: u32 = ep.recv_t(0, t);
                    assert_eq!(v, i);
                }
            }
        });
    }

    #[test]
    fn self_send_works() {
        let world = World::with_model(1, MachineModel::zero());
        world.run(|ep| {
            ep.send_t(0, Tag::user(3), &42u64);
            let v: u64 = ep.recv_t(0, Tag::user(3));
            assert_eq!(v, 42);
        });
    }

    #[test]
    fn charge_helpers_advance_clock() {
        let world = World::with_model(1, MachineModel::sp2());
        let out = world.run(|ep| {
            let t0 = ep.clock();
            ep.charge_flops(1000);
            ep.charge_deref(10);
            ep.charge_indirect(10);
            ep.charge_copy_bytes(1024);
            ep.charge_schedule_insert(5);
            ep.charge(1e-6);
            ep.clock() - t0
        });
        assert!(out.results[0] > 0.0);
    }

    #[test]
    fn stats_count_messages() {
        let world = World::with_model(2, MachineModel::zero());
        let out = world.run(|ep| {
            if ep.rank() == 0 {
                ep.send(1, Tag::user(0), vec![0u8; 100]);
                ep.send(1, Tag::user(0), vec![0u8; 24]);
            } else {
                ep.recv(0, Tag::user(0));
                ep.recv(0, Tag::user(0));
            }
        });
        assert_eq!(out.stats.msgs[0][1], 2);
        assert_eq!(out.stats.bytes[0][1], 124);
        assert_eq!(out.stats.msgs[1][0], 0);
    }

    #[test]
    fn deterministic_virtual_time() {
        let run = || {
            let world = World::with_model(4, MachineModel::sp2());
            world
                .run(|ep| {
                    let t = Tag::user(0);
                    let next = (ep.rank() + 1) % 4;
                    let prev = (ep.rank() + 3) % 4;
                    ep.send_t(next, t, &(ep.rank() as u64));
                    let _: u64 = ep.recv_t(prev, t);
                    ep.clock()
                })
                .results
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn recv_timeout_accepts_in_time_message() {
        let world = World::with_model(2, MachineModel::sp2());
        world.run(|ep| {
            let t = Tag::user(8);
            if ep.rank() == 0 {
                ep.send_t(1, t, &5u32);
            } else {
                // Generous virtual deadline: the message arrives well
                // within one second of virtual time.
                let bytes = ep.recv_timeout(0, t, 1.0).expect("in time");
                assert_eq!(bytes.len(), 4);
            }
        });
    }
}

#[cfg(test)]
mod recovery_tests {
    use crate::model::MachineModel;
    use crate::sched::ParkKind;
    use crate::tag::Tag;
    use crate::world::World;

    /// A restart discards the dead life's mail, but a queued poison still
    /// latches and a queued peer-restart beat is still learned.
    #[test]
    fn reset_for_recovery_keeps_poison_and_peer_restart_beats() {
        let world = World::with_model(3, MachineModel::sp2());
        let run = || {
            world.run_result(|ep| match ep.rank() {
                0 => {
                    // Ranks 1 and 2 (key 0) run before the first arrival
                    // wakes this task, so all four messages are queued.
                    ep.coop_park(ParkKind::Wait {
                        expiry: f64::INFINITY,
                    });
                    ep.reset_for_recovery();
                    assert!(ep.hub.pop(0).is_none(), "the mailbox was drained");
                    let poison = ep.poisoned.clone().expect("poison latched");
                    (ep.incarnation(), ep.peer_incarnation(1), poison.0)
                }
                1 => {
                    ep.incarnation = 3;
                    ep.broadcast_beat();
                    ep.send(0, Tag::user(1), vec![1; 8]);
                    (0, 0, 0)
                }
                _ => {
                    ep.send(0, Tag::user(1), vec![2; 8]);
                    panic!("rank 2 dies for real");
                }
            })
        };
        let (native, baton) = (run(), crate::sched::with_baton(run));
        assert_eq!(native.outcomes, baton.outcomes);
        assert_eq!(native.outcomes[0], Ok((1, 3, 2)));
        assert!(native.outcomes[2].is_err());
    }
}

#[cfg(test)]
mod nonblocking_tests {
    use crate::model::MachineModel;
    use crate::tag::Tag;
    use crate::wire::Wire;
    use crate::world::World;

    #[test]
    fn try_recv_and_probe() {
        let world = World::with_model(2, MachineModel::zero());
        world.run(|ep| {
            let t = Tag::user(4);
            if ep.rank() == 0 {
                ep.send_t(1, t, &99u32);
                // Handshake so the test is deterministic.
                let _: u8 = ep.recv_t(1, Tag::user(5));
            } else {
                // Wait for the message to arrive physically.
                while !ep.probe(0, t) {
                    std::thread::yield_now();
                }
                // Probe for a tag never sent: must be false and free.
                assert!(!ep.probe(0, Tag::user(6)));
                assert!(ep.try_recv(0, Tag::user(6)).is_none());
                let bytes = ep.try_recv(0, t).expect("probed message present");
                assert_eq!(u32::from_bytes(&bytes).unwrap(), 99);
                ep.send_t(0, Tag::user(5), &1u8);
            }
        });
    }

    #[test]
    fn try_recv_does_not_steal_other_tags() {
        let world = World::with_model(2, MachineModel::zero());
        world.run(|ep| {
            if ep.rank() == 0 {
                ep.send_t(1, Tag::user(1), &1u32);
                ep.send_t(1, Tag::user(2), &2u32);
            } else {
                // Blocking receive of tag 2 stashes tag 1; try_recv must
                // still find it afterwards.
                let b: u32 = ep.recv_t(0, Tag::user(2));
                assert_eq!(b, 2);
                let a = ep.try_recv(0, Tag::user(1)).expect("stashed");
                assert_eq!(u32::from_bytes(&a).unwrap(), 1);
            }
        });
    }
}
