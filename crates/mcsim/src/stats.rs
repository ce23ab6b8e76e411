//! Message traffic accounting.
//!
//! Each endpoint counts messages and bytes per destination.  The paper
//! argues (§4.1.4) that Meta-Chaos generates *exactly* the same number and
//! sizes of messages as hand-crafted message passing; the integration tests
//! use these counters to assert that property.

use crate::message::Rank;

/// Fault-injection and reliable-transport counters for one rank.
///
/// The injection counters (`*_injected`) are charged on the *sender*; the
/// receiver-side hygiene counters (`dup_frames_dropped`,
/// `stale_acks_dropped`) count what the rank routed before its program
/// returned — late traffic answered in the service phase is not reported.
/// Every counter is deterministic per [`crate::fault::FaultPlan`] seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Message copies destroyed in flight by the fault plan.
    pub drops_injected: u64,
    /// Extra message copies created by the duplication fault.
    pub dups_injected: u64,
    /// Data frames bit-flipped in flight.
    pub corrupts_injected: u64,
    /// Message copies given extra virtual latency.
    pub delays_injected: u64,
    /// Reliable-layer data-frame retransmissions performed by this rank.
    pub retransmits: u64,
    /// Virtual-clock timeouts observed while waiting for acks (each
    /// precedes a retransmit or a give-up) plus `recv_timeout` expiries.
    pub timeouts: u64,
    /// ACK control frames this rank sent.
    pub acks_sent: u64,
    /// NACK control frames this rank sent (tombstone or checksum failure).
    pub nacks_sent: u64,
    /// Duplicate data frames discarded by receiver-side dedup.
    pub dup_frames_dropped: u64,
    /// Control frames that matched no pending send (late/duplicate acks).
    pub stale_acks_dropped: u64,
    /// Sender stalls on a full sliding window (frames or bytes).
    pub window_stalls: u64,
    /// Cumulative acks that retired at least one pending frame and
    /// advanced a send window.
    pub window_advances: u64,
    /// Ack-triggered sweeps that retransmitted one or more
    /// deadline-expired frames in a burst.
    pub retransmit_bursts: u64,
}

impl FaultStats {
    fn since(&self, earlier: &FaultStats) -> FaultStats {
        FaultStats {
            drops_injected: self.drops_injected.saturating_sub(earlier.drops_injected),
            dups_injected: self.dups_injected.saturating_sub(earlier.dups_injected),
            corrupts_injected: self
                .corrupts_injected
                .saturating_sub(earlier.corrupts_injected),
            delays_injected: self.delays_injected.saturating_sub(earlier.delays_injected),
            retransmits: self.retransmits.saturating_sub(earlier.retransmits),
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            acks_sent: self.acks_sent.saturating_sub(earlier.acks_sent),
            nacks_sent: self.nacks_sent.saturating_sub(earlier.nacks_sent),
            dup_frames_dropped: self
                .dup_frames_dropped
                .saturating_sub(earlier.dup_frames_dropped),
            stale_acks_dropped: self
                .stale_acks_dropped
                .saturating_sub(earlier.stale_acks_dropped),
            window_stalls: self.window_stalls.saturating_sub(earlier.window_stalls),
            window_advances: self.window_advances.saturating_sub(earlier.window_advances),
            retransmit_bursts: self
                .retransmit_bursts
                .saturating_sub(earlier.retransmit_bursts),
        }
    }

    fn add(&mut self, other: &FaultStats) {
        self.drops_injected += other.drops_injected;
        self.dups_injected += other.dups_injected;
        self.corrupts_injected += other.corrupts_injected;
        self.delays_injected += other.delays_injected;
        self.retransmits += other.retransmits;
        self.timeouts += other.timeouts;
        self.acks_sent += other.acks_sent;
        self.nacks_sent += other.nacks_sent;
        self.dup_frames_dropped += other.dup_frames_dropped;
        self.stale_acks_dropped += other.stale_acks_dropped;
        self.window_stalls += other.window_stalls;
        self.window_advances += other.window_advances;
        self.retransmit_bursts += other.retransmit_bursts;
    }
}

/// Session-layer (transactional transfer) counters for one rank: the
/// staging / manifest machinery `meta_chaos::datamove` builds on top of the
/// reliable link layer records its decisions here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Data halves staged on the receive side before commit.
    pub frames_staged: u64,
    /// Coupled transfers aborted before touching the destination
    /// (manifest mismatch, stale schedule, or peer failure mid-transfer).
    pub transfers_aborted: u64,
    /// Replayed data halves from an earlier transfer attempt discarded by
    /// transfer-epoch dedup (idempotent retry).
    pub stale_halves_dropped: u64,
    /// Stale-schedule rejections (`McError::StaleSchedule`) reported by
    /// executors on this rank.
    pub stale_schedules: u64,
    /// Coupled transfers whose staged halves were unpacked into the
    /// destination (the all-or-nothing commit ran).  The exactly-once
    /// oracle of the recovery subsystem asserts this never exceeds the
    /// number of logical transfer steps per rank.
    pub transfers_committed: u64,
}

impl SessionStats {
    fn since(&self, earlier: &SessionStats) -> SessionStats {
        SessionStats {
            frames_staged: self.frames_staged.saturating_sub(earlier.frames_staged),
            transfers_aborted: self
                .transfers_aborted
                .saturating_sub(earlier.transfers_aborted),
            stale_halves_dropped: self
                .stale_halves_dropped
                .saturating_sub(earlier.stale_halves_dropped),
            stale_schedules: self.stale_schedules.saturating_sub(earlier.stale_schedules),
            transfers_committed: self
                .transfers_committed
                .saturating_sub(earlier.transfers_committed),
        }
    }

    fn add(&mut self, other: &SessionStats) {
        self.frames_staged += other.frames_staged;
        self.transfers_aborted += other.transfers_aborted;
        self.stale_halves_dropped += other.stale_halves_dropped;
        self.stale_schedules += other.stale_schedules;
        self.transfers_committed += other.transfers_committed;
    }
}

/// Crash-recovery counters for one rank: the lease-based failure detector
/// and the supervisor restart path record their decisions here.  All four
/// have an exact trace-event counterpart (count-parity tested).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Heartbeat broadcasts this rank sent (one per beat, not per peer).
    pub heartbeats_sent: u64,
    /// Lease expiries observed: a wait gave up on a silent peer after the
    /// configured number of missed lease windows.
    pub leases_expired: u64,
    /// Times *this* rank was respawned from its checkpoint by the
    /// supervisor (its incarnation number equals this count).
    pub ranks_recovered: u64,
    /// Already-committed transfer parts re-received and discarded while
    /// resuming an interrupted transfer (the replay the dedup machinery
    /// absorbed instead of double-committing).
    pub parts_replayed: u64,
}

impl RecoveryStats {
    fn since(&self, earlier: &RecoveryStats) -> RecoveryStats {
        RecoveryStats {
            heartbeats_sent: self.heartbeats_sent.saturating_sub(earlier.heartbeats_sent),
            leases_expired: self.leases_expired.saturating_sub(earlier.leases_expired),
            ranks_recovered: self.ranks_recovered.saturating_sub(earlier.ranks_recovered),
            parts_replayed: self.parts_replayed.saturating_sub(earlier.parts_replayed),
        }
    }

    fn add(&mut self, other: &RecoveryStats) {
        self.heartbeats_sent += other.heartbeats_sent;
        self.leases_expired += other.leases_expired;
        self.ranks_recovered += other.ranks_recovered;
        self.parts_replayed += other.parts_replayed;
    }
}

/// Counters local to one rank, snapshot-able at any point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Messages sent to each destination rank.
    pub msgs_to: Vec<u64>,
    /// Payload bytes sent to each destination rank.
    pub bytes_to: Vec<u64>,
    /// Schedule-cache hits recorded on this rank (see `meta_chaos::api`).
    pub sched_cache_hits: u64,
    /// Schedule-cache misses (full inspector runs) recorded on this rank.
    pub sched_cache_misses: u64,
    /// Fault-injection and reliable-transport counters.
    pub faults: FaultStats,
    /// Transactional-transfer (session layer) counters.
    pub session: SessionStats,
    /// Crash-recovery (failure detector / supervisor) counters.
    pub recovery: RecoveryStats,
}

impl StatsSnapshot {
    pub(crate) fn new(world: usize) -> Self {
        StatsSnapshot {
            msgs_to: vec![0; world],
            bytes_to: vec![0; world],
            sched_cache_hits: 0,
            sched_cache_misses: 0,
            faults: FaultStats::default(),
            session: SessionStats::default(),
            recovery: RecoveryStats::default(),
        }
    }

    /// Total messages sent.
    pub fn total_msgs(&self) -> u64 {
        self.msgs_to.iter().sum()
    }

    /// Total payload bytes sent.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_to.iter().sum()
    }

    /// Counter delta `self - earlier` (for bracketing one operation).
    ///
    /// Saturating: a snapshot taken from a different (e.g. reused or
    /// fresh) `World`, where some counter went backwards, clamps that
    /// field to zero instead of panicking on u64 underflow.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        assert_eq!(self.msgs_to.len(), earlier.msgs_to.len());
        StatsSnapshot {
            msgs_to: self
                .msgs_to
                .iter()
                .zip(&earlier.msgs_to)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            bytes_to: self
                .bytes_to
                .iter()
                .zip(&earlier.bytes_to)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            sched_cache_hits: self
                .sched_cache_hits
                .saturating_sub(earlier.sched_cache_hits),
            sched_cache_misses: self
                .sched_cache_misses
                .saturating_sub(earlier.sched_cache_misses),
            faults: self.faults.since(&earlier.faults),
            session: self.session.since(&earlier.session),
            recovery: self.recovery.since(&earlier.recovery),
        }
    }

    pub(crate) fn record(&mut self, to: Rank, bytes: usize) {
        self.msgs_to[to] += 1;
        self.bytes_to[to] += bytes as u64;
    }

    pub(crate) fn record_sched_cache(&mut self, hit: bool) {
        if hit {
            self.sched_cache_hits += 1;
        } else {
            self.sched_cache_misses += 1;
        }
    }
}

/// Whole-world traffic: `pair[s][d]` = messages sent from rank `s` to `d`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetStats {
    /// Per source rank: messages sent to each destination.
    pub msgs: Vec<Vec<u64>>,
    /// Per source rank: bytes sent to each destination.
    pub bytes: Vec<Vec<u64>>,
    /// Schedule-cache hits summed over all ranks.
    pub sched_cache_hits: u64,
    /// Schedule-cache misses summed over all ranks.
    pub sched_cache_misses: u64,
    /// Fault/reliability counters summed over all ranks.
    pub faults: FaultStats,
    /// Session-layer (transactional transfer) counters summed over all
    /// ranks.
    pub session: SessionStats,
    /// Crash-recovery counters summed over all ranks.
    pub recovery: RecoveryStats,
}

impl NetStats {
    pub(crate) fn from_locals(locals: Vec<StatsSnapshot>) -> Self {
        let mut faults = FaultStats::default();
        let mut session = SessionStats::default();
        let mut recovery = RecoveryStats::default();
        let mut sched_cache_hits = 0;
        let mut sched_cache_misses = 0;
        for s in &locals {
            faults.add(&s.faults);
            session.add(&s.session);
            recovery.add(&s.recovery);
            sched_cache_hits += s.sched_cache_hits;
            sched_cache_misses += s.sched_cache_misses;
        }
        NetStats {
            msgs: locals.iter().map(|s| s.msgs_to.clone()).collect(),
            bytes: locals.into_iter().map(|s| s.bytes_to).collect(),
            sched_cache_hits,
            sched_cache_misses,
            faults,
            session,
            recovery,
        }
    }

    /// Total number of messages in the run.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().flatten().sum()
    }

    /// Total payload bytes in the run.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().flatten().sum()
    }

    /// Every link that carried traffic, as `(src, dst, msgs, bytes)` in
    /// `(src, dst)` order — what the critical-path analyzer joins its
    /// per-link wire attribution against.
    pub fn active_links(&self) -> Vec<(usize, usize, u64, u64)> {
        let mut out = Vec::new();
        for (src, row) in self.msgs.iter().enumerate() {
            for (dst, &n) in row.iter().enumerate() {
                if n > 0 {
                    let b = self.bytes.get(src).and_then(|r| r.get(dst)).copied();
                    out.push((src, dst, n, b.unwrap_or(0)));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut s = StatsSnapshot::new(3);
        s.record(1, 100);
        s.record(1, 50);
        s.record(2, 8);
        assert_eq!(s.total_msgs(), 3);
        assert_eq!(s.total_bytes(), 158);
        assert_eq!(s.msgs_to, vec![0, 2, 1]);
    }

    #[test]
    fn since_gives_delta() {
        let mut a = StatsSnapshot::new(2);
        a.record(0, 10);
        let before = a.clone();
        a.record(1, 20);
        a.record(1, 5);
        let d = a.since(&before);
        assert_eq!(d.msgs_to, vec![0, 2]);
        assert_eq!(d.bytes_to, vec![0, 25]);
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        // A snapshot from a fresh `World` compared against one from an
        // earlier, busier run: every counter went "backwards".  `since`
        // must clamp to zero, not panic on u64 underflow.
        let mut busy = StatsSnapshot::new(2);
        busy.record(1, 100);
        busy.record(1, 50);
        busy.sched_cache_hits = 3;
        busy.faults.retransmits = 7;
        busy.session.frames_staged = 4;
        let fresh = StatsSnapshot::new(2);
        let d = fresh.since(&busy);
        assert_eq!(d.total_msgs(), 0);
        assert_eq!(d.total_bytes(), 0);
        assert_eq!(d.sched_cache_hits, 0);
        assert_eq!(d.faults.retransmits, 0);
        assert_eq!(d.session.frames_staged, 0);
    }

    #[test]
    fn netstats_aggregates() {
        let mut a = StatsSnapshot::new(2);
        a.record(1, 7);
        let mut b = StatsSnapshot::new(2);
        b.record(0, 3);
        let n = NetStats::from_locals(vec![a, b]);
        assert_eq!(n.total_msgs(), 2);
        assert_eq!(n.total_bytes(), 10);
        assert_eq!(n.msgs[0][1], 1);
        assert_eq!(n.msgs[1][0], 1);
        assert_eq!(n.active_links(), vec![(0, 1, 1, 7), (1, 0, 1, 3)]);
    }

    #[test]
    fn session_counters_delta_and_aggregate() {
        let mut a = StatsSnapshot::new(2);
        a.session.frames_staged = 4;
        a.session.transfers_aborted = 1;
        let before = a.clone();
        a.session.frames_staged = 7;
        a.session.stale_halves_dropped = 2;
        let d = a.since(&before);
        assert_eq!(d.session.frames_staged, 3);
        assert_eq!(d.session.transfers_aborted, 0);
        assert_eq!(d.session.stale_halves_dropped, 2);
        let mut b = StatsSnapshot::new(2);
        b.session.stale_schedules = 5;
        let n = NetStats::from_locals(vec![a, b]);
        assert_eq!(n.session.frames_staged, 7);
        assert_eq!(n.session.stale_schedules, 5);
    }
}
