//! Crash-recovery constants.
//!
//! Recovery has three moving parts:
//!
//! * **Leases** — in a supervised world, every rank broadcasts a
//!   periodic beat (virtual-clock cadence, NIC plane) carrying its
//!   *incarnation*.  A rank waiting on a peer counts silence windows —
//!   one per quiescence of the world, observed by the scheduler, never a
//!   timer — against the peer's lease; when [`LEASE_MISSES`]
//!   windows lapse with nothing heard, the wait fails with
//!   [`SimError::PeerEvicted`](crate::SimError::PeerEvicted) — a
//!   membership decision, distinct from the transport retry-budget
//!   give-up (`PeerTimeout`).
//! * **Incarnations** — each supervisor restart bumps the rank's
//!   incarnation.  Peers learn the new incarnation from the recovery
//!   beat, purge any reliable streams still keyed to the old life, and
//!   waits armed against the old incarnation fail fast so session-layer
//!   retry loops can re-settle.
//! * **Checkpoints** — each endpoint keeps its rank's typed snapshots
//!   ([`Endpoint::ckpt_put_state`](crate::Endpoint::ckpt_put_state)).  A
//!   supervisor restart re-runs the rank closure on the same endpoint,
//!   so the snapshots outlive the crashed life: the respawned closure
//!   restores objects and schedules instead of recomputing them.

/// Attempts for an unacknowledged one-sided `get` request before the
/// caller sees a typed `PeerTimeout`.
pub const GET_ATTEMPTS: u32 = 4;

/// Virtual seconds between heartbeat broadcasts from one rank.
pub(crate) const BEAT_INTERVAL: f64 = 1e-3;

/// Missed lease windows (quiescences of the world with the watched peer
/// silent) before a supervised world evicts that peer.  The detector
/// runs only when the world has a supervisor
/// ([`crate::World::with_supervisor`]).
pub const LEASE_MISSES: u32 = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_match_historical_policy() {
        assert_eq!(GET_ATTEMPTS, 4);
        assert_eq!(LEASE_MISSES, 4);
    }
}
