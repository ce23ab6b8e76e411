//! Error types for the simulated machine.

use std::fmt;

/// Errors surfaced by the simulation layer.
///
/// Most misuse (sending to an out-of-range rank, decoding a malformed
/// payload) is a programming error and panics with context, matching how an
/// MPI implementation aborts the job; `SimError` covers the conditions a
/// caller can meaningfully observe and handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A peer rank panicked; its failure is propagated instead of hanging.
    PeerFailed {
        /// Rank that failed.
        rank: usize,
        /// Panic message from the failed rank.
        reason: String,
    },
    /// A typed receive could not decode the payload.
    Decode(String),
    /// A virtual-clock deadline elapsed before the peer delivered: either a
    /// [`crate::endpoint::Endpoint::recv_timeout`] deadline passed, or the
    /// reliable layer exhausted its retry budget against this peer.
    PeerTimeout {
        /// The peer rank that never delivered (or never acknowledged).
        rank: usize,
    },
    /// The failure detector evicted the peer: either its lease lapsed
    /// (no heartbeat for the configured number of windows) or it was
    /// observed restarting under a bumped incarnation mid-wait.  Distinct
    /// from [`SimError::PeerTimeout`] (a transport retry-budget give-up):
    /// eviction is a *membership* decision, and under a supervisor the
    /// peer may come back — callers with a checkpoint can retry the step.
    PeerEvicted {
        /// The evicted peer's global rank.
        rank: usize,
        /// The peer's incarnation as known at eviction time (bumped once
        /// per supervisor restart; 0 for a never-restarted rank).
        incarnation: u64,
    },
    /// The world's channels closed while waiting — every other rank has
    /// already torn down.
    Shutdown,
    /// The world-level virtual-clock deadline (see
    /// [`crate::world::World::with_deadline`]) elapsed, or the rank sat in
    /// a blocking receive when the world went quiescent while a deadline
    /// was armed.  The run is declared wedged rather than allowed to hang.
    DeadlineExceeded,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::PeerFailed { rank, reason } => {
                write!(f, "rank {rank} failed: {reason}")
            }
            SimError::Decode(msg) => write!(f, "wire decode error: {msg}"),
            SimError::PeerTimeout { rank } => {
                write!(f, "timed out waiting for rank {rank}")
            }
            SimError::PeerEvicted { rank, incarnation } => {
                write!(f, "evicted rank {rank} (incarnation {incarnation})")
            }
            SimError::Shutdown => write!(f, "world tore down"),
            SimError::DeadlineExceeded => {
                write!(f, "virtual-clock deadline exceeded (run declared wedged)")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = SimError::PeerFailed {
            rank: 3,
            reason: "boom".into(),
        };
        assert_eq!(e.to_string(), "rank 3 failed: boom");
        let d = SimError::Decode("short read".into());
        assert!(d.to_string().contains("short read"));
    }
}
