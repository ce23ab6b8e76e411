//! Crash-recovery knobs and the in-world checkpoint store.
//!
//! Recovery has three moving parts, all configured here:
//!
//! * **Leases** — when heartbeats are armed, every rank broadcasts a
//!   periodic beat (virtual-clock cadence, NIC plane) carrying its
//!   *incarnation*.  A rank waiting on a peer counts silence windows —
//!   one per quiescence of the world, observed by the scheduler, never a
//!   timer — against the peer's lease; when the configured number of
//!   windows lapse with nothing heard, the wait fails with
//!   [`SimError::PeerEvicted`](crate::SimError::PeerEvicted) — a
//!   membership decision, distinct from the transport retry-budget
//!   give-up (`PeerTimeout`).
//! * **Incarnations** — each supervisor restart bumps the rank's
//!   incarnation.  Peers learn the new incarnation from the recovery
//!   beat, purge any reliable streams still keyed to the old life, and
//!   waits armed against the old incarnation fail fast so session-layer
//!   retry loops can re-settle.
//! * **Checkpoints** — the [`CkptStore`] is a world-level, thread-safe
//!   key/value store every endpoint holds a handle to.  It survives a
//!   rank's crash (it lives outside the rank closure), which is what
//!   makes restart-from-checkpoint possible: the respawned closure
//!   restores objects and schedules instead of recomputing them.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// Attempts for an unacknowledged one-sided `get` request before the
/// caller sees a typed `PeerTimeout`.
pub const GET_ATTEMPTS: u32 = 4;

/// Virtual seconds between heartbeat broadcasts from one rank.
pub(crate) const BEAT_INTERVAL: f64 = 1e-3;

/// Tunables for failure detection.  The default keeps heartbeats **off**,
/// so worlds that never opt in behave exactly as before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Arm the lease-based failure detector: ranks broadcast heartbeats
    /// and waits evict peers whose lease lapses.
    pub heartbeats: bool,
    /// Missed lease windows (quiescences of the world with the watched
    /// peer silent) before it is evicted.
    pub lease_misses: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            heartbeats: false,
            lease_misses: 4,
        }
    }
}

/// One checkpointed value: a serialized payload plus an optional opaque
/// in-memory snapshot (e.g. a cloned object or schedule) that a restarted
/// rank can restore without redoing collective work.
pub struct CkptEntry {
    /// Wire-serialized payload (whatever the writer chose to pack).
    pub bytes: Vec<u8>,
    /// Opaque typed snapshot, downcast on restore.
    pub state: Option<Box<dyn Any + Send>>,
}

/// World-level checkpoint store shared by every rank's endpoint.
///
/// Keys are `(rank, name)` so ranks never collide; the store is kept
/// outside the rank closures, which is what lets a supervisor restart a
/// crashed rank *from* it.  Locking is poison-tolerant: a rank that
/// panicked while holding the lock must not wedge its own recovery.
#[derive(Clone, Default)]
pub struct CkptStore {
    inner: Arc<Mutex<HashMap<(usize, String), CkptEntry>>>,
}

impl CkptStore {
    fn lock(&self) -> MutexGuard<'_, HashMap<(usize, String), CkptEntry>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Store serialized bytes under `(rank, key)`, replacing any previous
    /// checkpoint there.
    pub fn put(&self, rank: usize, key: &str, bytes: Vec<u8>) {
        self.lock()
            .insert((rank, key.to_string()), CkptEntry { bytes, state: None });
    }

    /// Store serialized bytes plus a typed in-memory snapshot.
    pub fn put_with_state<T: Any + Send>(&self, rank: usize, key: &str, bytes: Vec<u8>, state: T) {
        self.lock().insert(
            (rank, key.to_string()),
            CkptEntry {
                bytes,
                state: Some(Box::new(state)),
            },
        );
    }

    /// The serialized payload checkpointed under `(rank, key)`, if any.
    pub fn bytes(&self, rank: usize, key: &str) -> Option<Vec<u8>> {
        self.lock()
            .get(&(rank, key.to_string()))
            .map(|e| e.bytes.clone())
    }

    /// A clone of the typed snapshot under `(rank, key)`.  `None` when no
    /// checkpoint exists, it carries no state, or the type does not match.
    pub fn state<T: Any + Clone>(&self, rank: usize, key: &str) -> Option<T> {
        self.lock()
            .get(&(rank, key.to_string()))
            .and_then(|e| e.state.as_ref())
            .and_then(|s| s.downcast_ref::<T>())
            .cloned()
    }

    /// True when a checkpoint exists under `(rank, key)`.
    pub fn has(&self, rank: usize, key: &str) -> bool {
        self.lock().contains_key(&(rank, key.to_string()))
    }

    /// Remove the checkpoint under `(rank, key)` (no-op if absent).
    pub fn remove(&self, rank: usize, key: &str) {
        self.lock().remove(&(rank, key.to_string()));
    }

    /// Number of checkpoints currently stored, across all ranks.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no checkpoints are stored.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

impl fmt::Debug for CkptStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CkptStore({} entries)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_round_trip_and_replace() {
        let store = CkptStore::default();
        assert!(store.is_empty());
        store.put(0, "obj", vec![1, 2, 3]);
        assert_eq!(store.bytes(0, "obj"), Some(vec![1, 2, 3]));
        // Same key, other rank: independent.
        assert_eq!(store.bytes(1, "obj"), None);
        store.put(0, "obj", vec![9]);
        assert_eq!(store.bytes(0, "obj"), Some(vec![9]));
        assert_eq!(store.len(), 1);
        store.remove(0, "obj");
        assert!(!store.has(0, "obj"));
    }

    #[test]
    fn typed_state_restores_by_clone() {
        let store = CkptStore::default();
        store.put_with_state(2, "sched", vec![], vec![7u64, 8, 9]);
        // Restoring twice must work: a double fault restores again.
        let a: Vec<u64> = store.state(2, "sched").expect("typed state");
        let b: Vec<u64> = store.state(2, "sched").expect("typed state");
        assert_eq!(a, vec![7, 8, 9]);
        assert_eq!(a, b);
        // Wrong type: None, not a panic.
        assert!(store.state::<String>(2, "sched").is_none());
        // Bytes-only entries carry no state.
        store.put(2, "flag", vec![1]);
        assert!(store.state::<Vec<u64>>(2, "flag").is_none());
    }

    #[test]
    fn default_config_matches_historical_get_policy() {
        let cfg = RecoveryConfig::default();
        assert_eq!(GET_ATTEMPTS, 4);
        assert!(!cfg.heartbeats);
    }
}
