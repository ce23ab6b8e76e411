//! # mcsim — a simulated distributed-memory parallel machine
//!
//! The Meta-Chaos paper ran on a 16-node IBM SP2 (MPL) and an 8-node DEC
//! Alpha farm connected by ATM (PVM/UDP).  This crate substitutes those
//! machines with a *simulated* message-passing machine:
//!
//! * every logical processor ("rank") is a cooperatively scheduled task
//!   of [`sched`], resumed one at a time in `(virtual_time, rank)` order
//!   on the thread that called [`World::run`] (1024-rank worlds fit one
//!   process),
//! * ranks exchange real byte messages through per-rank mailboxes (so data
//!   motion is bit-exact and testable),
//! * each rank carries a deterministic **virtual clock**: sends, receives and
//!   modeled computation charge time according to a configurable
//!   [`MachineModel`] (message latency, per-byte wire cost, per-message CPU
//!   overheads, per-element compute costs).
//!
//! Because all receives name their source and tag, virtual time is a pure
//! function of the program and the model — independent of host scheduling and
//! host core count.  Reported times are *simulated seconds*, which is what
//! the reproduction harness prints.
//!
//! ## Layers
//!
//! * [`world`] — spawns a world of ranks and runs an SPMD closure on each.
//! * [`endpoint`] — per-rank handle: point-to-point `send`/`recv`, the
//!   virtual clock, and compute charging.
//! * [`group`] / [`collectives`] — communicators over rank subsets with
//!   barrier, broadcast, gather, allgather, reductions and alltoallv, all
//!   built on the point-to-point layer (so their cost is modeled faithfully).
//! * [`wire`] — a tiny self-describing codec for typed messages.
//! * [`stats`] — per-pair message and byte counters, used by tests to assert
//!   the paper's claim that Meta-Chaos sends exactly the hand-coded number
//!   of messages.
//!
//! ## Example
//!
//! ```
//! use mcsim::prelude::*;
//!
//! let world = World::new(4);
//! let out = world.run(|ep| {
//!     let mut comm = Comm::world(ep);
//!     let me = comm.rank();
//!     let sum: u64 = comm.allreduce_sum(me as u64);
//!     sum
//! });
//! assert!(out.results.iter().all(|&s| s == 0 + 1 + 2 + 3));
//! ```

// Indexed loops over multiple parallel arrays are the clearest idiom in
// this numerical code.
#![allow(clippy::needless_range_loop)]
// `unsafe` lives in two modules only: `sched` (the context switch, task
// stacks and the lock-free hub) and `wire` (the one-copy slice casts).
// Every `unsafe` block and impl there carries its invariant next to it.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
// Crate-internal helpers stay `pub(crate)`; nothing unreachable is `pub`.
#![warn(unreachable_pub)]

pub mod analyze;
pub mod collectives;
pub mod endpoint;
pub mod error;
pub mod export;
pub mod fault;
pub mod group;
pub mod json;
pub mod message;
pub mod model;
pub mod onesided;
pub mod recovery;
pub mod reliable;
pub mod rng;
#[allow(unsafe_code)]
pub mod sched;
pub mod span;
pub mod stats;
pub mod tag;
pub mod trace;
#[allow(unsafe_code)]
pub mod wire;
pub mod world;

pub use analyze::{
    analyze, attribute_links, match_sends, CriticalPathReport, LinkLoad, RecvMatch, SendInfo,
    TransferPath,
};
pub use endpoint::Endpoint;
pub use error::SimError;
pub use export::{chrome_trace_json, jsonl_events, validate_jsonl, TraceCheck};
pub use fault::{test_seed, test_seeds, FaultPlan, FaultRates};
pub use group::{Comm, Group};
pub use message::Rank;
pub use model::{MachineModel, NetState, Topology};
pub use onesided::{expose, get, put, put_flush, put_notify, wait_notify, window_bytes};
pub use recovery::RecoveryConfig;
pub use reliable::{ReliableConfig, StreamTag};
pub use rng::Rng;
pub use span::{pair_spans, FlightRing, Note, PairedSpan, Phase, SpanId, FLIGHT_RING_CAP};
pub use stats::{FaultStats, NetStats, RecoveryStats, SessionStats, StatsSnapshot};
pub use tag::Tag;
pub use trace::{summarize, FaultKind, TraceEvent, TraceSummary};
pub use wire::{Wire, WireReader};
pub use world::{RunOutput, RunReport, World};

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::endpoint::Endpoint;
    pub use crate::fault::{test_seed, test_seeds, FaultPlan, FaultRates};
    pub use crate::group::{Comm, Group};
    pub use crate::message::Rank;
    pub use crate::model::{MachineModel, Topology};
    pub use crate::onesided::{expose, get, put, put_flush, put_notify, wait_notify, window_bytes};
    pub use crate::recovery::RecoveryConfig;
    pub use crate::reliable::{ReliableConfig, StreamTag};
    pub use crate::span::{Phase, SpanId};
    pub use crate::tag::Tag;
    pub use crate::wire::{Wire, WireReader};
    pub use crate::world::{RunOutput, RunReport, World};
}
