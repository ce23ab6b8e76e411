//! # meta-chaos — interoperability of data-parallel runtime libraries
//!
//! This crate is the Rust reproduction of the framework described in
//! *"Interoperability of Data Parallel Runtime Libraries with Meta-Chaos"*
//! (Edjlali, Sussman, Saltz — IPPS 1997).  It lets distributed data
//! structures managed by **different** data-parallel runtime libraries
//! exchange data — within one SPMD program or between two separately
//! running programs — without either library knowing anything about the
//! other's distribution.
//!
//! ## The five steps (paper §4.1)
//!
//! 1. specify the elements to send from the source structure — a
//!    [`SetOfRegions`] of library-defined [`Region`]s;
//! 2. specify the elements to receive into the destination structure —
//!    another [`SetOfRegions`];
//! 3. the correspondence is implicit in the **virtual linearization**: the
//!    k-th element of the source linearization maps to the k-th element of
//!    the destination linearization (never materialized);
//! 4. build a communication [`Schedule`] from the libraries' inquiry
//!    functions ([`McObject`]) — by [`BuildMethod::Cooperation`] or
//!    [`BuildMethod::Duplication`];
//! 5. move the data with the schedule ([`data_move`], or
//!    [`data_move_send`]/[`data_move_recv`] across two programs), as many
//!    times as needed — schedules are reusable and symmetric.
//!
//! ## What a library must provide
//!
//! Exactly what the paper asks of a library implementor: a Region type, a
//! way to enumerate/locate the elements of a region in linearization order
//! ([`McObject::deref_owned_runs`] and [`McDescriptor::locate`]), and a
//! view of its local storage ([`McObject::local`]) over which pack/unpack
//! are written once.  The `multiblock`, `chaos`, `hpf` and `tulip` crates
//! in this workspace are four such libraries.
//!
//! ## Example
//!
//! A runnable end-to-end transfer (two single-owner [`SeqVec`]s standing in
//! for full libraries; see the workspace's `quickstart` example for the
//! multi-library version):
//!
//! ```
//! use mcsim::prelude::*;
//! use meta_chaos::prelude::*;
//! use meta_chaos::SeqVec;
//!
//! let world = World::with_model(2, MachineModel::zero());
//! let out = world.run(|ep| {
//!     let g = Group::world(2);
//!     // Source lives on rank 0, destination on rank 1.
//!     let mut src = SeqVec::<f64>::new(ep.rank(), 0, 8);
//!     if ep.rank() == 0 {
//!         for (i, v) in src.values_mut().iter_mut().enumerate() {
//!             *v = i as f64;
//!         }
//!     }
//!     let mut dst = SeqVec::<f64>::new(ep.rank(), 1, 8);
//!
//!     // dst[k] = src[7 - k]: the mapping is implicit in the two
//!     // linearizations (paper §4.1.2).
//!     let sset = SetOfRegions::single(IndexSet::new((0..8).rev().collect()));
//!     let dset = SetOfRegions::single(IndexSet::new((0..8).collect()));
//!     let sched = compute_schedule(
//!         ep, &g,
//!         &g, Some(Side::new(&src, &sset)),
//!         &g, Some(Side::new(&dst, &dset)),
//!         BuildMethod::Cooperation,
//!     ).unwrap();
//!     data_move(ep, &sched, &src, &mut dst);
//!     dst.values().to_vec()
//! });
//! assert_eq!(out.results[1], vec![7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0]);
//! ```

// Indexed loops over multiple parallel arrays are the clearest idiom in
// this numerical code.
#![allow(clippy::needless_range_loop)]

pub mod adapter;
pub mod api;
pub mod build;
pub mod coupling;
pub mod datamove;
pub mod error;
pub mod linear;
pub mod obs;
pub mod posmap;
pub mod region;
pub mod runs;
pub mod schedule;
pub mod seqvec;
pub mod session;
pub mod setof;
pub mod validate;

#[doc(hidden)]
pub mod testlib;

pub use adapter::{LocateCursor, Location, McDescriptor, McObject, Side};
pub use build::{compute_schedule, BuildMethod};
pub use coupling::Coupler;
pub use datamove::{data_move, data_move_recv, data_move_send, try_data_move};
pub use error::McError;
pub use obs::{record_abort, take_last_abort, AbortReport};
pub use region::{DimSlice, IndexSet, Region, RegularSection};
pub use runs::{coalesce_owned, LocatedRun, OwnedRun, RunBuilder};
pub use schedule::{elem_type, Schedule};
pub use seqvec::SeqVec;
pub use session::RecoverySession;
pub use setof::SetOfRegions;
pub use validate::{validate_schedule, ScheduleIssue};

/// A local address within a library's per-rank storage.
pub type LocalAddr = usize;

/// Convenient glob import.
pub mod prelude {
    pub use crate::adapter::{Location, McDescriptor, McObject, Side};
    pub use crate::build::{compute_schedule, BuildMethod};
    pub use crate::datamove::{data_move, data_move_recv, data_move_send};
    pub use crate::region::{DimSlice, IndexSet, Region, RegularSection};
    pub use crate::schedule::Schedule;
    pub use crate::session::RecoverySession;
    pub use crate::setof::SetOfRegions;
    pub use crate::LocalAddr;
}
