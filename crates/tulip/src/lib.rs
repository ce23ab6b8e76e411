//! # tulip — a pC++/Tulip analogue
//!
//! The paper notes that the pC++ group at Indiana implemented the
//! Meta-Chaos interface functions for their Tulip runtime "in a few days",
//! as evidence that joining the framework is cheap.  This crate plays that
//! role in the reproduction: a deliberately small data-parallel library —
//! a distributed collection of elements, dealt round-robin across the
//! program, pC++-style — whose whole Meta-Chaos integration is the
//! [`adapter`] module (~100 lines).  The `custom_library` example walks
//! through it.

// Crate-internal helpers stay `pub(crate)`; nothing unreachable is `pub`.
#![warn(unreachable_pub)]

pub mod adapter;
pub mod collection;

pub use adapter::TulipDesc;
pub use collection::DistributedCollection;
