//! # chaos — a CHAOS analogue
//!
//! CHAOS (Das, Saltz et al.) is the Maryland runtime library for *irregular*
//! scientific computations: arrays distributed point-wise by arbitrary
//! assignment, accessed through indirection arrays, with the classic
//! inspector/executor split (Saltz et al., JPDC 1990).
//!
//! The pieces re-implemented here are the ones the Meta-Chaos paper
//! exercises:
//!
//! * [`ttable::TranslationTable`] — the *distributed* translation table
//!   mapping global index → (owner, local address).  The table itself is
//!   block-distributed over the program's ranks, so dereferencing is a
//!   request–reply communication with the table owners — the expensive
//!   operation that dominates Chaos schedule building in the paper's
//!   Table 2;
//! * [`partition`] — point partitioners (block, cyclic, seeded random);
//! * [`array::IrregArray`] — an irregularly distributed array sharing a
//!   translation table with other arrays (the paper's `x` and `y`);
//! * [`sweep::IrregularSweep`] — inspector/executor for the edge loop of
//!   the paper's Figure 1 (Loop 3): gather off-processor values, compute,
//!   scatter-add contributions back;
//! * [`native_copy`] — Chaos's own copy between two translation-table
//!   described arrays: the baseline of Table 2, including the extra
//!   internal copy and extra indirection the paper attributes to it;
//! * [`adapter`] — the Meta-Chaos interface functions for [`IrregArray`],
//!   with [`IndexSet`](meta_chaos::IndexSet) as the Region type and the
//!   full translation table as the (large!) descriptor.

// Indexed loops over multiple parallel arrays are the clearest idiom in
// this numerical code.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]
// Crate-internal helpers stay `pub(crate)`; nothing unreachable is `pub`.
#![warn(unreachable_pub)]

pub mod adapter;
pub mod array;
pub mod gather;
pub mod native_copy;
pub mod partition;
pub mod remap;
pub mod sweep;
pub mod ttable;

pub use adapter::IrregDesc;
pub use array::IrregArray;
pub use gather::{CommSchedule, Resolved};
pub use partition::Partition;
pub use remap::remap;
pub use sweep::IrregularSweep;
pub use ttable::TranslationTable;
