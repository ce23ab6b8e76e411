//! # multiblock — a Multiblock Parti analogue
//!
//! Multiblock Parti (Agrawal, Sussman, Saltz) is the Maryland runtime
//! library for *structured* multiblock/multigrid codes: multidimensional
//! arrays distributed by blocks over a processor grid, ghost-cell
//! ("overlap") exchange between neighbouring blocks, and optimized
//! regular-section moves between block-distributed arrays.
//!
//! This crate re-implements the parts of that library the Meta-Chaos paper
//! exercises, on top of the `mcsim` simulated machine:
//!
//! * [`grid::ProcGrid`] / [`dist::BlockDist`] — processor grids and
//!   block distributions with closed-form owner arithmetic;
//! * [`array::MultiblockArray`] — the distributed array with halo storage;
//! * [`ghost`] — inspector/executor ghost-cell exchange (the intra-mesh
//!   communication of the paper's Table 1 loops);
//! * [`sweep`] — the regular-mesh stencil sweep of the paper's Figure 1
//!   (Loop 1);
//! * [`mod@regrid`] — dynamic re-blocking of an array onto a new processor
//!   grid, implemented on top of Meta-Chaos (the structured counterpart of
//!   HPF `REDISTRIBUTE` and Chaos `remap`);
//! * [`native_move`] — Parti's own regular-section copy between two
//!   block-distributed arrays: the specialized baseline Meta-Chaos is
//!   compared against in Table 5 (note its intermediate staging buffer for
//!   local copies, which Meta-Chaos avoids);
//! * [`adapter`] — the Meta-Chaos interface functions
//!   ([`meta_chaos::McObject`]) for `MultiblockArray`, with
//!   [`RegularSection`](meta_chaos::RegularSection) as the Region type.

// Indexed loops over multiple parallel arrays are the clearest idiom in
// this numerical code.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]
// Crate-internal helpers stay `pub(crate)`; nothing unreachable is `pub`.
#![warn(unreachable_pub)]

pub mod adapter;
pub mod array;
pub mod dist;
pub mod ghost;
pub mod grid;
pub mod multigrid;
pub mod native_move;
pub mod regrid;
pub mod sweep;

pub use adapter::BlockDesc;
pub use array::MultiblockArray;
pub use dist::BlockDist;
pub use ghost::GhostSchedule;
pub use grid::ProcGrid;
pub use multigrid::Multigrid;
pub use regrid::regrid;
