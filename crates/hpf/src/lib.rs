//! # hpf — a High Performance Fortran runtime analogue
//!
//! The paper exchanges data with programs written in HPF, whose runtime
//! distributes arrays with `!hpf$ distribute` directives: `BLOCK`,
//! `CYCLIC`, `CYCLIC(K)` per dimension over a processor arrangement.  This
//! crate reproduces that runtime layer:
//!
//! * [`dist::DistKind`] / [`dist::HpfDist`] — per-dimension distribution
//!   directives with closed-form owner/local-address arithmetic (including
//!   block-cyclic);
//! * [`array::HpfArray`] — the distributed array;
//! * [`matvec`] — the distributed matrix–vector multiply used by the HPF
//!   computational server in the paper's client/server experiments
//!   (Figures 10–15): row-block matrix, allgathered operand vector — the
//!   internal communication that stops the server scaling past 8
//!   processes;
//! * [`mod@redistribute`] — HPF's `REDISTRIBUTE` directive, implemented on top
//!   of Meta-Chaos itself;
//! * [`adapter`] — the Meta-Chaos interface functions, Region type
//!   [`RegularSection`](meta_chaos::RegularSection) (an "HPF array
//!   section", as in the paper's Figure 9 example).

// Indexed loops over multiple parallel arrays are the clearest idiom in
// this numerical code.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]
// Crate-internal helpers stay `pub(crate)`; nothing unreachable is `pub`.
#![warn(unreachable_pub)]

pub mod adapter;
pub mod array;
pub mod dist;
pub mod matvec;
pub mod redistribute;
pub mod shift;

pub use adapter::HpfDesc;
pub use array::HpfArray;
pub use dist::{DistKind, HpfDist};
pub use redistribute::redistribute;
pub use shift::{cshift, eoshift};
