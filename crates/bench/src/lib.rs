//! # bench — the reproduction harness
//!
//! One module per experiment family of the paper; each returns structured
//! results in *simulated milliseconds*.  [`paper`] runs them all at the
//! paper's sizes into `BENCH_paper.json` (`repro paper`, held exactly by
//! `repro gate paper`) and renders EXPERIMENTS.md's tables from that
//! file; the workspace shape-check tests run them at reduced sizes and
//! read the committed file for the full-size claims.
//!
//! | Paper artifact | Runner |
//! |---|---|
//! | Table 1 — intra-mesh inspector/executor            | [`meshes::table1`] |
//! | Table 2 — remap schedule/copy, 3 methods           | [`meshes::table2`] |
//! | Tables 3 & 4 — two-program schedule/copy grid      | [`meshes::table34`] |
//! | Table 5 — regular↔regular, Parti vs Meta-Chaos     | [`regular::table5`] |
//! | Figures 10–15 — client/server matrix–vector server | [`clientserver`] |
//!
//! The runners take explicit sizes so tests can use smaller instances;
//! the paper's (256×256 mesh, 65 536-point irregular mesh, 1000×1000
//! arrays, 512×512 matrix) live in [`paper`].

#![forbid(unsafe_code)]

pub mod attr;
pub mod clientserver;
pub mod gate;
pub mod meshes;
pub mod paper;
pub mod regular;
pub mod report;
pub mod scaling;
pub mod traced;

/// Convert simulated seconds to the milliseconds the paper reports.
pub fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}
