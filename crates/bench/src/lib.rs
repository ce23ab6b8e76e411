//! # bench — the reproduction harness
//!
//! One module per experiment family of the paper; each returns structured
//! results in *simulated milliseconds* so the bench binaries can print the
//! paper's tables/series and the workspace shape-check tests can assert
//! the qualitative claims (orderings, ratios, crossovers).
//!
//! | Paper artifact | Runner |
//! |---|---|
//! | Table 1 — intra-mesh inspector/executor            | [`meshes::table1`] |
//! | Table 2 — remap schedule/copy, 3 methods           | [`meshes::table2`] |
//! | Tables 3 & 4 — two-program schedule/copy grid      | [`meshes::table34`] |
//! | Table 5 — regular↔regular, Parti vs Meta-Chaos     | [`regular::table5`] |
//! | Figures 10–15 — client/server matrix–vector server | [`clientserver`] |
//!
//! Workload sizes default to the paper's (256×256 mesh, 65 536-point
//! irregular mesh, 1000×1000 arrays, 512×512 matrix); the runners take
//! explicit sizes so tests can use smaller instances.

pub mod attr;
pub mod clientserver;
pub mod executor;
pub mod gate;
pub mod meshes;
pub mod regular;
pub mod report;
pub mod scaling;
pub mod traced;

/// Convert simulated seconds to the milliseconds the paper reports.
pub fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}
