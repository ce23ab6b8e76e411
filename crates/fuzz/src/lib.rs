//! Differential fuzzing and chaos-soak harness (DESIGN.md §4g).
//!
//! Random *scenarios* — library pair, shapes, distributions, region
//! sets, a script of moves and epoch bumps, an optional fault plan —
//! run through the real inspector/executor/session stack inside
//! `mcsim::World`, checked by three oracles (schedule parity with a
//! serial walk of the two descriptors, a serial-copy memory model, and a
//! virtual-clock no-hang deadline), with greedy shrinking to minimal
//! JSON repros.
//!
//! The driver binary lives in `main.rs` (`cargo run -p fuzz`); the
//! library side is consumed by `tests/fuzz_regressions.rs` to replay
//! the committed corpus.

pub mod exec;
pub mod gen;
pub mod oracle;
pub mod scenario;
pub mod shrink;

/// The workspace's one JSON codec (it lives in `mcsim` so every crate
/// can reach it); re-exported under its historical path.
pub use mcsim::json;

use scenario::Scenario;

/// Parse either a bare scenario JSON document or a full repro file
/// (whose scenario sits under the `"scenario"` key).
pub fn parse_repro(text: &str) -> Result<Scenario, String> {
    let v = json::parse(text)?;
    Scenario::from_value(v.get("scenario").unwrap_or(&v))
}
