//! # meta-chaos-repro
//!
//! Umbrella crate for the Meta-Chaos reproduction workspace: it hosts the
//! runnable examples (`examples/`) and the cross-crate integration tests
//! (`tests/`), and re-exports the member crates for convenience.
//!
//! See the workspace `README.md` for the project overview, `DESIGN.md` for
//! the system inventory and `EXPERIMENTS.md` for paper-vs-measured results.

pub use chaos;
pub use hpf;
pub use mcsim;
pub use meta_chaos;
pub use multiblock;
pub use tulip;

/// Shorthand used by examples and tests: a world over `p` ranks with the
/// zero-cost model (pure correctness, no timing).
pub fn test_world(p: usize) -> mcsim::World {
    mcsim::World::with_model(p, mcsim::MachineModel::zero())
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_world_builds() {
        let w = super::test_world(3);
        assert_eq!(w.size(), 3);
    }
}
