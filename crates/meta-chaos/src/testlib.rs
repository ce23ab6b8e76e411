//! Test support shared by this crate's unit tests and the library crates'
//! adapter tests.  Not part of the Meta-Chaos API.

use mcsim::group::Comm;

use crate::adapter::{McDescriptor, McObject};
use crate::runs::{OwnedRun, RunBuilder};
use crate::setof::SetOfRegions;
use crate::LocalAddr;

#[cfg(test)]
mod blockvec;
#[cfg(test)]
pub(crate) use blockvec::{BlockVec, BlockVecDesc};

/// The dereference contract every adapter must meet, checked on the
/// calling rank (collective over `comm`): the runs `deref_owned_runs`
/// returns are sorted and disjoint, expand to exactly the
/// `(position, address)` pairs the object's own descriptor locates on this
/// rank, equal what [`RunBuilder::push`] makes of that expansion (the
/// Cooperation build announces one record per run, so the decomposition is
/// observable), and cover `set` exactly once across the program.  Returns
/// the runs for library-specific assertions on their shape.
pub fn check_deref_runs<T: Copy, O: McObject<T>>(
    comm: &mut Comm<'_>,
    obj: &O,
    set: &SetOfRegions<O::Region>,
) -> Vec<OwnedRun> {
    let runs = obj.deref_owned_runs(comm, set);
    let desc = obj.descriptor(comm);
    let me = comm.ep_ref().rank();
    for w in runs.windows(2) {
        assert!(
            w[0].end() <= w[1].pos,
            "rank {me}: runs out of order or overlapping: {runs:?}"
        );
    }
    let expanded: Vec<(usize, LocalAddr)> = runs
        .iter()
        .flat_map(|r| (0..r.len).map(move |k| (r.pos + k, r.addr_at(k))))
        .collect();
    let located: Vec<(usize, LocalAddr)> = (0..set.total_len())
        .filter_map(|pos| {
            let loc = desc.locate(set, pos);
            (loc.rank == me).then_some((pos, loc.addr))
        })
        .collect();
    assert_eq!(expanded, located, "rank {me}: owned runs vs descriptor");
    let mut canonical = RunBuilder::with_capacity(expanded.len());
    for &(pos, addr) in &expanded {
        canonical.push(pos, addr);
    }
    assert_eq!(
        runs,
        canonical.finish(),
        "rank {me}: runs are not the canonical decomposition of their elements"
    );
    let total: usize = comm.allreduce_sum(expanded.len());
    assert_eq!(total, set.total_len(), "runs must cover the set once");
    runs
}

/// The location contract of a descriptor: `locate_run` from each answer's
/// end tiles `set`, every answer agrees element by element with `locate`,
/// and the batched `locate_runs` tiles the set after merging.
pub fn check_locate_runs<D: McDescriptor>(desc: &D, set: &SetOfRegions<D::Region>) {
    let n = set.total_len();
    let mut pos = 0;
    while pos < n {
        let run = desc.locate_run(set, pos, n - pos);
        assert!(run.pos == pos && run.len >= 1 && run.end() <= n);
        for k in 0..run.len {
            let loc = desc.locate(set, pos + k);
            assert_eq!(
                (loc.rank, loc.addr),
                (run.rank, run.addr_at(k)),
                "pos {}",
                pos + k
            );
        }
        pos = run.end();
    }
    let runs = desc.locate_runs(set, 0, n);
    assert_eq!(runs.iter().map(|r| r.len).sum::<usize>(), n);
    for w in runs.windows(2) {
        assert_eq!(w[0].end(), w[1].pos);
    }
}
