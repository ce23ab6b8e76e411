//! Test support shared by this crate's unit tests and the library crates'
//! adapter tests.  Not part of the Meta-Chaos API.

use mcsim::group::Comm;

use crate::adapter::{McDescriptor, McObject};
use crate::runs::OwnedRun;
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
/// rank, and cover `set` exactly once across the program.  Returns the runs
/// for library-specific assertions on their shape.
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
    let total: usize = comm.allreduce_sum(expanded.len());
    assert_eq!(total, set.total_len(), "runs must cover the set once");
    runs
}
