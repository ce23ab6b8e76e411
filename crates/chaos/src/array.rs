//! Irregularly distributed arrays.
//!
//! An [`IrregArray`] stores this rank's points of an `n`-element array
//! whose point-wise distribution is described by a shared
//! [`TranslationTable`].  Several arrays routinely share one table (the
//! paper's `x` and `y` node arrays have "the same distribution").

use std::sync::Arc;

use mcsim::group::Comm;

use crate::partition::Partition;
use crate::ttable::TranslationTable;

/// One rank's piece of an irregularly distributed array.
#[derive(Debug, Clone)]
pub struct IrregArray<T> {
    table: Arc<TranslationTable>,
    my_globals: Vec<usize>,
    data: Vec<T>,
    /// Distribution epoch: bumped by [`crate::remap::remap`] so schedules
    /// built against the pre-remap distribution are detectably stale.
    epoch: u64,
}

impl<T: Copy> IrregArray<T> {
    /// Create over an existing translation table, initialized by
    /// `f(global index)`.
    ///
    /// `my_globals` must be exactly the indices this rank registered when
    /// the table was built (same order).
    pub fn over_table(
        table: Arc<TranslationTable>,
        my_globals: Vec<usize>,
        f: impl Fn(usize) -> T,
    ) -> Self {
        let data = my_globals.iter().map(|&g| f(g)).collect();
        IrregArray {
            table,
            my_globals,
            data,
            epoch: 0,
        }
    }

    /// Build a fresh table from `partition` and create the array over it.
    /// Returns the array; share its [`Self::table`] to create siblings.
    pub fn create(
        comm: &mut Comm<'_>,
        n: usize,
        partition: Partition,
        f: impl Fn(usize) -> T,
    ) -> Self {
        let mine = partition.indices_of(n, comm.size(), comm.rank());
        let table = Arc::new(TranslationTable::build(comm, n, &mine));
        Self::over_table(table, mine, f)
    }

    /// Assemble from parts (used by [`crate::remap::remap`]); `data[a]` must be
    /// the value of global index `my_globals[a]`.
    pub fn from_parts(table: Arc<TranslationTable>, my_globals: Vec<usize>, data: Vec<T>) -> Self {
        assert_eq!(my_globals.len(), data.len());
        IrregArray {
            table,
            my_globals,
            data,
            epoch: 0,
        }
    }

    /// Distribution epoch (see [`meta_chaos::McObject::epoch`]): 0 at
    /// creation, +1 per [`crate::remap::remap`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Set the distribution epoch (remap installs `source epoch + 1`).
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The shared translation table.
    pub fn table(&self) -> &Arc<TranslationTable> {
        &self.table
    }

    /// Global array length.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if the global array is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Global indices stored locally, in local-address order.
    pub fn my_globals(&self) -> &[usize] {
        &self.my_globals
    }

    /// Local values (indexed by local address).
    pub fn local(&self) -> &[T] {
        &self.data
    }

    /// Mutable local values.
    pub fn local_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Visit every owned element with its global index.
    pub fn for_each_owned(&mut self, mut f: impl FnMut(usize, &mut T)) {
        for (a, v) in self.data.iter_mut().enumerate() {
            f(self.my_globals[a], v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim::group::Group;
    use mcsim::model::MachineModel;
    use mcsim::world::World;

    #[test]
    fn create_and_share_table() {
        let world = World::with_model(3, MachineModel::zero());
        world.run(|ep| {
            let mut comm = Comm::new(ep, Group::world(3));
            let x = IrregArray::create(&mut comm, 30, Partition::Random(5), |g| g as f64);
            // Sibling array with the same distribution, like the paper's y.
            let y = IrregArray::over_table(x.table().clone(), x.my_globals().to_vec(), |_| 0.0);
            assert_eq!(x.len(), 30);
            assert_eq!(x.local().len(), y.local().len());
            for (a, &g) in x.my_globals().iter().enumerate() {
                assert_eq!(x.local()[a], g as f64);
            }
        });
    }

    #[test]
    fn for_each_owned_visits_global_indices() {
        let world = World::with_model(3, MachineModel::zero());
        world.run(|ep| {
            let mut comm = Comm::new(ep, Group::world(3));
            let mut x = IrregArray::create(&mut comm, 12, Partition::Random(2), |_| 0.0);
            x.for_each_owned(|g, v| *v = g as f64 - 5.0);
            for (a, &g) in x.my_globals().iter().enumerate() {
                assert_eq!(x.local()[a], g as f64 - 5.0);
            }
        });
    }

    #[test]
    fn sizes_are_balanced() {
        let world = World::with_model(4, MachineModel::zero());
        let out = world.run(|ep| {
            let mut comm = Comm::new(ep, Group::world(4));
            let x = IrregArray::create(&mut comm, 10, Partition::Random(1), |_| 0u8 as f64);
            x.local().len()
        });
        assert_eq!(out.results.iter().sum::<usize>(), 10);
        assert!(out.results.iter().all(|&s| s == 2 || s == 3));
    }
}
