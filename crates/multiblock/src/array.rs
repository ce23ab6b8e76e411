//! The block-distributed multidimensional array.

use mcsim::group::Group;
use meta_chaos::region::for_each_in_box;

use crate::dist::BlockDist;
use crate::grid::ProcGrid;

/// One program rank's piece of a block-distributed n-D array
/// (owned block plus `halo` ghost layers per side).
#[derive(Debug, Clone)]
pub struct MultiblockArray<T> {
    dist: BlockDist,
    members: Vec<usize>,
    my_local: usize,
    data: Vec<T>,
    /// Distribution epoch: bumped by [`crate::regrid::regrid`] so
    /// schedules built against the old block layout are detectably stale.
    epoch: u64,
}

impl<T: Copy + Default> MultiblockArray<T> {
    /// Create the array on each rank of `prog`, distributed `(BLOCK, …)`
    /// over a near-square grid, zero halo.
    pub fn new(prog: &Group, me_global: usize, shape: &[usize]) -> Self {
        Self::with_halo(prog, me_global, shape, 0)
    }

    /// Create with `halo` ghost layers (for stencil sweeps).
    pub fn with_halo(prog: &Group, me_global: usize, shape: &[usize], halo: usize) -> Self {
        let grid = ProcGrid::factor(prog.size(), shape.len());
        let dist = BlockDist::new(shape.to_vec(), grid, halo);
        Self::from_dist(prog, me_global, dist)
    }

    /// Create from an explicit distribution.
    pub fn from_dist(prog: &Group, me_global: usize, dist: BlockDist) -> Self {
        assert_eq!(
            dist.grid().size(),
            prog.size(),
            "grid size must match program size"
        );
        let my_local = prog
            .local_of(me_global)
            .expect("creating rank must belong to the program");
        let data = vec![T::default(); dist.local_alloc_len(my_local)];
        MultiblockArray {
            dist,
            members: prog.members().to_vec(),
            my_local,
            data,
            epoch: 0,
        }
    }

    /// Distribution epoch (see `meta_chaos::McObject::epoch`): 0 at
    /// creation, +1 per [`crate::regrid::regrid`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Set the distribution epoch (regrid installs `source + 1`).
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The distribution.
    pub fn dist(&self) -> &BlockDist {
        &self.dist
    }

    /// Global ranks of the owning program, in program order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// This rank's program-local index.
    pub fn my_local(&self) -> usize {
        self.my_local
    }

    /// The owned box (per-dim `[lo, hi)`) of this rank.
    pub fn my_box(&self) -> Vec<(usize, usize)> {
        self.dist.owned_box(self.my_local)
    }

    /// Raw local storage (owned block + halo, row-major).
    pub fn local(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw local storage.
    pub fn local_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// True if this rank owns `coords`.
    pub fn owns(&self, coords: &[usize]) -> bool {
        self.dist.owner(coords) == self.my_local
    }

    /// Read the element at global `coords` (must be owned or in the halo).
    pub fn get(&self, coords: &[usize]) -> T {
        self.data[self.dist.local_addr(self.my_local, coords)]
    }

    /// Write the element at global `coords` (must be owned or in the halo).
    pub fn set(&mut self, coords: &[usize], v: T) {
        let a = self.dist.local_addr(self.my_local, coords);
        self.data[a] = v;
    }

    /// Fill every owned element from `f(global coords)` (halo untouched).
    pub fn fill_with(&mut self, f: impl Fn(&[usize]) -> T) {
        for_each_in_box(&self.my_box(), |coords| {
            let a = self.dist.local_addr(self.my_local, coords);
            self.data[a] = f(coords);
        });
    }

    /// Sum of all owned elements on this rank (halo excluded).
    pub fn local_sum(&self) -> T
    where
        T: std::ops::Add<Output = T>,
    {
        let mut acc = T::default();
        for_each_in_box(&self.my_box(), |coords| acc = acc + self.get(coords));
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim::model::MachineModel;
    use mcsim::world::World;

    #[test]
    fn fill_get_set_roundtrip() {
        let world = World::with_model(4, MachineModel::zero());
        world.run(|ep| {
            let g = Group::world(ep.world_size());
            let mut a = MultiblockArray::<f64>::new(&g, ep.rank(), &[8, 6]);
            a.fill_with(|c| (c[0] * 10 + c[1]) as f64);
            let boxx = a.my_box();
            for i in boxx[0].0..boxx[0].1 {
                for j in boxx[1].0..boxx[1].1 {
                    assert!(a.owns(&[i, j]));
                    assert_eq!(a.get(&[i, j]), (i * 10 + j) as f64);
                }
            }
            a.set(&[boxx[0].0, boxx[1].0], -5.0);
            assert_eq!(a.get(&[boxx[0].0, boxx[1].0]), -5.0);
        });
    }

    #[test]
    fn global_sum_across_ranks() {
        let world = World::with_model(3, MachineModel::zero());
        let out = world.run(|ep| {
            let g = Group::world(ep.world_size());
            let mut a = MultiblockArray::<f64>::new(&g, ep.rank(), &[6, 6]);
            a.fill_with(|_| 1.0);
            a.local_sum()
        });
        let total: f64 = out.results.iter().sum();
        assert_eq!(total, 36.0);
    }

    #[test]
    fn halo_storage_is_distinct_from_owned() {
        let world = World::with_model(1, MachineModel::zero());
        world.run(|ep| {
            let g = Group::world(1);
            let mut a = MultiblockArray::<f64>::with_halo(&g, ep.rank(), &[4], 1);
            assert_eq!(a.local().len(), 6); // 4 owned + 2 halo
            a.fill_with(|c| c[0] as f64 + 1.0);
            assert_eq!(a.local()[0], 0.0); // halo untouched
            assert_eq!(a.get(&[0]), 1.0);
            assert_eq!(a.get(&[3]), 4.0);
        });
    }
}
