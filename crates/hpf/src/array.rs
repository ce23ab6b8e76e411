//! HPF distributed arrays.

use mcsim::group::Group;
use meta_chaos::region::for_each_in_ranges;

use crate::dist::HpfDist;

/// One program rank's piece of an HPF-distributed array.
#[derive(Debug, Clone)]
pub struct HpfArray<T> {
    dist: HpfDist,
    members: Vec<usize>,
    my_local: usize,
    data: Vec<T>,
    /// Distribution epoch: bumped by [`crate::redistribute::redistribute`]
    /// so schedules built against the old distribution are detectably
    /// stale.
    epoch: u64,
}

impl<T: Copy + Default> HpfArray<T> {
    /// Create on each rank of `prog` with the given distribution.
    pub fn new(prog: &Group, me_global: usize, dist: HpfDist) -> Self {
        assert_eq!(
            dist.num_procs(),
            prog.size(),
            "distribution must cover the whole program"
        );
        let my_local = prog.local_of(me_global).expect("member rank");
        let data = vec![T::default(); dist.local_len(my_local)];
        HpfArray {
            dist,
            members: prog.members().to_vec(),
            my_local,
            data,
            epoch: 0,
        }
    }

    /// Distribution epoch (see `meta_chaos::McObject::epoch`): 0 at
    /// creation, +1 per `REDISTRIBUTE`.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Set the distribution epoch (redistribute installs `source + 1`).
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The distribution.
    pub fn dist(&self) -> &HpfDist {
        &self.dist
    }

    /// Global ranks of the owning program.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// This rank's program-local index.
    pub fn my_local(&self) -> usize {
        self.my_local
    }

    /// Local storage.
    pub fn local(&self) -> &[T] {
        &self.data
    }

    /// Mutable local storage.
    pub fn local_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// True if this rank owns `coords`.
    pub fn owns(&self, coords: &[usize]) -> bool {
        self.dist.owner(coords) == self.my_local
    }

    /// Read an owned element by global coordinates.
    pub fn get(&self, coords: &[usize]) -> T {
        debug_assert!(self.owns(coords));
        self.data[self.dist.local_addr(self.my_local, coords)]
    }

    /// Write an owned element by global coordinates.
    pub fn set(&mut self, coords: &[usize], v: T) {
        debug_assert!(self.owns(coords));
        let a = self.dist.local_addr(self.my_local, coords);
        self.data[a] = v;
    }

    /// Visit every owned element with its global coordinates, in ascending
    /// row-major coordinate order (owner-computes iteration).
    ///
    /// Closed form: the owned coordinates are the product of the
    /// per-dimension [`HpfDist::owned_ranges`], and local storage is dense
    /// in exactly that order, so the walk costs O(owned elements) and the
    /// `i`-th element visited lives at local address `i`.
    pub fn for_each_owned(&mut self, mut f: impl FnMut(&[usize], &mut T)) {
        let dist = &self.dist;
        let me = self.my_local;
        let pc = dist.proc_coords(me);
        let mut addr = 0;
        for_each_in_ranges(
            pc.len(),
            |d, out| out.extend(dist.owned_ranges(d, pc[d])),
            |coords| {
                debug_assert_eq!(addr, dist.local_addr(me, coords));
                f(coords, &mut self.data[addr]);
                addr += 1;
            },
        );
        debug_assert_eq!(addr, self.data.len());
    }

    /// The pre-closed-form [`Self::for_each_owned`]: an owner test on every
    /// global coordinate.  Kept as the test oracle.
    #[cfg(test)]
    pub(crate) fn for_each_owned_scan(&mut self, mut f: impl FnMut(&[usize], &mut T)) {
        let whole: Vec<_> = self.dist.shape().iter().map(|&n| (0, n)).collect();
        meta_chaos::region::for_each_in_box(&whole, |coords| {
            if self.dist.owner(coords) == self.my_local {
                let a = self.dist.local_addr(self.my_local, coords);
                f(coords, &mut self.data[a]);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DistKind;
    use mcsim::model::MachineModel;
    use mcsim::rng::Rng;
    use mcsim::world::World;

    #[test]
    fn fill_and_read_block_block() {
        let world = World::with_model(4, MachineModel::zero());
        let out = world.run(|ep| {
            let g = Group::world(4);
            let mut a =
                HpfArray::<f64>::new(&g, ep.rank(), crate::HpfDist::block_block(8, 8, 2, 2));
            a.for_each_owned(|c, v| *v = (c[0] * 8 + c[1]) as f64);
            let mut sum = 0.0;
            a.for_each_owned(|_, v| sum += *v);
            sum
        });
        let total: f64 = out.results.iter().sum();
        assert_eq!(total, (0..64).sum::<usize>() as f64);
    }

    #[test]
    fn for_each_owned_visits_what_the_scan_visits() {
        // Same (coords, addr) sequence as the owner-test scan, on every
        // rank of random 1–3-dim distributions (all directive kinds).
        let mut rng = Rng::seed_from_u64(mcsim::test_seed());
        for procs in [1usize, 2, 3, 4, 6, 8] {
            for _ in 0..40 {
                let ndim = 1 + rng.gen_range(3);
                let shape: Vec<usize> = (0..ndim).map(|_| 1 + rng.gen_range(11)).collect();
                let dist = HpfDist::random(&mut rng, shape, procs);
                let g = Group::world(procs);
                for rank in 0..procs {
                    let mut a = HpfArray::<u32>::new(&g, rank, dist.clone());
                    // Tag each cell with its address so the visit order of
                    // addresses is observable through `&mut T`.
                    for (i, v) in a.local_mut().iter_mut().enumerate() {
                        *v = i as u32;
                    }
                    let mut fast = Vec::new();
                    a.for_each_owned(|c, v| fast.push((c.to_vec(), *v)));
                    let mut scan = Vec::new();
                    a.for_each_owned_scan(|c, v| scan.push((c.to_vec(), *v)));
                    assert_eq!(fast, scan, "{dist:?} rank {rank}");
                    assert_eq!(fast.len(), dist.local_len(rank));
                }
            }
        }
    }

    #[test]
    fn cyclic_array_round_trips() {
        let world = World::with_model(3, MachineModel::zero());
        world.run(|ep| {
            let g = Group::world(3);
            let dist = HpfDist::new(vec![10], vec![DistKind::Cyclic(1)], vec![3]);
            let mut a = HpfArray::<f64>::new(&g, ep.rank(), dist);
            a.for_each_owned(|c, v| *v = c[0] as f64 * 3.0);
            for x in 0..10 {
                if a.owns(&[x]) {
                    assert_eq!(a.get(&[x]), x as f64 * 3.0);
                }
            }
        });
    }
}
