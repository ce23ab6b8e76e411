//! The library interface (paper §4.1.3).
//!
//! To join the framework, a data-parallel library provides "a standard set
//! of inquiry functions": dereference elements of a SetOfRegions to owning
//! processor + local address, manipulate its Regions to build a
//! linearization, and pack/unpack elements to/from communication buffers.
//! [`McObject`] is that contract; [`McDescriptor`] is the shippable
//! distribution descriptor that enables the *duplication* schedule-build
//! strategy.
//!
//! The four workspace libraries (`multiblock`, `chaos`, `hpf`, `tulip`)
//! implement these traits; see the `custom_library` example for how little
//! a fifth library needs.

use mcsim::group::Comm;
use mcsim::prelude::Endpoint;
use mcsim::wire::Wire;

use crate::region::Region;
use crate::runs::{coalesce_owned, LocatedRun, OwnedRun};
use crate::schedule::AddrRuns;
use crate::setof::SetOfRegions;
use crate::LocalAddr;

/// Where one element lives: owning rank (global, world-wide) and local
/// address within that rank's storage for the data structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Owning global rank.
    pub rank: usize,
    /// Offset within the owner's local storage.
    pub addr: LocalAddr,
}

/// A shippable description of a data structure's distribution, sufficient
/// to dereference any element *locally* (the duplication path, §5.1).
///
/// For regular distributions this is a few integers; for Chaos it is the
/// entire translation table — "the same size as the data array", which is
/// why the paper calls duplication impractical for Chaos across programs.
pub trait McDescriptor: Wire + Clone + Send {
    /// The Region type this descriptor understands.
    type Region: Region + Wire;

    /// Location of element `pos` of the linearization of `set`.
    fn locate(&self, set: &SetOfRegions<Self::Region>, pos: usize) -> Location;

    /// Locate every element of `set`, in linearization order.  The default
    /// calls [`Self::locate`] per element; libraries may override with a
    /// faster batch implementation.
    fn locate_all(&self, set: &SetOfRegions<Self::Region>) -> Vec<Location> {
        (0..set.total_len()).map(|p| self.locate(set, p)).collect()
    }

    /// Locate the run of consecutive linearization positions starting at
    /// `pos` that live contiguously (in one address progression) on one
    /// rank — at most `max_len` positions.
    ///
    /// The default answers a length-1 run from [`Self::locate`], which is
    /// always correct; regular descriptors override it with closed-form
    /// interval arithmetic so the duplication build walks O(regions) runs
    /// instead of O(elements) locations.  Implementations must return
    /// `1 <= len <= max_len`, and the answers must nest: if the run from
    /// `pos` has length `L`, the run from `pos + k` (`k < L`) under a cap
    /// `m` is its suffix cut to `min(m, L - k)` — same rank, same stride,
    /// address `k` strides further on.  The duplication build relies on
    /// that to serve ascending queries from the last maximal answer.
    fn locate_run(
        &self,
        set: &SetOfRegions<Self::Region>,
        pos: usize,
        max_len: usize,
    ) -> LocatedRun {
        debug_assert!(max_len >= 1);
        let loc = self.locate(set, pos);
        LocatedRun {
            pos,
            len: 1,
            rank: loc.rank,
            addr: loc.addr,
            stride: 1,
        }
    }

    /// Locate the span `start .. start + len` as a sorted, disjoint run
    /// list covering every position exactly once.  Built on
    /// [`Self::locate_run`], merging runs that continue each other (so a
    /// default length-1 implementation still yields maximal runs for
    /// regular stretches).
    fn locate_runs(
        &self,
        set: &SetOfRegions<Self::Region>,
        start: usize,
        len: usize,
    ) -> Vec<LocatedRun> {
        let mut out: Vec<LocatedRun> = Vec::new();
        let end = start + len;
        let mut pos = start;
        while pos < end {
            let run = self.locate_run(set, pos, end - pos);
            debug_assert!(run.pos == pos && run.len >= 1 && run.end() <= end);
            pos = run.end();
            let merged = match out.last_mut() {
                Some(last) => last.try_merge(&run),
                None => false,
            };
            if !merged {
                out.push(run);
            }
        }
        out
    }

    /// Charge the virtual clock for `n` descriptor-based locates.
    ///
    /// Default: two closed-form operations per element (resolve the
    /// linearization position to coordinates, then compute the owner).
    /// Descriptors that probe a replicated translation table override this
    /// with the table-probe cost — that difference is what makes the
    /// duplication build "about twice" cooperation when Chaos is involved
    /// (paper Table 2) yet cheaper than cooperation for regular–regular
    /// transfers (Table 5).
    fn charge_locates(&self, ep: &mut mcsim::prelude::Endpoint, n: usize) {
        ep.charge_owner_calc(2 * n);
    }
}

/// Answers ascending [`McDescriptor::locate_run`] queries from the last
/// *maximal* answer: a position inside it is served by arithmetic, so the
/// descriptor is called once per located run actually touched (a mesh-row
/// segment on one owner, say) instead of once per query — which is once per
/// element when the querying side's own runs have length 1.  Relies on the
/// nesting contract documented on [`McDescriptor::locate_run`]; any query
/// order is answered correctly, ascending ones cheaply.
pub struct LocateCursor<'a, Desc: McDescriptor> {
    desc: &'a Desc,
    set: &'a SetOfRegions<Desc::Region>,
    total: usize,
    last: LocatedRun,
}

impl<'a, Desc: McDescriptor> LocateCursor<'a, Desc> {
    /// A cursor over `desc`'s view of `set`, holding no answer yet.
    pub fn new(desc: &'a Desc, set: &'a SetOfRegions<Desc::Region>) -> Self {
        LocateCursor {
            desc,
            set,
            total: set.total_len(),
            // Covers nothing: the first query always asks the descriptor.
            last: LocatedRun {
                pos: 0,
                len: 0,
                rank: 0,
                addr: 0,
                stride: 1,
            },
        }
    }

    /// Same answer as `desc.locate_run(set, pos, max_len)`.
    #[inline]
    pub fn locate_run(&mut self, pos: usize, max_len: usize) -> LocatedRun {
        debug_assert!(max_len >= 1 && pos < self.total);
        if pos < self.last.pos || pos >= self.last.end() {
            self.last = self.desc.locate_run(self.set, pos, self.total - pos);
        }
        let k = pos - self.last.pos;
        LocatedRun {
            pos,
            len: max_len.min(self.last.len - k),
            rank: self.last.rank,
            addr: self.last.addr_at(k),
            stride: self.last.stride,
        }
    }
}

/// The interface functions a distributed data structure exports to
/// Meta-Chaos (one instance per rank of the owning program, SPMD).
pub trait McObject<T: Copy> {
    /// The library's Region type.
    type Region: Region + Wire;
    /// The library's distribution descriptor.
    type Descriptor: McDescriptor<Region = Self::Region>;

    /// Collective over the owning program (`comm`): dereference the
    /// elements of `set` and return, on each rank, the elements *this rank
    /// owns* as `(linearization position, local address)` pairs, sorted by
    /// position.
    ///
    /// Regular libraries answer from closed-form owner arithmetic with no
    /// communication; Chaos consults its distributed translation table
    /// (request–reply with the table owners).
    fn deref_owned(
        &self,
        comm: &mut Comm<'_>,
        set: &SetOfRegions<Self::Region>,
    ) -> Vec<(usize, LocalAddr)>;

    /// Collective over the owning program: as [`McObject::deref_owned`],
    /// but run-length compressed — sorted, disjoint
    /// `(pos_start, len, addr_start, stride)` runs covering exactly the
    /// elements this rank owns.
    ///
    /// The default dereferences element-wise and coalesces, which is
    /// always correct but still O(elements).  Regular libraries override
    /// it to emit one run per section row straight from owner arithmetic,
    /// making the inspector O(regions); Chaos coalesces consecutive
    /// translation-table entries and naturally degrades to length-1 runs.
    /// The virtual-clock charges must match [`McObject::deref_owned`] —
    /// the *dereference work* is the same, only its representation shrinks.
    fn deref_owned_runs(
        &self,
        comm: &mut Comm<'_>,
        set: &SetOfRegions<Self::Region>,
    ) -> Vec<OwnedRun> {
        coalesce_owned(&self.deref_owned(comm, set))
    }

    /// Collective over the owning program: locate *arbitrary*
    /// linearization positions of `set` — not just owned ones.  Each
    /// calling rank passes its own query list and receives `Location`s in
    /// query order.
    ///
    /// Regular libraries answer with closed-form arithmetic (no
    /// communication); Chaos performs another round trip through its
    /// distributed translation table.  The duplication build strategy
    /// calls this once per side, which is what makes it cost "about twice
    /// as much" as cooperation when a Chaos array is involved (paper
    /// §5.1) while remaining communication-free for regular–regular
    /// transfers (§5.3).
    fn locate_positions(
        &self,
        comm: &mut Comm<'_>,
        set: &SetOfRegions<Self::Region>,
        positions: &[usize],
    ) -> Vec<Location>;

    /// Collective over the owning program: produce a descriptor every rank
    /// of the program holds in full (a Chaos implementation gathers its
    /// table pieces here, and charges the clock accordingly).
    fn descriptor(&self, comm: &mut Comm<'_>) -> Self::Descriptor;

    /// Distribution epoch: a counter the library bumps every time this
    /// object is *redistributed* (Chaos `remap`, HPF `REDISTRIBUTE`,
    /// Multiblock `regrid`).  Schedules record the epochs they were built
    /// against; executors reject stale schedules with
    /// [`McError`](crate::McError)`::StaleSchedule` and the cached `mc_*`
    /// API folds epochs into its keys so a bump forces a rebuild.
    ///
    /// The default (constant 0) is correct for libraries whose objects are
    /// never redistributed in place.
    fn epoch(&self) -> u64 {
        0
    }

    /// Copy the elements at `addrs` (in order) into `out`.
    fn pack(&self, ep: &mut Endpoint, addrs: &[LocalAddr], out: &mut Vec<T>);

    /// Store `data` (in order) into the elements at `addrs`.
    fn unpack(&mut self, ep: &mut Endpoint, addrs: &[LocalAddr], data: &[T]);

    /// Copy the elements covered by run-compressed `runs` (in run order)
    /// into `out`.
    ///
    /// The default expands the runs and calls [`McObject::pack`], so
    /// existing libraries work unchanged.  Libraries whose local storage is
    /// a dense array (the regular ones: multiblock, hpf, tulip) override
    /// this with one `extend_from_slice` per run — the executor fast path
    /// that makes regular-section transfers a handful of `memcpy`s.
    fn pack_runs(&self, ep: &mut Endpoint, runs: &AddrRuns, out: &mut Vec<T>) {
        self.pack(ep, &runs.to_vec(), out);
    }

    /// Store `data` into the elements covered by `runs` (in run order).
    /// Bulk counterpart of [`McObject::unpack`]; same default/override
    /// contract as [`McObject::pack_runs`].
    fn unpack_runs(&mut self, ep: &mut Endpoint, runs: &AddrRuns, data: &[T]) {
        self.unpack(ep, &runs.to_vec(), data);
    }

    /// Encode the elements covered by `runs` straight into a wire buffer
    /// (payload bytes only — the caller writes the element-count header).
    ///
    /// The default stages through a scratch vector; dense-array libraries
    /// override this with one [`Wire::write_slice`] per run, so a send
    /// packs source storage → wire buffer in a single copy with no
    /// intermediate typed buffer.
    fn pack_runs_wire(&self, ep: &mut Endpoint, runs: &AddrRuns, out: &mut Vec<u8>)
    where
        T: Wire,
    {
        let mut scratch = Vec::with_capacity(runs.len());
        self.pack_runs(ep, runs, &mut scratch);
        T::write_slice(&scratch, out);
    }

    /// Decode `runs.len()` elements from a received payload straight into
    /// the elements covered by `runs` (the caller has already consumed the
    /// count header).  Default stages through a scratch vector; dense-array
    /// libraries override with one [`Wire::read_slice`] per run, making
    /// receive-side unpacking wire buffer → library storage in one copy.
    fn unpack_runs_wire(
        &mut self,
        ep: &mut Endpoint,
        runs: &AddrRuns,
        r: &mut mcsim::wire::WireReader<'_>,
    ) -> Result<(), mcsim::error::SimError>
    where
        T: Wire,
    {
        let mut scratch = Vec::with_capacity(runs.len());
        T::read_extend(r, runs.len(), &mut scratch)?;
        self.unpack_runs(ep, runs, &scratch);
        Ok(())
    }
}

/// One side (source or destination) of a transfer: the object and the
/// regions to move.  The owning program's [`Group`](mcsim::group::Group) is passed alongside to
/// [`crate::compute_schedule`] (every rank knows both program groups, but
/// only the owning program's ranks hold the object itself).
pub struct Side<'a, T: Copy, O: McObject<T>> {
    /// The distributed data structure.
    pub obj: &'a O,
    /// The elements to transfer, as the library's regions.
    pub set: &'a SetOfRegions<O::Region>,
    _t: std::marker::PhantomData<T>,
}

impl<'a, T: Copy, O: McObject<T>> Side<'a, T, O> {
    /// Bundle a side.
    pub fn new(obj: &'a O, set: &'a SetOfRegions<O::Region>) -> Self {
        Side {
            obj,
            set,
            _t: std::marker::PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::IndexSet;
    use mcsim::error::SimError;
    use mcsim::wire::WireReader;

    /// A toy descriptor: element `g` lives on rank `g % p`, addr `g / p`.
    #[derive(Clone, Debug, PartialEq)]
    struct CyclicDesc {
        p: usize,
    }

    impl Wire for CyclicDesc {
        fn write(&self, out: &mut Vec<u8>) {
            self.p.write(out);
        }
        fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
            Ok(CyclicDesc { p: usize::read(r)? })
        }
    }

    impl McDescriptor for CyclicDesc {
        type Region = IndexSet;
        fn locate(&self, set: &SetOfRegions<IndexSet>, pos: usize) -> Location {
            let (ri, off) = set.locate_position(pos);
            let g = set.regions()[ri].index(off);
            Location {
                rank: g % self.p,
                addr: g / self.p,
            }
        }
    }

    #[test]
    fn default_locate_all_matches_locate() {
        let d = CyclicDesc { p: 3 };
        let set = SetOfRegions::from_regions(vec![
            IndexSet::new(vec![4, 7, 9]),
            IndexSet::new(vec![0, 2]),
        ]);
        let all = d.locate_all(&set);
        assert_eq!(all.len(), 5);
        for (pos, loc) in all.iter().enumerate() {
            assert_eq!(*loc, d.locate(&set, pos));
        }
        assert_eq!(all[0], Location { rank: 1, addr: 1 }); // g=4, p=3
    }

    /// Rows of `width` positions; row `r` lives on rank `r % p` at
    /// addresses `100 r, 100 r + 3, …` — and counts how often it is asked.
    #[derive(Clone)]
    struct RowDesc {
        width: usize,
        p: usize,
        asked: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Wire for RowDesc {
        fn write(&self, _out: &mut Vec<u8>) {}
        fn read(_r: &mut WireReader<'_>) -> Result<Self, SimError> {
            Err(SimError::Decode("test-only descriptor".into()))
        }
    }

    impl McDescriptor for RowDesc {
        type Region = IndexSet;
        fn locate(&self, set: &SetOfRegions<IndexSet>, pos: usize) -> Location {
            let r = self.locate_run(set, pos, 1);
            Location {
                rank: r.rank,
                addr: r.addr,
            }
        }
        fn locate_run(
            &self,
            _set: &SetOfRegions<IndexSet>,
            pos: usize,
            max_len: usize,
        ) -> LocatedRun {
            self.asked
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let (row, col) = (pos / self.width, pos % self.width);
            LocatedRun {
                pos,
                len: (self.width - col).min(max_len),
                rank: row % self.p,
                addr: 100 * row + 3 * col,
                stride: 3,
            }
        }
    }

    #[test]
    fn cursor_asks_once_per_run_and_answers_like_the_descriptor() {
        let asked = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let d = RowDesc {
            width: 8,
            p: 3,
            asked: asked.clone(),
        };
        let set = SetOfRegions::single(IndexSet::new((0..40).collect()));
        let mut cur = LocateCursor::new(&d, &set);
        // Length-1 queries over every position, as a Chaos-side pass makes.
        for pos in 0..40 {
            let got = cur.locate_run(pos, 1);
            assert_eq!((got.pos, got.len), (pos, 1));
            assert_eq!(got.rank, (pos / 8) % 3);
            assert_eq!(got.addr, 100 * (pos / 8) + 3 * (pos % 8));
            assert_eq!(got.stride, 3);
        }
        let load = std::sync::atomic::Ordering::Relaxed;
        assert_eq!(asked.load(load), 5, "one descriptor call per row");
        // Caps: shorter than the cached remainder, equal, longer.
        let mut cur = LocateCursor::new(&d, &set);
        for (pos, cap, len) in [(9, 3, 3), (10, 6, 6), (11, 40, 5), (15, 2, 1), (16, 9, 8)] {
            let before = asked.load(load);
            let got = cur.locate_run(pos, cap);
            let cached = asked.load(load) == before;
            assert_eq!(got, d.locate_run(&set, pos, cap));
            assert_eq!(got.len, len);
            assert_eq!(cached, pos != 9 && pos != 16, "pos {pos}");
        }
    }

    #[test]
    fn default_locate_runs_covers_span_and_merges() {
        let d = CyclicDesc { p: 3 };
        let set = SetOfRegions::from_regions(vec![
            IndexSet::new(vec![4, 7, 9]),
            IndexSet::new(vec![0, 2]),
        ]);
        let runs = d.locate_runs(&set, 0, 5);
        // Positions 0..5 resolve to ranks 1,1,0,0,2 — three maximal runs.
        assert_eq!(runs.len(), 3);
        // Tiling: sorted, disjoint, covering 0..5 exactly.
        let mut next = 0;
        for r in &runs {
            assert_eq!(r.pos, next);
            next = r.end();
        }
        assert_eq!(next, 5);
        // Expansion agrees with per-position locate.
        for r in &runs {
            for k in 0..r.len {
                let loc = d.locate(&set, r.pos + k);
                assert_eq!((r.rank, r.addr_at(k)), (loc.rank, loc.addr));
            }
        }
        // A sub-span works too.
        let tail = d.locate_runs(&set, 3, 2);
        assert_eq!(tail[0].pos, 3);
        assert_eq!(tail.last().unwrap().end(), 5);
    }
}
