//! The library interface (paper §4.1.3).
//!
//! To join the framework, a data-parallel library provides "a standard set
//! of inquiry functions": dereference elements of a SetOfRegions to owning
//! processor + local address, manipulate its Regions to build a
//! linearization, and pack/unpack elements to/from communication buffers.
//! [`McObject`] is that contract — owned segments, a descriptor, and a view
//! of the rank's local storage, over which pack/unpack are written once
//! here; [`McDescriptor`] is the shippable distribution descriptor that
//! enables the *duplication* schedule-build strategy.
//!
//! The four workspace libraries (`multiblock`, `chaos`, `hpf`, `tulip`)
//! implement these traits; see the `custom_library` example for how little
//! a fifth library needs.

use mcsim::error::SimError;
use mcsim::group::Comm;
use mcsim::prelude::Endpoint;
use mcsim::wire::{Wire, WireReader};

use crate::region::Region;
use crate::runs::{LocatedRun, OwnedRun};
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

    /// Locate the run of consecutive linearization positions starting at
    /// `pos` that live contiguously (in one address progression) on one
    /// rank — at most `max_len` positions.  The one location query a
    /// library implements; every other is derived from it.
    ///
    /// A length-1 run ([`LocatedRun::single`]) is always correct, and is
    /// what irregular descriptors answer; regular descriptors answer with
    /// closed-form interval arithmetic so the duplication build walks
    /// O(regions) runs instead of O(elements) locations.  Implementations
    /// must return `1 <= len <= max_len`, and the answers must nest: if the
    /// run from `pos` has length `L`, the run from `pos + k` (`k < L`)
    /// under a cap `m` is its suffix cut to `min(m, L - k)` — same rank,
    /// same stride, address `k` strides further on.  The duplication build
    /// relies on that to serve ascending queries from the last maximal
    /// answer.
    fn locate_run(
        &self,
        set: &SetOfRegions<Self::Region>,
        pos: usize,
        max_len: usize,
    ) -> LocatedRun;

    /// Location of element `pos` of the linearization of `set`.
    fn locate(&self, set: &SetOfRegions<Self::Region>, pos: usize) -> Location {
        let run = self.locate_run(set, pos, 1);
        Location {
            rank: run.rank,
            addr: run.addr,
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
    fn charge_locates(&self, ep: &mut Endpoint, n: usize) {
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
                len: 0,
                ..LocatedRun::single(0, 0, 0)
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
/// Meta-Chaos (one instance per rank of the owning program, SPMD): which
/// segments of a transfer this rank owns, a shippable descriptor, and a
/// view of the rank's local storage.  A [`LocalAddr`] *is* an offset into
/// that view, so packing and unpacking are written once, here.
pub trait McObject<T: Copy> {
    /// The library's Region type.
    type Region: Region + Wire;
    /// The library's distribution descriptor.
    type Descriptor: McDescriptor<Region = Self::Region>;

    /// Collective over the owning program (`comm`): dereference the
    /// elements of `set` and return, on each rank, the elements *this rank
    /// owns* as sorted, disjoint `(pos_start, len, addr_start, stride)`
    /// runs of linearization positions.
    ///
    /// Regular libraries emit one run per section row straight from owner
    /// arithmetic with no communication, making the inspector O(regions);
    /// Chaos consults its distributed translation table (request–reply
    /// with the table owners), coalesces consecutive entries and naturally
    /// degrades to length-1 runs.  The virtual clock is charged for the
    /// dereference *work* — per element, whatever the representation.
    fn deref_owned_runs(
        &self,
        comm: &mut Comm<'_>,
        set: &SetOfRegions<Self::Region>,
    ) -> Vec<OwnedRun>;

    /// Collective over the owning program: produce a descriptor every rank
    /// of the program holds in full (a Chaos implementation gathers its
    /// table pieces here, and charges the clock accordingly).
    fn descriptor(&self, comm: &mut Comm<'_>) -> Self::Descriptor;

    /// This rank's local storage; every [`LocalAddr`] the dereference and
    /// the descriptor hand out indexes it.
    fn local(&self) -> &[T];

    /// Mutable view of the same storage.
    fn local_mut(&mut self) -> &mut [T];

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

    /// Encode the elements covered by `runs` (in run order) straight into
    /// a wire buffer — payload bytes only, the caller writes the
    /// element-count header.  One [`Wire::write_slice`] per run: source
    /// storage → wire buffer in a single copy; a length-1 run (Chaos data)
    /// is one scalar [`Wire::write`] into the space reserved up front.
    fn pack_runs_wire(&self, ep: &mut Endpoint, runs: &AddrRuns, out: &mut Vec<u8>)
    where
        T: Wire,
    {
        let data = self.local();
        out.reserve(runs.len() * T::FIXED.unwrap_or(0));
        for &(start, len) in runs.runs() {
            if len == 1 {
                data[start].write(out);
            } else {
                T::write_slice(&data[start..start + len], out);
            }
        }
        ep.charge_copy_bytes(runs.len() * std::mem::size_of::<T>());
    }

    /// Decode `runs.len()` elements from a received payload straight into
    /// the elements covered by `runs` (the caller has already consumed the
    /// count header).  One [`Wire::read_slice`] per run: wire buffer →
    /// library storage in a single copy; a length-1 run is one scalar
    /// [`Wire::read`].
    fn unpack_runs_wire(
        &mut self,
        ep: &mut Endpoint,
        runs: &AddrRuns,
        r: &mut WireReader<'_>,
    ) -> Result<(), SimError>
    where
        T: Wire,
    {
        let data = self.local_mut();
        for &(start, len) in runs.runs() {
            if len == 1 {
                data[start] = T::read(r)?;
            } else {
                T::read_slice(r, &mut data[start..start + len])?;
            }
        }
        ep.charge_copy_bytes(runs.len() * std::mem::size_of::<T>());
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
    use crate::testlib::BlockVec;
    use mcsim::group::Group;
    use mcsim::model::MachineModel;
    use mcsim::world::World;

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
        fn locate_run(&self, set: &SetOfRegions<IndexSet>, pos: usize, _: usize) -> LocatedRun {
            let (ri, off) = set.locate_position(pos);
            let g = set.regions()[ri].index(off);
            LocatedRun::single(pos, g % self.p, g / self.p)
        }
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

    #[test]
    fn provided_pack_and_unpack_walk_the_local_view() {
        let world = World::with_model(1, MachineModel::sp2());
        world.run(|ep| {
            let g = Group::world(1);
            let src = BlockVec::create(&g, 0, 64, |i| i as f64 + 0.5);
            let cost = ep.model().byte_copy_cost;
            assert!(cost > 0.0);
            // One long run, Chaos-shaped length-1 runs at unsorted
            // addresses, and nothing at all.
            let long: AddrRuns = (8..40).collect();
            let ones: AddrRuns = [17usize, 3, 60, 5, 41].into_iter().collect();
            assert_eq!((long.runs().len(), ones.runs().len()), (1, 5));
            for runs in [&long, &ones, &AddrRuns::new()] {
                let charge = (runs.len() * 8) as f64 * cost;
                let before = ep.clock();
                let mut bytes = Vec::new();
                src.pack_runs_wire(ep, runs, &mut bytes);
                assert_eq!(ep.clock(), before + charge);
                let gathered: Vec<f64> = runs.iter().map(|a| src.data[a]).collect();
                let mut want = Vec::new();
                f64::write_slice(&gathered, &mut want);
                assert_eq!(bytes, want);

                let mut dst = BlockVec::create(&g, 0, 64, |_| -1.0);
                let before = ep.clock();
                let mut r = WireReader::new(&bytes);
                dst.unpack_runs_wire(ep, runs, &mut r).expect("round trip");
                assert_eq!(ep.clock(), before + charge);
                assert_eq!(r.remaining(), 0);
                let mut expect = vec![-1.0; 64];
                for a in runs.iter() {
                    expect[a] = src.data[a];
                }
                assert_eq!(dst.data, expect);
            }

            // A payload one element short of the second run: the first
            // run lands, the second run's storage is never touched.
            let mut runs = AddrRuns::new();
            runs.push_run(2, 3);
            runs.push_run(10, 4);
            let mut bytes = Vec::new();
            f64::write_slice(&[9.0; 6], &mut bytes);
            let mut dst = BlockVec::create(&g, 0, 64, |_| -1.0);
            let err = dst
                .unpack_runs_wire(ep, &runs, &mut WireReader::new(&bytes))
                .unwrap_err();
            assert!(matches!(err, SimError::Decode(_)), "{err:?}");
            let mut expect = vec![-1.0; 64];
            expect[2..5].fill(9.0);
            assert_eq!(dst.data, expect);

            // A payload ending inside a stretch of length-1 runs: the runs
            // before the short one land, later storage is untouched.
            let mut runs: AddrRuns = [30usize, 7, 50].into_iter().collect();
            runs.push_run(40, 3);
            runs.push(12);
            runs.push(60);
            let mut bytes = Vec::new();
            f64::write_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], &mut bytes);
            bytes.extend_from_slice(&[0xee; 4]);
            let mut dst = BlockVec::create(&g, 0, 64, |_| -1.0);
            let err = dst
                .unpack_runs_wire(ep, &runs, &mut WireReader::new(&bytes))
                .unwrap_err();
            assert!(matches!(err, SimError::Decode(_)), "{err:?}");
            let mut expect = vec![-1.0; 64];
            for (a, v) in [
                (30, 1.0),
                (7, 2.0),
                (50, 3.0),
                (40, 4.0),
                (41, 5.0),
                (42, 6.0),
            ] {
                expect[a] = v;
            }
            expect[12] = 7.0;
            assert_eq!(dst.data, expect);
        });
    }
}
