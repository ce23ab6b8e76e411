//! HPF distribution directives and their owner arithmetic.
//!
//! An [`HpfDist`] mirrors `!hpf$ distribute A(BLOCK, CYCLIC(3))`-style
//! directives: one [`DistKind`] per array dimension, mapped onto a
//! processor arrangement.  All queries are closed-form, as in a real HPF
//! runtime's local-addressing formulas — including *what a rank owns*:
//! [`HpfDist::owned_ranges`] enumerates the coordinate ranges of one
//! arrangement coordinate along one dimension arithmetically (one range
//! for `BLOCK`/`*`, one per chunk for `CYCLIC(k)`), so per-rank work is
//! proportional to what the rank owns, never to the global extent.
//!
//! Local storage convention: owned elements are stored densely, ordered by
//! their *global* coordinates (row-major), which for `BLOCK` degenerates to
//! the familiar contiguous block and for `CYCLIC(K)` to the standard
//! course/offset layout.

use mcsim::error::SimError;
use mcsim::rng::Rng;
use mcsim::wire::{Wire, WireReader};
use meta_chaos::region::DimSlice;

/// A per-dimension distribution directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistKind {
    /// `BLOCK`: balanced contiguous blocks.
    Block,
    /// `CYCLIC(k)`: round-robin in chunks of `k` (`CYCLIC` = `CYCLIC(1)`).
    Cyclic(usize),
    /// `*` (collapsed): the dimension is not distributed.
    Collapsed,
}

impl DistKind {
    /// Processor (along this dimension's proc axis) owning index `x` of an
    /// extent-`n` dimension over `g` procs.
    pub fn owner(&self, n: usize, g: usize, x: usize) -> usize {
        debug_assert!(x < n);
        match *self {
            DistKind::Block => {
                let base = n / g;
                let rem = n % g;
                let cut = rem * (base + 1);
                if x < cut {
                    x / (base + 1)
                } else {
                    rem + (x - cut) / base
                }
            }
            DistKind::Cyclic(k) => (x / k) % g,
            DistKind::Collapsed => 0,
        }
    }

    /// Local index (within the owner, along this dimension) of global `x`.
    pub fn local(&self, n: usize, g: usize, x: usize) -> usize {
        match *self {
            DistKind::Block => {
                let c = self.owner(n, g, x);
                let base = n / g;
                let rem = n % g;
                let lo = c * base + c.min(rem);
                x - lo
            }
            DistKind::Cyclic(k) => (x / (k * g)) * k + x % k,
            DistKind::Collapsed => x,
        }
    }

    /// How many indices of an extent-`n` dimension proc `c` of `g` owns.
    pub fn local_count(&self, n: usize, g: usize, c: usize) -> usize {
        match *self {
            DistKind::Block => {
                let base = n / g;
                let rem = n % g;
                base + usize::from(c < rem)
            }
            DistKind::Cyclic(k) => {
                // Full courses plus the remainder chunk.
                let per_course = k * g;
                let full = (n / per_course) * k;
                let tail = n % per_course;
                let mine = tail.saturating_sub(c * k).min(k);
                full + mine
            }
            DistKind::Collapsed => n,
        }
    }
}

impl Wire for DistKind {
    fn write(&self, out: &mut Vec<u8>) {
        match *self {
            DistKind::Block => 0u8.write(out),
            DistKind::Cyclic(k) => {
                1u8.write(out);
                k.write(out);
            }
            DistKind::Collapsed => 2u8.write(out),
        }
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        match u8::read(r)? {
            0 => Ok(DistKind::Block),
            1 => {
                let k = usize::read(r)?;
                if k == 0 {
                    return Err(SimError::Decode("CYCLIC(0)".into()));
                }
                Ok(DistKind::Cyclic(k))
            }
            2 => Ok(DistKind::Collapsed),
            t => Err(SimError::Decode(format!("bad DistKind tag {t}"))),
        }
    }
}

/// The ascending, disjoint coordinate ranges `[lo, hi)` one arrangement
/// coordinate owns along one dimension, clipped to a window — the
/// closed-form ownership primitive ([`HpfDist::owned_ranges`]).
///
/// Ownership along a dimension is an arithmetic progression of equal
/// chunks (`BLOCK` and `*` are the one-chunk case), so the iterator holds
/// four integers and yields each range in O(1): enumerating what a rank
/// owns costs O(owned chunks), independent of the dimension's extent.
#[derive(Debug, Clone)]
pub struct OwnedRanges {
    /// Start of the next owned chunk (not yet clipped to the window).
    chunk_lo: usize,
    /// Chunk length.
    len: usize,
    /// Distance between consecutive chunk starts.
    step: usize,
    /// Window `[from, to)` the yielded ranges are clipped to.
    from: usize,
    to: usize,
}

impl Iterator for OwnedRanges {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        // At most the first chunk can come out empty (it may end at or
        // before `from`); every later one starts inside the window.
        while self.chunk_lo < self.to {
            let lo = self.chunk_lo.max(self.from);
            let hi = self.chunk_lo.saturating_add(self.len).min(self.to);
            self.chunk_lo = self.chunk_lo.saturating_add(self.step);
            if lo < hi {
                return Some((lo, hi));
            }
        }
        None
    }
}

/// A full distribution: shape, per-dim directives, and the processor
/// arrangement (row-major over `proc_dims`, product = program size).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HpfDist {
    shape: Vec<usize>,
    kinds: Vec<DistKind>,
    proc_dims: Vec<usize>,
}

impl HpfDist {
    /// The construction invariants, shared by [`HpfDist::new`] (which
    /// panics on a violation) and the wire decoder (which reports it).
    /// Everything downstream relies on them: the owner arithmetic divides
    /// by extents, proc counts and chunk sizes, and the chunk-stepping
    /// loops of [`OwnedRanges`] would spin on a zero chunk.
    fn check(shape: &[usize], kinds: &[DistKind], proc_dims: &[usize]) -> Result<(), String> {
        if shape.len() != kinds.len() || shape.len() != proc_dims.len() {
            return Err("dist dimension mismatch".into());
        }
        for (d, kind) in kinds.iter().enumerate() {
            let (n, g) = (shape[d], proc_dims[d]);
            if n == 0 || g == 0 {
                return Err(format!(
                    "dim {d}: extent {n} over {g} procs must be non-zero"
                ));
            }
            match *kind {
                DistKind::Cyclic(0) => {
                    return Err(format!("CYCLIC dim {d}: chunk must be >= 1"));
                }
                DistKind::Collapsed if g != 1 => {
                    return Err(format!("collapsed dim {d} must have 1 proc, has {g}"));
                }
                DistKind::Block if n < g => {
                    return Err(format!("BLOCK dim {d}: extent {n} < procs {g}"));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Build a distribution.  Extents and proc counts must be non-zero,
    /// `proc_dims[d]` must be 1 wherever `kinds[d]` is `Collapsed`, a
    /// `BLOCK` extent must cover its procs, and a `CYCLIC` chunk must be
    /// at least 1.
    ///
    /// # Panics
    /// Panics, naming the dimension, when an invariant is violated.
    pub fn new(shape: Vec<usize>, kinds: Vec<DistKind>, proc_dims: Vec<usize>) -> Self {
        if let Err(why) = HpfDist::check(&shape, &kinds, &proc_dims) {
            panic!("invalid HPF distribution: {why}");
        }
        HpfDist {
            shape,
            kinds,
            proc_dims,
        }
    }

    /// A random valid distribution of `shape` over `procs` ranks, for
    /// generated scenarios (the fuzz harness): a uniformly chosen
    /// factorization of the procs into the arrangement, then a random
    /// legal directive per dimension (`BLOCK` only where the extent
    /// covers the procs, `CYCLIC(1..=4)` anywhere, `*` only on
    /// single-proc axes).
    pub fn random(rng: &mut Rng, shape: Vec<usize>, procs: usize) -> Self {
        fn factorizations(p: usize, ndim: usize, acc: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if ndim == 1 {
                acc.push(p);
                out.push(acc.clone());
                acc.pop();
                return;
            }
            for g in 1..=p {
                if p.is_multiple_of(g) {
                    acc.push(g);
                    factorizations(p / g, ndim - 1, acc, out);
                    acc.pop();
                }
            }
        }
        let mut arrangements = Vec::new();
        factorizations(procs, shape.len(), &mut Vec::new(), &mut arrangements);
        let proc_dims = arrangements[rng.gen_range(arrangements.len())].clone();
        let kinds = shape
            .iter()
            .zip(&proc_dims)
            .map(|(&n, &g)| {
                let cyclic = DistKind::Cyclic(1 + rng.gen_range(4));
                if g == 1 {
                    [DistKind::Block, cyclic, DistKind::Collapsed][rng.gen_range(3)]
                } else if n >= g && rng.gen_range(2) == 0 {
                    DistKind::Block
                } else {
                    cyclic
                }
            })
            .collect();
        HpfDist::new(shape, kinds, proc_dims)
    }

    /// 1-D `BLOCK` over `p` procs.
    pub fn block_1d(n: usize, p: usize) -> Self {
        HpfDist::new(vec![n], vec![DistKind::Block], vec![p])
    }

    /// 2-D `(BLOCK, BLOCK)` over an explicit proc mesh.
    pub fn block_block(rows: usize, cols: usize, prows: usize, pcols: usize) -> Self {
        HpfDist::new(
            vec![rows, cols],
            vec![DistKind::Block, DistKind::Block],
            vec![prows, pcols],
        )
    }

    /// 2-D `(BLOCK, *)` row-block over `p` procs.
    pub fn row_block(rows: usize, cols: usize, p: usize) -> Self {
        HpfDist::new(
            vec![rows, cols],
            vec![DistKind::Block, DistKind::Collapsed],
            vec![p, 1],
        )
    }

    /// Global array shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Per-dimension directives.
    pub fn kinds(&self) -> &[DistKind] {
        &self.kinds
    }

    /// Processor arrangement extents.
    pub fn proc_dims(&self) -> &[usize] {
        &self.proc_dims
    }

    /// Program size (product of the processor arrangement).
    pub fn num_procs(&self) -> usize {
        self.proc_dims.iter().product()
    }

    /// Program-local rank owning global `coords`.
    pub fn owner(&self, coords: &[usize]) -> usize {
        let mut r = 0;
        for (d, &c) in coords.iter().enumerate() {
            let o = self.kinds[d].owner(self.shape[d], self.proc_dims[d], c);
            r = r * self.proc_dims[d] + o;
        }
        r
    }

    /// Extents of rank `rank`'s local storage.
    pub fn local_shape(&self, rank: usize) -> Vec<usize> {
        let pc = self.proc_coords(rank);
        (0..self.shape.len())
            .map(|d| self.kinds[d].local_count(self.shape[d], self.proc_dims[d], pc[d]))
            .collect()
    }

    /// Number of elements rank `rank` stores.
    pub fn local_len(&self, rank: usize) -> usize {
        self.local_shape(rank).iter().product()
    }

    /// Local address (row-major over the local storage) of `coords` on its
    /// owning rank.
    ///
    /// Allocation-free (hot path: every element access goes through here).
    pub fn local_addr(&self, rank: usize, coords: &[usize]) -> usize {
        let mut addr = 0;
        let mut rank_rem = rank;
        let mut suffix: usize = self.proc_dims.iter().product();
        for (d, &c) in coords.iter().enumerate() {
            suffix /= self.proc_dims[d];
            let pc = rank_rem / suffix;
            rank_rem %= suffix;
            let count = self.kinds[d].local_count(self.shape[d], self.proc_dims[d], pc);
            let l = self.kinds[d].local(self.shape[d], self.proc_dims[d], c);
            debug_assert!(l < count);
            addr = addr * count + l;
        }
        addr
    }

    /// Processor-arrangement coordinates of `rank`.
    pub fn proc_coords(&self, mut rank: usize) -> Vec<usize> {
        let mut out = vec![0; self.proc_dims.len()];
        for d in (0..self.proc_dims.len()).rev() {
            out[d] = rank % self.proc_dims[d];
            rank /= self.proc_dims[d];
        }
        out
    }

    /// For `BLOCK`/`Collapsed` dims: the contiguous `[lo, hi)` owned range
    /// along `dim` by arrangement coordinate `c`.  Panics for cyclic dims.
    pub fn block_bounds(&self, dim: usize, c: usize) -> (usize, usize) {
        match self.kinds[dim] {
            DistKind::Block => {
                let n = self.shape[dim];
                let g = self.proc_dims[dim];
                let base = n / g;
                let rem = n % g;
                let lo = c * base + c.min(rem);
                (lo, lo + base + usize::from(c < rem))
            }
            DistKind::Collapsed => (0, self.shape[dim]),
            DistKind::Cyclic(_) => panic!("cyclic dim {dim} has no block bounds"),
        }
    }

    /// The ascending coordinate ranges `[lo, hi)` arrangement coordinate
    /// `c` owns along `dim`, in closed form: one range for `BLOCK`/`*`,
    /// one per owned chunk `c, c+g, c+2g, …` for `CYCLIC(k)` (none when
    /// the extent ends before `c`'s first chunk).
    pub fn owned_ranges(&self, dim: usize, c: usize) -> OwnedRanges {
        self.owned_ranges_within(dim, c, 0, self.shape[dim])
    }

    /// [`Self::owned_ranges`] clipped to the coordinate window
    /// `[from, to)`, starting at the first chunk that can reach it.
    fn owned_ranges_within(&self, dim: usize, c: usize, from: usize, to: usize) -> OwnedRanges {
        let n = self.shape[dim];
        debug_assert!(c < self.proc_dims[dim]);
        let (chunk_lo, len, step) = match self.kinds[dim] {
            DistKind::Block | DistKind::Collapsed => {
                let (lo, hi) = self.block_bounds(dim, c);
                (lo, hi - lo, n)
            }
            DistKind::Cyclic(k) => {
                let period = k.saturating_mul(self.proc_dims[dim]);
                let first = c.saturating_mul(k);
                // Skip the courses that lie wholly before the window.
                let skipped = from.saturating_sub(first) / period;
                (first.saturating_add(skipped * period), k, period)
            }
        };
        OwnedRanges {
            chunk_lo,
            len,
            step,
            from,
            to: to.min(n),
        }
    }

    /// The ascending ranges `[k_lo, k_hi)` of *section indices* (positions
    /// within `slice`) whose coordinates arrangement coordinate `c` owns
    /// along `dim`: [`Self::owned_ranges`] intersected with the slice.
    /// Within one yielded range consecutive indices stay inside one owned
    /// chunk, so their local indices advance by `slice.stride`.
    pub fn owned_section_ranges(
        &self,
        dim: usize,
        c: usize,
        slice: &DimSlice,
    ) -> impl Iterator<Item = (usize, usize)> {
        let slice = *slice;
        self.owned_ranges_within(dim, c, slice.lo, slice.hi)
            .filter_map(move |(lo, hi)| slice.positions_within(lo, hi))
    }

    /// One past the last coordinate of the owned segment (the block, or
    /// the `CYCLIC(k)` chunk) that contains `x` along `dim`.
    pub fn segment_end(&self, dim: usize, x: usize) -> usize {
        match self.kinds[dim] {
            DistKind::Cyclic(k) => (x / k + 1) * k,
            kind => {
                let owner = kind.owner(self.shape[dim], self.proc_dims[dim], x);
                self.block_bounds(dim, owner).1
            }
        }
    }

    /// True when every dimension's ownership is contiguous.  It selects
    /// the Meta-Chaos adapter's charge: the simulated runtime intersects
    /// boxes then (owned elements), and inspects the whole section once a
    /// `CYCLIC(k)` dimension is involved.
    pub fn is_all_contiguous(&self) -> bool {
        self.kinds
            .iter()
            .all(|k| matches!(k, DistKind::Block | DistKind::Collapsed))
    }
}

impl Wire for HpfDist {
    fn write(&self, out: &mut Vec<u8>) {
        self.shape.write(out);
        self.kinds.write(out);
        self.proc_dims.write(out);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        let shape = Vec::<usize>::read(r)?;
        let kinds = Vec::<DistKind>::read(r)?;
        let proc_dims = Vec::<usize>::read(r)?;
        HpfDist::check(&shape, &kinds, &proc_dims).map_err(SimError::Decode)?;
        Ok(HpfDist {
            shape,
            kinds,
            proc_dims,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_owner_local_roundtrip() {
        let k = DistKind::Block;
        for (n, g) in [(10, 3), (16, 4), (7, 7)] {
            let mut counts = vec![0usize; g];
            for x in 0..n {
                let o = k.owner(n, g, x);
                let l = k.local(n, g, x);
                assert!(l < k.local_count(n, g, o), "n={n} g={g} x={x}");
                counts[o] += 1;
            }
            for c in 0..g {
                assert_eq!(counts[c], k.local_count(n, g, c));
            }
        }
    }

    #[test]
    fn cyclic_owner_local_roundtrip() {
        for kk in [1usize, 2, 3] {
            let k = DistKind::Cyclic(kk);
            for (n, g) in [(10, 3), (17, 4), (5, 8)] {
                let mut seen: Vec<Vec<usize>> = vec![Vec::new(); g];
                for x in 0..n {
                    let o = k.owner(n, g, x);
                    seen[o].push(x);
                }
                for c in 0..g {
                    assert_eq!(
                        seen[c].len(),
                        k.local_count(n, g, c),
                        "k={kk} n={n} g={g} c={c}"
                    );
                    // Local indices must be 0..count in global order.
                    for (i, &x) in seen[c].iter().enumerate() {
                        assert_eq!(k.local(n, g, x), i, "k={kk} n={n} g={g} x={x}");
                    }
                }
            }
        }
    }

    #[test]
    fn cyclic1_matches_modulo() {
        let k = DistKind::Cyclic(1);
        for x in 0..20 {
            assert_eq!(k.owner(20, 4, x), x % 4);
            assert_eq!(k.local(20, 4, x), x / 4);
        }
    }

    #[test]
    fn dist_2d_block_block() {
        let d = HpfDist::block_block(8, 6, 2, 3);
        assert_eq!(d.num_procs(), 6);
        let mut counts = [0usize; 6];
        for i in 0..8 {
            for j in 0..6 {
                let r = d.owner(&[i, j]);
                let a = d.local_addr(r, &[i, j]);
                assert!(a < d.local_len(r));
                counts[r] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 8));
    }

    #[test]
    fn local_addrs_are_dense_and_unique() {
        let d = HpfDist::new(
            vec![9, 10],
            vec![DistKind::Cyclic(2), DistKind::Block],
            vec![2, 2],
        );
        for r in 0..4 {
            let mut seen = vec![false; d.local_len(r)];
            for i in 0..9 {
                for j in 0..10 {
                    if d.owner(&[i, j]) == r {
                        let a = d.local_addr(r, &[i, j]);
                        assert!(!seen[a], "rank {r} addr {a} reused");
                        seen[a] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "rank {r} has holes");
        }
    }

    #[test]
    fn row_block_collapsed() {
        let d = HpfDist::row_block(10, 4, 3);
        assert_eq!(d.owner(&[0, 3]), 0);
        assert_eq!(d.owner(&[9, 0]), 2);
        assert_eq!(d.block_bounds(0, 0), (0, 4));
        assert_eq!(d.block_bounds(1, 0), (0, 4));
        assert!(d.is_all_contiguous());
        assert!(!HpfDist::new(vec![4], vec![DistKind::Cyclic(1)], vec![2]).is_all_contiguous());
    }

    #[test]
    fn wire_roundtrip() {
        let d = HpfDist::new(
            vec![9, 10],
            vec![DistKind::Cyclic(2), DistKind::Block],
            vec![2, 2],
        );
        assert_eq!(HpfDist::from_bytes(&d.to_bytes()).unwrap(), d);
    }

    #[test]
    fn owned_ranges_are_exactly_the_owned_coordinates() {
        for kind in [
            DistKind::Block,
            DistKind::Collapsed,
            DistKind::Cyclic(1),
            DistKind::Cyclic(3),
            DistKind::Cyclic(40),
        ] {
            for (n, g) in [(10, 3), (17, 4), (5, 8), (7, 7), (1, 1)] {
                let g = if kind == DistKind::Collapsed { 1 } else { g };
                if kind == DistKind::Block && n < g {
                    continue;
                }
                let d = HpfDist::new(vec![n], vec![kind], vec![g]);
                for c in 0..g {
                    let ranges: Vec<_> = d.owned_ranges(0, c).collect();
                    assert!(
                        ranges.iter().all(|&(lo, hi)| lo < hi),
                        "{kind:?} {ranges:?}"
                    );
                    assert!(ranges.windows(2).all(|w| w[0].1 < w[1].0), "{ranges:?}");
                    let listed: Vec<usize> = ranges.iter().flat_map(|&(lo, hi)| lo..hi).collect();
                    let owned: Vec<usize> = (0..n).filter(|&x| kind.owner(n, g, x) == c).collect();
                    assert_eq!(listed, owned, "{kind:?} n={n} g={g} c={c}");
                }
            }
        }
    }

    #[test]
    fn owned_section_ranges_match_a_scan_of_the_slice() {
        let d = HpfDist::new(
            vec![23, 20],
            vec![DistKind::Cyclic(3), DistKind::Block],
            vec![2, 3],
        );
        for (dim, g) in [(0usize, 2usize), (1, 3)] {
            let n = d.shape()[dim];
            for lo in 0..=n {
                for hi in lo..=n {
                    for stride in 1..=5 {
                        let s = DimSlice::strided(lo, hi, stride);
                        for c in 0..g {
                            let got: Vec<usize> = d
                                .owned_section_ranges(dim, c, &s)
                                .flat_map(|(a, b)| a..b)
                                .collect();
                            let want: Vec<usize> = (0..s.count())
                                .filter(|&k| d.kinds()[dim].owner(n, g, s.index(k)) == c)
                                .collect();
                            assert_eq!(got, want, "dim {dim} c {c} {s:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn huge_cyclic_dimension_is_enumerated_in_closed_form() {
        // 2^40 coordinates: only arithmetic on chunk bounds can finish.
        let (n, k, g) = (1usize << 40, 1usize << 20, 128usize);
        let d = HpfDist::new(vec![n], vec![DistKind::Cyclic(k)], vec![g]);
        for c in [0, 1, 77, 127] {
            let mut chunks = 0usize;
            let mut coords = 0usize;
            for (i, (lo, hi)) in d.owned_ranges(0, c).enumerate() {
                assert_eq!((lo, hi - lo), ((c + i * g) * k, k));
                chunks += 1;
                coords += hi - lo;
            }
            assert_eq!(chunks, n / (k * g));
            assert_eq!(coords, DistKind::Cyclic(k).local_count(n, g, c));
        }
        // A strided window deep inside it touches only the chunks it spans.
        let s = DimSlice::strided(n / 2 + 5, n / 2 + 5 + 3 * k * g, 1 << 10);
        let idx: usize = d.owned_section_ranges(0, 3, &s).map(|(a, b)| b - a).sum();
        assert_eq!(idx, 3 * k / (1 << 10));
    }

    #[test]
    #[should_panic(expected = "CYCLIC dim 0: chunk must be >= 1")]
    fn cyclic_zero_is_rejected_at_construction() {
        let _ = HpfDist::new(vec![8], vec![DistKind::Cyclic(0)], vec![2]);
    }

    #[test]
    fn decoder_enforces_the_construction_invariants() {
        // Encode field by field (HpfDist::new would refuse these).
        let encode = |shape: Vec<usize>, kinds: Vec<DistKind>, procs: Vec<usize>| {
            let mut out = Vec::new();
            shape.write(&mut out);
            kinds.write(&mut out);
            procs.write(&mut out);
            out
        };
        let bad = [
            encode(vec![0], vec![DistKind::Block], vec![1]),
            encode(vec![4], vec![DistKind::Cyclic(1)], vec![0]),
            encode(vec![4], vec![DistKind::Collapsed], vec![2]),
            encode(vec![3], vec![DistKind::Block], vec![4]),
            encode(vec![4, 4], vec![DistKind::Block], vec![2]),
        ];
        for bytes in bad {
            assert!(matches!(
                HpfDist::from_bytes(&bytes),
                Err(SimError::Decode(_))
            ));
        }
        // CYCLIC(0) cannot even be written through DistKind; patch the k.
        let mut bytes = encode(vec![8], vec![DistKind::Cyclic(7)], vec![2]);
        let at = bytes.iter().position(|&b| b == 7).expect("chunk byte");
        bytes[at] = 0;
        assert!(matches!(
            HpfDist::from_bytes(&bytes),
            Err(SimError::Decode(_))
        ));
        let ok = encode(vec![8], vec![DistKind::Cyclic(7)], vec![2]);
        assert!(HpfDist::from_bytes(&ok).is_ok());
    }

    #[test]
    #[should_panic(expected = "collapsed dim")]
    fn collapsed_needs_one_proc() {
        let _ = HpfDist::new(vec![4], vec![DistKind::Collapsed], vec![2]);
    }
}
