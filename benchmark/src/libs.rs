//! The four libraries behind one small trait, so workloads, probes and
//! the oracle can be written once and instantiated per library (and per
//! library *pair*).  Everything here goes through the libraries' public
//! constructors and accessors.

use mcsim::group::{Comm, Group};
use mcsim::prelude::Endpoint;
use meta_chaos::region::{IndexSet, RegularSection};
use meta_chaos::setof::SetOfRegions;
use meta_chaos::McObject;

use chaos::{IrregArray, Partition};
use hpf::{HpfArray, HpfDist};
use multiblock::MultiblockArray;
use tulip::DistributedCollection;

/// splitmix64 finalizer: the benchmark's only hash.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The value the source holds at global index `g` in fill generation
/// `gen` of stream `stream` (a workload-chosen id, e.g. the source
/// library).  53 random mantissa bits in `[0, 1)`: every element differs,
/// so a misplaced or stale element fails the bit-exact oracle.
pub fn value(seed: u64, stream: u64, gen: u64, g: usize) -> f64 {
    let h = mix(mix(seed ^ stream.rotate_left(48)) ^ mix(gen) ^ g as u64);
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// What the oracle writes over a destination before a verified
/// iteration; no [`value`] is negative, so a survivor is a mismatch.
pub const POISON: f64 = -1.0;

/// One data-parallel library as the benchmark drives it: a 1-D object of
/// `n` elements with a fixed distribution family (only Chaos's partition
/// depends on the seed), its whole-object region set, and owner-computes
/// iteration by global index.
pub trait Lib: McObject<f64> + Sized {
    /// Lower-case library name, as used in metric names.
    const NAME: &'static str;

    /// Collective over `prog`: an `n`-element object, all zeros.
    fn build(ep: &mut Endpoint, prog: &Group, n: usize, seed: u64) -> Self;

    /// The region set covering all `n` elements in index order.
    fn whole(n: usize) -> SetOfRegions<Self::Region>;

    /// Visit every element this rank owns as `(global index, &mut value)`.
    fn for_owned(&mut self, f: impl FnMut(usize, &mut f64));
}

impl Lib for MultiblockArray<f64> {
    const NAME: &'static str = "multiblock";

    fn build(ep: &mut Endpoint, prog: &Group, n: usize, _seed: u64) -> Self {
        MultiblockArray::new(prog, ep.rank(), &[n])
    }

    fn whole(n: usize) -> SetOfRegions<RegularSection> {
        SetOfRegions::single(RegularSection::whole(&[n]))
    }

    fn for_owned(&mut self, mut f: impl FnMut(usize, &mut f64)) {
        mesh_for_owned(self, &mut f);
    }
}

/// Owner-computes iteration over a Multiblock array of any rank, with
/// the row-major flattened global index (1-D vectors and the 2-D mesh of
/// `irregular-remap` share it).
pub fn mesh_for_owned(a: &mut MultiblockArray<f64>, f: &mut impl FnMut(usize, &mut f64)) {
    let shape = a.dist().shape().to_vec();
    let bounds = a.my_box();
    if bounds.iter().any(|&(lo, hi)| lo >= hi) {
        return;
    }
    let mut c: Vec<usize> = bounds.iter().map(|b| b.0).collect();
    loop {
        let g = c.iter().zip(&shape).fold(0, |acc, (&x, &n)| acc * n + x);
        let mut v = a.get(&c);
        f(g, &mut v);
        a.set(&c, v);
        let mut d = c.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            c[d] += 1;
            if c[d] < bounds[d].1 {
                break;
            }
            c[d] = bounds[d].0;
        }
    }
}

impl Lib for HpfArray<f64> {
    const NAME: &'static str = "hpf";

    fn build(ep: &mut Endpoint, prog: &Group, n: usize, _seed: u64) -> Self {
        HpfArray::new(prog, ep.rank(), HpfDist::block_1d(n, prog.size()))
    }

    fn whole(n: usize) -> SetOfRegions<RegularSection> {
        SetOfRegions::single(RegularSection::whole(&[n]))
    }

    fn for_owned(&mut self, mut f: impl FnMut(usize, &mut f64)) {
        self.for_each_owned(|c, v| f(c[0], v));
    }
}

impl Lib for DistributedCollection<f64> {
    const NAME: &'static str = "tulip";

    fn build(ep: &mut Endpoint, prog: &Group, n: usize, _seed: u64) -> Self {
        DistributedCollection::new(prog, ep.rank(), n)
    }

    fn whole(n: usize) -> SetOfRegions<IndexSet> {
        SetOfRegions::single(IndexSet::new((0..n).collect()))
    }

    fn for_owned(&mut self, f: impl FnMut(usize, &mut f64)) {
        self.apply(f);
    }
}

impl Lib for IrregArray<f64> {
    const NAME: &'static str = "chaos";

    fn build(ep: &mut Endpoint, prog: &Group, n: usize, seed: u64) -> Self {
        let mut comm = Comm::borrowed(ep, prog);
        IrregArray::create(&mut comm, n, Partition::Random(mix(seed ^ 0xc4a0)), |_| 0.0)
    }

    fn whole(n: usize) -> SetOfRegions<IndexSet> {
        SetOfRegions::single(IndexSet::new((0..n).collect()))
    }

    fn for_owned(&mut self, f: impl FnMut(usize, &mut f64)) {
        self.for_each_owned(f);
    }
}

/// Fill every owned element of `obj` from `f(global index)`.
pub fn fill<L: Lib>(obj: &mut L, f: impl Fn(usize) -> f64) {
    obj.for_owned(|g, v| *v = f(g));
}

/// Oracle compare: how many owned elements of `obj` differ bit-wise from
/// `expect(global index)`.
pub fn mismatches<L: Lib>(obj: &mut L, expect: impl Fn(usize) -> f64) -> usize {
    let mut bad = 0;
    obj.for_owned(|g, v| bad += usize::from(v.to_bits() != expect(g).to_bits()));
    bad
}
