//! Schedule-parity property test for the inspector: for every
//! source→destination pair of the four libraries and several seeds, the
//! schedule `compute_schedule` builds on every rank must equal what the
//! communication-free serial oracle (`fuzz::oracle::serial_schedule`: pair
//! the two descriptors' `locate` answers position by position) says it
//! should be — same sends, recvs and local pairs — and the executed
//! `data_move` must put exactly one message of `8 + 8·len` bytes on the
//! wire per non-empty oracle pair.

use fuzz::oracle::{serial_schedule, Motion};
use mcsim::group::{Comm, Group};
use mcsim::prelude::Endpoint;
use mcsim::wire::Wire;
use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::datamove::data_move;
use meta_chaos::region::{IndexSet, RegularSection};
use meta_chaos::setof::SetOfRegions;
use meta_chaos::{McObject, Side};
use meta_chaos_repro::test_world;

use chaos::{IrregArray, Partition};
use hpf::{HpfArray, HpfDist};
use multiblock::MultiblockArray;
use tulip::DistributedCollection;

const N: usize = 48;
const P: usize = 4;
const SEEDS: [u64; 3] = [7, 19, 31];

/// Seeded Fisher–Yates permutation of `0..N` (tiny LCG, no external RNG).
fn permutation(seed: u64) -> Vec<usize> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut v: Vec<usize> = (0..N).collect();
    for i in (1..N).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

fn mk_multiblock(
    _ep: &mut Endpoint,
    g: &Group,
    rank: usize,
    _seed: u64,
) -> (MultiblockArray<f64>, SetOfRegions<RegularSection>) {
    let mut a = MultiblockArray::<f64>::new(g, rank, &[6, 8]);
    a.fill_with(|c| (c[0] * 8 + c[1]) as f64);
    (a, SetOfRegions::single(RegularSection::whole(&[6, 8])))
}

fn mk_hpf(
    _ep: &mut Endpoint,
    g: &Group,
    rank: usize,
    _seed: u64,
) -> (HpfArray<f64>, SetOfRegions<RegularSection>) {
    let mut h = HpfArray::<f64>::new(
        g,
        rank,
        HpfDist::new(vec![N], vec![hpf::DistKind::Cyclic(3)], vec![P]),
    );
    h.for_each_owned(|c, v| *v = c[0] as f64);
    (h, SetOfRegions::single(RegularSection::whole(&[N])))
}

fn mk_tulip(
    _ep: &mut Endpoint,
    g: &Group,
    rank: usize,
    seed: u64,
) -> (DistributedCollection<f64>, SetOfRegions<IndexSet>) {
    let mut c = DistributedCollection::<f64>::new(g, rank, N);
    c.apply(|gi, v| *v = gi as f64);
    (c, SetOfRegions::single(IndexSet::new(permutation(seed))))
}

fn mk_chaos(
    ep: &mut Endpoint,
    g: &Group,
    _rank: usize,
    seed: u64,
) -> (IrregArray<f64>, SetOfRegions<IndexSet>) {
    let x = {
        let mut comm = Comm::new(ep, g.clone());
        IrregArray::create(&mut comm, N, Partition::Random(seed), |gi| gi as f64)
    };
    (
        x,
        SetOfRegions::single(IndexSet::new(permutation(seed.wrapping_add(3)))),
    )
}

/// Build the transfer and run it once on every rank, then hold each
/// rank's schedule and `data_move` traffic against the serial oracle,
/// which sees only the two descriptors (as wire bytes) and region sets.
fn check_pair<S, D, MS, MD>(name: &str, mk_src: MS, mk_dst: MD, method: BuildMethod, seed: u64)
where
    S: McObject<f64> + 'static,
    D: McObject<f64> + 'static,
    S::Region: Send,
    D::Region: Send,
    MS: Fn(&mut Endpoint, &Group, usize, u64) -> (S, SetOfRegions<S::Region>) + Send + Sync,
    MD: Fn(&mut Endpoint, &Group, usize, u64) -> (D, SetOfRegions<D::Region>) + Send + Sync,
{
    let g = Group::world(P);
    let results = test_world(P)
        .run(|ep| {
            let (src, sset) = mk_src(ep, &g, ep.rank(), seed);
            let (mut dst, dset) = mk_dst(ep, &g, ep.rank(), seed.wrapping_add(17));
            let sched = compute_schedule(
                ep,
                &g,
                &g,
                Some(Side::new(&src, &sset)),
                &g,
                Some(Side::new(&dst, &dset)),
                method,
            )
            .expect("schedule builds");
            let before = ep.stats_snapshot();
            data_move(ep, &sched, &src, &mut dst);
            let delta = ep.stats_snapshot().since(&before);
            let mut comm = Comm::borrowed(ep, &g);
            let sdesc = src.descriptor(&mut comm).to_bytes();
            let ddesc = dst.descriptor(&mut comm).to_bytes();
            (Motion::of(&sched), delta, (sdesc, sset), (ddesc, dset))
        })
        .results;
    let (_, _, (sdesc, sset), (ddesc, dset)) = &results[0];
    let oracle = serial_schedule::<S::Descriptor, D::Descriptor>(&g, (sdesc, sset), (ddesc, dset));
    for (rank, ((got, moved, ..), want)) in results.iter().zip(&oracle).enumerate() {
        let ctx = format!("{name}: rank {rank} (seed {seed}, {method:?})");
        assert_eq!(got, want, "{ctx}");
        let (mut msgs, mut bytes) = (vec![0u64; P], vec![0u64; P]);
        for (peer, runs) in &want.sends {
            msgs[*peer] = 1;
            bytes[*peer] = 8 + 8 * runs.len() as u64;
        }
        assert_eq!(moved.msgs_to, msgs, "{ctx}: messages per peer");
        assert_eq!(moved.bytes_to, bytes, "{ctx}: bytes per peer");
    }
}

macro_rules! parity_case {
    ($name:ident, $mk_src:ident, $mk_dst:ident) => {
        #[test]
        fn $name() {
            for method in [BuildMethod::Cooperation, BuildMethod::Duplication] {
                for seed in SEEDS {
                    check_pair(stringify!($name), $mk_src, $mk_dst, method, seed);
                }
            }
        }
    };
}

parity_case!(multiblock_to_multiblock, mk_multiblock, mk_multiblock);
parity_case!(multiblock_to_hpf, mk_multiblock, mk_hpf);
parity_case!(multiblock_to_tulip, mk_multiblock, mk_tulip);
parity_case!(multiblock_to_chaos, mk_multiblock, mk_chaos);
parity_case!(hpf_to_multiblock, mk_hpf, mk_multiblock);
parity_case!(hpf_to_hpf, mk_hpf, mk_hpf);
parity_case!(hpf_to_tulip, mk_hpf, mk_tulip);
parity_case!(hpf_to_chaos, mk_hpf, mk_chaos);
parity_case!(tulip_to_multiblock, mk_tulip, mk_multiblock);
parity_case!(tulip_to_hpf, mk_tulip, mk_hpf);
parity_case!(tulip_to_tulip, mk_tulip, mk_tulip);
parity_case!(tulip_to_chaos, mk_tulip, mk_chaos);
parity_case!(chaos_to_multiblock, mk_chaos, mk_multiblock);
parity_case!(chaos_to_hpf, mk_chaos, mk_hpf);
parity_case!(chaos_to_tulip, mk_chaos, mk_tulip);
parity_case!(chaos_to_chaos, mk_chaos, mk_chaos);
