//! `LocateCursor` against the descriptors it serves: for each of the four
//! libraries' descriptors, seeded random region sets and random *ascending*
//! position subsets, the cached answer must equal a direct
//! `locate_run(pos, max_len)` field for field — including caps shorter than
//! what is left of the cached run, strided section rows (address stride
//! ≠ 1), region boundaries, and the length-1 answers of Chaos and Tulip.
//! This is the nesting contract of `McDescriptor::locate_run` that the
//! duplication build's cached located runs rest on.

use mcsim::Rng;
use meta_chaos::region::{DimSlice, IndexSet, Region, RegularSection};
use meta_chaos::{LocateCursor, McDescriptor, SetOfRegions};

use chaos::IrregDesc;
use hpf::{HpfDesc, HpfDist};
use multiblock::{BlockDesc, BlockDist};
use tulip::TulipDesc;

/// What the cursor answers vs. what the descriptor answers directly, over
/// one ascending walk with random steps and caps.
fn check_walk<D: McDescriptor>(desc: &D, set: &SetOfRegions<D::Region>, rng: &mut Rng, what: &str) {
    let total = set.total_len();
    if total == 0 {
        return;
    }
    let mut cur = LocateCursor::new(desc, set);
    let mut pos = rng.gen_range(total.min(4));
    while pos < total {
        let left = total - pos;
        // Caps: 1, something short, the whole remainder.
        let cap = match rng.gen_range(3) {
            0 => 1,
            1 => 1 + rng.gen_range(left.min(5)),
            _ => left,
        };
        let got = cur.locate_run(pos, cap);
        let want = desc.locate_run(set, pos, cap);
        assert_eq!(got, want, "{what}: pos {pos} cap {cap}");
        assert!(got.len >= 1 && got.len <= cap);
        // Step inside the run, to its end, or past a gap.
        pos += match rng.gen_range(4) {
            0 => 1,
            1 => got.len,
            2 => 1 + rng.gen_range(got.len),
            _ => got.len + rng.gen_range(7),
        };
    }
    // The contract also covers going back (answered correctly, just not
    // from the cache).
    let back = rng.gen_range(total);
    assert_eq!(
        cur.locate_run(back, total - back),
        desc.locate_run(set, back, total - back),
        "{what}: backward query"
    );
}

/// Random strided sections of `shape`, some with stride > 1 in the last
/// dimension (rows whose addresses advance by the stride).
fn random_sections(rng: &mut Rng, shape: &[usize]) -> SetOfRegions<RegularSection> {
    let regions = (0..1 + rng.gen_range(3))
        .map(|_| {
            RegularSection::new(
                shape
                    .iter()
                    .map(|&n| {
                        let lo = rng.gen_range(n);
                        let hi = lo + 1 + rng.gen_range(n - lo);
                        DimSlice::strided(lo, hi, 1 + rng.gen_range(3))
                    })
                    .collect(),
            )
        })
        .collect();
    SetOfRegions::from_regions(regions)
}

fn random_index_sets(rng: &mut Rng, n: usize) -> SetOfRegions<IndexSet> {
    let regions = (0..1 + rng.gen_range(3))
        .map(|_| {
            // A mix of consecutive stretches and scattered picks.
            let mut idx = Vec::new();
            for _ in 0..1 + rng.gen_range(6) {
                let start = rng.gen_range(n);
                let len = 1 + rng.gen_range((n - start).min(9));
                idx.extend(start..start + len);
            }
            IndexSet::new(idx)
        })
        .collect();
    SetOfRegions::from_regions(regions)
}

const CASES: usize = 60;

#[test]
fn multiblock_cursor_matches_direct_locate_run() {
    let mut rng = Rng::seed_from_u64(0xb10c);
    for case in 0..CASES {
        let procs = [1, 2, 4, 6][case % 4];
        let shape = vec![6 + rng.gen_range(10), 6 + rng.gen_range(20)];
        let desc = BlockDesc {
            dist: BlockDist::random(&mut rng, shape.clone(), procs),
            members: (0..procs).map(|r| 10 + 3 * r).collect(),
        };
        let set = random_sections(&mut rng, &shape);
        assert!(set.regions().iter().any(|r| !r.is_empty()));
        check_walk(&desc, &set, &mut rng, &format!("multiblock case {case}"));
    }
}

#[test]
fn hpf_cursor_matches_direct_locate_run() {
    let mut rng = Rng::seed_from_u64(0x4bf);
    let mut strided_rows = 0;
    for case in 0..CASES {
        let procs = [1, 2, 3, 4, 8][case % 5];
        let shape = vec![8 + rng.gen_range(8), 8 + rng.gen_range(24)];
        let desc = HpfDesc {
            dist: HpfDist::random(&mut rng, shape.clone(), procs),
            members: (0..procs).rev().collect(),
        };
        let set = random_sections(&mut rng, &shape);
        strided_rows += set
            .regions()
            .iter()
            .filter(|r| r.dims()[1].stride > 1 && r.dims()[1].count() > 1)
            .count();
        check_walk(&desc, &set, &mut rng, &format!("hpf case {case}"));
    }
    assert!(strided_rows > 0, "the cases must include stride != 1 rows");
}

#[test]
fn chaos_cursor_matches_direct_locate_run() {
    let mut rng = Rng::seed_from_u64(0xc4a05);
    for case in 0..CASES {
        let procs = 1 + rng.gen_range(5);
        let n = 20 + rng.gen_range(60);
        // A random table: any owner, any address.
        let table = (0..n)
            .map(|_| (rng.gen_range(procs) as u32, rng.gen_range(n) as u32))
            .collect();
        let desc = IrregDesc {
            n,
            members: (0..procs).map(|r| 2 * r + 1).collect(),
            table,
        };
        let set = random_index_sets(&mut rng, n);
        check_walk(&desc, &set, &mut rng, &format!("chaos case {case}"));
    }
}

#[test]
fn tulip_cursor_matches_direct_locate_run() {
    let mut rng = Rng::seed_from_u64(0x7011b);
    for case in 0..CASES {
        let procs = 1 + rng.gen_range(5);
        let n = 20 + rng.gen_range(60);
        let desc = TulipDesc {
            n,
            members: (0..procs).collect(),
        };
        let set = random_index_sets(&mut rng, n);
        check_walk(&desc, &set, &mut rng, &format!("tulip case {case}"));
    }
}
