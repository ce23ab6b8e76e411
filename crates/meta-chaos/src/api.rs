//! The paper-flavoured applications-programmer interface.
//!
//! The paper's Figure 9 shows the C/Fortran-style entry points
//! (`CreateRegion_HPF`, `MC_NewSetOfRegion`, `MC_AddRegion2Set`,
//! `MC_ComputeSched`, `MC_DataMoveSend`, `MC_DataMoveRecv`).  This module
//! provides the same vocabulary as thin wrappers over the idiomatic Rust
//! API, so the example in the paper transliterates almost line for line:
//!
//! ```text
//! regionId  = CreateRegion_HPF(2, Rleft, Rright)      ← create_region_hpf
//! setId     = MC_NewSetOfRegion()                     ← mc_new_set_of_region
//! MC_AddRegion2Set(regionId, setId)                   ← mc_add_region_2_set
//! schedId   = MC_ComputeSched(HPF, B, setId)          ← mc_compute_sched_*
//! MC_DataMoveSend(schedId, B)                         ← mc_data_move_send
//! MC_DataMoveRecv(schedId, A)                         ← mc_data_move_recv
//! ```
//!
//! Regions in the paper are specified with Fortran-style *inclusive*
//! bounds; [`create_region_hpf`] performs that conversion.

use std::collections::HashMap;

use mcsim::group::{Comm, Group};
use mcsim::prelude::Endpoint;
use mcsim::wire::Wire;

use crate::adapter::{McObject, Side};
use crate::build::{compute_schedule, BuildMethod};
use crate::datamove;
use crate::error::McError;
use crate::region::{DimSlice, Region, RegularSection};
use crate::schedule::Schedule;
use crate::setof::SetOfRegions;

/// Scratch key of the per-rank memo of built schedules, keyed by a
/// transfer fingerprint agreed across the union group.  Lives for one
/// `World::run` (each run gets fresh endpoints), reproducing the paper's
/// computed-once, reused-many-times inspector economics as a measurable
/// cache.
const SCHED_CACHE_KEY: u32 = 0x5343_4143; // "SCAC"

type SchedCache = HashMap<u64, Schedule>;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a-style accumulation over `bytes` into `h`, eight bytes per
/// multiply (descriptor and region-set encodings run to tens of KiB, and a
/// cache *hit* pays for hashing all of them).  The shift folds each
/// step's high half back down, which a bare word-wide multiply never does.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    let mut step = |w: u64| {
        *h = (*h ^ w).wrapping_mul(FNV_PRIME);
        *h ^= *h >> 32;
    };
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        step(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    for &b in words.remainder() {
        step(b as u64);
    }
}

/// Fold a value's wire encoding into `h`, encoding into the caller's
/// scratch buffer instead of a fresh vector per value.
fn fnv_wire<W: Wire>(h: &mut u64, scratch: &mut Vec<u8>, value: &W) {
    scratch.clear();
    value.write(scratch);
    fnv1a(h, scratch);
}

/// Fold a group's identity into a fingerprint.
fn fnv_group(h: &mut u64, g: &Group) {
    for &m in g.members() {
        fnv1a(h, &(m as u64).to_le_bytes());
    }
    fnv1a(h, &g.context().to_le_bytes());
}

/// Combine every rank's local fingerprint into one key (collective over
/// `union`) and probe the cache.  Folding *all* ranks' fingerprints in
/// makes the hit/miss decision identical everywhere even if one rank's
/// inputs diverge, so a hit (which skips the build's communication) can
/// never deadlock against a miss.
fn sched_cache_probe(ep: &mut Endpoint, union: &Group, local_fp: u64) -> (u64, Option<Schedule>) {
    let all: Vec<u64> = Comm::borrowed(ep, union).allgather_t(local_fp);
    let mut key = FNV_OFFSET;
    for v in all {
        fnv1a(&mut key, &v.to_le_bytes());
    }
    let hit = ep.scratch::<SchedCache>(SCHED_CACHE_KEY).get(&key).cloned();
    ep.record_sched_cache(hit.is_some());
    ep.mark(|| match &hit {
        Some(s) => format!("sched_cache hit key={key:#018x} seq={}", s.seq()),
        None => format!("sched_cache miss key={key:#018x}"),
    });
    (key, hit)
}

fn sched_cache_insert(ep: &mut Endpoint, key: u64, sched: &Schedule) {
    ep.scratch::<SchedCache>(SCHED_CACHE_KEY)
        .insert(key, sched.clone());
}

/// Number of schedules this rank has memoized (diagnostics/tests).
pub fn mc_sched_cache_len(ep: &mut Endpoint) -> usize {
    ep.scratch::<SchedCache>(SCHED_CACHE_KEY).len()
}

/// Drop every memoized schedule on this rank.  Collective discipline is the
/// caller's problem: clear on all ranks or on none (benchmarks use this to
/// re-measure cold builds).
pub fn mc_sched_cache_clear(ep: &mut Endpoint) {
    ep.scratch::<SchedCache>(SCHED_CACHE_KEY).clear();
}

/// `CreateRegion_HPF(ndim, left, right)`: an HPF array-section region from
/// Fortran-style **inclusive** 1-based bounds, as in the paper's example
/// (`Rleft(1)=50 ... Rright(1)=100` describes `B(50:100, ...)`).
pub fn create_region_hpf(left: &[usize], right: &[usize]) -> RegularSection {
    assert_eq!(left.len(), right.len(), "bound arrays must pair up");
    assert!(!left.is_empty(), "need at least one dimension");
    RegularSection::new(
        left.iter()
            .zip(right)
            .map(|(&l, &r)| {
                assert!(l >= 1, "Fortran bounds are 1-based");
                assert!(r >= l, "right bound below left bound");
                // 1-based inclusive -> 0-based half-open.
                DimSlice::new(l - 1, r)
            })
            .collect(),
    )
}

/// `MC_NewSetOfRegion()`: an empty SetOfRegions.
pub fn mc_new_set_of_region<R: Region>() -> SetOfRegions<R> {
    SetOfRegions::new()
}

/// `MC_AddRegion2Set(regionId, setId)`.
pub fn mc_add_region_2_set<R: Region>(region: R, set: &mut SetOfRegions<R>) {
    set.add(region);
}

/// `MC_ComputeSched` for a transfer within one program (the Figure 2
/// scenario: both data structures in the same data-parallel program).
///
/// Memoized: the transfer is fingerprinted over both distribution
/// descriptors, both region sets and the group; a repeat call with
/// identical inputs returns the cached schedule without running the
/// inspector (hits/misses are counted in
/// [`StatsSnapshot`](mcsim::stats::StatsSnapshot)).
#[allow(clippy::too_many_arguments)]
pub fn mc_compute_sched<T, S, D>(
    ep: &mut Endpoint,
    prog: &Group,
    src_obj: &S,
    src_set: &SetOfRegions<S::Region>,
    dst_obj: &D,
    dst_set: &SetOfRegions<D::Region>,
) -> Result<Schedule, McError>
where
    T: Copy,
    S: McObject<T>,
    D: McObject<T>,
{
    let mut fp = FNV_OFFSET;
    let mut scratch = Vec::new();
    {
        let mut pcomm = Comm::borrowed(ep, prog);
        fnv_wire(&mut fp, &mut scratch, &src_obj.descriptor(&mut pcomm));
        fnv_wire(&mut fp, &mut scratch, &dst_obj.descriptor(&mut pcomm));
    }
    fnv_wire(&mut fp, &mut scratch, src_set);
    fnv_wire(&mut fp, &mut scratch, dst_set);
    // Distribution epochs participate in the key, so redistributing either
    // object transparently invalidates the cached schedule and forces a
    // rebuild instead of handing back a stale one.
    fnv1a(&mut fp, &src_obj.epoch().to_le_bytes());
    fnv1a(&mut fp, &dst_obj.epoch().to_le_bytes());
    fnv_group(&mut fp, prog);
    let (key, hit) = sched_cache_probe(ep, prog, fp);
    if let Some(sched) = hit {
        return Ok(sched);
    }
    let sched = compute_schedule(
        ep,
        prog,
        prog,
        Some(Side::new(src_obj, src_set)),
        prog,
        Some(Side::new(dst_obj, dst_set)),
        BuildMethod::Cooperation,
    )?;
    sched_cache_insert(ep, key, &sched);
    Ok(sched)
}

/// Fold the parts of a two-program fingerprint every rank knows.
fn two_program_fp(union: &Group, src_prog: &Group, dst_prog: &Group) -> u64 {
    let mut fp = FNV_OFFSET;
    fnv_group(&mut fp, union);
    fnv_group(&mut fp, src_prog);
    fnv_group(&mut fp, dst_prog);
    fp
}

/// `MC_ComputeSched` called from the *source* program of a two-program
/// transfer (the Figure 3 scenario).
///
/// Memoized like [`mc_compute_sched`]: each rank fingerprints its own
/// side's descriptor and regions, and the cache key folds every union
/// rank's fingerprint together, so both programs agree on hit vs. miss.
pub fn mc_compute_sched_src<T, S, D>(
    ep: &mut Endpoint,
    union: &Group,
    src_prog: &Group,
    src_obj: &S,
    src_set: &SetOfRegions<S::Region>,
    dst_prog: &Group,
) -> Result<Schedule, McError>
where
    T: Copy,
    S: McObject<T>,
    D: McObject<T>,
{
    let mut fp = two_program_fp(union, src_prog, dst_prog);
    let mut scratch = Vec::new();
    {
        let mut pcomm = Comm::borrowed(ep, src_prog);
        fnv_wire(&mut fp, &mut scratch, &src_obj.descriptor(&mut pcomm));
    }
    fnv_wire(&mut fp, &mut scratch, src_set);
    fnv1a(&mut fp, &src_obj.epoch().to_le_bytes());
    let (key, hit) = sched_cache_probe(ep, union, fp);
    if let Some(sched) = hit {
        return Ok(sched);
    }
    let sched = compute_schedule::<T, S, D>(
        ep,
        union,
        src_prog,
        Some(Side::new(src_obj, src_set)),
        dst_prog,
        None,
        BuildMethod::Cooperation,
    )?;
    sched_cache_insert(ep, key, &sched);
    Ok(sched)
}

/// `MC_ComputeSched` called from the *destination* program of a
/// two-program transfer.  Memoized; see [`mc_compute_sched_src`].
pub fn mc_compute_sched_dst<T, S, D>(
    ep: &mut Endpoint,
    union: &Group,
    src_prog: &Group,
    dst_prog: &Group,
    dst_obj: &D,
    dst_set: &SetOfRegions<D::Region>,
) -> Result<Schedule, McError>
where
    T: Copy,
    S: McObject<T>,
    D: McObject<T>,
{
    let mut fp = two_program_fp(union, src_prog, dst_prog);
    let mut scratch = Vec::new();
    {
        let mut pcomm = Comm::borrowed(ep, dst_prog);
        fnv_wire(&mut fp, &mut scratch, &dst_obj.descriptor(&mut pcomm));
    }
    fnv_wire(&mut fp, &mut scratch, dst_set);
    fnv1a(&mut fp, &dst_obj.epoch().to_le_bytes());
    let (key, hit) = sched_cache_probe(ep, union, fp);
    if let Some(sched) = hit {
        return Ok(sched);
    }
    let sched = compute_schedule::<T, S, D>(
        ep,
        union,
        src_prog,
        None,
        dst_prog,
        Some(Side::new(dst_obj, dst_set)),
        BuildMethod::Cooperation,
    )?;
    sched_cache_insert(ep, key, &sched);
    Ok(sched)
}

/// `MC_Copy(B1, A1)`: same-program data copy with a prebuilt schedule.
///
/// Rejects a schedule built before either object was redistributed with
/// [`McError::StaleSchedule`] — rebuild via `mc_compute_sched`, whose
/// epoch-keyed cache misses exactly when this error would fire.
pub fn mc_copy<T, S, D>(
    ep: &mut Endpoint,
    sched: &Schedule,
    src: &S,
    dst: &mut D,
) -> Result<(), McError>
where
    T: Copy + Wire,
    S: McObject<T>,
    D: McObject<T>,
{
    datamove::try_data_move(ep, sched, src, dst)
}

/// `MC_DataMoveSend(schedId, B)`.
///
/// Runs over the reliable transport: frames are checksummed, sequence
/// numbered and retransmitted as needed, so the transfer survives any
/// [`mcsim::FaultPlan`] short of a permanent partition.  Recoverable
/// failures come back as [`McError::PeerTimeout`] (retry budget exhausted)
/// or [`McError::PeerFailed`] (peer crashed) instead of hanging the rank.
pub fn mc_data_move_send<T, S>(ep: &mut Endpoint, sched: &Schedule, src: &S) -> Result<(), McError>
where
    T: Copy + Wire,
    S: McObject<T>,
{
    datamove::data_move_send(ep, sched, src)
}

/// `MC_DataMoveRecv(schedId, A)`.
///
/// Reliable, like [`mc_data_move_send`]: delivered frames are verified
/// and deduplicated, and peer crash / partition surface as recoverable
/// [`McError`] variants.
pub fn mc_data_move_recv<T, D>(
    ep: &mut Endpoint,
    sched: &Schedule,
    dst: &mut D,
) -> Result<(), McError>
where
    T: Copy + Wire,
    D: McObject<T>,
{
    datamove::data_move_recv(ep, sched, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testlib::BlockVec;
    use mcsim::model::MachineModel;
    use mcsim::world::World;

    #[test]
    fn fortran_inclusive_bounds_convert() {
        // The paper's source region: B(50:100, 50:100) -> 51x51 elements.
        let r = create_region_hpf(&[50, 50], &[100, 100]);
        assert_eq!(r.len(), 51 * 51);
        assert_eq!(r.coords_of(0), vec![49, 49]);
        // Its destination: A(1:50, 10:60) -> 50x51 elements... the paper's
        // own example is actually 50x51 vs 51x51; our length check would
        // catch that mismatch at schedule time.
        let a = create_region_hpf(&[1, 10], &[50, 60]);
        assert_eq!(a.len(), 50 * 51);
    }

    #[test]
    fn fingerprint_sees_every_byte() {
        let fp = |bytes: &[u8]| {
            let mut h = FNV_OFFSET;
            fnv1a(&mut h, bytes);
            h
        };
        // 19 bytes: two whole words and a three-byte tail.
        let base: Vec<u8> = (1..20).collect();
        let mut seen = std::collections::HashSet::from([fp(&base)]);
        for i in 0..base.len() {
            for bit in [0, 7] {
                let mut b = base.clone();
                b[i] ^= 1 << bit;
                assert!(seen.insert(fp(&b)), "byte {i} bit {bit} collides");
            }
        }
        for len in 0..base.len() {
            assert!(seen.insert(fp(&base[..len])), "prefix {len} collides");
        }
        // A flip in a word's top bit must reach the low half of the key.
        let mut top = base.clone();
        top[7] ^= 0x80;
        assert_ne!(fp(&top) as u32, fp(&base) as u32);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_based_bounds_rejected() {
        let _ = create_region_hpf(&[0], &[5]);
    }

    #[test]
    fn paper_style_calls_end_to_end() {
        let world = World::with_model(2, MachineModel::zero());
        world.run(|ep| {
            let g = Group::world(2);
            let b = BlockVec::create(&g, ep.rank(), 20, |i| i as f64);
            let mut a = BlockVec::create(&g, ep.rank(), 20, |_| 0.0);

            // The Figure 9 call sequence.
            let region_src = crate::region::IndexSet::new((10..20).collect());
            let mut src_set = mc_new_set_of_region();
            mc_add_region_2_set(region_src, &mut src_set);
            let region_dst = crate::region::IndexSet::new((0..10).collect());
            let mut dst_set = mc_new_set_of_region();
            mc_add_region_2_set(region_dst, &mut dst_set);

            let sched = mc_compute_sched(ep, &g, &b, &src_set, &a, &dst_set).unwrap();
            mc_copy(ep, &sched, &b, &mut a).unwrap();

            for (addr, &v) in a.data.iter().enumerate() {
                let g0 = a.desc.members.len(); // block size = 10 per rank
                let _ = g0;
                let global = if ep.rank() == 0 { addr } else { 10 + addr };
                let expect = if global < 10 {
                    10.0 + global as f64
                } else {
                    0.0
                };
                assert_eq!(v, expect, "a[{global}]");
            }
        });
    }
}
