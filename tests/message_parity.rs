//! The paper's §4.1.4 claim: "A set of messages crafted by hand ... would
//! require exactly the same number of messages as the set created by
//! Meta-Chaos.  Moreover, the sizes of the messages ... are also the
//! same."  These tests compute the hand-coded minimum (one message per
//! communicating owner pair, payload = element count × 8 bytes + the
//! length header) and assert the executed data move matches it exactly.

use std::collections::HashMap;

use mcsim::group::{Comm, Group};
use mcsim::prelude::Endpoint;
use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::datamove::data_move;
use meta_chaos::region::{IndexSet, RegularSection};
use meta_chaos::schedule::Schedule;
use meta_chaos::setof::SetOfRegions;
use meta_chaos::Side;
use meta_chaos_repro::test_world;

use chaos::{IrregArray, Partition};
use multiblock::MultiblockArray;

/// Hand-computed transfer matrix: `(src_rank, dst_rank) -> element count`
/// for `dst[dst_idx[k]] = src[src_idx[k]]` with known owner functions.
fn hand_pairs(
    src_owner: impl Fn(usize) -> usize,
    dst_owner: impl Fn(usize) -> usize,
    src_idx: &[usize],
    dst_idx: &[usize],
) -> HashMap<(usize, usize), u64> {
    let mut pairs = HashMap::new();
    for (s, d) in src_idx.iter().zip(dst_idx) {
        let so = src_owner(*s);
        let dd = dst_owner(*d);
        if so != dd {
            *pairs.entry((so, dd)).or_insert(0u64) += 1;
        }
    }
    pairs
}

#[test]
fn message_counts_and_sizes_match_hand_coded() {
    let n = 64usize;
    let p = 4usize;
    let src_idx: Vec<usize> = (0..n).collect();
    let dst_idx: Vec<usize> = (0..n).map(|k| (k * 13 + 5) % n).collect();
    let si = src_idx.clone();
    let di_for_run = dst_idx.clone();

    let out = test_world(p).run(move |ep| {
        let g = Group::world(p);
        // Source: multiblock 1-D (balanced block); destination: chaos
        // cyclic, both with known closed-form owners.
        let mut a = MultiblockArray::<f64>::new(&g, ep.rank(), &[n]);
        a.fill_with(|c| c[0] as f64);
        let mut x = {
            let mut comm = Comm::new(ep, g.clone());
            IrregArray::create(&mut comm, n, Partition::Cyclic, |_| 0.0)
        };
        let sset = SetOfRegions::single(RegularSection::whole(&[n]));
        let dset = SetOfRegions::single(IndexSet::new(di_for_run.clone()));
        let sched = compute_schedule(
            ep,
            &g,
            &g,
            Some(Side::new(&a, &sset)),
            &g,
            Some(Side::new(&x, &dset)),
            BuildMethod::Duplication,
        )
        .unwrap();
        let before = ep.stats_snapshot();
        data_move(ep, &sched, &a, &mut x);
        let delta = ep.stats_snapshot().since(&before);
        (delta.msgs_to.clone(), delta.bytes_to.clone())
    });

    // Hand-coded expectation.
    let block = n / p; // n divisible by p here
    let expect = hand_pairs(|s| s / block, |d| d % p, &si, &dst_idx);

    for (src_rank, (msgs, bytes)) in out.results.iter().enumerate() {
        for dst_rank in 0..p {
            let elems = expect.get(&(src_rank, dst_rank)).copied().unwrap_or(0);
            let want_msgs = u64::from(elems > 0);
            assert_eq!(msgs[dst_rank], want_msgs, "messages {src_rank}->{dst_rank}");
            // Payload: Vec<f64> wire encoding = 8-byte length + 8 per elem.
            let want_bytes = if elems > 0 { 8 + 8 * elems } else { 0 };
            assert_eq!(bytes[dst_rank], want_bytes, "bytes {src_rank}->{dst_rank}");
        }
    }
}

#[test]
fn schedule_reuse_sends_no_extra_messages() {
    let n = 32usize;
    let out = test_world(2).run(move |ep| {
        let g = Group::world(2);
        let mut a = MultiblockArray::<f64>::new(&g, ep.rank(), &[n]);
        a.fill_with(|c| c[0] as f64);
        let mut x = {
            let mut comm = Comm::new(ep, g.clone());
            IrregArray::create(&mut comm, n, Partition::Cyclic, |_| 0.0)
        };
        let sset = SetOfRegions::single(RegularSection::whole(&[n]));
        let dset = SetOfRegions::single(IndexSet::new((0..n).collect()));
        let sched = compute_schedule(
            ep,
            &g,
            &g,
            Some(Side::new(&a, &sset)),
            &g,
            Some(Side::new(&x, &dset)),
            BuildMethod::Cooperation,
        )
        .unwrap();
        let mut per_run = Vec::new();
        for _ in 0..3 {
            let before = ep.stats_snapshot();
            data_move(ep, &sched, &a, &mut x);
            per_run.push(ep.stats_snapshot().since(&before).total_msgs());
        }
        per_run
    });
    for runs in out.results {
        assert!(runs.windows(2).all(|w| w[0] == w[1]), "{runs:?}");
    }
}

#[test]
fn local_only_transfer_sends_nothing() {
    // Identical distributions: every element stays put; zero messages.
    let n = 40usize;
    let out = test_world(4).run(move |ep| {
        let g = Group::world(4);
        let mut a = MultiblockArray::<f64>::new(&g, ep.rank(), &[n]);
        a.fill_with(|c| c[0] as f64);
        let mut b = MultiblockArray::<f64>::new(&g, ep.rank(), &[n]);
        let set = SetOfRegions::single(RegularSection::whole(&[n]));
        let sched = compute_schedule(
            ep,
            &g,
            &g,
            Some(Side::new(&a, &set)),
            &g,
            Some(Side::new(&b, &set)),
            BuildMethod::Duplication,
        )
        .unwrap();
        assert_eq!(sched.msgs_out(), 0);
        assert_eq!(sched.elems_local(), a.local().len());
        let before = ep.stats_snapshot();
        data_move(ep, &sched, &a, &mut b);
        let delta = ep.stats_snapshot().since(&before);
        delta.total_msgs()
    });
    assert!(out.results.iter().all(|&m| m == 0));
}

/// Hand-coded execution of `sched` over the two local views: every
/// address looked up on its own, each pair's elements shipped as one plain
/// `Vec<f64>` message.
fn move_element_list(ep: &mut Endpoint, sched: &Schedule, src: &[f64], dst: &mut [f64]) {
    const TAG: u32 = 77;
    let mut comm = Comm::borrowed(ep, sched.group());
    for (peer, runs) in &sched.sends {
        let vals: Vec<f64> = runs.iter().map(|a| src[a]).collect();
        comm.send_t(*peer, TAG, &vals);
    }
    for (s, d) in sched.local_pairs.iter() {
        dst[d] = src[s];
    }
    for (peer, runs) in &sched.recvs {
        let vals: Vec<f64> = comm.recv_t(*peer, TAG);
        assert_eq!(vals.len(), runs.len(), "message from peer {peer}");
        for (a, v) in runs.iter().zip(vals) {
            dst[a] = v;
        }
    }
}

/// The run-compressed executor must be indistinguishable on the wire from
/// a hand-coded element-list one: same per-pair message counts, same
/// per-pair byte totals, and byte-identical destination contents.
#[test]
fn run_compressed_executor_matches_elementwise() {
    let n = 48usize;
    let p = 4usize;
    let out = test_world(p).run(move |ep| {
        let g = Group::world(p);
        let mut b = MultiblockArray::<f64>::new(&g, ep.rank(), &[n]);
        b.fill_with(|c| c[0] as f64 * 1.5);
        // Regular -> regular: a shifted section copy that crosses ranks.
        let sset = SetOfRegions::single(RegularSection::of_bounds(&[(0, n - 8)]));
        let dset = SetOfRegions::single(RegularSection::of_bounds(&[(8, n)]));
        let mut a_fast = MultiblockArray::<f64>::new(&g, ep.rank(), &[n]);
        let sched = compute_schedule(
            ep,
            &g,
            &g,
            Some(Side::new(&b, &sset)),
            &g,
            Some(Side::new(&a_fast, &dset)),
            BuildMethod::Cooperation,
        )
        .unwrap();

        let before = ep.stats_snapshot();
        data_move(ep, &sched, &b, &mut a_fast);
        let fast = ep.stats_snapshot().since(&before);

        let mut a_slow = MultiblockArray::<f64>::new(&g, ep.rank(), &[n]);
        let before = ep.stats_snapshot();
        move_element_list(ep, &sched, b.local(), a_slow.local_mut());
        let slow = ep.stats_snapshot().since(&before);

        assert_eq!(fast.msgs_to, slow.msgs_to, "per-pair message counts");
        assert_eq!(fast.bytes_to, slow.bytes_to, "per-pair message bytes");
        assert_eq!(a_fast.local(), a_slow.local(), "destination contents");
        (fast.msgs_to.clone(), fast.bytes_to.clone())
    });
    // And both match the hand-coded minimum: block owners, shift by 8.
    let block = n / p;
    let src_idx: Vec<usize> = (0..n - 8).collect();
    let dst_idx: Vec<usize> = (8..n).collect();
    let expect = hand_pairs(|s| s / block, |d| d / block, &src_idx, &dst_idx);
    for (src_rank, (msgs, bytes)) in out.results.iter().enumerate() {
        for dst_rank in 0..p {
            let elems = expect.get(&(src_rank, dst_rank)).copied().unwrap_or(0);
            assert_eq!(msgs[dst_rank], u64::from(elems > 0));
            let want = if elems > 0 { 8 + 8 * elems } else { 0 };
            assert_eq!(bytes[dst_rank], want);
        }
    }
}

/// Same parity check for a regular -> irregular transfer, which exercises
/// length-1 runs on the chaos side and long runs on the multiblock side
/// within one move.
#[test]
fn mixed_library_parity_with_elementwise() {
    let n = 36usize;
    test_world(3).run(move |ep| {
        let g = Group::world(3);
        let mut a = MultiblockArray::<f64>::new(&g, ep.rank(), &[n]);
        a.fill_with(|c| c[0] as f64 + 0.25);
        let mut x_fast = {
            let mut comm = Comm::new(ep, g.clone());
            IrregArray::create(&mut comm, n, Partition::Random(29), |_| 0.0)
        };
        let mut x_slow = x_fast.clone();
        let sset = SetOfRegions::single(RegularSection::whole(&[n]));
        let dset = SetOfRegions::single(IndexSet::new((0..n).rev().collect()));
        let sched = compute_schedule(
            ep,
            &g,
            &g,
            Some(Side::new(&a, &sset)),
            &g,
            Some(Side::new(&x_fast, &dset)),
            BuildMethod::Cooperation,
        )
        .unwrap();
        let before = ep.stats_snapshot();
        data_move(ep, &sched, &a, &mut x_fast);
        let fast = ep.stats_snapshot().since(&before);
        let before = ep.stats_snapshot();
        move_element_list(ep, &sched, a.local(), x_slow.local_mut());
        let slow = ep.stats_snapshot().since(&before);
        assert_eq!(fast.msgs_to, slow.msgs_to);
        assert_eq!(fast.bytes_to, slow.bytes_to);
        assert_eq!(x_fast.local(), x_slow.local());
    });
}

/// Observability cross-check: the per-pair message counts and byte totals
/// derived purely from the trace (its `Send` events) must equal the
/// `NetStats` counters exactly — one event model, one truth.
#[test]
fn trace_send_events_match_per_pair_netstats() {
    use mcsim::trace::TraceEvent;
    let n = 64usize;
    let p = 4usize;
    let dst_idx: Vec<usize> = (0..n).map(|k| (k * 13 + 5) % n).collect();
    let out = test_world(p).with_trace().run(move |ep| {
        let g = Group::world(p);
        let mut a = MultiblockArray::<f64>::new(&g, ep.rank(), &[n]);
        a.fill_with(|c| c[0] as f64);
        let mut x = {
            let mut comm = Comm::new(ep, g.clone());
            IrregArray::create(&mut comm, n, Partition::Cyclic, |_| 0.0)
        };
        let sset = SetOfRegions::single(RegularSection::whole(&[n]));
        let dset = SetOfRegions::single(IndexSet::new(dst_idx.clone()));
        let sched = compute_schedule(
            ep,
            &g,
            &g,
            Some(Side::new(&a, &sset)),
            &g,
            Some(Side::new(&x, &dset)),
            BuildMethod::Cooperation,
        )
        .unwrap();
        data_move(ep, &sched, &a, &mut x);
        // The whole-run snapshot, so it covers the same window the trace
        // does (schedule build included).
        ep.stats_snapshot()
    });
    assert_eq!(out.traces.len(), p, "tracing was enabled");
    for (rank, timeline) in out.traces.iter().enumerate() {
        let mut msgs = vec![0u64; p];
        let mut bytes = vec![0u64; p];
        for ev in timeline {
            if let TraceEvent::Send { to, bytes: b, .. } = ev {
                msgs[*to] += 1;
                bytes[*to] += *b as u64;
            }
        }
        let snap = &out.results[rank];
        assert_eq!(msgs, snap.msgs_to, "rank {rank} per-pair message counts");
        assert_eq!(bytes, snap.bytes_to, "rank {rank} per-pair byte totals");
    }
}

/// The `MC_ComputeSched` memo: a repeat call with identical inputs is a
/// cache hit (no rebuild), a mutated region set is a miss, and the cached
/// schedule moves data correctly.
#[test]
fn schedule_cache_hits_and_misses() {
    use meta_chaos::api::{mc_compute_sched, mc_sched_cache_len};
    let n = 30usize;
    test_world(3).run(move |ep| {
        let g = Group::world(3);
        let mut b = MultiblockArray::<f64>::new(&g, ep.rank(), &[n]);
        b.fill_with(|c| c[0] as f64);
        let mut a = MultiblockArray::<f64>::new(&g, ep.rank(), &[n]);
        let sset = SetOfRegions::single(RegularSection::of_bounds(&[(0, n / 2)]));
        let dset = SetOfRegions::single(RegularSection::of_bounds(&[(n / 2, n)]));

        let before = ep.stats_snapshot();
        let s1 = mc_compute_sched(ep, &g, &b, &sset, &a, &dset).unwrap();
        let d1 = ep.stats_snapshot().since(&before);
        assert_eq!((d1.sched_cache_hits, d1.sched_cache_misses), (0, 1));
        assert_eq!(mc_sched_cache_len(ep), 1);

        // Identical inputs: a hit, and the same schedule comes back.
        let before = ep.stats_snapshot();
        let s2 = mc_compute_sched(ep, &g, &b, &sset, &a, &dset).unwrap();
        let d2 = ep.stats_snapshot().since(&before);
        assert_eq!((d2.sched_cache_hits, d2.sched_cache_misses), (1, 0));
        assert_eq!(s1.sends, s2.sends);
        assert_eq!(s1.recvs, s2.recvs);
        assert_eq!(s1.local_pairs, s2.local_pairs);
        assert_eq!(mc_sched_cache_len(ep), 1);

        // A different destination set: a miss and a second memo entry.
        let dset2 = SetOfRegions::single(RegularSection::of_bounds(&[(0, n / 2)]));
        let before = ep.stats_snapshot();
        let s3 = mc_compute_sched(ep, &g, &b, &sset, &a, &dset2).unwrap();
        let d3 = ep.stats_snapshot().since(&before);
        assert_eq!((d3.sched_cache_hits, d3.sched_cache_misses), (0, 1));
        assert_eq!(mc_sched_cache_len(ep), 2);

        // The cached schedule is live: execute it and check the motion.
        data_move(ep, &s2, &b, &mut a);
        let _ = s3;
        let my_lo = ep.rank() * (n / 3);
        for (off, &v) in a.local().iter().enumerate() {
            let gidx = my_lo + off;
            let want = if gidx >= n / 2 {
                (gidx - n / 2) as f64
            } else {
                0.0
            };
            assert_eq!(v, want, "A[{gidx}]");
        }
    });
}
