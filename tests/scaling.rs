//! Scaling and determinism properties of the rank runner.
//!
//! The contract under test (DESIGN.md §4j): the virtual clock drives a
//! **total order** over rank execution — a rank runs until it blocks on a
//! communication op, parks, and the scheduler resumes the runnable rank
//! with the lowest `(virtual_time, rank)` key.  Nothing about the host
//! enters that order, so the same seed must produce byte-identical traces
//! and `NetStats` every time the world runs.  (That the two context-switch
//! back ends agree on all of it is checked inside `mcsim`, where the
//! portable one can be selected: `world::tests::back_ends_agree_*`.)
//!
//! The same holds one layer up: an `hpf::redistribute` chain through
//! `CYCLIC(k)` layouts — whose schedules come from the closed-form owned
//! chunk ranges — lands every element exactly and traces identically
//! run to run.
//!
//! Also here: the P=1024 memory budget (a big world must stay cheap until
//! ranks actually run — lazy coroutine stacks, lazy flight rings, capped
//! timelines) and the topology model's determinism under contention.

use mcsim::fault::{test_seeds, FaultPlan, FaultRates};
use mcsim::model::{MachineModel, Topology};
use mcsim::prelude::Endpoint;
use mcsim::reliable::{reliable_recv, reliable_send, StreamTag};
use mcsim::stats::NetStats;
use mcsim::trace::TraceEvent;
use mcsim::world::World;

const P: usize = 64;

/// How many times each determinism test runs its world.
const RUNS: usize = 3;

/// Tiny keyed xorshift so every (seed, rank, round, hop) gets its own
/// payload without any external RNG.
fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut x = seed ^ (a << 40) ^ (b << 20) ^ c ^ 0x9e37_79b9_7f4a_7c15;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x.max(1)
}

/// SPMD workload with enough cross-rank structure to expose ordering bugs:
/// three rounds of reliable-stream exchange at hop distances 1 and 17
/// (coprime with 64, so messages cross the whole rank space), payload
/// sizes varied per edge.  Returns a checksum of everything received.
fn exchange_workload(ep: &mut Endpoint, seed: u64) -> u64 {
    let p = ep.world_size();
    let me = ep.rank();
    let mut sum = 0u64;
    for round in 0..3u64 {
        let st = StreamTag::new(0x5CA1, round as u32);
        for &hop in &[1usize, 17 % p.max(1)] {
            let to = (me + hop) % p;
            let n = (mix(seed, me as u64, round, hop as u64) % 96 + 8) as usize;
            let payload: Vec<u8> = (0..n)
                .map(|i| mix(seed, to as u64, round, i as u64) as u8)
                .collect();
            reliable_send(ep, to, st, payload).unwrap();
        }
        for &hop in &[1usize, 17 % p.max(1)] {
            let from = (me + p - hop) % p;
            let got = reliable_recv(ep, from, st).unwrap();
            sum = sum.wrapping_add(
                got.iter()
                    .fold(0u64, |acc, &b| acc.wrapping_mul(31).wrapping_add(b as u64)),
            );
        }
    }
    sum
}

/// One full observation of a run: everything that must be identical for
/// two runs to count as "the same execution".
#[derive(Debug, PartialEq)]
struct Fingerprint {
    results: Vec<u64>,
    clocks: Vec<f64>,
    elapsed: f64,
    stats: NetStats,
    traces: Vec<Vec<TraceEvent>>,
}

fn run_fingerprint(world: World, seed: u64) -> Fingerprint {
    let out = world.run(move |ep| exchange_workload(ep, seed));
    Fingerprint {
        results: out.results,
        clocks: out.clocks,
        elapsed: out.elapsed,
        stats: out.stats,
        traces: out.traces,
    }
}

/// Tentpole determinism claim: the schedule is a pure function of the
/// virtual clock.  Same seed ⇒ byte-identical traces, NetStats, clocks
/// across repeated runs at P=64, for every committed fault seed.
#[test]
fn coop_schedule_is_repeatable_at_p64() {
    for seed in test_seeds() {
        let mut baseline: Option<Fingerprint> = None;
        for run in 0..RUNS {
            let world = World::with_model(P, MachineModel::sp2())
                .with_faults(FaultPlan::new(seed).rates(FaultRates {
                    drop: 0.04,
                    dup: 0.03,
                    delay: 0.05,
                    delay_secs: 2e-4,
                    ..FaultRates::default()
                }))
                .with_trace();
            let fp = run_fingerprint(world, seed);
            match &baseline {
                None => baseline = Some(fp),
                Some(fp0) => assert_eq!(fp0, &fp, "seed {seed}: run {run} diverged from run 0"),
            }
        }
    }
}

/// A P=64 redistribution chain block → `CYCLIC(4)` → `CYCLIC(3)` → block
/// over a ragged extent (no chunk size divides it): after every hop each
/// rank holds exactly its owned elements' values, and the whole execution
/// — results, clocks, NetStats, traces — is byte-identical run to run.
#[test]
fn redistribute_chain_is_exact_and_repeatable_at_p64() {
    use hpf::{DistKind, HpfArray, HpfDist};
    use mcsim::group::Group;

    const N: usize = 4099;
    let value = |x: usize| (x * 7 + 3) as f64;
    let chain = move |ep: &mut Endpoint| {
        let prog = Group::world(P);
        let cyclic = |k| HpfDist::new(vec![N], vec![DistKind::Cyclic(k)], vec![P]);
        let mut a = HpfArray::<f64>::new(&prog, ep.rank(), HpfDist::block_1d(N, P));
        a.for_each_owned(|c, v| *v = value(c[0]));
        let hops = [cyclic(4), cyclic(3), HpfDist::block_1d(N, P)];
        for (hop, dist) in hops.into_iter().enumerate() {
            a = hpf::redistribute(ep, &prog, &a, dist);
            let mut held = 0;
            a.for_each_owned(|c, v| {
                assert_eq!(*v, value(c[0]), "element {} after hop {hop}", c[0]);
                held += 1;
            });
            assert_eq!(held, a.dist().local_len(a.my_local()));
        }
        a.local().to_vec()
    };

    let mut baseline = None;
    for _ in 0..2 {
        let out = World::with_model(P, MachineModel::sp2())
            .with_trace()
            .run(chain);
        let total: usize = out.results.iter().map(Vec::len).sum();
        assert_eq!(total, N, "every element has exactly one owner");
        let fp = (out.results, out.clocks, out.elapsed, out.stats, out.traces);
        match &baseline {
            None => baseline = Some(fp),
            Some(fp0) => assert!(fp0 == &fp, "second chain run diverged from the first"),
        }
    }
}

/// A 1024-rank world must build and run a neighbor exchange within the
/// documented memory budget: peak RSS (VmHWM) under 512 MiB.  The budget
/// holds because coroutine stacks are raw-allocated and never pre-touched
/// (~2 resident pages each until a rank runs), flight rings allocate
/// lazily and shrink to 16 slots past P=256, and the per-rank O(P)
/// traffic counters total ~16 MiB at P=1024.
#[test]
fn p1024_world_fits_memory_budget() {
    const P_BIG: usize = 1024;
    let world = World::with_model(P_BIG, MachineModel::zero());
    let out = world.run(|ep| {
        let p = ep.world_size();
        let me = ep.rank();
        let t = mcsim::Tag::new(9, 1);
        ep.send((me + 1) % p, t, vec![me as u8; 32]);
        let got = ep.recv((me + p - 1) % p, t);
        got.len() as u64 + got[0] as u64
    });
    assert_eq!(out.results.len(), P_BIG);
    for (r, &v) in out.results.iter().enumerate() {
        let left = (r + P_BIG - 1) % P_BIG;
        assert_eq!(v, 32 + (left as u8) as u64, "rank {r}");
    }

    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let hwm_kb: u64 = status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .expect("VmHWM in /proc/self/status");
        assert!(
            hwm_kb < 512 * 1024,
            "P=1024 run peaked at {hwm_kb} kB RSS, budget is 512 MiB"
        );
    }
}

/// Past P=256 the flight ring shrinks so the always-on crash forensics
/// stay O(P·16) instead of O(P·64).
#[test]
fn big_worlds_shrink_the_flight_ring() {
    let big = World::with_model(300, MachineModel::zero());
    let out = big.run(|ep| {
        let t = mcsim::Tag::new(9, 2);
        // Overfill the ring: its len can never exceed the shrunk cap.
        for i in 0..40u32 {
            ep.send(ep.rank(), t, vec![0u8; 8]);
            let _ = ep.recv(ep.rank(), t);
            let _ = i;
        }
        ep.flight_dump().len()
    });
    for (r, &n) in out.results.iter().enumerate() {
        assert!(
            n <= mcsim::FLIGHT_RING_CAP / 4,
            "rank {r}: flight ring held {n} events, cap should be {}",
            mcsim::FLIGHT_RING_CAP / 4
        );
    }
}

/// Topology end-to-end: an 8×8 torus under an incast (everyone sends to
/// rank 0) must charge link contention on the virtual clock, finish later
/// than the contention-free crossbar, and stay deterministic run to run.
#[test]
fn torus_incast_queues_deterministically() {
    fn incast(ep: &mut Endpoint) -> f64 {
        let t = mcsim::Tag::new(11, 3);
        if ep.rank() == 0 {
            for src in 1..ep.world_size() {
                let _ = ep.recv(src, t);
            }
        } else {
            ep.send(0, t, vec![0xA5; 4096]);
        }
        ep.clock()
    }

    let mut fingerprints = Vec::new();
    for run in 0..RUNS {
        let world = World::with_model(P, MachineModel::sp2())
            .with_topology(Topology::Torus2D { cols: 8, rows: 8 })
            .with_trace();
        let out = world.run(incast);
        assert!(
            out.contended_secs > 0.0,
            "64-to-1 incast on a torus must contend somewhere"
        );
        fingerprints.push((
            run,
            out.elapsed,
            out.clocks,
            out.traces,
            out.stats,
            out.contended_secs,
        ));
    }
    for pair in fingerprints.windows(2) {
        assert_eq!(
            (&pair[0].1, &pair[0].2, &pair[0].3, &pair[0].4, &pair[0].5),
            (&pair[1].1, &pair[1].2, &pair[1].3, &pair[1].4, &pair[1].5),
            "torus incast diverged between runs {} and {}",
            pair[0].0,
            pair[1].0
        );
    }

    let crossbar = World::with_model(P, MachineModel::sp2()).run(incast);
    assert!(
        fingerprints[0].1 > crossbar.elapsed,
        "torus incast ({}) should finish after the contention-free crossbar ({})",
        fingerprints[0].1,
        crossbar.elapsed
    );
}

/// `attribute_links` folds a traced run onto the topology's routes; the
/// per-link message totals must account for every cross-rank send.
#[test]
fn link_attribution_accounts_for_every_send() {
    let topo = Topology::Torus2D { cols: 4, rows: 4 };
    let model = MachineModel::sp2();
    let world = World::with_model(16, model)
        .with_topology(topo)
        .with_trace();
    let out = world.run(|ep| {
        let t = mcsim::Tag::new(11, 4);
        let p = ep.world_size();
        let to = (ep.rank() + 5) % p;
        ep.send(to, t, vec![1u8; 256]);
        let _ = ep.recv((ep.rank() + p - 5) % p, t);
    });
    let loads = mcsim::attribute_links(&out.traces, topo, &model);
    assert!(!loads.is_empty());
    let hops: u64 = loads.values().map(|l| l.msgs).sum();
    let min_hops: u64 = (0..16u64)
        .map(|r| topo.hops(r as usize, ((r + 5) % 16) as usize) as u64)
        .sum();
    assert_eq!(
        hops, min_hops,
        "every send must appear on every link of its route"
    );
    assert!(loads.values().all(|l| l.wire_secs > 0.0 && l.bytes > 0));
}
