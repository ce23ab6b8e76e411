//! Two separately running data-parallel programs coupled by Meta-Chaos
//! (paper §4.3 Figure 9 and §5.2): cross-program schedule construction,
//! send/receive halves, schedule symmetry, and the named-port coupler.

use mcsim::group::{Comm, Group};
use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::coupling::Coupler;
use meta_chaos::datamove::{data_move_recv, data_move_send};
use meta_chaos::region::{IndexSet, RegularSection};
use meta_chaos::setof::SetOfRegions;
use meta_chaos::Side;
use meta_chaos_repro::test_world;

use chaos::{IrregArray, Partition};
use hpf::{HpfArray, HpfDist};
use multiblock::MultiblockArray;

/// The paper's Figure 9: two HPF programs, B[49:99)x[49:99) -> A[0:50)x[9:59).
#[test]
fn fig9_hpf_to_hpf_across_programs() {
    let (pa, pb) = (3usize, 2usize);
    let out = test_world(pa + pb).run(move |ep| {
        let (src_prog, dst_prog, un) = Group::split_two(pa, pb, 32);
        let sset = SetOfRegions::single(RegularSection::of_bounds(&[(49, 99), (49, 99)]));
        let dset = SetOfRegions::single(RegularSection::of_bounds(&[(0, 50), (9, 59)]));
        if src_prog.contains(ep.rank()) {
            let mut b =
                HpfArray::<f64>::new(&src_prog, ep.rank(), HpfDist::block_block(200, 100, 3, 1));
            b.for_each_owned(|c, v| *v = (c[0] * 1000 + c[1]) as f64);
            let sched = compute_schedule::<f64, HpfArray<f64>, HpfArray<f64>>(
                ep,
                &un,
                &src_prog,
                Some(Side::new(&b, &sset)),
                &dst_prog,
                None,
                BuildMethod::Cooperation,
            )
            .unwrap();
            data_move_send(ep, &sched, &b).unwrap();
            Vec::new()
        } else {
            let mut a =
                HpfArray::<f64>::new(&dst_prog, ep.rank(), HpfDist::block_block(50, 60, 2, 1));
            let sched = compute_schedule::<f64, HpfArray<f64>, HpfArray<f64>>(
                ep,
                &un,
                &src_prog,
                None,
                &dst_prog,
                Some(Side::new(&a, &dset)),
                BuildMethod::Cooperation,
            )
            .unwrap();
            data_move_recv(ep, &sched, &mut a).unwrap();
            let mut got = Vec::new();
            for i in 0..50 {
                for j in 0..60 {
                    if a.owns(&[i, j]) {
                        got.push((i, j, a.get(&[i, j])));
                    }
                }
            }
            got
        }
    });
    for vals in &out.results[3..] {
        for &(i, j, v) in vals {
            let expect = if (9..59).contains(&j) {
                ((i + 49) * 1000 + (j - 9 + 49)) as f64
            } else {
                0.0
            };
            assert_eq!(v, expect, "A[{i}][{j}]");
        }
    }
}

/// Peer-to-peer coupling with the named-port registry, including the
/// symmetric reverse direction — the shipboard-fire-style exchange loop.
#[test]
fn coupler_ports_and_reverse_flow() {
    let n = 30usize;
    let steps = 3usize;
    let out = test_world(4).run(move |ep| {
        let (pa, pb, un) = Group::split_two(2, 2, 32);
        let set_all: SetOfRegions<RegularSection> =
            SetOfRegions::single(RegularSection::whole(&[n]));
        let iset: SetOfRegions<IndexSet> = SetOfRegions::single(IndexSet::new((0..n).collect()));
        if pa.contains(ep.rank()) {
            // Program A: a block vector (multiblock 1-D).
            let mut v = MultiblockArray::<f64>::new(&pa, ep.rank(), &[n]);
            v.fill_with(|c| c[0] as f64);
            let sched = compute_schedule::<f64, MultiblockArray<f64>, IrregArray<f64>>(
                ep,
                &un,
                &pa,
                Some(Side::new(&v, &set_all)),
                &pb,
                None,
                BuildMethod::Cooperation,
            )
            .unwrap();
            let mut ports = Coupler::new();
            ports.bind("field-back", sched.reversed());
            ports.bind("field", sched);
            for _ in 0..steps {
                // Send the field over, receive the updated field back.
                ports.put(ep, "field", &v).unwrap();
                ports.get(ep, "field-back", &mut v).unwrap();
            }
            let boxx = v.my_box();
            (boxx[0].0..boxx[0].1).map(|x| (x, v.get(&[x]))).collect()
        } else {
            // Program B: the same field, irregularly distributed.
            let mut w = {
                let mut comm = Comm::new(ep, pb.clone());
                IrregArray::create(&mut comm, n, Partition::Random(13), |_| 0.0)
            };
            let sched = compute_schedule::<f64, MultiblockArray<f64>, IrregArray<f64>>(
                ep,
                &un,
                &pa,
                None,
                &pb,
                Some(Side::new(&w, &iset)),
                BuildMethod::Cooperation,
            )
            .unwrap();
            let mut ports = Coupler::new();
            ports.bind("field-back", sched.reversed());
            ports.bind("field", sched);
            for _ in 0..steps {
                ports.get(ep, "field", &mut w).unwrap();
                // "Physics": increment every point, then return it.
                for v in w.local_mut() {
                    *v += 1.0;
                }
                ports.put(ep, "field-back", &w).unwrap();
            }
            Vec::new()
        }
    });
    // After `steps` round trips each point gained +1 per step.
    for vals in &out.results[..2] {
        for &(x, v) in vals {
            assert_eq!(v, x as f64 + steps as f64, "v[{x}]");
        }
    }
}

/// Cross-program duplication uses the descriptor-exchange path; for
/// regular descriptors this is cheap and must agree with cooperation.
#[test]
fn cross_program_duplication_matches_cooperation() {
    let n = 24usize;
    for method in [BuildMethod::Cooperation, BuildMethod::Duplication] {
        let out = test_world(3).run(move |ep| {
            let (pa, pb, un) = Group::split_two(1, 2, 32);
            let set: SetOfRegions<RegularSection> =
                SetOfRegions::single(RegularSection::whole(&[n]));
            if pa.contains(ep.rank()) {
                let mut v = MultiblockArray::<f64>::new(&pa, ep.rank(), &[n]);
                v.fill_with(|c| 7.0 + c[0] as f64);
                let sched = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                    ep,
                    &un,
                    &pa,
                    Some(Side::new(&v, &set)),
                    &pb,
                    None,
                    method,
                )
                .unwrap();
                data_move_send(ep, &sched, &v).unwrap();
                Vec::new()
            } else {
                let mut h = HpfArray::<f64>::new(
                    &pb,
                    ep.rank(),
                    HpfDist::new(vec![n], vec![hpf::DistKind::Cyclic(2)], vec![2]),
                );
                let sched = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                    ep,
                    &un,
                    &pa,
                    None,
                    &pb,
                    Some(Side::new(&h, &set)),
                    method,
                )
                .unwrap();
                data_move_recv(ep, &sched, &mut h).unwrap();
                (0..n)
                    .filter(|&x| h.owns(&[x]))
                    .map(|x| (x, h.get(&[x])))
                    .collect::<Vec<_>>()
            }
        });
        for vals in &out.results[1..] {
            for &(x, v) in vals {
                assert_eq!(v, 7.0 + x as f64, "{method:?} h[{x}]");
            }
        }
    }
}

/// Length mismatches across programs are reported consistently everywhere.
#[test]
fn cross_program_length_mismatch() {
    let out = test_world(2).run(|ep| {
        let (pa, pb, un) = Group::split_two(1, 1, 32);
        if pa.contains(ep.rank()) {
            let v = MultiblockArray::<f64>::new(&pa, ep.rank(), &[10]);
            let set = SetOfRegions::single(RegularSection::whole(&[10]));
            compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                ep,
                &un,
                &pa,
                Some(Side::new(&v, &set)),
                &pb,
                None,
                BuildMethod::Cooperation,
            )
            .unwrap_err()
        } else {
            let h = HpfArray::<f64>::new(&pb, ep.rank(), HpfDist::block_1d(8, 1));
            let set = SetOfRegions::single(RegularSection::whole(&[8]));
            compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                ep,
                &un,
                &pa,
                None,
                &pb,
                Some(Side::new(&h, &set)),
                BuildMethod::Cooperation,
            )
            .unwrap_err()
        }
    });
    for e in out.results {
        assert_eq!(e, meta_chaos::McError::LengthMismatch { src: 10, dst: 8 });
    }
}
