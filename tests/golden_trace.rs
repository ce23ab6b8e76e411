//! Golden traces: JSONL exports that must stay byte-identical to the
//! committed files, each of which must pass the trace schema
//! (`mcsim::validate_jsonl`, which `repro trace-check` applies).
//!
//! * `repro trace --n 256 --reps 1` locks the coupled executor.  Span
//!   details and mark labels are typed notes rendered at export time, so
//!   this holds the rendering to the text the transfer path has always
//!   written.  A deliberate trace change regenerates the file with
//!   `cargo run --release -p bench --bin repro -- trace --n 256 --reps 1
//!   --trace-out tests/golden/trace_n256_reps1.jsonl`.
//! * A small irregular remap locks the inspector's message stream (both
//!   builds over a Chaos translation table) and the length-1 moves.  A
//!   deliberate change regenerates `tests/golden/irregular_remap_p4.jsonl`
//!   by writing [`irregular_remap_jsonl`]'s output to it.
//! * A faulted ring locks the reliable layer under a fault plan: drops,
//!   duplicates and bit flips, retransmissions, window advances and the
//!   supervisor's heartbeats.  A deliberate change regenerates
//!   `tests/golden/faulted_ring_p4.jsonl` by writing
//!   [`faulted_ring_jsonl`]'s output to it.
//! * Two 2-rank worlds lock the window's edges: a two-frame window under
//!   delays and drops (stalls, retransmit bursts) and a link that drops
//!   everything (the give-up on both sides).  A deliberate change
//!   regenerates `tests/golden/window_edges_p2.jsonl` by writing
//!   [`window_edges_jsonl`]'s output to it.

use bench::traced::traced_coupled_run;
use chaos::{IrregArray, Partition};
use mcsim::fault::{FaultPlan, FaultRates};
use mcsim::group::{Comm, Group};
use mcsim::model::MachineModel;
use mcsim::reliable::{flush_send, reliable_recv, reliable_send, ReliableConfig, StreamTag};
use mcsim::rng::Rng;
use mcsim::world::World;
use mcsim::SimError;
use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::datamove::data_move;
use meta_chaos::region::{IndexSet, RegularSection};
use meta_chaos::setof::SetOfRegions;
use meta_chaos::Side;
use multiblock::MultiblockArray;

/// Fail with the first differing line when `got` is not `golden`, and
/// when `golden` breaks the trace schema.
fn assert_golden(got: &str, golden: &str, file: &str) {
    let first = got.lines().zip(golden.lines()).position(|(g, w)| g != w);
    assert!(
        got == golden,
        "trace differs from {file} ({} vs {} bytes); \
         first differing (line, got, golden): {:?}",
        got.len(),
        golden.len(),
        first.map(|i| (i + 1, got.lines().nth(i), golden.lines().nth(i)))
    );
    if let Err(e) = mcsim::validate_jsonl(golden) {
        panic!("{file} breaks the trace schema: {e}");
    }
}

#[test]
fn coupled_run_exports_the_golden_jsonl() {
    let golden = include_str!("golden/trace_n256_reps1.jsonl");
    let run = traced_coupled_run(256, 1);
    let got = mcsim::jsonl_events(&run.traces);
    assert_golden(&got, golden, "tests/golden/trace_n256_reps1.jsonl");
}

/// P = 4 ranks of one program hold a 16×16 Multiblock mesh and a
/// 256-point Chaos array (`Partition::Random`); a seeded permutation is
/// built with Cooperation and with Duplication, the mesh is moved onto the
/// points and moved back over the reversed schedule.
fn irregular_remap_jsonl() -> String {
    const P: usize = 4;
    const SIDE: usize = 16;
    let n = SIDE * SIDE;
    let mut perm: Vec<usize> = (0..n).collect();
    Rng::seed_from_u64(0x1a2e).shuffle(&mut perm);
    let run = World::with_model(P, MachineModel::sp2())
        .with_trace()
        .run(move |ep| {
            let g = Group::world(P);
            let mut mesh = MultiblockArray::<f64>::new(&g, ep.rank(), &[SIDE, SIDE]);
            mesh.fill_with(|idx| (idx[0] * SIDE + idx[1]) as f64);
            let mut points = {
                let mut comm = Comm::borrowed(ep, &g);
                IrregArray::create(&mut comm, n, Partition::Random(7), |_| -1.0)
            };
            let mesh_set = SetOfRegions::single(RegularSection::whole(&[SIDE, SIDE]));
            let point_set = SetOfRegions::single(IndexSet::new(perm.clone()));
            let build = |ep: &mut _, method| {
                let src = Some(Side::new(&mesh, &mesh_set));
                let dst = Some(Side::new(&points, &point_set));
                compute_schedule(ep, &g, &g, src, &g, dst, method).expect("remap schedule")
            };
            let coop = build(ep, BuildMethod::Cooperation);
            let dup = build(ep, BuildMethod::Duplication);
            assert_eq!((&coop.sends, &coop.recvs), (&dup.sends, &dup.recvs));
            data_move(ep, &coop, &mesh, &mut points);
            data_move(ep, &coop.reversed(), &points, &mut mesh);
        });
    mcsim::jsonl_events(&run.traces)
}

#[test]
fn irregular_remap_exports_the_golden_jsonl() {
    let golden = include_str!("golden/irregular_remap_p4.jsonl");
    let got = irregular_remap_jsonl();
    assert_golden(&got, golden, "tests/golden/irregular_remap_p4.jsonl");
}

/// P = 4 supervised ranks on the SP2 model under a fault plan that drops,
/// duplicates and corrupts one reliable frame in five: each rank sends
/// three 300 000-byte messages (two chunks each) to its right neighbour
/// and receives three from its left.
fn faulted_ring_jsonl() -> String {
    const P: usize = 4;
    const BYTES: usize = 300_000;
    let plan = FaultPlan::new(3).rates(FaultRates {
        drop: 0.2,
        dup: 0.2,
        corrupt: 0.2,
        ..FaultRates::default()
    });
    let run = World::with_model(P, MachineModel::sp2())
        .with_faults(plan)
        .with_supervisor(1)
        .with_trace()
        .run(|ep| {
            let me = ep.rank();
            let st = StreamTag::new(61, 1);
            for m in 0..3 {
                let payload = (0..BYTES).map(|i| (me * 31 + m * 7 + i) as u8).collect();
                reliable_send(ep, (me + 1) % P, st, payload).expect("ring send");
            }
            let left = (me + P - 1) % P;
            for m in 0..3 {
                let got = reliable_recv(ep, left, st).expect("ring recv");
                assert_eq!(got.len(), BYTES);
                assert!(got
                    .iter()
                    .enumerate()
                    .all(|(i, &b)| b == (left * 31 + m * 7 + i) as u8));
            }
            flush_send(ep, (me + 1) % P, st).expect("ring flush");
        });
    mcsim::jsonl_events(&run.traces)
}

#[test]
fn faulted_ring_exports_the_golden_jsonl() {
    let golden = include_str!("golden/faulted_ring_p4.jsonl");
    let got = faulted_ring_jsonl();
    for ty in ["fault", "retransmit", "window_advance", "heartbeat"] {
        let needle = format!("\"type\":\"{ty}\"");
        assert!(got.contains(&needle), "faulted ring has no {ty} line");
    }
    assert_golden(&got, golden, "tests/golden/faulted_ring_p4.jsonl");
}

/// Two 2-rank worlds on the SP2 model, their exports joined.  In the
/// first, rank 0 sends sixteen messages of 3 000–18 000 bytes through a
/// two-frame window on a link that delays every copy by 50 ms and drops
/// one in ten, so the window stalls and late acks find expired frames.  In
/// the second the link drops everything: the sender gives up after its
/// retry budget and both sides end in `PeerTimeout`.
fn window_edges_jsonl() -> String {
    let st = StreamTag::new(62, 1);
    let delayed = FaultPlan::new(5).rates(FaultRates {
        drop: 0.1,
        delay: 1.0,
        delay_secs: 0.05,
        ..FaultRates::default()
    });
    let a = World::with_model(2, MachineModel::sp2())
        .with_faults(delayed)
        .with_reliable_config(ReliableConfig { window_frames: 2 })
        .with_trace()
        .run(|ep| {
            for m in 0..16usize {
                let len = 3_000 * (1 + m % 6);
                if ep.rank() == 0 {
                    let payload = (0..len).map(|i| (m * 13 + i) as u8).collect();
                    reliable_send(ep, 1, st, payload).expect("windowed send");
                } else {
                    let got = reliable_recv(ep, 0, st).expect("windowed recv");
                    assert!(got
                        .iter()
                        .enumerate()
                        .all(|(i, &b)| b == (m * 13 + i) as u8));
                    assert_eq!(got.len(), len);
                }
            }
            if ep.rank() == 0 {
                flush_send(ep, 1, st).expect("windowed flush");
            }
        });
    let lost = FaultPlan::new(5).rates(FaultRates {
        drop: 1.0,
        ..FaultRates::default()
    });
    let b = World::with_model(2, MachineModel::sp2())
        .with_faults(lost)
        .with_trace()
        .run(|ep| {
            let err = if ep.rank() == 0 {
                reliable_send(ep, 1, st, vec![7; 4_000]).expect("admitted");
                flush_send(ep, 1, st).expect_err("every frame is lost")
            } else {
                reliable_recv(ep, 0, st).expect_err("nothing arrives")
            };
            assert!(matches!(err, SimError::PeerTimeout { .. }), "{err:?}");
        });
    mcsim::jsonl_events(&a.traces) + &mcsim::jsonl_events(&b.traces)
}

#[test]
fn window_edges_export_the_golden_jsonl() {
    let golden = include_str!("golden/window_edges_p2.jsonl");
    let got = window_edges_jsonl();
    for needle in [
        "\"type\":\"window_stall\"",
        "\"type\":\"retransmit_burst\"",
        "\"kind\":\"delay\"",
        "reliable give-up",
    ] {
        assert!(got.contains(needle), "window edges have no {needle}");
    }
    assert_golden(&got, golden, "tests/golden/window_edges_p2.jsonl");
}
