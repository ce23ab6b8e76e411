//! Golden traces: JSONL exports that must stay byte-identical to the
//! committed files.
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

use bench::traced::traced_coupled_run;
use chaos::{IrregArray, Partition};
use mcsim::fault::{FaultPlan, FaultRates};
use mcsim::group::{Comm, Group};
use mcsim::model::MachineModel;
use mcsim::reliable::{flush_send, reliable_recv, reliable_send, StreamTag};
use mcsim::rng::Rng;
use mcsim::world::World;
use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::datamove::data_move;
use meta_chaos::region::{IndexSet, RegularSection};
use meta_chaos::setof::SetOfRegions;
use meta_chaos::Side;
use multiblock::MultiblockArray;

/// Fail with the first differing line when `got` is not `golden`.
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
