//! Layer probes: direct calls into one layer's public functions, run
//! only in the traced run.  None depends on the workload being traced;
//! each builds the smallest world that exercises its layer.
//!
//! Host figures are barrier-to-barrier on rank 0: with one worker thread
//! every rank's work lies between the two barriers, so the span is the
//! layer's whole host cost.  Virtual figures are the same spans on the
//! simulated clock.

use std::sync::Once;
use std::time::Instant;

use mcsim::group::{Comm, Group};
use mcsim::onesided;
use mcsim::prelude::Endpoint;
use mcsim::reliable::{flush_send, reliable_recv, reliable_send, StreamTag};
use mcsim::rng::Rng;
use mcsim::tag::Tag;
use mcsim::wire::WireReader;
use mcsim::{MachineModel, Topology, World};
use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::datamove::{
    data_move, data_move_recv, data_move_recv_unverified, data_move_send, data_move_send_unverified,
};
use meta_chaos::schedule::AddrRuns;
use meta_chaos::{RecoverySession, Side};

use chaos::{IrregArray, Partition, TranslationTable};
use hpf::HpfArray;
use multiblock::MultiblockArray;
use tulip::DistributedCollection;

use crate::driver::LoopCfg;
use crate::libs::{fill, mismatches, mix, value, Lib};
use crate::stats::quantile;
use crate::trial::proc_status_kb;
use crate::workloads::{Coupled, Kind};

type Out = Vec<(String, f64)>;

fn sp2(p: usize) -> World {
    World::with_model(p, MachineModel::sp2())
}

fn group(p: usize) -> Group {
    Group::new((0..p).collect(), 32)
}

/// Host seconds per repetition of the collective `op`, barrier to
/// barrier, as rank 0 sees it.
fn timed(ep: &mut Endpoint, g: &Group, reps: usize, mut op: impl FnMut(&mut Endpoint)) -> f64 {
    Comm::borrowed(ep, g).barrier();
    let t = Instant::now();
    for _ in 0..reps {
        op(ep);
    }
    Comm::borrowed(ep, g).barrier();
    t.elapsed().as_secs_f64() / reps as f64
}

/// Median over `reps` individually bracketed repetitions of `op`.
fn timed_p50(ep: &mut Endpoint, g: &Group, reps: usize, mut op: impl FnMut(&mut Endpoint)) -> f64 {
    let each: Vec<f64> = (0..reps).map(|_| timed(ep, g, 1, &mut op)).collect();
    quantile(&each, 0.5)
}

// ---------------------------------------------------------------- world

/// `world.*`: spawn cost and resident memory of an idle rank.  Must run
/// before anything else raises the process's high-water mark.
fn world_probe(out: &mut Out) {
    const P: usize = 256;
    let hwm0 = proc_status_kb("VmHWM:");
    let t = Instant::now();
    // One barrier, so all P coroutine stacks are live at once.
    sp2(P).run(|ep| Comm::world(ep).barrier());
    let secs = t.elapsed().as_secs_f64();
    let hwm1 = proc_status_kb("VmHWM:");
    out.push(("world.spawn_us_per_rank".into(), secs * 1e6 / P as f64));
    out.push(("world.rss_kb_per_rank".into(), (hwm1 - hwm0) / P as f64));
}

/// `sched.p256_iter_wall_ms_min`: `scale-p128`'s iteration at P = 256,
/// minimum of 8 — the minimum because this size flips between two host
/// modes here (see README), and the fast mode is the repeatable one.
fn p256_probe(seed: u64, out: &mut Out) {
    let cfg = LoopCfg {
        budget_s: 0.0,
        warmup: 2,
        prefix: 8,
        max_iters: 8,
    };
    let n = Kind::ScaleP128.elements(seed);
    let run = Kind::ScaleP128.run_in(sp2(256), seed, n, cfg, false, Instant::now());
    let root = &run.results[0];
    assert_eq!(run.results.iter().map(|r| r.mismatches).sum::<u64>(), 0);
    let min = root
        .iter_ns
        .ns()
        .iter()
        .copied()
        .min()
        .expect("8 iterations");
    out.push(("sched.p256_iter_wall_ms_min".into(), min as f64 / 1e6));
}

// -------------------------------------------------------------- adapter

/// `adapter.<lib>.*`: the three inquiry functions the run-based inspector
/// and the wire executor call, on a whole 2^16-element object at P = 4.
fn adapter_probe<L: Lib>(seed: u64, out: &mut Out) {
    const N: usize = 1 << 16;
    const REPS: usize = 8;
    let run = sp2(4).run(move |ep| {
        let g = group(4);
        let mut obj = L::build(ep, &g, N, seed);
        fill(&mut obj, |i| value(seed, 0, 0, i));
        let set = L::whole(N);
        let mut runs = Vec::new();
        let deref = timed(ep, &g, REPS, |ep| {
            runs = obj.deref_owned_runs(&mut Comm::borrowed(ep, &g), &set);
        });
        let mut addrs = AddrRuns::new();
        for r in &runs {
            r.emit_addrs(0, r.len, &mut addrs);
        }
        let mut wire = Vec::new();
        let pack = timed(ep, &g, REPS, |ep| {
            wire.clear();
            obj.pack_runs_wire(ep, &addrs, &mut wire);
        });
        let unpack = timed(ep, &g, REPS, |ep| {
            let mut r = WireReader::new(&wire);
            obj.unpack_runs_wire(ep, &addrs, &mut r)
                .expect("unpack what was packed");
        });
        assert_eq!(mismatches(&mut obj, |i| value(seed, 0, 0, i)), 0);
        [deref, pack, unpack]
    });
    let per_elem = |secs: f64| secs * 1e9 / N as f64;
    let [deref, pack, unpack] = run.results[0];
    let name = L::NAME;
    out.push((
        format!("adapter.{name}.deref_runs_ns_per_elem"),
        per_elem(deref),
    ));
    out.push((format!("adapter.{name}.pack_ns_per_elem"), per_elem(pack)));
    out.push((
        format!("adapter.{name}.unpack_ns_per_elem"),
        per_elem(unpack),
    ));
}

// ------------------------------------------------------------- datamove

/// `datamove.verified_over_unverified`: one 2 MiB coupled schedule moved
/// through the verified entry points and through the unverified ones.
fn verify_probe(seed: u64, out: &mut Out) {
    const N: usize = 1 << 18;
    const REPS: usize = 32;
    let run = sp2(4).run(move |ep| {
        let mut sides = Coupled::build(ep, 2, 2, N, seed);
        sides.refill(0);
        let sched = sides.schedule(ep).expect("probe schedule");
        let Coupled {
            un, src, mut dst, ..
        } = sides;
        let verified = timed_p50(ep, &un, REPS, |ep| {
            if let Some(s) = &src {
                data_move_send(ep, &sched, s).expect("verified send");
            }
            if let Some(d) = &mut dst {
                data_move_recv(ep, &sched, d).expect("verified recv");
            }
        });
        let unverified = timed_p50(ep, &un, REPS, |ep| {
            if let Some(s) = &src {
                data_move_send_unverified(ep, &sched, s).expect("unverified send");
            }
            if let Some(d) = &mut dst {
                data_move_recv_unverified(ep, &sched, d).expect("unverified recv");
            }
        });
        if let Some(d) = &mut dst {
            assert_eq!(mismatches(d, |i| value(seed, 0, 0, i)), 0);
        }
        verified / unverified
    });
    out.push(("datamove.verified_over_unverified".into(), run.results[0]));
}

/// `datamove.local_copy_ns_per_elem`: a one-rank `data_move`, so every
/// element is a same-rank copy pair and nothing touches the wire.
fn local_copy_probe(seed: u64, out: &mut Out) {
    const N: usize = 1 << 18;
    const REPS: usize = 12;
    let run = sp2(1).run(move |ep| {
        let g = group(1);
        let mut src = MultiblockArray::<f64>::build(ep, &g, N, seed);
        let mut dst = HpfArray::<f64>::build(ep, &g, N, seed);
        fill(&mut src, |i| value(seed, 0, 0, i));
        let (sset, dset) = (MultiblockArray::<f64>::whole(N), HpfArray::<f64>::whole(N));
        let sched = compute_schedule(
            ep,
            &g,
            &g,
            Some(Side::new(&src, &sset)),
            &g,
            Some(Side::new(&dst, &dset)),
            BuildMethod::Cooperation,
        )
        .expect("probe schedule");
        assert_eq!(sched.elems_local(), N);
        let secs = timed_p50(ep, &g, REPS, |ep| data_move(ep, &sched, &src, &mut dst));
        assert_eq!(mismatches(&mut dst, |i| value(seed, 0, 0, i)), 0);
        secs * 1e9 / N as f64
    });
    out.push(("datamove.local_copy_ns_per_elem".into(), run.results[0]));
}

// -------------------------------------------------------------- session

/// Scripted crashes panic inside the rank by design and the supervisor
/// catches them; keep just those panics off stderr.
fn quiet_scripted_crashes() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("crashed by fault plan") {
                default_hook(info);
            }
        }));
    });
}

/// One supervised two-step session between rank 0 (source) and rank 1
/// (destination), the destination optionally crashing at virtual time
/// `crash`.  Returns the run's virtual seconds, the destination's commit
/// window (virtual begin/end of its `recv_step`s) and the recovery
/// counters.
fn settle_world(seed: u64, crash: Option<f64>) -> (f64, (f64, f64), mcsim::RecoveryStats) {
    const N: usize = 4096;
    const STEPS: u64 = 2;
    type Src = MultiblockArray<f64>;
    type Dst = HpfArray<f64>;
    let rep = sp2(2).with_supervisor(1).run_result(move |ep| {
        if let Some(at) = crash {
            // The flag rides the checkpoint store: the second life must
            // not crash again.
            if ep.rank() == 1 && !ep.ckpt_has("probe-crash-armed") {
                ep.ckpt_put("probe-crash-armed", Vec::new());
                ep.arm_crash(at);
            }
        }
        let (pa, pb, un) = Group::split_two(1, 1, 36);
        let (sset, dset) = (Src::whole(N), Dst::whole(N));
        let mut ses = RecoverySession::new("probe-settle");
        let mut window = (0.0, 0.0);
        if pa.contains(ep.rank()) {
            let mut v: Src = ses.restore_object(ep).unwrap_or_else(|| {
                let o = Src::build(ep, &pa, N, seed);
                ses.checkpoint_object(ep, &o);
                o
            });
            let sched = ses.restore_schedule(ep).unwrap_or_else(|| {
                let s = compute_schedule::<f64, Src, Dst>(
                    ep,
                    &un,
                    &pa,
                    Some(Side::new(&v, &sset)),
                    &pb,
                    None,
                    BuildMethod::Cooperation,
                )
                .expect("settle schedule");
                ses.checkpoint_schedule(ep, &s);
                s
            });
            for k in 0..STEPS {
                fill(&mut v, |i| value(seed, 0, k, i));
                ses.send_step(ep, &sched, &v, k).expect("settle send");
            }
            ses.finish(ep, &sched, STEPS).expect("settle finish");
        } else {
            let mut h: Dst = ses.restore_object(ep).unwrap_or_else(|| {
                let o = Dst::build(ep, &pb, N, seed);
                ses.checkpoint_object(ep, &o);
                o
            });
            let sched = ses.restore_schedule(ep).unwrap_or_else(|| {
                let s = compute_schedule::<f64, Src, Dst>(
                    ep,
                    &un,
                    &pa,
                    None,
                    &pb,
                    Some(Side::new(&h, &dset)),
                    BuildMethod::Cooperation,
                )
                .expect("settle schedule");
                ses.checkpoint_schedule(ep, &s);
                s
            });
            window.0 = ep.clock();
            for k in 0..STEPS {
                ses.recv_step(ep, &sched, &mut h, k).expect("settle recv");
            }
            window.1 = ep.clock();
            ses.finish(ep, &sched, STEPS).expect("settle finish");
            assert_eq!(mismatches(&mut h, |i| value(seed, 0, STEPS - 1, i)), 0);
        }
        window
    });
    let window = *rep.outcomes[1]
        .as_ref()
        .expect("supervised settle run must converge");
    rep.outcomes[0].as_ref().expect("source rank must finish");
    (rep.elapsed, window, rep.stats.recovery)
}

/// `session.recovery_*`: one scripted mid-transfer crash of the
/// destination, priced on the virtual clock against the fault-free run.
fn crash_probe(seed: u64, out: &mut Out) {
    quiet_scripted_crashes();
    let (clean, (lo, hi), _) = settle_world(seed, None);
    let (crashed, _, rec) = settle_world(seed, Some(lo + 0.5 * (hi - lo)));
    assert!(rec.ranks_recovered >= 1, "the scripted crash must fire");
    out.push((
        "session.recovery_settle_virtual_ms".into(),
        (crashed - clean) * 1e3,
    ));
    out.push(("session.parts_replayed".into(), rec.parts_replayed as f64));
    out.push(("session.ranks_recovered".into(), rec.ranks_recovered as f64));
}

// ------------------------------------------------------------- reliable

/// `reliable.host_ns_per_byte` / `reliable.virtual_mb_per_s`: one 8 MiB
/// logical message through the windowed stream, fault-free.
fn stream_probe(out: &mut Out) {
    const BYTES: usize = 8 << 20;
    const REPS: usize = 4;
    let run = sp2(2).run(|ep| {
        let g = group(2);
        let st = StreamTag::new(g.context(), 7);
        let t0 = Comm::borrowed(ep, &g).sync_clocks();
        let secs = timed(ep, &g, REPS, |ep| {
            if ep.rank() == 0 {
                let mut payload = ep.take_buf();
                payload.resize(BYTES, 0xa5);
                reliable_send(ep, 1, st, payload).expect("stream send");
                flush_send(ep, 1, st).expect("stream flush");
            } else {
                let got = reliable_recv(ep, 0, st).expect("stream recv");
                assert_eq!(got.len(), BYTES);
                ep.recycle_buf(got);
            }
        });
        let t1 = Comm::borrowed(ep, &g).sync_clocks();
        (secs, (t1 - t0) / REPS as f64)
    });
    let (host, virt) = run.results[0];
    out.push((
        "reliable.host_ns_per_byte".into(),
        host * 1e9 / BYTES as f64,
    ));
    out.push((
        "reliable.virtual_mb_per_s".into(),
        BYTES as f64 / virt / 1e6,
    ));
}

/// `reliable.goodput_ratio` / `reliable.lossy_over_clean_wall`:
/// `lossy-link` against its fault-free twin, a fixed 48 iterations each.
fn lossy_probe(seed: u64, out: &mut Out) {
    let kind = Kind::LossyLink;
    let cfg = LoopCfg {
        budget_s: 0.0,
        warmup: 4,
        prefix: 48,
        max_iters: 48,
    };
    let n = kind.elements(seed);
    let measure = |world: World| {
        let run = kind.run_in(world, seed, n, cfg, false, Instant::now());
        assert_eq!(run.results.iter().map(|r| r.mismatches).sum::<u64>(), 0);
        let ms: Vec<f64> = run.results[0]
            .iter_ns
            .ns()
            .iter()
            .map(|&x| x as f64)
            .collect();
        let bytes: u64 = run
            .results
            .iter()
            .map(|r| r.timed_stats.total_bytes())
            .sum();
        (quantile(&ms, 0.5), bytes as f64)
    };
    let (clean_wall, clean_bytes) = measure(sp2(kind.procs()));
    let (lossy_wall, lossy_bytes) = measure(kind.world(seed, false));
    out.push(("reliable.goodput_ratio".into(), clean_bytes / lossy_bytes));
    out.push((
        "reliable.lossy_over_clean_wall".into(),
        lossy_wall / clean_wall,
    ));
}

// ------------------------------------------------------------- endpoint

/// `endpoint.*`: the raw mailbox path, no reliable framing.
fn endpoint_probe(out: &mut Out) {
    const PINGS: usize = 4000;
    const BYTES: usize = 8 << 20;
    const BIG: usize = 4;
    let run = sp2(2).run(|ep| {
        let g = group(2);
        let tag = Tag::new(g.context(), 9);
        let peer = 1 - ep.rank();
        let ping = timed(ep, &g, PINGS, |ep| {
            if ep.rank() == 0 {
                ep.send(peer, tag, vec![0u8; 8]);
                ep.recv(peer, tag);
            } else {
                let m = ep.recv(peer, tag);
                ep.send(peer, tag, m);
            }
        });
        let big = timed(ep, &g, BIG, |ep| {
            if ep.rank() == 0 {
                ep.send(peer, tag, vec![0x5au8; BYTES]);
            } else {
                assert_eq!(ep.recv(peer, tag).len(), BYTES);
            }
        });
        (ping, big)
    });
    let (ping, big) = run.results[0];
    // A round trip is two messages.
    out.push(("endpoint.pingpong_ns".into(), ping * 1e9 / 2.0));
    out.push((
        "endpoint.large_ns_per_byte".into(),
        big * 1e9 / BYTES as f64,
    ));
}

// ---------------------------------------------------------- collectives

/// `coll.*` at P = 128.
fn coll_probe(out: &mut Out) {
    const P: usize = 128;
    let run = sp2(P).run(|ep| {
        let g = group(P);
        let barrier = timed_p50(ep, &g, 40, |ep| Comm::borrowed(ep, &g).barrier());
        let a2a_once = |ep: &mut Endpoint| {
            let send: Vec<Vec<u8>> = (0..P).map(|_| vec![0u8; 64]).collect();
            std::hint::black_box(Comm::borrowed(ep, &g).alltoallv_bytes(send));
        };
        let before = ep.stats_snapshot().total_msgs();
        a2a_once(ep);
        let sent = ep.stats_snapshot().total_msgs() - before;
        let a2a = timed_p50(ep, &g, 5, a2a_once);
        let gather = timed_p50(ep, &g, 5, |ep| {
            let me = ep.rank() as u64;
            std::hint::black_box(Comm::borrowed(ep, &g).allgather_t(me));
        });
        (barrier, a2a, sent, gather)
    });
    let (barrier, a2a, _, gather) = run.results[0];
    let a2a_msgs: u64 = run.results.iter().map(|r| r.2).sum();
    out.push(("coll.barrier_wall_us_p50".into(), barrier * 1e6));
    out.push(("coll.alltoallv_wall_ms_p50".into(), a2a * 1e3));
    out.push(("coll.alltoallv_msgs".into(), a2a_msgs as f64));
    out.push(("coll.allgather_wall_us".into(), gather * 1e6));
}

// ---------------------------------------------------------------- model

/// `model.*`: a uniform 1 KiB alltoallv at P = 64 on each topology, plus
/// an incast on the torus.  No workload leaves the crossbar.
fn model_probe(out: &mut Out) {
    const P: usize = 64;
    const KIB: usize = 1024;
    let uniform = |topo: Topology| {
        let t = Instant::now();
        let run = sp2(P).with_topology(topo).run(|ep| {
            let send: Vec<Vec<u8>> = (0..P).map(|_| vec![0u8; KIB]).collect();
            std::hint::black_box(Comm::world(ep).alltoallv_bytes(send));
        });
        let host_ns = t.elapsed().as_secs_f64() * 1e9;
        let per_msg = host_ns / run.stats.total_msgs() as f64;
        (per_msg, run.elapsed * 1e3, run.contended_secs * 1e3)
    };
    let torus = Topology::Torus2D { cols: 8, rows: 8 };
    for (name, topo) in [
        ("crossbar", Topology::Crossbar),
        ("torus", torus),
        ("fattree", Topology::FatTree { down: 8, up: 2 }),
    ] {
        let (per_msg, virt, contended) = uniform(topo);
        out.push((format!("model.{name}.host_ns_per_msg"), per_msg));
        out.push((format!("model.{name}.virtual_ms"), virt));
        if name == "torus" {
            out.push(("model.torus.contended_virtual_ms".into(), contended));
        }
    }
    let incast = sp2(P).with_topology(torus).run(|ep| {
        let tag = Tag::new(Tag::FIRST_USER_CTX, 11);
        if ep.rank() == 0 {
            for from in 1..P {
                ep.recv(from, tag);
            }
        } else {
            ep.send(0, tag, vec![0u8; 4 * KIB]);
        }
    });
    out.push((
        "model.torus.incast_contended_virtual_ms".into(),
        incast.contended_secs * 1e3,
    ));
}

// ------------------------------------------------------------- onesided

/// `onesided.*`: 4 KiB puts (each flushed) and gets against a window the
/// target exposes once.
fn onesided_probe(out: &mut Out) {
    const OPS: usize = 200;
    const LEN: usize = 4096;
    const WIN: u32 = 3;
    let run = sp2(2).run(|ep| {
        let ctx = Tag::FIRST_USER_CTX;
        if ep.rank() == 0 {
            onesided::expose(ep, WIN, vec![0u8; LEN]);
            onesided::wait_notify(ep, WIN, 1).expect("final put notifies");
            // The teardown service loop keeps answering gets.
            [0.0; 5]
        } else {
            let data = vec![0x3cu8; LEN];
            let m0 = ep.stats_snapshot().total_msgs();
            let (t, v) = (Instant::now(), ep.clock());
            for _ in 0..OPS {
                onesided::put(ep, 0, ctx, WIN, 0, &data).expect("put");
                onesided::put_flush(ep, 0, ctx, WIN).expect("put flush");
            }
            let put_host = t.elapsed().as_secs_f64() / OPS as f64;
            let put_virt = (ep.clock() - v) / OPS as f64;
            let put_msgs = (ep.stats_snapshot().total_msgs() - m0) as f64 / OPS as f64;
            let (t, v) = (Instant::now(), ep.clock());
            for _ in 0..OPS {
                let got = onesided::get(ep, 0, ctx, WIN, 0, LEN).expect("get");
                assert_eq!(got, data);
            }
            let get_host = t.elapsed().as_secs_f64() / OPS as f64;
            let get_virt = (ep.clock() - v) / OPS as f64;
            onesided::put_notify(ep, 0, ctx, WIN, 0, &data).expect("final put");
            onesided::put_flush(ep, 0, ctx, WIN).expect("final flush");
            [put_host, put_virt, put_msgs, get_host, get_virt]
        }
    });
    let [put_host, put_virt, put_msgs, get_host, get_virt] = run.results[1];
    // Everything on the wire for one flushed put, minus its data frame:
    // the origin's sends plus the target's acks (its other OPS sends
    // were get replies).
    let acks = (run.stats.msgs[0][1] as f64 - OPS as f64) / (OPS + 1) as f64;
    out.push(("onesided.put_host_us".into(), put_host * 1e6));
    out.push(("onesided.put_virtual_us".into(), put_virt * 1e6));
    out.push(("onesided.get_host_us".into(), get_host * 1e6));
    out.push(("onesided.get_virtual_us".into(), get_virt * 1e6));
    out.push(("onesided.ctrl_msgs_per_put".into(), put_msgs + acks - 1.0));
}

// ---------------------------------------------------------------- chaos

/// `chaos.ttable_*`: the distributed translation table on its own, at the
/// size `irregular-remap` uses.
fn ttable_probe(seed: u64, out: &mut Out) {
    const P: usize = 8;
    const N: usize = 1 << 16;
    let run = sp2(P).run(move |ep| {
        let g = group(P);
        let me = g.local_of(ep.rank()).expect("member");
        let mine = Partition::Random(mix(seed ^ 0xc4a0)).indices_of(N, P, me);
        let mut table = None;
        let build = timed_p50(ep, &g, 3, |ep| {
            table = Some(TranslationTable::build(
                &mut Comm::borrowed(ep, &g),
                N,
                &mine,
            ));
        });
        let table = table.expect("built");
        let mut rng = Rng::seed_from_u64(mix(seed ^ me as u64));
        let queries: Vec<usize> = (0..N / P).map(|_| rng.gen_range(N)).collect();
        let deref = timed_p50(ep, &g, 5, |ep| {
            std::hint::black_box(table.dereference(&mut Comm::borrowed(ep, &g), &queries));
        });
        (build, deref)
    });
    let (build, deref) = run.results[0];
    out.push(("chaos.ttable_build_ms".into(), build * 1e3));
    out.push((
        "chaos.ttable_deref_ns_per_index".into(),
        deref * 1e9 / N as f64,
    ));
}

/// Run every probe; returns `(metric name, value)` pairs.
pub fn run_all(seed: u64) -> Out {
    let mut out = Out::new();
    world_probe(&mut out);
    adapter_probe::<MultiblockArray<f64>>(seed, &mut out);
    adapter_probe::<HpfArray<f64>>(seed, &mut out);
    adapter_probe::<IrregArray<f64>>(seed, &mut out);
    adapter_probe::<DistributedCollection<f64>>(seed, &mut out);
    verify_probe(seed, &mut out);
    local_copy_probe(seed, &mut out);
    crash_probe(seed, &mut out);
    stream_probe(&mut out);
    lossy_probe(seed, &mut out);
    endpoint_probe(&mut out);
    coll_probe(&mut out);
    model_probe(&mut out);
    onesided_probe(&mut out);
    ttable_probe(seed, &mut out);
    p256_probe(seed, &mut out);
    out
}
