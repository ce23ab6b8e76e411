//! Peer-to-peer coupling of two separately written data-parallel programs
//! (paper §5.2 and the shipboard-fire scenario of the introduction).
//!
//! Program A owns a block-distributed "temperature" field (Multiblock
//! Parti); program B owns the same field irregularly distributed (Chaos)
//! and applies a relaxation to it.  Meta-Chaos couples them through a
//! named port: every step the field flows A→B, B updates it, and it flows
//! back B→A over the same (reversed) schedule.
//!
//! Run with `cargo run --example two_programs`.

use mcsim::group::{Comm, Group};
use mcsim::{MachineModel, World};
use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::coupling::Coupler;
use meta_chaos::region::{IndexSet, RegularSection};
use meta_chaos::setof::SetOfRegions;
use meta_chaos::Side;

use chaos::{IrregArray, Partition};
use multiblock::MultiblockArray;

const N: usize = 1024;
const STEPS: usize = 6;

fn main() {
    let (pa_size, pb_size) = (2usize, 3usize);
    println!(
        "two coupled programs: A = {pa_size} procs (Multiblock Parti), \
         B = {pb_size} procs (Chaos), field of {N} points, {STEPS} steps\n"
    );

    let world = World::with_model(pa_size + pb_size, MachineModel::sp2());
    let out = world.run(move |ep| {
        let (pa, pb, un) = Group::split_two(pa_size, pb_size, 32);
        let reg_set = SetOfRegions::single(RegularSection::whole(&[N]));
        let irr_set = SetOfRegions::single(IndexSet::new((0..N).collect()));

        if pa.contains(ep.rank()) {
            // ---------------- program A ----------------
            let mut field = MultiblockArray::<f64>::new(&pa, ep.rank(), &[N]);
            field.fill_with(|c| 100.0 * (1.0 + (c[0] as f64 / N as f64).sin()));
            let sched = compute_schedule::<f64, MultiblockArray<f64>, IrregArray<f64>>(
                ep,
                &un,
                &pa,
                Some(Side::new(&field, &reg_set)),
                &pb,
                None,
                BuildMethod::Cooperation,
            )
            .expect("coupling schedule");
            // The return flow reuses the schedule through its symmetry.
            let mut ports = Coupler::new();
            ports.bind("temperature-back", sched.reversed());
            ports.bind("temperature", sched);

            let mut maxima = Vec::new();
            for _ in 0..STEPS {
                ports.put(ep, "temperature", &field).unwrap();
                ports.get(ep, "temperature-back", &mut field).unwrap();
                let local_max = field
                    .local()
                    .iter()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max);
                let mut comm = Comm::new(ep, pa.clone());
                maxima.push(comm.allreduce_max_f64(local_max));
            }
            maxima
        } else {
            // ---------------- program B ----------------
            let mut mirror = {
                let mut comm = Comm::new(ep, pb.clone());
                IrregArray::create(&mut comm, N, Partition::Random(99), |_| 0.0)
            };
            let sched = compute_schedule::<f64, MultiblockArray<f64>, IrregArray<f64>>(
                ep,
                &un,
                &pa,
                None,
                &pb,
                Some(Side::new(&mirror, &irr_set)),
                BuildMethod::Cooperation,
            )
            .expect("coupling schedule");
            let mut ports = Coupler::new();
            ports.bind("temperature-back", sched.reversed());
            ports.bind("temperature", sched);

            for _ in 0..STEPS {
                ports.get(ep, "temperature", &mut mirror).unwrap();
                // B's physics: relax toward the mean.
                let mean = {
                    let local: f64 = mirror.local().iter().sum();
                    let mut comm = Comm::new(ep, pb.clone());
                    comm.allreduce_sum(local) / N as f64
                };
                for v in mirror.local_mut() {
                    *v += 0.25 * (mean - *v);
                }
                ports.put(ep, "temperature-back", &mirror).unwrap();
            }
            Vec::new()
        }
    });

    println!("field maximum after each coupled step (relaxing toward the mean):");
    for (s, m) in out.results[0].iter().enumerate() {
        println!("  step {:2}: max = {m:10.4}", s + 1);
    }
    println!(
        "\nschedule built once, reused {}x in both directions; \
         simulated elapsed {:.2} ms",
        2 * STEPS,
        out.elapsed * 1e3
    );
}
