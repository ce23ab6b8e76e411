//! Adding a brand-new data-parallel library to the framework — the
//! paper's extensibility claim ("all that is required is to provide the
//! interface functions for the new library"; the pC++ group did it in a
//! few days).
//!
//! This example defines `StripedVector`, a toy library whose elements are
//! striped backwards across the processors, implements the Meta-Chaos
//! interface for it in ~70 lines, and immediately exchanges data with
//! Multiblock Parti — no changes to any other crate.
//!
//! Run with `cargo run --example custom_library`.

use mcsim::error::SimError;
use mcsim::group::{Comm, Group};
use mcsim::wire::{Wire, WireReader};
use mcsim::{MachineModel, World};

use meta_chaos::adapter::{Location, McDescriptor, McObject};
use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::datamove::data_move;
use meta_chaos::region::{IndexSet, RegularSection};
use meta_chaos::runs::{OwnedRun, RunBuilder};
use meta_chaos::setof::SetOfRegions;
use meta_chaos::Side;

use multiblock::MultiblockArray;

// ---------------------------------------------------------------- //
// The new library: a vector striped *backwards* over the program.  //
// Element g lives on rank (P-1) - (g % P), at local index g / P.   //
// ---------------------------------------------------------------- //

struct StripedVector {
    members: Vec<usize>,
    my_local: usize,
    data: Vec<f64>,
}

impl StripedVector {
    fn new(prog: &Group, me: usize, n: usize) -> Self {
        let p = prog.size();
        let my_local = prog.local_of(me).expect("member");
        let stripe = (p - 1) - my_local;
        let count = n / p + usize::from(stripe < n % p);
        StripedVector {
            members: prog.members().to_vec(),
            my_local,
            data: vec![0.0; count],
        }
    }
    fn owner_local(&self, g: usize) -> usize {
        (self.members.len() - 1) - (g % self.members.len())
    }
}

// Step 1: a shippable descriptor with per-position lookup.
#[derive(Clone)]
struct StripedDesc {
    members: Vec<usize>,
}

impl Wire for StripedDesc {
    fn write(&self, out: &mut Vec<u8>) {
        self.members.write(out);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        let members = Vec::<usize>::read(r)?;
        Ok(StripedDesc { members })
    }
}

impl McDescriptor for StripedDesc {
    type Region = IndexSet;
    fn locate(&self, set: &SetOfRegions<IndexSet>, pos: usize) -> Location {
        let (ri, off) = set.locate_position(pos);
        let g = set.regions()[ri].index(off);
        let p = self.members.len();
        Location {
            rank: self.members[(p - 1) - (g % p)],
            addr: g / p,
        }
    }
}

// Step 2: the interface functions (this is the *entire* integration):
// which positions of a transfer this rank owns, the descriptor, and a view
// of the local storage — Meta-Chaos packs and unpacks through the view.
impl McObject<f64> for StripedVector {
    type Region = IndexSet;
    type Descriptor = StripedDesc;

    fn deref_owned_runs(&self, comm: &mut Comm<'_>, set: &SetOfRegions<IndexSet>) -> Vec<OwnedRun> {
        let mut out = RunBuilder::new();
        let mut pos = 0;
        for r in set.regions() {
            for &g in r.indices() {
                if self.owner_local(g) == self.my_local {
                    out.push(pos, g / self.members.len());
                }
                pos += 1;
            }
        }
        comm.ep().charge_owner_calc(pos);
        out.finish()
    }

    fn descriptor(&self, _comm: &mut Comm<'_>) -> StripedDesc {
        StripedDesc {
            members: self.members.clone(),
        }
    }

    fn local(&self) -> &[f64] {
        &self.data
    }

    fn local_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

// ---------------------------------------------------------------- //
// Use it immediately against an existing library.                  //
// ---------------------------------------------------------------- //

fn main() {
    let n = 24usize;
    println!("integrating a new library (StripedVector) with Meta-Chaos\n");

    let world = World::with_model(3, MachineModel::sp2());
    let out = world.run(move |ep| {
        let g = Group::world(ep.world_size());
        let mut mb = MultiblockArray::<f64>::new(&g, ep.rank(), &[n]);
        mb.fill_with(|c| (c[0] * c[0]) as f64);

        let mut sv = StripedVector::new(&g, ep.rank(), n);
        let sset = SetOfRegions::single(RegularSection::whole(&[n]));
        let dset = SetOfRegions::single(IndexSet::new((0..n).collect()));

        // Both build strategies work out of the box.
        for method in [BuildMethod::Cooperation, BuildMethod::Duplication] {
            let sched = compute_schedule(
                ep,
                &g,
                &g,
                Some(Side::new(&mb, &sset)),
                &g,
                Some(Side::new(&sv, &dset)),
                method,
            )
            .expect("schedule");
            data_move(ep, &sched, &mb, &mut sv);
        }
        // Report (global index, value) pairs.
        let p = g.size();
        let stripe = (p - 1) - g.local_of(ep.rank()).expect("member");
        sv.data
            .iter()
            .enumerate()
            .map(|(l, &v)| (l * p + stripe, v))
            .collect::<Vec<_>>()
    });

    let mut all: Vec<(usize, f64)> = out.results.into_iter().flatten().collect();
    all.sort_unstable_by_key(|&(g, _)| g);
    println!("striped vector contents after the copy (g, value = g^2):");
    for chunk in all.chunks(6) {
        let line: Vec<String> = chunk
            .iter()
            .map(|(g, v)| format!("({g:2},{v:4.0})"))
            .collect();
        println!("  {}", line.join("  "));
    }
    assert!(all.iter().all(|&(g, v)| v == (g * g) as f64), "MISMATCH");
    println!("\nverification: every element correct");
    println!(
        "the whole integration is the ~70 lines of McObject/McDescriptor\n\
         impls above — no changes to Meta-Chaos or any other library."
    );
}
