//! Scenario generation.
//!
//! Everything is derived from one SplitMix64 stream, so a scenario is
//! fully determined by its seed.  Structural validity is by
//! construction: destination regions are pairwise disjoint (so the
//! serial memory model is order-independent), source regions are sized
//! to exactly the destination element total, shapes are large enough
//! for every random distribution the adapters can draw, and faults are
//! only paired with coupled all-`Move` scripts (same-program moves ride
//! the raw unreliable channel, and mid-stream bumps under lossy links
//! have no tractable oracle).

use mcsim::rng::Rng;

use crate::scenario::{FaultSpec, LibKind, LibSpec, RegionsSpec, Scenario, Step};

/// Per-link fault-rate ceiling.  High enough to force retransmits and
/// reordering, low enough that the reliable layer's bounded retries
/// always converge well inside the virtual-clock deadline.
const RATE_CAP: f64 = 0.12;

/// Virtual-clock deadline armed on every generated world, seconds.
const DEADLINE_SECS: f64 = 60.0;

/// Generate the scenario for `seed`, library pair included.
pub fn generate(seed: u64) -> Scenario {
    generate_sized(seed, false)
}

/// [`generate`] with a size class: `wide` worlds hold 8 or 16 ranks
/// total (the cooperative-scheduler soak sizes), with shapes enlarged so
/// every random distribution still gives each rank at least one row.
pub fn generate_sized(seed: u64, wide: bool) -> Scenario {
    let mut rng = Rng::seed_from_u64(seed);
    let src = LibKind::ALL[rng.gen_range(4)];
    let dst = LibKind::ALL[rng.gen_range(4)];
    gen_with(&mut rng, seed, src, dst, wide)
}

/// Generate the scenario for `seed` with a forced library pair (the
/// `--matrix` sweep drives all 16 combinations this way).
pub fn generate_pair(seed: u64, src: LibKind, dst: LibKind) -> Scenario {
    generate_pair_sized(seed, src, dst, false)
}

/// [`generate_pair`] with the `wide` size class (see [`generate_sized`]).
pub fn generate_pair_sized(seed: u64, src: LibKind, dst: LibKind, wide: bool) -> Scenario {
    let mut rng = Rng::seed_from_u64(seed);
    // Burn the two draws `generate` would use, keeping streams aligned.
    let _ = rng.gen_range(4);
    let _ = rng.gen_range(4);
    gen_with(&mut rng, seed, src, dst, wide)
}

/// Generate a recovery scenario for `seed`: a coupled multi-move run
/// under a supervised world, with one or two crashes whose times are
/// fractions of the victims' transfer windows (resolved against a
/// fault-free baseline by the executor, so they land inside the
/// resumable session rather than a collective build).
pub fn gen_recovery(seed: u64) -> Scenario {
    let mut rng = Rng::seed_from_u64(seed);
    let src_kind = LibKind::ALL[rng.gen_range(4)];
    let dst_kind = LibKind::ALL[rng.gen_range(4)];
    let (procs_src, procs_dst) = (1 + rng.gen_range(3), 1 + rng.gen_range(3));
    let src_shape = gen_shape(&mut rng, src_kind, false);
    let dst_shape = gen_shape(&mut rng, dst_kind, false);
    let dst_set = gen_dst_regions(&mut rng, dst_kind, &dst_shape);
    let src_set = gen_src_regions(&mut rng, src_kind, &src_shape, dst_set.total());
    let steps = vec![Step::Move; 1 + rng.gen_range(3)];
    let total = procs_src + procs_dst;
    let ncrashes = 1 + rng.gen_range(2.min(total));
    let mut victims: Vec<usize> = Vec::new();
    let crashes = (0..ncrashes)
        .filter_map(|_| {
            // Distinct victims: restart budgets are per rank, and two
            // crashes on one rank at baseline-derived times are not
            // meaningful after the first restart shifts its timeline.
            let rank = rng.gen_range(total);
            let frac = 0.1 + rng.gen_f64() * 0.8;
            if victims.contains(&rank) {
                return None;
            }
            victims.push(rank);
            Some((rank, frac))
        })
        .collect();
    Scenario {
        seed,
        coupled: true,
        procs_src,
        procs_dst,
        method: rng.gen_range(2) as u8,
        src: LibSpec {
            kind: src_kind,
            shape: src_shape,
            dist_seed: rng.next_u64(),
        },
        dst: LibSpec {
            kind: dst_kind,
            shape: dst_shape,
            dist_seed: rng.next_u64(),
        },
        src_set,
        dst_set,
        steps,
        fault: Some(FaultSpec {
            seed: rng.next_u64(),
            drop: 0.0,
            dup: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            delay_secs: 1e-4,
            crash: None,
            crashes,
        }),
        deadline: DEADLINE_SECS,
        recover: true,
        perturb_seed: None,
    }
}

fn gen_shape(rng: &mut Rng, kind: LibKind, wide: bool) -> Vec<usize> {
    // Wide worlds (8/16 ranks per program side) need every dimension to
    // seat the largest grid a random distribution can draw, so the
    // minimum side grows with the size class.
    let floor = if wide { 16 } else { 0 };
    if kind.uses_sections() && rng.gen_f64() < 0.5 {
        vec![
            floor.max(4) + rng.gen_range(9),
            floor.max(4) + rng.gen_range(9),
        ]
    } else {
        vec![floor.max(8) + rng.gen_range(89)]
    }
}

fn split_chunks(rng: &mut Rng, idx: &[usize]) -> Vec<Vec<usize>> {
    let take = idx.len();
    let chunks = 1 + rng.gen_range(4.min(take));
    let base = take / chunks;
    let extra = take % chunks;
    let mut out = Vec::new();
    let mut pos = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < extra);
        if len > 0 {
            out.push(idx[pos..pos + len].to_vec());
            pos += len;
        }
    }
    out
}

/// Destination regions: pairwise disjoint by construction.
fn gen_dst_regions(rng: &mut Rng, kind: LibKind, shape: &[usize]) -> RegionsSpec {
    if !kind.uses_sections() {
        // Shuffled prefix of the index space, split into chunks.
        let n = shape[0];
        let mut idx: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut idx);
        let take = 1 + rng.gen_range(n.min(40));
        idx.truncate(take);
        return RegionsSpec::Indices(split_chunks(rng, &idx));
    }
    if shape.len() == 1 {
        // Left-to-right cursor walk with gaps: disjoint strided slices.
        let n = shape[0];
        let mut regions = Vec::new();
        let mut cur = rng.gen_range(3);
        for _ in 0..1 + rng.gen_range(3) {
            if cur >= n {
                break;
            }
            let stride = 1 + rng.gen_range(3);
            let max_count = (n - cur - 1) / stride + 1;
            let count = 1 + rng.gen_range(max_count.min(12));
            let hi = cur + (count - 1) * stride + 1;
            regions.push(vec![(cur, hi, stride)]);
            cur = hi + rng.gen_range(4);
        }
        RegionsSpec::Sections(regions)
    } else {
        // Disjoint row bands, each with its own column slice.
        let (rows, cols) = (shape[0], shape[1]);
        let mut regions = Vec::new();
        let mut r = 0;
        for _ in 0..1 + rng.gen_range(3) {
            if r >= rows {
                break;
            }
            let h = 1 + rng.gen_range((rows - r).min(4));
            let clo = rng.gen_range(cols.min(4));
            let cstride = 1 + rng.gen_range(3);
            let cmax = (cols - clo - 1) / cstride + 1;
            let ccount = 1 + rng.gen_range(cmax.min(6));
            let chi = clo + (ccount - 1) * cstride + 1;
            regions.push(vec![(r, r + h, 1), (clo, chi, cstride)]);
            r += h + rng.gen_range(3);
        }
        RegionsSpec::Sections(regions)
    }
}

/// Source regions sized to exactly `total` elements.  Overlap and
/// duplicates are legal on the read side and deliberately exercised.
fn gen_src_regions(rng: &mut Rng, kind: LibKind, shape: &[usize], total: usize) -> RegionsSpec {
    if !kind.uses_sections() {
        let n = shape[0];
        let idx: Vec<usize> = (0..total).map(|_| rng.gen_range(n)).collect();
        return RegionsSpec::Indices(split_chunks(rng, &idx));
    }
    if shape.len() == 1 {
        let n = shape[0];
        let mut regions = Vec::new();
        let mut left = total;
        while left > 0 {
            let count = 1 + rng.gen_range(left.min(12).min(n));
            let max_stride = if count == 1 {
                3
            } else {
                ((n - 1) / (count - 1)).min(3)
            };
            let stride = 1 + rng.gen_range(max_stride);
            let span = (count - 1) * stride + 1;
            let lo = rng.gen_range(n - span + 1);
            regions.push(vec![(lo, lo + span, stride)]);
            left -= count;
        }
        RegionsSpec::Sections(regions)
    } else {
        let (rows, cols) = (shape[0], shape[1]);
        let mut regions = Vec::new();
        let mut left = total;
        // Some full-width row bands first ...
        while left >= cols && rng.gen_f64() < 0.7 {
            let h = (left / cols).min(1 + rng.gen_range(3)).min(rows);
            let r0 = rng.gen_range(rows - h + 1);
            regions.push(vec![(r0, r0 + h, 1), (0, cols, 1)]);
            left -= h * cols;
        }
        // ... then single-row partial slices for the remainder.
        while left > 0 {
            let count = left.min(1 + rng.gen_range(cols));
            let r0 = rng.gen_range(rows);
            let lo = rng.gen_range(cols - count + 1);
            regions.push(vec![(r0, r0 + 1, 1), (lo, lo + count, 1)]);
            left -= count;
        }
        RegionsSpec::Sections(regions)
    }
}

fn gen_with(
    rng: &mut Rng,
    seed: u64,
    src_kind: LibKind,
    dst_kind: LibKind,
    wide: bool,
) -> Scenario {
    // Decide faults first: they constrain topology and the step script.
    let with_fault = rng.gen_f64() < 0.4;
    let coupled = with_fault || rng.gen_f64() < 0.5;
    let (procs_src, procs_dst) = if coupled {
        if wide {
            // Soak the cooperative scheduler at P in {8, 16}: equal
            // halves so both programs feel the width.
            let half = if rng.gen_range(2) == 0 { 4 } else { 8 };
            (half, half)
        } else {
            (1 + rng.gen_range(3), 1 + rng.gen_range(3))
        }
    } else if wide {
        let p = if rng.gen_range(2) == 0 { 8 } else { 16 };
        (p, p)
    } else {
        let p = 2 + rng.gen_range(3);
        (p, p)
    };

    let src_shape = gen_shape(rng, src_kind, wide);
    let dst_shape = gen_shape(rng, dst_kind, wide);
    let dst_set = gen_dst_regions(rng, dst_kind, &dst_shape);
    let src_set = gen_src_regions(rng, src_kind, &src_shape, dst_set.total());

    let steps = if with_fault {
        vec![Step::Move; 1 + rng.gen_range(2)]
    } else {
        let mut steps = Vec::new();
        for _ in 0..1 + rng.gen_range(4) {
            let r = rng.gen_f64();
            if r < 0.5 {
                steps.push(Step::Move);
            } else if r < 0.75 && src_kind.supports_bump() {
                steps.push(Step::BumpSrc {
                    dist_seed: rng.next_u64(),
                });
            } else if dst_kind.supports_bump() {
                steps.push(Step::BumpDst {
                    dist_seed: rng.next_u64(),
                });
            } else {
                steps.push(Step::Move);
            }
        }
        if !steps.iter().any(|s| matches!(s, Step::Move)) {
            steps.push(Step::Move);
        }
        steps
    };

    let fault = with_fault.then(|| {
        let rate = |rng: &mut Rng| {
            if rng.gen_f64() < 0.5 {
                rng.gen_f64() * RATE_CAP
            } else {
                0.0
            }
        };
        let spec = FaultSpec {
            seed: rng.next_u64(),
            drop: rate(rng),
            dup: rate(rng),
            corrupt: rate(rng),
            delay: rate(rng),
            delay_secs: 1e-4 + rng.gen_f64() * 1e-3,
            crash: None,
            crashes: Vec::new(),
        };
        let crash = (rng.gen_f64() < 0.4)
            .then(|| (rng.gen_range(procs_src + procs_dst), rng.gen_f64() * 0.01));
        FaultSpec { crash, ..spec }
    });

    Scenario {
        seed,
        coupled,
        recover: false,
        perturb_seed: None,
        procs_src,
        procs_dst,
        method: rng.gen_range(2) as u8,
        src: LibSpec {
            kind: src_kind,
            shape: src_shape,
            dist_seed: rng.next_u64(),
        },
        dst: LibSpec {
            kind: dst_kind,
            shape: dst_shape,
            dist_seed: rng.next_u64(),
        },
        src_set,
        dst_set,
        steps,
        fault,
        deadline: DEADLINE_SECS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_scenarios_are_structurally_valid() {
        for seed in 0..200u64 {
            let sc = generate(seed);
            assert!(sc.num_moves() >= 1, "seed {seed}: no moves");
            assert_eq!(
                sc.src_set.total(),
                sc.dst_set.total(),
                "seed {seed}: element totals differ"
            );
            assert!(sc.dst_set.total() >= 1);
            // Destination regions must be disjoint for the serial model.
            let mut seen = std::collections::BTreeSet::new();
            for p in 0..sc.dst_set.total() {
                let g = sc.dst_set.global_of(&sc.dst.shape, p);
                assert!(g < sc.dst.total_elems(), "seed {seed}: dst {g} oob");
                assert!(seen.insert(g), "seed {seed}: dst global {g} duplicated");
            }
            for p in 0..sc.src_set.total() {
                let g = sc.src_set.global_of(&sc.src.shape, p);
                assert!(g < sc.src.total_elems(), "seed {seed}: src {g} oob");
            }
            if sc.fault.is_some() {
                assert!(sc.coupled, "seed {seed}: fault in same-program run");
                assert!(
                    sc.steps.iter().all(|s| matches!(s, Step::Move)),
                    "seed {seed}: fault with bump steps"
                );
            }
            if let Some(f) = &sc.fault {
                assert!(f.entries() <= 2);
                if let Some((rank, _)) = f.crash {
                    assert!(rank < sc.total_procs());
                }
            }
            // Same seed, same scenario.
            assert_eq!(generate(seed), sc, "seed {seed}: not deterministic");
        }
    }

    #[test]
    fn recovery_scenarios_are_structurally_valid() {
        for seed in 0..100u64 {
            let sc = gen_recovery(seed);
            assert!(sc.recover && sc.coupled, "seed {seed}");
            assert!(
                sc.steps.iter().all(|s| matches!(s, Step::Move)),
                "seed {seed}: recovery scripts are move-only"
            );
            assert_eq!(sc.src_set.total(), sc.dst_set.total(), "seed {seed}");
            let f = sc.fault.as_ref().expect("recovery scenarios carry crashes");
            assert!(!f.crashes.is_empty(), "seed {seed}: no crash scripted");
            let mut victims = std::collections::BTreeSet::new();
            for &(rank, frac) in &f.crashes {
                assert!(rank < sc.total_procs(), "seed {seed}: crash rank oob");
                assert!((0.0..1.0).contains(&frac), "seed {seed}: frac oob");
                assert!(victims.insert(rank), "seed {seed}: duplicate victim");
            }
            assert_eq!(gen_recovery(seed), sc, "seed {seed}: not deterministic");
        }
    }

    #[test]
    fn forced_pairs_cover_matrix() {
        for src in LibKind::ALL {
            for dst in LibKind::ALL {
                let sc = generate_pair(99, src, dst);
                assert_eq!(sc.src.kind, src);
                assert_eq!(sc.dst.kind, dst);
            }
        }
    }
}
