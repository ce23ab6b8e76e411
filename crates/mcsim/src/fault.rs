//! Deterministic fault injection for the simulated network.
//!
//! A [`FaultPlan`] attached to a [`crate::world::World`] makes the machine
//! imperfect: messages on selected tag classes are dropped, duplicated,
//! bit-flipped, or extra-delayed at the plan's rates, and ranks can be
//! scripted to crash at a virtual time.  Everything is a pure function of
//! the plan's seed:
//!
//! * The fate of a message is drawn from a small PRNG seeded by
//!   `(plan seed, src, dst, tag, per-link message counter)` — never from a
//!   shared sequential stream — so the same program under the same seed
//!   sees the same faults whatever order ranks reach their sends in.
//! * A *dropped* message is still physically delivered as a
//!   [`crate::message::Body::Dropped`] tombstone carrying only its
//!   envelope.  Loss is therefore an observable event at the receiver,
//!   which lets the reliable layer model timeout-driven retransmission on
//!   the virtual clock without any real timers (see [`crate::reliable`]).
//!
//! By default only the reliable-transport tag classes
//! ([`Tag::CLASS_RELIABLE_DATA`], [`Tag::CLASS_RELIABLE_CTRL`]) are
//! faulted; library-internal traffic (collectives, control), raw tags,
//! and the one-sided control class ([`Tag::CLASS_ONESIDED_CTRL`], pure
//! control plane with no retry protocol of its own) are untouched unless
//! the mask says otherwise.  Control frames are never bit-flipped (they
//! are a few bytes against multi-megabyte payloads; see `DESIGN.md` for
//! the rationale).

use std::collections::HashMap;

use crate::message::Rank;
use crate::rng::Rng;
use crate::tag::Tag;

/// Fault probabilities, applied to every faulted message. All rates are in
/// `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Probability a message copy is destroyed in flight.
    pub drop: f64,
    /// Probability a message is duplicated (a second, independently
    /// faulted copy is sent).
    pub dup: f64,
    /// Probability a surviving data frame has one uniformly chosen bit
    /// flipped.  Never applied to control-class frames.
    pub corrupt: f64,
    /// Probability a message copy is delayed by [`FaultRates::delay_secs`]
    /// of extra virtual wire time.
    pub delay: f64,
    /// Extra virtual latency added to delayed copies, in seconds.
    pub delay_secs: f64,
}

impl FaultRates {
    /// True when every rate is zero (the plan injects nothing).
    pub fn is_quiet(&self) -> bool {
        self.drop == 0.0 && self.dup == 0.0 && self.corrupt == 0.0 && self.delay == 0.0
    }
}

/// The seeds the deterministic robustness suites run under: either the
/// single seed in `MC_FAULT_SEED`, or the committed default set.  Shared
/// by tests/fault_matrix.rs, tests/robustness.rs, and the fuzz driver so
/// "re-run under seed N" means the same thing everywhere.
pub fn test_seeds() -> Vec<u64> {
    match std::env::var("MC_FAULT_SEED") {
        Ok(s) => vec![s.parse().expect("MC_FAULT_SEED must be a u64")],
        Err(_) => vec![11, 42, 20260805],
    }
}

/// The first seed from [`test_seeds`] — for suites that derive their own
/// per-case streams from one base seed.
pub fn test_seed() -> u64 {
    test_seeds()[0]
}

/// A deterministic script of network faults and rank crashes.
///
/// Build one with [`FaultPlan::new`] and the chained setters, then attach
/// it via [`crate::world::World::with_faults`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rates: FaultRates,
    class_mask: u32,
    crashes: Vec<(Rank, f64)>,
}

impl FaultPlan {
    /// An empty plan (no faults, no crashes) with the given seed, faulting
    /// the reliable-transport classes when rates are added.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rates: FaultRates::default(),
            class_mask: (1 << Tag::CLASS_RELIABLE_DATA) | (1 << Tag::CLASS_RELIABLE_CTRL),
            crashes: Vec::new(),
        }
    }

    /// Set the rates applied to every faulted message.
    pub fn rates(mut self, rates: FaultRates) -> Self {
        self.rates = rates;
        self
    }

    /// Replace the faulted tag-class mask (bit `c` set ⇒ user-context tags
    /// of class `c` are faulted).  The default faults only the reliable
    /// transport's classes.
    pub fn classes(mut self, mask: u32) -> Self {
        self.class_mask = mask;
        self
    }

    /// Script `rank` to crash (panic, poisoning its peers) at the first
    /// communication operation at or after virtual time `at`.
    pub fn crash(mut self, rank: Rank, at: f64) -> Self {
        self.crashes.push((rank, at));
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scripted crash time for `rank`, if any (earliest wins).
    pub fn crash_time(&self, rank: Rank) -> Option<f64> {
        self.crashes
            .iter()
            .filter(|(r, _)| *r == rank)
            .map(|(_, t)| *t)
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.min(t))))
    }

    /// Whether messages on `tag` are subject to this plan at all.
    pub fn applies_to(&self, tag: Tag) -> bool {
        tag.ctx() >= Tag::FIRST_USER_CTX && (self.class_mask >> tag.class()) & 1 == 1
    }
}

/// The fate of one physical copy of a message.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CopyFate {
    pub(crate) drop: bool,
    pub(crate) corrupt_bit: Option<usize>,
    pub(crate) extra_delay: f64,
}

/// The injector's decision for one logical send: one copy, or two when the
/// duplication fault fired.
#[derive(Debug, Clone)]
pub(crate) struct FaultDraw {
    pub(crate) copies: Vec<CopyFate>,
}

/// Per-endpoint injection state: the plan plus the per-link message
/// counters that key the deterministic fate draws, and the crash script.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Messages sent so far per `(dst, tag)` — the draw key.
    link_seq: HashMap<(Rank, u64), u64>,
    /// Pending scripted crash time (cleared once fired).
    crash_at: Option<f64>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, rank: Rank) -> Self {
        let crash_at = plan.crash_time(rank);
        FaultState {
            plan,
            link_seq: HashMap::new(),
            crash_at,
        }
    }

    /// Returns the scripted crash time the first time `clock` reaches it.
    pub(crate) fn crash_due(&mut self, clock: f64) -> Option<f64> {
        match self.crash_at {
            Some(t) if clock >= t => {
                self.crash_at = None;
                Some(t)
            }
            _ => None,
        }
    }

    /// Decide the fate of a message about to be sent.  `None` means the
    /// message is untouched (unfaulted class, quiet link, or clean draw).
    pub(crate) fn draw(&mut self, src: Rank, dst: Rank, tag: Tag, len: usize) -> Option<FaultDraw> {
        if !self.plan.applies_to(tag) {
            return None;
        }
        let rates = self.plan.rates;
        if rates.is_quiet() {
            return None;
        }
        let n = {
            let c = self.link_seq.entry((dst, tag.0)).or_insert(0);
            let v = *c;
            *c += 1;
            v
        };
        // Fates are a pure function of (seed, src, dst, tag, n): thread
        // interleaving cannot perturb them.
        let mut rng = Rng::seed_from_u64(
            self.plan
                .seed
                .wrapping_add((src as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add((dst as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
                .wrapping_add(tag.0.wrapping_mul(0x1656_67B1_9E37_79F9))
                .wrapping_add(n.wrapping_mul(0xD6E8_FEB8_6659_FD93)),
        );
        let copies = 1 + usize::from(rng.gen_f64() < rates.dup);
        let mut fates = Vec::with_capacity(copies);
        for _ in 0..copies {
            let drop = rng.gen_f64() < rates.drop;
            let corruptible = !drop
                && tag.class() != Tag::CLASS_RELIABLE_CTRL
                && tag.class() != Tag::CLASS_ONESIDED_CTRL
                && len > 0;
            let corrupt = corruptible && rng.gen_f64() < rates.corrupt;
            let corrupt_bit = if corrupt {
                Some(rng.gen_range(len * 8))
            } else {
                None
            };
            let delayed = rng.gen_f64() < rates.delay;
            fates.push(CopyFate {
                drop,
                corrupt_bit,
                extra_delay: if delayed { rates.delay_secs } else { 0.0 },
            });
        }
        let clean = copies == 1
            && !fates[0].drop
            && fates[0].corrupt_bit.is_none()
            && fates[0].extra_delay == 0.0;
        if clean {
            None
        } else {
            Some(FaultDraw { copies: fates })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_tag() -> Tag {
        Tag::new(20, (Tag::CLASS_RELIABLE_DATA << 28) | 7)
    }

    #[test]
    fn default_mask_spares_raw_and_library_traffic() {
        let p = FaultPlan::new(1).rates(FaultRates {
            drop: 1.0,
            ..FaultRates::default()
        });
        assert!(p.applies_to(data_tag()));
        assert!(!p.applies_to(Tag::user(5)));
        assert!(!p.applies_to(Tag::new(Tag::COLL_CTX, 0x5000_0000)));
        assert!(!p.applies_to(Tag::new(20, 0x4000_0001))); // raw data-move
    }

    #[test]
    fn draws_are_deterministic_and_order_free() {
        let plan = FaultPlan::new(42).rates(FaultRates {
            drop: 0.3,
            dup: 0.3,
            corrupt: 0.3,
            delay: 0.3,
            delay_secs: 1e-3,
        });
        let draw_seq = |order: &[(Rank, u64)]| {
            let mut st = FaultState::new(plan.clone(), 0);
            let mut out = Vec::new();
            for &(dst, _) in order {
                let d = st.draw(0, dst, data_tag(), 64);
                out.push((
                    dst,
                    d.as_ref().map(|d| {
                        d.copies
                            .iter()
                            .map(|c| (c.drop, c.corrupt_bit, c.extra_delay > 0.0))
                            .collect::<Vec<_>>()
                    }),
                ));
            }
            out
        };
        // Same per-link sequences regardless of interleaving across links.
        let a = draw_seq(&[(1, 0), (1, 1), (2, 0), (2, 1)]);
        let b = draw_seq(&[(1, 0), (2, 0), (1, 1), (2, 1)]);
        type Fates = Option<Vec<(bool, Option<usize>, bool)>>;
        let per_link = |v: &[(Rank, Fates)], d: Rank| {
            v.iter()
                .filter(|(dst, _)| *dst == d)
                .map(|(_, f)| f.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(per_link(&a, 1), per_link(&b, 1));
        assert_eq!(per_link(&a, 2), per_link(&b, 2));
    }

    #[test]
    fn crash_script_fires_once() {
        let p = FaultPlan::new(0).crash(2, 1e-3).crash(2, 5e-3);
        assert_eq!(p.crash_time(2), Some(1e-3));
        assert_eq!(p.crash_time(0), None);
        let mut st = FaultState::new(p, 2);
        assert_eq!(st.crash_due(0.5e-3), None);
        assert_eq!(st.crash_due(2e-3), Some(1e-3));
        assert_eq!(st.crash_due(9e-3), None);
    }
}
