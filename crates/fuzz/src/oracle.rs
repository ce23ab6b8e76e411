//! The three oracles.
//!
//! 1. **Schedule parity** — every schedule the inspector builds on a
//!    fault-free run must equal, rank by rank, what a communication-free
//!    serial walk of the two descriptors says it should be
//!    ([`serial_schedule`]).
//! 2. **Serial memory model** — after a clean run, the union of
//!    destination memory across ranks must cover every global exactly
//!    once and bit-match a straight-line serial copy; after a faulted
//!    run with a scripted crash, each surviving destination rank must be
//!    all-or-nothing (fully moved or bit-identical to its initial fill).
//! 3. **No hang** — every run terminates; a virtual-clock deadline trip
//!    (`DeadlineExceeded`) anywhere is a failure in itself.

use std::collections::BTreeMap;

use mcsim::group::Group;
use meta_chaos::schedule::{AddrRuns, PairRuns, Schedule};
use meta_chaos::setof::SetOfRegions;
use meta_chaos::McDescriptor;

use crate::exec::{dst_init, run_recovery, run_scenario, src_val, WorldRun};
use crate::scenario::Scenario;

/// A confirmed oracle violation, with enough context to debug it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Which run and oracle tripped (e.g. `"fault-free"`).
    pub phase: String,
    /// Human-readable description of the violation.
    pub detail: String,
    /// Flight-recorder tails from the failing world, one line per event.
    pub post_mortem: Vec<String>,
}

/// Flight-recorder tails plus the run's critical-path summary, so a
/// shrunk repro lands in `target/fuzz/` with its own bottleneck
/// analysis attached.
pub fn post_mortem(run: &WorldRun) -> Vec<String> {
    let mut out = Vec::new();
    for (rank, tail) in run.trace_tails.iter().enumerate() {
        for ev in tail {
            out.push(format!("rank {rank}: {ev}"));
        }
    }
    if let Some(cp) = &run.critical_path {
        out.push(cp.clone());
    }
    out
}

/// Expected destination memory after every scheduled element moved:
/// `global -> value bits`.
fn expected_moved(sc: &Scenario) -> BTreeMap<usize, u64> {
    let dst_total: usize = sc.dst.shape.iter().product();
    let mut m: BTreeMap<usize, u64> = (0..dst_total).map(|g| (g, dst_init(g).to_bits())).collect();
    for p in 0..sc.dst_set.total() {
        let dg = sc.dst_set.global_of(&sc.dst.shape, p);
        let sg = sc.src_set.global_of(&sc.src.shape, p);
        m.insert(dg, src_val(sg).to_bits());
    }
    m
}

/// Clean-run oracle: every rank returns, every step succeeds, stale
/// probes are rejected with `StaleSchedule`, and the union of
/// destination memory is exactly the serial-copy model.
fn check_clean(sc: &Scenario, run: &WorldRun, phase: &str) -> Option<Failure> {
    let fail = |detail: String| {
        Some(Failure {
            phase: phase.to_string(),
            detail,
            post_mortem: post_mortem(run),
        })
    };
    let mut union: BTreeMap<usize, (usize, u64)> = BTreeMap::new();
    for (rank, rep) in run.reports.iter().enumerate() {
        let rep = match rep {
            Ok(r) => r,
            Err(e) => return fail(format!("rank {rank} did not return cleanly: {e}")),
        };
        if let Some(e) = &rep.build_err {
            return fail(format!("rank {rank} schedule build failed: {e}"));
        }
        for (step, r) in &rep.outcomes {
            if let Err(e) = r {
                return fail(format!("rank {rank} step {step} failed: {e}"));
            }
        }
        for (probe, e) in rep.stale_probes.iter().enumerate() {
            match e {
                Some(msg) if msg.contains("StaleSchedule") => {}
                Some(msg) => {
                    return fail(format!(
                        "rank {rank} stale probe {probe}: wrong error {msg}"
                    ))
                }
                None => {
                    return fail(format!(
                        "rank {rank} stale probe {probe}: old schedule was accepted"
                    ))
                }
            }
        }
        for &(g, bits) in &rep.mem {
            if let Some((prev, _)) = union.insert(g, (rank, bits)) {
                return fail(format!(
                    "global {g} owned by both rank {prev} and rank {rank}"
                ));
            }
        }
    }
    let expect = expected_moved(sc);
    if union.len() != expect.len() {
        return fail(format!(
            "destination memory union covers {} globals, expected {}",
            union.len(),
            expect.len()
        ));
    }
    for (g, want) in &expect {
        let (rank, got) = union[g];
        if got != *want {
            return fail(format!(
                "global {g} (rank {rank}): got {}, expected {}",
                f64::from_bits(got),
                f64::from_bits(*want)
            ));
        }
    }
    None
}

/// One rank's share of a transfer, exactly as a [`Schedule`] exposes it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Motion {
    /// `(peer, addresses to pack)`, non-empty, ascending by peer.
    pub sends: Vec<(usize, AddrRuns)>,
    /// `(peer, addresses to fill)`, non-empty, ascending by peer.
    pub recvs: Vec<(usize, AddrRuns)>,
    /// Same-rank `(source, destination)` address pairs.
    pub local_pairs: PairRuns,
}

impl Motion {
    /// What `sched` moves on the rank that holds it.
    pub fn of(sched: &Schedule) -> Motion {
        Motion {
            sends: sched.sends.clone(),
            recvs: sched.recvs.clone(),
            local_pairs: sched.local_pairs.clone(),
        }
    }
}

/// The serial schedule oracle.  Each side's descriptor arrives as the wire
/// bytes a rank of its program produced; position `pos` of the transfer
/// moves from `sdesc.locate(sset, pos)` to `ddesc.locate(dset, pos)`, and
/// grouping those pairs by owner, in position order, *is* the schedule —
/// no runs, no coordinators, no communication.  Returns one [`Motion`] per
/// rank of `union`, indexed by union-local rank.
pub fn serial_schedule<SD: McDescriptor, DD: McDescriptor>(
    union: &Group,
    (sdesc, sset): (&[u8], &SetOfRegions<SD::Region>),
    (ddesc, dset): (&[u8], &SetOfRegions<DD::Region>),
) -> Vec<Motion> {
    let sdesc = SD::from_bytes(sdesc).expect("source descriptor decodes");
    let ddesc = DD::from_bytes(ddesc).expect("destination descriptor decodes");
    let p = union.size();
    let mut sends = vec![vec![AddrRuns::new(); p]; p];
    let mut recvs = sends.clone();
    let mut motions = vec![Motion::default(); p];
    assert_eq!(sset.total_len(), dset.total_len());
    for pos in 0..sset.total_len() {
        let (s, d) = (sdesc.locate(sset, pos), ddesc.locate(dset, pos));
        let sl = union.local_of(s.rank).expect("source owner in the union");
        let dl = union
            .local_of(d.rank)
            .expect("destination owner in the union");
        if sl == dl {
            motions[sl].local_pairs.push(s.addr, d.addr);
        } else {
            sends[sl][dl].push(s.addr);
            recvs[dl][sl].push(d.addr);
        }
    }
    let by_peer = |lists: Vec<AddrRuns>| -> Vec<(usize, AddrRuns)> {
        let peers = lists.into_iter().enumerate();
        peers.filter(|(_, a)| !a.is_empty()).collect()
    };
    for (m, (s, r)) in motions.iter_mut().zip(sends.into_iter().zip(recvs)) {
        m.sends = by_peer(s);
        m.recvs = by_peer(r);
    }
    motions
}

/// Schedule-parity oracle: every schedule every rank built must be the
/// serial oracle's, send for send, receive for receive, pair for pair.
fn check_parity(run: &WorldRun, phase: &str) -> Option<Failure> {
    for (rank, rep) in run.reports.iter().enumerate() {
        let Ok(rep) = rep else { continue };
        for (k, got) in rep.scheds.iter().enumerate() {
            let detail = match run.oracle.get(k) {
                Some(want) if *got == want[rank] => continue,
                Some(want) => format!(
                    "rank {rank} schedule {k} differs from the serial oracle:\n  \
                     built:  {got:?}\n  oracle: {:?}",
                    want[rank]
                ),
                None => format!("rank {rank} schedule {k}: no descriptors came back"),
            };
            return Some(Failure {
                phase: format!("parity, {phase}"),
                detail,
                post_mortem: post_mortem(run),
            });
        }
    }
    None
}

/// Returns true when any string anywhere in the run mentions the
/// virtual-clock deadline — the signature of a wedged run.
fn hit_deadline(run: &WorldRun) -> Option<String> {
    for (rank, rep) in run.reports.iter().enumerate() {
        match rep {
            Err(e) if e.contains("DeadlineExceeded") || e.contains("deadline") => {
                return Some(format!("rank {rank}: {e}"));
            }
            Ok(r) => {
                if let Some(e) = &r.build_err {
                    if e.contains("deadline") {
                        return Some(format!("rank {rank} build: {e}"));
                    }
                }
                for (step, o) in &r.outcomes {
                    if let Err(e) = o {
                        if e.contains("deadline") {
                            return Some(format!("rank {rank} step {step}: {e}"));
                        }
                    }
                }
            }
            Err(_) => {}
        }
    }
    None
}

/// Faulted-run oracle for scenarios with a scripted crash: nobody may
/// hit the deadline, and every surviving destination rank must hold
/// either the fully-moved memory or its pristine initial fill.
fn check_crashed(sc: &Scenario, run: &WorldRun) -> Option<Failure> {
    let fail = |detail: String| {
        Some(Failure {
            phase: "faulted (scripted crash)".to_string(),
            detail,
            post_mortem: post_mortem(run),
        })
    };
    if let Some(d) = hit_deadline(run) {
        return fail(format!("virtual-clock deadline hit: {d}"));
    }
    let expect = expected_moved(sc);
    for (rank, rep) in run.reports.iter().enumerate() {
        let Ok(rep) = rep else { continue }; // crashed or cascaded: no report
        if rep.mem.is_empty() {
            continue; // pure source rank
        }
        let any_ok = rep.outcomes.iter().any(|(_, r)| r.is_ok());
        for &(g, bits) in &rep.mem {
            let want = if any_ok {
                expect[&g]
            } else {
                dst_init(g).to_bits()
            };
            if bits != want {
                return fail(format!(
                    "rank {rank} not all-or-nothing (moves {}): global {g} got {}, expected {}",
                    if any_ok { "committed" } else { "aborted" },
                    f64::from_bits(bits),
                    f64::from_bits(want)
                ));
            }
        }
    }
    None
}

/// Recovery oracle: a fault-free supervised baseline must satisfy the
/// serial memory model; the crashed run — with crash fractions resolved
/// against the baseline's per-rank transfer windows — must then satisfy
/// the *same* model bit-for-bit.  Crash + restart + resumed session must
/// be indistinguishable from never having crashed; duplicate commits
/// would double-apply and diverge, lost halves would leave initial fill.
fn check_recovered(sc: &Scenario) -> Option<Failure> {
    let baseline = run_recovery(sc, &[]);
    let phase = "recovery baseline (supervised, fault-free)";
    if let Some(f) = check_clean(sc, &baseline, phase).or_else(|| check_parity(&baseline, phase)) {
        return Some(f);
    }
    if baseline.recovered != 0 {
        return Some(Failure {
            phase: "recovery baseline (supervised, fault-free)".to_string(),
            detail: format!(
                "{} spurious recoveries without any scripted crash",
                baseline.recovered
            ),
            post_mortem: post_mortem(&baseline),
        });
    }
    let fracs = sc.fault.as_ref().map(|f| &f.crashes[..]).unwrap_or(&[]);
    let times: Vec<(usize, f64)> = fracs
        .iter()
        .filter_map(|&(rank, frac)| {
            let (lo, hi) = baseline.windows.get(rank).copied().flatten()?;
            Some((rank, lo + frac * (hi - lo)))
        })
        .collect();
    if times.is_empty() {
        return None;
    }
    let crashed = run_recovery(sc, &times);
    check_clean(sc, &crashed, "recovery (crashed, supervised)")
}

/// Run every applicable oracle against `sc`.  `None` means the scenario
/// passed; `Some` carries the first violation found.
pub fn check(sc: &Scenario) -> Option<Failure> {
    if sc.recover {
        return check_recovered(sc);
    }
    let clean = run_scenario(sc, false);
    let phase = "fault-free";
    if let Some(f) = check_clean(sc, &clean, phase).or_else(|| check_parity(&clean, phase)) {
        return Some(f);
    }
    if let Some(fault) = &sc.fault {
        let faulted = run_scenario(sc, true);
        if fault.crash.is_some() {
            if let Some(f) = check_crashed(sc, &faulted) {
                return Some(f);
            }
        } else {
            // Lossy-but-crash-free links: the reliable transport must
            // fully mask them, so the clean oracle applies unchanged.
            if let Some(f) = check_clean(sc, &faulted, "faulted (no crash)") {
                return Some(f);
            }
        }
    }
    None
}
