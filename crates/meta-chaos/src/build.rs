//! Schedule construction (paper §4.1.3 and §5.1).
//!
//! Two strategies, both producing byte-identical data motion:
//!
//! * [`BuildMethod::Cooperation`] — each side dereferences only the
//!   elements it owns; ownership is matched through position-block
//!   coordinators; the destination side assembles the schedule and returns
//!   each source rank its send half.  One dereference per side, several
//!   small all-to-all exchanges.
//! * [`BuildMethod::Duplication`] — the sides exchange *data descriptors*
//!   (distribution metadata) and every rank redundantly dereferences the
//!   entire transfer locally.  No matching communication at all — but two
//!   full dereference sweeps, and for Chaos the descriptor is the whole
//!   translation table.  This reproduces the paper's observation that
//!   duplication costs ≈2× cooperation when a Chaos array is involved
//!   (Table 2) yet is the cheapest method for regular–regular transfers in
//!   one program (Table 5, where it needs no communication at all).
//!
//! The same entry point serves single-program transfers (every rank passes
//! both sides) and two-program transfers (each rank passes its own side and
//! `None` for the other).
//!
//! Both strategies are **run-based**: libraries describe what they own as
//! `(pos_start, len, addr_start, stride)` runs
//! ([`McObject::deref_owned_runs`]), runs stay on the wire through every
//! phase (split only at [`PosBlocks`] coordinator boundaries), coordinators
//! match ownership by interval intersection over two sorted run lists, and
//! the resulting [`AddrRuns`] are emitted straight into the [`Schedule`] —
//! per-element pair vectors are never materialized, so regular–regular
//! construction is O(regions) instead of O(elements).  Irregular
//! (Chaos-style) sets degrade to length-1 runs and do per-element work.

use mcsim::group::{Comm, Group};
use mcsim::prelude::Endpoint;
use mcsim::span::Phase;
use mcsim::wire::Wire;

use crate::adapter::{LocateCursor, McDescriptor, McObject, Side};
use crate::error::McError;
use crate::linear::PosBlocks;
use crate::runs::{runs_total, OwnedRun};
use crate::schedule::{AddrRuns, PairRuns, Schedule};
use crate::setof::SetOfRegions;

/// How to build the schedule (paper §5.1 "cooperation" vs "duplication").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildMethod {
    /// Match ownership through coordinators; one dereference per side.
    Cooperation,
    /// Exchange descriptors; every rank dereferences everything locally.
    Duplication,
}

/// Scratch key of the per-rank schedule sequence counter.  All ranks of a
/// union build schedules in the same SPMD order, so the root's counter
/// value, broadcast at the end of each build, is a consistent unique id.
const SCHED_SEQ_KEY: u32 = 0x4d43_5351; // "MCSQ"

/// Tags used inside schedule building, in the union group's context.
mod tag {
    pub const DESC_SRC: u32 = 1001;
    pub const DESC_DST: u32 = 1002;
}

/// Compute a communication schedule for copying the source SetOfRegions
/// into the destination SetOfRegions (the paper's `MC_ComputeSched`).
///
/// Collective over `union` (which must contain every rank of both program
/// groups).  Ranks belonging to `src_prog` must pass `Some` for `src`;
/// ranks of `dst_prog` must pass `Some` for `dst`; single-program callers
/// pass both.
///
/// Returns [`McError::LengthMismatch`] (consistently on every rank) when
/// the two linearizations disagree in length — the paper's "only
/// constraint" on a transfer.
pub fn compute_schedule<T, S, D>(
    ep: &mut Endpoint,
    union: &Group,
    src_prog: &Group,
    src: Option<Side<'_, T, S>>,
    dst_prog: &Group,
    dst: Option<Side<'_, T, D>>,
    method: BuildMethod,
) -> Result<Schedule, McError>
where
    T: Copy,
    S: McObject<T>,
    D: McObject<T>,
{
    // The whole inspector pass is one `inspect` span: provenance (build
    // strategy, group sizes) goes in the detail, and the resulting
    // schedule's identity is recorded as a mark so a trace ties every
    // later `transfer` span back to how its schedule was built.
    let span = ep.span_begin(Phase::Inspect, || {
        format!(
            "method={method:?} union={} src_prog={} dst_prog={}",
            union.size(),
            src_prog.size(),
            dst_prog.size()
        )
    });
    let r = compute_schedule_inner(ep, union, src_prog, src, dst_prog, dst, method);
    if let Ok(s) = &r {
        ep.mark(|| {
            format!(
                "schedule built seq={} sends={} recvs={} local={} elems={} elem_tag={}",
                s.seq(),
                s.sends.len(),
                s.recvs.len(),
                s.local_pairs.len(),
                s.total_elems,
                s.elem_tag()
            )
        });
    }
    ep.span_end(span);
    r
}

#[allow(clippy::too_many_arguments)]
fn compute_schedule_inner<T, S, D>(
    ep: &mut Endpoint,
    union: &Group,
    src_prog: &Group,
    src: Option<Side<'_, T, S>>,
    dst_prog: &Group,
    dst: Option<Side<'_, T, D>>,
    method: BuildMethod,
) -> Result<Schedule, McError>
where
    T: Copy,
    S: McObject<T>,
    D: McObject<T>,
{
    let me = ep.rank();
    let me_ul = union
        .local_of(me)
        .unwrap_or_else(|| panic!("rank {me} not in the union group"));
    debug_assert!(
        src_prog.members().iter().all(|&r| union.contains(r))
            && dst_prog.members().iter().all(|&r| union.contains(r)),
        "program groups must be subsets of the union group"
    );
    let in_src = src_prog.contains(me);
    let in_dst = dst_prog.contains(me);
    assert_eq!(
        in_src,
        src.is_some(),
        "rank {me}: src side must be Some exactly on source-program ranks"
    );
    assert_eq!(
        in_dst,
        dst.is_some(),
        "rank {me}: dst side must be Some exactly on destination-program ranks"
    );
    assert!(
        in_src || in_dst,
        "rank {me} is in the union but in neither program"
    );

    let src_root_ul = union
        .local_of(src_prog.global(0))
        .expect("src root in union");
    let dst_root_ul = union
        .local_of(dst_prog.global(0))
        .expect("dst root in union");

    // Agree on the transfer length — and, piggybacked on the same two
    // broadcasts, the distribution epoch of each side's object, so the
    // schedule can record which distributions it was built against.
    let ((n_src, src_epoch), (n_dst, dst_epoch)) = {
        let mut ucomm = Comm::borrowed(ep, union);
        let src_info: (usize, u64) = ucomm.bcast_t(
            src_root_ul,
            if me_ul == src_root_ul {
                let s = src.as_ref().expect("root has src");
                Some((s.set.total_len(), s.obj.epoch()))
            } else {
                None
            },
        );
        let dst_info: (usize, u64) = ucomm.bcast_t(
            dst_root_ul,
            if me_ul == dst_root_ul {
                let d = dst.as_ref().expect("root has dst");
                Some((d.set.total_len(), d.obj.epoch()))
            } else {
                None
            },
        );
        (src_info, dst_info)
    };
    if n_src != n_dst {
        return Err(McError::LengthMismatch {
            src: n_src,
            dst: n_dst,
        });
    }
    let n = n_src;

    let (sends, recvs, local_pairs) = match method {
        BuildMethod::Cooperation => {
            build_cooperation_runs(ep, union, me_ul, src_prog, src, dst_prog, dst, n)?
        }
        BuildMethod::Duplication if src_prog.members() == dst_prog.members() => {
            let s = src.as_ref().expect("one-program rank has src");
            let d = dst.as_ref().expect("one-program rank has dst");
            build_duplication_one_program_runs(ep, union, me_ul, src_prog, s, dst_prog, d)
        }
        BuildMethod::Duplication => build_duplication_two_programs_runs(
            ep,
            union,
            me_ul,
            src_prog,
            src,
            src_root_ul,
            dst_prog,
            dst,
            dst_root_ul,
            n,
        ),
    };

    // Assign a consistent sequence number for message-stream separation.
    let seq = {
        let mut ucomm = Comm::borrowed(ep, union);
        let mine = if me_ul == 0 {
            Some(ucomm.ep().next_seq(SCHED_SEQ_KEY))
        } else {
            None
        };
        ucomm.bcast_t(0, mine)
    };

    let (elem_tag, elem_size) = crate::schedule::elem_type::<T>();
    let sched = Schedule::from_runs(union.clone(), seq, sends, recvs, local_pairs, n);
    Ok(sched.with_integrity(src_epoch, dst_epoch, elem_tag, elem_size))
}

/// What a builder hands back: per-peer send and receive address runs
/// (keyed by every union rank, empty ones included) and the local pairs.
type BuiltRunParts = (Vec<(usize, AddrRuns)>, Vec<(usize, AddrRuns)>, PairRuns);

/// Charge the virtual clock for inspector wire bytes the run encoding did
/// *not* put on the real wire but the modeled per-element protocol would
/// have: `sent_missing` bytes of send copy + wire serialization, and
/// `recv_missing` bytes of receive-side copy.  Keeps the simulated machine
/// running the paper's per-element inspector while the host ships compact
/// run records.
fn charge_wire_equiv(ep: &mut Endpoint, sent_missing: usize, recv_missing: usize) {
    let m = *ep.model();
    ep.charge(
        sent_missing as f64 * (m.byte_copy_cost + m.byte_wire_cost)
            + recv_missing as f64 * m.byte_copy_cost,
    );
}

/// Append a position interval to a per-peer request list, merging with the
/// last interval when contiguous.
fn push_interval(list: &mut Vec<(u32, u32)>, pos: u32, len: u32) {
    if let Some(last) = list.last_mut() {
        if last.0 + last.1 == pos {
            last.1 += len;
            return;
        }
    }
    list.push((pos, len));
}

/// `global rank → union-local rank`, inverted once per build: the
/// duplication builders resolve one owner per located run, and
/// [`Group::local_of`] is a linear scan of the member list.
struct UnionLocals(Vec<usize>);

impl UnionLocals {
    const NONE: usize = usize::MAX;

    fn new(union: &Group) -> Self {
        let size = union.members().iter().max().map_or(0, |&m| m + 1);
        let mut table = vec![Self::NONE; size];
        for (ul, &g) in union.members().iter().enumerate() {
            table[g] = ul;
        }
        UnionLocals(table)
    }

    /// Union-local rank of global rank `rank`; `side` names the owner in
    /// the panic when a descriptor points outside the union.
    #[inline]
    fn of(&self, rank: usize, side: &str) -> usize {
        match self.0.get(rank) {
            Some(&ul) if ul != Self::NONE => ul,
            _ => panic!("{side} owner outside union"),
        }
    }
}

/// Cooperation build: four communication rounds, every record on the wire
/// an interval:
///
/// * **A/B** — each side announces its owned runs as `(pos, len)` pieces,
///   split only at coordinator block boundaries;
/// * **coordinator** — both sides' pieces are sorted by position; overlap
///   in the sorted sweep is a duplicate announcement, and ownership is
///   matched by two-pointer interval intersection;
/// * **C** — `(pos, len, src_rank)` triples are routed to each destination
///   owner;
/// * **D** — sources answer merged `(pos, len)` request intervals with a
///   run merge-join against their own sorted runs (one binary search per
///   interval, not per element).
///
/// Addresses are emitted straight into [`AddrRuns`], so no per-element
/// vector exists at any point.
///
/// **Cost model.**  The *virtual* clock models the paper's per-element
/// inspector — that is what Tables 2 and 5 measured — so each
/// phase charges the element-equivalent copy/insert cost (derived from run
/// lengths in O(runs) host work), and [`charge_wire_equiv`] accounts for
/// the wire bytes a per-element announcement would have carried beyond
/// what the run records actually do.  Length-1 runs (Chaos) make the run
/// records *larger* than the element records; that small excess rides on
/// the real messages and stays second-order next to the dereference
/// charges that dominate the irregular tables.  Only the host-side work is
/// O(runs).
#[allow(clippy::too_many_arguments)]
fn build_cooperation_runs<T, S, D>(
    ep: &mut Endpoint,
    union: &Group,
    me_ul: usize,
    src_prog: &Group,
    src: Option<Side<'_, T, S>>,
    dst_prog: &Group,
    dst: Option<Side<'_, T, D>>,
    n: usize,
) -> Result<BuiltRunParts, McError>
where
    T: Copy,
    S: McObject<T>,
    D: McObject<T>,
{
    let p = union.size();

    // Each side dereferences its own elements, run-compressed (collective
    // per program).
    let sown: Vec<OwnedRun> = match &src {
        Some(s) => {
            let mut pcomm = Comm::borrowed(ep, src_prog);
            s.obj.deref_owned_runs(&mut pcomm, s.set)
        }
        None => Vec::new(),
    };
    let down: Vec<OwnedRun> = match &dst {
        Some(d) => {
            let mut pcomm = Comm::borrowed(ep, dst_prog);
            d.obj.deref_owned_runs(&mut pcomm, d.set)
        }
        None => Vec::new(),
    };
    debug_assert!(
        sown.windows(2).all(|w| w[0].end() <= w[1].pos),
        "sown runs sorted and disjoint"
    );
    debug_assert!(
        down.windows(2).all(|w| w[0].end() <= w[1].pos),
        "down runs sorted and disjoint"
    );
    let d_mine = runs_total(&down);

    let mut ucomm = Comm::borrowed(ep, union);

    // Library contract check: each side accounted for every position once.
    let s_total: usize = ucomm.allreduce_sum(runs_total(&sown));
    let d_total: usize = ucomm.allreduce_sum(d_mine);
    assert_eq!(s_total, n, "source library dereferenced {s_total} of {n}");
    assert_eq!(
        d_total, n,
        "destination library dereferenced {d_total} of {n}"
    );

    let pb = PosBlocks::new(n, p);
    let my_block = pb.range(me_ul);

    let pos32 = |pos: usize| -> u32 {
        debug_assert!(
            pos < u32::MAX as usize,
            "transfer too large for wire format"
        );
        pos as u32
    };

    // Phases A & B: each side announces its owned runs to the
    // position-block coordinators as (pos, len) pieces.  The virtual cost
    // is the element announcement's: 4 bytes copied per owned element,
    // plus the wire volume a u32-per-position message would have had.
    let announce = |ucomm: &mut Comm<'_>, owned: &[OwnedRun]| {
        let mut send: Vec<Vec<(u32, u32)>> = (0..p).map(|_| Vec::new()).collect();
        let mut elems_to = vec![0usize; p];
        for r in owned {
            for (part, start, len) in pb.split_run(r.pos, r.len) {
                send[part].push((pos32(start), len as u32));
                elems_to[part] += len;
            }
        }
        let elems: usize = elems_to.iter().sum();
        let missing: usize = send
            .iter()
            .zip(&elems_to)
            .map(|(s, &e)| (4 * e).saturating_sub(8 * s.len()))
            .sum();
        ucomm.ep().charge_copy_bytes(4 * elems);
        charge_wire_equiv(ucomm.ep(), missing, 0);
        ucomm.alltoallv_t(send)
    };
    let src_at_coord = announce(&mut ucomm, &sown);
    let dst_at_coord = announce(&mut ucomm, &down);

    // Coordinator: collect one side's announced intervals sorted by
    // position.  With sorted intervals, any start below the running
    // coverage end is a double announcement (dup_flag keeps the max
    // duplicated position + 1).
    let collect = |at_coord: Vec<Vec<(u32, u32)>>,
                   dup_flag: &mut usize|
     -> (Vec<(u32, u32, u32)>, usize, usize) {
        let mut list: Vec<(u32, u32, u32)> =
            Vec::with_capacity(at_coord.iter().map(Vec::len).sum());
        let mut elems = 0usize;
        let mut recv_missing = 0usize;
        for (from, pieces) in at_coord.into_iter().enumerate() {
            let records = pieces.len();
            let mut e = 0usize;
            for (pos, len) in pieces {
                list.push((pos, len, from as u32));
                e += len as usize;
            }
            elems += e;
            recv_missing += (4 * e).saturating_sub(8 * records);
        }
        // Each sender's pieces arrive ascending, so the list is P sorted
        // runs end to end: the stable sort detects and merges them, where
        // `sort_unstable` would start from scratch.  Records equal in all
        // three fields are interchangeable, so the order is the same.
        list.sort();
        let mut cover_end = 0usize;
        for &(pos, len, _) in &list {
            let (pos, end) = (pos as usize, pos as usize + len as usize);
            if pos < cover_end {
                *dup_flag = (*dup_flag).max(end.min(cover_end));
            }
            cover_end = cover_end.max(end);
        }
        (list, elems, recv_missing)
    };
    let mut dup_flag: usize = 0;
    let (src_list, ra, miss_a) = collect(src_at_coord, &mut dup_flag);
    let (dst_list, rb, miss_b) = collect(dst_at_coord, &mut dup_flag);
    ucomm.ep().charge_copy_bytes(4 * (ra + rb));
    charge_wire_equiv(ucomm.ep(), 0, miss_a + miss_b);
    let dup = ucomm.allreduce_max_usize(dup_flag);
    if dup != 0 {
        return Err(McError::DuplicateDestination { pos: dup - 1 });
    }
    // No duplicates + totals == n ⇒ each sorted list tiles my block.
    let covers = |list: &[(u32, u32, u32)]| -> bool {
        let mut next = my_block.start;
        for &(pos, len, _) in list {
            if pos as usize != next {
                return false;
            }
            next += len as usize;
        }
        next == my_block.end
    };
    debug_assert!(covers(&src_list), "positions uncovered");
    debug_assert!(covers(&dst_list), "positions uncovered");

    // Phase C: interval intersection of the two tilings; each overlap
    // becomes one (pos, len, src_rank) triple routed to the destination
    // owner, in position order.
    let mut to_dst: Vec<Vec<(u32, u32, u32)>> = (0..p).map(|_| Vec::new()).collect();
    let mut elems_to = vec![0usize; p];
    {
        let (mut si, mut di) = (0usize, 0usize);
        while si < src_list.len() && di < dst_list.len() {
            let (sp, sl, sfrom) = src_list[si];
            let (dp, dl, dfrom) = dst_list[di];
            let (s_end, d_end) = (sp as usize + sl as usize, dp as usize + dl as usize);
            let lo = (sp as usize).max(dp as usize);
            let hi = s_end.min(d_end);
            debug_assert!(lo < hi, "coordinator interval lists out of step");
            to_dst[dfrom as usize].push((pos32(lo), (hi - lo) as u32, sfrom));
            elems_to[dfrom as usize] += hi - lo;
            if s_end == hi {
                si += 1;
            }
            if d_end == hi {
                di += 1;
            }
        }
        debug_assert!(si == src_list.len() && di == dst_list.len());
    }
    // Element equivalent: an 8-byte (pos, src) record per block position.
    let missing_c: usize = to_dst
        .iter()
        .zip(&elems_to)
        .map(|(t, &e)| (8 * e).saturating_sub(12 * t.len()))
        .sum();
    ucomm.ep().charge_copy_bytes(8 * my_block.len());
    charge_wire_equiv(ucomm.ep(), missing_c, 0);
    let from_coord = ucomm.alltoallv_t(to_dst);

    // Coordinators cover disjoint ascending position blocks, so simple
    // concatenation in coordinator order is sorted by position.
    let mut pairs: Vec<(u32, u32, u32)> = Vec::new();
    let mut miss_recv_c = 0usize;
    for list in from_coord {
        let e: usize = list.iter().map(|&(_, l, _)| l as usize).sum();
        miss_recv_c += (8 * e).saturating_sub(12 * list.len());
        pairs.extend(list);
    }
    charge_wire_equiv(ucomm.ep(), 0, miss_recv_c);
    debug_assert!(pairs
        .windows(2)
        .all(|w| w[0].0 as usize + w[0].1 as usize <= w[1].0 as usize));
    let routed: usize = pairs.iter().map(|&(_, l, _)| l as usize).sum();
    assert_eq!(
        routed, d_mine,
        "coordinator routing lost or duplicated positions"
    );

    // Destination assembles its receive half by merge-joining the routed
    // segments against its own (sorted) runs, and batches per-source
    // request intervals (merged when contiguous) for phase D.
    let mut recvs: Vec<AddrRuns> = (0..p).map(|_| AddrRuns::new()).collect();
    let mut reqs: Vec<Vec<(u32, u32)>> = (0..p).map(|_| Vec::new()).collect();
    let mut req_elems = vec![0usize; p];
    {
        let mut ri = 0usize; // monotone cursor: segments ascend in position
        for &(pos, len, s_ul) in &pairs {
            let s_ul = s_ul as usize;
            push_interval(&mut reqs[s_ul], pos, len);
            req_elems[s_ul] += len as usize;
            let mut pos = pos as usize;
            let mut rem = len as usize;
            while rem > 0 {
                while down[ri].end() <= pos {
                    ri += 1;
                }
                let r = &down[ri];
                debug_assert!(r.pos <= pos, "destination ownership out of sync");
                let take = rem.min(r.end() - pos);
                r.emit_addrs(pos - r.pos, take, &mut recvs[s_ul]);
                pos += take;
                rem -= take;
            }
        }
    }
    // Assembling the complete schedule on the destination side is the
    // structure-building step that makes cooperation the most expensive
    // method for regular-regular transfers (Table 5) — charged per element.
    ucomm.ep().charge_schedule_insert(d_mine);

    // Phase D: sources receive ordered request intervals and translate
    // them to address runs by merge-join against their own sorted runs —
    // one binary search per interval, then a linear walk.  Virtual cost:
    // a u32 request per element on the wire, 12 bytes of translation copy
    // per requested element.
    let missing_d: usize = reqs
        .iter()
        .zip(&req_elems)
        .map(|(r, &e)| (4 * e).saturating_sub(8 * r.len()))
        .sum();
    charge_wire_equiv(ucomm.ep(), missing_d, 0);
    let req_in = ucomm.alltoallv_t(reqs);
    let mut sends: Vec<AddrRuns> = (0..p).map(|_| AddrRuns::new()).collect();
    for (d, intervals) in req_in.into_iter().enumerate() {
        let e: usize = intervals.iter().map(|&(_, l)| l as usize).sum();
        ucomm.ep().charge_copy_bytes(12 * e);
        charge_wire_equiv(ucomm.ep(), 0, (4 * e).saturating_sub(8 * intervals.len()));
        for (pos, len) in intervals {
            let mut pos = pos as usize;
            let mut rem = len as usize;
            let mut ri = sown.partition_point(|r| r.end() <= pos);
            while rem > 0 {
                let r = sown
                    .get(ri)
                    .unwrap_or_else(|| panic!("requested position {pos} not owned here"));
                assert!(r.pos <= pos, "requested position {pos} not owned here");
                let take = rem.min(r.end() - pos);
                r.emit_addrs(pos - r.pos, take, &mut sends[d]);
                pos += take;
                rem -= take;
                if rem > 0 {
                    ri += 1;
                }
            }
        }
    }

    Ok(finish_run_parts(me_ul, sends, recvs))
}

/// Duplication within one program (paper §5.1): the sides first exchange
/// *data descriptors* — for Chaos that replicates the translation table, a
/// cost independent of the processor count — and then both "sides" (the
/// same ranks) compute their halves of the schedule *independently*: each
/// pass walks one array's owned runs and locates the matching positions
/// through the other's descriptor, advancing by whole
/// [`McDescriptor::locate_run`] answers — closed-form interval arithmetic
/// for regular descriptors, length-1 steps otherwise.  The locate
/// machinery therefore runs twice ("must call the Chaos dereference
/// function twice") and is charged per element, while for regular–regular
/// transfers everything is closed-form and **no communication happens at
/// all** (§5.3, Table 5).
#[allow(clippy::too_many_arguments)]
fn build_duplication_one_program_runs<T, S, D>(
    ep: &mut Endpoint,
    union: &Group,
    me_ul: usize,
    src_prog: &Group,
    src: &Side<'_, T, S>,
    dst_prog: &Group,
    dst: &Side<'_, T, D>,
) -> BuiltRunParts
where
    T: Copy,
    S: McObject<T>,
    D: McObject<T>,
{
    let p = union.size();
    let me_global = ep.rank();

    // Descriptor exchange.  Within one program every rank can construct
    // both descriptors directly; Chaos charges its table replication here.
    let sd: S::Descriptor = {
        let mut pcomm = Comm::borrowed(ep, src_prog);
        src.obj.descriptor(&mut pcomm)
    };
    let dd: D::Descriptor = {
        let mut pcomm = Comm::borrowed(ep, dst_prog);
        dst.obj.descriptor(&mut pcomm)
    };

    // Pass 1 — act as the source side: walk my owned runs, locate their
    // destinations run-by-run, emit my send half in position order.
    let sown: Vec<OwnedRun> = {
        let mut pcomm = Comm::borrowed(ep, src_prog);
        src.obj.deref_owned_runs(&mut pcomm, src.set)
    };
    let locals = UnionLocals::new(union);
    let mut sends: Vec<AddrRuns> = (0..p).map(|_| AddrRuns::new()).collect();
    let mut s_elems = 0usize;
    let mut dcur = LocateCursor::new(&dd, dst.set);
    for r in &sown {
        s_elems += r.len;
        let mut k = 0usize;
        while k < r.len {
            let lr = dcur.locate_run(r.pos + k, r.len - k);
            debug_assert!(lr.pos == r.pos + k && lr.len >= 1 && lr.len <= r.len - k);
            let dl = locals.of(lr.rank, "destination");
            r.emit_addrs(k, lr.len, &mut sends[dl]);
            k += lr.len;
        }
    }
    dd.charge_locates(ep, s_elems);
    ep.charge_copy_bytes(8 * s_elems);

    // Pass 2 — act as the destination side: walk my destination runs,
    // locate their sources, emit my receive half.
    let down: Vec<OwnedRun> = {
        let mut pcomm = Comm::borrowed(ep, dst_prog);
        dst.obj.deref_owned_runs(&mut pcomm, dst.set)
    };
    let mut recvs: Vec<AddrRuns> = (0..p).map(|_| AddrRuns::new()).collect();
    let mut d_elems = 0usize;
    let mut scur = LocateCursor::new(&sd, src.set);
    for r in &down {
        d_elems += r.len;
        let mut k = 0usize;
        while k < r.len {
            let lr = scur.locate_run(r.pos + k, r.len - k);
            debug_assert!(lr.pos == r.pos + k && lr.len >= 1 && lr.len <= r.len - k);
            let sl = locals.of(lr.rank, "source");
            r.emit_addrs(k, lr.len, &mut recvs[sl]);
            k += lr.len;
        }
    }
    sd.charge_locates(ep, d_elems);
    ep.charge_copy_bytes(8 * d_elems);

    // Consistency: pass 1's view of my self-pairs must match pass 2's.
    debug_assert_eq!(
        sends[me_ul].len(),
        recvs[me_ul].len(),
        "rank {me_global}: independent passes disagree on local pairs"
    );

    finish_run_parts(me_ul, sends, recvs)
}

/// Duplication across two programs: descriptors (distribution metadata)
/// are shipped between the programs, then every rank redundantly resolves
/// both full linearizations as run lists ([`McDescriptor::locate_runs`])
/// and the schedule halves fall out of one two-pointer interval
/// intersection, charged as 2·n dereferences.  For Chaos the descriptor is
/// the entire translation table — "very expensive", which is why the
/// paper's two-program experiments use cooperation.
#[allow(clippy::too_many_arguments)]
fn build_duplication_two_programs_runs<T, S, D>(
    ep: &mut Endpoint,
    union: &Group,
    me_ul: usize,
    src_prog: &Group,
    src: Option<Side<'_, T, S>>,
    src_root_ul: usize,
    dst_prog: &Group,
    dst: Option<Side<'_, T, D>>,
    dst_root_ul: usize,
    n: usize,
) -> BuiltRunParts
where
    T: Copy,
    S: McObject<T>,
    D: McObject<T>,
{
    let p = union.size();

    // Side-local descriptor construction (collective per program; Chaos
    // charges its table gather here).
    let src_pack: Option<(S::Descriptor, SetOfRegions<S::Region>)> = src.map(|s| {
        let mut pcomm = Comm::borrowed(ep, src_prog);
        let d = s.obj.descriptor(&mut pcomm);
        (d, s.set.clone())
    });
    let dst_pack: Option<(D::Descriptor, SetOfRegions<D::Region>)> = dst.map(|d| {
        let mut pcomm = Comm::borrowed(ep, dst_prog);
        let desc = d.obj.descriptor(&mut pcomm);
        (desc, d.set.clone())
    });
    // Each side's root ships (descriptor, regions) to the ranks that lack
    // them.
    let (sd, sset) = share_pack(ep, union, me_ul, src_prog, src_root_ul, src_pack, true);
    let (dd, dset) = share_pack(ep, union, me_ul, dst_prog, dst_root_ul, dst_pack, false);

    // Redundant full dereference of both linearizations, as run lists.
    let src_locs = sd.locate_runs(&sset, 0, n);
    let dst_locs = dd.locate_runs(&dset, 0, n);
    ep.charge_deref(2 * n);
    debug_assert_eq!(src_locs.last().map_or(0, |r| r.end()), n);
    debug_assert_eq!(dst_locs.last().map_or(0, |r| r.end()), n);

    let me_global = ep.rank();
    let locals = UnionLocals::new(union);
    let mut sends: Vec<AddrRuns> = (0..p).map(|_| AddrRuns::new()).collect();
    let mut recvs: Vec<AddrRuns> = (0..p).map(|_| AddrRuns::new()).collect();
    let mut kept = 0usize;
    let (mut si, mut di) = (0usize, 0usize);
    while si < src_locs.len() && di < dst_locs.len() {
        let s = &src_locs[si];
        let d = &dst_locs[di];
        let lo = s.pos.max(d.pos);
        let hi = s.end().min(d.end());
        debug_assert!(lo < hi, "descriptor run lists out of step");
        let len = hi - lo;
        if s.rank == me_global {
            let dl = locals.of(d.rank, "destination");
            s.emit_addrs(lo - s.pos, len, &mut sends[dl]);
            kept += len;
        }
        if d.rank == me_global {
            let sl = locals.of(s.rank, "source");
            d.emit_addrs(lo - d.pos, len, &mut recvs[sl]);
            kept += len;
        }
        if s.end() == hi {
            si += 1;
        }
        if d.end() == hi {
            di += 1;
        }
    }
    ep.charge_schedule_insert(kept);

    finish_run_parts(me_ul, sends, recvs)
}

/// Ship `(descriptor, regions)` from the owning side to union ranks outside
/// the owning program.  Every rank returns the full pair.
fn share_pack<Desc: McDescriptor>(
    ep: &mut Endpoint,
    union: &Group,
    me_ul: usize,
    prog: &Group,
    root_ul: usize,
    pack: Option<(Desc, SetOfRegions<Desc::Region>)>,
    is_src: bool,
) -> (Desc, SetOfRegions<Desc::Region>) {
    let t = if is_src { tag::DESC_SRC } else { tag::DESC_DST };
    let outsiders: Vec<usize> = (0..union.size())
        .filter(|&ul| !prog.contains(union.global(ul)))
        .collect();
    match pack {
        Some((d, s)) => {
            if me_ul == root_ul && !outsiders.is_empty() {
                let bytes = (d.to_bytes(), s.to_bytes());
                let mut ucomm = Comm::borrowed(ep, union);
                for ul in outsiders {
                    ucomm.send_t(ul, t, &bytes);
                }
            }
            (d, s)
        }
        None => {
            let mut ucomm = Comm::borrowed(ep, union);
            let (db, sb): (Vec<u8>, Vec<u8>) = ucomm.recv_t(root_ul, t);
            let d = Desc::from_bytes(&db).expect("descriptor decode");
            let s = SetOfRegions::<Desc::Region>::from_bytes(&sb).expect("regions decode");
            (d, s)
        }
    }
}

/// Pull the self entry out into local pairs (zipping the two compressed
/// address lists) and attach peer ids.
fn finish_run_parts(
    me_ul: usize,
    mut sends: Vec<AddrRuns>,
    mut recvs: Vec<AddrRuns>,
) -> BuiltRunParts {
    let self_send = std::mem::take(&mut sends[me_ul]);
    let self_recv = std::mem::take(&mut recvs[me_ul]);
    assert_eq!(
        self_send.len(),
        self_recv.len(),
        "self send/recv halves must pair up"
    );
    let local_pairs = PairRuns::from_zip(&self_send, &self_recv);
    (
        sends.into_iter().enumerate().collect(),
        recvs.into_iter().enumerate().collect(),
        local_pairs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datamove::{data_move, data_move_recv, data_move_send};
    use crate::region::IndexSet;
    use crate::testlib::{BlockVec, BlockVecDesc};
    use mcsim::model::MachineModel;
    use mcsim::world::World;

    fn sched_one_program(
        p: usize,
        n: usize,
        src_idx: Vec<usize>,
        dst_idx: Vec<usize>,
        method: BuildMethod,
    ) -> mcsim::world::RunOutput<(Schedule, Vec<f64>)> {
        let world = World::with_model(p, MachineModel::zero());
        world.run(move |ep| {
            let g = Group::world(ep.world_size());
            let src = BlockVec::create(&g, ep.rank(), n, |i| i as f64);
            let mut dst = BlockVec::create(&g, ep.rank(), n, |_| -1.0);
            let sset = SetOfRegions::single(IndexSet::new(src_idx.clone()));
            let dset = SetOfRegions::single(IndexSet::new(dst_idx.clone()));
            let sched = compute_schedule(
                ep,
                &g,
                &g,
                Some(Side::new(&src, &sset)),
                &g,
                Some(Side::new(&dst, &dset)),
                method,
            )
            .expect("schedule");
            data_move(ep, &sched, &src, &mut dst);
            (sched, dst.data.clone())
        })
    }

    /// Reference semantics: dst[dst_idx[k]] = src[src_idx[k]].
    fn reference(n: usize, src_idx: &[usize], dst_idx: &[usize]) -> Vec<f64> {
        let mut v: Vec<f64> = vec![-1.0; n];
        for (s, d) in src_idx.iter().zip(dst_idx) {
            v[*d] = *s as f64;
        }
        v
    }

    fn gather_global(p: usize, n: usize, pieces: &[Vec<f64>]) -> Vec<f64> {
        // BlockVec uses block distribution: concatenation in rank order.
        let mut out = Vec::with_capacity(n);
        for piece in pieces.iter().take(p) {
            out.extend_from_slice(piece);
        }
        out.truncate(n);
        out
    }

    #[test]
    fn one_program_copy_both_methods() {
        let n = 40;
        let src_idx: Vec<usize> = (0..20).map(|i| 2 * i).collect(); // evens
        let dst_idx: Vec<usize> = (0..20).rev().collect(); // reversed prefix
        for method in [BuildMethod::Cooperation, BuildMethod::Duplication] {
            for p in [1, 2, 3, 4] {
                let out = sched_one_program(p, n, src_idx.clone(), dst_idx.clone(), method);
                let pieces: Vec<Vec<f64>> = out.results.iter().map(|(_, d)| d.clone()).collect();
                let got = gather_global(p, n, &pieces);
                assert_eq!(
                    got,
                    reference(n, &src_idx, &dst_idx),
                    "method {method:?} p {p}"
                );
            }
        }
    }

    #[test]
    fn cooperation_and_duplication_build_identical_motion() {
        let n = 30;
        let src_idx: Vec<usize> = vec![5, 1, 29, 14, 7, 22];
        let dst_idx: Vec<usize> = vec![0, 2, 4, 6, 8, 10];
        for p in [2, 3, 5] {
            let a = sched_one_program(
                p,
                n,
                src_idx.clone(),
                dst_idx.clone(),
                BuildMethod::Cooperation,
            );
            let b = sched_one_program(
                p,
                n,
                src_idx.clone(),
                dst_idx.clone(),
                BuildMethod::Duplication,
            );
            for r in 0..p {
                let (sa, _) = &a.results[r];
                let (sb, _) = &b.results[r];
                assert_eq!(sa.sends, sb.sends, "rank {r} sends");
                assert_eq!(sa.recvs, sb.recvs, "rank {r} recvs");
                assert_eq!(sa.local_pairs, sb.local_pairs, "rank {r} locals");
            }
        }
    }

    #[test]
    fn length_mismatch_is_reported_on_every_rank() {
        let world = World::with_model(3, MachineModel::zero());
        let out = world.run(|ep| {
            let g = Group::world(ep.world_size());
            let src = BlockVec::create(&g, ep.rank(), 10, |i| i as f64);
            let dst = BlockVec::create(&g, ep.rank(), 10, |_| 0.0);
            let sset = SetOfRegions::single(IndexSet::new(vec![0, 1, 2]));
            let dset = SetOfRegions::single(IndexSet::new(vec![0, 1]));
            compute_schedule(
                ep,
                &g,
                &g,
                Some(Side::new(&src, &sset)),
                &g,
                Some(Side::new(&dst, &dset)),
                BuildMethod::Cooperation,
            )
        });
        for r in out.results {
            assert_eq!(r.unwrap_err(), McError::LengthMismatch { src: 3, dst: 2 });
        }
    }

    #[test]
    fn two_program_transfer() {
        // Ranks 0..2 run the source program, ranks 2..5 the destination.
        let n = 24;
        let world = World::with_model(5, MachineModel::zero());
        let out = world.run(move |ep| {
            let (pa, pb, un) = Group::split_two(2, 3, 100);
            let in_src = pa.contains(ep.rank());
            let sset = SetOfRegions::single(IndexSet::new((0..12).collect()));
            let dset = SetOfRegions::single(IndexSet::new((12..24).collect()));
            if in_src {
                let src = BlockVec::create(&pa, ep.rank(), n, |i| 100.0 + i as f64);
                let sched = compute_schedule::<f64, BlockVec, BlockVec>(
                    ep,
                    &un,
                    &pa,
                    Some(Side::new(&src, &sset)),
                    &pb,
                    None,
                    BuildMethod::Cooperation,
                )
                .unwrap();
                data_move_send(ep, &sched, &src).unwrap();
                Vec::new()
            } else {
                let mut dst = BlockVec::create(&pb, ep.rank(), n, |_| -1.0);
                let sched = compute_schedule::<f64, BlockVec, BlockVec>(
                    ep,
                    &un,
                    &pa,
                    None,
                    &pb,
                    Some(Side::new(&dst, &dset)),
                    BuildMethod::Cooperation,
                )
                .unwrap();
                data_move_recv(ep, &sched, &mut dst).unwrap();
                dst.data.clone()
            }
        });
        // Destination program (ranks 2..5) holds a 24-element block vector;
        // positions 12..24 must now be 100..112 in linearization order.
        let dst_global = gather_global(3, n, &out.results[2..]);
        for g in 0..12 {
            assert_eq!(dst_global[g], -1.0);
        }
        for (k, g) in (12..24).enumerate() {
            assert_eq!(dst_global[g], 100.0 + k as f64);
        }
    }

    #[test]
    fn two_program_duplication_matches_cooperation() {
        let n = 16;
        for method in [BuildMethod::Cooperation, BuildMethod::Duplication] {
            let world = World::with_model(4, MachineModel::zero());
            let out = world.run(move |ep| {
                let (pa, pb, un) = Group::split_two(2, 2, 100);
                let sset = SetOfRegions::single(IndexSet::new(vec![3, 9, 12, 1]));
                let dset = SetOfRegions::single(IndexSet::new(vec![15, 0, 7, 8]));
                if pa.contains(ep.rank()) {
                    let src = BlockVec::create(&pa, ep.rank(), n, |i| i as f64 * 10.0);
                    let sched = compute_schedule::<f64, BlockVec, BlockVec>(
                        ep,
                        &un,
                        &pa,
                        Some(Side::new(&src, &sset)),
                        &pb,
                        None,
                        method,
                    )
                    .unwrap();
                    data_move_send(ep, &sched, &src).unwrap();
                    Vec::new()
                } else {
                    let mut dst = BlockVec::create(&pb, ep.rank(), n, |_| f64::NAN);
                    let sched = compute_schedule::<f64, BlockVec, BlockVec>(
                        ep,
                        &un,
                        &pa,
                        None,
                        &pb,
                        Some(Side::new(&dst, &dset)),
                        method,
                    )
                    .unwrap();
                    data_move_recv(ep, &sched, &mut dst).unwrap();
                    dst.data.clone()
                }
            });
            let dst_global = gather_global(2, n, &out.results[2..]);
            // dst[15]=src[3], dst[0]=src[9], dst[7]=src[12], dst[8]=src[1]
            assert_eq!(dst_global[15], 30.0, "{method:?}");
            assert_eq!(dst_global[0], 90.0, "{method:?}");
            assert_eq!(dst_global[7], 120.0, "{method:?}");
            assert_eq!(dst_global[8], 10.0, "{method:?}");
        }
    }

    #[test]
    fn schedule_reuse_and_reversal() {
        let n = 12;
        let world = World::with_model(3, MachineModel::zero());
        let out = world.run(move |ep| {
            let g = Group::world(ep.world_size());
            let mut a = BlockVec::create(&g, ep.rank(), n, |i| i as f64);
            let mut b = BlockVec::create(&g, ep.rank(), n, |_| 0.0);
            let aset = SetOfRegions::single(IndexSet::new((0..6).collect()));
            let bset = SetOfRegions::single(IndexSet::new((6..12).collect()));
            let sched = compute_schedule(
                ep,
                &g,
                &g,
                Some(Side::new(&a, &aset)),
                &g,
                Some(Side::new(&b, &bset)),
                BuildMethod::Cooperation,
            )
            .unwrap();
            // Forward twice (reuse), then backward via the reversed schedule.
            data_move(ep, &sched, &a, &mut b);
            data_move(ep, &sched, &a, &mut b);
            // Modify b, then pull it back into a.
            for v in b.data.iter_mut() {
                *v += 0.5;
            }
            let rev = sched.reversed();
            data_move(ep, &rev, &b, &mut a);
            (a.data.clone(), b.data.clone())
        });
        let a: Vec<f64> = out.results.iter().flat_map(|(x, _)| x.clone()).collect();
        // a[0..6] came back from b[6..12] = original a[0..6] + 0.5.
        for g in 0..6 {
            assert_eq!(a[g], g as f64 + 0.5);
        }
        for g in 6..12 {
            assert_eq!(a[g], g as f64);
        }
    }

    #[test]
    fn message_count_matches_hand_coded() {
        // 4 ranks, block vectors of 16: copy global 0..8 (owned by union
        // ranks 0,1) into 8..16 (owned by ranks 2,3).  Hand-coded message
        // passing needs exactly one message per (source-owner,
        // dest-owner) pair with data: (0->2), (1->3) — block size 4 aligns
        // 0..4 -> 8..12 (rank0 -> rank2) and 4..8 -> 12..16 (rank1 -> rank3).
        let n = 16;
        let world = World::with_model(4, MachineModel::zero());
        let out = world.run(move |ep| {
            let g = Group::world(ep.world_size());
            let src = BlockVec::create(&g, ep.rank(), n, |i| i as f64);
            let mut dst = BlockVec::create(&g, ep.rank(), n, |_| 0.0);
            let sset = SetOfRegions::single(IndexSet::new((0..8).collect()));
            let dset = SetOfRegions::single(IndexSet::new((8..16).collect()));
            let sched = compute_schedule(
                ep,
                &g,
                &g,
                Some(Side::new(&src, &sset)),
                &g,
                Some(Side::new(&dst, &dset)),
                BuildMethod::Duplication,
            )
            .unwrap();
            let before = ep.stats_snapshot();
            data_move(ep, &sched, &src, &mut dst);
            let delta = ep.stats_snapshot().since(&before);
            (sched.msgs_out(), delta.total_msgs(), delta.total_bytes())
        });
        let per_rank: Vec<_> = out.results;
        assert_eq!(per_rank[0].0, 1);
        assert_eq!(per_rank[1].0, 1);
        assert_eq!(per_rank[2].0, 0);
        assert_eq!(per_rank[3].0, 0);
        // Exactly one real message each from ranks 0 and 1; payload is
        // 4 elements * 8 bytes + the Vec length header.
        assert_eq!(per_rank[0].1, 1);
        assert_eq!(per_rank[1].1, 1);
        assert_eq!(per_rank[0].2, 4 * 8 + 8);
    }

    #[test]
    fn empty_transfer() {
        let out = sched_one_program(2, 10, vec![], vec![], BuildMethod::Cooperation);
        for (sched, data) in out.results {
            assert_eq!(sched.total_elems, 0);
            assert_eq!(sched.msgs_out() + sched.msgs_in() + sched.elems_local(), 0);
            assert!(data.iter().all(|&v| v == -1.0));
        }
    }

    #[test]
    fn duplicate_destination_detected() {
        let world = World::with_model(2, MachineModel::zero());
        let out = world.run(|ep| {
            let g = Group::world(ep.world_size());
            let src = BlockVec::create(&g, ep.rank(), 10, |i| i as f64);
            let dst = BlockVec::create(&g, ep.rank(), 10, |_| 0.0);
            let sset = SetOfRegions::single(IndexSet::new(vec![0, 1]));
            // Destination lists the same position's element twice -> the
            // same (pos) routed twice is NOT what happens (positions are
            // distinct); instead, a library bug is simulated by a dest set
            // whose deref covers a position twice.  With IndexSet the
            // visible symptom is two positions with one owner each, which
            // is legal; so here we check the legal-but-odd case succeeds
            // deterministically (last writer wins).
            let dset = SetOfRegions::single(IndexSet::new(vec![5, 5]));
            let mut dstm = dst;
            let sched = compute_schedule(
                ep,
                &g,
                &g,
                Some(Side::new(&src, &sset)),
                &g,
                Some(Side::new(&dstm, &dset)),
                BuildMethod::Cooperation,
            )
            .unwrap();
            data_move(ep, &sched, &src, &mut dstm);
            dstm.data.clone()
        });
        let all: Vec<f64> = out.results.into_iter().flatten().collect();
        // Position order: dst element 5 receives src[0] then src[1].
        assert_eq!(all[5], 1.0);
    }

    /// One rank's share of a transfer: `(sends, recvs, local_pairs)`.
    type Motion = (Vec<(usize, AddrRuns)>, Vec<(usize, AddrRuns)>, PairRuns);

    /// Serial oracle: pair the two descriptors' answers position by
    /// position and group them by union rank, in position order.
    fn oracle(
        un: &Group,
        (sd, sset): (&BlockVecDesc, &SetOfRegions<IndexSet>),
        (dd, dset): (&BlockVecDesc, &SetOfRegions<IndexSet>),
    ) -> Vec<Motion> {
        let p = un.size();
        let mut sends = vec![vec![AddrRuns::new(); p]; p];
        let mut recvs = sends.clone();
        let mut locals = vec![PairRuns::new(); p];
        for pos in 0..sset.total_len() {
            let (s, d) = (sd.locate(sset, pos), dd.locate(dset, pos));
            let sl = un.local_of(s.rank).expect("source owner in union");
            let dl = un.local_of(d.rank).expect("destination owner in union");
            if sl == dl {
                locals[sl].push(s.addr, d.addr);
            } else {
                sends[sl][dl].push(s.addr);
                recvs[dl][sl].push(d.addr);
            }
        }
        let by_peer = |lists: Vec<AddrRuns>| -> Vec<(usize, AddrRuns)> {
            let peers = lists.into_iter().enumerate();
            peers.filter(|(_, a)| !a.is_empty()).collect()
        };
        let halves = sends.into_iter().zip(recvs).zip(locals);
        halves
            .map(|((s, r), l)| (by_peer(s), by_peer(r), l))
            .collect()
    }

    fn desc(prog: &Group, n: usize) -> BlockVecDesc {
        BlockVecDesc {
            n,
            members: prog.members().to_vec(),
        }
    }

    fn assert_motion(sched: &Schedule, want: &Motion, ctx: &str) {
        assert_eq!(sched.sends, want.0, "{ctx} sends");
        assert_eq!(sched.recvs, want.1, "{ctx} recvs");
        assert_eq!(sched.local_pairs, want.2, "{ctx} local pairs");
    }

    #[test]
    fn run_based_builders_match_reference_byte_for_byte() {
        // Index sets mix contiguous stretches (long runs), strided picks,
        // and a reversed range (negative address stride).
        let n = 37;
        let cases: Vec<(Vec<usize>, Vec<usize>)> = vec![
            ((0..20).collect(), (17..37).collect()),
            ((0..14).map(|i| 2 * i).collect(), (0..14).rev().collect()),
            (vec![5, 1, 29, 14, 7, 22], vec![0, 2, 4, 6, 8, 10]),
        ];
        for (src_idx, dst_idx) in cases {
            let sset = SetOfRegions::single(IndexSet::new(src_idx.clone()));
            let dset = SetOfRegions::single(IndexSet::new(dst_idx.clone()));
            for p in [1, 2, 3, 5] {
                let g = Group::world(p);
                let want = oracle(&g, (&desc(&g, n), &sset), (&desc(&g, n), &dset));
                for method in [BuildMethod::Cooperation, BuildMethod::Duplication] {
                    let got = sched_one_program(p, n, src_idx.clone(), dst_idx.clone(), method);
                    for (r, (sched, _)) in got.results.iter().enumerate() {
                        assert_motion(sched, &want[r], &format!("{method:?} p {p} rank {r}"));
                    }
                }
            }
        }
    }

    #[test]
    fn run_based_two_program_duplication_matches_reference() {
        let n = 16;
        let (pa, pb, un) = Group::split_two(2, 2, 100);
        let sset = SetOfRegions::single(IndexSet::new(vec![3, 9, 12, 1]));
        let dset = SetOfRegions::single(IndexSet::new(vec![15, 0, 7, 8]));
        let want = oracle(&un, (&desc(&pa, n), &sset), (&desc(&pb, n), &dset));
        let world = World::with_model(4, MachineModel::zero());
        let got = world.run(move |ep| {
            let (src, dst) = if pa.contains(ep.rank()) {
                (
                    Some(BlockVec::create(&pa, ep.rank(), n, |i| i as f64)),
                    None,
                )
            } else {
                (None, Some(BlockVec::create(&pb, ep.rank(), n, |_| 0.0)))
            };
            compute_schedule::<f64, BlockVec, BlockVec>(
                ep,
                &un,
                &pa,
                src.as_ref().map(|s| Side::new(s, &sset)),
                &pb,
                dst.as_ref().map(|d| Side::new(d, &dset)),
                BuildMethod::Duplication,
            )
            .unwrap()
        });
        for (r, sched) in got.results.iter().enumerate() {
            assert_motion(sched, &want[r], &format!("rank {r}"));
        }
    }

    /// A buggy library whose ranks disagree about ownership: rank 1
    /// re-announces position 0 in place of its first owned position, so the
    /// per-rank lists stay sorted (passing the local contract checks) but
    /// position 0 is claimed by two ranks while another goes unclaimed.
    struct DoubleAnnounce(BlockVec);

    impl McObject<f64> for DoubleAnnounce {
        type Region = IndexSet;
        type Descriptor = BlockVecDesc;

        fn deref_owned_runs(
            &self,
            comm: &mut Comm<'_>,
            set: &SetOfRegions<IndexSet>,
        ) -> Vec<OwnedRun> {
            let mut out = self.0.deref_owned_runs(comm, set);
            if comm.rank() == 1 && !out.is_empty() && out[0].pos > 0 {
                let first = out[0];
                out[0] = OwnedRun {
                    pos: 0,
                    len: 1,
                    ..first
                };
                if first.len > 1 {
                    let rest = OwnedRun {
                        pos: first.pos + 1,
                        len: first.len - 1,
                        addr: first.addr_at(1),
                        ..first
                    };
                    out.insert(1, rest);
                }
            }
            out
        }

        fn descriptor(&self, comm: &mut Comm<'_>) -> BlockVecDesc {
            self.0.descriptor(comm)
        }

        fn local(&self) -> &[f64] {
            self.0.local()
        }

        fn local_mut(&mut self) -> &mut [f64] {
            self.0.local_mut()
        }
    }

    #[test]
    fn duplicate_announcement_detected() {
        // Destination positions 0..3 live on rank 0, 3..6 on rank 1; the
        // faulty destination makes rank 1 claim position 0 as well.  The
        // coordinators' overlap sweep must report the duplicated position
        // on every rank.
        let world = World::with_model(2, MachineModel::zero());
        let out = world.run(move |ep| {
            let g = Group::world(ep.world_size());
            let src = BlockVec::create(&g, ep.rank(), 12, |i| i as f64);
            let dst = DoubleAnnounce(BlockVec::create(&g, ep.rank(), 12, |_| 0.0));
            let sset = SetOfRegions::single(IndexSet::new((0..6).collect()));
            let dset = SetOfRegions::single(IndexSet::new(vec![0, 1, 2, 6, 7, 8]));
            compute_schedule(
                ep,
                &g,
                &g,
                Some(Side::new(&src, &sset)),
                &g,
                Some(Side::new(&dst, &dset)),
                BuildMethod::Cooperation,
            )
        });
        for r in out.results {
            assert_eq!(r.unwrap_err(), McError::DuplicateDestination { pos: 0 });
        }
    }
}
