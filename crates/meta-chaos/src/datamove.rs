//! Executing a schedule (paper §4.1.4).
//!
//! The source packs its elements, in linearization order, into one
//! contiguous buffer per destination rank and sends exactly one message per
//! pair; the destination unpacks each buffer into the addresses its half of
//! the schedule lists.  Same-rank pairs are copied directly with no
//! intermediate buffer.
//!
//! The executor rides the schedule's run-length compression end to end:
//! packing and unpacking go through [`McObject::pack_runs_wire`] /
//! [`McObject::unpack_runs_wire`] (one slice copy per run between library
//! storage and the wire buffer), the wire codec bulk-encodes scalar
//! payloads, the communicator binds the schedule's group by reference once
//! per half instead of cloning it per peer, and wire buffers come from the
//! endpoint's reuse pool — so a steady-state `data_move` loop does no
//! per-element codec work and no fresh heap allocation.
//!
//! [`data_move`] serves single-program transfers; across two programs the
//! source program calls [`data_move_send`] and the destination calls
//! [`data_move_recv`] (the paper's `MC_DataMoveSend` / `MC_DataMoveRecv`).
//! Copying in the opposite direction needs no new schedule: pass
//! [`Schedule::reversed`] and swap the roles.
//!
//! ## Raw vs. reliable vs. transactional
//!
//! Same-program [`data_move`] runs **raw**: the schedule-parity guarantee
//! (§4.1.4 — exactly the hand-coded number and sizes of messages) holds
//! bit-for-bit.  Its fallible twin [`try_data_move`] additionally rejects
//! schedules whose objects have been redistributed since the build
//! ([`McError::StaleSchedule`]); since every rank of a single program sees
//! the same epochs, the rejection is symmetric by construction.
//!
//! The cross-program halves run over the **reliable** transport
//! (`mcsim::reliable`) and add a **session layer** on top, making every
//! coupled transfer a transaction:
//!
//! 1. **Manifest exchange** — each pair swaps a compact description of the
//!    transfer it is about to perform (schedule seq, total and per-pair
//!    element counts, element type tag and size).  Disagreement aborts both
//!    sides with [`McError::ScheduleMismatch`] before any data moves.
//! 2. **Verdict round** — each side tells every peer whether it is
//!    proceeding; an abort anywhere (mismatch, stale schedule, failed
//!    third peer) fans out, so no rank is left waiting for data that will
//!    never come.
//! 3. **Staged delivery** — the receive side collects *every* peer's data
//!    half and verifies headers and payload sizes before unpacking
//!    anything.  A peer crash or timeout mid-transfer leaves the
//!    destination bit-identical; a retried transfer is idempotent because
//!    replayed halves from an earlier attempt carry an older transfer
//!    epoch and are discarded.
//!
//! [`data_move_send_unverified`] / [`data_move_recv_unverified`] keep the
//! bare reliable halves (no manifests, streaming unpack) alive as the
//! ablation baseline the session-layer overhead is measured against.

use std::collections::HashMap;

use mcsim::group::Comm;
use mcsim::prelude::Endpoint;
use mcsim::reliable::{self, StreamTag};
use mcsim::span::Phase;
use mcsim::wire::{Wire, WireReader};

use crate::adapter::McObject;
use crate::error::McError;
use crate::obs;
use crate::schedule::{AddrRuns, Schedule};

/// User-tag bit layout for data-move traffic: schedule seq in the high
/// bits, leaving the low bits to keep streams of distinct schedules apart.
fn move_tag(seq: u32) -> u32 {
    0x4000_0000 | seq
}

/// The manifest/verdict control stream: one per context, *shared by every
/// schedule* in that context so that two sides which disagree about the
/// schedule (different seq → different data streams) still pair up for the
/// exchange that detects the disagreement.
const MANIFEST_STREAM: u32 = 0x0FFF_FFFF;

/// Frame discriminators on the control stream.
const K_MANIFEST: u8 = 1;
const K_VERDICT: u8 = 2;

/// Verdict codes.
const V_OK: u8 = 0;
const V_ABORT_MISMATCH: u8 = 1;
const V_ABORT_STALE: u8 = 2;
const V_ABORT_PEER: u8 = 3;

/// Scratch key of the per-rank transfer-epoch counters, keyed by
/// `(context << 32) | seq`.  The sender bumps the counter once per
/// transfer attempt and announces it in the manifest; the receiver
/// discards data halves carrying an older epoch (replays of an aborted
/// attempt), which is what makes a retried transfer idempotent.
const XFER_EPOCH_KEY: u32 = 0x5845_504f; // "XEPO"

/// Next transfer epoch for this schedule's data stream (starts at 1; 0 is
/// the receiver-side placeholder meaning "not a data sender").
pub(crate) fn next_xfer_epoch(ep: &mut Endpoint, sched: &Schedule) -> u64 {
    let key = ((sched.group().context() as u64) << 32) | sched.seq() as u64;
    let m: &mut HashMap<u64, u64> = ep.scratch(XFER_EPOCH_KEY);
    let e = m.entry(key).or_insert(0);
    *e += 1;
    *e
}

/// Move data for a schedule where this rank participates on both sides
/// (single-program transfer).  Reusable any number of times.
///
/// Panics if the schedule is stale (an object was redistributed after the
/// build); use [`try_data_move`] to observe that as a value.
pub fn data_move<T, S, D>(ep: &mut Endpoint, sched: &Schedule, src: &S, dst: &mut D)
where
    T: Copy + Wire,
    S: McObject<T>,
    D: McObject<T>,
{
    try_data_move(ep, sched, src, dst).unwrap_or_else(|e| panic!("data_move failed: {e}"));
}

/// Fallible single-program transfer: rejects a schedule built against an
/// older distribution of either object with [`McError::StaleSchedule`]
/// (before any communication — every rank of the program sees the same
/// epochs, so the rejection is symmetric), then runs the raw executor.
pub fn try_data_move<T, S, D>(
    ep: &mut Endpoint,
    sched: &Schedule,
    src: &S,
    dst: &mut D,
) -> Result<(), McError>
where
    T: Copy + Wire,
    S: McObject<T>,
    D: McObject<T>,
{
    let span = ep.span_begin(Phase::Transfer, || {
        format!(
            "mode=raw seq={} elems={} elem_size={}",
            sched.seq(),
            sched.total_elems,
            sched.elem_size()
        )
    });
    let r = try_data_move_inner(ep, sched, src, dst);
    if let Err(e) = &r {
        obs::record_abort(ep, e);
    }
    ep.span_end(span);
    r
}

fn try_data_move_inner<T, S, D>(
    ep: &mut Endpoint,
    sched: &Schedule,
    src: &S,
    dst: &mut D,
) -> Result<(), McError>
where
    T: Copy + Wire,
    S: McObject<T>,
    D: McObject<T>,
{
    if let Some((object_epoch, schedule_epoch)) = stale_pair(src.epoch(), sched.src_epoch())
        .or_else(|| stale_pair(dst.epoch(), sched.dst_epoch()))
    {
        ep.record_stale_schedule();
        return Err(McError::StaleSchedule {
            object_epoch,
            schedule_epoch,
        });
    }
    // Post all sends first (buffered channels make this deadlock-free),
    // then do local copies, then drain receives.
    send_half(ep, sched, src);
    local_copies(ep, sched, src, dst);
    recv_half(ep, sched, dst);
    Ok(())
}

/// `Some((object, schedule))` when the epochs disagree.
pub(crate) fn stale_pair(object: u64, schedule: u64) -> Option<(u64, u64)> {
    (object != schedule).then_some((object, schedule))
}

/// Source-program half of a two-program transfer: manifest exchange and
/// verdict round first (the transaction's prepare phase), then the data
/// frames over the reliable transport.
///
/// Fails (without communicating) when the schedule evidently belongs to a
/// different call: cross-program schedules never contain local pairs, and
/// a rank that also receives must use [`data_move`] or be on the
/// [`data_move_recv`] side.  Under an active fault plan the frames are
/// retransmitted as needed; [`McError::PeerTimeout`] means the retry
/// budget ran out (permanent partition) and [`McError::PeerFailed`] means
/// a peer crashed.  [`McError::ScheduleMismatch`] and
/// [`McError::StaleSchedule`] are raised symmetrically on both sides of
/// the affected pair before any data has moved.
pub fn data_move_send<T, S>(ep: &mut Endpoint, sched: &Schedule, src: &S) -> Result<(), McError>
where
    T: Copy + Wire,
    S: McObject<T>,
{
    send_side_guards(sched)?;
    if sched.sends.is_empty() {
        return Ok(());
    }
    let te = next_xfer_epoch(ep, sched);
    let span = ep.span_begin(Phase::Transfer, || {
        format!(
            "mode=send seq={} te={} pairs={} elems={} src_epoch={}",
            sched.seq(),
            te,
            sched.sends.len(),
            sched.total_elems,
            sched.src_epoch()
        )
    });
    let r = settle(
        ep,
        sched,
        &sched.sends,
        te,
        stale_pair(src.epoch(), sched.src_epoch()),
    )
    .and_then(|_| send_data_frames(ep, sched, src, te));
    if let Err(e) = &r {
        obs::record_abort(ep, e);
    }
    ep.span_end(span);
    r
}

/// Destination-program half of a two-program transfer.  Misuse reporting
/// mirrors [`data_move_send`]; transport outcomes do too.  Delivery is
/// all-or-nothing: every peer's half is staged and verified before the
/// first element is unpacked, so any error leaves `dst` untouched.
pub fn data_move_recv<T, D>(ep: &mut Endpoint, sched: &Schedule, dst: &mut D) -> Result<(), McError>
where
    T: Copy + Wire,
    D: McObject<T>,
{
    recv_side_guards(sched)?;
    if sched.recvs.is_empty() {
        return Ok(());
    }
    let span = ep.span_begin(Phase::Transfer, || {
        format!(
            "mode=recv seq={} pairs={} elems={} dst_epoch={}",
            sched.seq(),
            sched.recvs.len(),
            sched.total_elems,
            sched.dst_epoch()
        )
    });
    let r = settle(
        ep,
        sched,
        &sched.recvs,
        0,
        stale_pair(dst.epoch(), sched.dst_epoch()),
    )
    .and_then(|expected| recv_data_frames(ep, sched, dst, &expected));
    if let Err(e) = &r {
        obs::record_abort(ep, e);
    }
    ep.span_end(span);
    r
}

/// Prepare phase only: runs the manifest exchange and verdict round of
/// [`data_move_send`] and returns *without sending any data*.  A test
/// failpoint for crashing a sender between "transaction agreed" and "data
/// delivered" — the window all-or-nothing delivery exists for.  Not part
/// of the Meta-Chaos API surface.
#[doc(hidden)]
pub fn data_move_send_verify_only<T, S>(
    ep: &mut Endpoint,
    sched: &Schedule,
    src: &S,
) -> Result<(), McError>
where
    T: Copy + Wire,
    S: McObject<T>,
{
    send_side_guards(sched)?;
    if sched.sends.is_empty() {
        return Ok(());
    }
    let te = next_xfer_epoch(ep, sched);
    let r = settle(
        ep,
        sched,
        &sched.sends,
        te,
        stale_pair(src.epoch(), sched.src_epoch()),
    );
    if let Err(e) = &r {
        obs::record_abort(ep, e);
    }
    r.map(|_| ())
}

/// Ablation baseline for the session layer: the bare reliable send half of
/// PR 2 — no manifest exchange, no verdict round, no epoch guard.  Frames
/// are wire-compatible with [`data_move_recv`] (they carry the transfer
/// epoch header), so a half posted here and never consumed models a
/// replayed half from an aborted attempt.  Benchmarks and tests only.
pub fn data_move_send_unverified<T, S>(
    ep: &mut Endpoint,
    sched: &Schedule,
    src: &S,
) -> Result<(), McError>
where
    T: Copy + Wire,
    S: McObject<T>,
{
    send_side_guards(sched)?;
    if sched.sends.is_empty() {
        return Ok(());
    }
    let te = next_xfer_epoch(ep, sched);
    send_data_frames(ep, sched, src, te)
}

/// Ablation baseline for the session layer: the bare reliable receive half
/// of PR 2 — streaming unpack with no staging, accepting whatever transfer
/// epoch arrives.  Benchmarks and tests only.
pub fn data_move_recv_unverified<T, D>(
    ep: &mut Endpoint,
    sched: &Schedule,
    dst: &mut D,
) -> Result<(), McError>
where
    T: Copy + Wire,
    D: McObject<T>,
{
    recv_side_guards(sched)?;
    if sched.recvs.is_empty() {
        return Ok(());
    }
    let st = move_stream(sched);
    let group = sched.group();
    for (peer, runs) in &sched.recvs {
        let pg = group.global(*peer);
        let mut cursor = 0usize;
        loop {
            let bytes = reliable::reliable_recv(ep, pg, st)?;
            let mut r = WireReader::new(&bytes);
            let (_te, last, count) = read_part_header(&mut r, pg)?;
            if cursor + count > runs.len() {
                return Err(McError::Transport(format!(
                    "half from rank {pg} carries {} elements, schedule expects {}",
                    cursor + count,
                    runs.len()
                )));
            }
            let slice = runs.slice_elems(cursor, count);
            dst.unpack_runs_wire(ep, &slice, &mut r).map_err(|e| {
                McError::Transport(format!("frame from rank {pg} failed to decode: {e}"))
            })?;
            cursor += count;
            ep.recycle_buf(bytes);
            if last {
                if cursor != runs.len() {
                    return Err(McError::Transport(format!(
                        "half from rank {pg} carries {cursor} elements, schedule expects {}",
                        runs.len()
                    )));
                }
                break;
            }
        }
    }
    Ok(())
}

pub(crate) fn send_side_guards(sched: &Schedule) -> Result<(), McError> {
    if !sched.local_pairs.is_empty() {
        return Err(McError::LocalPairsInCrossProgramMove {
            pairs: sched.local_pairs.len(),
        });
    }
    if !sched.recvs.is_empty() {
        return Err(McError::SendSideHasReceives {
            peers: sched.msgs_in(),
        });
    }
    Ok(())
}

pub(crate) fn recv_side_guards(sched: &Schedule) -> Result<(), McError> {
    if !sched.local_pairs.is_empty() {
        return Err(McError::LocalPairsInCrossProgramMove {
            pairs: sched.local_pairs.len(),
        });
    }
    if !sched.sends.is_empty() {
        return Err(McError::RecvSideHasSends {
            peers: sched.msgs_out(),
        });
    }
    Ok(())
}

/// What one side announces to a pair peer before data moves.  Both sides
/// send one; everything except `transfer_epoch` (sender-only) must agree.
struct Manifest {
    seq: u32,
    total_elems: u64,
    elem_tag: u64,
    elem_size: u32,
    pair_elems: u64,
    transfer_epoch: u64,
}

fn write_manifest(buf: &mut Vec<u8>, m: &Manifest) {
    K_MANIFEST.write(buf);
    m.seq.write(buf);
    m.total_elems.write(buf);
    m.elem_tag.write(buf);
    m.elem_size.write(buf);
    m.pair_elems.write(buf);
    m.transfer_epoch.write(buf);
}

fn parse_manifest(bytes: &[u8], peer: usize) -> Result<Manifest, McError> {
    let mut r = WireReader::new(bytes);
    let bad = |e| McError::Transport(format!("malformed manifest from rank {peer}: {e}"));
    let kind = u8::read(&mut r).map_err(bad)?;
    if kind != K_MANIFEST {
        return Err(McError::Transport(format!(
            "expected a manifest from rank {peer}, got control frame kind {kind}"
        )));
    }
    Ok(Manifest {
        seq: u32::read(&mut r).map_err(bad)?,
        total_elems: u64::read(&mut r).map_err(bad)?,
        elem_tag: u64::read(&mut r).map_err(bad)?,
        elem_size: u32::read(&mut r).map_err(bad)?,
        pair_elems: u64::read(&mut r).map_err(bad)?,
        transfer_epoch: u64::read(&mut r).map_err(bad)?,
    })
}

/// First disagreement between my schedule's view of a pair and the peer's
/// manifest, as a human-readable detail string.
fn manifest_disagreement(sched: &Schedule, my_pair_elems: u64, m: &Manifest) -> Option<String> {
    if m.seq != sched.seq() {
        return Some(format!(
            "schedule seq {} here vs {} at the peer",
            sched.seq(),
            m.seq
        ));
    }
    if m.total_elems != sched.total_elems as u64 {
        return Some(format!(
            "transfer totals {} elements here vs {} at the peer",
            sched.total_elems, m.total_elems
        ));
    }
    if m.elem_tag != sched.elem_tag() || m.elem_size != sched.elem_size() {
        return Some(format!(
            "element type differs ({}-byte elements here vs {}-byte at the peer)",
            sched.elem_size(),
            m.elem_size
        ));
    }
    if m.pair_elems != my_pair_elems {
        return Some(format!(
            "this pair carries {my_pair_elems} elements here vs {} at the peer",
            m.pair_elems
        ));
    }
    None
}

fn write_verdict(buf: &mut Vec<u8>, code: u8, a: u64, b: u64) {
    K_VERDICT.write(buf);
    code.write(buf);
    a.write(buf);
    b.write(buf);
}

fn parse_verdict(bytes: &[u8], peer: usize) -> Result<(u8, u64, u64), McError> {
    let mut r = WireReader::new(bytes);
    let bad = |e| McError::Transport(format!("malformed verdict from rank {peer}: {e}"));
    let kind = u8::read(&mut r).map_err(bad)?;
    if kind != K_VERDICT {
        return Err(McError::Transport(format!(
            "expected a verdict from rank {peer}, got control frame kind {kind}"
        )));
    }
    Ok((
        u8::read(&mut r).map_err(bad)?,
        u64::read(&mut r).map_err(bad)?,
        u64::read(&mut r).map_err(bad)?,
    ))
}

/// The transaction's prepare phase, identical on both sides: exchange
/// manifests with every pair peer, then exchange verdicts, and only return
/// `Ok` when *everyone* agreed to proceed.  Each phase posts to every peer
/// before reading from any, so the exchange cannot deadlock; a transport
/// error against one peer still drains the remaining live peers.
///
/// Returns the per-pair transfer epochs the peers announced (meaningful on
/// the receive side; senders announce `my_te` and ignore the result).
pub(crate) fn settle(
    ep: &mut Endpoint,
    sched: &Schedule,
    pairs: &[(usize, AddrRuns)],
    my_te: u64,
    my_stale: Option<(u64, u64)>,
) -> Result<Vec<u64>, McError> {
    let span = ep.span_begin(Phase::Manifest, || {
        format!("seq={} pairs={} te={}", sched.seq(), pairs.len(), my_te)
    });
    let r = settle_inner(ep, sched, pairs, my_te, my_stale);
    ep.span_end(span);
    r
}

fn settle_inner(
    ep: &mut Endpoint,
    sched: &Schedule,
    pairs: &[(usize, AddrRuns)],
    my_te: u64,
    my_stale: Option<(u64, u64)>,
) -> Result<Vec<u64>, McError> {
    let st = StreamTag::new(sched.group().context(), MANIFEST_STREAM);
    let group = sched.group();
    let n = pairs.len();
    let mut dead = vec![false; n];
    // The first transport failure, kept with the peer it happened against:
    // transport errors outrank mismatch/stale in what we report, because
    // they are the only causes the other live peers will see too.
    let mut failed: Option<McError> = None;
    fn note_failure(dead: &mut [bool], failed: &mut Option<McError>, i: usize, e: McError) {
        dead[i] = true;
        if failed.is_none() {
            *failed = Some(e);
        }
    }

    // Phase 1: announce my manifest to every pair peer.
    for (i, (peer, runs)) in pairs.iter().enumerate() {
        let m = Manifest {
            seq: sched.seq(),
            total_elems: sched.total_elems as u64,
            elem_tag: sched.elem_tag(),
            elem_size: sched.elem_size(),
            pair_elems: runs.len() as u64,
            transfer_epoch: my_te,
        };
        let mut buf = ep.take_buf();
        write_manifest(&mut buf, &m);
        if let Err(e) = reliable::reliable_send(ep, group.global(*peer), st, buf) {
            note_failure(&mut dead, &mut failed, i, e.into());
        }
    }

    // Phase 2: read every live peer's manifest; collect the first
    // disagreement but keep draining so no peer is left unpaired.
    let mut peer_te = vec![0u64; n];
    let mut mismatch: Option<(usize, String)> = None;
    for (i, (peer, runs)) in pairs.iter().enumerate() {
        if dead[i] {
            continue;
        }
        let pg = group.global(*peer);
        match reliable::reliable_recv(ep, pg, st) {
            Ok(bytes) => match parse_manifest(&bytes, pg) {
                Ok(m) => {
                    peer_te[i] = m.transfer_epoch;
                    if mismatch.is_none() {
                        if let Some(detail) = manifest_disagreement(sched, runs.len() as u64, &m) {
                            mismatch = Some((pg, detail));
                        }
                    }
                    ep.recycle_buf(bytes);
                }
                Err(e) => note_failure(&mut dead, &mut failed, i, e),
            },
            Err(e) => note_failure(&mut dead, &mut failed, i, e.into()),
        }
    }

    // My verdict, in decreasing severity: a dead peer dooms the transfer
    // for everyone; a stale schedule or manifest mismatch aborts it cleanly.
    let my_verdict: (u8, u64, u64) = if let Some(e) = &failed {
        let r = match e {
            McError::PeerFailed { rank, .. }
            | McError::PeerTimeout { rank, .. }
            | McError::PeerEvicted { rank, .. } => *rank as u64,
            _ => u64::MAX,
        };
        (V_ABORT_PEER, r, 0)
    } else if let Some((oe, se)) = my_stale {
        (V_ABORT_STALE, oe, se)
    } else if mismatch.is_some() {
        (V_ABORT_MISMATCH, 0, 0)
    } else {
        (V_OK, 0, 0)
    };
    if my_verdict.0 != V_OK {
        ep.mark(|| {
            let why = match my_verdict.0 {
                V_ABORT_PEER => "peer-failed",
                V_ABORT_STALE => "stale-schedule",
                _ => "manifest-mismatch",
            };
            format!("verdict abort cause={why} seq={}", sched.seq())
        });
    }

    // Phase 3: post my verdict to every live peer.
    for (i, (peer, _)) in pairs.iter().enumerate() {
        if dead[i] {
            continue;
        }
        let mut buf = ep.take_buf();
        write_verdict(&mut buf, my_verdict.0, my_verdict.1, my_verdict.2);
        if let Err(e) = reliable::reliable_send(ep, group.global(*peer), st, buf) {
            note_failure(&mut dead, &mut failed, i, e.into());
        }
    }

    // Phase 4: read every live peer's verdict.
    let mut peer_abort: Option<McError> = None;
    let mut abort_peer: Option<usize> = None;
    for (i, (peer, _)) in pairs.iter().enumerate() {
        if dead[i] {
            continue;
        }
        let pg = group.global(*peer);
        match reliable::reliable_recv(ep, pg, st) {
            Ok(bytes) => match parse_verdict(&bytes, pg) {
                Ok((code, a, b)) => {
                    if code != V_OK && peer_abort.is_none() {
                        abort_peer = Some(pg);
                        peer_abort = Some(match code {
                            V_ABORT_STALE => McError::StaleSchedule {
                                object_epoch: a,
                                schedule_epoch: b,
                            },
                            V_ABORT_PEER => McError::PeerFailed {
                                rank: a as usize,
                                reason: format!(
                                    "rank {a} failed mid-transfer; peer rank {pg} aborted"
                                ),
                            },
                            _ => McError::ScheduleMismatch {
                                peer: pg,
                                detail: "peer aborted: transfer manifests disagree".into(),
                            },
                        });
                    }
                    ep.recycle_buf(bytes);
                }
                Err(e) => note_failure(&mut dead, &mut failed, i, e),
            },
            Err(e) => note_failure(&mut dead, &mut failed, i, e.into()),
        }
    }

    if let Some(pg) = abort_peer {
        ep.mark(|| {
            format!(
                "verdict abort cause=peer-verdict peer={pg} seq={}",
                sched.seq()
            )
        });
    }
    if failed.is_none() && my_verdict.0 == V_OK && peer_abort.is_none() {
        return Ok(peer_te);
    }
    // Abort: nothing has been sent on the data stream, the destination is
    // untouched, and every live peer received an abort verdict.
    ep.record_transfer_aborted();
    if my_stale.is_some() {
        ep.record_stale_schedule();
    }
    if let Some(e) = failed {
        return Err(e);
    }
    if let Some((object_epoch, schedule_epoch)) = my_stale {
        return Err(McError::StaleSchedule {
            object_epoch,
            schedule_epoch,
        });
    }
    if let Some((peer, detail)) = mismatch {
        return Err(McError::ScheduleMismatch { peer, detail });
    }
    Err(peer_abort.expect("abort must have a cause"))
}

/// Per-part header: transfer epoch (8), last-part flag (1), element count
/// (8).  Headroom subtracted from the transport chunk size so one part's
/// payload always fits a single reliable frame (zero-copy delivery).
const PART_HDR_SLACK: usize = 32;

/// Elements per streamed part: as many as fit one transport chunk, so the
/// pack of part `k+1` overlaps the wire time of part `k` inside the
/// sliding window instead of serializing pack → wire → unpack.
fn part_elems(ep: &Endpoint, elem_size: usize) -> usize {
    let budget = ep
        .reliable_config()
        .chunk_bytes
        .saturating_sub(PART_HDR_SLACK)
        .max(1);
    (budget / elem_size.max(1)).max(1)
}

/// Pack and post ONE pair's half as a stream of parts — every part one
/// reliable frame carrying `[transfer epoch][last flag][element count]`
/// plus that slice of the packed payload.  Posting a part admits it into
/// the sliding window and returns, so packing the next part overlaps the
/// previous part's wire time.
fn post_one_half<T, S>(
    ep: &mut Endpoint,
    sched: &Schedule,
    src: &S,
    te: u64,
    pg: usize,
    runs: &AddrRuns,
) -> Result<(), McError>
where
    T: Copy + Wire,
    S: McObject<T>,
{
    let st = move_stream(sched);
    let per_part = part_elems(ep, sched.elem_size() as usize);
    let total = runs.len();
    let pack = ep.span_begin(Phase::Pack, || {
        format!(
            "peer={pg} runs={total} te={te} parts={}",
            total.div_ceil(per_part)
        )
    });
    let mut posted = Ok(());
    let mut cursor = 0usize;
    while cursor < total {
        let cnt = per_part.min(total - cursor);
        let last = cursor + cnt == total;
        let mut buf = ep.take_buf();
        te.write(&mut buf);
        u8::from(last).write(&mut buf);
        cnt.write(&mut buf);
        let part = runs.slice_elems(cursor, cnt);
        src.pack_runs_wire(ep, &part, &mut buf);
        cursor += cnt;
        if let Err(e) = reliable::reliable_send(ep, pg, st, buf) {
            posted = Err(e.into());
            break;
        }
    }
    ep.span_end(pack);
    posted
}

/// Post every pair's half ([`post_one_half`]), then wait for every
/// acknowledgement.
fn send_data_frames<T, S>(
    ep: &mut Endpoint,
    sched: &Schedule,
    src: &S,
    te: u64,
) -> Result<(), McError>
where
    T: Copy + Wire,
    S: McObject<T>,
{
    let st = move_stream(sched);
    let group = sched.group();
    for (peer, runs) in &sched.sends {
        post_one_half(ep, sched, src, te, group.global(*peer), runs)?;
    }
    let wire = ep.span_begin(Phase::Wire, || {
        format!("pairs={} te={te}", sched.sends.len())
    });
    let mut flushed = Ok(());
    for (peer, _) in &sched.sends {
        if let Err(e) = reliable::flush_send(ep, group.global(*peer), st) {
            flushed = Err(e.into());
            break;
        }
    }
    ep.span_end(wire);
    flushed
}

/// Parse one part's header.  Returns `(transfer_epoch, last, count)`.
pub(crate) fn read_part_header(
    r: &mut WireReader<'_>,
    pg: usize,
) -> Result<(u64, bool, usize), McError> {
    let bad = |e| {
        McError::Transport(format!(
            "data frame from rank {pg} has no transfer header: {e}"
        ))
    };
    let te = u64::read(r).map_err(bad)?;
    let last = u8::read(r).map_err(bad)? != 0;
    let count = usize::read(r).map_err(bad)?;
    Ok((te, last, count))
}

/// Collect every peer's data half — now a stream of parts per half —
/// verify all of them, and only then unpack, so a failure anywhere leaves
/// `dst` bit-identical.  Parts carrying a transfer epoch older than the
/// one the peer's manifest announced are replays of an aborted attempt:
/// the whole replayed half (every part through its last-flag) is consumed
/// and discarded, counted once.
fn recv_data_frames<T, D>(
    ep: &mut Endpoint,
    sched: &Schedule,
    dst: &mut D,
    expected: &[u64],
) -> Result<(), McError>
where
    T: Copy + Wire,
    D: McObject<T>,
{
    let staged = stage_halves(ep, sched, expected)?;
    // Commit: every half arrived and verified.  Staging holds the received
    // wire buffers themselves, so this is the same single unpack as the
    // streaming path — deferred, not duplicated.
    let commit = ep.span_begin(Phase::Commit, || {
        format!("seq={} pairs={}", sched.seq(), sched.recvs.len())
    });
    let group = sched.group();
    let mut halves = sched.recvs.iter().zip(staged);
    let committed = halves.try_for_each(|((peer, runs), parts)| {
        commit_one_half(ep, dst, group.global(*peer), runs, parts)
    });
    ep.span_end(commit);
    if committed.is_ok() {
        ep.record_transfer_committed();
    }
    committed
}

/// The staging phase: collect every peer's data half and verify headers,
/// epochs, and payload sizes.  A failure anywhere recycles everything
/// staged and aborts the transfer, leaving the destination bit-identical.
fn stage_halves(
    ep: &mut Endpoint,
    sched: &Schedule,
    expected: &[u64],
) -> Result<Vec<Vec<Vec<u8>>>, McError> {
    let st = move_stream(sched);
    let group = sched.group();
    let esz = sched.elem_size() as usize;
    // Per pair: the ordered list of staged part buffers for its half.
    let mut staged: Vec<Vec<Vec<u8>>> = Vec::with_capacity(sched.recvs.len());
    let mut fail: Option<McError> = None;
    let stage = ep.span_begin(Phase::Stage, || {
        format!("seq={} pairs={}", sched.seq(), sched.recvs.len())
    });
    'pairs: for (i, (peer, runs)) in sched.recvs.iter().enumerate() {
        let pg = group.global(*peer);
        let mut parts: Vec<Vec<u8>> = Vec::new();
        let mut got = 0usize;
        // True while discarding the remainder of a replayed (stale) half:
        // the half is counted once, at its first part.
        let mut in_stale = false;
        loop {
            let bytes = match reliable::reliable_recv(ep, pg, st) {
                Ok(b) => b,
                Err(e) => {
                    fail = Some(e.into());
                    break 'pairs;
                }
            };
            let mut r = WireReader::new(&bytes);
            let (te, last, count) = match read_part_header(&mut r, pg) {
                Ok(h) => h,
                Err(e) => {
                    fail = Some(e);
                    break 'pairs;
                }
            };
            if te < expected[i] {
                // A replay from an earlier, aborted attempt: the retried
                // transfer must not consume it.
                if !in_stale {
                    ep.record_stale_half();
                    in_stale = true;
                }
                if last {
                    in_stale = false;
                }
                ep.recycle_buf(bytes);
                continue;
            }
            if te > expected[i] {
                fail = Some(McError::Transport(format!(
                    "data frame from rank {pg} is from transfer epoch {te}, manifest announced {}",
                    expected[i]
                )));
                break 'pairs;
            }
            if esz != 0 && r.remaining() != count * esz {
                fail = Some(McError::Transport(format!(
                    "part from rank {pg} has {} payload bytes, expected {}",
                    r.remaining(),
                    count * esz
                )));
                break 'pairs;
            }
            got += count;
            if got > runs.len() || (last && got != runs.len()) {
                fail = Some(McError::Transport(format!(
                    "half from rank {pg} carries {got} elements, schedule expects {}",
                    runs.len()
                )));
                break 'pairs;
            }
            ep.record_staged_frame();
            parts.push(bytes);
            if last {
                break;
            }
        }
        staged.push(std::mem::take(&mut parts));
    }
    ep.span_end(stage);
    if let Some(e) = fail {
        let total: usize = staged.iter().map(Vec::len).sum();
        let abort = ep.span_begin(Phase::Abort, || {
            format!("seq={} staged={total}", sched.seq())
        });
        for b in staged.into_iter().flatten() {
            ep.recycle_buf(b);
        }
        ep.record_transfer_aborted();
        ep.span_end(abort);
        return Err(e);
    }
    Ok(staged)
}

fn send_half<T, S>(ep: &mut Endpoint, sched: &Schedule, src: &S)
where
    T: Copy + Wire,
    S: McObject<T>,
{
    if sched.sends.is_empty() {
        return;
    }
    let t = move_tag(sched.seq());
    let mut comm = Comm::borrowed(ep, sched.group());
    for (peer, runs) in &sched.sends {
        // Encode the `Vec<T>` wire layout directly: count header, then the
        // source elements packed straight into a pooled wire buffer — one
        // copy, no intermediate typed buffer.
        let pack = comm.ep().span_begin(Phase::Pack, || {
            format!("seq={} peer={peer} runs={}", sched.seq(), runs.len())
        });
        let mut buf = comm.ep().take_buf();
        runs.len().write(&mut buf);
        src.pack_runs_wire(comm.ep(), runs, &mut buf);
        comm.ep().span_end(pack);
        let wire = comm
            .ep()
            .span_begin(Phase::Wire, || format!("seq={} peer={peer}", sched.seq()));
        comm.send(*peer, t, buf);
        comm.ep().span_end(wire);
    }
}

/// The reliable stream a schedule's cross-program traffic runs on: same
/// context as the raw path, stream id = schedule seq (the tag class moves
/// from `0x4` to the reliable pair `0x5`/`0x6`).
pub(crate) fn move_stream(sched: &Schedule) -> StreamTag {
    StreamTag::new(sched.group().context(), sched.seq())
}

/// Pack, post, and flush ONE pair's half (per-pair counterpart of
/// [`send_data_frames`], used by the recovery session to retry exactly
/// the pairs that have not confirmed a step).
pub(crate) fn send_one_half<T, S>(
    ep: &mut Endpoint,
    sched: &Schedule,
    src: &S,
    te: u64,
    pg: usize,
    runs: &AddrRuns,
) -> Result<(), McError>
where
    T: Copy + Wire,
    S: McObject<T>,
{
    post_one_half(ep, sched, src, te, pg, runs)?;
    let wire = ep.span_begin(Phase::Wire, || format!("peer={pg} te={te}"));
    let r = reliable::flush_send(ep, pg, move_stream(sched)).map_err(McError::from);
    ep.span_end(wire);
    r
}

/// Unpack ONE staged half into `dst`, each part into its slice of the
/// pair's destination runs.  Consumes and recycles the parts.
pub(crate) fn commit_one_half<T, D>(
    ep: &mut Endpoint,
    dst: &mut D,
    pg: usize,
    runs: &AddrRuns,
    parts: Vec<Vec<u8>>,
) -> Result<(), McError>
where
    T: Copy + Wire,
    D: McObject<T>,
{
    let mut cursor = 0usize;
    for bytes in parts {
        let mut r = WireReader::new(&bytes);
        let _ = u64::read(&mut r);
        let _ = u8::read(&mut r);
        let count = usize::read(&mut r).unwrap_or(0);
        let slice = runs.slice_elems(cursor, count);
        if let Err(e) = dst.unpack_runs_wire(ep, &slice, &mut r) {
            return Err(McError::Transport(format!(
                "frame from rank {pg} failed to decode: {e}"
            )));
        }
        cursor += count;
        ep.recycle_buf(bytes);
    }
    Ok(())
}

fn recv_half<T, D>(ep: &mut Endpoint, sched: &Schedule, dst: &mut D)
where
    T: Copy + Wire,
    D: McObject<T>,
{
    if sched.recvs.is_empty() {
        return;
    }
    let t = move_tag(sched.seq());
    let mut comm = Comm::borrowed(ep, sched.group());
    for (peer, runs) in &sched.recvs {
        let stage = comm
            .ep()
            .span_begin(Phase::Stage, || format!("peer={peer} runs={}", runs.len()));
        let bytes = comm.recv(*peer, t);
        comm.ep().span_end(stage);
        let mut r = WireReader::new(&bytes);
        let count = usize::read(&mut r)
            .unwrap_or_else(|e| panic!("message from peer {peer} has no element count: {e}"));
        assert_eq!(
            count,
            runs.len(),
            "message from peer {peer} has wrong element count"
        );
        // Unpack wire bytes straight into library storage, then recycle
        // the buffer so steady-state loops allocate nothing.
        let commit = comm
            .ep()
            .span_begin(Phase::Commit, || format!("peer={peer}"));
        dst.unpack_runs_wire(comm.ep(), runs, &mut r)
            .unwrap_or_else(|e| panic!("message from peer {peer} failed to decode: {e}"));
        comm.ep().span_end(commit);
        comm.ep().recycle_buf(bytes);
    }
}

fn local_copies<T, S, D>(ep: &mut Endpoint, sched: &Schedule, src: &S, dst: &mut D)
where
    T: Copy + Wire,
    S: McObject<T>,
    D: McObject<T>,
{
    if sched.local_pairs.is_empty() {
        return;
    }
    ep.mark(|| format!("local_copy pairs={}", sched.local_pairs.len()));
    let (from, to) = (src.local(), dst.local_mut());
    for &(s, d, len) in sched.local_pairs.runs() {
        to[d..d + len].copy_from_slice(&from[s..s + len]);
    }
    // Direct copy: one read and one write per element (charged apart, as
    // the pack and the unpack they are), no extra staging charge — this is
    // the local-copy advantage over Parti's intermediate buffer (§5.3).
    let bytes = sched.local_pairs.len() * std::mem::size_of::<T>();
    ep.charge_copy_bytes(bytes);
    ep.charge_copy_bytes(bytes);
}
