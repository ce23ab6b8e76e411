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
//! Same-program [`data_move`] runs **raw**: the schedule-parity guarantee
//! (§4.1.4 — exactly the hand-coded number and sizes of messages) holds
//! bit-for-bit.  The cross-program halves are transactions on the
//! reliable transport, run by the per-pair transfer engine that
//! [`crate::RecoverySession`] shares: a manifest handshake, then every
//! peer's half staged before any is committed.  The `*_unverified`
//! halves skip the handshake; they are the baseline its cost is measured
//! against.

use mcsim::group::Comm;
use mcsim::note;
use mcsim::prelude::Endpoint;
use mcsim::span::{Note, Phase};
use mcsim::wire::{Wire, WireReader};

use crate::adapter::McObject;
use crate::engine::{self, spanned, Expect};
use crate::error::McError;
use crate::obs;
use crate::schedule::{AddrRuns, Schedule};

/// User-tag bit layout for data-move traffic: schedule seq in the high
/// bits, leaving the low bits to keep streams of distinct schedules apart.
fn move_tag(seq: u32) -> u32 {
    0x4000_0000 | seq
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
    let (seq, elems, size) = (sched.seq(), sched.total_elems, sched.elem_size());
    let detail = note!("mode=raw", seq = seq, elems = elems, elem_size = size);
    transaction(ep, detail, |ep| {
        let stale = engine::check_epoch(src.epoch(), sched.src_epoch())
            .and(engine::check_epoch(dst.epoch(), sched.dst_epoch()));
        if stale.is_err() {
            ep.record_stale_schedule();
            return stale;
        }
        // Post all sends first (buffered channels make this deadlock-free),
        // then do local copies, then drain receives.
        send_half(ep, sched, src);
        local_copies(ep, sched, src, dst);
        recv_half(ep, sched, dst);
        Ok(())
    })
}

/// Run one transfer under its `Transfer` span, recording an abort.
fn transaction(
    ep: &mut Endpoint,
    detail: Note,
    body: impl FnOnce(&mut Endpoint) -> Result<(), McError>,
) -> Result<(), McError> {
    spanned(ep, Phase::Transfer, detail, |ep| {
        let r = body(ep);
        if let Err(e) = &r {
            obs::record_abort(ep, e);
        }
        r
    })
}

/// Source-program half of a two-program transfer: the manifest handshake
/// first (the transaction's prepare phase), then the data parts.
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
    send_once(ep, sched, src, true)
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
    recv_once(ep, sched, dst, true)
}

/// Ablation baseline for the manifest handshake: [`data_move_send`]
/// without it (and without the epoch guard).  Parts carry the transfer
/// epoch as usual, so a half posted here and never consumed models a
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
    send_once(ep, sched, src, false)
}

/// Ablation baseline for the manifest handshake: [`data_move_recv`]
/// without it, accepting whatever transfer epoch arrives.  Still
/// all-or-nothing.  Benchmarks and tests only.
pub fn data_move_recv_unverified<T, D>(
    ep: &mut Endpoint,
    sched: &Schedule,
    dst: &mut D,
) -> Result<(), McError>
where
    T: Copy + Wire,
    D: McObject<T>,
{
    recv_once(ep, sched, dst, false)
}

/// The one-shot send half: post every pair's half, then wait for every
/// acknowledgement.  `verify` (fixed by the front door) runs the manifest
/// handshake first, the two inside a `Transfer` span.
fn send_once<T, S>(
    ep: &mut Endpoint,
    sched: &Schedule,
    src: &S,
    verify: bool,
) -> Result<(), McError>
where
    T: Copy + Wire,
    S: McObject<T>,
{
    let pairs = engine::side_pairs(sched, true)?;
    if pairs.is_empty() {
        return Ok(());
    }
    let (te, group) = (engine::next_xfer_epoch(ep, sched), sched.group());
    let send = |ep: &mut Endpoint| {
        for (peer, runs) in pairs {
            engine::post_one_half(ep, sched, src, te, group.global(*peer), runs)?;
        }
        let pgs = pairs.iter().map(|(peer, _)| group.global(*peer));
        let detail = note!("", pairs = pairs.len(), te = te);
        engine::flush_halves(ep, engine::move_stream(sched), pgs, detail)
    };
    if !verify {
        return send(ep);
    }
    let (seq, elems, epoch) = (sched.seq(), sched.total_elems, sched.src_epoch());
    let n = pairs.len();
    let detail = note!(
        "mode=send",
        seq = seq,
        te = te,
        pairs = n,
        elems = elems,
        src_epoch = epoch
    );
    transaction(ep, detail, |ep| {
        engine::settle(ep, sched, pairs, te, (src.epoch(), epoch))?;
        send(ep)
    })
}

/// The one-shot receive half.  `verify` (fixed by the front door) runs
/// the manifest handshake first, the two inside a `Transfer` span, and
/// accepts only the epochs the peers announced.
fn recv_once<T, D>(
    ep: &mut Endpoint,
    sched: &Schedule,
    dst: &mut D,
    verify: bool,
) -> Result<(), McError>
where
    T: Copy + Wire,
    D: McObject<T>,
{
    let pairs = engine::side_pairs(sched, false)?;
    if pairs.is_empty() {
        return Ok(());
    }
    if !verify {
        return recv_halves(ep, sched, pairs, dst, |_| Expect::Any);
    }
    let (seq, elems, epoch) = (sched.seq(), sched.total_elems, sched.dst_epoch());
    let n = pairs.len();
    let detail = note!(
        "mode=recv",
        seq = seq,
        pairs = n,
        elems = elems,
        dst_epoch = epoch
    );
    let epochs = (dst.epoch(), epoch);
    transaction(ep, detail, |ep| {
        let te = engine::settle(ep, sched, pairs, 0, epochs)?;
        recv_halves(ep, sched, pairs, dst, |i| Expect::Epoch(te[i]))
    })
}

/// Stage every pair's half, then commit them all, so a failure anywhere
/// leaves `dst` bit-identical.  Staging holds the received wire buffers
/// themselves, so the commit is the one unpack — deferred, not
/// duplicated.
fn recv_halves<T, D>(
    ep: &mut Endpoint,
    sched: &Schedule,
    pairs: &[(usize, AddrRuns)],
    dst: &mut D,
    expect: impl Fn(usize) -> Expect,
) -> Result<(), McError>
where
    T: Copy + Wire,
    D: McObject<T>,
{
    let (seq, group) = (sched.seq(), sched.group());
    let detail = note!("", seq = seq, pairs = pairs.len());
    let mut staged = Vec::with_capacity(pairs.len());
    let all = spanned(ep, Phase::Stage, detail.clone(), |ep| {
        let mut halves = pairs.iter().enumerate();
        halves.try_for_each(|(i, (peer, runs))| {
            let pg = group.global(*peer);
            staged.push(engine::stage_half(ep, sched, pg, runs, expect(i))?);
            Ok(())
        })
    });
    if let Err(e) = all {
        let total: usize = staged.iter().map(Vec::len).sum();
        let detail = note!("", seq = seq, staged = total);
        return spanned(ep, Phase::Abort, detail, |ep| {
            staged.into_iter().flatten().for_each(|b| ep.recycle_buf(b));
            ep.record_transfer_aborted();
            Err(e)
        });
    }
    let committed = spanned(ep, Phase::Commit, detail, |ep| {
        let mut halves = pairs.iter().zip(staged);
        halves.try_for_each(|((peer, runs), parts)| {
            engine::commit_one_half(ep, dst, group.global(*peer), runs, parts)
        })
    });
    if committed.is_ok() {
        ep.record_transfer_committed();
    }
    committed
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
        let detail = note!("", seq = sched.seq(), peer = *peer, runs = runs.len());
        let pack = comm.ep().span_begin(Phase::Pack, detail);
        let mut buf = comm.ep().take_buf();
        runs.len().write(&mut buf);
        src.pack_runs_wire(comm.ep(), runs, &mut buf);
        comm.ep().span_end(pack);
        let detail = note!("", seq = sched.seq(), peer = *peer);
        let wire = comm.ep().span_begin(Phase::Wire, detail);
        comm.send(*peer, t, buf);
        comm.ep().span_end(wire);
    }
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
        let detail = note!("", peer = *peer, runs = runs.len());
        let stage = comm.ep().span_begin(Phase::Stage, detail);
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
        let commit = comm.ep().span_begin(Phase::Commit, note!("", peer = *peer));
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
    ep.mark(note!("local_copy", pairs = sched.local_pairs.len()));
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
