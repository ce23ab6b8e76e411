//! Resumable coupled transfers: a per-port recovery session that drives a
//! sequence of data-move steps to completion across rank crashes and
//! supervisor restarts.
//!
//! The plain [`crate::datamove`] entry points are one-shot: a crash on
//! either side mid-transfer surfaces as an error and any progress is
//! lost.  A [`RecoverySession`] wraps the same pack/stage/commit
//! machinery in an exactly-once step protocol so that a crashed rank —
//! restarted by the world supervisor from its [`mcsim::CkptStore`]
//! checkpoint under a bumped incarnation — re-joins the exchange and the
//! pair replays only what was never committed.
//!
//! ## The protocol
//!
//! Everything for a pair flows on its schedule's move stream, in both
//! directions.  Data parts keep the usual `[epoch][last][count][bytes]`
//! header, but the session's transfer epoch is `(step + 1) << 32 |
//! attempt`, so the step number rides every frame; control frames start
//! with a marker below `1 << 32`, which no session data frame can.
//!
//! - The **receiver** owns the truth: a per-pair committed-step vector
//!   `c`, checkpointed atomically with the destination object after
//!   every commit.  It stages whatever arrives: a half for the step it
//!   needs is committed (or, when `c` says a previous life already
//!   committed it, absorbed and counted as `parts_replayed`); a half
//!   from an older step is a replay — dropped, and answered with the
//!   receiver's position so a resending sender catches up.  An
//!   attempt-epoch jump mid-half exposes the partial half of an attempt
//!   the sender abandoned; the partial is discarded and collection
//!   restarts, so the stream can never desynchronize.
//! - The **sender** keeps a per-pair confirmed floor `s`
//!   (checkpointed): each step it sends its half and waits for the
//!   receiver's position to pass the step, retrying — with a fresh
//!   attempt epoch — whenever the failure detector evicts the peer
//!   (restart under a new incarnation, or lease expiry).  Positions are
//!   monotone, so stale control frames are harmless by construction.
//! - [`RecoverySession::finish`] closes the session: senders post FIN,
//!   receivers keep serving replayed halves until every sender's FIN
//!   arrives.  Without this a finished rank would exit — and stop
//!   heartbeating — while a restarted peer still needs its answers.
//!
//! The session requires a supervised world
//! ([`mcsim::World::with_supervisor`]): heartbeats drive the lease-based
//! failure detector, and [`McError::PeerEvicted`] is the retry signal
//! that a peer restarted under a new incarnation.  Do not mix plain
//! [`crate::data_move_send`]/[`crate::data_move_recv`] calls with a
//! session on the same schedule: the session owns the stream's epoch
//! space.

use std::any::Any;

use mcsim::prelude::Endpoint;
use mcsim::reliable::{self, StreamTag};
use mcsim::span::Phase;
use mcsim::wire::{Wire, WireReader};

use crate::adapter::McObject;
use crate::datamove::{
    commit_one_half, move_stream, next_xfer_epoch, recv_side_guards, send_one_half,
    send_side_guards, stale_pair,
};
use crate::error::McError;
use crate::schedule::{AddrRuns, Schedule};

/// Control-frame markers (first word; session data frames always start
/// with an epoch of at least `1 << 32`).
const M_POS: u64 = 1;
const M_NAK: u64 = 2;
const M_FIN: u64 = 3;

/// First epoch value reserved for data frames; anything below is a
/// control marker.
const DATA_FLOOR: u64 = 1 << 32;

/// A resumable multi-step transfer session over one bound port.
///
/// Create one session per port per rank and drive it through numbered
/// steps ([`RecoverySession::send_step`] / [`RecoverySession::recv_step`]),
/// then close it with [`RecoverySession::finish`].  On a supervisor
/// restart the closure re-creates the session; checkpointed progress
/// (`{port}:src_s`, `{port}:dst_c`, plus the schedule and object
/// snapshots) brings it back to where the previous life stopped.
pub struct RecoverySession {
    port: String,
}

/// Attempts per step (and per finish handshake) before a session gives
/// up on peers that keep getting evicted.
const STEP_ATTEMPTS: u32 = 8;

impl RecoverySession {
    /// A session for `port`.
    pub fn new(port: &str) -> Self {
        RecoverySession {
            port: port.to_string(),
        }
    }

    fn key(&self, what: &str) -> String {
        format!("{}:{what}", self.port)
    }

    /// Checkpoint the port's schedule so a restarted rank can restore it
    /// instead of re-running the (collective) build its peers will not
    /// repeat.
    pub fn checkpoint_schedule(&self, ep: &mut Endpoint, sched: &Schedule) {
        ep.ckpt_put_state(&self.key("sched"), Vec::new(), sched.clone());
    }

    /// The schedule checkpointed by a previous life, if any.
    pub fn restore_schedule(&self, ep: &Endpoint) -> Option<Schedule> {
        ep.ckpt_state::<Schedule>(&self.key("sched"))
    }

    /// Checkpoint an object.  [`RecoverySession::recv_step`]
    /// re-checkpoints the destination after every committed half; call
    /// this once after creating an object so a crash before the first
    /// commit restores a well-defined state (and so collectively built
    /// objects are never rebuilt by a lone restarted rank).
    pub fn checkpoint_object<O: Any + Clone + Send>(&self, ep: &mut Endpoint, obj: &O) {
        ep.ckpt_put_state(&self.key("obj"), Vec::new(), obj.clone());
    }

    /// The object snapshot checkpointed by a previous life, if any.
    pub fn restore_object<O: Any + Clone>(&self, ep: &Endpoint) -> Option<O> {
        ep.ckpt_state::<O>(&self.key("obj"))
    }

    /// Source-side step `k`: send every unconfirmed pair's half and wait
    /// for each receiver's position to pass the step, retrying across
    /// peer evictions until every pair confirms or the attempt budget
    /// runs out.
    pub fn send_step<T, S>(
        &mut self,
        ep: &mut Endpoint,
        sched: &Schedule,
        src: &S,
        k: u64,
    ) -> Result<(), McError>
    where
        T: Copy + Wire,
        S: McObject<T>,
    {
        send_side_guards(sched)?;
        if sched.sends.is_empty() {
            return Ok(());
        }
        if let Some((o, e)) = stale_pair(src.epoch(), sched.src_epoch()) {
            return Err(McError::StaleSchedule {
                object_epoch: o,
                schedule_epoch: e,
            });
        }
        let key_s = self.key("src_s");
        let mut s = load_progress(ep, &key_s, sched.sends.len());
        let mut last_err: Option<McError> = None;
        for _ in 0..STEP_ATTEMPTS {
            if s.iter().all(|&v| v > k) {
                return Ok(());
            }
            let r = self.send_attempt(ep, sched, src, k, &mut s);
            store_progress(ep, &key_s, &s);
            match r {
                Ok(()) => {
                    if s.iter().all(|&v| v > k) {
                        return Ok(());
                    }
                }
                Err(e) if retryable(&e) => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            McError::Transport(format!(
                "send step {k} on port '{}' did not confirm within {STEP_ATTEMPTS} attempts",
                self.port
            ))
        }))
    }

    fn send_attempt<T, S>(
        &mut self,
        ep: &mut Endpoint,
        sched: &Schedule,
        src: &S,
        k: u64,
        s: &mut [u64],
    ) -> Result<(), McError>
    where
        T: Copy + Wire,
        S: McObject<T>,
    {
        let group = sched.group().clone();
        for (i, (peer, _)) in sched.sends.iter().enumerate() {
            if s[i] <= k {
                ep.clear_dead_streams(group.global(*peer));
            }
        }
        ep.arm_eviction();
        let r = send_armed(ep, sched, src, k, s);
        ep.disarm_eviction();
        r
    }

    /// Destination-side step `k`: stage every uncommitted pair's half
    /// and commit it into `dst`, checkpointing the object and the
    /// committed-step vector atomically, then answer with the new
    /// position.  Halves a previous life already committed never reach
    /// this step — `c` short-circuits them, and their replayed bytes
    /// are absorbed by the staging loop of whatever step runs next.
    pub fn recv_step<T, D>(
        &mut self,
        ep: &mut Endpoint,
        sched: &Schedule,
        dst: &mut D,
        k: u64,
    ) -> Result<(), McError>
    where
        T: Copy + Wire,
        D: McObject<T> + Clone + Send + 'static,
    {
        recv_side_guards(sched)?;
        if sched.recvs.is_empty() {
            return Ok(());
        }
        if let Some((o, e)) = stale_pair(dst.epoch(), sched.dst_epoch()) {
            return Err(McError::StaleSchedule {
                object_epoch: o,
                schedule_epoch: e,
            });
        }
        let key_c = self.key("dst_c");
        let mut c = load_progress(ep, &key_c, sched.recvs.len());
        let mut last_err: Option<McError> = None;
        for _ in 0..STEP_ATTEMPTS {
            if c.iter().all(|&v| v > k) {
                return Ok(());
            }
            let r = self.recv_attempt(ep, sched, dst, k, &mut c);
            match r {
                Ok(()) => {
                    if c.iter().all(|&v| v > k) {
                        return Ok(());
                    }
                }
                Err(e) if retryable(&e) => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            McError::Transport(format!(
                "recv step {k} on port '{}' did not commit within {STEP_ATTEMPTS} attempts",
                self.port
            ))
        }))
    }

    fn recv_attempt<T, D>(
        &mut self,
        ep: &mut Endpoint,
        sched: &Schedule,
        dst: &mut D,
        k: u64,
        c: &mut [u64],
    ) -> Result<(), McError>
    where
        T: Copy + Wire,
        D: McObject<T> + Clone + Send + 'static,
    {
        let group = sched.group().clone();
        for (i, (peer, _)) in sched.recvs.iter().enumerate() {
            if c[i] <= k {
                ep.clear_dead_streams(group.global(*peer));
            }
        }
        ep.arm_eviction();
        let r = self.recv_armed(ep, sched, dst, k, c);
        ep.disarm_eviction();
        r
    }

    /// The eviction-armed body of one receive attempt: stage, commit,
    /// checkpoint, and acknowledge every uncommitted pair, holding the
    /// first error so later pairs still make progress.
    fn recv_armed<T, D>(
        &mut self,
        ep: &mut Endpoint,
        sched: &Schedule,
        dst: &mut D,
        k: u64,
        c: &mut [u64],
    ) -> Result<(), McError>
    where
        T: Copy + Wire,
        D: McObject<T> + Clone + Send + 'static,
    {
        let group = sched.group().clone();
        let st = move_stream(sched);
        let mut first_err: Option<McError> = None;
        for (i, (peer, runs)) in sched.recvs.iter().enumerate() {
            if c[i] > k {
                continue;
            }
            let pg = group.global(*peer);
            match stage_session_half(ep, sched, pg, runs, k, c[i]) {
                Ok(parts) => {
                    let span = ep.span_begin(Phase::Commit, || {
                        format!("seq={} peer={pg} step={k}", sched.seq())
                    });
                    let cr = commit_one_half(ep, dst, pg, runs, parts);
                    ep.span_end(span);
                    match cr {
                        Ok(()) => {
                            ep.record_transfer_committed();
                            // No communication happens between here
                            // and the position post, so the object,
                            // the vector, and the commit are atomic
                            // with respect to scripted crashes.
                            self.checkpoint_object(ep, dst);
                            c[i] = k + 1;
                            store_progress(ep, &self.key("dst_c"), c);
                            if let Err(e) = post_ctrl(ep, pg, st, M_POS, k + 1) {
                                hold(&mut first_err, e);
                            }
                        }
                        Err(e) => {
                            let _ = post_ctrl(ep, pg, st, M_NAK, k);
                            hold(&mut first_err, e);
                        }
                    }
                }
                Err(e) => {
                    if retryable(&e) {
                        let _ = post_ctrl(ep, pg, st, M_NAK, k);
                    }
                    hold(&mut first_err, e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Close the session after `steps` steps.  Senders post FIN to every
    /// pair; receivers keep serving replayed halves until every pair's
    /// FIN arrives, so a restarted peer always finds someone to answer.
    /// If the peer is gone for good after the retry budget — and this
    /// side's own obligations are met — the session closes anyway: the
    /// durable state is complete.
    pub fn finish(
        &mut self,
        ep: &mut Endpoint,
        sched: &Schedule,
        steps: u64,
    ) -> Result<(), McError> {
        if !sched.sends.is_empty() {
            self.finish_send(ep, sched, steps)
        } else if !sched.recvs.is_empty() {
            self.finish_recv(ep, sched, steps)
        } else {
            Ok(())
        }
    }

    fn finish_send(
        &mut self,
        ep: &mut Endpoint,
        sched: &Schedule,
        steps: u64,
    ) -> Result<(), McError> {
        let group = sched.group().clone();
        let st = move_stream(sched);
        let mut done = vec![false; sched.sends.len()];
        let mut last_err: Option<McError> = None;
        for _ in 0..STEP_ATTEMPTS {
            ep.arm_eviction();
            let mut first_err: Option<McError> = None;
            for (i, (peer, _)) in sched.sends.iter().enumerate() {
                if done[i] {
                    continue;
                }
                let pg = group.global(*peer);
                ep.clear_dead_streams(pg);
                match post_ctrl(ep, pg, st, M_FIN, steps) {
                    Ok(()) => done[i] = true,
                    Err(e) if retryable(&e) => hold(&mut first_err, e),
                    Err(e) => {
                        ep.disarm_eviction();
                        return Err(e);
                    }
                }
            }
            ep.disarm_eviction();
            match first_err {
                None => return Ok(()),
                Some(e) => last_err = Some(e),
            }
        }
        // Every step is confirmed committed; an unreachable receiver
        // after that many rounds has exited (or is beyond recovery) and
        // owes us nothing.
        ep.mark(|| {
            format!(
                "session '{}' finish: FIN undeliverable ({})",
                self.port,
                last_err.map(|e| e.to_string()).unwrap_or_default()
            )
        });
        Ok(())
    }

    fn finish_recv(
        &mut self,
        ep: &mut Endpoint,
        sched: &Schedule,
        steps: u64,
    ) -> Result<(), McError> {
        let group = sched.group().clone();
        let st = move_stream(sched);
        let c = load_progress(ep, &self.key("dst_c"), sched.recvs.len());
        let mut fin = vec![false; sched.recvs.len()];
        let mut last_err: Option<McError> = None;
        for _ in 0..STEP_ATTEMPTS {
            ep.arm_eviction();
            let mut first_err: Option<McError> = None;
            for (i, (peer, _)) in sched.recvs.iter().enumerate() {
                if fin[i] {
                    continue;
                }
                let pg = group.global(*peer);
                ep.clear_dead_streams(pg);
                match serve_until_fin(ep, pg, st, c[i]) {
                    Ok(()) => fin[i] = true,
                    Err(e) if retryable(&e) => hold(&mut first_err, e),
                    Err(e) => {
                        ep.disarm_eviction();
                        return Err(e);
                    }
                }
            }
            ep.disarm_eviction();
            match first_err {
                None => return Ok(()),
                Some(e) => last_err = Some(e),
            }
        }
        if c.iter().all(|&v| v >= steps) {
            // Everything we owe is committed and checkpointed; a sender
            // that still has not said FIN after that many rounds is gone.
            ep.mark(|| {
                format!(
                    "session '{}' finish: FIN never arrived ({})",
                    self.port,
                    last_err.map(|e| e.to_string()).unwrap_or_default()
                )
            });
            Ok(())
        } else {
            Err(last_err.unwrap_or_else(|| {
                McError::Transport(format!(
                    "session '{}' finish called with uncommitted steps",
                    self.port
                ))
            }))
        }
    }
}

/// The eviction-armed body of one send attempt: post every unconfirmed
/// pair's half *before* waiting on any position, so no receiver's
/// progress waits on another pair's service order, then await each
/// posted pair's confirmation.  The first error is held so later pairs
/// still make progress within the attempt.
fn send_armed<T, S>(
    ep: &mut Endpoint,
    sched: &Schedule,
    src: &S,
    k: u64,
    s: &mut [u64],
) -> Result<(), McError>
where
    T: Copy + Wire,
    S: McObject<T>,
{
    let group = sched.group().clone();
    let st = move_stream(sched);
    let te = step_te(ep, k, sched);
    let mut first_err: Option<McError> = None;
    let mut sent = vec![false; sched.sends.len()];
    for (i, (peer, runs)) in sched.sends.iter().enumerate() {
        if s[i] > k {
            continue;
        }
        match send_one_half(ep, sched, src, te, group.global(*peer), runs) {
            Ok(()) => sent[i] = true,
            Err(e) => hold(&mut first_err, e),
        }
    }
    for (i, (peer, _)) in sched.sends.iter().enumerate() {
        if s[i] > k || !sent[i] {
            continue;
        }
        let pg = group.global(*peer);
        let span = ep.span_begin(Phase::Manifest, || {
            format!("confirm seq={} peer={pg} step={k}", sched.seq())
        });
        let rr = await_pos(ep, pg, st, k, &mut s[i]);
        ep.span_end(span);
        if let Err(e) = rr {
            hold(&mut first_err, e);
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Transfer epoch for session data frames: the step number (plus one, so
/// step 0 outranks every control marker) in the high half, a monotone
/// per-attempt counter in the low half.  The step part lets a receiver
/// discard a previous step's in-flight duplicates without a manifest;
/// the attempt part survives a supervisor restart because the epoch
/// counter lives in the rank's endpoint scratch, which the supervisor
/// carries across the respawn.
fn step_te(ep: &mut Endpoint, k: u64, sched: &Schedule) -> u64 {
    ((k + 1) << 32) | (next_xfer_epoch(ep, sched) & 0xFFFF_FFFF)
}

/// Errors worth another attempt: the peer may be back under a new
/// incarnation (evicted), may still restart (failed, timed out), or the
/// streams carried frames from an abandoned attempt (transport).
fn retryable(e: &McError) -> bool {
    matches!(
        e,
        McError::PeerEvicted { .. }
            | McError::PeerTimeout { .. }
            | McError::PeerFailed { .. }
            | McError::Transport(_)
    )
}

fn hold(slot: &mut Option<McError>, e: McError) {
    if slot.is_none() {
        *slot = Some(e);
    }
}

fn load_progress(ep: &Endpoint, key: &str, n: usize) -> Vec<u64> {
    ep.ckpt_state::<Vec<u64>>(key)
        .filter(|v| v.len() == n)
        .unwrap_or_else(|| vec![0; n])
}

fn store_progress(ep: &mut Endpoint, key: &str, v: &[u64]) {
    ep.ckpt_put_state(key, Vec::new(), v.to_vec());
}

/// Post one control frame `[marker][value]` and flush it.
fn post_ctrl(
    ep: &mut Endpoint,
    to: usize,
    st: StreamTag,
    marker: u64,
    value: u64,
) -> Result<(), McError> {
    let mut buf = ep.take_buf();
    marker.write(&mut buf);
    value.write(&mut buf);
    reliable::reliable_send(ep, to, st, buf)?;
    reliable::flush_send(ep, to, st)?;
    Ok(())
}

/// Sender-side wait: consume the receiver's position reports until the
/// pair's floor passes `k`.  A NAK for the step means the receiver
/// failed to stage this attempt's half — surface a retryable error so
/// the attempt is re-run.  Positions are monotone, so reports from
/// abandoned attempts can never mislead.
fn await_pos(
    ep: &mut Endpoint,
    pg: usize,
    st: StreamTag,
    k: u64,
    floor: &mut u64,
) -> Result<(), McError> {
    while *floor <= k {
        let bytes = reliable::reliable_recv(ep, pg, st)?;
        let mut r = WireReader::new(&bytes);
        let bad = |e| McError::Transport(format!("session frame from rank {pg}: {e}"));
        let marker = u64::read(&mut r).map_err(bad);
        let value = u64::read(&mut r).map_err(bad);
        ep.recycle_buf(bytes);
        match (marker?, value?) {
            (M_POS, v) => *floor = (*floor).max(v),
            (M_NAK, step) if step >= k => {
                return Err(McError::Transport(format!(
                    "receiver rank {pg} could not stage step {step}"
                )));
            }
            (M_NAK, _) => {}
            (m, _) => {
                return Err(McError::Transport(format!(
                    "unexpected session frame (marker {m}) from rank {pg} on the return path"
                )));
            }
        }
    }
    Ok(())
}

/// Collect one pair's half for step `k` from the move stream.  Frames
/// from an older step are replays of a half this receiver already
/// committed: they are dropped, and the completed stale half is
/// answered with the receiver's current position `pos` (and counted as
/// replayed parts) so a resending sender catches up.  An attempt-epoch
/// jump mid-collection exposes the partial half of an attempt the
/// sender abandoned (its eviction purged the unsent tail); the partial
/// is dropped and collection restarts at the new epoch.  On error the
/// partial parts are recycled and nothing escapes.
fn stage_session_half(
    ep: &mut Endpoint,
    sched: &Schedule,
    pg: usize,
    runs: &AddrRuns,
    k: u64,
    pos: u64,
) -> Result<Vec<Vec<u8>>, McError> {
    let st = move_stream(sched);
    let esz = sched.elem_size() as usize;
    let span = ep.span_begin(Phase::Stage, || {
        format!("seq={} peer={pg} step={k}", sched.seq())
    });
    let r = stage_session_loop(ep, st, esz, pg, runs, k, pos);
    ep.span_end(span);
    r
}

fn stage_session_loop(
    ep: &mut Endpoint,
    st: StreamTag,
    esz: usize,
    pg: usize,
    runs: &AddrRuns,
    k: u64,
    pos: u64,
) -> Result<Vec<Vec<u8>>, McError> {
    let want = k + 1;
    let mut parts: Vec<Vec<u8>> = Vec::new();
    let mut got = 0usize;
    let mut cur_epoch = 0u64;
    let mut replayed = 0usize;
    let fail = |ep: &mut Endpoint, parts: Vec<Vec<u8>>, e: McError| {
        for b in parts {
            ep.recycle_buf(b);
        }
        Err(e)
    };
    loop {
        let bytes = match reliable::reliable_recv(ep, pg, st) {
            Ok(b) => b,
            Err(e) => return fail(ep, parts, e.into()),
        };
        let mut r = WireReader::new(&bytes);
        let bad = |e| McError::Transport(format!("data frame from rank {pg}: {e}"));
        let head = u64::read(&mut r).map_err(bad);
        let te = match head {
            Ok(v) => v,
            Err(e) => {
                ep.recycle_buf(bytes);
                return fail(ep, parts, e);
            }
        };
        if te < DATA_FLOOR {
            // A control frame can only be a sender's FIN — and a sender
            // cannot finish while this pair still owes it a position.
            ep.recycle_buf(bytes);
            let e = McError::Transport(format!(
                "unexpected control frame (marker {te}) from rank {pg} while staging step {k}"
            ));
            return fail(ep, parts, e);
        }
        let (last, count) = {
            let last = u8::read(&mut r).map_err(bad);
            let count = usize::read(&mut r).map_err(bad);
            match (last, count) {
                (Ok(l), Ok(c)) => (l != 0, c),
                (Err(e), _) | (_, Err(e)) => {
                    ep.recycle_buf(bytes);
                    return fail(ep, parts, e);
                }
            }
        };
        let (step, epoch) = (te >> 32, te & 0xFFFF_FFFF);
        if step < want {
            // Replay of a half an earlier step (possibly an earlier
            // life) already accepted.
            replayed += 1;
            ep.recycle_buf(bytes);
            if last {
                ep.record_stale_half();
                ep.record_parts_replayed(pg, replayed);
                replayed = 0;
                if let Err(e) = post_ctrl(ep, pg, st, M_POS, pos) {
                    return fail(ep, parts, e);
                }
            }
            continue;
        }
        if step > want {
            let e = McError::Transport(format!(
                "data frame from rank {pg} is for session step {}, expected {k}",
                step - 1
            ));
            return fail(ep, parts, e);
        }
        if !parts.is_empty() && epoch < cur_epoch {
            ep.record_stale_half();
            ep.recycle_buf(bytes);
            continue;
        }
        if parts.is_empty() || epoch > cur_epoch {
            for b in parts.drain(..) {
                ep.recycle_buf(b);
            }
            got = 0;
            cur_epoch = epoch;
        }
        if esz != 0 && r.remaining() != count * esz {
            let e = McError::Transport(format!(
                "part from rank {pg} has {} payload bytes, expected {}",
                r.remaining(),
                count * esz
            ));
            return fail(ep, parts, e);
        }
        got += count;
        if got > runs.len() || (last && got != runs.len()) {
            let e = McError::Transport(format!(
                "half from rank {pg} carries {got} elements, schedule expects {}",
                runs.len()
            ));
            return fail(ep, parts, e);
        }
        ep.record_staged_frame();
        parts.push(bytes);
        if last {
            return Ok(parts);
        }
    }
}

/// Receiver-side close for one pair: drain replayed halves (answering
/// each completed one with our position) until the sender's FIN.
fn serve_until_fin(ep: &mut Endpoint, pg: usize, st: StreamTag, pos: u64) -> Result<(), McError> {
    let mut replayed = 0usize;
    loop {
        let bytes = reliable::reliable_recv(ep, pg, st)?;
        let mut r = WireReader::new(&bytes);
        let bad = |e| McError::Transport(format!("session frame from rank {pg}: {e}"));
        let head = u64::read(&mut r).map_err(bad);
        let te = match head {
            Ok(v) => v,
            Err(e) => {
                ep.recycle_buf(bytes);
                return Err(e);
            }
        };
        if te == M_FIN {
            ep.recycle_buf(bytes);
            return Ok(());
        }
        if te < DATA_FLOOR {
            ep.recycle_buf(bytes);
            continue;
        }
        let last = u8::read(&mut r).map(|v| v != 0);
        ep.recycle_buf(bytes);
        // Every data frame here is a replay: finish is only reached
        // once every step committed.
        replayed += 1;
        if last.map_err(bad)? {
            ep.record_stale_half();
            ep.record_parts_replayed(pg, replayed);
            replayed = 0;
            post_ctrl(ep, pg, st, M_POS, pos)?;
        }
    }
}
