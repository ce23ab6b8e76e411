//! One-sided communication: exposed windows with `put`/`get` and
//! remote-completion notification.
//!
//! The latency-hiding designs this follows (BCL's distributed containers,
//! DART-MPI's put/get with local-completion semantics) decouple data
//! movement from the target's program: the target *exposes* a window once
//! and keeps computing; origins write into it (`put`) or read from it
//! (`get`) without the target posting a matching receive.
//!
//! * [`expose`] registers a local byte window under a small integer id.
//! * [`put`] streams bytes into a remote window.  Puts ride the sliding-
//!   window reliable transport on a *sink stream* — a
//!   [`StreamTag`] whose stream id carries the
//!   sink bits — so they get chunking, retransmission, and dedup for
//!   free, and they are applied to the target's window **at intake** (the
//!   simulated NIC), charging nothing to the target's program clock.
//!   [`put_notify`] additionally bumps the window's notification count on
//!   completion; the target observes it with [`wait_notify`].
//!   [`put_flush`] waits for transport-level remote completion (all
//!   frames acked) of every put this origin issued to one window.
//! * [`get`] is a request/reply RPC on the dedicated
//!   [`Tag::CLASS_ONESIDED_CTRL`] class: the target's NIC answers from
//!   the exposed window at protocol turnaround time, again without
//!   involving the target's program.
//!
//! Puts that arrive before the target has exposed the window are held and
//! applied (in arrival order) when [`expose`] runs — an origin never has
//! to synchronize with the target's exposure.
//!
//! The control class `0x7` is excluded from the default fault mask (it is
//! pure control plane, like the reliable ACK path); the put data plane
//! inherits the full fault tolerance of the reliable transport.
//! Notification ordering is deterministic for a single writer per window
//! (frames of one stream are delivered in order); with multiple
//! concurrent writers the *count* is deterministic but the interleaving
//! of their arrival times is not specified.

use std::collections::HashMap;

use crate::endpoint::Endpoint;
use crate::error::SimError;
use crate::message::{Body, Message, Rank};
use crate::recovery::GET_ATTEMPTS;
use crate::reliable::{self, StreamTag};
use crate::tag::Tag;

/// Bit pattern marking a reliable stream id as a one-sided sink.
const SINK_BITS: u32 = 0x0800_0000;
/// Two-bit discriminator field: both bits set (e.g. the manifest stream
/// `0x0FFF_FFFF`) is *not* a sink, so session streams can keep using ids
/// with high bits.
const SINK_MASK: u32 = 0x0C00_0000;
/// Window ids live in the low 26 bits of a sink stream id.
const WIN_MASK: u32 = 0x03FF_FFFF;

const OP_PUT: u8 = 1;
const OP_PUT_NOTIFY: u8 = 2;

/// Put payload header: `[op u8][offset u64]`.
const PUT_HDR: usize = 9;

const K_GET: u8 = 1;
const K_GET_REPLY: u8 = 2;
/// Heartbeat frame: `[K_BEAT][incarnation u64][clock f64]`, broadcast by
/// the failure detector (see [`crate::recovery::RecoveryConfig`]).
pub(crate) const K_BEAT: u8 = 3;

/// Stream id heartbeats ride on: class `0x7`, discriminator bits clear
/// (not a sink), below the session streams' high range.
const BEAT_STREAM: u32 = 0x02FF_FFFF;

/// The control tag heartbeat broadcasts travel on.
pub(crate) fn beat_tag() -> Tag {
    Tag::new(
        Tag::FIRST_USER_CTX,
        (Tag::CLASS_ONESIDED_CTRL << 28) | BEAT_STREAM,
    )
}

/// True when a reliable DATA tag addresses a one-sided sink window
/// rather than a matched-receive stream.
pub(crate) fn is_sink_tag(t: Tag) -> bool {
    t.value() & SINK_MASK == SINK_BITS
}

fn sink_stream(win: u32) -> u32 {
    SINK_BITS | (win & WIN_MASK)
}

fn win_of_tag(t: Tag) -> u32 {
    t.value() & WIN_MASK
}

/// The reliable stream an origin's puts to `(ctx, win)` travel on.
fn sink_tag(ctx: u32, win: u32) -> StreamTag {
    StreamTag::new(ctx, sink_stream(win))
}

/// The control tag get-RPC traffic for `(ctx, win)` uses.
fn get_tag(ctx: u32, win: u32) -> Tag {
    Tag::new(ctx, (Tag::CLASS_ONESIDED_CTRL << 28) | sink_stream(win))
}

#[derive(Debug)]
struct OsWindow {
    data: Vec<u8>,
    /// Arrival times of completed notifying puts, in application order.
    notify_times: Vec<f64>,
}

#[derive(Debug)]
struct PutOp {
    offset: usize,
    data: Vec<u8>,
    notify: bool,
    arrival: f64,
}

#[derive(Debug)]
struct GetReply {
    arrival: f64,
    ok: bool,
    data: Vec<u8>,
}

/// Per-endpoint one-sided state: exposed windows, early puts, and
/// outstanding get requests.
#[derive(Debug, Default)]
pub(crate) struct OnesidedState {
    windows: HashMap<u32, OsWindow>,
    /// Puts that arrived before their window was exposed, in arrival
    /// order, keyed by window id.
    pending_puts: Vec<(u32, PutOp)>,
    get_replies: HashMap<u64, GetReply>,
    next_req: u64,
}

impl OnesidedState {
    /// Drop all one-sided state from the crashed life — exposed windows,
    /// early puts, buffered replies — but keep the request-id counter
    /// monotone so a late reply from the old life can never satisfy a
    /// request issued by the new one.
    pub(crate) fn reset_keep_reqs(&mut self) {
        self.windows.clear();
        self.pending_puts.clear();
        self.get_replies.clear();
    }
}

/// Expose `data` as one-sided window `win` on this rank.  Puts that
/// already arrived for `win` are applied now, in arrival order.  Exposing
/// a window id twice replaces the previous window (its bytes are
/// returned, as from [`window_bytes`]).
pub fn expose(ep: &mut Endpoint, win: u32, data: Vec<u8>) -> Option<Vec<u8>> {
    let win = win & WIN_MASK;
    let prev = ep.os.windows.insert(
        win,
        OsWindow {
            data,
            notify_times: Vec::new(),
        },
    );
    let mut early: Vec<PutOp> = Vec::new();
    ep.os.pending_puts.retain_mut(|(w, op)| {
        if *w == win {
            early.push(PutOp {
                data: std::mem::take(&mut op.data),
                ..*op
            });
            false
        } else {
            true
        }
    });
    for op in early {
        apply_op(ep, win, op.offset, &op.data, op.notify, op.arrival);
    }
    prev.map(|w| w.data)
}

/// Withdraw window `win`, returning its current bytes (with every applied
/// put visible).  Subsequent puts to `win` are held as pending again.
pub fn window_bytes(ep: &mut Endpoint, win: u32) -> Option<Vec<u8>> {
    ep.os.windows.remove(&(win & WIN_MASK)).map(|w| w.data)
}

fn post_put(
    ep: &mut Endpoint,
    target: Rank,
    ctx: u32,
    win: u32,
    offset: usize,
    data: &[u8],
    op: u8,
) -> Result<(), SimError> {
    let mut payload = ep.take_buf();
    payload.push(op);
    payload.extend_from_slice(&(offset as u64).to_le_bytes());
    payload.extend_from_slice(data);
    reliable_put_send(ep, target, ctx, win, payload)
}

fn reliable_put_send(
    ep: &mut Endpoint,
    target: Rank,
    ctx: u32,
    win: u32,
    payload: Vec<u8>,
) -> Result<(), SimError> {
    reliable::reliable_send(ep, target, sink_tag(ctx, win), payload)
}

/// Stream `data` into remote window `win` on `target` at byte `offset`.
/// Returns once every frame is posted (local completion); use
/// [`put_flush`] for transport-level remote completion.
pub fn put(
    ep: &mut Endpoint,
    target: Rank,
    ctx: u32,
    win: u32,
    offset: usize,
    data: &[u8],
) -> Result<(), SimError> {
    post_put(ep, target, ctx, win, offset, data, OP_PUT)
}

/// Like [`put`], but the target's window records a completion
/// notification (observable via [`wait_notify`]) when the final frame is
/// applied.
pub fn put_notify(
    ep: &mut Endpoint,
    target: Rank,
    ctx: u32,
    win: u32,
    offset: usize,
    data: &[u8],
) -> Result<(), SimError> {
    post_put(ep, target, ctx, win, offset, data, OP_PUT_NOTIFY)
}

/// Wait until every put this origin issued toward `(target, ctx, win)`
/// has been acknowledged by the target's transport (remote completion).
pub fn put_flush(ep: &mut Endpoint, target: Rank, ctx: u32, win: u32) -> Result<(), SimError> {
    reliable::flush_send(ep, target, sink_tag(ctx, win))
}

/// Block until local window `win` has observed at least `n` notifying
/// puts, advancing this rank's clock to the `n`-th notification's arrival.
pub fn wait_notify(ep: &mut Endpoint, win: u32, n: usize) -> Result<(), SimError> {
    let win = win & WIN_MASK;
    if n == 0 {
        return Ok(());
    }
    loop {
        let t = ep
            .os
            .windows
            .get(&win)
            .and_then(|w| w.notify_times.get(n - 1).copied());
        if let Some(t) = t {
            ep.advance_to(t);
            return Ok(());
        }
        ep.pump_one()?;
    }
}

/// Read `len` bytes at `offset` from remote window `win` on `target`.
/// The target's NIC answers from the exposed window at protocol
/// turnaround time; the target's program is not involved.  Fails with
/// [`SimError::Decode`] when the window is not exposed or the range is
/// out of bounds, and with [`SimError::PeerTimeout`] when the request or
/// reply is lost for the whole retry budget (a faulted 0x7 class).
///
/// The request and reply ride tag class 0x7 with no sequencing of their
/// own, so a faulted control plane loses them whole; re-sending under the
/// same request id is idempotent (a late or duplicated reply just
/// overwrites the same `get_replies` slot).  An attempt ends when the
/// world goes quiescent with no reply; after
/// [`crate::recovery::GET_ATTEMPTS`] of them the get gives up.
pub fn get(
    ep: &mut Endpoint,
    target: Rank,
    ctx: u32,
    win: u32,
    offset: usize,
    len: usize,
) -> Result<Vec<u8>, SimError> {
    let tag = get_tag(ctx, win);
    let req = ep.os.next_req;
    ep.os.next_req += 1;
    for attempt in 0..GET_ATTEMPTS {
        let mut frame = ep.take_buf();
        frame.push(K_GET);
        frame.extend_from_slice(&req.to_le_bytes());
        frame.extend_from_slice(&(offset as u64).to_le_bytes());
        frame.extend_from_slice(&(len as u64).to_le_bytes());
        ep.send(target, tag, frame);
        loop {
            if let Some(reply) = ep.os.get_replies.remove(&req) {
                // Mirror a matched receive: wait for the reply's arrival
                // and pay the receive cost on its frame bytes.
                ep.accept_chunk(target, tag, reply.arrival, reply.data.len() + 10);
                if !reply.ok {
                    return Err(SimError::Decode(format!(
                        "one-sided get: window {win} rejected [{offset}, +{len}) on rank {target}"
                    )));
                }
                return Ok(reply.data);
            }
            // An armed eviction baseline fails the RPC fast: the target
            // restarted, and its new life serves a different world of
            // windows.
            ep.check_evicted(target)?;
            // Silence means the request or its reply was lost in flight —
            // fall out to re-send the same request id.
            if !ep.pump_some()? {
                ep.mark(
                    format!(
                        "onesided get retry req={req} win={win} attempt={}",
                        attempt + 1
                    )
                    .into(),
                );
                break;
            }
        }
    }
    Err(SimError::PeerTimeout { rank: target })
}

/// Apply a put of `data` at `offset` to window `win`, or hold a copy of it
/// until `win` is exposed.
fn apply_op(ep: &mut Endpoint, win: u32, offset: usize, data: &[u8], notify: bool, arrival: f64) {
    let Some(w) = ep.os.windows.get_mut(&win) else {
        let data = data.to_vec();
        let op = PutOp {
            offset,
            data,
            notify,
            arrival,
        };
        ep.os.pending_puts.push((win, op));
        return;
    };
    match offset.checked_add(data.len()) {
        Some(end) if end <= w.data.len() => {
            w.data[offset..end].copy_from_slice(data);
            if notify {
                w.notify_times.push(arrival);
            }
        }
        _ => {
            let (len, wlen) = (data.len(), w.data.len());
            ep.mark(
                format!("onesided put out of range win={win} off={offset} len={len} window={wlen}")
                    .into(),
            );
        }
    }
}

/// Apply one completed put message to its sink window.  Called by the
/// reliable intake (NIC plane) once all frames of the put assembled; the
/// target's program clock is never charged.
pub(crate) fn apply_put(ep: &mut Endpoint, src: Rank, tag: Tag, payload: &[u8], arrival: f64) {
    let win = win_of_tag(tag);
    if payload.len() < PUT_HDR {
        ep.mark(format!("onesided put truncated from rank {src} win={win}").into());
        return;
    }
    let op = payload[0];
    if op != OP_PUT && op != OP_PUT_NOTIFY {
        ep.mark(format!("onesided put bad op {op} from rank {src} win={win}").into());
        return;
    }
    let offset = u64::from_le_bytes(payload[1..9].try_into().unwrap()) as usize;
    let notify = op == OP_PUT_NOTIFY;
    apply_op(ep, win, offset, &payload[PUT_HDR..], notify, arrival);
}

/// Intake for [`Tag::CLASS_ONESIDED_CTRL`] traffic: GET requests are
/// answered from the exposed window at NIC turnaround; GET replies are
/// filed for the waiting origin.  The class is excluded from the default
/// fault mask; under a plan that faults it anyway, lost requests or
/// replies are re-issued by [`get`]'s bounded retry (same request id, so
/// duplicate service is idempotent) and surface as
/// [`SimError::PeerTimeout`] once the attempt budget is spent.
pub(crate) fn intake_ctrl(ep: &mut Endpoint, msg: Message) {
    let Some(bytes) = msg.body.bytes() else {
        // Tombstones and poison never carry a usable control frame;
        // poison is filtered before intake, dropped requests are lost.
        return;
    };
    if bytes.is_empty() {
        return;
    }
    let src = msg.src;
    let tag = msg.tag;
    let arrival = msg.arrival;
    match bytes[0] {
        K_GET if bytes.len() >= 25 => {
            let req = u64::from_le_bytes(bytes[1..9].try_into().unwrap());
            let offset = u64::from_le_bytes(bytes[9..17].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[17..25].try_into().unwrap()) as usize;
            let win = win_of_tag(tag);
            let slice = ep.os.windows.get(&win).and_then(|w| {
                let end = offset.checked_add(len)?;
                w.data.get(offset..end)
            });
            let mut reply = Vec::with_capacity(10 + slice.map_or(0, |s| s.len()));
            reply.push(K_GET_REPLY);
            reply.extend_from_slice(&req.to_le_bytes());
            match slice {
                Some(s) => {
                    reply.push(1);
                    reply.extend_from_slice(s);
                }
                None => reply.push(0),
            }
            let at = reliable::turnaround(ep, arrival);
            ep.nic_send(src, tag, Body::Data(reply), at);
        }
        K_GET_REPLY if bytes.len() >= 10 => {
            let req = u64::from_le_bytes(bytes[1..9].try_into().unwrap());
            let ok = bytes[9] == 1;
            let data = bytes[10..].to_vec();
            ep.os
                .get_replies
                .insert(req, GetReply { arrival, ok, data });
        }
        K_BEAT if bytes.len() >= 17 => {
            let inc = u64::from_le_bytes(bytes[1..9].try_into().unwrap());
            ep.note_peer_incarnation(src, inc);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MachineModel;
    use crate::reliable::CHUNK_BYTES;
    use crate::world::World;

    const CTX: u32 = Tag::FIRST_USER_CTX;

    #[test]
    fn sink_tags_are_disjoint_from_session_streams() {
        let st = sink_tag(CTX, 5);
        assert!(is_sink_tag(st.data()));
        // Ordinary session streams (small ids) are not sinks.
        assert!(!is_sink_tag(StreamTag::new(CTX, 3).data()));
        // The manifest stream has both discriminator bits set: not a sink.
        assert!(!is_sink_tag(StreamTag::new(CTX, 0x0FFF_FFFF).data()));
        assert_eq!(get_tag(CTX, 5).class(), Tag::CLASS_ONESIDED_CTRL);
    }

    #[test]
    fn put_lands_in_exposed_window_without_target_recv() {
        let world = World::with_model(2, MachineModel::sp2());
        let out = world.run(|ep| {
            if ep.rank() == 0 {
                expose(ep, 1, vec![0u8; 64]);
                wait_notify(ep, 1, 1).unwrap();
                window_bytes(ep, 1).unwrap()
            } else {
                put(ep, 0, CTX, 1, 8, &[7u8; 16]).unwrap();
                put_notify(ep, 0, CTX, 1, 40, &[9u8; 4]).unwrap();
                put_flush(ep, 0, CTX, 1).unwrap();
                Vec::new()
            }
        });
        let win = &out.results[0];
        assert_eq!(&win[8..24], &[7u8; 16]);
        assert_eq!(&win[40..44], &[9u8; 4]);
        assert_eq!(win[0], 0);
        assert_eq!(win[24], 0);
    }

    #[test]
    fn put_before_expose_is_held_and_applied() {
        // Self-puts on a 1-rank world: the put is pumped (and applied, or
        // held) during the flush, strictly before the window exists.
        let world = World::with_model(1, MachineModel::zero());
        let out = world.run(|ep| {
            put_notify(ep, 0, CTX, 2, 4, &[0xABu8; 8]).unwrap();
            put_flush(ep, 0, CTX, 2).unwrap();
            expose(ep, 2, vec![0u8; 16]);
            wait_notify(ep, 2, 1).unwrap();
            window_bytes(ep, 2).unwrap()
        });
        assert_eq!(&out.results[0][4..12], &[0xABu8; 8]);
    }

    #[test]
    fn large_put_streams_in_chunks() {
        let n = 4 * CHUNK_BYTES;
        let world = World::with_model(2, MachineModel::zero());
        let out = world.run(move |ep| {
            if ep.rank() == 0 {
                expose(ep, 3, vec![0u8; n]);
                wait_notify(ep, 3, 1).unwrap();
                window_bytes(ep, 3).unwrap()
            } else {
                let data: Vec<u8> = (0..n).map(|i| (i % 249) as u8).collect();
                put_notify(ep, 0, CTX, 3, 0, &data).unwrap();
                put_flush(ep, 0, CTX, 3).unwrap();
                data
            }
        });
        assert_eq!(out.results[0], out.results[1]);
        // The put went out as multiple reliable frames (header + four
        // chunks' worth of data), not one giant frame.
        assert!(out.stats.msgs[1][0] > 4);
    }

    #[test]
    fn get_reads_remote_window_and_checks_bounds() {
        let world = World::with_model(2, MachineModel::sp2());
        let out = world.run(|ep| {
            if ep.rank() == 0 {
                let data: Vec<u8> = (0..64u8).collect();
                expose(ep, 4, data);
                // Return immediately: the teardown service loop answers
                // the RPC from the NIC plane.
                Vec::new()
            } else {
                let got = get(ep, 0, CTX, 4, 16, 8).unwrap();
                assert!(get(ep, 0, CTX, 4, 60, 8).is_err(), "oob get must fail");
                assert!(get(ep, 0, CTX, 9, 0, 1).is_err(), "unknown window");
                got
            }
        });
        assert_eq!(out.results[1], (16..24u8).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_range_put_is_dropped_not_applied() {
        let world = World::with_model(2, MachineModel::zero());
        let out = world.run(|ep| {
            if ep.rank() == 0 {
                expose(ep, 5, vec![0u8; 8]);
                // A valid notifying put sequences after the bad one on the
                // same stream, so waiting for it bounds the test.
                wait_notify(ep, 5, 1).unwrap();
                window_bytes(ep, 5).unwrap()
            } else {
                put(ep, 0, CTX, 5, 6, &[1u8; 8]).unwrap();
                put_notify(ep, 0, CTX, 5, 0, &[2u8; 2]).unwrap();
                put_flush(ep, 0, CTX, 5).unwrap();
                Vec::new()
            }
        });
        assert_eq!(out.results[0], vec![2, 2, 0, 0, 0, 0, 0, 0]);
    }
}
