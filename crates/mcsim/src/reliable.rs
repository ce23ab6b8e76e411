//! A reliable delivery layer over the (possibly faulted) simulated network.
//!
//! The raw [`Endpoint`] channel is physically
//! FIFO and lossless, but a [`crate::fault::FaultPlan`] makes it lossy:
//! frames are dropped (delivered as tombstones), duplicated, bit-flipped,
//! or delayed.  This module implements a **sliding-window** protocol per
//! `(peer, stream)` that survives all of that while keeping many frames in
//! flight:
//!
//! * **DATA frames** are the payload plus a 24-byte trailer
//!   `[seq u64][attempt u16][flags u16][magic u32][checksum u64]` —
//!   trailer at the end so the payload is recovered by a zero-copy
//!   truncate.  The `FLAG_LAST` bit marks the final frame of a logical
//!   message; [`reliable_send`] chunks large payloads into
//!   [`CHUNK_BYTES`]-sized frames so a multi-megabyte move streams as
//!   many moderate frames instead of one giant frame.
//! * **Control frames** are 9 bytes, `[kind u8][seq u64]`, with kinds
//!   ACK / NACK / GIVEUP, and are never bit-flipped by the injector (a
//!   few bytes against multi-megabyte payloads).
//! * The sender admits up to [`ReliableConfig::window_frames`] frames
//!   before stalling; a stall pumps the protocol until acks open the
//!   window again.
//! * **ACKs are cumulative**: `ACK(n)` retires every pending frame with
//!   `seq <= n`.  The receiver acks on every in-order delivery, so one ack
//!   can advance the window over several frames at once.
//! * **NACKs are selective**: a tombstone or checksum failure NACKs the
//!   first sequence number the receiver has not yet seen (FIFO channels
//!   make that inference exact for single losses); the sender retransmits
//!   the named frame, or its oldest pending frame when the name has
//!   already been retired (which heals lost retransmissions and tail
//!   loss).
//! * Frames arriving **out of order inside the window** (a retransmission
//!   overtaken by later frames) are buffered and delivered in sequence;
//!   duplicates (`seq` below the expected counter, or already buffered)
//!   are dropped.
//! * Every frame carries an exponential-backoff virtual-clock deadline.
//!   When an ack arrives after a pending frame's deadline has passed, the
//!   sweep retransmits every such frame in one **retransmit burst** (the
//!   windowed analogue of a timeout firing).  After 24 retransmissions
//!   of any frame the sender sends GIVEUP and the stream turns into
//!   [`SimError::PeerTimeout`] on both sides — a permanent partition
//!   degrades into an error, not a hang.
//!
//! Streams whose id carries the one-sided sink bits (see
//! [`crate::onesided`]) deliver into exposed windows at intake instead of
//! queueing for a matching `reliable_recv` — that is the put/get data
//! plane.
//!
//! Two modeling choices keep virtual time independent of when a rank
//! happens to pump its mailbox:
//!
//! * All protocol sends happen on the **NIC plane**: their timestamps
//!   derive from the *arrival* of the frame that triggered them, not from
//!   whenever the receiving rank got around to draining its channel,
//!   and they charge nothing to the app-level clock.
//! * Loss is **observable**: a dropped frame still delivers a tombstone
//!   carrying a prefix of the original bytes, so a lost ACK is decoded
//!   from its tombstone and still confirms delivery (the simulator grants
//!   the timer knowledge a real NIC gets from its retransmission clock),
//!   while a lost DATA frame triggers an immediate NACK.
//!
//! Checksums are computed and verified only when a fault plan is active;
//! the fault-free fast path pays just the trailer bytes and the ack
//! round-trip in virtual time.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::ops::Deref;
use std::sync::Arc;

use crate::endpoint::Endpoint;
use crate::error::SimError;
use crate::message::{Body, Message, Rank};
use crate::model::MachineModel;
use crate::tag::Tag;
use crate::trace::TraceEvent;

/// Trailer appended to every DATA frame.
pub const TRAILER_LEN: usize = 24;
/// Length of a control frame.
pub const CTRL_LEN: usize = 9;
/// Frame-format magic ("MCR2" — the windowed revision).
const MAGIC: u32 = 0x4D43_5232;

/// Trailer flag: this frame completes its logical message.
const FLAG_LAST: u16 = 1;

const K_ACK: u8 = 1;
const K_NACK: u8 = 2;
const K_GIVEUP: u8 = 3;

/// The tag pair a reliable stream runs on: DATA frames on the
/// [`Tag::CLASS_RELIABLE_DATA`] class, control frames on
/// [`Tag::CLASS_RELIABLE_CTRL`], same context and stream id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamTag {
    data: Tag,
    ctrl: Tag,
}

impl StreamTag {
    /// A stream identified by `(ctx, stream)`; only the low 28 bits of
    /// `stream` are used (the high nibble is the class).
    pub fn new(ctx: u32, stream: u32) -> Self {
        let s = stream & 0x0FFF_FFFF;
        StreamTag {
            data: Tag::new(ctx, (Tag::CLASS_RELIABLE_DATA << 28) | s),
            ctrl: Tag::new(ctx, (Tag::CLASS_RELIABLE_CTRL << 28) | s),
        }
    }

    /// The DATA-frame tag.
    pub fn data(&self) -> Tag {
        self.data
    }

    /// The control-frame tag.
    pub fn ctrl(&self) -> Tag {
        self.ctrl
    }
}

fn data_tag_of_ctrl(ctrl: Tag) -> Tag {
    Tag::new(
        ctrl.ctx(),
        (Tag::CLASS_RELIABLE_DATA << 28) | (ctrl.value() & 0x0FFF_FFFF),
    )
}

fn ctrl_tag_of_data(data: Tag) -> Tag {
    Tag::new(
        data.ctx(),
        (Tag::CLASS_RELIABLE_CTRL << 28) | (data.value() & 0x0FFF_FFFF),
    )
}

/// Payloads longer than this are split into frames of at most this many
/// bytes, so packing/unpacking can overlap wire time.
pub const CHUNK_BYTES: usize = 256 << 10;
/// Slack added to the modeled round trip before an ack counts as late.
const BASE_TIMEOUT: f64 = 200e-6;
/// Deadline multiplier per retransmission attempt.
const BACKOFF: f64 = 2.0;
/// Retransmissions before the sender gives up on the peer.
const MAX_RETRIES: u32 = 24;

/// Sliding-window size for reliable streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliableConfig {
    /// Maximum unacknowledged frames in flight per `(peer, stream)`.
    /// `1` degenerates to stop-and-wait.
    pub window_frames: usize,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig { window_frames: 64 }
    }
}

/// Backoff exponents above this are clamped: `2^20` already multiplies the
/// deadline by a million, and larger exponents only invite `inf`.
const MAX_BACKOFF_EXP: u32 = 20;
/// Hard cap on any single ack deadline, in virtual seconds.  No attempt
/// count can push a deadline past this (let alone to `inf`, which would
/// make a stream unretirable).
const MAX_TIMEOUT: f64 = 600.0;

impl ReliableConfig {
    /// The stop-and-wait ablation: one frame in flight.  Used by benches
    /// to measure what the sliding window buys.
    pub fn stop_and_wait() -> Self {
        ReliableConfig { window_frames: 1 }
    }
}

/// Ack deadline for a frame of `bytes` on its `attempt`-th try.
///
/// The exponent is clamped and the result capped so a hostile fault plan
/// driving `attempt` high cannot overflow the deadline to `inf` — an
/// infinite deadline would never expire.
fn timeout_for(model: &MachineModel, bytes: usize, attempt: u32) -> f64 {
    let rtt = model.transit(bytes)
        + model.transit(CTRL_LEN)
        + model.send_overhead
        + model.recv_overhead
        + BASE_TIMEOUT;
    let exp = attempt.min(MAX_BACKOFF_EXP) as i32;
    (rtt * BACKOFF.powi(exp)).min(MAX_TIMEOUT)
}

#[derive(Debug)]
struct PendingSend {
    seq: u64,
    attempt: u32,
    /// The sent frame, shared with the copy in flight — kept only when
    /// faults are enabled, so the fault-free fast path holds no frame.
    frame: Option<Arc<Vec<u8>>>,
    bytes: usize,
    deadline: f64,
}

#[derive(Debug, Default)]
struct SendStream {
    next_seq: u64,
    /// Unacknowledged frames, oldest first (seq-ordered).
    pending: VecDeque<PendingSend>,
    /// Total bytes of `pending` frames.
    in_flight_bytes: usize,
    /// Sequence number already fast-retransmitted in response to a
    /// duplicate cumulative ack — at most one fast retransmit per
    /// distinct blocking frame, so dup-ack bursts cannot burn the retry
    /// budget.
    fast_retx: Option<u64>,
    dead: bool,
    dead_at: f64,
    complete_at: f64,
}

/// One logical message ready for `reliable_recv`.
#[derive(Debug)]
enum ReadyFrame {
    /// A single-frame message: delivered zero-copy (accept + truncate),
    /// byte- and trace-identical to the pre-window protocol.
    Whole(Message),
    /// A chunked message reassembled at intake; `chunks` records each
    /// frame's `(arrival, frame bytes)` so the receive charge mirrors
    /// per-frame accepts.
    Assembled {
        payload: Vec<u8>,
        chunks: Vec<(f64, usize)>,
    },
}

#[derive(Debug, Default)]
struct RecvStream {
    /// Next sequence number to deliver.
    expected: u64,
    /// One past the highest sequence number seen or inferred from a
    /// tombstone — what a NACK asks for after a loss.
    next_unseen: u64,
    /// Valid frames ahead of `expected` (retransmission overtaken by later
    /// frames), waiting for the gap to fill.
    reorder: BTreeMap<u64, Message>,
    /// The gap sequence a NACK was already sent for — one gap NACK per
    /// distinct blocking frame, so a long out-of-order run does not flood
    /// the sender with loss reports for the same frame.
    gap_nacked: Option<u64>,
    /// Payload bytes of a partially assembled chunked message.
    assembly: Vec<u8>,
    /// `(arrival, frame bytes)` of each chunk in `assembly`.
    assembly_chunks: Vec<(f64, usize)>,
    /// Complete messages awaiting `reliable_recv`.
    ready: VecDeque<ReadyFrame>,
    dead: bool,
    dead_at: f64,
}

/// What an idle [`SendStream`] — nothing unacknowledged, not dead — still
/// has to remember.
#[derive(Debug, Clone, Copy)]
struct IdleSend {
    next_seq: u64,
    complete_at: f64,
}

/// What an idle [`RecvStream`] — nothing buffered, no gap reported, not
/// dead — still has to remember.
#[derive(Debug, Clone, Copy)]
struct IdleRecv {
    expected: u64,
    next_unseen: u64,
}

/// `(peer global rank, data-tag bits)`.
type StreamKey = (Rank, u64);

/// The stream tables' map.  A fixed hasher makes growth and rehashing, and
/// so what the process allocates, repeat from run to run; the keys are the
/// simulator's own ranks and tags, never outside input, and the tables are
/// only iterated by `retain`, which does not depend on their order.
type Streams<V> = HashMap<StreamKey, V, BuildHasherDefault<DefaultHasher>>;

/// Per-endpoint reliable-transport state: one stream table per direction,
/// keyed by `(peer global rank, data-tag bits)`.
///
/// A stream's sequence state is never forgotten (a late duplicate must
/// still read as one), and a fresh schedule means fresh tag bits, so a
/// program that builds a schedule per step adds a stream per peer and
/// step.  Hence *parking*: the creation of a stream the endpoint has never
/// seen — the sign that the program moved on — makes the next stream
/// lookup reduce every idle stream to the two sequence numbers it must
/// keep; a parked stream is rebuilt from them on its next frame.  It
/// answers every protocol question exactly as an absent stream does,
/// except for those two values, and a program that keeps reusing its
/// streams never parks any.
#[derive(Debug, Default)]
pub(crate) struct ReliableState {
    cfg: ReliableConfig,
    send: Streams<SendStream>,
    recv: Streams<RecvStream>,
    send_idle: Streams<IdleSend>,
    recv_idle: Streams<IdleRecv>,
    /// A never-seen stream was created since the idle ones were last
    /// parked.  (Its creator still held the table entry, so the parking
    /// waits for the next lookup.)
    park_due: bool,
}

impl ReliableState {
    pub(crate) fn new(cfg: ReliableConfig) -> Self {
        ReliableState {
            cfg,
            ..ReliableState::default()
        }
    }

    /// The send stream for `key`, unparked or created as needed.
    fn send_mut(&mut self, key: StreamKey) -> &mut SendStream {
        self.park_idle_if_due();
        match self.send.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(match self.send_idle.remove(&key) {
                Some(idle) => SendStream {
                    next_seq: idle.next_seq,
                    complete_at: idle.complete_at,
                    ..SendStream::default()
                },
                None => {
                    self.park_due = true;
                    SendStream::default()
                }
            }),
        }
    }

    /// The receive stream for `key`, unparked or created as needed.
    fn recv_mut(&mut self, key: StreamKey) -> &mut RecvStream {
        self.park_idle_if_due();
        match self.recv.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(match self.recv_idle.remove(&key) {
                Some(idle) => RecvStream {
                    expected: idle.expected,
                    next_unseen: idle.next_unseen,
                    ..RecvStream::default()
                },
                None => {
                    self.park_due = true;
                    RecvStream::default()
                }
            }),
        }
    }

    /// Park every stream that holds nothing but its sequence numbers: a
    /// send stream with nothing unacknowledged, a receive stream with
    /// nothing buffered and no gap reported.  Dead streams stay.
    fn park_idle_if_due(&mut self) {
        if !self.park_due {
            return;
        }
        self.park_due = false;
        let idle = &mut self.send_idle;
        self.send.retain(|&key, s| {
            let busy = s.dead || !s.pending.is_empty();
            if !busy {
                // Acks that retire frames also reset `fast_retx`.
                debug_assert!(s.in_flight_bytes == 0 && s.fast_retx.is_none());
                idle.insert(
                    key,
                    IdleSend {
                        next_seq: s.next_seq,
                        complete_at: s.complete_at,
                    },
                );
            }
            busy
        });
        let idle = &mut self.recv_idle;
        self.recv.retain(|&key, s| {
            let busy = s.dead
                || s.gap_nacked.is_some()
                || !(s.ready.is_empty() && s.reorder.is_empty() && s.assembly_chunks.is_empty());
            if !busy {
                debug_assert!(s.assembly.is_empty());
                idle.insert(
                    key,
                    IdleRecv {
                        expected: s.expected,
                        next_unseen: s.next_unseen,
                    },
                );
            }
            busy
        });
    }

    /// Forget every stream keyed to `peer`, both directions.  Called when
    /// a heartbeat reveals the peer restarted under a new incarnation:
    /// the old life's sequence space is void, and the new life's streams
    /// must start from seq 0 on both sides.
    pub(crate) fn purge_peer(&mut self, peer: Rank) {
        self.send.retain(|k, _| k.0 != peer);
        self.recv.retain(|k, _| k.0 != peer);
        self.send_idle.retain(|k, _| k.0 != peer);
        self.recv_idle.retain(|k, _| k.0 != peer);
    }

    /// Forget every stream in both directions — the restarting rank's own
    /// reset: its peers will purge their half when its recovery beat
    /// arrives.
    pub(crate) fn purge_all(&mut self) {
        self.send.clear();
        self.recv.clear();
        self.send_idle.clear();
        self.recv_idle.clear();
    }

    /// Drop only the *dead* streams keyed to `peer`, so a session-layer
    /// retry can reopen them from seq 0.  Live streams are kept: within
    /// one life their sequence space is still coherent, and clearing them
    /// would alias sequence numbers against frames still in flight.
    pub(crate) fn clear_dead(&mut self, peer: Rank) {
        self.send.retain(|k, s| k.0 != peer || !s.dead);
        self.recv.retain(|k, s| k.0 != peer || !s.dead);
    }
}

/// Lane-summed checksum over `region`; detects any single bit flip.
fn checksum64(region: &[u8]) -> u64 {
    let mut sum = region.len() as u64;
    let mut chunks = region.chunks_exact(8);
    for c in &mut chunks {
        sum = sum.wrapping_add(u64::from_le_bytes(c.try_into().unwrap()));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        sum = sum.wrapping_add(u64::from_le_bytes(tail));
    }
    sum
}

fn append_trailer(frame: &mut Vec<u8>, seq: u64, attempt: u16, flags: u16, with_checksum: bool) {
    // A packed payload usually arrives with exact capacity; without this,
    // the 24-byte extend would trip Vec's doubling policy and copy the
    // whole multi-megabyte frame.
    frame.reserve_exact(TRAILER_LEN);
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(&attempt.to_le_bytes());
    frame.extend_from_slice(&flags.to_le_bytes());
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    let ck = if with_checksum { checksum64(frame) } else { 0 };
    frame.extend_from_slice(&ck.to_le_bytes());
}

fn frame_seq(frame: &[u8]) -> u64 {
    let n = frame.len();
    u64::from_le_bytes(frame[n - 24..n - 16].try_into().unwrap())
}

fn frame_flags(frame: &[u8]) -> u16 {
    let n = frame.len();
    u16::from_le_bytes(frame[n - 14..n - 12].try_into().unwrap())
}

fn frame_ok(frame: &[u8], verify_checksum: bool) -> bool {
    let n = frame.len();
    if n < TRAILER_LEN {
        return false;
    }
    if u32::from_le_bytes(frame[n - 12..n - 8].try_into().unwrap()) != MAGIC {
        return false;
    }
    if verify_checksum {
        let stored = u64::from_le_bytes(frame[n - 8..].try_into().unwrap());
        if checksum64(&frame[..n - 8]) != stored {
            return false;
        }
    }
    true
}

fn patch_attempt(frame: &mut [u8], attempt: u16) {
    let n = frame.len();
    frame[n - 16..n - 14].copy_from_slice(&attempt.to_le_bytes());
    let ck = checksum64(&frame[..n - 8]);
    frame[n - 8..].copy_from_slice(&ck.to_le_bytes());
}

fn ctrl_frame(kind: u8, seq: u64) -> Body {
    let mut frame = [kind; CTRL_LEN];
    frame[1..].copy_from_slice(&seq.to_le_bytes());
    Body::copy_of(&frame)
}

fn decode_ctrl(bytes: &[u8]) -> Option<(u8, u64)> {
    if bytes.len() < CTRL_LEN {
        return None;
    }
    let kind = bytes[0];
    if !(K_ACK..=K_GIVEUP).contains(&kind) {
        return None;
    }
    Some((kind, u64::from_le_bytes(bytes[1..9].try_into().unwrap())))
}

/// Post one logical message on the stream toward `to`.  Payloads larger
/// than [`CHUNK_BYTES`] are split into frames; each frame is admitted as
/// soon as the sliding window has room, so the wire carries chunk `k`
/// while chunk `k+1` is being posted.  Call [`flush_send`] afterwards to
/// wait for acknowledgement of everything posted.
pub fn reliable_send(
    ep: &mut Endpoint,
    to: Rank,
    st: StreamTag,
    payload: Vec<u8>,
) -> Result<(), SimError> {
    if payload.len() <= CHUNK_BYTES {
        return post_frame(ep, to, st, payload, FLAG_LAST);
    }
    let total = payload.len();
    let mut off = 0;
    while off < total {
        let hi = (off + CHUNK_BYTES).min(total);
        let mut buf = ep.take_buf();
        buf.extend_from_slice(&payload[off..hi]);
        let flags = if hi == total { FLAG_LAST } else { 0 };
        post_frame(ep, to, st, buf, flags)?;
        off = hi;
    }
    ep.recycle_buf(payload);
    Ok(())
}

/// Admit one frame into the window and send it.
fn post_frame(
    ep: &mut Endpoint,
    to: Rank,
    st: StreamTag,
    payload: Vec<u8>,
    flags: u16,
) -> Result<(), SimError> {
    wait_for_window(ep, to, st)?;
    let faulted = ep.faults_enabled();
    let mut frame = payload;
    let key = (to, st.data.0);
    let seq = ep.rel.send_mut(key).next_seq;
    // Stamp the incarnation we believe the receiver is at into flags bits
    // 1..16 (bit 0 is FLAG_LAST).  A frame that was in flight across the
    // receiver's restart carries the old incarnation and is silently
    // dropped at intake — the new life must never absorb old-life data.
    // Without recovery armed every incarnation is 0, so frames are
    // bit-identical to the pre-recovery protocol.
    let flags = flags | (((ep.peer_incarnation(to) & 0x7FFF) as u16) << 1);
    append_trailer(&mut frame, seq, 0, flags, faulted);
    let bytes = frame.len();
    // Under faults the window keeps the frame to retransmit: one buffer,
    // shared with the copy in flight.
    let retx = faulted.then(|| Arc::new(std::mem::take(&mut frame)));
    let body = retx
        .as_ref()
        .map_or(Body::Data(frame), |f| Body::Shared(Arc::clone(f)));
    ep.send_body(to, st.data, body);
    let stream = ep.rel.send.get_mut(&key).expect("just created");
    stream.next_seq += 1;
    stream.in_flight_bytes += bytes;
    // Queue-aware deadline: the link drains frames in FIFO order, so this
    // frame's ack cannot arrive before every in-flight byte ahead of it
    // has cleared the wire.  Sizing the timeout on the whole backlog keeps
    // a full window from reading as loss.
    let deadline = ep.clock + timeout_for(&ep.model, stream.in_flight_bytes, 0);
    stream.pending.push_back(PendingSend {
        seq,
        attempt: 0,
        frame: retx,
        bytes,
        deadline,
    });
    Ok(())
}

/// Pump the protocol until the stream toward `to` has window room (or is
/// dead).  A stall is counted and traced once per episode; when acks open
/// the window the sender's clock advances to the retiring ack's arrival —
/// the virtual time the window actually opened.
fn wait_for_window(ep: &mut Endpoint, to: Rank, st: StreamTag) -> Result<(), SimError> {
    ep.check_crash();
    // A purged stream reads as Gate::Open without a single pump; the
    // entry check keeps an evicted peer from looking like fresh room.
    ep.check_evicted(to)?;
    let key = (to, st.data.0);
    let max_frames = ep.rel.cfg.window_frames.max(1);
    let mut stalled = false;
    let mut misses = 0u32;
    loop {
        enum Gate {
            Open(f64),
            Dead(f64),
            Full(usize, usize),
        }
        let gate = match ep.rel.send.get(&key) {
            None => Gate::Open(0.0),
            Some(s) if s.dead => Gate::Dead(s.dead_at),
            Some(s) if s.pending.len() >= max_frames => {
                Gate::Full(s.pending.len(), s.in_flight_bytes)
            }
            Some(s) => Gate::Open(s.complete_at),
        };
        match gate {
            Gate::Dead(t) => {
                ep.advance_to(t);
                ep.mark(format!("reliable give-up peer={to} tag={:?} side=send", st.data).into());
                return Err(SimError::PeerTimeout { rank: to });
            }
            Gate::Open(complete_at) => {
                if stalled {
                    // The window was full and has just opened: this
                    // sender's program order waited on the retiring ack.
                    ep.advance_to(complete_at);
                }
                return Ok(());
            }
            Gate::Full(inflight, bytes) => {
                if !stalled {
                    stalled = true;
                    ep.stats.faults.window_stalls += 1;
                    let at = ep.clock;
                    ep.trace_push(TraceEvent::WindowStall {
                        at,
                        to,
                        tag: st.data,
                        inflight,
                        bytes,
                    });
                }
                ep.pump_guarded(to, &mut misses)?;
            }
        }
    }
}

/// Wait (pumping the protocol) until the stream toward `to` has no
/// unacknowledged frames.  Returns [`SimError::PeerTimeout`] once the
/// retry budget has been exhausted and the stream declared dead.
pub fn flush_send(ep: &mut Endpoint, to: Rank, st: StreamTag) -> Result<(), SimError> {
    // An eviction purge removes the stream entirely — without this check
    // the `None` arm below would report a clean flush for a dead peer.
    ep.check_evicted(to)?;
    let key = (to, st.data.0);
    let mut misses = 0u32;
    loop {
        match ep.rel.send.get(&key) {
            None => {
                // Parked: everything was acked before this flush.
                if let Some(t) = ep.rel.send_idle.get(&key).map(|s| s.complete_at) {
                    ep.advance_to(t);
                }
                return Ok(());
            }
            Some(s) if s.dead => {
                let t = s.dead_at;
                ep.advance_to(t);
                ep.mark(format!("reliable give-up peer={to} tag={:?} side=send", st.data).into());
                return Err(SimError::PeerTimeout { rank: to });
            }
            Some(s) if s.pending.is_empty() => {
                let t = s.complete_at;
                ep.advance_to(t);
                return Ok(());
            }
            Some(_) => ep.pump_guarded(to, &mut misses)?,
        }
    }
}

/// A message [`reliable_recv`] delivered, read as `[u8]`: a buffer of its
/// own, or the frame as sent under a fault plan (shared with the sender's
/// window) and the payload's length in it.  [`Endpoint::recycle_buf`]
/// takes either back.
#[derive(Debug)]
pub enum Payload {
    /// A buffer holding exactly the payload.
    Owned(Vec<u8>),
    /// A frame with other holders, and the payload's length in it.
    Shared(Arc<Vec<u8>>, usize),
}

impl Deref for Payload {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(frame, len) => &frame[..*len],
        }
    }
}

impl From<Vec<u8>> for Payload {
    fn from(buf: Vec<u8>) -> Self {
        Payload::Owned(buf)
    }
}

/// Receive the next in-order logical message on the stream from `from`.
/// The transport trailer is already verified and stripped; duplicates and
/// reordering never surface.  Returns [`SimError::PeerTimeout`] if the
/// sender gave the stream up (or a partition exhausted its budget), and
/// [`SimError::PeerFailed`] if the peer crashed.
pub fn reliable_recv(ep: &mut Endpoint, from: Rank, st: StreamTag) -> Result<Payload, SimError> {
    ep.check_crash();
    ep.check_evicted(from)?;
    let key = (from, st.data.0);
    let mut misses = 0u32;
    loop {
        let popped = ep.rel.recv.get_mut(&key).and_then(|s| s.ready.pop_front());
        if let Some(ready) = popped {
            match ready {
                ReadyFrame::Whole(msg) => {
                    let body = ep.accept(msg);
                    let len = body.len() - TRAILER_LEN;
                    if let Body::Shared(frame) = body {
                        return Ok(Payload::Shared(frame, len));
                    }
                    let mut frame = body.into_vec();
                    frame.truncate(len);
                    return Ok(Payload::Owned(frame));
                }
                ReadyFrame::Assembled { payload, chunks } => {
                    for (arrival, bytes) in chunks {
                        ep.accept_chunk(from, st.data, arrival, bytes);
                    }
                    return Ok(Payload::Owned(payload));
                }
            }
        }
        // Messages already assembled are served even on a dead stream:
        // death only cuts off what never fully arrived.
        let dead_at = ep
            .rel
            .recv
            .get(&key)
            .and_then(|s| s.dead.then_some(s.dead_at));
        if let Some(t) = dead_at {
            ep.advance_to(t);
            ep.mark(format!("reliable give-up peer={from} tag={:?} side=recv", st.data).into());
            return Err(SimError::PeerTimeout { rank: from });
        }
        ep.pump_guarded(from, &mut misses)?;
    }
}

/// True for the traffic the protocol [`intake`] consumes: user-context
/// tags of the reliable DATA, reliable control and one-sided control
/// classes.  Everything else is stashed for a later raw receive.
#[inline]
pub(crate) fn intercepts(tag: Tag) -> bool {
    tag.ctx() >= Tag::FIRST_USER_CTX
        && matches!(
            tag.class(),
            Tag::CLASS_RELIABLE_DATA | Tag::CLASS_RELIABLE_CTRL | Tag::CLASS_ONESIDED_CTRL
        )
}

/// Protocol intake, called by the endpoint on every message drained from
/// the wire that it [`intercepts`].  Reliable DATA frames are verified,
/// deduped, reordered, and acked *at drain time* — even while the draining
/// rank is blocked on an unrelated receive — which is what lets symmetric
/// exchanges make progress.
pub(crate) fn intake(ep: &mut Endpoint, msg: Message) {
    match msg.tag.class() {
        Tag::CLASS_RELIABLE_DATA => intake_data(ep, msg),
        Tag::CLASS_RELIABLE_CTRL => intake_ctrl(ep, msg),
        _ => crate::onesided::intake_ctrl(ep, msg),
    }
}

/// NIC-plane turnaround: a protocol response to a frame that arrived at
/// `arrival` leaves the NIC one send overhead later.
pub(crate) fn turnaround(ep: &Endpoint, arrival: f64) -> f64 {
    arrival + ep.model.send_overhead
}

/// Append one validated in-order frame to its stream: single-frame
/// messages become zero-copy [`ReadyFrame::Whole`] entries, chunked
/// messages accumulate until their `FLAG_LAST` frame.  Frames on one-sided
/// sink streams complete into `completions` (applied by the caller once
/// the stream borrow ends) instead of the ready queue.
fn deliver_frame(
    st: &mut RecvStream,
    msg: Message,
    sink: bool,
    completions: &mut Vec<(Tag, Vec<u8>, f64)>,
) {
    let frame = msg
        .body
        .bytes()
        .expect("only validated data frames are delivered");
    let last = frame_flags(frame) & FLAG_LAST != 0;
    if last && st.assembly_chunks.is_empty() {
        if !sink {
            return st.ready.push_back(ReadyFrame::Whole(msg));
        }
        let mut frame = msg.body.into_vec();
        frame.truncate(frame.len() - TRAILER_LEN);
        return completions.push((msg.tag, frame, msg.arrival));
    }
    st.assembly_chunks.push((msg.arrival, frame.len()));
    st.assembly
        .extend_from_slice(&frame[..frame.len() - TRAILER_LEN]);
    if last {
        let payload = std::mem::take(&mut st.assembly);
        if sink {
            st.assembly_chunks.clear();
            completions.push((msg.tag, payload, msg.arrival));
        } else {
            let chunks = std::mem::take(&mut st.assembly_chunks);
            st.ready
                .push_back(ReadyFrame::Assembled { payload, chunks });
        }
    }
}

fn intake_data(ep: &mut Endpoint, msg: Message) {
    let ctrl = ctrl_tag_of_data(msg.tag);
    let at = turnaround(ep, msg.arrival);
    let src = msg.src;
    let key = (src, msg.tag.0);
    let verify = ep.faults_enabled();
    let valid = msg
        .body
        .bytes()
        .is_some_and(|frame| frame_ok(frame, verify));
    if !valid {
        // The frame was destroyed or corrupted in flight: ask for the
        // first sequence number we have not seen.  FIFO channels make the
        // inference exact for a single loss; a wrong guess (the tombstone
        // was a duplicate) at worst triggers one spurious retransmission,
        // which the dedup below absorbs.
        let stream = ep.rel.recv_mut(key);
        let miss = stream.next_unseen.max(stream.expected);
        stream.next_unseen = miss + 1;
        ep.stats.faults.nacks_sent += 1;
        ep.nic_send(src, ctrl, ctrl_frame(K_NACK, miss), at);
        return;
    }
    let frame = msg.body.bytes().expect("validated above");
    // A frame stamped with an incarnation other than ours was sent toward
    // a previous (or not-yet-seen) life of this rank: drop it silently.
    // No NACK — the sender's stream for the old life is void, and its new
    // stream will start from seq 0 once it observes our recovery beat.
    let inc_bits = (frame_flags(frame) >> 1) & 0x7FFF;
    if inc_bits != (ep.incarnation() & 0x7FFF) as u16 {
        return;
    }
    let seq = frame_seq(frame);
    let sink = crate::onesided::is_sink_tag(msg.tag);
    let mut completions: Vec<(Tag, Vec<u8>, f64)> = Vec::new();
    /// What the intake decided to answer with, sent once the stream
    /// borrow has ended.
    enum Answer {
        Ack(u64),
        DupAck(u64),
        GapNack(u64),
        Silent,
    }
    let answer;
    {
        let stream = ep.rel.recv_mut(key);
        stream.next_unseen = stream.next_unseen.max(seq + 1);
        if seq < stream.expected {
            // Late duplicate: re-ack the cumulative state so the sender is
            // never left without a control signal (a silent drop here
            // could strand its last pending frame forever).
            answer = Answer::DupAck(stream.expected - 1);
        } else if seq > stream.expected {
            // A retransmission of an earlier loss overtook this frame (or
            // will): buffer it inside the window until the gap fills, and
            // name the exact gap in a NACK (once per distinct gap) — the
            // tombstone-based inference below can misattribute repeated
            // losses of the same frame.
            match stream.reorder.entry(seq) {
                std::collections::btree_map::Entry::Occupied(_) => {
                    ep.stats.faults.dup_frames_dropped += 1;
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(msg);
                }
            }
            let gap = stream.expected;
            if stream.gap_nacked != Some(gap) {
                stream.gap_nacked = Some(gap);
                answer = Answer::GapNack(gap);
            } else {
                answer = Answer::Silent;
            }
        } else {
            deliver_frame(stream, msg, sink, &mut completions);
            stream.expected += 1;
            while let Some(m) = stream.reorder.remove(&stream.expected) {
                deliver_frame(stream, m, sink, &mut completions);
                stream.expected += 1;
            }
            stream.gap_nacked = None;
            answer = Answer::Ack(stream.expected - 1);
        }
    }
    match answer {
        Answer::Ack(acked) => {
            ep.stats.faults.acks_sent += 1;
            ep.nic_send(src, ctrl, ctrl_frame(K_ACK, acked), at);
        }
        Answer::DupAck(acked) => {
            ep.stats.faults.dup_frames_dropped += 1;
            ep.stats.faults.acks_sent += 1;
            ep.nic_send(src, ctrl, ctrl_frame(K_ACK, acked), at);
        }
        Answer::GapNack(gap) => {
            ep.stats.faults.nacks_sent += 1;
            ep.nic_send(src, ctrl, ctrl_frame(K_NACK, gap), at);
        }
        Answer::Silent => {}
    }
    for (tag, payload, arrival) in completions {
        crate::onesided::apply_put(ep, src, tag, payload, arrival);
    }
}

/// Retransmit the pending frame at `idx` on the stream toward `to`,
/// triggered at virtual time `trigger_at`.  Returns `false` when the retry
/// budget is exhausted and the stream has been declared dead.
fn retransmit_pending(
    ep: &mut Endpoint,
    to: Rank,
    data_tag: Tag,
    idx: usize,
    trigger_at: f64,
) -> bool {
    let send_ov = ep.model.send_overhead;
    let key = (to, data_tag.0);
    let stream = ep.rel.send.get_mut(&key).expect("caller checked");
    let p = &mut stream.pending[idx];
    p.attempt += 1;
    if p.attempt > MAX_RETRIES {
        // Budget exhausted: declare the peer unreachable, tell it so
        // (best effort), and surface PeerTimeout at the flush.
        let seq = p.seq;
        stream.pending.clear();
        stream.in_flight_bytes = 0;
        stream.dead = true;
        stream.dead_at = trigger_at;
        ep.nic_send(
            to,
            ctrl_tag_of_data(data_tag),
            ctrl_frame(K_GIVEUP, seq),
            trigger_at + send_ov,
        );
        return false;
    }
    let attempt = p.attempt;
    let seq = p.seq;
    let mut frame = p.frame.as_deref().expect("kept under faults").to_vec();
    patch_attempt(&mut frame, attempt as u16);
    // The retransmit timer fires at the later of the loss report and the
    // previous attempt's deadline.
    let t_retx = trigger_at.max(p.deadline) + send_ov;
    // Same queue-aware sizing as the original post: the retry drains
    // behind everything still in flight.
    let backlog = stream.in_flight_bytes;
    let deadline = t_retx + timeout_for(&ep.model, backlog, attempt);
    stream.pending[idx].deadline = deadline;
    ep.stats.faults.timeouts += 1;
    ep.stats.faults.retransmits += 1;
    ep.trace_push(TraceEvent::Retransmit {
        at: t_retx,
        to,
        tag: data_tag,
        seq,
        attempt,
    });
    ep.nic_send(to, data_tag, Body::Data(frame), t_retx);
    true
}

/// After an ack retired frames at `now`, retransmit every remaining
/// pending frame whose deadline has already passed — the windowed
/// analogue of a timeout firing, traced as one retransmit burst.
fn sweep_expired(ep: &mut Endpoint, to: Rank, data_tag: Tag, now: f64) {
    // Without fault injection nothing is ever lost, so a blown deadline
    // can only mean ack queueing — retransmitting would be pure waste
    // (and no retransmission copy is kept on the fault-free path).
    if !ep.faults_enabled() {
        return;
    }
    let key = (to, data_tag.0);
    let mut burst = 0usize;
    loop {
        let idx = match ep.rel.send.get(&key) {
            Some(s) if !s.dead => s.pending.iter().position(|p| p.deadline < now),
            _ => None,
        };
        let Some(idx) = idx else { break };
        let alive = retransmit_pending(ep, to, data_tag, idx, now);
        burst += 1;
        if !alive {
            break;
        }
    }
    if burst > 0 {
        ep.stats.faults.retransmit_bursts += 1;
        ep.trace_push(TraceEvent::RetransmitBurst {
            at: now,
            to,
            tag: data_tag,
            frames: burst,
        });
    }
}

fn intake_ctrl(ep: &mut Endpoint, msg: Message) {
    // A dropped control frame still tells us what it was: the tombstone
    // prefix covers the whole 9-byte frame.  A lost ACK therefore still
    // confirms delivery, and a lost NACK/GIVEUP still drives the protocol.
    let decoded = match &msg.body {
        Body::Dropped { prefix, .. } => decode_ctrl(prefix),
        Body::Poison(_) => unreachable!("poison filtered before intake"),
        data => decode_ctrl(data.bytes().expect("a data body")),
    };
    let Some((kind, seq)) = decoded else { return };
    let data_tag = data_tag_of_ctrl(msg.tag);
    let src = msg.src;
    let key = (src, data_tag.0);
    match kind {
        K_GIVEUP => {
            // The data sender abandoned the stream we receive on.
            let stream = ep.rel.recv_mut(key);
            if !stream.dead {
                stream.dead = true;
                stream.dead_at = msg.arrival;
            }
        }
        K_ACK => {
            let Some(stream) = ep.rel.send.get_mut(&key) else {
                ep.stats.faults.stale_acks_dropped += 1;
                return;
            };
            // Cumulative: retire every pending frame with seq <= acked.
            let mut retired = 0u64;
            let mut late = 0u64;
            let mut inflight = stream.pending.len();
            while stream.pending.front().is_some_and(|p| p.seq <= seq) {
                let p = stream.pending.pop_front().expect("front checked");
                stream.in_flight_bytes -= p.bytes;
                if msg.arrival > p.deadline {
                    // The ack beat no deadline, but it did arrive: count
                    // the timeout, accept the ack.
                    late += 1;
                }
                retired += 1;
            }
            if retired == 0 {
                // Duplicate cumulative ack: the receiver saw a frame it
                // could not deliver, so the oldest pending frame is the
                // blocker.  Fast-retransmit it — once per distinct
                // blocking frame — because no timer will ever fire if the
                // wire goes quiet here.
                ep.stats.faults.stale_acks_dropped += 1;
                let front = match stream.pending.front() {
                    Some(p) if !stream.dead && stream.fast_retx != Some(p.seq) => Some(p.seq),
                    _ => None,
                };
                if let Some(s) = front {
                    stream.fast_retx = Some(s);
                    retransmit_pending(ep, src, data_tag, 0, msg.arrival);
                }
                return;
            }
            stream.fast_retx = None;
            inflight -= retired as usize;
            stream.complete_at = stream.complete_at.max(msg.arrival);
            ep.stats.faults.timeouts += late;
            ep.stats.faults.window_advances += 1;
            ep.trace_push(TraceEvent::WindowAdvance {
                at: msg.arrival,
                to: src,
                tag: data_tag,
                acked: seq,
                inflight,
            });
            // Frames still pending whose deadlines this (late) ack blew
            // past will not be acked spontaneously — resend them now.
            sweep_expired(ep, src, data_tag, msg.arrival);
        }
        K_NACK => {
            let Some(stream) = ep.rel.send.get_mut(&key) else {
                ep.stats.faults.stale_acks_dropped += 1;
                return;
            };
            if stream.dead {
                return;
            }
            // Retransmit the named frame; when it was already retired (a
            // duplicated NACK, or a loss the receiver misattributed),
            // retransmit the oldest pending frame instead — that is the
            // one blocking the receiver, and resending it heals dropped
            // retransmissions and tail loss.
            let idx = match stream.pending.iter().position(|p| p.seq == seq) {
                Some(i) => Some(i),
                None if !stream.pending.is_empty() => Some(0),
                None => None,
            };
            let Some(idx) = idx else {
                ep.stats.faults.stale_acks_dropped += 1;
                return;
            };
            retransmit_pending(ep, src, data_tag, idx, msg.arrival);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultRates};
    use crate::model::MachineModel;
    use crate::stats::FaultStats;
    use crate::world::World;

    #[test]
    fn stream_tag_classes() {
        let st = StreamTag::new(20, 7);
        assert_eq!(st.data().class(), Tag::CLASS_RELIABLE_DATA);
        assert_eq!(st.ctrl().class(), Tag::CLASS_RELIABLE_CTRL);
        assert_eq!(st.data().ctx(), 20);
        assert_eq!(data_tag_of_ctrl(st.ctrl()), st.data());
        assert_eq!(ctrl_tag_of_data(st.data()), st.ctrl());
    }

    #[test]
    fn trailer_roundtrip_and_checksum() {
        let mut frame = vec![7u8; 100];
        append_trailer(&mut frame, 42, 0, FLAG_LAST, true);
        assert_eq!(frame.len(), 100 + TRAILER_LEN);
        assert!(frame_ok(&frame, true));
        assert_eq!(frame_seq(&frame), 42);
        assert_eq!(frame_flags(&frame) & FLAG_LAST, FLAG_LAST);
        // Any single bit flip is detected — try a few positions.
        for bit in [0usize, 7, 399, 800, 991] {
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(!frame_ok(&bad, true), "flip at bit {bit} undetected");
        }
        // Patching the attempt keeps the frame valid and its flags intact.
        let mut f2 = frame.clone();
        patch_attempt(&mut f2, 3);
        assert!(frame_ok(&f2, true));
        assert_eq!(frame_seq(&f2), 42);
        assert_eq!(frame_flags(&f2) & FLAG_LAST, FLAG_LAST);
    }

    #[test]
    fn unchecksummed_frames_still_validate_shape() {
        let mut frame = vec![1u8; 10];
        append_trailer(&mut frame, 0, 0, 0, false);
        assert!(frame_ok(&frame, false));
        assert!(!frame_ok(&frame[..10], false));
    }

    #[test]
    fn ctrl_frames_roundtrip_and_fit_tombstone_prefix() {
        let body = ctrl_frame(K_NACK, 7);
        assert!(
            matches!(body, Body::Inline { .. }),
            "control frames travel inline"
        );
        let f = body.bytes().unwrap();
        assert_eq!(f.len(), CTRL_LEN);
        const { assert!(CTRL_LEN <= crate::message::DROP_PREFIX) };
        assert_eq!(decode_ctrl(f), Some((K_NACK, 7)));
        assert_eq!(decode_ctrl(&f[..5]), None);
        assert_eq!(decode_ctrl(&[9u8; 9]), None);
    }

    #[test]
    fn backoff_grows_deadlines() {
        let m = MachineModel::sp2();
        let t0 = timeout_for(&m, 1024, 0);
        let t1 = timeout_for(&m, 1024, 1);
        let t3 = timeout_for(&m, 1024, 3);
        assert!(t0 > 0.0);
        assert!((t1 / t0 - BACKOFF).abs() < 1e-9);
        assert!(t3 > t1);
    }

    #[test]
    fn backoff_overflow_is_clamped() {
        // A hostile attempt count must not overflow the deadline to inf:
        // the exponent clamps and the result caps.
        let m = MachineModel::sp2();
        let t_huge = timeout_for(&m, 1 << 20, u32::MAX);
        assert_eq!(t_huge, MAX_TIMEOUT);
        // Clamped region is flat: more attempts never shrink or blow it.
        assert_eq!(t_huge, timeout_for(&m, 1 << 20, 1_000_000));
        assert_eq!(t_huge, timeout_for(&m, 1 << 20, MAX_BACKOFF_EXP + 1));
    }

    #[test]
    fn stop_and_wait_is_one_frame_window() {
        let cfg = ReliableConfig::stop_and_wait();
        assert_eq!(cfg.window_frames, 1);
        // Three chunks: the second and third each wait for the ack of the
        // frame before them.
        let world = World::with_model(2, MachineModel::sp2()).with_reliable_config(cfg);
        let out = world.run(|ep| {
            let st = StreamTag::new(20, 1);
            if ep.rank() == 0 {
                reliable_send(ep, 1, st, vec![0x3Cu8; 3 * CHUNK_BYTES]).unwrap();
                flush_send(ep, 1, st).unwrap();
            } else {
                assert_eq!(reliable_recv(ep, 0, st).unwrap().len(), 3 * CHUNK_BYTES);
            }
        });
        assert_eq!(out.stats.msgs[0][1], 3);
        assert_eq!(out.stats.faults.window_stalls, 2);
    }

    #[test]
    fn chunked_payload_streams_and_reassembles() {
        let cfg = ReliableConfig { window_frames: 8 };
        let len = 9 * CHUNK_BYTES + CHUNK_BYTES / 2;
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let sent = payload.clone();
        let world = World::with_model(2, MachineModel::zero()).with_reliable_config(cfg);
        let out = world.run(move |ep| {
            let st = StreamTag::new(20, 1);
            if ep.rank() == 0 {
                reliable_send(ep, 1, st, sent.clone()).unwrap();
                flush_send(ep, 1, st).unwrap();
                Vec::new()
            } else {
                reliable_recv(ep, 0, st).unwrap().to_vec()
            }
        });
        assert_eq!(out.results[1], payload);
        // Nine and a half chunks = 10 data frames.
        assert_eq!(out.stats.msgs[0][1], 10);
        // Cumulative acks advanced the window at least once.
        assert!(out.stats.faults.window_advances >= 1);
        assert_eq!(out.stats.faults.retransmits, 0);
    }

    #[test]
    fn tight_window_stalls_sender() {
        let cfg = ReliableConfig { window_frames: 2 };
        let payload = vec![0xA5u8; 8 * CHUNK_BYTES];
        let expect = payload.clone();
        let world = World::with_model(2, MachineModel::sp2()).with_reliable_config(cfg);
        let out = world.run(move |ep| {
            let st = StreamTag::new(20, 1);
            if ep.rank() == 0 {
                reliable_send(ep, 1, st, payload.clone()).unwrap();
                flush_send(ep, 1, st).unwrap();
                Vec::new()
            } else {
                reliable_recv(ep, 0, st).unwrap().to_vec()
            }
        });
        assert_eq!(out.results[1], expect);
        assert!(
            out.stats.faults.window_stalls >= 1,
            "8 frames through a 2-frame window must stall"
        );
    }

    #[test]
    fn single_frame_messages_deliver_in_order() {
        let world = World::with_model(2, MachineModel::zero());
        world.run(|ep| {
            let st = StreamTag::new(20, 3);
            if ep.rank() == 0 {
                for i in 0..5u64 {
                    reliable_send(ep, 1, st, i.to_le_bytes().to_vec()).unwrap();
                }
                flush_send(ep, 1, st).unwrap();
            } else {
                for i in 0..5u64 {
                    let got = reliable_recv(ep, 0, st).unwrap();
                    assert_eq!(got.to_vec(), i.to_le_bytes());
                }
            }
        });
    }

    #[test]
    fn new_streams_park_idle_ones_which_resume_their_sequence() {
        let world = World::with_model(2, MachineModel::sp2());
        world.run(|ep| {
            // One stream per step, as a schedule-per-step program makes
            // them, with two messages on the first.
            let peer = 1 - ep.rank();
            let key = |step| (peer, StreamTag::new(20, step).data.0);
            for step in [1u32, 1, 2, 3] {
                let st = StreamTag::new(20, step);
                if ep.rank() == 0 {
                    reliable_send(ep, 1, st, vec![step as u8; 64]).unwrap();
                    flush_send(ep, 1, st).unwrap();
                } else {
                    assert_eq!(reliable_recv(ep, 0, st).unwrap().to_vec(), [step as u8; 64]);
                }
            }
            // Each first frame of a stream parked the idle streams before
            // it; reuse (the second message of step 1) parked nothing.
            let (live, parked) = if ep.rank() == 0 {
                let idle = ep.rel.send_idle[&key(1)];
                assert_eq!(idle.next_seq, 2);
                (ep.rel.send.len(), ep.rel.send_idle.len())
            } else {
                assert_eq!(ep.rel.recv_idle[&key(1)].expected, 2);
                (ep.rel.recv.len(), ep.rel.recv_idle.len())
            };
            assert_eq!((live, parked), (1, 2));
            // A third message on the parked stream continues at seq 2.
            let st = StreamTag::new(20, 1);
            if ep.rank() == 0 {
                reliable_send(ep, 1, st, vec![9; 8]).unwrap();
                flush_send(ep, 1, st).unwrap();
                assert_eq!(ep.rel.send[&key(1)].next_seq, 3);
                // Flushing a parked stream still lands on its last ack.
                let idle = ep.rel.send_idle[&key(2)];
                assert!(idle.complete_at > 0.0 && idle.complete_at < ep.clock);
                ep.clock = 0.0;
                flush_send(ep, 1, StreamTag::new(20, 2)).unwrap();
                assert_eq!(ep.clock, idle.complete_at);
            } else {
                assert_eq!(reliable_recv(ep, 0, st).unwrap().to_vec(), [9; 8]);
                assert_eq!(ep.rel.recv[&key(1)].expected, 3);
            }
        });
    }

    /// What a one-rank world, faulted as `rates` sets, makes of 200 bytes
    /// sent to itself: the frames of the envelopes, straight from the
    /// mailbox; the frame the window kept; whether intake then delivered
    /// the payload intact; and the fault counters.
    fn self_send_under(seed: u64, rates: fn(&mut FaultRates)) -> SelfSend {
        let mut r = FaultRates::default();
        rates(&mut r);
        let plan = FaultPlan::new(seed).rates(r);
        let world = World::with_model(1, MachineModel::sp2()).with_faults(plan);
        let mut out = world.run(|ep| {
            let (st, payload): (_, Vec<u8>) = (StreamTag::new(20, 1), (0..200).collect());
            reliable_send(ep, 0, st, payload.clone()).unwrap();
            let sent: Vec<Message> = std::iter::from_fn(|| ep.hub.pop(0)).collect();
            let kept = ep.rel.send[&(0, st.data.0)].pending[0].frame.clone();
            let frames = sent.iter().map(|m| match &m.body {
                Body::Shared(frame) => Arc::clone(frame),
                _ => panic!("a frame with a kept copy travels shared"),
            });
            let frames = frames.collect();
            sent.into_iter().for_each(|m| ep.hub.post(0, m));
            let intact = *reliable_recv(ep, 0, st).unwrap() == payload[..];
            flush_send(ep, 0, st).unwrap();
            (frames, kept.unwrap(), intact, ep.stats.faults)
        });
        out.results.pop().unwrap()
    }

    type SelfSend = (Vec<Arc<Vec<u8>>>, Arc<Vec<u8>>, bool, FaultStats);

    #[test]
    fn duplicates_share_the_kept_frame_and_deliver_once() {
        let (sent, kept, intact, f) = self_send_under(1, |r| r.dup = 1.0);
        assert_eq!(sent.len(), 2, "a dup-only plan sends two copies");
        assert!(
            sent.iter().all(|frame| Arc::ptr_eq(frame, &kept)),
            "one allocation"
        );
        assert!(intact);
        assert_eq!(
            (f.dup_frames_dropped, f.retransmits),
            (1, 0),
            "delivered once"
        );
    }

    #[test]
    fn corruption_copies_on_write_and_the_kept_frame_heals_it() {
        // Seed 1 corrupts the first attempt, not the retransmission.
        let (sent, kept, intact, f) = self_send_under(1, |r| r.corrupt = 0.5);
        assert!(
            !Arc::ptr_eq(&sent[0], &kept) && !frame_ok(&sent[0], true),
            "a flipped copy"
        );
        assert!(frame_ok(&kept, true), "the kept frame is untouched");
        assert!(intact, "the retransmission comes from the kept frame");
        assert_eq!(
            (f.corrupts_injected, f.nacks_sent, f.retransmits),
            (1, 1, 1)
        );
    }

    #[test]
    fn windowed_pipeline_beats_stop_and_wait() {
        let elapsed = |cfg: ReliableConfig| {
            let world = World::with_model(2, MachineModel::sp2()).with_reliable_config(cfg);
            let out = world.run(|ep| {
                let st = StreamTag::new(20, 1);
                if ep.rank() == 0 {
                    reliable_send(ep, 1, st, vec![0x5Au8; 1 << 20]).unwrap();
                    flush_send(ep, 1, st).unwrap();
                } else {
                    let got = reliable_recv(ep, 0, st).unwrap();
                    assert_eq!(got.len(), 1 << 20);
                }
            });
            out.elapsed
        };
        let windowed = elapsed(ReliableConfig::default());
        let stopwait = elapsed(ReliableConfig::stop_and_wait());
        assert!(
            stopwait > windowed * 2.0,
            "stop-and-wait {stopwait} not >2x windowed {windowed}"
        );
    }
}
