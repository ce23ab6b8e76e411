//! A reliable delivery layer over the (possibly faulted) simulated network.
//!
//! The raw [`Endpoint`] channel is FIFO and lossless, but a
//! [`crate::fault::FaultPlan`] drops (as tombstones), duplicates,
//! bit-flips and delays frames.  A **sliding window** per `(peer, stream)`
//! survives all of that with many frames in flight:
//!
//! * **DATA frames** are the payload plus a 24-byte trailer
//!   `[seq u64][attempt u16][flags u16][magic u32][checksum u64]`, cut off
//!   by a zero-copy truncate.  [`reliable_send`] splits large payloads into
//!   [`CHUNK_BYTES`] frames; `FLAG_LAST` marks a message's final frame.
//! * **Control frames** are 9 bytes, `[kind u8][seq u64]`: ACK, NACK or
//!   GIVEUP.  The injector never bit-flips them.
//! * The sender stalls at [`ReliableConfig::window_frames`] unacknowledged
//!   frames.  **ACKs are cumulative**; a duplicate ACK fast-retransmits the
//!   oldest pending frame, once per blocker.  **NACKs are selective**: the
//!   named frame is resent, or the oldest pending one once the name is
//!   retired.  A tombstone or bad checksum NACKs the first sequence number
//!   not yet seen; frames ahead of a gap wait in a reorder buffer, with one
//!   NACK per gap; duplicates are dropped and re-acked.
//! * Deadlines back off exponentially on the virtual clock.  An ack that
//!   arrives after pending deadlines resends those frames in one
//!   **retransmit burst**; the 25th retransmission of a frame sends GIVEUP
//!   and both sides get [`SimError::PeerTimeout`].
//!
//! **Decision and glue.**  Every protocol decision lives in `SendWindow`
//! and `RecvWindow`.  Their methods take events as plain values (a frame
//! admitted, an ACK or NACK, a valid or lost frame, GIVEUP, "deadline
//! passed at `now`") and return what to do as a value: a control answer,
//! the frame to retransmit, give up, or messages queued for delivery.  The
//! glue below them never decides: it passes in the clock and the timeout,
//! then carries out the answer (NIC send, fault counters, trace events).
//!
//! Sink streams (see [`crate::onesided`]) deliver into exposed windows at
//! intake: that is the put data plane.  Protocol sends happen on the **NIC
//! plane**, timed from the arrival of the frame that triggered them and
//! charging nothing to the program clock, and loss is **observable** (a
//! lost ACK still decodes from its tombstone), so virtual time does not
//! depend on when a rank pumps its mailbox.  Checksums are computed and
//! verified only under a fault plan.

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

    /// The stream a DATA or control frame's tag belongs to.
    fn of(tag: Tag) -> Self {
        StreamTag::new(tag.ctx(), tag.value())
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

/// A control frame, as one side of a stream tells the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ctrl {
    /// Every frame up to and including this sequence number arrived.
    Ack(u64),
    /// This frame was lost, or a gap starts at it.
    Nack(u64),
    /// The sender abandoned the stream at this frame.
    GiveUp(u64),
}

impl Ctrl {
    fn frame(self) -> Body {
        let (kind, seq) = match self {
            Ctrl::Ack(seq) => (K_ACK, seq),
            Ctrl::Nack(seq) => (K_NACK, seq),
            Ctrl::GiveUp(seq) => (K_GIVEUP, seq),
        };
        let mut frame = [kind; CTRL_LEN];
        frame[1..].copy_from_slice(&seq.to_le_bytes());
        Body::copy_of(&frame)
    }

    fn decode(bytes: &[u8]) -> Option<Ctrl> {
        let seq = u64::from_le_bytes(bytes.get(1..CTRL_LEN)?.try_into().unwrap());
        match bytes[0] {
            K_ACK => Some(Ctrl::Ack(seq)),
            K_NACK => Some(Ctrl::Nack(seq)),
            K_GIVEUP => Some(Ctrl::GiveUp(seq)),
            _ => None,
        }
    }
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

/// The sending half of a stream: its unacknowledged frames and their
/// deadlines, the retry budget, and whether it gave up.
#[derive(Debug, Default)]
struct SendWindow {
    next_seq: u64,
    /// Unacknowledged frames, oldest first (seq-ordered).
    pending: VecDeque<PendingSend>,
    /// Total bytes of `pending` frames.
    in_flight_bytes: usize,
    /// The blocker a duplicate ack already fast-retransmitted: once per
    /// blocker, so dup-ack bursts cannot burn the retry budget.
    fast_retx: Option<u64>,
    /// When the stream gave up; `pending` is empty from then on.
    dead: Option<f64>,
    /// Arrival of the last ack that retired frames.
    complete_at: f64,
}

/// Whether a send window has room (see [`SendWindow::gate`]).
#[derive(Debug, PartialEq)]
enum Gate {
    /// Room; the last ack that retired frames arrived at this time.
    Open(f64),
    /// The stream gave up at this time.
    Dead(f64),
    /// No room: this many frames and bytes are unacknowledged.
    Full(usize, usize),
}

/// What a send window makes of an ACK or a NACK.
#[derive(Debug, PartialEq)]
enum Heard {
    /// `(acked, late, inflight)`: the ack retired every frame up to
    /// `acked`, `late` of them after their deadline; `inflight` remain.
    Advanced(u64, u64, usize),
    /// Retransmit the pending frame at this index.
    Retransmit(usize),
    /// Stale: it retired nothing and named no pending frame.  A duplicate
    /// ack still fast-retransmits the pending frame at this index.
    Stale(Option<usize>),
    /// Nothing to do: the stream is dead.
    Ignored,
}

impl SendWindow {
    /// Whether another frame fits while `room` frames may stay
    /// unacknowledged.
    fn gate(&self, room: usize) -> Gate {
        if let Some(t) = self.dead {
            Gate::Dead(t)
        } else if self.pending.len() > room {
            Gate::Full(self.pending.len(), self.in_flight_bytes)
        } else {
            Gate::Open(self.complete_at)
        }
    }

    /// Admit frame `next_seq`, `bytes` long and sent at `now`; `frame` is
    /// the copy kept for retransmission under faults.  Its deadline is
    /// sized on the whole backlog: the link drains in FIFO order, so its
    /// ack cannot arrive before every byte ahead of it has cleared the
    /// wire, and a full window must not read as loss.
    fn admit(
        &mut self,
        frame: Option<Arc<Vec<u8>>>,
        bytes: usize,
        now: f64,
        timeout: impl Fn(usize, u32) -> f64,
    ) {
        self.in_flight_bytes += bytes;
        self.pending.push_back(PendingSend {
            seq: self.next_seq,
            attempt: 0,
            frame,
            bytes,
            deadline: now + timeout(self.in_flight_bytes, 0),
        });
        self.next_seq += 1;
    }

    /// A cumulative `ACK(acked)` that arrived at `arrival`.
    fn ack(&mut self, acked: u64, arrival: f64) -> Heard {
        let (mut late, inflight) = (0, self.pending.len());
        while self.pending.front().is_some_and(|p| p.seq <= acked) {
            let p = self.pending.pop_front().expect("front checked");
            self.in_flight_bytes -= p.bytes;
            // A late ack beat no deadline, but it did arrive: it counts
            // as a timeout and is accepted.
            late += u64::from(arrival > p.deadline);
        }
        if self.pending.len() == inflight {
            // A duplicate ack: the receiver saw a frame it could not
            // deliver, so the oldest pending frame is the blocker.  Resend
            // it once per blocker, because no timer fires on a quiet wire.
            let front = self.pending.front().map(|p| p.seq);
            if front.is_none() || front == self.fast_retx {
                return Heard::Stale(None);
            }
            self.fast_retx = front;
            return Heard::Stale(Some(0));
        }
        self.fast_retx = None;
        self.complete_at = self.complete_at.max(arrival);
        Heard::Advanced(acked, late, self.pending.len())
    }

    /// A `NACK(seq)`: resend the named frame or, when it was already
    /// retired (a duplicated NACK, or a loss the receiver misattributed),
    /// the oldest pending frame, which is the one blocking the receiver.
    fn nack(&self, seq: u64) -> Heard {
        if self.dead.is_some() {
            return Heard::Ignored;
        }
        match self.pending.iter().position(|p| p.seq == seq) {
            Some(idx) => Heard::Retransmit(idx),
            None if self.pending.is_empty() => Heard::Stale(None),
            None => Heard::Retransmit(0),
        }
    }

    /// The first pending frame whose deadline passed before `now`.
    fn expired(&self, now: f64) -> Option<usize> {
        self.pending.iter().position(|p| p.deadline < now)
    }

    /// Retransmit the pending frame at `idx`, its loss reported at
    /// `trigger_at`: the timer fires at the later of that and the last
    /// attempt's deadline, the frame leaves one send overhead later, and
    /// the new deadline again counts the whole backlog.  Returns what to
    /// send, `(seq, attempt, at, frame)`, or `Err(seq)` when this is the
    /// 25th retransmission and the stream gives up instead.
    fn retransmit(
        &mut self,
        idx: usize,
        trigger_at: f64,
        send_overhead: f64,
        timeout: impl Fn(usize, u32) -> f64,
    ) -> Result<(u64, u32, f64, &[u8]), u64> {
        let p = &mut self.pending[idx];
        p.attempt += 1;
        let (seq, attempt) = (p.seq, p.attempt);
        if attempt > MAX_RETRIES {
            self.pending.clear();
            self.in_flight_bytes = 0;
            self.dead = Some(trigger_at);
            return Err(seq);
        }
        let p = &mut self.pending[idx];
        let at = trigger_at.max(p.deadline) + send_overhead;
        p.deadline = at + timeout(self.in_flight_bytes, attempt);
        let frame = p.frame.as_deref().expect("kept under faults");
        Ok((seq, attempt, at, frame))
    }
}

/// One logical message ready for delivery.
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

/// The receiving half of a stream: the next frame to deliver, the reorder
/// buffer, what the sender was told, and the messages ready to deliver.
#[derive(Debug, Default)]
struct RecvWindow {
    /// Next sequence number to deliver.
    expected: u64,
    /// One past the highest sequence number seen or inferred from a
    /// tombstone — what a NACK asks for after a loss.
    next_unseen: u64,
    /// Valid frames ahead of `expected`, waiting for the gap to fill.
    reorder: BTreeMap<u64, Message>,
    /// The gap a NACK was already sent for: one per gap, so a long
    /// out-of-order run does not flood the sender with the same report.
    gap_nacked: Option<u64>,
    /// Payload bytes of a partially assembled chunked message.
    assembly: Vec<u8>,
    /// `(arrival, frame bytes)` of each chunk in `assembly`.
    assembly_chunks: Vec<(f64, usize)>,
    /// Complete messages awaiting delivery.
    ready: VecDeque<ReadyFrame>,
    /// When the sender's GIVEUP arrived.
    dead: Option<f64>,
}

/// A receive window's answer to a valid frame (see [`RecvWindow::frame`]).
#[derive(Debug, PartialEq)]
struct Answer {
    /// The control frame to send back.
    reply: Option<Ctrl>,
    /// The frame was a duplicate and was dropped.
    dup: bool,
}

impl RecvWindow {
    /// A frame destroyed or corrupted in flight: NACK the first sequence
    /// number not yet seen.  FIFO channels make the inference exact for a
    /// single loss; a wrong guess (the tombstone was a duplicate) at worst
    /// triggers one spurious retransmission, which dedup absorbs.
    fn lost(&mut self) -> Ctrl {
        let miss = self.next_unseen.max(self.expected);
        self.next_unseen = miss + 1;
        Ctrl::Nack(miss)
    }

    /// A valid frame `seq`.  In order, it is delivered with every buffered
    /// frame it unblocks and acked cumulatively.  A late duplicate re-acks
    /// the cumulative state, so the sender is never left without a control
    /// signal.  A frame ahead of a gap (a retransmission it overtook) is
    /// buffered, and the gap NACKed once, because the tombstone inference
    /// can misattribute repeated losses of one frame.
    fn frame(&mut self, seq: u64, msg: Message) -> Answer {
        self.next_unseen = self.next_unseen.max(seq + 1);
        if seq < self.expected {
            let reply = Some(Ctrl::Ack(self.expected - 1));
            return Answer { reply, dup: true };
        }
        if seq > self.expected {
            let dup = self.reorder.contains_key(&seq);
            if !dup {
                self.reorder.insert(seq, msg);
            }
            let gap = Some(self.expected);
            let reply = (self.gap_nacked != gap).then_some(Ctrl::Nack(self.expected));
            self.gap_nacked = gap;
            return Answer { reply, dup };
        }
        self.deliver(msg);
        while let Some(m) = self.reorder.remove(&self.expected) {
            self.deliver(m);
        }
        self.gap_nacked = None;
        let reply = Some(Ctrl::Ack(self.expected - 1));
        Answer { reply, dup: false }
    }

    /// Deliver the in-order frame `expected`: a single-frame message
    /// becomes a zero-copy [`ReadyFrame::Whole`], a chunked one
    /// accumulates until its `FLAG_LAST` frame.
    fn deliver(&mut self, msg: Message) {
        self.expected += 1;
        let frame = msg
            .body
            .bytes()
            .expect("only validated data frames are delivered");
        let last = frame_flags(frame) & FLAG_LAST != 0;
        if last && self.assembly_chunks.is_empty() {
            return self.ready.push_back(ReadyFrame::Whole(msg));
        }
        self.assembly_chunks.push((msg.arrival, frame.len()));
        self.assembly
            .extend_from_slice(&frame[..frame.len() - TRAILER_LEN]);
        if last {
            let payload = std::mem::take(&mut self.assembly);
            let chunks = std::mem::take(&mut self.assembly_chunks);
            self.ready
                .push_back(ReadyFrame::Assembled { payload, chunks });
        }
    }

    /// The sender's GIVEUP, arrived at `at`: the stream is dead.
    fn gave_up(&mut self, at: f64) {
        self.dead.get_or_insert(at);
    }

    /// The next ready message, or `Err(t)` when none is left and the
    /// stream died at `t`.  Messages already assembled are served even on
    /// a dead stream: death only cuts off what never fully arrived.
    fn take(&mut self) -> Result<Option<ReadyFrame>, f64> {
        match (self.ready.pop_front(), self.dead) {
            (None, Some(t)) => Err(t),
            (ready, _) => Ok(ready),
        }
    }
}

/// What an idle [`SendWindow`] — nothing unacknowledged, not dead — still
/// has to remember.
#[derive(Debug, Clone, Copy)]
struct IdleSend {
    next_seq: u64,
    complete_at: f64,
}

/// What an idle [`RecvWindow`] — nothing buffered, no gap reported, not
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
    send: Streams<SendWindow>,
    recv: Streams<RecvWindow>,
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

    /// The send window for `key`, unparked or created as needed.
    fn send_mut(&mut self, key: StreamKey) -> &mut SendWindow {
        self.park_idle_if_due();
        match self.send.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(match self.send_idle.remove(&key) {
                Some(idle) => SendWindow {
                    next_seq: idle.next_seq,
                    complete_at: idle.complete_at,
                    ..SendWindow::default()
                },
                None => {
                    self.park_due = true;
                    SendWindow::default()
                }
            }),
        }
    }

    /// The receive window for `key`, unparked or created as needed.
    fn recv_mut(&mut self, key: StreamKey) -> &mut RecvWindow {
        self.park_idle_if_due();
        match self.recv.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(match self.recv_idle.remove(&key) {
                Some(idle) => RecvWindow {
                    expected: idle.expected,
                    next_unseen: idle.next_unseen,
                    ..RecvWindow::default()
                },
                None => {
                    self.park_due = true;
                    RecvWindow::default()
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
            let busy = s.dead.is_some() || !s.pending.is_empty();
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
            let busy = s.dead.is_some()
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
        self.send.retain(|k, s| k.0 != peer || s.dead.is_none());
        self.recv.retain(|k, s| k.0 != peer || s.dead.is_none());
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
    let (now, model) = (ep.clock, &ep.model);
    let window = ep.rel.send.get_mut(&key).expect("just created");
    window.admit(retx, bytes, now, |b, a| timeout_for(model, b, a));
    Ok(())
}

/// Carry out a dead stream's give-up: the clock moves to the moment the
/// stream died, and the mark names the side that noticed.
fn give_up(ep: &mut Endpoint, peer: Rank, st: StreamTag, side: &str, at: f64) -> SimError {
    ep.advance_to(at);
    ep.mark(format!("reliable give-up peer={peer} tag={:?} side={side}", st.data).into());
    SimError::PeerTimeout { rank: peer }
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
    let room = ep.rel.cfg.window_frames.max(1) - 1;
    let mut stalled = false;
    let mut misses = 0u32;
    loop {
        let window = ep.rel.send.get(&key);
        match window.map_or(Gate::Open(0.0), |s| s.gate(room)) {
            Gate::Dead(t) => return Err(give_up(ep, to, st, "send", t)),
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
    // the parked arm below would report a clean flush for a dead peer.
    ep.check_evicted(to)?;
    let key = (to, st.data.0);
    let mut misses = 0u32;
    loop {
        // A parked stream had everything acked before this flush.
        let parked = || Gate::Open(ep.rel.send_idle.get(&key).map_or(0.0, |s| s.complete_at));
        match ep.rel.send.get(&key).map_or_else(parked, |s| s.gate(0)) {
            Gate::Dead(t) => return Err(give_up(ep, to, st, "send", t)),
            Gate::Open(t) => {
                ep.advance_to(t);
                return Ok(());
            }
            Gate::Full(..) => ep.pump_guarded(to, &mut misses)?,
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

impl Payload {
    /// The payload of a delivered DATA frame: the frame's own buffer cut
    /// at its trailer, or the shared frame and the payload's length.
    fn of_frame(body: Body) -> Payload {
        let len = body.len() - TRAILER_LEN;
        if let Body::Shared(frame) = body {
            return Payload::Shared(frame, len);
        }
        let mut frame = body.into_vec();
        frame.truncate(len);
        Payload::Owned(frame)
    }
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
        match ep.rel.recv.get_mut(&key).map_or(Ok(None), RecvWindow::take) {
            Ok(Some(ReadyFrame::Whole(msg))) => return Ok(Payload::of_frame(ep.accept(msg))),
            Ok(Some(ReadyFrame::Assembled { payload, chunks })) => {
                for (arrival, bytes) in chunks {
                    ep.accept_chunk(from, st.data, arrival, bytes);
                }
                return Ok(Payload::Owned(payload));
            }
            Err(t) => return Err(give_up(ep, from, st, "recv", t)),
            Ok(None) => ep.pump_guarded(from, &mut misses)?,
        }
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

/// Send `ctrl` toward `to` from the NIC at `at`, counting ACKs and NACKs.
fn send_ctrl(ep: &mut Endpoint, to: Rank, st: StreamTag, ctrl: Ctrl, at: f64) {
    match ctrl {
        Ctrl::Ack(_) => ep.stats.faults.acks_sent += 1,
        Ctrl::Nack(_) => ep.stats.faults.nacks_sent += 1,
        Ctrl::GiveUp(_) => {}
    }
    ep.nic_send(to, st.ctrl, ctrl.frame(), at);
}

/// Feed a DATA frame to its receive window and carry out the answer.
/// Frames on one-sided sink streams complete into exposed windows here,
/// on the NIC plane, instead of waiting for a `reliable_recv`.
fn intake_data(ep: &mut Endpoint, msg: Message) {
    let st = StreamTag::of(msg.tag);
    let (src, at) = (msg.src, turnaround(ep, msg.arrival));
    let key = (src, st.data.0);
    let verify = ep.faults_enabled();
    let Some(frame) = msg.body.bytes().filter(|f| frame_ok(f, verify)) else {
        let nack = ep.rel.recv_mut(key).lost();
        return send_ctrl(ep, src, st, nack, at);
    };
    // A frame stamped with an incarnation other than ours was sent toward
    // a previous (or not-yet-seen) life of this rank: drop it silently.
    // No NACK — the sender's stream for the old life is void, and its new
    // stream will start from seq 0 once it observes our recovery beat.
    let inc_bits = (frame_flags(frame) >> 1) & 0x7FFF;
    if inc_bits != (ep.incarnation() & 0x7FFF) as u16 {
        return;
    }
    let seq = frame_seq(frame);
    let answer = ep.rel.recv_mut(key).frame(seq, msg);
    if answer.dup {
        ep.stats.faults.dup_frames_dropped += 1;
    }
    if let Some(reply) = answer.reply {
        send_ctrl(ep, src, st, reply, at);
    }
    if !crate::onesided::is_sink_tag(st.data) {
        return;
    }
    while let Some(ready) = ep.rel.recv.get_mut(&key).and_then(|w| w.ready.pop_front()) {
        let (payload, arrival) = match ready {
            ReadyFrame::Whole(m) => (Payload::of_frame(m.body), m.arrival),
            ReadyFrame::Assembled { payload, chunks } => {
                (Payload::Owned(payload), chunks.last().map_or(0.0, |c| c.0))
            }
        };
        crate::onesided::apply_put(ep, src, st.data, &payload, arrival);
        ep.recycle_buf(payload);
    }
}

/// Retransmit the pending frame at `idx` on the stream toward `to`, its
/// loss reported at `trigger_at`.  Returns `false` when the retry budget
/// ran out: the stream is dead, and the peer is told so (best effort).
fn retransmit_pending(
    ep: &mut Endpoint,
    to: Rank,
    st: StreamTag,
    idx: usize,
    trigger_at: f64,
) -> bool {
    let (send_ov, model, key) = (ep.model.send_overhead, &ep.model, (to, st.data.0));
    let window = ep.rel.send.get_mut(&key).expect("caller checked");
    let timeout = |bytes, attempt| timeout_for(model, bytes, attempt);
    let (seq, attempt, at, mut frame) = match window.retransmit(idx, trigger_at, send_ov, timeout) {
        Ok((seq, attempt, at, frame)) => (seq, attempt, at, frame.to_vec()),
        Err(seq) => {
            send_ctrl(ep, to, st, Ctrl::GiveUp(seq), trigger_at + send_ov);
            return false;
        }
    };
    patch_attempt(&mut frame, attempt as u16);
    ep.stats.faults.timeouts += 1;
    ep.stats.faults.retransmits += 1;
    let tag = st.data;
    ep.trace_push(TraceEvent::Retransmit {
        at,
        to,
        tag,
        seq,
        attempt,
    });
    ep.nic_send(to, tag, Body::Data(frame), at);
    true
}

/// After an ack retired frames at `now`, retransmit every remaining
/// pending frame whose deadline has already passed — the windowed
/// analogue of a timeout firing, traced as one retransmit burst.
fn sweep_expired(ep: &mut Endpoint, to: Rank, st: StreamTag, now: f64) {
    // Without fault injection nothing is ever lost, so a blown deadline
    // can only mean ack queueing — retransmitting would be pure waste
    // (and no retransmission copy is kept on the fault-free path).
    if !ep.faults_enabled() {
        return;
    }
    let key = (to, st.data.0);
    let mut burst = 0usize;
    while let Some(idx) = ep.rel.send.get(&key).and_then(|s| s.expired(now)) {
        burst += 1;
        if !retransmit_pending(ep, to, st, idx, now) {
            break;
        }
    }
    if burst > 0 {
        ep.stats.faults.retransmit_bursts += 1;
        ep.trace_push(TraceEvent::RetransmitBurst {
            at: now,
            to,
            tag: st.data,
            frames: burst,
        });
    }
}

/// Feed a control frame to its window and carry out the answer.  A
/// dropped control frame still tells us what it was: the tombstone prefix
/// covers the whole 9-byte frame, so a lost ACK still confirms delivery
/// and a lost NACK or GIVEUP still drives the protocol.
fn intake_ctrl(ep: &mut Endpoint, msg: Message) {
    let decoded = match &msg.body {
        Body::Dropped { prefix, .. } => Ctrl::decode(prefix),
        Body::Poison(_) => unreachable!("poison filtered before intake"),
        data => Ctrl::decode(data.bytes().expect("a data body")),
    };
    let Some(ctrl) = decoded else { return };
    let st = StreamTag::of(msg.tag);
    let (src, arrival) = (msg.src, msg.arrival);
    let key = (src, st.data.0);
    let send = ep.rel.send.get_mut(&key);
    let heard = match ctrl {
        Ctrl::GiveUp(_) => return ep.rel.recv_mut(key).gave_up(arrival),
        Ctrl::Ack(seq) => send.map_or(Heard::Stale(None), |s| s.ack(seq, arrival)),
        Ctrl::Nack(seq) => send.map_or(Heard::Stale(None), |s| s.nack(seq)),
    };
    match heard {
        Heard::Advanced(acked, late, inflight) => {
            ep.stats.faults.timeouts += late;
            ep.stats.faults.window_advances += 1;
            ep.trace_push(TraceEvent::WindowAdvance {
                at: arrival,
                to: src,
                tag: st.data,
                acked,
                inflight,
            });
            // Frames still pending whose deadlines this (late) ack blew
            // past will not be acked spontaneously — resend them now.
            sweep_expired(ep, src, st, arrival);
        }
        Heard::Retransmit(idx) => {
            retransmit_pending(ep, src, st, idx, arrival);
        }
        Heard::Stale(retx) => {
            ep.stats.faults.stale_acks_dropped += 1;
            if let Some(idx) = retx {
                retransmit_pending(ep, src, st, idx, arrival);
            }
        }
        Heard::Ignored => {}
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
        assert_eq!(StreamTag::of(st.ctrl()), st);
        assert_eq!(StreamTag::of(st.data()), st);
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
        let body = Ctrl::Nack(7).frame();
        assert!(
            matches!(body, Body::Inline { .. }),
            "control frames travel inline"
        );
        let f = body.bytes().unwrap();
        assert_eq!(f.len(), CTRL_LEN);
        const { assert!(CTRL_LEN <= crate::message::DROP_PREFIX) };
        assert_eq!(Ctrl::decode(f), Some(Ctrl::Nack(7)));
        assert_eq!(Ctrl::decode(&f[..5]), None);
        assert_eq!(Ctrl::decode(&[9u8; 9]), None);
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

    /// A valid single-frame DATA message with sequence number `seq`.
    fn data_frame(seq: u64) -> Message {
        let mut frame = vec![seq as u8; 4];
        append_trailer(&mut frame, seq, 0, FLAG_LAST, false);
        let (tag, body) = (StreamTag::new(20, 1).data(), Body::Data(frame));
        let arrival = seq as f64;
        Message {
            src: 1,
            tag,
            body,
            arrival,
        }
    }

    /// The two windows driven directly, with no endpoint: every decision is
    /// a value in, a value out.
    #[test]
    fn windows_decide_without_a_world() {
        let timeout = |_bytes: usize, attempt: u32| f64::from(1 + attempt);
        let mut tx = SendWindow::default();
        for seq in 0..4u8 {
            tx.admit(Some(Arc::new(vec![seq; 8])), 8, 0.0, timeout);
        }
        assert_eq!(tx.gate(3), Gate::Full(4, 32));
        // One cumulative ack retires three frames, all past their deadline.
        assert_eq!(tx.ack(2, 1.5), Heard::Advanced(2, 3, 1));
        assert_eq!(
            (tx.gate(0), tx.gate(1)),
            (Gate::Full(1, 8), Gate::Open(1.5))
        );
        assert_eq!(tx.expired(1.5), Some(0));
        // A duplicate ack fast-retransmits the blocker once, not twice.
        assert_eq!(tx.ack(2, 1.6), Heard::Stale(Some(0)));
        assert_eq!(tx.ack(2, 1.7), Heard::Stale(None));
        // A NACK for a retired frame picks the oldest pending one.
        tx.admit(Some(Arc::new(vec![4; 8])), 8, 2.0, timeout);
        assert_eq!(tx.nack(1), Heard::Retransmit(0));
        assert_eq!(tx.nack(4), Heard::Retransmit(1));
        let resend = tx.retransmit(0, 2.0, 0.5, timeout);
        assert_eq!(resend, Ok((3, 1, 2.5, &[3u8; 8][..])));
        assert_eq!(tx.expired(4.0), Some(1), "seq 3 now expires at 4.5");
        // The 25th retransmission gives up; the dead stream ignores NACKs.
        for attempt in 2..=MAX_RETRIES {
            assert!(matches!(tx.retransmit(0, 3.0, 0.5, timeout), Ok((3, a, ..)) if a == attempt));
        }
        assert_eq!(tx.retransmit(0, 9.0, 0.5, timeout), Err(3));
        assert_eq!((tx.gate(64), tx.nack(3)), (Gate::Dead(9.0), Heard::Ignored));

        let mut rx = RecvWindow::default();
        let answer = |reply, dup| Answer { reply, dup };
        assert_eq!(
            rx.frame(0, data_frame(0)),
            answer(Some(Ctrl::Ack(0)), false)
        );
        // Frames beyond a gap wait in the reorder buffer: one NACK per gap.
        assert_eq!(
            rx.frame(2, data_frame(2)),
            answer(Some(Ctrl::Nack(1)), false)
        );
        assert_eq!(rx.frame(3, data_frame(3)), answer(None, false));
        assert_eq!(rx.frame(3, data_frame(3)), answer(None, true));
        // A tombstone NACKs the first sequence number not yet seen.
        assert_eq!(rx.lost(), Ctrl::Nack(4));
        // The gap fills: everything buffered is delivered in order.
        assert_eq!(
            rx.frame(1, data_frame(1)),
            answer(Some(Ctrl::Ack(3)), false)
        );
        assert_eq!(rx.frame(1, data_frame(1)), answer(Some(Ctrl::Ack(3)), true));
        for seq in 0..4 {
            match rx.take() {
                Ok(Some(ReadyFrame::Whole(m))) => assert_eq!(m.arrival, seq as f64),
                other => panic!("frame {seq}: {other:?}"),
            }
        }
        assert!(matches!(rx.take(), Ok(None)));
        rx.gave_up(7.0);
        rx.gave_up(8.0);
        assert!(matches!(rx.take(), Err(7.0)));
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
