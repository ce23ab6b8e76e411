//! The per-pair transfer engine under every cross-program front door
//! ([`crate::data_move_send`] / [`crate::data_move_recv`], their
//! `*_unverified` ablations, [`crate::RecoverySession`]).  A pair's
//! traffic runs on its schedule's reliable move stream, in both
//! directions.  Five parts, each written once:
//!
//! - **send** — [`post_one_half`] packs a half into parts, one reliable
//!   frame `[epoch][last][count][payload]` each; [`flush_halves`] waits
//!   for the acknowledgements;
//! - **receive** — [`stage_half`] collects a half without touching the
//!   destination; how a part's leading word is read ([`Expect`]) is the
//!   only input that differs by front door;
//! - **commit** — [`commit_one_half`] unpacks a staged half;
//! - **handshake** — [`settle`], the manifest and verdict rounds;
//! - **retry** — [`with_retries`], the session's eviction-armed attempts.
//!
//! Each front door fixes its policy; no caller can set it:
//!
//! | front door | manifest handshake | checkpointed floor |
//! |---|---|---|
//! | `data_move_send` / `data_move_recv` | on | off |
//! | `RecoverySession` | off | on |
//! | `data_move_{send,recv}_unverified` | off | off |

use std::collections::HashMap;

use mcsim::note;
use mcsim::prelude::Endpoint;
use mcsim::reliable::{self, Payload, StreamTag};
use mcsim::span::{Note, Phase};
use mcsim::wire::{Wire, WireReader};

use crate::adapter::McObject;
use crate::error::McError;
use crate::schedule::{AddrRuns, Schedule};

/// The manifest/verdict control stream: one per context, *shared by every
/// schedule* in that context so that two sides which disagree about the
/// schedule (different seq → different data streams) still pair up for the
/// exchange that detects the disagreement.
const MANIFEST_STREAM: u32 = 0x0FFF_FFFF;

/// Frame discriminators on the control stream.
const K_MANIFEST: u8 = 1;
const K_VERDICT: u8 = 2;

/// Verdict codes (each abort's cause is named in a trace mark).
const V_OK: u8 = 0;
const V_ABORT_MISMATCH: u8 = 1;
const V_ABORT_STALE: u8 = 2;
const V_ABORT_PEER: u8 = 3;

/// Session control markers: the receiver's committed position, its
/// failure to stage or commit a step, and the sender's close.
pub(crate) const M_POS: u64 = 1;
pub(crate) const M_NAK: u64 = 2;
pub(crate) const M_FIN: u64 = 3;

/// First epoch value of a session part; a control frame
/// `[marker][value]` starts below it, so one stream carries both.
const DATA_FLOOR: u64 = 1 << 32;

/// Scratch key of the per-rank transfer-epoch counters, keyed by
/// `(context << 32) | seq`.  Endpoint scratch survives a supervisor
/// restart, so epochs stay monotone across lives.
const XFER_EPOCH_KEY: u32 = 0x5845_504f; // "XEPO"

/// Attempts per session phase (a step on either side, or the close)
/// before giving up on peers that keep getting evicted.
const STEP_ATTEMPTS: u32 = 8;

/// Next transfer epoch for this schedule's data stream (starts at 1; 0 is
/// the receiver-side placeholder meaning "not a data sender").
pub(crate) fn next_xfer_epoch(ep: &mut Endpoint, sched: &Schedule) -> u64 {
    let key = ((sched.group().context() as u64) << 32) | sched.seq() as u64;
    let m: &mut HashMap<u64, u64> = ep.scratch(XFER_EPOCH_KEY);
    let e = m.entry(key).or_insert(0);
    *e += 1;
    *e
}

/// Session epoch for step `k`: the step (plus one, so step 0 outranks
/// every marker) in the high half, a fresh attempt in the low half.
pub(crate) fn step_epoch(ep: &mut Endpoint, sched: &Schedule, k: u64) -> u64 {
    ((k + 1) << 32) | (next_xfer_epoch(ep, sched) & 0xFFFF_FFFF)
}

/// The reliable stream a schedule's cross-program traffic runs on: same
/// context as the raw path, stream id = schedule seq.
pub(crate) fn move_stream(sched: &Schedule) -> StreamTag {
    StreamTag::new(sched.group().context(), sched.seq())
}

/// [`McError::StaleSchedule`] when the object was redistributed after
/// the schedule was built.
pub(crate) fn check_epoch(object_epoch: u64, schedule_epoch: u64) -> Result<(), McError> {
    if object_epoch == schedule_epoch {
        return Ok(());
    }
    Err(McError::StaleSchedule {
        object_epoch,
        schedule_epoch,
    })
}

/// This side's pairs of a cross-program schedule, after rejecting a
/// schedule that evidently belongs to another call: cross-program
/// schedules never hold local pairs, and a side never holds pairs of the
/// other direction.
pub(crate) fn side_pairs(sched: &Schedule, send: bool) -> Result<&[(usize, AddrRuns)], McError> {
    if !sched.local_pairs.is_empty() {
        return Err(McError::LocalPairsInCrossProgramMove {
            pairs: sched.local_pairs.len(),
        });
    }
    match (send, sched.sends.is_empty(), sched.recvs.is_empty()) {
        (true, _, false) => Err(McError::SendSideHasReceives {
            peers: sched.msgs_in(),
        }),
        (false, false, _) => Err(McError::RecvSideHasSends {
            peers: sched.msgs_out(),
        }),
        (true, ..) => Ok(&sched.sends),
        (false, ..) => Ok(&sched.recvs),
    }
}

/// The global rank of every pair peer.
pub(crate) fn peers(sched: &Schedule, pairs: &[(usize, AddrRuns)]) -> Vec<usize> {
    let group = sched.group();
    pairs.iter().map(|(p, _)| group.global(*p)).collect()
}

/// Run `body` inside a span of `phase`.
pub(crate) fn spanned<R>(
    ep: &mut Endpoint,
    phase: Phase,
    detail: Note,
    body: impl FnOnce(&mut Endpoint) -> R,
) -> R {
    let span = ep.span_begin(phase, detail);
    let r = body(ep);
    ep.span_end(span);
    r
}

// ------------------------------------------------------------ handshake

/// What one side announces to a pair peer before data moves: schedule
/// seq and total elements, element type (tag, size), and this pair's
/// element count — all of which must agree — plus the sender's transfer
/// epoch.
type Manifest = ((u32, u64), (u64, u32), u64, u64);

fn manifest(sched: &Schedule, pair_elems: usize, te: u64) -> Manifest {
    let total = (sched.seq(), sched.total_elems as u64);
    let kind = (sched.elem_tag(), sched.elem_size());
    (total, kind, pair_elems as u64, te)
}

/// First disagreement between my manifest and the peer's, as a
/// human-readable detail string.
fn disagreement(mine: &Manifest, theirs: &Manifest) -> Option<String> {
    let (((s0, t0), (g0, z0), p0, _), ((s1, t1), (g1, z1), p1, _)) = (mine, theirs);
    (s0 != s1)
        .then(|| format!("schedule seq {s0} here vs {s1} at the peer"))
        .or_else(|| {
            (t0 != t1).then(|| format!("transfer totals {t0} elements here vs {t1} at the peer"))
        })
        .or_else(|| {
            ((g0, z0) != (g1, z1)).then(|| {
                format!("element type differs ({z0}-byte elements here vs {z1}-byte at the peer)")
            })
        })
        .or_else(|| {
            (p0 != p1).then(|| format!("this pair carries {p0} elements here vs {p1} at the peer"))
        })
}

/// The body of a control-stream frame of `kind`.
fn read_frame<T: Wire>(bytes: &[u8], peer: usize, kind: u8, what: &str) -> Result<T, McError> {
    let mut r = WireReader::new(bytes);
    let bad = |e| McError::Transport(format!("malformed {what} from rank {peer}: {e}"));
    let got = u8::read(&mut r).map_err(bad)?;
    if got != kind {
        return Err(McError::Transport(format!(
            "expected a {what} from rank {peer}, got control frame kind {got}"
        )));
    }
    T::read(&mut r).map_err(bad)
}

/// The pair peers of one handshake and which of them a transport error
/// has ruled out.  The first such error is kept: transport errors outrank
/// mismatch/stale in what a rank reports, because they are the only
/// causes the other live peers will see too.
struct Round {
    st: StreamTag,
    pgs: Vec<usize>,
    dead: Vec<bool>,
    failed: Option<McError>,
}

impl Round {
    fn fail(&mut self, i: usize, e: McError) {
        self.dead[i] = true;
        self.failed.get_or_insert(e);
    }

    /// One phase: post a frame to every live peer, then read one from
    /// each.
    fn exchange(
        &mut self,
        ep: &mut Endpoint,
        frame: impl Fn(usize, &mut Vec<u8>),
        mut take: impl FnMut(usize, usize, &[u8]) -> Result<(), McError>,
    ) {
        for i in 0..self.pgs.len() {
            if !self.dead[i] {
                let mut buf = ep.take_buf();
                frame(i, &mut buf);
                if let Err(e) = reliable::reliable_send(ep, self.pgs[i], self.st, buf) {
                    self.fail(i, e.into());
                }
            }
        }
        for i in 0..self.pgs.len() {
            if !self.dead[i] {
                let pg = self.pgs[i];
                let got = match reliable::reliable_recv(ep, pg, self.st) {
                    Ok(bytes) => take(i, pg, &bytes).map(|()| ep.recycle_buf(bytes)),
                    Err(e) => Err(e.into()),
                };
                if let Err(e) = got {
                    self.fail(i, e);
                }
            }
        }
    }
}

/// The transaction's prepare phase, identical on both sides: exchange
/// manifests with every pair peer, then verdicts, and return `Ok` — the
/// per-pair transfer epochs the peers announced — only when *everyone*
/// agreed to proceed.  Each phase posts to every peer before reading from
/// any, so it cannot deadlock, and still drains the live peers after a
/// transport error against one.  On abort no data has moved and every
/// live peer received an abort verdict.
pub(crate) fn settle(
    ep: &mut Endpoint,
    sched: &Schedule,
    pairs: &[(usize, AddrRuns)],
    my_te: u64,
    (object_epoch, schedule_epoch): (u64, u64),
) -> Result<Vec<u64>, McError> {
    let detail = note!("", seq = sched.seq(), pairs = pairs.len(), te = my_te);
    spanned(ep, Phase::Manifest, detail, |ep| {
        let mut round = Round {
            st: StreamTag::new(sched.group().context(), MANIFEST_STREAM),
            pgs: peers(sched, pairs),
            dead: vec![false; pairs.len()],
            failed: None,
        };
        let mine = |i: usize| manifest(sched, pairs[i].1.len(), my_te);
        // Keep the first disagreement but drain every live peer.
        let mut peer_te = vec![0u64; pairs.len()];
        let mut mismatch: Option<(usize, String)> = None;
        let frame = |i, buf: &mut Vec<u8>| (K_MANIFEST, mine(i)).write(buf);
        round.exchange(ep, frame, |i, pg, bytes| {
            let m: Manifest = read_frame(bytes, pg, K_MANIFEST, "manifest")?;
            peer_te[i] = m.3;
            if mismatch.is_none() {
                mismatch = disagreement(&mine(i), &m).map(|d| (pg, d));
            }
            Ok(())
        });

        // My verdict, in decreasing severity: a dead peer dooms the
        // transfer for everyone; a stale schedule or manifest mismatch
        // aborts it cleanly.
        let my_stale = check_epoch(object_epoch, schedule_epoch);
        let verdict: (u8, u64, u64) = match (&round.failed, &my_stale) {
            (Some(McError::PeerFailed { rank, .. }), _)
            | (Some(McError::PeerTimeout { rank, .. }), _)
            | (Some(McError::PeerEvicted { rank, .. }), _) => (V_ABORT_PEER, *rank as u64, 0),
            (Some(_), _) => (V_ABORT_PEER, u64::MAX, 0),
            (None, Err(_)) => (V_ABORT_STALE, object_epoch, schedule_epoch),
            (None, Ok(())) if mismatch.is_some() => (V_ABORT_MISMATCH, 0, 0),
            (None, Ok(())) => (V_OK, 0, 0),
        };
        if verdict.0 != V_OK {
            let why =
                ["", "manifest-mismatch", "stale-schedule", "peer-failed"][verdict.0 as usize];
            let seq = sched.seq();
            ep.mark(format!("verdict abort cause={why} seq={seq}").into());
        }
        let mut peer_abort: Option<(usize, McError)> = None;
        let frame = |_, buf: &mut Vec<u8>| (K_VERDICT, verdict).write(buf);
        round.exchange(ep, frame, |_, pg, bytes| {
            let (code, a, b): (u8, u64, u64) = read_frame(bytes, pg, K_VERDICT, "verdict")?;
            if code != V_OK && peer_abort.is_none() {
                let e = match code {
                    V_ABORT_STALE => McError::StaleSchedule {
                        object_epoch: a,
                        schedule_epoch: b,
                    },
                    V_ABORT_PEER => McError::PeerFailed {
                        rank: a as usize,
                        reason: format!("rank {a} failed mid-transfer; peer rank {pg} aborted"),
                    },
                    _ => McError::ScheduleMismatch {
                        peer: pg,
                        detail: "peer aborted: transfer manifests disagree".into(),
                    },
                };
                peer_abort = Some((pg, e));
            }
            Ok(())
        });

        if let Some((pg, _)) = &peer_abort {
            let seq = sched.seq();
            ep.mark(format!("verdict abort cause=peer-verdict peer={pg} seq={seq}").into());
        }
        if round.failed.is_none() && verdict.0 == V_OK && peer_abort.is_none() {
            return Ok(peer_te);
        }
        ep.record_transfer_aborted();
        if my_stale.is_err() {
            ep.record_stale_schedule();
        }
        let mismatch = mismatch.map(|(peer, detail)| McError::ScheduleMismatch { peer, detail });
        let peer_abort = peer_abort.map(|(_, e)| e);
        Err(
            (round.failed.or(my_stale.err()).or(mismatch).or(peer_abort))
                .expect("an abort has a cause"),
        )
    })
}

// ----------------------------------------------------------------- send

/// Per-part header: transfer epoch (8), last-part flag (1), element count
/// (8).  Headroom subtracted from the transport chunk size so one part's
/// payload always fits a single reliable frame (zero-copy delivery).
const PART_HDR_SLACK: usize = 32;

/// Elements per streamed part: as many as fit one transport chunk, so the
/// pack of part `k+1` overlaps the wire time of part `k` inside the
/// sliding window instead of serializing pack → wire → unpack.
fn part_elems(elem_size: usize) -> usize {
    ((mcsim::reliable::CHUNK_BYTES - PART_HDR_SLACK) / elem_size.max(1)).max(1)
}

/// Pack and post ONE pair's half as a stream of parts, each one reliable
/// frame.  Posting a part admits it into the sliding window and returns,
/// so packing the next part overlaps the previous part's wire time.
pub(crate) fn post_one_half<T, S>(
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
    let per_part = part_elems(sched.elem_size() as usize);
    let total = runs.len();
    let parts = total.div_ceil(per_part);
    let detail = note!("", peer = pg, runs = total, te = te, parts = parts);
    spanned(ep, Phase::Pack, detail, |ep| {
        (0..total).step_by(per_part).try_for_each(|cursor| {
            let cnt = per_part.min(total - cursor);
            let mut buf = ep.take_buf();
            (te, u8::from(cursor + cnt == total), cnt).write(&mut buf);
            src.pack_runs_wire(ep, &runs.slice_elems(cursor, cnt), &mut buf);
            reliable::reliable_send(ep, pg, st, buf).map_err(McError::from)
        })
    })
}

/// Wait, under one `Wire` span, until every listed peer acknowledged what
/// was posted to it; stops at the first failure.
pub(crate) fn flush_halves(
    ep: &mut Endpoint,
    st: StreamTag,
    pgs: impl IntoIterator<Item = usize>,
    detail: Note,
) -> Result<(), McError> {
    spanned(ep, Phase::Wire, detail, |ep| {
        let mut pgs = pgs.into_iter();
        pgs.try_for_each(|pg| reliable::flush_send(ep, pg, st))
            .map_err(McError::from)
    })
}

/// Post one session control frame `[marker][value]` and flush it.
pub(crate) fn post_ctrl(
    ep: &mut Endpoint,
    to: usize,
    st: StreamTag,
    marker: u64,
    value: u64,
) -> Result<(), McError> {
    let mut buf = ep.take_buf();
    (marker, value).write(&mut buf);
    reliable::reliable_send(ep, to, st, buf)?;
    Ok(reliable::flush_send(ep, to, st)?)
}

/// Sender-side wait: consume the receiver's position reports until the
/// pair's floor passes `k`.  A NAK for the step means the receiver failed
/// to stage or commit this attempt's half.  Positions are monotone, so
/// reports from abandoned attempts can never mislead.
pub(crate) fn await_pos(
    ep: &mut Endpoint,
    pg: usize,
    st: StreamTag,
    k: u64,
    floor: &mut u64,
) -> Result<(), McError> {
    while *floor <= k {
        let bytes = reliable::reliable_recv(ep, pg, st)?;
        let frame = <(u64, u64)>::read(&mut WireReader::new(&bytes));
        ep.recycle_buf(bytes);
        let bad = |e| McError::Transport(format!("session frame from rank {pg}: {e}"));
        match frame.map_err(bad)? {
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

// -------------------------------------------------------------- receive

/// How a receiver reads the leading word of each part: the one input of
/// [`stage_half`] that differs between front doors.
#[derive(Clone, Copy)]
pub(crate) enum Expect {
    /// `data_move_recv_unverified`: no manifest, so every part belongs to
    /// the half.
    Any,
    /// `data_move_recv`: the epoch the peer's manifest announced; an older
    /// epoch is a replay of an aborted attempt.
    Epoch(u64),
    /// A session receiving step `k` at committed position `pos`: an older
    /// step is a replay, answered with `POS(pos)`.
    Step { k: u64, pos: u64 },
    /// A session closing at position `pos`: every part is a replay,
    /// answered likewise, until `FIN`.
    Fin { pos: u64 },
}

/// What a part's leading word makes of it.
enum Part {
    /// A part of the half, sent by attempt `.0`.
    Take(u64),
    /// A part of a half the receiver already has; a session answers the
    /// replayed half with its position `.0`.
    Replay(Option<u64>),
    /// The sender closed the stream.
    Fin,
}

impl Expect {
    fn classify(self, head: u64, pg: usize) -> Result<Part, McError> {
        let fail = |m: String| Err(McError::Transport(m));
        let step = head >> 32;
        match self {
            Expect::Any => Ok(Part::Take(head)),
            Expect::Epoch(te) if head < te => Ok(Part::Replay(None)),
            Expect::Epoch(te) if head == te => Ok(Part::Take(te)),
            Expect::Epoch(te) => fail(format!(
                "data frame from rank {pg} is from transfer epoch {head}, manifest announced {te}"
            )),
            Expect::Fin { .. } if head == M_FIN => Ok(Part::Fin),
            Expect::Fin { pos } if head >= DATA_FLOOR => Ok(Part::Replay(Some(pos))),
            Expect::Fin { .. } => fail(format!(
                "unexpected control frame (marker {head}) from rank {pg} while closing"
            )),
            Expect::Step { k, .. } if head < DATA_FLOOR => fail(format!(
                "unexpected control frame (marker {head}) from rank {pg} while staging step {k}"
            )),
            Expect::Step { k, pos } if step <= k => Ok(Part::Replay(Some(pos))),
            Expect::Step { k, .. } if step == k + 1 => Ok(Part::Take(head & 0xFFFF_FFFF)),
            Expect::Step { k, .. } => fail(format!(
                "data frame from rank {pg} is for session step {}, expected {k}",
                step - 1
            )),
        }
    }
}

/// Collect ONE pair's half without touching the destination, verifying
/// every part's header, payload size and element count.  A replayed half
/// is dropped and counted once, at its last part (and in a session
/// answered, so a resending sender catches up).  A newer attempt than the
/// one being collected means the sender abandoned its partial half: the
/// partial is dropped and collection restarts.  Returns the staged parts
/// — none after `FIN`; on error nothing escapes.
pub(crate) fn stage_half(
    ep: &mut Endpoint,
    sched: &Schedule,
    pg: usize,
    runs: &AddrRuns,
    expect: Expect,
) -> Result<Vec<Payload>, McError> {
    let (st, esz) = (move_stream(sched), sched.elem_size() as usize);
    let mut parts: Vec<Payload> = Vec::new();
    let (mut got, mut attempt, mut replayed) = (0usize, 0u64, 0usize);
    let mut staged = || -> Result<(), McError> {
        loop {
            let bytes = reliable::reliable_recv(ep, pg, st)?;
            let mut r = WireReader::new(&bytes);
            let bad = |e| McError::Transport(format!("malformed part from rank {pg}: {e}"));
            let part = expect.classify(u64::read(&mut r).map_err(bad)?, pg)?;
            if let Part::Fin = part {
                ep.recycle_buf(bytes);
                return Ok(());
            }
            let (last, count) = <(u8, usize)>::read(&mut r).map_err(bad)?;
            match part {
                Part::Take(a) if parts.is_empty() || a > attempt => {
                    for b in parts.drain(..) {
                        ep.recycle_buf(b);
                    }
                    (got, attempt) = (0, a);
                }
                Part::Take(a) if a == attempt => {}
                // A replay, or a straggler of an attempt older than the
                // one being collected (which nothing answers).
                _ => {
                    replayed += 1;
                    ep.recycle_buf(bytes);
                    if last != 0 {
                        ep.record_stale_half();
                        if let Part::Replay(Some(pos)) = part {
                            ep.record_parts_replayed(pg, replayed);
                            post_ctrl(ep, pg, st, M_POS, pos)?;
                        }
                        replayed = 0;
                    }
                    continue;
                }
            }
            if esz != 0 && r.remaining() != count * esz {
                return Err(McError::Transport(format!(
                    "part from rank {pg} has {} payload bytes, expected {}",
                    r.remaining(),
                    count * esz
                )));
            }
            got += count;
            if got > runs.len() || (last != 0 && got != runs.len()) {
                return Err(McError::Transport(format!(
                    "half from rank {pg} carries {got} elements, schedule expects {}",
                    runs.len()
                )));
            }
            ep.record_staged_frame();
            parts.push(bytes);
            if last != 0 {
                return Ok(());
            }
        }
    };
    let r = staged();
    if r.is_err() {
        parts.drain(..).for_each(|b| ep.recycle_buf(b));
    }
    r.map(|()| parts)
}

// --------------------------------------------------------------- commit

/// Unpack ONE staged half into `dst`, each part into its slice of the
/// pair's destination runs.  Consumes and recycles the parts.
pub(crate) fn commit_one_half<T, D>(
    ep: &mut Endpoint,
    dst: &mut D,
    pg: usize,
    runs: &AddrRuns,
    parts: Vec<Payload>,
) -> Result<(), McError>
where
    T: Copy + Wire,
    D: McObject<T>,
{
    let mut cursor = 0usize;
    for bytes in parts {
        let mut r = WireReader::new(&bytes);
        let (_, _, count) = <(u64, u8, usize)>::read(&mut r).unwrap_or_default();
        let slice = runs.slice_elems(cursor, count);
        dst.unpack_runs_wire(ep, &slice, &mut r).map_err(|e| {
            McError::Transport(format!("frame from rank {pg} failed to decode: {e}"))
        })?;
        cursor += count;
        ep.recycle_buf(bytes);
    }
    Ok(())
}

// ---------------------------------------------------------------- retry

/// Run `f` on every pending pair (`v[i] < until`), holding the first
/// error so the later pairs still make progress.
pub(crate) fn for_pending(
    v: &mut [u64],
    until: u64,
    mut f: impl FnMut(usize, &mut [u64]) -> Result<(), McError>,
) -> Result<(), McError> {
    let mut first = Ok(());
    for i in 0..v.len() {
        if v[i] < until {
            first = first.and(f(i, v));
        }
    }
    first
}

/// The session's one attempt loop; pair `i` is pending while
/// `v[i] < until`.  Each attempt heals the pending pairs' dead streams (a
/// give-up from an earlier attempt or life would wedge it) and runs
/// `round` with eviction armed, so a peer restarting under a new
/// incarnation fails the wait instead of blocking it.  Every error a round
/// meets is a transport outcome worth another attempt; after the budget
/// the last one is returned.
pub(crate) fn with_retries(
    ep: &mut Endpoint,
    pgs: &[usize],
    v: &mut [u64],
    until: u64,
    mut round: impl FnMut(&mut Endpoint, &mut [u64]) -> Result<(), McError>,
) -> Result<(), McError> {
    let settled = |v: &[u64]| v.iter().all(|&x| x >= until);
    let mut last = None;
    for _ in 0..STEP_ATTEMPTS {
        if settled(v) {
            return Ok(());
        }
        for (&pg, &x) in pgs.iter().zip(v.iter()) {
            if x < until {
                ep.clear_dead_streams(pg);
            }
        }
        ep.arm_eviction();
        let r = round(ep, v);
        ep.disarm_eviction();
        match r {
            Ok(()) if settled(v) => return Ok(()),
            Ok(()) => {}
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("a round that leaves a pair pending reports why"))
}
