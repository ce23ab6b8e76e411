//! Per-rank communication timelines.
//!
//! When tracing is enabled on an [`Endpoint`](crate::endpoint::Endpoint),
//! every send and receive is recorded with its virtual timestamps.  The
//! traces make schedule behaviour inspectable — which rank waited on
//! which message, how long messages spent in flight — without perturbing
//! the simulation (recording costs no virtual time).

use crate::message::Rank;
use crate::span::{Note, Phase, SpanId};
use crate::tag::Tag;

/// The kind of fault a [`crate::fault::FaultPlan`] injected into a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The copy was destroyed (delivered as a tombstone).
    Drop,
    /// An extra copy of the message was sent.
    Duplicate,
    /// One bit of the payload was flipped.
    Corrupt,
    /// The copy's arrival was pushed back by the plan's `delay_secs`.
    Delay,
}

/// One recorded communication event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A message was sent.
    Send {
        /// Virtual time after the send charge.
        at: f64,
        /// Destination global rank.
        to: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload bytes.
        bytes: usize,
        /// When the message will arrive at the receiver.
        arrival: f64,
    },
    /// A message was received (matched).
    Recv {
        /// Virtual time after the receive completed.
        at: f64,
        /// Source global rank.
        from: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload bytes.
        bytes: usize,
        /// How long this rank's clock waited on the arrival (0 if the
        /// message was already there in virtual time).
        waited: f64,
    },
    /// The fault plan touched an outgoing message on this rank.
    Fault {
        /// Virtual send time of the affected message.
        at: f64,
        /// What the plan did to it.
        kind: FaultKind,
        /// Destination global rank.
        to: Rank,
        /// Message tag.
        tag: Tag,
        /// Original payload bytes.
        bytes: usize,
    },
    /// The reliable layer resent a data frame after loss or corruption.
    Retransmit {
        /// Virtual time of the retransmission.
        at: f64,
        /// Destination global rank.
        to: Rank,
        /// Data tag of the stream.
        tag: Tag,
        /// Sequence number of the resent frame.
        seq: u64,
        /// Attempt number (1 = first retransmission).
        attempt: u32,
    },
    /// A cumulative ack retired frames and advanced the sliding window
    /// on a sender stream.
    WindowAdvance {
        /// Arrival time of the retiring ack.
        at: f64,
        /// Peer the stream sends toward.
        to: Rank,
        /// Data tag of the stream.
        tag: Tag,
        /// Highest sequence number the ack covered.
        acked: u64,
        /// Frames still unacknowledged after the advance.
        inflight: usize,
    },
    /// A sender filled its window and had to stall until acks opened it.
    WindowStall {
        /// Virtual time the stall began (sender clock).
        at: f64,
        /// Peer the stream sends toward.
        to: Rank,
        /// Data tag of the stream.
        tag: Tag,
        /// Frames in flight when the stall began.
        inflight: usize,
        /// Bytes in flight when the stall began.
        bytes: usize,
    },
    /// An ack arrived so late that several pending frames' deadlines had
    /// expired; all of them were retransmitted in one burst.
    RetransmitBurst {
        /// Arrival time of the ack that triggered the sweep.
        at: f64,
        /// Peer the stream sends toward.
        to: Rank,
        /// Data tag of the stream.
        tag: Tag,
        /// Frames retransmitted in the burst.
        frames: usize,
    },
    /// A phase span opened on this rank (see [`crate::span`]).
    SpanBegin {
        /// Virtual time the phase started.
        at: f64,
        /// Span id, unique within this rank.
        id: SpanId,
        /// Enclosing span, if nested.
        parent: Option<SpanId>,
        /// The phase of work the span brackets.
        phase: Phase,
        /// Provenance attributes (`seq=… peer=… runs=…`).
        detail: Note,
    },
    /// The matching close of a [`TraceEvent::SpanBegin`].
    SpanEnd {
        /// Virtual time the phase finished.
        at: f64,
        /// Id of the span being closed.
        id: SpanId,
    },
    /// A point annotation: provenance or protocol decisions that have no
    /// duration (cache hit/miss, verdicts, timeouts, port bindings).
    Mark {
        /// Virtual time of the annotation.
        at: f64,
        /// What happened (`local_copy pairs=4`, `timeout peer=2 …`, …).
        label: Note,
    },
    /// This rank broadcast a liveness heartbeat to every peer.
    Heartbeat {
        /// Virtual time of the broadcast.
        at: f64,
        /// This rank's incarnation carried by the beat.
        incarnation: u64,
    },
    /// A wait gave up on a silent peer: its lease ran out of windows.
    LeaseExpired {
        /// Virtual time the eviction was stamped.
        at: f64,
        /// The evicted peer's global rank.
        rank: Rank,
        /// The peer's incarnation as known at eviction time.
        incarnation: u64,
    },
    /// This rank was respawned from its checkpoint by the supervisor.
    Recovered {
        /// Virtual time the restart began (the crashed attempt's clock).
        at: f64,
        /// The rank that recovered (this rank).
        rank: Rank,
        /// The new (bumped) incarnation.
        incarnation: u64,
    },
    /// Already-committed transfer parts were re-received and discarded
    /// while resuming an interrupted transfer.
    PartReplayed {
        /// Virtual time the replayed half finished draining.
        at: f64,
        /// The peer that resent the parts.
        from: Rank,
        /// Number of parts absorbed without a second commit.
        parts: usize,
    },
}

// Every event is pushed into the always-on flight ring, so its size is
// per-transfer host cost; a typed `Note` must not grow it.
const _: () = assert!(std::mem::size_of::<TraceEvent>() <= 64);

impl TraceEvent {
    /// The event's virtual timestamp.
    pub fn at(&self) -> f64 {
        match self {
            TraceEvent::Send { at, .. }
            | TraceEvent::Recv { at, .. }
            | TraceEvent::Fault { at, .. }
            | TraceEvent::Retransmit { at, .. }
            | TraceEvent::WindowAdvance { at, .. }
            | TraceEvent::WindowStall { at, .. }
            | TraceEvent::RetransmitBurst { at, .. }
            | TraceEvent::SpanBegin { at, .. }
            | TraceEvent::SpanEnd { at, .. }
            | TraceEvent::Mark { at, .. }
            | TraceEvent::Heartbeat { at, .. }
            | TraceEvent::LeaseExpired { at, .. }
            | TraceEvent::Recovered { at, .. }
            | TraceEvent::PartReplayed { at, .. } => *at,
        }
    }

    /// One representative event per variant, in declaration order — the
    /// exporter-coverage tests iterate this so a new variant cannot ship
    /// without JSONL and chrome-trace coverage (the exporters' exhaustive
    /// `match` breaks first, then the round-trip test).
    pub fn sample_events() -> Vec<TraceEvent> {
        let tag = Tag::user(3);
        vec![
            TraceEvent::Send {
                at: 0.1,
                to: 1,
                tag,
                bytes: 64,
                arrival: 0.2,
            },
            TraceEvent::Recv {
                at: 0.2,
                from: 0,
                tag,
                bytes: 64,
                waited: 0.05,
            },
            TraceEvent::Fault {
                at: 0.3,
                kind: FaultKind::Drop,
                to: 1,
                tag,
                bytes: 64,
            },
            TraceEvent::Retransmit {
                at: 0.4,
                to: 1,
                tag,
                seq: 7,
                attempt: 1,
            },
            TraceEvent::WindowAdvance {
                at: 0.5,
                to: 1,
                tag,
                acked: 7,
                inflight: 3,
            },
            TraceEvent::WindowStall {
                at: 0.6,
                to: 1,
                tag,
                inflight: 64,
                bytes: 1 << 20,
            },
            TraceEvent::RetransmitBurst {
                at: 0.7,
                to: 1,
                tag,
                frames: 5,
            },
            TraceEvent::SpanBegin {
                at: 0.8,
                id: SpanId::new(1),
                parent: None,
                phase: Phase::Transfer,
                detail: crate::note!("", seq = 1u64),
            },
            TraceEvent::SpanEnd {
                at: 0.9,
                id: SpanId::new(1),
            },
            TraceEvent::Mark {
                at: 1.0,
                label: "cache=hit".into(),
            },
            TraceEvent::Heartbeat {
                at: 1.1,
                incarnation: 2,
            },
            TraceEvent::LeaseExpired {
                at: 1.2,
                rank: 1,
                incarnation: 2,
            },
            TraceEvent::Recovered {
                at: 1.3,
                rank: 0,
                incarnation: 3,
            },
            TraceEvent::PartReplayed {
                at: 1.4,
                from: 1,
                parts: 4,
            },
        ]
    }
}

/// Summary statistics over a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSummary {
    /// Number of sends.
    pub sends: usize,
    /// Number of receives.
    pub recvs: usize,
    /// Total bytes sent.
    pub bytes_out: usize,
    /// Total bytes received.
    pub bytes_in: usize,
    /// Total virtual time spent waiting for arrivals.
    pub wait_time: f64,
    /// Number of injected-fault events recorded.
    pub faults: usize,
    /// Number of reliable-layer retransmissions recorded.
    pub retransmits: usize,
    /// Number of window advances (cumulative-ack retirements) recorded.
    pub window_advances: usize,
    /// Number of sender window-full stalls recorded.
    pub window_stalls: usize,
    /// Number of retransmit bursts recorded.
    pub retransmit_bursts: usize,
    /// Number of spans opened.
    pub spans: usize,
    /// Number of point annotations recorded.
    pub marks: usize,
    /// Number of heartbeat broadcasts recorded.
    pub heartbeats: usize,
    /// Number of lease-expiry evictions recorded.
    pub leases_expired: usize,
    /// Number of supervisor recoveries recorded.
    pub recoveries: usize,
    /// Total replayed parts recorded (sum over `PartReplayed` events).
    pub parts_replayed: usize,
}

/// Summarize a trace.
pub fn summarize(events: &[TraceEvent]) -> TraceSummary {
    let mut s = TraceSummary {
        sends: 0,
        recvs: 0,
        bytes_out: 0,
        bytes_in: 0,
        wait_time: 0.0,
        faults: 0,
        retransmits: 0,
        window_advances: 0,
        window_stalls: 0,
        retransmit_bursts: 0,
        spans: 0,
        marks: 0,
        heartbeats: 0,
        leases_expired: 0,
        recoveries: 0,
        parts_replayed: 0,
    };
    for e in events {
        match e {
            TraceEvent::Send { bytes, .. } => {
                s.sends += 1;
                s.bytes_out += bytes;
            }
            TraceEvent::Recv { bytes, waited, .. } => {
                s.recvs += 1;
                s.bytes_in += bytes;
                s.wait_time += waited;
            }
            TraceEvent::Fault { .. } => s.faults += 1,
            TraceEvent::Retransmit { .. } => s.retransmits += 1,
            TraceEvent::WindowAdvance { .. } => s.window_advances += 1,
            TraceEvent::WindowStall { .. } => s.window_stalls += 1,
            TraceEvent::RetransmitBurst { .. } => s.retransmit_bursts += 1,
            TraceEvent::SpanBegin { .. } => s.spans += 1,
            TraceEvent::SpanEnd { .. } => {}
            TraceEvent::Mark { .. } => s.marks += 1,
            TraceEvent::Heartbeat { .. } => s.heartbeats += 1,
            TraceEvent::LeaseExpired { .. } => s.leases_expired += 1,
            TraceEvent::Recovered { .. } => s.recoveries += 1,
            TraceEvent::PartReplayed { parts, .. } => s.parts_replayed += parts,
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MachineModel;
    use crate::tag::Tag;
    use crate::world::World;

    #[test]
    fn traces_record_sends_and_recvs() {
        let world = World::with_model(2, MachineModel::sp2());
        let out = world.run(|ep| {
            ep.enable_trace();
            let t = Tag::user(1);
            if ep.rank() == 0 {
                ep.send_t(1, t, &vec![1.0f64; 100]);
                let _: u8 = ep.recv_t(1, t);
            } else {
                let _: Vec<f64> = ep.recv_t(0, t);
                ep.send_t(0, t, &7u8);
            }
            ep.take_trace()
        });
        let t0 = &out.results[0];
        let t1 = &out.results[1];
        let s0 = summarize(t0);
        let s1 = summarize(t1);
        assert_eq!((s0.sends, s0.recvs), (1, 1));
        assert_eq!((s1.sends, s1.recvs), (1, 1));
        assert_eq!(s0.bytes_out, s1.bytes_in);
        // Rank 1 blocked until rank 0's message arrived.
        assert!(s1.wait_time > 0.0);
        // Events are timestamp-ordered within a rank.
        for tr in [t0, t1] {
            assert!(tr.windows(2).all(|w| w[0].at() <= w[1].at()));
        }
        // The send's arrival stamp matches the receive's completion lower
        // bound.
        if let (TraceEvent::Send { arrival, .. }, TraceEvent::Recv { at, .. }) = (&t0[0], &t1[0]) {
            assert!(at >= arrival);
        } else {
            panic!("unexpected event shapes");
        }
    }

    #[test]
    fn tracing_is_off_by_default_and_costs_nothing() {
        let world = World::with_model(1, MachineModel::sp2());
        let out = world.run(|ep| {
            ep.send_t(0, Tag::user(0), &1u8);
            let _: u8 = ep.recv_t(0, Tag::user(0));
            ep.take_trace()
        });
        assert!(out.results[0].is_empty());
    }
}
