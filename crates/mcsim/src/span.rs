//! Hierarchical spans on the virtual clock, and the bounded flight
//! recorder.
//!
//! A *span* brackets one phase of work on one rank — a whole coupled
//! transfer, or one of its sub-phases (inspector run, manifest settle,
//! pack, wire, stage, commit, abort).  Spans nest: each
//! [`SpanBegin`](crate::trace::TraceEvent::SpanBegin) records its parent,
//! so an exported trace reconstructs the tree `transfer > {inspect,
//! manifest, pack, wire, stage, commit/abort}` with virtual-time
//! durations.  Span IDs are unique within a rank and stable across runs
//! (they are allocated in program order on a deterministic simulation).
//!
//! Two recording sinks exist per endpoint:
//!
//! * the **full timeline** (`Vec<TraceEvent>`), only allocated when
//!   tracing is enabled (`Endpoint::enable_trace` /
//!   [`World::with_trace`](crate::world::World::with_trace)) — the
//!   zero-cost-when-disabled guard for the executor hot path;
//! * the **flight recorder**: a bounded ring of the last
//!   [`FLIGHT_RING_CAP`] events, always on.  Its per-event cost is one
//!   in-place overwrite — noise next to any modeled message — and it
//!   is what turns an abort (`StaleSchedule`, `ScheduleMismatch`,
//!   `PeerTimeout`, …) into a post-mortem instead of a bare error code
//!   (see `meta_chaos::obs`).

use crate::trace::TraceEvent;

/// How many events the per-rank flight recorder retains by default.
/// Large worlds shrink it (see [`FlightRing::set_cap`]) so aggregate
/// post-mortem memory stays bounded as P grows.
pub const FLIGHT_RING_CAP: usize = 64;

/// Identifier of one span, unique within its rank's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// The phase of work a span brackets.  The hierarchy the instrumentation
/// produces is `Transfer > {Inspect, Manifest, Pack, Wire, Stage,
/// Commit, Abort}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// One whole data move (raw or transactional), end to end.
    Transfer,
    /// Inspector run: schedule construction (or cache probe).
    Inspect,
    /// Transactional settle: manifest exchange and verdicts.
    Manifest,
    /// Gathering source elements into contiguous wire buffers.
    Pack,
    /// Time on the wire: reliable sends and their flush.
    Wire,
    /// Receive side buffering data halves before the commit decision.
    Stage,
    /// All-or-nothing application of staged halves to the destination.
    Commit,
    /// Abort processing after a failed transfer.
    Abort,
}

impl Phase {
    /// Stable lower-case name used by exporters and metric names.
    pub fn as_str(&self) -> &'static str {
        match self {
            Phase::Transfer => "transfer",
            Phase::Inspect => "inspect",
            Phase::Manifest => "manifest",
            Phase::Pack => "pack",
            Phase::Wire => "wire",
            Phase::Stage => "stage",
            Phase::Commit => "commit",
            Phase::Abort => "abort",
        }
    }

    /// All phases, in hierarchy order (parent first).
    pub fn all() -> [Phase; 8] {
        [
            Phase::Transfer,
            Phase::Inspect,
            Phase::Manifest,
            Phase::Pack,
            Phase::Wire,
            Phase::Stage,
            Phase::Commit,
            Phase::Abort,
        ]
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Bounded ring of the most recent trace events (the flight recorder).
///
/// The backing storage is allocated lazily on the first push — a world
/// of 1024 idle ranks pays nothing for its recorders — and sized exactly
/// to the cap, which large worlds shrink (see
/// [`crate::endpoint::Endpoint`] construction) to keep aggregate
/// post-mortem memory O(P · small constant).
#[derive(Debug)]
pub struct FlightRing {
    /// Grows to `cap` events, then is overwritten in place.
    ring: Vec<TraceEvent>,
    /// Index of the oldest event; non-zero only once the ring is full.
    head: usize,
    cap: usize,
}

impl Default for FlightRing {
    fn default() -> Self {
        FlightRing {
            ring: Vec::new(),
            head: 0,
            cap: FLIGHT_RING_CAP,
        }
    }
}

impl FlightRing {
    /// Shrink (or grow) the retention cap.  Existing overflow is evicted
    /// oldest-first.
    pub fn set_cap(&mut self, cap: usize) {
        assert!(cap > 0, "flight recorder needs at least one slot");
        self.ring.rotate_left(self.head);
        self.head = 0;
        let overflow = self.ring.len().saturating_sub(cap);
        self.ring.drain(..overflow);
        self.cap = cap;
    }

    /// The retention cap in effect.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Record one event, evicting the oldest when full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.ring.len() < self.cap {
            if self.ring.capacity() == 0 {
                // Lazy, exact-size allocation on first use.
                self.ring.reserve_exact(self.cap);
            }
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
        }
    }

    /// Events currently retained, oldest first (non-destructive).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let (newer, older) = self.ring.split_at(self.head);
        older.iter().chain(newer).cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

/// Per-endpoint observability state: span bookkeeping plus both sinks.
#[derive(Debug, Default)]
pub(crate) struct ObsState {
    /// Full timeline; `Some` only while tracing is enabled.
    pub(crate) events: Option<Vec<TraceEvent>>,
    /// Always-on bounded ring for post-mortems.
    pub(crate) flight: FlightRing,
    /// Stack of open spans (innermost last) — parents for new spans.
    pub(crate) stack: Vec<SpanId>,
    next_id: u64,
}

impl ObsState {
    /// Record an event into the ring and (when tracing) the timeline.
    pub(crate) fn push(&mut self, ev: TraceEvent) {
        if let Some(v) = &mut self.events {
            v.push(ev.clone());
        }
        self.flight.push(ev);
    }

    /// Allocate the next span id (unique within the rank).
    pub(crate) fn alloc_id(&mut self) -> SpanId {
        self.next_id += 1;
        SpanId(self.next_id)
    }

    /// The innermost open span, if any.
    pub(crate) fn parent(&self) -> Option<SpanId> {
        self.stack.last().copied()
    }
}

/// A span reconstructed by pairing `SpanBegin`/`SpanEnd` events; see
/// [`pair_spans`].
#[derive(Debug, Clone, PartialEq)]
pub struct PairedSpan {
    /// The span's id.
    pub id: SpanId,
    /// Its parent span, if it was nested.
    pub parent: Option<SpanId>,
    /// The phase it bracketed.
    pub phase: Phase,
    /// Free-form provenance (`seq=3 strategy=coop cache=miss …`).
    pub detail: String,
    /// Virtual begin time.
    pub begin: f64,
    /// Virtual end time (`begin` for a span never closed, e.g. after a
    /// crash mid-phase).
    pub end: f64,
}

impl PairedSpan {
    /// Virtual-time duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.begin
    }
}

/// Reconstruct spans from one rank's timeline, in begin order.  Spans
/// left open (no `SpanEnd`, e.g. the rank crashed mid-phase) get
/// `end == begin`.
pub fn pair_spans(events: &[TraceEvent]) -> Vec<PairedSpan> {
    let mut spans: Vec<PairedSpan> = Vec::new();
    let mut open: std::collections::HashMap<SpanId, usize> = std::collections::HashMap::new();
    for ev in events {
        match ev {
            TraceEvent::SpanBegin {
                at,
                id,
                parent,
                phase,
                detail,
            } => {
                open.insert(*id, spans.len());
                spans.push(PairedSpan {
                    id: *id,
                    parent: *parent,
                    phase: *phase,
                    detail: detail.clone(),
                    begin: *at,
                    end: *at,
                });
            }
            TraceEvent::SpanEnd { at, id } => {
                if let Some(&idx) = open.get(id) {
                    spans[idx].end = *at;
                    open.remove(id);
                }
            }
            _ => {}
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(at: f64, id: u64, parent: Option<u64>, phase: Phase) -> TraceEvent {
        TraceEvent::SpanBegin {
            at,
            id: SpanId(id),
            parent: parent.map(SpanId),
            phase,
            detail: String::new(),
        }
    }

    #[test]
    fn ring_is_bounded_and_keeps_latest() {
        let mut r = FlightRing::default();
        for i in 0..(FLIGHT_RING_CAP + 10) {
            r.push(TraceEvent::Mark {
                at: i as f64,
                label: format!("m{i}"),
            });
        }
        assert_eq!(r.len(), FLIGHT_RING_CAP);
        let snap = r.snapshot();
        assert_eq!(snap[0].at(), 10.0);
        assert_eq!(snap.last().unwrap().at(), (FLIGHT_RING_CAP + 9) as f64);
    }

    #[test]
    fn set_cap_evicts_oldest_from_a_wrapped_ring() {
        let mark = |at: f64| TraceEvent::Mark {
            at,
            label: String::new(),
        };
        let mut r = FlightRing::default();
        for i in 0..(FLIGHT_RING_CAP + 10) {
            r.push(mark(i as f64));
        }
        r.set_cap(4);
        let ats: Vec<f64> = r.snapshot().iter().map(|e| e.at()).collect();
        let last = (FLIGHT_RING_CAP + 9) as f64;
        assert_eq!(ats, vec![last - 3.0, last - 2.0, last - 1.0, last]);
        r.push(mark(last + 1.0));
        let ats: Vec<f64> = r.snapshot().iter().map(|e| e.at()).collect();
        assert_eq!(ats, vec![last - 2.0, last - 1.0, last, last + 1.0]);
    }

    #[test]
    fn pairing_reconstructs_nesting_and_durations() {
        let events = vec![
            begin(1.0, 1, None, Phase::Transfer),
            begin(1.5, 2, Some(1), Phase::Pack),
            TraceEvent::SpanEnd {
                at: 2.0,
                id: SpanId(2),
            },
            begin(2.0, 3, Some(1), Phase::Wire),
            TraceEvent::SpanEnd {
                at: 3.5,
                id: SpanId(3),
            },
            TraceEvent::SpanEnd {
                at: 4.0,
                id: SpanId(1),
            },
        ];
        let spans = pair_spans(&events);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].phase, Phase::Transfer);
        assert_eq!(spans[0].duration(), 3.0);
        assert_eq!(spans[1].parent, Some(SpanId(1)));
        assert_eq!(spans[1].duration(), 0.5);
        assert_eq!(spans[2].phase, Phase::Wire);
    }

    #[test]
    fn unclosed_spans_get_zero_duration() {
        let events = vec![begin(7.0, 1, None, Phase::Stage)];
        let spans = pair_spans(&events);
        assert_eq!(spans[0].duration(), 0.0);
        assert_eq!(spans[0].begin, 7.0);
    }
}
