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
//!   [`FLIGHT_RING_CAP`] events, always on.  It is what turns an abort
//!   (`StaleSchedule`, `ScheduleMismatch`, `PeerTimeout`, …) into a
//!   post-mortem instead of a bare error code (see `meta_chaos::obs`).
//!   Untraced runs pay for it too: every send, receive, span and mark
//!   overwrites one 64-byte slot, and spans and marks come once per peer
//!   and phase of every transfer.  When their details were formatted
//!   strings that was 18–20 % of the host time of small transfers, so
//!   details and labels are [`Note`]s, typed values rendered to text only
//!   when an exporter, analyzer or post-mortem reads them.

use std::fmt;
use std::num::NonZeroU64;

use crate::trace::TraceEvent;

/// How many events the per-rank flight recorder retains by default.
/// Large worlds shrink it (see [`FlightRing::set_cap`]) so aggregate
/// post-mortem memory stays bounded as P grows.
pub const FLIGHT_RING_CAP: usize = 64;

/// Identifier of one span, unique within its rank's timeline.  Ids start
/// at 1, so `Option<SpanId>` (a span's parent) is one word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(NonZeroU64);

impl SpanId {
    /// The span id `id`.  Panics on 0, which no rank ever allocates.
    pub const fn new(id: u64) -> SpanId {
        match NonZeroU64::new(id) {
            Some(id) => SpanId(id),
            None => panic!("span ids start at 1"),
        }
    }

    /// The id as a number (what the exporters write).
    pub const fn get(self) -> u64 {
        self.0.get()
    }
}

/// Bytes of a typed [`Note`]'s value buffer: with the shape pointer a note
/// is 32 bytes, which keeps [`TraceEvent`] at 64.
const NOTE_BYTES: usize = 24;

/// The fixed part of a typed [`Note`]: a head and the keys of its integer
/// fields.  It renders as `head key=v key=v …` — one space between parts,
/// none before the first.  [`note!`](crate::note) declares one `static`
/// shape per call site.
pub struct NoteShape {
    head: &'static str,
    keys: &'static [&'static str],
}

impl NoteShape {
    /// A shape with head `head` and one field per key.
    pub const fn new(head: &'static str, keys: &'static [&'static str]) -> NoteShape {
        NoteShape { head, keys }
    }

    /// Write `head key=v …` for `vals` (one per key) to `out`.
    fn render(&self, out: &mut impl fmt::Write, vals: impl Iterator<Item = u64>) -> fmt::Result {
        out.write_str(self.head)?;
        for (i, (key, v)) in self.keys.iter().zip(vals).enumerate() {
            if i > 0 || !self.head.is_empty() {
                out.write_char(' ')?;
            }
            write!(out, "{key}={v}")?;
        }
        Ok(())
    }
}

/// An unsigned integer a [`Note`] field holds, widened without loss.
pub trait NoteValue {
    /// The value as a `u64`.
    fn to_u64(self) -> u64;
}

impl NoteValue for u64 {
    fn to_u64(self) -> u64 {
        self
    }
}

impl NoteValue for u32 {
    fn to_u64(self) -> u64 {
        self.into()
    }
}

impl NoteValue for usize {
    fn to_u64(self) -> u64 {
        // usize is at most 64 bits wide on every target this crate builds.
        self as u64
    }
}

/// A span detail or mark label: provenance such as `seq=3 peer=1 runs=4`.
///
/// A typed note holds a static [`NoteShape`] and its values, packed as
/// LEB128 varints into an inline buffer, so recording one formats and
/// allocates nothing; it renders to text ([`fmt::Display`]) only when an
/// exporter, [`pair_spans`] reader, analyzer or post-mortem reads it.
/// Values that do not fit the buffer are rendered to text at once, as are
/// the cold paths' notes (errors, timeouts, port names), which are built
/// from a `String`.  Two notes are equal when they render the same text.
#[derive(Clone)]
pub struct Note(Repr);

#[derive(Clone)]
enum Repr {
    Fields(&'static NoteShape, [u8; NOTE_BYTES]),
    Text(Box<str>),
}

impl Note {
    /// A typed note of `shape` with one value per key (see
    /// [`note!`](crate::note)).
    pub fn new(shape: &'static NoteShape, vals: &[u64]) -> Note {
        assert_eq!(vals.len(), shape.keys.len(), "one value per note key");
        let mut buf = [0u8; NOTE_BYTES];
        let mut at = 0;
        for &v in vals {
            let mut v = v;
            loop {
                let Some(byte) = buf.get_mut(at) else {
                    let mut text = String::new();
                    shape
                        .render(&mut text, vals.iter().copied())
                        .expect("writing to a String cannot fail");
                    return Note(Repr::Text(text.into()));
                };
                *byte = (v & 0x7f) as u8 | if v > 0x7f { 0x80 } else { 0 };
                at += 1;
                v >>= 7;
                if v == 0 {
                    break;
                }
            }
        }
        Note(Repr::Fields(shape, buf))
    }

    /// The value of field `key`, if the note has one.  A typed note reads
    /// it from its buffer; a text note parses the first `key=<integer>`
    /// word, so the answer does not depend on how the note is stored.
    pub fn field(&self, key: &str) -> Option<u64> {
        match &self.0 {
            Repr::Fields(shape, buf) => {
                let mut fields = shape.keys.iter().zip(varints(buf));
                fields.find(|(k, _)| **k == key).map(|(_, v)| v)
            }
            Repr::Text(text) => text.split_whitespace().find_map(|word| {
                let v = word.strip_prefix(key)?.strip_prefix('=')?;
                v.parse().ok()
            }),
        }
    }
}

/// The LEB128 varints packed into `buf`, in order.
fn varints(buf: &[u8]) -> impl Iterator<Item = u64> + '_ {
    let mut bytes = buf.iter();
    std::iter::from_fn(move || {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = bytes.next()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    })
}

impl fmt::Display for Note {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Fields(shape, buf) => shape.render(f, varints(buf)),
            Repr::Text(text) => f.write_str(text),
        }
    }
}

/// Debug-prints as the rendered text, quoted like a `String`.
impl fmt::Debug for Note {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_string(), f)
    }
}

impl PartialEq for Note {
    fn eq(&self, other: &Note) -> bool {
        self.to_string() == other.to_string()
    }
}

impl From<String> for Note {
    fn from(text: String) -> Note {
        Note(Repr::Text(text.into()))
    }
}

impl From<&str> for Note {
    fn from(text: &str) -> Note {
        Note(Repr::Text(text.into()))
    }
}

/// A typed [`Note`](crate::span::Note) from a literal head and
/// `key = value` fields, each value an unsigned integer:
/// `note!("mode=raw", seq = s, elems = n)` renders as
/// `mode=raw seq=… elems=…`, and `note!("", peer = p)` as `peer=…`.
#[macro_export]
macro_rules! note {
    ($head:literal $(, $key:ident = $val:expr)* $(,)?) => {{
        static SHAPE: $crate::span::NoteShape =
            $crate::span::NoteShape::new($head, &[$(stringify!($key)),*]);
        $crate::span::Note::new(&SHAPE, &[$($crate::span::NoteValue::to_u64($val)),*])
    }};
}

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
        SpanId::new(self.next_id)
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
    /// Provenance (`seq=3 peer=1 runs=4 …`).
    pub detail: Note,
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
            id: SpanId::new(id),
            parent: parent.map(SpanId::new),
            phase,
            detail: "".into(),
        }
    }

    /// Every note shape the transfer path records (datamove, engine,
    /// session, build), with values it sees in practice, renders exactly
    /// the text its `format!` used to build.
    #[test]
    fn notes_render_what_format_built() {
        let (seq, te, pairs, elems, epoch) = (3u32, 7u64, 2usize, 1usize << 20, 0u64);
        let (peer, runs, parts, k, total) = (65usize, 4096usize, 17usize, 9u64, 34usize);
        let (union, sp, dp) = (128usize, 64usize, 64usize);
        let elem_tag = 15_957_463_049_929_925_035u64; // a 20-digit type hash
        let cases: Vec<(Note, String)> = vec![
            (
                crate::note!("mode=raw", seq = seq, elems = elems, elem_size = 8u32),
                format!("mode=raw seq={seq} elems={elems} elem_size=8"),
            ),
            (
                crate::note!(
                    "mode=send",
                    seq = seq,
                    te = te,
                    pairs = pairs,
                    elems = elems,
                    src_epoch = epoch
                ),
                format!(
                    "mode=send seq={seq} te={te} pairs={pairs} elems={elems} src_epoch={epoch}"
                ),
            ),
            (
                crate::note!(
                    "mode=recv",
                    seq = seq,
                    pairs = pairs,
                    elems = elems,
                    dst_epoch = epoch
                ),
                format!("mode=recv seq={seq} pairs={pairs} elems={elems} dst_epoch={epoch}"),
            ),
            (
                crate::note!("", pairs = pairs, te = te),
                format!("pairs={pairs} te={te}"),
            ),
            (
                crate::note!("", seq = seq, pairs = pairs),
                format!("seq={seq} pairs={pairs}"),
            ),
            (
                crate::note!("", seq = seq, staged = total),
                format!("seq={seq} staged={total}"),
            ),
            (
                crate::note!("", seq = seq, peer = peer, runs = runs),
                format!("seq={seq} peer={peer} runs={runs}"),
            ),
            (
                crate::note!("", seq = seq, peer = peer),
                format!("seq={seq} peer={peer}"),
            ),
            (
                crate::note!("", peer = peer, runs = runs),
                format!("peer={peer} runs={runs}"),
            ),
            (crate::note!("", peer = peer), format!("peer={peer}")),
            (
                crate::note!("local_copy", pairs = runs),
                format!("local_copy pairs={runs}"),
            ),
            (
                crate::note!("", seq = seq, pairs = pairs, te = te),
                format!("seq={seq} pairs={pairs} te={te}"),
            ),
            (
                crate::note!("", peer = peer, runs = runs, te = te, parts = parts),
                format!("peer={peer} runs={runs} te={te} parts={parts}"),
            ),
            (
                crate::note!("", peer = peer, te = te),
                format!("peer={peer} te={te}"),
            ),
            (
                crate::note!("confirm", seq = seq, peer = peer, step = k),
                format!("confirm seq={seq} peer={peer} step={k}"),
            ),
            (
                crate::note!("", seq = seq, peer = peer, step = k),
                format!("seq={seq} peer={peer} step={k}"),
            ),
            (
                crate::note!(
                    "method=Cooperation",
                    union = union,
                    src_prog = sp,
                    dst_prog = dp
                ),
                format!("method=Cooperation union={union} src_prog={sp} dst_prog={dp}"),
            ),
            (
                crate::note!(
                    "method=Duplication",
                    union = union,
                    src_prog = sp,
                    dst_prog = dp
                ),
                format!("method=Duplication union={union} src_prog={sp} dst_prog={dp}"),
            ),
            (
                crate::note!(
                    "schedule built",
                    seq = seq,
                    sends = 64usize,
                    recvs = 0usize,
                    local = 0usize,
                    elems = elems,
                    elem_tag = elem_tag
                ),
                format!(
                    "schedule built seq={seq} sends=64 recvs=0 local=0 elems={elems} \
                     elem_tag={elem_tag}"
                ),
            ),
        ];
        for (note, text) in cases {
            assert_eq!(note.to_string(), text);
            assert!(matches!(note.0, Repr::Fields(..)), "`{text}` fits inline");
            assert_eq!(note, Note::from(text.as_str()));
        }
    }

    #[test]
    fn a_note_that_does_not_fit_is_rendered_as_text() {
        let big = u64::MAX;
        let note = crate::note!(
            "mode=send",
            seq = 1u32,
            te = big,
            elems = big,
            src_epoch = big
        );
        assert!(matches!(note.0, Repr::Text(_)));
        assert_eq!(
            note.to_string(),
            format!("mode=send seq=1 te={big} elems={big} src_epoch={big}")
        );
        assert_eq!(note.field("seq"), Some(1));
        assert_eq!(note.field("te"), Some(big));
    }

    #[test]
    fn typed_fields_read_back_without_rendering() {
        let note = crate::note!("mode=send", seq = 12u32, te = 300u64, pairs = 0usize);
        assert_eq!(note.field("seq"), Some(12));
        assert_eq!(note.field("te"), Some(300));
        assert_eq!(note.field("pairs"), Some(0));
        assert_eq!(note.field("elems"), None);
    }

    #[test]
    fn text_notes_read_fields_from_their_words() {
        let note = Note::from("mode=send seq=12 subseq=4 te=x");
        assert_eq!(note.field("seq"), Some(12));
        assert_eq!(note.field("subseq"), Some(4));
        assert_eq!(note.field("te"), None);
        assert_eq!(note.field("elems"), None);
        assert_eq!(Note::from("").field("seq"), None);
    }

    #[test]
    fn ring_is_bounded_and_keeps_latest() {
        let mut r = FlightRing::default();
        for i in 0..(FLIGHT_RING_CAP + 10) {
            r.push(TraceEvent::Mark {
                at: i as f64,
                label: format!("m{i}").into(),
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
            label: "".into(),
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
                id: SpanId::new(2),
            },
            begin(2.0, 3, Some(1), Phase::Wire),
            TraceEvent::SpanEnd {
                at: 3.5,
                id: SpanId::new(3),
            },
            TraceEvent::SpanEnd {
                at: 4.0,
                id: SpanId::new(1),
            },
        ];
        let spans = pair_spans(&events);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].phase, Phase::Transfer);
        assert_eq!(spans[0].duration(), 3.0);
        assert_eq!(spans[1].parent, Some(SpanId::new(1)));
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
