//! Trace exporters: Chrome `about://tracing` JSON and JSONL event
//! streams, plus the schema checker `scripts/verify.sh` runs against the
//! JSONL output.
//!
//! Both formats are produced from the per-rank timelines a traced run
//! collects (see [`crate::world::World::with_trace`]).  Timestamps are
//! the *virtual* clock, so exported timelines are deterministic.
//!
//! * **Chrome trace**: load the file at `chrome://tracing` or
//!   <https://ui.perfetto.dev>.  Spans become complete (`"ph":"X"`)
//!   events with microsecond durations; sends, receives, faults,
//!   retransmits and marks become instant (`"ph":"i"`) events.  Each
//!   rank is one thread row.
//! * **JSONL**: one JSON object per line, one line per event, with a
//!   stable `rank`/`type`/`at` core every consumer can rely on —
//!   validated by [`validate_jsonl`].

use crate::json::{self, Value};
use crate::span::pair_spans;
use crate::trace::TraceEvent;

/// `s` as a JSON string literal — quotes included — escaped by the codec.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json::write_string(s, &mut out);
    out
}

/// Seconds of virtual time → Chrome-trace microseconds.
fn us(at: f64) -> f64 {
    at * 1e6
}

/// Render per-rank timelines as a Chrome trace (JSON object format).
///
/// `traces[r]` is rank `r`'s timeline.  Spans are paired into `"X"`
/// complete events (a span never closed gets zero duration); everything
/// else becomes a thread-scoped instant.
pub fn chrome_trace_json(traces: &[Vec<TraceEvent>]) -> String {
    let mut ev = Vec::new();
    for (rank, tl) in traces.iter().enumerate() {
        ev.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\
             \"args\":{{\"name\":\"rank {rank}\"}}}}"
        ));
        for s in pair_spans(tl) {
            let parent = s.parent.map(|p| p.get().to_string()).unwrap_or_default();
            ev.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":0,\"tid\":{rank},\"args\":{{\"id\":{},\"parent\":\"{}\",\"detail\":{}}}}}",
                s.phase.as_str(),
                us(s.begin),
                us(s.duration()),
                s.id.get(),
                parent,
                quoted(&s.detail.to_string()),
            ));
        }
        for e in tl {
            let (name, args) = match e {
                TraceEvent::Send {
                    to,
                    tag,
                    bytes,
                    arrival,
                    ..
                } => (
                    "send".to_string(),
                    format!(
                        "\"to\":{to},\"tag\":{},\"bytes\":{bytes},\"arrival_us\":{:.3}",
                        tag.0,
                        us(*arrival)
                    ),
                ),
                TraceEvent::Recv {
                    from,
                    tag,
                    bytes,
                    waited,
                    ..
                } => (
                    "recv".to_string(),
                    format!(
                        "\"from\":{from},\"tag\":{},\"bytes\":{bytes},\"waited_us\":{:.3}",
                        tag.0,
                        us(*waited)
                    ),
                ),
                TraceEvent::Fault {
                    kind,
                    to,
                    tag,
                    bytes,
                    ..
                } => (
                    format!("fault:{}", fault_kind_str(*kind)),
                    format!("\"to\":{to},\"tag\":{},\"bytes\":{bytes}", tag.0),
                ),
                TraceEvent::Retransmit {
                    to,
                    tag,
                    seq,
                    attempt,
                    ..
                } => (
                    "retransmit".to_string(),
                    format!(
                        "\"to\":{to},\"tag\":{},\"seq\":{seq},\"attempt\":{attempt}",
                        tag.0
                    ),
                ),
                TraceEvent::WindowAdvance {
                    to,
                    tag,
                    acked,
                    inflight,
                    ..
                } => (
                    "window_advance".to_string(),
                    format!(
                        "\"to\":{to},\"tag\":{},\"acked\":{acked},\"inflight\":{inflight}",
                        tag.0
                    ),
                ),
                TraceEvent::WindowStall {
                    to,
                    tag,
                    inflight,
                    bytes,
                    ..
                } => (
                    "window_stall".to_string(),
                    format!(
                        "\"to\":{to},\"tag\":{},\"inflight\":{inflight},\"bytes\":{bytes}",
                        tag.0
                    ),
                ),
                TraceEvent::RetransmitBurst {
                    to, tag, frames, ..
                } => (
                    "retransmit_burst".to_string(),
                    format!("\"to\":{to},\"tag\":{},\"frames\":{frames}", tag.0),
                ),
                TraceEvent::Mark { label, .. } => (
                    "mark".to_string(),
                    format!("\"label\":{}", quoted(&label.to_string())),
                ),
                TraceEvent::Heartbeat { incarnation, .. } => (
                    "heartbeat".to_string(),
                    format!("\"incarnation\":{incarnation}"),
                ),
                TraceEvent::LeaseExpired {
                    rank: peer,
                    incarnation,
                    ..
                } => (
                    "lease_expired".to_string(),
                    format!("\"peer\":{peer},\"incarnation\":{incarnation}"),
                ),
                TraceEvent::Recovered {
                    rank: peer,
                    incarnation,
                    ..
                } => (
                    "recovered".to_string(),
                    format!("\"peer\":{peer},\"incarnation\":{incarnation}"),
                ),
                TraceEvent::PartReplayed { from, parts, .. } => (
                    "part_replayed".to_string(),
                    format!("\"from\":{from},\"parts\":{parts}"),
                ),
                TraceEvent::SpanBegin { .. } | TraceEvent::SpanEnd { .. } => continue,
            };
            ev.push(format!(
                "{{\"name\":\"{name}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{:.3},\"pid\":0,\"tid\":{rank},\"args\":{{{args}}}}}",
                us(e.at())
            ));
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        ev.join(",\n")
    )
}

fn fault_kind_str(k: crate::trace::FaultKind) -> &'static str {
    match k {
        crate::trace::FaultKind::Drop => "drop",
        crate::trace::FaultKind::Duplicate => "duplicate",
        crate::trace::FaultKind::Corrupt => "corrupt",
        crate::trace::FaultKind::Delay => "delay",
    }
}

/// Render one event as its JSONL line (no trailing newline).
pub fn jsonl_line(rank: usize, e: &TraceEvent) -> String {
    let head = format!("{{\"rank\":{rank},\"at\":{:.9}", e.at());
    match e {
        TraceEvent::Send {
            to,
            tag,
            bytes,
            arrival,
            ..
        } => format!(
            "{head},\"type\":\"send\",\"to\":{to},\"tag\":{},\"bytes\":{bytes},\
             \"arrival\":{arrival:.9}}}",
            tag.0
        ),
        TraceEvent::Recv {
            from,
            tag,
            bytes,
            waited,
            ..
        } => format!(
            "{head},\"type\":\"recv\",\"from\":{from},\"tag\":{},\"bytes\":{bytes},\
             \"waited\":{waited:.9}}}",
            tag.0
        ),
        TraceEvent::Fault {
            kind,
            to,
            tag,
            bytes,
            ..
        } => format!(
            "{head},\"type\":\"fault\",\"kind\":\"{}\",\"to\":{to},\"tag\":{},\"bytes\":{bytes}}}",
            fault_kind_str(*kind),
            tag.0
        ),
        TraceEvent::Retransmit {
            to,
            tag,
            seq,
            attempt,
            ..
        } => format!(
            "{head},\"type\":\"retransmit\",\"to\":{to},\"tag\":{},\"seq\":{seq},\
             \"attempt\":{attempt}}}",
            tag.0
        ),
        TraceEvent::WindowAdvance {
            to,
            tag,
            acked,
            inflight,
            ..
        } => format!(
            "{head},\"type\":\"window_advance\",\"to\":{to},\"tag\":{},\"acked\":{acked},\
             \"inflight\":{inflight}}}",
            tag.0
        ),
        TraceEvent::WindowStall {
            to,
            tag,
            inflight,
            bytes,
            ..
        } => format!(
            "{head},\"type\":\"window_stall\",\"to\":{to},\"tag\":{},\"inflight\":{inflight},\
             \"bytes\":{bytes}}}",
            tag.0
        ),
        TraceEvent::RetransmitBurst {
            to, tag, frames, ..
        } => format!(
            "{head},\"type\":\"retransmit_burst\",\"to\":{to},\"tag\":{},\"frames\":{frames}}}",
            tag.0
        ),
        TraceEvent::SpanBegin {
            id,
            parent,
            phase,
            detail,
            ..
        } => format!(
            "{head},\"type\":\"span_begin\",\"id\":{},\"parent\":{},\"phase\":\"{}\",\
             \"detail\":{}}}",
            id.get(),
            parent
                .map(|p| p.get().to_string())
                .unwrap_or_else(|| "null".into()),
            phase.as_str(),
            quoted(&detail.to_string())
        ),
        TraceEvent::SpanEnd { id, .. } => {
            format!("{head},\"type\":\"span_end\",\"id\":{}}}", id.get())
        }
        TraceEvent::Mark { label, .. } => {
            format!(
                "{head},\"type\":\"mark\",\"label\":{}}}",
                quoted(&label.to_string())
            )
        }
        TraceEvent::Heartbeat { incarnation, .. } => {
            format!("{head},\"type\":\"heartbeat\",\"incarnation\":{incarnation}}}")
        }
        TraceEvent::LeaseExpired {
            rank: peer,
            incarnation,
            ..
        } => format!(
            "{head},\"type\":\"lease_expired\",\"peer\":{peer},\"incarnation\":{incarnation}}}"
        ),
        TraceEvent::Recovered {
            rank: peer,
            incarnation,
            ..
        } => {
            format!("{head},\"type\":\"recovered\",\"peer\":{peer},\"incarnation\":{incarnation}}}")
        }
        TraceEvent::PartReplayed { from, parts, .. } => {
            format!("{head},\"type\":\"part_replayed\",\"from\":{from},\"parts\":{parts}}}")
        }
    }
}

/// Render per-rank timelines as a JSONL stream (one event per line).
pub fn jsonl_events(traces: &[Vec<TraceEvent>]) -> String {
    let mut out = String::new();
    for (rank, tl) in traces.iter().enumerate() {
        for e in tl {
            out.push_str(&jsonl_line(rank, e));
            out.push('\n');
        }
    }
    out
}

/// What [`validate_jsonl`] learned about a stream.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total event lines.
    pub lines: usize,
    /// Distinct ranks seen.
    pub ranks: usize,
    /// `span_begin` lines.
    pub span_begins: usize,
    /// `span_end` lines.
    pub span_ends: usize,
    /// Distinct phase names seen on `span_begin` lines.
    pub phases: Vec<String>,
}

const KNOWN_TYPES: [&str; 14] = [
    "send",
    "recv",
    "fault",
    "retransmit",
    "window_advance",
    "window_stall",
    "retransmit_burst",
    "span_begin",
    "span_end",
    "mark",
    "heartbeat",
    "lease_expired",
    "recovered",
    "part_replayed",
];

/// Validate a JSONL trace stream: every line must carry the
/// `rank`/`type`/`at` core with sane values, known types, the
/// type-specific required fields, and span begin/end counts must
/// balance per rank.  Returns a summary on success, the first offending
/// line on failure.
pub fn validate_jsonl(text: &str) -> Result<TraceCheck, String> {
    let mut check = TraceCheck::default();
    let mut ranks = std::collections::BTreeSet::new();
    let mut opens: std::collections::HashMap<(u64, u64), ()> = std::collections::HashMap::new();
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let err = |what: &str| Err(format!("line {}: {what}: {line}", no + 1));
        let Ok(obj @ Value::Obj(_)) = json::parse(line) else {
            return err("not a JSON object");
        };
        let Some(rank) = obj.get("rank").and_then(Value::as_u64) else {
            return err("missing/invalid rank");
        };
        let Some(at) = obj.get("at").and_then(Value::as_f64) else {
            return err("missing/invalid at");
        };
        if !at.is_finite() || at < 0.0 {
            return err("non-finite or negative at");
        }
        let Some(ty) = obj.get("type").and_then(Value::as_str) else {
            return err("missing type");
        };
        if !KNOWN_TYPES.contains(&ty) {
            return err("unknown type");
        }
        let required: &[&str] = match ty {
            "send" => &["to", "tag", "bytes", "arrival"],
            "recv" => &["from", "tag", "bytes", "waited"],
            "fault" => &["kind", "to", "tag", "bytes"],
            "retransmit" => &["to", "tag", "seq", "attempt"],
            "window_advance" => &["to", "tag", "acked", "inflight"],
            "window_stall" => &["to", "tag", "inflight", "bytes"],
            "retransmit_burst" => &["to", "tag", "frames"],
            "span_begin" => &["id", "parent", "phase", "detail"],
            "span_end" => &["id"],
            "mark" => &["label"],
            "heartbeat" => &["incarnation"],
            "lease_expired" => &["peer", "incarnation"],
            "recovered" => &["peer", "incarnation"],
            "part_replayed" => &["from", "parts"],
            _ => unreachable!(),
        };
        for key in required {
            if obj.get(key).is_none() {
                return err(&format!("missing field `{key}`"));
            }
        }
        match ty {
            "span_begin" => {
                check.span_begins += 1;
                let phase = obj.get("phase").and_then(Value::as_str).unwrap_or_default();
                if !check.phases.iter().any(|p| p == phase) {
                    check.phases.push(phase.to_string());
                }
                let Some(id) = obj.get("id").and_then(Value::as_u64) else {
                    return err("invalid span id");
                };
                opens.insert((rank, id), ());
            }
            "span_end" => {
                check.span_ends += 1;
                let Some(id) = obj.get("id").and_then(Value::as_u64) else {
                    return err("invalid span id");
                };
                if opens.remove(&(rank, id)).is_none() {
                    return err("span_end without matching span_begin");
                }
            }
            _ => {}
        }
        ranks.insert(rank);
        check.lines += 1;
    }
    if !opens.is_empty() {
        // Unclosed spans are legal only for crashed ranks; the checker
        // tolerates them but a fully balanced stream is the common case.
        check.span_ends = check.span_begins - opens.len();
    }
    check.ranks = ranks.len();
    if check.lines == 0 {
        return Err("empty trace: no event lines".to_string());
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Phase, SpanId};
    use crate::tag::Tag;

    fn sample() -> Vec<Vec<TraceEvent>> {
        vec![vec![
            TraceEvent::SpanBegin {
                at: 0.0,
                id: SpanId::new(1),
                parent: None,
                phase: Phase::Transfer,
                detail: "seq=1".into(),
            },
            TraceEvent::Send {
                at: 0.1,
                to: 1,
                tag: Tag::user(3),
                bytes: 64,
                arrival: 0.2,
            },
            TraceEvent::SpanEnd {
                at: 0.3,
                id: SpanId::new(1),
            },
            TraceEvent::Mark {
                at: 0.4,
                label: "cache=hit \"quoted\"".into(),
            },
            TraceEvent::WindowAdvance {
                at: 0.5,
                to: 1,
                tag: Tag::user(3),
                acked: 7,
                inflight: 2,
            },
            TraceEvent::WindowStall {
                at: 0.6,
                to: 1,
                tag: Tag::user(3),
                inflight: 4,
                bytes: 4096,
            },
            TraceEvent::RetransmitBurst {
                at: 0.7,
                to: 1,
                tag: Tag::user(3),
                frames: 3,
            },
        ]]
    }

    #[test]
    fn jsonl_round_trips_through_validator() {
        let text = jsonl_events(&sample());
        let check = validate_jsonl(&text).expect("valid");
        assert_eq!(check.lines, 7);
        assert_eq!(check.ranks, 1);
        assert_eq!(check.span_begins, 1);
        assert_eq!(check.span_ends, 1);
        assert_eq!(check.phases, vec!["transfer".to_string()]);
    }

    #[test]
    fn every_variant_round_trips_through_exporters() {
        // One representative event per variant (sample_events' match in
        // TraceEvent::kind is exhaustive, so a new variant breaks the
        // build before it can ship without exporter coverage here).
        let events = TraceEvent::sample_events();
        let traces = vec![events.clone()];

        // JSONL: every line validates and carries its variant's wire name.
        let text = jsonl_events(&traces);
        let check = validate_jsonl(&text).expect("all variants validate");
        assert_eq!(check.lines, events.len());
        for (line, e) in text.lines().zip(&events) {
            let ty = json::parse(line).expect("line parses");
            assert_eq!(ty.get("type").and_then(Value::as_str), Some(e.kind()));
        }

        // The sample kinds cover the validator's full type registry —
        // no known type without a sample, no sample the checker rejects.
        let mut kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        let mut known = KNOWN_TYPES.to_vec();
        known.sort_unstable();
        assert_eq!(kinds, known);

        // Chrome trace: spans appear as complete events, every other
        // variant as a named instant.
        let json = chrome_trace_json(&traces);
        for e in &events {
            match e {
                TraceEvent::SpanBegin { .. } => assert!(json.contains("\"ph\":\"X\"")),
                TraceEvent::SpanEnd { .. } => {}
                TraceEvent::Fault { .. } => assert!(json.contains("\"name\":\"fault:drop\"")),
                other => assert!(
                    json.contains(&format!("\"name\":\"{}\"", other.kind())),
                    "chrome trace missing instant for {}",
                    other.kind()
                ),
            }
        }
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_jsonl("").is_err());
        assert!(validate_jsonl("not json\n").is_err());
        assert!(validate_jsonl("{\"rank\":0,\"at\":1.0,\"type\":\"nonsense\"}\n").is_err());
        // Missing a type-specific required field.
        assert!(validate_jsonl("{\"rank\":0,\"at\":1.0,\"type\":\"send\",\"to\":1}\n").is_err());
        // span_end with no begin.
        assert!(
            validate_jsonl("{\"rank\":0,\"at\":1.0,\"type\":\"span_end\",\"id\":9}\n").is_err()
        );
    }

    #[test]
    fn chrome_trace_contains_span_and_instants() {
        let json = chrome_trace_json(&sample());
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"transfer\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"send\""));
        assert!(json.contains("\"name\":\"window_advance\""));
        assert!(json.contains("\"name\":\"window_stall\""));
        assert!(json.contains("\"name\":\"retransmit_burst\""));
        // Duration of the transfer span: 0.3 s = 300000 µs.
        assert!(json.contains("\"dur\":300000.000"));
        // Escaped quote in the mark label survived.
        assert!(json.contains("cache=hit \\\"quoted\\\""));
    }
}
