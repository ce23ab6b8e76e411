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

use std::fmt::Write;

use crate::json::{self, Value};
use crate::span::pair_spans;
use crate::trace::{FaultKind, TraceEvent};

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

/// One exported field value.
enum Val {
    Int(u64),
    /// Virtual seconds: `{:.9}` s in JSONL, `<key>_us` at `{:.3}` µs in
    /// Chrome.
    Secs(f64),
    Text(String),
    Null,
}

/// An event's type name and its fields in export order — the one
/// description both exporters render, and the match a new variant must
/// extend before it can ship.
fn fields(e: &TraceEvent) -> (&'static str, Vec<(&'static str, Val)>) {
    use Val::{Int, Secs, Text};
    let n = |v: usize| Int(v as u64);
    match e {
        TraceEvent::Send {
            to,
            tag,
            bytes,
            arrival,
            ..
        } => (
            "send",
            vec![
                ("to", n(*to)),
                ("tag", Int(tag.0)),
                ("bytes", n(*bytes)),
                ("arrival", Secs(*arrival)),
            ],
        ),
        TraceEvent::Recv {
            from,
            tag,
            bytes,
            waited,
            ..
        } => (
            "recv",
            vec![
                ("from", n(*from)),
                ("tag", Int(tag.0)),
                ("bytes", n(*bytes)),
                ("waited", Secs(*waited)),
            ],
        ),
        TraceEvent::Fault {
            kind,
            to,
            tag,
            bytes,
            ..
        } => (
            "fault",
            vec![
                ("kind", Text(fault_kind_str(*kind).into())),
                ("to", n(*to)),
                ("tag", Int(tag.0)),
                ("bytes", n(*bytes)),
            ],
        ),
        TraceEvent::Retransmit {
            to,
            tag,
            seq,
            attempt,
            ..
        } => (
            "retransmit",
            vec![
                ("to", n(*to)),
                ("tag", Int(tag.0)),
                ("seq", Int(*seq)),
                ("attempt", Int((*attempt).into())),
            ],
        ),
        TraceEvent::WindowAdvance {
            to,
            tag,
            acked,
            inflight,
            ..
        } => (
            "window_advance",
            vec![
                ("to", n(*to)),
                ("tag", Int(tag.0)),
                ("acked", Int(*acked)),
                ("inflight", n(*inflight)),
            ],
        ),
        TraceEvent::WindowStall {
            to,
            tag,
            inflight,
            bytes,
            ..
        } => (
            "window_stall",
            vec![
                ("to", n(*to)),
                ("tag", Int(tag.0)),
                ("inflight", n(*inflight)),
                ("bytes", n(*bytes)),
            ],
        ),
        TraceEvent::RetransmitBurst {
            to, tag, frames, ..
        } => (
            "retransmit_burst",
            vec![("to", n(*to)), ("tag", Int(tag.0)), ("frames", n(*frames))],
        ),
        TraceEvent::SpanBegin {
            id,
            parent,
            phase,
            detail,
            ..
        } => (
            "span_begin",
            vec![
                ("id", Int(id.get())),
                ("parent", parent.map_or(Val::Null, |p| Int(p.get()))),
                ("phase", Text(phase.as_str().into())),
                ("detail", Text(detail.to_string())),
            ],
        ),
        TraceEvent::SpanEnd { id, .. } => ("span_end", vec![("id", Int(id.get()))]),
        TraceEvent::Mark { label, .. } => ("mark", vec![("label", Text(label.to_string()))]),
        TraceEvent::Heartbeat { incarnation, .. } => {
            ("heartbeat", vec![("incarnation", Int(*incarnation))])
        }
        TraceEvent::LeaseExpired {
            rank, incarnation, ..
        } => (
            "lease_expired",
            vec![("peer", n(*rank)), ("incarnation", Int(*incarnation))],
        ),
        TraceEvent::Recovered {
            rank, incarnation, ..
        } => (
            "recovered",
            vec![("peer", n(*rank)), ("incarnation", Int(*incarnation))],
        ),
        TraceEvent::PartReplayed { from, parts, .. } => (
            "part_replayed",
            vec![("from", n(*from)), ("parts", n(*parts))],
        ),
    }
}

/// Append `fields` to `out` as comma-separated `"key":value` pairs, in
/// Chrome's units when `chrome` is set.
fn write_fields(out: &mut String, fields: &[(&str, Val)], chrome: bool) {
    for (i, (key, val)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = match val {
            Val::Int(v) => write!(out, "\"{key}\":{v}"),
            Val::Secs(s) if chrome => write!(out, "\"{key}_us\":{:.3}", us(*s)),
            Val::Secs(s) => write!(out, "\"{key}\":{s:.9}"),
            Val::Text(t) => write!(out, "\"{key}\":{}", quoted(t)),
            Val::Null => write!(out, "\"{key}\":null"),
        };
    }
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
            if matches!(e, TraceEvent::SpanBegin { .. } | TraceEvent::SpanEnd { .. }) {
                continue;
            }
            let (ty, mut fs) = fields(e);
            let name = match e {
                TraceEvent::Fault { kind, .. } => {
                    fs.retain(|(key, _)| *key != "kind");
                    format!("fault:{}", fault_kind_str(*kind))
                }
                _ => ty.to_string(),
            };
            let mut line = format!(
                "{{\"name\":\"{name}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{:.3},\"pid\":0,\"tid\":{rank},\"args\":{{",
                us(e.at())
            );
            write_fields(&mut line, &fs, true);
            line.push_str("}}");
            ev.push(line);
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        ev.join(",\n")
    )
}

fn fault_kind_str(k: FaultKind) -> &'static str {
    match k {
        FaultKind::Drop => "drop",
        FaultKind::Duplicate => "duplicate",
        FaultKind::Corrupt => "corrupt",
        FaultKind::Delay => "delay",
    }
}

/// Render one event as its JSONL line (no trailing newline).
pub fn jsonl_line(rank: usize, e: &TraceEvent) -> String {
    let (ty, fs) = fields(e);
    let mut line = format!("{{\"rank\":{rank},\"at\":{:.9},\"type\":\"{ty}\",", e.at());
    write_fields(&mut line, &fs, false);
    line.push('}');
    line
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

/// Every event type a JSONL stream may carry, with the fields its lines
/// must have.  Written out apart from [`fields`], because it is the check
/// on what the writer emits.
const SCHEMA: [(&str, &[&str]); 14] = [
    ("send", &["to", "tag", "bytes", "arrival"]),
    ("recv", &["from", "tag", "bytes", "waited"]),
    ("fault", &["kind", "to", "tag", "bytes"]),
    ("retransmit", &["to", "tag", "seq", "attempt"]),
    ("window_advance", &["to", "tag", "acked", "inflight"]),
    ("window_stall", &["to", "tag", "inflight", "bytes"]),
    ("retransmit_burst", &["to", "tag", "frames"]),
    ("span_begin", &["id", "parent", "phase", "detail"]),
    ("span_end", &["id"]),
    ("mark", &["label"]),
    ("heartbeat", &["incarnation"]),
    ("lease_expired", &["peer", "incarnation"]),
    ("recovered", &["peer", "incarnation"]),
    ("part_replayed", &["from", "parts"]),
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
        let Some(&(_, required)) = SCHEMA.iter().find(|(t, _)| *t == ty) else {
            return err("unknown type");
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
        // One representative event per variant (`fields` matches
        // exhaustively, so a new variant breaks the build before it can
        // ship without a sample here).
        let events = TraceEvent::sample_events();
        let text = jsonl_events(std::slice::from_ref(&events));
        let check = validate_jsonl(&text).expect("all variants validate");
        assert_eq!(check.lines, events.len());

        // Each sample writes exactly the keys the schema requires, and the
        // samples cover the schema: no known type without a sample, no
        // sample the checker rejects.
        let mut types = Vec::new();
        for e in &events {
            let (ty, fs) = fields(e);
            let keys: Vec<&str> = fs.iter().map(|(key, _)| *key).collect();
            let want = SCHEMA.iter().find(|(t, _)| *t == ty).expect("known type");
            assert_eq!(keys, want.1, "{ty}");
            types.push(ty);
        }
        types.sort_unstable();
        types.dedup();
        assert_eq!(types.len(), SCHEMA.len());
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

    /// The exact text both exporters write for one event of each variant.
    #[test]
    fn sample_events_export_exactly() {
        let traces = vec![TraceEvent::sample_events()];
        let jsonl = [
            r#"{"rank":0,"at":0.100000000,"type":"send","to":1,"tag":3,"bytes":64,"arrival":0.200000000}"#,
            r#"{"rank":0,"at":0.200000000,"type":"recv","from":0,"tag":3,"bytes":64,"waited":0.050000000}"#,
            r#"{"rank":0,"at":0.300000000,"type":"fault","kind":"drop","to":1,"tag":3,"bytes":64}"#,
            r#"{"rank":0,"at":0.400000000,"type":"retransmit","to":1,"tag":3,"seq":7,"attempt":1}"#,
            r#"{"rank":0,"at":0.500000000,"type":"window_advance","to":1,"tag":3,"acked":7,"inflight":3}"#,
            r#"{"rank":0,"at":0.600000000,"type":"window_stall","to":1,"tag":3,"inflight":64,"bytes":1048576}"#,
            r#"{"rank":0,"at":0.700000000,"type":"retransmit_burst","to":1,"tag":3,"frames":5}"#,
            r#"{"rank":0,"at":0.800000000,"type":"span_begin","id":1,"parent":null,"phase":"transfer","detail":"seq=1"}"#,
            r#"{"rank":0,"at":0.900000000,"type":"span_end","id":1}"#,
            r#"{"rank":0,"at":1.000000000,"type":"mark","label":"cache=hit"}"#,
            r#"{"rank":0,"at":1.100000000,"type":"heartbeat","incarnation":2}"#,
            r#"{"rank":0,"at":1.200000000,"type":"lease_expired","peer":1,"incarnation":2}"#,
            r#"{"rank":0,"at":1.300000000,"type":"recovered","peer":0,"incarnation":3}"#,
            r#"{"rank":0,"at":1.400000000,"type":"part_replayed","from":1,"parts":4}"#,
        ];
        assert_eq!(
            jsonl_events(&traces),
            jsonl.map(|l| l.to_string() + "\n").concat()
        );
        let chrome = [
            r#"{"displayTimeUnit":"ms","traceEvents":["#,
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"rank 0"}},"#,
            r#"{"name":"transfer","cat":"span","ph":"X","ts":800000.000,"dur":100000.000,"pid":0,"tid":0,"args":{"id":1,"parent":"","detail":"seq=1"}},"#,
            r#"{"name":"send","cat":"event","ph":"i","s":"t","ts":100000.000,"pid":0,"tid":0,"args":{"to":1,"tag":3,"bytes":64,"arrival_us":200000.000}},"#,
            r#"{"name":"recv","cat":"event","ph":"i","s":"t","ts":200000.000,"pid":0,"tid":0,"args":{"from":0,"tag":3,"bytes":64,"waited_us":50000.000}},"#,
            r#"{"name":"fault:drop","cat":"event","ph":"i","s":"t","ts":300000.000,"pid":0,"tid":0,"args":{"to":1,"tag":3,"bytes":64}},"#,
            r#"{"name":"retransmit","cat":"event","ph":"i","s":"t","ts":400000.000,"pid":0,"tid":0,"args":{"to":1,"tag":3,"seq":7,"attempt":1}},"#,
            r#"{"name":"window_advance","cat":"event","ph":"i","s":"t","ts":500000.000,"pid":0,"tid":0,"args":{"to":1,"tag":3,"acked":7,"inflight":3}},"#,
            r#"{"name":"window_stall","cat":"event","ph":"i","s":"t","ts":600000.000,"pid":0,"tid":0,"args":{"to":1,"tag":3,"inflight":64,"bytes":1048576}},"#,
            r#"{"name":"retransmit_burst","cat":"event","ph":"i","s":"t","ts":700000.000,"pid":0,"tid":0,"args":{"to":1,"tag":3,"frames":5}},"#,
            r#"{"name":"mark","cat":"event","ph":"i","s":"t","ts":1000000.000,"pid":0,"tid":0,"args":{"label":"cache=hit"}},"#,
            r#"{"name":"heartbeat","cat":"event","ph":"i","s":"t","ts":1100000.000,"pid":0,"tid":0,"args":{"incarnation":2}},"#,
            r#"{"name":"lease_expired","cat":"event","ph":"i","s":"t","ts":1200000.000,"pid":0,"tid":0,"args":{"peer":1,"incarnation":2}},"#,
            r#"{"name":"recovered","cat":"event","ph":"i","s":"t","ts":1300000.000,"pid":0,"tid":0,"args":{"peer":0,"incarnation":3}},"#,
            r#"{"name":"part_replayed","cat":"event","ph":"i","s":"t","ts":1400000.000,"pid":0,"tid":0,"args":{"from":1,"parts":4}}"#,
            r#"]}"#,
        ];
        let got = chrome_trace_json(&traces);
        assert_eq!(got, chrome.map(|l| l.to_string() + "\n").concat());
        assert!(matches!(json::parse(&got), Ok(Value::Obj(_))));
    }
}
