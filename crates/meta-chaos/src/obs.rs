//! Observability for the Meta-Chaos layer: phase spans, provenance
//! marks, and the abort post-mortem.
//!
//! The span instrumentation lives inline in [`crate::build`],
//! [`crate::api`], [`crate::datamove`] and [`crate::coupling`], producing
//! the hierarchy `transfer > {inspect, manifest, pack, wire, stage,
//! commit, abort}` on each rank's timeline (see `mcsim::span`).  This
//! module owns what happens when a transfer *fails*: every abort site
//! calls [`record_abort`], which snapshots the endpoint's flight
//! recorder — the last [`mcsim::span::FLIGHT_RING_CAP`] events, always
//! recorded — into a per-rank, endpoint-scratch-keyed [`AbortReport`]
//! (not a thread-local: under the cooperative runner one OS thread hosts
//! many ranks).  The SPMD
//! closure that observed the `McError` can then pick the report up with
//! [`take_last_abort`] and attach it to whatever error surface it uses,
//! turning a bare error code into a post-mortem: which pair, which
//! epoch, which protocol events led up to the failure.
//!
//! `McError` itself stays a plain, `PartialEq`-comparable value — the
//! dump rides next to it, not inside it.

use std::collections::BTreeMap;

use mcsim::analyze::CriticalPathReport;
use mcsim::export::jsonl_line;
use mcsim::prelude::Endpoint;
use mcsim::trace::TraceEvent;

use crate::error::McError;

/// Post-mortem for one aborted transfer on one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct AbortReport {
    /// The rank that aborted.
    pub rank: usize,
    /// Virtual time of the abort.
    pub at: f64,
    /// `Display` rendering of the `McError` that caused it.
    pub error: String,
    /// Flight-recorder contents at the moment of the abort, oldest
    /// first: the last spans, sends/receives, faults, retransmits and
    /// marks that led up to the failure.
    pub events: Vec<TraceEvent>,
}

impl AbortReport {
    /// Human-readable post-mortem: the error, then one line per
    /// recorded event (JSONL, same schema as the exporters).
    pub fn render(&self) -> String {
        let mut out = format!(
            "rank {} aborted at t={:.9}: {}\nflight recorder ({} events):\n",
            self.rank,
            self.at,
            self.error,
            self.events.len()
        );
        for e in &self.events {
            out.push_str("  ");
            out.push_str(&jsonl_line(self.rank, e));
            out.push('\n');
        }
        out
    }
}

/// Critical-path attribution folded up to *library pairs* — the paper's
/// unit of interoperability (Multiblock↔HPF, …).  A thin layer over
/// [`mod@mcsim::analyze`]: the simulator only knows ranks, so the caller
/// supplies the rank→library labeling (the bench and fuzz harnesses
/// know which ranks run which library).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PairAttribution {
    /// Per (source library, destination library): critical-path seconds
    /// per taxonomy phase, summed over the transfers whose path ran
    /// from a rank of the first library to a rank of the second.
    pub pairs: BTreeMap<(String, String), BTreeMap<&'static str, f64>>,
    /// Per (source library, destination library): wire + retransmit
    /// seconds on the critical path, folded from the per-link table.
    pub link_wire: BTreeMap<(String, String), f64>,
}

impl PairAttribution {
    /// Human-readable `src->dst phase seconds` lines, pair-ordered.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for ((src, dst), phases) in &self.pairs {
            for (phase, secs) in phases {
                out.push(format!("{src}->{dst} {phase} {secs:.9}"));
            }
        }
        for ((src, dst), secs) in &self.link_wire {
            out.push(format!("{src}->{dst} link_wire {secs:.9}"));
        }
        out
    }
}

/// Fold a run's critical-path report up to library pairs.  `lib_of`
/// labels each global rank with the library it runs; a transfer's
/// phases are attributed to the (start-rank library, end-rank library)
/// pair its critical path connected.
pub fn attribute_pairs(
    report: &CriticalPathReport,
    lib_of: impl Fn(usize) -> String,
) -> PairAttribution {
    let mut out = PairAttribution::default();
    for t in &report.transfers {
        let key = (lib_of(t.start_rank), lib_of(t.end_rank));
        let acc = out.pairs.entry(key).or_default();
        for (phase, secs) in &t.phases {
            *acc.entry(phase).or_insert(0.0) += secs;
        }
    }
    for ((src, dst), secs) in &report.per_link {
        *out.link_wire
            .entry((lib_of(*src), lib_of(*dst)))
            .or_insert(0.0) += secs;
    }
    out
}

/// Scratch key of the per-rank last-abort slot (endpoint scratch rather
/// than a thread-local, so it stays rank-local under the cooperative
/// runner where one OS thread hosts many ranks).
const LAST_ABORT_KEY: u32 = 0x4142_5254; // "ABRT"

/// Capture the flight recorder into this rank's [`AbortReport`].  Called
/// by every abort site in the data-move path; also records an `abort`
/// mark so the dump itself ends with the failure.
pub fn record_abort(ep: &mut Endpoint, err: &McError) {
    ep.mark(|| format!("abort error={err}"));
    let report = AbortReport {
        rank: ep.rank(),
        at: ep.clock(),
        error: err.to_string(),
        events: ep.flight_dump(),
    };
    *ep.scratch::<Option<AbortReport>>(LAST_ABORT_KEY) = Some(report);
}

/// Take (and clear) this rank's most recent abort report.
pub fn take_last_abort(ep: &mut Endpoint) -> Option<AbortReport> {
    ep.scratch::<Option<AbortReport>>(LAST_ABORT_KEY).take()
}

/// Render `err` together with this rank's most recent abort report (if
/// one was captured), consuming the report.  The one-stop "error report
/// with the dump attached" for callers that just want text.
pub fn report_with_post_mortem(ep: &mut Endpoint, err: &McError) -> String {
    match take_last_abort(ep) {
        Some(r) => format!("{err}\n{}", r.render()),
        None => err.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim::span::SpanId;

    #[test]
    fn report_renders_error_and_events() {
        let r = AbortReport {
            rank: 3,
            at: 1.5,
            error: "boom".into(),
            events: vec![
                TraceEvent::SpanEnd {
                    at: 1.0,
                    id: SpanId(7),
                },
                TraceEvent::Mark {
                    at: 1.5,
                    label: "abort error=boom".into(),
                },
            ],
        };
        let text = r.render();
        assert!(text.contains("rank 3 aborted"));
        assert!(text.contains("boom"));
        assert!(text.contains("span_end"));
        assert!(text.contains("abort error=boom"));
    }

    #[test]
    fn pair_attribution_folds_ranks_to_libraries() {
        use mcsim::analyze::TransferPath;
        let mut report = CriticalPathReport::default();
        let mut phases = BTreeMap::new();
        phases.insert("pack", 1.0);
        phases.insert("wire", 2.0);
        report.transfers.push(TransferPath {
            seq: 1,
            occurrence: 0,
            span_begin: 0.0,
            start: 0.0,
            end: 3.0,
            end_rank: 2,
            start_rank: 0,
            hops: 1,
            segments: 2,
            phases,
        });
        report.per_link.insert((0, 2), 2.0);
        let lib = |r: usize| {
            if r < 2 {
                "multiblock".to_string()
            } else {
                "hpf".to_string()
            }
        };
        let pa = attribute_pairs(&report, lib);
        let key = ("multiblock".to_string(), "hpf".to_string());
        assert!((pa.pairs[&key]["wire"] - 2.0).abs() < 1e-12);
        assert!((pa.pairs[&key]["pack"] - 1.0).abs() < 1e-12);
        assert!((pa.link_wire[&key] - 2.0).abs() < 1e-12);
        assert!(pa
            .lines()
            .iter()
            .any(|l| l.starts_with("multiblock->hpf wire")));
    }

    #[test]
    fn take_clears_the_slot() {
        use mcsim::model::MachineModel;
        use mcsim::world::World;
        let world = World::with_model(1, MachineModel::zero());
        let out = world.run(|ep| {
            record_abort(ep, &McError::Transport("x".into()));
            let first = take_last_abort(ep).is_some();
            let second = take_last_abort(ep).is_none();
            (first, second)
        });
        assert_eq!(out.results[0], (true, true));
    }
}
