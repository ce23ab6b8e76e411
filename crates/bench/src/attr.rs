//! The flat attribution line `repro analyze` writes.
//!
//! [`to_json`] condenses a [`CriticalPathReport`] into the numbers the
//! `critical_path` gate suite holds: per-phase critical-path seconds and
//! shares, per-transfer latency quantiles, and the end-to-end total.  It
//! is a single-line flat JSON object with 9-digit precision, one
//! `"key": value` pair per number, which `repro gate critical_path`
//! reads through the workspace codec like any other report.  The virtual
//! clock makes identical runs bit-identical, so the suite holds every
//! leaf exactly.

use std::fmt::Write as _;

use mcsim::analyze::{CriticalPathReport, TAXONOMY};

/// Render `report` as one flat JSON line (trailing newline included):
/// `transfers`, `end_to_end_s`, then `phase_{name}_s` and
/// `phase_{name}_share` for every taxonomy phase in name order (zero when
/// unused), then `latency_{p50,p95,p99,max}_s`.
pub fn to_json(report: &CriticalPathReport) -> String {
    let (totals, shares) = (report.phase_totals(), report.phase_shares());
    let mut names = TAXONOMY;
    names.sort_unstable();
    let end_to_end: f64 = report.transfers.iter().map(|t| t.duration()).sum();
    let mut out = format!("{{\"transfers\": {}", report.transfers.len());
    let _ = write!(out, ", \"end_to_end_s\": {end_to_end:.9}");
    for (suffix, values) in [("s", &totals), ("share", &shares)] {
        for name in names {
            let v = values.get(name).copied().unwrap_or(0.0);
            let _ = write!(out, ", \"phase_{name}_{suffix}\": {v:.9}");
        }
    }
    for (q, label) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99"), (1.0, "max")] {
        let v = report.latency_quantile(q);
        let _ = write!(out, ", \"latency_{label}_s\": {v:.9}");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traced::traced_coupled_run;

    #[test]
    fn writer_line_parses_and_carries_every_phase() {
        let report = mcsim::analyze(&traced_coupled_run(64, 1).traces);
        let text = to_json(&report);
        assert!(text.ends_with("}\n") && text.lines().count() == 1);
        let doc = mcsim::json::parse(&text).expect("parse");
        let num = |key: &str| doc.get(key).and_then(|v| v.as_f64());
        assert_eq!(num("transfers"), Some(1.0));
        assert!(num("phase_wire_s").is_some_and(|s| s > 0.0));
        for name in TAXONOMY {
            for key in [format!("phase_{name}_s"), format!("phase_{name}_share")] {
                assert!(num(&key).is_some(), "{key} missing from {text}");
            }
        }
    }
}
