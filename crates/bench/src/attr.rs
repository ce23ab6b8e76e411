//! Flat attribution summaries and the trace-diff regression check.
//!
//! [`Attribution`] condenses a [`CriticalPathReport`] into the numbers a
//! regression gate needs: per-phase critical-path seconds and shares,
//! per-transfer latency quantiles, and the end-to-end total.  It
//! serializes to a single-line flat JSON object (9-digit precision, one
//! `"key": value` pair per number) and parses back through the workspace
//! codec, so `repro trace-diff` can compare a fresh run against a
//! committed baseline file.
//!
//! Diff semantics: a phase **regresses** when its critical-path seconds
//! grow beyond `baseline × (1 + threshold)` (plus a 1 µs absolute floor
//! so noise around zero can't trip the gate).  Seconds, not shares, are
//! the gated quantity — when wire already dominates, doubling the wire
//! cost barely moves its *share* but doubles its *seconds*.  Identical
//! runs are bit-identical on the virtual clock, so their diff is exactly
//! zero.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mcsim::analyze::{CriticalPathReport, TAXONOMY};

/// Absolute floor (seconds) under which phase growth never counts as a
/// regression — keeps near-zero phases from tripping on noise.
pub const ABS_FLOOR_S: f64 = 1e-6;

/// Flat per-run attribution summary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Attribution {
    /// Number of coupled transfers analyzed.
    pub transfers: u64,
    /// Summed end-to-end critical-path seconds over all transfers.
    pub end_to_end_s: f64,
    /// Critical-path seconds per taxonomy phase (all phases present,
    /// zero when unused).
    pub phase_s: BTreeMap<String, f64>,
    /// Per-phase share of `end_to_end_s`, in `[0, 1]`.
    pub phase_share: BTreeMap<String, f64>,
    /// Per-transfer latency quantiles (virtual seconds).
    pub latency_p50_s: f64,
    /// 95th percentile per-transfer latency.
    pub latency_p95_s: f64,
    /// 99th percentile per-transfer latency.
    pub latency_p99_s: f64,
    /// Slowest transfer.
    pub latency_max_s: f64,
}

impl Attribution {
    /// Condense a critical-path report.
    pub fn from_report(report: &CriticalPathReport) -> Self {
        let totals = report.phase_totals();
        let shares = report.phase_shares();
        let mut phase_s = BTreeMap::new();
        let mut phase_share = BTreeMap::new();
        for name in TAXONOMY {
            phase_s.insert(name.to_string(), totals.get(name).copied().unwrap_or(0.0));
            phase_share.insert(name.to_string(), shares.get(name).copied().unwrap_or(0.0));
        }
        Attribution {
            transfers: report.transfers.len() as u64,
            end_to_end_s: report.transfers.iter().map(|t| t.duration()).sum(),
            phase_s,
            phase_share,
            latency_p50_s: report.latency_quantile(0.50),
            latency_p95_s: report.latency_quantile(0.95),
            latency_p99_s: report.latency_quantile(0.99),
            latency_max_s: report.latency_quantile(1.0),
        }
    }

    /// Critical-path seconds of one phase (0 for unknown names).
    pub fn seconds(&self, phase: &str) -> f64 {
        self.phase_s.get(phase).copied().unwrap_or(0.0)
    }

    /// Render as one flat JSON line (trailing newline included).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"transfers\": {}", self.transfers);
        let _ = write!(out, ", \"end_to_end_s\": {:.9}", self.end_to_end_s);
        for (k, v) in &self.phase_s {
            let _ = write!(out, ", \"phase_{k}_s\": {v:.9}");
        }
        for (k, v) in &self.phase_share {
            let _ = write!(out, ", \"phase_{k}_share\": {v:.9}");
        }
        let _ = write!(out, ", \"latency_p50_s\": {:.9}", self.latency_p50_s);
        let _ = write!(out, ", \"latency_p95_s\": {:.9}", self.latency_p95_s);
        let _ = write!(out, ", \"latency_p99_s\": {:.9}", self.latency_p99_s);
        let _ = write!(out, ", \"latency_max_s\": {:.9}", self.latency_max_s);
        out.push_str("}\n");
        out
    }

    /// Parse a flat JSON object produced by [`Self::to_json`].
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = mcsim::json::parse(text)?;
        let num = |key: &str| -> Result<f64, String> {
            doc.get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
        };
        let mut a = Attribution {
            transfers: num("transfers")? as u64,
            end_to_end_s: num("end_to_end_s")?,
            latency_p50_s: num("latency_p50_s")?,
            latency_p95_s: num("latency_p95_s")?,
            latency_p99_s: num("latency_p99_s")?,
            latency_max_s: num("latency_max_s")?,
            ..Attribution::default()
        };
        for name in TAXONOMY {
            a.phase_s
                .insert(name.to_string(), num(&format!("phase_{name}_s"))?);
            a.phase_share
                .insert(name.to_string(), num(&format!("phase_{name}_share"))?);
        }
        Ok(a)
    }
}

/// One tripped threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// What regressed (`phase wire`, `wire+window_stall`, `latency_p50`).
    pub what: String,
    /// Baseline seconds.
    pub baseline: f64,
    /// Current seconds.
    pub current: f64,
}

/// Outcome of comparing two attributions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Human-readable comparison lines, one per compared quantity.
    pub lines: Vec<String>,
    /// Every quantity that grew past the threshold.
    pub regressions: Vec<Regression>,
}

impl DiffReport {
    /// True when nothing regressed.
    pub fn clean(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compare `current` against `baseline` with a relative growth
/// `threshold` (0.25 = fail beyond +25%).  Checks every taxonomy phase's
/// critical-path seconds, the combined `wire + window_stall` transport
/// time, and the per-transfer latency quantiles; improvements always
/// pass.
pub fn diff(baseline: &Attribution, current: &Attribution, threshold: f64) -> DiffReport {
    let mut report = DiffReport::default();
    let mut check = |what: &str, base: f64, cur: f64| {
        let limit = base * (1.0 + threshold) + ABS_FLOOR_S;
        let regressed = cur > limit;
        let growth = if base > 0.0 {
            (cur / base - 1.0) * 100.0
        } else {
            0.0
        };
        report.lines.push(format!(
            "{what:<22} baseline {base:.9}s current {cur:.9}s ({growth:+.1}%){}",
            if regressed { "  REGRESSED" } else { "" }
        ));
        if regressed {
            report.regressions.push(Regression {
                what: what.to_string(),
                baseline: base,
                current: cur,
            });
        }
    };
    for name in TAXONOMY {
        check(
            &format!("phase {name}"),
            baseline.seconds(name),
            current.seconds(name),
        );
    }
    check(
        "wire+window_stall",
        baseline.seconds("wire") + baseline.seconds("window_stall"),
        current.seconds("wire") + current.seconds("window_stall"),
    );
    check("end_to_end", baseline.end_to_end_s, current.end_to_end_s);
    check("latency_p50", baseline.latency_p50_s, current.latency_p50_s);
    check("latency_p99", baseline.latency_p99_s, current.latency_p99_s);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Attribution {
        let mut a = Attribution {
            transfers: 3,
            end_to_end_s: 0.75,
            latency_p50_s: 0.25,
            latency_p95_s: 0.26,
            latency_p99_s: 0.26,
            latency_max_s: 0.26,
            ..Attribution::default()
        };
        for name in TAXONOMY {
            a.phase_s.insert(name.to_string(), 0.0);
            a.phase_share.insert(name.to_string(), 0.0);
        }
        a.phase_s.insert("wire".into(), 0.5);
        a.phase_share.insert("wire".into(), 0.6667);
        a.phase_s.insert("pack".into(), 0.25);
        a.phase_share.insert("pack".into(), 0.3333);
        a
    }

    #[test]
    fn attribution_round_trips_through_json() {
        let a = sample();
        let text = a.to_json();
        assert!(text.contains("\"phase_wire_s\": 0.500000000"));
        assert!(text.contains("\"phase_window_stall_s\": 0.000000000"));
        let b = Attribution::parse(&text).expect("parse");
        assert_eq!(a.transfers, b.transfers);
        assert!((a.end_to_end_s - b.end_to_end_s).abs() < 1e-9);
        assert!((a.seconds("wire") - b.seconds("wire")).abs() < 1e-9);
        assert!((a.latency_p99_s - b.latency_p99_s).abs() < 1e-9);
    }

    #[test]
    fn identical_runs_diff_clean() {
        let a = sample();
        let d = diff(&a, &a.clone(), 0.25);
        assert!(d.clean(), "regressions: {:?}", d.regressions);
        assert!(!d.lines.is_empty());
    }

    #[test]
    fn doubled_wire_trips_the_gate() {
        let a = sample();
        let mut b = sample();
        b.phase_s.insert("wire".into(), 1.0);
        b.end_to_end_s = 1.25;
        let d = diff(&a, &b, 0.25);
        assert!(!d.clean());
        assert!(d
            .regressions
            .iter()
            .any(|r| r.what == "phase wire" || r.what == "wire+window_stall"));
    }

    #[test]
    fn improvements_always_pass() {
        let a = sample();
        let mut b = sample();
        b.phase_s.insert("wire".into(), 0.1);
        b.end_to_end_s = 0.35;
        b.latency_p50_s = 0.12;
        assert!(diff(&a, &b, 0.25).clean());
    }

    #[test]
    fn parse_rejects_truncated_input() {
        assert!(Attribution::parse("{\"transfers\": 3").is_err());
        assert!(Attribution::parse("").is_err());
    }
}
