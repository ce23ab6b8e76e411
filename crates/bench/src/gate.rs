//! Regression gates over the committed `BENCH_*.json` reports: one table
//! of `(suite, key path, rule)` that `repro gate` applies to a baseline
//! report and a fresh one, both read through the workspace JSON codec.
//! A key missing from either report fails its gate — a renamed metric
//! must not silently stop being held.

use mcsim::json::Value;

/// How a fresh value is held.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Lower is better: fresh ≤ baseline × factor.
    AtMost(f64),
    /// Higher is better: fresh ≥ baseline × factor.
    AtLeast(f64),
    /// Higher is better, against an absolute floor (no baseline needed).
    Floor(f64),
}

/// Every gate: the suite it belongs to (`repro gate <suite>`), the key
/// path into the report object, and the rule.  Wall-clock metrics get
/// 25 %; the virtual-clock scaling metrics reproduce exactly on a clean
/// tree, so their 25 % only trips on a real change to the machine model,
/// the collectives, the inspector or what an adapter charges.  The P=256
/// inspector *wall* (one sample of a 260 k-message world, ±30 % run to
/// run) gets a generous 2×: it is there to catch the per-message host
/// path growing back a lock or a channel, not to hold a percentage.
pub const GATES: &[(&str, &[&str], Rule)] = &[
    (
        "executor",
        &["phases", "inspector_build_ns"],
        Rule::AtMost(1.25),
    ),
    (
        "executor",
        &["inspector_pairs", "multiblock->chaos", "dup_build_ns"],
        Rule::AtMost(1.25),
    ),
    ("executor", &["reliable_mb_per_s"], Rule::AtLeast(0.75)),
    ("executor", &["window_speedup"], Rule::Floor(4.0)),
    (
        "scaling",
        &["p256_inspector_virtual_ms"],
        Rule::AtMost(1.25),
    ),
    ("scaling", &["p256_transfer_virtual_ms"], Rule::AtMost(1.25)),
    ("scaling", &["p256_redist_virtual_ms"], Rule::AtMost(1.25)),
    ("scaling", &["p256_inspector_wall_ms"], Rule::AtMost(2.0)),
];

/// What [`check`] found.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// One human-readable line per gate of the suite.
    pub lines: Vec<String>,
    /// True when the suite has gates and every one of them held.
    pub passed: bool,
}

fn lookup(report: &Value, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(report, |v, key| v.get(key))?
        .as_f64()
        .filter(|x| x.is_finite())
}

/// Hold `fresh` to `baseline` under every gate of `suite`.
pub fn check(suite: &str, baseline: &Value, fresh: &Value) -> Outcome {
    let gates: Vec<_> = GATES.iter().filter(|(s, _, _)| *s == suite).collect();
    let mut out = Outcome {
        lines: Vec::new(),
        passed: !gates.is_empty(),
    };
    if gates.is_empty() {
        out.lines.push(format!("no gates for suite `{suite}`"));
    }
    for (_, path, rule) in gates {
        let name = path.join(".");
        let (base, cur) = (lookup(baseline, path), lookup(fresh, path));
        let (held, line) = match (rule, base, cur) {
            (Rule::Floor(floor), _, Some(cur)) => {
                (cur >= *floor, format!("{cur:.3} (floor {floor:.3})"))
            }
            (Rule::AtMost(f), Some(base), Some(cur)) => (
                base > 0.0 && cur > 0.0 && cur <= base * f,
                format!("{cur:.3} (baseline {base:.3}, limit {:.3})", base * f),
            ),
            (Rule::AtLeast(f), Some(base), Some(cur)) => (
                cur >= base * f,
                format!("{cur:.3} (baseline {base:.3}, floor {:.3})", base * f),
            ),
            _ => (false, "missing from baseline or fresh report".to_string()),
        };
        out.passed &= held;
        out.lines.push(format!(
            "{name}: {line}{}",
            if held { "" } else { "  FAILED" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim::json::{obj, parse};

    fn scaling(inspector: f64) -> Value {
        scaling_wall(inspector, 100.0)
    }

    fn scaling_wall(inspector: f64, wall: f64) -> Value {
        obj(vec![
            ("p256_inspector_virtual_ms", Value::Num(inspector)),
            ("p256_transfer_virtual_ms", Value::Num(0.458)),
            ("p256_redist_virtual_ms", Value::Num(13.203)),
            ("p256_inspector_wall_ms", Value::Num(wall)),
        ])
    }

    #[test]
    fn regression_past_tolerance_fails_and_names_the_key() {
        let o = check("scaling", &scaling(80.0), &scaling(100.1));
        assert!(!o.passed);
        let failed: Vec<_> = o.lines.iter().filter(|l| l.ends_with("FAILED")).collect();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].starts_with("p256_inspector_virtual_ms:"));
        // Exactly at the limit still holds.
        assert!(check("scaling", &scaling(80.0), &scaling(100.0)).passed);
    }

    #[test]
    fn inspector_wall_is_held_to_twice_the_baseline() {
        let base = scaling_wall(80.0, 100.0);
        assert!(check("scaling", &base, &scaling_wall(80.0, 200.0)).passed);
        let o = check("scaling", &base, &scaling_wall(80.0, 200.1));
        assert!(!o.passed);
        let failed: Vec<_> = o.lines.iter().filter(|l| l.ends_with("FAILED")).collect();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].starts_with("p256_inspector_wall_ms:"));
    }

    #[test]
    fn improvement_and_identity_pass() {
        assert!(check("scaling", &scaling(80.0), &scaling(80.0)).passed);
        assert!(check("scaling", &scaling(80.0), &scaling(8.0)).passed);
    }

    #[test]
    fn missing_key_fails_on_either_side() {
        let partial = obj(vec![("p256_inspector_virtual_ms", Value::Num(80.0))]);
        assert!(!check("scaling", &scaling(80.0), &partial).passed);
        assert!(!check("scaling", &partial, &scaling(80.0)).passed);
        assert!(!check("nonsense", &scaling(80.0), &scaling(80.0)).passed);
    }

    #[test]
    fn executor_suite_reads_nested_paths_floors_and_higher_is_better() {
        let report = |build: f64, dup: f64, mbps: f64, speedup: f64| {
            parse(&format!(
                r#"{{"phases": {{"inspector_build_ns": {build}}},
                    "inspector_pairs": {{"multiblock->chaos": {{"dup_build_ns": {dup}}}}},
                    "reliable_mb_per_s": {mbps}, "window_speedup": {speedup}}}"#
            ))
            .unwrap()
        };
        let base = report(20000.0, 260000.0, 5000.0, 5.2);
        assert!(check("executor", &base, &base).passed);
        // Throughput may rise freely and fall to 75 %, not further.
        assert!(check("executor", &base, &report(20000.0, 260000.0, 9000.0, 5.2)).passed);
        assert!(check("executor", &base, &report(20000.0, 260000.0, 3750.0, 5.2)).passed);
        assert!(!check("executor", &base, &report(20000.0, 260000.0, 3700.0, 5.2)).passed);
        // The nested dup-build path is held like the flat ones.
        assert!(!check("executor", &base, &report(20000.0, 330000.0, 5000.0, 5.2)).passed);
        // The window floor is absolute: the baseline's value is irrelevant.
        assert!(!check("executor", &base, &report(20000.0, 260000.0, 5000.0, 3.99)).passed);
    }
}
