//! Regression gates over the committed `BENCH_*.json` reports: one table
//! of `(suite, key path, rule)` that `repro gate` applies to a baseline
//! report and a fresh one, both read through the workspace JSON codec.
//! A key missing from either report fails its gate — a renamed metric
//! must not silently stop being held.  [`Rule::Exact`] holds a whole
//! subtree, leaf by leaf, and names every leaf that moved.

use std::collections::{BTreeMap, BTreeSet};

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
    /// The subtree at the key path is identical, every key present on
    /// both sides and every leaf equal (numbers bit for bit).
    Exact,
}

/// Every gate: the suite it belongs to (`repro gate <suite>`), the key
/// path into the report object, and the rule.  Wall-clock metrics get
/// 25 %; the virtual-clock scaling metrics reproduce exactly on a clean
/// tree, so their 25 % only trips on a real change to the machine model,
/// the collectives, the inspector or what an adapter charges.  The P=256
/// inspector *wall* (one sample of a 260 k-message world, ±30 % run to
/// run) gets a generous 2×: it is there to catch the per-message host
/// path growing back a lock or a channel, not to hold a percentage.  The
/// paper's cells are virtual time too, so they are held exactly: any
/// drift in the model, the collectives, the inspector or an adapter's
/// charges fails and is named by its cell key.  Only the paper sweep's
/// total host wall is held: each section's is 0.1–0.3 s, too short to hold.
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
    ("paper", &["cells"], Rule::Exact),
    ("paper", &["wall_ms", "total"], Rule::AtMost(1.25)),
];

/// What [`check`] found.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// One human-readable line per gate of the suite.
    pub lines: Vec<String>,
    /// True when the suite has gates and every one of them held.
    pub passed: bool,
}

fn subtree<'a>(report: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(report, |v, key| v.get(key))
}

fn lookup(report: &Value, path: &[&str]) -> Option<f64> {
    subtree(report, path)?.as_f64().filter(|x| x.is_finite())
}

/// Every leaf under `v` as its JSON text, which tells any two distinct
/// numbers apart, keyed by its dotted path.
fn leaves(path: String, v: &Value, out: &mut BTreeMap<String, String>) {
    if let Value::Obj(m) = v {
        for (k, v) in m {
            leaves(format!("{path}.{k}"), v, out);
        }
    } else {
        out.insert(path, v.to_json());
    }
}

/// [`Rule::Exact`]: the verdict and summary, plus one line per leaf that
/// differs or is missing on one side.
fn exact(name: &str, base: Option<&Value>, cur: Option<&Value>) -> (bool, String, Vec<String>) {
    let flat = |v: Option<&Value>| {
        let mut m = BTreeMap::new();
        if let Some(v) = v {
            leaves(name.to_string(), v, &mut m);
        }
        m
    };
    let (base, cur) = (flat(base), flat(cur));
    let keys: BTreeSet<&String> = base.keys().chain(cur.keys()).collect();
    let text =
        |m: &BTreeMap<String, String>, k: &str| m.get(k).cloned().unwrap_or("missing".into());
    let diffs: Vec<String> = (keys.iter())
        .filter(|k| base.get(**k) != cur.get(**k))
        .map(|k| format!("{k}: {} -> {}  FAILED", text(&base, k), text(&cur, k)))
        .collect();
    let summary = format!("{} of {} values differ (exact)", diffs.len(), keys.len());
    (!base.is_empty() && diffs.is_empty(), summary, diffs)
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
        let mut diffs = Vec::new();
        let (held, line) = match (rule, base, cur) {
            (Rule::Exact, ..) => {
                let (held, line, d) = exact(&name, subtree(baseline, path), subtree(fresh, path));
                diffs = d;
                (held, line)
            }
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
        out.lines.extend(diffs);
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

    /// A paper report through the codec, as `repro gate` reads it: one
    /// cell per `(key, ours, paper)`.
    fn paper(cells: Vec<(&str, Value, Value)>) -> Value {
        let cell = |(key, ours, paper)| (key, obj(vec![("ours", ours), ("paper", paper)]));
        let cells = obj(cells.into_iter().map(cell).collect());
        let wall = obj(vec![("total", Value::Num(1800.0))]);
        parse(&obj(vec![("cells", cells), ("wall_ms", wall)]).to_json()).unwrap()
    }

    #[test]
    fn exact_rule_holds_identical_cells_and_names_every_drift() {
        let x = 534.0312_f64;
        let never = || Value::Str("never".into());
        let cells = |inspector: f64, breaks_even: Value, paper: Value| {
            vec![
                (
                    "table1.p2.inspector",
                    Value::Num(inspector),
                    Value::Num(1533.0),
                ),
                ("fig15.c2.s2", breaks_even, paper),
            ]
        };
        let base = paper(cells(x, never(), Value::Null));
        let o = check("paper", &base, &base);
        assert!(o.passed, "{o:?}");
        assert_eq!(o.lines[0], "cells: 0 of 4 values differ (exact)");
        let one_ulp = f64::from_bits(x.to_bits() + 1);
        let mut added = cells(x, never(), Value::Null);
        added.push(("table1.p4.inspector", Value::Num(377.0), Value::Num(1340.0)));
        let missing = cells(x, never(), Value::Null)[..1].to_vec();
        for (fresh, named) in [
            (
                cells(one_ulp, never(), Value::Null),
                "cells.table1.p2.inspector.ours: 534.0312 -> 534.03",
            ),
            (
                cells(x, Value::Int(7), Value::Null),
                "cells.fig15.c2.s2.ours: \"never\" -> 7",
            ),
            (
                cells(x, never(), Value::Num(2.0)),
                "cells.fig15.c2.s2.paper: null -> 2.0",
            ),
            (added, "cells.table1.p4.inspector.ours: missing -> 377.0"),
            (missing, "cells.fig15.c2.s2.ours: \"never\" -> missing"),
        ] {
            let o = check("paper", &base, &paper(fresh));
            let failed: Vec<_> = o.lines.iter().filter(|l| l.ends_with("FAILED")).collect();
            assert!(
                !o.passed && failed.iter().any(|l| l.starts_with(named)),
                "{failed:?}"
            );
        }
    }
}
