//! Regression gates over the committed `BENCH_*.json` reports: one table
//! of `(suite, key path, rule)` that `repro gate` applies to a baseline
//! report and a fresh one, both read through the workspace JSON codec.
//! A key missing from either report fails its gate — a renamed metric
//! must not silently stop being held.  [`Rule::Exact`] holds a number or
//! a whole subtree (the empty path: the whole report), leaf by leaf, and
//! names every leaf that moved.

use std::collections::{BTreeMap, BTreeSet};

use mcsim::json::Value;

/// How a fresh value is held.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Lower is better: fresh ≤ baseline × factor.
    AtMost(f64),
    /// The value or subtree at the key path is identical, every key
    /// present on both sides and every leaf equal (numbers bit for bit).
    Exact,
}

/// Every gate: the suite it belongs to (`repro gate <suite>`), the key
/// path into the report object, and the rule.  Every deterministic number
/// is held exactly, so any move fails and is named: the P=256 virtual
/// times and the sliding window's speed-up on the simulated wire, the
/// paper's cells, the paper sweep's host work (allocations and bytes
/// requested per section), and every number of the critical-path
/// attribution (`repro analyze --n 4096 --reps 2`).  The one host wall
/// left, the P=256 inspector (±30 % run to run), gets 2×: it catches the
/// per-message host path growing back a lock or a channel, not a
/// percentage.
pub const GATES: &[(&str, &[&str], Rule)] = &[
    ("scaling", &["p256_inspector_virtual_ms"], Rule::Exact),
    ("scaling", &["p256_transfer_virtual_ms"], Rule::Exact),
    ("scaling", &["p256_redist_virtual_ms"], Rule::Exact),
    ("scaling", &["window_speedup"], Rule::Exact),
    ("scaling", &["p256_inspector_wall_ms"], Rule::AtMost(2.0)),
    ("paper", &["cells"], Rule::Exact),
    ("paper", &["work"], Rule::Exact),
    ("critical_path", &[], Rule::Exact),
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

/// Every leaf under `v` as its JSON text, which tells any two distinct
/// numbers apart, keyed by its dotted path.
fn leaves(path: String, v: &Value, out: &mut BTreeMap<String, String>) {
    if let Value::Obj(m) = v {
        for (k, v) in m {
            let key = if path.is_empty() {
                k.clone()
            } else {
                format!("{path}.{k}")
            };
            leaves(key, v, out);
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
        let label = if path.is_empty() { suite } else { &name };
        let (base, cur) = (subtree(baseline, path), subtree(fresh, path));
        let number = |v: Option<&Value>| v?.as_f64().filter(|x| x.is_finite());
        let (held, line, diffs) = match (rule, number(base), number(cur)) {
            (Rule::Exact, ..) => exact(&name, base, cur),
            (Rule::AtMost(f), Some(base), Some(cur)) => (
                base > 0.0 && cur > 0.0 && cur <= base * f,
                format!("{cur:.3} (baseline {base:.3}, limit {:.3})", base * f),
                Vec::new(),
            ),
            _ => (
                false,
                "missing from baseline or fresh report".into(),
                Vec::new(),
            ),
        };
        out.passed &= held;
        out.lines.push(format!(
            "{label}: {line}{}",
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

    /// A scaling report as `repro gate` reads it, with the committed
    /// virtual values except the inspector's, and the given host wall.
    fn scaling(inspector: f64, wall: f64) -> Value {
        let report = obj(vec![
            ("p256_inspector_virtual_ms", Value::Num(inspector)),
            ("p256_transfer_virtual_ms", Value::Num(0.458)),
            ("p256_redist_virtual_ms", Value::Num(13.203)),
            ("window_speedup", Value::Num(5.268)),
            ("p256_inspector_wall_ms", Value::Num(wall)),
        ]);
        parse(&report.to_json()).unwrap()
    }

    fn failed(o: &Outcome) -> Vec<&String> {
        o.lines.iter().filter(|l| l.ends_with("FAILED")).collect()
    }

    #[test]
    fn one_ulp_move_of_a_virtual_key_fails_and_names_the_key() {
        let x = 87.066_f64;
        let base = scaling(x, 100.0);
        for ulp in [x.to_bits() + 1, x.to_bits() - 1] {
            let o = check("scaling", &base, &scaling(f64::from_bits(ulp), 100.0));
            let failed = failed(&o);
            assert!(!o.passed && failed.len() == 2, "{:?}", o.lines);
            assert!(failed[0].starts_with("p256_inspector_virtual_ms: 1 of 1 values differ"));
            assert!(failed[1].starts_with("p256_inspector_virtual_ms: 87.066 -> 87.06"));
        }
    }

    #[test]
    fn inspector_wall_is_held_to_twice_the_baseline() {
        let base = scaling(87.066, 100.0);
        for wall in [100.0, 10.0, 200.0] {
            assert!(check("scaling", &base, &scaling(87.066, wall)).passed);
        }
        let o = check("scaling", &base, &scaling(87.066, 200.1));
        let failed = failed(&o);
        assert!(!o.passed && failed.len() == 1);
        assert!(failed[0].starts_with("p256_inspector_wall_ms:"));
    }

    #[test]
    fn missing_key_fails_on_either_side() {
        let partial = obj(vec![("p256_inspector_virtual_ms", Value::Num(87.066))]);
        let full = scaling(87.066, 100.0);
        assert!(!check("scaling", &full, &partial).passed);
        assert!(!check("scaling", &partial, &full).passed);
        assert!(!check("nonsense", &full, &full).passed);
    }

    /// A paper report through the codec, as `repro gate` reads it: one
    /// cell per `(key, ours, paper)`, and one section's work.
    fn paper(cells: Vec<(&str, Value, Value)>, allocs: u64) -> Value {
        let cell = |(key, ours, paper)| (key, obj(vec![("ours", ours), ("paper", paper)]));
        let cells = obj(cells.into_iter().map(cell).collect());
        let counts = vec![
            ("allocs", Value::Int(allocs)),
            ("alloc_bytes", Value::Int(64 * allocs)),
        ];
        let work = obj(vec![("tables_1_2", obj(counts))]);
        parse(&obj(vec![("cells", cells), ("work", work)]).to_json()).unwrap()
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
        let base = paper(cells(x, never(), Value::Null), 1000);
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
            let o = check("paper", &base, &paper(fresh, 1000));
            let failed = failed(&o);
            assert!(
                !o.passed && failed.iter().any(|l| l.starts_with(named)),
                "{failed:?}"
            );
        }
        // The critical-path suite holds the whole flat attribution line.
        let line = |wire: &str| {
            let text = format!("{{\"transfers\": 2, \"phase_wire_s\": {wire}}}\n");
            parse(&text).unwrap()
        };
        let base = line("0.001433222");
        let o = check("critical_path", &base, &base);
        assert!(o.passed, "{o:?}");
        assert_eq!(o.lines[0], "critical_path: 0 of 2 values differ (exact)");
        let o = check("critical_path", &base, &line("0.001433223"));
        let failed = failed(&o);
        assert!(!o.passed && failed.len() == 2, "{:?}", o.lines);
        assert!(failed[1].starts_with("phase_wire_s: 0.001433222 -> 0.001433223"));
    }

    #[test]
    fn one_more_allocation_fails_the_paper_and_names_the_section() {
        let cells = || vec![("table1.p2.inspector", Value::Num(534.0), Value::Num(1533.0))];
        let o = check("paper", &paper(cells(), 1000), &paper(cells(), 1001));
        let failed = failed(&o);
        assert!(!o.passed && failed.len() == 3, "{:?}", o.lines);
        assert!(failed[0].starts_with("work: 2 of 2 values differ"));
        assert!(failed[1].starts_with("work.tables_1_2.alloc_bytes: 64000 -> 64064"));
        assert!(failed[2].starts_with("work.tables_1_2.allocs: 1000 -> 1001"));
    }
}
