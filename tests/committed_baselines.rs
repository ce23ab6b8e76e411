//! The committed `BENCH_*.json` baselines stay readable by the gates that
//! hold fresh runs to them: every key `repro gate` reads, in every gated
//! suite, is present (a finite number, or a non-empty object for an
//! exact subtree), `repro trace-diff`'s baseline parses and compares clean
//! against itself, and no baseline is committed that neither reads.

use bench::attr::{diff, Attribution};
use bench::gate::{Rule, GATES};
use mcsim::json::{self, Value};

/// The baseline `verify.sh` hands to `repro trace-diff`.
const TRACE_DIFF_BASELINE: &str = "BENCH_critical_path.json";

fn committed(file: &str) -> String {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn every_gated_key_resolves_to_a_finite_number() {
    for (suite, path, rule) in GATES {
        let file = format!("BENCH_{suite}.json");
        let report = json::parse(&committed(&file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let v = path.iter().try_fold(&report, |v, key| v.get(key));
        let ok = match (rule, v) {
            (Rule::Exact, Some(Value::Obj(m))) => !m.is_empty(),
            _ => v.and_then(Value::as_f64).is_some_and(f64::is_finite),
        };
        assert!(
            ok,
            "{file}: gated key {} ({rule:?}) is {v:?}",
            path.join(".")
        );
    }
}

#[test]
fn critical_path_baseline_parses_and_diffs_clean() {
    let a = Attribution::parse(&committed(TRACE_DIFF_BASELINE))
        .expect("BENCH_critical_path.json parses");
    assert!(a.transfers > 0);
    let d = diff(&a, &a, 0.0);
    assert!(d.clean(), "self-diff regressed: {:?}", d.regressions);
}

#[test]
fn every_committed_baseline_is_read_by_a_gate_or_trace_diff() {
    let root = std::fs::read_dir(env!("CARGO_MANIFEST_DIR")).expect("read the repo root");
    let names = root.map(|e| e.expect("a root entry").file_name().into_string().unwrap());
    let is_baseline = |n: &String| n.starts_with("BENCH_") && n.ends_with(".json");
    let baselines: Vec<String> = names.filter(is_baseline).collect();
    for file in &baselines {
        let gated = GATES
            .iter()
            .any(|(suite, ..)| *file == format!("BENCH_{suite}.json"));
        assert!(
            gated || file == TRACE_DIFF_BASELINE,
            "{file} is committed, but no `repro gate` suite and no trace-diff reads it"
        );
    }
    assert!(!baselines.is_empty(), "no BENCH_*.json at the repo root");
}
