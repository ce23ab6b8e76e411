//! The committed `BENCH_*.json` baselines stay readable by the gates that
//! hold fresh runs to them: every key `repro gate` reads, in every gated
//! suite, is present (a finite number, or a non-empty object for an
//! exact subtree), every root `BENCH_{suite}.json` is a gate suite, and
//! each passes its own suite against itself.

use bench::gate::{check, Rule, GATES};
use mcsim::json::{self, Value};

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
fn every_committed_baseline_is_a_suite_that_holds_against_itself() {
    let root = std::fs::read_dir(env!("CARGO_MANIFEST_DIR")).expect("read the repo root");
    let names = root.map(|e| e.expect("a root entry").file_name().into_string().unwrap());
    let suite_of = |n: &str| {
        n.strip_prefix("BENCH_")?
            .strip_suffix(".json")
            .map(String::from)
    };
    let suites: Vec<String> = names.filter_map(|n| suite_of(&n)).collect();
    for suite in &suites {
        let file = format!("BENCH_{suite}.json");
        let report = json::parse(&committed(&file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let outcome = check(suite, &report, &report);
        assert!(outcome.passed, "{file}: {:?}", outcome.lines);
    }
    assert!(!suites.is_empty(), "no BENCH_*.json at the repo root");
}
