//! The committed `BENCH_*.json` baselines stay readable by the gates that
//! hold fresh runs to them: every key `repro gate` reads, in every gated
//! suite, is present (a non-empty object for an exact subtree, a finite
//! number otherwise), and `repro trace-diff`'s baseline parses and
//! compares clean against itself.

use bench::attr::{diff, Attribution};
use bench::gate::{Rule, GATES};
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
        let ok = match rule {
            Rule::Exact => matches!(v, Some(Value::Obj(m)) if !m.is_empty()),
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
    let a = Attribution::parse(&committed("BENCH_critical_path.json"))
        .expect("BENCH_critical_path.json parses");
    assert!(a.transfers > 0);
    let d = diff(&a, &a, 0.0);
    assert!(d.clean(), "self-diff regressed: {:?}", d.regressions);
}
