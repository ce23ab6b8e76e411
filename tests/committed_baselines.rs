//! The committed `BENCH_*.json` baselines stay readable by the gates that
//! hold fresh runs to them: every key `repro gate executor|scaling` reads
//! is present and numeric, and `repro trace-diff`'s baseline parses and
//! compares clean against itself.

use bench::attr::{diff, Attribution};
use bench::gate::GATES;
use mcsim::json;

fn committed(file: &str) -> String {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn every_gated_key_resolves_to_a_finite_number() {
    for (suite, file) in [
        ("executor", "BENCH_executor.json"),
        ("scaling", "BENCH_scaling.json"),
    ] {
        let report = json::parse(&committed(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let gates: Vec<_> = GATES.iter().filter(|(s, _, _)| *s == suite).collect();
        assert!(!gates.is_empty(), "suite {suite} has gates");
        for (_, path, _) in gates {
            let v = path
                .iter()
                .try_fold(&report, |v, key| v.get(key))
                .and_then(|v| v.as_f64());
            assert!(
                v.is_some_and(f64::is_finite),
                "{file}: gated key {} is {v:?}",
                path.join(".")
            );
        }
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
