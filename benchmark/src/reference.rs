//! The paper-reference sheet (`benchmark/reference.json`): the paper's
//! Table 2 / Table 5 figures this benchmark's virtual results are shown
//! beside — as shape ratios only — and the virtual-clock baseline of the
//! committed HEAD, so that a silent drift of the simulated numbers is
//! caught by `run` and `check`.

use std::collections::BTreeMap;

use fuzz::json::{self, Value};

use crate::suite::Report;
use crate::workloads::Kind;

const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.json");

/// The two virtual-clock metrics the baseline pins.
const PINNED: [&str; 2] = ["virtual_ms_per_iter", "msgs_per_iter"];

/// Relative tolerance of "exact": printing and re-parsing a median must
/// not count as drift.
const EXACT: f64 = 1e-9;

fn load() -> Result<Value, String> {
    let text = std::fs::read_to_string(PATH).map_err(|e| format!("{PATH}: {e}"))?;
    json::parse(&text)
}

fn num(v: &Value, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(v, |v, k| v.get(k))?.as_f64()
}

/// Print the paper's shape ratios beside the traced run's, for the
/// workloads that reproduce a paper table.
pub fn print_shapes(kind: Kind, layer: &BTreeMap<String, f64>) {
    let Ok(sheet) = load() else {
        println!("  (no reference sheet at {PATH})");
        return;
    };
    let get = |k: &str| layer.get(k).copied().unwrap_or(f64::NAN);
    let paper = |path: &[&str]| num(&sheet, path).unwrap_or(f64::NAN);
    println!("  paper reference — shape only, unvalidated in absolute terms:");
    match kind {
        Kind::IrregularRemap => {
            let coop = paper(&["paper", "table2_p8", "coop_build_ms"]);
            let dup = paper(&["paper", "table2_p8", "dup_build_ms"]);
            let copy = paper(&["paper", "table2_p8", "coop_copy_ms"]);
            let lo = paper(&["paper", "dup_over_coop_range", "lo"]);
            let hi = paper(&["paper", "dup_over_coop_range", "hi"]);
            println!(
                "    dup/coop build (virtual):   ours {:.2}   paper Table 2 P=8 {:.2}   (paper range {lo}–{hi} over P=2..16)",
                get("build.dup_over_coop_virtual"),
                dup / coop
            );
            println!(
                "    coop build / round-trip copy: ours {:.1}   paper Table 2 P=8 {:.1}",
                get("build.coop_virtual_ms") / (2.0 * get("datamove.move_virtual_ms")),
                coop / copy
            );
        }
        Kind::PairsMatrix => {
            let coop = paper(&["paper", "table5_p8_build_ms", "coop"]);
            let dup = paper(&["paper", "table5_p8_build_ms", "dup"]);
            let ours =
                get("ref.regular_pair_dup_virtual_ms") / get("ref.regular_pair_coop_virtual_ms");
            println!(
                "    regular-regular dup/coop build (virtual): ours {ours:.2}   paper Table 5 P=8 {:.2}   (ordering dup < coop: ours {}, paper yes)",
                dup / coop,
                if ours < 1.0 { "yes" } else { "NO" }
            );
        }
        _ => println!("    (this workload reproduces no paper table)"),
    }
}

/// Compare a full set's pinned virtual metrics against the baseline.
/// Returns one line per drifted value; empty when the seed is not the
/// baseline's (nothing to compare) or nothing moved.
pub fn drift(seed: u64, set: &[(Kind, Report)]) -> Vec<String> {
    let Ok(sheet) = load() else {
        return vec![format!("no reference sheet at {PATH}")];
    };
    if num(&sheet, &["baseline", "seed"]) != Some(seed as f64) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (kind, rep) in set {
        for metric in PINNED {
            let now = rep.value_of(metric);
            match num(&sheet, &["baseline", "workloads", kind.name(), metric]) {
                Some(was) if ((now - was) / was).abs() <= EXACT => {}
                Some(was) => out.push(format!(
                    "{} {metric}: baseline {was} now {now} ({:+.3e} relative)",
                    kind.name(),
                    (now - was) / was
                )),
                None => out.push(format!("{} {metric}: no baseline recorded", kind.name())),
            }
        }
    }
    out
}

/// Rewrite the sheet's baseline section from `set` (a deliberate act:
/// `benchmark run --rebaseline`).
pub fn rebaseline(seed: u64, git: &str, set: &[(Kind, Report)]) -> Result<(), String> {
    let Value::Obj(mut sheet) = load()? else {
        return Err(format!("{PATH}: not an object"));
    };
    let workloads = set
        .iter()
        .map(|(kind, rep)| {
            let pinned = PINNED
                .iter()
                .map(|m| (*m, Value::Num(rep.value_of(m))))
                .collect();
            (kind.name(), json::obj(pinned))
        })
        .collect();
    sheet.insert(
        "baseline".into(),
        json::obj(vec![
            ("seed", Value::Int(seed)),
            ("git", Value::Str(git.to_string())),
            ("workloads", json::obj(workloads)),
        ]),
    );
    std::fs::write(PATH, Value::Obj(sheet).to_json() + "\n").map_err(|e| format!("{PATH}: {e}"))
}
