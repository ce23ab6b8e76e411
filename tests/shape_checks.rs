//! Shape checks: the paper's qualitative claims, asserted by running the
//! experiments at reduced problem sizes, and at the paper's sizes by
//! reading the committed `BENCH_paper.json` (`repro paper`, see
//! EXPERIMENTS.md) — which is also held against EXPERIMENTS.md's tables.

use bench::clientserver::{break_even, client_server};
use bench::meshes::{table1, table2, table34};
use bench::paper::{ours, render};
use bench::regular::table5;
use mcsim::json::{self, Value};

fn committed(file: &str) -> String {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn paper_report() -> Value {
    json::parse(&committed("BENCH_paper.json")).expect("BENCH_paper.json parses")
}

#[test]
fn table1_shape_executor_scales() {
    let r2 = table1(2, 48, 2, 2);
    let r8 = table1(8, 48, 2, 2);
    assert!(r8.executor_ms < r2.executor_ms);
    assert!(r8.inspector_ms < r2.inspector_ms);
}

#[test]
fn table2_shape_methods() {
    let r = table2(4, 64);
    // Duplication ≈ 2× cooperation (second dereference + descriptor).
    assert!(r.dup_sched_ms > 1.4 * r.coop_sched_ms);
    // Cooperation tracks the native Chaos build.
    assert!(r.coop_sched_ms < 1.6 * r.chaos_sched_ms);
    assert!(r.coop_sched_ms > 0.6 * r.chaos_sched_ms);
    // Meta-Chaos copies are faster (no extra copy/indirection).
    assert!(r.coop_copy_ms < r.chaos_copy_ms);
}

#[test]
fn table34_shape_scaling() {
    // Build time scales with the irregular side, not the regular side.
    let c22 = table34(2, 2, 48);
    let c24 = table34(2, 4, 48);
    let c42 = table34(4, 2, 48);
    assert!(
        c24.sched_ms < 0.8 * c22.sched_ms,
        "more irregular procs must speed the build: {} vs {}",
        c24.sched_ms,
        c22.sched_ms
    );
    let rel = (c42.sched_ms - c22.sched_ms).abs() / c22.sched_ms;
    assert!(
        rel < 0.25,
        "regular procs should barely matter: {} vs {}",
        c42.sched_ms,
        c22.sched_ms
    );
    // Copy time is limited by the smaller program.  Compare at a mesh
    // large enough that payload dominates the transactional session
    // handshake (manifest + verdict frames are a fixed per-pair cost,
    // and the 4x4 coupling has 4x the pairs of the 2x2 one).
    let c22_big = table34(2, 2, 96);
    let c44 = table34(4, 4, 96);
    assert!(c44.copy_ms < c22_big.copy_ms);
}

#[test]
fn table5_shape_ordering() {
    let r = table5(4, 200);
    assert!(r.parti_sched_ms <= r.dup_sched_ms);
    assert!(r.dup_sched_ms < r.coop_sched_ms);
    // Copies are essentially the same for all three methods.
    let max = r.parti_copy_ms.max(r.coop_copy_ms).max(r.dup_copy_ms);
    let min = r.parti_copy_ms.min(r.coop_copy_ms).min(r.dup_copy_ms);
    assert!(max - min < 0.15 * max + 1e-9);
}

#[test]
fn client_server_shape() {
    // The matrix transfer dominates a single vector round trip, and
    // per-vector costs grow with the server size while compute shrinks.
    let small = client_server(1, 2, 192, 1);
    let big = client_server(1, 8, 192, 1);
    assert!(small.matrix_ms > small.vector_ms);
    assert!(big.server_ms < small.server_ms);
    assert!(big.vector_ms > small.vector_ms);
    // Results are identical regardless of the server size.
    assert!((small.checksum - big.checksum).abs() < 1e-9);
}

#[test]
fn break_even_improves_with_servers() {
    let be4 = break_even(1, 4, 384).expect("4-server break-even exists");
    let be8 = break_even(1, 8, 384).expect("8-server break-even exists");
    assert!(
        be8 <= be4,
        "more servers should amortize faster: {be8} vs {be4}"
    );
}

/// Every "Shape holds" sentence of EXPERIMENTS.md, at the paper's sizes.
#[test]
fn paper_size_shapes_hold_in_bench_paper_json() {
    let r = paper_report();
    let at = |key: String| ours(&r, &key).as_f64().expect(&key);
    let falls = |xs: &[f64]| xs.windows(2).all(|w| w[1] < w[0]);
    let procs = [2, 4, 8, 16];
    for phase in ["inspector", "executor"] {
        let times = procs.map(|p| at(format!("table1.p{p}.{phase}")));
        assert!(falls(&times), "Table 1: {phase} falls with P");
    }
    let t2 = |phase: &str, p: usize, m: &str| at(format!("table2.{phase}.p{p}.{m}"));
    let coop_over_dup = procs.map(|p| t2("sched", p, "coop") / t2("sched", p, "dup"));
    assert!(falls(&coop_over_dup), "Table 2: dup/coop rises with P");
    for p in procs {
        let coop_over_chaos = t2("sched", p, "coop") / t2("sched", p, "chaos");
        assert!(
            (0.6..=1.6).contains(&coop_over_chaos),
            "Table 2: coop tracks Chaos"
        );
        let chaos_copy = t2("copy", p, "chaos");
        assert!(t2("copy", p, "coop") < chaos_copy && t2("copy", p, "dup") < chaos_copy);
        let t5 = |phase: &str, m: &str| at(format!("table5.{phase}.p{p}.{m}"));
        let sched = ["coop", "dup", "parti"].map(|m| t5("sched", m));
        assert!(falls(&sched), "Table 5: parti < dup < coop at P={p}");
        let copy = ["parti", "coop", "dup"].map(|m| t5("copy", m));
        let (lo, hi) = (
            copy.iter().fold(f64::MAX, |a, &b| a.min(b)),
            copy.iter().fold(0.0, |a, &b| b.max(a)),
        );
        assert!(hi <= lo * 1.01, "Table 5: copies equal within 1% at P={p}");
    }
    let t34 = |t: &str, reg: usize, irreg: usize| at(format!("{t}.reg{reg}.irreg{irreg}"));
    for q in [2, 4, 8] {
        let column = [2, 4, 8].map(|reg| t34("table3", reg, q));
        let mean = column.iter().sum::<f64>() / 3.0;
        let flat = column.iter().all(|x| (x / mean - 1.0).abs() <= 0.05);
        assert!(flat, "Table 3: P_irreg={q} within 5% of its mean");
        assert!(
            falls(&[2, 4, 8].map(|irreg| t34("table3", q, irreg))),
            "Table 3: falls with P_irreg"
        );
        let edges = t34("table4", 2, q).min(t34("table4", q, 2));
        assert!(
            t34("table4", q, q) <= edges,
            "Table 4: diagonal at or below row/column 1"
        );
    }
    for fig in ["fig10", "fig11", "fig12"] {
        let total = |s: usize| at(format!("{fig}.s{s}.total"));
        assert!(
            [1, 2, 4, 12, 16].iter().all(|&s| total(8) < total(s)),
            "{fig}: best at 8"
        );
    }
    let (one_time, per_vector) = (
        at("fig14.v1.one_time".into()),
        at("fig14.v1.per_vector".into()),
    );
    for n in [2, 4, 6, 8, 10, 12, 14, 16, 18, 20] {
        assert_eq!(
            at(format!("fig14.v{n}.one_time")),
            one_time,
            "Figure 14: constant"
        );
        let linear = at(format!("fig14.v{n}.per_vector")) / (n as f64 * per_vector);
        assert!((linear - 1.0).abs() < 1e-6, "Figure 14: remainder linear");
    }
    assert_eq!(ours(&r, "fig15.c2.s2").as_str(), Some("never"));
}

/// EXPERIMENTS.md carries every table `repro paper` renders from the
/// committed `BENCH_paper.json`, verbatim.
#[test]
fn experiments_md_carries_every_table_of_bench_paper_json() {
    let doc = committed("EXPERIMENTS.md");
    for (name, table) in render(&paper_report()) {
        assert!(
            doc.contains(&table),
            "EXPERIMENTS.md lacks the current `{name}` table; paste it from `repro paper`:\n{table}"
        );
    }
}
