//! The paper's §5 as one artifact: its reference values, one sweep that
//! computes every cell of Tables 1–5, Figures 10–15 and the ablations, and
//! the markdown renderer EXPERIMENTS.md's tables come from.
//!
//! `repro paper` runs [`sweep`] three times, insists the three `cells`
//! maps are identical, and writes [`report`] to `BENCH_paper.json`;
//! `repro gate paper` holds the committed `cells` to exact equality
//! ([`crate::gate::Rule::Exact`]).  A cell is keyed
//! `<table>.<row>.<column>` and holds `{"ours": v, "paper": v}`, `paper`
//! null where the paper prints no number.  Values are simulated
//! milliseconds, except ratios (`ratio`, `speedup`), `ghosts`, and
//! Figure 15's break-even vector counts (a count, or `"never"`).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use mcsim::json::{obj, Value};
use mcsim::model::MachineModel;

use crate::clientserver::{break_even, client_local_matvec_ms, client_server};
use crate::meshes::{aggregation_ablation, partition_ablation, table1, table2, table34};
use crate::regular::{local_copy_ablation, table5};
use crate::report::{fmt_ms, num};

/// Processor counts of Tables 1, 2 and 5; the paper's rows follow it.
const PROCS: [usize; 4] = [2, 4, 8, 16];
/// The paper's Table 1: inspector (total), executor (per iteration).
const TABLE1: [[f64; 2]; 4] = [[1533.0, 91.0], [1340.0, 66.0], [667.0, 65.0], [684.0, 53.0]];
/// The paper's Tables 2 and 5: three methods' schedule builds, then the
/// same three methods' copies.
const TABLE2: [[f64; 6]; 4] = [
    [1099.0, 1509.0, 2768.0, 64.0, 71.0, 70.0],
    [830.0, 832.0, 1645.0, 52.0, 50.0, 50.0],
    [437.0, 436.0, 1025.0, 38.0, 32.0, 33.0],
    [215.0, 215.0, 745.0, 33.0, 21.0, 21.0],
];
const TABLE5: [[f64; 6]; 4] = [
    [19.0, 29.0, 24.0, 467.0, 396.0, 396.0],
    [10.0, 29.0, 20.0, 195.0, 198.0, 198.0],
    [10.0, 20.0, 14.0, 101.0, 102.0, 102.0],
    [9.0, 25.0, 13.0, 53.0, 52.0, 52.0],
];
/// Tables 3 and 4: rows P_reg, columns P_irreg, both over `GRID`.
const GRID: [usize; 3] = [2, 4, 8];
const TABLE3: [[f64; 3]; 3] = [
    [1350.0, 726.0, 396.0],
    [1377.0, 738.0, 403.0],
    [1381.0, 718.0, 398.0],
];
const TABLE4: [[f64; 3]; 3] = [[63.0, 61.0, 66.0], [55.0, 33.0, 36.0], [61.0, 32.0, 21.0]];
/// Figure 13: 20 multiplies on the 8-process server vs in the client.
const FIG13_SPEEDUP: f64 = 4.5;

/// The cells of one sweep, keyed as in `BENCH_paper.json`.
type Cells = BTreeMap<String, Value>;

/// Record `ours[i]` as cell `<row>.<cols[i]>`, beside `paper[i]` where the
/// paper has a number.
fn put(c: &mut Cells, row: &str, cols: &[&str], ours: &[f64], paper: &[f64]) {
    assert_eq!(cols.len(), ours.len(), "one value per column");
    for (i, (col, &v)) in cols.iter().zip(ours).enumerate() {
        let p = paper.get(i).map_or(Value::Null, |&p| Value::Num(p));
        put_value(c, format!("{row}.{col}"), Value::Num(v), p);
    }
}

fn put_value(c: &mut Cells, key: String, ours: Value, paper: Value) {
    let fresh = c.insert(key, obj(vec![("ours", ours), ("paper", paper)]));
    assert!(fresh.is_none(), "cell keys are unique");
}

/// Tables 2 and 5: `<table>.sched.p<P>` and `<table>.copy.p<P>`, one
/// column for the `native` library's method and one per Meta-Chaos method.
fn methods(
    c: &mut Cells,
    table: &str,
    native: &str,
    p: usize,
    ours: [[f64; 3]; 2],
    paper: [f64; 6],
) {
    let cols = [native, "coop", "dup"];
    let (sched, copy) = (format!("{table}.sched.p{p}"), format!("{table}.copy.p{p}"));
    put(c, &sched, &cols, &ours[0], &paper[..3]);
    put(c, &copy, &cols, &ours[1], &paper[3..]);
}

fn tables_1_2(c: &mut Cells) {
    for ((p, paper1), paper2) in PROCS.into_iter().zip(TABLE1).zip(TABLE2) {
        let r = table1(p, 256, 2, 2);
        let (row, cols) = (format!("table1.p{p}"), ["inspector", "executor"]);
        put(c, &row, &cols, &[r.inspector_ms, r.executor_ms], &paper1);
        let r = table2(p, 256);
        let sched = [r.chaos_sched_ms, r.coop_sched_ms, r.dup_sched_ms];
        let copy = [r.chaos_copy_ms, r.coop_copy_ms, r.dup_copy_ms];
        methods(c, "table2", "chaos", p, [sched, copy], paper2);
    }
}

fn tables_3_4(c: &mut Cells) {
    let cols = ["irreg2", "irreg4", "irreg8"];
    for (preg, (paper3, paper4)) in GRID.into_iter().zip(TABLE3.iter().zip(&TABLE4)) {
        let runs = GRID.map(|pirreg| table34(preg, pirreg, 256));
        let (sched, copy) = (runs.map(|r| r.sched_ms), runs.map(|r| r.copy_ms));
        put(c, &format!("table3.reg{preg}"), &cols, &sched, paper3);
        put(c, &format!("table4.reg{preg}"), &cols, &copy, paper4);
    }
}

fn table_5(c: &mut Cells) {
    for (p, paper) in PROCS.into_iter().zip(TABLE5) {
        let r = table5(p, 1000);
        let sched = [r.parti_sched_ms, r.coop_sched_ms, r.dup_sched_ms];
        let copy = [r.parti_copy_ms, r.coop_copy_ms, r.dup_copy_ms];
        methods(c, "table5", "parti", p, [sched, copy], paper);
    }
}

/// Figures 10–13: the stacked bars of one client/server run, and for
/// Figure 13 the speed-up over the client computing its 20 multiplies.
fn figs_10_13(c: &mut Cells) {
    let alone20 = 20.0 * client_local_matvec_ms(1, 512);
    let cols = ["sched", "matrix", "server", "vector", "total"];
    for (fig, pclient, nvec) in [("10", 1, 1), ("11", 2, 1), ("12", 4, 1), ("13", 1, 20)] {
        for s in [1, 2, 4, 8, 12, 16] {
            let r = client_server(pclient, s, 512, nvec);
            let row = format!("fig{fig}.s{s}");
            let total = r.total_ms();
            let ours = [r.sched_ms, r.matrix_ms, r.server_ms, r.vector_ms, total];
            put(c, &row, &cols, &ours, &[]);
            if nvec == 20 {
                let paper: &[f64] = if s == 8 { &[FIG13_SPEEDUP] } else { &[] };
                put(c, &row, &["speedup"], &[alone20 / total], paper);
            }
        }
    }
}

fn figs_14_15(c: &mut Cells) {
    let cols = ["one_time", "per_vector", "total"];
    for n in [1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20] {
        let r = client_server(1, 8, 512, n);
        let (one_time, per_vector) = (r.sched_ms + r.matrix_ms, r.server_ms + r.vector_ms);
        let ours = [one_time, per_vector, r.total_ms()];
        put(c, &format!("fig14.v{n}"), &cols, &ours, &[]);
    }
    for pclient in [1, 2] {
        let row = format!("fig15.c{pclient}");
        let alone = client_local_matvec_ms(pclient, 512);
        put(c, &row, &["client_alone"], &[alone], &[]);
        for s in [2, 4, 8, 12, 16] {
            let k = break_even(pclient, s, 512);
            let ours = k.map_or(Value::Str("never".into()), |k| Value::Int(k as u64));
            put_value(c, format!("{row}.s{s}"), ours, Value::Null);
        }
    }
}

fn ablations(c: &mut Cells) {
    let models = [MachineModel::sp2(), MachineModel::alpha_farm_atm()];
    let cols = ["aggregated", "per_element", "ratio"];
    for (name, model) in ["sp2", "atm_farm"].into_iter().zip(models) {
        let (agg, per) = aggregation_ablation(model);
        let row = format!("ablation.aggregation.{name}");
        put(c, &row, &cols, &[agg, per, per / agg], &[]);
    }
    let (staged, direct) = local_copy_ablation();
    let row = "ablation.local_copy.all_local";
    put(c, row, &["staged", "direct"], &[staged, direct], &[]);
    for side in [32, 64, 128, 256] {
        let r = table2(4, side);
        let (coop, dup) = (r.coop_sched_ms, r.dup_sched_ms);
        let row = format!("ablation.coop_vs_dup.side{side}");
        put(
            c,
            &row,
            &["coop", "dup", "ratio"],
            &[coop, dup, dup / coop],
            &[],
        );
    }
    for (name, rcb) in [("random", false), ("rcb", true)] {
        let (executor, ghosts) = partition_ablation(rcb);
        let row = format!("ablation.partition.{name}");
        put(c, &row, &["executor"], &[executor], &[]);
        let ghosts = Value::Int(ghosts as u64);
        put_value(c, format!("{row}.ghosts"), ghosts, Value::Null);
    }
}

/// One timed part of the sweep: it adds its cells.
type Section = fn(&mut Cells);

/// The sweep's sections, each timed on its own as `wall_ms.<name>`.
const SECTIONS: [(&str, Section); 6] = [
    ("tables_1_2", tables_1_2),
    ("tables_3_4", tables_3_4),
    ("table_5", table_5),
    ("figs_10_13", figs_10_13),
    ("figs_14_15", figs_14_15),
    ("ablations", ablations),
];

/// One sweep: every cell, and the host wall each section took.
pub struct Sweep {
    /// The `cells` object of `BENCH_paper.json`.
    pub cells: BTreeMap<String, Value>,
    /// Host milliseconds per section, in sweep order.
    pub wall_ms: Vec<(&'static str, f64)>,
}

/// Run every experiment of the paper once, at the paper's sizes.
pub fn sweep() -> Sweep {
    let mut cells = Cells::new();
    let mut wall_ms = Vec::new();
    for (name, section) in SECTIONS {
        let t = Instant::now();
        section(&mut cells);
        wall_ms.push((name, t.elapsed().as_secs_f64() * 1e3));
    }
    Sweep { cells, wall_ms }
}

/// The `BENCH_paper.json` document for repeated sweeps of one tree: their
/// cells, the fidelity block, and the fastest host wall of each section
/// and of a whole sweep.  Errs unless every sweep computed the same cells:
/// virtual time must not depend on the run.
pub fn report(runs: &[Sweep]) -> Result<Value, String> {
    let first = runs.first().ok_or("no sweeps")?;
    if runs.iter().any(|r| r.cells != first.cells) {
        return Err(format!("the cells of {} sweeps differ", runs.len()));
    }
    let fastest = |ms: Vec<f64>| num(ms.into_iter().fold(f64::MAX, f64::min));
    let mut wall = Cells::new();
    for (i, (name, _)) in first.wall_ms.iter().enumerate() {
        wall.insert(
            name.to_string(),
            fastest(runs.iter().map(|r| r.wall_ms[i].1).collect()),
        );
    }
    let totals = runs.iter().map(|r| r.wall_ms.iter().map(|w| w.1).sum());
    wall.insert("total".into(), fastest(totals.collect()));
    Ok(obj(vec![
        ("bench", Value::Str("paper".into())),
        ("cells", Value::Obj(first.cells.clone())),
        ("fidelity", fidelity(&first.cells)),
        ("wall_ms", Value::Obj(wall)),
    ]))
}

/// ours/paper under each cell's key that has a paper number (`by_cell`),
/// and per table and `overall` the count, geometric mean and extreme
/// cells of those ratios (`summary`, keyed `<table>.<stat>`).
fn fidelity(cells: &Cells) -> Value {
    let ratio = |c: &Value| Some(c.get("ours")?.as_f64()? / c.get("paper")?.as_f64()?);
    let mut by_cell = Cells::new();
    let mut groups: BTreeMap<&str, Vec<(&String, f64)>> = BTreeMap::new();
    for (key, x) in cells.iter().filter_map(|(k, c)| Some((k, ratio(c)?))) {
        by_cell.insert(key.clone(), Value::Num(x));
        for group in [key.split('.').next().unwrap_or(""), "overall"] {
            groups.entry(group).or_default().push((key, x));
        }
    }
    let mut summary = Cells::new();
    for (group, mut rs) in groups {
        let geomean = (rs.iter().map(|r| r.1.ln()).sum::<f64>() / rs.len() as f64).exp();
        rs.sort_by(|a, b| a.1.total_cmp(&b.1));
        let (lo, hi) = (rs[0], rs[rs.len() - 1]);
        for (stat, v) in [
            ("cells", Value::Int(rs.len() as u64)),
            ("geomean", Value::Num(geomean)),
            ("min", Value::Num(lo.1)),
            ("min_cell", Value::Str(lo.0.clone())),
            ("max", Value::Num(hi.1)),
            ("max_cell", Value::Str(hi.0.clone())),
        ] {
            summary.insert(format!("{group}.{stat}"), v);
        }
    }
    let (by_cell, summary) = (Value::Obj(by_cell), Value::Obj(summary));
    obj(vec![("by_cell", by_cell), ("summary", summary)])
}

/// The `ours` value of cell `key` in a `BENCH_paper.json` report.
pub fn ours<'a>(report: &'a Value, key: &str) -> &'a Value {
    let cell = report.get("cells").and_then(|c| c.get(key));
    let ours = cell.and_then(|c| c.get("ours"));
    ours.unwrap_or_else(|| panic!("BENCH_paper.json has no cell {key}"))
}

/// A value as the tables print it: a cell as `ours (paper)`, or `ours`
/// where the paper has no number; numbers through [`fmt_ms`].
fn show(v: &Value) -> String {
    match (v, v.get("ours"), v.get("paper").and_then(Value::as_f64)) {
        (_, Some(ours), Some(paper)) => format!("{} ({})", show(ours), fmt_ms(paper)),
        (_, Some(ours), None) => show(ours),
        (Value::Num(x), ..) => fmt_ms(*x),
        (Value::Str(s), ..) => s.clone(),
        (other, ..) => other.to_json(),
    }
}

/// Split a cell key into its table, row and column.
fn split(key: &str) -> (&str, &str, &str) {
    let mut parts = key.rsplitn(3, '.');
    let (col, row) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    (parts.next().unwrap_or(""), row, col)
}

/// Natural order (`p2` before `p16`), keeping the key itself last.
fn natural(key: &str) -> (String, u64, String) {
    let stem = key.trim_end_matches(|ch: char| ch.is_ascii_digit());
    let n = key[stem.len()..].parse().unwrap_or(0);
    (stem.to_string(), n, key.to_string())
}

/// One rendered table: its rows, its columns, and the entry at each.
type Table = (
    BTreeSet<(String, u64, String)>,
    BTreeSet<(String, u64, String)>,
    BTreeMap<String, String>,
);

/// Every markdown table EXPERIMENTS.md carries, named, rendered from a
/// `BENCH_paper.json` report: one per `<table>` of the cells and one of the
/// fidelity summary, rows and columns in natural key order.
pub fn render(report: &Value) -> Vec<(String, String)> {
    let map_at = |path: &[&str]| match path.iter().try_fold(report, |v, k| v.get(k)) {
        Some(Value::Obj(m)) => m,
        _ => panic!("BENCH_paper.json has no {}", path.join(".")),
    };
    let cells = map_at(&["cells"]).iter().map(|(k, v)| (k.clone(), v));
    let summary = map_at(&["fidelity", "summary"]).iter();
    let summary = summary.map(|(k, v)| (format!("fidelity.{k}"), v));
    let mut tables: BTreeMap<String, Table> = BTreeMap::new();
    for (key, v) in cells.chain(summary) {
        let (table, row, col) = split(&key);
        let (rows, cols, entries) = tables.entry(table.to_string()).or_default();
        rows.insert(natural(row));
        cols.insert(natural(col));
        entries.insert(format!("{row}.{col}"), show(v));
    }
    let render_one = |(name, (rows, cols, entries)): (String, Table)| {
        let cols: Vec<&str> = cols.iter().map(|c| c.2.as_str()).collect();
        let mut lines = vec![format!("| {name} | {} |", cols.join(" | "))];
        lines.push(format!("|---|{}", "---:|".repeat(cols.len())));
        for (_, _, row) in &rows {
            let entry = |col: &&str| entries.get(&format!("{row}.{col}")).map_or("", |e| e);
            let row_entries: Vec<&str> = cols.iter().map(entry).collect();
            lines.push(format!("| {row} | {} |", row_entries.join(" | ")));
        }
        (name, lines.join("\n"))
    };
    tables.into_iter().map(render_one).collect()
}
