//! The repository's benchmark: six workloads on two clocks.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one result line (the driver contract)
//! benchmark run   [--seed N] [--seconds S] [--rebaseline]   all workloads, every end-to-end metric
//! benchmark trace [--seed N] [--seconds S]                  traced runs + layer probes, per-layer metrics
//! benchmark check [--seed N] [--seconds S]                  two full sets back to back, gaps vs bounds
//! benchmark manifest                                        print BENCHMARK.json from the metric registry
//! ```
//!
//! `--seconds` is per workload.  See `benchmark/README.md` for what every
//! name means.

mod driver;
mod env;
mod layers;
mod libs;
mod metrics;
mod probes;
mod reference;
mod spans;
mod stats;
mod suite;
mod trial;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use bench::report::print_table;
use fuzz::json::{self, Value};

use metrics::{per_layer, END_TO_END, RUN_SECONDS};
use suite::{Report, TRIALS};
use workloads::Kind;

/// Where `trace` writes span files and both report commands their JSON.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match arg(args, flag) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("benchmark: bad value '{v}' for {flag}");
            std::process::exit(2);
        }),
    }
}

fn workload(args: &[String]) -> Kind {
    let name = arg(args, "--workload").unwrap_or("");
    Kind::from_name(name).unwrap_or_else(|| {
        let all: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        eprintln!(
            "benchmark: unknown workload '{name}' (one of {})",
            all.join(", ")
        );
        std::process::exit(2);
    })
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_stamp(seed: u64, seconds: f64) {
    for line in env::stamp(seed, seconds) {
        println!("# {line}");
    }
}

fn write_out(name: &str, v: &Value) {
    let path = format!("{OUT_DIR}/{name}");
    let res =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, v.to_json() + "\n"));
    match res {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("benchmark: cannot write {path}: {e}"),
    }
}

/// The end-to-end table of one workload's report.
fn print_report(kind: Kind, rep: &Report) {
    let rows: Vec<Vec<String>> = END_TO_END
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                format!("{:.6}", rep.value(m)),
                m.across.as_str().to_string(),
                format!("{:.6}", rep.iqr(m.name)),
                m.unit.to_string(),
                m.better.as_str().to_string(),
                format!("{:.0} %", m.bound * 100.0),
            ]
        })
        .collect();
    print_table(
        &format!(
            "{} — {} trials, {:.0} timed iterations per trial",
            kind.name(),
            rep.trials.len(),
            rep.iters_per_trial()
        ),
        &[
            "metric",
            "value",
            "of trials",
            "IQR",
            "unit",
            "better",
            "may worsen by",
        ],
        &rows,
    );
    let p90: Vec<f64> = rep
        .trials
        .iter()
        .map(|t| t.e2e["iter_wall_ms_p90"])
        .collect();
    println!(
        "not gated: iter_wall_ms_p90 = {:.6} ms best trial, {:.6} ms median trial",
        p90.iter().copied().fold(f64::NAN, f64::min),
        stats::median(&p90)
    );
    println!(
        "fail_share = {} failed / {} attempted iterations",
        rep.failed(),
        rep.attempted()
    );
    for p in &rep.problems {
        println!("PROBLEM: {p}");
    }
}

fn report_value(rep: &Report) -> Value {
    let stat = |f: &dyn Fn(&metrics::EndToEnd) -> f64| {
        json::obj(
            END_TO_END
                .iter()
                .map(|m| (m.name, Value::Num(f(m))))
                .collect(),
        )
    };
    json::obj(vec![
        ("value", stat(&|m| rep.value(m))),
        ("iqr", stat(&|m| rep.iqr(m.name))),
        ("iters_per_trial", Value::Num(rep.iters_per_trial())),
        ("attempted", Value::Int(rep.attempted())),
        ("failed", Value::Int(rep.failed())),
        ("correct", Value::Bool(rep.correct())),
    ])
}

/// Print a full set; returns whether every workload was correct and the
/// virtual-clock baseline held.
fn print_set(seed: u64, set: &[(Kind, Report)]) -> bool {
    for (kind, rep) in set {
        print_report(*kind, rep);
    }
    let drift = reference::drift(seed, set);
    for d in &drift {
        println!("DRIFT vs benchmark/reference.json: {d}");
    }
    if !drift.is_empty() {
        println!("(deliberate? re-record with `benchmark/run.sh run --seed {seed} --rebaseline`)");
    }
    set.iter().all(|(_, r)| r.correct()) && drift.is_empty()
}

fn cmd_run(args: &[String]) -> ExitCode {
    let seed = parse(args, "--seed", 1u64);
    let seconds = parse(args, "--seconds", RUN_SECONDS as f64);
    print_stamp(seed, seconds);
    let set = suite::run_set(seed, seconds);
    if args.iter().any(|a| a == "--rebaseline") {
        let git = env::git_rev();
        if let Err(e) = reference::rebaseline(seed, &git, &set) {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
        println!("re-recorded the virtual-clock baseline for seed {seed}");
    }
    let ok = print_set(seed, &set);
    write_out(
        "run.json",
        &json::obj(
            set.iter()
                .map(|(k, r)| (k.name(), report_value(r)))
                .collect(),
        ),
    );
    exit_code(ok)
}

fn cmd_check(args: &[String]) -> ExitCode {
    let seed = parse(args, "--seed", 1u64);
    let seconds = parse(args, "--seconds", RUN_SECONDS as f64);
    print_stamp(seed, seconds);
    println!("set A");
    let a = suite::run_set(seed, seconds);
    println!("set B");
    let b = suite::run_set(seed, seconds);
    let mut ok = print_set(seed, &a) & print_set(seed, &b);
    for ((kind, ra), (_, rb)) in a.iter().zip(&b) {
        let mut rows = Vec::new();
        for m in END_TO_END {
            let (va, vb) = (ra.value(&m), rb.value(&m));
            let gap = ((vb - va) / va).abs();
            let verdict = if gap <= m.bound { "ok" } else { "EXCEEDS" };
            ok &= gap <= m.bound;
            rows.push(vec![
                m.name.to_string(),
                format!("{va:.6}"),
                format!("{vb:.6}"),
                format!("{:.3} %", gap * 100.0),
                format!("{:.0} %", m.bound * 100.0),
                verdict.to_string(),
            ]);
        }
        print_table(
            &format!("{} — A/A agreement", kind.name()),
            &["metric", "set A", "set B", "gap", "bound", ""],
            &rows,
        );
    }
    println!("{}", if ok { "check: PASS" } else { "check: FAIL" });
    exit_code(ok)
}

/// The traced view of one workload: an untraced and a traced trial (their
/// `iter_wall_ms_p50` ratio is the tracing overhead) merged with the
/// probes' numbers.  Returns every registry metric plus the findings.
fn traced_view(
    kind: Kind,
    seed: u64,
    budget_s: f64,
    probes: &BTreeMap<String, f64>,
) -> (BTreeMap<String, f64>, Report) {
    let spans = format!("{OUT_DIR}/{}.spans.jsonl", kind.name());
    let mut rep = Report::default();
    // The traced trial is capped by its timelines, not by time; the
    // untraced one it is compared against gets twice its budget.
    rep.push(
        kind,
        suite::spawn_trial(kind, seed, 2.0 * budget_s, false, None),
    );
    // Tracing changes neither the virtual clock nor the message counts,
    // so the traced trial is held to the same determinism check.
    rep.push(
        kind,
        suite::spawn_trial(kind, seed, budget_s, true, Some(&spans)),
    );
    let mut layer = probes.clone();
    if let [plain, traced] = &rep.trials[..] {
        layer.extend(traced.layer.clone());
        let p50 = |t: &trial::TrialResult| t.e2e["iter_wall_ms_p50"];
        layer.insert(
            "trace.overhead_pct".into(),
            (p50(traced) / p50(plain) - 1.0) * 100.0,
        );
        if layer["trace.span_coverage"] < 0.95 {
            rep.problems.push(format!(
                "{}: benchmark spans cover only {:.1} % of the traced iteration wall",
                kind.name(),
                layer["trace.span_coverage"] * 100.0
            ));
        }
    }
    for m in per_layer() {
        if let std::collections::btree_map::Entry::Vacant(slot) = layer.entry(m.name) {
            rep.problems
                .push(format!("{}: no value for {}", kind.name(), slot.key()));
            slot.insert(0.0);
        }
    }
    (layer, rep)
}

/// The probes' numbers (empty, and `false`, when the probe process died).
fn probe_layers(seed: u64) -> (BTreeMap<String, f64>, bool) {
    match suite::spawn_probes(seed) {
        Ok(p) => (p, true),
        Err(e) => {
            println!("PROBLEM: {e}");
            (BTreeMap::new(), false)
        }
    }
}

fn print_layers(kind: Kind, layer: &BTreeMap<String, f64>) {
    let rows: Vec<Vec<String>> = per_layer()
        .iter()
        .map(|m| {
            vec![
                m.layer.to_string(),
                m.name.clone(),
                format!("{:.6}", layer[&m.name]),
                m.unit.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("{} — per-layer metrics (traced run + probes)", kind.name()),
        &["layer", "metric", "value", "unit"],
        &rows,
    );
    reference::print_shapes(kind, layer);
}

fn cmd_trace(args: &[String]) -> ExitCode {
    let seed = parse(args, "--seed", 1u64);
    let seconds = parse(args, "--seconds", RUN_SECONDS as f64);
    print_stamp(seed, seconds);
    let (probes, mut ok) = probe_layers(seed);
    let mut all = Vec::new();
    for kind in Kind::ALL {
        let (layer, rep) = traced_view(kind, seed, seconds / 4.0, &probes);
        print_layers(kind, &layer);
        for p in &rep.problems {
            println!("PROBLEM: {p}");
        }
        ok &= rep.correct();
        let nums = layer
            .iter()
            .map(|(k, v)| (k.as_str(), Value::Num(*v)))
            .collect();
        all.push((kind.name(), json::obj(nums)));
    }
    write_out("trace.json", &json::obj(all));
    println!("span files: {OUT_DIR}/<workload>.spans.jsonl");
    exit_code(ok)
}

/// The driver contract: one workload, one result line.
fn cmd_driver(args: &[String]) -> ExitCode {
    let kind = workload(args);
    let seed = parse(args, "--seed", 1u64);
    let seconds = parse(args, "--seconds", RUN_SECONDS as f64);
    let traced = parse(args, "--trace", 0u8) == 1;
    print_stamp(seed, seconds);
    let (rep, metrics) = if traced {
        let (probes, probes_ok) = probe_layers(seed);
        let (layer, mut rep) = traced_view(kind, seed, seconds / 4.0, &probes);
        if !probes_ok {
            rep.problems.push("the layer probes failed".into());
        }
        print_layers(kind, &layer);
        let metrics = per_layer()
            .into_iter()
            .map(|m| (m.name.clone(), m.unit, layer[&m.name]))
            .collect::<Vec<_>>();
        (rep, metrics)
    } else {
        let rep = suite::run_workload(kind, seed, seconds);
        print_report(kind, &rep);
        let metrics = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit, rep.value(m)))
            .collect();
        (rep, metrics)
    };
    for p in &rep.problems {
        println!("PROBLEM: {p}");
    }
    println!(
        "{}",
        suite::result_line(rep.correct(), rep.attempted(), rep.failed(), &metrics)
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("trial") => {
            let lag = arg(&args, "--spawned-unix-ns")
                .and_then(|s| s.parse::<u128>().ok())
                .map_or(0.0, |t0| suite::unix_ns().saturating_sub(t0) as f64 / 1e9);
            let r = trial::run_trial(
                workload(&args),
                parse(&args, "--seed", 1u64),
                parse(&args, "--seconds", 1.0f64),
                parse(&args, "--traced", 0u8) == 1,
                epoch,
                lag,
                arg(&args, "--spans"),
            );
            println!("{}", trial::one_line(&r.to_value()));
            ExitCode::SUCCESS
        }
        Some("probes") => {
            let probes: BTreeMap<String, f64> = probes::run_all(parse(&args, "--seed", 1u64))
                .into_iter()
                .collect();
            println!("{}", trial::one_line(&trial::num_map(&probes)));
            ExitCode::SUCCESS
        }
        Some("run") => cmd_run(&args),
        Some("check") => cmd_check(&args),
        Some("trace") => cmd_trace(&args),
        Some("manifest") => {
            println!("{}", metrics::manifest().to_json());
            ExitCode::SUCCESS
        }
        Some(flag) if flag.starts_with("--") && arg(&args, "--workload").is_some() => {
            cmd_driver(&args)
        }
        _ => {
            eprintln!(
                "usage: benchmark --workload W --seed N --seconds S --trace 0|1\n       \
                 benchmark run|trace|check [--seed N] [--seconds S]\n       \
                 benchmark manifest\n(trials per report: {TRIALS}; see benchmark/README.md)"
            );
            ExitCode::from(2)
        }
    }
}
