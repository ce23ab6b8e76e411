//! `repro` — the reproduction's one command line.
//!
//! ```text
//! repro list
//! repro paper [--out BENCH_paper.json]
//! repro gate paper BENCH_paper.json FRESH
//! ```
//!
//! `repro paper` computes every table and figure of the paper at full
//! size and prints the markdown tables EXPERIMENTS.md carries; the other
//! experiments measure the reproduction itself (executor, scaling,
//! traces).

use std::env;

use bench::attr::{diff, Attribution};
use bench::executor::{executor_micro, wire_throughput_micro};
use bench::report::{fmt_ms, num, write_report};
use bench::scaling::{scaling_point, sublinear};
use bench::traced::{traced_coupled_run, traced_coupled_run_scaled};
use mcsim::json::{self, obj, Value};

fn arg(args: &[String], name: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().unwrap_or_else(|_| panic!("bad value for {name}")))
        .unwrap_or(default)
}

fn arg_f64(args: &[String], name: &str, default: f64) -> f64 {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().unwrap_or_else(|_| panic!("bad value for {name}")))
        .unwrap_or(default)
}

fn arg_str(args: &[String], name: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

fn read_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment> [options]\n\
         experiments:\n\
           paper    [--out FILE]                       every table, figure and\n\
                    ablation of the paper at full size, three sweeps (exit 1\n\
                    unless identical); prints EXPERIMENTS.md's tables and\n\
                    writes BENCH_paper.json (or FILE)\n\
           micro    [--elements N] [--procs P] [--reps R] [--out FILE]\n\
                    the executor gate's numbers: inspector builds, reliable\n\
                    move wall, windowed vs stop-and-wait wire;\n\
                    writes BENCH_executor.json (or FILE)\n\
           trace    [--n N] [--reps R] [--trace-out FILE] traced coupled run;\n\
                    FILE ending .jsonl gets JSONL, anything else Chrome JSON\n\
                    (load in chrome://tracing or https://ui.perfetto.dev)\n\
           trace-check FILE                            validate a JSONL trace\n\
           analyze  [--n N] [--reps R] [--wire-scale X] [--out FILE]\n\
                    critical-path analysis of a traced coupled run: where\n\
                    did my nanoseconds go?  writes a flat attribution JSON\n\
           trace-diff BASELINE CURRENT [--threshold T]  compare two\n\
                    attribution files; exit 1 when any phase's critical-\n\
                    path seconds grew past T (default 0.25 = +25%)\n\
           scaling  [--n N] [--procs 64,256,1024] [--out FILE]\n\
                    scaling curve: inspector build, coupled transfer\n\
                    settle, and HPF redistribution per P;\n\
                    writes BENCH_scaling.json (or FILE)\n\
           gate     <executor|scaling|paper> BASELINE FRESH  hold a fresh\n\
                    report to the committed one (bench::gate's table); exit 1\n\
                    when a gate trips or a key is missing\n\
           list                                        this message"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "paper" => {
            let out = arg_str(&args, "--out", "BENCH_paper.json");
            let runs: Vec<_> = (0..3).map(|_| bench::paper::sweep()).collect();
            let report = bench::paper::report(&runs).unwrap_or_else(|e| {
                eprintln!("paper: {e}");
                std::process::exit(1)
            });
            for (name, table) in bench::paper::render(&report) {
                println!("[{name}]\n{table}\n");
            }
            if let Some(Value::Obj(wall)) = report.get("wall_ms") {
                let wall: Vec<_> = wall
                    .iter()
                    .map(|(k, v)| format!("{k} {}", v.to_json()))
                    .collect();
                println!("host wall, min of 3 sweeps (ms): {}", wall.join(", "));
            }
            write_report(&out, &report).unwrap_or_else(|e| panic!("write {out}: {e}"));
            println!("wrote {out}");
        }
        "micro" => {
            let r = executor_micro(
                arg(&args, "--elements", 1 << 20),
                arg(&args, "--procs", 2),
                arg(&args, "--reps", 5),
            );
            println!(
                "executor micro: {} elements x {} procs, {} reps\n\
                 inspector build {:.0} ns",
                r.elements, r.procs, r.reps, r.inspector_build_ns
            );
            if let (Some(rel_ns), Some(rel_mbps)) = (r.reliable_ns, r.reliable_mbps()) {
                println!("reliable        {rel_ns:>10.0} ns/move  {rel_mbps:>8.0} MB/s");
            }
            println!("inspector per library pair (coop / dup build ns):");
            for p in &r.pairs {
                println!(
                    "  {:<24} {:>10.0} / {:>10.0}",
                    p.pair, p.coop_build_ns, p.dup_build_ns
                );
            }
            let w = wire_throughput_micro(8 << 20);
            println!(
                "wire (simulated sp2, {} MB): windowed {:.0} ns, stop-and-wait {:.0} ns \
                 — {:.2}x",
                w.bytes >> 20,
                w.windowed_ns,
                w.stopwait_ns,
                w.window_speedup()
            );
            let path = arg_str(&args, "--out", "BENCH_executor.json");
            let mut report = vec![
                ("bench", Value::Str("executor".into())),
                ("elements", Value::Int(r.elements as u64)),
                ("procs", Value::Int(r.procs as u64)),
                ("reps", Value::Int(r.reps as u64)),
                ("wire_bytes", Value::Int(w.bytes as u64)),
                ("wire_windowed_ns", num(w.windowed_ns)),
                ("wire_stopwait_ns", num(w.stopwait_ns)),
                ("window_speedup", num(w.window_speedup())),
                (
                    "phases",
                    obj(vec![("inspector_build_ns", num(r.inspector_build_ns))]),
                ),
            ];
            if let (Some(rel_ns), Some(rel_mbps)) = (r.reliable_ns, r.reliable_mbps()) {
                report.push(("reliable_ns_per_move", num(rel_ns)));
                report.push(("reliable_mb_per_s", num(rel_mbps)));
            }
            let pairs = r.pairs.iter().map(|p| {
                let builds = vec![
                    ("coop_build_ns", num(p.coop_build_ns)),
                    ("dup_build_ns", num(p.dup_build_ns)),
                ];
                (p.pair.to_string(), obj(builds))
            });
            report.push(("inspector_pairs", Value::Obj(pairs.collect())));
            write_report(&path, &obj(report)).unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("wrote {path}");
        }
        "trace" => {
            let n = arg(&args, "--n", 4096);
            let reps = arg(&args, "--reps", 2);
            let path = arg_str(&args, "--trace-out", "trace.json");
            let run = traced_coupled_run(n, reps);
            let text = if path.ends_with(".jsonl") {
                mcsim::jsonl_events(&run.traces)
            } else {
                mcsim::chrome_trace_json(&run.traces)
            };
            std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("wrote {path}");
        }
        "analyze" => {
            let n = arg(&args, "--n", 4096);
            let reps = arg(&args, "--reps", 2);
            let wire_scale = arg_f64(&args, "--wire-scale", 1.0);
            let out = arg_str(&args, "--out", "attribution.json");
            let run = traced_coupled_run_scaled(n, reps, wire_scale);
            let report = mcsim::analyze(&run.traces);
            if let Err(e) = report.self_check() {
                eprintln!("analyze: attribution self-check FAILED: {e}");
                std::process::exit(1);
            }
            println!("{}", report.render());
            let lib_of = |r: usize| {
                if r < 2 {
                    "multiblock".to_string()
                } else {
                    "hpf".to_string()
                }
            };
            for line in meta_chaos::obs::attribute_pairs(&report, lib_of).lines() {
                println!("  {line}");
            }
            for ((src, dst), secs) in &report.per_link {
                println!("  link {src}->{dst} critical wire {secs:.9}s");
            }
            for (src, dst, msgs, bytes) in run.stats.active_links() {
                println!("  link {src}->{dst} traffic {msgs} msgs {bytes} bytes");
            }
            let attr = Attribution::from_report(&report);
            std::fs::write(&out, attr.to_json()).unwrap_or_else(|e| panic!("write {out}: {e}"));
            println!("wrote {out}");
        }
        "trace-diff" => {
            let (Some(base_path), Some(cur_path)) = (args.get(1), args.get(2)) else {
                usage()
            };
            let threshold = arg_f64(&args, "--threshold", 0.25);
            let read = |p: &str| {
                Attribution::parse(&read_file(p)).unwrap_or_else(|e| panic!("parse {p}: {e}"))
            };
            let d = diff(&read(base_path), &read(cur_path), threshold);
            for line in &d.lines {
                println!("{line}");
            }
            if d.clean() {
                println!(
                    "trace-diff: zero regression (threshold +{:.0}%)",
                    threshold * 100.0
                );
            } else {
                eprintln!(
                    "trace-diff: {} quantit{} regressed past +{:.0}%",
                    d.regressions.len(),
                    if d.regressions.len() == 1 { "y" } else { "ies" },
                    threshold * 100.0
                );
                std::process::exit(1);
            }
        }
        "scaling" => {
            let n = arg(&args, "--n", 1 << 15);
            let procs_spec = arg_str(&args, "--procs", "64,256,1024");
            let out_path = arg_str(&args, "--out", "BENCH_scaling.json");
            let procs: Vec<usize> = procs_spec
                .split(',')
                .map(|p| p.trim().parse().unwrap_or_else(|_| panic!("bad --procs")))
                .collect();
            let mut points = Vec::new();
            println!(
                "{:>6} {:>14} {:>14} {:>14} {:>12} {:>12} {:>12}",
                "P",
                "inspector vms",
                "transfer vms",
                "redist vms",
                "insp wall",
                "settle wall",
                "redist wall"
            );
            for &p in &procs {
                let pt = scaling_point(p, n);
                println!(
                    "{:>6} {:>14} {:>14} {:>14} {:>9} ms {:>9} ms {:>9} ms",
                    pt.procs,
                    fmt_ms(pt.inspector_virtual_ms),
                    fmt_ms(pt.transfer_virtual_ms),
                    fmt_ms(pt.redist_virtual_ms),
                    fmt_ms(pt.inspector_wall_ms),
                    fmt_ms(pt.settle_wall_ms),
                    fmt_ms(pt.redist_wall_ms)
                );
                points.push(pt);
            }
            let sub = sublinear(&points);
            println!(
                "simulated inspector+executor sub-linear in P: {}",
                if sub { "yes" } else { "NO" }
            );
            let mut report: Vec<(String, Value)> = vec![
                ("bench".into(), Value::Str("scaling".into())),
                ("elements".into(), Value::Int(n as u64)),
                ("sublinear".into(), Value::Int(u64::from(sub))),
            ];
            for pt in &points {
                let p = pt.procs;
                for (what, ms) in [
                    ("inspector_virtual", pt.inspector_virtual_ms),
                    ("transfer_virtual", pt.transfer_virtual_ms),
                    ("redist_virtual", pt.redist_virtual_ms),
                    ("inspector_wall", pt.inspector_wall_ms),
                    ("settle_wall", pt.settle_wall_ms),
                    ("redist_wall", pt.redist_wall_ms),
                ] {
                    report.push((format!("p{p}_{what}_ms"), num(ms)));
                }
            }
            write_report(&out_path, &Value::Obj(report.into_iter().collect()))
                .unwrap_or_else(|e| panic!("write {out_path}: {e}"));
            println!("wrote {out_path}");
            if !sub {
                std::process::exit(1);
            }
        }
        "gate" => {
            let (Some(suite), Some(base_path), Some(fresh_path)) =
                (args.get(1), args.get(2), args.get(3))
            else {
                usage()
            };
            let read =
                |p: &str| json::parse(&read_file(p)).unwrap_or_else(|e| panic!("parse {p}: {e}"));
            let outcome = bench::gate::check(suite, &read(base_path), &read(fresh_path));
            for line in &outcome.lines {
                println!("{line}");
            }
            if !outcome.passed {
                eprintln!("gate {suite}: {fresh_path} does not hold against {base_path}");
                std::process::exit(1);
            }
        }
        "trace-check" => {
            let path = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            match mcsim::validate_jsonl(&read_file(path)) {
                Ok(c) => println!(
                    "{path}: {} lines, {} ranks, {} spans ({} unclosed), phases: {}",
                    c.lines,
                    c.ranks,
                    c.span_begins,
                    c.span_begins.saturating_sub(c.span_ends),
                    c.phases.join(",")
                ),
                Err(e) => {
                    eprintln!("{path}: INVALID: {e}");
                    std::process::exit(1);
                }
            }
        }
        "list" | "--help" | "-h" => usage(),
        other => {
            eprintln!("unknown experiment '{other}'");
            usage()
        }
    }
}
