//! `repro` — run any of the paper's experiments by name.
//!
//! ```text
//! repro list
//! repro table2 [--procs 8] [--side 128]
//! repro fig10  [--client 1] [--servers 8] [--n 512] [--vectors 1]
//! repro all
//! ```
//!
//! The bench targets (`cargo bench -p bench`) print the full paper-sized
//! tables; this binary is for quick, parameterized runs.

use std::env;

use bench::attr::{diff, Attribution};
use bench::clientserver::{break_even, client_server};
use bench::executor::{executor_micro, recovery_settle_micro, wire_throughput_micro};
use bench::meshes::{table1, table2, table34};
use bench::regular::table5;
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
           table1   [--procs P] [--side S]            intra-mesh inspector/executor\n\
           table2   [--procs P] [--side S]            Chaos vs Meta-Chaos remap\n\
           table34  [--preg P] [--pirreg Q] [--side S] two-program build/copy\n\
           table5   [--procs P] [--side S]            Parti vs Meta-Chaos\n\
           fig10    [--client C] [--servers S] [--n N] [--vectors V]\n\
           fig15    [--client C] [--servers S] [--n N]\n\
           micro    [--elements N] [--procs P] [--reps R] [--out FILE]\n\
                    executor, inspector and transport wall micros;\n\
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
           gate     <executor|scaling> BASELINE FRESH  hold a fresh micro /\n\
                    scaling report to the committed one (bench::gate's\n\
                    table); exit 1 when a gate trips or a key is missing\n\
           all                                         every table at paper size\n\
           list                                        this message"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "table1" => {
            let r = table1(arg(&args, "--procs", 8), arg(&args, "--side", 256), 2, 2);
            println!(
                "procs {}: inspector {} ms, executor {} ms/iter",
                r.procs,
                fmt_ms(r.inspector_ms),
                fmt_ms(r.executor_ms)
            );
        }
        "table2" => {
            let r = table2(arg(&args, "--procs", 8), arg(&args, "--side", 256));
            println!(
                "procs {}: sched chaos {} / coop {} / dup {} ms; copy {} / {} / {} ms",
                r.procs,
                fmt_ms(r.chaos_sched_ms),
                fmt_ms(r.coop_sched_ms),
                fmt_ms(r.dup_sched_ms),
                fmt_ms(r.chaos_copy_ms),
                fmt_ms(r.coop_copy_ms),
                fmt_ms(r.dup_copy_ms)
            );
        }
        "table34" => {
            let c = table34(
                arg(&args, "--preg", 4),
                arg(&args, "--pirreg", 4),
                arg(&args, "--side", 256),
            );
            println!(
                "P_reg {} x P_irreg {}: sched {} ms, copy {} ms/iter",
                c.preg,
                c.pirreg,
                fmt_ms(c.sched_ms),
                fmt_ms(c.copy_ms)
            );
        }
        "table5" => {
            let r = table5(arg(&args, "--procs", 8), arg(&args, "--side", 1000));
            println!(
                "procs {}: sched parti {} / coop {} / dup {} ms; copy {} ms",
                r.procs,
                fmt_ms(r.parti_sched_ms),
                fmt_ms(r.coop_sched_ms),
                fmt_ms(r.dup_sched_ms),
                fmt_ms(r.parti_copy_ms)
            );
        }
        "fig10" => {
            let r = client_server(
                arg(&args, "--client", 1),
                arg(&args, "--servers", 8),
                arg(&args, "--n", 512),
                arg(&args, "--vectors", 1),
            );
            println!(
                "{} client x {} servers, {} vectors: sched {} + matrix {} + \
                 server {} + vectors {} = {} ms",
                r.pclient,
                r.pserver,
                r.nvec,
                fmt_ms(r.sched_ms),
                fmt_ms(r.matrix_ms),
                fmt_ms(r.server_ms),
                fmt_ms(r.vector_ms),
                fmt_ms(r.total_ms())
            );
        }
        "fig15" => {
            let be = break_even(
                arg(&args, "--client", 1),
                arg(&args, "--servers", 8),
                arg(&args, "--n", 512),
            );
            match be {
                Some(k) => println!("break-even after {k} vectors"),
                None => println!("never breaks even"),
            }
        }
        "micro" => {
            let r = executor_micro(
                arg(&args, "--elements", 1 << 20),
                arg(&args, "--procs", 2),
                arg(&args, "--reps", 5),
            );
            println!(
                "executor micro: {} elements x {} procs, {} reps\n\
                 data_move       {:>10.0} ns/move  {:>8.0} MB/s  ({} schedule runs)",
                r.elements,
                r.procs,
                r.reps,
                r.fast_ns,
                r.fast_mbps(),
                r.sched_runs
            );
            if let (Some(rel_ns), Some(rel_mbps)) = (r.reliable_ns, r.reliable_mbps()) {
                println!("reliable        {rel_ns:>10.0} ns/move  {rel_mbps:>8.0} MB/s");
            }
            if let (Some(raw_ns), Some(pct)) = (r.reliable_raw_ns, r.reliable_overhead_pct()) {
                println!(
                    "reliable (raw)  {raw_ns:>10.0} ns/move  — transactional session layer \
                     costs {pct:+.1}% fault-free (manifests + verdicts + staging)"
                );
            }
            let ph = r.phases;
            println!(
                "phases: inspector build {:.0} ns (dup {:.0} ns), pack {:.0} ns, \
                 wire {:.0} ns, unpack {:.0} ns{}",
                ph.inspector_build_ns,
                ph.inspector_build_dup_ns,
                ph.pack_ns,
                ph.wire_ns,
                ph.unpack_ns,
                match ph.session_overhead_ns {
                    Some(s) => format!(", session overhead {s:.0} ns"),
                    None => String::new(),
                }
            );
            println!("inspector per library pair (coop / dup build ns):");
            for p in &r.pairs {
                println!(
                    "  {:<24} {:>10.0} / {:>10.0}",
                    p.pair, p.coop_build_ns, p.dup_build_ns
                );
            }
            let a = r.amortization;
            println!(
                "amortization: {} elements in {} runs — build {:.0} ns, move {:.0} ns, \
                 break-even after {:.1} moves",
                a.elements,
                a.sched_runs,
                a.build_ns,
                a.move_ns,
                a.breakeven_moves()
            );
            let w = wire_throughput_micro(8 << 20);
            println!(
                "wire (simulated sp2, {} MB): windowed {:.0} ns ({:.0} MB/s), \
                 stop-and-wait {:.0} ns ({:.0} MB/s) — {:.2}x, pipeline hides {:.1}% \
                 of serial latency",
                w.bytes >> 20,
                w.windowed_ns,
                w.windowed_mbps(),
                w.stopwait_ns,
                w.stopwait_mbps(),
                w.window_speedup(),
                w.pipeline_overlap_pct()
            );
            let rec = recovery_settle_micro(4096);
            println!(
                "recovery (simulated sp2, supervised): baseline {:.0} ns wall, \
                 crashed+recovered {:.0} ns wall — settle {:.0} ns ({} rank(s) \
                 respawned, {} part(s) replayed)",
                rec.baseline_ns,
                rec.crashed_ns,
                rec.settle_ns(),
                rec.ranks_recovered,
                rec.parts_replayed
            );
            let path = arg_str(&args, "--out", "BENCH_executor.json");
            let mut report = vec![
                ("bench", Value::Str("executor".into())),
                ("elements", Value::Int(r.elements as u64)),
                ("procs", Value::Int(r.procs as u64)),
                ("reps", Value::Int(r.reps as u64)),
                ("sched_runs", Value::Int(r.sched_runs as u64)),
                ("fast_ns_per_move", num(r.fast_ns)),
                ("fast_mb_per_s", num(r.fast_mbps())),
                ("recovery_settle_ns", num(rec.settle_ns())),
                ("recovery_baseline_ns", num(rec.baseline_ns)),
                ("recovery_crashed_ns", num(rec.crashed_ns)),
                ("recovery_ranks_recovered", Value::Int(rec.ranks_recovered)),
                ("recovery_parts_replayed", Value::Int(rec.parts_replayed)),
                ("wire_bytes", Value::Int(w.bytes as u64)),
                ("wire_windowed_ns", num(w.windowed_ns)),
                ("wire_stopwait_ns", num(w.stopwait_ns)),
                ("window_speedup", num(w.window_speedup())),
                ("pipeline_overlap_pct", num(w.pipeline_overlap_pct())),
            ];
            if let (Some(rel_ns), Some(rel_mbps)) = (r.reliable_ns, r.reliable_mbps()) {
                report.push(("reliable_ns_per_move", num(rel_ns)));
                report.push(("reliable_mb_per_s", num(rel_mbps)));
            }
            if let Some(raw_ns) = r.reliable_raw_ns {
                report.push(("reliable_raw_ns_per_move", num(raw_ns)));
            }
            if let Some(pct) = r.reliable_overhead_pct() {
                report.push(("reliable_overhead_pct", num(pct)));
            }
            let mut phases = vec![
                ("inspector_build_ns", num(ph.inspector_build_ns)),
                ("inspector_build_dup_ns", num(ph.inspector_build_dup_ns)),
                ("pack_ns", num(ph.pack_ns)),
                ("wire_ns", num(ph.wire_ns)),
                ("unpack_ns", num(ph.unpack_ns)),
            ];
            if let Some(s) = ph.session_overhead_ns {
                phases.push(("session_overhead_ns", num(s)));
            }
            report.push(("phases", obj(phases)));
            let pairs = r.pairs.iter().map(|p| {
                let builds = vec![
                    ("coop_build_ns", num(p.coop_build_ns)),
                    ("dup_build_ns", num(p.dup_build_ns)),
                ];
                (p.pair.to_string(), obj(builds))
            });
            report.push(("inspector_pairs", Value::Obj(pairs.collect())));
            report.push((
                "amortization",
                obj(vec![
                    ("elements", Value::Int(a.elements as u64)),
                    ("sched_runs", Value::Int(a.sched_runs as u64)),
                    ("build_ns", num(a.build_ns)),
                    ("move_ns", num(a.move_ns)),
                    ("breakeven_moves", num(a.breakeven_moves())),
                ]),
            ));
            // Critical-path attribution of the same-sized coupled
            // transfer: where the end-to-end nanoseconds went.  The
            // tiling invariant (per-phase sum == end-to-end virtual
            // time) is asserted on every bench run.
            let tr = traced_coupled_run(r.elements, 3.min(r.reps.max(1)));
            let cp = mcsim::analyze(&tr.traces);
            cp.self_check().expect("critical-path attribution tiles");
            println!("{}", cp.render());
            let shares = cp.phase_shares();
            let lat = cp.latency_histogram();
            let (dom, dom_share) = cp.dominant().unwrap_or(("other", 0.0));
            let mut cp_fields: Vec<(String, Value)> = vec![
                ("transfers".into(), Value::Int(cp.transfers.len() as u64)),
                ("dominant".into(), Value::Str(dom.to_string())),
                ("dominant_share_pct".into(), num(dom_share * 100.0)),
                ("latency_p50_ns".into(), num(lat.p50() * 1e9)),
                ("latency_p95_ns".into(), num(lat.p95() * 1e9)),
                ("latency_p99_ns".into(), num(lat.p99() * 1e9)),
                ("latency_max_ns".into(), num(lat.max * 1e9)),
            ];
            for name in mcsim::analyze::TAXONOMY {
                let share = shares.get(name).copied().unwrap_or(0.0);
                cp_fields.push((format!("{name}_share_pct"), num(share * 100.0)));
            }
            report.push(("critical_path", Value::Obj(cp_fields.into_iter().collect())));
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
            let metrics = mcsim::MetricsRegistry::from_run(&run.stats, &run.traces);
            for line in metrics.lines() {
                println!("{line}");
            }
            if let Some((insp, exec)) = metrics.inspector_executor_share() {
                println!(
                    "virtual-time share: inspector {:.1}%, executor {:.1}%",
                    insp * 100.0,
                    exec * 100.0
                );
            }
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
                "{:>6} {:>14} {:>14} {:>14} {:>12} {:>12} {:>12} {:>12}",
                "P",
                "inspector vms",
                "transfer vms",
                "redist vms",
                "insp wall",
                "xfer wall",
                "settle wall",
                "redist wall"
            );
            for &p in &procs {
                let pt = scaling_point(p, n);
                println!(
                    "{:>6} {:>14} {:>14} {:>14} {:>9} ms {:>9} ms {:>9} ms {:>9} ms",
                    pt.procs,
                    fmt_ms(pt.inspector_virtual_ms),
                    fmt_ms(pt.transfer_virtual_ms),
                    fmt_ms(pt.redist_virtual_ms),
                    fmt_ms(pt.inspector_wall_ms),
                    fmt_ms(pt.transfer_wall_ms),
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
                    ("transfer_wall", pt.transfer_wall_ms),
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
        "all" => {
            for p in [2, 4, 8, 16] {
                let r = table2(p, 256);
                println!(
                    "table2 p={p:2}: chaos {} coop {} dup {}",
                    fmt_ms(r.chaos_sched_ms),
                    fmt_ms(r.coop_sched_ms),
                    fmt_ms(r.dup_sched_ms)
                );
            }
            for p in [2, 4, 8, 16] {
                let r = table5(p, 1000);
                println!(
                    "table5 p={p:2}: parti {} coop {} dup {}",
                    fmt_ms(r.parti_sched_ms),
                    fmt_ms(r.coop_sched_ms),
                    fmt_ms(r.dup_sched_ms)
                );
            }
            for s in [2, 4, 8] {
                let r = client_server(1, s, 512, 1);
                println!("fig10 servers={s}: total {} ms", fmt_ms(r.total_ms()));
            }
        }
        "list" | "--help" | "-h" => usage(),
        other => {
            eprintln!("unknown experiment '{other}'");
            usage()
        }
    }
}
