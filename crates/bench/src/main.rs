//! `repro` — the reproduction's one command line.
//!
//! ```text
//! repro list
//! repro paper [--out BENCH_paper.json]
//! repro gate paper BENCH_paper.json FRESH
//! repro analyze --n 4096 --reps 2 --out FRESH
//! repro gate critical_path BENCH_critical_path.json FRESH
//! ```
//!
//! `repro paper` computes every table and figure of the paper at full
//! size and prints the markdown tables EXPERIMENTS.md carries; the other
//! experiments measure the reproduction itself (scaling, traces, the
//! critical-path attribution).
//!
//! This binary's allocator counts every allocation it makes, so that
//! `repro paper` can report the host work of each part of the sweep.

use std::alloc::{GlobalAlloc, Layout, System};
use std::env;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use bench::paper::Work;
use bench::report::{fmt_ms, num, write_report};
use bench::scaling::{scaling_point, sublinear, wire_throughput_micro};
use bench::traced::traced_coupled_run;
use mcsim::json::{self, Value};

/// [`System`], counting the allocation calls and the bytes they request.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Relaxed);
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// meets `GlobalAlloc`'s contract; counting touches two atomics only and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `realloc`'s contract for `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System`, through this allocator, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The running totals of [`Counting`].
fn counted() -> Work {
    Work {
        allocs: ALLOCS.load(Relaxed),
        alloc_bytes: ALLOC_BYTES.load(Relaxed),
    }
}

/// The value after flag `name`, or `default`; a value that does not
/// parse panics.
fn arg<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().unwrap_or_else(|_| panic!("bad value for {name}")))
        .unwrap_or(default)
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
                    unless their cells or allocation counts differ); prints\n\
                    EXPERIMENTS.md's tables and writes BENCH_paper.json (or FILE)\n\
           trace    [--n N] [--reps R] [--trace-out FILE] traced coupled run;\n\
                    FILE ending .jsonl gets JSONL, anything else Chrome JSON\n\
                    (load in chrome://tracing or https://ui.perfetto.dev)\n\
           trace-check FILE                            validate a JSONL trace\n\
           analyze  [--n N] [--reps R] [--out FILE]\n\
                    critical-path analysis of a traced coupled run: where\n\
                    did my nanoseconds go?  writes a flat attribution JSON\n\
                    (BENCH_critical_path.json is --n 4096 --reps 2)\n\
           scaling  [--n N] [--procs 64,256,1024] [--out FILE]\n\
                    scaling curve: inspector build, coupled transfer\n\
                    settle, and HPF redistribution per P, plus windowed vs\n\
                    stop-and-wait wire; writes BENCH_scaling.json (or FILE)\n\
           gate     <scaling|paper|critical_path> BASELINE FRESH  hold a\n\
                    fresh report to the committed one (bench::gate's table);\n\
                    exit 1 when a gate trips or a key is missing, naming\n\
                    every moved leaf old -> new\n\
           list                                        this message"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "paper" => {
            let out = arg(&args, "--out", "BENCH_paper.json".to_string());
            let t = Instant::now();
            let runs: Vec<_> = (0..3).map(|_| bench::paper::sweep(counted)).collect();
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            let report = bench::paper::report(&runs).unwrap_or_else(|e| {
                eprintln!("paper: {e}");
                std::process::exit(1)
            });
            for (name, table) in bench::paper::render(&report) {
                println!("[{name}]\n{table}\n");
            }
            println!("host wall of the 3 sweeps: {} ms", fmt_ms(wall_ms));
            write_report(&out, &report).unwrap_or_else(|e| panic!("write {out}: {e}"));
            println!("wrote {out}");
        }
        "trace" => {
            let n = arg(&args, "--n", 4096);
            let reps = arg(&args, "--reps", 2);
            let path = arg(&args, "--trace-out", "trace.json".to_string());
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
            let out = arg(&args, "--out", "attribution.json".to_string());
            let run = traced_coupled_run(n, reps);
            let report = mcsim::analyze(&run.traces);
            if let Err(e) = report.self_check() {
                eprintln!("analyze: attribution self-check FAILED: {e}");
                std::process::exit(1);
            }
            println!("{}", report.render());
            let lib_of = |r: usize| if r < 2 { "multiblock" } else { "hpf" }.to_string();
            for line in meta_chaos::obs::attribute_pairs(&report, lib_of).lines() {
                println!("  {line}");
            }
            for ((src, dst), secs) in &report.per_link {
                println!("  link {src}->{dst} critical wire {secs:.9}s");
            }
            for (src, dst, msgs, bytes) in run.stats.active_links() {
                println!("  link {src}->{dst} traffic {msgs} msgs {bytes} bytes");
            }
            let line = bench::attr::to_json(&report);
            std::fs::write(&out, line).unwrap_or_else(|e| panic!("write {out}: {e}"));
            println!("wrote {out}");
        }
        "scaling" => {
            let n = arg(&args, "--n", 1 << 15);
            let out_path = arg(&args, "--out", "BENCH_scaling.json".to_string());
            let procs: Vec<usize> = arg(&args, "--procs", "64,256,1024".to_string())
                .split(',')
                .map(|p| p.trim().parse().unwrap_or_else(|_| panic!("bad --procs")))
                .collect();
            let cols = [
                "inspector_virtual",
                "transfer_virtual",
                "redist_virtual",
                "inspector_wall",
                "settle_wall",
                "redist_wall",
            ];
            let header = cols.map(|c| format!("{c:>17}"));
            println!("{:>6} {} (ms)", "P", header.join(" "));
            let (mut points, mut report) = (Vec::new(), Vec::new());
            for &p in &procs {
                let pt = scaling_point(p, n);
                let ms = [
                    pt.inspector_virtual_ms,
                    pt.transfer_virtual_ms,
                    pt.redist_virtual_ms,
                    pt.inspector_wall_ms,
                    pt.settle_wall_ms,
                    pt.redist_wall_ms,
                ];
                let row = ms.map(|x| format!("{:>17}", fmt_ms(x)));
                println!("{p:>6} {}", row.join(" "));
                for (what, x) in cols.into_iter().zip(ms) {
                    report.push((format!("p{p}_{what}_ms"), num(x)));
                }
                points.push(pt);
            }
            let sub = sublinear(&points);
            let verdict = if sub { "yes" } else { "NO" };
            println!("simulated inspector+executor sub-linear in P: {verdict}");
            let w = wire_throughput_micro(8 << 20);
            let (win, stop, speedup) = (w.windowed_ns, w.stopwait_ns, w.window_speedup());
            println!(
                "wire (sp2, 8 MB): windowed {win:.0} ns, stop-and-wait {stop:.0} ns, {speedup:.3}x"
            );
            report.extend([
                ("bench".into(), Value::Str("scaling".into())),
                ("elements".into(), Value::Int(n as u64)),
                ("sublinear".into(), Value::Int(u64::from(sub))),
                ("wire_windowed_ns".into(), num(win)),
                ("wire_stopwait_ns".into(), num(stop)),
                ("window_speedup".into(), num(speedup)),
            ]);
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
