//! The stamp every output carries: enough of the machine and the
//! toolchain to tell two sets of numbers apart.

use std::process::Command;

use crate::workloads::Kind;

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn file_field(path: &str, key: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split(':').nth(1).map(|v| v.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Short hash of the checked-out commit (`unknown` outside a git checkout).
pub fn git_rev() -> String {
    first_line("git", &["rev-parse", "--short", "HEAD"])
}

/// `key=value` lines: nproc, CPU model, kernel, rustc, git rev, seed, and
/// the per-workload sizes that fix the iteration shape for this seed.
pub fn stamp(seed: u64, seconds: f64) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let mut lines = vec![
        format!("nproc={nproc}"),
        format!("cpu={}", file_field("/proc/cpuinfo", "model name")),
        format!("kernel={kernel}"),
        format!("rustc={}", first_line("rustc", &["-V"])),
        format!("git={}", git_rev()),
        format!("seed={seed}"),
        format!("seconds_per_workload={seconds}"),
        "runner=Coop{workers:1}, one process per trial, one thread".to_string(),
    ];
    for k in Kind::ALL {
        let cfg = k.loop_cfg(0.0, false);
        lines.push(format!(
            "{}: ranks={} elements={} warmup_iters={} pinned_prefix_iters={} (timed iterations are calibrated to the time budget and printed per report)",
            k.name(),
            k.procs(),
            k.elements(seed),
            cfg.warmup,
            cfg.prefix
        ));
    }
    lines
}
