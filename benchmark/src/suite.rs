//! The parent side: spawn trials as fresh child processes, check that
//! their deterministic numbers agree, and reduce them to medians.
//!
//! A workload's report is `TRIALS` trials.  `run` and `check` interleave
//! the trials of all workloads round-robin (host noise on a small box
//! comes in multi-second modes, so interleaved short trials repeat better
//! than one long run per workload); the driver mode runs one workload's
//! trials back to back, because the driver does the interleaving.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use fuzz::json::{self, Value};

use crate::metrics::{Across, Better, EndToEnd, END_TO_END};
use crate::stats::{iqr, median};
use crate::trial::TrialResult;
use crate::workloads::Kind;

/// Trials per workload report.
pub const TRIALS: usize = 4;

/// Nanoseconds since the Unix epoch — how parent and child agree on when
/// the child was spawned.
pub fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// glibc malloc settings every measured process runs under.  With the
/// defaults, buffers above the (dynamic) mmap threshold are mapped and
/// unmapped on every message, and their page-fault cost swings by 2× with
/// the host's huge-page luck — `bulk-regular` spread 30 % between
/// identical runs.  Serving them from the heap and never trimming it makes
/// the steady state allocation-quiet and the same runs agree to 1.5 %.
const MALLOC_TUNABLES: &str =
    "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=4294967296";

/// Run this executable with `args` in a fresh process and parse the last
/// line it prints.
fn spawn(what: &str, args: &[String]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .env("GLIBC_TUNABLES", MALLOC_TUNABLES)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {what}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{what} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .last()
        .ok_or(format!("{what} printed nothing"))?;
    json::parse(line)
}

/// One trial in a fresh child process.
pub fn spawn_trial(
    kind: Kind,
    seed: u64,
    budget_s: f64,
    traced: bool,
    spans_path: Option<&str>,
) -> Result<TrialResult, String> {
    let mut args: Vec<String> = ["trial", "--workload", kind.name()]
        .map(String::from)
        .into();
    for (flag, value) in [
        ("--seed", seed.to_string()),
        ("--seconds", budget_s.to_string()),
        ("--traced", u8::from(traced).to_string()),
        ("--spawned-unix-ns", unix_ns().to_string()),
    ] {
        args.extend([flag.to_string(), value]);
    }
    if let Some(p) = spans_path {
        args.extend(["--spans".to_string(), p.to_string()]);
    }
    TrialResult::from_value(&spawn(&format!("{} trial", kind.name()), &args)?)
}

/// The layer probes, in a fresh child process (its own high-water mark,
/// the same allocator settings as the trials).
pub fn spawn_probes(seed: u64) -> Result<BTreeMap<String, f64>, String> {
    let args = ["probes", "--seed", &seed.to_string()].map(String::from);
    crate::trial::read_map(Some(&spawn("probes", &args)?))
}

/// The trials of one workload and what they add up to.
#[derive(Debug, Default)]
pub struct Report {
    pub trials: Vec<TrialResult>,
    /// Oracle, determinism and crash findings; empty means correct.
    pub problems: Vec<String>,
    /// Trials that died without a result (each counts as one failed
    /// attempt).
    pub crashed: u64,
}

impl Report {
    /// Record one trial's outcome.
    pub fn push(&mut self, kind: Kind, r: Result<TrialResult, String>) {
        match r {
            Ok(t) => {
                if t.mismatches > 0 {
                    self.problems.push(format!(
                        "{}: {} destination elements differ from the serial model",
                        kind.name(),
                        t.mismatches
                    ));
                }
                if t.failed > 0 {
                    self.problems
                        .push(format!("{}: {} iterations failed", kind.name(), t.failed));
                }
                if let Some(first) = self.trials.first() {
                    // "Exact" on the virtual clock is 1e-9 relative: a
                    // traced trial runs its schedule probe in set-up, and
                    // the shifted absolute clock rounds differently.
                    let same_virt = first.virt_prefix.len() == t.virt_prefix.len()
                        && first
                            .virt_prefix
                            .iter()
                            .zip(&t.virt_prefix)
                            .all(|(a, b)| (a - b).abs() <= 1e-9 * a.abs());
                    if !same_virt || first.msgs_prefix != t.msgs_prefix {
                        self.problems.push(format!(
                            "{}: virtual time or message counts differ between two trials of one seed",
                            kind.name()
                        ));
                    }
                }
                self.trials.push(t);
            }
            Err(e) => {
                self.problems.push(e);
                self.crashed += 1;
            }
        }
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && !self.trials.is_empty()
    }

    /// Iterations attempted: timed ones plus the two verified ones of
    /// each trial, plus one per crashed trial.
    pub fn attempted(&self) -> u64 {
        self.trials.iter().map(|t| t.iters + 2).sum::<u64>() + self.crashed
    }

    /// Iterations that failed (typed error, panic or crash).
    pub fn failed(&self) -> u64 {
        self.trials.iter().map(|t| t.failed).sum::<u64>() + self.crashed
    }

    fn values(&self, metric: &str) -> Vec<f64> {
        self.trials
            .iter()
            .filter_map(|t| t.e2e.get(metric).copied())
            .collect()
    }

    /// The reported value of an end-to-end metric: its trials' median or
    /// best, as the registry says.
    pub fn value(&self, m: &EndToEnd) -> f64 {
        let values = self.values(m.name);
        match (m.across, m.better) {
            (Across::Median, _) => median(&values),
            (Across::Best, Better::Lower) => values.iter().copied().fold(f64::NAN, f64::min),
            (Across::Best, Better::Higher) => values.iter().copied().fold(f64::NAN, f64::max),
        }
    }

    /// [`Report::value`] by metric name.
    pub fn value_of(&self, name: &str) -> f64 {
        let m = END_TO_END.iter().find(|m| m.name == name);
        self.value(m.expect("a registered end-to-end metric"))
    }

    /// Inter-quartile range over trials of an end-to-end metric.
    pub fn iqr(&self, metric: &str) -> f64 {
        iqr(&self.values(metric))
    }

    /// Median timed iterations per trial.
    pub fn iters_per_trial(&self) -> f64 {
        median(
            &self
                .trials
                .iter()
                .map(|t| t.iters as f64)
                .collect::<Vec<_>>(),
        )
    }
}

/// One workload's report, trials back to back (the driver mode).
pub fn run_workload(kind: Kind, seed: u64, seconds: f64) -> Report {
    let mut rep = Report::default();
    for _ in 0..TRIALS {
        rep.push(
            kind,
            spawn_trial(kind, seed, seconds / TRIALS as f64, false, None),
        );
    }
    rep
}

/// A full set: every workload's report, trials interleaved round-robin.
pub fn run_set(seed: u64, seconds: f64) -> Vec<(Kind, Report)> {
    let mut set: Vec<(Kind, Report)> = Kind::ALL.iter().map(|&k| (k, Report::default())).collect();
    for round in 0..TRIALS {
        for (kind, rep) in &mut set {
            eprintln!("  trial {}/{TRIALS} of {}", round + 1, kind.name());
            rep.push(
                *kind,
                spawn_trial(*kind, seed, seconds / TRIALS as f64, false, None),
            );
        }
    }
    set
}

/// The driver contract's result line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let metrics: BTreeMap<String, Value> = metrics
        .iter()
        .map(|(name, unit, value)| {
            (
                name.clone(),
                json::obj(vec![
                    ("value", Value::Num(*value)),
                    ("unit", Value::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    crate::trial::one_line(&json::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Int(attempted.max(1))),
        ("failed", Value::Int(failed)),
        ("metrics", Value::Obj(metrics)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(p50: f64, virt: f64, msgs: u64) -> TrialResult {
        TrialResult {
            iters: 10,
            e2e: [
                ("iter_wall_ms_p50".to_string(), p50),
                ("setup_s".to_string(), p50),
            ]
            .into(),
            virt_prefix: vec![virt],
            msgs_prefix: vec![msgs],
            ..TrialResult::default()
        }
    }

    #[test]
    fn report_takes_best_or_median_and_flags_nondeterminism() {
        let mut rep = Report::default();
        for p50 in [3.0, 1.0, 2.0, 9.0] {
            rep.push(Kind::BulkRegular, Ok(trial(p50, 0.5, 7)));
        }
        assert!(rep.correct());
        assert_eq!(
            rep.value_of("iter_wall_ms_p50"),
            1.0,
            "host time: best trial"
        );
        assert_eq!(rep.value_of("setup_s"), 2.5, "set-up: median trial");
        assert_eq!((rep.attempted(), rep.failed()), (48, 0));

        // One more message in one prefix iteration is a finding.
        rep.push(Kind::BulkRegular, Ok(trial(1.0, 0.5, 8)));
        assert!(!rep.correct());
        // So is a crashed trial, and it counts as a failed attempt.
        let mut rep = Report::default();
        rep.push(Kind::BulkRegular, Err("died".into()));
        assert!(!rep.correct());
        assert_eq!((rep.attempted(), rep.failed()), (1, 1));
    }
}
