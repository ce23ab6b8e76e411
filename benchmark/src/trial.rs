//! One trial: a fresh process that sets a workload up, warms it up,
//! times it, verifies it, and prints its measurements as one JSON line.
//!
//! The parent (see [`crate::suite`]) runs several trials per workload and
//! reports medians; this module is what runs *inside* the child, plus the
//! [`TrialResult`] both sides share.

use std::collections::BTreeMap;
use std::time::Instant;

use fuzz::json::{self, Value};
use mcsim::RunOutput;

use crate::driver::RankOut;
use crate::layers;
use crate::spans;
use crate::stats::{mean, quantile};
use crate::workloads::Kind;

/// Everything one trial measured.
#[derive(Debug, Clone, Default)]
pub struct TrialResult {
    /// Timed iterations run.
    pub iters: u64,
    /// Iterations (timed or verified) that failed with a typed error.
    pub failed: u64,
    /// Oracle mismatches over all ranks.
    pub mismatches: u64,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<String, f64>,
    /// Per-layer phase metrics and counters by name.
    pub layer: BTreeMap<String, f64>,
    /// Virtual seconds of each prefix iteration — must repeat bit-exactly
    /// across trials of one seed.
    pub virt_prefix: Vec<f64>,
    /// Messages (all ranks) in each prefix iteration — must repeat exactly.
    pub msgs_prefix: Vec<u64>,
}

pub fn num_map(m: &BTreeMap<String, f64>) -> Value {
    Value::Obj(m.iter().map(|(k, v)| (k.clone(), Value::Num(*v))).collect())
}

pub fn read_map(v: Option<&Value>) -> Result<BTreeMap<String, f64>, String> {
    match v {
        Some(Value::Obj(m)) => m
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or(format!("{k}: not a number"))?)))
            .collect(),
        _ => Err("missing metric map".into()),
    }
}

/// `to_json` pretty-prints; a result line must be one line.  String
/// values escape their newlines, so joining trimmed lines is lossless.
pub fn one_line(v: &Value) -> String {
    v.to_json().lines().map(str::trim).collect()
}

impl TrialResult {
    /// Encode for the parent.
    pub fn to_value(&self) -> Value {
        json::obj(vec![
            ("iters", Value::Int(self.iters)),
            ("failed", Value::Int(self.failed)),
            ("mismatches", Value::Int(self.mismatches)),
            ("e2e", num_map(&self.e2e)),
            ("layer", num_map(&self.layer)),
            (
                "virt_prefix",
                json::arr(self.virt_prefix.iter().map(|&v| Value::Num(v)).collect()),
            ),
            (
                "msgs_prefix",
                json::arr(self.msgs_prefix.iter().map(|&v| Value::Int(v)).collect()),
            ),
        ])
    }

    /// Decode a child's result line.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let int = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or(format!("missing {k}"))
        };
        let list = |k: &str| {
            v.get(k)
                .and_then(Value::as_arr)
                .ok_or(format!("missing {k}"))
        };
        Ok(TrialResult {
            iters: int("iters")?,
            failed: int("failed")?,
            mismatches: int("mismatches")?,
            e2e: read_map(v.get("e2e"))?,
            layer: read_map(v.get("layer"))?,
            virt_prefix: list("virt_prefix")?
                .iter()
                .map(|x| x.as_f64().ok_or("virt_prefix: not a number".to_string()))
                .collect::<Result<_, _>>()?,
            msgs_prefix: list("msgs_prefix")?
                .iter()
                .map(|x| x.as_u64().ok_or("msgs_prefix: not an integer".to_string()))
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// A `kB` field of `/proc/self/status` (NaN where there is no procfs).
pub fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(f64::NAN)
}

/// Run one trial in this process.  `epoch` is the process's start;
/// `spawn_lag_s` what the parent measured between spawning it and `epoch`.
/// A traced trial also writes `spans_path`.
pub fn run_trial(
    kind: Kind,
    seed: u64,
    budget_s: f64,
    traced: bool,
    epoch: Instant,
    spawn_lag_s: f64,
    spans_path: Option<&str>,
) -> TrialResult {
    let out = kind.run(seed, budget_s, traced, epoch);
    let root = &out.results[0];
    let iters = root.iters;
    let ms: Vec<f64> = root
        .iter_ns
        .ns()
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let prefix = root.virt.len();
    let msgs_prefix: Vec<u64> = (0..prefix)
        .map(|i| out.results.iter().map(|r| r.msgs[i]).sum())
        .collect();
    let timed_s = root.timed_ns as f64 / 1e9;

    let mut e2e = BTreeMap::new();
    let mut put = |k: &str, v: f64| e2e.insert(k.to_string(), v);
    put("setup_s", spawn_lag_s + root.setup_ns as f64 / 1e9);
    put("iter_wall_ms_p50", quantile(&ms, 0.5));
    // Printed by `run`, not a registry metric (see README: the host's slow
    // bursts sit on this percentile).
    put("iter_wall_ms_p90", quantile(&ms, 0.9));
    put(
        "elems_per_s",
        kind.elems_per_iter(seed) as f64 * iters as f64 / timed_s,
    );
    put("virtual_ms_per_iter", mean(&root.virt) * 1e3);
    put(
        "msgs_per_iter",
        msgs_prefix.iter().sum::<u64>() as f64 / prefix as f64,
    );
    put("peak_rss_mb", peak_rss_mb());

    let layer = layers::from_trial(&out);
    if let Some(path) = spans_path {
        write_spans(path, &out);
    }
    TrialResult {
        iters,
        failed: out.results.iter().map(|r| r.failed).max().unwrap_or(0),
        mismatches: out.results.iter().map(|r| r.mismatches).sum(),
        e2e,
        layer,
        virt_prefix: root.virt.clone(),
        msgs_prefix,
    }
}

fn write_spans(path: &str, out: &RunOutput<RankOut>) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).expect("create spans directory");
    }
    let per_rank = out.results.iter().map(|r| &r.spans[..]);
    std::fs::write(path, spans::jsonl(per_rank)).expect("write spans file");
}
