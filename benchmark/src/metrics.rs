//! The metric registry: every name the benchmark prints, with its unit,
//! direction, and — for end-to-end metrics — the bound by which it may
//! worsen before a change counts as a regression.  `BENCHMARK.json` is
//! generated from this table (`benchmark manifest`), so the file and the
//! program cannot drift apart.

use fuzz::json::{self, Value};

use crate::layers::CP_PHASES;
use crate::workloads::{pairs::LIBS, Kind};

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 16;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// `lower` / `higher`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a report reduces its trials' values of one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Across {
    /// The median trial.
    Median,
    /// The best trial.  Host noise here only ever slows a trial down
    /// (bursts, and whole trials, at about 1.45× — see README), so for a
    /// host-time statistic the best trial is the repeatable one.
    Best,
}

impl Across {
    /// `median` / `best`, as the report tables spell it.
    pub fn as_str(self) -> &'static str {
        match self {
            Across::Median => "median",
            Across::Best => "best",
        }
    }
}

/// An end-to-end metric: what a user of the simulator and the libraries
/// sees.  Every workload reports all of them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// How the trials of one report are reduced to the reported value.
    pub across: Across,
}

/// The end-to-end metrics.  `fail_share` is not among them: a metric
/// here must never read 0, and the share of failed iterations is 0 on
/// every accepted run — it is reported as `failed`/`attempted` instead.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        across: Across::Median,
    },
    EndToEnd {
        name: "iter_wall_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        across: Across::Best,
    },
    EndToEnd {
        name: "elems_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        across: Across::Best,
    },
    EndToEnd {
        name: "virtual_ms_per_iter",
        unit: "ms",
        better: Better::Lower,
        bound: 0.06,
        across: Across::Median,
    },
    EndToEnd {
        name: "msgs_per_iter",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
        across: Across::Median,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        across: Across::Median,
    },
];

/// A per-layer metric (no bound: it explains, it does not gate).
#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// The layer (module names) the metric belongs to.
    pub layer: &'static str,
}

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut v: Vec<PerLayer> = Vec::new();
    let mut add = |layer: &'static str, name: String, unit: &'static str, better: Better| {
        v.push(PerLayer {
            name,
            unit,
            better,
            layer,
        });
    };
    for lib in LIBS {
        for what in ["deref_runs", "pack", "unpack"] {
            add(
                "adapter",
                format!("adapter.{lib}.{what}_ns_per_elem"),
                "ns",
                Lower,
            );
        }
    }
    for (name, unit) in [
        ("build.coop_wall_ms_p50", "ms"),
        ("build.dup_wall_ms_p50", "ms"),
        ("build.coop_virtual_ms", "ms"),
        ("build.dup_virtual_ms", "ms"),
        ("build.coop_msgs", "count"),
        ("build.dup_msgs", "count"),
        ("build.coop_bytes", "B"),
        ("build.dup_bytes", "B"),
        ("build.dup_over_coop_virtual", "ratio"),
    ] {
        add("build", name.into(), unit, Lower);
    }
    for s in LIBS {
        for d in LIBS {
            add("build", format!("build.pair.{s}-{d}.coop_us"), "us", Lower);
        }
    }
    add("build", "build.pairs_dup_sum_us".into(), "us", Lower);
    add("schedule", "schedule.runs_total".into(), "count", Lower);
    add("schedule", "schedule.elems_per_run".into(), "count", Higher);
    add("schedule", "schedule.reversed_us".into(), "us", Lower);
    add("schedule", "schedule.validate_us".into(), "us", Lower);
    for (name, unit, better) in [
        ("datamove.move_wall_us_p50", "us", Lower),
        ("datamove.move_virtual_ms", "ms", Lower),
        ("datamove.msgs_per_move", "count", Lower),
        ("datamove.wire_bytes_per_move", "B", Lower),
        ("datamove.payload_share", "ratio", Higher),
        ("datamove.verified_over_unverified", "ratio", Lower),
        ("datamove.local_copy_ns_per_elem", "ns", Lower),
        ("api.cache_hit_us", "us", Lower),
        ("api.cache_hits", "count", Higher),
        ("api.cache_misses", "count", Lower),
    ] {
        add("datamove", name.into(), unit, better);
    }
    for (name, unit) in [
        ("session.step_wall_us_p50", "us"),
        ("session.step_virtual_ms", "ms"),
        ("session.step_msgs", "count"),
        ("session.durable_over_plain", "ratio"),
        ("session.recovery_settle_virtual_ms", "ms"),
        ("session.parts_replayed", "count"),
        ("session.ranks_recovered", "count"),
        ("recovery.heartbeats_sent", "count"),
    ] {
        add("session", name.into(), unit, Lower);
    }
    for (name, unit, better) in [
        ("reliable.host_ns_per_byte", "ns", Lower),
        ("reliable.virtual_mb_per_s", "MB/s", Higher),
        ("reliable.acks_sent", "count", Lower),
        ("reliable.nacks_sent", "count", Lower),
        ("reliable.retransmits", "count", Lower),
        ("reliable.timeouts", "count", Lower),
        ("reliable.dup_frames_dropped", "count", Lower),
        ("reliable.window_stalls", "count", Lower),
        ("reliable.retransmit_bursts", "count", Lower),
        ("fault.injected", "count", Lower),
        ("reliable.goodput_ratio", "ratio", Higher),
        ("reliable.lossy_over_clean_wall", "ratio", Lower),
    ] {
        add("reliable", name.into(), unit, better);
    }
    add("endpoint", "endpoint.pingpong_ns".into(), "ns", Lower);
    add("endpoint", "endpoint.large_ns_per_byte".into(), "ns", Lower);
    add("endpoint", "endpoint.host_ns_per_msg".into(), "ns", Lower);
    add("sched", "world.spawn_us_per_rank".into(), "us", Lower);
    add("sched", "world.rss_kb_per_rank".into(), "KiB", Lower);
    add("sched", "sched.p256_iter_wall_ms_min".into(), "ms", Lower);
    add(
        "collectives",
        "coll.barrier_wall_us_p50".into(),
        "us",
        Lower,
    );
    add(
        "collectives",
        "coll.alltoallv_wall_ms_p50".into(),
        "ms",
        Lower,
    );
    add("collectives", "coll.alltoallv_msgs".into(), "count", Lower);
    add("collectives", "coll.allgather_wall_us".into(), "us", Lower);
    for topo in ["crossbar", "torus", "fattree"] {
        add(
            "model",
            format!("model.{topo}.host_ns_per_msg"),
            "ns",
            Lower,
        );
        add("model", format!("model.{topo}.virtual_ms"), "ms", Lower);
    }
    add(
        "model",
        "model.torus.contended_virtual_ms".into(),
        "ms",
        Lower,
    );
    add(
        "model",
        "model.torus.incast_contended_virtual_ms".into(),
        "ms",
        Lower,
    );
    for (name, unit) in [
        ("onesided.put_host_us", "us"),
        ("onesided.put_virtual_us", "us"),
        ("onesided.get_host_us", "us"),
        ("onesided.get_virtual_us", "us"),
        ("onesided.ctrl_msgs_per_put", "count"),
    ] {
        add("onesided", name.into(), unit, Lower);
    }
    add("hpf", "hpf.redistribute_wall_ms_p50".into(), "ms", Lower);
    add("hpf", "hpf.redistribute_msgs".into(), "count", Lower);
    add("hpf", "hpf.redistribute_virtual_ms".into(), "ms", Lower);
    add(
        "chaos",
        "chaos.ttable_deref_ns_per_index".into(),
        "ns",
        Lower,
    );
    add("chaos", "chaos.ttable_build_ms".into(), "ms", Lower);
    add("trace", "trace.overhead_pct".into(), "%", Lower);
    add("trace", "trace.events_per_iter".into(), "count", Lower);
    add("trace", "trace.span_coverage".into(), "ratio", Higher);
    add("trace", "analyze.wall_ms".into(), "ms", Lower);
    add(
        "trace",
        "analyze.recvs_matched_share".into(),
        "ratio",
        Higher,
    );
    for p in CP_PHASES {
        add("trace", format!("cp.{p}_s"), "s", Lower);
    }
    v
}

/// `BENCHMARK.json`, exactly the keys the driver contract names.
pub fn manifest() -> Value {
    let s = |x: &str| Value::Str(x.to_string());
    json::obj(vec![
        ("command", json::arr(vec![s("bash"), s("benchmark/run.sh")])),
        ("paths", json::arr(vec![s("benchmark")])),
        ("run_seconds", Value::Int(RUN_SECONDS)),
        (
            "workloads",
            json::arr(
                Kind::ALL
                    .iter()
                    .map(|k| json::obj(vec![("name", s(k.name())), ("why", s(k.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            json::arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        json::obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            json::arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        json::obj(vec![
                            ("name", s(&m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_respects_the_contract_limits() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut names: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(Kind::ALL.iter().map(|k| k.name()));
        for n in &names {
            assert!(n.len() <= 64, "{n} too long");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric or workload name");
        for k in Kind::ALL {
            assert!(
                k.why().len() <= 200 && !k.why().contains('\n'),
                "{}",
                k.name()
            );
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
