//! Per-layer numbers a trial derives from its own run: counters the
//! simulator keeps per rank, phase metrics read off the benchmark-side
//! spans, and the critical-path analyzer's view of the mcsim timelines.
//!
//! A phase is one named span (or a set of names that are the two sides of
//! one operation, like `datamove.put`/`datamove.get`).  Its *wall* figure
//! is rank 0's host time; its *virtual* figure is, per occurrence, the
//! latest end minus the earliest begin over all ranks; its message and
//! byte figures sum all ranks' sends inside the span.  A workload that
//! never enters a layer reports that layer's phase metrics as 0.

use std::collections::BTreeMap;
use std::time::Instant;

use mcsim::RunOutput;

use crate::driver::RankOut;
use crate::spans::{self_ns, SpanRec};
use crate::stats::quantile;
use crate::workloads::pairs::LIBS;

/// Aggregated view of one phase over the timed iterations.
#[derive(Debug, Default)]
struct Phase {
    /// Rank 0's host nanoseconds, one entry per occurrence.
    wall_ns: Vec<f64>,
    /// Mean virtual seconds per occurrence.
    virt_s: f64,
    /// Mean messages / payload bytes per occurrence (all ranks).
    msgs: f64,
    bytes: f64,
}

impl Phase {
    fn wall_p50(&self, per: f64) -> f64 {
        if self.wall_ns.is_empty() {
            0.0
        } else {
            quantile(&self.wall_ns, 0.5) / per
        }
    }
}

/// Spans of the timed iterations only.
struct Timed<'a> {
    per_rank: Vec<Vec<&'a SpanRec>>,
    /// Every rank's full output: a span's `parent` indexes its rank's
    /// unfiltered span list.
    all: &'a [RankOut],
}

impl<'a> Timed<'a> {
    fn new(all: &'a [RankOut], first: u64, iters: u64) -> Self {
        let per_rank = all
            .iter()
            .map(|r| {
                r.spans
                    .iter()
                    .filter(|s| s.iter >= first && s.iter < first + iters)
                    .collect()
            })
            .collect();
        Timed { per_rank, all }
    }

    /// Aggregate the spans named in `names`, optionally only those whose
    /// parent span is named `under`.
    fn phase(&self, names: &[&str], under: Option<&str>) -> Phase {
        // (iteration, occurrence within it) → (min begin, max end).
        let mut windows: BTreeMap<(u64, usize), (f64, f64)> = BTreeMap::new();
        let mut ph = Phase::default();
        let (mut msgs, mut bytes) = (0u64, 0u64);
        for (rank, spans) in self.per_rank.iter().enumerate() {
            let mut occ: BTreeMap<u64, usize> = BTreeMap::new();
            for s in spans.iter().filter(|s| names.contains(&s.name)) {
                let parent = s.parent.map(|p| self.all[rank].spans[p].name);
                if under.is_some() && parent != under {
                    continue;
                }
                let o = occ.entry(s.iter).or_insert(0);
                let w = windows
                    .entry((s.iter, *o))
                    .or_insert((f64::INFINITY, f64::NEG_INFINITY));
                w.0 = w.0.min(s.virt0);
                w.1 = w.1.max(s.virt1);
                *o += 1;
                msgs += s.msgs;
                bytes += s.bytes;
                if rank == 0 {
                    ph.wall_ns.push(s.host_ns() as f64);
                }
            }
        }
        let n = windows.len().max(1) as f64;
        ph.virt_s = windows.values().map(|(b, e)| e - b).sum::<f64>() / n;
        ph.msgs = msgs as f64 / n;
        ph.bytes = bytes as f64 / n;
        ph
    }
}

const MOVES: [&str; 5] = [
    "datamove.put",
    "datamove.get",
    "datamove.move",
    "datamove.move_back",
    "api.copy",
];
const STEPS: [&str; 2] = ["session.send_step", "session.recv_step"];

/// The nine buckets of `mcsim::analyze`, in its taxonomy order.
pub const CP_PHASES: [&str; 9] = [
    "inspect",
    "manifest",
    "pack",
    "wire",
    "window_stall",
    "retransmit",
    "stage",
    "commit",
    "recovery",
];

/// Per-layer metrics of one finished trial.
pub fn from_trial(out: &RunOutput<RankOut>) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let ranks = &out.results;
    let root = &ranks[0];
    let iters = root.iters as f64;
    let mut put = |k: &str, v: f64| {
        // Absent layers divide 0 by 0; report them (and -0.0) as plain 0.
        m.insert(
            k.to_string(),
            if v.is_finite() && v != 0.0 { v } else { 0.0 },
        );
    };

    // Counters over the timed section, per iteration.
    let sum = |f: &dyn Fn(&RankOut) -> u64| ranks.iter().map(f).sum::<u64>() as f64;
    let per_iter = |f: &dyn Fn(&RankOut) -> u64| sum(f) / iters;
    put(
        "reliable.acks_sent",
        per_iter(&|r| r.timed_stats.faults.acks_sent),
    );
    put(
        "reliable.nacks_sent",
        per_iter(&|r| r.timed_stats.faults.nacks_sent),
    );
    put(
        "reliable.retransmits",
        per_iter(&|r| r.timed_stats.faults.retransmits),
    );
    put(
        "reliable.timeouts",
        per_iter(&|r| r.timed_stats.faults.timeouts),
    );
    put(
        "reliable.dup_frames_dropped",
        per_iter(&|r| r.timed_stats.faults.dup_frames_dropped),
    );
    put(
        "reliable.window_stalls",
        per_iter(&|r| r.timed_stats.faults.window_stalls),
    );
    put(
        "reliable.retransmit_bursts",
        per_iter(&|r| r.timed_stats.faults.retransmit_bursts),
    );
    put(
        "fault.injected",
        per_iter(&|r| {
            let f = &r.timed_stats.faults;
            f.drops_injected + f.dups_injected + f.corrupts_injected + f.delays_injected
        }),
    );
    put(
        "recovery.heartbeats_sent",
        per_iter(&|r| r.timed_stats.recovery.heartbeats_sent),
    );
    let per_rank_iter = iters * ranks.len() as f64;
    put(
        "api.cache_hits",
        sum(&|r| r.timed_stats.sched_cache_hits) / per_rank_iter,
    );
    put(
        "api.cache_misses",
        sum(&|r| r.timed_stats.sched_cache_misses) / per_rank_iter,
    );
    put(
        "endpoint.host_ns_per_msg",
        root.timed_ns as f64 / sum(&|r| r.timed_stats.total_msgs()),
    );

    if root.spans.is_empty() {
        return m;
    }

    // Phase metrics off the benchmark-side spans.
    let first = root.first_iter;
    let timed = Timed::new(ranks, first, root.iters);
    let coop = timed.phase(&["build.coop"], None);
    let dup = timed.phase(&["build.dup"], None);
    put("build.coop_wall_ms_p50", coop.wall_p50(1e6));
    put("build.dup_wall_ms_p50", dup.wall_p50(1e6));
    put("build.coop_virtual_ms", coop.virt_s * 1e3);
    put("build.dup_virtual_ms", dup.virt_s * 1e3);
    put("build.coop_msgs", coop.msgs);
    put("build.dup_msgs", dup.msgs);
    put("build.coop_bytes", coop.bytes);
    put("build.dup_bytes", dup.bytes);
    put("build.dup_over_coop_virtual", dup.virt_s / coop.virt_s);
    let mut dup_sum = 0.0;
    for s in LIBS {
        for d in LIBS {
            let pair = format!("pair.{s}-{d}");
            let c = timed.phase(&["build.coop"], Some(&pair));
            put(&format!("build.pair.{s}-{d}.coop_us"), c.wall_p50(1e3));
            dup_sum += timed.phase(&["build.dup"], Some(&pair)).wall_p50(1e3);
        }
    }
    put("build.pairs_dup_sum_us", dup_sum);
    // Not registry metrics: the regular–regular pair the reference sheet
    // holds against the paper's Table 5 ordering.
    let regular = Some("pair.multiblock-hpf");
    put(
        "ref.regular_pair_coop_virtual_ms",
        timed.phase(&["build.coop"], regular).virt_s * 1e3,
    );
    put(
        "ref.regular_pair_dup_virtual_ms",
        timed.phase(&["build.dup"], regular).virt_s * 1e3,
    );

    let extra = |k: &str| {
        root.extras
            .iter()
            .find(|(n, _)| n == k)
            .map_or(0.0, |e| e.1)
    };
    put("schedule.runs_total", extra("schedule.runs_total"));
    put(
        "schedule.elems_per_run",
        extra("schedule.elems_handled") / extra("schedule.runs_total"),
    );
    let reversed = timed.phase(&["schedule.reversed"], None);
    put(
        "schedule.reversed_us",
        if reversed.wall_ns.is_empty() {
            extra("schedule.reversed_us")
        } else {
            reversed.wall_p50(1e3)
        },
    );
    put("schedule.validate_us", extra("schedule.validate_us"));

    let mv = timed.phase(&MOVES, None);
    put("datamove.move_wall_us_p50", mv.wall_p50(1e3));
    put("datamove.move_virtual_ms", mv.virt_s * 1e3);
    put("datamove.msgs_per_move", mv.msgs);
    put("datamove.wire_bytes_per_move", mv.bytes);
    put(
        "datamove.payload_share",
        extra("schedule.elems_remote") * 8.0 / mv.bytes,
    );
    put(
        "api.cache_hit_us",
        timed.phase(&["api.cached_sched"], None).wall_p50(1e3),
    );

    let step = timed.phase(&STEPS, None);
    put("session.step_wall_us_p50", step.wall_p50(1e3));
    put("session.step_virtual_ms", step.virt_s * 1e3);
    put("session.step_msgs", step.msgs);
    let plain = timed.phase(&["datamove.put", "datamove.get"], None);
    put(
        "session.durable_over_plain",
        if step.wall_ns.is_empty() {
            0.0
        } else {
            step.wall_p50(1.0) / plain.wall_p50(1.0)
        },
    );

    let redist = timed.phase(&["hpf.redistribute"], None);
    put("hpf.redistribute_wall_ms_p50", redist.wall_p50(1e6));
    put("hpf.redistribute_msgs", redist.msgs);
    put("hpf.redistribute_virtual_ms", redist.virt_s * 1e3);

    // Span coverage on rank 0: self time of everything below the
    // per-iteration root span, over the root spans' total.
    let own = self_ns(&root.spans);
    let (mut covered, mut total) = (0u64, 0u64);
    for (s, own) in root.spans.iter().zip(own) {
        if s.iter < first || s.iter >= first + root.iters {
            continue;
        }
        if s.name == "iter" {
            total += s.host_ns();
        } else {
            covered += own;
        }
    }
    put("trace.span_coverage", covered as f64 / total as f64);

    // The simulator's own timelines through the critical-path analyzer.
    let all_iters = (first + root.iters + 1) as f64;
    let events: usize = out.traces.iter().map(Vec::len).sum();
    put("trace.events_per_iter", events as f64 / all_iters);
    let t = Instant::now();
    let report = mcsim::analyze(&out.traces);
    put("analyze.wall_ms", t.elapsed().as_secs_f64() * 1e3);
    if let Err(e) = report.self_check() {
        panic!("critical-path self-check failed: {e}");
    }
    let matched = report.recvs - report.unmatched_recvs;
    put(
        "analyze.recvs_matched_share",
        matched as f64 / report.recvs.max(1) as f64,
    );
    let totals = report.phase_totals();
    for p in CP_PHASES {
        let secs = totals.get(p).copied().unwrap_or(0.0);
        put(&format!("cp.{p}_s"), secs / all_iters);
    }
    m
}
