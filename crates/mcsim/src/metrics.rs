//! Named, typed metrics derived from a run.
//!
//! The registry folds the ad-hoc counters ([`NetStats`]:
//! `sched_cache_*`, [`crate::stats::FaultStats`],
//! [`crate::stats::SessionStats`]) into one flat namespace of named
//! counters, and — when the run was traced — adds per-phase
//! *virtual-time* histograms: message flight time, receive wait,
//! retransmit latency, and one `phase.<name>` histogram per span phase.
//! Everything is deterministic because it is computed from virtual
//! clocks.
//!
//! Naming convention: `<subsystem>.<what>` — `net.msgs`,
//! `sched_cache.hits`, `fault.retransmits`, `session.frames_staged`,
//! `msg.flight_time`, `phase.inspect`, …

use std::collections::BTreeMap;

use crate::span::pair_spans;
use crate::stats::NetStats;
use crate::trace::TraceEvent;

/// Number of logarithmic buckets ([`HIST_PER_OCTAVE`] per factor of 2).
pub const HIST_BUCKETS: usize = 160;
/// Lower edge of bucket 0 (seconds): 1 ns — the virtual clock's natural
/// resolution.  160 buckets at 4/octave span 1 ns … ~1100 s.
pub const HIST_V0: f64 = 1e-9;
/// Buckets per octave (~19% bucket width — fine enough for p99 reads).
pub const HIST_PER_OCTAVE: u32 = 4;

/// A log-bucketed summary histogram over virtual-time samples (seconds).
///
/// Alongside exact `count`/`sum`/`min`/`max`, samples land in one of
/// [`HIST_BUCKETS`] logarithmic buckets ([`HIST_PER_OCTAVE`] per factor
/// of 2 starting at [`HIST_V0`]), so [`Histogram::quantile`] reads
/// p50/p95/p99 with ~19% relative resolution.  Samples at or below 0
/// (and below `HIST_V0`) count in bucket 0; samples beyond the top edge
/// clamp into the last bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    buckets: [u32; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// Index of the bucket a sample lands in.
    fn bucket_index(v: f64) -> usize {
        if v.is_nan() || v <= HIST_V0 {
            return 0;
        }
        let idx = ((v / HIST_V0).log2() * HIST_PER_OCTAVE as f64).ceil() as isize;
        idx.clamp(0, HIST_BUCKETS as isize - 1) as usize
    }

    /// Upper edge of bucket `i` (seconds).
    fn bucket_edge(i: usize) -> f64 {
        HIST_V0 * 2f64.powf(i as f64 / HIST_PER_OCTAVE as f64)
    }

    /// Add one sample.
    pub fn record(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        self.buckets[Self::bucket_index(v)] += 1;
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]` (0 when empty).
    ///
    /// Reads the upper edge of the bucket holding the `ceil(q·count)`-th
    /// sample, clamped into the exact `[min, max]` envelope; the
    /// endpoints are exact (`quantile(0.0) == min`,
    /// `quantile(1.0) == max`), interior quantiles are within one
    /// bucket (~19%), and single-sample histograms are exact.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return Self::bucket_edge(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Flat registry of named counters and histograms for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Build the registry from a run's aggregate stats and (possibly
    /// empty) per-rank timelines.
    pub fn from_run(stats: &NetStats, traces: &[Vec<TraceEvent>]) -> Self {
        let mut m = MetricsRegistry::default();
        m.set("net.msgs", stats.total_msgs());
        m.set("net.bytes", stats.total_bytes());
        m.set("sched_cache.hits", stats.sched_cache_hits);
        m.set("sched_cache.misses", stats.sched_cache_misses);
        let f = &stats.faults;
        m.set("fault.drops_injected", f.drops_injected);
        m.set("fault.dups_injected", f.dups_injected);
        m.set("fault.corrupts_injected", f.corrupts_injected);
        m.set("fault.delays_injected", f.delays_injected);
        m.set("fault.retransmits", f.retransmits);
        m.set("fault.timeouts", f.timeouts);
        m.set("fault.acks_sent", f.acks_sent);
        m.set("fault.nacks_sent", f.nacks_sent);
        m.set("fault.dup_frames_dropped", f.dup_frames_dropped);
        m.set("fault.stale_acks_dropped", f.stale_acks_dropped);
        m.set("fault.window_stalls", f.window_stalls);
        m.set("fault.window_advances", f.window_advances);
        m.set("fault.retransmit_bursts", f.retransmit_bursts);
        let s = &stats.session;
        m.set("session.frames_staged", s.frames_staged);
        m.set("session.transfers_aborted", s.transfers_aborted);
        m.set("session.transfers_committed", s.transfers_committed);
        m.set("session.stale_halves_dropped", s.stale_halves_dropped);
        m.set("session.stale_schedules", s.stale_schedules);
        let r = &stats.recovery;
        m.set("recovery.heartbeats_sent", r.heartbeats_sent);
        m.set("recovery.leases_expired", r.leases_expired);
        m.set("recovery.ranks_recovered", r.ranks_recovered);
        m.set("recovery.parts_replayed", r.parts_replayed);
        m.fold_traces(traces);
        m
    }

    fn set(&mut self, name: &str, v: u64) {
        self.counters.insert(name.to_string(), v);
    }

    fn fold_traces(&mut self, traces: &[Vec<TraceEvent>]) {
        for tl in traces {
            // Histogram sources with duration semantics.
            let mut last_send: BTreeMap<(usize, u64), f64> = BTreeMap::new();
            for e in tl {
                match e {
                    TraceEvent::Send {
                        at,
                        to,
                        tag,
                        arrival,
                        ..
                    } => {
                        self.histo_mut("msg.flight_time").record(arrival - at);
                        last_send.insert((*to, tag.0), *at);
                    }
                    TraceEvent::Recv { waited, .. } => {
                        self.histo_mut("recv.wait").record(*waited);
                    }
                    TraceEvent::Retransmit { at, to, tag, .. } => {
                        // Latency from the most recent original
                        // transmission on the same stream to the resend.
                        if let Some(t0) = last_send.get(&(*to, tag.0)) {
                            self.histo_mut("retransmit.latency").record(at - t0);
                        }
                    }
                    TraceEvent::WindowAdvance { inflight, .. } => {
                        // Pipeline occupancy: frames still in flight each
                        // time an ack advanced the window (a count, not a
                        // duration).
                        self.histo_mut("window.inflight").record(*inflight as f64);
                    }
                    _ => {}
                }
            }
            for span in pair_spans(tl) {
                self.histo_mut(&format!("phase.{}", span.phase.as_str()))
                    .record(span.duration());
            }
        }
    }

    fn histo_mut(&mut self, name: &str) -> &mut Histogram {
        self.histograms.entry(name.to_string()).or_default()
    }

    /// Value of a named counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms, name-ordered.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Inspector vs executor share of modeled wall time, as fractions of
    /// their combined span time: `(inspect, transfer)`.  `None` when the
    /// run recorded neither phase (e.g. tracing off).
    pub fn inspector_executor_share(&self) -> Option<(f64, f64)> {
        let i = self.histogram("phase.inspect").map_or(0.0, |h| h.sum);
        let x = self.histogram("phase.transfer").map_or(0.0, |h| h.sum);
        let total = i + x;
        if total <= 0.0 {
            return None;
        }
        Some((i / total, x / total))
    }

    /// Human-readable `name value` lines (counters, then histograms).
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("{k} {v}"))
            .collect();
        for (k, h) in &self.histograms {
            out.push(format!(
                "{k} count={} sum={:.9} min={:.9} max={:.9} mean={:.9} p50={:.9} p95={:.9} p99={:.9}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Phase, SpanId};
    use crate::stats::StatsSnapshot;
    use crate::tag::Tag;

    #[test]
    fn histogram_summary() {
        let mut h = Histogram::default();
        h.record(2.0);
        h.record(4.0);
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 4.0);
        assert_eq!(h.mean(), 3.0);
    }

    #[test]
    fn empty_histogram_has_no_nans() {
        let h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        assert!(!h.mean().is_nan());
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.p99(), 0.0);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 0.0);
    }

    #[test]
    fn quantiles_read_log_buckets() {
        let mut h = Histogram::default();
        // 100 samples: 1ms ×90, 100ms ×9, 1s ×1.
        for _ in 0..90 {
            h.record(1e-3);
        }
        for _ in 0..9 {
            h.record(0.1);
        }
        h.record(1.0);
        assert_eq!(h.count, 100);
        // ~19% bucket resolution: p50 near 1ms, p95 near 100ms, p99
        // near 100ms (the 99th sample), p100 exactly max.
        assert!((h.p50() - 1e-3).abs() / 1e-3 < 0.2, "p50={}", h.p50());
        assert!((h.p95() - 0.1).abs() / 0.1 < 0.2, "p95={}", h.p95());
        assert!((h.p99() - 0.1).abs() / 0.1 < 0.2, "p99={}", h.p99());
        assert_eq!(h.quantile(1.0), 1.0);
        assert_eq!(h.quantile(0.0), h.min);
    }

    #[test]
    fn quantile_clamps_to_envelope() {
        let mut h = Histogram::default();
        h.record(3.5e-4);
        // Single sample: every quantile is exactly that sample.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 3.5e-4);
        }
        // Out-of-range and sub-resolution samples stay finite.
        let mut tiny = Histogram::default();
        tiny.record(0.0);
        tiny.record(-1.0);
        tiny.record(1e20);
        assert!(tiny.quantile(0.5).is_finite());
        assert_eq!(tiny.quantile(1.0), 1e20);
        assert_eq!(tiny.min, -1.0);
    }

    #[test]
    fn share_is_none_without_phase_time_never_nan() {
        let m = MetricsRegistry::default();
        assert!(m.inspector_executor_share().is_none());
    }

    #[test]
    fn registry_folds_stats_and_traces() {
        let mut local = StatsSnapshot::new(2);
        local.faults.retransmits = 3;
        local.session.frames_staged = 2;
        let stats = NetStats::from_locals(vec![local, StatsSnapshot::new(2)]);
        let traces = vec![vec![
            TraceEvent::SpanBegin {
                at: 0.0,
                id: SpanId::new(1),
                parent: None,
                phase: Phase::Inspect,
                detail: "".into(),
            },
            TraceEvent::SpanEnd {
                at: 1.0,
                id: SpanId::new(1),
            },
            TraceEvent::Send {
                at: 1.0,
                to: 1,
                tag: Tag::user(0),
                bytes: 8,
                arrival: 1.5,
            },
            TraceEvent::Retransmit {
                at: 2.0,
                to: 1,
                tag: Tag::user(0),
                seq: 0,
                attempt: 1,
            },
            TraceEvent::SpanBegin {
                at: 2.0,
                id: SpanId::new(2),
                parent: None,
                phase: Phase::Transfer,
                detail: "".into(),
            },
            TraceEvent::SpanEnd {
                at: 5.0,
                id: SpanId::new(2),
            },
        ]];
        let m = MetricsRegistry::from_run(&stats, &traces);
        assert_eq!(m.counter("fault.retransmits"), 3);
        assert_eq!(m.counter("session.frames_staged"), 2);
        let flight = m.histogram("msg.flight_time").unwrap();
        assert_eq!(flight.count, 1);
        assert!((flight.mean() - 0.5).abs() < 1e-12);
        let rtx = m.histogram("retransmit.latency").unwrap();
        assert!((rtx.max - 1.0).abs() < 1e-12);
        let (i, x) = m.inspector_executor_share().unwrap();
        assert!((i - 0.25).abs() < 1e-12);
        assert!((x - 0.75).abs() < 1e-12);
        assert!(!m.lines().is_empty());
    }
}
