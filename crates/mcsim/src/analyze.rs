//! Causal critical-path analysis over traced runs.
//!
//! PR 4 gave runs raw spans and counters; this module turns them into
//! answers.  From the per-rank [`TraceEvent`] timelines of a traced run
//! it reconstructs a cross-rank happens-before DAG — program order
//! within a rank, send→recv edges matched exactly by reconstructed
//! frame sequence numbers (robust to drops, duplicates, corruption and
//! retransmission), window-stall edges (a `WindowStall` resolves at the
//! next `WindowAdvance` on the same stream), and recovery edges
//! (`LeaseExpired` → `Recovered`) — and walks the **critical path** of
//! each coupled transfer backward on the virtual clock, attributing
//! every second of it to a fixed phase taxonomy:
//!
//! > `inspect / manifest / pack / wire / window_stall / retransmit /
//! > stage / commit / recovery / other`
//!
//! The walk tiles the interval `[path start, transfer end]` with
//! contiguous segments (a local segment labelled by the innermost open
//! span, a wire segment per cross-rank hop, a stall or recovery
//! segment per overlay interval), so per-phase attributions sum to the
//! end-to-end virtual time *by construction* — the only slack is
//! floating-point association, checked by
//! [`CriticalPathReport::self_check`] at a 1 ns tolerance.
//!
//! ## Send→recv matching
//!
//! Every physical copy the fault injector emits records its own `Send`
//! event, preceded by the `Fault` events that describe what happened to
//! it (dup/drop/corrupt/delay), and every retransmission is announced
//! by a `Retransmit` event naming its frame sequence number.  Walking a
//! sender timeline in order therefore reconstructs, per `(peer, tag)`
//! stream, each copy's sequence number and whether it was destroyed in
//! flight.  The reliable layer delivers frames strictly in sequence
//! order and FIFO channels deliver copies in send order, so the k-th
//! `Recv` on a stream corresponds to the first surviving copy with
//! sequence number k — an exact match even under dup/drop/retransmit
//! fault plans.  Streams the analyzer cannot pin down (e.g. across an
//! incarnation purge after a crash recovery) degrade gracefully: the
//! receive wait is attributed to `wire` on the waiting rank instead of
//! hopping to the sender.

use std::collections::{BTreeMap, HashMap};

use crate::model::{LinkId, MachineModel, Topology};
use crate::span::{pair_spans, PairedSpan, Phase};
use crate::trace::{FaultKind, TraceEvent};

/// The attribution taxonomy, in report order.  `other` is local compute
/// inside a transfer that no sub-span claims (scheduling, bookkeeping).
pub const TAXONOMY: [&str; 10] = [
    "inspect",
    "manifest",
    "pack",
    "wire",
    "window_stall",
    "retransmit",
    "stage",
    "commit",
    "recovery",
    "other",
];

/// Map a span phase onto its attribution bucket.
fn bucket_of(phase: Phase) -> &'static str {
    match phase {
        Phase::Inspect => "inspect",
        Phase::Manifest => "manifest",
        Phase::Pack => "pack",
        Phase::Wire => "wire",
        Phase::Stage => "stage",
        Phase::Commit => "commit",
        // Abort processing is failure handling, bucketed with recovery.
        Phase::Abort => "recovery",
        Phase::Transfer => "other",
    }
}

/// Association slack allowed between a tiled attribution sum and the
/// end-to-end difference it telescopes to (seconds, on second-scale
/// clocks).
pub const SUM_TOLERANCE: f64 = 1e-9;

/// The matched sender of one received message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SendInfo {
    /// Sender's global rank.
    pub rank: usize,
    /// Virtual time of the matched physical copy's send.
    pub at: f64,
    /// Its arrival stamp at the receiver.
    pub arrival: f64,
    /// Transmission attempt (0 = original, ≥1 = retransmission).
    pub attempt: u32,
}

/// One `Recv` event with its matched sender (if the stream could be
/// reconstructed).
#[derive(Debug, Clone, PartialEq)]
pub struct RecvMatch {
    /// Virtual time the receive completed.
    pub at: f64,
    /// Virtual time the receiver's clock waited on the arrival.
    pub waited: f64,
    /// Source global rank.
    pub from: usize,
    /// Raw tag bits of the stream.
    pub tag: u64,
    /// Payload bytes.
    pub bytes: usize,
    /// The physical copy this receive consumed, when matched.
    pub send: Option<SendInfo>,
}

/// One physical send copy on a `(sender, peer, tag)` stream.
#[derive(Debug, Clone, Copy)]
struct SendCopy {
    at: f64,
    arrival: f64,
    seq: u64,
    attempt: u32,
    /// Destroyed in flight (dropped tombstone or corrupted payload):
    /// can never be the copy a receive consumed.
    lost: bool,
    matched: bool,
}

type StreamKey = (usize, usize, u64); // (sender rank, receiver rank, tag bits)

/// Match every `Recv` in the timelines to the physical `Send` copy it
/// consumed.  Returns, per rank, the receives in timeline order.
pub fn match_sends(traces: &[Vec<TraceEvent>]) -> Vec<Vec<RecvMatch>> {
    let mut streams: HashMap<StreamKey, Vec<SendCopy>> = HashMap::new();
    for (rank, tl) in traces.iter().enumerate() {
        // Per-stream sequence reconstruction state.
        let mut next_seq: HashMap<(usize, u64), u64> = HashMap::new();
        let mut pending_faults: HashMap<(usize, u64), Vec<FaultKind>> = HashMap::new();
        let mut pending_retx: HashMap<(usize, u64), (u64, u32)> = HashMap::new();
        let mut last_seq: HashMap<(usize, u64), (u64, u32)> = HashMap::new();
        for ev in tl {
            match ev {
                TraceEvent::Fault { kind, to, tag, .. } => {
                    pending_faults.entry((*to, tag.0)).or_default().push(*kind);
                }
                TraceEvent::Retransmit {
                    to,
                    tag,
                    seq,
                    attempt,
                    ..
                } => {
                    pending_retx.insert((*to, tag.0), (*seq, *attempt));
                }
                TraceEvent::Send {
                    at,
                    to,
                    tag,
                    arrival,
                    ..
                } => {
                    let key = (*to, tag.0);
                    let faults = pending_faults.remove(&key).unwrap_or_default();
                    let dup = faults.contains(&FaultKind::Duplicate);
                    let lost =
                        faults.contains(&FaultKind::Drop) || faults.contains(&FaultKind::Corrupt);
                    let (seq, attempt) = if dup {
                        // An injected duplicate repeats the previous
                        // copy's frame verbatim.
                        last_seq.get(&key).copied().unwrap_or((0, 0))
                    } else if let Some(sa) = pending_retx.remove(&key) {
                        sa
                    } else {
                        let s = next_seq.entry(key).or_insert(0);
                        let cur = *s;
                        *s += 1;
                        (cur, 0)
                    };
                    last_seq.insert(key, (seq, attempt));
                    streams
                        .entry((rank, *to, tag.0))
                        .or_default()
                        .push(SendCopy {
                            at: *at,
                            arrival: *arrival,
                            seq,
                            attempt,
                            lost,
                            matched: false,
                        });
                }
                _ => {}
            }
        }
    }
    let mut out: Vec<Vec<RecvMatch>> = Vec::with_capacity(traces.len());
    for (rank, tl) in traces.iter().enumerate() {
        let mut recvs = Vec::new();
        // The k-th delivered message on a stream carries sequence k.
        let mut delivered: HashMap<(usize, u64), u64> = HashMap::new();
        for ev in tl {
            if let TraceEvent::Recv {
                at,
                from,
                tag,
                bytes,
                waited,
            } = ev
            {
                let k = delivered.entry((*from, tag.0)).or_insert(0);
                let seq = *k;
                *k += 1;
                let send = streams.get_mut(&(*from, rank, tag.0)).and_then(|copies| {
                    let c = copies.iter_mut().find(|c| {
                        c.seq == seq && !c.lost && !c.matched && c.arrival <= at + 1e-12
                    })?;
                    c.matched = true;
                    Some(SendInfo {
                        rank: *from,
                        at: c.at,
                        arrival: c.arrival,
                        attempt: c.attempt,
                    })
                });
                recvs.push(RecvMatch {
                    at: *at,
                    waited: *waited,
                    from: *from,
                    tag: tag.0,
                    bytes: *bytes,
                    send,
                });
            }
        }
        out.push(recvs);
    }
    out
}

/// A window-stall or recovery overlay interval on one rank.
#[derive(Debug, Clone, Copy)]
struct Overlay {
    begin: f64,
    end: f64,
    label: &'static str,
}

/// Everything the backward walk needs about one rank.
struct RankData {
    spans: Vec<PairedSpan>,
    recvs: Vec<RecvMatch>,
    overlays: Vec<Overlay>,
}

fn overlays_of(tl: &[TraceEvent]) -> Vec<Overlay> {
    let mut out = Vec::new();
    // Window stalls: a stall resolves at the first window advance on the
    // same stream after it began; residual multi-advance stall time
    // stays with the enclosing (wire) span.
    let mut advances: HashMap<(usize, u64), Vec<f64>> = HashMap::new();
    let mut retx_at: HashMap<(usize, u64), Vec<f64>> = HashMap::new();
    for ev in tl {
        match ev {
            TraceEvent::WindowAdvance { at, to, tag, .. } => {
                advances.entry((*to, tag.0)).or_default().push(*at);
            }
            TraceEvent::Retransmit { at, to, tag, .. } => {
                retx_at.entry((*to, tag.0)).or_default().push(*at);
            }
            _ => {}
        }
    }
    for ev in tl {
        if let TraceEvent::WindowStall { at, to, tag, .. } = ev {
            let key = (*to, tag.0);
            let end = advances
                .get(&key)
                .and_then(|v| v.iter().copied().find(|&a| a > *at))
                .unwrap_or(*at);
            if end > *at {
                let retransmitting = retx_at
                    .get(&key)
                    .is_some_and(|v| v.iter().any(|&r| r >= *at && r <= end));
                out.push(Overlay {
                    begin: *at,
                    end,
                    label: if retransmitting {
                        "retransmit"
                    } else {
                        "window_stall"
                    },
                });
            }
        }
    }
    // Recovery: an eviction wait runs from the lease expiry to the next
    // recovery (or replay) observation on this rank.
    let last_at = tl.last().map_or(0.0, |e| e.at());
    for (i, ev) in tl.iter().enumerate() {
        if let TraceEvent::LeaseExpired { at, .. } = ev {
            let end = tl[i + 1..]
                .iter()
                .find_map(|e| match e {
                    TraceEvent::Recovered { at, .. } | TraceEvent::PartReplayed { at, .. } => {
                        Some(*at)
                    }
                    _ => None,
                })
                .unwrap_or(last_at);
            if end > *at {
                out.push(Overlay {
                    begin: *at,
                    end,
                    label: "recovery",
                });
            }
        }
    }
    out
}

/// Innermost-span attribution of a purely local interval `[x, y]` on
/// one rank, with stall/recovery overlays taking precedence.
fn attribute_local(
    rd: &RankData,
    x: f64,
    y: f64,
    phases: &mut BTreeMap<&'static str, f64>,
    segments: &mut usize,
) {
    if y <= x {
        return;
    }
    let mut cuts: Vec<f64> = vec![x, y];
    for s in &rd.spans {
        for t in [s.begin, s.end] {
            if t > x && t < y {
                cuts.push(t);
            }
        }
    }
    for o in &rd.overlays {
        for t in [o.begin, o.end] {
            if t > x && t < y {
                cuts.push(t);
            }
        }
    }
    cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite virtual times"));
    cuts.dedup();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        if b <= a {
            continue;
        }
        let mid = 0.5 * (a + b);
        let label = rd
            .overlays
            .iter()
            .find(|o| o.begin <= mid && mid < o.end)
            .map(|o| o.label)
            .unwrap_or_else(|| {
                // Innermost open span: proper nesting makes it the one
                // with the latest begin among those containing `mid`.
                rd.spans
                    .iter()
                    .filter(|s| s.begin <= mid && mid < s.end)
                    .max_by(|p, q| p.begin.partial_cmp(&q.begin).expect("finite"))
                    .map(|s| bucket_of(s.phase))
                    .unwrap_or("other")
            });
        *phases.entry(label).or_insert(0.0) += b - a;
        *segments += 1;
    }
}

/// Critical path of one coupled transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferPath {
    /// Schedule sequence number: the transfer span detail's `seq` field
    /// (`u64::MAX` when the span carried none).
    pub seq: u64,
    /// Which repetition of this sequence number (0-based) — repeated
    /// moves over one schedule are distinct transfers.
    pub occurrence: usize,
    /// Earliest participant transfer-span begin.
    pub span_begin: f64,
    /// Where the backward walk bottomed out (the causal start).
    pub start: f64,
    /// Latest participant transfer-span end.
    pub end: f64,
    /// Rank whose span ends last (the walk's origin).
    pub end_rank: usize,
    /// Rank the walk bottomed out on.
    pub start_rank: usize,
    /// Cross-rank hops the critical path took.
    pub hops: usize,
    /// Contiguous segments the path was tiled into.
    pub segments: usize,
    /// Seconds of critical-path time per taxonomy bucket.
    pub phases: BTreeMap<&'static str, f64>,
}

impl TransferPath {
    /// End-to-end critical-path time (virtual seconds).
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Sum of the per-phase attributions — equal to [`Self::duration`]
    /// up to floating-point association.
    pub fn attributed(&self) -> f64 {
        self.phases.values().sum()
    }

    /// The phase holding the largest share, with its fraction of the
    /// end-to-end time.
    pub fn dominant(&self) -> Option<(&'static str, f64)> {
        let total = self.attributed();
        if total <= 0.0 {
            return None;
        }
        self.phases
            .iter()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(k, v)| (*k, v / total))
    }
}

/// Critical-path analysis of a whole traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CriticalPathReport {
    /// One entry per coupled transfer, in `(seq, occurrence)` order.
    pub transfers: Vec<TransferPath>,
    /// Critical-path wire + retransmit seconds per `(src, dst)` link.
    pub per_link: BTreeMap<(usize, usize), f64>,
    /// Total `Recv` events seen across all ranks.
    pub recvs: usize,
    /// Receives whose sending copy could not be pinned down.
    pub unmatched_recvs: usize,
}

impl CriticalPathReport {
    /// Total critical-path seconds per taxonomy bucket, summed over
    /// transfers.
    pub fn phase_totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for t in &self.transfers {
            for (k, v) in &t.phases {
                *out.entry(*k).or_insert(0.0) += v;
            }
        }
        out
    }

    /// Per-phase share of the summed end-to-end time, in `[0, 1]`.
    pub fn phase_shares(&self) -> BTreeMap<&'static str, f64> {
        let total: f64 = self.transfers.iter().map(|t| t.duration()).sum();
        let mut out = BTreeMap::new();
        if total <= 0.0 {
            return out;
        }
        for (k, v) in self.phase_totals() {
            out.insert(k, v / total);
        }
        out
    }

    /// The dominant bottleneck across all transfers.
    pub fn dominant(&self) -> Option<(&'static str, f64)> {
        let shares = self.phase_shares();
        shares
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
    }

    /// Per-transfer end-to-end latency at quantile `q` in `[0, 1]`
    /// (virtual seconds): the nearest-rank order statistic, i.e. the
    /// `ceil(q·n)`-th smallest duration, so `q = 1` is the slowest
    /// transfer.  0 when there are no transfers.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        let mut d: Vec<f64> = self.transfers.iter().map(|t| t.duration()).collect();
        if d.is_empty() {
            return 0.0;
        }
        d.sort_by(f64::total_cmp);
        let rank = (q * d.len() as f64).ceil() as usize;
        d[rank.clamp(1, d.len()) - 1]
    }

    /// Verify the tiling invariants: every transfer's per-phase
    /// attribution sums to its end-to-end virtual time (within
    /// [`SUM_TOLERANCE`] of association slack), the path is monotone
    /// (`start ≤ end`), and no bucket is negative.
    pub fn self_check(&self) -> Result<(), String> {
        for t in &self.transfers {
            // NaN must fail too, so compare for the failing case directly.
            if t.start > t.end || t.start.is_nan() || t.end.is_nan() {
                return Err(format!(
                    "transfer seq={} occ={}: path not monotone ({} > {})",
                    t.seq, t.occurrence, t.start, t.end
                ));
            }
            for (k, v) in &t.phases {
                if !v.is_finite() || *v < 0.0 {
                    return Err(format!(
                        "transfer seq={} occ={}: negative/non-finite {k} attribution {v}",
                        t.seq, t.occurrence
                    ));
                }
            }
            let residual = (t.attributed() - t.duration()).abs();
            let tol = SUM_TOLERANCE * t.duration().abs().max(1.0);
            if residual > tol {
                return Err(format!(
                    "transfer seq={} occ={}: attribution sum {} != end-to-end {} (residual {residual:e})",
                    t.seq, t.occurrence,
                    t.attributed(),
                    t.duration()
                ));
            }
        }
        Ok(())
    }

    /// One-paragraph human summary — what post-mortems embed.
    pub fn render(&self) -> String {
        if self.transfers.is_empty() {
            return "critical path: no transfer spans in trace".to_string();
        }
        let total: f64 = self.transfers.iter().map(|t| t.duration()).sum();
        let (dom, dom_share) = self.dominant().unwrap_or(("other", 0.0));
        let shares = self.phase_shares();
        let mut parts = Vec::new();
        for name in TAXONOMY {
            let s = shares.get(name).copied().unwrap_or(0.0);
            if s > 0.0005 {
                parts.push(format!("{name} {:.1}%", s * 100.0));
            }
        }
        let attribution = match self.self_check() {
            Ok(()) => "attribution=ok".to_string(),
            Err(e) => format!("attribution=BROKEN ({e})"),
        };
        format!(
            "critical path: {} transfer(s), end-to-end {:.6}s total, dominant bottleneck \
             {dom} ({:.1}% of critical-path time); shares: {}; per-transfer latency \
             p50 {:.6}s p95 {:.6}s p99 {:.6}s max {:.6}s; {}/{} recvs matched; {attribution}",
            self.transfers.len(),
            total,
            dom_share * 100.0,
            parts.join(", "),
            self.latency_quantile(0.50),
            self.latency_quantile(0.95),
            self.latency_quantile(0.99),
            self.latency_quantile(1.0),
            self.recvs - self.unmatched_recvs,
            self.recvs,
        )
    }
}

/// One participant's transfer span.
struct Participant {
    rank: usize,
    begin: f64,
    end: f64,
}

/// Reconstruct the happens-before DAG from per-rank timelines and walk
/// each coupled transfer's critical path backward on the virtual clock.
pub fn analyze(traces: &[Vec<TraceEvent>]) -> CriticalPathReport {
    let matches = match_sends(traces);
    let recvs_total: usize = matches.iter().map(|m| m.len()).sum();
    let unmatched: usize = matches
        .iter()
        .flatten()
        .filter(|m| m.send.is_none())
        .count();
    let ranks: Vec<RankData> = traces
        .iter()
        .zip(matches)
        .map(|(tl, recvs)| RankData {
            spans: pair_spans(tl),
            recvs,
            overlays: overlays_of(tl),
        })
        .collect();

    // Group transfer spans into cross-rank transfers keyed by
    // (seq, occurrence-of-that-seq-on-the-rank).
    let mut groups: BTreeMap<(u64, usize), Vec<Participant>> = BTreeMap::new();
    for (rank, rd) in ranks.iter().enumerate() {
        let mut occ: HashMap<u64, usize> = HashMap::new();
        for s in &rd.spans {
            if s.phase != Phase::Transfer {
                continue;
            }
            let seq = s.detail.field("seq").unwrap_or(u64::MAX);
            let k = occ.entry(seq).or_insert(0);
            groups.entry((seq, *k)).or_default().push(Participant {
                rank,
                begin: s.begin,
                end: s.end,
            });
            *k += 1;
        }
    }

    let mut report = CriticalPathReport {
        recvs: recvs_total,
        unmatched_recvs: unmatched,
        ..CriticalPathReport::default()
    };

    for ((seq, occurrence), parts) in groups {
        let span_begin = parts.iter().map(|p| p.begin).fold(f64::INFINITY, f64::min);
        let (end, end_rank) =
            parts
                .iter()
                .map(|p| (p.end, p.rank))
                .fold(
                    (f64::NEG_INFINITY, 0),
                    |acc, x| {
                        if x.0 > acc.0 {
                            x
                        } else {
                            acc
                        }
                    },
                );
        let floor_of = |rank: usize| -> f64 {
            parts
                .iter()
                .find(|p| p.rank == rank)
                .map(|p| p.begin)
                .unwrap_or(span_begin)
        };

        let mut phases: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut segments = 0usize;
        let mut hops = 0usize;
        let mut t = end;
        let mut r = end_rank;
        // Per-rank high-water pointer into the (time-ordered) recv list:
        // each receive is consumed at most once, bounding the walk.
        let mut ptr: HashMap<usize, usize> = HashMap::new();
        loop {
            let floor = floor_of(r).min(t);
            let hi = *ptr.entry(r).or_insert(ranks[r].recvs.len());
            let pick = ranks[r].recvs[..hi]
                .iter()
                .enumerate()
                .rev()
                .find(|(_, m)| m.waited > 0.0 && m.at <= t && m.at > floor);
            let Some((idx, m)) = pick else {
                attribute_local(&ranks[r], floor, t, &mut phases, &mut segments);
                t = floor;
                break;
            };
            let m = m.clone();
            ptr.insert(r, idx);
            // Local compute after the receive completed.
            attribute_local(&ranks[r], m.at, t, &mut phases, &mut segments);
            let wait_start = (m.at - m.waited).max(floor);
            let wire_label = match &m.send {
                Some(s) if s.attempt > 0 => "retransmit",
                _ => "wire",
            };
            match m.send {
                Some(s) if s.at > wait_start && s.at < m.at => {
                    // The sender was the bottleneck: hop across the
                    // flight edge and continue on its timeline.
                    *phases.entry(wire_label).or_insert(0.0) += m.at - s.at;
                    *report.per_link.entry((s.rank, r)).or_insert(0.0) += m.at - s.at;
                    segments += 1;
                    hops += 1;
                    t = s.at;
                    r = s.rank;
                }
                _ => {
                    // The message was already (or unknowably) in flight
                    // when this rank started waiting: the residual wait
                    // is wire time and the path stays on this rank.
                    *phases.entry(wire_label).or_insert(0.0) += m.at - wait_start;
                    *report.per_link.entry((m.from, r)).or_insert(0.0) += m.at - wait_start;
                    segments += 1;
                    t = wait_start;
                }
            }
            if t <= span_begin && floor_of(r).min(t) >= t {
                // Bottomed out exactly on a span boundary.
                break;
            }
        }
        report.transfers.push(TransferPath {
            seq,
            occurrence,
            span_begin,
            start: t,
            end,
            end_rank,
            start_rank: r,
            hops,
            segments,
            phases,
        });
    }
    report
}

/// Load on one directed physical link of a [`Topology`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkLoad {
    /// Messages that crossed the link.
    pub msgs: u64,
    /// Payload bytes serialized through it.
    pub bytes: u64,
    /// Seconds the link spent serializing those bytes
    /// (`bytes * byte_wire_cost`).
    pub wire_secs: f64,
}

/// Fold every traced `Send` onto the physical links its route crossed,
/// producing the per-link load table of the run.  Self-sends and
/// crossbar worlds contribute nothing (no shared links).  The hottest
/// links are where a topology bottlenecks — compare against the same
/// traffic on [`Topology::Crossbar`] to see what the interconnect
/// shape costs.
pub fn attribute_links(
    traces: &[Vec<TraceEvent>],
    topo: Topology,
    model: &MachineModel,
) -> BTreeMap<LinkId, LinkLoad> {
    let mut out: BTreeMap<LinkId, LinkLoad> = BTreeMap::new();
    for (rank, tl) in traces.iter().enumerate() {
        for e in tl {
            if let TraceEvent::Send { to, bytes, .. } = e {
                for link in topo.route(rank, *to) {
                    let l = out.entry(link).or_default();
                    l.msgs += 1;
                    l.bytes += *bytes as u64;
                    l.wire_secs += *bytes as f64 * model.byte_wire_cost;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanId;
    use crate::tag::Tag;

    fn begin(at: f64, id: u64, parent: Option<u64>, phase: Phase, seq: Option<u64>) -> TraceEvent {
        TraceEvent::SpanBegin {
            at,
            id: SpanId::new(id),
            parent: parent.map(SpanId::new),
            phase,
            detail: seq.map_or("".into(), |seq| crate::note!("mode=test", seq = seq)),
        }
    }

    fn end(at: f64, id: u64) -> TraceEvent {
        TraceEvent::SpanEnd {
            at,
            id: SpanId::new(id),
        }
    }

    /// Two ranks: sender packs then sends at t=3 (arrival 5); receiver
    /// waits from t=1, recv completes at 5; commits until 6.
    fn two_rank_traces() -> Vec<Vec<TraceEvent>> {
        let tag = Tag::user(9);
        let sender = vec![
            begin(0.0, 1, None, Phase::Transfer, Some(1)),
            begin(0.0, 2, Some(1), Phase::Pack, None),
            end(3.0, 2),
            TraceEvent::Send {
                at: 3.0,
                to: 1,
                tag,
                bytes: 64,
                arrival: 5.0,
            },
            end(3.0, 1),
        ];
        let receiver = vec![
            begin(1.0, 1, None, Phase::Transfer, Some(1)),
            TraceEvent::Recv {
                at: 5.0,
                from: 0,
                tag,
                bytes: 64,
                waited: 4.0,
            },
            begin(5.0, 2, Some(1), Phase::Commit, None),
            end(6.0, 2),
            end(6.0, 1),
        ];
        vec![sender, receiver]
    }

    #[test]
    fn critical_path_hops_to_the_sender() {
        let report = analyze(&two_rank_traces());
        assert_eq!(report.transfers.len(), 1);
        let t = &report.transfers[0];
        assert_eq!(t.seq, 1);
        assert_eq!(t.end_rank, 1);
        assert_eq!(t.start_rank, 0);
        assert_eq!(t.hops, 1);
        // Path: commit [5,6] on rank 1, wire [3,5], pack [0,3] on rank 0.
        assert!((t.phases["commit"] - 1.0).abs() < 1e-12);
        assert!((t.phases["wire"] - 2.0).abs() < 1e-12);
        assert!((t.phases["pack"] - 3.0).abs() < 1e-12);
        assert_eq!(t.start, 0.0);
        assert_eq!(t.end, 6.0);
        report.self_check().expect("tiling holds");
        assert!((report.per_link[&(0, 1)] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn early_send_keeps_path_on_receiver() {
        // Sender posts at t=0 (arrival 2); the receiver only starts
        // waiting at t=3 after local stage work — the receiver is the
        // bottleneck and its own phases own the path.
        let tag = Tag::user(9);
        let traces = vec![
            vec![
                begin(0.0, 1, None, Phase::Transfer, Some(2)),
                TraceEvent::Send {
                    at: 0.0,
                    to: 1,
                    tag,
                    bytes: 8,
                    arrival: 2.0,
                },
                end(0.5, 1),
            ],
            vec![
                begin(0.0, 1, None, Phase::Transfer, Some(2)),
                begin(0.0, 2, Some(1), Phase::Stage, None),
                end(3.0, 2),
                TraceEvent::Recv {
                    at: 3.0,
                    from: 0,
                    tag,
                    bytes: 8,
                    waited: 0.0,
                },
                begin(3.0, 3, Some(1), Phase::Commit, None),
                end(4.0, 3),
                end(4.0, 1),
            ],
        ];
        let report = analyze(&traces);
        let t = &report.transfers[0];
        assert_eq!(t.hops, 0);
        assert!((t.phases["stage"] - 3.0).abs() < 1e-12);
        assert!((t.phases["commit"] - 1.0).abs() < 1e-12);
        assert!(!t.phases.contains_key("wire"));
        report.self_check().expect("tiling holds");
    }

    #[test]
    fn transfers_whose_notes_overflow_to_text_keep_their_seq() {
        // Values too large for the inline buffer turn both notes to text;
        // the two transfers must still group by their own seq.
        let big = u64::MAX;
        let transfer = |at: f64, id: u64, seq: u64| {
            let detail = crate::note!(
                "mode=send",
                seq = seq,
                te = big,
                elems = big,
                src_epoch = big
            );
            vec![
                TraceEvent::SpanBegin {
                    at,
                    id: SpanId::new(id),
                    parent: None,
                    phase: Phase::Transfer,
                    detail,
                },
                end(at + 1.0, id),
            ]
        };
        let traces = vec![[transfer(0.0, 1, 4), transfer(2.0, 2, 5)].concat()];
        let report = analyze(&traces);
        let seqs: Vec<u64> = report.transfers.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![4, 5]);
        report.self_check().expect("tiling holds");
    }

    #[test]
    fn matching_skips_dropped_copies_and_retransmits() {
        let tag = Tag::user(3);
        // Copy of seq 0 dropped, then retransmitted; seq 1 clean.
        let sender = vec![
            TraceEvent::Fault {
                at: 1.0,
                kind: FaultKind::Drop,
                to: 1,
                tag,
                bytes: 10,
            },
            TraceEvent::Send {
                at: 1.0,
                to: 1,
                tag,
                bytes: 10,
                arrival: 1.5,
            },
            TraceEvent::Retransmit {
                at: 2.0,
                to: 1,
                tag,
                seq: 0,
                attempt: 1,
            },
            TraceEvent::Send {
                at: 2.0,
                to: 1,
                tag,
                bytes: 10,
                arrival: 2.5,
            },
            TraceEvent::Send {
                at: 3.0,
                to: 1,
                tag,
                bytes: 10,
                arrival: 3.5,
            },
        ];
        let receiver = vec![
            TraceEvent::Recv {
                at: 2.5,
                from: 0,
                tag,
                bytes: 10,
                waited: 2.5,
            },
            TraceEvent::Recv {
                at: 3.5,
                from: 0,
                tag,
                bytes: 10,
                waited: 1.0,
            },
        ];
        let m = match_sends(&[sender, receiver]);
        let r = &m[1];
        assert_eq!(r.len(), 2);
        let s0 = r[0].send.expect("seq 0 matched");
        assert_eq!(
            s0.attempt, 1,
            "must match the retransmission, not the tombstone"
        );
        assert_eq!(s0.at, 2.0);
        let s1 = r[1].send.expect("seq 1 matched");
        assert_eq!(s1.attempt, 0);
        assert_eq!(s1.at, 3.0);
    }

    #[test]
    fn matching_dedupes_injected_duplicates() {
        let tag = Tag::user(3);
        let sender = vec![
            TraceEvent::Send {
                at: 1.0,
                to: 1,
                tag,
                bytes: 10,
                arrival: 1.5,
            },
            TraceEvent::Fault {
                at: 1.0,
                kind: FaultKind::Duplicate,
                to: 1,
                tag,
                bytes: 10,
            },
            TraceEvent::Send {
                at: 1.0,
                to: 1,
                tag,
                bytes: 10,
                arrival: 1.5,
            },
            TraceEvent::Send {
                at: 2.0,
                to: 1,
                tag,
                bytes: 10,
                arrival: 2.5,
            },
        ];
        let receiver = vec![
            TraceEvent::Recv {
                at: 1.5,
                from: 0,
                tag,
                bytes: 10,
                waited: 1.5,
            },
            TraceEvent::Recv {
                at: 2.5,
                from: 0,
                tag,
                bytes: 10,
                waited: 1.0,
            },
        ];
        let m = match_sends(&[sender, receiver]);
        let r = &m[1];
        // The second Recv is seq 1 and must match the t=2 send, not the
        // leftover duplicate copy of seq 0.
        assert_eq!(r[1].send.expect("matched").at, 2.0);
    }

    #[test]
    fn window_stall_overlay_relabels_wire_time() {
        let tag = Tag::user(5);
        let traces = vec![vec![
            begin(0.0, 1, None, Phase::Transfer, Some(4)),
            begin(0.0, 2, Some(1), Phase::Wire, None),
            TraceEvent::WindowStall {
                at: 1.0,
                to: 1,
                tag,
                inflight: 64,
                bytes: 1 << 20,
            },
            TraceEvent::WindowAdvance {
                at: 3.0,
                to: 1,
                tag,
                acked: 7,
                inflight: 0,
            },
            end(4.0, 2),
            end(4.0, 1),
        ]];
        let report = analyze(&traces);
        let t = &report.transfers[0];
        assert!((t.phases["window_stall"] - 2.0).abs() < 1e-12);
        assert!((t.phases["wire"] - 2.0).abs() < 1e-12);
        report.self_check().expect("tiling holds");
    }

    #[test]
    fn empty_trace_renders_gracefully() {
        let report = analyze(&[]);
        assert!(report.transfers.is_empty());
        assert!(report.self_check().is_ok());
        assert!(report.render().contains("no transfer spans"));
        assert!(report.dominant().is_none());
    }

    #[test]
    fn latency_quantiles_are_exact_order_statistics() {
        let path = |secs: f64| TransferPath {
            seq: 0,
            occurrence: 0,
            span_begin: 0.0,
            start: 0.0,
            end: secs,
            end_rank: 0,
            start_rank: 0,
            hops: 0,
            segments: 0,
            phases: BTreeMap::new(),
        };
        let report = CriticalPathReport {
            transfers: [3e-3, 10e-3, 1e-3, 2e-3].into_iter().map(path).collect(),
            ..CriticalPathReport::default()
        };
        assert_eq!(report.latency_quantile(0.50), 2e-3);
        assert_eq!(report.latency_quantile(0.99), 10e-3);
        assert_eq!(report.latency_quantile(1.0), 10e-3);
        assert_eq!(report.latency_quantile(0.0), 1e-3);
        assert_eq!(CriticalPathReport::default().latency_quantile(0.5), 0.0);
    }
}
