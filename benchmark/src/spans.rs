//! Benchmark-side host spans: one span around every call into a layer,
//! recorded from the benchmark's own files, kept in memory, and written
//! out as JSONL when the traced run ends.
//!
//! Every rank records its own spans (name, rank, iteration id, parent,
//! host start/end, virtual start/end, and the rank's message/byte
//! counters at both ends); the untraced run passes a disabled recorder
//! and [`Rec::scope`] is a plain call.

use std::time::Instant;

use mcsim::prelude::Endpoint;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `build.coop` or `datamove.put`.
    pub name: &'static str,
    /// Recording rank.
    pub rank: usize,
    /// Iteration id (warm-up iterations included, 0-based).
    pub iter: u64,
    /// Index of this span in the rank's span list.
    pub id: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Host nanoseconds since the trial epoch.
    pub host0: u64,
    pub host1: u64,
    /// Virtual seconds on the recording rank's clock.
    pub virt0: f64,
    pub virt1: f64,
    /// Messages / payload bytes this rank sent inside the span.
    pub msgs: u64,
    pub bytes: u64,
}

impl SpanRec {
    /// Host duration in nanoseconds.
    pub fn host_ns(&self) -> u64 {
        self.host1 - self.host0
    }
}

/// Per-rank span recorder.
pub struct Rec {
    on: bool,
    rank: usize,
    epoch: Instant,
    /// Current iteration id, set by the iteration driver.
    pub iter: u64,
    stack: Vec<usize>,
    /// `(msgs, bytes)` at the begin of each open span.
    open_counts: Vec<(u64, u64)>,
    spans: Vec<SpanRec>,
}

impl Rec {
    /// A recorder for `rank`; `on == false` records nothing.
    pub fn new(on: bool, rank: usize, epoch: Instant) -> Self {
        Rec {
            on,
            rank,
            epoch,
            iter: 0,
            stack: Vec::new(),
            open_counts: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Host nanoseconds since the trial epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn scope<R>(
        &mut self,
        ep: &mut Endpoint,
        name: &'static str,
        f: impl FnOnce(&mut Endpoint, &mut Rec) -> R,
    ) -> R {
        if !self.on {
            return f(ep, self);
        }
        let id = self.begin(ep, name);
        let out = f(ep, self);
        self.end(ep, id);
        out
    }

    /// Open a span (prefer [`Rec::scope`]); returns its id for [`Rec::end`].
    pub fn begin(&mut self, ep: &Endpoint, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        let snap = ep.stats_snapshot();
        self.open_counts
            .push((snap.total_msgs(), snap.total_bytes()));
        let now = self.now_ns();
        self.spans.push(SpanRec {
            name,
            rank: self.rank,
            iter: self.iter,
            id,
            parent: self.stack.last().copied(),
            host0: now,
            host1: now,
            virt0: ep.clock(),
            virt1: ep.clock(),
            msgs: 0,
            bytes: 0,
        });
        self.stack.push(id);
        id
    }

    /// Close the span opened by [`Rec::begin`].
    pub fn end(&mut self, ep: &Endpoint, id: usize) {
        if !self.on {
            return;
        }
        let top = self.stack.pop().expect("span stack underflow");
        assert_eq!(top, id, "spans must close innermost-first");
        let (m0, b0) = self.open_counts.pop().expect("open span counters");
        let snap = ep.stats_snapshot();
        let now = self.now_ns();
        let s = &mut self.spans[id];
        s.host1 = now;
        s.virt1 = ep.clock();
        s.msgs = snap.total_msgs() - m0;
        s.bytes = snap.total_bytes() - b0;
    }

    /// Everything recorded so far.
    pub fn into_spans(self) -> Vec<SpanRec> {
        assert!(self.stack.is_empty(), "unclosed benchmark span");
        self.spans
    }
}

/// Self time of every span of one rank's list: host duration minus the
/// part its direct children cover.  Indexed like `spans`.
pub fn self_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(SpanRec::host_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.host_ns());
        }
    }
    own
}

/// Render all ranks' spans as JSONL in the `mcsim::export` conventions:
/// one flat object per line with the `rank`/`type`/`at` core (`at` is the
/// span's virtual start, nine decimals), then the span fields.
pub fn jsonl<'a>(per_rank: impl IntoIterator<Item = &'a [SpanRec]>) -> String {
    let mut out = String::new();
    for spans in per_rank {
        let own = self_ns(spans);
        for (s, self_ns) in spans.iter().zip(own) {
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"rank\":{},\"at\":{:.9},\"type\":\"bench_span\",\"name\":\"{}\",\
                 \"iter\":{},\"id\":{},\"parent\":{},\"host_start_ns\":{},\"host_end_ns\":{},\
                 \"self_ns\":{},\"virt_start\":{:.9},\"virt_end\":{:.9},\"msgs\":{},\"bytes\":{}}}\n",
                s.rank,
                s.virt0,
                s.name,
                s.iter,
                s.id,
                parent,
                s.host0,
                s.host1,
                self_ns,
                s.virt0,
                s.virt1,
                s.msgs,
                s.bytes
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, host0: u64, host1: u64) -> SpanRec {
        SpanRec {
            name: "t",
            rank: 0,
            iter: 0,
            id,
            parent,
            host0,
            host1,
            virt0: 0.0,
            virt1: 0.0,
            msgs: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..100 > a 10..40 > b 20..30, and root > c 50..90.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 50, 90),
        ];
        assert_eq!(self_ns(&spans), vec![30, 20, 10, 40]);
        assert_eq!(self_ns(&spans).iter().sum::<u64>(), 100);
        let text = jsonl([&spans[..]]);
        assert_eq!(text.lines().count(), 4);
        assert!(text.lines().all(|l| l.starts_with("{\"rank\":0,\"at\":")));
        assert!(text.contains("\"parent\":-1") && text.contains("\"self_ns\":30"));
    }
}
