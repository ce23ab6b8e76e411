//! Communication schedules (paper §4.1.3–§4.1.4).
//!
//! A [`Schedule`] records, per rank, which local elements are sent to which
//! peers and which local elements receive from which peers — plus direct
//! local copies when a rank owns both ends of a pair.  Properties the paper
//! relies on, all upheld (and tested) here:
//!
//! * **aggregation** — at most one message per communicating pair, with
//!   buffer order equal on both sides (linearization order);
//! * **reusability** — a schedule moves data any number of times;
//! * **symmetry** — [`Schedule::reversed`] turns an A→B schedule into the
//!   B→A schedule at zero cost.
//!
//! Address lists are stored **run-length compressed** ([`AddrRuns`] /
//! [`PairRuns`]): regular-section transfers produce long stretches of
//! consecutive local addresses, so a schedule over millions of elements
//! collapses to a handful of `(start, len)` runs.  The executor exploits
//! the runs for contiguous slice copies; irregular (Chaos-style) transfers
//! degrade gracefully to one run per element.

use mcsim::error::SimError;
use mcsim::group::Group;
use mcsim::wire::{Wire, WireReader};

use crate::LocalAddr;

/// A run-length-compressed list of local addresses: maximal runs of
/// consecutive addresses stored as `(start, len)`.
///
/// Preserves order exactly — iterating yields the original address list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AddrRuns {
    runs: Vec<(LocalAddr, usize)>,
    total: usize,
}

impl AddrRuns {
    /// An empty list.
    pub fn new() -> Self {
        AddrRuns::default()
    }

    /// Append one address, merging into the last run when consecutive.
    #[inline]
    pub fn push(&mut self, addr: LocalAddr) {
        if let Some(last) = self.runs.last_mut() {
            if last.0 + last.1 == addr {
                last.1 += 1;
                self.total += 1;
                return;
            }
        }
        self.runs.push((addr, 1));
        self.total += 1;
    }

    /// Append a whole `(start, len)` run (merged if it continues the last).
    pub fn push_run(&mut self, start: LocalAddr, len: usize) {
        if len == 0 {
            return;
        }
        if let Some(last) = self.runs.last_mut() {
            if last.0 + last.1 == start {
                last.1 += len;
                self.total += len;
                return;
            }
        }
        self.runs.push((start, len));
        self.total += len;
    }

    /// Number of addresses (not runs).
    #[inline]
    pub fn len(&self) -> usize {
        self.total
    }

    /// True if no addresses are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The compressed `(start, len)` runs.
    #[inline]
    pub fn runs(&self) -> &[(LocalAddr, usize)] {
        &self.runs
    }

    /// Iterate the addresses in original order.
    pub fn iter(&self) -> impl Iterator<Item = LocalAddr> + '_ {
        self.runs.iter().flat_map(|&(s, l)| s..s + l)
    }

    /// Expand back to an explicit address list.
    pub fn to_vec(&self) -> Vec<LocalAddr> {
        let mut v = Vec::with_capacity(self.total);
        v.extend(self.iter());
        v
    }

    /// The sub-list covering addresses `[start, start + len)` of this
    /// list's original order — what one streamed part of a chunked
    /// transfer packs or unpacks.  O(runs), never materializes addresses.
    pub fn slice_elems(&self, start: usize, len: usize) -> AddrRuns {
        let mut out = AddrRuns::new();
        if len == 0 || start >= self.total {
            return out;
        }
        let want = len.min(self.total - start);
        let mut pos = 0usize;
        for &(s, l) in &self.runs {
            if pos + l <= start {
                pos += l;
                continue;
            }
            let skip = start.saturating_sub(pos);
            let take = (l - skip).min(want - out.len());
            out.push_run(s + skip, take);
            pos += l;
            if out.len() == want {
                break;
            }
        }
        out
    }

    /// Drop all but the first `keep` addresses (used by tests to corrupt a
    /// schedule; cheap because runs are ordered).
    pub fn truncate(&mut self, keep: usize) {
        if keep >= self.total {
            return;
        }
        let mut seen = 0usize;
        let mut cut = self.runs.len();
        for (i, run) in self.runs.iter_mut().enumerate() {
            if seen + run.1 >= keep {
                run.1 = keep - seen;
                cut = if run.1 == 0 { i } else { i + 1 };
                break;
            }
            seen += run.1;
        }
        self.runs.truncate(cut);
        self.total = keep;
    }
}

impl FromIterator<LocalAddr> for AddrRuns {
    fn from_iter<I: IntoIterator<Item = LocalAddr>>(iter: I) -> Self {
        let mut r = AddrRuns::new();
        for a in iter {
            r.push(a);
        }
        r
    }
}

impl Wire for AddrRuns {
    fn write(&self, out: &mut Vec<u8>) {
        self.runs.write(out);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        let runs = Vec::<(usize, usize)>::read(r)?;
        let mut total = 0usize;
        for &(start, len) in &runs {
            if len == 0 {
                return Err(SimError::Decode("empty address run".into()));
            }
            if start.checked_add(len).is_none() {
                return Err(SimError::Decode("address run overflows".into()));
            }
            total = total
                .checked_add(len)
                .ok_or_else(|| SimError::Decode("address run total overflows".into()))?;
        }
        Ok(AddrRuns { runs, total })
    }
}

/// Run-length-compressed `(source, destination)` address pairs for direct
/// local copies: maximal stretches where both sides advance consecutively,
/// stored as `(src_start, dst_start, len)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PairRuns {
    runs: Vec<(LocalAddr, LocalAddr, usize)>,
    total: usize,
}

impl PairRuns {
    /// An empty list.
    pub fn new() -> Self {
        PairRuns::default()
    }

    /// Append one pair, merging when both sides are consecutive.
    #[inline]
    pub fn push(&mut self, src: LocalAddr, dst: LocalAddr) {
        if let Some(last) = self.runs.last_mut() {
            if last.0 + last.2 == src && last.1 + last.2 == dst {
                last.2 += 1;
                self.total += 1;
                return;
            }
        }
        self.runs.push((src, dst, 1));
        self.total += 1;
    }

    /// Append a whole `(src_start, dst_start, len)` run where both sides
    /// advance consecutively (merged if it continues the last run).
    pub fn push_run(&mut self, src: LocalAddr, dst: LocalAddr, len: usize) {
        if len == 0 {
            return;
        }
        if let Some(last) = self.runs.last_mut() {
            if last.0 + last.2 == src && last.1 + last.2 == dst {
                last.2 += len;
                self.total += len;
                return;
            }
        }
        self.runs.push((src, dst, len));
        self.total += len;
    }

    /// Zip two equal-length address lists into pairs — the run-based
    /// inspector's way of forming the local-copy half without expanding to
    /// per-element pairs.  Walks both run lists in lockstep, emitting the
    /// overlap of each `(start, len)` chunk, so the result is exactly what
    /// per-element `push(src, dst)` over the zipped lists would produce.
    pub fn from_zip(srcs: &AddrRuns, dsts: &AddrRuns) -> PairRuns {
        assert_eq!(srcs.len(), dsts.len(), "zipped address lists must pair up");
        let mut out = PairRuns::new();
        let (sruns, druns) = (srcs.runs(), dsts.runs());
        let (mut si, mut di) = (0usize, 0usize);
        let (mut soff, mut doff) = (0usize, 0usize);
        while si < sruns.len() {
            let (ss, sl) = sruns[si];
            let (ds, dl) = druns[di];
            let take = (sl - soff).min(dl - doff);
            out.push_run(ss + soff, ds + doff, take);
            soff += take;
            doff += take;
            if soff == sl {
                si += 1;
                soff = 0;
            }
            if doff == dl {
                di += 1;
                doff = 0;
            }
        }
        out
    }

    /// Number of pairs (not runs).
    #[inline]
    pub fn len(&self) -> usize {
        self.total
    }

    /// True if no pairs are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The compressed `(src_start, dst_start, len)` runs.
    #[inline]
    pub fn runs(&self) -> &[(LocalAddr, LocalAddr, usize)] {
        &self.runs
    }

    /// Iterate the pairs in original order.
    pub fn iter(&self) -> impl Iterator<Item = (LocalAddr, LocalAddr)> + '_ {
        self.runs
            .iter()
            .flat_map(|&(s, d, l)| (0..l).map(move |k| (s + k, d + k)))
    }

    /// Expand back to an explicit pair list.
    pub fn to_vec(&self) -> Vec<(LocalAddr, LocalAddr)> {
        let mut v = Vec::with_capacity(self.total);
        v.extend(self.iter());
        v
    }

    /// The same pairs with source and destination swapped.
    pub fn swapped(&self) -> PairRuns {
        PairRuns {
            runs: self.runs.iter().map(|&(s, d, l)| (d, s, l)).collect(),
            total: self.total,
        }
    }
}

impl FromIterator<(LocalAddr, LocalAddr)> for PairRuns {
    fn from_iter<I: IntoIterator<Item = (LocalAddr, LocalAddr)>>(iter: I) -> Self {
        let mut r = PairRuns::new();
        for (s, d) in iter {
            r.push(s, d);
        }
        r
    }
}

impl Wire for PairRuns {
    fn write(&self, out: &mut Vec<u8>) {
        self.runs.write(out);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        let runs = Vec::<(usize, usize, usize)>::read(r)?;
        let mut total = 0usize;
        for &(s, d, l) in &runs {
            if l == 0 {
                return Err(SimError::Decode("empty pair run".into()));
            }
            if s.checked_add(l).is_none() || d.checked_add(l).is_none() {
                return Err(SimError::Decode("pair run overflows".into()));
            }
            total = total
                .checked_add(l)
                .ok_or_else(|| SimError::Decode("pair run total overflows".into()))?;
        }
        Ok(PairRuns { runs, total })
    }
}

/// A per-rank communication schedule over a (union) group of ranks.
///
/// `sends` / `recvs` are keyed by the peer's *local rank within
/// [`Schedule::group`]*, contain only non-empty transfers, and are sorted by
/// peer.  Address lists are in linearization order, which makes the packed
/// buffer order identical on the sending and receiving side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    group: Group,
    seq: u32,
    /// `(peer local rank, run-compressed local addresses to pack)`, sorted
    /// by peer.
    pub sends: Vec<(usize, AddrRuns)>,
    /// `(peer local rank, run-compressed local addresses to fill)`, sorted
    /// by peer.
    pub recvs: Vec<(usize, AddrRuns)>,
    /// Same-rank `(source address, destination address)` pairs, copied
    /// directly with no intermediate buffer (paper §5.3 contrasts this with
    /// Multiblock Parti's internal staging buffer).
    pub local_pairs: PairRuns,
    /// Total elements of the whole transfer (global, same on every rank).
    pub total_elems: usize,
    /// Distribution epoch of the source object at build time (0 for
    /// hand-built schedules; see [`crate::adapter::McObject::epoch`]).
    src_epoch: u64,
    /// Distribution epoch of the destination object at build time.
    dst_epoch: u64,
    /// Fingerprint of the element type the schedule was built for
    /// (0 = untyped/hand-built; see [`elem_type`]).
    elem_tag: u64,
    /// `size_of` the element type (0 = untyped/hand-built).
    elem_size: u32,
}

/// Fingerprint an element type for schedule integrity checks: an FNV-1a
/// hash of the type name plus the element size in bytes.  [`Schedule`]s
/// built by [`crate::build::compute_schedule`] carry this pair so
/// [`crate::validate_schedule`] and the transfer-manifest exchange can
/// detect two sides disagreeing about what a port carries.
pub fn elem_type<T>() -> (u64, u32) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in std::any::type_name::<T>().as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h, std::mem::size_of::<T>() as u32)
}

impl Schedule {
    /// Assemble a schedule from explicit per-element address lists (the
    /// shape the builders in [`crate::build`] naturally produce); lists are
    /// run-compressed here.
    pub fn new(
        group: Group,
        seq: u32,
        sends: Vec<(usize, Vec<LocalAddr>)>,
        recvs: Vec<(usize, Vec<LocalAddr>)>,
        local_pairs: Vec<(LocalAddr, LocalAddr)>,
        total_elems: usize,
    ) -> Self {
        let compress = |mut lists: Vec<(usize, Vec<LocalAddr>)>| -> Vec<(usize, AddrRuns)> {
            lists.retain(|(_, a)| !a.is_empty());
            lists.sort_by_key(|&(p, _)| p);
            lists
                .into_iter()
                .map(|(p, a)| (p, a.into_iter().collect()))
                .collect()
        };
        Schedule {
            group,
            seq,
            sends: compress(sends),
            recvs: compress(recvs),
            local_pairs: local_pairs.into_iter().collect(),
            total_elems,
            src_epoch: 0,
            dst_epoch: 0,
            elem_tag: 0,
            elem_size: 0,
        }
    }

    /// Assemble a schedule from already-compressed address lists (the shape
    /// the run-based builders produce) — no per-element pass happens here.
    /// Lists may arrive keyed by every peer; empty ones are dropped and the
    /// rest sorted by peer, mirroring [`Schedule::new`].
    pub fn from_runs(
        group: Group,
        seq: u32,
        sends: Vec<(usize, AddrRuns)>,
        recvs: Vec<(usize, AddrRuns)>,
        local_pairs: PairRuns,
        total_elems: usize,
    ) -> Self {
        let tidy = |mut lists: Vec<(usize, AddrRuns)>| -> Vec<(usize, AddrRuns)> {
            lists.retain(|(_, a)| !a.is_empty());
            lists.sort_by_key(|&(p, _)| p);
            lists
        };
        Schedule {
            group,
            seq,
            sends: tidy(sends),
            recvs: tidy(recvs),
            local_pairs,
            total_elems,
            src_epoch: 0,
            dst_epoch: 0,
            elem_tag: 0,
            elem_size: 0,
        }
    }

    /// Attach build-time integrity metadata: the distribution epochs of the
    /// source and destination objects and the element type fingerprint
    /// (see [`elem_type`]).  [`crate::build::compute_schedule`] calls this;
    /// hand-built schedules keep the zero defaults, which executors treat
    /// as "no integrity information" (legacy behavior).
    pub fn with_integrity(
        mut self,
        src_epoch: u64,
        dst_epoch: u64,
        elem_tag: u64,
        elem_size: u32,
    ) -> Self {
        self.src_epoch = src_epoch;
        self.dst_epoch = dst_epoch;
        self.elem_tag = elem_tag;
        self.elem_size = elem_size;
        self
    }

    /// Distribution epoch of the source object at build time.
    pub fn src_epoch(&self) -> u64 {
        self.src_epoch
    }

    /// Distribution epoch of the destination object at build time.
    pub fn dst_epoch(&self) -> u64 {
        self.dst_epoch
    }

    /// Element-type fingerprint the schedule was built for (0 = untyped).
    pub fn elem_tag(&self) -> u64 {
        self.elem_tag
    }

    /// Element size in bytes the schedule was built for (0 = untyped).
    pub fn elem_size(&self) -> u32 {
        self.elem_size
    }

    /// The union group the schedule communicates over.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// Build-time sequence number (disambiguates message streams when
    /// several schedules share a group).
    pub fn seq(&self) -> u32 {
        self.seq
    }

    /// The schedule for the opposite direction: what was sent is received
    /// and vice versa.  The paper's schedules are symmetric (§4.3); this is
    /// how the client/server experiment reuses one vector schedule for both
    /// the operand (client→server) and the result (server→client).
    pub fn reversed(&self) -> Schedule {
        Schedule {
            group: self.group.clone(),
            seq: self.seq,
            sends: self.recvs.clone(),
            recvs: self.sends.clone(),
            local_pairs: self.local_pairs.swapped(),
            total_elems: self.total_elems,
            src_epoch: self.dst_epoch,
            dst_epoch: self.src_epoch,
            elem_tag: self.elem_tag,
            elem_size: self.elem_size,
        }
    }

    /// Number of messages this rank sends when the schedule runs.
    pub fn msgs_out(&self) -> usize {
        self.sends.len()
    }

    /// Number of messages this rank receives when the schedule runs.
    pub fn msgs_in(&self) -> usize {
        self.recvs.len()
    }

    /// Elements this rank sends (excluding local copies).
    pub fn elems_out(&self) -> usize {
        self.sends.iter().map(|(_, a)| a.len()).sum()
    }

    /// Elements this rank receives (excluding local copies).
    pub fn elems_in(&self) -> usize {
        self.recvs.iter().map(|(_, a)| a.len()).sum()
    }

    /// Elements this rank copies locally.
    pub fn elems_local(&self) -> usize {
        self.local_pairs.len()
    }

    /// Total `(start, len)` runs across both halves — the executor's
    /// bookkeeping cost, which compression keeps far below element count
    /// for regular transfers.
    pub fn num_runs(&self) -> usize {
        self.sends
            .iter()
            .map(|(_, a)| a.runs().len())
            .sum::<usize>()
            + self
                .recvs
                .iter()
                .map(|(_, a)| a.runs().len())
                .sum::<usize>()
            + self.local_pairs.runs().len()
    }
}

impl Wire for Schedule {
    fn write(&self, out: &mut Vec<u8>) {
        // Group = (members, context).
        self.group.members().to_vec().write(out);
        self.group.context().write(out);
        self.seq.write(out);
        self.sends.write(out);
        self.recvs.write(out);
        self.local_pairs.write(out);
        self.total_elems.write(out);
        self.src_epoch.write(out);
        self.dst_epoch.write(out);
        self.elem_tag.write(out);
        self.elem_size.write(out);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        let members = Vec::<usize>::read(r)?;
        let ctx = u32::read(r)?;
        let seq = u32::read(r)?;
        let sends = Vec::<(usize, AddrRuns)>::read(r)?;
        let recvs = Vec::<(usize, AddrRuns)>::read(r)?;
        let local_pairs = PairRuns::read(r)?;
        let total_elems = usize::read(r)?;
        let src_epoch = u64::read(r)?;
        let dst_epoch = u64::read(r)?;
        let elem_tag = u64::read(r)?;
        let elem_size = u32::read(r)?;
        if members.is_empty() {
            return Err(SimError::Decode("schedule with empty group".into()));
        }
        if ctx < mcsim::tag::Tag::FIRST_USER_CTX {
            return Err(SimError::Decode(format!("reserved group context {ctx}")));
        }
        let mut uniq = members.clone();
        uniq.sort_unstable();
        uniq.dedup();
        if uniq.len() != members.len() {
            return Err(SimError::Decode("duplicate group members".into()));
        }
        Ok(Schedule {
            group: Group::new(members, ctx),
            seq,
            sends,
            recvs,
            local_pairs,
            total_elems,
            src_epoch,
            dst_epoch,
            elem_tag,
            elem_size,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        Schedule::new(
            Group::world(3),
            7,
            vec![(2, vec![5, 6]), (1, vec![0]), (0, vec![])],
            vec![(1, vec![9])],
            vec![(1, 2), (3, 4)],
            6,
        )
    }

    #[test]
    fn slice_elems_covers_in_order() {
        // Runs [10..13), [20..22), [30..31): addresses 10,11,12,20,21,30.
        let mut r = AddrRuns::new();
        r.push_run(10, 3);
        r.push_run(20, 2);
        r.push_run(30, 1);
        // Mid-run to mid-run slice.
        assert_eq!(r.slice_elems(1, 3).to_vec(), vec![11, 12, 20]);
        // Exact-run slice.
        assert_eq!(r.slice_elems(3, 2).to_vec(), vec![20, 21]);
        // Whole list; parts that tile it reassemble exactly.
        assert_eq!(r.slice_elems(0, 6), r);
        let mut tiled = AddrRuns::new();
        for part in 0..3 {
            for a in r.slice_elems(part * 2, 2).iter() {
                tiled.push(a);
            }
        }
        assert_eq!(tiled, r);
        // Over-length and out-of-range requests clamp.
        assert_eq!(r.slice_elems(4, 100).to_vec(), vec![21, 30]);
        assert!(r.slice_elems(6, 1).is_empty());
        assert!(r.slice_elems(0, 0).is_empty());
    }

    #[test]
    fn new_sorts_and_drops_empty() {
        let s = sample();
        assert_eq!(s.sends.len(), 2);
        assert_eq!(s.sends[0].0, 1);
        assert_eq!(s.sends[1].0, 2);
        assert_eq!(s.msgs_out(), 2);
        assert_eq!(s.msgs_in(), 1);
        assert_eq!(s.elems_out(), 3);
        assert_eq!(s.elems_in(), 1);
        assert_eq!(s.elems_local(), 2);
    }

    #[test]
    fn wire_roundtrip_preserves_everything() {
        use mcsim::wire::Wire;
        let s = sample();
        let b = s.to_bytes();
        let back = Schedule::from_bytes(&b).unwrap();
        assert_eq!(back, s);
        // Corrupt group decoding is rejected.
        let mut bad = Vec::new();
        Vec::<usize>::new().write(&mut bad);
        assert!(Schedule::from_bytes(&bad).is_err());
    }

    #[test]
    fn reversed_swaps_directions() {
        let s = sample();
        let r = s.reversed();
        assert_eq!(r.sends, s.recvs);
        assert_eq!(r.recvs, s.sends);
        assert_eq!(r.local_pairs.to_vec(), vec![(2, 1), (4, 3)]);
        assert_eq!(r.seq(), s.seq());
        // Double reversal is the identity.
        assert_eq!(r.reversed(), s);
    }

    #[test]
    fn runs_compress_contiguous_addresses() {
        let s = Schedule::new(
            Group::world(2),
            0,
            vec![(1, (100..1100).collect())],
            vec![(1, (0..500).chain(800..1300).collect())],
            (0..64).map(|k| (k, k + 4096)).collect(),
            1000,
        );
        assert_eq!(s.sends[0].1.runs(), &[(100, 1000)]);
        assert_eq!(s.recvs[0].1.runs(), &[(0, 500), (800, 500)]);
        assert_eq!(s.local_pairs.runs(), &[(0, 4096, 64)]);
        assert_eq!(s.elems_out(), 1000);
        assert_eq!(s.elems_in(), 1000);
        assert_eq!(s.elems_local(), 64);
        assert_eq!(s.num_runs(), 4);
    }

    #[test]
    fn addr_runs_truncate() {
        let mut r: AddrRuns = vec![0, 1, 2, 10, 11, 20].into_iter().collect();
        assert_eq!(r.runs().len(), 3);
        r.truncate(4);
        assert_eq!(r.to_vec(), vec![0, 1, 2, 10]);
        r.truncate(3);
        assert_eq!(r.to_vec(), vec![0, 1, 2]);
        r.truncate(100);
        assert_eq!(r.len(), 3);
        r.truncate(0);
        assert!(r.is_empty());
        assert!(r.runs().is_empty());
    }

    #[test]
    fn addr_runs_decode_rejects_corrupt() {
        use mcsim::wire::Wire;
        // Zero-length run.
        let bad = vec![(5usize, 0usize)];
        let mut b = Vec::new();
        bad.write(&mut b);
        assert!(AddrRuns::from_bytes(&b).is_err());
        // Overflowing run.
        let bad = vec![(usize::MAX, 2usize)];
        let mut b = Vec::new();
        bad.write(&mut b);
        assert!(AddrRuns::from_bytes(&b).is_err());
        // Valid roundtrip.
        let good: AddrRuns = vec![3, 4, 5, 9].into_iter().collect();
        assert_eq!(AddrRuns::from_bytes(&good.to_bytes()).unwrap(), good);
    }

    #[test]
    fn integrity_metadata_survives_wire_and_reversal() {
        let (tag, size) = elem_type::<f64>();
        assert_eq!(size, 8);
        assert_ne!(tag, 0);
        assert_ne!(elem_type::<f32>().0, tag);
        let s = sample().with_integrity(3, 9, tag, size);
        assert_eq!(s.src_epoch(), 3);
        assert_eq!(s.dst_epoch(), 9);
        assert_eq!(s.elem_tag(), tag);
        assert_eq!(s.elem_size(), size);
        // Reversal swaps the epochs, keeps the type.
        let r = s.reversed();
        assert_eq!(r.src_epoch(), 9);
        assert_eq!(r.dst_epoch(), 3);
        assert_eq!(r.elem_tag(), tag);
        // Wire roundtrip preserves everything.
        use mcsim::wire::Wire;
        assert_eq!(Schedule::from_bytes(&s.to_bytes()).unwrap(), s);
        // Hand-built schedules stay untyped.
        assert_eq!(sample().elem_tag(), 0);
        assert_eq!(sample().elem_size(), 0);
    }

    #[test]
    fn pair_runs_from_zip_matches_elementwise() {
        // Misaligned run boundaries on the two sides.
        let srcs: AddrRuns = vec![0, 1, 2, 3, 50, 51, 52, 9].into_iter().collect();
        let dsts: AddrRuns = vec![100, 101, 7, 8, 9, 10, 11, 12].into_iter().collect();
        let zipped = PairRuns::from_zip(&srcs, &dsts);
        let expected: PairRuns = srcs.iter().zip(dsts.iter()).collect();
        assert_eq!(zipped, expected);
        assert_eq!(zipped.len(), 8);
        // Empty zip.
        assert_eq!(
            PairRuns::from_zip(&AddrRuns::new(), &AddrRuns::new()),
            PairRuns::new()
        );
    }

    #[test]
    fn pair_runs_push_run_merges() {
        let mut a = PairRuns::new();
        a.push_run(0, 10, 3);
        a.push_run(3, 13, 2); // continues both sides
        a.push_run(9, 15, 1); // breaks
        a.push_run(0, 0, 0); // ignored
        let mut b = PairRuns::new();
        for (s, d) in [(0, 10), (1, 11), (2, 12), (3, 13), (4, 14), (9, 15)] {
            b.push(s, d);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn from_runs_matches_new() {
        let by_elems = sample();
        let runs_of = |v: Vec<LocalAddr>| -> AddrRuns { v.into_iter().collect() };
        let by_runs = Schedule::from_runs(
            Group::world(3),
            7,
            vec![
                (2, runs_of(vec![5, 6])),
                (1, runs_of(vec![0])),
                (0, AddrRuns::new()),
            ],
            vec![(1, runs_of(vec![9]))],
            PairRuns::from_zip(&runs_of(vec![1, 3]), &runs_of(vec![2, 4])),
            6,
        );
        assert_eq!(by_runs, by_elems);
    }

    #[test]
    fn pair_runs_swapped() {
        let p: PairRuns = vec![(0, 10), (1, 11), (2, 12), (7, 3)]
            .into_iter()
            .collect();
        assert_eq!(
            p.swapped().to_vec(),
            vec![(10, 0), (11, 1), (12, 2), (3, 7)]
        );
    }
}
