//! Run-length descriptions of dereferenced elements (the inspector's
//! working currency).
//!
//! Reasoning about one `(position, address)` pair per element is pure
//! overhead for regular array sections, because a section row is a
//! closed-form arithmetic progression.  An [`OwnedRun`]
//! captures such a progression — `len` consecutive linearization positions
//! starting at `pos`, whose local addresses start at `addr` and advance by
//! `stride` — so a million-element section collapses to a handful of runs
//! and schedule construction becomes O(regions), not O(elements).
//!
//! Irregular (Chaos-style) data degrades gracefully: the coalescing
//! [`RunBuilder`] emits length-1 runs whenever nothing merges, and the
//! builders then do per-element work.
//!
//! Only **stride-1** runs map onto the executor's contiguous [`AddrRuns`]
//! compression; other strides are expanded element by element at emission
//! ([`OwnedRun::emit_addrs`]), so a schedule lists addresses in position
//! order whatever the run shapes were.

use crate::schedule::AddrRuns;
use crate::LocalAddr;

/// `len` consecutive linearization positions owned by the calling rank,
/// with local addresses in arithmetic progression.
///
/// Position `pos + k` (for `k < len`) lives at local address
/// `addr + k * stride`.  A length-1 run's `stride` carries no information
/// (builders normalize it to 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwnedRun {
    /// First linearization position covered.
    pub pos: usize,
    /// Number of consecutive positions covered (>= 1).
    pub len: usize,
    /// Local address of the element at `pos`.
    pub addr: LocalAddr,
    /// Signed address step between consecutive positions.
    pub stride: isize,
}

impl OwnedRun {
    /// One past the last position covered.
    #[inline]
    pub fn end(&self) -> usize {
        self.pos + self.len
    }

    /// Local address of the `k`-th covered element.
    #[inline]
    pub fn addr_at(&self, k: usize) -> LocalAddr {
        debug_assert!(k < self.len);
        (self.addr as isize + self.stride * k as isize) as LocalAddr
    }

    /// Append the addresses of covered elements `k0 .. k0 + count` to an
    /// executor address list: one `(start, len)` run for stride 1, one
    /// address per element otherwise.
    pub fn emit_addrs(&self, k0: usize, count: usize, out: &mut AddrRuns) {
        debug_assert!(k0 + count <= self.len);
        if self.stride == 1 {
            out.push_run(self.addr_at(k0), count);
        } else {
            for k in k0..k0 + count {
                out.push(self.addr_at(k));
            }
        }
    }
}

/// An [`OwnedRun`] plus the owning rank — what a descriptor's
/// [`locate_run`](crate::adapter::McDescriptor::locate_run) answers during
/// the duplication build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocatedRun {
    /// First linearization position covered.
    pub pos: usize,
    /// Number of consecutive positions covered (>= 1).
    pub len: usize,
    /// Owning global rank (as in [`Location`](crate::adapter::Location)).
    pub rank: usize,
    /// Local address of the element at `pos` on the owner.
    pub addr: LocalAddr,
    /// Signed address step between consecutive positions.
    pub stride: isize,
}

impl LocatedRun {
    /// The length-1 run of the element at `pos`, which lives on `rank` at
    /// `addr`.
    pub fn single(pos: usize, rank: usize, addr: LocalAddr) -> Self {
        let stride = 1;
        LocatedRun {
            pos,
            len: 1,
            rank,
            addr,
            stride,
        }
    }

    /// One past the last position covered.
    #[inline]
    pub fn end(&self) -> usize {
        self.pos + self.len
    }

    /// Local address of the `k`-th covered element.
    #[inline]
    pub fn addr_at(&self, k: usize) -> LocalAddr {
        debug_assert!(k < self.len);
        (self.addr as isize + self.stride * k as isize) as LocalAddr
    }

    /// As [`OwnedRun::emit_addrs`], over the owner's addresses.
    pub fn emit_addrs(&self, k0: usize, count: usize, out: &mut AddrRuns) {
        debug_assert!(k0 + count <= self.len);
        if self.stride == 1 {
            out.push_run(self.addr_at(k0), count);
        } else {
            for k in k0..k0 + count {
                out.push(self.addr_at(k));
            }
        }
    }

    /// Absorb `next` when it continues this run (same owner, adjacent
    /// positions, addresses in one arithmetic progression).  Returns false
    /// when nothing merged.
    pub fn try_merge(&mut self, next: &LocatedRun) -> bool {
        if next.rank != self.rank || next.pos != self.end() {
            return false;
        }
        let step = next.addr as isize - self.addr_at(self.len - 1) as isize;
        let step_ok = if self.len == 1 {
            true
        } else {
            step == self.stride
        };
        let next_ok = next.len == 1 || next.stride == step;
        if !step_ok || !next_ok {
            return false;
        }
        if self.len == 1 {
            self.stride = step;
        }
        self.len += next.len;
        true
    }
}

/// Builds maximal [`OwnedRun`]s from `(position, address)` pairs arriving
/// in ascending position order (adopting whatever address stride the data
/// exhibits — including 0 and negative steps).
#[derive(Debug, Default)]
pub struct RunBuilder {
    runs: Vec<OwnedRun>,
}

impl RunBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        RunBuilder::default()
    }

    /// An empty builder with room for `runs` runs — at most one per
    /// element pushed, so an element count never lets it grow.
    pub fn with_capacity(runs: usize) -> Self {
        RunBuilder {
            runs: Vec::with_capacity(runs),
        }
    }

    /// Append one element, extending the last run when it continues it.
    pub fn push(&mut self, pos: usize, addr: LocalAddr) {
        if let Some(last) = self.runs.last_mut() {
            if pos == last.end() {
                let step = addr as isize - last.addr_at(last.len - 1) as isize;
                if last.len == 1 {
                    last.stride = step;
                    last.len = 2;
                    return;
                }
                if step == last.stride {
                    last.len += 1;
                    return;
                }
                // Canary for the fuzz harness (`RUSTFLAGS="--cfg
                // fuzz_canary"`): absorb the element even though its
                // address breaks the run's stride progression — a silent
                // wrong-address coalescing bug with totals intact, which
                // only the differential oracles can see.
                #[cfg(fuzz_canary)]
                {
                    last.len += 1;
                    return;
                }
            }
        }
        self.runs.push(OwnedRun {
            pos,
            len: 1,
            addr,
            stride: 1,
        });
    }

    /// Append a whole run, merging with the last when it continues it with
    /// the same stride.
    pub fn push_run(&mut self, pos: usize, len: usize, addr: LocalAddr, stride: isize) {
        if len == 0 {
            return;
        }
        if len == 1 {
            self.push(pos, addr);
            return;
        }
        if let Some(last) = self.runs.last_mut() {
            if pos == last.end() {
                let step = addr as isize - last.addr_at(last.len - 1) as isize;
                if step == stride && (last.len == 1 || last.stride == stride) {
                    last.stride = stride;
                    last.len += len;
                    return;
                }
            }
        }
        self.runs.push(OwnedRun {
            pos,
            len,
            addr,
            stride,
        });
    }

    /// The accumulated runs (sorted, disjoint when input positions were).
    pub fn finish(self) -> Vec<OwnedRun> {
        self.runs
    }
}

/// Total elements covered by a run list.
pub fn runs_total(runs: &[OwnedRun]) -> usize {
    runs.iter().map(|r| r.len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coalesce_owned(pairs: &[(usize, LocalAddr)]) -> Vec<OwnedRun> {
        let mut b = RunBuilder::new();
        for &(pos, addr) in pairs {
            b.push(pos, addr);
        }
        b.finish()
    }

    #[test]
    fn coalesce_contiguous_and_strided() {
        // addresses 10,11,12 then 20,22,24 then a singleton.
        let pairs = vec![(0, 10), (1, 11), (2, 12), (3, 20), (4, 22), (5, 24), (9, 7)];
        let runs = coalesce_owned(&pairs);
        assert_eq!(
            runs,
            vec![
                OwnedRun {
                    pos: 0,
                    len: 3,
                    addr: 10,
                    stride: 1
                },
                OwnedRun {
                    pos: 3,
                    len: 3,
                    addr: 20,
                    stride: 2
                },
                OwnedRun {
                    pos: 9,
                    len: 1,
                    addr: 7,
                    stride: 1
                },
            ]
        );
        assert_eq!(runs_total(&runs), 7);
        // Round trip: expanding reproduces the input exactly.
        let mut expanded = Vec::new();
        for r in &runs {
            for k in 0..r.len {
                expanded.push((r.pos + k, r.addr_at(k)));
            }
        }
        assert_eq!(expanded, pairs);
    }

    #[test]
    fn coalesce_negative_and_zero_strides() {
        let runs = coalesce_owned(&[(0, 30), (1, 29), (2, 28), (3, 5), (4, 5)]);
        assert_eq!(
            runs,
            vec![
                OwnedRun {
                    pos: 0,
                    len: 3,
                    addr: 30,
                    stride: -1
                },
                OwnedRun {
                    pos: 3,
                    len: 2,
                    addr: 5,
                    stride: 0
                },
            ]
        );
        assert_eq!(runs[0].addr_at(2), 28);
        assert_eq!(runs[1].addr_at(1), 5);
    }

    #[test]
    fn position_gaps_break_runs() {
        let runs = coalesce_owned(&[(0, 0), (2, 1)]);
        assert_eq!(runs.len(), 2);
    }

    #[test]
    fn push_run_merges_when_continuing() {
        let mut b = RunBuilder::new();
        b.push_run(0, 4, 100, 1);
        b.push_run(4, 4, 104, 1); // continues
        b.push_run(8, 2, 300, 1); // address gap
        b.push_run(10, 3, 302, 1); // continues
        b.push_run(13, 0, 999, 1); // empty: ignored
        let runs = b.finish();
        assert_eq!(
            runs,
            vec![
                OwnedRun {
                    pos: 0,
                    len: 8,
                    addr: 100,
                    stride: 1
                },
                OwnedRun {
                    pos: 8,
                    len: 5,
                    addr: 300,
                    stride: 1
                },
            ]
        );
    }

    #[test]
    fn push_run_after_singleton_adopts_stride() {
        let mut b = RunBuilder::new();
        b.push(0, 10);
        b.push_run(1, 3, 13, 3);
        assert_eq!(
            b.finish(),
            vec![OwnedRun {
                pos: 0,
                len: 4,
                addr: 10,
                stride: 3
            }]
        );
    }

    #[test]
    fn emit_addrs_stride1_vs_other() {
        let r = OwnedRun {
            pos: 5,
            len: 6,
            addr: 40,
            stride: 1,
        };
        let mut out = AddrRuns::new();
        r.emit_addrs(1, 4, &mut out); // addrs 41..45
        assert_eq!(out.runs(), &[(41, 4)]);

        let r = OwnedRun {
            pos: 0,
            len: 4,
            addr: 9,
            stride: -3,
        };
        let mut out = AddrRuns::new();
        r.emit_addrs(0, 4, &mut out); // 9, 6, 3, 0
        assert_eq!(out.to_vec(), vec![9, 6, 3, 0]);
    }

    #[test]
    fn located_run_merge() {
        let mut a = LocatedRun {
            pos: 0,
            len: 1,
            rank: 2,
            addr: 10,
            stride: 1,
        };
        assert!(a.try_merge(&LocatedRun {
            pos: 1,
            len: 1,
            rank: 2,
            addr: 12,
            stride: 1
        }));
        assert_eq!((a.len, a.stride), (2, 2));
        assert!(a.try_merge(&LocatedRun {
            pos: 2,
            len: 2,
            rank: 2,
            addr: 14,
            stride: 2
        }));
        assert_eq!(a.len, 4);
        // Different owner: no merge.
        assert!(!a.try_merge(&LocatedRun {
            pos: 4,
            len: 1,
            rank: 3,
            addr: 16,
            stride: 1
        }));
        // Position gap: no merge.
        assert!(!a.try_merge(&LocatedRun {
            pos: 9,
            len: 1,
            rank: 2,
            addr: 16,
            stride: 1
        }));
        // Wrong step: no merge.
        assert!(!a.try_merge(&LocatedRun {
            pos: 4,
            len: 1,
            rank: 2,
            addr: 99,
            stride: 1
        }));
    }
}
