//! Linearization arithmetic (paper §4.1.2).
//!
//! The linearization ℓ maps a [`SetOfRegions`](crate::SetOfRegions) to an
//! abstract total order of its elements; ℓ⁻¹ maps positions back.  It is
//! **virtual**: no storage is ever allocated for it.  What the runtime does
//! need is to *partition* positions among processors during schedule
//! construction — the block partition below assigns position `p` of a
//! length-`n` linearization to coordinator `p / ceil(n/P)`.

use crate::runs::OwnedRun;

/// Block partition of `0..total` positions over `parts` coordinators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PosBlocks {
    total: usize,
    parts: usize,
    block: usize,
}

impl PosBlocks {
    /// Partition `total` positions over `parts` coordinators.
    pub fn new(total: usize, parts: usize) -> Self {
        assert!(parts > 0, "need at least one part");
        let block = if total == 0 { 1 } else { total.div_ceil(parts) };
        PosBlocks {
            total,
            parts,
            block,
        }
    }

    /// Coordinator responsible for position `pos`.
    #[inline]
    pub fn owner(&self, pos: usize) -> usize {
        debug_assert!(pos < self.total, "position {pos} of {}", self.total);
        (pos / self.block).min(self.parts - 1)
    }

    /// The half-open range of positions coordinated by `part`.
    pub fn range(&self, part: usize) -> std::ops::Range<usize> {
        let lo = (part * self.block).min(self.total);
        let hi = ((part + 1) * self.block).min(self.total);
        lo..hi
    }

    /// Number of positions coordinated by `part`.
    pub fn size_of(&self, part: usize) -> usize {
        let r = self.range(part);
        r.end - r.start
    }

    /// Total positions.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Split a sorted, disjoint run list at coordinator block boundaries:
    /// entry `part` of the result holds `piece(start, len)` for each piece
    /// of a run inside block `part`, in position order.  This is the only
    /// fragmentation the run-based inspector introduces on the announce
    /// wire: a run crossing `k` block boundaries becomes `k + 1` pieces,
    /// and a run inside one block stays whole.  Blocks are consecutive, so
    /// each block's pieces come from one stretch of the list: every bucket
    /// is allocated once, at its final size, with no per-run division.
    pub(crate) fn split_runs<T>(
        &self,
        runs: &[OwnedRun],
        piece: impl Fn(usize, usize) -> T,
    ) -> Vec<Vec<T>> {
        debug_assert!(runs.last().is_none_or(|r| r.end() <= self.total));
        let mut rest = runs;
        (0..self.parts)
            .map(|part| {
                let block = self.range(part);
                let n = rest.partition_point(|r| r.pos < block.end);
                let pieces = rest[..n].iter().map(|r| {
                    let lo = r.pos.max(block.start);
                    piece(lo, r.end().min(block.end) - lo)
                });
                let pieces = pieces.collect();
                // A run reaching past this block continues into the next.
                let straddles = n > 0 && rest[n - 1].end() > block.end;
                rest = &rest[n - usize::from(straddles)..];
                pieces
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_everything_once() {
        for total in [0usize, 1, 7, 16, 100] {
            for parts in [1usize, 2, 3, 8, 16] {
                let pb = PosBlocks::new(total, parts);
                let mut covered = vec![0u32; total];
                for part in 0..parts {
                    for p in pb.range(part) {
                        assert_eq!(pb.owner(p), part, "total={total} parts={parts} p={p}");
                        covered[p] += 1;
                    }
                }
                assert!(covered.iter().all(|&c| c == 1));
            }
        }
    }

    #[test]
    fn ranges_are_contiguous_and_ordered() {
        let pb = PosBlocks::new(10, 4);
        let mut next = 0;
        for part in 0..4 {
            let r = pb.range(part);
            assert_eq!(r.start, next);
            next = r.end;
        }
        assert_eq!(next, 10);
    }

    #[test]
    fn more_parts_than_positions() {
        let pb = PosBlocks::new(2, 5);
        assert_eq!(pb.size_of(0), 1);
        assert_eq!(pb.size_of(1), 1);
        assert_eq!(pb.size_of(2), 0);
        assert_eq!(pb.owner(1), 1);
    }

    /// Runs at `(pos, len)` with addresses of no interest here.
    fn runs(spans: &[(usize, usize)]) -> Vec<OwnedRun> {
        let run = |&(pos, len): &(usize, usize)| OwnedRun {
            pos,
            len,
            addr: 0,
            stride: 1,
        };
        spans.iter().map(run).collect()
    }

    fn split(pb: &PosBlocks, spans: &[(usize, usize)]) -> Vec<Vec<(usize, usize)>> {
        pb.split_runs(&runs(spans), |start, len| (start, len))
    }

    #[test]
    fn split_runs_empty_linearization() {
        // n = 0: no positions, so no runs — and every block is empty.
        assert_eq!(split(&PosBlocks::new(0, 4), &[]), vec![vec![]; 4]);
    }

    #[test]
    fn split_runs_more_parts_than_positions() {
        // p > n: blocks are single positions, so every element of the run
        // lands on its own coordinator.
        let got = split(&PosBlocks::new(3, 8), &[(0, 3)]);
        let mut want = vec![vec![]; 8];
        for pos in 0..3 {
            want[pos] = vec![(pos, 1)];
        }
        assert_eq!(got, want);
    }

    #[test]
    fn split_runs_spanning_many_blocks() {
        // A run crossing 3+ coordinator blocks splits exactly at block
        // boundaries (blocks of 4: [0,4) [4,8) [8,12) [12,16)).
        let got = split(&PosBlocks::new(16, 4), &[(2, 13)]);
        assert_eq!(
            got,
            vec![vec![(2, 2)], vec![(4, 4)], vec![(8, 4)], vec![(12, 3)]]
        );
    }

    #[test]
    fn split_runs_single_element_runs() {
        // Stride-degenerate (length-1) runs: one piece each, owned
        // correctly, including in the ragged last block.
        let pb = PosBlocks::new(10, 4); // blocks of 3: last block is {9}
        let spans: Vec<(usize, usize)> = (0..10).map(|pos| (pos, 1)).collect();
        let got = split(&pb, &spans);
        for pos in 0..10 {
            assert!(got[pb.owner(pos)].contains(&(pos, 1)), "pos {pos}");
        }
        assert_eq!(got.iter().map(Vec::len).sum::<usize>(), 10);
    }

    #[test]
    fn split_runs_within_one_block_stays_whole() {
        let got = split(&PosBlocks::new(100, 4), &[(26, 20)]); // blocks of 25
        assert_eq!(got, vec![vec![], vec![(26, 20)], vec![], vec![]]);
    }

    #[test]
    fn split_runs_matches_per_position_owners() {
        // Gaps, straddling runs and runs ending on a boundary, against the
        // owner of every covered position.
        let spans = [(0, 2), (3, 9), (12, 1), (13, 3), (20, 7), (29, 1)];
        for parts in [1, 2, 3, 7, 30, 40] {
            let pb = PosBlocks::new(30, parts);
            let got = split(&pb, &spans);
            assert_eq!(got.len(), parts);
            for (part, pieces) in got.iter().enumerate() {
                let covered: Vec<usize> = pieces.iter().flat_map(|&(s, l)| s..s + l).collect();
                let want: Vec<usize> = spans
                    .iter()
                    .flat_map(|&(s, l)| s..s + l)
                    .filter(|&pos| pb.owner(pos) == part)
                    .collect();
                assert_eq!(covered, want, "parts {parts} part {part}");
                assert!(pieces.iter().all(|&(_, l)| l > 0));
            }
        }
    }
}
