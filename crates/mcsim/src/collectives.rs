//! Collective operations over a [`Comm`].
//!
//! All collectives are built from the point-to-point layer, so their virtual
//! cost reflects real message counts: barrier is a dissemination exchange
//! (⌈log₂ P⌉ rounds), broadcast is a binomial tree, gather/reduce are linear
//! into the root, and `alltoallv` is a direct pairwise exchange — the
//! communication patterns Meta-Chaos schedule construction uses.
//!
//! SPMD discipline: every member of the group must call the same sequence of
//! collectives (as with MPI communicators); per-sender FIFO delivery then
//! guarantees matching.

use crate::group::Comm;
use crate::message::Body;
use crate::tag::Tag;
use crate::wire::Wire;

/// Opcodes distinguishing collective message streams.
mod op {
    pub(super) const BARRIER: u32 = 1;
    pub(super) const BCAST: u32 = 2;
    pub(super) const GATHER: u32 = 3;
    pub(super) const ALLTOALLV: u32 = 5;
}

fn coll_tag(group_ctx: u32, opcode: u32) -> Tag {
    Tag::new(Tag::COLL_CTX, (group_ctx << 4) | opcode)
}

/// Largest `k` with `2^k <= x` (x > 0).
fn highest_bit(x: usize) -> u32 {
    usize::BITS - 1 - x.leading_zeros()
}

impl Comm<'_> {
    /// Dissemination barrier: every rank returns only after every rank
    /// entered.
    pub fn barrier(&mut self) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let me = self.rank();
        let t = coll_tag(self.group().context(), op::BARRIER);
        let mut k = 1;
        while k < p {
            let to = self.group().global((me + k) % p);
            let from = self.group().global((me + p - k) % p);
            self.ep().send(to, t, Vec::new());
            self.ep().recv_body(from, t);
            k <<= 1;
        }
    }

    /// Binomial-tree broadcast.  The root passes `Some(value)`, everyone
    /// else `None`; all return the value.
    ///
    /// The value is encoded once, at the root: an inner node decodes what
    /// it received and forwards *that body*.  A value that fits inline is
    /// copied envelope to envelope; otherwise every child but the last
    /// gets a pooled copy and the last gets the buffer itself.
    pub fn bcast_t<T: Wire>(&mut self, root: usize, value: Option<T>) -> T {
        let p = self.size();
        let me = self.rank();
        assert!(root < p, "bcast root out of range");
        if me == root {
            assert!(value.is_some(), "root must supply the broadcast value");
        }
        let t = coll_tag(self.group().context(), op::BCAST);
        let rel = (me + p - root) % p;
        let (v, mut body): (T, Body) = if rel == 0 {
            let v = value.expect("checked above");
            // A one-rank group has nobody to encode for.
            let body = if p > 1 {
                self.ep().encode(&v)
            } else {
                Body::Data(Vec::new())
            };
            (v, body)
        } else {
            let parent_rel = rel - (1 << highest_bit(rel));
            let parent = self.group().global((parent_rel + root) % p);
            let body = self.ep().recv_body(parent, t);
            let v = T::from_bytes(body.bytes().expect("a data body")).expect("bcast decode");
            (v, body)
        };
        let mut k = if rel == 0 { 0 } else { highest_bit(rel) + 1 };
        loop {
            let child_rel = rel + (1usize << k);
            if child_rel >= p {
                break;
            }
            let child = self.group().global((child_rel + root) % p);
            let last = rel + (1usize << (k + 1)) >= p;
            let copy = if last {
                std::mem::replace(&mut body, Body::Data(Vec::new()))
            } else if let Body::Data(bytes) = &body {
                let mut copy = self.ep().take_buf();
                copy.extend_from_slice(bytes);
                Body::Data(copy)
            } else {
                body.clone()
            };
            self.ep().send_body(child, t, copy);
            k += 1;
        }
        // A leaf forwarded nothing: its receive buffer feeds the pool, as
        // `recv_t` would have done.
        self.ep().recycle_body(body);
        v
    }

    /// Gather one value per rank into the root (ordered by local rank).
    /// Returns `Some(all values)` at the root, `None` elsewhere.
    pub fn gather_t<T: Wire>(&mut self, root: usize, value: T) -> Option<Vec<T>> {
        let p = self.size();
        let me = self.rank();
        assert!(root < p, "gather root out of range");
        let t = coll_tag(self.group().context(), op::GATHER);
        if me == root {
            let mut out: Vec<Option<T>> = (0..p).map(|_| None).collect();
            out[root] = Some(value);
            for from in 0..p {
                if from == root {
                    continue;
                }
                let g = self.group().global(from);
                out[from] = Some(self.ep().recv_t(g, t));
            }
            Some(out.into_iter().map(|o| o.expect("filled")).collect())
        } else {
            let g = self.group().global(root);
            self.ep().send_t(g, t, &value);
            None
        }
    }

    /// Gather to rank 0 then broadcast: every rank gets every value.
    pub fn allgather_t<T: Wire>(&mut self, value: T) -> Vec<T> {
        let gathered = self.gather_t(0, value);
        self.bcast_t(0, gathered)
    }

    /// Reduce with a binary fold at rank 0, then broadcast the result.
    pub fn allreduce_t<T: Wire, F: Fn(T, T) -> T>(&mut self, value: T, fold: F) -> T {
        let gathered = self.gather_t(0, value);
        let folded = gathered.map(|vs| {
            let mut it = vs.into_iter();
            let first = it.next().expect("non-empty group");
            it.fold(first, &fold)
        });
        self.bcast_t(0, folded)
    }

    /// Sum across ranks.
    pub fn allreduce_sum<T>(&mut self, value: T) -> T
    where
        T: Wire + std::ops::Add<Output = T>,
    {
        self.allreduce_t(value, |a, b| a + b)
    }

    /// Maximum of an `f64` across ranks.
    pub fn allreduce_max_f64(&mut self, value: f64) -> f64 {
        self.allreduce_t(value, f64::max)
    }

    /// Maximum of a `usize` across ranks.
    pub fn allreduce_max_usize(&mut self, value: usize) -> usize {
        self.allreduce_t(value, usize::max)
    }

    /// Direct pairwise exchange of per-destination byte buffers.
    ///
    /// `send[d]` goes to local rank `d`; returns `recv[s]` = buffer from
    /// local rank `s`.  The self entry is moved without a message (its copy
    /// cost is still charged).  Empty buffers are exchanged too — receivers
    /// cannot otherwise know nothing is coming.
    pub fn alltoallv_bytes(&mut self, mut send: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let p = self.size();
        let me = self.rank();
        assert_eq!(send.len(), p, "alltoallv needs one buffer per rank");
        let t = coll_tag(self.group().context(), op::ALLTOALLV);
        let self_part = std::mem::take(&mut send[me]);
        for off in 1..p {
            let to = (me + off) % p;
            let g = self.group().global(to);
            let buf = std::mem::take(&mut send[to]);
            self.ep().send(g, t, buf);
        }
        let mut recv: Vec<Vec<u8>> = (0..p).map(|_| Vec::new()).collect();
        self.ep().charge_copy_bytes(self_part.len());
        recv[me] = self_part;
        for off in 1..p {
            let from = (me + p - off) % p;
            let g = self.group().global(from);
            recv[from] = self.ep().recv(g, t);
        }
        recv
    }

    /// Typed alltoallv: one `Vec<T>` per destination, returns one per source.
    /// The messages, order and charges of [`Comm::alltoallv_bytes`] over the
    /// encoded parts, each encoded by `send_t` and decoded by `recv_t`; the
    /// self part moves, charged at its encoded size.
    pub fn alltoallv_t<T: Wire>(&mut self, mut send: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let p = self.size();
        let me = self.rank();
        assert_eq!(send.len(), p, "alltoallv needs one buffer per rank");
        let t = coll_tag(self.group().context(), op::ALLTOALLV);
        for off in 1..p {
            let to = (me + off) % p;
            let g = self.group().global(to);
            self.ep().send_t(g, t, &send[to]);
        }
        let mut recv: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        let mut buf = self.ep().take_buf();
        send[me].write(&mut buf);
        self.ep().charge_copy_bytes(buf.len());
        self.ep().recycle_buf(buf);
        recv[me] = std::mem::take(&mut send[me]);
        for off in 1..p {
            let from = (me + p - off) % p;
            let g = self.group().global(from);
            recv[from] = self.ep().recv_t(g, t);
        }
        recv
    }

    /// Synchronize virtual clocks: every rank's clock becomes the maximum
    /// entry clock (plus the synchronization traffic itself).  Returns that
    /// maximum — the canonical "phase boundary" time used by the harness.
    pub fn sync_clocks(&mut self) -> f64 {
        let entry = self.clock();
        let m = self.allreduce_max_f64(entry);
        self.ep().advance_to(m);
        m
    }
}

/// Per-destination buckets for [`Comm::alltoallv_t`] from `(destination,
/// record)` items.  `items` is walked twice: once to count each
/// destination's records, once to fill buckets allocated at exactly that
/// size — so no bucket ever grows, however the records are spread.
pub fn per_peer<T, I>(p: usize, items: I) -> Vec<Vec<T>>
where
    I: Iterator<Item = (usize, T)> + Clone,
{
    let mut counts = vec![0usize; p];
    for (to, _) in items.clone() {
        counts[to] += 1;
    }
    let mut out: Vec<Vec<T>> = counts.into_iter().map(Vec::with_capacity).collect();
    for (to, v) in items {
        out[to].push(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::group::Comm;
    use crate::model::MachineModel;
    use crate::world::World;

    fn zero_world(p: usize) -> World {
        World::with_model(p, MachineModel::zero())
    }

    #[test]
    fn barrier_completes_all_sizes() {
        for p in [1, 2, 3, 4, 7, 8] {
            zero_world(p).run(|ep| {
                let mut c = Comm::world(ep);
                c.barrier();
                c.barrier();
            });
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for p in [1, 2, 3, 5, 8] {
            for root in 0..p {
                zero_world(p).run(move |ep| {
                    let mut c = Comm::world(ep);
                    let v = if c.rank() == root {
                        Some(vec![root as u64, 42])
                    } else {
                        None
                    };
                    let got = c.bcast_t(root, v);
                    assert_eq!(got, vec![root as u64, 42]);
                });
            }
        }
    }

    #[test]
    fn gather_orders_by_local_rank() {
        zero_world(5).run(|ep| {
            let mut c = Comm::world(ep);
            let got = c.gather_t(2, c.rank() as u32 * 10);
            if c.rank() == 2 {
                assert_eq!(got.unwrap(), vec![0, 10, 20, 30, 40]);
            } else {
                assert!(got.is_none());
            }
        });
    }

    #[test]
    fn allgather_everyone_sees_everything() {
        zero_world(4).run(|ep| {
            let mut c = Comm::world(ep);
            let got = c.allgather_t((c.rank(), c.rank() as f64));
            assert_eq!(got, vec![(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0)]);
        });
    }

    #[test]
    fn allreduce_sum_and_max() {
        zero_world(6).run(|ep| {
            let mut c = Comm::world(ep);
            let s: u64 = c.allreduce_sum(c.rank() as u64);
            assert_eq!(s, 15);
            let m = c.allreduce_max_f64(c.rank() as f64 * 1.5);
            assert_eq!(m, 7.5);
            let mu = c.allreduce_max_usize(100 - c.rank());
            assert_eq!(mu, 100);
        });
    }

    #[test]
    fn alltoallv_permutes_correctly() {
        zero_world(4).run(|ep| {
            let mut c = Comm::world(ep);
            let me = c.rank();
            // send[d] = [me, d]
            let send: Vec<Vec<u64>> = (0..4).map(|d| vec![me as u64, d as u64]).collect();
            let recv = c.alltoallv_t(send);
            for (s, buf) in recv.iter().enumerate() {
                assert_eq!(buf, &vec![s as u64, me as u64]);
            }
        });
    }

    #[test]
    fn per_peer_buckets_are_exact_and_ordered() {
        let items = [(2usize, 'a'), (0, 'b'), (2, 'c'), (2, 'd')];
        let b = super::per_peer(4, items.iter().copied());
        assert_eq!(b, vec![vec!['b'], vec![], vec!['a', 'c', 'd'], vec![]]);
        assert!(b.iter().all(|v| v.capacity() == v.len()));
    }

    #[test]
    fn alltoallv_with_empty_buffers() {
        zero_world(3).run(|ep| {
            let mut c = Comm::world(ep);
            let me = c.rank();
            // Only rank 0 sends anything, and only to rank 2.
            let send: Vec<Vec<u8>> = (0..3)
                .map(|d| {
                    if me == 0 && d == 2 {
                        vec![9, 9]
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            let recv = c.alltoallv_bytes(send);
            if me == 2 {
                assert_eq!(recv[0], vec![9, 9]);
            }
            assert!(recv
                .iter()
                .enumerate()
                .all(|(s, b)| { (me == 2 && s == 0) || b.is_empty() }));
        });
    }

    #[test]
    fn sync_clocks_equalizes() {
        let world = World::with_model(3, MachineModel::zero());
        let out = world.run(|ep| {
            ep.charge(ep.rank() as f64);
            let mut c = Comm::world(ep);
            let m = c.sync_clocks();
            assert_eq!(m, 2.0);
            ep.clock()
        });
        assert!(out.results.iter().all(|&c| c >= 2.0));
    }

    #[test]
    fn barrier_costs_log_rounds() {
        let world = World::with_model(8, MachineModel::sp2());
        let out = world.run(|ep| {
            let mut c = Comm::world(ep);
            c.barrier();
            ep.clock()
        });
        let m = MachineModel::sp2();
        let per_round = m.send_cost(0) + m.transit(0) + m.recv_cost(0);
        // 3 dissemination rounds for P=8; clocks accumulate at most a small
        // multiple of that (skew from waiting on slower partners).
        assert!(out.elapsed >= 3.0 * m.transit(0));
        assert!(out.elapsed <= 10.0 * per_round);
    }
}

#[cfg(test)]
mod bcast_parity_tests {
    use super::{coll_tag, highest_bit, op};
    use crate::group::Comm;
    use crate::model::MachineModel;
    use crate::wire::Wire;
    use crate::world::{RunOutput, World};

    /// The broadcast as it was before the encode-once change: every node
    /// decodes with `recv_t` and re-encodes the value for each child.
    fn bcast_reencode<T: Wire>(c: &mut Comm<'_>, root: usize, value: Option<T>) -> T {
        let p = c.size();
        let t = coll_tag(c.group().context(), op::BCAST);
        let rel = (c.rank() + p - root) % p;
        let v: T = if rel == 0 {
            value.expect("root supplies the value")
        } else {
            let parent_rel = rel - (1 << highest_bit(rel));
            let parent = c.group().global((parent_rel + root) % p);
            c.ep().recv_t(parent, t)
        };
        let mut k = if rel == 0 { 0 } else { highest_bit(rel) + 1 };
        while rel + (1usize << k) < p {
            let child = c.group().global((rel + (1usize << k) + root) % p);
            c.ep().send_t(child, t, &v);
            k += 1;
        }
        v
    }

    type Table = Vec<Vec<(u32, u32)>>;

    /// A payload shaped like the Chaos table allgather: per-rank slices of
    /// fixed-size records, with an empty and an odd-length one.
    fn table(root: usize) -> Table {
        (0..4u32)
            .map(|s| (0..s * 3 % 7).map(|i| (root as u32 + i, s ^ i)).collect())
            .collect()
    }

    fn run<T: Send>(p: usize, f: impl Fn(&mut Comm<'_>) -> T + Send + Sync) -> RunOutput<T> {
        World::with_model(p, MachineModel::sp2()).run(move |ep| {
            let mut c = Comm::world(ep);
            f(&mut c)
        })
    }

    fn assert_same<T: PartialEq + std::fmt::Debug>(a: &RunOutput<T>, b: &RunOutput<T>, what: &str) {
        assert_eq!(a.results, b.results, "{what}: values");
        assert_eq!(a.clocks, b.clocks, "{what}: per-rank clocks");
        assert_eq!(a.stats.msgs, b.stats.msgs, "{what}: message matrix");
        assert_eq!(a.stats.bytes, b.stats.bytes, "{what}: byte matrix");
    }

    #[test]
    fn bcast_and_allgather_match_per_child_reencode() {
        for p in [1, 2, 3, 5, 8, 13] {
            for root in 0..p {
                let mine = move |c: &Comm<'_>| (c.rank() == root).then(|| table(root));
                let new = run(p, |c| c.bcast_t(root, mine(c)));
                let old = run(p, |c| bcast_reencode(c, root, mine(c)));
                assert!(new.results.iter().all(|v| *v == table(root)));
                assert_same(&new, &old, &format!("bcast p={p} root={root}"));
                if p > 1 {
                    assert!(new.stats.total_bytes() > 0 && new.elapsed > 0.0);
                }
            }
            // allgather = gather to 0 + bcast from 0; ranks enter skewed.
            let skewed = |c: &mut Comm<'_>| -> Vec<(u32, u32)> {
                let me = c.rank();
                c.ep().charge_flops(1000 * me);
                (0..me as u32 % 4).map(|i| (me as u32, i)).collect()
            };
            let new = run(p, |c| {
                let v = skewed(c);
                c.allgather_t(v)
            });
            let old = run(p, |c| {
                let v = skewed(c);
                let gathered = c.gather_t(0, v);
                bcast_reencode(c, 0, gathered)
            });
            assert_same(&new, &old, &format!("allgather p={p}"));
        }
    }
}

#[cfg(test)]
mod property_tests {
    use crate::group::Comm;
    use crate::model::MachineModel;
    use crate::rng::Rng;
    use crate::world::World;

    /// Collectives must agree with their sequential definitions for
    /// seeded-random group sizes and values (deterministic loop, no
    /// external property-testing framework).
    #[test]
    fn collectives_match_sequential() {
        let mut rng = Rng::seed_from_u64(0x5eed);
        for _case in 0..16 {
            let p = 1 + rng.gen_range(5);
            let vals: Vec<i64> = (0..6).map(|_| rng.gen_range(2000) as i64 - 1000).collect();
            let root = rng.gen_range(p);
            let vals2 = vals.clone();
            let world = World::with_model(p, MachineModel::zero());
            let out = world.run(move |ep| {
                let mut c = Comm::world(ep);
                let mine = vals2[c.rank()];
                let sum: i64 = c.allreduce_sum(mine);
                let gathered = c.gather_t(root, mine);
                let bcast = c.bcast_t(root, if c.rank() == root { Some(mine) } else { None });
                let all = c.allgather_t(mine);
                (sum, gathered, bcast, all)
            });
            let want: Vec<i64> = vals.iter().take(p).copied().collect();
            let want_sum: i64 = want.iter().sum();
            for (r, (sum, gathered, bcast, all)) in out.results.into_iter().enumerate() {
                assert_eq!(sum, want_sum);
                assert_eq!(bcast, want[root]);
                assert_eq!(&all, &want);
                if r == root {
                    assert_eq!(gathered, Some(want.clone()));
                } else {
                    assert_eq!(gathered, None);
                }
            }
        }
    }

    /// alltoallv is a transpose of the send matrix.
    #[test]
    fn alltoallv_transposes() {
        for p in 1usize..5 {
            for seed in [0u64, 1, 17, 42, 99] {
                let world = World::with_model(p, MachineModel::zero());
                world.run(move |ep| {
                    let mut c = Comm::world(ep);
                    let me = c.rank();
                    let send: Vec<Vec<u64>> = (0..p)
                        .map(|d| {
                            let len = ((seed as usize + me * 3 + d) % 4) + 1;
                            (0..len).map(|k| (me * 1000 + d * 10 + k) as u64).collect()
                        })
                        .collect();
                    let recv = c.alltoallv_t(send);
                    for (s, buf) in recv.iter().enumerate() {
                        let len = ((seed as usize + s * 3 + me) % 4) + 1;
                        let want: Vec<u64> =
                            (0..len).map(|k| (s * 1000 + me * 10 + k) as u64).collect();
                        assert_eq!(buf, &want, "from {s}");
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod inline_parity_tests {
    use crate::export::jsonl_events;
    use crate::group::Comm;
    use crate::message::INLINE_MAX;
    use crate::model::MachineModel;
    use crate::wire::Wire;
    use crate::world::World;

    /// Part lengths whose encodings (an 8-byte length prefix, then one
    /// byte per element) are the empty vector's, under, exactly at and one
    /// past the inline limit, and large.
    const LENS: [usize; 5] = [0, 3, INLINE_MAX - 8, INLINE_MAX - 7, 300];

    fn part(src: usize, dst: usize) -> Vec<u8> {
        let n = LENS[(src + 2 * dst) % LENS.len()];
        (0..n).map(|i| (src * 31 + dst * 7 + i) as u8).collect()
    }

    /// `alltoallv_t` encodes each part into its envelope and decodes it
    /// from there; the wire must not notice.  Every rank's self part takes
    /// a different length, so the charged self copy is covered too.
    #[test]
    fn alltoallv_t_matches_alltoallv_bytes_across_the_inline_limit() {
        let p = LENS.len();
        let run = |typed: bool| {
            World::with_model(p, MachineModel::sp2())
                .with_trace()
                .run(move |ep| {
                    let mut c = Comm::world(ep);
                    let send: Vec<Vec<u8>> = (0..p).map(|d| part(c.rank(), d)).collect();
                    if typed {
                        return c.alltoallv_t(send);
                    }
                    let bytes = send.iter().map(Wire::to_bytes).collect();
                    let recv = c.alltoallv_bytes(bytes);
                    recv.iter().map(|b| Vec::from_bytes(b).unwrap()).collect()
                })
        };
        let (typed, bytes) = (run(true), run(false));
        for (me, got) in typed.results.iter().enumerate() {
            assert!((0..p).all(|s| got[s] == part(s, me)), "rank {me}");
        }
        assert_eq!(typed.results, bytes.results);
        assert_eq!(typed.clocks, bytes.clocks);
        assert_eq!(typed.stats.msgs, bytes.stats.msgs);
        assert_eq!(typed.stats.bytes, bytes.stats.bytes);
        assert_eq!(jsonl_events(&typed.traces), jsonl_events(&bytes.traces));
        let sizes: Vec<u64> = typed.stats.bytes.iter().flatten().copied().collect();
        assert!(sizes.contains(&(INLINE_MAX as u64)) && sizes.contains(&(INLINE_MAX as u64 + 1)));
    }
}
