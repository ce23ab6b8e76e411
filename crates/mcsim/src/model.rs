//! Machine cost models for the virtual clock.
//!
//! The model is the classic postal/LogGP-style decomposition: a message of
//! `n` bytes costs the sender `send_overhead + n * byte_copy_cost` of CPU
//! time, travels for `latency + n * byte_wire_cost`, and costs the receiver
//! `recv_overhead + n * byte_copy_cost`.  Computation is charged explicitly
//! by the runtime libraries through [`crate::endpoint::Endpoint::charge`]
//! using the per-element costs below.
//!
//! Two presets bracket the paper's testbeds:
//!
//! * [`MachineModel::sp2`] — 16-node IBM SP2 with MPL (Tables 1–5),
//! * [`MachineModel::alpha_farm_atm`] — DEC Alpha SMP farm on an ATM
//!   Gigaswitch via PVM/UDP (Figures 10–15): much higher latency and
//!   per-message overhead, comparable bandwidth, faster CPUs.
//!
//! Absolute values are period-plausible rather than exact; the reproduction
//! only claims the *shape* of the results.

/// Cost parameters of the simulated machine (all in seconds, per unit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineModel {
    /// Wire latency per message.
    pub latency: f64,
    /// CPU time the sender spends per message (software overhead).
    pub send_overhead: f64,
    /// CPU time the receiver spends per message.
    pub recv_overhead: f64,
    /// Wire time per payload byte (1 / bandwidth).
    pub byte_wire_cost: f64,
    /// CPU time per payload byte for packing/copying at either end.
    pub byte_copy_cost: f64,
    /// Time per floating-point operation in modeled numeric kernels.
    pub flop_cost: f64,
    /// Time per element for a *distributed-directory* probe answered at a
    /// translation-table owner (hashing, request processing — the Chaos
    /// dereference path the paper identifies as dominant).
    pub deref_local_cost: f64,
    /// Time per element for a closed-form owner computation (block/cyclic
    /// arithmetic in Parti/HPF-style libraries) — orders of magnitude
    /// cheaper than a table probe.
    pub owner_calc_cost: f64,
    /// Time per element for an extra level of indirect memory access
    /// (Chaos-style `x[ia[i]]`).
    pub indirect_cost: f64,
    /// Time per element for building/inserting into schedule data structures.
    pub schedule_insert_cost: f64,
}

impl MachineModel {
    /// 16-node IBM SP2 with the MPL message layer (the Tables 1–5 testbed).
    pub fn sp2() -> Self {
        MachineModel {
            latency: 40e-6,
            send_overhead: 30e-6,
            recv_overhead: 30e-6,
            byte_wire_cost: 1.0 / 34e6,
            byte_copy_cost: 1.0 / 180e6,
            flop_cost: 1.0 / 55e6,
            deref_local_cost: 8.0e-6,
            owner_calc_cost: 0.3e-6,
            indirect_cost: 0.12e-6,
            schedule_insert_cost: 0.3e-6,
        }
    }

    /// DEC Alpha farm on an OC-3 ATM Gigaswitch, PVM/UDP transport (the
    /// client/server testbed of Figures 10–15).
    pub fn alpha_farm_atm() -> Self {
        MachineModel {
            latency: 500e-6,
            send_overhead: 450e-6,
            recv_overhead: 450e-6,
            byte_wire_cost: 1.0 / 12e6,
            byte_copy_cost: 1.0 / 250e6,
            flop_cost: 1.0 / 1.5e6,
            deref_local_cost: 6.0e-6,
            owner_calc_cost: 0.25e-6,
            indirect_cost: 0.4e-6,
            schedule_insert_cost: 0.25e-6,
        }
    }

    /// A zero-cost model: virtual time never advances.  Useful in unit tests
    /// that only care about data correctness.
    pub fn zero() -> Self {
        MachineModel {
            latency: 0.0,
            send_overhead: 0.0,
            recv_overhead: 0.0,
            byte_wire_cost: 0.0,
            byte_copy_cost: 0.0,
            flop_cost: 0.0,
            deref_local_cost: 0.0,
            owner_calc_cost: 0.0,
            indirect_cost: 0.0,
            schedule_insert_cost: 0.0,
        }
    }

    /// Sender-side CPU cost of a message of `bytes` payload bytes.
    #[inline]
    pub fn send_cost(&self, bytes: usize) -> f64 {
        self.send_overhead + bytes as f64 * self.byte_copy_cost
    }

    /// Wire transit time for `bytes` payload bytes.
    #[inline]
    pub fn transit(&self, bytes: usize) -> f64 {
        self.latency + bytes as f64 * self.byte_wire_cost
    }

    /// Receiver-side CPU cost of a message of `bytes` payload bytes.
    #[inline]
    pub fn recv_cost(&self, bytes: usize) -> f64 {
        self.recv_overhead + bytes as f64 * self.byte_copy_cost
    }
}

impl Default for MachineModel {
    fn default() -> Self {
        MachineModel::sp2()
    }
}

// ---------------------------------------------------------------------------
// Topology-aware network: routes, per-link serialization, contention.
// ---------------------------------------------------------------------------

/// A node in the network graph: hosts are ranks; switches exist only in
/// indirect topologies (fat tree).
pub type NodeId = u32;

/// A directed link between two [`NodeId`]s.
pub type LinkId = (NodeId, NodeId);

/// Fat-tree node-id bases: leaf switches live at `LEAF_BASE + l`, root
/// switches at `ROOT_BASE + r`, so they never collide with host ids
/// (ranks are capped far below either).
const LEAF_BASE: NodeId = 0x4000_0000;
const ROOT_BASE: NodeId = 0x8000_0000;

/// The interconnect shape of the simulated machine.
///
/// [`Topology::Crossbar`] is the legacy model — every pair of ranks has a
/// private full-bandwidth path, so a message's transit is exactly
/// [`MachineModel::transit`] and no link state is kept.  The other shapes
/// route each message over shared directed links: every hop serializes
/// `bytes * byte_wire_cost` on its link (store-and-forward) and pays one
/// [`MachineModel::latency`], and a busy link queues the message until it
/// frees — contention charged on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Fully connected, contention-free (the legacy single-hop model).
    Crossbar,
    /// 2-D torus of `cols * rows` nodes: rank `r` sits at grid position
    /// `(r % cols, r / cols)` and messages route dimension-order (x first,
    /// then y), taking the shorter wraparound direction in each dimension.
    Torus2D { cols: usize, rows: usize },
    /// Two-level fat tree: hosts attach `down` per leaf switch, and each
    /// (src, dst) pair hashes statically onto one of `up` root switches
    /// (`(src + dst) % up`), modeling a thin spine whose uplinks carry the
    /// cross-leaf load.
    FatTree { down: usize, up: usize },
}

impl Topology {
    /// The directed links a message from rank `src` to rank `dst`
    /// traverses, in order.  Empty for self-sends and for the crossbar
    /// (no shared links — the caller falls back to the closed-form
    /// transit).
    pub fn route(&self, src: usize, dst: usize) -> Vec<LinkId> {
        if src == dst {
            return Vec::new();
        }
        match *self {
            Topology::Crossbar => Vec::new(),
            Topology::Torus2D { cols, rows } => {
                assert!(cols > 0 && rows > 0, "degenerate torus");
                let at = |x: usize, y: usize| (y * cols + x) as NodeId;
                let (mut x, mut y) = (src % cols, src / cols);
                let (dx, dy) = (dst % cols, dst / cols);
                assert!(y < rows && dy < rows, "rank off the torus");
                let mut links = Vec::new();
                while x != dx {
                    let fwd = (dx + cols - x) % cols; // hops going +x
                    let nx = if fwd <= cols - fwd {
                        (x + 1) % cols
                    } else {
                        (x + cols - 1) % cols
                    };
                    links.push((at(x, y), at(nx, y)));
                    x = nx;
                }
                while y != dy {
                    let fwd = (dy + rows - y) % rows;
                    let ny = if fwd <= rows - fwd {
                        (y + 1) % rows
                    } else {
                        (y + rows - 1) % rows
                    };
                    links.push((at(x, y), at(x, ny)));
                    y = ny;
                }
                links
            }
            Topology::FatTree { down, up } => {
                assert!(down > 0 && up > 0, "degenerate fat tree");
                let sleaf = LEAF_BASE + (src / down) as NodeId;
                let dleaf = LEAF_BASE + (dst / down) as NodeId;
                if sleaf == dleaf {
                    return vec![(src as NodeId, sleaf), (sleaf, dst as NodeId)];
                }
                let root = ROOT_BASE + ((src + dst) % up) as NodeId;
                vec![
                    (src as NodeId, sleaf),
                    (sleaf, root),
                    (root, dleaf),
                    (dleaf, dst as NodeId),
                ]
            }
        }
    }

    /// Number of links a `src -> dst` message crosses.
    pub fn hops(&self, src: usize, dst: usize) -> usize {
        match *self {
            Topology::Crossbar => usize::from(src != dst),
            _ => self.route(src, dst).len(),
        }
    }

    /// Whether every rank of a `size`-rank world has a seat.
    pub fn fits(&self, size: usize) -> bool {
        match *self {
            Topology::Crossbar | Topology::FatTree { .. } => true,
            Topology::Torus2D { cols, rows } => size <= cols * rows,
        }
    }
}

/// Mutable network state of one run: when each directed link next frees.
///
/// Shared by every endpoint of a world (behind a mutex); deterministic
/// because exactly one rank executes at a time (see [`crate::sched`]) and
/// so charges links in a deterministic total order.
#[derive(Debug)]
pub struct NetState {
    topo: Topology,
    /// Virtual time each link is serialized through.
    free_at: std::collections::HashMap<LinkId, f64>,
    /// Total seconds messages spent queued behind busy links.
    pub queued: f64,
}

impl NetState {
    pub fn new(topo: Topology) -> Self {
        NetState {
            topo,
            free_at: std::collections::HashMap::new(),
            queued: 0.0,
        }
    }

    /// The topology this state models.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Arrival time of a `bytes`-byte message departing `src` for `dst`
    /// at virtual time `depart`, store-and-forward over the route.  Each
    /// hop waits for its link to free (queuing charged to `queued`),
    /// serializes the payload, then pays one hop latency.  Self-sends and
    /// crossbar routes fall back to the closed-form transit.
    pub fn transit(
        &mut self,
        m: &MachineModel,
        src: usize,
        dst: usize,
        bytes: usize,
        depart: f64,
    ) -> f64 {
        let links = self.topo.route(src, dst);
        if links.is_empty() {
            return depart + m.transit(bytes);
        }
        let ser = bytes as f64 * m.byte_wire_cost;
        let mut t = depart;
        for l in links {
            let free = self.free_at.get(&l).copied().unwrap_or(0.0);
            let start = t.max(free);
            self.queued += start - t;
            self.free_at.insert(l, start + ser);
            t = start + ser + m.latency;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_positive() {
        for m in [MachineModel::sp2(), MachineModel::alpha_farm_atm()] {
            assert!(m.latency > 0.0);
            assert!(m.byte_wire_cost > 0.0);
            assert!(m.flop_cost > 0.0);
        }
    }

    #[test]
    fn atm_farm_has_higher_latency_than_sp2() {
        // The figures' shapes rely on the ATM/PVM path being message-cost
        // dominated relative to the SP2's switch.
        assert!(MachineModel::alpha_farm_atm().latency > MachineModel::sp2().latency);
        assert!(MachineModel::alpha_farm_atm().send_overhead > MachineModel::sp2().send_overhead);
    }

    #[test]
    fn cost_helpers_scale_with_bytes() {
        let m = MachineModel::sp2();
        assert!(m.send_cost(1000) > m.send_cost(0));
        assert!(m.transit(1000) > m.transit(0));
        assert!(m.recv_cost(1000) > m.recv_cost(0));
        assert_eq!(m.transit(0), m.latency);
    }

    #[test]
    fn zero_model_is_free() {
        let m = MachineModel::zero();
        assert_eq!(m.send_cost(1 << 20), 0.0);
        assert_eq!(m.transit(1 << 20), 0.0);
        assert_eq!(m.recv_cost(1 << 20), 0.0);
    }

    #[test]
    fn torus_routes_dimension_order_with_wraparound() {
        let t = Topology::Torus2D { cols: 4, rows: 4 };
        // 0 -> 1: one +x hop.
        assert_eq!(t.route(0, 1), vec![(0, 1)]);
        // 0 -> 3 wraps -x (distance 1, not 3).
        assert_eq!(t.route(0, 3), vec![(0, 3)]);
        // 0 -> 5: x first, then y.
        assert_eq!(t.route(0, 5), vec![(0, 1), (1, 5)]);
        // 0 -> 12 wraps -y.
        assert_eq!(t.route(0, 12), vec![(0, 12)]);
        assert_eq!(t.hops(0, 0), 0);
        // Every pair's hop count is bounded by the torus diameter.
        for s in 0..16 {
            for d in 0..16 {
                assert!(t.hops(s, d) <= 4, "{s}->{d}");
            }
        }
    }

    #[test]
    fn fat_tree_routes_through_leaf_and_spine() {
        let t = Topology::FatTree { down: 4, up: 2 };
        // Same leaf: host -> leaf -> host.
        assert_eq!(t.hops(0, 3), 2);
        // Cross leaf: host -> leaf -> root -> leaf -> host.
        assert_eq!(t.hops(0, 4), 4);
        // The spine hash spreads pairs across the `up` roots.
        let r04 = t.route(0, 4);
        let r14 = t.route(1, 4);
        assert_ne!(r04[1].1, r14[1].1, "pairs should hash to different roots");
    }

    #[test]
    fn contended_link_queues_and_charges_virtual_time() {
        let m = MachineModel::sp2();
        let mut net = NetState::new(Topology::Torus2D { cols: 4, rows: 1 });
        let bytes = 1 << 16;
        let ser = bytes as f64 * m.byte_wire_cost;
        // Two messages leave rank 0 for rank 1 at t=0: the second
        // serializes behind the first on the shared 0->1 link.
        let a1 = net.transit(&m, 0, 1, bytes, 0.0);
        let a2 = net.transit(&m, 0, 1, bytes, 0.0);
        assert!((a1 - (ser + m.latency)).abs() < 1e-12);
        assert!((a2 - (2.0 * ser + m.latency)).abs() < 1e-12);
        assert!((net.queued - ser).abs() < 1e-12);
        // An uncontended reverse link is unaffected.
        let b = net.transit(&m, 1, 0, bytes, 0.0);
        assert!((b - (ser + m.latency)).abs() < 1e-12);
    }

    #[test]
    fn crossbar_and_self_sends_bypass_link_accounting() {
        let m = MachineModel::sp2();
        let mut net = NetState::new(Topology::Crossbar);
        assert_eq!(net.transit(&m, 0, 1, 100, 1.0), 1.0 + m.transit(100));
        let mut net = NetState::new(Topology::Torus2D { cols: 2, rows: 1 });
        assert_eq!(net.transit(&m, 1, 1, 100, 1.0), 1.0 + m.transit(100));
        assert_eq!(net.queued, 0.0);
    }

    #[test]
    fn topology_fits_checks_seats() {
        assert!(Topology::Crossbar.fits(4096));
        assert!(Topology::Torus2D { cols: 8, rows: 8 }.fits(64));
        assert!(!Topology::Torus2D { cols: 8, rows: 8 }.fits(65));
        assert!(Topology::FatTree { down: 16, up: 4 }.fits(1024));
    }
}
