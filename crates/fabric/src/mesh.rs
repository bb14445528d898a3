//! Rack topologies: how the fabric's nodes are wired, and the hop
//! counts internode routes derive from.
//!
//! Beyond the paper's directly-connected pair, [`RackTopology::Mesh`]
//! places rack nodes on a 2D mesh whose packets pay one
//! [`FabricConfig::hop_latency`](crate::FabricConfig::hop_latency) per hop
//! of dimension-ordered (XY) routing: the hop count between two nodes is
//! the Manhattan distance of their [`MeshCoord`]s. The on-chip tile mesh
//! is not modeled here: the calibrated latencies in `sabre-mem::timing`
//! already include average on-chip traversal.

use sabre_sim::Time;

/// A node's coordinate on a rack mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshCoord {
    /// Column index.
    pub x: u8,
    /// Row index.
    pub y: u8,
}

impl MeshCoord {
    /// Manhattan distance to `other` in hops.
    pub fn hops_to(self, other: MeshCoord) -> u64 {
        let dx = (self.x as i32 - other.x as i32).unsigned_abs() as u64;
        let dy = (self.y as i32 - other.y as i32).unsigned_abs() as u64;
        dx + dy
    }
}

/// How the rack's nodes are wired together — the shape internode routes
/// (and therefore per-packet propagation latency) derive from.
///
/// The paper evaluates two directly connected nodes; [`RackTopology::Mesh`]
/// opens the beyond-paper N-node rack: nodes are placed row-major on a
/// `cols`-wide 2D grid and packets take the dimension-ordered (XY) route,
/// so the hop count between two nodes is their Manhattan distance.
/// [`RackTopology::FatTree`] adds the third interconnect family: a
/// two-level leaf/spine tree whose cross-leaf uplinks may be
/// oversubscribed.
///
/// `Mesh { cols }` with two nodes is exactly one hop each way, so the
/// degenerate mesh reproduces the paper's pair bit-for-bit — and so does a
/// `FatTree` whose first leaf holds both nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RackTopology {
    /// Every node pair directly connected: always one hop (the evaluated
    /// two-node rack, generalized as a full crossbar).
    Direct,
    /// Nodes row-major on a 2D grid `cols` wide; hops = Manhattan distance.
    Mesh {
        /// Grid width in nodes (≥ 1).
        cols: u8,
    },
    /// A two-level leaf/spine fat tree: nodes attach to leaf switches in
    /// contiguous groups of `radix` (node `n` sits on leaf `n / radix`).
    /// A packet between two nodes of the same leaf traverses one switch
    /// (1 hop); a cross-leaf packet goes leaf → spine → leaf (3 hops) over
    /// its leaf's **uplink bundle**, which admits only
    /// `radix / oversubscription` packets per hop-latency window before
    /// queueing — see [`RackTopology::uplink_budget`] and
    /// [`crate::FabricPort::send`] for the contention model.
    FatTree {
        /// Downlinks per leaf switch, i.e. nodes per leaf (≥ 1).
        radix: u8,
        /// Uplink oversubscription ratio `q` in `q:1` (≥ 1; `1` is a full
        /// bisection-bandwidth tree, `4` means the uplink bundle carries a
        /// quarter of the leaf's aggregate downlink bandwidth).
        oversubscription: u8,
    },
    /// The datacenter tier: `racks` racks, each a fat tree of `radix`
    /// leaves with `radix` nodes per leaf (`radix²` nodes per rack), the
    /// racks joined by an inter-rack **spine** whose per-hop latency is
    /// `spine_latency` — typically an order of magnitude above the
    /// intra-rack [`crate::FabricConfig::hop_latency`].
    ///
    /// Node `n` sits on leaf `n / radix` of rack `n / radix²`
    /// ([`RackTopology::leaf_of`] / [`RackTopology::rack_of`]). Routes:
    ///
    /// * same leaf — one switch traversal (1 hop);
    /// * same rack, different leaf — leaf → rack spine → leaf (3 hops),
    ///   paying the leaf uplink contention of the fat-tree model;
    /// * different rack — leaf → rack spine → **datacenter spine** → rack
    ///   spine → leaf (5 hops), where the middle traversal costs
    ///   `spine_latency` instead of one hop latency and contends for the
    ///   rack's spine uplink bundle ([`RackTopology::spine_budget`],
    ///   [`crate::FabricPort::send`]).
    Datacenter {
        /// Racks joined by the spine (≥ 1).
        racks: u8,
        /// Nodes per leaf *and* leaves per rack (≥ 2), so each rack holds
        /// `radix²` nodes.
        radix: u8,
        /// Uplink oversubscription ratio `q` in `q:1`, applied at both
        /// levels: each leaf's uplink bundle and each rack's spine bundle
        /// carry a `1/q` share of the aggregate bandwidth below them.
        oversubscription: u8,
        /// Per-traversal latency of the inter-rack spine (the long-haul
        /// link between rack spines). Must be at least the fabric's
        /// per-hop latency; typically many times larger.
        spine_latency: Time,
    },
}

impl RackTopology {
    /// A near-square mesh for `nodes` nodes (`cols = ceil(sqrt(nodes))`),
    /// the default shape for beyond-paper racks.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn mesh_for(nodes: usize) -> Self {
        assert!(nodes > 0, "a rack needs at least one node");
        let mut cols = 1usize;
        while cols * cols < nodes {
            cols += 1;
        }
        RackTopology::Mesh { cols: cols as u8 }
    }

    /// A two-leaf fat tree for `nodes` nodes (`radix = ceil(nodes / 2)`,
    /// floored at 2 so the paper pair shares one leaf) at the given
    /// oversubscription ratio — the default leaf/spine shape the placement
    /// experiments sweep against the mesh.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or needs a radix beyond `u8`.
    pub fn fat_tree_for(nodes: usize, oversubscription: u8) -> Self {
        assert!(nodes > 0, "a rack needs at least one node");
        let radix = nodes.div_ceil(2).max(2);
        assert!(radix <= u8::MAX as usize, "fat-tree radix exceeds u8");
        RackTopology::FatTree {
            radix: radix as u8,
            oversubscription,
        }
    }

    /// A datacenter of `racks` racks sized for the standard torture and
    /// figure quadrants: `radix`-node leaves, `radix` leaves per rack, a
    /// 350 ns inter-rack spine (10× the Table-2 hop latency) at the given
    /// oversubscription ratio.
    ///
    /// # Panics
    ///
    /// Panics if `racks` is zero or `radix < 2`.
    pub fn datacenter_for(racks: u8, radix: u8, oversubscription: u8) -> Self {
        assert!(racks >= 1, "a datacenter needs at least one rack");
        assert!(radix >= 2, "datacenter leaves need at least two downlinks");
        RackTopology::Datacenter {
            racks,
            radix,
            oversubscription,
            spine_latency: Time::from_ns(350),
        }
    }

    /// Grid coordinate of `node` (row-major placement; meaningless for
    /// [`RackTopology::Direct`], where every pair is one hop). For
    /// [`RackTopology::FatTree`] and [`RackTopology::Datacenter`] the row
    /// is the (global) leaf index and the column the position within the
    /// leaf.
    pub fn coord(self, node: usize) -> MeshCoord {
        let cols = match self {
            RackTopology::Direct => 1,
            RackTopology::Mesh { cols } => cols.max(1) as usize,
            RackTopology::FatTree { radix, .. } | RackTopology::Datacenter { radix, .. } => {
                radix.max(1) as usize
            }
        };
        MeshCoord {
            x: (node % cols) as u8,
            y: (node / cols) as u8,
        }
    }

    /// The leaf switch `node` attaches to, for [`RackTopology::FatTree`]
    /// and [`RackTopology::Datacenter`] (global leaf index — datacenter
    /// leaves number contiguously across racks); `None` for the flat
    /// topologies.
    pub fn leaf_of(self, node: usize) -> Option<usize> {
        match self {
            RackTopology::FatTree { radix, .. } | RackTopology::Datacenter { radix, .. } => {
                Some(node / radix.max(1) as usize)
            }
            _ => None,
        }
    }

    /// The rack `node` belongs to, for [`RackTopology::Datacenter`]
    /// (`node / radix²`); `None` for the single-rack topologies.
    pub fn rack_of(self, node: usize) -> Option<usize> {
        match self {
            RackTopology::Datacenter { radix, .. } => {
                let per_rack = (radix.max(1) as usize).pow(2);
                Some(node / per_rack)
            }
            _ => None,
        }
    }

    /// Whether a `src → dst` packet climbs a leaf uplink (fat tree and
    /// datacenter: the endpoints sit on different leaves).
    pub fn crosses_uplink(self, src: usize, dst: usize) -> bool {
        match self {
            RackTopology::FatTree { .. } | RackTopology::Datacenter { .. } => {
                self.leaf_of(src) != self.leaf_of(dst)
            }
            _ => false,
        }
    }

    /// Whether a `src → dst` packet traverses the inter-rack spine
    /// (datacenter only: the endpoints sit in different racks).
    pub fn crosses_spine(self, src: usize, dst: usize) -> bool {
        match self {
            RackTopology::Datacenter { .. } => self.rack_of(src) != self.rack_of(dst),
            _ => false,
        }
    }

    /// Packets a leaf's uplink bundle admits per hop-latency window before
    /// cross-leaf traffic starts queueing: `radix / oversubscription`,
    /// floored at one. `None` for topologies without uplinks.
    pub fn uplink_budget(self) -> Option<u64> {
        match self {
            RackTopology::FatTree {
                radix,
                oversubscription,
            }
            | RackTopology::Datacenter {
                radix,
                oversubscription,
                ..
            } => Some((radix.max(1) as u64 / oversubscription.max(1) as u64).max(1)),
            _ => None,
        }
    }

    /// Packets one source port may push across the inter-rack spine per
    /// `spine_latency` window before cross-rack traffic starts queueing —
    /// the rack's spine bundle share, oversubscribed once more on top of
    /// the leaf level: `radix / oversubscription²`, floored at one.
    /// `None` for topologies without an inter-rack spine.
    pub fn spine_budget(self) -> Option<u64> {
        match self {
            RackTopology::Datacenter {
                radix,
                oversubscription,
                ..
            } => {
                let q = oversubscription.max(1) as u64;
                Some((radix.max(1) as u64 / (q * q)).max(1))
            }
            _ => None,
        }
    }

    /// The inter-rack spine's per-traversal latency, `None` for
    /// single-rack topologies.
    pub fn spine_latency(self) -> Option<Time> {
        match self {
            RackTopology::Datacenter { spine_latency, .. } => Some(spine_latency),
            _ => None,
        }
    }

    /// Hops an internode packet from `src` to `dst` traverses (the
    /// *uncontended* route; fat-tree uplink queueing adds latency on top —
    /// see [`crate::FabricPort::send`]). On a datacenter the cross-rack
    /// route counts 5 traversals; the middle (inter-rack spine) one is
    /// charged at [`RackTopology::spine_latency`] rather than the per-hop
    /// latency.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` — the fabric never self-delivers.
    pub fn hops(self, src: usize, dst: usize) -> u64 {
        assert!(src != dst, "no self-delivery: {src} -> {dst}");
        match self {
            RackTopology::Direct => 1,
            RackTopology::Mesh { .. } => self.coord(src).hops_to(self.coord(dst)),
            RackTopology::FatTree { .. } => {
                if self.leaf_of(src) == self.leaf_of(dst) {
                    1 // up to the shared leaf switch and back down
                } else {
                    3 // leaf -> spine -> leaf
                }
            }
            RackTopology::Datacenter { .. } => {
                if self.leaf_of(src) == self.leaf_of(dst) {
                    1 // one shared leaf switch
                } else if self.rack_of(src) == self.rack_of(dst) {
                    3 // leaf -> rack spine -> leaf
                } else {
                    5 // leaf -> rack spine -> dc spine -> rack spine -> leaf
                }
            }
        }
    }

    /// The smallest hop count between any two distinct nodes — the
    /// conservative lookahead a sharded event loop may advance without
    /// cross-node synchronization. 1 in every shape with same-switch
    /// neighbors; the degenerate radix-1 fat tree has none (each node
    /// sits alone on its leaf), so every pair routes through the spine
    /// and the loop may safely look 3 hops ahead. Datacenter radices are
    /// at least 2 by construction, so same-leaf one-hop pairs always
    /// exist there.
    pub fn min_hops(self) -> u64 {
        match self {
            RackTopology::FatTree { radix: 0 | 1, .. } => 3,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance() {
        let a = MeshCoord { x: 0, y: 0 };
        let b = MeshCoord { x: 3, y: 2 };
        assert_eq!(a.hops_to(b), 5);
        assert_eq!(b.hops_to(a), 5);
        assert_eq!(a.hops_to(a), 0);
    }

    #[test]
    fn rack_mesh_degenerates_to_the_paper_pair() {
        // Two nodes on any mesh: one hop each way, exactly like Direct.
        for topo in [RackTopology::Direct, RackTopology::mesh_for(2)] {
            assert_eq!(topo.hops(0, 1), 1);
            assert_eq!(topo.hops(1, 0), 1);
        }
    }

    #[test]
    fn rack_mesh_shapes() {
        assert_eq!(RackTopology::mesh_for(2), RackTopology::Mesh { cols: 2 });
        assert_eq!(RackTopology::mesh_for(4), RackTopology::Mesh { cols: 2 });
        assert_eq!(RackTopology::mesh_for(8), RackTopology::Mesh { cols: 3 });
        // 8 nodes on a 3-wide grid: node 0 at (0,0), node 7 at (1,2).
        let topo = RackTopology::mesh_for(8);
        assert_eq!(topo.coord(7), MeshCoord { x: 1, y: 2 });
        assert_eq!(topo.hops(0, 7), 3);
        assert_eq!(topo.hops(7, 0), 3);
    }

    #[test]
    #[should_panic(expected = "no self-delivery")]
    fn rack_self_route_rejected() {
        let _ = RackTopology::mesh_for(4).hops(2, 2);
    }

    #[test]
    fn fat_tree_routes_by_leaf() {
        // 8 nodes, radix 4: leaves {0..3} and {4..7}.
        let ft = RackTopology::FatTree {
            radix: 4,
            oversubscription: 2,
        };
        assert_eq!(ft.leaf_of(3), Some(0));
        assert_eq!(ft.leaf_of(4), Some(1));
        assert_eq!(ft.hops(0, 3), 1, "same leaf is one switch traversal");
        assert_eq!(ft.hops(0, 4), 3, "cross leaf is leaf -> spine -> leaf");
        assert_eq!(ft.hops(4, 0), 3, "routes are symmetric");
        assert!(ft.crosses_uplink(0, 4));
        assert!(!ft.crosses_uplink(0, 3));
        assert_eq!(ft.min_hops(), 1);
    }

    #[test]
    fn radix_one_fat_tree_has_no_one_hop_pairs() {
        // Every node alone on its leaf: all routes cross the spine, so
        // the safe lookahead is the full 3-hop distance.
        let ft = RackTopology::FatTree {
            radix: 1,
            oversubscription: 1,
        };
        assert_eq!(ft.hops(0, 1), 3);
        assert_eq!(ft.hops(2, 5), 3);
        assert_eq!(ft.min_hops(), 3);
    }

    #[test]
    fn fat_tree_uplink_budget_is_the_oversubscribed_share() {
        let budget = |radix, oversubscription| {
            RackTopology::FatTree {
                radix,
                oversubscription,
            }
            .uplink_budget()
        };
        assert_eq!(budget(4, 1), Some(4), "full bisection: all downlinks");
        assert_eq!(budget(4, 2), Some(2));
        assert_eq!(budget(4, 4), Some(1));
        assert_eq!(budget(2, 4), Some(1), "budget floors at one packet");
        assert_eq!(RackTopology::Direct.uplink_budget(), None);
        assert_eq!(RackTopology::mesh_for(8).uplink_budget(), None);
    }

    #[test]
    fn fat_tree_degenerates_to_the_paper_pair() {
        // Two nodes on one leaf: one hop each way, no uplink — exactly
        // Direct.
        let ft = RackTopology::fat_tree_for(2, 4);
        assert_eq!(ft.hops(0, 1), 1);
        assert_eq!(ft.hops(1, 0), 1);
        assert!(!ft.crosses_uplink(0, 1));
    }

    #[test]
    fn datacenter_routes_by_leaf_and_rack() {
        // 2 racks × radix 4 = 32 nodes: rack 0 holds 0..16 on leaves
        // {0..3}, {4..7}, {8..11}, {12..15}; rack 1 holds 16..32.
        let dc = RackTopology::datacenter_for(2, 4, 2);
        assert_eq!(dc.leaf_of(3), Some(0));
        assert_eq!(dc.leaf_of(4), Some(1));
        assert_eq!(dc.leaf_of(16), Some(4), "leaves number across racks");
        assert_eq!(dc.rack_of(15), Some(0));
        assert_eq!(dc.rack_of(16), Some(1));
        assert_eq!(dc.hops(0, 3), 1, "same leaf is one switch traversal");
        assert_eq!(dc.hops(0, 15), 3, "same rack crosses the rack spine");
        assert_eq!(dc.hops(0, 16), 5, "cross rack adds the dc spine");
        assert_eq!(dc.hops(16, 0), 5, "routes are symmetric");
        assert!(!dc.crosses_uplink(0, 3));
        assert!(dc.crosses_uplink(0, 15));
        assert!(dc.crosses_uplink(0, 16), "cross-rack climbs the leaf too");
        assert!(!dc.crosses_spine(0, 15));
        assert!(dc.crosses_spine(0, 16));
        assert_eq!(dc.min_hops(), 1);
    }

    #[test]
    fn datacenter_budgets_oversubscribe_per_level() {
        let dc = |radix, q| RackTopology::datacenter_for(2, radix, q);
        // Leaf uplinks behave exactly like the single-rack fat tree.
        assert_eq!(dc(4, 1).uplink_budget(), Some(4));
        assert_eq!(dc(4, 2).uplink_budget(), Some(2));
        // The spine bundle is oversubscribed once more on top: radix/q².
        assert_eq!(dc(4, 1).spine_budget(), Some(4));
        assert_eq!(dc(4, 2).spine_budget(), Some(1));
        assert_eq!(dc(8, 2).spine_budget(), Some(2));
        assert_eq!(dc(2, 4).spine_budget(), Some(1), "floors at one packet");
        assert_eq!(RackTopology::fat_tree_for(8, 2).spine_budget(), None);
        assert_eq!(RackTopology::Direct.spine_latency(), None);
        assert_eq!(
            dc(4, 2).spine_latency(),
            Some(Time::from_ns(350)),
            "constructor pins the 10x-hop spine"
        );
    }

    #[test]
    fn single_rack_datacenter_routes_like_its_fat_tree() {
        let dc = RackTopology::datacenter_for(1, 4, 2);
        let ft = RackTopology::FatTree {
            radix: 4,
            oversubscription: 2,
        };
        for src in 0..16 {
            for dst in 0..16 {
                if src == dst {
                    continue;
                }
                assert_eq!(dc.hops(src, dst), ft.hops(src, dst));
                assert!(!dc.crosses_spine(src, dst));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two downlinks")]
    fn degenerate_datacenter_radix_rejected() {
        let _ = RackTopology::datacenter_for(4, 1, 1);
    }

    #[test]
    fn fat_tree_for_splits_into_two_leaves() {
        assert_eq!(
            RackTopology::fat_tree_for(8, 2),
            RackTopology::FatTree {
                radix: 4,
                oversubscription: 2
            }
        );
        assert_eq!(
            RackTopology::fat_tree_for(7, 1),
            RackTopology::FatTree {
                radix: 4,
                oversubscription: 1
            }
        );
    }
}
