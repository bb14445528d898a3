//! fig_placement: fabric geometry × placement policy × role skew.
//!
//! The second beyond-paper scenario family. `fig_scale` showed the 8-node
//! mesh going multi-hop; this experiment asks what that costs and what
//! placement buys back. The Table-1 workload (1 KB clean-layout objects,
//! uncontended SABRe readers) runs on a fixed 8-node rack while three axes
//! sweep:
//!
//! * **fabric** — the rack-level 2D mesh against two-leaf fat trees at 2:1
//!   and 4:1 uplink oversubscription;
//! * **placement** — the historical round-robin reader→shard pairing
//!   against [`PlacementPolicy::NearestShard`];
//! * **role skew** — store:reader splits of 1:1, 1:3 and 1:7
//!   ([`Topology::skewed`]), so the shard count (and therefore the room
//!   placement has to maneuver) shrinks as the read side grows.
//!
//! Expected shape: nearest-shard placement never routes a packet farther
//! than round-robin (pinned by the `placement_props` proptests), and on
//! the geometry-sensitive fabrics — the multi-hop mesh and the
//! oversubscribed fat trees, where cross-leaf packets queue on the uplink
//! — it shows up as a strictly lower mean reader hop count and higher
//! goodput. With a single shard (1:7) the policies coincide: placement
//! has nothing left to choose.

use sabre_farm::{ScenarioStoreExt, StoreLayout};
use sabre_rack::{spec, PlacementPolicy, ReadMechanism, ScenarioBuilder, Topology};
use sabre_sim::{HopStats, Time};

use crate::experiments::{mean_core_latency, placement_label, reader_grid, PLACEMENTS};
use crate::table::{fmt_gbps, fmt_ns};
use crate::{RunOpts, Table};

/// The object payload (the Table-1 comparison object).
pub const PAYLOAD: u32 = 1024;

/// Reader cores per reader node (a slice of the chip, so sweep points stay
/// cheap to simulate).
pub const CORES_PER_READER_NODE: usize = 2;

/// Objects per store shard.
pub const OBJECTS_PER_SHARD: u64 = 128;

/// Rack size: every sweep point is an 8-node rack.
pub const NODES: usize = 8;

/// The fabric families swept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricKind {
    /// The rack-level 2D mesh (`fig_scale`'s 8-node fabric: 3 columns).
    Mesh,
    /// Two 4-node leaves, uplinks oversubscribed 2:1.
    FatTree2,
    /// Two 4-node leaves, uplinks oversubscribed 4:1.
    FatTree4,
}

impl FabricKind {
    /// All fabrics in presentation order.
    pub const ALL: [FabricKind; 3] = [FabricKind::Mesh, FabricKind::FatTree2, FabricKind::FatTree4];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            FabricKind::Mesh => "mesh 3x3",
            FabricKind::FatTree2 => "fat-tree 2:1",
            FabricKind::FatTree4 => "fat-tree 4:1",
        }
    }

    fn oversubscription(self) -> Option<u8> {
        match self {
            FabricKind::Mesh => None,
            FabricKind::FatTree2 => Some(2),
            FabricKind::FatTree4 => Some(4),
        }
    }
}

/// The store:reader splits swept, as `(stores, readers_per_store)` — all
/// three fill the 8-node rack.
pub const SPLITS: [(usize, usize); 3] = [(4, 1), (2, 3), (1, 7)];

/// Table label of a split.
pub fn split_label((stores, readers_per_store): (usize, usize)) -> String {
    format!("{stores}s:{}r", stores * readers_per_store)
}

/// One sweep point's measurement.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// The fabric family.
    pub fabric: FabricKind,
    /// The reader→shard policy.
    pub placement: PlacementPolicy,
    /// The `(stores, readers_per_store)` split.
    pub split: (usize, usize),
    /// Mean end-to-end latency over every reader core (ns).
    pub latency_ns: f64,
    /// Aggregate rack goodput (GB/s).
    pub total_gbps: f64,
    /// Mean routed hops per packet sent by reader nodes (uplink queueing
    /// penalties included) — the placement-quality metric.
    pub reader_hops: f64,
}

/// Measures one sweep point.
pub fn measure(
    fabric: FabricKind,
    placement: PlacementPolicy,
    split: (usize, usize),
    iters: u64,
) -> Point {
    let (stores, readers_per_store) = split;
    let mut builder = ScenarioBuilder::new()
        .topology(Topology::skewed(stores, readers_per_store).with_placement(placement));
    if let Some(oversubscription) = fabric.oversubscription() {
        builder = builder.fat_tree(4, oversubscription);
    }
    let cfg = builder.config().clone();
    assert_eq!(cfg.nodes, NODES, "every split must fill the 8-node rack");
    let topo = cfg.topology.clone();
    let store_nodes = topo.store_nodes();
    let (builder, store_shards) = builder.sharded_store(
        store_nodes.clone(),
        StoreLayout::Clean,
        PAYLOAD,
        OBJECTS_PER_SHARD,
    );
    let (grid, reader_index) = reader_grid(&topo, CORES_PER_READER_NODE);
    let report = builder
        .readers_grid_spec(grid.clone(), move |node, _core, _targets| {
            // The policy picks a store *node*; shard handles are in
            // store-node order.
            let store = cfg.store_for_reader(reader_index[&node]);
            let shard_pos = store_nodes
                .iter()
                .position(|&s| s == store)
                .expect("placement returns a store node");
            let shard = &store_shards[shard_pos];
            spec()
                .store(shard.node() as usize)
                .payload(PAYLOAD)
                .mechanism(ReadMechanism::Sabre)
                .wire(shard.slot_bytes() as u32)
                .objects(shard.object_addrs())
        })
        .run_for(Time::from_us(20 * iters));

    let mut reader_hops = HopStats::default();
    for &node in &topo.reader_nodes() {
        reader_hops.merge(&report.node(node).hops);
    }
    Point {
        fabric,
        placement,
        split,
        latency_ns: mean_core_latency(&report, &grid),
        total_gbps: report.rack().gbps,
        reader_hops: reader_hops.mean_hops(),
    }
}

/// Runs the full sweep: fabric × placement × split.
pub fn data(opts: RunOpts) -> Vec<Point> {
    let iters = opts.pick(25, 3);
    let points: Vec<(FabricKind, PlacementPolicy, (usize, usize))> = FabricKind::ALL
        .iter()
        .flat_map(|&f| {
            PLACEMENTS
                .iter()
                .flat_map(move |&p| SPLITS.iter().map(move |&s| (f, p, s)))
        })
        .collect();
    opts.sweep(points)
        .map(|&(fabric, placement, split)| measure(fabric, placement, split, iters))
}

/// Renders the placement sweep as a table.
pub fn run(opts: RunOpts) -> Table {
    let mut t = Table::new(
        "fig_placement — fabric x placement x role skew (8 nodes, 1 KB SABRes)",
        &[
            "fabric",
            "placement",
            "split",
            "mean latency",
            "rack goodput",
            "reader hops",
        ],
    );
    for p in data(opts) {
        t.row(vec![
            p.fabric.label().to_string(),
            placement_label(p.placement).to_string(),
            split_label(p.split),
            fmt_ns(p.latency_ns),
            fmt_gbps(p.total_gbps),
            format!("{:.2}", p.reader_hops),
        ]);
    }
    t
}
