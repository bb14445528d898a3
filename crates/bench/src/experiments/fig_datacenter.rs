//! fig_datacenter: the third beyond-paper scenario family — from one rack
//! to a datacenter row.
//!
//! `fig_scale` grew the paper's pair into an 8-node rack and
//! `fig_placement` showed what fabric geometry costs inside one rack; this
//! experiment crosses the next boundary. The Table-1 workload (1 KB
//! objects, uncontended readers) runs on 2–8 racks of a two-level
//! [`Datacenter`](sabre_rack::ScenarioBuilder::datacenter) fabric: each
//! rack is a radix-4 fat tree (16 nodes — one store and three readers per
//! leaf), racks are joined by an inter-rack spine whose 350 ns
//! per-crossing latency dwarfs the 35 ns intra-rack hop, and the spine
//! uplinks are oversubscribed once more on top of the leaf level.
//!
//! Three axes sweep:
//!
//! * **racks** — 2, 4 and 8 (32 to 128 nodes), the largest points far
//!   beyond anything earlier figures touch;
//! * **mechanism** — plain one-sided reads against hardware SABRes, so the
//!   atomicity-is-free claim is re-checked across the spine;
//! * **placement** — round-robin reader→shard pairing against
//!   [`NearestShard`](sabre_rack::PlacementPolicy::NearestShard). The
//!   skewed role split puts one store on every leaf, so nearest-shard
//!   placement can keep *every* reader rack-local while round-robin drags
//!   most reads across the spine.
//!
//! Expected shape: round-robin's cross-spine hop share sits near the
//! `(racks-1)/racks` random-target floor and its latency carries the spine
//! crossing twice (request + reply, ≈ 700 ns over rack-local); nearest
//! keeps the spine share at zero and its latency flat as racks grow.
//! Goodput scales with the reader count for both mechanisms — SABRes stay
//! as free across the spine as inside the rack.

use sabre_farm::ScenarioStoreExt;
use sabre_rack::{spec, PlacementPolicy, ReadMechanism, ScenarioBuilder, Topology};
use sabre_sim::Time;

use crate::experiments::{
    label, layout, mean_core_latency, placement_label, reader_grid, PLACEMENTS,
};
use crate::table::{fmt_gbps, fmt_ns};
use crate::{RunOpts, Table};

/// The object payload (the Table-1 comparison object).
pub const PAYLOAD: u32 = 1024;

/// Reader cores per reader node (one — the big points have 96 reader
/// nodes, so a single core per node is already a 96-reader sweep point).
pub const CORES_PER_READER_NODE: usize = 1;

/// Objects per store shard.
pub const OBJECTS_PER_SHARD: u64 = 64;

/// Downlinks per leaf: 16-node racks of 4 leaves, one store + three
/// readers per leaf (the skewed split below aligns cohorts with leaves).
pub const RADIX: u8 = 4;

/// Spine/leaf uplink oversubscription.
pub const OVERSUBSCRIPTION: u8 = 2;

/// The rack counts swept.
pub const RACK_COUNTS: [u8; 3] = [2, 4, 8];

/// The read mechanisms compared at every rack count: plain one-sided
/// reads (the scaling baseline) and hardware SABRes.
pub const MECHANISMS: [ReadMechanism; 2] = [ReadMechanism::Raw, ReadMechanism::Sabre];

/// One sweep point's measurement.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Racks in the datacenter (16 nodes each).
    pub racks: u8,
    /// The read mechanism.
    pub mech: ReadMechanism,
    /// The reader→shard policy.
    pub placement: PlacementPolicy,
    /// Mean end-to-end latency over every reader core (ns).
    pub latency_ns: f64,
    /// 99th-percentile end-to-end latency over every successful op (ns).
    pub p99_ns: u64,
    /// Aggregate goodput over every rack (GB/s).
    pub total_gbps: f64,
    /// Share of sent packets that crossed the inter-rack spine
    /// ([`sabre_sim::HopStats::spine_share`] over the whole fabric).
    pub spine_share: f64,
}

/// Nodes in a `racks`-rack datacenter point.
pub fn nodes_for(racks: u8) -> usize {
    racks as usize * (RADIX as usize) * (RADIX as usize)
}

/// Measures one `(racks, mechanism, placement)` point.
pub fn measure(racks: u8, mech: ReadMechanism, placement: PlacementPolicy, iters: u64) -> Point {
    let nodes = nodes_for(racks);
    // One store followed by three readers per leaf: cohorts align with
    // the radix-4 leaves, so NearestShard has a rack-local (indeed
    // leaf-local) shard to pick for every reader.
    let builder = ScenarioBuilder::new()
        .topology(Topology::skewed(nodes / 4, 3).with_placement(placement))
        .datacenter(racks, RADIX, OVERSUBSCRIPTION)
        .configure(|cfg| {
            // 64 one-KB objects per shard fit comfortably in 2 MB; the
            // default 16 MB per node would cost the 128-node points two
            // gigabytes of host memory each.
            cfg.memory_bytes = 2 * 1024 * 1024;
        });
    let cfg = builder.config().clone();
    assert_eq!(cfg.nodes, nodes, "every split must fill its racks");
    let topo = cfg.topology.clone();
    let store_nodes = topo.store_nodes();
    let (builder, store_shards) = builder.sharded_store(
        store_nodes.clone(),
        layout(mech),
        PAYLOAD,
        OBJECTS_PER_SHARD,
    );
    let (grid, reader_index) = reader_grid(&topo, CORES_PER_READER_NODE);
    let report = builder
        .readers_grid_spec(grid.clone(), move |node, _core, _targets| {
            let store = cfg.store_for_reader(reader_index[&node]);
            let shard_pos = store_nodes
                .iter()
                .position(|&s| s == store)
                .expect("placement returns a store node");
            let shard = &store_shards[shard_pos];
            spec()
                .store(shard.node() as usize)
                .payload(PAYLOAD)
                .mechanism(mech)
                .wire(shard.slot_bytes() as u32)
                .objects(shard.object_addrs())
        })
        .run_for(Time::from_us(10 * iters));

    let rack = report.rack();
    Point {
        racks,
        mech,
        placement,
        latency_ns: mean_core_latency(&report, &grid),
        p99_ns: rack.metrics.p99_ns().expect("readers completed ops"),
        total_gbps: rack.gbps,
        spine_share: rack.hops.spine_share(),
    }
}

/// Runs the full sweep: rack count × mechanism × placement.
pub fn data(opts: RunOpts) -> Vec<Point> {
    let iters = opts.pick(10, 2);
    let points: Vec<(u8, ReadMechanism, PlacementPolicy)> = RACK_COUNTS
        .iter()
        .flat_map(|&r| {
            MECHANISMS
                .iter()
                .flat_map(move |&m| PLACEMENTS.iter().map(move |&p| (r, m, p)))
        })
        .collect();
    opts.sweep(points)
        .map(|&(racks, mech, placement)| measure(racks, mech, placement, iters))
}

/// Renders the datacenter sweep as a table.
pub fn run(opts: RunOpts) -> Table {
    let mut t = Table::new(
        "fig_datacenter — two-level spine scaling (16-node racks, 1 KB SABRes)",
        &[
            "racks",
            "mechanism",
            "placement",
            "mean latency",
            "p99",
            "goodput",
            "spine share",
        ],
    );
    for p in data(opts) {
        t.row(vec![
            p.racks.to_string(),
            label(p.mech).to_string(),
            placement_label(p.placement).to_string(),
            fmt_ns(p.latency_ns),
            fmt_ns(p.p99_ns as f64),
            fmt_gbps(p.total_gbps),
            format!("{:.2}", p.spine_share),
        ]);
    }
    t
}
