//! fig_scale: the first beyond-paper scenario family — rack scaling.
//!
//! The paper evaluates a two-node rack; here the Table-1 workload (1 KB
//! objects, uncontended readers) is distributed over N-node racks: half
//! the nodes read, half host store shards, the fabric is a rack-level 2D
//! mesh (one 35 ns hop per Manhattan step), and every reader node is
//! paired round-robin with a store shard.
//!
//! Expected shape: aggregate goodput scales with the reader count (each
//! reader pair is an independent point-to-point stream), while per-op
//! latency rises only by the extra mesh hops between a reader and its
//! shard — atomicity (SABRe or software) costs no more at 8 nodes than at
//! 2.

use sabre_farm::ScenarioStoreExt;
use sabre_rack::{spec, ReadMechanism, ScenarioBuilder};
use sabre_sim::Time;

use crate::experiments::{label, layout, mean_core_latency, reader_grid};
use crate::table::{fmt_gbps, fmt_ns};
use crate::{RunOpts, Table};

/// The object payload (the Table-1 comparison object).
pub const PAYLOAD: u32 = 1024;

/// Reader cores per reader node (a slice of the chip, so an 8-node sweep
/// point stays cheap to simulate).
pub const CORES_PER_READER_NODE: usize = 2;

/// Objects per store shard.
pub const OBJECTS_PER_SHARD: u64 = 128;

/// The node counts swept.
pub const NODE_COUNTS: [usize; 4] = [2, 4, 6, 8];

/// The read mechanisms compared at every node count.
pub const MECHANISMS: [ReadMechanism; 4] = [
    ReadMechanism::Raw,
    ReadMechanism::Sabre,
    ReadMechanism::PerClValidate { payload: PAYLOAD },
    ReadMechanism::ChecksumValidate { payload: PAYLOAD },
];

/// One sweep point's measurement.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Rack size in nodes.
    pub nodes: usize,
    /// The read mechanism.
    pub mech: ReadMechanism,
    /// Mean end-to-end latency over every reader core (ns).
    pub latency_ns: f64,
    /// Aggregate rack goodput (GB/s).
    pub total_gbps: f64,
    /// Slowest reader node's goodput (GB/s) — placement imbalance floor.
    pub min_reader_gbps: f64,
    /// Fastest reader node's goodput (GB/s).
    pub max_reader_gbps: f64,
}

/// Measures one `(nodes, mechanism)` point.
pub fn measure(nodes: usize, mech: ReadMechanism, iters: u64) -> Point {
    let builder = ScenarioBuilder::new().nodes(nodes);
    let topo = builder.config().topology.clone();
    let (builder, store_shards) =
        builder.sharded_store(topo.store_nodes(), layout(mech), PAYLOAD, OBJECTS_PER_SHARD);
    let (grid, reader_index) = reader_grid(&topo, CORES_PER_READER_NODE);
    let report = builder
        .readers_grid_spec(grid.clone(), move |node, _core, _targets| {
            let shard = &store_shards[reader_index[&node] % store_shards.len()];
            spec()
                .store(shard.node() as usize)
                .payload(PAYLOAD)
                .mechanism(mech)
                .wire(shard.slot_bytes() as u32)
                .objects(shard.object_addrs())
        })
        .run_for(Time::from_us(20 * iters));

    let reader_gbps: Vec<f64> = topo
        .reader_nodes()
        .iter()
        .map(|&n| report.node(n).gbps)
        .collect();
    Point {
        nodes,
        mech,
        latency_ns: mean_core_latency(&report, &grid),
        total_gbps: report.rack().gbps,
        min_reader_gbps: reader_gbps.iter().copied().fold(f64::INFINITY, f64::min),
        max_reader_gbps: reader_gbps.iter().copied().fold(0.0, f64::max),
    }
}

/// Runs the full sweep: node count × mechanism.
pub fn data(opts: RunOpts) -> Vec<Point> {
    let iters = opts.pick(25, 3);
    let points: Vec<(usize, ReadMechanism)> = NODE_COUNTS
        .iter()
        .flat_map(|&n| MECHANISMS.iter().map(move |&m| (n, m)))
        .collect();
    opts.sweep(points)
        .map(|&(nodes, mech)| measure(nodes, mech, iters))
}

/// Renders the scaling sweep as a table.
pub fn run(opts: RunOpts) -> Table {
    let mut t = Table::new(
        "fig_scale — rack scaling beyond the paper's pair (1 KB objects, mesh fabric)",
        &[
            "nodes",
            "mechanism",
            "mean latency",
            "rack goodput",
            "per-reader-node GB/s",
        ],
    );
    for p in data(opts) {
        t.row(vec![
            p.nodes.to_string(),
            label(p.mech).to_string(),
            fmt_ns(p.latency_ns),
            fmt_gbps(p.total_gbps),
            format!("{:.2}..{:.2}", p.min_reader_gbps, p.max_reader_gbps),
        ]);
    }
    t
}
