//! fig_scale: the first beyond-paper scenario family — rack scaling.
//!
//! The paper evaluates a two-node rack; here the Table-1 workload (1 KB
//! objects, uncontended readers) is distributed over N-node racks: half
//! the nodes read, half host store shards, the fabric is a rack-level 2D
//! mesh (one 35 ns hop per Manhattan step), and every reader node is
//! paired round-robin with a store shard. The event loop runs fully
//! sharded — one shard per node — which the equivalence tests pin
//! bit-identical to the single-shard run.
//!
//! Expected shape: aggregate goodput scales with the reader count (each
//! reader pair is an independent point-to-point stream), while per-op
//! latency rises only by the extra mesh hops between a reader and its
//! shard — atomicity (SABRe or software) costs no more at 8 nodes than at
//! 2.

use sabre_farm::{ScenarioStoreExt, StoreLayout};
use sabre_rack::{spec, ReadMechanism, ScenarioBuilder};
use sabre_sim::Time;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// Plain one-sided reads, no atomicity (the scaling baseline).
    Raw,
    /// Hardware SABRes (destination OCC).
    Sabre,
    /// FaRM per-cache-line versions, validated on the reader CPU.
    PerCl,
    /// Pilaf checksums, validated on the reader CPU.
    Checksum,
}

impl Mechanism {
    /// All mechanisms in presentation order.
    pub const ALL: [Mechanism; 4] = [
        Mechanism::Raw,
        Mechanism::Sabre,
        Mechanism::PerCl,
        Mechanism::Checksum,
    ];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            Mechanism::Raw => "raw read",
            Mechanism::Sabre => "SABRe",
            Mechanism::PerCl => "FaRM perCL",
            Mechanism::Checksum => "Pilaf CRC64",
        }
    }

    /// The store layout this mechanism reads: raw reads and SABRes read
    /// clean objects.
    pub fn layout(self) -> StoreLayout {
        StoreLayout::of_mechanism(self.read_mechanism()).map_or(StoreLayout::Clean, |(l, _)| l)
    }

    /// The matching reader mechanism.
    pub fn read_mechanism(self) -> ReadMechanism {
        match self {
            Mechanism::Raw => ReadMechanism::Raw,
            Mechanism::Sabre => ReadMechanism::Sabre,
            Mechanism::PerCl => ReadMechanism::PerClValidate { payload: PAYLOAD },
            Mechanism::Checksum => ReadMechanism::ChecksumValidate { payload: PAYLOAD },
        }
    }
}

/// One sweep point's measurement.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Rack size in nodes.
    pub nodes: usize,
    /// The read mechanism.
    pub mech: Mechanism,
    /// Mean end-to-end latency over every reader core (ns).
    pub latency_ns: f64,
    /// Aggregate rack goodput (GB/s).
    pub total_gbps: f64,
    /// Slowest reader node's goodput (GB/s) — placement imbalance floor.
    pub min_reader_gbps: f64,
    /// Fastest reader node's goodput (GB/s).
    pub max_reader_gbps: f64,
}

/// Measures one `(nodes, mechanism)` point with an explicit event-loop
/// shard count. Public (with the shard knob) so the equivalence tests can
/// certify that *this* construction — not a copy of it — is bit-identical
/// at every shard count.
pub fn measure_sharded(nodes: usize, mech: Mechanism, iters: u64, shards: usize) -> Point {
    measure_threaded(nodes, mech, iters, shards, None)
}

/// [`measure_sharded`] with an explicit worker-thread count driving the
/// shards (`None`: the cluster's default resolution) — the knob the
/// equivalence tests sweep to certify the shipped experiment is
/// bit-identical at every thread count too.
pub fn measure_threaded(
    nodes: usize,
    mech: Mechanism,
    iters: u64,
    shards: usize,
    threads: Option<usize>,
) -> Point {
    let builder = ScenarioBuilder::new()
        .nodes(nodes)
        .shards(shards)
        .configure(|cfg| cfg.threads = threads);
    let topo = builder.config().topology.clone();
    let (builder, store_shards) = builder.sharded_store(
        topo.store_nodes(),
        mech.layout(),
        PAYLOAD,
        OBJECTS_PER_SHARD,
    );
    let readers = topo.reader_nodes();
    let placements: Vec<(usize, usize)> = readers
        .iter()
        .flat_map(|&node| (0..CORES_PER_READER_NODE).map(move |core| (node, core)))
        .collect();
    let reader_index: std::collections::HashMap<usize, usize> = readers
        .iter()
        .enumerate()
        .map(|(i, &node)| (node, i))
        .collect();
    let report = builder
        .readers_grid_spec(placements, move |node, _core, _targets| {
            let shard = &store_shards[reader_index[&node] % store_shards.len()];
            spec()
                .store(shard.node() as usize)
                .payload(PAYLOAD)
                .mechanism(mech.read_mechanism())
                .wire(shard.slot_bytes() as u32)
                .objects(shard.object_addrs())
        })
        .run_for(Time::from_us(20 * iters));

    let mut latencies = Vec::new();
    for &node in &readers {
        for core in 0..CORES_PER_READER_NODE {
            let m = report.core(node, core);
            assert!(m.ops > 0, "reader {node}.{core} completed no ops");
            latencies.push(m.latency.mean().expect("ops completed"));
        }
    }
    let per_node = report.node_reports();
    let reader_gbps: Vec<f64> = per_node
        .iter()
        .filter(|n| n.role == sabre_rack::NodeRole::Reader)
        .map(|n| n.gbps)
        .collect();
    Point {
        nodes,
        mech,
        latency_ns: latencies.iter().sum::<f64>() / latencies.len() as f64,
        total_gbps: report.total_gbps(),
        min_reader_gbps: reader_gbps.iter().copied().fold(f64::INFINITY, f64::min),
        max_reader_gbps: reader_gbps.iter().copied().fold(0.0, f64::max),
    }
}

/// [`measure_sharded`] with the shipped configuration: one event-loop
/// shard per node.
pub fn measure(nodes: usize, mech: Mechanism, iters: u64) -> Point {
    measure_sharded(nodes, mech, iters, nodes)
}

/// Runs the full sweep: node count × mechanism.
pub fn data(opts: RunOpts) -> Vec<Point> {
    let iters = opts.pick(25, 3);
    let points: Vec<(usize, Mechanism)> = NODE_COUNTS
        .iter()
        .flat_map(|&n| Mechanism::ALL.iter().map(move |&m| (n, m)))
        .collect();
    // `--threads` (or `SABRES_THREADS`) caps the in-cluster shard workers
    // the same way it caps the sweep pool; results are identical either
    // way, which the golden/equivalence tests pin down.
    opts.sweep(points)
        .map(|&(nodes, mech)| measure_threaded(nodes, mech, iters, nodes, opts.threads))
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
            p.mech.label().to_string(),
            fmt_ns(p.latency_ns),
            fmt_gbps(p.total_gbps),
            format!("{:.2}..{:.2}", p.min_reader_gbps, p.max_reader_gbps),
        ]);
    }
    t
}
