//! fig_tail: tail latency under open-loop load — the production-traffic
//! view the paper's closed-loop microbenchmarks deliberately avoid.
//!
//! The Table-1 workload (1 KB objects) runs on the 8-node mesh rack, but
//! the readers are *open loop*: operations arrive on a Poisson process at
//! a swept per-core offered load, queue behind the in-flight operation
//! when the core is busy, and report end-to-end latency from *intended
//! arrival* — queueing delay included. Each (mechanism, skew) pair is
//! swept across light, moderate and saturating load; latencies land in
//! the deterministic integer histogram, so the p50/p99/p999 columns (and
//! the queue-buildup counters) are exact and golden-diffable.
//!
//! Expected shape: at light load every mechanism's p99 sits near its
//! closed-loop latency; as the offered load approaches a core's service
//! rate the queue builds and the tail stretches — first for the software
//! mechanisms (their CPU validation inflates service time), last for raw
//! reads. Skewed (Zipf 0.99) keys concentrate on LLC-resident hot
//! objects, which shortens service at the store and defers the buildup.
//! Within one mechanism and skew, p99 is monotone non-decreasing in the
//! offered load — pinned by `tests/experiment_shapes.rs`.

use sabre_farm::ScenarioStoreExt;
use sabre_rack::{spec, Arrivals, CoreMetrics, Popularity, ReadMechanism, ScenarioBuilder};
use sabre_sim::Time;

use crate::experiments::fig_scale::{
    CORES_PER_READER_NODE, MECHANISMS, OBJECTS_PER_SHARD, PAYLOAD,
};
use crate::experiments::{label, layout, reader_grid};
use crate::{RunOpts, Table};

/// Rack size: the biggest configuration the equivalence suite pins.
pub const NODES: usize = 8;

/// Per-core offered loads swept (operations per microsecond): light,
/// moderate, and past the ~1 KB closed-loop service rate.
pub const LOADS: [f64; 3] = [0.2, 0.8, 1.6];

/// The Zipfian exponent of the skewed setting (the YCSB default).
pub const ZIPF_EXPONENT: f64 = 0.99;

/// Key-popularity settings compared at every load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skew {
    /// Keys drawn uniformly over the shard.
    Uniform,
    /// Zipf(0.99) — rank 1 hottest.
    Zipf,
}

impl Skew {
    /// Both settings, in presentation order.
    pub const ALL: [Skew; 2] = [Skew::Uniform, Skew::Zipf];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            Skew::Uniform => "uniform",
            Skew::Zipf => "zipf 0.99",
        }
    }

    /// The matching workload popularity.
    pub fn popularity(self) -> Popularity {
        match self {
            Skew::Uniform => Popularity::Uniform,
            Skew::Zipf => Popularity::Zipf {
                exponent: ZIPF_EXPONENT,
            },
        }
    }
}

/// One sweep point's measurement.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// The read mechanism.
    pub mech: ReadMechanism,
    /// The key-popularity setting.
    pub skew: Skew,
    /// Offered load per reader core (ops/us).
    pub load: f64,
    /// Successful operations across the rack.
    pub ops: u64,
    /// Median end-to-end latency (ns), queueing included.
    pub p50_ns: u64,
    /// 99th-percentile latency (ns).
    pub p99_ns: u64,
    /// 99.9th-percentile latency (ns).
    pub p999_ns: u64,
    /// Arrivals that queued behind an in-flight operation.
    pub queued: u64,
    /// Deepest backlog any core saw.
    pub peak_backlog: u64,
}

/// Measures one `(mechanism, skew, load)` point.
pub fn measure(mech: ReadMechanism, skew: Skew, load: f64, iters: u64) -> Point {
    let builder = ScenarioBuilder::new().nodes(NODES);
    let topo = builder.config().topology.clone();
    let (builder, store_shards) =
        builder.sharded_store(topo.store_nodes(), layout(mech), PAYLOAD, OBJECTS_PER_SHARD);
    let (grid, reader_index) = reader_grid(&topo, CORES_PER_READER_NODE);
    let report = builder
        .readers_grid_spec(grid, move |node, _core, _targets| {
            let shard = &store_shards[reader_index[&node] % store_shards.len()];
            spec()
                .store(shard.node() as usize)
                .payload(PAYLOAD)
                .mechanism(mech)
                .wire(shard.slot_bytes() as u32)
                .objects(shard.object_addrs())
                .arrivals(Arrivals::Poisson { ops_per_us: load })
                .popularity(skew.popularity())
        })
        .run_for(Time::from_us(20 * iters));
    let m = report.rack().metrics;
    assert!(m.ops > 0, "{mech:?}/{skew:?}@{load}: no ops completed");
    point(mech, skew, load, &m)
}

/// A point from the rack's merged core metrics.
fn point(mech: ReadMechanism, skew: Skew, load: f64, m: &CoreMetrics) -> Point {
    Point {
        mech,
        skew,
        load,
        ops: m.ops,
        p50_ns: m.p50_ns().expect("ops recorded"),
        p99_ns: m.p99_ns().expect("ops recorded"),
        p999_ns: m.p999_ns().expect("ops recorded"),
        queued: m.queued_arrivals,
        peak_backlog: m.peak_backlog,
    }
}

/// Runs the full sweep: mechanism × skew × offered load.
pub fn data(opts: RunOpts) -> Vec<Point> {
    let iters = opts.pick(15, 3);
    let points: Vec<(ReadMechanism, Skew, f64)> = MECHANISMS
        .iter()
        .flat_map(|&m| {
            Skew::ALL
                .iter()
                .flat_map(move |&s| LOADS.iter().map(move |&l| (m, s, l)))
        })
        .collect();
    opts.sweep(points)
        .map(|&(mech, skew, load)| measure(mech, skew, load, iters))
}

/// Read fractions of the mix sweep: read-mostly down to write-heavy.
pub const MIX_FRACTIONS: [f64; 3] = [0.9, 0.5, 0.1];

/// The per-core offered load of the mix sweep (the moderate setting of
/// [`LOADS`], where queueing exists but the loop is not saturated).
pub const MIX_LOAD: f64 = 0.8;

/// One mix sweep point: raw-layout traffic at [`MIX_LOAD`] with the given
/// read fraction; the write remainder issues one-sided remote writes back
/// to the chosen objects (see `WorkloadSpec::mix` — the software layouts
/// embed metadata a remote writer does not maintain, so the mix sweep is
/// a raw-layout traffic study).
pub fn measure_mix(read_fraction: f64, iters: u64) -> Point {
    let builder = ScenarioBuilder::new().nodes(NODES);
    let topo = builder.config().topology.clone();
    let (builder, store_shards) = builder.sharded_store(
        topo.store_nodes(),
        layout(ReadMechanism::Raw),
        PAYLOAD,
        OBJECTS_PER_SHARD,
    );
    let (grid, reader_index) = reader_grid(&topo, CORES_PER_READER_NODE);
    let report = builder
        .readers_grid_spec(grid, move |node, _core, _targets| {
            let shard = &store_shards[reader_index[&node] % store_shards.len()];
            spec()
                .store(shard.node() as usize)
                .payload(PAYLOAD)
                .mechanism(ReadMechanism::Raw)
                .wire(shard.slot_bytes() as u32)
                .objects(shard.object_addrs())
                .arrivals(Arrivals::Poisson {
                    ops_per_us: MIX_LOAD,
                })
                .mix(read_fraction)
        })
        .run_for(Time::from_us(20 * iters));
    let m = report.rack().metrics;
    assert!(m.ops > 0, "mix {read_fraction}: no ops completed");
    point(ReadMechanism::Raw, Skew::Uniform, MIX_LOAD, &m)
}

/// Runs the read/write-mix sweep over [`MIX_FRACTIONS`].
pub fn mix_data(opts: RunOpts) -> Vec<(f64, Point)> {
    let iters = opts.pick(15, 3);
    opts.sweep(MIX_FRACTIONS)
        .map(|&f| (f, measure_mix(f, iters)))
}

/// Renders the mix sweep as its own table (separate from [`run`]'s, so
/// adding rows here never re-pads the established columns of the main
/// sweep in the golden output).
pub fn run_mix(opts: RunOpts) -> Table {
    let mut t = Table::new(
        "fig_tail — tail under read/write mix (raw traffic, 0.8 ops/us/core, 8-node rack)",
        &[
            "read fraction",
            "ops",
            "p50",
            "p99",
            "p999",
            "queued",
            "peak backlog",
        ],
    );
    for (fraction, p) in mix_data(opts) {
        t.row(vec![
            format!("{fraction:.1}"),
            p.ops.to_string(),
            format!("{} ns", p.p50_ns),
            format!("{} ns", p.p99_ns),
            format!("{} ns", p.p999_ns),
            p.queued.to_string(),
            p.peak_backlog.to_string(),
        ]);
    }
    t
}

/// Renders the tail-latency sweep as a table.
pub fn run(opts: RunOpts) -> Table {
    let mut t = Table::new(
        "fig_tail — tail latency vs offered load (open-loop Poisson, 1 KB objects, 8-node rack)",
        &[
            "mechanism",
            "skew",
            "load (ops/us/core)",
            "p50",
            "p99",
            "p999",
            "queued",
            "peak backlog",
        ],
    );
    for p in data(opts) {
        t.row(vec![
            label(p.mech).to_string(),
            p.skew.label().to_string(),
            format!("{:.1}", p.load),
            format!("{} ns", p.p50_ns),
            format!("{} ns", p.p99_ns),
            format!("{} ns", p.p999_ns),
            p.queued.to_string(),
            p.peak_backlog.to_string(),
        ]);
    }
    t
}
