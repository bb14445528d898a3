//! fig_protocols: head-to-head of the alternative read protocols.
//!
//! The Table-1 workload (1 KB objects) on the 8-node rack, under open-loop
//! Poisson readers *racing live writers on every store shard*, compares the
//! four established read mechanisms against the two alternative protocols
//! this repo adds beyond the paper:
//!
//! * the **wait-free multi-version register** (Ianni et al.): the store
//!   keeps four version slots per object and a publish word; a server-side
//!   capture snapshots the published slot, so a read is never torn *and
//!   never aborts* — the retries column is zero by construction, bought
//!   with 4× the store footprint and one header block on the wire;
//! * **Oh-RAM's one-and-a-half-round read** (Hadjistasi et al.): the store
//!   serves a consistent clean-object snapshot under a server-side capture
//!   (no locking), the reader delivers immediately and relays a
//!   fire-and-forget confirm write — ~1.5 rounds on the fabric against the
//!   effective two rounds a SABRe's block streams plus validation cost.
//!
//! Expected shape: the wait-free register pins retries at exactly zero at
//! every load and skew (the abort-based mechanisms rack up retries under
//! the racing writers, worst under Zipf contention); Oh-RAM's mean
//! hops-per-op sits well below SABRe's (fewer, larger packets beat the
//! paper protocol's per-block streaming) — both pinned by
//! `tests/experiment_shapes.rs`.

use sabre_farm::{ScenarioStoreExt, StoreLayout};
use sabre_rack::workloads::Writer;
use sabre_rack::{spec, Arrivals, ReadMechanism, ScenarioBuilder};
use sabre_sim::Time;

use crate::experiments::fig_scale::{CORES_PER_READER_NODE, OBJECTS_PER_SHARD, PAYLOAD};
use crate::experiments::fig_tail::{Skew, NODES};
use crate::{RunOpts, Table};

/// Per-core offered loads swept (ops/us): light and moderate. The
/// saturating setting is omitted — under racing writers the software
/// mechanisms' retry loops never drain the queue there, which measures
/// the backlog policy rather than the protocol.
pub const LOADS: [f64; 2] = [0.2, 0.8];

/// Objects each racing writer owns (CREW partition of a 128-object
/// shard: 4 writers per store node).
const OBJECTS_PER_WRITER: usize = 32;

/// The read protocols compared head-to-head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Plain one-sided reads, no atomicity (the floor).
    Raw,
    /// Hardware SABRes (destination OCC, the paper protocol).
    Sabre,
    /// FaRM per-cache-line versions, validated on the reader CPU.
    PerCl,
    /// Pilaf checksums, validated on the reader CPU.
    Checksum,
    /// The wait-free multi-version register (server-side slot capture).
    WfRegister,
    /// Oh-RAM's one-and-a-half-round read (server-side clean capture).
    OhRam,
}

impl Protocol {
    /// All protocols in presentation order: the established four first,
    /// the alternatives last.
    pub const ALL: [Protocol; 6] = [
        Protocol::Raw,
        Protocol::Sabre,
        Protocol::PerCl,
        Protocol::Checksum,
        Protocol::WfRegister,
        Protocol::OhRam,
    ];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Raw => "raw read",
            Protocol::Sabre => "SABRe",
            Protocol::PerCl => "FaRM perCL",
            Protocol::Checksum => "Pilaf CRC64",
            Protocol::WfRegister => "wait-free reg",
            Protocol::OhRam => "Oh-RAM 1.5rt",
        }
    }

    /// The store layout this protocol reads and its writers maintain:
    /// raw reads and SABRes read clean objects.
    pub fn layout(self) -> StoreLayout {
        StoreLayout::of_mechanism(self.read_mechanism()).map_or(StoreLayout::Clean, |(l, _)| l)
    }

    /// The matching reader mechanism.
    pub fn read_mechanism(self) -> ReadMechanism {
        match self {
            Protocol::Raw => ReadMechanism::Raw,
            Protocol::Sabre => ReadMechanism::Sabre,
            Protocol::PerCl => ReadMechanism::PerClValidate { payload: PAYLOAD },
            Protocol::Checksum => ReadMechanism::ChecksumValidate { payload: PAYLOAD },
            Protocol::WfRegister => ReadMechanism::WfRegister { payload: PAYLOAD },
            Protocol::OhRam => ReadMechanism::OhRam { payload: PAYLOAD },
        }
    }
}

/// One sweep point's measurement.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// The read protocol.
    pub proto: Protocol,
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
    /// Mean routed fabric hops per successful operation (requests,
    /// replies, and Oh-RAM confirm writes all counted).
    pub hops_per_op: f64,
    /// Atomicity retries across the rack (zero for the wait-free
    /// register and Oh-RAM, by construction).
    pub retries: u64,
}

/// Measures one `(protocol, skew, load)` point with explicit event-loop
/// shard and worker-thread knobs. Public so the equivalence tests can
/// certify that *this* construction — not a copy of it — is bit-identical
/// at every shards × threads setting.
pub fn measure_threaded(
    proto: Protocol,
    skew: Skew,
    load: f64,
    iters: u64,
    shards: usize,
    threads: Option<usize>,
) -> Point {
    let builder = ScenarioBuilder::new()
        .nodes(NODES)
        .shards(shards)
        .configure(|cfg| cfg.threads = threads);
    let topo = builder.config().topology.clone();
    let (builder, store_shards) = builder.sharded_store(
        topo.store_nodes(),
        proto.layout(),
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
    let shards_for_readers = store_shards.clone();
    let mut scenario = builder.readers_grid_spec(placements, move |node, _core, _targets| {
        let shard = &shards_for_readers[reader_index[&node] % shards_for_readers.len()];
        spec()
            .store(shard.node() as usize)
            .payload(PAYLOAD)
            .mechanism(proto.read_mechanism())
            .wire(shard.wire_bytes() as u32)
            .objects(shard.object_addrs())
            .arrivals(Arrivals::Poisson { ops_per_us: load })
            .popularity(skew.popularity())
    });
    // Live writers on every shard (CREW partition) so the abort columns
    // measure real conflicts, not an idle store.
    for shard in &store_shards {
        for (w, entries) in shard
            .object_entries()
            .chunks(OBJECTS_PER_WRITER)
            .enumerate()
        {
            let writer = Writer::new(entries.to_vec(), PAYLOAD, proto.layout(), Time::ZERO);
            scenario = scenario.workload(shard.node() as usize, w, Box::new(writer));
        }
    }
    let report = scenario.run_for(Time::from_us(20 * iters));
    let m = report.rack_metrics();
    assert!(m.ops > 0, "{proto:?}/{skew:?}@{load}: no ops completed");
    if proto == Protocol::WfRegister {
        assert_eq!(
            m.retries, 0,
            "the wait-free register aborted — it is wait-free by construction"
        );
    }
    let (p50_ns, p99_ns, _) = report.latency_percentiles().expect("ops recorded");
    let fabric = report.cluster().fabric();
    let total_hops: u64 = (0..NODES).map(|n| fabric.node_hops_sent(n)).sum();
    Point {
        proto,
        skew,
        load,
        ops: m.ops,
        p50_ns,
        p99_ns,
        hops_per_op: total_hops as f64 / m.ops as f64,
        retries: m.retries,
    }
}

/// One point with the shipped configuration: one shard per node.
pub fn measure(proto: Protocol, skew: Skew, load: f64, iters: u64) -> Point {
    measure_threaded(proto, skew, load, iters, NODES, None)
}

/// Runs the full sweep: protocol × skew × offered load.
pub fn data(opts: RunOpts) -> Vec<Point> {
    let iters = opts.pick(15, 3);
    let points: Vec<(Protocol, Skew, f64)> = Protocol::ALL
        .iter()
        .flat_map(|&p| {
            Skew::ALL
                .iter()
                .flat_map(move |&s| LOADS.iter().map(move |&l| (p, s, l)))
        })
        .collect();
    opts.sweep(points)
        .map(|&(proto, skew, load)| measure_threaded(proto, skew, load, iters, NODES, opts.threads))
}

/// Renders the protocol head-to-head as a table.
pub fn run(opts: RunOpts) -> Table {
    let mut t = Table::new(
        "fig_protocols — read protocols head-to-head under racing writers (1 KB objects, 8-node rack)",
        &[
            "protocol",
            "skew",
            "load (ops/us/core)",
            "ops",
            "p50",
            "p99",
            "hops/op",
            "retries",
        ],
    );
    for p in data(opts) {
        t.row(vec![
            p.proto.label().to_string(),
            p.skew.label().to_string(),
            format!("{:.1}", p.load),
            p.ops.to_string(),
            format!("{} ns", p.p50_ns),
            format!("{} ns", p.p99_ns),
            format!("{:.2}", p.hops_per_op),
            p.retries.to_string(),
        ]);
    }
    t
}
