//! The five benchmark workloads, built directly on the simulator's public
//! construction API: `ScenarioBuilder::config` for the rack shape, then
//! `Cluster::new`, `ObjectStore`/`ReplicatedStore` initialisation and
//! `Cluster::add_workload`.
//!
//! Each workload stresses a different layer (see `README.md` for the full
//! rationale); [`Shape`] records what the per-layer probes need to replay
//! calls shaped like the workload.

use std::sync::Arc;
use std::time::Instant;

use sabre_farm::{
    replica_sites, ObjectStore, RecoveringWriter, ReplicatedStore, StoreLayout, WriteLog,
};
use sabre_mem::Addr;
use sabre_rack::workloads::{Writer, WriterLayout};
use sabre_rack::{
    spec, Arrivals, Cluster, ClusterConfig, CoreApi, FaultProfile, Popularity, ReadMechanism,
    ScenarioBuilder, Topology, Workload as Program,
};
use sabre_sim::{HopStats, Time};
use sabre_sonuma::{CqEntry, OpKind};

use crate::reference::SliceClock;

/// Simulated warm-up before every measured window: fills pipelines and the
/// LLC, after which every metric is reset.
pub const WARMUP: Time = Time::from_us(20);

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Atomic reads racing CREW writers under four read protocols.
    RackProtocols,
    /// Plain reads and one-sided writes on the RGP/R2P2 path only.
    RackWriteMix,
    /// The largest datacenter point: spine and uplink contention.
    DcSpine,
    /// 252 of 256 nodes idle: per-window fixed cost dominates.
    DcQuiet,
    /// Replicated reads under seeded crash/restore churn.
    ReplicaChurn,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 5] = [
        Workload::RackProtocols,
        Workload::RackWriteMix,
        Workload::DcSpine,
        Workload::DcQuiet,
        Workload::ReplicaChurn,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RackProtocols => "rack_protocols",
            Workload::RackWriteMix => "rack_write_mix",
            Workload::DcSpine => "dc_spine",
            Workload::DcQuiet => "dc_quiet",
            Workload::ReplicaChurn => "replica_churn",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated window one pass measures (after [`WARMUP`]). Sized so
    /// one pass costs roughly 0.6–0.9 s of host time on a 2-core x86-64
    /// host: a run repeats passes for its `--seconds` budget.
    pub fn window(self) -> Time {
        match self {
            Workload::RackProtocols => Time::from_us(500),
            Workload::RackWriteMix => Time::from_us(6_000),
            Workload::DcSpine => Time::from_us(600),
            Workload::DcQuiet => Time::from_us(4_000),
            Workload::ReplicaChurn => Time::from_us(6_000),
        }
    }

    /// Nodes in the workload's rack or datacenter.
    pub fn nodes(self) -> usize {
        match self {
            Workload::RackProtocols | Workload::RackWriteMix | Workload::ReplicaChurn => 8,
            Workload::DcSpine => DC_SPINE_RACKS as usize * 16,
            Workload::DcQuiet => 256,
        }
    }
}

/// Object payload of the rack and datacenter workloads (the Table-1 object).
const PAYLOAD: u32 = 1024;
/// Objects per store shard on the 8-node rack.
const RACK_OBJECTS: u64 = 128;
/// Reader cores per reader node on the 8-node rack.
const RACK_READER_CORES: usize = 2;
/// Open-loop offered load per reader core (ops/µs).
const RACK_LOAD: f64 = 0.8;
/// Racing writers per store node in `rack_protocols` (CREW partition).
const WRITERS_PER_STORE: usize = 4;

const DC_SPINE_RACKS: u8 = 8;
const DC_OBJECTS: u64 = 64;

/// `replica_churn` geometry, as `fig_recovery` ships it.
const CHURN_PAYLOAD: u32 = 208;
const CHURN_OBJECTS: u64 = 8;
const CHURN_LOG_BASE: u64 = 1 << 20;
const CHURN_PULL_BUF: u64 = 2 << 20;
const CHURN_LOG_CAP: u64 = 2048;
const CHURN_FAULT_SEED: u64 = 7;

/// The read protocol of each `rack_protocols` store node, in store order.
const PROTOCOLS: [(ReadMechanism, StoreLayout, WriterLayout); 4] = [
    (
        ReadMechanism::Sabre,
        StoreLayout::Clean,
        WriterLayout::Clean,
    ),
    (
        ReadMechanism::OhRam { payload: PAYLOAD },
        StoreLayout::Clean,
        WriterLayout::Clean,
    ),
    (
        ReadMechanism::WfRegister { payload: PAYLOAD },
        StoreLayout::WfRegister,
        WriterLayout::WfRegister,
    ),
    (
        ReadMechanism::PerClValidate { payload: PAYLOAD },
        StoreLayout::PerCl,
        WriterLayout::PerCl,
    ),
];

/// Everything the per-layer probes need to replay calls shaped like the
/// workload: who talks to whom, with which operations and sizes.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Every reader core, as `(node, core)`.
    pub readers: Vec<(usize, usize)>,
    /// Reader node → store node pairs the readers address (first choice).
    pub pairs: Vec<(usize, usize)>,
    /// Read operations and their wire bytes, one entry per mechanism.
    pub reads: Vec<(OpKind, u32)>,
    /// One-sided write wire bytes, when readers also write.
    pub write_wire: Option<u32>,
    /// Clean payload bytes per object.
    pub payload: u32,
    /// Objects per store node.
    pub objects: u64,
    /// Footprint of one object slot.
    pub slot_bytes: u64,
    /// Reader nodes whose reads are validated by a per-cache-line strip.
    pub percl_nodes: Vec<usize>,
    /// Reader nodes that must never retry (abort-free protocols).
    pub abort_free_nodes: Vec<usize>,
    /// SABRes in flight per store-side R2P2 pipe (the invalidation probe's
    /// ATT occupancy): one reader core per pipe at most in every workload
    /// that issues SABRes.
    pub armed_sabres: usize,
}

/// Host time of each set-up step, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Cluster::new`.
    pub cluster_new: f64,
    /// Store initialisation in simulated memory.
    pub store_init: f64,
    /// Workload construction and `Cluster::add_workload`.
    pub workload_install: f64,
    /// The simulated warm-up plus `reset_metrics`.
    pub warmup: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.steps().iter().map(|(_, s)| s).sum()
    }

    /// Each step's span name and seconds, in execution order.
    pub fn steps(&self) -> [(&'static str, f64); 4] {
        [
            ("cluster_new", self.cluster_new),
            ("store_init", self.store_init),
            ("workload_install", self.workload_install),
            ("warmup", self.warmup),
        ]
    }
}

/// A built, warmed cluster ready for its measured window.
pub struct Rig {
    /// The simulated rack, metrics reset after warm-up.
    pub cluster: Cluster,
    /// The workload's shape, for the probes and checks.
    pub shape: Shape,
    /// Host time of each set-up step.
    pub setup: SetupTimes,
    /// Whole-fabric counters when the warm-up ended (the fabric keeps
    /// counting across `reset_metrics`).
    pub fabric_at_reset: FabricCounts,
}

/// Cumulative whole-fabric counters of a cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricCounts {
    /// Hop and queueing counters over every port.
    pub hops: HopStats,
    /// Packets delivered to destination pipelines.
    pub delivered: u64,
    /// Packets the fault plan dropped.
    pub dropped: u64,
}

impl FabricCounts {
    /// The counters of `cluster` so far.
    pub fn of(cluster: &Cluster) -> FabricCounts {
        FabricCounts {
            hops: cluster.fabric().hop_stats(),
            delivered: cluster.packets_delivered(),
            dropped: cluster.packets_dropped(),
        }
    }

    /// The counts accumulated since `earlier`.
    pub fn since(&self, earlier: &FabricCounts) -> FabricCounts {
        let (a, b) = (&self.hops, &earlier.hops);
        FabricCounts {
            hops: HopStats {
                packets: a.packets - b.packets,
                hops: a.hops - b.hops,
                uplink_queued: a.uplink_queued - b.uplink_queued,
                spine_crossings: a.spine_crossings - b.spine_crossings,
                spine_queued: a.spine_queued - b.spine_queued,
            },
            delivered: self.delivered - earlier.delivered,
            dropped: self.dropped - earlier.dropped,
        }
    }
}

/// Execution knobs of one build. Results are bit-identical for every value.
#[derive(Debug, Clone, Copy)]
pub struct Exec {
    /// Event-loop shards (`None`: one per node, as the figures ship).
    pub shards: Option<usize>,
    /// Worker threads (`None`: the serial loop).
    pub threads: Option<usize>,
}

impl Exec {
    /// The shipped configuration: one shard per node, serial loop.
    pub const SERIAL: Exec = Exec {
        shards: None,
        threads: None,
    };
}

/// The simulator seed a benchmark `--seed` maps to (SplitMix64's
/// finalizer). The simulator forks per-core streams by XOR-ing the stream
/// id into the seed, so adjacent seeds such as 1 and 2 can hand identical
/// readers permuted copies of the same streams and repeat every aggregate;
/// spreading the seed first gives every benchmark seed its own inputs.
fn sim_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds `workload` with `seed`, runs the warm-up and resets every metric.
/// `window` is the measured window that follows; `replica_churn` schedules
/// its crashes across warm-up plus window. With a `clock`, the first reader
/// core reports the simulated time of each of its events to it.
pub fn build(
    workload: Workload,
    seed: u64,
    exec: Exec,
    window: Time,
    clock: Option<Arc<SliceClock>>,
) -> Rig {
    let nodes = workload.nodes();
    let shards = exec.shards.unwrap_or(nodes);
    let seed = sim_seed(seed);
    let mut b = Builder::default();
    let (cfg, shape) = match workload {
        Workload::RackProtocols => rack_protocols(&mut b, seed),
        Workload::RackWriteMix => rack_write_mix(&mut b, seed),
        Workload::DcSpine => dc_spine(&mut b, seed),
        Workload::DcQuiet => dc_quiet(&mut b, seed),
        Workload::ReplicaChurn => replica_churn(&mut b, seed, window),
    };
    let mut cfg = cfg;
    cfg.shards = shards;
    cfg.threads = exec.threads;

    let mut setup = SetupTimes::default();
    let t = Instant::now();
    let mut cluster = Cluster::new(cfg);
    setup.cluster_new = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for store in &b.stores {
        store.init(cluster.node_memory_mut(store.node() as usize));
    }
    setup.store_init = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for (node, core, make) in b.programs {
        let mut program = make();
        if let Some(clock) = clock.as_ref().filter(|_| (node, core) == shape.readers[0]) {
            program = Box::new(Observed {
                inner: program,
                clock: Arc::clone(clock),
            });
        }
        cluster.add_workload(node, core, program);
    }
    setup.workload_install = t.elapsed().as_secs_f64();

    let t = Instant::now();
    cluster.run_for(WARMUP);
    cluster.reset_metrics();
    setup.warmup = t.elapsed().as_secs_f64();

    Rig {
        fabric_at_reset: FabricCounts::of(&cluster),
        cluster,
        shape,
        setup,
    }
}

type MakeProgram = Box<dyn FnOnce() -> Box<dyn Program>>;

/// The stores and programs of one workload, constructed lazily so their
/// host cost lands in the matching set-up span.
#[derive(Default)]
struct Builder {
    stores: Vec<ObjectStore>,
    programs: Vec<(usize, usize, MakeProgram)>,
}

impl Builder {
    fn reader(&mut self, node: usize, core: usize, spec: sabre_rack::WorkloadSpec) {
        self.programs
            .push((node, core, Box::new(move || spec.build(&[]))));
    }

    fn writer<W: Program + 'static>(
        &mut self,
        node: usize,
        core: usize,
        make: impl FnOnce() -> W + 'static,
    ) {
        self.programs.push((
            node,
            core,
            Box::new(move || Box::new(make()) as Box<dyn Program>),
        ));
    }
}

/// A program wrapper that forwards every hook to `inner`, then reports the
/// hook's simulated time to a [`SliceClock`]. It only observes and runs host
/// code; the simulation is unchanged.
struct Observed {
    inner: Box<dyn Program>,
    clock: Arc<SliceClock>,
}

impl Program for Observed {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        self.inner.on_start(api);
        self.clock.observe(api.now());
    }

    fn on_wake(&mut self, api: &mut CoreApi<'_>) {
        self.inner.on_wake(api);
        self.clock.observe(api.now());
    }

    fn on_completion(&mut self, api: &mut CoreApi<'_>, cq: CqEntry) {
        self.inner.on_completion(api, cq);
        self.clock.observe(api.now());
    }

    fn on_rpc(&mut self, api: &mut CoreApi<'_>, src_node: u8, src_core: u8, tag: u64, bytes: u32) {
        self.inner.on_rpc(api, src_node, src_core, tag, bytes);
        self.clock.observe(api.now());
    }

    fn on_rpc_reply(&mut self, api: &mut CoreApi<'_>, tag: u64, bytes: u32) {
        self.inner.on_rpc_reply(api, tag, bytes);
        self.clock.observe(api.now());
    }
}

fn rack_config(seed: u64) -> ClusterConfig {
    ScenarioBuilder::new().seed(seed).nodes(8).config().clone()
}

fn rack_protocols(b: &mut Builder, seed: u64) -> (ClusterConfig, Shape) {
    let cfg = rack_config(seed);
    let readers = cfg.topology.reader_nodes();
    let stores = cfg.topology.store_nodes();
    let mut shape = Shape {
        readers: Vec::new(),
        pairs: Vec::new(),
        reads: Vec::new(),
        write_wire: None,
        payload: PAYLOAD,
        objects: RACK_OBJECTS,
        slot_bytes: StoreLayout::Clean.object_bytes(PAYLOAD as usize) as u64,
        percl_nodes: Vec::new(),
        abort_free_nodes: Vec::new(),
        armed_sabres: 1,
    };
    for (i, (&reader, &node)) in readers.iter().zip(&stores).enumerate() {
        let (mech, layout, writer_layout) = PROTOCOLS[i % PROTOCOLS.len()];
        let store = ObjectStore::new(node as u8, Addr::new(0), layout, PAYLOAD, RACK_OBJECTS);
        let per_writer = (RACK_OBJECTS as usize).div_ceil(WRITERS_PER_STORE);
        for (w, entries) in store.object_entries().chunks(per_writer).enumerate() {
            let entries = entries.to_vec();
            b.writer(node, w, move || {
                Writer::new(entries, PAYLOAD, writer_layout, Time::ZERO)
            });
        }
        for core in 0..RACK_READER_CORES {
            b.reader(
                reader,
                core,
                spec()
                    .store(node)
                    .payload(PAYLOAD)
                    .mechanism(mech)
                    .wire(store.wire_bytes() as u32)
                    .objects(store.object_addrs())
                    .arrivals(Arrivals::Poisson {
                        ops_per_us: RACK_LOAD,
                    })
                    .popularity(Popularity::Zipf { exponent: 0.99 }),
            );
            shape.readers.push((reader, core));
        }
        shape.pairs.push((reader, node));
        shape.reads.push((mech.op(), store.wire_bytes() as u32));
        match mech {
            ReadMechanism::PerClValidate { .. } => shape.percl_nodes.push(reader),
            ReadMechanism::OhRam { .. } | ReadMechanism::WfRegister { .. } => {
                shape.abort_free_nodes.push(reader)
            }
            _ => {}
        }
        b.stores.push(store);
    }
    (cfg, shape)
}

fn rack_write_mix(b: &mut Builder, seed: u64) -> (ClusterConfig, Shape) {
    let cfg = rack_config(seed);
    let readers = cfg.topology.reader_nodes();
    let stores = cfg.topology.store_nodes();
    let slot = StoreLayout::Clean.object_bytes(PAYLOAD as usize) as u32;
    let mut shape = Shape {
        readers: Vec::new(),
        pairs: Vec::new(),
        reads: vec![(OpKind::Read, slot)],
        write_wire: Some(slot),
        payload: PAYLOAD,
        objects: RACK_OBJECTS,
        slot_bytes: slot as u64,
        percl_nodes: Vec::new(),
        abort_free_nodes: Vec::new(),
        armed_sabres: 0,
    };
    for (&reader, &node) in readers.iter().zip(&stores) {
        let store = ObjectStore::new(
            node as u8,
            Addr::new(0),
            StoreLayout::Clean,
            PAYLOAD,
            RACK_OBJECTS,
        );
        for core in 0..RACK_READER_CORES {
            b.reader(
                reader,
                core,
                spec()
                    .store(node)
                    .payload(PAYLOAD)
                    .mechanism(ReadMechanism::Raw)
                    .wire(slot)
                    .objects(store.object_addrs())
                    .arrivals(Arrivals::Poisson {
                        ops_per_us: RACK_LOAD,
                    })
                    .mix(0.5),
            );
            shape.readers.push((reader, core));
        }
        shape.pairs.push((reader, node));
        b.stores.push(store);
    }
    (cfg, shape)
}

fn dc_spine(b: &mut Builder, seed: u64) -> (ClusterConfig, Shape) {
    let nodes = Workload::DcSpine.nodes();
    let mut cfg = ScenarioBuilder::new()
        .seed(seed)
        .topology(Topology::skewed(nodes / 4, 3))
        .datacenter(DC_SPINE_RACKS, 4, 2)
        .config()
        .clone();
    cfg.memory_bytes = 2 * 1024 * 1024;
    let store_nodes = cfg.topology.store_nodes();
    let stores: Vec<ObjectStore> = store_nodes
        .iter()
        .map(|&n| {
            ObjectStore::new(
                n as u8,
                Addr::new(0),
                StoreLayout::Clean,
                PAYLOAD,
                DC_OBJECTS,
            )
        })
        .collect();
    let slot = stores[0].slot_bytes() as u32;
    let mut shape = Shape {
        readers: Vec::new(),
        pairs: Vec::new(),
        reads: vec![(OpKind::Sabre, slot)],
        write_wire: None,
        payload: PAYLOAD,
        objects: DC_OBJECTS,
        slot_bytes: slot as u64,
        percl_nodes: Vec::new(),
        abort_free_nodes: Vec::new(),
        armed_sabres: 1,
    };
    for (i, &reader) in cfg.topology.reader_nodes().iter().enumerate() {
        let target = cfg.store_for_reader(i);
        let store = &stores[store_nodes
            .iter()
            .position(|&s| s == target)
            .expect("placement returns a store node")];
        b.reader(
            reader,
            0,
            spec()
                .store(target)
                .payload(PAYLOAD)
                .mechanism(ReadMechanism::Sabre)
                .wire(slot)
                .objects(store.object_addrs()),
        );
        shape.readers.push((reader, 0));
        shape.pairs.push((reader, target));
    }
    b.stores = stores;
    (cfg, shape)
}

/// `dc_quiet`'s four readers: two stay leaf-local, two cross the spine.
const QUIET_PAIRS: [(usize, usize); 4] = [(0, 2), (65, 70), (1, 130), (129, 200)];

fn dc_quiet(b: &mut Builder, seed: u64) -> (ClusterConfig, Shape) {
    let mut cfg = ScenarioBuilder::new()
        .seed(seed)
        .nodes(Workload::DcQuiet.nodes())
        .datacenter(4, 8, 2)
        .config()
        .clone();
    cfg.memory_bytes = 1024 * 1024;
    let slot = StoreLayout::Clean.object_bytes(PAYLOAD as usize) as u32;
    let mut shape = Shape {
        readers: Vec::new(),
        pairs: QUIET_PAIRS.to_vec(),
        reads: vec![(OpKind::Sabre, slot)],
        write_wire: None,
        payload: PAYLOAD,
        objects: DC_OBJECTS,
        slot_bytes: slot as u64,
        percl_nodes: Vec::new(),
        abort_free_nodes: Vec::new(),
        armed_sabres: 1,
    };
    for (reader, target) in QUIET_PAIRS {
        let store = ObjectStore::new(
            target as u8,
            Addr::new(0),
            StoreLayout::Clean,
            PAYLOAD,
            DC_OBJECTS,
        );
        b.reader(
            reader,
            0,
            spec()
                .store(target)
                .payload(PAYLOAD)
                .mechanism(ReadMechanism::Sabre)
                .wire(slot)
                .objects(store.object_addrs()),
        );
        shape.readers.push((reader, 0));
        b.stores.push(store);
    }
    (cfg, shape)
}

fn replica_churn(b: &mut Builder, seed: u64, window: Time) -> (ClusterConfig, Shape) {
    let mut cfg = ScenarioBuilder::new()
        .seed(seed)
        .nodes(8)
        .fat_tree(2, 2)
        .config()
        .clone();
    let rack = cfg.fabric.topology;
    let sites = replica_sites(&cfg.topology.store_nodes(), 3, rack);
    // sites[1] never crashes, so a catching-up site always has a live peer
    // to pull from. The crash schedule is part of the workload, like its
    // topology: drawn from a fixed seed, it puts about twenty outages per
    // churned site into one window whatever `--seed` varies (arrivals,
    // replica probes), so one seed's lucky schedule cannot move the
    // averages.
    cfg.fault = FaultProfile {
        nodes: vec![sites[0], sites[2]],
        mtbf: Time::from_us(250),
        mttr: Time::from_us(50),
        horizon: WARMUP + window,
    }
    .generate(CHURN_FAULT_SEED);
    let store = ReplicatedStore::new(
        &sites,
        Addr::new(0),
        StoreLayout::Clean,
        CHURN_PAYLOAD,
        CHURN_OBJECTS,
    );
    let wire = store.slot_bytes() as u32;
    let mut shape = Shape {
        readers: Vec::new(),
        pairs: Vec::new(),
        reads: vec![(OpKind::Read, wire)],
        write_wire: None,
        payload: CHURN_PAYLOAD,
        objects: CHURN_OBJECTS,
        slot_bytes: wire as u64,
        percl_nodes: Vec::new(),
        abort_free_nodes: Vec::new(),
        armed_sabres: 0,
    };
    for reader in cfg.topology.reader_nodes() {
        let view = store.view_for(reader, rack);
        shape.pairs.push((reader, view[0].0));
        for core in 0..RACK_READER_CORES {
            b.reader(
                reader,
                core,
                spec()
                    .payload(CHURN_PAYLOAD)
                    .mechanism(ReadMechanism::Raw)
                    .wire(wire)
                    .replicas(view.clone())
                    .failover_timeout(Time::from_us(10))
                    .replace_on_hops(2.0),
            );
            shape.readers.push((reader, core));
        }
    }
    let log = WriteLog::new(Addr::new(CHURN_LOG_BASE), CHURN_LOG_CAP);
    for &site in &sites {
        let peers: Vec<u8> = sites
            .iter()
            .filter(|&&p| p != site)
            .map(|&p| p as u8)
            .collect();
        let entries = store.object_entries();
        b.writer(site, 0, move || {
            RecoveringWriter::new(
                entries,
                CHURN_PAYLOAD,
                WriterLayout::Clean,
                Time::from_ns(500),
                log,
                peers,
                Addr::new(CHURN_PULL_BUF),
                8,
            )
        });
    }
    b.stores = store.replicas().to_vec();
    (cfg, shape)
}
