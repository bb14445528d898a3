//! Execution invariance: a cluster's execution settings leave no trace.
//!
//! [`ClusterConfig::shards`] and [`ClusterConfig::threads`] are the
//! simulator's only execution settings. `shards` partitions the nodes into
//! contiguous ranges and `threads` advances those ranges on OS worker
//! threads between lookahead-window barriers. Neither may move a simulated
//! bit. This file proves that once, at the cluster, over generated whole
//! scenarios. Each scenario draws from every dimension the simulator has:
//!
//! * **topology** — a 2D mesh, a fat tree with oversubscribed uplinks, or
//!   a two-rack datacenter;
//! * **reader** — each of the seven [`ReadMechanism`]s (SABRe under
//!   speculative OCC, read-version-first OCC and destination locking, and
//!   source locking) and a windowed SABRe reader;
//! * **traffic** — closed-loop, Poisson or on/off arrivals; uniform, Zipf
//!   or hot-set popularity, for every single-store reader; a read/write
//!   mix;
//! * **writers** — a CREW [`Writer`] per store layout (lock-respecting
//!   under destination locking), or a recovering [`Writer`] with a write
//!   log on every replica site;
//! * **replicas** — replica sets read with failover, static or adaptive,
//!   with `replace_on_hops`;
//! * **faults** — crash/restore, a link outage, a leaf outage, a rack
//!   outage, a [`FaultProfile`], and `serve_stale`.
//!
//! Every scenario runs at each (shards, threads) in [`SETTINGS`], and
//! each run must equal the serial one in every core's metrics, every
//! node's [`Totals`], the handled-event counts, the delivered and dropped
//! packet counts, the fabric's hop counters and every node's memory.
//! Where the reader promises atomic reads and only the CREW or recovering
//! writers touch its objects, a [`ReadChecker`] also observes every read,
//! and no run may return a torn one.

mod common;

use std::collections::BTreeSet;
use std::hash::{DefaultHasher, Hasher};

use common::{Ledger, ReadChecker};
use sabres::prelude::*;
use sabres::rack::{CoreMetrics, EventCounts, FaultProfile};
use sabres::sim::HopStats;

/// Generated scenarios.
const SCENARIOS: u64 = 36;

/// The execution settings every scenario replays at: `(shards, threads)`,
/// with `None` shards meaning one shard per node. The first is the
/// serial reference.
const SETTINGS: [(Option<usize>, Option<usize>); 4] = [
    (Some(1), None),
    (Some(2), Some(2)),
    (None, Some(2)),
    (None, Some(4)),
];

/// Simulated length of every run.
const RUN: Time = Time::from_us(24);

/// Memory per node: the stores, the write logs and two reader buffers fit.
const MEMORY: usize = 1 << 20;

/// Objects per store shard or replica.
const OBJECTS: u64 = 12;

/// Write-log ring and catch-up pull buffer on every replica site, between
/// the store (at address 0) and the reader buffers (upper half).
const LOG_BASE: u64 = 256 << 10;
const LOG_CAP: u64 = 1024;
const PULL_BUF: u64 = 384 << 10;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fabric {
    Mesh(usize),
    FatTree,
    Datacenter,
}

/// The reader program and its read protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Reader {
    Raw,
    SabreOcc,
    SabreNoSpec,
    SabreLocking,
    PerCl,
    Checksum,
    WfRegister,
    OhRam,
    /// A windowed SABRe reader (`.window(n)`).
    Window,
    /// A DrTM-style source-locking reader.
    SourceLocking,
}

impl Reader {
    /// Every reader; all but the last, source locking, take replicas.
    const ALL: [Reader; 10] = [
        Reader::Raw,
        Reader::SabreOcc,
        Reader::SabreNoSpec,
        Reader::SabreLocking,
        Reader::PerCl,
        Reader::Checksum,
        Reader::WfRegister,
        Reader::OhRam,
        Reader::Window,
        Reader::SourceLocking,
    ];

    const REPLICABLE: usize = 9;

    fn mechanism(self, payload: u32) -> ReadMechanism {
        match self {
            Reader::Raw => ReadMechanism::Raw,
            Reader::SourceLocking => ReadMechanism::SourceLocking { payload },
            Reader::SabreOcc | Reader::SabreNoSpec | Reader::SabreLocking | Reader::Window => {
                ReadMechanism::Sabre
            }
            Reader::PerCl => ReadMechanism::PerClValidate { payload },
            Reader::Checksum => ReadMechanism::ChecksumValidate { payload },
            Reader::WfRegister => ReadMechanism::WfRegister { payload },
            Reader::OhRam => ReadMechanism::OhRam { payload },
        }
    }

    fn layout(self, payload: u32) -> StoreLayout {
        StoreLayout::of_mechanism(self.mechanism(payload)).map_or(StoreLayout::Clean, |(l, _)| l)
    }

    fn cc_mode(self) -> CcMode {
        if self == Reader::SabreLocking {
            CcMode::Locking
        } else {
            CcMode::Occ
        }
    }

    fn spec_mode(self) -> SpecMode {
        if self == Reader::SabreNoSpec {
            SpecMode::ReadVersionFirst
        } else {
            SpecMode::Speculative
        }
    }
}

/// Fault injection for the run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    None,
    CrashRestore,
    LinkOutage,
    LeafOutage,
    RackOutage,
    Profile,
}

/// One generated scenario.
#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    fabric: Fabric,
    reader: Reader,
    /// Reader cores per reader node.
    reader_cores: usize,
    payload: u32,
    arrivals: Arrivals,
    popularity: Popularity,
    read_fraction: f64,
    /// Replication factor (capped at the store count); `None` reads one
    /// store shard per reader.
    replicas: Option<usize>,
    /// Adaptive failover (with `replace_on_hops`) instead of static.
    migrate: bool,
    /// A recovering [`Writer`] per replica site instead of CREW writers.
    recovering: bool,
    serve_stale: bool,
    writer_think: Time,
    fault: Fault,
}

fn pick<T: Copy>(rng: &mut SimRng, options: &[T]) -> T {
    options[rng.below(options.len() as u64) as usize]
}

impl Scenario {
    /// Draws scenario `i`. Single-store and replicated scenarios
    /// alternate, each kind cycling through its readers (single-store ones
    /// starting with the windowed and source-locking readers, so each
    /// runs twice; replicated ones under CREW writers first, then under
    /// recovering writers); everything else is drawn from the scenario's
    /// own RNG.
    fn generate(i: u64) -> Scenario {
        let mut rng = SimRng::seed(0xE7EC ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let fabric = pick(
            &mut rng,
            &[
                Fabric::Mesh(4),
                Fabric::Mesh(6),
                Fabric::FatTree,
                Fabric::Datacenter,
            ],
        );
        let replicated = i % 2 == 1;
        let round = (i / 2) as usize;
        let reader = if replicated {
            Reader::ALL[round % Reader::REPLICABLE]
        } else {
            Reader::ALL[(round + Reader::REPLICABLE - 1) % Reader::ALL.len()]
        };
        let payload = pick(&mut rng, &[64u32, 208, 480]);
        // Replicated readers take only the closed-loop uniform shape.
        let shaped = !replicated;
        let (arrivals, popularity) = if shaped {
            (
                pick(
                    &mut rng,
                    &[
                        Arrivals::Closed,
                        Arrivals::Poisson { ops_per_us: 1.5 },
                        Arrivals::OnOff {
                            on: Time::from_us(3),
                            off: Time::from_us(2),
                            ops_per_us: 2.0,
                        },
                    ],
                ),
                pick(
                    &mut rng,
                    &[
                        Popularity::Uniform,
                        Popularity::Zipf { exponent: 0.99 },
                        Popularity::HotSet {
                            hot: 2,
                            fraction: 0.8,
                        },
                    ],
                ),
            )
        } else {
            (Arrivals::Closed, Popularity::Uniform)
        };
        // A write mix's one-sided writes store raw payload bytes, which
        // only raw and clean SABRe images read back meaningfully.
        let read_fraction =
            if shaped && matches!(reader, Reader::Raw | Reader::SabreOcc) && rng.chance(0.5) {
                0.7
            } else {
                1.0
            };
        let mut faults = vec![
            Fault::None,
            Fault::CrashRestore,
            Fault::LinkOutage,
            Fault::Profile,
        ];
        if !matches!(fabric, Fabric::Mesh(_)) {
            faults.push(Fault::LeafOutage);
        }
        if fabric == Fabric::Datacenter {
            faults.push(Fault::RackOutage);
        }
        let recovering = replicated && round >= Reader::REPLICABLE;
        Scenario {
            seed: rng.below(1 << 32),
            fabric,
            reader,
            reader_cores: if reader == Reader::Window {
                1
            } else {
                1 + rng.below(2) as usize
            },
            payload,
            arrivals,
            popularity,
            read_fraction,
            replicas: replicated.then(|| 2 + rng.below(2) as usize),
            migrate: replicated && rng.chance(0.5),
            recovering,
            serve_stale: recovering && rng.chance(0.5),
            // A cross-rack SABRe takes microseconds: tight writers would
            // abort every one.
            writer_think: Time::from_ns(if fabric == Fabric::Datacenter {
                pick(&mut rng, &[2000u64, 4000])
            } else {
                pick(&mut rng, &[0u64, 200])
            }),
            fault: pick(&mut rng, &faults),
        }
    }

    /// The dimension values this scenario covers.
    fn covers(&self) -> Vec<String> {
        let fabric = match self.fabric {
            Fabric::Mesh(_) => "mesh",
            Fabric::FatTree => "fat_tree",
            Fabric::Datacenter => "datacenter",
        };
        let mut c = vec![
            format!("fabric:{fabric}"),
            format!("reader:{:?}", self.reader),
            format!("fault:{:?}", self.fault),
        ];
        let arrivals = match self.arrivals {
            Arrivals::Closed => "closed",
            Arrivals::Poisson { .. } => "poisson",
            Arrivals::OnOff { .. } => "on_off",
        };
        let popularity = match self.popularity {
            Popularity::Uniform => "uniform",
            Popularity::Zipf { .. } => "zipf",
            Popularity::HotSet { .. } => "hot_set",
        };
        c.push(format!("arrivals:{arrivals}"));
        c.push(format!("popularity:{popularity}"));
        if matches!(self.reader, Reader::Window | Reader::SourceLocking) {
            let reader = format!("{:?}", self.reader);
            if self.arrivals != Arrivals::Closed {
                c.push(format!("{reader}:open_loop"));
            }
            if self.popularity != Popularity::Uniform {
                c.push(format!("{reader}:skewed"));
            }
            if self.replicas.is_some() {
                c.push(format!("{reader}:replicas"));
            }
        }
        if self.read_fraction < 1.0 {
            c.push("traffic:mix".into());
        }
        c.push(if self.recovering {
            "writer:recovering".into()
        } else if self.crew_writers() {
            format!("writer:{:?}", self.reader.layout(self.payload))
        } else {
            "writer:none".into()
        });
        if self.replicas.is_some() {
            c.push(format!("replicas:migrate={}", self.migrate));
        }
        if self.serve_stale {
            c.push("serve_stale".into());
        }
        if self.checked() {
            c.push(format!("checked:{:?}", self.reader));
            if self.recovering {
                c.push("checked:recovering".into());
            }
        }
        c
    }

    /// The scenario's rack, before any store or workload is placed.
    fn builder(&self) -> ScenarioBuilder {
        let (cc_mode, spec_mode) = (self.reader.cc_mode(), self.reader.spec_mode());
        let serve_stale = self.serve_stale;
        let builder = ScenarioBuilder::new().seed(self.seed);
        let builder = match self.fabric {
            Fabric::Mesh(nodes) => builder.nodes(nodes),
            Fabric::FatTree => builder.nodes(8).fat_tree(2, 2),
            Fabric::Datacenter => builder.nodes(8).datacenter(2, 2, 2),
        };
        builder.configure(move |cfg| {
            cfg.memory_bytes = MEMORY;
            cfg.lightsabres.cc_mode = cc_mode;
            cfg.lightsabres.spec_mode = spec_mode;
            cfg.serve_stale = serve_stale;
        })
    }

    fn fault_plan(&self, cfg: &ClusterConfig) -> FaultPlan {
        let (from, until) = (Time::from_us(5), Time::from_us(12));
        let rack = cfg.fabric.topology;
        let store = cfg.topology.store_nodes()[0];
        let reader = cfg.topology.reader_nodes()[0];
        match self.fault {
            Fault::None => FaultPlan::new(),
            Fault::CrashRestore => FaultPlan::new().crash_restore(store, from, until),
            Fault::LinkOutage => FaultPlan::new().link_outage(reader, store, from, until),
            Fault::LeafOutage => {
                let leaf = rack
                    .leaf_of(store)
                    .expect("leaf outages need a leaf fabric");
                FaultPlan::new().leaf_outage(rack, leaf, from, until)
            }
            Fault::RackOutage => FaultPlan::new().rack_outage(rack, 1, from, until),
            Fault::Profile => FaultProfile {
                nodes: cfg.topology.store_nodes(),
                mtbf: Time::from_us(10),
                mttr: Time::from_us(3),
                horizon: RUN,
            }
            .generate(self.seed),
        }
    }

    /// Builds and runs the scenario at one execution setting, with the
    /// ledger of its checked reads when [`Scenario::checked`].
    fn run(&self, shards: Option<usize>, threads: Option<usize>) -> (RunReport, Option<Ledger>) {
        let builder = self.builder().configure(|cfg| {
            cfg.shards = shards.unwrap_or(cfg.nodes);
            cfg.threads = threads;
        });
        let cfg = builder.config().clone();
        let builder = builder.fault(self.fault_plan(&cfg));
        let topo = cfg.topology.clone();
        let readers = topo.reader_nodes();
        let (payload, layout) = (self.payload, self.reader.layout(self.payload));
        let mech = self.reader.mechanism(payload);
        let checker = self.checked().then(|| ReadChecker::new(mech, payload));
        let observed = |spec: WorkloadSpec| match &checker {
            Some(checker) => checker.attach(spec),
            None => spec,
        };
        let report = match self.replicas {
            None => {
                let (mut scenario, shards) =
                    builder.sharded_store(topo.store_nodes(), layout, payload, OBJECTS);
                for (i, &node) in readers.iter().enumerate() {
                    let shard = &shards[i % shards.len()];
                    let spec = spec()
                        .store(shard.node() as usize)
                        .payload(payload)
                        .objects(shard.object_addrs())
                        .mechanism(mech)
                        .wire(shard.wire_bytes() as u32)
                        .arrivals(self.arrivals)
                        .popularity(self.popularity)
                        .mix(self.read_fraction)
                        .window(self.window());
                    scenario = scenario.readers_spec(node, 0..self.reader_cores, observed(spec));
                }
                for shard in shards.iter().filter(|_| self.crew_writers()) {
                    for (w, entries) in shard.object_entries().chunks(4).enumerate() {
                        scenario =
                            scenario.workload(shard.node() as usize, w, self.writer(entries));
                    }
                }
                scenario.run_for(RUN)
            }
            Some(k) => {
                let rack = cfg.fabric.topology;
                let stores = topo.store_nodes();
                let sites = replica_sites(&stores, k.min(stores.len()), rack);
                let (mut scenario, store) =
                    builder.replicated_store(&sites, layout, payload, OBJECTS);
                for &node in &readers {
                    let mut spec = spec()
                        .replicas(store.view_for(node, rack))
                        .payload(payload)
                        .mechanism(mech)
                        .wire(layout.wire_bytes(payload as usize) as u32)
                        .failover_timeout(self.failover_timeout())
                        .migrate(self.migrate)
                        .window(self.window());
                    if self.migrate {
                        spec = spec.replace_on_hops(2.0);
                    }
                    scenario = scenario.readers_spec(node, 0..self.reader_cores, observed(spec));
                }
                for replica in store.replicas() {
                    let site = replica.node() as usize;
                    if self.recovering {
                        let peers = sites.iter().filter(|&&p| p != site).map(|&p| p as u8);
                        let writer = Writer::new(
                            replica.object_entries(),
                            payload,
                            layout,
                            self.writer_think.max(Time::from_ns(500)),
                        )
                        .recovering(
                            WriteLog::new(Addr::new(LOG_BASE), LOG_CAP),
                            peers.collect(),
                            Addr::new(PULL_BUF),
                            8,
                        );
                        scenario = scenario.workload(site, 0, Box::new(writer));
                    } else {
                        for (w, entries) in replica.object_entries().chunks(4).enumerate() {
                            scenario = scenario.workload(site, w, self.writer(entries));
                        }
                    }
                }
                scenario.run_for(RUN)
            }
        };
        (report, checker.map(|c| c.ledger()))
    }

    /// Whether every read is checked for tearing: the reader promises
    /// atomic reads, and no write mix stores over its objects (a mix's
    /// one-sided write lands on the object's header, not behind it).
    fn checked(&self) -> bool {
        self.reader != Reader::Raw && self.crew_writers()
    }

    /// How long a replicated read waits before failing over: well past a
    /// cross-rack SABRe on the datacenter.
    fn failover_timeout(&self) -> Time {
        Time::from_us(if self.fabric == Fabric::Datacenter {
            8
        } else {
            3
        })
    }

    /// Operations each reader keeps in flight.
    fn window(&self) -> usize {
        if self.reader == Reader::Window {
            4
        } else {
            1
        }
    }

    /// Whether the store shards get CREW writers. A CREW writer must own
    /// its objects exclusively, which a write mix's one-sided writes
    /// break. A source-locking reader's remote lock holds the writer off
    /// like its own.
    fn crew_writers(&self) -> bool {
        self.read_fraction == 1.0
    }

    /// A CREW writer over `entries` (lock-respecting under destination
    /// locking, as every writer is).
    fn writer(&self, entries: &[(u64, Addr)]) -> Box<dyn Workload> {
        let layout = self.reader.layout(self.payload);
        let writer = Writer::new(entries.to_vec(), self.payload, layout, self.writer_think);
        Box::new(writer)
    }
}

/// Everything a run can show.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    cores: Vec<CoreMetrics>,
    nodes: Vec<Totals>,
    events: EventCounts,
    delivered: u64,
    dropped: u64,
    hops: HopStats,
    memory: Vec<u64>,
}

impl Fingerprint {
    fn of(report: &RunReport) -> Fingerprint {
        let cluster = report.cluster();
        let cfg = cluster.config();
        let nodes = 0..cfg.nodes;
        Fingerprint {
            cores: nodes
                .clone()
                .flat_map(|n| (0..cfg.cores_per_node).map(move |c| report.core(n, c).clone()))
                .collect(),
            nodes: nodes.clone().map(|n| report.node(n)).collect(),
            events: cluster.events_handled(),
            delivered: cluster.packets_delivered(),
            dropped: cluster.packets_dropped(),
            hops: cluster.fabric().hop_stats(),
            memory: nodes
                .map(|n| {
                    let mem = cluster.node_memory(n);
                    let mut h = DefaultHasher::new();
                    h.write(mem.slice(Addr::new(0), mem.size()));
                    h.finish()
                })
                .collect(),
        }
    }

    /// Panics at the first field that differs from `serial`.
    fn assert_matches(&self, serial: &Fingerprint, label: &str) {
        for (i, (a, b)) in self.cores.iter().zip(&serial.cores).enumerate() {
            assert_eq!(a, b, "{label}: core slot {i} diverged");
        }
        for (n, (a, b)) in self.nodes.iter().zip(&serial.nodes).enumerate() {
            assert_eq!(a, b, "{label}: node {n} totals diverged");
        }
        assert_eq!(
            self.events, serial.events,
            "{label}: handled events diverged"
        );
        assert_eq!(
            self.delivered, serial.delivered,
            "{label}: delivered packets diverged"
        );
        assert_eq!(
            self.dropped, serial.dropped,
            "{label}: dropped packets diverged"
        );
        assert_eq!(
            self.hops, serial.hops,
            "{label}: fabric hop counters diverged"
        );
        for (n, (a, b)) in self.memory.iter().zip(&serial.memory).enumerate() {
            assert_eq!(a, b, "{label}: node {n} memory diverged");
        }
        // Anything left, such as a differing core or node count.
        assert_eq!(self, serial, "{label}");
    }
}

#[test]
fn generated_scenarios_are_bit_identical_at_every_execution_setting() {
    let mut covered = BTreeSet::new();
    for i in 0..SCENARIOS {
        let scenario = Scenario::generate(i);
        covered.extend(scenario.covers());
        let mut serial = None;
        for &(shards, threads) in &SETTINGS {
            let label =
                format!("scenario {i} at shards {shards:?}, threads {threads:?}: {scenario:?}");
            let (report, ledger) = scenario.run(shards, threads);
            if let Some(ledger) = ledger {
                assert_eq!(ledger.torn, 0, "{label}: torn reads returned: {ledger:?}");
                assert!(ledger.verified > 0, "{label}: no read was checked");
            }
            let run = Fingerprint::of(&report);
            match &serial {
                None => {
                    assert!(
                        run.nodes.iter().any(|n| n.metrics.ops > 0),
                        "{label}: no reads completed"
                    );
                    serial = Some(run);
                }
                Some(serial) => run.assert_matches(serial, &label),
            }
        }
    }

    let mut required: Vec<String> = [
        "fabric:mesh",
        "fabric:fat_tree",
        "fabric:datacenter",
        "arrivals:closed",
        "arrivals:poisson",
        "arrivals:on_off",
        "popularity:uniform",
        "popularity:zipf",
        "popularity:hot_set",
        "traffic:mix",
        "writer:Clean",
        "writer:PerCl",
        "writer:Checksum",
        "writer:WfRegister",
        "writer:recovering",
        "replicas:migrate=true",
        "replicas:migrate=false",
        "serve_stale",
        "Window:open_loop",
        "Window:skewed",
        "Window:replicas",
        "SourceLocking:open_loop",
        "SourceLocking:skewed",
    ]
    .map(String::from)
    .to_vec();
    for reader in Reader::ALL {
        required.push(format!("reader:{reader:?}"));
        if reader != Reader::Raw {
            required.push(format!("checked:{reader:?}"));
        }
    }
    required.push("checked:recovering".into());
    for fault in [
        Fault::None,
        Fault::CrashRestore,
        Fault::LinkOutage,
        Fault::LeafOutage,
        Fault::RackOutage,
        Fault::Profile,
    ] {
        required.push(format!("fault:{fault:?}"));
    }
    let missing: Vec<&String> = required.iter().filter(|r| !covered.contains(*r)).collect();
    assert!(
        missing.is_empty(),
        "the generator never covered {missing:?}"
    );
}
