//! Declarative experiment construction and parallel sweep execution.
//!
//! Every experiment on the simulated rack follows the same ritual: build a
//! [`Cluster`] from a (possibly tweaked) [`ClusterConfig`], lay out data
//! regions in functional memory, install workload programs on cores, run
//! for some simulated time, and scrape metrics. [`ScenarioBuilder`] makes
//! that ritual declarative — the scenario is *described* up front and
//! materialized only when [`ScenarioBuilder::run`] fires — and
//! [`RunReport`] reads the run back at three grains: one core's
//! [`CoreMetrics`], and one node's or the whole rack's [`Totals`] (core
//! metrics, [`R2p2Stats`], [`EngineStats`], [`HopStats`] and goodput,
//! merged by one function), plus the finished [`Cluster`] for ad-hoc
//! inspection (simulated time, functional memory, configuration).
//!
//! Because each simulated cluster is a self-contained world,
//! *independent* scenarios are embarrassingly parallel: [`Sweep`] runs
//! one scenario per sweep point across OS threads and returns the
//! results in input order, bit-identical to a serial run. A scenario has
//! no execution knobs of its own: the cluster's in-run threading is
//! [`ClusterConfig::shards`] and [`ClusterConfig::threads`], set through
//! [`ScenarioBuilder::configure`] like any other configuration field,
//! and no result depends on them.
//!
//! ```
//! use sabre_rack::scenario::{ScenarioBuilder, Sweep};
//! use sabre_rack::{spec, ReadMechanism};
//! use sabre_sim::Time;
//!
//! let latencies: Vec<f64> = Sweep::over([64u32, 256, 1024])
//!     .map(|&size| {
//!         ScenarioBuilder::new()
//!             .raw_region(1, size)
//!             .reader_spec(
//!                 0,
//!                 0,
//!                 spec().store(1).payload(size).mechanism(ReadMechanism::Sabre),
//!             )
//!             .run_for(Time::from_us(30))
//!             .core(0, 0)
//!             .latency
//!             .mean()
//!             .expect("ops completed")
//!     });
//! assert_eq!(latencies.len(), 3);
//! assert!(latencies[0] < latencies[2], "larger transfers take longer");
//! ```

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use sabre_core::EngineStats;
use sabre_mem::Addr;
use sabre_sim::{HopStats, Time};
use sabre_sonuma::r2p2::R2p2Stats;

use crate::cluster::Cluster;
use crate::config::{ClusterConfig, PlacementPolicy, Topology};
use crate::metrics::CoreMetrics;
use crate::spec::WorkloadSpec;
use crate::workload::Workload;

type PrepareFn = Box<dyn FnOnce(&mut Cluster) -> Vec<Addr>>;
type FactoryFn = Box<dyn FnOnce(&[Addr]) -> Box<dyn Workload>>;

/// The `SABRES_THREADS` environment cap on [`Sweep`] workers.
pub(crate) fn threads_from_env() -> Option<usize> {
    let v = std::env::var("SABRES_THREADS").ok()?;
    match v.trim().parse::<usize>() {
        Ok(n) => Some(n.max(1)),
        Err(_) => {
            // An unparseable cap must not silently become "use every
            // core" — that is the opposite of what the user asked.
            eprintln!("warning: ignoring unparseable SABRES_THREADS={v:?} (want an integer)");
            None
        }
    }
}

/// A declarative description of one experiment on the simulated rack.
///
/// Construction order is preserved exactly: region preparations run in
/// declaration order against the fresh cluster, then workloads are
/// installed in declaration order, then the simulation runs — so a
/// scenario with the same seed replays bit-identically to hand-wired
/// [`Cluster`] construction performing the same steps.
pub struct ScenarioBuilder {
    cfg: ClusterConfig,
    prepares: Vec<PrepareFn>,
    workloads: Vec<(usize, usize, FactoryFn)>,
    warmup: Time,
    measure: Time,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioBuilder {
    /// A scenario on the default Table-2 rack.
    pub fn new() -> Self {
        Self::with_config(ClusterConfig::default())
    }

    /// A scenario on an explicit configuration.
    pub fn with_config(cfg: ClusterConfig) -> Self {
        ScenarioBuilder {
            cfg,
            prepares: Vec::new(),
            workloads: Vec::new(),
            warmup: Time::ZERO,
            measure: Time::ZERO,
        }
    }

    /// Tweaks the cluster configuration in place.
    pub fn configure(mut self, f: impl FnOnce(&mut ClusterConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// The configuration the scenario will build its cluster from (e.g. to
    /// derive core counts when placing workloads).
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Sets the RNG seed for all workloads.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Resizes the rack to `n` nodes
    /// ([`ClusterConfig::resize_to`]): rack-level 2D-mesh fabric beyond
    /// two nodes, half reader / half store roles, 16 MB per-node memory
    /// (when untweaked). Call before placement helpers that consult the
    /// topology.
    pub fn nodes(mut self, n: usize) -> Self {
        self.cfg.resize_to(n);
        self
    }

    /// Declares an explicit per-node role [`Topology`]; the node count and
    /// fabric follow it (the fabric resets to the default shape for that
    /// size — call [`ScenarioBuilder::fat_tree`] *after* this to keep a
    /// leaf/spine fabric).
    pub fn topology(mut self, topology: Topology) -> Self {
        let n = topology.len();
        self.cfg.resize_to(n);
        self.cfg.topology = topology;
        self
    }

    /// Sets the reader→shard [`PlacementPolicy`] on the current role
    /// topology (call after [`ScenarioBuilder::nodes`] /
    /// [`ScenarioBuilder::topology`], which reset it to
    /// [`PlacementPolicy::RoundRobin`]). The policy is consulted through
    /// [`ClusterConfig::store_for_reader`] when experiments assign readers
    /// to shards.
    pub fn placement(mut self, placement: PlacementPolicy) -> Self {
        self.cfg.topology = self.cfg.topology.clone().with_placement(placement);
        self
    }

    /// Rewires the rack fabric as a two-level leaf/spine fat tree
    /// ([`sabre_fabric::RackTopology::FatTree`]): `radix` nodes per leaf,
    /// uplinks oversubscribed `oversubscription`:1. Call after
    /// [`ScenarioBuilder::nodes`] / [`ScenarioBuilder::topology`], which
    /// reset the fabric to the default crossbar/mesh shape.
    ///
    /// ```
    /// use sabre_rack::{spec, PlacementPolicy, ReadMechanism, ScenarioBuilder, Topology};
    /// use sabre_sim::Time;
    ///
    /// // A skewed 1:3 rack (stores 0 and 4, three readers each) on a 4:1
    /// // oversubscribed fat tree, readers pinned to their nearest shard.
    /// let builder = ScenarioBuilder::new()
    ///     .topology(Topology::skewed(2, 3).with_placement(PlacementPolicy::NearestShard))
    ///     .fat_tree(4, 4);
    /// let cfg = builder.config().clone();
    /// let readers = cfg.topology.reader_nodes();
    /// let report = builder
    ///     .raw_region_sized(0, 256, 8)
    ///     .raw_region_sized(4, 256, 8)
    ///     .readers_grid_spec(
    ///         readers.iter().map(|&n| (n, 0)).collect::<Vec<_>>(),
    ///         move |node, _core, targets| {
    ///             // NearestShard keeps every reader on its own leaf.
    ///             let i = cfg.topology.reader_nodes().iter().position(|&r| r == node).unwrap();
    ///             let store = cfg.store_for_reader(i);
    ///             let slice = if store == 0 { &targets[..8] } else { &targets[8..] };
    ///             spec()
    ///                 .store(store)
    ///                 .payload(256)
    ///                 .mechanism(ReadMechanism::Sabre)
    ///                 .objects(slice.to_vec())
    ///         },
    ///     )
    ///     .run_for(Time::from_us(10));
    /// let reader = report.node(1);
    /// assert!(reader.metrics.ops > 0, "leaf-0 readers progress");
    /// assert_eq!(reader.hops.mean_hops(), 1.0, "no reader ever crosses the spine");
    /// ```
    pub fn fat_tree(mut self, radix: u8, oversubscription: u8) -> Self {
        self.cfg.fabric.topology = sabre_fabric::RackTopology::FatTree {
            radix,
            oversubscription,
        };
        self
    }

    /// Rewires the fabric as a two-level datacenter
    /// ([`sabre_fabric::RackTopology::Datacenter`]): `racks` racks of
    /// `radix`-ary fat trees joined by an inter-rack spine with the
    /// calibrated 350 ns per-crossing latency
    /// ([`sabre_fabric::RackTopology::datacenter_for`]). Call after
    /// [`ScenarioBuilder::nodes`] / [`ScenarioBuilder::topology`], which
    /// reset the fabric to the default crossbar/mesh shape; the node count
    /// must fit `racks * radix^2` slots
    /// (checked by [`ClusterConfig::validate`] at run time).
    pub fn datacenter(mut self, racks: u8, radix: u8, oversubscription: u8) -> Self {
        self.cfg.fabric.topology =
            sabre_fabric::RackTopology::datacenter_for(racks, radix, oversubscription);
        self
    }

    /// Schedules node crashes and link outages for the run
    /// ([`ClusterConfig::fault`]): the plan is injected at window barriers,
    /// so it leaves the run independent of the execution settings. See
    /// [`crate::fault`] for the failure model.
    pub fn fault(mut self, plan: crate::fault::FaultPlan) -> Self {
        self.cfg.fault = plan;
        self
    }

    /// Registers a region-preparation step: it receives the fresh cluster
    /// before any workload starts and returns the target addresses it laid
    /// out (possibly none). Targets of every preparation, in declaration
    /// order, are concatenated and handed to the workload factories.
    pub fn prepare(mut self, f: impl FnOnce(&mut Cluster) -> Vec<Addr> + 'static) -> Self {
        self.prepares.push(Box::new(f));
        self
    }

    /// Declares a memory-resident region of raw transfer targets of `size`
    /// bytes each on `node`: enough slots (≈16 MB) that uniform random
    /// access misses the 2 MB LLC, as in the paper's "remote data is memory
    /// resident" setups. Each target starts with an even (unlocked) version
    /// word.
    pub fn raw_region(self, node: usize, size: u32) -> Self {
        let slot = (size as u64).div_ceil(64) * 64;
        let count = (16 * 1024 * 1024 / slot).clamp(1, 16_384);
        self.raw_region_sized(node, size, count)
    }

    /// [`ScenarioBuilder::raw_region`] with an explicit target count.
    pub fn raw_region_sized(self, node: usize, size: u32, count: u64) -> Self {
        let slot = (size as u64).div_ceil(64) * 64;
        self.prepare(move |cluster| {
            let mem = cluster.node_memory_mut(node);
            let mut addrs = Vec::with_capacity(count as usize);
            for i in 0..count {
                let base = Addr::new(i * slot);
                mem.write_u64(base, 0);
                addrs.push(base);
            }
            addrs
        })
    }

    /// Pre-warms node `node`'s LLC over every block of `[base, base+bytes)`
    /// before the workloads start (LLC-resident working sets).
    pub fn warm_llc(self, node: usize, base: Addr, bytes: u64) -> Self {
        self.prepare(move |cluster| {
            cluster.warm_llc(node, base, bytes);
            Vec::new()
        })
    }

    /// Places a workload built by `factory` on `core` of `node`. The
    /// factory receives the concatenated target addresses of every declared
    /// region.
    pub fn reader(
        mut self,
        node: usize,
        core: usize,
        factory: impl FnOnce(&[Addr]) -> Box<dyn Workload> + 'static,
    ) -> Self {
        self.workloads.push((node, core, Box::new(factory)));
        self
    }

    /// Places one workload per core in `cores`, each built by `factory`
    /// from `(core, targets)`.
    pub fn readers(
        mut self,
        node: usize,
        cores: impl IntoIterator<Item = usize>,
        factory: impl Fn(usize, &[Addr]) -> Box<dyn Workload> + 'static,
    ) -> Self {
        let factory = std::rc::Rc::new(factory);
        for core in cores {
            let f = std::rc::Rc::clone(&factory);
            self.workloads.push((
                node,
                core,
                Box::new(move |targets: &[Addr]| f(core, targets)),
            ));
        }
        self
    }

    /// Places an already-built workload on `core` of `node`.
    pub fn workload(self, node: usize, core: usize, w: Box<dyn Workload>) -> Self {
        self.reader(node, core, move |_| w)
    }

    /// Places the workload declared by a [`WorkloadSpec`] on `core` of
    /// `node` — the declarative counterpart of [`ScenarioBuilder::reader`].
    /// The spec's default object set is the concatenated targets of every
    /// declared region.
    pub fn reader_spec(self, node: usize, core: usize, spec: WorkloadSpec) -> Self {
        self.reader(node, core, move |targets| spec.build(targets))
    }

    /// Places one copy of the spec's workload on every core in `cores` —
    /// the declarative counterpart of [`ScenarioBuilder::readers`].
    pub fn readers_spec(
        self,
        node: usize,
        cores: impl IntoIterator<Item = usize>,
        spec: WorkloadSpec,
    ) -> Self {
        self.readers(node, cores, move |_core, targets| spec.build(targets))
    }

    /// Places one spec-declared workload per `(node, core)` placement,
    /// with `factory` producing the spec from `(node, core, targets)` —
    /// the N-node generalization of [`ScenarioBuilder::readers_spec`],
    /// used with the topology's [`Topology::reader_nodes`] to spread a
    /// workload across every reader node of the rack. `targets` lets
    /// per-node factories slice the region targets into explicit
    /// [`WorkloadSpec::objects`].
    pub fn readers_grid_spec(
        mut self,
        placements: impl IntoIterator<Item = (usize, usize)>,
        factory: impl Fn(usize, usize, &[Addr]) -> WorkloadSpec + 'static,
    ) -> Self {
        let factory = std::rc::Rc::new(factory);
        for (node, core) in placements {
            let f = std::rc::Rc::clone(&factory);
            self.workloads.push((
                node,
                core,
                Box::new(move |targets: &[Addr]| f(node, core, targets).build(targets)),
            ));
        }
        self
    }

    /// Declares a warmup window: the simulation runs for `t` before the
    /// measurement window, then every metric and statistic is reset
    /// ([`Cluster::reset_metrics`]), so cold-start effects (LLC fills,
    /// empty pipelines) are excluded from the report.
    pub fn warmup(mut self, t: Time) -> Self {
        self.warmup = t;
        self
    }

    /// Declares the measurement window: the simulated duration the report's
    /// metrics cover.
    pub fn measure(mut self, t: Time) -> Self {
        self.measure = t;
        self
    }

    /// Materializes and runs the scenario: builds the cluster, runs every
    /// preparation, installs every workload, simulates the warmup window
    /// (if any, resetting metrics after it), then the measurement window.
    ///
    /// # Panics
    ///
    /// Panics if no measurement window was declared (a zero-length window
    /// would silently measure nothing — call [`ScenarioBuilder::measure`]
    /// or use [`ScenarioBuilder::run_for`]), if the configuration is
    /// invalid, or if a workload placement is out of range — programming
    /// errors, exactly as with hand-wired construction.
    pub fn run(self) -> RunReport {
        assert!(
            self.measure > Time::ZERO,
            "no measurement window declared: call .measure(t) (or .run_for(t)) before .run()"
        );
        let mut cluster = Cluster::new(self.cfg);
        let mut targets = Vec::new();
        for prep in self.prepares {
            targets.extend(prep(&mut cluster));
        }
        for (node, core, factory) in self.workloads {
            cluster.add_workload(node, core, factory(&targets));
        }
        if self.warmup > Time::ZERO {
            cluster.run_for(self.warmup);
            cluster.reset_metrics();
        }
        let start = cluster.now();
        cluster.run_for(self.measure);
        let measured = cluster.now() - start;
        RunReport { cluster, measured }
    }

    /// Shorthand: sets the measurement window to `t` and runs.
    pub fn run_for(self, t: Time) -> RunReport {
        self.measure(t).run()
    }
}

/// Everything an experiment reads back from one scenario run: the
/// finished cluster, the measurement window, and its counters per core
/// ([`RunReport::core`]), per node ([`RunReport::node`]) or rack-wide
/// ([`RunReport::rack`]).
pub struct RunReport {
    cluster: Cluster,
    measured: Time,
}

/// The counters of a set of nodes, merged: every core's metrics, every
/// destination pipeline's R2P2 and engine statistics, and the nodes'
/// fabric ports. Counters merge exactly (integer addition or max) and
/// goodput sums in node order, so a total is bit-identical at every
/// shard × thread setting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Core metrics summed over every core. The float
    /// [`CoreMetrics::latency`] mean is not merged; read percentiles from
    /// [`CoreMetrics::latency_hist`] (or one core's mean via
    /// [`RunReport::core`]).
    pub metrics: CoreMetrics,
    /// R2P2 statistics summed over every pipeline.
    pub r2p2: R2p2Stats,
    /// LightSABRes engine statistics summed over every pipeline.
    pub engine: EngineStats,
    /// Hop and queue counters of every packet the nodes sent
    /// ([`HopStats::mean_hops`], [`HopStats::spine_share`]).
    pub hops: HopStats,
    /// Goodput over the measurement window in GB/s: each node's successful
    /// reader bytes over the window, summed in node order.
    pub gbps: f64,
}

impl RunReport {
    /// The finished cluster, for ad-hoc inspection (simulated time,
    /// functional memory, configuration, per-pipe statistics).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Length of the measurement window the metrics cover (excludes
    /// warmup).
    pub fn measured(&self) -> Time {
        self.measured
    }

    /// Metrics of one core.
    pub fn core(&self, node: usize, core: usize) -> &CoreMetrics {
        self.cluster.metrics(node, core)
    }

    /// The counters of one node.
    pub fn node(&self, node: usize) -> Totals {
        self.totals(node..node + 1)
    }

    /// The counters of the whole rack.
    pub fn rack(&self) -> Totals {
        self.totals(0..self.cluster.config().nodes)
    }

    fn totals(&self, nodes: Range<usize>) -> Totals {
        let cfg = self.cluster.config();
        let mut t = Totals::default();
        for node in nodes {
            let mut m = CoreMetrics::default();
            for core in 0..cfg.cores_per_node {
                m.merge(self.cluster.metrics(node, core));
            }
            t.gbps += m.gbps(self.measured);
            t.metrics.merge(&m);
            for pipe in 0..cfg.rmc_backends {
                t.r2p2.merge(&self.cluster.r2p2_stats(node, pipe));
                t.engine.merge(&self.cluster.engine_stats(node, pipe));
            }
            t.hops.merge(&self.cluster.fabric().node_hop_stats(node));
        }
        t
    }
}

/// A grid of independent sweep points, executed in parallel across OS
/// threads (each point builds its own self-contained [`Cluster`], so
/// points never share state) with results collected in input order.
///
/// The thread count resolves, in priority order: an explicit
/// [`Sweep::threads`] call, the `SABRES_THREADS` environment variable,
/// then the machine's available parallelism — always clamped to the number
/// of points.
pub struct Sweep<P> {
    points: Vec<P>,
    threads: Option<usize>,
}

impl<P: Send + Sync> Sweep<P> {
    /// Declares the sweep points.
    pub fn over(points: impl IntoIterator<Item = P>) -> Self {
        Sweep {
            points: points.into_iter().collect(),
            threads: None,
        }
    }

    /// Caps the worker thread count (1 forces a serial run).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Number of declared points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the sweep has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    fn resolve_threads(&self, points: usize) -> usize {
        let n = self.threads.or_else(threads_from_env).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        n.clamp(1, points.max(1))
    }

    /// Runs `f` on every point and returns the results in input order.
    ///
    /// With more than one worker thread, points are pulled from a shared
    /// cursor, so long points overlap short ones; `f` must therefore be
    /// independent per point (true for any function that builds its own
    /// scenario). A panic in any point propagates.
    pub fn map<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&P) -> R + Sync,
    {
        let n = self.points.len();
        if n == 0 {
            return Vec::new();
        }
        let threads = self.resolve_threads(n);
        if threads <= 1 {
            return self.points.iter().map(f).collect();
        }
        let points = &self.points;
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(&points[i]);
                    *slots[i].lock().expect("sweep slot poisoned") = Some(r);
                });
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("sweep slot poisoned")
                    .expect("every point produced a result")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec;

    fn small() -> ClusterConfig {
        ClusterConfig {
            memory_bytes: 4 * 1024 * 1024,
            ..ClusterConfig::default()
        }
    }

    fn one_reader(size: u32) -> ScenarioBuilder {
        ScenarioBuilder::with_config(small())
            .raw_region_sized(1, size, 64)
            .reader_spec(0, 0, spec().store(1).payload(size))
    }

    #[test]
    fn factories_receive_declared_targets() {
        let report = ScenarioBuilder::with_config(small())
            .raw_region_sized(1, 128, 8)
            .reader(0, 0, |targets| {
                assert_eq!(targets.len(), 8);
                assert_eq!(targets[1], Addr::new(128));
                spec().store(1).payload(128).iterations(3).build(targets)
            })
            .run_for(Time::from_us(20));
        assert_eq!(report.core(0, 0).ops, 3);
        assert!(report.measured() == Time::from_us(20));
    }

    #[test]
    fn scenario_replays_identically_to_hand_wiring() {
        let scenario = one_reader(256).run_for(Time::from_us(40));

        let mut cluster = Cluster::new(small());
        let mem = cluster.node_memory_mut(1);
        let mut targets = Vec::new();
        for i in 0..64u64 {
            mem.write_u64(Addr::new(i * 256), 0);
            targets.push(Addr::new(i * 256));
        }
        cluster.add_workload(0, 0, spec().store(1).payload(256).build(&targets));
        cluster.run_for(Time::from_us(40));

        assert_eq!(scenario.core(0, 0).ops, cluster.metrics(0, 0).ops);
        assert_eq!(
            scenario.core(0, 0).latency.mean(),
            cluster.metrics(0, 0).latency.mean()
        );
        assert_eq!(scenario.node(1).r2p2.plain_reads, {
            let mut t = R2p2Stats::default();
            for p in 0..4 {
                t.merge(&cluster.r2p2_stats(1, p));
            }
            t.plain_reads
        });
    }

    #[test]
    fn warmup_window_excludes_cold_start() {
        let full = one_reader(512).run_for(Time::from_us(60));
        let windowed = one_reader(512)
            .warmup(Time::from_us(30))
            .measure(Time::from_us(30))
            .run();
        assert_eq!(windowed.cluster().now(), Time::from_us(60));
        assert_eq!(windowed.measured(), Time::from_us(30));
        assert!(windowed.core(0, 0).ops > 0);
        assert!(
            windowed.core(0, 0).ops < full.core(0, 0).ops,
            "measurement window must cover fewer ops than the full run"
        );
    }

    #[test]
    fn sweep_parallel_matches_serial_in_order() {
        let run = |size: u32| {
            let r = one_reader(size).run_for(Time::from_us(30));
            (size, r.core(0, 0).ops, r.core(0, 0).latency.mean())
        };
        let serial = Sweep::over([64u32, 512, 2048]).threads(1).map(|&s| run(s));
        let parallel = Sweep::over([64u32, 512, 2048]).threads(3).map(|&s| run(s));
        assert_eq!(serial, parallel);
        assert_eq!(serial[0].0, 64, "results must come back in input order");
        assert_eq!(serial[2].0, 2048);
    }

    #[test]
    fn multi_node_scenario_reports_per_node() {
        // 4-node rack: readers on the topology's reader nodes, each
        // reading raw targets from its paired store node.
        let mut builder = ScenarioBuilder::new().nodes(4);
        let topo = builder.config().topology.clone();
        assert_eq!(topo.reader_nodes(), vec![0, 1]);
        for &store in &topo.store_nodes() {
            builder = builder.raw_region_sized(store, 256, 32);
        }
        let placements: Vec<(usize, usize)> = topo
            .reader_nodes()
            .into_iter()
            .map(|node| (node, 0))
            .collect();
        let topo_for_factory = topo.clone();
        let rack = builder.config().fabric.topology;
        let report = builder
            .readers_grid_spec(placements, move |node, _core, targets| {
                // Targets are concatenated store-node order: 32 per shard.
                // store_for_reader takes the reader *index*, not the node id.
                let reader_index = topo_for_factory
                    .reader_nodes()
                    .iter()
                    .position(|&r| r == node)
                    .expect("placement is a reader node");
                let store = topo_for_factory.store_for_reader(reader_index, rack);
                let slice = if store == 2 {
                    &targets[..32]
                } else {
                    &targets[32..]
                };
                spec().store(store).payload(256).objects(slice.to_vec())
            })
            .run_for(Time::from_us(30));
        assert_eq!(report.cluster().config().nodes, 4);
        let nodes: Vec<Totals> = (0..4).map(|n| report.node(n)).collect();
        for (node, n) in nodes.iter().enumerate() {
            match topo.role(node) {
                crate::config::NodeRole::Reader => {
                    assert!(n.metrics.ops > 0, "reader node {node} made no progress");
                    assert!(n.gbps > 0.0);
                }
                crate::config::NodeRole::Store => {
                    assert!(n.r2p2.plain_reads > 0, "store node {node} served no reads");
                    assert_eq!(n.metrics.ops, 0);
                }
            }
        }
        let rack = report.rack();
        assert!(rack.gbps > 0.0);
        let summed: f64 = nodes.iter().map(|n| n.gbps).sum();
        assert_eq!(
            rack.gbps, summed,
            "rack goodput sums node goodputs in node order"
        );
        let mut merged = Totals::default();
        for n in &nodes {
            merged.metrics.merge(&n.metrics);
            merged.r2p2.merge(&n.r2p2);
            merged.engine.merge(&n.engine);
            merged.hops.merge(&n.hops);
        }
        merged.gbps = summed;
        assert_eq!(rack, merged, "the rack is the merge of its nodes");
        // The float latency mean merges with the counters: one sample per
        // success, averaging what the histogram averages (it truncates
        // each sample to whole ns).
        let m = &rack.metrics;
        assert_eq!(m.latency.count(), m.ops);
        assert_eq!(m.latency_hist.count(), m.ops);
        let hist_mean = m.latency_hist.sum_ns() as f64 / m.ops as f64;
        let mean = m.latency.mean().expect("the readers completed ops");
        assert!(
            (0.0..1.0).contains(&(mean - hist_mean)),
            "mean {mean} vs histogram mean {hist_mean}"
        );
    }

    #[test]
    fn datacenter_scenario_reports_spine_traffic() {
        // 8 nodes on a 2-rack radix-2 datacenter: reader 0 (rack 0) reads
        // from store 6 (rack 1), so every one of its packets crosses the
        // spine — and the streaming hop counters must say exactly that.
        let report = ScenarioBuilder::with_config(small())
            .nodes(8)
            .datacenter(2, 2, 1)
            .raw_region_sized(6, 256, 32)
            .reader_spec(0, 0, spec().store(6).payload(256))
            .run_for(Time::from_us(30));
        assert!(report.core(0, 0).ops > 0, "cross-rack reads complete");
        let rack_wide = report.rack().hops;
        assert!(rack_wide.packets > 0);
        assert!(rack_wide.spine_crossings > 0);
        let reader = report.node(0).hops;
        assert_eq!(
            reader.spine_crossings, reader.packets,
            "every reader packet crosses the spine"
        );
        assert!((reader.spine_share() - 1.0).abs() < 1e-12);
        assert!(reader.mean_hops() >= 5.0, "cross-rack routes are 5 hops");
        // The store's replies cross right back.
        let store = report.node(6).hops;
        assert_eq!(store.spine_crossings, store.packets);
    }

    #[test]
    fn sweep_handles_empty_and_oversubscribed() {
        let empty: Vec<u32> = Sweep::over(std::iter::empty::<u32>()).map(|&x| x);
        assert!(empty.is_empty());
        let out = Sweep::over(0u32..5).threads(64).map(|&x| x * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
    }
}
