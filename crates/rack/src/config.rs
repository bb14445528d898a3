//! Cluster configuration: Table 2 of the paper plus the handful of
//! calibration constants the table implies but does not state outright,
//! plus the rack topology (node count and per-node roles) that opens the
//! beyond-paper N-node scenario family.

use sabre_core::{CcMode, LightSabresConfig};
use sabre_fabric::{FabricConfig, RackTopology};
use sabre_mem::MemTimingConfig;
use sabre_sim::{Freq, Time};
use sabre_sw::CpuCostModel;

use crate::fault::FaultPlan;

/// What a node contributes to a scenario — the role split experiments
/// declare placements against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRole {
    /// Runs reader cores issuing one-sided operations at remote stores.
    Reader,
    /// Hosts a store shard (data + local writer threads).
    Store,
}

/// How reader nodes are assigned to store shards — the knob
/// [`Topology::store_for_reader`] dispatches on.
///
/// Assignment quality is a fabric-geometry question: on the 8-node mesh
/// (and any oversubscribed fat tree) a badly placed reader pays extra
/// routed hops — and, on a fat tree, uplink queueing — on every packet of
/// every read. The `fig_placement` experiment sweeps these policies
/// against topology families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Reader `i` targets the `i % S`-th store node (the historical
    /// default; ignores geometry).
    RoundRobin,
    /// Reader `i` targets a store node at minimal routed hop distance
    /// under the rack's [`RackTopology`]; among equally-near shards it
    /// round-robins by reader index, so load still spreads (and on a
    /// crossbar, where every shard is one hop away, it degenerates to
    /// exactly [`PlacementPolicy::RoundRobin`]).
    NearestShard,
}

/// The rack's role topology: which nodes host store shards and which host
/// readers, plus the [`PlacementPolicy`] pairing them. The paper's
/// evaluated pair is `[Reader, Store]`; N-node racks split half/half by
/// default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    roles: Vec<NodeRole>,
    placement: PlacementPolicy,
}

impl Topology {
    /// An explicit role assignment, node by node, with the default
    /// [`PlacementPolicy::RoundRobin`] pairing.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two nodes are declared.
    pub fn new(roles: Vec<NodeRole>) -> Self {
        assert!(roles.len() >= 2, "the rack needs at least two nodes");
        Topology {
            roles,
            placement: PlacementPolicy::RoundRobin,
        }
    }

    /// The paper's evaluated pair: node 0 reads, node 1 stores.
    pub fn paper_pair() -> Self {
        Topology::new(vec![NodeRole::Reader, NodeRole::Store])
    }

    /// A skewed role split: `stores` groups of one store node followed by
    /// its `readers_per_store` reader nodes — `1:N` store:reader ratios as
    /// a first-class shape. Grouping each store with its readers keeps the
    /// cohort contiguous, so leaf-local placement is *possible* on a fat
    /// tree (whether the policy exploits it is what `fig_placement`
    /// measures).
    ///
    /// ```
    /// use sabre_rack::{NodeRole, Topology};
    ///
    /// let t = Topology::skewed(2, 3); // 1:3 split, 8 nodes
    /// assert_eq!(t.store_nodes(), vec![0, 4]);
    /// assert_eq!(t.reader_nodes(), vec![1, 2, 3, 5, 6, 7]);
    /// assert_eq!(t.role(0), NodeRole::Store);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `stores` or `readers_per_store` is zero, or the rack
    /// would have fewer than two nodes.
    pub fn skewed(stores: usize, readers_per_store: usize) -> Self {
        assert!(stores > 0, "a skewed split needs at least one store");
        assert!(
            readers_per_store > 0,
            "a skewed split needs at least one reader per store"
        );
        let mut roles = Vec::with_capacity(stores * (1 + readers_per_store));
        for _ in 0..stores {
            roles.push(NodeRole::Store);
            roles.extend(std::iter::repeat_n(NodeRole::Reader, readers_per_store));
        }
        Topology::new(roles)
    }

    /// This topology with a different reader→shard [`PlacementPolicy`].
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// The reader→shard assignment policy.
    pub fn placement(&self) -> PlacementPolicy {
        self.placement
    }

    /// The default N-node split: the first `ceil(nodes / 2)` nodes read,
    /// the rest host store shards (for `nodes == 2` this is exactly
    /// [`Topology::paper_pair`]).
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2`.
    pub fn half_split(nodes: usize) -> Self {
        assert!(nodes >= 2, "the rack needs at least two nodes");
        let readers = nodes.div_ceil(2);
        Topology::new(
            (0..nodes)
                .map(|n| {
                    if n < readers {
                        NodeRole::Reader
                    } else {
                        NodeRole::Store
                    }
                })
                .collect(),
        )
    }

    /// Number of nodes.
    #[allow(clippy::len_without_is_empty)] // a topology is never empty
    pub fn len(&self) -> usize {
        self.roles.len()
    }

    /// Role of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn role(&self, node: usize) -> NodeRole {
        self.roles[node]
    }

    /// Nodes with a given role, in index order.
    pub fn nodes_with(&self, role: NodeRole) -> Vec<usize> {
        (0..self.roles.len())
            .filter(|&n| self.roles[n] == role)
            .collect()
    }

    /// Reader nodes, in index order.
    pub fn reader_nodes(&self) -> Vec<usize> {
        self.nodes_with(NodeRole::Reader)
    }

    /// Store nodes, in index order.
    pub fn store_nodes(&self) -> Vec<usize> {
        self.nodes_with(NodeRole::Store)
    }

    /// The store node the `i`-th reader node (by position in
    /// [`Topology::reader_nodes`]) is paired with, under this topology's
    /// [`PlacementPolicy`] and the rack's wiring `rack` — the reader→shard
    /// assignment every placement-aware experiment derives from.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no store nodes.
    pub fn store_for_reader(&self, reader_index: usize, rack: RackTopology) -> usize {
        let stores = self.store_nodes();
        assert!(!stores.is_empty(), "topology has no store nodes");
        match self.placement {
            PlacementPolicy::RoundRobin => stores[reader_index % stores.len()],
            PlacementPolicy::NearestShard => {
                let readers = self.reader_nodes();
                let reader = readers[reader_index % readers.len()];
                let best = stores
                    .iter()
                    .map(|&s| rack.hops(reader, s))
                    .min()
                    .expect("at least one store");
                let nearest: Vec<usize> = stores
                    .iter()
                    .copied()
                    .filter(|&s| rack.hops(reader, s) == best)
                    .collect();
                nearest[reader_index % nearest.len()]
            }
        }
    }
}

/// Configuration of the whole simulated rack.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes (the evaluation uses 2, directly connected).
    pub nodes: usize,
    /// Cores per node (Table 2: 16).
    pub cores_per_node: usize,
    /// RGP/RCP backend pairs and R2P2s per node (Fig. 6: 4 across the edge).
    pub rmc_backends: usize,
    /// RMC pipeline clock (Table 2: 1 GHz).
    pub rmc_clock: Freq,
    /// Per-R2P2 issue bandwidth target in GB/s (§5.1: 20 GBps), which sets
    /// the block issue interval.
    pub r2p2_issue_gbps: f64,
    /// Bytes of simulated DRAM per node.
    pub memory_bytes: usize,
    /// Memory timing (Table 2 DRAM/LLC rows).
    pub mem_timing: MemTimingConfig,
    /// LLC capacity in bytes (Table 2: 2 MB).
    pub llc_bytes: usize,
    /// LLC associativity (Table 2: 16).
    pub llc_ways: usize,
    /// Inter-node fabric (Table 2 network row).
    pub fabric: FabricConfig,
    /// LightSABRes engine configuration (§5.1: 16 × 32-entry buffers).
    pub lightsabres: LightSabresConfig,
    /// CPU cost model for the software paths.
    pub cpu: CpuCostModel,
    /// Core-side fixed cost from scheduling a WQ entry until the RGP
    /// backend starts unrolling (WQ store + frontend poll + init).
    pub frontend_latency: Time,
    /// Fixed cost from the RCP writing the CQ entry until the core observes
    /// the completion (CQ write + core poll).
    pub completion_latency: Time,
    /// A local writer thread's per-block store interval (store issue rate).
    pub writer_store_interval: Time,
    /// RNG seed for all workloads.
    pub seed: u64,
    /// Per-node roles (which nodes host store shards, which read).
    pub topology: Topology,
    /// Event-loop shards the nodes are partitioned into (contiguous
    /// ranges) for worker threads. With [`threads`], one of the only two
    /// execution settings; both are set here on the configuration (no
    /// builder shorthand) and no result depends on either —
    /// `tests/execution_invariance.rs` checks generated scenarios at
    /// several settings. It matters only when [`threads`] resolves to 2
    /// or more: a serial run advances all nodes as one scheduling domain
    /// whatever this says. The loop synchronizes shards at
    /// fabric-lookahead windows with a deterministic cross-shard merge.
    /// Values above the node count are clamped.
    ///
    /// [`threads`]: ClusterConfig::threads
    pub shards: usize,
    /// OS worker threads driving the shards inside one cluster run,
    /// clamped to the shard count — the other execution setting (see
    /// [`shards`](ClusterConfig::shards)). `None` (the default) or any
    /// value that resolves to 1 means the serial loop, which ignores
    /// `shards`. In-cluster threading is opt-in because sweeps already
    /// run one cluster per worker — nesting a per-cluster pool under a
    /// sweep pool oversubscribes the host — and the window barrier only
    /// pays off when one big sharded rack has cores to itself.
    pub threads: Option<usize>,
    /// Scheduled node crashes and link outages (default: none). Injected
    /// at the window barriers where cross-shard packets merge, so no
    /// result depends on the execution settings — see [`crate::fault`].
    pub fault: FaultPlan,
    /// Serve reads from a replica that is still catching up after an
    /// outage (counted per pipeline as
    /// [`sabre_sonuma::r2p2::R2p2Stats::stale_served`]) instead of refusing
    /// them — availability over freshness. Default `false`: the epoch/seq
    /// guard refuses reads until the replica has replayed its missed
    /// writes, and refused readers retry at the next replica.
    pub serve_stale: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 2,
            cores_per_node: 16,
            rmc_backends: 4,
            rmc_clock: Freq::ghz(1.0),
            r2p2_issue_gbps: 20.0,
            memory_bytes: 64 * 1024 * 1024,
            mem_timing: MemTimingConfig::default(),
            llc_bytes: 2 * 1024 * 1024,
            llc_ways: 16,
            fabric: FabricConfig::default(),
            lightsabres: LightSabresConfig::default(),
            cpu: CpuCostModel::default(),
            frontend_latency: Time::from_ns(40),
            completion_latency: Time::from_ns(40),
            writer_store_interval: Time::from_ns(8),
            seed: 0x5AB2E5,
            topology: Topology::paper_pair(),
            shards: 1,
            threads: None,
            fault: FaultPlan::default(),
            serve_stale: false,
        }
    }
}

impl ClusterConfig {
    /// The default Table-2 rack resized to `nodes` nodes: the fabric
    /// becomes a rack-level 2D mesh beyond two nodes
    /// ([`sabre_fabric::FabricConfig::for_nodes`]), roles split half
    /// readers / half stores ([`Topology::half_split`]), and per-node
    /// memory shrinks to 16 MB so an 8-node rack stays cheap to
    /// materialize (sweeps build many clusters).
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2`.
    pub fn with_nodes(nodes: usize) -> Self {
        let mut cfg = ClusterConfig::default();
        cfg.resize_to(nodes);
        cfg
    }

    /// Resizes this configuration to `nodes` nodes in place, keeping every
    /// other tweak: the fabric is re-pointed at the node count (2D mesh
    /// beyond two nodes, direct below), the role topology becomes
    /// [`Topology::half_split`], and per-node memory shrinks to 16 MB when
    /// growing beyond two nodes *if* it still has its default value.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2`.
    pub fn resize_to(&mut self, nodes: usize) {
        assert!(nodes >= 2, "the rack needs at least two nodes");
        self.nodes = nodes;
        self.fabric.nodes = nodes;
        // One source of truth for the default rack shape at each size.
        self.fabric.topology = FabricConfig::for_nodes(nodes).topology;
        self.topology = Topology::half_split(nodes);
        if nodes > 2 && self.memory_bytes == ClusterConfig::default().memory_bytes {
            self.memory_bytes = 16 * 1024 * 1024;
        }
    }

    /// Whether the engines take the object's shared reader lock at the
    /// destination (destination locking), so every writer waits for the
    /// lock to drain before an update.
    pub fn reader_locks(&self) -> bool {
        self.lightsabres.cc_mode == CcMode::Locking
    }

    /// The store node the `i`-th reader node targets: the role topology's
    /// [`Topology::store_for_reader`] evaluated against this rack's fabric
    /// wiring (which [`PlacementPolicy::NearestShard`] measures hop
    /// distances on).
    pub fn store_for_reader(&self, reader_index: usize) -> usize {
        self.topology
            .store_for_reader(reader_index, self.fabric.topology)
    }

    /// The R2P2's per-block issue interval derived from its bandwidth
    /// target: 64 B / 20 GBps = 3.2 ns with the defaults.
    pub fn r2p2_issue_interval(&self) -> Time {
        sabre_sim::time::transfer_time(sabre_mem::BLOCK_BYTES as u64, self.r2p2_issue_gbps)
    }

    /// The RGP's per-packet unroll interval (one packet per RMC cycle).
    pub fn rgp_unroll_interval(&self) -> Time {
        self.rmc_clock.period()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes < 2 {
            return Err("the rack needs at least two nodes".into());
        }
        if self.nodes != self.fabric.nodes {
            return Err(format!(
                "fabric is configured for {} nodes but the rack has {}",
                self.fabric.nodes, self.nodes
            ));
        }
        if self.cores_per_node == 0 || self.rmc_backends == 0 {
            return Err("cores and RMC backends must be positive".into());
        }
        if self.rmc_backends > 256 || self.cores_per_node > 256 {
            return Err("pipe and core ids are 8-bit".into());
        }
        if self.nodes > 256 {
            return Err("node ids are 8-bit".into());
        }
        if self.topology.len() != self.nodes {
            return Err(format!(
                "topology declares {} roles but the rack has {} nodes",
                self.topology.len(),
                self.nodes
            ));
        }
        if self.shards == 0 {
            return Err("the event loop needs at least one shard".into());
        }
        self.fault.validate(self.nodes)?;
        self.lightsabres.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let cfg = ClusterConfig::default();
        assert_eq!(cfg.nodes, 2);
        assert_eq!(cfg.cores_per_node, 16);
        assert_eq!(cfg.rmc_backends, 4);
        assert_eq!(cfg.llc_bytes, 2 * 1024 * 1024);
        assert_eq!(cfg.r2p2_issue_interval(), Time::from_ps(3_200));
        assert_eq!(cfg.rgp_unroll_interval(), Time::from_ns(1));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_catches_mismatches() {
        let mut cfg = ClusterConfig {
            nodes: 3, // fabric and topology still say 2
            ..ClusterConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.nodes = 1;
        assert!(cfg.validate().is_err());
        let mut cfg = ClusterConfig::with_nodes(4);
        assert!(cfg.validate().is_ok());
        cfg.shards = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn with_nodes_resizes_every_layer() {
        let cfg = ClusterConfig::with_nodes(8);
        assert_eq!(cfg.nodes, 8);
        assert_eq!(cfg.fabric.nodes, 8);
        assert_eq!(cfg.topology.len(), 8);
        assert_eq!(cfg.topology.reader_nodes(), vec![0, 1, 2, 3]);
        assert_eq!(cfg.topology.store_nodes(), vec![4, 5, 6, 7]);
        assert!(cfg.validate().is_ok());
        // The two-node resize is the paper pair on the paper fabric.
        let pair = ClusterConfig::with_nodes(2);
        assert_eq!(pair.topology, Topology::paper_pair());
        assert_eq!(pair.memory_bytes, ClusterConfig::default().memory_bytes);
    }

    #[test]
    fn topology_roles_and_pairing() {
        let t = Topology::half_split(5);
        assert_eq!(t.reader_nodes(), vec![0, 1, 2]);
        assert_eq!(t.store_nodes(), vec![3, 4]);
        assert_eq!(t.role(0), NodeRole::Reader);
        assert_eq!(t.role(4), NodeRole::Store);
        assert_eq!(t.placement(), PlacementPolicy::RoundRobin);
        // Round-robin pairing of readers onto store shards, whatever the
        // fabric shape.
        for rack in [RackTopology::Direct, RackTopology::mesh_for(5)] {
            assert_eq!(t.store_for_reader(0, rack), 3);
            assert_eq!(t.store_for_reader(1, rack), 4);
            assert_eq!(t.store_for_reader(2, rack), 3);
        }
    }

    #[test]
    fn skewed_split_groups_each_store_with_its_readers() {
        let t = Topology::skewed(2, 3);
        assert_eq!(t.len(), 8);
        assert_eq!(t.store_nodes(), vec![0, 4]);
        assert_eq!(t.reader_nodes(), vec![1, 2, 3, 5, 6, 7]);
        // The 1:1 skew is an interleaved half split.
        let even = Topology::skewed(4, 1);
        assert_eq!(even.store_nodes(), vec![0, 2, 4, 6]);
        assert_eq!(even.reader_nodes(), vec![1, 3, 5, 7]);
    }

    #[test]
    fn nearest_shard_minimizes_hops_and_spreads_ties() {
        let rack = RackTopology::FatTree {
            radix: 4,
            oversubscription: 2,
        };
        let t = Topology::skewed(2, 3).with_placement(PlacementPolicy::NearestShard);
        // Stores 0 (leaf 0) and 4 (leaf 1): every reader picks its own
        // leaf's store — one hop instead of round-robin's mixed 1/3 hops.
        let picks: Vec<usize> = (0..6).map(|i| t.store_for_reader(i, rack)).collect();
        assert_eq!(picks, vec![0, 0, 0, 4, 4, 4]);
        // On a crossbar every store is equidistant, so the tie-break
        // round-robins: NearestShard degenerates to RoundRobin exactly.
        let rr = Topology::skewed(2, 3);
        for i in 0..6 {
            assert_eq!(
                t.store_for_reader(i, RackTopology::Direct),
                rr.store_for_reader(i, RackTopology::Direct)
            );
        }
    }

    #[test]
    fn cluster_config_pairs_against_its_own_fabric() {
        let mut cfg = ClusterConfig::with_nodes(8);
        cfg.topology = Topology::skewed(2, 3).with_placement(PlacementPolicy::NearestShard);
        cfg.fabric.topology = RackTopology::FatTree {
            radix: 4,
            oversubscription: 4,
        };
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.store_for_reader(0), 0);
        assert_eq!(cfg.store_for_reader(5), 4);
    }
}
