//! Full-system assembly: a simulated rack of soNUMA nodes.
//!
//! This crate wires the sans-IO components — [`sabre_sonuma`] pipelines,
//! the [`sabre_core`] LightSABRes engines, the [`sabre_mem`] memory systems
//! and the [`sabre_fabric`] interconnects — into a single deterministic
//! discrete-event simulation, and runs *workload programs* on the simulated
//! cores.
//!
//! The default topology matches the paper: two directly connected 16-core
//! chips (Fig. 6), each with four RGP/RCP backend pairs and four R2P2s
//! across the edge, 2 MB LLC, four DDR4-25.6 channels, and a 100 GBps
//! 35 ns/hop fabric (Table 2). [`ClusterConfig::with_nodes`] (or
//! [`ScenarioBuilder::nodes`](scenario::ScenarioBuilder::nodes)) grows the
//! rack to N nodes with per-node roles ([`Topology`]) on a rack-level 2D
//! mesh, driven by a sharded event loop whose results are bit-identical at
//! every [`ClusterConfig::shards`] value (see [`cluster`]).
//!
//! Experiments are normally *declared* through the [`scenario`] module
//! ([`ScenarioBuilder`] + [`Sweep`]) rather than wired by hand; the
//! low-level [`Cluster`] example below shows what a scenario materializes
//! into.
//!
//! Workloads themselves are *declared* with the [`mod@spec`] module's
//! [`WorkloadSpec`] builder — mechanism, arrival process, key popularity,
//! read/write mix — and placed on cores by the scenario layer.
//!
//! # Example
//!
//! ```
//! use sabre_rack::{Cluster, ClusterConfig, spec, ReadMechanism};
//! use sabre_mem::Addr;
//!
//! let mut cluster = Cluster::new(ClusterConfig::default());
//! // One object of 128 B at address 0 of node 1, version word at offset 0.
//! cluster.node_memory_mut(1).write_u64(Addr::new(0), 0);
//! let reader = spec()
//!     .store(1)
//!     .payload(128)
//!     .mechanism(ReadMechanism::Sabre)
//!     .build(&[Addr::new(0)]);
//! cluster.add_workload(0, 0, reader);
//! cluster.run_for(sabre_sim::Time::from_us(10));
//! assert!(cluster.metrics(0, 0).ops > 0);
//! ```

pub mod cluster;
pub mod config;
pub mod fault;
pub mod layout;
pub mod metrics;
pub mod scenario;
pub mod spec;
pub mod workload;
pub mod workloads;

pub use cluster::{Cluster, EventCounts};
pub use config::{ClusterConfig, NodeRole, PlacementPolicy, Topology};
pub use fault::{FaultPlan, FaultProfile};
pub use layout::{StoreLayout, UpdatePlan};
pub use metrics::{CoreMetrics, Phase};
pub use scenario::{RunReport, ScenarioBuilder, Sweep, Totals};
pub use spec::{spec, Arrivals, ObservedRead, Popularity, WorkloadSpec};
pub use workload::{CoreApi, ReadMechanism, Workload};
