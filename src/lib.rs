//! # sabres — atomic object reads for in-memory rack-scale computing
//!
//! A from-scratch Rust reproduction of **"SABRes: Atomic Object Reads for
//! In-Memory Rack-Scale Computing"** (Daglis, Ustiugov, Novaković, Bugnion,
//! Falsafi, Grot — MICRO 2016): the **LightSABRes** destination-side
//! hardware engine for multi-cache-block atomic one-sided reads, the
//! **Scale-Out NUMA** substrate it plugs into, the software atomicity
//! mechanisms it replaces (FaRM per-cache-line versions, Pilaf checksums,
//! DrTM remote locking), and a FaRM-like key-value store — all runnable
//! inside a deterministic discrete-event simulation of the paper's two-node
//! rack, or of N-node racks on a rack-level 2D-mesh fabric driven by a
//! sharded event loop (bit-identical at every shard count).
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `sabre-core` | the paper's contribution: stream buffers, ATT, the LightSABRes engine |
//! | [`sonuma`] | `sabre-sonuma` | WQ/CQ, RGP/RCP/R2P2 pipelines, wire protocol |
//! | [`rack`] | `sabre-rack` | the simulated cluster and workload programs |
//! | [`farm`] | `sabre-farm` | object store, KV store, FaRM read/write paths |
//! | [`sw`] | `sabre-sw` | software atomicity layouts and the CPU cost model |
//! | [`mem`] | `sabre-mem` | functional memory, LLC model, DRAM timing |
//! | [`fabric`] | `sabre-fabric` | on-chip mesh and inter-node fabric |
//! | [`sim`] | `sabre-sim` | event queue, virtual time, statistics |
//!
//! ## Quickstart
//!
//! Experiments are *declared* with [`ScenarioBuilder`](rack::scenario):
//! configure the rack, declare data regions, place workloads with a
//! [`WorkloadSpec`](rack::WorkloadSpec) — mechanism, arrival process, key
//! popularity, read/write mix — run, read the
//! [`RunReport`](rack::scenario::RunReport):
//!
//! ```
//! use sabres::prelude::*;
//!
//! // A two-node Table-2 rack with a 100-object clean-layout store on
//! // node 1, and one core on node 0 reading objects atomically (SABRes).
//! let (scenario, store) = ScenarioBuilder::new().store(1, StoreLayout::Clean, 128, Some(100));
//! let wire = store.slot_bytes() as u32;
//! let report = scenario
//!     .reader_spec(
//!         0,
//!         0,
//!         spec().store(1).payload(128).mechanism(ReadMechanism::Sabre).wire(wire),
//!     )
//!     .run_for(Time::from_us(20));
//! assert!(report.core(0, 0).ops > 0);
//! ```
//!
//! Independent sweep points run in parallel (each cluster is its own
//! world), with results in input order, bit-identical to a serial run:
//!
//! ```
//! use sabres::prelude::*;
//!
//! let latencies = Sweep::over([64u32, 1024]).map(|&size| {
//!     ScenarioBuilder::new()
//!         .raw_region(1, size)
//!         .reader_spec(0, 0, spec().store(1).payload(size).mechanism(ReadMechanism::Sabre))
//!         .run_for(Time::from_us(30))
//!         .mean_latency_ns(0, 0)
//!         .expect("ops completed")
//! });
//! assert!(latencies[0] < latencies[1]);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harness that regenerates every table and figure of the paper.

pub use sabre_core as core;
pub use sabre_fabric as fabric;
pub use sabre_farm as farm;
pub use sabre_mem as mem;
pub use sabre_rack as rack;
pub use sabre_sim as sim;
pub use sabre_sonuma as sonuma;
pub use sabre_sw as sw;

/// The most common imports in one place.
pub mod prelude {
    pub use sabre_core::{CcMode, LightSabres, LightSabresConfig, SpecMode};
    pub use sabre_fabric::RackTopology;
    pub use sabre_farm::{
        replica_sites, FarmCosts, FarmLocalReader, FarmReader, KvStore, ObjectStore,
        RecoveringWriter, ReplicaState, ReplicatedStore, RpcWriteServer, RpcWriter,
        ScenarioStoreExt, StoreLayout, WriteLog,
    };
    pub use sabre_mem::{Addr, BlockAddr, NodeMemory, BLOCK_BYTES};
    pub use sabre_rack::workloads::{pattern_payload, verify_payload, Writer};
    pub use sabre_rack::{
        spec, Arrivals, Cluster, ClusterConfig, CoreApi, FaultPlan, NodeReport, NodeRole, Phase,
        PlacementPolicy, Popularity, ReadMechanism, RecoveryReport, RunReport, ScenarioBuilder,
        Sweep, Topology, Workload, WorkloadSpec,
    };
    pub use sabre_sim::{SimRng, Time};
    pub use sabre_sonuma::{CqEntry, OpKind};
    pub use sabre_sw::{
        tag_board_addr, CleanLayout, CpuCostModel, PerClLayout, VersionWord, WfRegisterLayout,
    };
}
