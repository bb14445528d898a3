//! One module per table/figure of the paper, plus ablations.
//!
//! Each module exposes `data(opts) -> Vec<…>` with structured results and
//! `run(opts) -> Table` (or several) for printing. The DESIGN.md experiment
//! index maps paper artifacts to these modules.
//!
//! Every experiment is declared with [`sabre_rack::ScenarioBuilder`] (plus
//! [`sabre_farm::ScenarioStoreExt`] for store-backed ones) and its sweep
//! points run in parallel via [`crate::RunOpts::sweep`]; each point builds
//! a self-contained cluster, so results are deterministic whatever the
//! thread count.

use std::collections::HashMap;

use sabre_farm::{FarmCosts, KvStore, ObjectStore, StoreLayout};
use sabre_rack::{spec, PlacementPolicy, ReadMechanism, RunReport, Topology, WorkloadSpec};

pub mod ablations;
pub mod fig1;
pub mod fig10;
pub mod fig2_race;
pub mod fig7a;
pub mod fig7b;
pub mod fig8;
pub mod fig9a;
pub mod fig9b;
pub mod fig_datacenter;
pub mod fig_failover;
pub mod fig_placement;
pub mod fig_protocols;
pub mod fig_recovery;
pub mod fig_scale;
pub mod fig_tail;
pub mod table1;
pub mod table2;

/// The transfer sizes of the microbenchmark figures (Figs. 7a/7b).
pub const TRANSFER_SIZES: [u32; 8] = [64, 128, 256, 512, 1024, 2048, 4096, 8192];

/// The object sizes of the object-store figures (Figs. 1, 9, 10).
pub const OBJECT_SIZES: [u32; 7] = [128, 256, 512, 1024, 2048, 4096, 8192];

/// Keys of the FaRM key-value store of Figs. 1, 9a and 9b.
pub const KV_KEYS: u64 = 100_000;

/// The FaRM key-value reader of Figs. 1, 9a and 9b over `store`: uniform
/// random keys (the objects are every key's object, in key order), each
/// read with the layout's mechanism inside FaRM's framework and consumed
/// by the application.
pub fn kv_reader(store: &ObjectStore) -> WorkloadSpec {
    let kv = KvStore::new(store.clone(), KV_KEYS);
    let payload = store.payload();
    spec()
        .store(store.node() as usize)
        .payload(payload)
        .mechanism(store.layout().mechanism(payload))
        .objects((0..KV_KEYS).map(|key| kv.locate(key).1).collect())
        .wire(store.wire_bytes() as u32)
        .framework(FarmCosts::default())
        .consume()
}

/// A read mechanism's table label.
pub fn label(mech: ReadMechanism) -> &'static str {
    match mech {
        ReadMechanism::Raw => "raw read",
        ReadMechanism::Sabre => "SABRe",
        ReadMechanism::PerClValidate { .. } => "FaRM perCL",
        ReadMechanism::ChecksumValidate { .. } => "Pilaf CRC64",
        ReadMechanism::WfRegister { .. } => "wait-free reg",
        ReadMechanism::OhRam { .. } => "Oh-RAM 1.5rt",
        ReadMechanism::SourceLocking { .. } => "DrTM lock",
    }
}

/// The store layout a mechanism reads and its writers maintain: raw reads
/// and SABRes read clean objects.
pub fn layout(mech: ReadMechanism) -> StoreLayout {
    StoreLayout::of_mechanism(mech).map_or(StoreLayout::Clean, |(l, _)| l)
}

/// The reader→shard policies the placement sweeps compare, in
/// presentation order.
pub const PLACEMENTS: [PlacementPolicy; 2] =
    [PlacementPolicy::RoundRobin, PlacementPolicy::NearestShard];

/// A placement policy's table label.
pub fn placement_label(policy: PlacementPolicy) -> &'static str {
    match policy {
        PlacementPolicy::RoundRobin => "round-robin",
        PlacementPolicy::NearestShard => "nearest",
    }
}

/// The reader cores of a sweep point — `cores` on each of `topo`'s reader
/// nodes, node by node, as `(node, core)` — and each reader node's index
/// among the reader nodes, which shard placement is keyed by.
pub fn reader_grid(topo: &Topology, cores: usize) -> (Vec<(usize, usize)>, HashMap<usize, usize>) {
    let readers = topo.reader_nodes();
    let grid = readers
        .iter()
        .flat_map(|&node| (0..cores).map(move |core| (node, core)))
        .collect();
    let index = readers
        .iter()
        .enumerate()
        .map(|(i, &node)| (node, i))
        .collect();
    (grid, index)
}

/// The mean over `grid`'s cores of each core's mean end-to-end latency
/// (ns).
///
/// # Panics
///
/// Panics if a core completed no operation.
pub fn mean_core_latency(report: &RunReport, grid: &[(usize, usize)]) -> f64 {
    let sum: f64 = grid
        .iter()
        .map(|&(node, core)| {
            let m = report.core(node, core);
            assert!(m.ops > 0, "reader {node}.{core} completed no ops");
            m.latency.mean().expect("ops completed")
        })
        .sum();
    sum / grid.len() as f64
}
