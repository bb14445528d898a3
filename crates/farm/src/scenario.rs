//! Scenario-builder integration: declaring object-store regions.
//!
//! [`sabre_rack::ScenarioBuilder`] is store-agnostic (the rack crate sits
//! below this one); this extension trait teaches it FaRM object stores, so
//! experiments declare their store the same way they declare raw regions:
//!
//! ```
//! use sabre_farm::scenario::ScenarioStoreExt;
//! use sabre_farm::StoreLayout;
//! use sabre_rack::{spec, ReadMechanism, ScenarioBuilder};
//! use sabre_sim::Time;
//!
//! let (scenario, store) =
//!     ScenarioBuilder::new().store(1, StoreLayout::Clean, 1024, Some(64));
//! let report = scenario
//!     .reader_spec(
//!         0,
//!         0,
//!         spec()
//!             .store(1)
//!             .payload(1024)
//!             .mechanism(ReadMechanism::Sabre)
//!             .wire(store.slot_bytes() as u32),
//!     )
//!     .run_for(Time::from_us(30));
//! assert!(report.core(0, 0).ops > 0);
//! ```

use sabre_mem::Addr;
use sabre_rack::ScenarioBuilder;

use crate::replica::ReplicatedStore;
use crate::store::{ObjectStore, StoreLayout};

/// Declares FaRM object-store regions on a [`ScenarioBuilder`].
///
/// Each method returns the [`ObjectStore`] handle alongside the builder:
/// the handle is a cheap clone-able *description* (addresses, layout
/// geometry) usable immediately by workload factories, while the region's
/// memory initialization is deferred to scenario materialization. The
/// store's object addresses also join the scenario's target list, in
/// declaration order.
pub trait ScenarioStoreExt: Sized {
    /// Declares an object store of `payload`-byte objects in `layout` at
    /// address 0 of `node`, memory resident (≈16 MB of objects) unless
    /// `n_objects` pins the count.
    fn store(
        self,
        node: u8,
        layout: StoreLayout,
        payload: u32,
        n_objects: Option<u64>,
    ) -> (Self, ObjectStore);

    /// [`ScenarioStoreExt::store`] at an explicit base address with an
    /// explicit object count.
    fn store_at(
        self,
        node: u8,
        base: Addr,
        layout: StoreLayout,
        payload: u32,
        count: u64,
    ) -> (Self, ObjectStore);

    /// [`ScenarioStoreExt::store`] plus an LLC pre-warm over the whole
    /// region — the paper's "all accesses are LLC resident" setups.
    fn warmed_store(
        self,
        node: u8,
        layout: StoreLayout,
        payload: u32,
        n_objects: Option<u64>,
    ) -> (Self, ObjectStore);

    /// Declares one store shard per node in `nodes` (each at address 0 of
    /// its node, `objects_per_shard` objects of `payload` bytes in
    /// `layout`), returning the shard handles in the same order — the
    /// N-node rack's data placement, normally driven by the topology's
    /// [`store_nodes`](sabre_rack::Topology::store_nodes). The scenario's
    /// concatenated target list holds each shard's objects contiguously,
    /// in declaration order.
    fn sharded_store(
        self,
        nodes: impl IntoIterator<Item = usize>,
        layout: StoreLayout,
        payload: u32,
        objects_per_shard: u64,
    ) -> (Self, Vec<ObjectStore>);

    /// Declares one [`ReplicatedStore`]: `n_objects` objects of `payload`
    /// bytes in `layout`, initialized identically at address 0 of every
    /// node in `sites` (pick sites with
    /// [`replica_sites`](crate::replica_sites)). Only the *first* site's
    /// object addresses join the scenario's target list — readers address
    /// replicas through
    /// [`ReplicatedStore::view_for`] +
    /// `sabre_rack::WorkloadSpec::replicas`, not the flat target list.
    fn replicated_store(
        self,
        sites: &[usize],
        layout: StoreLayout,
        payload: u32,
        n_objects: u64,
    ) -> (Self, ReplicatedStore);
}

/// Memory-resident object count for a layout/payload: ≈16 MB of slots,
/// clamped exactly as the legacy harness scaffolding did.
fn resident_count(layout: StoreLayout, payload: u32) -> u64 {
    let slot = layout.object_bytes(payload as usize) as u64;
    (16 * 1024 * 1024 / slot).clamp(1, 16_384)
}

impl ScenarioStoreExt for ScenarioBuilder {
    fn store(
        self,
        node: u8,
        layout: StoreLayout,
        payload: u32,
        n_objects: Option<u64>,
    ) -> (Self, ObjectStore) {
        let count = n_objects.unwrap_or_else(|| resident_count(layout, payload));
        self.store_at(node, Addr::new(0), layout, payload, count)
    }

    fn store_at(
        self,
        node: u8,
        base: Addr,
        layout: StoreLayout,
        payload: u32,
        count: u64,
    ) -> (Self, ObjectStore) {
        let store = ObjectStore::new(node, base, layout, payload, count);
        let handle = store.clone();
        let scenario = self.prepare(move |cluster| {
            store.init(cluster.node_memory_mut(node as usize));
            store.object_addrs()
        });
        (scenario, handle)
    }

    fn warmed_store(
        self,
        node: u8,
        layout: StoreLayout,
        payload: u32,
        n_objects: Option<u64>,
    ) -> (Self, ObjectStore) {
        let (scenario, store) = self.store(node, layout, payload, n_objects);
        let scenario = scenario.warm_llc(node as usize, store.object_addr(0), store.region_bytes());
        (scenario, store)
    }

    fn sharded_store(
        self,
        nodes: impl IntoIterator<Item = usize>,
        layout: StoreLayout,
        payload: u32,
        objects_per_shard: u64,
    ) -> (Self, Vec<ObjectStore>) {
        let mut scenario = self;
        let mut shards = Vec::new();
        for node in nodes {
            let (next, shard) =
                scenario.store_at(node as u8, Addr::new(0), layout, payload, objects_per_shard);
            scenario = next;
            shards.push(shard);
        }
        assert!(
            !shards.is_empty(),
            "a sharded store needs at least one node"
        );
        (scenario, shards)
    }

    fn replicated_store(
        self,
        sites: &[usize],
        layout: StoreLayout,
        payload: u32,
        n_objects: u64,
    ) -> (Self, ReplicatedStore) {
        let store = ReplicatedStore::new(sites, Addr::new(0), layout, payload, n_objects);
        let handle = store.clone();
        let scenario = self.prepare(move |cluster| {
            for replica in store.replicas() {
                replica.init(cluster.node_memory_mut(replica.node() as usize));
            }
            store.replicas()[0].object_addrs()
        });
        (scenario, handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sabre_rack::{spec, ReadMechanism};
    use sabre_sim::Time;

    #[test]
    fn resident_count_matches_legacy_scaffolding() {
        // 1 KB clean objects: 1040-byte slots rounded to 1088; 16 MB / slot.
        let slot = StoreLayout::Clean.object_bytes(1024) as u64;
        assert_eq!(
            resident_count(StoreLayout::Clean, 1024),
            16 * 1024 * 1024 / slot
        );
        // Tiny objects clamp at 16384.
        assert_eq!(resident_count(StoreLayout::Clean, 48), 16_384);
    }

    #[test]
    fn declared_store_is_initialized_and_readable() {
        let (scenario, store) = ScenarioBuilder::new().store(1, StoreLayout::Clean, 112, Some(16));
        let wire = store.slot_bytes() as u32;
        let report = scenario
            .reader(0, 0, move |targets| {
                assert_eq!(targets.len(), 16, "store targets reach the factory");
                spec()
                    .store(1)
                    .payload(112)
                    .mechanism(ReadMechanism::Sabre)
                    .wire(wire)
                    .build(targets)
            })
            .run_for(Time::from_us(30));
        assert!(report.core(0, 0).ops > 0);
        assert_eq!(report.core(0, 0).retries, 0, "no writers, no conflicts");
    }

    #[test]
    fn sharded_store_places_one_shard_per_node() {
        let builder = ScenarioBuilder::new().nodes(6);
        let stores = builder.config().topology.store_nodes();
        assert_eq!(stores, vec![3, 4, 5]);
        let (scenario, shards) = builder.sharded_store(stores.clone(), StoreLayout::Clean, 128, 8);
        assert_eq!(shards.len(), 3);
        for (shard, &node) in shards.iter().zip(&stores) {
            assert_eq!(shard.node() as usize, node);
            assert_eq!(shard.n_objects(), 8);
        }
        // Every shard is initialized and remotely readable.
        let shard = shards[1].clone();
        let report = scenario
            .reader(0, 0, move |targets| {
                assert_eq!(targets.len(), 3 * 8, "all shards' objects reach factories");
                spec()
                    .store(shard.node() as usize)
                    .payload(128)
                    .mechanism(ReadMechanism::Sabre)
                    .wire(shard.slot_bytes() as u32)
                    .objects(shard.object_addrs())
                    .build(targets)
            })
            .run_for(Time::from_us(30));
        assert!(report.core(0, 0).ops > 0);
        assert!(
            report.node(4).r2p2.sabres_registered > 0,
            "shard node served"
        );
        assert_eq!(
            report.node(3).r2p2.sabres_registered,
            0,
            "unread shard idle"
        );
    }

    #[test]
    fn warmed_store_pre_fills_the_llc() {
        let measure = |warmed: bool| {
            let b = ScenarioBuilder::new();
            let (scenario, store) = if warmed {
                b.warmed_store(1, StoreLayout::Clean, 1024, Some(64))
            } else {
                b.store(1, StoreLayout::Clean, 1024, Some(64))
            };
            scenario
                .reader_spec(
                    0,
                    0,
                    spec()
                        .store(1)
                        .payload(1024)
                        .mechanism(ReadMechanism::Sabre)
                        .wire(store.slot_bytes() as u32),
                )
                .run_for(Time::from_us(50))
                .core(0, 0)
                .latency
                .mean()
                .expect("ops completed")
        };
        assert!(
            measure(true) < measure(false),
            "LLC-resident reads must be faster than DRAM-resident ones"
        );
    }
}
