//! Replicated object stores: k identical copies of one object set across
//! store nodes, with placement-aware site selection and reader-side
//! replica views.
//!
//! Replication here is for *availability under crash faults* (see
//! `sabre_rack::fault`), not durability: every replica site runs its own
//! local [`Writer`](sabre_rack::workloads::Writer) over the same objects
//! with identical parameters, so the deterministic (object, sequence)
//! update schedules coincide and each replica is independently a valid —
//! and never-torn — image of the store.
//!
//! Under *software* crash semantics a crashed site merely stops
//! *serving*; its local writer keeps the image current and failover back
//! needs no catch-up. Whole-machine outages (a dead fat-tree leaf, a
//! power-cycled chassis) are different: the site's writer genuinely
//! freezes and the restored image is stale. For those, place a
//! [recovering](sabre_rack::workloads::Writer::recovering) writer per site
//! instead — it logs every update in a per-site
//! [`WriteLog`](crate::recovery::WriteLog) and, on restoration, pulls a
//! live peer's log over the fabric and replays the missed range before
//! rejoining the serving set (see [`crate::recovery`]).
//!
//! Readers do not pick one site: [`ReplicatedStore::view_for`] hands the
//! rack's replicated reader (via
//! [`WorkloadSpec::replicas`](sabre_rack::WorkloadSpec::replicas)) the
//! whole replica list sorted nearest-first, so the common case is a
//! leaf-local read and the crash case is a timeout plus a retry one
//! preference rank down.

use sabre_fabric::RackTopology;
use sabre_mem::Addr;

use crate::store::{ObjectStore, StoreLayout};

/// Picks `k` replica sites out of `store_nodes`, spreading them across
/// fat-tree leaves: one site per leaf round-robin until `k` are chosen, so
/// every leaf with a store node gets a replica before any leaf gets a
/// second one (maximal leaf coverage → most readers find a leaf-local
/// replica). Flat fabrics (direct, mesh) have no leaf structure; the first
/// `k` store nodes are used.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the number of store nodes.
pub fn replica_sites(store_nodes: &[usize], k: usize, rack: RackTopology) -> Vec<usize> {
    assert!(k > 0, "replication factor must be positive");
    assert!(
        k <= store_nodes.len(),
        "replication factor {k} exceeds {} store nodes",
        store_nodes.len()
    );
    if rack.leaf_of(0).is_none() {
        return store_nodes[..k].to_vec();
    }
    // Group store nodes by leaf, preserving declaration order.
    let mut leaves: Vec<(usize, Vec<usize>)> = Vec::new();
    for &node in store_nodes {
        let leaf = rack.leaf_of(node).expect("fat tree has leaves");
        match leaves.iter_mut().find(|(l, _)| *l == leaf) {
            Some((_, members)) => members.push(node),
            None => leaves.push((leaf, vec![node])),
        }
    }
    let mut sites = Vec::with_capacity(k);
    let mut round = 0;
    while sites.len() < k {
        for (_, members) in &leaves {
            if let Some(&node) = members.get(round) {
                sites.push(node);
                if sites.len() == k {
                    break;
                }
            }
        }
        round += 1;
    }
    sites
}

/// One logical object store materialized on several sites: identical
/// geometry (base, layout, payload, object count) on each, so object `i`
/// lives at the same address on every replica.
///
/// # Example
///
/// ```
/// use sabre_farm::{replica_sites, ReplicatedStore, StoreLayout};
/// use sabre_fabric::RackTopology;
/// use sabre_mem::Addr;
///
/// // Stores 0,2 sit on leaf 0 and 4,6 on leaf 1 of a radix-4 fat tree;
/// // three replicas cover both leaves before doubling up on leaf 0.
/// let rack = RackTopology::FatTree { radix: 4, oversubscription: 2 };
/// let sites = replica_sites(&[0, 2, 4, 6], 3, rack);
/// assert_eq!(sites, vec![0, 4, 2]);
///
/// let store = ReplicatedStore::new(&sites, Addr::new(0), StoreLayout::Clean, 128, 16);
/// // A reader on node 5 (leaf 1) prefers its leaf-local replica on 4.
/// let view = store.view_for(5, rack);
/// assert_eq!(view[0].0, 4);
/// assert_eq!(view[0].1.len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct ReplicatedStore {
    replicas: Vec<ObjectStore>,
}

impl ReplicatedStore {
    /// Describes `n_objects` objects of `payload` clean bytes in `layout`,
    /// replicated at the same `base` address on every node in `sites`.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is empty, repeats a node, or a site exceeds the
    /// `u8` node range; plus everything [`ObjectStore::new`] panics on.
    pub fn new(
        sites: &[usize],
        base: Addr,
        layout: StoreLayout,
        payload: u32,
        n_objects: u64,
    ) -> Self {
        assert!(!sites.is_empty(), "a replicated store needs sites");
        for (i, &site) in sites.iter().enumerate() {
            assert!(site <= u8::MAX as usize, "site {site} out of node range");
            assert!(
                !sites[..i].contains(&site),
                "site {site} replicated onto itself"
            );
        }
        ReplicatedStore {
            replicas: sites
                .iter()
                .map(|&site| ObjectStore::new(site as u8, base, layout, payload, n_objects))
                .collect(),
        }
    }

    /// The per-site store descriptors, in site order.
    pub fn replicas(&self) -> &[ObjectStore] {
        &self.replicas
    }

    /// The replica sites, in declaration order.
    pub fn sites(&self) -> Vec<usize> {
        self.replicas.iter().map(|s| s.node() as usize).collect()
    }

    /// Clean payload bytes per object.
    pub fn payload(&self) -> u32 {
        self.replicas[0].payload()
    }

    /// The common layout.
    pub fn layout(&self) -> StoreLayout {
        self.replicas[0].layout()
    }

    /// Footprint of one object slot in bytes (identical on every site).
    pub fn slot_bytes(&self) -> u64 {
        self.replicas[0].slot_bytes()
    }

    /// Number of objects per replica.
    pub fn n_objects(&self) -> u64 {
        self.replicas[0].n_objects()
    }

    /// The replica list as a reader on `reader_node` should try it:
    /// `(site, object addresses)` sorted nearest-first by fabric hop count
    /// (ties keep site order, so all same-distance readers agree). This is
    /// exactly the shape `sabre_rack::WorkloadSpec::replicas` consumes.
    pub fn view_for(&self, reader_node: usize, rack: RackTopology) -> Vec<(usize, Vec<Addr>)> {
        let mut view: Vec<(usize, Vec<Addr>)> = self
            .replicas
            .iter()
            .map(|s| (s.node() as usize, s.object_addrs()))
            .collect();
        view.sort_by_key(|&(site, _)| {
            if site == reader_node {
                0
            } else {
                rack.hops(reader_node, site)
            }
        });
        view
    }

    /// `(id, addr)` writer entries — identical on every site; place one
    /// local [`Writer`](sabre_rack::workloads::Writer) per site with these
    /// and the schedules coincide (see the module docs).
    pub fn object_entries(&self) -> Vec<(u64, Addr)> {
        self.replicas[0].object_entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FT4: RackTopology = RackTopology::FatTree {
        radix: 4,
        oversubscription: 2,
    };

    #[test]
    fn sites_interleave_across_leaves() {
        // Leaves {0,2} and {4,6}: coverage first, then depth.
        assert_eq!(replica_sites(&[0, 2, 4, 6], 1, FT4), vec![0]);
        assert_eq!(replica_sites(&[0, 2, 4, 6], 2, FT4), vec![0, 4]);
        assert_eq!(replica_sites(&[0, 2, 4, 6], 3, FT4), vec![0, 4, 2]);
        assert_eq!(replica_sites(&[0, 2, 4, 6], 4, FT4), vec![0, 4, 2, 6]);
    }

    #[test]
    fn flat_fabrics_take_the_first_k() {
        let mesh = RackTopology::Mesh { cols: 2 };
        assert_eq!(replica_sites(&[1, 3, 5, 7], 3, mesh), vec![1, 3, 5]);
        assert_eq!(replica_sites(&[1, 3], 2, RackTopology::Direct), vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn k_cannot_exceed_store_nodes() {
        let _ = replica_sites(&[0, 2], 3, FT4);
    }

    #[test]
    fn view_prefers_the_leaf_local_replica() {
        let store = ReplicatedStore::new(&[0, 4, 2], Addr::new(0), StoreLayout::Clean, 64, 8);
        // Reader 1 shares leaf 0 with sites 0 and 2 (1 hop each, site
        // order breaks the tie); site 4 is across the spine (3 hops).
        let near: Vec<usize> = store.view_for(1, FT4).into_iter().map(|(s, _)| s).collect();
        assert_eq!(near, vec![0, 2, 4]);
        // Reader 5 sits on leaf 1: site 4 first.
        let far: Vec<usize> = store.view_for(5, FT4).into_iter().map(|(s, _)| s).collect();
        assert_eq!(far, vec![4, 0, 2]);
    }

    #[test]
    fn geometry_is_identical_across_sites() {
        let store = ReplicatedStore::new(&[1, 3], Addr::new(64), StoreLayout::PerCl, 200, 10);
        assert_eq!(store.sites(), vec![1, 3]);
        let [a, b] = store.replicas() else {
            panic!("two replicas")
        };
        assert_eq!(a.object_addrs(), b.object_addrs());
        assert_eq!(store.slot_bytes(), a.slot_bytes());
    }

    #[test]
    #[should_panic(expected = "replicated onto itself")]
    fn duplicate_sites_rejected() {
        let _ = ReplicatedStore::new(&[1, 1], Addr::new(0), StoreLayout::Clean, 64, 8);
    }
}
