//! Property tests of the reader→shard placement policies: whatever the
//! role split and fabric family, [`PlacementPolicy::NearestShard`] never
//! pairs a reader with a *strictly farther* shard than the round-robin
//! assignment would — the guarantee that makes it a safe default upgrade
//! — and every policy always returns a store node.

use proptest::prelude::*;

use sabre_fabric::RackTopology;
use sabre_rack::{NodeRole, PlacementPolicy, Topology};

/// Role vectors of 2–12 nodes with at least one reader and one store, as
/// a bitmask (bit set = store), fixed up to guarantee both roles exist.
fn roles() -> impl Strategy<Value = Vec<NodeRole>> {
    (2usize..13, any::<u16>()).prop_map(|(nodes, mask)| {
        let mut roles: Vec<NodeRole> = (0..nodes)
            .map(|n| {
                if mask & (1 << n) != 0 {
                    NodeRole::Store
                } else {
                    NodeRole::Reader
                }
            })
            .collect();
        // Guarantee both roles are present.
        roles[0] = NodeRole::Reader;
        let last = nodes - 1;
        roles[last] = NodeRole::Store;
        roles
    })
}

/// Every fabric family the rack supports, sized for up to 12 nodes.
fn racks() -> impl Strategy<Value = RackTopology> {
    (0u8..3, 1u8..5, 1u8..5).prop_map(|(family, radix, oversubscription)| match family {
        0 => RackTopology::Direct,
        1 => RackTopology::Mesh { cols: radix },
        _ => RackTopology::FatTree {
            radix,
            oversubscription,
        },
    })
}

proptest! {
    /// The satellite invariant: for the same topology, NearestShard's pick
    /// is never at a strictly larger hop distance than RoundRobin's.
    #[test]
    fn nearest_shard_is_never_farther_than_round_robin(
        roles in roles(),
        rack in racks(),
    ) {
        let rr = Topology::new(roles.clone());
        let near = Topology::new(roles).with_placement(PlacementPolicy::NearestShard);
        let readers = rr.reader_nodes();
        for (i, &reader) in readers.iter().enumerate() {
            let rr_pick = rr.store_for_reader(i, rack);
            let near_pick = near.store_for_reader(i, rack);
            prop_assert!(
                rack.hops(reader, near_pick) <= rack.hops(reader, rr_pick),
                "reader {reader} (index {i}) on {rack:?}: nearest chose {near_pick} \
                 ({} hops) over round-robin's {rr_pick} ({} hops)",
                rack.hops(reader, near_pick),
                rack.hops(reader, rr_pick),
            );
        }
    }

    /// Every policy returns a store node for every reader index, so
    /// factories can index shard handles safely.
    #[test]
    fn every_policy_returns_a_store_node(
        roles in roles(),
        rack in racks(),
        extra_index in 0usize..64,
    ) {
        for policy in [
            PlacementPolicy::RoundRobin,
            PlacementPolicy::NearestShard,
        ] {
            let t = Topology::new(roles.clone()).with_placement(policy);
            let stores = t.store_nodes();
            for i in (0..t.reader_nodes().len()).chain([extra_index]) {
                let pick = t.store_for_reader(i, rack);
                prop_assert!(
                    stores.contains(&pick),
                    "{policy:?} returned non-store node {pick}"
                );
            }
        }
    }
}
