//! Property tests of the rack-level topology and the deterministic
//! cross-shard router: route symmetry, no self-delivery, and conservation
//! of in-flight messages — the invariants the sharded event loop's
//! bit-identity proof rests on.

use proptest::prelude::*;

use sabre_fabric::{Fabric, FabricConfig, RackTopology, ShardRouter};
use sabre_sim::Time;

/// A topology strategy covering the paper pair, crossbars, meshes,
/// (oversubscribed) fat trees and multi-rack datacenters from 2 to 12
/// nodes (datacenter node counts clamp to the racks' capacity).
fn topologies() -> impl Strategy<Value = (usize, RackTopology)> {
    (2usize..13, 0u8..4, 1u8..5, 1u8..5, 1u8..4).prop_map(
        |(nodes, family, radix, oversubscription, racks)| {
            let topo = match family {
                0 => RackTopology::Direct,
                1 => RackTopology::mesh_for(nodes),
                2 => RackTopology::FatTree {
                    radix,
                    oversubscription,
                },
                _ => RackTopology::datacenter_for(racks, radix.max(2), oversubscription),
            };
            let nodes = match topo {
                RackTopology::Datacenter { racks, radix, .. } => {
                    nodes.min(racks as usize * (radix as usize).pow(2))
                }
                _ => nodes,
            };
            (nodes, topo)
        },
    )
}

proptest! {
    /// Routes are symmetric: a reply retraces its request's hop count, so
    /// request/reply latencies are balanced whatever the placement.
    #[test]
    fn route_symmetry(point in topologies()) {
        let (nodes, topo) = point;
        for src in 0..nodes {
            for dst in 0..nodes {
                if src != dst {
                    prop_assert_eq!(topo.hops(src, dst), topo.hops(dst, src));
                    prop_assert!(topo.hops(src, dst) >= topo.min_hops());
                }
            }
        }
    }

    /// Mesh hops are exactly the Manhattan distance of the row-major grid
    /// placement, and the triangle inequality holds (XY routing never
    /// beats a relay).
    #[test]
    fn mesh_hops_are_manhattan(point in topologies()) {
        let (nodes, topo) = point;
        for a in 0..nodes {
            for b in 0..nodes {
                if a == b { continue; }
                let direct = topo.hops(a, b);
                match topo {
                    RackTopology::Direct => prop_assert_eq!(direct, 1),
                    RackTopology::Mesh { .. } => {
                        prop_assert_eq!(direct, topo.coord(a).hops_to(topo.coord(b)));
                    }
                    RackTopology::FatTree { .. } => {
                        let expect = if topo.leaf_of(a) == topo.leaf_of(b) { 1 } else { 3 };
                        prop_assert_eq!(direct, expect);
                        prop_assert_eq!(topo.crosses_uplink(a, b), expect == 3);
                    }
                    RackTopology::Datacenter { .. } => {
                        let expect = if topo.leaf_of(a) == topo.leaf_of(b) {
                            1
                        } else if topo.rack_of(a) == topo.rack_of(b) {
                            3
                        } else {
                            5
                        };
                        prop_assert_eq!(direct, expect);
                        prop_assert_eq!(topo.crosses_uplink(a, b), expect >= 3);
                        prop_assert_eq!(topo.crosses_spine(a, b), expect == 5);
                    }
                }
                for via in 0..nodes {
                    if via != a && via != b {
                        prop_assert!(direct <= topo.hops(a, via) + topo.hops(via, b));
                    }
                }
            }
        }
    }

    /// Datacenter geometry is self-consistent: each leaf belongs to
    /// exactly one rack (`leaf_of(n) / radix == rack_of(n)`), same-leaf
    /// pairs share a rack, and the three route classes are strictly
    /// ordered — same-leaf (1) < intra-rack cross-leaf (3) < cross-rack
    /// over the spine (5).
    #[test]
    fn datacenter_geometry_is_consistent(
        racks in 1u8..5,
        radix in 2u8..6,
        oversubscription in 1u8..5,
    ) {
        let topo = RackTopology::datacenter_for(racks, radix, oversubscription);
        let nodes = racks as usize * (radix as usize).pow(2);
        for n in 0..nodes {
            let leaf = topo.leaf_of(n).expect("datacenter nodes sit on leaves");
            let rack = topo.rack_of(n).expect("datacenter nodes sit in racks");
            prop_assert_eq!(leaf / radix as usize, rack, "a leaf belongs to one rack");
            prop_assert!(rack < racks as usize);
        }
        for a in 0..nodes {
            for b in 0..nodes {
                if a == b { continue; }
                let hops = topo.hops(a, b);
                if topo.leaf_of(a) == topo.leaf_of(b) {
                    prop_assert_eq!(topo.rack_of(a), topo.rack_of(b));
                    prop_assert_eq!(hops, 1);
                    prop_assert!(!topo.crosses_uplink(a, b));
                    prop_assert!(!topo.crosses_spine(a, b));
                } else if topo.rack_of(a) == topo.rack_of(b) {
                    prop_assert_eq!(hops, 3);
                    prop_assert!(topo.crosses_uplink(a, b));
                    prop_assert!(!topo.crosses_spine(a, b));
                } else {
                    prop_assert_eq!(hops, 5);
                    prop_assert!(topo.crosses_uplink(a, b));
                    prop_assert!(topo.crosses_spine(a, b));
                }
                prop_assert!(hops >= topo.min_hops());
            }
        }
    }

    /// Every packet pushed onto the fabric is accounted to exactly one
    /// directed link, arrivals never precede the routed propagation
    /// latency, and same-link arrivals are FIFO.
    #[test]
    fn fabric_conserves_packets(
        point in topologies(),
        sends in proptest::collection::vec((0usize..12, 0usize..12, 0u64..4096, 0u64..500), 1..60),
    ) {
        let (nodes, topo) = point;
        let mut fabric = Fabric::new(FabricConfig {
            nodes,
            topology: topo,
            ..FabricConfig::default()
        });
        let hop = fabric.config().hop_latency;
        let mut count = 0u64;
        let mut spine_count = 0u64;
        let mut last_arrival = vec![Time::ZERO; nodes * nodes];
        let mut now = Time::ZERO;
        for &(src, dst, bytes, dt) in &sends {
            let (src, dst) = (src % nodes, dst % nodes);
            if src == dst { continue; }
            now += Time::from_ns(dt);
            let arrival = fabric.send(now, src, dst, bytes);
            count += 1;
            prop_assert!(arrival >= now + hop * topo.hops(src, dst));
            if topo.crosses_spine(src, dst) {
                spine_count += 1;
                let spine = topo.spine_latency().expect("spine crossings imply a spine");
                prop_assert!(
                    arrival >= now + hop * (topo.hops(src, dst) - 1) + spine,
                    "the middle traversal pays the full spine latency"
                );
            }
            let link = src * nodes + dst;
            prop_assert!(arrival >= last_arrival[link], "same-link arrivals are FIFO");
            last_arrival[link] = arrival;
        }
        prop_assert_eq!(fabric.packets_total(), count);
        prop_assert_eq!(
            fabric.hop_stats().spine_crossings, spine_count,
            "every cross-rack packet crosses the spine exactly once"
        );
        let per_link: u64 = (0..nodes)
            .flat_map(|s| (0..nodes).map(move |d| (s, d)))
            .filter(|(s, d)| s != d)
            .map(|(s, d)| fabric.link_packets(s, d))
            .sum();
        prop_assert_eq!(per_link, count);
    }

    /// The shard router conserves messages (pushed = drained + in flight)
    /// and its merge order is a pure function of `(time, src, push
    /// order)`: scrambling the interleaving of pushes *across* sources —
    /// which is exactly what regrouping nodes into different shards does —
    /// never changes the drain order.
    #[test]
    fn router_conserves_and_merges_deterministically(
        msgs in proptest::collection::vec((0usize..6, 1usize..6, 0u64..50), 1..80),
        rot in 0usize..7,
    ) {
        let nodes = 6;
        // Reference: push in listed order.
        let mut a: ShardRouter<usize> = ShardRouter::new(nodes);
        for (i, &(src, step, t)) in msgs.iter().enumerate() {
            let dst = (src + step) % nodes;
            if dst == src { continue; }
            a.push(src, dst, Time::from_ns(t), i);
        }
        // Same messages, sources visited in a rotated round-robin order
        // (per-source relative order preserved, cross-source interleaving
        // completely different).
        let mut b: ShardRouter<usize> = ShardRouter::new(nodes);
        for s in 0..nodes {
            let s = (s + rot) % nodes;
            for (i, &(src, step, t)) in msgs.iter().enumerate() {
                let dst = (src + step) % nodes;
                if src != s || dst == src { continue; }
                b.push(src, dst, Time::from_ns(t), i);
            }
        }
        prop_assert_eq!(a.pushed_total(), b.pushed_total());
        let pushed = a.pushed_total();
        prop_assert_eq!(a.in_flight() as u64, pushed);
        let da = a.drain_sorted();
        let db = b.drain_sorted();
        // Times come out non-decreasing, whatever the push interleaving.
        for w in da.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "drain order must be time-sorted");
        }
        prop_assert_eq!(da, db);
        prop_assert_eq!(a.in_flight(), 0);
        prop_assert_eq!(a.drained_total(), pushed);
        // A second drain yields nothing (no duplication).
        prop_assert!(b.drain_sorted().is_empty());
    }
}

#[test]
fn drained_times_non_decreasing() {
    let mut r: ShardRouter<u32> = ShardRouter::new(4);
    for (i, t) in [90u64, 10, 50, 50, 10, 90].iter().enumerate() {
        r.push(i % 4, (i + 1) % 4, Time::from_ns(*t), i as u32);
    }
    let drained = r.drain_sorted();
    for w in drained.windows(2) {
        assert!(w[0].0 <= w[1].0, "drain order must be time-sorted");
    }
}
