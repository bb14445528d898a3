//! Property tests of the fault-injection algebra: outage windows are
//! half-open and union under repetition, adjacent windows tile without a
//! gap, `validate` rejects out-of-range endpoints and inverted windows,
//! and a correlated leaf outage downs every member node for exactly the
//! declared window.

use proptest::prelude::*;

use sabre_fabric::RackTopology;
use sabre_rack::fault::{FaultPlan, FaultProfile, Outage};
use sabre_sim::Time;

/// A non-empty half-open window `[from, until)` within a microsecond-scale
/// horizon, as raw nanosecond bounds.
fn window() -> impl Strategy<Value = (u64, u64)> {
    (0u64..10_000, 1u64..5_000).prop_map(|(from, len)| (from, from + len))
}

proptest! {
    /// A node is down at `t` iff *some* declared window covers `t` —
    /// overlapping and duplicate windows union rather than interfere.
    #[test]
    fn node_down_is_the_union_of_its_windows(
        windows in proptest::collection::vec(window(), 1..6),
        probe in 0u64..20_000,
    ) {
        let mut plan = FaultPlan::new();
        for &(from, until) in &windows {
            plan = plan.crash_restore(3, Time::from_ns(from), Time::from_ns(until));
        }
        let t = Time::from_ns(probe);
        let expected = windows
            .iter()
            .any(|&(from, until)| probe >= from && probe < until);
        prop_assert_eq!(plan.node_down_at(3, t), expected);
        // Packets to or from the node drop exactly when it is down.
        prop_assert_eq!(plan.drops_packet(3, 0, t), expected);
        prop_assert_eq!(plan.drops_packet(0, 3, t), expected);
        // Other nodes are untouched.
        prop_assert!(!plan.node_down_at(2, t));
    }

    /// Adjacent windows `[a, b)` + `[b, c)` tile: the node is down over
    /// the whole of `[a, c)` and back up at `c`.
    #[test]
    fn adjacent_windows_tile_without_a_gap(
        a in 0u64..5_000,
        len1 in 1u64..2_000,
        len2 in 1u64..2_000,
        frac in 0.0f64..1.0,
    ) {
        let b = a + len1;
        let c = b + len2;
        let plan = FaultPlan::new()
            .crash_restore(1, Time::from_ns(a), Time::from_ns(b))
            .crash_restore(1, Time::from_ns(b), Time::from_ns(c));
        let inside = a + ((c - a - 1) as f64 * frac) as u64;
        prop_assert!(plan.node_down_at(1, Time::from_ns(inside)));
        prop_assert!(plan.node_down_at(1, Time::from_ns(b)), "no seam at the join");
        prop_assert!(!plan.node_down_at(1, Time::from_ns(c)));
        if a > 0 {
            prop_assert!(!plan.node_down_at(1, Time::from_ns(a - 1)));
        }
    }

    /// Link outages are symmetric in their endpoints and independent of
    /// node crashes.
    #[test]
    fn link_outages_are_symmetric(
        w in window(),
        a in 0usize..8,
        b in 0usize..8,
        probe in 0u64..20_000,
    ) {
        let b = if a == b { (b + 1) % 8 } else { b };
        let (from, until) = w;
        let plan = FaultPlan::new().link_outage(a, b, Time::from_ns(from), Time::from_ns(until));
        let t = Time::from_ns(probe);
        let expected = probe >= from && probe < until;
        prop_assert_eq!(plan.link_down_at(a, b, t), expected);
        prop_assert_eq!(plan.link_down_at(b, a, t), expected);
        prop_assert_eq!(plan.drops_packet(a, b, t), expected);
        prop_assert!(!plan.node_down_at(a, t), "a cut link crashes nobody");
        prop_assert!(!plan.node_down_at(b, t));
    }

    /// `validate` accepts exactly the racks large enough to contain every
    /// declared endpoint.
    #[test]
    fn validate_rejects_out_of_range_nodes(
        node in 0usize..16,
        peer in 0usize..16,
        w in window(),
        nodes in 1usize..20,
    ) {
        let peer = if node == peer { (peer + 1) % 16 } else { peer };
        let (from, until) = w;
        let plan = FaultPlan::new()
            .crash_restore(node, Time::from_ns(from), Time::from_ns(until))
            .link_outage(node, peer, Time::from_ns(from), Time::from_ns(until));
        let fits = node < nodes && peer < nodes;
        prop_assert_eq!(plan.validate(nodes).is_ok(), fits);
    }

    /// Inverted or empty windows never get into a plan: every builder
    /// panics on `from >= until`.
    #[test]
    fn inverted_windows_are_rejected_at_construction(
        node in 0usize..8,
        from in 0u64..10_000,
        backwards in 0u64..10_000,
    ) {
        let (lo, hi) = (from.min(backwards), from.max(backwards));
        let inverted = std::panic::catch_unwind(|| {
            FaultPlan::new().crash_restore(node, Time::from_ns(hi), Time::from_ns(lo))
        });
        prop_assert!(inverted.is_err(), "inverted window must panic");
        let empty = std::panic::catch_unwind(|| {
            FaultPlan::new().crash_restore(node, Time::from_ns(from), Time::from_ns(from))
        });
        prop_assert!(empty.is_err(), "empty window must panic");
    }

    /// A leaf outage downs *every* member node of the leaf for the whole
    /// window — the correlated-failure guarantee — and is exactly the
    /// members' crash/restore windows.
    #[test]
    fn leaf_outage_downs_all_members_for_the_window(
        radix in 1u8..6,
        leaf in 0usize..4,
        w in window(),
        frac in 0.0f64..1.0,
    ) {
        let (from, until) = w;
        let rack = RackTopology::FatTree { radix, oversubscription: 2 };
        let plan =
            FaultPlan::new().leaf_outage(rack, leaf, Time::from_ns(from), Time::from_ns(until));
        let members = leaf * radix as usize..(leaf + 1) * radix as usize;
        let expanded = members.clone().fold(FaultPlan::new(), |p, node| {
            p.crash_restore(node, Time::from_ns(from), Time::from_ns(until))
        });
        prop_assert_eq!(&plan, &expanded);
        let inside = from + ((until - from - 1) as f64 * frac) as u64;
        for node in members.clone() {
            prop_assert_eq!(rack.leaf_of(node), Some(leaf));
            for t in [from, inside, until - 1] {
                prop_assert!(plan.node_down_at(node, Time::from_ns(t)));
            }
            prop_assert!(!plan.node_down_at(node, Time::from_ns(until)));
            if from > 0 {
                prop_assert!(!plan.node_down_at(node, Time::from_ns(from - 1)));
            }
        }
        // Non-members are untouched.
        let outsider = (leaf + 1) * radix as usize;
        prop_assert!(!plan.node_down_at(outsider, Time::from_ns(inside)));
        // No cross-leaf packet reaches or leaves a member while the leaf
        // is dark: the uplink bundle is effectively severed.
        for node in members {
            prop_assert!(plan.drops_packet(node, outsider, Time::from_ns(inside)));
            prop_assert!(plan.drops_packet(outsider, node, Time::from_ns(inside)));
        }
    }

    /// Profile-generated plans are deterministic per seed, in-horizon, and
    /// always pass validation on a rack containing their nodes.
    #[test]
    fn fault_profile_generates_valid_deterministic_plans(
        seed in 0u64..1_000,
        mtbf_us in 5u64..50,
        mttr_us in 1u64..20,
    ) {
        let profile = FaultProfile {
            nodes: vec![2, 5],
            mtbf: Time::from_us(mtbf_us),
            mttr: Time::from_us(mttr_us),
            horizon: Time::from_us(300),
        };
        let plan = profile.generate(seed);
        prop_assert_eq!(&plan, &profile.generate(seed));
        prop_assert!(plan.validate(6).is_ok());
        for &(n, Outage { from, until }) in plan.node_outages() {
            prop_assert!(n == 2 || n == 5);
            prop_assert!(from < profile.horizon);
            prop_assert!(until.is_some());
        }
    }
}
