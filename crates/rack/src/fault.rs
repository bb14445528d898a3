//! Deterministic fault injection: scheduled node crashes and link outages.
//!
//! A [`FaultPlan`] is a *declarative schedule* — a list of outage windows
//! for nodes and links, fixed before the run starts — carried by
//! [`ClusterConfig`](crate::ClusterConfig). The cluster consults it at the
//! one place every cross-node packet already passes through: the window
//! barrier where shard outboxes are merged and delivered (see
//! [`cluster`](crate::cluster)). A packet is dropped iff, at its arrival
//! instant, its source node, destination node, or the link between them is
//! inside an outage window:
//!
//! * a **down destination** refuses service — inbound requests die on the
//!   floor, so the node completes no remote work while crashed;
//! * a **down source** loses its in-flight traffic — replies already
//!   emitted by a node that then crashed never reach the requester;
//! * a **down link** kills traffic both ways between its endpoints while
//!   leaving both nodes reachable through nothing (the fabric models
//!   logical reachability, not rerouting — a cut link is a partition of
//!   that pair).
//!
//! Because the drop decision is a *pure function* of the plan and the
//! packet's `(src, dst, arrival-time)` tuple — all of which are identical
//! at every shard × thread setting — fault injection preserves the event
//! loop's bit-identical replay guarantee. Dropped packets are counted per
//! destination node ([`packets_dropped`](crate::Cluster::packets_dropped)),
//! extending the packet-conservation invariant to
//! `sent == delivered + dropped`.
//!
//! Crashed nodes keep their local state: the model is a *service* outage
//! (power-cycled NIC, wedged OS, partitioned top-of-rack port), not disk
//! loss. A writer on a crashed store node keeps updating local memory; it
//! simply becomes unobservable until the outage ends. Readers detect dead
//! replicas by timeout on the one-sided path (no completion ever arrives)
//! and fail over — see
//! [`WorkloadSpec::replicas`](crate::WorkloadSpec::replicas).

use sabre_fabric::RackTopology;
use sabre_sim::{SimRng, Time};

/// A half-open outage window `[from, until)`. `until == None` means the
/// component never recovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// First instant the component is down.
    pub from: Time,
    /// First instant the component is back up (`None`: down forever).
    pub until: Option<Time>,
}

impl Outage {
    /// Whether the outage covers instant `t`.
    pub fn covers(self, t: Time) -> bool {
        t >= self.from && self.until.is_none_or(|u| t < u)
    }
}

/// A deterministic schedule of node crashes and link outages; see the
/// [module docs](self) for the injection semantics.
///
/// # Example
///
/// ```
/// use sabre_rack::fault::FaultPlan;
/// use sabre_sim::Time;
///
/// let plan = FaultPlan::new()
///     .crash_restore(4, Time::from_us(10), Time::from_us(30))
///     .crash(5, Time::from_us(50))
///     .link_outage(0, 1, Time::from_us(5), Time::from_us(6));
/// assert!(plan.node_down_at(4, Time::from_us(20)));
/// assert!(!plan.node_down_at(4, Time::from_us(30)));
/// assert!(plan.node_down_at(5, Time::from_us(99)), "no recovery");
/// assert!(plan.drops_packet(0, 1, Time::from_us(5)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    node_outages: Vec<(usize, Outage)>,
    link_outages: Vec<(usize, usize, Outage)>,
}

impl FaultPlan {
    /// An empty plan: nothing ever fails.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Crashes `node` at `at`, never to recover.
    pub fn crash(mut self, node: usize, at: Time) -> Self {
        self.node_outages.push((
            node,
            Outage {
                from: at,
                until: None,
            },
        ));
        self
    }

    /// Crashes `node` at `from` and restores it at `until`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty (`from >= until`).
    pub fn crash_restore(mut self, node: usize, from: Time, until: Time) -> Self {
        assert!(from < until, "empty crash window: {from:?} >= {until:?}");
        self.node_outages.push((
            node,
            Outage {
                from,
                until: Some(until),
            },
        ));
        self
    }

    /// Takes the (bidirectional) link between `a` and `b` down over
    /// `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints coincide or the window is empty.
    pub fn link_outage(mut self, a: usize, b: usize, from: Time, until: Time) -> Self {
        assert!(a != b, "a link connects two distinct nodes");
        assert!(from < until, "empty link outage: {from:?} >= {until:?}");
        self.link_outages.push((
            a.min(b),
            a.max(b),
            Outage {
                from,
                until: Some(until),
            },
        ));
        self
    }

    /// Cuts the link between `a` and `b` at `at`, never to heal.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints coincide.
    pub fn cut_link(mut self, a: usize, b: usize, at: Time) -> Self {
        assert!(a != b, "a link connects two distinct nodes");
        self.link_outages.push((
            a.min(b),
            a.max(b),
            Outage {
                from: at,
                until: None,
            },
        ));
        self
    }

    /// Takes a whole fat-tree leaf down over `[from, until)`: every node
    /// attached to `leaf` crashes for the window, which also severs the
    /// leaf's uplink bundle (no member can send or receive, so no traffic
    /// crosses the uplinks either way). The plan is exactly the members'
    /// [`FaultPlan::crash_restore`] windows, so the drop decision at the
    /// merge point is the per-node one.
    ///
    /// # Panics
    ///
    /// Panics if `rack` has no leaves (not a fat tree or datacenter) or
    /// the window is empty.
    pub fn leaf_outage(mut self, rack: RackTopology, leaf: usize, from: Time, until: Time) -> Self {
        let (RackTopology::FatTree { radix, .. } | RackTopology::Datacenter { radix, .. }) = rack
        else {
            panic!("leaf outages need a fat-tree or datacenter rack, got {rack:?}");
        };
        assert!(from < until, "empty leaf outage: {from:?} >= {until:?}");
        let radix = radix.max(1) as usize;
        for node in leaf * radix..(leaf + 1) * radix {
            self = self.crash_restore(node, from, until);
        }
        self
    }

    /// Takes a whole datacenter rack down over `[from, until)`:
    /// [`FaultPlan::leaf_outage`] generalized one level up the tree. Every
    /// node of rack `rack_index` crashes for the window, which also severs
    /// the rack's spine uplinks — no member can send or receive, so no
    /// traffic crosses the spine either way. Like a leaf outage, the plan
    /// is exactly the members' [`FaultPlan::crash_restore`] windows.
    ///
    /// # Panics
    ///
    /// Panics if `rack` is not a [`RackTopology::Datacenter`] or the
    /// window is empty.
    pub fn rack_outage(
        mut self,
        rack: RackTopology,
        rack_index: usize,
        from: Time,
        until: Time,
    ) -> Self {
        let RackTopology::Datacenter { radix, .. } = rack else {
            panic!("rack outages need a datacenter fabric, got {rack:?}");
        };
        assert!(from < until, "empty rack outage: {from:?} >= {until:?}");
        let per_rack = (radix as usize) * (radix as usize);
        for node in rack_index * per_rack..(rack_index + 1) * per_rack {
            self = self.crash_restore(node, from, until);
        }
        self
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.node_outages.is_empty() && self.link_outages.is_empty()
    }

    /// Whether `node` is down at instant `t`.
    pub fn node_down_at(&self, node: usize, t: Time) -> bool {
        self.node_outages
            .iter()
            .any(|&(n, o)| n == node && o.covers(t))
    }

    /// Whether the link between `a` and `b` is down at instant `t`
    /// (link outages only — a crashed endpoint is
    /// [`FaultPlan::node_down_at`]'s business).
    pub fn link_down_at(&self, a: usize, b: usize, t: Time) -> bool {
        link_down(&self.link_outages, a, b, t)
    }

    /// Whether a `src → dst` packet arriving at instant `t` is dropped:
    /// either endpoint crashed, or the link between them cut.
    pub fn drops_packet(&self, src: usize, dst: usize, t: Time) -> bool {
        self.node_down_at(src, t) || self.node_down_at(dst, t) || self.link_down_at(src, dst, t)
    }

    /// The scheduled node outages, as declared (leaf outages appear here
    /// expanded into their member nodes' windows).
    pub fn node_outages(&self) -> &[(usize, Outage)] {
        &self.node_outages
    }

    /// The first outage window scheduled for `node` that covers instant
    /// `t`, in declaration order — what a recovering workload consults to
    /// know whether a node is dark and until when.
    pub fn outage_at(&self, node: usize, t: Time) -> Option<Outage> {
        self.node_outages
            .iter()
            .find(|&&(n, o)| n == node && o.covers(t))
            .map(|&(_, o)| o)
    }

    /// Validates the plan against a rack of `nodes` nodes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range endpoint or
    /// inverted outage window found. (The builder methods already panic on
    /// inverted windows; the check here is a belt-and-braces guard for
    /// plans assembled programmatically.)
    pub fn validate(&self, nodes: usize) -> Result<(), String> {
        for &(n, o) in &self.node_outages {
            if n >= nodes {
                return Err(format!(
                    "fault plan crashes node {n} of a {nodes}-node rack"
                ));
            }
            if let Some(until) = o.until {
                if until <= o.from {
                    return Err(format!(
                        "inverted outage window for node {n}: [{:?}, {until:?})",
                        o.from
                    ));
                }
            }
        }
        for &(a, b, o) in &self.link_outages {
            if a >= nodes || b >= nodes {
                return Err(format!(
                    "fault plan cuts link {a}-{b} of a {nodes}-node rack"
                ));
            }
            if let Some(until) = o.until {
                if until <= o.from {
                    return Err(format!(
                        "inverted outage window for link {a}-{b}: [{:?}, {until:?})",
                        o.from
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Whether one of `links` (endpoints stored low, high) covers the link
/// between `a` and `b` at `t`.
fn link_down(links: &[(usize, usize, Outage)], a: usize, b: usize, t: Time) -> bool {
    let (lo, hi) = (a.min(b), a.max(b));
    links
        .iter()
        .any(|&(x, y, o)| x == lo && y == hi && o.covers(t))
}

/// A [`FaultPlan`] indexed for the window barrier's per-packet drop
/// check: each node's outages sorted and merged into disjoint windows, so
/// a lookup is a binary search of one node's windows instead of a scan of
/// every node outage in the plan. [`FaultPlan::drops_packet`] stays the
/// reference; the two agree on every plan (a property test checks it).
#[derive(Debug)]
pub(crate) struct DropIndex {
    /// `nodes[n]`: node `n`'s down windows, disjoint and sorted by start
    /// (a window that never ends is last). Nodes past the end never fail.
    nodes: Vec<Vec<Outage>>,
    /// The plan's link outages, scanned as the plan does.
    links: Vec<(usize, usize, Outage)>,
}

impl DropIndex {
    /// Indexes `plan`.
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        let mut nodes: Vec<Vec<Outage>> = Vec::new();
        for &(n, o) in &plan.node_outages {
            if nodes.len() <= n {
                nodes.resize_with(n + 1, Vec::new);
            }
            nodes[n].push(o);
        }
        for windows in &mut nodes {
            windows.sort_by_key(|o| o.from);
            let mut merged: Vec<Outage> = Vec::with_capacity(windows.len());
            for o in windows.drain(..) {
                match merged.last_mut() {
                    // Overlapping or adjacent: one window covers both.
                    Some(last) if last.until.is_none_or(|u| o.from <= u) => {
                        last.until = last.until.zip(o.until).map(|(a, b)| a.max(b));
                    }
                    _ => merged.push(o),
                }
            }
            *windows = merged;
        }
        DropIndex {
            nodes,
            links: plan.link_outages.clone(),
        }
    }

    /// [`FaultPlan::drops_packet`], answered from the index.
    pub(crate) fn drops_packet(&self, src: usize, dst: usize, t: Time) -> bool {
        self.node_down_at(src, t)
            || self.node_down_at(dst, t)
            || (!self.links.is_empty() && link_down(&self.links, src, dst, t))
    }

    fn node_down_at(&self, node: usize, t: Time) -> bool {
        let Some(windows) = self.nodes.get(node) else {
            return false;
        };
        let after = windows.partition_point(|o| o.from <= t);
        after > 0 && windows[after - 1].covers(t)
    }
}

/// A seeded MTBF/MTTR fault-schedule generator: each listed node fails
/// and recovers repeatedly over `[0, horizon)`, with exponentially
/// distributed up-times (mean [`FaultProfile::mtbf`]) and down-times (mean
/// [`FaultProfile::mttr`]) drawn from a per-node forked [`SimRng`] stream.
/// The same `(profile, seed)` pair always generates the same
/// [`FaultPlan`], so profile-driven runs keep the bit-identical replay
/// guarantee.
///
/// # Example
///
/// ```
/// use sabre_rack::fault::FaultProfile;
/// use sabre_sim::Time;
///
/// let profile = FaultProfile {
///     nodes: vec![4, 5],
///     mtbf: Time::from_us(40),
///     mttr: Time::from_us(10),
///     horizon: Time::from_us(200),
/// };
/// let plan = profile.generate(7);
/// assert_eq!(plan, profile.generate(7), "deterministic");
/// assert!(plan.validate(8).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// The nodes subject to crash/restore cycles.
    pub nodes: Vec<usize>,
    /// Mean time between failures (mean up-time before each crash).
    pub mtbf: Time,
    /// Mean time to repair (mean down-time per outage).
    pub mttr: Time,
    /// Crashes are only scheduled strictly before this instant (a final
    /// repair window may extend past it).
    pub horizon: Time,
}

impl FaultProfile {
    /// Generates the deterministic [`FaultPlan`] this profile describes
    /// under `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `mtbf` or `mttr` is zero.
    pub fn generate(&self, seed: u64) -> FaultPlan {
        assert!(self.mtbf > Time::ZERO, "zero MTBF");
        assert!(self.mttr > Time::ZERO, "zero MTTR");
        let root = SimRng::seed(seed);
        let mut plan = FaultPlan::new();
        for &node in &self.nodes {
            // Per-node stream: a node's schedule is independent of which
            // other nodes the profile lists.
            let mut rng = root.fork(node as u64);
            let mut t = Time::ZERO;
            loop {
                t += exponential(&mut rng, self.mtbf);
                if t >= self.horizon {
                    break;
                }
                let down = exponential(&mut rng, self.mttr).max(Time::from_ns(1));
                plan = plan.crash_restore(node, t, t + down);
                t += down;
            }
        }
        plan
    }
}

/// An exponentially distributed interval with the given mean (inverse-CDF
/// sampling).
fn exponential(rng: &mut SimRng, mean: Time) -> Time {
    let u = rng.unit();
    Time::from_ns_f64(-(1.0 - u).ln() * mean.as_ns())
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn outage_windows_are_half_open() {
        let o = Outage {
            from: Time::from_us(10),
            until: Some(Time::from_us(20)),
        };
        assert!(!o.covers(Time::from_ns(9_999)));
        assert!(o.covers(Time::from_us(10)));
        assert!(o.covers(Time::from_ns(19_999)));
        assert!(!o.covers(Time::from_us(20)));
        let forever = Outage {
            from: Time::from_us(10),
            until: None,
        };
        assert!(forever.covers(Time::from_us(1_000_000)));
    }

    #[test]
    fn node_and_link_queries() {
        let plan = FaultPlan::new()
            .crash_restore(3, Time::from_us(1), Time::from_us(2))
            .cut_link(5, 4, Time::from_us(7));
        assert!(plan.node_down_at(3, Time::from_us(1)));
        assert!(!plan.node_down_at(3, Time::from_us(2)));
        assert!(!plan.node_down_at(4, Time::from_us(1)));
        // Link order is normalized; both directions drop.
        assert!(plan.link_down_at(4, 5, Time::from_us(7)));
        assert!(plan.link_down_at(5, 4, Time::from_us(7)));
        assert!(!plan.link_down_at(4, 5, Time::from_ns(6_999)));
        assert!(plan.drops_packet(4, 5, Time::from_us(8)));
        assert!(plan.drops_packet(3, 0, Time::from_ns(1_500)), "src down");
        assert!(plan.drops_packet(0, 3, Time::from_ns(1_500)), "dst down");
        assert!(!plan.drops_packet(0, 1, Time::from_us(100)));
    }

    #[test]
    fn a_node_can_fail_repeatedly() {
        let plan = FaultPlan::new()
            .crash_restore(2, Time::from_us(1), Time::from_us(2))
            .crash_restore(2, Time::from_us(5), Time::from_us(6));
        assert!(plan.node_down_at(2, Time::from_ns(1_500)));
        assert!(!plan.node_down_at(2, Time::from_us(3)));
        assert!(plan.node_down_at(2, Time::from_ns(5_500)));
    }

    #[test]
    fn empty_plan_drops_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(!plan.drops_packet(0, 1, Time::from_us(1)));
        assert!(plan.validate(2).is_ok());
    }

    #[test]
    fn validation_checks_endpoints() {
        assert!(FaultPlan::new()
            .crash(7, Time::from_us(1))
            .validate(8)
            .is_ok());
        assert!(FaultPlan::new()
            .crash(8, Time::from_us(1))
            .validate(8)
            .is_err());
        assert!(FaultPlan::new()
            .cut_link(0, 9, Time::from_us(1))
            .validate(8)
            .is_err());
    }

    #[test]
    #[should_panic(expected = "empty crash window")]
    fn empty_crash_window_rejected() {
        let _ = FaultPlan::new().crash_restore(0, Time::from_us(2), Time::from_us(2));
    }

    #[test]
    #[should_panic(expected = "two distinct nodes")]
    fn self_link_rejected() {
        let _ = FaultPlan::new().cut_link(3, 3, Time::from_us(1));
    }

    const FT: RackTopology = RackTopology::FatTree {
        radix: 2,
        oversubscription: 2,
    };

    #[test]
    fn leaf_outage_downs_every_member() {
        let (from, until) = (Time::from_us(5), Time::from_us(9));
        let plan = FaultPlan::new().leaf_outage(FT, 1, from, until);
        assert_eq!(
            plan,
            FaultPlan::new()
                .crash_restore(2, from, until)
                .crash_restore(3, from, until)
        );
        for node in [2, 3] {
            assert!(plan.node_down_at(node, Time::from_us(5)));
            assert!(plan.node_down_at(node, Time::from_ns(8_999)));
            assert!(!plan.node_down_at(node, Time::from_us(9)));
        }
        assert!(!plan.node_down_at(1, Time::from_us(6)), "other leaf");
        assert!(!plan.node_down_at(4, Time::from_us(6)), "other leaf");
        // The uplink bundle is implied down: every cross-leaf packet
        // touching a member drops.
        assert!(plan.drops_packet(2, 4, Time::from_us(6)));
        assert!(plan.drops_packet(0, 3, Time::from_us(6)));
    }

    #[test]
    #[should_panic(expected = "fat-tree or datacenter rack")]
    fn leaf_outage_needs_a_fat_tree() {
        let _ = FaultPlan::new().leaf_outage(
            RackTopology::Direct,
            0,
            Time::from_us(1),
            Time::from_us(2),
        );
    }

    #[test]
    fn rack_outage_downs_every_member() {
        let dc = RackTopology::datacenter_for(2, 2, 1);
        let (from, until) = (Time::from_us(5), Time::from_us(9));
        let plan = FaultPlan::new().rack_outage(dc, 1, from, until);
        let members = (4..8).fold(FaultPlan::new(), |p, node| {
            p.crash_restore(node, from, until)
        });
        assert_eq!(plan, members);
        // Rack 1 of a radix-2 datacenter is nodes 4..8.
        for node in 4..8 {
            assert!(plan.node_down_at(node, Time::from_us(5)));
            assert!(plan.node_down_at(node, Time::from_ns(8_999)));
            assert!(!plan.node_down_at(node, Time::from_us(9)));
        }
        for node in 0..4 {
            assert!(!plan.node_down_at(node, Time::from_us(6)), "other rack");
        }
        // The spine uplinks are implied down: every cross-rack packet
        // touching a member drops, in both directions.
        assert!(plan.drops_packet(0, 5, Time::from_us(6)));
        assert!(plan.drops_packet(7, 2, Time::from_us(6)));
        assert!(!plan.drops_packet(0, 2, Time::from_us(6)), "intra-rack 0");
    }

    #[test]
    fn leaf_outage_accepts_a_datacenter_leaf() {
        // Global leaf 2 of a radix-2 datacenter sits in rack 1 and holds
        // nodes 4 and 5.
        let dc = RackTopology::datacenter_for(2, 2, 1);
        let plan = FaultPlan::new().leaf_outage(dc, 2, Time::from_us(1), Time::from_us(2));
        assert!(plan.node_down_at(4, Time::from_ns(1_500)));
        assert!(plan.node_down_at(5, Time::from_ns(1_500)));
        assert!(!plan.node_down_at(3, Time::from_ns(1_500)));
        assert!(!plan.node_down_at(6, Time::from_ns(1_500)));
    }

    #[test]
    #[should_panic(expected = "datacenter fabric")]
    fn rack_outage_needs_a_datacenter() {
        let _ = FaultPlan::new().rack_outage(FT, 0, Time::from_us(1), Time::from_us(2));
    }

    #[test]
    fn outage_at_finds_a_nodes_covering_window() {
        let plan = FaultPlan::new()
            .crash_restore(2, Time::from_us(1), Time::from_us(2))
            .crash(3, Time::from_us(4))
            .crash_restore(2, Time::from_us(6), Time::from_us(7))
            .crash_restore(2, Time::from_us(5), Time::from_us(8));
        let at = |node, us| plan.outage_at(node, Time::from_us(us));
        assert_eq!(at(2, 1).map(|o| o.until), Some(Some(Time::from_us(2))));
        assert_eq!(at(2, 2), None, "restored at the window's end");
        assert_eq!(at(2, 5).map(|o| o.until), Some(Some(Time::from_us(8))));
        // Overlapping windows: the first declared one that covers wins.
        assert_eq!(at(2, 6).map(|o| o.until), Some(Some(Time::from_us(7))));
        assert_eq!(at(0, 1), None);
        assert_eq!(at(3, 3), None);
        assert_eq!(
            at(3, 9),
            Some(Outage {
                from: Time::from_us(4),
                until: None
            })
        );
    }

    #[test]
    fn fault_profile_is_deterministic_and_bounded() {
        let profile = FaultProfile {
            nodes: vec![4, 5, 6],
            mtbf: Time::from_us(20),
            mttr: Time::from_us(5),
            horizon: Time::from_us(500),
        };
        let plan = profile.generate(42);
        assert_eq!(plan, profile.generate(42));
        assert_ne!(plan, profile.generate(43));
        assert!(!plan.is_empty(), "a 25× horizon:MTBF ratio must crash");
        assert!(plan.validate(8).is_ok());
        for &(n, o) in plan.node_outages() {
            assert!(profile.nodes.contains(&n));
            assert!(o.from < profile.horizon, "crashes happen before horizon");
            assert!(o.until.is_some(), "profile outages always repair");
        }
    }

    #[test]
    fn fault_profile_streams_are_per_node() {
        // Dropping a node from the profile must not shift the others'
        // schedules.
        let wide = FaultProfile {
            nodes: vec![4, 5],
            mtbf: Time::from_us(20),
            mttr: Time::from_us(5),
            horizon: Time::from_us(500),
        };
        let narrow = FaultProfile {
            nodes: vec![5],
            ..wide.clone()
        };
        let w = wide.generate(9);
        let n = narrow.generate(9);
        let windows = |plan: &FaultPlan| {
            plan.node_outages()
                .iter()
                .filter(|&&(node, _)| node == 5)
                .map(|&(_, o)| o)
                .collect::<Vec<_>>()
        };
        assert_eq!(windows(&w), windows(&n));
    }

    #[test]
    fn drop_index_merges_overlapping_and_endless_windows() {
        let plan = FaultPlan::new()
            .crash_restore(2, Time::from_ns(10), Time::from_ns(20))
            .crash_restore(2, Time::from_ns(15), Time::from_ns(30))
            .crash_restore(2, Time::from_ns(30), Time::from_ns(40))
            .crash(2, Time::from_ns(100))
            .crash_restore(2, Time::from_ns(120), Time::from_ns(130));
        let index = DropIndex::new(&plan);
        assert_eq!(
            index.nodes[2],
            [
                Outage {
                    from: Time::from_ns(10),
                    until: Some(Time::from_ns(40)),
                },
                Outage {
                    from: Time::from_ns(100),
                    until: None,
                },
            ]
        );
        assert!(index.nodes[..2].iter().all(Vec::is_empty));
    }

    /// Raw bounds of a random outage: `(node or link id, from, length)`,
    /// with length 0 meaning the component never recovers.
    fn outage() -> impl Strategy<Value = (usize, u64, u64)> {
        (0usize..6, 0u64..2_000, 0u64..600)
    }

    proptest! {
        /// The index answers every drop query exactly as the plan does,
        /// on plans with overlapping, adjacent, endless and link outages —
        /// probed at random instants and at every window edge.
        #[test]
        fn drop_index_agrees_with_the_plan(
            node_outages in proptest::collection::vec(outage(), 0..24),
            link_outages in proptest::collection::vec(outage(), 0..4),
            probes in proptest::collection::vec((0usize..7, 0usize..7, 0u64..3_000), 1..64),
        ) {
            let mut plan = FaultPlan::new();
            let mut edges = Vec::new();
            for &(n, from, len) in &node_outages {
                let from_t = Time::from_ns(from);
                plan = if len == 0 {
                    plan.crash(n, from_t)
                } else {
                    plan.crash_restore(n, from_t, Time::from_ns(from + len))
                };
                edges.extend([from, from + len]);
            }
            for &(a, from, len) in &link_outages {
                let b = (a + 1) % 6;
                let from_t = Time::from_ns(from);
                plan = if len == 0 {
                    plan.cut_link(a, b, from_t)
                } else {
                    plan.link_outage(a, b, from_t, Time::from_ns(from + len))
                };
                edges.extend([from, from + len]);
            }
            let index = DropIndex::new(&plan);
            let edge_probes = edges
                .iter()
                .flat_map(|&e| [e.saturating_sub(1), e])
                .flat_map(|t| (0..7).map(move |n| (n, (n + 1) % 7, t)));
            for (src, dst, t) in probes.iter().copied().chain(edge_probes) {
                let t = Time::from_ns(t);
                prop_assert_eq!(
                    index.drops_packet(src, dst, t),
                    plan.drops_packet(src, dst, t),
                    "{} -> {} at {:?}",
                    src,
                    dst,
                    t
                );
            }
        }
    }
}
