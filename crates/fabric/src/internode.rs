//! The lossless inter-node rack fabric.
//!
//! Table 2: fixed 35 ns latency per hop, 100 GBps links. The paper's
//! evaluated topology is two directly connected nodes, i.e. one hop in
//! each direction; the N-node generalization routes over a
//! [`RackTopology`] (crossbar or 2D mesh), paying one hop latency per
//! mesh hop. Each direction of each node pair is an independent queued
//! bandwidth server, so request and reply streams do not contend with each
//! other but *do* contend with same-direction traffic — this is what caps
//! aggregate application throughput near 80–100 GBps in Figs. 7b and 8.
//!
//! [`ShardRouter`] is the deterministic cross-shard mailbox a partitioned
//! event loop exchanges fabric traffic through: per-source outboxes,
//! drained at synchronization barriers in a total order that depends only
//! on `(arrival time, source, per-source sequence)` — never on how nodes
//! are grouped into shards — so sharded simulation stays bit-identical to
//! single-shard simulation.

use sabre_sim::{BandwidthServer, HopStats, Time};

use crate::mesh::RackTopology;

/// Fabric parameters.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Number of nodes connected by the fabric.
    pub nodes: usize,
    /// Per-hop propagation latency (Table 2: 35 ns).
    pub hop_latency: Time,
    /// Link bandwidth in GB/s (Table 2: 100).
    pub link_gbps: f64,
    /// Per-packet wire overhead in bytes (header + CRC), added to every
    /// packet's serialization cost.
    pub header_bytes: u64,
    /// How the nodes are wired ([`RackTopology::Direct`] reproduces the
    /// paper's directly-connected pair).
    pub topology: RackTopology,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            nodes: 2,
            hop_latency: Time::from_ns(35),
            link_gbps: 100.0,
            header_bytes: 16,
            topology: RackTopology::Direct,
        }
    }
}

impl FabricConfig {
    /// The default fabric resized to `nodes` nodes: the paper pair stays
    /// directly connected, larger racks route over a near-square 2D mesh.
    pub fn for_nodes(nodes: usize) -> Self {
        FabricConfig {
            nodes,
            topology: if nodes <= 2 {
                RackTopology::Direct
            } else {
                RackTopology::mesh_for(nodes)
            },
            ..FabricConfig::default()
        }
    }

    /// The smallest possible send-to-arrival delay of any internode packet
    /// — the conservative lookahead window a sharded event loop may
    /// advance a node without observing its peers.
    pub fn min_latency(&self) -> Time {
        self.hop_latency * self.topology.min_hops()
    }
}

/// One source node's outgoing side of the fabric: the directed link
/// servers (and packet counters) for every destination.
///
/// Ports are the unit a partitioned event loop hands to its shards: every
/// packet is *sent* through its source node's port, so a shard that owns a
/// contiguous range of nodes can own exactly those nodes' ports and never
/// touch another shard's link state. [`Fabric::split`] lends out the port
/// array alongside the shared (read-only) configuration.
#[derive(Debug)]
pub struct FabricPort {
    src: usize,
    /// Per-destination link state, keyed by destination and sorted for
    /// binary search. Allocated lazily on first send: most node pairs in a
    /// datacenter-scale fabric never talk (readers bind to a handful of
    /// stores), so the dense `Vec<BandwidthServer>` per port of the rack
    /// tier — O(nodes²) memory across the fabric — would waste hundreds of
    /// megabytes at 1024 nodes. A fresh server is idle at `Time::ZERO`, so
    /// lazy creation is arrival-for-arrival identical to preallocation.
    links: Vec<(u32, LinkState)>,
    /// Packets pushed onto any link so far.
    packets_sent: u64,
    /// Hops traversed by every packet sent from this port so far,
    /// including fat-tree uplink queueing penalties — the numerator of the
    /// per-node mean hop count the placement experiments report.
    hops_sent: u64,
    /// Hop-latency window index the uplink counter below covers.
    uplink_window: u64,
    /// Cross-leaf packets this port pushed within the current window.
    uplink_in_window: u64,
    /// Cross-leaf packets that exceeded the uplink's per-window budget and
    /// paid queueing hops.
    uplink_queued: u64,
    /// Arrival time of the last packet through the uplink bundle: the
    /// bundle is a FIFO queue, so a later packet (whose window counter may
    /// have reset) never overtakes an earlier queued one.
    uplink_tail: Time,
    /// Spine-latency window index the spine counter below covers.
    spine_window: u64,
    /// Cross-rack packets this port pushed within the current spine window.
    spine_in_window: u64,
    /// Cross-rack packets that exceeded the spine's per-window budget and
    /// paid a full `spine_latency` of queueing per queued predecessor.
    spine_queued: u64,
    /// Arrival time of the last packet through the rack's spine bundle
    /// (FIFO, like the leaf uplink).
    spine_tail: Time,
    /// Cross-rack packets sent from this port so far — the numerator of
    /// the cross-spine hop share `fig_datacenter` reports.
    spine_crossings: u64,
}

/// One lazily-created directed link: its queued bandwidth server plus the
/// packets pushed through it (conservation accounting: every send is
/// delivered exactly once).
#[derive(Debug)]
struct LinkState {
    server: BandwidthServer,
    sent: u64,
}

impl FabricPort {
    /// An idle port for `src` with no per-destination state yet.
    fn new(src: usize) -> Self {
        FabricPort {
            src,
            links: Vec::new(),
            packets_sent: 0,
            hops_sent: 0,
            uplink_window: 0,
            uplink_in_window: 0,
            uplink_queued: 0,
            uplink_tail: Time::ZERO,
            spine_window: 0,
            spine_in_window: 0,
            spine_queued: 0,
            spine_tail: Time::ZERO,
            spine_crossings: 0,
        }
    }

    /// The source node this port belongs to.
    pub fn src(&self) -> usize {
        self.src
    }

    /// The link state toward `dst`, if any packet has been sent there.
    fn link(&self, dst: usize) -> Option<&LinkState> {
        self.links
            .binary_search_by_key(&(dst as u32), |(d, _)| *d)
            .ok()
            .map(|i| &self.links[i].1)
    }

    /// The link state toward `dst`, created idle on first use.
    fn link_mut(&mut self, cfg: &FabricConfig, dst: usize) -> &mut LinkState {
        let idx = match self.links.binary_search_by_key(&(dst as u32), |(d, _)| *d) {
            Ok(i) => i,
            Err(i) => {
                self.links.insert(
                    i,
                    (
                        dst as u32,
                        LinkState {
                            server: BandwidthServer::new(cfg.link_gbps, Time::ZERO),
                            sent: 0,
                        },
                    ),
                );
                i
            }
        };
        &mut self.links[idx].1
    }

    /// Sends a packet with `payload_bytes` of payload from this port's
    /// source to `dst` no earlier than `now`; returns its arrival time at
    /// `dst`: serialization onto the (queued) directed link plus one
    /// [`FabricConfig::hop_latency`] per routed hop.
    ///
    /// On a [`RackTopology::FatTree`] (and within each
    /// [`RackTopology::Datacenter`] rack), cross-leaf packets contend for
    /// the leaf's oversubscribed uplink bundle: within each hop-latency
    /// window a port may push its leaf's share
    /// ([`RackTopology::uplink_budget`] = `radix / oversubscription`
    /// packets) uplink unpenalized; every packet beyond the budget pays
    /// one extra hop of latency *per queued predecessor* — a coarse,
    /// deterministic stand-in for spine-queue delay. The state is tracked
    /// per source port (each shard owns its own nodes' ports), so the
    /// sharded event loop's bit-identity is untouched; contention from
    /// leaf-mates sharing the physical bundle is approximated by each port
    /// holding the full window share.
    ///
    /// Cross-rack datacenter packets additionally traverse the inter-rack
    /// spine: the middle of their five traversals is charged at
    /// [`RackTopology::spine_latency`] instead of one hop latency, and
    /// the rack's spine bundle applies the same per-window discipline one
    /// level up — [`RackTopology::spine_budget`] packets per
    /// `spine_latency` window unpenalized, each excess packet delayed a
    /// full `spine_latency` per queued predecessor, FIFO across windows.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is this port's own node or out of range.
    pub fn send(&mut self, cfg: &FabricConfig, now: Time, dst: usize, payload_bytes: u64) -> Time {
        assert!(dst != self.src, "no self-links: {} -> {dst}", self.src);
        assert!(
            dst < cfg.nodes,
            "node index out of range: {} -> {dst}",
            self.src
        );
        self.packets_sent += 1;
        let mut hops = cfg.topology.hops(self.src, dst);
        let crosses = cfg.topology.crosses_uplink(self.src, dst);
        if crosses {
            let budget = cfg
                .topology
                .uplink_budget()
                .expect("uplink crossings only exist on leaf/spine fabrics");
            let window = now.as_ps() / cfg.hop_latency.as_ps().max(1);
            if window != self.uplink_window {
                self.uplink_window = window;
                self.uplink_in_window = 0;
            }
            self.uplink_in_window += 1;
            if self.uplink_in_window > budget {
                hops += self.uplink_in_window - budget;
                self.uplink_queued += 1;
            }
        }
        self.hops_sent += hops;
        let mut propagation = cfg.hop_latency * hops;
        let spine = cfg.topology.crosses_spine(self.src, dst);
        if spine {
            let spine_latency = cfg
                .topology
                .spine_latency()
                .expect("spine crossings only exist on datacenters");
            // The middle traversal is the long-haul inter-rack link: swap
            // one hop latency for the spine latency.
            propagation = propagation - cfg.hop_latency + spine_latency;
            self.spine_crossings += 1;
            let budget = cfg
                .topology
                .spine_budget()
                .expect("spine crossings only exist on datacenters");
            let window = now.as_ps() / spine_latency.as_ps().max(1);
            if window != self.spine_window {
                self.spine_window = window;
                self.spine_in_window = 0;
            }
            self.spine_in_window += 1;
            if self.spine_in_window > budget {
                propagation += spine_latency * (self.spine_in_window - budget);
                self.spine_queued += 1;
            }
        }
        let link = self.link_mut(cfg, dst);
        link.sent += 1;
        let mut arrival = link.server.transmit(now, payload_bytes + cfg.header_bytes) + propagation;
        if crosses {
            // The uplink bundle is a FIFO queue: a packet sent in a later
            // window (counter reset) never overtakes one still queued.
            arrival = arrival.max(self.uplink_tail);
            self.uplink_tail = arrival;
        }
        if spine {
            arrival = arrival.max(self.spine_tail);
            self.spine_tail = arrival;
        }
        arrival
    }
}

/// The rack fabric: a full mesh of directed links between node pairs, with
/// per-packet propagation latency derived from the routed hop count.
///
/// # Example
///
/// ```
/// use sabre_fabric::{Fabric, FabricConfig};
/// use sabre_sim::Time;
///
/// let mut fabric = Fabric::new(FabricConfig::default());
/// // A 64 B payload packet from node 0 to node 1: (64+16) B @ 100 GBps
/// // serialization (0.8 ns) + 35 ns hop.
/// let arrive = fabric.send(Time::ZERO, 0, 1, 64);
/// assert_eq!(arrive, Time::from_ns_f64(35.8));
/// ```
#[derive(Debug)]
pub struct Fabric {
    cfg: FabricConfig,
    /// One outgoing port per source node.
    ports: Vec<FabricPort>,
}

impl Fabric {
    /// Creates the fabric.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.nodes < 2` or the topology grid cannot place every
    /// node.
    pub fn new(cfg: FabricConfig) -> Self {
        assert!(cfg.nodes >= 2, "a fabric needs at least two nodes");
        match cfg.topology {
            RackTopology::Mesh { cols } => {
                assert!(cols >= 1, "mesh must be at least one column wide");
                // Every node's grid coordinate must fit the u8 MeshCoord,
                // or hop counts would silently truncate.
                let rows = cfg.nodes.div_ceil(cols as usize);
                assert!(
                    rows <= u8::MAX as usize + 1,
                    "topology grid cannot place every node: {} nodes on {} columns",
                    cfg.nodes,
                    cols
                );
            }
            RackTopology::FatTree {
                radix,
                oversubscription,
            } => {
                assert!(radix >= 1, "fat-tree leaves need at least one downlink");
                assert!(
                    oversubscription >= 1,
                    "oversubscription ratio must be at least 1:1"
                );
                let leaves = cfg.nodes.div_ceil(radix as usize);
                assert!(
                    leaves <= u8::MAX as usize + 1,
                    "topology grid cannot place every node: {} nodes on {}-node leaves",
                    cfg.nodes,
                    radix
                );
            }
            RackTopology::Datacenter {
                racks,
                radix,
                oversubscription,
                spine_latency,
            } => {
                assert!(racks >= 1, "a datacenter needs at least one rack");
                assert!(radix >= 2, "datacenter leaves need at least two downlinks");
                assert!(
                    oversubscription >= 1,
                    "oversubscription ratio must be at least 1:1"
                );
                let capacity = racks as usize * (radix as usize).pow(2);
                assert!(
                    cfg.nodes <= capacity,
                    "topology cannot place every node: {} nodes in {} racks of {}\u{b2}",
                    cfg.nodes,
                    racks,
                    radix
                );
                let leaves = cfg.nodes.div_ceil(radix as usize);
                assert!(
                    leaves <= u8::MAX as usize + 1,
                    "topology grid cannot place every node: {} nodes on {}-node leaves",
                    cfg.nodes,
                    radix
                );
                // The arrival lower bound `now + hop_latency × hops` (and
                // with it the sharded loop's lookahead safety) relies on
                // the spine traversal never being cheaper than the hop it
                // replaces.
                assert!(
                    spine_latency >= cfg.hop_latency,
                    "spine latency must be at least the per-hop latency"
                );
            }
            RackTopology::Direct => {}
        }
        let ports = (0..cfg.nodes).map(FabricPort::new).collect();
        Fabric { cfg, ports }
    }

    /// The configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Splits the fabric into its shared configuration and the per-source
    /// port array, so disjoint node ranges (shards) can send concurrently.
    pub fn split(&mut self) -> (&FabricConfig, &mut [FabricPort]) {
        (&self.cfg, &mut self.ports)
    }

    /// Hops a packet from `src` to `dst` traverses under the configured
    /// topology.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`.
    pub fn hops(&self, src: usize, dst: usize) -> u64 {
        self.cfg.topology.hops(src, dst)
    }

    /// Sends a packet with `payload_bytes` of payload from `src` to `dst`
    /// no earlier than `now`; returns its arrival time at `dst`:
    /// serialization onto the (queued) directed link plus one
    /// [`FabricConfig::hop_latency`] per routed hop.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either index is out of range.
    pub fn send(&mut self, now: Time, src: usize, dst: usize, payload_bytes: u64) -> Time {
        assert!(
            src < self.cfg.nodes && dst < self.cfg.nodes,
            "node index out of range: {src} -> {dst}"
        );
        self.ports[src].send(&self.cfg, now, dst, payload_bytes)
    }

    /// Total bytes (incl. headers) pushed from `src` to `dst` so far
    /// (0 for node pairs that never exchanged a packet).
    pub fn link_bytes(&self, src: usize, dst: usize) -> u64 {
        self.ports[src]
            .link(dst)
            .map_or(0, |l| l.server.bytes_total())
    }

    /// Packets pushed from `src` to `dst` so far.
    pub fn link_packets(&self, src: usize, dst: usize) -> u64 {
        self.ports[src].link(dst).map_or(0, |l| l.sent)
    }

    /// Packets pushed from `src` onto any link so far.
    pub fn node_packets_sent(&self, src: usize) -> u64 {
        self.ports[src].packets_sent
    }

    /// Hops traversed by every packet sent from `src` so far, including
    /// fat-tree uplink queueing penalties (see [`FabricPort::send`]).
    /// Divided by [`Fabric::node_packets_sent`] this is the node's mean
    /// hop count — the placement-quality metric of the `fig_placement`
    /// experiment.
    pub fn node_hops_sent(&self, src: usize) -> u64 {
        self.ports[src].hops_sent
    }

    /// Cross-leaf packets from `src` that exceeded the fat-tree uplink's
    /// per-window budget and paid queueing latency (always 0 on the flat
    /// topologies).
    pub fn node_uplink_queued(&self, src: usize) -> u64 {
        self.ports[src].uplink_queued
    }

    /// Cross-rack packets sent from `src` over the inter-rack spine so far
    /// (always 0 off the datacenter topology).
    pub fn node_spine_crossings(&self, src: usize) -> u64 {
        self.ports[src].spine_crossings
    }

    /// Cross-rack packets from `src` that exceeded the spine bundle's
    /// per-window budget and paid a full `spine_latency` of queueing.
    pub fn node_spine_queued(&self, src: usize) -> u64 {
        self.ports[src].spine_queued
    }

    /// The streaming hop/queue counters of `src`'s port as a mergeable
    /// [`HopStats`] — the per-node row datacenter-scale reports aggregate
    /// without any per-event storage.
    pub fn node_hop_stats(&self, src: usize) -> HopStats {
        let p = &self.ports[src];
        HopStats {
            packets: p.packets_sent,
            hops: p.hops_sent,
            uplink_queued: p.uplink_queued,
            spine_crossings: p.spine_crossings,
            spine_queued: p.spine_queued,
        }
    }

    /// [`Fabric::node_hop_stats`] merged over every port — whole-fabric
    /// traffic accounting.
    pub fn hop_stats(&self) -> HopStats {
        let mut total = HopStats::default();
        for src in 0..self.ports.len() {
            total.merge(&self.node_hop_stats(src));
        }
        total
    }

    /// Packets pushed onto any link so far.
    pub fn packets_total(&self) -> u64 {
        self.ports.iter().map(|p| p.packets_sent).sum()
    }

    /// Cross-rack packets pushed over the inter-rack spine so far; with
    /// [`Fabric::packets_total`] this gives the cross-spine traffic share.
    pub fn spine_crossings_total(&self) -> u64 {
        self.ports.iter().map(|p| p.spine_crossings).sum()
    }

    /// Utilization of the `src → dst` link over `[0, horizon]`.
    pub fn link_utilization(&self, src: usize, dst: usize, horizon: Time) -> f64 {
        self.ports[src]
            .link(dst)
            .map_or(0.0, |l| l.server.utilization(horizon))
    }
}

/// One source node's outbound mailbox in a [`ShardRouter`].
///
/// Like [`FabricPort`], outboxes are the per-source unit a partitioned
/// event loop hands to its shards: a shard pushes every cross-node message
/// through the sending node's own outbox, so concurrent shards never share
/// mailbox state. At the synchronization barrier the loop collects all
/// outboxes back and drains them, merged ([`ShardRouter::merge_sorted`])
/// or one by one ([`Outbox::swap_pending`]).
#[derive(Debug)]
pub struct Outbox<M> {
    src: usize,
    /// Queued `(arrival, destination, message)`, in push order.
    pending: Vec<(Time, usize, M)>,
    pushed: u64,
}

impl<M> Outbox<M> {
    /// The source node this outbox belongs to.
    pub fn src(&self) -> usize {
        self.src
    }

    /// Queues `msg` for delivery to `dst` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is this outbox's own node (fabric messages never
    /// self-deliver; local work belongs on the node's own queue).
    pub fn push(&mut self, dst: usize, at: Time, msg: M) {
        assert!(dst != self.src, "no self-delivery: {} -> {dst}", self.src);
        self.pending.push((at, dst, msg));
        self.pushed += 1;
    }

    /// Messages queued but not yet drained.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Exchanges the queued messages, `(arrival, destination, message)` in
    /// push order, with `buf`.
    ///
    /// A barrier that delivers each message itself swaps an empty `Vec`
    /// in, drains it, then swaps the drained `Vec` back: nothing is copied
    /// and the outbox keeps its grown capacity. Such drains bypass the
    /// router's drained counter, like [`ShardRouter::merge_sorted`].
    pub fn swap_pending(&mut self, buf: &mut Vec<(Time, usize, M)>) {
        std::mem::swap(&mut self.pending, buf);
    }
}

/// Deterministic cross-shard message exchange for a partitioned event
/// loop.
///
/// Each source node pushes timestamped messages into its own [`Outbox`]
/// while its shard advances; at every synchronization barrier the loop
/// drains all outboxes with [`ShardRouter::drain_sorted`] (or, when the
/// outboxes are lent out to shards, [`ShardRouter::merge_sorted`]), which
/// yields messages in a total order determined *only* by `(arrival time,
/// source node, per-source push order)`. Because neither the order shards
/// were advanced in nor the grouping of nodes into shards appears in the
/// key, delivering the drained messages in yielded order makes the
/// simulation bit-identical for every shard count — the property the
/// rack's torture tests pin down.
///
/// Conservation: every pushed message is yielded by exactly one
/// subsequent merge. When all drains go through
/// [`ShardRouter::drain_sorted`], this is observable as
/// [`ShardRouter::pushed_total`] = [`ShardRouter::drained_total`] +
/// [`ShardRouter::in_flight`]; drains performed directly over lent-out
/// outboxes ([`ShardRouter::merge_sorted`], or [`Outbox::swap_pending`] —
/// how the cluster's window barrier runs) bypass the router's drained
/// counter, so there `pushed_total - in_flight` counts the messages
/// drained so far.
#[derive(Debug)]
pub struct ShardRouter<M> {
    outboxes: Vec<Outbox<M>>,
    drained: u64,
}

impl<M> ShardRouter<M> {
    /// A router for `nodes` source nodes.
    pub fn new(nodes: usize) -> Self {
        ShardRouter {
            outboxes: (0..nodes)
                .map(|src| Outbox {
                    src,
                    pending: Vec::new(),
                    pushed: 0,
                })
                .collect(),
            drained: 0,
        }
    }

    /// Queues `msg` from `src` for delivery to `dst` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range or `src == dst`.
    pub fn push(&mut self, src: usize, dst: usize, at: Time, msg: M) {
        self.outboxes[src].push(dst, at, msg);
    }

    /// The per-source outboxes, for lending disjoint ranges to concurrent
    /// shards. Drains performed directly on the slices (via
    /// [`ShardRouter::merge_sorted`] or [`Outbox::swap_pending`]) bypass
    /// the router's drained counter.
    pub fn outboxes_mut(&mut self) -> &mut [Outbox<M>] {
        &mut self.outboxes
    }

    /// Messages pushed but not yet drained.
    pub fn in_flight(&self) -> usize {
        self.outboxes.iter().map(Outbox::len).sum()
    }

    /// Total messages ever pushed.
    pub fn pushed_total(&self) -> u64 {
        self.outboxes.iter().map(|o| o.pushed).sum()
    }

    /// Total messages ever drained.
    pub fn drained_total(&self) -> u64 {
        self.drained
    }

    /// Drains every outbox, yielding `(at, dst, msg)` in the deterministic
    /// merge order: ascending arrival time, ties broken by source node
    /// index, then by per-source push order. The caller inserts each
    /// message into `dst`'s event queue in yielded order.
    pub fn drain_sorted(&mut self) -> Vec<(Time, usize, M)> {
        let drained = Self::merge_sorted(self.outboxes.iter_mut());
        self.drained += drained.len() as u64;
        drained
    }

    /// [`ShardRouter::drain_sorted`] over an arbitrary set of outboxes —
    /// the barrier-time merge for a loop that lent its outboxes out to
    /// shards. The order contract is identical: `(arrival time, source
    /// node, per-source push order)`, independent of the iteration order
    /// of `outboxes` (sources tag their messages).
    pub fn merge_sorted<'a>(
        outboxes: impl IntoIterator<Item = &'a mut Outbox<M>>,
    ) -> Vec<(Time, usize, M)>
    where
        M: 'a,
    {
        let mut tagged: Vec<(Time, usize, usize, usize, M)> = Vec::new();
        for outbox in outboxes {
            let src = outbox.src;
            tagged.extend(
                outbox
                    .pending
                    .drain(..)
                    .enumerate()
                    .map(|(idx, (at, dst, msg))| (at, src, idx, dst, msg)),
            );
        }
        // The `(at, src, idx)` key is unique, so an unstable sort yields
        // exactly the stable order.
        tagged.sort_unstable_by_key(|t| (t.0, t.1, t.2));
        tagged
            .into_iter()
            .map(|(at, _, _, dst, msg)| (at, dst, msg))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_packet_latency() {
        let mut f = Fabric::new(FabricConfig::default());
        // Header-only packet: 16 B = 0.16 ns + 35 ns.
        assert_eq!(f.send(Time::ZERO, 0, 1, 0), Time::from_ps(35_160));
    }

    #[test]
    fn directions_are_independent() {
        let mut f = Fabric::new(FabricConfig::default());
        let big = 100_000; // 1 us of serialization at 100 GBps
        let fwd = f.send(Time::ZERO, 0, 1, big);
        let rev = f.send(Time::ZERO, 1, 0, 64);
        assert!(rev < fwd, "reverse link must not queue behind forward");
    }

    #[test]
    fn same_direction_traffic_queues() {
        let mut f = Fabric::new(FabricConfig::default());
        let a = f.send(Time::ZERO, 0, 1, 8192);
        let b = f.send(Time::ZERO, 0, 1, 8192);
        assert!(b > a);
        assert_eq!(f.link_bytes(0, 1), 2 * (8192 + 16));
        assert_eq!(f.link_packets(0, 1), 2);
        assert_eq!(f.packets_total(), 2);
    }

    #[test]
    fn sustained_link_bandwidth() {
        // 1 MB of 64 B packets: with 16 B headers the wire moves 1.25 MB,
        // so drain ≈ 12.5 us at 100 GBps.
        let mut f = Fabric::new(FabricConfig::default());
        let mut last = Time::ZERO;
        for _ in 0..(1_000_000 / 64) {
            last = f.send(Time::ZERO, 0, 1, 64);
        }
        let expected_us = 1_000_000.0 * (80.0 / 64.0) / 100.0 / 1000.0;
        assert!((last.as_us() - expected_us).abs() < 0.1, "{last}");
    }

    #[test]
    #[should_panic(expected = "no self-links")]
    fn self_send_rejected() {
        let mut f = Fabric::new(FabricConfig::default());
        let _ = f.send(Time::ZERO, 1, 1, 64);
    }

    #[test]
    #[should_panic(expected = "cannot place every node")]
    fn overtall_mesh_rejected() {
        // 300 nodes on one column: row indices would overflow the u8
        // MeshCoord and silently shrink hop counts.
        let _ = Fabric::new(FabricConfig {
            nodes: 300,
            topology: RackTopology::Mesh { cols: 1 },
            ..FabricConfig::default()
        });
    }

    #[test]
    fn mesh_pairs_pay_per_hop_latency() {
        // 8 nodes on a 3-wide mesh: 0 -> 7 is 3 hops.
        let mut f = Fabric::new(FabricConfig::for_nodes(8));
        assert_eq!(f.hops(0, 7), 3);
        let one_hop = f.send(Time::ZERO, 0, 1, 0);
        let three_hops = f.send(Time::ZERO, 0, 7, 0);
        assert_eq!(
            three_hops - one_hop,
            Time::from_ns(70),
            "two extra hops at 35 ns each"
        );
    }

    #[test]
    fn fat_tree_pairs_pay_per_hop_latency() {
        // 8 nodes, radix 4: 0 -> 3 shares a leaf (1 hop), 0 -> 7 crosses
        // the spine (3 hops).
        let mut f = Fabric::new(FabricConfig {
            nodes: 8,
            topology: RackTopology::FatTree {
                radix: 4,
                oversubscription: 1,
            },
            ..FabricConfig::default()
        });
        let same_leaf = f.send(Time::ZERO, 0, 3, 0);
        let cross_leaf = f.send(Time::ZERO, 0, 7, 0);
        assert_eq!(
            cross_leaf - same_leaf,
            Time::from_ns(70),
            "two extra hops at 35 ns each"
        );
        assert_eq!(f.node_hops_sent(0), 4);
        assert_eq!(f.node_packets_sent(0), 2);
        assert_eq!(f.node_uplink_queued(0), 0, "full bisection never queues");
    }

    #[test]
    fn oversubscribed_uplink_queues_past_its_window_budget() {
        // radix 4 at 4:1 -> one cross-leaf packet per 35 ns window; the
        // k-th excess packet pays k extra hops of queueing latency.
        let mut f = Fabric::new(FabricConfig {
            nodes: 8,
            topology: RackTopology::FatTree {
                radix: 4,
                oversubscription: 4,
            },
            ..FabricConfig::default()
        });
        let first = f.send(Time::ZERO, 0, 7, 0);
        let second = f.send(Time::ZERO, 0, 7, 0);
        let third = f.send(Time::ZERO, 0, 7, 0);
        // Serialization queues 0.16 ns per packet; propagation adds one
        // extra hop to the second packet, two to the third.
        assert_eq!(second - first, Time::from_ps(160) + Time::from_ns(35));
        assert_eq!(third - second, Time::from_ps(160) + Time::from_ns(35));
        assert_eq!(f.node_uplink_queued(0), 2);
        assert_eq!(f.node_hops_sent(0), 3 + 4 + 5);
        // Same-leaf traffic never touches the uplink.
        let mut g = Fabric::new(FabricConfig {
            nodes: 8,
            topology: RackTopology::FatTree {
                radix: 4,
                oversubscription: 4,
            },
            ..FabricConfig::default()
        });
        let a = g.send(Time::ZERO, 0, 3, 0);
        let b = g.send(Time::ZERO, 0, 3, 0);
        assert_eq!(b - a, Time::from_ps(160), "only link serialization");
        assert_eq!(g.node_uplink_queued(0), 0);
    }

    #[test]
    fn uplink_budget_resets_every_window() {
        let mut f = Fabric::new(FabricConfig {
            nodes: 8,
            topology: RackTopology::FatTree {
                radix: 4,
                oversubscription: 4,
            },
            ..FabricConfig::default()
        });
        let _ = f.send(Time::ZERO, 0, 7, 0);
        let _ = f.send(Time::ZERO, 0, 7, 0); // queued
        assert_eq!(f.node_uplink_queued(0), 1);
        // The next window's first packet is inside the budget again.
        let _ = f.send(Time::from_ns(35), 0, 7, 0);
        assert_eq!(f.node_uplink_queued(0), 1);
    }

    /// A 2-rack × radix-4 (32-node) datacenter fabric at the given
    /// oversubscription, with a 350 ns spine.
    fn dc_fabric(oversubscription: u8) -> Fabric {
        Fabric::new(FabricConfig {
            nodes: 32,
            topology: RackTopology::datacenter_for(2, 4, oversubscription),
            ..FabricConfig::default()
        })
    }

    #[test]
    fn datacenter_route_classes_pay_their_latencies() {
        let mut f = dc_fabric(1);
        let same_leaf = f.send(Time::ZERO, 0, 3, 0); // 1 hop
        let same_rack = f.send(Time::ZERO, 0, 15, 0); // 3 hops
        let cross_rack = f.send(Time::ZERO, 0, 16, 0); // 4 hops + spine
        assert_eq!(same_rack - same_leaf, Time::from_ns(70));
        assert_eq!(
            cross_rack - same_rack,
            Time::from_ns(35) + Time::from_ns(350),
            "one more rack-local hop plus the 350 ns spine traversal"
        );
        assert_eq!(f.node_hops_sent(0), 1 + 3 + 5);
        assert_eq!(f.node_spine_crossings(0), 1);
        assert_eq!(f.spine_crossings_total(), 1);
        assert_eq!(f.node_spine_queued(0), 0, "full bisection never queues");
    }

    #[test]
    fn oversubscribed_spine_queues_past_its_window_budget() {
        // radix 4 at 2:1 -> spine budget 4/2² = 1 packet per 350 ns
        // window; the k-th excess cross-rack packet pays k extra spine
        // traversals. The leaf uplink (budget 2/35 ns) also queues the
        // third packet for one extra hop.
        let mut f = dc_fabric(2);
        let first = f.send(Time::ZERO, 0, 16, 0);
        let second = f.send(Time::ZERO, 0, 16, 0);
        let third = f.send(Time::ZERO, 0, 16, 0);
        assert_eq!(second - first, Time::from_ps(160) + Time::from_ns(350));
        assert_eq!(
            third - second,
            Time::from_ps(160) + Time::from_ns(350) + Time::from_ns(35),
            "two spine queue slots plus the leaf uplink's first penalty hop"
        );
        assert_eq!(f.node_spine_queued(0), 2);
        assert_eq!(f.node_spine_crossings(0), 3);
        // Rack-local traffic never touches the spine state.
        let mut g = dc_fabric(2);
        let _ = g.send(Time::ZERO, 0, 15, 0);
        let _ = g.send(Time::ZERO, 0, 15, 0);
        assert_eq!(g.node_spine_queued(0), 0);
        assert_eq!(g.node_spine_crossings(0), 0);
    }

    #[test]
    fn spine_budget_resets_every_spine_window() {
        let mut f = dc_fabric(2);
        let _ = f.send(Time::ZERO, 0, 16, 0);
        let _ = f.send(Time::ZERO, 0, 16, 0); // queued
        assert_eq!(f.node_spine_queued(0), 1);
        // The next 350 ns window's first packet is inside the budget, but
        // the spine FIFO still refuses to let it overtake the queued one.
        let queued_tail = f.send(Time::ZERO, 0, 16, 0);
        let next_window = f.send(Time::from_ns(350), 0, 16, 0);
        assert_eq!(f.node_spine_queued(0), 2, "in-budget packet never queues");
        assert!(next_window >= queued_tail, "spine is FIFO across windows");
    }

    #[test]
    fn single_rack_datacenter_matches_fat_tree_fabric() {
        let mut ft = Fabric::new(FabricConfig {
            nodes: 16,
            topology: RackTopology::FatTree {
                radix: 4,
                oversubscription: 2,
            },
            ..FabricConfig::default()
        });
        let mut dc = Fabric::new(FabricConfig {
            nodes: 16,
            topology: RackTopology::datacenter_for(1, 4, 2),
            ..FabricConfig::default()
        });
        for (src, dst, payload) in [(0, 3, 64u64), (0, 15, 64), (0, 15, 0), (12, 2, 4096)] {
            assert_eq!(
                ft.send(Time::ZERO, src, dst, payload),
                dc.send(Time::ZERO, src, dst, payload)
            );
        }
    }

    #[test]
    fn untouched_links_report_zero() {
        let f = dc_fabric(1);
        assert_eq!(f.link_bytes(0, 31), 0);
        assert_eq!(f.link_packets(0, 31), 0);
        assert_eq!(f.node_packets_sent(0), 0);
        assert_eq!(f.link_utilization(0, 31, Time::from_ns(100)), 0.0);
        assert_eq!(f.packets_total(), 0);
    }

    #[test]
    #[should_panic(expected = "spine latency must be at least")]
    fn sub_hop_spine_latency_rejected() {
        let _ = Fabric::new(FabricConfig {
            nodes: 32,
            topology: RackTopology::Datacenter {
                racks: 2,
                radix: 4,
                oversubscription: 1,
                spine_latency: Time::from_ns(1),
            },
            ..FabricConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "cannot place every node")]
    fn overfull_datacenter_rejected() {
        let _ = Fabric::new(FabricConfig {
            nodes: 33,
            topology: RackTopology::datacenter_for(2, 4, 1),
            ..FabricConfig::default()
        });
    }

    #[test]
    fn two_node_fat_tree_matches_direct_fabric() {
        let mut direct = Fabric::new(FabricConfig::default());
        let mut ft = Fabric::new(FabricConfig {
            topology: RackTopology::fat_tree_for(2, 4),
            ..FabricConfig::default()
        });
        for payload in [0u64, 64, 4096] {
            assert_eq!(
                direct.send(Time::ZERO, 0, 1, payload),
                ft.send(Time::ZERO, 0, 1, payload)
            );
        }
    }

    #[test]
    fn two_node_mesh_matches_direct_fabric() {
        let mut direct = Fabric::new(FabricConfig::default());
        let mut mesh = Fabric::new(FabricConfig {
            topology: RackTopology::mesh_for(2),
            ..FabricConfig::default()
        });
        for payload in [0u64, 64, 4096] {
            assert_eq!(
                direct.send(Time::ZERO, 0, 1, payload),
                mesh.send(Time::ZERO, 0, 1, payload)
            );
        }
    }

    #[test]
    fn router_merge_order_is_src_then_push_order_on_ties() {
        let mut r: ShardRouter<&str> = ShardRouter::new(3);
        let t = Time::from_ns(100);
        // Pushed in an order scrambled across sources.
        r.push(2, 0, t, "c0");
        r.push(0, 1, t, "a0");
        r.push(2, 1, t, "c1");
        r.push(1, 0, Time::from_ns(50), "b-early");
        r.push(0, 2, t, "a1");
        assert_eq!(r.in_flight(), 5);
        let order: Vec<&str> = r.drain_sorted().into_iter().map(|(_, _, m)| m).collect();
        assert_eq!(order, vec!["b-early", "a0", "a1", "c0", "c1"]);
        assert_eq!(r.in_flight(), 0);
        assert_eq!(r.pushed_total(), 5);
        assert_eq!(r.drained_total(), 5);
    }

    #[test]
    fn merge_over_lent_outboxes_ignores_their_order() {
        let t = Time::from_ns(100);
        let mut r: ShardRouter<&str> = ShardRouter::new(3);
        r.push(2, 0, t, "c0");
        r.push(0, 1, t, "a0");
        r.push(1, 0, Time::from_ns(50), "b-early");
        r.push(0, 2, t, "a1");
        // Lent-out outboxes merged in reverse source order.
        let merged = ShardRouter::merge_sorted(r.outboxes_mut().iter_mut().rev());
        let order: Vec<&str> = merged.into_iter().map(|(_, _, m)| m).collect();
        assert_eq!(order, vec!["b-early", "a0", "a1", "c0"]);
        assert_eq!(r.in_flight(), 0);
    }

    #[test]
    fn swap_pending_hands_out_push_order_and_takes_the_buffer_back() {
        let mut r: ShardRouter<&str> = ShardRouter::new(2);
        r.push(0, 1, Time::from_ns(90), "late");
        r.push(0, 1, Time::from_ns(40), "early");
        let outbox = &mut r.outboxes_mut()[0];
        let mut buf = Vec::new();
        outbox.swap_pending(&mut buf);
        assert!(outbox.is_empty());
        assert_eq!(
            buf,
            vec![
                (Time::from_ns(90), 1, "late"),
                (Time::from_ns(40), 1, "early")
            ]
        );
        buf.clear();
        outbox.swap_pending(&mut buf);
        // The outbox has its grown `Vec` back; `buf` is the empty one.
        assert_eq!(buf.capacity(), 0);
        assert_eq!(r.pushed_total(), 2);
    }

    #[test]
    #[should_panic(expected = "no self-delivery")]
    fn router_self_delivery_rejected() {
        let mut r: ShardRouter<()> = ShardRouter::new(2);
        r.push(1, 1, Time::ZERO, ());
    }
}
