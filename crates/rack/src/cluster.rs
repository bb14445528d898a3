//! The discrete-event cluster: nodes, RMCs, memory systems, fabric, cores.
//!
//! Every sans-IO component (pipelines, R2P2s, the LightSABRes engines) is
//! driven from the sharded event loop here. The wiring follows Figs. 5 and
//! 6 of the paper:
//!
//! * a core schedules a WQ entry → its node's RGP backend unrolls it into
//!   per-block packets (one per RMC cycle) onto the fabric;
//! * the destination R2P2 services requests against the node's LLC/DRAM at
//!   its issue bandwidth, snooping coherence invalidations from local
//!   writer stores, DMA writes and LLC evictions;
//! * replies return to the source RCP, which DMA-writes payloads into the
//!   local buffer and posts the completion (with the SABRe success bit) to
//!   the issuing core.
//!
//! Functional state (bytes) changes at the simulated instant each access is
//! serviced, so racing readers and writers interleave at cache-block
//! granularity exactly as the paper's atomicity argument requires.
//!
//! Every destination memory access — block read, one-sided write,
//! reader-lock acquire and release, writer CAS and unlock — takes one
//! path: the pump touches the access's [`R2p2Action::block`] in the LLC,
//! times it on the node's DRAM model and schedules one `MemDone` event
//! carrying the action; `on_mem_done` then applies its functional effect,
//! raises its invalidation and hands the outcome to the issuing R2P2's
//! one completion method, [`R2p2::complete_into`]. A reader-lock acquire
//! answers its engine *before* its invalidation fans out, and a release
//! re-arms no pump.
//!
//! # The sharded, thread-parallel event loop
//!
//! Every node owns its own event queue; nodes interact *only* through
//! fabric packets, whose earliest possible delivery lags their send by the
//! fabric lookahead ([`sabre_fabric::FabricConfig::min_latency`], one hop
//! = 35 ns). The loop therefore advances in lookahead-sized windows: each
//! shard (a contiguous partition of the nodes, [`ClusterConfig::shards`])
//! drains its nodes' queues up to the window end while outbound packets
//! accumulate in per-source [`sabre_fabric::Outbox`]es, and at the window
//! barrier all cross-node messages are delivered into the destination
//! queues so that each queue sees them in the order `(arrival time,
//! source, send order)`. Because neither the shard grouping nor the
//! intra-window advance order can influence any node's observable inputs,
//! the simulation is **bit-identical for every shard count**.
//!
//! That same property makes thread dispatch safe: within one window the
//! shards share nothing — each owns its nodes' state, its source-side
//! fabric ports and its outboxes — so [`Cluster::run_until`] drives them
//! from a pool of OS worker threads when [`ClusterConfig::threads`] opts
//! in (the default is the zero-overhead serial loop — sweeps already
//! parallelize across clusters, and nesting pools oversubscribes).
//! Workers claim shards from a shared cursor, synchronize at the window
//! barrier where the single coordinator runs the deterministic delivery,
//! and the result stays bit-identical at **every thread count** too.
//! [`ClusterConfig::shards`] and [`ClusterConfig::threads`] are the only
//! execution settings, set on the configuration; the root test
//! `tests/execution_invariance.rs` replays generated whole scenarios
//! (every topology, reader, writer and fault kind) at several of them.
//!
//! Since the grouping is invisible, the serial loop does not keep it: a
//! run that resolves to one thread advances **all nodes as one
//! scheduling domain** (one hint heap, one drain, one delivery per window)
//! whatever [`ClusterConfig::shards`] says. Shards exist only to hand
//! node ranges to worker threads.
//!
//! # The node queue and the allocation-free hot path
//!
//! Each node's queue pops in exactly the `(time, schedule order)` of an
//! [`EventQueue`](sabre_sim::EventQueue) of events, without a heap. Events
//! waiting for a later instant sit in one deque sorted by time: a new
//! event is appended when it is not earlier than the tail (an RGP unroll
//! schedules its blocks in increasing time), and otherwise inserted after
//! every event due at or before it, so ties stay FIFO. An event scheduled
//! at the instant the queue last popped — a pump re-arming itself, a reply
//! sent the moment its block is read — goes to a FIFO *same-instant lane*
//! instead. A pop takes a deque head at that instant first, then the
//! lane, then the rest of the deque: every deque entry at the last-popped
//! instant `T` was scheduled before the first pop at `T`, and every lane
//! entry after it, so the order is exact. A message the barrier delivers
//! at `T` finds the lane empty and nothing at `T` left in the deque,
//! because the drain popped everything up to the window end.
//!
//! # Sort-free barrier delivery
//!
//! The merge order `(arrival time, source, send order)` needs no global
//! sort. Its only observable effect is the order of messages with equal
//! `(destination, arrival)`, because a queue orders different instants by
//! itself. The barrier walks the senders in ascending source order and
//! each outbox in send order, scheduling every message straight into its
//! destination's queue, so such ties are scheduled in `(source, send
//! order)` and the queue keeps them FIFO. Each sent outbox's `Vec` is
//! swapped out and back ([`sabre_fabric::Outbox::swap_pending`]): no
//! message is copied into a merge buffer.
//!
//! Nothing else on the per-event path allocates once a run is warm:
//! R2P2 completions and the RGP unroll append their packets to a per-node
//! buffer ([`R2p2::complete_into`],
//! [`SourcePipeline::start_transfer_into`]), a one-sided write reads its
//! payload straight from the node's memory, and queues and outboxes keep
//! their grown capacity between windows and runs.
//! [`Cluster::events_handled`] counts the handled events by kind.
//!
//! # O(active) window scheduling
//!
//! At datacenter scale most nodes are idle in most windows (readers bind
//! to a handful of stores), so scanning every node's queue per window —
//! once to find the next event, once to drain — would make window cost
//! O(nodes) regardless of activity. Instead each scheduling domain keeps
//! a min-heap of **lazily validated hints** `(time, node)`. The run's
//! seed pass hints every non-empty queue's head, each drained node
//! re-hints its next pending event, and the barrier hints a destination
//! whenever a delivered message becomes its **new queue head** (the queue
//! was empty, or the message arrives before the old head). A message that
//! does not lower the head needs no hint, because the head already
//! carries one at or before it. So the invariant is coverage: every queue
//! head has a hint at or before it. A destination is hinted once per
//! message that lowers its head, which may be several times per window. A
//! popped hint whose node's queue head has moved (the event was already
//! consumed) is discarded or refreshed — so both the next-event probe and
//! the window drain touch only nodes that actually have pending events,
//! and hint-processing order cannot leak into results because nodes are
//! independent within a window (every handler schedules onto the node it
//! runs on; debug builds verify the drain left nothing behind). Likewise
//! the barrier drains only the outboxes that sent during the window, not
//! one per node.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use sabre_fabric::{Fabric, FabricPort, Outbox, ShardRouter};
use sabre_mem::{Addr, BlockAddr, Llc, MemSystem, NodeMemory, ServiceLevel, BLOCK_BYTES};
use sabre_sim::{FifoServer, SimRng, Time};
use sabre_sonuma::r2p2::{MemOutcome, R2p2Action, R2p2Stats};
use sabre_sonuma::{Block, CqEntry, OpKind, Packet, PacketKind, R2p2, SourcePipeline, WqEntry};
use sabre_sw::locking::{remote_cas_lock, remote_unlock, CasOutcome};
use sabre_sw::{CpuCostModel, ReaderLockWord};

use crate::config::ClusterConfig;
use crate::fault::DropIndex;
use crate::metrics::CoreMetrics;
use crate::workload::Workload;

#[derive(Debug)]
enum Event {
    /// A packet enters the fabric.
    FabricSend(Packet),
    /// A packet arrives at its destination node.
    PacketArrive(Packet),
    /// An R2P2's issue pump fires.
    Pump { node: u8, pipe: u8 },
    /// A memory access an R2P2 issued reached the node's LLC/DRAM.
    MemDone {
        node: u8,
        pipe: u8,
        access: R2p2Action,
    },
    /// A sleeping workload wakes.
    Wake { node: u8, core: u8 },
    /// A completion reaches its issuing core.
    Complete { node: u8, core: u8, cq: CqEntry },
    /// An inbound RPC request reaches its target core.
    RpcDeliver {
        node: u8,
        core: u8,
        src_node: u8,
        src_core: u8,
        tag: u64,
        bytes: u32,
    },
    /// An RPC reply reaches the core that sent the request.
    RpcReplyDeliver {
        node: u8,
        core: u8,
        tag: u64,
        bytes: u32,
    },
}

impl Event {
    /// The event's kind: its index into a node's handled-event counts,
    /// in [`EventCounts`] field order.
    fn kind(&self) -> usize {
        match self {
            Event::FabricSend(_) => 0,
            Event::PacketArrive(_) => 1,
            Event::Pump { .. } => 2,
            Event::MemDone { .. } => 3,
            Event::Wake { .. } => 4,
            Event::Complete { .. } => 5,
            Event::RpcDeliver { .. } => 6,
            Event::RpcReplyDeliver { .. } => 7,
        }
    }
}

/// Events a cluster has handled, by kind, summed over every node, and the
/// local stores its cores made (see [`Cluster::events_handled`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Packets handed to the fabric at their source.
    pub fabric_sends: u64,
    /// Packets arriving at their destination node.
    pub packet_arrivals: u64,
    /// Firings of an R2P2's issue pump.
    pub pumps: u64,
    /// Destination memory accesses completed (reads, writes, lock, CAS
    /// and unlock RMWs, lock releases).
    pub mem_done: u64,
    /// Workload wake-ups.
    pub wakes: u64,
    /// Completions delivered to issuing cores.
    pub completions: u64,
    /// RPC requests delivered to their target cores.
    pub rpc_deliveries: u64,
    /// RPC replies delivered to their requesting cores.
    pub rpc_reply_deliveries: u64,
    /// Local stores cores made ([`CoreApi::store_local`] and
    /// [`CoreApi::store_local_u64`]): writers' lock, payload and publish
    /// stores, each with its LLC fill and invalidation fan-out. A store is
    /// work inside a handled event (a writer's wake-up), not an event of
    /// its own, so [`EventCounts::total`] leaves it out.
    pub local_stores: u64,
}

impl EventCounts {
    fn from_kinds(k: [u64; 8], local_stores: u64) -> Self {
        EventCounts {
            fabric_sends: k[0],
            packet_arrivals: k[1],
            pumps: k[2],
            mem_done: k[3],
            wakes: k[4],
            completions: k[5],
            rpc_deliveries: k[6],
            rpc_reply_deliveries: k[7],
            local_stores,
        }
    }

    /// Events of every kind (local stores are not events).
    pub fn total(&self) -> u64 {
        self.fabric_sends
            + self.packet_arrivals
            + self.pumps
            + self.mem_done
            + self.wakes
            + self.completions
            + self.rpc_deliveries
            + self.rpc_reply_deliveries
    }
}

/// A node's event queue: pops in `(time, schedule order)`, like an
/// [`EventQueue`](sabre_sim::EventQueue), with no heap.
///
/// * Events at a later instant than the last pop wait in one deque sorted
///   by time. A new event is appended when it is not earlier than the
///   tail, which is the common case (an RGP unroll schedules its blocks
///   in increasing time). Otherwise it is inserted after every event due
///   at or before it, so events at one instant stay in schedule order.
/// * An event scheduled at exactly the last-popped instant goes to a FIFO
///   *same-instant lane*. Where traffic is per-block reads and writes, a
///   fifth to a third of all schedules are such zero-delay follow-ups (a
///   pump re-arming at its own instant, a reply sent the moment its block
///   is read), and the lane keeps them off the deque's insert path.
///
/// Popping prefers a deque head at the last-popped instant over the lane,
/// then the lane, then the deque. That is exact `(at, seq)` order: lane
/// entries are at the last-popped instant `T` and were scheduled after
/// the first pop at `T`, while every deque entry at `T` was scheduled
/// before it (once `T` has been popped, new work at `T` goes to the
/// lane). A message the window barrier delivers at the last-popped
/// instant joins the lane too; it finds the lane empty and nothing at `T`
/// left in the deque, because the drain popped everything up to the
/// window end.
struct NodeQueue<E> {
    /// Events scheduled before their instant was first popped, sorted by
    /// time, ties in schedule order.
    pending: VecDeque<(Time, E)>,
    /// Events scheduled at `last` after it was first popped, in order.
    lane: VecDeque<E>,
    /// The last-popped instant.
    last: Time,
}

impl<E> NodeQueue<E> {
    fn new() -> Self {
        NodeQueue {
            pending: VecDeque::new(),
            lane: VecDeque::new(),
            last: Time::ZERO,
        }
    }

    /// Schedules `event` at `at`, which must not precede the last pop.
    fn schedule(&mut self, at: Time, event: E) {
        debug_assert!(at >= self.last, "event scheduled in the past");
        if at == self.last {
            self.lane.push_back(event);
        } else if self.pending.back().is_none_or(|&(tail, _)| tail <= at) {
            self.pending.push_back((at, event));
        } else {
            let i = self.pending.partition_point(|&(t, _)| t <= at);
            self.pending.insert(i, (at, event));
        }
    }

    /// Time of the earliest pending event.
    fn peek_time(&self) -> Option<Time> {
        if self.lane.is_empty() {
            self.pending.front().map(|&(t, _)| t)
        } else {
            Some(self.last)
        }
    }

    /// Removes and returns the earliest pending event if it is due at or
    /// before `end`.
    fn pop_until(&mut self, end: Time) -> Option<(Time, E)> {
        let head = self.pending.front().map(|&(t, _)| t);
        if !self.lane.is_empty() && head != Some(self.last) {
            if self.last > end {
                return None;
            }
            return self.lane.pop_front().map(|e| (self.last, e));
        }
        if head? > end {
            return None;
        }
        let (at, event) = self.pending.pop_front().expect("peeked");
        self.last = at;
        Some((at, event))
    }
}

/// Everything one node owns: simulated hardware, functional memory, the
/// node's event queue, and the per-core workload/measurement state. A
/// shard is a contiguous slice of these — the unit one worker thread
/// advances without synchronization.
struct NodeCtx {
    memory: NodeMemory,
    llc: Llc,
    mem_sys: MemSystem,
    r2p2s: Vec<R2p2>,
    r2p2_issue: Vec<FifoServer>,
    pump_on: Vec<bool>,
    pipelines: Vec<SourcePipeline>,
    rgp_unroll: Vec<FifoServer>,
    /// This node's own event queue.
    queue: NodeQueue<Event>,
    /// Reused buffer for the packets an R2P2 completion or an RGP unroll
    /// emits; always empty between events.
    sends: Vec<Packet>,
    /// Events handled, by [`Event::kind`].
    handled: [u64; 8],
    /// Local stores made by this node's cores.
    local_stores: u64,
    /// Monotonicity watermark of the node's local event time; during
    /// event handling this *is* the current simulated instant.
    now: Time,
    workloads: Vec<Option<Box<dyn Workload>>>,
    metrics: Vec<CoreMetrics>,
    rngs: Vec<SimRng>,
    wq_seq: Vec<u64>,
    delivered_packets: u64,
    dropped_packets: u64,
}

/// The simulated rack. See the [crate docs](crate) for an example.
pub struct Cluster {
    cfg: ClusterConfig,
    /// `cfg.fault` indexed for the barrier's per-packet drop check.
    drops: DropIndex,
    now: Time,
    fabric: Fabric,
    router: ShardRouter<Event>,
    nodes: Vec<NodeCtx>,
    /// Per-domain window bookkeeping, kept across runs so its buffers
    /// stay grown.
    scheds: Vec<Sched>,
    started: bool,
}

impl Cluster {
    /// Builds a rack from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: ClusterConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid cluster configuration: {e}");
        }
        let root_rng = SimRng::seed(cfg.seed);
        let nodes = (0..cfg.nodes)
            .map(|n| NodeCtx {
                memory: NodeMemory::new(cfg.memory_bytes),
                llc: Llc::with_geometry(cfg.llc_bytes, cfg.llc_ways),
                mem_sys: MemSystem::new(cfg.mem_timing.clone()),
                r2p2s: (0..cfg.rmc_backends)
                    .map(|p| {
                        let mut r2p2 = R2p2::new(n as u8, p as u8, cfg.lightsabres.clone());
                        if !cfg.fault.is_empty() {
                            // A crash can eat a registration whose data
                            // requests outlive the outage; those are stale
                            // traffic to discard, not protocol violations.
                            r2p2 = r2p2.tolerating_stale();
                        }
                        if cfg.serve_stale {
                            r2p2 = r2p2.serving_stale();
                        }
                        r2p2
                    })
                    .collect(),
                r2p2_issue: vec![FifoServer::new(); cfg.rmc_backends],
                pump_on: vec![false; cfg.rmc_backends],
                pipelines: (0..cfg.rmc_backends)
                    .map(|p| SourcePipeline::new(n as u8, p as u8, cfg.rmc_backends as u8))
                    .collect(),
                rgp_unroll: vec![FifoServer::new(); cfg.rmc_backends],
                queue: NodeQueue::new(),
                sends: Vec::new(),
                handled: [0; 8],
                local_stores: 0,
                now: Time::ZERO,
                workloads: (0..cfg.cores_per_node).map(|_| None).collect(),
                metrics: vec![CoreMetrics::default(); cfg.cores_per_node],
                rngs: (0..cfg.cores_per_node)
                    .map(|c| root_rng.fork((n * 1000 + c) as u64))
                    .collect(),
                wq_seq: vec![0; cfg.cores_per_node],
                delivered_packets: 0,
                dropped_packets: 0,
            })
            .collect();
        Cluster {
            drops: DropIndex::new(&cfg.fault),
            fabric: Fabric::new(cfg.fabric.clone()),
            router: ShardRouter::new(cfg.nodes),
            nodes,
            scheds: Vec::new(),
            now: Time::ZERO,
            started: false,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Mutable access to a node's functional memory — for initializing data
    /// stores *before* the simulation runs (no invalidations are raised).
    pub fn node_memory_mut(&mut self, node: usize) -> &mut NodeMemory {
        &mut self.nodes[node].memory
    }

    /// Read access to a node's functional memory.
    pub fn node_memory(&self, node: usize) -> &NodeMemory {
        &self.nodes[node].memory
    }

    /// Pre-warms the LLC with `range` (marks blocks resident, as a prior
    /// pass over the data would).
    pub fn warm_llc(&mut self, node: usize, base: Addr, bytes: u64) {
        for b in sabre_mem::BlockRange::covering(base, bytes).iter() {
            let _ = self.nodes[node].llc.access(b);
        }
    }

    /// Installs a workload on a core.
    ///
    /// # Panics
    ///
    /// Panics if the core already has one or is out of range.
    pub fn add_workload(&mut self, node: usize, core: usize, w: Box<dyn Workload>) {
        assert!(
            self.nodes[node].workloads[core].is_none(),
            "core {node}.{core} already has a workload"
        );
        self.nodes[node].workloads[core] = Some(w);
    }

    /// Metrics of one core.
    pub fn metrics(&self, node: usize, core: usize) -> &CoreMetrics {
        &self.nodes[node].metrics[core]
    }

    /// Resets every measurement sink — per-core [`CoreMetrics`], per-pipe
    /// R2P2 counters, LightSABRes engine counters and
    /// [`Cluster::events_handled`] — without disturbing
    /// simulation state (functional memory, LLC contents, in-flight
    /// events). This is the warmup-window primitive: run the warmup phase,
    /// reset, then measure.
    pub fn reset_metrics(&mut self) {
        for node in &mut self.nodes {
            node.handled = [0; 8];
            node.local_stores = 0;
            for m in &mut node.metrics {
                m.reset();
            }
            for r2p2 in &mut node.r2p2s {
                r2p2.reset_stats();
            }
        }
    }

    /// Events handled since the cluster was built or its metrics were last
    /// reset, by kind, summed over every node, and the local stores cores
    /// made in that time. Each simulated block transfer costs a handful of
    /// events, and each object update a store per block, so these counts
    /// are what per-event and per-store host costs multiply by.
    pub fn events_handled(&self) -> EventCounts {
        let mut kinds = [0u64; 8];
        let mut local_stores = 0;
        for node in &self.nodes {
            for (sum, n) in kinds.iter_mut().zip(node.handled) {
                *sum += n;
            }
            local_stores += node.local_stores;
        }
        EventCounts::from_kinds(kinds, local_stores)
    }

    /// R2P2 statistics of one destination pipeline.
    pub fn r2p2_stats(&self, node: usize, pipe: usize) -> R2p2Stats {
        self.nodes[node].r2p2s[pipe].stats()
    }

    /// LightSABRes engine statistics of one destination pipeline.
    pub fn engine_stats(&self, node: usize, pipe: usize) -> sabre_core::EngineStats {
        self.nodes[node].r2p2s[pipe].engine().stats()
    }

    /// The inter-node fabric (topology, per-link byte/packet accounting).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Packets delivered to destination pipelines so far. Together with
    /// [`Fabric::packets_total`] and [`Cluster::packets_dropped`] this
    /// exposes the conservation invariant: every sent packet is delivered
    /// or dropped exactly once (the difference is the packets still queued
    /// for a future delivery instant).
    pub fn packets_delivered(&self) -> u64 {
        self.nodes.iter().map(|n| n.delivered_packets).sum()
    }

    /// Packets discarded by the [`ClusterConfig::fault`] plan — traffic to,
    /// from, or across a crashed node or cut link — counted at the
    /// window barrier's delivery. Zero without a fault plan.
    pub fn packets_dropped(&self) -> u64 {
        self.nodes.iter().map(|n| n.dropped_packets).sum()
    }

    /// Worker threads a run would use: the explicit
    /// [`ClusterConfig::threads`] clamped to the shard count, else 1.
    ///
    /// In-cluster threading is deliberately opt-in: sweeps already
    /// parallelize across points (one cluster per worker), so a
    /// per-cluster pool on top would nest — `sweep workers × shard
    /// workers` threads — and the window barrier costs two
    /// synchronizations per 35 ns lookahead window, which only pays off
    /// when one big sharded rack has a host core to itself.
    fn resolve_threads(&self, shards: usize) -> usize {
        self.cfg.threads.map_or(1, |n| n.clamp(1, shards))
    }

    /// Runs until `deadline` (events at exactly `deadline` still fire).
    ///
    /// The loop advances in fabric-lookahead windows (see the
    /// [module docs](self) on sharding and threading): each window, every
    /// scheduling domain drains its nodes' queues up to the window end —
    /// concurrently when more than one worker thread is resolved — then
    /// the cross-node packets generated meanwhile are delivered into
    /// destination queues in deterministic order. The result is
    /// bit-identical for every [`ClusterConfig::shards`] and
    /// [`ClusterConfig::threads`] value.
    pub fn run_until(&mut self, deadline: Time) {
        let lookahead = self.cfg.fabric.min_latency();
        let shards = self.cfg.shards.clamp(1, self.cfg.nodes);
        let threads = self.resolve_threads(shards);
        // A serial run is one scheduling domain over every node, whatever
        // `shards` says: grouping is invisible in results, and one domain
        // spares each window a per-shard next-event probe and advance.
        // Only worker threads need the partition.
        let domains = if threads <= 1 { 1 } else { shards };
        let per_shard = self.cfg.nodes.div_ceil(domains).max(1);
        let start_needed = !self.started;
        self.started = true;

        // Split the cluster into per-domain execution contexts: disjoint
        // slices of nodes, their source-side fabric ports, their outboxes
        // and their window bookkeeping, plus the shared read-only
        // configuration.
        let cfg = &self.cfg;
        let drops = &self.drops;
        let issue_interval = cfg.r2p2_issue_interval();
        let (_, ports) = self.fabric.split();
        let outboxes = self.router.outboxes_mut();
        self.scheds
            .resize_with(cfg.nodes.div_ceil(per_shard), Sched::default);
        for sched in &mut self.scheds {
            // The seed pass below re-hints every pending queue head.
            sched.active.clear();
        }
        let mut tasks: Vec<ShardExec<'_>> = self
            .nodes
            .chunks_mut(per_shard)
            .zip(ports.chunks_mut(per_shard))
            .zip(outboxes.chunks_mut(per_shard))
            .zip(self.scheds.iter_mut())
            .enumerate()
            .map(|(i, (((nodes, ports), outboxes), sched))| ShardExec {
                cfg,
                drops,
                issue_interval,
                base: i * per_shard,
                nodes,
                ports,
                outboxes,
                sched,
            })
            .collect();

        if start_needed {
            // Deliver on_start in deterministic (node, core) order before
            // any window runs.
            for t in tasks.iter_mut() {
                let base = t.base;
                for local in 0..t.nodes.len() {
                    for core in 0..cfg.cores_per_node {
                        t.dispatch(base + local, core, |w, api| w.on_start(api));
                    }
                }
            }
        }

        // Seed the hint heaps: one O(nodes) pass per run (not per window)
        // covers both events left pending by a previous run and anything
        // on_start just scheduled.
        for t in tasks.iter_mut() {
            for i in 0..t.nodes.len() {
                if let Some(head) = t.nodes[i].queue.peek_time() {
                    t.sched.active.push(Reverse((head, i)));
                }
            }
        }

        if let [task] = tasks.as_mut_slice() {
            Self::run_windows_serial(task, lookahead, deadline);
        } else {
            Self::run_windows_parallel(
                tasks.as_mut_slice(),
                per_shard,
                lookahead,
                deadline,
                threads,
            );
        }

        self.now = deadline;
        for node in &mut self.nodes {
            node.now = deadline;
        }
    }

    /// The single-threaded window loop over one domain holding every node.
    fn run_windows_serial(mut task: &mut ShardExec<'_>, lookahead: Time, deadline: Time) {
        // The earliest pending event anywhere decides each window; quiet
        // stretches are skipped in one step.
        let nodes = task.nodes.len();
        while let Some(next) = task.next_event() {
            if next > deadline {
                break;
            }
            let window_end = deadline.min(next + lookahead);
            task.advance(window_end);
            deliver(std::slice::from_mut(&mut task), nodes, window_end);
        }
    }

    /// The thread-parallel window loop: a pool of `threads` workers claims
    /// shards from a shared cursor each window; the coordinator (this
    /// thread) computes windows and runs the deterministic delivery at
    /// each barrier. Bit-identical to the serial loop by construction —
    /// the delivery order never depends on which worker advanced which
    /// shard.
    fn run_windows_parallel(
        tasks: &mut [ShardExec<'_>],
        per_shard: usize,
        lookahead: Time,
        deadline: Time,
        threads: usize,
    ) {
        let n_tasks = tasks.len();
        let slots: Vec<Mutex<&mut ShardExec<'_>>> = tasks.iter_mut().map(Mutex::new).collect();
        let barrier = Barrier::new(threads + 1);
        let window_ps = AtomicU64::new(0);
        let cursor = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        // A worker panic (workload assertion, poisoned shard) is stashed
        // here and re-raised by the coordinator after the pool unblocks —
        // a raw propagation would leave the others waiting at the barrier
        // forever.
        let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    barrier.wait();
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let window_end = Time::from_ps(window_ps.load(Ordering::Acquire));
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| loop {
                        let i = cursor.fetch_add(1, Ordering::AcqRel);
                        if i >= n_tasks {
                            break;
                        }
                        slots[i].lock().expect("shard poisoned").advance(window_end);
                    }));
                    if let Err(p) = outcome {
                        let mut slot = match panicked.lock() {
                            Ok(s) => s,
                            Err(e) => e.into_inner(),
                        };
                        slot.get_or_insert(p);
                    }
                    barrier.wait();
                });
            }

            // Coordinator. Any panic on this side (a delivery debug-assert,
            // a poisoned shard) must also release the parked workers
            // before unwinding, or thread::scope's implicit join would
            // hang on the barrier forever — hence `abort`.
            let abort = |p: Box<dyn std::any::Any + Send>| -> ! {
                stop.store(true, Ordering::Release);
                barrier.wait();
                panic::resume_unwind(p);
            };
            let next_event = |slots: &[Mutex<&mut ShardExec<'_>>]| {
                slots
                    .iter()
                    .filter_map(|s| s.lock().expect("shard poisoned").next_event())
                    .min()
            };
            let mut next = match panic::catch_unwind(AssertUnwindSafe(|| next_event(&slots))) {
                Ok(n) => n,
                Err(p) => abort(p),
            };
            loop {
                let window_end = match next {
                    Some(n) if n <= deadline => deadline.min(n + lookahead),
                    _ => {
                        stop.store(true, Ordering::Release);
                        barrier.wait();
                        break;
                    }
                };
                window_ps.store(window_end.as_ps(), Ordering::Release);
                cursor.store(0, Ordering::Release);
                barrier.wait(); // workers advance their claimed shards
                barrier.wait(); // window done
                let p = {
                    let mut slot = match panicked.lock() {
                        Ok(s) => s,
                        Err(e) => e.into_inner(),
                    };
                    slot.take()
                };
                if let Some(p) = p {
                    abort(p);
                }
                // Workers are parked at the window-start barrier, so the
                // coordinator owns every shard: deliver cross-node traffic
                // and pick the next window.
                let delivered = panic::catch_unwind(AssertUnwindSafe(|| {
                    let mut guards: Vec<_> = slots
                        .iter()
                        .map(|s| s.lock().expect("shard poisoned"))
                        .collect();
                    let mut refs: Vec<&mut ShardExec<'_>> =
                        guards.iter_mut().map(|g| &mut ***g).collect();
                    deliver(&mut refs, per_shard, window_end);
                    refs.iter_mut().filter_map(|t| t.next_event()).min()
                }));
                next = match delivered {
                    Ok(n) => n,
                    Err(p) => abort(p),
                };
            }
        });
    }

    /// Runs for `duration` more simulated time.
    pub fn run_for(&mut self, duration: Time) {
        self.run_until(self.now + duration);
    }
}

/// One scheduling domain's window bookkeeping.
#[derive(Default)]
struct Sched {
    /// Lazily validated `(time, local node)` hints for nodes with pending
    /// events — what makes window scheduling O(active nodes) instead of
    /// O(nodes) (see the [module docs](self)). A node may carry several
    /// hints (its own re-hint plus one from the barrier each time a
    /// message becomes its new head); stale ones are discarded or refreshed
    /// against the queue head when popped.
    active: BinaryHeap<Reverse<(Time, usize)>>,
    /// Local indices of the nodes whose outbox went from empty to
    /// non-empty this window — the only outboxes the barrier drains.
    sent: Vec<usize>,
}

/// A scheduling domain as the window barrier sees it; a trait so that the
/// delivery order can be tested on plain queues of numbered messages.
trait Domain<M> {
    /// The outboxes of the domain's nodes, by local index.
    fn outboxes(&mut self) -> &mut [Outbox<M>];
    /// Local indices of the nodes whose outbox went from empty to
    /// non-empty this window, each listed once.
    fn senders(&mut self) -> &mut Vec<usize>;
    /// Takes delivery of `msg`, due at local node `local` at `at`.
    fn receive(&mut self, local: usize, at: Time, msg: M);
}

/// The window barrier: drains the outboxes that sent this window and
/// schedules every cross-node message straight into its destination's
/// queue.
///
/// No sort is needed to honour the deterministic merge order `(arrival
/// time, source, per-source send order)`. Senders are walked in ascending
/// source order (domains hold contiguous node ranges, in order) and each
/// outbox in send order, so the messages one destination receives at one
/// instant arrive in `(source, send order)`; its queue orders different
/// instants by itself and keeps ties in schedule order. Each sent
/// outbox's `Vec` is swapped out and back, so nothing is copied and the
/// outboxes keep their capacity.
fn deliver<D: Domain<M>, M>(domains: &mut [&mut D], per_domain: usize, window_end: Time) {
    let mut msgs = Vec::new();
    for si in 0..domains.len() {
        let mut sent = std::mem::take(domains[si].senders());
        sent.sort_unstable();
        for &i in &sent {
            domains[si].outboxes()[i].swap_pending(&mut msgs);
            for (at, dst, msg) in msgs.drain(..) {
                debug_assert!(
                    at >= window_end,
                    "fabric message outran the lookahead window"
                );
                domains[dst / per_domain].receive(dst % per_domain, at, msg);
            }
            domains[si].outboxes()[i].swap_pending(&mut msgs);
        }
        sent.clear();
        *domains[si].senders() = sent;
    }
    debug_assert!(
        domains
            .iter_mut()
            .all(|d| d.outboxes().iter().all(Outbox::is_empty)),
        "an outbox sent without being listed as a sender"
    );
}

impl Domain<Event> for ShardExec<'_> {
    fn outboxes(&mut self) -> &mut [Outbox<Event>] {
        self.outboxes
    }

    fn senders(&mut self) -> &mut Vec<usize> {
        &mut self.sched.sent
    }

    /// This is also where the [`FaultPlan`](crate::fault::FaultPlan)
    /// bites: a packet whose source node, destination node or link is
    /// down at the arrival instant is counted and discarded instead of
    /// scheduled. The decision is a pure function of the (static) plan and
    /// the packet's `(src, dst, arrival)` tuple, so injection cannot
    /// perturb the shard × thread bit-identity the delivery order
    /// guarantees. The check reads the plan's per-node index, built once
    /// in [`Cluster::new`].
    fn receive(&mut self, local: usize, at: Time, msg: Event) {
        let node = &mut self.nodes[local];
        if let Event::PacketArrive(pkt) = &msg {
            if self
                .drops
                .drops_packet(pkt.src_node as usize, pkt.dst_node as usize, at)
            {
                node.dropped_packets += 1;
                return;
            }
        }
        // Hint the destination only when the message becomes its queue
        // head: an earlier or equal head already carries a hint at or
        // before `at`, so every head stays covered.
        if node.queue.peek_time().is_none_or(|head| at < head) {
            self.sched.active.push(Reverse((at, local)));
        }
        node.queue.schedule(at, msg);
    }
}

/// One scheduling domain's execution context: the shared configuration
/// plus mutable ownership of a contiguous node range, those nodes' fabric
/// ports and outboxes. All event handling happens here, always against
/// the state of exactly one node (plus its source-owned port/outbox) —
/// which is what makes shards independently advanceable from worker
/// threads.
struct ShardExec<'a> {
    cfg: &'a ClusterConfig,
    /// The fault plan's drop index.
    drops: &'a DropIndex,
    /// [`ClusterConfig::r2p2_issue_interval`], computed once per run.
    issue_interval: Time,
    /// Global index of `nodes[0]`.
    base: usize,
    nodes: &'a mut [NodeCtx],
    ports: &'a mut [FabricPort],
    outboxes: &'a mut [Outbox<Event>],
    sched: &'a mut Sched,
}

impl<'a> ShardExec<'a> {
    /// Re-borrows the context with a shorter lifetime (for [`CoreApi`]).
    fn reborrow(&mut self) -> ShardExec<'_> {
        ShardExec {
            cfg: self.cfg,
            drops: self.drops,
            issue_interval: self.issue_interval,
            base: self.base,
            nodes: self.nodes,
            ports: self.ports,
            outboxes: self.outboxes,
            sched: self.sched,
        }
    }

    fn node_ref(&self, node: usize) -> &NodeCtx {
        &self.nodes[node - self.base]
    }

    fn node_mut(&mut self, node: usize) -> &mut NodeCtx {
        &mut self.nodes[node - self.base]
    }

    /// Earliest pending event over this shard's nodes.
    ///
    /// Consults only the hint heap — O(stale hints) amortized, not
    /// O(nodes). A stale hint (its node's queue head moved later, or the
    /// queue drained) is discarded or refreshed in place; a fresh one is
    /// the shard's earliest event, because every queue head is covered by
    /// a hint at or before it (see the module docs).
    fn next_event(&mut self) -> Option<Time> {
        let active = &mut self.sched.active;
        while let Some(&Reverse((t, i))) = active.peek() {
            match self.nodes[i].queue.peek_time() {
                Some(actual) if actual == t => return Some(t),
                Some(actual) => {
                    debug_assert!(actual > t, "queue head moved earlier without a hint");
                    active.pop();
                    active.push(Reverse((actual, i)));
                }
                None => {
                    active.pop();
                }
            }
        }
        None
    }

    /// Advances every node of this shard with work in the current window.
    /// Only this shard's state is touched, and only nodes named by a hint
    /// with `time <= window_end` are visited — idle nodes cost nothing.
    fn advance(&mut self, window_end: Time) {
        while let Some(&Reverse((t, i))) = self.sched.active.peek() {
            if t > window_end {
                break;
            }
            self.sched.active.pop();
            // A stale hint (the node was already drained under a sibling
            // hint this window, or the hinted event was consumed earlier)
            // is discarded without a re-push: whatever made the node's
            // current head its head (the seed pass, a drain, or the barrier
            // delivering a new head) pushed a hint exactly at it, so
            // coverage holds and duplicates cannot accumulate.
            match self.nodes[i].queue.peek_time() {
                Some(h) if h <= window_end => {}
                _ => continue,
            }
            // Drain the node fully: handlers only ever schedule follow-up
            // work onto the node they run on, so the inner loop sees every
            // in-window event this node will have, and no other node's
            // queue grows while we are here.
            while let Some((t, ev)) = self.nodes[i].queue.pop_until(window_end) {
                let node = &mut self.nodes[i];
                debug_assert!(t >= node.now, "node time went backwards");
                node.now = t;
                node.handled[ev.kind()] += 1;
                self.handle(ev);
            }
            self.nodes[i].now = window_end;
            if let Some(head) = self.nodes[i].queue.peek_time() {
                self.sched.active.push(Reverse((head, i)));
            }
        }
        // Safety net for the node-locality invariant the skip relies on:
        // in debug builds, verify no node kept an event inside the window
        // (which would mean a handler scheduled onto a foreign node and
        // the hint heap missed it).
        #[cfg(debug_assertions)]
        for n in self.nodes.iter_mut() {
            if let Some(t) = n.queue.peek_time() {
                debug_assert!(
                    t > window_end,
                    "a node with in-window work was skipped (cross-node schedule?)"
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Schedules an event on `node`'s own queue (node-local work only;
    /// cross-node traffic goes through the fabric and the outboxes).
    fn schedule_at(&mut self, node: usize, at: Time, ev: Event) {
        self.node_mut(node).queue.schedule(at, ev);
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::FabricSend(pkt) => {
                // Processed at the source node: the directed link servers
                // of node `src` are owned by its shard. Delivery crosses
                // the shard boundary through the source's outbox.
                let (src, dst) = (pkt.src_node as usize, pkt.dst_node as usize);
                let now = self.node_ref(src).now;
                let arrival = self.ports[src - self.base].send(
                    &self.cfg.fabric,
                    now,
                    dst,
                    pkt.kind.payload_bytes(),
                );
                let outbox = &mut self.outboxes[src - self.base];
                if outbox.is_empty() {
                    self.sched.sent.push(src - self.base);
                }
                outbox.push(dst, arrival, Event::PacketArrive(pkt));
            }
            Event::PacketArrive(pkt) => self.on_packet_arrive(pkt),
            Event::Pump { node, pipe } => self.on_pump(node, pipe),
            Event::MemDone { node, pipe, access } => self.on_mem_done(node, pipe, access),
            Event::Wake { node, core } => {
                self.dispatch(node as usize, core as usize, |w, api| w.on_wake(api));
            }
            Event::Complete { node, core, cq } => {
                self.dispatch(node as usize, core as usize, |w, api| {
                    w.on_completion(api, cq)
                });
            }
            Event::RpcDeliver {
                node,
                core,
                src_node,
                src_core,
                tag,
                bytes,
            } => {
                self.dispatch(node as usize, core as usize, |w, api| {
                    w.on_rpc(api, src_node, src_core, tag, bytes)
                });
            }
            Event::RpcReplyDeliver {
                node,
                core,
                tag,
                bytes,
            } => {
                self.dispatch(node as usize, core as usize, |w, api| {
                    w.on_rpc_reply(api, tag, bytes)
                });
            }
        }
    }

    fn on_packet_arrive(&mut self, pkt: Packet) {
        let node = pkt.dst_node as usize;
        self.node_mut(node).delivered_packets += 1;
        match pkt.kind {
            PacketKind::ReadReq { .. }
            | PacketKind::WriteReq { .. }
            | PacketKind::CasReq { .. }
            | PacketKind::UnlockReq { .. }
            | PacketKind::SabreReg { .. }
            | PacketKind::SabreReadReq { .. }
            | PacketKind::WfReadReq { .. }
            | PacketKind::OhReadReq { .. }
            | PacketKind::CatchUpReq { .. } => {
                let pipe = pkt.dst_pipe as usize;
                if self.node_mut(node).r2p2s[pipe].on_packet(&pkt) {
                    self.schedule_pump(pkt.dst_node, pkt.dst_pipe);
                }
            }
            PacketKind::ReadReply { .. }
            | PacketKind::SabreReply { .. }
            | PacketKind::WriteAck { .. }
            | PacketKind::CasReply { .. }
            | PacketKind::UnlockAck { .. }
            | PacketKind::SabreValidation { .. }
            | PacketKind::CatchUpReply { .. }
            | PacketKind::ReadRefused { .. } => {
                let pipe = pkt.dst_pipe as usize;
                let (write, done) = self.node_mut(node).pipelines[pipe].on_reply(&pkt);
                if let Some(w) = write {
                    // DMA the payload into the local buffer (allocates into
                    // the LLC like DDIO, raising any eviction invalidations).
                    self.apply_store(node, w.addr.block(), &w.data.0);
                }
                if let Some(done) = done {
                    let core = (done.wq_id >> 32) as u8;
                    let at = self.node_ref(node).now + self.cfg.completion_latency;
                    self.schedule_at(
                        node,
                        at,
                        Event::Complete {
                            node: pkt.dst_node,
                            core,
                            cq: done.into_cq_entry(),
                        },
                    );
                }
            }
            PacketKind::RpcReq { tag, bytes } => {
                let at = self.node_ref(node).now;
                self.schedule_at(
                    node,
                    at,
                    Event::RpcDeliver {
                        node: pkt.dst_node,
                        core: pkt.dst_pipe,
                        src_node: pkt.src_node,
                        src_core: pkt.src_pipe,
                        tag,
                        bytes,
                    },
                );
            }
            PacketKind::RpcReply { tag, bytes } => {
                let at = self.node_ref(node).now;
                self.schedule_at(
                    node,
                    at,
                    Event::RpcReplyDeliver {
                        node: pkt.dst_node,
                        core: pkt.dst_pipe,
                        tag,
                        bytes,
                    },
                );
            }
        }
    }

    fn on_pump(&mut self, node: u8, pipe: u8) {
        let n = node as usize;
        let p = pipe as usize;
        let interval = self.issue_interval;
        let ctx = self.node_mut(n);
        ctx.pump_on[p] = false;
        let Some(action) = ctx.r2p2s[p].next_issue() else {
            return; // re-armed by the next state-changing event
        };
        let now = ctx.now;
        ctx.r2p2_issue[p].admit(now, interval);
        match action {
            R2p2Action::Send(pkt) => {
                self.schedule_at(n, now, Event::FabricSend(pkt));
            }
            access => {
                let block = access.block().expect("a memory access touches a block");
                let level = self.llc_touch(n, block);
                let done = self.node_mut(n).mem_sys.access(now, block, level);
                self.schedule_at(n, done, Event::MemDone { node, pipe, access });
            }
        }
        if self.node_mut(n).r2p2s[p].has_issuable() {
            self.schedule_pump(node, pipe);
        }
    }

    /// Completes a memory access at the instant it is serviced: applies
    /// its functional effect to the node's memory, raises the coherence
    /// invalidation a store makes, and hands the outcome to the R2P2 that
    /// issued it. A store invalidates before the R2P2 builds its reply,
    /// except a reader-lock acquire (see below).
    fn on_mem_done(&mut self, node: u8, pipe: u8, access: R2p2Action) {
        let n = node as usize;
        let p = pipe as usize;
        let mut after_reply = None;
        let (token, outcome) = match access {
            R2p2Action::MemRead { token, block } => {
                let data = Block(self.node_mut(n).memory.read_block(block));
                (token, MemOutcome::Data(data))
            }
            R2p2Action::MemWrite { token, block, data } => {
                self.apply_store(n, block, &data.0);
                (token, MemOutcome::Done)
            }
            R2p2Action::LockRmw {
                token,
                version_addr,
            } => {
                let memory = &mut self.node_mut(n).memory;
                let acquired = ReaderLockWord::try_shared_acquire(memory, version_addr);
                // Deliver the outcome to the acquiring engine before the
                // RMW's invalidation fans out: the requester owns the line
                // it just modified, so its own stream buffer must not treat
                // the acquisition as a foreign write (other R2P2s' SABRes
                // on the object still see it — real reader-reader
                // interference).
                after_reply = acquired.then(|| version_addr.block());
                (token, MemOutcome::Acquired(acquired))
            }
            R2p2Action::LockRelease { version_addr } => {
                ReaderLockWord::shared_release(&mut self.node_mut(n).memory, version_addr);
                self.broadcast_inval(n, version_addr.block());
                // Fire-and-forget: nothing answers a release, and the pump
                // is not re-armed (a pump here would add an event and could
                // reorder same-instant work).
                return;
            }
            R2p2Action::WriterCas {
                token,
                version_addr,
            } => {
                let acquired = remote_cas_lock(&mut self.node_mut(n).memory, version_addr)
                    == CasOutcome::Acquired;
                if acquired {
                    self.broadcast_inval(n, version_addr.block());
                }
                (token, MemOutcome::Acquired(acquired))
            }
            R2p2Action::WriterUnlock {
                token,
                version_addr,
            } => {
                remote_unlock(&mut self.node_mut(n).memory, version_addr);
                self.broadcast_inval(n, version_addr.block());
                (token, MemOutcome::Done)
            }
            R2p2Action::Send(pkt) => unreachable!("a send is not a memory access: {pkt:?}"),
        };
        let ctx = self.node_mut(n);
        ctx.r2p2s[p].complete_into(token, outcome, &mut ctx.sends);
        if let Some(block) = after_reply {
            self.broadcast_inval(n, block);
        }
        // A completion only sends; memory work comes from `next_issue`
        // alone, which keeps it paced.
        let ctx = self.node_mut(n);
        let now = ctx.now;
        for pkt in ctx.sends.drain(..) {
            ctx.queue.schedule(now, Event::FabricSend(pkt));
        }
        self.schedule_pump(node, pipe);
    }

    /// Touches `block` in the node's LLC, broadcasting the eviction
    /// invalidation if the fill displaced a tracked block. Returns the
    /// service level of the access.
    fn llc_touch(&mut self, node: usize, block: BlockAddr) -> ServiceLevel {
        let outcome = self.node_mut(node).llc.access(block);
        if let Some(victim) = outcome.evicted {
            self.broadcast_inval(node, victim);
        }
        if outcome.hit {
            ServiceLevel::Llc
        } else {
            ServiceLevel::Dram
        }
    }

    /// Applies a store (core or DMA) to functional memory with full
    /// coherence side effects: byte write, LLC fill, invalidation fan-out.
    fn apply_store(&mut self, node: usize, block: BlockAddr, data: &[u8; BLOCK_BYTES]) {
        self.node_mut(node).memory.write_block(block, data);
        let _ = self.llc_touch(node, block);
        self.broadcast_inval(node, block);
    }

    /// Delivers an invalidation for `block` to every R2P2 on `node` (the
    /// engines probe their stream buffers by subtractor).
    fn broadcast_inval(&mut self, node: usize, block: BlockAddr) {
        for r2p2 in &mut self.node_mut(node).r2p2s {
            r2p2.on_invalidation(block);
        }
    }

    fn schedule_pump(&mut self, node: u8, pipe: u8) {
        let n = node as usize;
        let p = pipe as usize;
        let ctx = self.node_mut(n);
        if ctx.pump_on[p] {
            return;
        }
        ctx.pump_on[p] = true;
        let at = ctx.now.max(ctx.r2p2_issue[p].next_free());
        self.schedule_at(n, at, Event::Pump { node, pipe });
    }

    fn dispatch<F>(&mut self, node: usize, core: usize, f: F)
    where
        F: FnOnce(&mut dyn Workload, &mut CoreApi<'_>),
    {
        let Some(mut w) = self.node_mut(node).workloads[core].take() else {
            return;
        };
        let mut api = CoreApi {
            exec: self.reborrow(),
            node,
            core,
        };
        f(w.as_mut(), &mut api);
        self.node_mut(node).workloads[core] = Some(w);
    }
}

/// The interface a [`Workload`] uses to act on the world. Scoped to one
/// core of one node (and, under the hood, to that node's shard — every
/// operation here is node-local or a fabric send through the node's own
/// port, which is what lets shards run on worker threads).
pub struct CoreApi<'a> {
    exec: ShardExec<'a>,
    node: usize,
    core: usize,
}

impl CoreApi<'_> {
    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.exec.node_ref(self.node).now
    }

    /// This core's node index.
    pub fn node(&self) -> usize {
        self.node
    }

    /// This core's index within its node.
    pub fn core(&self) -> usize {
        self.core
    }

    /// The cluster configuration (cost model, Table 2 parameters).
    pub fn config(&self) -> &ClusterConfig {
        self.exec.cfg
    }

    /// The CPU cost model, for charging software work via [`CoreApi::sleep`].
    pub fn cpu(&self) -> &CpuCostModel {
        &self.exec.cfg.cpu
    }

    /// This core's deterministic RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        let core = self.core;
        &mut self.exec.node_mut(self.node).rngs[core]
    }

    /// This core's metrics sink.
    pub fn metrics(&mut self) -> &mut CoreMetrics {
        let core = self.core;
        &mut self.exec.node_mut(self.node).metrics[core]
    }

    /// Schedules a one-sided operation; [`Workload::on_completion`] fires
    /// when its CQ entry is observed. Returns the `wq_id` the completion
    /// will carry.
    ///
    /// # Panics
    ///
    /// Panics if `op` is [`OpKind::Write`] — use [`CoreApi::issue_write`].
    pub fn issue(
        &mut self,
        op: OpKind,
        dst_node: u8,
        remote_addr: Addr,
        local_buf: Addr,
        size_bytes: u32,
        version_offset: u32,
    ) -> u64 {
        assert!(op != OpKind::Write, "use issue_write for one-sided writes");
        self.issue_entry(
            op,
            dst_node,
            remote_addr,
            local_buf,
            size_bytes,
            version_offset,
        )
    }

    /// Schedules a one-sided write of `size_bytes` from `local_buf`.
    pub fn issue_write(
        &mut self,
        dst_node: u8,
        remote_addr: Addr,
        local_buf: Addr,
        size_bytes: u32,
    ) -> u64 {
        self.issue_entry(
            OpKind::Write,
            dst_node,
            remote_addr,
            local_buf,
            size_bytes,
            0,
        )
    }

    /// Unrolls a WQ entry onto the fabric; a write carries the bytes at
    /// `local_buf` as they are now.
    fn issue_entry(
        &mut self,
        op: OpKind,
        dst_node: u8,
        remote_addr: Addr,
        local_buf: Addr,
        size_bytes: u32,
        version_offset: u32,
    ) -> u64 {
        let core = self.core;
        let pipe = core % self.exec.cfg.rmc_backends;
        let frontend = self.exec.cfg.frontend_latency;
        let unroll = self.exec.cfg.rgp_unroll_interval();
        let ctx = self.exec.node_mut(self.node);
        let seq = &mut ctx.wq_seq[core];
        let wq_id = ((core as u64) << 32) | (*seq & 0xFFFF_FFFF);
        *seq += 1;
        let wq = WqEntry {
            wq_id,
            op,
            dst_node,
            remote_addr,
            local_buf,
            size_bytes,
            version_offset,
        };
        let write_data =
            (op == OpKind::Write).then(|| ctx.memory.slice(local_buf, size_bytes as usize));
        ctx.pipelines[pipe].start_transfer_into(&wq, write_data, &mut ctx.sends);
        let t0 = ctx.now + frontend;
        for pkt in ctx.sends.drain(..) {
            let start = ctx.rgp_unroll[pipe].admit(t0, unroll);
            ctx.queue.schedule(start + unroll, Event::FabricSend(pkt));
        }
        wq_id
    }

    /// Sends an RPC request to a core on another node;
    /// [`Workload::on_rpc`] fires there, and this core's
    /// [`Workload::on_rpc_reply`] fires when the reply returns.
    pub fn send_rpc(&mut self, dst_node: u8, dst_core: u8, tag: u64, bytes: u32) {
        let pkt = Packet {
            src_node: self.node as u8,
            src_pipe: self.core as u8,
            dst_node,
            dst_pipe: dst_core,
            kind: PacketKind::RpcReq { tag, bytes },
        };
        let frontend = self.exec.cfg.frontend_latency;
        let node = self.node;
        let t0 = self.exec.node_ref(node).now + frontend;
        self.exec.schedule_at(node, t0, Event::FabricSend(pkt));
    }

    /// Replies to an RPC previously delivered to this core.
    pub fn reply_rpc(&mut self, dst_node: u8, dst_core: u8, tag: u64, bytes: u32) {
        let pkt = Packet {
            src_node: self.node as u8,
            src_pipe: self.core as u8,
            dst_node,
            dst_pipe: dst_core,
            kind: PacketKind::RpcReply { tag, bytes },
        };
        let frontend = self.exec.cfg.frontend_latency;
        let node = self.node;
        let t0 = self.exec.node_ref(node).now + frontend;
        self.exec.schedule_at(node, t0, Event::FabricSend(pkt));
    }

    /// Sleeps for `d`; [`Workload::on_wake`] fires afterwards. Used to
    /// charge CPU work (strip kernels, application reads, think time).
    pub fn sleep(&mut self, d: Time) {
        let node = self.node;
        let at = self.exec.node_ref(node).now + d;
        self.exec.schedule_at(
            node,
            at,
            Event::Wake {
                node: self.node as u8,
                core: self.core as u8,
            },
        );
    }

    /// Borrows `len` bytes of this node's memory (functional, instant,
    /// allocation-free — charge time separately via [`CoreApi::sleep`]).
    pub fn read_local(&self, addr: Addr, len: usize) -> &[u8] {
        self.exec.node_ref(self.node).memory.slice(addr, len)
    }

    /// Reads the 64-bit little-endian word at `addr` in this node's memory
    /// (functional, instant, allocation-free): version and lock words.
    pub fn read_local_u64(&self, addr: Addr) -> u64 {
        self.exec.node_ref(self.node).memory.read_u64(addr)
    }

    /// Performs one local store of up to a cache block: functional write,
    /// LLC fill and coherence invalidation fan-out, at the current instant.
    /// This is the primitive writer threads build object updates from.
    ///
    /// # Panics
    ///
    /// Panics if the write would straddle a block boundary.
    pub fn store_local(&mut self, addr: Addr, data: &[u8]) {
        assert!(
            addr.block() == (addr + (data.len().max(1) as u64 - 1)).block(),
            "store_local must stay within one cache block"
        );
        let node = self.node;
        let ctx = self.exec.node_mut(node);
        ctx.local_stores += 1;
        ctx.memory.write(addr, data);
        let block = addr.block();
        let _ = self.exec.llc_touch(node, block);
        self.exec.broadcast_inval(node, block);
    }

    /// Stores a 64-bit word locally (version updates).
    pub fn store_local_u64(&mut self, addr: Addr, value: u64) {
        self.store_local(addr, &value.to_le_bytes());
    }

    /// Flips the epoch/seq guard on every request pipeline of this core's
    /// node. While any recovering writer holds the guard, reads addressed
    /// to this replica are refused (or served stale under
    /// [`ClusterConfig::serve_stale`]); catch-up pulls are always served.
    /// The guard nests — each `set_catching_up(true)` must be paired with
    /// a `set_catching_up(false)`.
    pub fn set_catching_up(&mut self, on: bool) {
        let node = self.node;
        for r2p2 in &mut self.exec.node_mut(node).r2p2s {
            r2p2.set_catching_up(on);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{StoreLayout, UpdatePlan};
    use crate::spec::{spec, ObservedRead};
    use crate::workload::ReadMechanism;
    use crate::workloads::Writer;
    use proptest::prelude::*;
    use sabre_sim::EventQueue;
    use sabre_sw::layout::CleanLayout;
    use std::sync::Arc;

    fn small_cfg() -> ClusterConfig {
        ClusterConfig {
            memory_bytes: 4 * 1024 * 1024,
            ..ClusterConfig::default()
        }
    }

    /// Every schedule and pop moves an `Event` into and out of a node
    /// queue's deque or lane, so the one memory-completion variant must not
    /// grow it past a fabric packet's size.
    #[test]
    fn event_fits_in_104_bytes() {
        assert!(std::mem::size_of::<Event>() <= 104);
    }

    proptest! {
        /// The node queue pops exactly what a plain `EventQueue` pops, in
        /// the same `(time, schedule order)`, whatever mix of same-instant
        /// follow-ups, bursts at one future instant, unrolls that leave a
        /// long increasing tail, inserts behind that tail and at an
        /// instant already queued, bounded pops and full pops drives it.
        #[test]
        fn node_queue_pops_in_event_queue_order(
            steps in proptest::collection::vec((0u8..13, 0u64..4, 1usize..5), 1..400),
        ) {
            let mut queue = NodeQueue::new();
            let mut model: EventQueue<u64> = EventQueue::new();
            let mut last = Time::ZERO;
            let mut next = 0u64;
            for (op, delta, burst) in steps {
                let at = last + Time::from_ns(delta);
                match op {
                    // A burst at one instant, which is the last-popped
                    // one when `delta` is 0.
                    0..=3 => {
                        for _ in 0..burst {
                            queue.schedule(at, next);
                            model.schedule(at, next);
                            next += 1;
                        }
                    }
                    // A zero-delay follow-up.
                    4 | 5 => {
                        queue.schedule(last, next);
                        model.schedule(last, next);
                        next += 1;
                    }
                    // An RGP-style unroll: about 20 blocks at increasing
                    // instants, so the bursts that follow land behind a
                    // long tail.
                    8 | 9 => {
                        for k in 0..18 + burst as u64 {
                            let at = at + Time::from_ns(1 + 2 * k);
                            queue.schedule(at, next);
                            model.schedule(at, next);
                            next += 1;
                        }
                    }
                    // A tie with an instant already queued mid-deque.
                    10 => {
                        if let Some(&(at, _)) = queue.pending.get(queue.pending.len() / 2) {
                            queue.schedule(at, next);
                            model.schedule(at, next);
                            next += 1;
                        }
                    }
                    // Pop everything due by `at`, as a window drain does.
                    6 | 7 => loop {
                        let expected = match model.peek_time() {
                            Some(t) if t <= at => model.pop(),
                            _ => None,
                        };
                        let popped = queue.pop_until(at);
                        prop_assert_eq!(popped, expected);
                        match popped {
                            Some((t, _)) => last = t,
                            None => break,
                        }
                    },
                    // Pop one.
                    _ => {
                        let popped = queue.pop_until(Time::MAX);
                        prop_assert_eq!(popped, model.pop());
                        if let Some((t, _)) = popped {
                            last = t;
                        }
                    }
                }
                prop_assert_eq!(queue.peek_time(), model.peek_time());
            }
            while let Some(popped) = queue.pop_until(Time::MAX) {
                prop_assert_eq!(Some(popped), model.pop());
                prop_assert_eq!(queue.peek_time(), model.peek_time());
            }
            prop_assert!(model.is_empty());
        }
    }

    /// One scheduling domain of the delivery test: outboxes lent from a
    /// router, their sender list, and one queue per node.
    struct Mailbag<'a> {
        outboxes: &'a mut [Outbox<u64>],
        sent: Vec<usize>,
        queues: Vec<NodeQueue<u64>>,
    }

    impl Domain<u64> for Mailbag<'_> {
        fn outboxes(&mut self) -> &mut [Outbox<u64>] {
            self.outboxes
        }

        fn senders(&mut self) -> &mut Vec<usize> {
            &mut self.sent
        }

        fn receive(&mut self, local: usize, at: Time, msg: u64) {
            self.queues[local].schedule(at, msg);
        }
    }

    proptest! {
        /// Sort-free delivery hands every destination exactly the sequence
        /// the sorted merge gives it: random sources send to random
        /// destinations at three instants, so `(destination, arrival)`
        /// ties are common, one of those instants is each destination's
        /// last-popped one, and the nodes are split into one or more
        /// domains with senders listed in first-send order.
        #[test]
        fn delivery_pops_in_merge_order(
            nodes in 2usize..7,
            per_domain in 1usize..7,
            sends in proptest::collection::vec((0usize..7, 0usize..7, 0u64..3), 0..80),
        ) {
            let per_domain = per_domain.min(nodes);
            let window_end = Time::from_ns(100);
            let mut reference: ShardRouter<u64> = ShardRouter::new(nodes);
            let mut router: ShardRouter<u64> = ShardRouter::new(nodes);
            let mut sent = vec![Vec::new(); nodes.div_ceil(per_domain)];
            for (id, (src, dst, delay)) in sends.into_iter().enumerate() {
                let (src, dst) = (src % nodes, dst % nodes);
                if src == dst {
                    continue;
                }
                let at = window_end + Time::from_ns(delay);
                if router.outboxes_mut()[src].is_empty() {
                    sent[src / per_domain].push(src % per_domain);
                }
                router.push(src, dst, at, id as u64);
                reference.push(src, dst, at, id as u64);
            }
            let mut domains: Vec<Mailbag<'_>> = router
                .outboxes_mut()
                .chunks_mut(per_domain)
                .zip(sent)
                .map(|(outboxes, sent)| {
                    let queues = (0..outboxes.len())
                        .map(|_| {
                            // Pop one event at the window end, as a drain
                            // would, so arrivals there join the lane.
                            let mut queue = NodeQueue::new();
                            queue.schedule(window_end, u64::MAX);
                            queue.pop_until(window_end);
                            queue
                        })
                        .collect();
                    Mailbag { outboxes, sent, queues }
                })
                .collect();
            let mut refs: Vec<&mut Mailbag<'_>> = domains.iter_mut().collect();
            deliver(&mut refs, per_domain, window_end);
            let merged = ShardRouter::merge_sorted(reference.outboxes_mut().iter_mut());
            for dst in 0..nodes {
                let queue = &mut domains[dst / per_domain].queues[dst % per_domain];
                let popped: Vec<(Time, u64)> =
                    std::iter::from_fn(|| queue.pop_until(Time::MAX)).collect();
                let expected: Vec<(Time, u64)> = merged
                    .iter()
                    .filter(|&&(_, to, _)| to == dst)
                    .map(|&(at, _, id)| (at, id))
                    .collect();
                prop_assert_eq!(popped, expected);
            }
            prop_assert!(domains.iter().all(|d| d.sent.is_empty()));
        }
    }

    /// An observer that keeps the last read image it was handed, and the
    /// image.
    fn last_image() -> (
        impl Fn(&ObservedRead<'_>) + Send + Sync + 'static,
        Arc<Mutex<Vec<u8>>>,
    ) {
        let image = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&image);
        let observe = move |read: &ObservedRead<'_>| *sink.lock().unwrap() = read.image.to_vec();
        (observe, image)
    }

    #[test]
    fn single_remote_read_completes_with_data() {
        let mut cluster = Cluster::new(small_cfg());
        // Put a recognizable pattern at node 1.
        let pattern: Vec<u8> = (0..128u32).map(|i| (i * 7) as u8).collect();
        cluster.node_memory_mut(1).write(Addr::new(0), &pattern);
        let (observe, image) = last_image();
        cluster.add_workload(
            0,
            0,
            spec()
                .store(1)
                .payload(128)
                .iterations(1)
                .observe(observe)
                .build(&[Addr::new(0)]),
        );
        cluster.run_for(Time::from_us(5));
        assert_eq!(cluster.metrics(0, 0).ops, 1);
        // The payload landed in the local buffer.
        assert_eq!(*image.lock().unwrap(), pattern);
        // Latency is in the paper's ballpark: ~3-4× local memory access.
        let lat = cluster.metrics(0, 0).latency.mean().unwrap();
        assert!((150.0..500.0).contains(&lat), "64B-ish read at {lat} ns");
    }

    #[test]
    fn single_sabre_completes_atomically() {
        let mut cluster = Cluster::new(small_cfg());
        let payload = vec![0xAB; 112];
        {
            let mem = cluster.node_memory_mut(1);
            CleanLayout::init(mem, Addr::new(0), &payload);
        }
        let (observe, image) = last_image();
        cluster.add_workload(
            0,
            0,
            spec()
                .store(1)
                .payload(112)
                .mechanism(ReadMechanism::Sabre)
                .wire(CleanLayout::object_bytes(112) as u32)
                .iterations(1)
                .observe(observe)
                .build(&[Addr::new(0)]),
        );
        cluster.run_for(Time::from_us(5));
        let m = cluster.metrics(0, 0);
        assert_eq!(m.ops, 1);
        assert_eq!(m.retries, 0);
        let image = image.lock().unwrap();
        assert_eq!(image.len(), CleanLayout::object_bytes(112));
        assert_eq!(CleanLayout::payload_of(&image, 112), &payload[..]);
        let stats = (0..4)
            .map(|p| cluster.engine_stats(1, p))
            .fold((0, 0), |acc, s| {
                (acc.0 + s.completed_ok, acc.1 + s.completed_failed)
            });
        assert_eq!(stats, (1, 0));
    }

    #[test]
    fn reset_metrics_clears_every_sink_but_not_state() {
        let mut cluster = Cluster::new(small_cfg());
        let payload = vec![0x5A; 112];
        {
            let mem = cluster.node_memory_mut(1);
            CleanLayout::init(mem, Addr::new(0), &payload);
        }
        cluster.add_workload(
            0,
            0,
            spec()
                .store(1)
                .payload(112)
                .mechanism(ReadMechanism::Sabre)
                .build(&[Addr::new(0)]),
        );
        cluster.run_for(Time::from_us(20));
        assert!(cluster.metrics(0, 0).ops > 0);
        let registered: u64 = (0..4)
            .map(|p| cluster.r2p2_stats(1, p).sabres_registered)
            .sum();
        assert!(registered > 0);

        cluster.reset_metrics();
        assert_eq!(cluster.metrics(0, 0).ops, 0);
        assert_eq!(cluster.metrics(0, 0).latency.mean(), None);
        for p in 0..4 {
            assert_eq!(cluster.r2p2_stats(1, p), R2p2Stats::default());
            assert_eq!(
                cluster.engine_stats(1, p),
                sabre_core::EngineStats::default()
            );
        }
        // Simulation state survives: the same reader keeps completing ops
        // against unchanged memory, and time did not rewind.
        let t = cluster.now();
        cluster.run_for(Time::from_us(20));
        assert!(cluster.now() > t);
        assert!(cluster.metrics(0, 0).ops > 0, "reader still progressing");
    }

    fn sharded_fingerprint(
        shards: usize,
        threads: Option<usize>,
    ) -> (Vec<(u64, Option<f64>)>, u64, u64) {
        let mut cfg = ClusterConfig::with_nodes(4);
        cfg.memory_bytes = 4 * 1024 * 1024;
        cfg.shards = shards;
        cfg.threads = threads;
        let mut cluster = Cluster::new(cfg);
        for (reader, target) in [(0usize, 2u8), (1, 3)] {
            cluster
                .node_memory_mut(target as usize)
                .write_u64(Addr::new(0), 0);
            cluster.add_workload(
                reader,
                0,
                spec()
                    .store(target as usize)
                    .payload(512)
                    .mechanism(ReadMechanism::Sabre)
                    .build(&[Addr::new(0)]),
            );
        }
        cluster.run_for(Time::from_us(30));
        let metrics: Vec<(u64, Option<f64>)> = (0..2)
            .map(|n| {
                (
                    cluster.metrics(n, 0).ops,
                    cluster.metrics(n, 0).latency.mean(),
                )
            })
            .collect();
        (
            metrics,
            cluster.packets_delivered(),
            cluster.fabric().packets_total(),
        )
    }

    #[test]
    fn shard_count_never_changes_results() {
        // The acceptance bar of the sharded loop: the same 4-node rack,
        // advanced as 1, 2 or 4 shards, replays bit-identically.
        let single = sharded_fingerprint(1, Some(1));
        assert!(single.0[0].0 > 0, "readers must make progress");
        assert_eq!(
            single,
            sharded_fingerprint(2, Some(1)),
            "2 shards must replay the 1-shard run"
        );
        assert_eq!(
            single,
            sharded_fingerprint(4, Some(1)),
            "4 shards must replay the 1-shard run"
        );
        // A serial run is one scheduling domain whatever `shards` says, so
        // the grouping itself only exists on worker threads: check it there
        // against the serial reference too.
        for shards in [1usize, 2, 4] {
            assert_eq!(
                single,
                sharded_fingerprint(shards, Some(2)),
                "{shards} shards on 2 threads must replay the serial run"
            );
        }
    }

    #[test]
    fn thread_count_never_changes_results() {
        // The tentpole acceptance bar of thread dispatch: the same sharded
        // rack driven by 1 worker, 2 workers or one per shard replays the
        // serial single-shard run bit for bit.
        let single = sharded_fingerprint(1, Some(1));
        assert!(single.0[0].0 > 0, "readers must make progress");
        for shards in [2usize, 4] {
            for threads in [2usize, 4] {
                assert_eq!(
                    single,
                    sharded_fingerprint(shards, Some(threads)),
                    "{shards} shards on {threads} threads must replay the serial run"
                );
            }
        }
    }

    fn quiet_rack_fingerprint(
        shards: usize,
        threads: Option<usize>,
    ) -> (Vec<(u64, Option<f64>)>, u64, u64) {
        // 32 nodes, 30 of them permanently idle: the interesting regime
        // for the O(active) window scheduler, which must skip the idle
        // nodes without consulting their queues.
        let mut cfg = ClusterConfig::with_nodes(32);
        cfg.memory_bytes = 4 * 1024 * 1024;
        cfg.shards = shards;
        cfg.threads = threads;
        let mut cluster = Cluster::new(cfg);
        for (reader, target) in [(0usize, 21u8), (13, 29)] {
            cluster
                .node_memory_mut(target as usize)
                .write_u64(Addr::new(0), 0);
            cluster.add_workload(
                reader,
                0,
                spec()
                    .store(target as usize)
                    .payload(256)
                    .mechanism(ReadMechanism::Sabre)
                    .iterations(4)
                    .build(&[Addr::new(0)]),
            );
        }
        // Far past quiescence, so the quiet tail is skipped in one step.
        cluster.run_for(Time::from_us(80));
        let metrics: Vec<(u64, Option<f64>)> = [0usize, 13]
            .iter()
            .map(|&n| {
                (
                    cluster.metrics(n, 0).ops,
                    cluster.metrics(n, 0).latency.mean(),
                )
            })
            .collect();
        (
            metrics,
            cluster.packets_delivered(),
            cluster.fabric().packets_total(),
        )
    }

    #[test]
    fn quiet_rack_skip_matches_the_serial_loop() {
        // The active-node hint heaps must be invisible in the results: a
        // mostly-idle 32-node rack replays the serial single-shard run bit
        // for bit at every shard x thread split, finishes every finite
        // workload and drains its packets. (Debug builds additionally
        // sweep every queue after each window to prove no idle-looking
        // node was skipped while holding work.)
        let serial = quiet_rack_fingerprint(1, Some(1));
        assert_eq!(serial.0[0].0, 4, "reader 0 must finish its iterations");
        assert_eq!(serial.0[1].0, 4, "reader 13 must finish its iterations");
        assert_eq!(serial.1, serial.2, "packets must drain at quiescence");
        for shards in [2usize, 8, 16] {
            for threads in [1usize, 4] {
                assert_eq!(
                    serial,
                    quiet_rack_fingerprint(shards, Some(threads)),
                    "{shards} shards on {threads} threads must replay the serial run"
                );
            }
        }
    }

    /// Per-reader `(ops, retries, mean latency)`, the store's final object
    /// images, packets delivered and packets sent.
    type ContendedRun = (Vec<(u64, u64, Option<f64>)>, Vec<u8>, u64, u64);

    /// Two readers race a zero-think local writer on node 2 of a 4-node
    /// rack. The writer keeps a store-interval event pending on node 2 at
    /// all times, so each window's merge delivers several requests to a
    /// node with a live queue head — some arriving before that head (the
    /// merge's new-head hint) and some after it (no hint needed).
    fn contended_store_fingerprint(shards: usize, threads: Option<usize>) -> ContendedRun {
        const PAYLOAD: u32 = 256;
        let layout = StoreLayout::Clean;
        let objects: Vec<(u64, Addr)> = (0..8).map(|i| (i, Addr::new(i * 4096))).collect();
        let bases: Vec<Addr> = objects.iter().map(|&(_, base)| base).collect();
        let mut cfg = ClusterConfig::with_nodes(4);
        cfg.memory_bytes = 4 * 1024 * 1024;
        cfg.shards = shards;
        cfg.threads = threads;
        let mut cluster = Cluster::new(cfg);
        let mem = cluster.node_memory_mut(2);
        let mut plan = UpdatePlan::new();
        for &(id, base) in &objects {
            plan.rebuild(layout, base, id, 0, PAYLOAD as usize, 0);
            let mut i = 0;
            while let Some((addr, data)) = plan.store(i) {
                mem.write(addr, data);
                i += 1;
            }
            mem.write_u64(layout.version_addr(base), layout.publish_word(0));
        }
        cluster.add_workload(
            2,
            0,
            Box::new(Writer::new(objects, PAYLOAD, layout, Time::ZERO)),
        );
        for reader in [0usize, 1] {
            cluster.add_workload(
                reader,
                0,
                spec()
                    .store(2)
                    .payload(PAYLOAD)
                    .mechanism(ReadMechanism::Sabre)
                    .wire(CleanLayout::object_bytes(PAYLOAD as usize) as u32)
                    .build(&bases),
            );
        }
        cluster.run_for(Time::from_us(30));
        let readers = (0..2)
            .map(|n| {
                let m = cluster.metrics(n, 0);
                (m.ops, m.retries, m.latency.mean())
            })
            .collect();
        let objects = cluster.node_memory(2).read_vec(Addr::new(0), 8 * 4096);
        (
            readers,
            objects,
            cluster.packets_delivered(),
            cluster.fabric().packets_total(),
        )
    }

    #[test]
    fn merged_messages_around_a_pending_head_replay_on_every_split() {
        let serial = contended_store_fingerprint(1, None);
        for (ops, retries, _) in &serial.0 {
            assert!(*ops > 0, "readers must make progress");
            assert!(*retries > 0, "the writer must race the readers");
        }
        assert_eq!(
            serial,
            contended_store_fingerprint(4, Some(2)),
            "one shard per node on 2 threads must replay the serial run"
        );
    }

    #[test]
    fn packets_are_conserved() {
        // Every packet the fabric accepted is delivered exactly once; a
        // finite workload drains to sent == delivered.
        let mut cluster = Cluster::new(small_cfg());
        cluster.node_memory_mut(1).write_u64(Addr::new(0), 0);
        cluster.add_workload(
            0,
            0,
            spec()
                .store(1)
                .payload(256)
                .mechanism(ReadMechanism::Sabre)
                .iterations(5)
                .build(&[Addr::new(0)]),
        );
        cluster.run_for(Time::from_us(50));
        assert_eq!(cluster.metrics(0, 0).ops, 5);
        let sent = cluster.fabric().packets_total();
        assert!(sent > 0);
        assert_eq!(
            sent,
            cluster.packets_delivered(),
            "in-flight packets must drain to zero at quiescence"
        );
    }

    #[test]
    fn sabre_latency_tracks_plain_read() {
        // Fig. 7a's headline: LightSABRes match plain remote reads.
        let mut latencies = Vec::new();
        for mech in [ReadMechanism::Raw, ReadMechanism::Sabre] {
            let mut cluster = Cluster::new(small_cfg());
            cluster.node_memory_mut(1).write_u64(Addr::new(0), 0);
            cluster.add_workload(
                0,
                0,
                spec()
                    .store(1)
                    .payload(1024)
                    .mechanism(mech)
                    .iterations(20)
                    .build(&[Addr::new(0)]),
            );
            cluster.run_for(Time::from_us(50));
            assert_eq!(cluster.metrics(0, 0).ops, 20);
            latencies.push(cluster.metrics(0, 0).latency.mean().unwrap());
        }
        let (read, sabre) = (latencies[0], latencies[1]);
        assert!(
            (sabre - read).abs() / read < 0.25,
            "sabre {sabre} ns vs read {read} ns"
        );
    }
}
