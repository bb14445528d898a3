//! fig_failover: availability under crash faults — replicated stores,
//! reader failover, and replica-placement policy.
//!
//! The third beyond-paper scenario family. The paper's evaluation keeps
//! every node alive; this experiment asks what a SABRe-based object store
//! costs to keep *available* when store nodes crash. The Table-1 workload
//! (1 KB objects) runs on an 8-node two-leaf fat tree with a 1:1 role
//! split; each object set is replicated on three of the four store nodes
//! ([`replica_sites`] spreads the sites across both leaves), and mid-run
//! the [`FaultPlan`] crashes the leaf-0 primary for
//! a quarter of the run. Crashed nodes drop every packet to, from, or
//! already addressed to them, so a read in flight at the crash instant
//! simply never completes — the reader's failover timer is the only way
//! forward.
//!
//! Two axes sweep: the read **mechanism** (raw / SABRe / FaRM per-CL /
//! Pilaf CRC64, all over the same replicated placement) and the
//! **replica-selection policy** — static round-robin (no failure memory:
//! during the outage every k-th operation eats a timeout) against the
//! adaptive binding (one timeout per affected core, then leaf-local
//! failover, then a probe migrates back after recovery). Expected shape:
//! identical op counts and latencies *across mechanisms* up to their usual
//! validation overheads, and across policies a large failover-count gap —
//! static pays one per rotation hit, adaptive pays a handful total — which
//! is what the `migrations` column and the p99 gap quantify.
//!
//! Everything here is deterministic: drops are a pure function of the
//! static plan, timers are per-core events, and the percentile columns
//! come from the merged integer histogram, so the table is
//! golden-diffable.

use sabre_farm::{replica_sites, ScenarioStoreExt};
use sabre_rack::{spec, FaultPlan, ReadMechanism, ScenarioBuilder, Topology};
use sabre_sim::Time;

use crate::experiments::fig_scale::{
    CORES_PER_READER_NODE, MECHANISMS, OBJECTS_PER_SHARD, PAYLOAD,
};
use crate::experiments::{label, layout};
use crate::table::fmt_ns;
use crate::{RunOpts, Table};

/// Rack size: four store + four reader nodes on a two-leaf fat tree.
pub const NODES: usize = 8;

/// Replication factor: three of the four store nodes hold each object.
pub const REPLICATION: usize = 3;

/// The failover timer: comfortably above every mechanism's healthy
/// closed-loop latency, so only genuinely lost reads trip it.
pub const FAILOVER_TIMEOUT: Time = Time::from_us(10);

/// The replica-selection policies compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Round-robin over the replica list, no failure memory.
    Static,
    /// Bind to the nearest replica, migrate on failure, probe back.
    Adaptive,
}

impl Policy {
    /// Both policies in presentation order.
    pub const ALL: [Policy; 2] = [Policy::Static, Policy::Adaptive];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            Policy::Static => "static rr",
            Policy::Adaptive => "adaptive",
        }
    }
}

/// One sweep point's measurement.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// The read mechanism.
    pub mech: ReadMechanism,
    /// The replica-selection policy.
    pub policy: Policy,
    /// Successful operations across the rack (the availability signal:
    /// ops lost to the outage never come back).
    pub ops: u64,
    /// Mean end-to-end latency over every reader core (ns), timeouts
    /// included.
    pub latency_ns: f64,
    /// 99th-percentile latency (ns) from the merged integer histogram —
    /// where the failover timeouts surface.
    pub p99_ns: u64,
    /// Attempts abandoned to a failover timer across the rack.
    pub failovers: u64,
    /// Replica-binding migrations (adaptive policy only; static stays 0).
    pub migrations: u64,
}

/// Measures one `(mechanism, policy)` point.
pub fn measure(mech: ReadMechanism, policy: Policy, iters: u64) -> Point {
    let horizon = Time::from_us(20 * iters);
    let builder = ScenarioBuilder::new()
        .topology(Topology::skewed(4, 1))
        .fat_tree(4, 2);
    let cfg = builder.config().clone();
    assert_eq!(cfg.nodes, NODES, "the sweep is pinned to the 8-node rack");
    let topo = cfg.topology.clone();
    let rack = cfg.fabric.topology;
    let sites = replica_sites(&topo.store_nodes(), REPLICATION, rack);
    // Crash the leaf-0 primary for the second quarter of the run: reads
    // already in flight are lost, leaf-0 readers fail over, and the
    // adaptive policy migrates back once its probe finds the node again.
    let crash_site = sites[0];
    let builder = builder.fault(FaultPlan::new().crash_restore(
        crash_site,
        Time::from_ps(horizon.as_ps() / 4),
        Time::from_ps(horizon.as_ps() / 2),
    ));
    let (builder, store) =
        builder.replicated_store(&sites, layout(mech), PAYLOAD, OBJECTS_PER_SHARD);
    let readers = topo.reader_nodes();
    let placements: Vec<(usize, usize)> = readers
        .iter()
        .flat_map(|&node| (0..CORES_PER_READER_NODE).map(move |core| (node, core)))
        .collect();
    let wire = store.slot_bytes() as u32;
    let report = builder
        .readers_grid_spec(placements, move |node, _core, _targets| {
            spec()
                .replicas(store.view_for(node, rack))
                .payload(PAYLOAD)
                .mechanism(mech)
                .wire(wire)
                .failover_timeout(FAILOVER_TIMEOUT)
                .migrate(policy == Policy::Adaptive)
        })
        .run_for(horizon);

    let mut latencies = Vec::new();
    for &node in &readers {
        for core in 0..CORES_PER_READER_NODE {
            let m = report.core(node, core);
            assert!(m.ops > 0, "reader {node}.{core} completed no ops");
            latencies.push(m.latency.mean().expect("ops completed"));
        }
    }
    let m = report.rack().metrics;
    Point {
        mech,
        policy,
        ops: m.ops,
        latency_ns: latencies.iter().sum::<f64>() / latencies.len() as f64,
        p99_ns: m.p99_ns().expect("ops recorded"),
        failovers: m.failovers,
        migrations: m.migrations,
    }
}

/// Runs the full sweep: mechanism × policy.
pub fn data(opts: RunOpts) -> Vec<Point> {
    let iters = opts.pick(25, 3);
    let points: Vec<(ReadMechanism, Policy)> = MECHANISMS
        .iter()
        .flat_map(|&m| Policy::ALL.iter().map(move |&p| (m, p)))
        .collect();
    opts.sweep(points)
        .map(|&(mech, policy)| measure(mech, policy, iters))
}

/// Renders the failover sweep as a table.
pub fn run(opts: RunOpts) -> Table {
    let mut t = Table::new(
        "fig_failover — availability under a store crash (k=3 replicas, 8-node fat tree)",
        &[
            "mechanism",
            "policy",
            "ops",
            "mean latency",
            "p99",
            "failovers",
            "migrations",
        ],
    );
    for p in data(opts) {
        t.row(vec![
            label(p.mech).to_string(),
            p.policy.label().to_string(),
            p.ops.to_string(),
            fmt_ns(p.latency_ns),
            format!("{} ns", p.p99_ns),
            p.failovers.to_string(),
            p.migrations.to_string(),
        ]);
    }
    t
}
