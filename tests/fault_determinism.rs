//! Fault determinism and conservation.
//!
//! Two invariants:
//!
//! * the shipped crash-laden (fig_failover) and recovery-laden
//!   (fig_recovery) constructions replay **bit-identically** at every
//!   cluster execution setting ([`Exec::ALL`]) — outage, dropped packets,
//!   failover timers, migrations, catch-up pulls, sibling bounces and
//!   replay included — because drops are a pure function of the static
//!   [`FaultPlan`] evaluated at the destination's delivery point. Each is
//!   a copy of the figure's construction whose serial run must equal the
//!   shipped `measure`; the generated proof is
//!   `tests/execution_invariance.rs`;
//! * the packet-conservation invariant extends to faults and catch-up
//!   traffic: every packet the fabric accepted is either delivered
//!   exactly once or dropped by the fault plan — `sent == delivered +
//!   dropped` at quiescence.

mod common;

use common::{assert_execution_invariant, Exec};
use sabre_bench::experiments::{fig_failover, fig_recovery, fig_scale, layout};
use sabres::prelude::*;

/// One fig_failover point, from a copy of `fig_failover::measure` run at
/// `exec`: op count, mean core latency, p99, failovers and migrations.
fn fig_failover_point(
    mech: ReadMechanism,
    policy: fig_failover::Policy,
    iters: u64,
    exec: Exec,
) -> (u64, f64, Option<u64>, u64, u64) {
    use fig_scale::{CORES_PER_READER_NODE, OBJECTS_PER_SHARD, PAYLOAD};
    let horizon = Time::from_us(20 * iters);
    let builder = ScenarioBuilder::new()
        .topology(Topology::skewed(4, 1))
        .fat_tree(4, 2)
        .configure(|cfg| exec.apply(cfg));
    let topo = builder.config().topology.clone();
    let rack = builder.config().fabric.topology;
    let sites = replica_sites(&topo.store_nodes(), fig_failover::REPLICATION, rack);
    let builder = builder.fault(FaultPlan::new().crash_restore(
        sites[0],
        Time::from_ps(horizon.as_ps() / 4),
        Time::from_ps(horizon.as_ps() / 2),
    ));
    let (mut scenario, store) =
        builder.replicated_store(&sites, layout(mech), PAYLOAD, OBJECTS_PER_SHARD);
    let readers = topo.reader_nodes();
    for &node in &readers {
        let spec = spec()
            .replicas(store.view_for(node, rack))
            .payload(PAYLOAD)
            .mechanism(mech)
            .wire(store.slot_bytes() as u32)
            .failover_timeout(fig_failover::FAILOVER_TIMEOUT)
            .migrate(policy == fig_failover::Policy::Adaptive);
        scenario = scenario.readers_spec(node, 0..CORES_PER_READER_NODE, spec);
    }
    let report = scenario.run_for(horizon);
    let latencies: Vec<f64> = readers
        .iter()
        .flat_map(|&node| (0..CORES_PER_READER_NODE).map(move |core| (node, core)))
        .map(|(node, core)| report.core(node, core).latency.mean().unwrap())
        .collect();
    let m = report.rack().metrics;
    (
        m.ops,
        latencies.iter().sum::<f64>() / latencies.len() as f64,
        m.p99_ns(),
        m.failovers,
        m.migrations,
    )
}

#[test]
fn crash_laden_fig_failover_is_shard_and_thread_invariant() {
    // The mid-run store crash in play, for both replica-selection
    // policies: every op count, latency bit, failover and migration must
    // match the serial run.
    use fig_failover::Policy;
    for policy in [Policy::Adaptive, Policy::Static] {
        let serial = assert_execution_invariant(&format!("{policy:?}"), |exec| {
            fig_failover_point(ReadMechanism::Sabre, policy, 2, exec)
        });
        assert!(serial.0 > 0, "{policy:?}: serial run must complete ops");
        assert!(serial.3 > 0, "{policy:?}: the crash must force failovers");
        let p = fig_failover::measure(ReadMechanism::Sabre, policy, 2);
        assert_eq!(
            serial,
            (
                p.ops,
                p.latency_ns,
                Some(p.p99_ns),
                p.failovers,
                p.migrations
            ),
            "{policy:?}: the copy left the shipped fig_failover construction"
        );
    }
}

/// One fig_recovery row, from a copy of `fig_recovery::measure` run at
/// `exec`: the rack's counters, every recovery counter of both protocol
/// sides included.
fn fig_recovery_rack(mode: fig_recovery::Mode, iters: u64, exec: Exec) -> Totals {
    use fig_recovery::{Mode, LOG_CAP, NODES, OBJECTS, PAYLOAD, REPLICATION};
    let horizon = Time::from_us(40 * iters);
    let serve_stale = mode == Mode::ServeStale;
    let builder = ScenarioBuilder::new()
        .seed(7)
        .nodes(NODES)
        .fat_tree(2, 2)
        .configure(|cfg| {
            cfg.serve_stale = serve_stale;
            exec.apply(cfg);
        });
    let rack = builder.config().fabric.topology;
    let topo = builder.config().topology.clone();
    let sites = replica_sites(&topo.store_nodes(), REPLICATION, rack);
    let builder = builder.fault(FaultPlan::new().leaf_outage(
        rack,
        2,
        Time::from_ps(horizon.as_ps() / 4),
        Time::from_ps(horizon.as_ps() / 2),
    ));
    let (mut scenario, store) =
        builder.replicated_store(&sites, StoreLayout::Clean, PAYLOAD, OBJECTS);
    let reader = || {
        spec()
            .payload(PAYLOAD)
            .mechanism(ReadMechanism::Raw)
            .wire(store.slot_bytes() as u32)
            .failover_timeout(Time::from_us(10))
    };
    for &rnode in &topo.reader_nodes() {
        let spec = reader()
            .replicas(store.view_for(rnode, rack))
            .replace_on_hops(2.0);
        scenario = scenario.reader_spec(rnode, 0, spec);
    }
    let pinned = store
        .view_for(0, rack)
        .into_iter()
        .filter(|&(site, _)| site == sites[0])
        .collect();
    scenario = scenario.reader_spec(0, 1, reader().replicas(pinned));
    // fig_recovery's write log and catch-up buffer addresses.
    let log = WriteLog::new(Addr::new(1 << 20), LOG_CAP);
    for &site in &sites {
        let peers = sites.iter().filter(|&&p| p != site).map(|&p| p as u8);
        let writer = Writer::new(
            store.object_entries(),
            PAYLOAD,
            StoreLayout::Clean,
            Time::from_ns(500),
        )
        .recovering(log, peers.collect(), Addr::new(2 << 20), 8);
        scenario = scenario.workload(site, 0, Box::new(writer));
    }
    scenario.run_for(horizon).rack()
}

#[test]
fn recovery_laden_fig_recovery_is_shard_and_thread_invariant() {
    // The whole-leaf outage, both sites' catch-up pulls, the mutual-
    // staleness bounces, the guarded reads and the replayed updates, for
    // both guard policies: every op count, latency bit and recovery
    // counter must match the serial run.
    use fig_recovery::Mode;
    for mode in [Mode::Refuse, Mode::ServeStale] {
        let serial = assert_execution_invariant(&format!("{mode:?}"), |exec| {
            fig_recovery_rack(mode, 2, exec)
        });
        let (m, r) = (&serial.metrics, &serial.r2p2);
        assert!(m.ops > 0, "{mode:?}: serial run must complete ops");
        assert!(
            r.catch_up_pulls >= 2,
            "{mode:?}: both restored sites must pull: {r:?}"
        );
        assert!(
            r.catch_up_refused > 0,
            "{mode:?}: the stale siblings must bounce: {r:?}"
        );
        assert!(
            m.replays_applied > 0,
            "{mode:?}: catch-up must replay updates: {m:?}"
        );
        assert_eq!(
            serial,
            fig_recovery::measure(mode, 2).rack,
            "{mode:?}: the copy left the shipped fig_recovery construction"
        );
    }
}

#[test]
fn catch_up_traffic_extends_the_conservation_invariant() {
    // The leaf-outage recovery scenario with finite readers: catch-up
    // pulls and their burst replies cross the same fabric as everything
    // else, so at quiescence the ledger must still balance — every packet
    // (catch-up included) delivered exactly once or dropped by the plan.
    let builder = ScenarioBuilder::new().seed(7).nodes(8).fat_tree(2, 2);
    let topo = builder.config().topology.clone();
    let rack = builder.config().fabric.topology;
    let sites = replica_sites(&topo.store_nodes(), 3, rack);
    assert_eq!(sites, vec![4, 6, 5], "leaf-spread placement changed");
    let builder =
        builder.fault(FaultPlan::new().leaf_outage(rack, 2, Time::from_us(10), Time::from_us(50)));
    let (mut scenario, store) = builder.replicated_store(&sites, StoreLayout::Clean, 208, 8);
    let readers = topo.reader_nodes();
    for &rnode in &readers {
        scenario = scenario.reader_spec(
            rnode,
            0,
            spec()
                .replicas(store.view_for(rnode, rack))
                .payload(208)
                .mechanism(ReadMechanism::Raw)
                .wire(store.slot_bytes() as u32)
                .iterations(100)
                .failover_timeout(Time::from_us(10)),
        );
    }
    let log = WriteLog::new(Addr::new(1 << 20), 2048);
    for &site in &sites {
        let peers: Vec<u8> = sites
            .iter()
            .filter(|&&p| p != site)
            .map(|&p| p as u8)
            .collect();
        scenario = scenario.workload(
            site,
            0,
            Box::new(
                Writer::new(
                    store.object_entries(),
                    208,
                    StoreLayout::Clean,
                    Time::from_ns(500),
                )
                .recovering(log, peers, Addr::new(2 << 20), 8),
            ),
        );
    }
    let report = scenario.run_for(Time::from_us(300));
    let rack = report.rack();
    let m = &rack.metrics;
    assert_eq!(
        m.ops,
        100 * readers.len() as u64,
        "every reader must finish its iterations despite the leaf outage"
    );
    let r = &rack.r2p2;
    assert!(
        r.catch_up_pulls >= 2,
        "both restored sites must pull over the fabric: {r:?}"
    );
    assert!(
        r.catch_up_refused > 0,
        "the stale siblings must bounce: {r:?}"
    );
    let cluster = report.cluster();
    let sent = cluster.fabric().packets_total();
    let delivered = cluster.packets_delivered();
    let dropped = cluster.packets_dropped();
    assert!(dropped > 0, "the leaf outage must drop packets");
    assert_eq!(
        sent,
        delivered + dropped,
        "every packet — catch-up traffic included — must be delivered \
         exactly once or dropped by the plan"
    );
}

#[test]
fn dropped_packets_extend_the_conservation_invariant() {
    // A finite replicated workload across a mid-run crash: once every
    // reader drains, every packet the fabric accepted was either
    // delivered exactly once or dropped by the fault plan — none linger,
    // none are double-counted.
    let builder = ScenarioBuilder::new().nodes(6);
    let topo = builder.config().topology.clone();
    let rack = builder.config().fabric.topology;
    let store_nodes = topo.store_nodes();
    let sites = replica_sites(&store_nodes, 2.min(store_nodes.len()), rack);
    let builder = builder.fault(FaultPlan::new().crash_restore(
        sites[0],
        Time::from_us(10),
        Time::from_us(20),
    ));
    let (mut scenario, store) = builder.replicated_store(&sites, StoreLayout::Clean, 1024, 32);
    let readers = topo.reader_nodes();
    for &rnode in &readers {
        scenario = scenario.reader_spec(
            rnode,
            0,
            spec()
                .replicas(store.view_for(rnode, rack))
                .payload(1024)
                .mechanism(ReadMechanism::Sabre)
                .wire(store.slot_bytes() as u32)
                .iterations(40)
                .failover_timeout(Time::from_us(10)),
        );
    }
    let report = scenario.run_for(Time::from_us(400));
    let m = report.rack().metrics;
    assert_eq!(
        m.ops,
        40 * readers.len() as u64,
        "every reader must finish its iterations despite the outage"
    );
    assert!(m.failovers > 0, "the outage must force failovers");
    let cluster = report.cluster();
    let sent = cluster.fabric().packets_total();
    let delivered = cluster.packets_delivered();
    let dropped = cluster.packets_dropped();
    assert!(sent > 0, "the run must generate traffic");
    assert!(dropped > 0, "the outage must drop packets");
    assert_eq!(
        sent,
        delivered + dropped,
        "every packet must be delivered exactly once or dropped by the plan"
    );
}

#[test]
fn whole_rack_outage_extends_the_conservation_invariant() {
    // A 32-node two-rack datacenter where *every* replica lives in rack 1
    // and a whole-rack outage takes that rack — 16 nodes, all three sites
    // included — down mid-run. Rack-0 readers cross the spine for every
    // read, spin on their failover timers through the outage, and finish
    // after the restore; the ledger must still balance.
    let builder = ScenarioBuilder::new()
        .seed(9)
        .nodes(32)
        .datacenter(2, 4, 2)
        .configure(|cfg| cfg.memory_bytes = 1 << 20);
    let rack = builder.config().fabric.topology;
    // Three replica sites on distinct leaves of rack 1.
    let sites = vec![20usize, 25, 30];
    let builder =
        builder.fault(FaultPlan::new().rack_outage(rack, 1, Time::from_us(10), Time::from_us(60)));
    let (mut scenario, store) = builder.replicated_store(&sites, StoreLayout::Clean, 256, 16);
    let readers = [0usize, 5, 10, 15];
    for &rnode in &readers {
        scenario = scenario.reader_spec(
            rnode,
            0,
            spec()
                .replicas(store.view_for(rnode, rack))
                .payload(256)
                .mechanism(ReadMechanism::Raw)
                .wire(store.slot_bytes() as u32)
                .iterations(50)
                .failover_timeout(Time::from_us(5)),
        );
    }
    let report = scenario.run_for(Time::from_us(400));
    let rack = report.rack();
    let m = &rack.metrics;
    assert_eq!(m.ops, 200, "every reader must finish despite the outage");
    assert!(m.failovers > 0, "the rack outage must force failovers");
    let cluster = report.cluster();
    let sent = cluster.fabric().packets_total();
    let delivered = cluster.packets_delivered();
    let dropped = cluster.packets_dropped();
    assert!(dropped > 0, "the rack outage must drop packets");
    assert_eq!(
        sent,
        delivered + dropped,
        "conservation must hold over the outage"
    );
    assert!(
        rack.hops.spine_crossings > 0,
        "cross-rack replicas must cross the spine: {:?}",
        rack.hops
    );
}
