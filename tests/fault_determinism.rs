//! Fault determinism: crash/recovery injection must not perturb the
//! sharded loop's contracts.
//!
//! Three invariants:
//!
//! * a crash-laden scenario — outage, dropped packets, failover timers,
//!   replica migrations and all — replays **bit-identically** at every
//!   shards × threads setting, because drops are a pure function of the
//!   static [`FaultPlan`] evaluated at the destination's delivery point;
//! * so does a full **recovery**-laden scenario: a correlated whole-leaf
//!   outage with catch-up pulls, sibling bounces, guarded reads and
//!   replay on top of the crash machinery (the shipped fig_recovery
//!   construction, every counter of its rack [`Totals`] included);
//! * the packet-conservation invariant extends to faults and catch-up
//!   traffic: every packet the fabric accepted is either delivered
//!   exactly once or dropped by the fault plan — `sent == delivered +
//!   dropped` at quiescence.

use sabres::prelude::*;
use sabres::sim::HopStats;

use sabre_bench::experiments::fig_failover::{measure_threaded, Point, Policy};
use sabre_bench::experiments::fig_recovery;

/// Everything observable about one fig_failover point: op count, float
/// mean, integer p99, and both fault counters.
fn fingerprint(p: Point) -> (u64, f64, u64, u64, u64) {
    (p.ops, p.latency_ns, p.p99_ns, p.failovers, p.migrations)
}

#[test]
fn crash_laden_fig_failover_is_shard_and_thread_invariant() {
    // The shipped fig_failover construction (not a copy of it), with the
    // mid-run store crash in play, replayed at shards {1, 2, 8} × threads
    // {1, 2, 8} for both replica-selection policies: every op count,
    // latency bit, failover and migration must match the serial run.
    for policy in [Policy::Adaptive, Policy::Static] {
        let serial = fingerprint(measure_threaded(
            ReadMechanism::Sabre,
            policy,
            2,
            1,
            Some(1),
        ));
        assert!(serial.0 > 0, "{policy:?}: serial run must complete ops");
        assert!(serial.3 > 0, "{policy:?}: the crash must force failovers");
        for shards in [2usize, 8] {
            for threads in [1usize, 2, 8] {
                assert_eq!(
                    serial,
                    fingerprint(measure_threaded(
                        ReadMechanism::Sabre,
                        policy,
                        2,
                        shards,
                        Some(threads)
                    )),
                    "{policy:?}: {shards} shards on {threads} threads diverged \
                     from the serial crash schedule"
                );
            }
        }
    }
}

/// Everything observable about one fig_recovery point: integer p99 and
/// the rack's counters — op count, migrations, every recovery counter
/// (both protocol sides), engine and hop counters.
fn recovery_fingerprint(p: fig_recovery::Point) -> (u64, Totals) {
    (p.p99_ns, p.rack)
}

#[test]
fn recovery_laden_fig_recovery_is_shard_and_thread_invariant() {
    // The shipped fig_recovery construction (not a copy of it): the
    // whole-leaf outage, both sites' catch-up pulls, the mutual-staleness
    // bounces, the guarded reads and the replayed updates, replayed at
    // shards {1, 2, 8} × threads {1, 2, 8} for both guard policies. Every
    // op count, latency bit and recovery counter must match the serial
    // single-shard run.
    for mode in [fig_recovery::Mode::Refuse, fig_recovery::Mode::ServeStale] {
        let serial = recovery_fingerprint(fig_recovery::measure_threaded(mode, 2, 1, Some(1)));
        let (m, r) = (&serial.1.metrics, &serial.1.r2p2);
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
        for shards in [2usize, 8] {
            for threads in [1usize, 2, 8] {
                assert_eq!(
                    serial,
                    recovery_fingerprint(fig_recovery::measure_threaded(
                        mode,
                        2,
                        shards,
                        Some(threads)
                    )),
                    "{mode:?}: {shards} shards on {threads} threads diverged \
                     from the serial recovery schedule"
                );
            }
        }
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
            Box::new(RecoveringWriter::new(
                store.object_entries(),
                208,
                StoreLayout::Clean,
                Time::from_ns(500),
                log,
                peers,
                Addr::new(2 << 20),
                8,
            )),
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
    let builder = ScenarioBuilder::new().nodes(6).shards(2);
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

/// Everything observable about one whole-rack-outage run: reader
/// metrics, the packet-conservation ledger, and the streaming hop/spine
/// counters.
type RackOutagePrint = (u64, Option<u64>, u64, u64, u64, u64, u64, HopStats);

/// A 32-node two-rack datacenter where *every* replica lives in rack 1
/// and a [`FaultPlan::rack_outage`] takes that whole rack — 16 nodes,
/// all three sites included — down mid-run. Rack-0 readers cross the
/// spine for every read, spin on their failover timers through the
/// outage, and finish after the restore.
fn rack_outage_fingerprint(shards: usize, threads: usize) -> RackOutagePrint {
    let builder = ScenarioBuilder::new()
        .seed(9)
        .nodes(32)
        .datacenter(2, 4, 2)
        .shards(shards)
        .threads(threads)
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
    let cluster = report.cluster();
    (
        m.ops,
        m.p99_ns(),
        m.failovers,
        m.migrations,
        cluster.fabric().packets_total(),
        cluster.packets_delivered(),
        cluster.packets_dropped(),
        rack.hops,
    )
}

#[test]
fn whole_rack_outage_is_shard_and_thread_invariant() {
    // The generalized outage: a whole rack (not just a leaf) dies and
    // restores mid-run across the inter-rack spine. The run must replay
    // bit-identically at shards {1, 2, 8} x threads {1, 2, 8}, every
    // failover timer, dropped packet and spine crossing included.
    let serial = rack_outage_fingerprint(1, 1);
    assert_eq!(serial.0, 200, "every reader must finish despite the outage");
    assert!(serial.2 > 0, "the rack outage must force failovers");
    assert!(serial.6 > 0, "the rack outage must drop packets");
    assert_eq!(
        serial.4,
        serial.5 + serial.6,
        "conservation must hold over the outage: {serial:?}"
    );
    assert!(
        serial.7.spine_crossings > 0,
        "cross-rack replicas must cross the spine: {:?}",
        serial.7
    );
    for shards in [1usize, 2, 8] {
        for threads in [1usize, 2, 8] {
            if shards == 1 && threads == 1 {
                continue;
            }
            assert_eq!(
                serial,
                rack_outage_fingerprint(shards, threads),
                "{shards} shards on {threads} threads diverged from the \
                 serial rack-outage schedule"
            );
        }
    }
}
