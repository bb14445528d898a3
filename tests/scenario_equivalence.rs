//! Scenario-API pins, the [`Sweep`] contract, and execution invariance
//! on the shipped constructions.
//!
//! A scenario must be *sugar*, not a new semantics: the Table-1 quadrant
//! and one fig-7a point, built with [`ScenarioBuilder`], must reproduce
//! the ops and mean latency recorded from the hand-wired `Cluster::new`
//! construction they replaced, and the shipped experiments must agree.
//! This file also pins the [`Sweep`] contract: parallel execution returns
//! results in input order, identical to a serial run. Last, the Table-1
//! quadrant, the N-node rack and one point of each multi-node figure
//! replay bit for bit at every cluster execution setting ([`Exec::ALL`]);
//! each figure point is a copy of the figure's construction whose serial
//! run must equal the shipped `measure`. The generated proof over whole
//! scenarios is `tests/execution_invariance.rs`.

mod common;

use common::{assert_execution_invariant, Exec};
use sabre_bench::experiments::{
    fig_placement, fig_protocols, fig_scale, fig_tail, layout, mean_core_latency, reader_grid,
};
use sabres::core::SpecMode;
use sabres::prelude::*;
use sabres::rack::CoreMetrics;
use sabres::sim::HopStats;

/// One Table-1 quadrant (destination OCC: one SABRe reader over a
/// 512-object clean store).
fn table1_dest_occ_scenario(iters: u64, exec: Exec) -> (u64, Option<f64>) {
    let (scenario, _store) = ScenarioBuilder::new()
        .configure(|cfg| exec.apply(cfg))
        .store(1, StoreLayout::Clean, 1024, Some(512));
    let wire = StoreLayout::Clean.object_bytes(1024) as u32;
    let report = scenario
        .reader_spec(
            0,
            0,
            spec()
                .store(1)
                .payload(1024)
                .mechanism(ReadMechanism::Sabre)
                .wire(wire),
        )
        .run_for(Time::from_us(20 * iters));
    let m = report.core(0, 0);
    (m.ops, m.latency.mean())
}

/// Ops and mean latency of the Table-1 quadrant over 200 us, recorded
/// from the hand-wired `Cluster::new` construction.
const TABLE1_PIN: (u64, f64) = (775, 257.943_225_806_453_5);

#[test]
fn table1_quadrant_scenario_matches_legacy_bitwise() {
    let (ops, mean) = table1_dest_occ_scenario(10, Exec::SERIAL);
    assert_eq!(
        (ops, mean.map(f64::to_bits)),
        (TABLE1_PIN.0, Some(TABLE1_PIN.1.to_bits())),
        "the scenario left the recorded legacy fingerprint"
    );
    // And the *shipped* experiment (not a copy of its construction) agrees
    // too, so the pin cannot silently drift from the harness.
    let shipped = sabre_bench::experiments::table1::measure(
        sabre_bench::experiments::table1::Quadrant::DestOcc,
        10,
    );
    assert_eq!(mean, Some(shipped));
}

/// One fig-7a sweep point: SABRe over memory-resident raw targets.
fn fig7a_point_scenario(size: u32, iters: u64) -> (u64, Option<f64>) {
    let report = ScenarioBuilder::new()
        .configure(|cfg| cfg.lightsabres.spec_mode = SpecMode::Speculative)
        .raw_region(1, size)
        .reader_spec(
            0,
            0,
            spec()
                .store(1)
                .payload(size)
                .mechanism(ReadMechanism::Sabre),
        )
        .run_for(Time::from_us(10 * iters));
    let m = report.core(0, 0);
    (m.ops, m.latency.mean())
}

/// Ops and mean latency of the 1 KB fig-7a point over 100 us, recorded
/// from the hand-wired `Cluster::new` construction.
const FIG7A_PIN: (u64, f64) = (342, 292.362_807_017_545_26);

#[test]
fn fig7a_point_scenario_matches_legacy_bitwise() {
    let (ops, mean) = fig7a_point_scenario(1024, 10);
    assert_eq!(
        (ops, mean.map(f64::to_bits)),
        (FIG7A_PIN.0, Some(FIG7A_PIN.1.to_bits())),
        "the scenario left the recorded legacy fingerprint"
    );
    // And the *shipped* experiment (not a copy of its construction) agrees
    // too, so the pin cannot silently drift from the harness.
    let shipped = sabre_bench::experiments::fig7a::measure(
        1024,
        ReadMechanism::Sabre,
        SpecMode::Speculative,
        10,
    );
    assert_eq!(mean, Some(shipped));
}

#[test]
fn parallel_sweep_is_ordered_and_identical_to_serial() {
    let sizes = [64u32, 256, 1024, 4096];
    let point = |&size: &u32| {
        let (ops, mean) = fig7a_point_scenario(size, 5);
        (size, ops, mean)
    };
    let serial = Sweep::over(sizes).threads(1).map(point);
    let parallel = Sweep::over(sizes).threads(4).map(point);
    assert_eq!(
        serial, parallel,
        "thread count must not change any result bit"
    );
    for (i, &size) in sizes.iter().enumerate() {
        assert_eq!(parallel[i].0, size, "results must come back in input order");
    }
}

#[test]
fn warmup_window_changes_measurement_not_simulation() {
    // The windowed run simulates warmup+measure total time; its metrics
    // cover only the measurement window, while the simulated history is
    // the same as an unwindowed run of the same total duration.
    let build = || {
        let (scenario, _store) =
            ScenarioBuilder::new().store(1, StoreLayout::Clean, 1024, Some(64));
        let wire = StoreLayout::Clean.object_bytes(1024) as u32;
        scenario.reader_spec(
            0,
            0,
            spec()
                .store(1)
                .payload(1024)
                .mechanism(ReadMechanism::Sabre)
                .wire(wire),
        )
    };
    let full = build().run_for(Time::from_us(100));
    let windowed = build()
        .warmup(Time::from_us(40))
        .measure(Time::from_us(60))
        .run();
    assert_eq!(windowed.cluster().now(), full.cluster().now());
    assert!(windowed.core(0, 0).ops > 0);
    assert!(windowed.core(0, 0).ops < full.core(0, 0).ops);
    // Engine registrations were reset at the window boundary too.
    assert!(windowed.node(1).engine.registered < full.node(1).engine.registered);
    assert_eq!(
        windowed.core(0, 0).ops,
        windowed.node(1).engine.completed_ok,
        "windowed core ops and windowed engine completions must agree"
    );
}

// ---------------------------------------------------------------------
// N-node determinism: the beyond-paper rack obeys the same contracts
// ---------------------------------------------------------------------

/// A full fingerprint of one multi-node run: per-core ops/retries/mean
/// latency plus per-node engine and pipeline counters — if any bit of
/// observable behavior changes, this changes.
fn rack_fingerprint(nodes: usize, seed: u64, exec: Exec) -> Vec<String> {
    let builder = ScenarioBuilder::new()
        .seed(seed)
        .nodes(nodes)
        .configure(|cfg| exec.apply(cfg));
    let topo = builder.config().topology.clone();
    let (mut scenario, store_shards) =
        builder.sharded_store(topo.store_nodes(), StoreLayout::Clean, 1024, 32);
    for (i, &rnode) in topo.reader_nodes().iter().enumerate() {
        let shard = store_shards[i % store_shards.len()].clone();
        let wire = shard.slot_bytes() as u32;
        scenario = scenario.reader_spec(
            rnode,
            0,
            spec()
                .store(shard.node() as usize)
                .payload(1024)
                .mechanism(ReadMechanism::Sabre)
                .wire(wire)
                .objects(shard.object_addrs()),
        );
    }
    let report = scenario.run_for(Time::from_us(60));
    (0..nodes)
        .map(|node| {
            let n = report.node(node);
            format!(
                "{}:{:?}:{}:{}:{:?}:{}:{}:{}",
                node,
                topo.role(node),
                n.metrics.ops,
                n.metrics.retries,
                report.core(node, 0).latency.mean(),
                n.r2p2.sabres_registered,
                n.engine.completed_ok,
                n.engine.completed_failed,
            )
        })
        .collect()
}

#[test]
fn same_multi_node_scenario_replays_bit_identically() {
    let a = rack_fingerprint(6, 42, Exec::SERIAL);
    let b = rack_fingerprint(6, 42, Exec::SERIAL);
    assert!(
        a.iter()
            .any(|s| s.contains(":Reader:") && !s.contains(":Reader:0:")),
        "at least one reader node must complete ops: {a:?}"
    );
    assert_eq!(a, b, "same seed, same rack — every bit must replay");
}

#[test]
fn sharded_event_loop_is_bit_identical_to_single_shard() {
    // The sharded loop's acceptance bar, on the biggest rack: 8 nodes
    // advanced as one shard, or as 2, 4 or 8 shards on two workers.
    let single = rack_fingerprint(8, 7, Exec::SERIAL);
    for shards in [2usize, 4, 8] {
        let exec = Exec {
            shards: Some(shards),
            threads: Some(2),
        };
        assert_eq!(single, rack_fingerprint(8, 7, exec), "{exec:?}");
    }
}

#[test]
fn thread_driven_shards_are_bit_identical_to_serial() {
    // The thread-dispatch acceptance bar: the fully sharded 8-node rack
    // driven by 1 worker, 2 workers, or one per shard replays the serial
    // single-shard run bit for bit.
    let serial = rack_fingerprint(8, 7, Exec::SERIAL);
    for threads in [1usize, 2, 8] {
        let exec = Exec {
            shards: None,
            threads: Some(threads),
        };
        assert_eq!(serial, rack_fingerprint(8, 7, exec), "{exec:?}");
    }
}

#[test]
fn table1_quadrant_is_thread_invariant() {
    // The Table-1 quadrant (destination OCC over a clean store), with the
    // paper pair sharded and thread-driven: every setting must reproduce
    // the recorded serial quadrant bit for bit.
    let serial = assert_execution_invariant("table1 quadrant", |exec| {
        let (ops, mean) = table1_dest_occ_scenario(5, exec);
        (ops, mean.map(f64::to_bits))
    });
    assert!(serial.0 > 0, "serial run must complete ops");
}

#[test]
fn eight_node_table1_workload_reports_per_node_metrics() {
    // The Table-1 workload (1 KB clean-store SABRes), distributed over the
    // 8-node rack through the Scenario API with the shipped fig_scale
    // construction: every reader node reports goodput.
    let p = sabre_bench::experiments::fig_scale::measure(8, ReadMechanism::Sabre, 3);
    assert!(p.latency_ns > 0.0);
    assert!(p.total_gbps > 0.0);
    assert!(p.min_reader_gbps > 0.0, "every reader node reports");
}

#[test]
fn node_count_sweep_is_parallel_invariant() {
    let point = |&nodes: &usize| rack_fingerprint(nodes, 3, Exec::SERIAL);
    let counts = [2usize, 4, 6, 8];
    let serial = Sweep::over(counts).threads(1).map(point);
    let parallel = Sweep::over(counts).threads(4).map(point);
    assert_eq!(
        serial, parallel,
        "a sweep over rack sizes must not depend on worker threads"
    );
}

// ---------------------------------------------------------------------
// Execution invariance of the shipped figure points
// ---------------------------------------------------------------------

/// One fig_scale point, from a copy of `fig_scale::measure` run at
/// `exec`: mean core latency, rack goodput, slowest and fastest reader
/// node.
fn fig_scale_point(nodes: usize, mech: ReadMechanism, iters: u64, exec: Exec) -> [f64; 4] {
    use fig_scale::{CORES_PER_READER_NODE, OBJECTS_PER_SHARD, PAYLOAD};
    let builder = ScenarioBuilder::new()
        .nodes(nodes)
        .configure(|cfg| exec.apply(cfg));
    let topo = builder.config().topology.clone();
    let (builder, store_shards) =
        builder.sharded_store(topo.store_nodes(), layout(mech), PAYLOAD, OBJECTS_PER_SHARD);
    let (grid, reader_index) = reader_grid(&topo, CORES_PER_READER_NODE);
    let report = builder
        .readers_grid_spec(grid.clone(), move |node, _core, _targets| {
            let shard = &store_shards[reader_index[&node] % store_shards.len()];
            spec()
                .store(shard.node() as usize)
                .payload(PAYLOAD)
                .mechanism(mech)
                .wire(shard.slot_bytes() as u32)
                .objects(shard.object_addrs())
        })
        .run_for(Time::from_us(20 * iters));
    let gbps: Vec<f64> = topo
        .reader_nodes()
        .iter()
        .map(|&n| report.node(n).gbps)
        .collect();
    [
        mean_core_latency(&report, &grid),
        report.rack().gbps,
        gbps.iter().copied().fold(f64::INFINITY, f64::min),
        gbps.iter().copied().fold(0.0, f64::max),
    ]
}

#[test]
fn eight_node_fig_scale_point_is_thread_invariant() {
    let serial = assert_execution_invariant("fig_scale 8-node point", |exec| {
        fig_scale_point(8, ReadMechanism::Sabre, 3, exec)
    });
    let p = fig_scale::measure(8, ReadMechanism::Sabre, 3);
    assert_eq!(
        serial,
        [
            p.latency_ns,
            p.total_gbps,
            p.min_reader_gbps,
            p.max_reader_gbps
        ],
        "the copy left the shipped fig_scale construction"
    );
}

/// One fig_placement point, from a copy of `fig_placement::measure` run
/// at `exec` (`oversubscription` [`None`] keeps the mesh): mean core
/// latency, rack goodput and mean reader hops.
fn fig_placement_point(
    oversubscription: Option<u8>,
    placement: PlacementPolicy,
    (stores, readers_per_store): (usize, usize),
    iters: u64,
    exec: Exec,
) -> [f64; 3] {
    use fig_placement::{CORES_PER_READER_NODE, OBJECTS_PER_SHARD, PAYLOAD};
    let mut builder = ScenarioBuilder::new()
        .topology(Topology::skewed(stores, readers_per_store).with_placement(placement));
    if let Some(oversubscription) = oversubscription {
        builder = builder.fat_tree(4, oversubscription);
    }
    let builder = builder.configure(|cfg| exec.apply(cfg));
    let cfg = builder.config().clone();
    let topo = cfg.topology.clone();
    let store_nodes = topo.store_nodes();
    let (builder, store_shards) = builder.sharded_store(
        store_nodes.clone(),
        StoreLayout::Clean,
        PAYLOAD,
        OBJECTS_PER_SHARD,
    );
    let (grid, reader_index) = reader_grid(&topo, CORES_PER_READER_NODE);
    let report = builder
        .readers_grid_spec(grid.clone(), move |node, _core, _targets| {
            let store = cfg.store_for_reader(reader_index[&node]);
            let shard_pos = store_nodes.iter().position(|&s| s == store).unwrap();
            let shard = &store_shards[shard_pos];
            spec()
                .store(shard.node() as usize)
                .payload(PAYLOAD)
                .mechanism(ReadMechanism::Sabre)
                .wire(shard.slot_bytes() as u32)
                .objects(shard.object_addrs())
        })
        .run_for(Time::from_us(20 * iters));
    let mut reader_hops = HopStats::default();
    for &node in &topo.reader_nodes() {
        reader_hops.merge(&report.node(node).hops);
    }
    [
        mean_core_latency(&report, &grid),
        report.rack().gbps,
        reader_hops.mean_hops(),
    ]
}

#[test]
fn fig_placement_point_is_shard_and_thread_invariant() {
    // The geometry-heaviest point (the 4:1 fat tree with a 1:3 skew under
    // round-robin placement, where uplink queueing is busiest) and the
    // mesh under nearest-shard placement.
    use fig_placement::FabricKind;
    for (fabric, oversubscription, placement) in [
        (FabricKind::FatTree4, Some(4), PlacementPolicy::RoundRobin),
        (FabricKind::Mesh, None, PlacementPolicy::NearestShard),
    ] {
        let serial = assert_execution_invariant(&format!("{fabric:?}/{placement:?}"), |exec| {
            fig_placement_point(oversubscription, placement, (2, 3), 3, exec)
        });
        assert!(serial[1] > 0.0, "{fabric:?}/{placement:?}: no goodput");
        let p = fig_placement::measure(fabric, placement, (2, 3), 3);
        assert_eq!(
            serial,
            [p.latency_ns, p.total_gbps, p.reader_hops],
            "{fabric:?}/{placement:?}: the copy left the shipped construction"
        );
    }
}

/// The rack metrics of one open-loop point on the fig_tail rack, from a
/// copy of `fig_tail::measure` (plus, with `writers`, the CREW writers
/// of `fig_protocols::measure`) run at `exec`.
fn open_loop_rack(
    mech: ReadMechanism,
    skew: fig_tail::Skew,
    load: f64,
    iters: u64,
    writers: bool,
    exec: Exec,
) -> Totals {
    use fig_scale::{CORES_PER_READER_NODE, OBJECTS_PER_SHARD, PAYLOAD};
    let builder = ScenarioBuilder::new()
        .nodes(fig_tail::NODES)
        .configure(|cfg| exec.apply(cfg));
    let topo = builder.config().topology.clone();
    let (builder, store_shards) =
        builder.sharded_store(topo.store_nodes(), layout(mech), PAYLOAD, OBJECTS_PER_SHARD);
    let (grid, reader_index) = reader_grid(&topo, CORES_PER_READER_NODE);
    let shards_for_readers = store_shards.clone();
    let mut scenario = builder.readers_grid_spec(grid, move |node, _core, _targets| {
        let shard = &shards_for_readers[reader_index[&node] % shards_for_readers.len()];
        spec()
            .store(shard.node() as usize)
            .payload(PAYLOAD)
            .mechanism(mech)
            // fig_tail's slot size: the same for its clean layout.
            .wire(shard.wire_bytes() as u32)
            .objects(shard.object_addrs())
            .arrivals(Arrivals::Poisson { ops_per_us: load })
            .popularity(skew.popularity())
    });
    // fig_protocols partitions every shard over writers of 32 objects.
    for shard in store_shards.iter().filter(|_| writers) {
        for (w, entries) in shard.object_entries().chunks(32).enumerate() {
            let writer = Writer::new(entries.to_vec(), PAYLOAD, layout(mech), Time::ZERO);
            scenario = scenario.workload(shard.node() as usize, w, Box::new(writer));
        }
    }
    scenario.run_for(Time::from_us(20 * iters)).rack()
}

#[test]
fn fig_tail_point_is_shard_and_thread_invariant() {
    // An open-loop point with queueing and skew in play: every
    // percentile, queue counter and op count must replay bit for bit.
    use fig_tail::Skew;
    let fingerprint = |m: &CoreMetrics| {
        (
            m.ops,
            m.p50_ns(),
            m.p99_ns(),
            m.p999_ns(),
            m.queued_arrivals,
            m.peak_backlog,
        )
    };
    let serial = assert_execution_invariant("fig_tail Zipf point", |exec| {
        let rack = open_loop_rack(ReadMechanism::Sabre, Skew::Zipf, 0.8, 2, false, exec);
        fingerprint(&rack.metrics)
    });
    assert!(serial.0 > 0, "serial run must complete ops");
    assert!(serial.4 > 0, "an 0.8 ops/us point must see queueing");
    let p = fig_tail::measure(ReadMechanism::Sabre, Skew::Zipf, 0.8, 2);
    assert_eq!(
        serial,
        (
            p.ops,
            Some(p.p50_ns),
            Some(p.p99_ns),
            Some(p.p999_ns),
            p.queued,
            p.peak_backlog
        ),
        "the copy left the shipped fig_tail construction"
    );
}

#[test]
fn open_loop_bucket_counts_are_shard_and_thread_invariant() {
    // Stronger than percentile equality: the merged latency histogram's
    // full bucket dump — every count in every bucket — must be
    // byte-identical at every execution setting.
    assert_execution_invariant("open-loop histogram", |exec| {
        let builder = ScenarioBuilder::new()
            .nodes(8)
            .configure(|cfg| exec.apply(cfg));
        let topo = builder.config().topology.clone();
        let (mut scenario, store_shards) =
            builder.sharded_store(topo.store_nodes(), StoreLayout::Clean, 1024, 32);
        for (i, &rnode) in topo.reader_nodes().iter().enumerate() {
            let shard = store_shards[i % store_shards.len()].clone();
            let wire = shard.slot_bytes() as u32;
            scenario = scenario.reader_spec(
                rnode,
                0,
                spec()
                    .store(shard.node() as usize)
                    .payload(1024)
                    .mechanism(ReadMechanism::Sabre)
                    .wire(wire)
                    .objects(shard.object_addrs())
                    .arrivals(Arrivals::Poisson { ops_per_us: 1.2 })
                    .popularity(Popularity::Zipf { exponent: 0.99 }),
            );
        }
        let rack = scenario.run_for(Time::from_us(40)).rack();
        assert!(rack.metrics.ops > 0, "no ops recorded");
        rack.metrics.latency_hist.dump()
    });
}

#[test]
fn fig_protocols_point_is_shard_and_thread_invariant() {
    // The busiest fig_protocols points: the wait-free register and Oh-RAM
    // under Zipf skew with racing writers on every shard, so server-side
    // captures, writer invalidation restarts, confirm writes in flight at
    // window barriers and open-loop queueing are all in play.
    use fig_scale::PAYLOAD;
    use fig_tail::Skew;
    for mech in [
        ReadMechanism::WfRegister { payload: PAYLOAD },
        ReadMechanism::OhRam { payload: PAYLOAD },
    ] {
        let serial = assert_execution_invariant(&format!("{mech:?}"), |exec| {
            let rack = open_loop_rack(mech, Skew::Zipf, 0.8, 2, true, exec);
            let m = &rack.metrics;
            let hops_per_op = rack.hops.hops as f64 / m.ops as f64;
            (
                m.ops,
                m.p50_ns(),
                m.p99_ns(),
                hops_per_op.to_bits(),
                m.retries,
            )
        });
        assert!(serial.0 > 0, "{mech:?}: serial run must complete ops");
        let p = fig_protocols::measure(mech, Skew::Zipf, 0.8, 2);
        assert_eq!(
            serial,
            (
                p.ops,
                Some(p.p50_ns),
                Some(p.p99_ns),
                p.hops_per_op.to_bits(),
                p.retries
            ),
            "{mech:?}: the copy left the shipped fig_protocols construction"
        );
    }
}
