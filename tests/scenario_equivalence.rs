//! Scenario-API equivalence: a scenario must be *sugar*, not a new
//! semantics. Building an experiment with [`ScenarioBuilder`] has to
//! replay bit-identically to the legacy hand-wired [`Cluster`]
//! construction performing the same steps with the same seed — this file
//! is the one place outside `sabre-rack` where direct `Cluster::new`
//! wiring is still welcome, precisely to pin that equivalence down. It
//! also pins the [`Sweep`] contract: parallel execution returns results in
//! input order, identical to a serial run.

use sabres::core::SpecMode;
use sabres::prelude::*;

/// The hand-wired construction of one Table-1 quadrant (destination OCC:
/// one SABRe reader over a 512-object clean store), exactly as the bench
/// harness built it before the Scenario API existed.
fn table1_dest_occ_legacy(iters: u64) -> (u64, Option<f64>) {
    let mut cluster = Cluster::new(ClusterConfig::default());
    let store = ObjectStore::new(1, Addr::new(0), StoreLayout::Clean, 1024, 512);
    store.init(cluster.node_memory_mut(1));
    let wire = StoreLayout::Clean.object_bytes(1024) as u32;
    cluster.add_workload(
        0,
        0,
        spec()
            .store(1)
            .payload(1024)
            .mechanism(ReadMechanism::Sabre)
            .wire(wire)
            .build(&store.object_addrs()),
    );
    cluster.run_for(Time::from_us(20 * iters));
    let m = cluster.metrics(0, 0);
    (m.ops, m.latency.mean())
}

/// The same quadrant as a scenario.
fn table1_dest_occ_scenario(iters: u64) -> (u64, Option<f64>) {
    let (scenario, _store) = ScenarioBuilder::new().store(1, StoreLayout::Clean, 1024, Some(512));
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

#[test]
fn table1_quadrant_scenario_matches_legacy_bitwise() {
    let legacy = table1_dest_occ_legacy(10);
    let scenario = table1_dest_occ_scenario(10);
    assert!(legacy.0 > 0, "legacy run must complete ops");
    assert_eq!(
        legacy, scenario,
        "same seed must give identical ops and mean latency"
    );
    // And the *shipped* experiment (not a copy of its construction) agrees
    // too, so the equivalence cannot silently drift from the harness.
    let shipped = sabre_bench::experiments::table1::measure(
        sabre_bench::experiments::table1::Quadrant::DestOcc,
        10,
    );
    assert_eq!(legacy.1, Some(shipped));
}

/// One fig-7a sweep point (1 KB SABRe over memory-resident raw targets),
/// hand-wired exactly as the legacy `raw_targets` scaffolding did.
fn fig7a_point_legacy(size: u32, iters: u64) -> (u64, Option<f64>) {
    let mut cfg = ClusterConfig::default();
    cfg.lightsabres.spec_mode = SpecMode::Speculative;
    let mut cluster = Cluster::new(cfg);
    let slot = (size as u64).div_ceil(64) * 64;
    let count = (16 * 1024 * 1024 / slot).clamp(1, 16_384);
    let mut targets = Vec::with_capacity(count as usize);
    {
        let mem = cluster.node_memory_mut(1);
        for i in 0..count {
            let base = Addr::new(i * slot);
            mem.write_u64(base, 0);
            targets.push(base);
        }
    }
    cluster.add_workload(
        0,
        0,
        spec()
            .store(1)
            .payload(size)
            .mechanism(ReadMechanism::Sabre)
            .build(&targets),
    );
    cluster.run_for(Time::from_us(10 * iters));
    let m = cluster.metrics(0, 0);
    (m.ops, m.latency.mean())
}

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

#[test]
fn fig7a_point_scenario_matches_legacy_bitwise() {
    let legacy = fig7a_point_legacy(1024, 10);
    let scenario = fig7a_point_scenario(1024, 10);
    assert!(legacy.0 > 0, "legacy run must complete ops");
    assert_eq!(
        legacy, scenario,
        "same seed must give identical ops and mean latency"
    );
    // And the *shipped* experiment (not a copy of its construction) agrees
    // too, so the equivalence cannot silently drift from the harness.
    let shipped = sabre_bench::experiments::fig7a::measure(
        1024,
        ReadMechanism::Sabre,
        SpecMode::Speculative,
        10,
    );
    assert_eq!(legacy.1, Some(shipped));
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
fn rack_fingerprint(nodes: usize, shards: usize, seed: u64) -> Vec<String> {
    rack_fingerprint_threaded(nodes, shards, 1, seed)
}

fn rack_fingerprint_threaded(
    nodes: usize,
    shards: usize,
    threads: usize,
    seed: u64,
) -> Vec<String> {
    let builder = ScenarioBuilder::new()
        .seed(seed)
        .nodes(nodes)
        .shards(shards)
        .threads(threads);
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
    let a = rack_fingerprint(6, 1, 42);
    let b = rack_fingerprint(6, 1, 42);
    assert!(
        a.iter()
            .any(|s| s.contains(":Reader:") && !s.contains(":Reader:0:")),
        "at least one reader node must complete ops: {a:?}"
    );
    assert_eq!(a, b, "same seed, same rack — every bit must replay");
}

#[test]
fn sharded_event_loop_is_bit_identical_to_single_shard() {
    // The tentpole acceptance bar, on the biggest rack: 8 nodes advanced
    // as one shard, two shards, or one shard per node.
    let single = rack_fingerprint(8, 1, 7);
    assert_eq!(single, rack_fingerprint(8, 2, 7));
    assert_eq!(single, rack_fingerprint(8, 8, 7));
}

#[test]
fn thread_driven_shards_are_bit_identical_to_serial() {
    // The thread-dispatch acceptance bar: the fully sharded 8-node rack
    // driven by 1 worker, 2 workers, or one per shard replays the serial
    // single-shard run bit for bit.
    let serial = rack_fingerprint(8, 1, 7);
    for threads in [1usize, 2, 8] {
        assert_eq!(
            serial,
            rack_fingerprint_threaded(8, 8, threads, 7),
            "{threads} worker threads changed an 8-shard result bit"
        );
    }
}

#[test]
fn table1_quadrant_is_thread_invariant() {
    // The Table-1 quadrant (destination OCC over a clean store), run with
    // the paper pair fully sharded and thread-driven: every thread count
    // must reproduce the plain serial scenario bit for bit.
    let serial = table1_dest_occ_scenario(5);
    assert!(serial.0 > 0, "serial run must complete ops");
    for threads in [1usize, 2] {
        let (scenario, _store) =
            ScenarioBuilder::new().store(1, StoreLayout::Clean, 1024, Some(512));
        let wire = StoreLayout::Clean.object_bytes(1024) as u32;
        let report = scenario
            .shards(2)
            .threads(threads)
            .reader_spec(
                0,
                0,
                spec()
                    .store(1)
                    .payload(1024)
                    .mechanism(ReadMechanism::Sabre)
                    .wire(wire),
            )
            .run_for(Time::from_us(20 * 5));
        let m = report.core(0, 0);
        assert_eq!(
            serial,
            (m.ops, m.latency.mean()),
            "2 shards on {threads} threads diverged from the serial quadrant"
        );
    }
}

#[test]
fn eight_node_fig_scale_point_is_thread_invariant() {
    // The shipped fig_scale construction (not a copy of it), 8 nodes and
    // 8 shards, across worker-thread counts {1, 2, shards}.
    use sabre_bench::experiments::fig_scale::measure_threaded;
    let serial = measure_threaded(8, ReadMechanism::Sabre, 3, 1, None);
    for threads in [1usize, 2, 8] {
        let threaded = measure_threaded(8, ReadMechanism::Sabre, 3, 8, Some(threads));
        assert_eq!(serial.latency_ns, threaded.latency_ns, "{threads} threads");
        assert_eq!(serial.total_gbps, threaded.total_gbps, "{threads} threads");
        assert_eq!(
            serial.min_reader_gbps, threaded.min_reader_gbps,
            "{threads} threads"
        );
        assert_eq!(
            serial.max_reader_gbps, threaded.max_reader_gbps,
            "{threads} threads"
        );
    }
}

#[test]
fn fig_placement_point_is_shard_and_thread_invariant() {
    // The shipped fig_placement construction (not a copy of it) on its
    // geometry-heaviest point — the 4:1 fat tree with a 1:3 skew under
    // round-robin placement, where uplink queueing is busiest — replayed
    // at every shards × threads setting.
    use sabre_bench::experiments::fig_placement::{measure_threaded, FabricKind};
    use sabre_rack::PlacementPolicy;
    let fingerprint = |p: sabre_bench::experiments::fig_placement::Point| {
        (p.latency_ns, p.total_gbps, p.reader_hops)
    };
    for (fabric, placement) in [
        (FabricKind::FatTree4, PlacementPolicy::RoundRobin),
        (FabricKind::Mesh, PlacementPolicy::NearestShard),
    ] {
        let serial = fingerprint(measure_threaded(fabric, placement, (2, 3), 3, 1, Some(1)));
        assert!(serial.1 > 0.0, "{fabric:?}/{placement:?}: no goodput");
        for shards in [2usize, 8] {
            for threads in [1usize, 2, 8] {
                let threaded = fingerprint(measure_threaded(
                    fabric,
                    placement,
                    (2, 3),
                    3,
                    shards,
                    Some(threads),
                ));
                assert_eq!(
                    serial, threaded,
                    "{fabric:?}/{placement:?}: {shards} shards on {threads} threads \
                     diverged from the serial run"
                );
            }
        }
    }
}

#[test]
fn fig_tail_point_is_shard_and_thread_invariant() {
    // The shipped fig_tail construction (not a copy of it) on an
    // open-loop point with queueing and skew in play — the tentpole
    // acceptance bar: every percentile, queue counter and op count must
    // replay bit for bit at every shards x threads setting.
    use sabre_bench::experiments::fig_tail::{measure_threaded, Skew};
    let fingerprint = |p: sabre_bench::experiments::fig_tail::Point| {
        (
            p.ops,
            p.p50_ns,
            p.p99_ns,
            p.p999_ns,
            p.queued,
            p.peak_backlog,
        )
    };
    let serial = fingerprint(measure_threaded(
        ReadMechanism::Sabre,
        Skew::Zipf,
        0.8,
        2,
        1,
        Some(1),
    ));
    assert!(serial.0 > 0, "serial run must complete ops");
    assert!(serial.4 > 0, "an 0.8 ops/us point must see queueing");
    for shards in [2usize, 8] {
        for threads in [1usize, 2, 8] {
            let threaded = fingerprint(measure_threaded(
                ReadMechanism::Sabre,
                Skew::Zipf,
                0.8,
                2,
                shards,
                Some(threads),
            ));
            assert_eq!(
                serial, threaded,
                "{shards} shards on {threads} threads diverged from the serial run"
            );
        }
    }
}

#[test]
fn open_loop_bucket_counts_are_shard_and_thread_invariant() {
    // Stronger than percentile equality: the merged latency histogram's
    // full bucket dump — every count in every bucket — must be
    // byte-identical at every shards x threads setting.
    let dump = |shards: usize, threads: usize| {
        let builder = ScenarioBuilder::new()
            .nodes(8)
            .shards(shards)
            .threads(threads);
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
    };
    let serial = dump(1, 1);
    for shards in [2usize, 8] {
        for threads in [1usize, 2, 8] {
            assert_eq!(
                serial,
                dump(shards, threads),
                "{shards} shards on {threads} threads changed a bucket count"
            );
        }
    }
}

#[test]
fn eight_node_table1_workload_reports_per_node_metrics() {
    // The Table-1 workload (1 KB clean-store SABRes), distributed over the
    // 8-node rack through the Scenario API, with the shipped fig_scale
    // construction — and the shipped experiment is itself shard-invariant.
    use sabre_bench::experiments::fig_scale::measure_threaded;
    let sharded = measure_threaded(8, ReadMechanism::Sabre, 3, 8, None);
    let unsharded = measure_threaded(8, ReadMechanism::Sabre, 3, 1, None);
    assert_eq!(sharded.latency_ns, unsharded.latency_ns);
    assert_eq!(sharded.total_gbps, unsharded.total_gbps);
    assert!(sharded.total_gbps > 0.0);
    assert!(sharded.min_reader_gbps > 0.0, "every reader node reports");
}

#[test]
fn node_count_sweep_is_parallel_invariant() {
    let point = |&nodes: &usize| rack_fingerprint(nodes, nodes, 3);
    let counts = [2usize, 4, 6, 8];
    let serial = Sweep::over(counts).threads(1).map(point);
    let parallel = Sweep::over(counts).threads(4).map(point);
    assert_eq!(
        serial, parallel,
        "a sweep over rack sizes must not depend on worker threads"
    );
}

#[test]
fn fig_protocols_point_is_shard_and_thread_invariant() {
    // The shipped fig_protocols construction (not a copy of it) on its
    // busiest point — the wait-free register under Zipf skew with racing
    // writers on every shard, so server-side captures, writer invalidation
    // restarts and open-loop queueing are all in play — must replay bit
    // for bit at every shards x threads setting.
    use sabre_bench::experiments::fig_protocols::measure_threaded;
    use sabre_bench::experiments::fig_scale::PAYLOAD;
    use sabre_bench::experiments::fig_tail::Skew;
    let fingerprint = |p: sabre_bench::experiments::fig_protocols::Point| {
        (
            p.ops,
            p.p50_ns,
            p.p99_ns,
            p.hops_per_op.to_bits(),
            p.retries,
        )
    };
    let serial = fingerprint(measure_threaded(
        ReadMechanism::WfRegister { payload: PAYLOAD },
        Skew::Zipf,
        0.8,
        2,
        1,
        Some(1),
    ));
    assert!(serial.0 > 0, "serial run must complete ops");
    for shards in [2usize, 8] {
        for threads in [1usize, 2, 8] {
            let threaded = fingerprint(measure_threaded(
                ReadMechanism::WfRegister { payload: PAYLOAD },
                Skew::Zipf,
                0.8,
                2,
                shards,
                Some(threads),
            ));
            assert_eq!(
                serial, threaded,
                "{shards} shards on {threads} threads diverged from the serial run"
            );
        }
    }
    // And the Oh-RAM path (confirm writes in flight at merge time) too.
    let serial = fingerprint(measure_threaded(
        ReadMechanism::OhRam { payload: PAYLOAD },
        Skew::Zipf,
        0.8,
        2,
        1,
        Some(1),
    ));
    assert!(serial.0 > 0, "serial Oh-RAM run must complete ops");
    for (shards, threads) in [(2usize, 2usize), (8, 8)] {
        let threaded = fingerprint(measure_threaded(
            ReadMechanism::OhRam { payload: PAYLOAD },
            Skew::Zipf,
            0.8,
            2,
            shards,
            Some(threads),
        ));
        assert_eq!(
            serial, threaded,
            "Oh-RAM: {shards} shards on {threads} threads diverged from the serial run"
        );
    }
}
