//! End-to-end atomicity soundness: the paper's core guarantee, checked on
//! the full simulated system.
//!
//! **Invariant**: any read that completes as *atomic* — whether checked by
//! LightSABRes in hardware (OCC or locking, speculative or not) or by the
//! software mechanisms (per-CL versions, checksums) — returns bytes equal
//! to a single committed snapshot of the object, under racing writers.
//!
//! Writers store recognizable patterns ([`pattern_payload`]); a read is a
//! consistent snapshot iff [`verify_payload`] accepts it. The readers are
//! the shipped `Reader` every figure builds through [`spec`], and a
//! [`ReadChecker`] observes every read it reports successful
//! ([`WorkloadSpec::observe`]), so a torn read that slips past an
//! atomicity mechanism, or past the reader's handling of it, is counted
//! in the [`Ledger`]. Aborts, failovers and refusals are the reader's own
//! [`CoreMetrics`](sabres::rack::CoreMetrics) counts.
//!
//! Four layers of adversity:
//!
//! * the paper-shaped two-node races ([`race`]), one per mechanism/mode;
//! * the multi-node **torture sweep**: 64 seeded schedules across 2–8-node
//!   racks, rotating through every read mechanism — OCC, no-speculation, destination
//!   locking, per-CL versions, the wait-free register, and Oh-RAM — with
//!   seed-derived payloads, writer partitions and placements, plus a
//!   raw-read control proving the same schedules do tear without a
//!   mechanism;
//! * the **kill-a-node quadrant**: the same racing writers replayed per
//!   replica of a [`ReplicatedStore`] while a [`FaultPlan`] crashes one
//!   replica site mid-run — readers fail over on a timeout and the
//!   invariant must hold on every image any surviving replica serves;
//! * the **kill-a-leaf quadrant**: a whole fat-tree leaf — two of the
//!   three replica sites, recovering writers and all — dies mid-run,
//!   so the restored images genuinely miss the outage window's updates
//!   and must catch up over the fabric. On top of the no-torn-read
//!   invariant, the ledger checks the epoch/seq guard's *freshness* claim:
//!   a restored replica never serves pre-outage data after the guard drops.
//!
//! One schedule per mechanism of the torture, kill-a-node and kill-a-leaf
//! layers is also replayed at every cluster execution setting
//! ([`Exec::ALL`]): how nodes map onto event-loop shards and worker
//! threads must not move a single conflict, abort, failover or refusal.

mod common;

use std::collections::HashMap;

use common::{assert_execution_invariant, Exec, Freshness, Ledger, ReadChecker};
use sabres::prelude::*;
use sabres::rack::CoreMetrics;

/// A reader of `store`'s objects under `mech`, reporting to `checker`.
fn checked_reader(checker: &ReadChecker, mech: ReadMechanism, store: &ObjectStore) -> WorkloadSpec {
    checker.attach(
        spec()
            .store(store.node() as usize)
            .payload(store.payload())
            .mechanism(mech)
            .objects(store.object_addrs())
            // The transfer footprint, not the in-memory spacing: the
            // wait-free register stores four version slots but ships only
            // the published one.
            .wire(store.wire_bytes() as u32),
    )
}

/// Runs four checked readers against continuous writers for 120 us of
/// simulated time and returns what they read and the rack's metrics.
fn race(
    mech: ReadMechanism,
    layout: StoreLayout,
    cc_mode: CcMode,
    spec_mode: SpecMode,
    payload: u32,
    seed: u64,
) -> (Ledger, CoreMetrics) {
    let (scenario, store) = ScenarioBuilder::new()
        .configure(|cfg| {
            cfg.lightsabres.cc_mode = cc_mode;
            cfg.lightsabres.spec_mode = spec_mode;
        })
        .seed(seed)
        .warmed_store(1, layout, payload, Some(24));
    let checker = ReadChecker::new(mech, payload);
    let mut scenario = scenario.readers_spec(0, 0..4, checked_reader(&checker, mech, &store));
    // Aggressive writers over small CREW subsets maximize conflicts.
    let entries = store.object_entries();
    for (w, chunk) in entries.chunks(6).enumerate() {
        let writer = Writer::new(chunk.to_vec(), payload, layout, Time::ZERO);
        scenario = scenario.workload(1, w, Box::new(writer));
    }
    let report = scenario.run_for(Time::from_us(120));
    (checker.ledger(), report.rack().metrics)
}

fn assert_sound(mech: ReadMechanism, (o, m): &(Ledger, CoreMetrics)) {
    assert_eq!(
        o.torn, 0,
        "{mech:?}: {} torn objects delivered as atomic (of {} verified, {} aborts)",
        o.torn, o.verified, m.retries
    );
    assert!(o.verified > 50, "{mech:?}: too few successes: {o:?}");
    assert!(
        m.retries > 0,
        "{mech:?}: no conflicts at all — the race harness is not racing: {o:?}"
    );
}

#[test]
fn sabre_occ_speculative_reads_are_never_torn() {
    for seed in [1, 2, 3] {
        let o = race(
            ReadMechanism::Sabre,
            StoreLayout::Clean,
            CcMode::Occ,
            SpecMode::Speculative,
            480,
            seed,
        );
        assert_sound(ReadMechanism::Sabre, &o);
    }
}

#[test]
fn sabre_occ_no_speculation_reads_are_never_torn() {
    let o = race(
        ReadMechanism::Sabre,
        StoreLayout::Clean,
        CcMode::Occ,
        SpecMode::ReadVersionFirst,
        480,
        7,
    );
    assert_sound(ReadMechanism::Sabre, &o);
}

#[test]
fn sabre_destination_locking_reads_are_never_torn() {
    let (o, _) = race(
        ReadMechanism::Sabre,
        StoreLayout::Clean,
        CcMode::Locking,
        SpecMode::Speculative,
        480,
        11,
    );
    assert_eq!(o.torn, 0, "locking mode delivered torn objects: {o:?}");
    assert!(o.verified > 50, "too few successes: {o:?}");
}

#[test]
fn sabre_large_objects_are_never_torn() {
    let o = race(
        ReadMechanism::Sabre,
        StoreLayout::Clean,
        CcMode::Occ,
        SpecMode::Speculative,
        4000,
        13,
    );
    assert_sound(ReadMechanism::Sabre, &o);
}

#[test]
fn percl_validated_reads_are_never_torn() {
    for seed in [1, 5] {
        let o = race(
            ReadMechanism::PerClValidate { payload: 480 },
            StoreLayout::PerCl,
            CcMode::Occ,
            SpecMode::Speculative,
            480,
            seed,
        );
        assert_sound(ReadMechanism::PerClValidate { payload: 480 }, &o);
    }
}

#[test]
fn raw_reads_do_tear_under_conflict() {
    // The control experiment: with no atomicity mechanism, the same racing
    // harness must produce torn reads — otherwise the other tests prove
    // nothing.
    let (scenario, store) =
        ScenarioBuilder::new()
            .seed(99)
            .warmed_store(1, StoreLayout::Clean, 480, Some(8));
    let checker = ReadChecker::new(ReadMechanism::Raw, 480);
    let reader = checked_reader(&checker, ReadMechanism::Raw, &store);
    let mut scenario = scenario.readers_spec(0, 0..4, reader);
    for (w, chunk) in store.object_entries().chunks(2).enumerate() {
        scenario = scenario.workload(
            1,
            w,
            Box::new(Writer::new(
                chunk.to_vec(),
                480,
                StoreLayout::Clean,
                Time::ZERO,
            )),
        );
    }
    scenario.run_for(Time::from_us(120));
    assert!(
        checker.ledger().torn > 0,
        "raw reads never tore — the harness is not generating real races"
    );
}

// ---------------------------------------------------------------------
// The multi-node torture sweep
// ---------------------------------------------------------------------

/// The read mechanisms the sweep rotates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TortureMech {
    /// Destination OCC, speculative (the paper's configuration).
    Occ,
    /// Destination OCC, serialized version read first.
    NoSpec,
    /// Destination locking (shared reader locks).
    Locking,
    /// FaRM per-cache-line versions validated on the reader CPU.
    PerCl,
    /// The wait-free multi-version register (server-side slot capture).
    WfRegister,
    /// Oh-RAM's one-and-a-half-round read (server-side clean capture).
    OhRam,
}

impl TortureMech {
    const ALL: [TortureMech; 6] = [
        TortureMech::Occ,
        TortureMech::NoSpec,
        TortureMech::Locking,
        TortureMech::PerCl,
        TortureMech::WfRegister,
        TortureMech::OhRam,
    ];

    /// Whether readers of this mechanism never abort by construction: the
    /// server-side captures resolve every conflict before replying, so
    /// the client-visible abort count must be exactly zero — the inverse
    /// of the "did it race" check the abort-based mechanisms get.
    fn is_abort_free(self) -> bool {
        matches!(self, TortureMech::WfRegister | TortureMech::OhRam)
    }

    /// The mechanism's full configuration: reader mechanism, store layout,
    /// engine concurrency-control and speculation modes.
    fn setup(self, payload: u32) -> (ReadMechanism, StoreLayout, CcMode, SpecMode) {
        match self {
            TortureMech::Occ => (
                ReadMechanism::Sabre,
                StoreLayout::Clean,
                CcMode::Occ,
                SpecMode::Speculative,
            ),
            TortureMech::NoSpec => (
                ReadMechanism::Sabre,
                StoreLayout::Clean,
                CcMode::Occ,
                SpecMode::ReadVersionFirst,
            ),
            TortureMech::Locking => (
                ReadMechanism::Sabre,
                StoreLayout::Clean,
                CcMode::Locking,
                SpecMode::Speculative,
            ),
            TortureMech::PerCl => (
                ReadMechanism::PerClValidate { payload },
                StoreLayout::PerCl,
                CcMode::Occ,
                SpecMode::Speculative,
            ),
            TortureMech::WfRegister => (
                ReadMechanism::WfRegister { payload },
                StoreLayout::WfRegister,
                CcMode::Occ,
                SpecMode::Speculative,
            ),
            TortureMech::OhRam => (
                ReadMechanism::OhRam { payload },
                StoreLayout::Clean,
                CcMode::Occ,
                SpecMode::Speculative,
            ),
        }
    }
}

/// One seed-derived adversarial schedule on an N-node rack: every store
/// node hosts a shard with hot writers partitioned over its cores, every
/// reader node runs two checked readers against its round-robin shard,
/// and the cluster runs at `exec`. Payload size and writer partitioning
/// vary with the seed so the sweep explores genuinely different
/// schedules, not one schedule with different RNG.
fn torture_race(tm: TortureMech, nodes: usize, seed: u64, exec: Exec) -> (Ledger, CoreMetrics) {
    let payload = [208u32, 480, 1008][(seed % 3) as usize];
    let (mech, layout, cc_mode, spec_mode) = tm.setup(payload);
    let builder = ScenarioBuilder::new()
        .configure(move |cfg| {
            cfg.lightsabres.cc_mode = cc_mode;
            cfg.lightsabres.spec_mode = spec_mode;
        })
        .seed(seed)
        .nodes(nodes)
        .configure(|cfg| exec.apply(cfg));
    let topo = builder.config().topology.clone();
    let (mut scenario, shards) = builder.sharded_store(topo.store_nodes(), layout, payload, 12);
    let checker = ReadChecker::new(mech, payload);
    for (i, &rnode) in topo.reader_nodes().iter().enumerate() {
        let reader = checked_reader(&checker, mech, &shards[i % shards.len()]);
        scenario = scenario.readers_spec(rnode, 0..2, reader);
    }
    // Seed-derived writer partitioning: smaller chunks = more writers =
    // more simultaneous in-flight updates per shard.
    let chunk = [3usize, 4, 6][((seed / 3) % 3) as usize];
    for shard in &shards {
        for (w, entries) in shard.object_entries().chunks(chunk).enumerate() {
            let writer = Writer::new(entries.to_vec(), payload, layout, Time::ZERO);
            scenario = scenario.workload(shard.node() as usize, w, Box::new(writer));
        }
    }
    let report = scenario.run_for(Time::from_us(30));
    (checker.ledger(), report.rack().metrics)
}

/// Per mechanism: the reads verified and the merged metrics over its
/// schedules.
type PerMech = HashMap<TortureMech, (u64, CoreMetrics)>;

fn tally(per_mech: &mut PerMech, tm: TortureMech, o: &Ledger, m: &CoreMetrics) {
    let (verified, metrics) = per_mech.entry(tm).or_default();
    *verified += o.verified;
    metrics.merge(m);
}

#[test]
fn torture_no_sabre_mechanism_ever_tears_across_rack_sizes() {
    // 64 seeded schedules, node counts cycling 2..=8, mechanisms rotating
    // so each of the six gets 10+ genuinely different schedules.
    let results = Sweep::over(0u64..64).map(|&seed| {
        let nodes = 2 + (seed as usize % 7);
        let tm = TortureMech::ALL[(seed % 6) as usize];
        (tm, nodes, seed, torture_race(tm, nodes, seed, Exec::SERIAL))
    });
    let mut per_mech = PerMech::new();
    for (tm, nodes, seed, (o, m)) in &results {
        assert_eq!(
            o.torn, 0,
            "{tm:?} on {nodes} nodes (seed {seed}): {} torn objects delivered as atomic \
             (of {} verified, {} aborts)",
            o.torn, o.verified, m.retries
        );
        assert!(
            o.verified > 20,
            "{tm:?} on {nodes} nodes (seed {seed}): too few successes: {o:?}"
        );
        tally(&mut per_mech, *tm, o, m);
    }
    for tm in TortureMech::ALL {
        let (verified, m) = &per_mech[&tm];
        if tm.is_abort_free() {
            assert_eq!(
                m.retries, 0,
                "{tm:?}: aborted despite being wait-free by construction ({verified} verified)"
            );
        } else {
            assert!(
                m.retries > 0,
                "{tm:?}: no conflicts in any of its schedules — the torture \
                 harness is not racing ({verified} verified)"
            );
        }
    }
}

#[test]
fn torture_outcomes_are_thread_invariant_on_the_eight_node_rack() {
    // One 8-node torture schedule per mechanism, replayed at every
    // execution setting: the adversarial interleavings — every conflict
    // and abort included — must be untouched by how nodes map onto shards
    // and shards onto OS threads.
    for (tm, seed) in [
        (TortureMech::Occ, 8u64),
        (TortureMech::NoSpec, 9),
        (TortureMech::Locking, 10),
        (TortureMech::PerCl, 11),
        (TortureMech::WfRegister, 16),
        (TortureMech::OhRam, 17),
    ] {
        let serial = assert_execution_invariant(&format!("{tm:?} (seed {seed})"), |exec| {
            torture_race(tm, 8, seed, exec)
        });
        assert!(
            serial.0.verified > 0,
            "{tm:?} (seed {seed}): no progress in the serial run"
        );
    }
}

/// One seed-derived adversarial schedule on the fat-tree quadrant of the
/// torture space: an 8-node 1:3 skewed rack
/// ([`Topology::skewed`]`(2, 3)`) on a 4:1 oversubscribed leaf/spine
/// fabric, readers pinned to shards by [`PlacementPolicy::NearestShard`].
/// `mech` [`None`] runs the raw-read control.
fn fat_tree_nearest_race(tm: Option<TortureMech>, seed: u64) -> (Ledger, CoreMetrics) {
    let payload = [208u32, 480, 1008][(seed % 3) as usize];
    let (mech, layout, cc_mode, spec_mode) = match tm {
        Some(tm) => tm.setup(payload),
        None => (
            ReadMechanism::Raw,
            StoreLayout::Clean,
            CcMode::Occ,
            SpecMode::Speculative,
        ),
    };
    let builder = ScenarioBuilder::new()
        .configure(move |cfg| {
            cfg.lightsabres.cc_mode = cc_mode;
            cfg.lightsabres.spec_mode = spec_mode;
        })
        .seed(seed)
        .topology(Topology::skewed(2, 3).with_placement(PlacementPolicy::NearestShard))
        .fat_tree(4, 4);
    let cfg = builder.config().clone();
    let topo = cfg.topology.clone();
    let store_nodes = topo.store_nodes();
    let (mut scenario, shards) = builder.sharded_store(store_nodes.clone(), layout, payload, 12);
    let checker = ReadChecker::new(mech, payload);
    for (i, &rnode) in topo.reader_nodes().iter().enumerate() {
        // NearestShard keeps each reader cohort on its own leaf's shard.
        let store = cfg.store_for_reader(i);
        let shard_pos = store_nodes
            .iter()
            .position(|&s| s == store)
            .expect("placement returns a store node");
        let reader = checked_reader(&checker, mech, &shards[shard_pos]);
        scenario = scenario.readers_spec(rnode, 0..2, reader);
    }
    let chunk = [3usize, 4, 6][((seed / 3) % 3) as usize];
    for shard in &shards {
        for (w, entries) in shard.object_entries().chunks(chunk).enumerate() {
            let writer = Writer::new(entries.to_vec(), payload, layout, Time::ZERO);
            scenario = scenario.workload(shard.node() as usize, w, Box::new(writer));
        }
    }
    let report = scenario.run_for(Time::from_us(30));
    (checker.ledger(), report.rack().metrics)
}

#[test]
fn torture_fat_tree_nearest_shard_mechanisms_never_tear() {
    // The fat-tree quadrant: every SABRes-family mechanism gets two
    // seed-derived schedules on the skewed, oversubscribed, placement-
    // aware rack; none may deliver a torn object as atomic.
    let mut aborts = 0u64;
    for (i, tm) in TortureMech::ALL.iter().enumerate() {
        for seed in [i as u64, i as u64 + 4] {
            let (o, m) = fat_tree_nearest_race(Some(*tm), seed);
            assert_eq!(
                o.torn, 0,
                "{tm:?} on the 4:1 fat tree (seed {seed}): {} torn objects delivered \
                 as atomic (of {} verified, {} aborts)",
                o.torn, o.verified, m.retries
            );
            assert!(
                o.verified > 20,
                "{tm:?} on the 4:1 fat tree (seed {seed}): too few successes: {o:?}"
            );
            aborts += m.retries;
        }
    }
    assert!(
        aborts > 0,
        "no conflicts in any fat-tree schedule — the quadrant is not racing"
    );
}

#[test]
fn torture_fat_tree_nearest_shard_raw_control_tears() {
    // The control: the same fat-tree + NearestShard schedules with the
    // mechanism stripped out must produce torn reads, or the quadrant
    // above proves nothing.
    let torn: u64 = (0..4u64)
        .map(|seed| fat_tree_nearest_race(None, seed).0.torn)
        .sum();
    assert!(
        torn > 0,
        "raw reads never tore on the fat-tree quadrant — it is not generating real races"
    );
}

#[test]
fn torture_raw_reads_still_tear_on_every_rack_size() {
    // The control: the same seed-derived schedules, mechanism stripped
    // out. Aggregated per node count so torn reads must show up at every
    // rack size, not just the paper pair.
    for nodes in [2usize, 5, 8] {
        let mut torn = 0u64;
        for seed in 0..4u64 {
            let payload = [208u32, 480, 1008][(seed % 3) as usize];
            let builder = ScenarioBuilder::new().seed(seed).nodes(nodes);
            let topo = builder.config().topology.clone();
            let (mut scenario, shards) =
                builder.sharded_store(topo.store_nodes(), StoreLayout::Clean, payload, 8);
            let checker = ReadChecker::new(ReadMechanism::Raw, payload);
            for (i, &rnode) in topo.reader_nodes().iter().enumerate() {
                let store = &shards[i % shards.len()];
                let reader = checked_reader(&checker, ReadMechanism::Raw, store);
                scenario = scenario.readers_spec(rnode, 0..2, reader);
            }
            for shard in &shards {
                for (w, entries) in shard.object_entries().chunks(2).enumerate() {
                    scenario = scenario.workload(
                        shard.node() as usize,
                        w,
                        Box::new(Writer::new(
                            entries.to_vec(),
                            payload,
                            StoreLayout::Clean,
                            Time::ZERO,
                        )),
                    );
                }
            }
            scenario.run_for(Time::from_us(30));
            torn += checker.ledger().torn;
        }
        assert!(
            torn > 0,
            "raw reads never tore on a {nodes}-node rack — the torture \
             schedules are not generating real races there"
        );
    }
}

// ---------------------------------------------------------------------
// The kill-a-node quadrant
// ---------------------------------------------------------------------

/// Failover timer of the crash quadrant's readers: comfortably above any
/// healthy transfer latency, so only reads lost to the outage trip it.
const CRASH_TIMEOUT: Time = Time::from_us(10);

/// Replication factor of the crash quadrant, capped by the rack's store
/// count (the 2-node rack replays the schedules with a single replica:
/// no survivor to fail over to, but still never a torn read).
const CRASH_REPLICATION: usize = 3;

/// A checked reader of `store`'s replicas under `mech`: the shipped
/// reader's static round-robin failover, starting its rotation at replica
/// `start`. Each operation goes to the next replica; an attempt still
/// unanswered after [`CRASH_TIMEOUT`], or refused by a catching-up
/// replica's epoch/seq guard, is re-issued at the next one.
fn replicated_reader(
    checker: &ReadChecker,
    mech: ReadMechanism,
    store: &ReplicatedStore,
    start: usize,
) -> WorkloadSpec {
    let mut replicas: Vec<(usize, Vec<Addr>)> = store
        .replicas()
        .iter()
        .map(|r| (r.node() as usize, r.object_addrs()))
        .collect();
    replicas.rotate_left(start);
    let wire = store.replicas()[0].wire_bytes() as u32;
    checker.attach(
        spec()
            .replicas(replicas)
            .payload(store.payload())
            .mechanism(mech)
            .wire(wire)
            .failover_timeout(CRASH_TIMEOUT)
            .migrate(false),
    )
}

/// One seed-derived kill-a-node schedule: the torture harness's racing
/// writers, replayed identically per replica of a [`ReplicatedStore`],
/// while the fault plan crashes the first replica site for the middle
/// third of the run. Readers rotate replicas per operation and fail over
/// on [`CRASH_TIMEOUT`]; `tm` [`None`] runs the raw-read control. The
/// cluster runs at `exec`.
fn crash_race(
    tm: Option<TortureMech>,
    nodes: usize,
    seed: u64,
    exec: Exec,
) -> (Ledger, CoreMetrics) {
    let payload = [208u32, 480, 1008][(seed % 3) as usize];
    let (mech, layout, cc_mode, spec_mode) = match tm {
        Some(tm) => tm.setup(payload),
        None => (
            ReadMechanism::Raw,
            StoreLayout::Clean,
            CcMode::Occ,
            SpecMode::Speculative,
        ),
    };
    let builder = ScenarioBuilder::new()
        .configure(move |cfg| {
            cfg.lightsabres.cc_mode = cc_mode;
            cfg.lightsabres.spec_mode = spec_mode;
        })
        .seed(seed)
        .nodes(nodes)
        .configure(|cfg| exec.apply(cfg));
    let topo = builder.config().topology.clone();
    let rack = builder.config().fabric.topology;
    let store_nodes = topo.store_nodes();
    let k = CRASH_REPLICATION.min(store_nodes.len());
    let sites = replica_sites(&store_nodes, k, rack);
    let builder = builder.fault(FaultPlan::new().crash_restore(
        sites[0],
        Time::from_us(10),
        Time::from_us(20),
    ));
    let (mut scenario, store) = builder.replicated_store(&sites, layout, payload, 12);
    let checker = ReadChecker::new(mech, payload);
    for (i, &rnode) in topo.reader_nodes().iter().enumerate() {
        for core in 0..2 {
            let reader = replicated_reader(&checker, mech, &store, (2 * i + core) % k);
            scenario = scenario.reader_spec(rnode, core, reader);
        }
    }
    // Identical writer partitions per site: each replica replays the same
    // deterministic update schedule, so every replica is independently
    // consistent and a reader may verify whichever one serves it.
    let chunk = [3usize, 4, 6][((seed / 3) % 3) as usize];
    for replica in store.replicas() {
        for (w, entries) in replica.object_entries().chunks(chunk).enumerate() {
            let writer = Writer::new(entries.to_vec(), payload, layout, Time::ZERO);
            scenario = scenario.workload(replica.node() as usize, w, Box::new(writer));
        }
    }
    let report = scenario.run_for(Time::from_us(30));
    (checker.ledger(), report.rack().metrics)
}

#[test]
fn torture_kill_a_node_never_tears_on_surviving_replicas() {
    // 32 seeded kill-a-node schedules, node counts cycling 2..=8,
    // mechanisms rotating so each of the six gets 5+ genuinely different
    // crash schedules. No mechanism may deliver a torn image as atomic —
    // before, during, or after the outage, from any replica.
    let results = Sweep::over(0u64..32).map(|&seed| {
        let nodes = 2 + (seed as usize % 7);
        let tm = TortureMech::ALL[(seed % 6) as usize];
        (
            tm,
            nodes,
            seed,
            crash_race(Some(tm), nodes, seed, Exec::SERIAL),
        )
    });
    let mut per_mech = PerMech::new();
    for (tm, nodes, seed, (o, m)) in &results {
        assert_eq!(
            o.torn, 0,
            "{tm:?} on {nodes} nodes with a crash (seed {seed}): {} torn objects \
             delivered as atomic (of {} verified, {} aborts, {} failovers)",
            o.torn, o.verified, m.retries, m.failovers
        );
        assert!(
            o.verified > 10,
            "{tm:?} on {nodes} nodes with a crash (seed {seed}): too few successes: {o:?}"
        );
        tally(&mut per_mech, *tm, o, m);
    }
    for tm in TortureMech::ALL {
        let (verified, m) = &per_mech[&tm];
        if tm.is_abort_free() {
            assert_eq!(
                m.retries, 0,
                "{tm:?}: aborted despite being wait-free by construction ({verified} verified)"
            );
        } else {
            assert!(
                m.retries > 0,
                "{tm:?}: no conflicts in any of its crash schedules — the \
                 quadrant is not racing ({verified} verified)"
            );
        }
        assert!(
            m.failovers > 0,
            "{tm:?}: no failovers in any of its crash schedules — the crash \
             never bit ({verified} verified)"
        );
    }
}

#[test]
fn torture_kill_a_node_raw_control_still_tears() {
    // The control: the same crash schedules with the mechanism stripped
    // out must produce torn reads, or the quadrant above proves nothing.
    let mut torn = 0u64;
    let mut failovers = 0u64;
    for seed in 0..4u64 {
        let (o, m) = crash_race(None, 8, seed, Exec::SERIAL);
        torn += o.torn;
        failovers += m.failovers;
    }
    assert!(
        torn > 0,
        "raw reads never tore on the kill-a-node quadrant — it is not \
         generating real races"
    );
    assert!(
        failovers > 0,
        "the raw control never failed over — the crash never bit"
    );
}

#[test]
fn torture_kill_a_node_outcomes_are_thread_invariant() {
    // A crash-laden 8-node schedule per mechanism, replayed at every
    // execution setting: the outage, every failover, and every conflict
    // must be untouched by how nodes map onto shards and threads.
    for (tm, seed) in [
        (TortureMech::Occ, 12u64),
        (TortureMech::NoSpec, 13),
        (TortureMech::Locking, 14),
        (TortureMech::PerCl, 15),
        (TortureMech::WfRegister, 18),
        (TortureMech::OhRam, 19),
    ] {
        let serial = assert_execution_invariant(&format!("{tm:?} (seed {seed})"), |exec| {
            crash_race(Some(tm), 8, seed, exec)
        });
        assert!(
            serial.0.verified > 0,
            "{tm:?} (seed {seed}): no progress in the serial run"
        );
    }
}

// ---------------------------------------------------------------------
// The kill-a-leaf quadrant
// ---------------------------------------------------------------------

/// When leaf 2 dies and comes back (whole-machine semantics: its writers
/// freeze, its images go stale).
const LEAF_FROM: Time = Time::from_us(10);
const LEAF_UNTIL: Time = Time::from_us(30);

/// Objects per replica — few enough that every object's pattern seq
/// advances far past any residual catch-up lag during the outage, so the
/// freshness check has real teeth.
const LEAF_OBJECTS: u64 = 4;

/// One seed-derived kill-a-leaf schedule on the 8-node radix-2 fat tree:
/// replica sites `[4, 6, 5]`, so the leaf-2 outage takes down two of the
/// three *together* — writers and all. Each site runs a
/// recovering [`Writer`] maintaining a [`WriteLog`]; on restoration the
/// stale siblings bounce off each other's catch-up guards onto the
/// surviving site 6, pull its log over the fabric, and replay the missed
/// range. Readers rotate replicas, fail over on [`CRASH_TIMEOUT`], retry
/// guard refusals at the next replica, and hold two invariants at once:
/// never a torn image (as everywhere), and never pre-outage data from a
/// restored site once its guard drops ([`Freshness`]). The cluster runs
/// at `exec`.
fn leaf_race(tm: TortureMech, seed: u64, exec: Exec) -> (Ledger, Totals) {
    let payload = [208u32, 480, 1008][(seed % 3) as usize];
    let (mech, layout, cc_mode, spec_mode) = tm.setup(payload);
    let builder = ScenarioBuilder::new()
        .configure(move |cfg| {
            cfg.lightsabres.cc_mode = cc_mode;
            cfg.lightsabres.spec_mode = spec_mode;
        })
        .seed(seed)
        .nodes(8)
        .fat_tree(2, 2)
        .configure(|cfg| exec.apply(cfg));
    let topo = builder.config().topology.clone();
    let rack = builder.config().fabric.topology;
    let sites = replica_sites(&topo.store_nodes(), CRASH_REPLICATION, rack);
    assert_eq!(sites, vec![4, 6, 5], "leaf-spread placement changed");
    let builder = builder.fault(FaultPlan::new().leaf_outage(rack, 2, LEAF_FROM, LEAF_UNTIL));
    let (mut scenario, store) = builder.replicated_store(&sites, layout, payload, LEAF_OBJECTS);
    // Radix-2 leaves cover node pairs: leaf 2 = {4, 5}.
    let restored: Vec<usize> = sites.iter().copied().filter(|&s| s / 2 == 2).collect();
    assert_eq!(restored.len(), 2, "the outage must hit two replica sites");
    let checker = ReadChecker::new(mech, payload).with_freshness(Freshness {
        restored,
        from: LEAF_FROM,
        until: LEAF_UNTIL,
    });
    for (i, &rnode) in topo.reader_nodes().iter().enumerate() {
        for core in 0..2 {
            let reader = replicated_reader(&checker, mech, &store, (2 * i + core) % sites.len());
            scenario = scenario.reader_spec(rnode, core, reader);
        }
    }
    let log = WriteLog::new(Addr::new(1 << 20), 2048);
    for &site in &sites {
        let peers: Vec<u8> = sites
            .iter()
            .filter(|&&p| p != site)
            .map(|&p| p as u8)
            .collect();
        let writer = Writer::new(
            store.object_entries(),
            payload,
            layout,
            // Replay runs think-free, so a positive think pause is the
            // convergence margin (see the recovery module docs).
            Time::from_ns(500),
        )
        .recovering(
            log,
            peers,
            Addr::new(2 << 20),
            // Above the lag floor of the largest (1008 B) payload, so
            // every schedule's guard provably drops before the horizon —
            // the freshness check needs post-catch-up completions.
            16,
        );
        scenario = scenario.workload(site, 0, Box::new(writer));
    }
    let report = scenario.run_for(Time::from_us(55));
    (checker.ledger(), report.rack())
}

#[test]
fn torture_kill_a_leaf_catch_up_never_serves_stale_or_torn_reads() {
    // 32 seeded kill-a-leaf schedules, mechanisms rotating so each of the
    // six gets 5+ genuinely different correlated-outage schedules. Per
    // schedule: no torn image, no pre-outage data from a restored site
    // after its guard drops, and the recovery machinery demonstrably ran
    // (both restored sites pulled, bounced off their equally-stale
    // sibling, and replayed missed updates).
    let results = Sweep::over(0u64..32).map(|&seed| {
        let tm = TortureMech::ALL[(seed % 6) as usize];
        (tm, seed, leaf_race(tm, seed, Exec::SERIAL))
    });
    let mut per_mech = PerMech::new();
    for (tm, seed, (o, rack)) in &results {
        let (m, r) = (&rack.metrics, &rack.r2p2);
        assert_eq!(
            o.torn, 0,
            "{tm:?} under a leaf outage (seed {seed}): {} torn objects delivered \
             as atomic (of {} verified, {} aborts, {} failovers, {} refusals)",
            o.torn, o.verified, m.retries, m.failovers, m.stale_refusals
        );
        assert_eq!(
            o.stale_post, 0,
            "{tm:?} under a leaf outage (seed {seed}): a restored replica served \
             pre-outage data after catch-up: {o:?}"
        );
        assert!(
            o.verified > 10,
            "{tm:?} under a leaf outage (seed {seed}): too few successes: {o:?}"
        );
        assert!(
            r.catch_up_pulls >= 2,
            "{tm:?} (seed {seed}): the restored sites never pulled a peer log: {r:?}"
        );
        assert!(
            r.catch_up_refused > 0,
            "{tm:?} (seed {seed}): the equally-stale siblings never bounced: {r:?}"
        );
        assert!(
            m.replays_applied > 0,
            "{tm:?} (seed {seed}): catch-up replayed nothing: {m:?}"
        );
        assert!(
            m.catch_up_ns > 0,
            "{tm:?} (seed {seed}): no staleness window ever closed — the \
             guard never dropped, so the freshness check saw nothing: {m:?}"
        );
        tally(&mut per_mech, *tm, o, m);
    }
    for tm in TortureMech::ALL {
        let (verified, m) = &per_mech[&tm];
        if tm.is_abort_free() {
            assert_eq!(
                m.retries, 0,
                "{tm:?}: aborted despite being wait-free by construction \
                 (guard refusals must not count as aborts; {verified} verified)"
            );
        }
        assert!(
            m.failovers > 0,
            "{tm:?}: no failovers in any of its leaf schedules — the outage \
             never bit ({verified} verified)"
        );
        assert!(
            m.stale_refusals > 0,
            "{tm:?}: no reader ever met a catch-up guard — the staleness \
             window went unobserved ({verified} verified)"
        );
    }
}

#[test]
fn torture_kill_a_leaf_outcomes_are_thread_invariant() {
    // A recovery-laden schedule per engine mode (plus a wait-free one),
    // replayed at every execution setting: the outage, the sibling
    // bounces, every replay and every refusal must be untouched by how
    // nodes map onto shards and threads — including the shared freshness
    // oracle, whose max-merge updates are commutative by construction.
    for (tm, seed) in [
        (TortureMech::Occ, 20u64),
        (TortureMech::Locking, 21),
        (TortureMech::WfRegister, 22),
    ] {
        let serial = assert_execution_invariant(&format!("{tm:?} (seed {seed})"), |exec| {
            leaf_race(tm, seed, exec)
        });
        assert!(
            serial.0.verified > 0,
            "{tm:?} (seed {seed}): no progress in the serial run"
        );
    }
}
