//! The host pays memory only for simulated state.
//!
//! A counting global allocator checks two footprints in sequence:
//!
//! 1. Building a 256-node datacenter (16 cores and 1 MiB of memory per
//!    node) and resetting its metrics requests no more than each node's
//!    simulated memory, its LLC tag array and 32 KiB of engine, pipeline
//!    and per-core state. Nothing shadows the memory per block, and a
//!    core that never records a latency holds no histogram buckets.
//! 2. A warm window of an 8-node rack whose store nodes each run four
//!    zero-think CREW writers, beside readers issuing plain remote reads,
//!    allocates at most once per 10,000 handled events: a writer reads its
//!    version and reader-lock words without touching the heap. The same
//!    holds with per-CL objects read by per-CL validating readers: the
//!    strip checks the image where it landed, without copying it.
//! 3. Three replica sites run recovering writers while one site crashes
//!    and restores twice. Over the second outage and its catch-up (a warm
//!    window: the first outage already ran one) the rack allocates at
//!    most once per 10,000 handled events: a replay reads the pulled
//!    record's words and a pull reads the head word, with no copy of the
//!    log region.
//! 4. The site then crashes a third time while the peer that served both
//!    catch-ups is down too, so this catch-up pulls from the third site,
//!    whose request pipelines have served plain reads but no pull. It
//!    allocates nothing beyond `run_for`'s own task list: a pulled region
//!    waits in a pipeline's work queue as one entry, not one per block.
//!
//! This binary holds a single test so no other test allocates while the
//! footprints are measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sabre_mem::{Addr, BLOCK_BYTES};
use sabre_rack::workloads::{WriteLog, Writer};
use sabre_rack::{spec, Arrivals, Cluster, FaultPlan, ReadMechanism, ScenarioBuilder, StoreLayout};
use sabre_sim::Time;

/// Counts every allocation and reallocation, and the bytes each one
/// requests, then defers to the system allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PAYLOAD: u32 = 1024;
const OBJECTS: u64 = 128;
const WRITERS_PER_STORE: usize = 4;

/// Bytes `Cluster::new` plus `reset_metrics` request per node of a
/// 256-node, 16-core datacenter with 1 MiB of memory per node, and the
/// budget: that memory, the LLC tag array and 32 KiB.
fn datacenter_bytes_per_node() -> (u64, u64) {
    let mut cfg = ScenarioBuilder::new()
        .seed(1)
        .nodes(256)
        .datacenter(4, 8, 2)
        .config()
        .clone();
    cfg.memory_bytes = 1024 * 1024;
    assert_eq!(cfg.cores_per_node, 16);
    let tag_bytes = cfg.llc_bytes / BLOCK_BYTES * std::mem::size_of::<u64>();
    let budget = (cfg.memory_bytes + tag_bytes + 32 * 1024) as u64;
    let nodes = cfg.nodes as u64;

    let before = BYTES.load(Ordering::Relaxed);
    let mut cluster = Cluster::new(cfg);
    cluster.reset_metrics();
    let requested = BYTES.load(Ordering::Relaxed) - before;
    drop(cluster);
    (requested / nodes, budget)
}

/// The 8-node rack: four zero-think writers updating each store node's
/// `layout` objects round-robin, and two Poisson reader cores per reader
/// node reading those objects under `mech`.
fn writer_rack(layout: StoreLayout, mech: ReadMechanism) -> (Cluster, Vec<(usize, Vec<Addr>)>) {
    let cfg = ScenarioBuilder::new().seed(1).nodes(8).config().clone();
    let readers = cfg.topology.reader_nodes();
    let stores = cfg.topology.store_nodes();
    let slot = layout.object_bytes(PAYLOAD as usize) as u64;
    let objects: Vec<Addr> = (0..OBJECTS).map(|i| Addr::new(i * slot)).collect();
    let entries: Vec<(u64, Addr)> = objects
        .iter()
        .copied()
        .enumerate()
        .map(|(i, a)| (i as u64, a))
        .collect();
    let mut cluster = Cluster::new(cfg);
    for &store in &stores {
        for (core, mine) in entries
            .chunks(entries.len() / WRITERS_PER_STORE)
            .enumerate()
        {
            let writer = Writer::new(mine.to_vec(), PAYLOAD, layout, Time::ZERO);
            cluster.add_workload(store, core, Box::new(writer));
        }
    }
    for (&reader, &store) in readers.iter().zip(&stores) {
        for core in 0..2 {
            let program = spec()
                .store(store)
                .payload(PAYLOAD)
                .mechanism(mech)
                .wire(layout.wire_bytes(PAYLOAD as usize) as u32)
                .objects(objects.clone())
                .arrivals(Arrivals::Poisson { ops_per_us: 0.8 })
                .build(&objects);
            cluster.add_workload(reader, core, program);
        }
    }
    let stored = stores.into_iter().map(|s| (s, objects.clone())).collect();
    (cluster, stored)
}

/// Replica sites of the recovering rack and the `[from, until)` windows
/// (µs) over which the first one is down.
const SITES: [usize; 3] = [4, 5, 6];
const OUTAGES: [(u64, u64); 3] = [(20, 60), (100, 140), (220, 260)];

/// When (µs) the second site, the first site's nearest peer, is down: over
/// the whole third outage and its catch-up.
const PEER_OUTAGE: (u64, u64) = (210, 400);

/// The 8-node rack with four recovering writers per replica site, each
/// over its own four clean objects with its own write log and pull
/// buffer; site [`SITES`]`[0]` crashes and restores at [`OUTAGES`], and
/// [`SITES`]`[1]` at [`PEER_OUTAGE`]. A reader on node 0 makes 100 plain
/// reads of [`SITES`]`[2]`'s objects early in the run.
fn recovering_rack() -> Cluster {
    let mut cfg = ScenarioBuilder::new().seed(1).nodes(8).config().clone();
    cfg.memory_bytes = 4 * 1024 * 1024;
    let us = Time::from_us;
    cfg.fault = OUTAGES.iter().fold(
        FaultPlan::new().crash_restore(SITES[1], us(PEER_OUTAGE.0), us(PEER_OUTAGE.1)),
        |plan, &(from, until)| plan.crash_restore(SITES[0], us(from), us(until)),
    );
    let slot = StoreLayout::Clean.object_bytes(PAYLOAD as usize) as u64;
    let entries: Vec<(u64, Addr)> = (0..16).map(|i| (i, Addr::new(i * slot))).collect();
    let mut cluster = Cluster::new(cfg);
    let objects: Vec<Addr> = entries.iter().map(|&(_, a)| a).collect();
    let reader = spec()
        .store(SITES[2])
        .payload(PAYLOAD)
        .mechanism(ReadMechanism::Raw)
        .wire(slot as u32)
        .iterations(100)
        .build(&objects);
    cluster.add_workload(0, 0, reader);
    for &site in &SITES {
        let peers: Vec<u8> = SITES
            .iter()
            .filter(|&&p| p != site)
            .map(|&p| p as u8)
            .collect();
        for (core, mine) in entries.chunks(4).enumerate() {
            let region = (1 << 20) + core as u64 * (64 << 10);
            let log = WriteLog::new(Addr::new(region), 256);
            let pull_buf = Addr::new(region + (32 << 10));
            // Replay runs think-free, so the think pause is the margin
            // by which a restored site gains on its peers.
            let writer = Writer::new(
                mine.to_vec(),
                PAYLOAD,
                StoreLayout::Clean,
                Time::from_ns(300),
            )
            .recovering(log, peers.clone(), pull_buf, 8);
            cluster.add_workload(site, core, Box::new(writer));
        }
    }
    cluster
}

/// Asserts that a warm window of [`writer_rack`] allocates at most once
/// per 10,000 handled events while its writers and readers keep working.
fn assert_warm_window_allocation_free(layout: StoreLayout, mech: ReadMechanism) {
    let (mut cluster, stores) = writer_rack(layout, mech);
    cluster.run_for(Time::from_us(50));
    cluster.reset_metrics();
    let versions = version_sum(&cluster, &stores);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    cluster.run_for(Time::from_us(500));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let events = cluster.events_handled().total();
    let updates = (version_sum(&cluster, &stores) - versions) / 2;
    let cores = cluster.config().cores_per_node;
    let reads: u64 = (0..8)
        .flat_map(|n| (0..cores).map(move |c| (n, c)))
        .map(|(n, c)| cluster.metrics(n, c).ops)
        .sum();
    assert!(
        updates > 1_000,
        "{layout:?}: the writers must keep updating: {updates} updates"
    );
    assert!(
        reads > 1_000,
        "{mech:?}: the readers must keep reading: {reads} reads"
    );
    assert!(
        allocations * 10_000 <= events,
        "{mech:?}: {allocations} allocations in {events} handled events"
    );
}

/// Catch-up pulls the first site's writers made and replays they applied.
fn catch_up(cluster: &Cluster) -> (u64, u64) {
    (0..4)
        .map(|core| cluster.metrics(SITES[0], core))
        .fold((0, 0), |(p, r), m| {
            (p + m.catch_up_ops, r + m.replays_applied)
        })
}

/// Catch-up pulls `node`'s request pipelines served.
fn pulls_served(cluster: &Cluster, node: usize) -> u64 {
    (0..cluster.config().rmc_backends)
        .map(|pipe| cluster.r2p2_stats(node, pipe).catch_up_pulls)
        .sum()
}

/// The sum of every object's version word on every store node.
fn version_sum(cluster: &Cluster, stores: &[(usize, Vec<Addr>)]) -> u64 {
    stores
        .iter()
        .flat_map(|(node, objects)| objects.iter().map(move |&a| (*node, a)))
        .map(|(node, a)| cluster.node_memory(node).read_u64(a))
        .sum()
}

#[test]
fn the_host_pays_only_for_simulated_state() {
    let (per_node, budget) = datacenter_bytes_per_node();
    assert!(
        per_node <= budget,
        "building and resetting a node requests {per_node} bytes, budget {budget}"
    );

    assert_warm_window_allocation_free(StoreLayout::Clean, ReadMechanism::Raw);
    assert_warm_window_allocation_free(
        StoreLayout::PerCl,
        ReadMechanism::PerClValidate { payload: PAYLOAD },
    );

    let mut cluster = recovering_rack();
    let (second_from, second_until) = OUTAGES[1];
    cluster.run_for(Time::from_us(second_from - 10));
    assert_eq!(cluster.metrics(0, 0).ops, 100, "the reader finished early");
    cluster.reset_metrics();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    cluster.run_for(Time::from_us(second_until - second_from + 60));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let events = cluster.events_handled().total();
    let (pulls, replays) = catch_up(&cluster);
    assert!(
        pulls >= 8 && replays > 200,
        "the crashed site must catch up: {pulls} pulls, {replays} replays"
    );
    assert!(
        allocations * 10_000 <= events,
        "{allocations} allocations in {events} handled events of a catch-up"
    );
    assert_eq!(
        pulls_served(&cluster, SITES[2]),
        0,
        "the nearest peer serves"
    );

    let (third_from, third_until) = OUTAGES[2];
    cluster.run_for(Time::from_us(third_from - 10) - cluster.now());
    cluster.reset_metrics();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    cluster.run_for(Time::from_us(third_until - third_from + 60));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let (pulls, replays) = catch_up(&cluster);
    assert!(
        pulls >= 4 && replays > 200,
        "the crashed site must catch up again: {pulls} pulls, {replays} replays"
    );
    assert_eq!(
        pulls_served(&cluster, SITES[2]),
        pulls,
        "the third site serves every pull of this catch-up"
    );
    assert_eq!(
        allocations, 1,
        "a catch-up against fresh pipelines allocated beyond run_for's task list"
    );
}
