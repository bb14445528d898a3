//! `Cluster::events_handled` counts the local stores writers make.
//!
//! A paper-pair CREW rack: two writers on the store node update their own
//! clean objects (lock store, one store per payload line, publish store)
//! with a think pause between updates, beside a SABRe reader on the other
//! node. Sampled while every writer is between updates (every version word
//! even), the store count is the completed updates, read off the version
//! words, times the stores one update makes.

use sabre_mem::Addr;
use sabre_rack::workloads::Writer;
use sabre_rack::{spec, Cluster, ReadMechanism, ScenarioBuilder, StoreLayout, UpdatePlan};
use sabre_sim::Time;

const PAYLOAD: u32 = 1024;
const STORE: usize = 1;
const THINK: Time = Time::from_us(1);

/// Stores one clean update of a `PAYLOAD`-byte object makes: the lock,
/// the plan's payload lines and the publish.
fn stores_per_update() -> u64 {
    let mut plan = UpdatePlan::new();
    plan.rebuild(StoreLayout::Clean, Addr::new(0), 0, 0, PAYLOAD as usize, 1);
    let lines = (0..).take_while(|&i| plan.store(i).is_some()).count() as u64;
    assert!(lines > 1, "a 1 KB update spans many lines");
    lines + 2
}

/// Completed updates: each adds two to its object's version word.
fn updates(cluster: &Cluster, objects: &[Addr]) -> u64 {
    let memory = cluster.node_memory(STORE);
    objects
        .iter()
        .map(|&a| {
            let version = memory.read_u64(a);
            assert_eq!(version % 2, 0, "sampled mid-update at {a:?}");
            version / 2
        })
        .sum()
}

#[test]
fn events_handled_counts_every_writer_store() {
    let cfg = ScenarioBuilder::new().seed(1).config().clone();
    let interval = cfg.writer_store_interval;
    let slot = StoreLayout::Clean.object_bytes(PAYLOAD as usize) as u64;
    let objects: Vec<Addr> = (0..4).map(|i| Addr::new(i * slot)).collect();
    let mut cluster = Cluster::new(cfg);
    for (core, mine) in objects.chunks(2).enumerate() {
        let owned = mine
            .iter()
            .enumerate()
            .map(|(i, &a)| ((2 * core + i) as u64, a))
            .collect();
        let writer = Writer::new(owned, PAYLOAD, StoreLayout::Clean, THINK);
        cluster.add_workload(STORE, core, Box::new(writer));
    }
    let reader = spec()
        .store(STORE)
        .payload(PAYLOAD)
        .mechanism(ReadMechanism::Sabre)
        .wire(slot as u32)
        .objects(objects.clone())
        .build(&objects);
    cluster.add_workload(0, 0, reader);

    // An update is one store interval per store plus one idle wake; the
    // next starts a think pause after its publish. Sample mid-pause.
    let per_update = stores_per_update();
    let busy = interval * per_update;
    let period = busy + THINK;
    cluster.run_for(busy + THINK / 2);
    let first = updates(&cluster, &objects);
    assert_eq!(first, 2, "each writer published once");
    assert_eq!(cluster.events_handled().local_stores, first * per_update);
    assert!(cluster.metrics(0, 0).ops > 0, "the reader reads meanwhile");

    // The count restarts with the other measurement sinks.
    cluster.reset_metrics();
    assert_eq!(cluster.events_handled().local_stores, 0);
    cluster.run_for(period * 3);
    let later = updates(&cluster, &objects) - first;
    assert_eq!(later, 6, "each writer published three more times");
    let events = cluster.events_handled();
    assert_eq!(events.local_stores, later * per_update);
    assert!(
        events.wakes >= events.local_stores,
        "a store per wake at most"
    );
}
