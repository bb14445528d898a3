//! The event loop's hot path does not allocate.
//!
//! A counting global allocator watches a measured window of a warmed
//! 8-node rack whose readers mix plain remote reads with one-sided writes.
//! Once the node queues (their deques and lanes), the packet buffers and
//! the outboxes have grown to the workload's high-water marks, handling an
//! event — a packet send or arrival, a pump, a memory completion, a wake
//! or a completion — must not touch the heap. A handful of late growth
//! steps are tolerated: at most one allocation per 10,000 handled events.
//!
//! This binary holds a single test so no other test allocates while the
//! window is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sabre_mem::Addr;
use sabre_rack::{spec, Arrivals, Cluster, ReadMechanism, ScenarioBuilder};
use sabre_sim::Time;
use sabre_sw::layout::CleanLayout;

/// Counts every allocation and reallocation, then defers to the system
/// allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// The 8-node rack with two Poisson reader cores per reader node, each
/// issuing a 50/50 mix of plain reads and one-sided writes of a 1 KB
/// object image to its paired store node.
fn write_mix_rack() -> Cluster {
    let cfg = ScenarioBuilder::new().seed(1).nodes(8).config().clone();
    let readers = cfg.topology.reader_nodes();
    let stores = cfg.topology.store_nodes();
    let slot = CleanLayout::object_bytes(PAYLOAD as usize) as u32;
    let mut cluster = Cluster::new(cfg);
    for (&reader, &store) in readers.iter().zip(&stores) {
        let objects: Vec<Addr> = (0..OBJECTS).map(|i| Addr::new(i * slot as u64)).collect();
        for core in 0..2 {
            let program = spec()
                .store(store)
                .payload(PAYLOAD)
                .mechanism(ReadMechanism::Raw)
                .wire(slot)
                .objects(objects.clone())
                .arrivals(Arrivals::Poisson { ops_per_us: 0.8 })
                .mix(0.5)
                .build(&objects);
            cluster.add_workload(reader, core, program);
        }
    }
    cluster
}

#[test]
fn a_warm_write_mix_window_allocates_at_most_once_per_10k_events() {
    let mut cluster = write_mix_rack();
    cluster.run_for(Time::from_us(50));
    cluster.reset_metrics();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    cluster.run_for(Time::from_us(500));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let events = cluster.events_handled().total();
    let ops: u64 = (0..8).map(|n| cluster.node_metrics(n).ops).sum();
    assert!(
        ops > 1_000,
        "the readers must keep the rack busy: {ops} ops"
    );
    assert!(
        allocations * 10_000 <= events,
        "{allocations} allocations in {events} handled events"
    );
}
