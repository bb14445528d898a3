//! The invariant-first torture harness.
//!
//! Instead of asserting point facts per scenario, this suite names the
//! system's invariants once — as small, composable checkers — and runs
//! **every** checker against **every** fabric quadrant, from one mesh rack
//! up to a 256-node four-rack datacenter:
//!
//! * **conservation** — at quiescence, every packet the fabric accepted
//!   was delivered exactly once or dropped by the fault plan
//!   (`sent == delivered + dropped`), and the streaming [`HopStats`]
//!   ledger agrees with it: the per-node counters merge exactly to the
//!   whole-fabric totals, spine crossings and queueing never exceed the
//!   packets that could have paid them;
//! * **atomicity** — a read served as atomic is never torn
//!   ([`verify_payload`] on every read the shipped reader reports
//!   successful, through [`WorkloadSpec::observe`] into the shared
//!   [`Ledger`]), and a raw-read control proves the same schedules do
//!   tear without a mechanism;
//! * **freshness** — versions never run backwards under re-read, and no
//!   reader ever observes a sequence number newer than what the writer
//!   actually published (the final store image is the ceiling);
//! * **abort-freedom** — mechanisms that promise completion without
//!   retries (raw reads here; the wait-free register is pinned in
//!   `fig_protocols`' shape tests) keep that promise, and the ledger saw
//!   exactly the operations the metrics layer counted.
//!
//! Each quadrant runs every checker once per mechanism, on the serial
//! loop; that the execution settings leave no trace is
//! `tests/execution_invariance.rs`.
//!
//! The quadrants put the store and its racing writers at staged distances:
//! same leaf, cross-leaf, cross-rack over the 350 ns spine — so the
//! invariants are exercised across every hop class the datacenter
//! topology has, while the 256-node quadrant leaves 250 nodes idle and
//! thereby also tortures the O(active-nodes) window scheduler.

mod common;

use common::{Ledger, ReadChecker};
use sabres::prelude::*;
use sabres::rack::CoreMetrics;
use sabres::sim::HopStats;

/// Object payload: four cache blocks, so an unprotected racing read has
/// real room to tear.
const PAYLOAD: u32 = 256;

/// Objects in the quadrant's store (partitioned CREW among the writers).
const OBJECTS: u64 = 24;

/// Simulated duration of one quadrant run — generous enough for every
/// finite reader to drain (conservation is a quiescence invariant), with
/// the O(active-nodes) scheduler keeping the post-drain tail cheap.
const DUR_US: u64 = 400;

// ---------------------------------------------------------------------------
// Quadrants
// ---------------------------------------------------------------------------

/// The fabric tier a quadrant runs on.
#[derive(Debug, Clone, Copy)]
enum FabricKind {
    /// The seed's all-to-all single-hop mesh.
    Mesh,
    /// One fat-tree rack: `radix` nodes per leaf, oversubscribed uplinks.
    FatTree { radix: u8, oversub: u8 },
    /// The two-level datacenter: racks of `radix`² nodes over a spine.
    Datacenter { racks: u8, radix: u8, oversub: u8 },
}

/// One torture quadrant: a fabric tier plus actor placement staged across
/// its hop classes.
struct Quadrant {
    name: &'static str,
    nodes: usize,
    fabric: FabricKind,
    /// The store node (its cores run the racing CREW writers).
    store: u8,
    /// Reader nodes (core 0 each), placed same-leaf / cross-leaf /
    /// cross-rack where the fabric has those distances.
    readers: &'static [usize],
    writers: usize,
    /// Successful reads per reader (finite, so the run drains).
    reads: u64,
    /// Writer think time in ns — tuned to the quadrant's hop class: tight
    /// inside a rack (fast reads need frequent version bumps to race),
    /// relaxed across the spine (a multi-microsecond cross-rack SABRe
    /// must still make progress between bumps).
    think_ns: u64,
}

/// The four quadrants every checker runs against.
const QUADRANTS: [Quadrant; 4] = [
    Quadrant {
        name: "mesh_rack",
        nodes: 8,
        fabric: FabricKind::Mesh,
        store: 1,
        readers: &[0, 2, 5],
        writers: 4,
        reads: 80,
        think_ns: 400,
    },
    Quadrant {
        // 16 nodes, 4 leaves: readers same-leaf (6), cross-leaf (0, 12).
        name: "fat_tree_rack",
        nodes: 16,
        fabric: FabricKind::FatTree {
            radix: 4,
            oversub: 2,
        },
        store: 5,
        readers: &[0, 6, 12],
        writers: 4,
        reads: 80,
        think_ns: 400,
    },
    Quadrant {
        // 2 racks of 16: readers same-leaf (3), cross-leaf (10), and two
        // cross-rack over the spine (17, 30).
        name: "datacenter_2x16",
        nodes: 32,
        fabric: FabricKind::Datacenter {
            racks: 2,
            radix: 4,
            oversub: 2,
        },
        store: 2,
        readers: &[3, 10, 17, 30],
        writers: 3,
        reads: 40,
        think_ns: 2000,
    },
    Quadrant {
        // The ISSUE's 256-node quadrant: 4 racks of 64 (radix-8 leaves).
        // Store on rack 0 leaf 1; readers same-leaf (8), cross-leaf (40),
        // cross-rack (70, 200). 250 of 256 nodes stay idle, so this also
        // tortures the O(active-nodes) window scheduler.
        name: "datacenter_4x64",
        nodes: 256,
        fabric: FabricKind::Datacenter {
            racks: 4,
            radix: 8,
            oversub: 2,
        },
        store: 9,
        readers: &[8, 40, 70, 200],
        writers: 4,
        reads: 30,
        think_ns: 2000,
    },
];

/// Runs one quadrant under `mech`, applies every per-run checker, and
/// returns the rack's hop counters.
fn run_quadrant(q: &Quadrant, mech: ReadMechanism) -> HopStats {
    let label = format!("{} [{mech:?}]", q.name);
    let mut builder = ScenarioBuilder::new()
        .seed(11)
        .nodes(q.nodes)
        .configure(|cfg| {
            // The store (24 × ~300 B slots) and the reader buffers fit in
            // 1 MB; the default 16 MB would cost the 256-node quadrant
            // 4 GB of host memory per run.
            cfg.memory_bytes = 1 << 20;
        });
    builder = match q.fabric {
        FabricKind::Mesh => builder,
        FabricKind::FatTree { radix, oversub } => builder.fat_tree(radix, oversub),
        FabricKind::Datacenter {
            racks,
            radix,
            oversub,
        } => builder.datacenter(racks, radix, oversub),
    };
    let (mut scenario, store) =
        builder.warmed_store(q.store, StoreLayout::Clean, PAYLOAD, Some(OBJECTS));
    // Finite readers, so the run reaches quiescence and the conservation
    // ledger balances.
    let checker = ReadChecker::new(mech, PAYLOAD);
    let reader = checker.attach(
        spec()
            .store(q.store as usize)
            .payload(PAYLOAD)
            .mechanism(mech)
            .objects(store.object_addrs())
            .wire(store.wire_bytes() as u32)
            .iterations(q.reads),
    );
    for &rnode in q.readers {
        scenario = scenario.reader_spec(rnode, 0, reader.clone());
    }
    // Racing CREW writers on the store node, paced by the quadrant's
    // think knob so version bumps are frequent enough that the raw
    // control's reads overlap the 40 ns store bursts, yet sparse enough
    // that the quadrant's slowest SABRe still commits between bumps.
    let entries = store.object_entries();
    let per_writer = entries.len().div_ceil(q.writers);
    for (w, chunk) in entries.chunks(per_writer).enumerate() {
        scenario = scenario.workload(
            q.store as usize,
            w,
            Box::new(Writer::new(
                chunk.to_vec(),
                PAYLOAD,
                StoreLayout::Clean,
                Time::from_ns(q.think_ns),
            )),
        );
    }
    let report = scenario.run_for(Time::from_us(DUR_US));
    let ledger = checker.ledger();
    let metrics = report.rack().metrics;

    check_conservation(&label, &report);
    check_atomicity(&label, mech, &ledger);
    check_freshness_ceiling(&label, &report, &store, &ledger);
    check_abort_freedom(&label, mech, &metrics);
    check_ledger_matches_metrics(&label, q, &metrics, &ledger);
    report.rack().hops
}

// ---------------------------------------------------------------------------
// The named checkers
// ---------------------------------------------------------------------------

/// Conservation: the packet ledger balances at quiescence and the
/// streaming hop/queue counters agree with it — per-node stats merge
/// exactly to the whole-fabric totals, and no queueing counter exceeds
/// the traffic that could have paid it.
fn check_conservation(label: &str, report: &RunReport) {
    let cluster = report.cluster();
    let sent = cluster.fabric().packets_total();
    let delivered = cluster.packets_delivered();
    let dropped = cluster.packets_dropped();
    assert!(sent > 0, "{label}: the quadrant moved no packets");
    assert_eq!(
        sent,
        delivered + dropped,
        "{label}: packet ledger out of balance \
         (sent {sent}, delivered {delivered}, dropped {dropped})"
    );
    let hops = cluster.fabric().hop_stats();
    assert_eq!(
        hops.packets, sent,
        "{label}: the streaming counters missed packets"
    );
    let mut merged = HopStats::default();
    for node in 0..cluster.config().nodes {
        merged.merge(&report.node(node).hops);
    }
    assert_eq!(
        merged, hops,
        "{label}: per-node hop stats do not merge to the fabric total"
    );
    assert_eq!(
        report.rack().hops,
        hops,
        "{label}: the rack's hop stats differ from the fabric total"
    );
    assert!(
        hops.hops >= hops.packets,
        "{label}: a packet traversed fewer than one hop: {hops:?}"
    );
    assert!(
        hops.spine_crossings <= hops.packets,
        "{label}: more spine crossings than packets: {hops:?}"
    );
    assert!(
        hops.spine_queued <= hops.spine_crossings,
        "{label}: spine queueing without spine crossings: {hops:?}"
    );
    assert!(
        hops.uplink_queued <= hops.packets,
        "{label}: more uplink queueing than packets: {hops:?}"
    );
}

/// Atomicity: a read served as atomic is never torn; versions never run
/// backwards; and the harness genuinely raced (reads verified under
/// racing writers, not an idle store).
fn check_atomicity(label: &str, mech: ReadMechanism, ledger: &Ledger) {
    assert!(ledger.verified > 0, "{label}: no reads verified");
    assert_eq!(
        ledger.time_travel, 0,
        "{label}: a re-read observed an older version: {ledger:?}"
    );
    match mech {
        ReadMechanism::Sabre => assert_eq!(
            ledger.torn, 0,
            "{label}: {} torn reads served as atomic (of {} verified)",
            ledger.torn, ledger.verified
        ),
        // The control: raw reads on the same schedules must tear, or the
        // writers are not actually racing the readers.
        ReadMechanism::Raw => assert!(
            ledger.torn > 0,
            "{label}: the raw control never tore — no real races ({ledger:?})"
        ),
        _ => {}
    }
}

/// Freshness ceiling: no reader observed a sequence number newer than
/// what its writer actually published — the final store image bounds
/// every observation from above.
fn check_freshness_ceiling(label: &str, report: &RunReport, store: &ObjectStore, ledger: &Ledger) {
    let mem = report.cluster().node_memory(store.node() as usize);
    let mut compared = 0u64;
    for (obj, addr) in store.object_entries() {
        let Some(&observed) = ledger.max_seq.get(&obj) else {
            continue;
        };
        let image = mem.read_vec(addr, store.slot_bytes() as usize);
        let payload = CleanLayout::payload_of(&image, PAYLOAD as usize);
        // A writer caught mid-update leaves its object torn at the end of
        // the run; the ceiling is only readable from clean final images.
        let Some(final_seq) = verify_payload(obj, payload) else {
            continue;
        };
        compared += 1;
        assert!(
            observed <= final_seq,
            "{label}: object {obj} was read at seq {observed} but its \
             writer only reached seq {final_seq}"
        );
    }
    assert!(
        compared > 0,
        "{label}: freshness ceiling vacuous — no object was both read \
         and clean at the end"
    );
}

/// Abort-freedom: mechanisms that promise completion without retries
/// keep the promise on every quadrant.
fn check_abort_freedom(label: &str, mech: ReadMechanism, metrics: &CoreMetrics) {
    let promises_no_aborts = matches!(
        mech,
        ReadMechanism::Raw | ReadMechanism::WfRegister { .. } | ReadMechanism::OhRam { .. }
    );
    if promises_no_aborts {
        assert_eq!(
            metrics.retries, 0,
            "{label}: an abort-free mechanism aborted: {metrics:?}"
        );
    }
}

/// Cross-layer agreement: the observer saw exactly the operations the
/// metrics layer counted, and every finite reader drained.
fn check_ledger_matches_metrics(label: &str, q: &Quadrant, m: &CoreMetrics, ledger: &Ledger) {
    assert_eq!(
        m.ops,
        ledger.verified + ledger.torn,
        "{label}: metrics ops disagree with observed reads"
    );
    assert_eq!(
        m.ops,
        q.reads * q.readers.len() as u64,
        "{label}: a reader did not drain"
    );
}

/// The full suite over one quadrant: every checker per run, both
/// mechanisms.
fn torture(q: &Quadrant) {
    for mech in [ReadMechanism::Raw, ReadMechanism::Sabre] {
        run_quadrant(q, mech);
    }
}

// ---------------------------------------------------------------------------
// One test per quadrant
// ---------------------------------------------------------------------------

#[test]
fn mesh_rack_quadrant_holds_every_invariant() {
    torture(&QUADRANTS[0]);
}

#[test]
fn fat_tree_rack_quadrant_holds_every_invariant() {
    torture(&QUADRANTS[1]);
}

#[test]
fn two_rack_datacenter_quadrant_holds_every_invariant() {
    torture(&QUADRANTS[2]);
}

#[test]
fn datacenter_256_node_quadrant_holds_every_invariant() {
    torture(&QUADRANTS[3]);
}

/// The spine is actually in play: the datacenter quadrants' cross-rack
/// readers must account spine crossings in the streaming counters, the
/// single-rack quadrants must account none.
#[test]
fn spine_counters_track_the_topology() {
    for q in &QUADRANTS {
        let hops = run_quadrant(q, ReadMechanism::Sabre);
        match q.fabric {
            FabricKind::Mesh | FabricKind::FatTree { .. } => assert_eq!(
                hops.spine_crossings, 0,
                "{}: spine crossings without a spine",
                q.name
            ),
            FabricKind::Datacenter { .. } => assert!(
                hops.spine_crossings > 0,
                "{}: cross-rack readers never crossed the spine",
                q.name
            ),
        }
    }
}
