//! End-to-end replica catch-up: a whole-leaf outage takes down two of
//! three replica sites mid-run while writers keep updating; the restored
//! sites must pull the live peer's write log over the fabric, replay the
//! missed range, and rejoin — with the epoch/seq guard refusing (or
//! stale-marking) reads for exactly the catch-up window.

use sabre_farm::scenario::ScenarioStoreExt;
use sabre_farm::{replica_sites, StoreLayout, WriteLog};
use sabre_mem::Addr;
use sabre_rack::workloads::Writer;
use sabre_rack::{spec, FaultPlan, ReadMechanism, ScenarioBuilder, Totals};
use sabre_sim::Time;

const PAYLOAD: u32 = 208;
const OBJECTS: u64 = 8;
const LOG_CAP: u64 = 2048;
const LOG_BASE: u64 = 1 << 20;
const PULL_BUF: u64 = 2 << 20;

/// Three replicas on an 8-node radix-2 fat tree (stores 4..8 span leaves
/// 2 and 3); leaf 2 — holding replica sites 4 and 5 — dies for the middle
/// of the run. Returns the rack's counters.
fn leaf_outage_run(serve_stale: bool) -> Totals {
    let builder = ScenarioBuilder::new()
        .seed(7)
        .nodes(8)
        .fat_tree(2, 2)
        .configure(move |cfg| cfg.serve_stale = serve_stale);
    let rack = builder.config().fabric.topology;
    let topo = builder.config().topology.clone();
    let sites = replica_sites(&topo.store_nodes(), 3, rack);
    assert_eq!(sites, vec![4, 6, 5], "leaf-spread placement changed");
    let builder =
        builder.fault(FaultPlan::new().leaf_outage(rack, 2, Time::from_us(40), Time::from_us(80)));
    let (mut scenario, store) =
        builder.replicated_store(&sites, StoreLayout::Clean, PAYLOAD, OBJECTS);
    for &rnode in &topo.reader_nodes() {
        scenario = scenario.reader_spec(
            rnode,
            0,
            spec()
                .payload(PAYLOAD)
                .mechanism(ReadMechanism::Raw)
                .wire(store.slot_bytes() as u32)
                .replicas(store.view_for(rnode, rack))
                .failover_timeout(Time::from_us(10))
                .replace_on_hops(2.0),
        );
    }
    // One reader holds a single-replica view pinned to a leaf-2 site: its
    // reads *must* meet the guard while that site catches up, making the
    // refusal (or stale-serve) counters independent of probe timing.
    let pinned: Vec<_> = store
        .view_for(0, rack)
        .into_iter()
        .filter(|&(site, _)| site == sites[0])
        .collect();
    scenario = scenario.reader_spec(
        0,
        1,
        spec()
            .payload(PAYLOAD)
            .mechanism(ReadMechanism::Raw)
            .wire(store.slot_bytes() as u32)
            .replicas(pinned)
            .failover_timeout(Time::from_us(10)),
    );
    let log = WriteLog::new(Addr::new(LOG_BASE), LOG_CAP);
    for &site in &sites {
        let peers = sites
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
                    PAYLOAD,
                    StoreLayout::Clean,
                    // Replay runs think-free, so the convergence margin is the
                    // think pause: 500 ns makes the lag floor (pull + replay
                    // overhead, ~2 updates) sit well under converged_lag.
                    Time::from_ns(500),
                )
                .recovering(log, peers, Addr::new(PULL_BUF), 8),
            ),
        );
    }
    let rack = scenario.run_for(Time::from_us(200)).rack();
    assert!(
        rack.metrics.ops > 100,
        "readers made no progress through the outage"
    );
    rack
}

#[test]
fn restored_sites_catch_up_and_refuse_reads_meanwhile() {
    let rack = leaf_outage_run(false);
    let (m, r) = (&rack.metrics, &rack.r2p2);
    // Both leaf-2 sites recovered: each pulled at least once (a probing
    // pull plus replay rounds) from the surviving peer.
    assert!(m.catch_up_ops >= 2, "missing catch-up rounds: {m:?}");
    assert_eq!(
        m.catch_up_ops, r.catch_up_pulls,
        "client and server disagree on pulls: {r:?}"
    );
    // Leaf 2 held two replica sites; restored together, each first asked
    // its 1-hop sibling, bounced off its guard, and re-aimed at the
    // surviving cross-leaf replica.
    assert!(r.catch_up_refused > 0, "siblings never bounced: {r:?}");
    // The outage spans ~150 missed updates per site; all were replayed.
    assert!(m.replays_applied > 100, "too few replays: {m:?}");
    // The staleness window is real and bounded by the run.
    assert!(m.catch_up_ns > 0, "no staleness window recorded: {m:?}");
    assert!(
        m.catch_up_ns < 2 * 200_000,
        "catch-up outlived the run: {m:?}"
    );
    // Readers bound to a catching-up replica were turned away (and each
    // client-side refusal stems from at least one refused request packet).
    assert!(m.stale_refusals > 0, "the guard never fired: {m:?}");
    assert!(r.reads_refused >= m.stale_refusals, "{r:?}");
    assert_eq!(r.stale_served, 0, "stale data served in refuse mode: {r:?}");
}

#[test]
fn serve_stale_trades_refusals_for_counted_stale_reads() {
    let rack = leaf_outage_run(true);
    let (m, r) = (&rack.metrics, &rack.r2p2);
    assert!(m.catch_up_ops >= 2, "missing catch-up rounds: {m:?}");
    assert!(m.replays_applied > 100, "too few replays: {m:?}");
    // Availability mode: nobody is refused, staleness is counted instead.
    assert_eq!(m.stale_refusals, 0, "refused despite serve_stale: {m:?}");
    assert_eq!(r.reads_refused, 0, "refused despite serve_stale: {r:?}");
    assert!(r.stale_served > 0, "no stale reads counted: {r:?}");
}
