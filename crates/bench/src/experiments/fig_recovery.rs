//! fig_recovery: replica catch-up after a correlated whole-leaf outage —
//! write logs, guarded reads, and the staleness window.
//!
//! The fourth beyond-paper scenario family.
//! [`fig_failover`](super::fig_failover) crashes one
//! store node under *software* crash semantics, where the site's local
//! writer keeps the image current and failover back needs no catch-up.
//! This experiment kills a whole fat-tree leaf — two of the three replica
//! sites at once, writers and all — so the restored images genuinely miss
//! every update of the outage window. Each site runs a
//! [`RecoveringWriter`] maintaining a per-site [`WriteLog`]; on
//! restoration the stale sites pull the log over the real fabric
//! ([`sabre_sonuma::OpKind::CatchUpPull`]), bounce off each other's
//! equally-stale guards onto the surviving cross-leaf replica, and replay
//! the missed range through the deterministic writer path.
//!
//! Three rows: **no outage** (baseline availability, all recovery
//! counters zero), **refuse** (the epoch/seq guard turns readers away
//! while a site catches up) and **serve stale**
//! ([`sabre_rack::ClusterConfig::serve_stale`]: availability first,
//! staleness counted). Readers are the adaptive failover kind with
//! hop-triggered re-placement, plus one reader pinned to a leaf-2 replica
//! whose reads *must* meet the guard — so the refusal/stale columns are
//! deterministic rather than probe-timing lottery. Columns quantify the
//! trade: rack ops (availability), p99 (where refusal retries and
//! failover timeouts surface), catch-up traffic (pulls served, sibling
//! bounces, updates replayed), the guarded-reads split
//! (refused/stale-served) and the total staleness window.
//!
//! Deterministic like every figure: drops are a pure function of the
//! static [`FaultPlan`], catch-up is request/burst-reply over the ordered
//! fabric, and the fault-determinism tests pin this very construction
//! bit-identical across shards × threads.

use sabre_farm::{replica_sites, RecoveringWriter, ScenarioStoreExt, StoreLayout, WriteLog};
use sabre_mem::Addr;
use sabre_rack::{spec, FaultPlan, ReadMechanism, RecoveryReport, ScenarioBuilder};
use sabre_sim::Time;

use crate::table::fmt_ns;
use crate::{RunOpts, Table};

/// Rack size: four reader + four store nodes on a radix-2 fat tree, so
/// leaf 2 ({4, 5}) holds two of the three replica sites.
pub const NODES: usize = 8;

/// Replication factor.
pub const REPLICATION: usize = 3;

/// Clean-layout object payload (bytes).
pub const PAYLOAD: u32 = 208;

/// Objects per replica.
pub const OBJECTS: u64 = 8;

/// Write-log ring capacity (records) — far above the longest outage's
/// missed-update count.
pub const LOG_CAP: u64 = 2048;

const LOG_BASE: u64 = 1 << 20;
const PULL_BUF: u64 = 2 << 20;

/// The guard policy rows of the figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Fault-free baseline: every recovery counter stays zero.
    NoOutage,
    /// Catch-up guard refuses reads; readers retry at the next replica.
    Refuse,
    /// Catch-up guard serves reads anyway, counting them stale.
    ServeStale,
}

impl Mode {
    /// All rows in presentation order.
    pub const ALL: [Mode; 3] = [Mode::NoOutage, Mode::Refuse, Mode::ServeStale];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            Mode::NoOutage => "no outage",
            Mode::Refuse => "refuse",
            Mode::ServeStale => "serve stale",
        }
    }
}

/// One row's measurement.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// The guard policy.
    pub mode: Mode,
    /// Successful reads across the rack (the availability signal).
    pub ops: u64,
    /// 99th-percentile read latency (ns).
    pub p99_ns: u64,
    /// The rack-wide recovery ledger (catch-up, refusal and staleness
    /// counters from both protocol sides).
    pub recovery: RecoveryReport,
    /// Replica-binding migrations (failover + hop-triggered re-placement).
    pub migrations: u64,
}

/// Measures one guard-policy row with explicit event-loop shard and
/// worker-thread knobs. Public so the fault-determinism equivalence tests
/// can certify that *this* construction — not a copy of it — is
/// bit-identical at every `shards` × `threads` setting.
pub fn measure_threaded(mode: Mode, iters: u64, shards: usize, threads: Option<usize>) -> Point {
    let horizon = Time::from_us(40 * iters);
    let serve_stale = mode == Mode::ServeStale;
    let builder = ScenarioBuilder::new()
        .seed(7)
        .nodes(NODES)
        .fat_tree(2, 2)
        .shards(shards)
        .configure(move |cfg| {
            cfg.threads = threads;
            cfg.serve_stale = serve_stale;
        });
    let rack = builder.config().fabric.topology;
    let topo = builder.config().topology.clone();
    let sites = replica_sites(&topo.store_nodes(), REPLICATION, rack);
    assert_eq!(sites, vec![4, 6, 5], "leaf-spread placement changed");
    let builder = if mode == Mode::NoOutage {
        builder
    } else {
        // Leaf 2 — replica sites 4 and 5 together — dies for the second
        // quarter of the run.
        builder.fault(FaultPlan::new().leaf_outage(
            rack,
            2,
            Time::from_ps(horizon.as_ps() / 4),
            Time::from_ps(horizon.as_ps() / 2),
        ))
    };
    let (mut scenario, store) =
        builder.replicated_store(&sites, StoreLayout::Clean, PAYLOAD, OBJECTS);
    let wire = store.slot_bytes() as u32;
    for &rnode in &topo.reader_nodes() {
        scenario = scenario.reader_spec(
            rnode,
            0,
            spec()
                .payload(PAYLOAD)
                .mechanism(ReadMechanism::Raw)
                .wire(wire)
                .replicas(store.view_for(rnode, rack))
                .failover_timeout(Time::from_us(10))
                .replace_on_hops(2.0),
        );
    }
    // The pinned reader: a single-replica view on a leaf-2 site, so the
    // guard columns don't depend on the roaming readers' probe cadence.
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
            .wire(wire)
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
            Box::new(RecoveringWriter::new(
                store.object_entries(),
                PAYLOAD,
                StoreLayout::Clean,
                Time::from_ns(500),
                log,
                peers,
                Addr::new(PULL_BUF),
                8,
            )),
        );
    }
    let report = scenario.run_for(horizon);
    let m = report.rack_metrics();
    Point {
        mode,
        ops: m.ops,
        p99_ns: m.p99_ns().expect("readers completed ops"),
        recovery: report.recovery(),
        migrations: m.migrations,
    }
}

/// One row with the shipped configuration: one shard per node.
pub fn measure(mode: Mode, iters: u64) -> Point {
    measure_threaded(mode, iters, NODES, None)
}

/// Runs all three guard-policy rows.
pub fn data(opts: RunOpts) -> Vec<Point> {
    let iters = opts.pick(10, 3);
    opts.sweep(Mode::ALL)
        .map(|&mode| measure_threaded(mode, iters, NODES, opts.threads))
}

/// Renders the recovery sweep as a table.
pub fn run(opts: RunOpts) -> Table {
    let mut t = Table::new(
        "fig_recovery — whole-leaf outage, catch-up, and the staleness window (k=3, 8-node fat tree)",
        &[
            "mode",
            "ops",
            "p99",
            "pulls",
            "bounces",
            "replays",
            "refused",
            "stale served",
            "staleness window",
            "migrations",
        ],
    );
    for p in data(opts) {
        let r = p.recovery;
        t.row(vec![
            p.mode.label().to_string(),
            p.ops.to_string(),
            format!("{} ns", p.p99_ns),
            r.catch_up_pulls.to_string(),
            r.catch_up_refused.to_string(),
            r.replays_applied.to_string(),
            r.stale_refusals.to_string(),
            r.stale_served.to_string(),
            fmt_ns(r.catch_up_ns as f64),
            p.migrations.to_string(),
        ]);
    }
    t
}
