//! Behaviour pins for every reader shape a [`WorkloadSpec`] can declare.
//!
//! Each test runs one small deterministic scenario and compares the
//! reader's counters and latency against a recorded fingerprint: ops,
//! retries, failovers, migrations, stale refusals, queued arrivals, peak
//! backlog, mean latency and p99. A refactor of the reader programs must
//! leave every fingerprint unchanged; a change that means to move one
//! re-records it here and says why.

use sabre_core::CcMode;
use sabre_mem::Addr;
use sabre_rack::workloads::Writer;
use sabre_rack::{
    spec, Arrivals, ClusterConfig, CoreApi, CoreMetrics, FaultPlan, Popularity, ReadMechanism,
    RunReport, ScenarioBuilder, StoreLayout, UpdatePlan, Workload, WorkloadSpec,
};
use sabre_sim::Time;
use sabre_sw::layout::CleanLayout;

const PAYLOAD: u32 = 256;
const OBJECTS: u64 = 8;
/// Object stride: room for the largest layout (the wait-free register's
/// header plus four slots) at this payload.
const STRIDE: u64 = 4096;

fn small() -> ClusterConfig {
    ClusterConfig {
        memory_bytes: 4 * 1024 * 1024,
        ..ClusterConfig::default()
    }
}

fn entries() -> Vec<(u64, Addr)> {
    (0..OBJECTS).map(|i| (i, Addr::new(i * STRIDE))).collect()
}

/// Lays out `OBJECTS` published objects of `layout` on `node` (update 0
/// already applied) and returns their addresses as the scenario targets.
fn objects(builder: ScenarioBuilder, node: usize, layout: StoreLayout) -> ScenarioBuilder {
    builder.prepare(move |cluster| {
        let mem = cluster.node_memory_mut(node);
        let mut plan = UpdatePlan::new();
        for (id, base) in entries() {
            plan.rebuild(layout, base, id, 0, PAYLOAD as usize, 0);
            let mut i = 0;
            while let Some((addr, data)) = plan.store(i) {
                mem.write(addr, data);
                i += 1;
            }
            mem.write_u64(layout.version_addr(base), layout.publish_word(0));
        }
        entries().into_iter().map(|(_, base)| base).collect()
    })
}

/// A zero-think writer on core 0 of `node` racing every object.
fn writer(builder: ScenarioBuilder, node: usize, layout: StoreLayout) -> ScenarioBuilder {
    builder.workload(
        node,
        0,
        Box::new(Writer::new(entries(), PAYLOAD, layout, Time::ZERO)),
    )
}

/// Objects of `layout` on node 1 under a racing writer, read by `spec`
/// from core 1 of node 0 for `us` microseconds.
fn raced(layout: StoreLayout, reader: WorkloadSpec, us: u64) -> RunReport {
    let b = objects(ScenarioBuilder::with_config(small()), 1, layout);
    writer(b, 1, layout)
        .reader_spec(0, 1, reader)
        .run_for(Time::from_us(us))
}

fn fingerprint(m: &CoreMetrics) -> String {
    format!(
        "ops={} retries={} failovers={} migrations={} stale_refusals={} \
         queued={} peak_backlog={} mean_ns={:.3} p99_ns={}",
        m.ops,
        m.retries,
        m.failovers,
        m.migrations,
        m.stale_refusals,
        m.queued_arrivals,
        m.peak_backlog,
        m.latency.mean().unwrap_or(0.0),
        m.p99_ns().unwrap_or(0),
    )
}

fn sabre() -> WorkloadSpec {
    spec()
        .store(1)
        .payload(PAYLOAD)
        .mechanism(ReadMechanism::Sabre)
        .wire(CleanLayout::object_bytes(PAYLOAD as usize) as u32)
}

#[test]
fn plain_closed_sabre_under_a_writer() {
    let r = raced(StoreLayout::Clean, sabre(), 40);
    assert_eq!(fingerprint(r.core(0, 1)), "ops=197 retries=24 failovers=0 migrations=0 stale_refusals=0 queued=0 peak_backlog=0 mean_ns=202.841 p99_ns=373");
}

#[test]
fn plain_closed_sabre_with_every_closed_loop_knob() {
    let reader = sabre()
        .consume()
        .backoff(Time::from_ns(100))
        .iterations(60)
        .local_buf(Addr::new(3 << 20));
    let r = raced(StoreLayout::Clean, reader, 40);
    assert_eq!(fingerprint(r.core(0, 1)), "ops=60 retries=6 failovers=0 migrations=0 stale_refusals=0 queued=0 peak_backlog=0 mean_ns=230.905 p99_ns=494");
}

#[test]
fn per_cl_validate_under_a_writer() {
    let reader = spec()
        .store(1)
        .payload(PAYLOAD)
        .mechanism(ReadMechanism::PerClValidate { payload: PAYLOAD });
    let r = raced(StoreLayout::PerCl, reader, 40);
    assert_eq!(fingerprint(r.core(0, 1)), "ops=147 retries=12 failovers=0 migrations=0 stale_refusals=0 queued=0 peak_backlog=0 mean_ns=270.985 p99_ns=500");
}

#[test]
fn checksum_validate_under_a_writer() {
    let reader = spec()
        .store(1)
        .payload(PAYLOAD)
        .mechanism(ReadMechanism::ChecksumValidate { payload: PAYLOAD });
    let r = raced(StoreLayout::Checksum, reader, 40);
    assert_eq!(fingerprint(r.core(0, 1)), "ops=22 retries=1 failovers=0 migrations=0 stale_refusals=0 queued=0 peak_backlog=0 mean_ns=1783.587 p99_ns=3412");
}

#[test]
fn oh_ram_under_a_writer() {
    let reader = spec()
        .store(1)
        .payload(PAYLOAD)
        .mechanism(ReadMechanism::OhRam { payload: PAYLOAD });
    let r = raced(StoreLayout::Clean, reader, 40);
    assert_eq!(fingerprint(r.core(0, 1)), "ops=206 retries=0 failovers=0 migrations=0 stale_refusals=0 queued=0 peak_backlog=0 mean_ns=194.047 p99_ns=271");
}

#[test]
fn wait_free_register_under_a_writer() {
    let reader = spec()
        .store(1)
        .payload(PAYLOAD)
        .mechanism(ReadMechanism::WfRegister { payload: PAYLOAD });
    let r = raced(StoreLayout::WfRegister, reader, 40);
    assert_eq!(fingerprint(r.core(0, 1)), "ops=202 retries=0 failovers=0 migrations=0 stale_refusals=0 queued=0 peak_backlog=0 mean_ns=197.697 p99_ns=199");
}

/// Destination locking (Table 1): the engine takes the object's shared
/// reader lock at the destination and a writer that respects it waits for
/// the readers to drain. Runs every lock access (acquire, release) and
/// pins the acquire's completion order: it answers its engine before its
/// invalidation fans out. Answering after the fan-out moves this
/// fingerprint.
#[test]
fn destination_locking_sabre_under_a_lock_respecting_writer() {
    let mut cfg = small();
    cfg.lightsabres.cc_mode = CcMode::Locking;
    let b = objects(ScenarioBuilder::with_config(cfg), 1, StoreLayout::Clean);
    let writer =
        Writer::new(entries(), PAYLOAD, StoreLayout::Clean, Time::ZERO).respecting_reader_locks();
    let r = b
        .workload(1, 0, Box::new(writer))
        .reader_spec(0, 1, sabre())
        .run_for(Time::from_us(40));
    assert_eq!(fingerprint(r.core(0, 1)), "ops=197 retries=21 failovers=0 migrations=0 stale_refusals=0 queued=0 peak_backlog=0 mean_ns=202.154 p99_ns=364");
    // A lock release invalidates but re-arms no pump: a pump there would
    // add an event and could reorder same-instant work. The fingerprint
    // above does not see an extra pump; the event count does.
    let events = r.cluster().events_handled();
    assert_eq!((events.pumps, events.mem_done), (2410, 1512));
}

#[test]
fn windowed_reader() {
    let r = ScenarioBuilder::with_config(small())
        .raw_region_sized(1, 512, 64)
        .reader_spec(
            0,
            0,
            spec()
                .store(1)
                .payload(512)
                .mechanism(ReadMechanism::Sabre)
                .window(8),
        )
        .run_for(Time::from_us(40));
    assert_eq!(fingerprint(r.core(0, 0)), "ops=1651 retries=0 failovers=0 migrations=0 stale_refusals=0 queued=0 peak_backlog=0 mean_ns=193.148 p99_ns=271");
}

#[test]
fn source_locking_readers_contend() {
    let reader = spec().store(1).payload(256).source_locking().iterations(25);
    let r = ScenarioBuilder::with_config(small())
        .raw_region_sized(1, 256, 2)
        .reader_spec(0, 0, reader.clone())
        .reader_spec(0, 1, reader)
        .run_for(Time::from_us(40));
    assert_eq!(fingerprint(r.core(0, 0)), "ops=25 retries=14 failovers=0 migrations=0 stale_refusals=0 queued=0 peak_backlog=0 mean_ns=343.182 p99_ns=495");
    assert_eq!(fingerprint(r.core(0, 1)), "ops=25 retries=5 failovers=0 migrations=0 stale_refusals=0 queued=0 peak_backlog=0 mean_ns=343.357 p99_ns=494");
}

#[test]
fn poisson_zipf_under_a_writer() {
    let reader = sabre()
        .arrivals(Arrivals::Poisson { ops_per_us: 3.0 })
        .popularity(Popularity::Zipf { exponent: 0.99 });
    let r = raced(StoreLayout::Clean, reader, 40);
    assert_eq!(fingerprint(r.core(0, 1)), "ops=116 retries=19 failovers=0 migrations=0 stale_refusals=0 queued=71 peak_backlog=4 mean_ns=396.607 p99_ns=1279");
}

#[test]
fn on_off_hot_set_write_mix() {
    let r = ScenarioBuilder::with_config(small())
        .raw_region_sized(1, 256, 64)
        .reader_spec(
            0,
            0,
            spec()
                .store(1)
                .payload(256)
                .arrivals(Arrivals::OnOff {
                    on: Time::from_us(5),
                    off: Time::from_us(5),
                    ops_per_us: 6.0,
                })
                .popularity(Popularity::HotSet {
                    hot: 4,
                    fraction: 0.9,
                })
                .mix(0.5),
        )
        .run_for(Time::from_us(40));
    assert_eq!(fingerprint(r.core(0, 0)), "ops=100 retries=0 failovers=0 migrations=0 stale_refusals=0 queued=83 peak_backlog=6 mean_ns=464.404 p99_ns=1182");
}

/// Holds node's catch-up guard over `[from, until)`, so replicated reads
/// addressed to it are refused meanwhile.
struct CatchingUp {
    from: Time,
    until: Time,
    on: bool,
}

impl Workload for CatchingUp {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        api.sleep(self.from);
    }

    fn on_wake(&mut self, api: &mut CoreApi<'_>) {
        self.on = !self.on;
        api.set_catching_up(self.on);
        if self.on {
            api.sleep(self.until - self.from);
        }
    }
}

/// A 2x2 mesh with replicas on nodes 1, 3 and 2 (in that preference
/// order) under racing writers, read from core 1 of node 0. Node 1 is down
/// over 10-30 us and then catches up until 40 us.
fn replicated(reader: WorkloadSpec) -> RunReport {
    let mut b = ScenarioBuilder::with_config(small())
        .nodes(4)
        .fault(FaultPlan::new().crash_restore(1, Time::from_us(10), Time::from_us(30)));
    for node in [1, 3, 2] {
        b = writer(
            objects(b, node, StoreLayout::Clean),
            node,
            StoreLayout::Clean,
        );
    }
    let addrs: Vec<Addr> = entries().into_iter().map(|(_, a)| a).collect();
    let view = [1, 3, 2].map(|node| (node, addrs.clone())).to_vec();
    b.workload(
        1,
        1,
        Box::new(CatchingUp {
            from: Time::from_us(30),
            until: Time::from_us(40),
            on: false,
        }),
    )
    .reader_spec(
        0,
        1,
        reader
            .payload(PAYLOAD)
            .mechanism(ReadMechanism::Sabre)
            .wire(CleanLayout::object_bytes(PAYLOAD as usize) as u32)
            .replicas(view)
            .failover_timeout(Time::from_us(2)),
    )
    .run_for(Time::from_us(60))
}

#[test]
fn static_replicas_across_a_crash() {
    let r = replicated(spec().migrate(false));
    assert_eq!(fingerprint(r.core(0, 1)), "ops=189 retries=20 failovers=7 migrations=0 stale_refusals=12 queued=0 peak_backlog=0 mean_ns=316.954 p99_ns=2303");
}

#[test]
fn adaptive_replicas_across_a_crash() {
    let r = replicated(spec());
    assert_eq!(fingerprint(r.core(0, 1)), "ops=225 retries=23 failovers=2 migrations=6 stale_refusals=1 queued=0 peak_backlog=0 mean_ns=266.265 p99_ns=543");
}

#[test]
fn adaptive_replicas_replace_on_hops() {
    let r = replicated(spec().replace_on_hops(1.5));
    assert_eq!(fingerprint(r.core(0, 1)), "ops=217 retries=31 failovers=3 migrations=10 stale_refusals=2 queued=0 peak_backlog=0 mean_ns=275.916 p99_ns=2303");
}
