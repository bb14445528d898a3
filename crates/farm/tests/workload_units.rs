//! Unit-level tests of the rack's workload programs and cluster plumbing
//! that the figure experiments do not isolate, declared through the
//! Scenario API.

use sabre_farm::{ScenarioStoreExt, StoreLayout};
use sabre_mem::Addr;
use sabre_rack::workloads::{pattern_payload, verify_payload, Writer};
use sabre_rack::{spec, Phase, ReadMechanism, ScenarioBuilder};
use sabre_sim::Time;
use sabre_sw::layout::{CleanLayout, PerClLayout};

fn small_scenario() -> ScenarioBuilder {
    ScenarioBuilder::new().configure(|cfg| cfg.memory_bytes = 8 * 1024 * 1024)
}

#[test]
fn pattern_verify_round_trip_and_tear_detection() {
    for len in [4usize, 8, 16, 17, 100, 8192] {
        let p = pattern_payload(7, 42, len);
        assert_eq!(p.len(), len);
        if len >= 16 {
            assert_eq!(verify_payload(7, &p), Some(42));
            // Wrong object id is rejected.
            assert_eq!(verify_payload(8, &p), None);
        }
        if len >= 32 {
            // A mixed snapshot is rejected: keep this update's header but
            // splice in the *next* update's filler tail.
            let mut torn = p.clone();
            let newer = pattern_payload(7, 43, len);
            torn[3 * len / 4..].copy_from_slice(&newer[3 * len / 4..]);
            assert_eq!(verify_payload(7, &torn), None);
        }
    }
}

#[test]
fn writer_updates_publish_consistent_objects() {
    let (scenario, store) = small_scenario().store(1, StoreLayout::Clean, 480, Some(4));
    let entries = store.object_entries();
    let report = scenario
        .workload(
            1,
            0,
            Box::new(Writer::new(entries, 480, StoreLayout::Clean, Time::ZERO)),
        )
        .run_for(Time::from_us(50));
    // Whatever instant we stop at, at most one object is mid-update; the
    // rest must be consistent published versions.
    let mut locked = 0;
    for i in 0..4 {
        let image = report
            .cluster()
            .node_memory(1)
            .read_vec(store.object_addr(i), store.slot_bytes() as usize);
        if CleanLayout::version_of(&image).is_locked() {
            locked += 1;
        } else {
            let payload = CleanLayout::payload_of(&image, 480);
            assert!(
                verify_payload(i, payload).is_some(),
                "published object {i} is inconsistent"
            );
        }
    }
    assert!(locked <= 1, "a single writer can hold at most one object");
}

#[test]
fn percl_writer_keeps_store_validatable() {
    let (scenario, store) = small_scenario().store(1, StoreLayout::PerCl, 480, Some(3));
    let entries = store.object_entries();
    let report = scenario
        .workload(
            1,
            0,
            Box::new(Writer::new(
                entries,
                480,
                StoreLayout::PerCl,
                Time::from_ns(100),
            )),
        )
        .run_for(Time::from_us(60));
    let mut validated = 0;
    for i in 0..3 {
        let image = report
            .cluster()
            .node_memory(1)
            .read_vec(store.object_addr(i), store.slot_bytes() as usize);
        if let Ok(payload) = PerClLayout::validate_and_strip(&image, 480) {
            assert!(verify_payload(i, &payload).is_some());
            validated += 1;
        }
    }
    assert!(validated >= 2, "most objects must be in published state");
}

#[test]
fn async_reader_keeps_window_full() {
    let report = small_scenario()
        .raw_region_sized(1, 128, 1)
        .reader_spec(
            0,
            0,
            spec()
                .store(1)
                .payload(128)
                .mechanism(ReadMechanism::Sabre)
                .window(4),
        )
        .run_for(Time::from_us(50));
    let m = report.core(0, 0);
    // 4-deep pipelining must clearly beat what a synchronous reader could
    // do in the same time (ops ≈ window × time / latency).
    let sync_bound = 50_000 / 240; // ≈ one op per 240 ns
    assert!(
        m.ops > sync_bound,
        "async window not pipelining: {} ops",
        m.ops
    );
}

#[test]
fn sync_reader_phases_are_recorded() {
    let (scenario, _store) = small_scenario().store(1, StoreLayout::PerCl, 480, Some(8));
    let report = scenario
        .reader_spec(
            0,
            0,
            spec()
                .store(1)
                .payload(480)
                .mechanism(ReadMechanism::PerClValidate { payload: 480 })
                .local_buf(Addr::new(4 * 1024 * 1024))
                .iterations(20),
        )
        .run_for(Time::from_us(100));
    let m = report.core(0, 0);
    assert_eq!(m.ops, 20);
    assert!(m.phase_mean_ns(Phase::Transfer).unwrap() > 100.0);
    let strip = m.phase_mean_ns(Phase::Strip).unwrap();
    // 480 B payload → 9 lines → 576 wire bytes at 2 B/cycle = 144 ns.
    assert!((strip - 144.0).abs() < 1.0, "strip mean {strip}");
}

#[test]
fn checksum_reader_works_end_to_end() {
    let (scenario, store) = small_scenario().store(1, StoreLayout::Checksum, 480, Some(8));
    let report = scenario
        .reader_spec(
            0,
            0,
            spec()
                .store(1)
                .payload(480)
                .mechanism(ReadMechanism::ChecksumValidate { payload: 480 })
                .local_buf(Addr::new(4 * 1024 * 1024))
                .iterations(5)
                .wire(store.slot_bytes() as u32),
        )
        .run_for(Time::from_us(200));
    let m = report.core(0, 0);
    assert_eq!(m.ops, 5);
    assert_eq!(m.retries, 0);
    // CRC dominates: 480 B × 12 cycles/B = 2.88 µs.
    assert!(m.latency.mean().unwrap() > 2_880.0);
}

#[test]
fn node_metrics_aggregate_cores() {
    let report = small_scenario()
        .raw_region_sized(1, 64, 1)
        .readers(0, 0..3, |core, targets| {
            spec()
                .store(1)
                .payload(64)
                .local_buf(Addr::new((4 + core as u64) * 1024 * 1024))
                .iterations(10)
                .build(targets)
        })
        .run_for(Time::from_us(50));
    let agg = report.node(0);
    assert_eq!(agg.ops, 30);
    assert_eq!(agg.bytes, 30 * 64);
}

#[test]
#[should_panic(expected = "within one cache block")]
fn store_local_rejects_straddling_writes() {
    struct Bad;
    impl sabre_rack::Workload for Bad {
        fn on_start(&mut self, api: &mut sabre_rack::CoreApi<'_>) {
            api.store_local(Addr::new(60), &[0u8; 8]); // crosses a block
        }
    }
    small_scenario()
        .workload(0, 0, Box::new(Bad))
        .run_for(Time::from_ns(10));
}

/// Cadence pins for the three writer programs, taken at a fixed window.
/// Each pin sums the final version (or publish) words of the store's
/// objects, so an update that gains or loses one store interval moves it.
mod cadence {
    use super::*;
    use sabre_farm::{KvStore, ObjectStore, RecoveringWriter, RpcWriteServer, RpcWriter, WriteLog};
    use sabre_rack::RunReport;

    const PAYLOAD: u32 = 200;
    const OBJECTS: u64 = 3;
    const WINDOW: Time = Time::from_us(20);

    fn version_sum(report: &RunReport, store: &ObjectStore, layout: StoreLayout) -> u64 {
        let mem = report.cluster().node_memory(1);
        (0..OBJECTS)
            .map(|i| mem.read_u64(layout.version_addr(store.object_addr(i))))
            .sum()
    }

    fn writer_run(layout: StoreLayout) -> u64 {
        let (scenario, store) = small_scenario().store(1, layout, PAYLOAD, Some(OBJECTS));
        let writer = Writer::new(store.object_entries(), PAYLOAD, layout, Time::from_ns(50));
        let report = scenario.workload(1, 0, Box::new(writer)).run_for(WINDOW);
        version_sum(&report, &store, layout)
    }

    #[test]
    fn writer_cadence_per_layout() {
        let sums = [
            StoreLayout::Clean,
            StoreLayout::PerCl,
            StoreLayout::Checksum,
            StoreLayout::WfRegister,
        ]
        .map(writer_run);
        assert_eq!(sums, [409, 409, 378, 765]);
    }

    #[test]
    fn recovering_writer_cadence_without_faults() {
        let (scenario, store) =
            small_scenario().store(1, StoreLayout::Clean, PAYLOAD, Some(OBJECTS));
        let log = WriteLog::new(Addr::new(1 << 20), 64);
        let writer = RecoveringWriter::new(
            store.object_entries(),
            PAYLOAD,
            StoreLayout::Clean,
            Time::from_ns(50),
            log,
            vec![0],
            Addr::new(2 << 20),
            8,
        );
        let report = scenario.workload(1, 0, Box::new(writer)).run_for(WINDOW);
        let head = report.cluster().node_memory(1).read_u64(log.head_addr());
        assert_eq!(
            (version_sum(&report, &store, StoreLayout::Clean), head),
            (352, 175)
        );
    }

    #[test]
    fn rpc_write_server_cadence() {
        let (scenario, store) =
            small_scenario().store(1, StoreLayout::PerCl, PAYLOAD, Some(OBJECTS));
        let kv = KvStore::new(store.clone(), 64);
        let report = scenario
            .workload(1, 0, Box::new(RpcWriteServer::new(kv.clone())))
            .workload(0, 0, Box::new(RpcWriter::endless(kv, 0, Time::ZERO)))
            .run_for(WINDOW);
        assert_eq!(
            (
                version_sum(&report, &store, StoreLayout::PerCl),
                report.core(0, 0).ops
            ),
            (200, 99)
        );
    }
}
