//! Protocol-level integration tests across the full stack: flow control,
//! parking, one-sided writes, RPC writes, remote CAS locking, and the
//! page-boundary stall path — all declared through the Scenario API, with
//! post-run state inspected via [`RunReport::cluster`].

use std::sync::{Arc, Mutex};

use sabres::prelude::*;

/// A minimal workload issuing one scripted operation, for protocol probes.
struct OneShot {
    op: OpKind,
    dst: u8,
    remote: Addr,
    local: Addr,
    size: u32,
    done: Arc<Mutex<Option<CqEntry>>>,
}

impl Workload for OneShot {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        if self.op == OpKind::Write {
            api.issue_write(self.dst, self.remote, self.local, self.size);
        } else {
            api.issue(self.op, self.dst, self.remote, self.local, self.size, 0);
        }
    }
    fn on_completion(&mut self, _api: &mut CoreApi<'_>, cq: CqEntry) {
        *self.done.lock().expect("done poisoned") = Some(cq);
    }
}

#[test]
fn one_sided_write_lands_with_invalidations() {
    let payload: Vec<u8> = (0..200u8).collect();
    let local = Addr::new(1 << 20);
    let done = Arc::new(Mutex::new(None));
    let seen = Arc::clone(&done);
    let init = payload.clone();
    let report = ScenarioBuilder::new()
        .prepare(move |cluster| {
            cluster.node_memory_mut(0).write(local, &init);
            Vec::new()
        })
        .workload(
            0,
            0,
            Box::new(OneShot {
                op: OpKind::Write,
                dst: 1,
                remote: Addr::new(4096),
                local,
                size: 200,
                done,
            }),
        )
        .run_for(Time::from_us(5));
    let cq = seen
        .lock()
        .expect("done poisoned")
        .expect("write completed");
    assert!(cq.success);
    assert_eq!(cq.op, OpKind::Write);
    assert_eq!(
        report
            .cluster()
            .node_memory(1)
            .read_vec(Addr::new(4096), 200),
        payload,
        "payload must land at the destination"
    );
    // The write epochs advanced at the destination (4 blocks touched).
    assert!(
        report
            .cluster()
            .node_memory(1)
            .epoch(Addr::new(4096).block())
            > 0
    );
}

#[test]
fn remote_cas_lock_contention_is_exposed() {
    let done = Arc::new(Mutex::new(None));
    let seen = Arc::clone(&done);
    let report = ScenarioBuilder::new()
        // Version word pre-locked (odd): the CAS must fail and the CQ must
        // say so.
        .prepare(|cluster| {
            cluster.node_memory_mut(1).write_u64(Addr::new(0), 3);
            Vec::new()
        })
        .workload(
            0,
            0,
            Box::new(OneShot {
                op: OpKind::LockCas,
                dst: 1,
                remote: Addr::new(0),
                local: Addr::new(1 << 20),
                size: 8,
                done,
            }),
        )
        .run_for(Time::from_us(5));
    let cq = seen.lock().expect("done poisoned").expect("CAS completed");
    assert!(!cq.success, "CAS on a held lock must report contention");
    // The word is untouched.
    assert_eq!(report.cluster().node_memory(1).read_u64(Addr::new(0)), 3);
}

#[test]
fn att_overflow_parks_and_everything_still_completes() {
    let (scenario, store) = ScenarioBuilder::new()
        .configure(|cfg| cfg.lightsabres.stream_buffers = 2) // tiny ATT forces parking
        .store(1, StoreLayout::Clean, 112, Some(64));
    let report = scenario
        .readers_spec(
            0,
            0..8,
            spec()
                .store(1)
                .payload(128)
                .mechanism(ReadMechanism::Sabre)
                .window(8)
                .objects(store.object_addrs()),
        )
        .run_for(Time::from_us(100));
    let parked = report.r2p2_totals(1).sabres_parked;
    assert!(parked > 0, "2-entry ATTs under 64 outstanding must park");
    // Flow control: every registered SABRe completed (none stuck).
    for p in 0..4 {
        let e = report.engine(1, p);
        let registered_started = report.r2p2(1, p).sabres_registered;
        assert!(
            e.completed_ok + e.completed_failed + 16 >= registered_started,
            "pipe {p}: {} registered vs {} completed",
            registered_started,
            e.completed_ok + e.completed_failed
        );
    }
    assert!(report.node(0).ops > 100, "progress despite parking");
}

#[test]
fn rpc_write_path_applies_updates_at_the_owner() {
    let (scenario, store) = ScenarioBuilder::new().store(1, StoreLayout::Clean, 480, Some(16));
    let server_store = store.clone();
    let writer_store = store.clone();
    let report = scenario
        .reader(1, 0, move |_| {
            Box::new(RpcWriteServer::new(KvStore::new(server_store, 1000)))
        })
        .reader(0, 0, move |_| {
            let kv = KvStore::new(writer_store, 1000);
            Box::new(RpcWriter::iterations(kv, 0, Time::ZERO, 20))
        })
        .run_for(Time::from_us(100));
    assert_eq!(report.core(0, 0).ops, 20, "all RPC writes acknowledged");
    // Every object in the store must still validate (odd/even protocol held),
    // and at least one must have advanced past its initial version.
    let mut advanced = 0;
    for i in 0..16 {
        let image = report
            .cluster()
            .node_memory(1)
            .read_vec(store.object_addr(i), store.slot_bytes() as usize);
        let v = CleanLayout::version_of(&image);
        assert!(!v.is_locked(), "object {i} left locked");
        let payload = CleanLayout::payload_of(&image, 480);
        let seq = verify_payload(i, payload).expect("owner-applied updates are never torn");
        if seq > 0 {
            advanced += 1;
            // Two version increments per applied update.
            assert!(v.raw() >= 2, "updated object {i} kept version {}", v.raw());
            assert_eq!(v.raw() % 2, 0);
        }
    }
    assert!(advanced > 0, "some objects must have been updated");
}

#[test]
fn sabre_across_page_boundary_completes() {
    // An object straddling the 2 MB superpage boundary: the engine stalls
    // issue at the crossing inside the window, then finishes normally.
    let page = sabres::mem::PAGE_BYTES as u64;
    let base = Addr::new(page - 128);
    let payload = vec![7u8; 480];
    let init = payload.clone();
    let done = Arc::new(Mutex::new(None));
    let seen = Arc::clone(&done);
    let report = ScenarioBuilder::new()
        .prepare(move |cluster| {
            CleanLayout::init(cluster.node_memory_mut(1), base, &init);
            Vec::new()
        })
        .workload(
            0,
            0,
            Box::new(OneShot {
                op: OpKind::Sabre,
                dst: 1,
                remote: base,
                local: Addr::new(1 << 20),
                size: CleanLayout::object_bytes(480) as u32,
                done,
            }),
        )
        .run_for(Time::from_us(10));
    let cq = seen
        .lock()
        .expect("done poisoned")
        .expect("SABRe completed");
    assert!(cq.success);
    assert!(
        report.engine_totals(1).page_stalls > 0,
        "the crossing must have stalled inside the window"
    );
    let image = report
        .cluster()
        .node_memory(0)
        .read_vec(Addr::new(1 << 20), CleanLayout::object_bytes(480));
    assert_eq!(CleanLayout::payload_of(&image, 480), &payload[..]);
}

#[test]
fn source_locking_readers_contend_but_progress() {
    let (scenario, store) = ScenarioBuilder::new().store(1, StoreLayout::Clean, 480, Some(2));
    // Two DrTM-style readers hammering the same two objects: CAS contention
    // must appear as retries, yet both make progress and no lock is leaked.
    let report = scenario
        .readers_spec(
            0,
            0..2,
            spec()
                .store(1)
                .payload(480)
                .source_locking()
                .iterations(150),
        )
        .run_for(Time::from_us(500));
    let m = report.node(0);
    assert_eq!(m.ops, 300, "both readers must finish their 150 reads");
    assert!(m.retries > 0, "no CAS contention observed");
    // Both objects end unlocked (even versions): no leaked locks once the
    // final asynchronous unlocks drain.
    for i in 0..2 {
        let v = VersionWord::new(
            report
                .cluster()
                .node_memory(1)
                .read_u64(store.object_addr(i)),
        );
        assert!(!v.is_locked(), "object {i} left locked");
    }
}

#[test]
fn deterministic_replay_bitwise_identical() {
    // Same seed, same history — the foundation every experiment rests on.
    let run = || {
        let (scenario, store) = ScenarioBuilder::new().store(1, StoreLayout::Clean, 480, Some(16));
        let wire = store.slot_bytes() as u32;
        let entries = store.object_entries();
        let report = scenario
            .readers_spec(
                0,
                0..4,
                spec()
                    .store(1)
                    .payload(480)
                    .mechanism(ReadMechanism::Sabre)
                    .wire(wire),
            )
            .workload(
                1,
                0,
                Box::new(Writer::new(entries, 480, StoreLayout::Clean, Time::ZERO)),
            )
            .run_for(Time::from_us(50));
        let m = report.node(0);
        (m.ops, m.retries, m.bytes, report.engine(1, 0))
    };
    assert_eq!(run(), run(), "identical seeds must replay identically");
}
