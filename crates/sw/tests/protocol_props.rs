//! Property tests of the alternative read protocols' server-side captures.
//!
//! The wait-free register's claim is *universal*: under any interleaving of
//! writer micro-steps (payload stores, slot seq stamp, publish) with
//! capture micro-steps (block reads), a reader observes a complete,
//! consistent version, versions are monotonically non-decreasing, and the
//! client never aborts — the capture always terminates in a delivery.
//! Oh-RAM's capture makes the same atomicity promise over the clean layout
//! (plus the 1.5-round fabric bound, pinned below on a real scenario).
//! Proptest explores the interleavings; the model writer below performs
//! byte-for-byte the stores the rack's [`sabre_rack::workloads::Writer`]
//! performs, one micro-step per scheduled turn.

use std::collections::VecDeque;

use proptest::prelude::*;

use sabre_mem::{Addr, BlockAddr, BlockRange, NodeMemory, BLOCK_BYTES};
use sabre_sw::{CaptureKind, CaptureStep, ObjectCapture, WfRegisterLayout};

/// Version `seq`'s payload: position-dependent so a torn image mixing two
/// versions differs from both in almost every byte.
fn body(seq: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| {
            (seq as u8)
                .wrapping_add(i as u8)
                .wrapping_mul(2)
                .wrapping_add(1)
        })
        .collect()
}

/// Splits a payload store into per-block micro-writes, exactly as the rack
/// writer's update chunks do (each store touches one cache block).
fn block_chunks(start: Addr, data: &[u8]) -> Vec<(Addr, Vec<u8>)> {
    let mut out = Vec::new();
    let mut addr = start;
    let mut rest = data;
    while !rest.is_empty() {
        let room = BLOCK_BYTES - addr.block_offset();
        let take = room.min(rest.len());
        out.push((addr, rest[..take].to_vec()));
        addr = addr + take as u64;
        rest = &rest[take..];
    }
    out
}

/// A single-writer model issuing one micro-store per `step` call, cycling
/// through versions forever. `pending` holds the in-flight version's
/// remaining stores (publish last).
struct ModelWriter {
    base: Addr,
    payload_len: usize,
    published: u64,
    pending: VecDeque<(Addr, Vec<u8>)>,
    wf: bool,
}

impl ModelWriter {
    fn new(base: Addr, payload_len: usize, wf: bool) -> Self {
        ModelWriter {
            base,
            payload_len,
            published: 0,
            pending: VecDeque::new(),
            wf,
        }
    }

    /// Queues version `published + 1`'s stores in the writer's real order.
    fn queue_next_version(&mut self) {
        let next = self.published + 1;
        let payload = body(next, self.payload_len);
        if self.wf {
            // Wait-free register: payload into the *next* slot, then the
            // slot's seq stamp, then the single-store publish word.
            let slot = next % WfRegisterLayout::SLOTS;
            let sb = WfRegisterLayout::slot_addr(self.base, slot, self.payload_len);
            self.pending.extend(block_chunks(
                sb + WfRegisterLayout::SLOT_HEADER_BYTES as u64,
                &payload,
            ));
            self.pending.push_back((sb, next.to_le_bytes().to_vec()));
            self.pending.push_back((
                self.base,
                WfRegisterLayout::pack(next, slot).to_le_bytes().to_vec(),
            ));
        } else {
            // Clean layout under Oh-RAM: lock (odd version), payload at
            // +16, unlock-and-publish (next even version).
            let v = self.published * 2;
            self.pending
                .push_back((self.base, (v + 1).to_le_bytes().to_vec()));
            self.pending.extend(block_chunks(self.base + 16, &payload));
            self.pending
                .push_back((self.base, (v + 2).to_le_bytes().to_vec()));
        }
    }

    /// Performs one micro-store, feeding its invalidations to the capture.
    fn step(&mut self, mem: &mut NodeMemory, cap: &mut ObjectCapture) {
        if self.pending.is_empty() {
            self.queue_next_version();
        }
        let (addr, data) = self.pending.pop_front().expect("just queued");
        mem.write(addr, &data);
        for block in BlockRange::covering(addr, data.len() as u64).iter() {
            cap.on_invalidation(block);
        }
        if self.pending.is_empty() {
            self.published += 1;
        }
    }

    /// Finishes the in-flight version (quiesces the writer).
    fn finish_version(&mut self, mem: &mut NodeMemory, cap: &mut ObjectCapture) {
        while !self.pending.is_empty() {
            self.step(mem, cap);
        }
    }
}

/// The capture side: one outstanding [`ObjectCapture`], restarted after
/// every delivery, feeding one block read per `step` call.
struct ModelReader {
    kind: CaptureKind,
    base: Addr,
    wire: u32,
    cap: ObjectCapture,
    pending: VecDeque<BlockAddr>,
    delivered: Vec<Vec<u8>>,
}

impl ModelReader {
    fn new(kind: CaptureKind, base: Addr, wire: u32) -> Self {
        let (cap, step) = ObjectCapture::new(kind, base, wire);
        let CaptureStep::Read(blocks) = step else {
            panic!("a fresh capture must read");
        };
        ModelReader {
            kind,
            base,
            wire,
            cap,
            pending: blocks.into(),
            delivered: Vec::new(),
        }
    }

    /// Serves one block read; on delivery records the image and starts the
    /// next capture.
    fn step(&mut self, mem: &NodeMemory) {
        let block = self.pending.pop_front().expect("capture always has reads");
        match self.cap.on_block(block, mem.read_block(block)) {
            CaptureStep::Read(blocks) => self.pending.extend(blocks),
            CaptureStep::Deliver(blocks) => {
                self.delivered.push(blocks.concat());
                let (cap, step) = ObjectCapture::new(self.kind, self.base, self.wire);
                self.cap = cap;
                let CaptureStep::Read(blocks) = step else {
                    panic!("a fresh capture must read");
                };
                self.pending = blocks.into();
            }
        }
    }
}

proptest! {
    /// The wait-free register under arbitrary writer interleavings:
    /// every delivered image is a complete published version (slot stamp
    /// matches the publish word, payload byte-exact), observed versions
    /// never decrease, never run ahead of the writer, and — the protocol's
    /// headline — the client *never aborts*: once the writer quiesces, the
    /// in-flight capture terminates in a bounded number of steps.
    #[test]
    fn wf_register_reads_are_monotone_consistent_and_abort_free(
        schedule in proptest::collection::vec(any::<bool>(), 0..600),
        payload_len in 1usize..160,
    ) {
        let base = Addr::new(0);
        let mut mem = NodeMemory::new(1 << 16);
        let init = body(0, payload_len);
        WfRegisterLayout::init(&mut mem, base, &init);
        let wire = WfRegisterLayout::wire_bytes(payload_len) as u32;
        let mut writer = ModelWriter::new(base, payload_len, true);
        let mut reader = ModelReader::new(CaptureKind::WfRegister, base, wire);
        for writer_turn in schedule {
            if writer_turn {
                writer.step(&mut mem, &mut reader.cap);
            } else {
                reader.step(&mem);
            }
        }
        // Quiesce the writer, then the capture MUST deliver — wait-freedom
        // means no client-visible abort path exists. 3 restart rounds of
        // header + slot reads bound the drain generously.
        writer.finish_version(&mut mem, &mut reader.cap);
        let before = reader.delivered.len();
        for _ in 0..4 * (wire as usize / BLOCK_BYTES + 2) {
            if reader.delivered.len() > before {
                break;
            }
            reader.step(&mem);
        }
        prop_assert!(
            reader.delivered.len() > before,
            "capture failed to deliver against a quiescent writer"
        );
        let mut last_seq = 0u64;
        for image in &reader.delivered {
            let (seq, slot) = WfRegisterLayout::published_of(image);
            prop_assert_eq!(slot, seq % WfRegisterLayout::SLOTS);
            prop_assert_eq!(
                WfRegisterLayout::slot_seq_of(image), seq,
                "slot stamp disagrees with the publish word: torn capture"
            );
            prop_assert_eq!(
                WfRegisterLayout::payload_of(image, payload_len),
                &body(seq, payload_len)[..],
                "payload is not version {}'s bytes", seq
            );
            prop_assert!(seq >= last_seq, "version went backwards: {} < {}", seq, last_seq);
            prop_assert!(seq <= writer.published, "read a version never published");
            last_seq = seq;
        }
    }

    /// Oh-RAM's capture over the clean layout makes the same atomicity
    /// promise: delivered images carry an even (unlocked) version whose
    /// payload is byte-exact, versions never decrease, and the capture
    /// terminates once the writer quiesces.
    #[test]
    fn ohram_capture_is_monotone_consistent_and_terminates(
        schedule in proptest::collection::vec(any::<bool>(), 0..600),
        payload_len in 1usize..160,
    ) {
        let base = Addr::new(0);
        let mut mem = NodeMemory::new(1 << 16);
        mem.write(base + 16, &body(0, payload_len));
        let wire = ((16 + payload_len).div_ceil(BLOCK_BYTES) * BLOCK_BYTES) as u32;
        let mut writer = ModelWriter::new(base, payload_len, false);
        let mut reader = ModelReader::new(CaptureKind::OhRam, base, wire);
        for writer_turn in schedule {
            if writer_turn {
                writer.step(&mut mem, &mut reader.cap);
            } else {
                reader.step(&mem);
            }
        }
        writer.finish_version(&mut mem, &mut reader.cap);
        let before = reader.delivered.len();
        for _ in 0..4 * (wire as usize / BLOCK_BYTES + 2) {
            if reader.delivered.len() > before {
                break;
            }
            reader.step(&mem);
        }
        prop_assert!(
            reader.delivered.len() > before,
            "capture failed to deliver against a quiescent writer"
        );
        let mut last_version = 0u64;
        for image in &reader.delivered {
            let version = u64::from_le_bytes(image[..8].try_into().expect("8 bytes"));
            prop_assert_eq!(version % 2, 0, "delivered a locked (mid-update) image");
            let seq = version / 2;
            prop_assert_eq!(
                &image[16..16 + payload_len],
                &body(seq, payload_len)[..],
                "payload is not version {}'s bytes", seq
            );
            prop_assert!(version >= last_version, "version went backwards");
            prop_assert!(seq <= writer.published, "read a version never published");
            last_version = version;
        }
    }
}

/// Oh-RAM's fabric bound, measured on a real two-node scenario with the
/// shipped pipeline: the reader transmits *exactly two* packets per read —
/// the query and the relayed confirm — against the per-block request
/// stream a SABRe emits, and the whole exchange routes at most 3/4 the
/// hops of the two-round SABRe (1.5 rounds vs 2).
#[test]
fn ohram_read_is_one_and_a_half_rounds_on_the_fabric() {
    use sabre_farm::{ScenarioStoreExt, StoreLayout};
    use sabre_rack::{spec, ReadMechanism, ScenarioBuilder};
    use sabre_sim::Time;

    let run = |mech: ReadMechanism| {
        let (scenario, _store) =
            ScenarioBuilder::new().store(1, StoreLayout::Clean, 1024, Some(64));
        let wire = StoreLayout::Clean.object_bytes(1024) as u32;
        let report = scenario
            .reader_spec(
                0,
                0,
                spec().store(1).payload(1024).mechanism(mech).wire(wire),
            )
            .run_for(Time::from_us(100));
        let ops = report.core(0, 0).ops;
        assert!(ops > 0, "{mech:?}: no ops completed");
        let reader_sent = report.node(0).hops.packets;
        let hops = report.rack().hops.hops;
        (ops, reader_sent, hops)
    };

    let (oh_ops, oh_sent, oh_hops) = run(ReadMechanism::OhRam { payload: 1024 });
    let (sa_ops, sa_sent, sa_hops) = run(ReadMechanism::Sabre);

    // Client side of 1.5 rounds: one query + one confirm per completed
    // read (at most one further query already in flight at cutoff).
    assert!(
        oh_sent >= 2 * oh_ops && oh_sent <= 2 * oh_ops + 2,
        "Oh-RAM reader sent {oh_sent} packets over {oh_ops} ops — not 2/op"
    );
    // A SABRe's reader streams per-block requests: many packets per read.
    assert!(
        sa_sent * oh_ops > 4 * oh_sent * sa_ops,
        "SABRe reader sent {sa_sent}/{sa_ops} ops — expected >8x Oh-RAM's rate"
    );
    // Total fabric work: 1.5 rounds route at most 3/4 of 2 rounds' hops.
    let oh_rate = oh_hops as f64 / oh_ops as f64;
    let sa_rate = sa_hops as f64 / sa_ops as f64;
    assert!(
        oh_rate <= 0.75 * sa_rate,
        "Oh-RAM {oh_rate:.1} hops/op vs SABRe {sa_rate:.1}: above the 1.5/2-round bound"
    );
}
