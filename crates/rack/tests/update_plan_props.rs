//! Property test of [`UpdatePlan`]: the store plan a writer builds once per
//! update must yield exactly the `(addr, bytes)` sequence the original
//! per-store rebuild produced, for every writer layout, payload size,
//! block offset of the object base and lock-time version word.
//!
//! The reference below is that original rebuild, kept verbatim as the
//! specification of one object update's stores.

use proptest::prelude::*;

use sabre_mem::{Addr, BLOCK_BYTES};
use sabre_rack::workloads::pattern_payload;
use sabre_rack::{StoreLayout, UpdatePlan};
use sabre_sw::layout::{CleanLayout, PerClLayout};
use sabre_sw::{crc64_ecma, ChecksumLayout, VersionWord, WfRegisterLayout};

/// The single-block stores of one object update, rebuilt from scratch
/// (the allocation-per-call form [`UpdatePlan`] replaces).
fn reference_update_chunks(
    layout: StoreLayout,
    base: Addr,
    obj_id: u64,
    seq: u64,
    payload_len: usize,
    locked_version: u64,
) -> Vec<(Addr, Vec<u8>)> {
    let payload = pattern_payload(obj_id, seq, payload_len);
    match layout {
        StoreLayout::Clean => {
            let start = base + CleanLayout::HEADER_BYTES as u64;
            let mut out = Vec::new();
            let mut off = 0usize;
            while off < payload.len() {
                let addr = start + off as u64;
                let room = BLOCK_BYTES - addr.block_offset();
                let end = (off + room).min(payload.len());
                out.push((addr, payload[off..end].to_vec()));
                off = end;
            }
            out
        }
        StoreLayout::PerCl => {
            let lines = PerClLayout::lines_needed(payload.len());
            let next_version = VersionWord::new(locked_version + 2);
            let mut out = Vec::new();
            for line in (0..lines).rev() {
                let addr = base + (line * BLOCK_BYTES) as u64;
                out.push((
                    addr,
                    PerClLayout::encode_line(next_version, &payload, line).to_vec(),
                ));
            }
            out
        }
        StoreLayout::Checksum => {
            let start = base + ChecksumLayout::HEADER_BYTES as u64;
            let mut out = Vec::new();
            let mut off = 0usize;
            while off < payload.len() {
                let addr = start + off as u64;
                let room = BLOCK_BYTES - addr.block_offset();
                let end = (off + room).min(payload.len());
                out.push((addr, payload[off..end].to_vec()));
                off = end;
            }
            out.push((base, crc64_ecma(&payload).to_le_bytes().to_vec()));
            out
        }
        StoreLayout::WfRegister => {
            let (pub_seq, slot) = WfRegisterLayout::unpack(locked_version);
            let next_slot = (slot + 1) % WfRegisterLayout::SLOTS;
            let slot_base = WfRegisterLayout::slot_addr(base, next_slot, payload.len());
            let start = slot_base + WfRegisterLayout::SLOT_HEADER_BYTES as u64;
            let mut out = Vec::new();
            let mut off = 0usize;
            while off < payload.len() {
                let addr = start + off as u64;
                let room = BLOCK_BYTES - addr.block_offset();
                let end = (off + room).min(payload.len());
                out.push((addr, payload[off..end].to_vec()));
                off = end;
            }
            out.push((slot_base, (pub_seq + 1).to_le_bytes().to_vec()));
            out
        }
    }
}

const LAYOUTS: [StoreLayout; 4] = [
    StoreLayout::Clean,
    StoreLayout::PerCl,
    StoreLayout::Checksum,
    StoreLayout::WfRegister,
];

/// One object update: layout, base, object id, seq, payload length and the
/// version word read at lock time.
type Update = (StoreLayout, Addr, u64, u64, usize, u64);

/// Updates of 1–2048 B payloads at bases anywhere within a block, with lock
/// words spanning many per-CL stamps and every wait-free register slot.
fn updates() -> impl Strategy<Value = Update> {
    (
        (0usize..4, 0u64..1 << 20, 0u64..BLOCK_BYTES as u64),
        (any::<u64>(), any::<u64>()),
        (1usize..2049, 0u64..1 << 40),
    )
        .prop_map(|((layout, block, offset), (obj_id, seq), (len, version))| {
            let base = Addr::new(block * BLOCK_BYTES as u64 + offset);
            (LAYOUTS[layout], base, obj_id, seq, len, version)
        })
}

/// The plan's stores in order, as `(addr, bytes)` pairs.
fn plan_stores(plan: &UpdatePlan) -> Vec<(Addr, Vec<u8>)> {
    (0..)
        .map_while(|i| plan.store(i))
        .map(|(addr, data)| (addr, data.to_vec()))
        .collect()
}

proptest! {
    #[test]
    fn plan_matches_reference(update in updates()) {
        let (layout, base, obj_id, seq, len, version) = update;
        let mut plan = UpdatePlan::new();
        plan.rebuild(layout, base, obj_id, seq, len, version);
        let expected = reference_update_chunks(layout, base, obj_id, seq, len, version);
        prop_assert_eq!(plan_stores(&plan), expected);
    }

    #[test]
    fn reused_plan_forgets_the_previous_update(first in updates(), second in updates()) {
        // Writers keep one plan for their lifetime: nothing of the previous
        // update (longer payload, other layout) may leak into the next.
        let mut plan = UpdatePlan::new();
        let (layout, base, obj_id, seq, len, version) = first;
        plan.rebuild(layout, base, obj_id, seq, len, version);
        let (layout, base, obj_id, seq, len, version) = second;
        plan.rebuild(layout, base, obj_id, seq, len, version);
        prop_assert_eq!(
            plan_stores(&plan),
            reference_update_chunks(layout, base, obj_id, seq, len, version)
        );
    }

    #[test]
    fn every_store_stays_within_one_block(update in updates()) {
        let (layout, base, obj_id, seq, len, version) = update;
        // Per-CL lines and header words need the block-aligned bases every
        // object store hands out; the clean payload split takes any base.
        let base = match layout {
            StoreLayout::Clean => base,
            _ => base.align_down_to_block(),
        };
        let mut plan = UpdatePlan::new();
        plan.rebuild(layout, base, obj_id, seq, len, version);
        for (addr, data) in plan_stores(&plan) {
            prop_assert!(!data.is_empty());
            prop_assert_eq!(addr.block(), (addr + (data.len() as u64 - 1)).block());
        }
    }
}

#[test]
fn percl_stamps_and_register_slots_follow_the_lock_word() {
    // Hand-picked corners the random stream may visit rarely: the per-CL
    // head line last, stamped at the lock word + 2, and the register
    // rotating from its last slot back to slot 0.
    let base = Addr::new(4096);
    let mut plan = UpdatePlan::new();
    plan.rebuild(StoreLayout::PerCl, base, 7, 3, 120, 10);
    let stores = plan_stores(&plan);
    let heads: Vec<Addr> = stores.iter().map(|(addr, _)| *addr).collect();
    assert_eq!(heads, [base + 128u64, base + 64u64, base]);
    for (_, line) in &stores {
        assert_eq!(u64::from_le_bytes(line[..8].try_into().unwrap()), 12);
    }

    let last_slot = WfRegisterLayout::pack(5, WfRegisterLayout::SLOTS - 1);
    plan.rebuild(StoreLayout::WfRegister, base, 7, 3, 120, last_slot);
    let (seq_addr, seq_word) = plan_stores(&plan).pop().unwrap();
    assert_eq!(seq_addr, WfRegisterLayout::slot_addr(base, 0, 120));
    assert_eq!(seq_word, 6u64.to_le_bytes());
}
