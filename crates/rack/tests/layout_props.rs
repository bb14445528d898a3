//! Round-trip property of [`StoreLayout`]: the writer's half of a layout
//! (initial image, update stores, publish word) and the reader's half
//! ([`StoreLayout::validate`]) agree, for every layout, payloads of
//! 1–2048 B and block-aligned bases. Also pins each mechanism's wire size
//! to the per-mechanism formula it had before the layout owned it.

use proptest::prelude::*;

use sabre_mem::{Addr, NodeMemory, BLOCK_BYTES};
use sabre_rack::workloads::pattern_payload;
use sabre_rack::{ReadMechanism, StoreLayout, UpdatePlan};
use sabre_sw::layout::{CleanLayout, PerClLayout};
use sabre_sw::{ChecksumLayout, VersionWord, WfRegisterLayout};

const LAYOUTS: [StoreLayout; 4] = [
    StoreLayout::Clean,
    StoreLayout::PerCl,
    StoreLayout::Checksum,
    StoreLayout::WfRegister,
];

/// The image a one-sided read of the object at `base` delivers: the whole
/// object, or for the wait-free register the header block followed by the
/// published slot, as the capture ships them.
fn wire_image(layout: StoreLayout, mem: &NodeMemory, base: Addr, payload: usize) -> Vec<u8> {
    let image = if layout == StoreLayout::WfRegister {
        let (_, slot) = WfRegisterLayout::unpack(mem.read_u64(base));
        let mut image = mem.read_vec(base, WfRegisterLayout::HEADER_BYTES);
        let slot_base = WfRegisterLayout::slot_addr(base, slot, payload);
        image.extend(mem.read_vec(slot_base, WfRegisterLayout::slot_bytes(payload)));
        image
    } else {
        mem.read_vec(base, layout.object_bytes(payload))
    };
    assert_eq!(image.len(), layout.wire_bytes(payload));
    image
}

/// What the reader's check makes of the object at `base`, from the wire
/// image and from the whole in-memory footprint; both must agree.
fn read_back(layout: StoreLayout, mem: &NodeMemory, base: Addr, payload: usize) -> Option<Vec<u8>> {
    let wire = wire_image(layout, mem, base, payload);
    let from_wire = layout.validate(&wire, payload).map(|p| p.into_owned());
    let whole = mem.read_vec(base, layout.object_bytes(payload));
    let from_whole = layout.validate(&whole, payload).map(|p| p.into_owned());
    assert_eq!(from_wire, from_whole, "wire and footprint images disagree");
    from_wire
}

/// The wire bytes of each mechanism, written out as the per-mechanism
/// formula `ReadMechanism::wire_bytes` used before [`StoreLayout`] owned
/// the sizes.
fn reference_wire_bytes(mech: ReadMechanism, payload: u32) -> u32 {
    let p = payload as usize;
    match mech {
        ReadMechanism::Raw | ReadMechanism::Sabre => payload,
        ReadMechanism::PerClValidate { .. } => PerClLayout::wire_bytes(p) as u32,
        ReadMechanism::ChecksumValidate { .. } => ChecksumLayout::object_bytes(p) as u32,
        ReadMechanism::WfRegister { .. } => WfRegisterLayout::wire_bytes(p) as u32,
        ReadMechanism::OhRam { .. } | ReadMechanism::SourceLocking { .. } => {
            CleanLayout::object_bytes(p) as u32
        }
    }
}

proptest! {
    #[test]
    fn writer_and_reader_halves_agree(
        layout in 0usize..4,
        payload in 1usize..2049,
        block in 0u64..64,
        obj_id in 0u64..1 << 20,
    ) {
        let layout = LAYOUTS[layout];
        let base = Addr::new(block * BLOCK_BYTES as u64);
        let mut mem = NodeMemory::new(base.raw() as usize + layout.object_bytes(payload));

        layout.init(&mut mem, base, &pattern_payload(obj_id, 0, payload));
        prop_assert_eq!(
            read_back(layout, &mem, base, payload),
            Some(pattern_payload(obj_id, 0, payload))
        );

        // One full update, as a writer performs it: the lock store, every
        // planned store, then the publish word.
        let va = layout.version_addr(base);
        let version = mem.read_u64(va);
        if layout.takes_lock() {
            mem.write_u64(va, VersionWord::new(version).locked().raw());
        }
        let mut plan = UpdatePlan::new();
        plan.rebuild(layout, base, obj_id, 1, payload, version);
        let mut i = 0;
        while let Some((addr, data)) = plan.store(i) {
            mem.write(addr, data);
            i += 1;
        }
        mem.write_u64(va, layout.publish_word(version));

        prop_assert_eq!(
            read_back(layout, &mem, base, payload),
            Some(pattern_payload(obj_id, 1, payload))
        );
        let published = mem.read_u64(va);
        prop_assert_eq!(published, layout.publish_word(version));
        // Version 0 + 2, or seq 1 in the slot after slot 0.
        let expected = match layout {
            StoreLayout::WfRegister => WfRegisterLayout::pack(1, 1),
            _ => 2,
        };
        prop_assert_eq!(published, expected);
    }

    #[test]
    fn mechanism_wire_sizes_match_the_reference(payload in 1u32..2049) {
        for mech in [
            ReadMechanism::Raw,
            ReadMechanism::Sabre,
            ReadMechanism::PerClValidate { payload },
            ReadMechanism::ChecksumValidate { payload },
            ReadMechanism::WfRegister { payload },
            ReadMechanism::OhRam { payload },
        ] {
            prop_assert_eq!(mech.wire_bytes(payload), reference_wire_bytes(mech, payload));
        }
    }
}
