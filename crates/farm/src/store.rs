//! The object store: a registered region of fixed-size object slots, laid
//! out in one [`StoreLayout`].
//!
//! The layout itself — footprint, wire size, initial image, the writer's
//! update stores and the reader's validation — is
//! [`sabre_rack::StoreLayout`], re-exported here; an [`ObjectStore`] only
//! places its objects.

use sabre_mem::{Addr, NodeMemory};
use sabre_rack::workloads::pattern_payload;
pub use sabre_rack::StoreLayout;

/// Descriptor of an object store region on one node.
///
/// # Example
///
/// ```
/// use sabre_farm::{ObjectStore, StoreLayout};
/// use sabre_mem::Addr;
///
/// let store = ObjectStore::new(1, Addr::new(0), StoreLayout::Clean, 128, 100);
/// assert_eq!(store.object_addr(0), Addr::new(0));
/// assert_eq!(store.object_addr(1), Addr::new(192)); // 16 B header + 128 B, block-aligned
/// assert_eq!(store.region_bytes(), 192 * 100);
/// ```
#[derive(Debug, Clone)]
pub struct ObjectStore {
    node: u8,
    base: Addr,
    layout: StoreLayout,
    payload: u32,
    n_objects: u64,
}

impl ObjectStore {
    /// Describes a store of `n_objects` objects of `payload` clean bytes
    /// each, laid out contiguously from `base` on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not block-aligned or the store is empty.
    pub fn new(node: u8, base: Addr, layout: StoreLayout, payload: u32, n_objects: u64) -> Self {
        assert!(base.is_block_aligned(), "stores are block-aligned");
        assert!(payload > 0 && n_objects > 0, "empty store");
        ObjectStore {
            node,
            base,
            layout,
            payload,
            n_objects,
        }
    }

    /// The node owning the region.
    pub fn node(&self) -> u8 {
        self.node
    }

    /// The store's layout.
    pub fn layout(&self) -> StoreLayout {
        self.layout
    }

    /// Clean payload bytes per object.
    pub fn payload(&self) -> u32 {
        self.payload
    }

    /// Number of objects.
    pub fn n_objects(&self) -> u64 {
        self.n_objects
    }

    /// Footprint of one object slot in bytes (block multiple). This is the
    /// object *spacing*; the read transfer size is
    /// [`ObjectStore::wire_bytes`], which differs for the wait-free
    /// register layout.
    pub fn slot_bytes(&self) -> u64 {
        self.layout.object_bytes(self.payload as usize) as u64
    }

    /// Bytes a one-sided read of one object transfers.
    pub fn wire_bytes(&self) -> u64 {
        self.layout.wire_bytes(self.payload as usize) as u64
    }

    /// Total region size in bytes.
    pub fn region_bytes(&self) -> u64 {
        self.slot_bytes() * self.n_objects
    }

    /// Base address of object `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn object_addr(&self, i: u64) -> Addr {
        assert!(i < self.n_objects, "object {i} out of range");
        self.base + i * self.slot_bytes()
    }

    /// All object addresses (for workload constructors).
    pub fn object_addrs(&self) -> Vec<Addr> {
        (0..self.n_objects).map(|i| self.object_addr(i)).collect()
    }

    /// `(id, addr)` pairs for writer constructors.
    pub fn object_entries(&self) -> Vec<(u64, Addr)> {
        (0..self.n_objects)
            .map(|i| (i, self.object_addr(i)))
            .collect()
    }

    /// Initializes every object in simulated memory with its id's pattern
    /// at sequence 0 (see
    /// [`pattern_payload`]).
    ///
    /// # Panics
    ///
    /// Panics if the region does not fit in `mem`.
    pub fn init(&self, mem: &mut NodeMemory) {
        assert!(
            (self.base.raw() + self.region_bytes()) as usize <= mem.size(),
            "store region exceeds node memory"
        );
        for i in 0..self.n_objects {
            let payload = pattern_payload(i, 0, self.payload as usize);
            self.layout.init(mem, self.object_addr(i), &payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sabre_rack::workloads::verify_payload;
    use sabre_sw::layout::{CleanLayout, PerClLayout};

    #[test]
    fn slot_geometry_per_layout() {
        // 128 B payload: clean = 144 → 192; per-CL = 3 lines = 192;
        // checksum = 144 → 192.
        assert_eq!(StoreLayout::Clean.object_bytes(128), 192);
        assert_eq!(StoreLayout::PerCl.object_bytes(128), 192);
        assert_eq!(StoreLayout::Checksum.object_bytes(128), 192);
        // 8 KB payload: clean = 8256; per-CL = 9408.
        assert_eq!(StoreLayout::Clean.object_bytes(8192), 8256);
        assert_eq!(StoreLayout::PerCl.object_bytes(8192), 9408);
        // Wait-free register: footprint is 4 slots + header, but the wire
        // carries only the header + one slot.
        assert_eq!(StoreLayout::WfRegister.object_bytes(128), 64 + 4 * 192);
        assert_eq!(StoreLayout::WfRegister.wire_bytes(128), 64 + 192);
        assert_eq!(StoreLayout::Clean.wire_bytes(128), 192);
    }

    #[test]
    fn wf_register_init_round_trip() {
        use sabre_sw::WfRegisterLayout;
        let store = ObjectStore::new(0, Addr::new(0), StoreLayout::WfRegister, 100, 4);
        assert_eq!(store.wire_bytes(), 64 + 128);
        let mut mem = NodeMemory::new(store.region_bytes() as usize);
        store.init(&mut mem);
        for i in 0..4 {
            let base = store.object_addr(i);
            assert_eq!(WfRegisterLayout::unpack(mem.read_u64(base)), (0, 0));
            let slot0 = WfRegisterLayout::slot_addr(base, 0, 100);
            assert_eq!(verify_payload(i, &mem.read_vec(slot0 + 8, 100)), Some(0));
        }
    }

    #[test]
    fn init_produces_validatable_objects() {
        let store = ObjectStore::new(0, Addr::new(0), StoreLayout::PerCl, 200, 10);
        let mut mem = NodeMemory::new(store.region_bytes() as usize);
        store.init(&mut mem);
        for i in 0..10 {
            let image = mem.read_vec(store.object_addr(i), store.slot_bytes() as usize);
            let clean = PerClLayout::validate_and_strip(&image, 200).expect("fresh object");
            assert_eq!(verify_payload(i, &clean), Some(0));
        }
    }

    #[test]
    fn clean_init_round_trip() {
        let store = ObjectStore::new(0, Addr::new(64), StoreLayout::Clean, 100, 4);
        let mut mem = NodeMemory::new(64 + store.region_bytes() as usize);
        store.init(&mut mem);
        let image = mem.read_vec(store.object_addr(2), store.slot_bytes() as usize);
        assert_eq!(
            verify_payload(2, CleanLayout::payload_of(&image, 100)),
            Some(0)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn object_bounds_checked() {
        let store = ObjectStore::new(0, Addr::new(0), StoreLayout::Clean, 64, 2);
        let _ = store.object_addr(2);
    }

    #[test]
    #[should_panic(expected = "exceeds node memory")]
    fn region_must_fit() {
        let store = ObjectStore::new(0, Addr::new(0), StoreLayout::Clean, 1024, 1000);
        let mut mem = NodeMemory::new(4096);
        store.init(&mut mem);
    }
}
