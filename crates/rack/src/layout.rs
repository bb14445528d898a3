//! The object layout: the one choice the paper's evaluation toggles
//! between its baselines and SABRes, with every per-layout fact in one
//! place.
//!
//! [`StoreLayout`] owns the *store* view of a layout (footprint, wire size,
//! initial image), its *reader* view ([`StoreLayout::validate`], the
//! matching [`ReadMechanism`]) and its *writer* view: the version word an
//! update locks and publishes through, and the stores of one update, which
//! an [`UpdatePlan`] builds and walks.

use std::borrow::Cow;
use std::ops::Range;

use sabre_mem::{Addr, NodeMemory, BLOCK_BYTES};
use sabre_sim::Time;
use sabre_sw::layout::{CleanLayout, PerClLayout};
use sabre_sw::{crc64_ecma, ChecksumLayout, ReaderLockWord, VersionWord, WfRegisterLayout};

use crate::cluster::CoreApi;
use crate::workload::ReadMechanism;
use crate::workloads::fill_pattern;

/// Which object layout a store keeps and its writers maintain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreLayout {
    /// Clean layout: 16 B header + contiguous payload (SABRe variant;
    /// "unmodified object store" in Fig. 10).
    Clean,
    /// FaRM per-cache-line versions.
    PerCl,
    /// Pilaf checksums: `[crc64 | version | payload]`.
    Checksum,
    /// The wait-free multi-version register (Ianni et al.): a publish-word
    /// header block plus [`WfRegisterLayout::SLOTS`] version slots. The
    /// writer fills the next slot in rotation, then flips the publish word:
    /// it never locks, so readers never wait and never abort. Reads
    /// transfer only the header + the published slot, so the wire size is
    /// much smaller than the footprint. (Oh-RAM reads need no layout of
    /// their own — they run over [`StoreLayout::Clean`] objects.)
    WfRegister,
}

impl StoreLayout {
    /// In-memory footprint of one object with `payload` clean bytes,
    /// rounded up to whole blocks (slots are block-aligned).
    pub fn object_bytes(self, payload: usize) -> usize {
        match self {
            StoreLayout::Clean => CleanLayout::object_bytes(payload),
            StoreLayout::PerCl => PerClLayout::object_bytes(payload),
            StoreLayout::Checksum => ChecksumLayout::object_bytes(payload),
            StoreLayout::WfRegister => WfRegisterLayout::object_bytes(payload),
        }
    }

    /// Bytes a one-sided read of one object must transfer. Equal to the
    /// footprint for all layouts except the wait-free register, which
    /// keeps multiple versions in memory but ships only one.
    pub fn wire_bytes(self, payload: usize) -> usize {
        match self {
            StoreLayout::WfRegister => WfRegisterLayout::wire_bytes(payload),
            _ => self.object_bytes(payload),
        }
    }

    /// Writes the initial image of an object holding `payload` at `base`:
    /// version 0 (publish word 0 for the wait-free register).
    pub fn init(self, mem: &mut NodeMemory, base: Addr, payload: &[u8]) {
        match self {
            StoreLayout::Clean => CleanLayout::init(mem, base, payload),
            StoreLayout::PerCl => PerClLayout::init(mem, base, payload),
            StoreLayout::Checksum => ChecksumLayout::init(mem, base, payload),
            StoreLayout::WfRegister => WfRegisterLayout::init(mem, base, payload),
        }
    }

    /// Address of the word the update protocol locks and publishes
    /// through. The checksummed layout keeps its version behind the CRC;
    /// everyone else leads with it.
    pub fn version_addr(self, base: Addr) -> Addr {
        match self {
            StoreLayout::Checksum => base + 8,
            _ => base,
        }
    }

    /// Whether an update begins by storing the locked (odd) version. The
    /// wait-free register never locks: the word at `base` is a *publish
    /// word* (`seq × slots + slot`), and writing in-place slots are
    /// invisible to readers until it flips.
    pub fn takes_lock(self) -> bool {
        !matches!(self, StoreLayout::WfRegister)
    }

    /// The word that publishes a finished update, given the version read
    /// at lock time.
    pub fn publish_word(self, locked_version: u64) -> u64 {
        match self {
            StoreLayout::WfRegister => {
                let (seq, slot) = WfRegisterLayout::unpack(locked_version);
                WfRegisterLayout::pack(seq + 1, (slot + 1) % WfRegisterLayout::SLOTS)
            }
            _ => locked_version + 2,
        }
    }

    /// Appends to `plan` the stores of one update of the object at `base`
    /// whose payload pattern heads `plan.bytes`, in protocol order.
    fn push_stores(
        self,
        plan: &mut UpdatePlan,
        base: Addr,
        payload_len: usize,
        locked_version: u64,
    ) {
        match self {
            StoreLayout::Clean => {
                plan.push_split(base + CleanLayout::HEADER_BYTES as u64, payload_len);
            }
            StoreLayout::PerCl => {
                // The head line comes *last*: it carries the header version
                // every stamp is compared against, so writing it last
                // publishes the update atomically with respect to the
                // stamp check.
                let next_version = VersionWord::new(locked_version + 2);
                for line in (0..PerClLayout::lines_needed(payload_len)).rev() {
                    let encoded =
                        PerClLayout::encode_line(next_version, &plan.bytes[..payload_len], line);
                    plan.push_bytes(base + (line * BLOCK_BYTES) as u64, &encoded);
                }
            }
            StoreLayout::Checksum => {
                plan.push_split(base + ChecksumLayout::HEADER_BYTES as u64, payload_len);
                // The CRC of the finished payload lands last, just before
                // the version word (at +8) publishes the update.
                let crc = crc64_ecma(&plan.bytes[..payload_len]);
                plan.push_bytes(base, &crc.to_le_bytes());
            }
            StoreLayout::WfRegister => {
                // Write the *next* slot in rotation; readers keep
                // snapshotting the published one undisturbed. The slot's
                // own seq word goes last so a capture of a half-written
                // slot is recognizably stale, and the publish word flips
                // readers over atomically.
                let (pub_seq, slot) = WfRegisterLayout::unpack(locked_version);
                let next_slot = (slot + 1) % WfRegisterLayout::SLOTS;
                let slot_base = WfRegisterLayout::slot_addr(base, next_slot, payload_len);
                plan.push_split(
                    slot_base + WfRegisterLayout::SLOT_HEADER_BYTES as u64,
                    payload_len,
                );
                plan.push_bytes(slot_base, &(pub_seq + 1).to_le_bytes());
            }
        }
    }

    /// The reader's check of an object image: the clean `payload` bytes if
    /// the image is one consistent version, `None` if the reader must
    /// retry. Clean objects are consistent unless their version is locked;
    /// per-CL objects when every stamp matches the even header version
    /// (stripped into a fresh buffer); checksummed objects when the CRC
    /// matches. A wait-free register image is always consistent: either
    /// the wire image (header + the published slot, as the capture ships
    /// it) or the whole footprint, in which case the publish word names
    /// the slot.
    ///
    /// # Panics
    ///
    /// Panics if `image` is too short for `payload`, or (per-CL) is not
    /// exactly its footprint.
    pub fn validate(self, image: &[u8], payload: usize) -> Option<Cow<'_, [u8]>> {
        match self {
            StoreLayout::Clean => (!CleanLayout::version_of(image).is_locked())
                .then(|| Cow::Borrowed(CleanLayout::payload_of(image, payload))),
            StoreLayout::PerCl => PerClLayout::validate_and_strip(image, payload)
                .ok()
                .map(Cow::Owned),
            StoreLayout::Checksum => ChecksumLayout::validate(image, payload)
                .ok()
                .map(Cow::Borrowed),
            StoreLayout::WfRegister => {
                let slot = if image.len() >= self.object_bytes(payload) {
                    WfRegisterLayout::published_of(image).1 as usize
                } else {
                    0
                };
                let image = &image[slot * WfRegisterLayout::slot_bytes(payload)..];
                Some(Cow::Borrowed(WfRegisterLayout::payload_of(image, payload)))
            }
        }
    }

    /// Whether `image` holds one consistent version of the object:
    /// [`StoreLayout::validate`] without the per-CL strip's payload copy,
    /// so it never allocates.
    pub fn is_consistent(self, image: &[u8], payload: usize) -> bool {
        match self {
            StoreLayout::PerCl => PerClLayout::validate(image, payload).is_ok(),
            _ => self.validate(image, payload).is_some(),
        }
    }

    /// The reader mechanism FaRM uses over this layout: SABRes over clean
    /// objects, software validation over the baselines, the capture over
    /// the wait-free register.
    pub fn mechanism(self, payload: u32) -> ReadMechanism {
        match self {
            StoreLayout::Clean => ReadMechanism::Sabre,
            StoreLayout::PerCl => ReadMechanism::PerClValidate { payload },
            StoreLayout::Checksum => ReadMechanism::ChecksumValidate { payload },
            StoreLayout::WfRegister => ReadMechanism::WfRegister { payload },
        }
    }

    /// The layout whose whole objects a mechanism's reads transfer, with
    /// the clean payload bytes the mechanism names: its own layout for the
    /// software and captured mechanisms, [`StoreLayout::Clean`] for
    /// Oh-RAM and source locking. `None` for raw reads and SABRes, which
    /// move exactly the bytes they request.
    pub fn of_mechanism(mech: ReadMechanism) -> Option<(StoreLayout, u32)> {
        match mech {
            ReadMechanism::Raw | ReadMechanism::Sabre => None,
            ReadMechanism::PerClValidate { payload } => Some((StoreLayout::PerCl, payload)),
            ReadMechanism::ChecksumValidate { payload } => Some((StoreLayout::Checksum, payload)),
            ReadMechanism::WfRegister { payload } => Some((StoreLayout::WfRegister, payload)),
            ReadMechanism::OhRam { payload } | ReadMechanism::SourceLocking { payload } => {
                Some((StoreLayout::Clean, payload))
            }
        }
    }
}

/// The sequence of single-block stores one object update performs under a
/// [`StoreLayout`], in protocol order, and the version word stores around
/// them. Walked by every shape of the one
/// [`Writer`](crate::workloads::Writer).
///
/// A writer [`start`](UpdatePlan::start)s an update (lock, then rebuild the
/// plan once) and [`step`](UpdatePlan::step)s it once per wake: each step
/// is one store from one reused buffer, with no allocation or copying, and
/// the last one publishes.
#[derive(Debug, Clone, Default)]
pub struct UpdatePlan {
    /// The payload pattern, followed by any bytes the layout stores on top
    /// of it (per-CL lines, the CRC, the slot's seq word).
    bytes: Vec<u8>,
    /// Each store's target and its bytes within `bytes`.
    stores: Vec<(Addr, Range<usize>)>,
    /// The version word's address and the word that publishes the update.
    publish: (Addr, u64),
    /// The step the next wake takes.
    next: usize,
}

/// How long a writer waits before re-checking a held reader lock or a
/// version word a remote reader has locked.
const READER_LOCK_SPIN: Time = Time::from_ns(10);

impl UpdatePlan {
    /// An empty plan; [`rebuild`](UpdatePlan::rebuild) fills it.
    pub fn new() -> Self {
        UpdatePlan::default()
    }

    /// Starts update `seq` of `object` (its id and base address), the
    /// steps every writer shares. With the object's shared reader lock
    /// held under destination locking
    /// ([`ClusterConfig::reader_locks`](crate::ClusterConfig::reader_locks)),
    /// or with the version word already locked (odd) on a layout that
    /// locks — a source-locking reader holds it — it stores nothing,
    /// sleeps one spin and returns `false`: the caller retries on wake.
    /// Otherwise it reads
    /// the version word, stores it locked (if the layout locks), rebuilds
    /// the plan and sleeps one store interval before store 0, returning
    /// `true`.
    pub fn start(
        &mut self,
        api: &mut CoreApi<'_>,
        layout: StoreLayout,
        (obj_id, base): (u64, Addr),
        seq: u64,
        payload_len: usize,
    ) -> bool {
        if api.config().reader_locks() {
            let readers = api.read_local_u64(base + ReaderLockWord::OFFSET_FROM_VERSION);
            if readers > 0 {
                api.sleep(READER_LOCK_SPIN);
                return false;
            }
        }
        let va = layout.version_addr(base);
        let v = VersionWord::new(api.read_local_u64(va));
        if layout.takes_lock() {
            if v.is_locked() {
                api.sleep(READER_LOCK_SPIN);
                return false;
            }
            api.store_local_u64(va, v.locked().raw());
        }
        self.rebuild(layout, base, obj_id, seq, payload_len, v.raw());
        api.sleep(api.config().writer_store_interval);
        true
    }

    /// One wake of the update in progress. The first wakes each perform
    /// one store and sleep one store interval; the wake after the last
    /// store finds none and sleeps one more interval; the next stores the
    /// even version + 2 (or the next slot's publish word for the wait-free
    /// register) and returns `true`: the update is done and the caller
    /// decides what the core does next.
    pub fn step(&mut self, api: &mut CoreApi<'_>) -> bool {
        let i = self.next;
        self.next += 1;
        match self.store(i) {
            Some((addr, data)) => api.store_local(addr, data),
            None if i > self.stores.len() => {
                let (addr, word) = self.publish;
                api.store_local_u64(addr, word);
                return true;
            }
            None => {}
        }
        api.sleep(api.config().writer_store_interval);
        false
    }

    /// Replaces the plan with the stores of update `seq` of object `obj_id`
    /// at `base`, given the version word read at lock time, and rewinds it
    /// to its first step.
    ///
    /// # Panics
    ///
    /// Panics on a per-CL update with `payload_len == 0`.
    pub fn rebuild(
        &mut self,
        layout: StoreLayout,
        base: Addr,
        obj_id: u64,
        seq: u64,
        payload_len: usize,
        locked_version: u64,
    ) {
        self.bytes.clear();
        self.bytes.resize(payload_len, 0);
        fill_pattern(&mut self.bytes, obj_id, seq);
        self.stores.clear();
        self.next = 0;
        self.publish = (
            layout.version_addr(base),
            layout.publish_word(locked_version),
        );
        layout.push_stores(self, base, payload_len, locked_version);
    }

    /// Splits the `len`-byte payload (the head of `bytes`) on absolute
    /// cache-block boundaries into stores starting at `start`.
    fn push_split(&mut self, start: Addr, len: usize) {
        let mut off = 0;
        while off < len {
            let addr = start + off as u64;
            let end = (off + BLOCK_BYTES - addr.block_offset()).min(len);
            self.stores.push((addr, off..end));
            off = end;
        }
    }

    /// Appends one store of `data` at `addr`.
    fn push_bytes(&mut self, addr: Addr, data: &[u8]) {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(data);
        self.stores.push((addr, start..self.bytes.len()));
    }

    /// Store `i` of the plan, or `None` once the plan is done.
    pub fn store(&self, i: usize) -> Option<(Addr, &[u8])> {
        self.stores
            .get(i)
            .map(|(addr, range)| (*addr, &self.bytes[range.clone()]))
    }
}
