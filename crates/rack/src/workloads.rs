//! Reusable workload programs: the microbenchmark readers and writers of
//! §6/§7 ("a number of writer threads that update objects in their local
//! memory, or reader threads that access objects in remote memory using
//! one-sided soNUMA operations in a tight loop").

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::ops::Range;

use sabre_mem::{Addr, BLOCK_BYTES};
use sabre_sim::{SimRng, Time, Zipf};
use sabre_sonuma::CqEntry;
use sabre_sw::cost::DataSource;
use sabre_sw::layout::{CleanLayout, PerClLayout};
use sabre_sw::{crc64_ecma, tag_board_addr, ChecksumLayout, VersionWord, WfRegisterLayout};

use crate::cluster::CoreApi;
use crate::metrics::Phase;
use crate::spec::{Arrivals, Popularity};
use crate::workload::{ReadMechanism, Workload};

/// Generates the recognizable payload a writer stores: `[obj_id u64 | seq
/// u64 | filler…]`, with the filler byte derived from both. Readers and
/// property tests use [`verify_payload`] to prove a read was not torn.
pub fn pattern_payload(obj_id: u64, seq: u64, payload_len: usize) -> Vec<u8> {
    let mut out = vec![0u8; payload_len];
    fill_pattern(&mut out, obj_id, seq);
    out
}

/// Writes [`pattern_payload`]`(obj_id, seq, out.len())` into `out`.
fn fill_pattern(out: &mut [u8], obj_id: u64, seq: u64) {
    let fill = (obj_id.wrapping_mul(31).wrapping_add(seq) & 0xFF) as u8;
    out.fill(fill);
    if out.len() >= 8 {
        out[..8].copy_from_slice(&obj_id.to_le_bytes());
    }
    if out.len() >= 16 {
        out[8..16].copy_from_slice(&seq.to_le_bytes());
    }
}

/// Verifies a payload produced by [`pattern_payload`]: returns the sequence
/// number if the bytes form one consistent snapshot, `None` if torn.
pub fn verify_payload(obj_id: u64, data: &[u8]) -> Option<u64> {
    if data.len() < 16 {
        // Too small to carry the ids; check filler consistency only.
        return data
            .iter()
            .all(|&b| b == data[0])
            .then_some(u64::from(data[0]));
    }
    let stored_id = u64::from_le_bytes(data[..8].try_into().expect("8 bytes"));
    let seq = u64::from_le_bytes(data[8..16].try_into().expect("8 bytes"));
    if stored_id != obj_id {
        return None;
    }
    let fill = (obj_id.wrapping_mul(31).wrapping_add(seq) & 0xFF) as u8;
    data[16..].iter().all(|&b| b == fill).then_some(seq)
}

/// The sequence of single-block stores one object update performs under a
/// [`WriterLayout`], in protocol order (the version word stores around them
/// are the caller's job). Shared by local [`Writer`]s and the FaRM writers.
///
/// A writer rebuilds its plan once, when an update starts, and then walks
/// it one [`store`](UpdatePlan::store) per store interval: each step is a
/// lookup into one reused buffer, with no allocation or copying.
///
/// For the per-CL layout the head line comes *last*: it carries the header
/// version every stamp is compared against, so writing it last publishes
/// the update atomically with respect to the stamp check.
#[derive(Debug, Clone, Default)]
pub struct UpdatePlan {
    /// The payload pattern, followed by any bytes the layout stores on top
    /// of it (per-CL lines, the CRC, the slot's seq word).
    bytes: Vec<u8>,
    /// Each store's target and its bytes within `bytes`.
    stores: Vec<(Addr, Range<usize>)>,
}

impl UpdatePlan {
    /// An empty plan; [`rebuild`](UpdatePlan::rebuild) fills it.
    pub fn new() -> Self {
        UpdatePlan::default()
    }

    /// Replaces the plan with the stores of update `seq` of object `obj_id`
    /// at `base`, given the version word read at lock time.
    ///
    /// # Panics
    ///
    /// Panics on a per-CL update with `payload_len == 0`.
    pub fn rebuild(
        &mut self,
        layout: WriterLayout,
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
        match layout {
            WriterLayout::Clean => {
                self.push_split(base + CleanLayout::HEADER_BYTES as u64, payload_len);
            }
            WriterLayout::PerCl => {
                let next_version = VersionWord::new(locked_version + 2);
                for line in (0..PerClLayout::lines_needed(payload_len)).rev() {
                    let encoded =
                        PerClLayout::encode_line(next_version, &self.bytes[..payload_len], line);
                    self.push_bytes(base + (line * BLOCK_BYTES) as u64, &encoded);
                }
            }
            WriterLayout::Checksum => {
                self.push_split(base + ChecksumLayout::HEADER_BYTES as u64, payload_len);
                // The CRC of the finished payload lands last, just before
                // the version word (at +8) publishes the update.
                let crc = crc64_ecma(&self.bytes[..payload_len]);
                self.push_bytes(base, &crc.to_le_bytes());
            }
            WriterLayout::WfRegister => {
                // Write the *next* slot in rotation; readers keep
                // snapshotting the published one undisturbed. The slot's
                // own seq word goes last so a capture of a half-written
                // slot is recognizably stale, and the publish word (stored
                // by the caller) flips readers over atomically.
                let (pub_seq, slot) = WfRegisterLayout::unpack(locked_version);
                let next_slot = (slot + 1) % WfRegisterLayout::SLOTS;
                let slot_base = WfRegisterLayout::slot_addr(base, next_slot, payload_len);
                self.push_split(
                    slot_base + WfRegisterLayout::SLOT_HEADER_BYTES as u64,
                    payload_len,
                );
                self.push_bytes(slot_base, &(pub_seq + 1).to_le_bytes());
            }
        }
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

    /// One `Writing { chunk }` step of a writer: performs store `chunk` and
    /// returns `true`, or returns `false` once every store is done and the
    /// update is ready to publish.
    pub fn apply(&self, api: &mut CoreApi<'_>, chunk: usize) -> bool {
        match self.store(chunk) {
            Some((addr, data)) => {
                api.store_local(addr, data);
                true
            }
            None => false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReaderState {
    Idle,
    AwaitTransfer,
    AwaitStrip,
    AwaitConsume,
    Backoff,
}

/// A reader thread issuing synchronous one-sided operations in a tight
/// loop, with the mechanism-appropriate post-processing and immediate
/// retry on atomicity failure.
#[derive(Debug)]
pub struct SyncReader {
    dst_node: u8,
    objects: Vec<Addr>,
    payload: u32,
    mech: ReadMechanism,
    local_buf: Option<Addr>,
    remaining: Option<u64>,
    /// Model the application reading the clean object after a SABRe (the
    /// §7.2 microbenchmark semantics: "a remote operation completes when
    /// the clean data is read by the core").
    consume: bool,
    /// Pause before retrying a failed read (§5.1: retry policy is
    /// software's choice; zero = immediate retry, the Fig. 8 policy).
    backoff: Time,
    /// Explicit transfer size (store-backed readers pass the store's slot
    /// footprint; defaults to the mechanism's natural wire size).
    wire_override: Option<u32>,
    /// Outstanding Oh-RAM confirm writes (fire-and-forget; completions are
    /// matched by `wq_id` and discarded).
    confirm_inflight: HashSet<u64>,
    cur_obj: usize,
    t0: Time,
    state: ReaderState,
}

impl SyncReader {
    /// The one true constructor, fed by [`WorkloadSpec::build`]
    /// (crate::spec::WorkloadSpec::build). Field-for-field what the
    /// deprecated builder chain used to assemble, so spec-built readers
    /// replay bit-identically to legacy ones.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        dst_node: u8,
        objects: Vec<Addr>,
        payload: u32,
        mech: ReadMechanism,
        local_buf: Option<Addr>,
        remaining: Option<u64>,
        consume: bool,
        backoff: Time,
        wire_override: Option<u32>,
    ) -> Self {
        SyncReader {
            dst_node,
            objects,
            payload,
            mech,
            local_buf,
            remaining,
            consume,
            backoff,
            wire_override,
            confirm_inflight: HashSet::new(),
            cur_obj: 0,
            t0: Time::ZERO,
            state: ReaderState::Idle,
        }
    }

    /// A reader that runs until the simulation ends. The local buffer is
    /// placed automatically (per-core slot in the upper half of memory).
    #[deprecated(note = "declare the reader with sabre_rack::spec() instead")]
    pub fn endless(dst_node: u8, objects: Vec<Addr>, payload: u32, mech: ReadMechanism) -> Self {
        SyncReader::assemble(
            dst_node,
            objects,
            payload,
            mech,
            None,
            None,
            false,
            Time::ZERO,
            None,
        )
    }

    /// A reader that performs exactly `n` successful operations, with an
    /// explicit local buffer.
    #[deprecated(note = "declare the reader with sabre_rack::spec() instead")]
    pub fn iterations(
        dst_node: u8,
        objects: Vec<Addr>,
        payload: u32,
        mech: ReadMechanism,
        local_buf: Addr,
        n: u64,
    ) -> Self {
        SyncReader::assemble(
            dst_node,
            objects,
            payload,
            mech,
            Some(local_buf),
            Some(n),
            false,
            Time::ZERO,
            None,
        )
    }

    /// Enables the post-transfer application read (Fig. 8 semantics).
    #[deprecated(note = "use WorkloadSpec::consume instead")]
    pub fn with_consume(mut self) -> Self {
        self.consume = true;
        self
    }

    /// Sets a backoff pause before each retry (default: immediate retry).
    #[deprecated(note = "use WorkloadSpec::backoff instead")]
    pub fn with_backoff(mut self, backoff: Time) -> Self {
        self.backoff = backoff;
        self
    }

    /// Overrides the transfer size (e.g. a store's exact slot footprint).
    #[deprecated(note = "use WorkloadSpec::wire instead")]
    pub fn with_wire(mut self, wire: u32) -> Self {
        self.wire_override = Some(wire);
        self
    }

    fn wire(&self) -> u32 {
        self.wire_override
            .unwrap_or_else(|| self.mech.wire_bytes(self.payload))
    }

    fn buf(&self, api: &CoreApi<'_>) -> Addr {
        self.local_buf.unwrap_or_else(|| {
            let half = api.config().memory_bytes as u64 / 2;
            Addr::new(half + api.core() as u64 * 256 * 1024)
        })
    }

    fn issue_next(&mut self, api: &mut CoreApi<'_>, new_object: bool) {
        if self.remaining == Some(0) {
            self.state = ReaderState::Idle;
            return;
        }
        if new_object {
            self.cur_obj = api.rng().below(self.objects.len() as u64) as usize;
        }
        let buf = self.buf(api);
        self.t0 = api.now();
        api.issue(
            self.mech.op(),
            self.dst_node,
            self.objects[self.cur_obj],
            buf,
            self.wire(),
            0,
        );
        self.state = ReaderState::AwaitTransfer;
    }

    fn success(&mut self, api: &mut CoreApi<'_>) {
        let latency = api.now() - self.t0;
        api.metrics().record_success(self.payload as u64, latency);
        if let Some(n) = &mut self.remaining {
            *n -= 1;
        }
        self.issue_next(api, true);
    }

    fn retry(&mut self, api: &mut CoreApi<'_>) {
        // §7.2: "Upon a conflict detection, readers immediately retry
        // reading the same object again." (Or after the configured backoff.)
        api.metrics().record_retry();
        if self.backoff == Time::ZERO {
            self.issue_next(api, false);
        } else {
            self.state = ReaderState::Backoff;
            api.sleep(self.backoff);
        }
    }

    /// Relays Oh-RAM's confirm write — the "half round" that follows the
    /// query/response exchange. Fire-and-forget: the read is delivered
    /// before the ack comes back, so it never adds to read latency.
    fn confirm(&mut self, api: &mut CoreApi<'_>) {
        let buf = self.buf(api);
        let tag = tag_board_addr(api.config().memory_bytes as u64);
        let wq = api.issue_write(self.dst_node, tag, buf, 8);
        self.confirm_inflight.insert(wq);
    }
}

impl Workload for SyncReader {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        self.issue_next(api, true);
    }

    fn on_completion(&mut self, api: &mut CoreApi<'_>, cq: CqEntry) {
        if self.confirm_inflight.remove(&cq.wq_id) {
            return; // Oh-RAM confirm ack; the read already completed.
        }
        assert_eq!(self.state, ReaderState::AwaitTransfer);
        let transfer = api.now() - self.t0;
        api.metrics().record_phase(Phase::Transfer, transfer);
        match self.mech {
            ReadMechanism::Raw => self.success(api),
            // Wait-free register: the capture always delivers a consistent
            // published version — nothing to validate, nothing to retry.
            ReadMechanism::WfRegister { .. } => self.success(api),
            ReadMechanism::OhRam { .. } => {
                self.confirm(api);
                self.success(api);
            }
            ReadMechanism::Sabre => {
                if !cq.success {
                    self.retry(api);
                } else if self.consume {
                    self.state = ReaderState::AwaitConsume;
                    let t = api.cpu().read_time(self.payload as usize, DataSource::Llc);
                    api.metrics().record_phase(Phase::App, t);
                    api.sleep(t);
                } else {
                    self.success(api);
                }
            }
            ReadMechanism::PerClValidate { .. } => {
                self.state = ReaderState::AwaitStrip;
                let t = api.cpu().strip_time(self.wire() as usize);
                api.metrics().record_phase(Phase::Strip, t);
                api.sleep(t);
            }
            ReadMechanism::ChecksumValidate { payload } => {
                self.state = ReaderState::AwaitStrip;
                let t = api.cpu().crc_time(payload as usize);
                api.metrics().record_phase(Phase::Strip, t);
                api.sleep(t);
            }
        }
    }

    fn on_wake(&mut self, api: &mut CoreApi<'_>) {
        match self.state {
            ReaderState::AwaitStrip => {
                let buf = self.buf(api);
                let image = api.read_local(buf, self.wire() as usize);
                let ok = match self.mech {
                    ReadMechanism::PerClValidate { payload } => {
                        PerClLayout::validate_and_strip(&image, payload as usize).is_ok()
                    }
                    ReadMechanism::ChecksumValidate { payload } => {
                        ChecksumLayout::validate(&image, payload as usize).is_ok()
                    }
                    _ => unreachable!("strip state only for software mechanisms"),
                };
                if ok {
                    self.success(api);
                } else {
                    self.retry(api);
                }
            }
            ReaderState::AwaitConsume => self.success(api),
            ReaderState::Backoff => self.issue_next(api, false),
            s => panic!("unexpected wake in state {s:?}"),
        }
    }
}

/// A reader keeping a window of asynchronous operations in flight
/// (Fig. 7b: peak-throughput measurement).
#[derive(Debug)]
pub struct AsyncReader {
    dst_node: u8,
    objects: Vec<Addr>,
    payload: u32,
    mech: ReadMechanism,
    window: usize,
    /// wq_id → (issue time, slot).
    inflight: std::collections::HashMap<u64, (Time, usize)>,
    buf_base: Option<Addr>,
}

impl AsyncReader {
    /// Creates a reader with `window` operations in flight at all times.
    ///
    /// # Panics
    ///
    /// Panics if the mechanism needs CPU post-processing (use
    /// [`SyncReader`] for those) or the window is zero.
    #[deprecated(note = "declare the reader with sabre_rack::spec().window(n) instead")]
    pub fn new(
        dst_node: u8,
        objects: Vec<Addr>,
        payload: u32,
        mech: ReadMechanism,
        window: usize,
    ) -> Self {
        AsyncReader::assemble(dst_node, objects, payload, mech, window)
    }

    /// The one true constructor, fed by `WorkloadSpec::build`; same
    /// panics as the deprecated [`AsyncReader::new`].
    pub(crate) fn assemble(
        dst_node: u8,
        objects: Vec<Addr>,
        payload: u32,
        mech: ReadMechanism,
        window: usize,
    ) -> Self {
        assert!(
            matches!(mech, ReadMechanism::Raw | ReadMechanism::Sabre),
            "AsyncReader models pure transfer throughput"
        );
        assert!(window > 0, "window must be positive");
        AsyncReader {
            dst_node,
            objects,
            payload,
            mech,
            window,
            inflight: std::collections::HashMap::new(),
            buf_base: None,
        }
    }

    fn slot_buf(&self, api: &CoreApi<'_>, slot: usize) -> Addr {
        let base = self.buf_base.unwrap_or_else(|| {
            let half = api.config().memory_bytes as u64 / 2;
            Addr::new(half + api.core() as u64 * 512 * 1024)
        });
        base + (slot as u64) * ((self.mech.wire_bytes(self.payload) as u64).div_ceil(64) * 64)
    }

    fn issue_slot(&mut self, api: &mut CoreApi<'_>, slot: usize) {
        let obj = self.objects[api.rng().below(self.objects.len() as u64) as usize];
        let buf = self.slot_buf(api, slot);
        let wq_id = api.issue(
            self.mech.op(),
            self.dst_node,
            obj,
            buf,
            self.mech.wire_bytes(self.payload),
            0,
        );
        self.inflight.insert(wq_id, (api.now(), slot));
    }
}

impl Workload for AsyncReader {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        for slot in 0..self.window {
            self.issue_slot(api, slot);
        }
    }

    fn on_completion(&mut self, api: &mut CoreApi<'_>, cq: CqEntry) {
        let (t0, slot) = self
            .inflight
            .remove(&cq.wq_id)
            .expect("completion for an operation we issued");
        if cq.success {
            let latency = api.now() - t0;
            api.metrics().record_success(self.payload as u64, latency);
        } else {
            api.metrics().record_retry();
        }
        self.issue_slot(api, slot);
    }
}

/// Which object layout a writer maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriterLayout {
    /// Clean layout (SABRe experiments): header + contiguous payload.
    Clean,
    /// FaRM per-cache-line versions layout.
    PerCl,
    /// Pilaf-style checksummed layout: `[crc64 | version | payload]`.
    Checksum,
    /// Wait-free multi-version register: the writer fills the next slot in
    /// rotation, then flips the publish word — it never locks, so readers
    /// never wait and never abort.
    WfRegister,
}

impl WriterLayout {
    /// Address of the word the update protocol locks and publishes
    /// through. The checksummed layout keeps its version behind the CRC;
    /// everyone else leads with it.
    pub fn version_addr(self, base: Addr) -> Addr {
        match self {
            WriterLayout::Checksum => base + 8,
            _ => base,
        }
    }

    /// Whether an update begins by storing the locked (odd) version. The
    /// wait-free register never locks: the word at `base` is a *publish
    /// word* (`seq × slots + slot`), and writing in-place slots are
    /// invisible to readers until it flips.
    pub fn takes_lock(self) -> bool {
        !matches!(self, WriterLayout::WfRegister)
    }

    /// The word that publishes a finished update, given the version read
    /// at lock time.
    pub fn publish_word(self, locked_version: u64) -> u64 {
        match self {
            WriterLayout::WfRegister => {
                let (seq, slot) = WfRegisterLayout::unpack(locked_version);
                WfRegisterLayout::pack(seq + 1, (slot + 1) % WfRegisterLayout::SLOTS)
            }
            _ => locked_version + 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriterPhase {
    Idle,
    /// Version word set odd; writing payload chunk `chunk` next.
    Writing {
        chunk: usize,
    },
    /// All data written; publish (even version) next.
    Publishing,
    /// Waiting for readers to drain (locking-mode experiments).
    SpinningOnReaders,
}

/// A local writer thread repeatedly updating its subset of objects
/// (Concurrent-Read-Exclusive-Write: each object has one writer).
///
/// One store (one cache block or less) is applied per
/// [`ClusterConfig::writer_store_interval`](crate::ClusterConfig), so a
/// racing remote reader observes genuinely torn intermediate states unless
/// an atomicity mechanism intervenes.
#[derive(Debug)]
pub struct Writer {
    objects: Vec<(u64, Addr)>,
    payload: u32,
    layout: WriterLayout,
    think: Time,
    /// Respect the shared reader-lock word before locking (destination-
    /// locking experiments).
    respect_reader_locks: bool,
    seq: u64,
    cur: usize,
    phase: WriterPhase,
    /// The (even) version read at lock time; the update publishes at +2.
    locked_version: u64,
    /// The stores of the update in progress, built when it starts.
    plan: UpdatePlan,
    updates: u64,
}

impl Writer {
    /// Creates a writer owning `objects` (pairs of object id and base
    /// address, all local), updating them round-robin with `think` pause
    /// between updates.
    ///
    /// # Panics
    ///
    /// Panics if `objects` is empty.
    pub fn new(objects: Vec<(u64, Addr)>, payload: u32, layout: WriterLayout, think: Time) -> Self {
        assert!(!objects.is_empty(), "a writer needs at least one object");
        Writer {
            objects,
            payload,
            layout,
            think,
            respect_reader_locks: false,
            seq: 0,
            cur: 0,
            phase: WriterPhase::Idle,
            locked_version: 0,
            plan: UpdatePlan::new(),
            updates: 0,
        }
    }

    /// Makes the writer wait for the shared reader lock to drain before
    /// each update (destination-locking mode).
    pub fn respecting_reader_locks(mut self) -> Self {
        self.respect_reader_locks = true;
        self
    }

    /// Completed object updates.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    fn base(&self) -> Addr {
        self.objects[self.cur].1
    }

    fn obj_id(&self) -> u64 {
        self.objects[self.cur].0
    }

    fn begin_update(&mut self, api: &mut CoreApi<'_>) {
        if self.respect_reader_locks {
            let rlock = api.read_local(self.base() + 8, 8);
            let readers = u64::from_le_bytes(rlock.try_into().expect("8 bytes"));
            if readers > 0 {
                self.phase = WriterPhase::SpinningOnReaders;
                api.sleep(Time::from_ns(10));
                return;
            }
        }
        let va = self.layout.version_addr(self.base());
        let v = VersionWord::new(u64::from_le_bytes(
            api.read_local(va, 8).try_into().expect("8 bytes"),
        ));
        self.locked_version = v.raw();
        if self.layout.takes_lock() {
            api.store_local_u64(va, v.locked().raw());
        }
        self.plan.rebuild(
            self.layout,
            self.base(),
            self.obj_id(),
            self.seq,
            self.payload as usize,
            self.locked_version,
        );
        self.phase = WriterPhase::Writing { chunk: 0 };
        api.sleep(api.config().writer_store_interval);
    }
}

impl Workload for Writer {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        self.begin_update(api);
    }

    fn on_wake(&mut self, api: &mut CoreApi<'_>) {
        match self.phase {
            WriterPhase::Idle => self.begin_update(api),
            WriterPhase::SpinningOnReaders => self.begin_update(api),
            WriterPhase::Writing { chunk } => {
                self.phase = if self.plan.apply(api, chunk) {
                    WriterPhase::Writing { chunk: chunk + 1 }
                } else {
                    WriterPhase::Publishing
                };
                api.sleep(api.config().writer_store_interval);
            }
            WriterPhase::Publishing => {
                // Publish: even version + 2, or the next slot's publish
                // word for the wait-free register.
                api.store_local_u64(
                    self.layout.version_addr(self.base()),
                    self.layout.publish_word(self.locked_version),
                );
                self.updates += 1;
                self.seq += 1;
                self.cur = (self.cur + 1) % self.objects.len();
                self.phase = WriterPhase::Idle;
                api.sleep(self.think.max(api.config().writer_store_interval));
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockReaderState {
    Idle,
    AwaitCas,
    AwaitRead,
    Backoff,
}

/// A DrTM-style reader using *source-side remote locking* (Table 1,
/// top-left): a remote CAS acquires the object's write lock (one extra
/// network roundtrip), the data read follows, and the unlock is fired
/// asynchronously. Contended CAS retries after a short backoff.
#[derive(Debug)]
pub struct SourceLockingReader {
    dst_node: u8,
    objects: Vec<Addr>,
    payload: u32,
    local_buf: Option<Addr>,
    remaining: Option<u64>,
    backoff: Time,
    cur_obj: usize,
    t0: Time,
    state: LockReaderState,
}

impl SourceLockingReader {
    /// The one true constructor, fed by `WorkloadSpec::build`.
    pub(crate) fn assemble(
        dst_node: u8,
        objects: Vec<Addr>,
        payload: u32,
        local_buf: Option<Addr>,
        remaining: Option<u64>,
    ) -> Self {
        SourceLockingReader {
            dst_node,
            objects,
            payload,
            local_buf,
            remaining,
            backoff: Time::from_ns(200),
            cur_obj: 0,
            t0: Time::ZERO,
            state: LockReaderState::Idle,
        }
    }

    /// A locking reader that runs until the simulation ends.
    #[deprecated(note = "declare the reader with sabre_rack::spec().source_locking() instead")]
    pub fn endless(dst_node: u8, objects: Vec<Addr>, payload: u32) -> Self {
        SourceLockingReader::assemble(dst_node, objects, payload, None, None)
    }

    /// A locking reader performing exactly `n` successful reads.
    #[deprecated(note = "declare the reader with sabre_rack::spec().source_locking() instead")]
    pub fn iterations(dst_node: u8, objects: Vec<Addr>, payload: u32, n: u64) -> Self {
        SourceLockingReader::assemble(dst_node, objects, payload, None, Some(n))
    }

    fn wire(&self) -> u32 {
        CleanLayout::object_bytes(self.payload as usize) as u32
    }

    fn buf(&self, api: &CoreApi<'_>) -> Addr {
        self.local_buf.unwrap_or_else(|| {
            let half = api.config().memory_bytes as u64 / 2;
            Addr::new(half + api.core() as u64 * 256 * 1024)
        })
    }

    fn begin(&mut self, api: &mut CoreApi<'_>, new_object: bool) {
        if self.remaining == Some(0) {
            self.state = LockReaderState::Idle;
            return;
        }
        if new_object {
            self.cur_obj = api.rng().below(self.objects.len() as u64) as usize;
        }
        let buf = self.buf(api);
        self.t0 = api.now();
        // Roundtrip 1: acquire the remote lock with a one-sided CAS.
        api.issue(
            sabre_sonuma::OpKind::LockCas,
            self.dst_node,
            self.objects[self.cur_obj],
            buf,
            8,
            0,
        );
        self.state = LockReaderState::AwaitCas;
    }
}

impl Workload for SourceLockingReader {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        self.begin(api, true);
    }

    fn on_completion(&mut self, api: &mut CoreApi<'_>, cq: CqEntry) {
        // Dispatch on the operation type: the asynchronous unlock's ack can
        // arrive at any point of the *next* read's lifecycle.
        match cq.op {
            sabre_sonuma::OpKind::Unlock => {}
            sabre_sonuma::OpKind::LockCas => {
                assert_eq!(self.state, LockReaderState::AwaitCas);
                if !cq.success {
                    // Contended: back off, then retry the CAS.
                    api.metrics().record_retry();
                    self.state = LockReaderState::Backoff;
                    api.sleep(self.backoff);
                    return;
                }
                // Roundtrip 2: the data read, now race-free.
                let buf = self.buf(api);
                api.issue(
                    sabre_sonuma::OpKind::Read,
                    self.dst_node,
                    self.objects[self.cur_obj],
                    buf,
                    self.wire(),
                    0,
                );
                self.state = LockReaderState::AwaitRead;
            }
            sabre_sonuma::OpKind::Read => {
                assert_eq!(self.state, LockReaderState::AwaitRead);
                // Fire the unlock without waiting for it.
                let buf = self.buf(api);
                api.issue(
                    sabre_sonuma::OpKind::Unlock,
                    self.dst_node,
                    self.objects[self.cur_obj],
                    buf,
                    8,
                    0,
                );
                let latency = api.now() - self.t0;
                api.metrics().record_success(self.payload as u64, latency);
                if let Some(n) = &mut self.remaining {
                    *n -= 1;
                }
                self.begin(api, true);
            }
            op => panic!("unexpected completion op {op:?}"),
        }
    }

    fn on_wake(&mut self, api: &mut CoreApi<'_>) {
        assert_eq!(self.state, LockReaderState::Backoff);
        self.begin(api, false);
    }
}

/// What a pending [`FailoverReader`] wake means: the failover timer armed
/// for one specific attempt (identified by its `wq_id`, so a timer that
/// outlives its attempt is recognized as stale and ignored), or a service
/// sleep (strip/consume/backoff).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum FailoverWake {
    Timeout(u64),
    Service,
}

/// Successful operations between replica probes: after this many, a
/// migrating reader re-tries the most-preferred suspected replica to
/// detect recovery (costing at most one timeout if it is still down).
const PROBE_EVERY: u64 = 64;

/// Completed operations the load-triggered re-placement window averages
/// hop counts over (see [`FailoverReader`]): long enough to smooth a
/// single far-replica excursion, short enough to react within ~a hundred
/// operations.
const REPLACE_WINDOW: usize = 32;

/// A closed-loop reader over a *replicated* object: the same object image
/// lives on several store nodes, and the reader fails over between them.
///
/// Every attempt arms a failover timer
/// ([`WorkloadSpec::failover_timeout`](crate::spec::WorkloadSpec::failover_timeout)).
/// A one-sided read whose
/// packets a [`FaultPlan`](crate::FaultPlan) dropped never completes; when
/// the timer fires first, the reader abandons the attempt, counts a
/// [`failover`](crate::CoreMetrics::failovers), and re-issues the *same*
/// object at the next replica. Completions of abandoned attempts (a
/// false timeout under load) are matched by `wq_id` and discarded.
///
/// Two replica-selection policies, compared by the `fig_failover`
/// experiment:
///
/// * **Static round-robin** (`migrate = false`): each new operation starts
///   at the next replica in rotation, with no memory of past failures —
///   during an outage every k-th operation eats a timeout.
/// * **Adaptive** (`migrate = true`): the reader *binds* to the most
///   preferred (nearest) replica, re-binds to the next live one on
///   failure (a [`migration`](crate::CoreMetrics::migrations)), and every
///   `PROBE_EVERY` (64) successes probes a suspected more-preferred replica
///   so it migrates back after recovery.
///
/// Two recovery-era behaviours layer on top:
///
/// * **Refusals**: a replica that is catching up after an outage answers
///   with [`ReadRefused`](sabre_sonuma::PacketKind::ReadRefused) instead
///   of data. The reader counts a
///   [`stale_refusal`](crate::CoreMetrics::stale_refusals), suspects the
///   replica exactly as if a timeout had fired (it will keep refusing
///   until caught up), and re-issues the same object at the next replica
///   — a fast round-trip rather than a burned timeout.
/// * **Load-triggered re-placement** (`replace_hops = Some(threshold)`,
///   adaptive mode only): the reader tracks the mean routed hop count of
///   its last `REPLACE_WINDOW` completed operations. When the window is
///   warm and the mean crosses the threshold — the binding has drifted to
///   a far replica — it immediately probes the most-preferred suspected
///   replica instead of waiting out the `PROBE_EVERY` counter, so the
///   binding snaps back as soon as the near replica recovers.
///
/// Unlike [`SyncReader`], latency is measured across the whole operation
/// — failover timeouts and atomicity retries included — which is what
/// makes the p99-under-crashes comparison meaningful.
#[derive(Debug)]
pub struct FailoverReader {
    /// `(store node, object addresses)` in preference order; index `i`
    /// of every address vector names the same logical object.
    replicas: Vec<(u8, Vec<Addr>)>,
    payload: u32,
    mech: ReadMechanism,
    local_buf: Option<Addr>,
    remaining: Option<u64>,
    consume: bool,
    backoff: Time,
    wire_override: Option<u32>,
    timeout: Time,
    migrate: bool,
    replace_hops: Option<f64>,
    // Runtime state.
    suspected: Vec<bool>,
    /// Hop counts of the last [`REPLACE_WINDOW`] completed operations.
    hop_window: VecDeque<u64>,
    /// Adaptive mode's current binding (preference index).
    bound: usize,
    /// Static mode's round-robin cursor.
    rr: u64,
    cur_obj: usize,
    cur_replica: usize,
    /// `wq_id` of the live attempt; `None` once completed or abandoned.
    inflight: Option<u64>,
    /// Operation start — kept across failovers and retries.
    t0: Time,
    t_issue: Time,
    successes_since_probe: u64,
    state: ReaderState,
    wakes: BinaryHeap<Reverse<(Time, u64, FailoverWake)>>,
    wake_seq: u64,
}

impl FailoverReader {
    /// Builds the reader from spec fields; see `WorkloadSpec::build`.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty, the replicas disagree on object
    /// count, the object set is empty, or the timeout is zero.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        replicas: Vec<(u8, Vec<Addr>)>,
        payload: u32,
        mech: ReadMechanism,
        local_buf: Option<Addr>,
        remaining: Option<u64>,
        consume: bool,
        backoff: Time,
        wire_override: Option<u32>,
        timeout: Time,
        migrate: bool,
        replace_hops: Option<f64>,
    ) -> Self {
        assert!(!replicas.is_empty(), "a failover reader needs replicas");
        let objects = replicas[0].1.len();
        assert!(objects > 0, "a failover reader needs objects");
        assert!(
            replicas.iter().all(|(_, addrs)| addrs.len() == objects),
            "every replica must hold every object"
        );
        assert!(timeout > Time::ZERO, "failover timeout must be positive");
        let k = replicas.len();
        FailoverReader {
            replicas,
            payload,
            mech,
            local_buf,
            remaining,
            consume,
            backoff,
            wire_override,
            timeout,
            migrate,
            replace_hops,
            suspected: vec![false; k],
            hop_window: VecDeque::with_capacity(REPLACE_WINDOW),
            bound: 0,
            rr: 0,
            cur_obj: 0,
            cur_replica: 0,
            inflight: None,
            t0: Time::ZERO,
            t_issue: Time::ZERO,
            successes_since_probe: 0,
            state: ReaderState::Idle,
            wakes: BinaryHeap::new(),
            wake_seq: 0,
        }
    }

    fn wire(&self) -> u32 {
        self.wire_override
            .unwrap_or_else(|| self.mech.wire_bytes(self.payload))
    }

    fn buf(&self, api: &CoreApi<'_>) -> Addr {
        self.local_buf.unwrap_or_else(|| {
            let half = api.config().memory_bytes as u64 / 2;
            Addr::new(half + api.core() as u64 * 256 * 1024)
        })
    }

    /// Sleeps for `d` and remembers what the wake will mean.
    fn sleep_kind(&mut self, api: &mut CoreApi<'_>, d: Time, kind: FailoverWake) {
        let due = api.now() + d;
        self.wakes.push(Reverse((due, self.wake_seq, kind)));
        self.wake_seq += 1;
        api.sleep(d);
    }

    /// Starts the next operation: fresh object, fresh latency baseline,
    /// policy-chosen starting replica.
    fn issue_next(&mut self, api: &mut CoreApi<'_>) {
        if self.remaining == Some(0) {
            self.state = ReaderState::Idle;
            return;
        }
        let objects = self.replicas[0].1.len() as u64;
        self.cur_obj = api.rng().below(objects) as usize;
        self.cur_replica = if self.migrate {
            self.bound
        } else {
            let r = (self.rr % self.replicas.len() as u64) as usize;
            self.rr += 1;
            r
        };
        self.t0 = api.now();
        self.issue_attempt(api);
    }

    /// (Re-)issues the current object at `cur_replica` and arms the
    /// failover timer for this attempt.
    fn issue_attempt(&mut self, api: &mut CoreApi<'_>) {
        let (node, ref addrs) = self.replicas[self.cur_replica];
        let addr = addrs[self.cur_obj];
        let buf = self.buf(api);
        self.t_issue = api.now();
        let wq_id = api.issue(self.mech.op(), node, addr, buf, self.wire(), 0);
        self.inflight = Some(wq_id);
        let timeout = self.timeout;
        self.sleep_kind(api, timeout, FailoverWake::Timeout(wq_id));
        self.state = ReaderState::AwaitTransfer;
    }

    /// The failover timer of the live attempt fired: suspect the replica,
    /// move to the next one, re-issue the same object.
    fn failover(&mut self, api: &mut CoreApi<'_>) {
        self.inflight = None;
        api.metrics().record_failover();
        self.advance_replica(api);
    }

    /// The live attempt was refused — the replica is catching up after an
    /// outage. Cheaper than a timeout (one fast round-trip) but handled
    /// identically for replica selection: a catching-up replica keeps
    /// refusing until it converges, so suspect it and move on.
    fn refused(&mut self, api: &mut CoreApi<'_>) {
        self.inflight = None;
        api.metrics().record_stale_refusal();
        self.advance_replica(api);
    }

    /// Suspects the current replica, picks the next one under the active
    /// policy, and re-issues the same object there.
    fn advance_replica(&mut self, api: &mut CoreApi<'_>) {
        self.suspected[self.cur_replica] = true;
        let k = self.replicas.len();
        let next = if self.migrate {
            match (0..k).find(|&i| !self.suspected[i]) {
                Some(i) => i,
                None => {
                    // Everything looks dead: forget the suspicions and
                    // cycle, so recovery is always eventually observed.
                    self.suspected.fill(false);
                    (self.cur_replica + 1) % k
                }
            }
        } else {
            (self.cur_replica + 1) % k
        };
        if self.migrate && next != self.bound {
            self.bound = next;
            api.metrics().record_migration();
        }
        self.cur_replica = next;
        self.issue_attempt(api);
    }

    /// Routed hops from this reader to the replica that served the
    /// completed operation (0 when co-located).
    fn hops_to_current(&self, api: &CoreApi<'_>) -> u64 {
        let dst = self.replicas[self.cur_replica].0 as usize;
        let src = api.node();
        if src == dst {
            0
        } else {
            api.config().fabric.topology.hops(src, dst)
        }
    }

    /// Re-binds to the most-preferred suspected replica, clearing its
    /// suspicion — the shared body of the periodic probe and the
    /// hop-triggered re-placement. Returns whether a probe happened.
    fn probe_preferred(&mut self, api: &mut CoreApi<'_>) -> bool {
        if let Some(i) = (0..self.bound).find(|&i| self.suspected[i]) {
            self.suspected[i] = false;
            self.bound = i;
            api.metrics().record_migration();
            self.hop_window.clear();
            true
        } else {
            false
        }
    }

    fn success(&mut self, api: &mut CoreApi<'_>) {
        let latency = api.now() - self.t0;
        api.metrics().record_success(self.payload as u64, latency);
        if let Some(n) = &mut self.remaining {
            *n -= 1;
        }
        if self.migrate {
            self.successes_since_probe += 1;
            if self.successes_since_probe >= PROBE_EVERY {
                self.successes_since_probe = 0;
                // Probe: re-bind to the most preferred suspected replica,
                // if it beats the current binding. Still down → one
                // timeout and the next failover rebinds.
                self.probe_preferred(api);
            }
            if let Some(threshold) = self.replace_hops {
                // Load-triggered re-placement: a warm window whose mean
                // hop count crossed the threshold means the binding
                // drifted to a far replica — probe back immediately.
                if self.hop_window.len() == REPLACE_WINDOW {
                    self.hop_window.pop_front();
                }
                self.hop_window.push_back(self.hops_to_current(api));
                if self.hop_window.len() == REPLACE_WINDOW {
                    let mean =
                        self.hop_window.iter().sum::<u64>() as f64 / self.hop_window.len() as f64;
                    if mean >= threshold {
                        self.probe_preferred(api);
                    }
                }
            }
        }
        self.issue_next(api);
    }

    /// Atomicity conflict: retry the same object at the same replica.
    fn retry(&mut self, api: &mut CoreApi<'_>) {
        api.metrics().record_retry();
        if self.backoff == Time::ZERO {
            self.issue_attempt(api);
        } else {
            self.state = ReaderState::Backoff;
            let backoff = self.backoff;
            self.sleep_kind(api, backoff, FailoverWake::Service);
        }
    }
}

impl Workload for FailoverReader {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        self.issue_next(api);
    }

    fn on_completion(&mut self, api: &mut CoreApi<'_>, cq: CqEntry) {
        if self.inflight != Some(cq.wq_id) {
            return; // Late completion of an attempt we already abandoned.
        }
        self.inflight = None;
        assert_eq!(self.state, ReaderState::AwaitTransfer);
        if cq.refused {
            self.refused(api);
            return;
        }
        let transfer = api.now() - self.t_issue;
        api.metrics().record_phase(Phase::Transfer, transfer);
        match self.mech {
            ReadMechanism::Raw => self.success(api),
            ReadMechanism::WfRegister { .. } => self.success(api),
            ReadMechanism::OhRam { .. } => {
                // Relay the confirm write to the replica that answered;
                // its ack is discarded by the `inflight` filter above.
                let node = self.replicas[self.cur_replica].0;
                let buf = self.buf(api);
                let tag = tag_board_addr(api.config().memory_bytes as u64);
                api.issue_write(node, tag, buf, 8);
                self.success(api);
            }
            ReadMechanism::Sabre => {
                if !cq.success {
                    self.retry(api);
                } else if self.consume {
                    self.state = ReaderState::AwaitConsume;
                    let t = api.cpu().read_time(self.payload as usize, DataSource::Llc);
                    api.metrics().record_phase(Phase::App, t);
                    self.sleep_kind(api, t, FailoverWake::Service);
                } else {
                    self.success(api);
                }
            }
            ReadMechanism::PerClValidate { .. } => {
                self.state = ReaderState::AwaitStrip;
                let t = api.cpu().strip_time(self.wire() as usize);
                api.metrics().record_phase(Phase::Strip, t);
                self.sleep_kind(api, t, FailoverWake::Service);
            }
            ReadMechanism::ChecksumValidate { payload } => {
                self.state = ReaderState::AwaitStrip;
                let t = api.cpu().crc_time(payload as usize);
                api.metrics().record_phase(Phase::Strip, t);
                self.sleep_kind(api, t, FailoverWake::Service);
            }
        }
    }

    fn on_wake(&mut self, api: &mut CoreApi<'_>) {
        let Reverse((due, _seq, kind)) = self
            .wakes
            .pop()
            .expect("a wake implies a pending sleep we recorded");
        debug_assert_eq!(due, api.now(), "wakes deliver in schedule order");
        match kind {
            FailoverWake::Timeout(wq_id) => {
                if self.inflight == Some(wq_id) {
                    self.failover(api);
                }
                // Else: the attempt completed before its timer; stale.
            }
            FailoverWake::Service => match self.state {
                ReaderState::AwaitStrip => {
                    let buf = self.buf(api);
                    let image = api.read_local(buf, self.wire() as usize);
                    let ok = match self.mech {
                        ReadMechanism::PerClValidate { payload } => {
                            PerClLayout::validate_and_strip(&image, payload as usize).is_ok()
                        }
                        ReadMechanism::ChecksumValidate { payload } => {
                            ChecksumLayout::validate(&image, payload as usize).is_ok()
                        }
                        _ => unreachable!("strip state only for software mechanisms"),
                    };
                    if ok {
                        self.success(api);
                    } else {
                        self.retry(api);
                    }
                }
                ReaderState::AwaitConsume => self.success(api),
                ReaderState::Backoff => self.issue_attempt(api),
                s => panic!("unexpected service wake in state {s:?}"),
            },
        }
    }
}

/// Stream ids for [`TrafficReader`]'s forked RNGs. Forks are
/// consumption-insensitive, so the arrival-time stream is identical across
/// mechanisms and object-choice patterns (and vice versa).
const ARRIVAL_STREAM: u64 = 0x5452_4146_4152_5256; // "TRAFARRV"
const CHOICE_STREAM: u64 = 0x5452_4146_4348_4F49; // "TRAFCHOI"

/// What a pending [`TrafficReader`] wake means. The reader can have an
/// arrival timer and a service sleep (strip/consume/backoff) outstanding
/// at once; a local min-heap keyed by `(due, seq, kind)` disambiguates
/// them, relying on the node event queue's FIFO-within-timestamp order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum WakeKind {
    Arrival,
    Service,
}

/// The generalized production-traffic reader: any [`Arrivals`] process ×
/// any [`Popularity`] model × a read/write mix, over any
/// [`ReadMechanism`].
///
/// Differences from the closed-loop [`SyncReader`]:
///
/// * Under open-loop arrivals, **latency is measured from the arrival**,
///   not from the issue — queueing delay behind an in-flight operation
///   and atomicity-retry time are both part of the reported latency, which
///   is what makes offered-load tail-latency sweeps meaningful.
/// * Arrivals that fire while an operation is in flight are queued
///   ([`CoreMetrics::record_queued`](crate::CoreMetrics::record_queued));
///   queued operations start the instant the previous one completes.
/// * Object choice and arrival timing draw from *forked* RNG streams, so
///   arrival times are bit-identical across mechanisms and the choice
///   sequence is independent of the arrival process.
///
/// Built via `WorkloadSpec::build` (crate::spec::WorkloadSpec) when the
/// spec asks for anything beyond the classic closed-loop uniform
/// read-only shape.
#[derive(Debug)]
pub struct TrafficReader {
    dst_node: u8,
    objects: Vec<Addr>,
    payload: u32,
    mech: ReadMechanism,
    arrivals: Arrivals,
    popularity: Popularity,
    read_fraction: f64,
    local_buf: Option<Addr>,
    remaining: Option<u64>,
    consume: bool,
    backoff: Time,
    wire_override: Option<u32>,
    /// Outstanding Oh-RAM confirm writes (fire-and-forget; completions are
    /// matched by `wq_id` and discarded).
    confirm_inflight: HashSet<u64>,
    // Runtime state, inert until `on_start`.
    choice_rng: Option<SimRng>,
    arrival_rng: Option<SimRng>,
    zipf: Option<Zipf>,
    start: Time,
    /// Accumulated *active* time consumed by on/off arrivals, in ps; the
    /// wall-clock mapping skips the off windows (integer arithmetic, so
    /// the schedule is exact and replayable).
    active_ps: u64,
    /// Arrival timestamps waiting behind the in-flight operation.
    backlog: VecDeque<Time>,
    busy: bool,
    cur_obj: usize,
    cur_write: bool,
    /// Arrival time of the in-flight operation — the latency baseline.
    t_arrival: Time,
    /// Issue time of the current attempt — the transfer-phase baseline.
    t_issue: Time,
    state: ReaderState,
    wakes: BinaryHeap<Reverse<(Time, u64, WakeKind)>>,
    wake_seq: u64,
}

impl TrafficReader {
    /// Builds the reader from spec fields; see `WorkloadSpec::build`.
    ///
    /// # Panics
    ///
    /// Panics on an empty object set, a non-positive/non-finite arrival
    /// rate, a zero-length on-window, or a hot-set fraction outside
    /// `[0, 1]`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_spec(
        dst_node: u8,
        objects: Vec<Addr>,
        payload: u32,
        mech: ReadMechanism,
        arrivals: Arrivals,
        popularity: Popularity,
        read_fraction: f64,
        local_buf: Option<Addr>,
        remaining: Option<u64>,
        consume: bool,
        backoff: Time,
        wire_override: Option<u32>,
    ) -> Self {
        assert!(!objects.is_empty(), "a traffic reader needs objects");
        match arrivals {
            Arrivals::Closed => {}
            Arrivals::Poisson { ops_per_us } => {
                assert!(
                    ops_per_us.is_finite() && ops_per_us > 0.0,
                    "Poisson rate must be positive and finite, got {ops_per_us}"
                );
            }
            Arrivals::OnOff { on, ops_per_us, .. } => {
                assert!(
                    ops_per_us.is_finite() && ops_per_us > 0.0,
                    "on/off rate must be positive and finite, got {ops_per_us}"
                );
                assert!(on > Time::ZERO, "on-window must be non-empty");
            }
        }
        if let Popularity::HotSet { fraction, .. } = popularity {
            assert!(
                (0.0..=1.0).contains(&fraction),
                "hot-set fraction must be in [0, 1], got {fraction}"
            );
        }
        assert!(
            (0.0..=1.0).contains(&read_fraction),
            "read fraction must be in [0, 1], got {read_fraction}"
        );
        TrafficReader {
            dst_node,
            objects,
            payload,
            mech,
            arrivals,
            popularity,
            read_fraction,
            local_buf,
            remaining,
            consume,
            backoff,
            wire_override,
            confirm_inflight: HashSet::new(),
            choice_rng: None,
            arrival_rng: None,
            zipf: None,
            start: Time::ZERO,
            active_ps: 0,
            backlog: VecDeque::new(),
            busy: false,
            cur_obj: 0,
            cur_write: false,
            t_arrival: Time::ZERO,
            t_issue: Time::ZERO,
            state: ReaderState::Idle,
            wakes: BinaryHeap::new(),
            wake_seq: 0,
        }
    }

    fn read_wire(&self) -> u32 {
        self.wire_override
            .unwrap_or_else(|| self.mech.wire_bytes(self.payload))
    }

    fn buf(&self, api: &CoreApi<'_>) -> Addr {
        self.local_buf.unwrap_or_else(|| {
            let half = api.config().memory_bytes as u64 / 2;
            Addr::new(half + api.core() as u64 * 256 * 1024)
        })
    }

    /// Sleeps for `d` and remembers what the wake will mean.
    fn sleep_kind(&mut self, api: &mut CoreApi<'_>, d: Time, kind: WakeKind) {
        let due = api.now() + d;
        self.wakes.push(Reverse((due, self.wake_seq, kind)));
        self.wake_seq += 1;
        api.sleep(d);
    }

    /// Draws the next inter-arrival gap and schedules the arrival timer.
    fn schedule_next_arrival(&mut self, api: &mut CoreApi<'_>) {
        let rate = match self.arrivals {
            Arrivals::Closed => unreachable!("closed loops have no arrival timer"),
            Arrivals::Poisson { ops_per_us } | Arrivals::OnOff { ops_per_us, .. } => ops_per_us,
        };
        let mean_ns = 1000.0 / rate;
        let u = self
            .arrival_rng
            .as_mut()
            .expect("on_start forked the arrival stream")
            .unit();
        // Inverse-CDF exponential; u in [0, 1) keeps the log argument in
        // (0, 1], so the gap is finite and non-negative.
        let gap = Time::from_ns_f64(-(1.0 - u).ln() * mean_ns);
        match self.arrivals {
            Arrivals::Closed => unreachable!(),
            Arrivals::Poisson { .. } => self.sleep_kind(api, gap, WakeKind::Arrival),
            Arrivals::OnOff { on, off, .. } => {
                // The exponential clock ticks in *active* time; map the
                // accumulated active time onto wall time by skipping the
                // off windows. Monotone in active_ps, so due >= now.
                self.active_ps += gap.as_ps();
                let on_ps = on.as_ps();
                let off_ps = off.as_ps();
                let wall = self.start.as_ps()
                    + (self.active_ps / on_ps) * (on_ps + off_ps)
                    + self.active_ps % on_ps;
                let d = Time::from_ps(wall).saturating_sub(api.now());
                self.sleep_kind(api, d, WakeKind::Arrival);
            }
        }
    }

    /// One arrival fired: start the operation or queue it behind the one
    /// in flight, then arm the next timer.
    fn on_arrival(&mut self, api: &mut CoreApi<'_>) {
        if self.remaining == Some(0) {
            return; // Quota met; let the arrival process wind down.
        }
        self.schedule_next_arrival(api);
        let now = api.now();
        if self.busy {
            self.backlog.push_back(now);
            let depth = self.backlog.len() as u64;
            api.metrics().record_queued(depth);
        } else {
            self.start_op(api, now);
        }
    }

    /// Picks the next object and operation type from the choice stream.
    fn choose(&mut self, _api: &mut CoreApi<'_>) {
        let n = self.objects.len() as u64;
        let rng = self
            .choice_rng
            .as_mut()
            .expect("on_start forked the choice stream");
        let idx = match self.popularity {
            Popularity::Uniform => rng.below(n),
            Popularity::Zipf { .. } => {
                // Rank 1 is the hottest; map it to object 0.
                self.zipf
                    .as_ref()
                    .expect("on_start built the sampler")
                    .sample(rng)
                    - 1
            }
            Popularity::HotSet { hot, fraction } => {
                let hot = hot.min(n);
                if hot == 0 || hot == n {
                    rng.below(n)
                } else if rng.chance(fraction) {
                    rng.below(hot)
                } else {
                    hot + rng.below(n - hot)
                }
            }
        };
        self.cur_obj = idx as usize;
        self.cur_write = if self.read_fraction >= 1.0 {
            false
        } else if self.read_fraction <= 0.0 {
            true
        } else {
            !rng.chance(self.read_fraction)
        };
    }

    fn start_op(&mut self, api: &mut CoreApi<'_>, t_arrival: Time) {
        self.busy = true;
        self.t_arrival = t_arrival;
        self.choose(api);
        self.issue_op(api);
    }

    /// (Re-)issues the current operation; retries keep the same object
    /// and direction.
    fn issue_op(&mut self, api: &mut CoreApi<'_>) {
        let buf = self.buf(api);
        self.t_issue = api.now();
        if self.cur_write {
            // One-sided write of the payload image from the local buffer.
            api.issue_write(self.dst_node, self.objects[self.cur_obj], buf, self.payload);
        } else {
            api.issue(
                self.mech.op(),
                self.dst_node,
                self.objects[self.cur_obj],
                buf,
                self.read_wire(),
                0,
            );
        }
        self.state = ReaderState::AwaitTransfer;
    }

    fn success(&mut self, api: &mut CoreApi<'_>) {
        let latency = api.now() - self.t_arrival;
        api.metrics().record_success(self.payload as u64, latency);
        if let Some(n) = &mut self.remaining {
            *n -= 1;
        }
        self.busy = false;
        self.state = ReaderState::Idle;
        if self.remaining == Some(0) {
            self.backlog.clear();
            return;
        }
        match self.arrivals {
            Arrivals::Closed => {
                let now = api.now();
                self.start_op(api, now);
            }
            _ => {
                if let Some(t) = self.backlog.pop_front() {
                    self.start_op(api, t);
                }
            }
        }
    }

    fn retry(&mut self, api: &mut CoreApi<'_>) {
        api.metrics().record_retry();
        if self.backoff == Time::ZERO {
            self.issue_op(api);
        } else {
            self.state = ReaderState::Backoff;
            self.sleep_kind(api, self.backoff, WakeKind::Service);
        }
    }
}

impl Workload for TrafficReader {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        self.choice_rng = Some(api.rng().fork(CHOICE_STREAM));
        self.arrival_rng = Some(api.rng().fork(ARRIVAL_STREAM));
        if let Popularity::Zipf { exponent } = self.popularity {
            self.zipf = Some(Zipf::new(self.objects.len() as u64, exponent));
        }
        self.start = api.now();
        match self.arrivals {
            Arrivals::Closed => {
                let now = api.now();
                self.start_op(api, now);
            }
            _ => self.schedule_next_arrival(api),
        }
    }

    fn on_completion(&mut self, api: &mut CoreApi<'_>, cq: CqEntry) {
        if self.confirm_inflight.remove(&cq.wq_id) {
            return; // Oh-RAM confirm ack; the read already completed.
        }
        assert_eq!(self.state, ReaderState::AwaitTransfer);
        let transfer = api.now() - self.t_issue;
        api.metrics().record_phase(Phase::Transfer, transfer);
        if self.cur_write {
            if cq.success {
                self.success(api);
            } else {
                self.retry(api);
            }
            return;
        }
        match self.mech {
            ReadMechanism::Raw => self.success(api),
            ReadMechanism::WfRegister { .. } => self.success(api),
            ReadMechanism::OhRam { .. } => {
                let buf = self.buf(api);
                let tag = tag_board_addr(api.config().memory_bytes as u64);
                let wq = api.issue_write(self.dst_node, tag, buf, 8);
                self.confirm_inflight.insert(wq);
                self.success(api);
            }
            ReadMechanism::Sabre => {
                if !cq.success {
                    self.retry(api);
                } else if self.consume {
                    self.state = ReaderState::AwaitConsume;
                    let t = api.cpu().read_time(self.payload as usize, DataSource::Llc);
                    api.metrics().record_phase(Phase::App, t);
                    self.sleep_kind(api, t, WakeKind::Service);
                } else {
                    self.success(api);
                }
            }
            ReadMechanism::PerClValidate { .. } => {
                self.state = ReaderState::AwaitStrip;
                let t = api.cpu().strip_time(self.read_wire() as usize);
                api.metrics().record_phase(Phase::Strip, t);
                self.sleep_kind(api, t, WakeKind::Service);
            }
            ReadMechanism::ChecksumValidate { payload } => {
                self.state = ReaderState::AwaitStrip;
                let t = api.cpu().crc_time(payload as usize);
                api.metrics().record_phase(Phase::Strip, t);
                self.sleep_kind(api, t, WakeKind::Service);
            }
        }
    }

    fn on_wake(&mut self, api: &mut CoreApi<'_>) {
        let Reverse((due, _seq, kind)) = self
            .wakes
            .pop()
            .expect("a wake implies a pending sleep we recorded");
        debug_assert_eq!(due, api.now(), "wakes deliver in schedule order");
        match kind {
            WakeKind::Arrival => self.on_arrival(api),
            WakeKind::Service => match self.state {
                ReaderState::AwaitStrip => {
                    let buf = self.buf(api);
                    let image = api.read_local(buf, self.read_wire() as usize);
                    let ok = match self.mech {
                        ReadMechanism::PerClValidate { payload } => {
                            PerClLayout::validate_and_strip(&image, payload as usize).is_ok()
                        }
                        ReadMechanism::ChecksumValidate { payload } => {
                            ChecksumLayout::validate(&image, payload as usize).is_ok()
                        }
                        _ => unreachable!("strip state only for software mechanisms"),
                    };
                    if ok {
                        self.success(api);
                    } else {
                        self.retry(api);
                    }
                }
                ReaderState::AwaitConsume => self.success(api),
                ReaderState::Backoff => self.issue_op(api),
                s => panic!("unexpected service wake in state {s:?}"),
            },
        }
    }
}
