//! The LightSABRes engine: a sans-IO state machine implementing §4 of the
//! paper, plus the destination-locking variant of §3.2/Table 1 and the
//! non-speculative ablation of §7.1.
//!
//! # Protocol summary
//!
//! For each SABRe (OCC, speculative — the configuration the paper
//! evaluates):
//!
//! 1. A registration allocates an ATT entry and arms its stream buffer.
//! 2. Data-block loads issue in order with full MLP. While the **window of
//!    vulnerability** is open (head reply not yet received) issue is capped
//!    by the stream-buffer depth and stalls at superpage boundaries.
//! 3. The head reply samples the object's version: odd (writer in
//!    progress) aborts immediately; even closes the window.
//! 4. Coherence invalidations probe every stream buffer via subtractor:
//!    * data block already read, window open → **abort** (racing writer);
//!    * data block, window closed → ignore (must be an LLC eviction: any
//!      real writer would have bumped the version word first, which hits
//!      the base block);
//!    * base block after the version sample → set **revalidate**;
//! 5. When all replies are in: aborted → fail; `revalidate` → re-read the
//!    header and compare versions; otherwise → success.
//!
//! Aborted SABRes keep moving data: soNUMA's request-reply flow control
//! requires exactly one reply per request, and the hardware never retries
//! (§5.1) — failure is reported in the final validation message and the
//! decision to retry is software's.

use std::collections::HashMap;

use sabre_mem::{Addr, BlockAddr};

use crate::att::{AttEntry, SabreState};
use crate::config::{CcMode, LightSabresConfig, SpecMode};
use crate::ids::{SabreId, SlotId};
use crate::stream_buffer::{Probe, StreamBuffer};

/// Why a SABRe aborted (statistics / tests only; the wire protocol reports
/// just success or failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// An invalidation hit an already-read data block inside the window.
    WindowConflict,
    /// The sampled version was odd: a writer held the object.
    VersionLocked,
    /// Header re-read found a different version than the sample.
    ValidateMismatch,
    /// The shared reader lock could not be acquired (locking mode).
    LockFailed,
}

/// A memory operation the engine wants issued, returned by
/// [`LightSabres::next_issue`]. The caller owns actually performing it and
/// feeding the result back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockIssue {
    /// ATT slot this issue belongs to.
    pub slot: SlotId,
    /// Which of the SABRe's blocks (data reads) or 0 (header ops).
    pub block_index: u32,
    /// The block to access.
    pub block: BlockAddr,
    /// What kind of access.
    pub kind: IssueKind,
}

/// The kind of memory operation in a [`BlockIssue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueKind {
    /// Read one payload block; reply via [`LightSabres::on_block_reply`].
    Data,
    /// Atomically try-acquire the shared reader lock at the version/lock
    /// word; reply via [`LightSabres::on_lock_reply`].
    LockAcquire,
    /// Release the shared reader lock (fire-and-forget).
    LockRelease,
    /// Re-read the header word; reply via [`LightSabres::on_validate_reply`].
    Validate,
}

/// Externally visible engine outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// The SABRe finished; the R2P2 must send the final validation packet
    /// carrying `atomic`. Emitted exactly once per registered SABRe.
    Complete {
        /// Slot that completed (already released unless a lock release is
        /// still owed).
        slot: SlotId,
        /// The SABRe's identity.
        id: SabreId,
        /// Whether the read was atomic.
        atomic: bool,
    },
}

/// Errors from [`LightSabres::register`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterError {
    /// All ATT entries are busy; the caller must back-pressure.
    Full,
    /// A SABRe with the same id is already registered.
    DuplicateId,
    /// The base address is not block-aligned.
    UnalignedBase,
    /// Size must be positive.
    EmptySabre,
    /// The version word must lie inside the first block.
    VersionOutsideHeadBlock,
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            RegisterError::Full => "all ATT entries are busy",
            RegisterError::DuplicateId => "SABRe id already registered",
            RegisterError::UnalignedBase => "SABRe base address is not block-aligned",
            RegisterError::EmptySabre => "SABRe size must be positive",
            RegisterError::VersionOutsideHeadBlock => {
                "version word must lie inside the first block"
            }
        };
        f.write_str(msg)
    }
}

impl std::error::Error for RegisterError {}

/// Errors from feeding the engine an event for an unknown SABRe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SabreError {
    /// No active SABRe with that id.
    UnknownId,
    /// More data-request packets arrived than the SABRe has blocks.
    TooManyRequests,
}

impl std::fmt::Display for SabreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            SabreError::UnknownId => "no active SABRe with that id",
            SabreError::TooManyRequests => "more request packets than SABRe blocks",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for SabreError {}

/// Counters exposed for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// SABRes registered.
    pub registered: u64,
    /// SABRes completed atomically.
    pub completed_ok: u64,
    /// SABRes completed with an atomicity failure.
    pub completed_failed: u64,
    /// Aborts by an in-window invalidation on a read block.
    pub aborts_window_conflict: u64,
    /// Aborts by sampling an odd (locked) version.
    pub aborts_version_locked: u64,
    /// Aborts by header re-validation mismatch.
    pub aborts_validate_mismatch: u64,
    /// Aborts by failed reader-lock acquisition (locking mode).
    pub aborts_lock_failed: u64,
    /// Base-block invalidations that triggered a revalidation re-read.
    pub revalidations: u64,
    /// Invalidations ignored because the window had closed (eviction false
    /// alarms, §4.2).
    pub invals_ignored_after_window: u64,
    /// Issue attempts declined because the stream buffer was full
    /// (window-open depth stalls).
    pub depth_stalls: u64,
    /// Issue attempts declined at a superpage boundary inside the window.
    pub page_stalls: u64,
}

impl EngineStats {
    /// Accumulates another engine's counters into this one (aggregation
    /// across pipelines).
    pub fn merge(&mut self, other: &EngineStats) {
        self.registered += other.registered;
        self.completed_ok += other.completed_ok;
        self.completed_failed += other.completed_failed;
        self.aborts_window_conflict += other.aborts_window_conflict;
        self.aborts_version_locked += other.aborts_version_locked;
        self.aborts_validate_mismatch += other.aborts_validate_mismatch;
        self.aborts_lock_failed += other.aborts_lock_failed;
        self.revalidations += other.revalidations;
        self.invals_ignored_after_window += other.invals_ignored_after_window;
        self.depth_stalls += other.depth_stalls;
        self.page_stalls += other.page_stalls;
    }
}

/// The LightSABRes engine state: the ATT, one stream buffer per entry, and
/// a round-robin transfer selector. See the [crate docs](crate) for the
/// protocol walk-through and an example.
#[derive(Debug)]
pub struct LightSabres {
    cfg: LightSabresConfig,
    entries: Vec<Option<AttEntry>>,
    buffers: Vec<StreamBuffer>,
    by_id: HashMap<SabreId, SlotId>,
    /// Round-robin cursor of the "select transfer" stage.
    cursor: usize,
    stats: EngineStats,
}

impl LightSabres {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`LightSabresConfig::validate`]).
    pub fn new(cfg: LightSabresConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid LightSabres configuration: {e}");
        }
        LightSabres {
            entries: (0..cfg.stream_buffers).map(|_| None).collect(),
            buffers: (0..cfg.stream_buffers)
                .map(|_| StreamBuffer::new(cfg.depth))
                .collect(),
            by_id: HashMap::new(),
            cursor: 0,
            cfg,
            stats: EngineStats::default(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &LightSabresConfig {
        &self.cfg
    }

    /// Statistics counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Zeroes the statistics counters. In-flight SABRes are untouched —
    /// this only restarts *measurement*, e.g. at the end of a warmup
    /// window.
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
    }

    /// Number of currently occupied ATT entries.
    pub fn active_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Whether every ATT entry is busy (new registrations would fail).
    pub fn is_full(&self) -> bool {
        self.entries.iter().all(|e| e.is_some())
    }

    /// Read-only view of a slot's ATT entry (tests and tracing).
    pub fn entry(&self, slot: SlotId) -> Option<&AttEntry> {
        self.entries[slot.0 as usize].as_ref()
    }

    /// Registers a new SABRe (the registration packet of §5.2).
    ///
    /// # Errors
    ///
    /// See [`RegisterError`]; on [`RegisterError::Full`] the caller should
    /// queue and retry after a completion.
    pub fn register(
        &mut self,
        id: SabreId,
        base: Addr,
        size_bytes: u32,
        version_offset: u32,
    ) -> Result<SlotId, RegisterError> {
        if size_bytes == 0 {
            return Err(RegisterError::EmptySabre);
        }
        if !base.is_block_aligned() {
            return Err(RegisterError::UnalignedBase);
        }
        if version_offset as usize + 8 > sabre_mem::BLOCK_BYTES {
            return Err(RegisterError::VersionOutsideHeadBlock);
        }
        if self.by_id.contains_key(&id) {
            return Err(RegisterError::DuplicateId);
        }
        let free = self
            .entries
            .iter()
            .position(|e| e.is_none())
            .ok_or(RegisterError::Full)?;
        let entry = AttEntry::new(id, base, size_bytes, version_offset);
        self.buffers[free].arm(entry.base_block(), entry.size_blocks);
        self.entries[free] = Some(entry);
        let slot = SlotId(free as u8);
        self.by_id.insert(id, slot);
        self.stats.registered += 1;
        Ok(slot)
    }

    /// Records the arrival of one data-request packet for `id` (soNUMA
    /// source unrolling, §5.1). Issue never runs ahead of these.
    ///
    /// # Errors
    ///
    /// [`SabreError::UnknownId`] if the SABRe is not active,
    /// [`SabreError::TooManyRequests`] if more packets arrive than blocks.
    pub fn on_data_request(&mut self, id: SabreId) -> Result<(), SabreError> {
        let slot = *self.by_id.get(&id).ok_or(SabreError::UnknownId)?;
        let entry = self.entries[slot.0 as usize]
            .as_mut()
            .expect("by_id points at occupied slot");
        if entry.request_count >= entry.size_blocks {
            return Err(SabreError::TooManyRequests);
        }
        entry.request_count += 1;
        Ok(())
    }

    /// Pulls the next memory operation to issue, if any, in round-robin
    /// order over active SABRes (the "select transfer" + "unroll" stages of
    /// Fig. 4). The caller performs the access and feeds the reply back via
    /// the matching `on_*` method.
    pub fn next_issue(&mut self) -> Option<BlockIssue> {
        let n = self.entries.len();
        for step in 0..n {
            let idx = (self.cursor + step) % n;
            if let Some(issue) = self.try_issue_slot(idx) {
                // Advance past the serviced slot for fairness.
                self.cursor = (idx + 1) % n;
                return Some(issue);
            }
        }
        None
    }

    fn try_issue_slot(&mut self, idx: usize) -> Option<BlockIssue> {
        let entry = self.entries[idx].as_mut()?;
        let slot = SlotId(idx as u8);

        // A pending reader-lock release has priority; it also frees the slot.
        if entry.state == SabreState::Releasing {
            let issue = BlockIssue {
                slot,
                block_index: 0,
                block: entry.version_addr().block(),
                kind: IssueKind::LockRelease,
            };
            self.free_slot(idx);
            return Some(issue);
        }

        // Locking mode: the reader-lock acquire is the head access.
        if self.cfg.cc_mode == CcMode::Locking && !entry.lock_issued && !entry.aborted {
            entry.lock_issued = true;
            return Some(BlockIssue {
                slot,
                block_index: 0,
                block: entry.version_addr().block(),
                kind: IssueKind::LockAcquire,
            });
        }

        // OCC revalidation: header re-read once data is complete.
        if entry.state == SabreState::Validating && !entry.validate_issued {
            entry.validate_issued = true;
            return Some(BlockIssue {
                slot,
                block_index: 0,
                block: entry.version_addr().block(),
                kind: IssueKind::Validate,
            });
        }

        // Data issue, subject to the §4.1/§5.1 gates.
        if entry.state != SabreState::Active {
            return None;
        }
        let i = entry.issue_count;
        if i >= entry.size_blocks || i >= entry.request_count {
            return None; // done issuing, or flow control
        }
        if entry.speculating && !entry.aborted {
            match self.cfg.spec_mode {
                SpecMode::Speculative => {
                    if self.cfg.cc_mode == CcMode::Occ && i > 0 && i >= self.cfg.depth {
                        self.stats.depth_stalls += 1;
                        return None; // stream buffer cannot hold the load
                    }
                    if self.cfg.cc_mode == CcMode::Locking && i >= self.cfg.depth {
                        self.stats.depth_stalls += 1;
                        return None;
                    }
                    if i > 0 && entry.block(i).page() != entry.base_block().page() {
                        self.stats.page_stalls += 1;
                        return None; // §4.1: stall at page boundary in window
                    }
                }
                SpecMode::ReadVersionFirst => {
                    // Strict serialization: in OCC only the head block may
                    // issue before the version is sampled; in locking mode
                    // no data at all before the lock is held.
                    let gate_open = match self.cfg.cc_mode {
                        CcMode::Occ => i == 0,
                        CcMode::Locking => false,
                    };
                    if !gate_open {
                        return None;
                    }
                }
            }
        }
        entry.issue_count += 1;
        Some(BlockIssue {
            slot,
            block_index: i,
            block: entry.block(i),
            kind: IssueKind::Data,
        })
    }

    /// Feeds back the reply for a data-block read. `data` is the block's
    /// contents at service time; the engine samples the version word from
    /// the head block. Returns completion actions, if any.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not active or the reply does not match an
    /// issued block (both would be simulator wiring bugs, not protocol
    /// conditions).
    pub fn on_block_reply(
        &mut self,
        slot: SlotId,
        block_index: u32,
        data: &[u8; sabre_mem::BLOCK_BYTES],
    ) -> Vec<Action> {
        let idx = slot.0 as usize;
        let entry = self.entries[idx]
            .as_mut()
            .unwrap_or_else(|| panic!("block reply for idle {slot}"));
        assert!(
            block_index < entry.issue_count,
            "reply for unissued block {block_index} of {}",
            entry.id
        );
        entry.reply_count += 1;
        assert!(
            entry.reply_count <= entry.size_blocks,
            "more replies than blocks for {}",
            entry.id
        );
        self.buffers[idx].mark_received(block_index);

        // Head reply: sample the version (OCC) and close the window.
        if block_index == 0 && self.cfg.cc_mode == CcMode::Occ && entry.version.is_none() {
            let off = entry.version_offset as usize;
            let word = u64::from_le_bytes(data[off..off + 8].try_into().expect("8-byte word"));
            entry.version = Some(word);
            entry.speculating = false;
            if word % 2 == 1 && !entry.aborted {
                entry.aborted = true;
                self.stats.aborts_version_locked += 1;
            }
        }

        self.maybe_complete(idx)
    }

    /// Feeds back the result of a reader-lock acquire (locking mode).
    ///
    /// # Panics
    ///
    /// Panics if the slot is not active.
    pub fn on_lock_reply(&mut self, slot: SlotId, acquired: bool) -> Vec<Action> {
        let idx = slot.0 as usize;
        let entry = self.entries[idx]
            .as_mut()
            .unwrap_or_else(|| panic!("lock reply for idle {slot}"));
        assert!(
            entry.lock_issued,
            "lock reply without acquire for {}",
            entry.id
        );
        entry.speculating = false;
        if acquired {
            entry.lock_held = true;
            if entry.aborted {
                // Aborted while the acquire was in flight; undo it once the
                // transfer drains.
            }
        } else if !entry.aborted {
            entry.aborted = true;
            self.stats.aborts_lock_failed += 1;
        }
        self.maybe_complete(idx)
    }

    /// Feeds back the header re-read of the OCC revalidation stage.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not in the validating state.
    pub fn on_validate_reply(
        &mut self,
        slot: SlotId,
        data: &[u8; sabre_mem::BLOCK_BYTES],
    ) -> Vec<Action> {
        let idx = slot.0 as usize;
        let entry = self.entries[idx]
            .as_mut()
            .unwrap_or_else(|| panic!("validate reply for idle {slot}"));
        assert_eq!(
            entry.state,
            SabreState::Validating,
            "validate reply for {} in wrong state",
            entry.id
        );
        let off = entry.version_offset as usize;
        let word = u64::from_le_bytes(data[off..off + 8].try_into().expect("8-byte word"));
        let atomic = entry.version == Some(word);
        if !atomic {
            self.stats.aborts_validate_mismatch += 1;
        }
        vec![self.finish(idx, atomic)]
    }

    /// Delivers a coherence invalidation to the engine; every armed stream
    /// buffer is probed by subtractor (§4.2).
    ///
    /// Invalidations never complete a SABRe by themselves (completion is
    /// always driven by a reply), so this returns no actions; it only flips
    /// abort/revalidate state.
    pub fn on_invalidation(&mut self, block: BlockAddr) {
        // Every entry not yet `Releasing` is in `by_id`, and the scan skips
        // `Releasing` ones, so an empty map means there is nothing to probe
        // (the common case under local writers: most stores snoop an idle
        // engine).
        if self.by_id.is_empty() {
            debug_assert!(
                self.entries
                    .iter()
                    .flatten()
                    .all(|e| e.state == SabreState::Releasing),
                "a live SABRe is missing from by_id"
            );
            return;
        }
        for idx in 0..self.entries.len() {
            let Some(entry) = self.entries[idx].as_mut() else {
                continue;
            };
            if entry.state == SabreState::Releasing {
                continue; // already completed; only the lock release is owed
            }
            match self.buffers[idx].probe(block) {
                Probe::Miss => {}
                Probe::Base => {
                    match self.cfg.cc_mode {
                        CcMode::Occ => {
                            if entry.version.is_some() && !entry.aborted {
                                // The one ambiguous event: writer conflict or
                                // eviction. Never abort here — re-read the
                                // header when data completes (§4.2).
                                if !entry.revalidate {
                                    entry.revalidate = true;
                                    self.stats.revalidations += 1;
                                }
                                // If data had already completed and success
                                // was not yet reported we would be in
                                // Validating state already; reaching here
                                // with Active state means the re-read is
                                // still ahead of us.
                            }
                            // Window still open (version not sampled): the
                            // pending head read is ordered after this write
                            // and will observe its effect; nothing to do.
                        }
                        CcMode::Locking => {
                            // Before the lock is held the head block is
                            // ordinary speculative data; a hit on read data
                            // inside the window is a conflict.
                            if entry.speculating && self.buffers[idx].received(0) && !entry.aborted
                            {
                                entry.aborted = true;
                                self.stats.aborts_window_conflict += 1;
                            } else if !entry.speculating {
                                self.stats.invals_ignored_after_window += 1;
                            }
                        }
                    }
                }
                Probe::Data { received, .. } => {
                    if entry.speculating && received && !entry.aborted {
                        // §4.1: a write raced our already-consumed data while
                        // the version/lock outcome was still unknown.
                        entry.aborted = true;
                        self.stats.aborts_window_conflict += 1;
                    } else if !entry.speculating {
                        self.stats.invals_ignored_after_window += 1;
                    }
                }
            }
        }
    }

    /// Completion check after any reply; emits [`Action::Complete`] and
    /// either frees the slot or parks it for validation / lock release.
    fn maybe_complete(&mut self, idx: usize) -> Vec<Action> {
        let entry = self.entries[idx].as_mut().expect("occupied");
        if entry.state != SabreState::Active || !entry.data_complete() {
            return Vec::new();
        }
        // Locking mode must not report success until the lock outcome is
        // known (the acquire can outlast the data on a congested system).
        if self.cfg.cc_mode == CcMode::Locking
            && entry.lock_issued
            && !entry.lock_held
            && !entry.aborted
        {
            return Vec::new();
        }
        if entry.aborted {
            return vec![self.finish(idx, false)];
        }
        match self.cfg.cc_mode {
            CcMode::Occ => {
                if entry.revalidate {
                    entry.state = SabreState::Validating;
                    Vec::new()
                } else {
                    vec![self.finish(idx, true)]
                }
            }
            CcMode::Locking => vec![self.finish(idx, true)],
        }
    }

    /// Terminates slot `idx`, emitting its completion. The slot is freed
    /// immediately unless a reader-lock release is still owed.
    fn finish(&mut self, idx: usize, atomic: bool) -> Action {
        let entry = self.entries[idx].as_mut().expect("occupied");
        let id = entry.id;
        if atomic {
            self.stats.completed_ok += 1;
        } else {
            self.stats.completed_failed += 1;
        }
        let action = Action::Complete {
            slot: SlotId(idx as u8),
            id,
            atomic,
        };
        if entry.lock_held {
            entry.state = SabreState::Releasing;
            // `by_id` entry drops now: the SABRe is over on the wire.
            self.by_id.remove(&id);
            self.buffers[idx].release();
        } else {
            self.free_slot(idx);
        }
        action
    }

    fn free_slot(&mut self, idx: usize) {
        if let Some(entry) = self.entries[idx].take() {
            self.by_id.remove(&entry.id);
        }
        self.buffers[idx].release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sabre_mem::BLOCK_BYTES;

    fn id(n: u32) -> SabreId {
        SabreId {
            src_node: 1,
            src_pipe: 0,
            transfer: n,
        }
    }

    fn block_with_version(v: u64) -> [u8; BLOCK_BYTES] {
        let mut b = [0u8; BLOCK_BYTES];
        b[..8].copy_from_slice(&v.to_le_bytes());
        b
    }

    /// Registers a SABRe and feeds all its data-request packets.
    fn register_full(eng: &mut LightSabres, n: u32, size: u32) -> SlotId {
        let slot = eng.register(id(n), Addr::new(0), size, 0).unwrap();
        let blocks = eng.entry(slot).unwrap().size_blocks;
        for _ in 0..blocks {
            eng.on_data_request(id(n)).unwrap();
        }
        slot
    }

    #[test]
    fn happy_path_two_blocks() {
        let mut eng = LightSabres::new(LightSabresConfig::default());
        let slot = register_full(&mut eng, 1, 128);
        // Both blocks issue speculatively.
        let i0 = eng.next_issue().unwrap();
        let i1 = eng.next_issue().unwrap();
        assert_eq!((i0.block_index, i1.block_index), (0, 1));
        assert_eq!(i0.kind, IssueKind::Data);
        assert!(eng.next_issue().is_none());
        // Replies arrive; head carries an even (unlocked) version.
        assert!(eng
            .on_block_reply(slot, 0, &block_with_version(4))
            .is_empty());
        let done = eng.on_block_reply(slot, 1, &[0u8; BLOCK_BYTES]);
        assert_eq!(
            done,
            vec![Action::Complete {
                slot,
                id: id(1),
                atomic: true
            }]
        );
        assert_eq!(eng.stats().completed_ok, 1);
        assert_eq!(eng.active_count(), 0);
    }

    #[test]
    fn odd_version_aborts() {
        let mut eng = LightSabres::new(LightSabresConfig::default());
        let slot = register_full(&mut eng, 1, 128);
        eng.next_issue().unwrap();
        eng.next_issue().unwrap();
        eng.on_block_reply(slot, 0, &block_with_version(5));
        let done = eng.on_block_reply(slot, 1, &[0u8; BLOCK_BYTES]);
        assert_eq!(
            done,
            vec![Action::Complete {
                slot,
                id: id(1),
                atomic: false
            }]
        );
        assert_eq!(eng.stats().aborts_version_locked, 1);
    }

    #[test]
    fn window_conflict_aborts() {
        let mut eng = LightSabres::new(LightSabresConfig::default());
        let slot = register_full(&mut eng, 1, 192); // 3 blocks
        for _ in 0..3 {
            eng.next_issue().unwrap();
        }
        // Block 2's reply arrives first (reordered memory system)...
        eng.on_block_reply(slot, 2, &[0u8; BLOCK_BYTES]);
        // ...then a writer invalidates it while the head is outstanding.
        eng.on_invalidation(BlockAddr::from_index(2));
        assert!(eng.entry(slot).unwrap().aborted);
        eng.on_block_reply(slot, 0, &block_with_version(2));
        let done = eng.on_block_reply(slot, 1, &[0u8; BLOCK_BYTES]);
        assert_eq!(
            done,
            vec![Action::Complete {
                slot,
                id: id(1),
                atomic: false
            }]
        );
        assert_eq!(eng.stats().aborts_window_conflict, 1);
    }

    #[test]
    fn inval_on_unread_block_is_harmless() {
        let mut eng = LightSabres::new(LightSabresConfig::default());
        let slot = register_full(&mut eng, 1, 192);
        for _ in 0..3 {
            eng.next_issue().unwrap();
        }
        // Invalidate a block whose reply has not arrived: the eventual read
        // is ordered after the write, so it is not a conflict.
        eng.on_invalidation(BlockAddr::from_index(2));
        assert!(!eng.entry(slot).unwrap().aborted);
    }

    #[test]
    fn inval_after_window_is_ignored() {
        let mut eng = LightSabres::new(LightSabresConfig::default());
        let slot = register_full(&mut eng, 1, 192);
        for _ in 0..3 {
            eng.next_issue().unwrap();
        }
        eng.on_block_reply(slot, 0, &block_with_version(2)); // window closes
        eng.on_block_reply(slot, 1, &[0u8; BLOCK_BYTES]);
        // Eviction-style invalidation on an already-read data block.
        eng.on_invalidation(BlockAddr::from_index(1));
        assert!(!eng.entry(slot).unwrap().aborted);
        assert_eq!(eng.stats().invals_ignored_after_window, 1);
        let done = eng.on_block_reply(slot, 2, &[0u8; BLOCK_BYTES]);
        assert!(matches!(done[0], Action::Complete { atomic: true, .. }));
    }

    #[test]
    fn base_inval_triggers_revalidation_success() {
        let mut eng = LightSabres::new(LightSabresConfig::default());
        let slot = register_full(&mut eng, 1, 128);
        eng.next_issue().unwrap();
        eng.next_issue().unwrap();
        eng.on_block_reply(slot, 0, &block_with_version(6));
        // Base block evicted (or writer — ambiguous): revalidate, not abort.
        eng.on_invalidation(BlockAddr::from_index(0));
        assert!(eng.entry(slot).unwrap().revalidate);
        assert!(eng.on_block_reply(slot, 1, &[0u8; BLOCK_BYTES]).is_empty());
        // The engine now wants the header re-read.
        let v = eng.next_issue().unwrap();
        assert_eq!(v.kind, IssueKind::Validate);
        let done = eng.on_validate_reply(slot, &block_with_version(6));
        assert!(matches!(done[0], Action::Complete { atomic: true, .. }));
        assert_eq!(eng.stats().revalidations, 1);
        assert_eq!(eng.stats().completed_ok, 1);
    }

    #[test]
    fn base_inval_revalidation_mismatch_fails() {
        let mut eng = LightSabres::new(LightSabresConfig::default());
        let slot = register_full(&mut eng, 1, 128);
        eng.next_issue().unwrap();
        eng.next_issue().unwrap();
        eng.on_block_reply(slot, 0, &block_with_version(6));
        eng.on_invalidation(BlockAddr::from_index(0));
        eng.on_block_reply(slot, 1, &[0u8; BLOCK_BYTES]);
        let v = eng.next_issue().unwrap();
        assert_eq!(v.kind, IssueKind::Validate);
        // A writer got in: version moved to 8.
        let done = eng.on_validate_reply(slot, &block_with_version(8));
        assert!(matches!(done[0], Action::Complete { atomic: false, .. }));
        assert_eq!(eng.stats().aborts_validate_mismatch, 1);
    }

    #[test]
    fn base_inval_before_version_sample_is_ignored() {
        let mut eng = LightSabres::new(LightSabresConfig::default());
        let slot = register_full(&mut eng, 1, 128);
        eng.next_issue().unwrap();
        eng.next_issue().unwrap();
        // Writer touches the header before our head read was serviced: the
        // head read is ordered after it and will see the new version.
        eng.on_invalidation(BlockAddr::from_index(0));
        assert!(!eng.entry(slot).unwrap().revalidate);
        eng.on_block_reply(slot, 0, &block_with_version(2));
        let done = eng.on_block_reply(slot, 1, &[0u8; BLOCK_BYTES]);
        assert!(matches!(done[0], Action::Complete { atomic: true, .. }));
    }

    #[test]
    fn flow_control_gates_issue() {
        let mut eng = LightSabres::new(LightSabresConfig::default());
        let sid = id(1);
        eng.register(sid, Addr::new(0), 256, 0).unwrap(); // 4 blocks
        assert!(eng.next_issue().is_none(), "no requests yet");
        eng.on_data_request(sid).unwrap();
        eng.on_data_request(sid).unwrap();
        assert!(eng.next_issue().is_some());
        assert!(eng.next_issue().is_some());
        assert!(eng.next_issue().is_none(), "issue must not pass requests");
        eng.on_data_request(sid).unwrap();
        assert!(eng.next_issue().is_some());
    }

    #[test]
    fn depth_limits_window_issue() {
        let cfg = LightSabresConfig {
            depth: 4,
            ..LightSabresConfig::default()
        };
        let mut eng = LightSabres::new(cfg);
        let slot = register_full(&mut eng, 1, 64 * 16); // 16 blocks
        for _ in 0..4 {
            assert!(eng.next_issue().is_some());
        }
        assert!(eng.next_issue().is_none(), "depth 4 reached inside window");
        assert!(eng.stats().depth_stalls > 0);
        // Head reply closes the window; issue resumes past the depth.
        eng.on_block_reply(slot, 0, &block_with_version(0));
        for i in 4..16 {
            let issue = eng.next_issue().unwrap();
            assert_eq!(issue.block_index, i);
        }
        assert!(eng.next_issue().is_none());
    }

    #[test]
    fn page_boundary_stalls_window() {
        let mut eng = LightSabres::new(LightSabresConfig::default());
        // Start one block before a superpage boundary.
        let base = Addr::new(sabre_mem::PAGE_BYTES as u64 - 64);
        let sid = id(1);
        let slot = eng.register(sid, base, 192, 0).unwrap();
        for _ in 0..3 {
            eng.on_data_request(sid).unwrap();
        }
        let head = eng.next_issue().unwrap();
        assert_eq!(head.block_index, 0);
        assert!(eng.next_issue().is_none(), "crossing stalls in window");
        assert!(eng.stats().page_stalls > 0);
        eng.on_block_reply(slot, 0, &block_with_version(0));
        assert!(eng.next_issue().is_some(), "crossing allowed after window");
    }

    #[test]
    fn no_speculation_serializes_head() {
        let cfg = LightSabresConfig {
            spec_mode: SpecMode::ReadVersionFirst,
            ..LightSabresConfig::default()
        };
        let mut eng = LightSabres::new(cfg);
        let slot = register_full(&mut eng, 1, 256);
        let head = eng.next_issue().unwrap();
        assert_eq!(head.block_index, 0);
        assert!(eng.next_issue().is_none(), "strict read-version-then-data");
        eng.on_block_reply(slot, 0, &block_with_version(2));
        for i in 1..4 {
            assert_eq!(eng.next_issue().unwrap().block_index, i);
        }
    }

    #[test]
    fn att_fills_and_frees() {
        let cfg = LightSabresConfig {
            stream_buffers: 2,
            ..LightSabresConfig::default()
        };
        let mut eng = LightSabres::new(cfg);
        let s0 = register_full(&mut eng, 1, 64);
        let _s1 = register_full(&mut eng, 2, 64);
        assert!(eng.is_full());
        assert_eq!(
            eng.register(id(3), Addr::new(0), 64, 0),
            Err(RegisterError::Full)
        );
        // Complete the first: slot frees.
        let i = eng.next_issue().unwrap();
        assert_eq!(i.slot, s0);
        eng.on_block_reply(s0, 0, &block_with_version(0));
        assert!(!eng.is_full());
        assert!(eng.register(id(3), Addr::new(0), 64, 0).is_ok());
    }

    #[test]
    fn register_validation() {
        let mut eng = LightSabres::new(LightSabresConfig::default());
        assert_eq!(
            eng.register(id(1), Addr::new(1), 64, 0),
            Err(RegisterError::UnalignedBase)
        );
        assert_eq!(
            eng.register(id(1), Addr::new(0), 0, 0),
            Err(RegisterError::EmptySabre)
        );
        assert_eq!(
            eng.register(id(1), Addr::new(0), 64, 60),
            Err(RegisterError::VersionOutsideHeadBlock)
        );
        eng.register(id(1), Addr::new(0), 64, 0).unwrap();
        assert_eq!(
            eng.register(id(1), Addr::new(64), 64, 0),
            Err(RegisterError::DuplicateId)
        );
    }

    #[test]
    fn request_overflow_rejected() {
        let mut eng = LightSabres::new(LightSabresConfig::default());
        let sid = id(1);
        eng.register(sid, Addr::new(0), 64, 0).unwrap();
        eng.on_data_request(sid).unwrap();
        assert_eq!(eng.on_data_request(sid), Err(SabreError::TooManyRequests));
        assert_eq!(eng.on_data_request(id(9)), Err(SabreError::UnknownId));
    }

    #[test]
    fn round_robin_interleaves_sabres() {
        let mut eng = LightSabres::new(LightSabresConfig::default());
        register_full(&mut eng, 1, 256);
        register_full(&mut eng, 2, 256);
        let seq: Vec<u8> = (0..4).map(|_| eng.next_issue().unwrap().slot.0).collect();
        assert_eq!(seq, vec![0, 1, 0, 1], "select-transfer must round-robin");
    }

    #[test]
    fn aborted_sabre_still_drains_all_replies() {
        // The request-reply flow-control invariant: one reply per request,
        // even after an abort.
        let mut eng = LightSabres::new(LightSabresConfig::default());
        let slot = register_full(&mut eng, 1, 256);
        for _ in 0..4 {
            eng.next_issue().unwrap();
        }
        eng.on_block_reply(slot, 1, &[0u8; BLOCK_BYTES]);
        eng.on_invalidation(BlockAddr::from_index(1)); // abort
        assert!(eng.entry(slot).unwrap().aborted);
        eng.on_block_reply(slot, 0, &block_with_version(2));
        eng.on_block_reply(slot, 2, &[0u8; BLOCK_BYTES]);
        let done = eng.on_block_reply(slot, 3, &[0u8; BLOCK_BYTES]);
        assert!(matches!(done[0], Action::Complete { atomic: false, .. }));
        // Exactly one completion, after all four replies.
        assert_eq!(eng.stats().completed_failed, 1);
    }

    #[test]
    fn locking_mode_acquires_then_releases() {
        let cfg = LightSabresConfig {
            cc_mode: CcMode::Locking,
            ..LightSabresConfig::default()
        };
        let mut eng = LightSabres::new(cfg);
        let slot = register_full(&mut eng, 1, 128);
        let first = eng.next_issue().unwrap();
        assert_eq!(first.kind, IssueKind::LockAcquire);
        // Data still issues speculatively while the acquire is in flight.
        assert_eq!(eng.next_issue().unwrap().kind, IssueKind::Data);
        assert_eq!(eng.next_issue().unwrap().kind, IssueKind::Data);
        eng.on_lock_reply(slot, true);
        eng.on_block_reply(slot, 0, &block_with_version(2));
        let done = eng.on_block_reply(slot, 1, &[0u8; BLOCK_BYTES]);
        assert!(matches!(done[0], Action::Complete { atomic: true, .. }));
        // The slot still owes the release and is not yet reusable.
        let rel = eng.next_issue().unwrap();
        assert_eq!(rel.kind, IssueKind::LockRelease);
        assert_eq!(eng.active_count(), 0);
    }

    #[test]
    fn locking_mode_failed_acquire_aborts() {
        let cfg = LightSabresConfig {
            cc_mode: CcMode::Locking,
            ..LightSabresConfig::default()
        };
        let mut eng = LightSabres::new(cfg);
        let slot = register_full(&mut eng, 1, 128);
        assert_eq!(eng.next_issue().unwrap().kind, IssueKind::LockAcquire);
        eng.next_issue().unwrap();
        eng.next_issue().unwrap();
        eng.on_lock_reply(slot, false);
        eng.on_block_reply(slot, 0, &block_with_version(3));
        let done = eng.on_block_reply(slot, 1, &[0u8; BLOCK_BYTES]);
        assert!(matches!(done[0], Action::Complete { atomic: false, .. }));
        assert_eq!(eng.stats().aborts_lock_failed, 1);
        // No release owed: the lock was never held.
        assert!(eng.next_issue().is_none());
    }

    #[test]
    fn locking_window_conflict_aborts() {
        let cfg = LightSabresConfig {
            cc_mode: CcMode::Locking,
            ..LightSabresConfig::default()
        };
        let mut eng = LightSabres::new(cfg);
        let slot = register_full(&mut eng, 1, 128);
        eng.next_issue().unwrap(); // acquire
        eng.next_issue().unwrap(); // block 0
        eng.next_issue().unwrap(); // block 1
        eng.on_block_reply(slot, 1, &[0u8; BLOCK_BYTES]);
        // Writer races before the lock resolves.
        eng.on_invalidation(BlockAddr::from_index(1));
        assert!(eng.entry(slot).unwrap().aborted);
        eng.on_lock_reply(slot, true); // acquired late — must be released
        eng.on_block_reply(slot, 0, &block_with_version(2));
        let rel = eng.next_issue().unwrap();
        assert_eq!(rel.kind, IssueKind::LockRelease);
        assert_eq!(eng.stats().completed_failed, 1);
    }

    /// Debug snapshot of every ATT slot (entries carry no `PartialEq`).
    fn att_snapshot(eng: &LightSabres) -> Vec<String> {
        (0..eng.config().stream_buffers)
            .map(|i| format!("{:?}", eng.entry(SlotId(i as u8))))
            .collect()
    }

    #[test]
    fn invalidation_snoops_an_idle_engine_without_effect() {
        let mut eng = LightSabres::new(LightSabresConfig::default());
        for b in [0, 1, 17, 4096] {
            eng.on_invalidation(BlockAddr::from_index(b));
        }
        assert_eq!(eng.stats(), EngineStats::default());
        assert_eq!(eng.active_count(), 0);
        // Same once a SABRe has come and gone: its freed slot is not probed.
        let slot = register_full(&mut eng, 1, 128);
        eng.next_issue().unwrap();
        eng.next_issue().unwrap();
        eng.on_block_reply(slot, 0, &block_with_version(2));
        eng.on_block_reply(slot, 1, &[0u8; BLOCK_BYTES]);
        let stats = eng.stats();
        let before = att_snapshot(&eng);
        eng.on_invalidation(BlockAddr::from_index(0));
        eng.on_invalidation(BlockAddr::from_index(1));
        assert_eq!(eng.stats(), stats);
        assert_eq!(att_snapshot(&eng), before);
    }

    #[test]
    fn invalidation_leaves_releasing_entries_alone() {
        let cfg = LightSabresConfig {
            cc_mode: CcMode::Locking,
            ..LightSabresConfig::default()
        };
        let mut eng = LightSabres::new(cfg);
        let slot = register_full(&mut eng, 1, 128);
        eng.next_issue().unwrap(); // acquire
        eng.next_issue().unwrap(); // block 0
        eng.next_issue().unwrap(); // block 1
        eng.on_lock_reply(slot, true);
        eng.on_block_reply(slot, 0, &block_with_version(2));
        eng.on_block_reply(slot, 1, &[0u8; BLOCK_BYTES]);
        assert_eq!(eng.entry(slot).unwrap().state, SabreState::Releasing);
        let stats = eng.stats();
        let before = att_snapshot(&eng);
        // Both the head (lock word) and a data block of the finished read.
        eng.on_invalidation(BlockAddr::from_index(0));
        eng.on_invalidation(BlockAddr::from_index(1));
        assert_eq!(eng.stats(), stats);
        assert_eq!(att_snapshot(&eng), before);
        // The owed release still issues and frees the slot.
        assert_eq!(eng.next_issue().unwrap().kind, IssueKind::LockRelease);
        assert!(eng.entry(slot).is_none());
    }

    #[test]
    fn single_block_sabre_is_trivially_atomic() {
        let mut eng = LightSabres::new(LightSabresConfig::default());
        let slot = register_full(&mut eng, 1, 48);
        assert_eq!(eng.entry(slot).unwrap().size_blocks, 1);
        eng.next_issue().unwrap();
        let done = eng.on_block_reply(slot, 0, &block_with_version(0));
        assert!(matches!(done[0], Action::Complete { atomic: true, .. }));
    }
}
