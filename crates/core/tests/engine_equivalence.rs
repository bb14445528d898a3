//! Property test: the engine's occupancy-mask bookkeeping is invisible.
//!
//! `LightSabres` selects transfers with a priority encoder over its ATT
//! occupancy mask, counts and fills slots with mask operations, probes
//! only live slots on an invalidation, and resolves a SABRe's id by
//! comparing the live slots' ids. [`Reference`] below is the plain
//! formulation it replaced: a `(cursor + step) % n` scan over every slot,
//! a linear search for a free slot, a full scan per invalidation and an
//! id-to-slot map. Random sequences of registrations, data requests,
//! issues, block / validate / lock replies, invalidations and lock
//! releases drive both, in OCC and locking modes, speculative and not,
//! with shallow stream buffers and superpage-straddling objects (depth and
//! page stalls), on ATTs of one slot up to 256. Every call must return the
//! same result, and the occupancy, the counters and every occupied entry
//! must agree after each step.

use std::collections::HashMap;

use proptest::prelude::*;

use sabre_core::stream_buffer::Probe;
use sabre_core::{
    Action, AttEntry, BlockIssue, CcMode, EngineStats, IssueKind, LightSabres, LightSabresConfig,
    RegisterError, SabreError, SabreId, SabreState, SlotId, SpecMode, StreamBuffer,
};
use sabre_mem::{Addr, BlockAddr, BLOCK_BYTES, PAGE_BYTES};

/// The scan-everything engine: the state machine of `LightSabres` with its
/// original slot bookkeeping.
struct Reference {
    cfg: LightSabresConfig,
    entries: Vec<Option<AttEntry>>,
    buffers: Vec<StreamBuffer>,
    by_id: HashMap<SabreId, SlotId>,
    cursor: usize,
    stats: EngineStats,
}

impl Reference {
    fn new(cfg: LightSabresConfig) -> Self {
        Reference {
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

    fn active_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    fn is_full(&self) -> bool {
        self.entries.iter().all(|e| e.is_some())
    }

    fn register(
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
        if version_offset as usize + 8 > BLOCK_BYTES {
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

    fn on_data_request(&mut self, id: SabreId) -> Result<(), SabreError> {
        let slot = *self.by_id.get(&id).ok_or(SabreError::UnknownId)?;
        let entry = self.entries[slot.0 as usize].as_mut().unwrap();
        if entry.request_count >= entry.size_blocks {
            return Err(SabreError::TooManyRequests);
        }
        entry.request_count += 1;
        Ok(())
    }

    fn next_issue(&mut self) -> Option<BlockIssue> {
        let n = self.entries.len();
        for step in 0..n {
            let idx = (self.cursor + step) % n;
            if let Some(issue) = self.try_issue_slot(idx) {
                self.cursor = (idx + 1) % n;
                return Some(issue);
            }
        }
        None
    }

    fn try_issue_slot(&mut self, idx: usize) -> Option<BlockIssue> {
        let entry = self.entries[idx].as_mut()?;
        let slot = SlotId(idx as u8);
        let version_addr = entry.version_addr();
        let header = |kind| BlockIssue {
            slot,
            block_index: 0,
            block: version_addr.block(),
            version_addr,
            kind,
        };
        if entry.state == SabreState::Releasing {
            self.free_slot(idx);
            return Some(header(IssueKind::LockRelease));
        }
        if self.cfg.cc_mode == CcMode::Locking && !entry.lock_issued && !entry.aborted {
            entry.lock_issued = true;
            return Some(header(IssueKind::LockAcquire));
        }
        if entry.state == SabreState::Validating && !entry.validate_issued {
            entry.validate_issued = true;
            return Some(header(IssueKind::Validate));
        }
        if entry.state != SabreState::Active {
            return None;
        }
        let i = entry.issue_count;
        if i >= entry.size_blocks || i >= entry.request_count {
            return None;
        }
        if entry.speculating && !entry.aborted {
            match self.cfg.spec_mode {
                SpecMode::Speculative => {
                    if self.cfg.cc_mode == CcMode::Occ && i > 0 && i >= self.cfg.depth {
                        self.stats.depth_stalls += 1;
                        return None;
                    }
                    if self.cfg.cc_mode == CcMode::Locking && i >= self.cfg.depth {
                        self.stats.depth_stalls += 1;
                        return None;
                    }
                    if i > 0 && entry.block(i).page() != entry.base_block().page() {
                        self.stats.page_stalls += 1;
                        return None;
                    }
                }
                SpecMode::ReadVersionFirst => {
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
            version_addr,
            kind: IssueKind::Data,
        })
    }

    fn on_block_reply(
        &mut self,
        slot: SlotId,
        block_index: u32,
        data: &[u8; BLOCK_BYTES],
    ) -> Vec<Action> {
        let idx = slot.0 as usize;
        let entry = self.entries[idx].as_mut().unwrap();
        assert!(block_index < entry.issue_count);
        entry.reply_count += 1;
        assert!(entry.reply_count <= entry.size_blocks);
        self.buffers[idx].mark_received(block_index);
        if block_index == 0 && self.cfg.cc_mode == CcMode::Occ && entry.version.is_none() {
            let word = version_word(data, entry.version_offset);
            entry.version = Some(word);
            entry.speculating = false;
            if word % 2 == 1 && !entry.aborted {
                entry.aborted = true;
                self.stats.aborts_version_locked += 1;
            }
        }
        self.maybe_complete(idx)
    }

    fn on_lock_reply(&mut self, slot: SlotId, acquired: bool) -> Vec<Action> {
        let idx = slot.0 as usize;
        let entry = self.entries[idx].as_mut().unwrap();
        assert!(entry.lock_issued);
        entry.speculating = false;
        if acquired {
            entry.lock_held = true;
        } else if !entry.aborted {
            entry.aborted = true;
            self.stats.aborts_lock_failed += 1;
        }
        self.maybe_complete(idx)
    }

    fn on_validate_reply(&mut self, slot: SlotId, data: &[u8; BLOCK_BYTES]) -> Vec<Action> {
        let idx = slot.0 as usize;
        let entry = self.entries[idx].as_mut().unwrap();
        assert_eq!(entry.state, SabreState::Validating);
        let word = version_word(data, entry.version_offset);
        let atomic = entry.version == Some(word);
        if !atomic {
            self.stats.aborts_validate_mismatch += 1;
        }
        vec![self.finish(idx, atomic)]
    }

    fn on_invalidation(&mut self, block: BlockAddr) {
        for idx in 0..self.entries.len() {
            let Some(entry) = self.entries[idx].as_mut() else {
                continue;
            };
            if entry.state == SabreState::Releasing {
                continue;
            }
            match self.buffers[idx].probe(block) {
                Probe::Miss => {}
                Probe::Base => match self.cfg.cc_mode {
                    CcMode::Occ => {
                        if entry.version.is_some() && !entry.aborted && !entry.revalidate {
                            entry.revalidate = true;
                            self.stats.revalidations += 1;
                        }
                    }
                    CcMode::Locking => {
                        if entry.speculating && self.buffers[idx].received(0) && !entry.aborted {
                            entry.aborted = true;
                            self.stats.aborts_window_conflict += 1;
                        } else if !entry.speculating {
                            self.stats.invals_ignored_after_window += 1;
                        }
                    }
                },
                Probe::Data { received, .. } => {
                    if entry.speculating && received && !entry.aborted {
                        entry.aborted = true;
                        self.stats.aborts_window_conflict += 1;
                    } else if !entry.speculating {
                        self.stats.invals_ignored_after_window += 1;
                    }
                }
            }
        }
    }

    fn maybe_complete(&mut self, idx: usize) -> Vec<Action> {
        let entry = self.entries[idx].as_mut().unwrap();
        if entry.state != SabreState::Active || !entry.data_complete() {
            return Vec::new();
        }
        // Wait for the acquire's outcome, aborted or not.
        if self.cfg.cc_mode == CcMode::Locking && entry.lock_issued && entry.speculating {
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

    fn finish(&mut self, idx: usize, atomic: bool) -> Action {
        let entry = self.entries[idx].as_mut().unwrap();
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

fn version_word(data: &[u8; BLOCK_BYTES], offset: u32) -> u64 {
    let off = offset as usize;
    u64::from_le_bytes(data[off..off + 8].try_into().unwrap())
}

/// A head block whose version word (at offset 0) is `version`.
fn head_block(version: u64) -> [u8; BLOCK_BYTES] {
    let mut b = [0u8; BLOCK_BYTES];
    b[..8].copy_from_slice(&version.to_le_bytes());
    b
}

/// Object bases: near the start of memory, and one or two blocks before a
/// superpage boundary, so that speculative issue stalls at the page.
fn base_of(choice: u64) -> Addr {
    let page = PAGE_BYTES as u64;
    let block = BLOCK_BYTES as u64;
    Addr::new(match choice % 4 {
        0 => 0,
        1 => 5 * block,
        2 => page - 2 * block,
        _ => 3 * page - block,
    })
}

/// Whether a completed SABRe `id` still holds its slot for a lock release.
fn owes_release(eng: &LightSabres, id: SabreId) -> bool {
    (0..eng.config().stream_buffers).any(|slot| {
        eng.entry(SlotId(slot as u8))
            .is_some_and(|e| e.id == id && e.state == SabreState::Releasing)
    })
}

/// A memory access issued by the engines and not yet answered.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    issue: BlockIssue,
    id: SabreId,
}

/// Drives both engines through `ops` and checks they agree at every step;
/// returns the counters they end with.
fn replay(cfg: LightSabresConfig, ops: &[(u8, u64)]) -> Result<EngineStats, TestCaseError> {
    let mut fast = LightSabres::new(cfg.clone());
    let mut slow = Reference::new(cfg);
    let mut next_transfer = 0u32;
    let mut registered: Vec<SabreId> = Vec::new();
    let mut in_flight: Vec<InFlight> = Vec::new();
    for (step, &(op, r)) in ops.iter().enumerate() {
        match op {
            // Register a fresh SABRe; now and then a live id again.
            0 => {
                let id = if r % 8 == 0 && !registered.is_empty() {
                    registered[(r / 8) as usize % registered.len()]
                } else {
                    next_transfer += 1;
                    SabreId {
                        src_node: (r % 3) as u8,
                        src_pipe: 0,
                        transfer: next_transfer,
                    }
                };
                // The map's release of an old registration would drop the
                // new one's id; sources never reuse a transfer id that soon.
                if owes_release(&fast, id) {
                    continue;
                }
                let size = 1 + (r >> 8) as u32 % (12 * BLOCK_BYTES as u32);
                let base = base_of(r >> 24);
                let got = fast.register(id, base, size, 0);
                prop_assert_eq!(
                    got,
                    slow.register(id, base, size, 0),
                    "register at step {}",
                    step
                );
                if got.is_ok() {
                    registered.push(id);
                }
            }
            // A data-request packet, sometimes for an unknown SABRe.
            1 => {
                let id = if registered.is_empty() || r % 16 == 0 {
                    SabreId {
                        src_node: 9,
                        src_pipe: 9,
                        transfer: r as u32,
                    }
                } else {
                    registered[(r / 16) as usize % registered.len()]
                };
                prop_assert_eq!(
                    fast.on_data_request(id),
                    slow.on_data_request(id),
                    "data request at step {}",
                    step
                );
            }
            // The select-transfer stage, one or more pulls.
            2 => {
                for _ in 0..=(r % 4) {
                    let got = fast.next_issue();
                    prop_assert_eq!(got, slow.next_issue(), "issue at step {}", step);
                    let Some(issue) = got else { break };
                    if issue.kind != IssueKind::LockRelease {
                        let id = fast.entry(issue.slot).expect("issued from a live slot").id;
                        in_flight.push(InFlight { issue, id });
                    }
                }
            }
            // Answer one in-flight access.
            3 => {
                if in_flight.is_empty() {
                    continue;
                }
                let InFlight { issue, id } = in_flight.swap_remove(r as usize % in_flight.len());
                // An aborted locking SABRe completes without waiting for
                // its acquire; that reply has no entry left to reach.
                if fast.entry(issue.slot).map(|e| e.id) != Some(id) {
                    continue;
                }
                let version = (r >> 8) % 5;
                let (got, want) = match issue.kind {
                    IssueKind::Data => {
                        let data = head_block(version);
                        (
                            fast.on_block_reply(issue.slot, issue.block_index, &data),
                            slow.on_block_reply(issue.slot, issue.block_index, &data),
                        )
                    }
                    IssueKind::Validate => {
                        let data = head_block(version);
                        (
                            fast.on_validate_reply(issue.slot, &data),
                            slow.on_validate_reply(issue.slot, &data),
                        )
                    }
                    IssueKind::LockAcquire => {
                        let acquired = r % 4 != 0;
                        (
                            fast.on_lock_reply(issue.slot, acquired),
                            slow.on_lock_reply(issue.slot, acquired),
                        )
                    }
                    IssueKind::LockRelease => unreachable!("releases are fire-and-forget"),
                };
                prop_assert_eq!(got, want, "reply at step {}", step);
            }
            // A coherence invalidation on or near some object.
            _ => {
                let block = base_of(r).block().offset((r >> 8) % 14);
                fast.on_invalidation(block);
                slow.on_invalidation(block);
            }
        }
        prop_assert_eq!(
            fast.active_count(),
            slow.active_count(),
            "count at step {}",
            step
        );
        prop_assert_eq!(fast.is_full(), slow.is_full(), "full at step {}", step);
        prop_assert_eq!(fast.stats(), slow.stats, "stats at step {}", step);
        for (idx, want) in slow.entries.iter().enumerate() {
            let got = fast.entry(SlotId(idx as u8));
            if got.is_some() || want.is_some() {
                prop_assert_eq!(
                    format!("{got:?}"),
                    format!("{:?}", want.as_ref()),
                    "slot {} at step {}",
                    idx,
                    step
                );
            }
        }
    }
    Ok(fast.stats())
}

/// ATT sizes: the tiny, the paper's 16, and ones that span mask words.
const SLOTS: [usize; 8] = [1, 2, 3, 16, 63, 64, 130, 256];

fn config(slots: usize, depth: u32, locking: bool, speculative: bool) -> LightSabresConfig {
    LightSabresConfig {
        stream_buffers: SLOTS[slots],
        depth,
        cc_mode: if locking {
            CcMode::Locking
        } else {
            CcMode::Occ
        },
        spec_mode: if speculative {
            SpecMode::Speculative
        } else {
            SpecMode::ReadVersionFirst
        },
    }
}

/// The sequence generator reaches every outcome the engine counts, so the
/// property above compares more than idle engines.
#[test]
fn random_sequences_reach_every_counted_outcome() {
    let mut rng = proptest::test_runner::TestRng::deterministic("engine_equivalence::coverage");
    let mut total = EngineStats::default();
    for case in 0..64u32 {
        let ops: Vec<(u8, u64)> = (0..300)
            .map(|_| (rng.below(5) as u8, rng.next_u64()))
            .collect();
        let cfg = config(
            case as usize % SLOTS.len(),
            1 + case % 9,
            case % 2 == 1,
            case % 4 != 0,
        );
        total.merge(&replay(cfg, &ops).unwrap());
    }
    let EngineStats {
        registered,
        completed_ok,
        completed_failed,
        aborts_window_conflict,
        aborts_version_locked,
        aborts_validate_mismatch,
        aborts_lock_failed,
        revalidations,
        invals_ignored_after_window,
        depth_stalls,
        page_stalls,
    } = total;
    for (name, count) in [
        ("registered", registered),
        ("completed_ok", completed_ok),
        ("completed_failed", completed_failed),
        ("aborts_window_conflict", aborts_window_conflict),
        ("aborts_version_locked", aborts_version_locked),
        ("aborts_validate_mismatch", aborts_validate_mismatch),
        ("aborts_lock_failed", aborts_lock_failed),
        ("revalidations", revalidations),
        ("invals_ignored_after_window", invals_ignored_after_window),
        ("depth_stalls", depth_stalls),
        ("page_stalls", page_stalls),
    ] {
        assert!(count > 0, "no case reached {name}: {total:?}");
    }
}

proptest! {
    #[test]
    fn masked_engine_matches_the_full_scan(
        slots in 0usize..SLOTS.len(),
        depth in 1u32..10,
        locking in any::<bool>(),
        speculative in 0u8..4,
        ops in proptest::collection::vec((0u8..5, any::<u64>()), 40..400),
    ) {
        replay(config(slots, depth, locking, speculative > 0), &ops)?;
    }
}
