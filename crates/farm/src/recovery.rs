//! Replica catch-up recovery: per-site write logs, the replica state
//! machine, and the recovering writer that pulls missed updates from a
//! live peer after an outage.
//!
//! The base replication story (see [`crate::replica`]) keeps every site
//! current by running the same deterministic writer schedule everywhere —
//! a crashed site's *local* writer keeps going, so no catch-up is needed.
//! That models software crashes well but not *whole-machine* outages
//! (power-cycled chassis, a dead fat-tree leaf), where the site's writer
//! genuinely stops and the restored image is stale. This module closes
//! that gap:
//!
//! * [`WriteLog`]: a bounded ring of `(object, seq)` records plus a head
//!   block publishing the latest sequence number, maintained in each
//!   site's memory by its [`RecoveringWriter`] with ordinary paced local
//!   stores. The record for seq `s` is appended *before* the head bumps
//!   to `s`, and stores execute in issue order — so any image of the
//!   region whose head reads `s` contains every record `≤ s` intact,
//!   even if pulled while the owner keeps appending.
//! * [`RecoveringWriter`]: a drop-in local writer
//!   ([`Writer`](sabre_rack::workloads::Writer)-compatible schedule:
//!   round-robin objects, one pattern seq per update, one block store per
//!   [`writer_store_interval`](sabre_rack::ClusterConfig::writer_store_interval))
//!   that *freezes* at update boundaries while its own node is down,
//!   then walks the [`ReplicaState`] machine `Live → Down → CatchingUp →
//!   Live`: it pulls the nearest live peer's write-log region over the
//!   real fabric ([`OpKind::CatchUpPull`] — paying hops, uplink queueing
//!   and conservation accounting like any transfer), replays the missed
//!   updates through the exact deterministic update path, and re-pulls
//!   until the remaining lag is at most `converged_lag`.
//!
//! While a site catches up, the node's R2P2 pipelines hold the epoch/seq
//! guard ([`CoreApi::set_catching_up`]): reads are refused (the reader
//! retries at the next replica) or, under
//! [`serve_stale`](sabre_rack::ClusterConfig::serve_stale), served with a
//! staleness counter. Catch-up pulls are guarded too — and *always*
//! refused, even in serve-stale mode: a correlated whole-leaf outage
//! restores sibling sites together, and pulling a sibling's equally-stale
//! log would declare convergence far short of the live peers. A refused
//! puller strikes that peer off for the round and retries at its
//! next-nearest one, so two recovering sites bounce off each other and
//! both land on the surviving replica; refusals are answers, not hangs,
//! so no deadlock — if *every* peer refuses (or is down), the puller
//! sleeps briefly and retries the full list.
//!
//! Destination-locking experiments add one more recovery duty: a shared
//! reader lock still set on a restored site is *dead* — the reader's
//! fire-and-forget release was dropped with the outage — so the writer
//! clears its objects' lock words on entering catch-up (lease expiry),
//! instead of spinning forever on a lock nobody holds.
//!
//! Convergence requires the writer's `think` pause to be positive: replay
//! runs think-free at one store per interval, so it outpaces live peers
//! (who pay `think` per update) and the lag shrinks every round. A
//! `think`-free writer would produce updates exactly as fast as replay
//! consumes them.

use sabre_mem::{Addr, BLOCK_BYTES};
use sabre_rack::{CoreApi, StoreLayout, UpdatePlan, Workload};
use sabre_sim::Time;
use sabre_sonuma::{CqEntry, OpKind};
use sabre_sw::ReaderLockWord;

/// Availability state of one replica site, as its writer walks it; see
/// [`RecoveringWriter::state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// Serving reads and applying its own update schedule.
    Live,
    /// Inside an outage window: the writer is frozen at an update
    /// boundary and the fabric drops the node's packets.
    Down,
    /// Restored but stale: pulling missed writes from a live peer while
    /// the epoch/seq guard refuses (or stale-marks) reads.
    CatchingUp,
}

/// Geometry of a per-site write log: one head block publishing the latest
/// sequence number, followed by a bounded ring of
/// [`RECORD_BYTES`](WriteLog::RECORD_BYTES)-byte `(object id, seq)`
/// records. Purely descriptive — the log lives in simulated node memory
/// and is written through [`CoreApi::store_local`] like any other data,
/// so log maintenance pays real store pacing and coherence traffic.
///
/// Identical geometry on every replica site (same base, same capacity),
/// mirroring how the object stores replicate; a catch-up pull can
/// therefore read a peer's region at its own local addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteLog {
    base: Addr,
    cap: u64,
}

impl WriteLog {
    /// Bytes per `(object id u64, seq u64)` record.
    pub const RECORD_BYTES: u64 = 16;

    /// Bytes of the head block (only the leading u64 — the latest
    /// published seq — is meaningful; the rest pads to a cache block so
    /// head stores never share a block with records).
    pub const HEADER_BYTES: u64 = BLOCK_BYTES as u64;

    /// A log at `base` holding the most recent `cap` records.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not block-aligned or `cap` is zero.
    pub fn new(base: Addr, cap: u64) -> Self {
        assert_eq!(base.block_offset(), 0, "write log must be block-aligned");
        assert!(cap > 0, "write log needs capacity");
        WriteLog { base, cap }
    }

    /// The region's base address (= the head block).
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Ring capacity in records: a peer more than this many updates
    /// behind cannot catch up from the log (see
    /// [`WriteLog::parse_record`]).
    pub fn capacity(&self) -> u64 {
        self.cap
    }

    /// Address of the head word (latest published seq).
    pub fn head_addr(&self) -> Addr {
        self.base
    }

    /// Address of the record slot for 1-based update seq `s` — records
    /// never straddle block boundaries (4 per block, exactly).
    ///
    /// # Panics
    ///
    /// Panics on the reserved seq 0.
    pub fn record_addr(&self, seq: u64) -> Addr {
        self.base + Self::HEADER_BYTES + self.record_offset(seq)
    }

    fn record_offset(&self, seq: u64) -> u64 {
        assert!(seq > 0, "log seqs are 1-based");
        ((seq - 1) % self.cap) * Self::RECORD_BYTES
    }

    /// Total bytes of the region (head block + ring, rounded up to whole
    /// blocks) — what a catch-up pull transfers.
    pub fn region_bytes(&self) -> u32 {
        let ring =
            (self.cap * Self::RECORD_BYTES).div_ceil(BLOCK_BYTES as u64) * BLOCK_BYTES as u64;
        u32::try_from(Self::HEADER_BYTES + ring).expect("write log region exceeds u32 bytes")
    }

    /// The wire encoding of one record.
    pub fn encode_record(obj_id: u64, seq: u64) -> [u8; 16] {
        let mut rec = [0u8; 16];
        rec[..8].copy_from_slice(&obj_id.to_le_bytes());
        rec[8..].copy_from_slice(&seq.to_le_bytes());
        rec
    }

    /// The latest published seq in a pulled region image.
    pub fn parse_head(image: &[u8]) -> u64 {
        u64::from_le_bytes(image[..8].try_into().expect("head word"))
    }

    /// The `(object id, seq)` record stored for update `seq` in a pulled
    /// region image. The stored seq equaling the requested one proves the
    /// slot was not overwritten by a ring wrap; callers assert it.
    pub fn parse_record(&self, image: &[u8], seq: u64) -> (u64, u64) {
        let off = (Self::HEADER_BYTES + self.record_offset(seq)) as usize;
        let obj = u64::from_le_bytes(image[off..off + 8].try_into().expect("record obj"));
        let stored = u64::from_le_bytes(image[off + 8..off + 16].try_into().expect("record seq"));
        (obj, stored)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RwPhase {
    /// Between updates (think pause running).
    Idle,
    /// An update is in progress; each wake is one [`UpdatePlan::step`].
    Updating,
    /// Published; the log record store is next.
    LogRecord,
    /// Record stored; the log head bump is next.
    LogHead,
    /// Sleeping out an own-node outage (or waiting to retry a pull when
    /// no peer was live).
    Frozen,
    /// A catch-up pull is in flight.
    AwaitPull,
    /// Waiting for readers to drain (locking-mode experiments).
    SpinningOnReaders,
}

/// A replica-site writer with crash/recovery semantics layered on the
/// deterministic [`Writer`](sabre_rack::workloads::Writer) schedule; see
/// the [module docs](self) for the protocol.
///
/// Updates follow the exact legacy schedule — update `n` (0-based)
/// touches `objects[n % k]` with pattern seq `n` — extended by two paced
/// stores per update maintaining the [`WriteLog`] (record, then head).
/// All sites run the same schedule, so replaying a peer's missed range
/// reproduces the site's own future updates bit-identically; after
/// convergence the site simply resumes the schedule from where replay
/// left it.
///
/// A permanent crash ([`FaultPlan::crash`](sabre_rack::FaultPlan::crash))
/// freezes the writer forever; a pull whose chosen peer dies mid-transfer
/// stalls the writer until the horizon (no timeout/retry on the pull
/// path — recovery scenarios pick outage geometries with a stable live
/// peer).
#[derive(Debug)]
pub struct RecoveringWriter {
    objects: Vec<(u64, Addr)>,
    payload: u32,
    layout: StoreLayout,
    think: Time,
    log: WriteLog,
    /// Fellow replica sites (own node excluded), catch-up sources.
    peers: Vec<u8>,
    /// Local scratch region the pulled log image lands in.
    pull_buf: Addr,
    /// Stop re-pulling once the remaining lag is at most this many
    /// updates; the tail is reproduced by resuming the own schedule.
    converged_lag: u64,
    /// Respect the shared reader-lock word before locking (destination-
    /// locking experiments), like
    /// [`Writer::respecting_reader_locks`](sabre_rack::workloads::Writer::respecting_reader_locks).
    respect_reader_locks: bool,
    // Runtime state.
    /// Completed updates — also the latest own log seq (1-based).
    applied: u64,
    /// The stores of the update in progress, built when it starts (so a
    /// plan never outlives an outage).
    plan: UpdatePlan,
    state: ReplicaState,
    phase: RwPhase,
    /// `Some(target)`: replaying pulled updates up to log seq `target`.
    replay_until: Option<u64>,
    /// In-flight catch-up pull, matched against completions.
    pull_inflight: Option<u64>,
    /// The peer the in-flight pull targets.
    pull_peer: Option<u8>,
    /// Peers that refused this pull round (themselves catching up).
    refused_peers: Vec<u8>,
    /// When the current catch-up began (staleness-window accounting).
    catch_started: Time,
}

impl RecoveringWriter {
    /// Delay before re-checking for a live peer when every peer was down
    /// at pull time.
    const PEER_RETRY: Time = Time::from_us(1);

    /// Creates the writer for one replica site.
    ///
    /// # Panics
    ///
    /// Panics if `objects` or `peers` is empty, or `converged_lag` is not
    /// below the log capacity (the writer could then "converge" onto a
    /// wrapped — unrecoverable — range).
    #[allow(clippy::too_many_arguments)] // one knob per recovery concern
    pub fn new(
        objects: Vec<(u64, Addr)>,
        payload: u32,
        layout: StoreLayout,
        think: Time,
        log: WriteLog,
        peers: Vec<u8>,
        pull_buf: Addr,
        converged_lag: u64,
    ) -> Self {
        assert!(!objects.is_empty(), "a writer needs at least one object");
        assert!(!peers.is_empty(), "a recovering writer needs peers");
        assert!(
            converged_lag < log.capacity(),
            "converged lag must fit the log ring"
        );
        RecoveringWriter {
            objects,
            payload,
            layout,
            think,
            log,
            peers,
            pull_buf,
            converged_lag,
            respect_reader_locks: false,
            applied: 0,
            plan: UpdatePlan::new(),
            state: ReplicaState::Live,
            phase: RwPhase::Idle,
            replay_until: None,
            pull_inflight: None,
            pull_peer: None,
            refused_peers: Vec::new(),
            catch_started: Time::ZERO,
        }
    }

    /// Makes the writer wait for the shared reader lock to drain before
    /// each update (destination-locking mode), both live and during
    /// replay.
    pub fn respecting_reader_locks(mut self) -> Self {
        self.respect_reader_locks = true;
        self
    }

    /// Completed object updates (own schedule + replays).
    pub fn updates(&self) -> u64 {
        self.applied
    }

    /// Where in `Live → Down → CatchingUp → Live` the site currently is.
    pub fn state(&self) -> ReplicaState {
        self.state
    }

    /// The log-maintaining geometry this writer appends through.
    pub fn log(&self) -> WriteLog {
        self.log
    }

    fn obj(&self) -> (u64, Addr) {
        self.objects[(self.applied % self.objects.len() as u64) as usize]
    }

    /// The outage window covering `now` on this writer's own node, if any.
    fn own_outage_end(&self, api: &CoreApi<'_>) -> Option<Option<Time>> {
        let now = api.now();
        api.config()
            .fault
            .outages_for(api.node())
            .into_iter()
            .find(|o| o.covers(now))
            .map(|o| o.until)
    }

    /// Update boundary in Live mode: freeze if the own node is down,
    /// otherwise start the next update.
    fn begin(&mut self, api: &mut CoreApi<'_>) {
        match self.own_outage_end(api) {
            Some(Some(until)) => {
                // Service outage: local state survives, so just freeze
                // until restoration, then catch up.
                self.state = ReplicaState::Down;
                self.phase = RwPhase::Frozen;
                let now = api.now();
                api.sleep(until - now);
            }
            Some(None) => {
                // Permanent crash: never schedule again.
                self.state = ReplicaState::Down;
                self.phase = RwPhase::Frozen;
            }
            None => self.start_update(api),
        }
    }

    /// Starts the current object's update through the same
    /// [`UpdatePlan::start`] as the local writer, then enters the updating
    /// loop (or spins on a held reader lock).
    fn start_update(&mut self, api: &mut CoreApi<'_>) {
        if let Some(target) = self.replay_until {
            // Replaying: prove the pulled image really recorded this
            // update before reproducing it.
            let seq = self.applied + 1;
            let image = api.read_local(self.pull_buf, self.log.region_bytes() as usize);
            let (rec_obj, rec_seq) = self.log.parse_record(&image, seq);
            assert_eq!(
                rec_seq,
                seq,
                "write log wrapped under a catch-up (lag {} > capacity {})",
                target - self.applied,
                self.log.capacity()
            );
            assert_eq!(
                rec_obj,
                self.obj().0,
                "pulled record disagrees with schedule"
            );
        }
        self.phase = if self.plan.start(
            api,
            self.layout,
            self.obj(),
            self.applied,
            self.payload as usize,
            self.respect_reader_locks,
        ) {
            RwPhase::Updating
        } else {
            RwPhase::SpinningOnReaders
        };
    }

    /// An update (own or replayed) finished: continue replaying, re-pull,
    /// or rest.
    fn end_update(&mut self, api: &mut CoreApi<'_>) {
        if let Some(target) = self.replay_until {
            api.metrics().record_replay();
            if self.applied >= target {
                // Round done; re-pull to measure the fresh lag (peers
                // kept writing meanwhile).
                self.issue_pull(api);
            } else {
                self.start_update(api);
            }
        } else {
            self.phase = RwPhase::Idle;
            let interval = api.config().writer_store_interval;
            api.sleep(self.think.max(interval));
        }
    }

    /// Entering (or continuing) catch-up after an outage ended.
    fn resume_from_outage(&mut self, api: &mut CoreApi<'_>) {
        match self.own_outage_end(api) {
            // Back-to-back outage windows: stay frozen.
            Some(Some(until)) => {
                let now = api.now();
                api.sleep(until - now);
            }
            Some(None) => {}
            None => {
                if self.state != ReplicaState::CatchingUp {
                    self.state = ReplicaState::CatchingUp;
                    self.catch_started = api.now();
                    api.set_catching_up(true);
                    if self.respect_reader_locks {
                        // Lease expiry: a shared reader lock still set on
                        // a restored site is dead — its fire-and-forget
                        // release was dropped with the outage. Clear
                        // them, or the writer spins forever on a lock
                        // nobody holds and the site never catches up.
                        for i in 0..self.objects.len() {
                            let (_, base) = self.objects[i];
                            api.store_local_u64(base + ReaderLockWord::OFFSET_FROM_VERSION, 0);
                        }
                    }
                }
                self.issue_pull(api);
            }
        }
    }

    /// Pulls the nearest live peer's write-log region, skipping peers that
    /// refused this round; retries later if no candidate is left.
    fn issue_pull(&mut self, api: &mut CoreApi<'_>) {
        let now = api.now();
        let topo = api.config().fabric.topology;
        let own = api.node();
        let peer = self
            .peers
            .iter()
            .copied()
            .filter(|&p| {
                !self.refused_peers.contains(&p)
                    && !api
                        .config()
                        .fault
                        .outages_for(p as usize)
                        .iter()
                        .any(|o| o.covers(now))
            })
            .min_by_key(|&p| (topo.hops(own, p as usize), p));
        let Some(peer) = peer else {
            // Every peer is down or itself catching up: sleep and retry
            // the full list (a sibling may have converged meanwhile).
            self.refused_peers.clear();
            self.phase = RwPhase::Frozen;
            api.sleep(Self::PEER_RETRY);
            return;
        };
        let wq_id = api.issue(
            OpKind::CatchUpPull,
            peer,
            self.log.base(),
            self.pull_buf,
            self.log.region_bytes(),
            0,
        );
        self.pull_inflight = Some(wq_id);
        self.pull_peer = Some(peer);
        self.phase = RwPhase::AwaitPull;
    }

    /// A pull completed: replay the missed range, or declare convergence
    /// and drop the guard.
    fn on_pull(&mut self, api: &mut CoreApi<'_>) {
        api.metrics().record_catch_up();
        let image = api.read_local(self.pull_buf, self.log.region_bytes() as usize);
        let latest = WriteLog::parse_head(&image);
        let lag = latest.saturating_sub(self.applied);
        if lag <= self.converged_lag {
            // Converged: the ≤ lag trailing updates are reproduced by
            // resuming the own (identical) schedule below.
            let window = api.now() - self.catch_started;
            api.metrics().record_catch_up_window(window);
            api.set_catching_up(false);
            self.state = ReplicaState::Live;
            self.replay_until = None;
            self.phase = RwPhase::Idle;
            let interval = api.config().writer_store_interval;
            api.sleep(self.think.max(interval));
        } else {
            self.replay_until = Some(latest);
            self.start_update(api);
        }
    }
}

impl Workload for RecoveringWriter {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        self.begin(api);
    }

    fn on_wake(&mut self, api: &mut CoreApi<'_>) {
        match self.phase {
            RwPhase::Idle => self.begin(api),
            RwPhase::Frozen => self.resume_from_outage(api),
            RwPhase::Updating => {
                if self.plan.step(api) {
                    self.phase = RwPhase::LogRecord;
                    api.sleep(api.config().writer_store_interval);
                }
            }
            RwPhase::LogRecord => {
                // Record first, head second: a concurrent pull seeing
                // head = s is guaranteed the record for s is complete.
                let seq = self.applied + 1;
                let (obj_id, _) = self.obj();
                api.store_local(
                    self.log.record_addr(seq),
                    &WriteLog::encode_record(obj_id, seq),
                );
                self.phase = RwPhase::LogHead;
                api.sleep(api.config().writer_store_interval);
            }
            RwPhase::LogHead => {
                self.applied += 1;
                api.store_local_u64(self.log.head_addr(), self.applied);
                self.end_update(api);
            }
            // Re-enter through `begin`, not `start_update`: a spin can
            // straddle an outage start, and the writer must freeze at
            // the boundary rather than keep polling a lock word no
            // reader can touch while the node is down.
            RwPhase::SpinningOnReaders => self.begin(api),
            RwPhase::AwaitPull => unreachable!("no sleeps while a pull is in flight"),
        }
    }

    fn on_completion(&mut self, api: &mut CoreApi<'_>, cq: CqEntry) {
        assert_eq!(self.phase, RwPhase::AwaitPull, "only pulls are issued");
        assert_eq!(self.pull_inflight, Some(cq.wq_id), "unexpected completion");
        self.pull_inflight = None;
        let peer = self.pull_peer.take().expect("pull records its peer");
        if cq.refused {
            // That peer is itself catching up; strike it for this round
            // and try the next-nearest one.
            self.refused_peers.push(peer);
            self.issue_pull(api);
            return;
        }
        assert!(cq.success, "catch-up pulls cannot abort");
        self.refused_peers.clear();
        self.on_pull(api);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_geometry_wraps_and_packs() {
        let log = WriteLog::new(Addr::new(1024), 8);
        assert_eq!(log.head_addr(), Addr::new(1024));
        assert_eq!(log.record_addr(1), Addr::new(1024 + 64));
        assert_eq!(log.record_addr(4), Addr::new(1024 + 64 + 48));
        // Ring wrap: seq 9 reuses slot 0.
        assert_eq!(log.record_addr(9), log.record_addr(1));
        // 8 records = 2 blocks of ring + 1 head block.
        assert_eq!(log.region_bytes(), 192);
        // Records never straddle blocks.
        for s in 1..=16 {
            let a = log.record_addr(s);
            assert_eq!(a.block(), (a + 15u64).block(), "seq {s} straddles");
        }
    }

    #[test]
    fn region_rounds_partial_blocks_up() {
        // 6 records = 96 B of ring → 2 blocks.
        assert_eq!(WriteLog::new(Addr::new(0), 6).region_bytes(), 192);
        assert_eq!(WriteLog::new(Addr::new(0), 1).region_bytes(), 128);
    }

    #[test]
    fn records_round_trip_through_an_image() {
        let log = WriteLog::new(Addr::new(0), 8);
        let mut image = vec![0u8; log.region_bytes() as usize];
        let seq = 42u64;
        image[..8].copy_from_slice(&seq.to_le_bytes());
        let rec = WriteLog::encode_record(7, seq);
        let off = (WriteLog::HEADER_BYTES + ((seq - 1) % 8) * 16) as usize;
        image[off..off + 16].copy_from_slice(&rec);
        assert_eq!(WriteLog::parse_head(&image), 42);
        assert_eq!(log.parse_record(&image, 42), (7, 42));
        // A wrapped slot answers with the newer seq, exposing the wrap.
        assert_eq!(log.parse_record(&image, 34).1, 42);
    }

    #[test]
    #[should_panic(expected = "block-aligned")]
    fn misaligned_log_rejected() {
        let _ = WriteLog::new(Addr::new(8), 4);
    }

    #[test]
    #[should_panic(expected = "converged lag must fit")]
    fn converged_lag_must_fit_the_ring() {
        let _ = RecoveringWriter::new(
            vec![(0, Addr::new(0))],
            64,
            StoreLayout::Clean,
            Time::from_ns(100),
            WriteLog::new(Addr::new(4096), 8),
            vec![1],
            Addr::new(8192),
            8,
        );
    }
}
