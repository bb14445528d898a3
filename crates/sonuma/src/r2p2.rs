//! The destination-side Remote Request Processing Pipeline, upgraded to an
//! R2P2 (§4.2): stateless service for plain reads and writes, plus the
//! [`LightSabres`] engine for SABRes, with parking for registrations that
//! arrive while the ATT is full.
//!
//! Like the engine it embeds, the R2P2 is sans-IO: packets go in, actions
//! come out. The assembly layer owns pacing — it pulls memory operations
//! one at a time through [`R2p2::next_issue`] at the pipeline's issue
//! bandwidth and performs them against the node's memory system.

use std::collections::VecDeque;

use sabre_core::{
    Action, IssueKind, LightSabres, LightSabresConfig, RegisterError, SabreError, SabreId, SlotId,
};
use sabre_mem::{Addr, BlockAddr, BlockRange};
use sabre_sim::FastMap;
use sabre_sw::{CaptureKind, CaptureStep, ObjectCapture};

use crate::wire::{Block, NodeId, Packet, PacketKind, PipeId};

pub use sabre_core::engine::IssueKind as EngineIssueKind;

/// The continuation of one memory access: the work its completion does,
/// carried in the access itself, so the R2P2 keeps no table of accesses
/// in flight. Hand it back to [`R2p2::complete_into`] with the access's
/// [`MemOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemToken(Pending);

/// What a memory access returned, handed back with its [`MemToken`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOutcome {
    /// The block a read returned.
    Data(Block),
    /// Whether a reader-lock acquire or a writer CAS took the lock.
    Acquired(bool),
    /// A write or an unlock was applied.
    Done,
}

/// An action the assembly layer must perform for the R2P2. Every memory
/// access but a release carries a [`MemToken`]; once the access is
/// serviced, [`R2p2::complete_into`] takes the token and its outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum R2p2Action {
    /// Read `block` from local memory; completes with [`MemOutcome::Data`].
    MemRead {
        /// The access's continuation.
        token: MemToken,
        /// The block to read.
        block: BlockAddr,
    },
    /// Write `data` to `block` (one-sided write); completes with
    /// [`MemOutcome::Done`]. The write must raise coherence invalidations
    /// like any store.
    MemWrite {
        /// The access's continuation.
        token: MemToken,
        /// The block to write.
        block: BlockAddr,
        /// The data.
        data: Block,
    },
    /// Atomically try-acquire the shared reader lock at `version_addr`
    /// (locking mode); completes with [`MemOutcome::Acquired`].
    LockRmw {
        /// The access's continuation.
        token: MemToken,
        /// Address of the version/lock word.
        version_addr: Addr,
    },
    /// Release one shared reader hold (fire-and-forget).
    LockRelease {
        /// Address of the version/lock word.
        version_addr: Addr,
    },
    /// Atomically CAS the version word at `version_addr` from even to odd
    /// (remote write-lock acquire); completes with [`MemOutcome::Acquired`].
    WriterCas {
        /// The access's continuation.
        token: MemToken,
        /// Address of the version/lock word.
        version_addr: Addr,
    },
    /// Advance the odd version word at `version_addr` to even (remote
    /// unlock); completes with [`MemOutcome::Done`].
    WriterUnlock {
        /// The access's continuation.
        token: MemToken,
        /// Address of the version/lock word.
        version_addr: Addr,
    },
    /// Transmit a packet on the fabric.
    Send(Packet),
}

impl R2p2Action {
    /// The cache block a memory access touches: the data block of a read
    /// or write, the version/lock word's block of a lock, CAS or unlock.
    /// `None` for a send, which touches no memory.
    pub fn block(&self) -> Option<BlockAddr> {
        match *self {
            R2p2Action::MemRead { block, .. } | R2p2Action::MemWrite { block, .. } => Some(block),
            R2p2Action::LockRmw { version_addr, .. }
            | R2p2Action::LockRelease { version_addr }
            | R2p2Action::WriterCas { version_addr, .. }
            | R2p2Action::WriterUnlock { version_addr, .. } => Some(version_addr.block()),
            R2p2Action::Send(_) => None,
        }
    }
}

/// What a memory access completes. Work that answers a requester directly
/// carries the [`Route`] of its reply; SABRe work names its ATT slot,
/// whose live entry holds the SABRe's id, which is its route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    PlainRead { route: Route, block_index: u32 },
    CatchUpRead { route: Route, block_index: u32 },
    Write { route: Route, block_index: u32 },
    Cas(Route),
    Unlock(Route),
    SabreData { slot: SlotId, block_index: u32 },
    SabreValidate { slot: SlotId },
    SabreLock { slot: SlotId },
    CaptureRead { capture: u32, block: BlockAddr },
}

/// An entry of the plain-service FIFO.
#[derive(Debug, Clone, Copy)]
enum Ready {
    /// One action.
    Action(R2p2Action),
    /// A catch-up pull's region: one read per block, in address order;
    /// the first `issued` have been handed out.
    CatchUp {
        route: Route,
        blocks: BlockRange,
        issued: u32,
    },
}

/// Where a reply goes: the requester's node and pipeline, and the
/// transfer it belongs to. A SABRe's id names exactly these, so it is its
/// own route.
type Route = SabreId;

/// The sender of request `pkt` and its transfer: the route back to it,
/// and the id of the SABRe a SABRe request belongs to.
fn requester(pkt: &Packet, transfer: u32) -> Route {
    SabreId {
        src_node: pkt.src_node,
        src_pipe: pkt.src_pipe,
        transfer,
    }
}

/// A live server-side object capture and where its image streams back to.
#[derive(Debug)]
struct CaptureCtx {
    capture: ObjectCapture,
    route: Route,
}

#[derive(Debug, Clone, Copy)]
struct ParkedSabre {
    id: SabreId,
    base: Addr,
    size_bytes: u32,
    version_offset: u32,
    /// Data requests that arrived while parked, to be replayed.
    requests: u32,
}

/// R2P2 statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct R2p2Stats {
    /// Plain read requests serviced.
    pub plain_reads: u64,
    /// One-sided write blocks applied.
    pub writes: u64,
    /// SABRes accepted into the ATT.
    pub sabres_registered: u64,
    /// Registrations parked because the ATT was full.
    pub sabres_parked: u64,
    /// Stale data requests discarded in fault-tolerant mode: their
    /// registration died with a crash, so there is no SABRe to serve.
    pub stale_dropped: u64,
    /// Captured reads (WfRegister / Oh-RAM requests) serviced.
    pub captured_reads: u64,
    /// Times a capture restarted because a writer raced the snapshot —
    /// server-side memory re-reads, invisible to the reader.
    pub capture_restarts: u64,
    /// Catch-up pull requests served for recovering peers (each streams a
    /// whole write-log region back as a block burst).
    pub catch_up_pulls: u64,
    /// Reads refused by the epoch/seq guard while this node's replica was
    /// catching up after an outage.
    pub reads_refused: u64,
    /// Reads served *despite* the replica catching up, in serve-stale
    /// mode — each may have returned pre-outage data.
    pub stale_served: u64,
    /// Catch-up pulls refused because this node's own replica was still
    /// catching up — its log head is stale and a peer converging against
    /// it would stop short. The puller retries at its next peer.
    pub catch_up_refused: u64,
}

impl R2p2Stats {
    /// Accumulates another pipeline's counters into this one (aggregation
    /// across pipelines).
    pub fn merge(&mut self, other: &R2p2Stats) {
        self.plain_reads += other.plain_reads;
        self.writes += other.writes;
        self.sabres_registered += other.sabres_registered;
        self.sabres_parked += other.sabres_parked;
        self.stale_dropped += other.stale_dropped;
        self.captured_reads += other.captured_reads;
        self.capture_restarts += other.capture_restarts;
        self.catch_up_pulls += other.catch_up_pulls;
        self.reads_refused += other.reads_refused;
        self.stale_served += other.stale_served;
        self.catch_up_refused += other.catch_up_refused;
    }
}

/// One Remote Request Processing Pipeline.
#[derive(Debug)]
pub struct R2p2 {
    node: NodeId,
    pipe: PipeId,
    engine: LightSabres,
    /// Plain-service work awaiting an issue slot (FIFO).
    ready: VecDeque<Ready>,
    /// SABRes waiting for a free ATT entry (in arrival order).
    parked: VecDeque<ParkedSabre>,
    /// Live object captures (WfRegister / Oh-RAM), keyed by capture id.
    captures: FastMap<u32, CaptureCtx>,
    next_capture: u32,
    stats: R2p2Stats,
    /// Discard (rather than panic on) data requests whose registration is
    /// neither live nor parked. Off by default: in a fault-free rack such
    /// a request is a wiring bug. A rack with a fault plan turns it on,
    /// because a crash can swallow the registration packet of a burst
    /// whose data requests outlive the outage.
    tolerate_stale: bool,
    /// How many of this node's recovering workloads are still replaying
    /// missed writes (a counter: several writers may catch up at once,
    /// finishing at different times). While non-zero the replica's data
    /// may be stale, and the epoch/seq guard refuses new reads — or, in
    /// serve-stale mode, serves them counted as [`R2p2Stats::stale_served`].
    catching_up: u32,
    /// Serve reads while catching up instead of refusing them.
    serve_stale: bool,
}

impl R2p2 {
    /// Creates an R2P2 for pipeline `pipe` of node `node` with the given
    /// LightSABRes configuration.
    pub fn new(node: NodeId, pipe: PipeId, cfg: LightSabresConfig) -> Self {
        R2p2 {
            node,
            pipe,
            engine: LightSabres::new(cfg),
            ready: VecDeque::new(),
            parked: VecDeque::new(),
            captures: FastMap::default(),
            next_capture: 0,
            stats: R2p2Stats::default(),
            tolerate_stale: false,
            catching_up: 0,
            serve_stale: false,
        }
    }

    /// Makes the pipeline discard stale SABRe data requests (counted in
    /// [`R2p2Stats::stale_dropped`]) instead of panicking — the recovery
    /// semantics of a crash-prone rack, where an outage can eat a
    /// registration whose data requests arrive after service resumes.
    pub fn tolerating_stale(mut self) -> Self {
        self.tolerate_stale = true;
        self
    }

    /// Makes the pipeline serve reads while the replica is catching up
    /// (counted in [`R2p2Stats::stale_served`]) instead of refusing them —
    /// availability over freshness.
    pub fn serving_stale(mut self) -> Self {
        self.serve_stale = true;
        self
    }

    /// Raises or lowers the catching-up counter: a recovering workload on
    /// this node calls with `true` when it starts replaying missed writes
    /// and `false` once converged. Reads are guarded while the counter is
    /// non-zero.
    ///
    /// # Panics
    ///
    /// Panics on underflow (a `false` without a matching `true`).
    pub fn set_catching_up(&mut self, on: bool) {
        if on {
            self.catching_up += 1;
        } else {
            self.catching_up = self
                .catching_up
                .checked_sub(1)
                .expect("catch-up counter underflow");
        }
    }

    /// Whether the replica on this node is still catching up.
    pub fn is_catching_up(&self) -> bool {
        self.catching_up > 0
    }

    /// The embedded LightSABRes engine (stats and tests).
    pub fn engine(&self) -> &LightSabres {
        &self.engine
    }

    /// R2P2-level statistics.
    pub fn stats(&self) -> R2p2Stats {
        self.stats
    }

    /// Zeroes this pipeline's counters and its engine's. In-flight work is
    /// untouched — this only restarts *measurement*, e.g. at the end of a
    /// warmup window.
    pub fn reset_stats(&mut self) {
        self.stats = R2p2Stats::default();
        self.engine.reset_stats();
    }

    /// Whether any work is waiting for an issue slot.
    pub fn has_issuable(&self) -> bool {
        // `next_issue` on the engine is destructive; this conservative probe
        // (plain work queued, or any active SABRe) lets the pump decide
        // whether to keep itself scheduled.
        !self.ready.is_empty() || self.engine.active_count() > 0
    }

    /// The reply `kind` from this pipeline along `route`.
    fn reply(&self, route: Route, kind: PacketKind) -> Packet {
        Packet {
            src_node: self.node,
            src_pipe: self.pipe,
            dst_node: route.src_node,
            dst_pipe: route.src_pipe,
            kind,
        }
    }

    /// Consumes one inbound request packet. Returns `true` if new issuable
    /// work may exist (the pump should be (re)scheduled).
    ///
    /// # Panics
    ///
    /// Panics on reply packets (mis-routed) or malformed SABRe protocol
    /// sequences — simulator bugs, not recoverable conditions.
    pub fn on_packet(&mut self, pkt: &Packet) -> bool {
        // The epoch/seq guard: while this node's replica is catching up,
        // its data may predate the outage. New reads are refused (the
        // reader retries at the next replica) unless serve-stale mode
        // trades freshness for availability. In-flight SABRe data requests
        // are exempt: their registration was admitted before the guard
        // flipped. Catch-up pulls are refused *regardless* of serve-stale
        // — a correlated outage restores sibling sites together, and an
        // equally-stale log head would let the puller falsely converge;
        // the refusal bounces it to its next-nearest (live) peer.
        if self.catching_up > 0 {
            if let PacketKind::CatchUpReq { transfer, .. } = pkt.kind {
                self.stats.catch_up_refused += 1;
                self.refuse(pkt, transfer);
                return true;
            }
            let transfer = match pkt.kind {
                PacketKind::ReadReq { transfer, .. }
                | PacketKind::SabreReg { transfer, .. }
                | PacketKind::WfReadReq { transfer, .. }
                | PacketKind::OhReadReq { transfer, .. } => Some(transfer),
                _ => None,
            };
            if let Some(transfer) = transfer {
                if self.serve_stale {
                    self.stats.stale_served += 1;
                } else {
                    self.stats.reads_refused += 1;
                    self.refuse(pkt, transfer);
                    return true;
                }
            }
        }
        match pkt.kind {
            PacketKind::ReadReq {
                addr,
                transfer,
                block_index,
            } => {
                self.stats.plain_reads += 1;
                self.ready.push_back(Ready::Action(R2p2Action::MemRead {
                    token: MemToken(Pending::PlainRead {
                        route: requester(pkt, transfer),
                        block_index,
                    }),
                    block: addr.block(),
                }));
                true
            }
            PacketKind::WriteReq {
                addr,
                transfer,
                block_index,
                data,
            } => {
                self.stats.writes += 1;
                self.ready.push_back(Ready::Action(R2p2Action::MemWrite {
                    token: MemToken(Pending::Write {
                        route: requester(pkt, transfer),
                        block_index,
                    }),
                    block: addr.block(),
                    data,
                }));
                true
            }
            PacketKind::CasReq { addr, transfer } => {
                self.ready.push_back(Ready::Action(R2p2Action::WriterCas {
                    token: MemToken(Pending::Cas(requester(pkt, transfer))),
                    version_addr: addr,
                }));
                true
            }
            PacketKind::UnlockReq { addr, transfer } => {
                self.ready
                    .push_back(Ready::Action(R2p2Action::WriterUnlock {
                        token: MemToken(Pending::Unlock(requester(pkt, transfer))),
                        version_addr: addr,
                    }));
                true
            }
            PacketKind::WfReadReq {
                transfer,
                base,
                size_bytes,
            } => {
                self.start_capture(CaptureKind::WfRegister, pkt, transfer, base, size_bytes);
                true
            }
            PacketKind::OhReadReq {
                transfer,
                base,
                size_bytes,
            } => {
                self.start_capture(CaptureKind::OhRam, pkt, transfer, base, size_bytes);
                true
            }
            PacketKind::SabreReg {
                transfer,
                base,
                size_bytes,
                version_offset,
            } => {
                let id = requester(pkt, transfer);
                self.register_or_park(id, base, size_bytes, version_offset);
                true
            }
            PacketKind::CatchUpReq {
                transfer,
                base,
                size_bytes,
            } => {
                // Stream the peer's write-log region back, one block per
                // reply. Blocks are issued in address order, header block
                // first — the puller relies on the log head being read no
                // later than any record it then applies. The region waits
                // as one entry that yields a read per issue slot.
                self.stats.catch_up_pulls += 1;
                self.ready.push_back(Ready::CatchUp {
                    route: requester(pkt, transfer),
                    blocks: BlockRange::covering(base, size_bytes as u64),
                    issued: 0,
                });
                true
            }
            PacketKind::SabreReadReq { transfer, .. } => {
                let id = requester(pkt, transfer);
                match self.engine.on_data_request(id) {
                    Ok(()) => {}
                    Err(SabreError::UnknownId) => {
                        // The registration is parked; count the request for
                        // replay (in-order fabric guarantees reg-first).
                        if let Some(parked) = self.parked.iter_mut().find(|p| p.id == id) {
                            parked.requests += 1;
                        } else if self.tolerate_stale {
                            // The registration died in an outage; the SABRe
                            // can never be served. Stale traffic, not a bug.
                            self.stats.stale_dropped += 1;
                            return false;
                        } else {
                            panic!("data request for unregistered, unparked SABRe {id}");
                        }
                    }
                    Err(e) => panic!("SABRe protocol violation for {id}: {e}"),
                }
                true
            }
            _ => panic!("R2P2 received a reply-side packet: {pkt:?}"),
        }
    }

    /// Queues the epoch/seq guard's refusal of request `pkt`.
    fn refuse(&mut self, pkt: &Packet, transfer: u32) {
        let refusal = self.reply(
            requester(pkt, transfer),
            PacketKind::ReadRefused { transfer },
        );
        self.ready
            .push_back(Ready::Action(R2p2Action::Send(refusal)));
    }

    /// Starts a server-side object capture for a WfRegister / Oh-RAM read
    /// and queues its first memory reads.
    fn start_capture(
        &mut self,
        kind: CaptureKind,
        pkt: &Packet,
        transfer: u32,
        base: Addr,
        size_bytes: u32,
    ) {
        self.stats.captured_reads += 1;
        let id = self.next_capture;
        self.next_capture = id.checked_add(1).expect("capture ids exhausted");
        let (capture, step) = ObjectCapture::new(kind, base, size_bytes);
        self.captures.insert(
            id,
            CaptureCtx {
                capture,
                route: requester(pkt, transfer),
            },
        );
        self.queue_capture_step(id, step);
    }

    /// Queues the memory reads a capture step asks for (delivery steps are
    /// handled where they arise, in [`R2p2::complete_into`]).
    fn queue_capture_step(&mut self, id: u32, step: CaptureStep) {
        let CaptureStep::Read(blocks) = step else {
            unreachable!("delivery steps are converted to replies inline");
        };
        for block in blocks {
            self.ready.push_back(Ready::Action(R2p2Action::MemRead {
                token: MemToken(Pending::CaptureRead { capture: id, block }),
                block,
            }));
        }
    }

    fn register_or_park(&mut self, id: SabreId, base: Addr, size_bytes: u32, version_offset: u32) {
        match self.engine.register(id, base, size_bytes, version_offset) {
            Ok(_) => self.stats.sabres_registered += 1,
            Err(RegisterError::Full) => {
                self.stats.sabres_parked += 1;
                self.parked.push_back(ParkedSabre {
                    id,
                    base,
                    size_bytes,
                    version_offset,
                    requests: 0,
                });
            }
            Err(e) => panic!("malformed SABRe registration {id}: {e}"),
        }
    }

    fn try_unpark(&mut self) {
        while !self.engine.is_full() {
            let Some(parked) = self.parked.pop_front() else {
                return;
            };
            self.register_or_park(
                parked.id,
                parked.base,
                parked.size_bytes,
                parked.version_offset,
            );
            for _ in 0..parked.requests {
                self.engine
                    .on_data_request(parked.id)
                    .expect("replaying parked requests");
            }
        }
    }

    /// The next queued plain-service action: the front entry, or the next
    /// block read of a catch-up region at the front.
    fn pop_ready(&mut self) -> Option<R2p2Action> {
        let action = match self.ready.front_mut()? {
            Ready::Action(action) => *action,
            Ready::CatchUp {
                route,
                blocks,
                issued,
            } => {
                let block_index = *issued;
                *issued += 1;
                let read = R2p2Action::MemRead {
                    token: MemToken(Pending::CatchUpRead {
                        route: *route,
                        block_index,
                    }),
                    block: blocks.first().offset(u64::from(block_index)),
                };
                if u64::from(*issued) < blocks.block_count() {
                    return Some(read);
                }
                read
            }
        };
        self.ready.pop_front();
        Some(action)
    }

    /// Pulls the next memory operation to issue, if any: queued plain
    /// service first (FIFO arrival order), then the engine's round-robin
    /// pick. The caller paces calls at the R2P2's issue bandwidth.
    pub fn next_issue(&mut self) -> Option<R2p2Action> {
        if let Some(a) = self.pop_ready() {
            return Some(a);
        }
        let issue = self.engine.next_issue()?;
        let slot = issue.slot;
        Some(match issue.kind {
            IssueKind::Data => R2p2Action::MemRead {
                token: MemToken(Pending::SabreData {
                    slot,
                    block_index: issue.block_index,
                }),
                block: issue.block,
            },
            IssueKind::Validate => R2p2Action::MemRead {
                token: MemToken(Pending::SabreValidate { slot }),
                block: issue.block,
            },
            IssueKind::LockAcquire => R2p2Action::LockRmw {
                token: MemToken(Pending::SabreLock { slot }),
                version_addr: issue.version_addr,
            },
            IssueKind::LockRelease => {
                // Pulling the release frees the slot; parked SABRes can run.
                self.try_unpark();
                R2p2Action::LockRelease {
                    version_addr: issue.version_addr,
                }
            }
        })
    }

    /// Completes the memory access `token` continues, given what memory
    /// returned, and appends the reply packets it sends to `out` (a
    /// completion only ever sends; memory work comes from
    /// [`R2p2::next_issue`] alone, which keeps it paced).
    ///
    /// # Panics
    ///
    /// Panics if `outcome` is not what the token's access returns: data
    /// for a read, a lock outcome for a reader-lock acquire or a CAS,
    /// [`MemOutcome::Done`] for a write or an unlock (wiring bug).
    pub fn complete_into(&mut self, token: MemToken, outcome: MemOutcome, out: &mut Vec<Packet>) {
        match (token.0, outcome) {
            (Pending::PlainRead { route, block_index }, MemOutcome::Data(data)) => {
                out.push(self.reply(
                    route,
                    PacketKind::ReadReply {
                        transfer: route.transfer,
                        block_index,
                        data,
                    },
                ))
            }
            (Pending::CatchUpRead { route, block_index }, MemOutcome::Data(data)) => {
                out.push(self.reply(
                    route,
                    PacketKind::CatchUpReply {
                        transfer: route.transfer,
                        block_index,
                        data,
                    },
                ))
            }
            (Pending::Write { route, block_index }, MemOutcome::Done) => out.push(self.reply(
                route,
                PacketKind::WriteAck {
                    transfer: route.transfer,
                    block_index,
                },
            )),
            (Pending::Cas(route), MemOutcome::Acquired(acquired)) => out.push(self.reply(
                route,
                PacketKind::CasReply {
                    transfer: route.transfer,
                    acquired,
                },
            )),
            (Pending::Unlock(route), MemOutcome::Done) => out.push(self.reply(
                route,
                PacketKind::UnlockAck {
                    transfer: route.transfer,
                },
            )),
            (Pending::SabreData { slot, block_index }, MemOutcome::Data(data)) => {
                let route = self.engine.entry(slot).expect("data for a live SABRe").id;
                out.push(self.reply(
                    route,
                    PacketKind::SabreReply {
                        transfer: route.transfer,
                        block_index,
                        data,
                    },
                ));
                let actions = self.engine.on_block_reply(slot, block_index, &data.0);
                self.extend_with_completions(out, actions);
            }
            (Pending::SabreValidate { slot }, MemOutcome::Data(data)) => {
                let actions = self.engine.on_validate_reply(slot, &data.0);
                self.extend_with_completions(out, actions);
            }
            (Pending::SabreLock { slot }, MemOutcome::Acquired(acquired)) => {
                let actions = self.engine.on_lock_reply(slot, acquired);
                self.extend_with_completions(out, actions);
            }
            (Pending::CaptureRead { capture, block }, MemOutcome::Data(data)) => {
                let ctx = self
                    .captures
                    .get_mut(&capture)
                    .unwrap_or_else(|| panic!("reply for dead capture {capture}"));
                match ctx.capture.on_block(block, data.0) {
                    CaptureStep::Read(blocks) => {
                        // More to collect (or a restart). The pump is
                        // rescheduled by the caller after every reply, so
                        // queueing suffices.
                        self.queue_capture_step(capture, CaptureStep::Read(blocks));
                    }
                    CaptureStep::Deliver(image) => {
                        let ctx = self.captures.remove(&capture).expect("live capture");
                        self.stats.capture_restarts += ctx.capture.restarts();
                        let route = ctx.route;
                        out.extend(image.into_iter().enumerate().map(|(i, b)| {
                            self.reply(
                                route,
                                PacketKind::ReadReply {
                                    transfer: route.transfer,
                                    block_index: i as u32,
                                    data: Block(b),
                                },
                            )
                        }));
                    }
                }
            }
            (pending, outcome) => panic!("{outcome:?} does not complete {pending:?}"),
        }
    }

    /// Completes a memory read issued earlier: [`R2p2::complete_into`]
    /// with the read's data, into a fresh buffer.
    ///
    /// # Panics
    ///
    /// Panics if `token` is not a read's.
    pub fn on_mem_reply(&mut self, token: MemToken, data: Block) -> Vec<R2p2Action> {
        sends(|out| self.complete_into(token, MemOutcome::Data(data), out))
    }

    /// Completes a one-sided write: [`R2p2::complete_into`] into a fresh
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if `token` is not a write's or an unlock's.
    pub fn on_mem_write_done(&mut self, token: MemToken) -> Vec<R2p2Action> {
        sends(|out| self.complete_into(token, MemOutcome::Done, out))
    }

    /// Delivers a coherence invalidation to the engine's stream buffers
    /// and to every live object capture.
    pub fn on_invalidation(&mut self, block: BlockAddr) {
        self.engine.on_invalidation(block);
        if self.captures.is_empty() {
            return;
        }
        for ctx in self.captures.values_mut() {
            ctx.capture.on_invalidation(block);
        }
    }

    /// Sends each finished SABRe's validation packet to its requester,
    /// whom its id names, and unparks a waiting SABRe into the freed slot.
    fn extend_with_completions(&mut self, out: &mut Vec<Packet>, actions: Vec<Action>) {
        for Action::Complete { id, atomic, .. } in actions {
            let transfer = id.transfer;
            out.push(self.reply(id, PacketKind::SabreValidation { transfer, atomic }));
            self.try_unpark();
        }
    }
}

/// Runs a completion into a fresh buffer and returns its packets as the
/// sends the `Vec`-returning wrappers report.
fn sends(complete: impl FnOnce(&mut Vec<Packet>)) -> Vec<R2p2Action> {
    let mut out = Vec::new();
    complete(&mut out);
    out.into_iter().map(R2p2Action::Send).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sabre_core::CcMode;
    use sabre_mem::{NodeMemory, BLOCK_BYTES};
    use sabre_sw::ReaderLockWord;

    fn req(kind: PacketKind) -> Packet {
        Packet {
            src_node: 0,
            src_pipe: 1,
            dst_node: 1,
            dst_pipe: 0,
            kind,
        }
    }

    fn block_with_version(v: u64) -> Block {
        let mut b = [0u8; BLOCK_BYTES];
        b[..8].copy_from_slice(&v.to_le_bytes());
        Block(b)
    }

    fn sabre_packets(transfer: u32, base: u64, size: u32) -> Vec<Packet> {
        let mut v = vec![req(PacketKind::SabreReg {
            transfer,
            base: Addr::new(base),
            size_bytes: size,
            version_offset: 0,
        })];
        for i in 0..BlockRange::covering(Addr::new(base), size as u64).block_count() {
            v.push(req(PacketKind::SabreReadReq {
                transfer,
                block_index: i as u32,
            }));
        }
        v
    }

    #[test]
    fn a_token_is_at_most_two_words() {
        // `R2p2Action` and the cluster's events carry tokens by value.
        assert!(std::mem::size_of::<MemToken>() <= 16);
    }

    #[test]
    #[should_panic(expected = "does not complete")]
    fn an_outcome_of_the_wrong_kind_is_a_wiring_bug() {
        let mut r = R2p2::new(1, 0, LightSabresConfig::default());
        r.on_packet(&req(PacketKind::ReadReq {
            addr: Addr::new(0),
            transfer: 1,
            block_index: 0,
        }));
        let Some(R2p2Action::MemRead { token, .. }) = r.next_issue() else {
            panic!("expected MemRead");
        };
        r.complete_into(token, MemOutcome::Done, &mut Vec::new());
    }

    #[test]
    fn every_memory_access_names_its_block() {
        let token = MemToken(Pending::SabreLock { slot: SlotId(0) });
        let data_block = BlockAddr::from_index(3);
        let version_addr = Addr::new(5 * BLOCK_BYTES as u64 + 8);
        let word_block = BlockAddr::from_index(5);
        let cases = [
            (
                R2p2Action::MemRead {
                    token,
                    block: data_block,
                },
                Some(data_block),
            ),
            (
                R2p2Action::MemWrite {
                    token,
                    block: data_block,
                    data: Block::ZERO,
                },
                Some(data_block),
            ),
            (
                R2p2Action::LockRmw {
                    token,
                    version_addr,
                },
                Some(word_block),
            ),
            (R2p2Action::LockRelease { version_addr }, Some(word_block)),
            (
                R2p2Action::WriterCas {
                    token,
                    version_addr,
                },
                Some(word_block),
            ),
            (
                R2p2Action::WriterUnlock {
                    token,
                    version_addr,
                },
                Some(word_block),
            ),
            (
                R2p2Action::Send(req(PacketKind::UnlockAck { transfer: 0 })),
                None,
            ),
        ];
        for (action, block) in cases {
            assert_eq!(action.block(), block, "{action:?}");
        }
    }

    #[test]
    fn plain_read_round_trip() {
        let mut r = R2p2::new(1, 0, LightSabresConfig::default());
        r.on_packet(&req(PacketKind::ReadReq {
            addr: Addr::new(128),
            transfer: 5,
            block_index: 0,
        }));
        let issue = r.next_issue().expect("read queued");
        let R2p2Action::MemRead { token, block } = issue else {
            panic!("expected MemRead, got {issue:?}");
        };
        assert_eq!(block, BlockAddr::from_index(2));
        assert!(matches!(token.0, Pending::PlainRead { .. }));
        let out = r.on_mem_reply(token, Block([9; BLOCK_BYTES]));
        assert_eq!(out.len(), 1);
        let R2p2Action::Send(reply) = out[0] else {
            panic!("expected Send");
        };
        assert_eq!(reply.dst_node, 0);
        assert_eq!(reply.dst_pipe, 1);
        assert!(matches!(
            reply.kind,
            PacketKind::ReadReply {
                transfer: 5,
                block_index: 0,
                ..
            }
        ));
        assert_eq!(r.stats().plain_reads, 1);
    }

    #[test]
    fn sabre_full_round_trip() {
        let mut r = R2p2::new(1, 0, LightSabresConfig::default());
        for pkt in sabre_packets(7, 0, 128) {
            r.on_packet(&pkt);
        }
        // Two data issues.
        let mut tokens = Vec::new();
        while let Some(a) = r.next_issue() {
            let R2p2Action::MemRead { token, .. } = a else {
                panic!("expected MemRead, got {a:?}");
            };
            assert!(matches!(token.0, Pending::SabreData { .. }));
            tokens.push(token);
        }
        assert_eq!(tokens.len(), 2);
        let out0 = r.on_mem_reply(tokens[0], block_with_version(2));
        assert_eq!(out0.len(), 1, "payload forwarded immediately");
        let out1 = r.on_mem_reply(tokens[1], Block::ZERO);
        assert_eq!(out1.len(), 2, "last payload + validation");
        let R2p2Action::Send(val) = out1[1] else {
            panic!()
        };
        assert_eq!(
            val.kind,
            PacketKind::SabreValidation {
                transfer: 7,
                atomic: true
            }
        );
    }

    #[test]
    fn a_reader_lock_is_released_at_the_word_it_was_acquired_at() {
        let cfg = LightSabresConfig {
            cc_mode: CcMode::Locking,
            ..LightSabresConfig::default()
        };
        let mut r = R2p2::new(1, 0, cfg);
        let mut packets = sabre_packets(1, 0, 64);
        let PacketKind::SabreReg { version_offset, .. } = &mut packets[0].kind else {
            panic!("the first packet registers the SABRe")
        };
        *version_offset = 8;
        for pkt in packets {
            r.on_packet(&pkt);
        }
        let mut mem = NodeMemory::new(4096);
        let version_addr = Addr::new(8);
        let lock_word = version_addr + ReaderLockWord::OFFSET_FROM_VERSION;
        let (mut acquires, mut releases) = (0, 0);
        while let Some(a) = r.next_issue() {
            match a {
                R2p2Action::LockRmw {
                    token,
                    version_addr: at,
                } => {
                    assert_eq!(at, version_addr, "acquired at the version word");
                    let acquired = ReaderLockWord::try_shared_acquire(&mut mem, at);
                    assert_eq!(mem.read_u64(lock_word), 1);
                    r.complete_into(token, MemOutcome::Acquired(acquired), &mut Vec::new());
                    acquires += 1;
                }
                R2p2Action::MemRead { token, block } => {
                    let data = Block(mem.read_block(block));
                    r.complete_into(token, MemOutcome::Data(data), &mut Vec::new());
                }
                R2p2Action::LockRelease { version_addr: at } => {
                    assert_eq!(at, version_addr, "released at the word it acquired");
                    ReaderLockWord::shared_release(&mut mem, at);
                    releases += 1;
                }
                a => panic!("unexpected access {a:?}"),
            }
        }
        assert_eq!((acquires, releases), (1, 1));
        assert_eq!(mem.read_u64(lock_word), 0, "the lock word is free again");
    }

    #[test]
    fn att_overflow_parks_and_unparks() {
        let cfg = LightSabresConfig {
            stream_buffers: 1,
            ..LightSabresConfig::default()
        };
        let mut r = R2p2::new(1, 0, cfg);
        for pkt in sabre_packets(1, 0, 64) {
            r.on_packet(&pkt);
        }
        for pkt in sabre_packets(2, 4096, 64) {
            r.on_packet(&pkt);
        }
        assert_eq!(r.stats().sabres_parked, 1);
        // Only SABRe 1's block issues.
        let R2p2Action::MemRead { token, block, .. } = r.next_issue().unwrap() else {
            panic!()
        };
        assert_eq!(block, BlockAddr::from_index(0));
        assert!(r.next_issue().is_none(), "SABRe 2 is parked");
        // Completing SABRe 1 unparks SABRe 2, replaying its request.
        let out = r.on_mem_reply(token, block_with_version(0));
        assert_eq!(out.len(), 2);
        let R2p2Action::MemRead { block, .. } = r.next_issue().unwrap() else {
            panic!()
        };
        assert_eq!(block, BlockAddr::from_index(64));
        assert_eq!(r.stats().sabres_registered, 2);
    }

    #[test]
    fn a_parked_sabre_answers_its_own_requester() {
        let cfg = LightSabresConfig {
            stream_buffers: 1,
            ..LightSabresConfig::default()
        };
        let mut r = R2p2::new(1, 0, cfg);
        for pkt in sabre_packets(1, 0, 64) {
            r.on_packet(&pkt);
        }
        // A two-block SABRe from another node, pipeline and transfer
        // parks behind the first.
        for mut pkt in sabre_packets(2, 4096, 128) {
            pkt.src_node = 2;
            pkt.src_pipe = 3;
            r.on_packet(&pkt);
        }
        assert_eq!(r.stats().sabres_parked, 1);
        let R2p2Action::MemRead { token, .. } = r.next_issue().unwrap() else {
            panic!("expected MemRead")
        };
        let first = r.on_mem_reply(token, block_with_version(0));
        let mut parked = Vec::new();
        while let Some(a) = r.next_issue() {
            let R2p2Action::MemRead { token, .. } = a else {
                panic!("expected MemRead, got {a:?}")
            };
            parked.extend(r.on_mem_reply(token, block_with_version(2)));
        }
        let sent = |actions: Vec<R2p2Action>| -> Vec<(NodeId, PipeId, PacketKind)> {
            actions
                .into_iter()
                .map(|a| match a {
                    R2p2Action::Send(p) => (p.dst_node, p.dst_pipe, p.kind),
                    a => panic!("expected Send, got {a:?}"),
                })
                .collect()
        };
        let first = sent(first);
        assert_eq!(first.len(), 2, "one block and the validation");
        assert!(first.iter().all(|&(node, pipe, _)| (node, pipe) == (0, 1)));
        let parked = sent(parked);
        assert_eq!(parked.len(), 3, "two blocks and the validation");
        for (i, &(node, pipe, kind)) in parked.iter().enumerate() {
            assert_eq!(
                (node, pipe),
                (2, 3),
                "reply {i} goes to the parked requester"
            );
            match kind {
                PacketKind::SabreReply {
                    transfer,
                    block_index,
                    ..
                } => assert_eq!((transfer, block_index), (2, i as u32)),
                k => assert_eq!(
                    k,
                    PacketKind::SabreValidation {
                        transfer: 2,
                        atomic: true
                    }
                ),
            }
        }
        assert!(matches!(parked[2].2, PacketKind::SabreValidation { .. }));
    }

    #[test]
    fn one_sided_write_acks() {
        let mut r = R2p2::new(1, 0, LightSabresConfig::default());
        r.on_packet(&req(PacketKind::WriteReq {
            addr: Addr::new(0),
            transfer: 3,
            block_index: 0,
            data: Block([1; BLOCK_BYTES]),
        }));
        let R2p2Action::MemWrite { token, .. } = r.next_issue().unwrap() else {
            panic!()
        };
        let out = r.on_mem_write_done(token);
        let R2p2Action::Send(ack) = out[0] else {
            panic!()
        };
        assert!(matches!(ack.kind, PacketKind::WriteAck { transfer: 3, .. }));
    }

    #[test]
    fn cas_and_unlock_round_trip() {
        let mut r = R2p2::new(1, 0, LightSabresConfig::default());
        r.on_packet(&req(PacketKind::CasReq {
            addr: Addr::new(0),
            transfer: 4,
        }));
        let R2p2Action::WriterCas {
            token,
            version_addr,
        } = r.next_issue().unwrap()
        else {
            panic!("expected WriterCas");
        };
        assert_eq!(version_addr, Addr::new(0));
        let mut out = Vec::new();
        r.complete_into(token, MemOutcome::Acquired(true), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].kind,
            PacketKind::CasReply {
                transfer: 4,
                acquired: true
            }
        );
        r.on_packet(&req(PacketKind::UnlockReq {
            addr: Addr::new(0),
            transfer: 5,
        }));
        let R2p2Action::WriterUnlock { token, .. } = r.next_issue().unwrap() else {
            panic!("expected WriterUnlock");
        };
        out.clear();
        r.complete_into(token, MemOutcome::Done, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, PacketKind::UnlockAck { transfer: 5 });
    }

    #[test]
    fn wf_capture_serves_header_then_slot_as_read_replies() {
        let mut r = R2p2::new(1, 0, LightSabresConfig::default());
        // Wire = header block + one 2-block slot (payload ≤ 120 B).
        r.on_packet(&req(PacketKind::WfReadReq {
            transfer: 11,
            base: Addr::new(0),
            size_bytes: 192,
        }));
        assert_eq!(r.stats().captured_reads, 1);
        // First issue: the header block.
        let R2p2Action::MemRead { token, block } = r.next_issue().unwrap() else {
            panic!("expected MemRead")
        };
        assert!(matches!(token.0, Pending::CaptureRead { .. }));
        assert_eq!(block, BlockAddr::from_index(0));
        assert!(r.next_issue().is_none(), "slot blocks wait for the header");
        // Publish word names slot 1 → slot base = 64 + 1*128 = 192.
        let out = r.on_mem_reply(token, block_with_version(1));
        assert!(out.is_empty(), "header reply only queues the slot reads");
        let mut tokens = Vec::new();
        let mut blocks = Vec::new();
        while let Some(a) = r.next_issue() {
            let R2p2Action::MemRead { token, block, .. } = a else {
                panic!("expected MemRead, got {a:?}")
            };
            tokens.push(token);
            blocks.push(block);
        }
        assert_eq!(
            blocks,
            vec![BlockAddr::from_index(3), BlockAddr::from_index(4)]
        );
        assert!(r
            .on_mem_reply(tokens[0], Block([5; BLOCK_BYTES]))
            .is_empty());
        let out = r.on_mem_reply(tokens[1], Block([6; BLOCK_BYTES]));
        assert_eq!(out.len(), 3, "header + 2 slot blocks stream back");
        for (i, a) in out.iter().enumerate() {
            let R2p2Action::Send(p) = a else {
                panic!("expected Send")
            };
            assert_eq!(p.dst_node, 0);
            assert_eq!(p.dst_pipe, 1);
            match p.kind {
                PacketKind::ReadReply {
                    transfer,
                    block_index,
                    ..
                } => {
                    assert_eq!(transfer, 11);
                    assert_eq!(block_index, i as u32);
                }
                ref k => panic!("expected ReadReply, got {k:?}"),
            }
        }
        assert_eq!(r.stats().capture_restarts, 0);
    }

    #[test]
    fn ohram_capture_restarts_on_conflicting_invalidation() {
        let mut r = R2p2::new(1, 0, LightSabresConfig::default());
        r.on_packet(&req(PacketKind::OhReadReq {
            transfer: 12,
            base: Addr::new(0),
            size_bytes: 128,
        }));
        let t0 = match r.next_issue().unwrap() {
            R2p2Action::MemRead { token, .. } => token,
            a => panic!("{a:?}"),
        };
        let t1 = match r.next_issue().unwrap() {
            R2p2Action::MemRead { token, .. } => token,
            a => panic!("{a:?}"),
        };
        assert!(r.on_mem_reply(t0, block_with_version(2)).is_empty());
        // A writer dirties block 1 before its read lands: restart.
        r.on_invalidation(BlockAddr::from_index(1));
        assert!(r.on_mem_reply(t1, Block::ZERO).is_empty());
        assert_eq!(r.stats().capture_restarts, 0, "counted at delivery");
        // The restarted pass runs clean and delivers both blocks.
        let mut out = Vec::new();
        while let Some(a) = r.next_issue() {
            let R2p2Action::MemRead { token, .. } = a else {
                panic!("expected MemRead, got {a:?}")
            };
            out = r.on_mem_reply(token, block_with_version(2));
        }
        assert_eq!(out.len(), 2);
        assert_eq!(r.stats().capture_restarts, 1);
    }

    #[test]
    fn catch_up_pull_streams_the_log_region() {
        let mut r = R2p2::new(1, 0, LightSabresConfig::default());
        r.on_packet(&req(PacketKind::CatchUpReq {
            transfer: 21,
            base: Addr::new(128),
            size_bytes: 192,
        }));
        assert_eq!(r.stats().catch_up_pulls, 1);
        let mut tokens = Vec::new();
        let mut blocks = Vec::new();
        while let Some(a) = r.next_issue() {
            let R2p2Action::MemRead { token, block } = a else {
                panic!("expected MemRead, got {a:?}")
            };
            assert!(matches!(token.0, Pending::CatchUpRead { .. }));
            tokens.push(token);
            blocks.push(block);
        }
        // Address order, head block of the region first.
        assert_eq!(
            blocks,
            vec![
                BlockAddr::from_index(2),
                BlockAddr::from_index(3),
                BlockAddr::from_index(4)
            ]
        );
        for (i, token) in tokens.into_iter().enumerate() {
            let out = r.on_mem_reply(token, Block([i as u8; BLOCK_BYTES]));
            assert_eq!(out.len(), 1);
            let R2p2Action::Send(rep) = out[0] else {
                panic!("expected Send")
            };
            assert_eq!(rep.dst_node, 0);
            match rep.kind {
                PacketKind::CatchUpReply {
                    transfer,
                    block_index,
                    data,
                } => {
                    assert_eq!(transfer, 21);
                    assert_eq!(block_index, i as u32);
                    assert_eq!(data.0[0], i as u8);
                }
                ref k => panic!("expected CatchUpReply, got {k:?}"),
            }
        }
    }

    #[test]
    fn guard_refuses_reads_while_catching_up() {
        let mut r = R2p2::new(1, 0, LightSabresConfig::default());
        r.set_catching_up(true);
        for kind in [
            PacketKind::ReadReq {
                addr: Addr::new(0),
                transfer: 1,
                block_index: 0,
            },
            PacketKind::SabreReg {
                transfer: 2,
                base: Addr::new(0),
                size_bytes: 64,
                version_offset: 0,
            },
            PacketKind::WfReadReq {
                transfer: 3,
                base: Addr::new(0),
                size_bytes: 128,
            },
            PacketKind::OhReadReq {
                transfer: 4,
                base: Addr::new(0),
                size_bytes: 128,
            },
        ] {
            r.on_packet(&req(kind));
        }
        assert_eq!(r.stats().reads_refused, 4);
        assert_eq!(r.stats().plain_reads, 0, "nothing was served");
        assert_eq!(r.stats().sabres_registered, 0);
        for expected_transfer in 1..=4u32 {
            let a = r.next_issue().expect("one refusal per request");
            let R2p2Action::Send(rep) = a else {
                panic!("expected Send, got {a:?}")
            };
            assert_eq!(
                rep.kind,
                PacketKind::ReadRefused {
                    transfer: expected_transfer
                }
            );
            assert_eq!(rep.dst_node, 0, "refusal returns to the requester");
            assert_eq!(rep.dst_pipe, 1);
        }
        // Catch-up pulls are refused too — this node's own log head is
        // stale, and a sibling converging against it would stop short.
        assert!(r.on_packet(&req(PacketKind::CatchUpReq {
            transfer: 5,
            base: Addr::new(0),
            size_bytes: 64,
        })));
        assert_eq!(r.stats().catch_up_pulls, 0);
        assert_eq!(r.stats().catch_up_refused, 1);
        assert_eq!(r.stats().reads_refused, 4, "pull refusals count apart");
        let a = r.next_issue().expect("the pull refusal");
        let R2p2Action::Send(rep) = a else {
            panic!("expected Send, got {a:?}")
        };
        assert_eq!(rep.kind, PacketKind::ReadRefused { transfer: 5 });
        // Dropping the counter to zero lifts the guard.
        r.set_catching_up(false);
        assert!(!r.is_catching_up());
        r.on_packet(&req(PacketKind::ReadReq {
            addr: Addr::new(0),
            transfer: 6,
            block_index: 0,
        }));
        assert_eq!(r.stats().plain_reads, 1);
    }

    #[test]
    fn guard_counts_and_nests() {
        let mut r = R2p2::new(1, 0, LightSabresConfig::default());
        r.set_catching_up(true);
        r.set_catching_up(true);
        r.set_catching_up(false);
        assert!(r.is_catching_up(), "one recovering writer still replaying");
        r.set_catching_up(false);
        assert!(!r.is_catching_up());
    }

    #[test]
    fn serve_stale_trades_freshness_for_availability() {
        let mut r = R2p2::new(1, 0, LightSabresConfig::default()).serving_stale();
        r.set_catching_up(true);
        r.on_packet(&req(PacketKind::ReadReq {
            addr: Addr::new(0),
            transfer: 9,
            block_index: 0,
        }));
        assert_eq!(r.stats().stale_served, 1);
        assert_eq!(r.stats().reads_refused, 0);
        assert_eq!(r.stats().plain_reads, 1, "the read is served normally");
        // Writes are never guarded either way.
        r.on_packet(&req(PacketKind::WriteReq {
            addr: Addr::new(0),
            transfer: 10,
            block_index: 0,
            data: Block::ZERO,
        }));
        assert_eq!(r.stats().writes, 1);
        assert_eq!(r.stats().stale_served, 1, "writes are not stale-served");
        // Catch-up pulls stay refused even in serve-stale mode: a stale
        // log is useless to a recovering sibling, never merely "stale".
        r.on_packet(&req(PacketKind::CatchUpReq {
            transfer: 11,
            base: Addr::new(0),
            size_bytes: 64,
        }));
        assert_eq!(r.stats().catch_up_refused, 1);
        assert_eq!(r.stats().catch_up_pulls, 0);
    }

    #[test]
    fn invalidation_reaches_engine() {
        let mut r = R2p2::new(1, 0, LightSabresConfig::default());
        for pkt in sabre_packets(1, 0, 128) {
            r.on_packet(&pkt);
        }
        let t0 = match r.next_issue().unwrap() {
            R2p2Action::MemRead { token, .. } => token,
            a => panic!("{a:?}"),
        };
        let t1 = match r.next_issue().unwrap() {
            R2p2Action::MemRead { token, .. } => token,
            a => panic!("{a:?}"),
        };
        // Reply for block 1 first, then a conflicting invalidation.
        r.on_mem_reply(t1, Block::ZERO);
        r.on_invalidation(BlockAddr::from_index(1));
        let out = r.on_mem_reply(t0, block_with_version(0));
        let R2p2Action::Send(val) = out[1] else {
            panic!()
        };
        assert_eq!(
            val.kind,
            PacketKind::SabreValidation {
                transfer: 1,
                atomic: false
            }
        );
    }
}
