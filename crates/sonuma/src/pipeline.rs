//! The source-side pipeline pair: Request Generation + Request Completion.
//!
//! One `SourcePipeline` models one RGP/RCP backend pair (Fig. 6). The RGP
//! half unrolls Work Queue entries into cache-block-sized packets — plain
//! reads balance across the destination's R2P2s *per block*, while a SABRe
//! is pinned to a single R2P2 (§5.1's load-balancing discussion) and is
//! preceded by its registration packet. The RCP half collects replies,
//! produces the DMA writes into the local buffer, and reports a
//! [`Completion`] carrying the SABRe success bit once the transfer's last
//! packet (the validation, for SABRes) has arrived.

use sabre_mem::{Addr, BlockRange, BLOCK_BYTES};
use sabre_sim::{FastMap, FastSet};

use crate::queues::{CqEntry, OpKind, WqEntry};
use crate::wire::{Block, NodeId, Packet, PacketKind, PipeId};

/// A finished transfer, ready to become a CQ entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The originating WQ entry's id.
    pub wq_id: u64,
    /// Operation type.
    pub op: OpKind,
    /// SABRes: atomicity outcome; `true` otherwise.
    pub success: bool,
    /// Whether the destination refused the read (replica catching up).
    pub refused: bool,
    /// Payload bytes moved.
    pub bytes: u32,
}

impl Completion {
    /// Converts into the CQ entry the frontend writes.
    pub fn into_cq_entry(self) -> CqEntry {
        CqEntry {
            wq_id: self.wq_id,
            op: self.op,
            success: self.success,
            refused: self.refused,
            bytes: self.bytes,
        }
    }
}

/// A DMA write of one reply's payload into the local buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalWrite {
    /// Local address the block lands at.
    pub addr: Addr,
    /// The payload.
    pub data: Block,
}

#[derive(Debug)]
struct TransferState {
    wq_id: u64,
    op: OpKind,
    local_buf: Addr,
    size_bytes: u32,
    total_blocks: u32,
    replies: u32,
    /// SABRes: outcome from the validation packet, once received.
    sabre_atomic: Option<bool>,
}

impl TransferState {
    fn is_complete(&self) -> bool {
        self.replies == self.total_blocks
            && (self.op != OpKind::Sabre || self.sabre_atomic.is_some())
    }

    fn completion(&self) -> Completion {
        Completion {
            wq_id: self.wq_id,
            op: self.op,
            success: self.sabre_atomic.unwrap_or(true),
            refused: false,
            bytes: self.size_bytes,
        }
    }
}

/// One RGP/RCP backend pair.
///
/// # Example
///
/// ```
/// use sabre_sonuma::{SourcePipeline, WqEntry, OpKind};
/// use sabre_mem::Addr;
///
/// let mut pipe = SourcePipeline::new(0, 0, 4);
/// let wq = WqEntry {
///     wq_id: 1, op: OpKind::Read, dst_node: 1,
///     remote_addr: Addr::new(0), local_buf: Addr::new(4096),
///     size_bytes: 256, version_offset: 0,
/// };
/// let pkts = pipe.start_transfer(&wq, None);
/// assert_eq!(pkts.len(), 4); // 256 B unrolled into 4 block requests
/// ```
#[derive(Debug)]
pub struct SourcePipeline {
    node: NodeId,
    pipe: PipeId,
    /// Number of R2P2s at each destination node, for per-block balancing.
    dest_pipes: u8,
    next_transfer: u32,
    transfers: FastMap<u32, TransferState>,
    /// Transfers completed early by a [`PacketKind::ReadRefused`]: late
    /// replies for these ids are expected stragglers (a pipe may have
    /// served some blocks before the guard flipped), not protocol bugs.
    refused: FastSet<u32>,
    rr_cursor: u8,
}

impl SourcePipeline {
    /// Creates the pipeline for backend `pipe` of node `node`, assuming
    /// `dest_pipes` R2P2s at every destination.
    ///
    /// # Panics
    ///
    /// Panics if `dest_pipes == 0`.
    pub fn new(node: NodeId, pipe: PipeId, dest_pipes: u8) -> Self {
        assert!(dest_pipes > 0, "destinations need at least one R2P2");
        SourcePipeline {
            node,
            pipe,
            dest_pipes,
            next_transfer: 0,
            transfers: FastMap::default(),
            refused: FastSet::default(),
            rr_cursor: 0,
        }
    }

    /// Transfers currently in flight.
    pub fn inflight(&self) -> usize {
        self.transfers.len()
    }

    /// RGP half: unrolls a WQ entry into its request packets, in the order
    /// they enter the network. Writes must supply the local payload bytes.
    ///
    /// # Panics
    ///
    /// Panics if a write provides no (or too little) data, or if the entry
    /// is malformed (zero size) — WQ validation is the frontend's job.
    pub fn start_transfer(&mut self, wq: &WqEntry, write_data: Option<&[u8]>) -> Vec<Packet> {
        let mut pkts = Vec::new();
        self.start_transfer_into(wq, write_data, &mut pkts);
        pkts
    }

    /// [`SourcePipeline::start_transfer`] appending the request packets to
    /// `out` instead of allocating them — the event loop's form, with a
    /// buffer it reuses for every WQ entry.
    ///
    /// # Panics
    ///
    /// As [`SourcePipeline::start_transfer`].
    pub fn start_transfer_into(
        &mut self,
        wq: &WqEntry,
        write_data: Option<&[u8]>,
        out: &mut Vec<Packet>,
    ) {
        assert!(wq.size_bytes > 0, "zero-sized transfer");
        let transfer = self.next_transfer;
        self.next_transfer = self.next_transfer.wrapping_add(1);
        let range = BlockRange::covering(wq.remote_addr, wq.size_bytes as u64);
        let total_blocks = range.block_count() as u32;
        self.transfers.insert(
            transfer,
            TransferState {
                wq_id: wq.wq_id,
                op: wq.op,
                local_buf: wq.local_buf,
                size_bytes: wq.size_bytes,
                total_blocks,
                replies: 0,
                sabre_atomic: None,
            },
        );

        let mk = |dst_pipe: u8, kind: PacketKind| Packet {
            src_node: self.node,
            src_pipe: self.pipe,
            dst_node: wq.dst_node,
            dst_pipe,
            kind,
        };
        match wq.op {
            OpKind::Read => {
                for i in 0..total_blocks {
                    // Per-block balancing across destination R2P2s.
                    let dst_pipe = (self.rr_cursor + i as u8) % self.dest_pipes;
                    out.push(mk(
                        dst_pipe,
                        PacketKind::ReadReq {
                            addr: wq.remote_addr + i as u64 * BLOCK_BYTES as u64,
                            transfer,
                            block_index: i,
                        },
                    ));
                }
                self.rr_cursor = (self.rr_cursor + total_blocks as u8) % self.dest_pipes;
            }
            OpKind::Write => {
                let data =
                    write_data.expect("one-sided writes must supply the local payload bytes");
                assert!(
                    data.len() >= wq.size_bytes as usize,
                    "write data shorter than transfer"
                );
                for i in 0..total_blocks {
                    let mut block = [0u8; BLOCK_BYTES];
                    let start = i as usize * BLOCK_BYTES;
                    let end = (start + BLOCK_BYTES).min(data.len());
                    block[..end - start].copy_from_slice(&data[start..end]);
                    let dst_pipe = (self.rr_cursor + i as u8) % self.dest_pipes;
                    out.push(mk(
                        dst_pipe,
                        PacketKind::WriteReq {
                            addr: wq.remote_addr + i as u64 * BLOCK_BYTES as u64,
                            transfer,
                            block_index: i,
                            data: Block(block),
                        },
                    ));
                }
                self.rr_cursor = (self.rr_cursor + total_blocks as u8) % self.dest_pipes;
            }
            OpKind::LockCas => {
                let dst_pipe = (transfer % self.dest_pipes as u32) as u8;
                out.push(mk(
                    dst_pipe,
                    PacketKind::CasReq {
                        addr: wq.remote_addr,
                        transfer,
                    },
                ));
            }
            OpKind::Unlock => {
                let dst_pipe = (transfer % self.dest_pipes as u32) as u8;
                out.push(mk(
                    dst_pipe,
                    PacketKind::UnlockReq {
                        addr: wq.remote_addr,
                        transfer,
                    },
                ));
            }
            OpKind::CatchUpPull => {
                // One request; the peer streams the whole log region back
                // as a burst of CatchUpReplys, one per block.
                let dst_pipe = (transfer % self.dest_pipes as u32) as u8;
                out.push(mk(
                    dst_pipe,
                    PacketKind::CatchUpReq {
                        transfer,
                        base: wq.remote_addr,
                        size_bytes: wq.size_bytes,
                    },
                ));
            }
            OpKind::WfRead | OpKind::OhRead => {
                // A captured read maps to a single R2P2, which assembles
                // the consistent image server-side and streams it back as
                // plain ReadReplys (one per block of the wire image).
                let dst_pipe = (transfer % self.dest_pipes as u32) as u8;
                let kind = if wq.op == OpKind::WfRead {
                    PacketKind::WfReadReq {
                        transfer,
                        base: wq.remote_addr,
                        size_bytes: wq.size_bytes,
                    }
                } else {
                    PacketKind::OhReadReq {
                        transfer,
                        base: wq.remote_addr,
                        size_bytes: wq.size_bytes,
                    }
                };
                out.push(mk(dst_pipe, kind));
            }
            OpKind::Sabre => {
                // A SABRe maps to a single R2P2 (§5.1).
                let dst_pipe = (transfer % self.dest_pipes as u32) as u8;
                out.push(mk(
                    dst_pipe,
                    PacketKind::SabreReg {
                        transfer,
                        base: wq.remote_addr,
                        size_bytes: wq.size_bytes,
                        version_offset: wq.version_offset,
                    },
                ));
                for i in 0..total_blocks {
                    out.push(mk(
                        dst_pipe,
                        PacketKind::SabreReadReq {
                            transfer,
                            block_index: i,
                        },
                    ));
                }
            }
        }
    }

    /// RCP half: consumes one reply packet. Returns the DMA write it
    /// implies (payload replies only) and the completion when this was the
    /// transfer's last packet.
    ///
    /// # Panics
    ///
    /// Panics on replies for unknown transfers or over-delivery — both
    /// indicate protocol bugs the simulator must not mask.
    pub fn on_reply(&mut self, pkt: &Packet) -> (Option<LocalWrite>, Option<Completion>) {
        if let PacketKind::ReadRefused { transfer } = pkt.kind {
            // The destination's epoch/seq guard bounced the read. The
            // first refusal completes the transfer unsuccessfully; later
            // refusals of other request packets of the same transfer are
            // stragglers.
            let Some(state) = self.transfers.remove(&transfer) else {
                assert!(
                    self.refused.contains(&transfer),
                    "refusal for unknown transfer {transfer}"
                );
                return (None, None);
            };
            self.refused.insert(transfer);
            let mut done = state.completion();
            done.success = false;
            done.refused = true;
            return (None, Some(done));
        }
        let (transfer, write, is_validation, atomic) = match pkt.kind {
            PacketKind::ReadReply {
                transfer,
                block_index,
                data,
            }
            | PacketKind::SabreReply {
                transfer,
                block_index,
                data,
            }
            | PacketKind::CatchUpReply {
                transfer,
                block_index,
                data,
            } => (transfer, Some((block_index, data)), false, true),
            PacketKind::WriteAck { transfer, .. } | PacketKind::UnlockAck { transfer } => {
                (transfer, None, false, true)
            }
            PacketKind::CasReply { transfer, acquired } => (transfer, None, false, acquired),
            PacketKind::SabreValidation { transfer, atomic } => (transfer, None, true, atomic),
            _ => panic!("RCP received a non-reply packet: {pkt:?}"),
        };
        let Some(state) = self.transfers.get_mut(&transfer) else {
            if self.refused.contains(&transfer) {
                // A pipe served some blocks before the guard flipped and
                // another pipe's refusal already completed the transfer;
                // drop the straggler on the floor.
                return (None, None);
            }
            panic!("reply for unknown transfer {transfer}");
        };

        let mut local_write = None;
        if state.op == OpKind::LockCas && !atomic {
            // CAS contended: surface failure in the completion.
            state.sabre_atomic = Some(false);
        }
        if is_validation {
            assert!(
                state.op == OpKind::Sabre && state.sabre_atomic.is_none(),
                "unexpected validation packet for transfer {transfer}"
            );
            state.sabre_atomic = Some(atomic);
        } else {
            state.replies += 1;
            assert!(
                state.replies <= state.total_blocks,
                "transfer {transfer} over-delivered"
            );
            if let Some((block_index, data)) = write {
                local_write = Some(LocalWrite {
                    addr: state.local_buf + block_index as u64 * BLOCK_BYTES as u64,
                    data,
                });
            }
        }

        if state.is_complete() {
            let done = state.completion();
            self.transfers.remove(&transfer);
            (local_write, Some(done))
        } else {
            (local_write, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_wq(size: u32) -> WqEntry {
        WqEntry {
            wq_id: 42,
            op: OpKind::Read,
            dst_node: 1,
            remote_addr: Addr::new(0),
            local_buf: Addr::new(1 << 20),
            size_bytes: size,
            version_offset: 0,
        }
    }

    #[test]
    fn read_unrolls_and_balances() {
        let mut p = SourcePipeline::new(0, 0, 4);
        let pkts = p.start_transfer(&read_wq(512), None);
        assert_eq!(pkts.len(), 8);
        // Per-block round-robin across the 4 destination R2P2s.
        let pipes: Vec<u8> = pkts.iter().map(|p| p.dst_pipe).collect();
        assert_eq!(pipes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // A second transfer continues the rotation rather than restarting.
        let pkts2 = p.start_transfer(&read_wq(128), None);
        assert_eq!(pkts2[0].dst_pipe, 0);
    }

    #[test]
    fn sabre_pins_to_one_pipe_and_registers_first() {
        let mut p = SourcePipeline::new(0, 2, 4);
        let mut wq = read_wq(256);
        wq.op = OpKind::Sabre;
        let pkts = p.start_transfer(&wq, None);
        assert_eq!(pkts.len(), 5); // registration + 4 data requests
        assert!(matches!(pkts[0].kind, PacketKind::SabreReg { .. }));
        let pipe = pkts[0].dst_pipe;
        assert!(pkts.iter().all(|p| p.dst_pipe == pipe));
        assert!(pkts.iter().all(|p| p.src_pipe == 2));
    }

    #[test]
    fn read_completion_after_all_replies() {
        let mut p = SourcePipeline::new(0, 0, 4);
        let pkts = p.start_transfer(&read_wq(128), None);
        let reply0 = pkts[0].reply_to(PacketKind::ReadReply {
            transfer: 0,
            block_index: 0,
            data: Block([7; BLOCK_BYTES]),
        });
        let (w, done) = p.on_reply(&reply0);
        let w = w.expect("payload reply produces a DMA write");
        assert_eq!(w.addr, Addr::new(1 << 20));
        assert!(done.is_none());
        let reply1 = pkts[1].reply_to(PacketKind::ReadReply {
            transfer: 0,
            block_index: 1,
            data: Block::ZERO,
        });
        let (w, done) = p.on_reply(&reply1);
        assert_eq!(w.unwrap().addr, Addr::new((1 << 20) + 64));
        let done = done.expect("transfer complete");
        assert_eq!(done.wq_id, 42);
        assert!(done.success);
        assert_eq!(p.inflight(), 0);
    }

    #[test]
    fn sabre_needs_validation_to_complete() {
        let mut p = SourcePipeline::new(0, 0, 1);
        let mut wq = read_wq(64);
        wq.op = OpKind::Sabre;
        let pkts = p.start_transfer(&wq, None);
        let data = pkts[1].reply_to(PacketKind::SabreReply {
            transfer: 0,
            block_index: 0,
            data: Block::ZERO,
        });
        let (_, done) = p.on_reply(&data);
        assert!(done.is_none(), "data alone must not complete a SABRe");
        let val = pkts[0].reply_to(PacketKind::SabreValidation {
            transfer: 0,
            atomic: false,
        });
        let (w, done) = p.on_reply(&val);
        assert!(w.is_none());
        let done = done.expect("validation completes the SABRe");
        assert!(!done.success, "atomicity failure must surface in the CQ");
    }

    #[test]
    fn validation_before_last_data_is_handled() {
        // Revalidation reads can delay data ordering at the R2P2; the RCP
        // must accept either order.
        let mut p = SourcePipeline::new(0, 0, 1);
        let mut wq = read_wq(128);
        wq.op = OpKind::Sabre;
        let pkts = p.start_transfer(&wq, None);
        let val = pkts[0].reply_to(PacketKind::SabreValidation {
            transfer: 0,
            atomic: true,
        });
        assert!(p.on_reply(&val).1.is_none());
        for i in 0..2 {
            let data = pkts[0].reply_to(PacketKind::SabreReply {
                transfer: 0,
                block_index: i,
                data: Block::ZERO,
            });
            let (_, done) = p.on_reply(&data);
            assert_eq!(done.is_some(), i == 1);
        }
    }

    #[test]
    fn write_carries_data_and_completes_on_acks() {
        let mut p = SourcePipeline::new(0, 0, 2);
        let mut wq = read_wq(100);
        wq.op = OpKind::Write;
        let payload: Vec<u8> = (0..100).collect();
        let pkts = p.start_transfer(&wq, Some(&payload));
        assert_eq!(pkts.len(), 2);
        match pkts[1].kind {
            PacketKind::WriteReq { data, .. } => assert_eq!(data.0[0], 64),
            ref k => panic!("expected WriteReq, got {k:?}"),
        }
        for (i, pkt) in pkts.iter().enumerate() {
            let ack = pkt.reply_to(PacketKind::WriteAck {
                transfer: 0,
                block_index: i as u32,
            });
            let (w, done) = p.on_reply(&ack);
            assert!(w.is_none());
            assert_eq!(done.is_some(), i == 1);
        }
    }

    #[test]
    fn lock_cas_transfer_round_trip() {
        let mut p = SourcePipeline::new(0, 0, 4);
        let mut wq = read_wq(8);
        wq.op = OpKind::LockCas;
        let pkts = p.start_transfer(&wq, None);
        assert_eq!(pkts.len(), 1);
        assert!(matches!(pkts[0].kind, PacketKind::CasReq { .. }));
        // Contended CAS surfaces as an unsuccessful completion.
        let rep = pkts[0].reply_to(PacketKind::CasReply {
            transfer: 0,
            acquired: false,
        });
        let (w, done) = p.on_reply(&rep);
        assert!(w.is_none());
        let done = done.expect("single-packet transfer completes");
        assert!(!done.success);
        assert_eq!(done.op, OpKind::LockCas);
    }

    #[test]
    fn unlock_transfer_round_trip() {
        let mut p = SourcePipeline::new(0, 0, 4);
        let mut wq = read_wq(8);
        wq.op = OpKind::Unlock;
        let pkts = p.start_transfer(&wq, None);
        assert!(matches!(pkts[0].kind, PacketKind::UnlockReq { .. }));
        let rep = pkts[0].reply_to(PacketKind::UnlockAck { transfer: 0 });
        let (_, done) = p.on_reply(&rep);
        assert!(done.expect("completes").success);
    }

    #[test]
    fn captured_reads_send_one_request_and_complete_on_replies() {
        for op in [OpKind::WfRead, OpKind::OhRead] {
            let mut p = SourcePipeline::new(0, 0, 4);
            let mut wq = read_wq(128);
            wq.op = op;
            let pkts = p.start_transfer(&wq, None);
            assert_eq!(pkts.len(), 1, "a captured read is a single request");
            match (op, pkts[0].kind) {
                (OpKind::WfRead, PacketKind::WfReadReq { size_bytes, .. })
                | (OpKind::OhRead, PacketKind::OhReadReq { size_bytes, .. }) => {
                    assert_eq!(size_bytes, 128)
                }
                (_, ref k) => panic!("wrong request kind {k:?}"),
            }
            // The store streams the image back as plain ReadReplys.
            for i in 0..2 {
                let rep = pkts[0].reply_to(PacketKind::ReadReply {
                    transfer: 0,
                    block_index: i,
                    data: Block([i as u8; BLOCK_BYTES]),
                });
                let (w, done) = p.on_reply(&rep);
                assert_eq!(
                    w.expect("payload lands in the local buffer").addr,
                    Addr::new((1 << 20) + i as u64 * 64)
                );
                assert_eq!(done.is_some(), i == 1);
                if let Some(done) = done {
                    assert!(done.success, "captured reads never fail");
                    assert_eq!(done.op, op);
                }
            }
        }
    }

    #[test]
    fn catch_up_pull_sends_one_request_and_completes_on_burst() {
        let mut p = SourcePipeline::new(0, 0, 4);
        let mut wq = read_wq(192); // a 3-block log region
        wq.op = OpKind::CatchUpPull;
        let pkts = p.start_transfer(&wq, None);
        assert_eq!(pkts.len(), 1, "a pull is a single request");
        match pkts[0].kind {
            PacketKind::CatchUpReq {
                base, size_bytes, ..
            } => {
                assert_eq!(base, Addr::new(0));
                assert_eq!(size_bytes, 192);
            }
            ref k => panic!("expected CatchUpReq, got {k:?}"),
        }
        for i in 0..3 {
            let rep = pkts[0].reply_to(PacketKind::CatchUpReply {
                transfer: 0,
                block_index: i,
                data: Block([i as u8 + 1; BLOCK_BYTES]),
            });
            let (w, done) = p.on_reply(&rep);
            assert_eq!(
                w.expect("log blocks land in the pull buffer").addr,
                Addr::new((1 << 20) + i as u64 * 64)
            );
            assert_eq!(done.is_some(), i == 2);
            if let Some(done) = done {
                assert!(done.success);
                assert!(!done.refused);
                assert_eq!(done.op, OpKind::CatchUpPull);
            }
        }
        assert_eq!(p.inflight(), 0);
    }

    #[test]
    fn refusal_completes_early_and_tolerates_stragglers() {
        let mut p = SourcePipeline::new(0, 0, 4);
        let pkts = p.start_transfer(&read_wq(256), None); // 4 blocks

        // One pipe served a block before the guard flipped…
        let served = pkts[0].reply_to(PacketKind::ReadReply {
            transfer: 0,
            block_index: 0,
            data: Block::ZERO,
        });
        assert!(p.on_reply(&served).1.is_none());
        // …then another pipe refused: the transfer completes refused.
        let refusal = pkts[1].reply_to(PacketKind::ReadRefused { transfer: 0 });
        let (w, done) = p.on_reply(&refusal);
        assert!(w.is_none());
        let done = done.expect("refusal completes the transfer");
        assert!(!done.success);
        assert!(done.refused);
        assert_eq!(p.inflight(), 0);
        // Stragglers for the refused transfer are dropped, not panicked on:
        // a second refusal and a late data reply.
        let refusal2 = pkts[2].reply_to(PacketKind::ReadRefused { transfer: 0 });
        assert_eq!(p.on_reply(&refusal2), (None, None));
        let late = pkts[3].reply_to(PacketKind::ReadReply {
            transfer: 0,
            block_index: 3,
            data: Block::ZERO,
        });
        assert_eq!(p.on_reply(&late), (None, None));
    }

    #[test]
    #[should_panic(expected = "refusal for unknown transfer")]
    fn refusal_for_never_issued_transfer_panics() {
        let mut p = SourcePipeline::new(0, 0, 1);
        let pkt = Packet {
            src_node: 1,
            src_pipe: 0,
            dst_node: 0,
            dst_pipe: 0,
            kind: PacketKind::ReadRefused { transfer: 7 },
        };
        let _ = p.on_reply(&pkt);
    }

    #[test]
    #[should_panic(expected = "unknown transfer")]
    fn unknown_transfer_reply_panics() {
        let mut p = SourcePipeline::new(0, 0, 1);
        let pkt = Packet {
            src_node: 1,
            src_pipe: 0,
            dst_node: 0,
            dst_pipe: 0,
            kind: PacketKind::ReadReply {
                transfer: 99,
                block_index: 0,
                data: Block::ZERO,
            },
        };
        let _ = p.on_reply(&pkt);
    }
}
