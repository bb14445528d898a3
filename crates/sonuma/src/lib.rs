//! The Scale-Out NUMA (soNUMA) protocol substrate.
//!
//! soNUMA is the rack-scale architecture the paper builds on: SoC nodes with
//! on-chip integrated **Remote Memory Controllers** (RMCs) connected by a
//! lossless fabric, exposing one-sided remote reads and writes through
//! memory-mapped **Work Queue / Completion Queue** pairs. Three independent
//! pipelines handle every transfer (Fig. 5):
//!
//! * **RGP** (Request Generation Pipeline) at the source unrolls a transfer
//!   into cache-block-sized request packets — a deliberate design choice
//!   that gives the transport layer a strict request-reply flow-control
//!   invariant;
//! * **R2P2** (Remote Request Processing Pipeline) at the destination
//!   services requests against local memory — statelessly for plain reads
//!   and writes, and via the [`sabre_core::LightSabres`] engine for SABRes;
//! * **RCP** (Request Completion Pipeline) back at the source collects
//!   replies, DMA-writes payloads into the local buffer, and posts the CQ
//!   entry (with the SABRe success bit of §5.2).
//!
//! The SABRe protocol extensions (§5.2) are implemented exactly: a
//! registration packet precedes the data requests, a payload-free
//! validation packet closes every SABRe with its atomicity outcome, and the
//! CQ entry carries a success field.
//!
//! Like `sabre-core`, everything here is sans-IO: pipelines consume packets
//! and produce actions; `sabre-rack` gives them time, memory and wires.

pub mod pipeline;
pub mod queues;
pub mod r2p2;
pub mod wire;

pub use pipeline::{Completion, LocalWrite, SourcePipeline};
pub use queues::{CqEntry, OpKind, WqEntry};
pub use r2p2::{MemOutcome, MemToken, R2p2, R2p2Action};
pub use wire::{Block, NodeId, Packet, PacketKind, PipeId};
