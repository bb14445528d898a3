//! Memory substrate for the SABRes reproduction.
//!
//! This crate models the per-node memory system of a soNUMA chip at the
//! granularity the paper's mechanism cares about — the **cache block**:
//!
//! * [`block`] — address types, the 64-byte block, block ranges, superpages.
//! * [`memory`] — [`NodeMemory`]: the functional byte store. Reads and
//!   writes happen at the simulated instant the memory system services them,
//!   so data races between a writer and a concurrent remote read produce
//!   *real* torn bytes that the atomicity mechanisms must catch.
//! * [`tags`] — a generic LRU set-associative tag array.
//! * [`llc`] — the 2 MB NUCA last-level cache model (presence + evictions;
//!   evictions matter because they generate the "false alarm" invalidations
//!   LightSABRes must not abort on).
//! * [`timing`] — queued DRAM channels and LLC banks producing completion
//!   times for block accesses (Table 2 parameters).

pub mod block;
pub mod llc;
pub mod memory;
pub mod tags;
pub mod timing;

pub use block::{Addr, BlockAddr, BlockRange, BLOCK_BYTES, PAGE_BYTES};
pub use llc::{Llc, LlcOutcome};
pub use memory::NodeMemory;
pub use timing::{MemSystem, MemTimingConfig, ServiceLevel};
