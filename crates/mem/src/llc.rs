//! The last-level cache presence model.
//!
//! Table 2: shared block-interleaved NUCA LLC, 2 MB total, 16-way, 64 B
//! blocks. Only presence is modeled (data lives in `NodeMemory`); what the
//! rest of the system needs from the LLC is:
//!
//! * **latency class** for each access (LLC hit vs DRAM),
//! * **evictions**, because an eviction of a block tracked by a stream
//!   buffer raises an invalidation that LightSABRes must classify as a
//!   false alarm (§4.2) rather than a conflict.

use crate::block::BlockAddr;
use crate::tags::{Insert, SetAssocTags};

/// Result of one LLC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcOutcome {
    /// Whether the block was present.
    pub hit: bool,
    /// A block displaced by the fill (misses only).
    pub evicted: Option<BlockAddr>,
}

/// The per-node LLC model.
///
/// # Example
///
/// ```
/// use sabre_mem::{BlockAddr, Llc};
///
/// let mut llc = Llc::with_geometry(2 * 1024 * 1024, 16);
/// let b = BlockAddr::from_index(42);
/// assert!(!llc.access(b).hit);  // cold miss, fills
/// assert!(llc.access(b).hit);   // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Llc {
    tags: SetAssocTags,
}

impl Llc {
    /// Creates an LLC with `capacity_bytes` capacity and `ways`
    /// associativity over 64 B blocks.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn with_geometry(capacity_bytes: usize, ways: usize) -> Self {
        Llc {
            tags: SetAssocTags::with_geometry(capacity_bytes, crate::block::BLOCK_BYTES, ways),
        }
    }

    /// Accesses `block`, filling on miss. Returns hit/miss and any eviction.
    pub fn access(&mut self, block: BlockAddr) -> LlcOutcome {
        match self.tags.insert(block.index()) {
            Insert::Hit => LlcOutcome {
                hit: true,
                evicted: None,
            },
            Insert::Fill(evicted) => LlcOutcome {
                hit: false,
                evicted: evicted.map(BlockAddr::from_index),
            },
        }
    }

    /// Probes for presence without updating replacement state.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.tags.contains(block.index())
    }

    /// Drops `block` from the cache (e.g. modeled back-invalidation);
    /// returns whether it was present.
    pub fn invalidate(&mut self, block: BlockAddr) -> bool {
        self.tags.invalidate(block.index())
    }

    /// (hits, misses, evictions) since construction.
    pub fn stats(&self) -> (u64, u64, u64) {
        self.tags.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_and_hits() {
        let mut llc = Llc::with_geometry(64 * 16, 16); // single set of 16
        let b = BlockAddr::from_index(7);
        let first = llc.access(b);
        assert!(!first.hit);
        assert_eq!(first.evicted, None);
        assert!(llc.access(b).hit);
        assert!(llc.contains(b));
    }

    #[test]
    fn one_access_counts_once() {
        let mut llc = Llc::with_geometry(64 * 16, 16);
        let b = BlockAddr::from_index(3);
        llc.access(b);
        llc.access(b);
        assert_eq!(llc.stats(), (1, 1, 0), "one miss, then one hit");
    }

    #[test]
    fn evicts_when_set_overflows() {
        let mut llc = Llc::with_geometry(64 * 2, 2); // one set, two ways
        llc.access(BlockAddr::from_index(1));
        llc.access(BlockAddr::from_index(2));
        let out = llc.access(BlockAddr::from_index(3));
        assert!(!out.hit);
        assert_eq!(out.evicted, Some(BlockAddr::from_index(1)));
    }

    #[test]
    fn working_set_smaller_than_capacity_stays_resident() {
        // Fig. 8 setup: 100 objects × 8 KB = 800 KB < 2 MB stays resident.
        let mut llc = Llc::with_geometry(2 * 1024 * 1024, 16);
        let blocks_per_obj = 8192 / 64;
        for pass in 0..3 {
            for obj in 0..100u64 {
                for i in 0..blocks_per_obj {
                    let b = BlockAddr::from_index(obj * blocks_per_obj + i);
                    let out = llc.access(b);
                    if pass > 0 {
                        assert!(out.hit, "pass {pass} obj {obj} block {i} missed");
                    }
                }
            }
        }
    }

    #[test]
    fn invalidate_removes() {
        let mut llc = Llc::with_geometry(64 * 4, 4);
        let b = BlockAddr::from_index(9);
        llc.access(b);
        assert!(llc.invalidate(b));
        assert!(!llc.contains(b));
        assert!(!llc.invalidate(b));
    }
}
