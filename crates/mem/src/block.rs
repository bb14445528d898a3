//! Addresses, cache blocks and (super)pages.
//!
//! soNUMA (and RDMA practice generally) registers memory regions backed by
//! superpages, which is why the paper treats page-boundary crossings inside a
//! SABRe's window of vulnerability as rare. We model 2 MB superpages.

use std::fmt;
use std::ops::{Add, Sub};

/// Size of a cache block in bytes (Table 2: 64-byte blocks everywhere).
pub const BLOCK_BYTES: usize = 64;

/// Size of a superpage in bytes (2 MB, the common RDMA/soNUMA registration
/// granularity the paper assumes in §4.1).
pub const PAGE_BYTES: usize = 2 * 1024 * 1024;

/// A byte address inside one node's physical memory.
///
/// # Example
///
/// ```
/// use sabre_mem::{Addr, BLOCK_BYTES};
///
/// let a = Addr::new(130);
/// assert_eq!(a.block().index(), 2);
/// assert_eq!(a.block_offset(), 2);
/// assert_eq!(a.align_down_to_block(), Addr::new(128));
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte offset.
    pub const fn new(a: u64) -> Self {
        Addr(a)
    }

    /// Raw byte offset.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The cache block containing this address.
    pub const fn block(self) -> BlockAddr {
        BlockAddr(self.0 / BLOCK_BYTES as u64)
    }

    /// Offset of this address within its cache block.
    pub const fn block_offset(self) -> usize {
        (self.0 % BLOCK_BYTES as u64) as usize
    }

    /// Rounds down to the containing block's first byte.
    pub const fn align_down_to_block(self) -> Addr {
        Addr(self.0 - self.0 % BLOCK_BYTES as u64)
    }

    /// Whether this address is block-aligned.
    pub const fn is_block_aligned(self) -> bool {
        self.0.is_multiple_of(BLOCK_BYTES as u64)
    }

    /// The superpage index containing this address.
    pub const fn page(self) -> u64 {
        self.0 / PAGE_BYTES as u64
    }
}

impl Add<u64> for Addr {
    type Output = Addr;
    fn add(self, rhs: u64) -> Addr {
        Addr(self.0 + rhs)
    }
}

impl Sub<u64> for Addr {
    type Output = Addr;
    fn sub(self, rhs: u64) -> Addr {
        Addr(self.0 - rhs)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A cache-block index (byte address divided by [`BLOCK_BYTES`]).
///
/// Stream buffers, the directory and the snoop network all operate on block
/// addresses; `BlockAddr` keeps them from being confused with byte
/// addresses at compile time.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Creates a block address from a block index.
    pub const fn from_index(i: u64) -> Self {
        BlockAddr(i)
    }

    /// The block index.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Byte address of the block's first byte.
    pub const fn first_byte(self) -> Addr {
        Addr(self.0 * BLOCK_BYTES as u64)
    }

    /// The block `n` blocks after this one.
    pub const fn offset(self, n: u64) -> BlockAddr {
        BlockAddr(self.0 + n)
    }

    /// Distance in blocks from `base` to `self`, or `None` if `self` is
    /// before `base`. This is the "subtractor" operation each stream buffer
    /// performs on every snooped message (§4.2).
    pub fn distance_from(self, base: BlockAddr) -> Option<u64> {
        self.0.checked_sub(base.0)
    }

    /// The superpage index containing this block.
    pub const fn page(self) -> u64 {
        self.0 * BLOCK_BYTES as u64 / PAGE_BYTES as u64
    }
}

impl fmt::Debug for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block({:#x})", self.0)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk:{:#x}", self.0)
    }
}

/// Interleaves indices over `n` units (cache sets, DRAM channels, LLC
/// banks): unit `index % n`, computed with a mask when `n` is a power of
/// two.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Interleave {
    n: u64,
    /// `n - 1` when `n` is a power of two.
    mask: Option<u64>,
}

impl Interleave {
    /// Interleaving over `n > 0` units.
    pub(crate) fn new(n: usize) -> Self {
        debug_assert!(n > 0, "interleaving over no units");
        Interleave {
            n: n as u64,
            mask: n.is_power_of_two().then_some(n as u64 - 1),
        }
    }

    /// The unit `index` maps to.
    pub(crate) fn unit(self, index: u64) -> usize {
        match self.mask {
            Some(mask) => (index & mask) as usize,
            None => (index % self.n) as usize,
        }
    }
}

/// The half-open range of blocks covering `len` bytes starting at `base`.
///
/// # Example
///
/// ```
/// use sabre_mem::{Addr, BlockRange};
///
/// // A 130-byte object starting at byte 0 spans 3 blocks.
/// let r = BlockRange::covering(Addr::new(0), 130);
/// assert_eq!(r.block_count(), 3);
/// let blocks: Vec<u64> = r.iter().map(|b| b.index()).collect();
/// assert_eq!(blocks, vec![0, 1, 2]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockRange {
    first: BlockAddr,
    count: u64,
}

impl BlockRange {
    /// The minimal block range covering `len` bytes starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn covering(base: Addr, len: u64) -> Self {
        assert!(len > 0, "empty range");
        let first = base.block();
        let last = (base + (len - 1)).block();
        BlockRange {
            first,
            count: last.index() - first.index() + 1,
        }
    }

    /// A range of exactly `count` blocks starting at `first`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn from_blocks(first: BlockAddr, count: u64) -> Self {
        assert!(count > 0, "empty range");
        BlockRange { first, count }
    }

    /// First block of the range.
    pub fn first(self) -> BlockAddr {
        self.first
    }

    /// Number of blocks in the range.
    pub fn block_count(self) -> u64 {
        self.count
    }

    /// Whether `block` falls inside the range.
    pub fn contains(self, block: BlockAddr) -> bool {
        block
            .distance_from(self.first)
            .is_some_and(|d| d < self.count)
    }

    /// Iterates over the blocks of the range in address order.
    pub fn iter(self) -> impl Iterator<Item = BlockAddr> {
        (0..self.count).map(move |i| self.first.offset(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_block_mapping() {
        assert_eq!(Addr::new(0).block(), BlockAddr::from_index(0));
        assert_eq!(Addr::new(63).block(), BlockAddr::from_index(0));
        assert_eq!(Addr::new(64).block(), BlockAddr::from_index(1));
        assert_eq!(Addr::new(64).block_offset(), 0);
        assert_eq!(Addr::new(65).block_offset(), 1);
        assert!(Addr::new(128).is_block_aligned());
        assert!(!Addr::new(129).is_block_aligned());
    }

    #[test]
    fn block_round_trips() {
        let b = BlockAddr::from_index(17);
        assert_eq!(b.first_byte(), Addr::new(17 * 64));
        assert_eq!(b.first_byte().block(), b);
    }

    #[test]
    fn subtractor_distance() {
        let base = BlockAddr::from_index(100);
        assert_eq!(BlockAddr::from_index(105).distance_from(base), Some(5));
        assert_eq!(BlockAddr::from_index(100).distance_from(base), Some(0));
        assert_eq!(BlockAddr::from_index(99).distance_from(base), None);
    }

    #[test]
    fn covering_ranges() {
        // Exactly one block.
        let r = BlockRange::covering(Addr::new(64), 64);
        assert_eq!(r.block_count(), 1);
        assert!(r.contains(BlockAddr::from_index(1)));
        assert!(!r.contains(BlockAddr::from_index(2)));
        // Unaligned start pulls in an extra block.
        let r = BlockRange::covering(Addr::new(60), 8);
        assert_eq!(r.block_count(), 2);
        // 8 KB object: 128 blocks.
        let r = BlockRange::covering(Addr::new(0), 8192);
        assert_eq!(r.block_count(), 128);
    }

    #[test]
    fn range_iteration() {
        let r = BlockRange::from_blocks(BlockAddr::from_index(5), 3);
        let v: Vec<u64> = r.iter().map(|b| b.index()).collect();
        assert_eq!(v, vec![5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        let _ = BlockRange::covering(Addr::new(0), 0);
    }
}
