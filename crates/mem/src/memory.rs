//! The functional byte store backing one node.
//!
//! `NodeMemory` is deliberately *functional only* and holds nothing but
//! the bytes: it answers "what bytes are at this address". All timing (who
//! gets serviced when) lives in [`crate::timing`]; all visibility (who gets
//! told about a write) lives in the snoop fan-out wired up by the assembly
//! crate. Because readers and writers touch `NodeMemory` at the simulated
//! instants their block accesses are serviced, interleavings produce real
//! torn data — which is exactly what the paper's atomicity mechanisms exist
//! to detect.

use crate::block::{Addr, BlockAddr, BLOCK_BYTES};

/// Byte-accurate memory of one node: its bytes and nothing else, so a
/// node's host footprint is its simulated capacity.
///
/// # Example
///
/// ```
/// use sabre_mem::{Addr, NodeMemory};
///
/// let mut mem = NodeMemory::new(4096);
/// mem.write(Addr::new(100), &[1, 2, 3]);
/// assert_eq!(mem.read_vec(Addr::new(100), 3), vec![1, 2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct NodeMemory {
    bytes: Vec<u8>,
}

impl NodeMemory {
    /// Allocates `size` bytes of zeroed memory, rounded up to a whole number
    /// of cache blocks.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "memory size must be positive");
        let size = size.div_ceil(BLOCK_BYTES) * BLOCK_BYTES;
        NodeMemory {
            bytes: vec![0; size],
        }
    }

    /// Total capacity in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Reads `len` bytes starting at `addr` into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory size.
    pub fn read_vec(&self, addr: Addr, len: usize) -> Vec<u8> {
        self.slice(addr, len).to_vec()
    }

    /// Borrows `len` bytes starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory size.
    pub fn slice(&self, addr: Addr, len: usize) -> &[u8] {
        let start = addr.raw() as usize;
        let end = start
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .unwrap_or_else(|| panic!("read past end of memory: {addr}+{len}"));
        &self.bytes[start..end]
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory size.
    pub fn write(&mut self, addr: Addr, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let start = addr.raw() as usize;
        let end = start
            .checked_add(data.len())
            .filter(|&e| e <= self.bytes.len())
            .unwrap_or_else(|| panic!("write past end of memory: {addr}+{}", data.len()));
        self.bytes[start..end].copy_from_slice(data);
    }

    /// Reads one whole cache block.
    ///
    /// # Panics
    ///
    /// Panics if the block is out of range.
    pub fn read_block(&self, block: BlockAddr) -> [u8; BLOCK_BYTES] {
        let mut out = [0u8; BLOCK_BYTES];
        out.copy_from_slice(self.slice(block.first_byte(), BLOCK_BYTES));
        out
    }

    /// Writes one whole cache block.
    ///
    /// # Panics
    ///
    /// Panics if the block is out of range.
    pub fn write_block(&mut self, block: BlockAddr, data: &[u8; BLOCK_BYTES]) {
        self.write(block.first_byte(), data);
    }

    /// Reads a 64-bit little-endian word at `addr` (used for object version
    /// headers).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory size.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.slice(addr, 8));
        u64::from_le_bytes(buf)
    }

    /// Writes a 64-bit little-endian word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory size.
    pub fn write_u64(&mut self, addr: Addr, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Number of blocks in this memory.
    pub fn block_count(&self) -> u64 {
        (self.bytes.len() / BLOCK_BYTES) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_up_to_blocks() {
        let m = NodeMemory::new(100);
        assert_eq!(m.size(), 128);
        assert_eq!(m.block_count(), 2);
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = NodeMemory::new(1024);
        let data: Vec<u8> = (0..=255).collect();
        m.write(Addr::new(100), &data);
        assert_eq!(m.read_vec(Addr::new(100), 256), data);
        // Unwritten memory is zero.
        assert_eq!(m.read_vec(Addr::new(0), 4), vec![0, 0, 0, 0]);
    }

    #[test]
    fn block_round_trip() {
        let mut m = NodeMemory::new(1024);
        let mut blk = [0u8; BLOCK_BYTES];
        blk[0] = 0xAB;
        blk[63] = 0xCD;
        m.write_block(BlockAddr::from_index(3), &blk);
        assert_eq!(m.read_block(BlockAddr::from_index(3)), blk);
    }

    #[test]
    fn u64_round_trip() {
        let mut m = NodeMemory::new(256);
        m.write_u64(Addr::new(8), 0xDEAD_BEEF_0123_4567);
        assert_eq!(m.read_u64(Addr::new(8)), 0xDEAD_BEEF_0123_4567);
    }

    #[test]
    fn empty_write_is_noop() {
        let mut m = NodeMemory::new(256);
        m.write(Addr::new(0), &[]);
        assert!(m.slice(Addr::new(0), 256).iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "read past end")]
    fn oob_read_panics() {
        let m = NodeMemory::new(128);
        let _ = m.read_vec(Addr::new(120), 16);
    }

    #[test]
    #[should_panic(expected = "write past end")]
    fn oob_write_panics() {
        let mut m = NodeMemory::new(128);
        m.write(Addr::new(127), &[0, 0]);
    }
}
