//! The two object layouts the paper compares.
//!
//! **Clean layout** (used with SABRes): a 16-byte header (version word +
//! reader-lock word) followed by the contiguous payload. Nothing is
//! embedded in the data, so one-sided reads are zero-copy: the NI can DMA
//! straight into the application buffer and local readers consume the bytes
//! in place.
//!
//! **Per-cache-line versions layout** (FaRM, the state of the art in
//! software): every 64-byte line carries a version stamp — the full version
//! word in the head line, a replica of its low bits in every subsequent
//! line. Writers update all stamps; readers must compare every stamp
//! against the header *after* the transfer and strip the stamps out into a
//! clean buffer before the application may touch the data. We use 8-byte
//! stamps (l = 64), trading a little extra wire footprint for alignment,
//! exactly as the layout math below documents.

use sabre_mem::{Addr, NodeMemory, BLOCK_BYTES};

use crate::version::VersionWord;

/// A software-detected atomicity violation: the read raced a writer and the
/// caller must retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicityViolation {
    /// The header version was odd (writer in progress).
    WriterInProgress,
    /// A line's stamp disagreed with the header version.
    StampMismatch {
        /// Index of the first mismatching line.
        line: usize,
    },
    /// The recomputed checksum disagreed with the stored one.
    ChecksumMismatch,
}

impl std::fmt::Display for AtomicityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AtomicityViolation::WriterInProgress => f.write_str("header version is odd"),
            AtomicityViolation::StampMismatch { line } => {
                write!(f, "version stamp mismatch in line {line}")
            }
            AtomicityViolation::ChecksumMismatch => f.write_str("checksum mismatch"),
        }
    }
}

impl std::error::Error for AtomicityViolation {}

/// The clean (SABRe-friendly) object layout.
///
/// ```text
/// offset 0: version word (u64)   offset 8: reader-lock word (u64)
/// offset 16..: payload
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CleanLayout;

impl CleanLayout {
    /// Header bytes preceding the payload.
    pub const HEADER_BYTES: usize = 16;

    /// Total in-memory object footprint for a payload of `payload` bytes,
    /// rounded up to whole cache blocks (objects are block-aligned).
    pub fn object_bytes(payload: usize) -> usize {
        (Self::HEADER_BYTES + payload).div_ceil(BLOCK_BYTES) * BLOCK_BYTES
    }

    /// Bytes that travel on the wire for a one-sided read of the object.
    pub fn wire_bytes(payload: usize) -> usize {
        Self::object_bytes(payload)
    }

    /// Address of the payload within an object at `base`.
    pub fn payload_addr(base: Addr) -> Addr {
        base + Self::HEADER_BYTES as u64
    }

    /// Initializes an object at `base` with version 0 and the payload.
    pub fn init(mem: &mut NodeMemory, base: Addr, payload: &[u8]) {
        mem.write_u64(base, 0);
        mem.write_u64(base + 8, 0);
        mem.write(Self::payload_addr(base), payload);
    }

    /// Reads the payload of an object image (as transferred) — zero
    /// validation needed beyond the SABRe's hardware guarantee.
    ///
    /// # Panics
    ///
    /// Panics if the image is shorter than header + `payload_len`.
    pub fn payload_of(image: &[u8], payload_len: usize) -> &[u8] {
        &image[Self::HEADER_BYTES..Self::HEADER_BYTES + payload_len]
    }

    /// The version word of an object image.
    pub fn version_of(image: &[u8]) -> VersionWord {
        VersionWord::new(u64::from_le_bytes(image[..8].try_into().expect("8 bytes")))
    }
}

/// FaRM's per-cache-line versions layout.
///
/// ```text
/// line 0:  [version u64][56 B data]
/// line i:  [stamp   u64][56 B data]      (stamp = version, i ≥ 1)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerClLayout;

impl PerClLayout {
    /// Bytes of stamp per line (l = 64 bits).
    pub const STAMP_BYTES: usize = 8;

    /// Payload bytes carried per line.
    pub const DATA_PER_LINE: usize = BLOCK_BYTES - Self::STAMP_BYTES;

    /// Number of lines needed for `payload` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `payload == 0`.
    pub fn lines_needed(payload: usize) -> usize {
        assert!(payload > 0, "empty objects are not stored");
        payload.div_ceil(Self::DATA_PER_LINE)
    }

    /// Total in-memory (and on-wire) footprint for `payload` bytes — the
    /// stamp overhead is why per-CL objects move more bytes than clean ones
    /// (e.g. 8 KB of payload occupies 147 lines = 9408 B).
    pub fn object_bytes(payload: usize) -> usize {
        Self::lines_needed(payload) * BLOCK_BYTES
    }

    /// Bytes on the wire for a one-sided read (same as the footprint).
    pub fn wire_bytes(payload: usize) -> usize {
        Self::object_bytes(payload)
    }

    /// Encodes line `line` of an object holding `payload` at `version`.
    /// Used by simulated writers, which update one line per simulated store.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range for the payload.
    pub fn encode_line(version: VersionWord, payload: &[u8], line: usize) -> [u8; BLOCK_BYTES] {
        let lines = Self::lines_needed(payload.len());
        assert!(line < lines, "line {line} out of range ({lines} lines)");
        let mut out = [0u8; BLOCK_BYTES];
        out[..8].copy_from_slice(&version.raw().to_le_bytes());
        let start = line * Self::DATA_PER_LINE;
        let end = (start + Self::DATA_PER_LINE).min(payload.len());
        out[Self::STAMP_BYTES..Self::STAMP_BYTES + (end - start)]
            .copy_from_slice(&payload[start..end]);
        out
    }

    /// Encodes a whole object image (initialization fast path).
    pub fn encode(version: VersionWord, payload: &[u8]) -> Vec<u8> {
        let lines = Self::lines_needed(payload.len());
        let mut out = Vec::with_capacity(lines * BLOCK_BYTES);
        for line in 0..lines {
            out.extend_from_slice(&Self::encode_line(version, payload, line));
        }
        out
    }

    /// Initializes an object at `base` in simulated memory.
    pub fn init(mem: &mut NodeMemory, base: Addr, payload: &[u8]) {
        mem.write(base, &Self::encode(VersionWord::new(0), payload));
    }

    /// The post-transfer software atomicity check (the cost the paper's
    /// hardware removes): verifies the header version is even and every
    /// line stamp matches it. Copies nothing.
    ///
    /// # Errors
    ///
    /// Returns the violation the caller must retry on.
    ///
    /// # Panics
    ///
    /// Panics if `image` is not the exact footprint for `payload_len`.
    pub fn validate(image: &[u8], payload_len: usize) -> Result<(), AtomicityViolation> {
        let lines = Self::lines_needed(payload_len);
        assert_eq!(
            image.len(),
            lines * BLOCK_BYTES,
            "image size does not match payload length"
        );
        let header = VersionWord::new(u64::from_le_bytes(image[..8].try_into().expect("8 bytes")));
        if header.is_locked() {
            return Err(AtomicityViolation::WriterInProgress);
        }
        for (line, block) in image.chunks_exact(BLOCK_BYTES).enumerate() {
            let stamp = u64::from_le_bytes(block[..8].try_into().expect("8 bytes"));
            if stamp != header.raw() {
                return Err(AtomicityViolation::StampMismatch { line });
            }
        }
        Ok(())
    }

    /// [`PerClLayout::validate`], then extracts the clean payload.
    ///
    /// # Errors
    ///
    /// Returns the violation the caller must retry on.
    ///
    /// # Panics
    ///
    /// Panics if `image` is not the exact footprint for `payload_len`.
    pub fn validate_and_strip(
        image: &[u8],
        payload_len: usize,
    ) -> Result<Vec<u8>, AtomicityViolation> {
        Self::validate(image, payload_len)?;
        let mut payload = Vec::with_capacity(payload_len);
        for block in image.chunks_exact(BLOCK_BYTES) {
            let take = (payload_len - payload.len()).min(Self::DATA_PER_LINE);
            payload.extend_from_slice(&block[Self::STAMP_BYTES..Self::STAMP_BYTES + take]);
        }
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_layout_geometry() {
        assert_eq!(CleanLayout::object_bytes(48), 64);
        assert_eq!(CleanLayout::object_bytes(49), 128);
        assert_eq!(CleanLayout::object_bytes(8192), 8192 + 64);
    }

    #[test]
    fn clean_layout_round_trip() {
        let mut mem = NodeMemory::new(4096);
        let payload: Vec<u8> = (0..100u8).collect();
        CleanLayout::init(&mut mem, Addr::new(0), &payload);
        let image = mem.read_vec(Addr::new(0), CleanLayout::object_bytes(100));
        assert_eq!(CleanLayout::version_of(&image).raw(), 0);
        assert_eq!(CleanLayout::payload_of(&image, 100), &payload[..]);
    }

    #[test]
    fn percl_geometry_matches_paper_math() {
        assert_eq!(PerClLayout::DATA_PER_LINE, 56);
        assert_eq!(PerClLayout::lines_needed(56), 1);
        assert_eq!(PerClLayout::lines_needed(57), 2);
        // 8 KB payload: 147 lines, 9408 B on the wire (≈15% overhead).
        assert_eq!(PerClLayout::lines_needed(8192), 147);
        assert_eq!(PerClLayout::wire_bytes(8192), 9408);
    }

    #[test]
    fn percl_round_trip() {
        let payload: Vec<u8> = (0..=255).cycle().take(1000).map(|b| b as u8).collect();
        let image = PerClLayout::encode(VersionWord::new(8), &payload);
        let out = PerClLayout::validate_and_strip(&image, 1000).expect("clean image validates");
        assert_eq!(out, payload);
    }

    #[test]
    fn percl_detects_writer_in_progress() {
        let payload = vec![7u8; 200];
        let image = PerClLayout::encode(VersionWord::new(3), &payload);
        assert_eq!(
            PerClLayout::validate_and_strip(&image, 200),
            Err(AtomicityViolation::WriterInProgress)
        );
    }

    #[test]
    fn percl_detects_torn_lines() {
        let payload = vec![1u8; 200]; // 4 lines
        let mut image = PerClLayout::encode(VersionWord::new(4), &payload);
        // Simulate a racing writer having rewritten line 2 at version 6.
        let newer = PerClLayout::encode_line(VersionWord::new(6), &[2u8; 200], 2);
        image[2 * BLOCK_BYTES..3 * BLOCK_BYTES].copy_from_slice(&newer);
        assert_eq!(
            PerClLayout::validate_and_strip(&image, 200),
            Err(AtomicityViolation::StampMismatch { line: 2 })
        );
    }

    #[test]
    fn percl_write_read_through_memory() {
        let mut mem = NodeMemory::new(4096);
        let payload: Vec<u8> = (0..100u8).collect();
        PerClLayout::init(&mut mem, Addr::new(0), &payload);
        let image = mem.read_vec(Addr::new(0), PerClLayout::object_bytes(100));
        assert_eq!(
            PerClLayout::validate_and_strip(&image, 100).unwrap(),
            payload
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn encode_line_bounds() {
        let _ = PerClLayout::encode_line(VersionWord::new(0), &[0u8; 56], 1);
    }
}
