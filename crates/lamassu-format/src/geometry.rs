//! Segment geometry: slots, sizes, offsets and the space-overhead formulas.
//!
//! Terminology (paper §2.3):
//!
//! * *block size* `B` — the fixed unit of encryption and I/O (default 4096).
//! * *reserved slots* `R` — transient key slots kept at the end of each
//!   metadata block for the multiphase-commit protocol (paper §2.4).
//! * *keys per metadata block* `N` — how many data blocks one metadata block
//!   can describe; a **segment** is one metadata block followed by `N` data
//!   blocks.
//!
//! Layout of a metadata block (see [`crate::metadata`] for the field detail):
//!
//! ```text
//! | header 48 B | key table: N x 32 B | transient area: R x 34 B |
//! ```
//!
//! so `N = floor((B - 48 - 34*R) / 32)`. With `B = 4096` this gives the
//! paper's published values: `N = 125` for `R = 1` and `N = 118` for `R = 8`.

use crate::FormatError;

/// Size in bytes of the metadata-block header (IV, GCM tag, logical size,
/// flags, reserved field) — Figure 3 of the paper.
pub const HEADER_SIZE: usize = 48;

/// Size in bytes of one key-table slot (a 256-bit convergent key).
pub const KEY_SLOT_SIZE: usize = 32;

/// Size in bytes of one transient-area entry: a 2-byte in-segment block index
/// followed by the 32-byte *previous* key for that block.
pub const TRANSIENT_ENTRY_SIZE: usize = 34;

/// The default Lamassu block size used throughout the paper's evaluation.
pub const DEFAULT_BLOCK_SIZE: usize = 4096;

/// The default number of reserved transient slots (`R = 8` in §4).
pub const DEFAULT_RESERVED_SLOTS: usize = 8;

/// Location of one logical data block inside the physical (encrypted) file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockLocation {
    /// Index of the segment that holds the block.
    pub segment: u64,
    /// Index of the block within its segment's key table (0-based).
    pub slot: usize,
    /// Physical block index within the encrypted file (metadata blocks
    /// included in the numbering).
    pub physical_block: u64,
    /// Physical byte offset of the data block within the encrypted file.
    pub physical_offset: u64,
}

/// Immutable layout parameters for a Lamassu volume.
///
/// # Examples
///
/// ```
/// use lamassu_format::Geometry;
///
/// let g = Geometry::new(4096, 8).unwrap();
/// assert_eq!(g.keys_per_metadata_block(), 118);
/// assert_eq!(g.segment_blocks(), 119);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    block_size: usize,
    reserved_slots: usize,
    keys_per_mb: usize,
}

impl Default for Geometry {
    fn default() -> Self {
        // The unwrap is safe: the default parameters are valid by construction.
        Geometry::new(DEFAULT_BLOCK_SIZE, DEFAULT_RESERVED_SLOTS).unwrap()
    }
}

impl Geometry {
    /// Creates a geometry for the given block size and reserved-slot count.
    ///
    /// Returns [`FormatError::InvalidGeometry`] if the block is too small to
    /// hold the header, the transient area and at least one key slot, or if
    /// the block size is not a multiple of the AES block size (16 bytes).
    pub fn new(block_size: usize, reserved_slots: usize) -> crate::Result<Self> {
        if !block_size.is_multiple_of(16) {
            return Err(FormatError::InvalidGeometry {
                block_size,
                reserved_slots,
            });
        }
        let fixed = HEADER_SIZE + TRANSIENT_ENTRY_SIZE * reserved_slots;
        if block_size <= fixed + KEY_SLOT_SIZE {
            return Err(FormatError::InvalidGeometry {
                block_size,
                reserved_slots,
            });
        }
        let keys_per_mb = (block_size - fixed) / KEY_SLOT_SIZE;
        Ok(Geometry {
            block_size,
            reserved_slots,
            keys_per_mb,
        })
    }

    /// The fixed block size `B` in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The number of reserved transient slots `R`.
    pub fn reserved_slots(&self) -> usize {
        self.reserved_slots
    }

    /// `N`: how many data-block keys one metadata block stores
    /// (`NumKeysMB` in the paper's equations).
    pub fn keys_per_metadata_block(&self) -> usize {
        self.keys_per_mb
    }

    /// Number of blocks in a full segment (1 metadata block + `N` data
    /// blocks).
    pub fn segment_blocks(&self) -> usize {
        self.keys_per_mb + 1
    }

    /// Size of a full segment in bytes.
    pub fn segment_bytes(&self) -> u64 {
        (self.segment_blocks() * self.block_size) as u64
    }

    /// Equation 4: number of data blocks needed for `logical_len` bytes of
    /// plaintext.
    pub fn data_blocks_for_len(&self, logical_len: u64) -> u64 {
        logical_len.div_ceil(self.block_size as u64)
    }

    /// Equation 5: number of metadata blocks needed for `data_blocks` data
    /// blocks. A zero-length file still carries one metadata block so that
    /// its logical size and flags have a home.
    pub fn metadata_blocks_for_data_blocks(&self, data_blocks: u64) -> u64 {
        data_blocks.div_ceil(self.keys_per_mb as u64).max(1)
    }

    /// Equation 6: total physical size of the encrypted file for
    /// `logical_len` bytes of plaintext.
    pub fn encrypted_size(&self, logical_len: u64) -> u64 {
        let ndb = self.data_blocks_for_len(logical_len);
        let nmb = self.metadata_blocks_for_data_blocks(ndb);
        (ndb + nmb) * self.block_size as u64
    }

    /// Equation 7: the absolute space overhead in bytes.
    pub fn overhead(&self, logical_len: u64) -> u64 {
        self.encrypted_size(logical_len) - logical_len
    }

    /// Equation 8: the minimum relative overhead `1 / N`, reached when the
    /// plaintext length is an exact multiple of `N * B`.
    pub fn min_overhead_ratio(&self) -> f64 {
        1.0 / self.keys_per_mb as f64
    }

    /// Fraction of physical blocks that hold data (not metadata) in a fully
    /// populated file: `N / (N + 1)`. This is the quantity plotted on the
    /// y-axis of the paper's Figure 11 for a 0 %-redundant file.
    pub fn data_block_fraction(&self) -> f64 {
        self.keys_per_mb as f64 / (self.keys_per_mb as f64 + 1.0)
    }

    /// Number of segments (equivalently metadata blocks) for a file of
    /// `logical_len` bytes.
    pub fn segments_for_len(&self, logical_len: u64) -> u64 {
        self.metadata_blocks_for_data_blocks(self.data_blocks_for_len(logical_len))
    }

    /// Maps a logical block index to its location in the physical file.
    pub fn locate_block(&self, logical_block: u64) -> BlockLocation {
        let n = self.keys_per_mb as u64;
        let segment = logical_block / n;
        let slot = (logical_block % n) as usize;
        let physical_block = segment * (n + 1) + 1 + slot as u64;
        BlockLocation {
            segment,
            slot,
            physical_block,
            physical_offset: physical_block * self.block_size as u64,
        }
    }

    /// Physical byte offset of the metadata block for `segment`.
    pub fn metadata_block_offset(&self, segment: u64) -> u64 {
        segment * self.segment_bytes()
    }

    /// Logical block index containing logical byte offset `off`.
    pub fn logical_block_of_offset(&self, off: u64) -> u64 {
        off / self.block_size as u64
    }

    /// Splits the logical byte range `[offset, offset + len)` into
    /// `(logical_block, offset_in_block, len_in_block)` spans, one per data
    /// block touched, as an allocation-free iterator. Used by the read/write
    /// paths to turn arbitrary I/O into full-block operations without
    /// putting the allocator on the hot path. A range that would end past
    /// `u64::MAX` is cut there (the shims reject it before planning).
    pub fn block_spans(&self, offset: u64, len: usize) -> BlockSpans {
        BlockSpans {
            block_size: self.block_size as u64,
            cur: offset,
            end: offset.saturating_add(len as u64),
        }
    }
}

/// Iterator over the `(logical_block, offset_in_block, len_in_block)` spans
/// of one byte range (see [`Geometry::block_spans`]).
#[derive(Debug, Clone)]
pub struct BlockSpans {
    block_size: u64,
    cur: u64,
    end: u64,
}

impl Iterator for BlockSpans {
    type Item = (u64, usize, usize);

    fn next(&mut self) -> Option<(u64, usize, usize)> {
        if self.cur >= self.end {
            return None;
        }
        let block = self.cur / self.block_size;
        let in_block = (self.cur % self.block_size) as usize;
        let take = ((self.block_size - in_block as u64).min(self.end - self.cur)) as usize;
        self.cur += take as u64;
        Some((block, in_block, take))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_r1() {
        // §3: "a single metadata block can store 125 keys per segment (when
        // R = 1), the minimum space overhead ratio is 1/125 = 0.8%".
        let g = Geometry::new(4096, 1).unwrap();
        assert_eq!(g.keys_per_metadata_block(), 125);
        assert!((g.min_overhead_ratio() - 0.008).abs() < 1e-9);
    }

    #[test]
    fn paper_reference_r8() {
        // §4 setup: "a single segment is composed of one metadata block
        // followed [by] 118 data blocks, and the minimum amount of space
        // overhead is 0.85%".
        let g = Geometry::new(4096, 8).unwrap();
        assert_eq!(g.keys_per_metadata_block(), 118);
        assert_eq!(g.segment_blocks(), 119);
        let pct = g.min_overhead_ratio() * 100.0;
        assert!((pct - 0.85).abs() < 0.01, "got {pct}");
    }

    #[test]
    fn default_geometry_matches_paper_setup() {
        let g = Geometry::default();
        assert_eq!(g.block_size(), 4096);
        assert_eq!(g.reserved_slots(), 8);
        assert_eq!(g.keys_per_metadata_block(), 118);
    }

    #[test]
    fn invalid_geometries_rejected() {
        assert!(Geometry::new(100, 1).is_err(), "unaligned block size");
        assert!(Geometry::new(128, 8).is_err(), "no room for key slots");
        assert!(Geometry::new(4096, 200).is_err(), "transient area too big");
    }

    #[test]
    fn equations_4_to_7() {
        let g = Geometry::new(4096, 8).unwrap();
        // Exactly one full segment of data.
        let n = 118u64 * 4096;
        assert_eq!(g.data_blocks_for_len(n), 118);
        assert_eq!(g.metadata_blocks_for_data_blocks(118), 1);
        assert_eq!(g.encrypted_size(n), 119 * 4096);
        assert_eq!(g.overhead(n), 4096);

        // One byte more spills into a second segment.
        assert_eq!(g.data_blocks_for_len(n + 1), 119);
        assert_eq!(g.metadata_blocks_for_data_blocks(119), 2);
        assert_eq!(g.encrypted_size(n + 1), 121 * 4096);
    }

    #[test]
    fn empty_file_still_has_one_metadata_block() {
        let g = Geometry::default();
        assert_eq!(g.encrypted_size(0), 4096);
        assert_eq!(g.segments_for_len(0), 1);
    }

    #[test]
    fn min_overhead_reached_at_full_segments() {
        let g = Geometry::new(4096, 1).unwrap();
        let n = 125u64 * 4096 * 10; // ten full segments
        let ratio = g.overhead(n) as f64 / n as f64;
        assert!((ratio - g.min_overhead_ratio()).abs() < 1e-12);
    }

    #[test]
    fn small_files_pay_relatively_more() {
        // §2.3: "this pre-allocation of space magnifies the space overhead of
        // our solution in very small files".
        let g = Geometry::default();
        let small = g.overhead(100) as f64 / 100.0;
        let large = g.overhead(100 * 1024 * 1024) as f64 / (100.0 * 1024.0 * 1024.0);
        assert!(small > large * 100.0);
    }

    #[test]
    fn locate_block_layout() {
        let g = Geometry::new(4096, 8).unwrap();
        // First data block sits right after the first metadata block.
        let loc = g.locate_block(0);
        assert_eq!(loc.segment, 0);
        assert_eq!(loc.slot, 0);
        assert_eq!(loc.physical_block, 1);
        assert_eq!(loc.physical_offset, 4096);

        // Last block of segment 0.
        let loc = g.locate_block(117);
        assert_eq!(loc.segment, 0);
        assert_eq!(loc.slot, 117);
        assert_eq!(loc.physical_block, 118);

        // First block of segment 1 skips that segment's metadata block.
        let loc = g.locate_block(118);
        assert_eq!(loc.segment, 1);
        assert_eq!(loc.slot, 0);
        assert_eq!(loc.physical_block, 120);
        assert_eq!(g.metadata_block_offset(1), 119 * 4096);
    }

    #[test]
    fn block_spans_cover_range_exactly() {
        let g = Geometry::default();
        let spans: Vec<_> = g.block_spans(4000, 5000).collect();
        // Starts mid-block 0, covers block 1 fully, ends early in block 2.
        assert_eq!(spans, vec![(0, 4000, 96), (1, 0, 4096), (2, 0, 808)]);
        let total: usize = spans.iter().map(|s| s.2).sum();
        assert_eq!(total, 5000);
    }

    #[test]
    fn block_spans_empty_range() {
        let g = Geometry::default();
        assert_eq!(g.block_spans(123, 0).count(), 0);
    }

    #[test]
    fn block_spans_saturate_at_the_end_of_the_offset_space() {
        let g = Geometry::default();
        let spans: Vec<_> = g.block_spans(u64::MAX - 10, 100).collect();
        assert_eq!(spans, vec![(u64::MAX / 4096, 4085, 10)]);
    }

    #[test]
    fn data_fraction_decreases_with_r() {
        // Figure 11: storage efficiency (share of data blocks) falls as R
        // grows.
        let mut prev = 1.0f64;
        for r in [1usize, 2, 8, 32, 48, 52, 56, 60] {
            let g = Geometry::new(4096, r).unwrap();
            let frac = g.data_block_fraction();
            assert!(frac < prev, "R={r}: {frac} not < {prev}");
            prev = frac;
        }
    }

    #[test]
    fn alternative_block_sizes() {
        // §2.3: "the chosen block size is easily variable".
        for bs in [512usize, 1024, 8192, 65536] {
            let g = Geometry::new(bs, 4).unwrap();
            assert_eq!(
                g.keys_per_metadata_block(),
                (bs - HEADER_SIZE - 4 * TRANSIENT_ENTRY_SIZE) / KEY_SLOT_SIZE
            );
            let loc = g.locate_block(g.keys_per_metadata_block() as u64);
            assert_eq!(loc.segment, 1);
        }
    }
}
