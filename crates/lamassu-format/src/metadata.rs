//! Metadata blocks: in-memory form, wire format, and GCM sealing.
//!
//! Wire layout of a sealed metadata block (block size `B`, Figure 3 of the
//! paper):
//!
//! ```text
//! offset 0        12   16       32      40      44        48
//!        | nonce  | 0  | GCM tag | size  | flags | reserved | key table | transient | padding |
//!        |  12 B  | 4B |  16 B   |  8 B  |  4 B  |   4 B    |  N x 32 B | R x 34 B  |         |
//!        '--------------- header, 48 B ----------------------'
//! ```
//!
//! Everything from offset 32 to the end of the block (the *secure region*:
//! logical size, flags, reserved field, key table, transient area, padding)
//! is encrypted with AES-256-GCM under the outer key; the 16-byte tag lives
//! at offset 16 and the 12-byte random nonce at offset 0. The paper's
//! Figure 3 lists the logical size and flags as part of the 48-byte header;
//! we keep them at the same offsets but include them in the encrypted region
//! so that a sealed metadata block is indistinguishable from random data, as
//! §2.3 requires ("these encrypted metadata blocks are indistinguishable from
//! random data").
//!
//! The *reserved* field stores the format version (bytes 12..14 of the
//! secure region) and the number of valid transient entries.
//!
//! # Format versions
//!
//! The version says which block hash the segment's data keys were derived
//! with ([`HashVersion`]): v1 is the paper's SHA-256, v2 the tree hash. A
//! file's version is fixed when the file is created, and every metadata
//! block of the file carries it; the layout is the same in both. Parsing a
//! version this build does not know is an error, never a guess.

use crate::geometry::{Geometry, HEADER_SIZE, KEY_SLOT_SIZE, TRANSIENT_ENTRY_SIZE};
use crate::FormatError;
use lamassu_crypto::gcm::{Aes256Gcm, NONCE_LEN, TAG_LEN};
use lamassu_crypto::kdf::HashVersion;
use lamassu_crypto::Key256;

/// Current on-disk format version: what new files are created at (unless
/// their block size rules out the tree hash — [`HashVersion::for_block_size`]).
pub const FORMAT_VERSION: u16 = HashVersion::CURRENT.number();

/// Byte offset of the GCM tag within a sealed metadata block.
const TAG_OFFSET: usize = 16;
/// Byte offset of the secure (encrypted) region within a sealed block.
const SECURE_OFFSET: usize = 32;

/// Per-segment flag bits stored in the metadata-block header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentFlags(u32);

impl SegmentFlags {
    /// Bit set while a multiphase commit is in flight: the key table and the
    /// data blocks of this segment may disagree, and the transient area holds
    /// the previous keys needed for recovery (paper §2.4).
    pub const MID_UPDATE: u32 = 1 << 0;

    /// Creates an empty flag set.
    pub fn empty() -> Self {
        SegmentFlags(0)
    }

    /// Returns the raw bit representation.
    pub fn bits(&self) -> u32 {
        self.0
    }

    /// Reconstructs flags from raw bits.
    pub fn from_bits(bits: u32) -> Self {
        SegmentFlags(bits)
    }

    /// True if the segment is marked as being mid-update.
    pub fn is_mid_update(&self) -> bool {
        self.0 & Self::MID_UPDATE != 0
    }

    /// Sets or clears the mid-update mark.
    pub fn set_mid_update(&mut self, on: bool) {
        if on {
            self.0 |= Self::MID_UPDATE;
        } else {
            self.0 &= !Self::MID_UPDATE;
        }
    }
}

/// One transient-area entry: the *previous* key of a data block that is part
/// of an in-flight commit, together with the block's slot index inside the
/// segment. Recovery uses it to decrypt the block if the crash happened
/// before the new data reached the backing store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransientEntry {
    /// Index of the data block within its segment (0-based key-table slot).
    pub slot: u16,
    /// The key that was current before the in-flight update began.
    pub old_key: Key256,
}

/// Decrypted, in-memory form of one segment's metadata block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetadataBlock {
    /// The file's format version: which block hash its data keys are
    /// derived with.
    pub version: HashVersion,
    /// Logical (unpadded) size of the whole file in bytes. Only the value in
    /// the *final* segment's metadata block is authoritative (paper §2.3).
    pub logical_size: u64,
    /// Per-segment flags.
    pub flags: SegmentFlags,
    /// Convergent key for each data block of this segment; `None` for slots
    /// that have never been written.
    key_table: Vec<Option<Key256>>,
    /// In-flight commit bookkeeping, at most `R` entries.
    transient: Vec<TransientEntry>,
}

impl MetadataBlock {
    /// Creates an empty metadata block for the given geometry, at the
    /// version a new file of that geometry is created at.
    pub fn new(geometry: &Geometry) -> Self {
        MetadataBlock {
            version: HashVersion::for_block_size(geometry.block_size()),
            logical_size: 0,
            flags: SegmentFlags::empty(),
            key_table: vec![None; geometry.keys_per_metadata_block()],
            transient: Vec::new(),
        }
    }

    /// Number of key-table slots.
    pub fn slots(&self) -> usize {
        self.key_table.len()
    }

    /// Returns the key stored in `slot`, if any.
    pub fn key(&self, slot: usize) -> Option<&Key256> {
        self.key_table.get(slot).and_then(|k| k.as_ref())
    }

    /// Installs `key` into `slot`.
    pub fn set_key(&mut self, slot: usize, key: Key256) -> crate::Result<()> {
        let limit = self.key_table.len();
        match self.key_table.get_mut(slot) {
            Some(entry) => {
                *entry = Some(key);
                Ok(())
            }
            None => Err(FormatError::SlotOutOfRange { slot, limit }),
        }
    }

    /// Clears `slot` (used when a file is truncated).
    pub fn clear_key(&mut self, slot: usize) -> crate::Result<()> {
        let limit = self.key_table.len();
        match self.key_table.get_mut(slot) {
            Some(entry) => {
                *entry = None;
                Ok(())
            }
            None => Err(FormatError::SlotOutOfRange { slot, limit }),
        }
    }

    /// Number of populated key slots.
    pub fn populated_slots(&self) -> usize {
        self.key_table.iter().filter(|k| k.is_some()).count()
    }

    /// The transient (in-flight commit) entries.
    pub fn transient(&self) -> &[TransientEntry] {
        &self.transient
    }

    /// Appends a transient entry, failing if the reserved area is full for
    /// the given geometry.
    pub fn push_transient(
        &mut self,
        geometry: &Geometry,
        entry: TransientEntry,
    ) -> crate::Result<()> {
        if self.transient.len() >= geometry.reserved_slots() {
            return Err(FormatError::TransientAreaFull {
                reserved_slots: geometry.reserved_slots(),
            });
        }
        self.transient.push(entry);
        Ok(())
    }

    /// Clears the transient area (commit completed).
    pub fn clear_transient(&mut self) {
        self.transient.clear();
    }

    /// Serializes the secure region (everything after the nonce and tag)
    /// into `out`, which must be exactly `block_size - 32` bytes.
    fn serialize_secure_region_into(&self, geometry: &Geometry, out: &mut [u8]) {
        debug_assert_eq!(out.len(), geometry.block_size() - SECURE_OFFSET);
        out.fill(0);
        out[0..8].copy_from_slice(&self.logical_size.to_le_bytes());
        out[8..12].copy_from_slice(&self.flags.bits().to_le_bytes());
        out[12..14].copy_from_slice(&self.version.number().to_le_bytes());
        out[14..16].copy_from_slice(&(self.transient.len() as u16).to_le_bytes());

        let table_base = HEADER_SIZE - SECURE_OFFSET;
        for (i, key) in self.key_table.iter().enumerate() {
            let off = table_base + i * KEY_SLOT_SIZE;
            if let Some(k) = key {
                out[off..off + KEY_SLOT_SIZE].copy_from_slice(k);
            }
        }

        let transient_base = table_base + self.key_table.len() * KEY_SLOT_SIZE;
        for (i, entry) in self.transient.iter().enumerate() {
            let off = transient_base + i * TRANSIENT_ENTRY_SIZE;
            out[off..off + 2].copy_from_slice(&entry.slot.to_le_bytes());
            out[off + 2..off + 2 + KEY_SLOT_SIZE].copy_from_slice(&entry.old_key);
        }
    }

    /// Parses the secure region back into a metadata block.
    ///
    /// A key slot whose 32 bytes are all zero is treated as unpopulated: a
    /// genuine convergent key is the AES encryption of a SHA-256 digest and
    /// is all-zero only with negligible probability.
    fn parse_secure_region(region: &[u8], geometry: &Geometry) -> crate::Result<Self> {
        let want = geometry.block_size() - SECURE_OFFSET;
        if region.len() != want {
            return Err(FormatError::BadMetadataLength {
                got: region.len(),
                want,
            });
        }
        let logical_size = u64::from_le_bytes(region[0..8].try_into().expect("8-byte slice"));
        let flags = SegmentFlags::from_bits(u32::from_le_bytes(
            region[8..12].try_into().expect("4-byte slice"),
        ));
        let number = u16::from_le_bytes(region[12..14].try_into().expect("2-byte slice"));
        let version =
            HashVersion::from_number(number).ok_or(FormatError::UnknownVersion { number })?;
        let transient_count =
            u16::from_le_bytes(region[14..16].try_into().expect("2-byte slice")) as usize;
        let transient_count = transient_count.min(geometry.reserved_slots());

        let n = geometry.keys_per_metadata_block();
        let table_base = HEADER_SIZE - SECURE_OFFSET;
        let mut key_table = Vec::with_capacity(n);
        for i in 0..n {
            let off = table_base + i * KEY_SLOT_SIZE;
            let slot: Key256 = region[off..off + KEY_SLOT_SIZE]
                .try_into()
                .expect("32-byte slice");
            if slot == [0u8; 32] {
                key_table.push(None);
            } else {
                key_table.push(Some(slot));
            }
        }

        let transient_base = table_base + n * KEY_SLOT_SIZE;
        let mut transient = Vec::with_capacity(transient_count);
        for i in 0..transient_count {
            let off = transient_base + i * TRANSIENT_ENTRY_SIZE;
            let slot = u16::from_le_bytes(region[off..off + 2].try_into().expect("2-byte slice"));
            let old_key: Key256 = region[off + 2..off + 2 + KEY_SLOT_SIZE]
                .try_into()
                .expect("32-byte slice");
            transient.push(TransientEntry { slot, old_key });
        }

        Ok(MetadataBlock {
            version,
            logical_size,
            flags,
            key_table,
            transient,
        })
    }

    /// Seals the metadata block into its on-disk form: nonce ‖ tag ‖
    /// GCM-encrypted secure region, exactly `block_size` bytes.
    ///
    /// `aad` binds the sealed block to its context (object identity and
    /// segment index) so metadata blocks cannot be transplanted between
    /// segments or files without detection.
    pub fn seal(
        &self,
        geometry: &Geometry,
        gcm: &Aes256Gcm,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
    ) -> Vec<u8> {
        let mut out = vec![0u8; geometry.block_size()];
        self.seal_into(geometry, gcm, nonce, aad, &mut out);
        out
    }

    /// Seals the metadata block into caller-provided storage of exactly
    /// `block_size` bytes — the allocation-free form of
    /// [`MetadataBlock::seal`] used by the zero-allocation commit path
    /// (serialization, encryption and tag placement all happen in `out`).
    pub fn seal_into(
        &self,
        geometry: &Geometry,
        gcm: &Aes256Gcm,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        out: &mut [u8],
    ) {
        assert_eq!(out.len(), geometry.block_size(), "one whole block");
        let (header, region) = out.split_at_mut(SECURE_OFFSET);
        self.serialize_secure_region_into(geometry, region);
        let tag = gcm.encrypt_in_place(nonce, aad, region);
        header.fill(0);
        header[..NONCE_LEN].copy_from_slice(nonce);
        header[TAG_OFFSET..TAG_OFFSET + TAG_LEN].copy_from_slice(&tag);
    }

    /// Unseals an on-disk metadata block: verifies the GCM tag (and `aad`)
    /// and parses the secure region.
    pub fn unseal(
        geometry: &Geometry,
        gcm: &Aes256Gcm,
        aad: &[u8],
        sealed: &[u8],
    ) -> crate::Result<Self> {
        if sealed.len() != geometry.block_size() {
            return Err(FormatError::BadMetadataLength {
                got: sealed.len(),
                want: geometry.block_size(),
            });
        }
        // The four pad bytes between the nonce and the tag are not covered by
        // GCM; insist they are zero so every byte of the sealed block is
        // integrity-checked one way or another.
        if sealed[NONCE_LEN..TAG_OFFSET] != [0u8; TAG_OFFSET - NONCE_LEN] {
            return Err(FormatError::MetadataAuthFailure);
        }
        let nonce: [u8; NONCE_LEN] = sealed[..NONCE_LEN].try_into().expect("12-byte slice");
        let tag: [u8; TAG_LEN] = sealed[TAG_OFFSET..TAG_OFFSET + TAG_LEN]
            .try_into()
            .expect("16-byte slice");
        let mut region = sealed[SECURE_OFFSET..].to_vec();
        gcm.decrypt_in_place(&nonce, aad, &mut region, &tag)
            .map_err(|_| FormatError::MetadataAuthFailure)?;
        Self::parse_secure_region(&region, geometry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gcm() -> Aes256Gcm {
        Aes256Gcm::new(&[0x42u8; 32])
    }

    fn sample_block(geometry: &Geometry) -> MetadataBlock {
        let mut mb = MetadataBlock::new(geometry);
        mb.logical_size = 123_456_789;
        mb.flags.set_mid_update(true);
        mb.set_key(0, [0x11u8; 32]).unwrap();
        mb.set_key(5, [0x22u8; 32]).unwrap();
        mb.set_key(geometry.keys_per_metadata_block() - 1, [0x33u8; 32])
            .unwrap();
        mb.push_transient(
            geometry,
            TransientEntry {
                slot: 5,
                old_key: [0x44u8; 32],
            },
        )
        .unwrap();
        mb
    }

    #[test]
    fn seal_produces_exact_block_size() {
        let g = Geometry::default();
        let mb = MetadataBlock::new(&g);
        let sealed = mb.seal(&g, &gcm(), &[1u8; 12], b"aad");
        assert_eq!(sealed.len(), g.block_size());
    }

    #[test]
    fn seal_unseal_round_trip() {
        let g = Geometry::default();
        let mb = sample_block(&g);
        let sealed = mb.seal(&g, &gcm(), &[7u8; 12], b"obj:3");
        let back = MetadataBlock::unseal(&g, &gcm(), b"obj:3", &sealed).unwrap();
        assert_eq!(back, mb);
    }

    #[test]
    fn round_trip_various_geometries() {
        for (bs, r) in [
            (512usize, 1usize),
            (4096, 1),
            (4096, 8),
            (4096, 60),
            (8192, 32),
        ] {
            let g = Geometry::new(bs, r).unwrap();
            let mut mb = MetadataBlock::new(&g);
            mb.logical_size = 42;
            for slot in 0..g.keys_per_metadata_block() {
                mb.set_key(slot, [(slot % 255 + 1) as u8; 32]).unwrap();
            }
            for i in 0..r {
                mb.push_transient(
                    &g,
                    TransientEntry {
                        slot: i as u16,
                        old_key: [0xeeu8; 32],
                    },
                )
                .unwrap();
            }
            let sealed = mb.seal(&g, &gcm(), &[9u8; 12], b"x");
            assert_eq!(sealed.len(), bs);
            let back = MetadataBlock::unseal(&g, &gcm(), b"x", &sealed).unwrap();
            assert_eq!(back, mb, "bs={bs} r={r}");
        }
    }

    #[test]
    fn unseal_rejects_wrong_key() {
        let g = Geometry::default();
        let mb = sample_block(&g);
        let sealed = mb.seal(&g, &gcm(), &[7u8; 12], b"aad");
        let other = Aes256Gcm::new(&[0x43u8; 32]);
        assert_eq!(
            MetadataBlock::unseal(&g, &other, b"aad", &sealed),
            Err(FormatError::MetadataAuthFailure)
        );
    }

    #[test]
    fn unseal_rejects_wrong_aad() {
        let g = Geometry::default();
        let mb = sample_block(&g);
        let sealed = mb.seal(&g, &gcm(), &[7u8; 12], b"obj:1:seg:0");
        assert_eq!(
            MetadataBlock::unseal(&g, &gcm(), b"obj:1:seg:1", &sealed),
            Err(FormatError::MetadataAuthFailure)
        );
    }

    #[test]
    fn unseal_rejects_corruption_anywhere() {
        let g = Geometry::default();
        let mb = sample_block(&g);
        let sealed = mb.seal(&g, &gcm(), &[7u8; 12], b"aad");
        for pos in [0usize, 13, 16, 31, 40, 2048, 4095] {
            let mut bad = sealed.clone();
            bad[pos] ^= 0x80;
            assert!(
                MetadataBlock::unseal(&g, &gcm(), b"aad", &bad).is_err(),
                "corruption at byte {pos} must be detected"
            );
        }
    }

    #[test]
    fn version_is_stored_and_read_back() {
        let g = Geometry::default();
        let mut mb = sample_block(&g);
        assert_eq!(mb.version, HashVersion::V2);
        assert_eq!(FORMAT_VERSION, 2);
        mb.version = HashVersion::V1;
        let sealed = mb.seal(&g, &gcm(), &[7u8; 12], b"aad");
        let back = MetadataBlock::unseal(&g, &gcm(), b"aad", &sealed).unwrap();
        assert_eq!(back.version, HashVersion::V1);
        // A block size the tree hash cannot quarter starts on v1.
        let odd = Geometry::new(528, 1).unwrap();
        assert_eq!(MetadataBlock::new(&odd).version, HashVersion::V1);
    }

    /// Re-seals `sealed` (same nonce, same key) with bytes 12..14 of its
    /// secure region — the version — replaced: a block only a holder of
    /// the outer key can produce.
    fn with_version_number(sealed: &[u8], aad: &[u8], number: u16) -> Vec<u8> {
        let nonce: [u8; NONCE_LEN] = sealed[..NONCE_LEN].try_into().unwrap();
        let tag: [u8; TAG_LEN] = sealed[TAG_OFFSET..SECURE_OFFSET].try_into().unwrap();
        let mut region = sealed[SECURE_OFFSET..].to_vec();
        gcm()
            .decrypt_in_place(&nonce, aad, &mut region, &tag)
            .unwrap();
        region[12..14].copy_from_slice(&number.to_le_bytes());
        let tag = gcm().encrypt_in_place(&nonce, aad, &mut region);
        let mut out = sealed.to_vec();
        out[TAG_OFFSET..SECURE_OFFSET].copy_from_slice(&tag);
        out[SECURE_OFFSET..].copy_from_slice(&region);
        out
    }

    #[test]
    fn unknown_version_is_an_error() {
        let g = Geometry::default();
        let sealed = sample_block(&g).seal(&g, &gcm(), &[7u8; 12], b"aad");
        let v1 = with_version_number(&sealed, b"aad", 1);
        assert_eq!(
            MetadataBlock::unseal(&g, &gcm(), b"aad", &v1)
                .unwrap()
                .version,
            HashVersion::V1
        );
        for number in [0u16, 3, 0xffff] {
            let doctored = with_version_number(&sealed, b"aad", number);
            assert_eq!(
                MetadataBlock::unseal(&g, &gcm(), b"aad", &doctored),
                Err(FormatError::UnknownVersion { number })
            );
        }
    }

    #[test]
    fn unseal_rejects_wrong_length() {
        let g = Geometry::default();
        assert!(matches!(
            MetadataBlock::unseal(&g, &gcm(), b"", &[0u8; 100]),
            Err(FormatError::BadMetadataLength { got: 100, .. })
        ));
    }

    #[test]
    fn sealed_blocks_are_randomized() {
        // §2.2: metadata encryption is seeded with a random IV "like
        // conventional encryption systems", so identical metadata never
        // produces identical ciphertext — metadata blocks never deduplicate.
        let g = Geometry::default();
        let mb = sample_block(&g);
        let a = mb.seal(&g, &gcm(), &[1u8; 12], b"aad");
        let b = mb.seal(&g, &gcm(), &[2u8; 12], b"aad");
        assert_ne!(a, b);
    }

    #[test]
    fn slot_bounds_checked() {
        let g = Geometry::default();
        let mut mb = MetadataBlock::new(&g);
        let n = g.keys_per_metadata_block();
        assert!(matches!(
            mb.set_key(n, [1u8; 32]),
            Err(FormatError::SlotOutOfRange { slot, limit }) if slot == n && limit == n
        ));
        assert!(mb.clear_key(n + 5).is_err());
        assert!(mb.set_key(n - 1, [1u8; 32]).is_ok());
    }

    #[test]
    fn transient_area_capacity_enforced() {
        let g = Geometry::new(4096, 2).unwrap();
        let mut mb = MetadataBlock::new(&g);
        let e = TransientEntry {
            slot: 0,
            old_key: [1u8; 32],
        };
        mb.push_transient(&g, e).unwrap();
        mb.push_transient(&g, e).unwrap();
        assert_eq!(
            mb.push_transient(&g, e),
            Err(FormatError::TransientAreaFull { reserved_slots: 2 })
        );
        mb.clear_transient();
        assert!(mb.push_transient(&g, e).is_ok());
    }

    #[test]
    fn populated_slot_accounting() {
        let g = Geometry::default();
        let mut mb = MetadataBlock::new(&g);
        assert_eq!(mb.populated_slots(), 0);
        mb.set_key(3, [9u8; 32]).unwrap();
        mb.set_key(4, [9u8; 32]).unwrap();
        assert_eq!(mb.populated_slots(), 2);
        mb.clear_key(3).unwrap();
        assert_eq!(mb.populated_slots(), 1);
        assert!(mb.key(3).is_none());
        assert_eq!(mb.key(4), Some(&[9u8; 32]));
    }

    #[test]
    fn flags_round_trip_bits() {
        let mut f = SegmentFlags::empty();
        assert!(!f.is_mid_update());
        f.set_mid_update(true);
        assert!(f.is_mid_update());
        let g = SegmentFlags::from_bits(f.bits());
        assert!(g.is_mid_update());
        f.set_mid_update(false);
        assert!(!f.is_mid_update());
    }
}
