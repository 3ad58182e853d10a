//! The maintenance calls: crash recovery (§2.4), full verification (§2.5)
//! and partial re-keying of the outer key (§2.2). Each runs under the
//! file's exclusive guard like any write.
//!
//! Recovery forgets which segments the file left open — the media is the
//! truth — and takes every segment it finds mid-update through the resolve
//! transition (`segment` module), writing each one back closed. So a crash
//! while segments are open keeps every new key of them, and a crash inside
//! a commit settles every block to its old or its new contents.
//!
//! Re-keying re-seals every metadata block of every file under the new
//! outer key and then switches the mount to it. It is not atomic across a
//! file's segments: a crash part-way leaves a file sealed under two key
//! generations, which no single key pair opens. That state is outside the
//! recovery model (README, "The write path").

use super::engine::{CryptoCtx, Engine, LamassuFile};
use super::segment::Segment;
use crate::mount::MountEngine;
use crate::{FsError, Result};
use lamassu_crypto::gcm::Aes256Gcm;
use lamassu_format::MetadataBlock;
use lamassu_keymgr::ZoneKeys;
use std::io::IoSlice;

/// Outcome of a crash-recovery scan over one file (paper §2.4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segments whose metadata block was examined.
    pub segments_scanned: u64,
    /// Segments found mid-update and repaired.
    pub segments_repaired: u64,
    /// Blocks whose *new* key matched the on-disk data (the data write made
    /// it to disk before the crash).
    pub blocks_kept_new: u64,
    /// Blocks rolled back to their *previous* key (the crash hit before the
    /// data write).
    pub blocks_restored_old: u64,
    /// Blocks that were brand new and never reached disk; their key slot was
    /// cleared.
    pub blocks_cleared: u64,
}

/// Outcome of a full integrity verification pass (paper §2.5).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Data blocks whose convergent-hash check was run.
    pub data_blocks_checked: u64,
    /// Metadata blocks whose AES-GCM tag was verified.
    pub metadata_blocks_checked: u64,
    /// Segments still marked mid-update (recovery should be run).
    pub mid_update_segments: u64,
    /// Logical block indices that failed the convergent-hash check.
    pub corrupt_data_blocks: Vec<u64>,
    /// Segment indices whose metadata block failed authentication.
    pub corrupt_metadata_blocks: Vec<u64>,
}

impl VerifyReport {
    /// True if no corruption was found.
    pub fn is_clean(&self) -> bool {
        self.corrupt_data_blocks.is_empty() && self.corrupt_metadata_blocks.is_empty()
    }
}

impl Engine {
    /// Scans every segment and resolves each one the media holds
    /// mid-update, using the transient keys (paper §2.4).
    pub(crate) fn recover(&self, file: &mut LamassuFile) -> Result<RecoveryReport> {
        file.meta_cache.lock().clear();
        file.pending.clear();
        file.open.forget();
        let mut report = RecoveryReport::default();
        let physical = self.io.len(&file.name)?;
        file.media_segments = physical.div_ceil(self.geometry.segment_bytes());
        let last_segment = file.media_segments.max(1) - 1;

        for segment in 0..=last_segment {
            let mut mb = self.read_meta(file, segment)?;
            report.segments_scanned += 1;
            if file.open.state(segment, &mb) == Segment::MidUpdate {
                self.resolve(file, segment, &mut mb, physical, &mut report)?;
                self.put_meta(file, segment, mb)?;
            }
        }

        // Reload the authoritative size after repairs.
        file.logical_size = self.with_meta(file, last_segment, |mb| mb.logical_size)?;
        Ok(report)
    }

    /// Verifies every metadata and data block of the file (paper §2.5),
    /// collecting failures rather than stopping at the first one. The flush
    /// closes every open segment first, so a segment reported mid-update is
    /// one the media held so before this mount.
    pub(crate) fn verify(&self, file: &mut LamassuFile) -> Result<VerifyReport> {
        self.flush(file)?;
        file.meta_cache.lock().clear();
        let mut report = VerifyReport::default();
        let data_blocks = self.geometry.data_blocks_for_len(file.logical_size);
        let segments = self.geometry.segments_for_len(file.logical_size);

        for segment in 0..segments {
            match self.with_meta(file, segment, |mb| file.open.state(segment, mb)) {
                Ok(state) => {
                    report.metadata_blocks_checked += 1;
                    report.mid_update_segments += (state != Segment::Closed) as u64;
                }
                Err(FsError::Metadata(_)) => report.corrupt_metadata_blocks.push(segment),
                Err(e) => return Err(e),
            }
        }

        let mut buf = self.blocks.take();
        for block in 0..data_blocks {
            match self.read_block_into(file, block, &mut buf, true) {
                Ok(_) => report.data_blocks_checked += 1,
                Err(FsError::IntegrityViolation { logical_block, .. }) => {
                    report.data_blocks_checked += 1;
                    report.corrupt_data_blocks.push(logical_block);
                }
                Err(FsError::Metadata(_)) => {
                    // Already counted above per segment; skip its blocks.
                }
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }

    /// Re-seals every metadata block of the file under `new_keys.outer` (the
    /// paper's partial re-keying, §2.2). Returns the number of metadata
    /// blocks rewritten. Only [`LamassuFs::rekey_outer_all`] calls it, which
    /// switches the mount to the new keys once every file is done.
    ///
    /// [`LamassuFs::rekey_outer_all`]: crate::LamassuFs::rekey_outer_all
    pub(crate) fn rekey(&self, file: &mut LamassuFile, new_keys: &ZoneKeys) -> Result<u64> {
        self.flush(file)?;
        assert_eq!(
            self.crypto.read().keys.inner,
            new_keys.inner,
            "outer re-keying must not change the inner key; use a full re-encryption instead"
        );
        let gcm = Aes256Gcm::new(&new_keys.outer);
        let segments = self.media_segments(&file.name)?.max(1);
        let mut sealed = self.blocks.take();
        for segment in 0..segments {
            let mb = self.read_meta(file, segment)?;
            self.seal_meta(&gcm, segment, &mb, &mut sealed);
            let offset = self.geometry.metadata_block_offset(segment);
            self.io
                .write_one(&file.name, offset, &[IoSlice::new(&sealed)])?;
        }
        Ok(segments)
    }

    /// Replaces the mount's key pair (after a completed re-keying pass) and
    /// forgets what the read memo verified under the old one.
    pub(crate) fn switch_keys(&self, keys: ZoneKeys) {
        *self.crypto.write() = CryptoCtx::new(keys);
        if let Some(memo) = &self.memo {
            memo.clear();
        }
    }

    /// Reads (and caches) the metadata block for `segment` as an owned
    /// value: the cold-path form of [`Engine::with_meta`] for the recovery
    /// and re-keying sweeps, which hold onto the block.
    fn read_meta(&self, file: &LamassuFile, segment: u64) -> Result<MetadataBlock> {
        self.with_meta(file, segment, |mb| mb.clone())
    }
}
