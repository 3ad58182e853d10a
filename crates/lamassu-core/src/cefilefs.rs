//! Per-file (whole-file) convergent encryption baseline.
//!
//! The paper's related-work discussion (§5.2) contrasts Lamassu's per-block
//! convergent encryption with Tahoe-LAFS, whose "convergent encryption works
//! on a per-file basis, limiting the storage efficiency compared with
//! Lamassu's per-block approach". This module implements that baseline so the
//! claim can be measured (see the `ablation_per_file_ce` bench): the whole
//! file is hashed, a single convergent key is derived from the file hash and
//! the inner key, and the entire body is encrypted under that key with a
//! fixed IV.
//!
//! Consequences, by construction:
//!
//! * two *identical* files converge to identical ciphertext and deduplicate
//!   perfectly (same as Lamassu);
//! * any modification — even one byte — changes the file hash, re-keys the
//!   whole file and turns every ciphertext block over, so nothing
//!   deduplicates across versions or across partially similar files;
//! * every write requires re-reading and re-encrypting the whole file, so
//!   random-write performance degrades with file size.
//!
//! The on-disk layout is one header block (sealed with AES-256-GCM under the
//! outer key, holding the convergent file key and the logical size) followed
//! by the CBC-encrypted body, padded to whole blocks.

use crate::iovec;
use crate::mount::{Mount, MountEngine, MountFile};
use crate::pool::BlockPool;
use crate::profiler::{Category, Profiler};
use crate::span::{SpanConfig, SpanPolicy};
use crate::spanio::SpanIo;
use crate::{FsError, Result};
use lamassu_crypto::aes::Aes256;
use lamassu_crypto::batch::SpanCipher;
use lamassu_crypto::gcm::{Aes256Gcm, NONCE_LEN, TAG_LEN};
use lamassu_crypto::kdf::{ConvergentKdf, HashVersion};
use lamassu_crypto::pool::CryptoPool;
use lamassu_crypto::{batch, cbc};
use lamassu_crypto::{fixsliced, stats, CryptoBackend};
use lamassu_crypto::{Key256, FIXED_IV};
use lamassu_keymgr::ZoneKeys;
use lamassu_storage::ObjectStore;
use rand::RngCore;
use std::io::{IoSlice, IoSliceMut};
use std::sync::Arc;

/// Magic bytes identifying a per-file-CE header.
const MAGIC: &[u8; 8] = b"CEFILEv1";

/// Per-file state of the whole-file convergent engine.
pub struct CeFile {
    /// The object name this state currently refers to.
    name: String,
    /// Decrypted file contents, kept in memory while the file is open (the
    /// whole file must be re-encrypted on every flush anyway).
    data: Vec<u8>,
    dirty: bool,
}

impl MountFile for CeFile {
    fn logical_size(&self) -> u64 {
        self.data.len() as u64
    }

    fn renamed(&mut self, to: &str) {
        self.name = to.to_string();
    }
}

/// Idle header blocks the auto-sized CeFileFS pool keeps (one per
/// concurrently loading/storing file is plenty).
const CE_POOL_BLOCKS: usize = 8;

/// Whole-file convergent encryption (Tahoe-LAFS-style) baseline: the
/// [`Mount`] scaffold over the [`CeEngine`].
pub type CeFileFs = Mount<CeEngine>;

/// The whole-file convergent engine: one sealed header block plus the body,
/// held decrypted in memory while open. Opaque outside the crate; used
/// through [`CeFileFs`].
pub struct CeEngine {
    io: SpanIo,
    block_size: usize,
    span: SpanConfig,
    /// The mount's shared crypto worker pool (see [`crate::span`]).
    pool: CryptoPool,
    /// Recycled header-block staging (see [`crate::pool`]); the variable
    /// sized file bodies stay ordinary vectors.
    blocks: BlockPool,
    kdf: ConvergentKdf,
    gcm: Aes256Gcm,
    profiler: Arc<Profiler>,
}

impl Mount<CeEngine> {
    /// Mounts a per-file-CE file system over `store` with the zone's keys
    /// and the default span configuration.
    pub fn new(store: Arc<dyn ObjectStore>, keys: ZoneKeys, block_size: usize) -> Self {
        Self::with_config(store, keys, block_size, SpanConfig::default())
    }

    /// Mounts a per-file-CE file system with an explicit span configuration.
    pub fn with_config(
        store: Arc<dyn ObjectStore>,
        keys: ZoneKeys,
        block_size: usize,
        span: SpanConfig,
    ) -> Self {
        Self::with_profiler(store, keys, block_size, span, Profiler::new())
    }

    /// [`CeFileFs::with_config`] charging its time to `profiler` — the one
    /// the tiers below the shim were built with (see `lamassu::stack`).
    pub fn with_profiler(
        store: Arc<dyn ObjectStore>,
        keys: ZoneKeys,
        block_size: usize,
        span: SpanConfig,
        profiler: Arc<Profiler>,
    ) -> Self {
        assert!(block_size >= 64 && block_size.is_multiple_of(16));
        let blocks = BlockPool::new(block_size, span.pool_capacity(CE_POOL_BLOCKS));
        profiler.attach_pool(&blocks);
        Mount::over(CeEngine {
            io: SpanIo::new(store, profiler.clone(), span.io),
            block_size,
            span,
            pool: span.pool(),
            blocks,
            // The file key is `F(SHA-256(whole file))`: the tree hash is
            // defined on blocks, so this format stays on v1's `H`.
            kdf: ConvergentKdf::with_version(&keys.inner, HashVersion::V1),
            gcm: Aes256Gcm::with_backend(&keys.outer, span.crypto),
            profiler,
        })
    }

    /// Counters of the mount's recycled header-block pool.
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        self.engine().blocks.stats()
    }
}

impl CeEngine {
    /// Loads and decrypts the whole body from the store. Under the batched
    /// span policy the header and body arrive in one vectored backend read
    /// and the body's CBC chain decrypts in parallel chunks; the per-block
    /// fallback keeps the original two sequential reads and serial decrypt.
    fn load_body(&self, path: &str) -> Result<Vec<u8>> {
        let physical = self.io.call(|s| s.len(path))?;
        if physical == 0 {
            return Ok(Vec::new());
        }
        let body_len = (physical as usize).saturating_sub(self.block_size);
        let batched = self.span.policy == SpanPolicy::Batched;
        let mut header = self.blocks.take();
        let mut body = if batched {
            // Header and body are physically contiguous: one round trip,
            // header staged through a pooled block.
            let mut body = vec![0u8; body_len];
            let bufs = &mut [IoSliceMut::new(&mut header), IoSliceMut::new(&mut body)];
            let n = self.io.read_one(path, 0, bufs)?;
            if n < self.block_size {
                // Too short to even hold a header: not a CeFile object.
                return Err(FsError::Metadata(
                    lamassu_format::FormatError::MetadataAuthFailure,
                ));
            }
            body
        } else {
            let n = self.io.call(|s| s.read_into(path, 0, &mut header))?;
            if n < self.block_size {
                return Err(FsError::Metadata(
                    lamassu_format::FormatError::MetadataAuthFailure,
                ));
            }
            if body_len > 0 {
                self.io
                    .call(|s| s.read_at(path, self.block_size as u64, body_len))?
            } else {
                Vec::new()
            }
        };
        // Header: nonce(12) | tag(16) | sealed[ magic(8) | size(8) | key(32) ].
        let nonce: [u8; NONCE_LEN] = header[..NONCE_LEN].try_into().expect("12 bytes");
        let tag: [u8; TAG_LEN] = header[NONCE_LEN..NONCE_LEN + TAG_LEN]
            .try_into()
            .expect("16 bytes");
        let mut sealed = header[NONCE_LEN + TAG_LEN..NONCE_LEN + TAG_LEN + 48].to_vec();
        self.profiler.time(Category::Decrypt, || {
            self.gcm
                .decrypt_in_place(&nonce, b"cefile-header", &mut sealed, &tag)
        })?;
        if &sealed[..8] != MAGIC {
            return Err(FsError::Metadata(
                lamassu_format::FormatError::MetadataAuthFailure,
            ));
        }
        let logical = u64::from_le_bytes(sealed[8..16].try_into().expect("8 bytes")) as usize;
        let file_key: Key256 = sealed[16..48].try_into().expect("32 bytes");

        self.profiler.time(Category::Decrypt, || {
            if batched {
                let cipher = SpanCipher::new(&file_key);
                batch::cbc_decrypt_parallel(
                    &self.pool,
                    &cipher,
                    &FIXED_IV,
                    &mut body,
                    self.span.crypto,
                )
            } else if self.span.crypto == CryptoBackend::Fixsliced {
                stats::count_wide_blocks(body.len() / 16);
                fixsliced::cbc_decrypt(&fixsliced::Aes256Fix::new(&file_key), &FIXED_IV, &mut body);
                Ok(())
            } else {
                stats::count_scalar_blocks(body.len() / 16);
                cbc::decrypt_in_place(&Aes256::new(&file_key), &FIXED_IV, &mut body)
            }
        })?;
        body.truncate(logical);

        // The §2.5-style self-check at file granularity: the file key must
        // re-derive from the decrypted contents.
        let expected = self
            .profiler
            .time(Category::GetCeKey, || self.derive_file_key(&body));
        if expected != file_key {
            return Err(FsError::IntegrityViolation {
                path: path.to_string(),
                logical_block: 0,
            });
        }
        Ok(body)
    }

    /// Derives the whole-file convergent key on the mount's backend (the
    /// keying step runs through the constant-time cipher under
    /// [`CryptoBackend::Fixsliced`]).
    fn derive_file_key(&self, data: &[u8]) -> Key256 {
        stats::count_scalar_derives(1);
        match self.span.crypto {
            CryptoBackend::Fixsliced => self.kdf.derive_for_block_ct(data),
            CryptoBackend::TTable => self.kdf.derive_for_block(data),
        }
    }

    /// Encrypts and writes the whole file back to the store.
    fn store_file(&self, state: &mut CeFile) -> Result<()> {
        let path = state.name.as_str();
        let file_key = self
            .profiler
            .time(Category::GetCeKey, || self.derive_file_key(&state.data));

        let mut body = state.data.clone();
        let padded = body.len().div_ceil(self.block_size) * self.block_size;
        body.resize(padded, 0);
        self.profiler.time(Category::Encrypt, || {
            // Whole-file CBC encryption is one strict chain — below the wide
            // kernel's amortization width at any file size — so it stays on
            // the T-table path under either backend.
            stats::count_scalar_blocks(body.len() / 16);
            cbc::encrypt_in_place(&Aes256::new(&file_key), &FIXED_IV, &mut body)
        })?;

        let mut sealed = Vec::with_capacity(48);
        sealed.extend_from_slice(MAGIC);
        sealed.extend_from_slice(&(state.data.len() as u64).to_le_bytes());
        sealed.extend_from_slice(&file_key);
        let mut nonce = [0u8; NONCE_LEN];
        rand::thread_rng().fill_bytes(&mut nonce);
        let tag = self.profiler.time(Category::Encrypt, || {
            self.gcm
                .encrypt_in_place(&nonce, b"cefile-header", &mut sealed)
        });
        // Pooled header staging: zeroed because the padding past the sealed
        // region is part of the on-disk format.
        let mut header = self.blocks.take_zeroed();
        header[..NONCE_LEN].copy_from_slice(&nonce);
        header[NONCE_LEN..NONCE_LEN + TAG_LEN].copy_from_slice(&tag);
        header[NONCE_LEN + TAG_LEN..NONCE_LEN + TAG_LEN + 48].copy_from_slice(&sealed);

        self.io.call(|s| s.truncate(path, 0))?;
        if self.span.policy == SpanPolicy::Batched && !body.is_empty() {
            // Header and body land in one vectored backend write.
            let bufs = &[IoSlice::new(&header), IoSlice::new(&body)];
            self.io.write_one(path, 0, bufs)?;
        } else {
            self.io.call(|s| s.write_at(path, 0, &header))?;
            if !body.is_empty() {
                self.io
                    .call(|s| s.write_at(path, self.block_size as u64, &body))?;
            }
        }
        state.dirty = false;
        Ok(())
    }
}

impl MountEngine for CeEngine {
    type File = CeFile;

    fn io(&self) -> &SpanIo {
        &self.io
    }

    /// A new file is an empty body under a sealed header.
    fn create(&self, path: &str) -> Result<CeFile> {
        let mut state = CeFile {
            name: path.to_string(),
            data: Vec::new(),
            dirty: true,
        };
        self.flush(&mut state)?;
        Ok(state)
    }

    fn load(&self, path: &str) -> Result<CeFile> {
        Ok(CeFile {
            name: path.to_string(),
            data: self.load_body(path)?,
            dirty: false,
        })
    }

    /// Reads are pure in-memory copies under the shared guard, so any number
    /// of readers proceed in parallel.
    fn read(&self, st: &CeFile, offset: u64, buf: &mut [u8]) -> Result<()> {
        let offset = offset as usize;
        buf.copy_from_slice(&st.data[offset..offset + buf.len()]);
        Ok(())
    }

    fn write(&self, st: &mut CeFile, offset: u64, bufs: &[IoSlice<'_>]) -> Result<()> {
        let end = offset as usize + iovec::total_len(bufs);
        if end > st.data.len() {
            st.data.resize(end, 0);
        }
        iovec::gather(bufs, 0, &mut st.data[offset as usize..end]);
        st.dirty = true;
        Ok(())
    }

    fn truncate(&self, st: &mut CeFile, size: u64) -> Result<()> {
        st.data.resize(size as usize, 0);
        st.dirty = true;
        Ok(())
    }

    fn flush(&self, st: &mut CeFile) -> Result<()> {
        if st.dirty {
            self.store_file(st)?;
        }
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "CeFileFS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{FileSystem, OpenFlags};
    use lamassu_storage::{DedupStore, StorageProfile};

    fn keys(inner: u8) -> ZoneKeys {
        ZoneKeys {
            zone: 1,
            generation: 0,
            inner: [inner; 32],
            outer: [0x44; 32],
        }
    }

    fn mount() -> (Arc<DedupStore>, CeFileFs) {
        let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        let fs = CeFileFs::new(store.clone(), keys(1), 4096);
        (store, fs)
    }

    #[test]
    fn write_read_round_trip_and_remount() {
        let (store, fs) = mount();
        let data: Vec<u8> = (0..30_000u32).map(|i| (i % 251) as u8).collect();
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, &data).unwrap();
        fs.close(fd).unwrap();

        let fs2 = CeFileFs::new(store, keys(1), 4096);
        let fd = fs2.open("/f", OpenFlags::default()).unwrap();
        assert_eq!(fs2.read(fd, 0, data.len()).unwrap(), data);
        assert_eq!(fs2.len(fd).unwrap(), data.len() as u64);
    }

    #[test]
    fn identical_files_converge_and_deduplicate() {
        let (store, fs) = mount();
        let data = vec![0x5au8; 40_000];
        for path in ["/a", "/b"] {
            let fd = fs.create(path).unwrap();
            fs.write(fd, 0, &data).unwrap();
            fs.close(fd).unwrap();
        }
        let report = store.run_dedup();
        // The two bodies are identical ciphertext; only the (randomized)
        // headers and one body copy remain unique.
        let body_blocks = (40_000u64).div_ceil(4096);
        assert_eq!(report.unique_blocks, body_blocks + 2);
    }

    #[test]
    fn small_modification_destroys_cross_version_dedup() {
        // The property the paper's §5.2 comparison hinges on: after changing
        // one byte, a whole-file-CE system shares nothing with the previous
        // version, while Lamassu would re-encrypt only one block.
        let (store, fs) = mount();
        let data = vec![0x77u8; 40 * 4096];
        let fd = fs.create("/v1").unwrap();
        fs.write(fd, 0, &data).unwrap();
        fs.close(fd).unwrap();

        let mut modified = data.clone();
        modified[12_345] ^= 0xff;
        let fd = fs.create("/v2").unwrap();
        fs.write(fd, 0, &modified).unwrap();
        fs.close(fd).unwrap();

        let report = store.run_dedup();
        // v1's body deduplicates internally (identical blocks), but v2 shares
        // nothing with v1 despite differing in a single byte.
        assert!(report.unique_blocks > 40, "got {}", report.unique_blocks);
    }

    #[test]
    fn wrong_outer_key_rejected_and_integrity_checked() {
        let (store, fs) = mount();
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, b"contents").unwrap();
        fs.close(fd).unwrap();

        let other = CeFileFs::new(
            store.clone(),
            ZoneKeys {
                zone: 1,
                generation: 0,
                inner: [1; 32],
                outer: [9; 32],
            },
            4096,
        );
        assert!(other.open("/f", OpenFlags::default()).is_err());

        // Corrupt the body within the logical extent: the whole-file hash
        // check catches it. (Corruption confined to the zero padding past the
        // logical size is invisible to the file-granularity check.)
        let mut first = store.read_at("/f", 4096, 16).unwrap();
        first[0] ^= 1;
        store.write_at("/f", 4096, &first).unwrap();
        let fs3 = CeFileFs::new(store, keys(1), 4096);
        assert!(matches!(
            fs3.open("/f", OpenFlags::default()),
            Err(FsError::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn truncate_and_stat() {
        let (_store, fs) = mount();
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, &vec![1u8; 10_000]).unwrap();
        fs.truncate(fd, 100).unwrap();
        fs.fsync(fd).unwrap();
        assert_eq!(fs.len(fd).unwrap(), 100);
        let attr = fs.stat("/f").unwrap();
        assert_eq!(attr.logical_size, 100);
        assert_eq!(attr.physical_size, 2 * 4096); // header + 1 body block
        assert_eq!(fs.kind(), "CeFileFS");
    }
}
