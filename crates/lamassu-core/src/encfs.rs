//! EncFS-like conventional encrypted file system (the paper's baseline).
//!
//! The paper compares LamassuFS against EncFS, "an open-source FUSE-based
//! encrypted file system that uses standard AES in CBC mode", configured with
//! a 4096-byte block size, AES-256-CBC, no file-name encryption, and all
//! features that insert unaligned metadata between blocks disabled so that
//! its writes stay block-aligned (§4.2). This module reimplements that
//! baseline over the same [`ObjectStore`] the other shims use:
//!
//! * each file gets a random 256-bit *file key*, wrapped under the volume key
//!   and stored in a per-file header;
//! * data is encrypted per logical block with AES-256-CBC under the file key
//!   and a per-(file, block-index) IV, so ciphertext is **not** convergent
//!   and never deduplicates — the behaviour Figure 6 and Table 1 show;
//! * in the default *aligned* configuration the header occupies a full block
//!   so data blocks stay aligned with the backing store; the *unaligned*
//!   configuration stores only the raw header bytes, shifting every data
//!   block — the configuration the paper measured as "at least 10x slower"
//!   over NFS, reproduced by the `ablation_unaligned` bench.
//!
//! Descriptors, locking and tracing are the [`Mount`] scaffold's; this module
//! is the EncFS engine under it. The write path stages blocks in per-file
//! scratch buffers under the exclusive guard, so steady-state writes allocate
//! nothing; the read path takes only a shared borrow of the file state
//! (staging any partial edge blocks in small per-call buffers), so concurrent
//! readers of one file proceed in parallel and are excluded only by writers.

use crate::iovec;
use crate::mount::{Mount, MountEngine, MountFile};
use crate::pool::{BlockBuf, BlockPool};
use crate::profiler::{Category, Profiler};
use crate::span::{SpanConfig, SpanPlanner, SpanPolicy, KERNELS};
use crate::spanio::{Landed, Run, SpanIo};
use crate::{FsError, Result};
use lamassu_crypto::aes::Aes256;
use lamassu_crypto::batch::{self, SpanCipher};
use lamassu_crypto::pool::CryptoPool;
use lamassu_crypto::{cbc, fixsliced, stats};
use lamassu_crypto::{Iv128, Key256};
use lamassu_storage::ObjectStore;
use rand::RngCore;
use std::cell::RefCell;
use std::io::{IoSlice, IoSliceMut};
use std::sync::Arc;

thread_local! {
    /// Per-block IV scratch plus the indices of sparse-hole blocks within
    /// the current span chunk. Thread-local so the read path can stay on a
    /// shared borrow, reused so warm reads and writes allocate nothing.
    static IV_SCRATCH: RefCell<(Vec<Iv128>, Vec<usize>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Runs `f` with the thread's IV scratch (fresh fallback if re-entered).
fn with_iv_scratch<T>(f: impl FnOnce(&mut Vec<Iv128>, &mut Vec<usize>) -> T) -> T {
    crate::pool::with_tls(&IV_SCRATCH, |(ivs, holes)| f(ivs, holes))
}

/// Magic bytes identifying an EncFS header.
const MAGIC: &[u8; 8] = b"ENCFSv1\0";
/// Raw (unpadded) header length in bytes.
const RAW_HEADER_LEN: usize = 80;
/// Upper bound on the number of blocks one span chunk stages/encrypts at a
/// time, bounding the per-file staging buffer (1 MiB at 4 KiB blocks).
const MAX_SPAN_BLOCKS: usize = 256;

/// Configuration for an [`EncFs`] mount.
#[derive(Debug, Clone, Copy)]
pub struct EncFsConfig {
    /// Encryption block size in bytes (4096 in the paper's evaluation).
    pub block_size: usize,
    /// If true (the paper's configuration), the per-file header is padded to
    /// a full block so data blocks stay aligned on the backing store.
    pub aligned: bool,
    /// Span-pipeline policy and crypto worker-pool sizing (see
    /// [`crate::span`]).
    pub span: SpanConfig,
}

impl Default for EncFsConfig {
    fn default() -> Self {
        EncFsConfig {
            block_size: 4096,
            aligned: true,
            span: SpanConfig::default(),
        }
    }
}

/// Per-file state of the EncFS engine.
pub struct EncFile {
    /// The object name this state currently refers to.
    name: String,
    file_key: Key256,
    file_iv: [u8; 16],
    cipher: SpanCipher,
    logical_size: u64,
    header_dirty: bool,
    /// Block staging buffer reused across *write* operations (used under the
    /// exclusive guard) so the steady-state write path does not allocate per
    /// call. Readers stage through per-call buffers instead.
    scratch: Vec<u8>,
    /// Whole-span staging buffer for the batched write pipeline (grown on
    /// demand, bounded by [`MAX_SPAN_BLOCKS`] blocks; empty on mounts that
    /// never take the span write path).
    span_buf: Vec<u8>,
}

impl EncFile {
    fn new(name: &str, file_key: Key256, file_iv: [u8; 16], size: u64, block_size: usize) -> Self {
        EncFile {
            name: name.to_string(),
            file_key,
            file_iv,
            cipher: SpanCipher::new(&file_key),
            logical_size: size,
            header_dirty: false,
            scratch: vec![0u8; block_size],
            span_buf: Vec::new(),
        }
    }
}

impl MountFile for EncFile {
    fn logical_size(&self) -> u64 {
        self.logical_size
    }

    fn renamed(&mut self, to: &str) {
        self.name = to.to_string();
    }
}

/// Idle blocks the auto-sized EncFS pool keeps: edge staging for a handful
/// of concurrent readers (the bulk staging lives in per-file reused
/// buffers).
const ENC_POOL_BLOCKS: usize = 16;

/// The conventional (non-convergent) encrypted shim: the [`Mount`] scaffold
/// over the [`EncEngine`].
pub type EncFs = Mount<EncEngine>;

/// The EncFS engine: header layout and the per-file-key block codec. Opaque
/// outside the crate; used through [`EncFs`].
pub struct EncEngine {
    io: SpanIo,
    volume_cipher: Aes256,
    config: EncFsConfig,
    /// The mount's shared crypto worker pool (see [`crate::span`]).
    pool: CryptoPool,
    /// Recycled edge-staging blocks (see [`crate::pool`]).
    blocks: BlockPool,
    planner: SpanPlanner,
    profiler: Arc<Profiler>,
}

impl Mount<EncEngine> {
    /// Mounts an EncFS over `store`, protecting file keys with `volume_key`.
    pub fn new(store: Arc<dyn ObjectStore>, volume_key: Key256, config: EncFsConfig) -> Self {
        Self::with_profiler(store, volume_key, config, Profiler::new())
    }

    /// [`EncFs::new`] charging its time to `profiler` — the one the tiers
    /// below the shim were built with (see `lamassu::stack`).
    pub fn with_profiler(
        store: Arc<dyn ObjectStore>,
        volume_key: Key256,
        config: EncFsConfig,
        profiler: Arc<Profiler>,
    ) -> Self {
        assert!(
            config.block_size >= RAW_HEADER_LEN && config.block_size.is_multiple_of(16),
            "EncFS block size must be a multiple of 16 and at least {RAW_HEADER_LEN}"
        );
        let blocks = BlockPool::new(
            config.block_size,
            config.span.pool_capacity(ENC_POOL_BLOCKS),
        );
        profiler.attach_pool(&blocks);
        Mount::over(EncEngine {
            io: SpanIo::new(store, profiler.clone()),
            volume_cipher: Aes256::new(&volume_key),
            pool: config.span.pool(),
            blocks,
            planner: SpanPlanner::new(config.block_size),
            config,
            profiler,
        })
    }

    /// Counters of the mount's recycled block-buffer pool.
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        self.engine().blocks.stats()
    }

    /// The configured block size.
    pub fn block_size(&self) -> usize {
        self.engine().config.block_size
    }
}

impl EncEngine {
    fn header_len(&self) -> u64 {
        if self.config.aligned {
            self.config.block_size as u64
        } else {
            RAW_HEADER_LEN as u64
        }
    }

    fn data_offset(&self, block: u64) -> u64 {
        self.header_len() + block * self.config.block_size as u64
    }

    /// Derives the CBC IV for (file, logical block index).
    fn block_iv(cipher: &Aes256, file_iv: &[u8; 16], block: u64) -> [u8; 16] {
        let mut iv = *file_iv;
        for (i, b) in block.to_le_bytes().iter().enumerate() {
            iv[8 + i] ^= b;
        }
        cipher.encrypt_block(&iv)
    }

    fn serialize_header(&self, state: &EncFile, header_iv: &[u8; 16]) -> Vec<u8> {
        let mut wrapped = state.file_key.to_vec();
        cbc::encrypt_in_place(&self.volume_cipher, header_iv, &mut wrapped)
            .expect("32-byte key is block-aligned");
        let mut header = vec![0u8; self.header_len() as usize];
        header[0..8].copy_from_slice(MAGIC);
        header[8..16].copy_from_slice(&state.logical_size.to_le_bytes());
        header[16..32].copy_from_slice(header_iv);
        header[32..64].copy_from_slice(&wrapped);
        header[64..80].copy_from_slice(&state.file_iv);
        header
    }

    fn write_header(&self, state: &mut EncFile) -> Result<()> {
        let mut header_iv = [0u8; 16];
        rand::thread_rng().fill_bytes(&mut header_iv);
        let header = self.profiler.time(Category::Encrypt, || {
            self.serialize_header(state, &header_iv)
        });
        self.io
            .write_one(&state.name, 0, &[IoSlice::new(&header)])?;
        state.header_dirty = false;
        Ok(())
    }

    /// Turns one individually handled block — `filled` bytes of ciphertext
    /// as the store delivered them — into plaintext in place: the unread
    /// remainder is zeroed, and a block that is then all zero is a hole.
    /// Sparse regions created by writes past the end of file are zero-filled
    /// ciphertext, which must read back as zero plaintext (the same
    /// convention real EncFS uses for holes).
    fn decrypt_read_block(
        &self,
        cipher: &SpanCipher,
        file_iv: &[u8; 16],
        block: u64,
        filled: usize,
        dest: &mut [u8],
    ) {
        dest[filled..].fill(0);
        if dest.iter().all(|&b| b == 0) {
            return;
        }
        // One whole block under the file cipher: CBC decryption is wide
        // within a chain, so it takes the wide kernel.
        let iv = Self::block_iv(cipher.tt(), file_iv, block);
        self.profiler.time(Category::Decrypt, || {
            stats::count_wide_blocks(dest.len() / 16);
            fixsliced::cbc_decrypt(cipher.fix(), &iv, dest);
        });
    }

    /// Reads and decrypts one full logical block into `dest` (zero-filled
    /// for holes). `dest` must be exactly one block.
    fn read_block_into(
        &self,
        path: &str,
        cipher: &SpanCipher,
        file_iv: &[u8; 16],
        block: u64,
        dest: &mut [u8],
    ) -> Result<()> {
        debug_assert_eq!(dest.len(), self.config.block_size);
        let phys = self.data_offset(block);
        let n = self.io.read_one(path, phys, &mut [IoSliceMut::new(dest)])?;
        self.decrypt_read_block(cipher, file_iv, block, n, dest);
        Ok(())
    }

    /// Encrypts `block_buf` (one full block of plaintext, consumed in place)
    /// and writes it.
    fn encrypt_and_write_block(
        &self,
        path: &str,
        cipher: &SpanCipher,
        file_iv: &[u8; 16],
        block: u64,
        block_buf: &mut [u8],
    ) -> Result<()> {
        debug_assert_eq!(block_buf.len(), self.config.block_size);
        // A single block is one strict CBC chain — below the wide kernel's
        // amortization width — so encryption stays on the T-table path.
        let iv = Self::block_iv(cipher.tt(), file_iv, block);
        self.profiler.time(Category::Encrypt, || {
            stats::count_scalar_blocks(block_buf.len() / 16);
            cbc::encrypt_in_place(cipher.tt(), &iv, block_buf)
        })?;
        let at = self.data_offset(block);
        self.io.write_one(path, at, &[IoSlice::new(block_buf)])
    }

    /// The span read pipeline: the planned range is cut into
    /// [`MAX_SPAN_BLOCKS`]-bounded chunks (data blocks are physically
    /// contiguous, so each chunk is one run) and handed to the span-I/O
    /// driver, which calls [`EncEngine::finish_span_chunk`] on each chunk as it
    /// lands, with the later chunks still in flight.
    ///
    /// The steady-state aligned shape needs no staging at all — ciphertext
    /// lands straight in the caller's buffer and decrypts there, with the
    /// per-block IVs built in thread-local scratch (zero allocation). Takes
    /// only a shared borrow of the file state (served under the shim's read
    /// guard).
    fn read_span(&self, st: &EncFile, offset: u64, buf: &mut [u8]) -> Result<()> {
        let plan = self
            .profiler
            .time(Category::Plan, || self.planner.plan(offset, buf.len()));
        let chunks = (plan.first_block..=plan.last_block)
            .step_by(MAX_SPAN_BLOCKS)
            .map(|first| Run {
                first,
                blocks: ((plan.last_block - first + 1) as usize).min(MAX_SPAN_BLOCKS),
                offset: self.data_offset(first),
                tag: 0,
            });
        self.io.read_runs(
            &self.blocks,
            &st.name,
            &plan,
            chunks,
            buf,
            |chunk, landed| self.finish_span_chunk(st, chunk, landed),
        )
    }

    /// The codec half of one span-read chunk, called by the driver once the
    /// chunk's read has landed: zeroes the unread tail of every block (the
    /// sparse-hole convention: zero ciphertext reads back as zero plaintext)
    /// and decrypts — the staged edge blocks individually, the middle as one
    /// contiguous batch with per-block IVs from thread-local scratch. Hole
    /// blocks inside the middle are decrypted along with the batch and
    /// re-zeroed after, which keeps the span contiguous (holes are rare;
    /// correctness is byte-identical to the skip-the-hole per-block path).
    fn finish_span_chunk(&self, st: &EncFile, chunk: &Run, landed: Landed<'_>) -> Result<()> {
        let bs = self.config.block_size;
        let Landed { n, head, mid, tail } = landed;
        // Bytes of the chunk's `i`-th block that the store delivered.
        let filled = |i: usize| n.saturating_sub(i * bs).min(bs);
        let head_blocks = head.is_some() as usize;
        if let Some(head) = head {
            self.decrypt_read_block(&st.cipher, &st.file_iv, chunk.first, filled(0), head);
        }
        if !mid.is_empty() {
            with_iv_scratch(|ivs, holes| {
                ivs.clear();
                holes.clear();
                for (i, blk) in mid.chunks_exact_mut(bs).enumerate() {
                    let chunk_idx = head_blocks + i;
                    blk[filled(chunk_idx)..].fill(0);
                    if blk.iter().all(|&b| b == 0) {
                        holes.push(i);
                    }
                    ivs.push(Self::block_iv(
                        st.cipher.tt(),
                        &st.file_iv,
                        chunk.first + chunk_idx as u64,
                    ));
                }
                self.profiler.time(Category::Decrypt, || {
                    batch::decrypt_span_with(&self.pool, &st.cipher, ivs, mid, bs, KERNELS)
                })?;
                for &i in holes.iter() {
                    mid[i * bs..(i + 1) * bs].fill(0);
                }
                Ok::<(), FsError>(())
            })?;
        }
        if let Some(tail) = tail {
            let last = chunk.blocks - 1;
            self.decrypt_read_block(
                &st.cipher,
                &st.file_iv,
                chunk.first + last as u64,
                filled(last),
                tail,
            );
        }
        Ok(())
    }

    /// The span write pipeline: stages each [`MAX_SPAN_BLOCKS`]-bounded chunk
    /// of the range as plaintext, encrypts the whole chunk as one parallel
    /// batch, and writes it with a single backend operation. Only the plan's
    /// first and last block can be partially covered; their
    /// read-modify-write reads run first, each a lone round trip, before any
    /// write is issued. The writes form one [`SpanIo::write_batch`]: they are
    /// submitted as they are encrypted — chunk N+1's encrypt overlaps chunk
    /// N's transport — and the batch's closing barrier drains them on every
    /// exit. (Reusing the staging buffer across chunks is safe: the store has
    /// copied the bytes out by the time a write is issued.)
    fn write_span(&self, st: &mut EncFile, offset: u64, bufs: &[IoSlice<'_>]) -> Result<()> {
        let bs = self.config.block_size;
        let plan = self.profiler.time(Category::Plan, || {
            self.planner.plan(offset, iovec::total_len(bufs))
        });
        let path = st.name.as_str();
        let edge = |block: u64| -> Result<Option<(u64, BlockBuf)>> {
            if plan.is_full(block) {
                return Ok(None);
            }
            let mut plain = self.blocks.take();
            self.read_block_into(path, &st.cipher, &st.file_iv, block, &mut plain)?;
            Ok(Some((block, plain)))
        };
        let head = edge(plan.first_block)?;
        let tail = match plan.last_block > plan.first_block {
            true => edge(plan.last_block)?,
            false => None,
        };
        let mut span_buf = std::mem::take(&mut st.span_buf);
        let result = self.io.write_batch(path, |io| {
            let mut chunk_first = plan.first_block;
            // Bytes of `bufs` already staged by earlier chunks.
            let mut staged = 0;
            while chunk_first <= plan.last_block {
                let chunk_last = (chunk_first + MAX_SPAN_BLOCKS as u64 - 1).min(plan.last_block);
                let blocks = (chunk_last - chunk_first + 1) as usize;
                if span_buf.len() < blocks * bs {
                    span_buf.resize(blocks * bs, 0);
                }
                let chunk = &mut span_buf[..blocks * bs];

                // The partial edge blocks start from their old plaintext;
                // every full block is overwritten wholesale.
                for (block, plain) in head.iter().chain(&tail) {
                    if (chunk_first..=chunk_last).contains(block) {
                        let region = ((block - chunk_first) as usize) * bs;
                        chunk[region..region + bs].copy_from_slice(plain);
                    }
                }
                // The chunk's plaintext fragments are contiguous in the
                // staging buffer: from the head block's in-block offset to
                // the tail block's end.
                let (head_in, head_take) = plan.span_of(chunk_first);
                let chunk_take = if chunk_first == chunk_last {
                    head_take
                } else {
                    let (_, tail_take) = plan.span_of(chunk_last);
                    head_take + (blocks - 2) * bs + tail_take
                };
                iovec::gather(bufs, staged, &mut chunk[head_in..head_in + chunk_take]);
                staged += chunk_take;

                // One parallel batch encrypt over the contiguous staging
                // buffer (IVs from thread-local scratch — no allocation),
                // one backend write for the span.
                with_iv_scratch(|ivs, _| {
                    ivs.clear();
                    ivs.extend(
                        (chunk_first..=chunk_last)
                            .map(|b| Self::block_iv(st.cipher.tt(), &st.file_iv, b)),
                    );
                    self.profiler.time(Category::Encrypt, || {
                        batch::encrypt_span_with(&self.pool, &st.cipher, ivs, chunk, bs, KERNELS)
                    })
                })?;
                io.write(self.data_offset(chunk_first), &[IoSlice::new(chunk)]);
                chunk_first = chunk_last + 1;
            }
            Ok(())
        });
        st.span_buf = span_buf;
        result
    }
}

impl MountEngine for EncEngine {
    type File = EncFile;

    fn io(&self) -> &SpanIo {
        &self.io
    }

    /// A new file gets a fresh random key and IV, wrapped in its header.
    fn create(&self, path: &str) -> Result<EncFile> {
        let mut file_key = [0u8; 32];
        let mut file_iv = [0u8; 16];
        rand::thread_rng().fill_bytes(&mut file_key);
        rand::thread_rng().fill_bytes(&mut file_iv);
        let mut state = EncFile::new(path, file_key, file_iv, 0, self.config.block_size);
        self.write_header(&mut state)?;
        Ok(state)
    }

    /// Reads and unwraps the file's header. An object shorter than a header
    /// — created but never initialised, or cut short by the backend — is a
    /// metadata error, whatever the store returned.
    fn load(&self, path: &str) -> Result<EncFile> {
        let mut header = [0u8; RAW_HEADER_LEN];
        let n = self
            .io
            .read_one(path, 0, &mut [IoSliceMut::new(&mut header)])?;
        if n < RAW_HEADER_LEN {
            return Err(FsError::Metadata(
                lamassu_format::FormatError::BadMetadataLength {
                    got: n,
                    want: RAW_HEADER_LEN,
                },
            ));
        }
        if &header[0..8] != MAGIC {
            return Err(FsError::Metadata(
                lamassu_format::FormatError::MetadataAuthFailure,
            ));
        }
        let logical_size = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let header_iv: [u8; 16] = header[16..32].try_into().expect("16 bytes");
        let mut wrapped = header[32..64].to_vec();
        let file_iv: [u8; 16] = header[64..80].try_into().expect("16 bytes");
        self.profiler.time(Category::Decrypt, || {
            cbc::decrypt_in_place(&self.volume_cipher, &header_iv, &mut wrapped)
        })?;
        let file_key: Key256 = wrapped.try_into().expect("32 bytes");
        let bs = self.config.block_size;
        Ok(EncFile::new(path, file_key, file_iv, logical_size, bs))
    }

    fn read(&self, st: &EncFile, offset: u64, buf: &mut [u8]) -> Result<()> {
        if self.config.span.policy == SpanPolicy::Batched {
            return self.read_span(st, offset, buf);
        }
        let bs = self.config.block_size as u64;
        // Per-block fallback: a pooled staging block serves partial spans;
        // aligned full blocks are decrypted directly in the caller's buffer.
        let mut scratch: Option<BlockBuf> = None;
        let mut cur = offset;
        let end = offset + buf.len() as u64;
        let mut out_pos = 0usize;
        while cur < end {
            let block = cur / bs;
            let in_block = (cur % bs) as usize;
            let take = ((bs - in_block as u64).min(end - cur)) as usize;
            if in_block == 0 && take == bs as usize {
                self.read_block_into(
                    &st.name,
                    &st.cipher,
                    &st.file_iv,
                    block,
                    &mut buf[out_pos..out_pos + take],
                )?;
            } else {
                let scratch = scratch.get_or_insert_with(|| self.blocks.take());
                self.read_block_into(&st.name, &st.cipher, &st.file_iv, block, scratch)?;
                buf[out_pos..out_pos + take].copy_from_slice(&scratch[in_block..in_block + take]);
            }
            cur += take as u64;
            out_pos += take;
        }
        Ok(())
    }

    fn write(&self, st: &mut EncFile, offset: u64, bufs: &[IoSlice<'_>]) -> Result<()> {
        let end = offset + iovec::total_len(bufs) as u64;
        if self.config.span.policy == SpanPolicy::Batched {
            self.write_span(st, offset, bufs)?;
        } else {
            let bs = self.config.block_size as u64;
            let mut scratch = std::mem::take(&mut st.scratch);
            let mut cur = offset;
            let result: Result<()> = (|| {
                while cur < end {
                    let block = cur / bs;
                    let in_block = (cur % bs) as usize;
                    let take = ((bs - in_block as u64).min(end - cur)) as usize;
                    if in_block != 0 || take != bs as usize {
                        // Read-modify-write of a partially covered block.
                        self.read_block_into(
                            &st.name,
                            &st.cipher,
                            &st.file_iv,
                            block,
                            &mut scratch,
                        )?;
                    }
                    let skip = (cur - offset) as usize;
                    iovec::gather(bufs, skip, &mut scratch[in_block..in_block + take]);
                    self.encrypt_and_write_block(
                        &st.name,
                        &st.cipher,
                        &st.file_iv,
                        block,
                        &mut scratch,
                    )?;
                    cur += take as u64;
                }
                Ok(())
            })();
            st.scratch = scratch;
            result?;
        }
        if end > st.logical_size {
            st.logical_size = end;
            st.header_dirty = true;
        }
        Ok(())
    }

    fn truncate(&self, st: &mut EncFile, size: u64) -> Result<()> {
        let bs = self.config.block_size as u64;
        // When shrinking to a mid-block size, zero the tail of the surviving
        // final block so stale bytes cannot reappear if the file grows again.
        if size < st.logical_size && !size.is_multiple_of(bs) {
            let block = size / bs;
            let mut scratch = std::mem::take(&mut st.scratch);
            let result = (|| {
                self.read_block_into(&st.name, &st.cipher, &st.file_iv, block, &mut scratch)?;
                scratch[(size % bs) as usize..].fill(0);
                self.encrypt_and_write_block(&st.name, &st.cipher, &st.file_iv, block, &mut scratch)
            })();
            st.scratch = scratch;
            result?;
        }
        let blocks = size.div_ceil(bs);
        self.io
            .truncate(&st.name, self.header_len() + blocks * bs)?;
        st.logical_size = size;
        self.write_header(st)
    }

    /// The only buffered state is the logical size in the header.
    fn flush(&self, st: &mut EncFile) -> Result<()> {
        if st.header_dirty {
            self.write_header(st)?;
        }
        Ok(())
    }

    fn kind(&self) -> &'static str {
        if self.config.aligned {
            "EncFS"
        } else {
            "EncFS(unaligned)"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{FileSystem, OpenFlags};
    use lamassu_storage::{DedupStore, StorageProfile};

    fn mount() -> (Arc<DedupStore>, EncFs) {
        let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        let fs = EncFs::new(store.clone(), [0x55u8; 32], EncFsConfig::default());
        (store, fs)
    }

    #[test]
    fn write_read_round_trip() {
        let (_s, fs) = mount();
        let fd = fs.create("/f").unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        fs.write(fd, 0, &data).unwrap();
        assert_eq!(fs.read(fd, 0, data.len()).unwrap(), data);
        assert_eq!(fs.len(fd).unwrap(), data.len() as u64);
    }

    #[test]
    fn read_into_and_write_vectored_round_trip() {
        let (_s, fs) = mount();
        let fd = fs.create("/f").unwrap();
        let head = vec![0x11u8; 5000];
        let tail = vec![0x22u8; 3000];
        let n = fs
            .write_vectored(fd, 100, &[IoSlice::new(&head), IoSlice::new(&tail)])
            .unwrap();
        assert_eq!(n, 8000);
        let mut buf = vec![0u8; 8200];
        let read = fs.read_into(fd, 0, &mut buf).unwrap();
        assert_eq!(read, 8100);
        assert_eq!(&buf[..100], &[0u8; 100]);
        assert_eq!(&buf[100..5100], &head[..]);
        assert_eq!(&buf[5100..8100], &tail[..]);
    }

    #[test]
    fn unaligned_offsets_round_trip() {
        let (_s, fs) = mount();
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, &vec![1u8; 9000]).unwrap();
        fs.write(fd, 4000, &[2u8; 200]).unwrap();
        let back = fs.read(fd, 3990, 220).unwrap();
        assert_eq!(&back[..10], &[1u8; 10]);
        assert_eq!(&back[10..210], &[2u8; 200]);
        assert_eq!(&back[210..], &[1u8; 10]);
    }

    #[test]
    fn data_at_rest_is_encrypted() {
        let (store, fs) = mount();
        let fd = fs.create("/f").unwrap();
        let plaintext = vec![0x41u8; 8192];
        fs.write(fd, 0, &plaintext).unwrap();
        let raw = store.read_at("/f", 4096, 8192).unwrap();
        assert_ne!(raw, plaintext);
        assert!(!raw.windows(64).any(|w| w == &plaintext[..64]));
    }

    #[test]
    fn ciphertext_does_not_deduplicate() {
        let (store, fs) = mount();
        // Two files with identical plaintext, plus identical blocks within a
        // file: no ciphertext block may repeat.
        for path in ["/a", "/b"] {
            let fd = fs.create(path).unwrap();
            fs.write(fd, 0, &vec![9u8; 4096 * 4]).unwrap();
            fs.close(fd).unwrap();
        }
        let report = store.run_dedup();
        // 2 headers + 8 data blocks, all unique.
        assert_eq!(report.total_blocks, 10);
        assert_eq!(report.unique_blocks, 10);
    }

    #[test]
    fn logical_size_survives_remount() {
        let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        {
            let fs = EncFs::new(store.clone(), [1u8; 32], EncFsConfig::default());
            let fd = fs.create("/f").unwrap();
            fs.write(fd, 0, &vec![3u8; 5000]).unwrap();
            fs.close(fd).unwrap();
        }
        let fs = EncFs::new(store, [1u8; 32], EncFsConfig::default());
        let fd = fs.open("/f", OpenFlags::default()).unwrap();
        assert_eq!(fs.len(fd).unwrap(), 5000);
        assert_eq!(fs.read(fd, 0, 5000).unwrap(), vec![3u8; 5000]);
    }

    #[test]
    fn wrong_volume_key_cannot_read() {
        let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        {
            let fs = EncFs::new(store.clone(), [1u8; 32], EncFsConfig::default());
            let fd = fs.create("/f").unwrap();
            fs.write(fd, 0, b"top secret data here").unwrap();
            fs.close(fd).unwrap();
        }
        let fs = EncFs::new(store, [2u8; 32], EncFsConfig::default());
        let fd = fs.open("/f", OpenFlags::default()).unwrap();
        let back = fs.read(fd, 0, 20).unwrap();
        assert_ne!(back, b"top secret data here");
    }

    #[test]
    fn truncate_shrinks_logical_size() {
        let (_s, fs) = mount();
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, &vec![7u8; 10_000]).unwrap();
        fs.truncate(fd, 100).unwrap();
        assert_eq!(fs.len(fd).unwrap(), 100);
        assert_eq!(fs.read(fd, 0, 1000).unwrap(), vec![7u8; 100]);
    }

    #[test]
    fn unaligned_mode_shifts_data_blocks() {
        let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        let fs = EncFs::new(
            store.clone(),
            [1u8; 32],
            EncFsConfig {
                block_size: 4096,
                aligned: false,
                ..Default::default()
            },
        );
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, &vec![1u8; 4096]).unwrap();
        assert_eq!(store.len("/f").unwrap(), 80 + 4096);
        assert_eq!(fs.read(fd, 0, 4096).unwrap(), vec![1u8; 4096]);
        assert_eq!(fs.kind(), "EncFS(unaligned)");
    }

    #[test]
    fn aligned_mode_keeps_alignment() {
        let (store, fs) = mount();
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, &vec![1u8; 4096]).unwrap();
        assert_eq!(store.len("/f").unwrap(), 4096 * 2);
        assert_eq!(fs.kind(), "EncFS");
    }

    #[test]
    fn stat_reports_logical_and_physical() {
        let (_s, fs) = mount();
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, &vec![1u8; 5000]).unwrap();
        fs.fsync(fd).unwrap();
        let attr = fs.stat("/f").unwrap();
        assert_eq!(attr.logical_size, 5000);
        assert_eq!(attr.physical_size, 4096 * 3); // header + 2 data blocks
    }
}
