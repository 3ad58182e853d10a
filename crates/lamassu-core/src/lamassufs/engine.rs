//! The Lamassu engine: the per-mount and per-file state, the `MountEngine`
//! entry points, and the metadata-cache and crypto helpers every phase uses.
//!
//! [`Engine`] holds everything shared by all files of one mount (backing
//! store, geometry, crypto contexts, the block-buffer pool, profiler);
//! [`LamassuFile`] holds the per-object state (logical size, the in-memory
//! write buffer, a decrypted-metadata cache, the reusable commit staging and
//! the segments its last commit left open). The paper's phases live in
//! sibling modules, each an `impl Engine` block:
//!
//! * `read` — the span read and the one way a block is opened (§2.5);
//! * `commit` — the multiphase commit of §2.4, pipeline and per-block oracle;
//! * `segment` — the segment life cycle: which state the media holds a
//!   segment in, and the one function per transition;
//! * `recover` — recovery, verification and partial re-keying.
//!
//! # The write buffer and its trigger
//!
//! A `write` is acknowledged into the file's write buffer. The buffer is
//! committed when it holds one span (`SPAN_BLOCKS`, 256 blocks — the
//! pipeline's own batch size), or when `fsync`, `close`, `truncate`,
//! `rename`, `verify` or a re-keying flushes it; the data is durable only
//! after `fsync`/`close`. `R` plays no part in that: it is §2.4's round
//! width, the number of blocks of one segment in flight at once. Only the
//! per-block prototype ([`SpanPolicy::PerBlock`]) commits every `R` blocks,
//! as the paper's did. A failed flush drops the whole buffer; the error
//! surfaces on the write that filled the span or on the forced flush.
//! [`Engine::recover`] on an open file discards the buffer too.
//!
//! # Format versions
//!
//! A file's format version says which block hash its keys are derived with
//! (`lamassu_crypto::kdf::HashVersion`: v1 SHA-256, v2 the tree hash). It is
//! decided once, when the file is created, and stored in every metadata
//! block; [`Engine::load`](MountEngine::load) takes it from segment 0, and
//! every derivation and check of the file — a lone read's §2.5 check, a span
//! read, a commit, recovery, verification — uses that version's KDF. Two
//! rules, stated here once:
//!
//! * **a file keeps its version for life** — a v1 file stays v1 through every
//!   rewrite, truncate and rename, and segments it grows later are v1 too (a
//!   segment whose block disagrees with segment 0 is an error);
//! * **new files are v2, unless the block size is not a multiple of 256
//!   bytes** (four quarters of whole SHA-256 blocks), which stays v1
//!   ([`HashVersion::for_block_size`], through [`MetadataBlock::new`]).
//!
//! Nothing about it is a mount option or decided per I/O.
//!
//! # Zero-allocation steady state
//!
//! Once a mount is warm, an aligned read or write performs **no heap
//! allocation** (`tests/zero_alloc.rs` pins this with a counting global
//! allocator). The pieces that make that true:
//!
//! * every block-sized scratch buffer — read-edge staging, metadata
//!   staging, dirty-write staging — comes from the mount's
//!   [`BlockPool`] and returns to it on drop;
//! * the per-file dirty-block buffer is a sorted `Vec` whose capacity
//!   persists across commits (as do a commit's segment list and the file's
//!   list of open segments), and commits stage through one reusable
//!   contiguous `commit_buf` so batch crypto runs on a span, not a
//!   ref-vector (it never holds more than one span and stays with the file,
//!   so a span commit never regrows it);
//! * metadata blocks are moved out of the per-file cache, updated **in
//!   place** and sealed directly into a pooled block
//!   ([`MetadataBlock::seal_into`]) — no clone, no fresh ciphertext vector;
//! * the variable-length bookkeeping a span read or commit needs (run
//!   boundaries, per-run keys, re-derived keys, a run's or a batch's memo
//!   misses and their staging) lives in thread-local scratch vectors that
//!   amortize to zero after first use;
//! * the read memo's arena is allocated once, at its first admission.
//!
//! The remaining allocations are deliberate: cold metadata-cache misses,
//! recovery/verify sweeps, a file's first span-sized staging, and the
//! `O(workers)` fan-out of a parallel crypto batch — which a span commit is
//! on any mount with more than one worker (absent when the batch runs
//! inline, as every batch short of one 16-block tile per worker does — see
//! [`CryptoPool::runs_inline`]).
//!
//! # Concurrency
//!
//! The whole read path takes only a **shared** borrow of [`LamassuFile`], so
//! the shim can serve it under an `RwLock` read guard and any number of
//! readers proceed in parallel on one open file. The pieces a read must
//! still mutate live behind their own short-critical-section locks: the
//! decrypted-metadata cache is a [`Mutex`]`<HashMap>` (locked only to probe,
//! insert, or copy keys out — never across store I/O or crypto). Writers —
//! buffering, commit, truncate, recovery — take `&mut LamassuFile` and
//! therefore run under the shim's exclusive write guard, which is what keeps
//! the multiphase commit invisible to concurrent readers.

use super::memo::ReadMemo;
use super::segment::{OpenSegments, SegCommit};
use super::{IntegrityMode, LamassuConfig};
use crate::iovec;
use crate::mount::{MountEngine, MountFile};
use crate::pool::{BlockBuf, BlockPool};
use crate::profiler::{Category, Profiler};
use crate::span::{SpanPlanner, SpanPolicy};
use crate::spanio::SpanIo;
use crate::{FsError, Result};
use lamassu_crypto::gcm::Aes256Gcm;
use lamassu_crypto::kdf::{ConvergentKdf, HashVersion};
use lamassu_crypto::pool::CryptoPool;
use lamassu_format::{FormatError, Geometry, MetadataBlock};
use lamassu_keymgr::ZoneKeys;
use lamassu_storage::ObjectStore;
use parking_lot::{Mutex, RwLock};
use rand::RngCore;
use std::collections::HashMap;
use std::io::{IoSlice, IoSliceMut};
use std::sync::Arc;

/// [`LamassuFile::media_segments`] after a write whose outcome is unknown.
pub(super) const UNKNOWN_SEGMENTS: u64 = u64::MAX;

/// Maximum number of decrypted metadata blocks cached per open file.
const META_CACHE_CAP: usize = 8192;

/// Extra block-pool capacity beyond the largest single-write working set:
/// read-edge staging (two per in-flight reader), metadata staging, and the
/// truncate/verify scratch block.
const POOL_SLACK_BLOCKS: usize = 16;

/// One span, in blocks — the one size of the write path. A file's write
/// buffer commits when it holds this many dirty blocks, one crypto batch of
/// a commit stages at most this many contiguously (sixteen full tiles of the
/// wide kernels), the auto-sized pool keeps this many buffers idle for the
/// writer to refill the buffer from, and a file's commit staging retains at
/// most this much between commits. Fixed ahead of time from the kernel
/// geometry; nothing about it is decided per I/O. The read memo holds four
/// spans.
pub(super) const SPAN_BLOCKS: usize = 256;

/// Crypto material derived from the zone keys, rebuilt on re-keying.
pub(super) struct CryptoCtx {
    pub(super) keys: ZoneKeys,
    /// The inner key's KDF for each format version a file can have.
    kdf_v1: ConvergentKdf,
    kdf_v2: ConvergentKdf,
    pub(super) gcm: Aes256Gcm,
}

impl CryptoCtx {
    pub(super) fn new(keys: ZoneKeys) -> Self {
        CryptoCtx {
            kdf_v1: ConvergentKdf::with_version(&keys.inner, HashVersion::V1),
            kdf_v2: ConvergentKdf::with_version(&keys.inner, HashVersion::V2),
            gcm: Aes256Gcm::new(&keys.outer),
            keys,
        }
    }

    /// The KDF a file of format `version` derives its keys with.
    pub(super) fn kdf(&self, version: HashVersion) -> &ConvergentKdf {
        match version {
            HashVersion::V1 => &self.kdf_v1,
            HashVersion::V2 => &self.kdf_v2,
        }
    }
}

/// Per-file state: logical size, write buffer, metadata cache and the
/// reusable commit staging of the zero-allocation data path.
///
/// Readers hold the shim's shared guard and use only `&self`; the
/// metadata cache has its own interior lock so concurrent readers can warm
/// it. Everything else mutable (the write buffer, the commit staging, the
/// size fields) is reached through `&mut self` under the shim's exclusive
/// write guard.
pub struct LamassuFile {
    pub(super) name: String,
    /// The file's format version, fixed at creation (see the module docs).
    pub(super) version: HashVersion,
    pub(super) logical_size: u64,
    pub(super) size_dirty: bool,
    /// Dirty plaintext blocks not yet committed, sorted by logical block
    /// index. Flushed once it holds one span ([`SPAN_BLOCKS`]). The
    /// buffers come from the mount's [`BlockPool`] and return to it when
    /// the flush drains them; the `Vec`'s own capacity persists across
    /// flushes, so steady-state writing allocates nothing.
    pub(super) pending: Vec<(u64, BlockBuf)>,
    /// Decrypted metadata blocks, keyed by segment index. Kept in sync with
    /// disk by the in-place update path. Behind its own lock (held only to
    /// probe, insert or copy out — never across I/O) so the read path can
    /// populate it under a shared file guard.
    pub(super) meta_cache: Mutex<HashMap<u64, MetadataBlock>>,
    /// Contiguous staging for one commit batch (≤ [`SPAN_BLOCKS`]
    /// blocks): plaintext is gathered here, encrypted in place as one span,
    /// and written out run by run. Reused across commits and never more than
    /// one span.
    pub(super) commit_buf: Vec<u8>,
    /// Block indices of the batch staged in `commit_buf`, ascending (reused).
    pub(super) commit_ids: Vec<u64>,
    /// The segments the staged batch writes (reused; empty between commits).
    pub(super) commit_segs: Vec<SegCommit>,
    /// The segments the last commit left open (see the `segment` module).
    pub(super) open: OpenSegments,
    /// How many segments the object reaches on the media: derived from its
    /// length at load and recovery ([`Engine::media_segments`]), raised by
    /// every metadata write ([`Engine::put_meta`]) and commit, cut by a
    /// truncate. The last one is where the loader reads the logical size
    /// from. [`Engine::fetch_meta`] takes a segment at or past it as empty
    /// without reading it, and a commit whose data reaches past it writes the
    /// new last segment's metadata block first (the `segment` module's
    /// rules), so it must be exact: after a write whose outcome the mount
    /// cannot know — a failed commit, metadata write or truncate — it is
    /// [`UNKNOWN_SEGMENTS`], no read is skipped, and the next commit
    /// re-derives it from the object's length.
    pub(super) media_segments: u64,
}

impl LamassuFile {
    fn new(name: &str, version: HashVersion) -> Self {
        LamassuFile {
            name: name.to_string(),
            version,
            logical_size: 0,
            size_dirty: false,
            pending: Vec::new(),
            meta_cache: Mutex::new(HashMap::new()),
            commit_buf: Vec::new(),
            commit_ids: Vec::new(),
            commit_segs: Vec::new(),
            open: OpenSegments::default(),
            media_segments: 0,
        }
    }

    /// Puts a decrypted metadata block (back) into the bounded cache.
    pub(super) fn cache_meta(&self, segment: u64, mb: MetadataBlock) {
        bounded(&mut self.meta_cache.lock()).insert(segment, mb);
    }
}

impl MountFile for LamassuFile {
    fn logical_size(&self) -> u64 {
        self.logical_size
    }

    fn renamed(&mut self, to: &str) {
        self.name = to.to_string();
    }
}

/// Shared per-mount machinery: the convergent engine under
/// [`LamassuFs`](crate::LamassuFs).
pub struct Engine {
    /// The backing store, behind the span-I/O driver ([`crate::spanio`]).
    pub(super) io: SpanIo,
    pub(super) geometry: Geometry,
    pub(super) integrity: IntegrityMode,
    pub(super) policy: SpanPolicy,
    /// The mount's shared crypto worker pool (see [`crate::span`]).
    pub(super) pool: CryptoPool,
    /// The mount's recycled block-buffer pool (see [`crate::pool`]).
    pub(super) blocks: BlockPool,
    pub(super) planner: SpanPlanner,
    /// How many dirty blocks a file buffers before `write` commits them:
    /// one span on the pipeline, `R` on the per-block prototype (whose write
    /// buffer *was* its transient area — §4, Figure 10). Fixed at mount.
    commit_trigger: usize,
    pub(super) crypto: RwLock<CryptoCtx>,
    /// Verified or written blocks, ciphertext and plaintext: present on the
    /// span pipeline under full integrity, the one mode that checks what a
    /// read admits.
    pub(super) memo: Option<ReadMemo>,
    pub(super) profiler: Arc<Profiler>,
}

impl Engine {
    pub(crate) fn new(
        store: Arc<dyn ObjectStore>,
        keys: ZoneKeys,
        config: LamassuConfig,
        profiler: Arc<Profiler>,
    ) -> Self {
        let auto_cap = SPAN_BLOCKS + config.geometry.reserved_slots() + POOL_SLACK_BLOCKS;
        let blocks = BlockPool::new(
            config.geometry.block_size(),
            config.span.pool_capacity(auto_cap),
        );
        profiler.attach_pool(&blocks);
        Engine {
            io: SpanIo::new(store, profiler.clone()),
            geometry: config.geometry,
            integrity: config.integrity,
            policy: config.span.policy,
            pool: config.span.pool(),
            blocks,
            planner: SpanPlanner::new(config.geometry.block_size()),
            commit_trigger: match config.span.policy {
                SpanPolicy::Batched => SPAN_BLOCKS,
                SpanPolicy::PerBlock => config.geometry.reserved_slots(),
            },
            crypto: RwLock::new(CryptoCtx::new(keys)),
            memo: (config.span.policy == SpanPolicy::Batched
                && config.integrity == IntegrityMode::Full)
                .then(|| ReadMemo::new(config.geometry.block_size(), profiler.clone())),
            profiler,
        }
    }

    /// Additional authenticated data binding a metadata block to its segment
    /// position so sealed blocks cannot be transplanted between segments.
    /// A fixed-size stack value — the hot write path builds one per seal.
    pub(super) fn aad(segment: u64) -> [u8; 23] {
        let mut aad = [0u8; 23];
        aad[..15].copy_from_slice(b"lamassu-v1-seg-");
        aad[15..].copy_from_slice(&segment.to_le_bytes());
        aad
    }
}

impl MountEngine for Engine {
    type File = LamassuFile;

    fn io(&self) -> &SpanIo {
        &self.io
    }

    /// A new empty Lamassu object is one sealed metadata block holding a
    /// logical size of zero — and the format version the file keeps for life
    /// (the module docs' two rules).
    fn create(&self, name: &str) -> Result<LamassuFile> {
        let mb = MetadataBlock::new(&self.geometry);
        let mut file = LamassuFile::new(name, mb.version);
        self.put_meta(&mut file, 0, mb)?;
        Ok(file)
    }

    /// Loads an existing object: its format version from segment 0's
    /// metadata block, its authoritative logical size from the final
    /// segment's (paper §2.3). An object shorter than one metadata block
    /// opens as an empty file of the current version.
    fn load(&self, name: &str) -> Result<LamassuFile> {
        let current = HashVersion::for_block_size(self.geometry.block_size());
        let mut file = LamassuFile::new(name, current);
        file.media_segments = self.media_segments(name)?;
        if let Some(first) = self.fetch_meta(&file, 0)? {
            file.version = first.version;
            file.cache_meta(0, first);
        }
        let last = file.media_segments.max(1) - 1;
        file.logical_size = self.with_meta(&file, last, |mb| mb.logical_size)?;
        Ok(file)
    }

    /// The `read` module's [`Engine::read_range`].
    ///
    /// Takes only a shared borrow: the mount serves this under its read
    /// guard, so any number of readers run concurrently on one file.
    fn read(&self, file: &LamassuFile, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.read_range(file, offset, buf)
    }

    /// Buffers the gather list `bufs` at `offset`, committing the pending set
    /// once it holds one span of blocks (`R` on the per-block prototype).
    /// Staging blocks come from the mount pool; the sorted pending vector
    /// reuses its capacity, so steady aligned rewriting allocates nothing.
    ///
    /// `Ok` acknowledges the bytes into the write buffer, no more: they reach
    /// the store when the span fills and are durable after `fsync`/`close`.
    /// When this write is the one that fills the span, the commit's error is
    /// this write's error and everything buffered is dropped with it (see
    /// [`MountEngine::flush`]). That commit leaves its segments open for the
    /// file's next commit to close (the `commit` module docs).
    fn write(&self, file: &mut LamassuFile, offset: u64, bufs: &[IoSlice<'_>]) -> Result<()> {
        let total = iovec::total_len(bufs);
        let bs = self.geometry.block_size();
        // Bytes of `bufs` already staged by earlier blocks.
        let mut staged = 0;
        for (block, in_block, take) in self.geometry.block_spans(offset, total) {
            let i = match file.pending.binary_search_by_key(&block, |(b, _)| *b) {
                // The block is already staged: overlay in place.
                Ok(i) => i,
                Err(i) => {
                    let mut plain = self.blocks.take();
                    if in_block != 0 || take != bs {
                        // Read-modify-write of a partially covered block
                        // (fills with zeros when the block is a hole).
                        self.read_block_into(file, block, &mut plain, false)?;
                    }
                    file.pending.insert(i, (block, plain));
                    i
                }
            };
            iovec::gather(
                bufs,
                staged,
                &mut file.pending[i].1[in_block..in_block + take],
            );
            staged += take;
        }
        let end = offset + total as u64;
        if end > file.logical_size {
            file.logical_size = end;
            file.size_dirty = true;
        }
        if file.pending.len() >= self.commit_trigger {
            self.commit_buffer(file, false)?;
        }
        Ok(())
    }

    /// Truncates (or extends) the file to `new_size` logical bytes. The
    /// flush closes every segment first; the dropped keys are cleared through
    /// the `segment` module ([`Engine::drop_keys`]).
    fn truncate(&self, file: &mut LamassuFile, new_size: u64) -> Result<()> {
        self.flush(file)?;
        let old_size = file.logical_size;
        file.logical_size = new_size;
        file.size_dirty = true;

        if new_size < old_size {
            let bs = self.geometry.block_size() as u64;
            // Zero the tail of the new final block so stale bytes cannot be
            // resurrected by a later extension.
            if !new_size.is_multiple_of(bs) {
                let last_block = new_size / bs;
                let mut plain = self.blocks.take();
                if self.read_block_into(file, last_block, &mut plain, false)? {
                    plain[(new_size % bs) as usize..].fill(0);
                    // `pending` is empty after the flush above.
                    file.pending.push((last_block, plain));
                    self.flush(file)?;
                }
            }
            // Drop keys for blocks past the new end; the segments past it
            // disappear with the physical truncate.
            let new_segments = self.geometry.segments_for_len(new_size);
            let first_dropped = self.geometry.data_blocks_for_len(new_size);
            let kept_end = new_segments * self.geometry.keys_per_metadata_block() as u64;
            let dropped_end = self.geometry.data_blocks_for_len(old_size).min(kept_end);
            self.drop_keys(file, first_dropped..dropped_end)?;
            // Shrink the physical object and drop stale cache entries.
            let physical = self.geometry.encrypted_size(new_size);
            let truncated = self.io.truncate(&file.name, physical);
            file.media_segments = match truncated {
                Ok(()) => file.media_segments.min(new_segments),
                Err(_) => UNKNOWN_SEGMENTS,
            };
            truncated?;
            file.meta_cache.lock().retain(|seg, _| *seg < new_segments);
        }
        // The size is written even if a commit above already carried it.
        file.size_dirty = true;
        self.persist_size(file)
    }

    /// Commits every buffered block, closes every segment left open, and
    /// persists the logical size — the forced flush of `fsync`, `close`,
    /// `truncate`, `rename`, `verify` and re-keying, after which the media
    /// holds no segment of the file mid-update.
    fn flush(&self, file: &mut LamassuFile) -> Result<()> {
        self.commit_buffer(file, true)
    }

    fn kind(&self) -> &'static str {
        match self.integrity {
            IntegrityMode::Full => "LamassuFS",
            IntegrityMode::MetaOnly => "LamassuFS(meta-only)",
        }
    }
}

/// A file's metadata cache, emptied first once it holds [`META_CACHE_CAP`]
/// blocks.
fn bounded(cache: &mut HashMap<u64, MetadataBlock>) -> &mut HashMap<u64, MetadataBlock> {
    if cache.len() >= META_CACHE_CAP {
        cache.clear();
    }
    cache
}

/// A random 96-bit GCM nonce from the calling thread's generator.
pub(super) fn fresh_nonce() -> [u8; 12] {
    let mut nonce = [0u8; 12];
    rand::thread_rng().fill_bytes(&mut nonce);
    nonce
}

impl Engine {
    /// How many segments the object `name` reaches, from its length.
    pub(super) fn media_segments(&self, name: &str) -> Result<u64> {
        Ok(self.io.len(name)?.div_ceil(self.geometry.segment_bytes()))
    }

    // ------------------------------------------------------------------
    // Metadata I/O
    // ------------------------------------------------------------------

    /// Fetches and decrypts the metadata block for `segment` from the store
    /// (no cache interaction) — the one metadata read; `None` for a segment
    /// that does not exist on disk yet or reads back as an all-zero sparse
    /// hole. A segment at or past [`LamassuFile::media_segments`] is not
    /// read at all.
    fn fetch_meta(&self, file: &LamassuFile, segment: u64) -> Result<Option<MetadataBlock>> {
        if segment >= file.media_segments {
            return Ok(None);
        }
        let offset = self.geometry.metadata_block_offset(segment);
        let bs = self.geometry.block_size();
        let mut staged = self.blocks.take();
        let n = self
            .io
            .read_one(&file.name, offset, &mut [IoSliceMut::new(&mut staged)])?;
        if n < bs || staged.iter().all(|&b| b == 0) {
            // Never written, or a hole left by a sparse write.
            return Ok(None);
        }
        let crypto = self.crypto.read();
        let mb = self.profiler.time(Category::Decrypt, || {
            MetadataBlock::unseal(&self.geometry, &crypto.gcm, &Self::aad(segment), &staged)
        })?;
        Ok(Some(mb))
    }

    /// [`Engine::fetch_meta`] for a file whose version is known: a segment
    /// never written is an empty block of the file's version, and a stored
    /// block of another version is an error (a file keeps its version).
    fn load_meta(&self, file: &LamassuFile, segment: u64) -> Result<MetadataBlock> {
        match self.fetch_meta(file, segment)? {
            None => {
                let mut mb = MetadataBlock::new(&self.geometry);
                mb.version = file.version;
                Ok(mb)
            }
            Some(mb) if mb.version != file.version => {
                Err(FsError::Metadata(FormatError::VersionMismatch {
                    file: file.version.number(),
                    segment: mb.version.number(),
                }))
            }
            Some(mb) => Ok(mb),
        }
    }

    /// Runs `f` against the (cached) metadata block for `segment`.
    ///
    /// This is the read path's accessor: a cache hit calls `f` under the
    /// cache lock with **no clone and no allocation**; a miss loads and
    /// inserts first. Shared-borrow safe — concurrent readers of one file
    /// serialize only for the duration of `f` (which must not perform I/O or
    /// call back into the metadata layer).
    pub(super) fn with_meta<T>(
        &self,
        file: &LamassuFile,
        segment: u64,
        f: impl FnOnce(&MetadataBlock) -> T,
    ) -> Result<T> {
        {
            let cache = file.meta_cache.lock();
            if let Some(mb) = cache.get(&segment) {
                return Ok(f(mb));
            }
        }
        let mb = self.load_meta(file, segment)?;
        // A concurrent reader may have inserted meanwhile — both fetched the
        // same decrypted bytes, so either value serves.
        let mut cache = file.meta_cache.lock();
        Ok(f(bounded(&mut cache).entry(segment).or_insert(mb)))
    }

    /// Seals `mb` as `segment`'s metadata block into `sealed_out` under
    /// `gcm` and a fresh random nonce.
    pub(super) fn seal_meta(
        &self,
        gcm: &Aes256Gcm,
        segment: u64,
        mb: &MetadataBlock,
        sealed_out: &mut [u8],
    ) {
        let nonce = fresh_nonce();
        self.profiler.time(Category::Encrypt, || {
            mb.seal_into(&self.geometry, gcm, &nonce, &Self::aad(segment), sealed_out)
        });
    }

    /// Moves the metadata block for `segment` out of the cache (a move, not a
    /// clone; loading it on a miss) so a writer can mutate, seal and write it
    /// without the cache lock — keeping the "never held across I/O or crypto"
    /// invariant literally true. Only called under the shim's exclusive file
    /// guard, so the entry's absence is unobservable; the caller puts it back
    /// once its write has landed ([`Engine::put_meta`]) and simply drops it on
    /// error, so a later read refetches the on-disk truth instead of trusting
    /// a half-applied update.
    pub(super) fn take_meta(&self, file: &LamassuFile, segment: u64) -> Result<MetadataBlock> {
        let cached = file.meta_cache.lock().remove(&segment);
        match cached {
            Some(mb) => Ok(mb),
            None => self.load_meta(file, segment),
        }
    }

    /// Seals `mb` into a pooled block under the mount's outer key, writes it
    /// at `segment`'s offset, and puts it (back) into the cache once the
    /// write has landed — the one metadata write outside the commit
    /// pipeline's phases (create, truncate, size persistence, recovery and
    /// the per-block oracle). The write raises the file's
    /// [`media_segments`](LamassuFile::media_segments); a failed one leaves
    /// it unknown.
    pub(super) fn put_meta(
        &self,
        file: &mut LamassuFile,
        seg: u64,
        mb: MetadataBlock,
    ) -> Result<()> {
        let mut sealed = self.blocks.take();
        self.seal_meta(&self.crypto.read().gcm, seg, &mb, &mut sealed);
        self.profiler.meta_sealed(1);
        let offset = self.geometry.metadata_block_offset(seg);
        let written = self
            .io
            .write_one(&file.name, offset, &[IoSlice::new(&sealed)]);
        file.media_segments = match written {
            Ok(()) => file.media_segments.max(seg + 1),
            Err(_) => UNKNOWN_SEGMENTS,
        };
        written?;
        file.cache_meta(seg, mb);
        Ok(())
    }

    /// Mutates the metadata block for `segment` **in place** — taken out of
    /// the cache, not cloned — and persists it ([`Engine::put_meta`]). Only
    /// called under the shim's exclusive file guard, so no reader observes
    /// the cache between the mutation and the write.
    pub(super) fn update_meta(
        &self,
        file: &mut LamassuFile,
        segment: u64,
        mutate: impl FnOnce(&mut MetadataBlock) -> Result<()>,
    ) -> Result<()> {
        let mut mb = self.take_meta(file, segment)?;
        mutate(&mut mb)?;
        self.put_meta(file, segment, mb)
    }
}
