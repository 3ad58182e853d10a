//! The Lamassu data path: segment I/O, multiphase commit, recovery.
//!
//! [`Engine`] holds everything shared by all files of one mount (backing
//! store, geometry, crypto contexts, the block-buffer pool, profiler);
//! [`LamassuFile`] holds the per-object state (logical size, the in-memory
//! write buffer, a decrypted-metadata cache, and the reusable commit
//! staging). All the mechanics described in §2.2–§2.5 of the paper live here.
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
//! # The commit pipeline
//!
//! A flush commits the whole pending set as one pipeline
//! ([`Engine::commit_batch`]): stage up to one span of blocks contiguously,
//! derive every key and encrypt the span with one batch call each, then run
//! the §2.4 protocol as pure sealing and I/O ([`Engine::commit_rounds`]) —
//! rounds of at most `R` blocks per segment, round *j* of every touched
//! segment in the same pair of phases, the metadata write that closes one
//! round merged with the one that opens the next. Each segment keeps its
//! metadata → data → metadata order, so recovery is untouched; several
//! segments can be mid-update at one crash.
//!
//! The same merge runs *across* commits. A commit that `write` runs because
//! the span filled stops after its last data barrier and leaves every
//! segment it wrote **open**: mid-update, with transient entries that name
//! only blocks whose data has landed. The file keeps the sorted list of open
//! segments, and its next commit closes them in its own first metadata
//! phase — in the opening write of a segment it writes again, with a
//! close-only write of one it does not. A forced flush (`fsync`, `close`,
//! `truncate`, `rename`, `verify`, re-keying) commits what is pending and
//! closes every open segment in its last phase (with nothing pending, that
//! is one close-only phase), so after it the media holds no segment of the
//! file mid-update. An open segment is exactly a segment between two rounds
//! of one commit: a crash leaves nothing `recover` does not already handle,
//! and `recover` keeps every new key of an open segment. A block the media
//! holds mid-update that the file did *not* leave open — an unrecovered
//! crash — is resolved by the recovery rule ([`Engine::recover_segment`])
//! before a commit rewrites it.
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
//! # The read memo
//!
//! Under full integrity the span pipeline keeps a bounded per-mount memo of
//! (key, ciphertext, plaintext) triples of a format version, found by a
//! keyed PRF of the key (the `memo` module says why a hit is exact, and how
//! entries are indexed, admitted and bounded). Both directions use it:
//!
//! * [`Engine::open_blocks`] consults it for every landed block of a run,
//!   edges included. A hit — same key, byte-identical ciphertext — is a copy
//!   of the plaintext; the misses decrypt and are checked as before, in
//!   place when the run had no hit and compacted into one batch when it had
//!   some. The backend read is issued either way.
//! * A span commit ([`Engine::encrypt_reusing`]) consults it for every block
//!   of the batch after the one batch derive. A hit — same key, equal
//!   plaintext — takes the entry's ciphertext instead of being encrypted;
//!   the misses are encrypted as one batch, the same way. Once the commit
//!   has landed it admits its duplicates and its overwrites of memoized
//!   blocks.
//!
//! `verify`, `recover`, the write path's read-modify-write, truncate and the
//! per-block prototype go through the full path, and re-keying clears the
//! memo.
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

use super::memo::{Admit, ReadMemo};
use crate::iovec;
use crate::lamassufs::{IntegrityMode, LamassuConfig};
use crate::mount::{MountEngine, MountFile};
use crate::pool::{with_tls, BlockBuf, BlockPool};
use crate::profiler::{Category, Profiler};
use crate::span::{SpanPlanner, SpanPolicy, KERNELS};
use crate::spanio::{Landed, Run, SpanIo, WriteBatch};
use crate::{FsError, Result};
use lamassu_crypto::aes::Aes256;
use lamassu_crypto::gcm::Aes256Gcm;
use lamassu_crypto::kdf::{ConvergentKdf, HashVersion};
use lamassu_crypto::pool::CryptoPool;
use lamassu_crypto::util::constant_time_eq;
use lamassu_crypto::{batch, cbc, fixsliced, stats};
use lamassu_crypto::{Key256, FIXED_IV};
use lamassu_format::{FormatError, Geometry, MetadataBlock, TransientEntry};
use lamassu_keymgr::ZoneKeys;
use lamassu_storage::ObjectStore;
use parking_lot::{Mutex, RwLock};
use rand::RngCore;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::IoSlice;
use std::ops::Range;
use std::sync::Arc;

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

thread_local! {
    /// Span-read planning scratch: the runs of consecutive disk-backed
    /// blocks (each tagged with the index of its first key), the flat
    /// per-run key copies, and the hole block indices of the current segment
    /// group. Thread-local so the read path can use it under a *shared* file
    /// borrow, reused so the steady state allocates nothing.
    static RUN_SCRATCH: RefCell<(Vec<Run>, Vec<Key256>, Vec<u64>)> =
        const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
    /// Derived/recomputed key scratch (integrity re-derivation, the keys of
    /// one commit batch).
    static KEY_SCRATCH: RefCell<Vec<Key256>> = const { RefCell::new(Vec::new()) };
    /// One metadata phase of a commit: a pooled block per segment the phase
    /// writes, and those segments (the blocks go back to the pool when the
    /// phase has been submitted).
    static SEAL_SCRATCH: RefCell<(Vec<BlockBuf>, Vec<PhaseSeg>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
    /// One read run's or commit batch's memo misses, the staging their
    /// bytes batch through (or, on a batch run in place, the admission
    /// candidates' saved ciphertext or plaintext), and their keys. At most a
    /// span of blocks.
    static MISS_SCRATCH: RefCell<(Vec<Miss>, Vec<u8>, Vec<Key256>)> =
        const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// A segment that writes its metadata block in the current phase: its index
/// in the batch's segment list, and the nonce it is sealed under.
type PhaseSeg = (usize, [u8; 12]);

/// A block the read memo missed: its index in the run, and whether this is
/// its second sighting (an admission candidate once it passes §2.5).
type Miss = (usize, bool);

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

/// Crypto material derived from the zone keys, rebuilt on re-keying.
struct CryptoCtx {
    keys: ZoneKeys,
    /// The inner key's KDF for each format version a file can have.
    kdf_v1: ConvergentKdf,
    kdf_v2: ConvergentKdf,
    gcm: Aes256Gcm,
}

impl CryptoCtx {
    fn new(keys: ZoneKeys) -> Self {
        CryptoCtx {
            kdf_v1: ConvergentKdf::with_version(&keys.inner, HashVersion::V1),
            kdf_v2: ConvergentKdf::with_version(&keys.inner, HashVersion::V2),
            gcm: Aes256Gcm::new(&keys.outer),
            keys,
        }
    }

    /// The KDF a file of format `version` derives its keys with.
    fn kdf(&self, version: HashVersion) -> &ConvergentKdf {
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
    name: String,
    /// The file's format version, fixed at creation (see the module docs).
    version: HashVersion,
    logical_size: u64,
    size_dirty: bool,
    /// Dirty plaintext blocks not yet committed, sorted by logical block
    /// index. Flushed once it holds one span ([`SPAN_BLOCKS`]). The
    /// buffers come from the mount's [`BlockPool`] and return to it when
    /// the flush drains them; the `Vec`'s own capacity persists across
    /// flushes, so steady-state writing allocates nothing.
    pending: Vec<(u64, BlockBuf)>,
    /// Decrypted metadata blocks, keyed by segment index. Kept in sync with
    /// disk by the in-place update path. Behind its own lock (held only to
    /// probe, insert or copy out — never across I/O) so the read path can
    /// populate it under a shared file guard.
    meta_cache: Mutex<HashMap<u64, MetadataBlock>>,
    /// Contiguous staging for one commit batch (≤ [`SPAN_BLOCKS`]
    /// blocks): plaintext is gathered here, encrypted in place as one span,
    /// and written out run by run. Reused across commits and never more than
    /// one span.
    commit_buf: Vec<u8>,
    /// Block indices of the batch staged in `commit_buf`, ascending (reused).
    commit_ids: Vec<u64>,
    /// The segments the staged batch writes (reused; empty between commits).
    commit_segs: Vec<SegCommit>,
    /// The segments the last commit left open, ascending (reused): still
    /// mid-update, with transient entries that name only blocks whose data
    /// has landed. The file's next commit closes them.
    open: Vec<u64>,
}

/// One segment's share of a staged commit batch.
struct SegCommit {
    segment: u64,
    /// The segment's metadata block, held outside the per-file cache while
    /// the commit runs: re-inserted on success, dropped on error.
    mb: MetadataBlock,
    /// The segment's blocks, as an index range into the batch — empty for a
    /// segment the last commit left open that this one only closes.
    blocks: Range<usize>,
    /// How many metadata phases, from the first, write the segment's block.
    phases: usize,
}

impl SegCommit {
    /// `segment`'s share `blocks`, in rounds of at most `r`: one metadata
    /// write per round, plus a closing one if the commit `close`s its
    /// segments. A close-only share is one write.
    fn new(segment: u64, mb: MetadataBlock, blocks: Range<usize>, r: usize, close: bool) -> Self {
        let phases = match blocks.len().div_ceil(r) {
            0 => 1,
            rounds => rounds + close as usize,
        };
        SegCommit {
            segment,
            mb,
            blocks,
            phases,
        }
    }

    /// Batch indices of the segment's `round`-th group of at most `r` blocks
    /// (empty once the segment has run out of blocks).
    fn round(&self, round: usize, r: usize) -> Range<usize> {
        let start = (self.blocks.start + round * r).min(self.blocks.end);
        start..(start + r).min(self.blocks.end)
    }
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
            open: Vec::new(),
        }
    }

    /// The file's format version.
    pub(crate) fn version(&self) -> HashVersion {
        self.version
    }

    /// Puts a decrypted metadata block (back) into the bounded cache.
    fn cache_meta(&self, segment: u64, mb: MetadataBlock) {
        let mut cache = self.meta_cache.lock();
        if cache.len() >= META_CACHE_CAP {
            cache.clear();
        }
        cache.insert(segment, mb);
    }

    /// The buffered plaintext for `block`, if it is staged for commit.
    fn pending_block(&self, block: u64) -> Option<&BlockBuf> {
        self.pending
            .binary_search_by_key(&block, |(b, _)| *b)
            .ok()
            .map(|i| &self.pending[i].1)
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
    io: SpanIo,
    pub(super) geometry: Geometry,
    pub(super) integrity: IntegrityMode,
    policy: SpanPolicy,
    /// The mount's shared crypto worker pool (see [`crate::span`]).
    pool: CryptoPool,
    /// The mount's recycled block-buffer pool (see [`crate::pool`]).
    pub(super) blocks: BlockPool,
    planner: SpanPlanner,
    /// How many dirty blocks a file buffers before `write` commits them:
    /// one span on the pipeline, `R` on the per-block prototype (whose write
    /// buffer *was* its transient area — §4, Figure 10). Fixed at mount.
    commit_trigger: usize,
    crypto: RwLock<CryptoCtx>,
    /// Verified or written blocks, ciphertext and plaintext: present on the
    /// span pipeline under full integrity, the one mode that checks what a
    /// read admits.
    memo: Option<ReadMemo>,
    profiler: Arc<Profiler>,
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

    /// Replaces the mount's key pair (after a completed re-keying pass) and
    /// forgets what the read memo verified under the old one.
    pub(crate) fn switch_keys(&self, keys: ZoneKeys) {
        *self.crypto.write() = CryptoCtx::new(keys);
        if let Some(memo) = &self.memo {
            memo.clear();
        }
    }

    /// Additional authenticated data binding a metadata block to its segment
    /// position so sealed blocks cannot be transplanted between segments.
    /// A fixed-size stack value — the hot write path builds one per seal.
    fn aad(segment: u64) -> [u8; 23] {
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
        let file = LamassuFile::new(name, mb.version);
        self.write_meta(&file, 0, mb)?;
        Ok(file)
    }

    /// Loads an existing object: its format version from segment 0's
    /// metadata block, its authoritative logical size from the final
    /// segment's (paper §2.3). An object shorter than one metadata block
    /// opens as an empty file of the current version.
    fn load(&self, name: &str) -> Result<LamassuFile> {
        let current = HashVersion::for_block_size(self.geometry.block_size());
        let mut file = LamassuFile::new(name, current);
        if let Some(first) = self.fetch_meta(&file, 0)? {
            file.version = first.version;
            file.cache_meta(0, first);
        }
        let last = self.last_physical_segment(name)?;
        let size = self.with_meta(&file, last, |mb| mb.logical_size)?;
        file.logical_size = size;
        Ok(file)
    }

    /// Under [`SpanPolicy::Batched`] the span pipeline fetches whole runs of
    /// blocks per backend round trip and decrypts them in parallel;
    /// [`SpanPolicy::PerBlock`] keeps the original one-block-at-a-time path.
    ///
    /// Takes only a shared borrow: the mount serves this under its read
    /// guard, so any number of readers run concurrently on one file.
    fn read(&self, file: &LamassuFile, offset: u64, buf: &mut [u8]) -> Result<()> {
        match self.policy {
            SpanPolicy::PerBlock => self.read_range_per_block(file, offset, buf),
            SpanPolicy::Batched => self.read_range_batched(file, offset, buf),
        }
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
    /// file's next commit to close (the module docs' commit pipeline).
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

    /// Truncates (or extends) the file to `new_size` logical bytes.
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
            // Drop keys for blocks past the new end.
            let first_dropped = self.geometry.data_blocks_for_len(new_size);
            let last_old = self.geometry.data_blocks_for_len(old_size);
            let new_segments = self.geometry.segments_for_len(new_size);
            let mut block = first_dropped;
            while block < last_old {
                let loc = self.geometry.locate_block(block);
                if loc.segment >= new_segments {
                    // The rest of the blocks live in segments that disappear
                    // with the physical truncate.
                    break;
                }
                // Clear every dropped slot of this segment with one metadata
                // update.
                let seg_end_block =
                    (loc.segment + 1) * self.geometry.keys_per_metadata_block() as u64;
                let clear_to = seg_end_block.min(last_old);
                self.update_meta(file, loc.segment, |mb| {
                    for b in block..clear_to {
                        let slot = (b % self.geometry.keys_per_metadata_block() as u64) as usize;
                        mb.clear_key(slot)?;
                    }
                    Ok(())
                })?;
                block = clear_to;
            }
            // Shrink the physical object and drop stale cache entries.
            let physical = self.geometry.encrypted_size(new_size);
            self.io.call(|s| s.truncate(&file.name, physical))?;
            file.meta_cache.lock().retain(|seg, _| *seg < new_segments);
        }

        let final_segment = self.final_segment(file);
        self.update_meta(file, final_segment, |mb| {
            mb.logical_size = new_size;
            Ok(())
        })?;
        file.size_dirty = false;
        Ok(())
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

/// A random 96-bit GCM nonce from the calling thread's generator.
fn fresh_nonce() -> [u8; 12] {
    let mut nonce = [0u8; 12];
    rand::thread_rng().fill_bytes(&mut nonce);
    nonce
}

impl Engine {
    /// Index of the last segment present in the physical object.
    fn last_physical_segment(&self, name: &str) -> Result<u64> {
        let physical = self.io.call(|s| s.len(name))?;
        let seg_bytes = self.geometry.segment_bytes();
        Ok(physical.div_ceil(seg_bytes).max(1) - 1)
    }

    // ------------------------------------------------------------------
    // Metadata I/O
    // ------------------------------------------------------------------

    /// Fetches and decrypts the metadata block for `segment` from the store
    /// (no cache interaction); `None` for a segment that does not exist on
    /// disk yet or reads back as an all-zero sparse hole.
    fn fetch_meta(&self, file: &LamassuFile, segment: u64) -> Result<Option<MetadataBlock>> {
        let offset = self.geometry.metadata_block_offset(segment);
        let bs = self.geometry.block_size();
        let mut staged = self.blocks.take();
        let n = self
            .io
            .call(|s| s.read_into(&file.name, offset, &mut staged))?;
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
    fn with_meta<T>(
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
        let mut cache = file.meta_cache.lock();
        if cache.len() >= META_CACHE_CAP {
            cache.clear();
        }
        // A concurrent reader may have inserted meanwhile — both fetched the
        // same decrypted bytes, so either value serves.
        Ok(f(cache.entry(segment).or_insert(mb)))
    }

    /// Reads (and caches) the metadata block for `segment` as an owned
    /// value. Cold-path form of [`Engine::with_meta`] for recovery and
    /// verification sweeps that hold onto the block.
    fn read_meta(&self, file: &LamassuFile, segment: u64) -> Result<MetadataBlock> {
        self.with_meta(file, segment, |mb| mb.clone())
    }

    /// Seals `mb` as `segment`'s metadata block into `sealed_out` under a
    /// fresh random nonce.
    fn seal_meta(&self, segment: u64, mb: &MetadataBlock, sealed_out: &mut [u8]) {
        let nonce = fresh_nonce();
        let crypto = self.crypto.read();
        self.profiler.time(Category::Encrypt, || {
            mb.seal_into(
                &self.geometry,
                &crypto.gcm,
                &nonce,
                &Self::aad(segment),
                sealed_out,
            )
        });
        self.profiler.meta_sealed(1);
    }

    /// Seals `sealed_out` from `mb` and writes it at `segment`'s offset.
    fn seal_and_write(
        &self,
        file: &LamassuFile,
        segment: u64,
        mb: &MetadataBlock,
        sealed_out: &mut [u8],
    ) -> Result<()> {
        self.seal_meta(segment, mb, sealed_out);
        let offset = self.geometry.metadata_block_offset(segment);
        self.io.call(|s| s.write_at(&file.name, offset, sealed_out))
    }

    /// Seals and writes the metadata block for `segment`, updating the cache
    /// after the write lands (cold paths: create, truncate sweeps, recovery).
    fn write_meta(&self, file: &LamassuFile, segment: u64, mb: MetadataBlock) -> Result<()> {
        let mut sealed = self.blocks.take();
        self.seal_and_write(file, segment, &mb, &mut sealed)?;
        file.cache_meta(segment, mb);
        Ok(())
    }

    /// Moves the metadata block for `segment` out of the cache (a move, not a
    /// clone; loading it on a miss) so a writer can mutate, seal and write it
    /// without the cache lock — keeping the "never held across I/O or crypto"
    /// invariant literally true. Only called under the shim's exclusive file
    /// guard, so the entry's absence is unobservable; the caller puts it back
    /// once its write has landed and simply drops it on error.
    fn take_meta(&self, file: &LamassuFile, segment: u64) -> Result<MetadataBlock> {
        let cached = file.meta_cache.lock().remove(&segment);
        match cached {
            Some(mb) => Ok(mb),
            None => self.load_meta(file, segment),
        }
    }

    /// Mutates the cached metadata block for `segment` **in place** and
    /// persists it — the hot commit path's form of [`Engine::write_meta`]:
    /// no clone of the key table, sealing into a pooled block.
    ///
    /// Only called under the shim's exclusive file guard (commit, truncate,
    /// size persistence), so no reader observes the cache between the
    /// mutation and the write. If the mutation or the write fails, the
    /// cache entry is dropped so a later read refetches the on-disk truth
    /// instead of trusting a half-applied update.
    fn update_meta(
        &self,
        file: &LamassuFile,
        segment: u64,
        mutate: impl FnOnce(&mut MetadataBlock) -> Result<()>,
    ) -> Result<()> {
        let mut mb = self.take_meta(file, segment)?;
        let mut sealed = self.blocks.take();
        mutate(&mut mb)?;
        self.seal_and_write(file, segment, &mb, &mut sealed)?;
        // Re-insert only after the write landed; on any error above the
        // entry stays absent and a later read refetches the on-disk truth.
        file.cache_meta(segment, mb);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Data-block crypto
    // ------------------------------------------------------------------

    /// Derives the convergent key for one plaintext block of a file of
    /// format `version` (Equation 1), charging the hash/KDF time to the
    /// `GetCEKey` category. A one-block span: it runs on the lane kernels
    /// (under v2 all four SHA-256 lanes).
    fn derive_key(&self, version: HashVersion, plaintext: &[u8]) -> Key256 {
        let crypto = self.crypto.read();
        let mut key = [[0u8; 32]];
        self.profiler.time(Category::GetCeKey, || {
            batch::derive_span_into(
                &self.pool,
                crypto.kdf(version),
                plaintext,
                plaintext.len(),
                &mut key,
                KERNELS,
            )
            .expect("one whole block")
        });
        key[0]
    }

    /// Convergent encryption of one data block in place (Equation 2).
    /// A single block is one strict CBC chain — below the wide kernel's
    /// amortization width — so this always uses the T-table path (the
    /// documented scalar fallback of the fixsliced backend).
    fn encrypt_in_place(&self, buf: &mut [u8], key: &Key256) {
        self.profiler.time(Category::Encrypt, || {
            stats::count_scalar_blocks(buf.len() / 16);
            let cipher = Aes256::new(key);
            cbc::encrypt_in_place(&cipher, &FIXED_IV, buf)
                .expect("data blocks are 16-byte aligned");
        })
    }

    /// Decryption of one data block in place. CBC decryption is wide
    /// *within* a chain, so even one block takes the wide kernel.
    fn decrypt_in_place(&self, buf: &mut [u8], key: &Key256) {
        self.profiler.time(Category::Decrypt, || {
            stats::count_wide_blocks(buf.len() / 16);
            let cipher = fixsliced::Aes256Fix::new(key);
            fixsliced::cbc_decrypt(&cipher, &FIXED_IV, buf);
        })
    }

    /// Decryption of one data block into a fresh vector (recovery path).
    fn decrypt_block(&self, ciphertext: &[u8], key: &Key256) -> Vec<u8> {
        let mut buf = ciphertext.to_vec();
        self.decrypt_in_place(&mut buf, key);
        buf
    }

    /// The §2.5 integrity self-check: the hash of the decrypted block must
    /// re-derive the key it was decrypted with (compared in constant time —
    /// both sides are key material).
    fn key_matches_plaintext(&self, version: HashVersion, plaintext: &[u8], key: &Key256) -> bool {
        constant_time_eq(&self.derive_key(version, plaintext), key)
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Reads one logical block as plaintext into `dest` (exactly one block
    /// long). Returns `false` — with `dest` zero-filled — when the block has
    /// never been written (a hole).
    fn read_block_into(
        &self,
        file: &LamassuFile,
        logical_block: u64,
        dest: &mut [u8],
        force_integrity: bool,
    ) -> Result<bool> {
        debug_assert_eq!(dest.len(), self.geometry.block_size());
        if let Some(plain) = file.pending_block(logical_block) {
            dest.copy_from_slice(plain);
            return Ok(true);
        }
        let loc = self.geometry.locate_block(logical_block);
        let key = match self.with_meta(file, loc.segment, |mb| mb.key(loc.slot).copied())? {
            Some(k) => k,
            None => {
                dest.fill(0);
                return Ok(false);
            }
        };
        let n = self
            .io
            .call(|s| s.read_into(&file.name, loc.physical_offset, dest))?;
        if n < dest.len() {
            // Key present but data never reached disk (should only happen on
            // an unrecovered crash); treat as a hole.
            dest.fill(0);
            return Ok(false);
        }
        self.decrypt_in_place(dest, &key);
        let check = force_integrity || matches!(self.integrity, IntegrityMode::Full);
        if check && !self.key_matches_plaintext(file.version, dest, &key) {
            return Err(FsError::IntegrityViolation {
                path: file.name.clone(),
                logical_block,
            });
        }
        Ok(true)
    }

    /// The per-block read pipeline: one backend read and one serial decrypt
    /// per block. Whole aligned blocks are decrypted directly in `buf`;
    /// sub-block spans stage through one lazily borrowed pooled block
    /// (per-call, so concurrent readers never share scratch memory).
    fn read_range_per_block(&self, file: &LamassuFile, offset: u64, buf: &mut [u8]) -> Result<()> {
        let bs = self.geometry.block_size();
        let mut scratch: Option<BlockBuf> = None;
        let mut out = 0usize;
        for (block, in_block, take) in self.geometry.block_spans(offset, buf.len()) {
            if in_block == 0 && take == bs {
                self.read_block_into(file, block, &mut buf[out..out + take], false)?;
            } else {
                let scratch = scratch.get_or_insert_with(|| self.blocks.take());
                self.read_block_into(file, block, scratch, false)?;
                buf[out..out + take].copy_from_slice(&scratch[in_block..in_block + take]);
            }
            out += take;
        }
        Ok(())
    }

    /// The span read pipeline: plans the range, classifies every block from
    /// the metadata into pending blocks, holes and maximal runs of
    /// consecutive disk-backed blocks, and hands the runs of the **whole**
    /// span — so that under the default async mode all of them are in flight
    /// together — to the span-I/O driver, which calls [`Engine::finish_run`]
    /// on each run as it lands. Pending (buffered) blocks and holes are
    /// served without touching the store. Run boundaries and key copies live
    /// in thread-local scratch, so a warm read allocates nothing.
    fn read_range_batched(&self, file: &LamassuFile, offset: u64, buf: &mut [u8]) -> Result<()> {
        let plan = self
            .profiler
            .time(Category::Plan, || self.planner.plan(offset, buf.len()));
        let n_per_seg = self.geometry.keys_per_metadata_block() as u64;
        with_tls(&RUN_SCRATCH, |(runs, keys, holes)| {
            runs.clear();
            keys.clear();
            let mut block = plan.first_block;
            while block <= plan.last_block {
                let segment = block / n_per_seg;
                let group_end = ((segment + 1) * n_per_seg - 1).min(plan.last_block);
                holes.clear();
                let group_first_run = runs.len();
                // Classify every block of the segment group under one cache
                // probe. The closure only copies keys out and records run /
                // hole boundaries — all byte shuffling happens after the
                // lock drops, so concurrent readers serialize on key copies
                // only.
                self.with_meta(file, segment, |mb| {
                    for b in block..=group_end {
                        if file.pending_block(b).is_some() {
                            // Served from the write buffer below (outside
                            // the lock — `pending` is stable under the
                            // shared file guard).
                            continue;
                        }
                        let slot = (b % n_per_seg) as usize;
                        match mb.key(slot) {
                            None => holes.push(b),
                            Some(key) => {
                                // Consecutive logical blocks of one segment
                                // are physically contiguous; runs never merge
                                // across a segment boundary, where a metadata
                                // block sits between the groups on disk.
                                match runs[group_first_run..].last_mut() {
                                    Some(run) if run.first + run.blocks as u64 == b => {
                                        run.blocks += 1
                                    }
                                    _ => runs.push(Run {
                                        first: b,
                                        blocks: 1,
                                        offset: self.geometry.locate_block(b).physical_offset,
                                        tag: keys.len(),
                                    }),
                                }
                                keys.push(*key);
                            }
                        }
                    }
                })?;
                for b in block..=group_end {
                    if let Some(plain) = file.pending_block(b) {
                        let (in_block, take) = plan.span_of(b);
                        buf[plan.buf_range(b)].copy_from_slice(&plain[in_block..in_block + take]);
                    }
                }
                for &b in holes.iter() {
                    buf[plan.buf_range(b)].fill(0);
                }
                block = group_end + 1;
            }
            self.io.read_runs(
                &self.blocks,
                &file.name,
                &plan,
                runs.iter().copied(),
                buf,
                |run, landed| {
                    self.finish_run(file, run, &keys[run.tag..run.tag + run.blocks], landed)
                },
            )
        })
    }

    /// The codec half of a span-read run, called by the driver once the
    /// run's read has landed: the staged head block, the middle and the
    /// staged tail block are each opened by [`Engine::open_blocks`], in that
    /// order, so of several bad blocks the first is reported. Blocks a short
    /// read could not produce (a key present but the data never on disk —
    /// only possible after an unrecovered crash) read as holes, exactly like
    /// the per-block path, and never leak a staging block's stale bytes. A
    /// fully aligned run — the steady-state shape — has no edges: its
    /// ciphertext landed in the caller's buffer and is opened there, with
    /// zero allocation.
    fn finish_run(
        &self,
        file: &LamassuFile,
        run: &Run,
        keys: &[Key256],
        landed: Landed<'_>,
    ) -> Result<()> {
        let bs = self.geometry.block_size();
        let Landed { n, head, mid, tail } = landed;
        let read_blocks = (n / bs).min(keys.len());
        let head_blocks = head.is_some() as usize;
        let tail_at = head_blocks + mid.len() / bs;
        for (at, part) in [(0, head), (head_blocks, Some(mid)), (tail_at, tail)] {
            let Some(part) = part else { continue };
            let read = read_blocks.saturating_sub(at).min(part.len() / bs);
            let (part, unread) = part.split_at_mut(read * bs);
            unread.fill(0);
            self.open_blocks(file, run.first + at as u64, &keys[at..at + read], part)?;
        }
        Ok(())
    }

    /// Opens `blocks` — the landed ciphertext of consecutive logical blocks
    /// from `first`, one key each — into plaintext in place. Blocks the read
    /// memo holds are copied out of it; the misses go through
    /// [`Engine::open_batch`] — in place when nothing hit, so a cold run runs
    /// exactly as it would without a memo, and otherwise compacted into
    /// thread-local staging, so they still reach the wide kernels and the
    /// pool's fan-out as one batch. A miss on its second sighting is admitted
    /// once the batch has passed §2.5; its ciphertext is saved first when the
    /// batch decrypts in place.
    fn open_blocks(
        &self,
        file: &LamassuFile,
        first: u64,
        keys: &[Key256],
        blocks: &mut [u8],
    ) -> Result<()> {
        let violation = |i: usize| FsError::IntegrityViolation {
            path: file.name.clone(),
            logical_block: first + i as u64,
        };
        let version = file.version;
        let Some(memo) = self.memo.as_ref().filter(|_| !keys.is_empty()) else {
            return self.open_batch(version, keys, blocks).map_err(violation);
        };
        let bs = self.geometry.block_size();
        let at = |i: usize| i * bs..(i + 1) * bs;
        with_tls(&MISS_SCRATCH, |(misses, stage, miss_keys)| {
            misses.clear();
            stage.clear();
            miss_keys.clear();
            let hits = memo.serve(version, keys, blocks, misses);
            let candidates = || misses.iter().filter(|(_, candidate)| *candidate);
            if hits == 0 {
                for &(i, _) in candidates() {
                    stage.extend_from_slice(&blocks[at(i)]);
                }
                self.open_batch(version, keys, blocks).map_err(violation)?;
                let saved = stage.chunks_exact(bs);
                memo.admit(
                    version,
                    Admit::Read,
                    candidates()
                        .zip(saved)
                        .map(|(&(i, _), cipher)| (&keys[i], cipher, &blocks[at(i)])),
                );
            } else if !misses.is_empty() {
                for &(i, _) in misses.iter() {
                    stage.extend_from_slice(&blocks[at(i)]);
                    miss_keys.push(keys[i]);
                }
                self.open_batch(version, miss_keys, stage)
                    .map_err(|j| violation(misses[j].0))?;
                memo.admit(
                    version,
                    Admit::Read,
                    misses
                        .iter()
                        .zip(stage.chunks_exact(bs))
                        .filter(|((_, candidate), _)| *candidate)
                        .map(|(&(i, _), plain)| (&keys[i], &blocks[at(i)], plain)),
                );
                for (&(i, _), plain) in misses.iter().zip(stage.chunks_exact(bs)) {
                    blocks[at(i)].copy_from_slice(plain);
                }
            }
            Ok(())
        })
    }

    /// Decrypts `data` — whole blocks, one key each — in place as one batch
    /// and, under full integrity, re-derives every key as one batch into
    /// thread-local scratch for the §2.5 check. `Err(i)`: block `i` is the
    /// first whose plaintext does not re-derive its key.
    fn open_batch(
        &self,
        version: HashVersion,
        keys: &[Key256],
        data: &mut [u8],
    ) -> std::result::Result<(), usize> {
        if keys.is_empty() {
            return Ok(());
        }
        let bs = self.geometry.block_size();
        self.profiler.time(Category::Decrypt, || {
            batch::decrypt_span(&self.pool, keys, &FIXED_IV, data, bs, KERNELS)
                .expect("data blocks are 16-byte aligned")
        });
        if self.integrity == IntegrityMode::MetaOnly {
            return Ok(());
        }
        let crypto = self.crypto.read();
        with_tls(&KEY_SCRATCH, |derived| {
            derived.clear();
            derived.resize(keys.len(), [0u8; 32]);
            self.profiler.time(Category::GetCeKey, || {
                batch::derive_span_into(&self.pool, crypto.kdf(version), data, bs, derived, KERNELS)
                    .expect("span length matches key count")
            });
            match derived
                .iter()
                .zip(keys)
                .position(|(got, want)| !constant_time_eq(got, want))
            {
                Some(i) => Err(i),
                None => Ok(()),
            }
        })
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Commits every buffered block and persists the logical size; `close`
    /// also closes the segments the commit leaves open (a forced flush),
    /// otherwise the next commit does (a `write` that fills the span).
    ///
    /// The whole pending set goes through [`Engine::commit_batch`] (the
    /// per-block oracle: [`Engine::commit_chunk`], one chunk at a time).
    ///
    /// A failed flush has one rule: **no block of it stays half-pending**.
    /// Everything still buffered is dropped with it — the caller got the
    /// error instead of an acknowledgement — and the metadata-cache entry of
    /// every segment the failed commit touched is gone (the pipeline holds
    /// them outside the cache and only re-inserts them on success), so later
    /// reads refetch the on-disk truth, which [`Engine::recover`] repairs.
    fn commit_buffer(&self, file: &mut LamassuFile, close: bool) -> Result<()> {
        let result = self
            .commit_pending(file, close)
            .and_then(|()| self.persist_size(file));
        if result.is_err() {
            file.pending.clear();
        }
        // Bounded staging: the next span commit reuses the buffer (it would
        // otherwise reallocate a span per commit), and amortized growth never
        // leaves more than one span pinned to an open file.
        let keep = SPAN_BLOCKS * self.geometry.block_size();
        file.commit_buf.clear();
        if file.commit_buf.capacity() > keep {
            file.commit_buf.shrink_to(keep);
        }
        result
    }

    /// Commits the pending set batch by batch. Every batch leaves its
    /// segments open for the next to close, except the last of a `close`
    /// flush — which, with nothing pending, is a batch that only closes.
    fn commit_pending(&self, file: &mut LamassuFile, close: bool) -> Result<()> {
        match self.policy {
            SpanPolicy::Batched => {
                while !file.pending.is_empty() || (close && !file.open.is_empty()) {
                    let last = file.pending.len() <= SPAN_BLOCKS;
                    self.commit_batch(file, close && last)?;
                }
            }
            SpanPolicy::PerBlock => {
                while !file.pending.is_empty() {
                    self.commit_chunk(file)?;
                }
            }
        }
        Ok(())
    }

    /// Writes the logical size into the final segment's metadata block if no
    /// commit carried it there already.
    fn persist_size(&self, file: &mut LamassuFile) -> Result<()> {
        if file.size_dirty {
            let final_segment = self.final_segment(file);
            let size = file.logical_size;
            self.update_meta(file, final_segment, |mb| {
                mb.logical_size = size;
                Ok(())
            })?;
            file.size_dirty = false;
        }
        Ok(())
    }

    /// Index of the segment holding the authoritative logical size.
    fn final_segment(&self, file: &LamassuFile) -> u64 {
        self.geometry.segments_for_len(file.logical_size).max(1) - 1
    }

    /// Commits the first (up to) [`SPAN_BLOCKS`] pending blocks as one
    /// pipeline: stage them contiguously, derive every key in one batch and
    /// encrypt the staged span in one batch — so the wide kernels and the
    /// worker pool see the whole set, not `R` blocks at a time; with a read
    /// memo, only the blocks it cannot give the ciphertext of
    /// ([`Engine::encrypt_reusing`]) — and only then run the §2.4 protocol
    /// over them as pure sealing and I/O ([`Engine::commit_rounds`]). The pooled staging buffers return to the
    /// pool the moment their plaintext is copied out. Unless the batch
    /// `close`s, the segments it writes are the file's open set afterwards.
    fn commit_batch(&self, file: &mut LamassuFile, close: bool) -> Result<()> {
        let bs = self.geometry.block_size();
        let k = file.pending.len().min(SPAN_BLOCKS);
        let mut data = std::mem::take(&mut file.commit_buf);
        let mut ids = std::mem::take(&mut file.commit_ids);
        let mut segs = std::mem::take(&mut file.commit_segs);
        data.clear();
        data.reserve(k * bs);
        ids.clear();
        for (block, plain) in file.pending.drain(..k) {
            ids.push(block);
            data.extend_from_slice(&plain);
        }
        let result = with_tls(&KEY_SCRATCH, |keys| {
            keys.clear();
            keys.resize(k, [0u8; 32]);
            if k > 0 {
                let crypto = self.crypto.read();
                self.profiler.time(Category::GetCeKey, || {
                    batch::derive_span_into(
                        &self.pool,
                        crypto.kdf(file.version),
                        &data,
                        bs,
                        keys,
                        KERNELS,
                    )
                    .expect("batch is whole blocks")
                });
            }
            let mut commit =
                |data: &[u8]| self.commit_rounds(file, &ids, keys, data, &mut segs, close);
            match self.memo.as_ref().filter(|_| k > 0) {
                Some(memo) => self.encrypt_reusing(memo, file, &ids, keys, &mut data, commit),
                None => {
                    self.encrypt_batch(keys, &mut data);
                    commit(&data)
                }
            }
        });
        file.open.clear();
        if result.is_ok() {
            for seg in segs.drain(..) {
                if !close && !seg.blocks.is_empty() {
                    file.open.push(seg.segment);
                }
                file.cache_meta(seg.segment, seg.mb);
            }
        }
        // After an error this is what drops the touched segments' metadata.
        segs.clear();
        file.commit_buf = data;
        file.commit_ids = ids;
        file.commit_segs = segs;
        if result? {
            file.size_dirty = false;
        }
        Ok(())
    }

    /// Encrypts `data` — whole blocks, one key each — in place as one batch.
    fn encrypt_batch(&self, keys: &[Key256], data: &mut [u8]) {
        if keys.is_empty() {
            return;
        }
        let bs = self.geometry.block_size();
        self.profiler.time(Category::Encrypt, || {
            batch::encrypt_span(&self.pool, keys, &FIXED_IV, data, bs, KERNELS)
                .expect("batch is whole blocks")
        });
    }

    /// [`Engine::commit_batch`]'s encryption on a mount with a read memo:
    /// turns the staged batch in `data` — plaintext, `keys` derived from it —
    /// into its ciphertext, runs `commit` on it, and feeds the memo once the
    /// commit has landed. A block the memo holds with equal plaintext takes
    /// the entry's ciphertext ([`ReadMemo::reuse`]); only the misses are
    /// encrypted — in place when nothing hit, so a batch of new data runs
    /// exactly as it would without a memo, and otherwise compacted into
    /// thread-local staging, padded with filler chains so that the group
    /// never falls back to the T-table where the whole batch would not have
    /// ([`batch::wide_padding`]: only a group of fewer than
    /// [`batch::WIDE_MIN_BLOCKS`] misses out of a wider batch). The
    /// memo names the misses to admit; their plaintext is kept first — copied
    /// out before an in-place encrypt, or swapped back out of `data` after a
    /// compacted one.
    fn encrypt_reusing(
        &self,
        memo: &ReadMemo,
        file: &LamassuFile,
        ids: &[u64],
        keys: &[Key256],
        data: &mut [u8],
        commit: impl FnOnce(&[u8]) -> Result<bool>,
    ) -> Result<bool> {
        let bs = self.geometry.block_size();
        let at = |i: usize| i * bs..(i + 1) * bs;
        with_tls(&MISS_SCRATCH, |(misses, stage, miss_keys)| {
            misses.clear();
            stage.clear();
            miss_keys.clear();
            let hits = {
                // The key each block replaces, from the metadata cache only.
                let cache = file.meta_cache.lock();
                let old_key = |i: usize| {
                    let loc = self.geometry.locate_block(ids[i]);
                    cache.get(&loc.segment)?.key(loc.slot).copied()
                };
                memo.reuse(file.version, keys, data, old_key, misses)
            };
            if hits == 0 {
                for &(i, _) in misses.iter().filter(|(_, candidate)| *candidate) {
                    stage.extend_from_slice(&data[at(i)]);
                }
                self.encrypt_batch(keys, data);
            } else if !misses.is_empty() {
                for &(i, _) in misses.iter() {
                    stage.extend_from_slice(&data[at(i)]);
                    miss_keys.push(keys[i]);
                }
                // Filler chains (copies of the last miss) keep a narrow
                // group off the T-table, unless the batch was on it too.
                let fill = match batch::wide_padding(keys.len()) {
                    0 => batch::wide_padding(misses.len()),
                    _ => 0,
                };
                let last = stage.len() - bs;
                for _ in 0..fill {
                    stage.extend_from_within(last..last + bs);
                    miss_keys.push(miss_keys[misses.len() - 1]);
                }
                self.encrypt_batch(miss_keys, stage);
                for (&(i, _), block) in misses.iter().zip(stage.chunks_exact_mut(bs)) {
                    data[at(i)].swap_with_slice(block);
                }
            }
            let wrote_size = commit(data)?;
            // The stage holds the candidates' plaintext, or every miss's.
            let data = &*data;
            let staged = misses
                .iter()
                .filter(|(_, candidate)| hits > 0 || *candidate);
            memo.admit(
                file.version,
                Admit::Commit,
                staged
                    .zip(stage.chunks_exact(bs))
                    .filter(|((_, candidate), _)| *candidate)
                    .map(|(&(i, _), plain)| (&keys[i], &data[at(i)], plain)),
            );
            Ok(wrote_size)
        })
    }

    /// The multiphase commit of §2.4 for one staged batch: `ids` ascending,
    /// `keys` and the ciphertext in `data` parallel to it. Returns whether
    /// the batch wrote the authoritative logical size.
    ///
    /// Each touched segment's blocks are cut into rounds of at most `R` (the
    /// transient area holds `R` previous keys). Round *j* of **every**
    /// segment runs in the same pair of phases, each closed by one barrier:
    ///
    /// 1. *metadata*: park the previous keys of the round's blocks in the
    ///    transient area, install the new keys, mark the segment mid-update,
    ///    seal and write the metadata block — merged with the closing write
    ///    of round *j − 1* (clear that round's transient entries), so a
    ///    segment with `n` rounds is sealed `n + 1` times, not `2n`; the
    ///    phase's blocks are sealed as one batch ([`Engine::seal_and_submit_phase`]) and
    ///    then submitted in segment order;
    /// 2. *data*: write the round's ciphertext, one backend write per run of
    ///    adjacent blocks.
    ///
    /// A batch that `close`s ends with a metadata phase that clears the last
    /// transient entries and the mid-update mark. Any other batch stops after
    /// its last data barrier and leaves every segment it wrote **open**:
    /// mid-update, with transient entries that name only blocks whose data
    /// has landed. The file's next batch closes them in its first metadata
    /// phase — merged with the opening write of a segment it writes again,
    /// or as a close-only write of one it does not — so no phase or barrier
    /// is added, and a segment stays open for at most one further commit.
    ///
    /// Every segment still sees the order the recovery rules assume —
    /// metadata, barrier, its data, barrier, metadata — so
    /// [`Engine::recover`] is unchanged: whatever a crash leaves behind, each
    /// segment is either clean or mid-update with the previous key of every
    /// block whose data write may not have landed. An open segment is
    /// exactly a segment between two rounds of one commit. *Several* segments
    /// can be mid-update at once; recovery already scans them all.
    ///
    /// The writes go through one [`SpanIo::write_batch`]: under the default
    /// async mode a phase's writes are submitted back to back and overlap on
    /// the channel's queue-depth lanes, their results — injected faults
    /// included — surfacing at the phase's barrier; the blocking mode runs
    /// the same pipeline one write at a time.
    fn commit_rounds(
        &self,
        file: &LamassuFile,
        ids: &[u64],
        keys: &[Key256],
        data: &[u8],
        segs: &mut Vec<SegCommit>,
        close: bool,
    ) -> Result<bool> {
        let bs = self.geometry.block_size();
        let r = self.geometry.reserved_slots();
        let final_segment = self.final_segment(file);

        // The metadata block of every segment the batch writes — the ones it
        // touches and the ones the last batch left open, in segment order —
        // leaves the cache for the duration; they go back only once the
        // commit is whole. A segment mid-update that the file did not leave
        // open is a commit the media holds interrupted (an unrecovered crash,
        // or an unclean shutdown that left it open): it is resolved first
        // ([`Engine::recover_segment`]), since the batch's first write of it
        // replaces the transient area.
        segs.clear();
        let mut push = |segment: u64, blocks: Range<usize>| -> Result<()> {
            let mut mb = self.take_meta(file, segment)?;
            if mb.flags.is_mid_update() && file.open.binary_search(&segment).is_err() {
                let physical = self.io.call(|s| s.len(&file.name))?;
                let mut report = RecoveryReport::default();
                self.recover_segment(file, segment, &mut mb, physical, &mut report)?;
            }
            segs.push(SegCommit::new(segment, mb, blocks, r, close));
            Ok(())
        };
        let mut open = file.open.iter().copied().peekable();
        let mut first = 0;
        while first < ids.len() {
            let segment = self.geometry.locate_block(ids[first]).segment;
            let len = ids[first..]
                .iter()
                .take_while(|b| self.geometry.locate_block(**b).segment == segment)
                .count();
            while let Some(idle) = open.next_if(|&s| s < segment) {
                push(idle, first..first)?;
            }
            open.next_if_eq(&segment);
            push(segment, first..first + len)?;
            first += len;
        }
        for idle in open {
            push(idle, first..first)?;
        }
        let phases = segs.iter().map(|seg| seg.phases).max().unwrap_or(0);
        if !ids.is_empty() {
            let touched = segs.iter().filter(|seg| !seg.blocks.is_empty()).count();
            self.profiler
                .commit_recorded(ids.len() as u64, touched as u64);
        }

        self.io.write_batch(&file.name, |io| {
            for round in 0..phases {
                // Metadata phase: round `round` of every segment that writes
                // in it, opening that round's blocks and closing the round
                // before in one write. Every write starts from an empty
                // transient area: the entries a previous round or commit left
                // name blocks whose data has landed, and a block the media
                // held mid-update otherwise was resolved above. Every
                // block is updated before any is submitted, so an update that
                // cannot be made fails with nothing in flight.
                for seg in segs.iter_mut().filter(|seg| round < seg.phases) {
                    seg.mb.clear_transient();
                    let opening = seg.round(round, r);
                    seg.mb.flags.set_mid_update(!opening.is_empty());
                    for i in opening {
                        let slot = self.geometry.locate_block(ids[i]).slot;
                        let old_key = seg.mb.key(slot).copied().unwrap_or([0u8; 32]);
                        seg.mb.push_transient(
                            &self.geometry,
                            TransientEntry {
                                slot: slot as u16,
                                old_key,
                            },
                        )?;
                        seg.mb.set_key(slot, keys[i])?;
                    }
                    // Only the final segment's copy is authoritative, but
                    // a crash can leave any touched segment as the last one
                    // on the media, which is where the size is read from.
                    seg.mb.logical_size = file.logical_size;
                }
                self.seal_and_submit_phase(io, segs, round);
                io.barrier()?;

                // Data phase: the round's ciphertext, one write per run of
                // adjacent blocks (`ids` is ascending, and consecutive blocks
                // of one segment are physically contiguous, so each run is
                // one slice of the staging buffer).
                for seg in segs.iter() {
                    let Range { start: mut i, end } = seg.round(round, r);
                    while i < end {
                        let mut j = i + 1;
                        while j < end && ids[j] == ids[j - 1] + 1 {
                            j += 1;
                        }
                        let offset = self.geometry.locate_block(ids[i]).physical_offset;
                        io.write(offset, &[IoSlice::new(&data[i * bs..j * bs])]);
                        i = j;
                    }
                }
                io.barrier()?;
            }
            Ok(())
        })?;
        Ok(segs.iter().any(|seg| seg.segment == final_segment))
    }

    /// Seals the metadata block of every segment that writes one in phase
    /// `round` as one batch, into pooled blocks, then submits the writes in
    /// segment order — the order, and so the backend schedule, of sealing
    /// and submitting them one by one. The nonces are drawn here, on the
    /// caller's thread; the seals (an AES-GCM pass over a block each, the
    /// most expensive single kernel of the write path) fan out by the pool's
    /// tile rule, so a phase of fewer than two tiles of segments — every
    /// sequential commit — seals inline.
    fn seal_and_submit_phase(&self, io: &mut WriteBatch<'_>, segs: &[SegCommit], round: usize) {
        with_tls(&SEAL_SCRATCH, |(sealed, phase)| {
            sealed.clear();
            phase.clear();
            phase.extend(
                (0..segs.len())
                    .filter(|&i| round < segs[i].phases)
                    .map(|i| (i, fresh_nonce())),
            );
            sealed.extend((0..phase.len()).map(|_| self.blocks.take()));
            {
                let crypto = self.crypto.read();
                self.profiler.time(Category::Encrypt, || {
                    self.pool.zip_for_each(sealed, phase, |out, (i, nonce)| {
                        let seg = &segs[*i];
                        seg.mb.seal_into(
                            &self.geometry,
                            &crypto.gcm,
                            nonce,
                            &Self::aad(seg.segment),
                            out,
                        )
                    })
                });
            }
            self.profiler.meta_sealed(phase.len() as u64);
            for (block, (i, _)) in sealed.iter().zip(phase.iter()) {
                let offset = self.geometry.metadata_block_offset(segs[*i].segment);
                io.write(offset, &[IoSlice::new(block)]);
            }
            // The store has copied the bytes out: back to the pool.
            sealed.clear();
        })
    }

    /// The per-block oracle's flush step ([`SpanPolicy::PerBlock`]): the
    /// multiphase commit of §2.4 for the leading run of at most `R` pending
    /// blocks of one segment, one block at a time, as the original prototype
    /// did it — the chunk-at-a-time commit the differential tests replay the
    /// pipeline against:
    ///
    /// 1. derive each key, park the previous keys in the transient area,
    ///    install the new keys, mark the segment mid-update, write the
    ///    metadata block;
    /// 2. encrypt and write each data block with its own backend operation;
    /// 3. clear the mid-update mark and the transient area, write the
    ///    metadata block again.
    fn commit_chunk(&self, file: &mut LamassuFile) -> Result<()> {
        let bs = self.geometry.block_size();
        let segment = self.geometry.locate_block(file.pending[0].0).segment;
        let k = file
            .pending
            .iter()
            .take(self.geometry.reserved_slots())
            .take_while(|(b, _)| self.geometry.locate_block(*b).segment == segment)
            .count();
        let is_final = segment == self.final_segment(file);
        let logical_size = file.logical_size;
        self.profiler.commit_recorded(k as u64, 1);
        let mut data = std::mem::take(&mut file.commit_buf);
        let mut blocks = std::mem::take(&mut file.commit_ids);
        data.clear();
        blocks.clear();
        for (block, plain) in file.pending.drain(..k) {
            blocks.push(block);
            data.extend_from_slice(&plain);
        }

        let result = with_tls(&KEY_SCRATCH, |new_keys| {
            new_keys.clear();
            new_keys.extend(
                data.chunks_exact(bs)
                    .map(|plain| self.derive_key(file.version, plain)),
            );

            self.update_meta(file, segment, |mb| {
                for (block, key) in blocks.iter().zip(new_keys.iter()) {
                    let slot = self.geometry.locate_block(*block).slot;
                    let old_key = mb.key(slot).copied().unwrap_or([0u8; 32]);
                    mb.push_transient(
                        &self.geometry,
                        TransientEntry {
                            slot: slot as u16,
                            old_key,
                        },
                    )?;
                    mb.set_key(slot, *key)?;
                }
                mb.flags.set_mid_update(true);
                if is_final {
                    mb.logical_size = logical_size;
                }
                Ok(())
            })?;

            for ((block, key), cipher) in blocks
                .iter()
                .zip(new_keys.iter())
                .zip(data.chunks_exact_mut(bs))
            {
                self.encrypt_in_place(cipher, key);
                let offset = self.geometry.locate_block(*block).physical_offset;
                self.io.call(|s| s.write_at(&file.name, offset, cipher))?;
            }

            self.update_meta(file, segment, |mb| {
                mb.clear_transient();
                mb.flags.set_mid_update(false);
                Ok(())
            })
        });
        file.commit_buf = data;
        file.commit_ids = blocks;
        result?;
        if is_final {
            file.size_dirty = false;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Recovery, verification, re-keying
    // ------------------------------------------------------------------

    /// Scans every segment for the mid-update flag and repairs interrupted
    /// commits using the transient keys (paper §2.4).
    pub(crate) fn recover(&self, file: &mut LamassuFile) -> Result<RecoveryReport> {
        file.meta_cache.lock().clear();
        file.pending.clear();
        file.open.clear();
        let mut report = RecoveryReport::default();
        let last_segment = self.last_physical_segment(&file.name)?;
        let physical = self.io.call(|s| s.len(&file.name))?;

        for segment in 0..=last_segment {
            let mut mb = self.read_meta(file, segment)?;
            report.segments_scanned += 1;
            if mb.flags.is_mid_update() {
                self.recover_segment(file, segment, &mut mb, physical, &mut report)?;
                self.write_meta(file, segment, mb)?;
            }
        }

        // Reload the authoritative size after repairs.
        let last = self.last_physical_segment(&file.name)?;
        file.logical_size = self.with_meta(file, last, |mb| mb.logical_size)?;
        Ok(report)
    }

    /// Repairs `segment`'s metadata block `mb`, found mid-update, in memory
    /// (the caller writes it): every block its transient area names keeps
    /// its new key if the data on the media re-derives it, and otherwise gets
    /// its previous key back — or none, if it had none and its data never
    /// landed. The transient area and the mid-update mark are cleared.
    /// `physical` is the object's length on the media.
    fn recover_segment(
        &self,
        file: &LamassuFile,
        segment: u64,
        mb: &mut MetadataBlock,
        physical: u64,
        report: &mut RecoveryReport,
    ) -> Result<()> {
        let bs = self.geometry.block_size();
        for entry in mb.transient().to_vec() {
            let slot = entry.slot as usize;
            let logical_block =
                segment * self.geometry.keys_per_metadata_block() as u64 + slot as u64;
            let loc = self.geometry.locate_block(logical_block);
            let new_key = mb.key(slot).copied();
            let had_old = entry.old_key != [0u8; 32];

            let on_disk = if loc.physical_offset + bs as u64 <= physical {
                Some(
                    self.io
                        .call(|s| s.read_at(&file.name, loc.physical_offset, bs))?,
                )
            } else {
                None
            };

            let resolved = match (&on_disk, new_key) {
                (Some(ct), Some(nk)) => {
                    let plain = self.decrypt_block(ct, &nk);
                    if self.key_matches_plaintext(file.version, &plain, &nk) {
                        report.blocks_kept_new += 1;
                        true
                    } else {
                        false
                    }
                }
                _ => false,
            };
            if resolved {
                continue;
            }
            if had_old {
                // Either the data block still holds the old contents, or it
                // never existed; in both cases the old key is the consistent
                // one.
                let consistent = match &on_disk {
                    Some(ct) => {
                        let plain = self.decrypt_block(ct, &entry.old_key);
                        self.key_matches_plaintext(file.version, &plain, &entry.old_key)
                    }
                    None => false,
                };
                if consistent {
                    mb.set_key(slot, entry.old_key)?;
                    report.blocks_restored_old += 1;
                } else {
                    return Err(FsError::Unrecoverable {
                        path: file.name.clone(),
                        segment,
                    });
                }
            } else {
                // A brand-new block whose data never reached disk.
                mb.clear_key(slot)?;
                report.blocks_cleared += 1;
            }
        }
        mb.clear_transient();
        mb.flags.set_mid_update(false);
        report.segments_repaired += 1;
        Ok(())
    }

    /// Verifies every metadata and data block of the file (paper §2.5),
    /// collecting failures rather than stopping at the first one.
    pub(crate) fn verify(&self, file: &mut LamassuFile) -> Result<VerifyReport> {
        self.flush(file)?;
        file.meta_cache.lock().clear();
        let mut report = VerifyReport::default();
        let data_blocks = self.geometry.data_blocks_for_len(file.logical_size);
        let segments = self.geometry.segments_for_len(file.logical_size);

        for segment in 0..segments {
            match self.with_meta(file, segment, |mb| mb.flags.is_mid_update()) {
                Ok(mid_update) => {
                    report.metadata_blocks_checked += 1;
                    if mid_update {
                        report.mid_update_segments += 1;
                    }
                }
                Err(FsError::Metadata(_)) => {
                    report.corrupt_metadata_blocks.push(segment);
                    continue;
                }
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

    /// Re-seals every metadata block under `new_keys.outer` (the paper's
    /// partial re-keying, §2.2). Returns the number of metadata blocks
    /// rewritten.
    pub(crate) fn rekey_outer(&self, file: &mut LamassuFile, new_keys: &ZoneKeys) -> Result<u64> {
        self.flush(file)?;
        {
            let crypto = self.crypto.read();
            assert_eq!(
                crypto.keys.inner, new_keys.inner,
                "outer re-keying must not change the inner key; use a full re-encryption instead"
            );
        }
        let new_gcm = Aes256Gcm::new(&new_keys.outer);
        let last_segment = self.last_physical_segment(&file.name)?;
        let mut rewritten = 0;
        let mut sealed = self.blocks.take();
        for segment in 0..=last_segment {
            let mb = self.read_meta(file, segment)?;
            let nonce = fresh_nonce();
            self.profiler.time(Category::Encrypt, || {
                mb.seal_into(
                    &self.geometry,
                    &new_gcm,
                    &nonce,
                    &Self::aad(segment),
                    &mut sealed,
                )
            });
            let offset = self.geometry.metadata_block_offset(segment);
            self.io.call(|s| s.write_at(&file.name, offset, &sealed))?;
            rewritten += 1;
        }
        Ok(rewritten)
    }
}
