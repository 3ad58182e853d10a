//! The span planner: shared machinery of the per-span data path.
//!
//! Every shim turns an arbitrary byte range into whole-block operations. The
//! per-block pipeline of the original prototype pays one backend round trip
//! and one serial crypto pass *per block*; the span pipeline instead plans
//! the whole range once (a pure-arithmetic [`SpanPlan`], charged to the
//! [`Category::Plan`](crate::profiler::Category::Plan) latency category),
//! reads/writes maximal runs of physically contiguous blocks with the
//! vectored store primitives, and hands each run to the batch crypto APIs in
//! one call.
//!
//! # Policy and the worker knob
//!
//! [`SpanConfig`] selects between the two pipelines and sizes the per-mount
//! crypto worker pool:
//!
//! * [`SpanPolicy::Batched`] (the default) — whole-span backend I/O plus
//!   parallel batch crypto;
//! * [`SpanPolicy::PerBlock`] — the original one-block-at-a-time path;
//!   nothing selects it automatically. It is the differential reference (the
//!   property tests replay every workload through both pipelines and require
//!   byte-identical results) **and** the paper-prototype pipeline the Figure
//!   7/8 reproduction runs on: `lamassu-bench`'s `throughput.rs` mounts with
//!   [`SpanConfig::per_block`], and with the default in its place Figure 7's
//!   sequential write prints PlainFS 18.0 / EncFS 15.3 / LamassuFS 23.6 MiB/s
//!   and `nfs_shape_writes_separate_reads_cluster` fails ("EncFS writes
//!   faster than LamassuFS"). Deleting it therefore means re-deriving Figure
//!   7 on the span pipeline first (ROADMAP item 3(a)).
//!
//! `workers == 0` auto-sizes the pool to
//! `min(`[`DEFAULT_MAX_WORKERS`](lamassu_crypto::pool::DEFAULT_MAX_WORKERS)`,
//! available_parallelism)`; the CLI exposes the knob as `--workers`.

use lamassu_crypto::pool::CryptoPool;
use lamassu_crypto::CryptoBackend;

/// Which data-path pipeline a mount uses (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpanPolicy {
    /// Whole-span backend I/O + parallel batch crypto (the default).
    #[default]
    Batched,
    /// The original per-block pipeline: the tests' reference and the
    /// paper-prototype mode of the Figure 7/8 reproduction.
    PerBlock,
}

/// How the batched pipeline talks to the backend (ignored by
/// [`SpanPolicy::PerBlock`], which is inherently blocking).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoMode {
    /// Submission/completion pipelining (the default): all of a span's runs
    /// are submitted up front, and each run's crypto starts as its
    /// completion lands while later runs are still in flight, so a single
    /// client thread keeps up to `StorageProfile.queue_depth` backend
    /// operations overlapped.
    #[default]
    Async,
    /// One blocking vectored call per run — the differential oracle for the
    /// async pipeline, mirroring how PerBlock backs Batched.
    Blocking,
}

/// Span-pipeline configuration of one mount.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanConfig {
    /// Which pipeline to run.
    pub policy: SpanPolicy,
    /// How the batched pipeline issues backend I/O.
    pub io: IoMode,
    /// Crypto worker-pool size; `0` auto-sizes (see the module docs).
    pub workers: usize,
    /// Capacity of the mount's [`BlockPool`](crate::pool::BlockPool) in
    /// blocks: `None` auto-sizes to the mount's needs, `Some(0)` disables
    /// buffer recycling entirely (every staging buffer is allocated fresh —
    /// the baseline the `hot_path` bench measures the pool against), any
    /// other value bounds the idle buffers kept (rounded up per shard; see
    /// [`BlockPool::new`](crate::pool::BlockPool::new)).
    pub pool_blocks: Option<usize>,
    /// Which AES/SHA kernel family the mount's span crypto runs on:
    /// the wide constant-time fixsliced kernels (the default) or the
    /// T-table oracle. The CLI exposes the knob as `--crypto`.
    pub crypto: CryptoBackend,
}

impl SpanConfig {
    /// The batched pipeline with an auto-sized pool (the default).
    pub fn batched() -> Self {
        SpanConfig::default()
    }

    /// The per-block reference pipeline.
    pub fn per_block() -> Self {
        SpanConfig {
            policy: SpanPolicy::PerBlock,
            ..SpanConfig::default()
        }
    }

    /// The batched pipeline with blocking vectored I/O (the async engine's
    /// differential oracle).
    pub fn blocking() -> Self {
        SpanConfig {
            io: IoMode::Blocking,
            ..SpanConfig::default()
        }
    }

    /// Returns a copy with the given I/O mode.
    pub fn with_io(mut self, io: IoMode) -> Self {
        self.io = io;
        self
    }

    /// Returns a copy with an explicit block-pool capacity (see
    /// [`SpanConfig::pool_blocks`]).
    pub fn with_pool_blocks(mut self, blocks: usize) -> Self {
        self.pool_blocks = Some(blocks);
        self
    }

    /// Returns a copy with an explicit crypto backend (see
    /// [`SpanConfig::crypto`]).
    pub fn with_crypto(mut self, crypto: CryptoBackend) -> Self {
        self.crypto = crypto;
        self
    }

    /// Builds the mount's shared crypto pool.
    pub(crate) fn pool(&self) -> CryptoPool {
        CryptoPool::new(self.workers)
    }

    /// Resolves the block-pool capacity, defaulting to `auto` blocks.
    pub(crate) fn pool_capacity(&self, auto: usize) -> usize {
        self.pool_blocks.unwrap_or(auto)
    }
}

/// One block-granular view of a planned byte range.
///
/// Only the first and last block of a plan can be partially covered; every
/// interior block is full. The plan is pure arithmetic — no I/O, no
/// allocation — and the shims charge its (tiny) cost to the `Plan` profiler
/// category so the Figure 9 breakdown separates planning from crypto and
/// transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanPlan {
    /// Byte offset the plan starts at.
    pub offset: u64,
    /// Number of bytes planned (never zero).
    pub len: usize,
    /// First block index touched.
    pub first_block: u64,
    /// Last block index touched (inclusive).
    pub last_block: u64,
    /// The block size the plan was computed for.
    pub block_size: usize,
}

impl SpanPlan {
    /// Number of blocks the range touches.
    pub fn block_count(&self) -> u64 {
        self.last_block - self.first_block + 1
    }

    /// `(offset_in_block, take)` of the range's intersection with `block`.
    pub fn span_of(&self, block: u64) -> (usize, usize) {
        let bs = self.block_size as u64;
        let blk_start = block * bs;
        let start = self.offset.max(blk_start);
        let end = (self.offset + self.len as u64).min(blk_start + bs);
        ((start - blk_start) as usize, (end - start) as usize)
    }

    /// Byte range of `block`'s intersection within the caller's buffer.
    pub fn buf_range(&self, block: u64) -> std::ops::Range<usize> {
        let bs = self.block_size as u64;
        let blk_start = block * bs;
        let start = self.offset.max(blk_start);
        let end = (self.offset + self.len as u64).min(blk_start + bs);
        (start - self.offset) as usize..(end - self.offset) as usize
    }

    /// True if the range covers `block` entirely.
    pub fn is_full(&self, block: u64) -> bool {
        let (in_block, take) = self.span_of(block);
        in_block == 0 && take == self.block_size
    }
}

/// Plans byte ranges onto block spans for one mount's block size.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanPlanner {
    block_size: usize,
}

impl SpanPlanner {
    pub(crate) fn new(block_size: usize) -> Self {
        debug_assert!(block_size > 0);
        SpanPlanner { block_size }
    }

    /// Plans the non-empty byte range `[offset, offset + len)`.
    pub(crate) fn plan(&self, offset: u64, len: usize) -> SpanPlan {
        debug_assert!(len > 0, "callers handle empty ranges before planning");
        let bs = self.block_size as u64;
        SpanPlan {
            offset,
            len,
            first_block: offset / bs,
            last_block: (offset + len as u64 - 1) / bs,
            block_size: self.block_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_partitions_a_misaligned_range() {
        let plan = SpanPlanner::new(4096).plan(4000, 5000);
        assert_eq!(plan.first_block, 0);
        assert_eq!(plan.last_block, 2);
        assert_eq!(plan.block_count(), 3);
        assert_eq!(plan.span_of(0), (4000, 96));
        assert_eq!(plan.span_of(1), (0, 4096));
        assert_eq!(plan.span_of(2), (0, 808));
        assert!(!plan.is_full(0));
        assert!(plan.is_full(1));
        assert!(!plan.is_full(2));
        assert_eq!(plan.buf_range(0), 0..96);
        assert_eq!(plan.buf_range(1), 96..96 + 4096);
        assert_eq!(plan.buf_range(2), 96 + 4096..5000);
    }

    #[test]
    fn aligned_single_block_is_full() {
        let plan = SpanPlanner::new(4096).plan(8192, 4096);
        assert_eq!(plan.first_block, 2);
        assert_eq!(plan.last_block, 2);
        assert!(plan.is_full(2));
        assert_eq!(plan.buf_range(2), 0..4096);
    }

    #[test]
    fn sub_block_range_is_one_partial_block() {
        let plan = SpanPlanner::new(4096).plan(100, 50);
        assert_eq!(plan.block_count(), 1);
        assert_eq!(plan.span_of(0), (100, 50));
        assert!(!plan.is_full(0));
    }

    #[test]
    fn config_defaults_to_batched() {
        assert_eq!(SpanConfig::default().policy, SpanPolicy::Batched);
        assert_eq!(SpanConfig::per_block().policy, SpanPolicy::PerBlock);
        assert!(SpanConfig::batched().pool().workers() >= 1);
    }
}
