//! [`CachedStore`]: the sharded CLOCK block cache.
//!
//! See the crate-level docs for the mode, sharding and coherence rules. The
//! implementation notes that matter for reading this file:
//!
//! * A cache line ("slot") holds one `block_size`-aligned block of one
//!   object, zero-padded past the object's logical end, so the zero-fill
//!   extension semantics of [`ObjectStore`] hold without backend reads.
//! * `Slot::valid` is the byte count a write-back must persist. It only
//!   grows with writes (which also grow the object) and is clipped by
//!   `truncate`, so a write-back never extends the backend object past the
//!   cached logical length.
//! * Lock order: meta shards before block shards, each tier in ascending
//!   index; the hot path holds one block-shard lock at a time, while the
//!   sweep operations (`flush`/`truncate`/`rename`/`remove`) take every
//!   block-shard lock in ascending order.

use crate::config::{CacheConfig, CacheMode};
use crate::stats::{AtomicStats, CacheStats};
use lamassu_core::pool::{BlockBuf, BlockPool, PoolStats};
use lamassu_core::{Category, Profiler};
use lamassu_storage::{
    iovec, with_thread_queue, Completion, IoCounters, ObjectStore, Result, StorageError,
    SubmitQueue, SubmitTicket,
};
use parking_lot::{Mutex, MutexGuard};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{IoSlice, IoSliceMut};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

thread_local! {
    /// Reusable backend-fetch staging (miss runs, read-ahead spans, RMW
    /// fetches). Grown once per thread, so steady-state fills allocate
    /// nothing.
    static FILL_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with the thread's fill buffer (cleared), falling back to a
/// fresh vector if it is already borrowed (a cache stacked over another
/// cache must not double-borrow the scratch).
fn with_fill_scratch<T>(f: impl FnOnce(&mut Vec<u8>) -> T) -> T {
    lamassu_core::pool::with_tls(&FILL_SCRATCH, |b| {
        b.clear();
        f(b)
    })
}

/// One cached block of one object.
struct Slot {
    name: Arc<str>,
    block: u64,
    /// Exactly `block_size` bytes, on loan from the cache's [`BlockPool`]
    /// (eviction recycles the storage into the next fill); bytes past the
    /// object's logical end are kept zero at all times.
    data: BlockBuf,
    /// Bytes from the block start that a write-back must persist.
    valid: usize,
    /// CLOCK reference bit.
    referenced: bool,
    /// True if the block holds data the backend has not seen (write-back).
    dirty: bool,
}

/// One independently locked cache shard: a CLOCK ring plus its index.
struct Shard {
    /// Two-level index (object → block → slot) so the hot path can look up
    /// with a borrowed `&str` — no per-operation allocation.
    map: HashMap<Arc<str>, HashMap<u64, usize>>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    hand: usize,
    cap: usize,
    /// Bumped by every mutation that can invalidate an in-flight, unlocked
    /// backend fetch (writes in either mode, truncation, invalidation). A
    /// fetcher snapshots the tick before releasing the lock and only
    /// installs its block if the tick is unchanged, so a racing mutation can
    /// never be shadowed by stale fetched bytes.
    tick: u64,
}

impl Shard {
    fn new(cap: usize) -> Self {
        Shard {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            hand: 0,
            cap,
            tick: 0,
        }
    }

    fn lookup(&self, name: &str, block: u64) -> Option<usize> {
        self.map
            .get(name)
            .and_then(|blocks| blocks.get(&block))
            .copied()
    }

    fn index(&mut self, name: &Arc<str>, block: u64, idx: usize) {
        self.map.entry(name.clone()).or_default().insert(block, idx);
    }

    fn unindex(&mut self, name: &str, block: u64) {
        if let Some(blocks) = self.map.get_mut(name) {
            blocks.remove(&block);
            if blocks.is_empty() {
                self.map.remove(name);
            }
        }
    }

    fn cached(&self) -> usize {
        self.map.values().map(|blocks| blocks.len()).sum()
    }
}

/// Per-object cached metadata.
struct ObjMeta {
    /// Authoritative logical length (see crate docs: the cache is the only
    /// client of the wrapped store).
    len: u64,
    /// Where the next strictly sequential read would start.
    seq_next: u64,
    /// Consecutive sequential reads observed.
    seq_run: u32,
}

/// A sharded, block-granular cache implementing [`ObjectStore`] over any
/// other [`ObjectStore`].
///
/// # Examples
///
/// ```
/// use lamassu_cache::{CacheConfig, CachedStore};
/// use lamassu_storage::{DedupStore, ObjectStore, StorageProfile};
/// use std::sync::Arc;
///
/// let backend = Arc::new(DedupStore::new(4096, StorageProfile::nfs_1gbe()));
/// let cache = CachedStore::new(backend, CacheConfig::write_through(64));
/// cache.create("f").unwrap();
/// cache.write_at("f", 0, &[7u8; 4096]).unwrap();
/// cache.read_at("f", 0, 4096).unwrap(); // warm: first read may hit (write-through updates in place)
/// cache.read_at("f", 0, 4096).unwrap(); // hit: charges no backend time
/// assert!(cache.stats().hits >= 1);
/// ```
pub struct CachedStore<S: ObjectStore + ?Sized = dyn ObjectStore> {
    config: CacheConfig,
    block_shards: Vec<Mutex<Shard>>,
    meta_shards: Vec<Mutex<HashMap<Arc<str>, ObjMeta>>>,
    stats: AtomicStats,
    /// The mount's Figure 9 profiler, fixed at construction.
    profiler: Option<Arc<Profiler>>,
    /// Recycled slot storage: eviction hands a line's buffer straight back
    /// to the next fill instead of the allocator (see `lamassu-core::pool`).
    pool: BlockPool,
    inner: Arc<S>,
}

/// Runs `f` and adds its wall time to `acc` (used to separate backend time
/// from cache-management time for the Figure 9 profiler).
fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed();
    out
}

impl<S: ObjectStore + ?Sized> CachedStore<S> {
    /// Wraps `inner` with a cache of the given geometry.
    pub fn new(inner: Arc<S>, config: CacheConfig) -> Self {
        assert!(config.block_size > 0, "cache block size must be non-zero");
        let shards = config.effective_shards();
        let per_shard = config.blocks_per_shard();
        // Idle capacity only needs to absorb eviction/invalidation churn —
        // live lines hold their buffers themselves.
        let pool = BlockPool::new(config.block_size, (per_shard * shards / 4).max(16));
        CachedStore {
            config,
            block_shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            meta_shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            stats: AtomicStats::default(),
            profiler: None,
            pool,
            inner,
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> Arc<S> {
        self.inner.clone()
    }

    /// The cache geometry and policy.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Snapshot of the hit/miss/eviction/write-back counters.
    pub fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    /// Counters of the slot-storage [`BlockPool`] (also merged into
    /// [`IoCounters::pool_hits`]/[`IoCounters::pool_misses`] by
    /// [`ObjectStore::io_counters`]).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Builds the cache with the mount's Figure 9 [`Profiler`]: time spent
    /// in cache management on the read/write path (lookups, copies, eviction
    /// bookkeeping — backend call time excluded) is charged to
    /// [`Category::Cache`], and the cache's block pool is attached for
    /// [`Profiler::pool_stats`] reporting.
    pub fn with_profiler(mut self, profiler: Arc<Profiler>) -> Self {
        profiler.attach_pool(&self.pool);
        self.profiler = Some(profiler);
        self
    }

    /// Number of blocks currently cached (any state).
    pub fn cached_blocks(&self) -> usize {
        self.block_shards.iter().map(|s| s.lock().cached()).sum()
    }

    /// Number of dirty blocks awaiting write-back.
    pub fn dirty_blocks(&self) -> usize {
        self.block_shards
            .iter()
            .map(|s| s.lock().slots.iter().flatten().filter(|x| x.dirty).count())
            .sum()
    }

    /// Writes every dirty block back to the backend (coalescing adjacent
    /// blocks) and flushes the affected objects. A no-op in write-through
    /// mode. Call before dropping a write-back cache whose backend outlives
    /// the process (the CLI does).
    pub fn flush_all(&self) -> Result<()> {
        if self.config.mode != CacheMode::WriteBack {
            return Ok(());
        }
        let mut names: Vec<Arc<str>> = Vec::new();
        {
            let guards = self.lock_all_block_shards();
            for sh in &guards {
                for slot in sh.slots.iter().flatten() {
                    if slot.dirty && !names.iter().any(|n| n.as_ref() == slot.name.as_ref()) {
                        names.push(slot.name.clone());
                    }
                }
            }
        }
        for name in names {
            self.flush(&name)?;
        }
        Ok(())
    }

    // ---- internal helpers -------------------------------------------------

    fn hash_of(x: impl Hash) -> usize {
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        h.finish() as usize
    }

    fn meta_shard_idx(&self, name: &str) -> usize {
        Self::hash_of(name) % self.meta_shards.len()
    }

    fn block_shard_idx(&self, name: &str, block: u64) -> usize {
        Self::hash_of((name, block)) % self.block_shards.len()
    }

    fn bs(&self) -> u64 {
        self.config.block_size as u64
    }

    fn op_start(&self) -> Option<Instant> {
        self.profiler.as_ref().map(|_| Instant::now())
    }

    fn charge_cache(&self, start: Option<Instant>, backend_time: Duration) {
        if let (Some(t0), Some(p)) = (start, &self.profiler) {
            p.add(Category::Cache, t0.elapsed().saturating_sub(backend_time));
        }
    }

    /// Authoritative object length plus the interned name: the cached
    /// value, or the backend's on first touch (one charged op — and one
    /// name allocation — per object lifetime, not per read). The interned
    /// `Arc<str>` is what the block index stores, so the hot path never
    /// allocates a fresh name string.
    fn object_meta(&self, name: &str, backend_time: &mut Duration) -> Result<(u64, Arc<str>)> {
        let mi = self.meta_shard_idx(name);
        {
            let metas = self.meta_shards[mi].lock();
            if let Some((interned, m)) = metas.get_key_value(name) {
                return Ok((m.len, interned.clone()));
            }
        }
        let len = timed(backend_time, || self.inner.len(name))?;
        let mut metas = self.meta_shards[mi].lock();
        if let Some((interned, m)) = metas.get_key_value(name) {
            return Ok((m.len, interned.clone()));
        }
        let interned: Arc<str> = Arc::from(name);
        metas.insert(
            interned.clone(),
            ObjMeta {
                len,
                seq_next: 0,
                seq_run: 0,
            },
        );
        Ok((len, interned))
    }

    /// Updates the sequential-read cursor; returns true when the access
    /// continues a sequential run and read-ahead should fire.
    fn note_read(&self, name: &str, offset: u64, n: usize) -> bool {
        if self.config.read_ahead_blocks == 0 {
            return false;
        }
        let mut metas = self.meta_shards[self.meta_shard_idx(name)].lock();
        let Some(m) = metas.get_mut(name) else {
            return false;
        };
        if offset == m.seq_next {
            m.seq_run = m.seq_run.saturating_add(1);
        } else {
            m.seq_run = 1;
        }
        m.seq_next = offset + n as u64;
        m.seq_run >= 2
    }

    /// Finds (or makes room for) the slot of `(name, block)` in `sh`,
    /// evicting — and writing back, for dirty victims — if the shard is
    /// full. New slots come back zeroed with `valid == 0`.
    fn ensure_slot(
        &self,
        sh: &mut Shard,
        name: &Arc<str>,
        block: u64,
        backend_time: &mut Duration,
    ) -> Result<usize> {
        if let Some(idx) = sh.lookup(name, block) {
            return Ok(idx);
        }
        let idx = if let Some(idx) = sh.free.pop() {
            idx
        } else if sh.slots.len() < sh.cap {
            sh.slots.push(None);
            sh.slots.len() - 1
        } else {
            self.evict_one(sh, backend_time)?
        };
        sh.slots[idx] = Some(Slot {
            name: name.clone(),
            block,
            // Zeroed: a line's bytes past `valid` must read as zeros (the
            // sparse-extension rule), and recycled pool storage is stale.
            data: self.pool.take_zeroed(),
            valid: 0,
            referenced: true,
            dirty: false,
        });
        sh.index(name, block, idx);
        Ok(idx)
    }

    /// CLOCK eviction within one shard. A dirty victim is written back
    /// first; if that write fails the victim stays cached and dirty and the
    /// error propagates to the operation that needed the room — dirty data
    /// is never silently dropped.
    fn evict_one(&self, sh: &mut Shard, backend_time: &mut Duration) -> Result<usize> {
        loop {
            sh.hand = (sh.hand + 1) % sh.slots.len();
            let idx = sh.hand;
            let slot = sh.slots[idx].as_mut().expect("full shard has no holes");
            if slot.referenced {
                slot.referenced = false;
                continue;
            }
            if slot.dirty {
                let off = slot.block * self.config.block_size as u64;
                let data = &slot.data[..slot.valid];
                let name = slot.name.clone();
                timed(backend_time, || self.inner.write_at(&name, off, data))?;
                AtomicStats::bump(&self.stats.dirty_writebacks);
            }
            let slot = sh.slots[idx].take().expect("victim exists");
            sh.unindex(&slot.name, slot.block);
            AtomicStats::bump(&self.stats.evictions);
            return Ok(idx);
        }
    }

    /// Serves the block range of one read span: cached blocks are copied out
    /// under their shard locks; every maximal run of consecutive *missing*
    /// blocks is then fetched from the backend in a single read and installed
    /// (subject to the per-block tick veto). `len` is the object's logical
    /// length, `offset`/`n` the clamped byte range, `bufs` the caller's
    /// scatter list.
    fn read_span(
        &self,
        name: &Arc<str>,
        offset: u64,
        n: usize,
        len: u64,
        bufs: &mut [IoSliceMut<'_>],
        backend_time: &mut Duration,
    ) -> Result<()> {
        let bs = self.bs();
        let first = offset / bs;
        let last = (offset + n as u64 - 1) / bs;
        // Pass 1: serve hits, record misses with their shard ticks.
        // (block, tick, in-block range, offset into the scatter list)
        let mut misses: Vec<(u64, u64, std::ops::Range<usize>, usize)> = Vec::new();
        for b in first..=last {
            let blk_off = b * bs;
            let s = (offset.max(blk_off) - blk_off) as usize;
            let e = ((offset + n as u64).min(blk_off + bs) - blk_off) as usize;
            let dst_off = (blk_off + s as u64 - offset) as usize;
            let si = self.block_shard_idx(name, b);
            let mut sh = self.block_shards[si].lock();
            if let Some(idx) = sh.lookup(name, b) {
                let slot = sh.slots[idx].as_mut().expect("mapped slot exists");
                slot.referenced = true;
                iovec::scatter(bufs, dst_off, &slot.data[s..e]);
                AtomicStats::bump(&self.stats.hits);
            } else {
                AtomicStats::bump(&self.stats.misses);
                misses.push((b, sh.tick, s..e, dst_off));
            }
        }
        // Pass 2: fetch each contiguous miss run with one backend read into
        // the thread's reusable fill buffer.
        let mut i = 0;
        while i < misses.len() {
            let mut j = i + 1;
            while j < misses.len() && misses[j].0 == misses[j - 1].0 + 1 {
                j += 1;
            }
            let run = &misses[i..j];
            let run_off = run[0].0 * bs;
            // Clamped to the logical length; the backend may be shorter
            // still under write-back — the difference is zeros by the
            // extension rule.
            let run_valid = (len - run_off).min((j - i) as u64 * bs) as usize;
            with_fill_scratch(|content| -> Result<()> {
                // The scratch arrives cleared, so the resize zero-fills —
                // bytes the (possibly shorter) backend cannot produce must
                // read as zeros by the extension rule.
                content.resize(run_valid, 0);
                timed(backend_time, || {
                    self.inner.read_into(name, run_off, content)
                })?;
                for (k, (b, tick_before, span, dst_off)) in run.iter().enumerate() {
                    let blk = &content[(k * self.config.block_size).min(run_valid)
                        ..((k + 1) * self.config.block_size).min(run_valid)];
                    self.insert_clean_block(name, *b, blk, *tick_before, backend_time)?;
                    iovec::scatter(bufs, *dst_off, &blk[span.clone()]);
                }
                Ok(())
            })?;
            i = j;
        }
        Ok(())
    }

    /// Installs fetched bytes as a clean block — but only if nothing raced
    /// the unlocked fetch: the block must still be absent (a concurrent
    /// writer may have installed a dirty one — never clobber it) and the
    /// shard tick unchanged since `tick_before` (a write, truncate or
    /// invalidation in the window means the bytes may be stale — a
    /// write-back write too: its block can be written back or flushed clean
    /// and evicted again before the fetch returns, so "absent" proves
    /// nothing).
    fn insert_clean_block(
        &self,
        name: &Arc<str>,
        block: u64,
        content: &[u8],
        tick_before: u64,
        backend_time: &mut Duration,
    ) -> Result<bool> {
        let si = self.block_shard_idx(name, block);
        let mut sh = self.block_shards[si].lock();
        if sh.tick != tick_before || sh.lookup(name, block).is_some() {
            return Ok(false);
        }
        let idx = self.ensure_slot(&mut sh, name, block, backend_time)?;
        let slot = sh.slots[idx].as_mut().expect("slot just ensured");
        slot.data[..content.len()].copy_from_slice(content);
        slot.valid = content.len();
        Ok(true)
    }

    /// Sequential read-ahead: fetches up to `read_ahead_blocks` uncached
    /// blocks starting at `start` in one backend read. Best-effort — errors
    /// are swallowed (the data was not asked for).
    fn prefetch_from(&self, name: &Arc<str>, start: u64, len: u64, backend_time: &mut Duration) {
        if len == 0 {
            return;
        }
        let last_block = (len - 1) / self.bs();
        // Contiguous run of uncached blocks; each entry snapshots its
        // shard's mutation tick so a racing write/truncate in the fetch
        // window vetoes that block's install.
        let mut ticks: Vec<u64> = Vec::new();
        while (ticks.len() as u64) < self.config.read_ahead_blocks as u64
            && start + ticks.len() as u64 <= last_block
        {
            let b = start + ticks.len() as u64;
            let sh = self.block_shards[self.block_shard_idx(name, b)].lock();
            if sh.lookup(name, b).is_some() {
                break;
            }
            ticks.push(sh.tick);
        }
        if ticks.is_empty() {
            return;
        }
        let count = ticks.len() as u64;
        let span_off = start * self.bs();
        let span_len = (count * self.bs()).min(len - span_off) as usize;
        with_fill_scratch(|span| {
            span.resize(span_len, 0);
            if timed(backend_time, || self.inner.read_into(name, span_off, span)).is_err() {
                return;
            }
            for (i, &tick_before) in ticks.iter().enumerate() {
                let off = i * self.config.block_size;
                if off >= span_len {
                    break;
                }
                let end = span_len.min(off + self.config.block_size);
                match self.insert_clean_block(
                    name,
                    start + i as u64,
                    &span[off..end],
                    tick_before,
                    backend_time,
                ) {
                    Ok(true) => AtomicStats::bump(&self.stats.prefetched),
                    Ok(false) => {}
                    Err(_) => break,
                }
            }
        })
    }

    /// One block of a write-back write: lands in the cache dirty, fetching
    /// the block first when the write only partially covers existing data.
    #[allow(clippy::too_many_arguments)]
    fn write_block_writeback(
        &self,
        name: &Arc<str>,
        block: u64,
        len_before: u64,
        s: usize,
        e: usize,
        bufs: &[IoSlice<'_>],
        src_off: usize,
        backend_time: &mut Duration,
    ) -> Result<()> {
        let si = self.block_shard_idx(name, block);
        let mut sh = self.block_shards[si].lock();
        // Veto in-flight fetches of this shard: one that read the backend
        // before this write must not install its bytes after the block has
        // been written back (or flushed clean) and evicted again.
        sh.tick += 1;
        let idx = match sh.lookup(name, block) {
            Some(idx) => {
                AtomicStats::bump(&self.stats.write_hits);
                idx
            }
            None => with_fill_scratch(|content| -> Result<usize> {
                let blk_off = block * self.bs();
                let full_cover = s == 0 && e == self.config.block_size;
                if !full_cover && blk_off < len_before {
                    // Read-modify-write: the rest of the block exists below.
                    let valid = ((len_before - blk_off) as usize).min(self.config.block_size);
                    content.resize(valid, 0);
                    AtomicStats::bump(&self.stats.misses);
                    timed(backend_time, || {
                        self.inner.read_into(name, blk_off, content)
                    })?;
                }
                let idx = self.ensure_slot(&mut sh, name, block, backend_time)?;
                let slot = sh.slots[idx].as_mut().expect("slot just ensured");
                slot.data[..content.len()].copy_from_slice(content);
                slot.valid = content.len();
                Ok(idx)
            })?,
        };
        let slot = sh.slots[idx].as_mut().expect("mapped slot exists");
        iovec::gather(bufs, src_off, &mut slot.data[s..e]);
        slot.dirty = true;
        slot.referenced = true;
        slot.valid = slot.valid.max(e);
        Ok(())
    }

    fn lock_all_block_shards(&self) -> Vec<MutexGuard<'_, Shard>> {
        self.block_shards.iter().map(|m| m.lock()).collect()
    }

    /// Drops every cached block of the given names (dirty ones included —
    /// callers invoke this when the object was removed or replaced, which
    /// makes pending data moot).
    fn drop_object_blocks(&self, names: &[&str]) {
        let mut guards = self.lock_all_block_shards();
        for sh in guards.iter_mut() {
            sh.tick += 1; // veto in-flight fetches racing the invalidation
            for idx in 0..sh.slots.len() {
                let hit = sh.slots[idx]
                    .as_ref()
                    .is_some_and(|slot| names.contains(&slot.name.as_ref()));
                if hit {
                    let slot = sh.slots[idx].take().expect("slot checked above");
                    sh.unindex(&slot.name, slot.block);
                    sh.free.push(idx);
                    AtomicStats::bump(&self.stats.invalidated);
                }
            }
        }
    }

    fn drop_meta(&self, name: &str) {
        self.meta_shards[self.meta_shard_idx(name)]
            .lock()
            .remove(name);
    }

    /// Writes every dirty block of `name` back to the backend, coalescing
    /// runs of adjacent blocks into single vectored writes. Every run is
    /// submitted before any completion is awaited, and one
    /// `wait_completions` is the barrier, so the runs overlap on the
    /// backend's queue-depth lanes. A run whose completion is `Ok` is marked
    /// clean; a failed run stays dirty and the first failure (in object
    /// order) surfaces. Runs after a failed one are still written.
    fn flush_object(&self, name: &str, backend_time: &mut Duration) -> Result<()> {
        let len = {
            let metas = self.meta_shards[self.meta_shard_idx(name)].lock();
            match metas.get(name) {
                Some(m) => m.len,
                None => return Ok(()), // nothing cached for this object
            }
        };
        let mut guards = self.lock_all_block_shards();
        let mut dirty: Vec<(u64, usize, usize)> = Vec::new();
        for (si, sh) in guards.iter().enumerate() {
            for (idx, slot) in sh.slots.iter().enumerate() {
                if let Some(slot) = slot {
                    if slot.dirty && slot.name.as_ref() == name {
                        dirty.push((slot.block, si, idx));
                    }
                }
            }
        }
        if dirty.is_empty() {
            return Ok(()); // nothing to write, so no barrier either
        }
        dirty.sort_unstable();
        let bs = self.bs();
        with_thread_queue(|q, done| {
            // `(ticket, run)`: the run is `dirty[run]`, in ticket order.
            let mut runs: Vec<(SubmitTicket, Range<usize>)> = Vec::new();
            let mut slices: Vec<IoSlice<'_>> = Vec::new();
            let mut i = 0;
            while i < dirty.len() {
                let mut j = i + 1;
                while j < dirty.len() && dirty[j].0 == dirty[j - 1].0 + 1 {
                    j += 1;
                }
                let run_last = dirty[j - 1].0;
                slices.clear();
                slices.extend(dirty[i..j].iter().map(|&(b, si, idx)| {
                    let slot = guards[si].slots[idx].as_ref().expect("dirty slot exists");
                    // Interior blocks of a run are full (a dirty successor
                    // implies the object extends past them); the run's last
                    // block is clamped to the logical length.
                    let take = if b == run_last {
                        ((len - b * bs) as usize).min(self.config.block_size)
                    } else {
                        self.config.block_size
                    };
                    IoSlice::new(&slot.data[..take])
                }));
                let ticket = timed(backend_time, || {
                    self.inner
                        .submit_write_vectored(q, name, dirty[i].0 * bs, &slices)
                });
                runs.push((ticket, i..j));
                i = j;
            }
            timed(backend_time, || self.inner.wait_completions(q, done));
            done.sort_unstable_by_key(|c| c.ticket);
            let mut first_err = None;
            for (ticket, run) in runs {
                let result = match done.binary_search_by_key(&ticket, |c| c.ticket) {
                    Ok(k) => done[k].result.as_ref().map_err(Clone::clone),
                    Err(_) => Err(StorageError::Backend {
                        name: name.to_string(),
                        detail: "store withheld a write-back completion".to_string(),
                    }),
                };
                match result {
                    Ok(_) => {
                        for &(_, si, idx) in &dirty[run] {
                            guards[si].slots[idx]
                                .as_mut()
                                .expect("dirty slot exists")
                                .dirty = false;
                            AtomicStats::bump(&self.stats.dirty_writebacks);
                        }
                    }
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
            first_err.map_or(Ok(()), Err)
        })
    }

    /// Post-`truncate` cache fix-ups: drop blocks past the boundary, zero
    /// the tail of the new last block, and clip `valid` so a later
    /// write-back cannot re-extend the object.
    fn apply_truncate(&self, name: &str, new_len: u64) {
        {
            let mut metas = self.meta_shards[self.meta_shard_idx(name)].lock();
            if let Some(m) = metas.get_mut(name) {
                m.len = new_len;
                m.seq_next = m.seq_next.min(new_len);
            }
        }
        let bs = self.bs();
        let mut guards = self.lock_all_block_shards();
        for sh in guards.iter_mut() {
            sh.tick += 1; // veto in-flight fetches racing the truncate
            for idx in 0..sh.slots.len() {
                let Some(slot) = sh.slots[idx].as_mut() else {
                    continue;
                };
                if slot.name.as_ref() != name {
                    continue;
                }
                let blk_off = slot.block * bs;
                if blk_off >= new_len {
                    let slot = sh.slots[idx].take().expect("slot checked above");
                    sh.unindex(&slot.name, slot.block);
                    sh.free.push(idx);
                    AtomicStats::bump(&self.stats.invalidated);
                } else {
                    let keep = ((new_len - blk_off) as usize).min(self.config.block_size);
                    slot.data[keep..].fill(0);
                    slot.valid = slot.valid.min(keep);
                }
            }
        }
    }
}

impl<S: ObjectStore + ?Sized> ObjectStore for CachedStore<S> {
    fn create(&self, name: &str) -> Result<()> {
        self.inner.create(name)?;
        let mut metas = self.meta_shards[self.meta_shard_idx(name)].lock();
        metas.insert(
            Arc::from(name),
            ObjMeta {
                len: 0,
                seq_next: 0,
                seq_run: 0,
            },
        );
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn read_into_vectored(
        &self,
        name: &str,
        offset: u64,
        bufs: &mut [IoSliceMut<'_>],
    ) -> Result<usize> {
        let op = self.op_start();
        let mut backend_time = Duration::ZERO;
        let (len, name_key) = self.object_meta(name, &mut backend_time)?;
        let total = iovec::total_len(bufs);
        let n = len.saturating_sub(offset).min(total as u64) as usize;
        let prefetch = self.note_read(name, offset, n);
        if n == 0 {
            self.charge_cache(op, backend_time);
            return Ok(0);
        }
        self.read_span(&name_key, offset, n, len, bufs, &mut backend_time)?;
        if prefetch {
            let last = (offset + n as u64 - 1) / self.bs();
            self.prefetch_from(&name_key, last + 1, len, &mut backend_time);
        }
        self.charge_cache(op, backend_time);
        Ok(n)
    }

    fn write_at_vectored(&self, name: &str, offset: u64, bufs: &[IoSlice<'_>]) -> Result<()> {
        let op = self.op_start();
        let mut backend_time = Duration::ZERO;
        let total = iovec::total_len(bufs);
        let result = match self.config.mode {
            CacheMode::WriteThrough => {
                timed(&mut backend_time, || {
                    self.inner.write_at_vectored(name, offset, bufs)
                })
                .map(|()| {
                    if total == 0 {
                        return;
                    }
                    // Update (never allocate) overlapping cached blocks. The
                    // tick bump covers absent blocks too: an unlocked fetch
                    // racing this write may hold pre-write bytes, and the
                    // bump vetoes its install.
                    let bs = self.bs();
                    let first = offset / bs;
                    let last = (offset + total as u64 - 1) / bs;
                    for b in first..=last {
                        let blk_off = b * bs;
                        let s = (offset.max(blk_off) - blk_off) as usize;
                        let e = ((offset + total as u64).min(blk_off + bs) - blk_off) as usize;
                        let src_off = (blk_off + s as u64).saturating_sub(offset) as usize;
                        let si = self.block_shard_idx(name, b);
                        let mut sh = self.block_shards[si].lock();
                        sh.tick += 1;
                        if let Some(idx) = sh.lookup(name, b) {
                            let slot = sh.slots[idx].as_mut().expect("mapped slot exists");
                            iovec::gather(bufs, src_off, &mut slot.data[s..e]);
                            slot.valid = slot.valid.max(e);
                            slot.referenced = true;
                        }
                    }
                    let mut metas = self.meta_shards[self.meta_shard_idx(name)].lock();
                    if let Some(m) = metas.get_mut(name) {
                        m.len = m.len.max(offset + total as u64);
                    }
                })
            }
            CacheMode::WriteBack => (|| {
                let (len_before, name_key) = self.object_meta(name, &mut backend_time)?;
                if total == 0 {
                    return Ok(());
                }
                let bs = self.bs();
                let first = offset / bs;
                let last = (offset + total as u64 - 1) / bs;
                for b in first..=last {
                    let blk_off = b * bs;
                    let s = (offset.max(blk_off) - blk_off) as usize;
                    let e = ((offset + total as u64).min(blk_off + bs) - blk_off) as usize;
                    let src_off = (blk_off + s as u64).saturating_sub(offset) as usize;
                    self.write_block_writeback(
                        &name_key,
                        b,
                        len_before,
                        s,
                        e,
                        bufs,
                        src_off,
                        &mut backend_time,
                    )?;
                }
                let mut metas = self.meta_shards[self.meta_shard_idx(name)].lock();
                if let Some(m) = metas.get_mut(name) {
                    m.len = m.len.max(offset + total as u64);
                }
                Ok(())
            })(),
        };
        self.charge_cache(op, backend_time);
        result
    }

    fn poll_completions(&self, q: &mut SubmitQueue, out: &mut Vec<Completion>) {
        self.inner.poll_completions(q, out);
    }

    fn wait_completions(&self, q: &mut SubmitQueue, out: &mut Vec<Completion>) {
        // Delegate so the backend's transport barrier (clock drain) runs
        // even when every submission was absorbed by the cache.
        self.inner.wait_completions(q, out);
    }

    fn len(&self, name: &str) -> Result<u64> {
        let mut backend_time = Duration::ZERO;
        self.object_meta(name, &mut backend_time)
            .map(|(len, _)| len)
    }

    fn truncate(&self, name: &str, len: u64) -> Result<()> {
        let mut backend_time = Duration::ZERO;
        if self.config.mode == CacheMode::WriteBack {
            // The backend object must carry the surviving data before the
            // boundary moves.
            self.flush_object(name, &mut backend_time)?;
        }
        timed(&mut backend_time, || self.inner.truncate(name, len))?;
        self.apply_truncate(name, len);
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<()> {
        self.inner.remove(name)?;
        self.drop_meta(name);
        self.drop_object_blocks(&[name]);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut backend_time = Duration::ZERO;
        if self.config.mode == CacheMode::WriteBack {
            // The renamed backend object must carry the pending data.
            self.flush_object(from, &mut backend_time)?;
        }
        timed(&mut backend_time, || self.inner.rename(from, to))?;
        self.drop_meta(from);
        self.drop_meta(to);
        self.drop_object_blocks(&[from, to]);
        Ok(())
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn flush(&self, name: &str) -> Result<()> {
        let mut backend_time = Duration::ZERO;
        if self.config.mode == CacheMode::WriteBack {
            self.flush_object(name, &mut backend_time)?;
        }
        timed(&mut backend_time, || self.inner.flush(name))
    }

    fn sleep_virtual(&self, d: Duration) {
        self.inner.sleep_virtual(d);
    }

    fn io_time(&self) -> Duration {
        self.inner.io_time()
    }

    fn io_counters(&self) -> IoCounters {
        let mut counters = self.inner.io_counters();
        let stats = self.stats.snapshot();
        // Add rather than overwrite: when this cache sits above another
        // counter-bearing tier (a routed store over cached members, or a
        // stacked cache), the snapshot must describe the whole stack instead
        // of silently discarding the tiers below.
        counters.cache_hits += stats.hits;
        counters.cache_misses += stats.misses;
        counters.cache_evictions += stats.evictions;
        counters.cache_writebacks += stats.dirty_writebacks;
        let pool = self.pool.stats();
        counters.pool_hits += pool.hits;
        counters.pool_misses += pool.misses;
        counters
    }

    fn reset_io_accounting(&self) {
        self.inner.reset_io_accounting();
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamassu_storage::{DedupStore, StorageProfile};

    fn backend(profile: StorageProfile) -> Arc<DedupStore> {
        Arc::new(DedupStore::new(4096, profile))
    }

    fn cache(mode: CacheMode, capacity: usize) -> (Arc<DedupStore>, CachedStore<DedupStore>) {
        let inner = backend(StorageProfile::instant());
        let config = CacheConfig {
            capacity_blocks: capacity,
            shards: 4,
            mode,
            ..CacheConfig::default()
        };
        (inner.clone(), CachedStore::new(inner, config))
    }

    #[test]
    fn write_through_read_hits_after_miss() {
        let (_inner, c) = cache(CacheMode::WriteThrough, 16);
        c.create("f").unwrap();
        c.write_at("f", 0, &[7u8; 8192]).unwrap();
        assert_eq!(c.read_at("f", 0, 8192).unwrap(), vec![7u8; 8192]); // misses
        assert_eq!(c.read_at("f", 0, 8192).unwrap(), vec![7u8; 8192]); // hits
        let s = c.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn hits_charge_no_backend_time_or_ops() {
        let inner = backend(StorageProfile::nfs_1gbe());
        let c = CachedStore::new(inner.clone(), CacheConfig::write_through(16));
        c.create("f").unwrap();
        c.write_at("f", 0, &[1u8; 4096]).unwrap();
        c.read_at("f", 0, 4096).unwrap(); // cold
        c.reset_io_accounting();
        c.read_at("f", 0, 4096).unwrap(); // warm
        assert_eq!(c.io_time(), Duration::ZERO);
        assert_eq!(c.io_counters().read_ops, 0);
        assert_eq!(c.io_counters().cache_hits, 1);
    }

    #[test]
    fn write_through_updates_cached_blocks_in_place() {
        let (inner, c) = cache(CacheMode::WriteThrough, 16);
        c.create("f").unwrap();
        c.write_at("f", 0, &[1u8; 4096]).unwrap();
        c.read_at("f", 0, 4096).unwrap(); // cache the block
        c.write_at("f", 100, &[9u8; 50]).unwrap(); // partial overwrite
        let got = c.read_at("f", 0, 4096).unwrap();
        assert_eq!(&got[100..150], &[9u8; 50][..]);
        assert_eq!(got[99], 1);
        // Backend saw the write immediately (write-through).
        assert_eq!(inner.read_at("f", 100, 50).unwrap(), vec![9u8; 50]);
        assert_eq!(c.dirty_blocks(), 0);
    }

    #[test]
    fn write_back_defers_and_flush_coalesces() {
        let (inner, c) = cache(CacheMode::WriteBack, 64);
        c.create("f").unwrap();
        for b in 0..8u64 {
            c.write_at("f", b * 4096, &[b as u8 + 1; 4096]).unwrap();
        }
        assert_eq!(
            inner.len("f").unwrap(),
            0,
            "writes must not reach backend yet"
        );
        assert_eq!(c.len("f").unwrap(), 8 * 4096);
        assert_eq!(c.dirty_blocks(), 8);
        inner.reset_io_accounting();
        c.flush("f").unwrap();
        assert_eq!(c.dirty_blocks(), 0);
        assert_eq!(inner.len("f").unwrap(), 8 * 4096);
        // Eight adjacent dirty blocks coalesce into one vectored write.
        assert_eq!(inner.io_counters().write_ops, 1);
        for b in 0..8u64 {
            assert_eq!(
                inner.read_at("f", b * 4096, 4096).unwrap(),
                vec![b as u8 + 1; 4096]
            );
        }
    }

    #[test]
    fn write_back_reads_see_pending_data_and_zero_gaps() {
        let (_inner, c) = cache(CacheMode::WriteBack, 64);
        c.create("f").unwrap();
        c.write_at("f", 10_000, b"tail").unwrap();
        assert_eq!(c.len("f").unwrap(), 10_004);
        // The gap before the write reads as zeros even though the backend
        // object is still empty.
        assert_eq!(c.read_at("f", 0, 10_000).unwrap(), vec![0u8; 10_000]);
        assert_eq!(c.read_at("f", 10_000, 4).unwrap(), b"tail");
    }

    #[test]
    fn write_back_partial_write_fetches_block_once() {
        let inner = backend(StorageProfile::instant());
        inner.create("f").unwrap();
        inner.write_at("f", 0, &[5u8; 4096]).unwrap();
        // A fresh cache over the populated backend: block 0 is not cached.
        let c = CachedStore::new(inner.clone(), CacheConfig::write_back(64));
        inner.reset_io_accounting();
        // Two partial writes to the same (uncached) block: one RMW fetch.
        c.write_at("f", 0, &[1u8; 100]).unwrap();
        c.write_at("f", 2000, &[2u8; 100]).unwrap();
        assert_eq!(inner.io_counters().read_ops, 1);
        let got = c.read_at("f", 0, 4096).unwrap();
        assert_eq!(&got[..100], &[1u8; 100][..]);
        assert_eq!(&got[2000..2100], &[2u8; 100][..]);
        assert_eq!(got[150], 5);
    }

    #[test]
    fn eviction_writes_back_dirty_blocks() {
        let (inner, c) = cache(CacheMode::WriteBack, 4);
        c.create("f").unwrap();
        for b in 0..16u64 {
            c.write_at("f", b * 4096, &[b as u8; 4096]).unwrap();
        }
        let s = c.stats();
        assert!(s.evictions >= 12, "tiny cache must evict: {s:?}");
        assert!(s.dirty_writebacks >= 12);
        // Every block is readable and correct whether it is cached or not.
        for b in 0..16u64 {
            assert_eq!(c.read_at("f", b * 4096, 4096).unwrap(), vec![b as u8; 4096]);
        }
        c.flush("f").unwrap();
        for b in 0..16u64 {
            assert_eq!(
                inner.read_at("f", b * 4096, 4096).unwrap(),
                vec![b as u8; 4096]
            );
        }
    }

    #[test]
    fn truncate_invalidates_and_zeroes_tail() {
        let (_inner, c) = cache(CacheMode::WriteBack, 16);
        c.create("f").unwrap();
        c.write_at("f", 0, &[3u8; 8192]).unwrap();
        c.truncate("f", 100).unwrap();
        assert_eq!(c.len("f").unwrap(), 100);
        // Re-extend: the cut region must read back as zeros, not stale 3s.
        c.truncate("f", 8192).unwrap();
        let got = c.read_at("f", 0, 8192).unwrap();
        assert_eq!(&got[..100], &[3u8; 100][..]);
        assert_eq!(&got[100..], &vec![0u8; 8092][..]);
    }

    #[test]
    fn remove_and_rename_invalidate() {
        let (inner, c) = cache(CacheMode::WriteBack, 16);
        c.create("a").unwrap();
        c.write_at("a", 0, b"data").unwrap();
        c.rename("a", "b").unwrap();
        assert!(!c.exists("a"));
        assert_eq!(c.read_at("b", 0, 4).unwrap(), b"data");
        assert_eq!(inner.read_at("b", 0, 4).unwrap(), b"data", "rename flushed");
        c.remove("b").unwrap();
        assert!(!c.exists("b"));
        assert_eq!(c.cached_blocks(), 0);
        // Recreating the name must not resurrect old bytes.
        c.create("b").unwrap();
        assert_eq!(c.len("b").unwrap(), 0);
    }

    #[test]
    fn sequential_reads_trigger_read_ahead() {
        let inner = backend(StorageProfile::nfs_1gbe());
        let config = CacheConfig {
            capacity_blocks: 64,
            read_ahead_blocks: 8,
            ..CacheConfig::default()
        };
        let c = CachedStore::new(inner.clone(), config);
        c.create("f").unwrap();
        c.write_at("f", 0, &vec![9u8; 32 * 4096]).unwrap();
        inner.reset_io_accounting();
        c.reset_io_accounting();
        let mut buf = vec![0u8; 4096];
        for b in 0..32u64 {
            assert_eq!(c.read_into("f", b * 4096, &mut buf).unwrap(), 4096);
        }
        let s = c.stats();
        assert!(s.prefetched > 0, "read-ahead fired: {s:?}");
        // Far fewer backend round trips than blocks read.
        assert!(
            inner.io_counters().read_ops < 16,
            "ops = {}",
            inner.io_counters().read_ops
        );
    }

    #[test]
    fn profiler_receives_cache_category_time() {
        let profiler = Profiler::new();
        let c = cache(CacheMode::WriteThrough, 16)
            .1
            .with_profiler(profiler.clone());
        c.create("f").unwrap();
        c.write_at("f", 0, &[1u8; 4096]).unwrap();
        c.read_at("f", 0, 4096).unwrap();
        c.read_at("f", 0, 4096).unwrap();
        let b = profiler.breakdown(Duration::from_secs(1));
        assert!(b.cache > Duration::ZERO);
    }

    #[test]
    fn flush_all_drains_every_dirty_object() {
        let (inner, c) = cache(CacheMode::WriteBack, 32);
        for name in ["a", "b", "c"] {
            c.create(name).unwrap();
            c.write_at(name, 0, name.as_bytes()).unwrap();
        }
        assert_eq!(c.dirty_blocks(), 3);
        c.flush_all().unwrap();
        assert_eq!(c.dirty_blocks(), 0);
        for name in ["a", "b", "c"] {
            assert_eq!(inner.read_at(name, 0, 1).unwrap(), &name.as_bytes()[..1]);
        }
    }

    #[test]
    fn contiguous_miss_runs_fetch_in_one_backend_read() {
        let inner = backend(StorageProfile::nfs_1gbe());
        let config = CacheConfig {
            capacity_blocks: 64,
            read_ahead_blocks: 0, // isolate the span path from read-ahead
            ..CacheConfig::default()
        };
        let c = CachedStore::new(inner.clone(), config);
        c.create("f").unwrap();
        c.write_at("f", 0, &vec![7u8; 16 * 4096]).unwrap();
        inner.reset_io_accounting();
        c.reset_io_accounting();
        // A cold 8-block span: 8 misses, but one backend round trip.
        let mut buf = vec![0u8; 8 * 4096];
        assert_eq!(c.read_into("f", 0, &mut buf).unwrap(), 8 * 4096);
        assert_eq!(buf, vec![7u8; 8 * 4096]);
        let s = c.stats();
        assert_eq!(s.misses, 8);
        assert_eq!(inner.io_counters().read_ops, 1, "one fetch for the run");
        // Re-reading the same span is all hits, zero backend traffic.
        assert_eq!(c.read_into("f", 0, &mut buf).unwrap(), 8 * 4096);
        assert_eq!(c.stats().hits, 8);
        assert_eq!(inner.io_counters().read_ops, 1);
    }

    #[test]
    fn vectored_read_mixes_hits_and_miss_runs() {
        let inner = backend(StorageProfile::instant());
        let config = CacheConfig {
            capacity_blocks: 64,
            read_ahead_blocks: 0,
            ..CacheConfig::default()
        };
        let c = CachedStore::new(inner.clone(), config);
        c.create("f").unwrap();
        let data: Vec<u8> = (0..6 * 4096u32).map(|i| (i % 251) as u8).collect();
        c.write_at("f", 0, &data).unwrap();
        // Warm blocks 1 and 4 only.
        let mut blk = vec![0u8; 4096];
        c.read_into("f", 4096, &mut blk).unwrap();
        c.read_into("f", 4 * 4096, &mut blk).unwrap();
        inner.reset_io_accounting();
        // Span over blocks 0..=5 through a scatter list with awkward splits:
        // miss runs are [0], [2,3], [5] -> three backend reads, two hits.
        let (mut a, mut b) = (vec![0u8; 5000], vec![0u8; 6 * 4096 - 5000]);
        let n = c
            .read_into_vectored(
                "f",
                0,
                &mut [IoSliceMut::new(&mut a), IoSliceMut::new(&mut b)],
            )
            .unwrap();
        assert_eq!(n, 6 * 4096);
        let mut got = a;
        got.extend_from_slice(&b);
        assert_eq!(got, data);
        assert_eq!(inner.io_counters().read_ops, 3);
    }

    /// Forwards to a [`DedupStore`] and runs a one-shot hook right after its
    /// first backend read returns — inside the window where a fetching cache
    /// holds pre-hook bytes and no lock.
    struct HookStore {
        inner: DedupStore,
        after_first_read: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl ObjectStore for HookStore {
        fn create(&self, name: &str) -> Result<()> {
            self.inner.create(name)
        }
        fn exists(&self, name: &str) -> bool {
            self.inner.exists(name)
        }
        fn read_into_vectored(
            &self,
            name: &str,
            offset: u64,
            bufs: &mut [IoSliceMut<'_>],
        ) -> Result<usize> {
            let n = self.inner.read_into_vectored(name, offset, bufs)?;
            let hook = self.after_first_read.lock().take();
            if let Some(hook) = hook {
                hook();
            }
            Ok(n)
        }
        fn write_at_vectored(&self, name: &str, offset: u64, bufs: &[IoSlice<'_>]) -> Result<()> {
            self.inner.write_at_vectored(name, offset, bufs)
        }
        fn len(&self, name: &str) -> Result<u64> {
            self.inner.len(name)
        }
        fn truncate(&self, name: &str, len: u64) -> Result<()> {
            self.inner.truncate(name, len)
        }
        fn remove(&self, name: &str) -> Result<()> {
            self.inner.remove(name)
        }
        fn rename(&self, from: &str, to: &str) -> Result<()> {
            self.inner.rename(from, to)
        }
        fn list(&self) -> Vec<String> {
            self.inner.list()
        }
        fn flush(&self, name: &str) -> Result<()> {
            self.inner.flush(name)
        }
        fn io_time(&self) -> Duration {
            self.inner.io_time()
        }
        fn io_counters(&self) -> IoCounters {
            self.inner.io_counters()
        }
        fn reset_io_accounting(&self) {
            self.inner.reset_io_accounting()
        }
    }

    /// A miss fetch of block 0 races a write-back overwrite of block 0 that
    /// is evicted again (by a write to block 1) before the fetch installs.
    /// With `flush_between` the overwritten block is cleaned first, so it
    /// leaves the cache without a write-back.
    fn fetch_racing_a_write_back_write(flush_between: bool) {
        let store = Arc::new(HookStore {
            inner: DedupStore::new(4096, StorageProfile::instant()),
            after_first_read: Mutex::new(None),
        });
        let config = CacheConfig {
            capacity_blocks: 1,
            shards: 1,
            read_ahead_blocks: 0,
            ..CacheConfig::write_back(1)
        };
        let c = Arc::new(CachedStore::new(store.clone(), config));
        c.create("f").unwrap();
        c.write_at("f", 0, &[1u8; 4096]).unwrap();
        c.write_at("f", 4096, &[2u8; 4096]).unwrap();
        c.flush("f").unwrap();

        let racer = c.clone();
        *store.after_first_read.lock() = Some(Box::new(move || {
            racer.write_at("f", 0, &[9u8; 4096]).unwrap();
            if flush_between {
                racer.flush("f").unwrap();
            }
            racer.write_at("f", 4096, &[3u8; 4096]).unwrap();
        }));
        // The racing read began before the overwrite, so either version is a
        // correct answer for it ...
        let raced = c.read_at("f", 0, 4096).unwrap();
        assert!(raced == [1u8; 4096] || raced == [9u8; 4096]);
        assert!(store.after_first_read.lock().is_none(), "hook never ran");
        // ... but the overwrite was acknowledged before this one started.
        assert!(
            c.read_at("f", 0, 4096).unwrap() == [9u8; 4096],
            "a stale fetch was installed over an acknowledged write"
        );
        assert!(c.read_at("f", 4096, 4096).unwrap() == [3u8; 4096]);
    }

    #[test]
    fn stale_fetch_is_vetoed_after_a_dirty_eviction() {
        fetch_racing_a_write_back_write(false);
    }

    #[test]
    fn stale_fetch_is_vetoed_after_a_clean_eviction() {
        fetch_racing_a_write_back_write(true);
    }

    #[test]
    fn works_behind_a_dyn_object_store() {
        let inner: Arc<dyn ObjectStore> = backend(StorageProfile::instant());
        let c: CachedStore = CachedStore::new(inner, CacheConfig::write_back(8));
        c.create("f").unwrap();
        c.write_at("f", 0, b"dyn").unwrap();
        assert_eq!(c.read_at("f", 0, 3).unwrap(), b"dyn");
    }
}
