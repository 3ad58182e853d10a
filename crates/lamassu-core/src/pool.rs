//! [`BlockPool`]: recycled fixed-geometry block buffers for the hot data path.
//!
//! Every steady-state operation of the span pipeline needs a handful of
//! block-sized scratch buffers — span-read edge staging, metadata-block
//! staging, dirty-write staging, cache lines. Allocating them fresh per
//! operation puts the global allocator on the hot path of every read and
//! write; this module removes it. A [`BlockPool`] is a bounded, sharded free
//! list of `block_size`-byte buffers: [`BlockPool::take`] pops a recycled
//! buffer (or allocates one only on a pool *miss*), and the returned
//! [`BlockBuf`] hands its storage back to the pool when dropped. Once a mount
//! has warmed up, the buffers cycle forever and the steady state performs
//! **zero heap allocations per operation** (proven by the counting-allocator
//! harness in `tests/zero_alloc.rs`).
//!
//! # Geometry and alignment
//!
//! A pool hands out buffers of exactly one fixed size, decided at
//! construction — the mount's block size. Fixed geometry is what makes
//! recycling trivially correct (any buffer fits any use) and keeps the free
//! list a plain LIFO, so a just-dropped, cache-hot buffer is the next one
//! handed out. Buffers are allocated once through the global allocator and
//! never resized; no particular *address* alignment is promised or needed —
//! the crypto layer constrains only lengths (AES-block multiples), which
//! the fixed geometry satisfies by construction.
//!
//! # Sharding and capacity
//!
//! The free list is split into a small fixed number of shards selected by the
//! calling thread's id, so concurrent readers recycling staging buffers do
//! not contend on one lock; a thread that takes and drops a few buffers at a
//! time stays inside its home shard — thread-local behaviour without
//! thread-local storage. A burst larger than a shard (one writer staging a
//! 256-block span and the commit dropping it again) overflows in both
//! directions: [`BlockPool::take`] steals from the other shards once the home
//! shard is empty, and a drop **spills** to the next shard with room once the
//! home shard is full, one shard lock at a time either way — so a single
//! thread can drain and refill the whole pool, not just its eighth of it.
//! Capacity bounds the number of *idle* buffers kept per pool (not the number
//! in flight): a drop into a pool whose every shard is full frees the buffer
//! instead (counted as a discard), so a burst can never ratchet the pool's
//! memory up permanently. The `tests/prop_pool.rs` churn tests pin this bound
//! under multi-thread storms.
//!
//! # Stats
//!
//! [`PoolStats`] counts hits, misses, recycles and discards; shims attach
//! their pool to their Figure 9 [`Profiler`](crate::Profiler) (see
//! [`Profiler::attach_pool`](crate::Profiler::attach_pool)), and
//! `lamassu-cache` additionally surfaces its pool's hit/miss counters through
//! `IoCounters::pool_hits`/`pool_misses`.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Runs `f` with a thread-local scratch value, falling back to a fresh one
/// if the scratch is already borrowed higher up the stack. The companion of
/// the buffer pool for *variable-length* reusable scratch (key vectors, IV
/// vectors, fill buffers): after first use per thread the scratch's
/// capacity persists and the zero-allocation paths reuse it for free, while
/// the `try_borrow` fallback keeps re-entrant layerings (and panic unwinds)
/// from turning into a `RefCell` double-borrow.
pub fn with_tls<S: Default, T>(
    cell: &'static std::thread::LocalKey<RefCell<S>>,
    f: impl FnOnce(&mut S) -> T,
) -> T {
    cell.with(|c| match c.try_borrow_mut() {
        Ok(mut s) => f(&mut s),
        Err(_) => f(&mut S::default()),
    })
}

/// Number of independent free-list shards per pool.
const POOL_SHARDS: usize = 8;

/// Counters describing one pool's traffic (all monotonically increasing
/// except [`PoolStats::pooled`], a point-in-time gauge).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct PoolStats {
    /// `take` calls served from the free list — no allocation.
    pub hits: u64,
    /// `take` calls that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers returned to the free list on drop.
    pub recycled: u64,
    /// Buffers freed on drop because the pool was at capacity.
    pub discarded: u64,
    /// Idle buffers currently held by the pool.
    pub pooled: usize,
    /// Upper bound on `pooled` (the pool's configured capacity).
    pub capacity: usize,
}

impl PoolStats {
    /// Hit fraction in `[0, 1]`; `0` before any take.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Field-wise sum of two snapshots (used when a mount owns several
    /// pools).
    pub fn merge(&self, other: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            recycled: self.recycled + other.recycled,
            discarded: self.discarded + other.discarded,
            pooled: self.pooled + other.pooled,
            capacity: self.capacity + other.capacity,
        }
    }
}

struct PoolInner {
    block_size: usize,
    /// Maximum idle buffers kept per shard.
    shard_cap: usize,
    shards: Vec<Mutex<Vec<Box<[u8]>>>>,
    pooled: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    discarded: AtomicU64,
}

/// A bounded, sharded free list of fixed-size block buffers (see the module
/// docs). Cloning is cheap and shares the same pool.
///
/// # Examples
///
/// ```
/// use lamassu_core::pool::BlockPool;
///
/// let pool = BlockPool::new(4096, 8);
/// {
///     let mut buf = pool.take_zeroed();
///     buf[0] = 7;
/// } // drop returns the buffer to the pool
/// assert_eq!(pool.stats().recycled, 1);
/// let again = pool.take();
/// assert_eq!(again.len(), 4096);
/// assert_eq!(pool.stats().hits, 1);
/// ```
#[derive(Clone)]
pub struct BlockPool {
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for BlockPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockPool")
            .field("block_size", &self.inner.block_size)
            .field("capacity", &self.capacity())
            .field("stats", &self.stats())
            .finish()
    }
}

impl BlockPool {
    /// Creates a pool of `block_size`-byte buffers keeping at most
    /// `capacity_blocks` idle buffers, **rounded up to a whole number per
    /// shard** — the effective bound is [`BlockPool::capacity`] and can
    /// exceed the request by up to the shard count minus one (e.g. a
    /// request of 2 yields a bound of 8 with 8 shards). A capacity of `0`
    /// disables pooling: every take allocates and every drop frees.
    pub fn new(block_size: usize, capacity_blocks: usize) -> Self {
        assert!(block_size > 0, "pool block size must be non-zero");
        // Distribute the capacity over the shards, rounding up so small caps
        // still admit one buffer per shard (the total bound stays O(cap)).
        let shard_cap = if capacity_blocks == 0 {
            0
        } else {
            capacity_blocks.div_ceil(POOL_SHARDS)
        };
        BlockPool {
            inner: Arc::new(PoolInner {
                block_size,
                shard_cap,
                shards: (0..POOL_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
                pooled: AtomicUsize::new(0),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                recycled: AtomicU64::new(0),
                discarded: AtomicU64::new(0),
            }),
        }
    }

    /// The fixed size of every buffer this pool hands out.
    pub fn block_size(&self) -> usize {
        self.inner.block_size
    }

    /// True if `other` is a clone of this pool (same shared free lists).
    pub fn same_pool(&self, other: &BlockPool) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Upper bound on idle buffers kept across all shards.
    pub fn capacity(&self) -> usize {
        self.inner.shard_cap * POOL_SHARDS
    }

    /// Number of idle buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.inner.pooled.load(Ordering::Relaxed)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            recycled: self.inner.recycled.load(Ordering::Relaxed),
            discarded: self.inner.discarded.load(Ordering::Relaxed),
            pooled: self.pooled(),
            capacity: self.capacity(),
        }
    }

    /// Zeroes the traffic counters (hits/misses/recycled/discarded). The
    /// `pooled` gauge and capacity describe live buffers and are left
    /// alone. Used by `Profiler::reset_all` to start a fresh accounting
    /// window; the pool's contents are untouched, so warm stays warm.
    pub fn reset_stats(&self) {
        self.inner.hits.store(0, Ordering::Relaxed);
        self.inner.misses.store(0, Ordering::Relaxed);
        self.inner.recycled.store(0, Ordering::Relaxed);
        self.inner.discarded.store(0, Ordering::Relaxed);
    }

    /// Hands out a buffer with **unspecified contents** (recycled buffers
    /// hold stale bytes) — callers must fully initialize every byte they
    /// read. Use [`BlockPool::take_zeroed`] when zero-fill semantics matter.
    pub fn take(&self) -> BlockBuf {
        // Try the home shard first, then steal from the others so an
        // asymmetric take/drop thread pattern cannot defeat the pool.
        // Exactly one shard lock is ever held at a time (each `pop` is its
        // own statement): holding the home lock while probing other shards
        // would let two threads with different home shards deadlock
        // ABBA-style.
        let mut data = None;
        if self.inner.shard_cap > 0 {
            // (A zero-capacity pool's shards are permanently empty — skip
            // straight to allocation so the "allocating baseline" really is
            // a plain allocation, not eight futile lock probes.)
            let home = thread_shard_index();
            data = self.inner.pop_shard(home);
            if data.is_none() {
                for i in (0..POOL_SHARDS).filter(|&i| i != home) {
                    data = self.inner.pop_shard(i);
                    if data.is_some() {
                        break;
                    }
                }
            }
        }
        let data = match data {
            Some(buf) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                vec![0u8; self.inner.block_size].into_boxed_slice()
            }
        };
        BlockBuf {
            data,
            pool: self.inner.clone(),
        }
    }

    /// Hands out a fully zeroed buffer.
    pub fn take_zeroed(&self) -> BlockBuf {
        let mut buf = self.take();
        buf.fill(0);
        buf
    }
}

/// The calling thread's home shard index, hashed from its thread id once
/// and cached (shared by every pool — shard homing only needs to spread
/// threads, not distinguish pools).
fn thread_shard_index() -> usize {
    thread_local! {
        /// Home shard + 1; 0 means "not yet computed".
        static HOME: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }
    HOME.with(|c| {
        let cached = c.get();
        if cached != 0 {
            return cached - 1;
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        let idx = h.finish() as usize % POOL_SHARDS;
        c.set(idx + 1);
        idx
    })
}

impl PoolInner {
    /// Pops one idle buffer off shard `idx`, maintaining the `pooled` gauge
    /// **under the shard lock** — a buffer's push+increment and pop+decrement
    /// are each atomic with respect to that shard, so the gauge can never
    /// transiently underflow when a drop races a take.
    fn pop_shard(&self, idx: usize) -> Option<Box<[u8]>> {
        let mut free = self.shards[idx].lock();
        let buf = free.pop();
        if buf.is_some() {
            self.pooled.fetch_sub(1, Ordering::Relaxed);
        }
        buf
    }

    /// Pushes `buf` onto shard `idx` if it has room, handing it back if not;
    /// the gauge moves under the shard lock (see [`PoolInner::pop_shard`]).
    fn push_shard(&self, idx: usize, buf: Box<[u8]>) -> Option<Box<[u8]>> {
        let mut free = self.shards[idx].lock();
        if free.len() >= self.shard_cap {
            return Some(buf);
        }
        free.push(buf);
        self.pooled.fetch_add(1, Ordering::Relaxed);
        None
    }

    fn put(&self, mut buf: Box<[u8]>) {
        debug_assert_eq!(buf.len(), self.block_size);
        // Home shard first, then the next shard with room — the mirror of
        // `take`'s steal, one shard lock at a time for the same reason — so
        // one thread dropping a burst larger than its shard refills the whole
        // pool instead of freeing all but a shard's worth. A pool that is
        // full (or disabled) frees the buffer without probing eight locks;
        // the gauge read is racy, which can only cost a stray probe or an
        // early discard, never the `pooled <= capacity` bound (that is each
        // shard's own, checked under its lock).
        if self.pooled.load(Ordering::Relaxed) < self.shard_cap * POOL_SHARDS {
            let home = thread_shard_index();
            for i in 0..POOL_SHARDS {
                match self.push_shard((home + i) % POOL_SHARDS, buf) {
                    None => {
                        self.recycled.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    Some(back) => buf = back,
                }
            }
        }
        // `buf` drops here: the one place a bounded pool frees memory.
        self.discarded.fetch_add(1, Ordering::Relaxed);
    }
}

/// An owned block buffer on loan from a [`BlockPool`]; derefs to `[u8]` and
/// returns its storage to the pool when dropped.
pub struct BlockBuf {
    /// Always exactly `pool.block_size` bytes; swapped for an empty (non
    /// allocating) boxed slice on drop.
    data: Box<[u8]>,
    pool: Arc<PoolInner>,
}

impl Deref for BlockBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BlockBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BlockBuf {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl AsMut<[u8]> for BlockBuf {
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl std::fmt::Debug for BlockBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BlockBuf({} bytes)", self.data.len())
    }
}

impl Drop for BlockBuf {
    fn drop(&mut self) {
        // An empty boxed slice does not allocate, so the swap is free.
        let data = std::mem::take(&mut self.data);
        self.pool.put(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_allocates_then_recycles() {
        let pool = BlockPool::new(512, 16);
        let a = pool.take_zeroed();
        assert_eq!(a.len(), 512);
        assert!(a.iter().all(|&b| b == 0));
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (0, 1));
        drop(a);
        assert_eq!(pool.pooled(), 1);
        let b = pool.take();
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.pooled(), 0);
        drop(b);
        assert_eq!(pool.stats().recycled, 2);
    }

    #[test]
    fn stale_contents_survive_recycling_and_take_zeroed_clears() {
        let pool = BlockPool::new(64, 4);
        {
            let mut a = pool.take();
            a.fill(0xAA);
        }
        let b = pool.take();
        assert!(b.iter().all(|&x| x == 0xAA), "recycled bytes are stale");
        drop(b);
        let c = pool.take_zeroed();
        assert!(c.iter().all(|&x| x == 0));
    }

    #[test]
    fn capacity_bounds_idle_buffers() {
        let pool = BlockPool::new(128, 4);
        let held: Vec<_> = (0..64).map(|_| pool.take()).collect();
        drop(held);
        assert!(
            pool.pooled() <= pool.capacity(),
            "pooled {} > cap {}",
            pool.pooled(),
            pool.capacity()
        );
        assert!(pool.stats().discarded > 0, "overflow must discard");
    }

    #[test]
    fn one_thread_recycles_the_whole_capacity() {
        // One writer stages a span and its commit drops it: the burst is
        // eight times a shard, and all of it must come back.
        let pool = BlockPool::new(128, 280);
        let capacity = pool.capacity();
        for pass in 0..2 {
            let held: Vec<_> = (0..capacity).map(|_| pool.take()).collect();
            drop(held);
            let s = pool.stats();
            assert_eq!(s.pooled, capacity, "pass {pass}: {s:?}");
            assert_eq!(s.discarded, 0, "pass {pass}: {s:?}");
        }
        let s = pool.stats();
        assert_eq!(
            (s.misses, s.hits),
            (capacity as u64, capacity as u64),
            "the second pass is all hits: {s:?}"
        );
        // One buffer more than the pool holds is the one that is freed.
        let held: Vec<_> = (0..=capacity).map(|_| pool.take()).collect();
        drop(held);
        let s = pool.stats();
        assert_eq!((s.pooled, s.discarded), (capacity, 1), "{s:?}");
    }

    #[test]
    fn zero_capacity_disables_pooling() {
        let pool = BlockPool::new(128, 0);
        drop(pool.take());
        drop(pool.take());
        let s = pool.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 2);
        assert_eq!(s.recycled, 0);
        assert_eq!(s.discarded, 2);
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn clones_share_one_pool() {
        let pool = BlockPool::new(256, 8);
        let other = pool.clone();
        drop(other.take());
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.pooled(), 1);
        assert_eq!(pool.take().len(), 256);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn cross_thread_churn_stays_bounded() {
        let pool = BlockPool::new(64, 8);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = pool.clone();
                s.spawn(move || {
                    for _ in 0..500 {
                        let a = pool.take();
                        let b = pool.take_zeroed();
                        drop(a);
                        drop(b);
                    }
                });
            }
        });
        let s = pool.stats();
        assert!(pool.pooled() <= pool.capacity());
        assert_eq!(s.hits + s.misses, 4000);
        assert_eq!(s.recycled + s.discarded, 4000);
    }

    #[test]
    fn hit_rate_and_merge() {
        let a = PoolStats {
            hits: 3,
            misses: 1,
            recycled: 4,
            discarded: 0,
            pooled: 2,
            capacity: 8,
        };
        assert!((a.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(PoolStats::default().hit_rate(), 0.0);
        let b = a.merge(&a);
        assert_eq!(b.hits, 6);
        assert_eq!(b.pooled, 4);
    }
}
