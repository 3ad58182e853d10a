//! `lamassu-cache`: a sharded block cache between the shims and the store.
//!
//! The paper's shims pay the full backend round trip on every block I/O; the
//! Figure 9 breakdown shows I/O dominating everything except `GetCEKey` once
//! the transport is NFS rather than a RAM disk. This crate removes that tax
//! for repeated accesses: [`CachedStore`] wraps any
//! [`ObjectStore`](lamassu_storage::ObjectStore) and implements the same
//! trait, so it slots *transparently* under `PlainFs` / `EncFs` / `CeFileFs` /
//! `LamassuFs` and over `DirStore` / `DedupStore` / `FaultyStore`:
//!
//! ```text
//! application
//!    │  FileSystem
//! PlainFs / EncFs / CeFileFs / LamassuFs      (lamassu-core)
//!    │  ObjectStore
//! CachedStore — sharded CLOCK block cache     (this crate)
//!    │  ObjectStore
//! DirStore / DedupStore / FaultyStore         (lamassu-storage)
//! ```
//!
//! # Modes
//!
//! * **Write-through** ([`CacheMode::WriteThrough`]): every write goes to the
//!   backend first; on success any *already cached* blocks it overlaps are
//!   updated in place (no write-allocate). The backend is never stale, so
//!   crash semantics are identical to the uncached stack.
//! * **Write-back** ([`CacheMode::WriteBack`]): writes land in cache blocks
//!   marked *dirty* and reach the backend only on [`CachedStore::flush_all`],
//!   [`ObjectStore::flush`](lamassu_storage::ObjectStore::flush), eviction,
//!   or just before a `truncate`/`rename` is passed through. Flushes coalesce
//!   runs of adjacent dirty blocks into single vectored backend writes,
//!   submit every run and wait once, so the runs overlap on the backend's
//!   queue-depth lanes; an eviction's write-back is one blocking write. A
//!   backend failure during write-back (e.g. an injected `FaultyStore` crash)
//!   surfaces as an error from the triggering operation and the affected
//!   blocks stay dirty in the cache — dirty data is never silently dropped.
//!   A flush still writes the runs after a failed one.
//!
//! # Sharding and concurrency
//!
//! Blocks are distributed over N shards by a hash of `(object, block index)`;
//! each shard is an independently locked CLOCK ring, so disjoint working sets
//! proceed in parallel. Object metadata (cached lengths, sequential-read
//! cursors) is sharded separately by object name. The locking discipline is:
//! meta shards before block shards, each tier in ascending index order, and
//! the hot read/write path holds at most one block-shard lock at a time.
//! Single-block operations are atomic; operations spanning several blocks are
//! not (like POSIX, unlike the whole-op locks of the bare in-memory stores).
//!
//! # Coherence rules
//!
//! The cache assumes it is the **only client** of the wrapped store: all
//! mutations must flow through the `CachedStore`. Under that assumption,
//!
//! * the cached length of an object is authoritative, and in write-back mode
//!   the backend length never exceeds it (`truncate` is always passed
//!   through; writes only extend the cache until flushed);
//! * every mutating operation invalidates or updates exactly the blocks it
//!   affects — `truncate` zeroes the tail of the new last block and drops
//!   blocks past the boundary, `remove`/`rename` drop every cached block of
//!   the affected names (a `rename` first flushes the source's dirty blocks
//!   so the backend object carries the data across the rename);
//! * bytes beyond an object's logical end are zero in every cached block, so
//!   extension (zero-fill) semantics are preserved without backend reads.
//!
//! # Read-ahead
//!
//! When a reader's offsets are sequential, a miss also fetches up to
//! [`CacheConfig::read_ahead_blocks`] following blocks in a *single* backend
//! read, amortizing the per-operation transport latency the same way kernel
//! read-ahead amortizes disk seeks. Prefetched blocks count separately in
//! [`CacheStats::prefetched`].
//!
//! # Accounting
//!
//! [`io_time`](lamassu_storage::ObjectStore::io_time) and the op/byte
//! counters delegate to the wrapped
//! store, so the virtual-transport methodology of the benchmark harness is
//! unchanged: a hit simply charges nothing. Hit/miss/eviction/write-back
//! totals are surfaced both through [`CacheStats`] and the `cache_*` fields
//! of [`lamassu_storage::IoCounters`], and a mount's Figure 9
//! [`Profiler`](lamassu_core::Profiler) is handed over at construction
//! ([`CachedStore::with_profiler`]) to charge cache-management time to the
//! `Cache` latency category.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cached;
mod config;
mod stats;

pub use cached::CachedStore;
pub use config::{CacheConfig, CacheMode};
pub use stats::CacheStats;
