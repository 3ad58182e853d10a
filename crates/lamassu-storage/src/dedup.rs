//! [`DedupStore`]: the deduplicating storage backend simulator.
//!
//! Stands in for the paper's NetApp clustered Data ONTAP controller (§4
//! setup). Objects are stored as plain byte vectors; like the real filer, the
//! store sees only whatever bytes the upstream file systems hand it (plain,
//! conventionally encrypted, or Lamassu-encrypted) and has no keys.
//!
//! Deduplication is *post-process* and fixed-block, mirroring ONTAP's 4 KiB
//! block sharing: [`DedupStore::run_dedup`] fingerprints every aligned
//! `block_size` chunk of every object with SHA-256 and counts how many unique
//! blocks remain. [`DedupStore::usage`] is the `df` equivalent used by the
//! storage-efficiency experiments (Figure 6, Table 1, Figure 11).

use crate::profile::{IoCounters, SimClock, StorageProfile};
use crate::store::ObjectStore;
use crate::submit::{Completion, SubmitQueue, SubmitTicket};
use crate::{iovec, Result, StorageError};
use lamassu_crypto::sha256::sha256;
use parking_lot::RwLock;
use serde::Serialize;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// Number of independent object-map shards (a power of two).
const MAP_SHARDS: usize = 16;

/// Space accounting before and after deduplication, in the style of running
/// `df` on the controller (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct UsageReport {
    /// Bytes consumed before deduplication (objects rounded up to blocks).
    pub used_before_dedup: u64,
    /// Bytes consumed after deduplication (unique blocks only).
    pub used_after_dedup: u64,
    /// `used_after_dedup / used_before_dedup` as a percentage — the y-axis of
    /// Figure 6.
    pub relative_usage_pct: f64,
    /// `1 - relative_usage` as a percentage — the "% deduplicated" column of
    /// Table 1.
    pub deduplicated_pct: f64,
}

/// Result of one deduplication pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DedupReport {
    /// Total aligned blocks scanned across all objects.
    pub total_blocks: u64,
    /// Distinct block fingerprints found.
    pub unique_blocks: u64,
    /// Blocks eliminated by sharing (`total - unique`).
    pub shared_blocks: u64,
    /// The block size used for chunking.
    pub block_size: usize,
}

/// An in-memory, fixed-block deduplicating object store.
///
/// # Examples
///
/// ```
/// use lamassu_storage::{DedupStore, ObjectStore, StorageProfile};
///
/// let store = DedupStore::new(4096, StorageProfile::instant());
/// store.create("a").unwrap();
/// store.write_at("a", 0, &vec![7u8; 8192]).unwrap();
/// store.create("b").unwrap();
/// store.write_at("b", 0, &vec![7u8; 4096]).unwrap();
/// let report = store.run_dedup();
/// assert_eq!(report.total_blocks, 3);
/// assert_eq!(report.unique_blocks, 1);
/// ```
pub struct DedupStore {
    block_size: usize,
    profile: StorageProfile,
    clock: SimClock,
    /// The object map, sharded by name hash so concurrent clients working on
    /// different objects never contend on one map lock.
    shards: Vec<RwLock<HashMap<String, Vec<u8>>>>,
}

impl DedupStore {
    /// Creates an empty store with the given dedup block size and transport
    /// profile.
    pub fn new(block_size: usize, profile: StorageProfile) -> Self {
        assert!(block_size > 0, "block size must be non-zero");
        DedupStore {
            block_size,
            clock: SimClock::for_profile(&profile),
            profile,
            shards: (0..MAP_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }

    /// Index of the shard holding `name`.
    fn shard_index(name: &str) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        name.hash(&mut hasher);
        hasher.finish() as usize % MAP_SHARDS
    }

    /// The shard holding `name`.
    fn shard(&self, name: &str) -> &RwLock<HashMap<String, Vec<u8>>> {
        &self.shards[Self::shard_index(name)]
    }

    /// The fixed deduplication block size of the backend.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The transport profile this store charges I/O under.
    pub fn profile(&self) -> &StorageProfile {
        &self.profile
    }

    /// Runs a post-process deduplication pass over every stored object and
    /// reports block-level sharing.
    pub fn run_dedup(&self) -> DedupReport {
        let mut unique: HashSet<[u8; 32]> = HashSet::new();
        let mut total = 0u64;
        for shard in &self.shards {
            let objects = shard.read();
            for data in objects.values() {
                for chunk in data.chunks(self.block_size) {
                    // The filer stores partial trailing chunks padded to a
                    // block.
                    let fp = if chunk.len() == self.block_size {
                        sha256(chunk)
                    } else {
                        let mut padded = vec![0u8; self.block_size];
                        padded[..chunk.len()].copy_from_slice(chunk);
                        sha256(&padded)
                    };
                    unique.insert(fp);
                    total += 1;
                }
            }
        }
        DedupReport {
            total_blocks: total,
            unique_blocks: unique.len() as u64,
            shared_blocks: total - unique.len() as u64,
            block_size: self.block_size,
        }
    }

    /// `df`-style usage before and after deduplication.
    pub fn usage(&self) -> UsageReport {
        let report = self.run_dedup();
        let before = report.total_blocks * self.block_size as u64;
        let after = report.unique_blocks * self.block_size as u64;
        let relative = if before == 0 {
            100.0
        } else {
            after as f64 / before as f64 * 100.0
        };
        UsageReport {
            used_before_dedup: before,
            used_after_dedup: after,
            relative_usage_pct: relative,
            deduplicated_pct: 100.0 - relative,
        }
    }

    /// Total logical bytes stored (sum of object lengths, no rounding).
    pub fn logical_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.read().values().map(|v| v.len() as u64).sum::<u64>())
            .sum()
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Backend shape of a write span: `(rmw_blocks, touched_blocks)`. A
    /// block only partially covered forces a read-modify-write on the
    /// controller, which is what makes block-unaligned writes so expensive
    /// over NFS (§4.2 of the paper observes a >10x penalty).
    fn write_span_shape(&self, offset: u64, len: usize) -> (usize, usize) {
        let bs = self.block_size as u64;
        let first = offset / bs;
        let last = (offset + len as u64 - 1) / bs;
        let touched = (last - first + 1) as usize;
        let head_partial = !offset.is_multiple_of(bs);
        let tail_partial = !(offset + len as u64).is_multiple_of(bs);
        let mut rmw_blocks = 0usize;
        if head_partial {
            rmw_blocks += 1;
        }
        if tail_partial && (last != first || !head_partial) {
            rmw_blocks += 1;
        }
        (rmw_blocks.min(touched), touched)
    }

    /// Charges the transport for every backend block a write span touches
    /// (blocking path: each constituent op serializes on the channel).
    fn charge_write_span(&self, offset: u64, len: usize) {
        if len == 0 {
            self.clock.charge_write(&self.profile, 0);
            return;
        }
        let (rmw_blocks, touched) = self.write_span_shape(offset, len);
        for _ in 0..rmw_blocks {
            self.clock.charge_read(&self.profile, self.block_size);
        }
        self.clock
            .charge_write(&self.profile, touched * self.block_size);
    }

    /// Submit-path twin of [`Self::charge_write_span`]: the whole
    /// read-modify-write span is folded into **one** lane submission (one
    /// queue slot on the channel), with the constituent ops counted
    /// identically to the blocking path.
    fn submit_write_span(&self, offset: u64, len: usize) {
        if len == 0 {
            self.clock.submit_write(&self.profile, 0);
            return;
        }
        let (rmw_blocks, touched) = self.write_span_shape(offset, len);
        let mut cost = self.profile.write_cost(touched * self.block_size);
        for _ in 0..rmw_blocks {
            cost += self.profile.read_cost(self.block_size);
            self.clock.count_read(self.block_size);
        }
        self.clock.submit_cost(&self.profile, cost);
        self.clock.count_write(touched * self.block_size);
    }

    /// The data movement of a vectored span read, without touching the
    /// virtual clock.
    fn vectored_read_uncharged(
        &self,
        name: &str,
        offset: u64,
        bufs: &mut [std::io::IoSliceMut<'_>],
    ) -> Result<usize> {
        let objects = self.shard(name).read();
        let data = objects.get(name).ok_or_else(|| StorageError::NotFound {
            name: name.to_string(),
        })?;
        // Clamped at end-of-object: a short count, not an error.
        let from = offset.min(data.len() as u64) as usize;
        Ok(iovec::scatter(bufs, 0, &data[from..]))
    }

    /// Applies a vectored span write to the object map, without touching the
    /// virtual clock.
    fn vectored_write_uncharged(
        &self,
        name: &str,
        offset: u64,
        bufs: &[std::io::IoSlice<'_>],
    ) -> Result<usize> {
        let total = iovec::total_len(bufs);
        let mut objects = self.shard(name).write();
        let data = objects
            .get_mut(name)
            .ok_or_else(|| StorageError::NotFound {
                name: name.to_string(),
            })?;
        let end = offset as usize + total;
        if end > data.len() {
            data.resize(end, 0);
        }
        Ok(iovec::gather(bufs, 0, &mut data[offset as usize..end]))
    }
}

impl ObjectStore for DedupStore {
    fn create(&self, name: &str) -> Result<()> {
        self.clock.charge_op(&self.profile);
        let mut objects = self.shard(name).write();
        if objects.contains_key(name) {
            return Err(StorageError::AlreadyExists {
                name: name.to_string(),
            });
        }
        objects.insert(name.to_string(), Vec::new());
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.shard(name).read().contains_key(name)
    }

    fn read_into_vectored(
        &self,
        name: &str,
        offset: u64,
        bufs: &mut [std::io::IoSliceMut<'_>],
    ) -> Result<usize> {
        // One span, one charged operation: the scatter list travels as a
        // single request/response on the modelled transport.
        let n = self.vectored_read_uncharged(name, offset, bufs)?;
        self.clock.charge_read(&self.profile, n);
        Ok(n)
    }

    fn write_at_vectored(
        &self,
        name: &str,
        offset: u64,
        bufs: &[std::io::IoSlice<'_>],
    ) -> Result<()> {
        // One store operation covering the whole scatter list: charged as a
        // single contiguous write, applied under one lock acquisition.
        self.charge_write_span(offset, iovec::total_len(bufs));
        self.vectored_write_uncharged(name, offset, bufs)?;
        Ok(())
    }

    fn submit_read_vectored(
        &self,
        q: &mut SubmitQueue,
        name: &str,
        offset: u64,
        bufs: &mut [std::io::IoSliceMut<'_>],
    ) -> SubmitTicket {
        // Execute eagerly, complete in virtual time: the bytes are scattered
        // now, the round trip lands on a queue-depth lane.
        let result = self.vectored_read_uncharged(name, offset, bufs);
        if let Ok(n) = result {
            self.clock.submit_read(&self.profile, n);
        }
        q.complete_now(result)
    }

    fn submit_write_vectored(
        &self,
        q: &mut SubmitQueue,
        name: &str,
        offset: u64,
        bufs: &[std::io::IoSlice<'_>],
    ) -> SubmitTicket {
        let result = self.vectored_write_uncharged(name, offset, bufs);
        if let Ok(total) = result {
            self.submit_write_span(offset, total);
        }
        q.complete_now(result)
    }

    fn wait_completions(&self, q: &mut SubmitQueue, out: &mut Vec<Completion>) {
        q.release_all();
        q.drain_ready(out);
        // The transport barrier: subsequent operations on this thread's
        // channel start no earlier than the last drained submission.
        self.clock.drain();
    }

    fn len(&self, name: &str) -> Result<u64> {
        self.clock.charge_op(&self.profile);
        let objects = self.shard(name).read();
        objects
            .get(name)
            .map(|d| d.len() as u64)
            .ok_or_else(|| StorageError::NotFound {
                name: name.to_string(),
            })
    }

    fn truncate(&self, name: &str, len: u64) -> Result<()> {
        self.clock.charge_op(&self.profile);
        let mut objects = self.shard(name).write();
        let data = objects
            .get_mut(name)
            .ok_or_else(|| StorageError::NotFound {
                name: name.to_string(),
            })?;
        data.resize(len as usize, 0);
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<()> {
        self.clock.charge_op(&self.profile);
        let mut objects = self.shard(name).write();
        objects
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StorageError::NotFound {
                name: name.to_string(),
            })
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.clock.charge_op(&self.profile);
        let from_idx = Self::shard_index(from);
        let to_idx = Self::shard_index(to);
        if from_idx == to_idx {
            let mut objects = self.shards[from_idx].write();
            let data = objects.remove(from).ok_or_else(|| StorageError::NotFound {
                name: from.to_string(),
            })?;
            objects.insert(to.to_string(), data);
            return Ok(());
        }
        // Cross-shard rename: lock both shards in index order (a global lock
        // hierarchy) so two concurrent renames cannot deadlock, and the move
        // stays atomic — no observer can see the object in neither shard.
        let (lo, hi) = (from_idx.min(to_idx), from_idx.max(to_idx));
        let mut lo_guard = self.shards[lo].write();
        let mut hi_guard = self.shards[hi].write();
        let (from_map, to_map) = if from_idx == lo {
            (&mut *lo_guard, &mut *hi_guard)
        } else {
            (&mut *hi_guard, &mut *lo_guard)
        };
        let data = from_map
            .remove(from)
            .ok_or_else(|| StorageError::NotFound {
                name: from.to_string(),
            })?;
        to_map.insert(to.to_string(), data);
        Ok(())
    }

    fn list(&self) -> Vec<String> {
        self.shards
            .iter()
            .flat_map(|s| s.read().keys().cloned().collect::<Vec<_>>())
            .collect()
    }

    fn flush(&self, _name: &str) -> Result<()> {
        self.clock.charge_op(&self.profile);
        Ok(())
    }

    fn sleep_virtual(&self, d: Duration) {
        self.clock.advance(d);
    }

    fn io_time(&self) -> Duration {
        self.clock.elapsed()
    }

    fn io_counters(&self) -> IoCounters {
        self.clock.counters()
    }

    fn reset_io_accounting(&self) {
        self.clock.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> DedupStore {
        DedupStore::new(4096, StorageProfile::instant())
    }

    #[test]
    fn create_read_write_round_trip() {
        let s = store();
        s.create("f").unwrap();
        s.write_at("f", 0, b"hello").unwrap();
        assert_eq!(s.read_at("f", 0, 5).unwrap(), b"hello");
        assert_eq!(s.len("f").unwrap(), 5);
    }

    #[test]
    fn create_duplicate_fails() {
        let s = store();
        s.create("f").unwrap();
        assert!(matches!(
            s.create("f"),
            Err(StorageError::AlreadyExists { .. })
        ));
    }

    #[test]
    fn read_missing_object_fails() {
        let s = store();
        assert!(matches!(
            s.read_at("nope", 0, 1),
            Err(StorageError::NotFound { .. })
        ));
    }

    #[test]
    fn read_out_of_bounds_fails() {
        let s = store();
        s.create("f").unwrap();
        s.write_at("f", 0, b"abc").unwrap();
        assert!(matches!(
            s.read_at("f", 1, 10),
            Err(StorageError::OutOfBounds { size: 3, .. })
        ));
    }

    #[test]
    fn sparse_write_zero_fills() {
        let s = store();
        s.create("f").unwrap();
        s.write_at("f", 10, b"xy").unwrap();
        assert_eq!(s.len("f").unwrap(), 12);
        assert_eq!(s.read_at("f", 0, 10).unwrap(), vec![0u8; 10]);
        assert_eq!(s.read_at("f", 10, 2).unwrap(), b"xy");
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let s = store();
        s.create("f").unwrap();
        s.write_at("f", 0, &[1u8; 100]).unwrap();
        s.truncate("f", 10).unwrap();
        assert_eq!(s.len("f").unwrap(), 10);
        s.truncate("f", 20).unwrap();
        assert_eq!(s.read_at("f", 10, 10).unwrap(), vec![0u8; 10]);
    }

    #[test]
    fn rename_moves_content_and_replaces_target() {
        let s = store();
        s.create("a").unwrap();
        s.write_at("a", 0, b"data").unwrap();
        s.create("b").unwrap();
        s.rename("a", "b").unwrap();
        assert!(!s.exists("a"));
        assert_eq!(s.read_at("b", 0, 4).unwrap(), b"data");
        assert!(matches!(
            s.rename("missing", "x"),
            Err(StorageError::NotFound { .. })
        ));
    }

    #[test]
    fn remove_deletes() {
        let s = store();
        s.create("f").unwrap();
        s.remove("f").unwrap();
        assert!(!s.exists("f"));
        assert!(s.remove("f").is_err());
    }

    #[test]
    fn dedup_counts_identical_blocks_across_objects() {
        let s = store();
        s.create("a").unwrap();
        s.create("b").unwrap();
        // Two objects, each two blocks, all four blocks identical.
        s.write_at("a", 0, &vec![9u8; 8192]).unwrap();
        s.write_at("b", 0, &vec![9u8; 8192]).unwrap();
        let r = s.run_dedup();
        assert_eq!(r.total_blocks, 4);
        assert_eq!(r.unique_blocks, 1);
        assert_eq!(r.shared_blocks, 3);
        let u = s.usage();
        assert_eq!(u.used_before_dedup, 4 * 4096);
        assert_eq!(u.used_after_dedup, 4096);
        assert!((u.relative_usage_pct - 25.0).abs() < 1e-9);
        assert!((u.deduplicated_pct - 75.0).abs() < 1e-9);
    }

    #[test]
    fn dedup_distinguishes_different_blocks() {
        let s = store();
        s.create("a").unwrap();
        let mut data = vec![0u8; 4096 * 3];
        data[4096] = 1; // second block differs
        data[8192] = 2; // third block differs
        s.write_at("a", 0, &data).unwrap();
        let r = s.run_dedup();
        assert_eq!(r.total_blocks, 3);
        assert_eq!(r.unique_blocks, 3);
    }

    #[test]
    fn dedup_partial_trailing_block_counts_as_one() {
        let s = store();
        s.create("a").unwrap();
        s.write_at("a", 0, &vec![5u8; 4096 + 100]).unwrap();
        let r = s.run_dedup();
        assert_eq!(r.total_blocks, 2);
        assert_eq!(r.unique_blocks, 2);
    }

    #[test]
    fn empty_store_usage_is_100_percent_relative() {
        let s = store();
        let u = s.usage();
        assert_eq!(u.used_before_dedup, 0);
        assert_eq!(u.relative_usage_pct, 100.0);
    }

    #[test]
    fn io_accounting_tracks_ops() {
        let s = DedupStore::new(4096, StorageProfile::nfs_1gbe());
        s.create("f").unwrap();
        s.write_at("f", 0, &vec![0u8; 4096]).unwrap();
        s.read_at("f", 0, 4096).unwrap();
        let c = s.io_counters();
        assert_eq!(c.write_ops, 1);
        assert_eq!(c.read_ops, 1);
        assert_eq!(c.bytes_written, 4096);
        assert!(s.io_time() > Duration::ZERO);
        s.reset_io_accounting();
        assert_eq!(s.io_time(), Duration::ZERO);
    }

    #[test]
    fn unaligned_writes_cost_more_than_aligned() {
        // Block-unaligned writes force read-modify-write at the backend,
        // which is the effect behind the paper's §4.2 observation that
        // unaligned EncFS is an order of magnitude slower over NFS.
        let aligned = DedupStore::new(4096, StorageProfile::nfs_1gbe());
        aligned.create("f").unwrap();
        aligned.write_at("f", 0, &vec![0u8; 4096]).unwrap();
        let aligned_time = aligned.io_time();
        let aligned_reads = aligned.io_counters().read_ops;

        let unaligned = DedupStore::new(4096, StorageProfile::nfs_1gbe());
        unaligned.create("f").unwrap();
        unaligned.write_at("f", 80, &vec![0u8; 4096]).unwrap();
        assert!(unaligned.io_time() > aligned_time);
        assert_eq!(aligned_reads, 0);
        assert_eq!(unaligned.io_counters().read_ops, 2, "RMW of both edges");
        assert_eq!(unaligned.io_counters().bytes_written, 2 * 4096);
    }

    #[test]
    fn submitted_spans_overlap_and_match_blocking_counters() {
        let profile = StorageProfile::nfs_1gbe().with_queue_depth(8);
        let s = DedupStore::new(4096, profile);
        s.create("f").unwrap();
        s.write_at("f", 0, &vec![3u8; 8 * 4096]).unwrap();
        s.reset_io_accounting();

        // Eight one-block submitted reads on a depth-8 channel: one round
        // trip of makespan, eight round trips of busy work.
        let mut q = SubmitQueue::new();
        let mut bufs = vec![[0u8; 4096]; 8];
        for (i, buf) in bufs.iter_mut().enumerate() {
            let mut iov = [std::io::IoSliceMut::new(&mut buf[..])];
            s.submit_read_vectored(&mut q, "f", i as u64 * 4096, &mut iov);
        }
        let mut out = Vec::new();
        s.wait_completions(&mut q, &mut out);
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|c| matches!(c.result, Ok(4096))));
        assert!(bufs.iter().all(|b| b.iter().all(|&x| x == 3)));
        assert_eq!(s.io_time(), profile.read_cost(4096));
        assert_eq!(s.io_counters().read_ops, 8);

        // An unaligned submitted write folds its RMW into ONE lane slot but
        // counts the same ops/bytes as the blocking path.
        let blocking = DedupStore::new(4096, profile);
        blocking.create("f").unwrap();
        blocking.reset_io_accounting();
        blocking.write_at("f", 80, &vec![1u8; 4096]).unwrap();
        s.reset_io_accounting();
        let data = vec![1u8; 4096];
        let ticket = s.submit_write_vectored(&mut q, "f", 80, &[std::io::IoSlice::new(&data)]);
        out.clear();
        s.wait_completions(&mut q, &mut out);
        assert_eq!(out[0].ticket, ticket);
        assert!(matches!(out[0].result, Ok(4096)));
        assert_eq!(s.io_counters(), blocking.io_counters());
        assert_eq!(s.io_time(), blocking.io_time(), "RMW cost is preserved");
        assert_eq!(s.read_at("f", 80, 4096).unwrap(), data);
    }

    #[test]
    fn logical_bytes_and_object_count() {
        let s = store();
        s.create("a").unwrap();
        s.create("b").unwrap();
        s.write_at("a", 0, &[0u8; 100]).unwrap();
        s.write_at("b", 0, &[0u8; 50]).unwrap();
        assert_eq!(s.logical_bytes(), 150);
        assert_eq!(s.object_count(), 2);
    }
}
