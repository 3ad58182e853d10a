//! FIO-tester-style workloads (paper §4.2).
//!
//! The paper drives PlainFS, EncFS and LamassuFS with five FIO workloads
//! against a single 256 MiB file using 4 KiB synchronous I/O: sequential
//! reads, sequential writes, random reads, random writes, and a 7:3 mixed
//! random read/write workload, flushing caches between runs. [`FioTester`]
//! reproduces those workloads over any [`FileSystem`], and reports throughput
//! as `bytes / (measured wall time + modelled backend I/O time)` so the NFS
//! and RAM-disk transport profiles of Figures 7 and 8 both make sense.

use lamassu_core::{FileSystem, OpenFlags};
use lamassu_storage::ObjectStore;
use lamassu_telemetry::{Histogram, LatencySummary};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use serde::Serialize;
use std::io::IoSlice;
use std::time::{Duration, Instant};

/// The five workloads of Figure 7 / Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Workload {
    /// Sequential 4 KiB writes over the whole file.
    SeqWrite,
    /// Sequential 4 KiB reads over the whole file.
    SeqRead,
    /// Random-order 4 KiB writes covering the whole file once.
    RandWrite,
    /// Random-order 4 KiB reads covering the whole file once.
    RandRead,
    /// Mixed random reads and writes with the paper's 7:3 read/write ratio.
    RandRw,
}

impl Workload {
    /// All five workloads, in the order the paper's figures list them.
    pub const ALL: [Workload; 5] = [
        Workload::SeqWrite,
        Workload::SeqRead,
        Workload::RandWrite,
        Workload::RandRead,
        Workload::RandRw,
    ];

    /// The label used on the x-axis of Figures 7 and 8.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::SeqWrite => "seq-write",
            Workload::SeqRead => "seq-read",
            Workload::RandWrite => "rand-write",
            Workload::RandRead => "rand-read",
            Workload::RandRw => "rand-rw",
        }
    }

    /// True if the workload needs the file to be populated beforehand.
    pub fn needs_prepopulated_file(&self) -> bool {
        !matches!(self, Workload::SeqWrite)
    }
}

/// Configuration of one FIO run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FioConfig {
    /// Target file size in bytes (256 MiB in the paper).
    pub file_size: u64,
    /// I/O request size in bytes (4 KiB in the paper).
    pub io_size: usize,
    /// Read fraction of the mixed workload (0.7 in the paper).
    pub mixed_read_fraction: f64,
    /// RNG seed for the random workloads and the fill data.
    pub seed: u64,
}

impl Default for FioConfig {
    fn default() -> Self {
        FioConfig {
            file_size: 256 * 1024 * 1024,
            io_size: 4096,
            mixed_read_fraction: 0.7,
            seed: 0x1a_a55u64,
        }
    }
}

impl FioConfig {
    /// A scaled-down configuration for quick runs and tests.
    pub fn small(file_size: u64) -> Self {
        FioConfig {
            file_size,
            ..FioConfig::default()
        }
    }

    fn ops(&self) -> u64 {
        self.file_size / self.io_size as u64
    }
}

/// The outcome of one workload run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FioResult {
    /// The workload that ran.
    pub workload: Workload,
    /// Bytes transferred by the measured phase.
    pub bytes: u64,
    /// Number of I/O requests issued.
    pub ops: u64,
    /// Real (measured) time spent in the shim and its cryptography.
    pub compute_time: Duration,
    /// Virtual transport time charged by the storage profile.
    pub io_time: Duration,
    /// `compute_time + io_time`.
    pub total_time: Duration,
    /// Throughput in MiB/s over `total_time` — the y-axis of Figures 7, 8
    /// and 10.
    pub bandwidth_mib_s: f64,
    /// Backend op/byte counters for the measured phase, including the
    /// `cache_*` fields when a `CachedStore` sits in the stack (all zero
    /// otherwise).
    pub counters: lamassu_storage::IoCounters,
    /// Cache hit fraction of the measured phase in `[0, 1]` (`0` when the
    /// mount is uncached).
    pub cache_hit_rate: f64,
    /// Backend round trips (read + write operations) of the measured phase —
    /// the quantity the span pipeline collapses (one vectored operation per
    /// run of blocks instead of one per block).
    pub round_trips: u64,
    /// Per-request read-latency percentiles of the measured phase, from a
    /// preallocated lock-free histogram (all zero if the workload issued no
    /// reads). Nanoseconds of shim compute only — modelled transport time is
    /// accounted separately in `io_time`.
    pub read_lat: LatencySummary,
    /// Per-request write-latency percentiles (all zero for pure-read runs).
    pub write_lat: LatencySummary,
}

/// Drives the five workloads against a mounted file system.
pub struct FioTester {
    config: FioConfig,
}

impl FioTester {
    /// Creates a tester with the given configuration.
    pub fn new(config: FioConfig) -> Self {
        assert!(config.io_size > 0 && config.file_size >= config.io_size as u64);
        FioTester { config }
    }

    /// The tester's configuration.
    pub fn config(&self) -> &FioConfig {
        &self.config
    }

    /// Fills `path` with unique (non-deduplicating) data of the configured
    /// size and flushes it, so read workloads have something to read. The
    /// fill is *not* part of any measurement.
    pub fn populate(&self, fs: &dyn FileSystem, path: &str) -> lamassu_core::Result<()> {
        let fd = if fs.list()?.iter().any(|p| p == path) {
            fs.open(path, OpenFlags { truncate: true })?
        } else {
            fs.create(path)?
        };
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xf111);
        let chunk = 1024 * 1024;
        let mut buf = vec![0u8; chunk];
        let mut written = 0u64;
        while written < self.config.file_size {
            let take = chunk.min((self.config.file_size - written) as usize);
            rng.fill_bytes(&mut buf[..take]);
            fs.write(fd, written, &buf[..take])?;
            written += take as u64;
        }
        fs.fsync(fd)?;
        fs.close(fd)?;
        Ok(())
    }

    /// Runs one workload against `path` on `fs`, charging backend time from
    /// `store`'s virtual clock. The file must already exist (and be
    /// populated, for read workloads); use [`FioTester::populate`] first.
    ///
    /// The store's I/O accounting is reset at the start of the measured
    /// phase, mirroring the paper's cache flush between runs. Reads land in
    /// one reused buffer through the zero-copy `read_into` path and the
    /// latency histograms are preallocated lock-free buckets, so the
    /// measured loop — like FIO itself — allocates nothing per operation.
    pub fn run(
        &self,
        fs: &dyn FileSystem,
        store: &dyn ObjectStore,
        path: &str,
        workload: Workload,
    ) -> lamassu_core::Result<FioResult> {
        let ops = self.config.ops();
        let io = self.config.io_size;
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ workload as u64);

        // Per-op offsets, precomputed so RNG time is not measured.
        let offsets: Vec<u64> = match workload {
            Workload::SeqWrite | Workload::SeqRead => (0..ops).map(|i| i * io as u64).collect(),
            Workload::RandWrite | Workload::RandRead | Workload::RandRw => {
                let mut v: Vec<u64> = (0..ops).map(|i| i * io as u64).collect();
                v.shuffle(&mut rng);
                v
            }
        };
        // For mixed workloads, decide read/write per op up front.
        let is_read: Vec<bool> = match workload {
            Workload::SeqRead | Workload::RandRead => vec![true; ops as usize],
            Workload::SeqWrite | Workload::RandWrite => vec![false; ops as usize],
            Workload::RandRw => (0..ops)
                .map(|_| rng.gen::<f64>() < self.config.mixed_read_fraction)
                .collect(),
        };
        // One random payload generated outside the timing; a per-op counter
        // stamped into its head keeps every written block unique without
        // charging RNG time to the measured path.
        let mut write_buf = vec![0u8; io];
        rng.fill_bytes(&mut write_buf);
        let mut op_counter: u64 = rng.gen();

        let fd = if fs.list()?.iter().any(|p| p == path) {
            fs.open(path, OpenFlags::default())?
        } else {
            fs.create(path)?
        };
        let (read_lat, write_lat) = (Histogram::new(), Histogram::new());
        let mut read_buf = vec![0u8; io];
        store.reset_io_accounting();
        let start = Instant::now();
        for (&offset, &read) in offsets.iter().zip(&is_read) {
            let op_start = Instant::now();
            if read {
                let _ = fs.read_into(fd, offset, &mut read_buf)?;
                read_lat.record_duration(op_start.elapsed());
            } else {
                op_counter = op_counter.wrapping_add(0x9e37_79b9_7f4a_7c15);
                write_buf[..8].copy_from_slice(&op_counter.to_le_bytes());
                fs.write_vectored(fd, offset, &[IoSlice::new(&write_buf)])?;
                write_lat.record_duration(op_start.elapsed());
            }
        }
        fs.fsync(fd)?;
        let compute_time = start.elapsed();
        let io_time = store.io_time();
        let counters = store.io_counters();
        fs.close(fd)?;

        // The virtual transport time is not part of the measured wall time
        // (the store only accounts for it), so the end-to-end time under the
        // modelled transport is the sum of the two.
        let total_time = compute_time + io_time;
        let bytes = ops * io as u64;
        Ok(FioResult {
            workload,
            bytes,
            ops,
            compute_time,
            io_time,
            total_time,
            bandwidth_mib_s: bytes as f64 / (1024.0 * 1024.0) / total_time.as_secs_f64().max(1e-9),
            counters,
            cache_hit_rate: counters.cache_hit_rate(),
            round_trips: counters.read_ops + counters.write_ops,
            read_lat: read_lat.snapshot().summary(),
            write_lat: write_lat.snapshot().summary(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamassu_core::{LamassuConfig, LamassuFs, PlainFs};
    use lamassu_keymgr::ZoneKeys;
    use lamassu_storage::{DedupStore, StorageProfile};
    use std::sync::Arc;

    fn keys() -> ZoneKeys {
        ZoneKeys {
            zone: 1,
            generation: 0,
            inner: [1u8; 32],
            outer: [2u8; 32],
        }
    }

    fn small_config() -> FioConfig {
        FioConfig::small(1024 * 1024) // 1 MiB keeps tests fast
    }

    #[test]
    fn workload_labels_and_inventory() {
        assert_eq!(Workload::ALL.len(), 5);
        assert_eq!(Workload::SeqWrite.label(), "seq-write");
        assert_eq!(Workload::RandRw.label(), "rand-rw");
        assert!(!Workload::SeqWrite.needs_prepopulated_file());
        assert!(Workload::RandRead.needs_prepopulated_file());
    }

    #[test]
    fn seq_write_produces_file_of_configured_size() {
        let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        let fs = PlainFs::new(store.clone());
        let tester = FioTester::new(small_config());
        let result = tester
            .run(&fs, store.as_ref(), "/bench", Workload::SeqWrite)
            .unwrap();
        assert_eq!(result.bytes, 1024 * 1024);
        assert_eq!(result.ops, 256);
        assert_eq!(fs.stat("/bench").unwrap().logical_size, 1024 * 1024);
        assert!(result.bandwidth_mib_s > 0.0);
    }

    #[test]
    fn read_workloads_cover_populated_file() {
        let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        let fs = LamassuFs::new(store.clone(), keys(), LamassuConfig::default());
        let tester = FioTester::new(small_config());
        tester.populate(&fs, "/bench").unwrap();
        for wl in [Workload::SeqRead, Workload::RandRead, Workload::RandRw] {
            let result = tester.run(&fs, store.as_ref(), "/bench", wl).unwrap();
            assert_eq!(result.ops, 256, "{:?}", wl);
            assert!(result.total_time > Duration::ZERO);
        }
    }

    #[test]
    fn nfs_profile_charges_io_time() {
        let store = Arc::new(DedupStore::new(4096, StorageProfile::nfs_1gbe()));
        let fs = PlainFs::new(store.clone());
        let tester = FioTester::new(small_config());
        let result = tester
            .run(&fs, store.as_ref(), "/bench", Workload::SeqWrite)
            .unwrap();
        assert!(result.io_time > Duration::ZERO);
        assert!(result.total_time >= result.io_time);
        assert_eq!(
            result.round_trips,
            result.counters.read_ops + result.counters.write_ops
        );
        assert!(result.round_trips > 0);
        // Over the modelled 1 GbE link, 1 MiB of 4 KiB sync writes cannot
        // exceed the wire rate.
        assert!(result.bandwidth_mib_s < 200.0);
    }

    #[test]
    fn populate_then_overwrite_is_idempotent() {
        let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        let fs = PlainFs::new(store.clone());
        let tester = FioTester::new(small_config());
        tester.populate(&fs, "/bench").unwrap();
        tester.populate(&fs, "/bench").unwrap();
        assert_eq!(fs.stat("/bench").unwrap().logical_size, 1024 * 1024);
    }

    #[test]
    fn per_op_latency_percentiles_cover_the_measured_phase() {
        let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        let fs = LamassuFs::new(store.clone(), keys(), LamassuConfig::default());
        let tester = FioTester::new(small_config());
        tester.populate(&fs, "/bench").unwrap();
        let result = tester
            .run(&fs, store.as_ref(), "/bench", Workload::RandRw)
            .unwrap();
        // Every op lands in exactly one of the two histograms.
        assert_eq!(result.read_lat.count + result.write_lat.count, result.ops);
        assert!(result.read_lat.count > 0 && result.write_lat.count > 0);
        for lat in [result.read_lat, result.write_lat] {
            assert!(lat.p50_ns > 0);
            assert!(lat.p50_ns <= lat.p95_ns);
            assert!(lat.p95_ns <= lat.p99_ns);
            assert!(lat.p99_ns <= lat.max_ns);
        }
        // Pure-read runs leave the write histogram untouched.
        let result = tester
            .run(&fs, store.as_ref(), "/bench", Workload::SeqRead)
            .unwrap();
        assert_eq!(result.read_lat.count, result.ops);
        assert_eq!(result.write_lat, LatencySummary::default());
    }

    #[test]
    fn rand_write_covers_every_block_once() {
        let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        let fs = PlainFs::new(store.clone());
        let tester = FioTester::new(small_config());
        tester.populate(&fs, "/bench").unwrap();
        let result = tester
            .run(&fs, store.as_ref(), "/bench", Workload::RandWrite)
            .unwrap();
        assert_eq!(result.ops, 256);
        assert_eq!(fs.stat("/bench").unwrap().logical_size, 1024 * 1024);
    }
}
