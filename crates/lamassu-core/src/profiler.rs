//! Latency-breakdown instrumentation (paper §4.2, Figure 9).
//!
//! The paper instruments the LamassuFS read and write paths and attributes
//! time to five categories: *Encrypt*, *Decrypt*, *GetCEKey* (dominated by
//! the SHA-256 block hash), *I/O* and *Misc*. The [`Profiler`] here does the
//! same: the shims charge measured wall-clock time to the crypto categories
//! and charge backend time (real call time plus the virtual transport time
//! from the storage profile) to the I/O category. *Misc* is derived at
//! report time as the remainder of total operation time.
//!
//! Two categories extend the paper's five for the tiers this reproduction
//! adds: *Cache* (block-cache management, see `lamassu-cache`) and *Plan*
//! (the span planner mapping byte ranges onto block runs before any crypto
//! or transport happens — see [`crate::span`]). With batch crypto, the
//! `Encrypt`/`Decrypt`/`GetCeKey` categories record the *wall* time of each
//! parallel batch, so the breakdown keeps describing end-to-end latency (not
//! aggregate CPU time) exactly as Figure 9 does.
//!
//! # Histogram-backed categories
//!
//! Every category is one preallocated log-linear [`Histogram`] whose running
//! sum is the Figure 9 total: each [`Profiler::add`] records the charged
//! duration into the category's histogram (lock-free, allocation-free), so
//! [`Profiler::category_histogram`] can report the *distribution* of
//! per-batch charge times — p50/p95/p99/max — where Figure 9 only shows the
//! total. The same `add` call also feeds the per-operation phase
//! accumulator of an attached [`Tracer`] (see [`Profiler::attach_tracer`]),
//! which is how `op=read` trace spans get their plan/crypto/backend/route
//! child timings without any extra instrumentation in the shims.
//!
//! # Reset semantics
//!
//! [`Profiler::reset`] is a **measurement-window** reset: it zeroes the
//! category sums and histograms but deliberately keeps the attached pools'
//! counters, which describe the mount's lifetime (warm-up included), not a
//! window. [`Profiler::reset_all`] also zeroes the attached pools' traffic
//! counters — use it when the pools' hit rates should describe the next
//! window only. (Before this was split, `reset` kept pool stats silently.)

use crate::pool::{BlockPool, PoolStats};
use lamassu_telemetry::{trace, HistSnapshot, Histogram, Snapshot, Tracer};
use parking_lot::Mutex;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A latency category from Figure 9 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// AES-CBC encryption of data blocks (and GCM sealing of metadata).
    Encrypt,
    /// AES-CBC decryption of data blocks (and GCM unsealing of metadata).
    Decrypt,
    /// Convergent-key derivation: SHA-256 of the block plus the AES-ECB KDF.
    GetCeKey,
    /// Backing-store I/O (real call time plus modelled transport time).
    Io,
    /// Block-cache management (lookup, copy, eviction bookkeeping) when a
    /// `lamassu-cache::CachedStore` with an attached profiler sits below the
    /// shim. Zero on uncached mounts.
    Cache,
    /// Span planning: mapping a byte range onto block runs before any crypto
    /// or backend I/O is issued (see [`crate::span`]). Zero on mounts running
    /// the per-block fallback pipeline.
    Plan,
    /// Distribution-tier routing overhead: ring lookups, replica fan-out and
    /// failover bookkeeping in a `lamassu-dist::RoutedStore`, *excluding* the
    /// member backends' own time (which stays in `Io`). Zero on unrouted
    /// mounts.
    Route,
    /// Submit-to-completion wait in the async I/O engine: the time between
    /// issuing a batch of submissions and observing their completions
    /// (poll/wait drains, including the residual virtual transport time the
    /// barrier exposes). Zero on blocking-pipeline mounts.
    Queue,
}

const NUM_CATEGORIES: usize = 8;

impl Category {
    /// Every category, in discriminant order (the order
    /// [`lamassu_telemetry::PHASE_NAMES`] mirrors).
    pub const ALL: [Category; NUM_CATEGORIES] = [
        Category::Encrypt,
        Category::Decrypt,
        Category::GetCeKey,
        Category::Io,
        Category::Cache,
        Category::Plan,
        Category::Route,
        Category::Queue,
    ];

    /// Stable lowercase label used in metric names and exports.
    pub fn label(&self) -> &'static str {
        trace::PHASE_NAMES[*self as usize]
    }
}

/// Accumulated per-category time, plus derived *Misc*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct LatencyBreakdown {
    /// Time spent encrypting.
    pub encrypt: Duration,
    /// Time spent decrypting.
    pub decrypt: Duration,
    /// Time spent deriving convergent keys (hashing).
    pub get_ce_key: Duration,
    /// Time spent in backend I/O.
    pub io: Duration,
    /// Time spent in block-cache management (zero on uncached mounts). Note
    /// that the shim's `io` category also covers the wall time of store
    /// calls, so cache time is additionally visible there; `misc` is the
    /// residual and stays conservative.
    pub cache: Duration,
    /// Time spent planning spans (zero on per-block mounts).
    pub plan: Duration,
    /// Time spent in distribution-tier routing, net of the member backends'
    /// own time (zero on unrouted mounts).
    pub route: Duration,
    /// Submit-to-completion wait of the async engine (zero on blocking
    /// mounts).
    pub queue: Duration,
    /// Everything else (buffer management, handle lookup, bookkeeping).
    pub misc: Duration,
}

impl LatencyBreakdown {
    /// Sum of all categories.
    pub fn total(&self) -> Duration {
        self.encrypt
            + self.decrypt
            + self.get_ce_key
            + self.io
            + self.cache
            + self.plan
            + self.route
            + self.queue
            + self.misc
    }

    /// Fraction of the total attributed to `GetCEKey`, the quantity the paper
    /// highlights (58 % of seq-write, 80 % of seq-read latency on a RAM
    /// disk).
    pub fn get_ce_key_fraction(&self) -> f64 {
        let total = self.total();
        if total.is_zero() {
            0.0
        } else {
            self.get_ce_key.as_secs_f64() / total.as_secs_f64()
        }
    }
}

/// What the write path's commits cost in metadata, since the mount (or the
/// last [`Profiler::reset_all`]). `seals / blocks` is the write path's
/// metadata amplification: each seal is one AES-GCM pass over a block plus
/// one backend write, so 2.0 means every data block paid for two metadata
/// blocks (random 4 KiB writes committed `R` at a time) and 0.5 that a span
/// of random writes shared its segments' rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CommitStats {
    /// Commit batches run (at most one span of blocks each).
    pub commits: u64,
    /// Data blocks those batches committed.
    pub blocks: u64,
    /// Segments touched, summed over the batches.
    pub segments: u64,
    /// Metadata blocks sealed by the mount (commit rounds, size updates,
    /// truncation, recovery).
    pub seals: u64,
}

impl CommitStats {
    /// Metadata blocks sealed per data block committed; `0` before any
    /// commit.
    pub fn seals_per_block(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.seals as f64 / self.blocks as f64
        }
    }
}

/// Thread-safe accumulator for per-category latencies.
///
/// Beyond the Figure 9 durations, a profiler carries a preallocated latency
/// [`Histogram`] per category (see the module docs), can hold references to
/// the mount's [`BlockPool`]s (see [`Profiler::attach_pool`]) so one handle
/// surfaces both the latency breakdown *and* the buffer-pool hit/miss
/// counters of the zero-allocation data path, and can carry the mount's
/// per-operation [`Tracer`] (see [`Profiler::attach_tracer`]).
#[derive(Default)]
pub struct Profiler {
    /// Per-category charge-time distributions, preallocated at construction;
    /// each histogram's running sum is the category's Figure 9 total.
    hists: [Histogram; NUM_CATEGORIES],
    /// Block pools attached by the owning mount, for stats surfacing only.
    pools: Mutex<Vec<BlockPool>>,
    /// The mount's op tracer, once attached (one atomic load to consult).
    tracer: OnceLock<Arc<Tracer>>,
    /// Submitted-but-not-completed backend operations right now (the async
    /// engine's submission-queue occupancy gauge).
    in_flight: AtomicU64,
    /// High-water mark of `in_flight` since the last reset: how deep the
    /// engine actually filled the submission queues.
    in_flight_peak: AtomicU64,
    /// [`CommitStats`], field by field (statistics only: relaxed).
    commits: AtomicU64,
    committed_blocks: AtomicU64,
    committed_segments: AtomicU64,
    seals: AtomicU64,
}

impl Profiler {
    /// Creates a profiler with all categories at zero, wrapped for sharing.
    pub fn new() -> Arc<Self> {
        Arc::new(Profiler::default())
    }

    /// Adds `elapsed` to `category`: the category's histogram (whose sum is
    /// the Figure 9 total) and — when an op span is open on this thread — the
    /// tracer's per-operation phase accumulator.
    pub fn add(&self, category: Category, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        self.hists[category as usize].record(ns);
        trace::phase_add(category as usize, ns);
    }

    /// Runs `f`, charging its wall-clock time to `category`, and returns its
    /// result.
    pub fn time<T>(&self, category: Category, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(category, start.elapsed());
        out
    }

    /// Snapshot of the accumulated categories. `total_runtime` is the
    /// caller-measured end-to-end time (real compute plus virtual transport);
    /// the remainder after the four explicit categories becomes *Misc*.
    pub fn breakdown(&self, total_runtime: Duration) -> LatencyBreakdown {
        let cats = Category::ALL.map(|c| Duration::from_nanos(self.hists[c as usize].sum()));
        let explicit: Duration = cats.iter().sum();
        LatencyBreakdown {
            encrypt: cats[Category::Encrypt as usize],
            decrypt: cats[Category::Decrypt as usize],
            get_ce_key: cats[Category::GetCeKey as usize],
            io: cats[Category::Io as usize],
            cache: cats[Category::Cache as usize],
            plan: cats[Category::Plan as usize],
            route: cats[Category::Route as usize],
            queue: cats[Category::Queue as usize],
            misc: total_runtime.saturating_sub(explicit),
        }
    }

    /// Distribution of the durations charged to `category` since the last
    /// reset (per-batch charge times, not per-block).
    pub fn category_histogram(&self, category: Category) -> HistSnapshot {
        self.hists[category as usize].snapshot()
    }

    /// **Measurement-window** reset: zeroes the category sums and
    /// histograms. Attached pools keep their counters — they describe the
    /// mount's lifetime, not a window; use [`Profiler::reset_all`] to clear
    /// those too.
    pub fn reset(&self) {
        for h in &self.hists {
            h.reset();
        }
        // The live gauge is left alone (ops may genuinely be in flight);
        // the peak restarts with the new window.
        self.in_flight_peak
            .store(self.in_flight.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Full reset: everything [`Profiler::reset`] clears **plus** the
    /// commit counters and the attached pools' traffic counters
    /// (hits/misses/recycled/discarded — the `pooled` gauge and capacity
    /// describe live buffers and are untouched).
    pub fn reset_all(&self) {
        self.reset();
        for pool in self.pools.lock().iter() {
            pool.reset_stats();
        }
        for counter in [
            &self.commits,
            &self.committed_blocks,
            &self.committed_segments,
            &self.seals,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }

    /// Attaches a [`BlockPool`] whose hit/miss counters
    /// [`Profiler::pool_stats`] should report. Shims attach their pools at
    /// mount time so the Figure 9 reports can show the buffer-pool hit rate
    /// next to the latency breakdown. Attaching the same pool again is a
    /// no-op, so re-registering a profiler never double-counts.
    pub fn attach_pool(&self, pool: &BlockPool) {
        let mut pools = self.pools.lock();
        if !pools.iter().any(|p| p.same_pool(pool)) {
            pools.push(pool.clone());
        }
    }

    /// Merged counters of every attached pool (all zeros when none are
    /// attached).
    pub fn pool_stats(&self) -> PoolStats {
        self.pools
            .lock()
            .iter()
            .fold(PoolStats::default(), |acc, p| acc.merge(&p.stats()))
    }

    /// Records one commit batch of `blocks` data blocks over `segments`
    /// segments (the LamassuFS engine calls this once per batch).
    pub fn commit_recorded(&self, blocks: u64, segments: u64) {
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.committed_blocks.fetch_add(blocks, Ordering::Relaxed);
        self.committed_segments
            .fetch_add(segments, Ordering::Relaxed);
    }

    /// Records `n` metadata blocks sealed.
    pub fn meta_sealed(&self, n: u64) {
        self.seals.fetch_add(n, Ordering::Relaxed);
    }

    /// The write path's commit counters (all zeros on shims without a
    /// multiphase commit).
    pub fn commit_stats(&self) -> CommitStats {
        CommitStats {
            commits: self.commits.load(Ordering::Relaxed),
            blocks: self.committed_blocks.load(Ordering::Relaxed),
            segments: self.committed_segments.load(Ordering::Relaxed),
            seals: self.seals.load(Ordering::Relaxed),
        }
    }

    /// Attaches the mount's per-operation [`Tracer`]. The shims consult it
    /// at each entry point to open op spans; [`Profiler::add`] feeds its
    /// phase accumulator either way. First attachment wins; later calls are
    /// ignored (the tracer is part of the mount's identity).
    pub fn attach_tracer(&self, tracer: Arc<Tracer>) {
        let _ = self.tracer.set(tracer);
    }

    /// The attached tracer, if any (one atomic load — hot-path safe).
    #[inline]
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.get()
    }

    /// Records `n` operations entering the submission queue (the async
    /// engine calls this as it submits a batch). Updates the peak gauge.
    #[inline]
    pub fn ops_submitted(&self, n: u64) {
        let now = self.in_flight.fetch_add(n, Ordering::Relaxed) + n;
        self.in_flight_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Records `n` completions drained from the queue.
    #[inline]
    pub fn ops_completed(&self, n: u64) {
        self.in_flight.fetch_sub(n, Ordering::Relaxed);
    }

    /// Submitted-but-not-completed operations right now. Zero whenever no
    /// async pipeline is mid-span.
    pub fn in_flight_ops(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Deepest simultaneous submission-queue occupancy since the last
    /// [`Profiler::reset`].
    pub fn in_flight_peak(&self) -> u64 {
        self.in_flight_peak.load(Ordering::Relaxed)
    }

    /// Dumps this profiler into `snap` under `section`: the Figure 9
    /// breakdown (against `total_runtime`), the merged pool counters, the
    /// commit counters, and one latency histogram per category that saw
    /// traffic.
    pub fn export(&self, snap: &mut Snapshot, section: &str, total_runtime: Duration) {
        snap.section(section, &self.breakdown(total_runtime));
        snap.section_value(
            section,
            serde::Value::Object(vec![
                ("pool".to_string(), Serialize::to_value(&self.pool_stats())),
                (
                    "commit".to_string(),
                    Serialize::to_value(&self.commit_stats()),
                ),
            ]),
        );
        snap.section_value(
            section,
            serde::Value::Object(vec![
                (
                    "in_flight_ops".to_string(),
                    Serialize::to_value(&self.in_flight_ops()),
                ),
                (
                    "in_flight_peak".to_string(),
                    Serialize::to_value(&self.in_flight_peak()),
                ),
            ]),
        );
        for cat in Category::ALL {
            let hist = self.category_histogram(cat);
            if hist.count > 0 {
                snap.histogram(section, &format!("{}_ns", cat.label()), hist);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_accumulate_independently() {
        let p = Profiler::new();
        p.add(Category::Encrypt, Duration::from_millis(10));
        p.add(Category::Decrypt, Duration::from_millis(20));
        p.add(Category::GetCeKey, Duration::from_millis(30));
        p.add(Category::Io, Duration::from_millis(40));
        let b = p.breakdown(Duration::from_millis(120));
        assert_eq!(b.encrypt, Duration::from_millis(10));
        assert_eq!(b.decrypt, Duration::from_millis(20));
        assert_eq!(b.get_ce_key, Duration::from_millis(30));
        assert_eq!(b.io, Duration::from_millis(40));
        assert_eq!(b.misc, Duration::from_millis(20));
        assert_eq!(b.total(), Duration::from_millis(120));
    }

    #[test]
    fn breakdown_is_the_histogram_sums_and_zero_after_reset() {
        let p = Profiler::new();
        for (i, cat) in Category::ALL.into_iter().enumerate() {
            p.add(cat, Duration::from_micros(i as u64 + 1));
            p.add(cat, Duration::from_nanos(7));
        }
        let sums = Category::ALL.map(|c| Duration::from_nanos(p.category_histogram(c).sum));
        let explicit: Duration = sums.iter().sum();
        let total = explicit + Duration::from_millis(3);
        let b = p.breakdown(total);
        assert_eq!(
            [
                b.encrypt,
                b.decrypt,
                b.get_ce_key,
                b.io,
                b.cache,
                b.plan,
                b.route,
                b.queue
            ],
            sums
        );
        assert_eq!(sums[2], Duration::from_nanos(3_007));
        assert_eq!(b.misc, Duration::from_millis(3), "misc = total - explicit");
        p.reset();
        assert_eq!(
            p.breakdown(total),
            LatencyBreakdown {
                misc: total,
                ..LatencyBreakdown::default()
            }
        );
    }

    #[test]
    fn plan_category_accumulates_and_counts_toward_total() {
        let p = Profiler::new();
        p.add(Category::Plan, Duration::from_millis(5));
        p.add(Category::Io, Duration::from_millis(15));
        let b = p.breakdown(Duration::from_millis(30));
        assert_eq!(b.plan, Duration::from_millis(5));
        assert_eq!(b.misc, Duration::from_millis(10));
        assert_eq!(b.total(), Duration::from_millis(30));
    }

    #[test]
    fn misc_never_goes_negative() {
        let p = Profiler::new();
        p.add(Category::Io, Duration::from_millis(50));
        let b = p.breakdown(Duration::from_millis(10));
        assert_eq!(b.misc, Duration::ZERO);
    }

    #[test]
    fn time_helper_returns_value_and_charges() {
        let p = Profiler::new();
        let v = p.time(Category::GetCeKey, || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        let b = p.breakdown(Duration::from_millis(100));
        assert!(b.get_ce_key >= Duration::from_millis(2));
    }

    #[test]
    fn fraction_and_reset() {
        let p = Profiler::new();
        p.add(Category::GetCeKey, Duration::from_millis(80));
        let b = p.breakdown(Duration::from_millis(100));
        assert!((b.get_ce_key_fraction() - 0.8).abs() < 1e-9);
        p.reset();
        let b = p.breakdown(Duration::ZERO);
        assert_eq!(b.total(), Duration::ZERO);
        assert_eq!(b.get_ce_key_fraction(), 0.0);
    }

    #[test]
    fn every_add_lands_in_the_category_histogram() {
        let p = Profiler::new();
        p.add(Category::Io, Duration::from_micros(100));
        p.add(Category::Io, Duration::from_micros(300));
        p.add(Category::Encrypt, Duration::from_micros(5));
        let io = p.category_histogram(Category::Io);
        assert_eq!(io.count, 2);
        assert_eq!(io.max, 300_000);
        assert_eq!(p.category_histogram(Category::Encrypt).count, 1);
        assert_eq!(p.category_histogram(Category::Route).count, 0);
    }

    #[test]
    fn category_labels_align_with_phase_names() {
        // The tracer stores phases by `Category as usize`; the two tables
        // must agree forever.
        for cat in Category::ALL {
            assert_eq!(
                cat.label(),
                lamassu_telemetry::PHASE_NAMES[cat as usize],
                "{cat:?}"
            );
        }
        assert_eq!(Category::ALL.len(), lamassu_telemetry::NUM_PHASES);
    }

    #[test]
    fn window_reset_keeps_pool_counters_and_reset_all_clears_them() {
        let p = Profiler::new();
        let pool = BlockPool::new(64, 8);
        p.attach_pool(&pool);
        drop(pool.take()); // one miss, one recycle
        drop(pool.take()); // one hit
        p.add(Category::Io, Duration::from_millis(1));

        p.reset();
        assert_eq!(p.category_histogram(Category::Io).count, 0);
        let stats = p.pool_stats();
        assert_eq!(stats.hits, 1, "window reset keeps pool counters");
        assert_eq!(stats.misses, 1);

        p.reset_all();
        let stats = p.pool_stats();
        assert_eq!((stats.hits, stats.misses, stats.recycled), (0, 0, 0));
        assert_eq!(stats.pooled, 1, "live-buffer gauge survives reset_all");
        assert_eq!(stats.capacity, pool.capacity());
    }

    #[test]
    fn add_feeds_an_open_trace_span() {
        use lamassu_telemetry::{OpKind, Registry, TraceConfig, Tracer};
        let p = Profiler::new();
        let reg = Registry::new();
        let tracer = Tracer::new(&reg, TraceConfig::default());
        p.attach_tracer(tracer.clone());
        {
            let _op = p.tracer().unwrap().op(OpKind::Read, "/spanned", 123);
            p.add(Category::Io, Duration::from_micros(50));
            p.add(Category::Decrypt, Duration::from_micros(20));
        }
        let rec = tracer.recent()[0];
        assert_eq!(rec.file(), "/spanned");
        assert_eq!(rec.phases_ns[Category::Io as usize], 50_000);
        assert_eq!(rec.phases_ns[Category::Decrypt as usize], 20_000);
    }

    #[test]
    fn in_flight_gauge_tracks_occupancy_and_peak() {
        let p = Profiler::new();
        assert_eq!(p.in_flight_ops(), 0);
        p.ops_submitted(3);
        p.ops_submitted(2);
        assert_eq!(p.in_flight_ops(), 5);
        assert_eq!(p.in_flight_peak(), 5);
        p.ops_completed(4);
        assert_eq!(p.in_flight_ops(), 1);
        assert_eq!(p.in_flight_peak(), 5, "peak survives completions");
        p.reset();
        assert_eq!(p.in_flight_ops(), 1, "live gauge survives a reset");
        assert_eq!(p.in_flight_peak(), 1, "peak restarts at the live value");
        p.ops_completed(1);
        assert_eq!(p.in_flight_ops(), 0);
    }

    #[test]
    fn export_composes_breakdown_pool_and_histograms() {
        let p = Profiler::new();
        p.add(Category::GetCeKey, Duration::from_millis(3));
        let mut snap = Snapshot::new();
        p.export(&mut snap, "shim", Duration::from_millis(10));
        let json = snap.to_json();
        assert!(json.contains("\"get_ce_key\""), "{json}");
        assert!(json.contains("\"pool\""), "{json}");
        assert!(json.contains("get_ce_key_ns"), "{json}");
        assert!(json.contains("\"in_flight_ops\""), "{json}");
        assert!(json.contains("\"commit\""), "{json}");
        let prom = snap.to_prometheus();
        assert!(prom.contains("lamassu_shim_commit_seals"), "{prom}");
        assert!(prom.contains("lamassu_shim_get_ce_key_seconds"), "{prom}");
        assert!(
            prom.contains("# TYPE lamassu_shim_get_ce_key_ns histogram"),
            "{prom}"
        );
    }
}
