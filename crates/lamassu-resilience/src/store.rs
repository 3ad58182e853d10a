//! [`ResilientStore`]: retries, deadlines and hedged reads over any
//! `ObjectStore`.
//!
//! # Virtual-time semantics
//!
//! Every recovery mechanism here is expressed in the workspace's modelled
//! transport time, never the wall clock:
//!
//! * Backoff sleeps call `ObjectStore::sleep_virtual`, which parks the
//!   calling thread's `SimClock` channel — the wait shows up in
//!   `io_time()` (so deadline budgets see it) but costs no real time.
//! * Deadline budgets measure elapsed time as the `io_time()` delta since
//!   the logical operation began.
//! * Hedged reads issue attempts through the submission API, so the
//!   attempt's modelled completion (queueing included) is observable as
//!   the `io_time()` frontier. A duplicate submitted onto another
//!   queue-depth lane that leaves the frontier unchanged would have
//!   completed no later than the primary — a *hedge win*. The loser's
//!   completion token is simply dropped; like a real NVMe/network cancel,
//!   the transport work is already spent, only the answer is discarded.
//!
//! # What is (and is not) retried
//!
//! Errors classified transient by `StorageError::is_transient` (`Crashed`,
//! `Backend`) are retried under the [`RetryPolicy`] until the [`OpBudget`]
//! runs out. Terminal errors — `NotFound`, `AlreadyExists`, `OutOfBounds`
//! — describe namespace state, not transport luck: they surface
//! immediately and never burn budget.
//!
//! The submission-API methods (`submit_read_vectored` & co.) are **not**
//! overridden: the trait defaults route them through this store's retried
//! blocking paths and complete eagerly, so a submitting caller still gets
//! retry coverage, at the cost of losing cross-operation lane overlap
//! above this layer (each member keeps its own overlap below).

use crate::retry::{OpBudget, RetryPolicy};
use crate::stats::{AtomicResilienceStats, ResilienceStats};
use lamassu_storage::{
    iovec, Completion, IoCounters, ObjectStore, Result, StorageError, SubmitQueue,
};
use lamassu_telemetry::Histogram;
use parking_lot::Mutex;
use std::io::{IoSlice, IoSliceMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// When and how to hedge a read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Hedge when an attempt's modelled completion exceeds this quantile
    /// of the live attempt-latency histogram.
    pub quantile: f64,
    /// Attempts observed before the quantile estimate is trusted (no
    /// hedging until then).
    pub min_samples: u64,
    /// Recompute the cached quantile threshold every this many recorded
    /// attempts (the threshold is cached in an atomic so the hot path
    /// never walks histogram buckets).
    pub refresh_every: u64,
    /// Never hedge when the threshold estimate is below this floor —
    /// guards against hedging every read on an instant (zero-cost)
    /// profile where all quantiles are zero.
    pub floor: Duration,
}

impl Default for HedgeConfig {
    /// Hedge past the live p95, once 64 attempts are recorded, with a
    /// 1 µs floor.
    fn default() -> Self {
        HedgeConfig {
            quantile: 0.95,
            min_samples: 64,
            refresh_every: 32,
            floor: Duration::from_micros(1),
        }
    }
}

/// A self-healing wrapper around any [`ObjectStore`]: transient failures
/// are retried with virtual-time backoff under a per-operation budget,
/// and (optionally) slow read attempts are hedged onto another
/// queue-depth lane.
///
/// # Examples
///
/// ```
/// use lamassu_resilience::{OpBudget, ResilientStore, RetryPolicy};
/// use lamassu_storage::{DirStore, FaultyStore, ObjectStore, StorageProfile};
/// use std::sync::Arc;
///
/// let dir = std::env::temp_dir().join(format!("resilient-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let flaky = Arc::new(FaultyStore::new(Arc::new(
///     DirStore::open(&dir, StorageProfile::instant()).unwrap(),
/// )));
/// flaky.transient_fault_rate(42, 0.2);
/// let store = ResilientStore::new(flaky, RetryPolicy::default(), OpBudget::default());
/// store.create("f").unwrap();
/// store.write_at("f", 0, b"survives 20% fault injection").unwrap();
/// assert_eq!(store.read_at("f", 0, 8).unwrap(), b"survives");
/// ```
pub struct ResilientStore<S: ObjectStore + ?Sized = dyn ObjectStore> {
    inner: Arc<S>,
    retry: RetryPolicy,
    budget: OpBudget,
    hedge: Option<HedgeConfig>,
    /// Modelled completion time (ns) of every read attempt issued while
    /// hedging is enabled; feeds the hedge threshold.
    attempt_hist: Histogram,
    /// Cached hedge threshold in ns (0 = not yet established).
    hedge_threshold_ns: AtomicU64,
    /// Attempts recorded since the threshold was last refreshed.
    since_refresh: AtomicU64,
    /// Logical-operation sequence number (jitter decorrelation).
    op_seq: AtomicU64,
    /// Reusable bounce buffer for hedged duplicates (hedges are off the
    /// zero-alloc path; reuse still keeps the steady state alloc-free).
    scratch: Mutex<Vec<u8>>,
    stats: AtomicResilienceStats,
}

impl<S: ObjectStore + ?Sized> ResilientStore<S> {
    /// Wraps `inner` with retries and deadlines; hedging starts disabled
    /// (see [`ResilientStore::with_hedging`]).
    pub fn new(inner: Arc<S>, retry: RetryPolicy, budget: OpBudget) -> Self {
        ResilientStore {
            inner,
            retry,
            budget,
            hedge: None,
            attempt_hist: Histogram::new(),
            hedge_threshold_ns: AtomicU64::new(0),
            since_refresh: AtomicU64::new(0),
            op_seq: AtomicU64::new(0),
            scratch: Mutex::new(Vec::new()),
            stats: AtomicResilienceStats::default(),
        }
    }

    /// Enables hedged reads with the given trigger configuration.
    pub fn with_hedging(mut self, hedge: HedgeConfig) -> Self {
        self.hedge = Some(hedge);
        self
    }

    /// The wrapped store.
    pub fn inner(&self) -> &Arc<S> {
        &self.inner
    }

    /// Recovery-activity counters.
    pub fn stats(&self) -> ResilienceStats {
        self.stats.snapshot()
    }

    /// Live histogram of read-attempt modelled completion times (ns).
    /// Empty unless hedging is enabled.
    pub fn latency_histogram(&self) -> &Histogram {
        &self.attempt_hist
    }

    /// The hedge trigger currently in force, if hedging is enabled: reads
    /// whose modelled completion exceeds this duration spawn a duplicate
    /// attempt. `None` until `min_samples` attempts are recorded.
    pub fn hedge_threshold(&self) -> Option<Duration> {
        let ns = self.hedge_threshold_ns.load(Ordering::Relaxed);
        (ns > 0).then(|| Duration::from_nanos(ns))
    }

    /// Records one attempt's modelled completion and refreshes the cached
    /// threshold at the configured cadence.
    fn observe_attempt(&self, hedge: &HedgeConfig, cost: Duration) {
        self.attempt_hist
            .record(cost.as_nanos().min(u64::MAX as u128) as u64);
        let n = self.since_refresh.fetch_add(1, Ordering::Relaxed) + 1;
        if self.attempt_hist.count() >= hedge.min_samples
            && (n >= hedge.refresh_every || self.hedge_threshold_ns.load(Ordering::Relaxed) == 0)
        {
            self.since_refresh.store(0, Ordering::Relaxed);
            let q = self.attempt_hist.quantile(hedge.quantile);
            if Duration::from_nanos(q) >= hedge.floor {
                self.hedge_threshold_ns.store(q, Ordering::Relaxed);
            }
        }
    }

    /// Runs one logical operation: `f` is attempted, transient failures
    /// are retried after a virtual-time backoff until the budget (attempts
    /// or virtual deadline) runs out, and terminal errors surface at once.
    fn with_retries<T>(&self, mut f: impl FnMut() -> Result<T>) -> Result<T> {
        let op = self.op_seq.fetch_add(1, Ordering::Relaxed);
        let start = self.inner.io_time();
        let mut attempts: u32 = 0;
        loop {
            match f() {
                Ok(v) => {
                    if attempts > 0 {
                        AtomicResilienceStats::bump(&self.stats.recoveries);
                    }
                    return Ok(v);
                }
                Err(e) if e.is_transient() => {
                    attempts += 1;
                    let elapsed = self.inner.io_time().saturating_sub(start);
                    if !self.budget.allows_retry(attempts, elapsed) {
                        AtomicResilienceStats::bump(&self.stats.budget_exhausted);
                        return Err(e);
                    }
                    AtomicResilienceStats::bump(&self.stats.retries);
                    let wait = self.retry.backoff(op, attempts);
                    self.stats
                        .backoff_ns
                        .fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
                    self.inner.sleep_virtual(wait);
                }
                Err(e) => {
                    AtomicResilienceStats::bump(&self.stats.terminal_errors);
                    return Err(e);
                }
            }
        }
    }

    /// One read attempt through the submission API, hedging when the
    /// modelled transport says the primary will finish late. Fills `bufs`
    /// and returns the byte count, exactly like `read_into_vectored`.
    fn hedged_attempt(
        &self,
        hedge: &HedgeConfig,
        name: &str,
        offset: u64,
        bufs: &mut [IoSliceMut<'_>],
    ) -> Result<usize> {
        let t0 = self.inner.io_time();
        let mut q = SubmitQueue::new();
        let primary = self.inner.submit_read_vectored(&mut q, name, offset, bufs);
        // The frontier now includes the primary's lane: its modelled
        // completion (queueing included) is the io_time delta.
        let primary_done = self.inner.io_time().saturating_sub(t0);
        self.observe_attempt(hedge, primary_done);
        let threshold = self.hedge_threshold();
        let mut hedge_ticket = None;
        if threshold.is_some_and(|th| primary_done > th) {
            AtomicResilienceStats::bump(&self.stats.hedged_reads);
            let mut scratch = self.scratch.lock();
            scratch.resize(iovec::total_len(bufs), 0);
            let before = self.inner.io_time();
            let ticket = {
                let mut iov = [IoSliceMut::new(&mut scratch[..])];
                self.inner
                    .submit_read_vectored(&mut q, name, offset, &mut iov)
            };
            // The duplicate landed on the earliest-free lane. If the
            // frontier did not move, its modelled completion is no later
            // than the primary's: the hedge would have answered first.
            if self.inner.io_time() == before {
                AtomicResilienceStats::bump(&self.stats.hedge_wins);
            }
            hedge_ticket = Some(ticket);
        }
        let mut out = Vec::new();
        self.inner.wait_completions(&mut q, &mut out);
        let take = |t| out.iter().find(|c| c.ticket == t).map(|c| c.result.clone());
        let primary_result = take(primary).unwrap_or_else(|| {
            Err(StorageError::Backend {
                name: name.to_string(),
                detail: "primary completion lost".to_string(),
            })
        });
        match primary_result {
            Ok(n) => Ok(n), // hedge loser's token dropped (cancelled)
            Err(primary_err) => {
                // The primary failed; if the duplicate succeeded it rescues
                // the attempt — copy its bytes out of the bounce buffer.
                if let Some(Ok(n)) = hedge_ticket.and_then(take) {
                    AtomicResilienceStats::bump(&self.stats.hedge_wins);
                    iovec::scatter(bufs, 0, &self.scratch.lock()[..n]);
                    Ok(n)
                } else {
                    Err(primary_err)
                }
            }
        }
    }
}

impl<S: ObjectStore + ?Sized> ObjectStore for ResilientStore<S> {
    fn create(&self, name: &str) -> Result<()> {
        self.with_retries(|| self.inner.create(name))
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
        if let Some(hedge) = self.hedge {
            self.with_retries(|| self.hedged_attempt(&hedge, name, offset, bufs))
        } else {
            // No hedging: the plain blocking attempt keeps the warm path
            // allocation-free.
            self.with_retries(|| self.inner.read_into_vectored(name, offset, bufs))
        }
    }

    fn write_at_vectored(&self, name: &str, offset: u64, bufs: &[IoSlice<'_>]) -> Result<()> {
        self.with_retries(|| self.inner.write_at_vectored(name, offset, bufs))
    }

    fn wait_completions(&self, q: &mut SubmitQueue, out: &mut Vec<Completion>) {
        q.release_all();
        q.drain_ready(out);
        self.inner.wait_completions(q, out);
    }

    fn len(&self, name: &str) -> Result<u64> {
        self.with_retries(|| self.inner.len(name))
    }

    fn truncate(&self, name: &str, len: u64) -> Result<()> {
        self.with_retries(|| self.inner.truncate(name, len))
    }

    fn remove(&self, name: &str) -> Result<()> {
        self.with_retries(|| self.inner.remove(name))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.with_retries(|| self.inner.rename(from, to))
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn flush(&self, name: &str) -> Result<()> {
        self.with_retries(|| self.inner.flush(name))
    }

    fn sleep_virtual(&self, d: Duration) {
        self.inner.sleep_virtual(d);
    }

    fn io_time(&self) -> Duration {
        self.inner.io_time()
    }

    fn io_counters(&self) -> IoCounters {
        self.inner.io_counters()
    }

    fn reset_io_accounting(&self) {
        self.inner.reset_io_accounting();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamassu_storage::{DirStore, FaultyStore, StorageProfile};

    fn dir(tag: &str, profile: StorageProfile) -> Arc<DirStore> {
        let dir = std::env::temp_dir().join(format!(
            "lamassu-resilience-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(DirStore::open(&dir, profile).unwrap())
    }

    fn flaky(rate: f64, seed: u64) -> (Arc<FaultyStore>, ResilientStore<FaultyStore>) {
        let inner = Arc::new(FaultyStore::new(dir("flaky", StorageProfile::instant())));
        inner.transient_fault_rate(seed, rate);
        let store = ResilientStore::new(inner.clone(), RetryPolicy::default(), OpBudget::default());
        (inner, store)
    }

    #[test]
    fn transient_faults_are_absorbed() {
        let (inner, store) = flaky(0.3, 11);
        store.create("f").unwrap();
        let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        store.write_at("f", 0, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        assert_eq!(store.read_into("f", 0, &mut buf).unwrap(), data.len());
        assert_eq!(buf, data);
        let s = store.stats();
        assert!(s.retries > 0, "30% faults must have caused retries: {s:?}");
        assert!(s.recoveries > 0, "{s:?}");
        assert_eq!(s.budget_exhausted, 0, "{s:?}");
        assert!(
            inner.fault_stats().transient_faults > 0,
            "faults must actually have fired"
        );
    }

    #[test]
    fn backoff_is_charged_to_virtual_time_only() {
        let (_inner, store) = flaky(0.4, 3);
        store.create("f").unwrap();
        let wall = std::time::Instant::now();
        for i in 0..64 {
            store.write_at("f", i * 64, &[i as u8; 64]).unwrap();
        }
        let s = store.stats();
        assert!(s.retries > 0);
        assert!(s.backoff_virtual() > Duration::ZERO);
        assert!(
            store.io_time() >= s.backoff_virtual(),
            "sleeps must show up in io_time: {:?} < {:?}",
            store.io_time(),
            s.backoff_virtual()
        );
        assert!(
            wall.elapsed() < Duration::from_secs(2),
            "backoff must not sleep on the wall clock"
        );
    }

    #[test]
    fn terminal_errors_surface_immediately() {
        let (_inner, store) = flaky(0.0, 1);
        let mut buf = [0u8; 8];
        assert!(matches!(
            store.read_into("missing", 0, &mut buf),
            Err(StorageError::NotFound { .. })
        ));
        store.create("f").unwrap();
        assert!(matches!(
            store.create("f"),
            Err(StorageError::AlreadyExists { .. })
        ));
        let s = store.stats();
        assert_eq!(s.retries, 0, "terminal errors must not retry: {s:?}");
        assert_eq!(s.terminal_errors, 2, "{s:?}");
    }

    #[test]
    fn attempt_budget_exhausts_against_a_dead_store() {
        let inner = Arc::new(FaultyStore::new(dir("dead", StorageProfile::instant())));
        let store = ResilientStore::new(
            inner.clone(),
            RetryPolicy::default(),
            OpBudget {
                max_attempts: 3,
                max_elapsed: Duration::from_secs(3600),
            },
        );
        store.create("f").unwrap();
        inner.crash_after_writes(0);
        let err = store.write_at("f", 0, b"doomed").unwrap_err();
        assert!(matches!(err, StorageError::Crashed));
        let s = store.stats();
        assert_eq!(s.retries, 2, "3 attempts = 2 retries: {s:?}");
        assert_eq!(s.budget_exhausted, 1, "{s:?}");
    }

    #[test]
    fn virtual_deadline_bounds_a_sticky_outage() {
        let inner = Arc::new(FaultyStore::new(dir("deadline", StorageProfile::instant())));
        let store = ResilientStore::new(
            inner.clone(),
            RetryPolicy {
                base: Duration::from_millis(10),
                max: Duration::from_millis(10),
                seed: 5,
            },
            OpBudget {
                max_attempts: u32::MAX,
                max_elapsed: Duration::from_millis(25),
            },
        );
        store.create("f").unwrap();
        inner.crash_after_writes(0);
        let err = store.write_at("f", 0, b"doomed").unwrap_err();
        assert!(matches!(err, StorageError::Crashed));
        let s = store.stats();
        // Each retry sleeps 5–10ms of virtual time; a 25ms deadline allows
        // only a handful of attempts, not u32::MAX.
        assert!(s.retries <= 5, "deadline must bound retries: {s:?}");
        assert_eq!(s.budget_exhausted, 1);
    }

    #[test]
    fn retries_ride_out_a_virtual_time_outage() {
        let inner = Arc::new(FaultyStore::new(dir("outage", StorageProfile::nfs_1gbe())));
        let store = ResilientStore::new(
            inner.clone(),
            RetryPolicy::default(),
            OpBudget {
                max_attempts: 32,
                max_elapsed: Duration::from_secs(30),
            },
        );
        store.create("f").unwrap();
        store.write_at("f", 0, &[7u8; 256]).unwrap();
        // Outage that heals after 5ms of virtual time: backoff sleeps
        // advance the clock past the deadline, then the retry succeeds.
        inner.heal_after_virtual(Duration::from_millis(5));
        inner.crash_after_reads(0);
        let mut buf = [0u8; 256];
        assert_eq!(store.read_into("f", 0, &mut buf).unwrap(), 256);
        assert_eq!(buf, [7u8; 256]);
        let s = store.stats();
        assert!(s.retries > 0, "{s:?}");
        assert!(s.recoveries == 1, "{s:?}");
        assert_eq!(inner.fault_stats().heals, 1);
    }

    #[test]
    fn hedging_fires_on_slow_attempts_and_wins_on_a_free_lane() {
        // NFS profile: multi-block reads cost real modelled time and the
        // queue depth gives the hedge a second lane.
        let inner = dir("hedge", StorageProfile::nfs_1gbe());
        let store = ResilientStore::new(inner.clone(), RetryPolicy::default(), OpBudget::default())
            .with_hedging(HedgeConfig {
                quantile: 0.5,
                min_samples: 8,
                refresh_every: 4,
                floor: Duration::from_nanos(1),
            });
        store.create("f").unwrap();
        let data: Vec<u8> = (0..1 << 20).map(|i| (i % 241) as u8).collect();
        store.write_at("f", 0, &data).unwrap();
        // Mostly-small reads seed the histogram low; occasional huge reads
        // then cross the median threshold and hedge.
        let mut small = vec![0u8; 4096];
        let mut large = vec![0u8; 1 << 19];
        for round in 0..24 {
            store.read_into("f", 0, &mut small).unwrap();
            if round % 4 == 3 {
                store.read_into("f", 0, &mut large).unwrap();
            }
        }
        let s = store.stats();
        assert!(s.hedged_reads > 0, "large reads must trip the p50: {s:?}");
        assert!(s.hedge_wins > 0, "an idle lane should win ties: {s:?}");
        assert!(store.latency_histogram().count() > 0);
        assert!(store.hedge_threshold().is_some());
        // Data integrity is untouched by hedging.
        assert_eq!(&large[..4096], &data[..4096]);
    }

    #[test]
    fn hedge_rescues_a_primary_that_fails_midway() {
        let inner = Arc::new(FaultyStore::new(dir("rescue", StorageProfile::nfs_1gbe())));
        let store = ResilientStore::new(inner.clone(), RetryPolicy::default(), OpBudget::default())
            .with_hedging(HedgeConfig {
                quantile: 0.5,
                min_samples: 4,
                refresh_every: 2,
                floor: Duration::from_nanos(1),
            });
        store.create("f").unwrap();
        let data: Vec<u8> = (0..1 << 18).map(|i| (i % 239) as u8).collect();
        store.write_at("f", 0, &data).unwrap();
        let mut small = vec![0u8; 4096];
        for _ in 0..8 {
            store.read_into("f", 0, &mut small).unwrap();
        }
        // A moderate transient rate: some primaries fail, and when the
        // attempt also crossed the hedge threshold the duplicate rescues
        // it without burning a retry.
        inner.transient_fault_rate(9, 0.35);
        let mut large = vec![0u8; 1 << 17];
        for _ in 0..32 {
            assert_eq!(store.read_into("f", 0, &mut large).unwrap(), large.len());
            assert_eq!(&large[..256], &data[..256]);
        }
        let s = store.stats();
        assert!(s.hedged_reads > 0, "{s:?}");
    }
}
