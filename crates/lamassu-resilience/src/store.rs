//! [`ResilientStore`]: retries and deadlines over any `ObjectStore`.
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
//!
//! # What is (and is not) retried
//!
//! Errors classified transient by `StorageError::is_transient` (`Crashed`,
//! `Backend`) are retried under the [`RetryPolicy`] until the [`OpBudget`]
//! runs out. Terminal errors — `NotFound`, `AlreadyExists`, `OutOfBounds`
//! — describe namespace state, not transport luck: they surface
//! immediately and never burn budget.
//!
//! Every method is one retried call on the wrapped store. A submitted
//! write is retried the same way, attempt by attempt, but each attempt goes
//! down as a submission (`lamassu_storage::write_submitted`), so its
//! transport cost lands on the queue-depth lanes below and a caller that
//! submits many writes before it waits (the write-back cache's flush)
//! overlaps them. Submitted reads take the trait default: the retried
//! blocking read, completed at once.

use crate::retry::{OpBudget, RetryPolicy};
use crate::stats::{AtomicResilienceStats, ResilienceStats};
use lamassu_storage::{
    write_submitted, Completion, IoCounters, ObjectStore, Result, SubmitQueue, SubmitTicket,
};
use std::io::{IoSlice, IoSliceMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A self-healing wrapper around any [`ObjectStore`]: transient failures
/// are retried with virtual-time backoff under a per-operation budget.
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
    /// Logical-operation sequence number (jitter decorrelation).
    op_seq: AtomicU64,
    stats: AtomicResilienceStats,
}

impl<S: ObjectStore + ?Sized> ResilientStore<S> {
    /// Wraps `inner` with retries and deadlines.
    pub fn new(inner: Arc<S>, retry: RetryPolicy, budget: OpBudget) -> Self {
        ResilientStore {
            inner,
            retry,
            budget,
            op_seq: AtomicU64::new(0),
            stats: AtomicResilienceStats::default(),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &Arc<S> {
        &self.inner
    }

    /// Recovery-activity counters.
    pub fn stats(&self) -> ResilienceStats {
        self.stats.snapshot()
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
        self.with_retries(|| self.inner.read_into_vectored(name, offset, bufs))
    }

    fn write_at_vectored(&self, name: &str, offset: u64, bufs: &[IoSlice<'_>]) -> Result<()> {
        self.with_retries(|| self.inner.write_at_vectored(name, offset, bufs))
    }

    fn submit_write_vectored(
        &self,
        q: &mut SubmitQueue,
        name: &str,
        offset: u64,
        bufs: &[IoSlice<'_>],
    ) -> SubmitTicket {
        let result = self.with_retries(|| write_submitted(&*self.inner, name, offset, bufs));
        q.complete_now(result)
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
    use lamassu_storage::{DirStore, FaultyStore, StorageError, StorageProfile};

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
}
