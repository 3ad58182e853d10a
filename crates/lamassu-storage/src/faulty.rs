//! Crash (power-cut) injection for exercising multiphase-commit recovery.
//!
//! The paper's consistency model (§2.4) assumes the backing store applies
//! individual block writes atomically but can lose power *between* writes,
//! leaving a segment marked mid-update. [`FaultyStore`] wraps any
//! [`ObjectStore`] and simulates exactly that: after a configured number of
//! write operations the "machine" powers off — the triggering write and every
//! subsequent operation fail with [`StorageError::Crashed`], while all data
//! already written survives on the wrapped store, ready for a fresh client to
//! mount and recover.

use crate::profile::IoCounters;
use crate::store::ObjectStore;
use crate::submit::{Completion, SubmitQueue, SubmitTicket};
use crate::{Result, StorageError};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counters making the injected faults observable (exported through the
/// telemetry snapshots so experiments can assert what actually fired).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FaultStats {
    /// Power cuts fired by an exhausted *write* credit.
    pub write_crashes: u64,
    /// Power cuts fired by an exhausted *read* credit.
    pub read_crashes: u64,
    /// Operations refused because the simulated machine was already down.
    pub refused_ops: u64,
    /// Times a transient crash auto-healed (refusal budget or virtual-time
    /// outage expired) and service resumed without a `disarm`.
    pub heals: u64,
    /// One-shot transient faults injected by an armed per-op fault rate
    /// (non-sticky [`StorageError::Backend`] failures).
    pub transient_faults: u64,
}

impl FaultStats {
    /// Field-wise sum of two snapshots (the workspace-wide stats `merge`
    /// convention — used when aggregating a fleet of faulty members).
    pub fn merge(&self, other: &FaultStats) -> FaultStats {
        FaultStats {
            write_crashes: self.write_crashes + other.write_crashes,
            read_crashes: self.read_crashes + other.read_crashes,
            refused_ops: self.refused_ops + other.refused_ops,
            heals: self.heals + other.heals,
            transient_faults: self.transient_faults + other.transient_faults,
        }
    }
}

/// An [`ObjectStore`] wrapper that injects a crash after N writes.
///
/// # Examples
///
/// ```
/// use lamassu_storage::{DedupStore, FaultyStore, ObjectStore, StorageProfile};
/// use std::sync::Arc;
///
/// let inner = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
/// let faulty = FaultyStore::new(inner.clone());
/// inner.create("f").unwrap();
/// faulty.crash_after_writes(1);
/// assert!(faulty.write_at("f", 0, b"first").is_ok());
/// assert!(faulty.write_at("f", 0, b"second").is_err()); // power cut
/// assert!(inner.read_at("f", 0, 5).is_ok()); // media survives
/// ```
pub struct FaultyStore {
    inner: Arc<dyn ObjectStore>,
    /// Remaining writes before the crash fires; `u64::MAX` means "never".
    writes_until_crash: AtomicU64,
    /// Remaining read operations before the crash fires; `u64::MAX` means
    /// "never". A vectored span read consumes one credit **per buffer**, so
    /// the injected failure can land in the middle of a span (see
    /// [`FaultyStore::crash_after_reads`]).
    reads_until_crash: AtomicU64,
    crashed: AtomicBool,
    /// Refused ops left before a crashed store auto-heals; `u64::MAX` means
    /// the crash is sticky (the default).
    heal_after_refused: AtomicU64,
    /// Configured outage duration in virtual nanoseconds; `u64::MAX` means
    /// no time-based healing. Latched into `heal_at_ns` when a crash fires.
    heal_outage_ns: AtomicU64,
    /// Absolute virtual-time deadline (inner `io_time()` nanoseconds) after
    /// which the current outage heals; `u64::MAX` means none pending.
    heal_at_ns: AtomicU64,
    /// Per-op transient fault threshold: a 32-bit draw below this value
    /// injects one non-sticky `Backend` failure. `0` disarms the rate.
    transient_threshold: AtomicU64,
    transient_seed: AtomicU64,
    transient_ctr: AtomicU64,
    write_crashes: AtomicU64,
    read_crashes: AtomicU64,
    refused_ops: AtomicU64,
    heals: AtomicU64,
    transient_faults: AtomicU64,
}

impl FaultyStore {
    /// Wraps `inner` with no crash armed.
    pub fn new(inner: Arc<dyn ObjectStore>) -> Self {
        FaultyStore {
            inner,
            writes_until_crash: AtomicU64::new(u64::MAX),
            reads_until_crash: AtomicU64::new(u64::MAX),
            crashed: AtomicBool::new(false),
            heal_after_refused: AtomicU64::new(u64::MAX),
            heal_outage_ns: AtomicU64::new(u64::MAX),
            heal_at_ns: AtomicU64::new(u64::MAX),
            transient_threshold: AtomicU64::new(0),
            transient_seed: AtomicU64::new(0),
            transient_ctr: AtomicU64::new(0),
            write_crashes: AtomicU64::new(0),
            read_crashes: AtomicU64::new(0),
            refused_ops: AtomicU64::new(0),
            heals: AtomicU64::new(0),
            transient_faults: AtomicU64::new(0),
        }
    }

    /// Snapshot of the fault-injection counters. Counters are cumulative
    /// over the store's lifetime; `disarm`/re-arming does not clear them, so
    /// a test can assert exactly how many injections a scenario produced.
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            write_crashes: self.write_crashes.load(Ordering::Relaxed),
            read_crashes: self.read_crashes.load(Ordering::Relaxed),
            refused_ops: self.refused_ops.load(Ordering::Relaxed),
            heals: self.heals.load(Ordering::Relaxed),
            transient_faults: self.transient_faults.load(Ordering::Relaxed),
        }
    }

    /// Arms the fault: the `n + 1`-th subsequent write (0-based: after `n`
    /// successful writes) and everything after it will fail.
    pub fn crash_after_writes(&self, n: u64) {
        self.writes_until_crash.store(n, Ordering::SeqCst);
        self.crashed.store(false, Ordering::SeqCst);
    }

    /// Arms the read fault: after `n` more successful read units every read
    /// fails with [`StorageError::Crashed`]. `read_into` and `read_at` each
    /// consume one unit; a `read_into_vectored` span consumes one unit per
    /// scatter buffer and fails *mid-span* when the credits run out, leaving
    /// the earlier buffers filled — the partial-span failure mode a batched
    /// reader must tolerate without consuming the partial data.
    pub fn crash_after_reads(&self, n: u64) {
        self.reads_until_crash.store(n, Ordering::SeqCst);
        self.crashed.store(false, Ordering::SeqCst);
    }

    /// Makes the next crash *transient*: once the store is down, the first
    /// `n` operations are refused as usual, then the store heals itself —
    /// the crashed flag clears, the crash credits disarm, and service
    /// resumes. `n = 0` heals on the first operation after the crash. Sticky
    /// crashes (the default) never heal without [`FaultyStore::disarm`].
    pub fn heal_after_refusals(&self, n: u64) {
        self.heal_after_refused.store(n, Ordering::SeqCst);
    }

    /// Makes the next crash transient with a *virtual-time* outage: when the
    /// crash fires, a deadline of `outage` past the inner store's current
    /// `io_time()` is latched, and the first operation at or after that
    /// deadline heals the store. Deterministic because the clock only moves
    /// when the workload charges it (including `sleep_virtual` backoff).
    pub fn heal_after_virtual(&self, outage: Duration) {
        self.heal_outage_ns.store(
            outage.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::SeqCst,
        );
    }

    /// Arms a deterministic per-operation transient fault rate: each data
    /// operation draws from a splitmix64 stream seeded by `seed` and fails
    /// with a non-sticky [`StorageError::Backend`] with probability `rate`
    /// (clamped to `[0, 1]`). Unlike the crash credits nothing latches — the
    /// very next operation may succeed — so this is the fault mode a retry
    /// layer can actually win against. `rate = 0.0` disarms.
    pub fn transient_fault_rate(&self, seed: u64, rate: f64) {
        let threshold = (rate.clamp(0.0, 1.0) * (1u64 << 32) as f64) as u64;
        self.transient_seed.store(seed, Ordering::SeqCst);
        self.transient_threshold.store(threshold, Ordering::SeqCst);
    }

    /// Disarms the fault and clears the crashed state (a "reboot" of the
    /// client would instead mount the inner store directly).
    pub fn disarm(&self) {
        self.writes_until_crash.store(u64::MAX, Ordering::SeqCst);
        self.reads_until_crash.store(u64::MAX, Ordering::SeqCst);
        self.heal_after_refused.store(u64::MAX, Ordering::SeqCst);
        self.heal_outage_ns.store(u64::MAX, Ordering::SeqCst);
        self.heal_at_ns.store(u64::MAX, Ordering::SeqCst);
        self.transient_threshold.store(0, Ordering::SeqCst);
        self.crashed.store(false, Ordering::SeqCst);
    }

    /// True once the injected crash has fired.
    pub fn has_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Number of successful writes still allowed before the crash.
    pub fn writes_remaining(&self) -> u64 {
        self.writes_until_crash.load(Ordering::SeqCst)
    }

    /// Number of successful read units still allowed before the crash.
    pub fn reads_remaining(&self) -> u64 {
        self.reads_until_crash.load(Ordering::SeqCst)
    }

    /// Access to the wrapped store (the "surviving media").
    pub fn inner(&self) -> Arc<dyn ObjectStore> {
        self.inner.clone()
    }

    /// Clears the outage: the store is back, crash credits disarmed, heal
    /// triggers reset (each configured heal is one-shot).
    fn heal(&self) {
        self.writes_until_crash.store(u64::MAX, Ordering::SeqCst);
        self.reads_until_crash.store(u64::MAX, Ordering::SeqCst);
        self.heal_after_refused.store(u64::MAX, Ordering::SeqCst);
        self.heal_outage_ns.store(u64::MAX, Ordering::SeqCst);
        self.heal_at_ns.store(u64::MAX, Ordering::SeqCst);
        self.crashed.store(false, Ordering::SeqCst);
        self.heals.fetch_add(1, Ordering::Relaxed);
    }

    fn check_alive(&self) -> Result<()> {
        if !self.crashed.load(Ordering::SeqCst) {
            return Ok(());
        }
        // A virtual-time outage heals once the inner clock passes the
        // deadline latched when the crash fired (backoff sleeps count).
        let deadline = self.heal_at_ns.load(Ordering::SeqCst);
        if deadline != u64::MAX
            && self.inner.io_time().as_nanos().min(u64::MAX as u128) as u64 >= deadline
        {
            self.heal();
            return Ok(());
        }
        // A refusal-budget outage refuses its first `n` ops, then heals.
        let mut left = self.heal_after_refused.load(Ordering::SeqCst);
        while left != u64::MAX {
            if left == 0 {
                self.heal();
                return Ok(());
            }
            match self.heal_after_refused.compare_exchange(
                left,
                left - 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(actual) => left = actual,
            }
        }
        self.refused_ops.fetch_add(1, Ordering::Relaxed);
        Err(StorageError::Crashed)
    }

    /// Consumes one credit from `credits`, crashing (and counting the
    /// injection in `crash_counter`) when it hits zero.
    fn consume_credit(&self, credits: &AtomicU64, crash_counter: &AtomicU64) -> Result<()> {
        self.check_alive()?;
        let mut cur = credits.load(Ordering::SeqCst);
        loop {
            if cur == u64::MAX {
                return Ok(());
            }
            if cur == 0 {
                self.crashed.store(true, Ordering::SeqCst);
                crash_counter.fetch_add(1, Ordering::Relaxed);
                // Latch the virtual-time heal deadline at outage start.
                let outage = self.heal_outage_ns.load(Ordering::SeqCst);
                if outage != u64::MAX {
                    let now = self.inner.io_time().as_nanos().min(u64::MAX as u128) as u64;
                    self.heal_at_ns
                        .store(now.saturating_add(outage), Ordering::SeqCst);
                }
                return Err(StorageError::Crashed);
            }
            match credits.compare_exchange(cur, cur - 1, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return Ok(()),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Draws the armed per-op transient fault rate (no-op when disarmed):
    /// with the configured probability, injects one non-sticky
    /// [`StorageError::Backend`] failure attributed to `name`.
    fn maybe_transient(&self, name: &str) -> Result<()> {
        let threshold = self.transient_threshold.load(Ordering::Relaxed);
        if threshold == 0 {
            return Ok(());
        }
        let seed = self.transient_seed.load(Ordering::Relaxed);
        let n = self.transient_ctr.fetch_add(1, Ordering::Relaxed);
        let draw = splitmix64(seed ^ splitmix64(n)) & 0xFFFF_FFFF;
        if draw < threshold {
            self.transient_faults.fetch_add(1, Ordering::Relaxed);
            Err(StorageError::Backend {
                name: name.to_string(),
                detail: "injected transient fault".to_string(),
            })
        } else {
            Ok(())
        }
    }

    fn consume_write_credit(&self) -> Result<()> {
        self.consume_credit(&self.writes_until_crash, &self.write_crashes)
    }

    fn consume_read_credit(&self) -> Result<()> {
        self.consume_credit(&self.reads_until_crash, &self.read_crashes)
    }
}

/// A deterministic, seedable generator of per-instance fault points for a
/// fleet of [`FaultyStore`]s.
///
/// Distributed tests want *different* members of a cluster to crash at
/// *different*, but reproducible, points. A schedule derives each instance's
/// crash credits from `(seed, instance index)` with a SplitMix64 mix, so the
/// same seed always produces the same failure pattern across runs — no
/// global RNG, no extra dependency.
///
/// # Examples
///
/// ```
/// use lamassu_storage::faulty::FaultSchedule;
///
/// let schedule = FaultSchedule::seeded(42).writes_within(10);
/// let a = schedule.for_instance(0);
/// let b = schedule.for_instance(1);
/// // Same seed, same instance => same fault point; instances differ.
/// assert_eq!(a, schedule.for_instance(0));
/// assert!(a.writes_before_crash.unwrap() <= 10);
/// assert!(b.writes_before_crash.unwrap() <= 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSchedule {
    seed: u64,
    max_writes: Option<u64>,
    max_reads: Option<u64>,
    max_heal_refusals: Option<u64>,
    heal_outage: Option<Duration>,
    transient_rate_ppm: Option<u32>,
}

/// The fault points a [`FaultSchedule`] drew for one instance; armed on a
/// store with [`FaultyStore::arm`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArmedFaults {
    /// Successful writes allowed before the crash, if a write fault is set.
    pub writes_before_crash: Option<u64>,
    /// Successful read units allowed before the crash, if a read fault is
    /// set.
    pub reads_before_crash: Option<u64>,
    /// Refused ops after which the crash auto-heals (transient outage); the
    /// crash is sticky when unset.
    pub heal_after_refusals: Option<u64>,
    /// Virtual-time outage duration after which the crash auto-heals.
    pub heal_outage: Option<Duration>,
    /// Per-op transient fault probability in parts-per-million, with the
    /// fault stream seeded from the schedule's seed and instance index.
    pub transient_rate_ppm: Option<u32>,
    /// Seed for the per-op transient fault stream (derived from the
    /// schedule's seed and instance index).
    pub transient_seed: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FaultSchedule {
    /// A schedule with the given seed and no faults configured.
    pub fn seeded(seed: u64) -> Self {
        FaultSchedule {
            seed,
            max_writes: None,
            max_reads: None,
            max_heal_refusals: None,
            heal_outage: None,
            transient_rate_ppm: None,
        }
    }

    /// Configures a write fault within the first `max` writes (inclusive):
    /// each instance draws a crash point uniformly from `0..=max`.
    pub fn writes_within(mut self, max: u64) -> Self {
        self.max_writes = Some(max);
        self
    }

    /// Configures a read fault within the first `max` read units
    /// (inclusive).
    pub fn reads_within(mut self, max: u64) -> Self {
        self.max_reads = Some(max);
        self
    }

    /// Makes scheduled crashes *transient*: each instance draws a refusal
    /// budget uniformly from `0..=max`, after which the outage heals itself
    /// (see [`FaultyStore::heal_after_refusals`]).
    pub fn heal_within_refusals(mut self, max: u64) -> Self {
        self.max_heal_refusals = Some(max);
        self
    }

    /// Makes scheduled crashes transient with a fixed virtual-time outage:
    /// every instance heals `outage` of virtual time after its crash fires
    /// (see [`FaultyStore::heal_after_virtual`]).
    pub fn heal_after(mut self, outage: Duration) -> Self {
        self.heal_outage = Some(outage);
        self
    }

    /// Arms a per-op transient fault rate of `rate_ppm` parts-per-million on
    /// every instance, each with its own deterministic fault stream (see
    /// [`FaultyStore::transient_fault_rate`]).
    pub fn transient_ppm(mut self, rate_ppm: u32) -> Self {
        self.transient_rate_ppm = Some(rate_ppm);
        self
    }

    /// The fault points for instance `k`. Deterministic in `(seed, k)`.
    pub fn for_instance(&self, k: u64) -> ArmedFaults {
        let draw = |salt: u64, max: u64| splitmix64(self.seed ^ salt ^ splitmix64(k)) % (max + 1);
        ArmedFaults {
            writes_before_crash: self.max_writes.map(|m| draw(0x57u64, m)),
            reads_before_crash: self.max_reads.map(|m| draw(0x52u64, m)),
            heal_after_refusals: self.max_heal_refusals.map(|m| draw(0x48u64, m)),
            heal_outage: self.heal_outage,
            transient_rate_ppm: self.transient_rate_ppm,
            transient_seed: splitmix64(self.seed ^ 0x54u64 ^ splitmix64(k)),
        }
    }
}

impl FaultyStore {
    /// Arms the faults drawn from a [`FaultSchedule`], clearing the crashed
    /// state. Unset fault kinds are left disarmed.
    pub fn arm(&self, faults: ArmedFaults) {
        if let Some(n) = faults.writes_before_crash {
            self.writes_until_crash.store(n, Ordering::SeqCst);
        }
        if let Some(n) = faults.reads_before_crash {
            self.reads_until_crash.store(n, Ordering::SeqCst);
        }
        if let Some(n) = faults.heal_after_refusals {
            self.heal_after_refusals(n);
        }
        if let Some(outage) = faults.heal_outage {
            self.heal_after_virtual(outage);
        }
        if let Some(ppm) = faults.transient_rate_ppm {
            self.transient_fault_rate(faults.transient_seed, ppm as f64 / 1_000_000.0);
        }
        self.crashed.store(false, Ordering::SeqCst);
    }
}

impl ObjectStore for FaultyStore {
    fn create(&self, name: &str) -> Result<()> {
        self.check_alive()?;
        self.inner.create(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn read_into_vectored(
        &self,
        name: &str,
        offset: u64,
        bufs: &mut [std::io::IoSliceMut<'_>],
    ) -> Result<usize> {
        self.check_alive()?;
        self.maybe_transient(name)?;
        if self.reads_until_crash.load(Ordering::SeqCst) == u64::MAX {
            // No read fault armed: pass the span through as one operation.
            return self.inner.read_into_vectored(name, offset, bufs);
        }
        // A read fault is armed: de-vectorize so the fault point is precise.
        // Each buffer consumes one credit, so the failure can land mid-span
        // with the earlier buffers already filled (a partial-span failure).
        let mut pos = offset;
        let mut total = 0usize;
        for buf in bufs.iter_mut() {
            self.consume_read_credit()?;
            let n = self.inner.read_into(name, pos, buf)?;
            total += n;
            pos += n as u64;
            if n < buf.len() {
                break;
            }
        }
        Ok(total)
    }

    fn submit_read_vectored(
        &self,
        q: &mut SubmitQueue,
        name: &str,
        offset: u64,
        bufs: &mut [std::io::IoSliceMut<'_>],
    ) -> SubmitTicket {
        if self.reads_until_crash.load(Ordering::SeqCst) == u64::MAX
            && !self.crashed.load(Ordering::SeqCst)
        {
            // No read fault armed: let the inner store schedule the span on
            // its queue-depth lanes, but park the completion so this tier
            // controls when (and in what order) it becomes visible. An armed
            // transient rate still draws — surfacing at completion time.
            if let Err(e) = self.maybe_transient(name) {
                return q.complete_deferred(Err(e));
            }
            let ticket = self.inner.submit_read_vectored(q, name, offset, bufs);
            q.defer(ticket);
            return ticket;
        }
        // A fault is armed (or the machine is down): execute the
        // de-vectorized credit-per-buffer path eagerly, but surface the
        // outcome — including a mid-span crash — only at completion time.
        let result = self.read_into_vectored(name, offset, bufs);
        q.complete_deferred(result)
    }

    fn submit_write_vectored(
        &self,
        q: &mut SubmitQueue,
        name: &str,
        offset: u64,
        bufs: &[std::io::IoSlice<'_>],
    ) -> SubmitTicket {
        match self
            .consume_write_credit()
            .and_then(|()| self.maybe_transient(name))
        {
            Ok(()) => {
                let ticket = self.inner.submit_write_vectored(q, name, offset, bufs);
                q.defer(ticket);
                ticket
            }
            // The power cut surfaces when the completion is drained, like a
            // real in-flight request lost at the wire.
            Err(e) => q.complete_deferred(Err(e)),
        }
    }

    fn poll_completions(&self, q: &mut SubmitQueue, out: &mut Vec<Completion>) {
        // Deliberately adversarial: each poll releases only the NEWEST
        // parked completion, so a pipeline sees completions in reverse
        // submission order and must match tickets, not positions.
        q.release_newest();
        q.drain_ready(out);
    }

    fn wait_completions(&self, q: &mut SubmitQueue, out: &mut Vec<Completion>) {
        // Releases everything newest-first, then delegates to the inner
        // store so its transport barrier (clock drain) still runs.
        q.release_all();
        self.inner.wait_completions(q, out);
    }

    fn write_at_vectored(
        &self,
        name: &str,
        offset: u64,
        bufs: &[std::io::IoSlice<'_>],
    ) -> Result<()> {
        // One scatter write consumes one credit: the store below applies it
        // as a single atomic operation, so the simulated power cut cannot
        // land between its slices.
        self.consume_write_credit()?;
        self.maybe_transient(name)?;
        self.inner.write_at_vectored(name, offset, bufs)
    }

    fn len(&self, name: &str) -> Result<u64> {
        self.check_alive()?;
        self.inner.len(name)
    }

    fn truncate(&self, name: &str, len: u64) -> Result<()> {
        self.check_alive()?;
        self.inner.truncate(name, len)
    }

    fn remove(&self, name: &str) -> Result<()> {
        self.check_alive()?;
        self.inner.remove(name)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.check_alive()?;
        self.inner.rename(from, to)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn flush(&self, name: &str) -> Result<()> {
        self.check_alive()?;
        self.inner.flush(name)
    }

    fn sleep_virtual(&self, d: Duration) {
        // Backoff is client-side: it advances virtual time even while the
        // simulated machine is down (that is exactly what lets a
        // virtual-time outage expire under a retry loop).
        self.inner.sleep_virtual(d);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dedup::DedupStore;
    use crate::profile::StorageProfile;

    fn setup() -> (Arc<DedupStore>, FaultyStore) {
        let inner = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        inner.create("f").unwrap();
        let faulty = FaultyStore::new(inner.clone());
        (inner, faulty)
    }

    #[test]
    fn unarmed_store_passes_through() {
        let (_inner, faulty) = setup();
        faulty.write_at("f", 0, b"abc").unwrap();
        assert_eq!(faulty.read_at("f", 0, 3).unwrap(), b"abc");
        assert!(!faulty.has_crashed());
    }

    #[test]
    fn crash_fires_exactly_after_n_writes() {
        let (inner, faulty) = setup();
        faulty.crash_after_writes(3);
        for i in 0..3u8 {
            faulty.write_at("f", i as u64, &[i]).unwrap();
        }
        assert!(matches!(
            faulty.write_at("f", 3, &[9]),
            Err(StorageError::Crashed)
        ));
        assert!(faulty.has_crashed());
        // The failed write must not have reached the media.
        assert_eq!(inner.len("f").unwrap(), 3);
    }

    #[test]
    fn fault_stats_count_injections_and_refusals() {
        let (_inner, faulty) = setup();
        assert_eq!(faulty.fault_stats(), FaultStats::default());
        faulty.crash_after_writes(1);
        faulty.write_at("f", 0, b"a").unwrap();
        assert!(faulty.write_at("f", 1, b"b").is_err()); // injection fires
        assert!(faulty.read_at("f", 0, 1).is_err()); // refused: already down
        assert!(faulty.write_at("f", 0, b"c").is_err()); // refused too
        let stats = faulty.fault_stats();
        assert_eq!(stats.write_crashes, 1);
        assert_eq!(stats.read_crashes, 0);
        assert_eq!(stats.refused_ops, 2);
        let merged = stats.merge(&stats);
        assert_eq!(merged.write_crashes, 2);
        assert_eq!(merged.refused_ops, 4);
    }

    #[test]
    fn read_crash_counts_separately() {
        let (_inner, faulty) = setup();
        faulty.write_at("f", 0, b"abc").unwrap();
        faulty.crash_after_reads(0);
        assert!(faulty.read_at("f", 0, 1).is_err());
        let stats = faulty.fault_stats();
        assert_eq!(stats.read_crashes, 1);
        assert_eq!(stats.write_crashes, 0);
    }

    #[test]
    fn all_operations_fail_after_crash() {
        let (_inner, faulty) = setup();
        faulty.crash_after_writes(0);
        assert!(faulty.write_at("f", 0, b"x").is_err());
        assert!(faulty.read_at("f", 0, 0).is_err());
        assert!(faulty.len("f").is_err());
        assert!(faulty.truncate("f", 0).is_err());
        assert!(faulty.flush("f").is_err());
        assert!(faulty.create("g").is_err());
    }

    #[test]
    fn media_survives_crash() {
        let (inner, faulty) = setup();
        faulty.crash_after_writes(1);
        faulty.write_at("f", 0, b"durable").unwrap();
        let _ = faulty.write_at("f", 0, b"lost");
        assert_eq!(inner.read_at("f", 0, 7).unwrap(), b"durable");
    }

    #[test]
    fn disarm_restores_service() {
        let (_inner, faulty) = setup();
        faulty.crash_after_writes(0);
        assert!(faulty.write_at("f", 0, b"x").is_err());
        faulty.disarm();
        assert!(faulty.write_at("f", 0, b"x").is_ok());
    }

    #[test]
    fn writes_remaining_reports_credits() {
        let (_inner, faulty) = setup();
        assert_eq!(faulty.writes_remaining(), u64::MAX);
        faulty.crash_after_writes(2);
        assert_eq!(faulty.writes_remaining(), 2);
        faulty.write_at("f", 0, b"x").unwrap();
        assert_eq!(faulty.writes_remaining(), 1);
    }

    #[test]
    fn read_fault_fires_after_n_reads() {
        let (_inner, faulty) = setup();
        faulty.write_at("f", 0, &[7u8; 64]).unwrap();
        faulty.crash_after_reads(2);
        assert!(faulty.read_at("f", 0, 8).is_ok());
        let mut buf = [0u8; 8];
        assert!(faulty.read_into("f", 8, &mut buf).is_ok());
        assert!(matches!(
            faulty.read_at("f", 16, 8),
            Err(StorageError::Crashed)
        ));
        assert!(faulty.has_crashed());
        // After the crash every operation fails, including writes.
        assert!(faulty.write_at("f", 0, b"x").is_err());
        faulty.disarm();
        assert_eq!(faulty.reads_remaining(), u64::MAX);
        assert!(faulty.read_at("f", 0, 8).is_ok());
    }

    #[test]
    fn vectored_read_fails_mid_span_leaving_earlier_buffers_filled() {
        let (_inner, faulty) = setup();
        faulty.write_at("f", 0, &[9u8; 48]).unwrap();
        faulty.crash_after_reads(2);
        let (mut a, mut b, mut c) = ([0u8; 16], [0u8; 16], [0u8; 16]);
        let result = faulty.read_into_vectored(
            "f",
            0,
            &mut [
                std::io::IoSliceMut::new(&mut a),
                std::io::IoSliceMut::new(&mut b),
                std::io::IoSliceMut::new(&mut c),
            ],
        );
        assert!(matches!(result, Err(StorageError::Crashed)));
        // The first two buffers were filled before the injected failure; the
        // third was never reached. A caller must discard the partial span.
        assert_eq!(a, [9u8; 16]);
        assert_eq!(b, [9u8; 16]);
        assert_eq!(c, [0u8; 16]);
    }

    #[test]
    fn submitted_reads_complete_deferred_and_reordered() {
        let (_inner, faulty) = setup();
        faulty.write_at("f", 0, &[5u8; 48]).unwrap();
        let mut q = SubmitQueue::new();
        let (mut a, mut b, mut c) = ([0u8; 16], [0u8; 16], [0u8; 16]);
        let t1 = {
            let mut iov = [std::io::IoSliceMut::new(&mut a)];
            faulty.submit_read_vectored(&mut q, "f", 0, &mut iov)
        };
        let t2 = {
            let mut iov = [std::io::IoSliceMut::new(&mut b)];
            faulty.submit_read_vectored(&mut q, "f", 16, &mut iov)
        };
        let t3 = {
            let mut iov = [std::io::IoSliceMut::new(&mut c)];
            faulty.submit_read_vectored(&mut q, "f", 32, &mut iov)
        };
        // Nothing is visible until the store releases it; each poll releases
        // exactly one completion, newest-first.
        let mut out = Vec::new();
        faulty.poll_completions(&mut q, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ticket, t3, "poll releases the newest first");
        faulty.wait_completions(&mut q, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[1].ticket, t2);
        assert_eq!(out[2].ticket, t1);
        assert!(out.iter().all(|co| matches!(co.result, Ok(16))));
        assert_eq!(a, [5u8; 16]);
        assert_eq!(b, [5u8; 16]);
        assert_eq!(c, [5u8; 16]);
    }

    #[test]
    fn submitted_read_fault_surfaces_at_completion_time() {
        let (_inner, faulty) = setup();
        faulty.write_at("f", 0, &[9u8; 48]).unwrap();
        faulty.crash_after_reads(2);
        let mut q = SubmitQueue::new();
        let (mut a, mut b, mut c) = ([0u8; 16], [0u8; 16], [0u8; 16]);
        let ticket = {
            let mut iov = [
                std::io::IoSliceMut::new(&mut a),
                std::io::IoSliceMut::new(&mut b),
                std::io::IoSliceMut::new(&mut c),
            ];
            faulty.submit_read_vectored(&mut q, "f", 0, &mut iov)
        };
        // Submit itself reports nothing; the mid-span crash is only visible
        // once the completion drains.
        assert_eq!(q.deferred(), 1);
        let mut out = Vec::new();
        faulty.wait_completions(&mut q, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ticket, ticket);
        assert!(matches!(out[0].result, Err(StorageError::Crashed)));
        // Partial span: the first two buffers were filled before the cut.
        assert_eq!(a, [9u8; 16]);
        assert_eq!(b, [9u8; 16]);
        assert_eq!(c, [0u8; 16]);
    }

    #[test]
    fn submitted_write_fault_surfaces_at_completion_time() {
        let (inner, faulty) = setup();
        faulty.crash_after_writes(1);
        let mut q = SubmitQueue::new();
        let data = [1u8; 8];
        let t1 = faulty.submit_write_vectored(&mut q, "f", 0, &[std::io::IoSlice::new(&data)]);
        let t2 = faulty.submit_write_vectored(&mut q, "f", 8, &[std::io::IoSlice::new(&data)]);
        let mut out = Vec::new();
        faulty.wait_completions(&mut q, &mut out);
        assert_eq!(out.len(), 2);
        // Newest-first: the failed second write drains before the first.
        assert_eq!(out[0].ticket, t2);
        assert!(matches!(out[0].result, Err(StorageError::Crashed)));
        assert_eq!(out[1].ticket, t1);
        assert!(matches!(out[1].result, Ok(8)));
        assert_eq!(inner.len("f").unwrap(), 8, "only the first write landed");
    }

    #[test]
    fn refusal_budget_outage_heals_itself() {
        let (_inner, faulty) = setup();
        faulty.crash_after_writes(1);
        faulty.heal_after_refusals(2);
        faulty.write_at("f", 0, b"a").unwrap();
        assert!(faulty.write_at("f", 1, b"b").is_err()); // crash fires
        assert!(faulty.read_at("f", 0, 1).is_err()); // refusal 1
        assert!(faulty.write_at("f", 1, b"b").is_err()); // refusal 2
                                                         // Budget spent: the outage heals and service resumes.
        assert!(faulty.write_at("f", 1, b"b").is_ok());
        assert!(!faulty.has_crashed());
        let stats = faulty.fault_stats();
        assert_eq!(stats.heals, 1);
        assert_eq!(stats.refused_ops, 2);
        // Healing disarms the credits: no instant re-crash.
        assert!(faulty.write_at("f", 2, b"c").is_ok());
    }

    #[test]
    fn virtual_time_outage_heals_when_the_clock_passes_the_deadline() {
        let (_inner, faulty) = setup();
        faulty.crash_after_writes(0);
        faulty.heal_after_virtual(Duration::from_millis(5));
        assert!(faulty.write_at("f", 0, b"x").is_err()); // crash fires
        assert!(faulty.write_at("f", 0, b"x").is_err()); // still down
                                                         // A backoff sleep advances the virtual clock past the outage.
        faulty.sleep_virtual(Duration::from_millis(6));
        assert!(faulty.write_at("f", 0, b"x").is_ok());
        assert_eq!(faulty.fault_stats().heals, 1);
    }

    #[test]
    fn transient_rate_injects_nonsticky_backend_faults() {
        let (_inner, faulty) = setup();
        faulty.write_at("f", 0, &[1u8; 64]).unwrap();
        faulty.transient_fault_rate(7, 0.5);
        let mut failures = 0;
        let mut successes = 0;
        for i in 0..200 {
            match faulty.read_at("f", i % 64, 1) {
                Ok(_) => successes += 1,
                Err(StorageError::Backend { .. }) => failures += 1,
                Err(e) => panic!("unexpected error kind: {e}"),
            }
            assert!(!faulty.has_crashed(), "rate faults must not latch");
        }
        assert!(failures > 50, "rate too low: {failures}");
        assert!(successes > 50, "rate too high: {successes}");
        assert_eq!(faulty.fault_stats().transient_faults, failures);
        faulty.transient_fault_rate(7, 0.0);
        for i in 0..50 {
            faulty.read_at("f", i, 1).unwrap();
        }
    }

    #[test]
    fn transient_rate_stream_is_deterministic() {
        let run = || {
            let (_inner, faulty) = setup();
            faulty.write_at("f", 0, &[1u8; 8]).unwrap();
            faulty.transient_fault_rate(99, 0.3);
            (0..64)
                .map(|_| faulty.read_at("f", 0, 1).is_ok())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run(), "same seed must give the same fault stream");
    }

    #[test]
    fn schedule_heal_and_transient_fields_are_deterministic() {
        let s = FaultSchedule::seeded(3)
            .writes_within(10)
            .heal_within_refusals(4)
            .heal_after(Duration::from_millis(2))
            .transient_ppm(50_000);
        let a = s.for_instance(5);
        assert_eq!(a, s.for_instance(5));
        assert!(a.heal_after_refusals.unwrap() <= 4);
        assert_eq!(a.heal_outage, Some(Duration::from_millis(2)));
        assert_eq!(a.transient_rate_ppm, Some(50_000));
        assert_ne!(
            a.transient_seed,
            s.for_instance(6).transient_seed,
            "instances must draw distinct fault streams"
        );
        // Arming applies the transient config.
        let (_inner, faulty) = setup();
        faulty.arm(a);
        assert_eq!(faulty.writes_remaining(), a.writes_before_crash.unwrap());
    }

    #[test]
    fn fault_schedule_is_deterministic_and_bounded() {
        let s = FaultSchedule::seeded(7).writes_within(20).reads_within(5);
        for k in 0..32u64 {
            let a = s.for_instance(k);
            assert_eq!(a, s.for_instance(k), "same (seed, instance) must agree");
            assert!(a.writes_before_crash.unwrap() <= 20);
            assert!(a.reads_before_crash.unwrap() <= 5);
        }
        // Different instances (or seeds) draw different fault points —
        // statistically, over 32 draws from 0..=20 at least two must differ.
        let distinct: std::collections::HashSet<u64> = (0..32)
            .map(|k| s.for_instance(k).writes_before_crash.unwrap())
            .collect();
        assert!(distinct.len() > 1, "instances all crash at the same point");
        assert_ne!(
            s.for_instance(0),
            FaultSchedule::seeded(8)
                .writes_within(20)
                .reads_within(5)
                .for_instance(0),
            "seed must matter"
        );
    }

    #[test]
    fn arm_applies_drawn_faults() {
        let (_inner, faulty) = setup();
        let faults = FaultSchedule::seeded(1).writes_within(3).for_instance(0);
        faulty.arm(faults);
        assert_eq!(
            faulty.writes_remaining(),
            faults.writes_before_crash.unwrap()
        );
        assert_eq!(faulty.reads_remaining(), u64::MAX, "read fault unset");
        for i in 0..faults.writes_before_crash.unwrap() {
            faulty.write_at("f", i, &[1]).unwrap();
        }
        assert!(matches!(
            faulty.write_at("f", 0, &[2]),
            Err(StorageError::Crashed)
        ));
    }
}
