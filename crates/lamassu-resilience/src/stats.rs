//! Resilience-layer statistics: retries and budgets.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Atomic accumulators behind [`ResilienceStats`].
#[derive(Debug, Default)]
pub(crate) struct AtomicResilienceStats {
    pub retries: AtomicU64,
    pub recoveries: AtomicU64,
    pub budget_exhausted: AtomicU64,
    pub terminal_errors: AtomicU64,
    pub backoff_ns: AtomicU64,
}

impl AtomicResilienceStats {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> ResilienceStats {
        ResilienceStats {
            retries: self.retries.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            budget_exhausted: self.budget_exhausted.load(Ordering::Relaxed),
            terminal_errors: self.terminal_errors.load(Ordering::Relaxed),
            hedged_reads: 0,
            backoff_virtual_ns: self.backoff_ns.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of a [`crate::ResilientStore`]'s recovery activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ResilienceStats {
    /// Transient-failure retries performed (each preceded by a virtual
    /// backoff sleep).
    pub retries: u64,
    /// Logical operations that failed at least once and then succeeded
    /// within budget — the count of client-visible errors *prevented*.
    pub recoveries: u64,
    /// Logical operations whose attempt or deadline budget ran out; the
    /// last transient error surfaced to the caller.
    pub budget_exhausted: u64,
    /// Terminal errors (`NotFound` and friends) passed straight through
    /// without burning retry budget.
    pub terminal_errors: u64,
    /// Always 0: the store issues no duplicate reads. The field stays
    /// because the benchmark's `resilience.hedged_reads` row reads it; the
    /// two leave together.
    pub hedged_reads: u64,
    /// Total virtual time spent in backoff sleeps, in nanoseconds.
    pub backoff_virtual_ns: u64,
}

impl ResilienceStats {
    /// Field-wise sum of two snapshots (the workspace-wide stats `merge`
    /// convention).
    pub fn merge(&self, other: &ResilienceStats) -> ResilienceStats {
        ResilienceStats {
            retries: self.retries + other.retries,
            recoveries: self.recoveries + other.recoveries,
            budget_exhausted: self.budget_exhausted + other.budget_exhausted,
            terminal_errors: self.terminal_errors + other.terminal_errors,
            hedged_reads: self.hedged_reads + other.hedged_reads,
            backoff_virtual_ns: self.backoff_virtual_ns + other.backoff_virtual_ns,
        }
    }

    /// Total virtual backoff time as a [`Duration`].
    pub fn backoff_virtual(&self) -> Duration {
        Duration::from_nanos(self.backoff_virtual_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fieldwise_and_serializes() {
        let a = ResilienceStats {
            retries: 2,
            recoveries: 1,
            backoff_virtual_ns: 500,
            ..ResilienceStats::default()
        };
        let m = a.merge(&a);
        assert_eq!(m.retries, 4);
        assert_eq!(m.recoveries, 2);
        assert_eq!(m.backoff_virtual(), Duration::from_nanos(1000));
        let json = serde_json::to_string(&a).unwrap();
        assert!(json.contains("\"retries\":2"), "{json}");
    }
}
