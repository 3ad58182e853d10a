//! Routing-tier statistics: failovers, degraded writes, repairs.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic accumulators behind [`DistStats`].
#[derive(Default)]
pub(crate) struct AtomicDistStats {
    pub read_failovers: AtomicU64,
    pub degraded_writes: AtomicU64,
    pub scrub_mismatches: AtomicU64,
    pub scrub_repairs: AtomicU64,
    pub breaker_skips: AtomicU64,
    pub probe_scrubs: AtomicU64,
    pub suspects_cleared_inline: AtomicU64,
}

impl AtomicDistStats {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub fn snapshot(&self, suspects_pending: u64) -> DistStats {
        DistStats {
            read_failovers: self.read_failovers.load(Ordering::Relaxed),
            degraded_writes: self.degraded_writes.load(Ordering::Relaxed),
            scrub_mismatches: self.scrub_mismatches.load(Ordering::Relaxed),
            scrub_repairs: self.scrub_repairs.load(Ordering::Relaxed),
            breaker_skips: self.breaker_skips.load(Ordering::Relaxed),
            probe_scrubs: self.probe_scrubs.load(Ordering::Relaxed),
            suspects_cleared_inline: self.suspects_cleared_inline.load(Ordering::Relaxed),
            suspects_pending,
        }
    }
}

/// Snapshot of a [`crate::RoutedStore`]'s routing statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DistStats {
    /// Reads that fell over from a failed replica to the next in the chain.
    pub read_failovers: u64,
    /// Unit writes that succeeded on some, but not all, owners (the missed
    /// owners were marked suspect for the next scrub).
    pub degraded_writes: u64,
    /// Replica digest divergences detected by [`crate::RoutedStore::scrub`].
    pub scrub_mismatches: u64,
    /// Replica units rewritten from a good copy by scrub.
    pub scrub_repairs: u64,
    /// Replica attempts skipped because the member's health gate (circuit
    /// breaker) rejected it.
    pub breaker_skips: u64,
    /// Targeted per-member scrubs run after a health gate reclosed
    /// (see [`crate::RoutedStore::scrub_member`]).
    pub probe_scrubs: u64,
    /// Read-failure (`Probation`) suspect entries cleared inline by a later
    /// successful read, without waiting for a scrub.
    pub suspects_cleared_inline: u64,
    /// `(member, object)` pairs currently awaiting repair.
    pub suspects_pending: u64,
}

impl DistStats {
    /// Field-wise sum of two snapshots (the workspace-wide stats `merge`
    /// convention — used when aggregating several routed clusters). The
    /// `suspects_pending` gauge sums too: the aggregate is "suspects across
    /// all clusters".
    pub fn merge(&self, other: &DistStats) -> DistStats {
        DistStats {
            read_failovers: self.read_failovers + other.read_failovers,
            degraded_writes: self.degraded_writes + other.degraded_writes,
            scrub_mismatches: self.scrub_mismatches + other.scrub_mismatches,
            scrub_repairs: self.scrub_repairs + other.scrub_repairs,
            breaker_skips: self.breaker_skips + other.breaker_skips,
            probe_scrubs: self.probe_scrubs + other.probe_scrubs,
            suspects_cleared_inline: self.suspects_cleared_inline + other.suspects_cleared_inline,
            suspects_pending: self.suspects_pending + other.suspects_pending,
        }
    }
}

/// What one [`crate::RoutedStore::scrub`] pass found and fixed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ScrubReport {
    /// Objects examined.
    pub objects: u64,
    /// Placement units whose replica set was compared.
    pub units: u64,
    /// Units where replica digests diverged (or a replica was unreadable).
    pub mismatches: u64,
    /// Replica units rewritten from a good copy.
    pub repaired: u64,
    /// Stale replicas of removed objects deleted from members.
    pub tombstones_cleared: u64,
    /// Units where *no* replica was readable (nothing to repair from).
    pub unreadable_units: u64,
}

impl ScrubReport {
    /// Field-wise sum of two reports (the workspace-wide stats `merge`
    /// convention — [`crate::RoutedStore::scrub_totals`] accumulates passes
    /// with it).
    pub fn merge(&self, other: &ScrubReport) -> ScrubReport {
        ScrubReport {
            objects: self.objects + other.objects,
            units: self.units + other.units,
            mismatches: self.mismatches + other.mismatches,
            repaired: self.repaired + other.repaired,
            tombstones_cleared: self.tombstones_cleared + other.tombstones_cleared,
            unreadable_units: self.unreadable_units + other.unreadable_units,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fieldwise() {
        let d = DistStats {
            read_failovers: 1,
            suspects_pending: 2,
            ..DistStats::default()
        };
        let m = d.merge(&d);
        assert_eq!(m.read_failovers, 2);
        assert_eq!(m.suspects_pending, 4);
        let s = ScrubReport {
            objects: 3,
            repaired: 1,
            ..ScrubReport::default()
        };
        let m = s.merge(&s);
        assert_eq!(m.objects, 6);
        assert_eq!(m.repaired, 2);
    }

    #[test]
    fn stats_serialize_for_snapshot_export() {
        let d = DistStats {
            degraded_writes: 5,
            ..DistStats::default()
        };
        let json = serde_json::to_string(&d).unwrap();
        assert!(json.contains("\"degraded_writes\":5"), "{json}");
        let s = ScrubReport {
            units: 7,
            ..ScrubReport::default()
        };
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"units\":7"), "{json}");
    }
}
