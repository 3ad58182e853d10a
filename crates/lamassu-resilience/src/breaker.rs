//! Per-backend circuit breakers and the [`BreakerSet`] health gate.
//!
//! A [`CircuitBreaker`] tracks one backend's recent error rate in a
//! decaying window and walks the classic three-state machine:
//!
//! ```text
//!            error rate ≥ threshold
//!   Closed ──────────────────────────▶ Open
//!      ▲                                │ `allow()` calls count down
//!      │ probe succeeds                 │ the cooldown (traffic-driven,
//!      │                                ▼ hence deterministic)
//!      └───────────────────────────  HalfOpen ──▶ back to Open on a
//!               (Reclosed event)                  failed probe
//! ```
//!
//! Everything is atomics — no locks, no wall-clock time. The open
//! cooldown is measured in *rejected admission attempts* rather than
//! seconds: under the workspace's virtual-time model, traffic is the only
//! clock every configuration shares, and counting rejections makes a
//! replayed workload re-open and re-close breakers at exactly the same
//! points.
//!
//! [`BreakerSet`] maintains one breaker per backend member id and
//! implements `lamassu-dist`'s `HealthGate`, so plugging it into a
//! `RoutedStore` makes the router skip open members (degraded reads off
//! replicas, degraded writes with suspect marking) and turn every
//! successful half-open probe into a targeted scrub request.

use lamassu_dist::{HealthEvent, HealthGate};
use parking_lot::RwLock;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Tunables for one [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Window size in operations; when the op count reaches it, both the
    /// op and error counts halve (an exponential-decay sliding window).
    pub window: u64,
    /// Minimum ops observed before the error rate can open the breaker
    /// (otherwise one early failure on a cold backend trips it).
    pub min_samples: u64,
    /// Open when an error brings the window to
    /// `100 * errors >= error_rate_pct * ops` (checked on error records
    /// only — successes never open a breaker).
    pub error_rate_pct: u32,
    /// Rejected `allow()` calls an open breaker absorbs before letting a
    /// single half-open probe through.
    pub cooldown: u64,
}

impl Default for BreakerConfig {
    /// Open at a 50 % error rate over a 32-op window (min 8 samples),
    /// probe after 8 rejected attempts.
    fn default() -> Self {
        BreakerConfig {
            window: 32,
            min_samples: 8,
            error_rate_pct: 50,
            cooldown: 8,
        }
    }
}

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BreakerState {
    /// Healthy: all traffic admitted, error rate tracked.
    Closed,
    /// Unhealthy: traffic rejected while the cooldown counts down.
    Open,
    /// Cooldown expired: exactly one probe attempt is admitted; its
    /// outcome decides between `Closed` and `Open`.
    HalfOpen,
}

const CLOSED: u8 = 0;
const OPEN: u8 = 1;
const HALF_OPEN: u8 = 2;

/// Error-rate circuit breaker for a single backend. All-atomic; see the
/// module docs for the state machine.
#[derive(Debug, Default)]
pub struct CircuitBreaker {
    config_window: u64,
    config_min_samples: u64,
    config_error_rate_pct: u32,
    config_cooldown: u64,
    state: AtomicU8,
    /// Decaying-window op / error counts (valid while `Closed`).
    ops: AtomicU64,
    errs: AtomicU64,
    /// Rejections left before an open breaker goes half-open.
    cooldown_left: AtomicU64,
    /// 1 while the single half-open probe is outstanding.
    probe_inflight: AtomicU8,
    opens: AtomicU64,
    recloses: AtomicU64,
    probes: AtomicU64,
    rejections: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tunables.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config_window: config.window.max(1),
            config_min_samples: config.min_samples.max(1),
            config_error_rate_pct: config.error_rate_pct,
            config_cooldown: config.cooldown,
            ..CircuitBreaker::default()
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        match self.state.load(Ordering::SeqCst) {
            OPEN => BreakerState::Open,
            HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Should traffic be admitted right now? Open breakers consume one
    /// cooldown tick per call; half-open breakers admit exactly one probe.
    pub fn allow(&self) -> bool {
        match self.state.load(Ordering::SeqCst) {
            CLOSED => true,
            OPEN => {
                // Each rejected call counts against the cooldown; the first
                // call that finds it drained flips the breaker half-open
                // and becomes the probe.
                let mut left = self.cooldown_left.load(Ordering::SeqCst);
                while left != 0 {
                    match self.cooldown_left.compare_exchange(
                        left,
                        left - 1,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    ) {
                        Ok(_) => {
                            self.rejections.fetch_add(1, Ordering::Relaxed);
                            return false;
                        }
                        Err(actual) => left = actual,
                    }
                }
                let _ = self.state.compare_exchange(
                    OPEN,
                    HALF_OPEN,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                self.admit_probe()
            }
            _ => self.admit_probe(),
        }
    }

    fn admit_probe(&self) -> bool {
        if self
            .probe_inflight
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.probes.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            self.rejections.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Records an attempt's outcome, returning the state transition it
    /// caused (if any).
    pub fn record(&self, ok: bool) -> HealthEvent {
        match self.state.load(Ordering::SeqCst) {
            HALF_OPEN => {
                if ok {
                    self.ops.store(0, Ordering::SeqCst);
                    self.errs.store(0, Ordering::SeqCst);
                    self.probe_inflight.store(0, Ordering::SeqCst);
                    if self
                        .state
                        .compare_exchange(HALF_OPEN, CLOSED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        self.recloses.fetch_add(1, Ordering::Relaxed);
                        return HealthEvent::Reclosed;
                    }
                    HealthEvent::None
                } else {
                    self.cooldown_left
                        .store(self.config_cooldown, Ordering::SeqCst);
                    self.probe_inflight.store(0, Ordering::SeqCst);
                    let _ = self.state.compare_exchange(
                        HALF_OPEN,
                        OPEN,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                    HealthEvent::None
                }
            }
            OPEN => HealthEvent::None, // fallback traffic; the probe decides
            _ => {
                // Decaying window: halve both counts each time the window
                // fills. The halving is racy under concurrency, which only
                // blurs the decay — the counts stay bounded and the
                // single-threaded (deterministic) case is exact.
                let ops = self.ops.fetch_add(1, Ordering::SeqCst) + 1;
                let errs = if ok {
                    self.errs.load(Ordering::SeqCst)
                } else {
                    self.errs.fetch_add(1, Ordering::SeqCst) + 1
                };
                if ops >= self.config_window {
                    self.ops.store(ops / 2, Ordering::SeqCst);
                    self.errs.store(errs / 2, Ordering::SeqCst);
                }
                // Only an error can trip the breaker: a success never
                // worsens the rate, so checking it would just let a burst
                // of old errors open on healthy traffic.
                if !ok
                    && ops >= self.config_min_samples
                    && errs.saturating_mul(100) >= u64::from(self.config_error_rate_pct) * ops
                    && self
                        .state
                        .compare_exchange(CLOSED, OPEN, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                {
                    self.cooldown_left
                        .store(self.config_cooldown, Ordering::SeqCst);
                    self.opens.fetch_add(1, Ordering::Relaxed);
                    return HealthEvent::Opened;
                }
                HealthEvent::None
            }
        }
    }
}

/// Aggregate telemetry for a [`BreakerSet`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct BreakerSetStats {
    /// Closed → Open transitions across all members.
    pub opens: u64,
    /// HalfOpen → Closed transitions (successful probes).
    pub recloses: u64,
    /// Half-open probe attempts admitted.
    pub probes: u64,
    /// Attempts rejected by an open (or probe-busy half-open) breaker.
    pub rejections: u64,
    /// Members currently not Closed.
    pub open_now: u64,
}

impl BreakerSetStats {
    /// Field-wise sum (workspace stats `merge` convention); `open_now`
    /// gauges sum across sets.
    pub fn merge(&self, other: &BreakerSetStats) -> BreakerSetStats {
        BreakerSetStats {
            opens: self.opens + other.opens,
            recloses: self.recloses + other.recloses,
            probes: self.probes + other.probes,
            rejections: self.rejections + other.rejections,
            open_now: self.open_now + other.open_now,
        }
    }
}

/// One [`CircuitBreaker`] per backend member id, usable as a
/// `RoutedStore` health gate.
///
/// # Examples
///
/// ```
/// use lamassu_resilience::{BreakerConfig, BreakerSet};
/// use lamassu_dist::HealthGate;
/// use std::sync::Arc;
///
/// let set = Arc::new(BreakerSet::new(BreakerConfig::default()));
/// assert!(set.allow(0));
/// set.record(0, true);
/// assert_eq!(set.stats().opens, 0);
/// // RoutedStore::new(members, config).with_health_gate(set.clone()) wires it in.
/// ```
pub struct BreakerSet {
    config: BreakerConfig,
    /// Breaker for member id `i` at index `i`, grown on first sight of a
    /// member (ids are small and dense: slot indices plus joins).
    breakers: RwLock<Vec<Arc<CircuitBreaker>>>,
}

impl BreakerSet {
    /// An empty set; breakers materialize per member on first use.
    pub fn new(config: BreakerConfig) -> Self {
        BreakerSet {
            config,
            breakers: RwLock::new(Vec::new()),
        }
    }

    /// The breaker for a member id (created closed on first access).
    pub fn breaker(&self, member: u32) -> Arc<CircuitBreaker> {
        let idx = member as usize;
        {
            let breakers = self.breakers.read();
            if let Some(b) = breakers.get(idx) {
                return b.clone();
            }
        }
        let mut breakers = self.breakers.write();
        while breakers.len() <= idx {
            breakers.push(Arc::new(CircuitBreaker::new(self.config)));
        }
        breakers[idx].clone()
    }

    /// Current state of a member's breaker.
    pub fn state(&self, member: u32) -> BreakerState {
        self.breaker(member).state()
    }

    /// Aggregate counters across all members.
    pub fn stats(&self) -> BreakerSetStats {
        let breakers = self.breakers.read();
        let mut s = BreakerSetStats::default();
        for b in breakers.iter() {
            s.opens += b.opens.load(Ordering::Relaxed);
            s.recloses += b.recloses.load(Ordering::Relaxed);
            s.probes += b.probes.load(Ordering::Relaxed);
            s.rejections += b.rejections.load(Ordering::Relaxed);
            if b.state() != BreakerState::Closed {
                s.open_now += 1;
            }
        }
        s
    }
}

impl HealthGate for BreakerSet {
    fn allow(&self, member: u32) -> bool {
        self.breaker(member).allow()
    }

    fn record(&self, member: u32, ok: bool) -> HealthEvent {
        self.breaker(member).record(ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            min_samples: 4,
            error_rate_pct: 50,
            cooldown: 3,
        }
    }

    #[test]
    fn full_open_probe_reclose_cycle() {
        let b = CircuitBreaker::new(tiny());
        assert_eq!(b.state(), BreakerState::Closed);
        // Errors past the threshold open it.
        let mut opened = false;
        for _ in 0..4 {
            assert!(b.allow());
            opened |= b.record(false) == HealthEvent::Opened;
        }
        assert!(opened, "4/4 errors at min_samples=4 must open");
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown: 3 rejected calls, then the 4th is the probe.
        assert!(!b.allow());
        assert!(!b.allow());
        assert!(!b.allow());
        assert!(b.allow(), "cooldown drained: probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(), "only one probe in flight");
        // Probe succeeds: reclose.
        assert_eq!(b.record(true), HealthEvent::Reclosed);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
    }

    #[test]
    fn failed_probe_reopens() {
        let b = CircuitBreaker::new(tiny());
        for _ in 0..4 {
            b.allow();
            b.record(false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        for _ in 0..3 {
            assert!(!b.allow());
        }
        assert!(b.allow());
        assert_eq!(b.record(false), HealthEvent::None);
        assert_eq!(b.state(), BreakerState::Open, "failed probe re-opens");
        // A second full cooldown is required again.
        assert!(!b.allow());
    }

    #[test]
    fn below_min_samples_never_opens() {
        let b = CircuitBreaker::new(tiny());
        for _ in 0..3 {
            assert!(b.allow());
            assert_eq!(b.record(false), HealthEvent::None);
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn healthy_traffic_decays_old_errors() {
        let b = CircuitBreaker::new(tiny());
        // 3 early errors (below min_samples), then a long healthy run: the
        // window halves keep the old errors from ever tripping it.
        for _ in 0..3 {
            b.allow();
            b.record(false);
        }
        for _ in 0..50 {
            assert!(b.allow());
            assert_eq!(b.record(true), HealthEvent::None);
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn set_tracks_members_independently_and_aggregates() {
        let set = BreakerSet::new(tiny());
        for _ in 0..4 {
            assert!(HealthGate::allow(&set, 1));
            set.record(1, false);
        }
        assert_eq!(set.state(1), BreakerState::Open);
        assert_eq!(set.state(0), BreakerState::Closed);
        assert!(HealthGate::allow(&set, 0), "member 0 unaffected");
        let s = set.stats();
        assert_eq!(s.opens, 1);
        assert_eq!(s.open_now, 1);
        // Drive member 1 through recovery.
        for _ in 0..3 {
            assert!(!HealthGate::allow(&set, 1));
        }
        assert!(HealthGate::allow(&set, 1));
        assert_eq!(set.record(1, true), HealthEvent::Reclosed);
        let s = set.stats();
        assert_eq!(s.recloses, 1);
        assert_eq!(s.probes, 1);
        assert_eq!(s.open_now, 0);
        assert!(s.rejections >= 3);
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"opens\":1"), "{json}");
    }
}
