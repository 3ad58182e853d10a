//! [`HealthGate`]: the routing tier's view of per-member health.
//!
//! The routed tier does not decide *when* a member is unhealthy — that
//! policy (error-rate windows, cooldowns, half-open probes) lives in the
//! resilience layer's circuit breakers. This trait is the narrow seam
//! between the two: [`crate::RoutedStore`] asks the gate whether a member
//! should receive traffic ([`HealthGate::allow`]) and reports every
//! attempt's outcome back ([`HealthGate::record`]), and the gate answers
//! with a state-transition [`HealthEvent`] the router reacts to.
//!
//! Two reactions matter to the router:
//!
//! * **Open** (member deemed unhealthy): subsequent reads and writes skip
//!   the member in its owner chains — reads become failovers to the next
//!   replica, writes become degraded writes with the skipped owner marked
//!   suspect — unless *no* admitted member can serve the operation, in
//!   which case the router falls back to the skipped members rather than
//!   refuse service.
//! * **Reclosed** (a half-open probe succeeded): the member was down and
//!   is back, so it likely missed writes. The router queues a *targeted
//!   scrub* of that member
//!   ([`crate::RoutedStore::take_probe_scrub_requests`] /
//!   [`crate::RoutedStore::scrub_member`]) so the probe doubles as the
//!   trigger that resynchronizes exactly the units the member can hold.

/// A state transition reported by [`HealthGate::record`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthEvent {
    /// No state change.
    None,
    /// The member just crossed the unhealthy threshold: subsequent
    /// [`HealthGate::allow`] calls will reject it until it recovers.
    Opened,
    /// The member just proved itself healthy again (e.g. a half-open
    /// probe succeeded). The router should schedule a targeted scrub.
    Reclosed,
}

/// Per-member admission control consulted by [`crate::RoutedStore`] on
/// every replica attempt.
///
/// Implementations must be cheap and lock-free on the hot path: `allow`
/// and `record` are called once per member per unit operation. The
/// canonical implementation is the resilience layer's breaker set.
pub trait HealthGate: Send + Sync {
    /// Should the member with this id receive traffic right now?
    ///
    /// Called *before* an attempt. Implementations may use the call as a
    /// clock tick (e.g. counting down an open breaker's cooldown), so the
    /// router calls it exactly once per candidate attempt.
    fn allow(&self, member: u32) -> bool;

    /// Reports the outcome of an attempt against the member. Returns the
    /// state transition the outcome caused, if any.
    fn record(&self, member: u32, ok: bool) -> HealthEvent;
}
