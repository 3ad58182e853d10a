//! Self-healing layer for the Lamassu stack: retries with deadline
//! budgets and per-backend circuit breakers.
//!
//! The paper's prototype treats the backing store as an unreliable remote
//! filer: operations can fail transiently (a transport hiccup, a member
//! mid-reboot). This crate wraps any `ObjectStore` in a [`ResilientStore`]
//! that absorbs those failures:
//!
//! ```text
//!                    LamassuFS / shims
//!                          │
//!                    ResilientStore   ← this crate
//!                    │  retries + backoff (virtual time)
//!                    │  deadline budgets ([`OpBudget`])
//!                          │
//!                     RoutedStore ──── BreakerSet (HealthGate)
//!                    ┌─────┼─────┐
//!                  b0     b1     b2
//! ```
//!
//! * **Retries** ([`RetryPolicy`]): transient errors
//!   (`StorageError::is_transient`) are retried under bounded exponential
//!   backoff with deterministic splitmix64 jitter. Backoff sleeps are
//!   charged to the store's **virtual** clock
//!   (`ObjectStore::sleep_virtual`), so retried runs stay bit-for-bit
//!   deterministic and never stall the wall clock. Terminal errors
//!   (`NotFound`, `AlreadyExists`, `OutOfBounds`) surface immediately.
//! * **Deadline budgets** ([`OpBudget`]): every logical operation gets a
//!   budget of attempts and of virtual elapsed time; when either runs out
//!   the last transient error surfaces to the caller.
//! * **Circuit breakers** ([`CircuitBreaker`], [`BreakerSet`]): per-member
//!   error-rate windows that stop routing to a failing backend
//!   (implementing `lamassu-dist`'s `HealthGate`), let it cool down, and
//!   re-admit it through a single half-open probe. A successful probe
//!   recloses the breaker *and* asks the routed tier for a targeted scrub
//!   of that member, so recovery and resynchronization are one motion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod retry;
pub mod stats;
pub mod store;

pub use breaker::{BreakerConfig, BreakerSet, BreakerSetStats, BreakerState, CircuitBreaker};
pub use retry::{OpBudget, RetryPolicy};
pub use stats::ResilienceStats;
pub use store::ResilientStore;

/// The workspace's standard splitmix64 mix — the deterministic jitter and
/// fault-draw primitive (same constants as `lamassu-storage`'s fault
/// injection, so schedules and backoffs reproduce across crates).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
