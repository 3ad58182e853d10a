//! Distributed backend tier for the Lamassu stack: consistent-hash
//! placement, R-way replication, read-repair and failover.
//!
//! A [`RoutedStore`] implements `lamassu-storage`'s `ObjectStore` over N
//! child backends, so it slots anywhere a single backend does — below the
//! crypto shims, below or above a `lamassu-cache::CachedStore`:
//!
//! ```text
//!             LamassuFS / shims (convergent crypto, span planner)
//!                               │
//!                      CachedStore (optional)
//!                               │
//!                         RoutedStore  ← this crate
//!                      ┌───────┼────────┐
//!                  backend0 backend1 … backendN-1
//!                  (DirStore / DedupStore / CachedStore / …)
//! ```
//!
//! Placement uses a consistent-hash [`HashRing`] with virtual nodes
//! ([`ring`]): each placement unit — a fixed byte range of one object
//! ([`DistConfig::unit`]) — maps to an **owner chain** of R distinct
//! members. Writes fan out to every owner; reads try the primary and fail
//! over down the chain, marking missed replicas *suspect* so a later
//! [`RoutedStore::scrub`] can repair them by SHA-256 digest comparison
//! (convergent encryption above makes replica ciphertext deterministic, so
//! equal plaintext implies equal digests). The members, the ring and the
//! unit size are fixed when the store is built.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod health;
pub mod ring;
pub mod routed;
pub mod stats;

pub use config::DistConfig;
pub use health::{HealthEvent, HealthGate};
pub use ring::{HashRing, MAX_REPLICAS};
pub use routed::RoutedStore;
pub use stats::{DistStats, ScrubReport};
