//! # Lamassu
//!
//! A from-scratch Rust reproduction of **Lamassu: Storage-Efficient Host-Side
//! Encryption** (Shah & So, USENIX ATC 2015).
//!
//! Lamassu is a host-side ("data-source") encryption shim that sits between an
//! application and an untrusted, deduplicating storage backend. It encrypts
//! file data with *block-oriented convergent encryption* so that identical
//! plaintext blocks (within a key-sharing *isolation zone*) produce identical
//! ciphertext blocks, preserving fixed-block deduplication downstream, and it
//! embeds its cryptographic metadata into reserved, block-aligned sections of
//! each file so that no dedicated metadata store is needed.
//!
//! This facade crate re-exports the public API of every workspace crate:
//!
//! * [`crypto`] — SHA-256, AES-256 (ECB/CBC/CTR/GCM) and the convergent KDF,
//!   implemented from scratch.
//! * [`mod@format`] — the on-disk segment / metadata-block layout and geometry.
//! * [`storage`] — object-store abstraction, deduplicating backend simulator,
//!   storage profiles (NFS vs RAM disk) and fault injection.
//! * [`cache`] — [`cache::CachedStore`], a sharded CLOCK block cache that
//!   slots between the shims and any object store (write-through or
//!   write-back, with sequential read-ahead).
//! * [`dist`] — [`dist::RoutedStore`], a distributed backend tier:
//!   consistent-hash placement over a fixed set of N child backends with
//!   R-way replication, read failover and digest-based scrub/read-repair.
//! * [`resilience`] — the self-healing layer: [`resilience::ResilientStore`]
//!   retries with virtual-time backoff under deadline budgets and hedges
//!   slow reads, while [`resilience::BreakerSet`] gives the routed tier
//!   per-backend circuit breakers whose half-open probes trigger targeted
//!   scrubs.
//! * [`keymgr`] — KMIP-like key manager with isolation zones.
//! * [`core`] — the [`core::FileSystem`] trait and the four shims:
//!   [`core::PlainFs`], [`core::EncFs`], [`core::CeFileFs`] and
//!   [`core::LamassuFs`].
//! * [`telemetry`] — always-on metrics: lock-free latency histograms, the
//!   counter/gauge registry, per-operation trace spans and the JSON /
//!   Prometheus snapshot export every tier feeds.
//! * [`workloads`] — synthetic data generators and the FIO-style tester used
//!   by the benchmark harness.
//!
//! and adds one module of its own: [`stack`], the [`stack::StackBuilder`]
//! every mount in the workspace (CLI, harness, tests) is assembled by.
//!
//! ## Quickstart
//!
//! ```
//! use lamassu::core::{FileSystem, IntegrityMode, LamassuConfig, LamassuFs, OpenFlags};
//! use lamassu::keymgr::KeyManager;
//! use lamassu::storage::{DedupStore, StorageProfile};
//! use std::sync::Arc;
//!
//! // An untrusted deduplicating backend (RAM-disk latency profile).
//! let store = Arc::new(DedupStore::new(4096, StorageProfile::ram_disk()));
//!
//! // A key manager holding the inner/outer keys for isolation zone 7.
//! let km = KeyManager::new();
//! let zone = km.create_zone(7).unwrap();
//!
//! // Mount a Lamassu file system over the backend.
//! let fs = LamassuFs::new(store, km.fetch_zone_keys(zone).unwrap(), LamassuConfig::default());
//!
//! let fd = fs.create("/secrets.dat").unwrap();
//! fs.write(fd, 0, b"attack at dawn").unwrap();
//! fs.fsync(fd).unwrap();
//! assert_eq!(fs.read(fd, 0, 14).unwrap(), b"attack at dawn");
//! # let _ = IntegrityMode::Full; let _ = OpenFlags::default();
//! ```

pub use lamassu_cache as cache;
pub use lamassu_core as core;
pub use lamassu_crypto as crypto;
pub use lamassu_dist as dist;
pub use lamassu_format as format;
pub use lamassu_keymgr as keymgr;
pub use lamassu_resilience as resilience;
pub use lamassu_storage as storage;
pub use lamassu_telemetry as telemetry;
pub use lamassu_workloads as workloads;

pub mod stack;
