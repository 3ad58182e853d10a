//! The Lamassu shim layer: three stackable file systems over an object store.
//!
//! This crate implements the paper's prototype architecture (§3): a shim that
//! sits in the data path between the application and the backing store,
//! exporting a file-system interface upward and reading/writing opaque
//! objects downward. The shims share the same [`FileSystem`] trait so the
//! evaluation can compare them directly, exactly as the paper does:
//!
//! * [`PlainFs`] — a pass-through with no encryption (the paper's *PlainFS*
//!   baseline, which isolates the shim/transport overhead).
//! * [`EncFs`] — a conventional AES-256-CBC encrypted file system with a
//!   per-file random key (the paper's *EncFS* baseline, block-aligned
//!   configuration). Its ciphertext never deduplicates.
//! * [`LamassuFs`] — the paper's contribution: block-oriented convergent
//!   encryption with cryptographic metadata embedded in reserved,
//!   block-aligned segments of each file, a multiphase commit protocol for
//!   crash consistency (§2.4), convergent-hash data integrity checking
//!   (§2.5), and batched metadata updates governed by the reserved-slot
//!   parameter `R`.
//!
//! The stateful shims — [`EncFs`], [`LamassuFs`] and the whole-file
//! convergent baseline [`CeFileFs`] — are one lifecycle scaffold, [`Mount`],
//! over three engines that differ only in what they do to a block; [`PlainFs`]
//! is deliberately stateless and stays its own type.
//!
//! The paper's prototype exports its interface through FUSE; here the shims
//! are mounted in-process behind the [`FileSystem`] trait (see DESIGN.md §3
//! for the substitution rationale). Everything below the trait — encryption,
//! segment layout, metadata I/O, commit, recovery — is the same work the FUSE
//! daemon would do.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod handles;
mod iovec;
mod mount;
mod spanio;

pub mod cefilefs;
pub mod encfs;
pub mod fs;
pub mod lamassufs;
pub mod plainfs;
pub mod pool;
pub mod profiler;
pub mod span;

pub use cefilefs::CeFileFs;
pub use encfs::{EncFs, EncFsConfig};
pub use error::FsError;
pub use fs::{Fd, FileAttr, FileSystem, OpenFlags};
pub use lamassufs::{IntegrityMode, LamassuConfig, LamassuFs, RecoveryReport, VerifyReport};
pub use mount::Mount;
pub use plainfs::PlainFs;
pub use pool::{BlockBuf, BlockPool, PoolStats};
pub use profiler::{Category, CommitStats, LatencyBreakdown, MemoStats, Profiler};
pub use span::{SpanConfig, SpanPolicy};

/// Result alias for file-system operations.
pub type Result<T> = std::result::Result<T, FsError>;
