//! From-scratch cryptographic primitives for the Lamassu reproduction.
//!
//! The Lamassu paper (§2.2) relies on three primitives, all of which are
//! implemented here without external crypto crates so the reproduction is
//! fully self-contained:
//!
//! * [`sha256`] — the SHA-256 hash (FIPS 180-4), used to fingerprint plaintext
//!   data blocks before deriving a convergent key, and to fingerprint
//!   ciphertext blocks inside the deduplicating store simulator.
//! * [`aes`] — the AES-256 block cipher (FIPS 197), plus the block modes in
//!   [`cbc`], [`ctr`] and the authenticated [`gcm`] mode (SP 800-38A/D).
//! * [`kdf`] — the convergent key-derivation function
//!   `CEKey = AES256-ECB(H(block), K_in)` from Equation (1) of the paper.
//!
//! On top of the per-block primitives, [`batch`] provides span-granular
//! operations (derive/encrypt/decrypt over slices of blocks) fanned out
//! across a small scoped worker pool ([`pool`]), so the shims' span pipeline
//! parallelizes the convergent hashing and AES of a multi-block I/O.
//!
//! All implementations are validated against the official FIPS / NIST test
//! vectors in their module tests. The relative cost model (SHA-256
//! dominating the convergent write path) that the paper's Figure 9 analyses
//! is preserved.
//!
//! # Crypto kernels and backends
//!
//! Two AES implementations coexist, selected per mount by
//! [`CryptoBackend`]:
//!
//! * [`fixsliced`] (the default) — a bitsliced, *fixsliced* constant-time
//!   AES-256 kernel that processes [`fixsliced::WIDE_BLOCKS`] blocks per
//!   pass with zero secret-dependent table indexing or branches, paired
//!   with the four-lane interleaved SHA-256
//!   ([`sha256::digest_blocks_x4`]) for convergent key derivation — four
//!   blocks at a time, or one format-v2 block's four leaves
//!   ([`kdf::tree_hash`]);
//! * [`aes`] — the classic T-table implementation, retained as the
//!   **differential oracle** (the property tests replay every workload on
//!   both backends and require byte-identical stores) and as the fallback
//!   for runs too narrow to amortize a wide pass.
//!
//! The batch layer dispatches between them by run width (see
//! [`batch::WIDE_MIN_BLOCKS`]) and counts every dispatched block in
//! [`stats`], so the telemetry snapshot can report wide-vs-scalar rates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod batch;
pub mod cbc;
pub mod ctr;
pub mod fixsliced;
pub mod gcm;
pub mod ghash;
pub mod kdf;
pub mod pool;
pub mod sha256;
pub mod util;

mod error;

pub use error::CryptoError;

/// Selects the AES/SHA kernel family used by the span layer and block modes.
///
/// The selection is made once per mount (via `SpanConfig` in the core crate
/// or `--crypto` on the CLI) and threaded through every span-granular
/// operation. Per-block reference APIs (`derive_keys`, `encrypt_blocks`,
/// ...) always use the T-table cipher: they are the scalar oracle the
/// differential tests compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CryptoBackend {
    /// Wide fixsliced constant-time kernels (the default).
    ///
    /// Decryption and CTR keystream generation always take the wide path
    /// (they parallelize across blocks at any width); CBC encryption and
    /// key derivation take it when a span is wide enough to amortize a
    /// bitsliced pass (see [`batch::WIDE_MIN_BLOCKS`]), falling back to
    /// the T-table oracle below that width.
    #[default]
    Fixsliced,
    /// The T-table implementation for every operation.
    ///
    /// Not constant-time with respect to cache timing; retained as the
    /// differential oracle and for A/B benchmarking.
    TTable,
}

/// Global dispatch counters for the wide-vs-scalar crypto split.
///
/// The batch layer increments these on every span operation; the telemetry
/// snapshot reads them so `stats` / fig9 output can report how much of the
/// AES work actually ran through the wide constant-time kernel.
pub mod stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// AES blocks processed by the wide fixsliced kernel.
    pub static WIDE_BLOCKS: AtomicU64 = AtomicU64::new(0);
    /// AES blocks processed by the scalar T-table fallback.
    pub static SCALAR_BLOCKS: AtomicU64 = AtomicU64::new(0);
    /// Convergent keys derived through the 4-lane SHA-256 + wide-ECB path.
    pub static WIDE_DERIVES: AtomicU64 = AtomicU64::new(0);
    /// Convergent keys derived through the scalar path.
    pub static SCALAR_DERIVES: AtomicU64 = AtomicU64::new(0);

    /// Record `n` AES blocks dispatched to the wide kernel.
    pub fn count_wide_blocks(n: usize) {
        WIDE_BLOCKS.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Record `n` AES blocks dispatched to the scalar fallback.
    pub fn count_scalar_blocks(n: usize) {
        SCALAR_BLOCKS.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Record `n` key derivations on the multi-lane path.
    pub fn count_wide_derives(n: usize) {
        WIDE_DERIVES.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Record `n` key derivations on the scalar path.
    pub fn count_scalar_derives(n: usize) {
        SCALAR_DERIVES.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Snapshot of the four counters, in the order
    /// `(wide_blocks, scalar_blocks, wide_derives, scalar_derives)`.
    pub fn snapshot() -> (u64, u64, u64, u64) {
        (
            WIDE_BLOCKS.load(Ordering::Relaxed),
            SCALAR_BLOCKS.load(Ordering::Relaxed),
            WIDE_DERIVES.load(Ordering::Relaxed),
            SCALAR_DERIVES.load(Ordering::Relaxed),
        )
    }
}

/// A 256-bit symmetric key (AES-256 key or SHA-256 digest used as a key).
pub type Key256 = [u8; 32];

/// A 128-bit initialization vector / block.
pub type Iv128 = [u8; 16];

/// The fixed initialization vector used for convergent (deterministic) CBC
/// encryption of data blocks, per §2.2 of the paper.
///
/// Convergent encryption must be deterministic so that identical plaintext
/// blocks produce identical ciphertext blocks; a fixed IV is what previous
/// convergent systems (Douceur et al.) use and what Lamassu adopts.
pub const FIXED_IV: Iv128 = [
    0x4c, 0x61, 0x6d, 0x61, 0x73, 0x73, 0x75, 0x20, 0x46, 0x49, 0x58, 0x45, 0x44, 0x20, 0x49, 0x56,
];

/// Result alias for fallible crypto operations.
pub type Result<T> = std::result::Result<T, CryptoError>;
