//! LamassuFS: block-oriented convergent encryption with embedded metadata.
//!
//! This module is the reproduction of the paper's contribution. A mounted
//! [`LamassuFs`]:
//!
//! * encrypts every fixed-size data block with AES-256-CBC under a
//!   *convergent* key derived from the block's hash and the zone's secret
//!   inner key (`CEKey = AES_ECB(H(block), K_in)`, §2.2; `H` is SHA-256 in
//!   format v1 and the 4-leaf tree hash in v2, fixed per file — see
//!   [`LamassuFs::format_version`]), using a fixed IV so identical plaintext
//!   blocks produce identical ciphertext blocks and therefore deduplicate
//!   downstream;
//! * stores each block's key inside the file itself, in block-aligned
//!   metadata blocks placed at the start of every segment (§2.3), sealed with
//!   AES-256-GCM under the outer key;
//! * keeps data and metadata consistent across crashes with a multiphase
//!   commit protocol that parks the *previous* keys of in-flight blocks in a
//!   reserved transient area of the metadata block (§2.4) — up to `R` blocks
//!   of a segment per round — and commits a file's buffered writes a span
//!   (256 blocks) at a time;
//! * verifies data integrity on read by re-hashing decrypted blocks and
//!   comparing against the stored convergent key (§2.5), with a cheaper
//!   metadata-only mode that skips the per-block hash;
//! * supports offline recovery ([`LamassuFs::recover`]), full verification
//!   ([`LamassuFs::verify`]) and partial re-keying of the outer key
//!   ([`LamassuFs::rekey_outer`], the §2.2 "much faster partial re-keying").
//!
//! Descriptors, the per-path shared state, locking and tracing are the
//! [`Mount`] scaffold's (its docs list the lifecycle rules); this module is the
//! configuration, the convergent engine, and the maintenance calls — recovery,
//! verification and re-keying — which run under the file's exclusive guard
//! like any write. The whole read path (span plan → vectored backend read →
//! parallel batch decrypt → integrity check) runs under the shared guard. See
//! the [`FileSystem`] trait docs for the full thread-safety contract and the
//! README for the lock hierarchy.

mod engine;
#[cfg(test)]
mod tests;

use crate::fs::FileSystem;
use crate::mount::Mount;
use crate::{FsError, Profiler, Result};
use engine::Engine;
use lamassu_crypto::kdf::HashVersion;
use lamassu_format::Geometry;
use lamassu_keymgr::ZoneKeys;
use lamassu_storage::ObjectStore;
use std::sync::Arc;

pub use engine::{RecoveryReport, VerifyReport};

/// How much integrity checking the read path performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrityMode {
    /// Re-hash every decrypted data block and compare against its stored
    /// convergent key (the paper's default; §2.5).
    #[default]
    Full,
    /// Only verify metadata blocks through their AES-GCM tags — the paper's
    /// "LamassuFS (meta-only)" variant, which trades the per-block hash on
    /// the read path for throughput (§4.2).
    MetaOnly,
}

/// Configuration of a [`LamassuFs`] mount.
#[derive(Debug, Clone, Copy)]
pub struct LamassuConfig {
    /// Segment geometry: block size and reserved transient slots `R`.
    pub geometry: Geometry,
    /// Read-path integrity checking mode.
    pub integrity: IntegrityMode,
    /// Span-pipeline policy and crypto worker-pool sizing (see
    /// [`crate::span`]).
    pub span: crate::span::SpanConfig,
}

impl Default for LamassuConfig {
    fn default() -> Self {
        LamassuConfig {
            geometry: Geometry::default(),
            integrity: IntegrityMode::Full,
            span: crate::span::SpanConfig::default(),
        }
    }
}

impl LamassuConfig {
    /// Convenience constructor with an explicit reserved-slot count `R` and
    /// the default 4096-byte block size.
    pub fn with_reserved_slots(r: usize) -> Result<Self> {
        Ok(LamassuConfig {
            geometry: Geometry::new(4096, r).map_err(FsError::from)?,
            ..LamassuConfig::default()
        })
    }

    /// Returns a copy with the given integrity mode.
    pub fn integrity(mut self, mode: IntegrityMode) -> Self {
        self.integrity = mode;
        self
    }

    /// Returns a copy with the given span-pipeline configuration.
    pub fn span(mut self, span: crate::span::SpanConfig) -> Self {
        self.span = span;
        self
    }
}

/// The Lamassu shim file system: the [`Mount`] scaffold over the convergent
/// [`engine`](self) (descriptor lifecycle, locking and tracing are the
/// scaffold's; §2.2–§2.5 live in the engine).
pub type LamassuFs = Mount<Engine>;

impl Mount<Engine> {
    /// Mounts a Lamassu file system over `store` with the key pair fetched
    /// from the key manager for this client's isolation zone.
    pub fn new(store: Arc<dyn ObjectStore>, keys: ZoneKeys, config: LamassuConfig) -> Self {
        Self::with_profiler(store, keys, config, Profiler::new())
    }

    /// [`LamassuFs::new`] charging its time to `profiler` — the one the
    /// tiers below the shim were built with (see `lamassu::stack`).
    pub fn with_profiler(
        store: Arc<dyn ObjectStore>,
        keys: ZoneKeys,
        config: LamassuConfig,
        profiler: Arc<Profiler>,
    ) -> Self {
        Mount::over(Engine::new(store, keys, config, profiler))
    }

    /// The mount's segment geometry.
    pub fn geometry(&self) -> Geometry {
        self.engine().geometry
    }

    /// The mount's integrity mode.
    pub fn integrity_mode(&self) -> IntegrityMode {
        self.engine().integrity
    }

    /// Counters of the mount's recycled block-buffer pool (see
    /// [`crate::pool`]): hit rate ≈ 1 and a bounded `pooled` count are what
    /// the zero-allocation steady state looks like.
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        self.engine().blocks.stats()
    }

    /// The format version of a file — which block hash its keys are derived
    /// with — fixed when the file was created and read from its segment 0.
    pub fn format_version(&self, path: &str) -> Result<HashVersion> {
        self.with_file(path, |file| Ok(file.version()))
    }

    /// Scans a file for segments left mid-update by a crash and repairs them
    /// using the transient keys parked in their metadata blocks (§2.4).
    pub fn recover(&self, path: &str) -> Result<RecoveryReport> {
        self.with_file(path, |file| self.engine().recover(file))
    }

    /// Runs crash recovery over every object in the mount, as a freshly
    /// rebooted client would before serving I/O.
    pub fn recover_all(&self) -> Result<Vec<(String, RecoveryReport)>> {
        let mut reports = Vec::new();
        for path in self.list()? {
            reports.push((path.clone(), self.recover(&path)?));
        }
        Ok(reports)
    }

    /// Verifies the integrity of every data and metadata block of a file,
    /// returning a report rather than failing on the first bad block.
    pub fn verify(&self, path: &str) -> Result<VerifyReport> {
        self.with_file(path, |file| self.engine().verify(file))
    }

    /// Re-keys the *outer* key of a file: every metadata block is re-sealed
    /// under `new_keys.outer`, while data blocks (and therefore deduplication
    /// relationships) stay untouched. This is the fast partial re-keying the
    /// paper describes in §2.2. The caller must invoke it for every file and
    /// then remount with the new keys; [`LamassuFs::rekey_outer_all`] does
    /// both steps.
    pub fn rekey_outer(&self, path: &str, new_keys: &ZoneKeys) -> Result<u64> {
        self.with_file(path, |file| self.engine().rekey_outer(file, new_keys))
    }

    /// Re-keys the outer key of every file in the mount and switches this
    /// mount to the new key pair.
    pub fn rekey_outer_all(&self, new_keys: ZoneKeys) -> Result<u64> {
        let mut total = 0;
        for path in self.list()? {
            total += self.rekey_outer(&path, &new_keys)?;
        }
        self.engine().switch_keys(new_keys);
        Ok(total)
    }
}
