//! Shared mount construction for the experiments.

use lamassu::stack::{Stack, StackBuilder};
use lamassu_core::{
    EncFs, EncFsConfig, FileSystem, IntegrityMode, LamassuConfig, LamassuFs, PlainFs, Profiler,
    SpanConfig,
};
use lamassu_keymgr::{KeyManager, ZoneKeys};
use lamassu_storage::{DedupStore, ObjectStore, StorageProfile};
use std::sync::Arc;

/// The file-system variants compared throughout §4 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsKind {
    /// Unencrypted pass-through.
    Plain,
    /// Conventional AES-CBC encryption (block-aligned configuration).
    Enc,
    /// Lamassu with full data integrity checking.
    Lamassu,
    /// Lamassu with metadata-only integrity checking.
    LamassuMetaOnly,
}

impl FsKind {
    /// The four variants in the order the paper's figures list them.
    pub const ALL: [FsKind; 4] = [
        FsKind::Plain,
        FsKind::Enc,
        FsKind::Lamassu,
        FsKind::LamassuMetaOnly,
    ];

    /// Label used in figures and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FsKind::Plain => "PlainFS",
            FsKind::Enc => "EncFS",
            FsKind::Lamassu => "LamassuFS",
            FsKind::LamassuMetaOnly => "LamassuFS(meta-only)",
        }
    }
}

/// A mounted shim with a handle on every tier under it: `store` is what
/// [`lamassu_workloads::FioTester::run`] reads accounting from (the topmost
/// tier), `members` the deduplicating backends, `profiler` the one the shim
/// and every tier charge (Figure 9).
pub type Mount = Stack<Box<dyn FileSystem>, DedupStore>;

/// Fetches (or creates) the benchmark isolation zone's keys from a fresh key
/// manager, mirroring the paper's KMIP fetch at start time.
pub fn bench_zone_keys() -> ZoneKeys {
    let km = KeyManager::new();
    let zone = km.create_zone(1).expect("fresh key manager");
    km.fetch_zone_keys(zone).expect("zone just created")
}

/// Builds a shim of the requested kind over the stack's top store.
fn shim_over(
    kind: FsKind,
    store: Arc<dyn ObjectStore>,
    reserved_slots: usize,
    span: SpanConfig,
    profiler: Arc<Profiler>,
) -> Box<dyn FileSystem> {
    let keys = bench_zone_keys();
    let lamassu = |integrity, store, profiler| -> Box<dyn FileSystem> {
        let config = LamassuConfig {
            geometry: lamassu_format::Geometry::new(4096, reserved_slots)
                .expect("valid benchmark geometry"),
            integrity,
            span,
        };
        Box::new(LamassuFs::with_profiler(store, keys, config, profiler))
    };
    match kind {
        FsKind::Plain => Box::new(PlainFs::with_profiler(store, span.io, profiler)),
        FsKind::Enc => {
            let config = EncFsConfig {
                span,
                ..EncFsConfig::default()
            };
            Box::new(EncFs::with_profiler(store, keys.outer, config, profiler))
        }
        FsKind::Lamassu => lamassu(IntegrityMode::Full, store, profiler),
        FsKind::LamassuMetaOnly => lamassu(IntegrityMode::MetaOnly, store, profiler),
    }
}

/// `n` fresh [`DedupStore`]s, each with its own transport profile instance
/// (independent servers), ready to have tiers stacked on them.
pub fn backends(profile: StorageProfile, n: usize) -> StackBuilder<DedupStore> {
    StackBuilder::new(
        (0..n)
            .map(|_| Arc::new(DedupStore::new(4096, profile)))
            .collect(),
    )
}

/// Mounts a shim of the requested kind, with an explicit span-pipeline
/// configuration, on whatever tiers the builder describes.
pub fn mount_on(
    kind: FsKind,
    tiers: StackBuilder<DedupStore>,
    reserved_slots: usize,
    span: SpanConfig,
) -> Mount {
    tiers.mount(|store, profiler| shim_over(kind, store, reserved_slots, span, profiler))
}

/// Builds a fresh default-pipeline mount of the requested kind directly over
/// its own backing store.
pub fn mount(kind: FsKind, profile: StorageProfile, reserved_slots: usize) -> Mount {
    let span = SpanConfig::default();
    mount_on(kind, backends(profile, 1), reserved_slots, span)
}
