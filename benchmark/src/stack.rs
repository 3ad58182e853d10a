//! Every use the benchmark makes of the stack's public API, in one file.
//!
//! The rest of the package sees the stack only through the names defined or
//! re-exported here, so a PR that changes a constructor, a stats struct or a
//! kernel signature updates this file (and `probe.rs`, which has to spell out
//! the `ObjectStore` trait it forwards) and nothing else. The list of what
//! is used is repeated in `README.md`.
//!
//! Three sections: mounts (the two stacks the workloads run on), counters
//! (the layers' existing public statistics, read as snapshots), and kernels
//! (direct calls to single layers on the block shapes the workloads use).

use crate::schedule::{StackKind, BLOCK};
use lamassu_cache::{CacheConfig, CacheStats, CachedStore};
use lamassu_core::{EncFs, EncFsConfig, LamassuConfig, LamassuFs, PoolStats};
use lamassu_crypto::batch::{decrypt_span, derive_span_into, encrypt_span};
use lamassu_crypto::gcm::{Aes256Gcm, NONCE_LEN};
use lamassu_crypto::kdf::ConvergentKdf;
use lamassu_crypto::pool::CryptoPool;
use lamassu_crypto::sha256::digest_block;
use lamassu_crypto::{CryptoBackend, Key256, FIXED_IV};
use lamassu_dist::{DistConfig, DistStats, RoutedStore};
use lamassu_format::{Geometry, MetadataBlock};
use lamassu_keymgr::{KeyManager, ZoneKeys};
use lamassu_resilience::{OpBudget, ResilienceStats, ResilientStore, RetryPolicy};
use lamassu_storage::{DedupStore, StorageProfile};
use lamassu_telemetry::Histogram;
use lamassu_workloads::SyntheticSpec;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

pub use lamassu_core::{Fd, FileAttr, FileSystem, FsError, OpenFlags};
pub use lamassu_storage::{
    Completion, IoCounters, ObjectStore, StorageError, SubmitQueue, SubmitTicket,
};

/// Result of a `FileSystem` call.
pub type FsResult<T> = lamassu_core::Result<T>;
/// Result of an `ObjectStore` call.
pub type StoreResult<T> = lamassu_storage::Result<T>;

/// Members and replication factor of the tiered stack's router.
pub const MEMBERS: usize = 3;
/// Copies the router keeps of every placement unit.
pub const REPLICAS: usize = 2;

// ---------------------------------------------------------------- mounts --

/// A tier boundary of the stack. A probe placed at a boundary is named after
/// the tier *below* it: the time inside a `Cache` span is spent in the cache
/// and everything under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The shim (`lamassu-core`): spans the runner records around each
    /// `FileSystem` call.
    Core,
    /// `lamassu-cache`.
    Cache,
    /// `lamassu-resilience`.
    Resilience,
    /// `lamassu-dist`.
    Dist,
    /// `lamassu-storage`: one probe per backend.
    Storage,
}

impl Tier {
    /// All tiers, top of the stack first; `ALL[t as usize] == t`.
    pub const ALL: [Tier; 5] = [
        Tier::Core,
        Tier::Cache,
        Tier::Resilience,
        Tier::Dist,
        Tier::Storage,
    ];

    /// The crate prefix the tier's metrics carry.
    pub fn prefix(self) -> &'static str {
        match self {
            Tier::Core => "core",
            Tier::Cache => "cache",
            Tier::Resilience => "resilience",
            Tier::Dist => "dist",
            Tier::Storage => "storage",
        }
    }
}

/// Wraps the store that is about to become the given tier's top — the
/// identity for an untraced stack, a probe for a traced one.
pub type Wrap<'a> = &'a dyn Fn(Tier, Arc<dyn ObjectStore>) -> Arc<dyn ObjectStore>;

/// The untraced stack's [`Wrap`].
pub fn no_probe(_: Tier, store: Arc<dyn ObjectStore>) -> Arc<dyn ObjectStore> {
    store
}

/// The key pair of the benchmark's isolation zone.
#[derive(Clone, Copy)]
pub struct Keys(ZoneKeys);

/// Creates a key manager with one zone and fetches its keys, as a client
/// does at mount time.
pub fn fetch_keys() -> Keys {
    let km = KeyManager::new();
    let zone = km.create_zone(1).expect("fresh key manager");
    Keys(km.fetch_zone_keys(zone).expect("zone just created"))
}

/// Which shim is mounted on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shim {
    /// LamassuFS, `LamassuConfig::default()` (full integrity).
    Lamassu,
    /// EncFS, `EncFsConfig::default()`: the conventional-encryption baseline
    /// for `core.encfs_ratio`.
    Enc,
}

/// A mounted stack with handles on every tier's statistics.
pub struct Stack {
    fs: Mounted,
    shim: Shim,
    kind: StackKind,
    keys: Keys,
    /// The store directly under the shim.
    top: Arc<dyn ObjectStore>,
    backends: Vec<Arc<DedupStore>>,
    cache: Option<Arc<CachedStore>>,
    resilient: Option<Arc<ResilientStore>>,
    router: Option<Arc<RoutedStore>>,
}

enum Mounted {
    Lamassu(LamassuFs),
    Enc(Box<EncFs>),
}

fn backend() -> Arc<DedupStore> {
    Arc::new(DedupStore::new(BLOCK, StorageProfile::nfs_1gbe()))
}

fn mount(shim: Shim, store: Arc<dyn ObjectStore>, keys: Keys) -> Mounted {
    match shim {
        Shim::Lamassu => Mounted::Lamassu(LamassuFs::new(store, keys.0, LamassuConfig::default())),
        Shim::Enc => Mounted::Enc(Box::new(EncFs::new(
            store,
            keys.0.outer,
            EncFsConfig::default(),
        ))),
    }
}

fn route(backends: &[Arc<DedupStore>], wrap: Wrap<'_>) -> Arc<RoutedStore> {
    let members = backends
        .iter()
        .map(|b| wrap(Tier::Storage, b.clone()))
        .collect();
    Arc::new(RoutedStore::new(members, DistConfig::new(REPLICAS)))
}

impl Stack {
    /// Builds a fresh stack over empty in-memory backends that charge the
    /// NFS profile to their virtual clocks.
    pub fn build(
        kind: StackKind,
        shim: Shim,
        cache_blocks: usize,
        keys: Keys,
        wrap: Wrap<'_>,
    ) -> Stack {
        let members = match kind {
            StackKind::Bare => 1,
            StackKind::Tiered => MEMBERS,
        };
        let backends: Vec<Arc<DedupStore>> = (0..members).map(|_| backend()).collect();
        let (mut cache, mut resilient, mut router) = (None, None, None);
        let top = match kind {
            StackKind::Bare => wrap(Tier::Storage, backends[0].clone()),
            StackKind::Tiered => {
                let routed = route(&backends, wrap);
                let retried = Arc::new(ResilientStore::new(
                    wrap(Tier::Dist, routed.clone()),
                    RetryPolicy::default(),
                    OpBudget::default(),
                ));
                let cached = Arc::new(CachedStore::new(
                    wrap(Tier::Resilience, retried.clone()),
                    CacheConfig::write_back(cache_blocks),
                ));
                router = Some(routed);
                resilient = Some(retried);
                cache = Some(cached.clone());
                wrap(Tier::Cache, cached)
            }
        };
        Stack {
            fs: mount(shim, top.clone(), keys),
            shim,
            kind,
            keys,
            top,
            backends,
            cache,
            resilient,
            router,
        }
    }

    /// The mounted file system.
    pub fn fs(&self) -> &dyn FileSystem {
        match &self.fs {
            Mounted::Lamassu(fs) => fs,
            Mounted::Enc(fs) => fs.as_ref(),
        }
    }

    /// Simulates a client restart: the shim and every tier above the
    /// backends are dropped *without* `close` or a cache flush, and a fresh
    /// shim is mounted over the backends' bytes alone (through a fresh
    /// router on the tiered stack, since that is where the placement lives).
    pub fn restart(self) -> Stack {
        let Stack {
            shim,
            kind,
            keys,
            backends,
            ..
        } = self;
        let (top, router): (Arc<dyn ObjectStore>, _) = match kind {
            StackKind::Bare => (backends[0].clone(), None),
            StackKind::Tiered => {
                let routed = route(&backends, &no_probe);
                (routed.clone(), Some(routed))
            }
        };
        Stack {
            fs: mount(shim, top.clone(), keys),
            shim,
            kind,
            keys,
            top,
            backends,
            cache: None,
            resilient: None,
            router,
        }
    }

    /// `LamassuFs::verify` over one file: true when every data and metadata
    /// block checks out and no segment is left mid-update.
    pub fn verify_clean(&self, path: &str) -> bool {
        match &self.fs {
            Mounted::Lamassu(fs) => fs
                .verify(path)
                .map(|r| r.is_clean() && r.mid_update_segments == 0)
                .unwrap_or(false),
            Mounted::Enc(_) => true,
        }
    }

    /// Dirty blocks waiting in the write-back cache (0 without a cache).
    pub fn dirty_cache_blocks(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| c.dirty_blocks())
    }

    /// Runs post-process dedup on every backend, as the paper does on the
    /// filer before reading `df`.
    pub fn space(&self) -> Space {
        let mut space = Space::default();
        for b in &self.backends {
            let r = b.run_dedup();
            space.total_blocks += r.total_blocks;
            space.unique_blocks += r.unique_blocks;
        }
        let replicas = match self.kind {
            StackKind::Bare => 1,
            StackKind::Tiered => REPLICAS as u64,
        };
        space.stored_bytes = space.unique_blocks * BLOCK as u64 / replicas;
        space
    }

    /// A snapshot of every tier's public counters.
    pub fn counters(&self) -> Counters {
        let members: Vec<IoCounters> = self.backends.iter().map(|b| b.io_counters()).collect();
        Counters {
            modelled_io: self.top.io_time(),
            backend: IoCounters::sum(members.iter().copied()),
            members,
            pool: match &self.fs {
                Mounted::Lamassu(fs) => fs.pool_stats(),
                Mounted::Enc(_) => PoolStats::default(),
            },
            crypto: lamassu_crypto::stats::snapshot(),
            cache: self.cache.as_ref().map(|c| c.stats()),
            resilience: self.resilient.as_ref().map(|r| r.stats()),
            dist: self.router.as_ref().map(|r| r.stats()),
        }
    }
}

/// The `span-1m` image: `redundancy` of its blocks duplicate earlier ones.
pub fn synthetic_image(size_bytes: u64, redundancy: f64, seed: u64) -> Vec<u8> {
    SyntheticSpec::new(size_bytes, redundancy, seed).generate()
}

/// Bytes of embedded metadata per byte of user data for a file of `len`
/// bytes under the default geometry (`Geometry::overhead`).
pub fn metadata_bytes_per_user_byte(len: u64) -> f64 {
    Geometry::default().overhead(len) as f64 / len as f64
}

// -------------------------------------------------------------- counters --

/// What the backends hold after post-process dedup.
#[derive(Debug, Clone, Copy, Default)]
pub struct Space {
    /// Blocks scanned over all backends.
    pub total_blocks: u64,
    /// Distinct blocks, summed over backends.
    pub unique_blocks: u64,
    /// Bytes used after dedup, divided by the replication factor.
    pub stored_bytes: u64,
}

/// One reading of every tier's cumulative statistics. Two readings are
/// subtracted field by field to get a phase's delta.
#[derive(Debug, Clone)]
pub struct Counters {
    /// Virtual NFS transport time of the store directly under the shim.
    pub modelled_io: Duration,
    /// Backend op/byte counters, summed over members.
    pub backend: IoCounters,
    /// The same, per member.
    pub members: Vec<IoCounters>,
    /// The shim's block-buffer pool.
    pub pool: PoolStats,
    /// `(wide_blocks, scalar_blocks, wide_derives, scalar_derives)`.
    pub crypto: (u64, u64, u64, u64),
    /// The cache's counters, when there is a cache.
    pub cache: Option<CacheStats>,
    /// The resilience tier's counters, when there is one.
    pub resilience: Option<ResilienceStats>,
    /// The router's counters, when there is one.
    pub dist: Option<DistStats>,
}

// --------------------------------------------------------------- kernels --

/// One direct call to a single layer's public function, ready to be timed.
pub struct Kernel {
    /// The per-layer metric the timing is reported as.
    pub metric: &'static str,
    /// What one call's time is divided by to get the metric's unit (blocks
    /// per call, or 1000 for a metric in µs).
    pub per: f64,
    /// The call.
    pub call: Box<dyn FnMut()>,
}

/// Every directly measured kernel, on the shapes the workloads use: one
/// 4 KiB block (the `*-4k` workloads) and 256-block spans (`span-1m`).
pub fn kernels() -> Vec<Kernel> {
    let keys = fetch_keys().0;
    let backend = CryptoBackend::default();
    let geometry = Geometry::default();
    let mut out: Vec<Kernel> = Vec::new();
    let mut add = |metric, per: usize, call: Box<dyn FnMut()>| {
        out.push(Kernel {
            metric,
            per: per as f64,
            call,
        })
    };
    let pattern = |len: usize| -> Vec<u8> { (0..len).map(|i| (i * 31 + i / 4096) as u8).collect() };

    let block = pattern(BLOCK);
    add(
        "crypto.sha256_ns_per_4k",
        1,
        Box::new(move || {
            black_box(digest_block(black_box(&block)));
        }),
    );

    for (blocks, derive, encrypt, decrypt) in [
        (
            1,
            "crypto.derive_1_ns_per_4k",
            "crypto.encrypt_1_ns_per_4k",
            "crypto.decrypt_1_ns_per_4k",
        ),
        (
            256,
            "crypto.derive_256_ns_per_4k",
            "crypto.encrypt_256_ns_per_4k",
            "crypto.decrypt_256_ns_per_4k",
        ),
    ] {
        // The pool a default mount builds (`SpanConfig::default().workers`
        // is 0, auto-sized).
        let pool = CryptoPool::new(0);
        let kdf = ConvergentKdf::new(&keys.inner);
        let plain = pattern(blocks * BLOCK);
        let mut span_keys: Vec<Key256> = vec![[0u8; 32]; blocks];
        derive_span_into(&pool, &kdf, &plain, BLOCK, &mut span_keys, backend)
            .expect("whole blocks");
        {
            let (pool, plain) = (pool.clone(), plain.clone());
            let mut out_keys = span_keys.clone();
            add(
                derive,
                blocks,
                Box::new(move || {
                    derive_span_into(
                        &pool,
                        &kdf,
                        black_box(&plain),
                        BLOCK,
                        &mut out_keys,
                        backend,
                    )
                    .expect("whole blocks");
                    black_box(&out_keys);
                }),
            );
        }
        {
            // Encrypting ciphertext again is the same work as encrypting
            // plaintext, so the buffer is simply reused.
            let (pool, span_keys, mut data) = (pool.clone(), span_keys.clone(), plain.clone());
            add(
                encrypt,
                blocks,
                Box::new(move || {
                    encrypt_span(
                        &pool,
                        &span_keys,
                        &FIXED_IV,
                        black_box(&mut data),
                        BLOCK,
                        backend,
                    )
                    .expect("whole blocks");
                }),
            );
        }
        {
            let mut data = plain;
            add(
                decrypt,
                blocks,
                Box::new(move || {
                    decrypt_span(
                        &pool,
                        &span_keys,
                        &FIXED_IV,
                        black_box(&mut data),
                        BLOCK,
                        backend,
                    )
                    .expect("whole blocks");
                }),
            );
        }
    }

    let gcm = Aes256Gcm::new(&keys.outer);
    let nonce = [7u8; NONCE_LEN];
    let aad = *b"lamassu-benchmark-aad..";
    {
        let (gcm, mut data) = (gcm.clone(), pattern(BLOCK));
        add(
            "crypto.gcm_seal_ns_per_4k",
            1,
            Box::new(move || {
                black_box(gcm.encrypt_in_place(&nonce, &aad, black_box(&mut data)));
            }),
        );
    }
    {
        let gcm = gcm.clone();
        let mut sealed = pattern(BLOCK);
        let tag = gcm.encrypt_in_place(&nonce, &aad, &mut sealed);
        let mut work = sealed.clone();
        add(
            "crypto.gcm_open_ns_per_4k",
            1,
            Box::new(move || {
                // Opening decrypts in place, so each call starts from a
                // fresh copy of the ciphertext (a 4 KiB memcpy, < 1 %).
                work.copy_from_slice(&sealed);
                gcm.decrypt_in_place(&nonce, &aad, black_box(&mut work), &tag)
                    .expect("tag matches");
            }),
        );
    }

    // A metadata block with every key slot filled, as in a full segment.
    let mut meta = MetadataBlock::new(&geometry);
    for slot in 0..meta.slots() {
        meta.set_key(slot, [slot as u8; 32]).expect("slot in range");
    }
    meta.logical_size = 1 << 30;
    {
        let (gcm, meta) = (gcm.clone(), meta.clone());
        let mut out_block = vec![0u8; geometry.block_size()];
        add(
            "format.seal_ns_per_block",
            1,
            Box::new(move || {
                meta.seal_into(&geometry, &gcm, &nonce, &aad, black_box(&mut out_block));
            }),
        );
    }
    {
        let sealed = meta.seal(&geometry, &gcm, &nonce, &aad);
        add(
            "format.unseal_ns_per_block",
            1,
            Box::new(move || {
                black_box(
                    MetadataBlock::unseal(&geometry, &gcm, &aad, black_box(&sealed))
                        .expect("sealed above"),
                );
            }),
        );
    }
    {
        let mut at = 0u64;
        add(
            "format.plan_ns_per_op",
            1,
            Box::new(move || {
                at = (at + 7 * BLOCK as u64) % (1 << 30);
                for (block, _, _) in geometry.block_spans(black_box(at), BLOCK) {
                    black_box(geometry.locate_block(block));
                }
            }),
        );
    }

    {
        let km = KeyManager::new();
        let zone = km.create_zone(1).expect("fresh key manager");
        add(
            "keymgr.fetch_zone_keys_us",
            1000,
            Box::new(move || {
                black_box(km.fetch_zone_keys(black_box(zone)).expect("zone exists"));
            }),
        );
    }

    {
        let blocks = 1024u64;
        let store = backend_with_object("k", blocks as usize);
        let mut buf = vec![0u8; BLOCK];
        let mut i = 0u64;
        add(
            "storage.dedupstore_read_ns_per_4k",
            1,
            Box::new(move || {
                i = (i + 389) % blocks;
                black_box(
                    store
                        .read_into("k", i * BLOCK as u64, &mut buf)
                        .expect("in range"),
                );
            }),
        );
        let store = backend_with_object("k", blocks as usize);
        let data = pattern(BLOCK);
        let mut i = 0u64;
        add(
            "storage.dedupstore_write_ns_per_4k",
            1,
            Box::new(move || {
                i = (i + 389) % blocks;
                store
                    .write_at("k", i * BLOCK as u64, black_box(&data))
                    .expect("in range");
            }),
        );
    }

    {
        let hist = Histogram::new();
        let mut v = 1u64;
        add(
            "telemetry.record_ns",
            1,
            Box::new(move || {
                v = v
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                hist.record(black_box(v >> 44));
            }),
        );
    }
    out
}

fn backend_with_object(name: &str, blocks: usize) -> Arc<DedupStore> {
    let store = backend();
    store.create(name).expect("fresh store");
    store
        .write_at(name, 0, &vec![0x5au8; blocks * BLOCK])
        .expect("fresh object");
    store
}
