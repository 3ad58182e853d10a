//! Property tests for the pooled data path.
//!
//! Two families:
//!
//! * **Byte-identity** — every shim replays arbitrary op sequences through
//!   its pooled span pipeline with a *deliberately tiny* block pool (so
//!   takes constantly miss, drops constantly discard, and recycled buffers
//!   carry maximal stale garbage) against the per-block oracle pipeline;
//!   plaintext behaviour must be identical at every step. A stale-bytes bug
//!   in any pooled staging path — read edges, metadata staging, commit
//!   staging, cache slots — shows up here.
//! * **Bounded churn** — the pool's idle-buffer count must respect its
//!   capacity bound under concurrent reader/writer storms over an
//!   eviction-churning cache (the leak test: buffers neither accumulate
//!   without bound nor go missing from the accounting).

use lamassu::core::{
    CeFileFs, EncFs, EncFsConfig, FileSystem, LamassuConfig, LamassuFs, OpenFlags, SpanConfig,
    SpanPolicy,
};
use lamassu::keymgr::ZoneKeys;
use lamassu::storage::{DedupStore, StorageProfile};
use lamassu_cache::{CacheConfig, CachedStore};
use proptest::prelude::*;
use std::sync::Arc;

fn zone_keys() -> ZoneKeys {
    ZoneKeys {
        zone: 1,
        generation: 0,
        inner: [0x33; 32],
        outer: [0x44; 32],
    }
}

/// A pooled span config whose pool is small enough that ordinary workloads
/// overflow it constantly (maximum recycle churn).
fn tiny_pooled() -> SpanConfig {
    SpanConfig {
        policy: SpanPolicy::Batched,
        workers: 0,
        pool_blocks: Some(2),
    }
}

/// One step of the dual-pipeline replay.
#[derive(Debug, Clone)]
enum Op {
    Write { offset: u64, data: Vec<u8> },
    Read { offset: u64, len: usize },
    Truncate { size: u64 },
    Fsync,
}

fn op_strategy(max_file: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..max_file, prop::collection::vec(any::<u8>(), 1..6000))
            .prop_map(|(offset, data)| Op::Write { offset, data }),
        3 => (0..max_file, 0usize..6000).prop_map(|(offset, len)| Op::Read { offset, len }),
        1 => (0..max_file).prop_map(|size| Op::Truncate { size }),
        1 => Just(Op::Fsync),
    ]
}

/// Replays `ops` through a tiny-pool batched mount and a per-block oracle
/// mount built by `make`, requiring identical plaintext behaviour at every
/// step and on the final read-back.
fn check_pooled_vs_oracle(
    make: impl Fn(Arc<DedupStore>, SpanConfig) -> Box<dyn FileSystem>,
    ops: &[Op],
) {
    let pooled = make(
        Arc::new(DedupStore::new(4096, StorageProfile::instant())),
        tiny_pooled(),
    );
    let oracle = make(
        Arc::new(DedupStore::new(4096, StorageProfile::instant())),
        SpanConfig::per_block(),
    );
    let fd_p = pooled.create("/pool.bin").unwrap();
    let fd_o = oracle.create("/pool.bin").unwrap();
    for op in ops {
        match op {
            Op::Write { offset, data } => {
                assert_eq!(
                    pooled.write(fd_p, *offset, data).unwrap(),
                    oracle.write(fd_o, *offset, data).unwrap()
                );
            }
            Op::Read { offset, len } => {
                assert_eq!(
                    pooled.read(fd_p, *offset, *len).unwrap(),
                    oracle.read(fd_o, *offset, *len).unwrap(),
                    "read at {offset}+{len} diverged between pooled and oracle"
                );
            }
            Op::Truncate { size } => {
                pooled.truncate(fd_p, *size).unwrap();
                oracle.truncate(fd_o, *size).unwrap();
            }
            Op::Fsync => {
                pooled.fsync(fd_p).unwrap();
                oracle.fsync(fd_o).unwrap();
            }
        }
        assert_eq!(pooled.len(fd_p).unwrap(), oracle.len(fd_o).unwrap());
    }
    let size = pooled.len(fd_p).unwrap() as usize;
    assert_eq!(
        pooled.read(fd_p, 0, size.max(1)).unwrap(),
        oracle.read(fd_o, 0, size.max(1)).unwrap(),
        "final read-back diverged"
    );
    pooled.close(fd_p).unwrap();
    oracle.close(fd_o).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn lamassufs_pooled_matches_oracle(ops in prop::collection::vec(op_strategy(40_000), 1..16)) {
        check_pooled_vs_oracle(
            |store, span| Box::new(LamassuFs::new(
                store,
                zone_keys(),
                LamassuConfig::default().span(span),
            )),
            &ops,
        );
    }

    #[test]
    fn encfs_pooled_matches_oracle(ops in prop::collection::vec(op_strategy(30_000), 1..16)) {
        check_pooled_vs_oracle(
            |store, span| Box::new(EncFs::new(
                store,
                [7u8; 32],
                EncFsConfig { span, ..EncFsConfig::default() },
            )),
            &ops,
        );
    }

    #[test]
    fn cefilefs_pooled_matches_oracle(ops in prop::collection::vec(op_strategy(30_000), 1..12)) {
        check_pooled_vs_oracle(
            |store, span| Box::new(CeFileFs::with_config(store, zone_keys(), 4096, span)),
            &ops,
        );
    }

    #[test]
    fn plainfs_pooled_stack_matches_oracle_stack(
        ops in prop::collection::vec(op_strategy(30_000), 1..12)
    ) {
        // PlainFS holds no block buffers itself; the pooled tier under it is
        // the cache. Replay through PlainFS-over-tiny-cache (pooled slots,
        // heavy eviction recycling) vs bare PlainFS.
        check_pooled_vs_oracle(
            |store, span| {
                if span.policy == SpanPolicy::Batched {
                    let cache = Arc::new(CachedStore::new(store, CacheConfig {
                        block_size: 4096,
                        capacity_blocks: 8,
                        ..CacheConfig::default()
                    }));
                    Box::new(lamassu::core::PlainFs::new(cache))
                } else {
                    Box::new(lamassu::core::PlainFs::new(store))
                }
            },
            &ops,
        );
    }
}

/// The leak/churn bound: concurrent readers and writers over an
/// eviction-churning cached LamassuFS mount, tiny pools everywhere. After
/// the storm every pool must hold at most its capacity in idle buffers, and
/// the recycle accounting must balance.
#[test]
fn pools_stay_bounded_under_storm() {
    let backend = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
    let cache = Arc::new(CachedStore::new(
        backend,
        CacheConfig {
            block_size: 4096,
            capacity_blocks: 16, // far smaller than the working set: constant eviction
            ..CacheConfig::default()
        },
    ));
    let fs = Arc::new(LamassuFs::new(
        cache.clone(),
        zone_keys(),
        LamassuConfig::default().span(SpanConfig {
            policy: SpanPolicy::Batched,
            workers: 0,
            pool_blocks: Some(4),
        }),
    ));
    let size = 512 * 1024;
    let fd = fs.create("/storm.bin").unwrap();
    fs.write(fd, 0, &vec![0x5au8; size]).unwrap();
    fs.fsync(fd).unwrap();
    fs.close(fd).unwrap();

    std::thread::scope(|s| {
        for t in 0..4 {
            let fs = fs.clone();
            s.spawn(move || {
                let fd = fs.open("/storm.bin", OpenFlags::default()).unwrap();
                let mut buf = vec![0u8; 24 * 1024];
                for i in 0..60 {
                    let off = ((t * 7919 + i * 13007) % (size - buf.len())) as u64;
                    // Misaligned reads: edge staging cycles through the pool.
                    fs.read_into(fd, off + 100, &mut buf).unwrap();
                }
                fs.close(fd).unwrap();
            });
        }
        for t in 0..2 {
            let fs = fs.clone();
            s.spawn(move || {
                let fd = fs.open("/storm.bin", OpenFlags::default()).unwrap();
                let block = vec![t as u8 + 1; 4096];
                for i in 0..40 {
                    let off = (((t * 104729 + i * 4099) * 4096) % (size - 4096)) as u64;
                    fs.write(fd, off, &block).unwrap();
                }
                fs.fsync(fd).unwrap();
                fs.close(fd).unwrap();
            });
        }
    });

    for (label, stats) in [("shim", fs.pool_stats()), ("cache", cache.pool_stats())] {
        assert!(
            stats.pooled <= stats.capacity,
            "{label} pool exceeded its bound: {stats:?}"
        );
        assert!(
            stats.hits + stats.misses >= stats.recycled + stats.discarded,
            "{label} pool accounting out of balance: {stats:?}"
        );
        assert!(stats.hits > 0, "{label} pool was exercised: {stats:?}");
    }
    // Nothing leaked logically either: the file still reads coherently.
    let fd = fs.open("/storm.bin", OpenFlags::default()).unwrap();
    let back = fs.read(fd, 0, size).unwrap();
    assert_eq!(back.len(), size);
}
