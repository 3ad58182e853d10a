//! The zero-allocation guarantee, enforced with a counting global allocator.
//!
//! The tentpole claim of the pooled data path (`lamassu-core::pool`): once a
//! LamassuFS mount is warm, the steady-state loops perform **zero heap
//! allocations per operation** —
//!
//! * a warm re-read loop (every block already cached in the backend and all
//!   metadata decrypted), aligned or misaligned, with full integrity
//!   checking on — served by the mount's read memo once warm;
//! * warm re-reads that miss the read memo (unique blocks, more than it
//!   holds), so every block decrypts, re-derives its key and is admitted
//!   over an older entry: lone 4 KiB reads and 64 KiB reads;
//! * a warm re-read loop through a `CachedStore` serving pure hits;
//! * a steady aligned rewrite loop (dirty blocks staged in pooled buffers,
//!   committed through the reusable span staging, metadata updated in place
//!   and sealed into pooled blocks);
//! * a steady duplicate-rewrite loop whose span commits take half their
//!   blocks' ciphertext from the read memo and admit new duplicates into it,
//!   with the memo's arena allocated exactly once.
//!
//! EncFS — the benchmark's `core.encfs_ratio` baseline, on the same span-I/O
//! driver — is held to the same bar for warm reads and 4 KiB rewrites,
//! aligned and misaligned.
//!
//! Every measured read goes through the completion engine — submission
//! queue, ticket-matched poll/complete, wait barrier — so the
//! zero-allocation guarantee covers the async machinery itself (the queue's
//! entry vectors, the pending-run table, and the completion staging are all
//! warm thread-local state). The deep-pipeline test keeps several runs
//! genuinely in flight at once over a depth-8 channel; the blocking-oracle
//! test pins the same guarantee on the differential baseline, a store whose
//! submissions complete at once (`Unqueued`, in `tests/support`).
//!
//! The tests install a `#[global_allocator]` that counts every `alloc` and
//! `realloc`, warm each loop (first-touch costs: pool fills, thread-local
//! scratch, metadata cache, transport-channel pinning), then assert the
//! counter does not move across many further operations. Everything runs on
//! the in-memory `DedupStore` with the instant transport profile so the only
//! code under test is our own data path.
//!
//! The guarantee holds **with telemetry fully enabled**: the re-read tests
//! attach a `lamassu-telemetry` op [`Tracer`] to the mount's profiler before
//! warming, so every measured operation is spanned, phase-attributed and
//! pushed into the preallocated trace rings — and must still cost zero
//! allocations.
//!
//! The loops run single-threaded with `workers: 1` (the inline crypto
//! regime): with a wider worker pool a span of two or more 16-block tiles
//! fans out, and the thread fan-out allocates by design — that trade is
//! documented in `lamassu-core::span` and the README's memory-model section.
//! The 4 KiB rewrite loop is also pinned on a default mount (`workers: 0`):
//! its buffered writes allocate nothing, and its span commits nothing but
//! the fan-out's spawns.

mod support;

use lamassu::core::{
    EncFs, EncFsConfig, FileSystem, IntegrityMode, LamassuConfig, LamassuFs, SpanConfig, SpanPolicy,
};
use lamassu::crypto::pool::CryptoPool;
use lamassu::dist::{DistConfig, RoutedStore};
use lamassu::keymgr::{KeyManager, ZoneKeys};
use lamassu::resilience::{OpBudget, ResilientStore, RetryPolicy};
use lamassu::storage::{DedupStore, ObjectStore, StorageProfile};
use lamassu::telemetry::{OpKind, Registry, TraceConfig, Tracer};
use lamassu_cache::{CacheConfig, CachedStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use support::Unqueued;

/// Forwards to [`System`], counting every allocation and reallocation.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The size of a LamassuFS read memo's arena at 4 KiB blocks: 1 024 entries
/// of ciphertext and plaintext.
const ARENA_BYTES: usize = 2 * 1024 * BS;

/// Allocations of exactly [`ARENA_BYTES`].
static ARENAS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counter has no
// safety impact.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if layout.size() == ARENA_BYTES {
            ARENAS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The allocation counter is process-global, so the measured windows of the
/// three tests must not overlap — another test's warm-up allocating inside
/// this test's window would be a false failure. Each test holds this lock
/// for its whole body.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `op` and returns how many allocations it performed.
fn allocs_during(mut op: impl FnMut()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    op();
    ALLOCS.load(Ordering::Relaxed) - before
}

const BS: usize = 4096;

/// A LamassuFS mount over an instant in-memory store, single crypto worker
/// (the inline, allocation-free batch regime), full integrity.
fn mount() -> LamassuFs {
    mount_over(media(StorageProfile::instant()))
}

fn media(profile: StorageProfile) -> Arc<DedupStore> {
    Arc::new(DedupStore::new(BS, profile))
}

/// Same mount over an explicit store.
fn mount_over(store: Arc<dyn ObjectStore>) -> LamassuFs {
    mount_keyed(store, fresh_keys())
}

fn fresh_keys() -> ZoneKeys {
    let km = KeyManager::new();
    let zone = km.create_zone(1).expect("fresh key manager");
    km.fetch_zone_keys(zone).expect("zone just created")
}

/// Same mount over an explicit store, under `keys`.
fn mount_keyed(store: Arc<dyn ObjectStore>, keys: ZoneKeys) -> LamassuFs {
    let config = LamassuConfig::default()
        .integrity(IntegrityMode::Full)
        .span(SpanConfig {
            policy: SpanPolicy::Batched,
            workers: 1,
            ..SpanConfig::default()
        });
    LamassuFs::new(store, keys, config)
}

/// Attaches a fresh op tracer (full spans + phase attribution) to a mount.
/// All telemetry state — rings, histograms, counters — is preallocated here,
/// before the measured window.
fn attach_tracer(fs: &LamassuFs) -> Arc<Tracer> {
    let registry = Arc::new(Registry::new());
    let tracer = Tracer::new(&registry, TraceConfig::default());
    fs.profiler().attach_tracer(tracer.clone());
    tracer
}

fn populate(fs: &dyn FileSystem, path: &str, size: usize) -> lamassu::core::Fd {
    let fd = fs.create(path).expect("fresh mount");
    let chunk: Vec<u8> = (0..64 * 1024).map(|i| (i % 249) as u8).collect();
    let mut off = 0;
    while off < size {
        let take = chunk.len().min(size - off);
        fs.write(fd, off as u64, &chunk[..take]).expect("populate");
        off += take;
    }
    fs.fsync(fd).expect("populate fsync");
    fd
}

#[test]
fn warm_reread_loop_allocates_nothing() {
    let _serial = serialize();
    let size = 2 * 1024 * 1024;
    // Written through another mount: a commit admits the duplicates it
    // writes, and the file repeats sixteen blocks, so the reading mount's
    // memo would otherwise start warm.
    let (store, keys) = (media(StorageProfile::instant()), fresh_keys());
    let writer = mount_keyed(store.clone(), keys);
    let wfd = populate(&writer, "/zero.dat", size);
    writer.close(wfd).expect("close");
    let fs = mount_keyed(store, keys);
    let tracer = attach_tracer(&fs);
    let fd = fs.open("/zero.dat", Default::default()).expect("open");
    let mut buf = vec![0u8; 64 * 1024];

    let mut sweep = |fs: &LamassuFs, offset_skew: usize| {
        let mut off = offset_skew;
        while off + buf.len() <= size {
            let n = fs.read_into(fd, off as u64, &mut buf).expect("read");
            assert_eq!(n, buf.len());
            off += buf.len();
        }
    };

    // The cold sweep must decrypt through the wide fixsliced kernels (not
    // fall back to T-table). The file repeats sixteen distinct blocks, so
    // from the second copy of each on, reads are served by the read memo.
    let (wide_before, _, _, _) = lamassu::crypto::stats::snapshot();
    sweep(&fs, 0);
    let (wide_after, _, _, _) = lamassu::crypto::stats::snapshot();
    assert!(
        wide_after > wide_before,
        "a cold sweep must decrypt through the wide fixsliced kernels"
    );
    // Warm everything else: metadata cache, buffer pool, thread-local
    // scratch, the memo's arena, the transport clock's channel pinning.
    sweep(&fs, BS / 2);
    sweep(&fs, 0);

    // Aligned warm re-reads: zero allocations per op, served by the memo.
    let hits_before = fs.memo_stats().hits;
    let allocs = allocs_during(|| {
        for _ in 0..8 {
            sweep(&fs, 0);
        }
    });
    assert_eq!(allocs, 0, "aligned warm re-read loop must not allocate");
    assert!(fs.memo_stats().hits > hits_before, "{:?}", fs.memo_stats());

    // Misaligned warm re-reads (head/tail blocks stage through the pool —
    // still zero allocations).
    let ops_before = tracer.ops();
    let hits_before = fs.memo_stats().hits;
    let allocs = allocs_during(|| {
        for _ in 0..8 {
            sweep(&fs, BS / 2);
        }
    });
    assert_eq!(allocs, 0, "misaligned warm re-read loop must not allocate");
    assert!(fs.memo_stats().hits > hits_before, "{:?}", fs.memo_stats());
    // Telemetry was live the whole time: every measured read was spanned.
    assert!(
        tracer.ops() > ops_before,
        "the tracer must have spanned the measured reads"
    );
    assert!(tracer.op_histogram(OpKind::Read).count > 0);

    let stats = fs.pool_stats();
    assert!(stats.hits > 0, "pool was exercised: {stats:?}");
    assert!(
        stats.pooled <= stats.capacity,
        "idle buffers exceed the pool bound: {stats:?}"
    );
}

#[test]
fn warm_rereads_that_miss_the_memo_allocate_nothing() {
    let _serial = serialize();
    // Unique blocks, twice as many as the read memo holds (2 048 against
    // 1 024 entries): sequential sweeps thrash its LRU sets, so nearly every
    // read misses, decrypts, re-derives its key and — on its second
    // sighting — is admitted over an older entry. That path, for lone
    // aligned 4 KiB reads (the rand-read shape) and for 64 KiB reads aligned
    // and misaligned, must allocate nothing either.
    let fs = mount();
    let size = 8 * 1024 * 1024;
    let mut data = vec![0u8; size];
    for (b, block) in data.chunks_exact_mut(BS).enumerate() {
        block.fill((b % 251) as u8);
        block[..8].copy_from_slice(&(b as u64).to_le_bytes());
    }
    let fd = fs.create("/unique.dat").expect("fresh mount");
    for (i, chunk) in data.chunks(64 * 1024).enumerate() {
        fs.write(fd, (i * chunk.len()) as u64, chunk)
            .expect("populate");
    }
    fs.fsync(fd).expect("populate fsync");

    let mut buf = vec![0u8; 64 * 1024];
    let mut sweep = |len: usize, skew: usize| {
        let mut off = skew;
        while off + len <= size {
            let n = fs.read_into(fd, off as u64, &mut buf[..len]).expect("read");
            assert_eq!(n, len);
            assert_eq!(buf[..len], data[off..off + len]);
            off += len;
        }
    };
    let cases = [
        ("lone aligned 4 KiB reads", BS, 0),
        ("aligned 64 KiB reads", 64 * 1024, 0),
        ("misaligned 64 KiB reads", 64 * 1024, BS / 2),
    ];
    for _ in 0..2 {
        for (_, len, skew) in cases {
            sweep(len, skew);
        }
    }
    for (what, len, skew) in cases {
        let before = fs.memo_stats();
        let allocs = allocs_during(|| sweep(len, skew));
        assert_eq!(
            allocs, 0,
            "warm {what} that miss the memo must not allocate"
        );
        let after = fs.memo_stats();
        assert!(
            after.misses - before.misses > (size / BS) as u64 / 2,
            "{what}: {before:?} -> {after:?}"
        );
        assert!(after.evictions > before.evictions, "{what}: {after:?}");
    }
}

#[test]
fn warm_async_deep_pipeline_reread_allocates_nothing() {
    let _serial = serialize();
    // 1 MiB application reads over the depth-8 NFS-profile channel: each
    // read plans three ≤118-block segment runs and keeps them in flight
    // together, so this loop exercises the completion engine with real
    // pipeline depth — multiple submissions pending, out-of-order-capable
    // ticket matching, a wait barrier per call — and must still not
    // allocate once warm.
    let fs = mount_over(media(StorageProfile::nfs_1gbe()));
    let tracer = attach_tracer(&fs);
    let size = 2 * 1024 * 1024;
    let fd = populate(&fs, "/deep.dat", size);
    let mut buf = vec![0u8; 1024 * 1024];

    let mut sweep = |fs: &LamassuFs, offset_skew: usize| {
        let mut off = offset_skew;
        while off + buf.len() <= size {
            let n = fs.read_into(fd, off as u64, &mut buf).expect("read");
            assert_eq!(n, buf.len());
            off += buf.len();
        }
    };
    sweep(&fs, 0);
    sweep(&fs, BS / 2);
    sweep(&fs, 0);

    let allocs = allocs_during(|| {
        for _ in 0..8 {
            sweep(&fs, 0);
            sweep(&fs, BS / 2);
        }
    });
    assert_eq!(
        allocs, 0,
        "deep async re-read loop (aligned + misaligned) must not allocate"
    );

    // The pipeline really was deep: several submissions were in flight at
    // once, and every one of them was drained by the wait barrier.
    let profiler = fs.profiler();
    assert!(
        profiler.in_flight_peak() >= 2,
        "expected overlapped submissions, peak was {}",
        profiler.in_flight_peak()
    );
    assert_eq!(
        profiler.in_flight_ops(),
        0,
        "every submission must complete by the end of its call"
    );
    assert!(tracer.ops() > 0);
}

#[test]
fn warm_blocking_oracle_reread_allocates_nothing() {
    let _serial = serialize();
    // The differential oracle (the same mount over `Unqueued`, whose
    // submissions run the blocking call and complete at once) is held to
    // the same bar: comparisons against it must not be skewed by allocator
    // traffic.
    let fs = mount_over(Arc::new(Unqueued(media(StorageProfile::instant()))));
    let size = 1024 * 1024;
    let fd = populate(&fs, "/oracle.dat", size);
    let mut buf = vec![0u8; 64 * 1024];

    let mut sweep = |fs: &LamassuFs, offset_skew: usize| {
        let mut off = offset_skew;
        while off + buf.len() <= size {
            let n = fs.read_into(fd, off as u64, &mut buf).expect("read");
            assert_eq!(n, buf.len());
            off += buf.len();
        }
    };
    sweep(&fs, 0);
    sweep(&fs, BS / 2);
    sweep(&fs, 0);

    let allocs = allocs_during(|| {
        for _ in 0..8 {
            sweep(&fs, 0);
            sweep(&fs, BS / 2);
        }
    });
    assert_eq!(
        allocs, 0,
        "warm blocking-oracle re-read loop must not allocate"
    );
    assert_eq!(fs.profiler().in_flight_ops(), 0);
}

/// Warms and then measures the steady aligned 4 KiB rewrite loop (commits
/// and `fsync` included) on `fs`.
fn assert_steady_rewrite_allocates_nothing(fs: &LamassuFs) {
    let size = 1024 * 1024;
    let fd = populate(fs, "/rw.dat", size);

    let block: Vec<u8> = (0..BS).map(|i| (i % 241) as u8).collect();
    let rewrite_pass = |fs: &LamassuFs| {
        let mut off = 0;
        while off + BS <= size {
            fs.write(fd, off as u64, &block).expect("rewrite");
            off += BS;
        }
        fs.fsync(fd).expect("rewrite fsync");
    };

    // Warm: commit staging buffer, pending-vector capacity, pooled blocks,
    // metadata cache, nonce RNG state, thread-local key scratch.
    rewrite_pass(fs);
    rewrite_pass(fs);

    let allocs = allocs_during(|| {
        for _ in 0..4 {
            rewrite_pass(fs);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady aligned rewrite loop (incl. commits + fsync) must not allocate"
    );
}

#[test]
fn steady_rewrite_loop_allocates_nothing() {
    let _serial = serialize();
    assert_steady_rewrite_allocates_nothing(&mount());
}

#[test]
fn steady_duplicate_rewrite_loop_allocates_nothing() {
    let _serial = serialize();
    let arenas = ARENAS.load(Ordering::Relaxed);
    let fs = mount();
    let fd = fs.create("/dup.dat").expect("fresh mount");
    // Every rewrite is one span, committed by the write that fills it. Its
    // even blocks copy one of sixteen fixed blocks: memoized from the first
    // commit on, they take their ciphertext from the memo. Its odd blocks
    // hold 64 contents new to the rewrite, each twice (blocks 4j+1 and
    // 4j+3): they are encrypted, and admitted once the commit lands — as
    // duplicates, and as overwrites of the last rewrite's memoized blocks.
    const SPAN: usize = 256;
    let mut span = vec![0u8; SPAN * BS];
    let mut rewrite = |n: u64| {
        for (b, block) in span.chunks_exact_mut(BS).enumerate() {
            let (id, version) = match b % 2 {
                0 => (b / 2 % 16, 0),
                _ => (16 + b / 4, n + 1),
            };
            for (i, byte) in block.iter_mut().enumerate() {
                *byte = (i % 251) as u8 ^ id as u8;
            }
            block[..8].copy_from_slice(&(id as u64).to_le_bytes());
            block[8..16].copy_from_slice(&version.to_le_bytes());
        }
        fs.write(fd, 0, &span).expect("rewrite");
    };

    // Warm: the memo's arena (at the first commit's admissions), the commit
    // staging, the miss staging, pooled blocks, metadata cache.
    for n in 0..3 {
        rewrite(n);
    }
    let before = fs.memo_stats();
    let rewrites = 16;
    let allocs = allocs_during(|| {
        for n in 3..3 + rewrites {
            rewrite(n);
        }
    });
    assert_eq!(allocs, 0, "steady duplicate rewrite loop must not allocate");
    let after = fs.memo_stats();
    assert_eq!(
        (
            after.commit_hits - before.commit_hits,
            after.commit_admissions - before.commit_admissions,
        ),
        (SPAN as u64 / 2 * rewrites, SPAN as u64 / 4 * rewrites),
        "every commit takes its even half from the memo and admits its odd contents"
    );
    fs.close(fd).expect("close");
    assert_eq!(
        ARENAS.load(Ordering::Relaxed) - arenas,
        1,
        "the memo's arena is allocated once"
    );
}

#[test]
fn steady_rewrite_loop_on_a_default_mount_allocates_nothing() {
    let _serial = serialize();
    // `workers: 0`, the auto-sized crypto pool every default mount gets. A
    // buffered write allocates nothing on any mount. The write that fills the
    // span commits 256 blocks, and a 256-block derive and encrypt fan out
    // across the pool by design: one scoped spawn per extra share, twice per
    // commit. Those spawns are the loop's only allocations — at most
    // `ALLOCS_PER_SPAWN` each, none at all on a one-core machine — and the
    // three metadata blocks a sequential span seals per phase stay inline.
    const ALLOCS_PER_SPAWN: u64 = 6;
    let store = Arc::new(DedupStore::new(BS, StorageProfile::instant()));
    let km = KeyManager::new();
    let zone = km.create_zone(1).expect("fresh key manager");
    let keys = km.fetch_zone_keys(zone).expect("zone just created");
    assert_eq!(SpanConfig::default().workers, 0);
    let fs = LamassuFs::new(store, keys, LamassuConfig::default());
    let span = 256;
    let spawns = 2 * (CryptoPool::new(0).shares(span) as u64 - 1);

    let fd = populate(&fs, "/rw.dat", span * BS);
    let block: Vec<u8> = (0..BS).map(|i| (i % 241) as u8).collect();
    let rewrite = |blocks: std::ops::Range<usize>| {
        for b in blocks {
            fs.write(fd, (b * BS) as u64, &block).expect("rewrite");
        }
    };
    for _ in 0..2 {
        rewrite(0..span);
        fs.fsync(fd).expect("warm-up fsync");
    }
    for pass in 0..4 {
        let buffered = allocs_during(|| rewrite(0..span - 1));
        assert_eq!(
            buffered, 0,
            "pass {pass}: buffered writes must not allocate"
        );
        let commit = allocs_during(|| {
            rewrite(span - 1..span);
            fs.fsync(fd).expect("rewrite fsync");
        });
        assert!(
            commit <= spawns * ALLOCS_PER_SPAWN,
            "pass {pass}: the span commit allocated {commit} times for {spawns} spawns"
        );
    }
    let commits = fs.profiler().commit_stats().commits;
    assert_eq!(commits, 1 + 2 + 4, "one span commit per pass");
}

#[test]
fn encfs_warm_reads_and_rewrites_allocate_nothing() {
    let _serial = serialize();
    let store = Arc::new(DedupStore::new(BS, StorageProfile::instant()));
    let span = SpanConfig {
        workers: 1,
        ..SpanConfig::default()
    };
    let fs = EncFs::new(
        store,
        [7u8; 32],
        EncFsConfig {
            span,
            ..EncFsConfig::default()
        },
    );
    let size = 1024 * 1024;
    let fd = populate(&fs, "/enc.dat", size);
    let mut buf = vec![0u8; 64 * 1024];
    let block: Vec<u8> = (0..BS).map(|i| (i % 241) as u8).collect();

    // One sweep of `len`-byte reads, or of 4 KiB rewrites, at `skew`.
    let mut sweep = |len: usize, skew: usize, write: bool| {
        let mut off = skew;
        while off + len <= size {
            let n = if write {
                fs.write(fd, off as u64, &block).expect("rewrite")
            } else {
                fs.read_into(fd, off as u64, &mut buf[..len]).expect("read")
            };
            assert_eq!(n, len);
            off += len;
        }
    };
    let cases = [
        ("aligned 64 KiB reads", 64 * 1024, 0, false),
        ("misaligned 64 KiB reads", 64 * 1024, BS / 2, false),
        ("misaligned 4 KiB reads", BS, BS / 2, false),
        ("aligned 4 KiB rewrites", BS, 0, true),
        ("misaligned 4 KiB rewrites", BS, BS / 2, true),
    ];
    for _ in 0..2 {
        for (_, len, skew, write) in cases {
            sweep(len, skew, write);
        }
    }
    for (what, len, skew, write) in cases {
        let allocs = allocs_during(|| sweep(len, skew, write));
        assert_eq!(allocs, 0, "EncFS: warm {what} must not allocate");
    }
}

#[test]
fn warm_routed_reread_loop_allocates_nothing() {
    let _serial = serialize();
    // LamassuFS over a replicated two-member routed cluster: the router
    // splits each span run at placement-unit boundaries in place (fixed
    // owner-chain arrays, no per-op interning once the name is cached), so
    // the warm re-read guarantee must survive the distribution tier.
    let members: Vec<Arc<DedupStore>> = (0..2)
        .map(|_| Arc::new(DedupStore::new(BS, StorageProfile::instant())))
        .collect();
    let routed = Arc::new(RoutedStore::new(
        members,
        DistConfig::new(2).unit(256 * 1024),
    ));
    let km = KeyManager::new();
    let zone = km.create_zone(1).expect("fresh key manager");
    let keys = km.fetch_zone_keys(zone).expect("zone just created");
    let config = LamassuConfig::default()
        .integrity(IntegrityMode::Full)
        .span(SpanConfig {
            policy: SpanPolicy::Batched,
            workers: 1,
            pool_blocks: None,
        });
    let fs = LamassuFs::new(routed.clone(), keys, config);
    let tracer = attach_tracer(&fs);

    let size = 1024 * 1024;
    let fd = populate(&fs, "/routed.dat", size);
    let mut buf = vec![0u8; 64 * 1024];
    let mut sweep = |fs: &LamassuFs, offset_skew: usize| {
        let mut off = offset_skew;
        while off + buf.len() <= size {
            let n = fs.read_into(fd, off as u64, &mut buf).expect("read");
            assert_eq!(n, buf.len());
            off += buf.len();
        }
    };
    sweep(&fs, 0);
    sweep(&fs, BS / 2);
    sweep(&fs, 0);

    let allocs = allocs_during(|| {
        for _ in 0..8 {
            sweep(&fs, 0);
        }
    });
    assert_eq!(allocs, 0, "warm routed re-read loop must not allocate");

    // Misaligned sweeps cross placement-unit boundaries mid-buffer, forcing
    // the router's piecewise split path — still allocation-free.
    let allocs = allocs_during(|| {
        for _ in 0..8 {
            sweep(&fs, BS / 2);
        }
    });
    assert_eq!(
        allocs, 0,
        "misaligned warm routed re-read loop must not allocate"
    );
    assert!(
        tracer.ops() > 0,
        "the tracer must have spanned the routed reads"
    );
    assert_eq!(
        routed.stats().read_failovers,
        0,
        "healthy cluster reads must stay on the primary"
    );
}

#[test]
fn warm_resilient_reread_loop_allocates_nothing() {
    let _serial = serialize();
    // LamassuFS over a ResilientStore with retries armed but no faults: the
    // self-healing wrapper's happy path (attempt counter, virtual-clock
    // reads, stats atomics) must be pure pass-through — the warm re-read
    // guarantee survives the resilience tier.
    let store = Arc::new(DedupStore::new(BS, StorageProfile::instant()));
    let resilient = Arc::new(ResilientStore::new(
        store,
        RetryPolicy::default(),
        OpBudget::default(),
    ));
    let km = KeyManager::new();
    let zone = km.create_zone(1).expect("fresh key manager");
    let keys = km.fetch_zone_keys(zone).expect("zone just created");
    let config = LamassuConfig::default()
        .integrity(IntegrityMode::Full)
        .span(SpanConfig {
            policy: SpanPolicy::Batched,
            workers: 1,
            pool_blocks: None,
        });
    let fs = LamassuFs::new(resilient.clone(), keys, config);
    let tracer = attach_tracer(&fs);

    let size = 1024 * 1024;
    let fd = populate(&fs, "/resilient.dat", size);
    let mut buf = vec![0u8; 64 * 1024];
    let mut sweep = |fs: &LamassuFs, offset_skew: usize| {
        let mut off = offset_skew;
        while off + buf.len() <= size {
            let n = fs.read_into(fd, off as u64, &mut buf).expect("read");
            assert_eq!(n, buf.len());
            off += buf.len();
        }
    };
    sweep(&fs, 0);
    sweep(&fs, BS / 2);
    sweep(&fs, 0);

    let allocs = allocs_during(|| {
        for _ in 0..8 {
            sweep(&fs, 0);
            sweep(&fs, BS / 2);
        }
    });
    assert_eq!(
        allocs, 0,
        "warm resilient re-read loop (aligned + misaligned) must not allocate"
    );

    // The fault-free loop never needed the recovery machinery.
    let stats = resilient.stats();
    assert_eq!(stats.retries, 0, "no faults, no retries: {stats:?}");
    assert!(
        tracer.ops() > 0,
        "the tracer must have spanned the resilient reads"
    );
}

#[test]
fn warm_cached_reread_loop_allocates_nothing() {
    let _serial = serialize();
    // LamassuFS over a CachedStore big enough to hold the whole file: after
    // the first sweep every backend block is a cache hit served from pooled
    // slots.
    let backend = Arc::new(DedupStore::new(BS, StorageProfile::nfs_1gbe()));
    let cache = Arc::new(CachedStore::new(
        backend,
        CacheConfig {
            block_size: BS,
            capacity_blocks: 2048,
            ..CacheConfig::default()
        },
    ));
    let km = KeyManager::new();
    let zone = km.create_zone(1).expect("fresh key manager");
    let keys = km.fetch_zone_keys(zone).expect("zone just created");
    let config = LamassuConfig::default()
        .integrity(IntegrityMode::Full)
        .span(SpanConfig {
            policy: SpanPolicy::Batched,
            workers: 1,
            pool_blocks: None,
        });
    let fs = LamassuFs::new(cache.clone(), keys, config);
    let tracer = attach_tracer(&fs);

    let size = 1024 * 1024;
    let fd = populate(&fs, "/cached.dat", size);
    let mut buf = vec![0u8; 64 * 1024];
    let mut sweep = |fs: &LamassuFs| {
        let mut off = 0;
        while off + buf.len() <= size {
            let n = fs.read_into(fd, off as u64, &mut buf).expect("read");
            assert_eq!(n, buf.len());
            off += buf.len();
        }
    };
    sweep(&fs);
    sweep(&fs);

    let before_hits = cache.stats().hits;
    let allocs = allocs_during(|| {
        for _ in 0..8 {
            sweep(&fs);
        }
    });
    assert_eq!(allocs, 0, "warm cached re-read loop must not allocate");
    assert!(
        cache.stats().hits > before_hits,
        "the loop really was served by the cache"
    );
    assert!(
        tracer.ops() > 0,
        "the tracer must have spanned the cached reads"
    );
}
