//! Differential property tests for the completion-based I/O engine: random
//! workloads replayed through the async pipeline (`IoMode::Async`, the
//! default) and the blocking oracle (`IoMode::Blocking`) on all four shims
//! must be observably identical — every read's plaintext, every reported
//! length, and the resulting stores byte-for-byte as deeply as each shim's
//! randomness allows (the same comparison depths as
//! `tests/prop_filesystem.rs` uses for span-vs-per-block).
//!
//! A second harness replays read workloads against `FaultyStore` with a
//! randomly drawn mid-span read crash: the async engine surfaces injected
//! faults only through drained completions (released newest-first, so
//! ticket matching is forced), and must fail exactly where the blocking
//! oracle fails — and read back unharmed data identically once disarmed.
//!
//! A last test mounts the async shims over a store that parks a read's
//! completion and never releases it: the read must fail, not hand back
//! whatever the eager data movement left in the caller's buffer.

use lamassu::core::{
    CeFileFs, EncFs, EncFsConfig, FileSystem, IoMode, LamassuConfig, LamassuFs, PlainFs,
    SpanConfig, SpanPolicy,
};
use lamassu::format::Geometry;
use lamassu::keymgr::ZoneKeys;
use lamassu::storage::{
    Completion, DedupStore, FaultyStore, IoCounters, ObjectStore, StorageProfile, SubmitQueue,
    SubmitTicket,
};
use proptest::prelude::*;
use std::io::{IoSlice, IoSliceMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn zone_keys() -> ZoneKeys {
    ZoneKeys {
        zone: 1,
        generation: 0,
        inner: [0x11; 32],
        outer: [0x22; 32],
    }
}

fn span(io: IoMode) -> SpanConfig {
    SpanConfig {
        policy: SpanPolicy::Batched,
        io,
        ..SpanConfig::default()
    }
}

/// One step of the differential workload.
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

/// [`op_strategy`] plus, one op in seven, a write that straddles the first
/// segment boundary of the default geometry with more than `R` blocks on
/// each side (aligned or not): a multi-segment flush with several rounds per
/// segment — the shape the commit pipeline merges metadata writes and
/// batches crypto across. The payload is synthesized from one seed byte so
/// the large writes stay cheap to generate and shrink.
fn lamassu_op_strategy(max_file: u64) -> impl Strategy<Value = Op> {
    let g = Geometry::default();
    let (bs, r) = (g.block_size() as u64, g.reserved_slots() as u64);
    let boundary = g.keys_per_metadata_block() as u64 * bs;
    let side = (r + 1) * bs..4 * r * bs;
    prop_oneof![
        6 => op_strategy(max_file),
        1 => (side.clone(), side, any::<u8>()).prop_map(move |(before, after, seed)| Op::Write {
            offset: boundary - before,
            data: (0..before + after)
                .map(|i| seed ^ (i / 509) as u8 ^ (i as u8).wrapping_mul(29))
                .collect(),
        }),
    ]
}

/// How deeply two same-workload stores may be compared, given each shim's
/// use of randomness (see `tests/prop_filesystem.rs`).
enum StoreCheck {
    /// Every object byte-for-byte (PlainFS).
    Exact,
    /// Data blocks byte-for-byte, sealed metadata blocks skipped (LamassuFS).
    LamassuDataBlocks,
    /// Body bytes past the header block (CeFileFS).
    CeFileBody,
    /// Object lengths only (EncFS: per-mount random file keys).
    LengthsOnly,
}

/// Replays one op sequence through an async mount and a blocking-oracle
/// mount of the same shim over separate stores, requiring identical
/// observable behaviour throughout and comparing the resulting stores as
/// deeply as the shim's randomness allows.
fn check_async_vs_blocking(
    make: impl Fn(Arc<DedupStore>, IoMode) -> Box<dyn FileSystem>,
    check: StoreCheck,
    ops: &[Op],
) {
    let store_async = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
    let store_block = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
    let fs_async = make(store_async.clone(), IoMode::Async);
    let fs_block = make(store_block.clone(), IoMode::Blocking);
    let fd_async = fs_async.create("/dual.bin").unwrap();
    let fd_block = fs_block.create("/dual.bin").unwrap();
    for op in ops {
        match op {
            Op::Write { offset, data } => {
                assert_eq!(
                    fs_async.write(fd_async, *offset, data).unwrap(),
                    fs_block.write(fd_block, *offset, data).unwrap()
                );
            }
            Op::Read { offset, len } => {
                assert_eq!(
                    fs_async.read(fd_async, *offset, *len).unwrap(),
                    fs_block.read(fd_block, *offset, *len).unwrap(),
                    "read at {offset}+{len} diverged between async and blocking"
                );
            }
            Op::Truncate { size } => {
                fs_async.truncate(fd_async, *size).unwrap();
                fs_block.truncate(fd_block, *size).unwrap();
            }
            Op::Fsync => {
                fs_async.fsync(fd_async).unwrap();
                fs_block.fsync(fd_block).unwrap();
            }
        }
        assert_eq!(
            fs_async.len(fd_async).unwrap(),
            fs_block.len(fd_block).unwrap()
        );
    }
    let size = fs_async.len(fd_async).unwrap() as usize;
    assert_eq!(
        fs_async.read(fd_async, 0, size.max(1)).unwrap(),
        fs_block.read(fd_block, 0, size.max(1)).unwrap()
    );
    fs_async.close(fd_async).unwrap();
    fs_block.close(fd_block).unwrap();

    let len_async = store_async.len("/dual.bin").unwrap();
    let len_block = store_block.len("/dual.bin").unwrap();
    assert_eq!(len_async, len_block, "physical layouts diverged");
    if len_async == 0 {
        return;
    }
    let bytes_async = store_async
        .read_at("/dual.bin", 0, len_async as usize)
        .unwrap();
    let bytes_block = store_block
        .read_at("/dual.bin", 0, len_block as usize)
        .unwrap();
    match check {
        StoreCheck::Exact => assert_eq!(bytes_async, bytes_block),
        StoreCheck::LamassuDataBlocks => {
            let seg_blocks = Geometry::default().segment_blocks() as u64;
            for (i, (a, b)) in bytes_async
                .chunks(4096)
                .zip(bytes_block.chunks(4096))
                .enumerate()
            {
                if (i as u64).is_multiple_of(seg_blocks) {
                    continue; // sealed metadata block: random nonce
                }
                assert_eq!(a, b, "data ciphertext diverged at physical block {i}");
            }
        }
        StoreCheck::CeFileBody => {
            assert_eq!(bytes_async[4096..], bytes_block[4096..], "bodies diverged");
        }
        StoreCheck::LengthsOnly => {}
    }
}

/// Replays the same armed-fault read sequence through an async and a
/// blocking mount of one shim, each over its own `FaultyStore`: the crash
/// consumes read credits buffer-by-buffer in submission order on both
/// paths, so the two mounts must fail on exactly the same reads — and,
/// once disarmed, read back every unharmed byte identically.
fn check_faulty_reads(
    make: impl Fn(Arc<FaultyStore>, IoMode) -> Box<dyn FileSystem>,
    file_size: usize,
    crash_after_reads: u64,
    reads: &[(u64, usize)],
) {
    let mounts: Vec<(Arc<FaultyStore>, Box<dyn FileSystem>)> = [IoMode::Async, IoMode::Blocking]
        .into_iter()
        .map(|io| {
            let media = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
            let faulty = Arc::new(FaultyStore::new(media));
            (faulty.clone(), make(faulty, io))
        })
        .collect();
    let data: Vec<u8> = (0..file_size).map(|i| (i % 251) as u8).collect();
    let fds: Vec<_> = mounts
        .iter()
        .map(|(_, fs)| {
            let fd = fs.create("/faulty.bin").unwrap();
            fs.write(fd, 0, &data).unwrap();
            fs.fsync(fd).unwrap();
            fd
        })
        .collect();

    for (faulty, _) in &mounts {
        faulty.crash_after_reads(crash_after_reads);
    }
    let compare_read = |offset: u64, len: usize| {
        let results: Vec<_> = mounts
            .iter()
            .zip(&fds)
            .map(|((_, fs), &fd)| fs.read(fd, offset, len))
            .collect();
        match (&results[0], &results[1]) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "read at {offset}+{len} diverged"),
            (Err(_), Err(_)) => {}
            (a, b) => panic!(
                "fault divergence at read {offset}+{len}: async {:?} vs blocking {:?}",
                a.as_ref().map(|v| v.len()),
                b.as_ref().map(|v| v.len()),
            ),
        }
    };
    for &(offset, len) in reads {
        compare_read(offset, len);
    }
    // Credits are consumed per scatter buffer (not per block), so the drawn
    // workload alone may not reach the crash point. Drive whole-file reads —
    // each costs at least one credit — until the fault has fired on both
    // mounts; both must keep failing identically from then on.
    for _ in 0..=crash_after_reads {
        if mounts.iter().all(|(faulty, _)| faulty.has_crashed()) {
            break;
        }
        compare_read(0, file_size);
    }

    // The injected crash must actually have fired somewhere (the harness is
    // parameterized so it always can), and the media underneath is unharmed:
    // disarmed, both pipelines read every byte back identically.
    assert!(mounts[0].0.has_crashed(), "async-side fault never fired");
    assert!(mounts[1].0.has_crashed(), "blocking-side fault never fired");
    for (faulty, _) in &mounts {
        faulty.disarm();
    }
    let full: Vec<_> = mounts
        .iter()
        .zip(&fds)
        .map(|((_, fs), &fd)| fs.read(fd, 0, file_size).unwrap())
        .collect();
    assert_eq!(full[0], data, "async mount lost data to a read fault");
    assert_eq!(full[1], data, "blocking mount lost data to a read fault");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn lamassufs_async_and_blocking_pipelines_are_byte_identical(
        ops in prop::collection::vec(lamassu_op_strategy(40_000), 1..16)
    ) {
        check_async_vs_blocking(
            |store, io| Box::new(LamassuFs::new(
                store,
                zone_keys(),
                LamassuConfig::default().span(span(io)),
            )),
            StoreCheck::LamassuDataBlocks,
            &ops,
        );
    }

    #[test]
    fn encfs_async_and_blocking_pipelines_agree(
        ops in prop::collection::vec(op_strategy(30_000), 1..16)
    ) {
        check_async_vs_blocking(
            |store, io| Box::new(EncFs::new(
                store,
                [9u8; 32],
                EncFsConfig { span: span(io), ..EncFsConfig::default() },
            )),
            StoreCheck::LengthsOnly,
            &ops,
        );
    }

    #[test]
    fn cefilefs_async_and_blocking_pipelines_are_byte_identical(
        ops in prop::collection::vec(op_strategy(20_000), 1..12)
    ) {
        check_async_vs_blocking(
            |store, io| Box::new(CeFileFs::with_config(store, zone_keys(), 4096, span(io))),
            StoreCheck::CeFileBody,
            &ops,
        );
    }

    #[test]
    fn plainfs_async_and_blocking_pipelines_are_byte_identical(
        ops in prop::collection::vec(op_strategy(30_000), 1..16)
    ) {
        check_async_vs_blocking(
            |store, io| Box::new(PlainFs::with_io(store, io)),
            StoreCheck::Exact,
            &ops,
        );
    }

    #[test]
    fn faulty_partial_span_reads_fail_identically(
        crash_after in 0u64..40,
        reads in prop::collection::vec((0u64..200_000, 1usize..150_000), 2..8)
    ) {
        // 192 KiB file: large enough that span reads carry several scatter
        // buffers, so a low crash point fires *mid-span* with earlier
        // buffers already filled — the partial-span failure the async
        // completion loop must surface without consuming partial data.
        check_faulty_reads(
            |store, io| Box::new(LamassuFs::new(
                store,
                zone_keys(),
                LamassuConfig::default().span(span(io)),
            )),
            192 * 1024,
            crash_after,
            &reads,
        );
        check_faulty_reads(
            |store, io| Box::new(EncFs::new(
                store,
                [9u8; 32],
                EncFsConfig { span: span(io), ..EncFsConfig::default() },
            )),
            192 * 1024,
            crash_after,
            &reads,
        );
    }
}

/// A store whose submitted reads move their data eagerly, as the contract
/// allows, but whose completions are parked and never released while
/// `withhold` is set — a transport that lost the responses.
struct LostCompletions {
    inner: DedupStore,
    withhold: AtomicBool,
}

impl ObjectStore for LostCompletions {
    fn submit_read_vectored(
        &self,
        q: &mut SubmitQueue,
        name: &str,
        offset: u64,
        bufs: &mut [IoSliceMut<'_>],
    ) -> SubmitTicket {
        let result = self.inner.read_into_vectored(name, offset, bufs);
        if self.withhold.load(Ordering::SeqCst) {
            q.complete_deferred(result)
        } else {
            q.complete_now(result)
        }
    }
    fn wait_completions(&self, q: &mut SubmitQueue, out: &mut Vec<Completion>) {
        q.drain_ready(out); // parked completions stay parked
    }

    fn create(&self, name: &str) -> lamassu::storage::Result<()> {
        self.inner.create(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
    fn read_into_vectored(
        &self,
        name: &str,
        offset: u64,
        bufs: &mut [IoSliceMut<'_>],
    ) -> lamassu::storage::Result<usize> {
        self.inner.read_into_vectored(name, offset, bufs)
    }
    fn write_at_vectored(
        &self,
        name: &str,
        offset: u64,
        bufs: &[IoSlice<'_>],
    ) -> lamassu::storage::Result<()> {
        self.inner.write_at_vectored(name, offset, bufs)
    }
    fn len(&self, name: &str) -> lamassu::storage::Result<u64> {
        self.inner.len(name)
    }
    fn truncate(&self, name: &str, len: u64) -> lamassu::storage::Result<()> {
        self.inner.truncate(name, len)
    }
    fn remove(&self, name: &str) -> lamassu::storage::Result<()> {
        self.inner.remove(name)
    }
    fn rename(&self, from: &str, to: &str) -> lamassu::storage::Result<()> {
        self.inner.rename(from, to)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
    fn flush(&self, name: &str) -> lamassu::storage::Result<()> {
        self.inner.flush(name)
    }
    fn io_time(&self) -> Duration {
        self.inner.io_time()
    }
    fn io_counters(&self) -> IoCounters {
        self.inner.io_counters()
    }
    fn reset_io_accounting(&self) {
        self.inner.reset_io_accounting()
    }
}

/// A read whose completion never arrives must fail. (Before the span-I/O
/// driver, a release build returned `Ok` here with the undecrypted
/// ciphertext in the caller's buffer; a debug build hit a `debug_assert`.)
#[test]
fn read_whose_completion_is_lost_fails_instead_of_returning_ciphertext() {
    for kind in ["LamassuFS", "EncFS"] {
        let store = Arc::new(LostCompletions {
            inner: DedupStore::new(4096, StorageProfile::instant()),
            withhold: AtomicBool::new(false),
        });
        let fs: Box<dyn FileSystem> = match kind {
            "EncFS" => Box::new(EncFs::new(store.clone(), [9u8; 32], EncFsConfig::default())),
            _ => Box::new(LamassuFs::new(
                store.clone(),
                zone_keys(),
                LamassuConfig::default(),
            )),
        };
        let data: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
        let fd = fs.create("/lost.bin").unwrap();
        fs.write(fd, 0, &data).unwrap();
        fs.fsync(fd).unwrap();

        store.withhold.store(true, Ordering::SeqCst);
        for (offset, len) in [(0, data.len()), (100, 9000), (8192, 4096)] {
            let got = fs.read(fd, offset, len).map(|bytes| bytes.len());
            assert!(got.is_err(), "{kind}: read {offset}+{len} returned {got:?}");
        }
        // Nothing of the abandoned reads lingers: the transport is back, and
        // so is every byte.
        store.withhold.store(false, Ordering::SeqCst);
        assert_eq!(fs.read(fd, 0, data.len()).unwrap(), data, "{kind}");
    }
}
