//! Differential property tests for the completion-based I/O engine. Every
//! mount runs the one span-I/O driver; the oracle is a *store*, not a mount
//! option. Random workloads are replayed through a shim over a store with a
//! real submission queue and through the same shim over
//! [`Unqueued`](support::Unqueued) that store — whose submissions run the
//! blocking call and complete at once, in order — on all four shims. The two
//! must be observably identical: every read's plaintext, every reported
//! length, and the resulting stores byte-for-byte as deeply as each shim's
//! randomness allows (the same comparison depths as
//! `tests/prop_filesystem.rs` uses for span-vs-per-block).
//!
//! A second harness replays read workloads against `FaultyStore` with a
//! randomly drawn mid-span read crash: over the bare `FaultyStore` the
//! driver sees injected faults only through drained completions (released
//! newest-first, so ticket matching is forced), and must fail exactly where
//! the mount over `Unqueued<FaultyStore>` fails — and read back unharmed
//! data identically once disarmed.
//!
//! The last two tests mount the shims over a store that parks a completion
//! and never releases it. A read whose completion is lost must fail, not
//! hand back whatever the eager data movement left in the caller's buffer;
//! an `fsync` whose metadata or header write is never acknowledged must
//! fail too.

mod support;

use lamassu::core::{CeFileFs, EncFs, EncFsConfig, FileSystem, LamassuConfig, LamassuFs, PlainFs};
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
use support::Unqueued;

fn zone_keys() -> ZoneKeys {
    ZoneKeys {
        zone: 1,
        generation: 0,
        inner: [0x11; 32],
        outer: [0x22; 32],
    }
}

/// Builds one shim over the store it is given.
type Make = fn(Arc<dyn ObjectStore>) -> Box<dyn FileSystem>;

fn lamassu(store: Arc<dyn ObjectStore>) -> Box<dyn FileSystem> {
    Box::new(LamassuFs::new(store, zone_keys(), LamassuConfig::default()))
}

fn encfs(store: Arc<dyn ObjectStore>) -> Box<dyn FileSystem> {
    Box::new(EncFs::new(store, [9u8; 32], EncFsConfig::default()))
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

/// Replays one op sequence through a mount over a queued store and a mount
/// of the same shim over an [`Unqueued`] one, each with its own media,
/// requiring identical observable behaviour throughout and comparing the
/// resulting media as deeply as the shim's randomness allows. The queued
/// side is an unarmed `FaultyStore`, which parks every completion and
/// releases them newest-first, so a span of several runs (a read across a
/// segment boundary) only comes back right if the driver matches
/// completions to runs by ticket.
fn check_queued_vs_unqueued(make: Make, check: StoreCheck, ops: &[Op]) {
    let store_queued = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
    let store_unqueued = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
    let fs_queued = make(Arc::new(FaultyStore::new(store_queued.clone())));
    let fs_unqueued = make(Arc::new(Unqueued(store_unqueued.clone())));
    let fd_queued = fs_queued.create("/dual.bin").unwrap();
    let fd_unqueued = fs_unqueued.create("/dual.bin").unwrap();
    for op in ops {
        match op {
            Op::Write { offset, data } => {
                assert_eq!(
                    fs_queued.write(fd_queued, *offset, data).unwrap(),
                    fs_unqueued.write(fd_unqueued, *offset, data).unwrap()
                );
            }
            Op::Read { offset, len } => {
                assert_eq!(
                    fs_queued.read(fd_queued, *offset, *len).unwrap(),
                    fs_unqueued.read(fd_unqueued, *offset, *len).unwrap(),
                    "read at {offset}+{len} diverged between the queued and unqueued stores"
                );
            }
            Op::Truncate { size } => {
                fs_queued.truncate(fd_queued, *size).unwrap();
                fs_unqueued.truncate(fd_unqueued, *size).unwrap();
            }
            Op::Fsync => {
                fs_queued.fsync(fd_queued).unwrap();
                fs_unqueued.fsync(fd_unqueued).unwrap();
            }
        }
        assert_eq!(
            fs_queued.len(fd_queued).unwrap(),
            fs_unqueued.len(fd_unqueued).unwrap()
        );
    }
    let size = fs_queued.len(fd_queued).unwrap() as usize;
    assert_eq!(
        fs_queued.read(fd_queued, 0, size.max(1)).unwrap(),
        fs_unqueued.read(fd_unqueued, 0, size.max(1)).unwrap()
    );
    fs_queued.close(fd_queued).unwrap();
    fs_unqueued.close(fd_unqueued).unwrap();

    let len_queued = store_queued.len("/dual.bin").unwrap();
    let len_unqueued = store_unqueued.len("/dual.bin").unwrap();
    assert_eq!(len_queued, len_unqueued, "physical layouts diverged");
    if len_queued == 0 {
        return;
    }
    let bytes_queued = store_queued
        .read_at("/dual.bin", 0, len_queued as usize)
        .unwrap();
    let bytes_unqueued = store_unqueued
        .read_at("/dual.bin", 0, len_unqueued as usize)
        .unwrap();
    match check {
        StoreCheck::Exact => assert_eq!(bytes_queued, bytes_unqueued),
        StoreCheck::LamassuDataBlocks => {
            let seg_blocks = Geometry::default().segment_blocks() as u64;
            for (i, (a, b)) in bytes_queued
                .chunks(4096)
                .zip(bytes_unqueued.chunks(4096))
                .enumerate()
            {
                if (i as u64).is_multiple_of(seg_blocks) {
                    continue; // sealed metadata block: random nonce
                }
                assert_eq!(a, b, "data ciphertext diverged at physical block {i}");
            }
        }
        StoreCheck::CeFileBody => {
            assert_eq!(
                bytes_queued[4096..],
                bytes_unqueued[4096..],
                "bodies diverged"
            );
        }
        StoreCheck::LengthsOnly => {}
    }
}

/// Replays the same armed-fault read sequence through a mount of one shim
/// over a `FaultyStore` and one over an [`Unqueued`] `FaultyStore`, each
/// with its own media: the crash consumes read credits buffer-by-buffer in
/// submission order on both, so the two mounts must fail on exactly the
/// same reads — and, once disarmed, read back every unharmed byte
/// identically.
fn check_faulty_reads(
    make: Make,
    file_size: usize,
    crash_after_reads: u64,
    reads: &[(u64, usize)],
) {
    let faulty = || {
        let media = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        Arc::new(FaultyStore::new(media))
    };
    let (queued, unqueued) = (faulty(), faulty());
    let mounts: Vec<(Arc<FaultyStore>, Box<dyn FileSystem>)> = vec![
        (queued.clone(), make(queued)),
        (unqueued.clone(), make(Arc::new(Unqueued(unqueued)))),
    ];
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
                "fault divergence at read {offset}+{len}: queued {:?} vs unqueued {:?}",
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
    assert!(mounts[0].0.has_crashed(), "queued-side fault never fired");
    assert!(mounts[1].0.has_crashed(), "unqueued-side fault never fired");
    for (faulty, _) in &mounts {
        faulty.disarm();
    }
    let full: Vec<_> = mounts
        .iter()
        .zip(&fds)
        .map(|((_, fs), &fd)| fs.read(fd, 0, file_size).unwrap())
        .collect();
    assert_eq!(full[0], data, "queued mount lost data to a read fault");
    assert_eq!(full[1], data, "unqueued mount lost data to a read fault");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn lamassufs_async_and_blocking_pipelines_are_byte_identical(
        ops in prop::collection::vec(lamassu_op_strategy(40_000), 1..16)
    ) {
        check_queued_vs_unqueued(lamassu, StoreCheck::LamassuDataBlocks, &ops);
    }

    #[test]
    fn encfs_async_and_blocking_pipelines_agree(
        ops in prop::collection::vec(op_strategy(30_000), 1..16)
    ) {
        check_queued_vs_unqueued(encfs, StoreCheck::LengthsOnly, &ops);
    }

    #[test]
    fn cefilefs_async_and_blocking_pipelines_are_byte_identical(
        ops in prop::collection::vec(op_strategy(20_000), 1..12)
    ) {
        check_queued_vs_unqueued(
            |store| Box::new(CeFileFs::new(store, zone_keys(), 4096)),
            StoreCheck::CeFileBody,
            &ops,
        );
    }

    #[test]
    fn plainfs_async_and_blocking_pipelines_are_byte_identical(
        ops in prop::collection::vec(op_strategy(30_000), 1..16)
    ) {
        check_queued_vs_unqueued(|store| Box::new(PlainFs::new(store)), StoreCheck::Exact, &ops);
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
        for make in [lamassu as Make, encfs] {
            check_faulty_reads(make, 192 * 1024, crash_after, &reads);
        }
    }
}

/// A store whose submissions move their data eagerly, as the contract
/// allows, but whose completions are parked and never released while
/// `withhold` is set — a transport that lost the responses. What loses its
/// completion: every read, or with `metadata_writes` every write at a
/// LamassuFS metadata-block offset of the default geometry (offset 0 is
/// also an EncFS header).
struct LostCompletions {
    inner: DedupStore,
    withhold: AtomicBool,
    metadata_writes: bool,
}

impl LostCompletions {
    fn new(metadata_writes: bool) -> Arc<Self> {
        Arc::new(LostCompletions {
            inner: DedupStore::new(4096, StorageProfile::instant()),
            withhold: AtomicBool::new(false),
            metadata_writes,
        })
    }

    fn complete(
        &self,
        q: &mut SubmitQueue,
        lost: bool,
        result: lamassu::storage::Result<usize>,
    ) -> SubmitTicket {
        match lost && self.withhold.load(Ordering::SeqCst) {
            true => q.complete_deferred(result),
            false => q.complete_now(result),
        }
    }
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
        self.complete(q, !self.metadata_writes, result)
    }
    fn submit_write_vectored(
        &self,
        q: &mut SubmitQueue,
        name: &str,
        offset: u64,
        bufs: &[IoSlice<'_>],
    ) -> SubmitTicket {
        let result = self.inner.write_at_vectored(name, offset, bufs);
        let result = result.map(|()| bufs.iter().map(|b| b.len()).sum());
        let metadata = offset.is_multiple_of(Geometry::default().segment_bytes());
        self.complete(q, self.metadata_writes && metadata, result)
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
        let store = LostCompletions::new(false);
        let fs = match kind {
            "EncFS" => encfs(store.clone()),
            _ => lamassu(store.clone()),
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

/// Every metadata and header write goes through the span-I/O driver, so a
/// lost acknowledgement of one is an error wherever the shim issues it. Each
/// row creates a file with the transport healthy, then loses every metadata
/// acknowledgement from its write on, and its `fsync` must fail with
/// `StorageError::Backend`: the size write of a LamassuFS `fsync` after a
/// failed commit (the commit's own metadata phases were submitted all
/// along), every write of the per-block oracle, and an EncFS header.
#[test]
fn fsync_whose_metadata_write_is_never_acknowledged_fails() {
    let per_block = |store| -> Box<dyn FileSystem> {
        let config = LamassuConfig {
            span: lamassu::core::SpanConfig::per_block(),
            ..LamassuConfig::default()
        };
        Box::new(LamassuFs::new(store, zone_keys(), config))
    };
    let rows: [(&str, Make, usize); 3] = [
        (
            "LamassuFS, the size write after a failed commit",
            lamassu,
            2,
        ),
        ("LamassuFS per-block oracle", per_block, 1),
        ("EncFS header", encfs, 1),
    ];
    for (row, make, fsyncs) in rows {
        let store = LostCompletions::new(true);
        let fs = make(store.clone());
        let fd = fs.create("/meta.bin").unwrap();
        store.withhold.store(true, Ordering::SeqCst);
        fs.write(fd, 0, &[7u8; 3 * 4096]).unwrap();
        for _ in 0..fsyncs {
            let got = fs.fsync(fd);
            assert!(
                matches!(
                    got,
                    Err(lamassu::core::FsError::Storage(
                        lamassu::storage::StorageError::Backend { .. }
                    ))
                ),
                "{row}: fsync returned {got:?}"
            );
        }
    }
}
