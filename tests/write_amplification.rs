//! Backend traffic, as exact counts and virtual time.
//!
//! Every number here is a count of backend operations or bytes, or a store's
//! modelled transport time, fixed by a seeded schedule on one thread —
//! nothing is timed on the wall clock, so nothing can flake.
//!
//! The first case is the regression gate for what the commit trigger buys: a
//! file's write buffer commits when it holds a span of 256 blocks, so random
//! 4 KiB overwrites share their segments' commit rounds instead of paying two
//! metadata blocks each. With the trigger at `R` = 8 blocks the random pass
//! below writes about 2.1 bytes per user byte; it has to stay under 1.25.
//!
//! The next two pin what the span pipeline and the completion engine buy
//! for 1 MiB sequential I/O: whole runs per backend operation instead of one
//! block each, and a span's runs overlapping on a deep channel. The last
//! pins the same overlap for a write-back cache's flush through the retry
//! and routing tiers: its runs are submitted, so each member clock pays for
//! its k writes in ⌈k/8⌉ round trips instead of k.

use lamassu::cache::CacheConfig;
use lamassu::core::{
    EncFs, EncFsConfig, Fd, FileSystem, LamassuConfig, LamassuFs, PlainFs, SpanConfig,
};
use lamassu::dist::DistConfig;
use lamassu::keymgr::ZoneKeys;
use lamassu::stack::{Resilience, StackBuilder};
use lamassu::storage::{DedupStore, ObjectStore, StorageProfile};
use std::sync::Arc;
use std::time::Duration;

const BS: usize = 4096;
/// 2 MiB: five segments at the default geometry (118 blocks each).
const BLOCKS: usize = 512;
const KEYS: ZoneKeys = ZoneKeys {
    zone: 1,
    generation: 0,
    inner: [0x17; 32],
    outer: [0x71; 32],
};

fn block(version: u8, index: usize) -> Vec<u8> {
    (0..BS)
        .map(|i| version ^ (index as u8) ^ (index >> 8) as u8 ^ (i % 251) as u8)
        .collect()
}

/// A seeded permutation of `0..n` (xorshift Fisher–Yates).
fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    for i in 0..n {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        order.swap(i, i + (state % (n - i) as u64) as usize);
    }
    order
}

#[test]
fn four_kib_writes_pay_for_their_metadata_once_per_span() {
    let store = Arc::new(DedupStore::new(BS, StorageProfile::instant()));
    let fs = LamassuFs::new(store.clone(), KEYS, LamassuConfig::default());
    let user_bytes = (BLOCKS * BS) as u64;

    // Random order: one overwrite of every block of a populated file.
    let fd = fs.create("/random").unwrap();
    let image: Vec<u8> = (0..BLOCKS).flat_map(|b| block(1, b)).collect();
    for mib in image.chunks(1024 * 1024) {
        let at = fs.len(fd).unwrap();
        fs.write(fd, at, mib).unwrap();
    }
    fs.fsync(fd).unwrap();
    store.reset_io_accounting();
    for b in permutation(1, BLOCKS) {
        fs.write(fd, (b * BS) as u64, &block(2, b)).unwrap();
    }
    fs.fsync(fd).unwrap();
    let random = store.io_counters();
    // Two span commits. Each puts blocks into every one of the five
    // segments, one seal per round of R = 8, and leaves all five open: the
    // second commit's opening writes close the first's, and the `fsync`
    // closes the second's with one seal each.
    assert_eq!(
        (random.write_ops, random.bytes_written),
        RANDOM_PASS,
        "random 4 KiB overwrites: (backend writes, bytes written)"
    );
    let amplification = random.bytes_written as f64 / user_bytes as f64;
    assert!(
        amplification <= 1.25,
        "random 4 KiB overwrites wrote {amplification:.3} bytes per user byte"
    );
    fs.close(fd).unwrap();

    // Sequential order: 512 appends to a new file.
    let fd = fs.create("/sequential").unwrap();
    store.reset_io_accounting();
    for b in 0..BLOCKS {
        fs.write(fd, (b * BS) as u64, &block(3, b)).unwrap();
    }
    fs.fsync(fd).unwrap();
    let sequential = store.io_counters();
    // Two span commits of three segments each (118 + 118 + 20 blocks, then
    // 98 + 118 + 40), all of them fresh blocks: each segment's blocks are one
    // data write and one metadata write installs their keys, and the new
    // last segment's metadata block goes out first.
    assert_eq!(
        (sequential.write_ops, sequential.bytes_written),
        SEQUENTIAL_PASS,
        "sequential 4 KiB appends: (backend writes, bytes written)"
    );
    fs.close(fd).unwrap();

    // Both files are what was written, after a restart.
    drop(fs);
    let fs = LamassuFs::new(store, KEYS, LamassuConfig::default());
    for (path, version) in [("/random", 2), ("/sequential", 3)] {
        assert!(fs.verify(path).unwrap().is_clean(), "{path}");
        let fd = fs.open(path, Default::default()).unwrap();
        let back = fs.read(fd, 0, BLOCKS * BS).unwrap();
        assert!(
            back.chunks(BS)
                .enumerate()
                .all(|(b, got)| got == block(version, b)),
            "{path} read back wrong"
        );
    }
}

/// `(write_ops, bytes_written)` of the random pass: 285 data writes (adjacent
/// blocks of a round coalesce) and 73 metadata blocks, 1.143 bytes per user
/// byte. The metadata blocks are one per round of each segment in each commit
/// (68 rounds over both), plus the 5 the `fsync` writes to close the second
/// commit's segments. Closing every segment at the end of each commit wrote
/// 10 instead of those 5.
const RANDOM_PASS: (u64, u64) = (285 + 73, (512 + 73) * 4096);
/// `(write_ops, bytes_written)` of the sequential pass: every block is fresh,
/// so each commit is three phases — the first metadata write of the segment
/// its data makes the last one on the media (2, then 4), one data write per
/// segment (3), one metadata write per segment installing its keys (3) — 7
/// writes and 4 metadata blocks a commit. Nothing is left open, so the
/// `fsync` writes nothing. The §2.4 rounds of R = 8 wrote 137 and 71.
const SEQUENTIAL_PASS: (u64, u64) = (2 * (1 + 3 + 3), (512 + 2 * 4) * 4096);

/// One application I/O of the sequential cases: 1 MiB, a typical streaming
/// size, which the pipelines split into blocks or runs.
const APP_IO: usize = 1024 * 1024;
/// The sequential cases' file: 4 MiB, nine segments at the default geometry.
const SEQ_BYTES: usize = 4 * APP_IO;

/// The shim `name` over `store`, on the given span pipeline.
fn shim(name: &str, span: SpanConfig, store: Arc<dyn ObjectStore>) -> Box<dyn FileSystem> {
    match name {
        "LamassuFS" => Box::new(LamassuFs::new(
            store,
            KEYS,
            LamassuConfig {
                span,
                ..LamassuConfig::default()
            },
        )),
        "EncFS" => Box::new(EncFs::new(
            store,
            KEYS.outer,
            EncFsConfig {
                span,
                ..EncFsConfig::default()
            },
        )),
        "PlainFS" => Box::new(PlainFs::new(store)),
        _ => unreachable!("no shim {name}"),
    }
}

/// Writes `image` to a new file in 1 MiB I/Os, then fsyncs and closes it.
fn write_sequentially(fs: &dyn FileSystem, path: &str, image: &[u8]) {
    let fd = fs.create(path).unwrap();
    for (i, io) in image.chunks(APP_IO).enumerate() {
        fs.write(fd, (i * APP_IO) as u64, io).unwrap();
    }
    fs.fsync(fd).unwrap();
    fs.close(fd).unwrap();
}

/// Reads the whole file in 1 MiB I/Os through one buffer, checking every
/// byte against `image`.
fn read_sequentially(fs: &dyn FileSystem, fd: Fd, image: &[u8]) {
    let mut buf = vec![0u8; APP_IO];
    for (i, want) in image.chunks(APP_IO).enumerate() {
        let n = fs.read_into(fd, (i * APP_IO) as u64, &mut buf).unwrap();
        assert!(&buf[..n] == want, "1 MiB read {i} came back wrong");
    }
}

fn seq_image() -> Vec<u8> {
    (0..SEQ_BYTES / BS).flat_map(|b| block(4, b)).collect()
}

/// Backend `(read_ops, write_ops)`.
type Ops = (u64, u64);

/// Backend ops of a 4 MiB sequential write, then a sequential read-back, in
/// 1 MiB I/Os through `name` on `span` over the NFS profile, and the
/// read-back's modelled transport time.
fn sequential_round_trips(name: &str, span: SpanConfig) -> (Ops, Duration) {
    let store = Arc::new(DedupStore::new(BS, StorageProfile::nfs_1gbe()));
    let fs = shim(name, span, store.clone());
    let image = seq_image();
    write_sequentially(fs.as_ref(), "/seq", &image);
    let writes = store.io_counters().write_ops;
    let fd = fs.open("/seq", Default::default()).unwrap();
    store.reset_io_accounting();
    read_sequentially(fs.as_ref(), fd, &image);
    ((store.io_counters().read_ops, writes), store.io_time())
}

#[test]
fn sequential_spans_move_whole_runs_per_backend_op() {
    for (name, span_ops, per_block_ops) in SEQUENTIAL_ROUND_TRIPS {
        let (span, span_read) = sequential_round_trips(name, SpanConfig::default());
        let (per_block, per_block_read) = sequential_round_trips(name, SpanConfig::per_block());
        assert_eq!(span, span_ops, "{name} span pipeline: (reads, writes)");
        assert_eq!(
            per_block, per_block_ops,
            "{name} per-block pipeline: (reads, writes)"
        );
        assert!(
            span_read < per_block_read,
            "{name}: span read-back {span_read:?} vs per-block {per_block_read:?}"
        );
    }
    // The ratios the pinned counts must keep: a span read is one backend
    // read per segment run, not one per block, on both shims; a LamassuFS
    // commit folds adjacent data blocks into one write, and
    // EncFS's contiguous data blocks make a 1 MiB write one round trip.
    let [(_, (lam_r, lam_w), (lam_pb_r, lam_pb_w)), (_, (enc_r, enc_w), (enc_pb_r, enc_pb_w))] =
        SEQUENTIAL_ROUND_TRIPS;
    assert!(lam_r * 8 <= lam_pb_r && enc_r * 8 <= enc_pb_r);
    assert!(lam_w * 2 <= lam_pb_w && enc_w * 8 <= enc_pb_w);
}

/// `(shim, span pipeline, per-block pipeline)` backend ops of
/// [`sequential_round_trips`].
///
/// LamassuFS: both pipelines read the same 1031 blocks (1024 data, 7
/// metadata), one per operation or in 19 vectored runs. The span pipeline
/// writes 1041 blocks in 29 operations: the empty file's metadata block, and
/// per 1 MiB commit of fresh blocks over three segments one metadata write of
/// the new last segment (2, 4, 6, 8), three data runs and three metadata
/// writes installing the keys (4 × 7); nothing is left open for the `fsync`.
/// The per-block one writes 1289 (its smaller commits seal more metadata
/// blocks), one per operation. EncFS: one read or write per 1 MiB against
/// 256, plus two header writes (at create and at the fsync that grew the
/// file).
const SEQUENTIAL_ROUND_TRIPS: [(&str, Ops, Ops); 2] = [
    (
        "LamassuFS",
        (19, 1 + 4 * (1 + 3 + 3)),
        (1024 + 7, 1024 + 265),
    ),
    ("EncFS", (4, 4 + 2), (1024, 1024 + 2)),
];

/// Modelled transport time of a sequential 4 MiB read in 1 MiB I/Os through
/// `name` over the NFS profile at channel queue depth `depth`, after a
/// warm-up read of the first MiB.
fn sequential_read_io_time(name: &str, depth: usize) -> Duration {
    let profile = StorageProfile::nfs_1gbe().with_queue_depth(depth);
    let store = Arc::new(DedupStore::new(BS, profile));
    let fs = shim(name, SpanConfig::default(), store.clone());
    let image = seq_image();
    write_sequentially(fs.as_ref(), "/qd", &image);
    let fd = fs.open("/qd", Default::default()).unwrap();
    fs.read_into(fd, 0, &mut vec![0u8; APP_IO]).unwrap();
    store.reset_io_accounting();
    read_sequentially(fs.as_ref(), fd, &image);
    store.io_time()
}

#[test]
fn a_deep_channel_overlaps_a_spans_runs() {
    // Each 1 MiB LamassuFS read is several segment runs, all submitted
    // before any completion is drained: at depth 8 they share the channel.
    let lamassu = [1, 8].map(|d| sequential_read_io_time("LamassuFS", d));
    // PlainFS reads are one submission each, so depth cannot help them.
    let plain = [1, 8].map(|d| sequential_read_io_time("PlainFS", d));
    assert!(
        lamassu[1] * 2 <= lamassu[0],
        "LamassuFS at depth 8 {:?} vs depth 1 {:?}",
        lamassu[1],
        lamassu[0]
    );
    assert_eq!(plain[0], plain[1], "PlainFS is the flat control");
}

/// Data blocks the flush case overwrites: every seventh of the first four
/// segments' interior (positions 3, 10, …, 108 of 118), so each is a
/// write-back run of its own and none touches a metadata block.
fn scattered_blocks() -> impl Iterator<Item = usize> {
    (0..4).flat_map(|segment| (0..16).map(move |i| segment * 118 + 3 + 7 * i))
}

/// Member writes of the flush case's `fsync`, by member id: its 64 data
/// blocks and the 4 metadata blocks of their segments are 68 one-block
/// runs, each written to the 2 owners of its 64 KiB placement unit.
const FLUSH_MEMBER_WRITES: [u64; 3] = [55, 49, 32];

#[test]
fn a_write_back_flush_overlaps_its_member_writes_on_the_lanes() {
    // The benchmark's tiers: a write-back cache holding the whole file, over
    // retries, over a router at R = 2 across three NFS members.
    let nfs = StorageProfile::nfs_1gbe();
    let members: Vec<Arc<DedupStore>> =
        (0..3).map(|_| Arc::new(DedupStore::new(BS, nfs))).collect();
    let stack = StackBuilder::new(members)
        .dist(DistConfig::new(2).unit(64 * 1024))
        .resilience(Resilience::default())
        .cache(CacheConfig::write_back(4096))
        .mount(|store, profiler| {
            LamassuFs::with_profiler(store, KEYS, LamassuConfig::default(), profiler)
        });
    let fs = &stack.fs;
    let fd = fs.create("/flush").unwrap();
    let image: Vec<u8> = (0..BLOCKS).flat_map(|b| block(1, b)).collect();
    fs.write(fd, 0, &image).unwrap();
    fs.fsync(fd).unwrap();

    // The overwrites and their commit stay in the cache; the `fsync`'s flush
    // is the only member traffic, plus one `flush` call per member.
    for b in scattered_blocks() {
        fs.write(fd, (b * BS) as u64, &block(2, b)).unwrap();
    }
    let before: Vec<_> = stack
        .members
        .iter()
        .map(|m| (m.io_counters(), m.io_time()))
        .collect();
    fs.fsync(fd).unwrap();
    for (id, (member, (counters, time))) in stack.members.iter().zip(before).enumerate() {
        let now = member.io_counters();
        let k = now.write_ops - counters.write_ops;
        assert_eq!(k, FLUSH_MEMBER_WRITES[id], "member {id}: writes");
        assert_eq!(now.bytes_written - counters.bytes_written, k * BS as u64);
        assert_eq!(now.read_ops, counters.read_ops, "member {id}: reads");
        // All k submitted before the one barrier: eight lanes take them in
        // ⌈k/8⌉ rounds, where k blocking writes took k.
        let flush = nfs.write_cost(BS) * k.div_ceil(8) as u32;
        let flush_call = Duration::from_nanos(nfs.per_op_latency_ns);
        assert_eq!(
            member.io_time() - time,
            flush + flush_call,
            "member {id}: clock"
        );
    }
    let fd2 = fs.open("/flush", Default::default()).unwrap();
    for b in scattered_blocks() {
        assert!(
            fs.read(fd2, (b * BS) as u64, BS).unwrap() == block(2, b),
            "block {b}"
        );
    }
}
