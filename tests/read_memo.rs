//! The read memo's exactness gate.
//!
//! A LamassuFS mount under full integrity serves a block whose key,
//! ciphertext and format version it has already verified from a bounded
//! memo instead of decrypting and re-deriving it again, and a span commit
//! takes the ciphertext of a block whose key and plaintext the memo holds
//! from it instead of encrypting it. That is only sound if a hit returns
//! exactly what the full path would have returned, so this file holds the
//! memo to a mount without one over the same bytes:
//!
//! * exact hit / miss / admission counts on a deterministic duplicate image
//!   written once and read three times, with backend traffic — and the data
//!   blocks the write leaves on the store — identical to a mount that has no
//!   memo (a hit saves crypto, never an I/O);
//! * backend lies against a warm mount — a bit flip in a memoized block,
//!   read-admitted or commit-admitted, a rollback to an older memoized
//!   ciphertext, swaps of memoized blocks within a file and across files —
//!   each return exactly what a fresh mount over the same bytes returns: the
//!   same bytes, or the same `IntegrityViolation` at the same block;
//! * a format-v1 file and a v2 file holding equal plaintext never serve each
//!   other's entries.

use lamassu::core::{FileSystem, FsError, IntegrityMode, LamassuConfig, LamassuFs, MemoStats};
use lamassu::crypto::kdf::HashVersion;
use lamassu::format::Geometry;
use lamassu::keymgr::ZoneKeys;
use lamassu::storage::{DedupStore, DirStore, ObjectStore, StorageProfile};
use std::path::Path;
use std::sync::Arc;

const BS: usize = 4096;
const KEYS: ZoneKeys = ZoneKeys {
    zone: 3,
    generation: 0,
    inner: [0x4b; 32],
    outer: [0xb4; 32],
};

fn store() -> Arc<DedupStore> {
    Arc::new(DedupStore::new(BS, StorageProfile::instant()))
}

fn mount(store: &Arc<DedupStore>, integrity: IntegrityMode) -> LamassuFs {
    let config = LamassuConfig::default().integrity(integrity);
    LamassuFs::new(store.clone(), KEYS, config)
}

/// A 4 KiB block of content family `family`, number `n`: distinct for
/// every distinct pair.
fn content(family: u8, n: usize) -> Vec<u8> {
    let mut block: Vec<u8> = (0..BS).map(|i| (i % 251) as u8 ^ family).collect();
    block[..8].copy_from_slice(&(n as u64).to_le_bytes());
    block[8] = family;
    block
}

fn write_file(fs: &LamassuFs, path: &str, data: &[u8]) {
    let fd = fs.create(path).unwrap();
    fs.write(fd, 0, data).unwrap();
    fs.close(fd).unwrap();
}

/// `(hits, misses, read admissions, commit admissions)`; the tests below
/// never evict.
fn counts(s: MemoStats) -> (u64, u64, u64, u64) {
    assert_eq!(s.evictions, 0);
    (s.hits, s.misses, s.read_admissions, s.commit_admissions)
}

#[test]
fn a_duplicate_image_read_three_times_hits_exactly_as_counted() {
    // Sixteen-block reads, four of them: `d` blocks repeat, `u` blocks do
    // not (until the next pass).
    //   A = d0..d7  u0..u7     B = d0..d7 u8..u15
    //   C = d0..d7  d8..d15    D = d8..d15 u16..u23
    // The write is one commit of the 64 blocks, looked up before any is in
    // the memo: no commit hit. Each key's first copy is its first written
    // sighting; d0..d7 in B and d8..d15 in D are second ones, duplicates
    // admitted once the commit lands (C's d0..d7 find theirs held): 16
    // commit admissions.
    // Pass 1: every d hits (40, C's sixteen included); u0..u23 miss on
    // their first read sighting: 40 hits, 24 misses.
    // Pass 2: every d hits again; u0..u23 miss on their second sighting and
    // are admitted after their batch passes §2.5: 40 hits, 24 misses, 24
    // read admissions.
    // Pass 3: 64 hits.
    let d = |n| content(0xd0, n);
    let u = |n| content(0x01, n);
    let reads: [Vec<Vec<u8>>; 4] = [
        (0..8).map(d).chain((0..8).map(u)).collect(),
        (0..8).map(d).chain((8..16).map(u)).collect(),
        (0..16).map(d).collect(),
        (8..16).map(d).chain((16..24).map(u)).collect(),
    ];
    let image: Vec<u8> = reads.iter().flatten().flatten().copied().collect();
    let blocks = image.len() / BS;
    assert!(
        Geometry::default().keys_per_metadata_block() >= blocks,
        "one segment"
    );

    // The image written through a mount onto a store of its own, then read
    // in three passes of 64 KiB reads: the memo counts after the write and
    // after each pass, the backend counters, and the store.
    let write_and_read = |integrity| {
        let store = store();
        let fs = mount(&store, integrity);
        write_file(&fs, "/dup", &image);
        let mut stats = vec![counts(fs.memo_stats())];
        assert_eq!(fs.memo_stats().commit_hits, 0);
        let written = store.io_counters();
        let fd = fs.open("/dup", Default::default()).unwrap();
        for _ in 0..3 {
            for (i, want) in reads.iter().enumerate() {
                let got = fs.read(fd, (i * 16 * BS) as u64, 16 * BS).unwrap();
                assert!(got == want.concat(), "read {i}");
            }
            stats.push(counts(fs.memo_stats()));
        }
        fs.close(fd).unwrap();
        let read = store.io_counters();
        let data: Vec<Vec<u8>> = (0..blocks as u64)
            .map(|b| data_block(&store, "/dup", b))
            .collect();
        let traffic = (
            written.write_ops,
            written.bytes_written,
            read.read_ops - written.read_ops,
            read.bytes_read - written.bytes_read,
        );
        (stats, traffic, data)
    };

    let (stats, traffic, data) = write_and_read(IntegrityMode::Full);
    assert_eq!(
        stats,
        [
            (0, 0, 0, 16),
            (40, 24, 0, 16),
            (80, 48, 24, 16),
            (144, 48, 24, 16)
        ],
        "(hits, misses, read admissions, commit admissions) after the write and each pass"
    );
    // A mount with no memo writes the same data blocks with the same
    // operations, and reads them back with the same operations.
    let (cold, cold_traffic, cold_data) = write_and_read(IntegrityMode::MetaOnly);
    assert_eq!(cold, [(0, 0, 0, 0); 4], "meta-only mounts have no memo");
    assert_eq!(traffic, cold_traffic);
    assert!(data == cold_data, "the stores hold different data blocks");
    assert_eq!(
        traffic.2,
        1 + 3 * 4,
        "one metadata read, one per 64 KiB read"
    );
}

/// Two files of 24 blocks: `/a` repeats eight `a` blocks three times, `/b`
/// repeats eight `b` blocks three times.
fn two_files(fs: &LamassuFs) {
    for (path, family) in [("/a", 0xa0), ("/b", 0xb0)] {
        let data: Vec<u8> = (0..24).flat_map(|n| content(family, n % 8)).collect();
        write_file(fs, path, &data);
    }
}

/// Every read a client might make of `path`: each 4 KiB block alone, the
/// whole file at once, and the whole file from half a block in (so that
/// both edges stage).
fn outcomes(fs: &LamassuFs, path: &str) -> Vec<Result<Vec<u8>, FsError>> {
    let fd = fs.open(path, Default::default()).unwrap();
    let len = fs.len(fd).unwrap() as usize;
    let mut out: Vec<_> = (0..len / BS)
        .map(|b| fs.read(fd, (b * BS) as u64, BS))
        .collect();
    out.push(fs.read(fd, 0, len));
    out.push(fs.read(fd, (BS / 2) as u64, len - BS));
    fs.close(fd).unwrap();
    out
}

fn offset(block: u64) -> u64 {
    Geometry::default().locate_block(block).physical_offset
}

fn data_block(store: &DedupStore, path: &str, block: u64) -> Vec<u8> {
    store.read_at(path, offset(block), BS).unwrap()
}

fn put_block(store: &DedupStore, path: &str, block: u64, bytes: &[u8]) {
    store.write_at(path, offset(block), bytes).unwrap();
}

/// Builds two files, warms a mount until every one of their blocks is
/// memoized, lets `lie` change the store behind it (given the warm mount,
/// for the lies that need a rewrite through it first), and checks the warm
/// mount answers every read exactly as a fresh one over the same bytes
/// ([`compare_with_fresh`]).
fn lie_and_compare(lie: impl FnOnce(&DedupStore, &LamassuFs)) -> [Vec<u64>; 2] {
    let store = store();
    let warm = mount(&store, IntegrityMode::Full);
    two_files(&warm);
    for _ in 0..3 {
        for path in ["/a", "/b"] {
            assert!(outcomes(&warm, path).iter().all(Result::is_ok));
        }
    }
    let before = warm.memo_stats();
    for path in ["/a", "/b"] {
        outcomes(&warm, path);
    }
    let after = warm.memo_stats();
    assert_eq!(after.misses, before.misses, "every block is memoized");

    lie(&store, &warm);
    compare_with_fresh(&store, &warm)
}

/// Checks `warm` answers every read of `/a` and `/b` exactly as a fresh
/// mount over `store` does. Returns, for each file, the block each failing
/// read of [`outcomes`] named.
fn compare_with_fresh(store: &Arc<DedupStore>, warm: &LamassuFs) -> [Vec<u64>; 2] {
    let fresh = mount(store, IntegrityMode::Full);
    ["/a", "/b"].map(|path| {
        let got = outcomes(warm, path);
        assert!(
            got == outcomes(&fresh, path),
            "{path}: warm and fresh disagree"
        );
        got.iter()
            .filter_map(|r| match r {
                Err(FsError::IntegrityViolation { logical_block, .. }) => Some(*logical_block),
                Err(e) => panic!("{path}: {e}"),
                Ok(_) => None,
            })
            .collect()
    })
}

#[test]
fn a_flipped_bit_in_a_memoized_block_fails_as_on_a_fresh_mount() {
    let got = lie_and_compare(|store, _| {
        for block in [0, 9] {
            let mut bytes = data_block(store, "/a", block);
            bytes[BS - 1] ^= 0x10;
            put_block(store, "/a", block, &bytes);
        }
    });
    // Per-block reads of 0 and 9, the whole file (0 first), the misaligned
    // read (0 is its staged head).
    assert_eq!(got, [vec![0, 9, 0, 0], vec![]]);
}

#[test]
fn a_flipped_bit_in_a_commit_admitted_block_fails_as_on_a_fresh_mount() {
    let store = store();
    let warm = mount(&store, IntegrityMode::Full);
    two_files(&warm);
    // Each file writes eight contents three times: all sixteen are
    // duplicates, admitted by the commits before any read.
    assert_eq!(counts(warm.memo_stats()), (0, 0, 0, 16));
    for block in [0, 9] {
        let mut bytes = data_block(&store, "/a", block);
        bytes[BS - 1] ^= 0x10;
        put_block(&store, "/a", block, &bytes);
    }
    let got = compare_with_fresh(&store, &warm);
    assert_eq!(got, [vec![0, 9, 0, 0], vec![]]);
    assert!(
        warm.memo_stats().hits > 0,
        "the warm mount used the entries"
    );
}

#[test]
fn a_rollback_to_an_older_memoized_ciphertext_fails_as_on_a_fresh_mount() {
    let got = lie_and_compare(|store, warm| {
        // Block 12 holds a4, memoized. Rewrite it through the warm mount —
        // the new block is admitted at commit, since it overwrites a
        // memoized one — then put a4's ciphertext back under the new key.
        let old = data_block(store, "/a", 12);
        let fd = warm.open("/a", Default::default()).unwrap();
        warm.write(fd, (12 * BS) as u64, &content(0xa0, 99))
            .unwrap();
        warm.close(fd).unwrap();
        assert_ne!(data_block(store, "/a", 12), old);
        put_block(store, "/a", 12, &old);
    });
    assert_eq!(got, [vec![12, 12, 12], vec![]]);
}

#[test]
fn swapped_memoized_blocks_fail_as_on_a_fresh_mount() {
    // Within one file: a1 and a6 trade places.
    let got = lie_and_compare(|store, _| {
        let (x, y) = (data_block(store, "/a", 1), data_block(store, "/a", 14));
        put_block(store, "/a", 1, &y);
        put_block(store, "/a", 14, &x);
    });
    assert_eq!(got, [vec![1, 14, 1, 1], vec![]]);

    // Across files: /a's block 3 (a3) and /b's block 20 (b4).
    let got = lie_and_compare(|store, _| {
        let (x, y) = (data_block(store, "/a", 3), data_block(store, "/b", 20));
        put_block(store, "/a", 3, &y);
        put_block(store, "/b", 20, &x);
    });
    assert_eq!(got, [vec![3, 3, 3], vec![20, 20, 20]]);
}

#[test]
fn v1_and_v2_files_with_equal_plaintext_never_cross_hit() {
    // The format-v1 fixture (1 KiB blocks, R = 2: see format_v1_compat.rs):
    // blocks 0..5 (3 repeats 0), 30..33 and the first 300 bytes of 57 of
    // `/v1.dat` are keyed, eight distinct contents in nine blocks.
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1-store");
    let dir = std::env::temp_dir().join(format!("lamassu-memo-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let fixture_keys = ZoneKeys {
        zone: 9,
        generation: 0,
        inner: [0x1d; 32],
        outer: [0xe7; 32],
    };
    let config = LamassuConfig {
        geometry: Geometry::new(1024, 2).unwrap(),
        ..LamassuConfig::default()
    };
    let store = Arc::new(DirStore::open(&dir, StorageProfile::instant()).unwrap());
    let fs = LamassuFs::new(store, fixture_keys, config);

    let read_all = |path: &str| {
        let fd = fs.open(path, Default::default()).unwrap();
        let len = fs.len(fd).unwrap() as usize;
        let data = fs.read(fd, 0, len).unwrap();
        fs.close(fd).unwrap();
        data
    };
    let v1 = read_all("/v1.dat");
    // The same plaintext in a new (v2) file, keyed in the same blocks.
    let fd = fs.create("/v2.dat").unwrap();
    for blocks in [0..5, 30..33, 57..58] {
        let range = blocks.start * 1024..(blocks.end * 1024).min(v1.len());
        fs.write(fd, range.start as u64, &v1[range]).unwrap();
    }
    fs.close(fd).unwrap();
    assert_eq!(fs.format_version("/v1.dat").unwrap(), HashVersion::V1);
    assert_eq!(fs.format_version("/v2.dat").unwrap(), HashVersion::V2);

    // Writing `/v2.dat` was one commit of nine blocks; block 3 repeats block
    // 0, a duplicate admitted once it landed.
    assert_eq!(counts(fs.memo_stats()), (0, 9, 1, 1));
    // Two more v1 passes: block 3 hits from pass 2 on, the rest from pass 3.
    for _ in 0..2 {
        assert_eq!(read_all("/v1.dat"), v1);
    }
    assert_eq!(counts(fs.memo_stats()), (11, 16, 8, 1));
    // The v2 file's first pass finds none of the v1 entries: only blocks 0
    // and 3 hit, on the entry its own commit admitted.
    assert_eq!(read_all("/v2.dat"), v1);
    assert_eq!(counts(fs.memo_stats()), (13, 23, 8, 1));
    // Its other entries come the same way the v1 file's did, and serve only
    // it: two more v2 passes, then one v1 pass that hits all nine.
    for _ in 0..2 {
        assert_eq!(read_all("/v2.dat"), v1);
    }
    assert_eq!(counts(fs.memo_stats()), (24, 30, 15, 1));
    assert_eq!(read_all("/v1.dat"), v1);
    assert_eq!(counts(fs.memo_stats()), (33, 30, 15, 1));
    std::fs::remove_dir_all(dir).unwrap();
}
