//! The write path's backend traffic, as exact counts.
//!
//! Every number here is a count of backend operations or bytes on an instant
//! in-memory store, fixed by a seeded schedule — nothing is timed, so nothing
//! can flake. It is the regression gate for what the commit trigger buys: a
//! file's write buffer commits when it holds a span of 256 blocks, so random
//! 4 KiB overwrites share their segments' commit rounds instead of paying two
//! metadata blocks each. With the trigger at `R` = 8 blocks the random pass
//! below writes about 2.1 bytes per user byte; it has to stay under 1.25.

use lamassu::core::{FileSystem, LamassuConfig, LamassuFs};
use lamassu::keymgr::ZoneKeys;
use lamassu::storage::{DedupStore, ObjectStore, StorageProfile};
use std::sync::Arc;

const BS: usize = 4096;
/// 2 MiB: five segments at the default geometry (118 blocks each).
const BLOCKS: usize = 512;

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
    let keys = ZoneKeys {
        zone: 1,
        generation: 0,
        inner: [0x17; 32],
        outer: [0x71; 32],
    };
    let fs = LamassuFs::new(store.clone(), keys, LamassuConfig::default());
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
    // Two span commits. Each puts about 51 blocks into every one of the five
    // segments — seven rounds of R = 8, one seal more than rounds.
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
    // 98 + 118 + 40): every round of eight adjacent blocks is one data write.
    assert_eq!(
        (sequential.write_ops, sequential.bytes_written),
        SEQUENTIAL_PASS,
        "sequential 4 KiB appends: (backend writes, bytes written)"
    );
    fs.close(fd).unwrap();

    // Both files are what was written, after a restart.
    drop(fs);
    let fs = LamassuFs::new(store, keys, LamassuConfig::default());
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
/// blocks of a round coalesce) and 78 metadata blocks, 1.152 bytes per user
/// byte.
const RANDOM_PASS: (u64, u64) = (285 + 78, (512 + 78) * 4096);
/// `(write_ops, bytes_written)` of the sequential pass: per commit 15 + 15 + 3
/// and 13 + 15 + 5 data writes, and one metadata write more than rounds in
/// each segment (36 + 36).
const SEQUENTIAL_PASS: (u64, u64) = (66 + 72, (512 + 72) * 4096);
