//! Wide-kernel dispatch of the write path, on a default mount.
//!
//! One test in its own binary: `lamassu_crypto::stats` is process-global, so
//! any other test running in the same process would move the counters this
//! one reads.
//!
//! The commit pipeline derives and encrypts the whole pending set as one
//! batch and the crypto pool fans out in whole 16-block tiles, so neither a
//! 1 MiB write (256 blocks, split across the default pool's workers), an
//! `R`-block 4 KiB commit (8 blocks, inline) nor a 20-block commit (one
//! paired pass: a whole tile and a partial one) may fall back to the scalar
//! kernels: every data-block AES block goes through the wide fixsliced
//! kernel, and every key derivation through the lane SHA-256 kernels: under
//! format v2 a group of any width, a lone block included, runs on lanes.
//!
//! The read side's lone block is the case the v2 tree hash exists for: a
//! random 4 KiB read decrypts one block and re-derives one key for the §2.5
//! check, and under v2 both run on the wide kernels — the derivation's four
//! leaves fill the four SHA-256 lanes. Once the read memo holds the block, a
//! re-read runs no kernel at all.
//!
//! A span commit encrypts only the blocks the memo cannot give it the
//! ciphertext of, as one compacted group. The kernel pairs a partial tile
//! with a whole one, so a half-duplicate 1 MiB commit encrypts every block
//! it encrypts on the wide kernel with no filler chains.

use lamassu::core::{FileSystem, LamassuConfig, LamassuFs};
use lamassu::crypto::stats;
use lamassu::keymgr::ZoneKeys;
use lamassu::storage::{DedupStore, StorageProfile};
use std::sync::Arc;

const BS: usize = 4096;

/// `(wide AES share, wide derive share)` of the work done by `op`.
fn dispatch_shares(op: impl FnOnce()) -> (f64, f64) {
    let (wb0, sb0, wd0, sd0) = stats::snapshot();
    op();
    let (wb1, sb1, wd1, sd1) = stats::snapshot();
    let (wb, sb, wd, sd) = (wb1 - wb0, sb1 - sb0, wd1 - wd0, sd1 - sd0);
    assert!(wb + sb > 0 && wd + sd > 0, "the op ran no crypto at all");
    (wb as f64 / (wb + sb) as f64, wd as f64 / (wd + sd) as f64)
}

#[test]
fn default_mount_writes_run_on_the_wide_kernels() {
    let store = Arc::new(DedupStore::new(BS, StorageProfile::instant()));
    let keys = ZoneKeys {
        zone: 1,
        generation: 0,
        inner: [0x3c; 32],
        outer: [0x5a; 32],
    };
    let config = LamassuConfig::default();
    let r = config.geometry.reserved_slots();
    let fs = LamassuFs::new(store, keys, config);
    let fd = fs.create("/wide").unwrap();
    let unique: Vec<u8> = (0..1024 * 1024)
        .map(|i| (i / BS * 31 + i % 251) as u8)
        .collect();

    let (aes, derives) = dispatch_shares(|| {
        fs.write(fd, 0, &unique).unwrap();
        fs.fsync(fd).unwrap();
    });
    assert_eq!(aes, 1.0, "1 MiB write: every AES block on the wide kernel");
    assert_eq!(derives, 1.0, "1 MiB write: every derivation on lanes");

    let (aes, derives) = dispatch_shares(|| {
        for b in 0..r {
            // Reversed, so the blocks differ from the ones they replace.
            let block: Vec<u8> = unique[b * BS..(b + 1) * BS].iter().rev().copied().collect();
            fs.write(fd, (b * BS) as u64, &block).unwrap();
        }
        fs.fsync(fd).unwrap();
    });
    assert_eq!(
        aes, 1.0,
        "R-block commit: every AES block on the wide kernel"
    );
    assert_eq!(derives, 1.0, "R-block commit: every derivation on lanes");

    // 20 blocks forced out by an fsync: one commit of 20 chains, inline.
    let seals = fs.profiler().commit_stats().seals;
    let (wb0, sb0, _, _) = stats::snapshot();
    let (aes, derives) = dispatch_shares(|| {
        for b in 0..20 {
            let block: Vec<u8> = unique[b * BS..(b + 1) * BS].iter().map(|x| !x).collect();
            fs.write(fd, (b * BS) as u64, &block).unwrap();
        }
        fs.fsync(fd).unwrap();
    });
    let (wb1, sb1, _, _) = stats::snapshot();
    assert_eq!(
        aes, 1.0,
        "20-block commit: every AES block on the wide kernel"
    );
    assert_eq!(derives, 1.0, "20-block commit: every derivation on lanes");
    // Each metadata seal is 255 AES blocks: 254 of CTR and the tag mask.
    let seals = fs.profiler().commit_stats().seals - seals;
    assert_eq!(
        (wb1 - wb0 - 255 * seals, sb1 - sb0),
        ((20 * BS / 16) as u64, 0),
        "the 20 blocks, nothing else"
    );

    // The first two reads of a block miss the read memo (the second admits
    // it); from the third on it is a copy that runs no kernel at all.
    let read_block_100 = || {
        let block = fs.read(fd, (100 * BS) as u64, BS).unwrap();
        assert_eq!(block, unique[100 * BS..101 * BS]);
    };
    for _ in 0..2 {
        let (aes, derives) = dispatch_shares(read_block_100);
        assert_eq!(aes, 1.0, "lone 4 KiB read: decrypt on the wide kernel");
        assert_eq!(derives, 1.0, "lone 4 KiB read: integrity check on 4 lanes");
    }
    let (before, hits) = (stats::snapshot(), fs.memo_stats().hits);
    read_block_100();
    assert_eq!(stats::snapshot(), before, "a memo hit runs no kernel");
    assert_eq!(fs.memo_stats().hits, hits + 1);

    // 125 contents, each written twice: the second copy of each is a
    // duplicate, admitted to the memo once the commit lands.
    let content = |n: usize| -> Vec<u8> {
        let mut block: Vec<u8> = (0..BS).map(|i| (i % 253) as u8 ^ 0xd5).collect();
        block[..8].copy_from_slice(&(n as u64).to_le_bytes());
        block
    };
    let twice: Vec<u8> = (0..125)
        .flat_map(|n| [content(n), content(n)])
        .flatten()
        .collect();
    fs.write(fd, 1 << 21, &twice).unwrap();
    fs.fsync(fd).unwrap();
    // A half-duplicate 1 MiB commit: those 125 contents take their
    // ciphertext from the memo, and the 131 new ones are encrypted as one
    // group, its partial tile of 3 blocks paired with a whole one.
    let span: Vec<u8> = (0..125).chain(1000..1131).flat_map(content).collect();
    let commit_hits = fs.memo_stats().commit_hits;
    let seals = fs.profiler().commit_stats().seals;
    let (wb0, sb0, _, _) = stats::snapshot();
    let (aes, derives) = dispatch_shares(|| {
        fs.write(fd, 3 << 20, &span).unwrap();
        fs.fsync(fd).unwrap();
    });
    let (wb1, sb1, _, _) = stats::snapshot();
    assert_eq!(fs.memo_stats().commit_hits - commit_hits, 125);
    assert_eq!(
        aes, 1.0,
        "half-duplicate commit: every AES block on the wide kernel"
    );
    assert_eq!(
        derives, 1.0,
        "half-duplicate commit: every derivation on lanes"
    );
    let seals = fs.profiler().commit_stats().seals - seals;
    assert_eq!(
        (wb1 - wb0 - 255 * seals, sb1 - sb0),
        ((131 * BS / 16) as u64, 0),
        "the 131 new blocks, no fillers, nothing else"
    );
    assert_eq!(fs.read(fd, 3 << 20, span.len()).unwrap(), span);
}
