//! Wide-kernel dispatch of the write path, on a default mount.
//!
//! One test in its own binary: `lamassu_crypto::stats` is process-global, so
//! any other test running in the same process would move the counters this
//! one reads.
//!
//! The commit pipeline derives and encrypts the whole pending set as one
//! batch and the crypto pool fans out in whole 16-block tiles, so neither a
//! 1 MiB write (256 blocks, split across the default pool's workers) nor an
//! `R`-block 4 KiB commit (8 blocks, inline) may fall back to the scalar
//! kernels: every data-block AES block goes through the wide fixsliced
//! kernel, and at least 94 % of key derivations through the 4-lane SHA-256
//! (only a tail of fewer than four blocks per share may run scalar).
//!
//! The read side's lone block is the case the v2 tree hash exists for: a
//! random 4 KiB read decrypts one block and re-derives one key for the §2.5
//! check, and under v2 both run on the wide kernels — the derivation's four
//! leaves fill the four SHA-256 lanes.

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
    assert!(derives >= 0.94, "1 MiB write: wide derive share {derives}");

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
    assert!(
        derives >= 0.94,
        "R-block commit: wide derive share {derives}"
    );

    let (aes, derives) = dispatch_shares(|| {
        let block = fs.read(fd, (100 * BS) as u64, BS).unwrap();
        assert_eq!(block, unique[100 * BS..101 * BS]);
    });
    assert_eq!(aes, 1.0, "lone 4 KiB read: decrypt on the wide kernel");
    assert_eq!(derives, 1.0, "lone 4 KiB read: integrity check on 4 lanes");
}
