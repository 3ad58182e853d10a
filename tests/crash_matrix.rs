//! Crash-injection matrix: cut power at *every* backend write index of a
//! multi-segment workload and check that recovery always yields a consistent
//! file — every block reads back as either its old or its new contents, never
//! garbage, and the post-recovery integrity verification is clean.

use lamassu::cache::{CacheConfig, CacheMode, CachedStore};
use lamassu::core::{FileSystem, LamassuConfig, LamassuFs, OpenFlags};
use lamassu::dist::{DistConfig, Granularity, RoutedStore};
use lamassu::keymgr::ZoneKeys;
use lamassu::resilience::BreakerConfig;
use lamassu::stack::{Resilience, StackBuilder};
use lamassu::storage::{DedupStore, FaultyStore, ObjectStore, StorageError, StorageProfile};
use std::sync::Arc;

fn keys() -> ZoneKeys {
    ZoneKeys {
        zone: 1,
        generation: 0,
        inner: [0xa1; 32],
        outer: [0xb2; 32],
    }
}

fn pattern(version: u8, block: usize) -> Vec<u8> {
    let mut b = vec![0u8; 4096];
    for (i, x) in b.iter_mut().enumerate() {
        *x = version ^ (block as u8) ^ (i % 251) as u8;
    }
    b
}

/// Builds a base file of `blocks` blocks (version 1) on fresh media at R = 2.
fn build_base(blocks: usize) -> Arc<DedupStore> {
    build_base_at(2, blocks)
}

/// Runs the overwrite workload against a faulty store that dies after
/// `crash_after` writes; returns whether the workload got to finish.
fn overwrite_with_crash(media: Arc<DedupStore>, blocks: usize, crash_after: u64) -> bool {
    let faulty = Arc::new(FaultyStore::new(media));
    faulty.crash_after_writes(crash_after);
    let fs = LamassuFs::new(
        faulty,
        keys(),
        LamassuConfig::with_reserved_slots(2).unwrap(),
    );
    let run = || -> lamassu::core::Result<()> {
        let fd = fs.open("/file", OpenFlags::default())?;
        // Overwrite every other block with version 2, spanning segments.
        for b in (0..blocks).step_by(2) {
            fs.write(fd, (b * 4096) as u64, &pattern(2, b))?;
        }
        fs.fsync(fd)?;
        fs.close(fd)?;
        Ok(())
    };
    run().is_ok()
}

#[test]
fn every_crash_point_recovers_to_a_consistent_state() {
    // Small geometry knobs keep the matrix quick: 2 reserved slots, a file
    // that spans two segments at R=2 would need >236 blocks, so instead use
    // enough blocks to exercise several commit batches.
    let blocks = 24;
    // First find out how many backend writes the full overwrite issues.
    let media = build_base(blocks);
    let before = media.io_counters().write_ops;
    assert!(overwrite_with_crash(media.clone(), blocks, u64::MAX));
    let total_writes = media.io_counters().write_ops - before;
    assert!(total_writes > 10, "workload too small to be interesting");

    for crash_after in 0..total_writes {
        let media = build_base(blocks);
        let finished = overwrite_with_crash(media.clone(), blocks, crash_after);
        assert!(
            !finished || crash_after >= total_writes,
            "crash point {crash_after} did not fire"
        );

        // Reboot: recover on the surviving media and check consistency.
        let fs = LamassuFs::new(
            media,
            keys(),
            LamassuConfig::with_reserved_slots(2).unwrap(),
        );
        fs.recover("/file")
            .unwrap_or_else(|e| panic!("recovery failed at crash point {crash_after}: {e}"));
        let report = fs.verify("/file").unwrap();
        assert!(
            report.is_clean(),
            "integrity failure after crash at write {crash_after}: {report:?}"
        );
        let fd = fs.open("/file", OpenFlags::default()).unwrap();
        let mut assembled = Vec::with_capacity(blocks * 4096);
        for b in 0..blocks {
            let got = fs.read(fd, (b * 4096) as u64, 4096).unwrap();
            if got.is_empty() {
                panic!("block {b} vanished after crash at write {crash_after}");
            }
            let old = pattern(1, b);
            let new = pattern(2, b);
            assert!(
                got == old || got == new,
                "block {b} is neither old nor new after crash at write {crash_after}"
            );
            if b % 2 == 1 {
                assert_eq!(got, old, "untouched block {b} must keep version 1");
            }
            assembled.extend_from_slice(&got);
        }
        // The recovered file must read identically through the batched span
        // path (whole file, one multi-run read) — recovery consistency is
        // not allowed to depend on the read pipeline.
        let whole = fs.read(fd, 0, blocks * 4096).unwrap();
        assert_eq!(
            whole, assembled,
            "span read diverged from per-block reads after crash at write {crash_after}"
        );
    }
}

/// Builds a base file of `blocks` version-1 blocks on fresh media at
/// reserved-slot count `r`, with one large write.
fn build_base_at(r: usize, blocks: usize) -> Arc<DedupStore> {
    let media = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
    let fs = LamassuFs::new(
        media.clone(),
        keys(),
        LamassuConfig::with_reserved_slots(r).unwrap(),
    );
    let fd = fs.create("/file").unwrap();
    let image: Vec<u8> = (0..blocks).flat_map(|b| pattern(1, b)).collect();
    fs.write(fd, 0, &image).unwrap();
    fs.close(fd).unwrap();
    media
}

/// Cuts power at every `step`-th backend write boundary of `update` — which
/// rewrites exactly the blocks in `touched` to version 2 in a
/// `base_blocks`-block version-1 file, growing it if `touched` reaches past
/// its end — and checks the §2.4 guarantees after each: recovery
/// succeeds, verification is clean with no segment left mid-update, the file
/// is as long as it was or as long as the update makes it, every touched
/// block is old or new (the old contents of an appended block being a
/// hole), every other block is intact, and a whole-file span read equals the
/// per-block reads. `expect_writes` pins the number of backend writes the
/// update issues, i.e. the shape of the commit pipeline. `pinned(crash_after,
/// block)` narrows "old or new" where the caller knows more: `Some(version)`
/// is the only version the block may read back as after that crash. Returns
/// the most segments any single crash left mid-update.
fn enumerate_crash_points(
    r: usize,
    base_blocks: usize,
    touched: &[usize],
    expect_writes: u64,
    step: usize,
    update: impl Fn(&LamassuFs) -> lamassu::core::Result<()>,
    pinned: impl Fn(u64, usize) -> Option<u8>,
) -> u64 {
    let config = LamassuConfig::with_reserved_slots(r).unwrap();
    let run = |media: Arc<DedupStore>, crash_after: u64| -> bool {
        let faulty = Arc::new(FaultyStore::new(media));
        faulty.crash_after_writes(crash_after);
        update(&LamassuFs::new(faulty, keys(), config)).is_ok()
    };
    // The base file is built once; every run starts from a byte copy of it.
    let base = build_base_at(r, base_blocks);
    let base_bytes = base
        .read_at("/file", 0, base.len("/file").unwrap() as usize)
        .unwrap();
    let fresh_media = || {
        let media = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        media.create("/file").unwrap();
        media.write_at("/file", 0, &base_bytes).unwrap();
        media
    };
    let media = fresh_media();
    let before = media.io_counters().write_ops;
    assert!(run(media.clone(), u64::MAX));
    assert_eq!(media.io_counters().write_ops - before, expect_writes);
    let final_blocks = touched.iter().fold(base_blocks, |n, b| n.max(b + 1));
    let image = |version| -> Vec<u8> {
        (0..final_blocks)
            .flat_map(|b| pattern(version, b))
            .collect()
    };
    let images = [image(1), image(2)];
    let expected = |version: u8, b: usize| &images[version as usize - 1][b * 4096..(b + 1) * 4096];

    let mut most_mid_update = 0;
    for crash_after in (0..expect_writes).step_by(step) {
        let media = fresh_media();
        assert!(
            !run(media.clone(), crash_after),
            "crash point {crash_after} did not fire"
        );
        let fs = LamassuFs::new(media, keys(), config);
        let recovered = fs
            .recover("/file")
            .unwrap_or_else(|e| panic!("recovery failed at crash point {crash_after}: {e}"));
        most_mid_update = most_mid_update.max(recovered.segments_repaired);
        let report = fs.verify("/file").unwrap();
        assert!(
            report.is_clean() && report.mid_update_segments == 0,
            "after crash at write {crash_after}: {report:?}"
        );
        let fd = fs.open("/file", OpenFlags::default()).unwrap();
        let blocks = fs.len(fd).unwrap() as usize / 4096;
        assert!(
            blocks == base_blocks || blocks == final_blocks,
            "{blocks} blocks long after crash at write {crash_after}"
        );
        let whole = fs.read(fd, 0, blocks * 4096).unwrap();
        assert_eq!(whole.len(), blocks * 4096);
        for (b, got) in whole.chunks(4096).enumerate() {
            let is_old = if b < base_blocks {
                got == expected(1, b)
            } else {
                got.iter().all(|&x| x == 0)
            };
            let is_new = touched.contains(&b) && got == expected(2, b);
            assert!(
                is_old || is_new,
                "block {b} is neither old nor new after crash at write {crash_after}"
            );
            if let Some(version) = pinned(crash_after, b) {
                assert!(
                    got == expected(version, b),
                    "block {b} must be version {version} after crash at write {crash_after}"
                );
            }
            assert!(
                got == fs.read(fd, (b * 4096) as u64, 4096).unwrap(),
                "span read diverged from the read of block {b} after crash at write {crash_after}"
            );
        }
    }
    most_mid_update
}

/// One write of version-2 blocks `blocks`, then `fsync` and `close`.
fn write_run(fs: &LamassuFs, blocks: std::ops::Range<usize>) -> lamassu::core::Result<()> {
    let fd = fs.open("/file", OpenFlags::default())?;
    let image: Vec<u8> = blocks.clone().flat_map(|b| pattern(2, b)).collect();
    fs.write(fd, (blocks.start * 4096) as u64, &image)?;
    fs.fsync(fd)?;
    fs.close(fd)
}

/// One single-block write of version 2 per entry of `blocks`, in that order,
/// with an `fsync` after the first `sync_after` of them, then `fsync` and
/// `close`.
fn write_blocks(fs: &LamassuFs, blocks: &[usize], sync_after: usize) -> lamassu::core::Result<()> {
    let fd = fs.open("/file", OpenFlags::default())?;
    for (i, &b) in blocks.iter().enumerate() {
        fs.write(fd, (b * 4096) as u64, &pattern(2, b))?;
        if i + 1 == sync_after {
            fs.fsync(fd)?;
        }
    }
    fs.fsync(fd)?;
    fs.close(fd)
}

/// `n` distinct values below `below` in a seeded pseudo-random order.
fn seeded_sample(seed: u64, below: usize, n: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..below).collect();
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    for i in 0..n {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        all.swap(i, i + (state % (below - i) as u64) as usize);
    }
    all.truncate(n);
    all
}

#[test]
fn every_crash_point_of_a_multi_round_multi_segment_commit_recovers() {
    // R = 2 gives N = 124 blocks per segment. One write of blocks 121..=128
    // puts three blocks in segment 0 (two rounds) and five in segment 1
    // (three rounds), so the flush runs merged metadata rounds with the two
    // segments out of step: metadata 2 + data 2, merged metadata 2 + data 2,
    // metadata 2 (segment 0 closing, segment 1 merged) + data 1, closing
    // metadata 1 — 12 writes where the unmerged protocol would issue 15.
    let touched: Vec<usize> = (121..129).collect();
    let most_mid_update = enumerate_crash_points(
        2,
        130,
        &touched,
        12,
        1,
        |fs| write_run(fs, 121..129),
        |_, _| None,
    );
    assert_eq!(most_mid_update, 2, "both segments mid-update at one crash");
}

#[test]
fn every_crash_point_with_four_segments_mid_update_at_once_recovers() {
    // Four single-block writes into four distinct segments, committed by one
    // flush (the `fsync`: four blocks are far short of the span that makes a
    // write commit on its own), so all four segments are mid-update together:
    // 4 metadata + 4 data + 4 metadata writes behind three barriers. R = 4
    // (N = 122) is just the geometry of this file; one block per segment is
    // one round whatever R is.
    let touched = [5usize, 122 + 7, 2 * 122 + 9, 3 * 122 + 1];
    let most_mid_update = enumerate_crash_points(
        4,
        3 * 122 + 6,
        &touched,
        12,
        1,
        |fs| write_blocks(fs, &touched, usize::MAX),
        |_, _| None,
    );
    assert_eq!(
        most_mid_update, 4,
        "all four segments mid-update at one crash"
    );
}

// From here on the matrices run at the default geometry: R = 8, N = 118 blocks
// per segment, and a write buffer that commits on its own only once it holds
// a span of 256 blocks.

/// Backend writes of the many-segment flush below: 32 opening metadata writes,
/// 64 data writes (no two touched blocks are adjacent), 32 closing.
const MANY_SEGMENT_WRITES: u64 = 32 + 64 + 32;

#[test]
fn sampled_crash_points_of_one_flush_over_many_segments_recover() {
    // What random 4 KiB writes do to a large file: 64 single-block overwrites
    // in seeded random order, two at seeded slots of each of a 32-segment
    // file's segments, all acknowledged into the write buffer and committed
    // by one flush. Every segment opens its one round in the same phase, so
    // for the whole data phase all 32 are mid-update at once: 32 metadata
    // writes, the data writes, 32 metadata writes. Sampled at every third
    // write boundary (each point rebuilds and rereads a 14 MiB file).
    const SEGMENTS: usize = 32;
    let base_blocks = (SEGMENTS - 1) * 118 + 20;
    // Two distinct even slots per segment: never adjacent, so never one write.
    let in_order: Vec<usize> = (0..SEGMENTS)
        .flat_map(|seg| {
            let even_slots = if seg + 1 == SEGMENTS { 10 } else { 59 };
            seeded_sample(seg as u64 + 1, even_slots, 2)
                .into_iter()
                .map(move |slot| seg * 118 + 2 * slot)
        })
        .collect();
    let touched: Vec<usize> = seeded_sample(7, in_order.len(), in_order.len())
        .into_iter()
        .map(|i| in_order[i])
        .collect();
    let most_mid_update = enumerate_crash_points(
        8,
        base_blocks,
        &touched,
        MANY_SEGMENT_WRITES,
        3,
        |fs| write_blocks(fs, &touched, usize::MAX),
        |_, _| None,
    );
    assert_eq!(
        most_mid_update, SEGMENTS as u64,
        "every segment mid-update at one crash"
    );
}

#[test]
fn sampled_crash_points_across_three_span_commits_keep_what_was_committed() {
    // 650 single-block overwrites of a 6-segment file in seeded random
    // order: the first 50 followed by an `fsync`, then 600 more — the write
    // buffer commits on its own when the 256th and the 512th of them fill the
    // span, and the closing `fsync` commits the last 88. Four commits, one
    // after the other on the media. Wherever the power fails: the blocks of
    // a commit that completed — the fsynced one above all — read back new,
    // the blocks of the commit the crash interrupted read back old or new,
    // and the blocks of a commit that had not started read back old.
    const BLOCKS: usize = 6 * 118;
    const SYNCED: usize = 50;
    let order = seeded_sample(3, BLOCKS, SYNCED + 600);
    let commit_of = |block: usize| {
        let i = order.iter().position(|&b| b == block)?;
        Some(if i < SYNCED {
            0
        } else {
            1 + (i - SYNCED) / 256
        })
    };

    // Where each commit ends, in backend writes, from a run that records the
    // store's write count after every user call.
    let media = build_base_at(8, BLOCKS);
    let before = media.io_counters().write_ops;
    let fs = LamassuFs::new(media.clone(), keys(), LamassuConfig::default());
    let fd = fs.open("/file", OpenFlags::default()).unwrap();
    let mut ends: Vec<u64> = Vec::new();
    let note = |ends: &mut Vec<u64>| {
        let n = media.io_counters().write_ops - before;
        if n > 0 && ends.last() != Some(&n) {
            ends.push(n);
        }
    };
    for (i, &b) in order.iter().enumerate() {
        fs.write(fd, (b * 4096) as u64, &pattern(2, b)).unwrap();
        note(&mut ends);
        if i + 1 == SYNCED {
            fs.fsync(fd).unwrap();
            note(&mut ends);
        }
    }
    fs.fsync(fd).unwrap();
    note(&mut ends);
    assert_eq!(
        ends.len(),
        4,
        "an fsync, two span commits, an fsync: {ends:?}"
    );

    enumerate_crash_points(
        8,
        BLOCKS,
        &order,
        ends[3],
        23,
        |fs| write_blocks(fs, &order, SYNCED),
        |crash_after, block| {
            let commit = commit_of(block)?;
            let start = if commit == 0 { 0 } else { ends[commit - 1] };
            if crash_after >= ends[commit] {
                Some(2)
            } else if crash_after <= start {
                Some(1)
            } else {
                None
            }
        },
    );
}

#[test]
fn a_power_cut_loses_the_unsynced_buffer_and_nothing_else() {
    // A write is acknowledged into the file's buffer, reaches the store when
    // the span fills, and is durable after `fsync`. 40 blocks written and
    // fsynced, then 300 more written and acknowledged: 256 of those filled a
    // span and were committed, 44 are still buffered when the client dies
    // (the mount is dropped, not closed). After the restart the 40 and the
    // 256 are new and the 44 are old — nothing half-way, nothing to repair.
    const BLOCKS: usize = 6 * 118;
    let order = seeded_sample(5, BLOCKS, 340);
    let media = build_base_at(8, BLOCKS);
    {
        let fs = LamassuFs::new(media.clone(), keys(), LamassuConfig::default());
        let fd = fs.open("/file", OpenFlags::default()).unwrap();
        for (i, &b) in order.iter().enumerate() {
            fs.write(fd, (b * 4096) as u64, &pattern(2, b)).unwrap();
            if i + 1 == 40 {
                fs.fsync(fd).unwrap();
            }
        }
        // Every one of them reads back new while the mount lives.
        let last = order[339];
        assert_eq!(
            fs.read(fd, (last * 4096) as u64, 4096).unwrap(),
            pattern(2, last)
        );
    }
    let fs = LamassuFs::new(media, keys(), LamassuConfig::default());
    assert_eq!(fs.recover("/file").unwrap().segments_repaired, 0);
    let report = fs.verify("/file").unwrap();
    assert!(report.is_clean() && report.mid_update_segments == 0);
    let fd = fs.open("/file", OpenFlags::default()).unwrap();
    for b in 0..BLOCKS {
        let version = match order.iter().position(|&x| x == b) {
            Some(i) if i < 40 + 256 => 2,
            _ => 1,
        };
        assert!(
            fs.read(fd, (b * 4096) as u64, 4096).unwrap() == pattern(version, b),
            "block {b} must be version {version} after the power cut"
        );
    }
}

// The two append matrices run on a 116-block file. The logical size is read
// from the last segment present on the media, and a growing write makes a new segment the last one as soon as
// its first metadata write lands — so every metadata block the pipeline
// writes carries the new size, and at no crash point may the file read back
// shorter than it was. Appended blocks that never landed read as holes.

#[test]
fn every_crash_point_of_an_append_across_segments_keeps_the_old_file_visible() {
    // To 240 blocks: two blocks finish segment 0, 118 fill segment 1 (15
    // rounds) and four start segment 2, the new final segment. Metadata
    // writes 2 + 16 + 2, data writes 1 + 15 + 1.
    let touched: Vec<usize> = (116..240).collect();
    enumerate_crash_points(
        8,
        116,
        &touched,
        37,
        1,
        |fs| write_run(fs, 116..240),
        |_, _| None,
    );
}

#[test]
fn sampled_crash_points_of_a_multi_batch_append_keep_the_old_file_visible() {
    // To 640 blocks: 524 pending blocks are three crypto batches (256 + 256
    // + 12, issuing 72 + 69 + 5 writes), and the first never touches the
    // final segment (5) — the last segment on the media is whichever one the
    // running batch has reached. Sampled: what matters is which batch the
    // crash lands in, not which of its rounds.
    let touched: Vec<usize> = (116..640).collect();
    enumerate_crash_points(
        8,
        116,
        &touched,
        146,
        5,
        |fs| write_run(fs, 116..640),
        |_, _| None,
    );
}

#[test]
fn read_fault_mid_span_surfaces_and_reread_succeeds() {
    // Inject a read fault into the middle of a vectored span read: the
    // batched pipeline must surface the error without serving any of the
    // partially fetched span, and a fresh mount over the surviving media
    // must read everything back clean through the span path.
    let blocks = 24usize;
    let media = build_base(blocks);
    let faulty = Arc::new(FaultyStore::new(media.clone()));
    let fs = LamassuFs::new(
        faulty.clone(),
        keys(),
        LamassuConfig::with_reserved_slots(2).unwrap(),
    );
    let fd = fs.open("/file", OpenFlags::default()).unwrap();
    // An unaligned whole-file read: the span splits into a staged head edge
    // plus a direct middle, so the armed vectored read de-vectorizes into
    // several credit-consuming units and dies mid-span.
    faulty.crash_after_reads(1);
    let mut buf = vec![0u8; blocks * 4096];
    let err = fs.read_into(fd, 100, &mut buf);
    assert!(err.is_err(), "mid-span read fault must surface");
    assert!(faulty.has_crashed());

    // "Reboot": a fresh client over the surviving media sees version 1
    // everywhere, via one whole-file span read.
    let fs2 = LamassuFs::new(
        media,
        keys(),
        LamassuConfig::with_reserved_slots(2).unwrap(),
    );
    assert!(fs2.verify("/file").unwrap().is_clean());
    let fd2 = fs2.open("/file", OpenFlags::default()).unwrap();
    let whole = fs2.read(fd2, 0, blocks * 4096).unwrap();
    for b in 0..blocks {
        assert_eq!(
            &whole[b * 4096..(b + 1) * 4096],
            &pattern(1, b)[..],
            "block {b} corrupted by the aborted span read"
        );
    }
}

#[test]
fn partial_span_read_failure_is_never_served_from_partial_data() {
    // Arm the fault so the vectored read fills some buffers then dies; the
    // shim must not return a short or mixed result — the whole operation
    // fails, and after disarming the same read returns correct data.
    let blocks = 24usize;
    let media = build_base(blocks);
    let faulty = Arc::new(FaultyStore::new(media));
    let fs = LamassuFs::new(
        faulty.clone(),
        keys(),
        LamassuConfig::with_reserved_slots(2).unwrap(),
    );
    let fd = fs.open("/file", OpenFlags::default()).unwrap();
    let expected: Vec<u8> = (0..blocks).flat_map(|b| pattern(1, b)).collect();

    faulty.crash_after_reads(1);
    assert!(fs.read(fd, 100, 8 * 4096).is_err());
    faulty.disarm();
    let back = fs.read(fd, 100, 8 * 4096).unwrap();
    assert_eq!(back, &expected[100..100 + 8 * 4096], "retry after disarm");
    // And the whole file still reads back intact.
    assert_eq!(fs.read(fd, 0, blocks * 4096).unwrap(), expected);
}

/// FaultyStore under a write-back cache: builds `media <- faulty <- cache`.
fn write_back_cache_over_faulty(
    capacity_blocks: usize,
) -> (Arc<DedupStore>, Arc<FaultyStore>, Arc<CachedStore>) {
    let media = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
    let faulty = Arc::new(FaultyStore::new(media.clone()));
    let stack = StackBuilder::new(vec![faulty.clone()])
        .cache(CacheConfig {
            capacity_blocks,
            shards: 1,
            read_ahead_blocks: 0,
            ..CacheConfig::write_back(capacity_blocks)
        })
        .build();
    (media, faulty, stack.cache.expect("cache tier"))
}

#[test]
fn write_fault_during_eviction_surfaces_and_keeps_dirty_blocks() {
    let (media, faulty, cache) = write_back_cache_over_faulty(2);
    cache.create("f").unwrap();
    cache.write_at("f", 0, &[1u8; 4096]).unwrap();
    cache.write_at("f", 4096, &[2u8; 4096]).unwrap();
    assert_eq!(cache.dirty_blocks(), 2);
    faulty.crash_after_writes(0);

    // The third block needs a slot; evicting a dirty victim hits the dead
    // store. The error must surface from the triggering write.
    assert!(matches!(
        cache.write_at("f", 8192, &[3u8; 4096]),
        Err(StorageError::Crashed)
    ));
    // Nothing was silently dropped: both dirty blocks are still cached and
    // readable even though the backend is unreachable, and the media never
    // saw a partial write.
    assert_eq!(cache.dirty_blocks(), 2);
    assert_eq!(cache.read_at("f", 0, 4096).unwrap(), vec![1u8; 4096]);
    assert_eq!(cache.read_at("f", 4096, 4096).unwrap(), vec![2u8; 4096]);
    assert_eq!(media.len("f").unwrap(), 0);

    // "Repair" the transport: the retained dirty blocks flush cleanly.
    faulty.disarm();
    cache.flush("f").unwrap();
    assert_eq!(cache.dirty_blocks(), 0);
    assert_eq!(media.read_at("f", 0, 4096).unwrap(), vec![1u8; 4096]);
    assert_eq!(media.read_at("f", 4096, 4096).unwrap(), vec![2u8; 4096]);
}

#[test]
fn write_fault_during_flush_surfaces_and_keeps_unflushed_runs() {
    let (media, faulty, cache) = write_back_cache_over_faulty(16);
    cache.create("f").unwrap();
    // Two non-adjacent dirty runs: the flush needs two backend writes.
    cache.write_at("f", 0, &[1u8; 4096]).unwrap();
    cache.write_at("f", 5 * 4096, &[5u8; 4096]).unwrap();
    assert_eq!(cache.dirty_blocks(), 2);

    // The first run's write succeeds, the second hits the power cut.
    faulty.crash_after_writes(1);
    assert!(matches!(cache.flush("f"), Err(StorageError::Crashed)));
    assert_eq!(cache.dirty_blocks(), 1, "unflushed run must stay dirty");
    // The pending data is still served from the cache.
    assert_eq!(cache.read_at("f", 5 * 4096, 4096).unwrap(), vec![5u8; 4096]);

    faulty.disarm();
    cache.flush("f").unwrap();
    assert_eq!(cache.dirty_blocks(), 0);
    assert_eq!(media.read_at("f", 0, 4096).unwrap(), vec![1u8; 4096]);
    assert_eq!(media.read_at("f", 5 * 4096, 4096).unwrap(), vec![5u8; 4096]);
}

#[test]
fn flush_fault_never_acknowledges_lost_data() {
    // A flush that errors must leave the cache still claiming the data, so
    // a later retry (or exit-time flush_all) can persist it — the cache may
    // not tell the caller "flushed" and then forget the bytes.
    let (media, faulty, cache) = write_back_cache_over_faulty(8);
    cache.create("f").unwrap();
    cache.write_at("f", 0, b"precious").unwrap();
    faulty.crash_after_writes(0);
    assert!(cache.flush("f").is_err());
    assert!(cache.flush_all().is_err());
    assert_eq!(media.len("f").unwrap(), 0);
    faulty.disarm();
    cache.flush_all().unwrap();
    assert_eq!(media.read_at("f", 0, 8).unwrap(), b"precious");
}

#[test]
fn sampled_crash_matrix_with_write_through_cache_under_the_shim() {
    // The full matrix above runs uncached; this samples crash points with a
    // write-through cache slotted between LamassuFS and the faulty store.
    // Write-through forwards every write 1:1 and in order, so the paper's
    // recovery guarantees must hold unchanged.
    let blocks = 24;
    let media = build_base(blocks);
    let before = media.io_counters().write_ops;
    assert!(overwrite_with_crash_cached(media.clone(), blocks, u64::MAX));
    let total_writes = media.io_counters().write_ops - before;

    for crash_after in (0..total_writes).step_by(5) {
        let media = build_base(blocks);
        overwrite_with_crash_cached(media.clone(), blocks, crash_after);

        // Reboot: recover on the surviving media (no cache) and check.
        let fs = LamassuFs::new(
            media,
            keys(),
            LamassuConfig::with_reserved_slots(2).unwrap(),
        );
        fs.recover("/file")
            .unwrap_or_else(|e| panic!("recovery failed at crash point {crash_after}: {e}"));
        assert!(fs.verify("/file").unwrap().is_clean());
        let fd = fs.open("/file", OpenFlags::default()).unwrap();
        for b in 0..blocks {
            let got = fs.read(fd, (b * 4096) as u64, 4096).unwrap();
            assert!(
                got == pattern(1, b) || got == pattern(2, b),
                "block {b} is neither old nor new after cached crash at write {crash_after}"
            );
        }
    }
}

/// Like [`overwrite_with_crash`], but with a write-through cache between the
/// shim and the faulty store.
fn overwrite_with_crash_cached(media: Arc<DedupStore>, blocks: usize, crash_after: u64) -> bool {
    let faulty = Arc::new(FaultyStore::new(media));
    faulty.crash_after_writes(crash_after);
    let fs = StackBuilder::new(vec![faulty])
        .cache(CacheConfig {
            capacity_blocks: 8,
            mode: CacheMode::WriteThrough,
            ..CacheConfig::default()
        })
        .mount(|store, profiler| {
            let config = LamassuConfig::with_reserved_slots(2).unwrap();
            LamassuFs::with_profiler(store, keys(), config, profiler)
        })
        .fs;
    let run = || -> lamassu::core::Result<()> {
        let fd = fs.open("/file", OpenFlags::default())?;
        for b in (0..blocks).step_by(2) {
            fs.write(fd, (b * 4096) as u64, &pattern(2, b))?;
        }
        fs.fsync(fd)?;
        fs.close(fd)?;
        Ok(())
    };
    run().is_ok()
}

/// A two-member replicated cluster of faulty stores under the shim, with a
/// unit size large enough that every container lives in a single placement
/// unit owned by both members (full-copy replication).
fn faulty_pair() -> (Vec<Arc<FaultyStore>>, Arc<RoutedStore<FaultyStore>>) {
    let stack = faulty_pair_tiers().build();
    (stack.members, stack.router.expect("routed tier"))
}

/// [`faulty_pair`] before it is built, for tests that stack more on it.
fn faulty_pair_tiers() -> StackBuilder<FaultyStore> {
    let members = (0..2)
        .map(|_| {
            Arc::new(FaultyStore::new(Arc::new(DedupStore::new(
                4096,
                StorageProfile::instant(),
            ))))
        })
        .collect();
    StackBuilder::new(members)
        .dist(DistConfig::new(2).granularity(Granularity::BlockRange(1 << 20)))
}

/// Reads a member's full copy of `name` (physical length, then bytes).
fn member_copy(store: &FaultyStore, name: &str) -> (u64, Vec<u8>) {
    let len = store.len(name).unwrap();
    let mut buf = vec![0u8; len as usize];
    let n = store.read_into(name, 0, &mut buf).unwrap();
    buf.truncate(n);
    (len, buf)
}

#[test]
fn replica_lost_during_commit_is_degraded_then_scrub_restores_it() {
    // R=2 over two faulty members: one replica dies mid-commit. The shim's
    // workload must still succeed (degraded write), reads must keep working
    // through failover, and after the member comes back a scrub must restore
    // its copy byte-for-byte from the survivor.
    let blocks = 24usize;
    let (members, routed) = faulty_pair();
    let fs = LamassuFs::new(
        routed.clone(),
        keys(),
        LamassuConfig::with_reserved_slots(2).unwrap(),
    );
    let fd = fs.create("/file").unwrap();
    for b in 0..blocks {
        fs.write(fd, (b * 4096) as u64, &pattern(1, b)).unwrap();
    }
    fs.fsync(fd).unwrap();

    // Cut power on the second replica partway through the overwrite commit.
    members[1].crash_after_writes(2);
    for b in (0..blocks).step_by(2) {
        fs.write(fd, (b * 4096) as u64, &pattern(2, b)).unwrap();
    }
    fs.fsync(fd).unwrap();
    assert!(members[1].has_crashed(), "the fault never fired");
    assert!(
        routed.stats().degraded_writes > 0,
        "the commit should have run degraded on the surviving replica"
    );

    // Reads during the outage succeed (failing over off the dead member
    // wherever it is primary) and see the committed overwrite.
    for b in 0..blocks {
        let got = fs.read(fd, (b * 4096) as u64, 4096).unwrap();
        let want = if b % 2 == 0 {
            pattern(2, b)
        } else {
            pattern(1, b)
        };
        assert_eq!(got, want, "block {b} wrong during the outage");
    }
    fs.close(fd).unwrap();

    // The member comes back with a torn copy; scrub resyncs it from the
    // survivor, byte for byte, and a second pass finds nothing left to do.
    members[1].disarm();
    let report = routed.scrub();
    assert!(
        report.mismatches > 0 || report.repaired > 0,
        "scrub found nothing to fix on the torn replica: {report:?}"
    );
    let clean = routed.scrub();
    assert_eq!(clean.mismatches, 0, "second scrub still dirty: {clean:?}");
    for name in routed.list() {
        assert_eq!(
            member_copy(&members[0], &name),
            member_copy(&members[1], &name),
            "replica copies of {name} diverge after scrub"
        );
    }

    // A fresh mount over the repaired cluster verifies clean and serves the
    // committed contents.
    let fs2 = LamassuFs::new(
        routed,
        keys(),
        LamassuConfig::with_reserved_slots(2).unwrap(),
    );
    assert!(fs2.verify("/file").unwrap().is_clean());
    let fd2 = fs2.open("/file", OpenFlags::default()).unwrap();
    for b in 0..blocks {
        let want = if b % 2 == 0 {
            pattern(2, b)
        } else {
            pattern(1, b)
        };
        assert_eq!(fs2.read(fd2, (b * 4096) as u64, 4096).unwrap(), want);
    }
}

#[test]
fn read_repair_after_silent_replica_corruption() {
    // Silently corrupt one replica under the router, on the member that is
    // NOT the chain primary for the damaged range (the primary wins the
    // two-way digest tie, so corruption on it is a different failure mode —
    // covered by the majority-vote tests in lamassu-dist). Scrub must count
    // the mismatch and rewrite the corrupt copy from the good one.
    let blocks = 24usize;
    let (members, routed) = faulty_pair();
    let fs = LamassuFs::new(
        routed.clone(),
        keys(),
        LamassuConfig::with_reserved_slots(2).unwrap(),
    );
    let fd = fs.create("/file").unwrap();
    for b in 0..blocks {
        fs.write(fd, (b * 4096) as u64, &pattern(1, b)).unwrap();
    }
    fs.fsync(fd).unwrap();
    fs.close(fd).unwrap();

    // Flip bytes in the middle of the data region of every container, on
    // each container's secondary replica.
    let mut corrupted = 0;
    for name in routed.list() {
        let len = routed.len(&name).unwrap();
        if len < 6000 {
            continue;
        }
        let ids = routed.replica_ids(&name, 5000);
        assert_eq!(ids.len(), 2, "R=2 must place two replicas of {name}");
        let secondary = routed.member_store(ids[1]).unwrap();
        secondary.write_at(&name, 5000, &[0xFF; 64]).unwrap();
        corrupted += 1;
    }
    assert!(corrupted > 0, "no container was large enough to corrupt");

    let report = routed.scrub();
    assert!(
        report.mismatches >= corrupted as u64,
        "scrub missed corruption: {report:?}"
    );
    assert!(
        report.repaired >= corrupted as u64,
        "nothing repaired: {report:?}"
    );
    assert_eq!(routed.scrub().mismatches, 0, "repair did not converge");

    // Both copies now agree byte-for-byte, and the file verifies and reads
    // back as the original version everywhere.
    for name in routed.list() {
        assert_eq!(
            member_copy(&members[0], &name),
            member_copy(&members[1], &name),
            "replica copies of {name} diverge after read-repair"
        );
    }
    let fs2 = LamassuFs::new(
        routed,
        keys(),
        LamassuConfig::with_reserved_slots(2).unwrap(),
    );
    assert!(fs2.verify("/file").unwrap().is_clean());
    let fd2 = fs2.open("/file", OpenFlags::default()).unwrap();
    for b in 0..blocks {
        assert_eq!(
            fs2.read(fd2, (b * 4096) as u64, 4096).unwrap(),
            pattern(1, b),
            "block {b} damaged after read-repair"
        );
    }
}

#[test]
fn breaker_open_degrades_writes_then_probe_reclose_scrubs_clean() {
    // A replica dies; its circuit breaker opens after a handful of recorded
    // errors, so the cluster stops even attempting the dead member (degraded
    // writes, failover reads) while the client workload never sees a fault.
    // Half-open probes eventually find the healed member, the breaker
    // recloses, and the requested targeted scrub resynchronizes everything
    // the member missed while it was gated out.
    let blocks = 24usize;
    let stack = faulty_pair_tiers()
        .resilience(Resilience {
            breakers: Some(BreakerConfig {
                window: 8,
                min_samples: 2,
                error_rate_pct: 50,
                cooldown: 2,
            }),
            ..Resilience::default()
        })
        .mount(|store, profiler| {
            let config = LamassuConfig::with_reserved_slots(2).unwrap();
            LamassuFs::with_profiler(store, keys(), config, profiler)
        });
    let (fs, members) = (&stack.fs, &stack.members);
    let routed = stack.router.clone().expect("routed tier");
    let breakers = stack.breakers.as_ref().expect("breaker set");
    let fd = fs.create("/file").unwrap();
    for b in 0..blocks {
        fs.write(fd, (b * 4096) as u64, &pattern(1, b)).unwrap();
    }
    fs.fsync(fd).unwrap();

    // Member 1 dies but will come back once it has refused 12 operations —
    // only half-open probes reach it while the breaker is open, so healing
    // is paced by the probe cadence.
    members[1].heal_after_refusals(12);
    members[1].crash_after_writes(0);

    // Drive overwrites until the full open -> probe -> reclose cycle has
    // happened. Every client op must succeed throughout.
    let mut recovered = false;
    for round in 0..200 {
        let b = (round * 2) % blocks;
        fs.write(fd, (b * 4096) as u64, &pattern(2, b)).unwrap();
        let got = fs.read(fd, (b * 4096) as u64, 4096).unwrap();
        assert_eq!(got, pattern(2, b), "round {round} read-back diverged");
        // The write only filled the file's span-sized buffer (and the
        // read-back came from it); the `fsync` is what sends the cluster the
        // traffic the breaker counts.
        fs.fsync(fd).unwrap();
        // A read that has to go to the cluster, and fail over while the
        // member is gated out. It asks for a block no outage write touches:
        // the healed member's copy of the others is stale until the scrub
        // below, and the half-open probe that finds it healed may be a read.
        let intact = b + 1;
        let got = fs.read(fd, (intact * 4096) as u64, 4096).unwrap();
        assert_eq!(got, pattern(1, intact), "round {round} failover read");
        if breakers.stats().recloses >= 1 {
            recovered = true;
            break;
        }
    }
    fs.fsync(fd).unwrap();
    fs.close(fd).unwrap();

    let bstats = breakers.stats();
    assert!(recovered, "breaker never reclosed: {bstats:?}");
    assert!(bstats.opens >= 1, "breaker never opened: {bstats:?}");
    assert!(
        bstats.rejections >= 1,
        "open breaker never skipped the dead member: {bstats:?}"
    );
    assert_eq!(bstats.open_now, 0, "breaker still open: {bstats:?}");
    assert_eq!(members[1].fault_stats().heals, 1, "member never healed");
    assert!(
        routed.stats().degraded_writes > 0,
        "the outage should have produced degraded writes"
    );

    // The reclose queued a targeted scrub for the reclaimed member; the
    // stack's maintenance pass runs it, repairing everything the member
    // missed, and a full scrub afterwards finds nothing left.
    let ran = stack.maintain();
    assert_eq!(ran.len(), 1, "reclose must request one targeted scrub");
    let (id, probe) = ran[0];
    assert_eq!(id, 1, "the reclaimed member is the one scrubbed");
    assert!(
        probe.repaired > 0,
        "targeted scrub repaired nothing: {probe:?}"
    );
    let clean = routed.scrub();
    assert_eq!(clean.mismatches, 0, "cluster still dirty: {clean:?}");
    for name in routed.list() {
        assert_eq!(
            member_copy(&members[0], &name),
            member_copy(&members[1], &name),
            "replica copies of {name} diverge after the breaker cycle"
        );
    }

    // A fresh mount over the healed cluster verifies clean and serves the
    // final contents from either replica.
    let fs2 = LamassuFs::new(
        routed,
        keys(),
        LamassuConfig::with_reserved_slots(2).unwrap(),
    );
    assert!(fs2.verify("/file").unwrap().is_clean());
}

#[test]
fn recovery_is_idempotent() {
    let blocks = 12;
    let media = build_base(blocks);
    overwrite_with_crash(media.clone(), blocks, 3);
    let fs = LamassuFs::new(
        media,
        keys(),
        LamassuConfig::with_reserved_slots(2).unwrap(),
    );
    let first = fs.recover("/file").unwrap();
    let second = fs.recover("/file").unwrap();
    assert!(first.segments_scanned >= second.segments_scanned);
    assert_eq!(
        second.segments_repaired, 0,
        "second pass finds nothing to do"
    );
    assert!(fs.verify("/file").unwrap().is_clean());
}
