//! Crash-injection matrix: cut power at *every* backend write index of a
//! multi-segment workload and check that recovery always yields a consistent
//! file — every block reads back as either its old or its new contents, never
//! garbage, and the post-recovery integrity verification is clean.

use lamassu::cache::{CacheConfig, CacheMode, CachedStore};
use lamassu::core::{FileSystem, LamassuConfig, LamassuFs, OpenFlags};
use lamassu::dist::{DistConfig, RoutedStore};
use lamassu::keymgr::ZoneKeys;
use lamassu::resilience::BreakerConfig;
use lamassu::stack::Stack;
use lamassu::stack::{Resilience, StackBuilder};
use lamassu::storage::{
    Completion, DedupStore, FaultyStore, IoCounters, ObjectStore, StorageError, StorageProfile,
    SubmitQueue, SubmitTicket,
};
use std::io::{IoSlice, IoSliceMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
    Base::new(r, blocks).build()
}

/// The version-1 file a crash matrix starts from.
struct Base<'a> {
    /// Reserved-slot count `R`.
    r: usize,
    /// Its length in blocks.
    blocks: usize,
    /// Blocks below `blocks` that were never written (they read as zeros).
    holes: &'a [usize],
    /// Built this many blocks long, then truncated to `blocks`.
    shrunk_from: Option<usize>,
}

impl<'a> Base<'a> {
    fn new(r: usize, blocks: usize) -> Self {
        Base {
            r,
            blocks,
            holes: &[],
            shrunk_from: None,
        }
    }

    /// Whether block `b` holds version-1 data.
    fn holds(&self, b: usize) -> bool {
        b < self.blocks && !self.holes.contains(&b)
    }

    /// Writes the file on fresh media: one write per run between holes
    /// (one large write without holes), then the truncate, if any.
    fn build(&self) -> Arc<DedupStore> {
        let media = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        let fs = LamassuFs::new(
            media.clone(),
            keys(),
            LamassuConfig::with_reserved_slots(self.r).unwrap(),
        );
        let fd = fs.create("/file").unwrap();
        let written = self.shrunk_from.unwrap_or(self.blocks);
        let mut b = 0;
        while b < written {
            let end = (b..written)
                .find(|x| self.holes.contains(x))
                .unwrap_or(written);
            let image: Vec<u8> = (b..end).flat_map(|b| pattern(1, b)).collect();
            fs.write(fd, (b * 4096) as u64, &image).unwrap();
            b = end + 1;
        }
        if self.shrunk_from.is_some() {
            fs.truncate(fd, (self.blocks * 4096) as u64).unwrap();
        }
        fs.close(fd).unwrap();
        media
    }
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
    let base = Base::new(r, base_blocks);
    enumerate_crash_points_from(&base, touched, expect_writes, step, update, pinned)
}

/// [`enumerate_crash_points`] from any [`Base`]: the old contents of a block
/// the base does not hold are a hole.
fn enumerate_crash_points_from(
    base: &Base<'_>,
    touched: &[usize],
    expect_writes: u64,
    step: usize,
    update: impl Fn(&LamassuFs) -> lamassu::core::Result<()>,
    pinned: impl Fn(u64, usize) -> Option<u8>,
) -> u64 {
    let (r, base_blocks) = (base.r, base.blocks);
    let config = LamassuConfig::with_reserved_slots(r).unwrap();
    let run = |media: Arc<DedupStore>, crash_after: u64| -> bool {
        let faulty = Arc::new(FaultyStore::new(media));
        faulty.crash_after_writes(crash_after);
        update(&LamassuFs::new(faulty, keys(), config)).is_ok()
    };
    // The base file is built once; every run starts from a byte copy of it.
    let built = base.build();
    let base_bytes = built
        .read_at("/file", 0, built.len("/file").unwrap() as usize)
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
            let is_old = if base.holds(b) {
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
/// 64 data writes (no two touched blocks are adjacent), 32 closing — the
/// flush is an `fsync`, which closes what it commits.
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
    // after the other on the media; each span commit leaves its segments
    // open, and the next commit's first metadata phase closes them, so a
    // crash between two commits finds segments mid-update whose data has
    // all landed. Wherever the power fails: the blocks of
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
    // (the mount is dropped, not closed). That span commit left the segments
    // it wrote open for the file's next commit to close — all six, for 256
    // random blocks of a six-segment file — and none came. After the
    // restart the 40 and the 256 are new and the 44 are old, before
    // `recover` and after it. `recover` closes exactly the open segments and
    // keeps every new key: an open segment's transient area names only the
    // blocks of its last round, whose data has landed.
    const BLOCKS: usize = 6 * 118;
    const R: usize = 8;
    let order = seeded_sample(5, BLOCKS, 340);
    let media = build_base_at(R, BLOCKS);
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
    let fd = fs.open("/file", OpenFlags::default()).unwrap();
    let check = |when: &str| {
        for b in 0..BLOCKS {
            let version = match order.iter().position(|&x| x == b) {
                Some(i) if i < 40 + 256 => 2,
                _ => 1,
            };
            assert!(
                fs.read(fd, (b * 4096) as u64, 4096).unwrap() == pattern(version, b),
                "block {b} must be version {version} after the power cut, {when}"
            );
        }
    };
    check("before recovery");

    // The span commit put `c` blocks into segment `s` in ceil(c / R)
    // rounds; the transient area holds the last round's (c - 1) % R + 1.
    let last_rounds: Vec<u64> = (0..6)
        .map(|s| {
            order[40..40 + 256]
                .iter()
                .filter(|&&b| b / 118 == s)
                .count()
        })
        .filter(|&c| c > 0)
        .map(|c| ((c - 1) % R + 1) as u64)
        .collect();
    assert_eq!(last_rounds.len(), 6, "the span touched every segment");
    let recovered = fs.recover("/file").unwrap();
    assert_eq!(
        (
            recovered.segments_repaired,
            recovered.blocks_kept_new,
            recovered.blocks_restored_old,
            recovered.blocks_cleared
        ),
        (6, last_rounds.iter().sum(), 0, 0),
        "{recovered:?}"
    );
    let report = fs.verify("/file").unwrap();
    assert!(report.is_clean() && report.mid_update_segments == 0);
    check("after recovery");
}

#[test]
fn a_commit_resolves_a_segment_the_media_left_mid_update() {
    // A crash right after the first metadata write of an `fsync`'s commit
    // leaves segment 0 mid-update: blocks 0..4 hold new keys over old data,
    // their previous keys parked in the transient area. The next mount does
    // not run `recover`. It writes block 10 of the same segment and fsyncs,
    // and that commit must resolve the interrupted one before it replaces
    // the transient area — otherwise blocks 0..4 keep new keys over old
    // bytes and no later `recover` can find their old keys again.
    const BLOCKS: usize = 2 * 118;
    let media = build_base_at(8, BLOCKS);
    let faulty = Arc::new(FaultyStore::new(media.clone()));
    faulty.crash_after_writes(1);
    let fs = LamassuFs::new(faulty.clone(), keys(), LamassuConfig::default());
    assert!(write_blocks(&fs, &[0, 1, 2, 3], usize::MAX).is_err());
    assert!(faulty.has_crashed());

    let fs = LamassuFs::new(media, keys(), LamassuConfig::default());
    write_blocks(&fs, &[10], usize::MAX).unwrap();
    let report = fs.verify("/file").unwrap();
    assert!(
        report.is_clean() && report.mid_update_segments == 0,
        "{report:?}"
    );
    let fd = fs.open("/file", OpenFlags::default()).unwrap();
    let whole = fs.read(fd, 0, BLOCKS * 4096).unwrap();
    for (b, got) in whole.chunks(4096).enumerate() {
        let version = if b == 10 { 2 } else { 1 };
        assert!(
            got == pattern(version, b),
            "block {b} must be version {version}"
        );
    }
}

// The two append matrices run on a 116-block file. Appended blocks are fresh:
// the span pipeline writes their data first and installs their keys after the
// barrier. The logical size is read from the last segment present on the
// media, and a growing write's data would make a new segment the last one —
// so that segment's metadata block goes out first, closed and carrying the
// old size, and at no crash point may the file read back shorter than it
// was. The installs carry the new size. Appended blocks whose keys never
// landed read as holes.

#[test]
fn every_crash_point_of_an_append_across_segments_keeps_the_old_file_visible() {
    // To 240 blocks: two blocks finish segment 0, 118 fill segment 1 and
    // four start segment 2, the new final segment. Segment 2's metadata
    // block first (1), one data write per segment (3), then one metadata
    // write per segment installs the keys, closed and with the new size (3).
    let touched: Vec<usize> = (116..240).collect();
    enumerate_crash_points(
        8,
        116,
        &touched,
        1 + 3 + 3,
        1,
        |fs| write_run(fs, 116..240),
        |_, _| None,
    );
}

#[test]
fn sampled_crash_points_of_a_multi_batch_append_keep_the_old_file_visible() {
    // To 640 blocks: the one 524-block write fills the span, so it commits
    // as three crypto batches (256 + 256 + 12), every block fresh; a batch
    // of fresh blocks leaves nothing open, so the `fsync` writes nothing.
    // Per batch: the metadata block of the segment its data makes the last
    // one on the media, one data write per segment, one install per segment:
    // * 116..372: segments 0–3, segment 3 written first — 1 + 4 + 4;
    // * 372..628: segments 3–5, segment 5 written first — 1 + 3 + 3;
    // * 628..640: segment 5, already on the media — 0 + 1 + 1.
    // The first batch never touches the final segment (5) — the last
    // segment on the media is whichever one the running batch has reached.
    // Every write boundary: the 144 writes the §2.4 rounds took here had to
    // be sampled, these 18 need not be.
    let touched: Vec<usize> = (116..640).collect();
    enumerate_crash_points(
        8,
        116,
        &touched,
        (1 + 4 + 4) + (1 + 3 + 3) + 2,
        1,
        |fs| write_run(fs, 116..640),
        |_, _| None,
    );
}

// The fresh-block rows: blocks whose slots hold no key when the commit takes
// their segment — a hole, a block past the end, a slot a truncate cleared.

#[test]
fn every_crash_point_of_a_hole_fill_keeps_the_blocks_around_it() {
    // A 286-block file (three segments) with a 16-block hole across the
    // boundary of segments 0 and 1, whose later blocks are on the media.
    // Filling it: one data write per segment (2), then one metadata write
    // per segment installs the keys (2). Neither segment is new, so no
    // metadata write comes first, and nothing enters a transient area.
    let holes: Vec<usize> = (110..126).collect();
    let base = Base {
        holes: &holes,
        ..Base::new(8, 286)
    };
    let most_mid_update = enumerate_crash_points_from(
        &base,
        &holes,
        2 + 2,
        1,
        |fs| write_run(fs, 110..126),
        |_, _| None,
    );
    assert_eq!(most_mid_update, 0, "fresh blocks leave nothing to recover");
}

#[test]
fn every_crash_point_of_a_sparse_write_past_the_end_keeps_the_old_length() {
    // A 116-block file (segment 0) and a write of blocks 246..256, in
    // segment 2: the write skips segment 1 and makes segment 2 the last one
    // on the media. Segment 2's metadata block goes out first, closed and
    // with the old size (1), then the data (1), then the install with the
    // new size (1). A crash after the first write finds segment 2 present
    // and segment 1 a hole, and must still read 116 blocks.
    let touched: Vec<usize> = (246..256).collect();
    enumerate_crash_points(
        8,
        116,
        &touched,
        1 + 1 + 1,
        1,
        |fs| write_run(fs, 246..256),
        |_, _| None,
    );
}

#[test]
fn every_crash_point_of_a_commit_mixing_overwrites_and_fresh_blocks_recovers() {
    // R = 2, N = 124, a 130-block file with holes at 3, 5 and 6. One flush
    // writes blocks 0..10 — seven overwrites in four rounds and the three
    // holes — and 128..132: two overwrites in one round and two appends.
    // Phase 0: both segments open round 0 (2); data: segment 0's fresh
    // blocks with its round 0, {0, 1}, {3}, {5, 6}, and segment 1's 128..132
    // as one run (4). Phase 1: segment 0 opens round 1 and installs 3, 5
    // and 6, segment 1 closes and installs 130 and 131 (2); data {2}, {4}
    // (2). Phases 2 and 3: segment 0's rounds {7, 8} and {9} (1 + 1 each).
    // Phase 4: segment 0 closes (1). 15 writes.
    let holes = [3, 5, 6];
    let base = Base {
        holes: &holes,
        ..Base::new(2, 130)
    };
    let touched: Vec<usize> = (0..10).chain(128..132).collect();
    let most_mid_update = enumerate_crash_points_from(
        &base,
        &touched,
        (2 + 4) + (2 + 2) + (1 + 1) + (1 + 1) + 1,
        1,
        |fs| write_blocks(fs, &touched, usize::MAX),
        |_, _| None,
    );
    assert_eq!(most_mid_update, 2, "both segments mid-update at one crash");
}

#[test]
fn every_crash_point_of_a_re_extend_after_a_truncate_keeps_the_old_length() {
    // R = 2, N = 124: a 377-block file truncated to 130 blocks — the keys
    // of 130..248 cleared in segment 1, segments 2 and 3 gone with the
    // physical truncate — then re-extended to 300 blocks over the cleared
    // slots. Segment 2's metadata block first (1), one data write per
    // segment (2), one install per segment (2).
    let base = Base {
        shrunk_from: Some(377),
        ..Base::new(2, 130)
    };
    let touched: Vec<usize> = (130..300).collect();
    enumerate_crash_points_from(
        &base,
        &touched,
        1 + 2 + 2,
        1,
        |fs| write_run(fs, 130..300),
        |_, _| None,
    );
}

#[test]
fn a_power_cut_after_a_span_filling_append_keeps_every_appended_block() {
    // 300 single-block appends to a 100-block file, never fsynced: the 256th
    // fills the span and its write commits blocks 100..356, the last 44 are
    // still buffered when the client dies. Fresh blocks' keys are installed
    // before the commit returns, so after the restart the file is 356 blocks
    // long and every committed appended block reads new — before `recover`
    // and after it — and recovery finds nothing to repair.
    const BASE: usize = 100;
    let media = build_base_at(8, BASE);
    {
        let fs = LamassuFs::new(media.clone(), keys(), LamassuConfig::default());
        let fd = fs.open("/file", OpenFlags::default()).unwrap();
        for b in BASE..BASE + 300 {
            fs.write(fd, (b * 4096) as u64, &pattern(2, b)).unwrap();
        }
    }
    let fs = LamassuFs::new(media, keys(), LamassuConfig::default());
    let fd = fs.open("/file", OpenFlags::default()).unwrap();
    let check = |when: &str| {
        assert_eq!(fs.len(fd).unwrap(), ((BASE + 256) * 4096) as u64, "{when}");
        for b in 0..BASE + 256 {
            let version = if b < BASE { 1 } else { 2 };
            assert!(
                fs.read(fd, (b * 4096) as u64, 4096).unwrap() == pattern(version, b),
                "block {b} must be version {version} after the power cut, {when}"
            );
        }
    };
    check("before recovery");
    let recovered = fs.recover("/file").unwrap();
    assert_eq!(recovered.segments_repaired, 0, "{recovered:?}");
    let report = fs.verify("/file").unwrap();
    assert!(report.is_clean() && report.mid_update_segments == 0);
    check("after recovery");
}

#[test]
fn a_commit_after_one_that_failed_past_its_new_last_segment_write_keeps_every_block() {
    // A 116-block file (segment 0) and a write of blocks 116..130, whose
    // data would make segment 1 the last one on the media: segment 1's
    // metadata block goes out first and lands, then the store fails the
    // data write and the commit fails. The mount goes on once the store is
    // back: its next commit writes blocks 120..124 into segment 1, and must
    // take the segment the failed commit left on the media. After a remount
    // every block reads old (version 1 below 116, a hole above) or new.
    const BASE: usize = 116;
    let media = build_base_at(8, BASE);
    let faulty = Arc::new(FaultyStore::new(media.clone()));
    let fs = LamassuFs::new(faulty.clone(), keys(), LamassuConfig::default());
    let fd = fs.open("/file", OpenFlags::default()).unwrap();
    let image: Vec<u8> = (BASE..130).flat_map(|b| pattern(2, b)).collect();
    faulty.crash_after_writes(1);
    fs.write(fd, (BASE * 4096) as u64, &image).unwrap();
    assert!(fs.fsync(fd).is_err());
    assert!(faulty.has_crashed());
    faulty.disarm();
    let image: Vec<u8> = (120..124).flat_map(|b| pattern(2, b)).collect();
    fs.write(fd, 120 * 4096, &image).unwrap();
    fs.fsync(fd).unwrap();
    fs.close(fd).unwrap();

    let fs = LamassuFs::new(media, keys(), LamassuConfig::default());
    let report = fs.verify("/file").unwrap();
    assert!(
        report.is_clean() && report.mid_update_segments == 0,
        "{report:?}"
    );
    let fd = fs.open("/file", OpenFlags::default()).unwrap();
    assert_eq!(fs.len(fd).unwrap(), 130 * 4096);
    let hole = vec![0u8; 4096];
    for b in 0..130 {
        let got = fs.read(fd, (b * 4096) as u64, 4096).unwrap();
        let ok = match b {
            _ if b < BASE => got == pattern(1, b),
            120..124 => got == pattern(2, b),
            _ => got == hole || got == pattern(2, b),
        };
        assert!(ok, "block {b} is neither old nor new");
    }
}

/// A byte copy of a base file of `blocks` version-1 blocks at reserved-slot
/// count `r`, on fresh media, each time it is called.
fn base_copies(r: usize, blocks: usize) -> impl Fn() -> Arc<DedupStore> {
    let base = build_base_at(r, blocks);
    let bytes = base
        .read_at("/file", 0, base.len("/file").unwrap() as usize)
        .unwrap();
    move || {
        let media = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        media.create("/file").unwrap();
        media.write_at("/file", 0, &bytes).unwrap();
        media
    }
}

/// Runs `op` on a mount over `media` whose store dies after `crash_after`
/// writes; returns whether `op` got to finish.
fn run_with_crash(
    media: Arc<DedupStore>,
    crash_after: u64,
    op: impl Fn(&LamassuFs) -> lamassu::core::Result<()>,
) -> bool {
    let faulty = Arc::new(FaultyStore::new(media));
    faulty.crash_after_writes(crash_after);
    let fs = LamassuFs::new(
        faulty,
        keys(),
        LamassuConfig::with_reserved_slots(2).unwrap(),
    );
    op(&fs).is_ok()
}

/// The backend writes `op` issues on a fresh copy from `fresh`.
fn writes_of(
    fresh: &impl Fn() -> Arc<DedupStore>,
    op: impl Fn(&LamassuFs) -> lamassu::core::Result<()>,
) -> u64 {
    let media = fresh();
    let before = media.io_counters().write_ops;
    assert!(run_with_crash(media.clone(), u64::MAX, op));
    media.io_counters().write_ops - before
}

// The truncate and re-key rows run at R = 2 (N = 124 blocks per segment) on
// a 377-block file: four segments, the last one holding five blocks.

#[test]
fn every_crash_point_of_a_truncate_keeps_every_byte_below_the_new_size() {
    // Shrinking to 124 blocks + 1 000 bytes: the read-modify-write that
    // zeroes the new last block's tail commits it (metadata, data, metadata
    // of segment 1), the dropped keys of segment 1 are cleared (one
    // metadata write), and the size is written (one more). Segments 2 and
    // 3 go with the physical truncate, which is not a write. Wherever the
    // power fails, recovery succeeds, verification is clean, the file is
    // as long as it was or as long as the truncate makes it, and every byte
    // below the new size is the old one.
    const BLOCKS: usize = 377;
    let new_size = 124 * 4096 + 1000;
    let shrink = |fs: &LamassuFs| {
        let fd = fs.open("/file", OpenFlags::default())?;
        fs.truncate(fd, new_size)?;
        fs.close(fd)
    };
    let fresh = base_copies(2, BLOCKS);
    let total_writes = writes_of(&fresh, shrink);
    assert_eq!(total_writes, 5);
    let image: Vec<u8> = (0..BLOCKS).flat_map(|b| pattern(1, b)).collect();
    for crash_after in 0..total_writes {
        let media = fresh();
        assert!(
            !run_with_crash(media.clone(), crash_after, shrink),
            "crash point {crash_after} did not fire"
        );
        let fs = LamassuFs::new(
            media,
            keys(),
            LamassuConfig::with_reserved_slots(2).unwrap(),
        );
        fs.recover("/file")
            .unwrap_or_else(|e| panic!("recovery failed at crash point {crash_after}: {e}"));
        let report = fs.verify("/file").unwrap();
        assert!(
            report.is_clean() && report.mid_update_segments == 0,
            "after crash at write {crash_after}: {report:?}"
        );
        let fd = fs.open("/file", OpenFlags::default()).unwrap();
        let len = fs.len(fd).unwrap();
        assert!(
            len == image.len() as u64 || len == new_size,
            "{len} bytes long after crash at write {crash_after}"
        );
        let kept = fs.read(fd, 0, new_size as usize).unwrap();
        assert!(
            kept == image[..new_size as usize],
            "a byte below the new size changed after crash at write {crash_after}"
        );
    }
}

#[test]
fn a_crash_inside_a_rekey_never_reads_back_wrong_bytes() {
    // `rekey_outer_all` re-seals the four metadata blocks in turn: four
    // writes. A crash before the first leaves the file as it was, readable
    // under the old keys. A crash after one to three of them leaves the
    // file sealed under both key generations, which neither key pair opens
    // (out of the recovery model: a resumable re-key would need both). At
    // every crash point, under either key pair, every read returns the old
    // bytes or an error — never other bytes, never a panic.
    const BLOCKS: usize = 377;
    let new_keys = ZoneKeys {
        generation: 1,
        outer: [0xc3; 32],
        ..keys()
    };
    let rekey = |fs: &LamassuFs| fs.rekey_outer_all(new_keys).map(|_| ());
    let fresh = base_copies(2, BLOCKS);
    let total_writes = writes_of(&fresh, rekey);
    assert_eq!(total_writes, 4);
    let config = LamassuConfig::with_reserved_slots(2).unwrap();
    for crash_after in 0..total_writes {
        let media = fresh();
        assert!(
            !run_with_crash(media.clone(), crash_after, rekey),
            "crash point {crash_after} did not fire"
        );
        for (generation, zone_keys) in [keys(), new_keys].into_iter().enumerate() {
            let fs = LamassuFs::new(media.clone(), zone_keys, config);
            let _ = fs.recover("/file");
            let opened = fs.open("/file", OpenFlags::default());
            match (crash_after, generation) {
                (0, 0) => assert!(opened.is_ok(), "old keys must open the file"),
                _ => {
                    let err = opened.as_ref().err().map(|e| e.to_string());
                    assert!(
                        err.as_deref()
                            .is_some_and(|e| e.contains("failed AES-GCM authentication")),
                        "crash at write {crash_after}, generation {generation}: {err:?}"
                    );
                }
            }
            let Ok(fd) = opened else { continue };
            for b in 0..BLOCKS {
                if let Ok(got) = fs.read(fd, (b * 4096) as u64, 4096) {
                    assert!(
                        got == pattern(1, b),
                        "block {b} read back wrong after crash at write {crash_after}"
                    );
                }
            }
        }
    }
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

/// A member of the submitted-write-back stack: a [`FaultyStore`] over its
/// own media. With `park` set its poll releases nothing (the trait default
/// instead of the fault injector's), so every completion stays parked until
/// a `wait_completions`, which it counts.
struct Member {
    media: Arc<DedupStore>,
    faulty: FaultyStore,
    park: bool,
    waits: AtomicUsize,
}

impl Member {
    fn new(park: bool) -> Arc<Member> {
        let media = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        Arc::new(Member {
            faulty: FaultyStore::new(media.clone()),
            media,
            park,
            waits: AtomicUsize::new(0),
        })
    }
}

impl ObjectStore for Member {
    fn create(&self, name: &str) -> lamassu::storage::Result<()> {
        self.faulty.create(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.faulty.exists(name)
    }
    fn read_into_vectored(
        &self,
        name: &str,
        offset: u64,
        bufs: &mut [IoSliceMut<'_>],
    ) -> lamassu::storage::Result<usize> {
        self.faulty.read_into_vectored(name, offset, bufs)
    }
    fn write_at_vectored(
        &self,
        name: &str,
        offset: u64,
        bufs: &[IoSlice<'_>],
    ) -> lamassu::storage::Result<()> {
        self.faulty.write_at_vectored(name, offset, bufs)
    }
    fn submit_write_vectored(
        &self,
        q: &mut SubmitQueue,
        name: &str,
        offset: u64,
        bufs: &[IoSlice<'_>],
    ) -> SubmitTicket {
        self.faulty.submit_write_vectored(q, name, offset, bufs)
    }
    fn poll_completions(&self, q: &mut SubmitQueue, out: &mut Vec<Completion>) {
        if self.park {
            q.drain_ready(out);
        } else {
            self.faulty.poll_completions(q, out);
        }
    }
    fn wait_completions(&self, q: &mut SubmitQueue, out: &mut Vec<Completion>) {
        self.waits.fetch_add(1, Ordering::Relaxed);
        self.faulty.wait_completions(q, out);
    }
    fn len(&self, name: &str) -> lamassu::storage::Result<u64> {
        self.faulty.len(name)
    }
    fn truncate(&self, name: &str, len: u64) -> lamassu::storage::Result<()> {
        self.faulty.truncate(name, len)
    }
    fn remove(&self, name: &str) -> lamassu::storage::Result<()> {
        self.faulty.remove(name)
    }
    fn rename(&self, from: &str, to: &str) -> lamassu::storage::Result<()> {
        self.faulty.rename(from, to)
    }
    fn list(&self) -> Vec<String> {
        self.faulty.list()
    }
    fn flush(&self, name: &str) -> lamassu::storage::Result<()> {
        self.faulty.flush(name)
    }
    fn sleep_virtual(&self, d: Duration) {
        self.faulty.sleep_virtual(d);
    }
    fn io_time(&self) -> Duration {
        self.faulty.io_time()
    }
    fn io_counters(&self) -> IoCounters {
        self.faulty.io_counters()
    }
    fn reset_io_accounting(&self) {
        self.faulty.reset_io_accounting();
    }
}

/// Blocks the submitted-write-back cases dirty: every other one, so each is
/// a run of its own and the runs spread over every owner pair.
const FLUSH_BLOCKS: [u64; 8] = [0, 2, 4, 6, 8, 10, 12, 14];

/// The benchmark's tiers over three [`Member`]s — a write-back cache over
/// retries over a router at R = 2 — with a one-block placement unit, and
/// `f` holding [`FLUSH_BLOCKS`] dirty in the cache.
fn dirty_tiered_stack(park: bool) -> Stack<(), Member> {
    let stack = StackBuilder::new((0..3).map(|_| Member::new(park)).collect())
        .dist(DistConfig::new(2).unit(4096))
        .resilience(Resilience::default())
        .cache(CacheConfig {
            shards: 1,
            read_ahead_blocks: 0,
            ..CacheConfig::write_back(64)
        })
        .build();
    stack.store.create("f").unwrap();
    for &b in &FLUSH_BLOCKS {
        stack
            .store
            .write_at("f", b * 4096, &pattern(5, b as usize))
            .unwrap();
    }
    assert_eq!(
        stack.cache.as_ref().unwrap().dirty_blocks(),
        FLUSH_BLOCKS.len()
    );
    stack
}

/// The owners of block `b` of `f`.
fn owners(stack: &Stack<(), Member>, b: u64) -> Vec<u32> {
    stack.router.as_ref().unwrap().replica_ids("f", b * 4096)
}

/// Every owner's media holds every flushed block.
fn assert_flushed_to_every_owner(stack: &Stack<(), Member>) {
    for &b in &FLUSH_BLOCKS {
        for id in owners(stack, b) {
            let media = &stack.members[id as usize].media;
            let got = media.read_at("f", b * 4096, 4096).unwrap();
            assert!(
                got == pattern(5, b as usize),
                "block {b} missing on member {id}"
            );
        }
    }
}

#[test]
fn a_transient_fault_on_a_submitted_write_back_is_retried() {
    let stack = dirty_tiered_stack(false);
    // Both owners of the first run refuse one write and then heal: the
    // router has no replica to degrade to, so the retry tier retries.
    for id in owners(&stack, FLUSH_BLOCKS[0]) {
        let faulty = &stack.members[id as usize].faulty;
        faulty.crash_after_writes(0);
        faulty.heal_after_refusals(0);
    }
    let retries = stack.resilient.as_ref().unwrap().stats().retries;
    stack.store.flush("f").unwrap();
    assert_eq!(
        stack.resilient.as_ref().unwrap().stats().retries,
        retries + 1
    );
    assert_eq!(stack.cache.as_ref().unwrap().dirty_blocks(), 0);
    assert_flushed_to_every_owner(&stack);
}

#[test]
fn a_crashed_member_makes_the_submitted_flush_degraded_and_scrub_repairs_it() {
    let stack = dirty_tiered_stack(false);
    let router = stack.router.as_ref().unwrap();
    stack.members[1].faulty.crash_after_writes(0);
    stack.store.flush("f").unwrap();
    assert_eq!(stack.cache.as_ref().unwrap().dirty_blocks(), 0);
    let stats = router.stats();
    assert!(stats.degraded_writes > 0, "{stats:?}");
    assert!(
        router.suspects_pending() > 0,
        "the crashed member awaits a resync"
    );
    assert_eq!(stack.resilient.as_ref().unwrap().stats().retries, 0);

    stack.members[1].faulty.disarm();
    let report = router.scrub();
    assert!(report.repaired > 0, "{report:?}");
    assert_eq!(router.suspects_pending(), 0);
    assert_flushed_to_every_owner(&stack);
}

#[test]
fn a_submitted_flush_with_every_owner_down_keeps_the_failed_runs_dirty() {
    let stack = dirty_tiered_stack(false);
    let cache = stack.cache.as_ref().unwrap();
    // Both owners of the first run stay down: every run they alone own
    // fails, and the runs after it (owned by the third member too) land.
    let down = owners(&stack, FLUSH_BLOCKS[0]);
    for &id in &down {
        stack.members[id as usize].faulty.crash_after_writes(0);
    }
    let lost = FLUSH_BLOCKS
        .iter()
        .filter(|&&b| owners(&stack, b).iter().all(|id| down.contains(id)))
        .count();
    assert!(
        lost >= 1 && lost < FLUSH_BLOCKS.len(),
        "{lost} runs on {down:?}"
    );
    assert!(matches!(stack.store.flush("f"), Err(StorageError::Crashed)));
    assert_eq!(
        cache.dirty_blocks(),
        lost,
        "exactly the failed runs stay dirty"
    );

    for &id in &down {
        stack.members[id as usize].faulty.disarm();
    }
    stack.store.flush("f").unwrap();
    assert_eq!(cache.dirty_blocks(), 0);
    let report = stack.router.as_ref().unwrap().scrub();
    assert_eq!(report.unreadable_units, 0, "{report:?}");
    assert_flushed_to_every_owner(&stack);
}

#[test]
fn parked_completions_of_submitted_write_backs_are_awaited() {
    let stack = dirty_tiered_stack(true);
    // One refused-then-healed write on both owners of the first run: its
    // error must come back through the awaited completion and be retried.
    for id in owners(&stack, FLUSH_BLOCKS[0]) {
        let faulty = &stack.members[id as usize].faulty;
        faulty.crash_after_writes(0);
        faulty.heal_after_refusals(0);
    }
    let waits = |s: &Stack<(), Member>| -> usize {
        s.members
            .iter()
            .map(|m| m.waits.load(Ordering::Relaxed))
            .sum()
    };
    let (writes, waited) = (stack.store.io_counters().write_ops, waits(&stack));
    stack.store.flush("f").unwrap();
    assert_eq!(stack.resilient.as_ref().unwrap().stats().retries, 1);
    assert_eq!(stack.cache.as_ref().unwrap().dirty_blocks(), 0);
    assert_flushed_to_every_owner(&stack);
    // Each member write was awaited once, the refused two included; the
    // flush's own barrier waits on every member once more.
    let member_writes = (stack.store.io_counters().write_ops - writes) as usize;
    assert_eq!(member_writes, 2 * FLUSH_BLOCKS.len());
    assert_eq!(
        waits(&stack) - waited,
        member_writes + 2 + stack.members.len()
    );
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
    StackBuilder::new(members).dist(DistConfig::new(2))
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
