//! Unit tests for the LamassuFS shim.

use super::*;
use crate::fs::OpenFlags;
use lamassu_storage::{DedupStore, FaultyStore, StorageProfile};

fn keys(inner: u8, outer: u8) -> ZoneKeys {
    ZoneKeys {
        zone: 1,
        generation: 0,
        inner: [inner; 32],
        outer: [outer; 32],
    }
}

fn store() -> Arc<DedupStore> {
    Arc::new(DedupStore::new(4096, StorageProfile::instant()))
}

fn mount_on(store: Arc<DedupStore>) -> LamassuFs {
    LamassuFs::new(store, keys(1, 2), LamassuConfig::default())
}

fn mount() -> (Arc<DedupStore>, LamassuFs) {
    let s = store();
    let fs = mount_on(s.clone());
    (s, fs)
}

/// Deterministic pseudo-random buffer (unique, non-repeating blocks).
fn unique_data(len: usize, seed: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    while out.len() < len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(len);
    out
}

#[test]
fn small_write_read_round_trip() {
    let (_s, fs) = mount();
    let fd = fs.create("/f").unwrap();
    fs.write(fd, 0, b"attack at dawn").unwrap();
    assert_eq!(fs.read(fd, 0, 14).unwrap(), b"attack at dawn");
    assert_eq!(fs.read(fd, 7, 100).unwrap(), b"at dawn");
    assert_eq!(fs.len(fd).unwrap(), 14);
}

#[test]
fn multi_block_round_trip_with_unaligned_offsets() {
    let (_s, fs) = mount();
    let fd = fs.create("/f").unwrap();
    let data = unique_data(50_000, 7);
    fs.write(fd, 0, &data).unwrap();
    assert_eq!(fs.read(fd, 0, data.len()).unwrap(), data);
    // Overwrite a range straddling block boundaries.
    fs.write(fd, 4000, &vec![0xccu8; 5000]).unwrap();
    let back = fs.read(fd, 3999, 5002).unwrap();
    assert_eq!(back[0], data[3999]);
    assert_eq!(&back[1..5001], &vec![0xccu8; 5000][..]);
    assert_eq!(back[5001], data[9000]);
}

#[test]
fn read_past_eof_is_clamped() {
    let (_s, fs) = mount();
    let fd = fs.create("/f").unwrap();
    fs.write(fd, 0, &[1u8; 100]).unwrap();
    assert_eq!(fs.read(fd, 0, 1000).unwrap().len(), 100);
    assert!(fs.read(fd, 100, 10).unwrap().is_empty());
    assert!(fs.read(fd, 5000, 10).unwrap().is_empty());
}

#[test]
fn sparse_files_read_zeros_in_holes() {
    let (_s, fs) = mount();
    let fd = fs.create("/f").unwrap();
    // Write far past the start, spanning several segments.
    let offset = 600 * 4096;
    fs.write(fd, offset, b"tail").unwrap();
    fs.fsync(fd).unwrap();
    assert_eq!(fs.len(fd).unwrap(), offset + 4);
    assert_eq!(fs.read(fd, 0, 16).unwrap(), vec![0u8; 16]);
    assert_eq!(fs.read(fd, offset - 8, 8).unwrap(), vec![0u8; 8]);
    assert_eq!(fs.read(fd, offset, 4).unwrap(), b"tail");
}

#[test]
fn data_survives_remount() {
    let s = store();
    let data = unique_data(300_000, 3);
    {
        let fs = mount_on(s.clone());
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, &data).unwrap();
        fs.close(fd).unwrap();
    }
    let fs = mount_on(s);
    let fd = fs.open("/f", OpenFlags::default()).unwrap();
    assert_eq!(fs.len(fd).unwrap(), data.len() as u64);
    assert_eq!(fs.read(fd, 0, data.len()).unwrap(), data);
}

#[test]
fn logical_size_not_multiple_of_block_is_preserved() {
    // §2.3: the final block is zero-padded on disk but the logical size in
    // the final metadata block is authoritative.
    let s = store();
    for size in [1usize, 4095, 4096, 4097, 123_457] {
        let path = format!("/f{size}");
        {
            let fs = mount_on(s.clone());
            let fd = fs.create(&path).unwrap();
            fs.write(fd, 0, &unique_data(size, size as u64)).unwrap();
            fs.close(fd).unwrap();
        }
        let fs = mount_on(s.clone());
        let attr = fs.stat(&path).unwrap();
        assert_eq!(attr.logical_size, size as u64, "size {size}");
        assert_eq!(
            attr.physical_size,
            fs.geometry().encrypted_size(size as u64),
            "physical size for {size}"
        );
    }
}

#[test]
fn ciphertext_on_store_is_not_plaintext() {
    let (s, fs) = mount();
    let fd = fs.create("/f").unwrap();
    let plain = vec![0x41u8; 4096 * 3];
    fs.write(fd, 0, &plain).unwrap();
    fs.fsync(fd).unwrap();
    let raw = s.read_at("/f", 0, s.len("/f").unwrap() as usize).unwrap();
    assert!(!raw.windows(64).any(|w| w == &plain[..64]));
}

#[test]
fn convergence_identical_files_deduplicate() {
    // The core claim (Figure 6): identical plaintext written through two
    // different Lamassu clients sharing the same keys produces identical
    // ciphertext data blocks, so the backend deduplicates them.
    let s = store();
    let data = unique_data(118 * 4096, 11); // exactly one segment of data
    for path in ["/a", "/b"] {
        let fs = mount_on(s.clone());
        let fd = fs.create(path).unwrap();
        fs.write(fd, 0, &data).unwrap();
        fs.close(fd).unwrap();
    }
    let report = s.run_dedup();
    // 2 * (1 metadata + 118 data) blocks; the 118 data blocks dedup across
    // the two files, the metadata blocks never dedup.
    assert_eq!(report.total_blocks, 2 * 119);
    assert_eq!(report.unique_blocks, 118 + 2);
}

#[test]
fn duplicate_blocks_within_a_file_deduplicate() {
    let (s, fs) = mount();
    let fd = fs.create("/f").unwrap();
    fs.write(fd, 0, &vec![0x77u8; 4096 * 50]).unwrap();
    fs.close(fd).unwrap();
    let report = s.run_dedup();
    assert_eq!(report.total_blocks, 51); // 1 metadata + 50 data
    assert_eq!(report.unique_blocks, 2); // 1 metadata + 1 shared data block
}

#[test]
fn different_inner_keys_do_not_deduplicate() {
    // §2.2: the inner key defines the deduplication (isolation) zone.
    let s = store();
    let data = vec![0x5au8; 4096 * 10];
    let fs_a = LamassuFs::new(s.clone(), keys(1, 2), LamassuConfig::default());
    let fs_b = LamassuFs::new(s.clone(), keys(9, 2), LamassuConfig::default());
    for (fs, path) in [(&fs_a, "/a"), (&fs_b, "/b")] {
        let fd = fs.create(path).unwrap();
        fs.write(fd, 0, &data).unwrap();
        fs.close(fd).unwrap();
    }
    let report = s.run_dedup();
    // Within each file the 10 identical blocks dedup to 1, but nothing is
    // shared across the two zones.
    assert_eq!(report.unique_blocks, 2 + 2);
}

#[test]
fn wrong_outer_key_cannot_read_anything() {
    let s = store();
    {
        let fs = LamassuFs::new(s.clone(), keys(1, 2), LamassuConfig::default());
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, b"secret").unwrap();
        fs.close(fd).unwrap();
    }
    let fs = LamassuFs::new(s, keys(1, 3), LamassuConfig::default());
    assert!(matches!(
        fs.open("/f", OpenFlags::default()),
        Err(FsError::Metadata(_))
    ));
}

#[test]
fn open_missing_and_create_existing_fail() {
    let (_s, fs) = mount();
    assert!(matches!(
        fs.open("/nope", OpenFlags::default()),
        Err(FsError::NotFound { .. })
    ));
    fs.create("/f").unwrap();
    assert!(matches!(
        fs.create("/f"),
        Err(FsError::AlreadyExists { .. })
    ));
}

#[test]
fn truncate_shrink_and_regrow() {
    let (_s, fs) = mount();
    let fd = fs.create("/f").unwrap();
    let data = unique_data(20_000, 5);
    fs.write(fd, 0, &data).unwrap();
    fs.truncate(fd, 6000).unwrap();
    assert_eq!(fs.len(fd).unwrap(), 6000);
    assert_eq!(fs.read(fd, 0, 10_000).unwrap(), &data[..6000]);
    // Regrow: the region between 6000 and the new end must read as zeros.
    fs.truncate(fd, 10_000).unwrap();
    assert_eq!(fs.len(fd).unwrap(), 10_000);
    let back = fs.read(fd, 0, 10_000).unwrap();
    assert_eq!(&back[..6000], &data[..6000]);
    assert_eq!(&back[6000..], &vec![0u8; 4000][..]);
}

#[test]
fn truncate_to_zero_and_reuse() {
    let (_s, fs) = mount();
    let fd = fs.create("/f").unwrap();
    fs.write(fd, 0, &unique_data(50_000, 9)).unwrap();
    fs.truncate(fd, 0).unwrap();
    assert_eq!(fs.len(fd).unwrap(), 0);
    assert!(fs.read(fd, 0, 100).unwrap().is_empty());
    fs.write(fd, 0, b"fresh").unwrap();
    assert_eq!(fs.read(fd, 0, 5).unwrap(), b"fresh");
}

#[test]
fn open_truncate_flag_clears_file() {
    let (_s, fs) = mount();
    let fd = fs.create("/f").unwrap();
    fs.write(fd, 0, &[7u8; 9000]).unwrap();
    fs.close(fd).unwrap();
    let fd = fs.open("/f", OpenFlags { truncate: true }).unwrap();
    assert_eq!(fs.len(fd).unwrap(), 0);
}

#[test]
fn rename_and_remove() {
    let (_s, fs) = mount();
    let fd = fs.create("/a").unwrap();
    fs.write(fd, 0, b"contents").unwrap();
    fs.rename("/a", "/b").unwrap();
    assert_eq!(fs.read(fd, 0, 8).unwrap(), b"contents");
    assert!(fs.stat("/a").is_err());
    assert_eq!(fs.stat("/b").unwrap().logical_size, 8);
    fs.remove("/b").unwrap();
    assert!(fs.list().unwrap().is_empty());
    assert!(matches!(fs.read(fd, 0, 1), Err(FsError::BadFd { .. })));
}

#[test]
fn batching_amortizes_metadata_writes() {
    // §2.4: with R reserved slots, one commit (2 metadata writes) covers R
    // data-block writes, so a segment-sized sequential write costs
    // N data writes + 2*ceil(N/R) metadata writes (+1 create). This is the
    // prototype's per-block pipeline; the span pipeline additionally
    // coalesces the data writes (see commit_coalesces_adjacent_data_writes).
    let r = 8usize;
    let s = store();
    let fs = LamassuFs::new(
        s.clone(),
        keys(1, 2),
        LamassuConfig::with_reserved_slots(r)
            .unwrap()
            .span(crate::span::SpanConfig::per_block()),
    );
    let fd = fs.create("/f").unwrap();
    s.reset_io_accounting();
    let blocks = 64usize;
    for i in 0..blocks {
        fs.write(fd, (i * 4096) as u64, &unique_data(4096, i as u64))
            .unwrap();
    }
    fs.fsync(fd).unwrap();
    let writes = s.io_counters().write_ops;
    let expected_meta = 2 * (blocks / r) as u64;
    assert!(
        writes >= blocks as u64 + expected_meta && writes <= blocks as u64 + expected_meta + 2,
        "writes = {writes}, expected about {}",
        blocks as u64 + expected_meta
    );
}

#[test]
fn commit_coalesces_adjacent_data_writes() {
    // 64 sequential 4 KiB writes are less than a span, so they are one
    // commit (the `fsync`'s) of one segment. The blocks are fresh (their
    // slots hold no key), so they take no round of R: their 64 adjacent
    // blocks go out as one vectored store write, and one metadata write
    // installs their keys and the size — 1 data write + 1 metadata write,
    // where the per-block prototype above issues 64 + 16.
    let r = 8usize;
    let s = store();
    let fs = LamassuFs::new(
        s.clone(),
        keys(1, 2),
        LamassuConfig::with_reserved_slots(r).unwrap(),
    );
    let fd = fs.create("/f").unwrap();
    s.reset_io_accounting();
    let blocks = 64usize;
    for i in 0..blocks {
        fs.write(fd, (i * 4096) as u64, &unique_data(4096, i as u64))
            .unwrap();
    }
    assert_eq!(s.io_counters().write_ops, 0, "buffered until the fsync");
    fs.fsync(fd).unwrap();
    assert_eq!(s.io_counters().write_ops, 1 + 1);
    // Coalescing saves round trips, not bytes: every data block is written
    // once, plus one metadata block per metadata write.
    assert_eq!(s.io_counters().bytes_written, (blocks as u64 + 1) * 4096);
}

#[test]
fn commit_counters_match_a_hand_counted_two_segment_commit() {
    // Default geometry: N = 118, R = 8. Twenty blocks across the boundary of
    // segments 0 and 1, committed by one fsync: the 12 in segment 0 take two
    // rounds (three seals), the 8 in segment 1 one round (two seals). The
    // file does not grow, so no size update follows.
    let (_s, fs) = mount();
    let fd = fs.create("/f").unwrap();
    fs.write(fd, 0, &unique_data(130 * 4096, 1)).unwrap();
    fs.fsync(fd).unwrap();
    let before = fs.profiler().commit_stats();
    fs.write(fd, 106 * 4096, &unique_data(20 * 4096, 2))
        .unwrap();
    fs.fsync(fd).unwrap();
    let after = fs.profiler().commit_stats();
    assert_eq!(after.commits - before.commits, 1);
    assert_eq!(after.blocks - before.blocks, 20);
    assert_eq!(after.segments - before.segments, 2);
    assert_eq!(after.seals - before.seals, 3 + 2);
    // Since the mount: the sealed empty file, then 130 fresh blocks in one
    // commit: segment 1, which its data makes the last one on the media, is
    // sealed first, then both segments once to install their keys (1 + 2).
    assert_eq!(before.seals, 1 + 1 + 2);
    assert_eq!(after.seals_per_block(), 9.0 / 150.0);
}

#[test]
fn a_span_commit_leaves_its_segments_open_until_the_next_commit_or_fsync() {
    // Default geometry: N = 118, R = 8, on a three-segment file. A write
    // that fills the span commits without closing: blocks 0..256 are 15 +
    // 15 + 3 rounds in segments 0–2, one metadata and one data write each.
    let (s, fs) = mount();
    let fd = fs.create("/f").unwrap();
    let mut image = unique_data(3 * 118 * 4096, 1);
    fs.write(fd, 0, &image).unwrap();
    fs.fsync(fd).unwrap();
    let mid_update = |want: u64| {
        let report = mount_on(s.clone()).verify("/f").unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.mid_update_segments, want, "{report:?}");
    };
    mid_update(0);

    let mut overwrite = |at: usize, seed: u64| {
        let data = unique_data(256 * 4096, seed);
        fs.write(fd, (at * 4096) as u64, &data).unwrap();
        image.resize(image.len().max((at + 256) * 4096), 0);
        image[at * 4096..(at + 256) * 4096].copy_from_slice(&data);
    };
    s.reset_io_accounting();
    overwrite(0, 2);
    assert_eq!(s.io_counters().write_ops, 33 + 33);
    mid_update(3);
    // Blocks 118..374 reopen segments 1 and 2, whose opening writes close
    // them (15 rounds each), and close segment 0 in the same first phase
    // with one more write. Blocks 354..374 are fresh and start segment 3:
    // its metadata block is written in that first phase too (the data makes
    // it the last segment on the media), its 20 blocks are one data write,
    // and one more metadata write installs their keys — which leaves it
    // closed. Metadata 1 + 15 + 15 + 2, data 15 + 15 + 1.
    s.reset_io_accounting();
    overwrite(118, 3);
    assert_eq!(s.io_counters().write_ops, (1 + 15 + 15 + 2) + (15 + 15 + 1));
    mid_update(2);
    // The `fsync` has nothing to commit and closes segments 1 and 2; a
    // second one has nothing to do.
    s.reset_io_accounting();
    fs.fsync(fd).unwrap();
    assert_eq!(s.io_counters().write_ops, 2);
    fs.fsync(fd).unwrap();
    assert_eq!(s.io_counters().write_ops, 2);
    mid_update(0);
    let other = mount_on(s);
    let back = other.open("/f", OpenFlags::default()).unwrap();
    assert!(other.read(back, 0, image.len()).unwrap() == image);
}

#[test]
fn span_and_per_block_reads_agree_on_random_content() {
    // The two pipelines must be observationally identical; spot-check a
    // multi-segment file at awkward offsets (the property tests cover the
    // full operation space).
    let s = store();
    let data = unique_data(4096 * 130 + 777, 42);
    {
        let fs = LamassuFs::new(s.clone(), keys(1, 2), LamassuConfig::default());
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, &data).unwrap();
        fs.close(fd).unwrap();
    }
    let span = LamassuFs::new(s.clone(), keys(1, 2), LamassuConfig::default());
    let per_block = LamassuFs::new(
        s,
        keys(1, 2),
        LamassuConfig::default().span(crate::span::SpanConfig::per_block()),
    );
    let fd_s = span.open("/f", OpenFlags::default()).unwrap();
    let fd_p = per_block.open("/f", OpenFlags::default()).unwrap();
    for (offset, len) in [
        (0u64, data.len()),
        (1, 4095),
        (4095, 2),
        (4096 * 117, 4096 * 3), // crosses a segment boundary
        (4096 * 118 - 3, 10),   // straddles the metadata block
        (4096 * 129, 4096 * 2), // clamped at EOF
        (100, 4096 * 6 + 50),
    ] {
        let a = span.read(fd_s, offset, len).unwrap();
        let b = per_block.read(fd_p, offset, len).unwrap();
        assert_eq!(a, b, "offset {offset} len {len}");
    }
}

#[test]
fn r1_writes_three_ios_per_block() {
    // §2.4: "with a single extra slot reserved (R = 1) ... three I/Os for
    // each block write: two for the metadata updates, and one for the data
    // block itself". That sentence describes the prototype, whose write
    // buffer is its R transient slots: the per-block pipeline commits every
    // block on its own. Neither pipeline reads the store: a segment the
    // commit itself left mid-update is not a crash to resolve.
    let write_ten_blocks = |span: crate::span::SpanConfig| {
        let s = store();
        let fs = LamassuFs::new(
            s.clone(),
            keys(1, 2),
            LamassuConfig::with_reserved_slots(1).unwrap().span(span),
        );
        let fd = fs.create("/f").unwrap();
        s.reset_io_accounting();
        for i in 0..10u64 {
            fs.write(fd, i * 4096, &unique_data(4096, i)).unwrap();
        }
        fs.fsync(fd).unwrap();
        let io = s.io_counters();
        (io.write_ops, io.read_ops)
    };
    assert_eq!(
        write_ten_blocks(crate::span::SpanConfig::per_block()),
        (30, 0)
    );
    // The pipeline buffers the ten blocks and commits them together. They
    // are fresh — appended, with no previous key to park — so R plays no
    // part: one data write of the ten adjacent blocks, then one metadata
    // write installing their keys.
    assert_eq!(
        write_ten_blocks(crate::span::SpanConfig::default()),
        (1 + 1, 0)
    );
}

#[test]
fn integrity_violation_detected_on_corrupted_data_block() {
    let (s, fs) = mount();
    let fd = fs.create("/f").unwrap();
    fs.write(fd, 0, &unique_data(4096 * 4, 1)).unwrap();
    fs.fsync(fd).unwrap();
    // Corrupt the third data block (physical block 3) behind Lamassu's back.
    let geom = fs.geometry();
    let offset = geom.locate_block(2).physical_offset;
    let mut block = s.read_at("/f", offset, 4096).unwrap();
    block[100] ^= 0xff;
    s.write_at("/f", offset, &block).unwrap();

    // A fresh mount (no caches) with full integrity checking must detect it.
    let fs = mount_on(s.clone());
    let fd2 = fs.open("/f", OpenFlags::default()).unwrap();
    assert!(fs.read(fd2, 0, 4096).is_ok(), "untouched block still reads");
    assert!(matches!(
        fs.read(fd2, 2 * 4096, 4096),
        Err(FsError::IntegrityViolation {
            logical_block: 2,
            ..
        })
    ));
    // The meta-only variant does not notice (by design, §4.2).
    let fs_meta = LamassuFs::new(
        s,
        keys(1, 2),
        LamassuConfig::default().integrity(IntegrityMode::MetaOnly),
    );
    let fd3 = fs_meta.open("/f", OpenFlags::default()).unwrap();
    assert!(fs_meta.read(fd3, 2 * 4096, 4096).is_ok());
    let _ = fd;
}

#[test]
fn metadata_tampering_detected_even_in_meta_only_mode() {
    let (s, fs) = mount();
    let fd = fs.create("/f").unwrap();
    fs.write(fd, 0, &unique_data(4096 * 4, 2)).unwrap();
    fs.fsync(fd).unwrap();
    let _ = fd;
    // Corrupt the segment-0 metadata block.
    let mut mb = s.read_at("/f", 0, 4096).unwrap();
    mb[200] ^= 1;
    s.write_at("/f", 0, &mb).unwrap();

    let fs = LamassuFs::new(
        s,
        keys(1, 2),
        LamassuConfig::default().integrity(IntegrityMode::MetaOnly),
    );
    assert!(matches!(
        fs.open("/f", OpenFlags::default()),
        Err(FsError::Metadata(_))
    ));
}

#[test]
fn verify_reports_corruption_without_failing() {
    let (s, fs) = mount();
    let fd = fs.create("/f").unwrap();
    fs.write(fd, 0, &unique_data(4096 * 10, 3)).unwrap();
    fs.fsync(fd).unwrap();
    let geom = fs.geometry();
    for block in [1u64, 5] {
        let offset = geom.locate_block(block).physical_offset;
        let mut data = s.read_at("/f", offset, 4096).unwrap();
        data[0] ^= 0xaa;
        s.write_at("/f", offset, &data).unwrap();
    }
    // A meta-only mount skips the §2.5 check on reads, but `verify` forces
    // it: both report exactly the two flipped blocks.
    for integrity in [IntegrityMode::Full, IntegrityMode::MetaOnly] {
        let config = LamassuConfig::default().integrity(integrity);
        let fs = LamassuFs::new(s.clone(), keys(1, 2), config);
        let report = fs.verify("/f").unwrap();
        assert_eq!(report.data_blocks_checked, 10, "{integrity:?}");
        assert_eq!(report.metadata_blocks_checked, 1, "{integrity:?}");
        assert_eq!(report.corrupt_data_blocks, vec![1, 5], "{integrity:?}");
        assert!(!report.is_clean(), "{integrity:?}");
    }
}

#[test]
fn verify_clean_file_is_clean() {
    let (_s, fs) = mount();
    let fd = fs.create("/f").unwrap();
    fs.write(fd, 0, &unique_data(30_000, 4)).unwrap();
    let report = fs.verify("/f").unwrap();
    assert!(report.is_clean());
    assert_eq!(report.data_blocks_checked, 8);
    assert_eq!(report.mid_update_segments, 0);
}

#[test]
fn crash_between_metadata_and_data_write_recovers_old_contents() {
    // Crash after phase 1 (metadata marked mid-update, new keys staged) but
    // before the data block reaches disk: recovery must restore the old key
    // and the old contents must read back.
    let s = store();
    let old = unique_data(4096, 100);
    let new = unique_data(4096, 200);
    {
        let fs = mount_on(s.clone());
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, &old).unwrap();
        fs.fsync(fd).unwrap();
    }
    // Remount over a faulty store that dies right after the next metadata
    // write (phase 1 of the overwrite commit).
    let faulty = Arc::new(FaultyStore::new(s.clone()));
    {
        let fs = LamassuFs::new(faulty.clone(), keys(1, 2), LamassuConfig::default());
        let fd = fs.open("/f", OpenFlags::default()).unwrap();
        fs.write(fd, 0, &new).unwrap();
        faulty.crash_after_writes(1); // allow only the phase-1 metadata write
        assert!(fs.fsync(fd).is_err());
    }
    // Recover on the surviving media.
    let fs = mount_on(s);
    let report = fs.recover("/f").unwrap();
    assert_eq!(report.segments_repaired, 1);
    assert_eq!(report.blocks_restored_old, 1);
    let fd = fs.open("/f", OpenFlags::default()).unwrap();
    assert_eq!(fs.read(fd, 0, 4096).unwrap(), old);
    assert!(fs.verify("/f").unwrap().is_clean());
}

#[test]
fn crash_after_data_write_recovers_new_contents() {
    // Crash after phase 2 (data written) but before phase 3 (flag cleared):
    // recovery must keep the new key and the new contents must read back.
    let s = store();
    let old = unique_data(4096, 101);
    let new = unique_data(4096, 201);
    {
        let fs = mount_on(s.clone());
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, &old).unwrap();
        fs.fsync(fd).unwrap();
    }
    let faulty = Arc::new(FaultyStore::new(s.clone()));
    {
        let fs = LamassuFs::new(faulty.clone(), keys(1, 2), LamassuConfig::default());
        let fd = fs.open("/f", OpenFlags::default()).unwrap();
        fs.write(fd, 0, &new).unwrap();
        faulty.crash_after_writes(2); // metadata + data, then die
        assert!(fs.fsync(fd).is_err());
    }
    let fs = mount_on(s);
    let report = fs.recover("/f").unwrap();
    assert_eq!(report.segments_repaired, 1);
    assert_eq!(report.blocks_kept_new, 1);
    let fd = fs.open("/f", OpenFlags::default()).unwrap();
    assert_eq!(fs.read(fd, 0, 4096).unwrap(), new);
    assert!(fs.verify("/f").unwrap().is_clean());
}

#[test]
fn crash_on_brand_new_block_clears_the_slot() {
    // A block written for the first time whose data never reached disk: the
    // transient entry records an all-zero old key, so recovery clears the
    // slot and the block reads as a hole. Only the per-block prototype parks
    // a brand-new block in the transient area; the span pipeline's case is
    // the next test.
    let s = store();
    let faulty = Arc::new(FaultyStore::new(s.clone()));
    let per_block = LamassuConfig::default().span(crate::span::SpanConfig::per_block());
    {
        let fs = LamassuFs::new(faulty.clone(), keys(1, 2), per_block);
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, &unique_data(4096, 55)).unwrap();
        faulty.crash_after_writes(1);
        assert!(fs.fsync(fd).is_err());
    }
    let fs = mount_on(s);
    let report = fs.recover("/f").unwrap();
    assert_eq!(report.blocks_cleared, 1);
    assert!(fs.verify("/f").unwrap().is_clean());
}

#[test]
fn a_fresh_block_whose_keys_never_landed_is_a_hole_with_nothing_to_recover() {
    // The span pipeline writes a fresh block's data first and installs its
    // key after the barrier. A crash between the two leaves the slot empty
    // and the file its old length: nothing names the block, so recovery has
    // nothing to repair, and the block of a longer file reads as zeros.
    let s = store();
    let old = unique_data(3 * 4096, 56);
    {
        let fs = mount_on(s.clone());
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, &old).unwrap();
        fs.write(fd, 4 * 4096, &old[..4096]).unwrap();
        fs.close(fd).unwrap();
    }
    let faulty = Arc::new(FaultyStore::new(s.clone()));
    {
        let fs = LamassuFs::new(faulty.clone(), keys(1, 2), LamassuConfig::default());
        let fd = fs.open("/f", OpenFlags::default()).unwrap();
        // Fill the hole at block 3 and append block 5.
        fs.write(fd, 3 * 4096, &unique_data(4096, 57)).unwrap();
        fs.write(fd, 5 * 4096, &unique_data(4096, 58)).unwrap();
        faulty.crash_after_writes(2); // both data writes land, the install does not
        assert!(fs.fsync(fd).is_err());
    }
    let fs = mount_on(s);
    let report = fs.recover("/f").unwrap();
    assert_eq!(report.segments_repaired, 0, "{report:?}");
    assert!(fs.verify("/f").unwrap().is_clean());
    let fd = fs.open("/f", OpenFlags::default()).unwrap();
    assert_eq!(fs.len(fd).unwrap(), 5 * 4096);
    let mut want = old.clone();
    want.extend_from_slice(&[0; 4096]);
    want.extend_from_slice(&old[..4096]);
    assert_eq!(fs.read(fd, 0, 5 * 4096).unwrap(), want);
}

/// What a reader sees of every block of `/f`: the bytes, or "unreadable".
fn block_views(fs: &LamassuFs, blocks: usize) -> Vec<Option<Vec<u8>>> {
    let fd = fs.open("/f", OpenFlags::default()).unwrap();
    let views = (0..blocks)
        .map(|b| fs.read(fd, (b * 4096) as u64, 4096).ok())
        .collect();
    fs.close(fd).unwrap();
    views
}

#[test]
fn failed_flush_leaves_nothing_half_pending_in_any_phase() {
    // One write of 8 blocks across a segment boundary at R = 2 (N = 124),
    // acknowledged into the write buffer and committed by the `fsync`: three
    // blocks in segment 0 (two rounds), five in segment 1 (three rounds).
    // The pipeline issues, in order, metadata x2, data x2,
    // metadata x2 (merged), data x2, metadata x2 (segment 0 closing, segment
    // 1 merged), data x1, metadata x1 (closing) = 12 writes. Fail each of
    // them in turn — so the failure lands in an opening metadata phase, a
    // data phase, a merged metadata phase and the closing metadata phase.
    // The FaultyStore parks every completion and releases them newest-first
    // at the barrier.
    const BLOCKS: usize = 130;
    const WRITES: u64 = 12;
    let old = unique_data(BLOCKS * 4096, 300);
    let new = unique_data(8 * 4096, 301);
    let first = 121usize;
    let config = LamassuConfig::with_reserved_slots(2).unwrap();
    for fail_at in 0..=WRITES {
        let s = store();
        {
            let fs = LamassuFs::new(s.clone(), keys(1, 2), config);
            let fd = fs.create("/f").unwrap();
            fs.write(fd, 0, &old).unwrap();
            fs.close(fd).unwrap();
        }
        let faulty = Arc::new(FaultyStore::new(s.clone()));
        let fs = LamassuFs::new(faulty.clone(), keys(1, 2), config);
        let fd = fs.open("/f", OpenFlags::default()).unwrap();
        let before = s.io_counters().write_ops;
        faulty.crash_after_writes(fail_at);
        fs.write(fd, (first * 4096) as u64, &new)
            .expect("eight blocks only fill the buffer");
        assert_eq!(s.io_counters().write_ops, before, "buffered");
        let outcome = fs.fsync(fd);
        if fail_at == WRITES {
            outcome.unwrap();
            assert_eq!(s.io_counters().write_ops - before, WRITES);
            continue;
        }
        assert!(
            outcome.is_err(),
            "failing write {fail_at} must fail the fsync"
        );
        faulty.disarm();

        // The mount that saw the failure and a fresh mount over the same
        // media must agree on every block: nothing of the failed flush is
        // served from the write buffer or from a stale metadata cache.
        let here = block_views(&fs, BLOCKS);
        let fresh = block_views(&LamassuFs::new(s.clone(), keys(1, 2), config), BLOCKS);
        assert_eq!(
            here.iter().zip(&fresh).position(|(a, b)| a != b),
            None,
            "first block the two mounts disagree on after failing write {fail_at}"
        );

        // Recovery on the same mount settles every block to old or new,
        // and the file takes writes again.
        fs.recover("/f").unwrap();
        let report = fs.verify("/f").unwrap();
        assert!(report.is_clean() && report.mid_update_segments == 0);
        for (b, view) in block_views(&fs, BLOCKS).into_iter().enumerate() {
            let got = view.expect("readable after recovery");
            let is_old = got == old[b * 4096..(b + 1) * 4096];
            let is_new = (first..first + 8).contains(&b)
                && got == new[(b - first) * 4096..(b - first + 1) * 4096];
            assert!(is_old || is_new, "block {b} after write {fail_at}");
        }
        fs.write(fd, 0, &new[..4096]).unwrap();
        fs.fsync(fd).unwrap();
        assert_eq!(fs.read(fd, 0, 4096).unwrap(), &new[..4096]);
    }
}

#[test]
fn failed_flush_drops_the_batches_it_never_reached() {
    // 300 pending blocks are two crypto batches (256 + 44). Failing the very
    // first backend write fails batch one; batch two was never attempted and
    // must not linger in the write buffer either.
    const BLOCKS: usize = 300;
    let s = store();
    let old = unique_data(BLOCKS * 4096, 310);
    {
        let fs = mount_on(s.clone());
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, &old).unwrap();
        fs.close(fd).unwrap();
    }
    let faulty = Arc::new(FaultyStore::new(s.clone()));
    let fs = LamassuFs::new(faulty.clone(), keys(1, 2), LamassuConfig::default());
    let fd = fs.open("/f", OpenFlags::default()).unwrap();
    faulty.crash_after_writes(0);
    assert!(fs.write(fd, 0, &unique_data(BLOCKS * 4096, 311)).is_err());
    faulty.disarm();
    let here = block_views(&fs, BLOCKS);
    let fresh = block_views(&mount_on(s), BLOCKS);
    assert_eq!(here.iter().zip(&fresh).position(|(a, b)| a != b), None);
    assert!(here
        .iter()
        .enumerate()
        .all(|(b, v)| v.as_deref() == Some(&old[b * 4096..(b + 1) * 4096])));
}

#[test]
fn clean_file_recovery_is_a_no_op() {
    let (_s, fs) = mount();
    let fd = fs.create("/f").unwrap();
    fs.write(fd, 0, &unique_data(40_000, 8)).unwrap();
    fs.fsync(fd).unwrap();
    let report = fs.recover("/f").unwrap();
    assert_eq!(report.segments_repaired, 0);
    assert_eq!(report.blocks_kept_new + report.blocks_restored_old, 0);
}

#[test]
fn recover_all_covers_every_object() {
    let (_s, fs) = mount();
    for path in ["/a", "/b", "/c"] {
        let fd = fs.create(path).unwrap();
        fs.write(fd, 0, &unique_data(10_000, 1)).unwrap();
        fs.close(fd).unwrap();
    }
    let reports = fs.recover_all().unwrap();
    assert_eq!(reports.len(), 3);
    assert!(reports.iter().all(|(_, r)| r.segments_repaired == 0));
}

#[test]
fn rekey_outer_preserves_data_and_dedup() {
    // §2.2: rotating only the outer key re-encrypts just the metadata blocks;
    // data blocks are untouched so their ciphertext (and dedup) is stable.
    let s = store();
    let data = unique_data(4096 * 200, 42); // spans two segments
    let old_keys = keys(1, 2);
    let new_keys = ZoneKeys {
        zone: 1,
        generation: 1,
        inner: old_keys.inner,
        outer: [9u8; 32],
    };
    {
        let fs = LamassuFs::new(s.clone(), old_keys, LamassuConfig::default());
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, &data).unwrap();
        fs.close(fd).unwrap();
    }
    let before: Vec<u8> = s
        .read_at("/f", 4096, 4096) // first data block ciphertext
        .unwrap();

    let fs = LamassuFs::new(s.clone(), old_keys, LamassuConfig::default());
    let rewritten = fs.rekey_outer_all(new_keys).unwrap();
    assert_eq!(rewritten, 2, "two metadata blocks re-sealed");

    // Old outer key can no longer open the file; the new one can, and the
    // data block ciphertext did not change.
    let old_mount = LamassuFs::new(s.clone(), old_keys, LamassuConfig::default());
    assert!(old_mount.open("/f", OpenFlags::default()).is_err());
    let new_mount = LamassuFs::new(s.clone(), new_keys, LamassuConfig::default());
    let fd = new_mount.open("/f", OpenFlags::default()).unwrap();
    assert_eq!(new_mount.read(fd, 0, data.len()).unwrap(), data);
    assert_eq!(s.read_at("/f", 4096, 4096).unwrap(), before);
}

#[test]
fn meta_only_mode_reads_like_full_mode_on_clean_data() {
    let s = store();
    let data = unique_data(100_000, 77);
    {
        let fs = mount_on(s.clone());
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, &data).unwrap();
        fs.close(fd).unwrap();
    }
    let fs = LamassuFs::new(
        s,
        keys(1, 2),
        LamassuConfig::default().integrity(IntegrityMode::MetaOnly),
    );
    assert_eq!(fs.kind(), "LamassuFS(meta-only)");
    let fd = fs.open("/f", OpenFlags::default()).unwrap();
    assert_eq!(fs.read(fd, 0, data.len()).unwrap(), data);
}

#[test]
fn various_reserved_slot_counts_round_trip() {
    for r in [1usize, 2, 8, 32, 48, 60] {
        let s = store();
        let fs = LamassuFs::new(
            s.clone(),
            keys(1, 2),
            LamassuConfig::with_reserved_slots(r).unwrap(),
        );
        let data = unique_data(4096 * 150 + 123, r as u64);
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, &data).unwrap();
        fs.close(fd).unwrap();
        let fs2 = LamassuFs::new(
            s,
            keys(1, 2),
            LamassuConfig::with_reserved_slots(r).unwrap(),
        );
        let fd = fs2.open("/f", OpenFlags::default()).unwrap();
        assert_eq!(fs2.read(fd, 0, data.len()).unwrap(), data, "R = {r}");
    }
}

#[test]
fn alternative_block_sizes_round_trip() {
    for bs in [512usize, 1024, 8192] {
        let s = Arc::new(DedupStore::new(bs, StorageProfile::instant()));
        let config = LamassuConfig {
            geometry: lamassu_format::Geometry::new(bs, 4).unwrap(),
            ..LamassuConfig::default()
        };
        let fs = LamassuFs::new(s, keys(1, 2), config);
        let data = unique_data(bs * 40 + 17, bs as u64);
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, &data).unwrap();
        assert_eq!(fs.read(fd, 0, data.len()).unwrap(), data, "bs = {bs}");
    }
}

#[test]
fn space_overhead_matches_geometry_prediction() {
    let (s, fs) = mount();
    let logical = 118 * 4096 * 3; // three full segments
    let fd = fs.create("/f").unwrap();
    fs.write(fd, 0, &unique_data(logical, 1)).unwrap();
    fs.close(fd).unwrap();
    assert_eq!(
        s.len("/f").unwrap(),
        fs.geometry().encrypted_size(logical as u64)
    );
    let overhead = s.len("/f").unwrap() - logical as u64;
    assert_eq!(overhead, 3 * 4096); // one metadata block per segment
}

#[test]
fn stat_and_physical_size() {
    let (_s, fs) = mount();
    let fd = fs.create("/f").unwrap();
    fs.write(fd, 0, &unique_data(10_000, 2)).unwrap();
    fs.fsync(fd).unwrap();
    let attr = fs.stat("/f").unwrap();
    assert_eq!(attr.logical_size, 10_000);
    assert_eq!(attr.physical_size, 4096 * 4); // 1 metadata + 3 data blocks
}

#[test]
fn concurrent_handles_share_state() {
    let (_s, fs) = mount();
    let fd1 = fs.create("/f").unwrap();
    let fd2 = fs.open("/f", OpenFlags::default()).unwrap();
    fs.write(fd1, 0, b"written by fd1").unwrap();
    assert_eq!(fs.read(fd2, 0, 14).unwrap(), b"written by fd1");
    fs.close(fd1).unwrap();
    assert_eq!(fs.read(fd2, 0, 14).unwrap(), b"written by fd1");
}

#[test]
fn kind_reports_integrity_variant() {
    let (_s, fs) = mount();
    assert_eq!(fs.kind(), "LamassuFS");
}

#[test]
fn attached_tracer_spans_every_entry_point() {
    use crate::Category;
    use lamassu_telemetry::{OpKind, Registry, TraceConfig, Tracer};
    let (_s, fs) = mount();
    let registry = Registry::new();
    let tracer = Tracer::new(&registry, TraceConfig::default());
    fs.profiler().attach_tracer(tracer.clone());

    let fd = fs.create("/traced").unwrap();
    let data = unique_data(8192, 7);
    fs.write(fd, 0, &data).unwrap();
    fs.fsync(fd).unwrap();
    let mut buf = vec![0u8; 8192];
    fs.read_into(fd, 0, &mut buf).unwrap();
    fs.truncate(fd, 4096).unwrap();

    assert_eq!(tracer.op_histogram(OpKind::Write).count, 1);
    assert_eq!(tracer.op_histogram(OpKind::Fsync).count, 1);
    assert_eq!(tracer.op_histogram(OpKind::Read).count, 1);
    assert_eq!(tracer.op_histogram(OpKind::Truncate).count, 1);
    let read = tracer
        .recent()
        .into_iter()
        .find(|r| r.op == OpKind::Read)
        .expect("read span retained");
    assert_eq!(read.file(), "/traced");
    assert_eq!(read.bytes, 8192);
    // The profiler's category charges became the span's child phases: a
    // full-integrity read must show decrypt + get_ce_key + io time.
    assert!(read.phases_ns[Category::Decrypt as usize] > 0);
    assert!(read.phases_ns[Category::GetCeKey as usize] > 0);
    assert!(read.phases_ns[Category::Io as usize] > 0);
}

#[test]
fn untraced_mounts_record_category_histograms_only() {
    use crate::Category;
    let (_s, fs) = mount();
    let fd = fs.create("/quiet").unwrap();
    fs.write(fd, 0, &unique_data(4096, 9)).unwrap();
    fs.fsync(fd).unwrap();
    assert!(fs.profiler().tracer().is_none());
    let hist = fs.profiler().category_histogram(Category::Encrypt);
    assert!(hist.count > 0, "histograms are always on");
}
