//! Format v1 read compatibility: files written before the v2 block hash
//! still read, verify, take writes and stay v1.
//!
//! `tests/fixtures/v1-store/` is a `DirStore` directory holding one object,
//! `/v1.dat`, written by the last v1 commit (f67d087) with the keys and
//! geometry below: 1 KiB blocks, `R` = 2, so 28 data blocks per segment.
//! Blocks 0..5 were written and synced (block 3 repeats block 0), then
//! blocks 30..33 and the first 300 bytes of block 57, then closed — three
//! segments, holes in each, a partial last block. Every test works on a
//! private copy of the directory.

use lamassu::core::{FileSystem, FsError, LamassuConfig, LamassuFs};
use lamassu::crypto::gcm::Aes256Gcm;
use lamassu::crypto::kdf::HashVersion;
use lamassu::format::{FormatError, Geometry};
use lamassu::keymgr::ZoneKeys;
use lamassu::storage::{DirStore, StorageProfile};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const BS: usize = 1024;
const PATH: &str = "/v1.dat";
const KEYS: ZoneKeys = ZoneKeys {
    zone: 9,
    generation: 0,
    inner: [0x1d; 32],
    outer: [0xe7; 32],
};

fn geometry() -> Geometry {
    Geometry::new(BS, 2).unwrap()
}

/// The bytes the generator wrote into block `b`.
fn pattern(b: usize) -> Vec<u8> {
    let b = if b == 3 { 0 } else { b };
    (0..BS)
        .map(|i| (i * 7 + b * 13 + (i >> 8) * 29 + 1) as u8)
        .collect()
}

/// The fixture's contents.
fn model() -> Vec<u8> {
    let mut data = vec![0u8; 57 * BS + 300];
    for b in (0..5).chain(30..33) {
        data[b * BS..(b + 1) * BS].copy_from_slice(&pattern(b));
    }
    data[57 * BS..].copy_from_slice(&pattern(57)[..300]);
    data
}

/// A private copy of the fixture store.
fn fixture_copy(tag: &str) -> PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1-store");
    let dir = std::env::temp_dir().join(format!("lamassu-v1-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    dir
}

fn mount(dir: &Path) -> LamassuFs {
    let store = Arc::new(DirStore::open(dir, StorageProfile::instant()).unwrap());
    let config = LamassuConfig {
        geometry: geometry(),
        ..LamassuConfig::default()
    };
    LamassuFs::new(store, KEYS, config)
}

fn read_all(fs: &LamassuFs, path: &str) -> Vec<u8> {
    let fd = fs.open(path, Default::default()).unwrap();
    let len = fs.len(fd).unwrap() as usize;
    let data = fs.read(fd, 0, len).unwrap();
    fs.close(fd).unwrap();
    data
}

#[test]
fn v1_fixture_reads_back_and_verifies_clean() {
    let dir = fixture_copy("read");
    let fs = mount(&dir);
    assert_eq!(fs.format_version(PATH).unwrap(), HashVersion::V1);
    let want = model();
    assert_eq!(read_all(&fs, PATH), want);
    // Block by block too: every lone read runs the §2.5 check on v1's hash.
    let fd = fs.open(PATH, Default::default()).unwrap();
    for (b, block) in want.chunks(BS).enumerate() {
        assert_eq!(fs.read(fd, (b * BS) as u64, block.len()).unwrap(), block);
    }
    fs.close(fd).unwrap();
    let report = fs.verify(PATH).unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.metadata_blocks_checked, 3);
    assert_eq!(report.data_blocks_checked, 58);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn a_v1_file_stays_v1_through_writes_and_new_files_are_v2() {
    let dir = fixture_copy("write");
    let mut want = model();
    {
        let fs = mount(&dir);
        let fd = fs.open(PATH, Default::default()).unwrap();
        // Overwrite a block, fill a hole, and grow the file into a fourth
        // segment (v1 too: the file keeps its version).
        for b in [1usize, 20, 90] {
            let block: Vec<u8> = pattern(b).iter().rev().copied().collect();
            fs.write(fd, (b * BS) as u64, &block).unwrap();
            want.resize(want.len().max((b + 1) * BS), 0);
            want[b * BS..(b + 1) * BS].copy_from_slice(&block);
        }
        fs.close(fd).unwrap();

        let fd = fs.create("/v2.dat").unwrap();
        fs.write(fd, 0, &want).unwrap();
        fs.close(fd).unwrap();
    }
    let fs = mount(&dir);
    assert_eq!(fs.format_version(PATH).unwrap(), HashVersion::V1);
    assert_eq!(fs.format_version("/v2.dat").unwrap(), HashVersion::V2);
    for path in [PATH, "/v2.dat"] {
        assert_eq!(read_all(&fs, path), want, "{path}");
        let report = fs.verify(path).unwrap();
        assert!(report.is_clean(), "{path}: {report:?}");
        assert_eq!(report.metadata_blocks_checked, 4, "{path}");
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// Re-seals segment `segment`'s metadata block of `/v1.dat` with its
/// version field set to `number` — a change only a holder of the outer key
/// can make, so it stands for a bug or a future version, not an attacker.
fn set_version(dir: &Path, segment: usize, number: u16) {
    let file = dir.join("%2Fv1.dat");
    let mut bytes = std::fs::read(&file).unwrap();
    let seg_bytes = (geometry().keys_per_metadata_block() + 1) * BS;
    let block = &mut bytes[segment * seg_bytes..segment * seg_bytes + BS];
    let nonce: [u8; 12] = block[..12].try_into().unwrap();
    let tag: [u8; 16] = block[16..32].try_into().unwrap();
    let mut aad = b"lamassu-v1-seg-".to_vec();
    aad.extend_from_slice(&(segment as u64).to_le_bytes());
    let gcm = Aes256Gcm::new(&KEYS.outer);
    let region = &mut block[32..];
    gcm.decrypt_in_place(&nonce, &aad, region, &tag).unwrap();
    assert_eq!(region[12..14], 1u16.to_le_bytes(), "the fixture is v1");
    region[12..14].copy_from_slice(&number.to_le_bytes());
    let tag = gcm.encrypt_in_place(&nonce, &aad, region);
    block[16..32].copy_from_slice(&tag);
    std::fs::write(file, bytes).unwrap();
}

#[test]
fn a_doctored_version_field_fails_loudly() {
    // An unknown version in segment 0: the file does not open.
    let dir = fixture_copy("unknown");
    set_version(&dir, 0, 3);
    let fs = mount(&dir);
    match fs.open(PATH, Default::default()) {
        Err(FsError::Metadata(FormatError::UnknownVersion { number: 3 })) => {}
        other => panic!("opened a file of unknown version: {other:?}"),
    }
    std::fs::remove_dir_all(dir).unwrap();

    // A known version in the wrong place — segment 1 says v2 in a v1 file:
    // its blocks do not read and verify names the segment.
    let dir = fixture_copy("mixed");
    set_version(&dir, 1, 2);
    let fs = mount(&dir);
    let fd = fs.open(PATH, Default::default()).unwrap();
    assert_eq!(fs.read(fd, 0, BS).unwrap(), pattern(0), "segment 0 is fine");
    match fs.read(fd, (30 * BS) as u64, BS) {
        Err(FsError::Metadata(FormatError::VersionMismatch {
            file: 1,
            segment: 2,
        })) => {}
        other => panic!("read a mixed-version segment: {other:?}"),
    }
    fs.close(fd).unwrap();
    let report = fs.verify(PATH).unwrap();
    assert_eq!(report.corrupt_metadata_blocks, [1]);
    std::fs::remove_dir_all(dir).unwrap();
}
