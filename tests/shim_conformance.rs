//! Shim conformance: one table over every [`FileSystem`] in `lamassu-core`.
//!
//! The stateful shims are one lifecycle scaffold (`Mount<E>`) over three
//! engines, and PlainFS shares its error-mapping, tracing and range-check
//! helpers. Every row of [`ROWS`] is held to the contract that scaffold owns:
//!
//! 1. lifecycle errors — create-existing is `AlreadyExists`; open, stat and
//!    remove of a missing path are `NotFound`; a closed or foreign descriptor
//!    is `BadFd` on every entry point;
//! 2. two descriptors on one path share one state, which outlives the first
//!    close and reaches the store with the last;
//! 3. `remove` invalidates open descriptors;
//! 4. `rename` with an open descriptor and unflushed writes keeps every byte
//!    under the new name, also after a remount;
//! 5. `stat` reports logical and physical size separately;
//! 6. an I/O range ending past `u64::MAX` is an error — never a panic, never
//!    `Ok` — and one ending at a size no host can hold is an error or an
//!    extension the store refuses, never an abort;
//! 7. with a tracer attached, reads, writes, truncates and fsyncs are
//!    recorded as op spans of the right kind;
//! 8. (stateful rows) a failing truncate-on-open and a failing close-time
//!    flush both release the registry pin: the next open reloads from the
//!    store instead of resurrecting the failed state.
//! 9. (stateful rows) a backing object that is empty, shorter than a header
//!    or non-magic garbage, or that the backend claims is larger than any
//!    host could hold, opens as an error or as an empty file — never a
//!    panic or an abort, never bytes.

use lamassu::core::{
    CeFileFs, EncFs, EncFsConfig, FileSystem, FsError, IntegrityMode, LamassuConfig, LamassuFs,
    OpenFlags, PlainFs, Profiler,
};
use lamassu::keymgr::ZoneKeys;
use lamassu::storage::{
    iovec, DedupStore, FaultyStore, IoCounters, ObjectStore, StorageError, StorageProfile,
};
use lamassu::telemetry::{OpKind, Registry, TraceConfig, Tracer};
use std::io::{IoSlice, IoSliceMut};
use std::sync::Arc;
use std::time::Duration;

const BLOCK: u64 = 4096;
const TRUNCATE: OpenFlags = OpenFlags { truncate: true };

type Mounted = (Arc<dyn FileSystem>, Arc<Profiler>);

struct Row {
    name: &'static str,
    mount: fn(Arc<dyn ObjectStore>) -> Mounted,
    /// Whether the shim keeps per-file state between calls (everything but
    /// PlainFS): only then is there a registry pin, or a close-time flush.
    stateful: bool,
    /// Physical size of a 5000-byte file.
    physical_of_5000: u64,
}

fn keys() -> ZoneKeys {
    ZoneKeys {
        zone: 1,
        generation: 0,
        inner: [0x61; 32],
        outer: [0x62; 32],
    }
}

fn mounted<F: FileSystem + 'static>(fs: F, profiler: fn(&F) -> Arc<Profiler>) -> Mounted {
    let profiler = profiler(&fs);
    (Arc::new(fs), profiler)
}

fn lamassu(store: Arc<dyn ObjectStore>, mode: IntegrityMode) -> Mounted {
    let config = LamassuConfig::default().integrity(mode);
    mounted(LamassuFs::new(store, keys(), config), LamassuFs::profiler)
}

const ROWS: &[Row] = &[
    Row {
        name: "PlainFs",
        mount: |store| mounted(PlainFs::new(store), PlainFs::profiler),
        stateful: false,
        physical_of_5000: 5000,
    },
    Row {
        name: "EncFs",
        mount: |store| {
            let fs = EncFs::new(store, [0x77; 32], EncFsConfig::default());
            mounted(fs, EncFs::profiler)
        },
        stateful: true,
        physical_of_5000: 3 * BLOCK, // header + 2 data blocks
    },
    Row {
        name: "CeFileFs",
        mount: |store| mounted(CeFileFs::new(store, keys(), 4096), CeFileFs::profiler),
        stateful: true,
        physical_of_5000: 3 * BLOCK, // header + 2 body blocks
    },
    Row {
        name: "LamassuFs",
        mount: |store| lamassu(store, IntegrityMode::Full),
        stateful: true,
        physical_of_5000: 3 * BLOCK, // metadata block + 2 data blocks
    },
    Row {
        name: "LamassuFs(meta-only)",
        mount: |store| lamassu(store, IntegrityMode::MetaOnly),
        stateful: true,
        physical_of_5000: 3 * BLOCK,
    },
];

fn media() -> Arc<DedupStore> {
    Arc::new(DedupStore::new(BLOCK as usize, StorageProfile::instant()))
}

/// A size no host can allocate: past the address space itself.
const HUGE: u64 = 1 << 50;

/// A backend with sizes of its own. It refuses to grow an object past 1 TiB
/// (a file system's largest file) before the media sees the request, and
/// with `claim` set it reports that length for every object, whatever it
/// holds — an untrusted backend lying about sizes. With `clamp_reads` set it
/// answers a `read_at` past the end with the bytes there are instead of an
/// error — a backend breaking the exact-length contract.
struct SizeLimited {
    media: DedupStore,
    claim: Option<u64>,
    clamp_reads: bool,
}

impl SizeLimited {
    fn new(claim: Option<u64>) -> Arc<SizeLimited> {
        let media = DedupStore::new(BLOCK as usize, StorageProfile::instant());
        Arc::new(SizeLimited {
            media,
            claim,
            clamp_reads: false,
        })
    }

    fn clamping() -> Arc<SizeLimited> {
        let media = DedupStore::new(BLOCK as usize, StorageProfile::instant());
        Arc::new(SizeLimited {
            media,
            claim: None,
            clamp_reads: true,
        })
    }

    fn refuse_past_limit(name: &str, end: u64) -> lamassu::storage::Result<()> {
        if end > 1 << 40 {
            return Err(StorageError::Backend {
                name: name.to_string(),
                detail: "file too large".to_string(),
            });
        }
        Ok(())
    }
}

impl ObjectStore for SizeLimited {
    fn create(&self, name: &str) -> lamassu::storage::Result<()> {
        self.media.create(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.media.exists(name)
    }
    fn read_into_vectored(
        &self,
        name: &str,
        offset: u64,
        bufs: &mut [IoSliceMut<'_>],
    ) -> lamassu::storage::Result<usize> {
        self.media.read_into_vectored(name, offset, bufs)
    }
    fn read_at(&self, name: &str, offset: u64, len: usize) -> lamassu::storage::Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        let n = self.read_into(name, offset, &mut buf)?;
        if n < len && !self.clamp_reads {
            let size = if n > 0 {
                offset + n as u64
            } else {
                self.len(name)?
            };
            return Err(StorageError::OutOfBounds {
                name: name.to_string(),
                offset,
                len,
                size,
            });
        }
        buf.truncate(n);
        Ok(buf)
    }
    fn write_at_vectored(
        &self,
        name: &str,
        offset: u64,
        bufs: &[IoSlice<'_>],
    ) -> lamassu::storage::Result<()> {
        let len = iovec::total_len(bufs) as u64;
        Self::refuse_past_limit(name, offset.saturating_add(len))?;
        self.media.write_at_vectored(name, offset, bufs)
    }
    fn len(&self, name: &str) -> lamassu::storage::Result<u64> {
        let held = self.media.len(name)?;
        Ok(self.claim.unwrap_or(held))
    }
    fn truncate(&self, name: &str, len: u64) -> lamassu::storage::Result<()> {
        Self::refuse_past_limit(name, len)?;
        self.media.truncate(name, len)
    }
    fn remove(&self, name: &str) -> lamassu::storage::Result<()> {
        self.media.remove(name)
    }
    fn rename(&self, from: &str, to: &str) -> lamassu::storage::Result<()> {
        self.media.rename(from, to)
    }
    fn list(&self) -> Vec<String> {
        self.media.list()
    }
    fn flush(&self, name: &str) -> lamassu::storage::Result<()> {
        self.media.flush(name)
    }
    fn io_time(&self) -> Duration {
        self.media.io_time()
    }
    fn io_counters(&self) -> IoCounters {
        self.media.io_counters()
    }
    fn reset_io_accounting(&self) {
        self.media.reset_io_accounting()
    }
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
}

/// Reads the whole file at `path` through a fresh descriptor.
fn read_all(fs: &dyn FileSystem, path: &str) -> Vec<u8> {
    let fd = fs.open(path, OpenFlags::default()).unwrap();
    let bytes = fs.read(fd, 0, usize::MAX / 2).unwrap();
    fs.close(fd).unwrap();
    bytes
}

#[test]
fn lifecycle_errors_are_the_same_on_every_shim() {
    for row in ROWS {
        let name = row.name;
        let (fs, _) = (row.mount)(media());
        let fd = fs.create("/a").unwrap();
        assert!(
            matches!(fs.create("/a"), Err(FsError::AlreadyExists { path }) if path == "/a"),
            "{name}: create-existing"
        );
        assert!(
            matches!(fs.open("/nope", OpenFlags::default()), Err(FsError::NotFound { path }) if path == "/nope"),
            "{name}: open-missing"
        );
        assert!(
            matches!(fs.open("/nope", TRUNCATE), Err(FsError::NotFound { .. })),
            "{name}: open-truncate-missing"
        );
        assert!(
            matches!(fs.stat("/nope"), Err(FsError::NotFound { .. })),
            "{name}: stat-missing"
        );
        assert!(
            matches!(fs.remove("/nope"), Err(FsError::NotFound { path }) if path == "/nope"),
            "{name}: remove-missing"
        );

        fs.close(fd).unwrap();
        for bad in [fd, 2, 9999] {
            let bad_fd =
                |r: Result<(), FsError>| matches!(r, Err(FsError::BadFd { fd }) if fd == bad);
            let mut buf = [0u8; 8];
            assert!(
                bad_fd(fs.read_into(bad, 0, &mut buf).map(drop)),
                "{name}: read {bad}"
            );
            assert!(
                bad_fd(fs.write(bad, 0, b"x").map(drop)),
                "{name}: write {bad}"
            );
            assert!(bad_fd(fs.truncate(bad, 0)), "{name}: truncate {bad}");
            assert!(bad_fd(fs.fsync(bad)), "{name}: fsync {bad}");
            assert!(bad_fd(fs.len(bad).map(drop)), "{name}: len {bad}");
            assert!(bad_fd(fs.close(bad)), "{name}: close {bad}");
        }
    }
}

#[test]
fn descriptors_on_one_path_share_one_state_until_the_last_close() {
    for row in ROWS {
        let name = row.name;
        let store = media();
        let (fs, _) = (row.mount)(store.clone());
        let data = pattern(6000, 1);

        let first = fs.create("/shared").unwrap();
        let second = fs.open("/shared", OpenFlags::default()).unwrap();
        // Unflushed: fewer blocks than any commit threshold.
        fs.write(first, 0, &data).unwrap();
        assert_eq!(fs.len(second).unwrap(), 6000, "{name}");
        assert_eq!(fs.read(second, 0, 6000).unwrap(), data, "{name}");

        // The state outlives the descriptor that wrote it ...
        fs.close(first).unwrap();
        assert_eq!(
            fs.read(second, 100, 500).unwrap(),
            &data[100..600],
            "{name}"
        );
        fs.write(second, 6000, b"tail").unwrap();
        let third = fs.open("/shared", OpenFlags::default()).unwrap();
        assert_eq!(fs.len(third).unwrap(), 6004, "{name}");
        fs.close(second).unwrap();
        // ... and reaches the store by the last close.
        fs.close(third).unwrap();
        let (remount, _) = (row.mount)(store);
        let back = read_all(&*remount, "/shared");
        assert_eq!(&back[..6000], &data[..], "{name}");
        assert_eq!(&back[6000..], b"tail", "{name}");
    }
}

#[test]
fn remove_invalidates_open_descriptors() {
    for row in ROWS {
        let name = row.name;
        let (fs, _) = (row.mount)(media());
        let fd = fs.create("/gone").unwrap();
        fs.write(fd, 0, b"bytes").unwrap();
        fs.remove("/gone").unwrap();
        assert!(matches!(fs.len(fd), Err(FsError::BadFd { .. })), "{name}");
        assert!(
            matches!(fs.write(fd, 0, b"x"), Err(FsError::BadFd { .. })),
            "{name}"
        );
        assert!(
            matches!(
                fs.open("/gone", OpenFlags::default()),
                Err(FsError::NotFound { .. })
            ),
            "{name}"
        );
        assert!(fs.list().unwrap().is_empty(), "{name}");
        // The name is free again, and starts empty.
        let fd = fs.create("/gone").unwrap();
        assert_eq!(fs.len(fd).unwrap(), 0, "{name}");
    }
}

#[test]
fn rename_with_unflushed_writes_keeps_every_byte() {
    for row in ROWS {
        let name = row.name;
        let store = media();
        let (fs, _) = (row.mount)(store.clone());
        let data = pattern(9000, 2);

        let fd = fs.create("/old").unwrap();
        fs.write(fd, 0, &data).unwrap();
        fs.rename("/old", "/new").unwrap();
        assert!(
            matches!(fs.stat("/old"), Err(FsError::NotFound { .. })),
            "{name}"
        );
        assert_eq!(fs.list().unwrap(), vec!["/new".to_string()], "{name}");
        assert_eq!(fs.stat("/new").unwrap().logical_size, 9000, "{name}");

        // The descriptor follows the rename, for reads and further writes.
        assert_eq!(fs.read(fd, 0, 9000).unwrap(), data, "{name}");
        fs.write(fd, 9000, b"after").unwrap();
        assert_eq!(read_all(&*fs, "/new").len(), 9005, "{name}");
        fs.close(fd).unwrap();

        let (remount, _) = (row.mount)(store);
        let back = read_all(&*remount, "/new");
        assert_eq!(&back[..9000], &data[..], "{name}");
        assert_eq!(&back[9000..], b"after", "{name}");
        assert!(
            matches!(
                remount.open("/old", OpenFlags::default()),
                Err(FsError::NotFound { .. })
            ),
            "{name}"
        );
    }
}

#[test]
fn stat_separates_logical_from_physical_size() {
    for row in ROWS {
        let name = row.name;
        let (fs, _) = (row.mount)(media());
        let fd = fs.create("/sized").unwrap();
        fs.write(fd, 0, &pattern(5000, 3)).unwrap();
        fs.fsync(fd).unwrap();
        let attr = fs.stat("/sized").unwrap();
        assert_eq!(attr.logical_size, 5000, "{name}");
        assert_eq!(attr.physical_size, row.physical_of_5000, "{name}");
        assert_eq!(fs.len(fd).unwrap(), 5000, "{name}");
    }
}

#[test]
fn a_range_ending_past_u64_max_is_an_error() {
    for row in ROWS {
        let name = row.name;
        let (fs, _) = (row.mount)(SizeLimited::new(None));
        let fd = fs.create("/wrap").unwrap();
        fs.write(fd, 0, b"contents").unwrap();
        for offset in [u64::MAX, u64::MAX - 10, u64::MAX - 99] {
            let mut buf = [0u8; 100];
            assert!(
                fs.read_into(fd, offset, &mut buf).is_err(),
                "{name}: read at {offset}"
            );
            assert!(
                fs.write(fd, offset, &[0u8; 100]).is_err(),
                "{name}: write at {offset}"
            );
        }
        // The failed calls changed nothing.
        assert_eq!(fs.len(fd).unwrap(), 8, "{name}");
        assert_eq!(fs.read(fd, 0, 100).unwrap(), b"contents", "{name}");

        // A size the client chose that no host can hold (ROADMAP 4(c)): an
        // error, or a sparse extension the store then refuses — never an
        // abort. A call that fails leaves the size as it was.
        let grown = fs.write(fd, HUGE, b"x").map(drop);
        let want = if grown.is_ok() { HUGE + 1 } else { 8 };
        assert_eq!(fs.len(fd).unwrap(), want, "{name}: write at {HUGE}");
        let grown = fs.truncate(fd, HUGE);
        let want = if grown.is_ok() { HUGE } else { want };
        assert_eq!(fs.len(fd).unwrap(), want, "{name}: truncate to {HUGE}");
    }
}

#[test]
fn an_attached_tracer_records_data_ops_on_every_shim() {
    for row in ROWS {
        let name = row.name;
        let (fs, profiler) = (row.mount)(media());
        let tracer = Tracer::new(&Registry::new(), TraceConfig::default());
        profiler.attach_tracer(tracer.clone());

        let fd = fs.create("/traced").unwrap();
        fs.write(fd, 0, &pattern(8192, 4)).unwrap();
        fs.fsync(fd).unwrap();
        let mut buf = vec![0u8; 8192];
        fs.read_into(fd, 0, &mut buf).unwrap();
        fs.truncate(fd, 4096).unwrap();

        assert_eq!(tracer.ops(), 4, "{name}");
        let kinds: Vec<OpKind> = tracer.recent().iter().map(|r| r.op).collect();
        assert_eq!(
            kinds,
            [OpKind::Write, OpKind::Fsync, OpKind::Read, OpKind::Truncate],
            "{name}"
        );
        for record in tracer.recent() {
            assert_eq!(record.file(), "/traced", "{name}");
            let moved = matches!(record.op, OpKind::Read | OpKind::Write);
            assert_eq!(record.bytes, if moved { 8192 } else { 0 }, "{name}");
        }
    }
}

/// What a second client leaves at `path` while the first one's store is
/// down: the mount under test can only see it by reloading from the store.
fn overwrite_out_of_band(row: &Row, store: Arc<dyn ObjectStore>, path: &str, data: &[u8]) {
    let (other, _) = (row.mount)(store);
    let fd = other.open(path, TRUNCATE).unwrap();
    other.write(fd, 0, data).unwrap();
    other.close(fd).unwrap();
}

#[test]
fn a_failed_truncate_on_open_or_close_flush_releases_the_pin() {
    for row in ROWS.iter().filter(|row| row.stateful) {
        let name = row.name;
        let faulty = Arc::new(FaultyStore::new(media()));
        let (fs, _) = (row.mount)(faulty.clone());
        let fresh = pattern(3000, 6);

        // Truncate-on-open fails at its first write.
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, &pattern(6000, 5)).unwrap();
        fs.close(fd).unwrap();
        faulty.crash_after_writes(0);
        assert!(fs.open("/f", TRUNCATE).is_err(), "{name}: truncating open");
        faulty.disarm();
        overwrite_out_of_band(row, faulty.inner(), "/f", &fresh);
        assert_eq!(
            read_all(&*fs, "/f"),
            fresh,
            "{name}: reopen after failed truncate"
        );

        // The last close fails to flush what it buffered.
        let fd = fs.create("/g").unwrap();
        fs.write(fd, 0, &pattern(5000, 7)).unwrap();
        faulty.crash_after_writes(0);
        assert!(fs.close(fd).is_err(), "{name}: close with a failing flush");
        assert!(matches!(fs.len(fd), Err(FsError::BadFd { .. })), "{name}");
        faulty.disarm();
        overwrite_out_of_band(row, faulty.inner(), "/g", &fresh);
        assert_eq!(
            read_all(&*fs, "/g"),
            fresh,
            "{name}: reopen after failed close"
        );
    }
}

#[test]
fn a_short_or_garbage_backing_object_is_an_error_or_an_empty_file_never_a_panic() {
    // Decoder hardening (ROADMAP 4(c)): whatever the untrusted backend holds
    // under a name, open/stat/read answer with an error or — where the bytes
    // are what `create` itself leaves behind, or too few to hold a single
    // metadata block — with an empty file. Never a panic, never bytes.
    let garbage = pattern(2 * BLOCK as usize + 17, 0xab);
    // (what, bytes, claimed length,
    //  is an error on EncFs / CeFileFs / LamassuFs / meta-only)
    type Case = (&'static str, Vec<u8>, Option<u64>, [bool; 4]);
    let cases: [Case; 5] = [
        ("an empty object", vec![], None, [true, false, false, false]),
        (
            "10 bytes",
            pattern(10, 0x22),
            None,
            [true, true, false, false],
        ),
        (
            "79 bytes",
            pattern(79, 0x11),
            None,
            [true, true, false, false],
        ),
        ("non-magic garbage", garbage, None, [true; 4]),
        // A length the backend claims that no host could hold in memory:
        // CeFileFS sizes its whole body from it.
        (
            "a 1 PiB claim",
            vec![],
            Some(HUGE),
            [true, true, false, false],
        ),
    ];
    for (what, bytes, claim, is_err) in &cases {
        for (row, &is_err) in ROWS.iter().filter(|r| r.stateful).zip(is_err) {
            let name = row.name;
            let store = SizeLimited::new(*claim);
            store.create("/g").unwrap();
            store.write_at("/g", 0, bytes).unwrap();
            let (fs, _) = (row.mount)(store);
            let read = fs
                .open("/g", OpenFlags::default())
                .and_then(|fd| fs.read(fd, 0, 2 * BLOCK as usize));
            match read {
                Err(_) => assert!(is_err, "{name}: {what} should open as an empty file"),
                Ok(got) => assert!(!is_err && got.is_empty(), "{name}: {what} read {got:?}"),
            }
            assert_eq!(fs.stat("/g").is_err(), is_err, "{name}: stat of {what}");
        }
    }
}

#[test]
fn an_encfs_object_shorter_than_its_header_is_a_metadata_error() {
    // Decoder hardening (ROADMAP 4(c)): an EncFS object created but never
    // initialised, or cut short by the backend, holds fewer bytes than the
    // 80-byte header — here on a store that answers reads past the end with
    // the bytes it has. Opening it is a metadata error, never a panic.
    for len in [0, 10] {
        let store = SizeLimited::clamping();
        store.create("/h").unwrap();
        store.write_at("/h", 0, &pattern(len, 0x33)).unwrap();
        let fs = EncFs::new(store, [0x77; 32], EncFsConfig::default());
        match fs.open("/h", OpenFlags::default()) {
            Err(FsError::Metadata(_)) => {}
            other => panic!("a {len}-byte object opened as {other:?}"),
        }
    }
}
