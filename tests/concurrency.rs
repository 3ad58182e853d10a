//! Concurrency tests: several client threads drive one mount at once, as the
//! paper's multi-host / multi-application deployment implies.

use lamassu::cache::{CacheConfig, CacheMode, CachedStore};
use lamassu::core::{
    CeFileFs, EncFs, EncFsConfig, FileSystem, LamassuConfig, LamassuFs, OpenFlags, PlainFs,
};
use lamassu::keymgr::ZoneKeys;
use lamassu::storage::{DedupStore, IoCounters, ObjectStore, Result, StorageProfile};
use std::io::{IoSlice, IoSliceMut};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

fn keys() -> ZoneKeys {
    ZoneKeys {
        zone: 1,
        generation: 0,
        inner: [0x61; 32],
        outer: [0x62; 32],
    }
}

#[test]
fn parallel_writers_to_distinct_files() {
    let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
    let fs = Arc::new(LamassuFs::new(
        store.clone(),
        keys(),
        LamassuConfig::default(),
    ));

    let threads: Vec<_> = (0..8)
        .map(|t| {
            let fs = fs.clone();
            thread::spawn(move || {
                let path = format!("/thread-{t}.bin");
                let fd = fs.create(&path).unwrap();
                let payload: Vec<u8> = (0..200_000u32).map(|i| (i as u8).wrapping_add(t)).collect();
                for chunk in payload.chunks(7000).enumerate() {
                    fs.write(fd, (chunk.0 * 7000) as u64, chunk.1).unwrap();
                }
                fs.fsync(fd).unwrap();
                assert_eq!(fs.read(fd, 0, payload.len()).unwrap(), payload);
                fs.close(fd).unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().expect("writer thread");
    }

    // Every file is intact and verifies clean after the concurrent run.
    let mut listed = fs.list().unwrap();
    listed.sort();
    assert_eq!(listed.len(), 8);
    for path in listed {
        assert!(fs.verify(&path).unwrap().is_clean(), "{path}");
    }
}

#[test]
fn parallel_readers_on_one_file() {
    let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
    let fs = Arc::new(LamassuFs::new(store, keys(), LamassuConfig::default()));
    let payload: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
    let fd = fs.create("/shared.bin").unwrap();
    fs.write(fd, 0, &payload).unwrap();
    fs.fsync(fd).unwrap();

    let threads: Vec<_> = (0..8)
        .map(|t| {
            let fs = fs.clone();
            let payload = payload.clone();
            thread::spawn(move || {
                let fd = fs.open("/shared.bin", OpenFlags::default()).unwrap();
                for i in 0..32u64 {
                    let offset = ((t as u64 * 31 + i * 997) * 31) % (payload.len() as u64 - 1);
                    let len = 5000.min(payload.len() - offset as usize);
                    let got = fs.read(fd, offset, len).unwrap();
                    assert_eq!(got, &payload[offset as usize..offset as usize + len]);
                }
                fs.close(fd).unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().expect("reader thread");
    }
}

/// Who is inside [`Rendezvous`]'s reads.
#[derive(Default)]
struct Readers {
    armed: bool,
    inside: usize,
    peak: usize,
}

/// A store that makes overlapping reads observable. It implements only the
/// thirteen required methods, so every submitted read runs the blocking
/// `read_into_vectored` on the caller's thread. Once armed, each read waits
/// there (up to ten seconds) until a second read is inside at the same
/// time; `peak` records how many were.
struct Rendezvous {
    store: DedupStore,
    readers: Mutex<Readers>,
    met: Condvar,
}

impl Rendezvous {
    fn new() -> Self {
        Rendezvous {
            store: DedupStore::new(4096, StorageProfile::instant()),
            readers: Mutex::new(Readers::default()),
            met: Condvar::new(),
        }
    }

    fn arm(&self) {
        *self.readers.lock().unwrap() = Readers {
            armed: true,
            ..Readers::default()
        };
    }

    fn peak(&self) -> usize {
        self.readers.lock().unwrap().peak
    }
}

impl ObjectStore for Rendezvous {
    fn create(&self, name: &str) -> Result<()> {
        self.store.create(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.store.exists(name)
    }
    fn read_into_vectored(
        &self,
        name: &str,
        offset: u64,
        bufs: &mut [IoSliceMut<'_>],
    ) -> Result<usize> {
        let mut readers = self.readers.lock().unwrap();
        readers.inside += 1;
        readers.peak = readers.peak.max(readers.inside);
        self.met.notify_all();
        let (mut readers, waited) = self
            .met
            .wait_timeout_while(readers, Duration::from_secs(10), |r| r.armed && r.peak < 2)
            .unwrap();
        if waited.timed_out() {
            // Reads are serialized above the store: let the rest run.
            readers.armed = false;
        }
        drop(readers);
        let read = self.store.read_into_vectored(name, offset, bufs);
        self.readers.lock().unwrap().inside -= 1;
        read
    }
    fn write_at_vectored(&self, name: &str, offset: u64, bufs: &[IoSlice<'_>]) -> Result<()> {
        self.store.write_at_vectored(name, offset, bufs)
    }
    fn len(&self, name: &str) -> Result<u64> {
        self.store.len(name)
    }
    fn truncate(&self, name: &str, len: u64) -> Result<()> {
        self.store.truncate(name, len)
    }
    fn remove(&self, name: &str) -> Result<()> {
        self.store.remove(name)
    }
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.store.rename(from, to)
    }
    fn list(&self) -> Vec<String> {
        self.store.list()
    }
    fn flush(&self, name: &str) -> Result<()> {
        self.store.flush(name)
    }
    fn io_time(&self) -> Duration {
        self.store.io_time()
    }
    fn io_counters(&self) -> IoCounters {
        self.store.io_counters()
    }
    fn reset_io_accounting(&self) {
        self.store.reset_io_accounting()
    }
}

/// Two readers of one file are inside the backend at the same time: a
/// stateful shim runs its whole read pipeline under the file's shared guard,
/// so a reader never waits for another reader's I/O.
#[test]
fn readers_of_one_file_overlap_in_the_backend() {
    // LamassuFS and EncFS; PlainFS takes no per-file guard at all.
    for which in [3, 1] {
        let store = Arc::new(Rendezvous::new());
        let fs = shim(which, store.clone());
        let payload: Vec<u8> = (0..8 * 4096u32).map(|i| (i % 251) as u8).collect();
        let fd = fs.create("/overlap.bin").unwrap();
        fs.write(fd, 0, &payload).unwrap();
        fs.fsync(fd).unwrap();
        // Warm the file so each reader's read is data I/O only.
        assert_eq!(fs.read(fd, 0, payload.len()).unwrap(), payload);

        store.arm();
        let readers: Vec<_> = (0..2u64)
            .map(|t| {
                let fs = fs.clone();
                let want = payload[t as usize * 4096..][..4096].to_vec();
                thread::spawn(move || assert_eq!(fs.read(fd, t * 4096, 4096).unwrap(), want))
            })
            .collect();
        for r in readers {
            r.join().expect("reader thread");
        }
        assert_eq!(store.peak(), 2, "{}: readers never overlapped", fs.kind());
        fs.close(fd).unwrap();
    }
}

#[test]
fn mixed_readers_and_writers_do_not_corrupt_each_other() {
    let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
    let fs = Arc::new(LamassuFs::new(store, keys(), LamassuConfig::default()));
    // One steady file that readers check, while writers churn other files.
    let stable: Vec<u8> = vec![0xabu8; 100_000];
    let fd = fs.create("/stable.bin").unwrap();
    fs.write(fd, 0, &stable).unwrap();
    fs.fsync(fd).unwrap();

    let mut threads = Vec::new();
    for t in 0..4 {
        let fs = fs.clone();
        threads.push(thread::spawn(move || {
            let path = format!("/churn-{t}.bin");
            let fd = fs.create(&path).unwrap();
            for round in 0..20u64 {
                fs.write(fd, (round % 5) * 4096, &[round as u8; 4096])
                    .unwrap();
            }
            fs.fsync(fd).unwrap();
        }));
    }
    for _ in 0..4 {
        let fs = fs.clone();
        let stable = stable.clone();
        threads.push(thread::spawn(move || {
            let fd = fs.open("/stable.bin", OpenFlags::default()).unwrap();
            for _ in 0..20 {
                assert_eq!(fs.read(fd, 0, stable.len()).unwrap(), stable);
            }
        }));
    }
    for t in threads {
        t.join().expect("worker thread");
    }
    assert!(fs.verify("/stable.bin").unwrap().is_clean());
}

const BS: usize = 4096;
/// Blocks each stress thread owns in the shared file.
const REGION_BLOCKS: usize = 4;
const STRESS_THREADS: u8 = 8;
const STRESS_ROUNDS: u64 = 12;

fn stress_pattern(thread: u8, round: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| thread ^ (round as u8).wrapping_mul(31) ^ (i % 251) as u8)
        .collect()
}

/// Hammers one mount with `read_into`/`write_vectored` from many threads:
/// all threads share one file (each owning a disjoint block region, all
/// descriptors resolving to the same per-file state) while also working a
/// private file each through unaligned scatter writes. Every thread checks
/// its reads against a local model after every operation.
fn stress_handle_paths(fs: Arc<dyn FileSystem>) {
    let region_bytes = REGION_BLOCKS * BS;
    let shared_fd = fs.create("/shared-stress.bin").unwrap();
    fs.write(
        shared_fd,
        0,
        &vec![0u8; region_bytes * STRESS_THREADS as usize],
    )
    .unwrap();
    fs.fsync(shared_fd).unwrap();

    let threads: Vec<_> = (0..STRESS_THREADS)
        .map(|t| {
            let fs = fs.clone();
            thread::spawn(move || {
                // Every thread opens its own descriptor to the shared file;
                // the shims must resolve all of them to one shared state.
                let my_shared_fd = fs.open("/shared-stress.bin", OpenFlags::default()).unwrap();
                let region_off = t as u64 * region_bytes as u64;
                let mut region_model = vec![0u8; region_bytes];
                let mut region_buf = vec![0u8; region_bytes];

                let own_path = format!("/own-stress-{t}.bin");
                let own_fd = fs.create(&own_path).unwrap();
                let mut own_model: Vec<u8> = Vec::new();
                let mut own_buf = vec![0u8; 3 * BS];

                for round in 0..STRESS_ROUNDS {
                    // Aligned single-block scatter write into the owned
                    // region of the shared file (two slices, one block).
                    let block = (round as usize) % REGION_BLOCKS;
                    let pattern = stress_pattern(t, round, BS);
                    let (head, tail) = pattern.split_at(BS / 3);
                    let n = fs
                        .write_vectored(
                            my_shared_fd,
                            region_off + (block * BS) as u64,
                            &[IoSlice::new(head), IoSlice::new(tail)],
                        )
                        .unwrap();
                    assert_eq!(n, BS);
                    region_model[block * BS..(block + 1) * BS].copy_from_slice(&pattern);

                    let read = fs
                        .read_into(my_shared_fd, region_off, &mut region_buf)
                        .unwrap();
                    assert_eq!(read, region_bytes, "thread {t} round {round}");
                    assert_eq!(region_buf, region_model, "thread {t} round {round}");

                    // Unaligned cross-block scatter write into the private
                    // file, extending it as it goes.
                    let off = round * (BS as u64 + 777);
                    let data = stress_pattern(t, round, BS + 1555);
                    let (a, b) = data.split_at(997);
                    fs.write_vectored(own_fd, off, &[IoSlice::new(a), IoSlice::new(b)])
                        .unwrap();
                    let end = off as usize + data.len();
                    if end > own_model.len() {
                        own_model.resize(end, 0);
                    }
                    own_model[off as usize..end].copy_from_slice(&data);

                    let n = fs.read_into(own_fd, off, &mut own_buf).unwrap();
                    let expect = (own_model.len() - off as usize).min(own_buf.len());
                    assert_eq!(n, expect, "thread {t} round {round}");
                    assert_eq!(
                        &own_buf[..n],
                        &own_model[off as usize..off as usize + n],
                        "thread {t} round {round}"
                    );
                }

                fs.fsync(own_fd).unwrap();
                fs.close(own_fd).unwrap();
                fs.close(my_shared_fd).unwrap();
                (t, region_model)
            })
        })
        .collect();

    // After the storm, every region holds exactly its thread's final state.
    let mut check = vec![0u8; region_bytes];
    for t in threads {
        let (id, model) = t.join().expect("stress thread");
        let off = id as u64 * region_bytes as u64;
        let n = fs.read_into(shared_fd, off, &mut check).unwrap();
        assert_eq!(n, region_bytes);
        assert_eq!(check, model, "thread {id} region after join");
    }
    fs.close(shared_fd).unwrap();
}

/// Regression test for the open/close lifecycle race: when a last `close`
/// races an `open` on the same path, both descriptors must still end up on
/// *one* shared per-file state — never two divergent states whose buffered
/// writes overwrite each other.
#[test]
fn open_close_churn_keeps_one_state_per_path() {
    // One scaffold serves the three stateful shims, so one churn covers the
    // open-vs-last-close race for all of them.
    let store = || Arc::new(DedupStore::new(4096, StorageProfile::instant()));
    churn(Arc::new(EncFs::new(
        store(),
        [0x77; 32],
        EncFsConfig::default(),
    )));
    churn(Arc::new(CeFileFs::new(store(), keys(), 4096)));
    let fs = Arc::new(LamassuFs::new(store(), keys(), LamassuConfig::default()));
    churn(fs.clone());
    assert!(fs.verify("/churn.bin").unwrap().is_clean());
}

fn churn(fs: Arc<dyn FileSystem>) {
    let fd = fs.create("/churn.bin").unwrap();
    fs.write(fd, 0, &vec![0u8; 8 * 4096]).unwrap();
    fs.close(fd).unwrap();

    let threads: Vec<_> = (0..8u8)
        .map(|t| {
            let fs = fs.clone();
            thread::spawn(move || {
                // Each thread owns one block; every iteration is a full
                // open → write → read-back → close cycle, so opens and last
                // closes constantly interleave across threads.
                let offset = t as u64 * 4096;
                for round in 0..40u64 {
                    let fd = fs.open("/churn.bin", OpenFlags::default()).unwrap();
                    let pattern = vec![t ^ round as u8; 4096];
                    fs.write(fd, offset, &pattern).unwrap();
                    let back = fs.read(fd, offset, 4096).unwrap();
                    assert_eq!(back, pattern, "thread {t} round {round}");
                    fs.close(fd).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("churn thread");
    }

    // Every close flushed through one coherent state: each block holds its
    // thread's final pattern.
    let kind = fs.kind();
    let fd = fs.open("/churn.bin", OpenFlags::default()).unwrap();
    for t in 0..8u8 {
        let block = fs.read(fd, t as u64 * 4096, 4096).unwrap();
        assert_eq!(block, vec![t ^ 39u8; 4096], "{kind} block {t}");
    }
    fs.close(fd).unwrap();
}

#[test]
fn stress_plainfs_handle_paths() {
    let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
    stress_handle_paths(Arc::new(PlainFs::new(store)));
}

#[test]
fn stress_encfs_handle_paths() {
    let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
    stress_handle_paths(Arc::new(EncFs::new(
        store,
        [0x77; 32],
        EncFsConfig::default(),
    )));
}

#[test]
fn stress_cefilefs_handle_paths() {
    let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
    stress_handle_paths(Arc::new(CeFileFs::new(store, keys(), 4096)));
}

#[test]
fn stress_lamassufs_handle_paths() {
    let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
    let fs = Arc::new(LamassuFs::new(store, keys(), LamassuConfig::default()));
    stress_handle_paths(fs.clone());
    // LamassuFS additionally verifies every file clean after the storm.
    for path in fs.list().unwrap() {
        assert!(fs.verify(&path).unwrap().is_clean(), "{path}");
    }
}

/// Builds the shim selected by `which` over an arbitrary store.
fn shim(which: usize, store: Arc<dyn ObjectStore>) -> Arc<dyn FileSystem> {
    match which {
        0 => Arc::new(PlainFs::new(store)),
        1 => Arc::new(EncFs::new(store, [0x77; 32], EncFsConfig::default())),
        2 => Arc::new(CeFileFs::new(store, keys(), 4096)),
        _ => Arc::new(LamassuFs::new(store, keys(), LamassuConfig::default())),
    }
}

/// Runs the multi-threaded handle-path stress for every shim mounted over a
/// small (eviction-churning) cache in the given mode, then proves that a
/// fresh *uncached* mount over the backend sees the same bytes after
/// `flush_all` — i.e. the cache stayed coherent under contention and dropped
/// nothing at write-back.
fn stress_all_shims_over_cache(mode: CacheMode) {
    for which in 0..4usize {
        let backend = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        let cache = Arc::new(CachedStore::new(
            backend.clone() as Arc<dyn ObjectStore>,
            CacheConfig {
                // Far smaller than the working set: the storm constantly
                // evicts (and, in write-back mode, writes back) blocks.
                capacity_blocks: 24,
                shards: 4,
                mode,
                read_ahead_blocks: 4,
                block_size: 4096,
            },
        ));
        let fs = shim(which, cache.clone());
        stress_handle_paths(fs.clone());
        cache.flush_all().unwrap();

        let fresh = shim(which, backend as Arc<dyn ObjectStore>);
        let mut cached_view = fs.list().unwrap();
        let mut fresh_view = fresh.list().unwrap();
        cached_view.sort();
        fresh_view.sort();
        assert_eq!(cached_view, fresh_view, "shim {which}");
        for path in &cached_view {
            let fd_cached = fs.open(path, OpenFlags::default()).unwrap();
            let fd_fresh = fresh.open(path, OpenFlags::default()).unwrap();
            let len = fs.len(fd_cached).unwrap();
            assert_eq!(len, fresh.len(fd_fresh).unwrap(), "shim {which} {path}");
            assert_eq!(
                fs.read(fd_cached, 0, len as usize).unwrap(),
                fresh.read(fd_fresh, 0, len as usize).unwrap(),
                "shim {which} {path}"
            );
            fs.close(fd_cached).unwrap();
            fresh.close(fd_fresh).unwrap();
        }
    }
}

#[test]
fn stress_all_shims_over_write_through_cache() {
    stress_all_shims_over_cache(CacheMode::WriteThrough);
}

#[test]
fn stress_all_shims_over_write_back_cache() {
    stress_all_shims_over_cache(CacheMode::WriteBack);
}

/// Readers each iterate this many verification passes while the writer runs.
const SHARED_READ_ROUNDS: usize = 40;
/// Concurrent reader threads per shim in the shared-lock stress.
const SHARED_READERS: usize = 6;

/// The shared-lock stress: many reader threads plus one writer thread on
/// **one** file per shim, over an eviction-churning cache. The file is split
/// into a stable half (written once, then only read) and a churn half (the
/// writer rewrites it continuously). Readers run the full read pipeline
/// under the shims' shared read guards and must see the stable half
/// byte-identical on every pass — a reader overlapping a writer can never
/// observe a torn block, a mid-commit metadata state, or a stale cache
/// entry. Afterwards a fresh *uncached* mount over the backend must agree
/// with the cached mount byte for byte.
fn stress_shared_file_readers_with_writer(mode: CacheMode) {
    let region_bytes = 8 * BS;
    for which in 0..4usize {
        let backend = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        let cache = Arc::new(CachedStore::new(
            backend.clone() as Arc<dyn ObjectStore>,
            CacheConfig {
                // Far smaller than the two regions together: reads and
                // writes constantly evict (and write back) blocks.
                capacity_blocks: 6,
                shards: 2,
                mode,
                read_ahead_blocks: 4,
                block_size: 4096,
            },
        ));
        let fs = shim(which, cache.clone());

        let stable: Vec<u8> = (0..region_bytes).map(|i| (i % 239) as u8).collect();
        let fd = fs.create("/rw-shared.bin").unwrap();
        fs.write(fd, 0, &stable).unwrap();
        fs.write(fd, region_bytes as u64, &vec![0u8; region_bytes])
            .unwrap();
        fs.fsync(fd).unwrap();
        fs.close(fd).unwrap();

        let mut threads = Vec::new();
        {
            // The writer churns the upper region (including unaligned spans
            // crossing block boundaries) and fsyncs periodically.
            let fs = fs.clone();
            threads.push(thread::spawn(move || {
                let fd = fs.open("/rw-shared.bin", OpenFlags::default()).unwrap();
                for round in 0..(SHARED_READ_ROUNDS * 2) as u64 {
                    let off = region_bytes as u64 + (round % 6) * BS as u64 + (round % 777);
                    let data = stress_pattern(0xee, round, BS + 501);
                    let take = data.len().min(2 * region_bytes - off as usize);
                    fs.write(fd, off, &data[..take]).unwrap();
                    if round % 8 == 7 {
                        fs.fsync(fd).unwrap();
                    }
                }
                fs.fsync(fd).unwrap();
                fs.close(fd).unwrap();
            }));
        }
        for t in 0..SHARED_READERS {
            let fs = fs.clone();
            let stable = stable.clone();
            threads.push(thread::spawn(move || {
                let fd = fs.open("/rw-shared.bin", OpenFlags::default()).unwrap();
                let mut buf = vec![0u8; region_bytes];
                let mut churn_buf = vec![0u8; region_bytes];
                for round in 0..SHARED_READ_ROUNDS {
                    // The stable half must read back identical on every
                    // pass, no matter what the writer is doing next door.
                    let n = fs.read_into(fd, 0, &mut buf).unwrap();
                    assert_eq!(n, region_bytes, "shim {which} reader {t} round {round}");
                    assert_eq!(buf, stable, "shim {which} reader {t} round {round}");
                    // Reading the churned half races the writer on purpose:
                    // content is unspecified but the read must succeed and
                    // return the full region.
                    let n = fs
                        .read_into(fd, region_bytes as u64, &mut churn_buf)
                        .unwrap();
                    assert!(n >= region_bytes, "shim {which} reader {t} round {round}");
                }
                fs.close(fd).unwrap();
            }));
        }
        for t in threads {
            t.join().expect("reader/writer thread");
        }

        // Coherence end to end: a fresh uncached mount over the backend sees
        // exactly the bytes the cached mount sees.
        cache.flush_all().unwrap();
        let fresh = shim(which, backend as Arc<dyn ObjectStore>);
        let fd_cached = fs.open("/rw-shared.bin", OpenFlags::default()).unwrap();
        let fd_fresh = fresh.open("/rw-shared.bin", OpenFlags::default()).unwrap();
        let len = fs.len(fd_cached).unwrap();
        assert_eq!(len, fresh.len(fd_fresh).unwrap(), "shim {which}");
        assert_eq!(
            fs.read(fd_cached, 0, len as usize).unwrap(),
            fresh.read(fd_fresh, 0, len as usize).unwrap(),
            "shim {which}"
        );
    }
}

#[test]
fn shared_file_readers_with_writer_over_write_through_cache() {
    stress_shared_file_readers_with_writer(CacheMode::WriteThrough);
}

#[test]
fn shared_file_readers_with_writer_over_write_back_cache() {
    stress_shared_file_readers_with_writer(CacheMode::WriteBack);
}
