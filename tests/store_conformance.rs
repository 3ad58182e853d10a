//! Store conformance: one table over every [`ObjectStore`] in `crates/`.
//!
//! The trait's data primitives take a scatter list; the scalar calls are the
//! same operation on a one-slice list, written once as provided methods.
//! Every row of [`ROWS`] — each backend, and each tier in each of its modes —
//! is held to the same four statements:
//!
//! 1. a scalar call and the same call as a one-slice list agree on bytes,
//!    return value, [`IoCounters`], `io_time` and (under a `FaultyStore`)
//!    credits remaining;
//! 2. lists of any shape — empty slices, slices straddling a cache-block or
//!    placement-unit boundary, reads clamped at end-of-object — match a flat
//!    `Vec<u8>` model;
//! 3. where the row promises it, a whole list is one charged operation;
//! 4. `submit` + `wait` returns what the blocking call returns, charges the
//!    same operations and bytes, and moves the virtual clock exactly as the
//!    transport model says: by the same time as the blocking call, except
//!    where the submission is several member operations that overlap on the
//!    queue-depth lanes. Only the router's submitted writes are (each placement
//!    unit's run goes to its owners as a submission); there the test holds
//!    every member clock to the serial sum of its operations' costs blocking
//!    and to the lane arithmetic submitted, both computed from
//!    [`StorageProfile::write_cost`] and [`StorageProfile::read_cost`].
//!
//! Stores are deterministic, so "the same call on the other form" is run on
//! a second, identically built instance and the two are compared after
//! every step.
//!
//! The [`Unqueued`] rows hold the async differential's reference store to
//! the same statements: statement 4 is the property that differential rests
//! on.

mod support;

use lamassu::cache::{CacheConfig, CacheMode, CachedStore};
use lamassu::dist::{DistConfig, RoutedStore};
use lamassu::resilience::{OpBudget, ResilientStore, RetryPolicy};
use lamassu::storage::{
    DedupStore, DirStore, FaultyStore, IoCounters, ObjectStore, StorageError, StorageProfile,
    SubmitQueue,
};
use std::io::{IoSlice, IoSliceMut};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use support::Unqueued;

/// Cache line and backend block size; also half a placement unit, so the
/// script's lists straddle both kinds of boundary.
const BLOCK: usize = 4096;
const UNIT: u64 = 2 * BLOCK as u64;
const NAME: &str = "obj";

/// One freshly built store, plus the fault injector inside it (if any) so
/// its credits can be compared, and the router inside it (if any) so its
/// member clocks can be.
struct Built {
    store: Arc<dyn ObjectStore>,
    faulty: Option<Arc<FaultyStore>>,
    routed: Option<Arc<RoutedStore<DedupStore>>>,
    /// The instance's own directory (only `DirStore` creates it).
    dir: PathBuf,
}

impl Drop for Built {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Built {
    fn plain(store: Arc<dyn ObjectStore>) -> Built {
        Built {
            store,
            faulty: None,
            routed: None,
            dir: PathBuf::new(),
        }
    }

    fn credits(&self) -> Option<(u64, u64)> {
        self.faulty
            .as_ref()
            .map(|f| (f.reads_remaining(), f.writes_remaining()))
    }
}

struct Row {
    name: &'static str,
    /// Builds an empty instance; `dir` is a directory of its own.
    build: fn(&Path) -> Built,
    /// Backend read / write operations one list of any shape costs, where
    /// that is a constant of the store; `None` where it depends on the list
    /// (one credit-checked read per buffer, cache hits, one op per
    /// placement unit, a read the router clips at the logical length).
    reads_per_list: Option<u64>,
    writes_per_list: Option<u64>,
}

fn nfs() -> StorageProfile {
    StorageProfile::nfs_1gbe()
}

fn dedup() -> Arc<DedupStore> {
    Arc::new(DedupStore::new(BLOCK, nfs()))
}

fn faulty(arm: fn(&FaultyStore)) -> Built {
    let faulty = Arc::new(FaultyStore::new(dedup()));
    arm(&faulty);
    let mut built = Built::plain(faulty.clone());
    built.faulty = Some(faulty);
    built
}

/// [`faulty`], behind [`Unqueued`]: the credits are still the injector's.
fn unqueued_faulty(arm: fn(&FaultyStore)) -> Built {
    let mut built = faulty(arm);
    built.store = Arc::new(Unqueued(built.store.clone()));
    built
}

fn cached(mode: CacheMode) -> Built {
    // Far smaller than the script's object, so fills, evictions and (in
    // write-back mode) dirty write-backs all happen along the way.
    let config = CacheConfig {
        block_size: BLOCK,
        capacity_blocks: 4,
        shards: 2,
        mode,
        ..CacheConfig::default()
    };
    Built::plain(Arc::new(CachedStore::new(dedup(), config)))
}

fn routed() -> Built {
    let members: Vec<Arc<DedupStore>> = (0..3).map(|_| dedup()).collect();
    let config = DistConfig::new(2).unit(UNIT);
    let router = Arc::new(RoutedStore::new(members, config));
    let mut built = Built::plain(router.clone());
    built.routed = Some(router);
    built
}

fn resilient(inner: Arc<dyn ObjectStore>) -> Arc<dyn ObjectStore> {
    Arc::new(ResilientStore::new(
        inner,
        RetryPolicy::default(),
        OpBudget::default(),
    ))
}

const ROWS: &[Row] = &[
    Row {
        name: "DedupStore",
        build: |_| Built::plain(dedup()),
        reads_per_list: Some(1),
        writes_per_list: Some(1),
    },
    Row {
        name: "DirStore",
        build: |dir| Built::plain(Arc::new(DirStore::open(dir, nfs()).unwrap())),
        reads_per_list: Some(1),
        writes_per_list: Some(1),
    },
    Row {
        name: "FaultyStore unarmed",
        build: |_| faulty(|_| {}),
        reads_per_list: Some(1),
        writes_per_list: Some(1),
    },
    Row {
        name: "FaultyStore read-armed",
        build: |_| faulty(|f| f.crash_after_reads(10_000)),
        reads_per_list: None,
        writes_per_list: None,
    },
    Row {
        name: "FaultyStore write-armed",
        build: |_| faulty(|f| f.crash_after_writes(10_000)),
        reads_per_list: Some(1),
        writes_per_list: Some(1),
    },
    Row {
        name: "Unqueued DedupStore",
        build: |_| Built::plain(Arc::new(Unqueued(dedup()))),
        reads_per_list: Some(1),
        writes_per_list: Some(1),
    },
    Row {
        name: "Unqueued FaultyStore read-armed",
        build: |_| unqueued_faulty(|f| f.crash_after_reads(10_000)),
        reads_per_list: None,
        writes_per_list: None,
    },
    Row {
        name: "CachedStore write-through",
        build: |_| cached(CacheMode::WriteThrough),
        reads_per_list: None,
        writes_per_list: None,
    },
    Row {
        name: "CachedStore write-back",
        build: |_| cached(CacheMode::WriteBack),
        reads_per_list: None,
        writes_per_list: None,
    },
    Row {
        name: "ResilientStore",
        build: |_| Built::plain(resilient(dedup())),
        reads_per_list: Some(1),
        writes_per_list: Some(1),
    },
    Row {
        name: "RoutedStore",
        build: |_| routed(),
        reads_per_list: None,
        writes_per_list: None,
    },
    Row {
        // The benchmark's order of tiers below the cache.
        name: "ResilientStore over RoutedStore",
        build: |_| {
            let mut built = routed();
            built.store = resilient(built.store.clone());
            built
        },
        reads_per_list: None,
        writes_per_list: None,
    },
];

/// A fresh instance of the row's store holding an empty [`NAME`].
fn fresh(row: &Row) -> Built {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "lamassu-conformance-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut built = (row.build)(&dir);
    built.dir = dir;
    built.store.create(NAME).unwrap();
    built
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

/// The flat reference: what a write does to the object's bytes.
fn model_write(model: &mut Vec<u8>, offset: usize, data: &[u8]) {
    if model.len() < offset + data.len() {
        model.resize(offset + data.len(), 0);
    }
    model[offset..offset + data.len()].copy_from_slice(data);
}

/// The flat reference: the bytes a read at `offset` into `len` bytes of
/// 0xEE-filled buffer leaves behind (clamped at end-of-object).
fn model_read(model: &[u8], offset: usize, len: usize) -> (usize, Vec<u8>) {
    let from = offset.min(model.len());
    let n = len.min(model.len() - from);
    let mut want = vec![0xEE; len];
    want[..n].copy_from_slice(&model[from..from + n]);
    (n, want)
}

/// Cuts `data` into consecutive slices of the given lengths.
fn cut<'a>(data: &'a [u8], lens: &[usize]) -> Vec<IoSlice<'a>> {
    assert_eq!(lens.iter().sum::<usize>(), data.len());
    let mut rest = data;
    lens.iter()
        .map(|&l| {
            let (head, tail) = rest.split_at(l);
            rest = tail;
            IoSlice::new(head)
        })
        .collect()
}

/// Runs `read` with a scatter list of 0xEE-filled buffers of the given
/// lengths; returns its result and the concatenated buffers.
fn with_list<T>(lens: &[usize], read: impl FnOnce(&mut [IoSliceMut<'_>]) -> T) -> (T, Vec<u8>) {
    let mut bufs: Vec<Vec<u8>> = lens.iter().map(|&l| vec![0xEE; l]).collect();
    let mut list: Vec<IoSliceMut<'_>> = bufs.iter_mut().map(|b| IoSliceMut::new(b)).collect();
    let out = read(&mut list);
    (out, bufs.concat())
}

fn assert_in_step(row: &Row, step: &str, a: &Built, b: &Built) {
    assert_same_effects(row, step, a, b);
    assert_eq!(a.store.io_time(), b.store.io_time(), "{}: {step}", row.name);
}

/// Everything but the clock: counters and fault credits.
fn assert_same_effects(row: &Row, step: &str, a: &Built, b: &Built) {
    let at = format!("{}: {step}", row.name);
    assert_eq!(a.store.io_counters(), b.store.io_counters(), "{at}");
    assert_eq!(a.credits(), b.credits(), "{at}");
}

/// Statement 1: every scalar call agrees with its one-slice list form.
fn scalar_and_one_slice_list_agree(row: &Row) {
    let (a, b) = (fresh(row), fresh(row));
    let mut model = Vec::new();

    // Aligned, unaligned across block and unit boundaries, and a sparse
    // extension whose hole must read back as zeros.
    let writes: [(u64, Vec<u8>); 4] = [
        (0, pattern(10 * BLOCK, 1)),
        (3000, pattern(3000, 2)),
        (UNIT - 10, pattern(BLOCK + 20, 3)),
        (11 * BLOCK as u64 + 100, pattern(100, 4)),
    ];
    for (offset, data) in &writes {
        let step = format!("write {}+{}", offset, data.len());
        let ra = a.store.write_at(NAME, *offset, data);
        let rb = b
            .store
            .write_at_vectored(NAME, *offset, &[IoSlice::new(data)]);
        assert_eq!(ra, Ok(()), "{}: {step}", row.name);
        assert_eq!(ra, rb, "{}: {step}", row.name);
        model_write(&mut model, *offset as usize, data);
        assert_in_step(row, &step, &a, &b);
    }

    let end = model.len();
    let reads: [(usize, usize); 7] = [
        (0, BLOCK),
        (100, 5000),
        (UNIT as usize - 1, 2),
        (10 * BLOCK - 50, 300), // through the hole
        (end - 200, 500),       // clamped at end-of-object
        (end, 16),              // at the end: nothing
        (end + 5000, 16),       // past the end: nothing
    ];
    for (offset, len) in reads {
        let step = format!("read {offset}+{len}");
        let (n, want) = model_read(&model, offset, len);
        let mut got_a = vec![0xEE; len];
        let ra = a.store.read_into(NAME, offset as u64, &mut got_a);
        let (rb, got_b) = with_list(&[len], |l| {
            b.store.read_into_vectored(NAME, offset as u64, l)
        });
        assert_eq!(ra, Ok(n), "{}: {step}", row.name);
        assert_eq!(ra, rb, "{}: {step}", row.name);
        assert_eq!(got_a, want, "{}: {step}", row.name);
        assert_eq!(got_b, want, "{}: {step}", row.name);
        assert_in_step(row, &step, &a, &b);

        // `read_at` is the same read again, plus an exact-size error when it
        // comes up short — learnt from the clamp, not from a second charged
        // call, unless the read started at or past the end.
        let step = format!("read_at {offset}+{len}");
        let ra = a.store.read_at(NAME, offset as u64, len);
        let (rb, _) = with_list(&[len], |l| {
            b.store.read_into_vectored(NAME, offset as u64, l)
        });
        if n == len {
            assert_eq!(ra.as_deref(), Ok(&want[..]), "{}: {step}", row.name);
        } else {
            let want_err = StorageError::OutOfBounds {
                name: NAME.to_string(),
                offset: offset as u64,
                len,
                size: end as u64,
            };
            assert_eq!(ra, Err(want_err), "{}: {step}", row.name);
            if n == 0 {
                assert_eq!(b.store.len(NAME), Ok(end as u64), "{}: {step}", row.name);
            }
        }
        assert_eq!(rb, Ok(n), "{}: {step}", row.name);
        assert_in_step(row, &step, &a, &b);
    }
}

/// A list write and a list read of the script, as `(offset, slice lengths)`.
/// Between them: empty slices first, last and in the middle; slices that
/// straddle a block and a unit boundary; a slice ending exactly on one; and
/// reads that run past the end.
const LIST_WRITES: &[(u64, &[usize])] = &[
    (0, &[BLOCK, BLOCK, BLOCK, BLOCK, BLOCK, BLOCK]),
    (1000, &[0, 3000, 0, 5000, 1]),
    (UNIT - 6, &[4, 2, 4000, 0]),
    (5 * BLOCK as u64 + 7, &[2 * BLOCK, 0, 100]),
];
const LIST_READS: &[(u64, &[usize])] = &[
    (0, &[BLOCK, BLOCK]),
    (50, &[0, 100, 6000, 0, 3000]),
    (UNIT - 1, &[1, 1, BLOCK]),
    (7 * BLOCK as u64 - 1000, &[600, 0, 600, 600]), // clamped mid-list
    (7 * BLOCK as u64 + 200, &[0, 8]),              // at the end: nothing
];

/// The pieces — `(object offset, length)` — the router's unit walk cuts
/// each of [`LIST_WRITES`] into at [`UNIT`]: a run of whole slices inside
/// one unit, or the part of a slice that straddles a unit boundary. Each
/// piece is one member write per owner.
const ROUTED_WRITE_PIECES: [&[(u64, usize)]; 4] = [
    &[
        (0, UNIT as usize),
        (UNIT, UNIT as usize),
        (2 * UNIT, UNIT as usize),
    ],
    &[(1000, 3000), (4000, 4192), (UNIT, 808), (UNIT + 808, 1)],
    &[(UNIT - 6, 6), (UNIT, 4000)],
    &[
        (5 * BLOCK as u64 + 7, 4089),
        (3 * UNIT, 4103),
        (3 * UNIT + 4103, 100),
    ],
];

/// The virtual cost of one `DedupStore` write of `len` bytes at `offset`:
/// one write of every block it touches, plus a read-modify-write read of a
/// partially covered first and last block.
fn dedup_write_cost(offset: u64, len: usize) -> Duration {
    let bs = BLOCK as u64;
    let (first, end) = (offset / bs, offset + len as u64);
    let touched = (end - 1) / bs - first + 1;
    let head = !offset.is_multiple_of(bs);
    let tail = !end.is_multiple_of(bs) && (touched > 1 || !head);
    let rmw = u32::from(head) + u32::from(tail);
    nfs().write_cost(touched as usize * BLOCK) + nfs().read_cost(BLOCK) * rmw
}

/// The time a channel takes for `costs` submitted together onto idle
/// queue-depth lanes: each goes to the earliest-free lane, and the last
/// lane to finish ends it.
fn lane_makespan(costs: &[Duration]) -> Duration {
    let mut lanes = vec![Duration::ZERO; nfs().queue_depth];
    for &c in costs {
        *lanes.iter_mut().min().expect("depth >= 1") += c;
    }
    lanes.into_iter().max().unwrap_or_default()
}

/// Each member clock of a routed row, by member id.
fn member_clocks(b: &Built) -> Vec<Duration> {
    let router = b.routed.as_ref().expect("a routed row");
    (0..router.backends() as u32)
        .map(|id| router.member_store(id).unwrap().io_time())
        .collect()
}

/// How far each member clock moved since `before`.
fn advance(b: &Built, before: &[Duration]) -> Vec<Duration> {
    let now = member_clocks(b);
    now.iter().zip(before).map(|(n, b)| *n - *b).collect()
}

/// Statement 4 on a routed row, for the list write number `k` that the
/// blocking `a` and the submitting `b` just made: each member pays the
/// serial sum of its writes' costs blocking and their lane makespan
/// submitted, and the tier's clock is its busiest member's.
fn assert_routed_write(
    row: &Row,
    step: &str,
    k: usize,
    a: &Built,
    b: &Built,
    before: [&[Duration]; 2],
    write_ops: u64,
) {
    let at = format!("{}: {step}", row.name);
    let router = b.routed.as_ref().expect("a routed row");
    let mut costs = vec![Vec::new(); router.backends()];
    for &(offset, len) in ROUTED_WRITE_PIECES[k] {
        for id in router.replica_ids(NAME, offset) {
            costs[id as usize].push(dedup_write_cost(offset, len));
        }
    }
    let member_ops: usize = costs.iter().map(Vec::len).sum();
    assert_eq!(member_ops as u64, write_ops, "{at}: member writes");
    let serial: Vec<Duration> = costs.iter().map(|c| c.iter().sum()).collect();
    let lanes: Vec<Duration> = costs.iter().map(|c| lane_makespan(c)).collect();
    assert_eq!(
        advance(a, before[0]),
        serial,
        "{at}: blocking member clocks"
    );
    assert_eq!(
        advance(b, before[1]),
        lanes,
        "{at}: submitted member clocks"
    );
    assert_eq!(
        b.store.io_time(),
        member_clocks(b).into_iter().max().unwrap(),
        "{at}"
    );
}

fn delta(after: IoCounters, before: IoCounters) -> (u64, u64, u64) {
    (
        after.read_ops - before.read_ops,
        after.write_ops - before.write_ops,
        after.bytes_read - before.bytes_read,
    )
}

/// Statements 2–4: lists of any shape match the model, cost what the row
/// says, and behave the same submitted as blocking.
fn lists_match_the_model_blocking_and_submitted(row: &Row) {
    let (a, b) = (fresh(row), fresh(row));
    let mut model = Vec::new();
    let mut q = SubmitQueue::new();
    let mut done = Vec::new();

    for (k, (offset, lens)) in LIST_WRITES.iter().enumerate() {
        let step = format!("list write {offset}+{lens:?}");
        let data = pattern(lens.iter().sum(), 10 + k as u8);
        let list = cut(&data, lens);
        let before = a.store.io_counters();
        let clocks = a
            .routed
            .is_some()
            .then(|| [member_clocks(&a), member_clocks(&b)]);
        assert_eq!(
            a.store.write_at_vectored(NAME, *offset, &list),
            Ok(()),
            "{}: {step}",
            row.name
        );
        let (_, writes, _) = delta(a.store.io_counters(), before);
        if let Some(write_ops) = row.writes_per_list {
            assert_eq!(writes, write_ops, "{}: {step}: write ops", row.name);
        }
        let ticket = b.store.submit_write_vectored(&mut q, NAME, *offset, &list);
        done.clear();
        b.store.wait_completions(&mut q, &mut done);
        assert_eq!(done.len(), 1, "{}: {step}", row.name);
        assert_eq!(done[0].ticket, ticket, "{}: {step}", row.name);
        assert_eq!(done[0].result, Ok(data.len()), "{}: {step}", row.name);
        model_write(&mut model, *offset as usize, &data);
        match &clocks {
            None => assert_in_step(row, &step, &a, &b),
            Some([ca, cb]) => {
                assert_same_effects(row, &step, &a, &b);
                assert_routed_write(row, &step, k, &a, &b, [ca, cb], writes);
            }
        }
    }
    assert_eq!(a.store.len(NAME), Ok(model.len() as u64), "{}", row.name);
    assert_eq!(b.store.len(NAME), Ok(model.len() as u64), "{}", row.name);

    for (offset, lens) in LIST_READS {
        let step = format!("list read {offset}+{lens:?}");
        let (n, want) = model_read(&model, *offset as usize, lens.iter().sum());
        let before = a.store.io_counters();
        let clocks = a
            .routed
            .is_some()
            .then(|| [member_clocks(&a), member_clocks(&b)]);
        let (ra, got_a) = with_list(lens, |l| a.store.read_into_vectored(NAME, *offset, l));
        assert_eq!(ra, Ok(n), "{}: {step}", row.name);
        assert_eq!(got_a, want, "{}: {step}", row.name);
        if let Some(read_ops) = row.reads_per_list {
            let (reads, _, bytes) = delta(a.store.io_counters(), before);
            assert_eq!((reads, bytes), (read_ops, n as u64), "{}: {step}", row.name);
        }
        let (ticket, got_b) = with_list(lens, |l| {
            b.store.submit_read_vectored(&mut q, NAME, *offset, l)
        });
        done.clear();
        b.store.wait_completions(&mut q, &mut done);
        assert_eq!(done.len(), 1, "{}: {step}", row.name);
        assert_eq!(done[0].ticket, ticket, "{}: {step}", row.name);
        assert_eq!(done[0].result, ra, "{}: {step}", row.name);
        assert_eq!(got_b, want, "{}: {step}", row.name);
        match &clocks {
            None => assert_in_step(row, &step, &a, &b),
            // Submitted reads are the blocking read below a router: every
            // member clock moves as far on both sides.
            Some([ca, cb]) => {
                assert_same_effects(row, &step, &a, &b);
                let at = format!("{}: {step}", row.name);
                assert_eq!(advance(&a, ca), advance(&b, cb), "{at}: member clocks");
            }
        }
    }
}

#[test]
fn every_store_treats_a_scalar_call_as_a_one_slice_list() {
    for row in ROWS {
        scalar_and_one_slice_list_agree(row);
    }
}

#[test]
fn every_store_serves_lists_of_any_shape_blocking_and_submitted() {
    for row in ROWS {
        lists_match_the_model_blocking_and_submitted(row);
    }
}

/// A wrapper forwards `sleep_virtual` to the store below it, or a retry
/// tier mounted above it backs off for no virtual time at all: the outage
/// below never expires and the deadline budget never advances.
#[test]
fn backoff_above_a_cache_reaches_the_clock_below_it() {
    let backend = Arc::new(FaultyStore::new(dedup()));
    let config = CacheConfig {
        block_size: BLOCK,
        ..CacheConfig::write_through(16)
    };
    let cache: Arc<dyn ObjectStore> = Arc::new(CachedStore::new(backend.clone(), config));
    let store = ResilientStore::new(
        cache,
        RetryPolicy::default(),
        OpBudget {
            max_attempts: 32,
            max_elapsed: Duration::from_secs(30),
        },
    );
    store.create(NAME).unwrap();
    let data = pattern(BLOCK, 5);
    store.write_at(NAME, 0, &data).unwrap();

    // The backend goes down for 5 ms of virtual time on the next read (a
    // cache miss: write-through does not allocate lines).
    backend.heal_after_virtual(Duration::from_millis(5));
    backend.crash_after_reads(0);
    let before = store.io_time();
    let mut buf = vec![0u8; BLOCK];
    assert_eq!(store.read_into(NAME, 0, &mut buf), Ok(BLOCK));
    assert_eq!(buf, data);

    let stats = store.stats();
    assert!(stats.retries > 0, "{stats:?}");
    assert_eq!(stats.recoveries, 1, "{stats:?}");
    assert_eq!(backend.fault_stats().heals, 1, "the outage expired");
    assert!(
        stats.backoff_virtual() >= Duration::from_millis(5),
        "{stats:?}"
    );
    assert!(
        store.io_time() - before >= stats.backoff_virtual(),
        "backoff must show up in io_time: {:?} < {:?}",
        store.io_time() - before,
        stats.backoff_virtual()
    );
}
