//! Every tier composition [`StackBuilder`] can produce, mounted under every
//! shim: one table.
//!
//! Each (composition, shim) row writes a file across a span boundary, syncs
//! it, reads it back, calls `finish()`, then remounts a fresh stack of the
//! same shape over the same backends and reads it back again. On the way it
//! holds the builder to what a hand-rolled assembler used to forget:
//!
//! * `Category::Cache` / `Category::Route` time is non-zero **iff** that tier
//!   is present — a tier built without the mount's profiler stays dark;
//! * a cached stack serves the second read from the cache, and a routed
//!   stack's writes reach its members;
//! * on the breaker rows, killing and healing a member ends with
//!   `maintain()` running that member's targeted scrub and a following full
//!   `scrub()` finding nothing left to repair.

use lamassu::cache::CacheConfig;
use lamassu::core::{
    CeFileFs, EncFs, EncFsConfig, FileSystem, IntegrityMode, IoMode, LamassuConfig, LamassuFs,
    OpenFlags, PlainFs, Profiler, SpanConfig,
};
use lamassu::dist::{DistConfig, Granularity};
use lamassu::keymgr::ZoneKeys;
use lamassu::resilience::BreakerConfig;
use lamassu::stack::{Resilience, Stack, StackBuilder};
use lamassu::storage::{DedupStore, FaultyStore, ObjectStore, StorageProfile};
use std::sync::Arc;
use std::time::Duration;

const BLOCK: usize = 4096;
/// One commit span of the write pipeline (256 blocks).
const SPAN: usize = 256 * BLOCK;

type Members = Vec<Arc<FaultyStore>>;
type Mounted = Stack<Box<dyn FileSystem>, FaultyStore>;

struct Composition {
    name: &'static str,
    members: usize,
    tiers: fn(StackBuilder<FaultyStore>) -> StackBuilder<FaultyStore>,
    cache: bool,
    routed: bool,
    breakers: bool,
}

fn routed(b: StackBuilder<FaultyStore>) -> StackBuilder<FaultyStore> {
    b.dist(DistConfig::new(2).granularity(Granularity::BlockRange(64 * 1024)))
}

const COMPOSITIONS: &[Composition] = &[
    Composition {
        name: "bare",
        members: 1,
        tiers: |b| b,
        cache: false,
        routed: false,
        breakers: false,
    },
    Composition {
        name: "cache write-through",
        members: 1,
        tiers: |b| b.cache(CacheConfig::write_through(512)),
        cache: true,
        routed: false,
        breakers: false,
    },
    Composition {
        name: "cache write-back",
        members: 1,
        tiers: |b| b.cache(CacheConfig::write_back(512)),
        cache: true,
        routed: false,
        breakers: false,
    },
    Composition {
        name: "routed",
        members: 3,
        tiers: routed,
        cache: false,
        routed: true,
        breakers: false,
    },
    Composition {
        name: "routed + retries + breakers",
        members: 3,
        tiers: |b| {
            routed(b).resilience(Resilience {
                breakers: Some(BreakerConfig {
                    window: 8,
                    min_samples: 2,
                    error_rate_pct: 50,
                    cooldown: 2,
                }),
                ..Resilience::default()
            })
        },
        cache: false,
        routed: true,
        breakers: true,
    },
    // The benchmark's tiered stack: write-back cache over retries over a
    // 3-member R = 2 router.
    Composition {
        name: "full tiered",
        members: 3,
        tiers: |b| {
            routed(b)
                .resilience(Resilience::default())
                .cache(CacheConfig::write_back(512))
        },
        cache: true,
        routed: true,
        breakers: false,
    },
];

type Shim = fn(Arc<dyn ObjectStore>, Arc<Profiler>) -> Box<dyn FileSystem>;

fn keys() -> ZoneKeys {
    ZoneKeys {
        zone: 1,
        generation: 0,
        inner: [0x31; 32],
        outer: [0x32; 32],
    }
}

fn lamassu(store: Arc<dyn ObjectStore>, p: Arc<Profiler>, mode: IntegrityMode) -> LamassuFs {
    LamassuFs::with_profiler(store, keys(), LamassuConfig::default().integrity(mode), p)
}

const SHIMS: &[(&str, Shim)] = &[
    ("PlainFs", |s, p| {
        Box::new(PlainFs::with_profiler(s, IoMode::default(), p))
    }),
    ("EncFs", |s, p| {
        Box::new(EncFs::with_profiler(
            s,
            [0x77; 32],
            EncFsConfig::default(),
            p,
        ))
    }),
    ("CeFileFs", |s, p| {
        Box::new(CeFileFs::with_profiler(
            s,
            keys(),
            BLOCK,
            SpanConfig::default(),
            p,
        ))
    }),
    ("LamassuFs", |s, p| {
        Box::new(lamassu(s, p, IntegrityMode::Full))
    }),
    ("LamassuFs(meta-only)", |s, p| {
        Box::new(lamassu(s, p, IntegrityMode::MetaOnly))
    }),
];

fn fresh_members(n: usize) -> Members {
    (0..n)
        .map(|_| {
            Arc::new(FaultyStore::new(Arc::new(DedupStore::new(
                BLOCK,
                StorageProfile::instant(),
            ))))
        })
        .collect()
}

fn mount(c: &Composition, shim: Shim, members: Members) -> Mounted {
    (c.tiers)(StackBuilder::new(members)).mount(shim)
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
}

fn read_all(fs: &dyn FileSystem, path: &str, len: usize) -> Vec<u8> {
    let fd = fs.open(path, OpenFlags::default()).unwrap();
    let bytes = fs.read(fd, 0, len).unwrap();
    fs.close(fd).unwrap();
    bytes
}

/// Kills member 1, overwrites whole blocks all over the file until its
/// breaker has opened, probed and reclosed, and holds the stack to the
/// maintenance contract. Returns with `model` updated to what was written.
fn breaker_cycle(row: &str, stack: &Mounted, fd: lamassu::core::Fd, model: &mut [u8]) {
    let breakers = stack.breakers.as_ref().expect("breaker set");
    let victim = &stack.members[1];
    victim.heal_after_refusals(12);
    victim.crash_after_writes(0);
    let blocks = model.len() / BLOCK;
    for round in 0..400 {
        let b = (round * 37) % blocks;
        let fresh = pattern(BLOCK, round as u8 ^ 0xc3);
        stack.fs.write(fd, (b * BLOCK) as u64, &fresh).unwrap();
        stack.fs.fsync(fd).unwrap();
        model[b * BLOCK..][..BLOCK].copy_from_slice(&fresh);
        if breakers.stats().recloses >= 1 {
            break;
        }
    }
    let stats = breakers.stats();
    assert!(stats.opens >= 1, "{row}: breaker never opened: {stats:?}");
    assert!(stats.recloses >= 1, "{row}: never reclosed: {stats:?}");
    assert_eq!(victim.fault_stats().heals, 1, "{row}: member never healed");

    let ran: Vec<u32> = stack.maintain().iter().map(|(id, _)| *id).collect();
    assert_eq!(ran, [1], "{row}: maintain() must scrub the healed member");
    assert!(stack.maintain().is_empty(), "{row}: queue drained");
    let router = stack.router.as_ref().expect("routed tier");
    // The targeted scrub resynchronized everything the healed member holds,
    // so a full pass finds nothing left to repair.
    let clean = router.scrub();
    assert_eq!(clean.mismatches, 0, "{row}: cluster still dirty: {clean:?}");
}

#[test]
fn every_composition_mounts_every_shim_and_survives_a_remount() {
    for c in COMPOSITIONS {
        for &(shim_name, shim) in SHIMS {
            let row = format!("{} under {shim_name}", c.name);
            let stack = mount(c, shim, fresh_members(c.members));
            assert_eq!(stack.cache.is_some(), c.cache, "{row}: cache handle");
            assert_eq!(stack.router.is_some(), c.routed, "{row}: router handle");
            assert_eq!(stack.breakers.is_some(), c.breakers, "{row}: breakers");
            assert_eq!(stack.members.len(), c.members, "{row}: members");

            // Two writes: the first fills most of a span, the second crosses
            // the boundary (a commit inside `write`), the tail waits for the
            // `fsync`.
            let mut model = pattern(SPAN + 5 * BLOCK + 123, 0x5a);
            let fd = stack.fs.create("/f").unwrap();
            let cut = SPAN - 3 * BLOCK - 77;
            stack.fs.write(fd, 0, &model[..cut]).unwrap();
            stack.fs.write(fd, cut as u64, &model[cut..]).unwrap();
            stack.fs.fsync(fd).unwrap();
            assert!(stack.fs.read(fd, 0, model.len()).unwrap() == model, "{row}");
            stack.fs.close(fd).unwrap();
            // Through fresh descriptors, so every shim has to go back to the
            // store (twice: a write-through cache fills on the first).
            assert!(
                read_all(stack.fs.as_ref(), "/f", model.len()) == model,
                "{row}"
            );
            assert!(
                read_all(stack.fs.as_ref(), "/f", model.len()) == model,
                "{row}"
            );

            // No tier is dark, and no absent tier is charged.
            let b = stack.profiler.breakdown(Duration::from_secs(1));
            assert_eq!(b.cache > Duration::ZERO, c.cache, "{row}: {b:?}");
            assert_eq!(b.route > Duration::ZERO, c.routed, "{row}: {b:?}");
            let counters = stack.store.io_counters();
            assert_eq!(counters.cache_hits > 0, c.cache, "{row}: {counters:?}");
            assert!(counters.write_ops > 0, "{row}: never hit the members");

            if c.breakers {
                let fd = stack.fs.open("/f", OpenFlags::default()).unwrap();
                breaker_cycle(&row, &stack, fd, &mut model);
                assert!(stack.fs.read(fd, 0, model.len()).unwrap() == model, "{row}");
                stack.fs.close(fd).unwrap();
            }
            stack.finish().unwrap();

            // A fresh stack of the same shape over the same backends sees
            // exactly what was acknowledged.
            let again = mount(c, shim, stack.members.clone());
            drop(stack);
            assert!(
                read_all(again.fs.as_ref(), "/f", model.len()) == model,
                "{row}"
            );
        }
    }
}

#[test]
#[should_panic(expected = "one backend")]
fn an_unrouted_stack_refuses_more_than_one_backend() {
    let _ = StackBuilder::new(fresh_members(2)).build();
}
