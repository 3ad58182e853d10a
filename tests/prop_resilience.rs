//! Property test: a `ResilientStore` over a fault-injected `DirStore` driven
//! by random op sequences under random transient fault schedules is
//! byte-identical to a bare, fault-free `DirStore`.
//!
//! Every operation is applied to the self-healing stack and to an unwrapped
//! reference store; results (data, lengths, and error payloads) must match
//! exactly — the injected refusals and outages must be invisible to the
//! client. Schedules are chosen so the store always heals
//! within the (generous) retry budget: what the resilience layer promises is
//! exactly "transient faults never surface".

use lamassu::resilience::{OpBudget, ResilientStore, RetryPolicy};
use lamassu::storage::{DirStore, FaultyStore, ObjectStore, StorageProfile};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Objects the ops draw from (a tiny namespace maximizes interaction).
const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];

#[derive(Debug, Clone)]
enum Op {
    Create(usize),
    Write {
        o: usize,
        offset: u16,
        len: u8,
        fill: u8,
    },
    ReadInto {
        o: usize,
        offset: u16,
        len: u8,
    },
    ReadAt {
        o: usize,
        offset: u16,
        len: u8,
    },
    Len(usize),
    Truncate {
        o: usize,
        size: u16,
    },
    Rename {
        from: usize,
        to: usize,
    },
    Remove(usize),
    Flush(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let name = 0usize..NAMES.len();
    prop_oneof![
        2 => name.clone().prop_map(Op::Create),
        6 => (0usize..3, 0u16..1500, 1u8..=255).prop_map(|(o, offset, len)| Op::Write {
            o,
            offset,
            len,
            fill: (offset ^ (len as u16) << 8) as u8,
        }),
        4 => (0usize..3, 0u16..1600, 0u8..=255)
            .prop_map(|(o, offset, len)| Op::ReadInto { o, offset, len }),
        2 => (0usize..3, 0u16..1600, 0u8..=255)
            .prop_map(|(o, offset, len)| Op::ReadAt { o, offset, len }),
        2 => name.clone().prop_map(Op::Len),
        2 => (0usize..3, 0u16..1500).prop_map(|(o, size)| Op::Truncate { o, size }),
        1 => (0usize..3, 0usize..3).prop_map(|(from, to)| Op::Rename { from, to }),
        1 => name.clone().prop_map(Op::Remove),
        1 => name.prop_map(Op::Flush),
    ]
}

/// A fault schedule that always heals — the contract under test is that
/// *transient* trouble never surfaces.
#[derive(Debug, Clone, Copy)]
enum Schedule {
    /// No faults at all (the wrapper must be a pure pass-through).
    None,
    /// Refuse each op independently with `rate_pct` percent probability.
    Transient { seed: u64, rate_pct: u8 },
    /// Hard-crash after `after` successful writes, heal after refusing
    /// `refusals` ops.
    CrashWrites { after: u8, refusals: u8 },
    /// Hard-crash after `after` successful reads, heal after refusing
    /// `refusals` ops.
    CrashReads { after: u8, refusals: u8 },
    /// Hard-crash after `after` successful writes, heal once `outage_ms`
    /// of virtual time passes (backoff sleeps drive the clock forward).
    CrashVirtual { after: u8, outage_ms: u8 },
}

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        1 => Just(Schedule::None),
        3 => (any::<u64>(), 1u8..=40).prop_map(|(seed, rate_pct)| Schedule::Transient {
            seed,
            rate_pct,
        }),
        2 => (0u8..20, 1u8..6).prop_map(|(after, refusals)| Schedule::CrashWrites {
            after,
            refusals,
        }),
        2 => (0u8..20, 1u8..6).prop_map(|(after, refusals)| Schedule::CrashReads {
            after,
            refusals,
        }),
        2 => (0u8..20, 1u8..=30).prop_map(|(after, outage_ms)| Schedule::CrashVirtual {
            after,
            outage_ms,
        }),
    ]
}

/// Fresh, unique base directory for one test case.
fn fresh_base() -> std::path::PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "lamassu-prop-resilience-{}-{case}",
        std::process::id()
    ))
}

fn apply_and_compare(ops: &[Op], schedule: Schedule, nfs: bool) -> Result<(), TestCaseError> {
    let base = fresh_base();
    let profile = if nfs {
        StorageProfile::nfs_1gbe()
    } else {
        StorageProfile::instant()
    };
    let faulty = Arc::new(FaultyStore::new(Arc::new(
        DirStore::open(base.join("faulty"), profile).unwrap(),
    )));
    // A budget generous enough that every schedule above heals within it:
    // refusal counts stay below 6, virtual outages below ~30 ms (the
    // exponential backoff crosses that within a handful of sleeps), and a
    // 40% transient rate failing 16 independent draws is out of reach.
    let store = ResilientStore::new(
        faulty.clone(),
        RetryPolicy::default(),
        OpBudget {
            max_attempts: 16,
            max_elapsed: Duration::from_secs(60),
        },
    );
    let reference = DirStore::open(base.join("reference"), StorageProfile::instant()).unwrap();

    match schedule {
        Schedule::None => {}
        Schedule::Transient { seed, rate_pct } => {
            faulty.transient_fault_rate(seed, f64::from(rate_pct) / 100.0);
        }
        Schedule::CrashWrites { after, refusals } => {
            faulty.heal_after_refusals(u64::from(refusals));
            faulty.crash_after_writes(u64::from(after));
        }
        Schedule::CrashReads { after, refusals } => {
            faulty.heal_after_refusals(u64::from(refusals));
            faulty.crash_after_reads(u64::from(after));
        }
        Schedule::CrashVirtual { after, outage_ms } => {
            faulty.heal_after_virtual(Duration::from_millis(u64::from(outage_ms)));
            faulty.crash_after_writes(u64::from(after));
        }
    }

    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Create(o) => {
                prop_assert_eq!(
                    store.create(NAMES[o]),
                    reference.create(NAMES[o]),
                    "step {}",
                    step
                );
            }
            Op::Write {
                o,
                offset,
                len,
                fill,
            } => {
                let data: Vec<u8> = (0..len)
                    .map(|i| fill.wrapping_add(i).wrapping_mul(31))
                    .collect();
                prop_assert_eq!(
                    store.write_at(NAMES[o], offset as u64, &data),
                    reference.write_at(NAMES[o], offset as u64, &data),
                    "step {}",
                    step
                );
            }
            Op::ReadInto { o, offset, len } => {
                let mut got = vec![0u8; len as usize];
                let mut want = vec![0u8; len as usize];
                let r1 = store.read_into(NAMES[o], offset as u64, &mut got);
                let r2 = reference.read_into(NAMES[o], offset as u64, &mut want);
                prop_assert_eq!(r1, r2, "step {}", step);
                prop_assert_eq!(&got, &want, "step {}", step);
            }
            Op::ReadAt { o, offset, len } => {
                prop_assert_eq!(
                    store.read_at(NAMES[o], offset as u64, len as usize),
                    reference.read_at(NAMES[o], offset as u64, len as usize),
                    "step {}",
                    step
                );
            }
            Op::Len(o) => {
                prop_assert_eq!(
                    store.len(NAMES[o]),
                    reference.len(NAMES[o]),
                    "step {}",
                    step
                );
            }
            Op::Truncate { o, size } => {
                prop_assert_eq!(
                    store.truncate(NAMES[o], size as u64),
                    reference.truncate(NAMES[o], size as u64),
                    "step {}",
                    step
                );
            }
            Op::Rename { from, to } => {
                prop_assert_eq!(
                    store.rename(NAMES[from], NAMES[to]),
                    reference.rename(NAMES[from], NAMES[to]),
                    "step {}",
                    step
                );
            }
            Op::Remove(o) => {
                prop_assert_eq!(
                    store.remove(NAMES[o]),
                    reference.remove(NAMES[o]),
                    "step {}",
                    step
                );
            }
            Op::Flush(o) => {
                prop_assert_eq!(
                    store.flush(NAMES[o]),
                    reference.flush(NAMES[o]),
                    "step {}",
                    step
                );
            }
        }
        prop_assert_eq!(store.exists(NAMES[0]), reference.exists(NAMES[0]));
    }

    // Final state: listings, lengths and full contents must agree.
    let mut store_names = store.list();
    let mut reference_names = reference.list();
    store_names.sort();
    reference_names.sort();
    prop_assert_eq!(&store_names, &reference_names);
    for name in &store_names {
        let len = store.len(name).unwrap();
        prop_assert_eq!(len, reference.len(name).unwrap(), "length of {}", name);
        let mut got = vec![0u8; len as usize];
        let mut want = vec![0u8; len as usize];
        store.read_into(name, 0, &mut got).unwrap();
        reference.read_into(name, 0, &mut want).unwrap();
        prop_assert_eq!(&got, &want, "content of {}", name);
    }

    // The budget was sized so nothing surfaces; if anything was armed, it
    // either fired and was absorbed or the schedule never triggered.
    prop_assert_eq!(store.stats().budget_exhausted, 0);

    let _ = std::fs::remove_dir_all(&base);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn resilient_store_makes_fault_schedules_invisible(
        ops in prop::collection::vec(op_strategy(), 1..40),
        schedule in schedule_strategy(),
        nfs in any::<bool>(),
    ) {
        apply_and_compare(&ops, schedule, nfs)?;
    }
}
