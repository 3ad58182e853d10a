//! Property test: a `RoutedStore` over N `DirStore` shards driven by random
//! op sequences — with random backend counts, replication factors and unit
//! sizes — is byte-identical to a bare `DirStore`.
//!
//! Every operation is applied to the routed cluster and to an unrouted
//! reference store; results (data, lengths, and error payloads) must match
//! exactly. At the end, listings, lengths and full contents are compared,
//! and a scrub pass must find zero replica mismatches.

use lamassu::dist::{DistConfig, RoutedStore};
use lamassu::storage::{DirStore, ObjectStore, StorageProfile};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Fresh, unique base directory for one test case.
fn fresh_base() -> std::path::PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("lamassu-prop-dist-{}-{case}", std::process::id()))
}

fn apply_and_compare(
    ops: &[Op],
    backends: usize,
    replicas: usize,
    unit: u64,
) -> Result<(), TestCaseError> {
    let base = fresh_base();
    let members: Vec<Arc<DirStore>> = (0..backends)
        .map(|i| {
            let dir = base.join(format!("shard-{i}"));
            Arc::new(DirStore::open(dir, StorageProfile::instant()).unwrap())
        })
        .collect();
    let routed = RoutedStore::new(members, DistConfig::new(replicas).unit(unit));
    let reference = DirStore::open(base.join("reference"), StorageProfile::instant()).unwrap();

    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Create(o) => {
                prop_assert_eq!(
                    routed.create(NAMES[o]),
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
                    routed.write_at(NAMES[o], offset as u64, &data),
                    reference.write_at(NAMES[o], offset as u64, &data),
                    "step {}",
                    step
                );
            }
            Op::ReadInto { o, offset, len } => {
                let mut got = vec![0u8; len as usize];
                let mut want = vec![0u8; len as usize];
                let r1 = routed.read_into(NAMES[o], offset as u64, &mut got);
                let r2 = reference.read_into(NAMES[o], offset as u64, &mut want);
                prop_assert_eq!(r1, r2, "step {}", step);
                prop_assert_eq!(&got, &want, "step {}", step);
            }
            Op::ReadAt { o, offset, len } => {
                prop_assert_eq!(
                    routed.read_at(NAMES[o], offset as u64, len as usize),
                    reference.read_at(NAMES[o], offset as u64, len as usize),
                    "step {}",
                    step
                );
            }
            Op::Len(o) => {
                prop_assert_eq!(
                    routed.len(NAMES[o]),
                    reference.len(NAMES[o]),
                    "step {}",
                    step
                );
            }
            Op::Truncate { o, size } => {
                prop_assert_eq!(
                    routed.truncate(NAMES[o], size as u64),
                    reference.truncate(NAMES[o], size as u64),
                    "step {}",
                    step
                );
            }
            Op::Rename { from, to } => {
                prop_assert_eq!(
                    routed.rename(NAMES[from], NAMES[to]),
                    reference.rename(NAMES[from], NAMES[to]),
                    "step {}",
                    step
                );
            }
            Op::Remove(o) => {
                prop_assert_eq!(
                    routed.remove(NAMES[o]),
                    reference.remove(NAMES[o]),
                    "step {}",
                    step
                );
            }
            Op::Flush(o) => {
                prop_assert_eq!(
                    routed.flush(NAMES[o]),
                    reference.flush(NAMES[o]),
                    "step {}",
                    step
                );
            }
        }
        prop_assert_eq!(routed.exists(NAMES[0]), reference.exists(NAMES[0]));
    }

    // Final state: listings, lengths and full contents must agree, and the
    // replica sets must be in sync (no divergence a scrub would flag).
    let mut routed_names = routed.list();
    let mut reference_names = reference.list();
    routed_names.sort();
    reference_names.sort();
    prop_assert_eq!(&routed_names, &reference_names);
    for name in &routed_names {
        let len = routed.len(name).unwrap();
        prop_assert_eq!(len, reference.len(name).unwrap(), "length of {}", name);
        let mut got = vec![0u8; len as usize];
        let mut want = vec![0u8; len as usize];
        routed.read_into(name, 0, &mut got).unwrap();
        reference.read_into(name, 0, &mut want).unwrap();
        prop_assert_eq!(&got, &want, "content of {}", name);
    }
    let report = routed.scrub();
    prop_assert_eq!(report.mismatches, 0, "replicas diverged: {:?}", report);

    let _ = std::fs::remove_dir_all(&base);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn routed_store_is_transparent(
        ops in prop::collection::vec(op_strategy(), 1..40),
        backends in 1usize..4,
        replicas in 1usize..3,
        // 96-byte units make every multi-hundred-byte op span several
        // placement units (and several shards).
        unit in prop_oneof![Just(96u64), Just(256u64), Just(4096u64)],
    ) {
        apply_and_compare(&ops, backends, replicas, unit)?;
    }
}
