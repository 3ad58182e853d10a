//! Chaos experiment: the self-healing tier under injected faults.
//!
//! Three scenarios share one deterministic mixed workload (4 KiB reads and
//! writes with occasional 256 KiB reads, offsets drawn from splitmix64)
//! driven at the object-store level so per-op latency is pure modelled
//! transport time plus the resilience layer's virtual backoff:
//!
//! 1. **control** — a fault-free NFS-profile backend under a
//!    [`lamassu_resilience::ResilientStore`]: the latency baseline (and
//!    proof the wrapper adds nothing when nothing fails).
//! 2. **transient faults** — the same backend behind a [`FaultyStore`]
//!    refusing 5 % of ops. Retries with virtual-time backoff must absorb
//!    every fault (zero client-visible errors) and quantile-triggered
//!    hedging must fire on the slow tail, while p99 stays within **3×**
//!    the fault-free p99.
//! 3. **routed burst** — a 4-backend, R = 2 routed cluster, every member
//!    at 5 % transient faults, plus a hard crash of one member that heals
//!    only after refusing a burst of ops. The
//!    [`lamassu_resilience::BreakerSet`] gate must open on the crashed
//!    member (degraded reads/writes keep the client at zero errors),
//!    re-admit it through a half-open probe once it heals, and the
//!    reclose's targeted scrub plus one full scrub must leave a second
//!    full scrub with nothing to repair (convergence).

use crate::report::{write_json, Table};
use lamassu::stack::{Resilience, StackBuilder};
use lamassu_dist::DistConfig;
use lamassu_resilience::{BreakerConfig, HedgeConfig};
use lamassu_storage::{DedupStore, FaultyStore, ObjectStore, StorageProfile};
use lamassu_telemetry::Histogram;
use serde::Serialize;
use std::sync::Arc;
use std::time::Duration;

/// Transient-fault probability of scenarios 2 and 3.
pub const FAULT_RATE: f64 = 0.05;

/// Placement-unit size of the routed scenario.
pub const UNIT_BYTES: u64 = 128 * 1024;

/// Ops per measured phase.
const OPS: usize = 600;

/// One scenario's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosRow {
    /// Scenario label.
    pub scenario: String,
    /// Operations driven in the measured phase(s).
    pub ops: u64,
    /// Operations that surfaced an error to the client (availability
    /// demands zero while every unit keeps a healthy replica).
    pub client_errors: u64,
    /// 99th-percentile per-op virtual latency, milliseconds.
    pub p99_ms: f64,
    /// Transient-failure retries the resilience layer performed.
    pub retries: u64,
    /// Operations that failed at least once but succeeded within budget.
    pub recoveries: u64,
    /// Duplicate read attempts launched past the latency quantile.
    pub hedged_reads: u64,
    /// Hedges that completed no later than the primary (or rescued it).
    pub hedge_wins: u64,
    /// Circuit-breaker Closed → Open transitions.
    pub breaker_opens: u64,
    /// Successful half-open probes (Open → Closed transitions).
    pub breaker_recloses: u64,
    /// Targeted member scrubs triggered by breaker recloses.
    pub probe_scrubs: u64,
    /// Units the post-chaos full scrub repaired.
    pub scrub_repaired: u64,
    /// Units a second full scrub still found divergent (must be 0).
    pub final_mismatches: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Writes a `file_size`-byte object in 1 MiB strides.
fn populate(store: &dyn ObjectStore, name: &str, file_size: u64) {
    store.create(name).expect("fresh store");
    let chunk = vec![0xA5u8; 1024 * 1024];
    let mut off = 0;
    while off < file_size {
        let take = chunk.len().min((file_size - off) as usize);
        store.write_at(name, off, &chunk[..take]).expect("populate");
        off += take as u64;
    }
}

/// Drives the deterministic mixed workload, recording each op's virtual
/// latency, and returns the number of client-visible errors.
fn drive(store: &dyn ObjectStore, name: &str, file_size: u64, seed: u64, hist: &Histogram) -> u64 {
    let mut small = vec![0u8; 4096];
    let mut large = vec![0u8; 256 * 1024];
    let mut errors = 0;
    for i in 0..OPS {
        let r = splitmix64(seed ^ (i as u64));
        let t0 = store.io_time();
        let result = if i % 13 == 7 {
            let off = (r % (file_size - large.len() as u64)) & !4095;
            store.read_into(name, off, &mut large).map(|_| ())
        } else if i % 5 == 4 {
            let off = (r % (file_size - small.len() as u64)) & !4095;
            store.write_at(name, off, &small)
        } else {
            let off = (r % (file_size - small.len() as u64)) & !4095;
            store.read_into(name, off, &mut small).map(|_| ())
        };
        let lat = store.io_time().saturating_sub(t0);
        hist.record(lat.as_nanos().min(u64::MAX as u128) as u64);
        if result.is_err() {
            errors += 1;
        }
    }
    errors
}

/// Hedge trigger used by the single-backend scenarios: p90 of the live
/// attempt history, so the occasional 256 KiB read (1/13 of ops) sits
/// above the threshold once the 4 KiB steady state establishes it.
fn hedge() -> HedgeConfig {
    HedgeConfig {
        quantile: 0.90,
        min_samples: 32,
        refresh_every: 16,
        floor: Duration::from_nanos(1),
    }
}

/// A fresh NFS-profile backend behind a fault injector.
fn faulty_backend() -> Arc<FaultyStore> {
    Arc::new(FaultyStore::new(Arc::new(DedupStore::new(
        4096,
        StorageProfile::nfs_1gbe(),
    ))))
}

fn single_backend(file_size: u64, fault_rate: f64, label: &str) -> ChaosRow {
    let stack = StackBuilder::new(vec![faulty_backend()])
        .resilience(Resilience {
            hedge: Some(hedge()),
            ..Resilience::default()
        })
        .build();
    let store = stack.store.as_ref();
    populate(store, "chaos.dat", file_size);
    if fault_rate > 0.0 {
        stack.members[0].transient_fault_rate(0xc0ffee, fault_rate);
    }
    let hist = Histogram::new();
    let errors = drive(store, "chaos.dat", file_size, 0xda7a, &hist);
    let s = stack.resilient.as_ref().expect("retry tier").stats();
    ChaosRow {
        scenario: label.to_string(),
        ops: OPS as u64,
        client_errors: errors,
        p99_ms: hist.quantile(0.99) as f64 / 1e6,
        retries: s.retries,
        recoveries: s.recoveries,
        hedged_reads: s.hedged_reads,
        hedge_wins: s.hedge_wins,
        breaker_opens: 0,
        breaker_recloses: 0,
        probe_scrubs: 0,
        scrub_repaired: 0,
        final_mismatches: 0,
    }
}

fn routed_burst(file_size: u64) -> ChaosRow {
    // Retries and breakers only: the router already fans reads over
    // replicas, so hedging is the single-backend scenarios' job.
    let stack = StackBuilder::new((0..4).map(|_| faulty_backend()).collect())
        .dist(DistConfig::new(2).unit(UNIT_BYTES))
        .resilience(Resilience {
            breakers: Some(BreakerConfig {
                cooldown: 4,
                ..BreakerConfig::default()
            }),
            ..Resilience::default()
        })
        .build();
    let (store, members) = (stack.store.as_ref(), &stack.members);
    let router = stack.router.as_ref().expect("routed tier");
    populate(store, "chaos.dat", file_size);

    // 5% transient refusals everywhere, plus a burst outage on member 0:
    // it hard-crashes now and heals only after refusing 16 ops — long
    // enough that the breaker opens, several half-open probes fail, and
    // the healed member re-enters through a successful probe.
    for (i, m) in members.iter().enumerate() {
        m.transient_fault_rate(0xbad_5eed ^ i as u64, FAULT_RATE);
    }
    members[0].heal_after_refusals(16);
    members[0].crash_after_writes(0);

    let hist = Histogram::new();
    let mut errors = 0;
    let mut probe_scrubbed = 0u64;
    for round in 0..3 {
        errors += drive(store, "chaos.dat", file_size, 0xf00d ^ round, &hist);
        // A reclosed breaker queues its member for a targeted resync; the
        // maintenance pass runs it between workload rounds.
        probe_scrubbed += stack.maintain().len() as u64;
    }

    // Convergence: one full scrub mops up the remaining suspects (missed
    // writes on untouched members), after which a second pass must find
    // every replica set identical.
    let repair_pass = router.scrub();
    let verify_pass = router.scrub();
    let s = stack.resilient.as_ref().expect("retry tier").stats();
    let b = stack.breakers.as_ref().expect("breaker set").stats();
    ChaosRow {
        scenario: "routed 4x R=2, 5% transient + burst outage".to_string(),
        ops: 3 * OPS as u64,
        client_errors: errors,
        p99_ms: hist.quantile(0.99) as f64 / 1e6,
        retries: s.retries,
        recoveries: s.recoveries,
        hedged_reads: s.hedged_reads,
        hedge_wins: s.hedge_wins,
        breaker_opens: b.opens,
        breaker_recloses: b.recloses,
        probe_scrubs: probe_scrubbed,
        scrub_repaired: repair_pass.repaired,
        final_mismatches: verify_pass.mismatches,
    }
}

/// Runs all three scenarios with a `file_size`-byte object and returns one
/// row per scenario.
pub fn run(file_size: u64) -> Vec<ChaosRow> {
    let rows = vec![
        single_backend(file_size, 0.0, "control (fault-free)"),
        single_backend(file_size, FAULT_RATE, "single backend, 5% transient"),
        routed_burst(file_size),
    ];

    let mut table = Table::new(
        "Chaos: self-healing under 5% transient faults and a burst outage (NFS profile)",
        &[
            "scenario",
            "ops",
            "errors",
            "p99 ms",
            "retries",
            "hedges",
            "hedge wins",
            "brk open",
            "brk reclose",
            "scrubbed",
        ],
    );
    for r in &rows {
        table.row(&[
            r.scenario.clone(),
            format!("{}", r.ops),
            format!("{}", r.client_errors),
            format!("{:.2}", r.p99_ms),
            format!("{}", r.retries),
            format!("{}", r.hedged_reads),
            format!("{}", r.hedge_wins),
            format!("{}", r.breaker_opens),
            format!("{}", r.breaker_recloses),
            format!("{}", r.probe_scrubs),
        ]);
    }
    table.print();
    write_json("chaos", &rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_faults_stay_invisible_and_the_cluster_converges() {
        let rows = run(4 * 1024 * 1024);
        let control = &rows[0];
        let faulted = &rows[1];
        let routed = &rows[2];

        // Availability: with retries riding out the 5% refusals and every
        // unit keeping a healthy replica, the client sees zero errors.
        for r in &rows {
            assert_eq!(r.client_errors, 0, "{}: visible errors", r.scenario);
        }
        assert_eq!(control.retries, 0, "control must be fault-free");

        // The injected faults were real and the recovery machinery ran.
        assert!(faulted.retries >= 1, "{faulted:?}");
        assert!(faulted.recoveries >= 1, "{faulted:?}");
        assert!(faulted.hedged_reads >= 1, "{faulted:?}");
        assert!(faulted.hedge_wins >= 1, "{faulted:?}");
        assert!(routed.retries >= 1, "{routed:?}");

        // Latency: riding out 5% faults may cost backoff on the tail but
        // must keep p99 within 3x of the fault-free baseline.
        assert!(
            faulted.p99_ms <= 3.0 * control.p99_ms,
            "faulted p99 {:.2}ms vs control {:.2}ms",
            faulted.p99_ms,
            control.p99_ms
        );

        // The burst outage drove at least one full breaker cycle, and the
        // reclose queued a targeted scrub.
        assert!(routed.breaker_opens >= 1, "{routed:?}");
        assert!(routed.breaker_recloses >= 1, "{routed:?}");
        assert!(routed.probe_scrubs >= 1, "{routed:?}");

        // Convergence: after the repair scrub, a second pass finds every
        // replica set identical.
        assert_eq!(routed.final_mismatches, 0, "{routed:?}");
    }
}
