//! Scale-out experiment: throughput vs backend count under the routed tier.
//!
//! The paper's shims are backend-agnostic — "a configurable directory" —
//! which is what lets the `lamassu-dist` tier slot a whole cluster of
//! backends underneath without the shims noticing. This experiment measures
//! what distribution buys: sequential 4 KiB reads and writes on the shims
//! over the NFS profile, sweeping the backend count N ∈ {1, 2, 4, 8} at
//! replication factors R ∈ {1, 2}.
//!
//! Block-range placement stripes each file across the cluster, and the
//! routed tier's modelled I/O time is the *busiest member's* makespan
//! (independent servers), so sequential-read bandwidth grows with N — the
//! headline shape, asserted by the release perf test and a CI step:
//! LamassuFS seq-read at R = 1 speeds up **≥ 2x** from 1 backend to 4.
//! R = 2 pays the fan-out on writes (every unit goes to two members) while
//! reads stay near R = 1, and the per-member op counters expose how evenly
//! the ring spreads load.

use crate::report::{write_json, Table};
use crate::setup::{backends, mount_on, FsKind};
use lamassu_core::SpanConfig;
use lamassu_dist::{DistConfig, Granularity};
use lamassu_storage::StorageProfile;
use lamassu_workloads::{FioConfig, FioTester, Workload};
use serde::Serialize;

/// The backend counts the sweep visits.
pub const BACKEND_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The replication factors the sweep visits.
pub const REPLICAS: [usize; 2] = [1, 2];

/// Placement-unit size: fine enough that even the small CI file stripes
/// across all eight backends with low imbalance.
pub const UNIT_BYTES: u64 = 128 * 1024;

/// One (file system, workload, backends, replicas) measurement.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleoutRow {
    /// File-system variant label.
    pub fs: String,
    /// "seq-read" or "seq-write".
    pub workload: String,
    /// Number of member backends below the router.
    pub backends: usize,
    /// Replication factor.
    pub replicas: usize,
    /// Throughput in MiB/s (compute plus busiest-member transport time).
    pub bandwidth_mib_s: f64,
    /// Modelled transport makespan milliseconds (busiest member).
    pub io_ms: f64,
    /// Bandwidth relative to the same configuration at 1 backend.
    pub speedup_vs_1: f64,
    /// Busiest member's share of the cluster's read+write ops, in percent —
    /// 100/N would be a perfectly even spread.
    pub max_member_op_pct: f64,
}

/// Runs the sweep with a `file_size`-byte file over the NFS profile and
/// returns one row per (shim, workload, backends, replicas) point.
pub fn run(file_size: u64) -> Vec<ScaleoutRow> {
    let profile = StorageProfile::nfs_1gbe();
    let tester = FioTester::new(FioConfig {
        file_size,
        ..FioConfig::default()
    });
    let mut rows = Vec::new();
    for kind in [FsKind::Plain, FsKind::Lamassu] {
        for workload in [Workload::SeqRead, Workload::SeqWrite] {
            for &replicas in &REPLICAS {
                let mut base_bw = None;
                for &members in &BACKEND_COUNTS {
                    let config =
                        DistConfig::new(replicas).granularity(Granularity::BlockRange(UNIT_BYTES));
                    let tiers = backends(profile, members).dist(config);
                    let m = mount_on(kind, tiers, 8, SpanConfig::default());
                    let router = m.router.as_ref().expect("routed mount");
                    tester
                        .populate(m.fs.as_ref(), "/scale.dat")
                        .expect("populate");
                    m.store.reset_io_accounting();
                    let result = tester
                        .run(m.fs.as_ref(), m.store.as_ref(), "/scale.dat", workload)
                        .expect("scaleout run");
                    let per_member = router.member_io_counters();
                    let ops = |c: &lamassu_storage::IoCounters| c.read_ops + c.write_ops;
                    let total_ops: u64 = per_member.iter().map(|(_, c)| ops(c)).sum();
                    let max_ops = per_member.iter().map(|(_, c)| ops(c)).max().unwrap_or(0);
                    let bw = result.bandwidth_mib_s;
                    let base = *base_bw.get_or_insert(bw);
                    rows.push(ScaleoutRow {
                        fs: kind.label().to_string(),
                        workload: workload.label().to_string(),
                        backends: members,
                        replicas,
                        bandwidth_mib_s: bw,
                        io_ms: result.io_time.as_secs_f64() * 1e3,
                        speedup_vs_1: bw / base.max(1e-12),
                        max_member_op_pct: if total_ops == 0 {
                            0.0
                        } else {
                            max_ops as f64 / total_ops as f64 * 100.0
                        },
                    });
                }
            }
        }
    }

    let mut table = Table::new(
        "Scale-out: routed-tier throughput vs backend count (NFS profile)",
        &[
            "fs",
            "workload",
            "N",
            "R",
            "MiB/s",
            "I/O ms",
            "vs N=1",
            "max member %",
        ],
    );
    for r in &rows {
        table.row(&[
            r.fs.clone(),
            r.workload.clone(),
            format!("{}", r.backends),
            format!("{}", r.replicas),
            format!("{:.1}", r.bandwidth_mib_s),
            format!("{:.1}", r.io_ms),
            format!("{:.2}x", r.speedup_vs_1),
            format!("{:.0}%", r.max_member_op_pct),
        ]);
    }
    table.print();
    write_json("scaleout", &rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(
        rows: &'a [ScaleoutRow],
        fs: &str,
        wl: &str,
        n: usize,
        r: usize,
    ) -> &'a ScaleoutRow {
        rows.iter()
            .find(|row| {
                row.fs == fs && row.workload == wl && row.backends == n && row.replicas == r
            })
            .unwrap_or_else(|| panic!("missing row {fs}/{wl}/N={n}/R={r}"))
    }

    #[test]
    fn seq_read_bandwidth_scales_at_least_2x_from_1_to_4_backends() {
        // The acceptance shape: striping sequential reads across 4 modelled
        // NFS backends at R = 1 must at least double LamassuFS bandwidth,
        // because each member serves ~1/4 of the units on its own transport
        // and the routed makespan is the busiest member's time.
        let rows = run(8 * 1024 * 1024);
        for fs in ["PlainFS", "LamassuFS"] {
            let one = find(&rows, fs, "seq-read", 1, 1);
            let four = find(&rows, fs, "seq-read", 4, 1);
            assert!(
                four.bandwidth_mib_s >= 2.0 * one.bandwidth_mib_s,
                "{fs} seq-read: 4 backends {:.1} MiB/s vs 1 backend {:.1} MiB/s",
                four.bandwidth_mib_s,
                one.bandwidth_mib_s
            );
        }
        // Replication is read-cheap: R = 2 reads only the primary, so its
        // 4-backend read bandwidth stays within reach of R = 1.
        let r1 = find(&rows, "LamassuFS", "seq-read", 4, 1);
        let r2 = find(&rows, "LamassuFS", "seq-read", 4, 2);
        assert!(
            r2.bandwidth_mib_s >= 0.5 * r1.bandwidth_mib_s,
            "R=2 reads collapsed: {:.1} vs {:.1} MiB/s",
            r2.bandwidth_mib_s,
            r1.bandwidth_mib_s
        );
        // The ring must spread load: at 4 backends no member may serve more
        // than ~60% of the ops (100/N would be a perfect 25%).
        assert!(
            r1.max_member_op_pct < 60.0,
            "placement is lopsided: busiest member served {:.0}% of ops",
            r1.max_member_op_pct
        );
    }
}
