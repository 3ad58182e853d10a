//! Figure 9: LamassuFS write/read latency breakdown on a RAM disk.
//!
//! The LamassuFS read and write paths are instrumented into the paper's five
//! categories (Encrypt, Decrypt, GetCEKey, I/O, Misc). The paper's finding is
//! that GetCEKey — dominated by the per-block SHA-256 — is the largest
//! contributor (58 % of seq-write and 80 % of seq-read latency on their
//! AES-NI hardware), and that dropping the data-integrity hash from the read
//! path ("meta-only") removes most of the read-side cost.
//!
//! The table also has this reproduction's own categories (Cache, Plan,
//! Route, Queue), so each row's columns add up to the total per op; I/O is
//! issuing backend operations, Queue waiting for their completions.
//!
//! Absolute shares differ here because our software AES has no AES-NI (see
//! README.md, "Crypto kernels"), but the structural findings — hashing is a
//! top contributor on the write path, and the full-integrity read path pays
//! a hash the meta-only path does not — are reproduced.
//!
//! This figure reports category *means* (total time / ops), matching the
//! paper's bars. Since the profiler's categories are histogram-backed
//! (`Profiler::category_histogram`), the same instrumented run also yields
//! the per-category percentiles this mean-based figure does not show.

use crate::report::{write_json, Table};
use crate::setup::{mount, FsKind};
use lamassu_storage::StorageProfile;
use lamassu_workloads::{FioConfig, FioTester, Workload};
use serde::Serialize;

/// Latency breakdown of one (variant, workload) bar of Figure 9.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9Row {
    /// "LamassuFS" or "LamassuFS(meta-only)".
    pub fs: String,
    /// "seq-write" or "seq-read".
    pub workload: String,
    /// Per-operation latency attributed to each category, in microseconds.
    pub encrypt_us: f64,
    /// AES decryption share.
    pub decrypt_us: f64,
    /// SHA-256 + KDF share.
    pub get_ce_key_us: f64,
    /// Backend I/O share.
    pub io_us: f64,
    /// Block-cache management share (zero on these uncached mounts).
    pub cache_us: f64,
    /// Span-planning share (the `Plan` category of the span pipeline).
    pub plan_us: f64,
    /// Distribution-tier routing share (zero on these unrouted mounts).
    pub route_us: f64,
    /// Completion-wait share: the barriers that close every backend
    /// operation. With it, the categories sum to the total.
    pub queue_us: f64,
    /// Remainder.
    pub misc_us: f64,
    /// GetCEKey share of the total, in percent.
    pub get_ce_key_pct: f64,
    /// Block-buffer pool hit rate of the mount so far, in percent (the
    /// zero-allocation data path runs this to ~100 once warm; see
    /// `lamassu-core::pool`).
    pub pool_hit_pct: f64,
    /// Share of AES blocks this workload dispatched to the wide fixsliced
    /// kernel (the rest fell back to the scalar T-table path), in percent.
    pub wide_block_pct: f64,
    /// Share of convergent-key derivations that went through the 4-lane
    /// SHA-256 path, in percent.
    pub wide_derive_pct: f64,
}

/// Percentage `wide / (wide + scalar)`, or 0 when neither path ran.
fn wide_pct(wide: u64, scalar: u64) -> f64 {
    if wide + scalar == 0 {
        0.0
    } else {
        wide as f64 * 100.0 / (wide + scalar) as f64
    }
}

/// Runs the Figure 9 experiment with a `file_size`-byte file on a RAM disk.
pub fn run(file_size: u64) -> Vec<Fig9Row> {
    let tester = FioTester::new(FioConfig {
        file_size,
        ..FioConfig::default()
    });
    let mut rows = Vec::new();

    for kind in [FsKind::Lamassu, FsKind::LamassuMetaOnly] {
        let m = mount(kind, StorageProfile::ram_disk(), 8);
        tester
            .populate(m.fs.as_ref(), "/fio.dat")
            .expect("populate");
        for workload in [Workload::SeqWrite, Workload::SeqRead] {
            let profiler = m.profiler.clone();
            profiler.reset();
            let (wb0, sb0, wd0, sd0) = lamassu_crypto::stats::snapshot();
            let result = tester
                .run(m.fs.as_ref(), m.store.as_ref(), "/fio.dat", workload)
                .expect("benchmark workload");
            let (wb1, sb1, wd1, sd1) = lamassu_crypto::stats::snapshot();
            let breakdown = profiler.breakdown(result.total_time);
            let per_op = |d: std::time::Duration| d.as_secs_f64() * 1e6 / result.ops as f64;
            rows.push(Fig9Row {
                fs: kind.label().to_string(),
                workload: workload.label().to_string(),
                encrypt_us: per_op(breakdown.encrypt),
                decrypt_us: per_op(breakdown.decrypt),
                get_ce_key_us: per_op(breakdown.get_ce_key),
                io_us: per_op(breakdown.io),
                cache_us: per_op(breakdown.cache),
                plan_us: per_op(breakdown.plan),
                route_us: per_op(breakdown.route),
                queue_us: per_op(breakdown.queue),
                misc_us: per_op(breakdown.misc),
                get_ce_key_pct: breakdown.get_ce_key_fraction() * 100.0,
                pool_hit_pct: profiler.pool_stats().hit_rate() * 100.0,
                wide_block_pct: wide_pct(wb1 - wb0, sb1 - sb0),
                wide_derive_pct: wide_pct(wd1 - wd0, sd1 - sd0),
            });
        }
    }

    let mut table = Table::new(
        "Figure 9: LamassuFS latency breakdown per 4 KiB op on a RAM disk (us)",
        &[
            "variant",
            "workload",
            "Encrypt",
            "Decrypt",
            "GetCEKey",
            "I/O",
            "Cache",
            "Plan",
            "Route",
            "Queue",
            "Misc",
            "GetCEKey %",
            "Pool hit %",
            "Wide AES %",
            "Wide KDF %",
        ],
    );
    for r in &rows {
        table.row(&[
            r.fs.clone(),
            r.workload.clone(),
            format!("{:.1}", r.encrypt_us),
            format!("{:.1}", r.decrypt_us),
            format!("{:.1}", r.get_ce_key_us),
            format!("{:.1}", r.io_us),
            format!("{:.1}", r.cache_us),
            format!("{:.1}", r.plan_us),
            format!("{:.1}", r.route_us),
            format!("{:.1}", r.queue_us),
            format!("{:.1}", r.misc_us),
            format!("{:.0}%", r.get_ce_key_pct),
            format!("{:.0}%", r.pool_hit_pct),
            format!("{:.0}%", r.wide_block_pct),
            format!("{:.0}%", r.wide_derive_pct),
        ]);
    }
    table.print();
    write_json("fig9_latency_breakdown", &rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_shape() {
        let rows = run(2 * 1024 * 1024);
        assert_eq!(rows.len(), 4);
        let find = |fs: &str, wl: &str| {
            rows.iter()
                .find(|r| r.fs == fs && r.workload == wl)
                .unwrap()
                .clone()
        };
        // The write path always pays GetCEKey; the full-integrity read path
        // pays it too, while the meta-only read path skips it.
        let full_write = find("LamassuFS", "seq-write");
        assert!(full_write.get_ce_key_us > 0.5);
        let full_read = find("LamassuFS", "seq-read");
        let meta_read = find("LamassuFS(meta-only)", "seq-read");
        assert!(full_read.get_ce_key_us > meta_read.get_ce_key_us * 3.0);
        // Decryption dominates reads, encryption dominates writes.
        assert!(full_read.decrypt_us > full_read.encrypt_us);
        assert!(full_write.encrypt_us > full_write.decrypt_us);
        // Every backend operation ends at a barrier, so every bar waits.
        assert!(rows.iter().all(|r| r.queue_us > 0.0));
    }
}
