//! Figure 6: relative disk usage after deduplication vs file redundancy α.
//!
//! A synthetic file with redundancy α is copied through EncFS, PlainFS and
//! LamassuFS onto separate deduplicating volumes; deduplication is then run
//! and `df`-style usage compared. The paper's result: EncFS stays at 100 %
//! (nothing deduplicates), PlainFS lands exactly at `(1 − α)`, and LamassuFS
//! tracks PlainFS with a small constant metadata overhead whose *relative*
//! share grows as α grows.

use crate::experiments::write_file;
use crate::report::{write_json, Table};
use crate::setup::{mount, FsKind};
use lamassu_storage::StorageProfile;
use lamassu_workloads::SyntheticSpec;
use serde::Serialize;

/// One α row of Figure 6.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Fig6Row {
    /// Redundancy fraction α of the input file.
    pub alpha: f64,
    /// Relative disk usage (%) after dedup through EncFS.
    pub encfs_pct: f64,
    /// Relative disk usage (%) after dedup through PlainFS.
    pub plainfs_pct: f64,
    /// Relative disk usage (%) after dedup through LamassuFS.
    pub lamassufs_pct: f64,
    /// LamassuFS overhead relative to PlainFS on *deduplicated* storage
    /// (`(lamassu_after - plain_after) / plain_after`), the 1.01 %–1.81 %
    /// series quoted in §4.1, which grows inversely with `(1 − α)`.
    pub lamassu_overhead_pct: f64,
}

/// Runs the Figure 6 experiment with `file_size` bytes per synthetic file.
pub fn run(file_size: u64) -> Vec<Fig6Row> {
    let alphas = [0.10, 0.20, 0.30, 0.40, 0.50];
    let mut rows = Vec::new();

    for (i, alpha) in alphas.iter().enumerate() {
        let spec = SyntheticSpec::new(file_size, *alpha, 6000 + i as u64);
        let data = spec.generate();
        let plaintext_bytes = ((data.len() as u64).div_ceil(4096) * 4096) as f64;
        let mut after = [0.0f64; 3];
        for (j, kind) in [FsKind::Enc, FsKind::Plain, FsKind::Lamassu]
            .iter()
            .enumerate()
        {
            let m = mount(*kind, StorageProfile::instant(), 8);
            write_file(m.fs.as_ref(), "/dataset.bin", &data);
            after[j] = m.members[0].usage().used_after_dedup as f64;
        }
        rows.push(Fig6Row {
            alpha: *alpha,
            // Relative usage is measured against the undeduplicated plaintext
            // footprint, matching the paper's "relative disk usage" axis.
            encfs_pct: after[0] / plaintext_bytes * 100.0,
            plainfs_pct: after[1] / plaintext_bytes * 100.0,
            lamassufs_pct: after[2] / plaintext_bytes * 100.0,
            lamassu_overhead_pct: (after[2] - after[1]) / after[1] * 100.0,
        });
    }

    let mut table = Table::new(
        "Figure 6: relative disk usage after deduplication (%)",
        &["alpha", "EncFS", "PlainFS", "LamassuFS", "Lamassu overhead"],
    );
    for r in &rows {
        table.row(&[
            format!("{:.0}%", r.alpha * 100.0),
            format!("{:.2}", r.encfs_pct),
            format!("{:.2}", r.plainfs_pct),
            format!("{:.2}", r.lamassufs_pct),
            format!("{:.2}", r.lamassu_overhead_pct),
        ]);
    }
    table.print();
    write_json("fig6_storage_efficiency", &rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        // A small file is enough to verify the shape: EncFS ~100 %, PlainFS
        // ~= (1 - alpha) * 100, LamassuFS within a couple of percent above
        // PlainFS, overhead growing with alpha.
        let rows = run(4 * 1024 * 1024);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.encfs_pct > 99.0, "EncFS never deduplicates");
            let expected_plain = (1.0 - r.alpha) * 100.0;
            assert!(
                (r.plainfs_pct - expected_plain).abs() < 1.5,
                "PlainFS {} vs expected {}",
                r.plainfs_pct,
                expected_plain
            );
            assert!(r.lamassufs_pct > r.plainfs_pct);
            assert!(r.lamassu_overhead_pct < 3.0);
        }
        assert!(
            rows[4].lamassu_overhead_pct >= rows[0].lamassu_overhead_pct,
            "relative metadata overhead grows with alpha"
        );
    }
}
