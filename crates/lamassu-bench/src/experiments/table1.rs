//! Table 1: storage efficiency with (synthetic) VM images.
//!
//! Each of the five VirtualBox images from the paper is replaced by a
//! synthetic file with the same size and duplicate-block fraction (see
//! DESIGN.md §3), copied through PlainFS and LamassuFS onto separate
//! deduplicating volumes. The table reports the percentage of blocks
//! deduplicated through each shim and LamassuFS's space overhead. EncFS is
//! omitted just as in the paper ("EncFS results have \[been\] omitted because
//! they were all zero") — a column in the JSON report confirms the zero.

use crate::experiments::write_file;
use crate::report::{write_json, Table};
use crate::setup::{mount, FsKind};
use lamassu_storage::StorageProfile;
use lamassu_workloads::VM_IMAGES;
use serde::Serialize;

/// One VM-image row of Table 1.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Image name.
    pub image: String,
    /// Synthetic image size in bytes after scaling.
    pub size_bytes: u64,
    /// Percentage of blocks deduplicated when stored through PlainFS.
    pub plainfs_dedup_pct: f64,
    /// Percentage of blocks deduplicated when stored through LamassuFS.
    pub lamassufs_dedup_pct: f64,
    /// Percentage of blocks deduplicated when stored through EncFS
    /// (expected to be ~0; omitted from the printed table as in the paper).
    pub encfs_dedup_pct: f64,
    /// LamassuFS space overhead relative to PlainFS on deduplicated storage.
    pub space_overhead_pct: f64,
}

/// Runs the Table 1 experiment; `scale` divides the real image sizes.
pub fn run(scale: u64) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for (i, image) in VM_IMAGES.iter().enumerate() {
        let spec = image.to_synthetic(scale, 7100 + i as u64);
        let data = spec.generate();
        let mut dedup_pct = [0.0f64; 3];
        let mut after = [0.0f64; 3];
        for (j, kind) in [FsKind::Plain, FsKind::Lamassu, FsKind::Enc]
            .iter()
            .enumerate()
        {
            let m = mount(*kind, StorageProfile::instant(), 8);
            write_file(m.fs.as_ref(), "/image.vdi", &data);
            let usage = m.members[0].usage();
            dedup_pct[j] = usage.deduplicated_pct;
            after[j] = usage.used_after_dedup as f64;
        }
        rows.push(Table1Row {
            image: image.name.to_string(),
            size_bytes: spec.size_bytes,
            plainfs_dedup_pct: dedup_pct[0],
            lamassufs_dedup_pct: dedup_pct[1],
            encfs_dedup_pct: dedup_pct[2],
            space_overhead_pct: (after[1] - after[0]) / after[0] * 100.0,
        });
    }

    let mut table = Table::new(
        "Table 1: storage efficiency with VM images (synthetic stand-ins)",
        &[
            "VM image",
            "Size (MiB)",
            "% dedup PlainFS",
            "% dedup LamassuFS",
            "Space overhead",
        ],
    );
    for r in &rows {
        table.row(&[
            r.image.clone(),
            format!("{}", r.size_bytes / (1024 * 1024)),
            format!("{:.2}%", r.plainfs_dedup_pct),
            format!("{:.2}%", r.lamassufs_dedup_pct),
            format!("{:.2}%", r.space_overhead_pct),
        ]);
    }
    table.print();
    write_json("table1_vm_images", &rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        // Aggressive scaling keeps the test quick; ratios are scale-free.
        let rows = run(2048);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            // LamassuFS deduplicates almost as much as PlainFS…
            assert!(
                (r.plainfs_dedup_pct - r.lamassufs_dedup_pct).abs() < 2.0,
                "{}: plain {} vs lamassu {}",
                r.image,
                r.plainfs_dedup_pct,
                r.lamassufs_dedup_pct
            );
            // …with a small (<~2.5 %) space overhead, while EncFS saves ~nothing.
            assert!(
                r.space_overhead_pct > 0.0 && r.space_overhead_pct < 2.5,
                "{}",
                r.image
            );
            assert!(r.encfs_dedup_pct < 1.0, "{}", r.image);
            // The dedup fraction roughly matches the image profile.
            let expected = VM_IMAGES
                .iter()
                .find(|v| v.name == r.image)
                .unwrap()
                .dedup_fraction
                * 100.0;
            assert!((r.plainfs_dedup_pct - expected).abs() < 3.0, "{}", r.image);
        }
    }
}
