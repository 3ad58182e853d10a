//! Figures 7 and 8: single-file FIO throughput on a remote filer vs RAM disk.
//!
//! Five workloads (seq/rand read/write plus 7:3 mixed) are run against one
//! file through each of the four shims (PlainFS, EncFS, LamassuFS,
//! LamassuFS meta-only), first with the NFS-over-1GbE transport profile
//! (Figure 7) and then with the RAM-disk profile (Figure 8). The paper's
//! headline shapes:
//!
//! * over NFS, reads are transport-bound so all four systems cluster, while
//!   writes separate (PlainFS > EncFS > LamassuFS);
//! * on a RAM disk the CPU cost of hashing/encryption dominates, PlainFS
//!   pulls far ahead, and LamassuFS(meta-only) recovers most of the
//!   full-integrity read penalty.
//!
//! These figures reproduce the *paper's prototype*, whose data path is
//! per-block, so the mounts here pin [`SpanConfig::per_block`]. (With the
//! default span pipeline the Figure 7 write ordering inverts — LamassuFS's
//! coalesced commits issue ~3 round trips per R blocks and overtake EncFS —
//! which is exactly the improvement the `span_io` experiment measures.)

use crate::report::{write_json, Table};
use crate::setup::{backends, mount_on, FsKind};
use lamassu_core::SpanConfig;
use lamassu_storage::StorageProfile;
use lamassu_workloads::{FioConfig, FioTester, Workload};
use serde::Serialize;

/// Throughput of one (file system, workload) cell.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputCell {
    /// File-system variant label.
    pub fs: String,
    /// Workload label.
    pub workload: String,
    /// Measured bandwidth in MiB/s.
    pub bandwidth_mib_s: f64,
    /// Real compute seconds.
    pub compute_s: f64,
    /// Modelled transport seconds.
    pub io_s: f64,
}

/// Runs the five workloads over the four shims under `profile`.
///
/// `figure` selects the output name ("fig7" or "fig8"); `file_size` is the
/// single test file's size in bytes.
pub fn run(figure: &str, profile: StorageProfile, file_size: u64) -> Vec<ThroughputCell> {
    let config = FioConfig {
        file_size,
        ..FioConfig::default()
    };
    let tester = FioTester::new(config);
    let mut cells = Vec::new();

    for kind in FsKind::ALL {
        let m = mount_on(kind, backends(profile, 1), 8, SpanConfig::per_block());
        tester
            .populate(m.fs.as_ref(), "/fio.dat")
            .expect("populate benchmark file");
        for workload in Workload::ALL {
            let result = tester
                .run(m.fs.as_ref(), m.store.as_ref(), "/fio.dat", workload)
                .expect("benchmark workload");
            cells.push(ThroughputCell {
                fs: kind.label().to_string(),
                workload: workload.label().to_string(),
                bandwidth_mib_s: result.bandwidth_mib_s,
                compute_s: result.compute_time.as_secs_f64(),
                io_s: result.io_time.as_secs_f64(),
            });
        }
    }

    let title = format!(
        "{}: single-file I/O throughput (MiB/s), backing store = {}",
        if figure == "fig7" {
            "Figure 7"
        } else {
            "Figure 8"
        },
        profile.name
    );
    let mut table = Table::new(
        &title,
        &[
            "workload",
            "PlainFS",
            "EncFS",
            "LamassuFS",
            "LamassuFS(meta-only)",
        ],
    );
    for workload in Workload::ALL {
        let mut row = vec![workload.label().to_string()];
        for kind in FsKind::ALL {
            let cell = cells
                .iter()
                .find(|c| c.fs == kind.label() && c.workload == workload.label())
                .expect("cell computed above");
            row.push(format!("{:.1}", cell.bandwidth_mib_s));
        }
        table.row(&row);
    }
    table.print();
    write_json(&format!("{figure}_throughput"), &cells);
    cells
}

/// Convenience accessor used by tests and the Figure 10 sweep.
pub fn bandwidth(cells: &[ThroughputCell], fs: &str, workload: &str) -> f64 {
    cells
        .iter()
        .find(|c| c.fs == fs && c.workload == workload)
        .map(|c| c.bandwidth_mib_s)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nfs_shape_writes_separate_reads_cluster() {
        let cells = run("fig7", StorageProfile::nfs_1gbe(), 4 * 1024 * 1024);
        assert_eq!(cells.len(), 20);
        let plain_w = bandwidth(&cells, "PlainFS", "seq-write");
        let enc_w = bandwidth(&cells, "EncFS", "seq-write");
        let lms_w = bandwidth(&cells, "LamassuFS", "seq-write");
        assert!(plain_w > enc_w, "PlainFS writes faster than EncFS");
        assert!(enc_w > lms_w, "EncFS writes faster than LamassuFS");
        // Reads over NFS are transport-bound: LamassuFS reads stay close to
        // EncFS reads (the paper measures within ~12 %), and the read-side
        // gap to PlainFS is much smaller than the write-side gap.
        let enc_r = bandwidth(&cells, "EncFS", "seq-read");
        let plain_r = bandwidth(&cells, "PlainFS", "seq-read");
        let lms_r = bandwidth(&cells, "LamassuFS", "seq-read");
        assert!(lms_r > enc_r * 0.7, "encfs {enc_r} vs lamassu {lms_r}");
        // The paper's §4.2 claim: LamassuFS trails EncFS much more on writes
        // (~33 %) than on reads (1.6–12.4 %). The precise ratios depend on
        // the build profile, so assert only the ordering of the two gaps.
        let write_gap = enc_w / lms_w;
        let read_gap = enc_r / lms_r;
        assert!(
            write_gap > read_gap,
            "write gap {write_gap:.2} must exceed read gap {read_gap:.2}"
        );
        let _ = plain_r;
    }

    #[test]
    fn ram_disk_shape_compute_bound() {
        let cells = run("fig8", StorageProfile::ram_disk(), 4 * 1024 * 1024);
        let plain_r = bandwidth(&cells, "PlainFS", "seq-read");
        let lms_full = bandwidth(&cells, "LamassuFS", "seq-read");
        let lms_meta = bandwidth(&cells, "LamassuFS(meta-only)", "seq-read");
        // Removing the transport bottleneck exposes the crypto cost...
        assert!(
            plain_r > lms_full * 1.5,
            "plain {plain_r} vs lamassu {lms_full}"
        );
        // ...and skipping the per-block hash on reads recovers throughput.
        assert!(
            lms_meta > lms_full,
            "meta-only {lms_meta} vs full {lms_full}"
        );
    }
}
