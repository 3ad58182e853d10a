//! Figure 10: single-file throughput as the reserved-slot count R varies.
//!
//! `R` is the round width of the §2.4 commit: how many data-block writes of
//! one segment go behind one pair of metadata writes. Increasing it means
//! fewer rounds — fewer metadata seals and writes — per committed segment, so
//! write throughput improves (the paper measures a ~1.6x speedup at its peak
//! around R = 48), while read throughput sags very slightly because a larger
//! transient area means fewer keys per metadata block and therefore more
//! metadata to read per unit of data. In the paper's prototype `R` was also
//! the size of the write buffer; on the span pipeline this sweep runs on, a
//! file commits a 256-block span at a time whatever `R` is, and the sweep's
//! shape comes from the round count alone.

use crate::report::{write_json, Table};
use crate::setup::{mount, FsKind};
use lamassu_storage::StorageProfile;
use lamassu_workloads::{FioConfig, FioTester, Workload};
use serde::Serialize;

/// The R values swept in the paper's Figure 10/11.
pub const R_VALUES: [usize; 8] = [1, 2, 8, 32, 48, 52, 56, 60];

/// One (R, workload) data point.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10Point {
    /// Number of reserved key slots.
    pub r: usize,
    /// Workload label.
    pub workload: String,
    /// Bandwidth in MiB/s.
    pub bandwidth_mib_s: f64,
}

/// Runs the R sweep with a `file_size`-byte file on a RAM disk.
pub fn run(file_size: u64) -> Vec<Fig10Point> {
    let workloads = [
        Workload::SeqRead,
        Workload::RandRead,
        Workload::SeqWrite,
        Workload::RandWrite,
    ];
    let tester = FioTester::new(FioConfig {
        file_size,
        ..FioConfig::default()
    });
    let mut points = Vec::new();

    for r in R_VALUES {
        let m = mount(FsKind::Lamassu, StorageProfile::ram_disk(), r);
        tester
            .populate(m.fs.as_ref(), "/fio.dat")
            .expect("populate");
        for workload in workloads {
            let result = tester
                .run(m.fs.as_ref(), m.store.as_ref(), "/fio.dat", workload)
                .expect("benchmark workload");
            points.push(Fig10Point {
                r,
                workload: workload.label().to_string(),
                bandwidth_mib_s: result.bandwidth_mib_s,
            });
        }
    }

    let mut table = Table::new(
        "Figure 10: LamassuFS throughput by reserved key slots R (MiB/s, RAM disk)",
        &["R", "seq-read", "rand-read", "seq-write", "rand-write"],
    );
    for r in R_VALUES {
        let get = |wl: &str| {
            points
                .iter()
                .find(|p| p.r == r && p.workload == wl)
                .map(|p| format!("{:.1}", p.bandwidth_mib_s))
                .unwrap_or_default()
        };
        table.row(&[
            r.to_string(),
            get("seq-read"),
            get("rand-read"),
            get("seq-write"),
            get("rand-write"),
        ]);
    }
    table.print();
    write_json("fig10_r_sweep_throughput", &points);
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_throughput_improves_with_batching() {
        let points = run(2 * 1024 * 1024);
        let bw = |r: usize, wl: &str| {
            points
                .iter()
                .find(|p| p.r == r && p.workload == wl)
                .unwrap()
                .bandwidth_mib_s
        };
        // R = 48 puts 48 blocks of a segment behind each pair of metadata
        // writes where R = 1 puts one: sequential writes must speed up
        // noticeably (the paper reports ~1.6x).
        assert!(
            bw(48, "seq-write") > bw(1, "seq-write") * 1.1,
            "R=48 {} vs R=1 {}",
            bw(48, "seq-write"),
            bw(1, "seq-write")
        );
        // Reads must not collapse as R grows.
        assert!(bw(60, "seq-read") > bw(1, "seq-read") * 0.5);
    }
}
