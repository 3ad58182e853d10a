//! Queue-depth experiment: what the completion-based I/O engine buys.
//!
//! The async pipelines (`lamassu-core::span`, [`IoMode::Async`] — the
//! default) submit all of a span's contiguous runs before draining any
//! completion, so up to `queue_depth` backend operations from **one** client
//! thread overlap on the modelled channel. This experiment sweeps the
//! channel's queue depth over {1, 4, 8, 16} and reads the same file
//! sequentially and at random through `LamassuFs` and `PlainFs` over the NFS
//! profile, reporting the virtual transport makespan at each depth.
//!
//! The headline number (asserted by the release-mode shape test and a CI
//! step): a 4 MiB sequential LamassuFS read at queue depth 8 finishes in
//! **≤ half** the depth-1 transport time — a ≥2× throughput gain from
//! overlap alone, no pipeline change. Each 1 MiB application read spans
//! three ≤118-block segment runs, all in flight together once the channel is
//! deep enough. PlainFS is the control: its reads are one submission each,
//! so its row stays flat across depths.
//!
//! [`IoMode::Async`]: lamassu_core::IoMode::Async

use crate::report::{write_json, Table};
use crate::setup::{backends, mount_on, FsKind, Mount};
use lamassu_core::{OpenFlags, SpanConfig};
use lamassu_storage::StorageProfile;
use lamassu_workloads::{FioConfig, FioTester};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;

/// How much of the file one application-level I/O covers (1 MiB, matching
/// the `span_io` experiment; the pipelines split it into runs).
const APP_IO: usize = 1024 * 1024;

/// The queue depths swept (the NFS profile's native depth is 8).
pub const DEPTHS: [usize; 4] = [1, 4, 8, 16];

/// One (file system, workload, queue depth) measurement.
#[derive(Debug, Clone, Serialize)]
pub struct QdepthRow {
    /// File-system variant label.
    pub fs: String,
    /// "seq-read" or "rand-read".
    pub workload: String,
    /// The channel's queue depth for this mount.
    pub qd: usize,
    /// Backend read operations issued.
    pub read_ops: u64,
    /// Modelled transport makespan of the read phase, milliseconds.
    pub io_ms: f64,
    /// Throughput over the virtual makespan, MiB/s.
    pub mib_s: f64,
}

/// Reads the whole file in [`APP_IO`] chunks at the given chunk offsets
/// through one reused buffer, returning backend read ops and the virtual
/// transport makespan.
fn measured_read(m: &Mount, path: &str, offsets: &[u64]) -> (u64, f64) {
    let fd = m.fs.open(path, OpenFlags::default()).expect("open");
    // Warm-up pass so steady-state pools and file state don't skew the
    // measured pass, then reset the accounting.
    let mut buf = vec![0u8; APP_IO];
    m.fs.read_into(fd, 0, &mut buf).expect("warm-up read");
    m.store.reset_io_accounting();
    for &offset in offsets {
        let n = m.fs.read_into(fd, offset, &mut buf).expect("read");
        assert!(n > 0, "file ends early at {offset}");
    }
    let ops = m.store.io_counters().read_ops;
    let io_ms = m.store.io_time().as_secs_f64() * 1e3;
    m.fs.close(fd).expect("close");
    (ops, io_ms)
}

/// Runs the sweep with a `file_size`-byte file over the NFS profile.
pub fn run(file_size: u64) -> Vec<QdepthRow> {
    let chunks: Vec<u64> = (0..file_size).step_by(APP_IO).collect();
    let mut shuffled = chunks.clone();
    shuffled.shuffle(&mut StdRng::seed_from_u64(0x9d));
    let tester = FioTester::new(FioConfig {
        file_size,
        ..FioConfig::default()
    });

    let mut rows = Vec::new();
    for kind in [FsKind::Lamassu, FsKind::Plain] {
        for qd in DEPTHS {
            let profile = StorageProfile::nfs_1gbe().with_queue_depth(qd);
            let m = mount_on(kind, backends(profile, 1), 8, SpanConfig::default());
            tester.populate(m.fs.as_ref(), "/qd.dat").expect("populate");
            for (workload, offsets) in [("seq-read", &chunks), ("rand-read", &shuffled)] {
                let (read_ops, io_ms) = measured_read(&m, "/qd.dat", offsets);
                let mib = file_size as f64 / (1024.0 * 1024.0);
                rows.push(QdepthRow {
                    fs: kind.label().to_string(),
                    workload: workload.to_string(),
                    qd,
                    read_ops,
                    io_ms,
                    mib_s: mib / (io_ms / 1e3),
                });
            }
        }
    }

    let mut table = Table::new(
        "Queue depth: async-pipeline read makespan vs channel depth (NFS profile)",
        &["fs", "workload", "qd", "rd ops", "I/O ms", "MiB/s"],
    );
    for r in &rows {
        table.row(&[
            r.fs.clone(),
            r.workload.clone(),
            format!("{}", r.qd),
            format!("{}", r.read_ops),
            format!("{:.1}", r.io_ms),
            format!("{:.1}", r.mib_s),
        ]);
    }
    table.print();
    write_json("qdepth", &rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(rows: &'a [QdepthRow], fs: &str, workload: &str, qd: usize) -> &'a QdepthRow {
        rows.iter()
            .find(|r| r.fs == fs && r.workload == workload && r.qd == qd)
            .unwrap_or_else(|| panic!("missing row {fs}/{workload}/qd{qd}"))
    }

    #[test]
    fn sweep_covers_the_matrix() {
        let rows = run(2 * 1024 * 1024);
        assert_eq!(rows.len(), 2 * 2 * DEPTHS.len());
        for r in &rows {
            assert!(
                r.read_ops > 0,
                "{}/{}/qd{} issued no reads",
                r.fs,
                r.workload,
                r.qd
            );
            assert!(r.io_ms > 0.0);
        }
        // PlainFS reads are one submission each: depth cannot help, so the
        // control row stays flat (equal virtual makespan at every depth).
        let p1 = find(&rows, "PlainFS", "seq-read", 1);
        let p16 = find(&rows, "PlainFS", "seq-read", 16);
        assert_eq!(p1.read_ops, p16.read_ops);
        assert!((p1.io_ms - p16.io_ms).abs() < 1e-6);
    }

    // The acceptance shape is a release-mode property only in that CI runs
    // it there; the metric itself is virtual-time and deterministic.
    #[cfg(not(debug_assertions))]
    #[test]
    fn depth_eight_doubles_sequential_read_throughput() {
        let rows = run(4 * 1024 * 1024);
        let qd1 = find(&rows, "LamassuFS", "seq-read", 1);
        let qd8 = find(&rows, "LamassuFS", "seq-read", 8);
        assert!(
            qd8.mib_s >= 2.0 * qd1.mib_s,
            "depth-8 seq read {:.1} MiB/s vs depth-1 {:.1} MiB/s — overlap under 2x",
            qd8.mib_s,
            qd1.mib_s
        );
        // Random reads overlap just the same: runs are submitted per
        // application call, so access order doesn't gate the win.
        let r1 = find(&rows, "LamassuFS", "rand-read", 1);
        let r8 = find(&rows, "LamassuFS", "rand-read", 8);
        assert!(r8.mib_s >= 2.0 * r1.mib_s);
    }
}
