//! Span I/O experiment: the per-span pipeline's round-trip collapse.
//!
//! Every shim data path was rebuilt around spans (whole-run vectored backend
//! I/O plus parallel batch crypto — see `lamassu-core::span`); the original
//! per-block pipeline survives as a verification oracle. This experiment
//! measures what the conversion buys over the modelled NFS transport, where
//! the per-operation round trip dominates: a sequential read and a full
//! overwrite of the same file through both pipelines, on `LamassuFs` and
//! `EncFs`, with `IoCounters` recording the backend operations each issues.
//!
//! The headline number (asserted by the release-mode perf-shape test and a
//! CI step): a 4 MiB sequential read through `LamassuFs` over the NFS
//! profile issues **≤ 1/8** the backend read operations of the per-block
//! path, because every ≤118-block segment run arrives in one vectored read
//! instead of one read per block.

use crate::report::{write_json, Table};
use crate::setup::{backends, mount_on, FsKind, Mount};
use lamassu_core::{OpenFlags, SpanConfig};
use lamassu_storage::StorageProfile;
use lamassu_workloads::{FioConfig, FioTester};
use serde::Serialize;

/// How much of the file one application-level I/O covers (1 MiB, a typical
/// streaming read/write size; the pipelines split it into blocks/spans).
const APP_IO: usize = 1024 * 1024;

/// One (file system, pipeline) measurement.
#[derive(Debug, Clone, Serialize)]
pub struct SpanIoRow {
    /// File-system variant label.
    pub fs: String,
    /// "span" or "per-block".
    pub pipeline: String,
    /// Backend read operations during the sequential read phase.
    pub read_ops: u64,
    /// Modelled transport milliseconds of the read phase.
    pub read_io_ms: f64,
    /// Backend write operations during the overwrite phase.
    pub write_ops: u64,
    /// Modelled transport milliseconds of the overwrite phase.
    pub write_io_ms: f64,
}

fn span_config(pipeline: &str) -> SpanConfig {
    match pipeline {
        "span" => SpanConfig::batched(),
        _ => SpanConfig::per_block(),
    }
}

/// Sequentially reads the whole file in [`APP_IO`] chunks through one reused
/// buffer, returning the backend ops and virtual transport time it cost.
fn measured_read(m: &Mount, path: &str, file_size: u64) -> (u64, f64) {
    let fd = m.fs.open(path, OpenFlags::default()).expect("open");
    m.store.reset_io_accounting();
    let mut buf = vec![0u8; APP_IO];
    let mut offset = 0u64;
    while offset < file_size {
        let n = m.fs.read_into(fd, offset, &mut buf).expect("read");
        assert!(n > 0, "file ends early");
        offset += n as u64;
    }
    let ops = m.store.io_counters().read_ops;
    let io_ms = m.store.io_time().as_secs_f64() * 1e3;
    m.fs.close(fd).expect("close");
    (ops, io_ms)
}

/// Overwrites the whole file sequentially in [`APP_IO`] chunks, returning
/// backend write ops and virtual transport time.
fn measured_overwrite(m: &Mount, path: &str, file_size: u64) -> (u64, f64) {
    let fd = m.fs.open(path, OpenFlags::default()).expect("open");
    m.store.reset_io_accounting();
    let chunk: Vec<u8> = (0..APP_IO).map(|i| (i % 249) as u8).collect();
    let mut offset = 0u64;
    while offset < file_size {
        let take = APP_IO.min((file_size - offset) as usize);
        m.fs.write(fd, offset, &chunk[..take]).expect("write");
        offset += take as u64;
    }
    m.fs.fsync(fd).expect("fsync");
    let ops = m.store.io_counters().write_ops;
    let io_ms = m.store.io_time().as_secs_f64() * 1e3;
    m.fs.close(fd).expect("close");
    (ops, io_ms)
}

/// Runs the experiment with a `file_size`-byte file over the NFS profile.
pub fn run(file_size: u64) -> Vec<SpanIoRow> {
    let profile = StorageProfile::nfs_1gbe();
    let tester = FioTester::new(FioConfig {
        file_size,
        ..FioConfig::default()
    });
    let mut rows = Vec::new();
    for kind in [FsKind::Lamassu, FsKind::Enc] {
        for pipeline in ["per-block", "span"] {
            let m = mount_on(kind, backends(profile, 1), 8, span_config(pipeline));
            tester
                .populate(m.fs.as_ref(), "/span.dat")
                .expect("populate");
            let (read_ops, read_io_ms) = measured_read(&m, "/span.dat", file_size);
            let (write_ops, write_io_ms) = measured_overwrite(&m, "/span.dat", file_size);
            rows.push(SpanIoRow {
                fs: kind.label().to_string(),
                pipeline: pipeline.to_string(),
                read_ops,
                read_io_ms,
                write_ops,
                write_io_ms,
            });
        }
    }

    let mut table = Table::new(
        "Span I/O: backend round trips, span vs per-block pipeline (NFS profile)",
        &[
            "fs",
            "pipeline",
            "rd ops",
            "rd I/O ms",
            "wr ops",
            "wr I/O ms",
        ],
    );
    for r in &rows {
        table.row(&[
            r.fs.clone(),
            r.pipeline.clone(),
            format!("{}", r.read_ops),
            format!("{:.1}", r.read_io_ms),
            format!("{}", r.write_ops),
            format!("{:.1}", r.write_io_ms),
        ]);
    }
    table.print();
    write_json("span_io", &rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(rows: &'a [SpanIoRow], fs: &str, pipeline: &str) -> &'a SpanIoRow {
        rows.iter()
            .find(|r| r.fs == fs && r.pipeline == pipeline)
            .unwrap_or_else(|| panic!("missing row {fs}/{pipeline}"))
    }

    #[test]
    fn span_pipeline_collapses_round_trips() {
        // The acceptance shape: a 4 MiB sequential LamassuFS read over NFS
        // issues at most 1/8 the backend read operations of the per-block
        // pipeline (in practice ~20 vectored reads vs ~1030 block reads).
        let rows = run(4 * 1024 * 1024);

        let lam_pb = find(&rows, "LamassuFS", "per-block");
        let lam_sp = find(&rows, "LamassuFS", "span");
        assert!(
            lam_sp.read_ops * 8 <= lam_pb.read_ops,
            "span read ops {} vs per-block {}",
            lam_sp.read_ops,
            lam_pb.read_ops
        );
        // The modelled transport time collapses with the round trips.
        assert!(lam_sp.read_io_ms < lam_pb.read_io_ms);
        // Commit phase 2 coalesces adjacent dirty blocks: at least 2x fewer
        // backend writes (R=8 data writes fold into one vectored write).
        assert!(
            lam_sp.write_ops * 2 <= lam_pb.write_ops,
            "span write ops {} vs per-block {}",
            lam_sp.write_ops,
            lam_pb.write_ops
        );

        // EncFS: data blocks are contiguous, so a 1 MiB span is one round
        // trip per direction vs 256 per-block trips.
        let enc_pb = find(&rows, "EncFS", "per-block");
        let enc_sp = find(&rows, "EncFS", "span");
        assert!(enc_sp.read_ops * 8 <= enc_pb.read_ops);
        assert!(enc_sp.write_ops * 8 <= enc_pb.write_ops);
    }
}
