//! Figure 11: storage efficiency (share of data blocks) as R varies.
//!
//! With `N(R)` keys per metadata block, a fully deduplicated file with
//! redundancy α keeps `(1 − α)·N` unique data blocks per segment plus one
//! metadata block that never deduplicates, so the share of useful data blocks
//! on the backend is `(1 − α)·N / ((1 − α)·N + 1)`. The figure is analytic in
//! the paper's sense (it follows directly from the layout); this experiment
//! computes the analytic grid *and* validates a sample of points by actually
//! writing synthetic files through LamassuFS and counting blocks on the
//! deduplicating store.

use crate::experiments::write_file;
use crate::report::{write_json, Table};
use crate::setup::{mount, FsKind};
use lamassu_format::Geometry;
use lamassu_storage::StorageProfile;
use lamassu_workloads::SyntheticSpec;
use serde::Serialize;

/// The R values swept (same as Figure 10).
pub use super::fig10::R_VALUES;

/// One (R, α) cell of Figure 11.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11Point {
    /// Number of reserved key slots.
    pub r: usize,
    /// Redundancy fraction α of the plaintext file.
    pub alpha: f64,
    /// Analytic percentage of data blocks in the deduplicated encrypted file.
    pub analytic_data_pct: f64,
    /// Measured percentage (only for the sampled validation points).
    pub measured_data_pct: Option<f64>,
}

/// Computes the analytic value for one (R, α) cell.
pub fn analytic(r: usize, alpha: f64) -> f64 {
    let n = Geometry::new(4096, r)
        .expect("R values in the sweep are valid")
        .keys_per_metadata_block() as f64;
    let unique = (1.0 - alpha) * n;
    unique / (unique + 1.0) * 100.0
}

/// Runs the Figure 11 experiment. `measure_file_size` is the synthetic file
/// size used for the measured validation points.
pub fn run(measure_file_size: u64) -> Vec<Fig11Point> {
    let alphas = [0.0, 0.10, 0.20, 0.30, 0.40, 0.50];
    let measured_rs = [1usize, 8, 32, 60];
    let measured_alphas = [0.0f64, 0.30, 0.50];
    let mut points = Vec::new();

    for r in R_VALUES {
        for alpha in alphas {
            let measured = if measured_rs.contains(&r)
                && measured_alphas.iter().any(|a| (a - alpha).abs() < 1e-9)
            {
                Some(measure(r, alpha, measure_file_size))
            } else {
                None
            };
            points.push(Fig11Point {
                r,
                alpha,
                analytic_data_pct: analytic(r, alpha),
                measured_data_pct: measured,
            });
        }
    }

    let mut table = Table::new(
        "Figure 11: % data blocks in an encrypted file (analytic, measured in brackets)",
        &["R", "0%", "10%", "20%", "30%", "40%", "50%"],
    );
    for r in R_VALUES {
        let mut row = vec![r.to_string()];
        for alpha in alphas {
            let p = points
                .iter()
                .find(|p| p.r == r && (p.alpha - alpha).abs() < 1e-9)
                .expect("cell computed above");
            row.push(match p.measured_data_pct {
                Some(m) => format!("{:.2} [{:.2}]", p.analytic_data_pct, m),
                None => format!("{:.2}", p.analytic_data_pct),
            });
        }
        table.row(&row);
    }
    table.print();
    write_json("fig11_r_sweep_efficiency", &points);
    points
}

/// Writes a synthetic file through LamassuFS with the given R and measures
/// the share of (deduplicated) data blocks on the backend.
fn measure(r: usize, alpha: f64, file_size: u64) -> f64 {
    let m = mount(FsKind::Lamassu, StorageProfile::instant(), r);
    let spec = SyntheticSpec::new(file_size, alpha, 11_000 + r as u64);
    let data = spec.generate();
    write_file(m.fs.as_ref(), "/dataset.bin", &data);
    let geometry = Geometry::new(4096, r).expect("valid geometry");
    let metadata_blocks = geometry.segments_for_len(data.len() as u64);
    let unique_total = m.members[0].run_dedup().unique_blocks;
    let unique_data = unique_total.saturating_sub(metadata_blocks);
    unique_data as f64 / (unique_data + metadata_blocks) as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_matches_paper_reference_points() {
        // R = 8, alpha = 0: 118 / 119 = 99.16 %; R = 1: 125 / 126 = 99.21 %.
        assert!((analytic(8, 0.0) - 99.16).abs() < 0.01);
        assert!((analytic(1, 0.0) - 99.21).abs() < 0.01);
        // Efficiency decreases with both R and alpha.
        assert!(analytic(60, 0.0) < analytic(1, 0.0));
        assert!(analytic(8, 0.5) < analytic(8, 0.0));
    }

    #[test]
    fn measured_points_track_analytic() {
        let points = run(4 * 1024 * 1024);
        let measured: Vec<_> = points
            .iter()
            .filter(|p| p.measured_data_pct.is_some())
            .collect();
        assert!(!measured.is_empty());
        for p in measured {
            let m = p.measured_data_pct.unwrap();
            assert!(
                (m - p.analytic_data_pct).abs() < 0.75,
                "R={} alpha={}: measured {} vs analytic {}",
                p.r,
                p.alpha,
                m,
                p.analytic_data_pct
            );
        }
    }
}
