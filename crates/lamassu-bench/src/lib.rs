//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each experiment of the paper's §4 — Figures 6–11, Table 1 and the three
//! ablations — lives in [`experiments`] as a callable function, plus the
//! `chaos` fault scenario; the binaries in `src/bin/` are thin wrappers, one
//! per experiment. Every experiment prints a human-readable table that
//! mirrors the corresponding figure or table of the paper and writes a JSON
//! report under `results/`. Performance beyond the paper is measured by the
//! `benchmark/` package, not here.
//!
//! Scaling: the paper uses 4 GiB synthetic files, multi-GiB VM images and a
//! 256 MiB FIO target. Those sizes only affect precision, not the shape of
//! any result, so the harness defaults to scaled-down sizes that finish in
//! seconds and can be raised through environment variables:
//!
//! * `LAMASSU_BENCH_MB` — FIO file size in MiB (default 32; paper: 256).
//! * `LAMASSU_EFF_MB` — synthetic-file size for the storage-efficiency
//!   experiments in MiB (default 32; paper: 4096).
//! * `LAMASSU_VM_SCALE` — divisor applied to the Table 1 VM image sizes
//!   (default 256; 1 reproduces the full sizes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod setup;

/// Reads a `u64` configuration value from the environment with a default.
fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// FIO target file size in bytes (see crate docs for the knob).
pub fn fio_file_size() -> u64 {
    env_u64("LAMASSU_BENCH_MB", 32) * 1024 * 1024
}

/// Synthetic-file size for storage-efficiency experiments, in bytes.
pub fn efficiency_file_size() -> u64 {
    env_u64("LAMASSU_EFF_MB", 32) * 1024 * 1024
}

/// Scale divisor for the Table 1 VM images.
pub fn vm_scale() -> u64 {
    env_u64("LAMASSU_VM_SCALE", 256).max(1)
}
