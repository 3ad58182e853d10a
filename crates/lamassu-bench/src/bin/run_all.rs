//! Runs every experiment of the evaluation in sequence (EXPERIMENTS.md).

use lamassu_bench::experiments;
use lamassu_storage::StorageProfile;

fn main() {
    let fio = lamassu_bench::fio_file_size();
    let eff = lamassu_bench::efficiency_file_size();
    experiments::fig6::run(eff);
    experiments::table1::run(lamassu_bench::vm_scale());
    experiments::throughput::run("fig7", StorageProfile::nfs_1gbe(), fio);
    experiments::throughput::run("fig8", StorageProfile::ram_disk(), fio);
    experiments::fig9::run(fio);
    experiments::fig10::run(fio);
    experiments::fig11::run(eff.min(32 * 1024 * 1024));
    experiments::ablation::run(fio.min(16 * 1024 * 1024));
    experiments::ablation_ce_granularity::run(eff.min(16 * 1024 * 1024), 4, 0.02);
    experiments::ablation_key_server::run(2048);
    experiments::cache::run(fio.min(16 * 1024 * 1024));
    experiments::span_io::run(fio.min(16 * 1024 * 1024));
    experiments::qdepth::run(fio.min(16 * 1024 * 1024));
    experiments::scaling::run(fio.min(8 * 1024 * 1024));
    experiments::scaleout::run(fio.min(8 * 1024 * 1024));
    experiments::hot_path::run(8);
    experiments::chaos::run(fio.min(4 * 1024 * 1024));
    let telemetry = std::env::args().any(|a| a == "--telemetry");
    experiments::latency::run(fio.min(8 * 1024 * 1024), telemetry);
    println!("\nAll experiments complete; JSON reports are under ./results/");
}
