//! Regenerates the chaos experiment: retries and circuit breakers under
//! 5% transient faults and a burst member outage.

fn main() {
    lamassu_bench::experiments::chaos::run(lamassu_bench::fio_file_size().min(4 * 1024 * 1024));
}
