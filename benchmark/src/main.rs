//! Command line of the Lamassu benchmark. See `README.md`.

use lamassu_benchmark::metrics::benchmark_json;
use lamassu_benchmark::schedule::{Scale, WorkloadId};
use lamassu_benchmark::suite::{check_repeat, run_workload, Options, RUN_SECONDS};
use lamassu_benchmark::sys::CountingAllocator;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const USAGE: &str = "\
usage: lamassu-benchmark [--workload <name>] [--seed <u64>] [--seconds <n>]
                         [--trace [0|1]] [--scale full|smoke]
                         [--check-repeat [--ledger <file>]]
                         [--print-benchmark-json]

  --workload   one of: seq-write-4k rand-write-4k rand-read-4k span-1m
               tiered-zipf-4k (default: all five)
  --seed       seed of every schedule and payload (default 1)
  --seconds    measured-phase seconds to accumulate per workload; the fixed-
               size phase is repeated on fresh mounts until they are reached
               (at least 3 times) and the median repetition is reported
  --trace      report the per-layer metrics (probe stores at every tier
               boundary, direct-call kernels) instead of the end-to-end ones
  --scale      smoke = 2 MiB files, correctness only
  --check-repeat  run the suite twice and fail unless every end-to-end metric
               agrees within its bound; with --ledger, write the ledger row";

struct Cli {
    opts: Options,
    check_repeat: bool,
    ledger: Option<PathBuf>,
    print_benchmark_json: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: Options {
            workloads: WorkloadId::ALL.to_vec(),
            seed: 1,
            seconds: RUN_SECONDS as f64,
            trace: false,
            scale: Scale::FULL,
        },
        check_repeat: false,
        ledger: None,
        print_benchmark_json: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let id = WorkloadId::from_name(&name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?;
                cli.opts.workloads = vec![id];
            }
            "--seed" => {
                let v = value("a number")?;
                cli.opts.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                cli.opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {v:?}"))?;
            }
            "--trace" => {
                cli.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--scale" => {
                cli.opts.scale = match value("full or smoke")?.as_str() {
                    "full" => Scale::FULL,
                    "smoke" => Scale::SMOKE,
                    other => return Err(format!("unknown scale {other:?}")),
                };
            }
            "--check-repeat" => cli.check_repeat = true,
            "--ledger" => cli.ledger = Some(PathBuf::from(value("a file")?)),
            "--print-benchmark-json" => cli.print_benchmark_json = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.ledger.is_some() && !cli.check_repeat {
        return Err("--ledger needs --check-repeat".to_string());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.print_benchmark_json {
        print!("{}", benchmark_json(RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    let ok = if cli.check_repeat {
        check_repeat(&cli.opts, cli.ledger.as_deref())
    } else {
        // Every workload runs even after a failure, so one report shows all.
        let failures = cli
            .opts
            .workloads
            .iter()
            .filter(|&&id| !run_workload(id, &cli.opts).correct())
            .count();
        failures == 0
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
