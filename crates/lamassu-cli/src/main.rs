//! `lamassu` — command-line front end for Lamassu volumes.
//!
//! A Lamassu *volume* is just a directory on any file system (local disk, an
//! NFS mount of a deduplicating filer, …) used as the backing store, exactly
//! like the paper's prototype (§3). Keys come from a key-manager snapshot
//! file produced by `lamassu keygen`, standing in for a KMIP server.
//!
//! ```text
//! lamassu keygen  --keys keys.json --zone 7
//! lamassu put     --keys keys.json --zone 7 --volume /mnt/filer/vol  ./report.pdf  /docs/report.pdf
//! lamassu get     --keys keys.json --zone 7 --volume /mnt/filer/vol  /docs/report.pdf  ./copy.pdf
//! lamassu ls      --keys keys.json --zone 7 --volume /mnt/filer/vol
//! lamassu stat    --keys keys.json --zone 7 --volume /mnt/filer/vol  /docs/report.pdf
//! lamassu fsck    --keys keys.json --zone 7 --volume /mnt/filer/vol
//! lamassu rekey   --keys keys.json --zone 7 --volume /mnt/filer/vol
//! ```

use lamassu::stack::{Resilience, Stack, StackBuilder};
use lamassu_cache::{CacheConfig, CacheMode};
use lamassu_core::{FileSystem, LamassuConfig, LamassuFs, OpenFlags};
use lamassu_dist::DistConfig;
use lamassu_keymgr::KeyManager;
use lamassu_resilience::{BreakerConfig, HedgeConfig, OpBudget};
use lamassu_storage::{DirStore, StorageProfile};
use lamassu_telemetry::{Registry, Snapshot, TraceConfig, Tracer};
use lamassu_workloads::{FioConfig, FioTester, JobLayout, MultiJobResult, Workload};
use serde::Serialize;
use std::collections::HashMap;
use std::fs;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
lamassu — storage-efficient host-side encryption (Lamassu reproduction)

USAGE:
    lamassu <command> [options] [args]

COMMANDS:
    keygen                     create (or extend) a key snapshot with a zone's key pair
    put <src> <dest>           encrypt a local file into the volume
    get <name> <out>           decrypt a file from the volume to a local path
    ls                         list files in the volume
    stat <name>                show logical/physical size and overhead of a file
    rm <name>                  remove a file from the volume
    verify <name>              run a full integrity check on one file
    fsck                       recover mid-update segments and verify every file
    rekey                      rotate the outer key and re-seal all metadata blocks
    bench [workload]           drive an fio-style workload against the volume
                               (seq-read | seq-write | rand-read | rand-write |
                               rand-rw; default rand-read) with --jobs threads
    stats [workload]           run a workload with an op tracer attached and
                               dump the full telemetry snapshot — latency
                               breakdown, read-memo hits, per-op histograms,
                               cache/dist/backend counters and the slow-op log
                               (see --format)

OPTIONS:
    --volume <dir>             backing-store directory (required except keygen)
    --keys <file>              key-manager snapshot file (default: lamassu-keys.json)
    --zone <id>                isolation zone id (default: 1)
    --block-size <bytes>       Lamassu block size (default: 4096)
    --reserved-slots <R>       reserved transient key slots (default: 8)
    --workers <n>              crypto worker threads for span batches
                               (default: 0 = auto, min(4, CPU cores))
    --qd <n>                   per-channel queue depth of the backing store:
                               how many submitted operations the async data
                               path keeps in flight per transport channel
                               (default: the profile's native depth). Applies
                               to every tier, including bench volumes.
    --jobs <n>                 concurrent bench jobs, each with its own
                               descriptor (default: 1)
    --bench-layout <l>         bench file layout: shared (all jobs on one
                               file, the default) or private (one file each)
    --bench-mb <MiB>           bench target file size per job file (default: 8)
    --cache <mode[:blocks]>    block cache between the shim and the volume:
                               off | write-through | write-back, optionally
                               with a capacity in blocks (default: off; 1024
                               blocks when a mode is given). Write-back
                               coalesces writes and flushes before exit.
    --dist <N[:R]>             distribute the volume over N shard directories
                               (<volume>/shard-00 ... ) with replication
                               factor R (default R = 1): consistent-hash
                               block-range placement, read failover, and
                               scrub/read-repair during fsck. Composes with
                               --cache (cache above the routed tier).
    --resilience <r[:ms]>      self-healing wrapper around the volume (or the
                               routed tier): retry transient failures up to
                               <r> times per operation with deterministic
                               virtual-time backoff. An optional :<ms> also
                               enables hedged reads — a read whose modelled
                               latency crosses the live p95 (never below <ms>
                               milliseconds) launches a duplicate attempt and
                               the first completion wins. With --dist, also
                               attaches per-shard circuit breakers: a failing
                               shard is skipped (degraded reads/writes) until
                               a half-open probe re-admits it, and a
                               successful probe queues a targeted scrub that
                               fsck/stats drain.
    --format <f>               stats output format: json (pretty snapshot),
                               prom (Prometheus text) or both (default)
";

struct Options {
    volume: Option<String>,
    keys: String,
    zone: u32,
    block_size: usize,
    reserved_slots: usize,
    workers: usize,
    qd: Option<usize>,
    jobs: usize,
    bench_layout: JobLayout,
    bench_mb: u64,
    cache: Option<(CacheMode, usize)>,
    dist: Option<(usize, usize)>,
    resilience: Option<Resilience>,
    format: StatsFormat,
    positional: Vec<String>,
}

/// Output format of `lamassu stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StatsFormat {
    Json,
    Prom,
    Both,
}

/// Parses `--dist` values: `N[:R]` with `N >= 1` backends and
/// `1 <= R <= min(N, MAX_REPLICAS)` replicas.
fn parse_dist_spec(value: &str) -> Result<(usize, usize), String> {
    let (n_str, r_str) = match value.split_once(':') {
        Some((n, r)) => (n, Some(r)),
        None => (value, None),
    };
    let backends = n_str
        .parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("bad backend count: {n_str}"))?;
    let replicas = match r_str {
        Some(r) => r
            .parse::<usize>()
            .ok()
            .filter(|&x| (1..=lamassu_dist::MAX_REPLICAS.min(backends)).contains(&x))
            .ok_or_else(|| {
                format!(
                    "bad replica count: {r} (expected 1..={})",
                    lamassu_dist::MAX_REPLICAS.min(backends)
                )
            })?,
        None => 1,
    };
    Ok((backends, replicas))
}

/// Parses `--resilience` values: `retries[:hedge-ms]` with `retries >= 1`
/// transient retries per operation (attempts = retries + 1) and an optional
/// hedged-read latency floor in milliseconds (`>= 1`; without it hedging
/// stays off — the zero-allocation read path). Breakers are always asked
/// for; the builder attaches them only under `--dist`.
fn parse_resilience_spec(value: &str) -> Result<Resilience, String> {
    let (retries_str, hedge_str) = match value.split_once(':') {
        Some((r, h)) => (r, Some(h)),
        None => (value, None),
    };
    let retries = retries_str
        .parse::<u32>()
        .ok()
        .filter(|&r| r >= 1)
        .ok_or_else(|| format!("bad retry count: {retries_str}"))?;
    let hedge = match hedge_str {
        Some(h) => Some(HedgeConfig {
            floor: h
                .parse::<u32>()
                .ok()
                .filter(|&ms| ms >= 1)
                .map(|ms| std::time::Duration::from_millis(u64::from(ms)))
                .ok_or_else(|| format!("bad hedge floor: {h} (milliseconds, >= 1)"))?,
            ..HedgeConfig::default()
        }),
        None => None,
    };
    Ok(Resilience {
        budget: OpBudget {
            max_attempts: retries.saturating_add(1),
            ..OpBudget::default()
        },
        hedge,
        breakers: Some(BreakerConfig::default()),
        ..Resilience::default()
    })
}

/// Parses `--cache` values: `off`, `write-through[:blocks]`,
/// `write-back[:blocks]`.
fn parse_cache_spec(value: &str) -> Result<Option<(CacheMode, usize)>, String> {
    let (mode_str, blocks_str) = match value.split_once(':') {
        Some((m, b)) => (m, Some(b)),
        None => (value, None),
    };
    let mode = match mode_str {
        "off" => {
            if blocks_str.is_some() {
                return Err("cache mode 'off' takes no capacity".to_string());
            }
            return Ok(None);
        }
        "write-through" => CacheMode::WriteThrough,
        "write-back" => CacheMode::WriteBack,
        other => {
            return Err(format!(
                "bad cache mode '{other}' (expected off, write-through or write-back)"
            ))
        }
    };
    let blocks = match blocks_str {
        Some(b) => b
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("bad cache capacity: {b}"))?,
        None => 1024,
    };
    Ok(Some((mode, blocks)))
}

type FlagSetter = fn(&mut Options, String) -> Result<(), String>;

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        volume: None,
        keys: "lamassu-keys.json".to_string(),
        zone: 1,
        block_size: 4096,
        reserved_slots: 8,
        workers: 0,
        qd: None,
        jobs: 1,
        bench_layout: JobLayout::SharedFile,
        bench_mb: 8,
        cache: None,
        dist: None,
        resilience: None,
        format: StatsFormat::Both,
        positional: Vec::new(),
    };
    let mut flags: HashMap<&str, FlagSetter> = HashMap::new();
    flags.insert("--volume", |o, v| {
        o.volume = Some(v);
        Ok(())
    });
    flags.insert("--keys", |o, v| {
        o.keys = v;
        Ok(())
    });
    flags.insert("--zone", |o, v| {
        o.zone = v.parse().map_err(|_| format!("bad zone id: {v}"))?;
        Ok(())
    });
    flags.insert("--block-size", |o, v| {
        o.block_size = v.parse().map_err(|_| format!("bad block size: {v}"))?;
        Ok(())
    });
    flags.insert("--reserved-slots", |o, v| {
        o.reserved_slots = v.parse().map_err(|_| format!("bad reserved slots: {v}"))?;
        Ok(())
    });
    flags.insert("--workers", |o, v| {
        o.workers = v.parse().map_err(|_| format!("bad worker count: {v}"))?;
        Ok(())
    });
    flags.insert("--qd", |o, v| {
        o.qd = Some(
            v.parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("bad queue depth: {v}"))?,
        );
        Ok(())
    });
    flags.insert("--jobs", |o, v| {
        o.jobs = v
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("bad job count: {v}"))?;
        Ok(())
    });
    flags.insert("--bench-layout", |o, v| {
        o.bench_layout = match v.as_str() {
            "shared" => JobLayout::SharedFile,
            "private" => JobLayout::PrivateFiles,
            other => return Err(format!("bad bench layout '{other}' (shared or private)")),
        };
        Ok(())
    });
    flags.insert("--bench-mb", |o, v| {
        o.bench_mb = v
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("bad bench size: {v}"))?;
        Ok(())
    });
    flags.insert("--cache", |o, v| {
        o.cache = parse_cache_spec(&v)?;
        Ok(())
    });
    flags.insert("--dist", |o, v| {
        o.dist = Some(parse_dist_spec(&v)?);
        Ok(())
    });
    flags.insert("--resilience", |o, v| {
        o.resilience = Some(parse_resilience_spec(&v)?);
        Ok(())
    });
    flags.insert("--format", |o, v| {
        o.format = match v.as_str() {
            "json" => StatsFormat::Json,
            "prom" => StatsFormat::Prom,
            "both" => StatsFormat::Both,
            other => return Err(format!("bad format '{other}' (json, prom or both)")),
        };
        Ok(())
    });

    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if let Some(setter) = flags.get(arg.as_str()) {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("{arg} requires a value"))?;
            setter(&mut opts, value.clone())?;
            i += 2;
        } else if arg.starts_with("--") {
            return Err(format!("unknown option: {arg}"));
        } else {
            opts.positional.push(arg.clone());
            i += 1;
        }
    }
    Ok(opts)
}

fn load_key_manager(path: &str) -> Result<KeyManager, String> {
    let body =
        fs::read_to_string(path).map_err(|e| format!("cannot read key snapshot {path}: {e}"))?;
    KeyManager::import_snapshot(&body).map_err(|e| format!("bad key snapshot {path}: {e}"))
}

/// A mounted volume: LamassuFS over whichever tiers the flags asked for.
/// `finish` flushes what a write-back cache still holds (metadata rewrites
/// included) before the process exits; `maintain` runs the scrubs reclosed
/// breakers queued.
type Mounted = Stack<LamassuFs, DirStore>;

fn mount(opts: &Options) -> Result<Mounted, String> {
    let volume = opts
        .volume
        .as_ref()
        .ok_or_else(|| "--volume is required".to_string())?;
    let km = load_key_manager(&opts.keys)?;
    let keys = km
        .fetch_zone_keys(opts.zone)
        .map_err(|e| format!("zone {}: {e}", opts.zone))?;
    // --qd overrides how many submitted operations each transport channel
    // keeps in flight; the instant profile's native depth is 1.
    let profile = match opts.qd {
        Some(qd) => StorageProfile::instant().with_queue_depth(qd),
        None => StorageProfile::instant(),
    };
    let open = |dir: &str| {
        DirStore::open(dir, profile)
            .map(Arc::new)
            .map_err(|e| format!("cannot open volume {dir}: {e}"))
    };
    let members = match opts.dist {
        None => vec![open(volume)?],
        Some((backends, _)) => (0..backends)
            .map(|i| open(&format!("{volume}/shard-{i:02}")))
            .collect::<Result<_, _>>()?,
    };
    let geometry = lamassu_format::Geometry::new(opts.block_size, opts.reserved_slots)
        .map_err(|e| format!("invalid geometry: {e}"))?;
    let config = LamassuConfig {
        geometry,
        integrity: lamassu_core::IntegrityMode::Full,
        span: lamassu_core::SpanConfig {
            policy: lamassu_core::SpanPolicy::Batched,
            workers: opts.workers,
            ..lamassu_core::SpanConfig::default()
        },
    };
    Ok(StackBuilder::new(members)
        .dist(opts.dist.map(|(_, replicas)| DistConfig::new(replicas)))
        .resilience(opts.resilience)
        .cache(opts.cache.map(|(mode, capacity_blocks)| CacheConfig {
            block_size: opts.block_size,
            capacity_blocks,
            mode,
            ..CacheConfig::default()
        }))
        .mount(|store, profiler| LamassuFs::with_profiler(store, keys, config, profiler)))
}

/// Flushes any dirty cached blocks back to the volume.
fn finish(mounted: &Mounted) -> Result<(), String> {
    mounted.finish().map_err(|e| format!("flushing cache: {e}"))
}

fn cmd_keygen(opts: &Options) -> Result<(), String> {
    let km = if std::path::Path::new(&opts.keys).exists() {
        load_key_manager(&opts.keys)?
    } else {
        KeyManager::new()
    };
    km.create_zone(opts.zone)
        .map_err(|e| format!("zone {}: {e}", opts.zone))?;
    fs::write(&opts.keys, km.export_snapshot())
        .map_err(|e| format!("cannot write {}: {e}", opts.keys))?;
    println!("created isolation zone {} in {}", opts.zone, opts.keys);
    println!("note: the snapshot contains secret keys — protect it like a key server.");
    Ok(())
}

fn cmd_put(opts: &Options) -> Result<(), String> {
    let [src, dest] = two_args(opts, "put <src> <dest>")?;
    let fs_mount = mount(opts)?;
    let data = fs::read(&src).map_err(|e| format!("cannot read {src}: {e}"))?;
    let fd = if fs_mount.fs.list().map_err(err)?.iter().any(|p| p == &dest) {
        fs_mount
            .fs
            .open(&dest, OpenFlags { truncate: true })
            .map_err(err)?
    } else {
        fs_mount.fs.create(&dest).map_err(err)?
    };
    for (i, chunk) in data.chunks(1024 * 1024).enumerate() {
        fs_mount
            .fs
            .write(fd, (i * 1024 * 1024) as u64, chunk)
            .map_err(err)?;
    }
    fs_mount.fs.fsync(fd).map_err(err)?;
    fs_mount.fs.close(fd).map_err(err)?;
    finish(&fs_mount)?;
    let attr = fs_mount.fs.stat(&dest).map_err(err)?;
    println!(
        "stored {src} as {dest}: {} logical bytes, {} physical bytes ({:.2}% overhead)",
        attr.logical_size,
        attr.physical_size,
        (attr.physical_size as f64 / attr.logical_size.max(1) as f64 - 1.0) * 100.0
    );
    Ok(())
}

fn cmd_get(opts: &Options) -> Result<(), String> {
    let [name, out] = two_args(opts, "get <name> <out>")?;
    let fs_mount = mount(opts)?;
    let fd = fs_mount.fs.open(&name, OpenFlags::default()).map_err(err)?;
    let size = fs_mount.fs.len(fd).map_err(err)?;
    // Stream through one reused buffer via the zero-copy read primitive
    // instead of materializing the whole file in memory.
    let mut out_file = fs::File::create(&out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let mut buf = vec![0u8; 1024 * 1024];
    let mut offset = 0u64;
    while offset < size {
        let n = fs_mount.fs.read_into(fd, offset, &mut buf).map_err(err)?;
        if n == 0 {
            break;
        }
        std::io::Write::write_all(&mut out_file, &buf[..n])
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        offset += n as u64;
    }
    println!("decrypted {name} ({size} bytes) to {out}");
    Ok(())
}

fn cmd_ls(opts: &Options) -> Result<(), String> {
    let fs_mount = mount(opts)?;
    let mut names = fs_mount.fs.list().map_err(err)?;
    names.sort();
    for name in names {
        let attr = fs_mount.fs.stat(&name).map_err(err)?;
        println!("{:>12}  {name}", attr.logical_size);
    }
    Ok(())
}

fn cmd_stat(opts: &Options) -> Result<(), String> {
    let [name] = one_arg(opts, "stat <name>")?;
    let fs_mount = mount(opts)?;
    let attr = fs_mount.fs.stat(&name).map_err(err)?;
    let geometry = fs_mount.fs.geometry();
    println!("{name}");
    println!("  logical size:    {} bytes", attr.logical_size);
    println!("  physical size:   {} bytes", attr.physical_size);
    println!(
        "  metadata blocks: {}",
        geometry.segments_for_len(attr.logical_size)
    );
    println!(
        "  space overhead:  {:.2}%",
        (attr.physical_size as f64 / attr.logical_size.max(1) as f64 - 1.0) * 100.0
    );
    Ok(())
}

fn cmd_rm(opts: &Options) -> Result<(), String> {
    let [name] = one_arg(opts, "rm <name>")?;
    let fs_mount = mount(opts)?;
    fs_mount.fs.remove(&name).map_err(err)?;
    finish(&fs_mount)?;
    println!("removed {name}");
    Ok(())
}

fn cmd_verify(opts: &Options) -> Result<(), String> {
    let [name] = one_arg(opts, "verify <name>")?;
    let fs_mount = mount(opts)?;
    let report = fs_mount.fs.verify(&name).map_err(err)?;
    println!(
        "{name}: {} data blocks, {} metadata blocks checked",
        report.data_blocks_checked, report.metadata_blocks_checked
    );
    if report.is_clean() {
        println!("  clean");
        Ok(())
    } else {
        Err(format!(
            "integrity failures: data blocks {:?}, metadata blocks {:?}",
            report.corrupt_data_blocks, report.corrupt_metadata_blocks
        ))
    }
}

fn cmd_fsck(opts: &Options) -> Result<(), String> {
    let fs_mount = mount(opts)?;
    // A breaker that reclosed during this process queued its shard for a
    // targeted resync; run those before the full pass.
    for (id, probe) in fs_mount.maintain() {
        println!(
            "probe scrub shard {id}: {} units checked, {} repaired",
            probe.units, probe.repaired
        );
    }
    if let Some(router) = &fs_mount.router {
        let scrub = router.scrub();
        println!(
            "scrub: {} objects, {} units checked; {} mismatches, {} repaired, \
             {} tombstones cleared{}",
            scrub.objects,
            scrub.units,
            scrub.mismatches,
            scrub.repaired,
            scrub.tombstones_cleared,
            if scrub.unreadable_units > 0 {
                format!("; {} UNREADABLE units", scrub.unreadable_units)
            } else {
                String::new()
            }
        );
    }
    let reports = fs_mount.fs.recover_all().map_err(err)?;
    let mut dirty = 0;
    for (path, report) in &reports {
        if report.segments_repaired > 0 {
            dirty += 1;
            println!(
                "{path}: repaired {} segments (kept-new {}, rolled-back {}, cleared {})",
                report.segments_repaired,
                report.blocks_kept_new,
                report.blocks_restored_old,
                report.blocks_cleared
            );
        }
    }
    println!(
        "fsck: {} files scanned, {dirty} needed repair",
        reports.len()
    );
    let mut corrupt = 0;
    for (path, _) in &reports {
        if !fs_mount.fs.verify(path).map_err(err)?.is_clean() {
            println!("{path}: INTEGRITY FAILURE");
            corrupt += 1;
        }
    }
    finish(&fs_mount)?;
    if corrupt > 0 {
        Err(format!("{corrupt} files failed verification"))
    } else {
        println!("all files verify clean");
        Ok(())
    }
}

fn parse_workload(name: &str) -> Result<Workload, String> {
    Workload::ALL
        .into_iter()
        .find(|w| w.label() == name)
        .ok_or_else(|| {
            let known: Vec<&str> = Workload::ALL.iter().map(|w| w.label()).collect();
            format!("unknown workload '{name}' ({})", known.join(", "))
        })
}

/// What `bench` and `stats` share before the run: parses `[workload]`,
/// mounts the volume and refuses to touch it if it already holds real files
/// under the scratch names the run overwrites and then deletes.
fn workload_mount(opts: &Options, command: &str) -> Result<(Workload, Mounted), String> {
    let workload = match opts.positional.as_slice() {
        [] => Workload::RandRead,
        [w] => parse_workload(w)?,
        _ => return Err(format!("usage: lamassu {command} [workload]")),
    };
    let fs_mount = mount(opts)?;
    let names = fs_mount.fs.list().map_err(err)?;
    if let Some(clash) = names.iter().find(|p| is_bench_scratch(p)) {
        return Err(format!(
            "volume already contains {clash}; {command} would overwrite and delete it — \
             remove or rename that file first"
        ));
    }
    Ok((workload, fs_mount))
}

/// ... and the run itself: drives the workload, then cleans the scratch
/// files off the volume and flushes the cache whether the run succeeded or
/// not. The cleanup's own outcome is returned for the caller to report last.
fn drive_workload(
    opts: &Options,
    fs_mount: &Mounted,
    workload: Workload,
) -> Result<(MultiJobResult, Result<(), String>), String> {
    let tester = FioTester::new(FioConfig {
        file_size: opts.bench_mb * 1024 * 1024,
        ..FioConfig::default()
    });
    let outcome = tester
        .run_jobs(
            &fs_mount.fs,
            fs_mount.store.as_ref(),
            "/bench.fio",
            workload,
            opts.jobs,
            opts.bench_layout,
        )
        .map_err(err);
    let cleanup = (|| {
        for path in fs_mount.fs.list().map_err(err)? {
            if is_bench_scratch(&path) {
                fs_mount.fs.remove(&path).map_err(err)?;
            }
        }
        finish(fs_mount)
    })();
    Ok((outcome?, cleanup))
}

fn cmd_bench(opts: &Options) -> Result<(), String> {
    let (workload, fs_mount) = workload_mount(opts, "bench")?;
    println!(
        "bench: {} x {} job(s), {} layout, {} MiB target, volume {}",
        workload.label(),
        opts.jobs,
        opts.bench_layout.label(),
        opts.bench_mb,
        opts.volume.as_deref().unwrap_or("?"),
    );
    let (result, cleanup) = drive_workload(opts, &fs_mount, workload)?;
    for (j, job) in result.per_job.iter().enumerate() {
        println!(
            "  job {j}: {:>8.1} MiB/s  (wall {:.1} ms)",
            job.bandwidth_mib_s,
            job.compute_time.as_secs_f64() * 1e3
        );
    }
    let agg = &result.aggregate;
    println!(
        "aggregate: {:.1} MiB/s over {} ops ({} backend round trips, wall {:.1} ms + modelled I/O {:.1} ms)",
        agg.bandwidth_mib_s,
        agg.ops,
        agg.round_trips,
        agg.compute_time.as_secs_f64() * 1e3,
        agg.io_time.as_secs_f64() * 1e3,
    );
    cleanup
}

/// True for the scratch paths `bench` creates (and is allowed to delete).
fn is_bench_scratch(path: &str) -> bool {
    path == "/bench.fio" || path.starts_with("/bench.fio.job")
}

/// The `crypto` section of the stats snapshot: how many AES blocks and key
/// derivations the run dispatched to the wide constant-time kernels versus
/// the scalar fallbacks (see `lamassu_crypto::stats`).
#[derive(Serialize)]
struct CryptoKernelStats {
    wide_blocks: u64,
    scalar_blocks: u64,
    wide_derives: u64,
    scalar_derives: u64,
    wide_block_pct: f64,
    wide_derive_pct: f64,
}

impl CryptoKernelStats {
    fn collect() -> Self {
        let (wide_blocks, scalar_blocks, wide_derives, scalar_derives) =
            lamassu_crypto::stats::snapshot();
        let pct = |wide: u64, scalar: u64| {
            if wide + scalar == 0 {
                0.0
            } else {
                wide as f64 * 100.0 / (wide + scalar) as f64
            }
        };
        CryptoKernelStats {
            wide_blocks,
            scalar_blocks,
            wide_derives,
            scalar_derives,
            wide_block_pct: pct(wide_blocks, scalar_blocks),
            wide_derive_pct: pct(wide_derives, scalar_derives),
        }
    }
}

/// `lamassu stats`: drives one workload with a full op tracer attached and
/// dumps the telemetry snapshot of every tier in the mounted stack — the
/// shim's latency breakdown, pool, commit and read-memo counters and
/// per-category histograms, the op/trace rings, cache and routed-tier
/// counters, backend I/O counters and the workload's own per-request
/// percentiles.
fn cmd_stats(opts: &Options) -> Result<(), String> {
    let (workload, fs_mount) = workload_mount(opts, "stats")?;

    // Attach the tracer before any measured traffic, so every operation of
    // the workload is spanned and phase-attributed.
    let registry = Arc::new(Registry::new());
    let tracer = Tracer::new(&registry, TraceConfig::default());
    fs_mount.fs.profiler().attach_tracer(tracer.clone());

    let (result, cleanup) = drive_workload(opts, &fs_mount, workload)?;

    let mut snap = Snapshot::new();
    fs_mount
        .fs
        .profiler()
        .export(&mut snap, "shim", result.aggregate.total_time);
    tracer.export(&mut snap, "trace");
    registry.export(&mut snap, "ops");
    if let Some(cache) = &fs_mount.cache {
        snap.section("cache", &cache.stats());
    }
    // Run breaker-triggered resyncs so the scrub totals below include them
    // (mirroring fsck's maintenance pass).
    fs_mount.maintain();
    if let Some(router) = &fs_mount.router {
        snap.section("dist", &router.stats());
        snap.section("scrub", &router.scrub_totals());
    }
    if let Some(resilient) = &fs_mount.resilient {
        snap.section("resilience", &resilient.stats());
    }
    if let Some(breakers) = &fs_mount.breakers {
        snap.section("breakers", &breakers.stats());
    }
    snap.section("backend", &fs_mount.store.io_counters());
    snap.section("fio", &result.aggregate);
    snap.section("crypto", &CryptoKernelStats::collect());

    if matches!(opts.format, StatsFormat::Json | StatsFormat::Both) {
        println!("{}", snap.to_json());
    }
    if matches!(opts.format, StatsFormat::Prom | StatsFormat::Both) {
        print!("{}", snap.to_prometheus());
    }
    cleanup
}

fn cmd_rekey(opts: &Options) -> Result<(), String> {
    let km = load_key_manager(&opts.keys)?;
    let fs_mount = mount(opts)?;
    let new_keys = km
        .rotate_outer_key(opts.zone)
        .map_err(|e| format!("zone {}: {e}", opts.zone))?;
    let rewritten = fs_mount.fs.rekey_outer_all(new_keys).map_err(err)?;
    finish(&fs_mount)?;
    fs::write(&opts.keys, km.export_snapshot())
        .map_err(|e| format!("cannot write {}: {e}", opts.keys))?;
    println!(
        "rotated outer key for zone {} (generation {}); re-sealed {rewritten} metadata blocks",
        opts.zone, new_keys.generation
    );
    Ok(())
}

fn one_arg(opts: &Options, usage: &str) -> Result<[String; 1], String> {
    match opts.positional.as_slice() {
        [a] => Ok([a.clone()]),
        _ => Err(format!("usage: lamassu {usage}")),
    }
}

fn two_args(opts: &Options, usage: &str) -> Result<[String; 2], String> {
    match opts.positional.as_slice() {
        [a, b] => Ok([a.clone(), b.clone()]),
        _ => Err(format!("usage: lamassu {usage}")),
    }
}

fn err(e: lamassu_core::FsError) -> String {
    e.to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_args(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "keygen" => cmd_keygen(&opts),
        "put" => cmd_put(&opts),
        "get" => cmd_get(&opts),
        "ls" => cmd_ls(&opts),
        "stat" => cmd_stat(&opts),
        "rm" => cmd_rm(&opts),
        "verify" => cmd_verify(&opts),
        "fsck" => cmd_fsck(&opts),
        "rekey" => cmd_rekey(&opts),
        "bench" => cmd_bench(&opts),
        "stats" => cmd_stats(&opts),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command: {other}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn mount_charges_cache_and_route_time_to_their_own_categories() {
        let dir = std::env::temp_dir().join(format!("lamassu-cli-tiers-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = |leaf: &str| dir.join(leaf).display().to_string();
        let args: Vec<String> = [
            "--keys",
            &path("keys.json"),
            "--volume",
            &path("vol"),
            "--cache",
            "write-back:64",
            "--dist",
            "3:2",
        ]
        .iter()
        .map(|a| a.to_string())
        .collect();
        let opts = parse_args(&args).unwrap();
        cmd_keygen(&opts).unwrap();

        // One put and one get, as `cmd_put`/`cmd_get` issue them, on a
        // single mount so both land in the profiler `stats` would export.
        let mounted = mount(&opts).unwrap();
        let data = vec![0x5au8; 64 * 1024];
        let fd = mounted.fs.create("/a.bin").unwrap();
        mounted.fs.write(fd, 0, &data).unwrap();
        mounted.fs.fsync(fd).unwrap();
        mounted.finish().unwrap();
        let mut back = vec![0u8; data.len()];
        assert_eq!(mounted.fs.read_into(fd, 0, &mut back).unwrap(), data.len());
        assert_eq!(back, data);

        let b = mounted.fs.profiler().breakdown(Duration::from_secs(1));
        assert!(b.cache > Duration::ZERO, "cache tier is dark: {b:?}");
        assert!(b.route > Duration::ZERO, "routed tier is dark: {b:?}");

        // The sixteen blocks are equal: the put's commit wrote one twice and
        // admitted it, so both gets are served by the read memo, whose
        // counters `stats` prints with the rest of the profiler.
        mounted.fs.read_into(fd, 0, &mut back).unwrap();
        let memo = mounted.fs.memo_stats();
        assert_eq!((memo.hits, memo.misses, memo.commit_admissions), (32, 0, 1));
        let mut snap = Snapshot::new();
        mounted
            .fs
            .profiler()
            .export(&mut snap, "shim", Duration::from_secs(1));
        assert!(snap.to_json().contains("\"memo\""));
        fs::remove_dir_all(&dir).unwrap();
    }
}
