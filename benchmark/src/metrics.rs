//! The metrics: names, units, directions, regression bounds, and how each
//! is computed from what the repetitions observed.
//!
//! This table is the single source of the names: `BENCHMARK.json` is
//! generated from it (`--print-benchmark-json`) and a test keeps the
//! committed file in step.

use crate::probe::{tier_totals, TierTotals};
use crate::run::{Phase, Rep};
use crate::schedule::{Schedule, StackKind, WorkloadId, BLOCK, MIB};
use crate::stack::{self, Tier};
use crate::stats::{median, percentile};

/// Metric values by name, in report order.
pub type Values = Vec<(&'static str, f64)>;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Name in every report.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression. Set from the spreads measured on the
    /// 2-core shared container (README, "Bounds"), not from a wish.
    pub bound: f64,
    /// True for a count-based metric, which repeats exactly for one seed:
    /// `--check-repeat` then demands equality, not the bound.
    pub exact: bool,
    /// One line: what it is.
    pub what: &'static str,
}

/// A metric of a single layer; informational, no bound.
pub struct PerLayer {
    /// Name; the prefix is the crate.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// The end-to-end metric it should move, and where.
    pub moves: &'static str,
}

/// The end-to-end metrics every workload reports.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        exact: false,
        what: "key fetch + mount + populate (or warm-up) before the measured phase",
    },
    EndToEnd {
        name: "throughput_mib_s",
        unit: "MiB/s",
        better: "higher",
        bound: 0.20,
        exact: false,
        what: "user bytes moved / wall seconds of the measured phase, final fsync included",
    },
    EndToEnd {
        name: "op_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.24,
        exact: false,
        what: "99th-percentile op latency of the measured phase (wall)",
    },
    EndToEnd {
        name: "cpu_ms_per_mib",
        unit: "ms/MiB",
        better: "lower",
        bound: 0.20,
        exact: false,
        what: "process CPU time (user + sys, all threads) per user MiB",
    },
    EndToEnd {
        name: "modelled_io_ms_per_mib",
        unit: "ms/MiB",
        better: "lower",
        bound: 0.12,
        exact: true,
        what: "virtual NFS transport time of the store under the shim per user MiB; never added to wall",
    },
    EndToEnd {
        name: "stored_bytes_per_user_byte",
        unit: "ratio",
        better: "lower",
        bound: 0.001,
        exact: true,
        what: "backend bytes after post-process dedup (/ R on the tiered stack) / live user bytes",
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

/// The per-layer metrics. Tier metrics (`cache.`, `resilience.`, `dist.`,
/// `workloads.tier_tax_us_per_op`) exist only on the tiered stack.
#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 56] = [
    layer("workloads.ops", "count", "higher", "fixed by the scale; a change means the schedule changed"),
    layer("workloads.harness_ns_per_op", "ns", "lower", "throughput_mib_s everywhere (the harness's own share)"),
    layer("workloads.trace_overhead_share", "ratio", "lower", "none: traced wall / untraced wall - 1, must stay <= 0.10"),
    layer("workloads.tier_tax_us_per_op", "us", "lower", "throughput_mib_s on tiered-zipf-4k only"),
    layer("workloads.peak_rss_mib", "MiB", "lower", "none: memory of harness + in-memory backends"),
    layer("core.self_us_per_op", "us", "lower", "throughput_mib_s, cpu_ms_per_mib on the four bare workloads"),
    layer("core.read_p50_us", "us", "lower", "op_p99_us on read workloads (the body under the tail)"),
    layer("core.read_p99_us", "us", "lower", "op_p99_us on rand-read-4k, span-1m, tiered-zipf-4k"),
    layer("core.write_p50_us", "us", "lower", "none end to end: a staged write is a buffer copy"),
    layer("core.write_p99_us", "us", "lower", "op_p99_us on the write workloads (the commit stall)"),
    layer("core.commit_write_share", "ratio", "lower", "op_p99_us: under 0.01 the p99 leaves the commit plateau"),
    layer("core.fsync_ms", "ms", "lower", "throughput_mib_s on the write workloads"),
    layer("core.open_us", "us", "lower", "setup_s"),
    layer("core.pool_hit_rate", "ratio", "higher", "throughput_mib_s on rand-write-4k"),
    layer("core.allocs_per_op", "count", "lower", "cpu_ms_per_mib"),
    layer("core.kernel_share", "ratio", "higher", "none: direct-call kernel cost / core self time, how close the shim is to its kernels"),
    layer("core.encfs_ratio", "ratio", "higher", "none: LamassuFS / EncFS throughput, the paper's headline ratio"),
    layer("crypto.sha256_ns_per_4k", "ns", "lower", "throughput_mib_s on the *-4k bare workloads"),
    layer("crypto.derive_1_ns_per_4k", "ns", "lower", "throughput_mib_s on the *-4k bare workloads, not span-1m"),
    layer("crypto.encrypt_1_ns_per_4k", "ns", "lower", "throughput_mib_s on seq-write-4k, rand-write-4k"),
    layer("crypto.decrypt_1_ns_per_4k", "ns", "lower", "throughput_mib_s on rand-read-4k"),
    layer("crypto.derive_256_ns_per_4k", "ns", "lower", "throughput_mib_s on span-1m only"),
    layer("crypto.encrypt_256_ns_per_4k", "ns", "lower", "throughput_mib_s on span-1m only"),
    layer("crypto.decrypt_256_ns_per_4k", "ns", "lower", "throughput_mib_s on span-1m only"),
    layer("crypto.gcm_seal_ns_per_4k", "ns", "lower", "op_p99_us on the write workloads"),
    layer("crypto.gcm_open_ns_per_4k", "ns", "lower", "op_p99_us on the write workloads, core.open_us"),
    layer("crypto.wide_block_share", "ratio", "higher", "says which kernel group (1-block or 256-block) a workload pays"),
    layer("crypto.wide_derive_share", "ratio", "higher", "says which KDF path a workload pays"),
    layer("format.seal_ns_per_block", "ns", "lower", "op_p99_us on write workloads, throughput_mib_s on rand-write-4k"),
    layer("format.unseal_ns_per_block", "ns", "lower", "throughput_mib_s on rand-write-4k, core.open_us"),
    layer("format.plan_ns_per_op", "ns", "lower", "throughput_mib_s everywhere, small"),
    layer("format.metadata_bytes_per_user_byte", "ratio", "lower", "stored_bytes_per_user_byte"),
    layer("keymgr.fetch_zone_keys_us", "us", "lower", "setup_s"),
    layer("storage.self_us_per_op", "us", "lower", "throughput_mib_s everywhere, small"),
    layer("storage.read_ops_per_mib", "1/MiB", "lower", "modelled_io_ms_per_mib"),
    layer("storage.write_ops_per_mib", "1/MiB", "lower", "modelled_io_ms_per_mib"),
    layer("storage.bytes_read_per_user_byte", "ratio", "lower", "modelled_io_ms_per_mib"),
    layer("storage.bytes_written_per_user_byte", "ratio", "lower", "modelled_io_ms_per_mib"),
    layer("storage.flushes", "count", "lower", "modelled_io_ms_per_mib"),
    layer("storage.unique_block_share", "ratio", "lower", "stored_bytes_per_user_byte on span-1m"),
    layer("storage.dedupstore_read_ns_per_4k", "ns", "lower", "storage.self_us_per_op"),
    layer("storage.dedupstore_write_ns_per_4k", "ns", "lower", "storage.self_us_per_op"),
    layer("cache.self_us_per_op", "us", "lower", "throughput_mib_s on tiered-zipf-4k only"),
    layer("cache.hit_rate", "ratio", "higher", "modelled_io_ms_per_mib on tiered-zipf-4k (a hit saves transport, not wall)"),
    layer("cache.evictions_per_kop", "1/kop", "lower", "modelled_io_ms_per_mib on tiered-zipf-4k"),
    layer("cache.writebacks_per_kop", "1/kop", "lower", "modelled_io_ms_per_mib on tiered-zipf-4k"),
    layer("cache.dirty_blocks_at_fsync", "count", "lower", "core.fsync_ms, modelled_io_ms_per_mib on tiered-zipf-4k"),
    layer("resilience.self_us_per_op", "us", "lower", "throughput_mib_s on tiered-zipf-4k"),
    layer("resilience.attempts_per_op", "ratio", "lower", "none: 1.000 on a fault-free run, anything else is a bug"),
    layer("resilience.retries", "count", "lower", "none: 0 on a fault-free run"),
    layer("resilience.hedged_reads", "count", "lower", "none: 0 with hedging off"),
    layer("dist.self_us_per_op", "us", "lower", "throughput_mib_s on tiered-zipf-4k"),
    layer("dist.member_ops_per_op", "ratio", "lower", "modelled_io_ms_per_mib (replica fan-out)"),
    layer("dist.member_imbalance", "ratio", "lower", "modelled_io_ms_per_mib (makespan of the busiest member)"),
    layer("dist.failovers", "count", "lower", "none: 0 on a fault-free run"),
    layer("telemetry.record_ns", "ns", "lower", "throughput_mib_s everywhere, tiny (always-on cost in every op)"),
];

fn mib(bytes: u64) -> f64 {
    bytes as f64 / MIB as f64
}

/// The end-to-end metrics of one (untraced) repetition.
pub fn end_to_end(sched: &Schedule, rep: &Rep) -> Values {
    let user_mib = mib(sched.user_bytes());
    let mut sorted = rep.phase.lat_ns.clone();
    sorted.sort_unstable();
    let modelled = rep.after.modelled_io.saturating_sub(rep.before.modelled_io);
    vec![
        ("setup_s", rep.setup_s),
        ("throughput_mib_s", user_mib / rep.phase.wall_s),
        ("op_p99_us", percentile(&sorted, 0.99) as f64 / 1e3),
        ("cpu_ms_per_mib", rep.cpu_s * 1e3 / user_mib),
        (
            "modelled_io_ms_per_mib",
            modelled.as_secs_f64() * 1e3 / user_mib,
        ),
        (
            "stored_bytes_per_user_byte",
            rep.space.stored_bytes as f64 / sched.final_image.len() as f64,
        ),
    ]
}

/// The median of each metric over repetitions (names taken from the first).
pub fn median_values(reps: &[Values]) -> Values {
    reps[0]
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let column: Vec<f64> = reps.iter().map(|r| r[i].1).collect();
            (*name, median(&column))
        })
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics that need no spans, from one untraced repetition.
fn untraced_layer_values(sched: &Schedule, rep: &Rep) -> Values {
    let ops = sched.ops.len() as f64;
    let user_mib = mib(sched.user_bytes());
    let mut v: Values = vec![("workloads.ops", ops)];

    let split = |write: bool| -> Vec<u32> {
        let mut lat: Vec<u32> = sched
            .ops
            .iter()
            .zip(&rep.phase.lat_ns)
            .filter(|(op, _)| op.write == write)
            .map(|(_, &l)| l)
            .collect();
        lat.sort_unstable();
        lat
    };
    let reads = split(false);
    if !reads.is_empty() {
        v.push(("core.read_p50_us", percentile(&reads, 0.50) as f64 / 1e3));
        v.push(("core.read_p99_us", percentile(&reads, 0.99) as f64 / 1e3));
    }
    let writes = split(true);
    if !writes.is_empty() {
        let p50 = percentile(&writes, 0.50);
        v.push(("core.write_p50_us", p50 as f64 / 1e3));
        v.push(("core.write_p99_us", percentile(&writes, 0.99) as f64 / 1e3));
        let slow = writes.partition_point(|&l| l as u64 <= 20 * p50 as u64);
        v.push((
            "core.commit_write_share",
            (writes.len() - slow) as f64 / writes.len() as f64,
        ));
    }
    v.push(("core.fsync_ms", rep.phase.fsync_ns as f64 / 1e6));
    v.push(("core.open_us", rep.open_us));
    let (b, a) = (&rep.before, &rep.after);
    let (pool_hits, pool_misses) = (a.pool.hits - b.pool.hits, a.pool.misses - b.pool.misses);
    if pool_hits + pool_misses > 0 {
        v.push((
            "core.pool_hit_rate",
            ratio(pool_hits, pool_hits + pool_misses),
        ));
    }
    v.push(("core.allocs_per_op", rep.allocs as f64 / ops));

    let (wide_b, scalar_b) = (a.crypto.0 - b.crypto.0, a.crypto.1 - b.crypto.1);
    let (wide_d, scalar_d) = (a.crypto.2 - b.crypto.2, a.crypto.3 - b.crypto.3);
    v.push(("crypto.wide_block_share", ratio(wide_b, wide_b + scalar_b)));
    v.push(("crypto.wide_derive_share", ratio(wide_d, wide_d + scalar_d)));
    v.push((
        "format.metadata_bytes_per_user_byte",
        stack::metadata_bytes_per_user_byte(sched.final_image.len() as u64),
    ));

    let io = |f: fn(&stack::IoCounters) -> u64| f(&a.backend) - f(&b.backend);
    let user_bytes = sched.user_bytes() as f64;
    v.push((
        "storage.read_ops_per_mib",
        io(|c| c.read_ops) as f64 / user_mib,
    ));
    v.push((
        "storage.write_ops_per_mib",
        io(|c| c.write_ops) as f64 / user_mib,
    ));
    v.push((
        "storage.bytes_read_per_user_byte",
        io(|c| c.bytes_read) as f64 / user_bytes,
    ));
    v.push((
        "storage.bytes_written_per_user_byte",
        io(|c| c.bytes_written) as f64 / user_bytes,
    ));
    v.push((
        "storage.unique_block_share",
        ratio(rep.space.unique_blocks, rep.space.total_blocks),
    ));

    if let (Some(cb), Some(ca)) = (&b.cache, &a.cache) {
        let (hits, misses) = (ca.hits - cb.hits, ca.misses - cb.misses);
        let kops = ops / 1e3;
        v.push(("cache.hit_rate", ratio(hits, hits + misses)));
        v.push((
            "cache.evictions_per_kop",
            (ca.evictions - cb.evictions) as f64 / kops,
        ));
        v.push((
            "cache.writebacks_per_kop",
            (ca.dirty_writebacks - cb.dirty_writebacks) as f64 / kops,
        ));
        v.push(("cache.dirty_blocks_at_fsync", rep.dirty_at_fsync as f64));
    }
    if let (Some(rb), Some(ra)) = (&b.resilience, &a.resilience) {
        v.push(("resilience.retries", (ra.retries - rb.retries) as f64));
        v.push((
            "resilience.hedged_reads",
            (ra.hedged_reads - rb.hedged_reads) as f64,
        ));
    }
    if let (Some(db), Some(da)) = (&b.dist, &a.dist) {
        v.push((
            "dist.failovers",
            (da.read_failovers - db.read_failovers) as f64,
        ));
        let moved: Vec<f64> = a
            .members
            .iter()
            .zip(&b.members)
            .map(|(a, b)| (a.bytes_read + a.bytes_written - b.bytes_read - b.bytes_written) as f64)
            .collect();
        let mean = moved.iter().sum::<f64>() / moved.len() as f64;
        let busiest = moved.iter().copied().fold(0.0, f64::max);
        v.push((
            "dist.member_imbalance",
            if mean > 0.0 { busiest / mean } else { 0.0 },
        ));
    }
    v
}

/// Per-layer metrics derived from one traced repetition's spans.
fn traced_layer_values(sched: &Schedule, rep: &Rep) -> Values {
    let ops = sched.ops.len() as f64;
    let totals = tier_totals(&rep.spans);
    let of =
        |t: Tier| -> TierTotals { totals[Tier::ALL.iter().position(|&x| x == t).expect("listed")] };
    let self_us = |t: Tier| of(t).self_ns as f64 / 1e3 / ops;
    let mut v: Values = vec![
        ("core.self_us_per_op", self_us(Tier::Core)),
        ("storage.self_us_per_op", self_us(Tier::Storage)),
        ("storage.flushes", of(Tier::Storage).flushes as f64),
    ];
    if sched.id.stack() == StackKind::Tiered {
        let tiers = [Tier::Cache, Tier::Resilience, Tier::Dist];
        v.push((
            "workloads.tier_tax_us_per_op",
            tiers.iter().map(|&t| self_us(t)).sum(),
        ));
        v.push(("cache.self_us_per_op", self_us(Tier::Cache)));
        v.push(("resilience.self_us_per_op", self_us(Tier::Resilience)));
        v.push(("dist.self_us_per_op", self_us(Tier::Dist)));
        v.push((
            "resilience.attempts_per_op",
            ratio(of(Tier::Dist).calls, of(Tier::Resilience).calls),
        ));
        v.push((
            "dist.member_ops_per_op",
            ratio(of(Tier::Storage).calls, of(Tier::Dist).calls),
        ));
    }
    v
}

/// Sum of root-span durations minus the sum of all tiers' self times, in
/// ns: zero by construction (checked on every traced repetition).
pub fn self_time_residual_ns(rep: &Rep) -> i64 {
    let roots: i64 = rep
        .spans
        .iter()
        .filter(|s| s.parent == crate::probe::ROOT)
        .map(|s| (s.end_ns - s.start_ns) as i64)
        .sum();
    roots
        - tier_totals(&rep.spans)
            .iter()
            .map(|t| t.self_ns)
            .sum::<i64>()
}

/// What a `--trace` invocation gathered for one workload.
pub struct TraceInputs<'a> {
    /// Repetitions without probes.
    pub untraced: &'a [Rep],
    /// Repetitions with a probe at every tier boundary.
    pub traced: &'a [Rep],
    /// The same schedule on EncFS (untraced).
    pub enc: &'a Rep,
    /// The same schedule on the no-op file system.
    pub harness: &'a Phase,
    /// Direct-call kernel timings by metric name.
    pub kernels: &'a [(&'static str, f64)],
}

/// All per-layer metrics of one workload. Metrics of tiers the workload's
/// stack does not have are absent, not zero.
pub fn per_layer(sched: &Schedule, t: &TraceInputs<'_>) -> Values {
    let ops = sched.ops.len() as f64;
    let untraced: Vec<Values> = t
        .untraced
        .iter()
        .map(|r| untraced_layer_values(sched, r))
        .collect();
    let traced: Vec<Values> = t
        .traced
        .iter()
        .map(|r| traced_layer_values(sched, r))
        .collect();
    let mut v = median_values(&untraced);
    v.extend(median_values(&traced));
    v.extend(t.kernels.iter().copied());

    let wall = |reps: &[Rep]| median(&reps.iter().map(|r| r.phase.wall_s).collect::<Vec<_>>());
    v.push(("workloads.harness_ns_per_op", t.harness.wall_s * 1e9 / ops));
    v.push((
        "workloads.trace_overhead_share",
        wall(t.traced) / wall(t.untraced) - 1.0,
    ));
    v.push((
        "workloads.peak_rss_mib",
        crate::sys::peak_rss_mib().unwrap_or(0.0),
    ));
    v.push(("core.encfs_ratio", t.enc.phase.wall_s / wall(t.untraced)));

    // Kernel cost of the schedule's blocks: a written block is derived and
    // encrypted, a read block decrypted and re-derived (full integrity);
    // I/Os of at least 8 blocks are priced at the 256-block span rates.
    let get = |name: &str| v.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, x)| *x);
    let kernel_ns: f64 = sched
        .ops
        .iter()
        .map(|op| {
            let width = if op.len as usize >= 8 * BLOCK {
                "256"
            } else {
                "1"
            };
            let crypt = if op.write { "encrypt" } else { "decrypt" };
            let per_block = get(&format!("crypto.derive_{width}_ns_per_4k"))
                + get(&format!("crypto.{crypt}_{width}_ns_per_4k"));
            per_block * (op.len as usize / BLOCK) as f64
        })
        .sum();
    let core_ns = get("core.self_us_per_op") * 1e3 * ops;
    v.push((
        "core.kernel_share",
        if core_ns > 0.0 {
            kernel_ns / core_ns
        } else {
            0.0
        },
    ));

    // Report in the table's order.
    let mut ordered = Values::new();
    for m in &PER_LAYER {
        if let Some(found) = v.iter().find(|(n, _)| *n == m.name) {
            ordered.push(*found);
        }
    }
    ordered
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for exactly the metrics of
/// `names`, in that order; a metric missing from `values` (a tier the
/// workload's stack does not have) is written as 0 because the driver's
/// contract wants every declared metric on every workload.
pub fn metrics_json<'a>(names: impl Iterator<Item = &'a str>, values: &Values) -> String {
    let fields: Vec<String> = names
        .map(|name| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, x)| *x);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(value),
                unit_of(name)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A JSON number with all the digits of the measurement.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json(run_seconds: u64) -> String {
    let workloads: Vec<String> = WorkloadId::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
