//! What one invocation does: how many repetitions, what is printed, the
//! `--check-repeat` comparison and the ledger.

use crate::metrics::{self, TraceInputs, Values, END_TO_END, PER_LAYER};
use crate::micro;
use crate::probe::{tier_totals, Span, ROOT};
use crate::run::{self, Rep};
use crate::schedule::{Scale, Schedule, WorkloadId};
use crate::stack::{Shim, Tier};
use crate::stats::samples_beyond;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// How long one run measures unless `--seconds` says otherwise; also the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 6;
/// Fewest repetitions whose median a run reports.
const MIN_REPS: usize = 3;
/// Most repetitions, whatever `--seconds` asks for.
const MAX_REPS: usize = 15;
/// Spans written to a trace file (the rest are summarised only).
const TRACE_FILE_SPANS: usize = 50_000;

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workloads to run, in order.
    pub workloads: Vec<WorkloadId>,
    /// Seed of every schedule.
    pub seed: u64,
    /// Seconds of measured-phase wall time to accumulate per workload.
    pub seconds: f64,
    /// Report per-layer metrics (probe stores, kernels) instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Size of a repetition.
    pub scale: Scale,
}

/// What one workload produced in one invocation.
pub struct Outcome {
    /// The workload.
    pub id: WorkloadId,
    /// Hash of the generated schedule.
    pub schedule_hash: u64,
    /// Ops attempted over every repetition, checks included.
    pub attempted: u64,
    /// Ops that failed or returned wrong bytes.
    pub failed: u64,
    /// The first failure, if any.
    pub first_error: Option<String>,
    /// Repetitions the medians are taken over.
    pub reps: usize,
    /// Median end-to-end metrics (untraced invocations).
    pub end_to_end: Option<Values>,
    /// Per-layer metrics (traced invocations).
    pub per_layer: Option<Values>,
    /// Samples per repetition behind `op_p99_us`.
    pub op_samples: usize,
}

impl Outcome {
    /// True when every op and every check of every repetition passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics = match (&self.end_to_end, &self.per_layer) {
            (Some(v), _) => metrics::metrics_json(END_TO_END.iter().map(|m| m.name), v),
            (None, Some(v)) => metrics::metrics_json(PER_LAYER.iter().map(|m| m.name), v),
            (None, None) => "{}".to_string(),
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics
        )
    }
}

/// Repeats `repetition` until the measured phases add up to `seconds`.
fn repeat(sched: &Schedule, shim: Shim, traced: bool, seconds: f64, min_reps: usize) -> Vec<Rep> {
    let mut reps = Vec::new();
    let mut measured = 0.0;
    while reps.len() < min_reps || (measured < seconds && reps.len() < MAX_REPS) {
        let rep = run::repetition(sched, shim, traced);
        measured += rep.phase.wall_s;
        reps.push(rep);
    }
    reps
}

/// Runs one workload and prints its report (human-readable lines, then the
/// result line).
pub fn run_workload(id: WorkloadId, opts: &Options) -> Outcome {
    let sched = Schedule::generate(id, opts.scale, opts.seed);
    let mut out = Outcome {
        id,
        schedule_hash: sched.hash(),
        attempted: 0,
        failed: 0,
        first_error: None,
        reps: 0,
        end_to_end: None,
        per_layer: None,
        op_samples: sched.ops.len(),
    };
    let absorb = |out: &mut Outcome, reps: &[Rep]| {
        for rep in reps {
            out.attempted += rep.phase.attempted;
            out.failed += rep.phase.failed;
            if out.first_error.is_none() {
                out.first_error.clone_from(&rep.phase.first_error);
            }
        }
    };
    if opts.trace {
        // A third of the time each for the untraced baseline and the traced
        // repetitions; the rest for EncFS, the no-op replay and the kernels.
        let untraced = repeat(&sched, Shim::Lamassu, false, opts.seconds / 3.0, 2);
        let traced = repeat(&sched, Shim::Lamassu, true, opts.seconds / 3.0, 2);
        let enc = run::repetition(&sched, Shim::Enc, false);
        let harness = run::harness_only(&sched);
        // Twenty kernels share about an eighth of the run.
        let kernels = micro::measure(Duration::from_secs_f64(opts.seconds / 160.0));
        absorb(&mut out, &untraced);
        absorb(&mut out, &traced);
        absorb(&mut out, std::slice::from_ref(&enc));
        out.attempted += harness.attempted;
        out.failed += harness.failed;
        for rep in &traced {
            let residual = metrics::self_time_residual_ns(rep);
            if residual != 0 {
                out.failed += 1;
                out.first_error.get_or_insert(format!(
                    "tier self times miss the op wall time by {residual} ns"
                ));
            }
        }
        out.reps = traced.len();
        out.per_layer = Some(metrics::per_layer(
            &sched,
            &TraceInputs {
                untraced: &untraced,
                traced: &traced,
                enc: &enc,
                harness: &harness,
                kernels: &kernels,
            },
        ));
        if let Err(e) = write_trace(id, &traced[0].spans) {
            eprintln!("warning: trace file not written: {e}");
        }
    } else {
        let reps = repeat(&sched, Shim::Lamassu, false, opts.seconds, MIN_REPS);
        absorb(&mut out, &reps);
        out.reps = reps.len();
        let per_rep: Vec<Values> = reps
            .iter()
            .map(|r| metrics::end_to_end(&sched, r))
            .collect();
        out.end_to_end = Some(metrics::median_values(&per_rep));
    }
    print_report(&out, opts);
    out
}

fn print_report(out: &Outcome, opts: &Options) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "== {}  seed {}  file {} MiB  ops {}  median of {} repetitions  schedule {:#018x}  nproc {}",
        out.id.name(),
        opts.seed,
        opts.scale.file_mib,
        out.op_samples,
        out.reps,
        out.schedule_hash,
        nproc
    );
    if let Some(values) = &out.end_to_end {
        for (name, value) in values {
            let m = END_TO_END.iter().find(|m| m.name == *name).expect("listed");
            let note = if *name == "op_p99_us" {
                format!(
                    "  [{} samples per repetition, {} beyond the p99]",
                    out.op_samples,
                    samples_beyond(out.op_samples, 0.99)
                )
            } else {
                String::new()
            };
            println!("  {name:<34} {value:>14.4} {:<8} {}{note}", m.unit, m.what);
        }
    }
    if let Some(values) = &out.per_layer {
        for m in &PER_LAYER {
            match values.iter().find(|(n, _)| *n == m.name) {
                Some((_, value)) => println!(
                    "  {:<38} {value:>14.4} {:<7} -> {}",
                    m.name, m.unit, m.moves
                ),
                None => println!("  {:<38} {:>14} (not on this workload)", m.name, "-"),
            }
        }
        let overhead = values
            .iter()
            .find(|(n, _)| *n == "workloads.trace_overhead_share")
            .map_or(0.0, |(_, v)| *v);
        if overhead > 0.10 {
            println!(
                "  warning: trace overhead {overhead:.3} is above 0.10; self times are inflated"
            );
        }
    }
    println!(
        "  failed_ops_share                   {:>14.6} ratio    [{} failed of {} attempted]",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    if let Some(e) = &out.first_error {
        println!("  FIRST FAILURE: {e}");
    }
    println!("{}", out.result_json());
}

/// `benchmark/results/`, next to this package's manifest.
fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Writes one traced repetition's spans and tier totals to
/// `results/trace-<workload>.json` (git-ignored).
fn write_trace(id: WorkloadId, spans: &[Span]) -> std::io::Result<()> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let mut s = String::with_capacity(64 * spans.len().min(TRACE_FILE_SPANS) + 1024);
    let _ = write!(
        s,
        "{{\n\"workload\": \"{}\",\n\"note\": \"self time of a tier = its spans minus the spans they directly caused (parent links)\",\n\"tiers\": {{",
        id.name()
    );
    let totals = tier_totals(spans);
    for (i, tier) in Tier::ALL.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\": {{\"self_ns\": {}, \"calls\": {}}}",
            if i == 0 { "" } else { ", " },
            tier.prefix(),
            totals[i].self_ns,
            totals[i].calls
        );
    }
    let _ = write!(
        s,
        "}},\n\"spans_total\": {},\n\"span_fields\": [\"tier\", \"call\", \"start_ns\", \"end_ns\", \"parent\", \"op\"],\n\"spans\": [\n",
        spans.len()
    );
    for (i, span) in spans.iter().take(TRACE_FILE_SPANS).enumerate() {
        let parent = if span.parent == ROOT {
            -1
        } else {
            span.parent as i64
        };
        let _ = writeln!(
            s,
            "{}[\"{}\", \"{:?}\", {}, {}, {}, {}]",
            if i == 0 { "" } else { "," },
            span.tier.prefix(),
            span.call,
            span.start_ns,
            span.end_ns,
            parent,
            span.op
        );
    }
    s.push_str("]\n}\n");
    std::fs::write(dir.join(format!("trace-{}.json", id.name())), s)
}

/// Relative distance between two runs of one metric.
fn spread(a: f64, b: f64) -> f64 {
    let low = a.abs().min(b.abs());
    if low == 0.0 {
        if a == b {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (a - b).abs() / low
    }
}

/// `--check-repeat`: the whole suite twice (plus one traced pass when
/// `opts.trace` is set); fails unless every end-to-end metric of every
/// workload agrees within its bound, the count-based ones exactly.
/// Optionally writes the ledger row.
pub fn check_repeat(opts: &Options, ledger: Option<&Path>) -> bool {
    let untraced = Options {
        trace: false,
        ..opts.clone()
    };
    let suite = |o: &Options| -> Vec<Outcome> {
        o.workloads.iter().map(|&id| run_workload(id, o)).collect()
    };
    let first = suite(&untraced);
    let second = suite(&untraced);
    let traced = if opts.trace { suite(opts) } else { Vec::new() };

    let mut ok = first
        .iter()
        .chain(&second)
        .chain(&traced)
        .all(Outcome::correct);
    println!("== check-repeat: spread between two runs of the same code, per metric");
    let mut spreads: Vec<Vec<(&'static str, f64)>> = Vec::new();
    for (a, b) in first.iter().zip(&second) {
        let (va, vb) = (
            a.end_to_end.as_ref().expect("untraced"),
            b.end_to_end.as_ref().expect("untraced"),
        );
        let mut row = Vec::new();
        for ((name, x), (_, y)) in va.iter().zip(vb) {
            let m = END_TO_END.iter().find(|m| m.name == *name).expect("listed");
            let d = spread(*x, *y);
            let pass = if m.exact { x == y } else { d <= m.bound };
            ok &= pass;
            println!(
                "  {:<16} {:<28} {:>14.4} {:>14.4}  spread {:>8.5}  bound {:<6} {}",
                a.id.name(),
                name,
                x,
                y,
                d,
                if m.exact {
                    "exact".to_string()
                } else {
                    m.bound.to_string()
                },
                if pass { "ok" } else { "FAIL" }
            );
            row.push((*name, d));
        }
        spreads.push(row);
    }
    println!("== check-repeat: {}", if ok { "PASS" } else { "FAIL" });
    if let Some(path) = ledger {
        match write_ledger(path, opts, &first, &second, &spreads, &traced, ok) {
            Ok(()) => println!("ledger row written to {}", path.display()),
            Err(e) => {
                eprintln!("error: ledger not written: {e}");
                ok = false;
            }
        }
    }
    ok
}

fn values_json(values: &Values) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(n, v)| format!("\"{n}\": {}", metrics::json_number(*v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The commit the working tree is based on, if this is a git checkout.
fn head_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn write_ledger(
    path: &Path,
    opts: &Options,
    first: &[Outcome],
    second: &[Outcome],
    spreads: &[Vec<(&'static str, f64)>],
    traced: &[Outcome],
    pass: bool,
) -> std::io::Result<()> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"schema_version\": 1,\n  \"based_on_commit\": \"{}\",\n  \"seed\": {},\n  \"nproc\": {},\n  \"file_mib\": {},\n  \"seconds\": {},\n  \"check_repeat\": \"{}\",\n  \"note\": \"in-memory backends: wall numbers are this sandbox's, modelled_io is virtual NFS time and is never added to wall; per_layer omits tiers a workload's stack does not have\",\n  \"workloads\": {{\n",
        head_commit(),
        opts.seed,
        nproc,
        opts.scale.file_mib,
        opts.seconds,
        if pass { "pass" } else { "fail" }
    );
    for (i, (a, b)) in first.iter().zip(second).enumerate() {
        let _ = write!(
            s,
            "    \"{}\": {{\n      \"schedule_hash\": \"{:#018x}\",\n      \"ops\": {},\n      \"failed\": {},\n      \"attempted\": {},\n      \"runs\": [\n        {{\"repetitions\": {}, \"end_to_end\": {}}},\n        {{\"repetitions\": {}, \"end_to_end\": {}}}\n      ],\n      \"spread\": {}",
            a.id.name(),
            a.schedule_hash,
            a.op_samples,
            a.failed + b.failed,
            a.attempted + b.attempted,
            a.reps,
            values_json(a.end_to_end.as_ref().expect("untraced")),
            b.reps,
            values_json(b.end_to_end.as_ref().expect("untraced")),
            values_json(&spreads[i]),
        );
        if let Some(t) = traced.get(i) {
            let _ = write!(
                s,
                ",\n      \"per_layer\": {}",
                values_json(t.per_layer.as_ref().expect("traced"))
            );
        }
        let _ = writeln!(s, "\n    }}{}", if i + 1 < first.len() { "," } else { "" });
    }
    s.push_str("  }\n}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, s)
}
