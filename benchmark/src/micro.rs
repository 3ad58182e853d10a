//! Timing of the direct-call kernels listed in `stack::kernels`.

use crate::stack;
use crate::stats::median;
use std::time::{Duration, Instant};

/// Batches per kernel; the median batch is reported.
const BATCHES: usize = 5;

/// Times every kernel for about `budget` each and returns
/// `(metric name, value in the metric's unit)`.
pub fn measure(budget: Duration) -> Vec<(&'static str, f64)> {
    stack::kernels()
        .into_iter()
        .map(|mut k| (k.metric, ns_per_call(&mut k.call, budget) / k.per))
        .collect()
}

fn ns_per_call(call: &mut dyn FnMut(), budget: Duration) -> f64 {
    // One untimed call warms caches and sizes the batches.
    call();
    let t0 = Instant::now();
    call();
    let once = t0.elapsed().max(Duration::from_nanos(20));
    let per_batch = budget.as_nanos() / BATCHES as u128;
    let iters = (per_batch / once.as_nanos()).clamp(1, 1 << 20) as u32;
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                call();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}
