//! The Lamassu benchmark: five closed-loop workloads, wall and modelled time
//! in separate columns, per-tier self time from probe stores.
//!
//! See `README.md` in this package for the workloads, the metrics and how to
//! read them. Module map:
//!
//! * [`stack`] — every use of the stack's public API (mounts, counters,
//!   direct-call kernels);
//! * [`schedule`] — workloads and seeded op schedules;
//! * [`run`] — one repetition: set-up, measured loop, restart and checks;
//! * [`probe`] — span-recording `ObjectStore` wrappers and self-time maths;
//! * [`metrics`] — metric names, units, bounds and formulas;
//! * [`suite`] — repetitions per invocation, reports, `--check-repeat`, the
//!   ledger.

#![warn(missing_docs)]

pub mod metrics;
pub mod micro;
pub mod nullfs;
pub mod probe;
pub mod rng;
pub mod run;
pub mod schedule;
pub mod stack;
pub mod stats;
pub mod suite;
pub mod sys;
