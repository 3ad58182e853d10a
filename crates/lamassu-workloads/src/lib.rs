//! Workload generators for the Lamassu evaluation (paper §4).
//!
//! Three generators cover everything the paper's experiments need:
//!
//! * [`synthetic`] — files with a controlled fraction `α` of redundant
//!   (duplicate) fixed-size blocks, the input of Figure 6 and Figure 11.
//! * [`vmimage`] — a synthetic stand-in for the five VirtualBox VM images of
//!   Table 1, each reproducing the real image's size and intra-file
//!   duplicate-block fraction (see DESIGN.md §3 for the substitution).
//! * [`fio`] — an FIO-tester-style single-file workload driver (sequential /
//!   random reads and writes plus the 7:3 mixed workload) that measures
//!   throughput as real compute time plus the backend's modelled I/O time,
//!   used for Figures 7, 8, 9 and 10.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fio;
pub mod synthetic;
pub mod vmimage;

pub use fio::{FioConfig, FioResult, FioTester, Workload};
pub use synthetic::SyntheticSpec;
pub use vmimage::{VmImageSpec, VM_IMAGES};
