//! Storage substrate for the Lamassu reproduction.
//!
//! The paper's experimental setup (§4) stores encrypted files on a NetApp
//! FAS3250 filer reached over NFS v3 / 1 GbE, runs the filer's post-process
//! deduplication manually, and measures space with `df`; a second
//! configuration replaces the filer with a local RAM disk. None of that
//! hardware is available here, so this crate builds the synthetic equivalent
//! (see DESIGN.md §3 for the substitution argument):
//!
//! * [`store`] — the [`ObjectStore`] trait: the byte-addressed, named-object
//!   interface that the file-system shims (`PlainFs`, `EncFs`, `CeFileFs`,
//!   `LamassuFs`) use as their backing store, standing in for the NFS mount
//!   point. Data moves as scatter lists only; [`iovec`] is the one walk over
//!   such a list.
//! * [`dedup`] — [`DedupStore`], an in-memory object store with fixed-block
//!   content-addressed deduplication accounting (`run_dedup()` plays the role
//!   of triggering dedup on the controller and reading `df`).
//! * [`profile`] — [`StorageProfile`] and the virtual I/O clock that charge
//!   per-operation latency and link bandwidth, so the "remote filer" and
//!   "RAM disk" configurations of Figures 7 and 8 can both be modelled. The
//!   clock is concurrency-aware: the profile's parallelism width says how
//!   many in-flight requests the backend overlaps, and concurrent client
//!   threads charge independent channels (see [`profile::SimClock`]).
//! * [`faulty`] — [`FaultyStore`], a wrapper that injects a crash (power cut)
//!   after a chosen number of block writes, used to exercise the
//!   multiphase-commit recovery of §2.4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dedup;
pub mod dirstore;
pub mod faulty;
pub mod iovec;
pub mod profile;
pub mod store;
pub mod submit;

mod error;

pub use dedup::{DedupReport, DedupStore, UsageReport};
pub use dirstore::DirStore;
pub use error::StorageError;
pub use faulty::{ArmedFaults, FaultSchedule, FaultStats, FaultyStore};
pub use profile::{IoCounters, StorageProfile};
pub use store::ObjectStore;
pub use submit::{with_thread_queue, write_submitted, Completion, SubmitQueue, SubmitTicket};

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
