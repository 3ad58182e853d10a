//! The [`ObjectStore`] trait: the backing-store interface of the shims.
//!
//! In the paper's prototype the backing store is "a configurable directory,
//! mounted on the native Linux file system", typically an NFS mount of the
//! deduplicating filer (§3). The shim treats every file in that directory as
//! an opaque byte object it reads and writes at block granularity. This trait
//! captures exactly that contract: named byte objects with random-access
//! reads and writes, plus the accounting hooks the benchmark harness needs.
//!
//! # A scatter list is the only shape of data I/O
//!
//! The shims turn arbitrary byte ranges into runs of whole blocks, and the
//! dominant cost over a remote transport is the per-operation round trip, not
//! the bytes. So the two data primitives take a list:
//! [`ObjectStore::read_into_vectored`] reads one contiguous range of the
//! object in a *single* charged store operation and scatters it across
//! caller-owned buffers (typically one per block, or staging buffers for the
//! partial edge blocks of a span); [`ObjectStore::write_at_vectored`] is its
//! dual, so a header and payload — or several contiguous blocks — reach the
//! store in one operation without being concatenated first. Neither
//! allocates. The scalar calls ([`ObjectStore::read_into`],
//! [`ObjectStore::write_at`], [`ObjectStore::read_at`]) are the same
//! operation on a one-slice list and are written once, here; the byte-moving
//! walk over a list lives once too, in [`crate::iovec`].
//!
//! # Implementor's checklist
//!
//! **Required** (13): the namespace calls `create`, `exists`, `len`,
//! `truncate`, `remove`, `rename`, `list`, `flush`; the two data primitives
//! `read_into_vectored` and `write_at_vectored` — a store must serve the
//! whole list as **one** charged operation, there is no per-buffer fallback
//! to forget to override; and the accounting calls `io_time`, `io_counters`,
//! `reset_io_accounting`.
//!
//! **Provided** (8): `read_into`, `write_at`, `read_at` (one-slice
//! conveniences — do not override them, a wrapper that did would only
//! re-spell its vectored body); `submit_read_vectored` /
//! `submit_write_vectored` (run the blocking call, complete at once);
//! `poll_completions` / `wait_completions`; `sleep_virtual` (no-op).
//!
//! Override a provided method only for what the tier adds:
//!
//! * a store with a virtual clock overrides `submit_*` to schedule the
//!   transport cost on a queue-depth lane, `wait_completions` to run the
//!   transport barrier, and `sleep_virtual` to advance the clock;
//! * a wrapper **forwards** `sleep_virtual` and `wait_completions` (and
//!   `poll_completions`, if it cares about release order) to the store(s)
//!   below it, or the clock under it never sees a backoff or a barrier;
//! * a tier that only forwards needs **no** `submit_*`: the defaults route a
//!   submission through the tier's own blocking path, so its logic (cache
//!   lookup) covers submitted I/O for free;
//! * a tier that retries or fans out a write must see each attempt's
//!   outcome before it goes on, yet should not turn a submission into a
//!   blocking round trip below it: it overrides `submit_write_vectored` to
//!   run its logic with every inner write issued through
//!   [`write_submitted`](crate::write_submitted), which returns the inner
//!   result while the cost stays on the inner store's lanes, and completes
//!   the caller's ticket at once (`ResilientStore`, `RoutedStore`).
//!
//! The smallest complete store — it stops compiling if the required set
//! ever grows:
//!
//! ```
//! use lamassu_storage::{iovec, IoCounters, ObjectStore, Result, StorageError};
//! use std::collections::HashMap;
//! use std::io::{IoSlice, IoSliceMut};
//! use std::sync::Mutex;
//! use std::time::Duration;
//!
//! #[derive(Default)]
//! struct MapStore(Mutex<HashMap<String, Vec<u8>>>);
//!
//! fn missing(name: &str) -> StorageError {
//!     StorageError::NotFound { name: name.to_string() }
//! }
//!
//! impl ObjectStore for MapStore {
//!     fn create(&self, name: &str) -> Result<()> {
//!         match self.0.lock().unwrap().insert(name.to_string(), Vec::new()) {
//!             None => Ok(()),
//!             Some(_) => Err(StorageError::AlreadyExists { name: name.to_string() }),
//!         }
//!     }
//!     fn exists(&self, name: &str) -> bool {
//!         self.0.lock().unwrap().contains_key(name)
//!     }
//!     fn read_into_vectored(
//!         &self,
//!         name: &str,
//!         offset: u64,
//!         bufs: &mut [IoSliceMut<'_>],
//!     ) -> Result<usize> {
//!         let map = self.0.lock().unwrap();
//!         let data = map.get(name).ok_or_else(|| missing(name))?;
//!         // Clamped at end-of-object: a short count, not an error.
//!         let from = (offset as usize).min(data.len());
//!         Ok(iovec::scatter(bufs, 0, &data[from..]))
//!     }
//!     fn write_at_vectored(&self, name: &str, offset: u64, bufs: &[IoSlice<'_>]) -> Result<()> {
//!         let mut map = self.0.lock().unwrap();
//!         let data = map.get_mut(name).ok_or_else(|| missing(name))?;
//!         let end = offset as usize + iovec::total_len(bufs);
//!         if end > data.len() {
//!             data.resize(end, 0); // zero-fill extension
//!         }
//!         iovec::gather(bufs, 0, &mut data[offset as usize..end]);
//!         Ok(())
//!     }
//!     fn len(&self, name: &str) -> Result<u64> {
//!         let map = self.0.lock().unwrap();
//!         map.get(name).map(|d| d.len() as u64).ok_or_else(|| missing(name))
//!     }
//!     fn truncate(&self, name: &str, len: u64) -> Result<()> {
//!         let mut map = self.0.lock().unwrap();
//!         map.get_mut(name).ok_or_else(|| missing(name))?.resize(len as usize, 0);
//!         Ok(())
//!     }
//!     fn remove(&self, name: &str) -> Result<()> {
//!         self.0.lock().unwrap().remove(name).map(|_| ()).ok_or_else(|| missing(name))
//!     }
//!     fn rename(&self, from: &str, to: &str) -> Result<()> {
//!         let mut map = self.0.lock().unwrap();
//!         let data = map.remove(from).ok_or_else(|| missing(from))?;
//!         map.insert(to.to_string(), data);
//!         Ok(())
//!     }
//!     fn list(&self) -> Vec<String> {
//!         self.0.lock().unwrap().keys().cloned().collect()
//!     }
//!     fn flush(&self, _name: &str) -> Result<()> {
//!         Ok(())
//!     }
//!     fn io_time(&self) -> Duration {
//!         Duration::ZERO
//!     }
//!     fn io_counters(&self) -> IoCounters {
//!         IoCounters::default()
//!     }
//!     fn reset_io_accounting(&self) {}
//! }
//!
//! // Every provided method works on top of the thirteen above.
//! let s = MapStore::default();
//! s.create("f").unwrap();
//! s.write_at("f", 2, b"abc").unwrap();
//! assert_eq!(s.read_at("f", 0, 5).unwrap(), b"\0\0abc");
//! let mut buf = [0u8; 8];
//! assert_eq!(s.read_into("f", 3, &mut buf).unwrap(), 2);
//! assert!(matches!(s.read_at("f", 3, 8), Err(StorageError::OutOfBounds { size: 5, .. })));
//! ```

use crate::iovec;
use crate::profile::IoCounters;
use crate::submit::{Completion, SubmitQueue, SubmitTicket};
use crate::Result;
use std::io::{IoSlice, IoSliceMut};
use std::time::Duration;

/// A named-object byte store, the downstream "untrusted storage system".
///
/// Implementations must be thread-safe: the FIO-style tester issues I/O from
/// multiple client threads in some configurations. Methods without a body
/// are the required set; see the [module docs](self) for the implementor's
/// checklist.
pub trait ObjectStore: Send + Sync {
    /// Creates an empty object. Fails with
    /// [`crate::StorageError::AlreadyExists`] if the name is taken.
    fn create(&self, name: &str) -> Result<()>;

    /// Returns true if the object exists.
    fn exists(&self, name: &str) -> bool;

    /// Reads the contiguous range starting at `offset` into the scatter list
    /// `bufs` (filled in order), returning the total number of bytes read.
    /// Reads past the end of the object are clamped: buffers past the end
    /// are left untouched and a short total (or `0` when `offset` is at or
    /// past the end) is returned, not an error.
    ///
    /// This is the read primitive: the whole list is served by **one**
    /// charged store operation, and the call performs no allocation.
    fn read_into_vectored(
        &self,
        name: &str,
        offset: u64,
        bufs: &mut [IoSliceMut<'_>],
    ) -> Result<usize>;

    /// Writes the concatenation of `bufs` at `offset` as **one** charged
    /// store operation, extending (and zero-filling) the object if needed.
    /// This is the write primitive.
    fn write_at_vectored(&self, name: &str, offset: u64, bufs: &[IoSlice<'_>]) -> Result<()>;

    /// [`ObjectStore::read_into_vectored`] on the one-slice list `[buf]`.
    fn read_into(&self, name: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.read_into_vectored(name, offset, &mut [IoSliceMut::new(buf)])
    }

    /// [`ObjectStore::write_at_vectored`] on the one-slice list `[data]`.
    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<()> {
        self.write_at_vectored(name, offset, &[IoSlice::new(data)])
    }

    /// Reads exactly `len` bytes at `offset` into a fresh vector. Reads past
    /// the end of the object return an [`crate::StorageError::OutOfBounds`]
    /// error carrying the object size; the shims always read whole blocks
    /// they know to exist and use the error's size to clamp.
    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        let n = self.read_into(name, offset, &mut buf)?;
        if n < len {
            // A short read pins the object size at `offset + n` (reads clamp
            // at end-of-object), so the error carries the exact size
            // without a second charged backend call. Only a read starting at
            // or past the end (`n == 0`) learns nothing from the clamp and
            // must ask the store.
            let size = if n > 0 {
                offset + n as u64
            } else {
                self.len(name)?
            };
            return Err(crate::StorageError::OutOfBounds {
                name: name.to_string(),
                offset,
                len,
                size,
            });
        }
        Ok(buf)
    }

    /// Submits the vectored read described by [`ObjectStore::read_into_vectored`]
    /// to the store's completion queue and returns its ticket immediately.
    ///
    /// The contract is **execute eagerly, complete in virtual time**: the
    /// buffers are filled during this call (the borrow ends on return), but
    /// the operation's result — byte count or error — is only observable by
    /// draining the matching [`Completion`] from `q`, and the modelled
    /// transport cost lands on one of the channel's queue-depth lanes so up
    /// to `StorageProfile.queue_depth` submissions overlap. The default
    /// implementation executes the blocking read and records an immediately
    /// ready completion, so every store supports the API.
    fn submit_read_vectored(
        &self,
        q: &mut SubmitQueue,
        name: &str,
        offset: u64,
        bufs: &mut [IoSliceMut<'_>],
    ) -> SubmitTicket {
        let result = self.read_into_vectored(name, offset, bufs);
        q.complete_now(result)
    }

    /// Submits the vectored write described by [`ObjectStore::write_at_vectored`];
    /// same contract as [`ObjectStore::submit_read_vectored`]. The completion
    /// carries the total byte count of the scatter list on success.
    fn submit_write_vectored(
        &self,
        q: &mut SubmitQueue,
        name: &str,
        offset: u64,
        bufs: &[IoSlice<'_>],
    ) -> SubmitTicket {
        let result = self
            .write_at_vectored(name, offset, bufs)
            .map(|()| iovec::total_len(bufs));
        q.complete_now(result)
    }

    /// Drains whatever completions have landed into `out` without forcing
    /// anything still deferred. May legitimately produce nothing.
    fn poll_completions(&self, q: &mut SubmitQueue, out: &mut Vec<Completion>) {
        q.drain_ready(out);
    }

    /// Releases every in-flight operation and drains all completions. Also
    /// the transport barrier: stores with a virtual clock raise the calling
    /// thread's channel floor to the last completion, so subsequent blocking
    /// operations cannot start before the drained submissions finish.
    fn wait_completions(&self, q: &mut SubmitQueue, out: &mut Vec<Completion>) {
        q.release_all();
        q.drain_ready(out);
    }

    /// Current size of the object in bytes.
    fn len(&self, name: &str) -> Result<u64>;

    /// Truncates or extends the object to exactly `len` bytes.
    fn truncate(&self, name: &str, len: u64) -> Result<()>;

    /// Removes the object.
    fn remove(&self, name: &str) -> Result<()>;

    /// Renames an object, replacing any existing object at `to`.
    fn rename(&self, from: &str, to: &str) -> Result<()>;

    /// Lists all object names (unordered).
    fn list(&self) -> Vec<String>;

    /// Durably flushes the object (a no-op for the in-memory stores, but the
    /// shims call it where a real deployment would `fsync`).
    fn flush(&self, name: &str) -> Result<()>;

    /// Parks the calling thread's transport channel for `d` of idle
    /// **virtual** time — the deterministic stand-in for a retry layer's
    /// backoff sleep. The wait shows up in [`ObjectStore::io_time`] (so
    /// deadline budgets measured in virtual time see it) but charges no busy
    /// time and no counters, and never sleeps on the wall clock.
    ///
    /// The default is a no-op for stores without a virtual clock; stores
    /// backed by a [`SimClock`](crate::profile::SimClock) advance it, and
    /// wrappers delegate to the store(s) below them.
    fn sleep_virtual(&self, d: Duration) {
        let _ = d;
    }

    /// Total *virtual* I/O time charged so far by the storage profile.
    ///
    /// The benchmark harness adds this to the measured compute time to obtain
    /// end-to-end latency under the modelled transport (NFS or RAM disk).
    fn io_time(&self) -> Duration;

    /// Cumulative operation/byte counters.
    fn io_counters(&self) -> IoCounters;

    /// Resets the virtual clock and counters (used between benchmark phases).
    fn reset_io_accounting(&self);
}
