//! Test-only stores shared by the integration tests (`mod support;`).

use lamassu::storage::{IoCounters, ObjectStore, Result};
use std::io::{IoSlice, IoSliceMut};
use std::sync::Arc;
use std::time::Duration;

/// The store below with its submission queue taken away: it implements only
/// the thirteen required [`ObjectStore`] methods, so the trait's provided
/// `submit_*` run the blocking call and complete at once, in submission
/// order, whatever the store below would have done with a submission.
///
/// This is the reference the span-I/O driver is diffed against: a mount
/// over `Unqueued<S>` runs the same pipeline as a mount over `S`, minus the
/// queue — no deferred completions, no reordering, no lanes.
pub struct Unqueued<S: ?Sized>(pub Arc<S>);

impl<S: ObjectStore + ?Sized> ObjectStore for Unqueued<S> {
    fn create(&self, name: &str) -> Result<()> {
        self.0.create(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.0.exists(name)
    }
    fn read_into_vectored(
        &self,
        name: &str,
        offset: u64,
        bufs: &mut [IoSliceMut<'_>],
    ) -> Result<usize> {
        self.0.read_into_vectored(name, offset, bufs)
    }
    fn write_at_vectored(&self, name: &str, offset: u64, bufs: &[IoSlice<'_>]) -> Result<()> {
        self.0.write_at_vectored(name, offset, bufs)
    }
    fn len(&self, name: &str) -> Result<u64> {
        self.0.len(name)
    }
    fn truncate(&self, name: &str, len: u64) -> Result<()> {
        self.0.truncate(name, len)
    }
    fn remove(&self, name: &str) -> Result<()> {
        self.0.remove(name)
    }
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.0.rename(from, to)
    }
    fn list(&self) -> Vec<String> {
        self.0.list()
    }
    fn flush(&self, name: &str) -> Result<()> {
        self.0.flush(name)
    }
    fn io_time(&self) -> Duration {
        self.0.io_time()
    }
    fn io_counters(&self) -> IoCounters {
        self.0.io_counters()
    }
    fn reset_io_accounting(&self) {
        self.0.reset_io_accounting()
    }
}
