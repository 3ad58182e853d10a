//! Probe stores: spans recorded from outside, at every tier boundary.
//!
//! A [`Probe`] is an `ObjectStore` that forwards **every** trait method —
//! required and provided — to the store it wraps and records one span per
//! call into a preallocated in-memory buffer. Forwarding the provided
//! methods matters: a probe that let `read_into_vectored` or
//! `submit_write_vectored` fall back to the trait's default would split a
//! vectored op into per-buffer ops and the traced run would measure a
//! different program (`tests/fidelity.rs` checks that it does not).
//!
//! A tier's *self time* is its spans' duration minus the duration of the
//! spans they directly caused, so the tiers' self times sum to the duration
//! of the root spans (the `FileSystem` calls) by construction.

use crate::stack::{
    Completion, IoCounters, ObjectStore, StoreResult, SubmitQueue, SubmitTicket, Tier,
};
use std::cell::Cell;
use std::io::{IoSlice, IoSliceMut};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// "No parent": the span is a root.
pub const ROOT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The tier the call entered.
    pub tier: Tier,
    /// The trait method (or `FileSystem` call).
    pub call: Call,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// The measured-phase op the span belongs to (shared by all spans of one
    /// `FileSystem` call).
    pub op: u32,
}

/// One preallocated span, written field by field without a lock.
#[derive(Default)]
struct Slot {
    /// `tier << 40 | call << 32 | op`.
    meta: AtomicU64,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    parent: AtomicU32,
}

/// The call a span records: the three `FileSystem` calls the runner issues
/// and every `ObjectStore` method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Call {
    Read,
    Write,
    Fsync,
    Create,
    Exists,
    ReadInto,
    ReadAt,
    ReadIntoVectored,
    WriteAt,
    WriteAtVectored,
    SubmitReadVectored,
    SubmitWriteVectored,
    PollCompletions,
    WaitCompletions,
    Len,
    Truncate,
    Remove,
    Rename,
    List,
    Flush,
    SleepVirtual,
    IoTime,
    IoCounters,
    ResetIoAccounting,
}

impl Call {
    const ALL: [Call; 24] = [
        Call::Read,
        Call::Write,
        Call::Fsync,
        Call::Create,
        Call::Exists,
        Call::ReadInto,
        Call::ReadAt,
        Call::ReadIntoVectored,
        Call::WriteAt,
        Call::WriteAtVectored,
        Call::SubmitReadVectored,
        Call::SubmitWriteVectored,
        Call::PollCompletions,
        Call::WaitCompletions,
        Call::Len,
        Call::Truncate,
        Call::Remove,
        Call::Rename,
        Call::List,
        Call::Flush,
        Call::SleepVirtual,
        Call::IoTime,
        Call::IoCounters,
        Call::ResetIoAccounting,
    ];

    /// True for the methods that ask a store to do something to an object —
    /// what a tier's `calls` counts. Completion polling, existence checks
    /// and the accounting reads are timed but are not operations.
    pub fn is_operation(self) -> bool {
        !matches!(
            self,
            Call::Exists
                | Call::PollCompletions
                | Call::WaitCompletions
                | Call::List
                | Call::SleepVirtual
                | Call::IoTime
                | Call::IoCounters
                | Call::ResetIoAccounting
        )
    }
}

thread_local! {
    /// The innermost open span of this thread: the parent of the next one.
    static CURRENT: Cell<u32> = const { Cell::new(ROOT) };
}

/// The span buffer shared by every probe of one stack.
///
/// Recording takes no lock: a span claims the next preallocated slot with
/// one `fetch_add`, and the caller chain is kept per thread. Every ordering
/// is `Relaxed` because the buffer publishes nothing while the phase runs:
/// it is read only after the measured loop has returned, on the thread that
/// ran it (worker threads are scoped and joined inside the ops that start
/// them).
pub struct Recorder {
    epoch: Instant,
    enabled: AtomicBool,
    next: AtomicUsize,
    op: AtomicU32,
    slots: Vec<Slot>,
}

impl Recorder {
    /// A recorder with room for `capacity` spans; spans beyond that are
    /// counted by [`Recorder::dropped`] and lost.
    pub fn new(capacity: usize) -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next: AtomicUsize::new(0),
            op: AtomicU32::new(0),
            slots: (0..capacity).map(|_| Slot::default()).collect(),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts (or stops) recording; spans outside the measured phase are
    /// dropped, so populate and verification never reach the buffer.
    pub fn enable(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    /// Opens a span and returns its handle.
    pub fn enter(&self, tier: Tier, call: Call) -> Option<u32> {
        if !self.enabled.load(Relaxed) {
            return None;
        }
        let index = self.next.fetch_add(1, Relaxed);
        let slot = self.slots.get(index)?;
        slot.meta.store(
            (tier as u64) << 40 | (call as u64) << 32 | self.op.load(Relaxed) as u64,
            Relaxed,
        );
        slot.parent.store(CURRENT.replace(index as u32), Relaxed);
        slot.start_ns.store(self.now(), Relaxed);
        Some(index as u32)
    }

    /// Closes the span `enter` returned.
    pub fn exit(&self, handle: Option<u32>) {
        let Some(index) = handle else { return };
        let slot = &self.slots[index as usize];
        slot.end_ns.store(self.now(), Relaxed);
        CURRENT.set(slot.parent.load(Relaxed));
    }

    /// Closes a root span and moves on to the next op id.
    pub fn exit_op(&self, handle: Option<u32>) {
        self.exit(handle);
        self.op.fetch_add(1, Relaxed);
    }

    /// Spans that found the buffer full.
    pub fn dropped(&self) -> usize {
        self.next.load(Relaxed).saturating_sub(self.slots.len())
    }

    /// The recorded spans, in the order they were opened.
    pub fn spans(&self) -> Vec<Span> {
        let used = self.next.load(Relaxed).min(self.slots.len());
        self.slots[..used]
            .iter()
            .map(|slot| {
                let meta = slot.meta.load(Relaxed);
                Span {
                    tier: Tier::ALL[(meta >> 40) as usize],
                    call: Call::ALL[(meta >> 32) as usize & 0xff],
                    start_ns: slot.start_ns.load(Relaxed),
                    end_ns: slot.end_ns.load(Relaxed),
                    parent: slot.parent.load(Relaxed),
                    op: meta as u32,
                }
            })
            .collect()
    }
}

/// Per-tier totals derived from a span buffer.
#[derive(Debug, Clone, Copy, Default)]
pub struct TierTotals {
    /// Self time: own spans minus the spans they directly caused.
    pub self_ns: i64,
    /// Operations asked of the tier (see [`Call::is_operation`]).
    pub calls: u64,
    /// `flush` calls into the tier.
    pub flushes: u64,
}

/// Self time and call counts per tier, indexed like [`Tier::ALL`].
pub fn tier_totals(spans: &[Span]) -> [TierTotals; 5] {
    let mut totals = [TierTotals::default(); 5];
    for span in spans {
        let dur = (span.end_ns - span.start_ns) as i64;
        let own = &mut totals[span.tier as usize];
        own.self_ns += dur;
        own.calls += span.call.is_operation() as u64;
        own.flushes += (span.call == Call::Flush) as u64;
        if span.parent != ROOT {
            totals[spans[span.parent as usize].tier as usize].self_ns -= dur;
        }
    }
    totals
}

/// An `ObjectStore` that records a span around every call it forwards.
pub struct Probe {
    tier: Tier,
    inner: Arc<dyn ObjectStore>,
    recorder: Arc<Recorder>,
}

impl Probe {
    /// Wraps `inner`; spans are attributed to `tier`.
    pub fn new(tier: Tier, inner: Arc<dyn ObjectStore>, recorder: Arc<Recorder>) -> Probe {
        Probe {
            tier,
            inner,
            recorder,
        }
    }

    fn span<T>(&self, call: Call, forward: impl FnOnce() -> T) -> T {
        let handle = self.recorder.enter(self.tier, call);
        let out = forward();
        self.recorder.exit(handle);
        out
    }
}

impl ObjectStore for Probe {
    fn create(&self, name: &str) -> StoreResult<()> {
        self.span(Call::Create, || self.inner.create(name))
    }

    fn exists(&self, name: &str) -> bool {
        self.span(Call::Exists, || self.inner.exists(name))
    }

    fn read_into(&self, name: &str, offset: u64, buf: &mut [u8]) -> StoreResult<usize> {
        self.span(Call::ReadInto, || self.inner.read_into(name, offset, buf))
    }

    fn read_at(&self, name: &str, offset: u64, len: usize) -> StoreResult<Vec<u8>> {
        self.span(Call::ReadAt, || self.inner.read_at(name, offset, len))
    }

    fn read_into_vectored(
        &self,
        name: &str,
        offset: u64,
        bufs: &mut [IoSliceMut<'_>],
    ) -> StoreResult<usize> {
        self.span(Call::ReadIntoVectored, || {
            self.inner.read_into_vectored(name, offset, bufs)
        })
    }

    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> StoreResult<()> {
        self.span(Call::WriteAt, || self.inner.write_at(name, offset, data))
    }

    fn write_at_vectored(&self, name: &str, offset: u64, bufs: &[IoSlice<'_>]) -> StoreResult<()> {
        self.span(Call::WriteAtVectored, || {
            self.inner.write_at_vectored(name, offset, bufs)
        })
    }

    fn submit_read_vectored(
        &self,
        q: &mut SubmitQueue,
        name: &str,
        offset: u64,
        bufs: &mut [IoSliceMut<'_>],
    ) -> SubmitTicket {
        self.span(Call::SubmitReadVectored, || {
            self.inner.submit_read_vectored(q, name, offset, bufs)
        })
    }

    fn submit_write_vectored(
        &self,
        q: &mut SubmitQueue,
        name: &str,
        offset: u64,
        bufs: &[IoSlice<'_>],
    ) -> SubmitTicket {
        self.span(Call::SubmitWriteVectored, || {
            self.inner.submit_write_vectored(q, name, offset, bufs)
        })
    }

    fn poll_completions(&self, q: &mut SubmitQueue, out: &mut Vec<Completion>) {
        self.span(Call::PollCompletions, || {
            self.inner.poll_completions(q, out)
        })
    }

    fn wait_completions(&self, q: &mut SubmitQueue, out: &mut Vec<Completion>) {
        self.span(Call::WaitCompletions, || {
            self.inner.wait_completions(q, out)
        })
    }

    fn len(&self, name: &str) -> StoreResult<u64> {
        self.span(Call::Len, || self.inner.len(name))
    }

    fn truncate(&self, name: &str, len: u64) -> StoreResult<()> {
        self.span(Call::Truncate, || self.inner.truncate(name, len))
    }

    fn remove(&self, name: &str) -> StoreResult<()> {
        self.span(Call::Remove, || self.inner.remove(name))
    }

    fn rename(&self, from: &str, to: &str) -> StoreResult<()> {
        self.span(Call::Rename, || self.inner.rename(from, to))
    }

    fn list(&self) -> Vec<String> {
        self.span(Call::List, || self.inner.list())
    }

    fn flush(&self, name: &str) -> StoreResult<()> {
        self.span(Call::Flush, || self.inner.flush(name))
    }

    fn sleep_virtual(&self, d: Duration) {
        self.span(Call::SleepVirtual, || self.inner.sleep_virtual(d))
    }

    // Accounting calls are on the data path too (the resilience tier reads
    // `io_time` around every op for its deadline budget), so they get spans;
    // the harness reads its own counters only while recording is off.

    fn io_time(&self) -> Duration {
        self.span(Call::IoTime, || self.inner.io_time())
    }

    fn io_counters(&self) -> IoCounters {
        self.span(Call::IoCounters, || self.inner.io_counters())
    }

    fn reset_io_accounting(&self) {
        self.span(Call::ResetIoAccounting, || self.inner.reset_io_accounting())
    }
}
