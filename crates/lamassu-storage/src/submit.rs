//! Submission queues and completion tokens: the io_uring-shaped async face
//! of [`ObjectStore`].
//!
//! The two blocking data primitives (`read_into_vectored`,
//! `write_at_vectored` — the scalar calls are these on a one-slice list)
//! charge the virtual transport and return only when the round trip is over,
//! so a single client thread can never keep a depth-N backend channel busy.
//! The submit API decouples *issuing* the same list operation from
//! *observing* its completion:
//!
//! * `submit_read_vectored` / `submit_write_vectored` enqueue an operation
//!   and return a [`SubmitTicket`] immediately;
//! * `poll_completions` drains whatever completions have landed;
//! * `wait_completions` releases everything still in flight and acts as the
//!   transport barrier (subsequent blocking operations start no earlier than
//!   the last drained completion).
//!
//! # Ownership rules
//!
//! The model is **execute eagerly, complete in virtual time**: an
//! implementation performs the data movement *during* the submit call (the
//! borrow of the caller's buffers ends when submit returns) and schedules
//! only the modelled transport cost onto a queue-depth lane of the
//! [`SimClock`](crate::profile::SimClock). The caller must treat submitted
//! buffers as unreadable until the matching [`Completion`] is drained — the
//! one caller in the stack, `lamassu-core`'s span-I/O driver, keeps each
//! run's staging blocks in a private pending table until its ticket
//! completes. Results (byte counts *and* errors) surface exclusively through
//! the completion, never from submit.
//!
//! # Lock hierarchy
//!
//! A [`SubmitQueue`] is caller-owned state, passed as `&mut` — it takes no
//! lock of its own and must never be shared between threads mid-flight.
//! Store implementations may take their internal locks (shard maps, the
//! clock's channel state) *inside* a submit/poll call, but must not hold
//! them across calls; nothing in this module calls back into the store.

use crate::{iovec, ObjectStore, Result, StorageError};
use std::cell::RefCell;
use std::io::IoSlice;
use std::sync::atomic::{AtomicU64, Ordering};

/// Global id source so tickets from distinct queues never collide.
static NEXT_QUEUE_ID: AtomicU64 = AtomicU64::new(1);

/// Identifies one submitted operation: the owning queue plus a per-queue
/// sequence number. Tickets are plain values — clonable, comparable, and
/// meaningless once their completion has been drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubmitTicket {
    queue: u64,
    seq: u64,
}

/// A completed operation: the ticket it answers and the operation's result
/// (bytes transferred for reads, bytes accepted for writes). Errors —
/// including injected faults — surface here, not at submit time.
#[derive(Debug)]
pub struct Completion {
    /// The ticket returned by the submit call this completion answers.
    pub ticket: SubmitTicket,
    /// The operation's outcome: total bytes moved, or the deferred error.
    pub result: Result<usize>,
}

/// One in-flight entry. `ready` gates visibility: stores that model
/// completion reordering (see `FaultyStore`) park entries not-ready and
/// release them out of submission order.
#[derive(Debug)]
struct Entry {
    seq: u64,
    result: Option<Result<usize>>,
    ready: bool,
}

/// A caller-owned submission/completion queue.
///
/// The queue is inert bookkeeping — all transport modelling lives in the
/// store and its [`SimClock`](crate::profile::SimClock). Reusing one queue
/// across calls (the engines keep one per thread) costs zero allocations
/// once its backing vectors are warm.
#[derive(Debug)]
pub struct SubmitQueue {
    id: u64,
    next_seq: u64,
    entries: Vec<Entry>,
    /// Seqs in the order they became ready — completions drain in *this*
    /// order, so out-of-order release is observable to the caller.
    ready_order: Vec<u64>,
}

impl SubmitQueue {
    /// Creates an empty queue with a process-unique id.
    pub fn new() -> Self {
        SubmitQueue {
            id: NEXT_QUEUE_ID.fetch_add(1, Ordering::Relaxed),
            next_seq: 0,
            entries: Vec::new(),
            ready_order: Vec::new(),
        }
    }

    /// Drops any stale entries (an aborted pipeline) while keeping the
    /// backing capacity. Sequence numbers keep advancing, so tickets from
    /// before the reset can never match a later entry.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.ready_order.clear();
    }

    /// Number of submitted operations not yet drained.
    pub fn in_flight(&self) -> usize {
        self.entries.len()
    }

    /// Number of entries parked not-ready (deferred completions).
    pub fn deferred(&self) -> usize {
        self.entries.iter().filter(|e| !e.ready).count()
    }

    fn push(&mut self, result: Result<usize>, ready: bool) -> SubmitTicket {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(Entry {
            seq,
            result: Some(result),
            ready,
        });
        if ready {
            self.ready_order.push(seq);
        }
        SubmitTicket {
            queue: self.id,
            seq,
        }
    }

    /// Records an operation whose completion is immediately visible (the
    /// default for stores without deferred-completion modelling).
    pub fn complete_now(&mut self, result: Result<usize>) -> SubmitTicket {
        self.push(result, true)
    }

    /// Records an operation whose completion stays parked until a store's
    /// poll/wait releases it.
    pub fn complete_deferred(&mut self, result: Result<usize>) -> SubmitTicket {
        self.push(result, false)
    }

    /// Re-parks the given entry (used by wrapper tiers to defer a completion
    /// an inner store recorded as immediately ready).
    pub fn defer(&mut self, ticket: SubmitTicket) {
        if ticket.queue != self.id {
            return;
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.seq == ticket.seq) {
            e.ready = false;
        }
        self.ready_order.retain(|&s| s != ticket.seq);
    }

    /// Releases the **newest** parked entry (LIFO), so a full drain observes
    /// completions in reverse submission order. Returns false when nothing
    /// is parked.
    pub fn release_newest(&mut self) -> bool {
        let Some(e) = self
            .entries
            .iter_mut()
            .filter(|e| !e.ready)
            .max_by_key(|e| e.seq)
        else {
            return false;
        };
        e.ready = true;
        let seq = e.seq;
        self.ready_order.push(seq);
        true
    }

    /// Releases every parked entry, newest first.
    pub fn release_all(&mut self) {
        while self.release_newest() {}
    }

    /// Moves every ready entry into `out` (in the order they became ready)
    /// and removes it from the queue.
    pub fn drain_ready(&mut self, out: &mut Vec<Completion>) {
        for i in 0..self.ready_order.len() {
            let seq = self.ready_order[i];
            let idx = self
                .entries
                .iter()
                .position(|e| e.seq == seq)
                .expect("ready entry exists");
            let mut entry = self.entries.swap_remove(idx);
            out.push(Completion {
                ticket: SubmitTicket {
                    queue: self.id,
                    seq,
                },
                result: entry.result.take().expect("result recorded at submit"),
            });
        }
        self.ready_order.clear();
    }
}

impl Default for SubmitQueue {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// Idle queues of [`with_thread_queue`], one per nesting level in use: a
    /// retry tier holds one while the router below it takes another.
    static THREAD_QUEUES: RefCell<Vec<(SubmitQueue, Vec<Completion>)>> =
        const { RefCell::new(Vec::new()) };
}

/// Runs `f` with an empty queue and completion buffer of the calling
/// thread's. They are reused across calls — a nested call takes a second
/// pair — so a tier that submits costs no allocation once its thread is
/// warm. Whatever `f` leaves in them is discarded.
pub fn with_thread_queue<T>(f: impl FnOnce(&mut SubmitQueue, &mut Vec<Completion>) -> T) -> T {
    let (mut q, mut done) = THREAD_QUEUES
        .with(|idle| idle.borrow_mut().pop())
        .unwrap_or_default();
    let out = f(&mut q, &mut done);
    q.reset();
    done.clear();
    THREAD_QUEUES.with(|idle| idle.borrow_mut().push((q, done)));
    out
}

/// Writes `bufs` at `offset` through `store`'s submission API and returns
/// the write's result — the byte count, or the error — as soon as the store
/// reports it: it polls first, and waits only if the store parks the
/// completion (as `FaultyStore` may).
///
/// This is how a tier that must see each write's outcome before it goes on
/// (a retry, a replica fan-out) still issues the write as a submission: the
/// transport cost lands on a queue-depth lane of the store below rather than
/// on its serial frontier, so the tier's caller overlaps consecutive writes
/// and pays for them at its own `wait_completions`. A poll is no barrier; a
/// fallback wait is one, on `store` only.
pub fn write_submitted<S: ObjectStore + ?Sized>(
    store: &S,
    name: &str,
    offset: u64,
    bufs: &[IoSlice<'_>],
) -> Result<usize> {
    with_thread_queue(|q, done| {
        let ticket = store.submit_write_vectored(q, name, offset, bufs);
        store.poll_completions(q, done);
        if !done.iter().any(|c| c.ticket == ticket) {
            store.wait_completions(q, done);
        }
        match done.iter().position(|c| c.ticket == ticket) {
            Some(i) => done.swap_remove(i).result,
            None => Err(StorageError::Backend {
                name: name.to_string(),
                detail: format!(
                    "store withheld the completion of a {}-byte write",
                    iovec::total_len(bufs)
                ),
            }),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_completions_drain_in_submit_order() {
        let mut q = SubmitQueue::new();
        let t1 = q.complete_now(Ok(1));
        let t2 = q.complete_now(Ok(2));
        assert_eq!(q.in_flight(), 2);
        let mut out = Vec::new();
        q.drain_ready(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].ticket, t1);
        assert_eq!(out[1].ticket, t2);
        assert_eq!(q.in_flight(), 0);
    }

    #[test]
    fn deferred_completions_release_lifo() {
        let mut q = SubmitQueue::new();
        let t1 = q.complete_deferred(Ok(1));
        let t2 = q.complete_deferred(Ok(2));
        let t3 = q.complete_deferred(Ok(3));
        let mut out = Vec::new();
        q.drain_ready(&mut out);
        assert!(out.is_empty(), "parked entries must not drain");
        q.release_all();
        q.drain_ready(&mut out);
        let order: Vec<SubmitTicket> = out.iter().map(|c| c.ticket).collect();
        assert_eq!(order, vec![t3, t2, t1], "release is newest-first");
    }

    #[test]
    fn release_one_at_a_time_interleaves() {
        let mut q = SubmitQueue::new();
        let t1 = q.complete_deferred(Ok(1));
        let t2 = q.complete_deferred(Ok(2));
        assert!(q.release_newest());
        let mut out = Vec::new();
        q.drain_ready(&mut out);
        assert_eq!(out[0].ticket, t2);
        assert!(q.release_newest());
        q.drain_ready(&mut out);
        assert_eq!(out[1].ticket, t1);
        assert!(!q.release_newest());
    }

    #[test]
    fn defer_reparks_a_ready_entry() {
        let mut q = SubmitQueue::new();
        let t = q.complete_now(Ok(9));
        q.defer(t);
        let mut out = Vec::new();
        q.drain_ready(&mut out);
        assert!(out.is_empty());
        q.release_all();
        q.drain_ready(&mut out);
        assert_eq!(out[0].ticket, t);
        assert!(matches!(out[0].result, Ok(9)));
    }

    #[test]
    fn tickets_from_distinct_queues_differ() {
        let mut a = SubmitQueue::new();
        let mut b = SubmitQueue::new();
        assert_ne!(a.complete_now(Ok(0)), b.complete_now(Ok(0)));
    }

    use crate::profile::StorageProfile;
    use crate::{DedupStore, IoCounters};
    use std::io::IoSliceMut;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    /// A store that parks every completion and whose poll releases none of
    /// them (the trait default), counting its `wait_completions` calls.
    /// `withhold` makes it record no completion at all.
    struct Parking {
        inner: DedupStore,
        waits: AtomicUsize,
        withhold: bool,
    }

    impl Parking {
        fn new(withhold: bool) -> Self {
            let inner = DedupStore::new(4096, StorageProfile::nfs_1gbe());
            inner.create("f").unwrap();
            Parking {
                inner,
                waits: AtomicUsize::new(0),
                withhold,
            }
        }
    }

    impl ObjectStore for Parking {
        fn create(&self, name: &str) -> Result<()> {
            self.inner.create(name)
        }
        fn exists(&self, name: &str) -> bool {
            self.inner.exists(name)
        }
        fn read_into_vectored(
            &self,
            name: &str,
            offset: u64,
            bufs: &mut [IoSliceMut<'_>],
        ) -> Result<usize> {
            self.inner.read_into_vectored(name, offset, bufs)
        }
        fn write_at_vectored(&self, name: &str, offset: u64, bufs: &[IoSlice<'_>]) -> Result<()> {
            self.inner.write_at_vectored(name, offset, bufs)
        }
        fn submit_write_vectored(
            &self,
            q: &mut SubmitQueue,
            name: &str,
            offset: u64,
            bufs: &[IoSlice<'_>],
        ) -> SubmitTicket {
            let ticket = self.inner.submit_write_vectored(q, name, offset, bufs);
            if self.withhold {
                q.reset();
            } else {
                q.defer(ticket);
            }
            ticket
        }
        fn wait_completions(&self, q: &mut SubmitQueue, out: &mut Vec<Completion>) {
            self.waits.fetch_add(1, Ordering::Relaxed);
            q.release_all();
            self.inner.wait_completions(q, out);
        }
        fn len(&self, name: &str) -> Result<u64> {
            self.inner.len(name)
        }
        fn truncate(&self, name: &str, len: u64) -> Result<()> {
            self.inner.truncate(name, len)
        }
        fn remove(&self, name: &str) -> Result<()> {
            self.inner.remove(name)
        }
        fn rename(&self, from: &str, to: &str) -> Result<()> {
            self.inner.rename(from, to)
        }
        fn list(&self) -> Vec<String> {
            self.inner.list()
        }
        fn flush(&self, name: &str) -> Result<()> {
            self.inner.flush(name)
        }
        fn io_time(&self) -> Duration {
            self.inner.io_time()
        }
        fn io_counters(&self) -> IoCounters {
            self.inner.io_counters()
        }
        fn reset_io_accounting(&self) {
            self.inner.reset_io_accounting()
        }
    }

    #[test]
    fn submitted_writes_share_the_lanes_until_a_wait() {
        let nfs = StorageProfile::nfs_1gbe();
        let store = DedupStore::new(4096, nfs);
        store.create("f").unwrap();
        let start = store.io_time();
        let block = [7u8; 4096];
        // Nine 4 KiB writes on a depth-8 channel: two round trips of lanes,
        // not nine serial ones, and no barrier until the caller waits.
        for i in 0..9 {
            let n = write_submitted(&store, "f", i * 4096, &[IoSlice::new(&block)]);
            assert_eq!(n, Ok(4096));
        }
        assert_eq!(store.io_time() - start, nfs.write_cost(4096) * 2);
        assert_eq!(store.io_counters().write_ops, 9);
        assert_eq!(store.read_at("f", 8 * 4096, 4096).unwrap(), block);
        // Errors come back as the result, not as a panic or a lost write.
        assert!(matches!(
            write_submitted(&store, "missing", 0, &[IoSlice::new(&block)]),
            Err(StorageError::NotFound { .. })
        ));
    }

    #[test]
    fn a_parked_completion_is_awaited_and_a_withheld_one_is_an_error() {
        let parked = Parking::new(false);
        let data = [3u8; 100];
        for i in 0..3 {
            let n = write_submitted(&parked, "f", i * 100, &[IoSlice::new(&data)]);
            assert_eq!(n, Ok(100));
        }
        assert_eq!(
            parked.waits.load(Ordering::Relaxed),
            3,
            "one wait per parked write"
        );
        assert_eq!(parked.inner.read_at("f", 200, 100).unwrap(), data);

        let withheld = Parking::new(true);
        let err = write_submitted(&withheld, "f", 0, &[IoSlice::new(&data)]).unwrap_err();
        assert!(matches!(err, StorageError::Backend { .. }), "{err}");
    }

    #[test]
    fn thread_queues_nest_and_are_reused() {
        let ids = |q: &mut SubmitQueue| q.complete_now(Ok(0)).queue;
        let (outer, inner) = with_thread_queue(|q, _| (ids(q), with_thread_queue(|q, _| ids(q))));
        assert_ne!(outer, inner, "a nested call takes a queue of its own");
        // Warm: the same two queues come back, emptied.
        let again = with_thread_queue(|q, done| {
            assert_eq!((q.in_flight(), done.len()), (0, 0));
            (ids(q), with_thread_queue(|q, _| ids(q)))
        });
        let mut warm = [again.0, again.1];
        let mut first = [outer, inner];
        warm.sort_unstable();
        first.sort_unstable();
        assert_eq!(warm, first);
    }

    #[test]
    fn reset_keeps_sequence_monotonic() {
        let mut q = SubmitQueue::new();
        let t1 = q.complete_now(Ok(0));
        q.reset();
        let t2 = q.complete_now(Ok(0));
        assert_ne!(t1, t2);
        assert_eq!(q.in_flight(), 1);
    }
}
