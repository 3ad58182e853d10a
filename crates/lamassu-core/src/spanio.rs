//! The span-I/O driver: the one place a planned span is *moved*.
//!
//! Every shim turns a byte range into runs of physically contiguous whole
//! blocks and then has to do the same five things with them: stage the
//! partially covered edge blocks, issue one vectored backend operation per
//! run, match completions back to runs, keep the error a blocking loop would
//! have hit first, and close with the transport barrier. [`SpanIo`] owns all
//! of that and nothing about what the bytes *mean*: a shim supplies its runs
//! and a `finish` closure (its codec — decrypt, integrity check, hole
//! convention) and gets each landed run back as a [`Landed`].
//!
//! **One I/O path.** Every operation is submitted to the store's completion
//! queue, and its result — byte count *or* deferred fault — surfaces only
//! through the drained [`Completion`]. There is no blocking mode: a store
//! that implements only the required `ObjectStore` methods runs each
//! submission as the blocking call and completes it at once (the trait's
//! provided `submit_*`), and that is the reference the differential tests
//! hold this driver to — the same pipeline, minus the queue.
//!
//! That holds for **every** byte a shim moves, not only a span's: a metadata
//! block, a header, a re-key's re-seal and each block of the per-block paths
//! is one [`SpanIo::read_one`] / [`SpanIo::write_one`], a round trip closed
//! by its own barrier. [`SpanIo`] does not lend out its store. Outside this
//! module a shim reaches it only through those calls, the span pipeline and
//! the named namespace calls (`create`, `remove`, `exists`, `list`, `len`,
//! `truncate`, `flush`, `rename`). The namespace calls are the only store
//! calls that do not go through the completion queue. A lone round trip is
//! issued on a quiescent channel: after the previous barrier and before a
//! batch opens. There a submission followed by its barrier costs exactly
//! what the blocking call would have cost.
//!
//! **Ownership of submitted buffers.** A store moves the data during submit,
//! but a submitted buffer is unreadable until its completion has been
//! drained. Nothing outside this module can break that rule: the staged edges
//! of a submitted run live in the private pending table, and shim code sees
//! them — and the run's share of the caller's buffer — only through the
//! [`Landed`] handed to `finish` once the completion has landed.
//!
//! **Errors.** A blocking loop stops at its first failing run, so of several
//! failing runs the **earliest** one's error wins, whatever order completions
//! arrive in. Nothing stays in flight past an exit: staged edges return to
//! the [`BlockPool`], every submission is drained at a barrier, and a
//! completion the store never delivers (or one that answers no submission)
//! is an error, not a short read.

use crate::handles::FdEntry;
use crate::iovec;
use crate::pool::{with_tls, BlockBuf, BlockPool};
use crate::profiler::{Category, Profiler};
use crate::span::SpanPlan;
use crate::{FsError, Result};
use lamassu_storage::{Completion, ObjectStore, StorageError, SubmitQueue, SubmitTicket};
use lamassu_telemetry::{OpGuard, OpKind};
use std::cell::RefCell;
use std::io::{IoSlice, IoSliceMut};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// The thread's submission queue, completion staging and pending-run
    /// table. Thread-local because the read paths hold only a shared file
    /// borrow, reused so a warm span allocates nothing.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

#[derive(Default)]
struct Scratch {
    queue: SubmitQueue,
    completions: Vec<Completion>,
    pending: Vec<(SubmitTicket, Staged)>,
}

/// One physically contiguous run of whole blocks within a planned span.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    /// First logical block of the run.
    pub(crate) first: u64,
    /// Number of blocks.
    pub(crate) blocks: usize,
    /// Physical byte offset of the first block in the backing object.
    pub(crate) offset: u64,
    /// Shim-defined: whatever `finish` needs to find the run's codec state
    /// (LamassuFS: the index of the run's first key).
    pub(crate) tag: usize,
}

/// A run whose read has landed, as `finish` sees it: `n` bytes arrived, in
/// order, in `head` (a staged whole block, present when the plan covers the
/// run's first block only partially), `mid` (the fully covered blocks, in
/// place in the caller's buffer) and `tail` (like `head`, for the last
/// block). `finish` leaves plaintext in all three; the driver copies the
/// requested fragments of the edges out.
pub(crate) struct Landed<'a> {
    pub(crate) n: usize,
    pub(crate) head: Option<&'a mut [u8]>,
    pub(crate) mid: &'a mut [u8],
    pub(crate) tail: Option<&'a mut [u8]>,
}

/// A run with its edge staging: what the pending table holds while the run's
/// read is in flight.
struct Staged {
    run: Run,
    head: Option<BlockBuf>,
    tail: Option<BlockBuf>,
    /// The run's fully covered blocks within the caller's buffer.
    mid: Range<usize>,
}

impl Staged {
    /// Only the plan's first and last block can be partially covered; a run
    /// that contains one stages it through a pooled block so the backend
    /// still moves whole blocks.
    fn new(pool: &BlockPool, plan: &SpanPlan, run: Run) -> Self {
        let head = !plan.is_full(run.first);
        let tail = run.blocks > 1 && !plan.is_full(run.first + run.blocks as u64 - 1);
        let mid_blocks = run.blocks - head as usize - tail as usize;
        let mid_start = match mid_blocks {
            0 => 0,
            _ => plan.buf_range(run.first + head as u64).start,
        };
        Staged {
            run,
            head: head.then(|| pool.take()),
            tail: tail.then(|| pool.take()),
            mid: mid_start..mid_start + mid_blocks * plan.block_size,
        }
    }

    /// Hands the landed run to `finish`, then copies the requested fragments
    /// of the staged edges into the caller's buffer. Dropping `self` returns
    /// the edges to the pool.
    fn land(
        mut self,
        result: lamassu_storage::Result<usize>,
        plan: &SpanPlan,
        buf: &mut [u8],
        finish: &mut impl FnMut(&Run, Landed<'_>) -> Result<()>,
    ) -> Result<()> {
        let landed = Landed {
            n: result?,
            head: self.head.as_deref_mut(),
            mid: &mut buf[self.mid.clone()],
            tail: self.tail.as_deref_mut(),
        };
        finish(&self.run, landed)?;
        let last = self.run.first + self.run.blocks as u64 - 1;
        for (stage, block) in [(&self.head, self.run.first), (&self.tail, last)] {
            if let Some(stage) = stage {
                let (in_block, take) = plan.span_of(block);
                buf[plan.buf_range(block)].copy_from_slice(&stage[in_block..in_block + take]);
            }
        }
        Ok(())
    }
}

/// One vectored backend operation.
enum Op<'a, 'b> {
    Read(&'a mut [IoSliceMut<'b>]),
    Write(&'a [IoSlice<'b>]),
}

/// Keeps `e` unless an error with an earlier key — a run's first block, a
/// write's ticket — is already held.
fn keep_earliest<K: Ord, E>(held: &mut Option<(K, E)>, key: K, e: E) {
    if held.as_ref().is_none_or(|(k, _)| key < *k) {
        *held = Some((key, e));
    }
}

/// One mount's handle on its backing store: metering, and the span pipeline
/// built on it (see the module docs). Nominally `pub` only because the
/// sealed engine trait of [`crate::mount`] names it; the module is private,
/// so nothing outside the crate can.
pub struct SpanIo {
    store: Arc<dyn ObjectStore>,
    profiler: Arc<Profiler>,
}

impl SpanIo {
    pub(crate) fn new(store: Arc<dyn ObjectStore>, profiler: Arc<Profiler>) -> Self {
        SpanIo { store, profiler }
    }

    /// Charges a store call — wall time plus the virtual transport time it
    /// advanced — to `cat`. Issuing an operation is [`Category::Io`] (for a
    /// submission: the makespan growth it adds to its channel), waiting for
    /// completions is [`Category::Queue`], so the Figure 9 breakdown
    /// separates transport from submission-queue stalls.
    fn meter<T>(&self, cat: Category, f: impl FnOnce() -> T) -> T {
        let virt_before = self.store.io_time();
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed() + self.store.io_time().saturating_sub(virt_before);
        self.profiler.add(cat, elapsed);
        out
    }

    /// One namespace call — the only store calls outside the driver's
    /// submit/complete path — charged to the I/O category.
    fn namespace<T>(
        &self,
        f: impl FnOnce(&dyn ObjectStore) -> lamassu_storage::Result<T>,
    ) -> Result<T> {
        self.meter(Category::Io, || f(&*self.store))
            .map_err(FsError::from)
    }

    /// Uncharged namespace lookups.
    pub(crate) fn exists(&self, name: &str) -> bool {
        self.store.exists(name)
    }

    pub(crate) fn list(&self) -> Vec<String> {
        self.store.list()
    }

    /// Creates the object `name`; one that already exists is the file
    /// system's [`FsError::AlreadyExists`], not a storage error.
    pub(crate) fn create(&self, name: &str) -> Result<()> {
        self.namespace(|s| s.create(name)).map_err(|e| match e {
            FsError::Storage(StorageError::AlreadyExists { name }) => {
                FsError::AlreadyExists { path: name }
            }
            other => other,
        })
    }

    /// Removes the object `name`; a missing one is [`FsError::NotFound`].
    pub(crate) fn remove(&self, name: &str) -> Result<()> {
        self.namespace(|s| s.remove(name)).map_err(|e| match e {
            FsError::Storage(StorageError::NotFound { name }) => FsError::NotFound { path: name },
            other => other,
        })
    }

    /// The object's length on the media.
    pub(crate) fn len(&self, name: &str) -> Result<u64> {
        self.namespace(|s| s.len(name))
    }

    /// Cuts or extends the object to `len` bytes.
    pub(crate) fn truncate(&self, name: &str, len: u64) -> Result<()> {
        self.namespace(|s| s.truncate(name, len))
    }

    /// Asks the store to make the object durable.
    pub(crate) fn flush(&self, name: &str) -> Result<()> {
        self.namespace(|s| s.flush(name))
    }

    /// Renames an object, replacing any object at `to`.
    pub(crate) fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.namespace(|s| s.rename(from, to))
    }

    /// The mount's profiler.
    pub(crate) fn profiler(&self) -> &Arc<Profiler> {
        &self.profiler
    }

    /// Opens a telemetry op span on the descriptor's file when a tracer is
    /// attached to the mount's profiler (see `Profiler::attach_tracer`).
    /// Allocation-free on the hot path: the path tag is an `Arc<str>`
    /// refcount bump plus a fixed-buffer copy, and the guard records into
    /// preallocated rings on drop.
    pub(crate) fn op_span<S>(
        &self,
        kind: OpKind,
        entry: &FdEntry<S>,
        bytes: usize,
    ) -> Option<OpGuard<'_>> {
        let tracer = self.profiler.tracer()?;
        Some(tracer.op(kind, &entry.path(), bytes as u64))
    }

    /// Submits one operation; its result arrives with the ticket's
    /// completion.
    fn issue(&self, q: &mut SubmitQueue, name: &str, offset: u64, op: Op<'_, '_>) -> SubmitTicket {
        let ticket = self.meter(Category::Io, || match op {
            Op::Read(bufs) => self.store.submit_read_vectored(q, name, offset, bufs),
            Op::Write(bufs) => self.store.submit_write_vectored(q, name, offset, bufs),
        });
        self.profiler.ops_submitted(1);
        ticket
    }

    fn lost(name: &str, detail: &str) -> FsError {
        FsError::Storage(StorageError::Backend {
            name: name.to_string(),
            detail: detail.to_string(),
        })
    }

    /// The transport barrier: waits for everything still in flight on the
    /// thread's queue and returns the bytes those operations moved, or the
    /// error of the earliest submission among them (tickets are issued in
    /// increasing order). Also raises the channel's blocking frontier past
    /// the last submission, so it runs even when every completion already
    /// arrived through a poll. Nothing is in flight afterwards: a completion
    /// the store still holds back is given up on and reported.
    fn barrier(&self, s: &mut Scratch, name: &str) -> Result<usize> {
        let (q, landed) = (&mut s.queue, &mut s.completions);
        self.meter(Category::Queue, || self.store.wait_completions(q, landed));
        let withheld = s.queue.in_flight();
        s.queue.reset();
        self.profiler
            .ops_completed((s.completions.len() + withheld) as u64);
        let mut moved = 0;
        let mut first_err = None;
        for c in s.completions.drain(..) {
            match c.result {
                Ok(n) => moved += n,
                Err(e) => keep_earliest(&mut first_err, c.ticket, e),
            }
        }
        match first_err {
            Some((_, e)) => Err(e.into()),
            None if withheld > 0 => Err(Self::lost(name, "store withheld a completion")),
            None => Ok(moved),
        }
    }

    /// Reads the `runs` of a planned span into `buf`, one vectored backend
    /// operation per run, and hands each landed run to `finish`.
    ///
    /// Every run is submitted before any completion is drained, so up to `StorageProfile.queue_depth` reads overlap and
    /// `finish` (the crypto) of early runs overlaps the transport of later
    /// ones; completions are served in whatever order the store releases
    /// them, matched by ticket, never by position.
    pub(crate) fn read_runs(
        &self,
        pool: &BlockPool,
        name: &str,
        plan: &SpanPlan,
        runs: impl IntoIterator<Item = Run>,
        buf: &mut [u8],
        mut finish: impl FnMut(&Run, Landed<'_>) -> Result<()>,
    ) -> Result<()> {
        with_tls(&SCRATCH, |s| {
            s.queue.reset();
            s.pending.clear();
            for run in runs {
                let mut staged = Staged::new(pool, plan, run);
                let ticket = iovec::with_scatter3(
                    staged.head.as_deref_mut(),
                    &mut buf[staged.mid.clone()],
                    staged.tail.as_deref_mut(),
                    |bufs| self.issue(&mut s.queue, name, run.offset, Op::Read(bufs)),
                );
                s.pending.push((ticket, staged));
            }
            let submitted = !s.pending.is_empty();
            let mut failed: Option<(u64, FsError)> = None;
            while !s.pending.is_empty() {
                let (q, landed) = (&mut s.queue, &mut s.completions);
                self.meter(Category::Queue, || {
                    self.store.poll_completions(q, landed);
                    if landed.is_empty() {
                        self.store.wait_completions(q, landed);
                    }
                });
                self.profiler.ops_completed(landed.len() as u64);
                let outstanding = s.pending.len();
                for c in landed.drain(..) {
                    let Some(i) = s.pending.iter().position(|(t, _)| *t == c.ticket) else {
                        continue;
                    };
                    let (_, staged) = s.pending.swap_remove(i);
                    let first = staged.run.first;
                    if let Err(e) = staged.land(c.result, plan, buf, &mut finish) {
                        keep_earliest(&mut failed, first, e);
                    }
                }
                if s.pending.len() == outstanding {
                    // A wait that completes none of the outstanding runs —
                    // it yielded nothing, or tickets that answer no
                    // submission — means the store lost them.
                    let e = Self::lost(name, "store dropped an in-flight completion");
                    keep_earliest(&mut failed, u64::MAX, e);
                    break;
                }
            }
            s.pending.clear();
            let drained = if submitted {
                self.barrier(s, name).map(drop)
            } else {
                Ok(())
            };
            failed.map_or(drained, |(_, e)| Err(e))
        })
    }

    /// One vectored read as a single round trip: a metadata block, a
    /// header, one block of the per-block paths, or the one-run span of a
    /// shim with no blocks to stage (PlainFS, the CE-file loader). It goes
    /// through the whole submit/complete contract — deferred faults, the
    /// queue-depth lanes — at exactly one round trip, which keeps PlainFS
    /// flat across queue depths.
    pub(crate) fn read_one(
        &self,
        name: &str,
        offset: u64,
        bufs: &mut [IoSliceMut<'_>],
    ) -> Result<usize> {
        self.round_trip(name, offset, Op::Read(bufs))
    }

    /// Runs `f` with a [`WriteBatch`] on the object `name` and closes it with
    /// a barrier on **every** exit: a batch never ends — not even through an
    /// early error return of `f` — with a submission in flight. The writes
    /// were issued before whatever made `f` fail, so an error they complete
    /// with is the earlier one and wins.
    pub(crate) fn write_batch<T>(
        &self,
        name: &str,
        f: impl FnOnce(&mut WriteBatch<'_>) -> Result<T>,
    ) -> Result<T> {
        with_tls(&SCRATCH, |s| {
            s.queue.reset();
            let mut batch = WriteBatch { io: self, s, name };
            let out = f(&mut batch);
            batch.barrier().and(out)
        })
    }

    /// One vectored write as a single round trip (see [`SpanIo::read_one`]).
    pub(crate) fn write_one(&self, name: &str, offset: u64, bufs: &[IoSlice<'_>]) -> Result<()> {
        self.round_trip(name, offset, Op::Write(bufs)).map(drop)
    }

    /// Issues `op` and waits for it. Only outside an open span or batch: its
    /// channel is then quiescent, so its modelled cost is the blocking
    /// call's. Inside one it would run on a fresh queue — an allocation, and
    /// a barrier that drains the batch's lanes — so that is a bug.
    fn round_trip(&self, name: &str, offset: u64, op: Op<'_, '_>) -> Result<usize> {
        debug_assert!(
            SCRATCH.with(|c| c.try_borrow_mut().is_ok()),
            "a lone round trip issued inside an open span or batch"
        );
        with_tls(&SCRATCH, |s| {
            s.queue.reset();
            self.issue(&mut s.queue, name, offset, op);
            self.barrier(s, name)
        })
    }
}

/// The write side of the driver: writes to one object, grouped into phases
/// by [`WriteBatch::barrier`] (see [`SpanIo::write_batch`]).
pub(crate) struct WriteBatch<'a> {
    io: &'a SpanIo,
    s: &'a mut Scratch,
    name: &'a str,
}

impl WriteBatch<'_> {
    /// Issues one vectored write. It cannot fail here — its result,
    /// including an injected fault, surfaces at the next barrier. The store
    /// has copied the bytes out by the time this returns, so the caller may
    /// reuse `bufs`.
    pub(crate) fn write(&mut self, offset: u64, bufs: &[IoSlice<'_>]) {
        self.io
            .issue(&mut self.s.queue, self.name, offset, Op::Write(bufs));
    }

    /// Closes a phase: every write issued since the last barrier has landed
    /// when this returns `Ok`; of several failures the earliest write's is
    /// returned, as a blocking loop would have stopped there.
    pub(crate) fn barrier(&mut self) -> Result<()> {
        if self.s.queue.in_flight() == 0 {
            return Ok(());
        }
        self.io.barrier(self.s, self.name).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanPlanner;
    use lamassu_storage::{DedupStore, FaultyStore, StorageProfile};

    const BS: usize = 64;
    const NAME: &str = "/obj";

    /// The toy codec: ciphertext is plaintext XOR 0x5a.
    fn xor(bytes: &mut [u8]) {
        bytes.iter_mut().for_each(|b| *b ^= 0x5a);
    }

    fn plain(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    struct Rig {
        /// Parks every completion and releases them newest-first.
        store: Arc<FaultyStore>,
        pool: BlockPool,
        profiler: Arc<Profiler>,
        io: SpanIo,
    }

    /// A store holding `blocks` XOR-encrypted blocks of [`plain`] under
    /// [`NAME`] (block `b` at offset `b * BS`) and a driver over it.
    fn rig(blocks: usize) -> Rig {
        let media = Arc::new(DedupStore::new(BS, StorageProfile::instant()));
        let mut cipher = plain(blocks * BS);
        xor(&mut cipher);
        media.create(NAME).unwrap();
        media.write_at(NAME, 0, &cipher).unwrap();
        let store = Arc::new(FaultyStore::new(media));
        let pool = BlockPool::new(BS, 8);
        drop([pool.take(), pool.take()]);
        let profiler = Profiler::new();
        let io = SpanIo::new(store.clone(), profiler.clone());
        Rig {
            store,
            pool,
            profiler,
            io,
        }
    }

    impl Rig {
        /// Reads `len` bytes at `offset` as the given `(first block, blocks)`
        /// runs, and checks what every exit path owes: the staged edges are
        /// back in the pool and nothing is left in flight.
        fn read(
            &self,
            (offset, len): (u64, usize),
            runs: &[(u64, usize)],
            finish: impl FnMut(&Run, Landed<'_>) -> Result<()>,
        ) -> (Result<()>, Vec<u8>) {
            let pooled = self.pool.pooled();
            let plan = SpanPlanner::new(BS).plan(offset, len);
            let mut buf = vec![0xee; len];
            let runs = runs.iter().map(|&(first, blocks)| Run {
                first,
                blocks,
                offset: first * BS as u64,
                tag: 0,
            });
            let out = self
                .io
                .read_runs(&self.pool, NAME, &plan, runs, &mut buf, finish);
            assert_eq!(self.pool.pooled(), pooled, "edges back in the pool");
            assert_eq!(self.profiler.in_flight_ops(), 0);
            (out, buf)
        }

        /// Bytes 10..650 — blocks 0..=10, both edge blocks staged — as three
        /// runs starting at blocks 0, 4 and 7.
        fn read3(&self, finish: impl FnMut(&Run, Landed<'_>) -> Result<()>) -> Result<Vec<u8>> {
            let (out, buf) = self.read((10, 640), &[(0, 4), (4, 3), (7, 4)], finish);
            out.map(|()| buf)
        }
    }

    #[test]
    fn misaligned_span_round_trips() {
        let buf = rig(12).read3(|_, l| {
            l.head
                .into_iter()
                .chain([l.mid])
                .chain(l.tail)
                .for_each(xor);
            Ok(())
        });
        assert_eq!(buf.unwrap(), plain(12 * BS)[10..650]);
    }

    #[test]
    fn earliest_failing_run_wins_whatever_order_completions_land_in() {
        let mut order = Vec::new();
        let out = rig(12).read3(|run, _| {
            order.push(run.first);
            match run.first {
                0 => Ok(()),
                _ => Err(FsError::BadFd { fd: run.first }),
            }
        });
        // Newest-first release: run 7's failure is seen before run 4's.
        assert_eq!(order, [7, 4, 0]);
        assert_eq!(out, Err(FsError::BadFd { fd: 4 }));

        // A codec failure of run 0 also beats a store fault of a later run.
        // Run 0 costs two read credits (head + middle), run 4 one; the store
        // crashes inside run 7, whose completion lands first.
        let rig = rig(12);
        rig.store.crash_after_reads(3);
        let out = rig.read3(|run, _| match run.first {
            0 => Err(FsError::BadFd { fd: 0 }),
            _ => Ok(()),
        });
        assert_eq!(out, Err(FsError::BadFd { fd: 0 }));
        assert!(rig.store.has_crashed());
    }

    #[test]
    fn short_read_reports_the_true_byte_count() {
        // The object ends after block 4; one run asks for blocks 2..=7 (the
        // last one staged), so 3 of its 6 blocks arrive.
        let mut seen = None;
        let (out, buf) = rig(5).read((2 * BS as u64, 5 * BS + 7), &[(2, 6)], |_, landed| {
            let Landed { n, mid, tail, .. } = landed;
            seen = Some((n, mid.len()));
            xor(&mut mid[..n]);
            mid[n..].fill(0);
            tail.expect("staged").fill(0);
            Ok(())
        });
        out.unwrap();
        assert_eq!(seen, Some((3 * BS, 5 * BS)));
        assert_eq!(buf[..3 * BS], plain(5 * BS)[2 * BS..]);
        assert!(buf[3 * BS..].iter().all(|&b| b == 0));
    }

    #[test]
    fn write_batch_drains_on_an_early_error_exit() {
        let rig = rig(4);
        let block = [7u8; BS];
        // What a failed encrypt of EncFS's next chunk does:
        // leave with a write still submitted.
        let out = rig.io.write_batch(NAME, |w| {
            w.write(0, &[IoSlice::new(&block)]);
            Err::<(), _>(FsError::BadFd { fd: 1 })
        });
        assert_eq!(out, Err(FsError::BadFd { fd: 1 }));
        // The store parks the completion until a barrier releases it.
        SCRATCH.with(|s| assert_eq!(s.borrow().queue.in_flight(), 0));
        assert_eq!(rig.profiler.in_flight_ops(), 0);
        let barriers = rig.profiler.category_histogram(Category::Queue).count;
        assert_eq!(barriers, 1, "exactly one barrier");

        // A write that fails at the barrier was issued before whatever made
        // the body fail, so its error is the one reported.
        rig.store.crash_after_writes(1);
        let out = rig.io.write_batch(NAME, |w| {
            w.write(0, &[IoSlice::new(&block)]);
            w.write(BS as u64, &[IoSlice::new(&block)]);
            Err::<(), _>(FsError::BadFd { fd: 2 })
        });
        assert_eq!(out, Err(FsError::Storage(StorageError::Crashed)));
        assert_eq!(rig.profiler.in_flight_ops(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "inside an open span or batch")]
    fn a_lone_round_trip_inside_a_batch_is_a_bug() {
        let rig = rig(1);
        let block = [7u8; BS];
        let _ = rig
            .io
            .write_batch(NAME, |_| rig.io.write_one(NAME, 0, &[IoSlice::new(&block)]));
    }

    #[test]
    fn single_round_trips_surface_deferred_faults() {
        let rig = rig(4);
        let mut back = [0u8; 2 * BS];
        let bufs = &mut [IoSliceMut::new(&mut back)];
        assert_eq!(rig.io.read_one(NAME, BS as u64, bufs), Ok(2 * BS));
        xor(&mut back);
        assert_eq!(back, plain(4 * BS)[BS..3 * BS]);
        rig.store.crash_after_writes(0);
        let out = rig.io.write_one(NAME, 0, &[IoSlice::new(&back)]);
        assert_eq!(out, Err(StorageError::Crashed.into()));
        assert_eq!(rig.profiler.in_flight_ops(), 0);
    }
}
