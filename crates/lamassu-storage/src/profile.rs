//! Storage transport profiles and the virtual I/O clock.
//!
//! The paper evaluates two backing configurations: a NetApp filer reached
//! over NFS v3 on 1 Gb Ethernet (Figure 7) and a local RAM disk (`tmpfs`,
//! Figure 8). The qualitative difference between the two figures is entirely
//! about *where the bottleneck sits*: over NFS, network I/O dominates and all
//! four file systems read at nearly the same speed; on the RAM disk, the CPU
//! cost of SHA-256 and AES becomes visible and separates them.
//!
//! We reproduce that by charging every backend operation to a **virtual
//! clock**: `cost = per_op_latency + transferred_bytes / bandwidth`. The
//! benchmark harness reports `compute_time (measured) + io_time (virtual)`,
//! which preserves the paper's bottleneck structure without real hardware.
//!
//! # Concurrency-aware transport modelling
//!
//! A real filer serves many in-flight requests at once, so N clients issuing
//! N round trips concurrently do *not* wait N times the single-client
//! latency. [`SimClock`] models that with **per-channel accumulators**: the
//! profile's [`StorageProfile::parallelism`] width says how many independent
//! request channels the backend offers, every OS thread is pinned to one
//! channel, and each operation's cost accumulates on the issuing thread's
//! channel only. [`SimClock::elapsed`] is the *makespan* — the busiest
//! channel's total — so N concurrent round trips on an N-wide backend cost
//! one round trip of modelled time, while a single thread (which stays on one
//! channel) still pays the full serial sum, keeping the paper's single-job
//! Figures 7/8 shapes intact. Operation/byte counters are plain atomics and
//! stay exact under any interleaving.
//!
//! # Queue-depth lanes (submission/completion model)
//!
//! Blocking charges serialize on the issuing thread's channel: each op starts
//! where the previous one ended. The submit API
//! ([`SimClock::submit_read`] / [`SimClock::submit_write`]) instead schedules
//! the op onto one of the channel's [`StorageProfile::queue_depth`] **lanes**
//! — the earliest-free lane, starting no earlier than the channel's serial
//! frontier — so up to `queue_depth` submissions from *one* thread overlap in
//! virtual time, exactly like keeping an io_uring ring of that depth full.
//! Submissions beyond the depth queue behind the earliest-finishing lane.
//! [`SimClock::drain`] is the completion barrier: it raises the channel's
//! serial frontier to the latest lane, so subsequent blocking ops (or the
//! next submission batch) cannot start before every drained submission has
//! finished. `busy_time()` counts the charged cost of every op exactly once,
//! submitted or blocking, in whatever order completions are observed.
//!
//! Every lane carries the profile's full bandwidth, so a bulk submission is
//! an optimistic bound: `queue_depth` overlapping transfers each move at
//! the link's rate, where a real link shares it. That is exact for round
//! trips of small requests and optimistic for bytes. The final write-back
//! flush of the benchmark's `tiered-zipf-4k` (seed 1) sends 992 dirty
//! blocks to their two owners as 1 766 member writes, 7.75 MiB: at least
//! 70 ms of wire time at this profile's 110 MiB/s through one client link,
//! of which the model charges 18.5 ms.

use parking_lot::{Mutex, RwLock};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread::ThreadId;
use std::time::Duration;

/// Cumulative I/O operation counters maintained by a store.
///
/// The `cache_*` fields are zero for the plain stores; a
/// `lamassu-cache::CachedStore` wrapping a store fills them in so one
/// counter snapshot describes both tiers (backend ops *and* cache traffic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct IoCounters {
    /// Number of read operations.
    pub read_ops: u64,
    /// Number of write operations.
    pub write_ops: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Block reads served from a cache above this store (no backend cost).
    pub cache_hits: u64,
    /// Block reads the cache had to forward to this store.
    pub cache_misses: u64,
    /// Blocks the cache evicted to make room.
    pub cache_evictions: u64,
    /// Dirty blocks the cache wrote back (eviction or flush).
    pub cache_writebacks: u64,
    /// Block-buffer pool takes served from the free list by a pooled layer
    /// above this store (zero-allocation path; see `lamassu-core::pool`).
    pub pool_hits: u64,
    /// Block-buffer pool takes that had to allocate a fresh buffer.
    pub pool_misses: u64,
}

impl IoCounters {
    /// Field-wise sum of two counter snapshots. Wrapping stores that fan out
    /// to several children (e.g. a routed tier) use this to report cluster
    /// totals from one snapshot.
    pub fn merge(mut self, other: &IoCounters) -> IoCounters {
        self.read_ops += other.read_ops;
        self.write_ops += other.write_ops;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.cache_writebacks += other.cache_writebacks;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self
    }

    /// Sums an iterator of counter snapshots field-wise.
    pub fn sum(counters: impl IntoIterator<Item = IoCounters>) -> IoCounters {
        counters
            .into_iter()
            .fold(IoCounters::default(), |acc, c| acc.merge(&c))
    }

    /// Cache hit fraction in `[0, 1]`; `0` when no cache sits above the
    /// store (or it was never exercised).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// A transport/latency model for the backing store.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StorageProfile {
    /// Human-readable profile name (appears in benchmark reports).
    pub name: &'static str,
    /// Fixed cost charged per operation (request/response round trip).
    pub per_op_latency_ns: u64,
    /// Sustained read bandwidth in bytes per second.
    pub read_bandwidth_bps: u64,
    /// Sustained write bandwidth in bytes per second.
    pub write_bandwidth_bps: u64,
    /// Number of independent request channels the backend serves
    /// concurrently (the transport parallelism width). Operations issued by
    /// different client threads overlap up to this factor; a single thread
    /// always pays the serial sum. `1` models a strictly serial transport.
    pub parallelism: usize,
    /// Per-channel submission queue depth: how many operations a *single*
    /// client thread can keep in flight on its channel via the submit API
    /// before they queue behind each other. Blocking operations ignore this
    /// (they always serialize); `1` makes submissions serialize too.
    pub queue_depth: usize,
}

impl StorageProfile {
    /// The paper's remote-filer configuration: NFSv3 over 1 Gb Ethernet.
    ///
    /// 1 GbE tops out near 117 MiB/s on the wire; the per-operation latency
    /// models the NFS round trip for a synchronous 4 KiB request. The filer
    /// serves multiple outstanding RPCs, modelled as 8 concurrent channels.
    pub fn nfs_1gbe() -> Self {
        StorageProfile {
            name: "nfs-1gbe",
            per_op_latency_ns: 180_000,
            read_bandwidth_bps: 117 * 1024 * 1024,
            write_bandwidth_bps: 110 * 1024 * 1024,
            parallelism: 8,
            queue_depth: 8,
        }
    }

    /// The paper's local RAM-disk (`tmpfs`) configuration.
    pub fn ram_disk() -> Self {
        StorageProfile {
            name: "ram-disk",
            per_op_latency_ns: 900,
            read_bandwidth_bps: 6 * 1024 * 1024 * 1024,
            write_bandwidth_bps: 4 * 1024 * 1024 * 1024,
            parallelism: 8,
            queue_depth: 8,
        }
    }

    /// A zero-cost profile for unit tests that do not care about timing.
    pub fn instant() -> Self {
        StorageProfile {
            name: "instant",
            per_op_latency_ns: 0,
            read_bandwidth_bps: u64::MAX,
            write_bandwidth_bps: u64::MAX,
            parallelism: 1,
            queue_depth: 1,
        }
    }

    /// Returns a copy with the given transport parallelism width (the
    /// concurrency knob of the modelled backend; must be non-zero).
    pub fn with_parallelism(mut self, width: usize) -> Self {
        assert!(width > 0, "transport parallelism must be non-zero");
        self.parallelism = width;
        self
    }

    /// Returns a copy with the given per-channel submission queue depth
    /// (must be non-zero).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "queue depth must be non-zero");
        self.queue_depth = depth;
        self
    }

    /// Virtual cost of reading `bytes` in one operation.
    pub fn read_cost(&self, bytes: usize) -> Duration {
        self.cost(bytes, self.read_bandwidth_bps)
    }

    /// Virtual cost of writing `bytes` in one operation.
    pub fn write_cost(&self, bytes: usize) -> Duration {
        self.cost(bytes, self.write_bandwidth_bps)
    }

    fn cost(&self, bytes: usize, bandwidth: u64) -> Duration {
        let transfer_ns = if bandwidth == u64::MAX {
            0
        } else {
            (bytes as u128 * 1_000_000_000u128 / bandwidth as u128) as u64
        };
        Duration::from_nanos(self.per_op_latency_ns + transfer_ns)
    }
}

/// Accumulates virtual I/O time and operation counters for one store.
///
/// # Guarantees under concurrency
///
/// * Counters (`read_ops`, `write_ops`, byte totals) are atomics: every
///   operation is counted exactly once regardless of interleaving.
/// * Virtual time accumulates **per channel**: every thread is pinned to
///   one channel of *this* clock on its first charge (channels are handed
///   out round-robin per clock, and [`SimClock::reset`] hands them out
///   afresh, so the first `width` threads of a measured phase always get
///   distinct channels). [`SimClock::elapsed`] reports the busiest channel
///   — the modelled *makespan*. Concurrent operations on distinct channels
///   overlap; a single thread's operations always serialize on its one
///   channel.
/// * The accumulation itself is one uncontended per-channel mutex (threads
///   on distinct channels never touch the same lock); resolving the calling
///   thread's channel takes one read-mostly `RwLock` lookup (a write lock
///   only on a thread's first charge after a reset), so the clock adds no
///   meaningful serialization to the callers it measures.
///
/// # Model limitation: issue concurrency, not lock-level serialization
///
/// The clock overlaps operations by *issuing thread*: it assumes ops
/// charged by distinct threads within one accounting window could have been
/// pipelined by the backend. Layers above the store can invalidate that —
/// most notably N threads writing one file serialize on the shim's
/// exclusive per-file write guard, yet still charge N distinct channels, so
/// shared-file *write* makespans are an optimistic (up-to-width) lower
/// bound. The read path has no such exclusion (shared guards), so
/// multi-reader makespans are faithful.
pub struct SimClock {
    /// Per-channel virtual-time state (serial frontier + queue-depth lanes).
    channels: Vec<Mutex<ChannelState>>,
    /// Which channel each thread charges, assigned round-robin on first use.
    assignments: RwLock<HashMap<ThreadId, usize>>,
    next_channel: AtomicUsize,
    read_ops: AtomicU64,
    write_ops: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// Virtual-time state of one transport channel. All values are nanoseconds.
#[derive(Debug, Default)]
struct ChannelState {
    /// The serial frontier: blocking operations start here and advance it;
    /// [`SimClock::drain`] raises it to the latest lane. Submissions start
    /// no earlier than this.
    now: u64,
    /// Completion frontier of each queue-depth lane. Grown lazily to the
    /// submitting profile's `queue_depth`; a lane below `now` is idle.
    lanes: Vec<u64>,
    /// Total cost charged on this channel (blocking + submitted), ignoring
    /// overlap. Conserved regardless of completion order.
    busy: u64,
}

impl ChannelState {
    /// The channel's makespan: the latest of the serial frontier and every
    /// lane's completion frontier.
    fn frontier(&self) -> u64 {
        self.lanes.iter().copied().fold(self.now, u64::max)
    }
}

impl Default for SimClock {
    fn default() -> Self {
        SimClock::new()
    }
}

impl SimClock {
    /// Creates a serial (single-channel) clock at zero.
    pub fn new() -> Self {
        SimClock::with_width(1)
    }

    /// Creates a clock with `width` concurrent transport channels.
    pub fn with_width(width: usize) -> Self {
        let width = width.max(1);
        SimClock {
            channels: (0..width)
                .map(|_| Mutex::new(ChannelState::default()))
                .collect(),
            assignments: RwLock::new(HashMap::new()),
            next_channel: AtomicUsize::new(0),
            read_ops: AtomicU64::new(0),
            write_ops: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        }
    }

    /// Creates a clock sized to `profile`'s parallelism width.
    pub fn for_profile(profile: &StorageProfile) -> Self {
        SimClock::with_width(profile.parallelism)
    }

    /// Number of concurrent transport channels.
    pub fn width(&self) -> usize {
        self.channels.len()
    }

    /// The calling thread's channel, assigned round-robin per clock on the
    /// thread's first charge (so N ≤ width threads starting a measured
    /// phase together always land on N distinct channels, regardless of
    /// what other threads in the process are doing).
    fn channel(&self) -> &Mutex<ChannelState> {
        /// Bound on remembered thread→channel assignments: a long-lived
        /// store serving short-lived threads must not grow the map forever.
        /// Clearing simply re-pins threads on their next charge.
        const ASSIGNMENT_CAP: usize = 1024;
        let id = std::thread::current().id();
        if let Some(&ch) = self.assignments.read().get(&id) {
            return &self.channels[ch];
        }
        let mut assignments = self.assignments.write();
        if assignments.len() >= ASSIGNMENT_CAP {
            assignments.clear();
        }
        let ch = *assignments.entry(id).or_insert_with(|| {
            self.next_channel.fetch_add(1, Ordering::Relaxed) % self.channels.len()
        });
        &self.channels[ch]
    }

    fn charge(&self, cost: Duration) {
        let mut st = self.channel().lock();
        let cost = cost.as_nanos() as u64;
        st.now += cost;
        st.busy += cost;
    }

    /// Schedules one submitted operation of the given cost onto the calling
    /// thread's channel: the earliest-free of the channel's `depth` lanes,
    /// starting no earlier than the serial frontier. Up to `depth`
    /// submissions overlap; further ones queue behind the earliest lane.
    fn schedule(&self, depth: usize, cost: Duration) {
        let cost = cost.as_nanos() as u64;
        let depth = depth.max(1);
        let mut st = self.channel().lock();
        if st.lanes.len() < depth {
            st.lanes.resize(depth, 0);
        }
        let idx = (0..depth).min_by_key(|&i| st.lanes[i]).expect("depth >= 1");
        let start = st.lanes[idx].max(st.now);
        st.lanes[idx] = start + cost;
        st.busy += cost;
    }

    /// Submits one read of `bytes` under `profile` onto a queue-depth lane
    /// (see `SimClock::schedule`'s overlap semantics). Counters are
    /// charged at submit time, once, like the blocking path.
    pub fn submit_read(&self, profile: &StorageProfile, bytes: usize) {
        self.schedule(profile.queue_depth, profile.read_cost(bytes));
        self.read_ops.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Submits one write of `bytes` under `profile` onto a queue-depth lane.
    pub fn submit_write(&self, profile: &StorageProfile, bytes: usize) {
        self.schedule(profile.queue_depth, profile.write_cost(bytes));
        self.write_ops.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Schedules a pre-composed cost (e.g. a read-modify-write span at a
    /// deduplicating backend) onto a queue-depth lane as **one** submission
    /// — one lane slot — without touching the op counters; the caller
    /// accounts the constituent ops via [`SimClock::count_read`] /
    /// [`SimClock::count_write`].
    pub fn submit_cost(&self, profile: &StorageProfile, cost: Duration) {
        self.schedule(profile.queue_depth, cost);
    }

    /// Counts one read of `bytes` with no time charge (pairs with
    /// [`SimClock::submit_cost`], which charges the composite time).
    pub fn count_read(&self, bytes: usize) {
        self.read_ops.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Counts one write of `bytes` with no time charge.
    pub fn count_write(&self, bytes: usize) {
        self.write_ops.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Advances the calling thread's channel by `d` of **idle** virtual
    /// time: the serial frontier moves forward but no busy time and no
    /// counters are charged. This is the virtual-time analogue of a
    /// `sleep` — a retry layer's backoff parks the channel, so `elapsed()`
    /// (and a store's `io_time()`) reflect the wait deterministically
    /// without any wall-clock sleeping.
    pub fn advance(&self, d: Duration) {
        let mut st = self.channel().lock();
        st.now += d.as_nanos() as u64;
    }

    /// The completion barrier for the calling thread's channel: raises its
    /// serial frontier to the latest lane, so nothing charged after the
    /// drain starts before every prior submission has finished.
    pub fn drain(&self) {
        let mut st = self.channel().lock();
        st.now = st.frontier();
    }

    /// Charges one read of `bytes` under `profile`.
    pub fn charge_read(&self, profile: &StorageProfile, bytes: usize) {
        self.charge(profile.read_cost(bytes));
        self.read_ops.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Charges one write of `bytes` under `profile`.
    pub fn charge_write(&self, profile: &StorageProfile, bytes: usize) {
        self.charge(profile.write_cost(bytes));
        self.write_ops.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Charges a metadata-only operation (create, rename, getattr).
    pub fn charge_op(&self, profile: &StorageProfile) {
        self.charge(Duration::from_nanos(profile.per_op_latency_ns));
    }

    /// Total virtual time charged so far: the busiest channel's accumulated
    /// time (the modelled makespan). With one channel — or one client
    /// thread — this is the plain serial sum.
    pub fn elapsed(&self) -> Duration {
        let max = self
            .channels
            .iter()
            .map(|c| c.lock().frontier())
            .max()
            .unwrap_or(0);
        Duration::from_nanos(max)
    }

    /// Sum of all channels' busy time: the total transport work performed,
    /// ignoring overlap (`elapsed() * width` is its upper bound). Submitted
    /// operations count exactly once regardless of completion order.
    pub fn busy_time(&self) -> Duration {
        let sum: u64 = self.channels.iter().map(|c| c.lock().busy).sum();
        Duration::from_nanos(sum)
    }

    /// Counter snapshot.
    pub fn counters(&self) -> IoCounters {
        IoCounters {
            read_ops: self.read_ops.load(Ordering::Relaxed),
            write_ops: self.write_ops.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            ..IoCounters::default()
        }
    }

    /// Resets time and counters to zero, and forgets the thread→channel
    /// assignments so the next measured phase hands out channels from the
    /// start again.
    pub fn reset(&self) {
        let mut assignments = self.assignments.write();
        assignments.clear();
        self.next_channel.store(0, Ordering::Relaxed);
        for c in &self.channels {
            let mut st = c.lock();
            st.now = 0;
            st.busy = 0;
            st.lanes.fill(0);
        }
        self.read_ops.store(0, Ordering::Relaxed);
        self.write_ops.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nfs_profile_is_bandwidth_bound_for_large_transfers() {
        let p = StorageProfile::nfs_1gbe();
        // 1 MiB at ~117 MiB/s is ~8.5 ms, far above the per-op latency.
        let cost = p.read_cost(1024 * 1024);
        assert!(cost > Duration::from_millis(7));
        assert!(cost < Duration::from_millis(12));
    }

    #[test]
    fn ram_disk_is_much_faster_than_nfs() {
        let nfs = StorageProfile::nfs_1gbe();
        let ram = StorageProfile::ram_disk();
        assert!(nfs.read_cost(4096) > ram.read_cost(4096) * 20);
        assert!(nfs.write_cost(4096) > ram.write_cost(4096) * 20);
    }

    #[test]
    fn instant_profile_costs_nothing() {
        let p = StorageProfile::instant();
        assert_eq!(p.read_cost(1 << 30), Duration::ZERO);
        assert_eq!(p.write_cost(0), Duration::ZERO);
    }

    #[test]
    fn per_op_latency_dominates_small_sync_io_over_nfs() {
        // 4 KiB over 1 GbE transfers in ~33 us but the paper's synchronous
        // 4 KiB NFS ops are latency-bound; the profile reflects that.
        let p = StorageProfile::nfs_1gbe();
        let transfer_only = Duration::from_nanos(4096 * 1_000_000_000 / p.read_bandwidth_bps);
        assert!(p.read_cost(4096) > transfer_only * 4);
    }

    #[test]
    fn clock_accumulates_and_resets() {
        let clock = SimClock::new();
        let p = StorageProfile::nfs_1gbe();
        clock.charge_read(&p, 4096);
        clock.charge_write(&p, 4096);
        clock.charge_op(&p);
        let c = clock.counters();
        assert_eq!(c.read_ops, 1);
        assert_eq!(c.write_ops, 1);
        assert_eq!(c.bytes_read, 4096);
        assert_eq!(c.bytes_written, 4096);
        assert!(clock.elapsed() > Duration::ZERO);
        clock.reset();
        assert_eq!(clock.elapsed(), Duration::ZERO);
        assert_eq!(clock.counters(), IoCounters::default());
    }

    #[test]
    fn single_thread_pays_the_serial_sum_regardless_of_width() {
        // One client thread stays on one channel: the makespan equals the
        // plain sum, so single-job benchmark shapes are unchanged by width.
        let p = StorageProfile::nfs_1gbe();
        let serial = SimClock::with_width(1);
        let wide = SimClock::with_width(8);
        for _ in 0..10 {
            serial.charge_read(&p, 4096);
            wide.charge_read(&p, 4096);
        }
        assert_eq!(serial.elapsed(), wide.elapsed());
        assert_eq!(wide.elapsed(), p.read_cost(4096) * 10);
        assert_eq!(wide.busy_time(), wide.elapsed());
    }

    #[test]
    fn concurrent_threads_overlap_up_to_the_width() {
        // 4 threads, each issuing the same serial work, on a wide backend:
        // the makespan is (about) one thread's worth, not four.
        let p = StorageProfile::nfs_1gbe();
        let clock = std::sync::Arc::new(SimClock::with_width(8));
        let per_thread = p.read_cost(4096) * 16;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let clock = clock.clone();
                s.spawn(move || {
                    for _ in 0..16 {
                        clock.charge_read(&p, 4096);
                    }
                });
            }
        });
        let c = clock.counters();
        assert_eq!(c.read_ops, 64, "counters stay exact under concurrency");
        assert_eq!(c.bytes_read, 64 * 4096);
        // Channels are assigned round-robin per clock, so the four threads
        // got four distinct channels and the makespan is exactly one
        // thread's serial time — while the total transport work is all four.
        assert_eq!(clock.elapsed(), per_thread);
        assert_eq!(clock.busy_time(), per_thread * 4);
    }

    #[test]
    fn reset_hands_out_channels_afresh() {
        // After a reset, a new batch of threads must start from channel 0
        // again — the measured phase is self-contained no matter how many
        // threads charged the clock before it.
        let p = StorageProfile::nfs_1gbe();
        let clock = std::sync::Arc::new(SimClock::with_width(4));
        for round in 0..2 {
            clock.reset();
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let clock = clock.clone();
                    s.spawn(move || clock.charge_read(&p, 4096));
                }
            });
            assert_eq!(clock.elapsed(), p.read_cost(4096), "round {round}");
            assert_eq!(clock.busy_time(), p.read_cost(4096) * 4, "round {round}");
        }
    }

    #[test]
    fn with_parallelism_overrides_the_width() {
        let p = StorageProfile::nfs_1gbe().with_parallelism(3);
        assert_eq!(p.parallelism, 3);
        assert_eq!(SimClock::for_profile(&p).width(), 3);
    }

    #[test]
    fn with_queue_depth_overrides_the_depth() {
        let p = StorageProfile::nfs_1gbe().with_queue_depth(16);
        assert_eq!(p.queue_depth, 16);
        assert_eq!(StorageProfile::instant().queue_depth, 1);
    }

    #[test]
    fn depth_n_submissions_cost_one_round_trip() {
        // N equal submissions on an idle depth-N channel all start at the
        // serial frontier: the makespan is ONE round trip, the busy time N.
        for depth in [1usize, 4, 8] {
            let p = StorageProfile::nfs_1gbe().with_queue_depth(depth);
            let clock = SimClock::for_profile(&p);
            for _ in 0..depth {
                clock.submit_read(&p, 4096);
            }
            clock.drain();
            let rt = p.read_cost(4096);
            assert_eq!(clock.elapsed(), rt, "depth {depth}: one makespan RT");
            assert_eq!(clock.busy_time(), rt * depth as u32);
        }
    }

    #[test]
    fn depth_exceeding_submissions_queue() {
        // depth+1 equal submissions: the extra op queues behind the
        // earliest-finishing lane, so the makespan is exactly two round
        // trips — and a serial (depth-1) profile degenerates to the
        // blocking sum.
        let p = StorageProfile::nfs_1gbe().with_queue_depth(4);
        let clock = SimClock::for_profile(&p);
        for _ in 0..5 {
            clock.submit_read(&p, 4096);
        }
        clock.drain();
        assert_eq!(clock.elapsed(), p.read_cost(4096) * 2);

        let serial = StorageProfile::nfs_1gbe().with_queue_depth(1);
        let clock = SimClock::for_profile(&serial);
        for _ in 0..5 {
            clock.submit_read(&serial, 4096);
        }
        clock.drain();
        assert_eq!(clock.elapsed(), serial.read_cost(4096) * 5);
    }

    #[test]
    fn drain_serializes_submission_batches() {
        // Two drained batches of depth-N submissions cost two round trips:
        // the barrier raises the serial frontier so batch 2 starts after
        // batch 1 completes.
        let p = StorageProfile::nfs_1gbe().with_queue_depth(8);
        let clock = SimClock::for_profile(&p);
        for _ in 0..2 {
            for _ in 0..8 {
                clock.submit_read(&p, 4096);
            }
            clock.drain();
        }
        assert_eq!(clock.elapsed(), p.read_cost(4096) * 2);
        // ...and a blocking op after the drain starts on the raised
        // frontier too.
        clock.charge_op(&p);
        assert_eq!(
            clock.elapsed(),
            p.read_cost(4096) * 2 + Duration::from_nanos(p.per_op_latency_ns)
        );
    }

    #[test]
    fn out_of_order_completion_conserves_busy_time() {
        // Property: for any mix of submitted sizes — whose completions land
        // in frontier order, not submission order — and any interleaved
        // blocking ops, busy_time() is EXACTLY the sum of every op's cost,
        // and elapsed() never exceeds it.
        let mut seed = 0x243F_6A88_85A3_08D3u64; // deterministic xorshift
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..50 {
            let depth = (next() % 8 + 1) as usize;
            let p = StorageProfile::nfs_1gbe().with_queue_depth(depth);
            let clock = SimClock::for_profile(&p);
            let mut expect = Duration::ZERO;
            for _ in 0..(next() % 24 + 1) {
                let bytes = (next() % 1_000_000) as usize;
                match next() % 3 {
                    0 => {
                        clock.submit_read(&p, bytes);
                        expect += p.read_cost(bytes);
                    }
                    1 => {
                        clock.submit_write(&p, bytes);
                        expect += p.write_cost(bytes);
                    }
                    _ => {
                        clock.charge_read(&p, bytes);
                        expect += p.read_cost(bytes);
                    }
                }
                if next() % 5 == 0 {
                    clock.drain();
                }
            }
            clock.drain();
            assert_eq!(clock.busy_time(), expect, "busy time is conserved");
            assert!(clock.elapsed() <= expect);
            assert!(clock.elapsed() >= expect / (depth as u32 * 2));
        }
    }
}
