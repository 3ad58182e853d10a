//! A small scoped worker pool for batch cryptography.
//!
//! The paper's Figure 9 shows the convergent data path dominated by per-block
//! SHA-256 and AES. Those costs are embarrassingly parallel across the blocks
//! of a span — each block is hashed and encrypted independently — so the
//! [`batch`](crate::batch) APIs fan the work of one span out across a
//! [`CryptoPool`]. One pool is created per mounted shim and shared by every
//! file of the mount.
//!
//! The pool is *scoped*: workers are spawned with [`std::thread::scope`] for
//! the duration of one batch call, so they can borrow the caller's block
//! buffers directly (no channels, no `'static` bounds, no copies) and the
//! crate stays free of unsafe code.
//!
//! # The fan-out rule
//!
//! One rule, fixed ahead of time from the kernel geometry, decides whether a
//! batch fans out — nothing is tuned per I/O:
//!
//! * the unit of work is one **tile** of [`TILE_BLOCKS`] file blocks — what
//!   one pass of the wide kernels consumes (16 interleaved CBC chains, four
//!   4-block KDF groups);
//! * a batch is split into `min(workers, items / TILE_BLOCKS)` **shares**,
//!   so it fans out only when every share holds at least one full tile;
//! * shares are whole tiles, balanced to within one tile; the last share
//!   also takes the sub-tile tail, and runs on the **caller's thread** (a
//!   two-worker batch costs one spawn, not two).
//!
//! A scoped spawn-and-join costs about 15 µs in the reference container
//! (2 000 `thread::scope` spawn+joins) — about what deriving and
//! encrypting one 4 KiB block cost — while one tile is 150–400 µs of
//! kernel time (derivation at the low end, encryption at the high end). A
//! one-tile share pays at most a tenth of its work for the spawn; below a
//! tile that share grows, and the split narrows the wide passes on both
//! sides of it. An 8-block commit (a few writes forced out by an `fsync`)
//! therefore runs inline, where its eight chains still fill half a wide pass
//! ([`crate::batch::WIDE_MIN_BLOCKS`]); splitting it 4 + 4, as a per-item
//! threshold would, pays two spawns to run both halves on the scalar kernel.
//!
//! # Sizing
//!
//! [`CryptoPool::new`] takes a worker count; `0` selects the default of
//! `min(`[`DEFAULT_MAX_WORKERS`]`, available_parallelism)`. Crypto batches
//! are short (a 256-block span is 1.5–3 ms on two workers), so a small pool
//! captures most of the win without oversubscribing the machine — the CLI
//! exposes the knob as `--workers`.

use crate::fixsliced;
use std::num::NonZeroUsize;

/// Default upper bound on the worker count when auto-sizing (`workers == 0`).
pub const DEFAULT_MAX_WORKERS: usize = 4;

/// The unit of fan-out: the number of file blocks one pass of the wide
/// kernels consumes (see the module docs).
pub const TILE_BLOCKS: usize = fixsliced::WIDE_BLOCKS;

/// A fixed-width scoped worker pool (see the module docs).
///
/// # Examples
///
/// ```
/// use lamassu_crypto::pool::CryptoPool;
///
/// let pool = CryptoPool::new(0); // auto-sized
/// let mut items: Vec<u64> = (0..64).collect();
/// let factors: Vec<u64> = vec![2; 64];
/// pool.zip_for_each(&mut items, &factors, |x, f| *x *= f);
/// assert_eq!(items[10], 20);
/// ```
#[derive(Debug, Clone)]
pub struct CryptoPool {
    workers: usize,
}

impl Default for CryptoPool {
    fn default() -> Self {
        CryptoPool::new(0)
    }
}

impl CryptoPool {
    /// Creates a pool of `workers` threads; `0` auto-sizes to
    /// `min(DEFAULT_MAX_WORKERS, available_parallelism)`.
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
                .min(DEFAULT_MAX_WORKERS)
        } else {
            workers
        };
        CryptoPool {
            workers: workers.max(1),
        }
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// How many shares a batch of `items` blocks is split into: `1` means it
    /// runs inline on the caller's thread; more only when every share gets
    /// at least one full tile (the module's fan-out rule).
    pub fn shares(&self, items: usize) -> usize {
        self.workers.min(items / TILE_BLOCKS).max(1)
    }

    /// True if a batch of `items` blocks runs inline on the caller's thread —
    /// the path that performs no allocation and no thread spawn (the
    /// zero-allocation guarantee of the steady-state data path is proven
    /// under this regime; see the crate-level docs of `lamassu-core::pool`).
    pub fn runs_inline(&self, items: usize) -> bool {
        self.shares(items) == 1
    }

    /// Index of the first item of share `i` of `shares`: whole tiles, spread
    /// evenly; share `shares` (one past the last) ends at `items`, so the
    /// last share absorbs the sub-tile tail.
    fn share_start(items: usize, shares: usize, i: usize) -> usize {
        if i == shares {
            items
        } else {
            (items / TILE_BLOCKS) * i / shares * TILE_BLOCKS
        }
    }

    /// Runs `f` once per share of a batch of `items` blocks laid out in two
    /// parallel slices: `a` holds `a.len() / items` consecutive elements per
    /// block and `b` holds `b.len() / items`. Inline, `f` gets both slices
    /// whole; fanned out, each share gets its matching sub-slices, the last
    /// on the caller's thread. No allocation of its own — this is the one
    /// primitive underneath every batch crypto API.
    ///
    /// Panics if either length is not a multiple of `items`.
    pub fn split_for_each<A: Send, B: Sync>(
        &self,
        items: usize,
        a: &mut [A],
        b: &[B],
        f: impl Fn(&mut [A], &[B]) + Sync,
    ) {
        let shares = self.shares(items);
        if shares == 1 {
            return f(a, b);
        }
        assert!(
            a.len().is_multiple_of(items) && b.len().is_multiple_of(items),
            "split_for_each slices must hold whole items"
        );
        let (a_stride, b_stride) = (a.len() / items, b.len() / items);
        let f = &f;
        std::thread::scope(|scope| {
            let mut rest = a;
            let mut start = 0;
            for i in 1..=shares {
                let end = Self::share_start(items, shares, i);
                let (mine, tail) = rest.split_at_mut((end - start) * a_stride);
                rest = tail;
                let ctx = &b[start * b_stride..end * b_stride];
                if i == shares {
                    f(mine, ctx);
                } else {
                    scope.spawn(move || f(mine, ctx));
                }
                start = end;
            }
        });
    }

    /// Applies `f` to every `(item, context)` pair, fanning shares of both
    /// slices out in lockstep (see [`CryptoPool::split_for_each`]).
    ///
    /// Panics if the slices differ in length.
    pub fn zip_for_each<A: Send, B: Sync>(
        &self,
        items: &mut [A],
        ctx: &[B],
        f: impl Fn(&mut A, &B) + Sync,
    ) {
        assert_eq!(items.len(), ctx.len(), "zip_for_each slices must pair up");
        self.split_for_each(items.len(), items, ctx, |a, b| {
            for (x, c) in a.iter_mut().zip(b) {
                f(x, c);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_sizing_is_bounded() {
        let pool = CryptoPool::new(0);
        assert!(pool.workers() >= 1);
        assert!(pool.workers() <= DEFAULT_MAX_WORKERS);
    }

    #[test]
    fn explicit_worker_count_is_respected() {
        assert_eq!(CryptoPool::new(3).workers(), 3);
        assert_eq!(CryptoPool::new(1).workers(), 1);
    }

    #[test]
    fn fan_out_needs_a_full_tile_per_share() {
        let pool = CryptoPool::new(4);
        // An 8-block commit, and anything short of two tiles, stays inline.
        for items in [0, 1, 8, TILE_BLOCKS, 2 * TILE_BLOCKS - 1] {
            assert!(pool.runs_inline(items), "{items} items");
        }
        assert_eq!(pool.shares(2 * TILE_BLOCKS), 2);
        assert_eq!(pool.shares(3 * TILE_BLOCKS + 5), 3);
        assert_eq!(pool.shares(256), 4);
        assert!(CryptoPool::new(1).runs_inline(4096));
    }

    #[test]
    fn shares_are_whole_tiles_and_the_last_takes_the_tail() {
        for (items, workers) in [(256, 2), (100, 4), (40, 2), (33, 8), (1000, 3)] {
            let shares = CryptoPool::new(workers).shares(items);
            let bounds: Vec<usize> = (0..=shares)
                .map(|i| CryptoPool::share_start(items, shares, i))
                .collect();
            assert_eq!((bounds[0], bounds[shares]), (0, items));
            for w in bounds.windows(2) {
                assert!(w[1] - w[0] >= TILE_BLOCKS, "{items}/{workers}: {bounds:?}");
            }
            for b in &bounds[..shares] {
                assert_eq!(b % TILE_BLOCKS, 0, "{items}/{workers}: {bounds:?}");
            }
            let full: Vec<usize> = bounds[..shares].windows(2).map(|w| w[1] - w[0]).collect();
            let (min, max) = (full.iter().min(), full.iter().max());
            if let (Some(min), Some(max)) = (min, max) {
                assert!(max - min <= TILE_BLOCKS, "{items}/{workers}: {bounds:?}");
            }
        }
    }

    #[test]
    fn zip_for_each_visits_every_item_exactly_once() {
        let pool = CryptoPool::new(4);
        let mut items: Vec<u32> = vec![0; 1000];
        let ctx: Vec<u32> = (0..1000).collect();
        pool.zip_for_each(&mut items, &ctx, |x, c| *x += c + 1);
        assert!(items.iter().zip(&ctx).all(|(x, c)| *x == c + 1));
    }

    #[test]
    fn split_for_each_hands_out_matching_strided_shares() {
        // 3 elements of `a` and 2 of `b` per item, as a span of blocks and
        // its per-block context would be laid out.
        let pool = CryptoPool::new(3);
        let items = 5 * TILE_BLOCKS + 3;
        let mut a: Vec<usize> = vec![0; items * 3];
        let b: Vec<usize> = (0..items * 2).map(|i| i / 2).collect();
        pool.split_for_each(items, &mut a, &b, |a, b| {
            assert_eq!(a.len() / 3, b.len() / 2);
            for (xs, item) in a.chunks_mut(3).zip(b.chunks(2)) {
                xs.fill(item[0] + 1);
            }
        });
        for (i, xs) in a.chunks(3).enumerate() {
            assert_eq!(xs, [i + 1; 3]);
        }
    }

    #[test]
    fn small_and_empty_batches_run_inline() {
        let pool = CryptoPool::new(8);
        let mut items = [1u8, 2];
        pool.zip_for_each(&mut items, &[10, 10], |x, c| *x += c);
        assert_eq!(items, [11, 12]);
        let mut none: [u8; 0] = [];
        pool.zip_for_each(&mut none, &[], |_, _: &u8| unreachable!());
    }
}
