//! The five workloads: names, sizes, and op schedules generated from a seed.
//!
//! A schedule is built completely *before* anything is timed: every op's
//! offset, every write's payload and the bytes every read must return are
//! fixed here, so the measured loop does no generation and every counter
//! repeats exactly for a given seed. Op counts are a function of the scale
//! alone, never of elapsed time.

use crate::rng::Rng;
use crate::stack;

/// The block size of every layer of the stack (and the small I/O size).
pub const BLOCK: usize = 4096;
/// One mebibyte (the large I/O size).
pub const MIB: usize = 1 << 20;

/// Which tiers sit between the shim and the backend(s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// LamassuFS directly over one `DedupStore`.
    Bare,
    /// LamassuFS → write-back cache → resilience → router → 3 × `DedupStore`.
    Tiered,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// Sequential 4 KiB writes of unique blocks into an empty file.
    SeqWrite4k,
    /// 4 KiB overwrites covering a populated file once, in random order.
    RandWrite4k,
    /// 4 KiB reads of a populated file, two random permutations.
    RandRead4k,
    /// 1 MiB copy-in of a half-duplicate image, then four 1 MiB copy-outs.
    Span1m,
    /// Zipf-skewed 70/30 read/write 4 KiB mix over the full tier stack.
    TieredZipf4k,
}

impl WorkloadId {
    /// Every workload, in the order results are reported.
    pub const ALL: [WorkloadId; 5] = [
        WorkloadId::SeqWrite4k,
        WorkloadId::RandWrite4k,
        WorkloadId::RandRead4k,
        WorkloadId::Span1m,
        WorkloadId::TieredZipf4k,
    ];

    /// The name used on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::SeqWrite4k => "seq-write-4k",
            WorkloadId::RandWrite4k => "rand-write-4k",
            WorkloadId::RandRead4k => "rand-read-4k",
            WorkloadId::Span1m => "span-1m",
            WorkloadId::TieredZipf4k => "tiered-zipf-4k",
        }
    }

    /// One line on why the workload exists (copied into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            WorkloadId::SeqWrite4k => {
                "write path only (KDF + CBC encrypt + GCM metadata seal per commit): the largest cost in the system; no cache, resilience or router"
            }
            WorkloadId::RandWrite4k => {
                "same write path in random order: metadata-segment churn and pool misses; shows a write gain that only helps sequential order"
            }
            WorkloadId::RandRead4k => {
                "read path only (decrypt + integrity re-derivation), full integrity: the control that bypasses the write path"
            }
            WorkloadId::Span1m => {
                "1 MiB spans: the only place wide kernels, the crypto pool and vectored I/O engage; half-duplicate data carries the dedup result"
            }
            WorkloadId::TieredZipf4k => {
                "only workload through cache + resilience + router, working set 4x the cache: tier cost in wall, cache effect in modelled time"
            }
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The stack the workload runs on.
    pub fn stack(self) -> StackKind {
        match self {
            WorkloadId::TieredZipf4k => StackKind::Tiered,
            _ => StackKind::Bare,
        }
    }

    /// True when the file is written (untimed) before the measured phase.
    pub fn populated(self) -> bool {
        matches!(
            self,
            WorkloadId::RandWrite4k | WorkloadId::RandRead4k | WorkloadId::TieredZipf4k
        )
    }
}

/// How big one repetition is. Everything else (op counts, cache size) is
/// derived from the file size so the workloads keep their shape when scaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// File size in MiB.
    pub file_mib: usize,
}

impl Scale {
    /// The size the committed numbers are measured at.
    pub const FULL: Scale = Scale { file_mib: 32 };
    /// A tiny size for correctness-only passes (`smoke.sh`, `cargo test`).
    pub const SMOKE: Scale = Scale { file_mib: 2 };

    /// File size in bytes.
    pub fn file_len(self) -> usize {
        self.file_mib * MIB
    }

    /// File size in 4 KiB blocks.
    pub fn file_blocks(self) -> usize {
        self.file_len() / BLOCK
    }

    /// Capacity of the tiered stack's cache: a quarter of the file.
    pub fn cache_blocks(self) -> usize {
        self.file_blocks() / 4
    }
}

/// Where an op's bytes live in the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// The initial file image.
    Image,
    /// The write-payload arena.
    Arena,
}

/// One `FileSystem` call of the measured phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Write (true) or read (false).
    pub write: bool,
    /// File offset.
    pub offset: u64,
    /// Length in bytes.
    pub len: u32,
    /// For a write, where its payload is; for a read, where the bytes it
    /// must return are (the latest write to that range at that point of the
    /// schedule, or the populated image).
    pub src: Src,
    /// Byte offset into `src`.
    pub src_off: u64,
}

/// A fully generated workload instance.
pub struct Schedule {
    /// Which workload this is.
    pub id: WorkloadId,
    /// The scale it was generated at.
    pub scale: Scale,
    /// The file before the measured phase (what populate writes); for
    /// `span-1m` the image the copy-in writes. Empty for `seq-write-4k`.
    pub image: Vec<u8>,
    /// Payloads of the measured phase's 4 KiB writes, one block per write.
    pub arena: Vec<u8>,
    /// The measured phase.
    pub ops: Vec<Op>,
    /// The file after the measured phase: the model the read-back after the
    /// restart is compared with, byte for byte.
    pub final_image: Vec<u8>,
}

/// Bytes 0..16 of every generated 4 KiB block: (block index, version), both
/// little-endian. Version 0 is the populated image, version `k` the block's
/// `k`-th overwrite. It makes every written block unique (so nothing
/// deduplicates by accident) and makes a wrong read diagnosable.
pub fn stamp(block: &mut [u8], index: u64, version: u64) {
    block[..8].copy_from_slice(&index.to_le_bytes());
    block[8..16].copy_from_slice(&version.to_le_bytes());
}

/// Decodes a block's stamp.
pub fn read_stamp(block: &[u8]) -> (u64, u64) {
    let word =
        |r: std::ops::Range<usize>| u64::from_le_bytes(block[r].try_into().expect("8 bytes"));
    (word(0..8), word(8..16))
}

/// A Zipf(θ) sampler over ranks `0..n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler; rank `r` has weight `1 / (r + 1)^theta`.
    pub fn new(n: usize, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for r in 0..n {
            sum += 1.0 / ((r + 1) as f64).powf(theta);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Zipf { cdf }
    }

    /// The rank whose CDF interval contains `u` (`u` uniform in `[0, 1)`).
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Probability of the `k` most popular ranks together.
    pub fn head_mass(&self, k: usize) -> f64 {
        self.cdf[k.min(self.cdf.len()) - 1]
    }
}

/// `blocks` random blocks, the `i`-th stamped with `stamp_of(i)` =
/// (block index, version).
fn stamped_blocks(rng: &mut Rng, blocks: usize, stamp_of: impl Fn(usize) -> (u64, u64)) -> Vec<u8> {
    let mut buf = vec![0u8; blocks * BLOCK];
    rng.fill(&mut buf);
    for (i, b) in buf.chunks_exact_mut(BLOCK).enumerate() {
        let (index, version) = stamp_of(i);
        stamp(b, index, version);
    }
    buf
}

impl Schedule {
    /// Generates the workload's schedule from `seed`.
    pub fn generate(id: WorkloadId, scale: Scale, seed: u64) -> Schedule {
        // Salt by workload so two workloads never share a stream.
        let mut rng = Rng::new(seed ^ (id as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
        let blocks = scale.file_blocks();
        // An I/O of `unit` bytes at unit index `at`, its bytes at unit index
        // `src_at` of `src`.
        let io = |write: bool, unit: usize, at: usize, src: Src, src_at: usize| Op {
            write,
            offset: (at * unit) as u64,
            len: unit as u32,
            src,
            src_off: (src_at * unit) as u64,
        };
        let block_op = |write, block, src, src_block| io(write, BLOCK, block, src, src_block);
        let (image, arena, ops) = match id {
            WorkloadId::SeqWrite4k => {
                let arena = stamped_blocks(&mut rng, blocks, |i| (i as u64, 1));
                let ops = (0..blocks)
                    .map(|b| block_op(true, b, Src::Arena, b))
                    .collect();
                (Vec::new(), arena, ops)
            }
            WorkloadId::RandWrite4k => {
                let image = stamped_blocks(&mut rng, blocks, |i| (i as u64, 0));
                let mut order: Vec<usize> = (0..blocks).collect();
                rng.shuffle(&mut order);
                let arena = stamped_blocks(&mut rng, blocks, |i| (order[i] as u64, 1));
                let ops = order
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| block_op(true, b, Src::Arena, i))
                    .collect();
                (image, arena, ops)
            }
            WorkloadId::RandRead4k => {
                let image = stamped_blocks(&mut rng, blocks, |i| (i as u64, 0));
                let mut ops = Vec::with_capacity(2 * blocks);
                for _ in 0..2 {
                    let mut order: Vec<usize> = (0..blocks).collect();
                    rng.shuffle(&mut order);
                    ops.extend(order.iter().map(|&b| block_op(false, b, Src::Image, b)));
                }
                (image, Vec::new(), ops)
            }
            WorkloadId::Span1m => {
                let image = stack::synthetic_image(scale.file_len() as u64, 0.5, rng.next_u64());
                let span = |write, m| io(write, MIB, m, Src::Image, m);
                let mut ops: Vec<Op> = (0..scale.file_mib).map(|m| span(true, m)).collect();
                for _ in 0..4 {
                    ops.extend((0..scale.file_mib).map(|m| span(false, m)));
                }
                (image, Vec::new(), ops)
            }
            WorkloadId::TieredZipf4k => {
                let image = stamped_blocks(&mut rng, blocks, |i| (i as u64, 0));
                let n_ops = 2 * blocks;
                let zipf = Zipf::new(blocks, 0.99);
                // Scramble ranks so popular blocks are spread over the file
                // (and over cache shards, segments and router units).
                let mut block_of_rank: Vec<usize> = (0..blocks).collect();
                rng.shuffle(&mut block_of_rank);
                // Latest source of each block, and how often it was written.
                let mut latest: Vec<(Src, usize)> = (0..blocks).map(|b| (Src::Image, b)).collect();
                let mut version = vec![0u64; blocks];
                let mut written: Vec<(usize, u64)> = Vec::new();
                let mut ops = Vec::with_capacity(n_ops);
                for _ in 0..n_ops {
                    let b = block_of_rank[zipf.rank(rng.next_f64())];
                    if rng.next_f64() < 0.7 {
                        let (src, at) = latest[b];
                        ops.push(block_op(false, b, src, at));
                    } else {
                        version[b] += 1;
                        latest[b] = (Src::Arena, written.len());
                        ops.push(block_op(true, b, Src::Arena, written.len()));
                        written.push((b, version[b]));
                    }
                }
                let arena = stamped_blocks(&mut rng, written.len(), |i| {
                    (written[i].0 as u64, written[i].1)
                });
                (image, arena, ops)
            }
        };
        let mut final_image = image.clone();
        final_image.resize(scale.file_len(), 0);
        for op in ops.iter().filter(|op| op.write && op.src == Src::Arena) {
            let at = op.offset as usize;
            let from = op.src_off as usize;
            final_image[at..at + BLOCK].copy_from_slice(&arena[from..from + BLOCK]);
        }
        Schedule {
            id,
            scale,
            image,
            arena,
            ops,
            final_image,
        }
    }

    /// The bytes an op writes, or must read.
    pub fn bytes(&self, op: &Op) -> &[u8] {
        let from = op.src_off as usize;
        let buf = match op.src {
            Src::Image => &self.image,
            Src::Arena => &self.arena,
        };
        &buf[from..from + op.len as usize]
    }

    /// User bytes moved by the measured phase.
    pub fn user_bytes(&self) -> u64 {
        self.ops.iter().map(|op| op.len as u64).sum()
    }

    /// Blocks moved by the measured phase.
    pub fn user_blocks(&self) -> u64 {
        self.user_bytes() / BLOCK as u64
    }

    /// The largest I/O size of the schedule (the read buffer's size).
    pub fn max_io(&self) -> usize {
        self.ops.iter().map(|op| op.len as usize).max().unwrap_or(0)
    }

    /// FNV-1a over the ops and every payload byte: equal seeds must give
    /// equal hashes and different seeds different ones.
    pub fn hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        };
        for op in &self.ops {
            mix(op.write as u64);
            mix(op.offset);
            mix(op.len as u64);
            mix(op.src as u64);
            mix(op.src_off);
        }
        for buf in [&self.image, &self.arena] {
            for w in buf.chunks_exact(8) {
                mix(u64::from_le_bytes(w.try_into().expect("8 bytes")));
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::harness_only;

    #[test]
    fn same_seed_same_schedule_different_seed_different_schedule() {
        for id in WorkloadId::ALL {
            let a = Schedule::generate(id, Scale::SMOKE, 7).hash();
            let b = Schedule::generate(id, Scale::SMOKE, 7).hash();
            let c = Schedule::generate(id, Scale::SMOKE, 8).hash();
            assert_eq!(a, b, "{}", id.name());
            assert_ne!(a, c, "{}", id.name());
        }
        let hashes: std::collections::HashSet<u64> = WorkloadId::ALL
            .iter()
            .map(|&id| Schedule::generate(id, Scale::SMOKE, 7).hash())
            .collect();
        assert_eq!(
            hashes.len(),
            WorkloadId::ALL.len(),
            "workloads share a stream"
        );
    }

    #[test]
    fn op_counts_follow_the_scale_not_the_seed() {
        let blocks = Scale::SMOKE.file_blocks();
        let count = |id, seed| Schedule::generate(id, Scale::SMOKE, seed).ops.len();
        for seed in [1, 2] {
            assert_eq!(count(WorkloadId::SeqWrite4k, seed), blocks);
            assert_eq!(count(WorkloadId::RandWrite4k, seed), blocks);
            assert_eq!(count(WorkloadId::RandRead4k, seed), 2 * blocks);
            assert_eq!(count(WorkloadId::Span1m, seed), 5 * Scale::SMOKE.file_mib);
            assert_eq!(count(WorkloadId::TieredZipf4k, seed), 2 * blocks);
        }
    }

    #[test]
    fn replaying_a_schedule_meets_every_read_expectation_and_the_final_image() {
        // The no-op file system stores exactly what it is given, so a failed
        // op here is a bug in the schedule's model, not in the stack.
        for id in WorkloadId::ALL {
            let sched = Schedule::generate(id, Scale::SMOKE, 3);
            let phase = harness_only(&sched);
            assert_eq!(phase.failed, 0, "{}: {:?}", id.name(), phase.first_error);
            assert_eq!(sched.final_image.len(), Scale::SMOKE.file_len());
        }
        let rw = Schedule::generate(WorkloadId::RandWrite4k, Scale::SMOKE, 3);
        for (i, block) in rw.final_image.chunks_exact(BLOCK).enumerate() {
            assert_eq!(
                read_stamp(block),
                (i as u64, 1),
                "every block overwritten once"
            );
        }
        let zipf = Schedule::generate(WorkloadId::TieredZipf4k, Scale::SMOKE, 3);
        let writes = zipf.ops.iter().filter(|op| op.write).count() as f64;
        let share = writes / zipf.ops.len() as f64;
        assert!((0.25..0.35).contains(&share), "write share {share}");
    }

    #[test]
    fn span_image_is_half_duplicates() {
        let sched = Schedule::generate(WorkloadId::Span1m, Scale::SMOKE, 5);
        let unique: std::collections::HashSet<&[u8]> = sched.image.chunks_exact(BLOCK).collect();
        let share = unique.len() as f64 / Scale::SMOKE.file_blocks() as f64;
        assert!((0.49..=0.51).contains(&share), "unique share {share}");
    }

    #[test]
    fn zipf_head_mass_matches_theory_and_samples() {
        let n = 4096;
        let zipf = Zipf::new(n, 0.99);
        let harmonic: f64 = (1..=n).map(|r| 1.0 / (r as f64).powf(0.99)).sum();
        assert!((zipf.head_mass(1) - 1.0 / harmonic).abs() < 1e-12);
        assert!((zipf.head_mass(n) - 1.0).abs() < 1e-12);
        // With θ = 0.99 the top 1 % of ranks draw close to half the ops.
        let top = n / 100;
        let mass = zipf.head_mass(top);
        assert!((0.40..0.55).contains(&mass), "head mass {mass}");
        let mut rng = Rng::new(11);
        let draws = 200_000;
        let hits = (0..draws)
            .filter(|_| zipf.rank(rng.next_f64()) < top)
            .count();
        let observed = hits as f64 / draws as f64;
        assert!(
            (observed - mass).abs() < 0.01,
            "sampled {observed}, expected {mass}"
        );
        assert_eq!(zipf.rank(0.0), 0);
        assert_eq!(zipf.rank(0.999_999_999_999), n - 1);
    }
}
