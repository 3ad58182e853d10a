//! The read path of §2.5: the span read, the per-block prototype's read, and
//! the one way a block is opened.
//!
//! Every block any path hands back as plaintext — a span read's runs, a lone
//! read or read-modify-write, verification's sweep, recovery's test of a
//! key against the media — goes through [`Engine::open_batch`]: one batch
//! decrypt, one batch re-derivation of every key, and a constant-time
//! compare. The re-derivation is skipped only on a meta-only mount, and only
//! when the caller does not force the check (verification and recovery do).
//!
//! # The read memo
//!
//! Under full integrity the span pipeline keeps a bounded per-mount memo of
//! (key, ciphertext, plaintext) triples of a format version, found by a
//! keyed PRF of the key (the `memo` module says why a hit is exact, and how
//! entries are indexed, admitted and bounded). [`Engine::open_blocks`]
//! consults it for every landed block of a run, edges included. A hit —
//! same key, byte-identical ciphertext — is a copy of the plaintext; the
//! misses are opened as before, in place when the run had no hit and
//! compacted into one batch when it had some. The backend read is issued
//! either way. The commit side of the memo is the `commit` module's.
//! `verify`, `recover`, the write path's read-modify-write, truncate and the
//! per-block prototype go through [`Engine::read_block_into`], which never
//! consults it, and re-keying clears it.

use super::engine::{Engine, LamassuFile};
use super::memo::Admit;
use crate::pool::{with_tls, BlockBuf};
use crate::profiler::Category;
use crate::span::{SpanPolicy, KERNELS};
use crate::spanio::{Landed, Run};
use crate::{FsError, IntegrityMode, Result};
use lamassu_crypto::kdf::HashVersion;
use lamassu_crypto::util::constant_time_eq;
use lamassu_crypto::{batch, Key256, FIXED_IV};
use std::cell::RefCell;
use std::io::IoSliceMut;

thread_local! {
    /// Span-read planning scratch: the runs of consecutive disk-backed
    /// blocks (each tagged with the index of its first key), the flat
    /// per-run key copies, and the hole block indices of the current segment
    /// group. Thread-local so the read path can use it under a *shared* file
    /// borrow, reused so the steady state allocates nothing.
    static RUN_SCRATCH: RefCell<(Vec<Run>, Vec<Key256>, Vec<u64>)> =
        const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
    /// Derived/recomputed key scratch (integrity re-derivation, the keys of
    /// one commit batch).
    pub(super) static KEY_SCRATCH: RefCell<Vec<Key256>> = const { RefCell::new(Vec::new()) };
    /// One read run's or commit batch's memo misses, the staging their
    /// bytes batch through (or, on a batch run in place, the admission
    /// candidates' saved ciphertext or plaintext), and their keys. At most a
    /// span of blocks.
    pub(super) static MISS_SCRATCH: RefCell<(Vec<Miss>, Vec<u8>, Vec<Key256>)> =
        const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// A block the read memo missed: its index in the run, and whether this is
/// its second sighting (an admission candidate once it passes §2.5).
pub(super) type Miss = (usize, bool);

impl LamassuFile {
    /// The buffered plaintext for `block`, if it is staged for commit: a
    /// read serves it without touching the store.
    fn pending_block(&self, block: u64) -> Option<&BlockBuf> {
        self.pending
            .binary_search_by_key(&block, |(b, _)| *b)
            .ok()
            .map(|i| &self.pending[i].1)
    }
}

impl Engine {
    /// Reads one logical block as plaintext into `dest` (exactly one block
    /// long), through [`Engine::open_batch`]; `check` forces the §2.5 check
    /// on a meta-only mount. Returns `false` — with `dest` zero-filled — when
    /// the block has never been written (a hole).
    pub(super) fn read_block_into(
        &self,
        file: &LamassuFile,
        logical_block: u64,
        dest: &mut [u8],
        check: bool,
    ) -> Result<bool> {
        debug_assert_eq!(dest.len(), self.geometry.block_size());
        if let Some(plain) = file.pending_block(logical_block) {
            dest.copy_from_slice(plain);
            return Ok(true);
        }
        let loc = self.geometry.locate_block(logical_block);
        let Some(key) = self.with_meta(file, loc.segment, |mb| mb.key(loc.slot).copied())? else {
            dest.fill(0);
            return Ok(false);
        };
        let bufs = &mut [IoSliceMut::new(dest)];
        let n = self.io.read_one(&file.name, loc.physical_offset, bufs)?;
        if n < dest.len() {
            // Key present but data never reached disk (should only happen on
            // an unrecovered crash); treat as a hole.
            dest.fill(0);
            return Ok(false);
        }
        self.open_batch(file.version, &[key], dest, check)
            .map_err(|_| FsError::IntegrityViolation {
                path: file.name.clone(),
                logical_block,
            })?;
        Ok(true)
    }

    /// Reads `buf.len()` bytes at `offset`: under [`SpanPolicy::Batched`]
    /// the span pipeline fetches whole runs of blocks per backend round trip
    /// and decrypts them in parallel; [`SpanPolicy::PerBlock`] keeps the
    /// original one-block-at-a-time path.
    pub(super) fn read_range(&self, file: &LamassuFile, offset: u64, buf: &mut [u8]) -> Result<()> {
        match self.policy {
            SpanPolicy::PerBlock => self.read_range_per_block(file, offset, buf),
            SpanPolicy::Batched => self.read_range_batched(file, offset, buf),
        }
    }

    /// The per-block read pipeline: one backend read and one serial decrypt
    /// per block. Whole aligned blocks are decrypted directly in `buf`;
    /// sub-block spans stage through one lazily borrowed pooled block
    /// (per-call, so concurrent readers never share scratch memory).
    fn read_range_per_block(&self, file: &LamassuFile, offset: u64, buf: &mut [u8]) -> Result<()> {
        let bs = self.geometry.block_size();
        let mut scratch: Option<BlockBuf> = None;
        let mut out = 0usize;
        for (block, in_block, take) in self.geometry.block_spans(offset, buf.len()) {
            if in_block == 0 && take == bs {
                self.read_block_into(file, block, &mut buf[out..out + take], false)?;
            } else {
                let scratch = scratch.get_or_insert_with(|| self.blocks.take());
                self.read_block_into(file, block, scratch, false)?;
                buf[out..out + take].copy_from_slice(&scratch[in_block..in_block + take]);
            }
            out += take;
        }
        Ok(())
    }

    /// The span read pipeline: plans the range, classifies every block from
    /// the metadata into pending blocks, holes and maximal runs of
    /// consecutive disk-backed blocks, and hands the runs of the **whole**
    /// span — so that all of them are in flight together — to the span-I/O
    /// driver, which calls [`Engine::finish_run`] on each run as it lands.
    /// Pending (buffered) blocks and holes are served without touching the
    /// store. Run boundaries and key copies live in thread-local scratch, so
    /// a warm read allocates nothing.
    fn read_range_batched(&self, file: &LamassuFile, offset: u64, buf: &mut [u8]) -> Result<()> {
        let plan = self
            .profiler
            .time(Category::Plan, || self.planner.plan(offset, buf.len()));
        let n_per_seg = self.geometry.keys_per_metadata_block() as u64;
        with_tls(&RUN_SCRATCH, |(runs, keys, holes)| {
            runs.clear();
            keys.clear();
            let mut block = plan.first_block;
            while block <= plan.last_block {
                let segment = block / n_per_seg;
                let group_end = ((segment + 1) * n_per_seg - 1).min(plan.last_block);
                holes.clear();
                let group_first_run = runs.len();
                // Classify every block of the segment group under one cache
                // probe. The closure only copies keys out and records run /
                // hole boundaries — all byte shuffling happens after the
                // lock drops, so concurrent readers serialize on key copies
                // only.
                self.with_meta(file, segment, |mb| {
                    for b in block..=group_end {
                        if file.pending_block(b).is_some() {
                            // Served from the write buffer below (outside
                            // the lock — `pending` is stable under the
                            // shared file guard).
                            continue;
                        }
                        let slot = (b % n_per_seg) as usize;
                        match mb.key(slot) {
                            None => holes.push(b),
                            Some(key) => {
                                // Consecutive logical blocks of one segment
                                // are physically contiguous; runs never merge
                                // across a segment boundary, where a metadata
                                // block sits between the groups on disk.
                                match runs[group_first_run..].last_mut() {
                                    Some(run) if run.first + run.blocks as u64 == b => {
                                        run.blocks += 1
                                    }
                                    _ => runs.push(Run {
                                        first: b,
                                        blocks: 1,
                                        offset: self.geometry.locate_block(b).physical_offset,
                                        tag: keys.len(),
                                    }),
                                }
                                keys.push(*key);
                            }
                        }
                    }
                })?;
                for b in block..=group_end {
                    if let Some(plain) = file.pending_block(b) {
                        let (in_block, take) = plan.span_of(b);
                        buf[plan.buf_range(b)].copy_from_slice(&plain[in_block..in_block + take]);
                    }
                }
                for &b in holes.iter() {
                    buf[plan.buf_range(b)].fill(0);
                }
                block = group_end + 1;
            }
            self.io.read_runs(
                &self.blocks,
                &file.name,
                &plan,
                runs.iter().copied(),
                buf,
                |run, landed| {
                    self.finish_run(file, run, &keys[run.tag..run.tag + run.blocks], landed)
                },
            )
        })
    }

    /// The codec half of a span-read run, called by the driver once the
    /// run's read has landed: the staged head block, the middle and the
    /// staged tail block are each opened by [`Engine::open_blocks`], in that
    /// order, so of several bad blocks the first is reported. Blocks a short
    /// read could not produce (a key present but the data never on disk —
    /// only possible after an unrecovered crash) read as holes, exactly like
    /// the per-block path, and never leak a staging block's stale bytes. A
    /// fully aligned run — the steady-state shape — has no edges: its
    /// ciphertext landed in the caller's buffer and is opened there, with
    /// zero allocation.
    fn finish_run(
        &self,
        file: &LamassuFile,
        run: &Run,
        keys: &[Key256],
        landed: Landed<'_>,
    ) -> Result<()> {
        let bs = self.geometry.block_size();
        let Landed { n, head, mid, tail } = landed;
        let read_blocks = (n / bs).min(keys.len());
        let head_blocks = head.is_some() as usize;
        let tail_at = head_blocks + mid.len() / bs;
        for (at, part) in [(0, head), (head_blocks, Some(mid)), (tail_at, tail)] {
            let Some(part) = part else { continue };
            let read = read_blocks.saturating_sub(at).min(part.len() / bs);
            let (part, unread) = part.split_at_mut(read * bs);
            unread.fill(0);
            self.open_blocks(file, run.first + at as u64, &keys[at..at + read], part)?;
        }
        Ok(())
    }

    /// Opens `blocks` — the landed ciphertext of consecutive logical blocks
    /// from `first`, one key each — into plaintext in place. Blocks the read
    /// memo holds are copied out of it; the misses go through
    /// [`Engine::open_batch`] — in place when nothing hit, so a cold run runs
    /// exactly as it would without a memo, and otherwise compacted into
    /// thread-local staging, so they still reach the wide kernels and the
    /// pool's fan-out as one batch. A miss on its second sighting is admitted
    /// once the batch has passed §2.5; its ciphertext is saved first when the
    /// batch decrypts in place.
    fn open_blocks(
        &self,
        file: &LamassuFile,
        first: u64,
        keys: &[Key256],
        blocks: &mut [u8],
    ) -> Result<()> {
        let violation = |i: usize| FsError::IntegrityViolation {
            path: file.name.clone(),
            logical_block: first + i as u64,
        };
        let version = file.version;
        let Some(memo) = self.memo.as_ref().filter(|_| !keys.is_empty()) else {
            return self
                .open_batch(version, keys, blocks, false)
                .map_err(violation);
        };
        let bs = self.geometry.block_size();
        let at = |i: usize| i * bs..(i + 1) * bs;
        with_tls(&MISS_SCRATCH, |(misses, stage, miss_keys)| {
            misses.clear();
            stage.clear();
            miss_keys.clear();
            let hits = memo.serve(version, keys, blocks, misses);
            let candidates = || misses.iter().filter(|(_, candidate)| *candidate);
            if hits == 0 {
                for &(i, _) in candidates() {
                    stage.extend_from_slice(&blocks[at(i)]);
                }
                self.open_batch(version, keys, blocks, false)
                    .map_err(violation)?;
                let saved = stage.chunks_exact(bs);
                memo.admit(
                    version,
                    Admit::Read,
                    candidates()
                        .zip(saved)
                        .map(|(&(i, _), cipher)| (&keys[i], cipher, &blocks[at(i)])),
                );
            } else if !misses.is_empty() {
                for &(i, _) in misses.iter() {
                    stage.extend_from_slice(&blocks[at(i)]);
                    miss_keys.push(keys[i]);
                }
                self.open_batch(version, miss_keys, stage, false)
                    .map_err(|j| violation(misses[j].0))?;
                memo.admit(
                    version,
                    Admit::Read,
                    misses
                        .iter()
                        .zip(stage.chunks_exact(bs))
                        .filter(|((_, candidate), _)| *candidate)
                        .map(|(&(i, _), plain)| (&keys[i], &blocks[at(i)], plain)),
                );
                for (&(i, _), plain) in misses.iter().zip(stage.chunks_exact(bs)) {
                    blocks[at(i)].copy_from_slice(plain);
                }
            }
            Ok(())
        })
    }

    /// Decrypts `data` — whole blocks, one key each — in place as one batch
    /// and, under full integrity or when `check` forces it, re-derives every
    /// key as one batch into thread-local scratch for the §2.5 check,
    /// compared in constant time (both sides are key material). `Err(i)`:
    /// block `i` is the first whose plaintext does not re-derive its key.
    pub(super) fn open_batch(
        &self,
        version: HashVersion,
        keys: &[Key256],
        data: &mut [u8],
        check: bool,
    ) -> std::result::Result<(), usize> {
        if keys.is_empty() {
            return Ok(());
        }
        let bs = self.geometry.block_size();
        self.profiler.time(Category::Decrypt, || {
            batch::decrypt_span(&self.pool, keys, &FIXED_IV, data, bs, KERNELS)
                .expect("data blocks are 16-byte aligned")
        });
        if !check && self.integrity == IntegrityMode::MetaOnly {
            return Ok(());
        }
        with_tls(&KEY_SCRATCH, |derived| {
            derived.clear();
            derived.resize(keys.len(), [0u8; 32]);
            self.derive_batch(version, data, derived);
            match derived
                .iter()
                .zip(keys)
                .position(|(got, want)| !constant_time_eq(got, want))
            {
                Some(i) => Err(i),
                None => Ok(()),
            }
        })
    }
}
