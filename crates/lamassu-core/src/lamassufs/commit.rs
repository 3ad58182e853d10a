//! The multiphase commit of §2.4: the span pipeline, the memo's commit side
//! and the per-block oracle.
//!
//! A flush commits the whole pending set as one pipeline
//! ([`Engine::commit_batch`]): stage up to one span of blocks contiguously,
//! derive every key and encrypt the span with one batch call each, then run
//! the §2.4 protocol as pure sealing and I/O ([`Engine::commit_rounds`]) —
//! rounds of at most `R` overwrites per segment, round *j* of every touched
//! segment in the same pair of phases, the metadata write that closes one
//! round merged with the one that opens the next. Each overwrite keeps its
//! segment's metadata → data → metadata order, so recovery is untouched;
//! several segments can be mid-update at one crash.
//!
//! A *fresh* block — one whose slot holds no key, so there is no previous
//! key to park — takes no round: its data goes out in the first data phase
//! and the install transition puts its key in the segment's next metadata
//! write, after that phase's barrier. An appending batch is three phases:
//! the metadata block of the segment its data makes the last one on the
//! media, the data, the installs. The rules are the `segment` module's.
//!
//! The same merge runs *across* commits: a commit that `write` runs because
//! the span filled leaves every segment it wrote open, and the file's next
//! commit closes them in its own first metadata phase. Which state a segment
//! is in, what each transition writes, and how a segment the media holds
//! mid-update is resolved before a commit rewrites it, are the `segment`
//! module's; this module only sequences the transitions into phases.
//!
//! A span commit ([`Engine::encrypt_reusing`]) consults the read memo for
//! every block of the batch after the one batch derive. A hit — same key,
//! equal plaintext — takes the entry's ciphertext instead of being
//! encrypted; the misses are encrypted as one batch. Once the commit has
//! landed it admits its duplicates and its overwrites of memoized blocks.

use super::engine::{fresh_nonce, Engine, LamassuFile, SPAN_BLOCKS, UNKNOWN_SEGMENTS};
use super::memo::{Admit, ReadMemo};
use super::read::{KEY_SCRATCH, MISS_SCRATCH};
use super::segment::{self, SegCommit};
use crate::pool::{with_tls, BlockBuf};
use crate::profiler::Category;
use crate::span::{SpanPolicy, KERNELS};
use crate::spanio::WriteBatch;
use crate::Result;
use lamassu_crypto::kdf::HashVersion;
use lamassu_crypto::{batch, Key256, FIXED_IV};
use std::cell::RefCell;
use std::io::IoSlice;
use std::ops::Range;

thread_local! {
    /// One metadata phase of a commit: a pooled block per segment the phase
    /// writes, and those segments (the blocks go back to the pool when the
    /// phase has been submitted).
    static SEAL_SCRATCH: RefCell<(Vec<BlockBuf>, Vec<PhaseSeg>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// A segment that writes its metadata block in the current phase: its index
/// in the batch's segment list, and the nonce it is sealed under.
type PhaseSeg = (usize, [u8; 12]);

impl Engine {
    /// Commits every buffered block and persists the logical size; `close`
    /// also closes the segments the commit leaves open (a forced flush),
    /// otherwise the next commit does (a `write` that fills the span).
    ///
    /// The whole pending set goes through [`Engine::commit_batch`] (the
    /// per-block oracle: [`Engine::commit_chunk`], one chunk at a time).
    ///
    /// A failed flush has one rule: **no block of it stays half-pending**.
    /// Everything still buffered is dropped with it — the caller got the
    /// error instead of an acknowledgement — and the metadata-cache entry of
    /// every segment the failed commit touched is gone (the pipeline holds
    /// them outside the cache and only re-inserts them on success), so later
    /// reads refetch the on-disk truth, which [`Engine::recover`] repairs.
    pub(super) fn commit_buffer(&self, file: &mut LamassuFile, close: bool) -> Result<()> {
        let result = self
            .commit_pending(file, close)
            .and_then(|()| self.persist_size(file));
        if result.is_err() {
            file.pending.clear();
            file.media_segments = UNKNOWN_SEGMENTS;
        }
        // Bounded staging: the next span commit reuses the buffer (it would
        // otherwise reallocate a span per commit), and amortized growth never
        // leaves more than one span pinned to an open file.
        let keep = SPAN_BLOCKS * self.geometry.block_size();
        file.commit_buf.clear();
        if file.commit_buf.capacity() > keep {
            file.commit_buf.shrink_to(keep);
        }
        result
    }

    /// Commits the pending set batch by batch. Every batch leaves its
    /// segments open for the next to close, except the last of a `close`
    /// flush — which, with nothing pending, is a batch that only closes.
    fn commit_pending(&self, file: &mut LamassuFile, close: bool) -> Result<()> {
        if file.media_segments == UNKNOWN_SEGMENTS {
            file.media_segments = self.media_segments(&file.name)?;
        }
        match self.policy {
            SpanPolicy::Batched => {
                while !file.pending.is_empty() || (close && !file.open.is_empty()) {
                    let last = file.pending.len() <= SPAN_BLOCKS;
                    self.commit_batch(file, close && last)?;
                }
            }
            SpanPolicy::PerBlock => {
                while !file.pending.is_empty() {
                    self.commit_chunk(file)?;
                }
            }
        }
        Ok(())
    }

    /// Writes the logical size into the final segment's metadata block if no
    /// commit carried it there already.
    pub(super) fn persist_size(&self, file: &mut LamassuFile) -> Result<()> {
        if file.size_dirty {
            let final_segment = self.final_segment(file);
            let size = file.logical_size;
            self.update_meta(file, final_segment, |mb| {
                mb.logical_size = size;
                Ok(())
            })?;
            file.size_dirty = false;
        }
        Ok(())
    }

    /// Index of the segment holding the authoritative logical size.
    fn final_segment(&self, file: &LamassuFile) -> u64 {
        self.geometry.segments_for_len(file.logical_size).max(1) - 1
    }

    /// Commits the first (up to) [`SPAN_BLOCKS`] pending blocks as one
    /// pipeline: stage them contiguously, derive every key in one batch and
    /// encrypt the staged span in one batch — so the wide kernels and the
    /// worker pool see the whole set, not `R` blocks at a time; with a read
    /// memo, only the blocks it cannot give the ciphertext of
    /// ([`Engine::encrypt_reusing`]) — and only then run the §2.4 protocol
    /// over them as pure sealing and I/O ([`Engine::commit_rounds`]). The
    /// pooled staging buffers return to the pool the moment their plaintext
    /// is copied out. Unless the batch `close`s, the segments it opens rounds
    /// in are the file's open set afterwards.
    fn commit_batch(&self, file: &mut LamassuFile, close: bool) -> Result<()> {
        let k = file.pending.len().min(SPAN_BLOCKS);
        let (mut data, ids) = self.stage(file, k);
        let mut segs = std::mem::take(&mut file.commit_segs);
        let result = with_tls(&KEY_SCRATCH, |keys| {
            keys.clear();
            keys.resize(k, [0u8; 32]);
            if k > 0 {
                self.derive_batch(file.version, &data, keys);
            }
            let mut commit =
                |data: &[u8]| self.commit_rounds(file, &ids, keys, data, &mut segs, close);
            match self.memo.as_ref().filter(|_| k > 0) {
                Some(memo) => self.encrypt_reusing(memo, file, &ids, keys, &mut data, commit),
                None => {
                    self.encrypt_batch(keys, &mut data);
                    commit(&data)
                }
            }
        });
        file.open.commit_ended(&segs, result.is_ok());
        if result.is_ok() {
            if let Some(&last) = ids.last() {
                let segments = self.geometry.locate_block(last).segment + 1;
                file.media_segments = file.media_segments.max(segments);
            }
            for seg in segs.drain(..) {
                file.cache_meta(seg.segment, seg.mb);
            }
        }
        // After an error this is what drops the touched segments' metadata.
        segs.clear();
        file.commit_buf = data;
        file.commit_ids = ids;
        file.commit_segs = segs;
        if result? {
            file.size_dirty = false;
        }
        Ok(())
    }

    /// Moves the first `k` pending blocks into the file's reusable commit
    /// staging: their plaintext, contiguous, and their indices. The pooled
    /// buffers return to the pool as they are copied out; the caller hands
    /// both vectors back to the file when the commit ends.
    fn stage(&self, file: &mut LamassuFile, k: usize) -> (Vec<u8>, Vec<u64>) {
        let mut data = std::mem::take(&mut file.commit_buf);
        let mut ids = std::mem::take(&mut file.commit_ids);
        data.clear();
        data.reserve(k * self.geometry.block_size());
        ids.clear();
        for (block, plain) in file.pending.drain(..k) {
            ids.push(block);
            data.extend_from_slice(&plain);
        }
        (data, ids)
    }

    /// Derives the convergent key of every block of `data` into `keys` as one
    /// batch (Equation 1), charging the hash/KDF time to `GetCEKey`.
    pub(super) fn derive_batch(&self, version: HashVersion, data: &[u8], keys: &mut [Key256]) {
        let crypto = self.crypto.read();
        let bs = self.geometry.block_size();
        self.profiler.time(Category::GetCeKey, || {
            batch::derive_span_into(&self.pool, crypto.kdf(version), data, bs, keys, KERNELS)
                .expect("whole blocks, one key each")
        });
    }

    /// Encrypts `data` — whole blocks, one key each — in place as one batch
    /// (Equation 2). Fewer than [`batch::WIDE_MIN_BLOCKS`] chains — a
    /// per-block commit's one block above all — take the T-table fallback.
    fn encrypt_batch(&self, keys: &[Key256], data: &mut [u8]) {
        if keys.is_empty() {
            return;
        }
        let bs = self.geometry.block_size();
        self.profiler.time(Category::Encrypt, || {
            batch::encrypt_span(&self.pool, keys, &FIXED_IV, data, bs, KERNELS)
                .expect("batch is whole blocks")
        });
    }

    /// [`Engine::commit_batch`]'s encryption on a mount with a read memo:
    /// turns the staged batch in `data` — plaintext, `keys` derived from it —
    /// into its ciphertext, runs `commit` on it, and feeds the memo once the
    /// commit has landed. A block the memo holds with equal plaintext takes
    /// the entry's ciphertext ([`ReadMemo::reuse`]); only the misses are
    /// encrypted — in place when nothing hit, so a batch of new data runs
    /// exactly as it would without a memo, and otherwise compacted into
    /// thread-local staging, padded with filler chains so that the group
    /// never falls back to the T-table where the whole batch would not have
    /// ([`batch::wide_padding`]: only a group of fewer than
    /// [`batch::WIDE_MIN_BLOCKS`] misses out of a wider batch). The
    /// memo names the misses to admit; their plaintext is kept first — copied
    /// out before an in-place encrypt, or swapped back out of `data` after a
    /// compacted one.
    fn encrypt_reusing(
        &self,
        memo: &ReadMemo,
        file: &LamassuFile,
        ids: &[u64],
        keys: &[Key256],
        data: &mut [u8],
        commit: impl FnOnce(&[u8]) -> Result<bool>,
    ) -> Result<bool> {
        let bs = self.geometry.block_size();
        let at = |i: usize| i * bs..(i + 1) * bs;
        with_tls(&MISS_SCRATCH, |(misses, stage, miss_keys)| {
            misses.clear();
            stage.clear();
            miss_keys.clear();
            let hits = {
                // The key each block replaces, from the metadata cache only.
                let cache = file.meta_cache.lock();
                let old_key = |i: usize| {
                    let loc = self.geometry.locate_block(ids[i]);
                    cache.get(&loc.segment)?.key(loc.slot).copied()
                };
                memo.reuse(file.version, keys, data, old_key, misses)
            };
            if hits == 0 {
                for &(i, _) in misses.iter().filter(|(_, candidate)| *candidate) {
                    stage.extend_from_slice(&data[at(i)]);
                }
                self.encrypt_batch(keys, data);
            } else if !misses.is_empty() {
                for &(i, _) in misses.iter() {
                    stage.extend_from_slice(&data[at(i)]);
                    miss_keys.push(keys[i]);
                }
                // Filler chains (copies of the last miss) keep a narrow
                // group off the T-table, unless the batch was on it too.
                let fill = match batch::wide_padding(keys.len()) {
                    0 => batch::wide_padding(misses.len()),
                    _ => 0,
                };
                let last = stage.len() - bs;
                for _ in 0..fill {
                    stage.extend_from_within(last..last + bs);
                    miss_keys.push(miss_keys[misses.len() - 1]);
                }
                self.encrypt_batch(miss_keys, stage);
                for (&(i, _), block) in misses.iter().zip(stage.chunks_exact_mut(bs)) {
                    data[at(i)].swap_with_slice(block);
                }
            }
            let wrote_size = commit(data)?;
            // The stage holds the candidates' plaintext, or every miss's.
            let data = &*data;
            let staged = misses
                .iter()
                .filter(|(_, candidate)| hits > 0 || *candidate);
            memo.admit(
                file.version,
                Admit::Commit,
                staged
                    .zip(stage.chunks_exact(bs))
                    .filter(|((_, candidate), _)| *candidate)
                    .map(|(&(i, _), plain)| (&keys[i], &data[at(i)], plain)),
            );
            Ok(wrote_size)
        })
    }

    /// The multiphase commit of §2.4 for one staged batch: `ids` ascending,
    /// `keys` and the ciphertext in `data` parallel to it. Returns whether
    /// the batch wrote the authoritative logical size.
    ///
    /// Each touched segment's overwrites — blocks whose slot holds a key —
    /// are cut into rounds of at most `R` (the transient area holds `R`
    /// previous keys); its fresh blocks take no round (the `segment` module's
    /// rules). Phase *p* of **every** segment runs in the same pair of
    /// phases, each closed by one barrier:
    ///
    /// 1. *metadata*: each segment that writes in the phase takes its
    ///    transition ([`SegCommit::step`]): in phase *p* it opens its round
    ///    *p* ([`segment::open_round`]) — merged with the close of round
    ///    *p − 1*, so a segment with `n` rounds is sealed `n + 1` times, not
    ///    `2n` — or closes; in phase 1 it also installs its fresh blocks'
    ///    keys ([`segment::install`]). A segment whose data makes it the new
    ///    last one on the media writes its block in phase 0 even with no
    ///    round to open. The phase's blocks are sealed as one batch
    ///    ([`Engine::seal_and_submit_phase`]) and then submitted in segment
    ///    order;
    /// 2. *data*: in phase 0 every fresh block and round 0, in phase *p*
    ///    round *p*; one backend write per run of adjacent blocks.
    ///
    /// So an appending batch is three phases — the new last segment's first
    /// write, all the data, the installs — whatever `R` is, and a batch of
    /// overwrites takes as many pairs as its longest segment has rounds.
    ///
    /// A batch that `close`s ends with a metadata phase of close transitions;
    /// any other leaves every segment it opened rounds in open, and the
    /// file's next batch closes them in its first write of the segment —
    /// merged with the opening write of a segment it writes again, or as a
    /// close-only write of one it does not — so no phase or barrier is added.
    /// Every segment the batch writes is taken through
    /// [`Engine::take_segment`] first, which resolves one the media holds
    /// mid-update.
    ///
    /// Every overwritten block still sees the order the recovery rules
    /// assume — metadata, barrier, its data, barrier, metadata — so whatever
    /// a crash leaves behind, each segment is either clean or mid-update with
    /// the previous key of every overwrite whose data write may not have
    /// landed, and a fresh block whose key is on the media has its data
    /// there. *Several* segments can be mid-update at once; recovery already
    /// scans them all.
    ///
    /// The writes go through one [`crate::spanio::SpanIo::write_batch`]: a
    /// phase's writes are submitted back to back and overlap on the
    /// channel's queue-depth lanes, their results — injected faults included
    /// — surfacing at the phase's barrier.
    fn commit_rounds(
        &self,
        file: &LamassuFile,
        ids: &[u64],
        keys: &[Key256],
        data: &[u8],
        segs: &mut Vec<SegCommit>,
        close: bool,
    ) -> Result<bool> {
        let bs = self.geometry.block_size();
        let r = self.geometry.reserved_slots();
        let final_segment = self.final_segment(file);
        let segment_of = |block: u64| self.geometry.locate_block(block).segment;
        // The segment the batch's data reaches last, if the media does not
        // hold it yet.
        let grown = ids
            .last()
            .map(|&b| segment_of(b))
            .filter(|&last| last >= file.media_segments);
        let mut fresh = [false; SPAN_BLOCKS];
        let fresh = &mut fresh[..ids.len()];

        // The metadata block of every segment the batch writes — the ones it
        // touches and the ones the last batch left open, in segment order —
        // leaves the cache for the duration; they go back only once the
        // commit is whole.
        segs.clear();
        let mut push = |segment: u64, blocks: Range<usize>| -> Result<()> {
            let mb = self.take_segment(file, segment)?;
            let grows = grown == Some(segment);
            let seg = SegCommit::new(
                &self.geometry,
                segment,
                mb,
                blocks,
                ids,
                fresh,
                close,
                grows,
            );
            segs.push(seg);
            Ok(())
        };
        let mut open = file.open.iter().peekable();
        let mut first = 0;
        while first < ids.len() {
            let segment = segment_of(ids[first]);
            let len = ids[first..]
                .iter()
                .take_while(|b| segment_of(**b) == segment)
                .count();
            while let Some(idle) = open.next_if(|&s| s < segment) {
                push(idle, first..first)?;
            }
            open.next_if_eq(&segment);
            push(segment, first..first + len)?;
            first += len;
        }
        for idle in open {
            push(idle, first..first)?;
        }
        let fresh = &*fresh;
        let phases = segs.iter().map(|seg| seg.phases).max().unwrap_or(0);
        if !ids.is_empty() {
            let touched = segs.iter().filter(|seg| !seg.blocks.is_empty()).count();
            self.profiler
                .commit_recorded(ids.len() as u64, touched as u64);
        }
        let media_size = match segs.iter().any(|seg| seg.initializes(0)) {
            true => self.media_size(file, segs)?,
            false => 0,
        };

        self.io.write_batch(&file.name, |io| {
            for phase in 0..phases {
                // Metadata phase: every segment that writes in it. Every
                // block is updated before any is submitted, so an update
                // that cannot be made fails with nothing in flight.
                for seg in segs.iter_mut().filter(|seg| seg.writes_in(phase)) {
                    seg.step(&self.geometry, phase, ids, keys, fresh)?;
                    // Only the final segment's copy is authoritative, but a
                    // crash can leave any touched segment as the last one on
                    // the media, which is where the size is read from.
                    seg.mb.logical_size = match seg.initializes(phase) {
                        true => media_size,
                        false => file.logical_size,
                    };
                }
                self.seal_and_submit_phase(io, segs, phase);
                io.barrier()?;

                // Data phase: one write per run of adjacent blocks (`ids` is
                // ascending, and consecutive blocks of one segment are
                // physically contiguous, so each run is one slice of the
                // staging buffer).
                for seg in segs.iter() {
                    let mut blocks = seg.data(phase, r, fresh).peekable();
                    while let Some(i) = blocks.next() {
                        let mut j = i + 1;
                        while blocks
                            .next_if(|&k| k == j && ids[k] == ids[k - 1] + 1)
                            .is_some()
                        {
                            j += 1;
                        }
                        let offset = self.geometry.locate_block(ids[i]).physical_offset;
                        io.write(offset, &[IoSlice::new(&data[i * bs..j * bs])]);
                    }
                }
                io.barrier()?;
            }
            Ok(())
        })?;
        Ok(segs.iter().any(|seg| seg.segment == final_segment))
    }

    /// The logical size the loader reads from the media now: the one its
    /// last segment holds — from the batch's copy if the batch has taken
    /// that segment, before any transition changed it.
    fn media_size(&self, file: &LamassuFile, segs: &[SegCommit]) -> Result<u64> {
        let Some(last) = file.media_segments.checked_sub(1) else {
            return Ok(0);
        };
        match segs.iter().find(|seg| seg.segment == last) {
            Some(seg) => Ok(seg.mb.logical_size),
            None => self.with_meta(file, last, |mb| mb.logical_size),
        }
    }

    /// Seals the metadata block of every segment that writes one in phase
    /// `phase` as one batch, into pooled blocks, then submits the writes in
    /// segment order — the order, and so the backend schedule, of sealing
    /// and submitting them one by one. The nonces are drawn here, on the
    /// caller's thread; the seals (an AES-GCM pass over a block each, the
    /// most expensive single kernel of the write path) fan out by the pool's
    /// tile rule, so a phase of fewer than two tiles of segments — every
    /// sequential commit — seals inline.
    fn seal_and_submit_phase(&self, io: &mut WriteBatch<'_>, segs: &[SegCommit], phase: usize) {
        with_tls(&SEAL_SCRATCH, |(sealed, writing)| {
            sealed.clear();
            writing.clear();
            writing.extend(
                (0..segs.len())
                    .filter(|&i| segs[i].writes_in(phase))
                    .map(|i| (i, fresh_nonce())),
            );
            sealed.extend((0..writing.len()).map(|_| self.blocks.take()));
            {
                let crypto = self.crypto.read();
                self.profiler.time(Category::Encrypt, || {
                    self.pool.zip_for_each(sealed, writing, |out, (i, nonce)| {
                        let seg = &segs[*i];
                        seg.mb.seal_into(
                            &self.geometry,
                            &crypto.gcm,
                            nonce,
                            &Self::aad(seg.segment),
                            out,
                        )
                    })
                });
            }
            self.profiler.meta_sealed(writing.len() as u64);
            for (block, (i, _)) in sealed.iter().zip(writing.iter()) {
                let offset = self.geometry.metadata_block_offset(segs[*i].segment);
                io.write(offset, &[IoSlice::new(block)]);
            }
            // The store has copied the bytes out: back to the pool.
            sealed.clear();
        })
    }

    /// The per-block oracle's flush step ([`SpanPolicy::PerBlock`]): the
    /// multiphase commit of §2.4 for the leading run of at most `R` pending
    /// blocks of one segment, one block at a time, as the original prototype
    /// did it — the chunk-at-a-time commit the differential tests replay the
    /// pipeline against:
    ///
    /// 1. derive each key, take the segment for writing
    ///    ([`Engine::take_segment`]), open one round over the chunk
    ///    ([`segment::open_round`]) and write the metadata block;
    /// 2. encrypt and write each data block with its own backend operation;
    /// 3. close the segment ([`segment::close`]) and write the metadata block
    ///    again.
    fn commit_chunk(&self, file: &mut LamassuFile) -> Result<()> {
        let bs = self.geometry.block_size();
        let segment = self.geometry.locate_block(file.pending[0].0).segment;
        let k = file
            .pending
            .iter()
            .take(self.geometry.reserved_slots())
            .take_while(|(b, _)| self.geometry.locate_block(*b).segment == segment)
            .count();
        let is_final = segment == self.final_segment(file);
        self.profiler.commit_recorded(k as u64, 1);
        let (mut data, blocks) = self.stage(file, k);

        let result = with_tls(&KEY_SCRATCH, |new_keys| {
            // One derivation per block, as the prototype did.
            new_keys.clear();
            new_keys.resize(k, [0u8; 32]);
            for (plain, key) in data.chunks_exact(bs).zip(new_keys.iter_mut()) {
                self.derive_batch(file.version, plain, std::slice::from_mut(key));
            }
            let mut mb = self.take_segment(file, segment)?;
            let opening = blocks.iter().copied().zip(new_keys.iter().copied());
            segment::open_round(&self.geometry, &mut mb, opening)?;
            if is_final {
                mb.logical_size = file.logical_size;
            }
            self.put_meta(file, segment, mb)?;

            for ((block, key), cipher) in blocks
                .iter()
                .zip(new_keys.iter())
                .zip(data.chunks_exact_mut(bs))
            {
                self.encrypt_batch(std::slice::from_ref(key), cipher);
                let offset = self.geometry.locate_block(*block).physical_offset;
                self.io
                    .write_one(&file.name, offset, &[IoSlice::new(cipher)])?;
            }

            self.update_meta(file, segment, |mb| {
                segment::close(mb);
                Ok(())
            })
        });
        file.commit_buf = data;
        file.commit_ids = blocks;
        result?;
        if is_final {
            file.size_dirty = false;
        }
        Ok(())
    }
}
