//! The segment life cycle of §2.4: what the media holds for a segment, and
//! one function per transition.
//!
//! A segment's metadata block carries a mid-update mark and a transient area
//! of at most `R` entries, each the *previous* key of a block whose new key
//! the block already holds. As far as this mount knows, the media holds a
//! segment of a file in one of three states ([`Segment`]):
//!
//! * **closed** — no mark, an empty transient area;
//! * **open** — this mount's last commit of the file left it mid-update, and
//!   its transient entries name only blocks whose data has landed. An open
//!   segment is exactly a segment between two rounds of one commit: a crash
//!   leaves nothing recovery does not already handle, and recovery keeps
//!   every new key of it. The file's next commit closes it in its first
//!   metadata phase ([`OpenSegments`] is the file's list);
//! * **mid-update** — an interrupted commit this mount did not leave open:
//!   an unrecovered crash, or an unclean shutdown that left it open. Its
//!   entries may name blocks whose data never landed.
//!
//! The transitions, each with the metadata write it needs:
//!
//! * [`open_round`] — park the previous keys of a round's blocks, install
//!   the new ones, set the mark; it starts from an empty transient area, so
//!   the same write closes the round before (open → open). One write, before
//!   the round's data writes and behind a barrier;
//! * [`close`] — clear the transient area and the mark (open → closed). One
//!   write, after the last round's data barrier: a forced flush's last phase,
//!   the next commit's first phase, or the per-block oracle's third step;
//! * [`Engine::resolve`] — the recovery rule (mid-update → closed). It
//!   changes the block in memory; `recover` writes it at once, and a writer
//!   merges it into its own next write of the segment, which is why every
//!   writer that replaces a transient area takes the segment through
//!   [`Engine::take_segment`].

use super::engine::{Engine, LamassuFile};
use super::recover::RecoveryReport;
use crate::{FsError, Result};
use lamassu_crypto::Key256;
use lamassu_format::{Geometry, MetadataBlock, TransientEntry};
use std::ops::Range;

/// What the media holds for one segment of a file, as far as this mount
/// knows (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Segment {
    Closed,
    Open,
    MidUpdate,
}

/// The segments a file's last commit left open, ascending. The capacity is
/// reused across commits.
#[derive(Default)]
pub(super) struct OpenSegments(Vec<u64>);

impl OpenSegments {
    /// The state of `segment`, whose metadata block is `mb`.
    pub(super) fn state(&self, segment: u64, mb: &MetadataBlock) -> Segment {
        match mb.flags.is_mid_update() {
            false => Segment::Closed,
            true if self.0.binary_search(&segment).is_ok() => Segment::Open,
            true => Segment::MidUpdate,
        }
    }

    pub(super) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub(super) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().copied()
    }

    /// Forgets every open segment, so that the media is the truth: what
    /// `recover` starts from.
    pub(super) fn forget(&mut self) {
        self.0.clear();
    }

    /// Records the end of a commit of `segs`: the segments it wrote blocks
    /// to are open if it `left_open` them (it landed and did not close);
    /// otherwise none is — after a failed commit the media is the truth, and
    /// the next commit resolves what it finds mid-update.
    pub(super) fn commit_ended(&mut self, segs: &[SegCommit], left_open: bool) {
        self.0.clear();
        if left_open {
            let wrote = segs.iter().filter(|seg| !seg.blocks.is_empty());
            self.0.extend(wrote.map(|seg| seg.segment));
        }
    }
}

/// One segment's share of a staged commit batch.
pub(super) struct SegCommit {
    pub(super) segment: u64,
    /// The segment's metadata block, held outside the per-file cache while
    /// the commit runs: re-inserted on success, dropped on error.
    pub(super) mb: MetadataBlock,
    /// The segment's blocks, as an index range into the batch — empty for a
    /// segment the last commit left open that this one only closes.
    pub(super) blocks: Range<usize>,
    /// How many metadata phases, from the first, write the segment's block.
    pub(super) phases: usize,
}

impl SegCommit {
    /// `segment`'s share `blocks`, in rounds of at most `r`: one
    /// [`open_round`] write per round, plus a [`close`] if the commit
    /// `close`s its segments. A close-only share is one write.
    pub(super) fn new(
        segment: u64,
        mb: MetadataBlock,
        blocks: Range<usize>,
        r: usize,
        close: bool,
    ) -> Self {
        let phases = match blocks.len().div_ceil(r) {
            0 => 1,
            rounds => rounds + close as usize,
        };
        SegCommit {
            segment,
            mb,
            blocks,
            phases,
        }
    }

    /// Batch indices of the segment's `round`-th group of at most `r` blocks
    /// (empty once the segment has run out of blocks: its close).
    pub(super) fn round(&self, round: usize, r: usize) -> Range<usize> {
        let start = (self.blocks.start + round * r).min(self.blocks.end);
        start..(start + r).min(self.blocks.end)
    }
}

/// Open a round: for each `(logical block, new key)`, park the block's
/// previous key in the transient area and install the new one, and set the
/// mid-update mark. It starts by closing, so the write that opens a round
/// also closes the one before; with no blocks it *is* [`close`]. Needs one
/// metadata write, behind a barrier, before the round's data writes.
pub(super) fn open_round(
    geometry: &Geometry,
    mb: &mut MetadataBlock,
    blocks: impl Iterator<Item = (u64, Key256)>,
) -> Result<()> {
    close(mb);
    for (block, key) in blocks {
        let slot = geometry.locate_block(block).slot;
        let old_key = mb.key(slot).copied().unwrap_or([0u8; 32]);
        let entry = TransientEntry {
            slot: slot as u16,
            old_key,
        };
        mb.push_transient(geometry, entry)?;
        mb.set_key(slot, key)?;
        mb.flags.set_mid_update(true);
    }
    Ok(())
}

/// Close: clear the transient area and the mid-update mark. Needs one
/// metadata write, after the data barrier of the segment's last round.
pub(super) fn close(mb: &mut MetadataBlock) {
    mb.clear_transient();
    mb.flags.set_mid_update(false);
}

impl Engine {
    /// `segment`'s metadata block, out of the cache, for a writer about to
    /// replace its transient area or its keys: a segment the media holds
    /// mid-update that the file did not leave open is resolved first
    /// ([`Engine::resolve`]), in memory, so the writer's own write carries
    /// the resolution.
    pub(super) fn take_segment(&self, file: &LamassuFile, segment: u64) -> Result<MetadataBlock> {
        let mut mb = self.take_meta(file, segment)?;
        if file.open.state(segment, &mb) == Segment::MidUpdate {
            let physical = self.io.call(|s| s.len(&file.name))?;
            let mut report = RecoveryReport::default();
            self.resolve(file, segment, &mut mb, physical, &mut report)?;
        }
        Ok(mb)
    }

    /// Clears the keys of `blocks` (a truncate's dropped blocks) with one
    /// metadata write per segment. Each segment is taken for writing
    /// ([`Engine::take_segment`]), so one the media holds mid-update is
    /// resolved before keys its transient area may name are cleared.
    pub(super) fn drop_keys(&self, file: &LamassuFile, blocks: Range<u64>) -> Result<()> {
        let n = self.geometry.keys_per_metadata_block() as u64;
        let mut block = blocks.start;
        while block < blocks.end {
            let segment = block / n;
            let clear_to = ((segment + 1) * n).min(blocks.end);
            let mut mb = self.take_segment(file, segment)?;
            for b in block..clear_to {
                mb.clear_key((b % n) as usize)?;
            }
            self.put_meta(file, segment, mb)?;
            block = clear_to;
        }
        Ok(())
    }

    /// Resolve: the recovery rule of §2.4, applied to `segment`'s metadata
    /// block `mb` in memory. Every block its transient area names keeps its
    /// new key if the data on the media opens under it ([`Engine::open_batch`]
    /// with the check forced), and otherwise gets its previous key back if
    /// the data opens under that — or none, if it had none (a brand-new block
    /// whose data never landed). Then the segment is closed. `physical` is
    /// the object's length on the media; a block past it never landed.
    pub(super) fn resolve(
        &self,
        file: &LamassuFile,
        segment: u64,
        mb: &mut MetadataBlock,
        physical: u64,
        report: &mut RecoveryReport,
    ) -> Result<()> {
        let bs = self.geometry.block_size();
        let first = segment * self.geometry.keys_per_metadata_block() as u64;
        let (mut landed, mut plain) = (self.blocks.take(), self.blocks.take());
        for i in 0..mb.transient().len() {
            let TransientEntry { slot, old_key } = mb.transient()[i];
            let slot = slot as usize;
            let offset = self
                .geometry
                .locate_block(first + slot as u64)
                .physical_offset;
            let on_disk = offset + bs as u64 <= physical;
            if on_disk {
                self.io
                    .call(|s| s.read_into(&file.name, offset, &mut landed))?;
            }
            // One decrypt, one re-derivation, a constant-time compare.
            let mut opens = |key: &Key256| {
                on_disk && {
                    plain.copy_from_slice(&landed);
                    let opened = self.open_batch(file.version, &[*key], &mut plain, true);
                    opened.is_ok()
                }
            };
            let had_old = old_key != [0u8; 32];
            match mb.key(slot).copied() {
                Some(new_key) if opens(&new_key) => report.blocks_kept_new += 1,
                _ if had_old && opens(&old_key) => {
                    mb.set_key(slot, old_key)?;
                    report.blocks_restored_old += 1;
                }
                _ if had_old => {
                    return Err(FsError::Unrecoverable {
                        path: file.name.clone(),
                        segment,
                    })
                }
                _ => {
                    mb.clear_key(slot)?;
                    report.blocks_cleared += 1;
                }
            }
        }
        close(mb);
        report.segments_repaired += 1;
        Ok(())
    }
}
