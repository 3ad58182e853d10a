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
//!   metadata write of the segment ([`OpenSegments`] is the file's list);
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
//!   the next commit's first write of the segment, or the per-block oracle's
//!   third step;
//! * [`install`] — set the keys of a commit's *fresh* blocks (below). It
//!   leaves the mark and the transient area as they are, so it merges with
//!   whatever other transition the segment's write carries;
//! * [`Engine::resolve`] — the recovery rule (mid-update → closed). It
//!   changes the block in memory; `recover` writes it at once, and a writer
//!   merges it into its own next write of the segment, which is why every
//!   writer that replaces a transient area takes the segment through
//!   [`Engine::take_segment`].
//!
//! # Fresh blocks
//!
//! The transient area exists to keep an overwritten block's previous key
//! recoverable. A block whose slot holds no key once the segment has been
//! taken for writing — an append, a hole fill, a slot a truncate cleared —
//! has no previous key to keep, and the span pipeline commits it data-first
//! instead, as ordered journaling commits a newly allocated block. The
//! rules, kept by [`SegCommit`]:
//!
//! * **never before its data** — a fresh block's data goes out in the
//!   commit's first data phase, and its key reaches the media in the
//!   segment's next metadata write, after that phase's barrier (an
//!   [`install`]). A fresh block never enters a transient area and no
//!   round's `R` limit applies to it, so a segment's fresh blocks go out as
//!   contiguous runs. A crash before the install leaves its slot empty:
//!   the block reads as a hole, and recovery has nothing to do for it;
//! * **never a never-written last segment** — the loader reads the logical
//!   size from the last segment present on the media, and an all-zero
//!   metadata block reads as empty (size 0). So the segment a commit's data
//!   would make the last one present has its metadata block written first,
//!   one barrier before that data: the block as it is, closed, carrying the
//!   size the loader reads before the commit;
//! * **installed before the commit returns** — a commit with fresh blocks
//!   ends with the metadata phase that installs them and the logical size,
//!   merged with an opening or a closing write where the segment has one.
//!   A segment with overwrite rounds still stays open for the next commit
//!   when the commit does not close; a segment with only fresh blocks ends
//!   closed. A failed install leaves the fresh blocks as holes.

use super::engine::{Engine, LamassuFile};
use super::recover::RecoveryReport;
use crate::{FsError, Result};
use lamassu_crypto::Key256;
use lamassu_format::{Geometry, MetadataBlock, TransientEntry};
use std::io::IoSliceMut;
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

    /// Records the end of a commit of `segs`: if it `landed`, the segments
    /// it opened rounds in and did not close are open; otherwise none is —
    /// after a failed commit the media is the truth, and the next commit
    /// resolves what it finds mid-update.
    pub(super) fn commit_ended(&mut self, segs: &[SegCommit], landed: bool) {
        self.0.clear();
        if landed {
            let open = segs.iter().filter(|seg| seg.left_open());
            self.0.extend(open.map(|seg| seg.segment));
        }
    }
}

/// One segment's share of a staged commit batch, and the order of its
/// metadata writes: phase `p` of a commit is a metadata write of every
/// segment that [`writes_in`](SegCommit::writes_in) it, a barrier, the
/// segment's [`data`](SegCommit::data) of that phase, a barrier.
pub(super) struct SegCommit {
    pub(super) segment: u64,
    /// The segment's metadata block, held outside the per-file cache while
    /// the commit runs: re-inserted on success, dropped on error.
    pub(super) mb: MetadataBlock,
    /// The segment's blocks, as an index range into the batch — empty for a
    /// segment the last commit left open that this one only closes.
    pub(super) blocks: Range<usize>,
    /// Rounds of at most `R` of its overwrites (blocks that had a key).
    rounds: usize,
    /// Whether its phase-0 write is the one that keeps it from being a
    /// never-written last segment (see the module docs).
    initializes: bool,
    /// Whether the commit closes it after its last round.
    close: bool,
    /// How many metadata phases, from the first, the segment takes part in.
    pub(super) phases: usize,
}

impl SegCommit {
    /// `segment`'s share `blocks` of the batch `ids`, its metadata block `mb`
    /// taken for writing: marks which of its blocks are `fresh` and plans its
    /// writes — one [`open_round`] per round of at most `R` overwrites, an
    /// [`install`] in phase 1 if it has fresh blocks, a [`close`] if the
    /// commit `close`s, and a first write of its block in phase 0 if the
    /// commit's data `grows` the object into it. A close-only share is one
    /// write.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn new(
        geometry: &Geometry,
        segment: u64,
        mb: MetadataBlock,
        blocks: Range<usize>,
        ids: &[u64],
        fresh: &mut [bool],
        close: bool,
        grows: bool,
    ) -> Self {
        let mut overwrites = 0;
        for i in blocks.clone() {
            fresh[i] = mb.key(geometry.locate_block(ids[i]).slot).is_none();
            overwrites += !fresh[i] as usize;
        }
        let rounds = overwrites.div_ceil(geometry.reserved_slots());
        let has_fresh = overwrites < blocks.len();
        let initializes = grows && has_fresh && rounds == 0;
        let phases = match rounds {
            0 => 1,
            rounds => rounds + close as usize,
        };
        SegCommit {
            segment,
            mb,
            blocks,
            rounds,
            initializes,
            close,
            phases: phases.max(1 + has_fresh as usize),
        }
    }

    /// Whether the segment writes its metadata block in phase `phase`. One
    /// with only fresh blocks first writes it with their install, in phase
    /// 1, unless its block must go out before their data.
    pub(super) fn writes_in(&self, phase: usize) -> bool {
        let early = self.rounds > 0 || self.blocks.is_empty() || self.initializes;
        phase < self.phases && (phase > 0 || early)
    }

    /// Whether the commit leaves the segment open: it opened rounds and does
    /// not close them.
    fn left_open(&self) -> bool {
        self.rounds > 0 && !self.close
    }

    /// Applies the segment's phase-`phase` transition to its metadata block:
    /// the round it opens (merged with the close of the round before, or of
    /// what the last commit left open), or its close; the install of its
    /// fresh blocks in phase 1.
    pub(super) fn step(
        &mut self,
        geometry: &Geometry,
        phase: usize,
        ids: &[u64],
        keys: &[Key256],
        fresh: &[bool],
    ) -> Result<()> {
        if phase < self.rounds || self.close || self.rounds == 0 {
            let round = self.data(phase, geometry.reserved_slots(), fresh);
            let opening = round.filter(|&i| !fresh[i]).map(|i| (ids[i], keys[i]));
            open_round(geometry, &mut self.mb, opening)?;
        }
        if phase == 1 {
            let fresh_blocks = self.blocks.clone().filter(|&i| fresh[i]);
            install(
                geometry,
                &mut self.mb,
                fresh_blocks.map(|i| (ids[i], keys[i])),
            )?;
        }
        Ok(())
    }

    /// Whether the segment's phase-`phase` write is the one that keeps it
    /// from being a never-written last segment: it carries the size the
    /// media held before the commit, not the new one.
    pub(super) fn initializes(&self, phase: usize) -> bool {
        phase == 0 && self.initializes
    }

    /// Batch indices of the blocks whose data goes out in data phase
    /// `phase`, ascending: every fresh block in phase 0, and the
    /// `phase`-th group of at most `r` overwrites.
    pub(super) fn data<'a>(
        &self,
        phase: usize,
        r: usize,
        fresh: &'a [bool],
    ) -> impl Iterator<Item = usize> + 'a {
        let mut overwrites = 0;
        self.blocks.clone().filter(move |&i| match fresh[i] {
            true => phase == 0,
            false => {
                overwrites += 1;
                (overwrites - 1) / r == phase
            }
        })
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

/// Install: for each `(logical block, new key)` of a fresh block — one whose
/// slot holds no key — set its key. The transient area and the mark stay as
/// they are. Needs one metadata write, after the data barrier of the blocks'
/// data writes.
pub(super) fn install(
    geometry: &Geometry,
    mb: &mut MetadataBlock,
    blocks: impl Iterator<Item = (u64, Key256)>,
) -> Result<()> {
    for (block, key) in blocks {
        mb.set_key(geometry.locate_block(block).slot, key)?;
    }
    Ok(())
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
            let physical = self.io.len(&file.name)?;
            let mut report = RecoveryReport::default();
            self.resolve(file, segment, &mut mb, physical, &mut report)?;
        }
        Ok(mb)
    }

    /// Clears the keys of `blocks` (a truncate's dropped blocks) with one
    /// metadata write per segment. Each segment is taken for writing
    /// ([`Engine::take_segment`]), so one the media holds mid-update is
    /// resolved before keys its transient area may name are cleared.
    pub(super) fn drop_keys(&self, file: &mut LamassuFile, blocks: Range<u64>) -> Result<()> {
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
                let bufs = &mut [IoSliceMut::new(&mut landed)];
                self.io.read_one(&file.name, offset, bufs)?;
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
