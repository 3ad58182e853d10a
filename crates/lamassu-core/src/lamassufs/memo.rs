//! The read memo: plaintext this mount has already verified, keyed by what
//! that plaintext is a function of.
//!
//! §2.5 decrypts every block a read lands and re-derives its key from the
//! result. Both steps are pure functions of three things: the convergent key
//! the metadata names, the ciphertext the store returned, and the file's
//! format version (which KDF re-derives). So once a block has passed the
//! check, its plaintext *is* the outcome for that triple, and a block that
//! lands again with the same key, byte-identical ciphertext and the same
//! version can be served by copying it — no decrypt, no re-derivation — with
//! exactly the bytes the full path would have returned. Under convergent
//! encryption that is common: equal plaintext is equal key and equal
//! ciphertext, wherever in the volume it sits.
//!
//! An entry memoizes a pure function, so it never goes stale and needs no
//! invalidation: a write, rename or truncate changes which key the metadata
//! names for a block, not what an old pair decrypts to. A backend lie — a
//! flipped bit, a rolled-back or swapped block — changes the landed key or
//! ciphertext, misses, and fails on the full path exactly as it does on a
//! cold mount.
//!
//! * **Index.** [`SETS`] sets of [`WAYS`] ways, LRU within a set. A set is
//!   picked by bytes 0..8 of the ciphertext: its first CBC block, which is
//!   public and already uniform, so it needs no hash. Within the set the key
//!   is compared in constant time and the ciphertext in full.
//! * **Admission.** A block enters on its second sighting. A filter
//!   remembers the first CBC block ("tag") of up to [`SEEN_TAGS`] missed
//!   ciphertexts, in sets of [`SEEN_WAYS`] picked by tag bytes 8..16, oldest
//!   out first; a miss whose tag is already there is a candidate, and is
//!   admitted only after it passed §2.5. A stream of blocks read once
//!   therefore cannot flush the memo, and two blocks read in turn cannot
//!   keep pushing each other's tag out of a shared slot.
//! * **Bound.** [`MEMO_BLOCKS`] entries, four spans, each holding its
//!   ciphertext and its plaintext: `2 × MEMO_BLOCKS × block_size` bytes (8 MiB
//!   at 4 KiB blocks), allocated once, at the first admission. Lookups and
//!   admissions allocate nothing.
//! * **Locking.** One lock, taken once per run to look its blocks up and once
//!   to admit its candidates — tag compares and block copies — and never held
//!   across crypto or I/O.

use super::engine::SPAN_BLOCKS;
use crate::profiler::{MemoStats, Profiler};
use lamassu_crypto::kdf::HashVersion;
use lamassu_crypto::util::constant_time_eq;
use lamassu_crypto::Key256;
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;

/// Entries the memo holds: four spans' worth of blocks.
pub(super) const MEMO_BLOCKS: usize = 4 * SPAN_BLOCKS;

/// Ways per set.
const WAYS: usize = 8;

/// Sets of the index.
const SETS: usize = MEMO_BLOCKS / WAYS;

/// Tags of missed ciphertext the admission filter remembers (64 KiB).
const SEEN_TAGS: usize = 4 * MEMO_BLOCKS;

/// Tags per set of the admission filter.
const SEEN_WAYS: usize = 4;

/// The first CBC block of a ciphertext block: public bytes.
type Tag = [u8; 16];

fn tag_of(cipher: &[u8]) -> Tag {
    cipher[..16]
        .try_into()
        .expect("a data block holds an AES block")
}

/// Eight tag bytes as an index below `n`.
fn slot(bytes: &[u8], n: usize) -> usize {
    u64::from_le_bytes(bytes.try_into().expect("eight bytes")) as usize % n
}

/// One way of a set; `version: None` is an empty way.
#[derive(Clone, Copy)]
struct Entry {
    version: Option<HashVersion>,
    tag: Tag,
    key: Key256,
    /// Last use on the memo's clock (empty ways stay at 0, so they go first).
    used: u64,
}

const EMPTY: Entry = Entry {
    version: None,
    tag: [0; 16],
    key: [0; 32],
    used: 0,
};

struct State {
    entries: Vec<Entry>,
    /// Entry `i`'s ciphertext, then its plaintext: `2 × block_size` bytes at
    /// `2 × i × block_size`. Empty until the first admission.
    arena: Vec<u8>,
    seen: Vec<Tag>,
    clock: u64,
}

impl State {
    fn set(tag: &Tag) -> Range<usize> {
        let set = slot(&tag[..8], SETS);
        set * WAYS..(set + 1) * WAYS
    }

    /// Entry `i`'s ciphertext (`half` 0) or plaintext (`half` 1).
    fn block(&self, i: usize, half: usize, bs: usize) -> &[u8] {
        let at = (2 * i + half) * bs;
        &self.arena[at..at + bs]
    }

    /// The entry memoizing `(version, key, cipher)`, if there is one.
    fn find(&self, bs: usize, version: HashVersion, key: &Key256, cipher: &[u8]) -> Option<usize> {
        let tag = tag_of(cipher);
        Self::set(&tag).find(|&i| {
            let e = &self.entries[i];
            e.version == Some(version)
                && e.tag == tag
                && constant_time_eq(&e.key, key)
                && self.block(i, 0, bs) == cipher
        })
    }

    fn touch(&mut self, i: usize) {
        self.clock += 1;
        self.entries[i].used = self.clock;
    }

    /// Records a missed ciphertext's tag; true if it was already recorded
    /// (the block's second sighting).
    fn sighted(&mut self, tag: Tag) -> bool {
        let set = slot(&tag[8..], SEEN_TAGS / SEEN_WAYS) * SEEN_WAYS;
        let set = &mut self.seen[set..set + SEEN_WAYS];
        if set.contains(&tag) {
            return true;
        }
        set.copy_within(..SEEN_WAYS - 1, 1);
        set[0] = tag;
        false
    }
}

/// A mount's read memo (see the module docs).
pub(super) struct ReadMemo {
    block_size: usize,
    state: Mutex<State>,
    profiler: Arc<Profiler>,
}

impl ReadMemo {
    pub(super) fn new(block_size: usize, profiler: Arc<Profiler>) -> Self {
        ReadMemo {
            block_size,
            state: Mutex::new(State {
                entries: vec![EMPTY; MEMO_BLOCKS],
                arena: Vec::new(),
                seen: vec![[0; 16]; SEEN_TAGS],
                clock: 0,
            }),
            profiler,
        }
    }

    /// Replaces every block of `blocks` — landed ciphertext, one key each,
    /// of a file of format `version` — that the memo holds with its verified
    /// plaintext, and lists the others in `misses` as `(index, candidate)`:
    /// `candidate` when this is the block's second sighting, so it should be
    /// admitted once it passes §2.5. Returns the number of hits.
    pub(super) fn serve(
        &self,
        version: HashVersion,
        keys: &[Key256],
        blocks: &mut [u8],
        misses: &mut Vec<(usize, bool)>,
    ) -> usize {
        let bs = self.block_size;
        let mut hits = 0;
        let mut state = self.state.lock();
        for (i, (block, key)) in blocks.chunks_exact_mut(bs).zip(keys).enumerate() {
            match state.find(bs, version, key, block) {
                Some(e) => {
                    state.touch(e);
                    block.copy_from_slice(state.block(e, 1, bs));
                    hits += 1;
                }
                None => misses.push((i, state.sighted(tag_of(block)))),
            }
        }
        drop(state);
        self.profiler.memo_recorded(MemoStats {
            hits: hits as u64,
            misses: (keys.len() - hits) as u64,
            ..MemoStats::default()
        });
        hits
    }

    /// Admits blocks of a file of format `version` that passed §2.5, each
    /// as `(key, ciphertext, plaintext)`, displacing the least recently used
    /// way of its set. A block the memo already holds is skipped.
    pub(super) fn admit<'a>(
        &self,
        version: HashVersion,
        verified: impl IntoIterator<Item = (&'a Key256, &'a [u8], &'a [u8])>,
    ) {
        let mut verified = verified.into_iter().peekable();
        if verified.peek().is_none() {
            return;
        }
        let bs = self.block_size;
        let mut delta = MemoStats::default();
        let mut state = self.state.lock();
        if state.arena.is_empty() {
            state.arena = vec![0; 2 * MEMO_BLOCKS * bs];
        }
        for (key, cipher, plain) in verified {
            if state.find(bs, version, key, cipher).is_some() {
                continue;
            }
            let tag = tag_of(cipher);
            let victim = State::set(&tag)
                .min_by_key(|&i| state.entries[i].used)
                .expect("a set has ways");
            delta.evictions += state.entries[victim].version.is_some() as u64;
            delta.admissions += 1;
            state.entries[victim] = Entry {
                version: Some(version),
                tag,
                key: *key,
                used: 0,
            };
            state.touch(victim);
            let at = 2 * victim * bs;
            state.arena[at..at + bs].copy_from_slice(cipher);
            state.arena[at + bs..at + 2 * bs].copy_from_slice(plain);
        }
        drop(state);
        self.profiler.memo_recorded(delta);
    }

    /// Forgets every entry and sighting (the mount's keys changed).
    pub(super) fn clear(&self) {
        let mut state = self.state.lock();
        state.entries.fill(EMPTY);
        state.seen.fill([0; 16]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BS: usize = 64;

    /// A block whose tag picks set `set` and filter slot `id`, and whose
    /// remaining bytes are `fill`.
    fn cipher(set: usize, id: u64, fill: u8) -> Vec<u8> {
        let mut block = vec![fill; BS];
        block[..8].copy_from_slice(&(set as u64).to_le_bytes());
        block[8..16].copy_from_slice(&id.to_le_bytes());
        block
    }

    fn memo() -> (ReadMemo, Arc<Profiler>) {
        let profiler = Profiler::new();
        (ReadMemo::new(BS, profiler.clone()), profiler)
    }

    /// Serves one block; `Ok(plaintext)` on a hit, `Err(candidate)` on a
    /// miss.
    fn serve(memo: &ReadMemo, key: &Key256, block: &[u8]) -> Result<Vec<u8>, bool> {
        let mut out = block.to_vec();
        let mut misses = Vec::new();
        match memo.serve(
            HashVersion::V2,
            std::slice::from_ref(key),
            &mut out,
            &mut misses,
        ) {
            1 => Ok(out),
            _ => Err(misses[0].1),
        }
    }

    fn admit(memo: &ReadMemo, key: &Key256, cipher: &[u8], plain: &[u8]) {
        memo.admit(HashVersion::V2, [(key, cipher, plain)]);
    }

    #[test]
    fn a_hit_needs_the_same_key_ciphertext_and_version() {
        let (memo, profiler) = memo();
        let (key, c, p) = ([7; 32], cipher(3, 1, 0xaa), vec![0x55; BS]);
        assert_eq!(serve(&memo, &key, &c), Err(false), "first sighting");
        assert_eq!(serve(&memo, &key, &c), Err(true), "second sighting");
        admit(&memo, &key, &c, &p);
        assert_eq!(serve(&memo, &key, &c), Ok(p.clone()));

        assert!(serve(&memo, &[8; 32], &c).is_err(), "another key");
        let mut flipped = c.clone();
        flipped[BS - 1] ^= 1;
        assert!(
            serve(&memo, &key, &flipped).is_err(),
            "same tag, other bytes"
        );
        let mut out = c.clone();
        memo.serve(HashVersion::V1, &[key], &mut out, &mut Vec::new());
        assert_eq!(out, c, "another version misses and leaves the block alone");

        let stats = profiler.memo_stats();
        assert_eq!((stats.hits, stats.misses), (1, 5));
        assert_eq!((stats.admissions, stats.evictions), (1, 0));
        memo.clear();
        assert_eq!(serve(&memo, &key, &c), Err(false), "cleared, sightings too");
    }

    #[test]
    fn blocks_sharing_a_filter_set_are_each_seen_twice() {
        let (memo, _) = memo();
        let sets = (SEEN_TAGS / SEEN_WAYS) as u64;
        let (key, x, y) = ([2; 32], cipher(0, 1, 1), cipher(0, 1 + sets, 2));
        // Read in turn, neither pushes the other's first sighting out.
        assert_eq!(serve(&memo, &key, &x), Err(false));
        assert_eq!(serve(&memo, &key, &y), Err(false));
        assert_eq!(serve(&memo, &key, &x), Err(true));
        assert_eq!(serve(&memo, &key, &y), Err(true));
        // A set's oldest tag goes first once more than a set's worth of
        // others have been seen since.
        for id in 2..2 + SEEN_WAYS as u64 {
            assert_eq!(serve(&memo, &key, &cipher(0, 1 + id * sets, 3)), Err(false));
        }
        assert_eq!(serve(&memo, &key, &x), Err(false));
    }

    #[test]
    fn a_full_set_evicts_its_least_recently_used_way() {
        let (memo, profiler) = memo();
        let blocks: Vec<Vec<u8>> = (0..=WAYS as u64)
            .map(|id| cipher(5, id, id as u8))
            .collect();
        let key = [1; 32];
        for block in &blocks[..WAYS] {
            admit(&memo, &key, block, block);
        }
        // A repeat admission is skipped.
        admit(&memo, &key, &blocks[0], &blocks[0]);
        assert_eq!(profiler.memo_stats().admissions, WAYS as u64);
        // Way 0 is used again; way 1 is now the least recently used.
        assert!(serve(&memo, &key, &blocks[0]).is_ok());
        admit(&memo, &key, &blocks[WAYS], &blocks[WAYS]);
        assert_eq!(profiler.memo_stats().evictions, 1);
        assert!(serve(&memo, &key, &blocks[1]).is_err(), "evicted");
        for i in [0, 2, WAYS] {
            assert!(serve(&memo, &key, &blocks[i]).is_ok(), "way {i} kept");
        }
        // Another set is untouched by all of it.
        let other = cipher(6, 0, 9);
        admit(&memo, &key, &other, &other);
        assert_eq!(profiler.memo_stats().evictions, 1);
    }
}
