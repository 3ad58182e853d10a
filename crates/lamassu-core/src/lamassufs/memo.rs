//! The read memo: blocks this mount has already verified or written, found
//! by the convergent key that names them.
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
//! A commit computes the same triple from the other end: it derives the key
//! from the plaintext (Equation 1) and encrypts under it with the fixed IV
//! (Equation 2). So a block a commit writes whose key the memo holds, and
//! whose plaintext equals the entry's, takes the entry's ciphertext — the
//! bytes its encryption would have produced — instead of being encrypted.
//!
//! An entry memoizes a pure function, so it never goes stale and needs no
//! invalidation: a write, rename or truncate changes which key the metadata
//! names for a block, not what an old pair decrypts to. A backend lie — a
//! flipped bit, a rolled-back or swapped block — changes the landed key or
//! ciphertext, misses, and fails on the full path exactly as it does on a
//! cold mount.
//!
//! * **Index.** [`SETS`] sets of [`WAYS`] ways, LRU within a set. A block's
//!   *tag* is a per-mount keyed PRF of its convergent key (std's
//!   `RandomState` SipHash, keyed at random when the mount starts); the set
//!   is picked by the tag. Keys are secret, so the index never sees their
//!   bytes: the tag reveals only which blocks have equal keys, which
//!   convergent ciphertext already reveals. Within the set the version is
//!   compared and the key in constant time; a read then compares the landed
//!   ciphertext in full, and a commit the plaintext in constant time.
//! * **Read admission.** A read miss enters on its second sighting, once it
//!   passed §2.5. A filter remembers the tags of up to [`SEEN_TAGS`] missed
//!   blocks, in sets of [`SEEN_WAYS`] picked by tag bits 32.., oldest out
//!   first; a miss whose tag is already there is a candidate. A stream of
//!   blocks read once therefore cannot flush the memo, and two blocks read
//!   in turn cannot keep pushing each other's tag out of a shared slot.
//! * **Commit admission.** After a commit has landed, two kinds of block it
//!   wrote enter: a *duplicate* — a block whose key this mount has written
//!   before, remembered by a second filter of the same shape — and a block
//!   that overwrites one whose old key the memo holds, a location reads
//!   want. The old key comes from the file's metadata cache only; a commit
//!   never reads the media to learn it. Every other block written stays
//!   out: admitting each of them costs a plaintext copy the write path would
//!   otherwise not make.
//! * **Bound.** [`MEMO_BLOCKS`] entries, four spans, each holding its
//!   ciphertext and its plaintext: `2 × MEMO_BLOCKS × block_size` bytes (8 MiB
//!   at 4 KiB blocks), reserved once, at the first admission, and never
//!   zeroed: an entry admitted into an empty way appends its slot, and one
//!   that evicts another takes the evicted entry's slot, so the memo touches
//!   only the memory its entries fill. Lookups and admissions allocate
//!   nothing.
//! * **Locking.** One lock, taken once per read run or commit batch to look
//!   its blocks up — tag compares and block copies — and once to admit, and
//!   never held across crypto or I/O.

use super::engine::SPAN_BLOCKS;
use crate::profiler::{MemoStats, Profiler};
use lamassu_crypto::kdf::HashVersion;
use lamassu_crypto::util::constant_time_eq;
use lamassu_crypto::Key256;
use parking_lot::Mutex;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::ops::Range;
use std::sync::Arc;

/// Entries the memo holds: four spans' worth of blocks.
pub(super) const MEMO_BLOCKS: usize = 4 * SPAN_BLOCKS;

/// Ways per set.
const WAYS: usize = 8;

/// Sets of the index.
const SETS: usize = MEMO_BLOCKS / WAYS;

/// Tags each sighting filter remembers (32 KiB).
const SEEN_TAGS: usize = 4 * MEMO_BLOCKS;

/// Tags per set of a sighting filter.
const SEEN_WAYS: usize = 4;

/// The per-mount PRF of a convergent key.
type Tag = u64;

/// One way of a set; `version: None` is an empty way.
#[derive(Clone, Copy)]
struct Entry {
    version: Option<HashVersion>,
    key: Key256,
    /// Last use on the memo's clock (empty ways stay at 0, so they go first).
    used: u64,
    /// The entry's place in the arena.
    slot: u32,
}

const EMPTY: Entry = Entry {
    version: None,
    key: [0; 32],
    used: 0,
    slot: 0,
};

/// Tags seen recently, in sets of [`SEEN_WAYS`], oldest out first.
struct Sightings(Vec<Tag>);

impl Sightings {
    fn new() -> Self {
        Sightings(vec![0; SEEN_TAGS])
    }

    /// Records `tag`; true if it was already recorded (a second sighting).
    fn sighted(&mut self, tag: Tag) -> bool {
        let set = (tag >> 32) as usize % (SEEN_TAGS / SEEN_WAYS) * SEEN_WAYS;
        let set = &mut self.0[set..set + SEEN_WAYS];
        if set.contains(&tag) {
            return true;
        }
        set.copy_within(..SEEN_WAYS - 1, 1);
        set[0] = tag;
        false
    }
}

/// Where an admitted block comes from (the counter it is charged to).
#[derive(Clone, Copy)]
pub(super) enum Admit {
    /// A read miss that passed §2.5.
    Read,
    /// A block a commit wrote.
    Commit,
}

struct State {
    entries: Vec<Entry>,
    /// Slot `s`'s ciphertext, then its plaintext: `2 × block_size` bytes at
    /// `2 × s × block_size`, one slot per entry ever filled since the last
    /// clear. Unallocated until the first admission.
    arena: Vec<u8>,
    /// Tags of read misses.
    read: Sightings,
    /// Tags of committed blocks.
    written: Sightings,
    clock: u64,
}

impl State {
    fn set(tag: Tag) -> Range<usize> {
        let set = tag as usize % SETS;
        set * WAYS..(set + 1) * WAYS
    }

    /// Entry `i`'s ciphertext (`half` 0) or plaintext (`half` 1).
    fn block(&self, i: usize, half: usize, bs: usize) -> &[u8] {
        let at = (2 * self.entries[i].slot as usize + half) * bs;
        &self.arena[at..at + bs]
    }

    /// The entry for `(version, key)`, whose tag is `tag`, if there is one.
    fn find(&self, tag: Tag, version: HashVersion, key: &Key256) -> Option<usize> {
        Self::set(tag).find(|&i| {
            let e = &self.entries[i];
            e.version == Some(version) && constant_time_eq(&e.key, key)
        })
    }

    fn touch(&mut self, i: usize) {
        self.clock += 1;
        self.entries[i].used = self.clock;
    }
}

/// A mount's read memo (see the module docs).
pub(super) struct ReadMemo {
    block_size: usize,
    /// The key of the index's PRF, drawn at random per mount.
    prf: RandomState,
    state: Mutex<State>,
    profiler: Arc<Profiler>,
}

impl ReadMemo {
    pub(super) fn new(block_size: usize, profiler: Arc<Profiler>) -> Self {
        ReadMemo {
            block_size,
            prf: RandomState::new(),
            state: Mutex::new(State {
                entries: vec![EMPTY; MEMO_BLOCKS],
                arena: Vec::new(),
                read: Sightings::new(),
                written: Sightings::new(),
                clock: 0,
            }),
            profiler,
        }
    }

    fn tag(&self, key: &Key256) -> Tag {
        self.prf.hash_one(key)
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
            let tag = self.tag(key);
            match state.find(tag, version, key) {
                Some(e) if state.block(e, 0, bs) == block => {
                    state.touch(e);
                    block.copy_from_slice(state.block(e, 1, bs));
                    hits += 1;
                }
                _ => misses.push((i, state.read.sighted(tag))),
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

    /// The commit side of [`ReadMemo::serve`]: replaces every block of
    /// `blocks` — plaintext, one key each, derived under format `version` —
    /// whose key the memo holds with equal plaintext by the entry's
    /// ciphertext, and lists the others in `misses` as `(index, candidate)`:
    /// `candidate` when this mount has written the block's key before, or
    /// when `old_key(index)` — the key the block replaces, if the caller knows
    /// it — names an entry, so it should be admitted once the commit has
    /// landed. Returns the number of hits: the encryptions skipped.
    pub(super) fn reuse(
        &self,
        version: HashVersion,
        keys: &[Key256],
        blocks: &mut [u8],
        old_key: impl Fn(usize) -> Option<Key256>,
        misses: &mut Vec<(usize, bool)>,
    ) -> usize {
        let bs = self.block_size;
        let mut hits = 0;
        let mut state = self.state.lock();
        for (i, (block, key)) in blocks.chunks_exact_mut(bs).zip(keys).enumerate() {
            let tag = self.tag(key);
            match state.find(tag, version, key) {
                Some(e) if constant_time_eq(state.block(e, 1, bs), block) => {
                    state.touch(e);
                    block.copy_from_slice(state.block(e, 0, bs));
                    hits += 1;
                }
                _ => {
                    let duplicate = state.written.sighted(tag);
                    let wanted = || {
                        old_key(i)
                            .is_some_and(|old| state.find(self.tag(&old), version, &old).is_some())
                    };
                    misses.push((i, duplicate || wanted()));
                }
            }
        }
        drop(state);
        self.profiler.memo_recorded(MemoStats {
            commit_hits: hits as u64,
            ..MemoStats::default()
        });
        hits
    }

    /// Admits blocks of a file of format `version`, each as `(key,
    /// ciphertext, plaintext)` — read misses that passed §2.5, or blocks a
    /// commit wrote, as `via` says — displacing the least recently used way
    /// of each one's set. A block whose key the memo already holds is
    /// skipped.
    pub(super) fn admit<'a>(
        &self,
        version: HashVersion,
        via: Admit,
        blocks: impl IntoIterator<Item = (&'a Key256, &'a [u8], &'a [u8])>,
    ) {
        let mut blocks = blocks.into_iter().peekable();
        if blocks.peek().is_none() {
            return;
        }
        let bs = self.block_size;
        let (mut admitted, mut evictions) = (0, 0);
        let mut state = self.state.lock();
        if state.arena.capacity() == 0 {
            state.arena = Vec::with_capacity(2 * MEMO_BLOCKS * bs);
        }
        for (key, cipher, plain) in blocks {
            let tag = self.tag(key);
            if state.find(tag, version, key).is_some() {
                continue;
            }
            let victim = State::set(tag)
                .min_by_key(|&i| state.entries[i].used)
                .expect("a set has ways");
            let slot = match state.entries[victim].version {
                Some(_) => {
                    evictions += 1;
                    state.entries[victim].slot
                }
                None => {
                    let end = state.arena.len();
                    state.arena.resize(end + 2 * bs, 0);
                    (end / (2 * bs)) as u32
                }
            };
            admitted += 1;
            state.entries[victim] = Entry {
                version: Some(version),
                key: *key,
                used: 0,
                slot,
            };
            state.touch(victim);
            let at = 2 * slot as usize * bs;
            state.arena[at..at + bs].copy_from_slice(cipher);
            state.arena[at + bs..at + 2 * bs].copy_from_slice(plain);
        }
        drop(state);
        let (read_admissions, commit_admissions) = match via {
            Admit::Read => (admitted, 0),
            Admit::Commit => (0, admitted),
        };
        self.profiler.memo_recorded(MemoStats {
            read_admissions,
            commit_admissions,
            evictions,
            ..MemoStats::default()
        });
    }

    /// Forgets every entry and sighting (the mount's keys changed).
    pub(super) fn clear(&self) {
        let mut state = self.state.lock();
        state.entries.fill(EMPTY);
        state.arena.clear();
        state.read.0.fill(0);
        state.written.0.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BS: usize = 64;

    fn memo() -> (ReadMemo, Arc<Profiler>) {
        let profiler = Profiler::new();
        (ReadMemo::new(BS, profiler.clone()), profiler)
    }

    fn key(n: u64) -> Key256 {
        let mut key = [0x5c; 32];
        key[..8].copy_from_slice(&n.to_le_bytes());
        key
    }

    /// `n` keys whose tags share one set of `slot`'s `sets` (found by
    /// search: the PRF is keyed per mount).
    fn colliding(memo: &ReadMemo, n: usize, slot: impl Fn(Tag) -> usize) -> Vec<Key256> {
        let mut by_set: std::collections::HashMap<usize, Vec<Key256>> = Default::default();
        (0..)
            .map(key)
            .find_map(|k| {
                let set = by_set.entry(slot(memo.tag(&k))).or_default();
                set.push(k);
                (set.len() == n).then(|| set.clone())
            })
            .expect("some set fills")
    }

    /// A stand-in block: any bytes will do, the memo never runs the crypto.
    fn block(fill: u8) -> Vec<u8> {
        vec![fill; BS]
    }

    /// Serves one block; `Ok(plaintext)` on a hit, `Err(candidate)` on a
    /// miss.
    fn serve(
        memo: &ReadMemo,
        version: HashVersion,
        key: &Key256,
        cipher: &[u8],
    ) -> Result<Vec<u8>, bool> {
        let mut out = cipher.to_vec();
        let mut misses = Vec::new();
        match memo.serve(version, std::slice::from_ref(key), &mut out, &mut misses) {
            1 => Ok(out),
            _ => {
                assert_eq!(out, cipher, "a miss leaves the block alone");
                Err(misses[0].1)
            }
        }
    }

    /// Looks one block up at commit, replacing a key `old`; `Ok(ciphertext)`
    /// on a hit, `Err(candidate)` on a miss.
    fn reuse(
        memo: &ReadMemo,
        key: &Key256,
        plain: &[u8],
        old: Option<Key256>,
    ) -> Result<Vec<u8>, bool> {
        let mut out = plain.to_vec();
        let mut misses = Vec::new();
        let keys = std::slice::from_ref(key);
        match memo.reuse(HashVersion::V2, keys, &mut out, |_| old, &mut misses) {
            1 => Ok(out),
            _ => {
                assert_eq!(out, plain, "a miss leaves the block alone");
                Err(misses[0].1)
            }
        }
    }

    fn admit(memo: &ReadMemo, via: Admit, key: &Key256, cipher: &[u8], plain: &[u8]) {
        memo.admit(HashVersion::V2, via, [(key, cipher, plain)]);
    }

    #[test]
    fn a_read_hit_needs_the_same_key_ciphertext_and_version() {
        let (memo, profiler) = memo();
        let v2 = HashVersion::V2;
        let (k, c, p) = (key(1), block(0xaa), block(0x55));
        assert_eq!(serve(&memo, v2, &k, &c), Err(false), "first sighting");
        assert_eq!(serve(&memo, v2, &k, &c), Err(true), "second sighting");
        admit(&memo, Admit::Read, &k, &c, &p);
        assert_eq!(serve(&memo, v2, &k, &c), Ok(p.clone()));

        assert!(serve(&memo, v2, &key(2), &c).is_err(), "another key");
        let mut flipped = c.clone();
        flipped[BS - 1] ^= 1;
        assert!(serve(&memo, v2, &k, &flipped).is_err(), "other ciphertext");

        let stats = profiler.memo_stats();
        assert_eq!((stats.hits, stats.misses), (1, 4));
        assert_eq!((stats.read_admissions, stats.commit_admissions), (1, 0));
        memo.clear();
        assert_eq!(
            serve(&memo, v2, &k, &c),
            Err(false),
            "cleared, sightings too"
        );
        // Slots are handed out again from the start.
        admit(&memo, Admit::Read, &key(3), &block(3), &block(4));
        assert_eq!(serve(&memo, v2, &key(3), &block(3)), Ok(block(4)));
    }

    #[test]
    fn a_commit_hit_needs_the_same_key_plaintext_and_version() {
        let (memo, profiler) = memo();
        let (k, c, p) = (key(1), block(0xaa), block(0x55));
        admit(&memo, Admit::Read, &k, &c, &p);
        // The key names the entry, the plaintext equals its plaintext: the
        // block takes the entry's ciphertext.
        assert_eq!(reuse(&memo, &k, &p, None), Ok(c.clone()));
        assert!(reuse(&memo, &key(2), &p, None).is_err(), "another key");
        let mut other = p.clone();
        other[0] ^= 1;
        assert!(reuse(&memo, &k, &other, None).is_err(), "other plaintext");
        let mut misses = Vec::new();
        let mut out = p.clone();
        memo.reuse(HashVersion::V1, &[k], &mut out, |_| None, &mut misses);
        assert_eq!(out, p, "another version misses");
        assert_eq!(profiler.memo_stats().commit_hits, 1);
        assert_eq!(profiler.memo_stats().hits, 0, "reads only");
    }

    #[test]
    fn a_v1_entry_never_serves_a_v2_block_nor_the_reverse() {
        let (memo, _) = memo();
        let (v1, v2) = (HashVersion::V1, HashVersion::V2);
        let (k, c, p) = (key(7), block(1), block(2));
        memo.admit(v1, Admit::Read, [(&k, &c[..], &p[..])]);
        assert!(serve(&memo, v2, &k, &c).is_err(), "v1 entry, v2 read");
        assert_eq!(serve(&memo, v1, &k, &c), Ok(p.clone()));
        // A v2 entry of the same key lives beside it; each serves its own.
        let p2 = block(3);
        memo.admit(v2, Admit::Read, [(&k, &c[..], &p2[..])]);
        assert_eq!(serve(&memo, v2, &k, &c), Ok(p2));
        assert_eq!(serve(&memo, v1, &k, &c), Ok(p));
    }

    #[test]
    fn a_commit_admits_duplicates_and_overwrites_of_memoized_blocks_only() {
        let (memo, profiler) = memo();
        let (a, b, c) = (key(1), key(2), key(3));
        // Rule one: a key this mount has written before.
        assert_eq!(reuse(&memo, &a, &block(1), None), Err(false), "first write");
        assert_eq!(reuse(&memo, &a, &block(1), None), Err(true), "a duplicate");
        // Rule two: a block over one whose old key the memo holds.
        assert_eq!(
            reuse(&memo, &b, &block(2), Some(c)),
            Err(false),
            "old key not held"
        );
        admit(&memo, Admit::Read, &c, &block(9), &block(3));
        assert_eq!(
            reuse(&memo, &key(4), &block(4), Some(c)),
            Err(true),
            "old key held"
        );
        // Admission at commit is counted apart from admission at read.
        admit(&memo, Admit::Commit, &a, &block(10), &block(1));
        admit(&memo, Admit::Commit, &a, &block(10), &block(1));
        let stats = profiler.memo_stats();
        assert_eq!((stats.read_admissions, stats.commit_admissions), (1, 1));
        assert_eq!(reuse(&memo, &a, &block(1), None), Ok(block(10)));
        // Reads and writes keep their own sightings.
        assert_eq!(serve(&memo, HashVersion::V2, &b, &block(5)), Err(false));
    }

    #[test]
    fn keys_sharing_a_filter_set_are_each_seen_twice() {
        let (memo, _) = memo();
        let sets = SEEN_TAGS / SEEN_WAYS;
        let keys = colliding(&memo, SEEN_WAYS + 2, |tag| (tag >> 32) as usize % sets);
        let (x, y, c) = (&keys[0], &keys[1], block(0));
        let v2 = HashVersion::V2;
        // Read in turn, neither pushes the other's first sighting out.
        assert_eq!(serve(&memo, v2, x, &c), Err(false));
        assert_eq!(serve(&memo, v2, y, &c), Err(false));
        assert_eq!(serve(&memo, v2, x, &c), Err(true));
        assert_eq!(serve(&memo, v2, y, &c), Err(true));
        // A set's oldest tag goes first once more than a set's worth of
        // others have been seen since.
        for k in &keys[2..] {
            assert_eq!(serve(&memo, v2, k, &c), Err(false));
        }
        assert_eq!(serve(&memo, v2, x, &c), Err(false));
    }

    #[test]
    fn a_full_set_evicts_its_least_recently_used_way() {
        let (memo, profiler) = memo();
        let keys = colliding(&memo, WAYS + 1, |tag| tag as usize % SETS);
        let blocks: Vec<Vec<u8>> = (0..=WAYS as u8).map(block).collect();
        let v2 = HashVersion::V2;
        for (k, b) in keys.iter().zip(&blocks).take(WAYS) {
            admit(&memo, Admit::Read, k, b, b);
        }
        // A repeat admission is skipped.
        admit(&memo, Admit::Commit, &keys[0], &blocks[0], &blocks[0]);
        assert_eq!(profiler.memo_stats().read_admissions, WAYS as u64);
        assert_eq!(profiler.memo_stats().commit_admissions, 0);
        // Way 0 is used again (by a commit); way 1 is now the least
        // recently used.
        assert!(reuse(&memo, &keys[0], &blocks[0], None).is_ok());
        admit(
            &memo,
            Admit::Commit,
            &keys[WAYS],
            &blocks[WAYS],
            &blocks[WAYS],
        );
        assert_eq!(profiler.memo_stats().evictions, 1);
        assert!(serve(&memo, v2, &keys[1], &blocks[1]).is_err(), "evicted");
        for i in [0, 2, WAYS] {
            let kept = serve(&memo, v2, &keys[i], &blocks[i]);
            assert_eq!(kept, Ok(blocks[i].clone()), "way {i} kept, in its own slot");
        }
        // Another set is untouched by all of it.
        let set = |k: &Key256| memo.tag(k) as usize % SETS;
        let other = (100..).map(key).find(|k| set(k) != set(&keys[0])).unwrap();
        admit(&memo, Admit::Read, &other, &blocks[0], &blocks[0]);
        assert_eq!(profiler.memo_stats().evictions, 1);
    }
}
