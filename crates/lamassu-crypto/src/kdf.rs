//! Convergent key derivation (Equation 1 of the paper).
//!
//! `CEKey_i = F(H(Block_i), K_in)` where `H` is a hash of the plaintext
//! block and `F` is a key derivation function keyed by the secret *inner
//! key*. Following the paper's prototype, `F` is AES-256-ECB encryption of
//! the 32-byte block hash under the inner key: the hash is split into two
//! 16-byte halves, each encrypted independently. Because the inner key is
//! secret, an attacker mounting the chosen-plaintext ("confirmation-of-file")
//! attack must guess both the plaintext *and* the inner key; at the same time
//! the derivation stays deterministic, so convergence — and therefore
//! deduplication — within an isolation zone is preserved.
//!
//! # The block hash, by format version
//!
//! Which `H` a file uses is its on-disk format version ([`HashVersion`]),
//! fixed once when the file is created; a [`ConvergentKdf`] is bound to one.
//!
//! * **v1** — the paper's `H`: SHA-256 of the block. One chain of 65
//!   compressions per 4 KiB block, so a lone block (a random 4 KiB read's
//!   §2.5 check) can only use one lane of the 4-lane kernel.
//! * **v2** (current) — the tree hash `T` ([`tree_hash`]). The block splits
//!   into four equal quarters; leaf `i` is the chained SHA-256 compression
//!   of quarter `i` from its own IV (`LEAF_IV[i]`), with no padding block;
//!   the root is one SHA-256 over a domain tag, the block length and the
//!   four leaves. The leaves are independent, so a lone block fills all four
//!   lanes of [`digest_blocks_x4`]'s kernel. 64 leaf + 3 root compressions
//!   per 4 KiB block, against v1's 65. Defined for blocks that are a
//!   multiple of [`TREE_ALIGN`] bytes (whole SHA-256 blocks per quarter).
//!
//! Collision resistance carries over from SHA-256's compression function:
//! two blocks of different lengths give different root messages; two of the
//! same length with equal roots either collide the root SHA-256 or have a
//! quarter whose equal-length, same-IV chains collide — the Merkle–Damgård
//! argument, which needs no length padding when the lengths are equal.
//!
//! The scalar path ([`ConvergentKdf::derive_for_block`], the T-table
//! backend) and the lane path ([`ConvergentKdf::derive_lanes`], the
//! fixsliced backend) compute the identical `T`.

use crate::aes::{ecb_decrypt_in_place, ecb_encrypt_in_place, Aes256};
use crate::fixsliced::{self, Aes256Fix, PackedKeys};
use crate::sha256::{self, digest_block, digest_blocks_x4, Digest, SHA_LANES};
use crate::Key256;

/// Which block hash `H` a file's data keys are derived from — what the
/// on-disk format version means to the data path. Fixed once per file,
/// when the file is created; nothing about it is decided per I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashVersion {
    /// Format v1: `H` is SHA-256 of the block, as in the paper.
    V1,
    /// Format v2: `H` is the 4-leaf tree hash [`tree_hash`].
    V2,
}

impl HashVersion {
    /// The version new files are created at, when their block size allows.
    pub const CURRENT: HashVersion = HashVersion::V2;

    /// The version number stored on disk.
    pub const fn number(self) -> u16 {
        match self {
            HashVersion::V1 => 1,
            HashVersion::V2 => 2,
        }
    }

    /// Parses a stored version number; `None` for a number this build does
    /// not know (never a guess).
    pub fn from_number(number: u16) -> Option<HashVersion> {
        match number {
            1 => Some(HashVersion::V1),
            2 => Some(HashVersion::V2),
            _ => None,
        }
    }

    /// The version a new file of `block_size`-byte blocks is created at:
    /// [`CURRENT`](Self::CURRENT), unless the block does not split into four
    /// quarters of whole SHA-256 blocks (not a multiple of [`TREE_ALIGN`]),
    /// which stays on v1.
    pub fn for_block_size(block_size: usize) -> HashVersion {
        if block_size.is_multiple_of(TREE_ALIGN) {
            HashVersion::CURRENT
        } else {
            HashVersion::V1
        }
    }
}

/// A v2 block is a multiple of this many bytes: four quarters of whole
/// 64-byte SHA-256 blocks.
pub const TREE_ALIGN: usize = SHA_LANES * 64;

/// Keys one fixsliced `F` pass derives: a pass encrypts 16 AES blocks, two
/// digest halves per key — so the lane path hashes two groups of four
/// before each pass ([`ConvergentKdf::derive_lanes`]).
pub const F_BATCH: usize = fixsliced::WIDE_BLOCKS / 2;

/// Leaf `i` starts from the state words of SHA-256(`"lamassu-v2-leaf"` ‖
/// `i`) — distinct from each other and from SHA-256's own IV (a test
/// re-derives them).
const LEAF_IV: [[u32; 8]; SHA_LANES] = [
    [
        0x701afdcd, 0x88a7ca02, 0x73a867cf, 0xd3d0704d, 0xfe132b85, 0x2e71f102, 0xb3098861,
        0xe87760c5,
    ],
    [
        0x4a10fb73, 0x6314419b, 0xb20399cb, 0x3b212b82, 0x1d7ba0c8, 0x0ac9b482, 0x98e19814,
        0xdcdf5361,
    ],
    [
        0xb029576a, 0xee0bfbea, 0xcbdf918b, 0x128413ab, 0x68ec0ead, 0x990129d2, 0xfb28d038,
        0xcf102b8c,
    ],
    [
        0x481df52f, 0x77a8264e, 0xdb61ac17, 0xa3f23b4b, 0x439d050d, 0x0c8ee3c9, 0x628d8af8,
        0xd063fe16,
    ],
];

/// Domain tag that opens every root message.
const ROOT_TAG: &[u8; 16] = b"lamassu-v2-root:";

/// Length of a root message: tag, 64-bit block length, four leaves.
const ROOT_LEN: usize = ROOT_TAG.len() + 8 + SHA_LANES * 32;

/// A root message with its SHA-256 padding: three compression blocks.
const ROOT_PADDED: usize = (ROOT_LEN + 9).div_ceil(64) * 64;

/// The padded root message of a `len`-byte block whose leaves ended in
/// `leaves`.
fn root_message(leaves: &[[u32; 8]; SHA_LANES], len: usize) -> [u8; ROOT_PADDED] {
    let mut msg = [0u8; ROOT_PADDED];
    msg[..16].copy_from_slice(ROOT_TAG);
    msg[16..24].copy_from_slice(&(len as u64).to_be_bytes());
    for (out, leaf) in msg[24..ROOT_LEN].chunks_exact_mut(32).zip(leaves) {
        out.copy_from_slice(&sha256::digest_of(leaf));
    }
    msg[ROOT_LEN] = 0x80;
    msg[ROOT_PADDED - 8..].copy_from_slice(&(ROOT_LEN as u64 * 8).to_be_bytes());
    msg
}

/// SHA-256 of a padded root message.
fn root(msg: &[u8; ROOT_PADDED]) -> Digest {
    let mut state = sha256::H0;
    sha256::chain(&mut state, msg);
    sha256::digest_of(&state)
}

/// The four quarters of a v2 block.
///
/// # Panics
///
/// Panics unless `block.len()` is a multiple of [`TREE_ALIGN`] (such block
/// sizes stay on v1: [`HashVersion::for_block_size`]).
fn quarters(block: &[u8]) -> [&[u8]; SHA_LANES] {
    assert!(
        block.len().is_multiple_of(TREE_ALIGN),
        "the v2 block hash needs a multiple of {TREE_ALIGN} bytes, got {}",
        block.len()
    );
    let q = block.len() / SHA_LANES;
    std::array::from_fn(|i| &block[i * q..(i + 1) * q])
}

/// The v2 block hash `T`, one compression at a time: the oracle the lane
/// path is held to, and what the T-table backend runs.
///
/// # Panics
///
/// Panics unless `block.len()` is a multiple of [`TREE_ALIGN`].
pub fn tree_hash(block: &[u8]) -> Digest {
    let mut leaves = LEAF_IV;
    for (leaf, quarter) in leaves.iter_mut().zip(quarters(block)) {
        sha256::chain(leaf, quarter);
    }
    root(&root_message(&leaves, block.len()))
}

/// The padded root message of one v2 block, its four leaves hashed in one
/// 4-lane pass.
fn root_message_x4(block: &[u8]) -> [u8; ROOT_PADDED] {
    let mut leaves = LEAF_IV;
    sha256::chain_x4(&mut leaves, quarters(block));
    root_message(&leaves, block.len())
}

/// Derives convergent keys from plaintext blocks under an inner key, with
/// the block hash of one format version.
///
/// One `ConvergentKdf` per version is created per mounted Lamassu instance
/// and reused for every block, so the inner key is expanded — and packed
/// for the fixsliced kernel — once.
///
/// # Examples
///
/// ```
/// use lamassu_crypto::kdf::ConvergentKdf;
///
/// let kdf = ConvergentKdf::new(&[0x11u8; 32]);
/// let block = vec![0u8; 4096];
/// let k1 = kdf.derive_for_block(&block);
/// let k2 = kdf.derive_for_block(&block);
/// assert_eq!(k1, k2, "derivation must be deterministic");
/// ```
#[derive(Clone)]
pub struct ConvergentKdf {
    version: HashVersion,
    inner: Aes256,
    /// The inner key's fixsliced encrypt schedule, packed once: every `F`
    /// pass of the lane path reuses it.
    inner_packed: PackedKeys,
}

impl ConvergentKdf {
    /// Creates a KDF bound to the inner key `K_in`, at the current format
    /// version ([`HashVersion::CURRENT`]).
    pub fn new(inner_key: &Key256) -> Self {
        Self::with_version(inner_key, HashVersion::CURRENT)
    }

    /// Creates a KDF bound to `K_in` that hashes blocks as `version` does.
    pub fn with_version(inner_key: &Key256, version: HashVersion) -> Self {
        ConvergentKdf {
            version,
            inner: Aes256::new(inner_key),
            inner_packed: Aes256Fix::new(inner_key).packed_enc_keys(),
        }
    }

    /// The format version whose block hash this KDF uses.
    pub fn version(&self) -> HashVersion {
        self.version
    }

    /// The block hash `H` of this KDF's version, one compression at a time.
    fn block_hash(&self, block: &[u8]) -> Digest {
        match self.version {
            HashVersion::V1 => digest_block(block),
            HashVersion::V2 => tree_hash(block),
        }
    }

    /// Derives the convergent key for a block hash (`F` through the T-table
    /// oracle).
    pub fn derive(&self, block_hash: &Digest) -> Key256 {
        let mut key = *block_hash;
        ecb_encrypt_in_place(&self.inner, &mut key);
        key
    }

    /// Hashes `block` and derives its key on the scalar path: one
    /// compression at a time and the T-table `F` — the oracle the lane path
    /// ([`derive_for_block_ct`](Self::derive_for_block_ct)) is held to.
    pub fn derive_for_block(&self, block: &[u8]) -> Key256 {
        self.derive(&self.block_hash(block))
    }

    /// The constant-time lane path for one block: `F` through the fixsliced
    /// kernel and, under v2, the four leaves in one 4-lane SHA-256 pass.
    /// Produces the identical key.
    pub fn derive_for_block_ct(&self, block: &[u8]) -> Key256 {
        let mut key = [[0u8; 32]];
        self.derive_lanes(&[block], &mut key);
        key[0]
    }

    /// Derives the keys of up to [`F_BATCH`] blocks into `out` on the lane
    /// kernels — bit-identical to a scalar
    /// [`derive_for_block`](Self::derive_for_block) per block, and
    /// constant-time throughout. The blocks hash in groups of four:
    ///
    /// * v2 hashes each block's four leaves in one 4-lane pass, then the
    ///   group's roots as one more (a lone block's root, three compressions,
    ///   runs scalar);
    /// * v1 has one chain per block, so four blocks share a 4-lane pass and
    ///   fewer hash one by one;
    ///
    /// then `F` runs as one fixsliced ECB pass over every digest half under
    /// the pre-packed inner schedule.
    ///
    /// # Panics
    ///
    /// Panics if `out` and `blocks` differ in length or hold more than
    /// [`F_BATCH`] blocks, and under v1 if four blocks of a group differ in
    /// length (the span layer only batches uniform whole blocks).
    pub fn derive_lanes(&self, blocks: &[&[u8]], out: &mut [Key256]) {
        let n = blocks.len();
        assert!(
            n <= F_BATCH && out.len() == n,
            "one key per block, ≤ F_BATCH"
        );
        let mut buf = [0u8; 32 * F_BATCH];
        for (group, digests) in blocks.chunks(SHA_LANES).zip(buf.chunks_mut(32 * SHA_LANES)) {
            self.hash_group(group, digests);
        }
        fixsliced::ecb_encrypt(&self.inner_packed, &mut buf[..32 * n]);
        for (key, chunk) in out.iter_mut().zip(buf.chunks_exact(32)) {
            key.copy_from_slice(chunk);
        }
    }

    /// The block hashes of up to [`SHA_LANES`] blocks on the 4-lane kernel,
    /// into consecutive 32-byte slots of `out`.
    fn hash_group(&self, blocks: &[&[u8]], out: &mut [u8]) {
        let digests = out.chunks_exact_mut(32);
        match (self.version, <[&[u8]; SHA_LANES]>::try_from(blocks)) {
            (HashVersion::V1, Ok(four)) => {
                for (d, digest) in digests.zip(digest_blocks_x4(four)) {
                    d.copy_from_slice(&digest);
                }
            }
            (HashVersion::V1, Err(_)) => {
                for (d, block) in digests.zip(blocks) {
                    d.copy_from_slice(&digest_block(block));
                }
            }
            (HashVersion::V2, _) if blocks.len() == 1 => {
                out[..32].copy_from_slice(&root(&root_message_x4(blocks[0])));
            }
            (HashVersion::V2, _) => {
                // Idle lanes hash an all-zero message; lanes are independent.
                let mut msgs = [[0u8; ROOT_PADDED]; SHA_LANES];
                for (msg, block) in msgs.iter_mut().zip(blocks) {
                    *msg = root_message_x4(block);
                }
                let mut states = [sha256::H0; SHA_LANES];
                sha256::chain_x4(&mut states, std::array::from_fn(|i| &msgs[i][..]));
                for (d, state) in digests.zip(&states[..blocks.len()]) {
                    d.copy_from_slice(&sha256::digest_of(state));
                }
            }
        }
    }

    /// Recovers the block hash from a convergent key (the KDF is invertible
    /// for holders of the inner key).
    pub fn invert(&self, key: &Key256) -> Digest {
        let mut hash = *key;
        ecb_decrypt_in_place(&self.inner, &mut hash);
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{sha256, Sha256};
    use crate::util::to_hex;

    #[test]
    fn deterministic_for_same_block_and_key() {
        let kdf = ConvergentKdf::new(&[1u8; 32]);
        let block = vec![0x5au8; 4096];
        assert_eq!(kdf.derive_for_block(&block), kdf.derive_for_block(&block));
    }

    #[test]
    fn different_inner_keys_give_different_cekeys() {
        let block = vec![0x5au8; 4096];
        let a = ConvergentKdf::new(&[1u8; 32]).derive_for_block(&block);
        let b = ConvergentKdf::new(&[2u8; 32]).derive_for_block(&block);
        assert_ne!(a, b, "inner key defines the deduplication domain");
    }

    #[test]
    fn different_blocks_give_different_cekeys() {
        let kdf = ConvergentKdf::new(&[1u8; 32]);
        let a = kdf.derive_for_block(&vec![0u8; 4096]);
        let b = kdf.derive_for_block(&vec![1u8; 4096]);
        assert_ne!(a, b);
    }

    #[test]
    fn invert_round_trips() {
        let kdf = ConvergentKdf::new(&[0xabu8; 32]);
        let hash = sha256(b"some block contents");
        let key = kdf.derive(&hash);
        assert_eq!(kdf.invert(&key), hash);
    }

    #[test]
    fn derive_differs_from_raw_hash() {
        // With a non-zero inner key the CE key must not equal the bare hash,
        // otherwise the chosen-plaintext defence is void.
        let kdf = ConvergentKdf::new(&[0x77u8; 32]);
        let hash = sha256(b"block");
        assert_ne!(kdf.derive(&hash), hash);
    }

    #[test]
    fn versions_round_trip_and_unknown_numbers_are_refused() {
        for v in [HashVersion::V1, HashVersion::V2] {
            assert_eq!(HashVersion::from_number(v.number()), Some(v));
        }
        for n in [0u16, 3, 0x0100, u16::MAX] {
            assert_eq!(HashVersion::from_number(n), None, "{n}");
        }
        assert_eq!(HashVersion::for_block_size(4096), HashVersion::CURRENT);
        assert_eq!(HashVersion::for_block_size(256), HashVersion::V2);
        assert_eq!(HashVersion::for_block_size(528), HashVersion::V1);
        assert_eq!(HashVersion::for_block_size(4096 + 64), HashVersion::V1);
    }

    #[test]
    fn leaf_ivs_are_the_hashes_of_their_labels() {
        for (i, iv) in LEAF_IV.iter().enumerate() {
            let mut label = b"lamassu-v2-leaf".to_vec();
            label.push(i as u8);
            assert_eq!(sha256::digest_of(iv), sha256(&label), "leaf {i}");
        }
        assert_eq!(ROOT_PADDED, 192, "three root compressions");
    }

    /// `T` from its definition alone: plain `compress` loops for the leaves
    /// and the streaming hasher (its own padding) for the root.
    fn reference_tree_hash(block: &[u8]) -> Digest {
        let q = block.len() / 4;
        let mut root = Sha256::new();
        root.update(b"lamassu-v2-root:");
        root.update(&(block.len() as u64).to_be_bytes());
        for (i, quarter) in block.chunks(q).enumerate() {
            let mut state = LEAF_IV[i];
            for chunk in quarter.chunks(64) {
                sha256::compress(&mut state, chunk);
            }
            for word in state {
                root.update(&word.to_be_bytes());
            }
        }
        root.finalize()
    }

    fn sample(blocks: usize, bs: usize) -> Vec<u8> {
        (0..blocks * bs)
            .map(|i| (i / bs * 53 + i % 251 + i / 4096) as u8)
            .collect()
    }

    #[test]
    fn tree_hash_matches_its_definition_on_every_path() {
        let kdf = ConvergentKdf::new(&[0x99u8; 32]);
        assert_eq!(kdf.version(), HashVersion::V2);
        for bs in [256usize, 4096, 8192] {
            for n in 1..=9 {
                let span = sample(n, bs);
                let blocks: Vec<&[u8]> = span.chunks(bs).collect();
                let want: Vec<Key256> = blocks
                    .iter()
                    .map(|b| kdf.derive(&reference_tree_hash(b)))
                    .collect();
                for (i, block) in blocks.iter().enumerate() {
                    assert_eq!(tree_hash(block), reference_tree_hash(block));
                    assert_eq!(kdf.derive_for_block(block), want[i], "scalar, {n}x{bs}");
                    assert_eq!(kdf.derive_for_block_ct(block), want[i], "lone, {n}x{bs}");
                }
                // Every batch width the lane path runs: 1..=8 blocks.
                for (group, keys) in blocks.chunks(F_BATCH).zip(want.chunks(F_BATCH)) {
                    let mut got = vec![[0u8; 32]; group.len()];
                    kdf.derive_lanes(group, &mut got);
                    assert_eq!(got, keys, "group of {}, {n}x{bs}", group.len());
                }
            }
        }
    }

    #[test]
    fn v1_lane_path_is_plain_sha256() {
        let kdf = ConvergentKdf::with_version(&[0x99u8; 32], HashVersion::V1);
        let span = sample(7, 4096);
        let blocks: Vec<&[u8]> = span.chunks(4096).collect();
        for group in blocks.chunks(F_BATCH) {
            let mut got = vec![[0u8; 32]; group.len()];
            kdf.derive_lanes(group, &mut got);
            for (key, block) in got.iter().zip(group) {
                assert_eq!(*key, kdf.derive(&sha256(block)));
                assert_eq!(kdf.invert(key), sha256(block));
            }
        }
    }

    /// Pinned known answers: `T` and the v2 key of a fixed 4 KiB block
    /// (`block[i] = i mod 251`, inner key `0x42` × 32), and that
    /// v1 and v2 keys of the same block differ (identical data written
    /// under the two versions does not deduplicate).
    #[test]
    fn v2_known_answer() {
        let block = sample(1, 4096);
        assert_eq!(to_hex(&tree_hash(&block)), TREE_HASH_KAT);
        let v2 = ConvergentKdf::new(&[0x42u8; 32]);
        let v1 = ConvergentKdf::with_version(&[0x42u8; 32], HashVersion::V1);
        assert_eq!(to_hex(&v2.derive_for_block_ct(&block)), V2_KEY_KAT);
        assert_ne!(v1.derive_for_block(&block), v2.derive_for_block(&block));
    }

    // Computed outside this crate: Python's hashlib plus a from-definition
    // compression loop for `T`, and an independent AES for the key.
    const TREE_HASH_KAT: &str = "2b00a9041e6477c55b18c7a6d05cbb40375f752bc0b5cf4bb90fb715bb3e4cf8";
    const V2_KEY_KAT: &str = "16021ec20613a7982ad9780ebfe5ed674ad04db56746f5e8d3cbcbd65324d53d";

    #[test]
    #[should_panic(expected = "multiple of 256")]
    fn v2_refuses_blocks_it_cannot_quarter() {
        let _ = ConvergentKdf::new(&[1u8; 32]).derive_for_block(&[0u8; 100]);
    }
}
