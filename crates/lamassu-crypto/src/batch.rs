//! Batch (span-granular) cryptography over slices of blocks.
//!
//! The shims' span pipeline hands whole runs of blocks to the crypto layer at
//! once; the functions here fan that work out across a
//! [`CryptoPool`] so convergent hashing and AES for
//! a span run in parallel rather than serially per block:
//!
//! * [`derive_keys`] / [`derive_keys_into`] — Equation 1 for every block of
//!   a span;
//! * [`encrypt_blocks`] / [`decrypt_blocks`] — Equation 2 under per-block
//!   convergent keys and the shared [`FIXED_IV`](crate::FIXED_IV)
//!   (LamassuFS data blocks);
//! * [`encrypt_blocks_with`] / [`decrypt_blocks_with`] — one shared cipher
//!   with per-block IVs (the EncFS baseline's layout);
//! * [`cbc_decrypt_parallel`] — chunked CBC decryption of one large buffer
//!   (CBC decryption only needs the *previous ciphertext block*, so a long
//!   chain splits into independently decryptable chunks; used by the
//!   whole-file CeFileFS baseline).
//!
//! # The contiguous-span fast path
//!
//! The `*_span*` variants ([`derive_span_into`], [`encrypt_span`],
//! [`decrypt_span`], [`encrypt_span_with`], [`decrypt_span_with`]) operate
//! on one **contiguous** buffer of whole blocks instead of a slice of block
//! references. That shape is what the zero-allocation data path produces
//! (aligned reads land in one caller-buffer region; commits stage through
//! one reusable span buffer), and it frees the batch layer of work-vector
//! building: the **inline path performs no allocation at all**, and the
//! parallel path splits both the data and the key/IV slices by arithmetic,
//! paying only the thread-scope fan-out (which is why the zero-allocation
//! guarantee is stated for the inline regime — see
//! [`CryptoPool::runs_inline`]). The reference-slice APIs remain for
//! heterogeneous batches and share the same property via
//! [`CryptoPool::zip_for_each`].
//!
//! # Fan-out
//!
//! Every function here splits its batch through
//! [`CryptoPool::split_for_each`], so one rule decides inline versus
//! parallel: shares are whole [`TILE_BLOCKS`](crate::pool::TILE_BLOCKS)-block
//! tiles and a batch fans out only when every worker gets at least one.
//! Because share boundaries are tile boundaries, fanning out never narrows a
//! wide pass: a 256-block span on two workers is sixteen full 16-chain
//! encrypt tiles and sixty-four 4-block KDF groups, exactly as it would be
//! inline, and an 8-block commit (a few writes forced out by an `fsync`)
//! runs inline as one half-occupied wide pass instead of two scalar halves.
//! A scoped spawn costs about 15 µs in the reference container (see
//! [`crate::pool`]), which is what the tile minimum is there to repay.
//!
//! Every function validates block alignment up front and then runs the
//! parallel section infallibly, so no error handling crosses threads.
//!
//! # Backend dispatch
//!
//! The span variants take a [`CryptoBackend`] and dispatch each contiguous
//! run to the wide fixsliced kernel or the T-table oracle:
//!
//! * **decryption** always goes wide under
//!   [`Fixsliced`](CryptoBackend::Fixsliced) — CBC decryption parallelizes
//!   *within* a chain, so even a single 4 KiB block fills the
//!   16-block slice;
//! * **encryption** is a strict chain per block, so the wide kernel
//!   interleaves whole chains and only wins once at least
//!   [`WIDE_MIN_BLOCKS`] chains share a pass; narrower runs fall back to
//!   the T-table path (and are counted as scalar dispatches in
//!   [`crate::stats`]);
//! * **key derivation** hashes [`SHA_LANES`] blocks per pass of the 4-lane
//!   SHA-256 and keys [`F_BATCH`] per fixsliced `F` pass
//!   ([`ConvergentKdf::derive_lanes`]); under the v2 tree hash a lone block
//!   fills the four lanes too, under v1 a tail of fewer than four hashes
//!   one block at a time.
//!
//! The reference-slice APIs ([`derive_keys`], [`encrypt_blocks`], ...)
//! intentionally stay on the T-table cipher: they are the per-block oracle
//! the differential property tests compare the wide kernels against.

use crate::aes::Aes256;
use crate::cbc;
use crate::fixsliced::{self, Aes256Fix};
use crate::kdf::{ConvergentKdf, HashVersion, F_BATCH, TREE_ALIGN};
use crate::pool::CryptoPool;
use crate::sha256::SHA_LANES;
use crate::{stats, CryptoBackend, CryptoError, Iv128, Key256, Result};

/// AES block size in bytes.
const AES_BLOCK: usize = 16;

/// Minimum number of CBC chains (file blocks) in a run before the wide
/// fixsliced kernel beats the T-table path on *encryption*.
///
/// A wide encrypt pass advances one AES block of up to
/// [`fixsliced::WIDE_BLOCKS`] independent chains, so its cost is flat in
/// the number of occupied lanes; measured on 4 KiB blocks, the crossover
/// where a partially-occupied pass beats per-chain T-table CBC sits at
/// eight chains. Decryption has no such threshold (it is wide within a
/// single chain).
pub const WIDE_MIN_BLOCKS: usize = 8;

/// A cipher pair for one key: the T-table schedule and the fixsliced
/// schedule, expanded once so the span layer can dispatch per run without
/// re-keying. Used by the shared-cipher span APIs ([`encrypt_span_with`],
/// [`decrypt_span_with`], [`cbc_decrypt_parallel`]).
#[derive(Clone)]
pub struct SpanCipher {
    tt: Aes256,
    fix: Aes256Fix,
}

impl SpanCipher {
    /// Expands both schedules for `key`.
    pub fn new(key: &Key256) -> Self {
        SpanCipher {
            tt: Aes256::new(key),
            fix: Aes256Fix::new(key),
        }
    }

    /// The T-table schedule (scalar oracle and per-block helpers).
    pub fn tt(&self) -> &Aes256 {
        &self.tt
    }

    /// The fixsliced constant-time schedule.
    pub fn fix(&self) -> &Aes256Fix {
        &self.fix
    }
}

fn check_aligned(blocks: &[&mut [u8]]) -> Result<()> {
    for block in blocks {
        if !block.len().is_multiple_of(AES_BLOCK) {
            return Err(CryptoError::InvalidLength {
                len: block.len(),
                expected_multiple_of: AES_BLOCK,
            });
        }
    }
    Ok(())
}

/// Validates that a contiguous span covers exactly `blocks` whole blocks of
/// `block_size` bytes, each AES-aligned.
fn check_span(data_len: usize, blocks: usize, block_size: usize) -> Result<()> {
    if !block_size.is_multiple_of(AES_BLOCK) || block_size == 0 {
        return Err(CryptoError::InvalidLength {
            len: block_size,
            expected_multiple_of: AES_BLOCK,
        });
    }
    if data_len != blocks * block_size {
        return Err(CryptoError::InvalidLength {
            len: data_len,
            expected_multiple_of: block_size,
        });
    }
    Ok(())
}

/// Derives the convergent key (Equation 1) for every block into
/// caller-provided storage, in parallel. Allocation-free.
///
/// Panics if `blocks` and `out` differ in length.
pub fn derive_keys_into(
    pool: &CryptoPool,
    kdf: &ConvergentKdf,
    blocks: &[&[u8]],
    out: &mut [Key256],
) {
    pool.zip_for_each(out, blocks, |key, block| *key = kdf.derive_for_block(block));
}

/// Derives the convergent key (Equation 1) for every block, in parallel.
pub fn derive_keys(pool: &CryptoPool, kdf: &ConvergentKdf, blocks: &[&[u8]]) -> Vec<Key256> {
    let mut keys = vec![[0u8; 32]; blocks.len()];
    derive_keys_into(pool, kdf, blocks, &mut keys);
    keys
}

/// Derives the convergent key for every `block_size`-byte block of one
/// contiguous span into caller-provided storage, in parallel.
/// Allocation-free on the inline path; the parallel path pays only the
/// `O(workers)` thread-scope fan-out (no work vectors).
///
/// Returns [`CryptoError::InvalidLength`] unless
/// `data.len() == out.len() * block_size` — and, for a v2 KDF, unless
/// `block_size` is a multiple of [`TREE_ALIGN`].
pub fn derive_span_into(
    pool: &CryptoPool,
    kdf: &ConvergentKdf,
    data: &[u8],
    block_size: usize,
    out: &mut [Key256],
    backend: CryptoBackend,
) -> Result<()> {
    if block_size == 0 || data.len() != out.len() * block_size {
        return Err(CryptoError::InvalidLength {
            len: data.len(),
            expected_multiple_of: block_size.max(1),
        });
    }
    if kdf.version() == HashVersion::V2 && !block_size.is_multiple_of(TREE_ALIGN) {
        return Err(CryptoError::InvalidLength {
            len: block_size,
            expected_multiple_of: TREE_ALIGN,
        });
    }
    let derive_run = |keys: &mut [Key256], span: &[u8]| match backend {
        CryptoBackend::TTable => {
            stats::count_scalar_derives(keys.len());
            for (key, block) in keys.iter_mut().zip(span.chunks_exact(block_size)) {
                *key = kdf.derive_for_block(block);
            }
        }
        CryptoBackend::Fixsliced => {
            // Every v2 derivation fills the four SHA-256 lanes, a lone
            // block included; a v1 block only does in a group of four.
            let wide = match kdf.version() {
                HashVersion::V1 => keys.len() / SHA_LANES * SHA_LANES,
                HashVersion::V2 => keys.len(),
            };
            stats::count_wide_derives(wide);
            stats::count_scalar_derives(keys.len() - wide);
            let mut blocks = span.chunks_exact(block_size);
            for group in keys.chunks_mut(F_BATCH) {
                let mut refs: [&[u8]; F_BATCH] = [&[]; F_BATCH];
                for r in &mut refs[..group.len()] {
                    *r = blocks.next().expect("span length checked");
                }
                kdf.derive_lanes(&refs[..group.len()], group);
            }
        }
    };
    pool.split_for_each(out.len(), out, data, derive_run);
    Ok(())
}

/// Convergent encryption (Equation 2) of every block in place, each under its
/// own key and the shared fixed IV. `keys` and `blocks` must be parallel
/// slices of equal length.
pub fn encrypt_blocks(
    pool: &CryptoPool,
    keys: &[Key256],
    iv: &Iv128,
    blocks: &mut [&mut [u8]],
) -> Result<()> {
    assert_eq!(keys.len(), blocks.len(), "one key per block");
    check_aligned(blocks)?;
    pool.zip_for_each(blocks, keys, |block, key| {
        let cipher = Aes256::new(key);
        cbc::encrypt_in_place(&cipher, iv, block).expect("alignment checked above");
    });
    Ok(())
}

/// Decryption of every block in place, each under its own key and the shared
/// fixed IV (inverse of [`encrypt_blocks`]).
pub fn decrypt_blocks(
    pool: &CryptoPool,
    keys: &[Key256],
    iv: &Iv128,
    blocks: &mut [&mut [u8]],
) -> Result<()> {
    assert_eq!(keys.len(), blocks.len(), "one key per block");
    check_aligned(blocks)?;
    pool.zip_for_each(blocks, keys, |block, key| {
        let cipher = Aes256::new(key);
        cbc::decrypt_in_place(&cipher, iv, block).expect("alignment checked above");
    });
    Ok(())
}

/// Runs `f` over every `(block, context)` pair of one contiguous span —
/// inline or fanned out across the pool — without allocating.
fn span_for_each<B: Sync>(
    pool: &CryptoPool,
    data: &mut [u8],
    block_size: usize,
    ctx: &[B],
    f: impl Fn(&mut [u8], &B) + Sync,
) {
    pool.split_for_each(ctx.len(), data, ctx, |span, cs| {
        for (block, c) in span.chunks_exact_mut(block_size).zip(cs) {
            f(block, c);
        }
    });
}

/// Convergent encryption (Equation 2) of one contiguous span of whole
/// blocks in place, each block under its own key and the shared fixed IV.
/// Allocation-free (the contiguous dual of [`encrypt_blocks`]).
///
/// Under [`CryptoBackend::Fixsliced`] the run is encrypted in groups of up
/// to [`fixsliced::WIDE_BLOCKS`] interleaved chains; groups narrower than
/// [`WIDE_MIN_BLOCKS`] fall back to the T-table path (below the wide
/// kernel's amortization width).
pub fn encrypt_span(
    pool: &CryptoPool,
    keys: &[Key256],
    iv: &Iv128,
    data: &mut [u8],
    block_size: usize,
    backend: CryptoBackend,
) -> Result<()> {
    check_span(data.len(), keys.len(), block_size)?;
    match backend {
        CryptoBackend::TTable => {
            span_for_each(pool, data, block_size, keys, |block, key| {
                stats::count_scalar_blocks(block.len() / AES_BLOCK);
                let cipher = Aes256::new(key);
                cbc::encrypt_in_place(&cipher, iv, block).expect("span alignment checked");
            });
        }
        CryptoBackend::Fixsliced => {
            pool.split_for_each(keys.len(), data, keys, |span, ks| {
                let groups = span
                    .chunks_mut(fixsliced::WIDE_BLOCKS * block_size)
                    .zip(ks.chunks(fixsliced::WIDE_BLOCKS));
                for (run, group) in groups {
                    if group.len() >= WIDE_MIN_BLOCKS {
                        stats::count_wide_blocks(run.len() / AES_BLOCK);
                        fixsliced::cbc_encrypt_chains(group, iv, run, block_size);
                    } else {
                        stats::count_scalar_blocks(run.len() / AES_BLOCK);
                        for (block, key) in run.chunks_exact_mut(block_size).zip(group) {
                            let cipher = Aes256::new(key);
                            cbc::encrypt_in_place(&cipher, iv, block)
                                .expect("span alignment checked");
                        }
                    }
                }
            });
        }
    }
    Ok(())
}

/// Decryption of one contiguous span of whole blocks in place (inverse of
/// [`encrypt_span`]). Allocation-free.
///
/// Under [`CryptoBackend::Fixsliced`] every run decrypts through the wide
/// kernel unconditionally: CBC decryption is parallel *within* a chain, so
/// a single 4 KiB block already fills the slice.
pub fn decrypt_span(
    pool: &CryptoPool,
    keys: &[Key256],
    iv: &Iv128,
    data: &mut [u8],
    block_size: usize,
    backend: CryptoBackend,
) -> Result<()> {
    check_span(data.len(), keys.len(), block_size)?;
    match backend {
        CryptoBackend::TTable => {
            span_for_each(pool, data, block_size, keys, |block, key| {
                stats::count_scalar_blocks(block.len() / AES_BLOCK);
                let cipher = Aes256::new(key);
                cbc::decrypt_in_place(&cipher, iv, block).expect("span alignment checked");
            });
        }
        CryptoBackend::Fixsliced => {
            pool.split_for_each(keys.len(), data, keys, |span, ks| {
                stats::count_wide_blocks(span.len() / AES_BLOCK);
                fixsliced::cbc_decrypt_chains(ks, iv, span, block_size);
            });
        }
    }
    Ok(())
}

/// CBC encryption of one contiguous span of whole blocks in place under one
/// shared cipher with per-block IVs (the EncFS layout). Allocation-free.
/// Wide/scalar dispatch follows [`encrypt_span`].
pub fn encrypt_span_with(
    pool: &CryptoPool,
    cipher: &SpanCipher,
    ivs: &[Iv128],
    data: &mut [u8],
    block_size: usize,
    backend: CryptoBackend,
) -> Result<()> {
    check_span(data.len(), ivs.len(), block_size)?;
    match backend {
        CryptoBackend::TTable => {
            span_for_each(pool, data, block_size, ivs, |block, iv| {
                stats::count_scalar_blocks(block.len() / AES_BLOCK);
                cbc::encrypt_in_place(cipher.tt(), iv, block).expect("span alignment checked");
            });
        }
        CryptoBackend::Fixsliced => {
            pool.split_for_each(ivs.len(), data, ivs, |span, ivs| {
                let groups = span
                    .chunks_mut(fixsliced::WIDE_BLOCKS * block_size)
                    .zip(ivs.chunks(fixsliced::WIDE_BLOCKS));
                for (run, group) in groups {
                    if group.len() >= WIDE_MIN_BLOCKS {
                        stats::count_wide_blocks(run.len() / AES_BLOCK);
                        fixsliced::cbc_encrypt_chains_shared(cipher.fix(), group, run, block_size);
                    } else {
                        stats::count_scalar_blocks(run.len() / AES_BLOCK);
                        for (block, iv) in run.chunks_exact_mut(block_size).zip(group) {
                            cbc::encrypt_in_place(cipher.tt(), iv, block)
                                .expect("span alignment checked");
                        }
                    }
                }
            });
        }
    }
    Ok(())
}

/// CBC decryption of one contiguous span of whole blocks in place under one
/// shared cipher with per-block IVs (inverse of [`encrypt_span_with`]).
/// Allocation-free. Wide/scalar dispatch follows [`decrypt_span`].
pub fn decrypt_span_with(
    pool: &CryptoPool,
    cipher: &SpanCipher,
    ivs: &[Iv128],
    data: &mut [u8],
    block_size: usize,
    backend: CryptoBackend,
) -> Result<()> {
    check_span(data.len(), ivs.len(), block_size)?;
    match backend {
        CryptoBackend::TTable => {
            span_for_each(pool, data, block_size, ivs, |block, iv| {
                stats::count_scalar_blocks(block.len() / AES_BLOCK);
                cbc::decrypt_in_place(cipher.tt(), iv, block).expect("span alignment checked");
            });
        }
        CryptoBackend::Fixsliced => {
            pool.split_for_each(ivs.len(), data, ivs, |span, ivs| {
                stats::count_wide_blocks(span.len() / AES_BLOCK);
                fixsliced::cbc_decrypt_chains_shared(cipher.fix(), ivs, span, block_size);
            });
        }
    }
    Ok(())
}

/// CBC encryption of every block in place under one shared cipher with a
/// per-block IV (the EncFS layout). `ivs` and `blocks` must be parallel
/// slices of equal length.
pub fn encrypt_blocks_with(
    pool: &CryptoPool,
    cipher: &Aes256,
    ivs: &[Iv128],
    blocks: &mut [&mut [u8]],
) -> Result<()> {
    assert_eq!(ivs.len(), blocks.len(), "one IV per block");
    check_aligned(blocks)?;
    pool.zip_for_each(blocks, ivs, |block, iv| {
        cbc::encrypt_in_place(cipher, iv, block).expect("alignment checked above");
    });
    Ok(())
}

/// CBC decryption of every block in place under one shared cipher with a
/// per-block IV (inverse of [`encrypt_blocks_with`]).
pub fn decrypt_blocks_with(
    pool: &CryptoPool,
    cipher: &Aes256,
    ivs: &[Iv128],
    blocks: &mut [&mut [u8]],
) -> Result<()> {
    assert_eq!(ivs.len(), blocks.len(), "one IV per block");
    check_aligned(blocks)?;
    pool.zip_for_each(blocks, ivs, |block, iv| {
        cbc::decrypt_in_place(cipher, iv, block).expect("alignment checked above");
    });
    Ok(())
}

/// The block size the fan-out rule's tile was costed at; a buffer with no
/// block structure of its own ([`cbc_decrypt_parallel`]) is counted in these.
const NOMINAL_BLOCK: usize = 4096;

/// Decrypts one long CBC buffer in parallel chunks.
///
/// CBC *encryption* is a strict chain, but decrypting AES block `i` only
/// needs ciphertext blocks `i` and `i - 1`, so the buffer splits at any
/// 16-byte boundary into chunks whose IV is the last ciphertext block of the
/// preceding chunk. The chunk IVs are snapshotted before any decryption
/// starts, then the chunks decrypt concurrently — one per share the pool's
/// fan-out rule grants a buffer of this many 4 KiB blocks.
pub fn cbc_decrypt_parallel(
    pool: &CryptoPool,
    cipher: &SpanCipher,
    iv: &Iv128,
    data: &mut [u8],
    backend: CryptoBackend,
) -> Result<()> {
    if !data.len().is_multiple_of(AES_BLOCK) {
        return Err(CryptoError::InvalidLength {
            len: data.len(),
            expected_multiple_of: AES_BLOCK,
        });
    }
    let decrypt = |part: &mut [u8], part_iv: &Iv128| match backend {
        CryptoBackend::TTable => {
            stats::count_scalar_blocks(part.len() / AES_BLOCK);
            cbc::decrypt_in_place(cipher.tt(), part_iv, part).expect("alignment checked above");
        }
        CryptoBackend::Fixsliced => {
            stats::count_wide_blocks(part.len() / AES_BLOCK);
            fixsliced::cbc_decrypt(cipher.fix(), part_iv, part);
        }
    };
    let shares = pool.shares(data.len() / NOMINAL_BLOCK);
    if shares == 1 {
        decrypt(data, iv);
        return Ok(());
    }
    let chunk = (data.len() / AES_BLOCK).div_ceil(shares) * AES_BLOCK;
    // Snapshot each chunk's IV (the previous chunk's final ciphertext block)
    // before decryption overwrites it.
    let mut ivs: Vec<Iv128> = vec![*iv];
    for boundary in (chunk..data.len()).step_by(chunk) {
        ivs.push(
            data[boundary - AES_BLOCK..boundary]
                .try_into()
                .expect("one AES block"),
        );
    }
    let decrypt = &decrypt;
    std::thread::scope(|scope| {
        for (part, part_iv) in data.chunks_mut(chunk).zip(&ivs) {
            scope.spawn(move || decrypt(part, part_iv));
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FIXED_IV;

    fn pool() -> CryptoPool {
        CryptoPool::new(3)
    }

    fn sample_blocks(n: usize, bs: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| (0..bs).map(|j| (i * 31 + j) as u8).collect())
            .collect()
    }

    #[test]
    fn derive_keys_matches_serial_derivation() {
        let kdf = ConvergentKdf::new(&[0x11; 32]);
        let blocks = sample_blocks(17, 256);
        let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
        let keys = derive_keys(&pool(), &kdf, &refs);
        for (block, key) in blocks.iter().zip(&keys) {
            assert_eq!(*key, kdf.derive_for_block(block));
        }
    }

    #[test]
    fn encrypt_decrypt_blocks_round_trip_and_match_serial() {
        let kdf = ConvergentKdf::new(&[0x22; 32]);
        let plain = sample_blocks(9, 256);
        let refs: Vec<&[u8]> = plain.iter().map(|b| b.as_slice()).collect();
        let keys = derive_keys(&pool(), &kdf, &refs);

        let mut batch = plain.clone();
        {
            let mut refs: Vec<&mut [u8]> = batch.iter_mut().map(|b| b.as_mut_slice()).collect();
            encrypt_blocks(&pool(), &keys, &FIXED_IV, &mut refs).unwrap();
        }
        // Serial reference.
        for (i, block) in plain.iter().enumerate() {
            let mut serial = block.clone();
            cbc::encrypt_in_place(&Aes256::new(&keys[i]), &FIXED_IV, &mut serial).unwrap();
            assert_eq!(serial, batch[i], "block {i} diverged from serial CBC");
        }
        {
            let mut refs: Vec<&mut [u8]> = batch.iter_mut().map(|b| b.as_mut_slice()).collect();
            decrypt_blocks(&pool(), &keys, &FIXED_IV, &mut refs).unwrap();
        }
        assert_eq!(batch, plain);
    }

    #[test]
    fn shared_cipher_per_block_ivs_round_trip() {
        let cipher = Aes256::new(&[0x33; 32]);
        let plain = sample_blocks(11, 64);
        let ivs: Vec<Iv128> = (0..11u8).map(|i| [i; 16]).collect();
        let mut batch = plain.clone();
        {
            let mut refs: Vec<&mut [u8]> = batch.iter_mut().map(|b| b.as_mut_slice()).collect();
            encrypt_blocks_with(&pool(), &cipher, &ivs, &mut refs).unwrap();
        }
        for (i, block) in plain.iter().enumerate() {
            let mut serial = block.clone();
            cbc::encrypt_in_place(&cipher, &ivs[i], &mut serial).unwrap();
            assert_eq!(serial, batch[i]);
        }
        {
            let mut refs: Vec<&mut [u8]> = batch.iter_mut().map(|b| b.as_mut_slice()).collect();
            decrypt_blocks_with(&pool(), &cipher, &ivs, &mut refs).unwrap();
        }
        assert_eq!(batch, plain);
    }

    const BACKENDS: [CryptoBackend; 2] = [CryptoBackend::Fixsliced, CryptoBackend::TTable];

    #[test]
    fn cbc_decrypt_parallel_matches_serial_for_odd_sizes() {
        let cipher = SpanCipher::new(&[0x44; 32]);
        for backend in BACKENDS {
            // The last two are 32 and 53.x nominal 4 KiB blocks: enough tiles
            // for two and three shares, with a ragged final chunk.
            for aes_blocks in [0usize, 1, 2, 3, 7, 64, 65, 255, 8192, 13_571] {
                let plain: Vec<u8> = (0..aes_blocks * 16).map(|i| (i % 253) as u8).collect();
                let mut ct = plain.clone();
                cbc::encrypt_in_place(cipher.tt(), &FIXED_IV, &mut ct).unwrap();
                let mut par = ct.clone();
                cbc_decrypt_parallel(&pool(), &cipher, &FIXED_IV, &mut par, backend).unwrap();
                assert_eq!(par, plain, "{aes_blocks} AES blocks ({backend:?})");
            }
        }
    }

    #[test]
    fn span_apis_match_reference_slice_apis() {
        let cipher = SpanCipher::new(&[0x66; 32]);
        // 7 straddles the SHA_LANES tail; 9 and 16 straddle WIDE_MIN_BLOCKS,
        // so both sides of every wide/scalar dispatch run under each backend;
        // 32 and 53 fan out (two and three shares, the last with a tail).
        // Both hash versions, each at a block size it takes.
        for (version, bs) in [(HashVersion::V1, 128), (HashVersion::V2, 256)] {
            let kdf = ConvergentKdf::with_version(&[0x55; 32], version);
            span_apis_match_at(&kdf, &cipher, bs);
        }
    }

    fn span_apis_match_at(kdf: &ConvergentKdf, cipher: &SpanCipher, bs: usize) {
        for backend in BACKENDS {
            for blocks in [1usize, 2, 3, 4, 7, 9, 16, 21, 32, 53] {
                let span: Vec<u8> = (0..blocks * bs).map(|i| (i % 251) as u8).collect();

                // derive_span_into == derive_keys on the same blocks.
                let refs: Vec<&[u8]> = span.chunks(bs).collect();
                let expected_keys = derive_keys(&pool(), kdf, &refs);
                let mut keys = vec![[0u8; 32]; blocks];
                derive_span_into(&pool(), kdf, &span, bs, &mut keys, backend).unwrap();
                assert_eq!(keys, expected_keys, "{blocks} blocks ({backend:?})");

                // encrypt_span/decrypt_span == encrypt_blocks/decrypt_blocks.
                let mut a = span.clone();
                encrypt_span(&pool(), &keys, &FIXED_IV, &mut a, bs, backend).unwrap();
                let mut b = span.clone();
                {
                    let mut refs: Vec<&mut [u8]> = b.chunks_mut(bs).collect();
                    encrypt_blocks(&pool(), &keys, &FIXED_IV, &mut refs).unwrap();
                }
                assert_eq!(a, b, "{blocks} blocks ({backend:?})");
                decrypt_span(&pool(), &keys, &FIXED_IV, &mut a, bs, backend).unwrap();
                assert_eq!(a, span, "{blocks} blocks ({backend:?})");

                // The shared-cipher per-IV variants agree too.
                let ivs: Vec<Iv128> = (0..blocks as u8).map(|i| [i ^ 0x3c; 16]).collect();
                let mut c = span.clone();
                encrypt_span_with(&pool(), cipher, &ivs, &mut c, bs, backend).unwrap();
                let mut d = span.clone();
                {
                    let mut refs: Vec<&mut [u8]> = d.chunks_mut(bs).collect();
                    encrypt_blocks_with(&pool(), cipher.tt(), &ivs, &mut refs).unwrap();
                }
                assert_eq!(c, d, "{blocks} blocks ({backend:?})");
                decrypt_span_with(&pool(), cipher, &ivs, &mut c, bs, backend).unwrap();
                assert_eq!(c, span, "{blocks} blocks ({backend:?})");
            }
        }
    }

    #[test]
    fn backends_produce_identical_ciphertext() {
        // The backend must never change bytes on disk — only how they are
        // computed. 4 KiB blocks exercise the real data-path shape.
        let kdf = ConvergentKdf::new(&[0x77; 32]);
        let bs = 4096;
        let blocks = 12;
        let span: Vec<u8> = (0..blocks * bs).map(|i| (i * 7 % 256) as u8).collect();
        let mut keys_fix = vec![[0u8; 32]; blocks];
        let mut keys_tt = vec![[0u8; 32]; blocks];
        derive_span_into(
            &pool(),
            &kdf,
            &span,
            bs,
            &mut keys_fix,
            CryptoBackend::Fixsliced,
        )
        .unwrap();
        derive_span_into(
            &pool(),
            &kdf,
            &span,
            bs,
            &mut keys_tt,
            CryptoBackend::TTable,
        )
        .unwrap();
        assert_eq!(keys_fix, keys_tt);
        let mut fix = span.clone();
        encrypt_span(
            &pool(),
            &keys_fix,
            &FIXED_IV,
            &mut fix,
            bs,
            CryptoBackend::Fixsliced,
        )
        .unwrap();
        let mut tt = span.clone();
        encrypt_span(
            &pool(),
            &keys_tt,
            &FIXED_IV,
            &mut tt,
            bs,
            CryptoBackend::TTable,
        )
        .unwrap();
        assert_eq!(fix, tt, "backends must produce byte-identical ciphertext");
        decrypt_span(
            &pool(),
            &keys_fix,
            &FIXED_IV,
            &mut tt,
            bs,
            CryptoBackend::Fixsliced,
        )
        .unwrap();
        assert_eq!(tt, span);
    }

    #[test]
    fn span_length_mismatches_rejected() {
        let kdf = ConvergentKdf::new(&[1; 32]);
        let backend = CryptoBackend::default();
        let mut keys = [[0u8; 32]; 2];
        assert!(derive_span_into(&pool(), &kdf, &[0u8; 100], 64, &mut keys, backend).is_err());
        // Whole blocks, but too small to quarter: v2 refuses, v1 takes them.
        assert!(derive_span_into(&pool(), &kdf, &[0u8; 128], 64, &mut keys, backend).is_err());
        let v1 = ConvergentKdf::with_version(&[1; 32], HashVersion::V1);
        assert!(derive_span_into(&pool(), &v1, &[0u8; 128], 64, &mut keys, backend).is_ok());
        let mut data = vec![0u8; 100];
        assert!(encrypt_span(&pool(), &[[0u8; 32]; 2], &FIXED_IV, &mut data, 64, backend).is_err());
        let mut aligned = vec![0u8; 128];
        assert!(decrypt_span(
            &pool(),
            &[[0u8; 32]; 2],
            &FIXED_IV,
            &mut aligned,
            63,
            backend
        )
        .is_err());
    }

    #[test]
    fn misaligned_blocks_rejected() {
        let mut bad = vec![0u8; 17];
        let mut refs: Vec<&mut [u8]> = vec![bad.as_mut_slice()];
        assert!(encrypt_blocks(&pool(), &[[0u8; 32]], &FIXED_IV, &mut refs).is_err());
        let cipher = SpanCipher::new(&[0u8; 32]);
        for backend in BACKENDS {
            assert!(cbc_decrypt_parallel(&pool(), &cipher, &FIXED_IV, &mut bad, backend).is_err());
        }
    }
}
