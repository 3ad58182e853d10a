//! Fixsliced (bitsliced) constant-time AES-256 — the wide crypto kernel.
//!
//! The T-table cipher in [`crate::aes`] indexes 1 KiB lookup tables with
//! secret-derived bytes, so its memory-access pattern leaks key/plaintext
//! bits through the cache (the classic Bernstein/Osvik–Shamir–Tromer
//! attacks). This module is the hardened replacement: the AES state is
//! *bitsliced* into eight bit-planes and every round transformation is
//! computed with pure word-parallel logic — XOR/AND/rotate on `[u64; 4]`
//! vectors — so the kernel executes **zero secret-dependent table lookups
//! and zero secret-dependent branches**.
//!
//! Bitslicing is also how the kernel gets *faster* than T-tables rather
//! than slower: each bit-plane is a `[u64; 4]` vector whose 256 bits hold
//! one bit position of **16 AES blocks**, so one pass over the round
//! function encrypts or decrypts 16 blocks at once ([`WIDE_BLOCKS`]), and
//! the fixed-shape array arithmetic autovectorizes to 256-bit SIMD. The
//! span/batch layer (PR 3/5/8) already delivers crypto work in multi-block
//! runs, which is exactly the regime where the wide kernel wins; see
//! [`crate::batch`] for the dispatch.
//!
//! # Packing
//!
//! Plane `p` holds bit `p` (LSB numbering) of every state byte. Lane word
//! `c` of a [`W`] vector holds state **column** `c`; within the word, the
//! bit at position `row*16 + blk` belongs to state byte `(row, c)` of
//! block `blk` (all 16 blocks share every word). The dimensions are chosen
//! so each linear layer hits its cheapest form:
//!
//! * **MixColumns** mixes *rows* (at stride 16 within each word), so the
//!   row rotations are whole-word `rotate_right(16k)` — element-wise, one
//!   instruction per plane;
//! * the fixslicing column realignment (`frot`) is a *uniform rotation
//!   of the four column lanes* — a single register shuffle per use, and
//!   the only non-element-wise operation in the entire round function.
//!
//! ShiftRows itself is never executed: the kernel is *fixsliced*
//! (Adomnicai–Peyrin style), letting the ShiftRows permutation accumulate
//! across rounds, compensating inside MixColumns, and paying the one
//! residual `ShiftRows²` at the end of the pass.
//!
//! # The S-box circuit
//!
//! SubBytes evaluates the Boyar–Peralta 113-gate circuit for the AES S-box
//! (the same straight-line program BearSSL's `aes_ct` uses), and
//! InvSubBytes reuses the *forward* circuit conjugated with the inverse
//! affine map: since `S = A ∘ I` with `I` the (involutive) GF(2^8)
//! inversion, `S⁻¹ = I ∘ A⁻¹ = A⁻¹ ∘ S ∘ A⁻¹`. Both are validated
//! exhaustively against the FIPS-197 tables in this module's tests.
//!
//! The key schedule runs SubWord through the same circuit, so key expansion
//! is constant-time too — unlike the T-table schedule, which indexes the
//! S-box table with key bytes. This matters on the convergent write path,
//! where a fresh *secret per-block key* is expanded for every data block.
//!
//! # What stays table-driven
//!
//! This kernel indexes nothing by secrets, but three callers on the default
//! path still do, around it:
//!
//! * GHASH ([`crate::ghash`]) keeps Shoup's nibble tables, and they are
//!   indexed by nibbles of the running accumulator — a product with the
//!   subkey `H = E_K(0)`, so the indices depend on the outer key, not only
//!   on ciphertext and AAD (ROADMAP item 2(b));
//! * the span encrypt sends groups of fewer than
//!   [`crate::batch::WIDE_MIN_BLOCKS`] chains to the T-table cipher, under
//!   secret per-block convergent keys (ROADMAP item 2(e));
//! * EncFS derives its per-block IVs through the T-table schedule (2(e)).
//!
//! The T-table path also survives as the differential oracle — see
//! `CryptoBackend::TTable` and the `wide_crypto` bench.

use crate::{Iv128, Key256};
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// `u64` lane words per bit-plane vector (256 state bits per plane).
pub const WIDE_LANES: usize = 4;

/// AES blocks processed per wide pass (all interleaved through each lane word).
pub const WIDE_BLOCKS: usize = 4 * WIDE_LANES;

/// Bytes consumed by one wide pass (16 AES blocks).
pub const WIDE_BYTES: usize = 16 * WIDE_BLOCKS;

/// Number of AES-256 rounds.
const ROUNDS: usize = 14;

/// Round constants for the key schedule (public values).
const RCON: [u8; 7] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40];

/// One bit-plane vector: 256 bits = one bit position of 16 AES blocks.
///
/// All kernel arithmetic is element-wise on this fixed-size array, which
/// LLVM lowers to 256-bit SIMD where available; there is no secret-indexed
/// memory access anywhere in the type's operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct W(pub [u64; WIDE_LANES]);

impl W {
    /// The all-zero vector.
    pub const ZERO: W = W([0; WIDE_LANES]);
    /// The all-ones vector (used for the S-box affine constant).
    pub const ONES: W = W([!0; WIDE_LANES]);

    #[inline(always)]
    fn ror(self, k: u32) -> W {
        W(std::array::from_fn(|i| self.0[i].rotate_right(k)))
    }

    #[inline(always)]
    fn shl(self, k: u32) -> W {
        W(std::array::from_fn(|i| self.0[i] << k))
    }

    #[inline(always)]
    fn shr(self, k: u32) -> W {
        W(std::array::from_fn(|i| self.0[i] >> k))
    }

    #[inline(always)]
    fn mask(self, m: u64) -> W {
        W(std::array::from_fn(|i| self.0[i] & m))
    }
}

impl BitXor for W {
    type Output = W;
    #[inline(always)]
    fn bitxor(self, o: W) -> W {
        W(std::array::from_fn(|i| self.0[i] ^ o.0[i]))
    }
}

impl BitAnd for W {
    type Output = W;
    #[inline(always)]
    fn bitand(self, o: W) -> W {
        W(std::array::from_fn(|i| self.0[i] & o.0[i]))
    }
}

impl BitOr for W {
    type Output = W;
    #[inline(always)]
    fn bitor(self, o: W) -> W {
        W(std::array::from_fn(|i| self.0[i] | o.0[i]))
    }
}

impl Not for W {
    type Output = W;
    #[inline(always)]
    fn not(self) -> W {
        W(std::array::from_fn(|i| !self.0[i]))
    }
}

/// The bitsliced state: plane `p` holds bit `p` of every byte.
pub type Planes = [W; 8];

/// Round keys in bitsliced form, ready for `add_round_key`, with the
/// fixsliced representation of each round (`ShiftRows^±r`) pre-baked into
/// the key bytes' column positions. A schedule is therefore
/// direction-specific: [`Aes256Fix::packed_enc_keys`] for
/// [`encrypt_planes`], [`Aes256Fix::packed_dec_keys`] for
/// [`decrypt_planes`].
///
/// Packing costs about as much as one wide pass, so a cipher used for many
/// short calls (the KDF's inner key, a GCM key) packs once and keeps the
/// result; the span entry points below take it pre-packed.
#[derive(Clone)]
pub struct PackedKeys {
    rks: [Planes; ROUNDS + 1],
    enc: bool,
}

// ---------------------------------------------------------------------------
// Packing: 256 bytes (16 blocks) <-> 8 bit-plane vectors.
// ---------------------------------------------------------------------------

/// Byte-interleaves the four bytes of `lo` with the four bytes of `hi`:
/// `l0 h0 l1 h1 l2 h2 l3 h3` (a zip, 10 word ops).
#[inline(always)]
fn zip_bytes(lo: u32, hi: u32) -> u64 {
    let mut x = lo as u64;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    let mut y = hi as u64;
    y = (y | (y << 16)) & 0x0000_FFFF_0000_FFFF;
    y = (y | (y << 8)) & 0x00FF_00FF_00FF_00FF;
    x | (y << 8)
}

/// Inverse of [`zip_bytes`].
#[inline(always)]
fn unzip_bytes(z: u64) -> (u32, u32) {
    let mut x = z & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF;
    let mut y = (z >> 8) & 0x00FF_00FF_00FF_00FF;
    y = (y | (y >> 8)) & 0x0000_FFFF_0000_FFFF;
    y = (y | (y >> 16)) & 0x0000_0000_FFFF_FFFF;
    (x as u32, y as u32)
}

/// One delta-swap stage of the 8-word orthogonalization: exchanges
/// word-index bit `t` with bit-position bit `t` for the pair `(a, b)`
/// (`b = a | 1<<t`, `d = 1<<t`, `m` = positions with bit `t` clear).
#[inline(always)]
fn dswap(q: &mut [W; 8], a: usize, b: usize, d: u32, m: u64) {
    let t = (q[a].shr(d) ^ q[b]).mask(m);
    q[b] = q[b] ^ t;
    q[a] = q[a] ^ t.shl(d);
}

/// The 3-stage bit-matrix transpose shared by [`pack`] and [`unpack`].
///
/// Each stage is an involution and the stages touch disjoint index bits,
/// so the whole transform is self-inverse.
#[inline(always)]
fn transpose(q: &mut [W; 8]) {
    const M0: u64 = 0x5555_5555_5555_5555;
    const M1: u64 = 0x3333_3333_3333_3333;
    const M2: u64 = 0x0F0F_0F0F_0F0F_0F0F;
    dswap(q, 0, 1, 1, M0);
    dswap(q, 2, 3, 1, M0);
    dswap(q, 4, 5, 1, M0);
    dswap(q, 6, 7, 1, M0);
    dswap(q, 0, 2, 2, M1);
    dswap(q, 1, 3, 2, M1);
    dswap(q, 4, 6, 2, M1);
    dswap(q, 5, 7, 2, M1);
    dswap(q, 0, 4, 4, M2);
    dswap(q, 1, 5, 4, M2);
    dswap(q, 2, 6, 4, M2);
    dswap(q, 3, 7, 4, M2);
}

/// Packs 16 consecutive AES blocks (256 bytes) into bitsliced planes.
///
/// Word `j` of the pre-transpose staging holds, for each column lane, the
/// bytes of blocks `j` and `j + 8` zipped pairwise; the shared 3-stage
/// transpose then scatters byte bits onto planes so that plane `p`, lane
/// `c`, bit `row*16 + blk` is bit `p` of state byte `(row, c)` of block
/// `blk`.
#[inline]
pub fn pack(bytes: &[u8; WIDE_BYTES]) -> Planes {
    let mut q = [W::ZERO; 8];
    for (j, word) in q.iter_mut().enumerate() {
        let mut w = [0u64; WIDE_LANES];
        for (c, lane) in w.iter_mut().enumerate() {
            let lo = u32::from_le_bytes(
                bytes[j * 16 + c * 4..j * 16 + c * 4 + 4]
                    .try_into()
                    .unwrap(),
            );
            let hi = u32::from_le_bytes(
                bytes[(j + 8) * 16 + c * 4..(j + 8) * 16 + c * 4 + 4]
                    .try_into()
                    .unwrap(),
            );
            *lane = zip_bytes(lo, hi);
        }
        *word = W(w);
    }
    transpose(&mut q);
    q
}

/// Unpacks bitsliced planes back into 16 consecutive AES blocks.
#[inline]
pub fn unpack(planes: &Planes, bytes: &mut [u8; WIDE_BYTES]) {
    let mut q = *planes;
    transpose(&mut q);
    for (j, w) in q.iter().enumerate() {
        for (c, lane) in w.0.iter().enumerate() {
            let (lo, hi) = unzip_bytes(*lane);
            bytes[j * 16 + c * 4..j * 16 + c * 4 + 4].copy_from_slice(&lo.to_le_bytes());
            bytes[(j + 8) * 16 + c * 4..(j + 8) * 16 + c * 4 + 4]
                .copy_from_slice(&hi.to_le_bytes());
        }
    }
}

// ---------------------------------------------------------------------------
// SubBytes / InvSubBytes: the Boyar–Peralta circuit.
// ---------------------------------------------------------------------------

/// The Boyar–Peralta 113-gate AES S-box as a straight-line program over
/// any GF(2) algebra. `x[0]` is the **most significant** input bit and the
/// returned `s[0]` the most significant output bit (the circuit's native
/// convention; [`sub_bytes`] adapts it to the LSB-numbered planes).
#[inline(always)]
fn bp_sbox(x: [W; 8]) -> [W; 8] {
    let (x0, x1, x2, x3, x4, x5, x6, x7) = (x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]);
    // Top linear layer: 21 shared sums of the input bits.
    let y14 = x3 ^ x5;
    let y13 = x0 ^ x6;
    let y9 = x0 ^ x3;
    let y8 = x0 ^ x5;
    let t0 = x1 ^ x2;
    let y1 = t0 ^ x7;
    let y4 = y1 ^ x3;
    let y12 = y13 ^ y14;
    let y2 = y1 ^ x0;
    let y5 = y1 ^ x6;
    let y3 = y5 ^ y8;
    let t1 = x4 ^ y12;
    let y15 = t1 ^ x5;
    let y20 = t1 ^ x1;
    let y6 = y15 ^ x7;
    let y10 = y15 ^ t0;
    let y11 = y20 ^ y9;
    let y7 = x7 ^ y11;
    let y17 = y10 ^ y11;
    let y19 = y10 ^ y8;
    let y16 = t0 ^ y11;
    let y21 = y13 ^ y16;
    let y18 = x0 ^ y16;
    // Middle nonlinear layer: the GF(2^4) inversion core (32 AND gates).
    let t2 = y12 & y15;
    let t3 = y3 & y6;
    let t4 = t3 ^ t2;
    let t5 = y4 & x7;
    let t6 = t5 ^ t2;
    let t7 = y13 & y16;
    let t8 = y5 & y1;
    let t9 = t8 ^ t7;
    let t10 = y2 & y7;
    let t11 = t10 ^ t7;
    let t12 = y9 & y11;
    let t13 = y14 & y17;
    let t14 = t13 ^ t12;
    let t15 = y8 & y10;
    let t16 = t15 ^ t12;
    let t17 = t4 ^ t14;
    let t18 = t6 ^ t16;
    let t19 = t9 ^ t14;
    let t20 = t11 ^ t16;
    let t21 = t17 ^ y20;
    let t22 = t18 ^ y19;
    let t23 = t19 ^ y21;
    let t24 = t20 ^ y18;
    let t25 = t21 ^ t22;
    let t26 = t21 & t23;
    let t27 = t24 ^ t26;
    let t28 = t25 & t27;
    let t29 = t28 ^ t22;
    let t30 = t23 ^ t24;
    let t31 = t22 ^ t26;
    let t32 = t31 & t30;
    let t33 = t32 ^ t24;
    let t34 = t23 ^ t33;
    let t35 = t27 ^ t33;
    let t36 = t24 & t35;
    let t37 = t36 ^ t34;
    let t38 = t27 ^ t36;
    let t39 = t29 & t38;
    let t40 = t25 ^ t39;
    let t41 = t40 ^ t37;
    let t42 = t29 ^ t33;
    let t43 = t29 ^ t40;
    let t44 = t33 ^ t37;
    let t45 = t42 ^ t41;
    let z0 = t44 & y15;
    let z1 = t37 & y6;
    let z2 = t33 & x7;
    let z3 = t43 & y16;
    let z4 = t40 & y1;
    let z5 = t29 & y7;
    let z6 = t42 & y11;
    let z7 = t45 & y17;
    let z8 = t41 & y10;
    let z9 = t44 & y12;
    let z10 = t37 & y3;
    let z11 = t33 & y4;
    let z12 = t43 & y13;
    let z13 = t40 & y5;
    let z14 = t29 & y2;
    let z15 = t42 & y9;
    let z16 = t45 & y14;
    let z17 = t41 & y8;
    // Bottom linear layer, folding in the affine map (the XNORs realise
    // the 0x63 constant on output bits 1, 2, 6 and 7).
    let t46 = z15 ^ z16;
    let t47 = z10 ^ z11;
    let t48 = z5 ^ z13;
    let t49 = z9 ^ z10;
    let t50 = z2 ^ z12;
    let t51 = z2 ^ z5;
    let t52 = z7 ^ z8;
    let t53 = z0 ^ z3;
    let t54 = z6 ^ z7;
    let t55 = z16 ^ z17;
    let t56 = z12 ^ t48;
    let t57 = t50 ^ t53;
    let t58 = z4 ^ t46;
    let t59 = z3 ^ t54;
    let t60 = t46 ^ t57;
    let t61 = z14 ^ t57;
    let t62 = t52 ^ t58;
    let t63 = t49 ^ t58;
    let t64 = z4 ^ t59;
    let t65 = t61 ^ t62;
    let t66 = z1 ^ t63;
    let s0 = t59 ^ t63;
    let s6 = !(t56 ^ t62);
    let s7 = !(t48 ^ t60);
    let t67 = t64 ^ t65;
    let s3 = t53 ^ t66;
    let s4 = t51 ^ t66;
    let s5 = t47 ^ t65;
    let s1 = !(t64 ^ s3);
    let s2 = !(t55 ^ t67);
    [s0, s1, s2, s3, s4, s5, s6, s7]
}

/// SubBytes on the bitsliced state (planes LSB-first, circuit MSB-first).
#[inline(always)]
fn sub_bytes(p: &mut Planes) {
    let s = bp_sbox([p[7], p[6], p[5], p[4], p[3], p[2], p[1], p[0]]);
    *p = [s[7], s[6], s[5], s[4], s[3], s[2], s[1], s[0]];
}

/// The inverse of the S-box affine map: `b_i = a_{i+2} ^ a_{i+5} ^ a_{i+7}
/// ^ 0x05_i` (indices mod 8, LSB numbering).
#[inline(always)]
fn inv_affine(p: &Planes) -> Planes {
    let mut out = [W::ZERO; 8];
    for i in 0..8 {
        out[i] = p[(i + 2) % 8] ^ p[(i + 5) % 8] ^ p[(i + 7) % 8];
    }
    // Constant 0x05: complement bits 0 and 2.
    out[0] = !out[0];
    out[2] = !out[2];
    out
}

/// InvSubBytes via `S⁻¹ = A⁻¹ ∘ S ∘ A⁻¹` (see the module docs).
#[inline(always)]
fn inv_sub_bytes(p: &mut Planes) {
    *p = inv_affine(p);
    sub_bytes(p);
    *p = inv_affine(p);
}

/// The GF(2⁸) field inversion `I = A⁻¹ ∘ S`: the Boyar–Peralta circuit
/// with the inverse-affine epilogue.
///
/// The encrypt round uses this instead of plain [`sub_bytes`] for codegen
/// reasons: LLVM's SLP vectorizer reliably vectorizes the S-box circuit
/// when its outputs feed the uniform `inv_affine` trees (as in the decrypt
/// round), but leaves the bare circuit scalar. The affine map `A` is
/// re-applied as [`fwd_affine_linear`] plus a key-folded constant, so the
/// composition is still exactly SubBytes.
#[inline(always)]
fn field_inv(p: &mut Planes) {
    sub_bytes(p);
    *p = inv_affine(p);
}

/// The linear part `M` of the S-box affine map:
/// `b_i = a_i ^ a_{i+4} ^ a_{i+5} ^ a_{i+6} ^ a_{i+7}` (indices mod 8,
/// LSB numbering). The constant `0x63` lives in the round keys
/// ([`fold_sbox_const`]).
#[inline(always)]
fn fwd_affine_linear(p: &Planes) -> Planes {
    let mut out = [W::ZERO; 8];
    for i in 0..8 {
        out[i] = p[i] ^ p[(i + 4) % 8] ^ p[(i + 5) % 8] ^ p[(i + 6) % 8] ^ p[(i + 7) % 8];
    }
    out
}

// ---------------------------------------------------------------------------
// ShiftRows / MixColumns and their inverses.
// ---------------------------------------------------------------------------

/// ShiftRows: row `r` rotates left by `r` columns — within each row's
/// 16-bit field the four 4-bit column nibbles rotate by `4r` bits.
///
/// Kept as the *reference* layer for tests only: the round functions are
/// fixsliced and never materialize ShiftRows (see [`mix_columns_cycled`]).
#[cfg(test)]
fn shift_rows(p: &mut Planes) {
    for w in p.iter_mut() {
        let x = *w;
        // Row r takes its value from column lane c + r: blend the four
        // lane rotations with per-row field masks.
        *w = x.mask(0x0000_0000_0000_FFFF)
            | frot::<1>(x).mask(0x0000_0000_FFFF_0000)
            | frot::<2>(x).mask(0x0000_FFFF_0000_0000)
            | frot::<3>(x).mask(0xFFFF_0000_0000_0000);
    }
}

/// InvShiftRows: row `r` rotates right by `r` columns.
#[cfg(test)]
fn inv_shift_rows(p: &mut Planes) {
    for w in p.iter_mut() {
        let x = *w;
        *w = x.mask(0x0000_0000_0000_FFFF)
            | frot::<3>(x).mask(0x0000_0000_FFFF_0000)
            | frot::<2>(x).mask(0x0000_FFFF_0000_0000)
            | frot::<1>(x).mask(0xFFFF_0000_0000_0000);
    }
}

/// Rotates the column lanes so that output column `c` reads input column
/// `c + M`: the fixslicing realignment that stands in for the skipped
/// ShiftRows. A single register shuffle; `M` is a public round constant.
#[inline(always)]
fn frot<const M: usize>(x: W) -> W {
    let [a, b, c, d] = x.0;
    match M & 3 {
        1 => W([b, c, d, a]),
        2 => W([c, d, a, b]),
        3 => W([d, a, b, c]),
        _ => x,
    }
}

/// Applies `ShiftRows²` (rows 1 and 3 swap their column pairs; rows 0 and
/// 2 are fixed): the one residual permutation a fixsliced pass owes after
/// 14 skipped ShiftRows, since `SR^14 = SR^±2`.
#[inline(always)]
fn shift_rows_sq(p: &mut Planes) {
    for w in p.iter_mut() {
        let x = *w;
        let y = frot::<2>(x);
        *w = x.mask(0x0000_FFFF_0000_FFFF) | y.mask(0xFFFF_0000_FFFF_0000);
    }
}

/// GF(2^8) ×2 (`xtime`) on a plane set: relabel planes and fold the AES
/// polynomial's taps (bit 7 feeds bits 0, 1, 3, 4).
#[inline(always)]
fn xtime_planes(t: &Planes) -> Planes {
    [
        t[7],
        t[0] ^ t[7],
        t[1],
        t[2] ^ t[7],
        t[3] ^ t[7],
        t[4],
        t[5],
        t[6],
    ]
}

/// MixColumns, *fixsliced*: in round `r` the state sits in representation
/// `SR^-r` (ShiftRows has been skipped `r` times), so the conjugated layer
/// `SR^-r ∘ MC ∘ SR^r` must read row `ρ+k` at column `c + rk` — the plain
/// row rotation (`ror 16k` in this packing) composed with a column-nibble
/// realignment [`frot`] by `m1 = r mod 4` / `m2 = 2r mod 4`. With
/// `t = s ^ rot1(s)`: `out = xtime(t) ^ rot1(s) ^ rot2(t)`. Every fourth
/// round both realignments vanish; on average the compensation costs less
/// than half of a materialized ShiftRows.
#[inline(always)]
fn mix_columns_cycled<const M1: usize, const M2: usize>(p: &mut Planes) {
    let s = *p;
    let mut t = [W::ZERO; 8];
    let mut r1 = [W::ZERO; 8];
    for i in 0..8 {
        r1[i] = frot::<M1>(s[i].ror(16));
        t[i] = s[i] ^ r1[i];
    }
    let xt = xtime_planes(&t);
    for i in 0..8 {
        p[i] = xt[i] ^ r1[i] ^ frot::<M2>(t[i].ror(32));
    }
}

/// InvMixColumns as `MC ∘ g` with `g(s) = s ^ xtime²(s ^ rot2(s))` (the
/// 4-coefficient decomposition `[14,11,13,9] = [2,3,1,1]·g`), conjugated
/// for fixsliced decryption: at step `u` the realignments are
/// `m1 = -u mod 4`, `m2 = -2u mod 4`.
#[inline(always)]
fn inv_mix_columns_cycled<const M1: usize, const M2: usize>(p: &mut Planes) {
    let s = *p;
    let mut u = [W::ZERO; 8];
    for i in 0..8 {
        u[i] = s[i] ^ frot::<M2>(s[i].ror(32));
    }
    let u = xtime_planes(&xtime_planes(&u));
    for i in 0..8 {
        p[i] = s[i] ^ u[i];
    }
    mix_columns_cycled::<M1, M2>(p);
}

/// XORs one packed round key into the state.
#[inline(always)]
fn add_round_key(p: &mut Planes, rk: &Planes) {
    for i in 0..8 {
        p[i] = p[i] ^ rk[i];
    }
}

/// Folds the S-box affine constant `0x63` into an encrypt round key.
///
/// The encrypt round computes SubBytes as `A ∘ I` with the inversion `I`
/// coming from [`field_inv`] and only the *linear* part `M` of the affine
/// map applied in the round ([`fwd_affine_linear`]); the constant is a
/// per-byte XOR of `0x63`, which commutes through MixColumns (uniform
/// columns are MC fixed points) straight into the next AddRoundKey. Bits
/// 0, 1, 5 and 6 of `0x63` are set, so those key planes are complemented.
/// Key-schedule-time only; never on the data path.
fn fold_sbox_const(rk: &mut Planes) {
    for i in [0usize, 1, 5, 6] {
        rk[i] = !rk[i];
    }
}

// ---------------------------------------------------------------------------
// The round function over packed state.
// ---------------------------------------------------------------------------

/// Encrypts 16 packed blocks with an encrypt-baked key schedule.
///
/// Fixsliced: no round ever executes ShiftRows. The permutation
/// accumulates in the state representation, `mix_columns_cycled`
/// compensates, the round keys were pre-permuted to match, and the single
/// residual `SR²` is paid once at the end of the pass.
#[inline]
pub fn encrypt_planes(rk: &PackedKeys, p: &mut Planes) {
    debug_assert!(rk.enc, "encrypt_planes needs packed_enc_keys");
    // One full middle round: SubBytes, fixsliced MixColumns, AddRoundKey.
    // The realignment amounts are const generics so every round body is
    // branch-free straight-line code the vectorizer can keep in registers;
    // they cycle with period 4 (`r mod 4`, `2r mod 4`).
    #[inline(never)]
    fn round<const M1: usize, const M2: usize>(p: &mut Planes, rk: &Planes) {
        field_inv(p);
        *p = fwd_affine_linear(p);
        mix_columns_cycled::<M1, M2>(p);
        add_round_key(p, rk);
    }
    add_round_key(p, &rk.rks[0]);
    for r in 1..ROUNDS {
        match r & 3 {
            1 => round::<1, 2>(p, &rk.rks[r]),
            2 => round::<2, 0>(p, &rk.rks[r]),
            3 => round::<3, 2>(p, &rk.rks[r]),
            _ => round::<0, 0>(p, &rk.rks[r]),
        }
    }
    field_inv(p);
    *p = fwd_affine_linear(p);
    add_round_key(p, &rk.rks[ROUNDS]);
    shift_rows_sq(p);
}

/// Decrypts 16 packed blocks (the straight inverse cipher — no
/// equivalent-inverse key transform is needed in bitsliced form), with a
/// decrypt-baked key schedule. Fixsliced exactly like [`encrypt_planes`],
/// with the representation drifting through `SR^+u`.
#[inline]
pub fn decrypt_planes(rk: &PackedKeys, p: &mut Planes) {
    debug_assert!(!rk.enc, "decrypt_planes needs packed_dec_keys");
    // Inverse middle round at fixslicing step `u = ROUNDS - r`:
    // realignments `-u mod 4` / `-2u mod 4`, again period 4.
    #[inline(never)]
    fn round<const M1: usize, const M2: usize>(p: &mut Planes, rk: &Planes) {
        inv_sub_bytes(p);
        add_round_key(p, rk);
        inv_mix_columns_cycled::<M1, M2>(p);
    }
    add_round_key(p, &rk.rks[ROUNDS]);
    for r in (1..ROUNDS).rev() {
        match (ROUNDS - r) & 3 {
            1 => round::<3, 2>(p, &rk.rks[r]),
            2 => round::<2, 0>(p, &rk.rks[r]),
            3 => round::<1, 2>(p, &rk.rks[r]),
            _ => round::<0, 0>(p, &rk.rks[r]),
        }
    }
    inv_sub_bytes(p);
    add_round_key(p, &rk.rks[0]);
    shift_rows_sq(p);
}

// ---------------------------------------------------------------------------
// Constant-time key schedule.
// ---------------------------------------------------------------------------

/// Runs the S-box circuit over the four bytes of one key-schedule word,
/// bitslicing them into the low four bits of a single lane (branch-free).
fn ct_sub_word(b: [u8; 4]) -> [u8; 4] {
    let mut words = [b];
    ct_sub_word_lanes(&mut words);
    words[0]
}

/// SubWord over one key-schedule word *per chain*, all through a single
/// S-box circuit pass: word `k`'s four bytes occupy lane bits `4k..4k+4`,
/// so expanding up to [`WIDE_BLOCKS`] schedules in lockstep pays the
/// circuit once per schedule step instead of once per chain.
fn ct_sub_word_lanes(words: &mut [[u8; 4]]) {
    debug_assert!(words.len() <= WIDE_BLOCKS);
    let mut planes = [W::ZERO; 8];
    for (k, word) in words.iter().enumerate() {
        for (j, byte) in word.iter().enumerate() {
            let pos = (k * 4 + j) as u64;
            for (p, plane) in planes.iter_mut().enumerate() {
                plane.0[0] |= (((byte >> p) & 1) as u64) << pos;
            }
        }
    }
    sub_bytes(&mut planes);
    for (k, word) in words.iter_mut().enumerate() {
        for (j, byte) in word.iter_mut().enumerate() {
            let pos = k * 4 + j;
            *byte = 0;
            for (p, plane) in planes.iter().enumerate() {
                *byte |= (((plane.0[0] >> pos) & 1) as u8) << p;
            }
        }
    }
}

/// An expanded AES-256 key for the fixsliced kernel.
///
/// Functionally interchangeable with [`crate::aes::Aes256`] (same cipher,
/// same test vectors) but the expansion itself is constant-time: SubWord
/// goes through the bitsliced S-box circuit instead of the lookup table,
/// so expanding a secret per-block convergent key leaks nothing through
/// the cache.
#[derive(Clone)]
pub struct Aes256Fix {
    /// Encryption round keys: (ROUNDS + 1) × 4 big-endian words.
    enc_keys: [u32; 4 * (ROUNDS + 1)],
}

impl Aes256Fix {
    /// Expands `key` with the constant-time schedule.
    pub fn new(key: &Key256) -> Self {
        let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for i in 0..8 {
            w[i].copy_from_slice(&key[i * 4..i * 4 + 4]);
        }
        for i in 8..4 * (ROUNDS + 1) {
            let mut temp = w[i - 1];
            if i % 8 == 0 {
                let s = ct_sub_word([temp[1], temp[2], temp[3], temp[0]]);
                temp = [s[0] ^ RCON[i / 8 - 1], s[1], s[2], s[3]];
            } else if i % 8 == 4 {
                temp = ct_sub_word(temp);
            }
            for j in 0..4 {
                w[i][j] = w[i - 8][j] ^ temp[j];
            }
        }
        let mut enc_keys = [0u32; 4 * (ROUNDS + 1)];
        for (i, word) in w.iter().enumerate() {
            enc_keys[i] = u32::from_be_bytes(*word);
        }
        Aes256Fix { enc_keys }
    }

    /// The four round-key bytes that land in packed column `c` of round
    /// `r` (one per state row), gathered as one big-endian word.
    ///
    /// Fixslicing bake: the key byte for `(row, col)` lands at the column
    /// the drifted state representation reads it from — `col + r·row` when
    /// encrypting (`SR^-r`), `col − (14−r)·row` when decrypting (`SR^+u`)
    /// — so column `c` pulls its row-`row` byte from source column
    /// `c + k·row (mod 4)` with `k = 4 − r mod 4` (encrypt) or
    /// `k = 14 − r` (decrypt).
    #[inline]
    fn gather_word(&self, r: usize, c: usize, enc: bool) -> u32 {
        let k = if enc { 4 - r % 4 } else { ROUNDS - r };
        let mut g = 0u32;
        for row in 0..4 {
            let col = (c + k * row) % 4;
            g |= ((self.enc_keys[4 * r + col] >> (24 - 8 * row)) & 0xFF) << (24 - 8 * row);
        }
        g
    }

    /// Packs the schedule in *broadcast* form: every block lane gets the
    /// same round keys (the shared-key passes: ECB, CTR, CBC decrypt).
    fn packed_keys(&self, enc: bool) -> PackedKeys {
        let mut rks = [[W::ZERO; 8]; ROUNDS + 1];
        for (r, rk) in rks.iter_mut().enumerate() {
            for c in 0..4 {
                let g = self.gather_word(r, c, enc);
                for (p, plane) in rk.iter_mut().enumerate() {
                    // One bit per row at 16·row, widened to a 16-block
                    // broadcast field by the multiply.
                    plane.0[c] |= spread_row_bits(g, p).wrapping_mul(0xFFFF);
                }
            }
            if enc && r >= 1 {
                fold_sbox_const(rk);
            }
        }
        PackedKeys { rks, enc }
    }

    /// Broadcast schedule baked for [`encrypt_planes`].
    pub fn packed_enc_keys(&self) -> PackedKeys {
        self.packed_keys(true)
    }

    /// Broadcast schedule baked for [`decrypt_planes`].
    pub fn packed_dec_keys(&self) -> PackedKeys {
        self.packed_keys(false)
    }

    /// Encrypts a single 16-byte block (one active lane; used for GCM's
    /// J0/tag blocks and per-block IV derivation, and as the scalar
    /// constant-time fallback).
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut buf = [0u8; WIDE_BYTES];
        buf[..16].copy_from_slice(block);
        let mut p = pack(&buf);
        encrypt_planes(&self.packed_enc_keys(), &mut p);
        unpack(&p, &mut buf);
        buf[..16].try_into().unwrap()
    }

    /// Decrypts a single 16-byte block (one active lane).
    pub fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut buf = [0u8; WIDE_BYTES];
        buf[..16].copy_from_slice(block);
        let mut p = pack(&buf);
        decrypt_planes(&self.packed_dec_keys(), &mut p);
        unpack(&p, &mut buf);
        buf[..16].try_into().unwrap()
    }
}

// ---------------------------------------------------------------------------
// Wide span helpers: ECB / CBC / CTR over multi-block runs.
//
// All staging state is fixed-size and stack-resident (one 256-byte pass
// buffer), so the warm data path stays zero-alloc. Runs shorter than a full
// pass ride the same wide kernel with idle lanes — under the fixsliced
// backend there is *no* table-driven fallback for tails, so the
// constant-time guarantee covers every input length.
// ---------------------------------------------------------------------------

/// Spreads bit `p` of each row byte of gathered word `g` (big-endian, row
/// 0 in the top byte) to a single bit at position `16·row`: callers shift
/// the result into a block lane, or multiply by `0xFFFF` to broadcast it
/// across all 16 lanes.
#[inline]
fn spread_row_bits(g: u32, p: usize) -> u64 {
    let u = ((g >> p) & 0x0101_0101) as u64;
    ((u >> 24) & 1) | (u & 0x1_0000) | ((u & 0x100) << 24) | ((u & 1) << 48)
}

/// Expands up to 16 key schedules in lockstep, one wide
/// [`ct_sub_word_lanes`] circuit pass per SubWord step of the schedule
/// (instead of one circuit per step *per chain*). This is how the
/// multi-chain CBC entry points amortize the constant-time expansion of
/// fresh per-block convergent keys.
fn expand_lanes(keys: &[Key256], out: &mut [Aes256Fix]) {
    let n = keys.len();
    debug_assert!(n <= WIDE_BLOCKS && out.len() >= n);
    let mut w = [[[0u8; 4]; 4 * (ROUNDS + 1)]; WIDE_BLOCKS];
    for (chain, key) in w.iter_mut().zip(keys) {
        for i in 0..8 {
            chain[i].copy_from_slice(&key[i * 4..i * 4 + 4]);
        }
    }
    let mut temps = [[0u8; 4]; WIDE_BLOCKS];
    for i in 8..4 * (ROUNDS + 1) {
        match i % 8 {
            0 => {
                for (t, chain) in temps[..n].iter_mut().zip(&w) {
                    let prev = chain[i - 1];
                    *t = [prev[1], prev[2], prev[3], prev[0]];
                }
                ct_sub_word_lanes(&mut temps[..n]);
                for t in &mut temps[..n] {
                    t[0] ^= RCON[i / 8 - 1];
                }
            }
            4 => {
                for (t, chain) in temps[..n].iter_mut().zip(&w) {
                    *t = chain[i - 1];
                }
                ct_sub_word_lanes(&mut temps[..n]);
            }
            _ => {
                for (t, chain) in temps[..n].iter_mut().zip(&w) {
                    *t = chain[i - 1];
                }
            }
        }
        for (t, chain) in temps[..n].iter().zip(&mut w) {
            for j in 0..4 {
                chain[i][j] = chain[i - 8][j] ^ t[j];
            }
        }
    }
    for (slot, chain) in out[..n].iter_mut().zip(&w) {
        let mut enc_keys = [0u32; 4 * (ROUNDS + 1)];
        for (i, word) in chain.iter().enumerate() {
            enc_keys[i] = u32::from_be_bytes(*word);
        }
        *slot = Aes256Fix { enc_keys };
    }
}

/// Packs the schedules of up to 16 ciphers in *per-lane* form: block lane
/// `i` gets `ciphers[i]`'s round keys (the multi-chain CBC-encrypt pass,
/// where every convergent chain has its own key). Missing lanes are zero.
fn packed_keys_lanes(ciphers: &[Aes256Fix]) -> PackedKeys {
    debug_assert!(ciphers.len() <= WIDE_BLOCKS);
    let mut rks = [[W::ZERO; 8]; ROUNDS + 1];
    for (r, rk) in rks.iter_mut().enumerate() {
        for (blk, cipher) in ciphers.iter().enumerate() {
            for c in 0..4 {
                let g = cipher.gather_word(r, c, true);
                for (p, plane) in rk.iter_mut().enumerate() {
                    plane.0[c] |= spread_row_bits(g, p) << blk;
                }
            }
        }
        if r >= 1 {
            fold_sbox_const(rk);
        }
    }
    PackedKeys { rks, enc: true }
}

/// Encrypts one staged pass worth of blocks in place.
#[inline(never)]
fn encrypt_pass(rk: &PackedKeys, buf: &mut [u8; WIDE_BYTES]) {
    let mut p = pack(buf);
    encrypt_planes(rk, &mut p);
    unpack(&p, buf);
}

/// Decrypts one staged pass worth of blocks in place.
#[inline(never)]
fn decrypt_pass(rk: &PackedKeys, buf: &mut [u8; WIDE_BYTES]) {
    let mut p = pack(buf);
    decrypt_planes(rk, &mut p);
    unpack(&p, buf);
}

/// ECB-encrypts `data` (a multiple of 16 bytes) under one packed encrypt
/// schedule, 16 blocks per pass; the tail pass runs with idle lanes.
///
/// This is the constant-time form of Equation 1's key mixing: the KDF
/// stages the block hashes of up to eight blocks through one pass here.
pub fn ecb_encrypt(rk: &PackedKeys, data: &mut [u8]) {
    assert!(
        data.len().is_multiple_of(16),
        "ECB input must be block-aligned"
    );
    ecb_passes(rk, data, false);
}

/// ECB-decrypts `data` under a packed decrypt schedule (inverse of
/// [`ecb_encrypt`]).
pub fn ecb_decrypt(rk: &PackedKeys, data: &mut [u8]) {
    assert!(
        data.len().is_multiple_of(16),
        "ECB input must be block-aligned"
    );
    ecb_passes(rk, data, true);
}

fn ecb_passes(rk: &PackedKeys, data: &mut [u8], decrypt: bool) {
    let mut chunks = data.chunks_exact_mut(WIDE_BYTES);
    let mut buf = [0u8; WIDE_BYTES];
    for chunk in &mut chunks {
        buf.copy_from_slice(chunk);
        if decrypt {
            decrypt_pass(rk, &mut buf);
        } else {
            encrypt_pass(rk, &mut buf);
        }
        chunk.copy_from_slice(&buf);
    }
    let tail = chunks.into_remainder();
    if !tail.is_empty() {
        let mut buf = [0u8; WIDE_BYTES];
        buf[..tail.len()].copy_from_slice(tail);
        if decrypt {
            decrypt_pass(rk, &mut buf);
        } else {
            encrypt_pass(rk, &mut buf);
        }
        tail.copy_from_slice(&buf[..tail.len()]);
    }
}

/// CBC-decrypts one contiguous chain in place. CBC decryption is embar-
/// rassingly parallel (every block needs only the *ciphertext* of its
/// predecessor), so a 4 KiB data block fills all 16 lanes for 16 passes.
pub fn cbc_decrypt(cipher: &Aes256Fix, iv: &Iv128, data: &mut [u8]) {
    let rk = cipher.packed_dec_keys();
    cbc_decrypt_run(&rk, iv, data);
}

/// CBC-decrypts one chain with a pre-packed schedule (shared-key form).
#[inline(never)]
fn cbc_decrypt_run(rk: &PackedKeys, iv: &Iv128, data: &mut [u8]) {
    assert!(
        data.len().is_multiple_of(16),
        "CBC input must be block-aligned"
    );
    let nblocks = data.len() / 16;
    let mut buf = [0u8; WIDE_BYTES];
    // Ciphertext of the block preceding the current pass: earlier passes
    // overwrite their ciphertext with plaintext, so it must be carried.
    let mut carry = *iv;
    let mut start = 0usize;
    while start < nblocks {
        let take = (nblocks - start).min(WIDE_BLOCKS);
        buf[..take * 16].copy_from_slice(&data[start * 16..(start + take) * 16]);
        decrypt_pass(rk, &mut buf);
        let next_carry: [u8; 16] = data[(start + take - 1) * 16..(start + take) * 16]
            .try_into()
            .unwrap();
        // XOR each decrypted block with its predecessor's ciphertext,
        // walking backwards so `data` still holds the ciphertext needed.
        for j in (0..take).rev() {
            let blk = start + j;
            let mut prev = [0u8; 16];
            if j == 0 {
                prev.copy_from_slice(&carry);
            } else {
                prev.copy_from_slice(&data[(blk - 1) * 16..blk * 16]);
            }
            let out = &mut data[blk * 16..(blk + 1) * 16];
            for (k, o) in out.iter_mut().enumerate() {
                *o = buf[j * 16 + k] ^ prev[k];
            }
        }
        carry = next_carry;
        start += take;
    }
}

/// CBC-encrypts one contiguous chain in place. CBC encryption is serial
/// within a chain, so this runs one lane per pass — constant-time but slow;
/// the multi-chain entry points below are where the wide win lives, and the
/// T-table oracle remains selectable where whole-file serial CBC dominates.
pub fn cbc_encrypt(cipher: &Aes256Fix, iv: &Iv128, data: &mut [u8]) {
    assert!(
        data.len().is_multiple_of(16),
        "CBC input must be block-aligned"
    );
    let rk = cipher.packed_enc_keys();
    let mut prev = *iv;
    let mut buf = [0u8; WIDE_BYTES];
    for chunk in data.chunks_exact_mut(16) {
        for (k, b) in buf[..16].iter_mut().enumerate() {
            *b = chunk[k] ^ prev[k];
        }
        encrypt_pass(&rk, &mut buf);
        chunk.copy_from_slice(&buf[..16]);
        prev.copy_from_slice(&buf[..16]);
    }
}

/// CBC-encrypts `keys.len()` equal-length chains laid out consecutively in
/// `data` — chain `i` under `keys[i]`, all sharing `iv`. This is the
/// convergent span write: chains are independent, so pass `t` encrypts
/// block `t` of up to 16 chains at once under per-lane round keys.
///
/// `chain_len` must be a multiple of 16 and `data.len()` must equal
/// `keys.len() * chain_len`.
pub fn cbc_encrypt_chains(keys: &[Key256], iv: &Iv128, data: &mut [u8], chain_len: usize) {
    assert!(chain_len.is_multiple_of(16), "chains must be block-aligned");
    assert_eq!(data.len(), keys.len() * chain_len, "span shape mismatch");
    let mut ciphers: [Aes256Fix; WIDE_BLOCKS] =
        core::array::from_fn(|_| Aes256Fix { enc_keys: [0; 60] });
    for (tile_idx, tile_keys) in keys.chunks(WIDE_BLOCKS).enumerate() {
        expand_lanes(tile_keys, &mut ciphers);
        let rk = packed_keys_lanes(&ciphers[..tile_keys.len()]);
        let tile_off = tile_idx * WIDE_BLOCKS * chain_len;
        cbc_encrypt_tile(&rk, &[*iv], data, tile_off, tile_keys.len(), chain_len);
    }
}

/// CBC-encrypts up to 16 chains of a tile: `ivs` holds either one shared
/// IV or one IV per chain.
#[inline(never)]
fn cbc_encrypt_tile(
    rk: &PackedKeys,
    ivs: &[Iv128],
    data: &mut [u8],
    tile_off: usize,
    nchains: usize,
    chain_len: usize,
) {
    let mut buf = [0u8; WIDE_BYTES];
    let nblocks = chain_len / 16;
    for t in 0..nblocks {
        for lane in 0..nchains {
            let off = tile_off + lane * chain_len + t * 16;
            let dst = &mut buf[lane * 16..(lane + 1) * 16];
            dst.copy_from_slice(&data[off..off + 16]);
            if t == 0 {
                let iv = &ivs[lane % ivs.len()];
                for (k, b) in dst.iter_mut().enumerate() {
                    *b ^= iv[k];
                }
            } else {
                let prev = off - 16;
                for k in 0..16 {
                    buf[lane * 16 + k] ^= data[prev + k];
                }
            }
        }
        encrypt_pass(rk, &mut buf);
        for lane in 0..nchains {
            let off = tile_off + lane * chain_len + t * 16;
            data[off..off + 16].copy_from_slice(&buf[lane * 16..(lane + 1) * 16]);
        }
    }
}

/// CBC-decrypts `keys.len()` consecutive equal-length chains, chain `i`
/// under `keys[i]`, all sharing `iv`. Each chain's schedule is expanded
/// once and broadcast, then the chain decrypts 16 blocks per pass.
pub fn cbc_decrypt_chains(keys: &[Key256], iv: &Iv128, data: &mut [u8], chain_len: usize) {
    assert!(chain_len.is_multiple_of(16), "chains must be block-aligned");
    assert_eq!(data.len(), keys.len() * chain_len, "span shape mismatch");
    let mut ciphers: [Aes256Fix; WIDE_BLOCKS] =
        core::array::from_fn(|_| Aes256Fix { enc_keys: [0; 60] });
    for (tile_idx, tile_keys) in keys.chunks(WIDE_BLOCKS).enumerate() {
        expand_lanes(tile_keys, &mut ciphers);
        for (i, cipher) in ciphers[..tile_keys.len()].iter().enumerate() {
            let chain = (tile_idx * WIDE_BLOCKS + i) * chain_len;
            let rk = cipher.packed_dec_keys();
            cbc_decrypt_run(&rk, iv, &mut data[chain..chain + chain_len]);
        }
    }
}

/// CBC-encrypts consecutive chains under one shared cipher with per-chain
/// IVs (the volume-key shims): one broadcast schedule, chains in parallel.
pub fn cbc_encrypt_chains_shared(
    cipher: &Aes256Fix,
    ivs: &[Iv128],
    data: &mut [u8],
    chain_len: usize,
) {
    assert!(chain_len.is_multiple_of(16), "chains must be block-aligned");
    assert_eq!(data.len(), ivs.len() * chain_len, "span shape mismatch");
    let rk = cipher.packed_enc_keys();
    for (tile_idx, tile_ivs) in ivs.chunks(WIDE_BLOCKS).enumerate() {
        let tile_off = tile_idx * WIDE_BLOCKS * chain_len;
        cbc_encrypt_tile(&rk, tile_ivs, data, tile_off, tile_ivs.len(), chain_len);
    }
}

/// CBC-decrypts consecutive chains under one shared cipher with per-chain
/// IVs: one broadcast schedule, each chain wide within itself.
pub fn cbc_decrypt_chains_shared(
    cipher: &Aes256Fix,
    ivs: &[Iv128],
    data: &mut [u8],
    chain_len: usize,
) {
    assert!(chain_len.is_multiple_of(16), "chains must be block-aligned");
    assert_eq!(data.len(), ivs.len() * chain_len, "span shape mismatch");
    let rk = cipher.packed_dec_keys();
    for (i, iv) in ivs.iter().enumerate() {
        cbc_decrypt_run(&rk, iv, &mut data[i * chain_len..(i + 1) * chain_len]);
    }
}

/// XORs the GCM-style CTR keystream (counter blocks are public) into
/// `data`, 16 counter blocks per pass; the final partial block of
/// keystream is truncated. Wide form of [`crate::ctr::ctr32_xor_in_place`].
pub fn ctr32_xor(rk: &PackedKeys, j: &[u8; 16], data: &mut [u8]) {
    ctr_passes(rk, j, data, None);
}

/// [`ctr32_xor`] that also returns `E_K(extra)`, computed in the first idle
/// lane of the last keystream pass — GCM's tag mask `E_K(J0)` rides along
/// with the body for free unless the body's last pass is full (then it
/// takes one more pass, as it would on its own).
pub fn ctr32_xor_and_encrypt(
    rk: &PackedKeys,
    j: &[u8; 16],
    data: &mut [u8],
    extra: &[u8; 16],
) -> [u8; 16] {
    ctr_passes(rk, j, data, Some(extra)).expect("an extra block is always encrypted")
}

fn ctr_passes(
    rk: &PackedKeys,
    j: &[u8; 16],
    data: &mut [u8],
    extra: Option<&[u8; 16]>,
) -> Option<[u8; 16]> {
    let mut counter = *j;
    let mut buf = [0u8; WIDE_BYTES];
    let mut chunks = data.chunks_mut(WIDE_BYTES);
    loop {
        let chunk: &mut [u8] = match chunks.next() {
            Some(chunk) => chunk,
            // Every counter block is done; only `extra` is still owed.
            None if extra.is_some() => &mut [],
            None => return None,
        };
        let used = chunk.len().div_ceil(16);
        for blk in 0..used {
            buf[blk * 16..(blk + 1) * 16].copy_from_slice(&counter);
            crate::ctr::inc32(&mut counter);
        }
        let spare = extra.filter(|_| used < WIDE_BLOCKS);
        if let Some(extra) = spare {
            buf[used * 16..(used + 1) * 16].copy_from_slice(extra);
        }
        encrypt_pass(rk, &mut buf);
        for (byte, key) in chunk.iter_mut().zip(&buf) {
            *byte ^= key;
        }
        if spare.is_some() {
            return Some(buf[used * 16..(used + 1) * 16].try_into().unwrap());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes256;

    /// Scalar S-box evaluation through the bitsliced circuit, one byte in
    /// lane 0 bit 0 of each plane.
    fn circuit_sbox_byte(x: u8) -> u8 {
        let mut p = [W::ZERO; 8];
        for (i, plane) in p.iter_mut().enumerate() {
            plane.0[0] = ((x >> i) & 1) as u64;
        }
        sub_bytes(&mut p);
        let mut out = 0u8;
        for (i, plane) in p.iter().enumerate() {
            out |= ((plane.0[0] & 1) as u8) << i;
        }
        out
    }

    fn circuit_inv_sbox_byte(x: u8) -> u8 {
        let mut p = [W::ZERO; 8];
        for (i, plane) in p.iter_mut().enumerate() {
            plane.0[0] = ((x >> i) & 1) as u64;
        }
        inv_sub_bytes(&mut p);
        let mut out = 0u8;
        for (i, plane) in p.iter().enumerate() {
            out |= ((plane.0[0] & 1) as u8) << i;
        }
        out
    }

    /// The FIPS-197 S-box, reproduced independently of `crate::aes` (whose
    /// table is private) so the circuit is checked against the standard.
    fn reference_sbox() -> [u8; 256] {
        // S(x) = affine(x^254): build from GF(2^8) inversion + affine map.
        fn gmul(mut a: u8, mut b: u8) -> u8 {
            let mut p = 0u8;
            for _ in 0..8 {
                if b & 1 != 0 {
                    p ^= a;
                }
                let hi = a & 0x80;
                a <<= 1;
                if hi != 0 {
                    a ^= 0x1b;
                }
                b >>= 1;
            }
            p
        }
        let mut sbox = [0u8; 256];
        for (x, slot) in sbox.iter_mut().enumerate() {
            // x^254 by square-and-multiply.
            let b = x as u8;
            let mut inv = 1u8;
            // 254 = 0b11111110.
            for bit in (0..8).rev() {
                inv = gmul(inv, inv);
                if (254 >> bit) & 1 == 1 {
                    inv = gmul(inv, b);
                }
            }
            let mut out = 0u8;
            for i in 0..8 {
                let bit = ((inv >> i)
                    ^ (inv >> ((i + 4) % 8))
                    ^ (inv >> ((i + 5) % 8))
                    ^ (inv >> ((i + 6) % 8))
                    ^ (inv >> ((i + 7) % 8))
                    ^ (0x63 >> i))
                    & 1;
                out |= bit << i;
            }
            *slot = out;
        }
        assert_eq!(sbox[0x00], 0x63);
        assert_eq!(sbox[0x01], 0x7c);
        assert_eq!(sbox[0x53], 0xed);
        sbox
    }

    #[test]
    fn sbox_circuit_matches_fips_exhaustively() {
        let sbox = reference_sbox();
        for (x, &sx) in sbox.iter().enumerate() {
            assert_eq!(
                circuit_sbox_byte(x as u8),
                sx,
                "S-box circuit wrong at {x:#04x}"
            );
        }
    }

    #[test]
    fn inv_sbox_circuit_inverts_exhaustively() {
        let sbox = reference_sbox();
        for (x, &sx) in sbox.iter().enumerate() {
            assert_eq!(
                circuit_inv_sbox_byte(sx),
                x as u8,
                "inverse S-box wrong at S({x:#04x})"
            );
        }
    }

    #[test]
    fn pack_matches_naive_reference_and_round_trips() {
        let mut bytes = [0u8; WIDE_BYTES];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        let planes = pack(&bytes);
        // Naive reference: plane p, lane `col`, bit (row*16 + blk) =
        // bit p of byte (row + 4*col) of block blk.
        let mut expect = [W::ZERO; 8];
        for blk in 0..WIDE_BLOCKS {
            for i in 0..16 {
                let byte = bytes[blk * 16 + i];
                let (row, col) = (i % 4, i / 4);
                let pos = row * 16 + blk;
                for (p, plane) in expect.iter_mut().enumerate() {
                    plane.0[col] |= (((byte >> p) & 1) as u64) << pos;
                }
            }
        }
        assert_eq!(planes, expect, "pack layout mismatch");
        let mut back = [0u8; WIDE_BYTES];
        unpack(&planes, &mut back);
        assert_eq!(back, bytes, "unpack must invert pack");
    }

    /// Each bitsliced layer against the scalar definition, via single-block
    /// round-trips of (layer ∘ inverse-layer).
    #[test]
    fn linear_layers_invert() {
        let mut bytes = [0u8; WIDE_BYTES];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(73).wrapping_add(5);
        }
        let orig = bytes;
        let mut p = pack(&bytes);
        shift_rows(&mut p);
        inv_shift_rows(&mut p);
        unpack(&p, &mut bytes);
        assert_eq!(bytes, orig, "ShiftRows must invert");
        let mut p = pack(&bytes);
        mix_columns_cycled::<0, 0>(&mut p);
        inv_mix_columns_cycled::<0, 0>(&mut p);
        unpack(&p, &mut bytes);
        assert_eq!(bytes, orig, "MixColumns must invert");
    }

    /// ShiftRows against the FIPS definition on one handmade block.
    #[test]
    fn shift_rows_matches_scalar() {
        // Block laid out so byte (row, col) = row*4 + col + 1.
        let mut bytes = [0u8; WIDE_BYTES];
        for col in 0..4 {
            for row in 0..4 {
                bytes[4 * col + row] = (row * 4 + col + 1) as u8;
            }
        }
        let mut p = pack(&bytes);
        shift_rows(&mut p);
        let mut out = [0u8; WIDE_BYTES];
        unpack(&p, &mut out);
        // Row r shifts left by r: new (r, c) = old (r, (c + r) % 4).
        for col in 0..4 {
            for row in 0..4 {
                let expect = (row * 4 + (col + row) % 4 + 1) as u8;
                assert_eq!(out[4 * col + row], expect, "row {row} col {col}");
            }
        }
    }

    #[test]
    fn fips197_appendix_c3_vector() {
        let key: Key256 = core::array::from_fn(|i| i as u8);
        let fix = Aes256Fix::new(&key);
        let pt: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let ct: [u8; 16] = [
            0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49,
            0x60, 0x89,
        ];
        assert_eq!(fix.encrypt_block(&pt), ct);
        assert_eq!(fix.decrypt_block(&ct), pt);
    }

    #[test]
    fn matches_ttable_cipher_on_many_keys_and_blocks() {
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 24) as u8
        };
        for _ in 0..16 {
            let key: Key256 = core::array::from_fn(|_| next());
            let fix = Aes256Fix::new(&key);
            let tt = Aes256::new(&key);
            for _ in 0..4 {
                let block: [u8; 16] = core::array::from_fn(|_| next());
                let ct = tt.encrypt_block(&block);
                assert_eq!(fix.encrypt_block(&block), ct, "encrypt parity");
                assert_eq!(fix.decrypt_block(&ct), block, "decrypt parity");
            }
        }
    }

    fn prng(seed: &mut u64) -> u8 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*seed >> 24) as u8
    }

    #[test]
    fn ecb_matches_ttable_over_runs_with_tails() {
        let key = [0x17u8; 32];
        let fix = Aes256Fix::new(&key);
        let tt = Aes256::new(&key);
        for nblocks in [1usize, 4, 15, 16, 17, 33, 64] {
            let mut seed = nblocks as u64;
            let mut data: Vec<u8> = (0..nblocks * 16).map(|_| prng(&mut seed)).collect();
            let mut oracle = data.clone();
            ecb_encrypt(&fix.packed_enc_keys(), &mut data);
            crate::aes::ecb_encrypt_in_place(&tt, &mut oracle);
            assert_eq!(data, oracle, "ECB parity at {nblocks} blocks");
            ecb_decrypt(&fix.packed_dec_keys(), &mut data);
            crate::aes::ecb_decrypt_in_place(&tt, &mut oracle);
            assert_eq!(data, oracle, "ECB decrypt parity at {nblocks} blocks");
        }
    }

    #[test]
    fn cbc_single_chain_matches_ttable() {
        let key = [0x29u8; 32];
        let fix = Aes256Fix::new(&key);
        let tt = Aes256::new(&key);
        let iv = [0xa5u8; 16];
        for nblocks in [1usize, 7, 16, 40, 256] {
            let mut seed = 77 + nblocks as u64;
            let pt: Vec<u8> = (0..nblocks * 16).map(|_| prng(&mut seed)).collect();
            let mut data = pt.clone();
            let mut oracle = pt.clone();
            cbc_encrypt(&fix, &iv, &mut data);
            crate::cbc::encrypt_in_place(&tt, &iv, &mut oracle).unwrap();
            assert_eq!(data, oracle, "CBC encrypt parity at {nblocks} blocks");
            cbc_decrypt(&fix, &iv, &mut data);
            assert_eq!(data, pt, "CBC decrypt round trip at {nblocks} blocks");
        }
    }

    #[test]
    fn cbc_chains_match_per_chain_ttable() {
        let chain_len = 768; // 48 AES blocks per chain: three wide passes
        for nchains in [1usize, 3, 16, 21] {
            let mut seed = 5 + nchains as u64;
            let keys: Vec<Key256> = (0..nchains)
                .map(|_| core::array::from_fn(|_| prng(&mut seed)))
                .collect();
            let pt: Vec<u8> = (0..nchains * chain_len).map(|_| prng(&mut seed)).collect();
            let iv = [0x3cu8; 16];
            let mut data = pt.clone();
            cbc_encrypt_chains(&keys, &iv, &mut data, chain_len);
            let mut oracle = pt.clone();
            for (i, key) in keys.iter().enumerate() {
                let tt = Aes256::new(key);
                crate::cbc::encrypt_in_place(
                    &tt,
                    &iv,
                    &mut oracle[i * chain_len..(i + 1) * chain_len],
                )
                .unwrap();
            }
            assert_eq!(data, oracle, "chain encrypt parity at {nchains} chains");
            cbc_decrypt_chains(&keys, &iv, &mut data, chain_len);
            assert_eq!(data, pt, "chain decrypt round trip at {nchains} chains");
        }
    }

    #[test]
    fn shared_cipher_chains_match_ttable() {
        let chain_len = 128;
        let key = [0x61u8; 32];
        let fix = Aes256Fix::new(&key);
        let tt = Aes256::new(&key);
        for nchains in [2usize, 16, 19] {
            let mut seed = 100 + nchains as u64;
            let ivs: Vec<Iv128> = (0..nchains)
                .map(|_| core::array::from_fn(|_| prng(&mut seed)))
                .collect();
            let pt: Vec<u8> = (0..nchains * chain_len).map(|_| prng(&mut seed)).collect();
            let mut data = pt.clone();
            cbc_encrypt_chains_shared(&fix, &ivs, &mut data, chain_len);
            let mut oracle = pt.clone();
            for (i, iv) in ivs.iter().enumerate() {
                crate::cbc::encrypt_in_place(
                    &tt,
                    iv,
                    &mut oracle[i * chain_len..(i + 1) * chain_len],
                )
                .unwrap();
            }
            assert_eq!(data, oracle, "shared-cipher encrypt parity");
            cbc_decrypt_chains_shared(&fix, &ivs, &mut data, chain_len);
            assert_eq!(data, pt, "shared-cipher decrypt round trip");
        }
    }

    #[test]
    fn ctr_matches_scalar_including_partial_tail() {
        let key = [0x88u8; 32];
        let fix = Aes256Fix::new(&key);
        let tt = Aes256::new(&key);
        for len in [1usize, 16, 100, 256, 300, 4096] {
            let mut seed = len as u64;
            let pt: Vec<u8> = (0..len).map(|_| prng(&mut seed)).collect();
            let j = [0x0fu8; 16];
            let mut data = pt.clone();
            ctr32_xor(&fix.packed_enc_keys(), &j, &mut data);
            let mut oracle = pt.clone();
            crate::ctr::ctr32_xor_in_place(&tt, &j, &mut oracle);
            assert_eq!(data, oracle, "CTR parity at {len} bytes");
        }
    }

    #[test]
    fn ctr_with_an_extra_block_matches_ctr_plus_a_separate_block() {
        let key = [0x3du8; 32];
        let fix = Aes256Fix::new(&key);
        let rk = fix.packed_enc_keys();
        let extra = [0xc4u8; 16];
        // Empty, a spare lane in a partial pass (including the 254-block
        // metadata region), and full last passes (the extra takes one more).
        for len in [0usize, 1, 16, 240, 255, 256, 4064, 4096] {
            let mut seed = 31 + len as u64;
            let pt: Vec<u8> = (0..len).map(|_| prng(&mut seed)).collect();
            let j = [0x0fu8; 16];
            let mut data = pt.clone();
            let got = ctr32_xor_and_encrypt(&rk, &j, &mut data, &extra);
            let mut oracle = pt.clone();
            ctr32_xor(&rk, &j, &mut oracle);
            assert_eq!(data, oracle, "keystream at {len} bytes");
            assert_eq!(got, fix.encrypt_block(&extra), "extra block at {len} bytes");
        }
    }

    #[test]
    fn wide_pass_encrypts_all_sixteen_lanes() {
        let key = [0x42u8; 32];
        let fix = Aes256Fix::new(&key);
        let tt = Aes256::new(&key);
        let mut bytes = [0u8; WIDE_BYTES];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let orig = bytes;
        let rk = fix.packed_enc_keys();
        let mut p = pack(&bytes);
        encrypt_planes(&rk, &mut p);
        unpack(&p, &mut bytes);
        for blk in 0..WIDE_BLOCKS {
            let chunk: [u8; 16] = orig[blk * 16..blk * 16 + 16].try_into().unwrap();
            assert_eq!(
                &bytes[blk * 16..blk * 16 + 16],
                &tt.encrypt_block(&chunk),
                "lane {blk} disagrees with the T-table oracle"
            );
        }
        let mut p = pack(&bytes.clone());
        decrypt_planes(&fix.packed_dec_keys(), &mut p);
        unpack(&p, &mut bytes);
        assert_eq!(bytes, orig, "wide decrypt must invert wide encrypt");
    }

    fn unhex<const N: usize>(s: &str) -> [u8; N] {
        let mut out = [0u8; N];
        assert_eq!(s.len(), N * 2);
        for (i, b) in out.iter_mut().enumerate() {
            *b = u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).unwrap();
        }
        out
    }

    /// NIST CAVP AES-256 known-answer tests (ECBGFSbox256, ECBKeySbox256,
    /// ECBVarKey256 and ECBVarTxt256, count 0 each plus extra GFSbox
    /// counts), run through both the single-block API and a full 16-lane
    /// wide pass so the packed data path itself is validated against the
    /// published ciphertexts.
    #[test]
    fn nist_cavp_kat_vectors() {
        let zero_key = "0000000000000000000000000000000000000000000000000000000000000000";
        // (key, plaintext, ciphertext)
        let vectors: &[(&str, &str, &str)] = &[
            // ECBGFSbox256.rsp, counts 0-4
            (
                zero_key,
                "014730f80ac625fe84f026c60bfd547d",
                "5c9d844ed46f9885085e5d6a4f94c7d7",
            ),
            (
                zero_key,
                "0b24af36193ce4665f2825d7b4749c98",
                "a9ff75bd7cf6613d3731c77c3b6d0c04",
            ),
            (
                zero_key,
                "761c1fe41a18acf20d241650611d90f1",
                "623a52fcea5d443e48d9181ab32c7421",
            ),
            (
                zero_key,
                "8a560769d605868ad80d819bdba03771",
                "38f2c7ae10612415d27ca190d27da8b4",
            ),
            (
                zero_key,
                "91fbef2d15a97816060bee1feaa49afe",
                "1bc704f1bce135ceb810341b216d7abe",
            ),
            // ECBKeySbox256.rsp, counts 0-1
            (
                "c47b0294dbbbee0fec4757f22ffeee3587ca4730c3d33b691df38bab076bc558",
                "00000000000000000000000000000000",
                "46f2fb342d6f0ab477476fc501242c5f",
            ),
            (
                "28d46cffa158533194214a91e712fc2b45b518076675affd910edeca5f41ac64",
                "00000000000000000000000000000000",
                "4bf3b0a69aeb6657794f2901b1440ad4",
            ),
            // ECBVarKey256.rsp, count 0
            (
                "8000000000000000000000000000000000000000000000000000000000000000",
                "00000000000000000000000000000000",
                "e35a6dcb19b201a01ebcfa8aa22b5759",
            ),
            // ECBVarTxt256.rsp, count 0
            (
                zero_key,
                "80000000000000000000000000000000",
                "ddc6bf790c15760d8d9aeb6f9a75fd4e",
            ),
        ];
        for (key_hex, pt_hex, ct_hex) in vectors {
            let key: Key256 = unhex(key_hex);
            let pt: [u8; 16] = unhex(pt_hex);
            let ct: [u8; 16] = unhex(ct_hex);
            let fix = Aes256Fix::new(&key);
            assert_eq!(fix.encrypt_block(&pt), ct, "KAT encrypt key={key_hex}");
            assert_eq!(fix.decrypt_block(&ct), pt, "KAT decrypt key={key_hex}");

            // The same vector replicated across all 16 lanes of a wide pass.
            let mut bytes = [0u8; WIDE_BYTES];
            for lane in bytes.chunks_exact_mut(16) {
                lane.copy_from_slice(&pt);
            }
            ecb_encrypt(&fix.packed_enc_keys(), &mut bytes);
            for (blk, lane) in bytes.chunks_exact(16).enumerate() {
                assert_eq!(lane, ct, "wide KAT lane {blk} key={key_hex}");
            }
            ecb_decrypt(&fix.packed_dec_keys(), &mut bytes);
            for (blk, lane) in bytes.chunks_exact(16).enumerate() {
                assert_eq!(lane, pt, "wide KAT decrypt lane {blk} key={key_hex}");
            }
        }
    }
}
