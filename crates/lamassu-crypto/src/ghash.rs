//! GHASH universal hash over GF(2^128), the authentication core of AES-GCM.
//!
//! Two implementations live here, one of them test-only:
//!
//! * [`Ghash`], the production path, multiplies with **Shoup's 4-bit
//!   table-driven method**: a 16-entry table of nibble multiples of the hash
//!   subkey `H` is precomputed once per key ([`GhashKey`], built when the
//!   [`Aes256Gcm`](crate::gcm::Aes256Gcm) instance is created), and each
//!   128-bit multiplication walks the operand through table lookups instead
//!   of 128 conditional shift/XOR rounds. The multiples table is kept at two
//!   alignments (low-nibble entries pre-shifted with their reduction folded
//!   in) so the inner loop consumes one *byte* per step with a 256-entry
//!   constant reduction table — the classic software GHASH refinement
//!   OpenSSL's gcm128 fallback calls `rem_8bit`, built on Shoup's "4-bit
//!   tables" from *On Fast and Provably Secure Message Authentication Based
//!   on Universal Hashing*. This is what keeps metadata sealing off the
//!   flame graph now that the data path batches everything else.
//! * `GhashBitSerial`, the straightforward bit-serial multiplication from
//!   NIST SP 800-38D §6.3 Algorithm 1, lives in the test module as the
//!   verification oracle: the tests require both to agree on random inputs
//!   and on the GCM spec vectors. What the table method buys is measured by
//!   `benchmark/`'s `crypto.gcm_seal_ns_per_4k`.
//!
//! Both operate on the SP 800-38D bit convention: bit 0 is the *most*
//! significant bit of the block, and the field is reduced by
//! `R = 0xe1 || 0^120`.

/// The GHASH reduction constant R = 0xe1 || 0^120.
const R_HI: u64 = 0xe100_0000_0000_0000;

/// Reduction table for the 4-bit method: entry `i` is `i · R` folded back
/// into the top of the accumulator when it is shifted right by one nibble
/// (the standard `last4` constants, pre-shifted to bit position 48 of the
/// high half).
const REDUCE4: [u64; 16] = [
    0x0000 << 48,
    0x1c20 << 48,
    0x3840 << 48,
    0x2460 << 48,
    0x7080 << 48,
    0x6ca0 << 48,
    0x48c0 << 48,
    0x54e0 << 48,
    0xe100 << 48,
    0xfd20 << 48,
    0xd940 << 48,
    0xc560 << 48,
    0x9180 << 48,
    0x8da0 << 48,
    0xa9c0 << 48,
    0xb5e0 << 48,
];

/// Byte-granular reduction: the fold-back for the 8 bits shifted out when
/// the accumulator moves one whole byte. `REDUCE4` is GF(2)-linear in its
/// index, so the 256 entries compose from two nibble entries at the right
/// alignments (OpenSSL calls its equivalent `rem_8bit`).
const fn build_reduce8() -> [u64; 256] {
    let mut t = [0u64; 256];
    let mut b = 0usize;
    while b < 256 {
        t[b] = (REDUCE4[b & 0x0f] >> 4) ^ REDUCE4[b >> 4];
        b += 1;
    }
    t
}
const REDUCE8: [u64; 256] = build_reduce8();

/// Precomputed per-key state for the 4-bit table-driven multiply: the 16
/// nibble multiples `i · H` for `i ∈ [0, 16)`, stored at two alignments so
/// the multiply can consume one *byte* of the operand per step (the low
/// nibble's multiple is pre-shifted by four bits with its reduction folded
/// in). 512 bytes per key, `Copy`; built once per GCM key and shared by
/// every metadata block sealed or unsealed under it.
#[derive(Clone, Copy)]
pub struct GhashKey {
    /// `i · H`, high/low halves (applied for a byte's high nibble).
    hh: [u64; 16],
    hl: [u64; 16],
    /// `i · H` shifted right one nibble with the shifted-out bits folded
    /// back (applied for a byte's low nibble).
    ahh: [u64; 16],
    ahl: [u64; 16],
}

impl GhashKey {
    /// Precomputes the nibble-multiple tables for the 16-byte hash subkey.
    pub fn new(h: &[u8; 16]) -> Self {
        let mut vh = u64::from_be_bytes(h[0..8].try_into().expect("8 bytes"));
        let mut vl = u64::from_be_bytes(h[8..16].try_into().expect("8 bytes"));
        let mut hh = [0u64; 16];
        let mut hl = [0u64; 16];
        // Entry 8 is H itself (nibble bit 3 = field "times 1" under the
        // reflected convention); 4, 2, 1 are successive halvings.
        hh[8] = vh;
        hl[8] = vl;
        let mut i = 4;
        while i > 0 {
            let lsb = vl & 1 == 1;
            vl = (vl >> 1) | (vh << 63);
            vh >>= 1;
            if lsb {
                vh ^= R_HI;
            }
            hh[i] = vh;
            hl[i] = vl;
            i >>= 1;
        }
        // Remaining entries by linearity: (i + j)·H = i·H ^ j·H.
        let mut i = 2;
        while i < 16 {
            for j in 1..i {
                hh[i + j] = hh[i] ^ hh[j];
                hl[i + j] = hl[i] ^ hl[j];
            }
            i *= 2;
        }
        // The shifted-alignment copies for low nibbles: one nibble-step of
        // the algorithm applied to each entry at build time instead of at
        // multiply time.
        let mut ahh = [0u64; 16];
        let mut ahl = [0u64; 16];
        for n in 0..16 {
            ahh[n] = (hh[n] >> 4) ^ REDUCE4[(hl[n] & 0x0f) as usize];
            ahl[n] = (hl[n] >> 4) | ((hh[n] & 0x0f) << 60);
        }
        GhashKey { hh, hl, ahh, ahl }
    }

    /// Multiplies `x` by the key's `H`, one operand byte per step: two
    /// nibble-table lookups (at their respective alignments) plus one
    /// byte-granular reduction fold. Algebraically identical to 16 pairs of
    /// Shoup 4-bit steps — the tests pin it to the bit-serial oracle.
    fn mul(&self, x: u128) -> u128 {
        let xh = (x >> 64) as u64;
        let xl = x as u64;
        let mut zh = 0u64;
        let mut zl = 0u64;
        macro_rules! byte_step {
            ($byte:expr) => {{
                let b = $byte as usize;
                let nlo = b & 0x0f;
                let nhi = b >> 4;
                let rem = (zl & 0xff) as usize;
                zl = ((zh << 56) | (zl >> 8)) ^ self.ahl[nlo] ^ self.hl[nhi];
                zh = (zh >> 8) ^ REDUCE8[rem] ^ self.ahh[nlo] ^ self.hh[nhi];
            }};
        }
        byte_step!(xl & 0xff);
        byte_step!((xl >> 8) & 0xff);
        byte_step!((xl >> 16) & 0xff);
        byte_step!((xl >> 24) & 0xff);
        byte_step!((xl >> 32) & 0xff);
        byte_step!((xl >> 40) & 0xff);
        byte_step!((xl >> 48) & 0xff);
        byte_step!(xl >> 56);
        byte_step!(xh & 0xff);
        byte_step!((xh >> 8) & 0xff);
        byte_step!((xh >> 16) & 0xff);
        byte_step!((xh >> 24) & 0xff);
        byte_step!((xh >> 32) & 0xff);
        byte_step!((xh >> 40) & 0xff);
        byte_step!((xh >> 48) & 0xff);
        byte_step!(xh >> 56);
        ((zh as u128) << 64) | (zl as u128)
    }
}

/// Incremental GHASH state, multiplying with the table-driven method.
#[derive(Clone)]
pub struct Ghash {
    key: GhashKey,
    y: u128,
}

impl Ghash {
    /// Creates a GHASH instance from the 16-byte hash subkey, building the
    /// nibble table. Prefer [`Ghash::with_key`] when the key is long-lived.
    pub fn new(h: &[u8; 16]) -> Self {
        Self::with_key(&GhashKey::new(h))
    }

    /// Creates a GHASH instance from a precomputed [`GhashKey`] (the per-key
    /// table is copied, not rebuilt).
    pub fn with_key(key: &GhashKey) -> Self {
        Ghash { key: *key, y: 0 }
    }

    /// Absorbs `data`, zero-padding the final partial block as GCM requires.
    pub fn update_padded(&mut self, data: &[u8]) {
        let mut whole = data.chunks_exact(16);
        for chunk in whole.by_ref() {
            let block = u128::from_be_bytes(chunk.try_into().expect("16-byte chunk"));
            self.y = self.key.mul(self.y ^ block);
        }
        let tail = whole.remainder();
        if !tail.is_empty() {
            let mut block = [0u8; 16];
            block[..tail.len()].copy_from_slice(tail);
            self.absorb_block(&block);
        }
    }

    /// Absorbs a single full 16-byte block.
    pub fn absorb_block(&mut self, block: &[u8; 16]) {
        self.y = self.key.mul(self.y ^ u128::from_be_bytes(*block));
    }

    /// Finishes GHASH over AAD of `aad_len` bytes and ciphertext of `ct_len`
    /// bytes by absorbing the standard length block, returning the digest.
    pub fn finalize(mut self, aad_len: usize, ct_len: usize) -> [u8; 16] {
        let len_block = (((aad_len as u128) * 8) << 64) | ((ct_len as u128) * 8);
        self.y = self.key.mul(self.y ^ len_block);
        self.y.to_be_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::from_hex;

    /// A 128-bit field element stored as two big-endian 64-bit halves.
    #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
    struct Fe128 {
        hi: u64,
        lo: u64,
    }

    impl Fe128 {
        fn from_bytes(b: &[u8; 16]) -> Self {
            Fe128 {
                hi: u64::from_be_bytes(b[0..8].try_into().unwrap()),
                lo: u64::from_be_bytes(b[8..16].try_into().unwrap()),
            }
        }

        fn to_bytes(self) -> [u8; 16] {
            let mut out = [0u8; 16];
            out[0..8].copy_from_slice(&self.hi.to_be_bytes());
            out[8..16].copy_from_slice(&self.lo.to_be_bytes());
            out
        }

        fn xor(self, other: Fe128) -> Fe128 {
            Fe128 {
                hi: self.hi ^ other.hi,
                lo: self.lo ^ other.lo,
            }
        }

        /// Tests bit `i` where bit 0 is the most significant bit of the block
        /// (the convention used by SP 800-38D).
        fn bit(self, i: usize) -> bool {
            if i < 64 {
                (self.hi >> (63 - i)) & 1 == 1
            } else {
                (self.lo >> (127 - i)) & 1 == 1
            }
        }

        /// Right-shift by one bit (towards the least significant bit in the
        /// SP 800-38D convention).
        fn shr1(self) -> Fe128 {
            Fe128 {
                hi: self.hi >> 1,
                lo: (self.lo >> 1) | (self.hi << 63),
            }
        }
    }

    /// Multiplies two field elements per SP 800-38D Algorithm 1 (bit-serial).
    fn gf_mul(x: Fe128, y: Fe128) -> Fe128 {
        let mut z = Fe128::default();
        let mut v = y;
        for i in 0..128 {
            if x.bit(i) {
                z = z.xor(v);
            }
            let lsb = v.lo & 1 == 1;
            v = v.shr1();
            if lsb {
                v.hi ^= R_HI;
            }
        }
        z
    }

    /// The SP 800-38D §6.3 bit-serial GHASH, the oracle the table method is
    /// checked against. Same API as [`Ghash`].
    #[derive(Clone)]
    struct GhashBitSerial {
        h: Fe128,
        y: Fe128,
    }

    impl GhashBitSerial {
        /// Creates a bit-serial GHASH instance from the 16-byte hash subkey.
        fn new(h: &[u8; 16]) -> Self {
            GhashBitSerial {
                h: Fe128::from_bytes(h),
                y: Fe128::default(),
            }
        }

        /// Absorbs `data`, zero-padding the final partial block.
        fn update_padded(&mut self, data: &[u8]) {
            for chunk in data.chunks(16) {
                let mut block = [0u8; 16];
                block[..chunk.len()].copy_from_slice(chunk);
                self.absorb_block(&block);
            }
        }

        /// Absorbs a single full 16-byte block.
        fn absorb_block(&mut self, block: &[u8; 16]) {
            self.y = gf_mul(self.y.xor(Fe128::from_bytes(block)), self.h);
        }

        /// Finishes over the standard length block, returning the digest.
        fn finalize(mut self, aad_len: usize, ct_len: usize) -> [u8; 16] {
            let mut len_block = [0u8; 16];
            len_block[0..8].copy_from_slice(&((aad_len as u64) * 8).to_be_bytes());
            len_block[8..16].copy_from_slice(&((ct_len as u64) * 8).to_be_bytes());
            self.absorb_block(&len_block);
            self.y.to_bytes()
        }
    }

    #[test]
    fn gf_mul_identity() {
        // The multiplicative identity in the GCM representation is the block
        // 0x80 followed by zeros (bit 0 set).
        let mut one = [0u8; 16];
        one[0] = 0x80;
        let one = Fe128::from_bytes(&one);
        let x = Fe128::from_bytes(&[0x42u8; 16]);
        assert_eq!(gf_mul(x, one), x);
        assert_eq!(gf_mul(one, x), x);
    }

    #[test]
    fn gf_mul_zero_annihilates() {
        let x = Fe128::from_bytes(&[0x99u8; 16]);
        assert_eq!(gf_mul(x, Fe128::default()), Fe128::default());
    }

    #[test]
    fn gf_mul_commutative() {
        let a = Fe128::from_bytes(&[0x13u8; 16]);
        let b = Fe128 {
            hi: 0x0123_4567_89ab_cdef,
            lo: 0xfedc_ba98_7654_3210,
        };
        assert_eq!(gf_mul(a, b), gf_mul(b, a));
    }

    #[test]
    fn table_mul_matches_bit_serial_on_pseudorandom_inputs() {
        // An LCG walk over key/operand space; the table method must agree
        // with the Algorithm 1 oracle everywhere.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..200 {
            let h = Fe128 {
                hi: next(),
                lo: next(),
            };
            let x = Fe128 {
                hi: next(),
                lo: next(),
            };
            let key = GhashKey::new(&h.to_bytes());
            let got = key.mul(u128::from_be_bytes(x.to_bytes()));
            let want = u128::from_be_bytes(gf_mul(x, h).to_bytes());
            assert_eq!(got, want, "h={h:?} x={x:?}");
        }
        // Degenerate operands.
        let key = GhashKey::new(&[0u8; 16]);
        assert_eq!(key.mul(u128::from_be_bytes([0xffu8; 16])), 0);
    }

    #[test]
    fn ghash_test_case_2() {
        // GCM spec (McGrew & Viega) Test Case 2 intermediate GHASH value:
        // H = 66e94bd4ef8a2c3b884cfa59ca342b2e,
        // C = 0388dace60b6a392f328c2b971b2fe78, no AAD →
        // GHASH = f38cbb1ad69223dcc3457ae5b6b0f885.
        let h: [u8; 16] = from_hex("66e94bd4ef8a2c3b884cfa59ca342b2e")
            .unwrap()
            .try_into()
            .unwrap();
        let ct = from_hex("0388dace60b6a392f328c2b971b2fe78").unwrap();
        let expected = from_hex("f38cbb1ad69223dcc3457ae5b6b0f885").unwrap();

        let mut g = Ghash::new(&h);
        g.update_padded(&ct);
        assert_eq!(g.finalize(0, ct.len()).to_vec(), expected);

        let mut g = GhashBitSerial::new(&h);
        g.update_padded(&ct);
        assert_eq!(g.finalize(0, ct.len()).to_vec(), expected);
    }

    #[test]
    fn streaming_equivalence_of_both_implementations() {
        let h = [0x3cu8; 16];
        let key = GhashKey::new(&h);
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 253) as u8).collect();
        for (aad_len, ct_len) in [(0usize, 1000usize), (17, 983), (1000, 0), (3, 5)] {
            let mut a = Ghash::with_key(&key);
            a.update_padded(&data[..aad_len]);
            a.update_padded(&data[aad_len..aad_len + ct_len]);
            let mut b = GhashBitSerial::new(&h);
            b.update_padded(&data[..aad_len]);
            b.update_padded(&data[aad_len..aad_len + ct_len]);
            assert_eq!(
                a.finalize(aad_len, ct_len),
                b.finalize(aad_len, ct_len),
                "aad {aad_len} ct {ct_len}"
            );
        }
    }

    #[test]
    fn padding_of_partial_blocks() {
        let h = [0x5au8; 16];
        // Explicit zero padding must equal update_padded of the short input.
        let mut a = Ghash::new(&h);
        a.update_padded(&[1, 2, 3]);
        let mut b = Ghash::new(&h);
        let mut block = [0u8; 16];
        block[..3].copy_from_slice(&[1, 2, 3]);
        b.absorb_block(&block);
        assert_eq!(a.finalize(0, 3), b.finalize(0, 3));
    }
}
