//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Lamassu hashes every 4 KiB plaintext data block with SHA-256 — the whole
//! block in format v1, four quarter chains and a root in v2
//! (`kdf::tree_hash`) — to obtain the 32-byte value from which the
//! convergent encryption key is derived (Equation 1 of the paper), and
//! re-hashes decrypted blocks on the read path to perform the
//! data-integrity self-check described in §2.5. That makes
//! this compression function the single hottest piece of CPU work in the
//! whole stack (the paper's Figure 9 attributes up to 80 % of RAM-disk read
//! latency to *GetCEKey*), so the implementation is tuned for it:
//!
//! * the 64 rounds are **fully unrolled** with the message schedule computed
//!   on the fly in a 16-word ring — no 64-entry `w` array, no second pass;
//! * [`Sha256::update`] feeds aligned input blocks straight to the
//!   compression function with **no staging copy** (the 64-byte buffer is
//!   only used for genuinely partial tails);
//! * [`digest_block`] is a one-shot path for whole-block inputs — exactly
//!   the 4 KiB data blocks the CE key derivation and the read self-check
//!   hash — that skips all streaming state and buffering.
//!
//! Validated against the FIPS 180-4 example vectors and the NIST
//! long-message vector in the module tests.

/// Initial hash values H(0) (FIPS 180-4 §5.3.3).
pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants K (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; 32];

/// SHA-256 compression of one 64-byte block into `state`.
///
/// Fully unrolled: rounds 0–15 consume the loaded message words, rounds
/// 16–63 extend the schedule in place in the 16-word ring `w`. The eight
/// working variables rotate by parameter position instead of being shuffled
/// through registers.
// The final eight schedule writes land after their last read — an artifact
// of the unrolled ring that the optimizer erases.
#[allow(unused_assignments)]
pub(crate) fn compress(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 16];
    for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    // One round with the working variables in rotated positions.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $t:expr, $wt:expr) => {{
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = ($e & $f) ^ ((!$e) & $g);
            let t1 = $h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[$t])
                .wrapping_add($wt);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(s0.wrapping_add(maj));
        }};
    }

    // Extends the message schedule in the ring and yields w[t].
    macro_rules! sched {
        ($t:expr) => {{
            let w15 = w[($t + 1) & 15];
            let w2 = w[($t + 14) & 15];
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            let v = w[$t & 15]
                .wrapping_add(s0)
                .wrapping_add(w[($t + 9) & 15])
                .wrapping_add(s1);
            w[$t & 15] = v;
            v
        }};
    }

    // Eight rounds with the standard variable rotation; `$wt` selects
    // between the loaded words (rounds 0–15) and the extended schedule.
    macro_rules! rounds8 {
        ($base:expr, $wt:ident) => {{
            round!(a, b, c, d, e, f, g, h, $base, $wt!($base));
            round!(h, a, b, c, d, e, f, g, $base + 1, $wt!($base + 1));
            round!(g, h, a, b, c, d, e, f, $base + 2, $wt!($base + 2));
            round!(f, g, h, a, b, c, d, e, $base + 3, $wt!($base + 3));
            round!(e, f, g, h, a, b, c, d, $base + 4, $wt!($base + 4));
            round!(d, e, f, g, h, a, b, c, $base + 5, $wt!($base + 5));
            round!(c, d, e, f, g, h, a, b, $base + 6, $wt!($base + 6));
            round!(b, c, d, e, f, g, h, a, $base + 7, $wt!($base + 7));
        }};
    }
    macro_rules! loaded {
        ($t:expr) => {
            w[$t & 15]
        };
    }
    macro_rules! extended {
        ($t:expr) => {
            sched!($t)
        };
    }

    rounds8!(0, loaded);
    rounds8!(8, loaded);
    rounds8!(16, extended);
    rounds8!(24, extended);
    rounds8!(32, extended);
    rounds8!(40, extended);
    rounds8!(48, extended);
    rounds8!(56, extended);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Streaming SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use lamassu_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(
///     h.finalize(),
///     lamassu_crypto::sha256::sha256(b"abc"),
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total number of message bytes processed so far.
    len: u64,
    /// Partially filled block buffer.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state. Whole 64-byte blocks compress
    /// straight from the input slice; only a partial tail is buffered.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Fill a partially-buffered block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                compress(&mut self.state, &block);
                self.buf_len = 0;
            }
        }

        // Process whole blocks directly from the input — no staging copy.
        let mut whole = input.chunks_exact(64);
        for block in whole.by_ref() {
            compress(&mut self.state, block);
        }

        // Buffer the tail.
        let tail = whole.remainder();
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);

        // Append the 0x80 terminator and zero padding.
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        let pad_len = if self.buf_len < 56 {
            56 - self.buf_len
        } else {
            120 - self.buf_len
        };
        self.update(&pad[..pad_len]);
        // Append the 64-bit big-endian message length.
        self.update(&bit_len.to_be_bytes());
        debug_assert_eq!(self.buf_len, 0);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One-shot SHA-256 of a whole-block message: the fast path for the 4 KiB
/// data blocks the convergent-key derivation (Equation 1) and the §2.5 read
/// self-check hash. When `data.len()` is a multiple of 64 the message is
/// compressed straight off the slice and finished with a single stack-built
/// padding block — no streaming state, no buffering; other lengths fall back
/// to the streaming implementation.
///
/// # Examples
///
/// ```
/// use lamassu_crypto::sha256::{digest_block, sha256};
///
/// let block = vec![0x5au8; 4096];
/// assert_eq!(digest_block(&block), sha256(&block));
/// ```
pub fn digest_block(data: &[u8]) -> Digest {
    if !data.len().is_multiple_of(64) {
        let mut h = Sha256::new();
        h.update(data);
        return h.finalize();
    }
    let mut state = H0;
    for block in data.chunks_exact(64) {
        compress(&mut state, block);
    }
    // The message ended on a block boundary, so the padding is always one
    // full block: terminator, zeros, 64-bit length.
    let mut pad = [0u8; 64];
    pad[0] = 0x80;
    pad[56..64].copy_from_slice(&((data.len() as u64).wrapping_mul(8)).to_be_bytes());
    compress(&mut state, &pad);

    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Compresses `data` — a whole number of 64-byte blocks — into `state` with
/// no padding: the bare Merkle–Damgård chain. [`digest_block`] is this plus
/// one padding block; a leaf of the v2 tree hash (`kdf::tree_hash`) is
/// exactly this, from its own IV.
pub(crate) fn chain(state: &mut [u32; 8], data: &[u8]) {
    debug_assert!(data.len().is_multiple_of(64));
    for block in data.chunks_exact(64) {
        compress(state, block);
    }
}

/// The big-endian digest bytes of a chaining state.
pub(crate) fn digest_of(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// One-shot SHA-256 of `data` (routes block-aligned messages through
/// [`digest_block`]).
///
/// # Examples
///
/// ```
/// let d = lamassu_crypto::sha256::sha256(b"");
/// assert_eq!(d[0], 0xe3);
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    digest_block(data)
}

// ---------------------------------------------------------------------------
// Four-lane interleaved SHA-256.
// ---------------------------------------------------------------------------

/// Number of independent messages hashed per [`digest_blocks_x4`] pass.
pub const SHA_LANES: usize = 4;

/// A four-lane SHA-256 word: lane `i` holds the working state of message
/// `i`. Every operation is elementwise, so one compression pass carries
/// four independent message schedules — the four 32-bit lanes pack into a
/// single 128-bit vector register and the serial `t1`/`t2` dependency
/// chain that bounds scalar SHA-256 throughput is paid once for four
/// digests instead of once per digest.
#[derive(Clone, Copy)]
struct L([u32; SHA_LANES]);

impl L {
    const ZERO: L = L([0; SHA_LANES]);

    #[inline(always)]
    fn splat(v: u32) -> L {
        L([v; SHA_LANES])
    }

    #[inline(always)]
    fn add(self, o: L) -> L {
        L(std::array::from_fn(|i| self.0[i].wrapping_add(o.0[i])))
    }

    #[inline(always)]
    fn xor(self, o: L) -> L {
        L(std::array::from_fn(|i| self.0[i] ^ o.0[i]))
    }

    #[inline(always)]
    fn and(self, o: L) -> L {
        L(std::array::from_fn(|i| self.0[i] & o.0[i]))
    }

    #[inline(always)]
    fn andnot(self, o: L) -> L {
        L(std::array::from_fn(|i| !self.0[i] & o.0[i]))
    }

    #[inline(always)]
    fn rotr(self, n: u32) -> L {
        L(std::array::from_fn(|i| self.0[i].rotate_right(n)))
    }

    #[inline(always)]
    fn shr(self, n: u32) -> L {
        L(std::array::from_fn(|i| self.0[i] >> n))
    }
}

/// One four-lane compression: `blocks[i]` is the next 64-byte block of
/// message `i`, compressed into `states[i]`.
#[allow(unused_assignments)]
fn compress_x4(states: &mut [[u32; 8]; SHA_LANES], blocks: [&[u8]; SHA_LANES]) {
    let mut w = [L::ZERO; 16];
    for (t, wt) in w.iter_mut().enumerate() {
        *wt = L(std::array::from_fn(|i| {
            u32::from_be_bytes(blocks[i][t * 4..t * 4 + 4].try_into().expect("4-byte word"))
        }));
    }

    let mut v: [L; 8] = std::array::from_fn(|j| L(std::array::from_fn(|i| states[i][j])));
    let init = v;

    // One round with the classic rotating-index renaming: at round `t` the
    // working variable playing role `r` (0 = a .. 7 = h) lives at
    // `v[(r + 64 - t) & 7]`. Kept as a *rolled* loop on purpose: the small
    // body is a region the SLP vectorizer handles, so every `L` operation
    // becomes one 128-bit vector instruction instead of four scalar ones
    // (the fully-unrolled form scalarizes).
    #[inline(always)]
    fn round_t(v: &mut [L; 8], t: usize, wt: L) {
        let x = |r: usize| (r + 64 - t) & 7;
        let (a, b, c, d) = (v[x(0)], v[x(1)], v[x(2)], v[x(3)]);
        let (e, f, g, h) = (v[x(4)], v[x(5)], v[x(6)], v[x(7)]);
        let s1 = e.rotr(6).xor(e.rotr(11)).xor(e.rotr(25));
        let ch = e.and(f).xor(e.andnot(g));
        let t1 = h.add(s1).add(ch).add(L::splat(K[t])).add(wt);
        let s0 = a.rotr(2).xor(a.rotr(13)).xor(a.rotr(22));
        let maj = a.and(b).xor(a.and(c)).xor(b.and(c));
        v[x(3)] = d.add(t1);
        v[x(7)] = t1.add(s0.add(maj));
    }

    for (t, &wt) in w.iter().enumerate() {
        round_t(&mut v, t, wt);
    }
    for t in 16..64 {
        let w15 = w[(t + 1) & 15];
        let w2 = w[(t + 14) & 15];
        let s0 = w15.rotr(7).xor(w15.rotr(18)).xor(w15.shr(3));
        let s1 = w2.rotr(17).xor(w2.rotr(19)).xor(w2.shr(10));
        let wt = w[t & 15].add(s0).add(w[(t + 9) & 15]).add(s1);
        w[t & 15] = wt;
        round_t(&mut v, t, wt);
    }

    for (j, start) in init.iter().enumerate() {
        v[j] = v[j].add(*start);
    }
    for (i, state) in states.iter_mut().enumerate() {
        for (j, word) in state.iter_mut().enumerate() {
            *word = v[j].0[i];
        }
    }
}

/// Hashes four equal-length messages in one interleaved pass.
///
/// This is the wide kernel behind batched convergent key derivation
/// (`H(block)` over a span of data blocks) and the read-path integrity
/// self-check: the four message schedules run in lockstep, so the
/// compression's serial dependency chain is amortized fourfold. Returns
/// the four digests in input order; results are bit-identical to
/// [`sha256`] on each message.
///
/// # Panics
///
/// Panics if the four messages differ in length (lockstep lanes must pad
/// identically; the batch layer routes unequal tails to the scalar path).
///
/// # Examples
///
/// ```
/// use lamassu_crypto::sha256::{digest_blocks_x4, sha256};
///
/// let blocks = [&b"aaaa"[..], b"bbbb", b"cccc", b"dddd"];
/// let wide = digest_blocks_x4(blocks);
/// for (w, b) in wide.iter().zip(blocks) {
///     assert_eq!(*w, sha256(b));
/// }
/// ```
pub fn digest_blocks_x4(blocks: [&[u8]; SHA_LANES]) -> [Digest; SHA_LANES] {
    let len = blocks[0].len();
    assert!(
        blocks.iter().all(|b| b.len() == len),
        "digest_blocks_x4 requires equal-length messages"
    );

    let mut states = [H0; SHA_LANES];
    let whole = len / 64 * 64;
    chain_x4(&mut states, std::array::from_fn(|i| &blocks[i][..whole]));

    // All lanes share one padding layout: terminator after the common
    // tail, zeros, 64-bit bit length — one or two final blocks.
    let tail = len - whole;
    let pad_len = if tail < 56 { 64 } else { 128 };
    let mut pads = [[0u8; 128]; SHA_LANES];
    for (pad, block) in pads.iter_mut().zip(blocks) {
        pad[..tail].copy_from_slice(&block[whole..]);
        pad[tail] = 0x80;
        pad[pad_len - 8..pad_len].copy_from_slice(&(len as u64).wrapping_mul(8).to_be_bytes());
    }
    chain_x4(&mut states, std::array::from_fn(|i| &pads[i][..pad_len]));
    std::array::from_fn(|i| digest_of(&states[i]))
}

/// Four-lane [`chain`]: lane `i` compresses `data[i]` — all the same whole
/// number of 64-byte blocks — into `states[i]`, with no padding.
pub(crate) fn chain_x4(states: &mut [[u32; 8]; SHA_LANES], data: [&[u8]; SHA_LANES]) {
    let len = data[0].len();
    debug_assert!(len.is_multiple_of(64) && data.iter().all(|d| d.len() == len));
    for t in (0..len).step_by(64) {
        compress_x4(states, std::array::from_fn(|i| &data[i][t..t + 64]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{from_hex, to_hex};

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_two_block() {
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_896_bits() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            to_hex(&sha256(msg)),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn nist_million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&sha256(&msg)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        for chunk_size in [1usize, 3, 63, 64, 65, 4096, 10_000] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk_size}");
        }
    }

    #[test]
    fn digest_block_matches_streaming_for_block_multiples() {
        let data: Vec<u8> = (0..16_384u32).map(|i| (i % 241) as u8).collect();
        for len in [0usize, 64, 128, 4096, 4096 * 2, 16_384, 100, 65, 4095] {
            let mut h = Sha256::new();
            h.update(&data[..len]);
            assert_eq!(digest_block(&data[..len]), h.finalize(), "len {len}");
        }
    }

    #[test]
    fn from_hex_round_trip() {
        let d = sha256(b"round trip");
        assert_eq!(from_hex(&to_hex(&d)).unwrap(), d.to_vec());
    }

    #[test]
    fn padding_boundaries() {
        // Lengths straddling the 55/56/63/64-byte padding boundaries.
        let expected = [
            (
                55usize,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                57,
                "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6",
            ),
            (
                63,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                65,
                "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0",
            ),
        ];
        for (len, hex) in expected {
            let msg = vec![b'a'; len];
            assert_eq!(to_hex(&sha256(&msg)), hex, "length {len}");
        }
    }

    #[test]
    fn x4_nist_vectors() {
        // FIPS 180-4 example vectors, all four driven through one pass.
        let msgs: [&[u8]; SHA_LANES] = [b"abc", b"abc", b"abc", b"abc"];
        for d in digest_blocks_x4(msgs) {
            assert_eq!(
                to_hex(&d),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
            );
        }
        let two = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        for d in digest_blocks_x4([two, two, two, two]) {
            assert_eq!(
                to_hex(&d),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
            );
        }
    }

    #[test]
    fn x4_matches_scalar_at_padding_boundaries() {
        // Distinct lane contents across every padding regime: empty, short,
        // one-block tail (55/56/63/64), multi-block, and 4 KiB data blocks.
        for len in [0usize, 1, 31, 55, 56, 57, 63, 64, 65, 127, 128, 960, 4096] {
            let lanes: Vec<Vec<u8>> = (0..SHA_LANES)
                .map(|i| (0..len).map(|j| (i * 37 + j * 11 + 5) as u8).collect())
                .collect();
            let refs: [&[u8]; SHA_LANES] = std::array::from_fn(|i| lanes[i].as_slice());
            let wide = digest_blocks_x4(refs);
            for (i, d) in wide.iter().enumerate() {
                assert_eq!(*d, sha256(&lanes[i]), "lane {i} length {len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn x4_rejects_unequal_lengths() {
        let _ = digest_blocks_x4([&b"aa"[..], b"aa", b"aa", b"a"]);
    }
}
