//! AES-256-GCM authenticated encryption (NIST SP 800-38D).
//!
//! Lamassu encrypts every *metadata* block with AES-256-GCM under the outer
//! key and a random per-write IV (paper §2.2, Equation 3). The GCM
//! authentication tag stored in the metadata block header is what provides
//! metadata integrity (paper §2.5): a reader that lacks the outer key, or a
//! storage system that tampers with a metadata block, fails tag verification.
//!
//! Only 96-bit (12-byte) IVs are supported, which is the recommended GCM
//! nonce size and the one Lamassu uses; the 16-byte IV field in the metadata
//! block header stores the 12-byte nonce zero-padded.

use crate::aes::Aes256;
use crate::ctr::{ctr32_xor_in_place, inc32};
use crate::fixsliced::{self, Aes256Fix, PackedKeys};
use crate::ghash::{Ghash, GhashKey};
use crate::util::constant_time_eq;
use crate::{stats, CryptoBackend, CryptoError, Key256, Result};

/// Length of a GCM nonce in bytes.
pub const NONCE_LEN: usize = 12;
/// Length of a GCM authentication tag in bytes.
pub const TAG_LEN: usize = 16;

/// An AES-256-GCM cipher instance bound to one key.
///
/// # Examples
///
/// ```
/// use lamassu_crypto::gcm::Aes256Gcm;
///
/// let gcm = Aes256Gcm::new(&[7u8; 32]);
/// let nonce = [1u8; 12];
/// let mut buf = b"segment metadata".to_vec();
/// let tag = gcm.encrypt_in_place(&nonce, b"aad", &mut buf);
/// gcm.decrypt_in_place(&nonce, b"aad", &mut buf, &tag).unwrap();
/// assert_eq!(buf, b"segment metadata");
/// ```
#[derive(Clone)]
pub struct Aes256Gcm {
    cipher: Cipher,
    /// Precomputed GHASH nibble table for the subkey H = AES_K(0^128),
    /// built once per key (Shoup's 4-bit method — see [`crate::ghash`]).
    h: GhashKey,
}

/// The block cipher under the CTR half, per [`CryptoBackend`]. The size
/// gap between the variants is one schedule per mount, not worth a box.
#[derive(Clone)]
#[allow(clippy::large_enum_variant)]
enum Cipher {
    /// The fixsliced encrypt schedule, packed once per key: the GHASH
    /// subkey, the CTR body and the tag mask all run through the
    /// constant-time kernel.
    Fixsliced(PackedKeys),
    /// The T-table schedule (the differential oracle).
    TTable(Aes256),
}

impl Aes256Gcm {
    /// Creates a GCM instance from a 256-bit key on the default backend.
    pub fn new(key: &Key256) -> Self {
        Self::with_backend(key, CryptoBackend::default())
    }

    /// Creates a GCM instance bound to an explicit [`CryptoBackend`].
    pub fn with_backend(key: &Key256, backend: CryptoBackend) -> Self {
        let mut h = [0u8; 16];
        let cipher = match backend {
            CryptoBackend::Fixsliced => {
                let rk = Aes256Fix::new(key).packed_enc_keys();
                fixsliced::ecb_encrypt(&rk, &mut h);
                Cipher::Fixsliced(rk)
            }
            CryptoBackend::TTable => {
                let aes = Aes256::new(key);
                h = aes.encrypt_block(&h);
                Cipher::TTable(aes)
            }
        };
        Aes256Gcm {
            cipher,
            h: GhashKey::new(&h),
        }
    }

    /// XORs the CTR keystream that starts at `inc32(j0)` into `data` and
    /// returns the tag mask `E_K(j0)`. On the fixsliced backend the mask
    /// rides in an idle lane of the body's last pass (a metadata region's
    /// 254 blocks and the mask fill eight paired 32-block passes), so it
    /// costs no pass of its own. CTR blocks are independent, so the wide
    /// kernel applies at any length.
    fn ctr_and_mask(&self, j0: &[u8; 16], data: &mut [u8]) -> [u8; 16] {
        let mut ctr = *j0;
        inc32(&mut ctr);
        let blocks = data.len().div_ceil(16) + 1;
        match &self.cipher {
            Cipher::Fixsliced(rk) => {
                stats::count_wide_blocks(blocks);
                fixsliced::ctr32_xor_and_encrypt(rk, &ctr, data, j0)
            }
            Cipher::TTable(aes) => {
                stats::count_scalar_blocks(blocks);
                ctr32_xor_in_place(aes, &ctr, data);
                aes.encrypt_block(j0)
            }
        }
    }

    /// Builds the pre-counter block J0 from a 96-bit nonce.
    fn j0(nonce: &[u8; NONCE_LEN]) -> [u8; 16] {
        let mut j0 = [0u8; 16];
        j0[..NONCE_LEN].copy_from_slice(nonce);
        j0[15] = 1;
        j0
    }

    /// Encrypts `data` in place and returns the 16-byte authentication tag.
    ///
    /// `aad` is additional authenticated (but not encrypted) data; Lamassu
    /// binds each metadata block to its object name and segment index through
    /// the AAD so blocks cannot be transplanted between segments unnoticed.
    pub fn encrypt_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        data: &mut [u8],
    ) -> [u8; TAG_LEN] {
        let j0 = Self::j0(nonce);
        let mask = self.ctr_and_mask(&j0, data);
        xor16(self.ghash(aad, data), &mask)
    }

    /// Verifies the tag and decrypts `data` in place.
    ///
    /// On tag mismatch the buffer is left in its (still encrypted) input
    /// state and [`CryptoError::TagMismatch`] is returned.
    pub fn decrypt_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<()> {
        let j0 = Self::j0(nonce);
        let s = self.ghash(aad, data);
        // The tag mask comes out of the same passes that decrypt the body,
        // so the body is decrypted first and, on a mismatch, encrypted back
        // (CTR is its own inverse) — nothing unauthenticated is returned.
        let mask = self.ctr_and_mask(&j0, data);
        if !constant_time_eq(&xor16(s, &mask), tag) {
            self.ctr_and_mask(&j0, data);
            return Err(CryptoError::TagMismatch);
        }
        Ok(())
    }

    /// GHASH over (`aad`, ciphertext): the tag before its mask.
    fn ghash(&self, aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let mut ghash = Ghash::with_key(&self.h);
        ghash.update_padded(aad);
        ghash.update_padded(ciphertext);
        ghash.finalize(aad.len(), ciphertext.len())
    }
}

fn xor16(mut a: [u8; 16], b: &[u8; 16]) -> [u8; 16] {
    for (x, y) in a.iter_mut().zip(b) {
        *x ^= y;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::from_hex;

    fn key(s: &str) -> Key256 {
        from_hex(s).unwrap().try_into().unwrap()
    }

    fn nonce(s: &str) -> [u8; 12] {
        from_hex(s).unwrap().try_into().unwrap()
    }

    /// GCM spec (McGrew & Viega) Test Case 13: empty plaintext, empty AAD.
    #[test]
    fn gcm_test_case_13() {
        let gcm = Aes256Gcm::new(&[0u8; 32]);
        let mut data = Vec::new();
        let tag = gcm.encrypt_in_place(&[0u8; 12], &[], &mut data);
        assert_eq!(
            tag.to_vec(),
            from_hex("530f8afbc74536b9a963b4f1c4cb738b").unwrap()
        );
    }

    /// GCM spec Test Case 14: one zero block.
    #[test]
    fn gcm_test_case_14() {
        let gcm = Aes256Gcm::new(&[0u8; 32]);
        let mut data = vec![0u8; 16];
        let tag = gcm.encrypt_in_place(&[0u8; 12], &[], &mut data);
        assert_eq!(data, from_hex("cea7403d4d606b6e074ec5d3baf39d18").unwrap());
        assert_eq!(
            tag.to_vec(),
            from_hex("d0d1c8a799996bf0265b98b5d48ab919").unwrap()
        );
    }

    /// GCM spec Test Case 15: four blocks, no AAD.
    #[test]
    fn gcm_test_case_15() {
        let gcm = Aes256Gcm::new(&key(
            "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
        ));
        let pt = from_hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        )
        .unwrap();
        let mut data = pt.clone();
        let tag = gcm.encrypt_in_place(&nonce("cafebabefacedbaddecaf888"), &[], &mut data);
        assert_eq!(
            data,
            from_hex(
                "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
                 8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad"
            )
            .unwrap()
        );
        assert_eq!(
            tag.to_vec(),
            from_hex("b094dac5d93471bdec1a502270e3cc6c").unwrap()
        );
    }

    /// GCM spec Test Case 16: 60-byte plaintext with AAD.
    #[test]
    fn gcm_test_case_16() {
        let gcm = Aes256Gcm::new(&key(
            "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
        ));
        let aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2").unwrap();
        let pt = from_hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        )
        .unwrap();
        let mut data = pt.clone();
        let n = nonce("cafebabefacedbaddecaf888");
        let tag = gcm.encrypt_in_place(&n, &aad, &mut data);
        assert_eq!(
            data,
            from_hex(
                "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
                 8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
            )
            .unwrap()
        );
        assert_eq!(
            tag.to_vec(),
            from_hex("76fc6ece0f4e1768cddf8853bb2d551b").unwrap()
        );

        // And the decryption path round-trips and authenticates.
        gcm.decrypt_in_place(&n, &aad, &mut data, &tag).unwrap();
        assert_eq!(data, pt);
    }

    #[test]
    fn tampered_ciphertext_is_rejected() {
        let gcm = Aes256Gcm::new(&[9u8; 32]);
        let n = [3u8; 12];
        let mut data = vec![0x11u8; 100];
        let tag = gcm.encrypt_in_place(&n, b"hdr", &mut data);
        data[50] ^= 1;
        let before = data.clone();
        let err = gcm.decrypt_in_place(&n, b"hdr", &mut data, &tag);
        assert_eq!(err, Err(CryptoError::TagMismatch));
        assert_eq!(data, before, "buffer must be untouched on failure");
    }

    #[test]
    fn tampered_aad_is_rejected() {
        let gcm = Aes256Gcm::new(&[9u8; 32]);
        let n = [3u8; 12];
        let mut data = vec![0x11u8; 32];
        let tag = gcm.encrypt_in_place(&n, b"segment-1", &mut data);
        assert_eq!(
            gcm.decrypt_in_place(&n, b"segment-2", &mut data, &tag),
            Err(CryptoError::TagMismatch)
        );
    }

    #[test]
    fn wrong_key_is_rejected() {
        let gcm = Aes256Gcm::new(&[1u8; 32]);
        let other = Aes256Gcm::new(&[2u8; 32]);
        let n = [0u8; 12];
        let mut data = vec![7u8; 48];
        let tag = gcm.encrypt_in_place(&n, &[], &mut data);
        assert_eq!(
            other.decrypt_in_place(&n, &[], &mut data, &tag),
            Err(CryptoError::TagMismatch)
        );
    }

    /// The spec-vector tests above run on the default (fixsliced) backend;
    /// this pins both backends to identical ciphertext and tags, and
    /// round-trips across them (each opens the other's seal).
    ///
    /// The lengths put the tag mask at every pass boundary of the fixsliced
    /// CTR body (counter blocks plus the mask's lane): alone, last in a
    /// single pass (240 bytes), first past it (241, 256), in a pair's
    /// second state (257, 496, and a metadata region's 4064), last in a
    /// pair (497, 512), first past a pair (513), and a lone single pass
    /// ahead of pairs (768, 4096).
    #[test]
    fn backends_interoperate() {
        let k = key("feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
        let fix = Aes256Gcm::with_backend(&k, CryptoBackend::Fixsliced);
        let tt = Aes256Gcm::with_backend(&k, CryptoBackend::TTable);
        let n = nonce("cafebabefacedbaddecaf888");
        let lens = [
            0usize, 1, 15, 16, 17, 100, 240, 241, 256, 257, 496, 497, 512, 513, 768, 1024, 4064,
            4096,
        ];
        for len in lens {
            let plain: Vec<u8> = (0..len).map(|i| (i * 13 % 256) as u8).collect();
            let mut a = plain.clone();
            let tag_fix = fix.encrypt_in_place(&n, b"aad", &mut a);
            let mut b = plain.clone();
            let tag_tt = tt.encrypt_in_place(&n, b"aad", &mut b);
            assert_eq!(a, b, "len {len}");
            assert_eq!(tag_fix, tag_tt, "len {len}");
            tt.decrypt_in_place(&n, b"aad", &mut a, &tag_fix).unwrap();
            assert_eq!(a, plain, "len {len}");
            fix.decrypt_in_place(&n, b"aad", &mut b, &tag_tt).unwrap();
            assert_eq!(b, plain, "len {len}");
        }
    }

    #[test]
    fn random_nonces_randomize_ciphertext() {
        let gcm = Aes256Gcm::new(&[5u8; 32]);
        let mut a = vec![0xaau8; 64];
        let mut b = vec![0xaau8; 64];
        gcm.encrypt_in_place(&[1u8; 12], &[], &mut a);
        gcm.encrypt_in_place(&[2u8; 12], &[], &mut b);
        assert_ne!(a, b, "metadata encryption must not be convergent");
    }
}
