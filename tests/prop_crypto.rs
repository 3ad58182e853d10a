//! Property-based tests over the from-scratch crypto substrate.
//!
//! The `fixsliced_*` properties are differential: the bitsliced constant-time
//! kernels must be bit-for-bit interchangeable with the scalar T-table
//! implementation, which serves as the reference oracle.

use lamassu::crypto::aes::{ecb_decrypt_in_place, ecb_encrypt_in_place, Aes256};
use lamassu::crypto::gcm::Aes256Gcm;
use lamassu::crypto::kdf::{tree_hash, ConvergentKdf, HashVersion};
use lamassu::crypto::sha256::{digest_blocks_x4, sha256, Sha256, SHA_LANES};
use lamassu::crypto::{cbc, ctr, fixsliced, CryptoBackend, CryptoError, FIXED_IV};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn sha256_streaming_equals_one_shot(
        data in prop::collection::vec(any::<u8>(), 0..20_000),
        splits in prop::collection::vec(0usize..20_000, 0..8)
    ) {
        let mut hasher = Sha256::new();
        let mut cuts: Vec<usize> = splits.into_iter().map(|s| s % (data.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut prev = 0;
        for cut in cuts {
            hasher.update(&data[prev..cut]);
            prev = cut;
        }
        hasher.update(&data[prev..]);
        prop_assert_eq!(hasher.finalize(), sha256(&data));
    }

    #[test]
    fn sha256_is_sensitive_to_single_bit_flips(
        mut data in prop::collection::vec(any::<u8>(), 1..4096),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8
    ) {
        let original = sha256(&data);
        let idx = pos.index(data.len());
        data[idx] ^= 1 << bit;
        prop_assert_ne!(sha256(&data), original);
    }

    #[test]
    fn aes_block_round_trip(key in any::<[u8; 32]>(), block in any::<[u8; 16]>()) {
        let aes = Aes256::new(&key);
        prop_assert_eq!(aes.decrypt_block(&aes.encrypt_block(&block)), block);
    }

    #[test]
    fn ecb_round_trip_arbitrary_block_counts(
        key in any::<[u8; 32]>(),
        blocks in 0usize..64,
        seed in any::<u8>()
    ) {
        let aes = Aes256::new(&key);
        let original: Vec<u8> = (0..blocks * 16).map(|i| (i as u8).wrapping_add(seed)).collect();
        let mut buf = original.clone();
        ecb_encrypt_in_place(&aes, &mut buf);
        ecb_decrypt_in_place(&aes, &mut buf);
        prop_assert_eq!(buf, original);
    }

    #[test]
    fn cbc_round_trip_and_determinism(
        key in any::<[u8; 32]>(),
        iv in any::<[u8; 16]>(),
        blocks in 1usize..64,
        seed in any::<u8>()
    ) {
        let aes = Aes256::new(&key);
        let original: Vec<u8> = (0..blocks * 16).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect();
        let mut a = original.clone();
        let mut b = original.clone();
        cbc::encrypt_in_place(&aes, &iv, &mut a).unwrap();
        cbc::encrypt_in_place(&aes, &iv, &mut b).unwrap();
        prop_assert_eq!(&a, &b, "CBC with a fixed IV must be deterministic");
        prop_assert_ne!(&a, &original);
        cbc::decrypt_in_place(&aes, &iv, &mut a).unwrap();
        prop_assert_eq!(a, original);
    }

    #[test]
    fn cbc_rejects_unaligned_lengths(len in 1usize..256) {
        prop_assume!(len % 16 != 0);
        let aes = Aes256::new(&[0u8; 32]);
        let mut buf = vec![0u8; len];
        let rejected = matches!(
            cbc::encrypt_in_place(&aes, &FIXED_IV, &mut buf),
            Err(CryptoError::InvalidLength { .. })
        );
        prop_assert!(rejected);
    }

    #[test]
    fn ctr_keystream_is_an_involution(
        key in any::<[u8; 32]>(),
        counter in any::<[u8; 16]>(),
        data in prop::collection::vec(any::<u8>(), 0..2000)
    ) {
        let aes = Aes256::new(&key);
        let mut buf = data.clone();
        ctr::ctr32_xor_in_place(&aes, &counter, &mut buf);
        ctr::ctr32_xor_in_place(&aes, &counter, &mut buf);
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn gcm_round_trip_rejects_any_single_byte_corruption(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        aad in prop::collection::vec(any::<u8>(), 0..64),
        data in prop::collection::vec(any::<u8>(), 1..2000),
        corrupt_at in any::<prop::sample::Index>()
    ) {
        let gcm = Aes256Gcm::new(&key);
        let mut buf = data.clone();
        let tag = gcm.encrypt_in_place(&nonce, &aad, &mut buf);

        // Tampering with any ciphertext byte is detected.
        let mut tampered = buf.clone();
        let idx = corrupt_at.index(tampered.len());
        tampered[idx] ^= 0x01;
        prop_assert_eq!(
            gcm.decrypt_in_place(&nonce, &aad, &mut tampered, &tag),
            Err(CryptoError::TagMismatch)
        );

        // The untampered ciphertext decrypts back to the plaintext.
        gcm.decrypt_in_place(&nonce, &aad, &mut buf, &tag).unwrap();
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn convergent_kdf_equality_mirrors_plaintext_equality(
        inner in any::<[u8; 32]>(),
        a in prop::collection::vec(any::<u8>(), 64..256),
        b in prop::collection::vec(any::<u8>(), 64..256)
    ) {
        // v1 hashes any length; v2 blocks are quartered, so `a` and `b` are
        // padded to 256 bytes with their own length (injective below 256).
        let pad = |x: &Vec<u8>| {
            let mut p = x.clone();
            p.resize(256, x.len() as u8);
            p
        };
        for version in [HashVersion::V1, HashVersion::V2] {
            let kdf = ConvergentKdf::with_version(&inner, version);
            let (pa, pb, hash) = match version {
                HashVersion::V1 => (a.clone(), b.clone(), sha256(&a)),
                HashVersion::V2 => (pad(&a), pad(&b), tree_hash(&pad(&a))),
            };
            let ka = kdf.derive_for_block(&pa);
            let kb = kdf.derive_for_block(&pb);
            prop_assert_eq!(ka == kb, a == b, "key equality must track plaintext equality");
            prop_assert_eq!(kdf.invert(&ka), hash);
            prop_assert_eq!(kdf.derive_for_block_ct(&pa), ka, "lane path == scalar path");
        }
    }

    #[test]
    fn fixsliced_ecb_matches_ttable(
        key in any::<[u8; 32]>(),
        blocks in 0usize..48,
        seed in any::<u8>()
    ) {
        let fix = fixsliced::Aes256Fix::new(&key);
        let aes = Aes256::new(&key);
        let original: Vec<u8> = (0..blocks * 16).map(|i| (i as u8).wrapping_mul(37).wrapping_add(seed)).collect();
        let mut wide = original.clone();
        let mut scalar = original.clone();
        fixsliced::ecb_encrypt(&fix.packed_enc_keys(), &mut wide);
        ecb_encrypt_in_place(&aes, &mut scalar);
        prop_assert_eq!(&wide, &scalar, "ECB encrypt differs between backends");
        fixsliced::ecb_decrypt(&fix.packed_dec_keys(), &mut wide);
        prop_assert_eq!(wide, original);
    }

    #[test]
    fn fixsliced_cbc_matches_ttable(
        key in any::<[u8; 32]>(),
        iv in any::<[u8; 16]>(),
        blocks in 1usize..48,
        data in prop::collection::vec(any::<u8>(), 48 * 16)
    ) {
        let fix = fixsliced::Aes256Fix::new(&key);
        let aes = Aes256::new(&key);
        let original = &data[..blocks * 16];
        let mut wide = original.to_vec();
        let mut scalar = original.to_vec();
        cbc::encrypt_in_place(&aes, &iv, &mut scalar).unwrap();
        fixsliced::cbc_encrypt(&fix, &iv, &mut wide);
        prop_assert_eq!(&wide, &scalar, "CBC encrypt differs between backends");
        fixsliced::cbc_decrypt(&fix, &iv, &mut wide);
        prop_assert_eq!(wide, original);
    }

    #[test]
    fn fixsliced_cbc_chains_match_per_chain_ttable(
        keys in prop::collection::vec(any::<[u8; 32]>(), 1..24),
        iv in any::<[u8; 16]>(),
        chain_blocks in 1usize..5,
        seed in any::<u8>()
    ) {
        // Every chain count from below to well above the 16-chain slicing
        // width, with chain lengths that are not multiples of the width.
        let chain_len = chain_blocks * 16;
        let original: Vec<u8> = (0..keys.len() * chain_len)
            .map(|i| (i as u8).wrapping_mul(101).wrapping_add(seed))
            .collect();
        let mut wide = original.clone();
        fixsliced::cbc_encrypt_chains(&keys, &iv, &mut wide, chain_len);
        let mut scalar = original.clone();
        for (chain, key) in scalar.chunks_mut(chain_len).zip(&keys) {
            cbc::encrypt_in_place(&Aes256::new(key), &iv, chain).unwrap();
        }
        prop_assert_eq!(&wide, &scalar, "chained CBC encrypt differs between backends");
        fixsliced::cbc_decrypt_chains(&keys, &iv, &mut wide, chain_len);
        prop_assert_eq!(wide, original);
    }

    #[test]
    fn fixsliced_ctr_matches_ttable(
        key in any::<[u8; 32]>(),
        counter in any::<[u8; 16]>(),
        data in prop::collection::vec(any::<u8>(), 0..2000)
    ) {
        let fix = fixsliced::Aes256Fix::new(&key);
        let aes = Aes256::new(&key);
        let mut wide = data.clone();
        let mut scalar = data.clone();
        fixsliced::ctr32_xor(&fix.packed_enc_keys(), &counter, &mut wide);
        ctr::ctr32_xor_in_place(&aes, &counter, &mut scalar);
        prop_assert_eq!(&wide, &scalar, "CTR keystream differs between backends");
        fixsliced::ctr32_xor(&fix.packed_enc_keys(), &counter, &mut wide);
        prop_assert_eq!(wide, data);
    }

    #[test]
    fn gcm_backends_are_interchangeable(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        aad in prop::collection::vec(any::<u8>(), 0..32),
        data in prop::collection::vec(any::<u8>(), 0..1024)
    ) {
        let wide = Aes256Gcm::with_backend(&key, CryptoBackend::Fixsliced);
        let scalar = Aes256Gcm::with_backend(&key, CryptoBackend::TTable);
        let mut wide_buf = data.clone();
        let mut scalar_buf = data.clone();
        let wide_tag = wide.encrypt_in_place(&nonce, &aad, &mut wide_buf);
        let scalar_tag = scalar.encrypt_in_place(&nonce, &aad, &mut scalar_buf);
        prop_assert_eq!(&wide_buf, &scalar_buf, "GCM ciphertext differs between backends");
        prop_assert_eq!(wide_tag, scalar_tag, "GCM tag differs between backends");
        // Each backend authenticates and decrypts the other's output.
        scalar.decrypt_in_place(&nonce, &aad, &mut wide_buf, &wide_tag).unwrap();
        prop_assert_eq!(wide_buf, data);
    }

    #[test]
    fn sha256_x4_matches_scalar_lanes(
        len in 0usize..3000,
        seeds in any::<[u8; SHA_LANES]>()
    ) {
        // Lengths sweep across the one-vs-two-padding-block boundary at
        // every `len % 64`; the four lanes carry different content so a
        // lane mix-up cannot cancel out.
        let lanes: Vec<Vec<u8>> = seeds
            .iter()
            .map(|&s| (0..len).map(|i| (i as u8).wrapping_mul(13).wrapping_add(s)).collect())
            .collect();
        let refs: [&[u8]; SHA_LANES] = std::array::from_fn(|i| lanes[i].as_slice());
        let wide = digest_blocks_x4(refs);
        for (lane, digest) in lanes.iter().zip(wide.iter()) {
            prop_assert_eq!(*digest, sha256(lane), "multi-lane digest differs from scalar");
        }
    }
}
