//! Wide crypto kernels: fixsliced AES-256 and 4-lane SHA-256 vs the scalar
//! T-table / single-lane baselines.
//!
//! The convergent data path spends its CPU time in three kernels — CBC over
//! per-block key chains, the GCM CTR body, and the per-block SHA-256 of
//! GetCEKey. This experiment measures each through the wide constant-time
//! implementation (`lamassu_crypto::fixsliced`, `digest_blocks_x4`) and
//! through the scalar oracle it replaced, on the batch shapes the span
//! pipeline actually dispatches:
//!
//! * **CBC decrypt, 8-block batch** — eight 4 KiB data blocks, each its own
//!   CBC chain under its own convergent key; the wide kernel slices 16 AES
//!   blocks per pass *within* a chain. The release shape test pins the
//!   tentpole acceptance bar: **≥ 2x** the T-table throughput.
//! * **CBC encrypt, 16-block batch** — encryption is strictly serial within
//!   a chain, so the wide kernel runs 16 *chains* in lockstep (one lane
//!   each); below [`lamassu_crypto::batch::WIDE_MIN_BLOCKS`] chains the
//!   dispatcher keeps the scalar path, which is why the encrypt bar sits at
//!   the 16-chain group.
//! * **CTR, 32 KiB** — the GCM body/tag keystream, always sliceable.
//! * **SHA-256 x4** — four 4 KiB blocks hashed in one interleaved pass vs
//!   four scalar [`digest_block`] calls.
//!
//! Both sides pay their real per-batch costs: the scalar side expands one
//! T-table key schedule per chain, the wide side packs/unpacks bit-planes
//! and expands its own schedules, exactly as the batch layer does.

use crate::report::{write_json, Table};
use lamassu_crypto::aes::Aes256;
use lamassu_crypto::sha256::{digest_block, digest_blocks_x4, SHA_LANES};
use lamassu_crypto::{cbc, ctr, fixsliced, Key256, FIXED_IV};
use serde::Serialize;
use std::time::Instant;

/// Lamassu data-block size (one CBC chain).
const BLOCK: usize = 4096;

/// One wide-vs-scalar comparison.
#[derive(Debug, Clone, Serialize)]
pub struct WideCryptoRow {
    /// Kernel and batch shape.
    pub metric: String,
    /// Microseconds per batch through the wide constant-time kernel.
    pub fixsliced_us: f64,
    /// Microseconds per batch through the scalar T-table / single-lane path.
    pub ttable_us: f64,
    /// `ttable_us / fixsliced_us`.
    pub speedup: f64,
}

/// Minimum time of `rounds` rounds of `iters` iterations, in µs/iter.
fn best_of(rounds: usize, iters: u32, mut op: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..iters {
            op();
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e6 / iters as f64);
    }
    best
}

/// Per-chain convergent keys and a deterministic plaintext of `chains`
/// 4 KiB blocks.
fn chained_input(chains: usize) -> (Vec<Key256>, Vec<u8>) {
    let keys: Vec<Key256> = (0..chains)
        .map(|c| std::array::from_fn(|i| (c * 31 + i * 7 + 3) as u8))
        .collect();
    let data: Vec<u8> = (0..chains * BLOCK).map(|i| (i % 251) as u8).collect();
    (keys, data)
}

/// Runs the wide-kernel comparison (min-of-N timing on every row).
pub fn run() -> Vec<WideCryptoRow> {
    let mut rows = Vec::new();
    let mut push = |metric: &str, fix_us: f64, tt_us: f64| {
        rows.push(WideCryptoRow {
            metric: metric.to_string(),
            fixsliced_us: fix_us,
            ttable_us: tt_us,
            speedup: tt_us / fix_us,
        });
    };
    const ROUNDS: usize = 30;

    // CBC decrypt: the span read path. 8 chains = the issue's 8-block batch.
    for chains in [8usize, 16] {
        let (keys, plain) = chained_input(chains);
        let mut ct = plain.clone();
        fixsliced::cbc_encrypt_chains(&keys, &FIXED_IV, &mut ct, BLOCK);
        let mut buf = ct.clone();
        let fix = best_of(ROUNDS, 8, || {
            buf.copy_from_slice(&ct);
            fixsliced::cbc_decrypt_chains(&keys, &FIXED_IV, &mut buf, BLOCK);
        });
        assert_eq!(buf, plain, "wide decrypt mismatch");
        let tt = best_of(ROUNDS, 8, || {
            buf.copy_from_slice(&ct);
            for (chain, key) in buf.chunks_mut(BLOCK).zip(&keys) {
                cbc::decrypt_in_place(&Aes256::new(key), &FIXED_IV, chain).unwrap();
            }
        });
        assert_eq!(buf, plain, "scalar decrypt mismatch");
        push(&format!("cbc decrypt {chains}x4KiB chains"), fix, tt);
    }

    // CBC encrypt: the span write path at the 16-chain lockstep group.
    {
        let chains = fixsliced::WIDE_BLOCKS;
        let (keys, plain) = chained_input(chains);
        let mut buf = plain.clone();
        let fix = best_of(ROUNDS, 8, || {
            buf.copy_from_slice(&plain);
            fixsliced::cbc_encrypt_chains(&keys, &FIXED_IV, &mut buf, BLOCK);
        });
        let wide_ct = buf.clone();
        let tt = best_of(ROUNDS, 8, || {
            buf.copy_from_slice(&plain);
            for (chain, key) in buf.chunks_mut(BLOCK).zip(&keys) {
                cbc::encrypt_in_place(&Aes256::new(key), &FIXED_IV, chain).unwrap();
            }
        });
        assert_eq!(buf, wide_ct, "encrypt backends disagree");
        push(&format!("cbc encrypt {chains}x4KiB chains"), fix, tt);
    }

    // CTR keystream: the GCM body over one 32 KiB metadata span.
    {
        let key = [0x5au8; 32];
        let fix_keys = fixsliced::Aes256Fix::new(&key).packed_enc_keys();
        let tt_cipher = Aes256::new(&key);
        let j = [0x17u8; 16];
        let mut buf = vec![0u8; 8 * BLOCK];
        let fix = best_of(ROUNDS, 8, || {
            fixsliced::ctr32_xor(&fix_keys, &j, &mut buf);
        });
        let tt = best_of(ROUNDS, 8, || {
            ctr::ctr32_xor_in_place(&tt_cipher, &j, &mut buf);
        });
        push("ctr 32KiB", fix, tt);
    }

    // SHA-256: four 4 KiB blocks, interleaved vs scalar.
    {
        let lanes: Vec<Vec<u8>> = (0..SHA_LANES)
            .map(|l| (0..BLOCK).map(|i| ((i + l * 131) % 251) as u8).collect())
            .collect();
        let refs: [&[u8]; SHA_LANES] = std::array::from_fn(|i| lanes[i].as_slice());
        let fix = best_of(ROUNDS, 64, || {
            std::hint::black_box(digest_blocks_x4(std::hint::black_box(refs)));
        });
        let tt = best_of(ROUNDS, 64, || {
            for lane in &lanes {
                std::hint::black_box(digest_block(std::hint::black_box(lane)));
            }
        });
        push("sha256 4x4KiB lanes", fix, tt);
    }

    let mut table = Table::new(
        "Wide crypto kernels: fixsliced/multi-lane vs scalar T-table (us/batch)",
        &["metric", "fixsliced", "ttable", "speedup"],
    );
    for r in &rows {
        table.row(&[
            r.metric.clone(),
            format!("{:.1}", r.fixsliced_us),
            format!("{:.1}", r.ttable_us),
            format!("{:.2}x", r.speedup),
        ]);
    }
    table.print();
    write_json("wide_crypto", &rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(rows: &'a [WideCryptoRow], metric: &str) -> &'a WideCryptoRow {
        rows.iter()
            .find(|r| r.metric == metric)
            .unwrap_or_else(|| panic!("missing metric {metric}"))
    }

    /// The tentpole acceptance shape: the wide kernels beat the T-table
    /// oracle by ≥ 2x on the 8-block decrypt batch, and every other batch
    /// shape the dispatcher routes wide holds a clear win.
    #[test]
    fn wide_kernels_hold_their_speedups() {
        let rows = run();

        let dec8 = find(&rows, "cbc decrypt 8x4KiB chains");
        assert!(
            dec8.speedup >= 2.0,
            "8-block wide decrypt speedup {:.2}x < 2x ({:.1}us vs {:.1}us)",
            dec8.speedup,
            dec8.fixsliced_us,
            dec8.ttable_us
        );
        let dec16 = find(&rows, "cbc decrypt 16x4KiB chains");
        assert!(
            dec16.speedup >= 2.0,
            "16-block decrypt {:.2}x",
            dec16.speedup
        );
        let enc = find(&rows, "cbc encrypt 16x4KiB chains");
        assert!(enc.speedup >= 1.5, "16-chain encrypt {:.2}x", enc.speedup);
        let ctr = find(&rows, "ctr 32KiB");
        assert!(ctr.speedup >= 2.0, "CTR {:.2}x", ctr.speedup);
        let sha = find(&rows, "sha256 4x4KiB lanes");
        assert!(sha.speedup >= 1.5, "SHA x4 {:.2}x", sha.speedup);
    }
}
