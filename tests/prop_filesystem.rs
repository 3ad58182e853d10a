//! Property-based tests: the shims behave like an in-memory reference file
//! for arbitrary sequences of operations, and the core convergence /
//! geometry invariants hold for arbitrary inputs.

use lamassu::core::{
    CeFileFs, CryptoBackend, EncFs, EncFsConfig, FileSystem, LamassuConfig, LamassuFs, PlainFs,
    SpanConfig,
};
use lamassu::crypto::kdf::ConvergentKdf;
use lamassu::crypto::{aes::Aes256, cbc, FIXED_IV};
use lamassu::format::Geometry;
use lamassu::keymgr::ZoneKeys;
use lamassu::storage::{DedupStore, ObjectStore, StorageProfile};
use proptest::prelude::*;
use std::sync::Arc;

fn zone_keys() -> ZoneKeys {
    ZoneKeys {
        zone: 1,
        generation: 0,
        inner: [0x11; 32],
        outer: [0x22; 32],
    }
}

/// One step of the model-based test.
#[derive(Debug, Clone)]
enum Op {
    Write { offset: u64, data: Vec<u8> },
    Read { offset: u64, len: usize },
    Truncate { size: u64 },
    Fsync,
}

fn op_strategy(max_file: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..max_file, prop::collection::vec(any::<u8>(), 1..6000))
            .prop_map(|(offset, data)| Op::Write { offset, data }),
        3 => (0..max_file, 0usize..6000).prop_map(|(offset, len)| Op::Read { offset, len }),
        1 => (0..max_file).prop_map(|size| Op::Truncate { size }),
        1 => Just(Op::Fsync),
    ]
}

/// [`op_strategy`] plus, one op in seven, a write that straddles the first
/// segment boundary of the default geometry with more than `R` blocks on
/// each side (aligned or not): a multi-segment flush with several rounds per
/// segment — the shape the commit pipeline merges metadata writes and
/// batches crypto across. The payload is synthesized from one seed byte so
/// the large writes stay cheap to generate and shrink.
fn lamassu_op_strategy(max_file: u64) -> impl Strategy<Value = Op> {
    let g = Geometry::default();
    let (bs, r) = (g.block_size() as u64, g.reserved_slots() as u64);
    let boundary = g.keys_per_metadata_block() as u64 * bs;
    let side = (r + 1) * bs..4 * r * bs;
    prop_oneof![
        6 => op_strategy(max_file),
        1 => (side.clone(), side, any::<u8>()).prop_map(move |(before, after, seed)| Op::Write {
            offset: boundary - before,
            data: (0..before + after)
                .map(|i| seed ^ (i / 509) as u8 ^ (i as u8).wrapping_mul(29))
                .collect(),
        }),
    ]
}

/// Applies an op sequence to a shim and to a plain `Vec<u8>` model, checking
/// every read against the model.
fn check_against_model(fs: &dyn FileSystem, ops: &[Op]) {
    let mut model: Vec<u8> = Vec::new();
    let fd = fs.create("/model.bin").unwrap();
    for op in ops {
        match op {
            Op::Write { offset, data } => {
                fs.write(fd, *offset, data).unwrap();
                let end = *offset as usize + data.len();
                if end > model.len() {
                    model.resize(end, 0);
                }
                model[*offset as usize..end].copy_from_slice(data);
            }
            Op::Read { offset, len } => {
                let got = fs.read(fd, *offset, *len).unwrap();
                let expected: &[u8] = if *offset as usize >= model.len() {
                    &[]
                } else {
                    let end = (*offset as usize + len).min(model.len());
                    &model[*offset as usize..end]
                };
                assert_eq!(got, expected, "read at {offset}+{len}");
            }
            Op::Truncate { size } => {
                fs.truncate(fd, *size).unwrap();
                model.resize(*size as usize, 0);
            }
            Op::Fsync => fs.fsync(fd).unwrap(),
        }
        assert_eq!(fs.len(fd).unwrap(), model.len() as u64);
    }
    // Final full read-back after a flush.
    fs.fsync(fd).unwrap();
    assert_eq!(fs.read(fd, 0, model.len().max(1)).unwrap(), model);
}

/// How two same-workload stores may be compared, given each shim's use of
/// randomness.
enum StoreCheck {
    /// Every object byte-for-byte (no randomized encryption: PlainFS).
    Exact,
    /// Data blocks byte-for-byte, metadata blocks skipped (LamassuFS:
    /// convergent data ciphertext is deterministic, sealed metadata blocks
    /// carry random GCM nonces).
    LamassuDataBlocks,
    /// Body bytes (past the first block) byte-for-byte (CeFileFS: the
    /// convergent body is deterministic, the sealed header is randomized).
    CeFileBody,
    /// Object lengths only (EncFS: per-file random keys randomize all
    /// ciphertext).
    LengthsOnly,
}

/// Replays one op sequence through two mounts of the same shim — one per
/// span configuration — over separate stores, requiring identical observable
/// behaviour throughout and comparing the resulting stores as deeply as the
/// shim's randomness allows.
fn check_dual_mounts(
    make: impl Fn(Arc<DedupStore>, SpanConfig) -> Box<dyn FileSystem>,
    check: StoreCheck,
    ops: &[Op],
    span_a: SpanConfig,
    span_b: SpanConfig,
) {
    let store_span = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
    let store_pb = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
    let fs_span = make(store_span.clone(), span_a);
    let fs_pb = make(store_pb.clone(), span_b);
    let fd_span = fs_span.create("/dual.bin").unwrap();
    let fd_pb = fs_pb.create("/dual.bin").unwrap();
    for op in ops {
        match op {
            Op::Write { offset, data } => {
                assert_eq!(
                    fs_span.write(fd_span, *offset, data).unwrap(),
                    fs_pb.write(fd_pb, *offset, data).unwrap()
                );
            }
            Op::Read { offset, len } => {
                assert_eq!(
                    fs_span.read(fd_span, *offset, *len).unwrap(),
                    fs_pb.read(fd_pb, *offset, *len).unwrap(),
                    "read at {offset}+{len} diverged between pipelines"
                );
            }
            Op::Truncate { size } => {
                fs_span.truncate(fd_span, *size).unwrap();
                fs_pb.truncate(fd_pb, *size).unwrap();
            }
            Op::Fsync => {
                fs_span.fsync(fd_span).unwrap();
                fs_pb.fsync(fd_pb).unwrap();
            }
        }
        assert_eq!(fs_span.len(fd_span).unwrap(), fs_pb.len(fd_pb).unwrap());
    }
    // Full plaintext read-back must agree before and after the final flush.
    let size = fs_span.len(fd_span).unwrap() as usize;
    assert_eq!(
        fs_span.read(fd_span, 0, size.max(1)).unwrap(),
        fs_pb.read(fd_pb, 0, size.max(1)).unwrap()
    );
    fs_span.close(fd_span).unwrap();
    fs_pb.close(fd_pb).unwrap();

    // Compare the stores the two pipelines produced.
    let len_span = store_span.len("/dual.bin").unwrap();
    let len_pb = store_pb.len("/dual.bin").unwrap();
    assert_eq!(len_span, len_pb, "physical layouts diverged");
    if len_span == 0 {
        return;
    }
    let bytes_span = store_span
        .read_at("/dual.bin", 0, len_span as usize)
        .unwrap();
    let bytes_pb = store_pb.read_at("/dual.bin", 0, len_pb as usize).unwrap();
    match check {
        StoreCheck::Exact => assert_eq!(bytes_span, bytes_pb),
        StoreCheck::LamassuDataBlocks => {
            let seg_blocks = Geometry::default().segment_blocks() as u64;
            for (i, (a, b)) in bytes_span
                .chunks(4096)
                .zip(bytes_pb.chunks(4096))
                .enumerate()
            {
                if (i as u64).is_multiple_of(seg_blocks) {
                    continue; // sealed metadata block: random nonce
                }
                assert_eq!(a, b, "data ciphertext diverged at physical block {i}");
            }
        }
        StoreCheck::CeFileBody => {
            assert_eq!(bytes_span[4096..], bytes_pb[4096..], "bodies diverged");
        }
        StoreCheck::LengthsOnly => {}
    }
}

/// Span pipeline vs per-block pipeline on the default crypto backend.
fn check_span_vs_per_block(
    make: impl Fn(Arc<DedupStore>, SpanConfig) -> Box<dyn FileSystem>,
    check: StoreCheck,
    ops: &[Op],
) {
    check_dual_mounts(
        make,
        check,
        ops,
        SpanConfig::batched(),
        SpanConfig::per_block(),
    );
}

/// Fixsliced mount vs T-table mount of the same shim on the same pipeline:
/// the wide constant-time kernels must leave byte-identical stores, so any
/// divergence between the AES/SHA implementations surfaces as a ciphertext
/// mismatch at the filesystem level.
fn check_fixsliced_vs_ttable(
    make: impl Fn(Arc<DedupStore>, SpanConfig) -> Box<dyn FileSystem>,
    check: StoreCheck,
    ops: &[Op],
) {
    check_dual_mounts(
        make,
        check,
        ops,
        SpanConfig::batched().with_crypto(CryptoBackend::Fixsliced),
        SpanConfig::batched().with_crypto(CryptoBackend::TTable),
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn lamassufs_matches_reference_model(ops in prop::collection::vec(lamassu_op_strategy(40_000), 1..25)) {
        let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        let fs = LamassuFs::new(store, zone_keys(), LamassuConfig::default());
        check_against_model(&fs, &ops);
    }

    #[test]
    fn lamassufs_small_r_matches_reference_model(ops in prop::collection::vec(op_strategy(30_000), 1..20)) {
        let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        let fs = LamassuFs::new(
            store,
            zone_keys(),
            LamassuConfig::with_reserved_slots(1).unwrap(),
        );
        check_against_model(&fs, &ops);
    }

    #[test]
    fn encfs_matches_reference_model(ops in prop::collection::vec(op_strategy(30_000), 1..20)) {
        let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        let fs = EncFs::new(store, [9u8; 32], EncFsConfig::default());
        check_against_model(&fs, &ops);
    }

    #[test]
    fn plainfs_matches_reference_model(ops in prop::collection::vec(op_strategy(30_000), 1..20)) {
        let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        let fs = PlainFs::new(store);
        check_against_model(&fs, &ops);
    }

    #[test]
    fn lamassufs_span_and_per_block_pipelines_are_byte_identical(
        ops in prop::collection::vec(lamassu_op_strategy(40_000), 1..16)
    ) {
        check_span_vs_per_block(
            |store, span| Box::new(LamassuFs::new(
                store,
                zone_keys(),
                LamassuConfig::default().span(span),
            )),
            StoreCheck::LamassuDataBlocks,
            &ops,
        );
    }

    #[test]
    fn encfs_span_and_per_block_pipelines_agree(
        ops in prop::collection::vec(op_strategy(30_000), 1..16)
    ) {
        // EncFS draws a random file key per mount, so ciphertext cannot be
        // compared across stores; plaintext behaviour and physical layout
        // must still be identical between the pipelines.
        check_span_vs_per_block(
            |store, span| Box::new(EncFs::new(
                store,
                [9u8; 32],
                EncFsConfig { span, ..EncFsConfig::default() },
            )),
            StoreCheck::LengthsOnly,
            &ops,
        );
    }

    #[test]
    fn cefilefs_span_and_per_block_pipelines_are_byte_identical(
        ops in prop::collection::vec(op_strategy(20_000), 1..12)
    ) {
        check_span_vs_per_block(
            |store, span| Box::new(CeFileFs::with_config(store, zone_keys(), 4096, span)),
            StoreCheck::CeFileBody,
            &ops,
        );
    }

    #[test]
    fn plainfs_span_and_per_block_pipelines_are_byte_identical(
        ops in prop::collection::vec(op_strategy(30_000), 1..16)
    ) {
        // PlainFS has a single pass-through path; the dual harness still
        // proves the vectored store primitives change nothing observable.
        check_span_vs_per_block(
            |store, _span| Box::new(PlainFs::new(store)),
            StoreCheck::Exact,
            &ops,
        );
    }

    #[test]
    fn lamassufs_crypto_backends_produce_identical_stores(
        ops in prop::collection::vec(lamassu_op_strategy(40_000), 1..16)
    ) {
        check_fixsliced_vs_ttable(
            |store, span| Box::new(LamassuFs::new(
                store,
                zone_keys(),
                LamassuConfig::default().span(span),
            )),
            StoreCheck::LamassuDataBlocks,
            &ops,
        );
    }

    #[test]
    fn encfs_crypto_backends_agree(
        ops in prop::collection::vec(op_strategy(30_000), 1..16)
    ) {
        // Per-mount random file keys rule out ciphertext comparison, but
        // plaintext behaviour and physical layout must not depend on the
        // AES implementation.
        check_fixsliced_vs_ttable(
            |store, span| Box::new(EncFs::new(
                store,
                [9u8; 32],
                EncFsConfig { span, ..EncFsConfig::default() },
            )),
            StoreCheck::LengthsOnly,
            &ops,
        );
    }

    #[test]
    fn cefilefs_crypto_backends_produce_identical_stores(
        ops in prop::collection::vec(op_strategy(20_000), 1..12)
    ) {
        check_fixsliced_vs_ttable(
            |store, span| Box::new(CeFileFs::with_config(store, zone_keys(), 4096, span)),
            StoreCheck::CeFileBody,
            &ops,
        );
    }

    #[test]
    fn lamassufs_pipelines_and_backends_compose_byte_identically(
        ops in prop::collection::vec(lamassu_op_strategy(40_000), 1..12)
    ) {
        // The cross combination: a batched fixsliced mount against a
        // per-block T-table mount. Every write takes a different code path
        // in each mount (wide span kernels vs scalar single-block calls),
        // yet the convergent data ciphertext must still match.
        check_dual_mounts(
            |store, span| Box::new(LamassuFs::new(
                store,
                zone_keys(),
                LamassuConfig::default().span(span),
            )),
            StoreCheck::LamassuDataBlocks,
            &ops,
            SpanConfig::batched().with_crypto(CryptoBackend::Fixsliced),
            SpanConfig::per_block().with_crypto(CryptoBackend::TTable),
        );
    }

    #[test]
    fn lamassu_remount_preserves_arbitrary_contents(data in prop::collection::vec(any::<u8>(), 0..60_000)) {
        let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        {
            let fs = LamassuFs::new(store.clone(), zone_keys(), LamassuConfig::default());
            let fd = fs.create("/f").unwrap();
            fs.write(fd, 0, &data).unwrap();
            fs.close(fd).unwrap();
        }
        let fs = LamassuFs::new(store, zone_keys(), LamassuConfig::default());
        let fd = fs.open("/f", Default::default()).unwrap();
        prop_assert_eq!(fs.read(fd, 0, data.len().max(1)).unwrap(), data);
    }

    #[test]
    fn convergent_encryption_is_deterministic(block in prop::collection::vec(any::<u8>(), 4096..=4096)) {
        // Equation 1 + 2: same plaintext, same inner key => same ciphertext.
        let kdf = ConvergentKdf::new(&[7u8; 32]);
        let key = kdf.derive_for_block(&block);
        let encrypt = |key: &[u8; 32]| {
            let mut buf = block.clone();
            cbc::encrypt_in_place(&Aes256::new(key), &FIXED_IV, &mut buf).unwrap();
            buf
        };
        prop_assert_eq!(encrypt(&key), encrypt(&kdf.derive_for_block(&block)));
        // And a different inner key diverges.
        let other = ConvergentKdf::new(&[8u8; 32]).derive_for_block(&block);
        prop_assert_ne!(key, other);
    }

    #[test]
    fn geometry_locate_block_is_injective_and_ordered(
        r in 1usize..=60,
        blocks in prop::collection::vec(0u64..5_000, 2..40)
    ) {
        let g = Geometry::new(4096, r).unwrap();
        let mut sorted = blocks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let locations: Vec<_> = sorted.iter().map(|b| g.locate_block(*b)).collect();
        for w in locations.windows(2) {
            // Strictly increasing physical placement, never colliding with a
            // metadata block offset.
            prop_assert!(w[0].physical_offset < w[1].physical_offset);
        }
        for loc in &locations {
            prop_assert_ne!(loc.physical_offset, g.metadata_block_offset(loc.segment));
            prop_assert!(loc.slot < g.keys_per_metadata_block());
        }
    }

    #[test]
    fn geometry_overhead_formulas_are_consistent(
        r in 1usize..=60,
        len in 0u64..50_000_000
    ) {
        let g = Geometry::new(4096, r).unwrap();
        let encrypted = g.encrypted_size(len);
        // Physical size is block-aligned, no smaller than the data, and the
        // overhead equals the number of metadata blocks times the block size.
        prop_assert_eq!(encrypted % 4096, 0);
        let ndb = g.data_blocks_for_len(len);
        let nmb = g.metadata_blocks_for_data_blocks(ndb);
        prop_assert_eq!(encrypted, (ndb + nmb) * 4096);
        prop_assert!(nmb >= 1);
        prop_assert!(nmb <= ndb.max(1));
    }

    #[test]
    fn block_spans_partition_any_range(offset in 0u64..1_000_000, len in 0usize..100_000) {
        let g = Geometry::default();
        let spans: Vec<_> = g.block_spans(offset, len).collect();
        let total: usize = spans.iter().map(|s| s.2).sum();
        prop_assert_eq!(total, len);
        // Spans are contiguous and in order.
        let mut cursor = offset;
        for (block, in_block, take) in spans {
            prop_assert_eq!(block * 4096 + in_block as u64, cursor);
            prop_assert!(take > 0);
            cursor += take as u64;
        }
    }
}
