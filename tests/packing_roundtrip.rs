//! Property tests: weight packing is lossless for *arbitrary* INT8 matrices
//! at every optimization level — the reproduction's form of the paper's
//! "approximation-less" claim (§5).

mod common;

use common::fnv1a64;
use meadow::models::weights::ModelPackingStats;
use meadow::models::{presets, TransformerConfig};
use meadow::packing::{ChunkConfig, PackedWeights, PackingConfig, PackingLevel};
use meadow::tensor::Matrix;
use proptest::prelude::*;

fn arb_matrix(max_rows: usize, max_chunk_cols: usize) -> impl Strategy<Value = Matrix<i8>> {
    (1..=max_rows, 1..=max_chunk_cols).prop_flat_map(|(rows, chunk_cols)| {
        let cols = chunk_cols * 2;
        proptest::collection::vec(any::<i8>(), rows * cols)
            .prop_map(move |data| Matrix::from_vec(rows, cols, data).expect("sized to shape"))
    })
}

/// Matrices with heavy chunk redundancy (long runs of few values), the
/// regime packing is designed for.
fn arb_redundant_matrix() -> impl Strategy<Value = Matrix<i8>> {
    (1..=24usize, 1..=32usize, proptest::collection::vec(any::<i8>(), 1..=4)).prop_flat_map(
        |(rows, chunk_cols, palette)| {
            let cols = chunk_cols * 2;
            proptest::collection::vec(0..palette.len(), rows * cols).prop_map(move |picks| {
                let data: Vec<i8> = picks.into_iter().map(|i| palette[i]).collect();
                Matrix::from_vec(rows, cols, data).expect("sized to shape")
            })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pack_unpack_is_bit_exact_for_arbitrary_matrices(w in arb_matrix(24, 32)) {
        for level in PackingLevel::all() {
            let packed = PackedWeights::pack(&w, &PackingConfig::default(), level).unwrap();
            prop_assert_eq!(packed.unpack().unwrap(), w.clone(), "level {:?}", level);
        }
    }

    #[test]
    fn pack_unpack_is_bit_exact_for_redundant_matrices(w in arb_redundant_matrix()) {
        for level in PackingLevel::all() {
            let packed = PackedWeights::pack(&w, &PackingConfig::default(), level).unwrap();
            prop_assert_eq!(packed.unpack().unwrap(), w.clone(), "level {:?}", level);
        }
    }

    #[test]
    fn round_trip_survives_any_payload_width(
        w in arb_redundant_matrix(),
        payload in 16u32..=256,
    ) {
        let cfg = PackingConfig { payload_bits: payload, ..PackingConfig::default() };
        for level in PackingLevel::all() {
            match PackedWeights::pack(&w, &cfg, level) {
                Ok(packed) => prop_assert_eq!(packed.unpack().unwrap(), w.clone()),
                // Narrow payloads may legitimately reject wide IDs.
                Err(meadow::packing::PackingError::PayloadTooNarrow { .. }) => {}
                Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
            }
        }
    }

    #[test]
    fn round_trip_survives_chunk_sizes(
        seed_rows in 1..=16usize,
        chunk_elems in 1..=8usize,
        chunks_per_row in 1..=16usize,
        palette in proptest::collection::vec(any::<i8>(), 1..=3),
    ) {
        let cols = chunk_elems * chunks_per_row;
        let data: Vec<i8> =
            (0..seed_rows * cols).map(|i| palette[i % palette.len()]).collect();
        let w = Matrix::from_vec(seed_rows, cols, data).unwrap();
        let cfg = PackingConfig { chunk: ChunkConfig { chunk_elems }, ..PackingConfig::default() };
        for level in PackingLevel::all() {
            let packed = PackedWeights::pack(&w, &cfg, level).unwrap();
            prop_assert_eq!(packed.unpack().unwrap(), w.clone());
        }
    }

    #[test]
    fn packed_size_never_exceeds_uniform_plus_table(w in arb_matrix(16, 16)) {
        // Packet-specific precision can never do worse than one maximal
        // packet per ID group plus the unique matrix.
        let cfg = PackingConfig::default();
        let naive = PackedWeights::pack(&w, &cfg, PackingLevel::Naive).unwrap();
        let freq = PackedWeights::pack(&w, &cfg, PackingLevel::FrequencyAware).unwrap();
        // Frequency-aware packets hold at least as many IDs per packet as
        // uniform-precision packets, so the packet count cannot grow.
        prop_assert!(freq.meta().packets <= naive.meta().packets.max(1) * 2);
    }

    #[test]
    fn decode_ids_matches_original_encoding(w in arb_redundant_matrix()) {
        let (unique, encoded) =
            meadow::packing::chunk::decompose(&w, ChunkConfig::default()).unwrap();
        let packed = PackedWeights::from_decomposition(
            unique,
            encoded.clone(),
            &PackingConfig::default(),
            PackingLevel::PacketSpecific,
        )
        .unwrap();
        prop_assert_eq!(packed.decode_ids().unwrap(), encoded.ids().to_vec());
    }
}

#[test]
fn empty_and_degenerate_matrices() {
    for (rows, cols) in [(0usize, 0usize), (1, 2), (1, 64)] {
        let w = Matrix::<i8>::zeros(rows, cols);
        for level in PackingLevel::all() {
            let packed = PackedWeights::pack(&w, &PackingConfig::default(), level).unwrap();
            assert_eq!(packed.unpack().unwrap(), w);
        }
    }
}

/// FNV-1a/64 of the serialized [`PackedWeights`] of [`seeded_redundant`]
/// at each level of [`PackingLevel::all`], recorded before the chunk
/// table's hasher was replaced: tables, IDs and packed streams depend only
/// on first-occurrence order, never on the hasher.
const FROZEN_PACKED: [&str; 3] = ["040c1233f7f6f3b1", "00e43b92cb8673c7", "63a03c5af05de4a0"];

/// A 64×128 matrix over a skewed six-value palette, drawn from a std-only
/// xorshift64 stream: many repeated chunks with uneven frequencies.
fn seeded_redundant() -> Matrix<i8> {
    const PALETTE: [i8; 6] = [0, 1, -3, 7, 127, -128];
    const SKEW: [usize; 16] = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 4, 5];
    let mut x = 0x5EED_u64;
    let data = (0..64 * 128)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            PALETTE[SKEW[(x % 16) as usize]]
        })
        .collect();
    Matrix::from_vec(64, 128, data).unwrap()
}

#[test]
fn packed_weights_match_frozen_digests() {
    let w = seeded_redundant();
    for (level, want) in PackingLevel::all().into_iter().zip(FROZEN_PACKED) {
        let packed = PackedWeights::pack(&w, &PackingConfig::default(), level).unwrap();
        assert_eq!(packed.unpack().unwrap(), w, "level {level:?}");
        let got = fnv1a64(&serde_json::to_string(&packed).unwrap());
        assert_eq!(got, want, "level {level:?}");
    }
}

/// FNV-1a/64 of the serialized [`ModelPackingStats`] of each model at each
/// level of [`PackingLevel::all`], recorded before statistics stopped
/// building a [`PackedWeights`] per matrix: counting packets through the
/// encoder's own decisions must reproduce every size byte for byte. The
/// `Naive` digests of the two tiny models agree because naive sizes depend
/// only on the matrix shapes.
const FROZEN_STATS: [(&str, [&str; 3]); 4] = [
    ("tiny-decoder", ["943188ccd3badac7", "40f77f0c7e61da6c", "179793bf46b48b46"]),
    ("tiny-vit", ["943188ccd3badac7", "ce9bfa3094bf663e", "d4e9e65f1d4f8748"]),
    ("OPT-125M", ["b296ec424ea48159", "9446fdb73a5b386f", "bcaeaababe35566d"]),
    ("OPT-1.3B", ["3254136a5b620a33", "19c421863035b435", "b6045aa902630f0c"]),
];

fn stats_digest(model: &TransformerConfig, level: PackingLevel) -> String {
    let stats = ModelPackingStats::compute(model, &PackingConfig::default(), level).unwrap();
    fnv1a64(&serde_json::to_string(&stats).unwrap())
}

fn assert_frozen_stats(model: &TransformerConfig, levels: &[PackingLevel]) {
    let (_, digests) = FROZEN_STATS.iter().find(|(name, _)| *name == model.name).unwrap();
    for (level, want) in PackingLevel::all().into_iter().zip(digests) {
        if levels.contains(&level) {
            assert_eq!(stats_digest(model, level), *want, "{} at {level:?}", model.name);
        }
    }
}

#[test]
fn model_packing_stats_match_frozen_digests() {
    for model in [presets::tiny_decoder(), presets::tiny_vit()] {
        assert_frozen_stats(&model, &PackingLevel::all());
    }
    // The one exact OPT-scale pin in a debug run: every golden and oracle
    // case serves the tiny decoder.
    assert_frozen_stats(&presets::opt_125m(), &[PackingLevel::FrequencyAware]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: about 20 s in a debug build")]
fn opt_scale_packing_stats_match_frozen_digests() {
    assert_frozen_stats(&presets::opt_125m(), &[PackingLevel::Naive, PackingLevel::PacketSpecific]);
    assert_frozen_stats(&presets::opt_1_3b(), &PackingLevel::all());
}
