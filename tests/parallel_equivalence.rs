//! Property tests for the parallel execution subsystem: every parallel hot
//! path must be **bit-identical** to its serial counterpart across thread
//! counts 1/2/4/8 and ragged shapes. This is the contract that lets the
//! perfbench numbers stand in for the serial reference.

mod common;

use common::{requests_from_seed, serve, spread_models};
use meadow::core::serve::{AdmissionPolicy, KvPolicy, ServeConfig};
use meadow::core::{EngineConfig, MeadowEngine};
use meadow::models::presets;
use meadow::models::{KvCompression, KvLayout};
use meadow::packing::chunk::{decompose, decompose_with, ChunkConfig};
use meadow::packing::stats::{IdHistogram, PrecisionDistribution};
use meadow::packing::{PackedWeights, PackingConfig, PackingLevel};
use meadow::tensor::gemm::{matmul_i8, matmul_i8_bt, matmul_i8_bt_with, matmul_i8_tiled_with};
use meadow::tensor::parallel::{partition, ExecConfig};
use meadow::tensor::Matrix;
use proptest::collection::vec;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn matrix_from(data: Vec<i8>, rows: usize, cols: usize) -> Matrix<i8> {
    Matrix::from_vec(rows, cols, data).expect("generated shape matches data")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_tiled_gemm_is_bit_identical(
        (m, k, n, a_data, b_data) in (1usize..24, 1usize..16, 1usize..24).prop_flat_map(
            |(m, k, n)| (
                Just(m),
                Just(k),
                Just(n),
                vec(-128i8..=127, m * k),
                vec(-128i8..=127, k * n),
            )
        ),
        tile_m in 1usize..6,
        tile_n in 1usize..6,
        tile_k in 1usize..6,
    ) {
        let a = matrix_from(a_data, m, k);
        let b = matrix_from(b_data, k, n);
        let reference = matmul_i8(&a, &b).expect("shapes agree");
        for threads in THREAD_COUNTS {
            let exec = ExecConfig::with_threads(threads);
            let par = matmul_i8_tiled_with(&a, &b, tile_m, tile_n, tile_k, &exec)
                .expect("shapes agree");
            prop_assert_eq!(
                &par, &reference,
                "tiled {}x{}x{} tiles ({},{},{}) threads {}",
                m, k, n, tile_m, tile_n, tile_k, threads
            );
        }
    }

    #[test]
    fn parallel_bt_gemm_is_bit_identical(
        (m, k, n, a_data, bt_data) in (1usize..24, 1usize..16, 1usize..24).prop_flat_map(
            |(m, k, n)| (
                Just(m),
                Just(k),
                Just(n),
                vec(-128i8..=127, m * k),
                vec(-128i8..=127, n * k),
            )
        ),
    ) {
        let a = matrix_from(a_data, m, k);
        let b_t = matrix_from(bt_data, n, k);
        let reference = matmul_i8_bt(&a, &b_t).expect("shapes agree");
        for threads in THREAD_COUNTS {
            let exec = ExecConfig::with_threads(threads);
            let par = matmul_i8_bt_with(&a, &b_t, &exec).expect("shapes agree");
            prop_assert_eq!(&par, &reference, "bt {}x{}x{} threads {}", m, k, n, threads);
        }
    }

    #[test]
    fn parallel_decompose_and_pack_are_bit_identical(
        (rows, chunk_cols, data) in (1usize..40, 1usize..24).prop_flat_map(
            |(rows, chunk_cols)| (
                Just(rows),
                Just(chunk_cols),
                // A small value alphabet keeps the unique table non-trivial
                // (repeated chunks) while ragged row counts vary freely.
                vec(-3i8..=3, rows * chunk_cols * 2),
            )
        ),
    ) {
        let w = matrix_from(data, rows, chunk_cols * 2);
        let config = ChunkConfig::default();
        let (unique, encoded) = decompose(&w, config).expect("chunkable");
        let serial_hist = IdHistogram::new(&encoded, unique.len(), 8);
        let serial_dist = PrecisionDistribution::new(&encoded);
        let packing = PackingConfig::default();
        let serial_packed = PackedWeights::pack(&w, &packing, PackingLevel::FrequencyAware)
            .expect("packable");
        for threads in THREAD_COUNTS {
            let exec = ExecConfig::with_threads(threads);
            let (pu, pe) = decompose_with(&w, config, &exec).expect("chunkable");
            prop_assert_eq!(&pu, &unique, "unique table, {} threads", threads);
            prop_assert_eq!(&pe, &encoded, "encoded ids, {} threads", threads);
            prop_assert_eq!(
                &IdHistogram::new_with(&pe, pu.len(), 8, &exec),
                &serial_hist,
                "histogram, {} threads",
                threads
            );
            prop_assert_eq!(
                &PrecisionDistribution::new_with(&pe, &exec),
                &serial_dist,
                "precision distribution, {} threads",
                threads
            );
            let packed = PackedWeights::pack_with(&w, &packing, PackingLevel::FrequencyAware, &exec)
                .expect("packable");
            prop_assert_eq!(&packed, &serial_packed, "packed stream, {} threads", threads);
            prop_assert_eq!(packed.unpack().expect("round trip"), w.clone());
        }
    }

    /// The serving simulator fans per-step measurements out on the engine's
    /// worker pool; the resulting `ServeReport` (including its serialized
    /// bytes, which the golden test pins) must be bit-identical across
    /// thread counts — for whole-cache and paged eviction, queueing and
    /// load-shedding admission alike, under every KV layout/compression
    /// point of the seam.
    #[test]
    fn serve_report_is_bit_identical_across_threads(
        seed in 0u64..500,
        n in 1usize..5,
        constrained in any::<bool>(),
        policy_idx in 0u8..3,
        shed in any::<bool>(),
        kv_idx in 0u8..4,
        weights_idx in 0u8..3,
    ) {
        let model = presets::tiny_decoder();
        // Arrivals staggered at tick scale (tens of µs on the tiny model)
        // so the batched path is genuinely exercised.
        let mut trace = requests_from_seed(seed, n, 20, 6, 0.01);
        let (kv_layout, kv_compression) = match kv_idx % 4 {
            0 => (KvLayout::Dense, KvCompression::None),
            1 => (KvLayout::GroupedHeads { kv_heads: 2 }, KvCompression::None),
            2 => (KvLayout::SlidingWindow { window: 8, sinks: 2 }, KvCompression::None),
            _ => (KvLayout::Dense, KvCompression::VedaVote { keep_ratio: 0.5 }),
        };
        let mut config = ServeConfig::default()
            .with_policy(match policy_idx % 3 {
                0 => KvPolicy::Fifo,
                1 => KvPolicy::Lru,
                _ => KvPolicy::PagedLru,
            })
            .with_page_bytes(256)
            .with_kv_layout(kv_layout)
            .with_kv_compression(kv_compression);
        if shed {
            config = config.with_admission(AdmissionPolicy::RejectAfter { ttft_slo_ms: 0.2 });
        }
        // Weight-residency points: off, sequential cold loads, and
        // streaming overlap — two models churning under a one-model budget
        // in both budgeted cases.
        if weights_idx % 3 > 0 {
            trace = spread_models(trace, 2);
            config = config
                .with_weight_budget(model.total_weight_bytes())
                .with_weight_streaming(weights_idx % 3 == 2);
        }
        if constrained {
            let single_max =
                trace.requests.iter().map(|r| r.peak_kv_bytes(&model)).max().unwrap();
            config = config.with_budget(single_max).with_max_batch(2);
        }
        let reference = serve(
            &MeadowEngine::new(EngineConfig::zcu102(model.clone(), 12.0)).unwrap(),
            &trace,
            &config,
        )
        .unwrap();
        for threads in THREAD_COUNTS {
            let engine = MeadowEngine::new(
                EngineConfig::zcu102(model.clone(), 12.0)
                    .with_exec(ExecConfig::with_threads(threads)),
            )
            .unwrap();
            let report = serve(&engine, &trace, &config).unwrap();
            prop_assert_eq!(&report, &reference, "threads {}", threads);
            prop_assert_eq!(
                report.to_json().expect("serializable"),
                reference.to_json().expect("serializable"),
                "serialized bytes, threads {}", threads
            );
        }
    }

    /// Heterogeneous cluster serving is bit-identical across thread
    /// counts: the per-chip fan-out splits one thread budget among
    /// *different* engines (big/LITTLE fleet under weighted placement),
    /// and neither the chip fan-out order nor the inner per-engine
    /// fan-out may leak into the report.
    #[test]
    fn hetero_cluster_report_is_bit_identical_across_threads(
        seed in 0u64..300,
        n in 1usize..5,
        littles in 1usize..3,
        migrate in any::<bool>(),
    ) {
        use meadow::core::cluster::{LeastLoadedWeighted, ToLeastLoaded};
        use meadow::core::spec::ServeSpec;

        let model = presets::tiny_decoder();
        let trace = requests_from_seed(seed, n, 20, 6, 0.01);
        let single_max = trace.requests.iter().map(|r| r.peak_kv_bytes(&model)).max().unwrap();
        let config = ServeConfig::default()
            .with_budget(2 * single_max)
            .with_policy(KvPolicy::PagedLru)
            .with_page_bytes(256)
            .with_max_batch(2);
        let mut specs = vec![EngineConfig::zcu102(model.clone(), 12.0)];
        specs.extend((0..littles).map(|_| EngineConfig::zcu102_little(model.clone(), 6.0)));
        let run = |threads: usize| {
            let engine = MeadowEngine::new(
                EngineConfig::zcu102(model.clone(), 12.0)
                    .with_exec(ExecConfig::with_threads(threads)),
            )
            .unwrap();
            let mut builder = ServeSpec::builder()
                .chip_specs(specs.clone())
                .config(config)
                .placement(LeastLoadedWeighted);
            if migrate {
                builder = builder.migration(ToLeastLoaded);
            }
            builder.build().unwrap().run(&engine, &trace).unwrap().into_cluster().unwrap()
        };
        let reference = run(1);
        for threads in [2usize, 4, 8] {
            let report = run(threads);
            prop_assert_eq!(&report, &reference, "threads {}", threads);
            prop_assert_eq!(
                report.to_json().expect("serializable"),
                reference.to_json().expect("serializable"),
                "serialized bytes, threads {}", threads
            );
        }
    }

    #[test]
    fn partition_is_a_cover_for_ragged_lengths(len in 0usize..300, parts in 1usize..12) {
        let ranges = partition(len, parts);
        let mut next = 0;
        for r in &ranges {
            prop_assert_eq!(r.start, next);
            prop_assert!(r.end > r.start);
            next = r.end;
        }
        prop_assert_eq!(next, len);
        prop_assert!(ranges.len() <= parts.max(1));
        if len > 0 {
            // Near-equal split: sizes differ by at most one element.
            let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            let min = sizes.iter().min().copied().unwrap();
            let max = sizes.iter().max().copied().unwrap();
            prop_assert!(max - min <= 1, "uneven split {:?}", sizes);
        }
    }
}
