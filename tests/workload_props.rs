//! Property suite for the open-loop workload generators:
//! `ArrivalTrace::poisson` / `ArrivalTrace::open_loop` and `ZipfLengths`.
//! Pins seed-determinism (the same seed replays the same trace byte for
//! byte), length bounds, and non-decreasing arrival times across the whole
//! parameter space the generators accept.

use meadow::models::presets;
use meadow::models::workload::{ArrivalTrace, ZipfLengths};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Poisson traces are seed-deterministic, id-sequential, and their
    /// arrival times are finite, non-negative and non-decreasing for any
    /// positive rate.
    #[test]
    fn poisson_is_deterministic_ordered_and_finite(
        seed in any::<u64>(),
        n in 0usize..40,
        rate_millis in 1u64..5_000_000,
        prompt in 1usize..32,
        generate in 1usize..16,
    ) {
        let rate = rate_millis as f64 / 1e3;
        let a =
            ArrivalTrace::poisson(n, rate, prompt, generate, &mut StdRng::seed_from_u64(seed))
                .unwrap();
        let b =
            ArrivalTrace::poisson(n, rate, prompt, generate, &mut StdRng::seed_from_u64(seed))
                .unwrap();
        prop_assert_eq!(&a, &b, "same seed must replay the same trace");
        prop_assert_eq!(a.requests.len(), n);
        for (i, r) in a.requests.iter().enumerate() {
            prop_assert_eq!(r.id, i as u32);
            prop_assert_eq!((r.prompt_tokens, r.generate_tokens), (prompt, generate));
            prop_assert!(r.arrival_ms.is_finite() && r.arrival_ms >= 0.0);
            prop_assert_eq!(r.affinity, None);
        }
        prop_assert!(
            a.requests.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms),
            "arrival times must be non-decreasing"
        );
    }

    /// Consuming the rng changes the trace (the generator actually draws
    /// from it), while a fresh rng with the same seed replays it.
    #[test]
    fn poisson_draws_from_the_rng(seed in any::<u64>(), n in 1usize..20) {
        let mut rng = StdRng::seed_from_u64(seed);
        let first = ArrivalTrace::poisson(n, 100.0, 8, 4, &mut rng).unwrap();
        let second = ArrivalTrace::poisson(n, 100.0, 8, 4, &mut rng).unwrap();
        // The rng must advance between traces.
        prop_assert_ne!(&first, &second);
    }

    /// Open-loop traces keep every sampled length inside the configured
    /// Zipf bounds, stay seed-deterministic, and inherit the Poisson
    /// arrival ordering.
    #[test]
    fn open_loop_respects_bounds_and_replays(
        seed in any::<u64>(),
        n in 0usize..40,
        prompt_min in 1usize..8,
        prompt_span in 0usize..24,
        generate_min in 1usize..8,
        generate_span in 0usize..16,
        exponent_tenths in 5u32..30,
    ) {
        let lengths = ZipfLengths {
            prompt_min,
            prompt_max: prompt_min + prompt_span,
            generate_min,
            generate_max: generate_min + generate_span,
            exponent: f64::from(exponent_tenths) / 10.0,
        };
        lengths.validate().unwrap();
        let a = ArrivalTrace::open_loop(n, 50.0, &lengths, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let b = ArrivalTrace::open_loop(n, 50.0, &lengths, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        prop_assert_eq!(&a, &b, "same seed must replay the same trace");
        prop_assert_eq!(a.requests.len(), n);
        for r in &a.requests {
            prop_assert!(
                (lengths.prompt_min..=lengths.prompt_max).contains(&r.prompt_tokens),
                "prompt {} outside [{}, {}]",
                r.prompt_tokens,
                lengths.prompt_min,
                lengths.prompt_max
            );
            prop_assert!(
                (lengths.generate_min..=lengths.generate_max).contains(&r.generate_tokens),
                "generation {} outside [{}, {}]",
                r.generate_tokens,
                lengths.generate_min,
                lengths.generate_max
            );
            prop_assert!(r.arrival_ms.is_finite() && r.arrival_ms >= 0.0);
        }
        prop_assert!(a.requests.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms));
        // Bounded lengths validate against any model that can hold them.
        if lengths.prompt_max + lengths.generate_max
            <= presets::tiny_decoder().max_seq
        {
            a.validate(&presets::tiny_decoder()).unwrap();
        }
    }

    /// Invalid rates and length configurations are rejected for every
    /// seed, never silently accepted.
    #[test]
    fn generators_reject_invalid_parameters(seed in any::<u64>(), n in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            prop_assert!(ArrivalTrace::poisson(n, rate, 8, 4, &mut rng).is_err());
        }
        let ok = ZipfLengths {
            prompt_min: 2,
            prompt_max: 8,
            generate_min: 1,
            generate_max: 4,
            exponent: 1.1,
        };
        for bad in [
            ZipfLengths { prompt_min: 0, ..ok },
            ZipfLengths { generate_min: 0, ..ok },
            ZipfLengths { prompt_max: 1, ..ok },
            ZipfLengths { generate_max: 0, ..ok },
            ZipfLengths { exponent: 0.0, ..ok },
            ZipfLengths { exponent: -1.0, ..ok },
            ZipfLengths { exponent: f64::NAN, ..ok },
        ] {
            prop_assert!(bad.validate().is_err());
            prop_assert!(ArrivalTrace::open_loop(n, 50.0, &bad, &mut rng).is_err());
        }
    }
}
